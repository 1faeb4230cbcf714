//! A shared, concurrent simulation-result cache.
//!
//! The cycle-level engine is deterministic: for a given (workload
//! specification, core configuration, frequency, seed) tuple it always
//! produces the same statistics (see the determinism tests in
//! [`crate::board`] and [`crate::gem5sim`]). The GemStone pipeline drives
//! the engine over heavily overlapping operating-point grids — the
//! validation sweep, the two per-cluster power sweeps and the
//! model-improvement loop all revisit the same tuples — so the engine
//! result is memoised here and the (seeded, per-call) measurement noise is
//! applied *outside* the cache. All externally observable values stay
//! bit-identical whether the cache is cold or warm, and equal the direct
//! replay [`SimCache::execute_grid_with`].
//!
//! The cache key is a 128-bit fingerprint over the full workload
//! specification, the full core configuration, the frequency bits and the
//! workload's derived seed, so two configurations that differ in any field
//! — even when reported under the same model name — never share an entry.
//!
//! The map is sharded: each shard is an independent
//! [`std::sync::RwLock`]-protected hash map, so concurrent sweeps mostly
//! touch different locks. An entry is created already claimed by the
//! caller that will fill it, so every tuple is simulated **exactly once**
//! even when several worker threads request it simultaneously — the
//! losers of the race block on the winner's result instead of re-running
//! the engine, also when the winner is filling a whole frequency column.
//!
//! Every engine request enters through one of two calls:
//! [`SimCache::run_grid`] for a frequency column, or
//! [`SimCache::run_point`] for one point. The point call holds the one
//! one-point rule for the board and the gem5 driver alike: a stock
//! configuration at one of its cluster's DVFS points fills the whole
//! column from one fused replay, so the column's other points become hits;
//! custom configurations and off-column frequencies replay one lane.
//!
//! Cold runs replay the packed trace of the process-wide [`TraceCache`]:
//! a workload's instruction stream depends only on its spec, so a driver
//! that replays one spec for several (configuration, frequency) columns
//! holds its trace ([`TraceCache::hold`]) and the trace is generated once
//! for all of them. Replay is bit-identical to direct generation (see the
//! determinism contract in [`gemstone_workloads::trace`]), so results stay
//! unchanged whether a trace is fresh or held. Atomic-tier runs read only
//! the trace cache's memoised class histogram of the spec, never a packed
//! trace.
//!
//! # Examples
//!
//! ```
//! use gemstone_platform::dvfs::Cluster;
//! use gemstone_platform::simcache::SimCache;
//! use gemstone_uarch::backend::TierConfig;
//! use gemstone_uarch::configs::cortex_a15_hw;
//! use gemstone_workloads::suites;
//!
//! let cache = SimCache::new();
//! let spec = suites::by_name("mi-sha").unwrap().scaled(0.05);
//! let (cfg, big, tier) = (cortex_a15_hw(), Some(Cluster::BigA15), TierConfig::default());
//! // 1 GHz is a DVFS point of the A15: the cold call fills its 4-lane column.
//! let cold = cache.run_point(&cfg, &spec, big, 1.0e9, tier);
//! let warm = cache.run_point(&cfg, &spec, big, 1.4e9, tier);
//! assert!(cold.seconds > warm.seconds);
//! assert_eq!((cache.misses(), cache.hits()), (4, 1));
//! ```

use crate::dvfs::Cluster;
use gemstone_obs::fnv::fnv1a;
use gemstone_obs::registry::log2_time_bounds;
use gemstone_obs::{Counter, Histogram, Registry};
use gemstone_uarch::backend::{Backend, Fidelity, TierConfig, WindowObserver};
use gemstone_uarch::core::CoreConfig;
use gemstone_uarch::stats::SimStats;
use gemstone_workloads::spec::WorkloadSpec;
use gemstone_workloads::trace::TraceCache;
use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError, RwLock};
use std::time::Instant;

/// Number of independent shards (power of two).
const SHARD_COUNT: usize = 16;

/// A 128-bit fingerprint of one (workload spec, core config, frequency,
/// seed) simulation tuple.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SimKey {
    hi: u64,
    lo: u64,
}

/// The noise-free result of one engine run: everything the board and the
/// gem5 driver derive their outputs from.
#[derive(Debug, Clone)]
pub struct SimOutcome {
    /// Simulated wall-clock seconds at the configured frequency.
    pub seconds: f64,
    /// Full engine statistics.
    pub stats: SimStats,
}

/// Where one cache entry is in its life. An entry is created already
/// [`SlotState::Filling`], claimed by its creator, so a concurrent caller
/// that finds it waits instead of replaying.
enum SlotState {
    /// Unclaimed: a fill panicked, so the next caller may claim it.
    Empty,
    /// Claimed by a caller whose replay is still running.
    Filling,
    /// Filled; every later lookup is a hit.
    Ready(Arc<SimOutcome>),
}

/// One cache entry; its state moves from claimed to filled exactly once,
/// and callers that find it claimed block on `filled` until it is.
struct Slot {
    state: Mutex<SlotState>,
    filled: Condvar,
}

impl Slot {
    fn lock(&self) -> MutexGuard<'_, SlotState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Installs the outcome of a claimed lane and wakes its waiters.
    fn install(&self, outcome: Arc<SimOutcome>) {
        *self.lock() = SlotState::Ready(outcome);
        self.filled.notify_all();
    }
}

/// What one lookup found in a lane.
enum Lane {
    /// This caller created or claimed the lane and must fill it.
    Claimed(Arc<Slot>),
    /// Another caller is filling the lane.
    Pending(Arc<Slot>),
    /// The lane was already filled (a hit).
    Ready(Arc<SimOutcome>),
    /// This caller filled the lane (a miss).
    Filled(Arc<SimOutcome>),
}

/// The lanes one caller claimed. Dropped before they are filled — the
/// replay panicked — it hands them back as [`SlotState::Empty`] and wakes
/// their waiters, one of which then fills the lane itself.
struct Claims(Vec<Arc<Slot>>);

impl Drop for Claims {
    fn drop(&mut self) {
        for slot in &self.0 {
            let mut state = slot.lock();
            if matches!(*state, SlotState::Filling) {
                *state = SlotState::Empty;
                slot.filled.notify_all();
            }
        }
    }
}

/// A shared, concurrent, sharded memo of engine results.
///
/// Cheap to share via [`Arc`]; see [`SimCache::global`] for the
/// process-wide instance used by default.
pub struct SimCache {
    shards: Vec<RwLock<HashMap<SimKey, Arc<Slot>>>>,
    hits: Arc<Counter>,
    misses: Arc<Counter>,
    grid_fills: Arc<Counter>,
    lookup_seconds: Arc<Histogram>,
    sim_seconds: Arc<Histogram>,
    traces: Arc<TraceCache>,
}

/// A consistent view of one cache's counters, read as a pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheSnapshot {
    /// Lookups served from the memo.
    pub hits: u64,
    /// Lookups that executed the engine.
    pub misses: u64,
    /// Memoised entries at snapshot time.
    pub entries: usize,
}

static GLOBAL: OnceLock<Arc<SimCache>> = OnceLock::new();

impl SimCache {
    /// Creates an empty cache drawing packed traces from the process-wide
    /// [`TraceCache::global`].
    pub fn new() -> Self {
        Self::with_trace_cache(TraceCache::global())
    }

    /// Creates an empty cache drawing packed traces from `traces`.
    pub fn with_trace_cache(traces: Arc<TraceCache>) -> Self {
        SimCache {
            shards: (0..SHARD_COUNT)
                .map(|_| RwLock::new(HashMap::new()))
                .collect(),
            // Detached handles: per-instance caches (tests, benches) keep
            // isolated counts; only `global()` registers the canonical
            // `simcache.*` names.
            hits: Arc::new(Counter::new()),
            misses: Arc::new(Counter::new()),
            grid_fills: Arc::new(Counter::new()),
            lookup_seconds: Arc::new(Histogram::with_bounds(log2_time_bounds())),
            sim_seconds: Arc::new(Histogram::with_bounds(log2_time_bounds())),
            traces,
        }
    }

    /// The trace cache consulted by this simulation cache.
    pub fn trace_cache(&self) -> &Arc<TraceCache> {
        &self.traces
    }

    /// The process-wide shared cache: the default board's cache, so the
    /// validation sweep, the power sweeps and ad-hoc runs all share one
    /// memo.
    pub fn global() -> Arc<SimCache> {
        GLOBAL
            .get_or_init(|| {
                let mut cache = SimCache::new();
                let registry = Registry::global();
                cache.hits = registry.counter("simcache.hits");
                cache.misses = registry.counter("simcache.misses");
                cache.grid_fills = registry.counter("simcache.grid_fills");
                cache.lookup_seconds =
                    registry.histogram("simcache.lookup.seconds", log2_time_bounds());
                cache.sim_seconds = registry.histogram("sim.run.seconds", log2_time_bounds());
                Arc::new(cache)
            })
            .clone()
    }

    /// Fingerprints one simulation tuple. The fingerprint covers every
    /// field of the spec and the configuration (via their canonical debug
    /// renderings), the exact frequency bits, the derived seed and the
    /// fidelity tier — results from different tiers never share an entry.
    /// The tier is canonicalised first, so sampling-geometry knobs do not
    /// churn atomic or approximate keys.
    pub fn fingerprint_tier(
        spec: &WorkloadSpec,
        cfg: &CoreConfig,
        freq_hz: f64,
        tier: TierConfig,
    ) -> SimKey {
        use std::hash::{Hash, Hasher};
        let repr = format!(
            "{spec:?}\u{1f}{cfg:?}\u{1f}{}\u{1f}{}\u{1f}{:?}",
            freq_hz.to_bits(),
            spec.derived_seed(),
            tier.canonical()
        );
        let mut sip = std::collections::hash_map::DefaultHasher::new();
        repr.hash(&mut sip);
        SimKey {
            hi: fnv1a(repr.as_bytes()),
            lo: sip.finish(),
        }
    }

    /// Runs one (config, workload, frequency, tier) point — or returns
    /// the memoised result. This is the one one-point rule: when `column`
    /// names the cluster whose stock configuration `cfg` is and `freq_hz`
    /// is bit-equal to one of its DVFS points ([`Cluster::column_index`]),
    /// the point is a lane of that column, and a cold lane fills every
    /// missing lane of the column from one fused replay, so later points
    /// of the column are hits. Pass `None` for a custom configuration; it
    /// and any off-column frequency replay one lane. Lanes are
    /// bit-identical to one-lane replays, so the result is the same
    /// either way.
    ///
    /// The first caller for a lane executes the backend; concurrent callers
    /// for the same lane block on that execution rather than duplicating
    /// it. The tier is part of the cache identity, so a warm approximate
    /// entry is never returned for an atomic or sampled request (and vice
    /// versa).
    pub fn run_point(
        &self,
        cfg: &CoreConfig,
        spec: &WorkloadSpec,
        column: Option<Cluster>,
        freq_hz: f64,
        tier: TierConfig,
    ) -> SimOutcome {
        let (freqs, lane) = match column.map(|c| (c.frequencies(), c.column_index(freq_hz))) {
            Some((freqs, Some(lane))) => (freqs, lane),
            _ => (std::slice::from_ref(&freq_hz), 0),
        };
        self.run_lanes(cfg, spec, freqs, &[lane], tier).remove(0)
    }

    /// Runs an entire frequency column for one (config, workload, tier)
    /// from a single fused grid replay — or from the memo where lanes are
    /// already warm. Returns one outcome per entry of `freqs_hz`, in
    /// order, each bit-identical to a one-lane replay at that frequency.
    ///
    /// Lanes already memoised count as hits; the remaining lanes are
    /// filled by **one** multi-lane [`Backend`] replay and count as
    /// misses, preserving the "misses == entries created" reading. Entries
    /// filled for a column of two or more frequencies also count in
    /// `simcache.grid_fills`; a one-frequency request never does.
    /// Lookup latency covers fingerprinting plus the shard probes — not
    /// the engine run a miss goes on to pay (that lands in
    /// `sim.run.seconds`).
    ///
    /// Exactly-once semantics hold for every lane: the caller claims
    /// every missing lane before it replays, so a concurrent caller that
    /// asks for any lane of an in-flight column — as a column or as a
    /// point — blocks on the fill and counts a hit instead of re-running
    /// the engine. Claiming never blocks (a lane claimed elsewhere is
    /// waited for only after this caller's own replay), so overlapping
    /// requests cannot deadlock. The tier is part of each lane's
    /// identity, so a grid fill never serves another tier's request.
    pub fn run_grid(
        &self,
        cfg: &CoreConfig,
        spec: &WorkloadSpec,
        freqs_hz: &[f64],
        tier: TierConfig,
    ) -> Vec<SimOutcome> {
        let all: Vec<usize> = (0..freqs_hz.len()).collect();
        self.run_lanes(cfg, spec, freqs_hz, &all, tier)
    }

    /// The `wanted` lanes of the column `freqs_hz`, in `wanted` order.
    /// When any wanted lane is missing, every missing lane of the column
    /// is claimed and filled by one replay.
    fn run_lanes(
        &self,
        cfg: &CoreConfig,
        spec: &WorkloadSpec,
        freqs_hz: &[f64],
        wanted: &[usize],
        tier: TierConfig,
    ) -> Vec<SimOutcome> {
        let tier = tier.canonical();
        if wanted.is_empty() {
            return Vec::new();
        }
        // One lookup observation per call: fingerprint + shard probe for
        // the wanted lanes, and for the rest of the column when a wanted
        // lane has to be filled, before any engine work.
        let lookup_start = Instant::now();
        let mut lanes: Vec<Option<Lane>> = (0..freqs_hz.len()).map(|_| None).collect();
        for &i in wanted {
            lanes[i] = Some(self.claim(spec, cfg, freqs_hz[i], tier));
        }
        if lanes
            .iter()
            .flatten()
            .any(|l| matches!(l, Lane::Claimed(_)))
        {
            for (i, lane) in lanes.iter_mut().enumerate() {
                if lane.is_none() {
                    *lane = Some(self.claim(spec, cfg, freqs_hz[i], tier));
                }
            }
        }
        self.lookup_seconds
            .observe(lookup_start.elapsed().as_secs_f64());

        let claims = Claims(
            lanes
                .iter()
                .flatten()
                .filter_map(|lane| match lane {
                    Lane::Claimed(slot) => Some(Arc::clone(slot)),
                    _ => None,
                })
                .collect(),
        );
        if !claims.0.is_empty() {
            let claimed: Vec<usize> = (0..lanes.len())
                .filter(|&i| matches!(lanes[i], Some(Lane::Claimed(_))))
                .collect();
            let freqs: Vec<f64> = claimed.iter().map(|&i| freqs_hz[i]).collect();
            let sim_start = Instant::now();
            let outcomes = Self::execute_grid_with(&self.traces, cfg, spec, &freqs, tier, None);
            self.sim_seconds.observe(sim_start.elapsed().as_secs_f64());
            for ((&i, slot), outcome) in claimed.iter().zip(&claims.0).zip(outcomes) {
                let outcome = Arc::new(outcome);
                slot.install(Arc::clone(&outcome));
                lanes[i] = Some(Lane::Filled(outcome));
            }
            self.misses.add(claimed.len() as u64);
            if freqs_hz.len() > 1 {
                self.grid_fills.add(claimed.len() as u64);
            }
        }
        drop(claims);

        wanted
            .iter()
            .map(|&i| {
                let outcome = match lanes[i].take().expect("wanted lanes are looked up") {
                    Lane::Filled(outcome) => outcome,
                    Lane::Ready(outcome) => {
                        self.hits.inc();
                        outcome
                    }
                    Lane::Pending(slot) => self.wait(&slot, cfg, spec, freqs_hz[i], tier),
                    Lane::Claimed(_) => unreachable!("claimed lanes are filled above"),
                };
                Arc::unwrap_or_clone(outcome)
            })
            .collect()
    }

    /// Looks up one lane, creating and claiming its entry when absent and
    /// claiming an entry a panicked fill handed back.
    fn claim(&self, spec: &WorkloadSpec, cfg: &CoreConfig, freq_hz: f64, tier: TierConfig) -> Lane {
        let key = Self::fingerprint_tier(spec, cfg, freq_hz, tier);
        let shard = &self.shards[(key.hi as usize) & (SHARD_COUNT - 1)];
        let found = shard
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(&key)
            .cloned();
        let slot = match found {
            Some(slot) => slot,
            None => {
                let mut map = shard.write().unwrap_or_else(PoisonError::into_inner);
                match map.get(&key) {
                    Some(slot) => Arc::clone(slot),
                    None => {
                        let slot = Arc::new(Slot {
                            state: Mutex::new(SlotState::Filling),
                            filled: Condvar::new(),
                        });
                        map.insert(key, Arc::clone(&slot));
                        return Lane::Claimed(slot);
                    }
                }
            }
        };
        let mut state = slot.lock();
        match &*state {
            SlotState::Ready(outcome) => Lane::Ready(Arc::clone(outcome)),
            SlotState::Filling => {
                drop(state);
                Lane::Pending(slot)
            }
            SlotState::Empty => {
                *state = SlotState::Filling;
                drop(state);
                Lane::Claimed(slot)
            }
        }
    }

    /// Blocks until another caller fills `slot` (a hit). If that fill
    /// panicked, this caller claims the lane and replays it alone (a
    /// miss).
    fn wait(
        &self,
        slot: &Arc<Slot>,
        cfg: &CoreConfig,
        spec: &WorkloadSpec,
        freq_hz: f64,
        tier: TierConfig,
    ) -> Arc<SimOutcome> {
        let mut state = slot.lock();
        loop {
            match &*state {
                SlotState::Ready(outcome) => {
                    self.hits.inc();
                    return Arc::clone(outcome);
                }
                SlotState::Filling => {
                    state = slot
                        .filled
                        .wait(state)
                        .unwrap_or_else(PoisonError::into_inner);
                }
                SlotState::Empty => {
                    *state = SlotState::Filling;
                    drop(state);
                    let claims = Claims(vec![Arc::clone(slot)]);
                    let sim_start = Instant::now();
                    let outcome = Arc::new(
                        Self::execute_grid_with(&self.traces, cfg, spec, &[freq_hz], tier, None)
                            .remove(0),
                    );
                    self.sim_seconds.observe(sim_start.elapsed().as_secs_f64());
                    slot.install(Arc::clone(&outcome));
                    drop(claims);
                    self.misses.inc();
                    return outcome;
                }
            }
        }
    }

    /// Executes one replay over a frequency column directly, bypassing the
    /// result memo: the trace is decoded once and every frequency in
    /// `freqs_hz` is simulated as a lane of the same pass. Returns one
    /// outcome per frequency, in order, each bit-identical to a one-lane
    /// replay at that frequency.
    ///
    /// The atomic tier has one replay path, the trace cache's memoised
    /// class histogram ([`TraceCache::class_histogram`]), and never
    /// materialises a trace. The detailed tiers have one too: they step
    /// every instruction of the spec's packed trace ([`TraceCache::get`]),
    /// which a hold on the spec keeps for its next column.
    ///
    /// The timed replay is preceded by the *startup prologue*
    /// (`Backend::warm_prologue`): one front-end-only warming pass over
    /// the same instruction stream, so the branch predictor, ITLB and
    /// L1I enter the measured region trained — as they do on real
    /// hardware, where loader/libc startup and untimed harness warm-up
    /// iterations run the workload's code paths first — while the data
    /// working set stays cold and its compulsory misses are measured.
    ///
    /// An `observer` sees every lane's cumulative results every
    /// `observer.window` instructions of the timed replay (not of the
    /// prologue); the outcomes are bit-identical to an unobserved replay.
    /// Memo fills pass `None`; the run-time power monitor passes one.
    ///
    /// # Panics
    ///
    /// Panics when an observer is passed at any tier but approx (see
    /// [`Backend::run_observed`]).
    pub fn execute_grid_with(
        traces: &TraceCache,
        cfg: &CoreConfig,
        spec: &WorkloadSpec,
        freqs_hz: &[f64],
        tier: TierConfig,
        observer: Option<WindowObserver<'_>>,
    ) -> Vec<SimOutcome> {
        let mut backend = Backend::new(tier, cfg, freqs_hz, spec.threads, spec.derived_seed());
        let results = if tier.fidelity == Fidelity::Atomic && observer.is_none() {
            backend.run_histogram(&traces.class_histogram(spec))
        } else {
            let trace = traces.get(spec);
            backend.warm_prologue(trace.iter());
            match observer {
                Some(observer) => backend.run_observed(trace.iter(), observer),
                None => backend.run_stream(trace.iter()),
            }
        };
        results
            .into_iter()
            .map(|result| SimOutcome {
                seconds: result.seconds,
                stats: result.stats,
            })
            .collect()
    }

    /// Number of lookups served from the memo.
    pub fn hits(&self) -> u64 {
        self.hits.get()
    }

    /// Number of lookups that executed the engine (= entries created).
    pub fn misses(&self) -> u64 {
        self.misses.get()
    }

    /// Number of entries installed by fused grid replays (a subset of
    /// [`SimCache::misses`]: every grid fill is also a miss).
    pub fn grid_fills(&self) -> u64 {
        self.grid_fills.get()
    }

    /// Reads the hit/miss counters as a consistent pair: the pair is
    /// re-read until two consecutive reads agree, so a snapshot taken
    /// while other threads are completing lookups never pairs a hit count
    /// from one instant with a miss count from another.
    pub fn snapshot(&self) -> CacheSnapshot {
        let mut prev = (self.hits(), self.misses());
        loop {
            let cur = (self.hits(), self.misses());
            if cur == prev {
                return CacheSnapshot {
                    hits: cur.0,
                    misses: cur.1,
                    entries: self.len(),
                };
            }
            prev = cur;
        }
    }

    /// Number of memoised entries.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.read().unwrap_or_else(PoisonError::into_inner).len())
            .sum()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every entry and resets the hit, miss and grid-fill counters.
    pub fn clear(&self) {
        for shard in &self.shards {
            shard
                .write()
                .unwrap_or_else(PoisonError::into_inner)
                .clear();
        }
        self.hits.reset();
        self.misses.reset();
        self.grid_fills.reset();
    }
}

impl Default for SimCache {
    fn default() -> Self {
        Self::new()
    }
}

impl fmt::Debug for SimCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SimCache")
            .field("entries", &self.len())
            .field("hits", &self.hits())
            .field("misses", &self.misses())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gemstone_uarch::configs::{cortex_a15_hw, cortex_a7_hw, ex5_big, Ex5Variant};
    use gemstone_workloads::gen::StreamGen;
    use gemstone_workloads::suites;

    fn spec(name: &str) -> WorkloadSpec {
        suites::by_name(name).unwrap().scaled(0.05)
    }

    /// The direct one-lane replay at the default tier, past the memo.
    fn direct(traces: &TraceCache, cfg: &CoreConfig, s: &WorkloadSpec, f: f64) -> SimOutcome {
        SimCache::execute_grid_with(traces, cfg, s, &[f], TierConfig::default(), None).remove(0)
    }

    /// The reference for packed-trace replay: the generated stream driven
    /// through the backend directly, past both caches, with the same
    /// prologue.
    fn generated(cfg: &CoreConfig, s: &WorkloadSpec, f: f64) -> SimOutcome {
        let tier = TierConfig::default();
        let mut backend = Backend::new(tier, cfg, &[f], s.threads, s.derived_seed());
        backend.warm_prologue(StreamGen::new(s));
        let r = backend.run_stream(StreamGen::new(s)).remove(0);
        SimOutcome {
            seconds: r.seconds,
            stats: r.stats,
        }
    }

    #[test]
    fn warm_result_is_bit_identical_to_cold_and_direct() {
        let cache = SimCache::new();
        let s = spec("mi-fft");
        let cold = cache.run_point(&cortex_a15_hw(), &s, None, 1.0e9, TierConfig::default());
        let warm = cache.run_point(&cortex_a15_hw(), &s, None, 1.0e9, TierConfig::default());
        let direct = direct(&TraceCache::global(), &cortex_a15_hw(), &s, 1.0e9);
        assert_eq!(cold.seconds, warm.seconds);
        assert_eq!(cold.seconds, direct.seconds);
        assert_eq!(cold.stats.cycles, warm.stats.cycles);
        assert_eq!(cold.stats.cycles, direct.stats.cycles);
        assert_eq!(
            cold.stats.committed_instructions,
            direct.stats.committed_instructions
        );
    }

    #[test]
    fn counters_track_misses_then_hits() {
        let cache = SimCache::new();
        let s = spec("mi-sha");
        for _ in 0..3 {
            cache.run_point(&cortex_a7_hw(), &s, None, 600.0e6, TierConfig::default());
        }
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.hits(), 2);
        assert_eq!(cache.len(), 1);
        let snap = cache.snapshot();
        assert_eq!((snap.hits, snap.misses, snap.entries), (2, 1, 1));
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!((cache.hits(), cache.misses()), (0, 0));
        assert_eq!(cache.snapshot().hits, 0);
        // A column fill counts grid fills too, and `clear` resets them
        // with the misses they are part of.
        cache.run_grid(&cortex_a15_hw(), &s, &FREQS, TierConfig::default());
        assert_eq!((cache.misses(), cache.grid_fills()), (4, 4));
        cache.clear();
        assert_eq!(
            (cache.hits(), cache.misses(), cache.grid_fills()),
            (0, 0, 0)
        );
    }

    #[test]
    fn key_separates_spec_config_and_frequency() {
        let key = |s: &WorkloadSpec, cfg: &CoreConfig, f: f64| {
            SimCache::fingerprint_tier(s, cfg, f, TierConfig::default())
        };
        let a = key(&spec("mi-sha"), &cortex_a15_hw(), 1.0e9);
        assert_eq!(a, key(&spec("mi-sha"), &cortex_a15_hw(), 1.0e9));
        assert_ne!(a, key(&spec("mi-fft"), &cortex_a15_hw(), 1.0e9));
        assert_ne!(a, key(&spec("mi-sha"), &cortex_a7_hw(), 1.0e9));
        assert_ne!(a, key(&spec("mi-sha"), &cortex_a15_hw(), 1.4e9));
        // Two configs that differ only in internal fields (same cluster)
        // still get distinct keys.
        assert_ne!(
            key(&spec("mi-sha"), &ex5_big(Ex5Variant::Old), 1.0e9),
            key(&spec("mi-sha"), &ex5_big(Ex5Variant::Fixed), 1.0e9)
        );
    }

    #[test]
    fn concurrent_requests_execute_each_tuple_once() {
        let cache = SimCache::new();
        let s = spec("mi-crc32");
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    for &f in [600.0e6, 1.0e9].iter() {
                        cache.run_point(&cortex_a15_hw(), &s, None, f, TierConfig::default());
                    }
                });
            }
        });
        assert_eq!(cache.misses(), 2, "each tuple simulated exactly once");
        assert_eq!(cache.hits(), 14);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn global_cache_is_shared() {
        let a = SimCache::global();
        let b = SimCache::global();
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn trace_replay_is_bit_identical_to_direct_generation() {
        let s = spec("mi-fft");
        let cfg = cortex_a15_hw();
        let traced = direct(&TraceCache::new(), &cfg, &s, 1.0e9);
        let generated = generated(&cfg, &s, 1.0e9);
        assert_eq!(traced.seconds, generated.seconds);
        assert_eq!(traced.stats.cycles, generated.stats.cycles);
        assert_eq!(
            traced.stats.gem5_stats_map(),
            generated.stats.gem5_stats_map()
        );
    }

    #[test]
    fn replay_across_drain_boundaries_is_cache_transparent() {
        use gemstone_uarch::core::Engine;
        use gemstone_workloads::spec::Suite;

        // Long enough to cross two accumulator drains: the packed-trace
        // replay and direct generation must produce the same bits, and a
        // warm cache hit must return them unchanged.
        let s = WorkloadSpec::builder("drain-transparent", Suite::MiBench)
            .instructions(2 * Engine::DRAIN_INSTRS + 1_234)
            .build();
        let cfg = cortex_a7_hw();
        let traced = direct(&TraceCache::new(), &cfg, &s, 1.0e9);
        let generated = generated(&cfg, &s, 1.0e9);
        assert_eq!(traced.seconds.to_bits(), generated.seconds.to_bits());
        assert_eq!(
            traced.stats.gem5_stats_map(),
            generated.stats.gem5_stats_map()
        );
        let cache = SimCache::new();
        let cold = cache.run_point(&cfg, &s, None, 1.0e9, TierConfig::default());
        let warm = cache.run_point(&cfg, &s, None, 1.0e9, TierConfig::default());
        assert_eq!((cache.misses(), cache.hits()), (1, 1));
        assert_eq!(cold.seconds.to_bits(), warm.seconds.to_bits());
        assert_eq!(cold.seconds.to_bits(), traced.seconds.to_bits());
    }

    #[test]
    fn tiers_never_share_cache_entries() {
        use gemstone_uarch::backend::{Fidelity, SampleParams};

        let cache = SimCache::new();
        let s = spec("mi-sha");
        let cfg = cortex_a15_hw();
        let tiers = [
            TierConfig::atomic(),
            TierConfig::approx(),
            TierConfig::sampled(SampleParams::default()),
        ];
        let mut results = Vec::new();
        for &tier in &tiers {
            results.push(cache.run_point(&cfg, &s, None, 1.0e9, tier));
        }
        // Three distinct entries: a warm run at one tier never serves
        // another tier's request.
        assert_eq!(cache.misses(), 3, "one engine execution per tier");
        assert_eq!(cache.hits(), 0);
        assert_eq!(cache.len(), 3);
        for (tier, out) in tiers.iter().zip(&results) {
            assert_eq!(
                out.stats.fidelity, tier.fidelity,
                "result tagged with its tier"
            );
            let warm = cache.run_point(&cfg, &s, None, 1.0e9, *tier);
            assert_eq!(warm.stats.cycles, out.stats.cycles);
        }
        assert_eq!(cache.hits(), 3);
        assert_eq!(cache.misses(), 3, "warm re-runs never re-execute");
        // The default tier is the approximate tier.
        let default = cache.run_point(&cfg, &s, None, 1.0e9, TierConfig::default());
        assert_eq!(cache.misses(), 3, "the default shares the approx entry");
        assert_eq!(default.stats.fidelity, Fidelity::Approx);
    }

    #[test]
    fn tier_keys_are_distinct_but_sample_knobs_only_affect_sampled() {
        use gemstone_uarch::backend::SampleParams;

        let s = spec("mi-sha");
        let cfg = cortex_a15_hw();
        let approx = SimCache::fingerprint_tier(&s, &cfg, 1.0e9, TierConfig::approx());
        let atomic = SimCache::fingerprint_tier(&s, &cfg, 1.0e9, TierConfig::atomic());
        let sampled = SimCache::fingerprint_tier(
            &s,
            &cfg,
            1.0e9,
            TierConfig::sampled(SampleParams::default()),
        );
        assert_ne!(approx, atomic);
        assert_ne!(approx, sampled);
        assert_ne!(atomic, sampled);
        assert_eq!(
            approx,
            SimCache::fingerprint_tier(&s, &cfg, 1.0e9, TierConfig::default())
        );
        // Sampling geometry is part of the sampled key only.
        let wide = SampleParams {
            interval: 10_000,
            ..SampleParams::default()
        };
        assert_ne!(
            sampled,
            SimCache::fingerprint_tier(&s, &cfg, 1.0e9, TierConfig::sampled(wide))
        );
        let mut approx_with_knobs = TierConfig::approx();
        approx_with_knobs.sample = wide;
        assert_eq!(
            approx,
            SimCache::fingerprint_tier(&s, &cfg, 1.0e9, approx_with_knobs),
            "canonicalisation collapses sample knobs for non-sampled tiers"
        );
    }

    #[test]
    fn points_fill_the_trace_cache_once_per_spec() {
        let traces = Arc::new(TraceCache::new());
        let cache = SimCache::with_trace_cache(traces.clone());
        let s = spec("mi-sha");
        let hold = traces.hold(&s);
        for &f in &[600.0e6, 1.0e9] {
            cache.run_point(&cortex_a15_hw(), &s, None, f, TierConfig::default());
            cache.run_point(&cortex_a7_hw(), &s, None, f, TierConfig::default());
        }
        // Four (config, freq) tuples under one hold, one generation; the
        // rest replayed.
        assert_eq!(traces.misses(), 1);
        assert_eq!(traces.hits(), 3);
        assert!(Arc::ptr_eq(cache.trace_cache(), &traces));
        assert_eq!(traces.len(), 1, "held between the replays");
        drop(hold);
        assert_eq!((traces.len(), traces.bytes()), (0, 0));
        // Without a hold, each replay's trace is freed when it ends.
        cache.run_point(&cortex_a15_hw(), &s, None, 1.4e9, TierConfig::default());
        cache.run_point(&cortex_a7_hw(), &s, None, 1.4e9, TierConfig::default());
        assert_eq!((traces.misses(), traces.hits()), (3, 3));
        assert_eq!((traces.len(), traces.bytes()), (0, 0));
    }

    const FREQS: [f64; 4] = [600.0e6, 1.0e9, 1.4e9, 1.8e9];

    #[test]
    fn atomic_results_match_across_histogram_memo_states() {
        let s = spec("mi-fft");
        let cfg = cortex_a15_hw();
        let tier = TierConfig::atomic();
        let exec = |traces: &TraceCache| {
            (
                SimCache::execute_grid_with(traces, &cfg, &s, &[1.0e9], tier, None).remove(0),
                SimCache::execute_grid_with(traces, &cfg, &s, &FREQS, tier, None),
            )
        };
        // The reference steps every generated instruction through the
        // atomic engine.
        let step = |freqs: &[f64]| {
            Backend::new(tier, &cfg, freqs, s.threads, s.derived_seed())
                .run_stream(StreamGen::new(&s))
                .into_iter()
                .map(|r| r.stats)
                .collect::<Vec<_>>()
        };
        let reference = (step(&[1.0e9]).remove(0), step(&FREQS));
        let memo = TraceCache::new();
        let cold = exec(&memo);
        assert_eq!((memo.histogram_misses(), memo.histogram_hits()), (1, 1));
        let warm = exec(&memo);
        assert_eq!((memo.histogram_misses(), memo.histogram_hits()), (1, 3));
        assert_eq!(memo.misses() + memo.hits(), 0, "no packed trace requested");
        assert_eq!((memo.len(), memo.bytes()), (0, 0));
        // A live packed trace for the spec changes nothing.
        let resident = TraceCache::new();
        let live = resident.get(&s);
        let beside_trace = exec(&resident);
        assert_eq!((resident.misses(), resident.hits()), (1, 0));
        drop(live);
        let same = |a: &SimStats, b: &SimStats, what: &str| {
            assert_eq!(a.seconds.to_bits(), b.seconds.to_bits(), "{what}");
            assert_eq!(a.cycles.to_bits(), b.cycles.to_bits(), "{what}");
            assert_eq!(a.gem5_stats_map(), b.gem5_stats_map(), "{what}");
        };
        for (what, (single, column)) in [
            ("cold", &cold),
            ("warm", &warm),
            ("resident", &beside_trace),
        ] {
            same(&single.stats, &reference.0, what);
            assert_eq!(column.len(), FREQS.len());
            for (lane, want) in column.iter().zip(&reference.1) {
                same(&lane.stats, want, what);
            }
        }
        assert_eq!(
            reference.0.seconds.to_bits(),
            reference.1[1].seconds.to_bits(),
            "the 1 GHz lane equals the single-lane run"
        );
    }

    #[test]
    fn grid_fills_whole_column_from_one_replay() {
        use gemstone_uarch::backend::SampleParams;

        let s = spec("mi-fft");
        let cfg = cortex_a15_hw();
        for tier in [
            TierConfig::atomic(),
            TierConfig::approx(),
            TierConfig::sampled(SampleParams::default()),
        ] {
            let cache = SimCache::new();
            let column = cache.run_grid(&cfg, &s, &FREQS, tier);
            assert_eq!(column.len(), FREQS.len());
            assert_eq!(cache.misses(), FREQS.len() as u64);
            assert_eq!(cache.grid_fills(), FREQS.len() as u64);
            assert_eq!(cache.hits(), 0);
            assert_eq!(cache.len(), FREQS.len());
            // Each lane is bit-identical to the per-frequency entry and a
            // warm per-frequency lookup hits the grid-installed slot.
            for (&f, out) in FREQS.iter().zip(&column) {
                let warm = cache.run_point(&cfg, &s, None, f, tier);
                assert_eq!(warm.seconds, out.seconds);
                assert_eq!(warm.stats.gem5_stats_map(), out.stats.gem5_stats_map());
            }
            assert_eq!(cache.misses(), FREQS.len() as u64, "column fully warm");
            assert_eq!(cache.hits(), FREQS.len() as u64);
        }
    }

    #[test]
    fn grid_is_bit_identical_to_per_frequency_runs() {
        let s = spec("mi-sha");
        for cfg in [cortex_a15_hw(), cortex_a7_hw()] {
            let fused = SimCache::new().run_grid(&cfg, &s, &FREQS, TierConfig::approx());
            let reference = SimCache::new();
            for (&f, out) in FREQS.iter().zip(&fused) {
                let single = reference.run_point(&cfg, &s, None, f, TierConfig::approx());
                assert_eq!(single.seconds, out.seconds);
                assert_eq!(single.stats.gem5_stats_map(), out.stats.gem5_stats_map());
            }
        }
    }

    #[test]
    fn grid_reuses_warm_lanes_and_replays_only_the_gap() {
        let cache = SimCache::new();
        let s = spec("mi-crc32");
        let cfg = cortex_a7_hw();
        // Pre-warm two of the four lanes through the scalar path.
        let warm_a = cache.run_point(&cfg, &s, None, FREQS[1], TierConfig::approx());
        let warm_b = cache.run_point(&cfg, &s, None, FREQS[3], TierConfig::approx());
        assert_eq!((cache.misses(), cache.grid_fills()), (2, 0));
        let column = cache.run_grid(&cfg, &s, &FREQS, TierConfig::approx());
        assert_eq!(cache.misses(), 4, "only the two cold lanes executed");
        assert_eq!(cache.grid_fills(), 2);
        assert_eq!(cache.hits(), 2);
        assert_eq!(column[1].stats.cycles, warm_a.stats.cycles);
        assert_eq!(column[3].stats.cycles, warm_b.stats.cycles);
        // The partially-fused column still matches fresh scalar runs.
        for (&f, out) in FREQS.iter().zip(&column) {
            let single = SimCache::execute_grid_with(
                &TraceCache::global(),
                &cfg,
                &s,
                &[f],
                TierConfig::approx(),
                None,
            )
            .remove(0);
            assert_eq!(single.stats.gem5_stats_map(), out.stats.gem5_stats_map());
        }
    }

    #[test]
    fn grid_never_crosses_tiers() {
        use gemstone_uarch::backend::{Fidelity, SampleParams};

        let cache = SimCache::new();
        let s = spec("mi-sha");
        let cfg = cortex_a15_hw();
        // Warm the approx column, then ask for the same frequencies at the
        // other tiers: every lane must be a fresh fill, never an approx hit.
        cache.run_grid(&cfg, &s, &FREQS, TierConfig::approx());
        assert_eq!(cache.misses(), 4);
        let atomic = cache.run_grid(&cfg, &s, &FREQS, TierConfig::atomic());
        assert_eq!(cache.misses(), 8, "atomic column never hits approx lanes");
        assert_eq!(cache.hits(), 0);
        let sampled = cache.run_grid(
            &cfg,
            &s,
            &FREQS,
            TierConfig::sampled(SampleParams::default()),
        );
        assert_eq!(cache.misses(), 12, "sampled column never hits either");
        assert_eq!(cache.hits(), 0);
        assert_eq!(cache.grid_fills(), 12);
        assert_eq!(cache.len(), 12);
        for out in &atomic {
            assert_eq!(out.stats.fidelity, Fidelity::Atomic);
        }
        for out in &sampled {
            assert_eq!(out.stats.fidelity, Fidelity::Sampled);
        }
    }

    #[test]
    fn grid_handles_empty_and_single_lane_columns() {
        let cache = SimCache::new();
        let s = spec("mi-sha");
        let cfg = cortex_a7_hw();
        assert!(cache
            .run_grid(&cfg, &s, &[], TierConfig::approx())
            .is_empty());
        assert_eq!((cache.hits(), cache.misses()), (0, 0));
        let one = cache.run_grid(&cfg, &s, &[1.0e9], TierConfig::approx());
        assert_eq!(
            (cache.misses(), cache.grid_fills()),
            (1, 0),
            "a one-frequency fill is not a grid fill"
        );
        let scalar = SimCache::new().run_point(&cfg, &s, None, 1.0e9, TierConfig::approx());
        assert_eq!(one[0].stats.gem5_stats_map(), scalar.stats.gem5_stats_map());
    }

    #[test]
    fn a_stock_point_fills_its_column_once_then_hits_one_lane() {
        let cache = SimCache::new();
        let s = spec("mi-sha");
        let cfg = cortex_a15_hw();
        let big = Some(Cluster::BigA15);
        let tier = TierConfig::approx();
        assert_eq!(Cluster::BigA15.frequencies(), FREQS);
        let first = cache.run_point(&cfg, &s, big, FREQS[1], tier);
        assert_eq!(
            (cache.misses(), cache.grid_fills(), cache.hits()),
            (4, 4, 0),
            "a cold DVFS point fills its whole column"
        );
        assert_eq!(cache.sim_seconds.count(), 1, "from one replay");
        for &f in &FREQS {
            let out = cache.run_point(&cfg, &s, big, f, tier);
            let single = SimCache::new().run_point(&cfg, &s, None, f, tier);
            assert_eq!(out.seconds.to_bits(), single.seconds.to_bits());
            assert_eq!(out.stats.gem5_stats_map(), single.stats.gem5_stats_map());
        }
        assert_eq!(
            (cache.misses(), cache.hits()),
            (4, 4),
            "one hit per point asked"
        );
        assert_eq!(
            first.seconds.to_bits(),
            cache
                .run_point(&cfg, &s, None, FREQS[1], tier)
                .seconds
                .to_bits(),
            "a custom-config lookup of the same tuple hits the column's lane"
        );
        // A partly warm column: only the missing lanes replay.
        let partial = SimCache::new();
        partial.run_point(&cfg, &s, None, FREQS[0], tier);
        partial.run_point(&cfg, &s, big, FREQS[3], tier);
        assert_eq!(
            (partial.misses(), partial.grid_fills(), partial.hits()),
            (4, 3, 0)
        );
        // Custom configs and off-column frequencies replay one lane.
        let lone = SimCache::new();
        let custom = lone.run_point(&cfg, &s, None, FREQS[2], tier);
        assert_eq!(custom.stats.freq_hz, FREQS[2]);
        lone.run_point(&cfg, &s, big, 1.6e9, tier);
        assert_eq!((lone.len(), lone.misses(), lone.grid_fills()), (2, 2, 0));
    }

    #[test]
    fn a_lane_of_an_in_flight_column_blocks_on_the_fill() {
        // Long enough that the column's replay is still running when the
        // second thread asks for its last lane.
        let s = suites::by_name("mi-fft").unwrap().scaled(0.5);
        let cfg = cortex_a15_hw();
        let tier = TierConfig::approx();
        let cache = SimCache::new();
        let (column, lone) = std::thread::scope(|scope| {
            let a = scope.spawn(|| cache.run_grid(&cfg, &s, &FREQS, tier));
            let b = scope.spawn(|| {
                while cache.len() < FREQS.len() {
                    std::thread::yield_now();
                }
                cache.run_point(&cfg, &s, None, FREQS[3], tier)
            });
            (a.join().unwrap(), b.join().unwrap())
        });
        assert_eq!(cache.sim_seconds.count(), 1, "one replay for both callers");
        assert_eq!(cache.misses(), 4);
        assert_eq!(cache.hits(), 1);
        assert_eq!(lone.seconds.to_bits(), column[3].seconds.to_bits());
        assert_eq!(
            lone.stats.gem5_stats_map(),
            column[3].stats.gem5_stats_map()
        );
    }

    #[test]
    fn a_panicked_fill_hands_its_lanes_back() {
        let cache = SimCache::new();
        let s = spec("mi-sha");
        let cfg = cortex_a7_hw();
        let tier = TierConfig::approx();
        let Lane::Claimed(slot) = cache.claim(&s, &cfg, 1.0e9, tier) else {
            panic!("a new entry is claimed by its creator");
        };
        assert!(matches!(
            cache.claim(&s, &cfg, 1.0e9, tier),
            Lane::Pending(_)
        ));
        drop(Claims(vec![slot]));
        // The next caller claims the abandoned entry and fills it.
        let out = cache.run_point(&cfg, &s, None, 1.0e9, tier);
        let reference = SimCache::new().run_point(&cfg, &s, None, 1.0e9, tier);
        assert_eq!(out.seconds.to_bits(), reference.seconds.to_bits());
        assert_eq!((cache.len(), cache.misses()), (1, 1));
    }

    #[test]
    fn concurrent_grid_and_scalar_requests_execute_each_lane_once() {
        let cache = SimCache::new();
        let s = spec("mi-crc32");
        let cfg = cortex_a15_hw();
        let (cache, s, cfg) = (&cache, &s, &cfg);
        std::thread::scope(|scope| {
            for i in 0..8 {
                scope.spawn(move || {
                    if i % 2 == 0 {
                        cache.run_grid(cfg, s, &FREQS, TierConfig::approx());
                    } else {
                        for &f in &FREQS {
                            cache.run_point(cfg, s, None, f, TierConfig::approx());
                        }
                    }
                });
            }
        });
        assert_eq!(cache.misses(), 4, "each lane simulated exactly once");
        assert_eq!(cache.hits(), 28);
        assert_eq!(cache.len(), 4);
        assert!(cache.grid_fills() <= 4);
    }
}
