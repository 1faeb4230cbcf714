//! Packed instruction traces and the process-wide trace cache.
//!
//! A workload's instruction stream depends only on its [`WorkloadSpec`] —
//! not on the core configuration or DVFS point — yet the simulation grid
//! replays every workload for each (config, frequency) tuple. Regenerating
//! the stream through [`StreamGen`] costs per-instruction RNG draws and CDF
//! sampling each time; this module amortises that by materialising the
//! stream **once** into a compact structure-of-arrays encoding
//! ([`PackedTrace`], ~16 B/instruction on the standard mixes) and replaying
//! it for every tuple.
//!
//! The [`TraceCache`] is sharded like the platform's `SimCache`: worker
//! threads share `Arc`'d traces, each spec fingerprint is generated exactly
//! once (concurrent requesters block on the winner), and total resident
//! bytes are bounded by a budget with least-recently-used eviction. The
//! budget of the process-wide instance comes from the
//! `GEMSTONE_TRACE_BYTES` environment variable (default 512 MiB; `0`
//! disables trace packing so callers fall back to direct generation).
//!
//! The atomic tier reads nothing but a per-class instruction count, so the
//! cache also memoises one whole-stream class histogram per spec
//! ([`TraceCache::class_histogram`]), whatever the byte budget. Filling it
//! folds the generated stream straight into counts; it never encodes a
//! trace, so atomic campaigns neither pack nor evict traces.
//!
//! **Determinism contract:** decoding a packed trace yields a stream that
//! is bit-identical to the [`StreamGen`] output it was encoded from —
//! every field of every [`Instr`], in order. Replay therefore produces
//! bit-identical engine results whether the trace cache is cold, warm, or
//! disabled.
//!
//! # Examples
//!
//! ```
//! use gemstone_workloads::gen::StreamGen;
//! use gemstone_workloads::spec::{Suite, WorkloadSpec};
//! use gemstone_workloads::trace::PackedTrace;
//!
//! let spec = WorkloadSpec::builder("demo", Suite::MiBench)
//!     .instructions(5_000)
//!     .build();
//! let trace = PackedTrace::from_spec(&spec);
//! assert_eq!(trace.len(), 5_000);
//! let replayed: Vec<_> = trace.iter().collect();
//! let generated: Vec<_> = StreamGen::new(&spec).collect();
//! assert_eq!(replayed, generated);
//! ```

use crate::gen::StreamGen;
use crate::spec::WorkloadSpec;
use gemstone_obs::fnv::fnv1a;
use gemstone_obs::registry::log2_time_bounds;
use gemstone_obs::{Counter, Histogram, Registry};
use gemstone_uarch::instr::{BranchRef, Instr, InstrClass, MemRef};
use std::collections::HashMap;
use std::fmt;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock, PoisonError, RwLock};

/// Number of independent shards (power of two).
const SHARD_COUNT: usize = 16;

/// Environment variable overriding the process-wide trace-cache byte
/// budget. `0` disables trace packing; class histograms are still
/// memoised.
pub const TRACE_BYTES_ENV: &str = "GEMSTONE_TRACE_BYTES";

/// Default byte budget of the process-wide trace cache (512 MiB).
pub const DEFAULT_TRACE_BYTES: usize = 512 << 20;

const MEM_UNALIGNED: u8 = 1 << 0;
const MEM_STORE: u8 = 1 << 1;
const MEM_SHARED: u8 = 1 << 2;
const MEM_DEPENDENT: u8 = 1 << 3;

/// Compact [`MemRef`] column entry (10 bytes packed).
#[derive(Debug, Clone, Copy)]
struct PackedMem {
    vaddr: u64,
    size: u8,
    flags: u8,
}

impl PackedMem {
    fn pack(m: &MemRef) -> Self {
        PackedMem {
            vaddr: m.vaddr,
            size: m.size,
            flags: ((m.unaligned as u8) * MEM_UNALIGNED)
                | ((m.is_store as u8) * MEM_STORE)
                | ((m.shared as u8) * MEM_SHARED)
                | ((m.dependent as u8) * MEM_DEPENDENT),
        }
    }

    #[inline]
    fn unpack(self) -> MemRef {
        MemRef {
            vaddr: self.vaddr,
            size: self.size,
            unaligned: self.flags & MEM_UNALIGNED != 0,
            is_store: self.flags & MEM_STORE != 0,
            shared: self.flags & MEM_SHARED != 0,
            dependent: self.flags & MEM_DEPENDENT != 0,
        }
    }
}

/// Compact [`BranchRef`] column entry (13 bytes packed).
#[derive(Debug, Clone, Copy)]
struct PackedBranch {
    target_page: u64,
    static_id: u32,
    taken: bool,
}

impl PackedBranch {
    fn pack(b: &BranchRef) -> Self {
        PackedBranch {
            target_page: b.target_page,
            static_id: b.static_id,
            taken: b.taken,
        }
    }

    #[inline]
    fn unpack(self) -> BranchRef {
        BranchRef {
            static_id: self.static_id,
            taken: self.taken,
            target_page: self.target_page,
        }
    }
}

/// A fixed-width, structure-of-arrays encoding of an instruction stream.
///
/// Per instruction: one class byte and one 8-byte PC; memory and branch
/// payloads are stored in side columns in stream order and re-attached on
/// decode by the class predicates (`is_memory()` / `is_branch()`), which is
/// why encoding asserts that payload presence matches the class.
pub struct PackedTrace {
    classes: Vec<u8>,
    pcs: Vec<u64>,
    mems: Vec<PackedMem>,
    branches: Vec<PackedBranch>,
}

impl PackedTrace {
    /// Encodes a stream. Preallocates from the iterator's `size_hint`
    /// (exact for [`StreamGen`]).
    ///
    /// # Panics
    ///
    /// Panics if an instruction carries a memory payload without a memory
    /// class (or vice versa), or a branch payload without a branch class —
    /// such a stream could not be decoded bit-identically.
    pub fn encode(stream: impl Iterator<Item = Instr>) -> Self {
        let (lo, hi) = stream.size_hint();
        let n = hi.unwrap_or(lo);
        let mut trace = PackedTrace {
            classes: Vec::with_capacity(n),
            pcs: Vec::with_capacity(n),
            mems: Vec::new(),
            branches: Vec::new(),
        };
        for instr in stream {
            assert_eq!(
                instr.mem.is_some(),
                instr.class.is_memory(),
                "memory payload must match a memory class for lossless packing"
            );
            assert_eq!(
                instr.branch.is_some(),
                instr.class.is_branch(),
                "branch payload must match a branch class for lossless packing"
            );
            trace.classes.push(instr.class.index());
            trace.pcs.push(instr.pc);
            if let Some(m) = &instr.mem {
                trace.mems.push(PackedMem::pack(m));
            }
            if let Some(b) = &instr.branch {
                trace.branches.push(PackedBranch::pack(b));
            }
        }
        // The payload columns grew by doubling; traces are encoded once and
        // then live in the cache, so trade one realloc for a tight footprint
        // (bytes() accounts capacity against the cache budget).
        trace.mems.shrink_to_fit();
        trace.branches.shrink_to_fit();
        trace
    }

    /// Generates and encodes the full stream of a workload specification.
    pub fn from_spec(spec: &WorkloadSpec) -> Self {
        Self::encode(StreamGen::new(spec))
    }

    /// Number of instructions in the trace.
    pub fn len(&self) -> usize {
        self.classes.len()
    }

    /// Whether the trace holds no instructions.
    pub fn is_empty(&self) -> bool {
        self.classes.is_empty()
    }

    /// Resident heap footprint in bytes (what the [`TraceCache`] budget
    /// accounts).
    pub fn bytes(&self) -> usize {
        self.classes.capacity() * std::mem::size_of::<u8>()
            + self.pcs.capacity() * std::mem::size_of::<u64>()
            + self.mems.capacity() * std::mem::size_of::<PackedMem>()
            + self.branches.capacity() * std::mem::size_of::<PackedBranch>()
            + std::mem::size_of::<Self>()
    }

    /// Decoding iterator over the trace; yields the exact stream the trace
    /// was encoded from.
    pub fn iter(&self) -> Replay<'_> {
        Replay {
            trace: self,
            idx: 0,
            mem_idx: 0,
            branch_idx: 0,
        }
    }

    /// Per-class instruction counts over `range` (end clamped to the trace
    /// length), indexed by [`InstrClass::index`]. Reads only the class
    /// column, so counting costs one byte per instruction — this is what
    /// the atomic tier and sampled fast-forward phases consume.
    pub fn class_histogram(&self, range: Range<usize>) -> [u64; InstrClass::COUNT] {
        let end = range.end.min(self.len());
        let start = range.start.min(end);
        let mut hist = [0u64; InstrClass::COUNT];
        for &class in &self.classes[start..end] {
            hist[class as usize] += 1;
        }
        hist
    }
}

impl fmt::Debug for PackedTrace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PackedTrace")
            .field("instructions", &self.len())
            .field("bytes", &self.bytes())
            .finish()
    }
}

impl<'a> IntoIterator for &'a PackedTrace {
    type Item = Instr;
    type IntoIter = Replay<'a>;

    fn into_iter(self) -> Replay<'a> {
        self.iter()
    }
}

/// Decoding iterator over a [`PackedTrace`].
#[derive(Debug, Clone)]
pub struct Replay<'a> {
    trace: &'a PackedTrace,
    idx: usize,
    mem_idx: usize,
    branch_idx: usize,
}

impl Iterator for Replay<'_> {
    type Item = Instr;

    #[inline]
    fn next(&mut self) -> Option<Instr> {
        let class_idx = *self.trace.classes.get(self.idx)?;
        let class = InstrClass::from_index(class_idx).expect("trace holds valid class indices");
        let pc = self.trace.pcs[self.idx];
        self.idx += 1;
        let mem = if class.is_memory() {
            let m = self.trace.mems[self.mem_idx].unpack();
            self.mem_idx += 1;
            Some(m)
        } else {
            None
        };
        let branch = if class.is_branch() {
            let b = self.trace.branches[self.branch_idx].unpack();
            self.branch_idx += 1;
            Some(b)
        } else {
            None
        };
        Some(Instr {
            class,
            pc,
            mem,
            branch,
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.trace.len() - self.idx;
        (n, Some(n))
    }
}

impl ExactSizeIterator for Replay<'_> {}

/// A 128-bit fingerprint of one workload specification.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TraceKey {
    hi: u64,
    lo: u64,
}

/// One cache entry; the [`OnceLock`] serialises concurrent fills so every
/// spec is generated exactly once.
#[derive(Default)]
struct Slot {
    cell: OnceLock<Arc<PackedTrace>>,
    last_used: AtomicU64,
}

/// A shared, concurrent, byte-budgeted memo of packed traces, beside a
/// memo of whole-stream class histograms for the atomic tier.
///
/// Cheap to share via [`Arc`]; see [`TraceCache::global`] for the
/// process-wide instance used by default.
pub struct TraceCache {
    shards: Vec<RwLock<HashMap<TraceKey, Arc<Slot>>>>,
    /// Class histograms per spec fingerprint. An entry is one small
    /// array, so entries are neither charged against the byte budget nor
    /// evicted.
    histograms: RwLock<HashMap<TraceKey, Arc<OnceLock<[u64; InstrClass::COUNT]>>>>,
    budget: usize,
    bytes: AtomicUsize,
    clock: AtomicU64,
    hits: Arc<Counter>,
    misses: Arc<Counter>,
    evictions: Arc<Counter>,
    histogram_hits: Arc<Counter>,
    histogram_misses: Arc<Counter>,
    lookup_seconds: Arc<Histogram>,
}

/// A consistent view of one trace cache's counters, read as a tuple.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceCacheSnapshot {
    /// Lookups served from the memo.
    pub hits: u64,
    /// Lookups that generated a trace.
    pub misses: u64,
    /// Traces evicted to stay within the byte budget.
    pub evictions: u64,
    /// Class-histogram lookups served from the memo.
    pub histogram_hits: u64,
    /// Class-histogram lookups that generated the stream to count it.
    pub histogram_misses: u64,
    /// Resident trace bytes at snapshot time.
    pub bytes: usize,
    /// Resident traces at snapshot time.
    pub entries: usize,
}

static GLOBAL: OnceLock<Arc<TraceCache>> = OnceLock::new();

impl TraceCache {
    /// Creates an empty cache with the default byte budget.
    pub fn new() -> Self {
        Self::with_budget(DEFAULT_TRACE_BYTES)
    }

    /// Creates an empty cache bounded to `budget` resident bytes. A budget
    /// of `0` disables trace packing: [`TraceCache::get`] always returns
    /// `None` and callers generate streams directly.
    /// [`TraceCache::class_histogram`] memoises at every budget.
    ///
    /// The budget bounds the *steady state*: a single trace larger than the
    /// whole budget is still returned to its requester (and evicted as soon
    /// as a later fill needs the room).
    pub fn with_budget(budget: usize) -> Self {
        TraceCache {
            shards: (0..SHARD_COUNT)
                .map(|_| RwLock::new(HashMap::new()))
                .collect(),
            histograms: RwLock::new(HashMap::new()),
            budget,
            bytes: AtomicUsize::new(0),
            clock: AtomicU64::new(0),
            // Detached handles: per-instance caches (tests, benches) keep
            // isolated counts; only `global()` registers the canonical
            // `trace_cache.*` names.
            hits: Arc::new(Counter::new()),
            misses: Arc::new(Counter::new()),
            evictions: Arc::new(Counter::new()),
            histogram_hits: Arc::new(Counter::new()),
            histogram_misses: Arc::new(Counter::new()),
            lookup_seconds: Arc::new(Histogram::with_bounds(log2_time_bounds())),
        }
    }

    /// The process-wide shared cache, budgeted from the
    /// `GEMSTONE_TRACE_BYTES` environment variable (bytes; default 512 MiB,
    /// `0` disables trace packing). A malformed value produces a one-time stderr warning
    /// and falls back to the default instead of being silently ignored.
    pub fn global() -> Arc<TraceCache> {
        GLOBAL
            .get_or_init(|| {
                let budget = gemstone_obs::env::parse::<usize>(
                    TRACE_BYTES_ENV,
                    "a byte count (0 disables the cache)",
                    "the default of 512 MiB",
                )
                .unwrap_or(DEFAULT_TRACE_BYTES);
                let mut cache = TraceCache::with_budget(budget);
                let registry = Registry::global();
                cache.hits = registry.counter("trace_cache.hits");
                cache.misses = registry.counter("trace_cache.misses");
                cache.evictions = registry.counter("trace_cache.evictions");
                cache.histogram_hits = registry.counter("trace_cache.histogram.hits");
                cache.histogram_misses = registry.counter("trace_cache.histogram.misses");
                cache.lookup_seconds =
                    registry.histogram("trace_cache.lookup.seconds", log2_time_bounds());
                Arc::new(cache)
            })
            .clone()
    }

    /// Fingerprints one workload specification (every field, via its
    /// canonical debug rendering, plus the derived seed).
    pub fn fingerprint(spec: &WorkloadSpec) -> TraceKey {
        use std::hash::{Hash, Hasher};
        let repr = format!("{spec:?}\u{1f}{}", spec.derived_seed());
        let mut sip = std::collections::hash_map::DefaultHasher::new();
        repr.hash(&mut sip);
        TraceKey {
            hi: fnv1a(repr.as_bytes()),
            lo: sip.finish(),
        }
    }

    /// Returns the packed trace for `spec`, generating it exactly once per
    /// fingerprint; concurrent requesters for the same spec block on the
    /// winning generation instead of duplicating it. Returns `None` at a
    /// budget of 0 — callers then fall back to [`StreamGen`].
    pub fn get(&self, spec: &WorkloadSpec) -> Option<Arc<PackedTrace>> {
        if self.budget == 0 {
            return None;
        }
        // Lookup latency covers fingerprinting plus the shard probe —
        // not trace generation, which a miss pays inside the `OnceLock`.
        let lookup_start = std::time::Instant::now();
        let key = Self::fingerprint(spec);
        let shard = &self.shards[(key.hi as usize) & (SHARD_COUNT - 1)];
        let slot = {
            let map = shard.read().unwrap_or_else(PoisonError::into_inner);
            map.get(&key).cloned()
        };
        let slot = match slot {
            Some(slot) => slot,
            None => shard
                .write()
                .unwrap_or_else(PoisonError::into_inner)
                .entry(key)
                .or_default()
                .clone(),
        };
        self.lookup_seconds
            .observe(lookup_start.elapsed().as_secs_f64());
        slot.last_used.store(
            self.clock.fetch_add(1, Ordering::Relaxed) + 1,
            Ordering::Relaxed,
        );
        let mut computed = false;
        let trace = slot
            .cell
            .get_or_init(|| {
                computed = true;
                Arc::new(PackedTrace::from_spec(spec))
            })
            .clone();
        if computed {
            self.misses.inc();
            self.bytes.fetch_add(trace.bytes(), Ordering::Relaxed);
            self.evict_over_budget(key);
        } else {
            self.hits.inc();
        }
        Some(trace)
    }

    /// Returns the whole-stream class histogram of `spec` — all the atomic
    /// tier reads — computing it exactly once per fingerprint by folding
    /// [`StreamGen`] straight into counts: no trace is encoded, charged or
    /// evicted, so the memo works at every byte budget, 0 included.
    /// Concurrent requesters block on the winning fill. The histogram
    /// equals [`PackedTrace::class_histogram`] over the whole trace.
    pub fn class_histogram(&self, spec: &WorkloadSpec) -> [u64; InstrClass::COUNT] {
        let key = Self::fingerprint(spec);
        let cell = self
            .histograms
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(&key)
            .cloned();
        let cell = match cell {
            Some(cell) => cell,
            None => self
                .histograms
                .write()
                .unwrap_or_else(PoisonError::into_inner)
                .entry(key)
                .or_default()
                .clone(),
        };
        let mut computed = false;
        let hist = *cell.get_or_init(|| {
            computed = true;
            StreamGen::new(spec).fold([0; InstrClass::COUNT], |mut hist, instr| {
                hist[instr.class.index() as usize] += 1;
                hist
            })
        });
        if computed {
            self.histogram_misses.inc();
        } else {
            self.histogram_hits.inc();
        }
        hist
    }

    /// Evicts least-recently-used filled entries (never `protect`, which
    /// the caller just inserted) until resident bytes fit the budget.
    /// In-flight replays keep their `Arc`'d traces alive regardless.
    fn evict_over_budget(&self, protect: TraceKey) {
        while self.bytes.load(Ordering::Relaxed) > self.budget {
            let mut victim: Option<(usize, TraceKey, u64)> = None;
            for (si, shard) in self.shards.iter().enumerate() {
                let map = shard.read().unwrap_or_else(PoisonError::into_inner);
                for (key, slot) in map.iter() {
                    if *key == protect || slot.cell.get().is_none() {
                        continue;
                    }
                    let used = slot.last_used.load(Ordering::Relaxed);
                    if victim.is_none_or(|(_, _, best)| used < best) {
                        victim = Some((si, *key, used));
                    }
                }
            }
            let Some((si, key, _)) = victim else {
                break; // nothing evictable: only the protected entry remains
            };
            if let Some(slot) = self.shards[si]
                .write()
                .unwrap_or_else(PoisonError::into_inner)
                .remove(&key)
            {
                if let Some(trace) = slot.cell.get() {
                    self.bytes.fetch_sub(trace.bytes(), Ordering::Relaxed);
                    self.evictions.inc();
                }
            }
        }
    }

    /// Number of lookups served from the memo.
    pub fn hits(&self) -> u64 {
        self.hits.get()
    }

    /// Number of lookups that generated a trace (= fills).
    pub fn misses(&self) -> u64 {
        self.misses.get()
    }

    /// Number of traces evicted to stay within the byte budget.
    pub fn evictions(&self) -> u64 {
        self.evictions.get()
    }

    /// Number of class-histogram lookups served from the memo.
    pub fn histogram_hits(&self) -> u64 {
        self.histogram_hits.get()
    }

    /// Number of class-histogram lookups that counted a generated stream
    /// (= histogram fills).
    pub fn histogram_misses(&self) -> u64 {
        self.histogram_misses.get()
    }

    /// Reads the counters as a consistent tuple: the tuple is re-read
    /// until two consecutive reads agree, so a snapshot taken while other
    /// threads are completing lookups never mixes instants.
    pub fn snapshot(&self) -> TraceCacheSnapshot {
        let read = || {
            (
                self.hits(),
                self.misses(),
                self.evictions(),
                self.histogram_hits(),
                self.histogram_misses(),
            )
        };
        let mut prev = read();
        loop {
            let cur = read();
            if cur == prev {
                return TraceCacheSnapshot {
                    hits: cur.0,
                    misses: cur.1,
                    evictions: cur.2,
                    histogram_hits: cur.3,
                    histogram_misses: cur.4,
                    bytes: self.bytes(),
                    entries: self.len(),
                };
            }
            prev = cur;
        }
    }

    /// Resident trace bytes currently accounted against the budget.
    pub fn bytes(&self) -> usize {
        self.bytes.load(Ordering::Relaxed)
    }

    /// The byte budget this cache was created with (0 = no trace packing).
    pub fn budget(&self) -> usize {
        self.budget
    }

    /// Number of resident traces.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.read().unwrap_or_else(PoisonError::into_inner).len())
            .sum()
    }

    /// Whether the cache holds no traces.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every trace and class histogram and resets all counters.
    pub fn clear(&self) {
        for shard in &self.shards {
            shard
                .write()
                .unwrap_or_else(PoisonError::into_inner)
                .clear();
        }
        self.histograms
            .write()
            .unwrap_or_else(PoisonError::into_inner)
            .clear();
        self.bytes.store(0, Ordering::Relaxed);
        self.hits.reset();
        self.misses.reset();
        self.evictions.reset();
        self.histogram_hits.reset();
        self.histogram_misses.reset();
    }
}

impl Default for TraceCache {
    fn default() -> Self {
        Self::new()
    }
}

impl fmt::Debug for TraceCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TraceCache")
            .field("traces", &self.len())
            .field("bytes", &self.bytes())
            .field("budget", &self.budget)
            .field("hits", &self.hits())
            .field("misses", &self.misses())
            .field("evictions", &self.evictions())
            .field("histogram_hits", &self.histogram_hits())
            .field("histogram_misses", &self.histogram_misses())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::Suite;
    use crate::suites;

    fn spec(n: u64) -> WorkloadSpec {
        WorkloadSpec::builder("trace-test", Suite::Parsec)
            .threads(4)
            .instructions(n)
            .tweak(|p| {
                p.mix.exclusive = 0.02;
                p.mix.call = 0.03;
                p.mem.unaligned_frac = 0.05;
                p.mem.shared_frac = 0.2;
            })
            .build()
    }

    #[test]
    fn round_trip_is_bit_identical() {
        let s = spec(20_000);
        let trace = PackedTrace::from_spec(&s);
        let generated: Vec<Instr> = StreamGen::new(&s).collect();
        let replayed: Vec<Instr> = trace.iter().collect();
        assert_eq!(generated, replayed);
        assert_eq!(trace.len(), generated.len());
    }

    #[test]
    fn round_trips_every_suite_workload_prefix() {
        for w in suites::power_suite().iter().map(|w| w.scaled(0.002)) {
            let trace = PackedTrace::from_spec(&w);
            let generated: Vec<Instr> = StreamGen::new(&w).collect();
            let replayed: Vec<Instr> = trace.iter().collect();
            assert_eq!(generated, replayed, "workload {}", w.name);
        }
    }

    #[test]
    fn replay_reports_exact_length() {
        let trace = PackedTrace::from_spec(&spec(3_000));
        let mut it = trace.iter();
        assert_eq!(it.len(), 3_000);
        it.next();
        assert_eq!(it.len(), 2_999);
        assert_eq!(it.count(), 2_999);
    }

    #[test]
    fn footprint_is_compact() {
        let trace = PackedTrace::from_spec(&spec(50_000));
        let per_instr = trace.bytes() as f64 / trace.len() as f64;
        // 1 B class + 8 B pc + shrunk payload columns (16 B per memory or
        // branch instruction): ~18 B/instr on the default mix, well under a
        // 56-byte `Vec<Instr>` element.
        assert!(per_instr < 24.0, "bytes/instr = {per_instr:.1}");
    }

    #[test]
    fn cache_generates_once_and_counts() {
        let cache = TraceCache::new();
        let s = spec(5_000);
        let a = cache.get(&s).expect("enabled cache returns a trace");
        let b = cache.get(&s).expect("enabled cache returns a trace");
        assert!(Arc::ptr_eq(&a, &b), "both callers share one Arc'd trace");
        assert_eq!((cache.misses(), cache.hits()), (1, 1));
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.bytes(), a.bytes());
        let snap = cache.snapshot();
        assert_eq!((snap.hits, snap.misses, snap.evictions), (1, 1, 0));
        assert_eq!((snap.bytes, snap.entries), (a.bytes(), 1));
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.bytes(), 0);
        assert_eq!(cache.snapshot().misses, 0);
    }

    #[test]
    fn concurrent_requests_generate_each_spec_once() {
        let cache = TraceCache::new();
        let sa = spec(4_000);
        let sb = spec(6_000);
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    cache.get(&sa);
                    cache.get(&sb);
                });
            }
        });
        assert_eq!(cache.misses(), 2, "each spec generated exactly once");
        assert_eq!(cache.hits(), 14);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn zero_budget_disables() {
        let cache = TraceCache::with_budget(0);
        let s = spec(1_000);
        assert!(cache.get(&s).is_none());
        assert_eq!((cache.hits(), cache.misses()), (0, 0));
        assert!(cache.is_empty(), "no trace is packed");
        // The class-histogram memo does not depend on the budget.
        let hist = cache.class_histogram(&s);
        assert_eq!(cache.class_histogram(&s), hist);
        assert_eq!((cache.histogram_misses(), cache.histogram_hits()), (1, 1));
        let trace = PackedTrace::from_spec(&s);
        assert_eq!(hist, trace.class_histogram(0..trace.len()));
        assert_eq!((cache.len(), cache.bytes()), (0, 0));
    }

    #[test]
    fn class_histogram_memo_counts_without_packing_and_clears() {
        let cache = TraceCache::new();
        let s = spec(7_000);
        let hist = cache.class_histogram(&s);
        let trace = PackedTrace::from_spec(&s);
        assert_eq!(hist, trace.class_histogram(0..trace.len()));
        assert_eq!(cache.class_histogram(&s), hist);
        let snap = cache.snapshot();
        assert_eq!((snap.histogram_misses, snap.histogram_hits), (1, 1));
        // No trace was encoded, charged or counted.
        assert_eq!(
            (snap.misses, snap.hits, snap.entries, snap.bytes),
            (0, 0, 0, 0)
        );
        cache.clear();
        assert_eq!((cache.histogram_hits(), cache.histogram_misses()), (0, 0));
        assert_eq!(cache.class_histogram(&s), hist);
        assert_eq!(cache.histogram_misses(), 1, "clear empties the memo");
    }

    #[test]
    fn concurrent_histogram_requests_fill_each_spec_once() {
        let cache = TraceCache::new();
        let sa = spec(4_000);
        let sb = spec(6_000);
        let start = std::sync::Barrier::new(8);
        let seen: Vec<_> = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..8)
                .map(|_| {
                    scope.spawn(|| {
                        start.wait();
                        (cache.class_histogram(&sa), cache.class_histogram(&sb))
                    })
                })
                .collect();
            workers
                .into_iter()
                .map(|w| w.join().expect("histogram requester panicked"))
                .collect()
        });
        assert_eq!(
            cache.histogram_misses(),
            2,
            "each spec counted exactly once"
        );
        assert_eq!(cache.histogram_hits(), 14);
        assert!(seen.windows(2).all(|w| w[0] == w[1]));
        let ta = PackedTrace::from_spec(&sa);
        assert_eq!(seen[0].0, ta.class_histogram(0..ta.len()));
        assert!(cache.is_empty(), "no trace was packed");
    }

    #[test]
    fn lru_eviction_respects_budget() {
        // Budget sized for roughly one trace: filling three evicts the
        // least recently used ones.
        let probe = PackedTrace::from_spec(&spec(5_000));
        let cache = TraceCache::with_budget(probe.bytes() + probe.bytes() / 2);
        let specs = [spec(5_000), spec(5_001), spec(5_002)];
        for s in &specs {
            cache.get(s);
        }
        assert!(cache.evictions() >= 1, "evictions = {}", cache.evictions());
        assert!(
            cache.bytes() <= cache.budget(),
            "resident {} over budget {}",
            cache.bytes(),
            cache.budget()
        );
        // The most recent spec survived.
        let before = cache.misses();
        cache.get(&specs[2]);
        assert_eq!(cache.misses(), before, "most recent trace still resident");
        // An evicted spec regenerates (miss), still bit-identically.
        let regen = cache.get(&specs[0]).unwrap();
        let fresh: Vec<Instr> = StreamGen::new(&specs[0]).collect();
        assert_eq!(regen.iter().collect::<Vec<_>>(), fresh);
    }

    #[test]
    fn fingerprint_separates_specs() {
        let a = TraceCache::fingerprint(&spec(1_000));
        assert_eq!(a, TraceCache::fingerprint(&spec(1_000)));
        assert_ne!(a, TraceCache::fingerprint(&spec(1_001)));
        let renamed = WorkloadSpec::builder("other-name", Suite::Parsec)
            .threads(4)
            .instructions(1_000)
            .build();
        assert_ne!(a, TraceCache::fingerprint(&renamed));
    }

    #[test]
    fn global_cache_is_shared() {
        let a = TraceCache::global();
        let b = TraceCache::global();
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    #[allow(clippy::reversed_empty_ranges)] // inverted bounds are the point
    fn class_histogram_matches_decoded_classes() {
        let trace = PackedTrace::from_spec(&spec(9_000));
        let mut expect = [0u64; InstrClass::COUNT];
        for instr in trace.iter().skip(1_234).take(5_000) {
            expect[instr.class.index() as usize] += 1;
        }
        assert_eq!(trace.class_histogram(1_234..6_234), expect);
        let total: u64 = trace.class_histogram(0..trace.len()).iter().sum();
        assert_eq!(total, trace.len() as u64);
        // Out-of-range and inverted bounds clamp instead of panicking.
        assert_eq!(
            trace.class_histogram(8_000..20_000),
            trace.class_histogram(8_000..9_000)
        );
        let empty: u64 = trace.class_histogram(20_000..5).iter().sum();
        assert_eq!(empty, 0);
    }

    /// Over at least two drain boundaries, one lane or three, the atomic
    /// tier's one replay path — the whole-trace class histogram — equals
    /// stepping every decoded instruction, its reference.
    #[test]
    fn atomic_histogram_replay_equals_stepping_the_trace() {
        use gemstone_uarch::backend::{Backend, TierConfig};
        use gemstone_uarch::configs::cortex_a7_hw;
        use gemstone_uarch::core::Engine;

        let s = spec(2 * Engine::DRAIN_INSTRS + 777);
        let trace = PackedTrace::from_spec(&s);
        let hist = trace.class_histogram(0..trace.len());
        let cfg = cortex_a7_hw();
        for freqs in [&[1.0e9][..], &[0.6e9, 1.0e9, 1.4e9]] {
            let tier = TierConfig::atomic();
            let a = Backend::new(tier, &cfg, freqs, s.threads, 7).run_histogram(&hist);
            let b = Backend::new(tier, &cfg, freqs, s.threads, 7).run_stream(trace.iter());
            assert_eq!(a.len(), freqs.len());
            for (lane, (ra, rb)) in a.iter().zip(&b).enumerate() {
                assert_eq!(ra.cycles.to_bits(), rb.cycles.to_bits(), "lane {lane}");
                assert_eq!(
                    format!("{:?}", ra.stats),
                    format!("{:?}", rb.stats),
                    "lane {lane} of {}",
                    freqs.len()
                );
            }
        }
    }
}
