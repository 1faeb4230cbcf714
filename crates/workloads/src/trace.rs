//! Packed instruction traces and the process-wide trace cache.
//!
//! A workload's instruction stream depends only on its [`WorkloadSpec`] —
//! not on the core configuration or DVFS point — yet the simulation grid
//! replays every workload for each (config, frequency) tuple. Regenerating
//! the stream through [`StreamGen`] costs per-instruction RNG draws and CDF
//! sampling each time; this module amortises that by materialising the
//! stream **once** into a compact structure-of-arrays encoding
//! ([`PackedTrace`], about 7.6 B/instruction over the suite and at most
//! about 11 on the memory-heaviest workload) and replaying it for every
//! tuple.
//!
//! The [`TraceCache`] is sharded like the platform's `SimCache`: worker
//! threads share one trace per spec, and concurrent requesters for a spec
//! block on the one winning generation. A trace is resident only while
//! something that will replay it has it: a [`LiveTrace`] that a replay
//! is reading, or a [`TraceHold`] that a driver replaying the spec more
//! than once (every column of one workload's characterisation) takes
//! around its replays. The last of them to drop frees the trace, so
//! residency is bounded by concurrency — about one trace per worker —
//! and needs no byte budget.
//!
//! The atomic tier reads nothing but a per-class instruction count, so the
//! cache also memoises one whole-stream class histogram per spec
//! ([`TraceCache::class_histogram`]). Filling it folds the generated
//! stream straight into counts; it never encodes a trace, so atomic
//! campaigns pack no trace at all.
//!
//! **Determinism contract:** decoding a packed trace yields a stream that
//! is bit-identical to the [`StreamGen`] output it was encoded from —
//! every field of every [`Instr`], in order. Replay therefore produces
//! bit-identical engine results whether a trace is freshly generated,
//! held, or replayed through [`StreamGen`] directly.
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
use std::ops::{Deref, Range};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock, PoisonError, RwLock};

/// Number of independent shards (power of two).
const SHARD_COUNT: usize = 16;

/// Low bits of an `ops` byte: the [`InstrClass::index`].
const OP_CLASS: u8 = 0x0f;
/// The instruction's PC is not the previous PC + 4; it is the next entry
/// of the `jumps` column.
const OP_JUMP: u8 = 1 << 4;
/// A branch's architectural outcome.
const OP_TAKEN: u8 = 1 << 5;

// Every class index must fit the low nibble of an `ops` byte.
const _: () = assert!(InstrClass::COUNT <= 16);

/// The "previous PC" the encoder and decoder both start from. A first
/// PC of 0 (this + 4, wrapping) costs no `jumps` entry; any other first
/// PC is a jump, so every `u64` PC round-trips.
const PC_START: u64 = 0u64.wrapping_sub(4);

/// Low byte of a `mem_meta` entry: the access size; above it, the flags.
const MEM_SIZE: u16 = 0xff;
const MEM_UNALIGNED: u16 = 1 << 8;
const MEM_STORE: u16 = 1 << 9;
const MEM_SHARED: u16 = 1 << 10;
const MEM_DEPENDENT: u16 = 1 << 11;

/// A structure-of-arrays encoding of an instruction stream.
///
/// Per instruction, one `ops` byte: the class index in the low four bits,
/// a JUMP flag, and a branch's TAKEN flag. A PC costs nothing when it is
/// the previous PC + 4; any other PC is stored in the `jumps` column.
/// Memory payloads (`vaddrs`, `mem_meta`: size and four flags) and branch
/// payloads (`targets`, `sites`) sit in side columns in stream order and
/// are re-attached on decode by the class predicates (`is_memory()` /
/// `is_branch()`), which is why encoding asserts that payload presence
/// matches the class.
pub struct PackedTrace {
    ops: Vec<u8>,
    jumps: Vec<u64>,
    vaddrs: Vec<u64>,
    mem_meta: Vec<u16>,
    targets: Vec<u64>,
    sites: Vec<u32>,
}

impl PackedTrace {
    /// Encodes a stream. Preallocates the `ops` column from the
    /// iterator's `size_hint` (exact for [`StreamGen`]).
    ///
    /// # Panics
    ///
    /// Panics if an instruction carries a memory payload without a memory
    /// class (or vice versa), or a branch payload without a branch class —
    /// such a stream could not be decoded bit-identically.
    pub fn encode(stream: impl Iterator<Item = Instr>) -> Self {
        let (lo, hi) = stream.size_hint();
        let mut trace = PackedTrace {
            ops: Vec::with_capacity(hi.unwrap_or(lo)),
            jumps: Vec::new(),
            vaddrs: Vec::new(),
            mem_meta: Vec::new(),
            targets: Vec::new(),
            sites: Vec::new(),
        };
        let mut prev_pc = PC_START;
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
            let mut op = instr.class.index();
            if instr.pc != prev_pc.wrapping_add(4) {
                op |= OP_JUMP;
                trace.jumps.push(instr.pc);
            }
            prev_pc = instr.pc;
            if let Some(m) = &instr.mem {
                trace.vaddrs.push(m.vaddr);
                trace.mem_meta.push(
                    u16::from(m.size)
                        | (u16::from(m.unaligned) * MEM_UNALIGNED)
                        | (u16::from(m.is_store) * MEM_STORE)
                        | (u16::from(m.shared) * MEM_SHARED)
                        | (u16::from(m.dependent) * MEM_DEPENDENT),
                );
            }
            if let Some(b) = &instr.branch {
                op |= u8::from(b.taken) * OP_TAKEN;
                trace.targets.push(b.target_page);
                trace.sites.push(b.static_id);
            }
            trace.ops.push(op);
        }
        // The side columns grew by doubling; traces are encoded once and
        // then replayed many times, so trade one realloc each for a tight
        // footprint (bytes() counts capacity).
        trace.jumps.shrink_to_fit();
        trace.vaddrs.shrink_to_fit();
        trace.mem_meta.shrink_to_fit();
        trace.targets.shrink_to_fit();
        trace.sites.shrink_to_fit();
        trace
    }

    /// Generates and encodes the full stream of a workload specification.
    pub fn from_spec(spec: &WorkloadSpec) -> Self {
        Self::encode(StreamGen::new(spec))
    }

    /// Number of instructions in the trace.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the trace holds no instructions.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Resident heap footprint in bytes (what [`TraceCache::bytes`]
    /// sums over the live traces).
    pub fn bytes(&self) -> usize {
        self.ops.capacity()
            + (self.jumps.capacity() + self.vaddrs.capacity() + self.targets.capacity())
                * size_of::<u64>()
            + self.mem_meta.capacity() * size_of::<u16>()
            + self.sites.capacity() * size_of::<u32>()
            + size_of::<Self>()
    }

    /// Decoding iterator over the trace; yields the exact stream the trace
    /// was encoded from.
    pub fn iter(&self) -> Replay<'_> {
        Replay {
            trace: self,
            idx: 0,
            pc: PC_START,
            jump_idx: 0,
            mem_idx: 0,
            branch_idx: 0,
        }
    }

    /// Per-class instruction counts over `range` (end clamped to the trace
    /// length), indexed by [`InstrClass::index`]. Reads only the `ops`
    /// column, one byte per instruction. The `gridsweep` bench and tests
    /// call it; the atomic tier reads [`TraceCache::class_histogram`]
    /// instead, which never packs a trace.
    pub fn class_histogram(&self, range: Range<usize>) -> [u64; InstrClass::COUNT] {
        let end = range.end.min(self.len());
        let start = range.start.min(end);
        let mut hist = [0u64; InstrClass::COUNT];
        for &op in &self.ops[start..end] {
            hist[(op & OP_CLASS) as usize] += 1;
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
    /// The PC of the last decoded instruction ([`PC_START`] before the
    /// first).
    pc: u64,
    jump_idx: usize,
    mem_idx: usize,
    branch_idx: usize,
}

impl Iterator for Replay<'_> {
    type Item = Instr;

    #[inline]
    fn next(&mut self) -> Option<Instr> {
        let t = self.trace;
        let op = *t.ops.get(self.idx)?;
        self.idx += 1;
        let class = InstrClass::from_index(op & OP_CLASS).expect("trace holds valid class indices");
        self.pc = if op & OP_JUMP != 0 {
            self.jump_idx += 1;
            t.jumps[self.jump_idx - 1]
        } else {
            self.pc.wrapping_add(4)
        };
        let mem = class.is_memory().then(|| {
            let (vaddr, meta) = (t.vaddrs[self.mem_idx], t.mem_meta[self.mem_idx]);
            self.mem_idx += 1;
            MemRef {
                vaddr,
                size: (meta & MEM_SIZE) as u8,
                unaligned: meta & MEM_UNALIGNED != 0,
                is_store: meta & MEM_STORE != 0,
                shared: meta & MEM_SHARED != 0,
                dependent: meta & MEM_DEPENDENT != 0,
            }
        });
        let branch = class.is_branch().then(|| {
            let b = BranchRef {
                static_id: t.sites[self.branch_idx],
                taken: op & OP_TAKEN != 0,
                target_page: t.targets[self.branch_idx],
            };
            self.branch_idx += 1;
            b
        });
        Some(Instr {
            class,
            pc: self.pc,
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

/// One spec's entry. The first [`TraceCache::get`] fills it, and the
/// [`OnceLock`] makes concurrent requesters wait for that one generation.
/// The entry lives exactly as long as a [`TraceHold`] or a [`LiveTrace`]
/// has it.
type Slot = OnceLock<PackedTrace>;

/// A shared, concurrent memo of the packed traces something still holds,
/// beside a memo of whole-stream class histograms for the atomic tier.
///
/// Cheap to share via [`Arc`]; see [`TraceCache::global`] for the
/// process-wide instance used by default.
pub struct TraceCache {
    shards: Vec<RwLock<HashMap<TraceKey, Arc<Slot>>>>,
    /// Class histograms per spec fingerprint. An entry is one small
    /// array, so entries are kept for the life of the cache.
    histograms: RwLock<HashMap<TraceKey, Arc<OnceLock<[u64; InstrClass::COUNT]>>>>,
    bytes: AtomicUsize,
    /// The largest value `bytes` has reached.
    peak_bytes: AtomicUsize,
    hits: Arc<Counter>,
    misses: Arc<Counter>,
    histogram_hits: Arc<Counter>,
    histogram_misses: Arc<Counter>,
    lookup_seconds: Arc<Histogram>,
}

/// Keeps one spec's packed trace resident from the moment a
/// [`TraceCache::get`] generates it until the hold drops, so every `get`
/// for the spec meanwhile is a hit. A hold never generates a trace by
/// itself. See [`TraceCache::hold`].
#[derive(Debug)]
#[must_use = "a hold keeps the trace only until it is dropped"]
pub struct TraceHold<'a> {
    cache: &'a TraceCache,
    key: TraceKey,
    /// `Some` until the hold is dropped.
    slot: Option<Arc<Slot>>,
}

impl TraceHold<'_> {
    fn slot(&self) -> &Slot {
        self.slot
            .as_deref()
            .expect("a hold owns its slot until dropped")
    }
}

impl Drop for TraceHold<'_> {
    fn drop(&mut self) {
        if let Some(slot) = self.slot.take() {
            self.cache.release(self.key, slot);
        }
    }
}

/// A packed trace returned by [`TraceCache::get`]. While it lives, it
/// also holds the trace the way a [`TraceHold`] does, so a concurrent
/// `get` for the same spec replays this trace instead of generating
/// another.
#[derive(Debug)]
pub struct LiveTrace<'a>(TraceHold<'a>);

impl Deref for LiveTrace<'_> {
    type Target = PackedTrace;

    fn deref(&self) -> &PackedTrace {
        self.0
            .slot()
            .get()
            .expect("get fills the trace before it returns it")
    }
}

/// A consistent view of one trace cache's counters, read as a tuple.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceCacheSnapshot {
    /// Lookups served by a live trace.
    pub hits: u64,
    /// Lookups that generated a trace.
    pub misses: u64,
    /// Class-histogram lookups served from the memo.
    pub histogram_hits: u64,
    /// Class-histogram lookups that generated the stream to count it.
    pub histogram_misses: u64,
    /// Live trace bytes at snapshot time.
    pub bytes: usize,
    /// The largest live byte total seen ([`TraceCache::peak_bytes`]).
    pub peak_bytes: usize,
    /// Live traces at snapshot time.
    pub entries: usize,
}

static GLOBAL: OnceLock<Arc<TraceCache>> = OnceLock::new();

impl TraceCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        TraceCache {
            shards: (0..SHARD_COUNT)
                .map(|_| RwLock::new(HashMap::new()))
                .collect(),
            histograms: RwLock::new(HashMap::new()),
            bytes: AtomicUsize::new(0),
            peak_bytes: AtomicUsize::new(0),
            // Detached handles: per-instance caches (tests, benches) keep
            // isolated counts; only `global()` registers the canonical
            // `trace_cache.*` names.
            hits: Arc::new(Counter::new()),
            misses: Arc::new(Counter::new()),
            histogram_hits: Arc::new(Counter::new()),
            histogram_misses: Arc::new(Counter::new()),
            lookup_seconds: Arc::new(Histogram::with_bounds(log2_time_bounds())),
        }
    }

    /// The process-wide shared cache, whose counters are registered under
    /// the canonical `trace_cache.*` names.
    pub fn global() -> Arc<TraceCache> {
        GLOBAL
            .get_or_init(|| {
                let mut cache = TraceCache::new();
                let registry = Registry::global();
                cache.hits = registry.counter("trace_cache.hits");
                cache.misses = registry.counter("trace_cache.misses");
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

    fn shard(&self, key: TraceKey) -> &RwLock<HashMap<TraceKey, Arc<Slot>>> {
        &self.shards[(key.hi as usize) & (SHARD_COUNT - 1)]
    }

    /// Holds `spec`'s packed trace for a driver that replays the spec
    /// more than once: the first [`TraceCache::get`] that generates the
    /// trace keeps it resident until the hold drops. The hold itself
    /// generates nothing, so a spec whose replays are all served by the
    /// simulation memo costs no generation.
    pub fn hold(&self, spec: &WorkloadSpec) -> TraceHold<'_> {
        let key = Self::fingerprint(spec);
        let shard = self.shard(key);
        let found = shard
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(&key)
            .cloned();
        let slot = match found {
            Some(slot) => slot,
            None => shard
                .write()
                .unwrap_or_else(PoisonError::into_inner)
                .entry(key)
                .or_default()
                .clone(),
        };
        TraceHold {
            cache: self,
            key,
            slot: Some(slot),
        }
    }

    /// Drops one owner's reference to `key`'s slot, and removes the slot
    /// once no hold or live trace has it. Every owner clones its
    /// reference under the shard lock and drops it here under the write
    /// lock, so the strong count read here is exact. (Dropping it after
    /// the unlock would let two last owners each count the other and
    /// leave the slot in the map.)
    fn release(&self, key: TraceKey, slot: Arc<Slot>) {
        let mut map = self
            .shard(key)
            .write()
            .unwrap_or_else(PoisonError::into_inner);
        let last = map
            .get(&key)
            .is_some_and(|s| Arc::ptr_eq(s, &slot) && Arc::strong_count(s) == 2);
        let removed = if last { map.remove(&key) } else { None };
        drop(slot);
        drop(map);
        if let Some(trace) = removed.as_deref().and_then(OnceLock::get) {
            self.bytes.fetch_sub(trace.bytes(), Ordering::Relaxed);
        }
    }

    /// Returns the packed trace for `spec`: the live one if a hold or
    /// another [`LiveTrace`] still has it, otherwise a new generation.
    /// Concurrent requesters for the same spec block on the one winning
    /// generation instead of duplicating it.
    pub fn get(&self, spec: &WorkloadSpec) -> LiveTrace<'_> {
        // Lookup latency covers fingerprinting plus the shard probe —
        // not trace generation, which a miss pays inside the `OnceLock`.
        let lookup_start = std::time::Instant::now();
        let hold = self.hold(spec);
        self.lookup_seconds
            .observe(lookup_start.elapsed().as_secs_f64());
        let mut computed = false;
        let trace = hold.slot().get_or_init(|| {
            computed = true;
            PackedTrace::from_spec(spec)
        });
        if computed {
            self.misses.inc();
            let live = self.bytes.fetch_add(trace.bytes(), Ordering::Relaxed) + trace.bytes();
            self.peak_bytes.fetch_max(live, Ordering::Relaxed);
        } else {
            self.hits.inc();
        }
        LiveTrace(hold)
    }

    /// Returns the whole-stream class histogram of `spec` — all the atomic
    /// tier reads — computing it exactly once per fingerprint by folding
    /// [`StreamGen`] straight into counts: no trace is encoded.
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

    /// Number of lookups served by a live trace.
    pub fn hits(&self) -> u64 {
        self.hits.get()
    }

    /// Number of lookups that generated a trace (= generations).
    pub fn misses(&self) -> u64 {
        self.misses.get()
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
                    histogram_hits: cur.2,
                    histogram_misses: cur.3,
                    bytes: self.bytes(),
                    peak_bytes: self.peak_bytes(),
                    entries: self.len(),
                };
            }
            prev = cur;
        }
    }

    /// Bytes of the live traces: those a hold or a [`LiveTrace`] still
    /// has.
    pub fn bytes(&self) -> usize {
        self.bytes.load(Ordering::Relaxed)
    }

    /// The largest live byte total seen: what the cache cost at its
    /// fullest. Unlike [`TraceCache::bytes`], it still reads non-zero
    /// after every trace has dropped; how high it gets depends on how the
    /// replays were scheduled.
    pub fn peak_bytes(&self) -> usize {
        self.peak_bytes.load(Ordering::Relaxed)
    }

    /// Number of live traces.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                let map = s.read().unwrap_or_else(PoisonError::into_inner);
                map.values().filter(|slot| slot.get().is_some()).count()
            })
            .sum()
    }

    /// Whether no trace is live.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
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
            .field("peak_bytes", &self.peak_bytes())
            .field("hits", &self.hits())
            .field("misses", &self.misses())
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

    /// Adversarial streams round-trip field by field: every class, first
    /// PCs of 0 and of the start sentinel, PCs that wrap at `u64::MAX`,
    /// runs of jumps, extreme payload values and every flag combination.
    #[test]
    fn adversarial_streams_round_trip() {
        use rand::cases::{for_each_case, Cases};

        const WIDE: [u64; 7] = [0, 1, 4, 0xfff, PC_START, u64::MAX - 4, u64::MAX];
        fn wide(g: &mut Cases) -> u64 {
            if g.below(2) == 0 {
                g.pick(&WIDE)
            } else {
                g.next()
            }
        }
        fn instr(g: &mut Cases, pc: u64) -> Instr {
            let class = InstrClass::from_index(g.below(InstrClass::COUNT) as u8).unwrap();
            let flags = g.below(16);
            let mem = class.is_memory().then(|| MemRef {
                vaddr: wide(g),
                size: g.pick(&[0, 1, 4, 8, 64, 128, 255]),
                unaligned: flags & 1 != 0,
                is_store: flags & 2 != 0,
                shared: flags & 4 != 0,
                dependent: flags & 8 != 0,
            });
            let site = g.next() as u32;
            let branch = class.is_branch().then(|| BranchRef {
                static_id: g.pick(&[0, 1, u32::MAX - 1, u32::MAX, site]),
                taken: flags & 1 != 0,
                target_page: wide(g),
            });
            Instr {
                class,
                pc,
                mem,
                branch,
            }
        }

        for_each_case(256, 0x7ACE_5EED, |seed| {
            let mut g = Cases::new(seed);
            // From all-sequential to all-jump streams.
            let jump_in_8 = g.pick(&[0, 1, 4, 8]);
            let mut pc = wide(&mut g);
            let stream: Vec<Instr> = (0..g.range(0, 300))
                .map(|_| {
                    let this = pc;
                    pc = if g.below(8) < jump_in_8 {
                        // A jump, perhaps to the same PC or one back.
                        match g.below(3) {
                            0 => this,
                            1 => this.wrapping_sub(4),
                            _ => wide(&mut g),
                        }
                    } else {
                        this.wrapping_add(4)
                    };
                    instr(&mut g, this)
                })
                .collect();
            let trace = PackedTrace::encode(stream.iter().copied());
            assert_eq!(trace.len(), stream.len());
            let mut replay = trace.iter();
            for (i, want) in stream.iter().enumerate() {
                let got = replay.next().expect("one instruction per input");
                assert_eq!(got.class, want.class, "class of {i}");
                assert_eq!(got.pc, want.pc, "pc of {i}");
                assert_eq!(got.mem, want.mem, "memory payload of {i}");
                assert_eq!(got.branch, want.branch, "branch payload of {i}");
            }
            assert!(replay.next().is_none());
        });
    }

    #[test]
    fn footprint_is_compact() {
        let trace = PackedTrace::from_spec(&spec(50_000));
        let per_instr = trace.bytes() as f64 / trace.len() as f64;
        // 1 B op + an 8-byte PC per jump + 10 B per memory and 12 B per
        // branch instruction: ~8 B/instr on this mix, against a 56-byte
        // `Vec<Instr>` element.
        assert!(per_instr < 10.0, "bytes/instr = {per_instr:.1}");
    }

    /// No workload of the suite costs more than 12 B per instruction; the
    /// memory-heaviest (`lm-bw-mem-cp`) is about 10.6.
    #[test]
    fn every_suite_trace_is_compact() {
        for w in suites::power_suite().iter().map(|w| w.scaled(0.01)) {
            let trace = PackedTrace::from_spec(&w);
            let per_instr = trace.bytes() as f64 / trace.len() as f64;
            assert!(
                per_instr <= 12.0,
                "{}: bytes/instr = {per_instr:.1}",
                w.name
            );
        }
    }

    #[test]
    fn live_traces_are_shared_then_freed() {
        let cache = TraceCache::new();
        let s = spec(5_000);
        let a = cache.get(&s);
        let b = cache.get(&s);
        assert!(std::ptr::eq(&*a, &*b), "both callers replay one trace");
        assert_eq!((cache.misses(), cache.hits()), (1, 1));
        assert_eq!((cache.len(), cache.bytes()), (1, a.bytes()));
        let snap = cache.snapshot();
        assert_eq!((snap.hits, snap.misses), (1, 1));
        assert_eq!((snap.bytes, snap.entries), (a.bytes(), 1));
        drop(a);
        assert_eq!(cache.len(), 1, "the other live trace keeps it");
        drop(b);
        assert!(cache.is_empty());
        assert_eq!(cache.bytes(), 0);
        // Nothing has it any more: the next request generates again.
        let again = cache.get(&s);
        assert_eq!(cache.misses(), 2);
        assert_eq!(
            again.iter().collect::<Vec<_>>(),
            StreamGen::new(&s).collect::<Vec<_>>()
        );
    }

    #[test]
    fn peak_bytes_keeps_the_high_water_mark() {
        let cache = TraceCache::new();
        assert_eq!(cache.peak_bytes(), 0);
        let small = cache.get(&spec(2_000)).bytes();
        let large = cache.get(&spec(9_000)).bytes();
        assert!(small < large);
        // Each dropped before the next was generated: never both live.
        assert_eq!((cache.bytes(), cache.peak_bytes()), (0, large));
        assert_eq!(cache.snapshot().peak_bytes, large);
        // Two live at once raise it to their sum.
        let both = (cache.get(&spec(2_000)), cache.get(&spec(9_000)));
        drop(both);
        assert_eq!((cache.bytes(), cache.peak_bytes()), (0, small + large));
    }

    #[test]
    fn a_hold_keeps_a_generated_trace_until_it_drops() {
        let cache = TraceCache::new();
        let s = spec(5_000);
        let hold = cache.hold(&s);
        assert_eq!((cache.misses(), cache.len(), cache.bytes()), (0, 0, 0));
        let bytes = cache.get(&s).bytes();
        assert_eq!((cache.misses(), cache.hits()), (1, 0));
        assert_eq!(
            (cache.len(), cache.bytes()),
            (1, bytes),
            "held after the replay"
        );
        for _ in 0..3 {
            cache.get(&s);
        }
        assert_eq!((cache.misses(), cache.hits()), (1, 3));
        // A second hold on the spec shares the trace; the last one frees it.
        let inner = cache.hold(&s);
        drop(hold);
        assert_eq!(cache.len(), 1);
        drop(inner);
        assert_eq!((cache.len(), cache.bytes()), (0, 0));
        // A hold nothing replays under generates nothing.
        drop(cache.hold(&s));
        assert_eq!((cache.misses(), cache.len(), cache.bytes()), (1, 0, 0));
        // No slot, filled or not, outlives its last holder.
        assert!(cache.shards.iter().all(|s| s.read().unwrap().is_empty()));
    }

    #[test]
    fn concurrent_requests_generate_each_spec_once() {
        let cache = TraceCache::new();
        let sa = spec(4_000);
        let sb = spec(6_000);
        // Every worker keeps both traces until all have asked, so each
        // spec stays live across the whole race.
        let asked = std::sync::Barrier::new(8);
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    let live = (cache.get(&sa), cache.get(&sb));
                    asked.wait();
                    drop(live);
                });
            }
        });
        assert_eq!(cache.misses(), 2, "each spec generated exactly once");
        assert_eq!(cache.hits(), 14);
        assert_eq!((cache.len(), cache.bytes()), (0, 0));
        assert!(cache.shards.iter().all(|s| s.read().unwrap().is_empty()));
    }

    #[test]
    fn class_histogram_memo_counts_without_packing() {
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
