//! Cache models: set-associative caches with write-back/write-allocate
//! policy, a stride prefetcher, and the **event-accounting distortions** the
//! paper measured in the gem5 model.
//!
//! Fig. 6 of the paper shows the gem5 `ex5_big` model reporting 19× the
//! hardware's L1D writebacks (event 0x15) and 9.9× its L1D write refills
//! (0x43) while the *timing-relevant* behaviour is broadly similar — i.e.
//! these are accounting discrepancies, not behavioural ones. They are
//! modelled here as explicit accounting modes ([`WritebackAccounting`] and
//! [`CacheConfig::refill_write_overcount`]) so the GemStone event-comparison
//! analysis has real distortions to detect.
//!
//! # Examples
//!
//! ```
//! use gemstone_uarch::cache::{Cache, CacheConfig};
//!
//! let mut c = Cache::new(CacheConfig::new(32 * 1024, 4, 64, 2));
//! let miss = c.access(0x1000 >> 6, false);
//! assert!(!miss.hit);
//! let hit = c.access(0x1000 >> 6, false);
//! assert!(hit.hit);
//! ```

use crate::assoc::LruSets;

/// How a cache reports writebacks to its event counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WritebackAccounting {
    /// One event per written-back line (hardware behaviour).
    #[default]
    PerLine,
    /// One event per 32-bit word of the written-back line — the gem5
    /// accounting distortion (≈16× for 64-byte lines).
    PerWord,
}

/// Geometry and behaviour of one cache level.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CacheConfig {
    /// Capacity in bytes.
    pub size_bytes: usize,
    /// Associativity.
    pub ways: usize,
    /// Line size in bytes.
    pub line_bytes: usize,
    /// Hit latency in cycles.
    pub latency: u32,
    /// Whether write misses allocate a line.
    pub write_allocate: bool,
    /// Writeback event accounting mode.
    pub writeback_accounting: WritebackAccounting,
    /// Multiplier applied to the *reported* (not actual) count of
    /// write-triggered refills; 1 for faithful accounting.
    pub refill_write_overcount: u32,
}

impl CacheConfig {
    /// A write-back, write-allocate cache with faithful accounting.
    ///
    /// # Panics
    ///
    /// Panics when the geometry is invalid — see [`CacheConfig::validate`].
    pub fn new(size_bytes: usize, ways: usize, line_bytes: usize, latency: u32) -> Self {
        let cfg = CacheConfig {
            size_bytes,
            ways,
            line_bytes,
            latency,
            write_allocate: true,
            writeback_accounting: WritebackAccounting::PerLine,
            refill_write_overcount: 1,
        };
        cfg.validate();
        cfg
    }

    /// Checks the geometry the tag array and the engine's shift/mask
    /// index arithmetic rely on: a power-of-two line size, at least one way,
    /// a whole power-of-two number of sets.
    ///
    /// # Panics
    ///
    /// Panics with a message naming the offending parameter when the
    /// geometry is invalid.
    pub fn validate(&self) {
        assert!(
            self.line_bytes.is_power_of_two(),
            "cache geometry: line_bytes {} must be a power of two",
            self.line_bytes
        );
        assert!(self.ways >= 1, "cache geometry: ways must be at least 1");
        assert!(
            self.size_bytes >= self.line_bytes && self.size_bytes.is_multiple_of(self.line_bytes),
            "cache geometry: size_bytes {} must be a positive multiple of line_bytes {}",
            self.size_bytes,
            self.line_bytes
        );
        let lines = self.size_bytes / self.line_bytes;
        assert!(
            lines.is_multiple_of(self.ways),
            "cache geometry: {} lines must divide evenly into {} ways",
            lines,
            self.ways
        );
        let sets = lines / self.ways;
        assert!(
            sets.is_power_of_two(),
            "cache geometry: {} lines / {} ways gives {} sets, which must be a power of two",
            lines,
            self.ways,
            sets
        );
    }

    /// Sets the writeback accounting mode (builder style).
    pub fn with_writeback_accounting(mut self, mode: WritebackAccounting) -> Self {
        self.writeback_accounting = mode;
        self
    }

    /// Sets the write-refill over-count factor (builder style).
    pub fn with_refill_write_overcount(mut self, factor: u32) -> Self {
        self.refill_write_overcount = factor.max(1);
        self
    }

    /// Number of lines.
    pub fn lines(&self) -> usize {
        (self.size_bytes / self.line_bytes).max(1)
    }

    /// `log2(line_bytes)`: byte address → line address shift amount.
    pub fn line_shift(&self) -> u32 {
        self.line_bytes.trailing_zeros()
    }
}

/// Event counters for one cache.
#[derive(Debug, Clone, Copy, Default)]
pub struct CacheCounters {
    /// All demand accesses.
    pub accesses: u64,
    /// Demand read accesses.
    pub read_accesses: u64,
    /// Demand write accesses.
    pub write_accesses: u64,
    /// Demand hits.
    pub hits: u64,
    /// Demand misses.
    pub misses: u64,
    /// Misses triggered by reads.
    pub read_misses: u64,
    /// Misses triggered by writes.
    pub write_misses: u64,
    /// Lines actually written back (behavioural truth).
    pub writeback_lines: u64,
    /// Writeback events *as reported* by the configured accounting mode.
    pub writebacks_reported: u64,
    /// Refills triggered by reads.
    pub refill_reads: u64,
    /// Refills triggered by writes (behavioural truth).
    pub refill_writes: u64,
    /// Write refills *as reported* (over-counted in the gem5 model).
    pub refill_writes_reported: u64,
    /// Valid lines evicted.
    pub evictions: u64,
    /// Prefetch fills issued into this cache.
    pub prefetch_fills: u64,
}

impl CacheCounters {
    /// Applies `f` to every counter (used by the sampled tier to
    /// extrapolate detailed-window counts to the whole stream).
    pub fn map(&self, f: impl Fn(u64) -> u64) -> Self {
        CacheCounters {
            accesses: f(self.accesses),
            read_accesses: f(self.read_accesses),
            write_accesses: f(self.write_accesses),
            hits: f(self.hits),
            misses: f(self.misses),
            read_misses: f(self.read_misses),
            write_misses: f(self.write_misses),
            writeback_lines: f(self.writeback_lines),
            writebacks_reported: f(self.writebacks_reported),
            refill_reads: f(self.refill_reads),
            refill_writes: f(self.refill_writes),
            refill_writes_reported: f(self.refill_writes_reported),
            evictions: f(self.evictions),
            prefetch_fills: f(self.prefetch_fills),
        }
    }

    /// Demand miss rate in `[0, 1]` (0 when no accesses).
    pub fn miss_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }
}

/// Result of a single cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheAccess {
    /// Demand hit?
    pub hit: bool,
    /// Whether the fill evicted a dirty line (a writeback left this level).
    pub writeback: bool,
    /// Line address of the dirty victim, when `writeback`.
    pub writeback_line: Option<u64>,
}

/// One level of cache.
#[derive(Debug)]
pub struct Cache {
    cfg: CacheConfig,
    sets: LruSets,
    counters: CacheCounters,
}

impl Clone for Cache {
    fn clone(&self) -> Self {
        Cache {
            cfg: self.cfg,
            sets: self.sets.clone(),
            counters: self.counters,
        }
    }
}

impl Cache {
    /// Builds a cache from its configuration.
    ///
    /// # Panics
    ///
    /// Panics when the geometry is invalid — see [`CacheConfig::validate`].
    pub fn new(cfg: CacheConfig) -> Self {
        cfg.validate();
        let sets = cfg.lines() / cfg.ways;
        Cache {
            cfg,
            sets: LruSets::new(sets, cfg.ways),
            counters: CacheCounters::default(),
        }
    }

    /// The configuration this cache was built with.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// Hit latency in cycles.
    pub fn latency(&self) -> u32 {
        self.cfg.latency
    }

    /// Performs a recorded demand access for the line address `line`
    /// (byte address divided by the line size): `lookup` with its
    /// counters on.
    #[inline]
    pub fn access(&mut self, line: u64, is_write: bool) -> CacheAccess {
        self.lookup::<true>(line, is_write)
    }

    /// The one demand-access routine. The replacement state always
    /// updates; the counters only when `RECORD`. Functional warming
    /// instantiates it with `RECORD = false`, so measurement windows start
    /// from live cache contents while the event counts stay untouched.
    #[inline]
    pub(crate) fn lookup<const RECORD: bool>(&mut self, line: u64, is_write: bool) -> CacheAccess {
        if RECORD {
            self.counters.accesses += 1;
            if is_write {
                self.counters.write_accesses += 1;
            } else {
                self.counters.read_accesses += 1;
            }
        }
        // Non-allocating write miss: probe only.
        if is_write && !self.cfg.write_allocate && !self.sets.probe(line) {
            if RECORD {
                self.counters.misses += 1;
                self.counters.write_misses += 1;
            }
            return CacheAccess {
                hit: false,
                writeback: false,
                writeback_line: None,
            };
        }
        let r = self.sets.access(line, is_write);
        if RECORD {
            let k = &mut self.counters;
            if r.hit {
                k.hits += 1;
            } else if is_write {
                k.misses += 1;
                k.write_misses += 1;
                k.refill_writes += 1;
                k.refill_writes_reported += u64::from(self.cfg.refill_write_overcount);
            } else {
                k.misses += 1;
                k.read_misses += 1;
                k.refill_reads += 1;
            }
            if r.evicted {
                k.evictions += 1;
            }
            if r.victim_dirty {
                self.record_writeback();
            }
        }
        // A hit neither evicts nor writes back.
        CacheAccess {
            hit: r.hit,
            writeback: r.victim_dirty,
            writeback_line: r.victim_tag.filter(|_| r.victim_dirty),
        }
    }

    /// Inserts a line as a prefetch (no demand counters; a dirty victim is
    /// reported like any other writeback). Returns whether the line was
    /// absent and so inserted.
    #[inline]
    fn prefetch_fill<const RECORD: bool>(&mut self, line: u64) -> bool {
        if self.sets.probe(line) {
            return false;
        }
        let r = self.sets.access(line, false);
        if RECORD {
            self.counters.prefetch_fills += 1;
            if r.victim_dirty {
                self.record_writeback();
            }
        }
        true
    }

    /// Counts one written-back line under the configured accounting mode.
    fn record_writeback(&mut self) {
        self.counters.writeback_lines += 1;
        self.counters.writebacks_reported += match self.cfg.writeback_accounting {
            WritebackAccounting::PerLine => 1,
            WritebackAccounting::PerWord => (self.cfg.line_bytes / 4).max(1) as u64,
        };
    }

    /// Invalidates a line (coherence); returns `Some(dirty)` when present.
    pub fn invalidate(&mut self, line: u64) -> Option<bool> {
        self.sets.invalidate(line)
    }

    /// Counter snapshot.
    pub fn counters(&self) -> CacheCounters {
        self.counters
    }
}

/// A simple stride/next-line prefetcher attached to a cache level.
///
/// On every demand miss it issues `degree` sequential line fills. The gem5
/// model is configured with an over-aggressive degree (the paper: "the
/// number of L2 prefetches are … significantly overestimated by the gem5
/// model").
#[derive(Debug, Clone, Copy)]
pub struct PrefetcherConfig {
    /// Lines prefetched per triggering miss (0 disables prefetching).
    pub degree: u32,
}

/// Runs the prefetcher policy for one miss: fills `degree` successor lines.
/// Returns how many fills were actually inserted (already-present lines are
/// skipped). Counts the fills only when `RECORD`.
pub fn run_prefetch<const RECORD: bool>(
    cache: &mut Cache,
    missed_line: u64,
    cfg: PrefetcherConfig,
) -> u32 {
    let mut inserted = 0;
    for d in 1..=u64::from(cfg.degree) {
        if cache.prefetch_fill::<RECORD>(missed_line + d) {
            inserted += 1;
        }
    }
    inserted
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> CacheConfig {
        CacheConfig::new(1024, 2, 64, 2) // 16 lines, 2-way, 8 sets
    }

    #[test]
    fn read_hit_miss_counting() {
        let mut c = Cache::new(small());
        assert!(!c.access(1, false).hit);
        assert!(c.access(1, false).hit);
        let k = c.counters();
        assert_eq!(k.accesses, 2);
        assert_eq!(k.hits, 1);
        assert_eq!(k.misses, 1);
        assert_eq!(k.read_misses, 1);
        assert_eq!(k.refill_reads, 1);
        assert!((k.miss_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn write_allocate_and_writeback() {
        let mut c = Cache::new(CacheConfig::new(64, 1, 64, 1)); // single line
        c.access(1, true); // allocate dirty
        let r = c.access(2, false); // evicts dirty line 1
        assert!(r.writeback);
        let k = c.counters();
        assert_eq!(k.writeback_lines, 1);
        assert_eq!(k.writebacks_reported, 1);
        assert_eq!(k.refill_writes, 1);
        assert_eq!(k.refill_writes_reported, 1);
    }

    #[test]
    fn per_word_accounting_inflates_writebacks() {
        let cfg =
            CacheConfig::new(64, 1, 64, 1).with_writeback_accounting(WritebackAccounting::PerWord);
        let mut c = Cache::new(cfg);
        c.access(1, true);
        c.access(2, false);
        let k = c.counters();
        assert_eq!(k.writeback_lines, 1);
        assert_eq!(k.writebacks_reported, 16); // 64-byte line / 4-byte words
    }

    #[test]
    fn refill_write_overcount() {
        let cfg = CacheConfig::new(1024, 2, 64, 2).with_refill_write_overcount(10);
        let mut c = Cache::new(cfg);
        c.access(1, true);
        c.access(9, true);
        let k = c.counters();
        assert_eq!(k.refill_writes, 2);
        assert_eq!(k.refill_writes_reported, 20);
    }

    #[test]
    fn non_allocating_write_miss() {
        let mut cfg = small();
        cfg.write_allocate = false;
        let mut c = Cache::new(cfg);
        assert!(!c.access(1, true).hit);
        // Still not present.
        assert!(!c.access(1, false).hit);
        assert_eq!(c.counters().write_misses, 1);
        assert_eq!(c.counters().refill_writes, 0);
    }

    #[test]
    fn working_set_behaviour() {
        // A working set within capacity has only compulsory misses; one that
        // exceeds capacity misses continually.
        let mut c = Cache::new(small()); // 16 lines
        for _ in 0..4 {
            for l in 0..8 {
                c.access(l, false);
            }
        }
        assert_eq!(c.counters().misses, 8);

        let mut c = Cache::new(small());
        for _ in 0..4 {
            for l in 0..64 {
                c.access(l, false);
            }
        }
        assert!(c.counters().miss_rate() > 0.9);
    }

    #[test]
    fn prefetch_fills_avoid_duplicates_and_count() {
        let mut c = Cache::new(small());
        c.access(10, false);
        let inserted = run_prefetch::<true>(&mut c, 10, PrefetcherConfig { degree: 3 });
        assert_eq!(inserted, 3);
        // Lines 11..13 now hit on demand.
        assert!(c.access(11, false).hit);
        assert!(c.access(12, false).hit);
        assert!(c.access(13, false).hit);
        // Prefetching again inserts nothing new.
        let inserted = run_prefetch::<true>(&mut c, 10, PrefetcherConfig { degree: 3 });
        assert_eq!(inserted, 0);
        assert_eq!(c.counters().prefetch_fills, 3);
    }

    #[test]
    fn higher_degree_prefetches_more() {
        let run = |degree| {
            let mut c = Cache::new(CacheConfig::new(4096, 4, 64, 2));
            for l in (0..256).step_by(8) {
                if !c.access(l, false).hit {
                    run_prefetch::<true>(&mut c, l, PrefetcherConfig { degree });
                }
            }
            c.counters().prefetch_fills
        };
        assert!(run(4) > run(1) * 3);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_pow2_sets_rejected() {
        // 96 lines / 2 ways = 48 sets: not a power of two.
        CacheConfig::new(96 * 64, 2, 64, 2);
    }

    #[test]
    #[should_panic(expected = "ways must be at least 1")]
    fn zero_ways_rejected() {
        CacheConfig::new(1024, 0, 64, 2);
    }

    #[test]
    #[should_panic(expected = "line_bytes")]
    fn non_pow2_line_rejected() {
        CacheConfig::new(1024, 2, 48, 2);
    }

    #[test]
    fn line_shift_matches_division() {
        let cfg = CacheConfig::new(32 * 1024, 4, 64, 2);
        assert_eq!(cfg.line_shift(), 6);
        for addr in [0u64, 63, 64, 0xFFFF_FFFF, u64::MAX] {
            assert_eq!(addr >> cfg.line_shift(), addr / 64);
        }
    }

    #[test]
    fn invalidate_removes_line() {
        let mut c = Cache::new(small());
        c.access(5, true);
        assert_eq!(c.invalidate(5), Some(true));
        assert!(!c.access(5, false).hit);
        assert_eq!(c.invalidate(99), None);
    }
}
