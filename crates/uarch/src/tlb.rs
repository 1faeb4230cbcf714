//! Translation lookaside buffers.
//!
//! Models a two-level TLB hierarchy with the structural difference the paper
//! identifies between hardware and the gem5 `ex5_big` model (§IV-F):
//!
//! * the **hardware** Cortex-A15 has 32-entry L1 I/D micro-TLBs backed by a
//!   **shared (unified) 512-entry 4-way** L2 TLB;
//! * the **gem5 model** specifies 64-entry L1 TLBs backed by **two separate
//!   1 KB 8-way "walker caches"** (one instruction, one data) with a higher
//!   access latency (4 cycles vs. the hardware's effective 2) — "as they are
//!   not unified they will have a lower combined hit ratio than a single TLB
//!   of double the size".
//!
//! # Examples
//!
//! ```
//! use gemstone_uarch::tlb::{TlbConfig, SecondLevelTlb, TlbHierarchy, TlbKind};
//!
//! let mut h = TlbHierarchy::new(
//!     TlbConfig { entries: 32, ways: 32 },
//!     TlbConfig { entries: 32, ways: 32 },
//!     SecondLevelTlb::unified(TlbConfig { entries: 512, ways: 4 }, 2, 40),
//! );
//! let r = h.translate(TlbKind::Instruction, 0x1234);
//! assert!(!r.l1_hit); // cold
//! let r = h.translate(TlbKind::Instruction, 0x1234);
//! assert!(r.l1_hit);
//! ```

use crate::assoc::LruSets;

/// Geometry of a single TLB structure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TlbConfig {
    /// Total entries.
    pub entries: usize,
    /// Associativity (ways). `ways == entries` gives a fully-associative
    /// TLB.
    pub ways: usize,
}

impl TlbConfig {
    /// Checks the geometry the tag array's shift/mask index arithmetic
    /// relies on: at least one way, ways dividing the entry count into a
    /// power-of-two number of sets (`ways == entries` — fully associative —
    /// always qualifies with a single set).
    ///
    /// # Panics
    ///
    /// Panics with a message naming the offending parameter when the
    /// geometry is invalid.
    pub fn validate(&self) {
        assert!(
            self.entries >= 1,
            "TLB geometry: entries must be at least 1"
        );
        assert!(self.ways >= 1, "TLB geometry: ways must be at least 1");
        assert!(
            self.entries.is_multiple_of(self.ways),
            "TLB geometry: {} entries must divide evenly into {} ways",
            self.entries,
            self.ways
        );
        let sets = self.entries / self.ways;
        assert!(
            sets.is_power_of_two(),
            "TLB geometry: {} entries / {} ways gives {} sets, which must be a power of two",
            self.entries,
            self.ways,
            sets
        );
    }

    fn build(self) -> LruSets {
        self.validate();
        LruSets::new(self.entries / self.ways, self.ways)
    }
}

/// Which L1 TLB a translation goes through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TlbKind {
    /// Instruction-side translation.
    Instruction,
    /// Data-side translation.
    Data,
}

/// The second-level TLB: either a unified structure (hardware) or split
/// instruction/data walker caches (the gem5 model).
#[derive(Debug, Clone)]
pub struct SecondLevelTlb {
    inner: SecondLevel,
}

#[derive(Debug, Clone)]
enum SecondLevel {
    /// One shared second-level TLB.
    Unified {
        tlb: LruSets,
        latency: u32,
        walk_latency: u32,
    },
    /// Separate instruction and data second-level TLBs (gem5's
    /// `itb_walker_cache` / `dtb_walker_cache`).
    Split {
        itlb: LruSets,
        dtlb: LruSets,
        latency: u32,
        walk_latency: u32,
    },
}

impl SecondLevelTlb {
    /// A unified second-level TLB.
    pub fn unified(cfg: TlbConfig, latency: u32, walk_latency: u32) -> Self {
        SecondLevelTlb {
            inner: SecondLevel::Unified {
                tlb: cfg.build(),
                latency,
                walk_latency,
            },
        }
    }

    /// Split instruction/data walker caches, each with geometry `cfg`.
    pub fn split(cfg: TlbConfig, latency: u32, walk_latency: u32) -> Self {
        SecondLevelTlb {
            inner: SecondLevel::Split {
                itlb: cfg.build(),
                dtlb: cfg.build(),
                latency,
                walk_latency,
            },
        }
    }

    /// True when the second level is split per side.
    pub fn is_split(&self) -> bool {
        matches!(self.inner, SecondLevel::Split { .. })
    }
}

/// Counters for one side (instruction or data) of the hierarchy.
#[derive(Debug, Clone, Copy, Default)]
pub struct TlbSideCounters {
    /// L1 TLB lookups.
    pub l1_accesses: u64,
    /// L1 TLB misses (refills) — PMU 0x02 / 0x05.
    pub l1_misses: u64,
    /// Second-level accesses (every L1 miss).
    pub l2_accesses: u64,
    /// Second-level hits.
    pub l2_hits: u64,
    /// Second-level misses → full page-table walks.
    pub walks: u64,
}

impl TlbSideCounters {
    /// Applies `f` to every counter (used by the sampled tier to
    /// extrapolate detailed-window counts to the whole stream).
    pub fn map(&self, f: impl Fn(u64) -> u64) -> Self {
        TlbSideCounters {
            l1_accesses: f(self.l1_accesses),
            l1_misses: f(self.l1_misses),
            l2_accesses: f(self.l2_accesses),
            l2_hits: f(self.l2_hits),
            walks: f(self.walks),
        }
    }
}

/// Result of one translation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TranslateResult {
    /// Whether the L1 TLB hit.
    pub l1_hit: bool,
    /// Whether the L2 TLB hit (meaningless when `l1_hit`).
    pub l2_hit: bool,
    /// Stall cycles charged to this translation.
    pub stall_cycles: u32,
}

/// A two-level TLB hierarchy with separate L1 I/D TLBs.
#[derive(Debug, Clone)]
pub struct TlbHierarchy {
    l1i: LruSets,
    l1d: LruSets,
    l2: SecondLevelTlb,
    icounters: TlbSideCounters,
    dcounters: TlbSideCounters,
}

impl TlbHierarchy {
    /// Builds the hierarchy from L1 I/D geometries and the second level.
    pub fn new(l1i: TlbConfig, l1d: TlbConfig, l2: SecondLevelTlb) -> Self {
        TlbHierarchy {
            l1i: l1i.build(),
            l1d: l1d.build(),
            l2,
            icounters: TlbSideCounters::default(),
            dcounters: TlbSideCounters::default(),
        }
    }

    /// Translates a virtual page, updating TLB state and counters, and
    /// returns hit/miss information plus the stall cycles to charge.
    #[inline]
    pub fn translate(&mut self, kind: TlbKind, page: u64) -> TranslateResult {
        let (l1, counters) = match kind {
            TlbKind::Instruction => (&mut self.l1i, &mut self.icounters),
            TlbKind::Data => (&mut self.l1d, &mut self.dcounters),
        };
        counters.l1_accesses += 1;
        if l1.access(page, false).hit {
            return TranslateResult {
                l1_hit: true,
                l2_hit: false,
                stall_cycles: 0,
            };
        }
        counters.l1_misses += 1;
        counters.l2_accesses += 1;
        let (l2_hit, latency, walk_latency) = match &mut self.l2.inner {
            SecondLevel::Unified {
                tlb,
                latency,
                walk_latency,
            } => (tlb.access(page, false).hit, *latency, *walk_latency),
            SecondLevel::Split {
                itlb,
                dtlb,
                latency,
                walk_latency,
            } => {
                let t = match kind {
                    TlbKind::Instruction => itlb,
                    TlbKind::Data => dtlb,
                };
                (t.access(page, false).hit, *latency, *walk_latency)
            }
        };
        if l2_hit {
            counters.l2_hits += 1;
            TranslateResult {
                l1_hit: false,
                l2_hit: true,
                stall_cycles: latency,
            }
        } else {
            counters.walks += 1;
            TranslateResult {
                l1_hit: false,
                l2_hit: false,
                stall_cycles: latency + walk_latency,
            }
        }
    }

    /// Functional warming: updates L1/L2 TLB replacement state exactly like
    /// [`TlbHierarchy::translate`] but records nothing in the counters. The
    /// sampled execution tier drives this during fast-forward phases.
    #[inline]
    pub fn warm(&mut self, kind: TlbKind, page: u64) {
        let l1 = match kind {
            TlbKind::Instruction => &mut self.l1i,
            TlbKind::Data => &mut self.l1d,
        };
        if l1.access(page, false).hit {
            return;
        }
        match &mut self.l2.inner {
            SecondLevel::Unified { tlb, .. } => {
                tlb.access(page, false);
            }
            SecondLevel::Split { itlb, dtlb, .. } => {
                let t = match kind {
                    TlbKind::Instruction => itlb,
                    TlbKind::Data => dtlb,
                };
                t.access(page, false);
            }
        }
    }

    /// Instruction-side counters.
    pub fn instruction_counters(&self) -> TlbSideCounters {
        self.icounters
    }

    /// Data-side counters.
    pub fn data_counters(&self) -> TlbSideCounters {
        self.dcounters
    }

    /// Flushes the L1 instruction TLB (context-synchronisation events and
    /// OS interrupts on real hardware; gem5 SE mode never does this).
    pub fn flush_instruction_l1(&mut self) {
        self.l1i.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_hierarchy(unified: bool) -> TlbHierarchy {
        let l1 = TlbConfig {
            entries: 4,
            ways: 4,
        };
        let l2cfg = TlbConfig {
            entries: 16,
            ways: 4,
        };
        let l2 = if unified {
            SecondLevelTlb::unified(l2cfg, 2, 40)
        } else {
            SecondLevelTlb::split(
                TlbConfig {
                    entries: 8,
                    ways: 4,
                },
                4,
                40,
            )
        };
        TlbHierarchy::new(l1, l1, l2)
    }

    #[test]
    fn l1_hit_after_fill_no_stall() {
        let mut h = small_hierarchy(true);
        let r = h.translate(TlbKind::Instruction, 7);
        assert!(!r.l1_hit);
        assert!(r.stall_cycles >= 2);
        let r = h.translate(TlbKind::Instruction, 7);
        assert!(r.l1_hit);
        assert_eq!(r.stall_cycles, 0);
        assert_eq!(h.instruction_counters().l1_accesses, 2);
        assert_eq!(h.instruction_counters().l1_misses, 1);
    }

    #[test]
    fn l2_hit_cheaper_than_walk() {
        let mut h = small_hierarchy(true);
        // Fill page 1 (walk), then thrash L1 with 4 other pages so page 1
        // leaves L1 but stays in L2.
        h.translate(TlbKind::Data, 1);
        for p in 10..14 {
            h.translate(TlbKind::Data, p);
        }
        let r = h.translate(TlbKind::Data, 1);
        assert!(!r.l1_hit);
        assert!(r.l2_hit);
        assert_eq!(r.stall_cycles, 2);
        let c = h.data_counters();
        assert_eq!(c.l2_hits, 1);
        assert_eq!(c.walks, 5);
    }

    #[test]
    fn split_l2_separates_sides() {
        let mut h = small_hierarchy(false);
        assert!(h.l2.is_split());
        // Fill the same page from the data side, then thrash data L1.
        h.translate(TlbKind::Data, 42);
        for p in 100..104 {
            h.translate(TlbKind::Data, p);
        }
        // Data side: L2 hit.
        assert!(h.translate(TlbKind::Data, 42).l2_hit);
        // Instruction side: the split L2 never saw page 42 → walk.
        let r = h.translate(TlbKind::Instruction, 42);
        assert!(!r.l2_hit);
        assert_eq!(h.instruction_counters().walks, 1);
    }

    #[test]
    fn unified_l2_shares_between_sides() {
        let mut h = small_hierarchy(true);
        h.translate(TlbKind::Data, 42);
        // Instruction-side lookup of the same page: L1I misses but the
        // unified L2 hits.
        let r = h.translate(TlbKind::Instruction, 42);
        assert!(!r.l1_hit);
        assert!(r.l2_hit);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_pow2_sets_rejected() {
        // 24 entries / 2 ways = 12 sets: not a power of two.
        TlbConfig {
            entries: 24,
            ways: 2,
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "ways must be at least 1")]
    fn zero_ways_rejected() {
        TlbConfig {
            entries: 16,
            ways: 0,
        }
        .validate();
    }

    #[test]
    fn fully_associative_geometry_is_valid() {
        // ways == entries (single set) is the common micro-TLB shape.
        TlbConfig {
            entries: 10,
            ways: 10,
        }
        .validate();
    }

    #[test]
    fn bigger_l1_fewer_misses() {
        let walk = |entries: usize| {
            let mut h = TlbHierarchy::new(
                TlbConfig {
                    entries,
                    ways: entries,
                },
                TlbConfig {
                    entries: 4,
                    ways: 4,
                },
                SecondLevelTlb::unified(
                    TlbConfig {
                        entries: 64,
                        ways: 4,
                    },
                    2,
                    40,
                ),
            );
            // 48 pages round-robin: fits in 64-entry L1 but not in 32.
            let mut misses = 0;
            for i in 0..480 {
                if !h.translate(TlbKind::Instruction, (i % 48) as u64).l1_hit {
                    misses += 1;
                }
            }
            misses
        };
        assert!(walk(64) < walk(32), "64-entry should out-perform 32-entry");
    }
}
