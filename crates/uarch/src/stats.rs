//! Simulation statistics: a typed aggregate of every counter the engine
//! produces, plus a gem5-style hierarchical statistics dump.
//!
//! gem5 emits thousands of `system.cpu.*` statistics; GemStone's §IV-C
//! analysis correlates each of them with the execution-time error. This
//! module reproduces the relevant naming (`branchPred.*`, `itb.*`,
//! `itb_walker_cache.*`, `icache/dcache/l2.*`, `fetch.*`, `commit.*`,
//! `iew.*`) so the downstream analyses read like the paper.
//!
//! # Examples
//!
//! ```
//! use gemstone_uarch::stats::SimStats;
//!
//! let stats = SimStats::default();
//! let map = stats.gem5_stats_map();
//! assert!(map.contains_key("system.cpu.branchPred.condIncorrect"));
//! ```

use crate::backend::{Fidelity, SampleMeta};
use crate::branch::BranchCounters;
use crate::cache::CacheCounters;
use crate::instr::InstrClass;
use crate::tlb::TlbSideCounters;
use std::collections::BTreeMap;

/// Committed (architectural) instruction counts by class.
#[derive(Debug, Clone, Copy, Default)]
pub struct ClassCounts {
    /// Integer ALU ops.
    pub int_alu: u64,
    /// Integer multiplies.
    pub int_mul: u64,
    /// Integer divides.
    pub int_div: u64,
    /// Scalar FP ops.
    pub fp_alu: u64,
    /// Scalar FP divides.
    pub fp_div: u64,
    /// SIMD ops.
    pub simd: u64,
    /// Loads.
    pub loads: u64,
    /// Stores.
    pub stores: u64,
    /// Conditional branches.
    pub branches: u64,
    /// Indirect branches.
    pub indirect_branches: u64,
    /// Calls.
    pub calls: u64,
    /// Returns.
    pub returns: u64,
    /// Load-exclusives.
    pub load_exclusives: u64,
    /// Store-exclusives.
    pub store_exclusives: u64,
    /// Barriers.
    pub barriers: u64,
    /// Nops / unmodelled.
    pub nops: u64,
}

impl ClassCounts {
    /// Total instructions across all classes.
    pub fn total(&self) -> u64 {
        self.int_alu
            + self.int_mul
            + self.int_div
            + self.fp_alu
            + self.fp_div
            + self.simd
            + self.loads
            + self.stores
            + self.branches
            + self.indirect_branches
            + self.calls
            + self.returns
            + self.load_exclusives
            + self.store_exclusives
            + self.barriers
            + self.nops
    }

    /// All control-flow instructions.
    pub fn all_branches(&self) -> u64 {
        self.branches + self.indirect_branches + self.calls + self.returns
    }

    /// Integer data-processing ops (PMU `DP_SPEC` family).
    pub fn int_dp(&self) -> u64 {
        self.int_alu + self.int_mul + self.int_div
    }

    /// Scalar floating-point ops.
    pub fn fp(&self) -> u64 {
        self.fp_alu + self.fp_div
    }

    /// Builds per-class counts from a dense histogram indexed by
    /// [`InstrClass::index`] (the inverse of [`ClassCounts::to_histogram`]).
    pub fn from_histogram(hist: &[u64; InstrClass::COUNT]) -> Self {
        ClassCounts {
            int_alu: hist[InstrClass::IntAlu.index() as usize],
            int_mul: hist[InstrClass::IntMul.index() as usize],
            int_div: hist[InstrClass::IntDiv.index() as usize],
            fp_alu: hist[InstrClass::FpAlu.index() as usize],
            fp_div: hist[InstrClass::FpDiv.index() as usize],
            simd: hist[InstrClass::Simd.index() as usize],
            loads: hist[InstrClass::Load.index() as usize],
            stores: hist[InstrClass::Store.index() as usize],
            branches: hist[InstrClass::Branch.index() as usize],
            indirect_branches: hist[InstrClass::IndirectBranch.index() as usize],
            calls: hist[InstrClass::Call.index() as usize],
            returns: hist[InstrClass::Return.index() as usize],
            load_exclusives: hist[InstrClass::LoadExclusive.index() as usize],
            store_exclusives: hist[InstrClass::StoreExclusive.index() as usize],
            barriers: hist[InstrClass::Barrier.index() as usize],
            nops: hist[InstrClass::Nop.index() as usize],
        }
    }

    /// The counts as a dense histogram indexed by [`InstrClass::index`].
    pub fn to_histogram(&self) -> [u64; InstrClass::COUNT] {
        let mut hist = [0u64; InstrClass::COUNT];
        hist[InstrClass::IntAlu.index() as usize] = self.int_alu;
        hist[InstrClass::IntMul.index() as usize] = self.int_mul;
        hist[InstrClass::IntDiv.index() as usize] = self.int_div;
        hist[InstrClass::FpAlu.index() as usize] = self.fp_alu;
        hist[InstrClass::FpDiv.index() as usize] = self.fp_div;
        hist[InstrClass::Simd.index() as usize] = self.simd;
        hist[InstrClass::Load.index() as usize] = self.loads;
        hist[InstrClass::Store.index() as usize] = self.stores;
        hist[InstrClass::Branch.index() as usize] = self.branches;
        hist[InstrClass::IndirectBranch.index() as usize] = self.indirect_branches;
        hist[InstrClass::Call.index() as usize] = self.calls;
        hist[InstrClass::Return.index() as usize] = self.returns;
        hist[InstrClass::LoadExclusive.index() as usize] = self.load_exclusives;
        hist[InstrClass::StoreExclusive.index() as usize] = self.store_exclusives;
        hist[InstrClass::Barrier.index() as usize] = self.barriers;
        hist[InstrClass::Nop.index() as usize] = self.nops;
        hist
    }

    /// Applies `f` to every class count.
    pub fn map(&self, f: impl Fn(u64) -> u64) -> Self {
        let mut hist = self.to_histogram();
        for v in &mut hist {
            *v = f(*v);
        }
        ClassCounts::from_histogram(&hist)
    }

    /// Per-class sum.
    pub fn add(&self, other: &ClassCounts) -> Self {
        let (mut a, b) = (self.to_histogram(), other.to_histogram());
        for (x, y) in a.iter_mut().zip(b) {
            *x += y;
        }
        ClassCounts::from_histogram(&a)
    }

    /// Per-class saturating difference.
    pub fn saturating_sub(&self, other: &ClassCounts) -> Self {
        let (mut a, b) = (self.to_histogram(), other.to_histogram());
        for (x, y) in a.iter_mut().zip(b) {
            *x = x.saturating_sub(y);
        }
        ClassCounts::from_histogram(&a)
    }
}

/// Stall-cycle breakdown (all in core cycles).
#[derive(Debug, Clone, Copy, Default)]
pub struct StallCycles {
    /// Cycles lost to branch mispredict squashes.
    pub mispredict: f64,
    /// Front-end stalls: L1I misses and wrong-path pollution.
    pub fetch: f64,
    /// Front-end TLB stalls (gem5 `fetch.TlbCycles`).
    pub fetch_tlb: f64,
    /// Back-end data-memory stalls.
    pub memory: f64,
    /// Data-TLB stalls.
    pub data_tlb: f64,
    /// Serialisation: barriers and exclusives.
    pub serialization: f64,
    /// Long-latency execution (divides etc.).
    pub execute: f64,
}

impl StallCycles {
    /// In-place per-component sum (fixed component order). The engine
    /// folds its drained stall spans through this in instruction order.
    pub fn accumulate(&mut self, other: &StallCycles) {
        self.mispredict += other.mispredict;
        self.fetch += other.fetch;
        self.fetch_tlb += other.fetch_tlb;
        self.memory += other.memory;
        self.data_tlb += other.data_tlb;
        self.serialization += other.serialization;
        self.execute += other.execute;
    }

    /// Total stall cycles.
    pub fn total(&self) -> f64 {
        self.mispredict
            + self.fetch
            + self.fetch_tlb
            + self.memory
            + self.data_tlb
            + self.serialization
            + self.execute
    }
}

/// Complete statistics from one simulation run.
#[derive(Debug, Clone, Default)]
pub struct SimStats {
    /// Core clock frequency the run used (Hz).
    pub freq_hz: f64,
    /// Total cycles.
    pub cycles: f64,
    /// Simulated wall-clock seconds.
    pub seconds: f64,
    /// Committed (architectural) instructions.
    pub committed_instructions: u64,
    /// Speculatively executed instructions (committed + wrong path).
    pub speculative_instructions: u64,
    /// Wrong-path instructions fetched after mispredicts.
    pub wrong_path_instructions: u64,
    /// Committed per-class counts.
    pub committed: ClassCounts,
    /// Speculative per-class counts (committed + wrong-path composition).
    pub speculative: ClassCounts,
    /// Committed unaligned loads.
    pub unaligned_loads: u64,
    /// Committed unaligned stores.
    pub unaligned_stores: u64,
    /// Store-exclusive failures.
    pub strex_fails: u64,
    /// Branch-unit counters.
    pub branch: BranchCounters,
    /// Instruction-side TLB counters.
    pub itlb: TlbSideCounters,
    /// Data-side TLB counters.
    pub dtlb: TlbSideCounters,
    /// Data-TLB misses triggered by loads.
    pub dtlb_miss_loads: u64,
    /// Data-TLB misses triggered by stores.
    pub dtlb_miss_stores: u64,
    /// L1 instruction cache counters.
    pub l1i: CacheCounters,
    /// L1I accesses *as reported* (per instruction in the gem5 model,
    /// per fetched line on hardware).
    pub l1i_reported_accesses: u64,
    /// L1 data cache counters.
    pub l1d: CacheCounters,
    /// Shared L2 counters.
    pub l2: CacheCounters,
    /// DRAM accesses (L2 demand misses + L2 writebacks + walks that miss).
    pub dram_accesses: u64,
    /// DRAM accesses triggered by reads.
    pub dram_reads: u64,
    /// DRAM accesses triggered by writes(backs).
    pub dram_writes: u64,
    /// Coherence snoops observed.
    pub snoops: u64,
    /// Commit stalls for non-speculatable instructions (barriers,
    /// exclusives) — gem5 `commit.commitNonSpecStalls`.
    pub nonspec_stalls: u64,
    /// Stall breakdown.
    pub stalls: StallCycles,
    /// Whether this run's configuration counts VFP ops in the SIMD event
    /// (the gem5 misclassification of §V).
    pub fp_counted_as_simd: bool,
    /// Whether the second-level TLB was split (controls which walker-cache
    /// statistics appear in the gem5 dump).
    pub split_l2_tlb: bool,
    /// The fidelity tier that produced these statistics.
    pub fidelity: Fidelity,
    /// Sampling evidence — present only for sampled-tier runs, so results
    /// are never silently mistaken for full-detail runs.
    pub sample: Option<SampleMeta>,
}

impl SimStats {
    /// Instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles > 0.0 {
            self.committed_instructions as f64 / self.cycles
        } else {
            0.0
        }
    }

    /// Event count per second of simulated time — the rate form used by the
    /// power models.
    pub fn rate(&self, count: f64) -> f64 {
        if self.seconds > 0.0 {
            count / self.seconds
        } else {
            0.0
        }
    }

    /// Produces a gem5-style statistics dump. Key names follow gem5's
    /// `system.cpu.*` conventions; the walker-cache statistics
    /// (`itb_walker_cache.*`) appear only for split-L2-TLB (model)
    /// configurations, mirroring which statistics exist in each tool.
    pub fn gem5_stats_map(&self) -> BTreeMap<String, f64> {
        let mut m = BTreeMap::new();
        let mut put = |k: &str, v: f64| {
            m.insert(k.to_string(), v);
        };

        put("sim_seconds", self.seconds);
        put("sim_insts", self.committed_instructions as f64);
        put("system.cpu.numCycles", self.cycles);
        put("system.cpu.ipc", self.ipc());
        put(
            "system.cpu.committedInsts",
            self.committed_instructions as f64,
        );
        put(
            "system.cpu.commit.committedInsts",
            self.committed_instructions as f64,
        );
        put(
            "system.cpu.commit.branches",
            self.committed.all_branches() as f64,
        );
        put(
            "system.cpu.commit.branchMispredicts",
            self.branch.total_mispredicts() as f64,
        );
        put(
            "system.cpu.commit.commitNonSpecStalls",
            self.nonspec_stalls as f64,
        );
        put("system.cpu.commit.loads", self.committed.loads as f64);
        put("system.cpu.commit.membars", self.committed.barriers as f64);

        // Branch predictor.
        put("system.cpu.branchPred.lookups", self.branch.lookups as f64);
        put(
            "system.cpu.branchPred.condPredicted",
            self.branch.cond_predicted as f64,
        );
        put(
            "system.cpu.branchPred.condIncorrect",
            self.branch.cond_incorrect as f64,
        );
        put("system.cpu.branchPred.BTBHits", self.branch.btb_hits as f64);
        put(
            "system.cpu.branchPred.BTBLookups",
            (self.branch.btb_hits + self.branch.btb_misses) as f64,
        );
        put("system.cpu.branchPred.usedRAS", self.branch.used_ras as f64);
        put(
            "system.cpu.branchPred.RASInCorrect",
            self.branch.ras_incorrect as f64,
        );
        put(
            "system.cpu.branchPred.indirectLookups",
            self.branch.indirect_lookups as f64,
        );
        put(
            "system.cpu.branchPred.indirectMisses",
            self.branch.indirect_misses as f64,
        );

        // Fetch.
        put(
            "system.cpu.fetch.predictedBranches",
            self.branch.lookups as f64,
        );
        put(
            "system.cpu.fetch.Branches",
            self.speculative.all_branches() as f64,
        );
        put("system.cpu.fetch.TlbCycles", self.stalls.fetch_tlb);
        put("system.cpu.fetch.IcacheStallCycles", self.stalls.fetch);
        put(
            "system.cpu.fetch.PendingTrapStallCycles",
            self.stalls.mispredict * 0.1,
        );
        put(
            "system.cpu.fetch.insts",
            self.speculative_instructions as f64,
        );

        // IEW (issue/execute/writeback).
        put("system.cpu.iew.exec_nop", self.speculative.nops as f64);
        put(
            "system.cpu.iew.exec_branches",
            self.speculative.all_branches() as f64,
        );
        put(
            "system.cpu.iew.predictedTakenIncorrect",
            self.branch.cond_incorrect as f64 * 0.6,
        );
        put(
            "system.cpu.iew.predictedNotTakenIncorrect",
            self.branch.cond_incorrect as f64 * 0.4,
        );
        put(
            "system.cpu.iew.memOrderViolationEvents",
            self.strex_fails as f64,
        );

        // Instruction classes (speculative, matching gem5's op-class stats).
        put(
            "system.cpu.intAluAccesses",
            self.speculative.int_dp() as f64,
        );
        put(
            "system.cpu.fpAluAccesses",
            (self.speculative.fp() + self.speculative.simd) as f64,
        );

        // TLBs. gem5's `itb`/`dtb` are the L1 TLBs.
        put("system.cpu.itb.accesses", self.itlb.l1_accesses as f64);
        put("system.cpu.itb.misses", self.itlb.l1_misses as f64);
        put(
            "system.cpu.itb.hits",
            (self.itlb.l1_accesses - self.itlb.l1_misses) as f64,
        );
        put("system.cpu.dtb.accesses", self.dtlb.l1_accesses as f64);
        put("system.cpu.dtb.misses", self.dtlb.l1_misses as f64);
        put(
            "system.cpu.dtb.hits",
            (self.dtlb.l1_accesses - self.dtlb.l1_misses) as f64,
        );
        put(
            "system.cpu.dtb.prefetch_faults",
            (self.dtlb.walks / 8) as f64,
        );
        put("system.cpu.itb.walks", self.itlb.walks as f64);
        put("system.cpu.dtb.walks", self.dtlb.walks as f64);

        if self.split_l2_tlb {
            // The ex5 model's walker caches (the paper's Cluster A events).
            put(
                "system.cpu.itb_walker_cache.overall_accesses",
                self.itlb.l2_accesses as f64,
            );
            put(
                "system.cpu.itb_walker_cache.overall_hits",
                self.itlb.l2_hits as f64,
            );
            put(
                "system.cpu.itb_walker_cache.overall_misses",
                self.itlb.walks as f64,
            );
            put(
                "system.cpu.itb_walker_cache.ReadReq_accesses",
                self.itlb.l2_accesses as f64,
            );
            put(
                "system.cpu.itb_walker_cache.overall_miss_rate",
                if self.itlb.l2_accesses > 0 {
                    self.itlb.walks as f64 / self.itlb.l2_accesses as f64
                } else {
                    0.0
                },
            );
            put(
                "system.cpu.dtb_walker_cache.overall_accesses",
                self.dtlb.l2_accesses as f64,
            );
            put(
                "system.cpu.dtb_walker_cache.overall_hits",
                self.dtlb.l2_hits as f64,
            );
            put(
                "system.cpu.dtb_walker_cache.overall_misses",
                self.dtlb.walks as f64,
            );
        } else {
            put(
                "system.cpu.l2tlb.overall_accesses",
                (self.itlb.l2_accesses + self.dtlb.l2_accesses) as f64,
            );
            put(
                "system.cpu.l2tlb.overall_hits",
                (self.itlb.l2_hits + self.dtlb.l2_hits) as f64,
            );
        }

        // Caches.
        put(
            "system.cpu.icache.overall_accesses",
            self.l1i_reported_accesses as f64,
        );
        put("system.cpu.icache.overall_misses", self.l1i.misses as f64);
        put(
            "system.cpu.icache.overall_hits",
            self.l1i_reported_accesses.saturating_sub(self.l1i.misses) as f64,
        );
        put(
            "system.cpu.icache.overall_miss_rate",
            if self.l1i_reported_accesses > 0 {
                self.l1i.misses as f64 / self.l1i_reported_accesses as f64
            } else {
                0.0
            },
        );
        put(
            "system.cpu.dcache.overall_accesses",
            self.l1d.accesses as f64,
        );
        put("system.cpu.dcache.overall_misses", self.l1d.misses as f64);
        put("system.cpu.dcache.overall_hits", self.l1d.hits as f64);
        put(
            "system.cpu.dcache.ReadReq_accesses",
            self.l1d.read_accesses as f64,
        );
        put(
            "system.cpu.dcache.WriteReq_accesses",
            self.l1d.write_accesses as f64,
        );
        put(
            "system.cpu.dcache.ReadReq_hits",
            (self.l1d.read_accesses - self.l1d.read_misses) as f64,
        );
        put(
            "system.cpu.dcache.WriteReq_hits",
            (self.l1d.write_accesses - self.l1d.write_misses) as f64,
        );
        put(
            "system.cpu.dcache.ReadReq_misses",
            self.l1d.read_misses as f64,
        );
        put(
            "system.cpu.dcache.WriteReq_misses",
            self.l1d.write_misses as f64,
        );
        put(
            "system.cpu.dcache.writebacks",
            self.l1d.writebacks_reported as f64,
        );
        put(
            "system.cpu.dcache.overall_mshr_misses",
            self.l1d.misses as f64,
        );

        put("system.l2.overall_accesses", self.l2.accesses as f64);
        put("system.l2.overall_misses", self.l2.misses as f64);
        put("system.l2.overall_hits", self.l2.hits as f64);
        put("system.l2.overall_miss_rate", self.l2.miss_rate());
        put(
            "system.l2.ReadExReq_accesses",
            self.l2.write_accesses as f64,
        );
        put(
            "system.l2.ReadExReq_hits",
            (self.l2.write_accesses - self.l2.write_misses) as f64,
        );
        put("system.l2.ReadExReq_misses", self.l2.write_misses as f64);
        put("system.l2.writebacks", self.l2.writebacks_reported as f64);
        put("system.l2.prefetches", self.l2.prefetch_fills as f64);
        put(
            "system.l2.overall_miss_latency",
            self.l2.misses as f64 * self.stalls.memory.max(1.0) / (self.l1d.misses.max(1)) as f64,
        );
        put(
            "system.l2.UncacheableLatency::cpu.data",
            self.stalls.serialization * 0.2,
        );

        // Memory system.
        put("system.mem_ctrls.num_reads", self.dram_reads as f64);
        put("system.mem_ctrls.num_writes", self.dram_writes as f64);
        put("system.mem_ctrls.bytes_read", self.dram_reads as f64 * 64.0);
        put("system.membus.snoops", self.snoops as f64);

        // Stall decomposition.
        put("system.cpu.stalls.mispredict", self.stalls.mispredict);
        put("system.cpu.stalls.fetch", self.stalls.fetch);
        put("system.cpu.stalls.memory", self.stalls.memory);
        put("system.cpu.stalls.dataTlb", self.stalls.data_tlb);
        put("system.cpu.stalls.serialization", self.stalls.serialization);
        put("system.cpu.stalls.execute", self.stalls.execute);

        m
    }
}

impl SimStats {
    /// Renders the statistics in gem5's `stats.txt` format:
    /// `name  value  # description`-style lines between begin/end markers.
    pub fn to_stats_txt(&self) -> String {
        let mut out = String::from("---------- Begin Simulation Statistics ----------\n");
        for (name, value) in self.gem5_stats_map() {
            // gem5 prints integers without a fraction and floats with six
            // significant digits.
            if value.fract() == 0.0 && value.abs() < 1e15 {
                out.push_str(&format!("{name:<60} {value:>20.0}\n"));
            } else {
                out.push_str(&format!("{name:<60} {value:>20.6}\n"));
            }
        }
        out.push_str("---------- End Simulation Statistics   ----------\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_txt_format() {
        let s = SimStats {
            committed_instructions: 12345,
            cycles: 67890.5,
            ..Default::default()
        };
        let txt = s.to_stats_txt();
        assert!(txt.starts_with("---------- Begin Simulation Statistics"));
        assert!(txt
            .trim_end()
            .ends_with("End Simulation Statistics   ----------"));
        assert!(txt.contains("sim_insts"));
        assert!(txt.contains("12345"));
        // One line per stat plus the two markers.
        assert_eq!(txt.lines().count(), s.gem5_stats_map().len() + 2);
    }

    #[test]
    fn class_counts_total() {
        let c = ClassCounts {
            int_alu: 10,
            loads: 5,
            branches: 3,
            returns: 1,
            calls: 1,
            ..Default::default()
        };
        assert_eq!(c.total(), 20);
        assert_eq!(c.all_branches(), 5);
        assert_eq!(c.int_dp(), 10);
    }

    #[test]
    fn ipc_and_rate() {
        let s = SimStats {
            cycles: 1000.0,
            committed_instructions: 500,
            seconds: 2.0,
            ..Default::default()
        };
        assert!((s.ipc() - 0.5).abs() < 1e-12);
        assert!((s.rate(100.0) - 50.0).abs() < 1e-12);
        let z = SimStats::default();
        assert_eq!(z.ipc(), 0.0);
        assert_eq!(z.rate(5.0), 0.0);
    }

    #[test]
    fn gem5_map_has_core_keys() {
        let map = SimStats::default().gem5_stats_map();
        for k in [
            "sim_seconds",
            "system.cpu.numCycles",
            "system.cpu.branchPred.condIncorrect",
            "system.cpu.itb.misses",
            "system.cpu.dcache.writebacks",
            "system.l2.prefetches",
            "system.mem_ctrls.num_reads",
        ] {
            assert!(map.contains_key(k), "missing {k}");
        }
    }

    #[test]
    fn walker_cache_stats_only_when_split() {
        let mut s = SimStats {
            split_l2_tlb: false,
            ..Default::default()
        };
        assert!(!s
            .gem5_stats_map()
            .contains_key("system.cpu.itb_walker_cache.overall_accesses"));
        assert!(s
            .gem5_stats_map()
            .contains_key("system.cpu.l2tlb.overall_accesses"));
        s.split_l2_tlb = true;
        assert!(s
            .gem5_stats_map()
            .contains_key("system.cpu.itb_walker_cache.overall_accesses"));
        assert!(!s
            .gem5_stats_map()
            .contains_key("system.cpu.l2tlb.overall_accesses"));
    }

    #[test]
    fn stall_total_is_sum() {
        let s = StallCycles {
            mispredict: 1.0,
            fetch: 2.0,
            fetch_tlb: 3.0,
            memory: 4.0,
            data_tlb: 5.0,
            serialization: 6.0,
            execute: 7.0,
        };
        assert!((s.total() - 28.0).abs() < 1e-12);
    }
}
