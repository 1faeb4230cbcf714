//! Core configuration presets: the ground-truth Cortex-A7/A15 (the
//! "hardware") and the gem5 `ex5_LITTLE`/`ex5_big` models with the
//! specification errors documented in the paper (see DESIGN.md §6 for the
//! full error inventory and the paper evidence for each).
//!
//! | error | hardware truth | `ex5_big` model |
//! |---|---|---|
//! | branch predictor | tournament | gshare with stale-history bug (old) |
//! | L1 ITLB | 32-entry | 64-entry |
//! | L2 TLB | unified 512e 4-way, 2 cycles | split 128e 8-way, 4 cycles |
//! | DRAM latency | ~100 ns | ~70 ns |
//! | L2 prefetcher | degree 1 | degree 4 |
//! | writeback events | per line | per word (≈16×) |
//! | write refills | faithful | ~10× over-counted |
//! | L1I access events | per fetch group | per instruction |
//! | VFP events | `VFP_SPEC` | counted as SIMD |
//! | barrier/IPC cost | full | under-modelled |
//!
//! # Examples
//!
//! ```
//! use gemstone_uarch::configs::{cortex_a15_hw, ex5_big, Ex5Variant};
//!
//! let hw = cortex_a15_hw();
//! let model = ex5_big(Ex5Variant::Old);
//! assert_ne!(hw.itlb.entries, model.itlb.entries); // the §IV-F spec error
//! ```

use crate::cache::{CacheConfig, PrefetcherConfig, WritebackAccounting};
use crate::core::{
    BranchPredictorKind, CoreConfig, CoreKind, L2TlbKind, OpLatencies, StallFactors,
};
use crate::memory::DramConfig;
use crate::tlb::TlbConfig;

/// Which revision of the `ex5_big` model to build (§VII of the paper: a
/// later gem5 version fixed the branch-predictor bug, swinging the MPE from
/// −51 % to +10 %).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ex5Variant {
    /// The old model with the branch-predictor bug.
    Old,
    /// The model after the BP bug fix (all other errors remain).
    Fixed,
}

/// Ground-truth Cortex-A15 (the ODROID-XU3 "big" cluster).
pub fn cortex_a15_hw() -> CoreConfig {
    CoreConfig {
        name: "hw-cortex-a15".to_string(),
        kind: CoreKind::OutOfOrder,
        width: 3,
        issue_efficiency: 0.85,
        pipeline_depth: 15,
        fetch_group_size: 2,
        bp: BranchPredictorKind::Tournament {
            local_entries: 2048,
            global_entries: 8192,
            history_bits: 12,
        },
        btb_entries: 2048,
        ras_entries: 32,
        indirect_entries: 512,
        itlb: TlbConfig {
            entries: 32,
            ways: 32,
        },
        dtlb: TlbConfig {
            entries: 32,
            ways: 32,
        },
        l2tlb: L2TlbKind::Unified {
            cfg: TlbConfig {
                entries: 512,
                ways: 4,
            },
            latency: 2,
            walk_latency: 40,
        },
        l1i: CacheConfig::new(32 * 1024, 2, 64, 1),
        l1d: CacheConfig::new(32 * 1024, 2, 64, 2),
        l2: CacheConfig::new(2 * 1024 * 1024, 16, 64, 12),
        prefetch: PrefetcherConfig { degree: 1 },
        dram: DramConfig::new(100.0),
        op_extra: OpLatencies {
            int_mul: 2.0,
            int_div: 10.0,
            fp_alu: 1.5,
            fp_div: 14.0,
            simd: 1.5,
        },
        stall: StallFactors {
            frontend: 0.8,
            load: 0.35,
            store: 0.1,
            dtlb: 0.8,
            execute: 0.4,
        },
        barrier_cost: 20.0,
        barrier_sync_factor: 1.0,
        exclusive_cost: 12.0,
        snoop_cost: 40.0,
        coherence_miss_prob: 0.15,
        strex_fail_rate: 0.02,
        wrong_path_depth: 12,
        itlb_flush_interval: Some(3000),
        fp_counted_as_simd: false,
    }
}

/// Ground-truth Cortex-A7 (the "LITTLE" cluster): narrow, in-order,
/// shallow, with a small micro-TLB.
pub fn cortex_a7_hw() -> CoreConfig {
    CoreConfig {
        name: "hw-cortex-a7".to_string(),
        kind: CoreKind::InOrder,
        width: 2,
        issue_efficiency: 0.6,
        pipeline_depth: 8,
        fetch_group_size: 2,
        bp: BranchPredictorKind::Gshare {
            entries: 1024,
            history_bits: 8,
            stale_history_bug: false,
        },
        btb_entries: 256,
        ras_entries: 8,
        indirect_entries: 128,
        itlb: TlbConfig {
            entries: 10,
            ways: 10,
        },
        dtlb: TlbConfig {
            entries: 10,
            ways: 10,
        },
        l2tlb: L2TlbKind::Unified {
            cfg: TlbConfig {
                entries: 256,
                ways: 2,
            },
            latency: 2,
            walk_latency: 60,
        },
        l1i: CacheConfig::new(32 * 1024, 2, 64, 1),
        l1d: CacheConfig::new(32 * 1024, 4, 64, 3),
        l2: CacheConfig::new(512 * 1024, 8, 64, 9),
        prefetch: PrefetcherConfig { degree: 1 },
        dram: DramConfig::new(110.0),
        op_extra: OpLatencies {
            int_mul: 3.0,
            int_div: 18.0,
            fp_alu: 3.0,
            fp_div: 25.0,
            simd: 3.0,
        },
        stall: StallFactors {
            frontend: 1.0,
            load: 0.8,
            store: 0.4,
            dtlb: 1.0,
            execute: 0.9,
        },
        barrier_cost: 15.0,
        barrier_sync_factor: 0.8,
        exclusive_cost: 10.0,
        snoop_cost: 35.0,
        coherence_miss_prob: 0.15,
        strex_fail_rate: 0.02,
        wrong_path_depth: 4,
        itlb_flush_interval: Some(3000),
        fp_counted_as_simd: false,
    }
}

/// The gem5 `ex5_big.py` model (Cortex-A15), with the paper's specification
/// errors. `variant` selects the branch predictor before/after the §VII bug
/// fix.
pub fn ex5_big(variant: Ex5Variant) -> CoreConfig {
    let mut cfg = cortex_a15_hw();
    cfg.name = match variant {
        Ex5Variant::Old => "ex5_big(old)".to_string(),
        Ex5Variant::Fixed => "ex5_big(fixed)".to_string(),
    };
    cfg.bp = match variant {
        Ex5Variant::Old => BranchPredictorKind::Gshare {
            entries: 4096,
            history_bits: 12,
            stale_history_bug: true,
        },
        Ex5Variant::Fixed => BranchPredictorKind::Tournament {
            local_entries: 2048,
            global_entries: 8192,
            history_bits: 12,
        },
    };
    // §IV-F: 64-entry L1 ITLB where the hardware has 32.
    cfg.itlb = TlbConfig {
        entries: 64,
        ways: 64,
    };
    cfg.dtlb = TlbConfig {
        entries: 64,
        ways: 64,
    };
    // §IV-F: two separate 1 KB 8-way walker caches at 4-cycle latency.
    cfg.l2tlb = L2TlbKind::Split {
        cfg: TlbConfig {
            entries: 128,
            ways: 8,
        },
        latency: 4,
        walk_latency: 56,
    };
    // §IV-A / Fig. 4: DRAM latency too low.
    cfg.dram = DramConfig::new(60.0);
    // §IV-E: over-aggressive prefetching.
    cfg.prefetch = PrefetcherConfig { degree: 4 };
    // Fig. 6: 19× writebacks, 9.9× write refills — accounting distortions.
    cfg.l1d = cfg
        .l1d
        .with_writeback_accounting(WritebackAccounting::PerWord)
        .with_refill_write_overcount(10);
    // §IV-E: L1I accessed for every instruction.
    cfg.fetch_group_size = 1;
    // gem5 SE mode: no OS interrupts, no context-synchronisation flushes.
    cfg.itlb_flush_interval = None;
    // §V: VFP ops misclassified as SIMD.
    cfg.fp_counted_as_simd = true;
    // §IV-B: inter-process communication cost too low in the model.
    cfg.barrier_cost = 5.0;
    cfg.barrier_sync_factor = 0.3;
    cfg.exclusive_cost = 5.0;
    cfg.snoop_cost = 20.0;
    // The old model's BP bug also corrupted squash recovery: the front end
    // ran far down the wrong path and the refetch penalty was inflated.
    // The fix restored normal recovery alongside the predictor itself.
    match variant {
        Ex5Variant::Old => {
            cfg.wrong_path_depth = 56;
            cfg.pipeline_depth = 30;
        }
        Ex5Variant::Fixed => {
            cfg.wrong_path_depth = 16;
            cfg.pipeline_depth = 15;
        }
    }
    // The model's idealised scheduling issues closer to full width than
    // real silicon.
    cfg.issue_efficiency = 0.93;
    cfg
}

/// The gem5 `ex5_LITTLE.py` model (Cortex-A7). Carries the same family of
/// specification errors as `ex5_big` apart from the branch-predictor bug
/// (the paper's A7 model is much closer to hardware: MAPE ≈ 20 %,
/// MPE ≈ +8.5 % at 1 GHz).
pub fn ex5_little() -> CoreConfig {
    let mut cfg = cortex_a7_hw();
    cfg.name = "ex5_LITTLE".to_string();
    // Over-sized L1 TLBs, split walker caches.
    cfg.itlb = TlbConfig {
        entries: 64,
        ways: 64,
    };
    cfg.dtlb = TlbConfig {
        entries: 64,
        ways: 64,
    };
    cfg.l2tlb = L2TlbKind::Split {
        cfg: TlbConfig {
            entries: 128,
            ways: 4,
        },
        latency: 4,
        walk_latency: 60,
    };
    // DRAM latency too low (same memory model as ex5_big).
    cfg.dram = DramConfig::new(70.0);
    // Fig. 4: the model's Cortex-A7 L2 latency is too HIGH.
    cfg.l2 = CacheConfig::new(512 * 1024, 8, 64, 21);
    cfg.prefetch = PrefetcherConfig { degree: 4 };
    cfg.l1d = cfg
        .l1d
        .with_writeback_accounting(WritebackAccounting::PerWord)
        .with_refill_write_overcount(10);
    cfg.fetch_group_size = 1;
    cfg.fp_counted_as_simd = true;
    cfg.barrier_cost = 8.0;
    cfg.barrier_sync_factor = 0.3;
    cfg.exclusive_cost = 6.0;
    cfg.snoop_cost = 20.0;
    cfg
}

/// One documented specification error of the `ex5_big` model, with a
/// function that reverts just that error to the hardware truth — the basis
/// for ablation studies ("It is … necessary to address the most significant
/// sources of error first", §IV-F).
pub struct SpecError {
    /// Short identifier (e.g. `"branch-predictor"`).
    pub name: &'static str,
    /// What the paper says about it.
    pub description: &'static str,
    /// Reverts this error in a model configuration to the truth value.
    pub revert: fn(&mut CoreConfig),
}

impl std::fmt::Debug for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpecError")
            .field("name", &self.name)
            .finish()
    }
}

/// The catalogue of `ex5_big` specification errors (DESIGN.md §6), each
/// individually revertible against [`cortex_a15_hw`]'s truth values.
pub fn ex5_big_spec_errors() -> Vec<SpecError> {
    vec![
        SpecError {
            name: "branch-predictor",
            description: "stale-history BP bug + corrupted squash recovery (§IV-E, §VII)",
            revert: |cfg| {
                let truth = cortex_a15_hw();
                cfg.bp = truth.bp;
                cfg.pipeline_depth = truth.pipeline_depth;
                cfg.wrong_path_depth = truth.wrong_path_depth;
            },
        },
        SpecError {
            name: "l1-itlb-size",
            description: "64-entry L1 I/D TLBs where the hardware has 32 (§IV-F)",
            revert: |cfg| {
                let truth = cortex_a15_hw();
                cfg.itlb = truth.itlb;
                cfg.dtlb = truth.dtlb;
            },
        },
        SpecError {
            name: "split-l2-tlb",
            description: "split 4-cycle walker caches vs unified 2-cycle L2 TLB (§IV-F)",
            revert: |cfg| cfg.l2tlb = cortex_a15_hw().l2tlb,
        },
        SpecError {
            name: "dram-latency",
            description: "DRAM latency too low (§IV-A, Fig. 4)",
            revert: |cfg| cfg.dram = cortex_a15_hw().dram,
        },
        SpecError {
            name: "prefetcher",
            description: "over-aggressive L2 prefetching (§IV-E)",
            revert: |cfg| cfg.prefetch = cortex_a15_hw().prefetch,
        },
        SpecError {
            name: "event-accounting",
            description: "per-word writebacks, over-counted write refills, per-instruction L1I, VFP-as-SIMD (Fig. 6, §V)",
            revert: |cfg| {
                let truth = cortex_a15_hw();
                cfg.l1d = truth.l1d;
                cfg.fetch_group_size = truth.fetch_group_size;
                cfg.fp_counted_as_simd = truth.fp_counted_as_simd;
            },
        },
        SpecError {
            name: "synchronisation-cost",
            description: "barrier/exclusive/snoop costs too low (§IV-B)",
            revert: |cfg| {
                let truth = cortex_a15_hw();
                cfg.barrier_cost = truth.barrier_cost;
                cfg.barrier_sync_factor = truth.barrier_sync_factor;
                cfg.exclusive_cost = truth.exclusive_cost;
                cfg.snoop_cost = truth.snoop_cost;
            },
        },
        SpecError {
            name: "scheduler-optimism",
            description: "idealised issue width (model scheduling optimism)",
            revert: |cfg| cfg.issue_efficiency = cortex_a15_hw().issue_efficiency,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_error_catalogue_reverts_to_truth() {
        let truth = cortex_a15_hw();
        // Reverting every error yields a model structurally equal to the
        // hardware truth (apart from the name and the gem5-only OS-noise
        // setting, which is not a model parameter).
        let mut cfg = ex5_big(Ex5Variant::Old);
        for e in ex5_big_spec_errors() {
            (e.revert)(&mut cfg);
        }
        assert_eq!(cfg.bp, truth.bp);
        assert_eq!(cfg.itlb, truth.itlb);
        assert_eq!(cfg.l2tlb, truth.l2tlb);
        assert_eq!(cfg.dram, truth.dram);
        assert_eq!(cfg.prefetch.degree, truth.prefetch.degree);
        assert_eq!(cfg.l1d, truth.l1d);
        assert_eq!(cfg.fetch_group_size, truth.fetch_group_size);
        assert_eq!(cfg.barrier_cost, truth.barrier_cost);
        assert_eq!(cfg.issue_efficiency, truth.issue_efficiency);
        assert_eq!(cfg.pipeline_depth, truth.pipeline_depth);
    }

    #[test]
    fn spec_errors_are_individually_revertible() {
        for e in ex5_big_spec_errors() {
            let mut cfg = ex5_big(Ex5Variant::Old);
            (e.revert)(&mut cfg);
            // At least one other error remains: the config is not the truth.
            let truth = cortex_a15_hw();
            let still_model = cfg.dram != truth.dram
                || cfg.itlb != truth.itlb
                || !matches!(cfg.bp, BranchPredictorKind::Tournament { .. })
                || cfg.l1d != truth.l1d;
            assert!(still_model, "{} reverted too much", e.name);
            assert!(!e.name.is_empty() && !e.description.is_empty());
        }
    }

    #[test]
    fn hw_and_model_differ_where_the_paper_says() {
        let hw = cortex_a15_hw();
        let old = ex5_big(Ex5Variant::Old);
        assert_eq!(hw.itlb.entries, 32);
        assert_eq!(old.itlb.entries, 64);
        assert!(matches!(hw.l2tlb, L2TlbKind::Unified { .. }));
        assert!(matches!(old.l2tlb, L2TlbKind::Split { latency: 4, .. }));
        assert!(old.dram.latency_ns < hw.dram.latency_ns);
        assert!(old.prefetch.degree > hw.prefetch.degree);
        assert_eq!(old.l1d.writeback_accounting, WritebackAccounting::PerWord);
        assert_eq!(hw.l1d.writeback_accounting, WritebackAccounting::PerLine);
        assert!(old.fp_counted_as_simd);
        assert!(!hw.fp_counted_as_simd);
        assert!(old.barrier_cost < hw.barrier_cost);
    }

    #[test]
    fn fixed_variant_only_changes_the_bp() {
        let old = ex5_big(Ex5Variant::Old);
        let fixed = ex5_big(Ex5Variant::Fixed);
        assert!(matches!(
            old.bp,
            BranchPredictorKind::Gshare {
                stale_history_bug: true,
                ..
            }
        ));
        assert!(matches!(fixed.bp, BranchPredictorKind::Tournament { .. }));
        // Everything else identical.
        assert_eq!(old.itlb, fixed.itlb);
        assert_eq!(old.dram, fixed.dram);
        assert_eq!(old.l1d, fixed.l1d);
        assert_eq!(old.barrier_cost, fixed.barrier_cost);
    }

    #[test]
    fn little_model_l2_latency_too_high() {
        let hw = cortex_a7_hw();
        let model = ex5_little();
        assert!(model.l2.latency > hw.l2.latency);
        assert!(model.dram.latency_ns < hw.dram.latency_ns);
        assert_eq!(hw.kind, CoreKind::InOrder);
    }

    #[test]
    fn a7_is_narrower_and_shallower_than_a15() {
        let a7 = cortex_a7_hw();
        let a15 = cortex_a15_hw();
        assert!(a7.width < a15.width);
        assert!(a7.pipeline_depth < a15.pipeline_depth);
        assert!(a7.l2.size_bytes < a15.l2.size_bytes);
        assert_eq!(a15.kind, CoreKind::OutOfOrder);
    }
}
