//! Cross-crate integration tests for the multi-fidelity execution tiers:
//! the sampled tier must track the approx reference within its stated
//! error bound through the full `Gem5Sim` path, the atomic tier must
//! reproduce the approx architectural counts exactly, and a tier-aware
//! validation sweep must land on (nearly) the same MAPE as the reference.

use gemstone::core::analysis::summary;
use gemstone::platform::simcache::SimCache;
use gemstone::prelude::*;
use gemstone::uarch::backend::{Fidelity, SampleParams, TierConfig};

fn sampled_tier() -> TierConfig {
    // Denser sampling than the production default: the suite traces here
    // are short (tens of thousands of instructions at scale 0.3), so the
    // default interval of 2000 yields only ~30 windows and the CPI
    // estimate's confidence interval is wider than the 5 % acceptance
    // bound. A 600-instruction period keeps ~100 windows per workload,
    // which pins the statistical error well inside the bound while still
    // exercising the fast-forward/warm/measure machinery.
    TierConfig {
        fidelity: Fidelity::Sampled,
        sample: SampleParams {
            interval: 600,
            window: 150,
            warmup: 250,
        },
    }
}

fn atomic_tier() -> TierConfig {
    TierConfig {
        fidelity: Fidelity::Atomic,
        ..TierConfig::default()
    }
}

/// Relative difference of `b` vs reference `a`, in percent.
fn rel_pct(a: f64, b: f64) -> f64 {
    if a == 0.0 {
        0.0
    } else {
        ((b - a) / a * 100.0).abs()
    }
}

#[test]
fn sampled_ipc_within_bound_across_validation_suite() {
    let cache = SimCache::global();
    let model = Gem5Model::Ex5BigOld;
    // Scale 0.5 keeps the suite fast while leaving every workload enough
    // sampling periods for the CPI estimate to settle; tiny streams with a
    // handful of windows carry no statistical weight.
    for spec in suites::validation_suite().iter().map(|w| w.scaled(0.5)) {
        let approx = Gem5Sim::run(&cache, &spec, model, 1.0e9, TierConfig::default());
        let sampled = Gem5Sim::run(&cache, &spec, model, 1.0e9, sampled_tier());

        // Committed architectural counts are exact regardless of tier.
        assert_eq!(
            approx.stats.committed_instructions, sampled.stats.committed_instructions,
            "{}: committed counts must not be estimated",
            spec.name
        );
        assert_eq!(sampled.stats.fidelity, Fidelity::Sampled);
        let meta = sampled
            .stats
            .sample
            .as_ref()
            .expect("sampled run carries sampling evidence");
        assert!(meta.windows > 0, "{}: no measurement windows", spec.name);
        assert!(meta.coverage > 0.0 && meta.coverage <= 1.0);

        // The acceptance bound: sampled IPC within 5 % of the reference.
        let err = rel_pct(approx.stats.ipc(), sampled.stats.ipc());
        assert!(
            err <= 5.0,
            "{}: sampled IPC off by {err:.2} % (approx {:.4}, sampled {:.4}, {} windows)",
            spec.name,
            approx.stats.ipc(),
            sampled.stats.ipc(),
            meta.windows
        );
    }
}

#[test]
fn sampled_error_bound_holds_across_frequency_grid() {
    let cache = SimCache::global();
    let model = Gem5Model::Ex5BigOld;
    let workloads = ["mi-fft", "dhry-dhrystone", "parsec-canneal-4"];
    for name in workloads {
        let spec = suites::by_name(name).expect("suite workload").scaled(0.3);
        for freq in [0.8e9, 1.0e9, 1.4e9, 1.8e9] {
            let approx = Gem5Sim::run(&cache, &spec, model, freq, TierConfig::default());
            let sampled = Gem5Sim::run(&cache, &spec, model, freq, sampled_tier());

            let ipc_err = rel_pct(approx.stats.ipc(), sampled.stats.ipc());
            assert!(
                ipc_err <= 5.0,
                "{name} @ {freq:.1e} Hz: IPC error {ipc_err:.2} %"
            );

            // L1D MPKI: scaled event counts must stay near the reference.
            // Tiny miss totals make relative error noisy, so allow the
            // larger of 15 % relative or 1 MPKI absolute.
            let instr = approx.stats.committed_instructions.max(1) as f64;
            let mpki_a = approx.stats.l1d.misses as f64 * 1000.0 / instr;
            let mpki_s = sampled.stats.l1d.misses as f64 * 1000.0 / instr;
            let tol = (0.15 * mpki_a).max(1.0);
            assert!(
                (mpki_a - mpki_s).abs() <= tol,
                "{name} @ {freq:.1e} Hz: L1D MPKI {mpki_s:.3} vs {mpki_a:.3}"
            );
        }
    }
}

#[test]
fn atomic_tier_reproduces_approx_architectural_counts() {
    let cache = SimCache::global();
    let model = Gem5Model::Ex5BigOld;
    for name in ["mi-sha", "mi-bitcount", "par-dijkstra"] {
        let spec = suites::by_name(name).expect("suite workload").scaled(0.2);
        let approx = Gem5Sim::run(&cache, &spec, model, 1.0e9, TierConfig::default());
        let atomic = Gem5Sim::run(&cache, &spec, model, 1.0e9, atomic_tier());

        assert_eq!(atomic.stats.fidelity, Fidelity::Atomic);
        assert_eq!(
            atomic.stats.committed_instructions,
            approx.stats.committed_instructions
        );
        // Bit-identical committed class counts: the atomic tier counts the
        // same architectural stream, it just skips the timing model.
        assert_eq!(
            format!("{:?}", atomic.stats.committed),
            format!("{:?}", approx.stats.committed),
            "{name}: atomic committed-class counts diverge from approx"
        );
        // The atomic tier reports no stall breakdown and no sampling meta.
        assert!(atomic.stats.sample.is_none());
    }
}

#[test]
fn sampled_validation_sweep_mape_close_to_approx() {
    let base = ExperimentConfig {
        workload_scale: 0.05,
        clusters: vec![Cluster::BigA15],
        models: vec![Gem5Model::Ex5BigOld],
        ..ExperimentConfig::default()
    };
    let mape_at = |tier: TierConfig| {
        let cfg = ExperimentConfig {
            fidelity: tier,
            ..base.clone()
        };
        let collated = Collated::build(&run_validation(&cfg));
        let s = summary::analyse(&collated).expect("summary");
        s.at(Gem5Model::Ex5BigOld, 1.0e9).expect("summary row").mape
    };

    let approx = mape_at(TierConfig::default());
    let sampled = mape_at(sampled_tier());
    // Per-workload IPC stays within 5 %, so the sweep-level MAPE against
    // the simulated hardware may move by at most a few points.
    assert!(
        (approx - sampled).abs() <= 5.0,
        "validation MAPE moved too far: approx {approx:.2} % vs sampled {sampled:.2} %"
    );
}
