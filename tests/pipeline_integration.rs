//! Cross-crate integration test: the full GemStone pipeline, end to end,
//! on a reduced workload scale, asserting the paper's headline shapes.

use gemstone::prelude::*;

#[test]
fn full_pipeline_reproduces_headline_shapes() {
    let mut opts = gemstone::core::pipeline::PipelineOptions::default();
    opts.experiment.workload_scale = 0.15;
    opts.with_power = false;
    opts.clusters_k = Some(12);
    let report = GemStone::new(opts).run().expect("pipeline");

    // §IV: the old big model overestimates execution time…
    let old = report
        .summary
        .at(Gem5Model::Ex5BigOld, 1.0e9)
        .expect("old model row");
    assert!(old.mpe < -20.0, "old MPE = {}", old.mpe);
    assert!(old.mape > 25.0, "old MAPE = {}", old.mape);

    // …the LITTLE model underestimates it…
    let little = report
        .summary
        .at(Gem5Model::Ex5Little, 1.0e9)
        .expect("little row");
    assert!(little.mpe > 0.0, "little MPE = {}", little.mpe);
    assert!(little.mape < old.mape, "little should be far better");

    // §VII: the fix swings the sign.
    assert!(report.improvement.old.time_mpe < 0.0);
    assert!(report.improvement.fixed.time_mpe > 0.0);
    assert!(report.improvement.fixed.time_mape < report.improvement.old.time_mape);

    // §IV-E: the accuracy gap.
    assert!(report.event_compare.hw_bp_accuracy > report.event_compare.gem5_bp_accuracy + 0.05);

    // Fig. 3: error follows workload type.
    assert!(report.clusters.within_cluster_spread() < report.clusters.overall_spread());

    // §IV-D: the error is predictable from events.
    assert!(report.error_reg_gem5.r_squared > 0.55);

    // Rendering works and mentions every section.
    let text = report.render();
    for needle in ["§IV", "Fig. 3", "Fig. 5", "Fig. 6", "§VII"] {
        assert!(text.contains(needle), "report missing {needle}");
    }
}

#[test]
fn per_frequency_trend_is_monotone_positive() {
    // E12: the model's too-low DRAM latency flatters it more at higher
    // frequency, so the MPE rises with frequency.
    let cfg = ExperimentConfig {
        workload_scale: 0.05,
        clusters: vec![Cluster::BigA15],
        models: vec![Gem5Model::Ex5BigOld],
        ..Default::default()
    };
    let data = run_validation(&cfg);
    let collated = Collated::build(&data);
    let s = gemstone::core::analysis::summary::analyse(&collated).expect("summary");
    let trend = s.mpe_trend(Gem5Model::Ex5BigOld);
    assert_eq!(trend.len(), 4);
    assert!(
        trend.last().unwrap().1 > trend.first().unwrap().1 + 10.0,
        "trend = {trend:?}"
    );
}

/// A reproduction generates each packed trace once — the validation
/// suite's, then the power suite's others — at any campaign tier: the
/// pipeline, E13 and every X7 iteration replay one trace per validation
/// workload. Nothing stays live once `repro::run` returns.
#[test]
fn repro_generates_each_trace_once() {
    use gemstone::core::repro;
    use gemstone::platform::simcache::SimCache;
    use gemstone::uarch::backend::TierConfig;
    use gemstone::workloads::trace::TraceCache;
    use std::collections::HashSet;
    use std::sync::Arc;

    let specs: HashSet<String> = suites::validation_suite()
        .into_iter()
        .chain(suites::power_suite())
        .map(|s| s.name)
        .collect();
    assert_eq!(specs.len(), 65, "45 validation + 20 power-only workloads");
    for fidelity in [TierConfig::default(), TierConfig::atomic()] {
        let traces = Arc::new(TraceCache::new());
        let mut experiment = ExperimentConfig {
            workload_scale: 0.005,
            fidelity,
            ..ExperimentConfig::default()
        };
        experiment.board.cache = Arc::new(SimCache::with_trace_cache(Arc::clone(&traces)));
        repro::run(experiment).expect("repro");
        assert_eq!(traces.misses(), 65, "{fidelity:?}");
        assert_eq!((traces.len(), traces.bytes()), (0, 0), "{fidelity:?}");
        assert!(traces.peak_bytes() > 0);
    }
}
