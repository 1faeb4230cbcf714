//! Grid-level determinism contract of the trace layer: for every
//! (spec, configuration, frequency) tuple, replaying a shared packed trace
//! must produce results bit-identical to the generated stream driven
//! through the backend directly — and to cold and warm `SimCache` lookups.

use gemstone_platform::simcache::{SimCache, SimOutcome};
use gemstone_uarch::backend::{Backend, TierConfig};
use gemstone_uarch::configs::{cortex_a15_hw, cortex_a7_hw, ex5_big, ex5_little, Ex5Variant};
use gemstone_uarch::core::CoreConfig;
use gemstone_workloads::gen::StreamGen;
use gemstone_workloads::spec::WorkloadSpec;
use gemstone_workloads::suites;
use gemstone_workloads::trace::TraceCache;
use std::sync::Arc;

/// The direct one-lane replay at the default tier, past the memo.
fn direct(traces: &TraceCache, cfg: &CoreConfig, spec: &WorkloadSpec, f: f64) -> SimOutcome {
    SimCache::execute_grid_with(traces, cfg, spec, &[f], TierConfig::default(), None).remove(0)
}

/// The reference: the generated stream driven through the backend
/// directly, past both caches, with the same prologue.
fn generated(cfg: &CoreConfig, spec: &WorkloadSpec, f: f64) -> SimOutcome {
    let tier = TierConfig::default();
    let mut backend = Backend::new(tier, cfg, &[f], spec.threads, spec.derived_seed());
    backend.warm_prologue(StreamGen::new(spec));
    let r = backend.run_stream(StreamGen::new(spec)).remove(0);
    SimOutcome {
        seconds: r.seconds,
        stats: r.stats,
    }
}

fn grid_configs() -> Vec<CoreConfig> {
    vec![
        cortex_a15_hw(),
        cortex_a7_hw(),
        ex5_big(Ex5Variant::Old),
        ex5_big(Ex5Variant::Fixed),
        ex5_little(),
    ]
}

#[test]
fn trace_path_equals_iterator_path_over_grid() {
    let specs: Vec<_> = [
        "mi-sha",
        "mi-fft",
        "par-basicmath-rad2deg",
        "parsec-ferret-4",
    ]
    .iter()
    .map(|n| suites::by_name(n).unwrap().scaled(0.02))
    .collect();
    let traces = TraceCache::new();
    for spec in &specs {
        let _hold = traces.hold(spec);
        for cfg in grid_configs() {
            for &freq in &[600.0e6, 1.0e9, 1.8e9] {
                let replayed = direct(&traces, &cfg, spec, freq);
                let generated = generated(&cfg, spec, freq);
                assert_eq!(
                    replayed.seconds, generated.seconds,
                    "{} / {} / {freq}",
                    spec.name, cfg.name
                );
                assert_eq!(
                    replayed.stats.gem5_stats_map(),
                    generated.stats.gem5_stats_map(),
                    "{} / {} / {freq}",
                    spec.name,
                    cfg.name
                );
            }
        }
    }
    // Each spec's grid, under its hold, generated the spec exactly once,
    // and no trace outlived its hold.
    assert_eq!(traces.misses(), specs.len() as u64);
    assert_eq!((traces.len(), traces.bytes()), (0, 0));
}

#[test]
fn cold_warm_and_direct_simcache_agree_with_traces_on() {
    let spec = suites::by_name("mi-bitcount").unwrap().scaled(0.05);
    let cfg = cortex_a15_hw();
    let tier = TierConfig::default();
    let shared = Arc::new(TraceCache::new());
    let warm_cache = SimCache::with_trace_cache(shared.clone());
    let cold = warm_cache.run_point(&cfg, &spec, None, 1.0e9, tier);
    let warm = warm_cache.run_point(&cfg, &spec, None, 1.0e9, tier);
    let traced = direct(&shared, &cfg, &spec, 1.0e9);
    let untraced = generated(&cfg, &spec, 1.0e9);
    for other in [&warm, &traced, &untraced] {
        assert_eq!(cold.seconds, other.seconds);
        assert_eq!(cold.stats.gem5_stats_map(), other.stats.gem5_stats_map());
    }
}
