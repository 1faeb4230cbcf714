//! End-to-end observability: a real simulation with the obs layer enabled
//! must surface canonical registry metrics, span events, and well-formed
//! exporter output — the same path `gemstone report --metrics/--trace`
//! exercises.

use gemstone::core::checkpoint::CollectCheckpoint;
use gemstone::core::resilience::{collect_resilient, ResilienceOptions};
use gemstone::platform::fault::FaultInjector;
use gemstone::platform::simcache::SimCache;
use gemstone::prelude::*;
use gemstone::uarch::backend::TierConfig;
use gemstone::workloads::spec::WorkloadSpec;
use gemstone_obs::profile::{Journal, SpanTree};
use gemstone_obs::{export, Registry, SpanEvent, SpanLog};
use std::sync::Arc;

#[test]
fn metrics_spans_and_exporters_flow_end_to_end() {
    gemstone_obs::set_enabled(true);

    let cache = SimCache::global();
    let spec = suites::by_name("mi-sha").unwrap().scaled(0.02);
    let run = Gem5Sim::run(
        &cache,
        &spec,
        Gem5Model::Ex5BigOld,
        1.0e9,
        TierConfig::default(),
    );
    assert!(run.stats.committed_instructions > 0);
    // 1 GHz is a DVFS point, so that run filled the model's column under
    // a fused grid span; 1.6 GHz is off the column and replays one lane
    // under the tier's `engine.run` span.
    let lone = Gem5Sim::run(
        &cache,
        &spec,
        Gem5Model::Ex5BigOld,
        1.6e9,
        TierConfig::default(),
    );
    assert_eq!(
        lone.stats.committed_instructions,
        run.stats.committed_instructions
    );

    // Canonical counters exist and counted the run. The registry handles
    // are the *same* atomics the caches bump, so these equalities prove
    // the wiring, not just the arithmetic.
    let registry = Registry::global();
    assert!(registry.counter("engine.runs").get() >= 1);
    assert!(registry.counter("engine.instructions").get() >= run.stats.committed_instructions);
    assert_eq!(registry.counter("simcache.hits").get(), cache.hits());
    assert_eq!(registry.counter("simcache.misses").get(), cache.misses());
    assert!(cache.misses() >= 1, "a cold run must miss the memo");
    let traces = cache.trace_cache();
    assert_eq!(
        registry.counter("trace_cache.misses").get(),
        traces.misses()
    );
    assert!(traces.misses() >= 1, "a cold run must generate its trace");

    // The engine recorded a span, and manual nesting is tracked per thread.
    {
        let _outer = gemstone_obs::span::span("test.outer");
        let _inner = gemstone_obs::span::span("test.inner");
    }
    let events = SpanLog::global().snapshot();
    assert!(events.iter().any(|e| e.name.as_ref() == "engine.run"));
    assert!(events.iter().any(|e| e.name.as_ref() == "engine.run.grid"));
    let outer = events
        .iter()
        .find(|e| e.name.as_ref() == "test.outer")
        .unwrap();
    let inner = events
        .iter()
        .find(|e| e.name.as_ref() == "test.inner")
        .unwrap();
    assert_eq!(inner.depth, outer.depth + 1);
    assert_eq!(inner.tid, outer.tid);
    assert!(inner.start_us >= outer.start_us);
    assert!(inner.start_us + inner.dur_us <= outer.start_us + outer.dur_us);

    // Prometheus text format carries the canonical names (sanitized),
    // including the derived quantile gauges every histogram exports.
    let prom = export::prometheus(registry);
    for needle in [
        "# TYPE",
        "simcache_hits",
        "simcache_misses",
        "trace_cache_misses",
        "engine_runs",
        "engine_instructions",
        "span_engine_run_seconds",
        "sim_run_seconds_p50",
        "sim_run_seconds_p95",
        "sim_run_seconds_p99",
        "simcache_lookup_seconds_p50",
    ] {
        assert!(prom.contains(needle), "prometheus dump missing {needle}");
    }

    // The same quantiles are available programmatically from the snapshot.
    let snap = registry.snapshot();
    let sim_run = snap
        .iter()
        .find(|s| s.name == "sim.run.seconds")
        .expect("sim.run.seconds histogram registered");
    let p50 = sim_run.value.quantile(0.5).expect("non-empty histogram");
    let p99 = sim_run.value.quantile(0.99).expect("non-empty histogram");
    assert!(p50 > 0.0 && p99 >= p50, "quantiles ordered: {p50} vs {p99}");

    // Chrome trace and JSONL exports carry the span.
    let trace = export::chrome_trace(&events);
    assert!(trace.contains("\"traceEvents\""));
    assert!(trace.contains("engine.run"));
    let jsonl = export::jsonl(registry, &events);
    assert!(jsonl.lines().count() >= events.len());
    for line in jsonl.lines() {
        assert!(
            line.starts_with('{') && line.ends_with('}'),
            "bad jsonl: {line}"
        );
    }
}

fn attr<'a>(event: &'a SpanEvent, key: &str) -> Option<&'a str> {
    event
        .attrs
        .iter()
        .find(|(k, _)| k.as_ref() == key)
        .map(|(_, v)| v.as_str())
}

#[test]
fn resumed_resilient_sweep_journals_one_workload_span_per_pending_workload() {
    gemstone_obs::set_enabled(true);
    let cfg = ExperimentConfig {
        workload_scale: 0.02,
        clusters: vec![Cluster::BigA15],
        models: vec![Gem5Model::Ex5BigOld],
        threads: 2,
        ..ExperimentConfig::default()
    };
    let workloads: Vec<WorkloadSpec> = ["mi-sha", "mi-crc32", "mi-fft"]
        .iter()
        .map(|n| suites::by_name(n).unwrap().scaled(0.02))
        .collect();
    let dir = std::env::temp_dir().join(format!("gemstone-obs-sweep-{}", std::process::id()));
    let path = dir.join("ck.json");
    let mut opts = ResilienceOptions {
        faults: Arc::new(FaultInjector::disabled()),
        checkpoint: Some(path.clone()),
        min_coverage: 1.0,
        ..ResilienceOptions::default()
    };
    collect_resilient(&cfg, workloads.clone(), &opts).unwrap();
    // Keep one workload settled, so the resumed sweep has two pending.
    let mut ck = CollectCheckpoint::load(&path).unwrap();
    ck.completed.retain(|name, _| name == "mi-sha");
    ck.save(&path).unwrap();
    opts.resume = true;

    // Span ids are handed out in open order, so every span the resumed
    // sweep opens has a larger id than this marker.
    let marker = gemstone_obs::span::span("test.marker").id();
    let outcome = collect_resilient(&cfg, workloads, &opts).unwrap();
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(outcome.coverage.resumed, 1);
    let snapshot = SpanLog::global().snapshot();
    let marker_tid = snapshot.iter().find(|e| e.id == marker).unwrap().tid;
    let events: Vec<SpanEvent> = snapshot.into_iter().filter(|e| e.id > marker).collect();
    let journal = Journal::parse(&export::jsonl(Registry::global(), &events)).unwrap();
    let tree = SpanTree::build(&journal.events);

    // Tests share the span log: the sweep root is the one opened on this
    // thread; its workers' spans join it by parent id.
    let sweeps: Vec<_> = tree
        .roots
        .iter()
        .map(|&i| &tree.nodes[i])
        .filter(|n| n.event.name.as_ref() == "experiment.sweep" && n.event.tid == marker_tid)
        .collect();
    assert_eq!(sweeps.len(), 1, "one sweep root");
    let sweep = &sweeps[0].event;
    let tier = cfg.fidelity.fidelity.name();
    assert_eq!(attr(sweep, "workloads"), Some("2"));
    assert_eq!(attr(sweep, "threads"), Some("2"));
    assert_eq!(attr(sweep, "tier"), Some(tier));
    let mut pending: Vec<&str> = sweeps[0]
        .children
        .iter()
        .map(|&c| &tree.nodes[c].event)
        .filter(|e| e.name.as_ref() == "experiment.workload")
        .map(|e| {
            assert_eq!(attr(e, "tier"), Some(tier));
            attr(e, "workload").unwrap()
        })
        .collect();
    pending.sort_unstable();
    assert_eq!(pending, ["mi-crc32", "mi-fft"]);
}
