//! End-to-end observability: a real simulation with the obs layer enabled
//! must surface canonical registry metrics, span events, and well-formed
//! exporter output — the same path `gemstone report --metrics/--trace`
//! exercises.

use gemstone::platform::simcache::SimCache;
use gemstone::prelude::*;
use gemstone_obs::{export, Registry, SpanLog};

#[test]
fn metrics_spans_and_exporters_flow_end_to_end() {
    gemstone_obs::set_enabled(true);

    let spec = suites::by_name("mi-sha").unwrap().scaled(0.02);
    let run = Gem5Sim::run(&spec, Gem5Model::Ex5BigOld, 1.0e9);
    assert!(run.stats.committed_instructions > 0);

    // Canonical counters exist and counted the run. The registry handles
    // are the *same* atomics the caches bump, so these equalities prove
    // the wiring, not just the arithmetic.
    let registry = Registry::global();
    assert!(registry.counter("engine.runs").get() >= 1);
    assert!(registry.counter("engine.instructions").get() >= run.stats.committed_instructions);
    let cache = SimCache::global();
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
