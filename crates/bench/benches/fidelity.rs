//! Multi-fidelity execution tiers, written to `BENCH_fidelity.json`.
//!
//! Runs three representative workloads through each tier over the same
//! pre-encoded [`PackedTrace`] (and, for the atomic tier, its class
//! histogram, as the simulation cache replays it) so the comparison
//! isolates the execution backend, not trace generation. The pass prints the sampled tier's IPC
//! error against the approx reference, so a bench run doubles as an
//! accuracy spot-check, and records one timed run per (tier, workload)
//! against the approx tier. A second group charts the sampled tier's cost
//! against its sampling interval, relative to the default interval.

use gemstone_bench::{replay, timed, write_bench_json, BenchRecord};
use gemstone_uarch::backend::{Backend, SampleParams, TierConfig};
use gemstone_uarch::configs::{ex5_big, Ex5Variant};
use gemstone_uarch::core::{CoreConfig, SimResult};
use gemstone_workloads::suites;
use gemstone_workloads::trace::PackedTrace;

const WORKLOADS: [&str; 3] = ["mi-fft", "parsec-canneal-4", "dhry-dhrystone"];
const SEED: u64 = 7;

fn tier_configs() -> [(&'static str, TierConfig); 3] {
    [
        ("atomic", TierConfig::atomic()),
        ("approx", TierConfig::approx()),
        ("sampled", TierConfig::sampled(SampleParams::default())),
    ]
}

/// One single-frequency run of `trace` at `tier`.
fn run(trace: &PackedTrace, cfg: &CoreConfig, tier: TierConfig) -> SimResult {
    let hist = trace.class_histogram(0..trace.len());
    replay(
        trace,
        &hist,
        &mut Backend::new(tier, cfg, &[1.0e9], 1, SEED),
    )
    .remove(0)
}

/// One timed single-frequency run of `trace` at `tier`.
fn time_tier(trace: &PackedTrace, cfg: &CoreConfig, tier: TierConfig) -> f64 {
    timed(|| run(trace, cfg, tier)).1
}

fn main() {
    let cfg = ex5_big(Ex5Variant::Old);
    let mut records = Vec::new();
    for name in WORKLOADS {
        let spec = suites::by_name(name).unwrap().scaled(0.5);
        let trace = PackedTrace::from_spec(&spec);

        // Accuracy spot-check, printed once per workload: the sampled
        // tier's IPC deviation from the approx reference on this trace.
        let reference = run(&trace, &cfg, TierConfig::approx());
        let sampled = run(&trace, &cfg, TierConfig::sampled(SampleParams::default()));
        let err = (sampled.stats.ipc() - reference.stats.ipc()) / reference.stats.ipc() * 100.0;
        println!(
            "fidelity_tiers/{name}: sampled IPC error {err:+.2} % \
             ({} windows, coverage {:.0} %)",
            sampled.stats.sample.as_ref().map_or(0, |m| m.windows),
            sampled.stats.sample.as_ref().map_or(0.0, |m| m.coverage) * 100.0,
        );

        // Speedup is relative to the approx tier on the same trace (a
        // within-machine ratio, so committed baselines compare across
        // runner hardware).
        let approx_s = time_tier(&trace, &cfg, TierConfig::approx());
        for (label, tier) in tier_configs() {
            let wall_s = time_tier(&trace, &cfg, tier);
            records.push(BenchRecord::new(
                "fidelity",
                format!("{label}/{name}"),
                wall_s,
                approx_s / wall_s.max(1e-9),
            ));
        }
    }

    // Sampled-tier cost as a function of coverage: the detailed fraction
    // is the knob users turn, so chart how run time scales with it.
    let trace = PackedTrace::from_spec(&suites::by_name("mi-fft").unwrap().scaled(0.5));
    let sampled = |interval| {
        TierConfig::sampled(SampleParams {
            interval,
            ..SampleParams::default()
        })
    };
    let default_s = time_tier(&trace, &cfg, sampled(2_000));
    for (label, interval) in [("dense", 1_000_u64), ("default", 2_000), ("sparse", 8_000)] {
        let wall_s = time_tier(&trace, &cfg, sampled(interval));
        records.push(BenchRecord::new(
            "fidelity",
            format!("sampled_coverage/{label}"),
            wall_s,
            default_s / wall_s.max(1e-9),
        ));
    }
    write_bench_json("BENCH_fidelity.json", &records).expect("write BENCH_fidelity.json");
}
