//! Fused multi-frequency grid replay, written to `BENCH_gridsweep.json`.
//!
//! Compares filling a cluster's full DVFS frequency column the old way —
//! one independent one-lane backend run per frequency, each re-decoding
//! the packed trace and re-simulating every shared structure — against
//! one multi-lane [`Backend`] pass that decodes once and carries all
//! frequencies as lanes. Each tier replays as the simulation cache replays
//! it ([`replay`]). Covered per cluster (A7 and A15 columns) and across the three
//! fidelity tiers. Each column is timed as the fastest of [`PASSES`]
//! interleaved passes, which damps host noise. The bench prints the
//! fused-vs-scalar speedup per (cluster, tier), so a run doubles as a
//! check of the ≥3× target on the A15 approx column; the same
//! measurements are the records, which CI diffs against `baselines/`.
//!
//! Results are bit-identical by construction: every lane replays the
//! `f64` operation sequence of a one-lane run, and every pass asserts it.

use gemstone_bench::{timed, write_bench_json, BenchRecord};
use gemstone_platform::dvfs::Cluster;
use gemstone_uarch::backend::{Backend, SampleParams, TierConfig};
use gemstone_uarch::configs::{cortex_a15_hw, cortex_a7_hw};
use gemstone_uarch::core::{CoreConfig, SimResult};
use gemstone_uarch::instr::InstrClass;
use gemstone_workloads::suites;
use gemstone_workloads::trace::PackedTrace;

const WORKLOAD: &str = "mi-fft";
const SEED: u64 = 7;
/// Timed passes per (cluster, tier) row; each column keeps its fastest.
const PASSES: usize = 5;

fn clusters() -> [(&'static str, CoreConfig, &'static [f64]); 2] {
    [
        ("a7", cortex_a7_hw(), Cluster::LittleA7.frequencies()),
        ("a15", cortex_a15_hw(), Cluster::BigA15.frequencies()),
    ]
}

fn tier_configs() -> [(&'static str, TierConfig); 3] {
    [
        ("atomic", TierConfig::atomic()),
        ("approx", TierConfig::approx()),
        ("sampled", TierConfig::sampled(SampleParams::default())),
    ]
}

/// A whole-stream class histogram.
type Hist = [u64; InstrClass::COUNT];

/// One replay of `trace` over every lane of `backend`, the way the
/// simulation cache replays each tier: the atomic tier absorbs `hist`, the
/// trace's whole-stream class histogram (memoised once per workload, as
/// the trace cache does); the detailed tiers step every decoded
/// instruction.
fn replay(trace: &PackedTrace, hist: &Hist, backend: &mut Backend) -> Vec<SimResult> {
    match backend {
        Backend::Atomic(_) => backend.run_histogram(hist),
        _ => backend.run_stream(trace.iter()),
    }
}

fn run_per_frequency(
    trace: &PackedTrace,
    hist: &Hist,
    cfg: &CoreConfig,
    freqs: &[f64],
    tier: TierConfig,
) -> f64 {
    let mut total = 0.0;
    for &f in freqs {
        let mut backend = Backend::new(tier, cfg, &[f], 1, SEED);
        total += replay(trace, hist, &mut backend)[0].cycles;
    }
    total
}

fn run_fused(
    trace: &PackedTrace,
    hist: &Hist,
    cfg: &CoreConfig,
    freqs: &[f64],
    tier: TierConfig,
) -> f64 {
    let mut backend = Backend::new(tier, cfg, freqs, 1, SEED);
    replay(trace, hist, &mut backend)
        .iter()
        .map(|r| r.cycles)
        .sum()
}

fn main() {
    let spec = suites::by_name(WORKLOAD).unwrap().scaled(0.5);
    let trace = PackedTrace::from_spec(&spec);
    let hist = trace.class_histogram(0..trace.len());
    let mut records = Vec::new();

    for (cluster, cfg, freqs) in clusters() {
        for (tier_name, tier) in tier_configs() {
            // Speedup spot-check, printed once per (cluster, tier): the
            // wall-clock ratio of the per-frequency column to one fused
            // replay of the same column, each at its fastest pass.
            let (mut scalar, mut fused) = (f64::INFINITY, f64::INFINITY);
            for _ in 0..PASSES {
                let (scalar_cycles, s) =
                    timed(|| run_per_frequency(&trace, &hist, &cfg, freqs, tier));
                let (fused_cycles, f) = timed(|| run_fused(&trace, &hist, &cfg, freqs, tier));
                assert_eq!(
                    scalar_cycles.to_bits(),
                    fused_cycles.to_bits(),
                    "fused column diverged from per-frequency runs"
                );
                scalar = scalar.min(s);
                fused = fused.min(f);
            }
            let speedup = scalar / fused.max(1e-9);
            println!(
                "grid_sweep/{cluster}/{tier_name}: {} lanes, fused {speedup:.1}x faster \
                 ({:.1} ms -> {:.1} ms)",
                freqs.len(),
                scalar * 1e3,
                fused * 1e3,
            );
            records.push(BenchRecord::new(
                "grid_sweep",
                format!("{cluster}/{tier_name}"),
                fused,
                speedup,
            ));
        }
    }
    write_bench_json("BENCH_gridsweep.json", &records).expect("write BENCH_gridsweep.json");
}
