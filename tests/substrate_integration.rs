//! Cross-crate integration tests at the substrate boundary: workloads →
//! engine → platform, checking the engineered specification errors are
//! observable through public interfaces only.

use gemstone::prelude::*;
use gemstone::uarch::backend::TierConfig;
use gemstone::uarch::pmu;

#[test]
fn hardware_and_model_agree_on_architecture_disagree_on_microarchitecture() {
    let board = OdroidXu3::new();
    let spec = suites::by_name("mi-bitcount")
        .expect("workload")
        .scaled(0.2);
    let hw = board.run(&spec, Cluster::BigA15, 1.0e9);
    let g5 = Gem5Sim::run(
        &board.cache,
        &spec,
        Gem5Model::Ex5BigOld,
        1.0e9,
        TierConfig::default(),
    );

    // Architectural counts match (same instruction stream).
    let inst_hw = hw.pmc[&pmu::INST_RETIRED];
    let inst_g5 = g5.pmu_equiv[&pmu::INST_RETIRED];
    assert!(
        (inst_hw - inst_g5).abs() / inst_hw < 0.02,
        "hw {inst_hw} vs gem5 {inst_g5}"
    );

    // Micro-architectural counts diverge in the documented directions.
    let ratio = |e: u16| g5.pmu_equiv[&e] / hw.pmc[&e].max(1.0);
    assert!(
        ratio(pmu::BR_MIS_PRED) > 2.0,
        "mispredicts should be inflated"
    );
    assert!(
        ratio(pmu::L1D_CACHE_REFILL_ST) > 5.0,
        "write refills over-reported"
    );
    // Timing is badly wrong on this branch-patterned workload.
    assert!(g5.time_s > hw.time_s * 1.5);

    // Writeback over-reporting needs a workload whose stores actually spill
    // (a streaming working set, not bitcount's 8 KiB).
    let spec = suites::by_name("mi-susan-smoothing")
        .expect("workload")
        .scaled(0.2);
    let hw = board.run(&spec, Cluster::BigA15, 1.0e9);
    let g5 = Gem5Sim::run(
        &board.cache,
        &spec,
        Gem5Model::Ex5BigOld,
        1.0e9,
        TierConfig::default(),
    );
    let wb = g5.pmu_equiv[&pmu::L1D_CACHE_WB] / hw.pmc[&pmu::L1D_CACHE_WB].max(1.0);
    assert!(wb > 5.0, "writebacks over-reported, got {wb:.2}x");
}

#[test]
fn thermal_throttling_exists_only_at_two_ghz() {
    // §III: the paper avoids 2 GHz because the part throttles.
    use gemstone::platform::thermal::ThermalModel;
    let board = OdroidXu3::new();
    let spec = suites::by_name("rl-intrate").expect("workload").scaled(0.2);
    let run_18 = board.run(&spec, Cluster::BigA15, 1.8e9);
    let run_20 = board.run(&spec, Cluster::BigA15, 2.0e9);
    assert!(run_20.power_w > run_18.power_w);
    let mut t = ThermalModel::new(25.0);
    t.advance(run_20.power_w * 1.8, 120.0); // sustained 4-core-class load
    assert!(
        t.temperature_c() > t.steady_state_c(run_18.power_w),
        "2 GHz load must run hotter"
    );
}

#[test]
fn multiplexed_capture_covers_the_event_list() {
    let board = OdroidXu3::new();
    let spec = suites::by_name("mi-fft").expect("workload").scaled(0.1);
    let run = board.run(&spec, Cluster::LittleA7, 600.0e6);
    // All 68-ish events captured (the paper's multi-pass capture).
    assert!(run.pmc.len() >= 60);
    let passes = board.pmu.passes_for(run.pmc.len());
    assert!(
        passes >= 10,
        "capture should take many passes, got {passes}"
    );
}

#[test]
fn four_thread_workloads_cost_more_on_hardware_than_the_model_thinks() {
    // §IV-B: "the cost of inter-process communication could be too low".
    let board = OdroidXu3::new();
    let one = suites::by_name("parsec-swaptions-1")
        .expect("wl")
        .scaled(0.1);
    let four = suites::by_name("parsec-swaptions-4")
        .expect("wl")
        .scaled(0.1);
    let hw_1 = board.run(&one, Cluster::BigA15, 1.0e9);
    let hw_4 = board.run(&four, Cluster::BigA15, 1.0e9);
    let g5_1 = Gem5Sim::run(
        &board.cache,
        &one,
        Gem5Model::Ex5BigFixed,
        1.0e9,
        TierConfig::default(),
    );
    let g5_4 = Gem5Sim::run(
        &board.cache,
        &four,
        Gem5Model::Ex5BigFixed,
        1.0e9,
        TierConfig::default(),
    );
    let hw_over = hw_4.time_s / hw_1.time_s;
    let g5_over = g5_4.time_s / g5_1.time_s;
    assert!(
        hw_over > g5_over,
        "hardware concurrency overhead {hw_over:.3} should exceed the model's {g5_over:.3}"
    );
}

#[test]
fn engine_determinism_across_platform_layers() {
    let board = OdroidXu3::new();
    let spec = suites::by_name("parsec-dedup-4")
        .expect("workload")
        .scaled(0.05);
    let a = board.run(&spec, Cluster::BigA15, 1.4e9);
    let b = board.run(&spec, Cluster::BigA15, 1.4e9);
    assert_eq!(a.time_s, b.time_s);
    assert_eq!(a.pmc, b.pmc);
    assert_eq!(a.power_w, b.power_w);
    let g1 = Gem5Sim::run(
        &board.cache,
        &spec,
        Gem5Model::Ex5Little,
        600.0e6,
        TierConfig::default(),
    );
    let g2 = Gem5Sim::run(
        &board.cache,
        &spec,
        Gem5Model::Ex5Little,
        600.0e6,
        TierConfig::default(),
    );
    assert_eq!(g1.stats_map, g2.stats_map);
}
