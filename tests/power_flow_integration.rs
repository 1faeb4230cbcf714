//! Cross-crate integration test for the power-modelling flow (§V–§VI):
//! characterise → select → fit → apply to hardware and gem5 data →
//! power-vs-energy error asymmetry.

use gemstone::powmon::runtime::RuntimePowerMonitor;
use gemstone::powmon::{apply, dataset, model::PowerModel, selection};
use gemstone::prelude::*;
use gemstone::uarch::backend::TierConfig;
use gemstone::uarch::pmu;

fn workload_names() -> Vec<&'static str> {
    vec![
        "mi-sha",
        "mi-crc32",
        "mi-bitcount",
        "mi-fft",
        "whet-whetstone",
        "lm-bw-mem-rd",
        "mi-dijkstra",
        "rl-neonspeed",
        "dhry-dhrystone",
        "lm-lat-ops-int",
        "rl-memspeed-int",
        "par-basicmath-rad2deg",
    ]
}

#[test]
fn power_model_flow_end_to_end() {
    let board = OdroidXu3::new();
    let specs: Vec<_> = workload_names()
        .iter()
        .map(|n| suites::by_name(n).expect("workload").scaled(0.06))
        .collect();
    let ds = dataset::collect(&board, Cluster::BigA15, &specs, &[600.0e6, 1000.0e6]);
    assert_eq!(ds.observations.len(), specs.len() * 2);

    // Selection under the gem5-compatibility restriction.
    let opts = selection::SelectionOptions {
        restricted_pool: Some(selection::gem5_compatible_pool()),
        max_terms: 6,
        ..selection::SelectionOptions::default()
    };
    let sel = selection::select_events(&ds, &opts).expect("selection");
    assert!(!sel.terms.is_empty());
    for t in &sel.terms {
        assert_ne!(t.event, 0x15, "restricted event selected");
        assert_ne!(t.event, 0x75, "restricted event selected");
    }

    // Fit + quality.
    let model = PowerModel::fit(&ds, &sel.terms).expect("fit");
    let q = model.quality(&ds).expect("quality");
    assert!(q.mape < 12.0, "model MAPE = {}", q.mape);
    assert!(q.adj_r_squared > 0.8, "adj r2 = {}", q.adj_r_squared);

    // Apply to HW and gem5 for the pathological workload: power errors
    // stay moderate, energy errors explode (§VI).
    let spec = suites::by_name("par-basicmath-rad2deg")
        .expect("workload")
        .scaled(0.06);
    let hw = board.run(&spec, Cluster::BigA15, 1.0e9);
    let g5 = Gem5Sim::run(
        &board.cache,
        &spec,
        Gem5Model::Ex5BigOld,
        1.0e9,
        TierConfig::default(),
    );
    let e_hw = apply::apply_to_hw(&model, &hw).expect("hw estimate");
    let e_g5 = apply::apply_to_gem5(&model, &g5).expect("gem5 estimate");

    let power_err = ((e_hw.power.total_w - e_g5.power.total_w) / e_hw.power.total_w).abs();
    let energy_err = ((e_hw.energy_j - e_g5.energy_j) / e_hw.energy_j).abs();
    assert!(
        energy_err > power_err * 2.0,
        "energy error {energy_err:.2} should dwarf power error {power_err:.2}"
    );
    assert!(energy_err > 0.5, "energy error = {energy_err}");

    // The equations render and mention each selected term.
    let eq = model.equations();
    for t in &sel.terms {
        assert!(
            eq.contains(&t.mnemonic()),
            "equation missing {}",
            t.mnemonic()
        );
    }
}

#[test]
fn microbench_exposes_model_memory_errors() {
    // Fig. 4 via the public API.
    let m = gemstone::core::analysis::microbench::analyse(1.0e9, 15_000);
    let (hw15, model15) = m.pair(Cluster::BigA15).expect("A15 curves");
    assert!(model15.dram_plateau_ns() < hw15.dram_plateau_ns());
    let (hw7, model7) = m.pair(Cluster::LittleA7).expect("A7 curves");
    assert!(model7.l2_plateau_ns() > hw7.l2_plateau_ns());
}

#[test]
fn runtime_monitor_agrees_with_the_cached_run() {
    // A model with coefficients at every DVFS point of the A15.
    let board = OdroidXu3::new();
    let freqs = Cluster::BigA15.frequencies();
    let fit_specs: Vec<_> = workload_names()[..8]
        .iter()
        .map(|n| suites::by_name(n).expect("workload").scaled(0.05))
        .collect();
    let ds = dataset::collect(&board, Cluster::BigA15, &fit_specs, freqs);
    let terms = [
        EventExpr::single(pmu::CPU_CYCLES),
        EventExpr::diff(pmu::INST_SPEC, pmu::DP_SPEC),
        EventExpr::single(pmu::L1D_CACHE),
        EventExpr::single(pmu::L2D_CACHE),
    ];
    let model = PowerModel::fit(&ds, &terms).expect("fit");

    // The run-time traces of one fused replay over the column match the
    // cached one-lane runs: time bit for bit, energy to rounding.
    let monitor = RuntimePowerMonitor::new(model.clone(), 2_000);
    let cfg = configs::ex5_big(configs::Ex5Variant::Old);
    let traces_cache = board.cache.trace_cache();
    for name in ["mi-sha", "mi-fft", "lm-bw-mem-rd"] {
        let spec = suites::by_name(name).expect("workload").scaled(0.1);
        let _hold = traces_cache.hold(&spec);
        let traces = monitor
            .run(traces_cache, &cfg, &spec, freqs)
            .expect("power traces");
        assert_eq!(traces.len(), freqs.len());
        for (&f, trace) in freqs.iter().zip(&traces) {
            let run = Gem5Sim::run_config(
                &board.cache,
                &spec,
                Gem5Model::Ex5BigOld,
                cfg.clone(),
                f,
                TierConfig::default(),
            );
            let end = trace.samples.last().expect("a window").t_end_s;
            assert_eq!(
                end.to_bits(),
                run.time_s.to_bits(),
                "{name} at {f}: {end} vs {}",
                run.time_s
            );
            let retro = apply::apply_to_gem5(&model, &run)
                .expect("estimate")
                .energy_j;
            let gap = (trace.total_energy_j() - retro).abs() / retro;
            assert!(gap < 1e-9, "{name} at {f}: energy gap {gap:e}");
        }
    }
}
