//! Build an empirical PMC power model the Powmon way (§V of the paper):
//! characterise the board, select events under the gem5-compatibility
//! restriction, fit per-DVFS-point models, validate, and emit
//! gem5-insertable power equations.
//!
//! ```sh
//! cargo run --release --example build_power_model
//! ```

use gemstone::powmon::{dataset, model::PowerModel, published, selection};
use gemstone::prelude::*;

fn main() {
    let scale = std::env::var("GEMSTONE_SCALE")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.25);
    let board = OdroidXu3::new();
    let specs: Vec<_> = suites::power_suite()
        .iter()
        .map(|w| w.scaled(scale))
        .collect();
    println!(
        "characterising {} workloads on the Cortex-A15 at {} DVFS points …",
        specs.len(),
        Cluster::BigA15.frequencies().len()
    );
    let ds = dataset::collect(
        &board,
        Cluster::BigA15,
        &specs,
        Cluster::BigA15.frequencies(),
    );
    println!("{} power observations collected\n", ds.observations.len());

    // Event selection restricted to events with reliable gem5 equivalents
    // (the paper's "PMC selection restraints").
    let opts = selection::SelectionOptions {
        restricted_pool: Some(selection::gem5_compatible_pool()),
        ..selection::SelectionOptions::default()
    };
    let sel = selection::select_events(&ds, &opts).expect("event selection");
    println!("selected events (in order of importance):");
    for (i, t) in sel.terms.iter().enumerate() {
        println!("  {}. {} ({})", i + 1, t.name(), t.mnemonic());
    }

    let model = PowerModel::fit(&ds, &sel.terms).expect("model fit");
    let q = model.quality(&ds).expect("quality");
    println!(
        "\nmodel quality: MAPE {:.2} %  SER {:.3} W  adj.R² {:.3}  mean VIF {:.1}",
        q.mape, q.ser, q.adj_r_squared, q.mean_vif
    );
    println!("(paper §V targets: MAPE 3.28 %, SER 0.049 W, adj.R² 0.996, VIF 6)\n");

    // Board-to-board transfer: published coefficients degrade, retuning
    // with the same selection restores accuracy.
    let foreign = published::published_variant(&model, 0.03, 2024);
    let qf = foreign.quality(&ds).expect("quality");
    println!(
        "published-coefficient experiment: {:.2} % → retuned {:.2} % \
         (paper: 5.6 % → 2.8 %)\n",
        qf.mape, q.mape
    );

    // gem5-insertable equations (the paper's run-time power analysis path).
    println!("{}", model.equations());

    // Drive the simulator with the model in the loop (the "power analysis
    // within gem5 itself" path): one replay of the gem5 model over the
    // A15's DVFS column gives a run-time power trace per frequency. Its
    // energy matches the retrospective estimate of the same cached run.
    use gemstone::powmon::{apply, runtime::RuntimePowerMonitor};
    use gemstone::uarch::backend::TierConfig;
    let spec = suites::by_name("mi-jpeg-encode")
        .expect("workload")
        .scaled(scale.max(0.2));
    let gem5 = Gem5Model::Ex5BigOld;
    let ex5_big_old = configs::ex5_big(configs::Ex5Variant::Old);
    let freqs = Cluster::BigA15.frequencies();
    let traces = RuntimePowerMonitor::new(model.clone(), 5_000)
        .run(board.cache.trace_cache(), &ex5_big_old, &spec, freqs)
        .expect("power traces");
    println!("run-time power traces of {} on {}:", spec.name, gem5.name());
    for (&f, trace) in freqs.iter().zip(&traces) {
        let run = Gem5Sim::run(&board.cache, &spec, gem5, f, TierConfig::default());
        let retro = apply::apply_to_gem5(&model, &run)
            .expect("estimate")
            .energy_j;
        let energy = trace.total_energy_j();
        println!(
            "  {:.1} GHz, {} windows: {}\n    mean {:.2} W, peak {:.2} W, energy {:.4} mJ \
             (retrospective {:.4} mJ, relative gap {:e})",
            f / 1e9,
            trace.samples.len(),
            trace.sparkline(),
            trace.mean_power_w(),
            trace.peak_power_w(),
            energy * 1e3,
            retro * 1e3,
            (energy - retro).abs() / retro
        );
    }
}
