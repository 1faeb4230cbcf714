//! Quickstart: run one workload on the (simulated) hardware and on the
//! gem5 model, and compare execution time, events and power.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use gemstone::prelude::*;
use gemstone::uarch::backend::TierConfig;
use gemstone::uarch::pmu;

fn main() {
    // Pick a workload from the paper's 45-workload validation set.
    let spec = suites::by_name("mi-bitcount")
        .expect("known workload")
        .scaled(0.5);
    println!(
        "workload: {} ({} instructions)\n",
        spec.name, spec.instructions
    );

    // 1. "Hardware": the simulated ODROID-XU3 Cortex-A15 at 1 GHz.
    let board = OdroidXu3::new();
    let hw = board.run(&spec, Cluster::BigA15, 1.0e9);
    println!(
        "hardware:  time {:.4} ms, power {:.2} W",
        hw.time_s * 1e3,
        hw.power_w
    );

    // 2. The gem5 ex5_big model (old revision, with the BP bug), memoised
    //    in the board's simulation cache like the hardware run.
    let tier = TierConfig::default();
    let g5 = Gem5Sim::run(&board.cache, &spec, Gem5Model::Ex5BigOld, 1.0e9, tier);
    println!("gem5 old:  time {:.4} ms (deterministic)", g5.time_s * 1e3);

    // 3. Execution-time error with the paper's sign convention.
    let mpe = (hw.time_s - g5.time_s) / hw.time_s * 100.0;
    println!("\nexecution-time error (MPE): {mpe:+.1} %");
    println!("(negative = the model overestimates execution time, §IV)\n");

    // 4. A few matched events (the Fig. 6 view).
    for (code, label) in [
        (pmu::INST_RETIRED, "instructions"),
        (pmu::BR_MIS_PRED, "branch mispredicts"),
        (pmu::L1I_TLB_REFILL, "ITLB refills"),
        (pmu::L1D_CACHE_REFILL_ST, "L1D write refills"),
    ] {
        let h = hw.pmc.get(&code).copied().unwrap_or(0.0);
        let g = g5.pmu_equiv.get(&code).copied().unwrap_or(0.0);
        println!(
            "{label:<20} hw {h:>12.0}   gem5 {g:>12.0}   ratio {:.2}x",
            if h > 0.0 { g / h } else { f64::NAN }
        );
    }

    // 5. The fixed model tells a different story (§VII).
    let fixed = Gem5Sim::run(&board.cache, &spec, Gem5Model::Ex5BigFixed, 1.0e9, tier);
    let mpe_fixed = (hw.time_s - fixed.time_s) / hw.time_s * 100.0;
    println!(
        "\ngem5 fixed: time {:.4} ms → MPE {mpe_fixed:+.1} %",
        fixed.time_s * 1e3
    );
    println!("the BP fix swings the error from {mpe:+.0} % to {mpe_fixed:+.0} % on this workload.");
}
