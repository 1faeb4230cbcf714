//! Applying a power model to hardware PMC data or gem5 statistics — the
//! paper's Fig. 2 software tool.
//!
//! "The advantage of this tool is that power models can be applied to gem5
//! results after the simulation, meaning that the selected power model or
//! the voltage for a selected frequency can be changed without re-running
//! the gem5 simulation."
//!
//! # Examples
//!
//! ```no_run
//! use gemstone_platform::gem5sim::{Gem5Model, Gem5Sim};
//! use gemstone_platform::simcache::SimCache;
//! use gemstone_powmon::apply;
//! use gemstone_uarch::backend::TierConfig;
//! use gemstone_workloads::suites;
//! # fn model() -> gemstone_powmon::model::PowerModel { unimplemented!() }
//!
//! let spec = suites::by_name("mi-crc32").unwrap();
//! let cache = SimCache::global();
//! let run = Gem5Sim::run(&cache, &spec, Gem5Model::Ex5BigOld, 1.0e9, TierConfig::default());
//! let estimate = apply::apply_to_gem5(&model(), &run).unwrap();
//! println!("estimated power: {} W", estimate.power.total_w);
//! ```

use crate::model::{PowerBreakdown, PowerModel};
use gemstone_platform::board::HwRun;
use gemstone_platform::gem5sim::Gem5Run;
use gemstone_stats::Result;
use gemstone_uarch::pmu::EventCode;
use std::collections::BTreeMap;

/// A power/energy estimate for one run.
#[derive(Debug, Clone)]
pub struct PowerEstimate {
    /// Workload name.
    pub workload: String,
    /// Frequency (Hz).
    pub freq_hz: f64,
    /// Predicted power with component decomposition.
    pub power: PowerBreakdown,
    /// Execution time used for the energy estimate (s).
    pub time_s: f64,
    /// Energy estimate (J): power × time.
    pub energy_j: f64,
}

fn rates_from_counts(counts: &BTreeMap<EventCode, f64>, time_s: f64) -> BTreeMap<EventCode, f64> {
    counts.iter().map(|(&c, &v)| (c, v / time_s)).collect()
}

/// Applies the model to a hardware run (PMC counts → rates → power).
///
/// # Errors
///
/// Returns an error when the model has no coefficients for the run's
/// frequency.
pub fn apply_to_hw(model: &PowerModel, run: &HwRun) -> Result<PowerEstimate> {
    let rates = rates_from_counts(&run.pmc, run.time_s);
    let power = model.breakdown(run.freq_hz, &rates)?;
    Ok(PowerEstimate {
        workload: run.workload.clone(),
        freq_hz: run.freq_hz,
        time_s: run.time_s,
        energy_j: power.total_w * run.time_s,
        power,
    })
}

/// Applies the model to a gem5 run, using the model's *equivalent* gem5
/// events (box *l* of Fig. 1) and the **simulated** execution time — which
/// is how gem5 time errors propagate into energy errors (§VI).
///
/// # Errors
///
/// Returns an error when the model has no coefficients for the run's
/// frequency.
pub fn apply_to_gem5(model: &PowerModel, run: &Gem5Run) -> Result<PowerEstimate> {
    let rates = rates_from_counts(&run.pmu_equiv, run.time_s);
    let power = model.breakdown(run.freq_hz, &rates)?;
    Ok(PowerEstimate {
        workload: run.workload.clone(),
        freq_hz: run.freq_hz,
        time_s: run.time_s,
        energy_j: power.total_w * run.time_s,
        power,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::EventExpr;
    use gemstone_platform::board::OdroidXu3;
    use gemstone_platform::dvfs::Cluster;
    use gemstone_platform::gem5sim::{Gem5Model, Gem5Sim};
    use gemstone_uarch::backend::TierConfig;
    use gemstone_uarch::pmu;
    use gemstone_workloads::suites;

    fn model_and_board() -> (PowerModel, OdroidXu3) {
        let board = OdroidXu3::new();
        let names = [
            "mi-sha",
            "mi-crc32",
            "mi-fft",
            "whet-whetstone",
            "lm-bw-mem-rd",
            "mi-dijkstra",
            "rl-neonspeed",
            "dhry-dhrystone",
        ];
        let specs: Vec<_> = names
            .iter()
            .map(|n| suites::by_name(n).unwrap().scaled(0.08))
            .collect();
        let ds = crate::dataset::collect(&board, Cluster::BigA15, &specs, &[1000.0e6]);
        let terms = vec![
            EventExpr::single(pmu::CPU_CYCLES),
            EventExpr::diff(pmu::INST_SPEC, pmu::DP_SPEC),
            EventExpr::single(pmu::L1D_CACHE),
            EventExpr::single(pmu::L2D_CACHE),
        ];
        (PowerModel::fit(&ds, &terms).unwrap(), board)
    }

    #[test]
    fn hw_and_gem5_application_agree_roughly() {
        let (model, board) = model_and_board();
        let spec = suites::by_name("mi-sha").unwrap().scaled(0.08);
        let hw = board.run(&spec, Cluster::BigA15, 1000.0e6);
        let g5 = Gem5Sim::run(
            &board.cache,
            &spec,
            Gem5Model::Ex5BigFixed,
            1000.0e6,
            TierConfig::default(),
        );
        let e_hw = apply_to_hw(&model, &hw).unwrap();
        let e_g5 = apply_to_gem5(&model, &g5).unwrap();
        assert!(e_hw.power.total_w > 0.3);
        assert!(e_g5.power.total_w > 0.3);
        // Same model, similar event rates → the POWER estimates stay close
        // (§VI: power error is low) …
        let rel = (e_hw.power.total_w - e_g5.power.total_w).abs() / e_hw.power.total_w;
        assert!(rel < 0.4, "rel = {rel}");
        // … while energy inherits the execution-time error.
        assert!((e_hw.energy_j - e_hw.power.total_w * hw.time_s).abs() < 1e-12);
    }

    #[test]
    fn energy_scales_with_time() {
        let (model, board) = model_and_board();
        let spec = suites::by_name("mi-crc32").unwrap().scaled(0.08);
        let hw = board.run(&spec, Cluster::BigA15, 1000.0e6);
        let est = apply_to_hw(&model, &hw).unwrap();
        assert!((est.energy_j / est.time_s - est.power.total_w).abs() < 1e-9);
        assert_eq!(est.workload, "mi-crc32");
    }

    #[test]
    fn wrong_frequency_errors() {
        let (model, board) = model_and_board();
        let spec = suites::by_name("mi-crc32").unwrap().scaled(0.05);
        let g5 = Gem5Sim::run(
            &board.cache,
            &spec,
            Gem5Model::Ex5BigOld,
            1.4e9,
            TierConfig::default(),
        );
        assert!(apply_to_gem5(&model, &g5).is_err());
    }
}
