//! Model-change validation — §VII of the paper.
//!
//! Compares the old and fixed `ex5_big` models against the same hardware
//! reference: the BP fix swings the execution-time MPE from −51 % to
//! +10 % and improves the energy MAPE from 50 % to 18 % — "a researcher
//! would see very different results for their study depending on when they
//! downloaded gem5".

use crate::analysis::hca_workloads::WorkloadClusters;
use crate::analysis::power_energy;
use crate::collate::{time_errors, Collated};
use crate::{GemStoneError, Result};
use gemstone_platform::gem5sim::Gem5Model;
use gemstone_powmon::model::PowerModel;

/// Before/after numbers for one model revision.
#[derive(Debug, Clone, Copy)]
pub struct RevisionQuality {
    /// Execution-time MAPE (%).
    pub time_mape: f64,
    /// Execution-time MPE (%).
    pub time_mpe: f64,
    /// Energy MAPE (%) (None when no power model was supplied).
    pub energy_mape: Option<f64>,
}

/// The §VII comparison.
#[derive(Debug, Clone, Copy)]
pub struct Improvement {
    /// The old model's quality.
    pub old: RevisionQuality,
    /// The fixed model's quality.
    pub fixed: RevisionQuality,
}

fn time_quality(collated: &Collated, model: Gem5Model, freq_hz: f64) -> Result<(f64, f64)> {
    let records = collated.slice(model, freq_hz);
    if records.is_empty() {
        return Err(GemStoneError::MissingData(format!(
            "no records for {model:?}"
        )));
    }
    Ok(time_errors(records)?)
}

/// Runs the §VII analysis at one frequency. When `power` and `clusters`
/// are provided, energy errors are included.
///
/// # Errors
///
/// Returns [`GemStoneError::MissingData`] when either model's slice is
/// missing.
pub fn analyse(
    collated: &Collated,
    freq_hz: f64,
    power: Option<(&PowerModel, &WorkloadClusters)>,
) -> Result<Improvement> {
    let (old_mape, old_mpe) = time_quality(collated, Gem5Model::Ex5BigOld, freq_hz)?;
    let (fixed_mape, fixed_mpe) = time_quality(collated, Gem5Model::Ex5BigFixed, freq_hz)?;
    let (old_energy, fixed_energy) = match power {
        Some((pm, wc)) => {
            let old = power_energy::analyse(collated, wc, pm, Gem5Model::Ex5BigOld, freq_hz)?;
            let fixed = power_energy::analyse(collated, wc, pm, Gem5Model::Ex5BigFixed, freq_hz)?;
            (
                Some(old.overall.energy_mape),
                Some(fixed.overall.energy_mape),
            )
        }
        None => (None, None),
    };
    Ok(Improvement {
        old: RevisionQuality {
            time_mape: old_mape,
            time_mpe: old_mpe,
            energy_mape: old_energy,
        },
        fixed: RevisionQuality {
            time_mape: fixed_mape,
            time_mpe: fixed_mpe,
            energy_mape: fixed_energy,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::{run_over, ExperimentConfig};
    use gemstone_platform::dvfs::Cluster;
    use gemstone_workloads::suites;

    fn collated() -> Collated {
        let names = [
            "mi-bitcount",
            "mi-stringsearch",
            "par-basicmath-rad2deg",
            "mi-fft",
            "mi-sha",
            "parsec-canneal-1",
            "mi-dijkstra",
            "dhry-dhrystone",
        ];
        let wl = names
            .iter()
            .map(|n| suites::by_name(n).unwrap().scaled(0.04))
            .collect();
        let cfg = ExperimentConfig {
            workload_scale: 0.04,
            clusters: vec![Cluster::BigA15],
            models: vec![Gem5Model::Ex5BigOld, Gem5Model::Ex5BigFixed],
            ..ExperimentConfig::default()
        };
        crate::collate::Collated::build(&run_over(&cfg, wl))
    }

    #[test]
    fn bp_fix_swings_mpe_positive() {
        // The paper's −51 % → +10 % swing.
        let imp = analyse(&collated(), 1.0e9, None).unwrap();
        assert!(imp.old.time_mpe < -20.0, "old mpe = {}", imp.old.time_mpe);
        assert!(
            imp.fixed.time_mpe > 0.0,
            "fixed mpe = {}",
            imp.fixed.time_mpe
        );
        assert!(
            imp.fixed.time_mape < imp.old.time_mape / 2.0,
            "fixed {} vs old {}",
            imp.fixed.time_mape,
            imp.old.time_mape
        );
        assert!(imp.old.energy_mape.is_none());
    }

    #[test]
    fn missing_model_errors() {
        let names = ["mi-sha", "mi-crc32", "mi-fft"];
        let wl = names
            .iter()
            .map(|n| suites::by_name(n).unwrap().scaled(0.03))
            .collect();
        let cfg = ExperimentConfig {
            workload_scale: 0.03,
            clusters: vec![Cluster::BigA15],
            models: vec![Gem5Model::Ex5BigOld], // no fixed model
            ..ExperimentConfig::default()
        };
        let c = crate::collate::Collated::build(&run_over(&cfg, wl));
        assert!(analyse(&c, 1.0e9, None).is_err());
    }
}
