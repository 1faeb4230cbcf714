//! Use-case suitability assessment — §VII of the paper.
//!
//! "\[GemStone\] can also be run by the user to ensure the model gives the
//! required level of accuracy and is suitable for their use-case." A
//! use-case declares which workloads matter and what accuracy it needs
//! (overall and, optionally, for specific events); the assessment says
//! pass/fail with the measured numbers.

use crate::collate::{time_errors, Collated};
use crate::{GemStoneError, Result};
use gemstone_platform::gem5sim::Gem5Model;
use gemstone_uarch::pmu::{event_name, EventCode};

/// A declared use-case with its accuracy requirements.
#[derive(Debug, Clone)]
pub struct UseCase {
    /// Use-case name (e.g. "branch-predictor study on control-heavy code").
    pub name: String,
    /// Workload-name prefixes in scope (empty = all workloads).
    pub workload_prefixes: Vec<String>,
    /// Maximum acceptable execution-time MAPE (%).
    pub max_time_mape: f64,
    /// Events that must be modelled within the given mean |ratio − 1|
    /// (e.g. a power study needs its model-input events accurate).
    pub event_tolerances: Vec<(EventCode, f64)>,
}

impl UseCase {
    /// A use-case over every workload with only a time requirement.
    pub fn timing(name: impl Into<String>, max_time_mape: f64) -> Self {
        UseCase {
            name: name.into(),
            workload_prefixes: Vec::new(),
            max_time_mape,
            event_tolerances: Vec::new(),
        }
    }

    /// Restricts the use-case to workloads with the given name prefixes.
    pub fn with_workloads(mut self, prefixes: &[&str]) -> Self {
        self.workload_prefixes = prefixes.iter().map(|p| p.to_string()).collect();
        self
    }

    /// Adds an event-accuracy requirement.
    pub fn requiring_event(mut self, event: EventCode, max_rel_error: f64) -> Self {
        self.event_tolerances.push((event, max_rel_error));
        self
    }
}

/// One event's assessment within a verdict.
#[derive(Debug, Clone)]
pub struct EventVerdict {
    /// Event assessed.
    pub event: EventCode,
    /// Mnemonic.
    pub name: &'static str,
    /// Mean |gem5/hw − 1| over in-scope workloads.
    pub mean_rel_error: f64,
    /// The declared tolerance.
    pub tolerance: f64,
    /// Whether the tolerance is met.
    pub pass: bool,
}

/// The assessment of one use-case.
#[derive(Debug, Clone)]
pub struct SuitabilityVerdict {
    /// Use-case name.
    pub use_case: String,
    /// Measured execution-time MAPE (%) over the in-scope workloads.
    pub time_mape: f64,
    /// Measured execution-time MPE (%).
    pub time_mpe: f64,
    /// Event assessments.
    pub events: Vec<EventVerdict>,
    /// Number of in-scope (workload, frequency) points.
    pub n: usize,
    /// Overall verdict: time requirement and every event requirement met.
    pub suitable: bool,
}

/// Assesses a model against a list of use-cases at one frequency.
///
/// # Errors
///
/// Returns [`GemStoneError::MissingData`] when a use-case matches no
/// workloads.
pub fn assess(
    collated: &Collated,
    model: Gem5Model,
    freq_hz: f64,
    use_cases: &[UseCase],
) -> Result<Vec<SuitabilityVerdict>> {
    let records = collated.slice(model, freq_hz);
    let mut out = Vec::with_capacity(use_cases.len());
    for uc in use_cases {
        let in_scope: Vec<_> = records
            .iter()
            .copied()
            .filter(|r| {
                uc.workload_prefixes.is_empty()
                    || uc
                        .workload_prefixes
                        .iter()
                        .any(|p| r.workload.starts_with(p.as_str()))
            })
            .collect();
        if in_scope.is_empty() {
            return Err(GemStoneError::MissingData(format!(
                "use-case '{}' matches no workloads",
                uc.name
            )));
        }
        let (time_mape, time_mpe) = time_errors(in_scope.iter().copied())?;

        let mut events = Vec::new();
        for &(code, tolerance) in &uc.event_tolerances {
            let mut acc = 0.0;
            let mut n = 0.0;
            for r in &in_scope {
                let h = r.hw_pmc.get(&code).copied().unwrap_or(0.0);
                let g = r.gem5_pmu.get(&code).copied().unwrap_or(0.0);
                if h > 0.0 {
                    acc += (g / h - 1.0).abs();
                    n += 1.0;
                }
            }
            let mean_rel_error = if n > 0.0 { acc / n } else { f64::INFINITY };
            events.push(EventVerdict {
                event: code,
                name: event_name(code).unwrap_or("?"),
                mean_rel_error,
                tolerance,
                pass: mean_rel_error <= tolerance,
            });
        }

        let suitable = time_mape <= uc.max_time_mape && events.iter().all(|e| e.pass);
        out.push(SuitabilityVerdict {
            use_case: uc.name.clone(),
            time_mape,
            time_mpe,
            events,
            n: in_scope.len(),
            suitable,
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::{run_over, ExperimentConfig};
    use gemstone_platform::dvfs::Cluster;
    use gemstone_uarch::pmu;
    use gemstone_workloads::suites;

    fn collated() -> Collated {
        let cfg = ExperimentConfig {
            workload_scale: 0.1,
            clusters: vec![Cluster::BigA15],
            models: vec![Gem5Model::Ex5BigOld, Gem5Model::Ex5BigFixed],
            ..ExperimentConfig::default()
        };
        let wl = [
            "mi-sha",
            "mi-crc32",
            "mi-bitcount",
            "mi-stringsearch",
            "parsec-canneal-1",
            "lm-bw-mem-rd",
        ]
        .iter()
        .map(|n| suites::by_name(n).unwrap().scaled(0.1))
        .collect();
        Collated::build(&run_over(&cfg, wl))
    }

    #[test]
    fn old_model_unsuitable_fixed_model_suitable_for_timing_studies() {
        let c = collated();
        let uc = vec![UseCase::timing("general timing study (±45 %)", 45.0)];
        let old = assess(&c, Gem5Model::Ex5BigOld, 1.0e9, &uc).unwrap();
        assert!(!old[0].suitable, "old model MAPE = {}", old[0].time_mape);
        let fixed = assess(&c, Gem5Model::Ex5BigFixed, 1.0e9, &uc).unwrap();
        assert!(
            fixed[0].suitable,
            "fixed model MAPE = {}",
            fixed[0].time_mape
        );
    }

    #[test]
    fn event_requirements_flag_distorted_events() {
        // A power study needing accurate writeback counts must reject the
        // model (19× over-reporting), while instruction counts pass.
        let c = collated();
        let uc = vec![UseCase::timing("power study", 100.0)
            .requiring_event(pmu::INST_RETIRED, 0.05)
            .requiring_event(pmu::L1D_CACHE_REFILL_ST, 0.5)];
        let v = assess(&c, Gem5Model::Ex5BigOld, 1.0e9, &uc).unwrap();
        let inst = v[0]
            .events
            .iter()
            .find(|e| e.event == pmu::INST_RETIRED)
            .unwrap();
        assert!(
            inst.pass,
            "instructions are accurate: {}",
            inst.mean_rel_error
        );
        let refill = v[0]
            .events
            .iter()
            .find(|e| e.event == pmu::L1D_CACHE_REFILL_ST)
            .unwrap();
        assert!(!refill.pass, "write refills are distorted");
        assert!(!v[0].suitable);
    }

    #[test]
    fn workload_scoping_changes_the_verdict() {
        // §IV: error depends on workload type — a study confined to
        // loop-dominated crypto kernels sees a much better model.
        let c = collated();
        let all = assess(
            &c,
            Gem5Model::Ex5BigOld,
            1.0e9,
            &[UseCase::timing("all", 1000.0)],
        )
        .unwrap();
        let crypto = assess(
            &c,
            Gem5Model::Ex5BigOld,
            1.0e9,
            &[UseCase::timing("crypto", 1000.0).with_workloads(&["mi-sha", "mi-crc32"])],
        )
        .unwrap();
        assert_eq!(crypto[0].n, 2);
        assert!(
            crypto[0].time_mape < all[0].time_mape,
            "crypto {} vs all {}",
            crypto[0].time_mape,
            all[0].time_mape
        );
    }

    #[test]
    fn unmatched_use_case_errors() {
        let c = collated();
        let uc = vec![UseCase::timing("none", 10.0).with_workloads(&["nonexistent-"])];
        assert!(assess(&c, Gem5Model::Ex5BigOld, 1.0e9, &uc).is_err());
    }
}
