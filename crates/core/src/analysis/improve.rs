//! The guided model-improvement loop.
//!
//! §IV-F of the paper: "Remaining sources of error can be reduced by
//! iteratively making changes and analysing the result with GemStone."
//! This module automates that loop: validate the model, run the Fig. 6
//! event comparison, diagnose the dominant error source
//! ([`crate::analysis::diagnose`]), apply the corresponding fix from the
//! specification-error catalogue, and repeat until the model is accurate
//! or no evidence remains.

use crate::analysis::diagnose::{diagnose, Diagnosis};
use crate::analysis::{event_compare, hca_workloads, microbench};
use crate::collate::time_errors;
use crate::experiment::{run_variants, ExperimentConfig};
use crate::{GemStoneError, Result};
use gemstone_platform::dvfs::Cluster;
use gemstone_platform::gem5sim::Gem5Model;
use gemstone_uarch::configs::cortex_a15_hw;
use gemstone_uarch::configs::{ex5_big, ex5_big_spec_errors, Ex5Variant};
use gemstone_workloads::spec::WorkloadSpec;

/// One iteration of the improvement loop.
#[derive(Debug, Clone)]
pub struct Iteration {
    /// Iteration number (0 = the unmodified model).
    pub index: usize,
    /// Execution-time MAPE before any fix this iteration (%).
    pub mape: f64,
    /// Execution-time MPE (%).
    pub mpe: f64,
    /// The diagnosis computed this iteration.
    pub diagnosis: Diagnosis,
    /// The component fixed at the end of this iteration (`None` when the
    /// loop stopped here).
    pub fixed: Option<&'static str>,
}

/// The complete improvement trajectory.
#[derive(Debug, Clone)]
pub struct Improvement {
    /// Iterations in order.
    pub iterations: Vec<Iteration>,
    /// Final model accuracy (%).
    pub final_mape: f64,
}

/// Runs the guided improvement loop starting from the old `ex5_big` model.
///
/// Stops when the MAPE drops below `target_mape`, when the diagnosis has no
/// more evidence, when a fix stops helping, or after `max_iterations`.
/// Each iteration validates the current config in one [`run_variants`]
/// sweep on `cfg`'s board and workers.
///
/// # Errors
///
/// Returns [`GemStoneError::MissingData`] for an empty workload list, or
/// propagates analysis errors.
pub fn improve_model(
    cfg: &ExperimentConfig,
    workloads: &[WorkloadSpec],
    freq_hz: f64,
    target_mape: f64,
    max_iterations: usize,
) -> Result<Improvement> {
    if workloads.len() < 3 {
        return Err(GemStoneError::MissingData(
            "improvement loop needs ≥3 workloads".into(),
        ));
    }
    let errors = ex5_big_spec_errors();
    let mut model = ex5_big(Ex5Variant::Old);
    let mut fixed_already: Vec<&'static str> = Vec::new();
    let mut iterations = Vec::new();

    for index in 0..max_iterations.max(1) {
        let collated = run_variants(cfg, workloads, std::slice::from_ref(&model), freq_hz)
            .pop()
            .expect("one variant");
        let (cur_mape, cur_mpe) = time_errors(&collated.records)?;

        let k = (workloads.len() / 3).clamp(2, 16);
        let clusters = hca_workloads::analyse(&collated, Gem5Model::Ex5BigOld, freq_hz, Some(k))?;
        let cmp =
            event_compare::analyse(&collated, &clusters, Gem5Model::Ex5BigOld, freq_hz, true)?;
        // Micro-benchmarks (Fig. 4) against the *current* model config give
        // the memory-latency evidence.
        let latency = microbench::analyse_pair(
            cortex_a15_hw(),
            model.clone(),
            Cluster::BigA15,
            freq_hz,
            20_000,
        );
        let diagnosis = diagnose(&cmp, Some(&latency));

        // Decide on the next fix: the most severe suspect not yet fixed.
        let next_fix = if cur_mape <= target_mape {
            None
        } else {
            diagnosis
                .evidence
                .iter()
                .map(|e| e.component)
                .find(|c| !fixed_already.contains(c))
        };

        iterations.push(Iteration {
            index,
            mape: cur_mape,
            mpe: cur_mpe,
            diagnosis,
            fixed: next_fix,
        });

        let Some(component) = next_fix else { break };
        let err = errors
            .iter()
            .find(|e| e.name == component)
            .expect("diagnosis names a catalogued error");
        (err.revert)(&mut model);
        fixed_already.push(component);
    }

    let final_mape = iterations.last().map_or(f64::NAN, |i| i.mape);
    Ok(Improvement {
        iterations,
        final_mape,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gemstone_workloads::suites;

    fn workloads() -> Vec<WorkloadSpec> {
        [
            "mi-bitcount",
            "mi-stringsearch",
            "par-basicmath-rad2deg",
            "mi-fft",
            "mi-sha",
            "mi-dijkstra",
            "parsec-canneal-1",
            "dhry-dhrystone",
            "lm-bw-mem-rd",
        ]
        .iter()
        .map(|n| suites::by_name(n).unwrap().scaled(0.05))
        .collect()
    }

    #[test]
    fn loop_fixes_the_bp_first_and_converges() {
        let imp =
            improve_model(&ExperimentConfig::default(), &workloads(), 1.0e9, 12.0, 6).unwrap();

        // The first diagnosed-and-fixed component is the branch predictor —
        // the paper's conclusion, discovered automatically.
        assert_eq!(imp.iterations[0].fixed, Some("branch-predictor"));
        assert!(imp.iterations[0].mape > 30.0);
        // Accuracy improves substantially across the loop.
        assert!(
            imp.final_mape < imp.iterations[0].mape / 2.0,
            "trajectory: {:?}",
            imp.iterations
                .iter()
                .map(|i| (i.mape, i.fixed))
                .collect::<Vec<_>>()
        );
        // Each iteration fixes something new or stops.
        let fixed: Vec<_> = imp.iterations.iter().filter_map(|i| i.fixed).collect();
        let mut dedup = fixed.clone();
        dedup.dedup();
        assert_eq!(fixed.len(), dedup.len(), "no component fixed twice");
    }

    #[test]
    fn trajectory_does_not_depend_on_the_thread_count() {
        let trajectory = |threads| {
            let cfg = ExperimentConfig {
                threads,
                ..ExperimentConfig::default()
            };
            let imp = improve_model(&cfg, &workloads(), 1.0e9, 12.0, 6).unwrap();
            imp.iterations
                .iter()
                .map(|i| (i.index, i.mape.to_bits(), i.mpe.to_bits(), i.fixed))
                .collect::<Vec<_>>()
        };
        let serial = trajectory(1);
        assert!(serial.len() > 1, "the loop fixes something");
        assert_eq!(serial, trajectory(2));
    }

    #[test]
    fn needs_enough_workloads() {
        let wl: Vec<WorkloadSpec> = vec![suites::by_name("mi-sha").unwrap().scaled(0.02)];
        assert!(improve_model(&ExperimentConfig::default(), &wl, 1.0e9, 10.0, 3).is_err());
    }
}
