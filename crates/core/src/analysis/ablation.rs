//! Ablation study over the `ex5_big` specification errors.
//!
//! §IV-F of the paper: "There is interaction between the components of the
//! model and changes to each part of the system have knock-on effects. It
//! is therefore important to work on each component individually, and
//! evaluate the full system after each change. It is also necessary to
//! address the most significant sources of error first."
//!
//! This analysis quantifies that: each documented specification error is
//! (a) individually *fixed* in the otherwise-unchanged old model, and
//! (b) individually *kept* as the only error (all others reverted),
//! measuring the execution-time MAPE/MPE each way. The paper's conclusion
//! — the branch predictor dominates — falls out of the numbers.

use crate::collate::time_errors;
use crate::experiment::{run_variants, ExperimentConfig};
use crate::{GemStoneError, Result};
use gemstone_uarch::configs::{ex5_big, ex5_big_spec_errors, Ex5Variant};
use gemstone_workloads::spec::WorkloadSpec;

/// Errors of one model variant against the hardware.
#[derive(Debug, Clone)]
pub struct VariantQuality {
    /// Variant label.
    pub label: String,
    /// Execution-time MAPE (%).
    pub mape: f64,
    /// Execution-time MPE (%).
    pub mpe: f64,
}

/// The ablation result.
#[derive(Debug, Clone)]
pub struct Ablation {
    /// The unmodified old model (baseline).
    pub baseline: VariantQuality,
    /// The fully corrected model (every error reverted).
    pub truth_config: VariantQuality,
    /// "Fix one": each error reverted individually, others kept.
    pub fix_one: Vec<VariantQuality>,
    /// "Keep one": each error kept individually, others reverted.
    pub keep_one: Vec<VariantQuality>,
}

/// Runs the ablation at one frequency over a workload set: every variant
/// is scored in one [`run_variants`] sweep on `cfg`'s board and workers.
///
/// # Errors
///
/// Returns [`GemStoneError::MissingData`] for an empty workload list, or
/// propagates metric errors.
pub fn analyse(
    cfg: &ExperimentConfig,
    workloads: &[WorkloadSpec],
    freq_hz: f64,
) -> Result<Ablation> {
    if workloads.is_empty() {
        return Err(GemStoneError::MissingData(
            "no workloads for ablation".into(),
        ));
    }
    let errors = ex5_big_spec_errors();
    let n = errors.len();
    // One config per variant: each listed error reverted in the old model.
    let reverting = |which: &dyn Fn(usize) -> bool| {
        let mut c = ex5_big(Ex5Variant::Old);
        for (j, e) in errors.iter().enumerate() {
            if which(j) {
                (e.revert)(&mut c);
            }
        }
        c
    };
    // Variants in order: baseline, all fixed, fix one per error, keep one
    // per error.
    let mut labels = vec!["ex5_big(old)".to_string(), "all errors fixed".into()];
    let mut variants = vec![reverting(&|_| false), reverting(&|_| true)];
    labels.extend(errors.iter().map(|e| format!("fix {}", e.name)));
    variants.extend((0..n).map(|i| reverting(&|j| j == i)));
    labels.extend(errors.iter().map(|e| format!("only {}", e.name)));
    variants.extend((0..n).map(|i| reverting(&|j| j != i)));

    let mut scores = labels
        .into_iter()
        .zip(run_variants(cfg, workloads, &variants, freq_hz))
        .map(|(label, collated)| {
            let (mape, mpe) = time_errors(&collated.records)?;
            Ok(VariantQuality { label, mape, mpe })
        })
        .collect::<Result<Vec<_>>>()?;
    let keep_one = scores.split_off(2 + n);
    let fix_one = scores.split_off(2);
    let [baseline, truth_config] =
        <[VariantQuality; 2]>::try_from(scores).expect("two reference variants");
    Ok(Ablation {
        baseline,
        truth_config,
        fix_one,
        keep_one,
    })
}

impl Ablation {
    /// The single error whose *individual fix* improves the MAPE most —
    /// the paper's "most significant source of error".
    pub fn dominant_error(&self) -> Option<&VariantQuality> {
        self.fix_one
            .iter()
            .min_by(|a, b| a.mape.partial_cmp(&b.mape).expect("finite"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gemstone_workloads::suites;

    fn workloads() -> Vec<WorkloadSpec> {
        [
            "mi-bitcount",
            "mi-stringsearch",
            "mi-fft",
            "par-basicmath-rad2deg",
            "mi-sha",
            "parsec-canneal-1",
            "mi-dijkstra",
            "dhry-dhrystone",
        ]
        .iter()
        .map(|n| suites::by_name(n).unwrap().scaled(0.05))
        .collect()
    }

    #[test]
    fn branch_predictor_dominates() {
        // The paper's central diagnosis, quantified.
        let ab = analyse(&ExperimentConfig::default(), &workloads(), 1.0e9).unwrap();
        let dominant = ab.dominant_error().expect("a dominant error");
        assert_eq!(dominant.label, "fix branch-predictor");
        // Fixing the BP alone recovers most of the error …
        assert!(
            dominant.mape < ab.baseline.mape * 0.6,
            "fix-bp {} vs baseline {}",
            dominant.mape,
            ab.baseline.mape
        );
        // … and keeping only the BP keeps most of it.
        let only_bp = ab
            .keep_one
            .iter()
            .find(|v| v.label == "only branch-predictor")
            .expect("keep-one bp");
        assert!(
            only_bp.mape > ab.baseline.mape * 0.4,
            "only-bp {} vs baseline {}",
            only_bp.mape,
            ab.baseline.mape
        );
    }

    #[test]
    fn fully_corrected_model_is_accurate() {
        let ab = analyse(&ExperimentConfig::default(), &workloads(), 1.0e9).unwrap();
        assert!(
            ab.truth_config.mape < 15.0,
            "truth-config MAPE = {}",
            ab.truth_config.mape
        );
        assert!(ab.truth_config.mape < ab.baseline.mape / 2.0);
        assert_eq!(ab.fix_one.len(), ab.keep_one.len());
    }

    #[test]
    fn scores_do_not_depend_on_the_thread_count() {
        let scores = |threads| {
            let cfg = ExperimentConfig {
                threads,
                ..ExperimentConfig::default()
            };
            let ab = analyse(&cfg, &workloads(), 1.0e9).unwrap();
            [ab.baseline, ab.truth_config]
                .into_iter()
                .chain(ab.fix_one)
                .chain(ab.keep_one)
                .map(|v| (v.label, v.mape.to_bits(), v.mpe.to_bits()))
                .collect::<Vec<_>>()
        };
        let serial = scores(1);
        assert_eq!(serial.len(), 18);
        assert_eq!(serial, scores(2));
    }

    #[test]
    fn empty_workloads_is_error() {
        assert!(analyse(&ExperimentConfig::default(), &[], 1.0e9).is_err());
    }
}
