//! The end-to-end power-modelling workflow as one fallible library call.
//!
//! `gemstone power` (the CLI) and the `power-model` job kind of
//! `gemstone serve` run exactly the same experiment: characterise a
//! cluster, select events against the gem5-compatible pool, fit the
//! per-DVFS-point models and score them. Before the service existed that
//! sequence lived inline in the CLI, stitched together with `eprintln!`
//! and early exits — unusable from a daemon. This module is the extracted
//! request/response form: inputs in, [`FittedPowerModel`] or an error
//! out, no I/O, no process exit.
//!
//! # Examples
//!
//! ```no_run
//! use gemstone_platform::{board::OdroidXu3, dvfs::Cluster};
//! use gemstone_powmon::{fitting, selection::SelectionOptions};
//! use gemstone_workloads::suites;
//!
//! let board = OdroidXu3::new();
//! let specs: Vec<_> = suites::power_suite().iter().map(|w| w.scaled(0.2)).collect();
//! let fitted = fitting::fit_cluster_model(
//!     &board,
//!     Cluster::BigA15,
//!     &specs,
//!     &SelectionOptions::gem5_restricted(),
//! )?;
//! assert!(fitted.quality.mape < 10.0);
//! # Ok::<(), gemstone_stats::StatsError>(())
//! ```

use crate::dataset::{self, PowerDataset};
use crate::model::{ModelQuality, PowerModel};
use crate::selection::{self, Selection, SelectionOptions};
use gemstone_platform::board::OdroidXu3;
use gemstone_platform::dvfs::Cluster;
use gemstone_stats::Result;
use gemstone_workloads::spec::WorkloadSpec;

/// Everything the power-modelling workflow produces, kept together so
/// callers can render any slice of it (the CLI prints quality and
/// equations; the service serialises quality into the job artefact).
#[derive(Debug, Clone)]
pub struct FittedPowerModel {
    /// The characterisation dataset the model was fitted on.
    pub dataset: PowerDataset,
    /// The event-selection outcome (terms and the search trace).
    pub selection: Selection,
    /// The fitted per-DVFS-point linear models.
    pub model: PowerModel,
    /// Quality statistics of `model` evaluated on `dataset`.
    pub quality: ModelQuality,
}

impl SelectionOptions {
    /// The paper's configuration: selection restricted to the
    /// gem5-compatible event pool, everything else default. This is what
    /// both the CLI and the service use.
    pub fn gem5_restricted() -> SelectionOptions {
        SelectionOptions {
            restricted_pool: Some(selection::gem5_compatible_pool()),
            ..SelectionOptions::default()
        }
    }
}

/// Characterises `cluster` over `workloads` at every DVFS point, selects
/// events per `opts`, fits and scores the power model.
///
/// Deterministic: the same inputs produce bit-identical datasets, terms
/// and coefficients (collection order is workload-major regardless of
/// worker-thread count), which is what lets the service coalesce
/// duplicate power-model jobs onto one execution.
///
/// # Errors
///
/// Propagates [`gemstone_stats::StatsError`] from event selection,
/// fitting or quality evaluation (e.g. degenerate regressor matrices when
/// the workload set is too small).
pub fn fit_cluster_model(
    board: &OdroidXu3,
    cluster: Cluster,
    workloads: &[WorkloadSpec],
    opts: &SelectionOptions,
) -> Result<FittedPowerModel> {
    let dataset = dataset::collect(board, cluster, workloads, cluster.frequencies());
    fit_dataset(dataset, opts)
}

/// Selects events per `opts`, fits and scores the power model on an
/// already collected characterisation dataset — the second half of
/// [`fit_cluster_model`].
///
/// # Errors
///
/// As [`fit_cluster_model`].
pub fn fit_dataset(dataset: PowerDataset, opts: &SelectionOptions) -> Result<FittedPowerModel> {
    let selection = selection::select_events(&dataset, opts)?;
    let model = PowerModel::fit(&dataset, &selection.terms)?;
    let quality = model.quality(&dataset)?;
    Ok(FittedPowerModel {
        dataset,
        selection,
        model,
        quality,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gemstone_workloads::suites;

    #[test]
    fn workflow_matches_the_hand_stitched_sequence() {
        let board = OdroidXu3::new();
        let specs: Vec<_> = suites::power_suite()
            .iter()
            .take(12)
            .map(|w| w.scaled(0.02))
            .collect();
        let opts = SelectionOptions::gem5_restricted();
        let fitted = fit_cluster_model(&board, Cluster::BigA15, &specs, &opts).unwrap();

        // Identical to running the stages by hand — the CLI's former
        // inline code path.
        let ds = dataset::collect(
            &board,
            Cluster::BigA15,
            &specs,
            Cluster::BigA15.frequencies(),
        );
        let sel = selection::select_events(&ds, &opts).unwrap();
        let model = PowerModel::fit(&ds, &sel.terms).unwrap();
        let q = model.quality(&ds).unwrap();
        assert_eq!(fitted.selection.terms, sel.terms);
        assert_eq!(fitted.quality.mape, q.mape);
        assert_eq!(fitted.model.equations(), model.equations());

        // And deterministic across invocations (the coalescing premise).
        let again = fit_cluster_model(&board, Cluster::BigA15, &specs, &opts).unwrap();
        assert_eq!(again.quality.mape, fitted.quality.mape);
    }
}
