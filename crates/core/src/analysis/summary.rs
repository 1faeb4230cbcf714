//! Headline error summary (§IV, experiment E1/E12 of DESIGN.md).
//!
//! Produces the paper's headline numbers: execution-time MAPE/MPE per
//! (model, frequency), pooled, and for the PARSEC subset, plus the
//! per-frequency MPE trend ("the MPE on both the Cortex-A7 and Cortex-A15
//! becomes gradually more positive with frequency").

use crate::collate::{time_errors, Collated};
use crate::{GemStoneError, Result};
use gemstone_platform::gem5sim::Gem5Model;

/// One row of the summary table.
#[derive(Debug, Clone)]
pub struct SummaryRow {
    /// Model evaluated.
    pub model: Gem5Model,
    /// Frequency (Hz) — `None` for the pooled row.
    pub freq_hz: Option<f64>,
    /// Workload filter this row used.
    pub subset: &'static str,
    /// Mean absolute percentage error of execution time.
    pub mape: f64,
    /// Mean (signed) percentage error.
    pub mpe: f64,
    /// Number of (workload, frequency) points.
    pub n: usize,
}

/// The full summary analysis.
#[derive(Debug, Clone)]
pub struct Summary {
    /// All rows: pooled + per-frequency + PARSEC subset, per model.
    pub rows: Vec<SummaryRow>,
}

fn row(
    records: &[&crate::collate::WorkloadRecord],
    model: Gem5Model,
    freq_hz: Option<f64>,
    subset: &'static str,
) -> Result<SummaryRow> {
    if records.is_empty() {
        return Err(GemStoneError::MissingData(format!(
            "no records for {model:?} {subset}"
        )));
    }
    let (mape, mpe) = time_errors(records.iter().copied())?;
    Ok(SummaryRow {
        model,
        freq_hz,
        subset,
        mape,
        mpe,
        n: records.len(),
    })
}

/// Computes the summary over a collated dataset.
///
/// # Errors
///
/// Returns [`GemStoneError::MissingData`] when a requested slice is empty.
pub fn analyse(collated: &Collated) -> Result<Summary> {
    let mut rows = Vec::new();
    let models: Vec<Gem5Model> = {
        let mut m: Vec<Gem5Model> = collated.records.iter().map(|r| r.model).collect();
        m.dedup();
        m.sort_by_key(|m| m.name());
        m.dedup();
        m
    };
    for model in models {
        let all = collated.for_model(model);
        rows.push(row(&all, model, None, "all")?);
        // Per frequency.
        let mut freqs: Vec<f64> = all.iter().map(|r| r.freq_hz).collect();
        freqs.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        freqs.dedup();
        for f in freqs {
            let slice = collated.slice(model, f);
            rows.push(row(&slice, model, Some(f), "all")?);
        }
        // PARSEC subset, pooled over frequencies.
        let parsec: Vec<&crate::collate::WorkloadRecord> = all
            .iter()
            .copied()
            .filter(|r| r.workload.starts_with("parsec-"))
            .collect();
        if !parsec.is_empty() {
            rows.push(row(&parsec, model, None, "parsec")?);
        }
    }
    Ok(Summary { rows })
}

impl Summary {
    /// The pooled row for a model.
    pub fn pooled(&self, model: Gem5Model) -> Option<&SummaryRow> {
        self.rows
            .iter()
            .find(|r| r.model == model && r.freq_hz.is_none() && r.subset == "all")
    }

    /// The row for a model at one frequency.
    pub fn at(&self, model: Gem5Model, freq_hz: f64) -> Option<&SummaryRow> {
        self.rows.iter().find(|r| {
            r.model == model
                && r.subset == "all"
                && r.freq_hz.is_some_and(|f| (f - freq_hz).abs() < 1.0)
        })
    }

    /// Per-frequency MPE trend for a model (ascending frequency).
    pub fn mpe_trend(&self, model: Gem5Model) -> Vec<(f64, f64)> {
        let mut t: Vec<(f64, f64)> = self
            .rows
            .iter()
            .filter(|r| r.model == model && r.subset == "all")
            .filter_map(|r| r.freq_hz.map(|f| (f, r.mpe)))
            .collect();
        t.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite"));
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collate::Collated;
    use crate::experiment::{run_over, ExperimentConfig};
    use gemstone_platform::dvfs::Cluster;
    use gemstone_workloads::suites;

    fn collated() -> Collated {
        let cfg = ExperimentConfig {
            workload_scale: 0.03,
            clusters: vec![Cluster::BigA15],
            models: vec![Gem5Model::Ex5BigOld],
            ..ExperimentConfig::default()
        };
        let wl = [
            "mi-bitcount",
            "mi-stringsearch",
            "parsec-canneal-1",
            "parsec-swaptions-4",
            "mi-dijkstra",
        ]
        .iter()
        .map(|n| suites::by_name(n).unwrap().scaled(0.03))
        .collect();
        Collated::build(&run_over(&cfg, wl))
    }

    #[test]
    fn summary_has_expected_rows() {
        let s = analyse(&collated()).unwrap();
        let pooled = s.pooled(Gem5Model::Ex5BigOld).unwrap();
        assert_eq!(pooled.n, 20); // 5 workloads × 4 freqs
        assert!(s.at(Gem5Model::Ex5BigOld, 1.0e9).is_some());
        // PARSEC subset row exists.
        assert!(s.rows.iter().any(|r| r.subset == "parsec"));
    }

    #[test]
    fn old_model_overestimates_time_on_branchy_set() {
        let s = analyse(&collated()).unwrap();
        let at_1ghz = s.at(Gem5Model::Ex5BigOld, 1.0e9).unwrap();
        assert!(at_1ghz.mpe < 0.0, "mpe = {}", at_1ghz.mpe);
        assert!(at_1ghz.mape >= at_1ghz.mpe.abs());
    }

    #[test]
    fn mpe_becomes_more_positive_with_frequency() {
        // The DRAM-latency error mechanism: at higher frequency the model's
        // too-low memory latency flatters it more.
        let s = analyse(&collated()).unwrap();
        let trend = s.mpe_trend(Gem5Model::Ex5BigOld);
        assert_eq!(trend.len(), 4);
        assert!(
            trend.last().unwrap().1 > trend.first().unwrap().1,
            "trend = {trend:?}"
        );
    }

    #[test]
    fn empty_collated_errors() {
        let c = Collated::default();
        assert!(analyse(&c).is_ok()); // no models → no rows, not an error
        assert!(analyse(&c).unwrap().rows.is_empty());
    }
}
