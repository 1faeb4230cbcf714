//! Collation of hardware and gem5 results — box (f) of Fig. 1.
//!
//! Joins every hardware run with the corresponding gem5 run into a
//! [`WorkloadRecord`] carrying the execution-time error (with the paper's
//! sign convention) plus both sides' event data, ready for the statistical
//! analyses.

use crate::experiment::ValidationData;
use gemstone_platform::board::HwRun;
use gemstone_platform::dvfs::{nearest_frequency, Cluster};
use gemstone_platform::gem5sim::{Gem5Model, Gem5Run};
use gemstone_stats::metrics::{mape, mpe, percentage_error};
use gemstone_uarch::pmu::EventCode;
use std::collections::{BTreeMap, HashMap};
use std::sync::OnceLock;

/// One joined (workload, cluster, frequency, model) record.
#[derive(Debug, Clone)]
pub struct WorkloadRecord {
    /// Workload name.
    pub workload: String,
    /// Hardware cluster / model target.
    pub cluster: Cluster,
    /// gem5 model compared against.
    pub model: Gem5Model,
    /// Core frequency (Hz).
    pub freq_hz: f64,
    /// Software threads.
    pub threads: u32,
    /// Measured hardware execution time (s).
    pub hw_time_s: f64,
    /// Simulated gem5 execution time (s).
    pub gem5_time_s: f64,
    /// Execution-time percentage error,
    /// `(hw − gem5)/hw × 100` — negative when the model overestimates
    /// execution time (underestimates performance), matching §IV.
    pub time_pe: f64,
    /// Hardware PMC counts.
    pub hw_pmc: BTreeMap<EventCode, f64>,
    /// gem5 statistics dump.
    pub gem5_stats: BTreeMap<String, f64>,
    /// gem5 counts mapped to PMU event numbering.
    pub gem5_pmu: BTreeMap<EventCode, f64>,
    /// Measured hardware power (W).
    pub hw_power_w: f64,
}

impl WorkloadRecord {
    /// Joins a gem5 run with the hardware run of its model's cluster at
    /// the same frequency.
    pub fn join(hw: &HwRun, g5: &Gem5Run) -> WorkloadRecord {
        WorkloadRecord {
            workload: g5.workload.clone(),
            cluster: g5.model.cluster(),
            model: g5.model,
            freq_hz: g5.freq_hz,
            threads: hw.threads,
            hw_time_s: hw.time_s,
            gem5_time_s: g5.time_s,
            time_pe: percentage_error(hw.time_s, g5.time_s),
            hw_pmc: hw.pmc.clone(),
            gem5_stats: g5.stats_map.clone(),
            gem5_pmu: g5.pmu_equiv.clone(),
            hw_power_w: hw.power_w,
        }
    }

    /// Hardware PMC rate (events / measured second).
    pub fn hw_rate(&self, code: EventCode) -> f64 {
        self.hw_pmc.get(&code).copied().unwrap_or(0.0) / self.hw_time_s
    }

    /// gem5 equivalent-event rate (events / simulated second).
    pub fn gem5_rate(&self, code: EventCode) -> f64 {
        self.gem5_pmu.get(&code).copied().unwrap_or(0.0) / self.gem5_time_s
    }
}

/// Execution-time `(MAPE, MPE)` (%) of `records`, in iteration order.
///
/// # Errors
///
/// Propagates the metric errors (an empty set among them).
pub fn time_errors<'a>(
    records: impl IntoIterator<Item = &'a WorkloadRecord>,
) -> gemstone_stats::Result<(f64, f64)> {
    let (hw, g5): (Vec<f64>, Vec<f64>) = records
        .into_iter()
        .map(|r| (r.hw_time_s, r.gem5_time_s))
        .unzip();
    Ok((mape(&hw, &g5)?, mpe(&hw, &g5)?))
}

/// The full collated dataset.
///
/// Slicing by model and frequency goes through an index built once per
/// instance (lazily after deserialisation), replacing the per-call linear
/// scans the analyses used to pay on every lookup.
#[derive(Debug, Clone, Default)]
pub struct Collated {
    /// All joined records.
    pub records: Vec<WorkloadRecord>,
    /// Lookup structures over `records`. Not serialised, and rebuilt on
    /// first use after a round-trip.
    index: OnceLock<CollatedIndex>,
}

#[derive(Debug, Clone, Default)]
struct CollatedIndex {
    /// Distinct frequencies, ascending.
    freqs: Vec<f64>,
    /// Record indices per model, in record order.
    by_model: HashMap<Gem5Model, Vec<usize>>,
    /// Record indices per (model, exact frequency bits), in record order.
    by_model_freq: HashMap<(Gem5Model, u64), Vec<usize>>,
    /// Distinct workload names, first-seen order.
    workloads: Vec<String>,
}

impl Collated {
    /// Wraps pre-joined records, building the lookup index eagerly.
    pub fn from_records(records: Vec<WorkloadRecord>) -> Collated {
        let c = Collated {
            records,
            index: OnceLock::new(),
        };
        let _ = c.index();
        c
    }

    fn index(&self) -> &CollatedIndex {
        self.index.get_or_init(|| {
            let mut by_model: HashMap<Gem5Model, Vec<usize>> = HashMap::new();
            let mut by_model_freq: HashMap<(Gem5Model, u64), Vec<usize>> = HashMap::new();
            let mut freqs: Vec<f64> = Vec::new();
            let mut seen = std::collections::BTreeSet::new();
            let mut workloads = Vec::new();
            for (i, r) in self.records.iter().enumerate() {
                by_model.entry(r.model).or_default().push(i);
                by_model_freq
                    .entry((r.model, r.freq_hz.to_bits()))
                    .or_default()
                    .push(i);
                freqs.push(r.freq_hz);
                if seen.insert(r.workload.clone()) {
                    workloads.push(r.workload.clone());
                }
            }
            freqs.sort_by(f64::total_cmp);
            freqs.dedup();
            CollatedIndex {
                freqs,
                by_model,
                by_model_freq,
                workloads,
            }
        })
    }

    /// Joins hardware and gem5 runs. Each gem5 run is matched with the
    /// hardware run of the model's target cluster at the same frequency;
    /// unmatched runs are skipped.
    pub fn build(data: &ValidationData) -> Collated {
        let records = data
            .gem5_runs
            .iter()
            .filter_map(|g5| {
                let hw = data.hw(&g5.workload, g5.model.cluster(), g5.freq_hz)?;
                Some(WorkloadRecord::join(hw, g5))
            })
            .collect();
        Collated::from_records(records)
    }

    /// Records for one (model, frequency) slice, in workload order
    /// (indexed; matches within 1 Hz).
    pub fn slice(&self, model: Gem5Model, freq_hz: f64) -> Vec<&WorkloadRecord> {
        let idx = self.index();
        let Some(f) = nearest_frequency(&idx.freqs, freq_hz) else {
            return Vec::new();
        };
        idx.by_model_freq
            .get(&(model, f.to_bits()))
            .map(|is| is.iter().map(|&i| &self.records[i]).collect())
            .unwrap_or_default()
    }

    /// Records for one model at every frequency.
    pub fn for_model(&self, model: Gem5Model) -> Vec<&WorkloadRecord> {
        self.index()
            .by_model
            .get(&model)
            .map(|is| is.iter().map(|&i| &self.records[i]).collect())
            .unwrap_or_default()
    }

    /// Distinct workload names, in first-seen order.
    pub fn workloads(&self) -> Vec<&str> {
        self.index().workloads.iter().map(String::as_str).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::{run_over, ExperimentConfig};
    use gemstone_workloads::suites;

    fn small_collated() -> Collated {
        let cfg = ExperimentConfig {
            workload_scale: 0.02,
            clusters: vec![Cluster::BigA15],
            models: vec![Gem5Model::Ex5BigOld, Gem5Model::Ex5BigFixed],
            ..ExperimentConfig::default()
        };
        let wl = ["mi-sha", "mi-bitcount", "par-basicmath-rad2deg"]
            .iter()
            .map(|n| suites::by_name(n).unwrap().scaled(0.02))
            .collect();
        Collated::build(&run_over(&cfg, wl))
    }

    #[test]
    fn build_joins_all_runs() {
        let c = small_collated();
        // 3 workloads × 2 models × 4 freqs.
        assert_eq!(c.records.len(), 24);
        assert_eq!(c.workloads().len(), 3);
        assert_eq!(c.slice(Gem5Model::Ex5BigOld, 1.0e9).len(), 3);
        assert_eq!(c.for_model(Gem5Model::Ex5BigFixed).len(), 12);
    }

    #[test]
    fn sign_convention() {
        let c = small_collated();
        // The pathological workload: the old model grossly overestimates
        // execution time → strongly negative error.
        let r = c
            .slice(Gem5Model::Ex5BigOld, 1.0e9)
            .into_iter()
            .find(|r| r.workload == "par-basicmath-rad2deg")
            .unwrap();
        assert!(r.time_pe < -50.0, "pe = {}", r.time_pe);
        assert!(r.gem5_time_s > r.hw_time_s);
    }

    #[test]
    fn rates_are_positive() {
        let c = small_collated();
        for r in &c.records {
            assert!(r.hw_rate(gemstone_uarch::pmu::INST_RETIRED) > 0.0);
            assert!(r.gem5_rate(gemstone_uarch::pmu::INST_RETIRED) > 0.0);
        }
    }
}
