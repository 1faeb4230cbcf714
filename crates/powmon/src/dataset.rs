//! Power-characterisation datasets: one observation per
//! (workload, frequency) with measured power and PMC event rates.
//!
//! [`collect`] runs the characterisation sweep in parallel over workloads
//! on [`gemstone_stats::threads::parallel_map_with`]; observations always
//! come back in the deterministic workload-major, frequency-minor order
//! regardless of scheduling, because every curve lands in its workload's
//! slot and every board run is itself deterministic.
//!
//! # Examples
//!
//! ```
//! use gemstone_powmon::dataset::PowerObservation;
//! use std::collections::BTreeMap;
//!
//! let obs = PowerObservation {
//!     workload: "mi-sha".into(),
//!     freq_hz: 1.0e9,
//!     voltage: 0.99,
//!     power_w: 1.2,
//!     time_s: 0.01,
//!     rates: BTreeMap::new(),
//! };
//! assert_eq!(obs.rate(0x11), 0.0);
//! ```

use gemstone_platform::board::{HwRun, OdroidXu3};
use gemstone_platform::dvfs::{nearest_frequency, Cluster};
use gemstone_stats::threads::parallel_map_with;
use gemstone_uarch::backend::TierConfig;
use gemstone_uarch::pmu::EventCode;
use gemstone_workloads::spec::WorkloadSpec;
use std::collections::{BTreeMap, HashMap};
use std::sync::OnceLock;

/// Process-wide count of characterisation grid points simulated
/// (`powmon.collect.runs` in the metrics registry).
fn collect_runs_counter() -> &'static gemstone_obs::Counter {
    static C: OnceLock<std::sync::Arc<gemstone_obs::Counter>> = OnceLock::new();
    C.get_or_init(|| gemstone_obs::Registry::global().counter("powmon.collect.runs"))
}

/// One (workload, DVFS point) power observation.
#[derive(Debug, Clone)]
pub struct PowerObservation {
    /// Workload name.
    pub workload: String,
    /// Core frequency (Hz).
    pub freq_hz: f64,
    /// Supply voltage (V) at this operating point.
    pub voltage: f64,
    /// Measured average power (W).
    pub power_w: f64,
    /// Measured execution time of one workload run (s).
    pub time_s: f64,
    /// PMC event rates (events per second).
    pub rates: BTreeMap<EventCode, f64>,
}

impl PowerObservation {
    /// Rate of one event (0 when not captured).
    pub fn rate(&self, code: EventCode) -> f64 {
        self.rates.get(&code).copied().unwrap_or(0.0)
    }
}

/// A power-characterisation dataset for one cluster.
#[derive(Debug, Clone)]
pub struct PowerDataset {
    /// Cluster the data came from.
    pub cluster: Cluster,
    /// All observations.
    pub observations: Vec<PowerObservation>,
    /// Per-frequency index over `observations`, built once and consulted
    /// by [`PowerDataset::at_frequency`] / [`PowerDataset::frequencies`].
    freq_index: OnceLock<FreqIndex>,
}

#[derive(Debug, Clone, Default)]
struct FreqIndex {
    /// Distinct frequencies, ascending.
    freqs: Vec<f64>,
    /// Observation indices per exact frequency bit pattern.
    by_freq: HashMap<u64, Vec<usize>>,
}

impl PowerDataset {
    /// Builds a dataset and its frequency index.
    pub fn new(cluster: Cluster, observations: Vec<PowerObservation>) -> Self {
        let ds = PowerDataset {
            cluster,
            observations,
            freq_index: OnceLock::new(),
        };
        let _ = ds.index();
        ds
    }

    fn index(&self) -> &FreqIndex {
        self.freq_index.get_or_init(|| {
            let mut by_freq: HashMap<u64, Vec<usize>> = HashMap::new();
            for (i, o) in self.observations.iter().enumerate() {
                by_freq.entry(o.freq_hz.to_bits()).or_default().push(i);
            }
            let mut freqs: Vec<f64> = by_freq.keys().map(|&b| f64::from_bits(b)).collect();
            freqs.sort_by(f64::total_cmp);
            FreqIndex { freqs, by_freq }
        })
    }

    /// Distinct frequencies present, ascending.
    pub fn frequencies(&self) -> Vec<f64> {
        self.index().freqs.clone()
    }

    /// Observations at one frequency (indexed; matches within 1 Hz).
    pub fn at_frequency(&self, freq_hz: f64) -> Vec<&PowerObservation> {
        let idx = self.index();
        let Some(f) = nearest_frequency(&idx.freqs, freq_hz) else {
            return Vec::new();
        };
        idx.by_freq
            .get(&f.to_bits())
            .map(|is| is.iter().map(|&i| &self.observations[i]).collect())
            .unwrap_or_default()
    }

    /// Event codes that appear in every observation.
    pub fn common_events(&self) -> Vec<EventCode> {
        let Some(first) = self.observations.first() else {
            return Vec::new();
        };
        first
            .rates
            .keys()
            .copied()
            .filter(|c| self.observations.iter().all(|o| o.rates.contains_key(c)))
            .collect()
    }
}

/// Runs the power-characterisation experiment (boxes *c*/*d* of the paper's
/// Fig. 1): every workload at every frequency on one cluster, in parallel
/// over the shared [`gemstone_stats::threads::worker_threads`] pool size
/// (`GEMSTONE_THREADS` overrides it).
pub fn collect(
    board: &OdroidXu3,
    cluster: Cluster,
    workloads: &[WorkloadSpec],
    freqs: &[f64],
) -> PowerDataset {
    collect_with_threads(
        board,
        cluster,
        workloads,
        freqs,
        gemstone_stats::threads::worker_threads(),
    )
}

/// [`collect`] with an explicit worker-thread count (`1` = serial). The
/// observation order — workload-major, frequency-minor — and every value
/// are identical for any thread count.
pub fn collect_with_threads(
    board: &OdroidXu3,
    cluster: Cluster,
    workloads: &[WorkloadSpec],
    freqs: &[f64],
    threads: usize,
) -> PowerDataset {
    let _span = gemstone_obs::span::span("powmon.collect");
    collect_runs_counter().add((workloads.len() * freqs.len()) as u64);
    // One work item per workload: its whole frequency curve comes from a
    // single fused grid replay (decode once, one lane per DVFS point).
    let curves = parallel_map_with(threads, workloads, |_, spec| {
        let runs = board.run_grid_tier(spec, cluster, freqs, TierConfig::default());
        freqs
            .iter()
            .zip(&runs)
            .map(|(&f, run)| observation_from(cluster, spec, f, run))
            .collect::<Vec<_>>()
    });
    PowerDataset::new(cluster, curves.into_iter().flatten().collect())
}

/// Turns one board run into a power observation. Rates are per second of
/// the measurement window, which is only partly busy.
fn observation_from(
    cluster: Cluster,
    spec: &WorkloadSpec,
    freq_hz: f64,
    run: &HwRun,
) -> PowerObservation {
    let rates = run
        .pmc
        .iter()
        .map(|(&code, &count)| (code, count / run.time_s * run.power_utilization))
        .collect();
    PowerObservation {
        workload: spec.name.clone(),
        freq_hz,
        voltage: cluster.voltage(freq_hz),
        power_w: run.power_w,
        time_s: run.time_s,
        rates,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gemstone_workloads::suites;

    fn tiny_dataset() -> PowerDataset {
        let board = OdroidXu3::new();
        let specs: Vec<WorkloadSpec> = ["mi-sha", "mi-crc32", "whet-whetstone"]
            .iter()
            .map(|n| suites::by_name(n).unwrap().scaled(0.05))
            .collect();
        collect(&board, Cluster::LittleA7, &specs, &[600.0e6, 1000.0e6])
    }

    #[test]
    fn collect_produces_full_grid() {
        let ds = tiny_dataset();
        assert_eq!(ds.observations.len(), 6);
        assert_eq!(ds.frequencies(), vec![600.0e6, 1000.0e6]);
        assert_eq!(ds.at_frequency(600.0e6).len(), 3);
        assert_eq!(ds.at_frequency(123.0).len(), 0);
    }

    #[test]
    fn observations_are_physical() {
        let ds = tiny_dataset();
        for o in &ds.observations {
            assert!(o.power_w > 0.0, "{}: {}", o.workload, o.power_w);
            assert!(o.time_s > 0.0);
            assert!(o.voltage > 0.5 && o.voltage < 1.5);
            assert!(o.rate(gemstone_uarch::pmu::CPU_CYCLES) > 0.0);
        }
    }

    #[test]
    fn parallel_equals_serial_in_order_and_values() {
        let board = OdroidXu3::new();
        let specs: Vec<WorkloadSpec> = ["mi-sha", "mi-crc32", "whet-whetstone"]
            .iter()
            .map(|n| suites::by_name(n).unwrap().scaled(0.05))
            .collect();
        let freqs = [600.0e6, 1000.0e6];
        let ser = collect_with_threads(&board, Cluster::LittleA7, &specs, &freqs, 1);
        let par = collect_with_threads(&board, Cluster::LittleA7, &specs, &freqs, 4);
        assert_eq!(ser.observations.len(), par.observations.len());
        for (a, b) in ser.observations.iter().zip(&par.observations) {
            assert_eq!(a.workload, b.workload);
            assert_eq!(a.freq_hz, b.freq_hz);
            assert_eq!(a.power_w, b.power_w);
            assert_eq!(a.time_s, b.time_s);
            assert_eq!(a.rates, b.rates);
        }
    }

    #[test]
    fn common_events_nonempty() {
        let ds = tiny_dataset();
        let evs = ds.common_events();
        assert!(evs.len() >= 60);
        assert!(evs.contains(&gemstone_uarch::pmu::INST_RETIRED));
    }

    #[test]
    fn higher_frequency_higher_power() {
        let ds = tiny_dataset();
        for w in ["mi-sha", "mi-crc32"] {
            let lo = ds
                .observations
                .iter()
                .find(|o| o.workload == w && o.freq_hz == 600.0e6)
                .unwrap();
            let hi = ds
                .observations
                .iter()
                .find(|o| o.workload == w && o.freq_hz == 1000.0e6)
                .unwrap();
            assert!(hi.power_w > lo.power_w, "{w}");
        }
    }
}
