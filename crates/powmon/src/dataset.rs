//! Power-characterisation datasets: one observation per
//! (workload, frequency) with measured power and PMC event rates.
//!
//! [`collect`] runs the characterisation sweep in parallel over workloads
//! on [`gemstone_stats::threads::parallel_map_with`], and
//! [`collect_clusters`] runs one sweep for several clusters; observations
//! always come back in the deterministic workload-major, frequency-minor
//! order regardless of scheduling, because every curve lands in its
//! workload's slot and every board run is itself deterministic.
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
    sweep(board, &[(cluster, freqs)], workloads, threads).remove(0)
}

/// Characterises several clusters at each one's DVFS points in one sweep
/// over `workloads`, on `threads` workers. A workload's columns on every
/// cluster replay under one hold on its packed trace, so a workload the
/// simulation memo does not cover is generated once, not once per
/// cluster. Returns one dataset per cluster, in `clusters` order, each
/// equal to [`collect_with_threads`] on that cluster alone.
pub fn collect_clusters(
    board: &OdroidXu3,
    clusters: &[Cluster],
    workloads: &[WorkloadSpec],
    threads: usize,
) -> Vec<PowerDataset> {
    let columns: Vec<(Cluster, &[f64])> = clusters.iter().map(|&c| (c, c.frequencies())).collect();
    sweep(board, &columns, workloads, threads)
}

/// The one characterisation sweep: one work item per workload, whose
/// frequency curve on each cluster comes from a single fused grid replay
/// (decode once, one lane per DVFS point). Returns one dataset per column.
fn sweep(
    board: &OdroidXu3,
    columns: &[(Cluster, &[f64])],
    workloads: &[WorkloadSpec],
    threads: usize,
) -> Vec<PowerDataset> {
    let _span = gemstone_obs::span::span("powmon.collect");
    let points: usize = columns.iter().map(|(_, freqs)| freqs.len()).sum();
    collect_runs_counter().add((workloads.len() * points) as u64);
    let curves = parallel_map_with(threads, workloads, |_, spec| {
        let _hold = board.cache.trace_cache().hold(spec);
        columns
            .iter()
            .map(|&(cluster, freqs)| {
                let runs = board.run_grid_tier(spec, cluster, freqs, TierConfig::default());
                freqs
                    .iter()
                    .zip(&runs)
                    .map(|(&f, run)| observation_from(cluster, spec, f, run))
                    .collect::<Vec<_>>()
            })
            .collect::<Vec<_>>()
    });
    let mut observations: Vec<Vec<PowerObservation>> = columns.iter().map(|_| Vec::new()).collect();
    for workload in curves {
        for (column, curve) in observations.iter_mut().zip(workload) {
            column.extend(curve);
        }
    }
    columns
        .iter()
        .zip(observations)
        .map(|(&(cluster, _), obs)| PowerDataset::new(cluster, obs))
        .collect()
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
    fn one_sweep_over_both_clusters_equals_two_and_generates_once() {
        use gemstone_platform::simcache::SimCache;
        use gemstone_workloads::trace::TraceCache;
        use std::sync::Arc;

        let isolated = || {
            let mut board = OdroidXu3::new();
            board.cache = Arc::new(SimCache::with_trace_cache(Arc::new(TraceCache::new())));
            board
        };
        let specs: Vec<WorkloadSpec> = ["mi-sha", "mi-crc32", "whet-whetstone"]
            .iter()
            .map(|n| suites::by_name(n).unwrap().scaled(0.02))
            .collect();
        let clusters = [Cluster::LittleA7, Cluster::BigA15];
        let board = isolated();
        let joint = collect_clusters(&board, &clusters, &specs, 2);
        let traces = board.cache.trace_cache();
        // Two columns per workload under one hold: one generation each.
        assert_eq!((traces.misses(), traces.hits()), (3, 3));
        assert_eq!((traces.len(), traces.bytes()), (0, 0));
        assert_eq!(joint.len(), clusters.len());
        for (ds, &cluster) in joint.iter().zip(&clusters) {
            let alone =
                collect_with_threads(&isolated(), cluster, &specs, cluster.frequencies(), 1);
            assert_eq!(ds.cluster, cluster);
            assert_eq!(ds.observations.len(), alone.observations.len());
            for (a, b) in ds.observations.iter().zip(&alone.observations) {
                assert_eq!((&a.workload, a.freq_hz), (&b.workload, b.freq_hz));
                assert_eq!(a.power_w.to_bits(), b.power_w.to_bits());
                assert_eq!(a.time_s.to_bits(), b.time_s.to_bits());
                assert_eq!(a.rates, b.rates);
            }
        }
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
