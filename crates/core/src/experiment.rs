//! Experiment drivers — boxes (a)–(e) of the paper's Fig. 1.
//!
//! Runs the hardware characterisation (Experiment 1) and the gem5 model
//! simulations (Experiment 2) over the validation workload set, in
//! parallel across workloads.
//!
//! # Examples
//!
//! ```no_run
//! use gemstone_core::experiment::{run_validation, ExperimentConfig};
//!
//! let data = run_validation(&ExperimentConfig::default());
//! assert!(!data.hw_runs.is_empty());
//! ```

use crate::collate::{Collated, WorkloadRecord};
use gemstone_platform::board::{HwRun, OdroidXu3};
use gemstone_platform::dvfs::{nearest_frequency, Cluster};
use gemstone_platform::fault::{FaultError, FaultInjector, QuarantinedWorkload, RetryPolicy};
use gemstone_platform::gem5sim::{Gem5Model, Gem5Run, Gem5Sim};
use gemstone_stats::threads::parallel_map_with;
use gemstone_uarch::backend::TierConfig;
use gemstone_uarch::core::CoreConfig;
use gemstone_workloads::spec::WorkloadSpec;
use gemstone_workloads::suites;
use std::cmp::Ordering;
use std::collections::HashMap;
use std::sync::{Mutex, PoisonError};

/// Configuration of a validation campaign.
#[derive(Debug, Clone)]
pub struct ExperimentConfig {
    /// Board instance (measurement conditions). Its
    /// [`cache`](OdroidXu3::cache) is the campaign's simulation cache:
    /// every hardware and gem5 run of the campaign memoises into it.
    pub board: OdroidXu3,
    /// Scale factor on every workload's instruction budget (1.0 = the
    /// suite defaults; lower is faster, coarser).
    pub workload_scale: f64,
    /// Clusters to characterise.
    pub clusters: Vec<Cluster>,
    /// gem5 models to simulate.
    pub models: Vec<Gem5Model>,
    /// Worker threads for the parallel sweep. Defaults to the shared
    /// [`gemstone_stats::threads::worker_threads`] knob (`GEMSTONE_THREADS`).
    pub threads: usize,
    /// Execution-fidelity tier every engine run in the campaign uses
    /// (cycle-approximate by default).
    pub fidelity: TierConfig,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        ExperimentConfig {
            board: OdroidXu3::new(),
            workload_scale: 1.0,
            clusters: vec![Cluster::LittleA7, Cluster::BigA15],
            models: vec![
                Gem5Model::Ex5Little,
                Gem5Model::Ex5BigOld,
                Gem5Model::Ex5BigFixed,
            ],
            threads: gemstone_stats::threads::worker_threads(),
            fidelity: TierConfig::default(),
        }
    }
}

impl ExperimentConfig {
    /// A configuration scaled for fast tests.
    pub fn quick() -> Self {
        ExperimentConfig {
            workload_scale: 0.05,
            ..ExperimentConfig::default()
        }
    }
}

/// Raw data from the validation experiments.
///
/// Lookups by (workload, cluster/model, frequency) go through hash-map
/// indexes built once at construction, so collation over the full grid is
/// linear instead of quadratic. The run vectors are public for iteration;
/// if they are mutated, the indexes are *not* rebuilt — construct a fresh
/// [`ValidationData::new`] instead.
#[derive(Debug)]
pub struct ValidationData {
    /// Hardware runs: every workload × cluster × DVFS point.
    pub hw_runs: Vec<HwRun>,
    /// gem5 runs: every workload × model × DVFS point of the model's
    /// cluster.
    pub gem5_runs: Vec<Gem5Run>,
    /// The workload set used.
    pub workloads: Vec<WorkloadSpec>,
    hw_index: HashMap<String, HashMap<(Cluster, u64), usize>>,
    gem5_index: HashMap<String, HashMap<(Gem5Model, u64), usize>>,
    hw_freqs: Vec<f64>,
    gem5_freqs: Vec<f64>,
}

impl ValidationData {
    /// Assembles the dataset and builds the lookup indexes.
    pub fn new(hw_runs: Vec<HwRun>, gem5_runs: Vec<Gem5Run>, workloads: Vec<WorkloadSpec>) -> Self {
        let mut hw_index: HashMap<String, HashMap<(Cluster, u64), usize>> = HashMap::new();
        let mut hw_freqs = Vec::new();
        for (i, r) in hw_runs.iter().enumerate() {
            hw_index
                .entry(r.workload.clone())
                .or_default()
                .entry((r.cluster, r.freq_hz.to_bits()))
                .or_insert(i);
            hw_freqs.push(r.freq_hz);
        }
        let mut gem5_index: HashMap<String, HashMap<(Gem5Model, u64), usize>> = HashMap::new();
        let mut gem5_freqs = Vec::new();
        for (i, r) in gem5_runs.iter().enumerate() {
            gem5_index
                .entry(r.workload.clone())
                .or_default()
                .entry((r.model, r.freq_hz.to_bits()))
                .or_insert(i);
            gem5_freqs.push(r.freq_hz);
        }
        ValidationData {
            hw_runs,
            gem5_runs,
            workloads,
            hw_index,
            gem5_index,
            hw_freqs: distinct_sorted(hw_freqs),
            gem5_freqs: distinct_sorted(gem5_freqs),
        }
    }

    /// Finds the hardware run for (workload, cluster, freq).
    pub fn hw(&self, workload: &str, cluster: Cluster, freq_hz: f64) -> Option<&HwRun> {
        let f = nearest_frequency(&self.hw_freqs, freq_hz)?;
        let i = *self.hw_index.get(workload)?.get(&(cluster, f.to_bits()))?;
        self.hw_runs.get(i)
    }

    /// Finds the gem5 run for (workload, model, freq).
    pub fn gem5(&self, workload: &str, model: Gem5Model, freq_hz: f64) -> Option<&Gem5Run> {
        let f = nearest_frequency(&self.gem5_freqs, freq_hz)?;
        let i = *self.gem5_index.get(workload)?.get(&(model, f.to_bits()))?;
        self.gem5_runs.get(i)
    }
}

fn distinct_sorted(mut fs: Vec<f64>) -> Vec<f64> {
    fs.sort_by(f64::total_cmp);
    fs.dedup();
    fs
}

/// Runs Experiments 1 and 2 over the 45-workload validation set.
pub fn run_validation(cfg: &ExperimentConfig) -> ValidationData {
    let workloads: Vec<WorkloadSpec> = suites::validation_suite()
        .iter()
        .map(|w| w.scaled(cfg.workload_scale))
        .collect();
    run_over(cfg, workloads)
}

/// Runs the same experiments over an arbitrary workload list (used by the
/// examples and the tests).
///
/// The sweep fans out over *workloads* on `cfg.threads` workers; each
/// (cluster, workload) column is one fused grid replay on its worker's
/// thread. It never consults a fault injector: the fault-aware sweep is
/// [`crate::resilience::collect_resilient`].
pub fn run_over(cfg: &ExperimentConfig, workloads: Vec<WorkloadSpec>) -> ValidationData {
    let no_faults = FaultInjector::disabled();
    let retry = RetryPolicy::default();
    let specs: Vec<&WorkloadSpec> = workloads.iter().collect();
    // Each worker hands its workload's runs over under one lock as soon
    // as they are done. Holding every workload's batch until the sweep
    // ends and concatenating then would keep two copies of the run
    // records alive at once (about 1 MiB more peak RSS on the atomic
    // validation at scale 4).
    let runs = Mutex::new((Vec::new(), Vec::new()));
    sweep(cfg, &specs, |spec| {
        let (hw, g5) = characterise_workload(cfg, spec, &no_faults, &retry)
            .expect("a disabled fault injector never quarantines");
        let mut guard = runs.lock().unwrap_or_else(PoisonError::into_inner);
        guard.0.extend(hw);
        guard.1.extend(g5);
    });
    // Workers finish in scheduling order, and the list need not be sorted
    // by name: restore the global order before the data leaves the
    // experiment layer, so collation and persisted artefacts are stable
    // across runs, thread counts and list orders.
    let (mut hw_runs, mut gem5_runs) = runs.into_inner().unwrap_or_else(PoisonError::into_inner);
    hw_runs.sort_by(hw_order);
    gem5_runs.sort_by(gem5_order);
    ValidationData::new(hw_runs, gem5_runs, workloads)
}

/// Scores model variants against the hardware, the what-if studies'
/// evaluator (E13 ablation, X7 improve loop): one `sweep` over
/// `workloads` takes each workload's A15 board run at `freq_hz` once and
/// simulates every variant config against it, reported under
/// [`Gem5Model::Ex5BigOld`]. Returns one [`Collated`] per variant, in
/// `variants` order, with its records in workload order.
///
/// The studies compare variants with the reference tier, so every run
/// here is at [`TierConfig::default`], whatever `cfg.fidelity` says.
pub fn run_variants(
    cfg: &ExperimentConfig,
    workloads: &[WorkloadSpec],
    variants: &[CoreConfig],
    freq_hz: f64,
) -> Vec<Collated> {
    let cfg = ExperimentConfig {
        fidelity: TierConfig::default(),
        ..cfg.clone()
    };
    let specs: Vec<&WorkloadSpec> = workloads.iter().collect();
    let mut rows: Vec<_> = sweep(&cfg, &specs, |spec| {
        // Every variant replays the workload: generate its trace once.
        let _hold = cfg.board.cache.trace_cache().hold(spec);
        let hw = cfg.board.run(spec, Cluster::BigA15, freq_hz);
        variants
            .iter()
            .map(|v| {
                let g5 = Gem5Sim::run_config(
                    &cfg.board.cache,
                    spec,
                    Gem5Model::Ex5BigOld,
                    v.clone(),
                    freq_hz,
                    cfg.fidelity,
                );
                WorkloadRecord::join(&hw, &g5)
            })
            .collect::<Vec<_>>()
            .into_iter()
    });
    // Each workload's row holds one record per variant, in variant order:
    // a variant's records are the next record of every row.
    variants
        .iter()
        .map(|_| {
            let records = rows
                .iter_mut()
                .map(|row| row.next().expect("one per variant"));
            Collated::from_records(records.collect())
        })
        .collect()
}

/// Runs `per_workload` over `workloads` on `cfg.threads` workers, inside
/// one `experiment.sweep` span with an `experiment.workload` child per
/// workload, keeping the `sweep.queue.depth` gauge current. Returns the
/// per-workload values in workload order.
pub(crate) fn sweep<U: Send>(
    cfg: &ExperimentConfig,
    workloads: &[&WorkloadSpec],
    per_workload: impl Fn(&WorkloadSpec) -> U + Sync,
) -> Vec<U> {
    let threads = cfg.threads.max(1);
    let tier = cfg.fidelity.fidelity.name();
    // The sweep span is this run's profile root; workers attach their
    // per-workload spans to it by explicit id, since the span nesting
    // stack is thread-local and cannot follow the work onto a worker.
    let sweep_span = gemstone_obs::span::span("experiment.sweep")
        .attr("workloads", workloads.len())
        .attr("threads", threads)
        .attr("tier", tier);
    let sweep_id = sweep_span.id();
    let queue_depth = gemstone_obs::Registry::global().gauge("sweep.queue.depth");
    queue_depth.set(workloads.len() as f64);
    parallel_map_with(threads, workloads, |i, spec| {
        queue_depth.set(workloads.len().saturating_sub(i + 1) as f64);
        let _wl_span = gemstone_obs::span::span_with_parent("experiment.workload", sweep_id)
            .attr("workload", &spec.name)
            .attr("tier", tier);
        per_workload(spec)
    })
}

/// Characterises one workload over the full cluster/model × frequency
/// grid: one fused grid replay per cluster and per model column, under one
/// hold on the workload's packed trace, so the columns that miss the
/// simulation memo generate it once between them. Returns
/// the workload's hardware and gem5 runs, each sorted by
/// ([`hw_order`], [`gem5_order`]), or the quarantine verdict if a grid
/// point exhausted its retry budget.
///
/// With `faults` active, every grid point of a column is vetted (with
/// per-point retries) before the column is replayed. Faults fire before
/// any simulation or RNG work, so a workload that passes vetting yields
/// exactly the fault-free runs, and a quarantined workload never costs a
/// simulation. With `faults` inactive, vetting is skipped outright.
pub(crate) fn characterise_workload(
    cfg: &ExperimentConfig,
    spec: &WorkloadSpec,
    faults: &FaultInjector,
    retry: &RetryPolicy,
) -> Result<(Vec<HwRun>, Vec<Gem5Run>), QuarantinedWorkload> {
    let vet = |column: &str,
               freqs: &[f64],
               check: &dyn Fn(f64, u32) -> Result<(), FaultError>|
     -> Result<(), QuarantinedWorkload> {
        if !faults.is_active() {
            return Ok(());
        }
        for &f in freqs {
            let key = format!("{}:{column}:{f:.0}", spec.name);
            retry
                .run(&key, |attempt| check(f, attempt))
                .map_err(|e| QuarantinedWorkload {
                    workload: spec.name.clone(),
                    site: e.error.site.name().to_string(),
                    attempts: e.attempts,
                    reason: e.to_string(),
                })?;
        }
        Ok(())
    };

    let _hold = cfg.board.cache.trace_cache().hold(spec);
    let mut hw_runs = Vec::new();
    for &cluster in &cfg.clusters {
        let freqs = cluster.frequencies();
        vet(cluster.name(), freqs, &|f, attempt| {
            cfg.board.check_faults(faults, spec, cluster, f, attempt)
        })?;
        hw_runs.extend(cfg.board.run_grid_tier(spec, cluster, freqs, cfg.fidelity));
    }
    let mut gem5_runs = Vec::new();
    for &model in &cfg.models {
        let freqs = model.cluster().frequencies();
        vet(model.name(), freqs, &|f, attempt| {
            Gem5Sim::check_faults(faults, spec, model, f, attempt)
        })?;
        gem5_runs.extend(Gem5Sim::run_grid(
            &cfg.board.cache,
            spec,
            model,
            freqs,
            cfg.fidelity,
        ));
    }
    hw_runs.sort_by(hw_order);
    gem5_runs.sort_by(gem5_order);
    Ok((hw_runs, gem5_runs))
}

/// The canonical hardware-run order: (workload, cluster name, frequency).
/// Within one workload it orders by (cluster, frequency), so per-workload
/// slices concatenated in workload-name order are in global order.
fn hw_order(a: &HwRun, b: &HwRun) -> Ordering {
    (a.workload.as_str(), a.cluster.name())
        .cmp(&(b.workload.as_str(), b.cluster.name()))
        .then(a.freq_hz.total_cmp(&b.freq_hz))
}

/// The canonical gem5-run order: (workload, model name, frequency).
fn gem5_order(a: &Gem5Run, b: &Gem5Run) -> Ordering {
    (a.workload.as_str(), a.model.name())
        .cmp(&(b.workload.as_str(), b.model.name()))
        .then(a.freq_hz.total_cmp(&b.freq_hz))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config() -> ExperimentConfig {
        ExperimentConfig {
            workload_scale: 0.02,
            clusters: vec![Cluster::BigA15],
            models: vec![Gem5Model::Ex5BigOld],
            ..ExperimentConfig::default()
        }
    }

    fn tiny_workloads() -> Vec<WorkloadSpec> {
        ["mi-sha", "mi-crc32", "mi-fft"]
            .iter()
            .map(|n| suites::by_name(n).unwrap().scaled(0.02))
            .collect()
    }

    #[test]
    fn run_over_produces_full_grid() {
        let cfg = tiny_config();
        let data = run_over(&cfg, tiny_workloads());
        // 3 workloads × 1 cluster × 4 freqs.
        assert_eq!(data.hw_runs.len(), 12);
        assert_eq!(data.gem5_runs.len(), 12);
        assert!(data.hw("mi-sha", Cluster::BigA15, 1.0e9).is_some());
        assert!(data.gem5("mi-crc32", Gem5Model::Ex5BigOld, 1.4e9).is_some());
        assert!(data.hw("nope", Cluster::BigA15, 1.0e9).is_none());
    }

    #[test]
    fn parallel_equals_serial() {
        let mut cfg = tiny_config();
        cfg.threads = 4;
        let par = run_over(&cfg, tiny_workloads());
        cfg.threads = 1;
        let ser = run_over(&cfg, tiny_workloads());
        // Same measurements regardless of scheduling.
        for r in &ser.hw_runs {
            let p = par.hw(&r.workload, r.cluster, r.freq_hz).unwrap();
            assert_eq!(p.time_s, r.time_s);
            assert_eq!(p.power_w, r.power_w);
        }
        // And the same *order*: results are sorted after the scope joins,
        // so the run vectors must be identical element for element.
        let hw_key = |r: &HwRun| (r.workload.clone(), r.cluster.name(), r.freq_hz.to_bits());
        assert_eq!(
            ser.hw_runs.iter().map(hw_key).collect::<Vec<_>>(),
            par.hw_runs.iter().map(hw_key).collect::<Vec<_>>(),
        );
        let g5_key = |r: &Gem5Run| (r.workload.clone(), r.model.name(), r.freq_hz.to_bits());
        assert_eq!(
            ser.gem5_runs.iter().map(g5_key).collect::<Vec<_>>(),
            par.gem5_runs.iter().map(g5_key).collect::<Vec<_>>(),
        );
    }

    #[test]
    fn run_variants_score_every_variant_at_the_default_tier_in_one_sweep() {
        use gemstone_obs::span::{span, SpanLog};
        use gemstone_uarch::configs::{ex5_big, Ex5Variant};

        let cfg = ExperimentConfig {
            threads: 2,
            fidelity: TierConfig::atomic(),
            ..tiny_config()
        };
        let workloads = tiny_workloads();
        let variants = [ex5_big(Ex5Variant::Old), ex5_big(Ex5Variant::Fixed)];
        gemstone_obs::set_enabled(true);
        let marker = span("test.marker").id();
        let scored = run_variants(&cfg, &workloads, &variants, 1.0e9);

        assert_eq!(scored.len(), variants.len());
        for (collated, variant) in scored.iter().zip(&variants) {
            let names: Vec<&str> = collated.records.iter().map(|r| &*r.workload).collect();
            assert_eq!(names, ["mi-sha", "mi-crc32", "mi-fft"], "workload order");
            for (r, spec) in collated.records.iter().zip(&workloads) {
                let g5 = Gem5Sim::run_config(
                    &cfg.board.cache,
                    spec,
                    Gem5Model::Ex5BigOld,
                    variant.clone(),
                    1.0e9,
                    TierConfig::default(),
                );
                let hw = cfg.board.run(spec, Cluster::BigA15, 1.0e9);
                assert_eq!(r.model, Gem5Model::Ex5BigOld);
                assert_eq!(r.gem5_time_s.to_bits(), g5.time_s.to_bits());
                assert_eq!(r.hw_time_s.to_bits(), hw.time_s.to_bits());
            }
        }
        // Tests share the span log, so keep this thread's spans only.
        let events = SpanLog::global().snapshot();
        let tid = events.iter().find(|e| e.id == marker).unwrap().tid;
        let sweeps: Vec<_> = events
            .iter()
            .filter(|e| e.id > marker && e.tid == tid && e.name == "experiment.sweep")
            .collect();
        assert_eq!(sweeps.len(), 1, "one sweep for every variant");
        let tier = sweeps[0].attrs.iter().find(|(k, _)| k == "tier");
        assert_eq!(tier.map(|(_, v)| v.as_str()), Some("approx"));
    }

    /// The default five columns (two clusters, three models) on caches of
    /// their own, so the counters see only this test.
    fn isolated() -> ExperimentConfig {
        use gemstone_platform::simcache::SimCache;
        use gemstone_workloads::trace::TraceCache;
        use std::sync::Arc;

        let mut cfg = ExperimentConfig {
            threads: 2,
            ..ExperimentConfig::default()
        };
        cfg.board.cache = Arc::new(SimCache::with_trace_cache(Arc::new(TraceCache::new())));
        cfg
    }

    #[test]
    fn a_workloads_columns_generate_its_trace_once_under_one_hold() {
        let cfg = isolated();
        let traces = cfg.board.cache.trace_cache();
        let spec = suites::by_name("mi-sha").unwrap().scaled(0.02);
        let (faults, retry) = (FaultInjector::disabled(), RetryPolicy::default());
        let cold = characterise_workload(&cfg, &spec, &faults, &retry).unwrap();
        assert_eq!(cold.0.len() + cold.1.len(), 5 * 4);
        assert_eq!(
            (traces.misses(), traces.hits()),
            (1, 4),
            "five column replays, one generation"
        );
        assert_eq!(
            (traces.len(), traces.bytes()),
            (0, 0),
            "freed with the hold"
        );
        // Every column is now a memo hit: the hold generates nothing.
        let warm = characterise_workload(&cfg, &spec, &faults, &retry).unwrap();
        assert_eq!((traces.misses(), traces.hits()), (1, 4));
        assert_eq!((traces.len(), traces.bytes()), (0, 0));
        for (a, b) in cold.0.iter().zip(&warm.0) {
            assert_eq!(a.time_s.to_bits(), b.time_s.to_bits());
        }
    }

    #[test]
    fn run_variants_generate_each_trace_once_per_workload() {
        use gemstone_uarch::configs::{ex5_big, Ex5Variant};

        let cfg = isolated();
        let traces = cfg.board.cache.trace_cache();
        let workloads = tiny_workloads();
        let variants = [ex5_big(Ex5Variant::Old), ex5_big(Ex5Variant::Fixed)];
        run_variants(&cfg, &workloads, &variants, 1.0e9);
        // Per workload: the board column and one lane per variant.
        let n = workloads.len() as u64;
        assert_eq!((traces.misses(), traces.hits()), (n, 2 * n));
        assert_eq!((traces.len(), traces.bytes()), (0, 0));
    }

    #[test]
    fn quick_config_is_scaled() {
        let q = ExperimentConfig::quick();
        assert!(q.workload_scale < 0.5);
        assert_eq!(q.clusters.len(), 2);
        assert_eq!(q.models.len(), 3);
    }
}
