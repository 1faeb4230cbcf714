//! The end-to-end GemStone pipeline.
//!
//! One call runs the full methodology of the paper: hardware
//! characterisation, gem5 simulation, collation, workload clustering,
//! error correlation/regression analyses, event comparison, power-model
//! building, power/energy evaluation, DVFS scaling, and the old-vs-fixed
//! model comparison — then renders a combined report. Independent stages
//! run concurrently (the Fig. 4 micro-benchmarks overlap the experiment
//! sweep) and join in a fixed order, so the report never depends on
//! scheduling.
//!
//! # Examples
//!
//! ```no_run
//! use gemstone_core::pipeline::{GemStone, PipelineOptions};
//!
//! let mut opts = PipelineOptions::default();
//! opts.experiment.workload_scale = 0.1; // quicker run
//! let report = GemStone::new(opts).run().unwrap();
//! println!("{}", report.render());
//! ```

use crate::analysis::{
    diagnose, error_regression, event_compare, gem5_corr, hca_workloads, improvement, microbench,
    pmc_corr, power_energy, scaling, summary,
};
use crate::collate::Collated;
use crate::experiment::{run_validation, ExperimentConfig};
use crate::Result;
use gemstone_platform::dvfs::Cluster;
use gemstone_platform::gem5sim::Gem5Model;
use gemstone_powmon::dataset;
use gemstone_powmon::fitting::fit_dataset;
use gemstone_powmon::model::{ModelQuality, PowerModel};
use gemstone_powmon::selection;
use gemstone_stats::threads::worker_threads;
use gemstone_uarch::backend::TierConfig;
use gemstone_workloads::suites;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Options for a pipeline run.
#[derive(Debug, Clone)]
pub struct PipelineOptions {
    /// Validation-experiment configuration.
    pub experiment: ExperimentConfig,
    /// Frequency used for the single-point analyses (Figs. 3/5/6/7).
    pub analysis_freq_hz: f64,
    /// Model demonstrated in the single-point analyses (the paper uses the
    /// old `ex5_big`).
    pub analysis_model: Gem5Model,
    /// Flat cluster count for the workload HCA (`None` = automatic).
    pub clusters_k: Option<usize>,
    /// Whether to build power models and run the §V/§VI analyses
    /// (the most expensive stage).
    pub with_power: bool,
}

impl Default for PipelineOptions {
    fn default() -> Self {
        PipelineOptions {
            experiment: ExperimentConfig::default(),
            analysis_freq_hz: 1.0e9,
            analysis_model: Gem5Model::Ex5BigOld,
            clusters_k: None,
            with_power: true,
        }
    }
}

/// Execution-layer cache counters, captured from the board's
/// [`gemstone_platform::simcache::SimCache`] (and the trace cache it
/// consults) at the end of a pipeline run.
#[derive(Debug, Clone, Copy)]
pub struct ExecutionStats {
    /// Simulation-memo hits (engine runs avoided entirely).
    pub sim_hits: u64,
    /// Simulation-memo misses (engine runs actually executed).
    pub sim_misses: u64,
    /// Resident simulation-memo entries.
    pub sim_entries: usize,
    /// Packed-trace cache hits (stream generations avoided).
    pub trace_hits: u64,
    /// Packed-trace cache misses (streams generated and packed).
    pub trace_misses: u64,
    /// Class-histogram memo hits (atomic-tier stream counts reused).
    pub histogram_hits: u64,
    /// Class-histogram memo misses (streams generated and counted).
    pub histogram_misses: u64,
}

/// Per-stage wall-clock timings of a pipeline run, in a fixed stage order
/// (independent of how the concurrent stages were actually scheduled).
#[derive(Debug, Clone, Default)]
pub struct StageTimings {
    /// `(stage name, wall-clock duration)` pairs.
    pub stages: Vec<(&'static str, Duration)>,
}

impl StageTimings {
    fn push(&mut self, name: &'static str, d: Duration) {
        self.stages.push((name, d));
    }

    /// Duration of one stage, if recorded.
    pub fn get(&self, name: &str) -> Option<Duration> {
        self.stages
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, d)| d)
    }

    /// Sum of all recorded stage durations (CPU-side wall clock; concurrent
    /// stages overlap, so this exceeds the pipeline's elapsed time).
    pub fn total(&self) -> Duration {
        self.stages.iter().map(|&(_, d)| d).sum()
    }
}

/// Runs a closure and pairs its result with the elapsed wall-clock time.
/// When observability is enabled ([`gemstone_obs::enabled`]), the stage is
/// also recorded as a `stage.<name>` span — nested under `pipeline.run` —
/// so exported Chrome traces show the concurrent stages per thread. The
/// name is only formatted when tracing is on.
fn timed<T>(name: &'static str, f: impl FnOnce() -> T) -> (T, Duration) {
    let _span = gemstone_obs::enabled().then(|| gemstone_obs::span::span(format!("stage.{name}")));
    let t0 = Instant::now();
    let v = f();
    (v, t0.elapsed())
}

/// The assembled results of a pipeline run.
#[derive(Debug)]
pub struct GemStoneReport {
    /// Headline error summary (§IV).
    pub summary: summary::Summary,
    /// Workload clusters + per-cluster MPE (Fig. 3).
    pub clusters: hca_workloads::WorkloadClusters,
    /// PMC↔error correlations (Fig. 5).
    pub pmc_corr: pmc_corr::PmcCorrelations,
    /// gem5-statistic↔error correlations (§IV-C), when any statistic
    /// cleared the threshold.
    pub gem5_corr: Option<gem5_corr::Gem5Correlations>,
    /// Stepwise error regression from HW PMCs (§IV-D).
    pub error_reg_hw: error_regression::ErrorRegression,
    /// Stepwise error regression from gem5 statistics (§IV-D).
    pub error_reg_gem5: error_regression::ErrorRegression,
    /// Matched-event comparison (Fig. 6).
    pub event_compare: event_compare::EventComparison,
    /// Memory-latency micro-benchmarks (Fig. 4).
    pub memory_latency: microbench::MemoryLatency,
    /// Automated error-source diagnosis (from Fig. 6 + Fig. 4 evidence).
    pub diagnosis: diagnose::Diagnosis,
    /// Fitted power models per cluster name (§V), when `with_power`.
    pub power_models: BTreeMap<&'static str, PowerModel>,
    /// Power-model quality per cluster name (§V).
    pub power_quality: BTreeMap<&'static str, ModelQuality>,
    /// Power/energy error analysis (Fig. 7 / §VI), when `with_power`.
    pub power_energy: Option<power_energy::PowerEnergy>,
    /// DVFS scaling (Fig. 8), when `with_power`.
    pub scaling: Option<scaling::Scaling>,
    /// Old-vs-fixed model comparison (§VII).
    pub improvement: improvement::Improvement,
    /// Execution-layer cache counters for this run's board cache.
    pub execution: ExecutionStats,
    /// Fidelity tier every engine run in the campaign used (canonical
    /// form).
    pub fidelity: TierConfig,
    /// Per-stage wall-clock timings.
    pub timings: StageTimings,
    /// The collated validation records every analysis above was computed
    /// from (what `--save` persists).
    pub collated: Collated,
}

/// The pipeline runner.
#[derive(Debug, Clone)]
pub struct GemStone {
    opts: PipelineOptions,
}

impl GemStone {
    /// Creates a pipeline with the given options.
    pub fn new(opts: PipelineOptions) -> Self {
        GemStone { opts }
    }

    /// Runs the full methodology.
    ///
    /// # Errors
    ///
    /// Propagates analysis errors; [`crate::GemStoneError::MissingData`]
    /// when a requested slice produced no data.
    pub fn run(&self) -> Result<GemStoneReport> {
        let _run_span = gemstone_obs::span::span("pipeline.run");
        let o = &self.opts;
        let mut timings = StageTimings::default();
        let parallel = worker_threads() > 1;
        // Fig. 4 micro-benchmarks depend on nothing the sweep produces, so
        // with more than one worker they start with the pipeline and
        // overlap the experiment sweep; their result joins in the fixed
        // stage order below either way.
        let accesses = ((40_000.0 * o.experiment.workload_scale) as u64).max(5_000);
        let run_latency = || {
            timed("microbench", || {
                microbench::analyse(o.analysis_freq_hz, accesses)
            })
        };
        let (owned, (summary_t, clusters_t, pmc_t, g5corr_t, reg_hw_t, reg_g5_t), latency_t) =
            std::thread::scope(|s| {
                let latency = parallel.then(|| s.spawn(run_latency));
                // Boxes (a) and (b): characterise hardware, simulate gem5.
                let (data, d) = timed("experiment", || run_validation(&o.experiment));
                timings.push("experiment", d);
                // Box (f): collate.
                let (collated, d) = timed("collate", || Collated::build(&data));
                timings.push("collate", d);
                let collated_ref = &collated;

                // §IV analyses. The six stages below consume only the
                // collated data, so they run concurrently; results are
                // joined — and errors surfaced — in the fixed order of the
                // serial pipeline, keeping output and error behaviour
                // deterministic.
                let run_summary = || timed("summary", || summary::analyse(collated_ref));
                let run_clusters = || {
                    timed("hca_workloads", || {
                        hca_workloads::analyse(
                            collated_ref,
                            o.analysis_model,
                            o.analysis_freq_hz,
                            o.clusters_k,
                        )
                    })
                };
                let run_pmc = || {
                    timed("pmc_corr", || {
                        pmc_corr::analyse(collated_ref, o.analysis_model, o.analysis_freq_hz, None)
                    })
                };
                let run_g5corr = || {
                    timed("gem5_corr", || {
                        gem5_corr::analyse(collated_ref, o.analysis_model, o.analysis_freq_hz, 0.3)
                            .ok()
                    })
                };
                let run_reg_hw = || {
                    timed("error_reg_hw", || {
                        error_regression::analyse(
                            collated_ref,
                            o.analysis_model,
                            o.analysis_freq_hz,
                            error_regression::Side::HwPmc,
                        )
                    })
                };
                let run_reg_g5 = || {
                    timed("error_reg_gem5", || {
                        error_regression::analyse(
                            collated_ref,
                            o.analysis_model,
                            o.analysis_freq_hz,
                            error_regression::Side::Gem5Stats,
                        )
                    })
                };
                let join = "analysis worker panicked";
                let stages = if parallel {
                    std::thread::scope(|s| {
                        let summary = s.spawn(run_summary);
                        let clusters = s.spawn(run_clusters);
                        let pmc = s.spawn(run_pmc);
                        let g5corr = s.spawn(run_g5corr);
                        let reg_hw = s.spawn(run_reg_hw);
                        let reg_g5 = s.spawn(run_reg_g5);
                        (
                            summary.join().expect(join),
                            clusters.join().expect(join),
                            pmc.join().expect(join),
                            g5corr.join().expect(join),
                            reg_hw.join().expect(join),
                            reg_g5.join().expect(join),
                        )
                    })
                } else {
                    (
                        run_summary(),
                        run_clusters(),
                        run_pmc(),
                        run_g5corr(),
                        run_reg_hw(),
                        run_reg_g5(),
                    )
                };
                let latency = match latency {
                    Some(handle) => handle.join().expect(join),
                    None => run_latency(),
                };
                (collated, stages, latency)
            });
        let collated = &owned;
        timings.push("summary", summary_t.1);
        timings.push("hca_workloads", clusters_t.1);
        timings.push("pmc_corr", pmc_t.1);
        timings.push("gem5_corr", g5corr_t.1);
        timings.push("error_reg_hw", reg_hw_t.1);
        timings.push("error_reg_gem5", reg_g5_t.1);
        timings.push("microbench", latency_t.1);
        let summary = summary_t.0?;
        let clusters = clusters_t.0?;
        let pmc = pmc_t.0?;
        let g5corr = g5corr_t.0;
        let reg_hw = reg_hw_t.0?;
        let reg_g5 = reg_g5_t.0?;
        let latency = latency_t.0;

        let (cmp, d) = timed("event_compare", || {
            event_compare::analyse(
                collated,
                &clusters,
                o.analysis_model,
                o.analysis_freq_hz,
                true,
            )
        });
        timings.push("event_compare", d);
        let cmp = cmp?;
        let (diag, d) = timed("diagnose", || diagnose::diagnose(&cmp, Some(&latency)));
        timings.push("diagnose", d);

        // §V: power models on the 65-workload set.
        let mut power_models = BTreeMap::new();
        let mut power_quality = BTreeMap::new();
        let mut pe = None;
        let mut sc = None;
        if o.with_power {
            let power_span = gemstone_obs::span::span("stage.power_models");
            let power_t0 = Instant::now();
            let specs: Vec<_> = suites::power_suite()
                .iter()
                .map(|w| w.scaled(o.experiment.workload_scale))
                .collect();
            // One sweep fills each workload's A7 and A15 columns under one
            // hold on its packed trace, so a power-only workload is
            // generated once for both clusters. The two clusters' event
            // selection and fit are independent, so they run concurrently.
            let cpus = [Cluster::LittleA7, Cluster::BigA15];
            let datasets =
                dataset::collect_clusters(&o.experiment.board, &cpus, &specs, o.experiment.threads);
            let restricted = selection::SelectionOptions::gem5_restricted();
            let fitted: Vec<_> = std::thread::scope(|scope| {
                let fits: Vec<_> = datasets
                    .into_iter()
                    .map(|ds| scope.spawn(|| fit_dataset(ds, &restricted)))
                    .collect();
                fits.into_iter()
                    .map(|f| f.join().expect("power-fit worker panicked"))
                    .collect()
            });
            for (cluster, fitted) in cpus.into_iter().zip(fitted) {
                let f = fitted?;
                power_quality.insert(cluster.name(), f.quality);
                power_models.insert(cluster.name(), f.model);
            }
            drop(power_span);
            timings.push("power_models", power_t0.elapsed());
            // §VI / Fig. 7.
            let a15_pm = &power_models[Cluster::BigA15.name()];
            let (pe_r, d) = timed("power_energy", || {
                power_energy::analyse(
                    collated,
                    &clusters,
                    a15_pm,
                    o.analysis_model,
                    o.analysis_freq_hz,
                )
            });
            timings.push("power_energy", d);
            pe = Some(pe_r?);
            // Fig. 8.
            let scale_models: Vec<Gem5Model> = o
                .experiment
                .models
                .iter()
                .copied()
                .filter(|m| *m != Gem5Model::Ex5BigOld)
                .collect();
            if !scale_models.is_empty() {
                let (sc_r, d) = timed("scaling", || {
                    scaling::analyse(collated, &power_models, &scale_models)
                });
                timings.push("scaling", d);
                sc = Some(sc_r?);
            }
        }

        // §VII.
        let (imp, d) = timed("improvement", || {
            improvement::analyse(
                collated,
                o.analysis_freq_hz,
                match (&power_models.get(Cluster::BigA15.name()), &clusters) {
                    (Some(pm), wc) if o.with_power => Some((*pm, wc)),
                    _ => None,
                },
            )
        });
        timings.push("improvement", d);
        let imp = imp?;

        // Execution-layer counters: how much work the memo + trace layers
        // absorbed over the whole methodology.
        let cache = &o.experiment.board.cache;
        let traces = cache.trace_cache();
        let execution = ExecutionStats {
            sim_hits: cache.hits(),
            sim_misses: cache.misses(),
            sim_entries: cache.len(),
            trace_hits: traces.hits(),
            trace_misses: traces.misses(),
            histogram_hits: traces.histogram_hits(),
            histogram_misses: traces.histogram_misses(),
        };

        Ok(GemStoneReport {
            summary,
            clusters,
            pmc_corr: pmc,
            gem5_corr: g5corr,
            error_reg_hw: reg_hw,
            error_reg_gem5: reg_g5,
            event_compare: cmp,
            memory_latency: latency,
            diagnosis: diag,
            power_models,
            power_quality,
            power_energy: pe,
            scaling: sc,
            improvement: imp,
            execution,
            fidelity: o.experiment.fidelity.canonical(),
            timings,
            collated: owned,
        })
    }
}

impl GemStoneReport {
    /// Renders the full report as text: one [`crate::render`] section per
    /// analysis result, then the execution-layer counters and stage
    /// timings.
    pub fn render(&self) -> String {
        use crate::render::{self, View::Report};
        let c = &self.collated;
        let mut out = String::from(
            "==================================================\n \
             GemStone validation report\n\
             ==================================================\n\n",
        );
        out += &render::summary(&self.summary, c, Report);
        out += &render::workload_clusters(&self.clusters, Report);
        out += &render::pmc_correlations(&self.pmc_corr, Report);
        out += &render::gem5_correlations(self.gem5_corr.as_ref(), Report);
        out += &render::error_regression(&self.error_reg_hw, &self.error_reg_gem5, Report);
        out += &render::event_comparison(&self.event_compare, &self.clusters, c, Report);
        out += &render::diagnosis(&self.diagnosis);
        for (cluster, q) in &self.power_quality {
            out += &render::power_quality(cluster, q);
        }
        if let Some(pe) = &self.power_energy {
            out += &render::power_energy(pe, &self.clusters, Report);
        }
        if let Some(sc) = &self.scaling {
            out += &render::scaling(sc, Report);
        }
        out += &render::improvement(&self.improvement, Report);

        // Execution-layer counters.
        let ex = &self.execution;
        let _ = writeln!(
            out,
            "\nexecution layer — simcache: {} hits / {} misses ({} entries); \
             tracecache: {} hits / {} misses; class histograms: {} hits / {} misses",
            ex.sim_hits,
            ex.sim_misses,
            ex.sim_entries,
            ex.trace_hits,
            ex.trace_misses,
            ex.histogram_hits,
            ex.histogram_misses,
        );
        let _ = writeln!(out, "fidelity tier: {}", self.fidelity);

        // Per-stage wall-clock timings.
        let _ = writeln!(out, "\nstage timings (wall clock):");
        for &(name, d) in &self.timings.stages {
            let _ = writeln!(out, "  {:<16} {:>10.3} ms", name, d.as_secs_f64() * 1e3);
        }
        let _ = writeln!(
            out,
            "  {:<16} {:>10.3} ms (stages overlap; elapsed time is lower)",
            "total",
            self.timings.total().as_secs_f64() * 1e3
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gemstone_platform::simcache::SimCache;
    use gemstone_workloads::trace::TraceCache;
    use std::sync::Arc;

    #[test]
    fn pipeline_never_duplicates_engine_runs() {
        use gemstone_uarch::configs::{
            cortex_a15_hw, cortex_a7_hw, ex5_big, ex5_little, Ex5Variant,
        };
        use std::collections::HashSet;

        // Give the pipeline its own cache so the hit/miss counters see only
        // this run. The power-characterisation sweep revisits validation
        // (workload, cluster, freq) tuples, so the cache must serve hits —
        // and every miss must correspond to exactly one stored entry,
        // i.e. no tuple was ever executed twice.
        let traces = Arc::new(TraceCache::new());
        let cache = Arc::new(SimCache::with_trace_cache(Arc::clone(&traces)));
        let mut opts = PipelineOptions {
            experiment: ExperimentConfig::quick(),
            with_power: true,
            ..PipelineOptions::default()
        };
        opts.experiment.workload_scale = 0.02;
        opts.experiment.board.cache = Arc::clone(&cache);

        // Every tuple the run simulates, hardware and gem5 alike.
        let e = &opts.experiment;
        let columns = e.clusters.len() + e.models.len();
        let scaled = |suite: &[gemstone_workloads::spec::WorkloadSpec]| -> Vec<_> {
            suite.iter().map(|w| w.scaled(e.workload_scale)).collect()
        };
        let (validation, power) = (
            scaled(&suites::validation_suite()),
            scaled(&suites::power_suite()),
        );
        let mut hw = HashSet::new();
        for cluster in [Cluster::LittleA7, Cluster::BigA15] {
            let cfg = match cluster {
                Cluster::LittleA7 => cortex_a7_hw(),
                Cluster::BigA15 => cortex_a15_hw(),
            };
            for &f in cluster.frequencies() {
                for s in &validation {
                    hw.insert(SimCache::fingerprint_tier(s, &cfg, f, e.fidelity));
                }
                for s in &power {
                    hw.insert(SimCache::fingerprint_tier(
                        s,
                        &cfg,
                        f,
                        TierConfig::default(),
                    ));
                }
            }
        }
        let mut gem5 = HashSet::new();
        for &model in &e.models {
            let cfg = match model {
                Gem5Model::Ex5BigOld => ex5_big(Ex5Variant::Old),
                Gem5Model::Ex5BigFixed => ex5_big(Ex5Variant::Fixed),
                Gem5Model::Ex5Little => ex5_little(),
            };
            for &f in model.cluster().frequencies() {
                for s in &validation {
                    gem5.insert(SimCache::fingerprint_tier(s, &cfg, f, e.fidelity));
                }
            }
        }

        let report = GemStone::new(opts).run().unwrap();
        assert_eq!(report.power_models.len(), 2);
        assert_eq!(cache.misses(), cache.len() as u64, "duplicate engine run");
        assert!(cache.hits() > 0, "power sweep should reuse validation runs");
        // The campaign's cache holds every hardware and every gem5 tuple.
        assert!(!gem5.is_empty());
        assert_eq!(cache.len(), hw.len() + gem5.len());
        // The report captured the same counters it rendered.
        assert_eq!(report.execution.sim_hits, cache.hits());
        assert_eq!(report.execution.sim_misses, cache.misses());
        assert_eq!(report.execution.sim_misses, (hw.len() + gem5.len()) as u64);
        // One generation per spec: each validation workload's five columns
        // share one, and so do each power-only workload's two. Nothing
        // stays resident once the run returns.
        let names: HashSet<&str> = validation.iter().map(|s| s.name.as_str()).collect();
        let power_only = power
            .iter()
            .filter(|s| !names.contains(s.name.as_str()))
            .count();
        assert_eq!(
            (report.execution.trace_misses, report.execution.trace_hits),
            (
                (validation.len() + power_only) as u64,
                (validation.len() * (columns - 1) + power_only) as u64
            )
        );
        assert_eq!((traces.len(), traces.bytes()), (0, 0));
    }

    #[test]
    fn quick_pipeline_runs_end_to_end() {
        let mut opts = PipelineOptions {
            experiment: ExperimentConfig::quick(),
            with_power: false,
            ..PipelineOptions::default()
        };
        opts.experiment.workload_scale = 0.02;
        let report = GemStone::new(opts).run().unwrap();
        assert!(!report.summary.rows.is_empty());
        assert!(report.clusters.k >= 2);
        let text = report.render();
        assert!(text.contains("§IV"));
        assert!(text.contains("Fig. 3"));
        assert!(text.contains("Fig. 6"));
        assert!(text.contains("§VII"));
        assert!(text.contains("execution layer"));
        assert!(text.contains("fidelity tier: "));
        // Every analysis stage reported a timing, in the fixed order.
        assert!(text.contains("stage timings"));
        let names: Vec<&str> = report.timings.stages.iter().map(|&(n, _)| n).collect();
        assert_eq!(
            names,
            [
                "experiment",
                "collate",
                "summary",
                "hca_workloads",
                "pmc_corr",
                "gem5_corr",
                "error_reg_hw",
                "error_reg_gem5",
                "microbench",
                "event_compare",
                "diagnose",
                "improvement",
            ]
        );
        assert!(report.timings.get("experiment").unwrap() > Duration::ZERO);
    }
}
