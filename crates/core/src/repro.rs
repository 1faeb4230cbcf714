//! The whole reproduction in one run: the paper's methodology once on one
//! board, rendered as one text file per experiment (`gemstone repro`).
//!
//! [`run`] calls [`GemStone::run`] once — the validation sweep, the
//! 65-workload power sweep and every §IV–§VII analysis — and then the
//! studies the combined report leaves out, on the same board: the
//! §V baselines (unrestricted selection, published coefficients), Fig. 8
//! with the pre-fix `ex5_big` the paper plots, the E13 ablation and the X7
//! improvement loop. Their hardware runs repeat tuples the pipeline already
//! simulated, so they are [`SimCache`](gemstone_platform::simcache::SimCache)
//! hits, and no tuple is simulated twice. No trace is generated twice
//! either: the run holds each validation workload's packed trace
//! ([`TraceCache::hold`](gemstone_workloads::trace::TraceCache::hold)) from
//! the pipeline's first replay of it until the X7 loop ends, so E13 and
//! every X7 iteration replay the pipeline's traces.
//!
//! [`Repro::files`] renders every result through [`crate::render`], one
//! file per experiment under the names `results/` has always used. Each
//! text file starts with one header line — experiment id, paper section,
//! workload scale and fidelity tier — and holds no timestamps, so two runs
//! differ only in the stage timings of `gemstone_report_full.txt`.

use crate::analysis::{ablation, improve, scaling};
use crate::experiment::ExperimentConfig;
use crate::persist;
use crate::pipeline::{GemStone, GemStoneReport, PipelineOptions};
use crate::render::{self, View::Full};
use crate::Result;
use gemstone_platform::dvfs::Cluster;
use gemstone_platform::gem5sim::Gem5Model;
use gemstone_powmon::fitting::{fit_cluster_model, FittedPowerModel};
use gemstone_powmon::model::{ModelQuality, PowerModel};
use gemstone_powmon::published::published_variant;
use gemstone_powmon::selection::{select_events, SelectionOptions};
use gemstone_uarch::backend::TierConfig;
use gemstone_workloads::spec::WorkloadSpec;
use gemstone_workloads::suites;
use std::path::{Path, PathBuf};

/// The experiment files: name (as in `results/`), experiment id
/// (DESIGN.md §4), paper section, and whether the experiment runs at the
/// campaign's fidelity tier. Power characterisation, Fig. 4 and the E13/X7
/// studies always run at the default tier.
pub const FILES: [(&str, &str, &str, bool); 14] = [
    ("exp_headline.txt", "E1/E12", "§IV", true),
    ("fig3_mpe_clusters.txt", "E2/Fig. 3", "§IV", true),
    ("fig4_mem_latency.txt", "E3/Fig. 4", "§IV-A", false),
    ("fig5_pmc_correlation.txt", "E4/Fig. 5", "§IV-B", true),
    ("exp_gem5_event_corr.txt", "E5", "§IV-C", true),
    ("exp_error_regression.txt", "E6", "§IV-D", true),
    ("fig6_event_ratios.txt", "E7/Fig. 6", "§IV-E", true),
    ("exp_power_model.txt", "E8", "§V", false),
    ("fig7_power_components.txt", "E9/Fig. 7", "§VI", true),
    ("fig8_dvfs_scaling.txt", "E10/Fig. 8", "§VI", true),
    ("exp_bp_fix.txt", "E11", "§VII", true),
    ("exp_ablation.txt", "E13", "§IV-F", false),
    ("exp_improve_loop.txt", "X7", "§IV-F/§VII", false),
    ("gemstone_report_full.txt", "report", "Fig. 1", true),
];

/// The pipeline options of a reproduction run (and of `gemstone report`):
/// the full methodology with power models and 16 workload clusters, the
/// paper's Fig. 3 cut.
pub fn pipeline_options(experiment: ExperimentConfig) -> PipelineOptions {
    PipelineOptions {
        experiment,
        clusters_k: Some(16),
        with_power: true,
        ..PipelineOptions::default()
    }
}

/// One cluster's §V study: the gem5-restricted model and the two
/// baselines the paper compares it with.
#[derive(Debug)]
pub struct PowerStudy {
    /// The gem5-restricted model, its dataset and quality.
    pub fitted: FittedPowerModel,
    /// Quality of a model selected from every event.
    pub unrestricted: ModelQuality,
    /// Quality of the restricted terms with perturbed ("published")
    /// coefficients.
    pub published: ModelQuality,
}

/// Everything one reproduction run produced.
#[derive(Debug)]
pub struct Repro {
    /// The combined pipeline run.
    pub report: GemStoneReport,
    /// §V studies, Cortex-A15 first.
    pub power: Vec<PowerStudy>,
    /// Fig. 8 with the pre-fix `ex5_big`, as the paper plots it.
    pub scaling_old: scaling::Scaling,
    /// E13: the per-error ablation.
    pub ablation: ablation::Ablation,
    /// X7: the guided improvement loop.
    pub improve: improve::Improvement,
    scale: f64,
}

fn scaled(suite: &[WorkloadSpec], scale: f64) -> Vec<WorkloadSpec> {
    suite.iter().map(|w| w.scaled(scale)).collect()
}

/// Runs the reproduction on `experiment`'s board, scale and tier.
///
/// # Errors
///
/// Propagates pipeline and analysis errors.
pub fn run(experiment: ExperimentConfig) -> Result<Repro> {
    let scale = experiment.workload_scale;
    let opts = pipeline_options(experiment.clone());
    let freq = opts.analysis_freq_hz;
    let workloads = scaled(&suites::validation_suite(), scale);
    // The pipeline, E13 and every X7 iteration replay the validation
    // workloads: one hold each for the whole campaign, so the first
    // replay of each generates its trace and every later one reuses it.
    let traces = experiment.board.cache.trace_cache();
    let holds: Vec<_> = workloads.iter().map(|w| traces.hold(w)).collect();
    let report = GemStone::new(opts).run()?;

    let power_specs = scaled(&suites::power_suite(), scale);
    let power = [Cluster::BigA15, Cluster::LittleA7]
        .into_iter()
        .map(|cluster| {
            let restricted = SelectionOptions::gem5_restricted();
            let fitted = fit_cluster_model(&experiment.board, cluster, &power_specs, &restricted)?;
            let ds = &fitted.dataset;
            let free = select_events(ds, &SelectionOptions::default())?;
            let unrestricted = PowerModel::fit(ds, &free.terms)?.quality(ds)?;
            let published = published_variant(&fitted.model, 0.03, 8).quality(ds)?;
            Ok(PowerStudy {
                fitted,
                unrestricted,
                published,
            })
        })
        .collect::<Result<Vec<_>>>()?;
    let scaling_old = scaling::analyse(
        &report.collated,
        &report.power_models,
        &[Gem5Model::Ex5Little, Gem5Model::Ex5BigOld],
    )?;

    let ablation = ablation::analyse(&experiment, &workloads, freq)?;
    let improve = improve::improve_model(&experiment, &workloads, freq, 10.0, 8)?;
    drop(holds);
    Ok(Repro {
        report,
        power,
        scaling_old,
        ablation,
        improve,
        scale,
    })
}

impl Repro {
    /// Every output file as `(name, contents)`, in [`FILES`] order, then
    /// `validation_records.csv` ([`persist::csv`], as `collect --csv`
    /// writes it, without a header line).
    pub fn files(&self) -> Vec<(&'static str, String)> {
        let r = &self.report;
        let (c, wc) = (&r.collated, &r.clusters);
        let mut out: Vec<(&'static str, String)> = FILES
            .iter()
            .map(|&(name, id, section, campaign_tier)| {
                let body = match name {
                    "exp_headline.txt" => render::summary(&r.summary, c, Full),
                    "fig3_mpe_clusters.txt" => render::workload_clusters(wc, Full),
                    "fig4_mem_latency.txt" => render::memory_latency(&r.memory_latency),
                    "fig5_pmc_correlation.txt" => render::pmc_correlations(&r.pmc_corr, Full),
                    "exp_gem5_event_corr.txt" => {
                        render::gem5_correlations(r.gem5_corr.as_ref(), Full)
                    }
                    "exp_error_regression.txt" => {
                        render::error_regression(&r.error_reg_hw, &r.error_reg_gem5, Full)
                    }
                    "fig6_event_ratios.txt" => {
                        render::event_comparison(&r.event_compare, wc, c, Full)
                    }
                    "exp_power_model.txt" => self
                        .power
                        .iter()
                        .map(|p| {
                            render::power_model(&p.fitted, Some((&p.unrestricted, &p.published)))
                        })
                        .collect::<Vec<_>>()
                        .join("\n"),
                    "fig7_power_components.txt" => r
                        .power_energy
                        .as_ref()
                        .map_or(String::new(), |pe| render::power_energy(pe, wc, Full)),
                    "fig8_dvfs_scaling.txt" => render::scaling(&self.scaling_old, Full),
                    "exp_bp_fix.txt" => render::improvement(&r.improvement, Full),
                    "exp_ablation.txt" => render::ablation(&self.ablation),
                    "exp_improve_loop.txt" => render::improve_loop(&self.improve),
                    "gemstone_report_full.txt" => r.render(),
                    other => unreachable!("no renderer for {other}"),
                };
                let tier = if campaign_tier {
                    r.fidelity
                } else {
                    TierConfig::default()
                };
                let header = format!("# {id} · {section} · scale {} · tier {tier}", self.scale);
                (
                    name,
                    format!("{header}\n\n{}", body.trim_start_matches('\n')),
                )
            })
            .collect();
        out.push(("validation_records.csv", persist::csv(c)));
        out
    }

    /// Writes [`Repro::files`] into `dir` (created if missing), each
    /// atomically, and returns the paths written.
    ///
    /// # Errors
    ///
    /// Returns [`crate::GemStoneError::Io`] on filesystem failures.
    pub fn write(&self, dir: &Path) -> Result<Vec<PathBuf>> {
        self.files()
            .into_iter()
            .map(|(name, text)| {
                let path = dir.join(name);
                persist::write_atomic(&path, text.as_bytes())?;
                Ok(path)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gemstone_platform::simcache::SimCache;
    use gemstone_workloads::trace::TraceCache;
    use std::sync::Arc;

    /// A tiny campaign on its own simulation and trace caches, so the
    /// counters see only this run.
    fn isolated() -> ExperimentConfig {
        let mut e = ExperimentConfig {
            workload_scale: 0.02,
            ..ExperimentConfig::default()
        };
        e.board.cache = Arc::new(SimCache::with_trace_cache(Arc::new(TraceCache::new())));
        e
    }

    #[test]
    fn repro_simulates_each_tuple_once_and_writes_every_file() {
        let experiment = isolated();
        let cache = Arc::clone(&experiment.board.cache);
        let repro = run(experiment).unwrap();
        // The extensions revisit the pipeline's hardware tuples: every
        // miss is one stored entry, so nothing was simulated twice.
        assert_eq!(cache.misses(), cache.len() as u64, "duplicate engine run");
        assert!(cache.hits() > repro.report.execution.sim_hits);

        let files = repro.files();
        let names: Vec<&str> = files.iter().map(|(n, _)| *n).collect();
        let mut expected: Vec<&str> = FILES.iter().map(|f| f.0).collect();
        expected.push("validation_records.csv");
        assert_eq!(names, expected);
        let dir = std::env::temp_dir().join(format!("gemstone-repro-{}", std::process::id()));
        let written = repro.write(&dir).unwrap();
        for ((name, text), path) in files.iter().zip(&written) {
            assert_eq!(&std::fs::read_to_string(path).unwrap(), text, "{name}");
        }
        std::fs::remove_dir_all(&dir).ok();
        for (name, text) in &files[..files.len() - 1] {
            let (header, body) = text.split_once("\n\n").unwrap();
            assert!(header.starts_with("# ") && header.contains(" · scale 0.02 · tier "));
            assert!(!header.contains('\n') && !body.trim().is_empty(), "{name}");
        }
        assert!(files[files.len() - 1].1.lines().count() > 1);
        // The §V studies refit exactly the pipeline's models.
        let a15 = &repro.report.power_models[Cluster::BigA15.name()];
        assert_eq!(repro.power[0].fitted.model.equations(), a15.equations());

        // The combined report is `GemStone::run`'s, stage timings aside.
        let (_, combined) = files[13].1.split_once("\n\n").unwrap();
        let direct = GemStone::new(pipeline_options(isolated()))
            .run()
            .unwrap()
            .render();
        let untimed = |s: &str| s.split("\nstage timings").next().unwrap().to_string();
        assert_eq!(untimed(combined), untimed(&direct));
    }
}
