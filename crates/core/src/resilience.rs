//! Resilient characterisation sweeps: retry, quarantine, checkpoint/resume.
//!
//! [`crate::experiment::run_over`] assumes every board run and gem5 job
//! succeeds. Real multi-hour collection campaigns (§III: 45 workloads ×
//! 12 PMU passes × every DVFS point × two clusters) do not enjoy that
//! luxury — sensors time out, jobs wedge, machines reboot. This module is
//! the fault-aware driver for the same sweep:
//!
//! * every platform operation goes through a
//!   [`RetryPolicy`] (bounded exponential backoff, deterministic jitter),
//!   with transient-vs-permanent dispatch on the structured
//!   [`gemstone_platform::fault::FaultError`];
//! * a workload that exhausts its retry budget is **quarantined** — noted
//!   in the [`CoverageReport`] — instead of aborting the whole sweep, and
//!   the analyses accept the partial dataset as long as coverage stays
//!   above [`ResilienceOptions::min_coverage`];
//! * after each workload the partial state is checkpointed atomically
//!   ([`crate::checkpoint::CollectCheckpoint`]), so a killed run resumes
//!   with `resume: true` and produces output **bit-identical** to an
//!   uninterrupted run.
//!
//! Bit-identity holds because (1) injected faults fire before any
//! simulation or RNG work, so a retried success equals a never-faulted
//! run; (2) each workload is characterised by the same per-workload
//! routine `run_over` uses, which sorts its runs with the comparators of
//! `run_over`'s global sort; and (3) the final dataset is assembled
//! workload-by-workload in lexicographic order — the same workload-major
//! order that global sort produces.
//!
//! Metrics: `quarantine.workloads` counts dropped workloads;
//! `retry.attempts`, `faults.injected` and `checkpoint.writes` are
//! incremented by the layers below.
//!
//! # Examples
//!
//! ```no_run
//! use gemstone_core::experiment::ExperimentConfig;
//! use gemstone_core::resilience::{collect_resilient, ResilienceOptions};
//! use gemstone_workloads::suites;
//!
//! let cfg = ExperimentConfig::quick();
//! let workloads = suites::validation_suite();
//! let outcome = collect_resilient(&cfg, workloads, &ResilienceOptions::default())?;
//! println!("{}", outcome.coverage.render());
//! # Ok::<(), gemstone_core::GemStoneError>(())
//! ```

use crate::checkpoint::{fingerprint, CollectCheckpoint};
use crate::collate::Collated;
use crate::experiment::{characterise_workload, sweep, ExperimentConfig, ValidationData};
use crate::{GemStoneError, Result};
use gemstone_platform::fault::{FaultInjector, QuarantinedWorkload, RetryPolicy};
use gemstone_workloads::spec::WorkloadSpec;
use std::path::PathBuf;
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

/// Process-wide count of workloads dropped after exhausting their retry
/// budget (`quarantine.workloads`).
fn quarantine_counter() -> &'static gemstone_obs::Counter {
    static C: OnceLock<Arc<gemstone_obs::Counter>> = OnceLock::new();
    C.get_or_init(|| gemstone_obs::Registry::global().counter("quarantine.workloads"))
}

/// Knobs for a resilient sweep.
#[derive(Debug, Clone)]
pub struct ResilienceOptions {
    /// Fault source consulted by every platform operation. Defaults to the
    /// process-wide injector (`GEMSTONE_FAULTS`); tests pass an explicit
    /// one.
    pub faults: Arc<FaultInjector>,
    /// Retry budget and backoff shape for each (workload, cluster/model,
    /// frequency) operation.
    pub retry: RetryPolicy,
    /// Where to persist partial state after each workload. `None` disables
    /// checkpointing.
    pub checkpoint: Option<PathBuf>,
    /// Load an existing compatible checkpoint from [`Self::checkpoint`]
    /// before starting, skipping settled workloads. A missing checkpoint
    /// file is a fresh start, not an error.
    pub resume: bool,
    /// Minimum fraction of workloads that must complete (not be
    /// quarantined) for the sweep to count as usable.
    pub min_coverage: f64,
}

impl Default for ResilienceOptions {
    fn default() -> Self {
        ResilienceOptions {
            faults: FaultInjector::global(),
            retry: RetryPolicy::default(),
            checkpoint: None,
            resume: false,
            min_coverage: 0.8,
        }
    }
}

/// What a sweep achieved: which workloads completed, which were dropped,
/// and how much came from a resumed checkpoint.
#[derive(Debug, Clone)]
pub struct CoverageReport {
    /// Workloads the sweep was asked for.
    pub total_workloads: usize,
    /// Workload names with complete results, lexicographic.
    pub completed: Vec<String>,
    /// Workloads dropped after exhausting retries, sorted by name.
    pub quarantined: Vec<QuarantinedWorkload>,
    /// Workloads (completed or quarantined) taken from the checkpoint
    /// rather than re-run.
    pub resumed: usize,
}

impl CoverageReport {
    /// Fraction of requested workloads with complete results, in [0, 1].
    pub fn fraction(&self) -> f64 {
        self.completed.len() as f64 / self.total_workloads.max(1) as f64
    }

    /// Whether coverage reaches `min` (a fraction in [0, 1]).
    pub fn meets(&self, min: f64) -> bool {
        self.fraction() + 1e-12 >= min
    }

    /// Errors with [`GemStoneError::MissingData`] when coverage is below
    /// `min` — the analyses' guard against drawing conclusions from too
    /// little data.
    ///
    /// # Errors
    ///
    /// [`GemStoneError::MissingData`] listing the quarantined workloads.
    pub fn require(&self, min: f64) -> Result<()> {
        if self.meets(min) {
            return Ok(());
        }
        let dropped: Vec<&str> = self
            .quarantined
            .iter()
            .map(|q| q.workload.as_str())
            .collect();
        Err(GemStoneError::MissingData(format!(
            "workload coverage {:.1}% below the required {:.1}% ({} of {} complete; quarantined: {})",
            100.0 * self.fraction(),
            100.0 * min,
            self.completed.len(),
            self.total_workloads,
            if dropped.is_empty() {
                "none".to_string()
            } else {
                dropped.join(", ")
            }
        )))
    }

    /// Human-readable report, one workload per quarantine line.
    pub fn render(&self) -> String {
        let mut out = format!(
            "coverage: {}/{} workloads ({:.1}%)\n",
            self.completed.len(),
            self.total_workloads,
            100.0 * self.fraction()
        );
        if self.resumed > 0 {
            out.push_str(&format!(
                "resumed from checkpoint: {} workload(s)\n",
                self.resumed
            ));
        }
        if self.quarantined.is_empty() {
            out.push_str("quarantined: none\n");
        } else {
            out.push_str("quarantined:\n");
            for q in &self.quarantined {
                out.push_str(&format!(
                    "  {} — {} after {} attempt(s): {}\n",
                    q.workload, q.site, q.attempts, q.reason
                ));
            }
        }
        out
    }
}

/// A resilient sweep's result: the collated dataset plus its coverage.
#[derive(Debug, Clone)]
pub struct SweepOutcome {
    /// Joined records for every completed workload — bit-identical to what
    /// a fault-free [`crate::experiment::run_over`] +
    /// [`Collated::build`] produces for those workloads.
    pub collated: Collated,
    /// What completed, what was dropped, what was resumed.
    pub coverage: CoverageReport,
}

/// Runs the validation experiments over `workloads` with retries,
/// quarantine and (optionally) checkpoint/resume — the fault-tolerant
/// counterpart of [`crate::experiment::run_over`] + [`Collated::build`].
///
/// For the workloads that complete, the returned dataset is bit-identical
/// to a fault-free full run — whether or not faults were injected and
/// retried, and whether or not the sweep was resumed from a checkpoint.
///
/// # Errors
///
/// [`GemStoneError::MissingData`] when completed coverage falls below
/// `opts.min_coverage`; [`GemStoneError::Io`] / [`GemStoneError::Parse`]
/// on checkpoint persistence failures (a *missing* checkpoint with
/// `resume` set is a fresh start, not an error).
pub fn collect_resilient(
    cfg: &ExperimentConfig,
    workloads: Vec<WorkloadSpec>,
    opts: &ResilienceOptions,
) -> Result<SweepOutcome> {
    let fp = fingerprint(cfg, &workloads);
    let mut ck = CollectCheckpoint::new(fp.clone());
    let mut resumed = 0usize;
    if let (Some(path), true) = (&opts.checkpoint, opts.resume) {
        match CollectCheckpoint::load_compatible(path, &fp) {
            Ok(loaded) => {
                resumed = loaded.completed_count() + loaded.quarantined.len();
                ck = loaded;
            }
            Err(GemStoneError::Io(_)) => {} // nothing to resume from
            Err(e) => return Err(e),
        }
    }

    let pending: Vec<&WorkloadSpec> = workloads
        .iter()
        .filter(|w| !ck.is_settled(&w.name))
        .collect();

    // Workers settle one workload at a time; the checkpoint is advanced
    // (and persisted) under the lock, so every on-disk snapshot is a
    // consistent prefix of the sweep. The first persistence error stops
    // the sweep: no workload is settled after it.
    let state = Mutex::new((ck, None::<GemStoneError>));
    let lock = || state.lock().unwrap_or_else(PoisonError::into_inner);
    sweep(cfg, &pending, |spec| {
        if lock().1.is_some() {
            return;
        }
        let outcome = characterise_workload(cfg, spec, &opts.faults, &opts.retry).map(
            |(hw_runs, gem5_runs)| {
                let data = ValidationData::new(hw_runs, gem5_runs, vec![spec.clone()]);
                Collated::build(&data).records
            },
        );
        let mut st = lock();
        if st.1.is_some() {
            return;
        }
        match outcome {
            Ok(records) => {
                st.0.completed.insert(spec.name.clone(), records);
            }
            Err(q) => {
                quarantine_counter().add(1);
                gemstone_obs::flight::note(
                    "resilience.quarantine",
                    format!(
                        "workload {} quarantined at {} after {} attempts",
                        q.workload, q.site, q.attempts
                    ),
                );
                gemstone_obs::flight::auto_dump("quarantine");
                st.0.quarantined.push(q);
            }
        }
        if let Some(path) = &opts.checkpoint {
            if let Err(e) = st.0.save(path) {
                st.1 = Some(e);
            }
        }
    });
    let (mut ck, err) = state.into_inner().unwrap_or_else(PoisonError::into_inner);
    if let Some(e) = err {
        return Err(e);
    }

    // Quarantine order depends on worker scheduling; sort for determinism
    // (workload names are unique within a sweep).
    ck.quarantined.sort_by(|a, b| a.workload.cmp(&b.workload));
    if let Some(path) = &opts.checkpoint {
        ck.save(path)?;
    }

    let coverage = CoverageReport {
        total_workloads: workloads.len(),
        completed: ck.completed.keys().cloned().collect(),
        quarantined: ck.quarantined.clone(),
        resumed,
    };
    coverage.require(opts.min_coverage)?;
    Ok(SweepOutcome {
        collated: Collated::from_records(ck.into_records()),
        coverage,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::run_over;
    use gemstone_platform::dvfs::Cluster;
    use gemstone_platform::fault::FaultPlan;
    use gemstone_platform::gem5sim::Gem5Model;
    use gemstone_workloads::suites;
    use std::path::PathBuf;
    use std::time::Duration;

    fn unique_dir(tag: &str) -> PathBuf {
        use std::sync::atomic::{AtomicU64, Ordering};
        static SEQ: AtomicU64 = AtomicU64::new(0);
        std::env::temp_dir().join(format!(
            "gemstone-resilience-{tag}-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ))
    }

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

    fn fast_retry() -> RetryPolicy {
        RetryPolicy {
            base_delay: Duration::from_micros(10),
            max_delay: Duration::from_micros(100),
            ..RetryPolicy::default()
        }
    }

    fn quiet_opts(faults: FaultInjector) -> ResilienceOptions {
        ResilienceOptions {
            faults: Arc::new(faults),
            retry: fast_retry(),
            checkpoint: None,
            resume: false,
            min_coverage: 1.0,
        }
    }

    fn as_json(c: &Collated) -> String {
        crate::jsonio::collated_to_json(c)
    }

    #[test]
    fn fault_free_sweep_matches_run_over_bit_for_bit() {
        let cfg = tiny_config();
        let reference = Collated::build(&run_over(&cfg, tiny_workloads()));
        let outcome = collect_resilient(
            &cfg,
            tiny_workloads(),
            &quiet_opts(FaultInjector::disabled()),
        )
        .unwrap();
        assert_eq!(as_json(&outcome.collated), as_json(&reference));
        assert_eq!(outcome.coverage.fraction(), 1.0);
        assert!(outcome.coverage.quarantined.is_empty());
    }

    #[test]
    fn transient_faults_with_retries_still_match_fault_free() {
        let cfg = tiny_config();
        let reference = Collated::build(&run_over(&cfg, tiny_workloads()));
        let inj = FaultInjector::new(FaultPlan {
            seed: 11,
            transient_rate: 0.6,
            permanent_rate: 0.0,
            max_transient_fails: 2,
        });
        let outcome = collect_resilient(&cfg, tiny_workloads(), &quiet_opts(inj)).unwrap();
        assert_eq!(as_json(&outcome.collated), as_json(&reference));
    }

    #[test]
    fn resumed_sweep_is_bit_identical_to_uninterrupted() {
        let cfg = tiny_config();
        let dir = unique_dir("resume");
        let path = dir.join("ck.json");

        let mut opts = quiet_opts(FaultInjector::disabled());
        opts.checkpoint = Some(path.clone());
        let full = collect_resilient(&cfg, tiny_workloads(), &opts).unwrap();

        // Simulate a crash after one workload: trim the finished checkpoint
        // down to a single completed entry and resume from it.
        let mut ck = CollectCheckpoint::load(&path).unwrap();
        assert_eq!(ck.completed_count(), 3);
        while ck.completed.len() > 1 {
            let last = ck.completed.keys().next_back().unwrap().clone();
            ck.completed.remove(&last);
        }
        ck.save(&path).unwrap();

        opts.resume = true;
        let resumed = collect_resilient(&cfg, tiny_workloads(), &opts).unwrap();
        assert_eq!(resumed.coverage.resumed, 1);
        assert_eq!(as_json(&resumed.collated), as_json(&full.collated));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resume_without_checkpoint_file_starts_fresh() {
        let cfg = tiny_config();
        let dir = unique_dir("fresh");
        let mut opts = quiet_opts(FaultInjector::disabled());
        opts.checkpoint = Some(dir.join("never-written.json"));
        opts.resume = true;
        let outcome = collect_resilient(&cfg, tiny_workloads(), &opts).unwrap();
        assert_eq!(outcome.coverage.resumed, 0);
        assert_eq!(outcome.coverage.completed.len(), 3);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn permanent_faults_quarantine_instead_of_aborting() {
        let cfg = tiny_config();
        let inj = FaultInjector::new(FaultPlan {
            seed: 1,
            transient_rate: 0.0,
            permanent_rate: 1.0,
            max_transient_fails: 1,
        });
        let mut opts = quiet_opts(inj);
        opts.min_coverage = 0.0;
        let outcome = collect_resilient(&cfg, tiny_workloads(), &opts).unwrap();
        assert!(outcome.collated.records.is_empty());
        assert_eq!(outcome.coverage.quarantined.len(), 3);
        assert_eq!(outcome.coverage.fraction(), 0.0);
        // Quarantine list is sorted and rendered.
        let names: Vec<&str> = outcome
            .coverage
            .quarantined
            .iter()
            .map(|q| q.workload.as_str())
            .collect();
        assert_eq!(names, ["mi-crc32", "mi-fft", "mi-sha"]);
        let report = outcome.coverage.render();
        assert!(report.contains("0/3"));
        assert!(report.contains("mi-fft"));
    }

    #[test]
    fn low_coverage_fails_the_required_threshold() {
        let cfg = tiny_config();
        let inj = FaultInjector::new(FaultPlan {
            seed: 1,
            transient_rate: 0.0,
            permanent_rate: 1.0,
            max_transient_fails: 1,
        });
        let mut opts = quiet_opts(inj);
        opts.min_coverage = 0.5;
        let err = collect_resilient(&cfg, tiny_workloads(), &opts).unwrap_err();
        assert!(matches!(err, GemStoneError::MissingData(_)), "{err}");
        assert!(err.to_string().contains("coverage"));
    }

    #[test]
    fn coverage_report_maths() {
        let report = CoverageReport {
            total_workloads: 4,
            completed: vec!["a".into(), "b".into(), "c".into()],
            quarantined: vec![QuarantinedWorkload {
                workload: "d".into(),
                site: "gem5-run".into(),
                attempts: 4,
                reason: "gave up".into(),
            }],
            resumed: 2,
        };
        assert_eq!(report.fraction(), 0.75);
        assert!(report.meets(0.75));
        assert!(!report.meets(0.8));
        assert!(report.require(0.75).is_ok());
        assert!(report.require(0.9).is_err());
        assert!(report.render().contains("resumed from checkpoint: 2"));
    }
}
