//! Validation-as-a-service: the job store behind `gemstone serve`.
//!
//! Everything the CLI can do in one shot — a validation sweep, a single
//! gem5 profile run, a power-model fit — is exposed here as a
//! request/response API: a [`JobSpec`] goes in, a persisted artefact
//! comes out. The daemon layered on top (`gemstone serve`) is a thin
//! HTTP/1.1 shim over this module; every behaviour is testable without a
//! socket.
//!
//! Three properties carry the design:
//!
//! * **Coalescing.** A job's identity is a hash of its canonical
//!   specification, so two clients submitting the same work while it is
//!   queued or running (or already done) share one execution and one
//!   artefact — the service-level analogue of the [`SimCache`] promise
//!   that duplicate simulations are filled exactly once.
//! * **Durable queue.** Every accepted job is persisted to the queue
//!   directory before the submitter gets an id back, and validation
//!   sweeps checkpoint per-workload via [`CollectCheckpoint`]. A killed
//!   daemon reopened on the same directory re-enqueues unfinished jobs
//!   and resumes them from their checkpoints; because every execution
//!   path is deterministic, the drained artefacts are byte-identical to
//!   an uninterrupted run's.
//! * **Bounded resources.** The queue has a fixed capacity (submissions
//!   beyond it are refused — HTTP 429 upstream, [`SubmitError::Busy`]
//!   here) and the worker pool is sized once at start-up.
//!
//! `--min-coverage` is an *admission policy*: jobs may demand stricter
//! coverage than the server floor but not weaker, so one misconfigured
//! client cannot quietly publish low-coverage datasets from a daemon
//! configured to refuse them.
//!
//! [`SimCache`]: gemstone_platform::simcache::SimCache
//!
//! # Examples
//!
//! ```no_run
//! use gemstone_core::service::{Service, ServiceConfig};
//!
//! let svc = Service::open(ServiceConfig {
//!     queue_dir: "/tmp/gemstone-queue".into(),
//!     ..ServiceConfig::default()
//! })?;
//! let outcome = svc.submit_json(r#"{"kind":"validate","scale":0.05}"#)?;
//! println!("job {} accepted", outcome.id);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use crate::checkpoint::CollectCheckpoint;
use crate::experiment::ExperimentConfig;
use crate::jsonio;
use crate::resilience::{collect_resilient, ResilienceOptions};
use crate::{GemStoneError, Result};
use gemstone_obs::json::{push_f64, push_joined, push_str_lit, Value};
use gemstone_obs::Registry;
use gemstone_platform::dvfs::Cluster;
use gemstone_platform::fault::{FaultInjector, RetryPolicy};
use gemstone_platform::gem5sim::{Gem5Model, Gem5Sim};
use gemstone_platform::simcache::SimCache;
use gemstone_powmon::fitting;
use gemstone_powmon::selection::SelectionOptions;
use gemstone_uarch::backend::TierConfig;
use gemstone_workloads::spec::WorkloadSpec;
use gemstone_workloads::suites;
use std::collections::{BTreeMap, HashSet, VecDeque};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

/// Daemon configuration (the `gemstone serve` flags).
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Directory holding the durable queue: per-job spec files,
    /// checkpoints and result artefacts.
    pub queue_dir: PathBuf,
    /// Worker threads executing jobs. `0` accepts and persists jobs
    /// without running them (useful for tests and drain-later setups).
    pub workers: usize,
    /// Maximum number of jobs queued or running at once; submissions
    /// beyond this are refused with [`SubmitError::Busy`].
    pub queue_limit: usize,
    /// Coverage floor for validation jobs: a job may demand more
    /// coverage, never less. This is the per-job admission policy behind
    /// the `--min-coverage` flag.
    pub min_coverage: f64,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            queue_dir: std::env::temp_dir().join("gemstone-serve"),
            workers: gemstone_stats::threads::worker_threads(),
            queue_limit: 64,
            min_coverage: 0.0,
        }
    }
}

/// What a job runs. The canonical JSON form of this specification (see
/// [`JobSpec::canonical_json`]) *is* the job's identity: equal specs hash
/// to equal ids and coalesce onto one execution.
#[derive(Debug, Clone, PartialEq)]
pub enum JobSpec {
    /// A resilient validation sweep (the `gemstone collect` experiment):
    /// hardware + gem5 runs over the validation suite, collated and saved
    /// as the standard dataset artefact.
    Validate {
        /// Instruction-budget scale factor on every workload.
        scale: f64,
        /// Clusters to characterise.
        clusters: Vec<Cluster>,
        /// gem5 models to simulate.
        models: Vec<Gem5Model>,
        /// Workload names, each checked at parse time against the workload
        /// catalogue ([`suites::by_name`], a lookup in specs built once
        /// per process); empty = the full validation suite.
        workloads: Vec<String>,
        /// Minimum completed-workload fraction for the job to succeed.
        min_coverage: f64,
    },
    /// One gem5 simulation of one workload (the `gemstone profile`
    /// experiment), reported as simulated seconds plus stats counts.
    Profile {
        /// Workload name, checked at parse time against the workload
        /// catalogue ([`suites::by_name`]).
        workload: String,
        /// Scale factor on the workload's instruction budget.
        scale: f64,
        /// Model to simulate.
        model: Gem5Model,
        /// Core frequency in Hz.
        freq_hz: f64,
    },
    /// Characterise + select + fit + score a power model for one cluster
    /// (the `gemstone power` experiment).
    PowerModel {
        /// Cluster to model.
        cluster: Cluster,
        /// Scale factor on the power-suite workloads.
        scale: f64,
    },
}

impl JobSpec {
    /// Parses a job specification from the `POST /jobs` body.
    ///
    /// Unknown kinds and malformed fields are rejected with a
    /// human-readable message (HTTP 400 upstream), and so is a `scale`
    /// outside the CLI's (0, 10] ([`WorkloadSpec::MAX_SCALE`]). Optional
    /// fields take the CLI defaults: scale 1.0, all clusters, all models,
    /// the full suite.
    ///
    /// # Errors
    ///
    /// A description of the first structural problem.
    pub fn parse(body: &str) -> std::result::Result<JobSpec, String> {
        let spec = Self::parse_fields(body)?;
        spec.check_scale()?;
        Ok(spec)
    }

    /// [`JobSpec::parse`] without the bound on `scale`, so that
    /// [`Service::open`] can still read a job persisted before the bound
    /// existed, and quarantine it.
    fn parse_fields(body: &str) -> std::result::Result<JobSpec, String> {
        let v = Value::parse(body)?;
        let positive = |n: f64| n > 0.0 && n.is_finite();
        let scale = optional_number(&v, "scale", "a number", |_| true)?.unwrap_or(1.0);
        match v.str_field("kind")? {
            "validate" => {
                let clusters = match v.get("clusters") {
                    None => vec![Cluster::LittleA7, Cluster::BigA15],
                    Some(c) => c
                        .as_array()
                        .ok_or("\"clusters\" must be an array")?
                        .iter()
                        .map(|c| {
                            c.as_str()
                                .ok_or_else(|| "cluster names must be strings".to_string())
                                .and_then(jsonio::cluster_from)
                        })
                        .collect::<std::result::Result<_, _>>()?,
                };
                let models = match v.get("models") {
                    None => vec![
                        Gem5Model::Ex5Little,
                        Gem5Model::Ex5BigOld,
                        Gem5Model::Ex5BigFixed,
                    ],
                    Some(m) => m
                        .as_array()
                        .ok_or("\"models\" must be an array")?
                        .iter()
                        .map(|m| {
                            m.as_str()
                                .ok_or_else(|| "model names must be strings".to_string())
                                .and_then(jsonio::model_from)
                        })
                        .collect::<std::result::Result<_, _>>()?,
                };
                let workloads = match v.get("workloads") {
                    None => Vec::new(),
                    Some(w) => w
                        .as_array()
                        .ok_or("\"workloads\" must be an array")?
                        .iter()
                        .map(|w| {
                            let name = w
                                .as_str()
                                .ok_or_else(|| "workload names must be strings".to_string())?;
                            if suites::by_name(name).is_none() {
                                return Err(format!("unknown workload {name:?}"));
                            }
                            Ok(name.to_string())
                        })
                        .collect::<std::result::Result<_, _>>()?,
                };
                // Absent (or null, as the canonical form writes it):
                // filled from the server floor at admission.
                let min_coverage = match v.get("min_coverage") {
                    Some(Value::Null) => None,
                    _ => optional_number(&v, "min_coverage", "in [0,1]", |n| {
                        (0.0..=1.0).contains(&n)
                    })?,
                }
                .unwrap_or(f64::NAN);
                Ok(JobSpec::Validate {
                    scale,
                    clusters,
                    models,
                    workloads,
                    min_coverage,
                })
            }
            "profile" => {
                let workload = v.str_field("workload")?.to_string();
                if suites::by_name(&workload).is_none() {
                    return Err(format!("unknown workload {workload:?}"));
                }
                let model = jsonio::model_from(v.str_field("model")?)?;
                let freq_hz = optional_number(&v, "freq_hz", "a positive number", positive)?
                    .unwrap_or_else(|| {
                        *model
                            .cluster()
                            .frequencies()
                            .last()
                            .expect("clusters have frequencies")
                    });
                Ok(JobSpec::Profile {
                    workload,
                    scale,
                    model,
                    freq_hz,
                })
            }
            "power-model" => Ok(JobSpec::PowerModel {
                cluster: jsonio::cluster_from(v.str_field("cluster")?)?,
                scale,
            }),
            other => Err(format!(
                "unknown job kind {other:?} (expected \"validate\", \"profile\" or \"power-model\")"
            )),
        }
    }

    /// The canonical JSON form: fully defaulted, fields in fixed order,
    /// deterministic float formatting. Equal specs produce equal bytes —
    /// this string is what the job id hashes.
    pub fn canonical_json(&self) -> String {
        let mut out = String::new();
        match self {
            JobSpec::Validate {
                scale,
                clusters,
                models,
                workloads,
                min_coverage,
            } => {
                out.push_str("{\"kind\":\"validate\",\"scale\":");
                push_f64(&mut out, *scale);
                out.push_str(",\"clusters\":[");
                push_joined(&mut out, ",", clusters, |out, c| {
                    push_str_lit(out, jsonio::cluster_name(*c));
                });
                out.push_str("],\"models\":[");
                push_joined(&mut out, ",", models, |out, m| {
                    push_str_lit(out, jsonio::model_name(*m));
                });
                out.push_str("],\"workloads\":[");
                push_joined(&mut out, ",", workloads, |out, w| push_str_lit(out, w));
                out.push_str("],\"min_coverage\":");
                push_f64(&mut out, *min_coverage);
                out.push('}');
            }
            JobSpec::Profile {
                workload,
                scale,
                model,
                freq_hz,
            } => {
                out.push_str("{\"kind\":\"profile\",\"workload\":");
                push_str_lit(&mut out, workload);
                out.push_str(",\"scale\":");
                push_f64(&mut out, *scale);
                let _ = write!(
                    out,
                    ",\"model\":\"{}\",\"freq_hz\":",
                    jsonio::model_name(*model)
                );
                push_f64(&mut out, *freq_hz);
                out.push('}');
            }
            JobSpec::PowerModel { cluster, scale } => {
                let _ = write!(
                    out,
                    "{{\"kind\":\"power-model\",\"cluster\":\"{}\",\"scale\":",
                    jsonio::cluster_name(*cluster)
                );
                push_f64(&mut out, *scale);
                out.push('}');
            }
        }
        out
    }

    /// The job id: an FNV-1a hash of the canonical specification,
    /// rendered as 16 hex digits. Identity, not security — ids name
    /// queue-directory files and coalesce duplicates.
    pub fn id(&self) -> String {
        let h = gemstone_obs::fnv::fnv1a(self.canonical_json().as_bytes());
        format!("{h:016x}")
    }

    /// The admission bound every job kind shares: `scale` in (0, 10],
    /// as the CLI's `--scale`.
    fn check_scale(&self) -> std::result::Result<(), String> {
        let (JobSpec::Validate { scale, .. }
        | JobSpec::Profile { scale, .. }
        | JobSpec::PowerModel { scale, .. }) = self;
        if WorkloadSpec::scale_in_range(*scale) {
            Ok(())
        } else {
            Err(format!(
                "\"scale\" must be a number in (0, {}], got {:?}",
                WorkloadSpec::MAX_SCALE,
                Value::Number(*scale)
            ))
        }
    }

    fn kind_name(&self) -> &'static str {
        match self {
            JobSpec::Validate { .. } => "validate",
            JobSpec::Profile { .. } => "profile",
            JobSpec::PowerModel { .. } => "power-model",
        }
    }
}

/// Optional numeric member `key` of a job body: `None` when absent, an
/// error naming `what` the value must be when present but not accepted
/// by `ok`. The offending value is shown as parsed, integers as the float
/// they denote.
fn optional_number(
    v: &Value,
    key: &str,
    what: &str,
    ok: impl Fn(f64) -> bool,
) -> std::result::Result<Option<f64>, String> {
    let Some(field) = v.get(key) else {
        return Ok(None);
    };
    match field.as_f64() {
        Some(n) if ok(n) => Ok(Some(n)),
        Some(n) => Err(format!(
            "{key:?} must be {what}, got {:?}",
            Value::Number(n)
        )),
        None => Err(format!("{key:?} must be {what}, got {field:?}")),
    }
}

/// Lifecycle of a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Accepted, persisted, waiting for a worker.
    Queued,
    /// A worker is executing it.
    Running,
    /// Finished; the artefact is on disk.
    Done,
    /// Failed (error or worker panic). Like a quarantined workload in a
    /// sweep: recorded, skipped, and retried only on daemon restart.
    Quarantined,
}

impl JobState {
    /// Wire name, lower-case.
    pub fn name(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Quarantined => "quarantined",
        }
    }
}

/// A point-in-time view of one job, as returned by [`Service::status`].
#[derive(Debug, Clone)]
pub struct JobStatus {
    /// Job id.
    pub id: String,
    /// The specification it runs.
    pub spec: JobSpec,
    /// Current lifecycle state.
    pub state: JobState,
    /// Workloads settled so far (validate jobs; read from the job's
    /// checkpoint, so it advances while the job runs).
    pub completed: usize,
    /// Total workloads the job covers (0 when not applicable).
    pub total: usize,
    /// How many duplicate submissions coalesced onto this job.
    pub coalesced: u64,
    /// Artefact path once [`JobState::Done`].
    pub artefact: Option<PathBuf>,
    /// Failure description once [`JobState::Quarantined`].
    pub error: Option<String>,
}

impl JobStatus {
    /// Renders the status as the `GET /jobs/<id>` response body.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"id\":\"{}\",\"kind\":\"{}\",\"state\":\"{}\",\"completed\":{},\"total\":{},\"coalesced\":{}",
            self.id,
            self.spec.kind_name(),
            self.state.name(),
            self.completed,
            self.total,
            self.coalesced
        );
        out.push_str(",\"artefact\":");
        match &self.artefact {
            Some(p) => push_str_lit(&mut out, &p.display().to_string()),
            None => out.push_str("null"),
        }
        out.push_str(",\"error\":");
        match &self.error {
            Some(e) => push_str_lit(&mut out, e),
            None => out.push_str("null"),
        }
        out.push('}');
        out
    }
}

/// Why a submission was not accepted.
#[derive(Debug)]
pub enum SubmitError {
    /// The bounded queue is full — try again later (HTTP 429).
    Busy {
        /// Jobs currently queued or running.
        in_flight: usize,
    },
    /// The specification was rejected (parse failure or admission
    /// policy) — HTTP 400.
    Rejected(String),
    /// Persisting the job failed — HTTP 500.
    Io(GemStoneError),
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::Busy { in_flight } => {
                write!(f, "queue full ({in_flight} jobs in flight)")
            }
            SubmitError::Rejected(msg) => write!(f, "rejected: {msg}"),
            SubmitError::Io(e) => write!(f, "persistence failed: {e}"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// What [`Service::submit`] returns on acceptance.
#[derive(Debug, Clone)]
pub struct Submitted {
    /// The job's id (new or existing).
    pub id: String,
    /// True when this submission coalesced onto an existing job instead
    /// of creating a new one.
    pub coalesced: bool,
}

#[derive(Debug)]
struct JobRecord {
    spec: JobSpec,
    state: JobState,
    coalesced: u64,
    error: Option<String>,
}

#[derive(Debug, Default)]
struct State {
    jobs: BTreeMap<String, JobRecord>,
    queue: VecDeque<String>,
}

struct Inner {
    cfg: ServiceConfig,
    state: Mutex<State>,
    wake: Condvar,
    shutdown: AtomicBool,
}

impl Inner {
    /// Poison-tolerant lock: a worker that panics mid-job poisons the
    /// mutex on unwind, but the job store has no mid-update invariant a
    /// panic could break (every transition is a single field write), so
    /// the daemon keeps serving instead of wedging.
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

/// The job store plus its worker pool. Cloning shares the same store
/// (workers hold clones). See the [module docs](self) for the design.
#[derive(Clone)]
pub struct Service {
    inner: Arc<Inner>,
    // Worker handles live outside `inner` so workers (which hold `inner`
    // clones) can never keep themselves alive.
    workers: Arc<Mutex<Vec<std::thread::JoinHandle<()>>>>,
}

impl Service {
    /// Opens a service on `cfg.queue_dir`, re-enqueueing any unfinished
    /// jobs a previous daemon left behind, then starts the worker pool.
    ///
    /// Recovery lists the queue directory once and reads only the
    /// `*.job.json` files, in file-name order. A job is done when that
    /// listing names its artefact, `{id}.result.json`: it comes back as
    /// [`JobState::Done`] without re-running. Unfinished jobs (including
    /// previously quarantined ones — a restart is the retry) are queued in
    /// job-id order and resume from their checkpoints. A persisted job
    /// that admission would now refuse (a `scale` outside (0, 10]) comes
    /// back [`JobState::Quarantined`] with the admission message and
    /// never runs. Other files (checkpoints, `write_atomic` temporaries,
    /// names that are not UTF-8) are ignored.
    ///
    /// # Errors
    ///
    /// [`GemStoneError::Io`] when the queue directory cannot be created
    /// or listed, or a job file cannot be read; [`GemStoneError::Parse`]
    /// when a job file is corrupt. Both name the job file.
    pub fn open(cfg: ServiceConfig) -> Result<Service> {
        std::fs::create_dir_all(&cfg.queue_dir)?;
        let mut job_files = Vec::new();
        let mut results = HashSet::new();
        for entry in std::fs::read_dir(&cfg.queue_dir)?.filter_map(|e| e.ok()) {
            let Ok(name) = entry.file_name().into_string() else {
                continue;
            };
            if name.ends_with(".job.json") {
                job_files.push(name);
            } else if let Some(id) = name.strip_suffix(".result.json") {
                results.insert(id.to_string());
            }
        }
        job_files.sort();
        let mut state = State::default();
        for name in job_files {
            let path = cfg.queue_dir.join(name);
            let body = std::fs::read(&path).map_err(|e| {
                GemStoneError::Io(std::io::Error::new(
                    e.kind(),
                    format!("{}: {e}", path.display()),
                ))
            })?;
            let spec = std::str::from_utf8(&body)
                .map_err(|e| e.to_string())
                .and_then(JobSpec::parse_fields)
                .map_err(|e| GemStoneError::Parse(format!("{}: {e}", path.display())))?;
            let id = spec.id();
            let refused = spec.check_scale().err();
            let job_state = if refused.is_some() {
                JobState::Quarantined
            } else if results.contains(&id) {
                JobState::Done
            } else {
                state.queue.push_back(id.clone());
                JobState::Queued
            };
            state.jobs.insert(
                id,
                JobRecord {
                    spec,
                    state: job_state,
                    coalesced: 0,
                    error: refused,
                },
            );
        }
        metric("service.queue.depth").set(state.queue.len() as f64);

        let svc = Service {
            inner: Arc::new(Inner {
                cfg,
                state: Mutex::new(state),
                wake: Condvar::new(),
                shutdown: AtomicBool::new(false),
            }),
            workers: Arc::new(Mutex::new(Vec::new())),
        };
        let mut workers = svc
            .workers
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        for _ in 0..svc.inner.cfg.workers {
            let inner = Arc::clone(&svc.inner);
            workers.push(std::thread::spawn(move || worker_loop(&inner)));
        }
        drop(workers);
        Ok(svc)
    }

    /// Submits a job, coalescing onto an existing one when the canonical
    /// spec matches. The job file is on disk before this returns, so an
    /// accepted job survives a daemon kill.
    ///
    /// # Errors
    ///
    /// See [`SubmitError`].
    pub fn submit(&self, mut spec: JobSpec) -> std::result::Result<Submitted, SubmitError> {
        spec.check_scale().map_err(SubmitError::Rejected)?;
        // Admission policy: the server floor fills an unspecified
        // coverage requirement and rejects weaker ones.
        if let JobSpec::Validate { min_coverage, .. } = &mut spec {
            if min_coverage.is_nan() {
                *min_coverage = self.inner.cfg.min_coverage;
            } else if *min_coverage < self.inner.cfg.min_coverage {
                return Err(SubmitError::Rejected(format!(
                    "min_coverage {} is below this server's floor of {}",
                    min_coverage, self.inner.cfg.min_coverage
                )));
            }
        }
        let id = spec.id();
        let mut st = self.inner.lock();
        metric_counter("service.jobs.submitted").inc();
        if let Some(job) = st.jobs.get_mut(&id) {
            job.coalesced += 1;
            metric_counter("service.jobs.coalesced").inc();
            return Ok(Submitted {
                id,
                coalesced: true,
            });
        }
        let in_flight = st
            .jobs
            .values()
            .filter(|j| matches!(j.state, JobState::Queued | JobState::Running))
            .count();
        if in_flight >= self.inner.cfg.queue_limit {
            return Err(SubmitError::Busy { in_flight });
        }
        // Persist before acknowledging: a job the client has an id for
        // must survive a kill.
        let path = self.inner.cfg.queue_dir.join(format!("{id}.job.json"));
        crate::persist::write_atomic(&path, spec.canonical_json().as_bytes())
            .map_err(|e| SubmitError::Io(GemStoneError::Io(e)))?;
        st.jobs.insert(
            id.clone(),
            JobRecord {
                spec,
                state: JobState::Queued,
                coalesced: 0,
                error: None,
            },
        );
        st.queue.push_back(id.clone());
        metric("service.queue.depth").set(st.queue.len() as f64);
        drop(st);
        self.inner.wake.notify_one();
        Ok(Submitted {
            id,
            coalesced: false,
        })
    }

    /// Parses and submits a `POST /jobs` body in one step.
    ///
    /// # Errors
    ///
    /// [`SubmitError::Rejected`] on parse failures, otherwise as
    /// [`Service::submit`].
    pub fn submit_json(&self, body: &str) -> std::result::Result<Submitted, SubmitError> {
        let spec = JobSpec::parse(body).map_err(SubmitError::Rejected)?;
        self.submit(spec)
    }

    /// Looks up a job. Validation progress is read from the job's
    /// checkpoint file, so it advances while the job runs. The checkpoint
    /// can be megabytes, so it is loaded after the state lock is released:
    /// a status poll never blocks the workers or other requests.
    pub fn status(&self, id: &str) -> Option<JobStatus> {
        let (spec, state, coalesced, error) = {
            let st = self.inner.lock();
            let job = st.jobs.get(id)?;
            (
                job.spec.clone(),
                job.state,
                job.coalesced,
                job.error.clone(),
            )
        };
        let total = match &spec {
            JobSpec::Validate { workloads, .. } if workloads.is_empty() => {
                suites::validation_suite().len()
            }
            JobSpec::Validate { workloads, .. } => workloads.len(),
            _ => 1,
        };
        let completed = match &spec {
            _ if state == JobState::Done => total,
            JobSpec::Validate { .. } => {
                let ck = self.inner.cfg.queue_dir.join(format!("{id}.ck.json"));
                CollectCheckpoint::load(&ck)
                    .map(|c| c.completed_count() + c.quarantined.len())
                    .unwrap_or(0)
            }
            _ => 0,
        };
        Some(JobStatus {
            id: id.to_string(),
            spec,
            state,
            completed,
            total,
            coalesced,
            artefact: (state == JobState::Done)
                .then(|| self.inner.cfg.queue_dir.join(format!("{id}.result.json"))),
            error,
        })
    }

    /// All job ids, oldest-submitted first within the map's id order.
    pub fn job_ids(&self) -> Vec<String> {
        self.inner.lock().jobs.keys().cloned().collect()
    }

    /// True once every known job is settled (done or quarantined).
    pub fn drained(&self) -> bool {
        let st = self.inner.lock();
        st.jobs
            .values()
            .all(|j| matches!(j.state, JobState::Done | JobState::Quarantined))
    }

    /// Stops the worker pool: running jobs finish, queued jobs stay
    /// persisted for the next daemon. Idempotent; also called on drop.
    pub fn shutdown(&self) {
        self.inner.shutdown.store(true, Ordering::SeqCst);
        self.inner.wake.notify_all();
        let mut workers = self
            .workers
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        for handle in workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        // Only the last clone tears the pool down (workers never hold
        // `Service` clones, so user-side drops reach 2: this one plus
        // the `workers` Arc in the handles vector's owner).
        if Arc::strong_count(&self.workers) == 1 {
            self.shutdown();
        }
    }
}

/// Counters update continuously, but occupancy numbers (entry counts,
/// live and peak trace bytes) only exist as method calls on the global
/// caches: mirror them into gauges right before an export (`/metrics`,
/// the CLI's dumps).
pub fn sync_cache_gauges() {
    let cache = SimCache::global();
    let traces = cache.trace_cache();
    metric("simcache.entries").set(cache.len() as f64);
    metric("trace_cache.entries").set(traces.len() as f64);
    metric("trace_cache.bytes").set(traces.bytes() as f64);
    metric("trace_cache.peak_bytes").set(traces.peak_bytes() as f64);
}

fn metric(name: &str) -> Arc<gemstone_obs::registry::Gauge> {
    Registry::global().gauge(name)
}

fn metric_counter(name: &str) -> Arc<gemstone_obs::registry::Counter> {
    Registry::global().counter(name)
}

fn worker_loop(inner: &Arc<Inner>) {
    loop {
        let (id, spec) = {
            let mut st = inner.lock();
            loop {
                if inner.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                if let Some(id) = st.queue.pop_front() {
                    metric("service.queue.depth").set(st.queue.len() as f64);
                    let job = st.jobs.get_mut(&id).expect("queued job exists");
                    job.state = JobState::Running;
                    break (id, job.spec.clone());
                }
                st = inner
                    .wake
                    .wait(st)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
            }
        };

        let outcome = {
            let _span = gemstone_obs::span::span("service.job")
                .attr("kind", spec.kind_name())
                .attr("id", &id);
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                execute(&inner.cfg, &id, &spec)
            }))
        };
        let mut st = inner.lock();
        let job = st.jobs.get_mut(&id).expect("running job exists");
        match outcome {
            Ok(Ok(())) => {
                job.state = JobState::Done;
                metric_counter("service.jobs.completed").inc();
            }
            Ok(Err(e)) => {
                job.state = JobState::Quarantined;
                job.error = Some(e.to_string());
                metric_counter("service.jobs.quarantined").inc();
            }
            Err(panic) => {
                let msg = panic
                    .downcast_ref::<&str>()
                    .map(|s| (*s).to_string())
                    .or_else(|| panic.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "worker panicked".to_string());
                job.state = JobState::Quarantined;
                job.error = Some(format!("panic: {msg}"));
                metric_counter("service.jobs.quarantined").inc();
            }
        }
    }
}

/// Runs one job and writes its artefact. Every path here is
/// deterministic, which is what makes coalescing and queue-resume safe:
/// whoever executes the spec, the artefact bytes are the same.
fn execute(cfg: &ServiceConfig, id: &str, spec: &JobSpec) -> Result<()> {
    let artefact = cfg.queue_dir.join(format!("{id}.result.json"));
    match spec {
        JobSpec::Validate {
            scale,
            clusters,
            models,
            workloads,
            min_coverage,
        } => {
            let experiment = ExperimentConfig {
                workload_scale: *scale,
                clusters: clusters.clone(),
                models: models.clone(),
                ..ExperimentConfig::default()
            };
            let specs: Vec<WorkloadSpec> = if workloads.is_empty() {
                suites::validation_suite()
                    .iter()
                    .map(|w| w.scaled(*scale))
                    .collect()
            } else {
                workloads
                    .iter()
                    .map(|n| {
                        suites::by_name(n)
                            .expect("admission validated workload names")
                            .scaled(*scale)
                    })
                    .collect()
            };
            let opts = ResilienceOptions {
                faults: FaultInjector::global(),
                retry: RetryPolicy::default(),
                checkpoint: Some(cfg.queue_dir.join(format!("{id}.ck.json"))),
                resume: true,
                min_coverage: *min_coverage,
            };
            let outcome = collect_resilient(&experiment, specs, &opts)?;
            // The same writer `gemstone collect --save` uses, so the
            // daemon's artefact is byte-identical to the CLI's.
            crate::persist::save_collated(&outcome.collated, &artefact)
        }
        JobSpec::Profile {
            workload,
            scale,
            model,
            freq_hz,
        } => {
            let spec = suites::by_name(workload)
                .expect("admission validated workload names")
                .scaled(*scale);
            Gem5Sim::check_faults(&FaultInjector::global(), &spec, *model, *freq_hz, 0)
                .map_err(|e| GemStoneError::MissingData(format!("simulation failed: {e}")))?;
            // The process-wide cache, which the other job kinds' default
            // board uses too.
            let cache = SimCache::global();
            let run = Gem5Sim::run(&cache, &spec, *model, *freq_hz, TierConfig::default());
            let mut out = String::new();
            out.push_str("{\"workload\":");
            push_str_lit(&mut out, workload);
            let _ = write!(
                out,
                ",\"model\":\"{}\",\"freq_hz\":",
                jsonio::model_name(*model)
            );
            push_f64(&mut out, *freq_hz);
            out.push_str(",\"sim_time_s\":");
            push_f64(&mut out, run.time_s);
            let _ = write!(out, ",\"stats\":{}}}", run.stats_map.len());
            crate::persist::write_atomic(&artefact, out.as_bytes())?;
            Ok(())
        }
        JobSpec::PowerModel { cluster, scale } => {
            let specs: Vec<WorkloadSpec> = suites::power_suite()
                .iter()
                .map(|w| w.scaled(*scale))
                .collect();
            let fitted = fitting::fit_cluster_model(
                &ExperimentConfig::default().board,
                *cluster,
                &specs,
                &SelectionOptions::gem5_restricted(),
            )?;
            let mut out = String::new();
            let _ = write!(
                out,
                "{{\"cluster\":\"{}\",\"mape\":",
                jsonio::cluster_name(*cluster)
            );
            push_f64(&mut out, fitted.quality.mape);
            out.push_str(",\"ser\":");
            push_f64(&mut out, fitted.quality.ser);
            out.push_str(",\"adj_r_squared\":");
            push_f64(&mut out, fitted.quality.adj_r_squared);
            let _ = write!(
                out,
                ",\"n\":{},\"terms\":{},\"equations\":",
                fitted.quality.n,
                fitted.selection.terms.len()
            );
            push_str_lit(&mut out, &fitted.model.equations());
            out.push('}');
            crate::persist::write_atomic(&artefact, out.as_bytes())?;
            Ok(())
        }
    }
}

/// Handles one HTTP exchange against the service — the whole wire API of
/// `gemstone serve`. Split from the accept loop so tests can drive it
/// with an in-memory stream.
pub fn handle_request(svc: &Service, req: &gemstone_obs::http::Request) -> (u16, String, String) {
    let json = "application/json".to_string();
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => (200, json, "{\"ok\":true}".to_string()),
        ("GET", "/metrics") => {
            sync_cache_gauges();
            (
                200,
                "text/plain; version=0.0.4".to_string(),
                gemstone_obs::export::prometheus(Registry::global()),
            )
        }
        ("POST", "/jobs") => match svc.submit_json(&req.body) {
            Ok(sub) => (
                202,
                json,
                format!("{{\"id\":\"{}\",\"coalesced\":{}}}", sub.id, sub.coalesced),
            ),
            Err(SubmitError::Busy { in_flight }) => (
                429,
                json,
                format!("{{\"error\":\"queue full\",\"in_flight\":{in_flight}}}"),
            ),
            Err(SubmitError::Rejected(msg)) => {
                let mut body = String::from("{\"error\":");
                push_str_lit(&mut body, &msg);
                body.push('}');
                (400, json, body)
            }
            Err(SubmitError::Io(e)) => {
                let mut body = String::from("{\"error\":");
                push_str_lit(&mut body, &e.to_string());
                body.push('}');
                (500, json, body)
            }
        },
        ("GET", "/jobs") => {
            let mut body = String::from("{\"jobs\":[");
            let statuses = svc.job_ids().into_iter().filter_map(|id| svc.status(&id));
            push_joined(&mut body, ",", statuses, |out, status| {
                out.push_str(&status.to_json());
            });
            body.push_str("]}");
            (200, json, body)
        }
        ("GET", path) if path.starts_with("/jobs/") => {
            match svc.status(path.trim_start_matches("/jobs/")) {
                Some(status) => (200, json, status.to_json()),
                None => (404, json, "{\"error\":\"no such job\"}".to_string()),
            }
        }
        ("GET", _) => (404, json, "{\"error\":\"no such endpoint\"}".to_string()),
        _ => (405, json, "{\"error\":\"method not allowed\"}".to_string()),
    }
}

/// Runs the accept loop until [`Service::shutdown`] is observed. One
/// request per connection, handled serially — job submission and status
/// are cheap; the heavy lifting happens on the worker pool.
///
/// # Errors
///
/// Propagates listener failures; per-connection errors are answered with
/// HTTP 400 and do not stop the loop.
pub fn serve(svc: &Service, listener: &std::net::TcpListener) -> std::io::Result<()> {
    for stream in listener.incoming() {
        if svc.inner.shutdown.load(Ordering::SeqCst) {
            return Ok(());
        }
        let mut stream = match stream {
            Ok(s) => s,
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => continue,
            Err(e) => return Err(e),
        };
        match gemstone_obs::http::read_request(&mut stream) {
            Ok(req) => {
                let (status, content_type, body) = handle_request(svc, &req);
                let _ = gemstone_obs::http::respond(&mut stream, status, &content_type, &body);
            }
            Err(e) => {
                let _ = gemstone_obs::http::respond(
                    &mut stream,
                    400,
                    "text/plain",
                    &format!("bad request: {e}"),
                );
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    fn unique_dir(tag: &str) -> PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        std::env::temp_dir().join(format!(
            "gemstone-service-{tag}-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ))
    }

    fn tiny_validate() -> JobSpec {
        JobSpec::Validate {
            scale: 0.02,
            clusters: vec![Cluster::BigA15],
            models: vec![Gem5Model::Ex5BigOld],
            workloads: vec!["mi-sha".into(), "mi-crc32".into()],
            min_coverage: 1.0,
        }
    }

    #[test]
    fn ids_are_canonical_and_distinct() {
        let a = tiny_validate();
        let parsed = JobSpec::parse(&a.canonical_json()).unwrap();
        assert_eq!(parsed.id(), a.id(), "canonical form round-trips to itself");
        let b = JobSpec::Profile {
            workload: "mi-sha".into(),
            scale: 0.02,
            model: Gem5Model::Ex5BigOld,
            freq_hz: 1.6e9,
        };
        assert_ne!(a.id(), b.id());
        // Same job written with fields the parser defaults: same id.
        let sparse = JobSpec::parse(
            r#"{"kind":"profile","workload":"mi-sha","scale":0.02,"model":"Ex5BigOld","freq_hz":1600000000}"#,
        )
        .unwrap();
        assert_eq!(sparse.id(), b.id());
    }

    #[test]
    fn parse_rejects_malformed_specs() {
        for bad in [
            "not json",
            r#"{"kind":"mine-bitcoin"}"#,
            r#"{"kind":"validate","scale":-1}"#,
            r#"{"kind":"validate","min_coverage":7}"#,
            r#"{"kind":"validate","workloads":["no-such-workload"]}"#,
            r#"{"kind":"profile","workload":"mi-sha","model":"GPT-5"}"#,
            r#"{"kind":"power-model","cluster":"M4Max"}"#,
        ] {
            assert!(JobSpec::parse(bad).is_err(), "{bad} must be rejected");
        }
    }

    #[test]
    fn out_of_range_scale_is_a_400_for_every_kind() {
        let dir = unique_dir("scale-bound");
        let svc = Service::open(ServiceConfig {
            queue_dir: dir.clone(),
            workers: 0,
            ..ServiceConfig::default()
        })
        .unwrap();
        for body in [
            r#"{"kind":"profile","workload":"mi-sha","model":"Ex5BigOld","scale":1e12}"#,
            r#"{"kind":"validate","scale":10.5}"#,
            r#"{"kind":"power-model","cluster":"BigA15","scale":0}"#,
            r#"{"kind":"profile","workload":"mi-sha","model":"Ex5BigOld","scale":1e309}"#,
        ] {
            let req = gemstone_obs::http::Request {
                method: "POST".into(),
                path: "/jobs".into(),
                body: body.into(),
            };
            let (status, _, reply) = handle_request(&svc, &req);
            assert_eq!(status, 400, "{body}: {reply}");
            assert!(reply.contains("(0, 10]"), "{reply}");
        }
        // The in-process entry point applies the same bound.
        let err = svc
            .submit(JobSpec::Profile {
                workload: "mi-sha".into(),
                scale: 1e12,
                model: Gem5Model::Ex5BigOld,
                freq_hz: 1.0e9,
            })
            .unwrap_err();
        assert!(matches!(err, SubmitError::Rejected(_)), "{err}");
        // 10 itself is the CLI's largest scale, so it is admitted.
        assert!(svc
            .submit_json(r#"{"kind":"power-model","cluster":"BigA15","scale":10}"#)
            .is_ok());
        assert_eq!(svc.job_ids().len(), 1, "refused jobs were never persisted");
        drop(svc);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_persisted_out_of_range_job_opens_quarantined_and_never_runs() {
        let dir = unique_dir("scale-persisted");
        std::fs::create_dir_all(&dir).unwrap();
        // A job accepted before the bound existed, left in the queue.
        let spec = JobSpec::Profile {
            workload: "mi-sha".into(),
            scale: 1e12,
            model: Gem5Model::Ex5BigOld,
            freq_hz: 1.0e9,
        };
        let id = spec.id();
        std::fs::write(dir.join(format!("{id}.job.json")), spec.canonical_json()).unwrap();
        let svc = Service::open(ServiceConfig {
            queue_dir: dir.clone(),
            workers: 1,
            ..ServiceConfig::default()
        })
        .unwrap();
        assert!(svc.drained(), "nothing is queued");
        let status = svc.status(&id).unwrap();
        assert_eq!(status.state, JobState::Quarantined);
        assert_eq!(status.spec, spec);
        let error = status.error.unwrap();
        assert!(
            error.contains("\"scale\" must be a number in (0, 10]"),
            "{error}"
        );
        svc.shutdown();
        assert!(!dir.join(format!("{id}.result.json")).exists());
        drop(svc);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn deeply_nested_body_is_a_400_not_a_crash() {
        let dir = unique_dir("nesting");
        let svc = Service::open(ServiceConfig {
            queue_dir: dir.clone(),
            workers: 0,
            ..ServiceConfig::default()
        })
        .unwrap();
        let req = gemstone_obs::http::Request {
            method: "POST".into(),
            path: "/jobs".into(),
            body: "[".repeat(gemstone_obs::http::MAX_BODY_BYTES),
        };
        let (status, _, body) = handle_request(&svc, &req);
        assert_eq!(status, 400, "{body}");
        assert!(body.contains("nesting"), "{body}");
        assert!(svc.job_ids().is_empty());
        drop(svc);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn status_reports_checkpoint_progress_of_a_queued_validate_job() {
        let dir = unique_dir("progress");
        let svc = Service::open(ServiceConfig {
            queue_dir: dir.clone(),
            workers: 0,
            ..ServiceConfig::default()
        })
        .unwrap();
        let names = ["mi-sha", "mi-crc32", "mi-fft"];
        let sub = svc
            .submit(JobSpec::Validate {
                scale: 0.02,
                clusters: vec![Cluster::BigA15],
                models: vec![Gem5Model::Ex5BigOld],
                workloads: names.iter().map(|n| n.to_string()).collect(),
                min_coverage: 1.0,
            })
            .unwrap();
        let ck_path = dir.join(format!("{}.ck.json", sub.id));
        let progress = || {
            let status = svc.status(&sub.id).unwrap();
            assert_eq!(status.state, JobState::Queued);
            (status.completed, status.total)
        };
        assert_eq!(progress(), (0, 3), "no checkpoint yet");
        // k settled workloads: the first k - 1 completed, the last one
        // quarantined, which settles it too.
        for k in 1..=names.len() {
            let mut ck = CollectCheckpoint::new("v1:0".to_string());
            for name in &names[..k - 1] {
                ck.completed.insert(name.to_string(), Vec::new());
            }
            ck.quarantined
                .push(gemstone_platform::fault::QuarantinedWorkload {
                    workload: names[k - 1].to_string(),
                    site: "measure".to_string(),
                    attempts: 3,
                    reason: "test".to_string(),
                });
            ck.save(&ck_path).unwrap();
            assert_eq!(progress(), (k, 3), "{k} settled");
        }
        // A corrupt checkpoint reads as no progress, not as an error.
        std::fs::write(&ck_path, "{").unwrap();
        assert_eq!(progress(), (0, 3));
        // The full suite is the total of a job that names no workloads.
        let all = svc
            .submit_json(r#"{"kind":"validate","scale":0.02}"#)
            .unwrap();
        let status = svc.status(&all.id).unwrap();
        assert_eq!((status.completed, status.total), (0, 45));
        drop(svc);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn duplicate_submissions_coalesce_onto_one_job() {
        let dir = unique_dir("coalesce");
        let svc = Service::open(ServiceConfig {
            queue_dir: dir.clone(),
            workers: 0, // keep jobs queued so duplicates are in-flight
            ..ServiceConfig::default()
        })
        .unwrap();
        let first = svc.submit(tiny_validate()).unwrap();
        assert!(!first.coalesced);
        for _ in 0..3 {
            let again = svc.submit(tiny_validate()).unwrap();
            assert!(again.coalesced);
            assert_eq!(again.id, first.id);
        }
        assert_eq!(svc.job_ids().len(), 1);
        assert_eq!(svc.status(&first.id).unwrap().coalesced, 3);
        drop(svc);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn queue_limit_refuses_further_jobs() {
        let dir = unique_dir("busy");
        let svc = Service::open(ServiceConfig {
            queue_dir: dir.clone(),
            workers: 0,
            queue_limit: 1,
            ..ServiceConfig::default()
        })
        .unwrap();
        svc.submit(tiny_validate()).unwrap();
        let err = svc
            .submit(JobSpec::PowerModel {
                cluster: Cluster::BigA15,
                scale: 0.02,
            })
            .unwrap_err();
        assert!(matches!(err, SubmitError::Busy { in_flight: 1 }));
        // Coalescing onto the existing job is still allowed: it adds no
        // work, so back-pressure does not apply.
        assert!(svc.submit(tiny_validate()).unwrap().coalesced);
        drop(svc);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn admission_policy_enforces_the_coverage_floor() {
        let dir = unique_dir("admission");
        let svc = Service::open(ServiceConfig {
            queue_dir: dir.clone(),
            workers: 0,
            min_coverage: 0.8,
            ..ServiceConfig::default()
        })
        .unwrap();
        // Unspecified coverage inherits the floor...
        let sub = svc
            .submit_json(r#"{"kind":"validate","scale":0.02,"clusters":["BigA15"],"models":["Ex5BigOld"],"workloads":["mi-sha"]}"#)
            .unwrap();
        match &svc.status(&sub.id).unwrap().spec {
            JobSpec::Validate { min_coverage, .. } => assert_eq!(*min_coverage, 0.8),
            other => panic!("expected validate, got {other:?}"),
        }
        // ...stricter is accepted, weaker is refused.
        assert!(svc
            .submit_json(r#"{"kind":"validate","min_coverage":0.9}"#)
            .is_ok());
        let err = svc
            .submit_json(r#"{"kind":"validate","min_coverage":0.5}"#)
            .unwrap_err();
        assert!(matches!(err, SubmitError::Rejected(_)), "{err}");
        drop(svc);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn profile_job_runs_to_done() {
        let dir = unique_dir("profile");
        let svc = Service::open(ServiceConfig {
            queue_dir: dir.clone(),
            workers: 1,
            ..ServiceConfig::default()
        })
        .unwrap();
        let sub = svc
            .submit(JobSpec::Profile {
                workload: "mi-sha".into(),
                scale: 0.02,
                model: Gem5Model::Ex5BigOld,
                freq_hz: 1.6e9,
            })
            .unwrap();
        while !svc.drained() {
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        let status = svc.status(&sub.id).unwrap();
        assert_eq!(status.state, JobState::Done);
        let artefact = std::fs::read_to_string(status.artefact.unwrap()).unwrap();
        let v = Value::parse(&artefact).unwrap();
        assert_eq!(v.get("workload").and_then(Value::as_str), Some("mi-sha"));
        assert!(v.get("sim_time_s").and_then(Value::as_f64).unwrap() > 0.0);
        drop(svc);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_panicking_job_is_quarantined_and_the_pool_survives() {
        let dir = unique_dir("panic");
        let svc = Service::open(ServiceConfig {
            queue_dir: dir.clone(),
            workers: 1,
            ..ServiceConfig::default()
        })
        .unwrap();
        // A validate spec whose workload vanished between admission and
        // execution (we bypass submit-side validation by constructing the
        // spec directly) makes the worker panic at `expect`.
        let sub = svc
            .submit(JobSpec::Validate {
                scale: 0.02,
                clusters: vec![Cluster::BigA15],
                models: vec![Gem5Model::Ex5BigOld],
                workloads: vec!["not-a-workload".into()],
                min_coverage: 1.0,
            })
            .unwrap();
        while !svc.drained() {
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        let status = svc.status(&sub.id).unwrap();
        assert_eq!(status.state, JobState::Quarantined);
        assert!(status.error.unwrap().contains("panic"));
        // The pool still works: a good job completes afterwards.
        let ok = svc
            .submit(JobSpec::Profile {
                workload: "mi-sha".into(),
                scale: 0.02,
                model: Gem5Model::Ex5BigOld,
                freq_hz: 1.6e9,
            })
            .unwrap();
        while !svc.drained() {
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        assert_eq!(svc.status(&ok.id).unwrap().state, JobState::Done);
        drop(svc);
        std::fs::remove_dir_all(&dir).ok();
    }
}
