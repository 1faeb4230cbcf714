//! Crash-safe checkpoints for characterisation sweeps.
//!
//! The paper's data collection is hours of board time; losing a run to a
//! crash at workload 43 of 45 is expensive. [`CollectCheckpoint`] persists
//! the completed per-workload results (and any quarantined workloads)
//! after each unit of work, atomically via [`crate::persist::write_atomic`]
//! — so a killed sweep restarts from where it stopped, and
//! [`crate::resilience::collect_resilient`] guarantees the resumed dataset
//! is bit-identical to an uninterrupted one.
//!
//! A checkpoint is only valid for the exact experiment that wrote it: the
//! file carries a [`fingerprint`] over the board configuration, cluster
//! and model lists and the full workload specifications. Loading a
//! checkpoint against a different configuration is a
//! [`GemStoneError::Parse`] (there but unusable), while a missing file is
//! [`GemStoneError::Io`] (not there yet — a fresh start, not an error, for
//! resume logic).
//!
//! Every persisted snapshot increments the `checkpoint.writes` counter in
//! the process-wide [`gemstone_obs::Registry`].

use crate::collate::WorkloadRecord;
use crate::experiment::ExperimentConfig;
use crate::persist::write_atomic;
use crate::{GemStoneError, Result};
use gemstone_platform::fault::QuarantinedWorkload;
use gemstone_workloads::spec::WorkloadSpec;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::{Arc, OnceLock};

/// On-disk format version; bumped on incompatible layout changes.
pub const CHECKPOINT_VERSION: u32 = 1;

/// Process-wide count of persisted checkpoint snapshots
/// (`checkpoint.writes`).
fn checkpoint_counter() -> &'static gemstone_obs::Counter {
    static C: OnceLock<Arc<gemstone_obs::Counter>> = OnceLock::new();
    C.get_or_init(|| gemstone_obs::Registry::global().counter("checkpoint.writes"))
}

/// Fingerprints an experiment: any change to the board's measurement
/// conditions, the cluster/model grid or the (scaled) workload
/// specifications produces a different string, so a stale checkpoint can
/// never silently contribute records to a different experiment.
pub fn fingerprint(cfg: &ExperimentConfig, workloads: &[WorkloadSpec]) -> String {
    let clusters: Vec<&str> = cfg.clusters.iter().map(|c| c.name()).collect();
    let models: Vec<&str> = cfg.models.iter().map(|m| m.name()).collect();
    // The sim cache is a memo — it never changes results — so it is the
    // one board field deliberately left out.
    let board = format!(
        "ambient={:?} sensor={:?} pmu={:?} jitter={:?} seed={}",
        cfg.board.ambient_c,
        cfg.board.sensor,
        cfg.board.pmu,
        cfg.board.timing_jitter,
        cfg.board.board_seed
    );
    // Debug formatting covers every field of the (deep) spec tree, is
    // deterministic and cannot fail, so the fingerprint is total.
    let specs = format!("{workloads:?}");
    // The tier is canonicalised so sampling knobs only matter when the
    // sampled tier is actually selected.
    let text = format!(
        "board[{board}] scale={:?} clusters={clusters:?} models={models:?} \
         fidelity={:?} workloads={specs}",
        cfg.workload_scale,
        cfg.fidelity.canonical()
    );
    format!(
        "v{CHECKPOINT_VERSION}:{:016x}",
        gemstone_obs::fnv::fnv1a(text.as_bytes())
    )
}

/// Partial sweep state persisted between units of work.
///
/// `completed` maps workload name → that workload's collated records, in
/// the workload's canonical record order. Iterating the `BTreeMap` yields
/// workloads in lexicographic order — exactly the workload-major order
/// [`crate::experiment::run_over`] sorts into — which is what makes
/// resumed output bit-identical to a straight-through run.
#[derive(Debug, Clone, Default)]
pub struct CollectCheckpoint {
    /// On-disk format version ([`CHECKPOINT_VERSION`]).
    pub version: u32,
    /// Experiment [`fingerprint`] this checkpoint belongs to.
    pub fingerprint: String,
    /// Collated records per finished workload.
    pub completed: BTreeMap<String, Vec<WorkloadRecord>>,
    /// Workloads dropped after exhausting their retry budget.
    pub quarantined: Vec<QuarantinedWorkload>,
}

impl CollectCheckpoint {
    /// An empty checkpoint for the experiment identified by `fingerprint`.
    pub fn new(fingerprint: String) -> CollectCheckpoint {
        CollectCheckpoint {
            version: CHECKPOINT_VERSION,
            fingerprint,
            completed: BTreeMap::new(),
            quarantined: Vec::new(),
        }
    }

    /// Loads a checkpoint.
    ///
    /// # Errors
    ///
    /// [`GemStoneError::Io`] when the file is missing or unreadable (for
    /// resume logic this means "start fresh"); [`GemStoneError::Parse`]
    /// when it exists but is corrupt or has an incompatible version.
    pub fn load(path: impl AsRef<Path>) -> Result<CollectCheckpoint> {
        let path = path.as_ref();
        let json = std::fs::read_to_string(path)?;
        let ck = crate::jsonio::checkpoint_from_json(&json)
            .map_err(|e| GemStoneError::Parse(format!("{}: {e}", path.display())))?;
        if ck.version != CHECKPOINT_VERSION {
            return Err(GemStoneError::Parse(format!(
                "{}: checkpoint version {} (this build reads {})",
                path.display(),
                ck.version,
                CHECKPOINT_VERSION
            )));
        }
        Ok(ck)
    }

    /// [`CollectCheckpoint::load`] plus a fingerprint check: a checkpoint
    /// written by a different experiment configuration is rejected rather
    /// than silently mixed into this run's dataset.
    ///
    /// # Errors
    ///
    /// As [`CollectCheckpoint::load`], plus [`GemStoneError::Parse`] on a
    /// fingerprint mismatch.
    pub fn load_compatible(path: impl AsRef<Path>, fingerprint: &str) -> Result<CollectCheckpoint> {
        let path = path.as_ref();
        let ck = Self::load(path)?;
        if ck.fingerprint != fingerprint {
            return Err(GemStoneError::Parse(format!(
                "{}: checkpoint fingerprint {} does not match this experiment ({fingerprint}) — \
                 it was written by a different configuration",
                path.display(),
                ck.fingerprint
            )));
        }
        Ok(ck)
    }

    /// Persists the checkpoint atomically (temp file + rename): a crash
    /// mid-save leaves the previous snapshot intact, never a truncated
    /// one. Serialisation is the in-repo codec
    /// ([`crate::jsonio::checkpoint_to_json`]) and cannot fail.
    ///
    /// # Errors
    ///
    /// [`GemStoneError::Io`] on filesystem failures.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<()> {
        let json = crate::jsonio::checkpoint_to_json(self);
        write_atomic(path, json.as_bytes())?;
        checkpoint_counter().add(1);
        Ok(())
    }

    /// Whether `workload` needs no further work (finished or quarantined).
    pub fn is_settled(&self, workload: &str) -> bool {
        self.completed.contains_key(workload)
            || self.quarantined.iter().any(|q| q.workload == workload)
    }

    /// Workloads with results in this checkpoint.
    pub fn completed_count(&self) -> usize {
        self.completed.len()
    }

    /// Flattens the per-workload record lists into one vector, workloads in
    /// lexicographic order — the order a full [`crate::experiment::run_over`]
    /// sweep produces.
    pub fn into_records(self) -> Vec<WorkloadRecord> {
        self.completed.into_values().flatten().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gemstone_platform::dvfs::Cluster;
    use gemstone_platform::gem5sim::Gem5Model;
    use gemstone_workloads::suites;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn unique_dir(tag: &str) -> PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        std::env::temp_dir().join(format!(
            "gemstone-ckpt-{tag}-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ))
    }

    fn record(workload: &str, freq_hz: f64) -> WorkloadRecord {
        WorkloadRecord {
            workload: workload.to_string(),
            cluster: Cluster::BigA15,
            model: Gem5Model::Ex5BigOld,
            freq_hz,
            threads: 1,
            hw_time_s: 1.25,
            gem5_time_s: 1.5,
            time_pe: -20.0,
            hw_pmc: BTreeMap::new(),
            gem5_stats: BTreeMap::new(),
            gem5_pmu: BTreeMap::new(),
            hw_power_w: 2.0,
        }
    }

    fn specs() -> Vec<WorkloadSpec> {
        ["mi-sha", "mi-crc32"]
            .iter()
            .map(|n| suites::by_name(n).unwrap().scaled(0.02))
            .collect()
    }

    #[test]
    fn fingerprint_tracks_configuration() {
        let cfg = ExperimentConfig::quick();
        let wl = specs();
        let base = fingerprint(&cfg, &wl);
        assert_eq!(base, fingerprint(&cfg, &wl), "must be deterministic");

        let mut scaled = cfg.clone();
        scaled.workload_scale = 0.1;
        assert_ne!(base, fingerprint(&scaled, &wl));

        let mut seeded = cfg.clone();
        seeded.board.board_seed = 7;
        assert_ne!(base, fingerprint(&seeded, &wl));

        let mut fewer = cfg.clone();
        fewer.models.pop();
        assert_ne!(base, fingerprint(&fewer, &wl));

        let mut retiered = cfg.clone();
        retiered.fidelity = gemstone_uarch::backend::TierConfig::atomic();
        assert_ne!(
            base,
            fingerprint(&retiered, &wl),
            "a checkpoint from another fidelity tier must not resume this sweep"
        );

        assert_ne!(base, fingerprint(&cfg, &wl[..1]));
    }

    #[test]
    fn roundtrip_and_settled_bookkeeping() {
        let dir = unique_dir("roundtrip");
        let path = dir.join("ck.json");
        let mut ck = CollectCheckpoint::new("v1:test".into());
        ck.completed
            .insert("mi-sha".into(), vec![record("mi-sha", 1.0e9)]);
        ck.quarantined.push(QuarantinedWorkload {
            workload: "mi-fft".into(),
            site: "board-run".into(),
            attempts: 4,
            reason: "gave up".into(),
        });
        ck.save(&path).unwrap();
        let back = CollectCheckpoint::load_compatible(&path, "v1:test").unwrap();
        assert_eq!(back.completed_count(), 1);
        assert!(back.is_settled("mi-sha"));
        assert!(back.is_settled("mi-fft"), "quarantined counts as settled");
        assert!(!back.is_settled("mi-crc32"));
        assert_eq!(back.quarantined, ck.quarantined);
        let recs = back.into_records();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].workload, "mi-sha");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn into_records_is_workload_sorted() {
        let mut ck = CollectCheckpoint::new("f".into());
        // Inserted out of order; BTreeMap iteration restores lexicographic
        // workload order, matching run_over's sort.
        ck.completed.insert(
            "mi-sha".into(),
            vec![record("mi-sha", 6.0e8), record("mi-sha", 1.0e9)],
        );
        ck.completed
            .insert("mi-crc32".into(), vec![record("mi-crc32", 1.0e9)]);
        let names: Vec<String> = ck.into_records().into_iter().map(|r| r.workload).collect();
        assert_eq!(names, ["mi-crc32", "mi-sha", "mi-sha"]);
    }

    #[test]
    fn load_errors_classify_missing_vs_broken() {
        let dir = unique_dir("errors");
        std::fs::create_dir_all(&dir).unwrap();
        let missing = dir.join("nope.json");
        assert!(matches!(
            CollectCheckpoint::load(&missing),
            Err(GemStoneError::Io(_))
        ));
        let corrupt = dir.join("corrupt.json");
        std::fs::write(&corrupt, "{ not json").unwrap();
        assert!(matches!(
            CollectCheckpoint::load(&corrupt),
            Err(GemStoneError::Parse(_))
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn version_and_fingerprint_mismatches_are_parse_errors() {
        let dir = unique_dir("mismatch");
        let path = dir.join("ck.json");
        let mut ck = CollectCheckpoint::new("expected".into());
        ck.version = CHECKPOINT_VERSION + 1;
        ck.save(&path).unwrap();
        let err = CollectCheckpoint::load(&path).unwrap_err();
        assert!(matches!(err, GemStoneError::Parse(_)), "{err}");
        assert!(err.to_string().contains("version"));

        let ck = CollectCheckpoint::new("expected".into());
        ck.save(&path).unwrap();
        assert!(CollectCheckpoint::load_compatible(&path, "expected").is_ok());
        let err = CollectCheckpoint::load_compatible(&path, "other").unwrap_err();
        assert!(matches!(err, GemStoneError::Parse(_)), "{err}");
        assert!(err.to_string().contains("fingerprint"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn version_beyond_u32_is_rejected_not_wrapped() {
        // 2^32 + 1 would wrap to version 1 under an `as u32` cast.
        let dir = unique_dir("wrap");
        let path = dir.join("ck.json");
        CollectCheckpoint::new("f".into()).save(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let wrapped = text.replacen(
            &format!("\"version\":{CHECKPOINT_VERSION},"),
            &format!(
                "\"version\":{},",
                (1u64 << 32) + u64::from(CHECKPOINT_VERSION)
            ),
            1,
        );
        assert_ne!(wrapped, text);
        std::fs::write(&path, wrapped).unwrap();
        let err = CollectCheckpoint::load(&path).unwrap_err();
        assert!(matches!(err, GemStoneError::Parse(_)), "{err}");
        assert!(err.to_string().contains("version"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn save_counts_checkpoint_writes() {
        let dir = unique_dir("counter");
        let path = dir.join("ck.json");
        let before = checkpoint_counter().get();
        CollectCheckpoint::new("f".into()).save(&path).unwrap();
        CollectCheckpoint::new("f".into()).save(&path).unwrap();
        assert!(checkpoint_counter().get() >= before + 2);
        std::fs::remove_dir_all(&dir).ok();
    }
}
