//! Dataset persistence.
//!
//! The paper publishes its experimental data (DOI 10.5258/SOTON/D0420);
//! GemStone-rs likewise lets a collated validation dataset be saved to
//! JSON and reloaded, so the expensive characterisation runs can be
//! decoupled from the (cheap, iterated) statistical analyses — and so
//! results can be shipped alongside the code.
//!
//! All writers go through [`write_atomic`] (temp file + rename in the
//! destination directory), so a crash mid-write can never leave a
//! truncated artefact behind: readers see either the old contents or the
//! new, never half of one. Load errors are classified: a missing or
//! unreadable file is [`GemStoneError::Io`], a file that exists but does
//! not parse is [`GemStoneError::Parse`] — the distinction retry and
//! resume logic depends on.
//!
//! # Examples
//!
//! ```no_run
//! use gemstone_core::{collate::Collated, persist};
//!
//! # let collated = Collated::default();
//! persist::save_collated(&collated, "results/validation.json")?;
//! let reloaded = persist::load_collated("results/validation.json")?;
//! assert_eq!(reloaded.records.len(), collated.records.len());
//! # Ok::<(), gemstone_core::GemStoneError>(())
//! ```

use crate::collate::Collated;
use crate::{GemStoneError, Result};
use std::fs;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

/// Writes `contents` to `path` atomically: the bytes go to a uniquely
/// named temp file in the destination directory, which is then renamed
/// over `path`. Parent directories are created as needed. A crash between
/// the two steps leaves `path` untouched (plus, at worst, an orphaned
/// `.tmp` file); it never leaves a truncated `path`.
///
/// This is the single write path for every persisted artefact — datasets,
/// CSV exports, workload lists and sweep checkpoints.
///
/// # Errors
///
/// Returns the underlying [`std::io::Error`] on filesystem failures.
pub fn write_atomic(path: impl AsRef<Path>, contents: &[u8]) -> std::io::Result<()> {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let path = path.as_ref();
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            fs::create_dir_all(parent)?;
        }
    }
    let file_name = path
        .file_name()
        .ok_or_else(|| std::io::Error::other(format!("no file name in {}", path.display())))?;
    let tmp = path.with_file_name(format!(
        ".{}.{}.{}.tmp",
        file_name.to_string_lossy(),
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    fs::write(&tmp, contents)?;
    match fs::rename(&tmp, path) {
        Ok(()) => Ok(()),
        Err(e) => {
            fs::remove_file(&tmp).ok();
            Err(e)
        }
    }
}

/// Saves a collated dataset as JSON (atomically), via the in-repo codec
/// ([`crate::jsonio`]) — deterministic bytes, so identical datasets
/// produce identical artefacts (the `serve` smoke test `cmp`s them).
///
/// # Errors
///
/// Returns [`GemStoneError::Io`] on filesystem failures.
pub fn save_collated(collated: &Collated, path: impl AsRef<Path>) -> Result<()> {
    let json = crate::jsonio::collated_to_json(collated);
    write_atomic(path, json.as_bytes())?;
    Ok(())
}

/// Loads a collated dataset from JSON.
///
/// # Errors
///
/// Returns [`GemStoneError::Io`] when the file is missing or unreadable,
/// [`GemStoneError::Parse`] when it exists but holds invalid data.
pub fn load_collated(path: impl AsRef<Path>) -> Result<Collated> {
    let json = fs::read_to_string(&path)?;
    crate::jsonio::collated_from_json(&json)
        .map_err(|e| GemStoneError::Parse(format!("{}: {e}", path.as_ref().display())))
}

/// The per-record CSV the paper-style figures are drawn from (workload,
/// model, frequency, times, error, power).
pub fn csv(collated: &Collated) -> String {
    let mut out = String::from(
        "workload,model,cluster,freq_mhz,threads,hw_time_s,gem5_time_s,time_pe,hw_power_w\n",
    );
    for r in &collated.records {
        out.push_str(&format!(
            "{},{},{},{:.0},{},{:.9},{:.9},{:.3},{:.4}\n",
            r.workload,
            r.model.name(),
            r.cluster.name(),
            r.freq_hz / 1e6,
            r.threads,
            r.hw_time_s,
            r.gem5_time_s,
            r.time_pe,
            r.hw_power_w
        ));
    }
    out
}

/// Writes [`csv`] to `path`, atomically.
///
/// # Errors
///
/// Returns [`GemStoneError::Io`] on filesystem failures.
pub fn export_csv(collated: &Collated, path: impl AsRef<Path>) -> Result<()> {
    write_atomic(path, csv(collated).as_bytes())?;
    Ok(())
}

/// Saves a workload-specification list as JSON (atomically) — custom
/// workloads can be defined once and shared, like the paper's published
/// benchmark setups.
///
/// # Errors
///
/// Returns [`GemStoneError::Io`] on filesystem failures.
pub fn save_workloads(
    specs: &[gemstone_workloads::spec::WorkloadSpec],
    path: impl AsRef<Path>,
) -> Result<()> {
    let json = crate::jsonio::workloads_to_json(specs);
    write_atomic(path, json.as_bytes())?;
    Ok(())
}

/// Loads a workload-specification list from JSON.
///
/// # Errors
///
/// Returns [`GemStoneError::Io`] when the file is missing or unreadable,
/// [`GemStoneError::Parse`] when it exists but holds invalid data.
pub fn load_workloads(
    path: impl AsRef<Path>,
) -> Result<Vec<gemstone_workloads::spec::WorkloadSpec>> {
    let json = fs::read_to_string(&path)?;
    crate::jsonio::workloads_from_json(&json)
        .map_err(|e| GemStoneError::Parse(format!("{}: {e}", path.as_ref().display())))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::{run_over, ExperimentConfig};
    use gemstone_platform::dvfs::Cluster;
    use gemstone_platform::gem5sim::Gem5Model;
    use gemstone_workloads::suites;
    use std::path::PathBuf;

    /// A temp directory unique per (process, call): concurrent `cargo
    /// test` invocations used to collide on fixed names like
    /// "gemstone-persist-test" and delete each other's files mid-test.
    fn unique_dir(tag: &str) -> PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        std::env::temp_dir().join(format!(
            "gemstone-persist-{tag}-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ))
    }

    fn collated() -> Collated {
        let cfg = ExperimentConfig {
            workload_scale: 0.02,
            clusters: vec![Cluster::BigA15],
            models: vec![Gem5Model::Ex5BigOld],
            ..ExperimentConfig::default()
        };
        let wl = ["mi-sha", "mi-crc32"]
            .iter()
            .map(|n| suites::by_name(n).unwrap().scaled(0.02))
            .collect();
        Collated::build(&run_over(&cfg, wl))
    }

    #[test]
    fn json_roundtrip_preserves_everything() {
        let c = collated();
        let dir = unique_dir("roundtrip");
        let path = dir.join("collated.json");
        save_collated(&c, &path).unwrap();
        let back = load_collated(&path).unwrap();
        assert_eq!(back.records.len(), c.records.len());
        for (a, b) in c.records.iter().zip(&back.records) {
            assert_eq!(a.workload, b.workload);
            assert_eq!(a.model, b.model);
            assert_eq!(a.hw_time_s, b.hw_time_s);
            assert_eq!(a.time_pe, b.time_pe);
            assert_eq!(a.hw_pmc, b.hw_pmc);
            assert_eq!(a.gem5_stats.len(), b.gem5_stats.len());
        }
        // Analyses run identically on the reloaded data.
        let s1 = crate::analysis::summary::analyse(&c).unwrap();
        let s2 = crate::analysis::summary::analyse(&back).unwrap();
        assert_eq!(
            s1.pooled(Gem5Model::Ex5BigOld).unwrap().mape,
            s2.pooled(Gem5Model::Ex5BigOld).unwrap().mape
        );
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn csv_export_has_all_rows() {
        let c = collated();
        let dir = unique_dir("csv");
        let path = dir.join("records.csv");
        export_csv(&c, &path).unwrap();
        let text = fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), c.records.len() + 1);
        assert!(text.starts_with("workload,model,"));
        assert!(text.contains("mi-sha"));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn workload_specs_roundtrip_and_generate_identically() {
        use gemstone_workloads::gen::StreamGen;
        let specs = suites::validation_suite();
        let dir = unique_dir("wl");
        let path = dir.join("workloads.json");
        save_workloads(&specs, &path).unwrap();
        let back = load_workloads(&path).unwrap();
        assert_eq!(back.len(), specs.len());
        // The reloaded specs generate bit-identical streams.
        let probe = back
            .iter()
            .find(|w| w.name == "par-basicmath-rad2deg")
            .unwrap()
            .scaled(0.02);
        let orig = specs
            .iter()
            .find(|w| w.name == "par-basicmath-rad2deg")
            .unwrap()
            .scaled(0.02);
        let a: Vec<_> = StreamGen::new(&probe).collect();
        let b: Vec<_> = StreamGen::new(&orig).collect();
        assert_eq!(a, b);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn workload_seed_beyond_f64_precision_round_trips() {
        // 2^53 + 1 is the first integer an f64 cannot hold.
        let mut spec = suites::by_name("mi-sha").unwrap().clone();
        spec.seed = (1 << 53) + 1;
        let dir = unique_dir("seed");
        let path = dir.join("workloads.json");
        save_workloads(std::slice::from_ref(&spec), &path).unwrap();
        assert_eq!(load_workloads(&path).unwrap()[0].seed, spec.seed);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn load_missing_file_is_io_error() {
        assert!(matches!(
            load_collated("/nonexistent/path.json"),
            Err(GemStoneError::Io(_))
        ));
        assert!(matches!(
            load_workloads("/nonexistent/workloads.json"),
            Err(GemStoneError::Io(_))
        ));
    }

    #[test]
    fn load_corrupt_file_is_parse_error() {
        let dir = unique_dir("corrupt");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("collated.json");
        // A truncated write: syntactically broken JSON.
        fs::write(&path, r#"{"records": [{"workload": "mi-sh"#).unwrap();
        let err = load_collated(&path).unwrap_err();
        assert!(
            matches!(err, GemStoneError::Parse(_)),
            "corrupt file must be Parse, got {err:?}"
        );
        assert!(err.to_string().contains("collated.json"));
        // Valid JSON of the wrong shape is also a parse failure.
        fs::write(&path, r#"{"something": "else"}"#).unwrap();
        assert!(matches!(load_collated(&path), Err(GemStoneError::Parse(_))));
        fs::write(&path, "not json at all").unwrap();
        assert!(matches!(
            load_workloads(&path),
            Err(GemStoneError::Parse(_))
        ));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn write_atomic_replaces_and_leaves_no_droppings() {
        let dir = unique_dir("atomic");
        let path = dir.join("out.txt");
        write_atomic(&path, b"first").unwrap();
        assert_eq!(fs::read_to_string(&path).unwrap(), "first");
        write_atomic(&path, b"second").unwrap();
        assert_eq!(fs::read_to_string(&path).unwrap(), "second");
        // Only the destination file remains — no temp files left behind.
        let entries: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(entries, vec!["out.txt".to_string()], "{entries:?}");
        fs::remove_dir_all(&dir).ok();
    }
}
