//! Seeded fuzz loop over whole queue directories, the input `Service::open`
//! recovers a daemon from.
//!
//! Each case writes a random mix of what a queue directory can hold: job
//! files with and without their results, orphan results, `write_atomic`
//! temporaries, empty, truncated and non-JSON job files, persisted jobs
//! whose scale admission now refuses, names that are not UTF-8, and a
//! directory whose name looks like a job file.
//!
//! Invariants: `Service::open` never panics. When it returns `Ok`, every
//! job's state is the one computed from the file set alone: quarantined
//! when its scale is refused, else done when the directory holds its
//! result, else queued. Otherwise it returns the `Io` or `Parse` error of
//! the first broken job file in name order, and the message names that
//! file.
//!
//! Cases come from a fixed seed sequence (`rand::cases`), so every build
//! runs the same cases; a failing case names its seed.
#![cfg(unix)]

use gemstone_core::service::{JobSpec, JobState, Service, ServiceConfig};
use gemstone_core::GemStoneError;
use gemstone_platform::dvfs::Cluster;
use gemstone_platform::gem5sim::Gem5Model;
use gemstone_workloads::suites;
use rand::cases::{for_each_case, Cases};
use std::collections::{BTreeMap, BTreeSet};
use std::ffi::OsString;
use std::os::unix::ffi::OsStringExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Queue directories per run.
const CASES: usize = 256;
const CASE_SEED: u64 = 0x0_9E0E_D1A5;

const MODELS: [Gem5Model; 3] = [
    Gem5Model::Ex5Little,
    Gem5Model::Ex5BigOld,
    Gem5Model::Ex5BigFixed,
];
const CLUSTERS: [Cluster; 2] = [Cluster::LittleA7, Cluster::BigA15];
/// Scales admission accepts, and ones it refuses (a job persisted before
/// the (0, 10] bound existed).
const SCALES: [f64; 4] = [0.02, 0.25, 1.0, 10.0];
const REFUSED_SCALES: [f64; 5] = [0.0, -1.0, 10.5, 1e12, 1e300];

/// The error class recovery must report for a broken job file.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Broken {
    Io,
    Parse,
}

/// A queue directory and what recovery must make of it.
struct Case {
    dir: PathBuf,
    /// Every job file that parses: id → (spec, scale refused).
    jobs: BTreeMap<String, (JobSpec, bool)>,
    /// The ids of the `{id}.result.json` files written.
    results: BTreeSet<String>,
    /// Broken job files by name (UTF-8 names ending in `.job.json`).
    broken: BTreeMap<String, Broken>,
}

fn unique_dir() -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "gemstone-queue-fuzz-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ))
}

fn hex_id(g: &mut Cases) -> String {
    format!("{:016x}", g.next())
}

fn spec(g: &mut Cases, refused: bool) -> JobSpec {
    let scale = if refused {
        g.pick(&REFUSED_SCALES)
    } else {
        g.pick(&SCALES)
    };
    let suite = suites::power_suite();
    let workload = |g: &mut Cases| suite[g.below(suite.len())].name.clone();
    match g.below(3) {
        0 => {
            let model = g.pick(&MODELS);
            JobSpec::Profile {
                workload: workload(g),
                scale,
                model,
                freq_hz: g.pick(model.cluster().frequencies()),
            }
        }
        1 => JobSpec::Validate {
            scale,
            clusters: g.vec(1..3, |g| g.pick(&CLUSTERS)),
            models: g.vec(1..4, |g| g.pick(&MODELS)),
            workloads: g.vec(0..4, workload),
            min_coverage: g.pick(&[0.0, 0.5, 1.0]),
        },
        _ => JobSpec::PowerModel {
            cluster: g.pick(&CLUSTERS),
            scale,
        },
    }
}

/// A persisted job, and its result with probability 1/2.
fn write_job(g: &mut Cases, case: &mut Case, refused: bool) {
    let spec = spec(g, refused);
    let id = spec.id();
    std::fs::write(
        case.dir.join(format!("{id}.job.json")),
        spec.canonical_json(),
    )
    .unwrap();
    if g.below(2) == 0 {
        write_result(case, id.clone());
    }
    case.jobs.insert(id, (spec, refused));
}

fn write_result(case: &mut Case, id: String) {
    std::fs::write(case.dir.join(format!("{id}.result.json")), "{}").unwrap();
    case.results.insert(id);
}

fn write_broken(case: &mut Case, name: String, contents: &[u8]) {
    std::fs::write(case.dir.join(&name), contents).unwrap();
    case.broken.insert(name, Broken::Parse);
}

/// Builds the directory for `seed`. Half the cases hold no broken job
/// file, so the `Ok` path is exercised as often as the error path.
fn build(seed: u64) -> Case {
    let mut g = Cases::new(seed);
    let mut case = Case {
        dir: unique_dir(),
        jobs: BTreeMap::new(),
        results: BTreeSet::new(),
        broken: BTreeMap::new(),
    };
    std::fs::create_dir_all(&case.dir).unwrap();
    let with_broken = g.below(2) == 0;
    let kinds = if with_broken { 10 } else { 6 };
    for _ in 0..g.range(0, 14) {
        match g.below(kinds) {
            0 | 1 => write_job(&mut g, &mut case, false),
            2 => write_job(&mut g, &mut case, true),
            3 => {
                // An orphan result: no job file names its id.
                write_result(&mut case, hex_id(&mut g));
            }
            4 => {
                // A `write_atomic` temporary of a job file or a result,
                // holding a valid job body or a torn prefix of one.
                let body = spec(&mut g, false).canonical_json();
                let body = &body[..g.below(body.len() + 1)];
                let target = g.pick(&["job", "result"]);
                let name = format!(
                    ".{}.{target}.json.{}.{}.tmp",
                    hex_id(&mut g),
                    g.range(1, 1 << 22),
                    g.below(64)
                );
                std::fs::write(case.dir.join(name), body).unwrap();
            }
            5 => {
                // A valid job and result under names that are not UTF-8.
                let body = spec(&mut g, false).canonical_json();
                for suffix in [".job.json", ".result.json"] {
                    let mut name = vec![0xff, 0xfe, b'a' + g.below(26) as u8];
                    name.extend_from_slice(suffix.as_bytes());
                    std::fs::write(case.dir.join(OsString::from_vec(name)), &body).unwrap();
                }
            }
            6 => write_broken(&mut case, format!("{}.job.json", hex_id(&mut g)), b""),
            7 => {
                let body = spec(&mut g, false).canonical_json();
                let cut = g.below(body.len());
                let name = format!("{}.job.json", hex_id(&mut g));
                write_broken(&mut case, name, &body.as_bytes()[..cut]);
            }
            8 => {
                let garbage = g.pick(&[
                    &b"not json"[..],
                    b"[1,2,3]",
                    b"{\"kind\":\"mine-bitcoin\"}",
                    b"\xff\xfe{}",
                    b"{\"kind\":\"profile\",\"workload\":\"\xc3\x28\"}",
                ]);
                let name = format!("{}.job.json", hex_id(&mut g));
                write_broken(&mut case, name, garbage);
            }
            _ => {
                let name = if g.below(2) == 0 {
                    "x.job.json".to_string()
                } else {
                    format!("{}.job.json", hex_id(&mut g))
                };
                std::fs::create_dir_all(case.dir.join(&name)).unwrap();
                case.broken.insert(name, Broken::Io);
            }
        }
    }
    case
}

/// Checks what `Service::open` made of `case` against the reference.
fn check(case: &Case, opened: Result<Service, GemStoneError>) {
    // Job files are read in name order, so the first broken one in that
    // order is the one reported.
    let svc = match (opened, case.broken.first_key_value()) {
        (Ok(svc), None) => svc,
        (Ok(_), Some((name, _))) => panic!("opened despite broken job file {name}"),
        (Err(e), None) => panic!("refused a well-formed queue: {e}"),
        (Err(e), Some((name, kind))) => {
            let got = match &e {
                GemStoneError::Io(_) => Broken::Io,
                GemStoneError::Parse(_) => Broken::Parse,
                other => panic!("{name}: untyped error {other}"),
            };
            assert_eq!(got, *kind, "{name}: {e}");
            let path = case.dir.join(name);
            assert!(
                e.to_string().contains(&path.display().to_string()),
                "error does not name {name}: {e}"
            );
            return;
        }
    };
    let ids: Vec<String> = case.jobs.keys().cloned().collect();
    assert_eq!(svc.job_ids(), ids, "recovered job set");
    for (id, (spec, refused)) in &case.jobs {
        let status = svc.status(id).expect("recovered job has a status");
        let want = if *refused {
            JobState::Quarantined
        } else if case.results.contains(id) {
            JobState::Done
        } else {
            JobState::Queued
        };
        assert_eq!(status.state, want, "{id}: {}", spec.canonical_json());
        assert_eq!(status.spec.canonical_json(), spec.canonical_json(), "{id}");
        match want {
            JobState::Quarantined => {
                let error = status.error.expect("a quarantined job says why");
                assert!(error.contains("(0, 10]"), "{id}: {error}");
            }
            JobState::Done => {
                assert_eq!(
                    status.artefact.as_deref(),
                    Some(case.dir.join(format!("{id}.result.json")).as_path())
                );
            }
            _ => assert!(status.artefact.is_none() && status.error.is_none()),
        }
    }
    let unsettled = case
        .jobs
        .iter()
        .any(|(id, (_, refused))| !refused && !case.results.contains(id));
    assert_eq!(svc.drained(), !unsettled);
}

fn open(dir: &Path) -> Result<Service, GemStoneError> {
    Service::open(ServiceConfig {
        queue_dir: dir.to_path_buf(),
        workers: 0,
        ..ServiceConfig::default()
    })
}

#[test]
fn random_queue_directories_recover_to_the_reference_states() {
    let (opened, refused) = (AtomicUsize::new(0), AtomicUsize::new(0));
    for_each_case(CASES, CASE_SEED, |seed| {
        let case = build(seed);
        let result = open(&case.dir);
        let tally = if result.is_ok() { &opened } else { &refused };
        tally.fetch_add(1, Ordering::Relaxed);
        check(&case, result);
        std::fs::remove_dir_all(&case.dir).ok();
    });
    // Both outcomes must be reached often, or the loop checks little.
    let (opened, refused) = (opened.into_inner(), refused.into_inner());
    assert!(
        opened >= CASES / 4,
        "only {opened} of {CASES} queues opened"
    );
    assert!(
        refused >= CASES / 8,
        "only {refused} of {CASES} queues refused"
    );
}

/// The failures the queue-directory loop found, kept as fixed cases: a
/// job file that cannot be read, or whose bytes are not UTF-8, must be
/// reported with its name, the latter as a `Parse` error (the file is
/// there, its contents are broken).
#[test]
fn unreadable_job_file_regressions() {
    for (name, is_dir, body) in [
        ("x.job.json", true, &b""[..]),
        ("2744127960de883f.job.json", false, b"\xff\xfe{}"),
    ] {
        let dir = unique_dir();
        let path = dir.join(name);
        std::fs::create_dir_all(if is_dir { &path } else { &dir }).unwrap();
        if !is_dir {
            std::fs::write(&path, body).unwrap();
        }
        let err = open(&dir)
            .err()
            .expect("a broken job file refuses the queue");
        match (&err, is_dir) {
            (GemStoneError::Io(_), true) | (GemStoneError::Parse(_), false) => {}
            _ => panic!("{name}: wrong error class: {err:?}"),
        }
        assert!(
            err.to_string().contains(&path.display().to_string()),
            "{err}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
