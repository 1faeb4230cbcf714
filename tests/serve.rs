//! `gemstone serve` end to end: the HTTP wire protocol, exactly-once
//! coalescing of duplicate jobs, and the durable queue surviving a
//! daemon kill.
//!
//! Each test binds its own ephemeral listener and queue directory; a
//! shared lock serialises the tests because the SimCache fill counters
//! and service job counters they assert on are process-global.

use gemstone::core::experiment::ExperimentConfig;
use gemstone::core::resilience::{collect_resilient, ResilienceOptions};
use gemstone::core::service::{serve, JobSpec, Service, ServiceConfig};
use gemstone::obs::json::Value;
use gemstone::platform::fault::{FaultInjector, RetryPolicy};
use gemstone::platform::simcache::SimCache;
use gemstone::prelude::*;
use gemstone::uarch::backend::TierConfig;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

static LOCK: Mutex<()> = Mutex::new(());

fn serialised() -> MutexGuard<'static, ()> {
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn unique_dir(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "gemstone-serve-it-{tag}-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ))
}

/// Starts a daemon on an ephemeral port; returns the service handle, the
/// address, and the accept-loop thread (detached — it exits with the
/// process; the worker pool shuts down with the `Service`).
fn start_daemon(cfg: ServiceConfig) -> (Service, std::net::SocketAddr) {
    let svc = Service::open(cfg).unwrap();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let svc2 = svc.clone();
    std::thread::spawn(move || {
        let _ = serve(&svc2, &listener);
    });
    (svc, addr)
}

/// One HTTP exchange, the way curl would do it.
fn http(addr: std::net::SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).unwrap();
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: gemstone\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).unwrap();
    let status: u16 = raw
        .strip_prefix("HTTP/1.1 ")
        .and_then(|r| r.split(' ').next())
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("malformed response: {raw:?}"));
    let body = raw
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, body)
}

fn wait_done(svc: &Service, timeout: Duration) {
    let start = Instant::now();
    while !svc.drained() {
        assert!(
            start.elapsed() < timeout,
            "jobs did not drain in {timeout:?}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

const VALIDATE_BODY: &str = r#"{"kind":"validate","scale":0.03,"clusters":["BigA15"],"models":["Ex5BigOld"],"workloads":["mi-sha","mi-crc32"],"min_coverage":1}"#;

fn validate_config(
    scale: f64,
) -> (
    ExperimentConfig,
    Vec<gemstone::workloads::spec::WorkloadSpec>,
) {
    let cfg = ExperimentConfig {
        workload_scale: scale,
        clusters: vec![Cluster::BigA15],
        models: vec![Gem5Model::Ex5BigOld],
        ..ExperimentConfig::default()
    };
    let wl = ["mi-sha", "mi-crc32"]
        .iter()
        .map(|n| suites::by_name(n).unwrap().scaled(scale))
        .collect();
    (cfg, wl)
}

fn reference_opts() -> ResilienceOptions {
    ResilienceOptions {
        faults: Arc::new(FaultInjector::disabled()),
        retry: RetryPolicy::default(),
        checkpoint: None,
        resume: false,
        min_coverage: 1.0,
    }
}

#[test]
fn endpoints_speak_http() {
    let _guard = serialised();
    gemstone::obs::set_enabled(true);
    let dir = unique_dir("endpoints");
    let (svc, addr) = start_daemon(ServiceConfig {
        queue_dir: dir.clone(),
        workers: 1,
        ..ServiceConfig::default()
    });

    let (status, body) = http(addr, "GET", "/healthz", "");
    assert_eq!(status, 200, "{body}");
    assert_eq!(body, "{\"ok\":true}");

    // A quick job, so /metrics below has simulation histograms to show.
    let (status, body) = http(
        addr,
        "POST",
        "/jobs",
        r#"{"kind":"profile","workload":"mi-sha","scale":0.02,"model":"Ex5BigOld"}"#,
    );
    assert_eq!(status, 202, "{body}");
    let id = Value::parse(&body)
        .unwrap()
        .get("id")
        .and_then(Value::as_str)
        .unwrap()
        .to_string();
    wait_done(&svc, Duration::from_secs(60));

    let (status, body) = http(addr, "GET", &format!("/jobs/{id}"), "");
    assert_eq!(status, 200);
    let v = Value::parse(&body).unwrap();
    assert_eq!(v.get("state").and_then(Value::as_str), Some("done"));
    assert_eq!(v.get("kind").and_then(Value::as_str), Some("profile"));

    let (status, body) = http(addr, "GET", "/metrics", "");
    assert_eq!(status, 200);
    assert!(body.contains("service_jobs_submitted"), "{body}");
    // The PR 9 quantile gauges, served over HTTP: the simulation-latency
    // histogram exports pre-computed p50/p95/p99.
    assert!(body.contains("sim_run_seconds_p50"), "{body}");
    assert!(body.contains("sim_run_seconds_p99"), "{body}");
    // Cache occupancy is synced at each export. The profile job's trace has
    // dropped by now, but its high-water mark stays.
    let peak = body
        .lines()
        .find_map(|l| l.strip_prefix("trace_cache_peak_bytes "))
        .and_then(|v| v.parse::<f64>().ok());
    assert!(peak.is_some_and(|b| b > 0.0), "{body}");

    let (status, _) = http(addr, "GET", "/jobs/feedfacedeadbeef", "");
    assert_eq!(status, 404);
    let (status, _) = http(addr, "GET", "/nope", "");
    assert_eq!(status, 404);
    let (status, _) = http(addr, "DELETE", "/jobs", "");
    assert_eq!(status, 405);
    let (status, body) = http(addr, "POST", "/jobs", "{\"kind\":\"mine-bitcoin\"}");
    assert_eq!(status, 400);
    assert!(body.contains("unknown job kind"), "{body}");

    svc.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// N concurrent identical `POST /jobs` coalesce onto ONE job and ONE
/// execution: exactly one response reports a fresh submission, the
/// SimCache fill counter advances by exactly a single job's worth, and
/// the artefact equals what `gemstone collect` would have produced.
#[test]
fn concurrent_identical_posts_fill_the_simcache_exactly_once() {
    let _guard = serialised();
    gemstone::obs::set_enabled(true);
    let dir = unique_dir("coalesce");
    let (svc, addr) = start_daemon(ServiceConfig {
        queue_dir: dir.clone(),
        workers: 1,
        min_coverage: 1.0,
        ..ServiceConfig::default()
    });

    let fills_before = SimCache::global().grid_fills();
    let n = 6;
    let responses: Vec<(u16, String)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..n)
            .map(|_| scope.spawn(move || http(addr, "POST", "/jobs", VALIDATE_BODY)))
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let mut ids = Vec::new();
    let mut fresh = 0;
    for (status, body) in &responses {
        assert_eq!(*status, 202, "{body}");
        let v = Value::parse(body).unwrap();
        ids.push(v.get("id").and_then(Value::as_str).unwrap().to_string());
        if v.get("coalesced") == Some(&Value::Bool(false)) {
            fresh += 1;
        }
    }
    ids.dedup();
    assert_eq!(ids.len(), 1, "all submissions name the same job");
    assert_eq!(fresh, 1, "exactly one submission created the job");

    wait_done(&svc, Duration::from_secs(120));
    let fills_one_job = SimCache::global().grid_fills() - fills_before;
    assert!(fills_one_job > 0, "the job simulated something");

    // The artefact is byte-identical to the library/CLI collect path.
    let status = svc.status(&ids[0]).unwrap();
    let artefact = std::fs::read(status.artefact.unwrap()).unwrap();
    let (cfg, wl) = validate_config(0.03);
    let reference = collect_resilient(&cfg, wl, &reference_opts()).unwrap();
    assert_eq!(
        artefact,
        gemstone::core::jsonio::collated_to_json(&reference.collated).into_bytes(),
        "daemon artefact == collect output"
    );

    // Exactly-once, quantified: an equivalent-shape job that was NOT
    // coalesced (different scale, so different cache keys) fills exactly
    // as much as the N coalesced submissions did together.
    let before = SimCache::global().grid_fills();
    let (cfg, wl) = validate_config(0.031);
    collect_resilient(&cfg, wl, &reference_opts()).unwrap();
    let fills_reference = SimCache::global().grid_fills() - before;
    assert_eq!(
        fills_one_job, fills_reference,
        "N concurrent identical jobs cost exactly one job's fills"
    );

    svc.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// A daemon killed with jobs still queued: a new daemon opened on the
/// same queue directory drains them to byte-identical artefacts, under
/// the same job ids.
#[test]
fn killed_daemon_resumes_its_queue_bit_identically() {
    let _guard = serialised();
    gemstone::obs::set_enabled(true);
    let dir = unique_dir("restart");

    // Daemon A accepts and persists but never runs (zero workers), then
    // dies. This models a kill between acceptance and execution; a kill
    // mid-execution additionally leaves a checkpoint, which
    // `collect_resilient` resumes from (covered by the resilience suite).
    let spec = JobSpec::parse(VALIDATE_BODY).unwrap();
    let id = {
        let a = Service::open(ServiceConfig {
            queue_dir: dir.clone(),
            workers: 0,
            min_coverage: 1.0,
            ..ServiceConfig::default()
        })
        .unwrap();
        let sub = a.submit(spec.clone()).unwrap();
        assert!(!sub.coalesced);
        sub.id
        // `a` dropped here — nothing ran.
    };
    assert!(
        dir.join(format!("{id}.job.json")).exists(),
        "the job was persisted before the kill"
    );
    assert!(!dir.join(format!("{id}.result.json")).exists());

    // What the job *should* produce, via the library path.
    let (cfg, wl) = validate_config(0.03);
    let reference = collect_resilient(&cfg, wl, &reference_opts()).unwrap();
    let expected = gemstone::core::jsonio::collated_to_json(&reference.collated).into_bytes();

    // Daemon B on the same queue directory: the job reappears (same id,
    // still queued), runs, and the artefact matches byte for byte.
    let b = Service::open(ServiceConfig {
        queue_dir: dir.clone(),
        workers: 2,
        min_coverage: 1.0,
        ..ServiceConfig::default()
    })
    .unwrap();
    assert_eq!(b.job_ids(), vec![id.clone()]);
    wait_done(&b, Duration::from_secs(120));
    let status = b.status(&id).unwrap();
    assert_eq!(
        status.state,
        gemstone::core::service::JobState::Done,
        "{:?}",
        status.error
    );
    let artefact = std::fs::read(status.artefact.unwrap()).unwrap();
    assert_eq!(artefact, expected, "resumed artefact is byte-identical");

    // A third daemon sees the finished job as done without re-running it.
    let fills_before = SimCache::global().grid_fills();
    let c = Service::open(ServiceConfig {
        queue_dir: dir.clone(),
        workers: 2,
        ..ServiceConfig::default()
    })
    .unwrap();
    assert!(c.drained(), "completed jobs are not re-queued");
    assert_eq!(SimCache::global().grid_fills(), fills_before);

    drop(b);
    drop(c);
    std::fs::remove_dir_all(&dir).ok();
}

/// A profile job at a DVFS point fills its model's whole column from one
/// fused replay, so a job at another point of the same (model, workload,
/// scale) is a memo hit; a frequency off the column replays one lane.
/// Every artefact equals a one-lane run on a cold private cache.
#[test]
fn profile_jobs_at_dvfs_points_share_one_column_fill() {
    let _guard = serialised();
    gemstone::obs::set_enabled(true);
    let dir = unique_dir("column");
    let svc = Service::open(ServiceConfig {
        queue_dir: dir.clone(),
        workers: 1,
        ..ServiceConfig::default()
    })
    .unwrap();
    let registry = gemstone::obs::Registry::global();
    let replays = registry.counter("engine.grid.replays");
    let cache = SimCache::global();
    // Not 0.03: the validation tests above sweep mi-sha at 0.03 on this
    // model and count its fills, so this test keeps to its own column.
    let scale = 0.032;
    let run = |freq_hz: f64| -> f64 {
        let body = format!(
            r#"{{"kind":"profile","workload":"mi-sha","scale":{scale},"model":"Ex5BigOld","freq_hz":{freq_hz}}}"#
        );
        let sub = svc.submit_json(&body).unwrap();
        assert!(!sub.coalesced, "a fresh job id at {freq_hz} Hz");
        wait_done(&svc, Duration::from_secs(60));
        let status = svc.status(&sub.id).unwrap();
        let artefact = std::fs::read_to_string(status.artefact.unwrap()).unwrap();
        Value::parse(&artefact)
            .unwrap()
            .get("sim_time_s")
            .and_then(Value::as_f64)
            .unwrap()
    };
    let counters = || {
        (
            replays.get(),
            cache.misses(),
            cache.hits(),
            cache.grid_fills(),
        )
    };

    let before = counters();
    let at_1000 = run(1.0e9);
    let filled = counters();
    assert_eq!(filled.0 - before.0, 1, "one fused replay");
    assert_eq!(filled.1 - before.1, 4, "it fills all four lanes");
    assert_eq!(filled.3 - before.3, 4);

    let at_1400 = run(1.4e9);
    let after = counters();
    assert_eq!(
        after.0, filled.0,
        "no replay for another point of the column"
    );
    assert_eq!(after.1, filled.1, "no miss");
    assert_eq!(after.2 - filled.2, 1, "exactly one hit");

    let at_1600 = run(1.6e9);
    let off = counters();
    assert_eq!(off.1 - after.1, 1, "an off-column point is one miss");
    assert_eq!(off.3, after.3, "and no grid fill");
    assert_eq!(off.0, after.0, "a one-lane run is not a grid replay");

    let spec = suites::by_name("mi-sha").unwrap().scaled(scale);
    for (freq_hz, sim_time_s) in [(1.0e9, at_1000), (1.4e9, at_1400), (1.6e9, at_1600)] {
        let reference = Gem5Sim::run_config(
            &SimCache::new(),
            &spec,
            Gem5Model::Ex5BigOld,
            configs::ex5_big(configs::Ex5Variant::Old),
            freq_hz,
            TierConfig::default(),
        );
        assert_eq!(
            sim_time_s.to_bits(),
            reference.time_s.to_bits(),
            "{freq_hz} Hz artefact == one-lane run"
        );
    }

    svc.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}
