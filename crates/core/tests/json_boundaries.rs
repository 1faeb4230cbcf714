//! Seeded fuzz loops over the JSON input boundaries: truncations and bit
//! flips of canonical documents, fed to the parser and to every decoder
//! that reads files or request bodies (checkpoints, saved datasets, job
//! specifications).
//!
//! Invariants: nothing panics; a truncated document is an error; a decoder
//! either rejects its input or returns a value whose encoding is a fixed
//! point of decode-then-encode (no garbage that changes on every pass);
//! and every canonical document decodes and re-encodes to itself. Job
//! bodies built from hostile values (extreme numbers, wrong JSON types,
//! unknown names, duplicate keys) either fail to parse or give a job
//! whose `scale` and `freq_hz` the service can run.
//!
//! Cases come from a fixed seed sequence (`rand::cases`), so every build
//! runs the same cases; a failing case prints its document and seed.

use gemstone_core::checkpoint::CollectCheckpoint;
use gemstone_core::collate::{Collated, WorkloadRecord};
use gemstone_core::jsonio::{
    checkpoint_from_json, checkpoint_to_json, collated_from_json, collated_to_json,
};
use gemstone_core::service::JobSpec;
use gemstone_obs::json::Value;
use gemstone_platform::dvfs::Cluster;
use gemstone_platform::fault::QuarantinedWorkload;
use gemstone_platform::gem5sim::Gem5Model;
use rand::cases::{for_each_case, Cases};
use std::collections::BTreeMap;

/// Cases per canonical document, for each mutation kind.
const TRUNCATIONS: usize = 256;
const BIT_FLIPS: usize = 2048;

/// The base of each document's case seed sequence; documents and mutation
/// kinds add a salt.
const CASE_SEED: u64 = 0x15_0B0D;

/// Decodes `text` and re-encodes the result; `Err` when the decoder
/// rejects it.
type RoundTrip = fn(&str) -> Result<String, String>;

fn job_round_trip(text: &str) -> Result<String, String> {
    let mut spec = JobSpec::parse(text)?;
    // Admission fills an absent coverage floor before the canonical form
    // is persisted, as `Service::submit` does.
    if let JobSpec::Validate { min_coverage, .. } = &mut spec {
        if min_coverage.is_nan() {
            *min_coverage = 0.0;
        }
    }
    Ok(spec.canonical_json())
}

fn record(workload: &str, freq_hz: f64, power: f64) -> WorkloadRecord {
    let mut hw_pmc = BTreeMap::new();
    hw_pmc.insert(0x08u16, 300_000.0);
    hw_pmc.insert(0x10u16, 1234.5);
    let mut gem5_stats = BTreeMap::new();
    gem5_stats.insert("sim_seconds".to_string(), 0.125);
    gem5_stats.insert("system.cpu.numCycles".to_string(), 2.5e8);
    WorkloadRecord {
        workload: workload.to_string(),
        cluster: Cluster::BigA15,
        model: Gem5Model::Ex5BigFixed,
        freq_hz,
        threads: 4,
        hw_time_s: 0.1230000000000001,
        gem5_time_s: 0.15,
        time_pe: -21.951219512195124,
        hw_pmc,
        gem5_stats,
        gem5_pmu: BTreeMap::new(),
        hw_power_w: power,
    }
}

/// One canonical document per decoder, written by its own encoder, with
/// the salt of its case seeds.
fn canonical_documents() -> Vec<(u64, &'static str, RoundTrip, String)> {
    let records = vec![
        record("mi-sha", 1.6e9, 2.25),
        record("mi-\"quoted\"\n\u{1}", 2e8, f64::NAN),
    ];
    let mut ck = CollectCheckpoint::new("v1:deadbeefdeadbeef".to_string());
    ck.completed.insert("mi-sha".to_string(), records.clone());
    ck.quarantined.push(QuarantinedWorkload {
        workload: "mi-crc32".to_string(),
        site: "measure".to_string(),
        attempts: 3,
        reason: "thermal throttle \"storm\"".to_string(),
    });
    let jobs = [
        JobSpec::Validate {
            scale: 0.02,
            clusters: vec![Cluster::BigA15],
            models: vec![Gem5Model::Ex5BigOld, Gem5Model::Ex5Little],
            workloads: vec!["mi-sha".into(), "mi-crc32".into()],
            min_coverage: 0.5,
        },
        JobSpec::Profile {
            workload: "mi-sha".into(),
            scale: 1.0,
            model: Gem5Model::Ex5BigOld,
            freq_hz: 1.6e9,
        },
        JobSpec::PowerModel {
            cluster: Cluster::LittleA7,
            scale: 0.125,
        },
    ];
    let mut docs: Vec<(u64, &'static str, RoundTrip, String)> = vec![
        (
            0,
            "checkpoint",
            |t| checkpoint_from_json(t).map(|c| checkpoint_to_json(&c)),
            checkpoint_to_json(&ck),
        ),
        (
            1,
            "collated",
            |t| collated_from_json(t).map(|c| collated_to_json(&c)),
            collated_to_json(&Collated::from_records(records)),
        ),
    ];
    // Salt 2 was the workload-list document's, deleted with its codec;
    // the job documents keep their case seeds.
    docs.extend(
        jobs.iter()
            .zip(3..)
            .map(|(j, salt)| (salt, "job", job_round_trip as RoundTrip, j.canonical_json())),
    );
    docs
}

#[test]
fn canonical_documents_round_trip_exactly() {
    for (_, name, round_trip, doc) in canonical_documents() {
        assert!(Value::parse(&doc).is_ok(), "{name}");
        assert_eq!(round_trip(&doc).as_deref(), Ok(doc.as_str()), "{name}");
    }
}

#[test]
fn truncated_documents_are_errors() {
    for (salt, name, round_trip, doc) in canonical_documents() {
        for_each_case(TRUNCATIONS, CASE_SEED + salt, |seed| {
            let mut cut = Cases::new(seed).below(doc.len());
            while !doc.is_char_boundary(cut) {
                cut -= 1;
            }
            let prefix = &doc[..cut];
            assert!(
                Value::parse(prefix).is_err(),
                "{name}: prefix of {cut} bytes"
            );
            assert!(round_trip(prefix).is_err(), "{name}: prefix of {cut} bytes");
        });
    }
}

#[test]
fn bit_flipped_documents_are_rejected_or_decode_to_a_fixed_point() {
    for (salt, name, round_trip, doc) in canonical_documents() {
        for_each_case(BIT_FLIPS, CASE_SEED + 100 + salt, |seed| {
            let mut rng = Cases::new(seed);
            let mut bytes = doc.clone().into_bytes();
            for _ in 0..1 + rng.below(3) {
                let at = rng.below(bytes.len());
                bytes[at] ^= 1 << rng.below(8);
            }
            let text = String::from_utf8_lossy(&bytes);
            let _ = Value::parse(&text);
            if let Ok(encoded) = round_trip(&text) {
                assert_eq!(
                    round_trip(&encoded).as_deref(),
                    Ok(encoded.as_str()),
                    "{name}: decoded {text:?}"
                );
            }
        });
    }
}

/// Job-body cases for the hostile-value loop.
const JOB_BODIES: usize = 4096;

/// Numbers at and beyond the edges a job field accepts.
const HOSTILE_NUMBERS: &[&str] = &[
    "0",
    "-0",
    "5e-324",
    "-5e-324",
    "1e-300",
    "0.03",
    "1",
    "10",
    "10.000000000000002",
    "1e12",
    "1e308",
    "1e309",
    "-1e309",
    "-1",
    "1.4e9",
    "18446744073709551616",
];

/// Values of the wrong JSON type for every field.
const WRONG_TYPES: &[&str] = &["null", "true", "\"0.5\"", "[]", "{}", "[0.5]", "\"\""];

/// Names, known and unknown, for each string field; the list fields
/// draw their elements from the same pools.
const WORKLOADS: &[&str] = &[
    "\"mi-sha\"",
    "\"mi-fft\"",
    "\"no-such-workload\"",
    "\"\\u0000\"",
];
const MODELS: &[&str] = &[
    "\"Ex5BigOld\"",
    "\"Ex5Little\"",
    "\"Ex5BigFixed\"",
    "\"GPT-5\"",
];
const CLUSTERS: &[&str] = &["\"BigA15\"", "\"LittleA7\"", "\"M4Max\""];

const JOB_FIELDS: &[&str] = &[
    "kind",
    "scale",
    "freq_hz",
    "min_coverage",
    "workload",
    "model",
    "cluster",
    "clusters",
    "models",
    "workloads",
];

/// One value for `field`: three times in four from the values that field
/// expects (valid or not), otherwise anything hostile.
fn hostile_value(g: &mut Cases, field: &str) -> String {
    let list =
        |g: &mut Cases, pool: &[&str]| format!("[{}]", g.vec(0..3, |g| g.pick(pool)).join(","));
    if g.below(4) != 0 {
        return match field {
            "kind" => g
                .pick(&["\"validate\"", "\"profile\"", "\"power-model\"", "\"mine\""])
                .to_string(),
            "scale" | "freq_hz" | "min_coverage" => g.pick(HOSTILE_NUMBERS).to_string(),
            "workload" => g.pick(WORKLOADS).to_string(),
            "model" => g.pick(MODELS).to_string(),
            "cluster" => g.pick(CLUSTERS).to_string(),
            "workloads" => list(g, WORKLOADS),
            "models" => list(g, MODELS),
            _ => list(g, CLUSTERS),
        };
    }
    let pool = g.pick(&[WORKLOADS, MODELS, CLUSTERS]);
    match g.below(4) {
        0 => g.pick(HOSTILE_NUMBERS).to_string(),
        1 => g.pick(WRONG_TYPES).to_string(),
        2 => g.pick(pool).to_string(),
        _ => list(g, pool),
    }
}

/// A job body: `kind` first, each other field present with probability
/// 1/2, some repeated with another value (the parser reads the first),
/// members in shuffled order.
fn hostile_job_body(seed: u64) -> String {
    let mut g = Cases::new(seed);
    let mut members = Vec::new();
    for &field in JOB_FIELDS {
        if field == "kind" || g.below(2) == 0 {
            members.push(format!("\"{field}\":{}", hostile_value(&mut g, field)));
        }
    }
    for _ in 0..g.below(3) {
        let field = g.pick(JOB_FIELDS);
        members.push(format!("\"{field}\":{}", hostile_value(&mut g, field)));
    }
    for i in (1..members.len()).rev() {
        members.swap(i, g.below(i + 1));
    }
    format!("{{{}}}", members.join(","))
}

#[test]
fn hostile_job_bodies_parse_to_runnable_jobs_or_errors() {
    let accepted = std::sync::atomic::AtomicUsize::new(0);
    for_each_case(JOB_BODIES, CASE_SEED + 200, |seed| {
        let body = hostile_job_body(seed);
        let Ok(spec) = JobSpec::parse(&body) else {
            return;
        };
        accepted.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let (JobSpec::Validate { scale, .. }
        | JobSpec::Profile { scale, .. }
        | JobSpec::PowerModel { scale, .. }) = &spec;
        assert!(*scale > 0.0 && *scale <= 10.0, "{body}: scale {scale}");
        if let JobSpec::Profile { freq_hz, .. } = &spec {
            assert!(freq_hz.is_finite() && *freq_hz > 0.0, "{body}: {freq_hz}");
        }
        let canonical = spec.canonical_json();
        let back = JobSpec::parse(&canonical).unwrap_or_else(|e| panic!("{body}: {e}"));
        assert_eq!(back.canonical_json(), canonical, "{body}");
        assert_eq!(back.id(), spec.id(), "{body}");
        // An unfilled coverage floor is NaN, which `==` never matches.
        if !matches!(&spec, JobSpec::Validate { min_coverage, .. } if min_coverage.is_nan()) {
            assert_eq!(back, spec, "{body}");
        }
    });
    let accepted = accepted.into_inner();
    assert!(
        accepted > JOB_BODIES / 50,
        "only {accepted} of {JOB_BODIES} bodies parsed: the loop barely reaches the Ok path"
    );
}

/// The failures the hostile-body loop found, kept as fixed cases.
#[test]
fn hostile_job_body_regressions() {
    // Out-of-range scales are refused for every kind; 10 is the largest
    // accepted, as on the CLI.
    for body in [
        r#"{"kind":"profile","workload":"mi-sha","model":"Ex5BigOld","scale":1e308}"#,
        r#"{"kind":"validate","scale":10.000000000000002}"#,
        r#"{"kind":"power-model","cluster":"BigA15","scale":-0}"#,
    ] {
        assert!(JobSpec::parse(body).is_err(), "{body}");
    }
    assert!(JobSpec::parse(r#"{"kind":"validate","scale":10}"#).is_ok());
    // A validate body without a coverage floor has the canonical form
    // `"min_coverage":null`, which must parse back to the same job.
    let spec = JobSpec::parse(r#"{"kind":"validate","scale":5e-324}"#).unwrap();
    let back = JobSpec::parse(&spec.canonical_json()).unwrap();
    assert_eq!(back.id(), spec.id());
}
