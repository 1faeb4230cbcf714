//! Field mappings between the persisted and served documents and their
//! Rust types: [`WorkloadRecord`], [`Collated`], [`CollectCheckpoint`],
//! and the cluster and gem5-model wire names.
//!
//! The codec itself — parser, typed field readers, string and float
//! writers — is [`gemstone_obs::json`]; this module only says which field
//! goes where. The byte format is a contract that saved datasets,
//! checkpoints and job ids depend on: field order is declaration order,
//! map keys are stringified and sorted (`BTreeMap`), floats use the
//! shortest round-trip formatting with non-finite values written as
//! `null` (read back as NaN). Identical inputs
//! produce identical bytes — which is what lets the resilience tests (and
//! the daemon's queue-resume test) compare artefacts with `==`.

use crate::checkpoint::{CollectCheckpoint, CHECKPOINT_VERSION};
use crate::collate::{Collated, WorkloadRecord};
use gemstone_obs::json::{push_f64, push_joined, Value};
use gemstone_platform::dvfs::Cluster;
use gemstone_platform::fault::QuarantinedWorkload;
use gemstone_platform::gem5sim::Gem5Model;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::str::FromStr;

/// The string writer, re-exported for callers that build documents next
/// to these mappings.
pub use gemstone_obs::json::push_str_lit;

pub(crate) fn cluster_name(c: Cluster) -> &'static str {
    match c {
        Cluster::LittleA7 => "LittleA7",
        Cluster::BigA15 => "BigA15",
    }
}

pub(crate) fn cluster_from(name: &str) -> Result<Cluster, String> {
    match name {
        "LittleA7" => Ok(Cluster::LittleA7),
        "BigA15" => Ok(Cluster::BigA15),
        other => Err(format!("unknown cluster {other:?}")),
    }
}

pub(crate) fn model_name(m: Gem5Model) -> &'static str {
    match m {
        Gem5Model::Ex5BigOld => "Ex5BigOld",
        Gem5Model::Ex5BigFixed => "Ex5BigFixed",
        Gem5Model::Ex5Little => "Ex5Little",
    }
}

pub(crate) fn model_from(name: &str) -> Result<Gem5Model, String> {
    match name {
        "Ex5BigOld" => Ok(Gem5Model::Ex5BigOld),
        "Ex5BigFixed" => Ok(Gem5Model::Ex5BigFixed),
        "Ex5Little" => Ok(Gem5Model::Ex5Little),
        other => Err(format!("unknown gem5 model {other:?}")),
    }
}

/// Writes a float-valued map as an object with stringified keys.
fn push_f64_map<K: ToString>(out: &mut String, map: &BTreeMap<K, f64>) {
    out.push('{');
    push_joined(out, ",", map, |out, (k, v)| {
        push_str_lit(out, &k.to_string());
        out.push(':');
        push_f64(out, *v);
    });
    out.push('}');
}

/// Reads object member `key` back into a float-valued map.
fn f64_map_from<K: FromStr + Ord>(v: &Value, key: &str) -> Result<BTreeMap<K, f64>, String> {
    v.object_field(key)?
        .iter()
        .map(|(k, val)| {
            let name = k.parse().map_err(|_| format!("bad key {k:?} in {key:?}"))?;
            let num = val
                .as_f64_or_nan()
                .ok_or_else(|| format!("non-numeric value for {k:?} in {key:?}"))?;
            Ok((name, num))
        })
        .collect()
}

/// Reads array member `key`, each element through `read`.
fn vec_from<T>(
    v: &Value,
    key: &str,
    read: impl Fn(&Value) -> Result<T, String>,
) -> Result<Vec<T>, String> {
    v.array_field(key)?.iter().map(read).collect()
}

/// Serialises one [`WorkloadRecord`] into `out`.
pub fn push_record(out: &mut String, r: &WorkloadRecord) {
    out.push_str("{\"workload\":");
    push_str_lit(out, &r.workload);
    let _ = write!(
        out,
        ",\"cluster\":\"{}\",\"model\":\"{}\",\"freq_hz\":",
        cluster_name(r.cluster),
        model_name(r.model)
    );
    push_f64(out, r.freq_hz);
    let _ = write!(out, ",\"threads\":{},\"hw_time_s\":", r.threads);
    push_f64(out, r.hw_time_s);
    out.push_str(",\"gem5_time_s\":");
    push_f64(out, r.gem5_time_s);
    out.push_str(",\"time_pe\":");
    push_f64(out, r.time_pe);
    out.push_str(",\"hw_pmc\":");
    push_f64_map(out, &r.hw_pmc);
    out.push_str(",\"gem5_stats\":");
    push_f64_map(out, &r.gem5_stats);
    out.push_str(",\"gem5_pmu\":");
    push_f64_map(out, &r.gem5_pmu);
    out.push_str(",\"hw_power_w\":");
    push_f64(out, r.hw_power_w);
    out.push('}');
}

/// Reads one [`WorkloadRecord`] back from a parsed [`Value`].
pub fn record_from_value(v: &Value) -> Result<WorkloadRecord, String> {
    Ok(WorkloadRecord {
        workload: v.str_field("workload")?.to_string(),
        cluster: cluster_from(v.str_field("cluster")?)?,
        model: model_from(v.str_field("model")?)?,
        freq_hz: v.f64_field("freq_hz")?,
        threads: v.uint_field("threads")?,
        hw_time_s: v.f64_field("hw_time_s")?,
        gem5_time_s: v.f64_field("gem5_time_s")?,
        time_pe: v.f64_field("time_pe")?,
        hw_pmc: f64_map_from(v, "hw_pmc")?,
        gem5_stats: f64_map_from(v, "gem5_stats")?,
        gem5_pmu: f64_map_from(v, "gem5_pmu")?,
        hw_power_w: v.f64_field("hw_power_w")?,
    })
}

fn push_records(out: &mut String, records: &[WorkloadRecord]) {
    out.push('[');
    push_joined(out, ",", records, push_record);
    out.push(']');
}

fn records_from_value(v: &Value) -> Result<Vec<WorkloadRecord>, String> {
    v.as_array()
        .ok_or("records must be an array")?
        .iter()
        .map(record_from_value)
        .collect()
}

/// Serialises a [`Collated`] dataset (the lookup index is derived state
/// and stays out of the document).
pub fn collated_to_json(c: &Collated) -> String {
    let mut out = String::from("{\"records\":");
    push_records(&mut out, &c.records);
    out.push('}');
    out
}

/// Parses a [`Collated`] dataset serialised by [`collated_to_json`].
///
/// # Errors
///
/// A human-readable description of the first structural problem.
pub fn collated_from_json(text: &str) -> Result<Collated, String> {
    let records = vec_from(&Value::parse(text)?, "records", record_from_value)?;
    Ok(Collated::from_records(records))
}

fn push_quarantined(out: &mut String, q: &QuarantinedWorkload) {
    out.push_str("{\"workload\":");
    push_str_lit(out, &q.workload);
    out.push_str(",\"site\":");
    push_str_lit(out, &q.site);
    let _ = write!(out, ",\"attempts\":{},\"reason\":", q.attempts);
    push_str_lit(out, &q.reason);
    out.push('}');
}

fn quarantined_from_value(v: &Value) -> Result<QuarantinedWorkload, String> {
    Ok(QuarantinedWorkload {
        workload: v.str_field("workload")?.to_string(),
        site: v.str_field("site")?.to_string(),
        attempts: v.uint_field("attempts")?,
        reason: v.str_field("reason")?.to_string(),
    })
}

/// Serialises a [`CollectCheckpoint`] — versioned header first, then the
/// completed-record map (sorted workload names) and the quarantine list.
pub fn checkpoint_to_json(ck: &CollectCheckpoint) -> String {
    let mut out = String::new();
    let _ = write!(out, "{{\"version\":{},\"fingerprint\":", ck.version);
    push_str_lit(&mut out, &ck.fingerprint);
    out.push_str(",\"completed\":{");
    push_joined(&mut out, ",", &ck.completed, |out, (name, records)| {
        push_str_lit(out, name);
        out.push(':');
        push_records(out, records);
    });
    out.push_str("},\"quarantined\":[");
    push_joined(&mut out, ",", &ck.quarantined, push_quarantined);
    out.push_str("]}");
    out
}

/// Parses a [`CollectCheckpoint`] serialised by [`checkpoint_to_json`].
/// Structural validation only — version and fingerprint policy stay with
/// [`CollectCheckpoint::load`] so Io/Parse classification is in one place.
///
/// # Errors
///
/// A human-readable description of the first structural problem.
pub fn checkpoint_from_json(text: &str) -> Result<CollectCheckpoint, String> {
    let v = Value::parse(text)?;
    Ok(CollectCheckpoint {
        version: v.uint_field("version")?,
        fingerprint: v.str_field("fingerprint")?.to_string(),
        completed: v
            .object_field("completed")?
            .iter()
            .map(|(name, records)| Ok((name.clone(), records_from_value(records)?)))
            .collect::<Result<_, String>>()?,
        quarantined: vec_from(&v, "quarantined", quarantined_from_value)?,
    })
}

/// The version constant re-exported next to the codec that writes it, so
/// header round-trip tests read naturally.
pub const VERSION: u32 = CHECKPOINT_VERSION;

#[cfg(test)]
mod tests {
    use super::*;

    fn record() -> WorkloadRecord {
        let mut hw_pmc = BTreeMap::new();
        hw_pmc.insert(0x08u16, 300_000.0);
        hw_pmc.insert(0x10u16, 1234.5);
        let mut gem5_stats = BTreeMap::new();
        gem5_stats.insert("sim_seconds".to_string(), 0.125);
        gem5_stats.insert("system.cpu.numCycles".to_string(), 2.5e8);
        WorkloadRecord {
            workload: "mi-\"quoted\"\n".to_string(),
            cluster: Cluster::BigA15,
            model: Gem5Model::Ex5BigFixed,
            freq_hz: 1.6e9,
            threads: 4,
            hw_time_s: 0.1230000000000001,
            gem5_time_s: 0.15,
            time_pe: -21.951219512195124,
            hw_pmc,
            gem5_stats,
            gem5_pmu: BTreeMap::new(),
            hw_power_w: f64::NAN,
        }
    }

    #[test]
    fn record_round_trips_exactly() {
        let r = record();
        let mut text = String::new();
        push_record(&mut text, &r);
        let back = record_from_value(&Value::parse(&text).unwrap()).unwrap();
        assert_eq!(back.workload, r.workload);
        assert_eq!(back.cluster, r.cluster);
        assert_eq!(back.model, r.model);
        assert_eq!(back.freq_hz.to_bits(), r.freq_hz.to_bits());
        assert_eq!(back.hw_time_s.to_bits(), r.hw_time_s.to_bits());
        assert_eq!(back.time_pe.to_bits(), r.time_pe.to_bits());
        assert_eq!(back.hw_pmc, r.hw_pmc);
        assert_eq!(back.gem5_stats, r.gem5_stats);
        assert!(back.hw_power_w.is_nan(), "null reads back as NaN");
    }

    #[test]
    fn collated_serialisation_is_deterministic() {
        let c = Collated::from_records(vec![record(), record()]);
        let a = collated_to_json(&c);
        let b = collated_to_json(&collated_from_json(&a).unwrap());
        // NaN re-serialises as null, so one full round trip is the fixed
        // point: the second pass must reproduce the first byte for byte.
        assert_eq!(a, b);
    }

    #[test]
    fn checkpoint_header_and_body_round_trip() {
        let mut ck = CollectCheckpoint::new("v1:deadbeefdeadbeef".to_string());
        ck.completed.insert("mi-sha".to_string(), vec![record()]);
        ck.quarantined.push(QuarantinedWorkload {
            workload: "mi-crc32".to_string(),
            site: "measure".to_string(),
            attempts: 3,
            reason: "thermal throttle \"storm\"".to_string(),
        });
        let text = checkpoint_to_json(&ck);
        let back = checkpoint_from_json(&text).unwrap();
        assert_eq!(back.version, VERSION);
        assert_eq!(back.fingerprint, ck.fingerprint);
        assert_eq!(back.completed.len(), 1);
        assert_eq!(back.quarantined, ck.quarantined);
        assert_eq!(checkpoint_to_json(&back), text);
    }

    #[test]
    fn rejects_structurally_broken_documents() {
        assert!(checkpoint_from_json("{").is_err());
        assert!(checkpoint_from_json("{\"version\":1}").is_err());
        assert!(collated_from_json("{\"records\":{}}").is_err());
        let bad_cluster = "{\"records\":[{\"workload\":\"w\",\"cluster\":\"MidA12\"}]}";
        assert!(collated_from_json(bad_cluster)
            .unwrap_err()
            .contains("cluster"));
    }
}
