//! Field mappings between the persisted and served documents and their
//! Rust types: [`WorkloadRecord`], [`Collated`], [`CollectCheckpoint`],
//! workload-specification lists, and the cluster, gem5-model and suite
//! wire names.
//!
//! The codec itself — parser, typed field readers, string and float
//! writers — is [`gemstone_obs::json`]; this module only says which field
//! goes where. The byte format is a contract that saved datasets,
//! checkpoints and job ids depend on: field order is declaration order,
//! map keys are stringified and sorted (`BTreeMap`), floats use the
//! shortest round-trip formatting with non-finite values written as
//! `null` (read back as NaN), and branch behaviours use an externally
//! tagged layout (`{"Biased":{"taken_prob":0.9}}`). Identical inputs
//! produce identical bytes — which is what lets the resilience tests (and
//! the daemon's queue-resume test) compare artefacts with `==`.

use crate::checkpoint::{CollectCheckpoint, CHECKPOINT_VERSION};
use crate::collate::{Collated, WorkloadRecord};
use gemstone_obs::json::{push_f64, push_joined, Value};
use gemstone_platform::dvfs::Cluster;
use gemstone_platform::fault::QuarantinedWorkload;
use gemstone_platform::gem5sim::Gem5Model;
use gemstone_workloads::spec::{
    BranchBehavior, BranchSite, InstrMix, MemPattern, PhaseSpec, Suite, WorkloadSpec,
};
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

fn suite_name(s: Suite) -> &'static str {
    match s {
        Suite::MiBench => "MiBench",
        Suite::ParMiBench => "ParMiBench",
        Suite::Parsec => "Parsec",
        Suite::LmBench => "LmBench",
        Suite::RoyLongbottom => "RoyLongbottom",
        Suite::Dhrystone => "Dhrystone",
        Suite::Whetstone => "Whetstone",
    }
}

fn suite_from(name: &str) -> Result<Suite, String> {
    Ok(match name {
        "MiBench" => Suite::MiBench,
        "ParMiBench" => Suite::ParMiBench,
        "Parsec" => Suite::Parsec,
        "LmBench" => Suite::LmBench,
        "RoyLongbottom" => Suite::RoyLongbottom,
        "Dhrystone" => Suite::Dhrystone,
        "Whetstone" => Suite::Whetstone,
        other => return Err(format!("unknown suite {other:?}")),
    })
}

fn push_mix(out: &mut String, m: &InstrMix) {
    let fields: [(&str, f64); 14] = [
        ("int_alu", m.int_alu),
        ("int_mul", m.int_mul),
        ("int_div", m.int_div),
        ("fp_alu", m.fp_alu),
        ("fp_div", m.fp_div),
        ("simd", m.simd),
        ("load", m.load),
        ("store", m.store),
        ("branch", m.branch),
        ("indirect", m.indirect),
        ("call", m.call),
        ("exclusive", m.exclusive),
        ("barrier", m.barrier),
        ("nop", m.nop),
    ];
    out.push('{');
    push_joined(out, ",", fields, |out, (k, v)| {
        let _ = write!(out, "\"{k}\":");
        push_f64(out, v);
    });
    out.push('}');
}

fn mix_from(v: &Value) -> Result<InstrMix, String> {
    Ok(InstrMix {
        int_alu: v.f64_field("int_alu")?,
        int_mul: v.f64_field("int_mul")?,
        int_div: v.f64_field("int_div")?,
        fp_alu: v.f64_field("fp_alu")?,
        fp_div: v.f64_field("fp_div")?,
        simd: v.f64_field("simd")?,
        load: v.f64_field("load")?,
        store: v.f64_field("store")?,
        branch: v.f64_field("branch")?,
        indirect: v.f64_field("indirect")?,
        call: v.f64_field("call")?,
        exclusive: v.f64_field("exclusive")?,
        barrier: v.f64_field("barrier")?,
        nop: v.f64_field("nop")?,
    })
}

fn push_mem(out: &mut String, m: &MemPattern) {
    let _ = write!(
        out,
        "{{\"ws_bytes\":{},\"stride\":{},\"random_frac\":",
        m.ws_bytes, m.stride
    );
    push_f64(out, m.random_frac);
    out.push_str(",\"unaligned_frac\":");
    push_f64(out, m.unaligned_frac);
    out.push_str(",\"shared_frac\":");
    push_f64(out, m.shared_frac);
    let _ = write!(out, ",\"dependent\":{}}}", m.dependent);
}

fn mem_from(v: &Value) -> Result<MemPattern, String> {
    Ok(MemPattern {
        ws_bytes: v.uint_field("ws_bytes")?,
        stride: v.uint_field("stride")?,
        random_frac: v.f64_field("random_frac")?,
        unaligned_frac: v.f64_field("unaligned_frac")?,
        shared_frac: v.f64_field("shared_frac")?,
        dependent: v.bool_field("dependent")?,
    })
}

fn push_branch(out: &mut String, b: &BranchSite) {
    out.push_str("{\"behavior\":{");
    match b.behavior {
        BranchBehavior::Random { taken_prob } => {
            out.push_str("\"Random\":{\"taken_prob\":");
            push_f64(out, taken_prob);
        }
        BranchBehavior::Biased { taken_prob } => {
            out.push_str("\"Biased\":{\"taken_prob\":");
            push_f64(out, taken_prob);
        }
        BranchBehavior::Pattern { bits, len } => {
            let _ = write!(out, "\"Pattern\":{{\"bits\":{bits},\"len\":{len}");
        }
        BranchBehavior::Loop { body } => {
            let _ = write!(out, "\"Loop\":{{\"body\":{body}");
        }
    }
    out.push_str("}},\"weight\":");
    push_f64(out, b.weight);
    out.push('}');
}

fn branch_from(v: &Value) -> Result<BranchSite, String> {
    let (tag, body) = v
        .object_field("behavior")?
        .first()
        .ok_or("empty \"behavior\" object — expected one variant tag")?;
    let behavior = match tag.as_str() {
        "Random" => BranchBehavior::Random {
            taken_prob: body.f64_field("taken_prob")?,
        },
        "Biased" => BranchBehavior::Biased {
            taken_prob: body.f64_field("taken_prob")?,
        },
        "Pattern" => BranchBehavior::Pattern {
            bits: body.uint_field("bits")?,
            len: body.uint_field("len")?,
        },
        "Loop" => BranchBehavior::Loop {
            body: body.uint_field("body")?,
        },
        other => return Err(format!("unknown branch behaviour {other:?}")),
    };
    Ok(BranchSite {
        behavior,
        weight: v.f64_field("weight")?,
    })
}

fn push_phase(out: &mut String, p: &PhaseSpec) {
    out.push_str("{\"weight\":");
    push_f64(out, p.weight);
    out.push_str(",\"mix\":");
    push_mix(out, &p.mix);
    out.push_str(",\"mem\":");
    push_mem(out, &p.mem);
    out.push_str(",\"branches\":[");
    push_joined(out, ",", &p.branches, push_branch);
    let _ = write!(out, "],\"code_pages\":{}}}", p.code_pages);
}

fn phase_from(v: &Value) -> Result<PhaseSpec, String> {
    Ok(PhaseSpec {
        weight: v.f64_field("weight")?,
        mix: mix_from(v.get("mix").ok_or("missing field \"mix\"")?)?,
        mem: mem_from(v.get("mem").ok_or("missing field \"mem\"")?)?,
        branches: vec_from(v, "branches", branch_from)?,
        code_pages: v.uint_field("code_pages")?,
    })
}

/// Serialises one [`WorkloadSpec`] into `out`.
pub fn push_workload(out: &mut String, w: &WorkloadSpec) {
    out.push_str("{\"name\":");
    push_str_lit(out, &w.name);
    let _ = write!(
        out,
        ",\"suite\":\"{}\",\"threads\":{},\"instructions\":{},\"phases\":[",
        suite_name(w.suite),
        w.threads,
        w.instructions
    );
    push_joined(out, ",", &w.phases, push_phase);
    let _ = write!(out, "],\"seed\":{}}}", w.seed);
}

/// Reads one [`WorkloadSpec`] back from a parsed [`Value`].
pub fn workload_from_value(v: &Value) -> Result<WorkloadSpec, String> {
    Ok(WorkloadSpec {
        name: v.str_field("name")?.to_string(),
        suite: suite_from(v.str_field("suite")?)?,
        threads: v.uint_field("threads")?,
        instructions: v.uint_field("instructions")?,
        phases: vec_from(v, "phases", phase_from)?,
        seed: v.uint_field("seed")?,
    })
}

/// Serialises a workload-specification list (the `save_workloads`
/// document).
pub fn workloads_to_json(specs: &[WorkloadSpec]) -> String {
    let mut out = String::from("[");
    push_joined(&mut out, ",", specs, push_workload);
    out.push(']');
    out
}

/// Parses a workload-specification list serialised by
/// [`workloads_to_json`].
///
/// # Errors
///
/// A human-readable description of the first structural problem.
pub fn workloads_from_json(text: &str) -> Result<Vec<WorkloadSpec>, String> {
    Value::parse(text)?
        .as_array()
        .ok_or("workload list must be an array")?
        .iter()
        .map(workload_from_value)
        .collect()
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
    fn out_of_range_branch_length_is_rejected_not_truncated() {
        let mut spec = gemstone_workloads::suites::by_name("mi-sha")
            .unwrap()
            .clone();
        spec.phases[0].branches = vec![BranchSite {
            behavior: BranchBehavior::Pattern { bits: 5, len: 3 },
            weight: 1.0,
        }];
        let text = workloads_to_json(&[spec]);
        assert_eq!(
            workloads_from_json(&text).unwrap()[0].phases[0].branches[0].behavior,
            BranchBehavior::Pattern { bits: 5, len: 3 }
        );
        // 300 would read back as 44 under an `as u8` cast.
        let wide = text.replace("\"len\":3}", "\"len\":300}");
        assert_ne!(wide, text);
        let err = workloads_from_json(&wide).unwrap_err();
        assert_eq!(err, "missing or non-u8 field \"len\"");
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
