//! The `gemstone` command-line tool.
//!
//! Subcommands mirror the paper's workflows:
//!
//! ```text
//! gemstone validate  [--scale S] [--clusters K] [--save FILE]   full pipeline (no power)
//! gemstone report    [--scale S] [--save FILE]                  full pipeline incl. power
//! gemstone repro     --out DIR [--scale S]                      every experiment, one file
//!                                                               each (the paper's results/)
//! gemstone collect   [--scale S] [--checkpoint F] [--resume]    resilient sweep with retry,
//!                    [--save F] [--csv F] [--retries N]         quarantine, checkpoint/resume
//!                    [--min-coverage FRAC]                      (faults via GEMSTONE_FAULTS)
//! gemstone power     [--scale S] [--cluster a7|a15]             build a §V power model
//! gemstone ablate    [--scale S]                                per-error ablation study
//! gemstone suitability [--scale S] [--max-mape PCT]             §VII use-case check
//! gemstone improve   [--scale S] [--target-mape PCT]            guided improvement loop
//! gemstone stats     <workload> [--model old|fixed|little]      dump gem5-style stats.txt
//! gemstone profile   <workload> [--model M] [--freq HZ]         simulator self-profile
//! gemstone perf      report <journal.jsonl>                     aggregated span profile
//! gemstone perf      diff <before> <after> [--tolerance PCT]    regression gate over two
//!                                                               journals or BENCH_*.json
//! ```
//!
//! `validate`, `report`, `collect`, and `profile` additionally accept observability
//! outputs: `--metrics FILE` (Prometheus text), `--trace FILE` (Chrome
//! trace-event JSON, load via `chrome://tracing` or Perfetto), `--jsonl
//! FILE` (one JSON object per metric sample and span), and
//! `--flight-record FILE` (the flight-recorder ring of recent span/note
//! events as JSONL — the same dump the fault paths emit automatically).
//! Any of these flips the process-wide `GEMSTONE_OBS` switch on for the
//! run.
//!
//! `validate`, `report`, `repro`, `collect`, `stats` and `profile` accept
//! `--fidelity atomic|approx|sampled` to pick the execution tier (default
//! `approx`). The sampled tier's geometry is controlled by
//! `GEMSTONE_SAMPLE_INTERVAL`, `GEMSTONE_SAMPLE_WINDOW` and
//! `GEMSTONE_SAMPLE_WARMUP`.
//!
//! Flag values are checked: `--scale` must lie in (0, 10], `--model` is one
//! of `old`, `fixed` or `little`, `--cluster` one of `a7` or `a15`, and a
//! value that does not parse or is out of range is a usage error.
//!
//! Exit codes: 0 success, 1 runtime failure, 2 usage error, 3 unknown
//! flag for the given subcommand.

use gemstone::core::analysis::{ablation, improve, suitability};
use gemstone::core::pipeline::GemStone;
use gemstone::core::{collate::Collated, experiment, persist, render, report::Table, repro};
use gemstone::platform::simcache::SimCache;
use gemstone::powmon::{fitting, selection};
use gemstone::prelude::*;
use gemstone::uarch::backend::{Fidelity, SampleParams, TierConfig};
use gemstone::workloads::spec::WorkloadSpec;
use std::collections::BTreeMap;
use std::process::ExitCode;

/// Minimal flag parser: `--key value` pairs after the subcommand, plus a
/// per-subcommand list of valueless boolean flags (e.g. `--resume`).
struct Args {
    flags: BTreeMap<String, String>,
    positional: Vec<String>,
}

impl Args {
    fn parse(raw: &[String], bool_flags: &[&str]) -> Result<Args, String> {
        let mut flags = BTreeMap::new();
        let mut positional = Vec::new();
        let mut it = raw.iter();
        while let Some(a) = it.next() {
            if let Some(key) = a.strip_prefix("--") {
                if bool_flags.contains(&key) {
                    flags.insert(key.to_string(), "true".to_string());
                    continue;
                }
                let value = it
                    .next()
                    .ok_or_else(|| format!("missing value for --{key}"))?;
                flags.insert(key.to_string(), value.clone());
            } else {
                positional.push(a.clone());
            }
        }
        Ok(Args { flags, positional })
    }

    /// The one reader of parsed flags (the numbers, and `--fidelity`):
    /// `default` when `--key` is absent, and a usage error naming the flag
    /// when its value does not parse or fails `valid` (which `expected`
    /// describes).
    fn number<T: std::str::FromStr>(
        &self,
        key: &str,
        default: T,
        expected: &str,
        valid: impl Fn(&T) -> bool,
    ) -> Result<T, String> {
        let Some(v) = self.get(key) else {
            return Ok(default);
        };
        match v.parse() {
            Ok(n) if valid(&n) => Ok(n),
            _ => Err(format!("invalid --{key} value '{v}': expected {expected}")),
        }
    }

    /// The one reader of enumerated flags: the value `choices` pairs with
    /// `--key` (with `default` when the flag is absent), and a usage error
    /// naming the flag for any other value.
    fn choice<T: Copy>(
        &self,
        key: &str,
        default: &str,
        choices: &[(&str, T)],
    ) -> Result<T, String> {
        let v = self.get(key).unwrap_or(default);
        match choices.iter().find(|(name, _)| *name == v) {
            Some(&(_, t)) => Ok(t),
            None => {
                let names: Vec<&str> = choices.iter().map(|&(name, _)| name).collect();
                Err(format!(
                    "invalid --{key} value '{v}': expected one of {}",
                    names.join(", ")
                ))
            }
        }
    }

    /// `--scale`, the workload-budget factor: in (0, 10], default 1.
    fn scale(&self) -> Result<f64, String> {
        self.number("scale", 1.0, "a number in (0, 10]", |&s| {
            WorkloadSpec::scale_in_range(s)
        })
    }

    /// A non-negative percentage flag (`--max-mape`, `--target-mape`).
    fn percent(&self, key: &str, default: f64) -> Result<f64, String> {
        self.number(key, default, "a percentage >= 0", |p| {
            p.is_finite() && *p >= 0.0
        })
    }

    /// `--min-coverage`, a fraction of the workloads.
    fn min_coverage(&self, default: f64) -> Result<f64, String> {
        self.number("min-coverage", default, "a fraction in [0, 1]", |m| {
            (0.0..=1.0).contains(m)
        })
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.flags.get(key).map(String::as_str)
    }

    /// Whether a boolean flag was given.
    fn has(&self, key: &str) -> bool {
        self.flags.contains_key(key)
    }

    /// First flag not in `allowed`, if any — callers turn this into exit
    /// code 3 so typos don't silently become default behaviour.
    fn unknown_flag(&self, allowed: &[&str]) -> Option<&str> {
        self.flags
            .keys()
            .map(String::as_str)
            .find(|k| !allowed.contains(k))
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: gemstone <validate|report|collect|serve|power|ablate|suitability|improve|stats|profile|perf> [flags]\n\
         \n\
         validate     [--scale S] [--clusters K] [--save FILE]  time-error validation pipeline\n\
         report       [--scale S] [--save FILE]                 full pipeline incl. power models\n\
         repro        --out DIR [--scale S]                     every experiment of the paper,\n\
         \u{20}                                                      one text file each\n\
         collect      [--scale S] [--checkpoint FILE] [--resume] [--save FILE] [--csv FILE]\n\
         \u{20}            [--retries N] [--min-coverage FRAC]       resilient characterisation sweep:\n\
         \u{20}                                                      retry faults, quarantine dead\n\
         \u{20}                                                      workloads, checkpoint progress\n\
         serve        [--addr HOST:PORT] [--workers N] [--queue-dir DIR]\n\
         \u{20}            [--queue-limit N] [--min-coverage FRAC]    validation-as-a-service daemon:\n\
         \u{20}                                                      POST /jobs, GET /jobs/<id>,\n\
         \u{20}                                                      GET /metrics, GET /healthz;\n\
         \u{20}                                                      duplicate jobs coalesce, the\n\
         \u{20}                                                      queue survives restarts\n\
         power        [--scale S] [--cluster a7|a15]            build and print a power model\n\
         ablate       [--scale S]                               per-spec-error ablation study\n\
         suitability  [--scale S] [--max-mape PCT]              use-case suitability check\n\
         improve      [--scale S] [--target-mape PCT]           guided diagnose-and-fix loop\n\
         stats <workload> [--model old|fixed|little]            gem5-style stats.txt dump\n\
         profile <workload> [--model old|fixed|little] [--freq HZ]\n\
         \u{20}                                                      simulator self-profile:\n\
         \u{20}                                                      MIPS, event rates, instr mix\n\
         perf report <journal.jsonl>                            aggregated span-tree profile\n\
         perf diff <before> <after> [--tolerance PCT]           regression gate over two JSONL\n\
         \u{20}                                                      journals or BENCH_*.json\n\
         \u{20}                                                      records (default 20%)\n\
         \n\
         validate, report, repro, collect, stats and profile also accept\n\
         \u{20}  --fidelity atomic|approx|sampled   execution tier (default: approx;\n\
         \u{20}                                     sampled-tier geometry via\n\
         \u{20}                                     GEMSTONE_SAMPLE_{{INTERVAL,WINDOW,WARMUP}})\n\
         \n\
         validate, report, collect and profile also accept observability outputs:\n\
         \u{20}  --metrics FILE        Prometheus text-format metrics dump\n\
         \u{20}  --trace FILE          Chrome trace-event JSON (chrome://tracing)\n\
         \u{20}  --jsonl FILE          JSONL stream of metric samples and spans\n\
         \u{20}  --flight-record FILE  flight-recorder ring (recent span/note\n\
         \u{20}                        events) as JSONL\n\
         \n\
         `collect` injects faults when GEMSTONE_FAULTS is set\n\
         (e.g. GEMSTONE_FAULTS=\"seed=7,transient=0.3,fails=2\")\n\
         \n\
         --scale must lie in (0, 10]\n\
         exit codes: 0 ok, 1 failure, 2 usage, 3 unknown flag"
    );
    ExitCode::from(2)
}

/// Observability export files requested on the command line. Requesting
/// any of them enables the obs layer for the run (same effect as setting
/// `GEMSTONE_OBS=1`).
struct ObsOutputs {
    metrics: Option<String>,
    trace: Option<String>,
    jsonl: Option<String>,
    flight: Option<String>,
}

impl ObsOutputs {
    fn from_args(args: &Args) -> ObsOutputs {
        ObsOutputs {
            metrics: args.get("metrics").map(String::from),
            trace: args.get("trace").map(String::from),
            jsonl: args.get("jsonl").map(String::from),
            flight: args.get("flight-record").map(String::from),
        }
    }

    fn any(&self) -> bool {
        self.metrics.is_some()
            || self.trace.is_some()
            || self.jsonl.is_some()
            || self.flight.is_some()
    }

    /// Turns the obs layer on before the run when any output was asked for.
    fn enable(&self) {
        if self.any() {
            gemstone_obs::set_enabled(true);
        }
    }

    /// Writes the requested files and turns the outcome into the exit
    /// code of a run that otherwise succeeded.
    fn finish(&self) -> Result<ExitCode, String> {
        if let Err(e) = self.write() {
            eprintln!("{e}");
            return Ok(ExitCode::FAILURE);
        }
        Ok(ExitCode::SUCCESS)
    }

    /// Writes every requested file. Called once, after the run, so the
    /// registry and span log hold the whole execution.
    fn write(&self) -> Result<(), String> {
        if !self.any() {
            return Ok(());
        }
        gemstone::core::service::sync_cache_gauges();
        let registry = gemstone_obs::Registry::global();
        let events = gemstone_obs::SpanLog::global().snapshot();
        let dump = |path: &str, what: &str, body: String| -> Result<(), String> {
            std::fs::write(path, body).map_err(|e| format!("writing {what} to {path}: {e}"))?;
            eprintln!("{what} written to {path}");
            Ok(())
        };
        if let Some(p) = &self.metrics {
            dump(p, "metrics", gemstone_obs::export::prometheus(registry))?;
        }
        if let Some(p) = &self.trace {
            dump(p, "trace", gemstone_obs::export::chrome_trace(&events))?;
        }
        if let Some(p) = &self.jsonl {
            dump(p, "jsonl", gemstone_obs::export::jsonl(registry, &events))?;
        }
        if let Some(p) = &self.flight {
            dump(
                p,
                "flight record",
                gemstone_obs::flight::FlightRecorder::global().dump_jsonl(),
            )?;
        }
        Ok(())
    }
}

/// Workload lookup for `stats`/`profile`: exact name first, then a unique
/// substring match over the power suite (so `profile dhrystone` finds
/// `dhry-dhrystone` without anyone memorising suite prefixes).
fn resolve_workload(name: &str) -> Result<&'static WorkloadSpec, String> {
    if let Some(spec) = suites::by_name(name) {
        return Ok(spec);
    }
    let matches: Vec<&WorkloadSpec> = suites::power_suite()
        .into_iter()
        .filter(|w| w.name.contains(name))
        .collect();
    match matches.len() {
        1 => Ok(matches[0]),
        0 => Err(format!(
            "unknown workload '{name}' (see `gemstone stats` docs for the suite list)"
        )),
        _ => Err(format!(
            "ambiguous workload '{name}': matches {}",
            matches
                .iter()
                .map(|w| w.name.as_str())
                .collect::<Vec<_>>()
                .join(", ")
        )),
    }
}

/// `--model old|fixed|little`, the gem5 model (default `old`).
fn parse_model(args: &Args) -> Result<Gem5Model, String> {
    args.choice(
        "model",
        "old",
        &[
            ("old", Gem5Model::Ex5BigOld),
            ("fixed", Gem5Model::Ex5BigFixed),
            ("little", Gem5Model::Ex5Little),
        ],
    )
}

/// `--cluster a7|a15`, the cluster to model (default `a15`).
fn parse_cluster(args: &Args) -> Result<Cluster, String> {
    args.choice(
        "cluster",
        "a15",
        &[("a7", Cluster::LittleA7), ("a15", Cluster::BigA15)],
    )
}

/// Execution tier for the run: `--fidelity`, approx when absent. The
/// sampled tier's geometry comes from the `GEMSTONE_SAMPLE_*` environment
/// knobs. An unrecognised value is a usage error (exit 2), not a silent
/// fall-back to the default tier.
fn parse_fidelity(args: &Args) -> Result<TierConfig, String> {
    if !args.has("fidelity") {
        return Ok(TierConfig::default());
    }
    let expected = "one of atomic, approx, sampled";
    Ok(TierConfig {
        fidelity: args.number("fidelity", Fidelity::Approx, expected, |_| true)?,
        sample: SampleParams::from_env(),
    })
}

/// The campaign `--scale` and `--fidelity` ask for, on the default board.
fn experiment_config(args: &Args) -> Result<experiment::ExperimentConfig, String> {
    Ok(experiment::ExperimentConfig {
        workload_scale: args.scale()?,
        fidelity: parse_fidelity(args)?,
        ..experiment::ExperimentConfig::default()
    })
}

/// Reports a runtime failure (exit 1). Usage errors travel as `Err` and
/// exit 2 from `main`.
fn fail(what: &str, e: impl std::fmt::Display) -> Result<ExitCode, String> {
    eprintln!("{what}: {e}");
    Ok(ExitCode::FAILURE)
}

/// Prints a rendered result (exit 0), or reports why there is none.
fn print_or_fail<E: std::fmt::Display>(
    what: &str,
    text: std::result::Result<String, E>,
) -> Result<ExitCode, String> {
    match text {
        Ok(text) => {
            print!("{text}");
            Ok(ExitCode::SUCCESS)
        }
        Err(e) => fail(what, e),
    }
}

fn run_pipeline(args: &Args, with_power: bool) -> Result<ExitCode, String> {
    let outputs = ObsOutputs::from_args(args);
    outputs.enable();
    let mut opts = repro::pipeline_options(experiment_config(args)?);
    opts.with_power = with_power;
    opts.clusters_k = Some(args.number("clusters", 16, "a positive integer", |&k| k > 0)?);
    let report = match GemStone::new(opts).run() {
        Ok(report) => report,
        Err(e) => return fail("pipeline failed", e),
    };
    println!("{}", report.render());
    if let Some(path) = args.get("save") {
        if let Err(e) = persist::save_collated(&report.collated, path) {
            return fail("save failed", e);
        }
        println!("collated dataset saved to {path}");
    }
    outputs.finish()
}

/// `gemstone repro --out DIR`: the whole reproduction run once, written as
/// one text file per experiment (see `gemstone_core::repro`).
fn run_repro(args: &Args) -> Result<ExitCode, String> {
    let dir = args
        .get("out")
        .ok_or("repro needs --out DIR, the directory for the experiment files")?;
    let written = repro::run(experiment_config(args)?)
        .and_then(|r| r.write(std::path::Path::new(dir)))
        .map(|paths| {
            paths
                .iter()
                .map(|p| format!("wrote {}\n", p.display()))
                .collect()
        });
    print_or_fail("repro failed", written)
}

/// `gemstone collect`: the resilient characterisation sweep. Runs the
/// validation experiments with per-operation retries, quarantines
/// workloads whose retry budget is exhausted, and (with `--checkpoint`)
/// persists progress after every workload so `--resume` continues a killed
/// run — bit-identical to an uninterrupted one.
fn run_collect(args: &Args) -> Result<ExitCode, String> {
    use gemstone::core::resilience::{collect_resilient, ResilienceOptions};

    let outputs = ObsOutputs::from_args(args);
    outputs.enable();
    let cfg = experiment_config(args)?;
    let workloads: Vec<_> = suites::validation_suite()
        .iter()
        .map(|w| w.scaled(cfg.workload_scale))
        .collect();
    let mut opts = ResilienceOptions {
        checkpoint: args.get("checkpoint").map(std::path::PathBuf::from),
        resume: args.has("resume"),
        ..ResilienceOptions::default()
    };
    let attempts = opts.retry.max_attempts;
    opts.retry.max_attempts = args.number("retries", attempts, "a positive integer", |&n| n > 0)?;
    opts.min_coverage = args.min_coverage(opts.min_coverage)?;
    if opts.resume && opts.checkpoint.is_none() {
        return Err("--resume needs --checkpoint FILE to resume from".into());
    }

    let outcome = match collect_resilient(&cfg, workloads, &opts) {
        Ok(o) => o,
        Err(e) => return fail("collect failed", e),
    };
    print!("{}", outcome.coverage.render());
    println!("records: {}", outcome.collated.records.len());
    if let Some(path) = args.get("save") {
        if let Err(e) = persist::save_collated(&outcome.collated, path) {
            return fail("save failed", e);
        }
        println!("collated dataset saved to {path}");
    }
    if let Some(path) = args.get("csv") {
        if let Err(e) = persist::export_csv(&outcome.collated, path) {
            return fail("csv export failed", e);
        }
        println!("csv written to {path}");
    }
    outputs.finish()
}

fn run_power(args: &Args) -> Result<ExitCode, String> {
    let cluster = parse_cluster(args)?;
    let scale = args.scale()?;
    let specs: Vec<_> = suites::power_suite()
        .iter()
        .map(|w| w.scaled(scale))
        .collect();
    // The same fallible library entry the `power-model` jobs of
    // `gemstone serve` run — the CLI is just one more client of it.
    let restricted = selection::SelectionOptions::gem5_restricted();
    let fitted = fitting::fit_cluster_model(&OdroidXu3::new(), cluster, &specs, &restricted);
    print_or_fail(
        "power modelling failed",
        fitted.map(|f| render::power_model(&f, None)),
    )
}

fn run_serve(args: &Args) -> Result<ExitCode, String> {
    use gemstone::core::service::{serve, Service, ServiceConfig};

    let addr = args.get("addr").unwrap_or("127.0.0.1:8323");
    let mut cfg = ServiceConfig {
        queue_dir: args
            .get("queue-dir")
            .map(Into::into)
            .unwrap_or_else(|| std::env::temp_dir().join("gemstone-serve")),
        ..ServiceConfig::default()
    };
    cfg.workers = args.number("workers", cfg.workers, "an integer", |_| true)?;
    let limit = cfg.queue_limit;
    cfg.queue_limit = args.number("queue-limit", limit, "a positive integer", |&n| n > 0)?;
    cfg.min_coverage = args.min_coverage(cfg.min_coverage)?;

    let listener = match std::net::TcpListener::bind(addr) {
        Ok(l) => l,
        Err(e) => return fail(&format!("cannot bind {addr}"), e),
    };
    // The service layer reports through the obs registry (`/metrics`), so
    // turn the registry on for the daemon's lifetime.
    gemstone_obs::set_enabled(true);
    let svc = match Service::open(cfg.clone()) {
        Ok(s) => s,
        Err(e) => return fail(&format!("cannot open queue {}", cfg.queue_dir.display()), e),
    };
    // The smoke tests (and humans) wait for this line before submitting.
    println!(
        "gemstone serve: listening on http://{} ({} workers, queue {})",
        listener
            .local_addr()
            .map_or_else(|_| addr.to_string(), |a| a.to_string()),
        cfg.workers,
        cfg.queue_dir.display()
    );
    match serve(&svc, &listener) {
        Ok(()) => Ok(ExitCode::SUCCESS),
        Err(e) => fail("serve failed", e),
    }
}

/// The validation suite at the `--scale` the command line asks for.
fn validation_workloads(args: &Args) -> Result<Vec<WorkloadSpec>, String> {
    let scale = args.scale()?;
    Ok(suites::validation_suite()
        .iter()
        .map(|w| w.scaled(scale))
        .collect())
}

fn run_ablate(args: &Args) -> Result<ExitCode, String> {
    let workloads = validation_workloads(args)?;
    let ab = ablation::analyse(&experiment::ExperimentConfig::default(), &workloads, 1.0e9);
    print_or_fail("ablation failed", ab.map(|ab| render::ablation(&ab)))
}

fn run_suitability(args: &Args) -> Result<ExitCode, String> {
    let max_mape = args.percent("max-mape", 20.0)?;
    let collated = Collated::build(&experiment::run_validation(&experiment_config(args)?));
    let cases = vec![
        suitability::UseCase::timing(format!("all workloads (≤{max_mape} %)"), max_mape),
        suitability::UseCase::timing(format!("PARSEC only (≤{max_mape} %)"), max_mape)
            .with_workloads(&["parsec-"]),
        suitability::UseCase::timing(format!("control-heavy (≤{max_mape} %)"), max_mape)
            .with_workloads(&["mi-bitcount", "mi-stringsearch", "par-"]),
    ];
    let mut t = Table::new(vec!["model", "use-case", "n", "MAPE %", "verdict"]);
    for model in [
        Gem5Model::Ex5BigOld,
        Gem5Model::Ex5BigFixed,
        Gem5Model::Ex5Little,
    ] {
        match suitability::assess(&collated, model, 1.0e9, &cases) {
            Ok(verdicts) => {
                for v in verdicts {
                    t.row(vec![
                        model.name().to_string(),
                        v.use_case.clone(),
                        v.n.to_string(),
                        format!("{:.1}", v.time_mape),
                        if v.suitable { "SUITABLE" } else { "unsuitable" }.to_string(),
                    ]);
                }
            }
            Err(e) => return fail(&format!("assessment failed for {}", model.name()), e),
        }
    }
    println!("{}", t.render());
    Ok(ExitCode::SUCCESS)
}

fn run_improve(args: &Args) -> Result<ExitCode, String> {
    let target = args.percent("target-mape", 10.0)?;
    let workloads = validation_workloads(args)?;
    let imp = improve::improve_model(
        &experiment::ExperimentConfig::default(),
        &workloads,
        1.0e9,
        target,
        8,
    );
    print_or_fail(
        "improvement loop failed",
        imp.map(|imp| render::improve_loop(&imp)),
    )
}

fn run_stats(args: &Args) -> Result<ExitCode, String> {
    let model = parse_model(args)?;
    let tier = parse_fidelity(args)?;
    let scale = args.scale()?;
    let name = args
        .positional
        .first()
        .ok_or("stats needs a workload name (see `suites::power_suite()` for the list)")?;
    let spec = resolve_workload(name)?;
    // The process-wide caches, so the counters below reflect whether this
    // invocation hit the memo / replayed a packed trace / fused the
    // frequency column.
    let cache = SimCache::global();
    let t0 = std::time::Instant::now();
    // 1 GHz is a DVFS point of both clusters, so this run fills the
    // model's whole column from one fused replay; the stats dump is the
    // 1 GHz lane, and the grid counters record what the fusion did.
    let run = Gem5Sim::run(&cache, &spec.scaled(scale), model, 1.0e9, tier);
    let sim_micros = t0.elapsed().as_micros() as u64;
    print!("{}", run.stats.to_stats_txt());
    // Execution-layer counters, in the same aligned `name value` style.
    let traces = cache.trace_cache();
    let registry = gemstone_obs::Registry::global();
    for (name, value) in [
        ("gemstone.simcache.hits", cache.hits()),
        ("gemstone.simcache.misses", cache.misses()),
        ("gemstone.simcache.entries", cache.len() as u64),
        ("gemstone.simcache.grid_fills", cache.grid_fills()),
        ("gemstone.tracecache.hits", traces.hits()),
        ("gemstone.tracecache.misses", traces.misses()),
        ("gemstone.tracecache.bytes", traces.bytes() as u64),
        ("gemstone.tracecache.peak_bytes", traces.peak_bytes() as u64),
        (
            "gemstone.trace_cache.histogram.hits",
            traces.histogram_hits(),
        ),
        (
            "gemstone.trace_cache.histogram.misses",
            traces.histogram_misses(),
        ),
        (
            "gemstone.engine.grid.replays",
            registry.counter("engine.grid.replays").get(),
        ),
        (
            "gemstone.engine.grid.lanes",
            registry.counter("engine.grid.lanes").get(),
        ),
        ("gemstone.sim.wall_micros", sim_micros),
    ] {
        println!("{name:<60} {value:>20}");
    }
    println!(
        "{:<60} {:>20.0}",
        "gemstone.sweep.queue.depth",
        registry.gauge("sweep.queue.depth").get()
    );
    let name = run.stats.fidelity.name();
    println!("{:<60} {name:>20}", "gemstone.fidelity");
    if let Some(m) = &run.stats.sample {
        for (name, value) in [
            ("gemstone.sample.windows", m.windows.to_string()),
            (
                "gemstone.sample.measured_instructions",
                m.measured_instructions.to_string(),
            ),
            (
                "gemstone.sample.coverage_pct",
                format!("{:.2}", m.coverage * 100.0),
            ),
            (
                "gemstone.sample.rel_ci95_pct",
                format!("{:.3}", m.rel_ci95 * 100.0),
            ),
        ] {
            println!("{name:<60} {value:>20}");
        }
    }
    Ok(ExitCode::SUCCESS)
}

/// `gemstone profile <workload>`: run one workload through the simulator
/// and report what the *simulator* did — host wall-clock, simulation rate
/// (MIPS), per-structure event rates, instruction mix, and cache-layer
/// effectiveness. The obs layer is always on for this subcommand.
fn run_profile(args: &Args) -> Result<ExitCode, String> {
    let model = parse_model(args)?;
    let freq = args.number("freq", 1.0e9, "a frequency in Hz > 0", |f: &f64| {
        f.is_finite() && *f > 0.0
    })?;
    let tier = parse_fidelity(args)?;
    let scale = args.scale()?;
    let name = args
        .positional
        .first()
        .ok_or("profile needs a workload name, e.g. `gemstone profile dhrystone`")?;
    let spec = resolve_workload(name)?;
    let outputs = ObsOutputs::from_args(args);
    // Profiling is the point of this subcommand — spans and registry
    // counters are live even when no export file was requested.
    gemstone_obs::set_enabled(true);

    let cache = SimCache::global();
    let t0 = std::time::Instant::now();
    let run = Gem5Sim::run(&cache, &spec.scaled(scale), model, freq, tier);
    let wall = t0.elapsed().as_secs_f64();

    let s = &run.stats;
    let instr = s.committed_instructions;
    let mips = if wall > 0.0 {
        instr as f64 / wall / 1.0e6
    } else {
        0.0
    };
    println!(
        "workload {}  model {}  freq {:.0} MHz",
        run.workload,
        model.name(),
        freq / 1.0e6
    );
    match &s.sample {
        Some(m) => println!(
            "fidelity {}  ({} windows, {} of {} instructions measured, \
             coverage {:.2} %, rel CI95 {:.3} %)",
            tier,
            m.windows,
            m.measured_instructions,
            m.total_instructions,
            m.coverage * 100.0,
            m.rel_ci95 * 100.0
        ),
        None => println!("fidelity {}", s.fidelity.name()),
    }
    println!(
        "simulated {:.6} s  ({} instructions, {} cycles, IPC {:.3})",
        run.time_s,
        instr,
        s.cycles,
        s.ipc()
    );
    println!("host wall-clock {:.6} s  ->  {mips:.2} MIPS\n", wall);

    // Per-structure event table: absolute counts plus per-kilo-instruction
    // rates, the unit architects compare across workloads.
    let pki = |n: u64| {
        if instr == 0 {
            0.0
        } else {
            n as f64 * 1000.0 / instr as f64
        }
    };
    let mut t = Table::new(vec!["structure", "accesses", "misses", "miss %", "MPKI"]);
    let mut structure = |name: &str, accesses: u64, misses: u64| {
        let pct = if accesses == 0 {
            0.0
        } else {
            misses as f64 / accesses as f64 * 100.0
        };
        t.row(vec![
            name.to_string(),
            accesses.to_string(),
            misses.to_string(),
            format!("{pct:.2}"),
            format!("{:.3}", pki(misses)),
        ]);
    };
    structure("L1I cache", s.l1i.accesses, s.l1i.misses);
    structure("L1D cache", s.l1d.accesses, s.l1d.misses);
    structure("L2 cache", s.l2.accesses, s.l2.misses);
    structure("ITLB", s.itlb.l1_accesses, s.itlb.l1_misses);
    structure("DTLB", s.dtlb.l1_accesses, s.dtlb.l1_misses);
    structure("page walks", s.itlb.walks + s.dtlb.walks, 0);
    structure(
        "branch predictor",
        s.branch.lookups,
        s.branch.total_mispredicts(),
    );
    println!("{}", t.render());

    // Committed instruction mix.
    let c = &s.committed;
    let total = c.total().max(1);
    let mut mix = Table::new(vec!["class", "count", "share %"]);
    for (label, count) in [
        ("int ALU", c.int_alu),
        ("int mul", c.int_mul),
        ("int div", c.int_div),
        ("FP", c.fp_alu + c.fp_div),
        ("SIMD", c.simd),
        ("loads", c.loads),
        ("stores", c.stores),
        ("branches", c.all_branches()),
        ("barriers", c.barriers),
        ("nops", c.nops),
    ] {
        mix.row(vec![
            label.to_string(),
            count.to_string(),
            format!("{:.1}", count as f64 / total as f64 * 100.0),
        ]);
    }
    println!("{}", mix.render());

    // Cache-layer effectiveness for this invocation.
    let sim = cache.snapshot();
    let traces = cache.trace_cache().snapshot();
    println!(
        "simcache: {} hits, {} misses, {} entries",
        sim.hits, sim.misses, sim.entries
    );
    println!(
        "trace cache: {} hits, {} misses, {} entries, {} bytes, {} peak bytes; \
         class histograms: {} hits, {} misses",
        traces.hits,
        traces.misses,
        traces.entries,
        traces.bytes,
        traces.peak_bytes,
        traces.histogram_hits,
        traces.histogram_misses
    );

    outputs.finish()
}

/// What a `gemstone perf` input file turned out to hold, by inspection:
/// `BENCH_*.json` artefacts are a JSON array, journals are JSONL.
enum PerfInput {
    Bench(Vec<gemstone_obs::profile::BenchRec>),
    Journal(gemstone_obs::profile::Journal),
}

fn load_perf_input(path: &str) -> Result<PerfInput, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    if text.trim_start().starts_with('[') {
        gemstone_obs::profile::parse_bench_json(&text)
            .map(PerfInput::Bench)
            .map_err(|e| format!("{path}: {e}"))
    } else {
        gemstone_obs::profile::Journal::parse(&text)
            .map(PerfInput::Journal)
            .map_err(|e| format!("{path}: {e}"))
    }
}

/// `gemstone perf report <journal.jsonl>` / `gemstone perf diff <before>
/// <after> [--tolerance PCT]`. `report` renders the aggregated span-tree
/// profile of one JSONL journal; `diff` compares two journals (span time
/// and MIPS) or two `BENCH_*.json` records (speedup) and exits non-zero
/// when any metric regressed by more than the tolerance (default 20%) —
/// the CI gate over the repo's bench trajectory.
fn run_perf(args: &Args, tolerance: f64) -> ExitCode {
    match args.positional.as_slice() {
        [mode, path] if mode == "report" => {
            let journal = match load_perf_input(path) {
                Ok(PerfInput::Journal(j)) => j,
                Ok(PerfInput::Bench(_)) => {
                    eprintln!(
                        "{path} is a bench-record file; `perf report` takes a JSONL \
                         journal (from --jsonl or --flight-record)"
                    );
                    return ExitCode::FAILURE;
                }
                Err(e) => {
                    eprintln!("{e}");
                    return ExitCode::FAILURE;
                }
            };
            print!("{}", gemstone_obs::profile::render_report(&journal));
            ExitCode::SUCCESS
        }
        [mode, before, after] if mode == "diff" => {
            let (b, a) = match (load_perf_input(before), load_perf_input(after)) {
                (Ok(b), Ok(a)) => (b, a),
                (Err(e), _) | (_, Err(e)) => {
                    eprintln!("{e}");
                    return ExitCode::FAILURE;
                }
            };
            let report = match (b, a) {
                (PerfInput::Bench(b), PerfInput::Bench(a)) => {
                    gemstone_obs::profile::diff_bench(&b, &a, tolerance)
                }
                (PerfInput::Journal(b), PerfInput::Journal(a)) => {
                    gemstone_obs::profile::diff_journals(&b, &a, tolerance)
                }
                _ => {
                    eprintln!(
                        "{before} and {after} are different kinds of record \
                         (one bench JSON, one journal) — diff like with like"
                    );
                    return ExitCode::FAILURE;
                }
            };
            print!("{}", report.render());
            let regressions = report.regressions();
            if regressions > 0 {
                eprintln!("{regressions} metric(s) regressed beyond {tolerance:.0}% tolerance");
                return ExitCode::FAILURE;
            }
            println!("no regression beyond {tolerance:.0}% tolerance");
            ExitCode::SUCCESS
        }
        _ => {
            eprintln!(
                "usage: gemstone perf report <journal.jsonl>\n\
                 \u{20}      gemstone perf diff <before> <after> [--tolerance PCT]\n\
                 (diff accepts two JSONL journals or two BENCH_*.json records)"
            );
            ExitCode::from(2)
        }
    }
}

/// The flags subcommand `cmd` accepts (`None` for an unknown command);
/// any other flag exits 3.
fn allowed_flags(cmd: &str) -> Option<&'static [&'static str]> {
    Some(match cmd {
        "validate" | "report" => &[
            "scale",
            "clusters",
            "save",
            "fidelity",
            "metrics",
            "trace",
            "jsonl",
            "flight-record",
        ],
        "collect" => &[
            "scale",
            "checkpoint",
            "resume",
            "save",
            "csv",
            "retries",
            "min-coverage",
            "fidelity",
            "metrics",
            "trace",
            "jsonl",
            "flight-record",
        ],
        "serve" => &[
            "addr",
            "workers",
            "queue-dir",
            "queue-limit",
            "min-coverage",
        ],
        "power" => &["scale", "cluster"],
        "ablate" => &["scale"],
        "suitability" => &["scale", "max-mape"],
        "improve" => &["scale", "target-mape"],
        "stats" => &["scale", "model", "fidelity"],
        "profile" => &[
            "scale",
            "model",
            "freq",
            "fidelity",
            "metrics",
            "trace",
            "jsonl",
            "flight-record",
        ],
        "repro" => &["out", "scale", "fidelity"],
        "perf" => &["tolerance"],
        _ => return None,
    })
}

fn main() -> ExitCode {
    // A crash mid-sweep should leave the flight-recorder ring on disk —
    // the last few thousand span/note events before the panic.
    gemstone_obs::flight::install_panic_hook();
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = raw.first().cloned() else {
        return usage();
    };
    let bool_flags: &[&str] = match cmd.as_str() {
        "collect" => &["resume"],
        _ => &[],
    };
    let args = match Args::parse(&raw[1..], bool_flags) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return usage();
        }
    };
    let Some(allowed) = allowed_flags(&cmd) else {
        return usage();
    };
    if let Some(flag) = args.unknown_flag(allowed) {
        eprintln!(
            "unknown flag --{flag} for `gemstone {cmd}` (allowed: {})",
            allowed
                .iter()
                .map(|f| format!("--{f}"))
                .collect::<Vec<_>>()
                .join(" ")
        );
        return ExitCode::from(3);
    }
    let run = match cmd.as_str() {
        "validate" => run_pipeline(&args, false),
        "report" => run_pipeline(&args, true),
        "repro" => run_repro(&args),
        "collect" => run_collect(&args),
        "serve" => run_serve(&args),
        "power" => run_power(&args),
        "ablate" => run_ablate(&args),
        "suitability" => run_suitability(&args),
        "improve" => run_improve(&args),
        "stats" => run_stats(&args),
        "profile" => run_profile(&args),
        "perf" => args
            .percent("tolerance", 20.0)
            .map(|tolerance| run_perf(&args, tolerance)),
        _ => Ok(usage()),
    };
    // Usage errors — a malformed flag value, a missing argument — exit 2.
    run.unwrap_or_else(|e| {
        eprintln!("{e}");
        ExitCode::from(2)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strs(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn args_parse_flags_and_positionals() {
        let a = Args::parse(&strs(&["mi-sha", "--scale", "0.5", "--model", "old"]), &[]).unwrap();
        assert_eq!(a.positional, vec!["mi-sha"]);
        assert_eq!(a.scale(), Ok(0.5));
        assert_eq!(a.get("model"), Some("old"));
        assert_eq!(a.get("missing"), None);
    }

    #[test]
    fn args_default_scale_and_errors() {
        let a = Args::parse(&strs(&[]), &[]).unwrap();
        assert_eq!(a.scale(), Ok(1.0));
        assert!(Args::parse(&strs(&["--scale"]), &[]).is_err());
        let a = Args::parse(&strs(&["--scale", "10"]), &[]).unwrap();
        assert_eq!(a.scale(), Ok(10.0));
        // Garbage, non-finite, non-positive and over-range scales are usage
        // errors naming the flag, not a silent default or a panic.
        for bad in ["not-a-number", "abc", "inf", "nan", "-1", "0", "10.5", ""] {
            let a = Args::parse(&strs(&["--scale", bad]), &[]).unwrap();
            let e = a.scale().unwrap_err();
            assert!(e.contains("--scale") && e.contains("(0, 10]"), "{bad}: {e}");
        }
        // The other numeric flags go through the same reader.
        let a = Args::parse(
            &strs(&["--clusters", "x", "--min-coverage", "1.5", "--freq", "-2"]),
            &[],
        )
        .unwrap();
        assert!(a.number("clusters", 16_usize, "k", |_| true).is_err());
        assert!(a.min_coverage(1.0).unwrap_err().contains("--min-coverage"));
        assert!(a.number("freq", 1.0, "f", |f: &f64| *f > 0.0).is_err());
        let a = Args::parse(&strs(&["--target-mape", "nan", "--retries", "-3"]), &[]).unwrap();
        assert!(a.percent("target-mape", 10.0).is_err());
        assert!(a.number("retries", 4_u32, "n", |_| true).is_err());
        assert_eq!(a.percent("max-mape", 20.0), Ok(20.0));
    }

    #[test]
    fn bool_flags_take_no_value() {
        // `--resume` consumes nothing: the path after it stays positional /
        // the next flag still parses.
        let a = Args::parse(
            &strs(&["--checkpoint", "ck.json", "--resume", "--scale", "0.1"]),
            &["resume"],
        )
        .unwrap();
        assert!(a.has("resume"));
        assert_eq!(a.get("checkpoint"), Some("ck.json"));
        assert_eq!(a.scale(), Ok(0.1));
        // Without the bool-flag declaration, `--resume` would eat `--scale`.
        let a = Args::parse(&strs(&["--resume", "--scale", "0.1"]), &[]).unwrap();
        assert_eq!(a.get("resume"), Some("--scale"));
        // Trailing bool flag needs no value either.
        let a = Args::parse(&strs(&["--resume"]), &["resume"]).unwrap();
        assert!(a.has("resume"));
        assert!(!a.has("checkpoint"));
    }

    #[test]
    fn unknown_flags_are_detected() {
        let a = Args::parse(&strs(&["--scale", "0.5", "--bogus", "x"]), &[]).unwrap();
        assert_eq!(a.unknown_flag(&["scale", "model"]), Some("bogus"));
        let a = Args::parse(&strs(&["--scale", "0.5"]), &[]).unwrap();
        assert_eq!(a.unknown_flag(&["scale", "model"]), None);
        // The removed `--segments` flag is unknown to every subcommand
        // (exit 3 in main).
        let a = Args::parse(&strs(&["--segments", "2"]), &[]).unwrap();
        for cmd in ["validate", "report", "collect", "profile", "repro", "stats"] {
            let allowed = allowed_flags(cmd).expect("known subcommand");
            assert_eq!(a.unknown_flag(allowed), Some("segments"), "{cmd}");
        }
        assert_eq!(allowed_flags("bogus"), None);
    }

    #[test]
    fn workload_resolution_is_exact_then_fuzzy() {
        // Exact names pass straight through.
        assert_eq!(resolve_workload("mi-sha").unwrap().name, "mi-sha");
        // A unique substring resolves (CI smoke relies on `dhrystone`).
        assert_eq!(
            resolve_workload("dhrystone").unwrap().name,
            "dhry-dhrystone"
        );
        // Unknown and ambiguous names fail with distinct messages.
        assert!(resolve_workload("no-such-workload")
            .unwrap_err()
            .contains("unknown"));
        assert!(resolve_workload("mi-").unwrap_err().contains("ambiguous"));
    }

    #[test]
    fn fidelity_flag_parses_and_rejects_garbage() {
        let a = Args::parse(&strs(&["--fidelity", "atomic"]), &[]).unwrap();
        assert_eq!(parse_fidelity(&a).unwrap().fidelity, Fidelity::Atomic);
        let a = Args::parse(&strs(&["--fidelity", "SAMPLED"]), &[]).unwrap();
        assert_eq!(parse_fidelity(&a).unwrap().fidelity, Fidelity::Sampled);
        let a = Args::parse(&strs(&["--fidelity", "turbo"]), &[]).unwrap();
        assert!(parse_fidelity(&a).unwrap_err().contains("--fidelity"));
        // The same form as every other flag's usage error.
        assert_eq!(
            parse_fidelity(&a).unwrap_err(),
            "invalid --fidelity value 'turbo': expected one of atomic, approx, sampled"
        );
        // No flag is the approx tier.
        let a = Args::parse(&strs(&[]), &[]).unwrap();
        assert_eq!(parse_fidelity(&a).unwrap(), TierConfig::default());
    }

    /// `stats` and `profile` check every flag before they look the
    /// workload up, and an unknown workload is a usage error (exit 2).
    fn flags_then_workload(run: fn(&Args) -> Result<ExitCode, String>) {
        let args = |raw: &[&str]| Args::parse(&strs(raw), &[]).unwrap();
        for (raw, want) in [
            (
                &["no-such-workload", "--model", "bogus"][..],
                "invalid --model value 'bogus'",
            ),
            (
                &["no-such-workload", "--fidelity", "turbo"],
                "invalid --fidelity value 'turbo'",
            ),
            (
                &["no-such-workload", "--scale", "0"],
                "invalid --scale value '0'",
            ),
            (&["no-such-workload"], "unknown workload 'no-such-workload'"),
            (&["mi-"], "ambiguous workload 'mi-'"),
        ] {
            let e = run(&args(raw)).unwrap_err();
            assert!(e.starts_with(want), "{raw:?}: {e}");
        }
    }

    #[test]
    fn stats_checks_flags_then_rejects_an_unknown_workload() {
        flags_then_workload(run_stats);
    }

    #[test]
    fn profile_checks_flags_then_rejects_an_unknown_workload() {
        flags_then_workload(run_profile);
        let e = run_profile(&Args::parse(&strs(&["x", "--freq", "-1"]), &[]).unwrap());
        assert!(e.unwrap_err().starts_with("invalid --freq value '-1'"));
    }

    #[test]
    fn model_flag_parses_and_rejects_garbage() {
        let model = |raw: &[&str]| parse_model(&Args::parse(&strs(raw), &[]).unwrap());
        assert_eq!(model(&[]).unwrap(), Gem5Model::Ex5BigOld);
        assert_eq!(model(&["--model", "old"]).unwrap(), Gem5Model::Ex5BigOld);
        assert_eq!(
            model(&["--model", "fixed"]).unwrap(),
            Gem5Model::Ex5BigFixed
        );
        assert_eq!(model(&["--model", "little"]).unwrap(), Gem5Model::Ex5Little);
        assert_eq!(
            model(&["--model", "bogus"]).unwrap_err(),
            "invalid --model value 'bogus': expected one of old, fixed, little"
        );
    }

    #[test]
    fn cluster_flag_parses_and_rejects_garbage() {
        let cluster = |raw: &[&str]| parse_cluster(&Args::parse(&strs(raw), &[]).unwrap());
        assert_eq!(cluster(&[]).unwrap(), Cluster::BigA15);
        assert_eq!(cluster(&["--cluster", "a7"]).unwrap(), Cluster::LittleA7);
        assert_eq!(cluster(&["--cluster", "a15"]).unwrap(), Cluster::BigA15);
        assert_eq!(
            cluster(&["--cluster", "a8"]).unwrap_err(),
            "invalid --cluster value 'a8': expected one of a7, a15"
        );
    }

    #[test]
    fn obs_outputs_from_flags() {
        let a = Args::parse(&strs(&["--metrics", "/tmp/m.prom"]), &[]).unwrap();
        let o = ObsOutputs::from_args(&a);
        assert!(o.any());
        assert_eq!(o.metrics.as_deref(), Some("/tmp/m.prom"));
        assert_eq!(o.trace, None);
        let o = ObsOutputs::from_args(&Args::parse(&strs(&[]), &[]).unwrap());
        assert!(!o.any());
        // --flight-record alone also turns the obs layer on.
        let a = Args::parse(&strs(&["--flight-record", "/tmp/f.jsonl"]), &[]).unwrap();
        let o = ObsOutputs::from_args(&a);
        assert!(o.any());
        assert_eq!(o.flight.as_deref(), Some("/tmp/f.jsonl"));
    }

    #[test]
    fn perf_input_detection_is_by_shape() {
        let dir = std::env::temp_dir();
        let bench = dir.join("gemstone-cli-perf-bench.json");
        let journal = dir.join("gemstone-cli-perf-journal.jsonl");
        std::fs::write(
            &bench,
            "[\n  {\"bench\": \"b\", \"config\": \"c\", \"wall_s\": 1.0, \"speedup\": 2.0}\n]\n",
        )
        .unwrap();
        std::fs::write(
            &journal,
            "{\"type\": \"span\", \"name\": \"engine.run\", \"id\": 1, \"parent\": 0, \
             \"tid\": 1, \"start_us\": 0, \"dur_us\": 10, \"depth\": 0, \"attrs\": {}}\n",
        )
        .unwrap();
        match load_perf_input(bench.to_str().unwrap()).unwrap() {
            PerfInput::Bench(recs) => assert_eq!(recs[0].bench, "b"),
            PerfInput::Journal(_) => panic!("bench JSON misdetected as journal"),
        }
        match load_perf_input(journal.to_str().unwrap()).unwrap() {
            PerfInput::Journal(j) => assert_eq!(j.events.len(), 1),
            PerfInput::Bench(_) => panic!("journal misdetected as bench JSON"),
        }
        assert!(load_perf_input("/no/such/gemstone-journal.jsonl").is_err());
        std::fs::remove_file(bench).ok();
        std::fs::remove_file(journal).ok();
    }
}
