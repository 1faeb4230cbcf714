//! The bench harness: the benches under `benches/` are plain `main`s
//! (`cargo bench -p gemstone-bench --bench <name>`). Each times its passes
//! with [`timed`] and writes `BENCH_<name>.json` with
//! [`write_bench_json`]. The paper's tables and figures are regenerated by
//! `gemstone repro --out DIR` (see `gemstone_core::repro`); per-layer host
//! times are measured by `crates/benchmark`.

/// Runs `f` once, returning its result and its wall-clock seconds. Every
/// bench under `benches/` times its passes through this.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = std::time::Instant::now();
    let out = std::hint::black_box(f());
    (out, t0.elapsed().as_secs_f64())
}

/// One machine-readable measurement from a benchmark's timed pass.
#[derive(Debug, Clone)]
pub struct BenchRecord {
    /// Benchmark family, e.g. `"gridsweep"`.
    pub bench: String,
    /// Configuration label, e.g. `"threads=4"` or `"a15/approx"`.
    pub config: String,
    /// Wall-clock seconds of the measured pass.
    pub wall_s: f64,
    /// Speedup over that benchmark's baseline pass.
    pub speedup: f64,
}

impl BenchRecord {
    /// Builds a record (convenience for the bench binaries).
    pub fn new(bench: &str, config: String, wall_s: f64, speedup: f64) -> Self {
        BenchRecord {
            bench: bench.to_string(),
            config,
            wall_s,
            speedup,
        }
    }
}

/// Writes benchmark records as a JSON array to `path` (one
/// `BENCH_<name>.json` artefact per bench family; CI uploads them).
/// Labels go through the workspace's JSON string writer; numbers keep the
/// fixed `{:.6}` / `{:.3}` format the committed baselines use.
pub fn write_bench_json(path: &str, records: &[BenchRecord]) -> std::io::Result<()> {
    use gemstone_obs::json::push_str_lit;
    let mut out = String::from("[\n");
    for (i, r) in records.iter().enumerate() {
        out.push_str("  {\"bench\": ");
        push_str_lit(&mut out, &r.bench);
        out.push_str(", \"config\": ");
        push_str_lit(&mut out, &r.config);
        let sep = if i + 1 == records.len() { "" } else { "," };
        out.push_str(&format!(
            ", \"wall_s\": {:.6}, \"speedup\": {:.3}}}{sep}\n",
            r.wall_s, r.speedup,
        ));
    }
    out.push_str("]\n");
    std::fs::write(path, out)?;
    println!("wrote {} record(s) to {path}", records.len());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timed_returns_the_result_and_a_duration() {
        let (out, wall_s) = timed(|| {
            std::thread::sleep(std::time::Duration::from_millis(2));
            7
        });
        assert_eq!(out, 7);
        assert!(wall_s >= 0.002, "{wall_s}");
    }

    #[test]
    fn bench_json_has_one_object_per_record() {
        let file = std::env::temp_dir().join("gemstone-bench-json-test.json");
        let path = file.to_str().unwrap();
        let recs = vec![
            BenchRecord::new("trace", "threads=2".to_string(), 1.25, 1.9),
            BenchRecord::new("trace", "threads=4".to_string(), 0.75, 3.2),
            BenchRecord::new("grid", "a15/\"approx\"\\x".to_string(), 0.5, 1.0),
        ];
        write_bench_json(path, &recs).unwrap();
        let text = std::fs::read_to_string(path).unwrap();
        assert!(text.trim_start().starts_with('['));
        assert!(text.trim_end().ends_with(']'));
        assert_eq!(text.matches("\"bench\": \"trace\"").count(), 2);
        assert!(text.contains("\"config\": \"threads=4\""));
        assert!(text.contains("\"speedup\": 3.200"));
        // Labels are escaped, not rewritten: they read back unchanged.
        let back = gemstone_obs::profile::parse_bench_json(&text).unwrap();
        assert_eq!(back[2].config, recs[2].config);
        std::fs::remove_file(file).ok();
    }
}
