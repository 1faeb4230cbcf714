//! Aggregated self-profiles from the span log: rebuilds the span tree
//! from parent links, attributes inclusive/self time per logical path,
//! walks the critical path, and re-ingests JSONL journals so two runs
//! can be diffed — the engine behind `gemstone perf`.
//!
//! The span log is flat (completion-ordered [`SpanEvent`]s); structure
//! comes from the `parent` ids recorded when each span opened, which
//! survive thread hand-offs (see [`crate::span::span_with_parent`]). A
//! span whose parent never reached the log (still open, or the log was
//! cleared) is promoted to a root rather than dropped.
//!
//! Self time is inclusive time minus the inclusive time of children.
//! Children that ran *concurrently* (sweep workers) can sum
//! to more than their parent's wall clock; self time clamps at zero in
//! that case — the parent genuinely had no exclusive time.
//!
//! # Examples
//!
//! ```
//! use gemstone_obs as obs;
//!
//! obs::set_enabled(true);
//! obs::span::SpanLog::global().clear();
//! {
//!     let _sweep = obs::span::span("doc.sweep");
//!     let _wl = obs::span::span("doc.workload").attr("workload", "fft");
//! }
//! let events = obs::span::SpanLog::global().snapshot();
//! let tree = obs::profile::SpanTree::build(&events);
//! let agg = tree.aggregate();
//! assert!(agg.iter().any(|a| a.path == "doc.sweep/doc.workload"));
//! obs::set_enabled(false);
//! ```

use crate::json::Value;
use crate::span::SpanEvent;
use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

/// One node of a rebuilt span tree (indices into [`SpanTree::nodes`]).
#[derive(Debug)]
pub struct SpanNode {
    /// The completed span.
    pub event: SpanEvent,
    /// Child node indices, ordered by start time.
    pub children: Vec<usize>,
    /// Exclusive time: inclusive minus children, clamped at zero.
    pub self_us: u64,
}

/// A span tree rebuilt from parent links.
#[derive(Debug, Default)]
pub struct SpanTree {
    /// Every node; tree edges are indices.
    pub nodes: Vec<SpanNode>,
    /// Indices of root nodes (parent 0 or unknown), ordered by start.
    pub roots: Vec<usize>,
}

/// Aggregated timing for one logical path (root→span names joined with
/// `/`), summed over every occurrence.
#[derive(Debug, Clone)]
pub struct PathStats {
    /// `/`-joined span names from the root.
    pub path: String,
    /// The leaf span name.
    pub name: String,
    /// Nesting depth in the logical tree (0 = root).
    pub depth: usize,
    /// Number of spans aggregated into this path.
    pub count: u64,
    /// Total inclusive time.
    pub incl_us: u64,
    /// Total exclusive (self) time.
    pub self_us: u64,
}

impl SpanTree {
    /// Rebuilds the tree from a flat event log.
    pub fn build(events: &[SpanEvent]) -> SpanTree {
        let index: BTreeMap<u64, usize> =
            events.iter().enumerate().map(|(i, e)| (e.id, i)).collect();
        let mut nodes: Vec<SpanNode> = events
            .iter()
            .map(|e| SpanNode {
                event: e.clone(),
                children: Vec::new(),
                self_us: e.dur_us,
            })
            .collect();
        let mut roots = Vec::new();
        for (i, e) in events.iter().enumerate() {
            match index.get(&e.parent) {
                Some(&p) if e.parent != 0 && p != i => {
                    nodes[p].children.push(i);
                    nodes[p].self_us = nodes[p].self_us.saturating_sub(e.dur_us);
                }
                _ => roots.push(i),
            }
        }
        let by_start = |nodes: &[SpanNode], ids: &mut Vec<usize>| {
            ids.sort_by_key(|&i| (nodes[i].event.start_us, nodes[i].event.id));
        };
        by_start(&nodes, &mut roots);
        for i in 0..nodes.len() {
            let mut children = std::mem::take(&mut nodes[i].children);
            by_start(&nodes, &mut children);
            nodes[i].children = children;
        }
        SpanTree { nodes, roots }
    }

    /// Aggregates inclusive/self time per logical path, depth-first.
    pub fn aggregate(&self) -> Vec<PathStats> {
        let mut order: Vec<String> = Vec::new();
        let mut stats: BTreeMap<String, PathStats> = BTreeMap::new();
        let mut stack: Vec<(usize, String, usize)> = self
            .roots
            .iter()
            .rev()
            .map(|&i| (i, String::new(), 0))
            .collect();
        while let Some((i, prefix, depth)) = stack.pop() {
            let node = &self.nodes[i];
            let path = if prefix.is_empty() {
                node.event.name.to_string()
            } else {
                format!("{prefix}/{}", node.event.name)
            };
            let entry = stats.entry(path.clone()).or_insert_with(|| {
                order.push(path.clone());
                PathStats {
                    path: path.clone(),
                    name: node.event.name.to_string(),
                    depth,
                    count: 0,
                    incl_us: 0,
                    self_us: 0,
                }
            });
            entry.count += 1;
            entry.incl_us += node.event.dur_us;
            entry.self_us += node.self_us;
            for &c in node.children.iter().rev() {
                stack.push((c, path.clone(), depth + 1));
            }
        }
        order
            .into_iter()
            .map(|p| stats.remove(&p).unwrap())
            .collect()
    }

    /// The critical path: from the longest root, repeatedly descend into
    /// the child with the largest inclusive time. Returns node indices.
    pub fn critical_path(&self) -> Vec<usize> {
        let mut path = Vec::new();
        let Some(&root) = self
            .roots
            .iter()
            .max_by_key(|&&i| self.nodes[i].event.dur_us)
        else {
            return path;
        };
        let mut cur = root;
        loop {
            path.push(cur);
            match self.nodes[cur]
                .children
                .iter()
                .max_by_key(|&&c| self.nodes[c].event.dur_us)
            {
                Some(&next) => cur = next,
                None => return path,
            }
        }
    }

    /// The set of logical name paths, with spans named in `transparent`
    /// skipped (their children re-attach to the nearest kept ancestor).
    /// Worker multiplicity collapses — the *shape* of two runs of the
    /// same work compares equal even when worker counts differ.
    pub fn name_paths(&self, transparent: &[&str]) -> BTreeSet<String> {
        let mut out = BTreeSet::new();
        let mut stack: Vec<(usize, String)> =
            self.roots.iter().map(|&i| (i, String::new())).collect();
        while let Some((i, prefix)) = stack.pop() {
            let node = &self.nodes[i];
            let name = node.event.name.as_ref();
            let path = if transparent.contains(&name) {
                prefix
            } else {
                let path = if prefix.is_empty() {
                    name.to_string()
                } else {
                    format!("{prefix}/{name}")
                };
                out.insert(path.clone());
                path
            };
            for &c in &node.children {
                stack.push((c, path.clone()));
            }
        }
        out
    }

    /// Wall-clock covered by the log: latest end minus earliest start.
    pub fn wall_us(&self) -> u64 {
        let start = self.nodes.iter().map(|n| n.event.start_us).min();
        let end = self
            .nodes
            .iter()
            .map(|n| n.event.start_us + n.event.dur_us)
            .max();
        match (start, end) {
            (Some(s), Some(e)) => e.saturating_sub(s),
            _ => 0,
        }
    }
}

/// A re-ingested JSONL journal: spans plus the metric samples that were
/// exported with them.
#[derive(Debug, Default)]
pub struct Journal {
    /// Completed spans, in file order.
    pub events: Vec<SpanEvent>,
    /// Counter samples by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge samples by name.
    pub gauges: BTreeMap<String, f64>,
    /// Histogram summaries by name: (count, sum, p50, p95, p99).
    pub histograms: BTreeMap<String, (u64, f64, f64, f64, f64)>,
}

impl Journal {
    /// Parses a JSONL journal produced by [`crate::export::jsonl`] (or a
    /// flight-recorder dump; unknown record types are skipped). Fails on
    /// lines that are not valid JSON objects.
    pub fn parse(text: &str) -> Result<Journal, String> {
        let mut journal = Journal::default();
        for (lineno, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let v = Value::parse(line).map_err(|e| format!("line {}: {e}", lineno + 1))?;
            let kind = v.get("type").and_then(Value::as_str).unwrap_or("");
            let name = v
                .get("name")
                .and_then(Value::as_str)
                .unwrap_or("")
                .to_string();
            let num = |key: &str| v.get(key).and_then(Value::as_u64).unwrap_or(0);
            match kind {
                "span" => {
                    let attrs = v
                        .get("attrs")
                        .and_then(Value::as_object)
                        .map(|members| {
                            members
                                .iter()
                                .filter_map(|(k, val)| {
                                    val.as_str().map(|s| (Cow::Owned(k.clone()), s.to_string()))
                                })
                                .collect()
                        })
                        .unwrap_or_default();
                    journal.events.push(SpanEvent {
                        name: Cow::Owned(name),
                        id: num("id"),
                        parent: num("parent"),
                        tid: num("tid"),
                        start_us: num("start_us"),
                        dur_us: num("dur_us"),
                        depth: num("depth") as u32,
                        attrs,
                    });
                }
                "counter" => {
                    journal.counters.insert(name, num("value"));
                }
                "gauge" => {
                    let val = v.get("value").and_then(Value::as_f64).unwrap_or(0.0);
                    journal.gauges.insert(name, val);
                }
                "histogram" => {
                    let f = |key: &str| v.get(key).and_then(Value::as_f64).unwrap_or(f64::NAN);
                    journal
                        .histograms
                        .insert(name, (num("count"), f("sum"), f("p50"), f("p95"), f("p99")));
                }
                _ => {}
            }
        }
        Ok(journal)
    }
}

fn ms(us: u64) -> f64 {
    us as f64 / 1e3
}

/// Renders the human-readable profile report for `gemstone perf report`:
/// the aggregated span tree, the top spans by self time, per-tier and
/// per-stage breakdowns, throughput, and the critical path.
pub fn render_report(journal: &Journal) -> String {
    let tree = SpanTree::build(&journal.events);
    let agg = tree.aggregate();
    let wall_us = tree.wall_us();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "flight profile: {} spans over {:.3} s wall",
        journal.events.len(),
        wall_us as f64 / 1e6
    );

    let _ = writeln!(out, "\n== span tree (inclusive / self, count) ==");
    for row in &agg {
        let _ = writeln!(
            out,
            "{:<58} {:>12.3} ms {:>12.3} ms {:>7}x",
            format!("{}{}", "  ".repeat(row.depth), row.name),
            ms(row.incl_us),
            ms(row.self_us),
            row.count
        );
    }

    let _ = writeln!(out, "\n== top spans by self time ==");
    let mut by_self: Vec<&PathStats> = agg.iter().collect();
    by_self.sort_by(|a, b| b.self_us.cmp(&a.self_us).then(a.path.cmp(&b.path)));
    for row in by_self.iter().take(10) {
        let _ = writeln!(
            out,
            "{:<58} {:>12.3} ms {:>7}x",
            row.path,
            ms(row.self_us),
            row.count
        );
    }

    // Tier/stage breakdown: aggregate by leaf span name over the tier
    // spans (engine.run*) and pipeline stages (stage.*).
    let mut groups: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
    for row in &agg {
        if row.name.starts_with("engine.run") || row.name.starts_with("stage.") {
            let g = groups.entry(row.name.as_str()).or_default();
            g.0 += row.incl_us;
            g.1 += row.count;
        }
    }
    if !groups.is_empty() {
        let _ = writeln!(out, "\n== per-tier / per-stage inclusive time ==");
        for (name, (incl, count)) in groups {
            let _ = writeln!(out, "{:<58} {:>12.3} ms {:>7}x", name, ms(incl), count);
        }
    }

    if let Some(&instructions) = journal.counters.get("engine.instructions") {
        let mips = if wall_us > 0 {
            instructions as f64 / wall_us as f64
        } else {
            0.0
        };
        let _ = writeln!(
            out,
            "\n== throughput ==\n{instructions} instructions committed, {mips:.1} MIPS aggregate"
        );
    }

    let critical = tree.critical_path();
    if !critical.is_empty() {
        let _ = writeln!(out, "\n== critical path ==");
        let names: Vec<String> = critical
            .iter()
            .map(|&i| {
                let e = &tree.nodes[i].event;
                let attrs: Vec<String> = e.attrs.iter().map(|(k, v)| format!("{k}={v}")).collect();
                if attrs.is_empty() {
                    format!("{} ({:.3} ms)", e.name, ms(e.dur_us))
                } else {
                    format!("{} [{}] ({:.3} ms)", e.name, attrs.join(","), ms(e.dur_us))
                }
            })
            .collect();
        let _ = writeln!(out, "{}", names.join("\n  -> "));
    }
    out
}

/// One machine-readable bench record (mirrors
/// `gemstone_bench::BenchRecord`, re-parsed from `BENCH_*.json`).
#[derive(Debug, Clone, PartialEq)]
pub struct BenchRec {
    /// Bench name (`trace_replay`, `grid_sweep`, …).
    pub bench: String,
    /// Configuration within the bench (`a15/approx`, `4w`, …).
    pub config: String,
    /// Wall-clock seconds of the measured pass.
    pub wall_s: f64,
    /// Speedup over the bench's own baseline (machine-robust ratio).
    pub speedup: f64,
}

/// Parses a `BENCH_*.json` array written by
/// `gemstone_bench::write_bench_json`.
pub fn parse_bench_json(text: &str) -> Result<Vec<BenchRec>, String> {
    let v = Value::parse(text)?;
    let items = v.as_array().ok_or("expected a top-level JSON array")?;
    items
        .iter()
        .enumerate()
        .map(|(i, rec)| {
            let read = || -> Result<BenchRec, String> {
                Ok(BenchRec {
                    bench: rec.str_field("bench")?.to_string(),
                    config: rec.str_field("config")?.to_string(),
                    wall_s: rec.f64_field("wall_s")?,
                    speedup: rec.f64_field("speedup")?,
                })
            };
            read().map_err(|e| format!("record {i}: {e}"))
        })
        .collect()
}

/// One compared metric in a [`DiffReport`].
#[derive(Debug, Clone)]
pub struct DiffLine {
    /// What was compared (bench/config, span path, counter name).
    pub name: String,
    /// Baseline value.
    pub before: f64,
    /// Candidate value.
    pub after: f64,
    /// Signed relative change in percent ((after-before)/before).
    pub delta_pct: f64,
    /// Whether the change exceeds tolerance in the *bad* direction.
    pub regression: bool,
}

/// The result of diffing two bench-record sets or journals.
#[derive(Debug, Default)]
pub struct DiffReport {
    /// Per-metric comparisons, worst regression first.
    pub lines: Vec<DiffLine>,
    /// Metrics present on only one side (matched by name).
    pub unmatched: Vec<String>,
}

impl DiffReport {
    /// Number of lines flagged as regressions.
    pub fn regressions(&self) -> usize {
        self.lines.iter().filter(|l| l.regression).count()
    }

    /// Renders the comparison table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<52} {:>12} {:>12} {:>9}",
            "metric", "before", "after", "delta"
        );
        for line in &self.lines {
            let _ = writeln!(
                out,
                "{:<52} {:>12.4} {:>12.4} {:>+8.1}%{}",
                line.name,
                line.before,
                line.after,
                line.delta_pct,
                if line.regression { "  REGRESSION" } else { "" }
            );
        }
        for name in &self.unmatched {
            let _ = writeln!(out, "{name:<52} (present on one side only)");
        }
        out
    }
}

fn push_diff(
    report: &mut DiffReport,
    name: String,
    before: f64,
    after: f64,
    tolerance_pct: f64,
    higher_is_better: bool,
) {
    if !before.is_finite() || !after.is_finite() || before == 0.0 {
        return;
    }
    let delta_pct = (after - before) / before * 100.0;
    let bad = if higher_is_better {
        -delta_pct
    } else {
        delta_pct
    };
    report.lines.push(DiffLine {
        name,
        before,
        after,
        delta_pct,
        regression: bad > tolerance_pct,
    });
}

fn sort_worst_first(report: &mut DiffReport) {
    report.lines.sort_by(|a, b| {
        b.regression
            .cmp(&a.regression)
            .then(b.delta_pct.abs().total_cmp(&a.delta_pct.abs()))
            .then(a.name.cmp(&b.name))
    });
}

/// Diffs two bench-record sets, matched by `(bench, config)`. The
/// compared metric is `speedup` — a within-machine ratio, so committed
/// baselines stay meaningful across runner hardware; a drop of more
/// than `tolerance_pct` percent is a regression.
pub fn diff_bench(before: &[BenchRec], after: &[BenchRec], tolerance_pct: f64) -> DiffReport {
    let mut report = DiffReport::default();
    let key = |r: &BenchRec| format!("{}/{}", r.bench, r.config);
    let after_map: BTreeMap<String, &BenchRec> = after.iter().map(|r| (key(r), r)).collect();
    let mut matched = BTreeSet::new();
    for b in before {
        let k = key(b);
        match after_map.get(&k) {
            Some(a) => {
                matched.insert(k.clone());
                push_diff(&mut report, k, b.speedup, a.speedup, tolerance_pct, true);
            }
            None => report.unmatched.push(format!("{k} (baseline only)")),
        }
    }
    for (k, _) in after_map {
        if !matched.contains(&k) {
            report.unmatched.push(format!("{k} (candidate only)"));
        }
    }
    sort_worst_first(&mut report);
    report
}

/// Diffs two journals: aggregate MIPS (higher is better) plus total
/// inclusive time per span name (lower is better). Span paths present on
/// only one side are reported but not failed — tree shape can legally
/// change between versions.
pub fn diff_journals(before: &Journal, after: &Journal, tolerance_pct: f64) -> DiffReport {
    let mut report = DiffReport::default();
    let totals = |j: &Journal| -> BTreeMap<String, u64> {
        let mut m: BTreeMap<String, u64> = BTreeMap::new();
        for e in &j.events {
            *m.entry(e.name.to_string()).or_default() += e.dur_us;
        }
        m
    };
    let (tb, ta) = (totals(before), totals(after));
    for (name, &b_us) in &tb {
        match ta.get(name) {
            Some(&a_us) => push_diff(
                &mut report,
                format!("span:{name} (ms)"),
                ms(b_us),
                ms(a_us),
                tolerance_pct,
                false,
            ),
            None => report
                .unmatched
                .push(format!("span:{name} (baseline only)")),
        }
    }
    for name in ta.keys() {
        if !tb.contains_key(name) {
            report
                .unmatched
                .push(format!("span:{name} (candidate only)"));
        }
    }
    let mips = |j: &Journal| -> Option<f64> {
        let instr = *j.counters.get("engine.instructions")? as f64;
        let wall = SpanTree::build(&j.events).wall_us();
        (wall > 0).then(|| instr / wall as f64)
    };
    if let (Some(b), Some(a)) = (mips(before), mips(after)) {
        push_diff(&mut report, "mips".to_string(), b, a, tolerance_pct, true);
    }
    sort_worst_first(&mut report);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(name: &str, id: u64, parent: u64, start: u64, dur: u64) -> SpanEvent {
        SpanEvent {
            name: Cow::Owned(name.to_string()),
            id,
            parent,
            tid: 1,
            start_us: start,
            dur_us: dur,
            depth: 0,
            attrs: Vec::new(),
        }
    }

    #[test]
    fn tree_attributes_cross_thread_children() {
        // sweep(1000) -> workload(900) -> {worker(400), worker(450)}
        let events = vec![
            ev("worker", 3, 2, 150, 400),
            ev("worker", 4, 2, 150, 450),
            ev("workload", 2, 1, 100, 900),
            ev("sweep", 1, 0, 0, 1000),
        ];
        let tree = SpanTree::build(&events);
        assert_eq!(tree.roots.len(), 1);
        let agg = tree.aggregate();
        let paths: Vec<&str> = agg.iter().map(|a| a.path.as_str()).collect();
        assert_eq!(
            paths,
            vec!["sweep", "sweep/workload", "sweep/workload/worker"]
        );
        let worker = &agg[2];
        assert_eq!(worker.count, 2);
        assert_eq!(worker.incl_us, 850);
        let workload = &agg[1];
        assert_eq!(workload.self_us, 50, "900 - 850 concurrent child time");
        // Critical path descends into the longer worker.
        let critical = tree.critical_path();
        let names: Vec<&str> = critical
            .iter()
            .map(|&i| tree.nodes[i].event.name.as_ref())
            .collect();
        assert_eq!(names, vec!["sweep", "workload", "worker"]);
        assert_eq!(tree.nodes[critical[2]].event.dur_us, 450);
        assert_eq!(tree.wall_us(), 1000);
    }

    #[test]
    fn concurrent_children_clamp_self_time() {
        let events = vec![
            ev("p", 1, 0, 0, 100),
            ev("a", 2, 1, 0, 80),
            ev("b", 3, 1, 0, 80),
        ];
        let tree = SpanTree::build(&events);
        let agg = tree.aggregate();
        assert_eq!(agg.iter().find(|a| a.name == "p").unwrap().self_us, 0);
    }

    #[test]
    fn orphans_become_roots() {
        let events = vec![ev("lost", 5, 999, 0, 10)];
        let tree = SpanTree::build(&events);
        assert_eq!(tree.roots, vec![0]);
    }

    #[test]
    fn name_paths_collapse_transparent_spans() {
        let direct = vec![ev("run", 1, 0, 0, 100), ev("tier", 2, 1, 0, 90)];
        let fanned = vec![
            ev("run", 1, 0, 0, 100),
            ev("seg", 2, 1, 0, 95),
            ev("worker", 3, 2, 0, 40),
            ev("tier", 4, 3, 0, 35),
            ev("worker", 5, 2, 40, 40),
            ev("tier", 6, 5, 40, 35),
        ];
        let a = SpanTree::build(&direct).name_paths(&[]);
        let b = SpanTree::build(&fanned).name_paths(&["seg", "worker"]);
        assert_eq!(a, b);
    }

    #[test]
    fn journal_round_trip() {
        let r = crate::Registry::new();
        r.counter("engine.instructions").add(2_000_000);
        r.gauge("sweep.queue.depth").set(3.0);
        r.histogram("sim.latency.seconds", &[0.001, 0.01])
            .observe(0.005);
        let events = vec![
            ev("engine.run", 7, 0, 0, 1_000_000),
            SpanEvent {
                attrs: vec![(Cow::Borrowed("workload"), "fft".to_string())],
                ..ev("engine.run.grid", 8, 7, 10, 900_000)
            },
        ];
        let text = crate::export::jsonl(&r, &events);
        let journal = Journal::parse(&text).unwrap();
        assert_eq!(journal.events.len(), 2);
        assert_eq!(journal.events[1].parent, 7);
        assert_eq!(journal.events[1].attrs[0].1, "fft");
        assert_eq!(journal.counters["engine.instructions"], 2_000_000);
        assert!((journal.gauges["sweep.queue.depth"] - 3.0).abs() < 1e-12);
        let (count, _sum, p50, _, _) = journal.histograms["sim.latency.seconds"];
        assert_eq!(count, 1);
        assert!(p50 > 0.0);
        let report = render_report(&journal);
        assert!(report.contains("engine.run"), "{report}");
        assert!(report.contains("MIPS"), "{report}");
        assert!(report.contains("critical path"), "{report}");
        assert!(report.contains("workload=fft"), "{report}");
    }

    #[test]
    fn bench_diff_flags_injected_regression() {
        let base = vec![
            BenchRec {
                bench: "trace_replay".into(),
                config: "4w".into(),
                wall_s: 1.0,
                speedup: 3.0,
            },
            BenchRec {
                bench: "grid_sweep".into(),
                config: "a15/approx".into(),
                wall_s: 0.5,
                speedup: 4.0,
            },
        ];
        let mut cand = base.clone();
        let report = diff_bench(&base, &cand, 20.0);
        assert_eq!(report.regressions(), 0);
        // An injected 30% speedup drop trips the 20% gate.
        cand[0].speedup = 2.0;
        let report = diff_bench(&base, &cand, 20.0);
        assert_eq!(report.regressions(), 1);
        assert!(report.render().contains("REGRESSION"));
        assert!(report.lines[0].name.contains("trace_replay/4w"));
        // ...but passes a loose enough tolerance.
        assert_eq!(diff_bench(&base, &cand, 50.0).regressions(), 0);
        // Unmatched configs are reported, not failed.
        cand.pop();
        let report = diff_bench(&base, &cand, 20.0);
        assert!(report.unmatched.iter().any(|u| u.contains("baseline only")));
    }

    #[test]
    fn journal_diff_flags_slowdown_and_mips_drop() {
        let mk = |dur: u64, instr: u64| {
            let mut j = Journal {
                events: vec![ev("engine.run", 1, 0, 0, dur)],
                ..Journal::default()
            };
            j.counters.insert("engine.instructions".into(), instr);
            j
        };
        let base = mk(1_000_000, 10_000_000);
        let same = mk(1_050_000, 10_000_000);
        assert_eq!(diff_journals(&base, &same, 20.0).regressions(), 0);
        let slow = mk(1_500_000, 10_000_000);
        let report = diff_journals(&base, &slow, 20.0);
        assert!(report.regressions() >= 2, "{}", report.render()); // span time + MIPS
    }

    #[test]
    fn bench_json_parses_writer_format() {
        let text = r#"[
  {"bench": "grid_sweep", "config": "a7/atomic", "wall_s": 0.012345, "speedup": 3.1}
]"#;
        let recs = parse_bench_json(text).unwrap();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].bench, "grid_sweep");
        assert!((recs[0].speedup - 3.1).abs() < 1e-12);
        assert!(parse_bench_json("{}").is_err());
    }
}
