//! One text renderer per analysis result.
//!
//! The combined report ([`crate::pipeline::GemStoneReport::render`]), the
//! per-experiment files of [`crate::repro`] and the `gemstone ablate`,
//! `improve` and `power` subcommands all format results through these
//! functions, so a number reads the same wherever it is printed. The
//! renderers of results the combined report shows take a [`View`]:
//! [`View::Report`] is the report's section, and [`View::Full`] appends the
//! experiment file's detail — the paper-vs-measured lines, breakdowns and
//! the paper's reading of the figure.

use crate::analysis::ablation::{Ablation, VariantQuality};
use crate::analysis::diagnose::Diagnosis;
use crate::analysis::error_regression::ErrorRegression;
use crate::analysis::event_compare::EventComparison;
use crate::analysis::gem5_corr::Gem5Correlations;
use crate::analysis::hca_workloads::WorkloadClusters;
use crate::analysis::improve;
use crate::analysis::improvement::Improvement;
use crate::analysis::microbench::MemoryLatency;
use crate::analysis::pmc_corr::PmcCorrelations;
use crate::analysis::power_energy::PowerEnergy;
use crate::analysis::scaling::Scaling;
use crate::analysis::summary::Summary;
use crate::collate::{time_errors, Collated};
use crate::report::{bar_chart, curve_chart, Table};
use gemstone_platform::gem5sim::Gem5Model;
use gemstone_powmon::fitting::FittedPowerModel;
use gemstone_powmon::model::ModelQuality;
use gemstone_uarch::pmu;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// How much of a result a renderer prints.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum View {
    /// The section of the combined validation report.
    Report,
    /// The report section plus the experiment file's detail.
    Full,
}

/// The paper's figure for every quantity a full view compares, by label.
const PAPER: [(&str, &str); 30] = [
    ("A15 ex5_big(old) @1 GHz MAPE/MPE", "59% / -51%"),
    ("A7 ex5_LITTLE @1 GHz MAPE/MPE", "20% / +8.5%"),
    ("both clusters, all DVFS MAPE/MPE", "40% / -21%"),
    ("PARSEC subset MAPE/MPE", "25.5% / -7.5%"),
    ("model DRAM latency vs HW (A15)", "too low"),
    ("model L2 latency vs HW (A7)", "too high"),
    ("statistics clearing the |r| threshold", "94"),
    ("HW-PMC regression R² (terms)", "0.97 (7 events)"),
    ("gem5-statistic regression R² (terms)", "0.99 (8 events)"),
    ("BP accuracy HW vs gem5", "96% vs 65%"),
    ("rad2deg BP accuracy HW vs gem5", "99.9% vs 0.86%"),
    ("Cortex-A15 restricted MAPE", "3.28%"),
    ("Cortex-A15 restricted SER", "0.049 W"),
    ("Cortex-A15 restricted adj. R²", "0.996"),
    ("Cortex-A7 restricted MAPE", "6.64%"),
    ("Cortex-A7 restricted SER", "0.014 W"),
    ("Cortex-A7 restricted adj. R²", "0.992"),
    ("mean VIF", "6"),
    ("max APE over observations", "14%"),
    ("unrestricted baseline MAPE", "4%"),
    ("published coefficients → retuned", "5.6% → 2.8%"),
    ("A15 power MPE / MAPE", "3.3% / 10%"),
    ("A15 energy MPE / MAPE", "-43.6% / 50.0%"),
    ("A15 speedup 1.8 GHz vs 600 MHz (HW)", "2.7x (2.1-3.2x)"),
    ("A15 speedup (model)", "2.9x (2.8-3.0x)"),
    (
        "A15 energy ratio 1.8 GHz vs 600 MHz (HW)",
        "1.8x (1.7-2.3x)",
    ),
    ("A15 energy ratio (model)", "1.7x (1.6-1.9x)"),
    ("old model time MAPE / MPE", "59% / -51%"),
    ("fixed model time MAPE / MPE", "18% / +10%"),
    ("energy MAPE old → fixed", "50% → 18%"),
];

/// Appends the paper-vs-measured line of the [`PAPER`] quantity `label`.
///
/// # Panics
///
/// Panics if `label` is not in [`PAPER`].
fn vs(out: &mut String, label: &str, measured: &str) {
    let (_, paper) = PAPER
        .iter()
        .find(|(l, _)| *l == label)
        .expect("a PAPER label");
    let _ = writeln!(out, "{label:<42} paper: {paper:<18} measured: {measured}");
}

/// `{mean}x ({min}-{max}x)` for a speedup or energy-ratio spread.
fn spread(s: &crate::analysis::scaling::SpeedupStats) -> String {
    format!("{:.1}x ({:.1}-{:.1}x)", s.mean, s.min, s.max)
}

/// E1/E12 (§IV): the execution-time error table. The full view adds the
/// paper's headline comparisons and the per-frequency MPE trend.
pub fn summary(s: &Summary, collated: &Collated, view: View) -> String {
    let mut t = Table::new(vec!["model", "freq", "subset", "n", "MAPE %", "MPE %"]);
    for r in &s.rows {
        t.row(vec![
            r.model.name().to_string(),
            r.freq_hz
                .map_or("all".to_string(), |f| format!("{:.0} MHz", f / 1e6)),
            r.subset.to_string(),
            r.n.to_string(),
            format!("{:.1}", r.mape),
            format!("{:+.1}", r.mpe),
        ]);
    }
    let mut out = format!("§IV — execution-time errors\n{}\n", t.render());
    if view == View::Report {
        return out;
    }
    let pair = |mape: f64, mpe: f64| format!("{mape:.0}% / {mpe:+.0}%");
    if let Some(r) = s.at(Gem5Model::Ex5BigOld, 1.0e9) {
        let m = pair(r.mape, r.mpe);
        vs(&mut out, "A15 ex5_big(old) @1 GHz MAPE/MPE", &m);
    }
    if let Some(r) = s.at(Gem5Model::Ex5Little, 1.0e9) {
        let m = pair(r.mape, r.mpe);
        vs(&mut out, "A7 ex5_LITTLE @1 GHz MAPE/MPE", &m);
    }
    // The paper's §IV claims pool both clusters: old big + LITTLE.
    let pooled = |parsec_only: bool| {
        let records = collated
            .records
            .iter()
            .filter(|r| matches!(r.model, Gem5Model::Ex5BigOld | Gem5Model::Ex5Little))
            .filter(|r| !parsec_only || r.workload.starts_with("parsec-"));
        time_errors(records).ok()
    };
    if let Some((a, p)) = pooled(false) {
        vs(&mut out, "both clusters, all DVFS MAPE/MPE", &pair(a, p));
    }
    if let Some((a, p)) = pooled(true) {
        let m = format!("{a:.1}% / {p:+.1}%");
        vs(&mut out, "PARSEC subset MAPE/MPE", &m);
    }
    out.push_str("\nPer-frequency MPE trend (ex5_big old):\n");
    for (f, m) in s.mpe_trend(Gem5Model::Ex5BigOld) {
        let _ = writeln!(out, "  {:>6.0} MHz  {m:+.1} %", f / 1e6);
    }
    out
}

/// E2 / Fig. 3: per-workload MPE ordered and labelled by HCA cluster. The
/// full view adds the cluster means and spreads.
pub fn workload_clusters(wc: &WorkloadClusters, view: View) -> String {
    let bars: Vec<(String, f64)> = wc
        .rows
        .iter()
        .map(|r| (format!("[{:>2}] {}", r.cluster_id, r.workload), r.mpe))
        .collect();
    let mut out = format!(
        "Fig. 3 — per-workload MPE by HCA cluster ({} clusters)\n{}\n",
        wc.k,
        bar_chart(&bars, 60)
    );
    if view == View::Report {
        return out;
    }
    let _ = writeln!(
        out,
        "{} workloads in {} clusters (paper: 45 workloads, ~16 clusters)\n\ncluster mean MPE:",
        wc.rows.len(),
        wc.k
    );
    for (c, m) in &wc.cluster_mpe {
        let _ = writeln!(
            out,
            "  cluster {c:>2}: {m:+.1} %  (members: {:?})",
            wc.members(*c)
        );
    }
    let _ = writeln!(
        out,
        "\nwithin-cluster MPE spread {:.1} vs overall {:.1} (same-cluster workloads have similar errors)",
        wc.within_cluster_spread(),
        wc.overall_spread()
    );
    if let Some(worst) = wc.rows.iter().min_by(|a, b| a.mpe.total_cmp(&b.mpe)) {
        let _ = writeln!(
            out,
            "most extreme workload: {} at {:+.0} % (paper: par-basicmath-rad2deg, -268 % at 1 GHz)",
            worst.workload, worst.mpe
        );
    }
    out
}

/// E3 / Fig. 4: `lat_mem_rd` latency curves, hardware vs model, both
/// clusters.
pub fn memory_latency(m: &MemoryLatency) -> String {
    let c = &m.curves;
    let mut t = Table::new(vec!["size", "A15 HW", "ex5_big", "A7 HW", "ex5_LITTLE"]);
    for (i, &(size, _)) in c[0].points.iter().enumerate() {
        let mut row = vec![if size >= 1 << 20 {
            format!("{} MiB", size >> 20)
        } else {
            format!("{} KiB", size >> 10)
        }];
        row.extend(
            c[..4]
                .iter()
                .map(|curve| format!("{:.1} ns", curve.points[i].1)),
        );
        t.row(row);
    }
    let chart: Vec<(&str, &[(u64, f64)])> = c
        .iter()
        .map(|c| (c.label.as_str(), c.points.as_slice()))
        .collect();
    let mut out = format!("{}\n{}\n", t.render(), curve_chart(&chart, 12));
    let (model, hw) = (c[1].dram_plateau_ns(), c[0].dram_plateau_ns());
    let dram = format!("{model:.0} ns vs {hw:.0} ns");
    vs(&mut out, "model DRAM latency vs HW (A15)", &dram);
    let (model, hw) = (c[3].l2_plateau_ns(), c[2].l2_plateau_ns());
    let l2 = format!("{model:.1} ns vs {hw:.1} ns");
    vs(&mut out, "model L2 latency vs HW (A7)", &l2);
    out
}

/// E4 / Fig. 5: HW PMC rates correlated with the MPE. The report lists
/// the events with |r| > 0.25; the full view charts all of them.
pub fn pmc_correlations(pc: &PmcCorrelations, view: View) -> String {
    let mut t = Table::new(vec!["event", "cluster", "corr with MPE"]);
    for e in pc.entries.iter().filter(|e| e.correlation.abs() > 0.25) {
        t.row(vec![
            e.name.to_string(),
            e.cluster_id.to_string(),
            format!("{:+.2}", e.correlation),
        ]);
    }
    let mut out = format!("Fig. 5 — PMC correlation with MPE\n{}\n", t.render());
    if view == View::Report {
        return out;
    }
    let bars: Vec<(String, f64)> = pc
        .entries
        .iter()
        .map(|e| (format!("[{:>2}] {}", e.cluster_id, e.name), e.correlation))
        .collect();
    out.push_str(&bar_chart(&bars, 60));
    for (sign, misses, top) in [
        ("positive", "under", pc.top_positive(5)),
        ("negative", "over", pc.top_negative(5)),
    ] {
        let heading = format!("most {sign} (gem5 {misses}estimates time when these are high)");
        let _ = writeln!(out, "\n{heading}:");
        for e in top {
            let _ = writeln!(
                out,
                "  {:+.2}  {}  (cluster {})",
                e.correlation, e.name, e.cluster_id
            );
        }
    }
    out.push_str(
        "\npaper: largest positive = memory-barrier/exclusive events (0x6C/0x6D/0x7E);\n\
         largest negative = branch/control-flow events (0x12/0x76/0x78), with\n\
         mispredicts (0x10) negative but smaller in magnitude.\n",
    );
    let branches = pc.correlation_of(pmu::BR_PRED);
    let mispredicts = pc.correlation_of(pmu::BR_MIS_PRED);
    if let (Some(b), Some(m)) = (branches, mispredicts) {
        let _ = writeln!(out, "measured: BR_PRED {b:+.2}, BR_MIS_PRED {m:+.2}");
    }
    out
}

/// E5 / §IV-C: gem5 statistics correlated with the MPE, clustered. `None`
/// when no statistic cleared the threshold.
pub fn gem5_correlations(gc: Option<&Gem5Correlations>, view: View) -> String {
    let mut out = String::new();
    let Some(gc) = gc else {
        if view == View::Full {
            out.push_str("no gem5 statistic cleared the correlation threshold\n");
        }
        return out;
    };
    let sizes: Vec<usize> = gc.clusters.iter().map(|c| c.members.len()).collect();
    let _ = writeln!(
        out,
        "§IV-C — {} gem5 statistics with |r| ≥ {:.1}; cluster sizes: {sizes:?}",
        gc.entries.len(),
        gc.threshold,
    );
    if let Some(a) = gc.cluster_a() {
        let _ = writeln!(
            out,
            "Cluster A (largest, mean r = {:+.2}): {:?}\n",
            a.mean_correlation,
            a.members.iter().take(6).collect::<Vec<_>>()
        );
    }
    if view == View::Report {
        return out;
    }
    let n = gc.entries.len().to_string();
    vs(&mut out, "statistics clearing the |r| threshold", &n);
    out.push('\n');
    for c in &gc.clusters {
        let _ = writeln!(
            out,
            "cluster {:>2} ({} members, mean r = {:+.2}):",
            c.id,
            c.members.len(),
            c.mean_correlation
        );
        for m in c.members.iter().take(8) {
            let r = gc.correlation_of(m).unwrap_or(f64::NAN);
            let _ = writeln!(out, "    {r:+.2}  {m}");
        }
        if c.members.len() > 8 {
            let _ = writeln!(out, "    … and {} more", c.members.len() - 8);
        }
    }
    out.push_str("\nten most negative statistics:\n");
    for e in gc.entries.iter().take(10) {
        let _ = writeln!(
            out,
            "  {:+.2}  {}  (cluster {})",
            e.correlation, e.stat, e.cluster_id
        );
    }
    out.push_str(
        "\npaper's Cluster A: itb_walker_cache events (BP bug → wrong-path fetch floods\n\
         the split L2 ITLB); check whether the walker-cache and branch statistics\n\
         dominate the negative tail above.\n",
    );
    out
}

/// E6 / §IV-D: stepwise regressions of the error on HW PMCs and on gem5
/// statistics. The full view lists each selection in order.
pub fn error_regression(hw: &ErrorRegression, g5: &ErrorRegression, view: View) -> String {
    let mut out = format!(
        "§IV-D — error regression: HW PMCs R² = {:.2} ({} terms: {:?}); gem5 stats R² = {:.2} ({} terms)\n",
        hw.r_squared,
        hw.selected.len(),
        hw.selected,
        g5.r_squared,
        g5.selected.len(),
    );
    if view == View::Report {
        return out;
    }
    for (label, reg) in [
        ("HW-PMC regression R² (terms)", hw),
        ("gem5-statistic regression R² (terms)", g5),
    ] {
        out.push('\n');
        let measured = format!("{:.2} ({} events)", reg.r_squared, reg.selected.len());
        vs(&mut out, label, &measured);
        out.push_str("selected, in order of importance:\n");
        for (i, s) in reg.selected.iter().enumerate() {
            let _ = writeln!(out, "  {}. {s}", i + 1);
        }
    }
    out.push_str(
        "\npaper's HW selection includes PC_WRITE_SPEC (best single), SNOOPS,\n\
         L1D_CACHE_REFILL_WR, LDREX_SPEC, BR_RETURN_SPEC; the gem5 selection\n\
         includes commitNonSpecStalls, indirectMisses, dtb.prefetch_faults,\n\
         l2.ReadExReq hits.\n",
    );
    out
}

/// E7 / Fig. 6: matched gem5/HW event ratios. The full view adds the paper
/// column, per-cluster ITLB ratios and the branch-predictor accuracies.
pub fn event_comparison(
    cmp: &EventComparison,
    wc: &WorkloadClusters,
    collated: &Collated,
    view: View,
) -> String {
    const PAPER: [(u16, &str); 9] = [
        (pmu::INST_RETIRED, "~1.0x"),
        (pmu::L1I_TLB_REFILL, "0.06x"),
        (pmu::L1D_TLB_REFILL, "1.7x"),
        (pmu::BR_PRED, "1.1x"),
        (pmu::BR_MIS_PRED, "21x"),
        (pmu::L1I_CACHE, "2x"),
        (pmu::L1D_CACHE_REFILL_ST, "9.9x"),
        (pmu::L1D_CACHE_WB, "19x"),
        (pmu::INST_SPEC, "1.1x"),
    ];
    let full = view == View::Full;
    let mut headers = vec!["event", "gem5 / HW"];
    if full {
        headers.push("paper");
    }
    let mut t = Table::new(headers);
    for r in &cmp.mean {
        let mut row = vec![r.name.to_string(), format!("{:.2}x", r.ratio)];
        if full {
            let paper = PAPER.iter().find(|(e, _)| *e == r.event);
            row.push(paper.map_or("-", |(_, p)| p).to_string());
        }
        t.row(row);
    }
    let mut out = format!(
        "\nFig. 6 — matched events (mean excl. extreme cluster); BP accuracy HW {:.1}% vs gem5 {:.1}%\n{}\n",
        cmp.hw_bp_accuracy * 100.0,
        cmp.gem5_bp_accuracy * 100.0,
        t.render()
    );
    if !full {
        return out;
    }
    let _ = writeln!(
        out,
        "excluded extreme cluster: {:?}\n\n\
         per-cluster ITLB-refill ratios (paper: 0.7x for cluster 1, 0.01x for cluster 7):",
        cmp.excluded_cluster
    );
    for (c, rs) in &cmp.per_cluster {
        if let Some(r) = rs.iter().find(|r| r.event == pmu::L1I_TLB_REFILL) {
            let _ = writeln!(
                out,
                "  cluster {c:>2}: {:.2}x  {:?}",
                r.ratio,
                wc.members(*c)
            );
        }
    }
    out.push('\n');
    let accuracy = |hw: f64, g5: f64| format!("{:.1}% vs {:.1}%", hw * 100.0, g5 * 100.0);
    let measured = accuracy(cmp.hw_bp_accuracy, cmp.gem5_bp_accuracy);
    vs(&mut out, "BP accuracy HW vs gem5", &measured);
    // The pathological workload.
    let rad = collated
        .slice(Gem5Model::Ex5BigOld, 1.0e9)
        .into_iter()
        .find(|r| r.workload == "par-basicmath-rad2deg");
    if let Some(r) = rad {
        let acc = |pmc: &BTreeMap<u16, f64>| {
            1.0 - pmc.get(&pmu::BR_MIS_PRED).copied().unwrap_or(0.0)
                / pmc.get(&pmu::BR_PRED).copied().unwrap_or(1.0)
        };
        let measured = accuracy(acc(&r.hw_pmc), acc(&r.gem5_pmu));
        vs(&mut out, "rad2deg BP accuracy HW vs gem5", &measured);
    }
    out
}

/// The automated error-source diagnosis, most severe evidence first.
pub fn diagnosis(d: &Diagnosis) -> String {
    if d.evidence.is_empty() {
        return "diagnosis: no significant error sources identified\n\n".to_string();
    }
    let mut out = String::from("automated diagnosis (most severe first):\n");
    for e in &d.evidence {
        let _ = writeln!(
            out,
            "  [{:>5.1}] {} — {}",
            e.severity, e.component, e.statement
        );
    }
    out.push('\n');
    out
}

/// §V: one cluster's power-model quality line.
pub fn power_quality(cluster: &str, q: &ModelQuality) -> String {
    format!(
        "§V — {cluster} power model: MAPE {:.2}%  SER {:.3} W  adj.R² {:.3}  mean VIF {:.1}  (n = {})\n",
        q.mape, q.ser, q.adj_r_squared, q.mean_vif, q.n
    )
}

/// E8 / §V: a fitted power model against the paper's quality figures,
/// with its gem5-insertable equations. `baselines` are the quality of the
/// unrestricted model and of the published coefficients, when measured.
pub fn power_model(
    fitted: &FittedPowerModel,
    baselines: Option<(&ModelQuality, &ModelQuality)>,
) -> String {
    let (ds, q) = (&fitted.dataset, &fitted.quality);
    let cluster = ds.cluster;
    let freqs = ds.frequencies().len();
    let mut out = format!("== {} ==\n", cluster.name());
    out.push_str(&power_quality(cluster.name(), q));
    let terms: Vec<String> = fitted.model.terms.iter().map(|t| t.mnemonic()).collect();
    let _ = writeln!(
        out,
        "{} observations ({} workloads x {freqs} DVFS points)\nselected terms: {terms:?}",
        ds.observations.len(),
        ds.observations.len() / freqs.max(1),
    );
    let name = cluster.name();
    for (quantity, measured) in [
        ("MAPE", format!("{:.2}%", q.mape)),
        ("SER", format!("{:.3} W", q.ser)),
        ("adj. R²", format!("{:.3}", q.adj_r_squared)),
    ] {
        vs(
            &mut out,
            &format!("{name} restricted {quantity}"),
            &measured,
        );
    }
    vs(&mut out, "mean VIF", &format!("{:.1}", q.mean_vif));
    let max_ape = format!("{:.1}%", q.max_ape);
    vs(&mut out, "max APE over observations", &max_ape);
    if let Some((free, published)) = baselines {
        let free_mape = format!("{:.2}%", free.mape);
        vs(&mut out, "unrestricted baseline MAPE", &free_mape);
        let retuned = format!("{:.2}% → {:.2}%", published.mape, q.mape);
        vs(&mut out, "published coefficients → retuned", &retuned);
    }
    let _ = writeln!(
        out,
        "\npower equations (gem5-insertable):\n{}",
        fitted.model.equations()
    );
    out
}

/// E9 / Fig. 7 / §VI: power and energy estimated from gem5 events against
/// the HW-PMC estimates. The full view adds the paper figures, cluster
/// sizes and the per-component breakdown of the best-estimated workload.
pub fn power_energy(pe: &PowerEnergy, wc: &WorkloadClusters, view: View) -> String {
    let o = &pe.overall;
    let full = view == View::Full;
    let mut out = format!(
        "\n§VI — power MPE {:+.1}% MAPE {:.1}%; energy MPE {:+.1}% MAPE {:.1}%\n",
        o.power_mpe, o.power_mape, o.energy_mpe, o.energy_mape
    );
    let mut headers = vec!["cluster", "power MAPE %", "energy MAPE %"];
    if full {
        headers.insert(1, "members");
    }
    let mut t = Table::new(headers);
    for (c, e) in &pe.per_cluster {
        let mut row = vec![
            c.to_string(),
            format!("{:.1}", e.power_mape),
            format!("{:.1}", e.energy_mape),
        ];
        if full {
            row.insert(1, wc.members(*c).len().to_string());
        }
        t.row(row);
    }
    let _ = writeln!(out, "{}", t.render());
    if !full {
        return out;
    }
    let power = format!("{:+.1}% / {:.1}%", o.power_mpe, o.power_mape);
    vs(&mut out, "A15 power MPE / MAPE", &power);
    let energy = format!("{:+.1}% / {:.1}%", o.energy_mpe, o.energy_mape);
    vs(&mut out, "A15 energy MPE / MAPE", &energy);
    out.push_str("paper: per-cluster energy MAPE ranges 0.6%–266%\n");
    // Component decomposition for one workload, showing cancellation.
    let rel_err = |w: &crate::analysis::power_energy::WorkloadPower| {
        (w.hw_power_w - w.gem5_power_w).abs() / w.hw_power_w
    };
    if let Some(w) = pe
        .workloads
        .iter()
        .min_by(|a, b| rel_err(a).total_cmp(&rel_err(b)))
    {
        let mut t = Table::new(vec!["component", "HW-PMC est (W)", "gem5 est (W)"]);
        for ((name, hw), (_, g5)) in w.hw_components.iter().zip(&w.gem5_components) {
            t.row(vec![name.clone(), format!("{hw:.3}"), format!("{g5:.3}")]);
        }
        t.row(vec![
            "TOTAL".into(),
            format!("{:.3}", w.hw_power_w),
            format!("{:.3}", w.gem5_power_w),
        ]);
        let _ = writeln!(
            out,
            "\ncomponent breakdown — {} (smallest power error):\n{}\n\
             paper: per-component errors cancel — large individual event errors,\n\
             small total power error.",
            w.workload,
            t.render()
        );
    }
    out
}

/// E10 / Fig. 8: performance, power and energy normalised to the A7 at
/// 200 MHz. The full view adds the paper's speedup and energy ranges.
pub fn scaling(sc: &Scaling, view: View) -> String {
    let mut t = Table::new(vec![
        "model",
        "freq",
        "perf HW",
        "perf g5",
        "power HW",
        "power g5",
        "energy HW",
        "energy g5",
    ]);
    for p in &sc.points {
        t.row(vec![
            p.model.name().to_string(),
            format!("{:.0} MHz", p.freq_hz / 1e6),
            format!("{:.2}", p.hw_perf),
            format!("{:.2}", p.gem5_perf),
            format!("{:.2}", p.hw_power),
            format!("{:.2}", p.gem5_power),
            format!("{:.2}", p.hw_energy),
            format!("{:.2}", p.gem5_energy),
        ]);
    }
    let mut out = format!(
        "Fig. 8 — scaling normalised to A7@200 MHz\n{}\n",
        t.render()
    );
    if let Some((hw, g5)) = &sc.a15_speedup {
        let _ = writeln!(
            out,
            "A15 speedup 1.8 GHz vs 600 MHz: HW {:.1}x ({:.1}–{:.1}); model {:.1}x ({:.1}–{:.1})",
            hw.mean, hw.min, hw.max, g5.mean, g5.min, g5.max
        );
    }
    if view == View::Report {
        return out;
    }
    out.push('\n');
    if let Some((hw, g5)) = &sc.a15_speedup {
        vs(&mut out, "A15 speedup 1.8 GHz vs 600 MHz (HW)", &spread(hw));
        vs(&mut out, "A15 speedup (model)", &spread(g5));
        let _ = writeln!(
            out,
            "paper: the model misses workload diversity — its speedup range is much\n\
             narrower than hardware's ({:.2} vs {:.2} here).",
            g5.max - g5.min,
            hw.max - hw.min
        );
    }
    if let Some((hw, g5)) = &sc.a15_energy_ratio {
        let label = "A15 energy ratio 1.8 GHz vs 600 MHz (HW)";
        vs(&mut out, label, &spread(hw));
        vs(&mut out, "A15 energy ratio (model)", &spread(g5));
    }
    out
}

/// E11 / §VII: the old against the fixed `ex5_big`. The full view adds the
/// paper's swing.
pub fn improvement(imp: &Improvement, view: View) -> String {
    let (old, fixed) = (&imp.old, &imp.fixed);
    let mut out = format!(
        "\n§VII — ex5_big revisions: old MAPE {:.1}% MPE {:+.1}%  →  fixed MAPE {:.1}% MPE {:+.1}%\n",
        old.time_mape, old.time_mpe, fixed.time_mape, fixed.time_mpe
    );
    let energy = old.energy_mape.zip(fixed.energy_mape);
    if let Some((oe, fe)) = energy {
        let _ = writeln!(out, "energy MAPE: old {oe:.1}% → fixed {fe:.1}%");
    }
    if view == View::Report {
        return out;
    }
    out.push('\n');
    let time = |q: &crate::analysis::improvement::RevisionQuality| {
        format!("{:.0}% / {:+.0}%", q.time_mape, q.time_mpe)
    };
    vs(&mut out, "old model time MAPE / MPE", &time(old));
    vs(&mut out, "fixed model time MAPE / MPE", &time(fixed));
    if let Some((oe, fe)) = energy {
        let measured = format!("{oe:.0}% → {fe:.0}%");
        vs(&mut out, "energy MAPE old → fixed", &measured);
    }
    out.push_str(
        "\nthe same setup on two gem5 versions gives errors of opposite sign —\n\
         \"a researcher would see very different results for their study depending\n\
         on when they downloaded gem5\" (§VII).\n",
    );
    out
}

fn variant_table<'a>(variants: impl IntoIterator<Item = &'a VariantQuality>) -> String {
    let mut t = Table::new(vec!["variant", "MAPE %", "MPE %"]);
    for v in variants {
        t.row(vec![
            v.label.clone(),
            format!("{:.1}", v.mape),
            format!("{:+.1}", v.mpe),
        ]);
    }
    t.render()
}

/// E13: each `ex5_big` specification error fixed alone and kept alone.
pub fn ablation(ab: &Ablation) -> String {
    let fix_one = std::iter::once(&ab.baseline)
        .chain(&ab.fix_one)
        .chain(std::iter::once(&ab.truth_config));
    let mut out = format!(
        "fix one error at a time (lower MAPE = bigger contribution):\n{}\n\
         keep one error at a time (higher MAPE = bigger contribution):\n{}\n",
        variant_table(fix_one),
        variant_table(&ab.keep_one)
    );
    if let Some(d) = ab.dominant_error() {
        let _ = writeln!(
            out,
            "dominant error: {} (MAPE {:.1}% after its fix, vs baseline {:.1}%)\n\
             paper's diagnosis: the branch predictor.",
            d.label, d.mape, ab.baseline.mape
        );
    }
    out
}

/// X7: the guided improvement loop, one row per diagnose-and-fix
/// iteration.
pub fn improve_loop(imp: &improve::Improvement) -> String {
    let mut t = Table::new(vec!["iter", "MAPE %", "MPE %", "diagnosis → fix applied"]);
    for it in &imp.iterations {
        let action = match (it.fixed, it.diagnosis.evidence.first()) {
            (Some(c), Some(e)) => format!("{c} ({})", e.statement),
            (Some(c), None) => c.to_string(),
            (None, _) => "stop".to_string(),
        };
        t.row(vec![
            it.index.to_string(),
            format!("{:.1}", it.mape),
            format!("{:+.1}", it.mpe),
            action,
        ]);
    }
    format!(
        "{}\nfinal MAPE {:.1} % after {} iterations (started at {:.1} %)\n\n\
         the first automatic diagnosis matches the paper's manual conclusion:\n\
         fix the branch predictor before anything else.\n",
        t.render(),
        imp.final_mape,
        imp.iterations.len().saturating_sub(1),
        imp.iterations.first().map_or(f64::NAN, |it| it.mape)
    )
}
