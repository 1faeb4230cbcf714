//! Report rendering: ASCII tables, horizontal bar charts and CSV — the
//! textual equivalent of the graphs GemStone generates in the paper.
//!
//! # Examples
//!
//! ```
//! use gemstone_core::report::Table;
//!
//! let mut t = Table::new(vec!["workload", "MPE %"]);
//! t.row(vec!["mi-sha".into(), format!("{:+.1}", -16.1)]);
//! let s = t.render();
//! assert!(s.contains("mi-sha"));
//! ```

use std::fmt::Write as _;

/// A simple ASCII table.
#[derive(Debug, Clone)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(headers: Vec<&str>) -> Self {
        Table {
            headers: headers.into_iter().map(str::to_string).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the header width.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row width must match headers"
        );
        self.rows.push(cells);
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the table with aligned columns.
    pub fn render(&self) -> String {
        let ncol = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for r in &self.rows {
            for (i, c) in r.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let line = |out: &mut String, cells: &[String]| {
            for (i, c) in cells.iter().enumerate() {
                let _ = write!(out, "{:<w$}", c, w = widths[i] + 2);
            }
            out.push('\n');
        };
        line(&mut out, &self.headers);
        let total: usize = widths.iter().map(|w| w + 2).sum::<usize>();
        out.push_str(&"-".repeat(total.min(120)));
        out.push('\n');
        for r in &self.rows {
            line(&mut out, r);
        }
        let _ = ncol;
        out
    }
}

/// Renders a horizontal bar chart of signed values (the Fig. 3 / Fig. 5
/// style), with a zero axis in the middle.
pub fn bar_chart(entries: &[(String, f64)], width: usize) -> String {
    if entries.is_empty() {
        return String::new();
    }
    let max_abs = entries
        .iter()
        .map(|(_, v)| v.abs())
        .fold(0.0_f64, f64::max)
        .max(1e-12);
    let label_w = entries.iter().map(|(l, _)| l.len()).max().unwrap_or(0);
    let half = (width.max(20)) / 2;
    let mut out = String::new();
    for (label, v) in entries {
        let n = ((v.abs() / max_abs) * half as f64).round() as usize;
        let bar: String = if *v >= 0.0 {
            format!("{}|{}", " ".repeat(half), "█".repeat(n))
        } else {
            format!("{}{}|", " ".repeat(half - n), "█".repeat(n))
        };
        let _ = writeln!(out, "{label:<label_w$} {bar} {v:+.1}");
    }
    out
}

/// Renders an ASCII log-x line chart for latency-style curves
/// (the Fig. 4 rendering).
pub fn curve_chart(curves: &[(&str, &[(u64, f64)])], height: usize) -> String {
    if curves.is_empty() {
        return String::new();
    }
    let ymax = curves
        .iter()
        .flat_map(|(_, pts)| pts.iter().map(|p| p.1))
        .fold(0.0_f64, f64::max)
        .max(1e-12);
    let symbols = ['o', 'x', '+', '*', '#', '@'];
    let width: usize = curves.iter().map(|(_, p)| p.len()).max().unwrap_or(0);
    let mut grid = vec![vec![' '; width]; height];
    for (ci, (_, pts)) in curves.iter().enumerate() {
        for (x, (_, y)) in pts.iter().enumerate() {
            let row = ((1.0 - y / ymax) * (height - 1) as f64).round() as usize;
            grid[row.min(height - 1)][x] = symbols[ci % symbols.len()];
        }
    }
    let mut out = String::new();
    let _ = writeln!(out, "y-max = {ymax:.1} ns");
    for row in grid {
        out.push('|');
        out.extend(row);
        out.push('\n');
    }
    out.push('+');
    out.push_str(&"-".repeat(width));
    out.push_str("> size (log2)\n");
    for (ci, (label, _)) in curves.iter().enumerate() {
        let _ = writeln!(out, "  {} = {label}", symbols[ci % symbols.len()]);
    }
    out
}

/// Renders an agglomerative clustering as a text dendrogram (the tree
/// GemStone's HCA figures are drawn from).
///
/// # Panics
///
/// Panics if `labels.len()` differs from the clustering's leaf count.
pub fn dendrogram(hca: &gemstone_stats::cluster::Hca, labels: &[String]) -> String {
    assert_eq!(labels.len(), hca.len(), "one label per observation");
    let n = hca.len();
    let merges = hca.merges();
    // children[node - n] = (a, b, height) for internal nodes n..n+merges.
    let mut out = String::new();
    if merges.is_empty() {
        for l in labels {
            let _ = writeln!(out, "─ {l}");
        }
        return out;
    }
    let root = n + merges.len() - 1;
    fn walk(
        node: usize,
        n: usize,
        merges: &[gemstone_stats::cluster::Merge],
        labels: &[String],
        prefix: &str,
        is_last: bool,
        out: &mut String,
    ) {
        let connector = if prefix.is_empty() {
            ""
        } else if is_last {
            "└─ "
        } else {
            "├─ "
        };
        if node < n {
            let _ = writeln!(out, "{prefix}{connector}{}", labels[node]);
        } else {
            let m = &merges[node - n];
            let _ = writeln!(out, "{prefix}{connector}[h={:.2}]", m.height);
            let child_prefix = if prefix.is_empty() {
                String::new()
            } else {
                format!("{prefix}{}", if is_last { "   " } else { "│  " })
            };
            let child_prefix = if prefix.is_empty() && connector.is_empty() {
                child_prefix
            } else if prefix.is_empty() {
                "   ".to_string()
            } else {
                child_prefix
            };
            walk(m.a, n, merges, labels, &child_prefix, false, out);
            walk(m.b, n, merges, labels, &child_prefix, true, out);
        }
    }
    // Render the root without a connector, its children indented.
    let m = &merges[root - n];
    let _ = writeln!(out, "[h={:.2}]", m.height);
    walk(m.a, n, merges, labels, " ", false, &mut out);
    walk(m.b, n, merges, labels, " ", true, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(vec!["a", "bb"]);
        t.row(vec!["xxx".into(), "1".into()]);
        t.row(vec!["y".into(), "22".into()]);
        let s = t.render();
        assert!(s.contains("xxx"));
        assert!(s.lines().count() >= 4);
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn table_rejects_ragged_rows() {
        let mut t = Table::new(vec!["a"]);
        t.row(vec!["1".into(), "2".into()]);
    }

    #[test]
    fn bar_chart_shows_signs() {
        let s = bar_chart(&[("pos".into(), 50.0), ("neg".into(), -100.0)], 40);
        assert!(s.contains("+50.0"));
        assert!(s.contains("-100.0"));
        // The negative bar is longer.
        let pos_bar = s.lines().next().unwrap().matches('█').count();
        let neg_bar = s.lines().nth(1).unwrap().matches('█').count();
        assert!(neg_bar > pos_bar);
    }

    #[test]
    fn bar_chart_empty() {
        assert_eq!(bar_chart(&[], 40), "");
    }

    #[test]
    fn dendrogram_renders_all_leaves() {
        use gemstone_stats::cluster::{Hca, Linkage, Metric};
        let rows = vec![vec![0.0], vec![0.1], vec![5.0], vec![5.1], vec![99.0]];
        let hca = Hca::new(&rows, Metric::Euclidean, Linkage::Average).unwrap();
        let labels: Vec<String> = (0..5).map(|i| format!("wl{i}")).collect();
        let d = dendrogram(&hca, &labels);
        for l in &labels {
            assert!(d.contains(l), "missing {l} in:\n{d}");
        }
        // Heights appear, and the nearby pair merges at a low height.
        assert!(d.contains("[h=0.10]"), "{d}");
        assert_eq!(d.matches("[h=").count(), 4); // n-1 merges
    }

    #[test]
    #[should_panic(expected = "one label per observation")]
    fn dendrogram_checks_label_count() {
        use gemstone_stats::cluster::{Hca, Linkage, Metric};
        let rows = vec![vec![0.0], vec![1.0]];
        let hca = Hca::new(&rows, Metric::Euclidean, Linkage::Single).unwrap();
        dendrogram(&hca, &[]);
    }

    #[test]
    fn curve_chart_renders() {
        let a = [(4096_u64, 1.0), (8192, 2.0), (16384, 10.0)];
        let b = [(4096_u64, 1.5), (8192, 2.5), (16384, 5.0)];
        let s = curve_chart(&[("hw", &a), ("model", &b)], 8);
        assert!(s.contains("o = hw"));
        assert!(s.contains("x = model"));
        assert!(s.contains("y-max"));
    }
}
