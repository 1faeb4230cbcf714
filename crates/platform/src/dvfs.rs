//! DVFS operating points of the Exynos-5422 clusters.
//!
//! The paper's Experiment 1 runs the Cortex-A7 at 200/600/1000/1400 MHz and
//! the Cortex-A15 at 600/1000/1400/1800 MHz; 2 GHz on the A15 is avoided
//! because the part throttles (§III).
//!
//! # Examples
//!
//! ```
//! use gemstone_platform::dvfs::Cluster;
//!
//! assert_eq!(Cluster::LittleA7.frequencies().len(), 4);
//! let v = Cluster::BigA15.voltage(1_800_000_000.0);
//! assert!(v > 1.0 && v < 1.4);
//! ```

/// One of the two Exynos-5422 CPU clusters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Cluster {
    /// Quad Cortex-A7 ("LITTLE", energy-optimised).
    LittleA7,
    /// Quad Cortex-A15 ("big", performance-optimised).
    BigA15,
}

impl Cluster {
    /// Display name matching the paper.
    pub fn name(self) -> &'static str {
        match self {
            Cluster::LittleA7 => "Cortex-A7",
            Cluster::BigA15 => "Cortex-A15",
        }
    }

    /// The DVFS operating points used in the paper's experiments (Hz).
    pub fn frequencies(self) -> &'static [f64] {
        match self {
            Cluster::LittleA7 => &[200.0e6, 600.0e6, 1000.0e6, 1400.0e6],
            Cluster::BigA15 => &[600.0e6, 1000.0e6, 1400.0e6, 1800.0e6],
        }
    }

    /// The lane of `freq_hz` in [`Cluster::frequencies`]: `Some(i)` only
    /// when the frequency is bit-equal to the `i`-th operating point, so
    /// a one-point run can be served from its fused column without
    /// changing a single result bit.
    pub fn column_index(self, freq_hz: f64) -> Option<usize> {
        self.frequencies()
            .iter()
            .position(|f| f.to_bits() == freq_hz.to_bits())
    }

    /// The maximum hardware frequency (the A15's 2 GHz point exists but
    /// throttles; see [`crate::thermal`]).
    pub fn max_frequency(self) -> f64 {
        match self {
            Cluster::LittleA7 => 1400.0e6,
            Cluster::BigA15 => 2000.0e6,
        }
    }

    /// Supply voltage (V) for an operating point, interpolated piecewise
    /// linearly between table entries and clamped at the ends.
    pub fn voltage(self, freq_hz: f64) -> f64 {
        let table: &[(f64, f64)] = match self {
            Cluster::LittleA7 => &[
                (200.0e6, 0.90),
                (600.0e6, 0.96),
                (1000.0e6, 1.05),
                (1400.0e6, 1.19),
            ],
            Cluster::BigA15 => &[
                (600.0e6, 0.91),
                (1000.0e6, 0.99),
                (1400.0e6, 1.09),
                (1800.0e6, 1.24),
                (2000.0e6, 1.36),
            ],
        };
        if freq_hz <= table[0].0 {
            return table[0].1;
        }
        for w in table.windows(2) {
            let (f0, v0) = w[0];
            let (f1, v1) = w[1];
            if freq_hz <= f1 {
                let t = (freq_hz - f0) / (f1 - f0);
                return v0 + t * (v1 - v0);
            }
        }
        table.last().expect("non-empty table").1
    }
}

/// Resolves `query_hz` to the entry of an ascending-sorted frequency list
/// within the 1 Hz matching tolerance the result-lookup methods use, or
/// `None` when no operating point is that close. This is the shared
/// building block of the indexed (hash-map) lookups: a query frequency is
/// first snapped to the stored operating point, then used as an exact key.
pub fn nearest_frequency(sorted_hz: &[f64], query_hz: f64) -> Option<f64> {
    let at = sorted_hz.partition_point(|&f| f < query_hz);
    let mut best: Option<(f64, f64)> = None;
    for i in [at.wrapping_sub(1), at] {
        if let Some(&f) = sorted_hz.get(i) {
            let d = (f - query_hz).abs();
            if d < 1.0 && best.is_none_or(|(bd, _)| d < bd) {
                best = Some((d, f));
            }
        }
    }
    best.map(|(_, f)| f)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_frequency_snaps_within_one_hz() {
        let fs = [200.0e6, 600.0e6, 1000.0e6];
        assert_eq!(nearest_frequency(&fs, 600.0e6), Some(600.0e6));
        assert_eq!(nearest_frequency(&fs, 600.0e6 + 0.5), Some(600.0e6));
        assert_eq!(nearest_frequency(&fs, 600.0e6 - 0.5), Some(600.0e6));
        assert_eq!(nearest_frequency(&fs, 601.0e6), None);
        assert_eq!(nearest_frequency(&fs, 100.0), None);
        assert_eq!(nearest_frequency(&[], 1.0e9), None);
        assert_eq!(nearest_frequency(&fs, 1000.0e6), Some(1000.0e6));
        assert_eq!(nearest_frequency(&fs, 200.0e6), Some(200.0e6));
    }

    #[test]
    fn frequencies_match_paper() {
        assert_eq!(
            Cluster::LittleA7.frequencies(),
            &[200.0e6, 600.0e6, 1000.0e6, 1400.0e6]
        );
        assert_eq!(
            Cluster::BigA15.frequencies(),
            &[600.0e6, 1000.0e6, 1400.0e6, 1800.0e6]
        );
        // 2 GHz exists on the part but is not in the experiment list.
        assert!(Cluster::BigA15.max_frequency() > 1800.0e6);
    }

    #[test]
    fn column_index_matches_bit_equal_points_only() {
        assert_eq!(Cluster::BigA15.column_index(600.0e6), Some(0));
        assert_eq!(Cluster::BigA15.column_index(1.4e9), Some(2));
        assert_eq!(Cluster::LittleA7.column_index(200.0e6), Some(0));
        assert_eq!(Cluster::LittleA7.column_index(1.0e9), Some(2));
        assert_eq!(Cluster::BigA15.column_index(200.0e6), None);
        assert_eq!(Cluster::BigA15.column_index(1.6e9), None);
        assert_eq!(Cluster::BigA15.column_index(1.0e9 + 0.5), None);
        assert_eq!(Cluster::BigA15.column_index(f64::NAN), None);
        for cluster in [Cluster::LittleA7, Cluster::BigA15] {
            for (i, &f) in cluster.frequencies().iter().enumerate() {
                assert_eq!(cluster.column_index(f), Some(i));
            }
        }
    }

    #[test]
    fn voltage_monotone_in_frequency() {
        for cluster in [Cluster::LittleA7, Cluster::BigA15] {
            let mut last = 0.0;
            for &f in cluster.frequencies() {
                let v = cluster.voltage(f);
                assert!(v > last, "{} at {f}: {v}", cluster.name());
                last = v;
            }
        }
    }

    #[test]
    fn voltage_interpolates_and_clamps() {
        let v800 = Cluster::BigA15.voltage(800.0e6);
        assert!(v800 > 0.91 && v800 < 0.99);
        assert_eq!(Cluster::BigA15.voltage(1.0), 0.91);
        assert_eq!(Cluster::BigA15.voltage(9.9e9), 1.36);
    }

    #[test]
    fn names() {
        assert_eq!(Cluster::LittleA7.name(), "Cortex-A7");
        assert_eq!(Cluster::BigA15.name(), "Cortex-A15");
    }
}
