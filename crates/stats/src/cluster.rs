//! Agglomerative Hierarchical Cluster Analysis (HCA).
//!
//! The paper uses HCA twice:
//!
//! * to group **workloads** with similar hardware PMC behaviour (Fig. 3 —
//!   "workloads of the same cluster exhibit similar MPEs");
//! * to group **events** that correlate with each other across workloads
//!   (Fig. 5 and the gem5-event clusters A/B/C of §IV-C).
//!
//! Observations are rows of a feature matrix. Distances may be Euclidean
//! (typically on z-scored features) or correlation-based (for clustering
//! events by the similarity of their behaviour). Merging uses the
//! Lance–Williams update for single, complete, average and Ward linkage.
//!
//! # Examples
//!
//! ```
//! use gemstone_stats::cluster::{Hca, Linkage, Metric};
//!
//! // Two obvious groups of points on a line.
//! let rows = vec![
//!     vec![0.0], vec![0.1], vec![0.2],
//!     vec![10.0], vec![10.1],
//! ];
//! let hca = Hca::new(&rows, Metric::Euclidean, Linkage::Average).unwrap();
//! let labels = hca.cut_k(2).unwrap();
//! assert_eq!(labels[0], labels[1]);
//! assert_eq!(labels[3], labels[4]);
//! assert_ne!(labels[0], labels[3]);
//! ```

use crate::corr::pearson;
use crate::{Result, StatsError};

/// Process-wide count of dendrogram merges performed (`cluster.merges` in
/// the metrics registry).
fn merges_counter() -> &'static gemstone_obs::Counter {
    static C: std::sync::OnceLock<std::sync::Arc<gemstone_obs::Counter>> =
        std::sync::OnceLock::new();
    C.get_or_init(|| gemstone_obs::Registry::global().counter("cluster.merges"))
}

/// Distance metric between observation rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Metric {
    /// Euclidean distance on the raw feature values.
    Euclidean,
    /// `1 − r` where `r` is the Pearson correlation of the two rows.
    Correlation,
    /// `1 − |r|` — treats strongly anti-correlated rows as close, the usual
    /// choice when clustering PMC events.
    AbsCorrelation,
}

/// Cluster-merge criterion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Linkage {
    /// Minimum pairwise distance.
    Single,
    /// Maximum pairwise distance.
    Complete,
    /// Unweighted average pairwise distance (UPGMA).
    Average,
    /// Ward's minimum-variance criterion (Euclidean metrics only by
    /// convention, but accepted for any metric).
    Ward,
}

/// A single agglomeration step. Nodes `0..n` are the original observations;
/// step `i` creates node `n + i` (the SciPy convention).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Merge {
    /// First merged node id.
    pub a: usize,
    /// Second merged node id.
    pub b: usize,
    /// Distance at which the merge happened.
    pub height: f64,
    /// Number of observations in the new cluster.
    pub size: usize,
}

/// The result of agglomerative clustering: a dendrogram that can be cut into
/// flat cluster assignments.
#[derive(Debug, Clone)]
pub struct Hca {
    n: usize,
    merges: Vec<Merge>,
}

/// Z-scores each column of a row-major feature matrix in place; constant
/// columns become all-zero.
///
/// # Errors
///
/// Returns [`StatsError::DimensionMismatch`] for ragged rows and
/// [`StatsError::NotEnoughData`] when `rows` is empty.
pub fn standardize(rows: &mut [Vec<f64>]) -> Result<()> {
    let n = rows.len();
    if n == 0 {
        return Err(StatsError::NotEnoughData {
            needed: 1,
            available: 0,
        });
    }
    let k = rows[0].len();
    for r in rows.iter() {
        if r.len() != k {
            return Err(StatsError::DimensionMismatch {
                context: "standardize",
                expected: k,
                actual: r.len(),
            });
        }
    }
    for j in 0..k {
        let mean = rows.iter().map(|r| r[j]).sum::<f64>() / n as f64;
        let var = rows
            .iter()
            .map(|r| (r[j] - mean) * (r[j] - mean))
            .sum::<f64>()
            / n as f64;
        let sd = var.sqrt();
        for r in rows.iter_mut() {
            r[j] = if sd > 0.0 { (r[j] - mean) / sd } else { 0.0 };
        }
    }
    Ok(())
}

fn distance(a: &[f64], b: &[f64], metric: Metric) -> Result<f64> {
    match metric {
        Metric::Euclidean => Ok(a
            .iter()
            .zip(b)
            .map(|(x, y)| (x - y) * (x - y))
            .sum::<f64>()
            .sqrt()),
        Metric::Correlation => Ok(1.0 - pearson(a, b)?),
        Metric::AbsCorrelation => Ok(1.0 - pearson(a, b)?.abs()),
    }
}

/// Validates the feature matrix and returns `n`.
fn validate_rows(rows: &[Vec<f64>]) -> Result<usize> {
    let n = rows.len();
    if n < 2 {
        return Err(StatsError::NotEnoughData {
            needed: 2,
            available: n,
        });
    }
    let width = rows[0].len();
    for r in rows {
        if r.len() != width {
            return Err(StatsError::DimensionMismatch {
                context: "Hca::new",
                expected: width,
                actual: r.len(),
            });
        }
        if r.iter().any(|v| !v.is_finite()) {
            return Err(StatsError::InvalidArgument("Hca::new: non-finite feature"));
        }
    }
    Ok(n)
}

/// Index of the `(i, j)` pair (`i < j`) in a condensed upper-triangle
/// distance array of `n` observations.
#[inline]
fn cidx(n: usize, i: usize, j: usize) -> usize {
    debug_assert!(i < j && j < n);
    i * n - i * (i + 1) / 2 + (j - i - 1)
}

/// Lance–Williams distance update for merging clusters of sizes `si`/`sj`
/// (at mutual distance `dij`) against an outside cluster of size `sk`.
#[inline]
fn lance_williams(
    linkage: Linkage,
    dik: f64,
    djk: f64,
    dij: f64,
    si: usize,
    sj: usize,
    sk: usize,
) -> f64 {
    match linkage {
        Linkage::Single => dik.min(djk),
        Linkage::Complete => dik.max(djk),
        Linkage::Average => {
            let (si, sj) = (si as f64, sj as f64);
            (si * dik + sj * djk) / (si + sj)
        }
        Linkage::Ward => {
            let (si, sj, sk) = (si as f64, sj as f64, sk as f64);
            ((si + sk) * dik + (sj + sk) * djk - sk * dij) / (si + sj + sk)
        }
    }
}

/// Nearest-neighbour-chain agglomeration over a condensed distance array.
///
/// Grows a chain of successive nearest neighbours until a mutual pair is
/// found, merges it, and continues from the surviving chain prefix —
/// reducibility of the four supported linkages guarantees the prefix stays
/// valid, giving O(n²) total work. Because every cluster always merges into
/// the slot with the smaller index, a slot index is exactly the minimum
/// original observation index of its cluster; merges are recorded as slot
/// pairs, sorted by height and relabelled so the output follows the same
/// convention as greedy agglomeration: `a` is the cluster containing the
/// smaller minimum original index, and step `t` creates node `n + t`.
fn nn_chain(n: usize, d: &mut [f64], linkage: Linkage, ward: bool) -> Vec<Merge> {
    let mut size = vec![1usize; n];
    let mut active = vec![true; n];
    // (slot_a < slot_b, metric-space height, merged size)
    let mut raw: Vec<(usize, usize, f64, usize)> = Vec::with_capacity(n - 1);
    let mut chain: Vec<usize> = Vec::with_capacity(n);

    for _ in 0..(n - 1) {
        if chain.is_empty() {
            // Slot 0 is never deactivated (merges keep the smaller slot), so
            // it is always a valid seed.
            chain.push(0);
        }
        loop {
            let x = *chain.last().expect("chain is non-empty");
            let prev = if chain.len() >= 2 {
                Some(chain[chain.len() - 2])
            } else {
                None
            };
            // Nearest active neighbour of x, preferring the previous chain
            // element on ties (strict `<` below) so mutual pairs terminate.
            let (mut best, mut best_d) = match prev {
                Some(p) => (p, d[cidx(n, x.min(p), x.max(p))]),
                None => (usize::MAX, f64::INFINITY),
            };
            for y in 0..n {
                if !active[y] || y == x || Some(y) == prev {
                    continue;
                }
                let dxy = d[cidx(n, x.min(y), x.max(y))];
                if dxy < best_d {
                    best_d = dxy;
                    best = y;
                }
            }
            if prev != Some(best) {
                chain.push(best);
                continue;
            }
            // x and best are mutual nearest neighbours: merge into the
            // smaller slot, drop the pair from the chain.
            chain.pop();
            chain.pop();
            let (lo, hi) = (x.min(best), x.max(best));
            let dij = best_d;
            let height = if ward { dij.max(0.0).sqrt() } else { dij };
            let new_size = size[lo] + size[hi];
            raw.push((lo, hi, height, new_size));
            for k in 0..n {
                if !active[k] || k == lo || k == hi {
                    continue;
                }
                let dik = d[cidx(n, lo.min(k), lo.max(k))];
                let djk = d[cidx(n, hi.min(k), hi.max(k))];
                d[cidx(n, lo.min(k), lo.max(k))] =
                    lance_williams(linkage, dik, djk, dij, size[lo], size[hi], size[k]);
            }
            active[hi] = false;
            size[lo] = new_size;
            break;
        }
    }

    // Chain discovery order is not merge order; sort by height (stable, so
    // children still precede parents at tied heights) and assign node ids.
    raw.sort_by(|a, b| a.2.partial_cmp(&b.2).unwrap_or(std::cmp::Ordering::Equal));
    fn find(parent: &mut [usize], mut x: usize) -> usize {
        while parent[x] != x {
            parent[x] = parent[parent[x]];
            x = parent[x];
        }
        x
    }
    // Union-by-min keeps each root equal to the cluster's minimum original
    // index, which is how greedy agglomeration orders (a, b) within a merge.
    let mut parent: Vec<usize> = (0..n).collect();
    let mut node_of: Vec<usize> = (0..n).collect();
    let mut merges = Vec::with_capacity(n - 1);
    for (t, &(a_slot, b_slot, height, sz)) in raw.iter().enumerate() {
        let ra = find(&mut parent, a_slot);
        let rb = find(&mut parent, b_slot);
        let (lo, hi) = (ra.min(rb), ra.max(rb));
        merges.push(Merge {
            a: node_of[lo],
            b: node_of[hi],
            height,
            size: sz,
        });
        parent[hi] = lo;
        node_of[lo] = n + t;
    }
    merges
}

impl Hca {
    /// Clusters the observation rows with the O(n²) nearest-neighbour-chain
    /// algorithm.
    ///
    /// All four linkages are *reducible*, so the chain algorithm produces
    /// exactly the dendrogram of greedy closest-pair agglomeration (the
    /// O(n³) textbook loop, kept in the unit tests as the reference);
    /// merges are reported in ascending height order with the same
    /// node-labelling convention. When two distinct merges happen at exactly
    /// equal heights their relative order may differ from the greedy loop
    /// (heights themselves can also differ in the last few ulps because the
    /// Lance–Williams recurrence is evaluated in a different order).
    ///
    /// # Errors
    ///
    /// * [`StatsError::NotEnoughData`] — fewer than 2 rows.
    /// * [`StatsError::DimensionMismatch`] — ragged rows.
    /// * [`StatsError::InvalidArgument`] — non-finite features (via the
    ///   correlation metrics).
    pub fn new(rows: &[Vec<f64>], metric: Metric, linkage: Linkage) -> Result<Hca> {
        let n = validate_rows(rows)?;
        // Condensed pairwise distances. Ward operates on squared distances
        // internally and reports sqrt at merge time.
        let ward = linkage == Linkage::Ward;
        let mut d = vec![0.0_f64; n * (n - 1) / 2];
        for i in 0..n {
            for j in (i + 1)..n {
                let mut dist = distance(&rows[i], &rows[j], metric)?;
                if ward {
                    dist *= dist;
                }
                d[cidx(n, i, j)] = dist;
            }
        }
        let merges = nn_chain(n, &mut d, linkage, ward);
        merges_counter().add(merges.len() as u64);
        Ok(Hca { n, merges })
    }

    /// Number of original observations.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Always false: an `Hca` requires at least two observations.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The agglomeration steps, in merge order (ascending height for
    /// monotone linkages).
    pub fn merges(&self) -> &[Merge] {
        &self.merges
    }

    /// Cuts the dendrogram into exactly `k` clusters. Labels are dense,
    /// `0..k`, numbered by first appearance in observation order.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::InvalidArgument`] unless `1 <= k <= n`.
    pub fn cut_k(&self, k: usize) -> Result<Vec<usize>> {
        if k == 0 || k > self.n {
            return Err(StatsError::InvalidArgument("cut_k: k out of range"));
        }
        // Apply the first (n - k) merges.
        self.labels_after(self.n - k)
    }

    /// Computes flat labels after applying the first `applied` merges.
    fn labels_after(&self, applied: usize) -> Result<Vec<usize>> {
        // Union-find over node ids 0..n+applied.
        let total = self.n + applied;
        let mut parent: Vec<usize> = (0..total).collect();
        fn find(parent: &mut [usize], mut x: usize) -> usize {
            while parent[x] != x {
                parent[x] = parent[parent[x]];
                x = parent[x];
            }
            x
        }
        for (step, m) in self.merges.iter().take(applied).enumerate() {
            let new_node = self.n + step;
            let ra = find(&mut parent, m.a);
            let rb = find(&mut parent, m.b);
            parent[ra] = new_node;
            parent[rb] = new_node;
        }
        // Dense labels by first appearance.
        let mut label_of_root = std::collections::HashMap::new();
        let mut labels = Vec::with_capacity(self.n);
        for i in 0..self.n {
            let r = find(&mut parent, i);
            let next = label_of_root.len();
            let l = *label_of_root.entry(r).or_insert(next);
            labels.push(l);
        }
        Ok(labels)
    }

    /// Chooses the number of clusters by the largest relative jump in merge
    /// height within `[k_min, k_max]` — a simple automated "elbow" rule used
    /// by GemStone to pick a workload cluster count comparable to the paper.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::InvalidArgument`] when the range is empty or out
    /// of bounds.
    pub fn suggest_k(&self, k_min: usize, k_max: usize) -> Result<usize> {
        if k_min == 0 || k_min > k_max || k_max > self.n {
            return Err(StatsError::InvalidArgument("suggest_k: bad range"));
        }
        // Cutting to k clusters means stopping before merge (n - k).
        // The "gap" for k is the height of the merge that would reduce
        // k clusters to k - 1, relative to the previous merge height.
        let mut best = (k_min, f64::NEG_INFINITY);
        for k in k_min..=k_max {
            let idx = self.n - k; // merge that destroys the k-cluster solution
            if idx == 0 || idx >= self.merges.len() {
                continue;
            }
            let h_hi = self.merges[idx].height;
            let h_lo = self.merges[idx - 1].height.max(1e-12);
            let gap = h_hi / h_lo;
            if gap > best.1 {
                best = (k, gap);
            }
        }
        Ok(best.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::cases::{for_each_case, Cases};

    impl Hca {
        /// Greedy closest-pair agglomeration — the O(n³) textbook loop, the
        /// reference the chain algorithm of [`Hca::new`] must reproduce.
        fn new_reference(rows: &[Vec<f64>], metric: Metric, linkage: Linkage) -> Result<Hca> {
            let n = validate_rows(rows)?;
            // Full pairwise distance matrix. Ward operates on squared distances
            // internally and reports sqrt at merge time.
            let ward = linkage == Linkage::Ward;
            let mut d = vec![vec![0.0_f64; n]; n];
            for i in 0..n {
                for j in (i + 1)..n {
                    let mut dist = distance(&rows[i], &rows[j], metric)?;
                    if ward {
                        dist *= dist;
                    }
                    d[i][j] = dist;
                    d[j][i] = dist;
                }
            }

            // active[i] = Some(node_id); sizes indexed like `d`.
            let mut node_id: Vec<usize> = (0..n).collect();
            let mut size = vec![1usize; n];
            let mut active = vec![true; n];
            let mut merges = Vec::with_capacity(n - 1);

            for step in 0..(n - 1) {
                // Find the closest active pair.
                let mut best = (usize::MAX, usize::MAX, f64::INFINITY);
                for i in 0..n {
                    if !active[i] {
                        continue;
                    }
                    for j in (i + 1)..n {
                        if !active[j] {
                            continue;
                        }
                        if d[i][j] < best.2 {
                            best = (i, j, d[i][j]);
                        }
                    }
                }
                let (i, j, dij) = best;
                debug_assert!(i != usize::MAX, "no active pair found");

                let height = if ward { dij.max(0.0).sqrt() } else { dij };
                let new_size = size[i] + size[j];
                merges.push(Merge {
                    a: node_id[i],
                    b: node_id[j],
                    height,
                    size: new_size,
                });

                // Lance–Williams update into slot i; deactivate j.
                for k in 0..n {
                    if !active[k] || k == i || k == j {
                        continue;
                    }
                    let new_d =
                        lance_williams(linkage, d[i][k], d[j][k], dij, size[i], size[j], size[k]);
                    d[i][k] = new_d;
                    d[k][i] = new_d;
                }
                active[j] = false;
                size[i] = new_size;
                node_id[i] = n + step;
            }

            Ok(Hca { n, merges })
        }
    }

    fn three_groups() -> Vec<Vec<f64>> {
        vec![
            vec![0.0, 0.0],
            vec![0.2, 0.1],
            vec![0.1, 0.2],
            vec![5.0, 5.0],
            vec![5.1, 5.2],
            vec![10.0, 0.0],
            vec![10.2, 0.1],
        ]
    }

    #[test]
    fn finds_three_groups_all_linkages() {
        for linkage in [
            Linkage::Single,
            Linkage::Complete,
            Linkage::Average,
            Linkage::Ward,
        ] {
            let hca = Hca::new(&three_groups(), Metric::Euclidean, linkage).unwrap();
            let labels = hca.cut_k(3).unwrap();
            assert_eq!(labels[0], labels[1]);
            assert_eq!(labels[1], labels[2]);
            assert_eq!(labels[3], labels[4]);
            assert_eq!(labels[5], labels[6]);
            assert_ne!(labels[0], labels[3]);
            assert_ne!(labels[0], labels[5]);
            assert_ne!(labels[3], labels[5]);
        }
    }

    #[test]
    fn cut_k_boundaries() {
        let hca = Hca::new(&three_groups(), Metric::Euclidean, Linkage::Average).unwrap();
        let all_one = hca.cut_k(1).unwrap();
        assert!(all_one.iter().all(|&l| l == 0));
        let singletons = hca.cut_k(7).unwrap();
        let mut sorted = singletons.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 7);
        assert!(hca.cut_k(0).is_err());
        assert!(hca.cut_k(8).is_err());
    }

    #[test]
    fn heights_nondecreasing_for_complete_average_ward() {
        for linkage in [Linkage::Complete, Linkage::Average, Linkage::Ward] {
            let hca = Hca::new(&three_groups(), Metric::Euclidean, linkage).unwrap();
            let hs: Vec<f64> = hca.merges().iter().map(|m| m.height).collect();
            for w in hs.windows(2) {
                assert!(
                    w[1] >= w[0] - 1e-9,
                    "non-monotone heights for {linkage:?}: {hs:?}"
                );
            }
        }
    }

    #[test]
    fn merge_sizes_sum_to_n() {
        let hca = Hca::new(&three_groups(), Metric::Euclidean, Linkage::Ward).unwrap();
        assert_eq!(hca.merges().last().unwrap().size, 7);
        assert_eq!(hca.len(), 7);
        assert!(!hca.is_empty());
    }

    #[test]
    fn correlation_metric_groups_by_shape() {
        // Rows 0 and 1 have identical shape (scaled), row 2 is anti-correlated,
        // row 3 is unrelated.
        let rows = vec![
            vec![1.0, 2.0, 3.0, 4.0, 5.0],
            vec![2.0, 4.0, 6.0, 8.0, 10.0],
            vec![5.0, 4.0, 3.0, 2.0, 1.0],
            vec![1.0, -1.0, 2.0, -2.0, 0.0],
        ];
        let hca = Hca::new(&rows, Metric::Correlation, Linkage::Average).unwrap();
        let labels = hca.cut_k(3).unwrap();
        assert_eq!(labels[0], labels[1]);
        assert_ne!(labels[0], labels[2]);

        // With |r| distance the anti-correlated row joins the first group.
        let hca = Hca::new(&rows, Metric::AbsCorrelation, Linkage::Average).unwrap();
        let labels = hca.cut_k(2).unwrap();
        assert_eq!(labels[0], labels[1]);
        assert_eq!(labels[0], labels[2]);
        assert_ne!(labels[0], labels[3]);
    }

    #[test]
    fn standardize_zero_mean_unit_var() {
        let mut rows = vec![vec![1.0, 10.0], vec![2.0, 10.0], vec![3.0, 10.0]];
        standardize(&mut rows).unwrap();
        let col0: Vec<f64> = rows.iter().map(|r| r[0]).collect();
        let m = col0.iter().sum::<f64>() / 3.0;
        assert!(m.abs() < 1e-12);
        // Constant column becomes zeros.
        assert!(rows.iter().all(|r| r[1] == 0.0));
    }

    #[test]
    fn standardize_errors() {
        assert!(standardize(&mut []).is_err());
        let mut ragged = vec![vec![1.0], vec![1.0, 2.0]];
        assert!(standardize(&mut ragged).is_err());
    }

    #[test]
    fn rejects_degenerate_inputs() {
        assert!(Hca::new(&[vec![1.0]], Metric::Euclidean, Linkage::Single).is_err());
        let ragged = vec![vec![1.0], vec![1.0, 2.0]];
        assert!(Hca::new(&ragged, Metric::Euclidean, Linkage::Single).is_err());
        let nan = vec![vec![f64::NAN], vec![1.0]];
        assert!(Hca::new(&nan, Metric::Euclidean, Linkage::Single).is_err());
    }

    /// Deterministic pseudo-noise in [-0.5, 0.5) — generic positions give
    /// tie-free pairwise distances, where chain and reference dendrograms
    /// must agree exactly.
    fn hash_noise(i: usize) -> f64 {
        let h = (i as u64)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(0x2545_F491_4F6C_DD1D);
        let h = (h ^ (h >> 33)).wrapping_mul(0xC2B2_AE3D_27D4_EB4F);
        ((h >> 11) as f64) / ((1u64 << 53) as f64) - 0.5
    }

    #[test]
    fn chain_matches_reference_on_generic_data() {
        let rows: Vec<Vec<f64>> = (0..26)
            .map(|i| (0..5).map(|j| hash_noise(i * 31 + j) * 8.0).collect())
            .collect();
        for linkage in [
            Linkage::Single,
            Linkage::Complete,
            Linkage::Average,
            Linkage::Ward,
        ] {
            for metric in [
                Metric::Euclidean,
                Metric::Correlation,
                Metric::AbsCorrelation,
            ] {
                let fast = Hca::new(&rows, metric, linkage).unwrap();
                let slow = Hca::new_reference(&rows, metric, linkage).unwrap();
                for (step, (f, s)) in fast.merges().iter().zip(slow.merges()).enumerate() {
                    assert_eq!(
                        (f.a, f.b, f.size),
                        (s.a, s.b, s.size),
                        "{linkage:?}/{metric:?} step {step}"
                    );
                    assert!(
                        (f.height - s.height).abs() <= 1e-9 * s.height.abs().max(1.0),
                        "{linkage:?}/{metric:?} step {step}: {} vs {}",
                        f.height,
                        s.height
                    );
                }
                for k in 1..=rows.len() {
                    assert_eq!(
                        fast.cut_k(k).unwrap(),
                        slow.cut_k(k).unwrap(),
                        "{linkage:?}/{metric:?} k={k}"
                    );
                }
            }
        }
    }

    #[test]
    fn chain_matches_reference_two_observations() {
        let rows = vec![vec![0.0, 1.0], vec![2.0, 3.0]];
        let fast = Hca::new(&rows, Metric::Euclidean, Linkage::Ward).unwrap();
        let slow = Hca::new_reference(&rows, Metric::Euclidean, Linkage::Ward).unwrap();
        assert_eq!(fast.merges(), slow.merges());
    }

    #[test]
    fn reference_rejects_degenerate_inputs_too() {
        assert!(Hca::new_reference(&[vec![1.0]], Metric::Euclidean, Linkage::Single).is_err());
        let nan = vec![vec![f64::NAN], vec![1.0]];
        assert!(Hca::new_reference(&nan, Metric::Euclidean, Linkage::Single).is_err());
    }

    #[test]
    fn suggest_k_finds_obvious_structure() {
        let hca = Hca::new(&three_groups(), Metric::Euclidean, Linkage::Average).unwrap();
        let k = hca.suggest_k(2, 6).unwrap();
        assert_eq!(k, 3);
        assert!(hca.suggest_k(0, 3).is_err());
        assert!(hca.suggest_k(5, 3).is_err());
    }

    #[test]
    fn hca_chain_matches_naive_reference() {
        /// Hash noise in (−0.5, 0.5) per (row, column).
        fn jitter(i: usize, j: usize) -> f64 {
            let h = (i as u64)
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add((j as u64).wrapping_mul(0xC2B2_AE3D_27D4_EB4F));
            let h = (h ^ (h >> 31)).wrapping_mul(0x2545_F491_4F6C_DD1D);
            ((h >> 11) as f64) / ((1u64 << 53) as f64) - 0.5
        }
        for_each_case(256, 0x57A7_5EED, |seed| {
            let mut g = Cases::new(seed);
            let rows: Vec<Vec<f64>> =
                g.vec(4..20, |g| (0..4).map(|_| g.f64_in(-10.0, 10.0)).collect());
            // Jitter breaks exact distance ties — the one case where the two
            // (both correct) agglomeration orders may legitimately differ.
            let jittered: Vec<Vec<f64>> = rows
                .iter()
                .enumerate()
                .map(|(i, r)| {
                    r.iter()
                        .enumerate()
                        .map(|(j, v)| v + 1e-6 * jitter(i, j))
                        .collect()
                })
                .collect();
            for linkage in [
                Linkage::Single,
                Linkage::Complete,
                Linkage::Average,
                Linkage::Ward,
            ] {
                let fast = Hca::new(&jittered, Metric::Euclidean, linkage).unwrap();
                let slow = Hca::new_reference(&jittered, Metric::Euclidean, linkage).unwrap();
                assert_eq!(fast.merges().len(), slow.merges().len());
                for (a, b) in fast.merges().iter().zip(slow.merges()) {
                    assert_eq!((a.a, a.b, a.size), (b.a, b.b, b.size));
                    assert!(
                        (a.height - b.height).abs() <= 1e-9 * b.height.abs().max(1.0),
                        "height {} vs {}",
                        a.height,
                        b.height
                    );
                }
                // Every flat cut agrees too.
                for k in 1..=jittered.len() {
                    assert_eq!(fast.cut_k(k).unwrap(), slow.cut_k(k).unwrap());
                }
            }
        });
    }
}
