//! Pearson correlation, pairwise and as a sweep of many columns against one
//! target.
//!
//! GemStone correlates every hardware PMC event rate (and every gem5
//! statistic) with the execution-time MPE to locate sources of error
//! (Fig. 5, §IV-B/§IV-C of the paper).
//!
//! # Examples
//!
//! ```
//! use gemstone_stats::corr::pearson;
//!
//! let x = [1.0, 2.0, 3.0, 4.0];
//! let y = [2.0, 4.0, 6.0, 8.0];
//! assert!((pearson(&x, &y).unwrap() - 1.0).abs() < 1e-12);
//! ```

use crate::threads::parallel_map;
use crate::{Result, StatsError};

/// Process-wide count of columns pushed through the sweep fan-outs
/// (`corr.sweep_columns` in the metrics registry).
fn sweep_columns_counter() -> &'static gemstone_obs::Counter {
    static C: std::sync::OnceLock<std::sync::Arc<gemstone_obs::Counter>> =
        std::sync::OnceLock::new();
    C.get_or_init(|| gemstone_obs::Registry::global().counter("corr.sweep_columns"))
}

/// Pearson product-moment correlation coefficient of `x` and `y`.
///
/// Returns `0.0` when either vector has zero variance (the convention used
/// throughout GemStone: a constant event carries no error signal).
///
/// # Errors
///
/// * [`StatsError::DimensionMismatch`] when lengths differ.
/// * [`StatsError::NotEnoughData`] when fewer than 2 observations.
/// * [`StatsError::InvalidArgument`] on non-finite values.
pub fn pearson(x: &[f64], y: &[f64]) -> Result<f64> {
    if x.len() != y.len() {
        return Err(StatsError::DimensionMismatch {
            context: "pearson",
            expected: x.len(),
            actual: y.len(),
        });
    }
    if x.len() < 2 {
        return Err(StatsError::NotEnoughData {
            needed: 2,
            available: x.len(),
        });
    }
    if x.iter().chain(y).any(|v| !v.is_finite()) {
        return Err(StatsError::InvalidArgument("pearson: non-finite input"));
    }
    let (my, syy) = target_stats(y);
    Ok(pearson_against(x, y, my, syy))
}

/// Mean and centred sum of squares of a sweep target, computed once and
/// shared across every column of a sweep. The accumulation order matches the
/// single-pass loop in [`pearson`] exactly, so sweep results are
/// bit-identical to pairwise calls.
fn target_stats(y: &[f64]) -> (f64, f64) {
    let my = y.iter().sum::<f64>() / y.len() as f64;
    let mut syy = 0.0;
    for b in y {
        let dy = b - my;
        syy += dy * dy;
    }
    (my, syy)
}

/// Pearson correlation of `x` against a target with precomputed stats.
/// Inputs are assumed validated (equal lengths ≥ 2, all finite).
fn pearson_against(x: &[f64], y: &[f64], my: f64, syy: f64) -> f64 {
    let n = x.len() as f64;
    let mx = x.iter().sum::<f64>() / n;
    let mut sxy = 0.0;
    let mut sxx = 0.0;
    for (a, b) in x.iter().zip(y) {
        let dx = a - mx;
        let dy = b - my;
        sxy += dx * dy;
        sxx += dx * dx;
    }
    if sxx == 0.0 || syy == 0.0 {
        return 0.0;
    }
    (sxy / (sxx.sqrt() * syy.sqrt())).clamp(-1.0, 1.0)
}

/// Pearson correlation of every column against one shared target, as in the
/// Fig. 5 / §IV-C sweeps where thousands of event rates are correlated with
/// the MPE.
///
/// The target's mean and centred sum of squares are computed once, and the
/// per-column work is fanned across [`crate::threads::worker_threads`]
/// scoped workers with pre-assigned output slots. Result `j` is bit-identical
/// to `pearson(&columns[j], y)` regardless of the worker count.
///
/// # Errors
///
/// Same conditions as [`pearson`], applied per column; the first failing
/// column (in index order) determines the error.
pub fn pearson_sweep(columns: &[Vec<f64>], y: &[f64]) -> Result<Vec<f64>> {
    if y.len() < 2 {
        return Err(StatsError::NotEnoughData {
            needed: 2,
            available: y.len(),
        });
    }
    if y.iter().any(|v| !v.is_finite()) {
        return Err(StatsError::InvalidArgument("pearson: non-finite input"));
    }
    sweep_columns_counter().add(columns.len() as u64);
    let (my, syy) = target_stats(y);
    let per_col = parallel_map(columns, |_, x| -> Result<f64> {
        if x.len() != y.len() {
            return Err(StatsError::DimensionMismatch {
                context: "pearson",
                expected: x.len(),
                actual: y.len(),
            });
        }
        if x.iter().any(|v| !v.is_finite()) {
            return Err(StatsError::InvalidArgument("pearson: non-finite input"));
        }
        Ok(pearson_against(x, y, my, syy))
    });
    per_col.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn approx(a: f64, b: f64, tol: f64) -> bool {
        (a - b).abs() <= tol
    }

    #[test]
    fn perfect_positive_and_negative() {
        let x = [1.0, 2.0, 3.0, 5.0];
        let up: Vec<f64> = x.iter().map(|v| 3.0 * v + 1.0).collect();
        let down: Vec<f64> = x.iter().map(|v| -2.0 * v).collect();
        assert!(approx(pearson(&x, &up).unwrap(), 1.0, 1e-12));
        assert!(approx(pearson(&x, &down).unwrap(), -1.0, 1e-12));
    }

    #[test]
    fn zero_variance_is_zero_corr() {
        let x = [1.0, 1.0, 1.0];
        let y = [1.0, 2.0, 3.0];
        assert_eq!(pearson(&x, &y).unwrap(), 0.0);
    }

    #[test]
    fn uncorrelated_orthogonal() {
        let x = [1.0, -1.0, 1.0, -1.0];
        let y = [1.0, 1.0, -1.0, -1.0];
        assert!(approx(pearson(&x, &y).unwrap(), 0.0, 1e-12));
    }

    #[test]
    fn errors_on_bad_input() {
        assert!(pearson(&[1.0], &[1.0, 2.0]).is_err());
        assert!(pearson(&[1.0], &[2.0]).is_err());
        assert!(pearson(&[1.0, f64::NAN], &[2.0, 3.0]).is_err());
    }

    /// Deterministic pseudo-noise in [-0.5, 0.5).
    fn hash_noise(i: usize) -> f64 {
        let h = (i as u64)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(0x2545_F491_4F6C_DD1D);
        let h = (h ^ (h >> 31)).wrapping_mul(0xC2B2_AE3D_27D4_EB4F);
        ((h >> 11) as f64) / ((1u64 << 53) as f64) - 0.5
    }

    #[test]
    fn sweep_is_bit_identical_to_pairwise() {
        let n = 23;
        let y: Vec<f64> = (0..n).map(|i| hash_noise(i + 7_000) * 4.0).collect();
        let cols: Vec<Vec<f64>> = (0..37)
            .map(|c| {
                (0..n)
                    .map(|i| hash_noise(i + c * 997) * 3.0 + if c % 5 == 0 { y[i] } else { 0.0 })
                    .collect()
            })
            .collect();
        let ps = pearson_sweep(&cols, &y).unwrap();
        for (j, col) in cols.iter().enumerate() {
            // Exact equality on purpose: the sweep promises bit-identical
            // results to the pairwise function.
            assert_eq!(ps[j], pearson(col, &y).unwrap(), "pearson col {j}");
        }
    }

    #[test]
    fn sweep_errors_match_pairwise_conditions() {
        let y = vec![1.0, 2.0, 3.0];
        assert!(pearson_sweep(&[vec![1.0, 2.0]], &y).is_err());
        assert!(pearson_sweep(&[vec![1.0, f64::NAN, 2.0]], &y).is_err());
        assert!(pearson_sweep(&[], &[1.0]).is_err());
        // Empty column set over a valid target is fine.
        assert_eq!(pearson_sweep(&[], &y).unwrap(), Vec::<f64>::new());
    }
}
