//! Property-based tests for the statistics toolkit.
//!
//! Each property runs on a fixed seed sequence (`rand::cases`); a failing
//! case prints its seed.

use gemstone_stats::cluster::{standardize, Hca, Linkage, Metric};
use gemstone_stats::corr::{pearson, pearson_sweep};
use gemstone_stats::dist::{inc_beta, student_t_cdf, student_t_sf2};
use gemstone_stats::matrix::{Matrix, Qr};
use gemstone_stats::metrics::{mape, mpe};
use gemstone_stats::regress::Ols;
use rand::cases::{for_each_case, Cases};

/// Cases per property.
const CASES: usize = 256;
/// The seed sequence every property draws from.
const SEED: u64 = 0x57A7_5EED;

/// A "nice" finite float that keeps the numerics well away from overflow
/// while still exercising sign and magnitude variation.
fn nice_f64(g: &mut Cases) -> f64 {
    loop {
        let v = g.f64_in(-1e3, 1e3);
        if v.abs() > 1e-9 || v == 0.0 {
            return v;
        }
    }
}

/// The spread of `xs` (max − min).
fn spread(xs: &[f64]) -> f64 {
    xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
        - xs.iter().cloned().fold(f64::INFINITY, f64::min)
}

/// Mean absolute error of equal-length slices.
fn mae(reference: &[f64], estimate: &[f64]) -> f64 {
    assert_eq!(reference.len(), estimate.len());
    let sum: f64 = reference
        .iter()
        .zip(estimate)
        .map(|(r, e)| (r - e).abs())
        .sum();
    sum / reference.len() as f64
}

/// Root-mean-square error of equal-length slices.
fn rmse(reference: &[f64], estimate: &[f64]) -> f64 {
    assert_eq!(reference.len(), estimate.len());
    let sum: f64 = reference
        .iter()
        .zip(estimate)
        .map(|(r, e)| (r - e) * (r - e))
        .sum();
    (sum / reference.len() as f64).sqrt()
}

/// A matrix from equal-length rows.
fn from_rows(rows: &[Vec<f64>]) -> Matrix {
    let mut m = Matrix::zeros(rows.len(), rows[0].len());
    for (r, row) in rows.iter().enumerate() {
        for (c, &v) in row.iter().enumerate() {
            m.set(r, c, v);
        }
    }
    m
}

/// Column `c` of `m`.
fn col(m: &Matrix, c: usize) -> Vec<f64> {
    (0..m.rows()).map(|r| m.get(r, c)).collect()
}

/// `n` rows of `width` floats in `[lo, hi)`, `n` drawn from `rows`.
fn matrix(
    g: &mut Cases,
    rows: std::ops::Range<usize>,
    width: usize,
    lo: f64,
    hi: f64,
) -> Vec<Vec<f64>> {
    g.vec(rows, |g| (0..width).map(|_| g.f64_in(lo, hi)).collect())
}

#[test]
fn pearson_is_bounded_and_symmetric() {
    for_each_case(CASES, SEED, |seed| {
        let mut g = Cases::new(seed);
        let xs = g.vec(3..40, nice_f64);
        let ys = g.vec(3..40, nice_f64);
        let n = xs.len().min(ys.len());
        let (x, y) = (&xs[..n], &ys[..n]);
        let r = pearson(x, y).unwrap();
        assert!((-1.0..=1.0).contains(&r));
        let r2 = pearson(y, x).unwrap();
        assert!((r - r2).abs() < 1e-12);
    });
}

#[test]
fn pearson_invariant_to_affine_transform() {
    for_each_case(CASES, SEED, |seed| {
        let mut g = Cases::new(seed);
        let xs = g.vec(4..30, |g| g.f64_in(-100.0, 100.0));
        let a = g.f64_in(0.1, 10.0);
        let b = g.f64_in(-50.0, 50.0);
        // Skip constant vectors (correlation defined as 0 there).
        if spread(&xs) <= 1e-6 {
            return;
        }
        let ys: Vec<f64> = xs.iter().map(|v| a * v + b).collect();
        let r = pearson(&xs, &ys).unwrap();
        assert!((r - 1.0).abs() < 1e-9, "r = {r}");
        let neg: Vec<f64> = xs.iter().map(|v| -a * v + b).collect();
        let rn = pearson(&xs, &neg).unwrap();
        assert!((rn + 1.0).abs() < 1e-9, "rn = {rn}");
    });
}

#[test]
fn lstsq_residual_orthogonal_to_columns() {
    for_each_case(CASES, SEED, |seed| {
        let mut g = Cases::new(seed);
        let rows = matrix(&mut g, 6..30, 2, -10.0, 10.0);
        let c0 = g.f64_in(-5.0, 5.0);
        let c1 = g.f64_in(-5.0, 5.0);
        // Build a well-conditioned 2-column design with distinct columns.
        let design: Vec<Vec<f64>> = rows
            .iter()
            .enumerate()
            .map(|(i, r)| vec![r[0] + i as f64 * 0.05, r[1] - i as f64 * 0.07])
            .collect();
        let y: Vec<f64> = design
            .iter()
            .enumerate()
            .map(|(i, r)| c0 * r[0] + c1 * r[1] + ((i % 3) as f64 - 1.0))
            .collect();
        let a = from_rows(&design);
        // A rank-deficient random draw is acceptable.
        if let Ok(x) = Qr::new(&a).and_then(|qr| qr.solve(&y)) {
            // Residual must be orthogonal to each column.
            let fitted = a.matvec(&x).unwrap();
            let resid: Vec<f64> = y.iter().zip(&fitted).map(|(p, q)| p - q).collect();
            let ynorm = y.iter().map(|v| v * v).sum::<f64>().sqrt().max(1.0);
            for c in 0..2 {
                let col = col(&a, c);
                let dot: f64 = col.iter().zip(&resid).map(|(p, q)| p * q).sum();
                assert!(dot.abs() < 1e-6 * ynorm, "dot = {dot}");
            }
        }
    });
}

#[test]
fn ols_r2_in_unit_interval_and_adj_below() {
    for_each_case(CASES, SEED, |seed| {
        let mut g = Cases::new(seed);
        let seed_rows = matrix(&mut g, 8..40, 2, -10.0, 10.0);
        let x: Vec<Vec<f64>> = seed_rows
            .iter()
            .enumerate()
            .map(|(i, r)| vec![r[0] + (i as f64).sin(), r[1] * 0.5 + (i as f64 * 0.3).cos()])
            .collect();
        let y: Vec<f64> = seed_rows
            .iter()
            .enumerate()
            .map(|(i, r)| r[0] - r[1] + (i % 5) as f64)
            .collect();
        if let Ok(fit) = Ols::fit(&x, &y, &["a".into(), "b".into()]) {
            assert!((0.0..=1.0).contains(&fit.r_squared));
            assert!(fit.adj_r_squared <= fit.r_squared + 1e-12);
            assert!(fit.ser >= 0.0);
            // p-values in [0, 1].
            for t in &fit.terms {
                assert!(t.p_value.is_nan() || (0.0..=1.0).contains(&t.p_value));
            }
            // Residual mean ≈ 0 (intercept included).
            let m: f64 = fit.residuals.iter().sum::<f64>() / fit.residuals.len() as f64;
            assert!(m.abs() < 1e-6);
        }
    });
}

#[test]
fn t_cdf_monotone_in_t() {
    for_each_case(CASES, SEED, |seed| {
        let mut g = Cases::new(seed);
        let df = g.f64_in(1.0, 100.0);
        let t1 = g.f64_in(-8.0, 8.0);
        let dt = g.f64_in(0.01, 4.0);
        let a = student_t_cdf(t1, df).unwrap();
        let b = student_t_cdf(t1 + dt, df).unwrap();
        assert!(b >= a - 1e-12);
    });
}

#[test]
fn t_sf2_matches_cdf_tails() {
    for_each_case(CASES, SEED, |seed| {
        let mut g = Cases::new(seed);
        let df = g.f64_in(1.0, 60.0);
        let t = g.f64_in(0.0, 6.0);
        let p2 = student_t_sf2(t, df).unwrap();
        let tail = 2.0 * (1.0 - student_t_cdf(t, df).unwrap());
        assert!((p2 - tail).abs() < 1e-9, "p2={p2} tail={tail}");
    });
}

#[test]
fn inc_beta_monotone_in_x() {
    for_each_case(CASES, SEED, |seed| {
        let mut g = Cases::new(seed);
        let a = g.f64_in(0.2, 20.0);
        let b = g.f64_in(0.2, 20.0);
        let x1 = g.f64_in(0.0, 1.0);
        let x2 = g.f64_in(0.0, 1.0);
        let (lo, hi) = if x1 <= x2 { (x1, x2) } else { (x2, x1) };
        let f_lo = inc_beta(a, b, lo).unwrap();
        let f_hi = inc_beta(a, b, hi).unwrap();
        assert!(f_hi >= f_lo - 1e-10);
    });
}

#[test]
fn mape_bounds_mpe() {
    for_each_case(CASES, SEED, |seed| {
        let mut g = Cases::new(seed);
        let pairs = g.vec(1..30, |g| (g.f64_in(0.5, 100.0), g.f64_in(0.1, 100.0)));
        let r: Vec<f64> = pairs.iter().map(|p| p.0).collect();
        let e: Vec<f64> = pairs.iter().map(|p| p.1).collect();
        let mape_v = mape(&r, &e).unwrap();
        let mpe_v = mpe(&r, &e).unwrap();
        assert!(mape_v >= mpe_v.abs() - 1e-9);
        assert!(mape_v >= 0.0);
    });
}

#[test]
fn rmse_at_least_mae() {
    for_each_case(CASES, SEED, |seed| {
        let mut g = Cases::new(seed);
        let pairs = g.vec(1..30, |g| (g.f64_in(-50.0, 50.0), g.f64_in(-50.0, 50.0)));
        let r: Vec<f64> = pairs.iter().map(|p| p.0).collect();
        let e: Vec<f64> = pairs.iter().map(|p| p.1).collect();
        assert!(rmse(&r, &e) >= mae(&r, &e) - 1e-12);
    });
}

#[test]
fn mae_rmse_known() {
    let r = [1.0, 2.0, 3.0];
    let e = [2.0, 2.0, 1.0];
    assert!((mae(&r, &e) - 1.0).abs() <= 1e-12);
    assert!((rmse(&r, &e) - (5.0_f64 / 3.0).sqrt()).abs() <= 1e-12);
}

#[test]
fn hca_cut_k_produces_exactly_k_labels() {
    for_each_case(CASES, SEED, |seed| {
        let mut g = Cases::new(seed);
        let rows = matrix(&mut g, 4..20, 3, -10.0, 10.0);
        let kseed = g.range(1, 100) as usize;
        let hca = Hca::new(&rows, Metric::Euclidean, Linkage::Average).unwrap();
        let k = 1 + kseed % rows.len();
        let labels = hca.cut_k(k).unwrap();
        assert_eq!(labels.len(), rows.len());
        let mut uniq = labels.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), k);
        // Labels are dense 0..k.
        assert_eq!(uniq, (0..k).collect::<Vec<_>>());
    });
}

#[test]
fn hca_merge_count_is_n_minus_1() {
    for_each_case(CASES, SEED, |seed| {
        let mut g = Cases::new(seed);
        let rows = matrix(&mut g, 2..25, 2, -5.0, 5.0);
        for linkage in [
            Linkage::Single,
            Linkage::Complete,
            Linkage::Average,
            Linkage::Ward,
        ] {
            let hca = Hca::new(&rows, Metric::Euclidean, linkage).unwrap();
            assert_eq!(hca.merges().len(), rows.len() - 1);
            assert_eq!(hca.merges().last().unwrap().size, rows.len());
        }
    });
}

#[test]
fn correlation_sweep_matches_pairwise_bitwise() {
    for_each_case(CASES, SEED, |seed| {
        let mut g = Cases::new(seed);
        let cols = matrix(&mut g, 1..12, 8, -100.0, 100.0);
        let y: Vec<f64> = (0..8).map(|_| g.f64_in(-100.0, 100.0)).collect();
        let ps = pearson_sweep(&cols, &y).unwrap();
        for (c, &r) in cols.iter().zip(&ps) {
            assert_eq!(pearson(c, &y).unwrap().to_bits(), r.to_bits());
        }
    });
}

#[test]
fn standardize_columns_have_unit_variance() {
    for_each_case(CASES, SEED, |seed| {
        let mut g = Cases::new(seed);
        let mut m = matrix(&mut g, 3..30, 4, -100.0, 100.0);
        standardize(&mut m).unwrap();
        let n = m.len() as f64;
        for j in 0..4 {
            let mean: f64 = m.iter().map(|r| r[j]).sum::<f64>() / n;
            assert!(mean.abs() < 1e-9);
            let var: f64 = m.iter().map(|r| r[j] * r[j]).sum::<f64>() / n;
            // Either standardized (var 1) or constant column (var 0).
            assert!((var - 1.0).abs() < 1e-6 || var < 1e-12, "var = {var}");
        }
    });
}
