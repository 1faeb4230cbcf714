//! Special functions and probability distributions needed for OLS inference:
//! log-gamma, the regularised incomplete beta function, and the Student-*t*
//! and *F* distributions.
//!
//! The *p*-values of §IV-D and §V of the paper ("terms with *p*-values above
//! 0.05 are not statistically significant") are two-sided *t*-tests computed
//! with [`student_t_sf2`].
//!
//! # Examples
//!
//! ```
//! use gemstone_stats::dist::student_t_cdf;
//!
//! // The t distribution is symmetric around zero.
//! let p = student_t_cdf(0.0, 7.0).unwrap();
//! assert!((p - 0.5).abs() < 1e-12);
//! ```

use crate::{Result, StatsError};

/// Natural log of the gamma function (Lanczos approximation, |error| < 2e-10
/// for `x > 0`).
///
/// # Panics
///
/// Panics in debug builds if `x <= 0`.
pub fn ln_gamma(x: f64) -> f64 {
    debug_assert!(x > 0.0, "ln_gamma requires x > 0");
    // Lanczos coefficients (g = 7, n = 9).
    const G: f64 = 7.0;
    const COEF: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x < 0.5 {
        // Reflection formula.
        let pi = std::f64::consts::PI;
        return (pi / (pi * x).sin()).ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let mut a = COEF[0];
    let t = x + G + 0.5;
    for (i, &c) in COEF.iter().enumerate().skip(1) {
        a += c / (x + i as f64);
    }
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + a.ln()
}

/// Continued-fraction helper for the incomplete beta function
/// (Numerical Recipes `betacf`).
fn betacf(a: f64, b: f64, x: f64) -> f64 {
    const MAX_ITER: usize = 300;
    const EPS: f64 = 3e-14;
    const FPMIN: f64 = 1e-300;

    let qab = a + b;
    let qap = a + 1.0;
    let qam = a - 1.0;
    let mut c = 1.0;
    let mut d = 1.0 - qab * x / qap;
    if d.abs() < FPMIN {
        d = FPMIN;
    }
    d = 1.0 / d;
    let mut h = d;
    for m in 1..=MAX_ITER {
        let m = m as f64;
        let m2 = 2.0 * m;
        let aa = m * (b - m) * x / ((qam + m2) * (a + m2));
        d = 1.0 + aa * d;
        if d.abs() < FPMIN {
            d = FPMIN;
        }
        c = 1.0 + aa / c;
        if c.abs() < FPMIN {
            c = FPMIN;
        }
        d = 1.0 / d;
        h *= d * c;
        let aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2));
        d = 1.0 + aa * d;
        if d.abs() < FPMIN {
            d = FPMIN;
        }
        c = 1.0 + aa / c;
        if c.abs() < FPMIN {
            c = FPMIN;
        }
        d = 1.0 / d;
        let del = d * c;
        h *= del;
        if (del - 1.0).abs() < EPS {
            break;
        }
    }
    h
}

/// Regularised incomplete beta function `I_x(a, b)`.
///
/// # Errors
///
/// Returns [`StatsError::InvalidArgument`] if `a <= 0`, `b <= 0` or
/// `x ∉ [0, 1]`.
pub fn inc_beta(a: f64, b: f64, x: f64) -> Result<f64> {
    if a <= 0.0 || b <= 0.0 {
        return Err(StatsError::InvalidArgument("inc_beta requires a, b > 0"));
    }
    if !(0.0..=1.0).contains(&x) {
        return Err(StatsError::InvalidArgument("inc_beta requires 0 <= x <= 1"));
    }
    if x == 0.0 {
        return Ok(0.0);
    }
    if x == 1.0 {
        return Ok(1.0);
    }
    let ln_front = ln_gamma(a + b) - ln_gamma(a) - ln_gamma(b) + a * x.ln() + b * (1.0 - x).ln();
    let front = ln_front.exp();
    let val = if x < (a + 1.0) / (a + b + 2.0) {
        front * betacf(a, b, x) / a
    } else {
        1.0 - front * betacf(b, a, 1.0 - x) / b
    };
    Ok(val.clamp(0.0, 1.0))
}

/// CDF of the Student-*t* distribution with `df` degrees of freedom.
///
/// # Errors
///
/// Returns [`StatsError::InvalidArgument`] if `df <= 0` or `t` is NaN.
pub fn student_t_cdf(t: f64, df: f64) -> Result<f64> {
    if df <= 0.0 {
        return Err(StatsError::InvalidArgument("student_t_cdf requires df > 0"));
    }
    if t.is_nan() {
        return Err(StatsError::InvalidArgument("student_t_cdf: t is NaN"));
    }
    if t.is_infinite() {
        return Ok(if t > 0.0 { 1.0 } else { 0.0 });
    }
    let x = df / (df + t * t);
    let ib = inc_beta(df / 2.0, 0.5, x)?;
    Ok(if t > 0.0 { 1.0 - 0.5 * ib } else { 0.5 * ib })
}

/// Two-sided survival probability `P(|T| >= |t|)` for the Student-*t*
/// distribution — the standard regression *p*-value.
///
/// # Errors
///
/// Returns [`StatsError::InvalidArgument`] on a non-positive `df` or NaN `t`.
pub fn student_t_sf2(t: f64, df: f64) -> Result<f64> {
    if df <= 0.0 {
        return Err(StatsError::InvalidArgument("student_t_sf2 requires df > 0"));
    }
    if t.is_nan() {
        return Err(StatsError::InvalidArgument("student_t_sf2: t is NaN"));
    }
    if t.is_infinite() {
        return Ok(0.0);
    }
    let x = df / (df + t * t);
    inc_beta(df / 2.0, 0.5, x)
}

/// CDF of the *F* distribution with `(d1, d2)` degrees of freedom.
///
/// # Errors
///
/// Returns [`StatsError::InvalidArgument`] on non-positive degrees of freedom
/// or negative `f`.
pub fn f_cdf(f: f64, d1: f64, d2: f64) -> Result<f64> {
    if d1 <= 0.0 || d2 <= 0.0 {
        return Err(StatsError::InvalidArgument("f_cdf requires d1, d2 > 0"));
    }
    if f < 0.0 {
        return Err(StatsError::InvalidArgument("f_cdf requires f >= 0"));
    }
    let x = d1 * f / (d1 * f + d2);
    inc_beta(d1 / 2.0, d2 / 2.0, x)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn approx(a: f64, b: f64, tol: f64) -> bool {
        (a - b).abs() <= tol
    }

    #[test]
    fn ln_gamma_known_values() {
        // Γ(1) = Γ(2) = 1, Γ(5) = 24, Γ(0.5) = √π.
        assert!(approx(ln_gamma(1.0), 0.0, 1e-10));
        assert!(approx(ln_gamma(2.0), 0.0, 1e-10));
        assert!(approx(ln_gamma(5.0), 24.0_f64.ln(), 1e-9));
        assert!(approx(
            ln_gamma(0.5),
            std::f64::consts::PI.sqrt().ln(),
            1e-9
        ));
    }

    #[test]
    fn ln_gamma_recurrence() {
        // Γ(x+1) = x Γ(x)
        for &x in &[0.7, 1.3, 2.9, 6.4, 11.0] {
            assert!(approx(ln_gamma(x + 1.0), ln_gamma(x) + x.ln(), 1e-9));
        }
    }

    #[test]
    fn inc_beta_boundaries() {
        assert_eq!(inc_beta(2.0, 3.0, 0.0).unwrap(), 0.0);
        assert_eq!(inc_beta(2.0, 3.0, 1.0).unwrap(), 1.0);
    }

    #[test]
    fn inc_beta_symmetric_case() {
        // I_{0.5}(a, a) = 0.5 for any a.
        for &a in &[0.5, 1.0, 3.0, 10.0] {
            assert!(approx(inc_beta(a, a, 0.5).unwrap(), 0.5, 1e-10));
        }
    }

    #[test]
    fn inc_beta_uniform_case() {
        // I_x(1, 1) = x.
        for &x in &[0.1, 0.25, 0.5, 0.9] {
            assert!(approx(inc_beta(1.0, 1.0, x).unwrap(), x, 1e-10));
        }
    }

    #[test]
    fn inc_beta_rejects_bad_args() {
        assert!(inc_beta(0.0, 1.0, 0.5).is_err());
        assert!(inc_beta(1.0, 1.0, 1.5).is_err());
    }

    #[test]
    fn t_cdf_symmetry_and_midpoint() {
        assert!(approx(student_t_cdf(0.0, 5.0).unwrap(), 0.5, 1e-12));
        let p = student_t_cdf(1.3, 9.0).unwrap();
        let q = student_t_cdf(-1.3, 9.0).unwrap();
        assert!(approx(p + q, 1.0, 1e-12));
    }

    #[test]
    fn t_cdf_known_quantiles() {
        // t_{0.975, 10} ≈ 2.228; CDF(2.228, 10) ≈ 0.975.
        assert!(approx(student_t_cdf(2.228, 10.0).unwrap(), 0.975, 5e-4));
        // Large df approaches normal: CDF(1.96, 1e6) ≈ 0.975.
        assert!(approx(student_t_cdf(1.96, 1e6).unwrap(), 0.975, 1e-3));
    }

    #[test]
    fn t_two_sided_pvalue() {
        // p(|T| >= 2.228) with 10 df ≈ 0.05.
        assert!(approx(student_t_sf2(2.228, 10.0).unwrap(), 0.05, 1e-3));
        // A huge t gives p ≈ 0.
        assert!(student_t_sf2(50.0, 10.0).unwrap() < 1e-10);
        assert_eq!(student_t_sf2(f64::INFINITY, 10.0).unwrap(), 0.0);
    }

    #[test]
    fn f_cdf_known() {
        // F(1, d, d) = 0.5 by symmetry of the ratio of identical chi-squares.
        for &d in &[3.0, 8.0, 20.0] {
            assert!(approx(f_cdf(1.0, d, d).unwrap(), 0.5, 1e-10));
        }
        // F_{0.95}(2, 10) ≈ 4.103.
        assert!(approx(f_cdf(4.103, 2.0, 10.0).unwrap(), 0.95, 1e-3));
    }

    #[test]
    fn distribution_errors() {
        assert!(student_t_cdf(1.0, 0.0).is_err());
        assert!(student_t_cdf(f64::NAN, 3.0).is_err());
        assert!(student_t_sf2(1.0, -1.0).is_err());
        assert!(f_cdf(-1.0, 2.0, 2.0).is_err());
        assert!(f_cdf(1.0, 0.0, 2.0).is_err());
    }
}
