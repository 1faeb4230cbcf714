//! Error metrics used throughout the paper: MAPE and MPE.
//!
//! The paper's sign convention for execution-time error (§IV):
//! *"A negative MPE indicates that the gem5 model underestimates performance
//! (overestimates the execution time)."*  That convention is captured by
//! [`percentage_error`]`(reference, estimate)` = `(reference − estimate) /
//! reference × 100`, so an estimate that is too large yields a negative
//! error.
//!
//! # Examples
//!
//! ```
//! use gemstone_stats::metrics::{mape, mpe};
//!
//! let hw = [1.0, 2.0, 4.0];
//! let model = [1.1, 1.8, 4.0];
//! assert!(mape(&hw, &model).unwrap() > 0.0);
//! assert!(mpe(&hw, &model).unwrap().abs() < mape(&hw, &model).unwrap());
//! ```

use crate::{Result, StatsError};

fn check(reference: &[f64], estimate: &[f64], context: &'static str) -> Result<()> {
    if reference.len() != estimate.len() {
        return Err(StatsError::DimensionMismatch {
            context,
            expected: reference.len(),
            actual: estimate.len(),
        });
    }
    if reference.is_empty() {
        return Err(StatsError::NotEnoughData {
            needed: 1,
            available: 0,
        });
    }
    if reference.iter().chain(estimate).any(|v| !v.is_finite()) {
        return Err(StatsError::InvalidArgument("metrics: non-finite input"));
    }
    if reference.contains(&0.0) {
        return Err(StatsError::InvalidArgument(
            "metrics: zero reference value (percentage undefined)",
        ));
    }
    Ok(())
}

/// Signed percentage error of one estimate against its reference:
/// `(reference − estimate) / reference × 100`.
pub fn percentage_error(reference: f64, estimate: f64) -> f64 {
    (reference - estimate) / reference * 100.0
}

/// Mean Percentage Error (signed), in percent.
///
/// # Errors
///
/// Rejects mismatched lengths, empty input, non-finite values and zero
/// reference values.
pub fn mpe(reference: &[f64], estimate: &[f64]) -> Result<f64> {
    check(reference, estimate, "mpe")?;
    let s: f64 = reference
        .iter()
        .zip(estimate)
        .map(|(&r, &e)| percentage_error(r, e))
        .sum();
    Ok(s / reference.len() as f64)
}

/// Mean Absolute Percentage Error, in percent.
///
/// # Errors
///
/// Same conditions as [`mpe`].
pub fn mape(reference: &[f64], estimate: &[f64]) -> Result<f64> {
    check(reference, estimate, "mape")?;
    let s: f64 = reference
        .iter()
        .zip(estimate)
        .map(|(&r, &e)| percentage_error(r, e).abs())
        .sum();
    Ok(s / reference.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn approx(a: f64, b: f64, tol: f64) -> bool {
        (a - b).abs() <= tol
    }

    #[test]
    fn sign_convention_matches_paper() {
        // Model overestimates execution time → negative MPE.
        assert!(percentage_error(1.0, 1.5) < 0.0);
        // Model underestimates execution time → positive MPE.
        assert!(percentage_error(1.0, 0.5) > 0.0);
        assert!(approx(percentage_error(2.0, 1.0), 50.0, 1e-12));
    }

    #[test]
    fn mpe_and_mape_known() {
        let r = [10.0, 10.0];
        let e = [9.0, 11.0];
        assert!(approx(mpe(&r, &e).unwrap(), 0.0, 1e-12));
        assert!(approx(mape(&r, &e).unwrap(), 10.0, 1e-12));
    }

    #[test]
    fn mape_at_least_abs_mpe() {
        let r = [3.0, 5.0, 9.0, 2.0];
        let e = [2.5, 6.0, 9.5, 2.2];
        assert!(mape(&r, &e).unwrap() >= mpe(&r, &e).unwrap().abs());
    }

    #[test]
    fn error_conditions() {
        assert!(mpe(&[1.0], &[]).is_err());
        assert!(mpe(&[], &[]).is_err());
        assert!(mpe(&[0.0], &[1.0]).is_err());
        assert!(mape(&[1.0, f64::NAN], &[1.0, 1.0]).is_err());
    }
}
