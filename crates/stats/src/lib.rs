#![warn(missing_docs)]

//! # gemstone-stats
//!
//! A self-contained statistics toolkit underpinning the GemStone methodology
//! (Walker et al., *Hardware-Validated CPU Performance and Energy Modelling*,
//! ISPASS 2018).
//!
//! The paper's error-identification flow needs four statistical ingredients,
//! all provided here without external numeric dependencies:
//!
//! * **Least squares / OLS inference** ([`regress`]) — power-model fitting and
//!   the error-regression of §IV-D, with R², adjusted R², standard error of
//!   regression, per-coefficient *t*/*p* values and variance inflation
//!   factors.
//! * **Stepwise forward selection** ([`stepwise`]) — the §IV-D automatic
//!   event-selection procedure (maximise R², stop on *p* > 0.05).
//! * **Correlation analysis** ([`corr`]) — Pearson correlations of PMC
//!   event rates against modelling error (Fig. 5).
//! * **Hierarchical cluster analysis** ([`cluster`]) — agglomerative HCA used
//!   to group workloads (Fig. 3) and events (Fig. 5, §IV-C).
//!
//! Supporting these are a dense [`matrix`] module with Householder QR, the
//! special functions needed for *t*/*F* inference ([`dist`]), the error
//! metrics used throughout the paper ([`metrics`]) and the shared
//! worker-thread knob ([`threads`]) that every parallel analysis path
//! consults.
//!
//! # Examples
//!
//! ```
//! use gemstone_stats::regress::Ols;
//!
//! // y = 1 + 2·x, exactly.
//! let x = vec![vec![1.0], vec![2.0], vec![3.0], vec![4.0]];
//! let y = vec![3.0, 5.0, 7.0, 9.0];
//! let fit = Ols::fit(&x, &y, &["x".into()]).unwrap();
//! assert!((fit.coefficients[0] - 1.0).abs() < 1e-9); // intercept
//! assert!((fit.coefficients[1] - 2.0).abs() < 1e-9); // slope
//! assert!(fit.r_squared > 0.999_999);
//! ```

pub mod cluster;
pub mod corr;
pub mod dist;
pub mod matrix;
pub mod metrics;
pub mod regress;
pub mod stepwise;
pub mod threads;

use std::fmt;

/// Errors produced by the statistics toolkit.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum StatsError {
    /// Matrix/vector dimensions are incompatible for the requested operation.
    DimensionMismatch {
        /// What was being computed.
        context: &'static str,
        /// Expected size.
        expected: usize,
        /// Actual size.
        actual: usize,
    },
    /// The system is singular or numerically rank-deficient.
    Singular,
    /// Too few observations for the requested computation.
    NotEnoughData {
        /// Minimum observations required.
        needed: usize,
        /// Observations available.
        available: usize,
    },
    /// An argument was out of its valid domain.
    InvalidArgument(&'static str),
}

impl fmt::Display for StatsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StatsError::DimensionMismatch {
                context,
                expected,
                actual,
            } => write!(
                f,
                "dimension mismatch in {context}: expected {expected}, got {actual}"
            ),
            StatsError::Singular => write!(f, "matrix is singular or rank-deficient"),
            StatsError::NotEnoughData { needed, available } => write!(
                f,
                "not enough data: need at least {needed} observations, have {available}"
            ),
            StatsError::InvalidArgument(what) => write!(f, "invalid argument: {what}"),
        }
    }
}

impl std::error::Error for StatsError {}

/// Convenience result alias for this crate.
pub type Result<T> = std::result::Result<T, StatsError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_is_nonempty() {
        let errs = [
            StatsError::DimensionMismatch {
                context: "test",
                expected: 3,
                actual: 2,
            },
            StatsError::Singular,
            StatsError::NotEnoughData {
                needed: 5,
                available: 1,
            },
            StatsError::InvalidArgument("x"),
        ];
        for e in errs {
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<StatsError>();
    }
}
