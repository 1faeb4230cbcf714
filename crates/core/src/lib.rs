#![warn(missing_docs)]

//! # gemstone-core
//!
//! The GemStone pipeline: automated validation of CPU performance models
//! against a reference hardware platform, statistical identification of
//! error sources, and power/energy analysis — the primary contribution of
//! Walker et al., *Hardware-Validated CPU Performance and Energy
//! Modelling* (ISPASS 2018).
//!
//! The crate mirrors the paper's Fig. 1 data flow:
//!
//! | paper box | here |
//! |---|---|
//! | (a) HW characterisation, (b) gem5 simulation | [`experiment`] |
//! | (f) collate results | [`collate`] |
//! | (g) workload HCA | [`analysis::hca_workloads`] |
//! | (h) identify error sources | [`analysis::pmc_corr`], [`analysis::gem5_corr`], [`analysis::error_regression`], [`analysis::event_compare`], [`analysis::microbench`] |
//! | (i, m) power model building | the `gemstone-powmon` crate |
//! | (k) power/energy analysis | [`analysis::power_energy`], [`analysis::scaling`] |
//! | §VII model-change validation | [`analysis::improvement`] |
//!
//! [`pipeline::GemStone`] wires the whole methodology together, and
//! [`repro`] runs it once and writes one file per experiment;
//! [`render`] formats each analysis result through the tables, ASCII
//! charts and CSV of [`report`], like the figures the tool generates in
//! the paper ("All graphs in this work, with the exception of Fig. 4, are
//! generated by GemStone").
//!
//! # Example
//!
//! ```no_run
//! use gemstone_core::pipeline::{GemStone, PipelineOptions};
//!
//! let report = GemStone::new(PipelineOptions::default()).run().unwrap();
//! println!("{}", report.render());
//! ```

pub mod analysis;
pub mod checkpoint;
pub mod collate;
pub mod experiment;
pub mod jsonio;
pub mod persist;
pub mod pipeline;
pub mod render;
pub mod report;
pub mod repro;
pub mod resilience;
pub mod service;

use gemstone_stats::StatsError;
use std::fmt;

/// Errors from the GemStone pipeline.
#[derive(Debug)]
#[non_exhaustive]
pub enum GemStoneError {
    /// A statistical computation failed.
    Stats(StatsError),
    /// The pipeline was asked to analyse data it does not have.
    MissingData(String),
    /// Result persistence failed at the filesystem level (missing file,
    /// permissions, disk full).
    Io(std::io::Error),
    /// A persisted artefact exists but its contents are invalid — corrupt
    /// or truncated JSON, or a checkpoint from an incompatible run. Kept
    /// distinct from [`GemStoneError::Io`] so retry/recovery logic can
    /// tell "not there yet" (retryable) from "there but broken" (not).
    Parse(String),
}

impl fmt::Display for GemStoneError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GemStoneError::Stats(e) => write!(f, "statistics error: {e}"),
            GemStoneError::MissingData(what) => write!(f, "missing data: {what}"),
            GemStoneError::Io(e) => write!(f, "i/o error: {e}"),
            GemStoneError::Parse(what) => write!(f, "parse error: {what}"),
        }
    }
}

impl std::error::Error for GemStoneError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            GemStoneError::Stats(e) => Some(e),
            GemStoneError::Io(e) => Some(e),
            GemStoneError::MissingData(_) | GemStoneError::Parse(_) => None,
        }
    }
}

impl From<StatsError> for GemStoneError {
    fn from(e: StatsError) -> Self {
        GemStoneError::Stats(e)
    }
}

impl From<std::io::Error> for GemStoneError {
    fn from(e: std::io::Error) -> Self {
        GemStoneError::Io(e)
    }
}

/// Result alias for the pipeline.
pub type Result<T> = std::result::Result<T, GemStoneError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display() {
        let e = GemStoneError::MissingData("hw runs".into());
        assert!(e.to_string().contains("hw runs"));
        let e: GemStoneError = StatsError::Singular.into();
        assert!(e.to_string().contains("singular"));
        let e = GemStoneError::Parse("bad json at byte 7".into());
        assert!(e.to_string().contains("parse error"));
        assert!(e.to_string().contains("bad json"));
    }

    #[test]
    fn error_is_send_sync() {
        fn check<T: Send + Sync>() {}
        check::<GemStoneError>();
    }
}
