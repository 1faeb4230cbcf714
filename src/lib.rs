//! # GemStone-rs
//!
//! Hardware-validated CPU performance and energy modelling — a Rust
//! reproduction of Walker et al., *Hardware-Validated CPU Performance and
//! Energy Modelling* (ISPASS 2018).
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`stats`] — statistics toolkit (OLS, stepwise selection, correlation,
//!   hierarchical clustering, error metrics).
//! * [`uarch`] — the cycle-approximate CPU timing engine and the
//!   ground-truth / `ex5` model configurations.
//! * [`workloads`] — the 65 synthetic benchmark workloads and the
//!   `lat_mem_rd` micro-benchmark.
//! * [`platform`] — the simulated ODROID-XU3 board (PMU, power sensors,
//!   thermal model, DVFS) and the gem5 simulation driver.
//! * [`powmon`] — empirical PMC-based power modelling.
//! * [`core`] — the GemStone pipeline: experiments, collation, statistical
//!   error identification, power/energy analysis, reporting.
//!
//! # Quick start
//!
//! ```no_run
//! use gemstone::prelude::*;
//!
//! // Validate the old ex5_big model against the (simulated) board.
//! let mut opts = PipelineOptions::default();
//! opts.experiment.workload_scale = 0.2;
//! let report = GemStone::new(opts).run()?;
//! println!("{}", report.render());
//! # Ok::<(), gemstone::core::GemStoneError>(())
//! ```
//!
//! See `examples/` for focused walk-throughs: `quickstart`,
//! `validate_model`, `build_power_model`, `dvfs_explorer` and
//! `find_error_sources`.

pub use gemstone_core as core;
pub use gemstone_obs as obs;
pub use gemstone_platform as platform;
pub use gemstone_powmon as powmon;
pub use gemstone_stats as stats;
pub use gemstone_uarch as uarch;
pub use gemstone_workloads as workloads;

/// The most commonly used items in one import: the pipeline, the board,
/// the gem5 driver, power models, core configurations and the workload
/// suites. The timing engine is not among them: runs go through
/// [`platform::simcache::SimCache`] (memoised) or
/// [`uarch::backend::Backend`].
pub mod prelude {
    pub use gemstone_core::collate::Collated;
    pub use gemstone_core::experiment::{run_validation, ExperimentConfig};
    pub use gemstone_core::pipeline::{GemStone, GemStoneReport, PipelineOptions};
    pub use gemstone_platform::board::OdroidXu3;
    pub use gemstone_platform::dvfs::Cluster;
    pub use gemstone_platform::gem5sim::{Gem5Model, Gem5Sim};
    pub use gemstone_powmon::model::{EventExpr, PowerModel};
    pub use gemstone_uarch::configs;
    pub use gemstone_workloads::suites;
}

#[cfg(test)]
mod tests {
    #[test]
    fn prelude_reexports_resolve() {
        use crate::prelude::*;
        let _ = ExperimentConfig::default();
        let _ = OdroidXu3::new();
        assert_eq!(Cluster::BigA15.name(), "Cortex-A15");
        assert_eq!(suites::power_suite().len(), 65);
    }
}
