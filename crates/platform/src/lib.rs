#![warn(missing_docs)]

//! # gemstone-platform
//!
//! A simulated Hardkernel ODROID-XU3 development board — the reference
//! hardware of the GemStone paper (Walker et al., ISPASS 2018) — plus the
//! gem5 simulation driver.
//!
//! The board carries a Samsung Exynos-5422 big.LITTLE SoC: a quad
//! Cortex-A7 cluster and a quad Cortex-A15 cluster, per-cluster DVFS with
//! the paper's operating points ([`dvfs`]), on-board power sensors sampling
//! at 3.8 Hz ([`sensors`]), a first-order thermal model with throttling at
//! 2 GHz ([`thermal`]), and an ARM PMU that can only count a few events at
//! a time, so the 68-event capture multiplexes over repeated runs
//! ([`pmu_capture`]).
//!
//! The *true* power drawn by a cluster comes from a hidden ground-truth
//! model ([`power_truth`]) over the engine's internal activity — including
//! activity that no PMU event exposes — which is exactly what the empirical
//! Powmon methodology must approximate from the outside.
//!
//! [`board::OdroidXu3`] runs workloads the way the paper's Experiment 1/3/4
//! harness does (median-of-5 timing, ≥30 s repetition for power,
//! multiplexed PMC capture); [`gem5sim::Gem5Sim`] runs the `ex5` model
//! configurations and returns a gem5-style statistics dump.
//!
//! Both drivers sit on top of a shared, concurrent simulation-result memo
//! ([`simcache::SimCache`]), the one way into the engine: the
//! deterministic engine result for each (workload, configuration,
//! frequency, seed) tuple is computed once and reused, with the seeded
//! measurement noise applied per call so every output stays bit-identical
//! whether the cache is cold or warm. The board carries its cache; the gem5
//! driver memoises into the cache its caller passes.
//!
//! Long characterisation sweeps on real boards fail partway — sensor
//! reads time out, governors hiccup, gem5 jobs wedge. [`fault`] models
//! that failure surface deterministically (seedable [`fault::FaultPlan`],
//! `GEMSTONE_FAULTS` knob, off by default) and provides the
//! [`fault::RetryPolicy`] the collection drivers wrap around the fault
//! checks [`board::OdroidXu3::check_faults`] and
//! [`gem5sim::Gem5Sim::check_faults`], which fire before any simulation
//! work.
//!
//! # Examples
//!
//! ```
//! use gemstone_platform::board::OdroidXu3;
//! use gemstone_platform::dvfs::Cluster;
//! use gemstone_workloads::suites;
//!
//! let board = OdroidXu3::new();
//! let spec = suites::by_name("mi-crc32").unwrap().scaled(0.05);
//! let run = board.run(&spec, Cluster::BigA15, 1_000_000_000.0);
//! assert!(run.time_s > 0.0);
//! assert!(run.power_w > 0.1);
//! ```

pub mod board;
pub mod dvfs;
pub mod fault;
pub mod gem5sim;
pub mod pmu_capture;
pub mod power_truth;
pub mod sensors;
pub mod simcache;
pub mod thermal;
