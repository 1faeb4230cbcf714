#![warn(missing_docs)]

//! # gemstone-workloads
//!
//! Deterministic synthetic workloads standing in for the benchmark suites
//! of the GemStone paper (Walker et al., ISPASS 2018): MiBench, ParMiBench,
//! PARSEC (single- and four-threaded), LMBench, Roy Longbottom's collection,
//! Dhrystone and Whetstone — 65 workloads in total, of which 45 form the
//! gem5-validation set (§III of the paper).
//!
//! The statistical methodology operates on workload *diversity*, not on
//! program semantics, so each workload is a parameterised generator
//! ([`spec::WorkloadSpec`]) producing an abstract instruction stream with a
//! characteristic instruction mix, memory pattern, branch behaviour and
//! code footprint. The suite definitions ([`suites`]) span the behavioural
//! axes the paper's clusters occupy: control-heavy, integer-dominated,
//! floating-point, streaming, pointer-chasing and concurrent
//! (barrier/exclusive-heavy) workloads, including the pathological
//! periodic-branch workload `par-basicmath-rad2deg` whose branch pattern a
//! correct predictor nails and the buggy `ex5_big` predictor inverts.
//!
//! [`microbench`] provides an `lat_mem_rd`-style pointer-chase generator
//! for the Fig. 4 memory-latency experiment.
//!
//! [`trace`] provides a compact packed-trace encoding of generated streams
//! plus a process-wide trace cache that keeps a trace only while something
//! that will replay it holds it, so the simulation grid generates each
//! workload's stream once and replays it for every (configuration,
//! frequency) tuple of that workload.
//!
//! # Examples
//!
//! ```
//! use gemstone_workloads::suites;
//!
//! let validation = suites::validation_suite();
//! assert_eq!(validation.len(), 45);
//! let all = suites::power_suite();
//! assert_eq!(all.len(), 65);
//! ```

pub mod gen;
pub mod microbench;
pub mod spec;
pub mod suites;
pub mod trace;
