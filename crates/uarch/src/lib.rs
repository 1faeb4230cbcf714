#![warn(missing_docs)]

//! # gemstone-uarch
//!
//! A cycle-approximate, trace-driven CPU micro-architecture timing simulator
//! — the "gem5 substrate" of the GemStone reproduction (Walker et al.,
//! ISPASS 2018).
//!
//! The original paper validates gem5's `ex5_big` / `ex5_LITTLE` CPU models
//! against an ODROID-XU3 board. Neither gem5 nor the board is available
//! here, so this crate provides a from-scratch timing engine that plays both
//! roles:
//!
//! * instantiated with **ground-truth configurations** it acts as the
//!   reference hardware (Cortex-A7 / Cortex-A15 clusters of the
//!   Exynos-5422);
//! * instantiated with the **`ex5` model configurations** — which carry the
//!   specification errors the paper documents (buggy branch predictor,
//!   wrong L1 ITLB size, split high-latency L2 TLBs, low DRAM latency,
//!   distorted event accounting) — it acts as the gem5 model under
//!   validation.
//!
//! The engine consumes abstract instruction streams ([`instr`]), models the
//! front end (branch prediction [`branch`], instruction TLB and cache),
//! the memory hierarchy ([`tlb`], [`cache`], [`memory`]) and a
//! width/latency-based execution core ([`core`]), and produces both a
//! gem5-style statistics dump ([`stats`]) and ARM PMU event counts
//! ([`pmu`]). The [`backend`] module runs the engine at three fidelity
//! tiers; every detailed replay is one sequential pass over the stream.
//!
//! # Example
//!
//! ```
//! use gemstone_uarch::configs;
//! use gemstone_uarch::core::Engine;
//! use gemstone_uarch::instr::{Instr, InstrClass};
//!
//! // A trivial 1000-instruction integer loop.
//! let stream: Vec<Instr> = (0..1000)
//!     .map(|i| Instr::alu(InstrClass::IntAlu, 0x1000 + (i % 64) * 4))
//!     .collect();
//! let cfg = configs::cortex_a15_hw();
//! let mut engine = Engine::new(cfg, &[1_000_000_000.0], 1);
//! let result = engine.run(stream.into_iter()).remove(0);
//! assert!(result.cycles > 0.0);
//! assert_eq!(result.stats.committed_instructions, 1000);
//! ```

mod assoc;

pub mod backend;
pub mod branch;
pub mod cache;
pub mod configs;
pub mod core;
pub mod instr;
pub mod memory;
pub mod pmu;
pub mod stats;
pub mod tlb;
