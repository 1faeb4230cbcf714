//! Workload specifications: the parameter space from which synthetic
//! instruction streams are generated.
//!
//! # Examples
//!
//! ```
//! use gemstone_workloads::spec::{InstrMix, WorkloadSpec};
//!
//! let spec = WorkloadSpec::builder("example", gemstone_workloads::spec::Suite::MiBench)
//!     .instructions(10_000)
//!     .build();
//! assert_eq!(spec.name, "example");
//! assert!(spec.phases[0].mix.normalised().int_alu > 0.0);
//! ```

/// Benchmark suite a workload belongs to (drives the naming prefixes used
/// in the paper's figures: `mi-`, `par-`, `parsec-`, …).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Suite {
    /// MiBench embedded suite.
    MiBench,
    /// ParMiBench (parallel MiBench).
    ParMiBench,
    /// PARSEC multiprocessor suite.
    Parsec,
    /// LMBench micro-benchmarks.
    LmBench,
    /// Roy Longbottom's PC benchmark collection.
    RoyLongbottom,
    /// Dhrystone.
    Dhrystone,
    /// Whetstone.
    Whetstone,
}

impl Suite {
    /// The workload-name prefix used in the paper's figures.
    pub fn prefix(self) -> &'static str {
        match self {
            Suite::MiBench => "mi",
            Suite::ParMiBench => "par",
            Suite::Parsec => "parsec",
            Suite::LmBench => "lm",
            Suite::RoyLongbottom => "rl",
            Suite::Dhrystone => "dhry",
            Suite::Whetstone => "whet",
        }
    }
}

/// Relative frequencies of instruction classes within a phase
/// (normalised by the generator; they need not sum to 1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InstrMix {
    /// Integer ALU.
    pub int_alu: f64,
    /// Integer multiply.
    pub int_mul: f64,
    /// Integer divide.
    pub int_div: f64,
    /// Scalar FP.
    pub fp_alu: f64,
    /// FP divide.
    pub fp_div: f64,
    /// SIMD.
    pub simd: f64,
    /// Loads.
    pub load: f64,
    /// Stores.
    pub store: f64,
    /// Conditional branches.
    pub branch: f64,
    /// Indirect branches.
    pub indirect: f64,
    /// Call/return pairs.
    pub call: f64,
    /// Load-/store-exclusive pairs.
    pub exclusive: f64,
    /// Barriers.
    pub barrier: f64,
    /// Nops.
    pub nop: f64,
}

impl InstrMix {
    /// A generic integer-code mix to build variations from.
    pub fn integer_baseline() -> Self {
        InstrMix {
            int_alu: 0.42,
            int_mul: 0.02,
            int_div: 0.002,
            fp_alu: 0.0,
            fp_div: 0.0,
            simd: 0.0,
            load: 0.23,
            store: 0.10,
            branch: 0.19,
            indirect: 0.005,
            call: 0.035,
            exclusive: 0.0,
            barrier: 0.0,
            nop: 0.033,
        }
    }

    /// A generic floating-point mix.
    pub fn fp_baseline() -> Self {
        InstrMix {
            int_alu: 0.22,
            int_mul: 0.01,
            int_div: 0.001,
            fp_alu: 0.30,
            fp_div: 0.02,
            simd: 0.0,
            load: 0.21,
            store: 0.09,
            branch: 0.12,
            indirect: 0.002,
            call: 0.03,
            exclusive: 0.0,
            barrier: 0.0,
            nop: 0.022,
        }
    }

    /// Returns the mix scaled to sum to 1.
    ///
    /// # Panics
    ///
    /// Panics if all entries are zero or any is negative.
    pub fn normalised(&self) -> InstrMix {
        let vals = self.as_array();
        assert!(
            vals.iter().all(|&v| v >= 0.0),
            "instruction mix entries must be non-negative"
        );
        let sum: f64 = vals.iter().sum();
        assert!(sum > 0.0, "instruction mix must have a positive entry");
        let mut out = *self;
        for (dst, v) in out.as_array_mut().iter_mut().zip(vals) {
            **dst = v / sum;
        }
        out
    }

    fn as_array(&self) -> [f64; 14] {
        [
            self.int_alu,
            self.int_mul,
            self.int_div,
            self.fp_alu,
            self.fp_div,
            self.simd,
            self.load,
            self.store,
            self.branch,
            self.indirect,
            self.call,
            self.exclusive,
            self.barrier,
            self.nop,
        ]
    }

    fn as_array_mut(&mut self) -> [&mut f64; 14] {
        [
            &mut self.int_alu,
            &mut self.int_mul,
            &mut self.int_div,
            &mut self.fp_alu,
            &mut self.fp_div,
            &mut self.simd,
            &mut self.load,
            &mut self.store,
            &mut self.branch,
            &mut self.indirect,
            &mut self.call,
            &mut self.exclusive,
            &mut self.barrier,
            &mut self.nop,
        ]
    }
}

/// Data-memory access behaviour of a phase.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemPattern {
    /// Data working-set size in bytes.
    pub ws_bytes: u64,
    /// Stride of the sequential access component in bytes.
    pub stride: u64,
    /// Fraction of accesses at random offsets within the working set.
    pub random_frac: f64,
    /// Fraction of accesses that cross alignment boundaries.
    pub unaligned_frac: f64,
    /// Fraction of accesses to shared data (meaningful when `threads > 1`).
    pub shared_frac: f64,
    /// Whether loads form a serial dependence chain (pointer chasing).
    pub dependent: bool,
}

impl MemPattern {
    /// Sequential streaming over `ws_bytes` with the given stride.
    pub fn streaming(ws_bytes: u64, stride: u64) -> Self {
        MemPattern {
            ws_bytes: ws_bytes.max(64),
            stride: stride.max(4),
            random_frac: 0.05,
            unaligned_frac: 0.0,
            shared_frac: 0.0,
            dependent: false,
        }
    }

    /// Random pointer-chasing over `ws_bytes`.
    pub fn pointer_chase(ws_bytes: u64) -> Self {
        MemPattern {
            ws_bytes: ws_bytes.max(64),
            stride: 8,
            random_frac: 0.9,
            unaligned_frac: 0.0,
            shared_frac: 0.0,
            dependent: true,
        }
    }
}

/// Direction behaviour of a static branch site.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BranchBehavior {
    /// Taken with a fixed probability, independently each time.
    Random {
        /// Probability of "taken".
        taken_prob: f64,
    },
    /// Strongly biased (drawn once per execution from the bias — a loop
    /// back-edge is `Biased { taken_prob: ~0.97 }`).
    Biased {
        /// Probability of "taken".
        taken_prob: f64,
    },
    /// A repeating pattern given by the low `len` bits of `bits`
    /// (bit 0 first). `bits: 0b01, len: 2` is the alternating pattern that
    /// the buggy `ex5_big` predictor inverts.
    Pattern {
        /// Pattern bits, LSB first.
        bits: u32,
        /// Pattern length in bits (1–32).
        len: u8,
    },
    /// A loop back-edge: taken `body − 1` times, then not-taken, repeating.
    Loop {
        /// Loop trip count.
        body: u16,
    },
}

/// A weighted branch-behaviour mixture component.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BranchSite {
    /// Behaviour of this group of static sites.
    pub behavior: BranchBehavior,
    /// Relative share of dynamic branches using this behaviour.
    pub weight: f64,
}

/// One execution phase.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseSpec {
    /// Fraction of the workload's instructions spent in this phase.
    pub weight: f64,
    /// Instruction mix.
    pub mix: InstrMix,
    /// Memory behaviour.
    pub mem: MemPattern,
    /// Branch behaviour mixture.
    pub branches: Vec<BranchSite>,
    /// Code footprint in 4 KiB pages.
    pub code_pages: u32,
}

impl PhaseSpec {
    /// A single-phase default: integer mix, small streaming working set,
    /// biased branches, modest code footprint.
    pub fn default_phase() -> Self {
        PhaseSpec {
            weight: 1.0,
            mix: InstrMix::integer_baseline(),
            mem: MemPattern::streaming(64 * 1024, 16),
            branches: vec![BranchSite {
                behavior: BranchBehavior::Biased { taken_prob: 0.9 },
                weight: 1.0,
            }],
            code_pages: 8,
        }
    }
}

/// A complete workload description.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadSpec {
    /// Workload name as used in the paper's figures (e.g.
    /// `par-basicmath-rad2deg`).
    pub name: String,
    /// Source suite.
    pub suite: Suite,
    /// Software threads (1 or 4 in the paper).
    pub threads: u32,
    /// Instructions generated per run.
    pub instructions: u64,
    /// Phases (weights are normalised by the generator).
    pub phases: Vec<PhaseSpec>,
    /// Base RNG seed (combined with the name hash for determinism).
    pub seed: u64,
}

impl WorkloadSpec {
    /// Starts building a workload with one default phase.
    pub fn builder(name: impl Into<String>, suite: Suite) -> WorkloadBuilder {
        WorkloadBuilder {
            spec: WorkloadSpec {
                name: name.into(),
                suite,
                threads: 1,
                instructions: 300_000,
                phases: vec![PhaseSpec::default_phase()],
                seed: 0,
            },
        }
    }

    /// Deterministic seed derived from the name and base seed.
    pub fn derived_seed(&self) -> u64 {
        use gemstone_obs::fnv::{fnv1a_from, OFFSET};
        fnv1a_from(OFFSET ^ self.seed, self.name.as_bytes())
    }

    /// The largest factor an entry point passes to
    /// [`WorkloadSpec::scaled`]: the CLI's `--scale` and every serve job's
    /// `scale` must lie in (0, `MAX_SCALE`]. Far larger factors ask for
    /// traces that cannot be allocated.
    pub const MAX_SCALE: f64 = 10.0;

    /// Whether `factor` lies in (0, [`WorkloadSpec::MAX_SCALE`]], which
    /// also rules out NaN and infinities.
    pub fn scale_in_range(factor: f64) -> bool {
        factor > 0.0 && factor <= Self::MAX_SCALE
    }

    /// Returns a copy with the instruction count scaled by `factor`
    /// (minimum 1000 instructions).
    pub fn scaled(&self, factor: f64) -> WorkloadSpec {
        let mut s = self.clone();
        s.instructions = ((s.instructions as f64 * factor) as u64).max(1000);
        s
    }
}

/// Builder for [`WorkloadSpec`].
#[derive(Debug, Clone)]
pub struct WorkloadBuilder {
    spec: WorkloadSpec,
}

impl WorkloadBuilder {
    /// Sets the thread count.
    pub fn threads(mut self, threads: u32) -> Self {
        self.spec.threads = threads.max(1);
        self
    }

    /// Sets the instruction budget.
    pub fn instructions(mut self, instructions: u64) -> Self {
        self.spec.instructions = instructions.max(1000);
        self
    }

    /// Replaces the phase list.
    pub fn phases(mut self, phases: Vec<PhaseSpec>) -> Self {
        assert!(!phases.is_empty(), "workload needs at least one phase");
        self.spec.phases = phases;
        self
    }

    /// Convenience: replaces the single phase.
    pub fn phase(mut self, phase: PhaseSpec) -> Self {
        self.spec.phases = vec![phase];
        self
    }

    /// Mutates the (single) current phase in place.
    pub fn tweak(mut self, f: impl FnOnce(&mut PhaseSpec)) -> Self {
        f(self.spec.phases.last_mut().expect("at least one phase"));
        self
    }

    /// Sets the base seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.spec.seed = seed;
        self
    }

    /// Finishes the build.
    pub fn build(self) -> WorkloadSpec {
        self.spec
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_normalises() {
        let m = InstrMix::integer_baseline().normalised();
        let sum: f64 = m.as_array().iter().sum();
        assert!((sum - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "positive entry")]
    fn zero_mix_panics() {
        let mut m = InstrMix::integer_baseline();
        for v in m.as_array_mut() {
            *v = 0.0;
        }
        let _ = m.normalised();
    }

    #[test]
    fn builder_defaults_and_overrides() {
        let w = WorkloadSpec::builder("x", Suite::Parsec)
            .threads(4)
            .instructions(50_000)
            .seed(9)
            .build();
        assert_eq!(w.threads, 4);
        assert_eq!(w.instructions, 50_000);
        assert_eq!(w.suite.prefix(), "parsec");
        assert_eq!(w.phases.len(), 1);
    }

    #[test]
    fn derived_seed_depends_on_name_and_seed() {
        let a = WorkloadSpec::builder("a", Suite::MiBench).build();
        let b = WorkloadSpec::builder("b", Suite::MiBench).build();
        assert_ne!(a.derived_seed(), b.derived_seed());
        let a2 = WorkloadSpec::builder("a", Suite::MiBench).seed(1).build();
        assert_ne!(a.derived_seed(), a2.derived_seed());
        // Stable across calls.
        assert_eq!(a.derived_seed(), a.derived_seed());
    }

    #[test]
    fn scaled_respects_minimum() {
        let w = WorkloadSpec::builder("x", Suite::MiBench)
            .instructions(10_000)
            .build();
        assert_eq!(w.scaled(2.0).instructions, 20_000);
        assert_eq!(w.scaled(1e-9).instructions, 1000);
    }

    #[test]
    fn mem_pattern_constructors_clamp() {
        let p = MemPattern::streaming(1, 1);
        assert!(p.ws_bytes >= 64);
        assert!(p.stride >= 4);
        let c = MemPattern::pointer_chase(1 << 20);
        assert!(c.dependent);
        assert!(c.random_frac > 0.5);
    }

    #[test]
    fn suite_prefixes() {
        assert_eq!(Suite::MiBench.prefix(), "mi");
        assert_eq!(Suite::ParMiBench.prefix(), "par");
        assert_eq!(Suite::LmBench.prefix(), "lm");
    }
}
