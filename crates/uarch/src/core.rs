//! The cycle-approximate core timing engine.
//!
//! The engine consumes an abstract instruction stream and accumulates
//! cycles from an issue-width base cost plus stall components:
//! front-end (ITLB / L1I / wrong-path refetch), branch-mispredict squashes,
//! data-memory latency (DTLB / L1D / L2 / DRAM, with configurable
//! out-of-order latency hiding), long-latency execution, and
//! serialisation (barriers, exclusives, coherence snoops).
//!
//! It is *not* a cycle-accurate pipeline model — per the reproduction plan
//! (DESIGN.md §2) it only has to respond to the same structural parameters
//! that gem5 and the hardware differ in, so that GemStone's statistical
//! machinery sees equivalent error signatures.
//!
//! # Examples
//!
//! ```
//! use gemstone_uarch::configs::cortex_a15_hw;
//! use gemstone_uarch::core::Engine;
//! use gemstone_uarch::instr::{Instr, InstrClass};
//!
//! let stream = (0..10_000).map(|i| Instr::alu(InstrClass::IntAlu, (i % 256) * 4));
//! let mut engine = Engine::new(cortex_a15_hw(), &[1.0e9], 1);
//! let res = engine.run(stream).remove(0);
//! assert!(res.stats.ipc() > 1.0); // wide OoO core on pure ALU work
//! ```

use crate::backend::{finish_run, run_span, Fidelity, WindowObserver};
use crate::branch::{
    BimodalPredictor, BranchUnit, DirectionPredictor, GsharePredictor, TournamentPredictor,
};
use crate::cache::{run_prefetch, Cache, CacheConfig, PrefetcherConfig};
use crate::instr::{Instr, InstrClass};
use crate::memory::DramConfig;
use crate::stats::{ClassCounts, SimStats, StallCycles};
use crate::tlb::{SecondLevelTlb, TlbConfig, TlbHierarchy, TlbKind};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Core execution style (used for reporting and defaults; the actual
/// latency-hiding behaviour is controlled by [`StallFactors`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoreKind {
    /// In-order (Cortex-A7 class).
    InOrder,
    /// Out-of-order (Cortex-A15 class).
    OutOfOrder,
}

/// Direction-predictor selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BranchPredictorKind {
    /// Per-PC 2-bit counters.
    Bimodal {
        /// Counter table entries.
        entries: usize,
    },
    /// Gshare, optionally with the stale-history bug of the old `ex5_big`
    /// model.
    Gshare {
        /// Counter table entries.
        entries: usize,
        /// Global history bits.
        history_bits: u32,
        /// Enable the model bug.
        stale_history_bug: bool,
    },
    /// Local/global/chooser tournament predictor.
    Tournament {
        /// Local history/pattern entries.
        local_entries: usize,
        /// Global/chooser entries.
        global_entries: usize,
        /// Global history bits.
        history_bits: u32,
    },
}

impl BranchPredictorKind {
    pub(crate) fn build(self) -> Box<dyn DirectionPredictor + Send> {
        match self {
            BranchPredictorKind::Bimodal { entries } => Box::new(BimodalPredictor::new(entries)),
            BranchPredictorKind::Gshare {
                entries,
                history_bits,
                stale_history_bug,
            } => Box::new(GsharePredictor::new(
                entries,
                history_bits,
                stale_history_bug,
            )),
            BranchPredictorKind::Tournament {
                local_entries,
                global_entries,
                history_bits,
            } => Box::new(TournamentPredictor::new(
                local_entries,
                global_entries,
                history_bits,
            )),
        }
    }
}

/// Second-level TLB selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum L2TlbKind {
    /// One shared second-level TLB (the hardware shape).
    Unified {
        /// Geometry.
        cfg: TlbConfig,
        /// Access latency (cycles).
        latency: u32,
        /// Page-walk latency on miss (cycles).
        walk_latency: u32,
    },
    /// Split instruction/data walker caches (the gem5 `ex5` shape).
    Split {
        /// Geometry of *each* side.
        cfg: TlbConfig,
        /// Access latency (cycles).
        latency: u32,
        /// Page-walk latency on miss (cycles).
        walk_latency: u32,
    },
}

impl L2TlbKind {
    pub(crate) fn build(self) -> SecondLevelTlb {
        match self {
            L2TlbKind::Unified {
                cfg,
                latency,
                walk_latency,
            } => SecondLevelTlb::unified(cfg, latency, walk_latency),
            L2TlbKind::Split {
                cfg,
                latency,
                walk_latency,
            } => SecondLevelTlb::split(cfg, latency, walk_latency),
        }
    }

    /// True for the split (walker-cache) shape.
    pub fn is_split(self) -> bool {
        matches!(self, L2TlbKind::Split { .. })
    }
}

/// Extra (beyond-pipelined) execution cycles per long-latency class.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpLatencies {
    /// Integer multiply.
    pub int_mul: f64,
    /// Integer divide.
    pub int_div: f64,
    /// Scalar FP op.
    pub fp_alu: f64,
    /// FP divide / sqrt.
    pub fp_div: f64,
    /// SIMD op.
    pub simd: f64,
}

/// How much of each stall source is *exposed* (not hidden by out-of-order
/// execution / buffering). All factors are in `[0, 1]`-ish space; an
/// in-order core exposes close to everything, a wide OoO core hides most
/// load latency behind memory-level parallelism.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StallFactors {
    /// Front-end (L1I miss) exposure.
    pub frontend: f64,
    /// Load miss-latency exposure (≈ 1 / MLP).
    pub load: f64,
    /// Store miss-latency exposure (write buffers hide most).
    pub store: f64,
    /// Data-TLB miss exposure.
    pub dtlb: f64,
    /// Long-latency execute exposure.
    pub execute: f64,
}

/// Full configuration of one core + its private hierarchy.
#[derive(Debug, Clone)]
pub struct CoreConfig {
    /// Configuration name (e.g. `"hw-cortex-a15"`, `"ex5_big(old)"`).
    pub name: String,
    /// Execution style.
    pub kind: CoreKind,
    /// Superscalar width.
    pub width: u32,
    /// Fraction of the width achieved on straight-line code.
    pub issue_efficiency: f64,
    /// Mispredict squash penalty in cycles (≈ pipeline depth).
    pub pipeline_depth: u32,
    /// Instructions fetched per L1I access *for event accounting*
    /// (1 reproduces gem5's per-instruction counting; hardware counts per
    /// fetch group).
    pub fetch_group_size: u32,
    /// Direction predictor.
    pub bp: BranchPredictorKind,
    /// BTB entries.
    pub btb_entries: usize,
    /// Return-address-stack entries.
    pub ras_entries: usize,
    /// Indirect-predictor entries.
    pub indirect_entries: usize,
    /// L1 instruction TLB.
    pub itlb: TlbConfig,
    /// L1 data TLB.
    pub dtlb: TlbConfig,
    /// Second-level TLB.
    pub l2tlb: L2TlbKind,
    /// L1 instruction cache.
    pub l1i: CacheConfig,
    /// L1 data cache.
    pub l1d: CacheConfig,
    /// Unified L2 cache.
    pub l2: CacheConfig,
    /// L2 prefetcher.
    pub prefetch: PrefetcherConfig,
    /// DRAM model.
    pub dram: DramConfig,
    /// Long-latency op costs.
    pub op_extra: OpLatencies,
    /// Stall exposure factors.
    pub stall: StallFactors,
    /// Serialisation cost of a barrier (cycles).
    pub barrier_cost: f64,
    /// Extra barrier cost per additional thread (models inter-core
    /// synchronisation; the paper finds gem5's too low).
    pub barrier_sync_factor: f64,
    /// Cost of an exclusive access (cycles).
    pub exclusive_cost: f64,
    /// Cost of a coherence snoop hit (cycles).
    pub snoop_cost: f64,
    /// Probability that a shared-data access snoops a remote cache
    /// (multi-threaded workloads only).
    pub coherence_miss_prob: f64,
    /// Probability a store-exclusive fails and retries.
    pub strex_fail_rate: f64,
    /// Wrong-path instructions fetched per mispredict.
    pub wrong_path_depth: u32,
    /// Flush the L1 instruction TLB every this many instructions
    /// (OS timer/context-synchronisation noise on real hardware; `None`
    /// for bare simulators like gem5 SE mode).
    pub itlb_flush_interval: Option<u64>,
    /// Report VFP ops under the SIMD event (the gem5 misclassification).
    pub fp_counted_as_simd: bool,
}

/// Result of a simulation run.
#[derive(Debug, Clone)]
pub struct SimResult {
    /// Total core cycles.
    pub cycles: f64,
    /// Simulated seconds at the configured frequency.
    pub seconds: f64,
    /// Full statistics.
    pub stats: SimStats,
}

/// One drained span of the f64 accumulators: everything charged between
/// two drain boundaries (see [`Engine::boundary`]). The final totals are
/// the left-to-right fold of these partials, so the f64 rounding depends
/// only on where the boundaries fall — a pure function of the instruction
/// index.
#[derive(Debug, Clone, Copy, Default)]
pub struct CyclePartial {
    /// Cycles charged in the span.
    pub cycles: f64,
    /// Stall breakdown charged in the span.
    pub stalls: StallCycles,
}

impl CyclePartial {
    /// In-place component-wise sum (fixed component order).
    pub fn accumulate(&mut self, other: &CyclePartial) {
        self.cycles += other.cycles;
        self.stalls.accumulate(&other.stalls);
    }
}

/// Per-frequency accumulator state: everything in the engine that depends
/// on `freq_hz` (DESIGN.md §11). The DRAM latency enters only the
/// front-end fill (`stall_fetch`) and data fill (`stall_memory`) costs;
/// every other stall bucket is frequency-invariant and lives once in the
/// shared engine.
#[derive(Debug, Clone)]
struct Lane {
    freq_hz: f64,
    dram_cycles: f64,
    // The open span since the last drain boundary; drained spans live in
    // `partials`. Totals are always the in-order fold of `partials` then
    // the open span.
    cycles: f64,
    stall_fetch: f64,
    stall_memory: f64,
    partials: Vec<CyclePartial>,
}

impl Lane {
    /// The open span, completed with the shared stall buckets.
    fn open(&self, shared: StallCycles) -> CyclePartial {
        CyclePartial {
            cycles: self.cycles,
            stalls: StallCycles {
                fetch: self.stall_fetch,
                memory: self.stall_memory,
                ..shared
            },
        }
    }
}

/// The engine's own integer event counters (the cache, TLB and branch
/// structures keep theirs).
#[derive(Debug, Clone, Copy, Default)]
struct Events {
    l1i_reported_accesses: u64,
    unaligned_loads: u64,
    unaligned_stores: u64,
    strex_fails: u64,
    dtlb_miss_loads: u64,
    dtlb_miss_stores: u64,
    snoops: u64,
    nonspec_stalls: u64,
}

/// Checks the arguments every engine constructor shares.
///
/// # Panics
///
/// Panics if `freqs_hz` is empty, any frequency is not positive, or
/// `threads == 0`.
pub(crate) fn check_lanes(freqs_hz: &[f64], threads: u32) {
    assert!(!freqs_hz.is_empty(), "at least one frequency lane");
    assert!(
        freqs_hz.iter().all(|&f| f > 0.0),
        "frequencies must be positive"
    );
    assert!(threads > 0, "at least one thread");
}

/// The trace-driven timing engine over one or more frequency *lanes*.
///
/// Frequency enters the model in exactly two places — the DRAM latency in
/// core cycles and the cycles→seconds conversion (DESIGN.md §11) — so the
/// engine steps its caches, TLBs, branch predictor and RNG once per
/// instruction and keeps one cycle lane per frequency. Each lane replays
/// the exact `f64` operation sequence a one-lane engine at that frequency
/// performs, so a K-lane run is bit-identical to K one-lane runs; a
/// single-frequency run is simply a one-lane run.
#[derive(Debug)]
pub struct Engine {
    cfg: CoreConfig,
    threads: u32,
    bu: BranchUnit,
    tlbs: TlbHierarchy,
    l1i: Cache,
    l1d: Cache,
    l2: Cache,
    rng: SmallRng,
    lanes: Vec<Lane>,
    // Open span of the frequency-invariant stall buckets (`fetch` and
    // `memory` stay zero here: they live per lane).
    stalls: StallCycles,
    committed: ClassCounts,
    wrong_path: ClassCounts,
    events: Events,
    last_fetch_line: u64,
    last_data_page: u64,
    instr_since_flush: u64,
    group_fill: u32,
    // Hot-path precomputation: the per-instruction issue cost
    // (1 / effective width) and the L1D byte→line shift, so the
    // per-instruction path never divides.
    issue_cost: f64,
    l1d_line_shift: u32,
}

impl Engine {
    /// Builds an engine for `cfg` over the frequency lanes `freqs_hz`
    /// (one lane per entry, results emitted in the same order), running a
    /// workload with `threads` software threads (threads > 1 turns on
    /// coherence and barrier-synchronisation effects). Uses a fixed
    /// default seed; see [`Engine::with_seed`].
    ///
    /// # Panics
    ///
    /// Panics if `freqs_hz` is empty, any frequency is not positive, or
    /// `threads == 0`.
    pub fn new(cfg: CoreConfig, freqs_hz: &[f64], threads: u32) -> Self {
        Self::with_seed(cfg, freqs_hz, threads, 0x5EED_CAFE)
    }

    /// Like [`Engine::new`] with an explicit RNG seed (the RNG drives only
    /// stochastic micro-events: wrong-path page selection, coherence snoops
    /// and store-exclusive failures).
    ///
    /// # Panics
    ///
    /// Panics if `freqs_hz` is empty, any frequency is not positive, or
    /// `threads == 0`.
    pub fn with_seed(cfg: CoreConfig, freqs_hz: &[f64], threads: u32, seed: u64) -> Self {
        check_lanes(freqs_hz, threads);
        let bu = BranchUnit::new(
            cfg.bp.build(),
            cfg.btb_entries,
            cfg.ras_entries,
            cfg.indirect_entries,
        );
        let tlbs = TlbHierarchy::new(cfg.itlb, cfg.dtlb, cfg.l2tlb.build());
        let lanes = freqs_hz
            .iter()
            .map(|&f| Lane {
                freq_hz: f,
                dram_cycles: cfg.dram.access_cycles(f),
                cycles: 0.0,
                stall_fetch: 0.0,
                stall_memory: 0.0,
                partials: Vec::new(),
            })
            .collect();
        let eff_width = f64::from(cfg.width) * cfg.issue_efficiency;
        Engine {
            threads,
            bu,
            tlbs,
            l1i: Cache::new(cfg.l1i),
            l1d: Cache::new(cfg.l1d),
            l2: Cache::new(cfg.l2),
            rng: SmallRng::seed_from_u64(seed),
            lanes,
            stalls: StallCycles::default(),
            committed: ClassCounts::default(),
            wrong_path: ClassCounts::default(),
            events: Events::default(),
            last_fetch_line: u64::MAX,
            last_data_page: 0,
            instr_since_flush: 0,
            group_fill: 0,
            issue_cost: 1.0 / eff_width.max(0.25),
            l1d_line_shift: cfg.l1d.line_shift(),
            cfg,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &CoreConfig {
        &self.cfg
    }

    /// Number of frequency lanes.
    pub fn lane_count(&self) -> usize {
        self.lanes.len()
    }

    /// Lane `i`'s *open* cycle span — cycles since the last
    /// [`Engine::boundary`] drain. Within-step cycle deltas must be
    /// measured against this, never against the folded total: the open
    /// span's base is fixed by the drain cadence alone, and f64 addition
    /// rounds differently under a different base.
    pub(crate) fn lane_open_cycles(&self, i: usize) -> f64 {
        self.lanes[i].cycles
    }

    /// Instructions between accumulator drains in every detailed replay
    /// ([`Engine::run`] and the sampled tier's run).
    pub const DRAIN_INSTRS: u64 = 65_536;

    /// Drains every lane's open span onto its partials list. Replays call
    /// this after every [`Engine::DRAIN_INSTRS`] instructions, so the
    /// spans — and the order [`Engine::finish`] folds them in — are a pure
    /// function of the instruction index.
    pub fn boundary(&mut self) {
        let shared = self.stalls;
        for lane in &mut self.lanes {
            lane.partials.push(lane.open(shared));
            lane.cycles = 0.0;
            lane.stall_fetch = 0.0;
            lane.stall_memory = 0.0;
        }
        self.stalls = StallCycles::default();
    }

    /// Runs the engine over an instruction stream and returns one result
    /// per lane, with the approx tier's span and run accounting
    /// (DESIGN.md §10), draining the f64 accumulators every
    /// [`Engine::DRAIN_INSTRS`] instructions.
    pub fn run(&mut self, stream: impl Iterator<Item = Instr>) -> Vec<SimResult> {
        let never = WindowObserver {
            window: u64::MAX,
            observe: &mut |_| {},
        };
        self.run_observed(stream, never)
    }

    /// [`Engine::run`] under a window observer: every `observer.window`
    /// retired instructions (at least 1) it hands `observer.observe` every
    /// lane's cumulative [`Engine::finish`]. `finish` only reads state, so
    /// the results are bit-identical to an unobserved run.
    pub fn run_observed(
        &mut self,
        stream: impl Iterator<Item = Instr>,
        observer: WindowObserver<'_>,
    ) -> Vec<SimResult> {
        let _span = run_span(Fidelity::Approx, self.lane_count());
        let observe = observer.observe;
        let window = observer.window.max(1);
        drive(self, stream, Engine::step, Engine::boundary, window, |e| {
            observe(&e.finish());
        });
        finish_run(Fidelity::Approx, self.finish())
    }

    /// Processes a single instruction on every lane (the shared structures
    /// step once; each lane replays only the cycle additions).
    #[inline]
    pub fn step(&mut self, instr: &Instr) {
        self.execute::<true, true>(instr);
    }

    /// Functional warming: advances every piece of long-lived
    /// microarchitectural state — caches, TLBs, branch predictor, fetch-line
    /// tracking, and the ITLB/L1I/DTLB pollution of wrong-path fetch bursts —
    /// exactly as [`Engine::step`] would, but charges no cycles and records
    /// no events: it is the same routine with its counters and cycle
    /// additions compiled out. Every RNG draw of a detailed step happens
    /// here too (wrong-path page selection and, in multi-threaded runs, the
    /// coherence-snoop and store-exclusive rolls), so an engine warmed over
    /// a prefix is state-identical (RNG included) to one that stepped it.
    /// The sampled tier drives this through fast-forward phases. The
    /// warmed structures are all shared, so one pass serves every lane.
    #[inline]
    pub fn warm_state(&mut self, instr: &Instr) {
        self.execute::<false, true>(instr);
    }

    /// Front-end-only functional warming — the *startup prologue*.
    ///
    /// A real measurement never observes a cold front end: the dynamic
    /// loader, libc init and the harness's untimed warm-up iterations
    /// execute the workload's code paths long before the timed region
    /// begins, so the branch predictor, ITLB and L1I enter the region of
    /// interest trained — while the ROI's *data* working set genuinely is
    /// first-touched inside the measured window (its compulsory misses
    /// are part of what the PMCs record). gem5 SE-mode runs show the same
    /// asymmetry. Replaying a trace into a completely cold engine
    /// compresses the per-workload error distribution at reduced stub
    /// scales, so callers run this pass over the trace before the timed
    /// replay (see `SimCache::execute_grid_with`).
    ///
    /// Runs [`Engine::warm_state`] minus the memory instructions' data
    /// accesses: fetch-line and fetch-group phase, the periodic ITLB flush
    /// cadence, ITLB and L1I (including their L2 fills and prefetch
    /// triggers), the branch predictor, and the whole wrong-path burst of
    /// each mispredict — with its RNG draws and its three wrong-path DTLB
    /// translations. Loads and stores leave the L1D, the L2 and the DTLB
    /// untouched and draw nothing from the RNG, so the data side is cold
    /// but for that wrong-path DTLB pollution. Charges no cycles and
    /// records no events.
    #[inline]
    pub fn warm_frontend(&mut self, instr: &Instr) {
        self.execute::<false, false>(instr);
    }

    /// The one per-instruction routine behind [`Engine::step`]
    /// (`RECORD`, `DATA`), [`Engine::warm_state`] (`DATA`) and
    /// [`Engine::warm_frontend`] (neither). `RECORD` guards every counter,
    /// event and cycle addition; state updates and RNG draws run in every
    /// mode. `DATA` selects whether memory instructions access the data
    /// side.
    #[inline]
    fn execute<const RECORD: bool, const DATA: bool>(&mut self, instr: &Instr) {
        self.fetch::<RECORD>(instr);
        if RECORD {
            self.issue(instr);
        }
        match instr.class {
            c if DATA && c.is_memory() => self.memory::<RECORD>(instr),
            c if c.is_branch() => self.branch::<RECORD>(instr),
            InstrClass::Barrier if RECORD => self.barrier(),
            _ => {}
        }
        if RECORD {
            self.count_committed(instr.class);
        }
    }

    /// Adds a frequency-invariant cycle amount to every lane (the shared
    /// stall bucket is updated once by the caller).
    #[inline]
    fn add_all(&mut self, amount: f64) {
        for lane in &mut self.lanes {
            lane.cycles += amount;
        }
    }

    /// Sends a miss to the L2 (triggering the prefetcher on an L2 demand
    /// miss) and returns whether it hit, so each lane can price the fill
    /// against its own DRAM latency.
    fn level2_fill<const RECORD: bool>(&mut self, line: u64, is_write: bool) -> bool {
        let a = self.l2.lookup::<RECORD>(line, is_write);
        if !a.hit && self.cfg.prefetch.degree > 0 {
            run_prefetch::<RECORD>(&mut self.l2, line, self.cfg.prefetch);
        }
        a.hit
    }

    /// A front-end (L1I-miss) fill: the L2/DRAM latency is exposed through
    /// the frontend stall factor, per lane.
    fn fill_frontend<const RECORD: bool>(&mut self, line: u64) {
        let l2_hit = self.level2_fill::<RECORD>(line, false);
        if !RECORD {
            return;
        }
        let l2_latency = f64::from(self.l2.latency());
        let frontend = self.cfg.stall.frontend;
        for lane in &mut self.lanes {
            let mut cost = l2_latency;
            if !l2_hit {
                cost += lane.dram_cycles;
            }
            let exposed = cost * frontend;
            lane.stall_fetch += exposed;
            lane.cycles += exposed;
        }
    }

    /// Advances the fetch phase — the periodic ITLB flush cadence, the
    /// fetch-group phase (which decides *when* the reported-access counter
    /// ticks, so warming must advance it too) and the current fetch line.
    /// Counts a reported L1I access when `RECORD`. Returns the line when
    /// the instruction starts a new one.
    #[inline]
    fn advance_fetch<const RECORD: bool>(&mut self, instr: &Instr) -> Option<u64> {
        // The flush keeps its cadence across fast-forwarded stretches;
        // otherwise resumed windows would see an unrealistically warm ITLB.
        if let Some(interval) = self.cfg.itlb_flush_interval {
            self.instr_since_flush += 1;
            if self.instr_since_flush >= interval {
                self.instr_since_flush = 0;
                self.tlbs.flush_instruction_l1();
            }
        }
        let line = instr.fetch_line();
        let new_line = line != self.last_fetch_line;
        // Event accounting: one reported access per fetch group or new line.
        self.group_fill += 1;
        if new_line || self.group_fill >= self.cfg.fetch_group_size {
            if RECORD {
                self.events.l1i_reported_accesses += 1;
            }
            self.group_fill = 0;
        }
        if !new_line {
            return None;
        }
        self.last_fetch_line = line;
        Some(line)
    }

    #[inline]
    fn fetch<const RECORD: bool>(&mut self, instr: &Instr) {
        let Some(line) = self.advance_fetch::<RECORD>(instr) else {
            return;
        };
        // ITLB translation for the instruction page.
        let t = self
            .tlbs
            .lookup::<RECORD>(TlbKind::Instruction, instr.page());
        if RECORD && t.stall_cycles > 0 {
            self.stalls.fetch_tlb += f64::from(t.stall_cycles);
            self.add_all(f64::from(t.stall_cycles));
        }
        // L1I access for the new line.
        if !self.l1i.lookup::<RECORD>(line, false).hit {
            self.fill_frontend::<RECORD>(line);
        }
    }

    #[inline]
    fn issue(&mut self, instr: &Instr) {
        self.add_all(self.issue_cost);
        // Long-latency classes.
        let extra = match instr.class {
            InstrClass::IntMul => self.cfg.op_extra.int_mul,
            InstrClass::IntDiv => self.cfg.op_extra.int_div,
            InstrClass::FpAlu => self.cfg.op_extra.fp_alu,
            InstrClass::FpDiv => self.cfg.op_extra.fp_div,
            InstrClass::Simd => self.cfg.op_extra.simd,
            _ => 0.0,
        };
        if extra > 0.0 {
            let exposed = extra * self.cfg.stall.execute;
            self.stalls.execute += exposed;
            self.add_all(exposed);
        }
    }

    #[inline]
    fn memory<const RECORD: bool>(&mut self, instr: &Instr) {
        let mem = match instr.mem {
            Some(m) => m,
            None => return,
        };
        let is_store = mem.is_store;
        self.last_data_page = mem.page();
        // DTLB.
        let t = self.tlbs.lookup::<RECORD>(TlbKind::Data, mem.page());
        if RECORD {
            if !t.l1_hit {
                if is_store {
                    self.events.dtlb_miss_stores += 1;
                } else {
                    self.events.dtlb_miss_loads += 1;
                }
            }
            if t.stall_cycles > 0 {
                let exposed = f64::from(t.stall_cycles) * self.cfg.stall.dtlb;
                self.stalls.data_tlb += exposed;
                self.add_all(exposed);
            }
        }
        // Unaligned accesses cost an extra L1D access.
        let line = mem.vaddr >> self.l1d_line_shift;
        if mem.unaligned {
            if RECORD {
                if is_store {
                    self.events.unaligned_stores += 1;
                } else {
                    self.events.unaligned_loads += 1;
                }
            }
            self.l1d.lookup::<RECORD>(line + 1, is_store);
            if RECORD {
                self.add_all(1.0);
            }
        }
        // L1D access; a miss fills from L2 (and DRAM beyond, priced per
        // lane below).
        let a = self.l1d.lookup::<RECORD>(line, is_store);
        let l2_fill = (!a.hit).then(|| self.level2_fill::<RECORD>(line, is_store));
        if let Some(victim) = a.writeback_line {
            // The dirty victim travels to L2 (usually still resident there).
            self.l2.lookup::<RECORD>(victim, true);
        }
        // Coherence for shared data in multi-threaded runs.
        let snooped =
            mem.shared && self.threads > 1 && self.rng.gen::<f64>() < self.cfg.coherence_miss_prob;
        if RECORD {
            if snooped {
                self.events.snoops += 1;
            }
            let l2_latency = f64::from(self.l2.latency());
            let snoop_cost = self.cfg.snoop_cost;
            let factor = if is_store {
                self.cfg.stall.store
            } else if mem.dependent {
                // A serial dependence chain exposes the whole latency.
                1.0
            } else {
                self.cfg.stall.load
            };
            // Per lane: zero-init, fill add, snoop add, one multiply — the
            // same f64 sequence at every lane count.
            for lane in &mut self.lanes {
                let mut cost = 0.0;
                if let Some(l2_hit) = l2_fill {
                    let mut fill = l2_latency;
                    if !l2_hit {
                        fill += lane.dram_cycles;
                    }
                    cost += fill;
                }
                if snooped {
                    cost += snoop_cost;
                }
                if cost > 0.0 {
                    let exposed = cost * factor;
                    lane.stall_memory += exposed;
                    lane.cycles += exposed;
                }
            }
        }
        // Exclusives serialise; a store-exclusive rolls for failure.
        match instr.class {
            InstrClass::LoadExclusive if RECORD => {
                self.events.nonspec_stalls += 1;
                let c = self.cfg.exclusive_cost * 0.5;
                self.stalls.serialization += c;
                self.add_all(c);
            }
            InstrClass::StoreExclusive => {
                let failed = self.threads > 1 && self.rng.gen::<f64>() < self.cfg.strex_fail_rate;
                if RECORD {
                    self.events.nonspec_stalls += 1;
                    let mut c = self.cfg.exclusive_cost;
                    if failed {
                        self.events.strex_fails += 1;
                        c *= 2.0; // retry
                    }
                    self.stalls.serialization += c;
                    self.add_all(c);
                }
            }
            _ => {}
        }
    }

    #[inline]
    fn branch<const RECORD: bool>(&mut self, instr: &Instr) {
        let outcome = self.bu.resolve::<RECORD>(instr);
        if !outcome.mispredicted {
            return;
        }
        if RECORD {
            let penalty = f64::from(self.cfg.pipeline_depth);
            self.stalls.mispredict += penalty;
            self.add_all(penalty);
        }
        self.wrong_path_fetch::<RECORD>(instr);
    }

    /// Models the wrong-path fetch burst after a mispredict: the front end
    /// runs ahead on a wrong code page, polluting the ITLB and L1I — the
    /// coupling behind the paper's "a large number of branch mispredictions
    /// are causing a large number of ITLB misses". The pollution is
    /// long-lived state that measurement windows observe, so warming runs
    /// the burst too (same RNG draws), or sampled CPI drifts by several
    /// percent on mispredict-heavy workloads.
    fn wrong_path_fetch<const RECORD: bool>(&mut self, instr: &Instr) {
        let depth = self.cfg.wrong_path_depth;
        if depth == 0 {
            return;
        }
        let br = instr.branch.expect("branch without metadata");
        // The wrong path starts at a wrong target somewhere in the code
        // footprint: stale BTB entries and fall-through paths scatter over
        // nearby pages.
        let wp_page = br.target_page ^ (1 + (self.rng.gen::<u64>() & 0x1F));
        let t = self.tlbs.lookup::<RECORD>(TlbKind::Instruction, wp_page);
        if RECORD && t.stall_cycles > 0 {
            // Wrong-path translation stalls the squash-recovery.
            let exposed = f64::from(t.stall_cycles) * self.cfg.stall.frontend;
            self.stalls.fetch_tlb += exposed;
            self.add_all(exposed);
        }
        let lines = (u64::from(depth)).div_ceil(16).max(1);
        let base = self.rng.gen::<u64>() & 0x3F;
        for i in 0..lines {
            let line = (wp_page << 6) | ((base + i) & 0x3F);
            // Wrong-path fills occupy the fetch path while the squash
            // resolves: part of their latency delays the redirect, the
            // rest is pure pollution.
            if !self.l1i.lookup::<RECORD>(line, false).hit {
                self.fill_frontend::<RECORD>(line);
            }
        }
        if RECORD {
            // Only a fraction of wrong-path *fetches* actually issue and
            // count as speculatively executed; the generic composition
            // below models them.
            let d = (u64::from(depth) / 8).max(1);
            self.wrong_path.int_alu += d * 5 / 10;
            self.wrong_path.loads += d * 2 / 10;
            self.wrong_path.stores += d / 10;
            self.wrong_path.branches += d / 10;
            self.wrong_path.nops += d - (d * 5 / 10 + d * 2 / 10 + d / 10 + d / 10);
        }
        // A couple of wrong-path loads translate through the DTLB per
        // squash: latency is hidden, but the counts and TLB pollution are
        // real — this is how the model's wrong path inflates its DTLB
        // refill counts.
        for _ in 0..3 {
            let page = self.last_data_page ^ (1 + (self.rng.gen::<u64>() & 0x7F));
            let t = self.tlbs.lookup::<RECORD>(TlbKind::Data, page);
            if RECORD && !t.l1_hit {
                self.events.dtlb_miss_loads += 1;
            }
        }
    }

    fn barrier(&mut self) {
        self.events.nonspec_stalls += 1;
        let sync = 1.0 + f64::from(self.threads - 1) * self.cfg.barrier_sync_factor;
        let c = self.cfg.barrier_cost * sync;
        self.stalls.serialization += c;
        self.add_all(c);
    }

    #[inline]
    fn count_committed(&mut self, class: InstrClass) {
        let c = &mut self.committed;
        match class {
            InstrClass::IntAlu => c.int_alu += 1,
            InstrClass::IntMul => c.int_mul += 1,
            InstrClass::IntDiv => c.int_div += 1,
            InstrClass::FpAlu => c.fp_alu += 1,
            InstrClass::FpDiv => c.fp_div += 1,
            InstrClass::Simd => c.simd += 1,
            InstrClass::Load => c.loads += 1,
            InstrClass::Store => c.stores += 1,
            InstrClass::Branch => c.branches += 1,
            InstrClass::IndirectBranch => c.indirect_branches += 1,
            InstrClass::Call => c.calls += 1,
            InstrClass::Return => c.returns += 1,
            InstrClass::LoadExclusive => c.load_exclusives += 1,
            InstrClass::StoreExclusive => c.store_exclusives += 1,
            InstrClass::Barrier => c.barriers += 1,
            InstrClass::Nop => c.nops += 1,
        }
    }

    /// Finalises every lane into a [`SimResult`] (one per frequency, in
    /// construction order). It only reads state: the engine can keep
    /// stepping afterwards (counters continue to accumulate), and a replay
    /// that calls it mid-stream ends bit-identical to one that does not.
    pub fn finish(&self) -> Vec<SimResult> {
        // Speculative = committed + wrong path.
        let mut spec = self.committed;
        let wp = &self.wrong_path;
        spec.int_alu += wp.int_alu;
        spec.loads += wp.loads;
        spec.stores += wp.stores;
        spec.branches += wp.branches;
        spec.nops += wp.nops;
        let (itlb, dtlb, l2) = (
            self.tlbs.instruction_counters(),
            self.tlbs.data_counters(),
            self.l2.counters(),
        );
        let dram_reads = l2.refill_reads + itlb.walks / 4 + dtlb.walks / 4;
        let dram_writes = l2.refill_writes + l2.writeback_lines;
        let ev = self.events;
        let shared = SimStats {
            committed: self.committed,
            committed_instructions: self.committed.total(),
            speculative: spec,
            speculative_instructions: spec.total(),
            wrong_path_instructions: self.wrong_path.total(),
            unaligned_loads: ev.unaligned_loads,
            unaligned_stores: ev.unaligned_stores,
            strex_fails: ev.strex_fails,
            branch: self.bu.counters(),
            itlb,
            dtlb,
            dtlb_miss_loads: ev.dtlb_miss_loads,
            dtlb_miss_stores: ev.dtlb_miss_stores,
            l1i: self.l1i.counters(),
            l1i_reported_accesses: ev.l1i_reported_accesses,
            l1d: self.l1d.counters(),
            l2,
            dram_reads,
            dram_writes,
            dram_accesses: dram_reads + dram_writes,
            snoops: ev.snoops,
            nonspec_stalls: ev.nonspec_stalls,
            fp_counted_as_simd: self.cfg.fp_counted_as_simd,
            split_l2_tlb: self.cfg.l2tlb.is_split(),
            ..SimStats::default()
        };
        self.lanes
            .iter()
            .map(|lane| {
                // The in-order fold of the drained partials plus the open
                // span.
                let mut folded = CyclePartial::default();
                for p in &lane.partials {
                    folded.accumulate(p);
                }
                folded.accumulate(&lane.open(self.stalls));
                let stats = SimStats {
                    freq_hz: lane.freq_hz,
                    cycles: folded.cycles,
                    seconds: folded.cycles / lane.freq_hz,
                    stalls: folded.stalls,
                    ..shared.clone()
                };
                SimResult {
                    cycles: folded.cycles,
                    seconds: stats.seconds,
                    stats,
                }
            })
            .collect()
    }
}

/// The one replay loop of the detailed tiers: steps every instruction of
/// `stream` through `step`, calls `drain` after every
/// [`Engine::DRAIN_INSTRS`]-th and `stop` after every `window`-th
/// (never for `u64::MAX`). One countdown runs to whichever comes next, so
/// a replay without stops does the same per-instruction work as one
/// without the hook; where both fall on one instruction, the drain comes
/// first.
#[inline]
pub(crate) fn drive<E>(
    engine: &mut E,
    stream: impl Iterator<Item = Instr>,
    step: impl Fn(&mut E, &Instr),
    drain: impl Fn(&mut E),
    window: u64,
    mut stop: impl FnMut(&mut E),
) {
    let (mut next_drain, mut next_stop) = (Engine::DRAIN_INSTRS, window);
    let mut until = next_drain.min(next_stop);
    for instr in stream {
        step(engine, &instr);
        until -= 1;
        if until == 0 {
            let at = next_drain.min(next_stop);
            if at == next_drain {
                drain(engine);
                next_drain += Engine::DRAIN_INSTRS;
            }
            if at == next_stop {
                stop(engine);
                next_stop = next_stop.saturating_add(window);
            }
            until = next_drain.min(next_stop) - at;
        }
    }
}

#[cfg(test)]
impl Instr {
    /// Test helper: a barrier instruction at `pc`.
    fn alu_like_barrier(pc: u64) -> Instr {
        Instr {
            class: InstrClass::Barrier,
            pc,
            mem: None,
            branch: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::configs::{cortex_a15_hw, cortex_a7_hw, ex5_big, Ex5Variant};
    use crate::instr::{BranchRef, MemRef};

    fn alu_stream(n: usize) -> impl Iterator<Item = Instr> {
        (0..n).map(|i| Instr::alu(InstrClass::IntAlu, (i as u64 % 1024) * 4))
    }

    #[test]
    fn pure_alu_runs_near_peak() {
        let mut e = Engine::new(cortex_a15_hw(), &[1.0e9], 1);
        let r = e.run(alu_stream(400_000)).remove(0);
        assert_eq!(r.stats.committed_instructions, 400_000);
        assert!(r.stats.ipc() > 1.5, "ipc = {}", r.stats.ipc());
        // Stalls are only compulsory misses for a tiny, hot code footprint.
        assert!(r.stats.stalls.total() < 0.05 * r.cycles);
    }

    #[test]
    fn in_order_slower_than_ooo() {
        let stream: Vec<Instr> = (0..40_000)
            .map(|i| {
                if i % 4 == 0 {
                    Instr::mem(
                        InstrClass::Load,
                        (i as u64 % 512) * 4,
                        MemRef::load((i as u64 * 131) % (4 << 20), 4),
                    )
                } else {
                    Instr::alu(InstrClass::IntAlu, (i as u64 % 512) * 4)
                }
            })
            .collect();
        let mut big = Engine::new(cortex_a15_hw(), &[1.0e9], 1);
        let rb = big.run(stream.clone().into_iter()).remove(0);
        let mut little = Engine::new(cortex_a7_hw(), &[1.0e9], 1);
        let rl = little.run(stream.into_iter()).remove(0);
        assert!(
            rl.cycles > rb.cycles * 1.3,
            "little {} vs big {}",
            rl.cycles,
            rb.cycles
        );
    }

    #[test]
    fn dram_latency_bites_at_higher_frequency() {
        // Memory-bound stream: random loads over 64 MiB.
        let stream: Vec<Instr> = (0..30_000)
            .map(|i| {
                let addr = (i as u64).wrapping_mul(0x9E3779B97F4A7C15) % (64 << 20);
                Instr::mem(InstrClass::Load, (i as u64 % 64) * 4, MemRef::load(addr, 4))
            })
            .collect();
        let mut lo = Engine::new(cortex_a15_hw(), &[0.6e9], 1);
        let t_lo = lo.run(stream.clone().into_iter()).remove(0).seconds;
        let mut hi = Engine::new(cortex_a15_hw(), &[1.8e9], 1);
        let t_hi = hi.run(stream.into_iter()).remove(0).seconds;
        let speedup = t_lo / t_hi;
        // Memory-bound: much less than the 3× frequency ratio.
        assert!(speedup < 2.0, "speedup = {speedup}");
        assert!(speedup > 1.0, "speedup = {speedup}");
    }

    #[test]
    fn mispredicts_cost_cycles_and_pollute_itlb() {
        // Alternating branch: HW predicts ~perfectly, the old ex5 model
        // inverts it.
        let stream: Vec<Instr> = (0..60_000)
            .map(|i| {
                Instr::branch(
                    InstrClass::Branch,
                    0x1000,
                    BranchRef {
                        static_id: 1,
                        taken: i % 2 == 0,
                        target_page: 1,
                    },
                )
            })
            .collect();
        let mut hw = Engine::new(cortex_a15_hw(), &[1.0e9], 1);
        let r_hw = hw.run(stream.clone().into_iter()).remove(0);
        let mut old = Engine::new(ex5_big(Ex5Variant::Old), &[1.0e9], 1);
        let r_old = old.run(stream.clone().into_iter()).remove(0);
        let mut fixed = Engine::new(ex5_big(Ex5Variant::Fixed), &[1.0e9], 1);
        let r_fixed = fixed.run(stream.into_iter()).remove(0);

        assert!(r_hw.stats.branch.accuracy() > 0.95);
        assert!(
            r_old.stats.branch.accuracy() < 0.10,
            "old model accuracy = {}",
            r_old.stats.branch.accuracy()
        );
        assert!(r_fixed.stats.branch.accuracy() > 0.95);
        assert!(r_old.cycles > 3.0 * r_hw.cycles);
        // Wrong-path pollution drives front-end and data-TLB traffic in the
        // old model (the paper's mispredict → TLB coupling).
        assert!(
            r_old.stats.l1i.accesses > 3 * r_fixed.stats.l1i.accesses.max(1),
            "old l1i accesses {} vs fixed {}",
            r_old.stats.l1i.accesses,
            r_fixed.stats.l1i.accesses
        );
        assert!(
            r_old.stats.dtlb.l1_misses > 10 * r_fixed.stats.dtlb.l1_misses.max(1),
            "old wrong-path dtlb misses {} vs fixed {}",
            r_old.stats.dtlb.l1_misses,
            r_fixed.stats.dtlb.l1_misses
        );
    }

    #[test]
    fn barriers_cost_more_with_threads_and_on_hw() {
        let stream: Vec<Instr> = (0..20_000)
            .map(|i| {
                if i % 50 == 0 {
                    Instr::alu_like_barrier((i as u64 % 64) * 4)
                } else {
                    Instr::alu(InstrClass::IntAlu, (i as u64 % 64) * 4)
                }
            })
            .collect();
        let mut one = Engine::new(cortex_a15_hw(), &[1.0e9], 1);
        let c1 = one.run(stream.clone().into_iter()).remove(0).cycles;
        let mut four = Engine::new(cortex_a15_hw(), &[1.0e9], 4);
        let c4 = four.run(stream.clone().into_iter()).remove(0).cycles;
        assert!(c4 > c1, "4t {c4} vs 1t {c1}");
        // gem5 models the synchronisation as cheaper.
        let mut g4 = Engine::new(ex5_big(Ex5Variant::Old), &[1.0e9], 4);
        let g = g4.run(stream.into_iter()).remove(0).cycles;
        assert!(g < c4, "gem5 {g} vs hw {c4}");
    }

    #[test]
    fn determinism() {
        let mk = || {
            let stream: Vec<Instr> = (0..10_000)
                .map(|i| {
                    Instr::mem(
                        InstrClass::Load,
                        (i as u64 % 128) * 4,
                        MemRef::load((i as u64 * 7919) % (1 << 22), 4).with_shared(i % 3 == 0),
                    )
                })
                .collect();
            let mut e = Engine::new(cortex_a15_hw(), &[1.0e9], 4);
            e.run(stream.into_iter()).remove(0)
        };
        let a = mk();
        let b = mk();
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.stats.snoops, b.stats.snoops);
    }

    #[test]
    fn l1i_accounting_modes_differ() {
        let stream: Vec<Instr> = (0..10_000)
            .map(|i| Instr::alu(InstrClass::IntAlu, (i as u64 % 4096) * 4))
            .collect();
        let mut hw = Engine::new(cortex_a15_hw(), &[1.0e9], 1);
        let r_hw = hw.run(stream.clone().into_iter()).remove(0);
        let mut g = Engine::new(ex5_big(Ex5Variant::Old), &[1.0e9], 1);
        let r_g = g.run(stream.into_iter()).remove(0);
        let ratio =
            r_g.stats.l1i_reported_accesses as f64 / r_hw.stats.l1i_reported_accesses as f64;
        assert!(ratio > 1.5 && ratio < 3.0, "ratio = {ratio}");
    }

    #[test]
    fn finish_is_reentrant() {
        let mut e = Engine::new(cortex_a7_hw(), &[1.0e9, 0.6e9], 1);
        for i in 0..100 {
            e.step(&Instr::alu(InstrClass::IntAlu, i * 4));
        }
        let r1 = e.finish();
        for i in 0..100 {
            e.step(&Instr::alu(InstrClass::IntAlu, i * 4));
        }
        let r2 = e.finish();
        for (a, b) in r1.iter().zip(&r2) {
            assert_eq!(b.stats.committed_instructions, 200);
            assert!(b.cycles > a.cycles);
        }
    }

    #[test]
    fn os_tlb_flush_interval_drives_itlb_refills() {
        // A tight loop over a handful of pages: with no flushes the ITLB
        // only takes compulsory misses; with OS noise it keeps refilling —
        // the mechanism behind the Fig. 6 ITLB ratio.
        let stream: Vec<Instr> = (0..60_000)
            .map(|i| Instr::alu(InstrClass::IntAlu, ((i % 6) << 12) + (i % 64) * 4))
            .collect();
        let mut quiet_cfg = cortex_a15_hw();
        quiet_cfg.itlb_flush_interval = None;
        let mut quiet = Engine::new(quiet_cfg, &[1.0e9], 1);
        let r_quiet = quiet.run(stream.clone().into_iter()).remove(0);
        let mut noisy = Engine::new(cortex_a15_hw(), &[1.0e9], 1);
        let r_noisy = noisy.run(stream.into_iter()).remove(0);
        assert!(r_quiet.stats.itlb.l1_misses <= 8);
        assert!(
            r_noisy.stats.itlb.l1_misses > 20 * r_quiet.stats.itlb.l1_misses.max(1),
            "noisy {} vs quiet {}",
            r_noisy.stats.itlb.l1_misses,
            r_quiet.stats.itlb.l1_misses
        );
        // The flushes are cheap in time (unified L2 TLB absorbs them).
        assert!(r_noisy.cycles < r_quiet.cycles * 1.05);
    }

    #[test]
    fn strex_failures_only_with_multiple_threads() {
        let stream: Vec<Instr> = (0..30_000)
            .map(|i| {
                let pc = (i % 64) * 4;
                if i % 3 == 0 {
                    Instr::mem(
                        InstrClass::StoreExclusive,
                        pc,
                        MemRef::store(0x1000 + (i % 16) * 4, 4).with_shared(true),
                    )
                } else {
                    Instr::alu(InstrClass::IntAlu, pc)
                }
            })
            .collect();
        let mut solo = Engine::new(cortex_a15_hw(), &[1.0e9], 1);
        let r1 = solo.run(stream.clone().into_iter()).remove(0);
        assert_eq!(r1.stats.strex_fails, 0, "no contention single-threaded");
        let mut contended = Engine::new(cortex_a15_hw(), &[1.0e9], 4);
        let r4 = contended.run(stream.into_iter()).remove(0);
        assert!(
            r4.stats.strex_fails > 50,
            "fails = {}",
            r4.stats.strex_fails
        );
        assert!(r4.cycles > r1.cycles);
    }

    #[test]
    fn unaligned_accesses_cost_and_count() {
        let mk = |unaligned: bool| {
            let stream: Vec<Instr> = (0..20_000)
                .map(|i| {
                    Instr::mem(
                        InstrClass::Load,
                        (i % 64) * 4,
                        MemRef::load(0x100 + (i % 512) * 8, 4).with_unaligned(unaligned),
                    )
                })
                .collect();
            let mut e = Engine::new(cortex_a7_hw(), &[1.0e9], 1);
            e.run(stream.into_iter()).remove(0)
        };
        let aligned = mk(false);
        let unaligned = mk(true);
        assert_eq!(aligned.stats.unaligned_loads, 0);
        assert_eq!(unaligned.stats.unaligned_loads, 20_000);
        assert!(unaligned.cycles > aligned.cycles * 1.2);
    }
}
