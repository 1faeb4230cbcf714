//! Multi-fidelity execution backends.
//!
//! Every caller runs the engine through one dispatch enum, [`Backend`],
//! over three tiers of increasing cost (the Atomic / Timing /
//! detailed-CPU organisation of gem5, cf. DESIGN.md §10). Every tier
//! works on a list of frequency *lanes* (DESIGN.md §11): a
//! single-frequency run is a one-lane run, and a DVFS column is one pass
//! whose lanes are bit-identical to separate one-lane runs.
//!
//! * **atomic** ([`AtomicEngine`]) — functional-only: every instruction
//!   retires at a fixed per-class cost and only architectural events are
//!   counted. No cache, TLB or branch-predictor state is walked, so the
//!   loop is orders of magnitude faster than the detailed engine. Valid
//!   for instruction-mix studies and fast-forwarding; its timing carries
//!   no micro-architectural signal.
//! * **approx** ([`crate::core::Engine`]) — the reference cycle-approximate
//!   tier modelling the full branch/TLB/cache/DRAM hierarchy.
//! * **sampled** ([`SampledEngine`]) — SMARTS-style systematic sampling:
//!   atomic fast-forward over most of the stream, a short detailed warming
//!   prefix before each measurement window, and detailed measurement
//!   windows whose CPI is extrapolated to the whole stream with a reported
//!   confidence metric ([`SampleMeta`]). Architectural (committed)
//!   instruction counts stay exact; micro-architectural event counts are
//!   scaled from the detailed fraction.
//!
//! Tier selection is a [`TierConfig`], chosen by the `--fidelity` CLI flag
//! (approx when absent), with the sampled tier's geometry settable from the
//! environment (`GEMSTONE_SAMPLE_INTERVAL`, `GEMSTONE_SAMPLE_WINDOW`,
//! `GEMSTONE_SAMPLE_WARMUP`); it is part of the simulation-cache identity
//! downstream.
//!
//! # Examples
//!
//! ```
//! use gemstone_uarch::backend::{Backend, Fidelity, TierConfig};
//! use gemstone_uarch::configs::cortex_a15_hw;
//! use gemstone_uarch::instr::{Instr, InstrClass};
//!
//! let stream: Vec<Instr> = (0..10_000)
//!     .map(|i| Instr::alu(InstrClass::IntAlu, (i % 256) * 4))
//!     .collect();
//! let cfg = cortex_a15_hw();
//! let freqs = [0.6e9, 1.0e9];
//! let mut atomic = Backend::new(TierConfig::atomic(), &cfg, &freqs, 1, 0);
//! let lanes = atomic.run_stream(stream.into_iter());
//! assert_eq!(lanes.len(), 2);
//! assert_eq!(lanes[0].stats.committed_instructions, 10_000);
//! assert_eq!(lanes[1].stats.fidelity, Fidelity::Atomic);
//! assert!(lanes[0].seconds > lanes[1].seconds); // same cycles, slower clock
//! ```

use crate::core::{check_lanes, drive, CoreConfig, Engine, SimResult};
use crate::instr::{Instr, InstrClass};
use crate::stats::{ClassCounts, SimStats};
use std::fmt;
use std::str::FromStr;

/// Environment variable: sampling period length in instructions.
pub const SAMPLE_INTERVAL_ENV: &str = "GEMSTONE_SAMPLE_INTERVAL";
/// Environment variable: detailed measurement window length in instructions.
pub const SAMPLE_WINDOW_ENV: &str = "GEMSTONE_SAMPLE_WINDOW";
/// Environment variable: detailed warming prefix length in instructions.
pub const SAMPLE_WARMUP_ENV: &str = "GEMSTONE_SAMPLE_WARMUP";

/// The available execution-fidelity tiers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Fidelity {
    /// Fixed-cost functional execution, architectural events only.
    Atomic,
    /// The full cycle-approximate reference engine.
    #[default]
    Approx,
    /// SMARTS-style systematic sampling over the approx engine.
    Sampled,
}

impl Fidelity {
    /// Canonical lower-case tier name (`atomic` / `approx` / `sampled`).
    pub fn name(self) -> &'static str {
        match self {
            Fidelity::Atomic => "atomic",
            Fidelity::Approx => "approx",
            Fidelity::Sampled => "sampled",
        }
    }

    /// The obs span name used around a run at this tier.
    pub fn span_name(self) -> &'static str {
        match self {
            Fidelity::Atomic => "engine.run.atomic",
            Fidelity::Approx => "engine.run",
            Fidelity::Sampled => "engine.run.sampled",
        }
    }
}

impl fmt::Display for Fidelity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for Fidelity {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.trim().to_ascii_lowercase().as_str() {
            "atomic" => Ok(Fidelity::Atomic),
            "approx" => Ok(Fidelity::Approx),
            "sampled" => Ok(Fidelity::Sampled),
            other => Err(format!(
                "unknown fidelity {other:?} (expected atomic, approx or sampled)"
            )),
        }
    }
}

/// SMARTS sampling geometry: each period of `interval` instructions starts
/// with `warmup` detailed (unmeasured) instructions, then `window` detailed
/// measured instructions; the rest of the period fast-forwards atomically.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SampleParams {
    /// Period length U in instructions.
    pub interval: u64,
    /// Measured window length W in instructions.
    pub window: u64,
    /// Detailed warming prefix V in instructions (runs before each window).
    pub warmup: u64,
}

impl Default for SampleParams {
    fn default() -> Self {
        SampleParams {
            interval: 2_000,
            window: 300,
            warmup: 500,
        }
    }
}

impl SampleParams {
    /// Reads `GEMSTONE_SAMPLE_{INTERVAL,WINDOW,WARMUP}`, falling back to the
    /// defaults for unset or invalid values.
    pub fn from_env() -> Self {
        let d = SampleParams::default();
        let interval = gemstone_obs::env::parse_checked::<u64>(
            SAMPLE_INTERVAL_ENV,
            "a positive instruction count",
            "the default interval",
            |&n| n > 0,
        )
        .unwrap_or(d.interval);
        let window = gemstone_obs::env::parse_checked::<u64>(
            SAMPLE_WINDOW_ENV,
            "a positive instruction count",
            "the default window",
            |&n| n > 0,
        )
        .unwrap_or(d.window);
        let warmup = gemstone_obs::env::parse::<u64>(
            SAMPLE_WARMUP_ENV,
            "an instruction count",
            "the default warmup",
        )
        .unwrap_or(d.warmup);
        SampleParams {
            interval,
            window,
            warmup,
        }
    }

    /// Instructions simulated in detail per period (warmup + window, clamped
    /// to the period length).
    pub fn detailed_len(self) -> u64 {
        (self.warmup + self.window).min(self.interval.max(1))
    }
}

/// A fidelity tier plus its sampling geometry (only meaningful for
/// [`Fidelity::Sampled`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TierConfig {
    /// The selected tier.
    pub fidelity: Fidelity,
    /// Sampling geometry (ignored unless `fidelity == Sampled`).
    pub sample: SampleParams,
}

impl TierConfig {
    /// The atomic/functional tier.
    pub fn atomic() -> Self {
        TierConfig {
            fidelity: Fidelity::Atomic,
            sample: SampleParams::default(),
        }
    }

    /// The cycle-approximate reference tier (the default).
    pub fn approx() -> Self {
        TierConfig::default()
    }

    /// The sampled tier with the given geometry.
    pub fn sampled(sample: SampleParams) -> Self {
        TierConfig {
            fidelity: Fidelity::Sampled,
            sample,
        }
    }

    /// Human-readable tier description: the tier name, plus the sampling
    /// geometry when it matters (`sampled (interval 2000, window 300,
    /// warmup 500)`).
    pub fn describe(&self) -> String {
        match self.fidelity {
            Fidelity::Sampled => format!(
                "sampled (interval {}, window {}, warmup {})",
                self.sample.interval, self.sample.window, self.sample.warmup
            ),
            other => other.name().to_string(),
        }
    }

    /// Canonical form for cache identity: sampling parameters only
    /// distinguish configurations on the sampled tier, so atomic/approx
    /// collapse onto the default geometry (a `GEMSTONE_SAMPLE_*` change
    /// must not churn non-sampled cache keys).
    pub fn canonical(self) -> Self {
        if self.fidelity == Fidelity::Sampled {
            self
        } else {
            TierConfig {
                fidelity: self.fidelity,
                sample: SampleParams::default(),
            }
        }
    }
}

impl fmt::Display for TierConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.describe())
    }
}

/// Sampling evidence attached to a sampled-tier [`SimStats`]: how much of
/// the stream was measured and how tight the CPI estimate is.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SampleMeta {
    /// Number of measurement windows that contributed a CPI observation.
    pub windows: u64,
    /// Instructions inside measurement windows.
    pub measured_instructions: u64,
    /// Instructions simulated in detail (warming + measured).
    pub detailed_instructions: u64,
    /// Total instructions in the stream.
    pub total_instructions: u64,
    /// Detailed fraction of the stream in `[0, 1]`.
    pub coverage: f64,
    /// Mean per-window CPI.
    pub cpi_mean: f64,
    /// Sample standard deviation of per-window CPI (0 with < 2 windows).
    pub cpi_stddev: f64,
    /// Relative half-width of the 95% confidence interval on the mean CPI
    /// (`1.96 · stderr / mean`; 0 with < 2 windows — no variance evidence).
    pub rel_ci95: f64,
}

/// A read-only observer of an approx replay: every `window` retired
/// instructions (at least 1), `observe` sees every lane's cumulative
/// results so far, in lane order. The replay stops for it on the same
/// countdown that schedules the accumulator drains, and the snapshot only
/// reads engine state, so an observed replay ends bit-identical to an
/// unobserved one.
pub struct WindowObserver<'a> {
    /// Retired instructions between two observations.
    pub window: u64,
    /// Called at each stop with every lane's cumulative results.
    pub observe: &'a mut dyn FnMut(&[SimResult]),
}

/// Records one completed run at `fidelity` over `lanes` frequency lanes of
/// `instructions` committed instructions each — the one accounting routine
/// behind every run entry point ([`Engine::run`], [`SampledEngine::run`],
/// [`Backend::run_stream`], [`Backend::run_histogram`]). Each lane is
/// one logical run: `engine.runs`, `engine.instructions` and the
/// `engine.tier.<tier>.*` counters grow by `lanes` runs and
/// `lanes × instructions` instructions. A multi-lane run also counts one
/// fused replay in `engine.grid.replays` and its lanes in
/// `engine.grid.lanes`; a one-lane run leaves `engine.grid.*` alone.
pub(crate) fn record_run(fidelity: Fidelity, lanes: usize, instructions: u64) {
    let registry = gemstone_obs::Registry::global();
    let runs = lanes as u64;
    let total = runs * instructions;
    if lanes > 1 {
        registry.counter("engine.grid.replays").inc();
        registry.counter("engine.grid.lanes").add(runs);
    }
    registry.counter("engine.runs").add(runs);
    registry.counter("engine.instructions").add(total);
    let tier = fidelity.name();
    registry
        .counter(&format!("engine.tier.{tier}.runs"))
        .add(runs);
    registry
        .counter(&format!("engine.tier.{tier}.instructions"))
        .add(total);
}

/// The obs span around one run at `fidelity` over `lanes` frequency lanes:
/// the tier's run span ([`Fidelity::span_name`]) for one lane, its fused
/// grid span (`engine.run.grid[.atomic|.sampled]`, with a `lanes`
/// attribute) for more.
pub(crate) fn run_span(fidelity: Fidelity, lanes: usize) -> gemstone_obs::span::SpanGuard {
    if lanes == 1 {
        return gemstone_obs::span::span(fidelity.span_name());
    }
    let name = match fidelity {
        Fidelity::Atomic => "engine.run.grid.atomic",
        Fidelity::Approx => "engine.run.grid",
        Fidelity::Sampled => "engine.run.grid.sampled",
    };
    gemstone_obs::span::span(name).attr("lanes", lanes)
}

/// The atomic/functional tier: every instruction retires at a fixed
/// per-class cost, and only architectural (committed) events are counted.
/// The cost table depends only on the configuration and thread count, so
/// one pass serves every frequency lane and only the cycles→seconds
/// conversion differs between them.
#[derive(Debug, Clone)]
pub struct AtomicEngine {
    freqs_hz: Vec<f64>,
    costs: [f64; InstrClass::COUNT],
    counts: [u64; InstrClass::COUNT],
    fp_counted_as_simd: bool,
    split_l2_tlb: bool,
}

impl AtomicEngine {
    /// Builds an atomic engine for `cfg` over the frequency lanes
    /// `freqs_hz` with `threads` software threads (threads only scale the
    /// fixed barrier cost).
    ///
    /// # Panics
    ///
    /// Panics if `freqs_hz` is empty, any frequency is not positive, or
    /// `threads == 0`.
    pub fn new(cfg: &CoreConfig, freqs_hz: &[f64], threads: u32) -> Self {
        check_lanes(freqs_hz, threads);
        AtomicEngine {
            freqs_hz: freqs_hz.to_vec(),
            costs: Self::cost_table(cfg, threads),
            counts: [0; InstrClass::COUNT],
            fp_counted_as_simd: cfg.fp_counted_as_simd,
            split_l2_tlb: cfg.l2tlb.is_split(),
        }
    }

    /// The fixed per-class retire cost in cycles: the issue cost plus the
    /// exposed long-latency / serialisation component the detailed engine
    /// charges unconditionally for that class. Memory-hierarchy and
    /// branch-mispredict stalls are state-dependent and deliberately absent.
    fn cost_table(cfg: &CoreConfig, threads: u32) -> [f64; InstrClass::COUNT] {
        let eff_width = f64::from(cfg.width) * cfg.issue_efficiency;
        let issue = 1.0 / eff_width.max(0.25);
        let sync = 1.0 + f64::from(threads - 1) * cfg.barrier_sync_factor;
        let mut costs = [issue; InstrClass::COUNT];
        let mut extra = |class: InstrClass, c: f64| {
            costs[class.index() as usize] += c;
        };
        extra(InstrClass::IntMul, cfg.op_extra.int_mul * cfg.stall.execute);
        extra(InstrClass::IntDiv, cfg.op_extra.int_div * cfg.stall.execute);
        extra(InstrClass::FpAlu, cfg.op_extra.fp_alu * cfg.stall.execute);
        extra(InstrClass::FpDiv, cfg.op_extra.fp_div * cfg.stall.execute);
        extra(InstrClass::Simd, cfg.op_extra.simd * cfg.stall.execute);
        extra(InstrClass::LoadExclusive, cfg.exclusive_cost * 0.5);
        extra(InstrClass::StoreExclusive, cfg.exclusive_cost);
        extra(InstrClass::Barrier, cfg.barrier_cost * sync);
        costs
    }

    /// Number of frequency lanes.
    pub fn lane_count(&self) -> usize {
        self.freqs_hz.len()
    }

    /// Retires one instruction on every lane.
    #[inline]
    pub fn step(&mut self, instr: &Instr) {
        self.counts[instr.class.index() as usize] += 1;
    }

    /// Retires a whole class histogram at once — the fast path for packed
    /// traces, bit-identical to stepping each instruction.
    pub fn absorb_histogram(&mut self, hist: &[u64; InstrClass::COUNT]) {
        for (count, add) in self.counts.iter_mut().zip(hist) {
            *count += add;
        }
    }

    /// Finalises one result per lane: the shared cycle count converted at
    /// each lane's frequency. Reentrant: the engine keeps counting after.
    pub fn finish(&mut self) -> Vec<SimResult> {
        let cycles: f64 = self
            .counts
            .iter()
            .zip(&self.costs)
            .map(|(&n, &c)| n as f64 * c)
            .sum();
        let committed = ClassCounts::from_histogram(&self.counts);
        self.freqs_hz
            .iter()
            .map(|&freq_hz| {
                let stats = SimStats {
                    freq_hz,
                    cycles,
                    seconds: cycles / freq_hz,
                    committed,
                    committed_instructions: committed.total(),
                    // No speculation is modelled: speculative == architectural.
                    speculative: committed,
                    speculative_instructions: committed.total(),
                    fidelity: Fidelity::Atomic,
                    fp_counted_as_simd: self.fp_counted_as_simd,
                    split_l2_tlb: self.split_l2_tlb,
                    ..SimStats::default()
                };
                SimResult {
                    cycles,
                    seconds: stats.seconds,
                    stats,
                }
            })
            .collect()
    }
}

/// Per-lane measurement accumulators of the sampled tier.
#[derive(Debug, Clone, Default)]
struct SampledLane {
    /// Measured cycles since the last drain; earlier spans live in
    /// `measured_partials` (same discipline as [`Engine`]'s cycle
    /// accumulators — see [`SampledEngine::boundary`]).
    measured_cycles: f64,
    measured_partials: Vec<f64>,
    window_cycles: f64,
    window_cpis: Vec<f64>,
}

impl SampledLane {
    /// Total measured cycles: the in-order fold of the drained spans plus
    /// the open one.
    fn measured_cycles_total(&self) -> f64 {
        let mut total = 0.0;
        for p in &self.measured_partials {
            total += p;
        }
        total + self.measured_cycles
    }
}

/// The SMARTS-style sampled tier: systematic periods of atomic
/// fast-forward, detailed warming and detailed measurement over an inner
/// cycle-approximate [`Engine`], with results extrapolated to the whole
/// stream. The window schedule, functional warming and architectural
/// counts are shared across frequency lanes; each lane measures its own
/// per-window cycle deltas.
#[derive(Debug)]
pub struct SampledEngine {
    interval: u64,
    detailed_len: u64,
    warm_len: u64,
    detailed: Engine,
    counts: [u64; InstrClass::COUNT],
    /// Position inside the current period, in `[0, interval)`.
    pos: u64,
    total: u64,
    detailed_instr: u64,
    measured_instr: u64,
    window_instr: u64,
    lanes: Vec<SampledLane>,
    /// Scratch: each lane's open cycle span before the current measured
    /// step.
    before: Vec<f64>,
}

impl SampledEngine {
    /// Builds a sampled engine over the frequency lanes `freqs_hz`; the
    /// detailed windows run on an inner [`Engine`] built with exactly the
    /// given configuration and seed, so a fully-detailed sampled run is
    /// bit-identical to the approx tier.
    ///
    /// # Panics
    ///
    /// Panics if `freqs_hz` is empty, any frequency is not positive, or
    /// `threads == 0`.
    pub fn new(
        cfg: CoreConfig,
        freqs_hz: &[f64],
        threads: u32,
        seed: u64,
        params: SampleParams,
    ) -> Self {
        let detailed_len = params.detailed_len();
        SampledEngine {
            interval: params.interval.max(1),
            detailed_len,
            warm_len: params.warmup.min(detailed_len),
            detailed: Engine::with_seed(cfg, freqs_hz, threads, seed),
            counts: [0; InstrClass::COUNT],
            pos: 0,
            total: 0,
            detailed_instr: 0,
            measured_instr: 0,
            window_instr: 0,
            lanes: vec![SampledLane::default(); freqs_hz.len()],
            before: vec![0.0; freqs_hz.len()],
        }
    }

    /// Number of frequency lanes.
    pub fn lane_count(&self) -> usize {
        self.lanes.len()
    }

    /// Startup-prologue warming: advances the inner engine's front-end
    /// state only (see [`Engine::warm_frontend`]), leaving the sampling
    /// schedule position untouched — the prologue models pre-ROI
    /// execution, the window schedule applies to the region of interest.
    #[inline]
    pub fn warm_frontend(&mut self, instr: &Instr) {
        self.detailed.warm_frontend(instr);
    }

    /// Drains the inner engine's spans and every lane's measured-cycles
    /// accumulator. [`SampledEngine::run`] calls this every
    /// [`Engine::DRAIN_INSTRS`] instructions, like [`Engine::boundary`], so
    /// every f64 fold is fixed by the instruction index alone.
    pub fn boundary(&mut self) {
        self.detailed.boundary();
        for lane in &mut self.lanes {
            lane.measured_partials.push(lane.measured_cycles);
            lane.measured_cycles = 0.0;
        }
    }

    fn close_window(&mut self) {
        if self.window_instr > 0 {
            for lane in &mut self.lanes {
                lane.window_cpis
                    .push(lane.window_cycles / self.window_instr as f64);
                lane.window_cycles = 0.0;
            }
            self.window_instr = 0;
        }
    }

    fn sample_meta(&self, lane: &SampledLane) -> SampleMeta {
        let n = lane.window_cpis.len();
        let mean = if n > 0 {
            lane.window_cpis.iter().sum::<f64>() / n as f64
        } else {
            0.0
        };
        let stddev = if n > 1 {
            let var = lane
                .window_cpis
                .iter()
                .map(|x| (x - mean) * (x - mean))
                .sum::<f64>()
                / (n - 1) as f64;
            var.sqrt()
        } else {
            0.0
        };
        let rel_ci95 = if n > 1 && mean > 0.0 {
            1.96 * stddev / (n as f64).sqrt() / mean
        } else {
            0.0
        };
        SampleMeta {
            windows: n as u64,
            measured_instructions: self.measured_instr,
            detailed_instructions: self.detailed_instr,
            total_instructions: self.total,
            coverage: if self.total > 0 {
                self.detailed_instr as f64 / self.total as f64
            } else {
                0.0
            },
            cpi_mean: mean,
            cpi_stddev: stddev,
            rel_ci95,
        }
    }

    /// Processes one instruction on every lane, following the shared
    /// window schedule.
    #[inline]
    pub fn step(&mut self, instr: &Instr) {
        if self.pos < self.detailed_len {
            if self.pos < self.warm_len {
                self.detailed.step(instr);
            } else {
                // Deltas are measured against each lane's *open* span,
                // whose base — and so the rounding of the subtraction — is
                // fixed by the drain cadence alone.
                for (i, b) in self.before.iter_mut().enumerate() {
                    *b = self.detailed.lane_open_cycles(i);
                }
                self.detailed.step(instr);
                for (i, lane) in self.lanes.iter_mut().enumerate() {
                    let delta = self.detailed.lane_open_cycles(i) - self.before[i];
                    lane.measured_cycles += delta;
                    lane.window_cycles += delta;
                }
                self.measured_instr += 1;
                self.window_instr += 1;
            }
            self.detailed_instr += 1;
            if self.pos + 1 == self.detailed_len {
                self.close_window();
            }
        } else {
            // Fast-forward phase: no timing, but functionally warm the
            // long-lived microarchitectural state (caches, TLBs, branch
            // predictor) so the next window measures live state instead of
            // state frozen at the end of the previous one. Skipping this
            // biases measured CPI upwards by 5-20 % on cache-heavy
            // workloads.
            self.detailed.warm_state(instr);
        }
        self.counts[instr.class.index() as usize] += 1;
        self.total += 1;
        self.pos += 1;
        if self.pos == self.interval {
            self.pos = 0;
        }
    }

    /// Runs the sampled schedule over an instruction stream and returns one
    /// result per lane, with the sampled tier's span and run accounting,
    /// draining on the same cadence as [`Engine::run`].
    pub fn run(&mut self, stream: impl Iterator<Item = Instr>) -> Vec<SimResult> {
        let _span = run_span(Fidelity::Sampled, self.lane_count());
        drive(
            self,
            stream,
            SampledEngine::step,
            SampledEngine::boundary,
            u64::MAX,
            |_| {},
        );
        finish_run(Fidelity::Sampled, self.finish())
    }

    /// Finalises one extrapolated result per lane, in lane order.
    pub fn finish(&mut self) -> Vec<SimResult> {
        // A stream ending mid-window still contributes its partial CPI.
        self.close_window();
        let committed = ClassCounts::from_histogram(&self.counts);
        let total = committed.total();
        let det_results = self.detailed.finish();
        det_results
            .into_iter()
            .zip(&self.lanes)
            .map(|(det, lane)| {
                let meta = self.sample_meta(lane);
                let registry = gemstone_obs::Registry::global();
                registry
                    .counter("engine.tier.sampled.windows")
                    .add(meta.windows);
                registry
                    .counter("engine.tier.sampled.detailed_instructions")
                    .add(meta.detailed_instructions);
                registry
                    .counter("engine.tier.sampled.fastforward_instructions")
                    .add(total - meta.detailed_instructions);
                if meta.detailed_instructions >= total {
                    // Everything ran in detail: the approx result, exactly.
                    let mut result = det;
                    result.stats.fidelity = Fidelity::Sampled;
                    result.stats.sample = Some(meta);
                    return result;
                }
                let det_instr = det.stats.committed_instructions.max(1);
                let ratio = total as f64 / det_instr as f64;
                // CPI from measurement windows only (the warming prefix is
                // biased cold); fall back to the whole detailed fraction
                // without windows.
                let cpi = if meta.measured_instructions > 0 {
                    lane.measured_cycles_total() / meta.measured_instructions as f64
                } else {
                    det.cycles / det_instr as f64
                };
                let cycles = cpi * total as f64;
                let freq_hz = det.stats.freq_hz;
                let mut stats = scale_stats(&det.stats, ratio);
                // Architectural counts are exact: every instruction was
                // counted.
                let wrong_path = stats.speculative.saturating_sub(&stats.committed);
                stats.committed = committed;
                stats.committed_instructions = total;
                stats.speculative = committed.add(&wrong_path);
                stats.speculative_instructions = stats.speculative.total();
                stats.wrong_path_instructions = wrong_path.total();
                stats.freq_hz = freq_hz;
                stats.cycles = cycles;
                stats.seconds = cycles / freq_hz;
                stats.fidelity = Fidelity::Sampled;
                stats.sample = Some(meta);
                SimResult {
                    cycles,
                    seconds: stats.seconds,
                    stats,
                }
            })
            .collect()
    }
}

/// Extrapolates the detailed fraction's statistics to the whole stream:
/// event counts and stall cycles scale by `ratio`
/// (`total / detailed_instructions`); configuration flags pass through.
fn scale_stats(det: &SimStats, ratio: f64) -> SimStats {
    let s = |v: u64| (v as f64 * ratio).round() as u64;
    SimStats {
        freq_hz: det.freq_hz,
        cycles: det.cycles * ratio,
        seconds: det.seconds * ratio,
        committed_instructions: s(det.committed_instructions),
        speculative_instructions: s(det.speculative_instructions),
        wrong_path_instructions: s(det.wrong_path_instructions),
        committed: det.committed.map(s),
        speculative: det.speculative.map(s),
        unaligned_loads: s(det.unaligned_loads),
        unaligned_stores: s(det.unaligned_stores),
        strex_fails: s(det.strex_fails),
        branch: det.branch.map(s),
        itlb: det.itlb.map(s),
        dtlb: det.dtlb.map(s),
        dtlb_miss_loads: s(det.dtlb_miss_loads),
        dtlb_miss_stores: s(det.dtlb_miss_stores),
        l1i: det.l1i.map(s),
        l1i_reported_accesses: s(det.l1i_reported_accesses),
        l1d: det.l1d.map(s),
        l2: det.l2.map(s),
        dram_accesses: s(det.dram_accesses),
        dram_reads: s(det.dram_reads),
        dram_writes: s(det.dram_writes),
        snoops: s(det.snoops),
        nonspec_stalls: s(det.nonspec_stalls),
        stalls: crate::stats::StallCycles {
            mispredict: det.stalls.mispredict * ratio,
            fetch: det.stalls.fetch * ratio,
            fetch_tlb: det.stalls.fetch_tlb * ratio,
            memory: det.stalls.memory * ratio,
            data_tlb: det.stalls.data_tlb * ratio,
            serialization: det.stalls.serialization * ratio,
            execute: det.stalls.execute * ratio,
        },
        fidelity: det.fidelity,
        sample: det.sample,
        fp_counted_as_simd: det.fp_counted_as_simd,
        split_l2_tlb: det.split_l2_tlb,
    }
}

/// The tier-dispatching backend over one or more frequency lanes — the one
/// interface every caller runs the engine through. A concrete enum, so the
/// per-instruction hot loop never dispatches dynamically.
#[derive(Debug)]
pub enum Backend {
    /// The atomic/functional tier (one pass, per-lane time conversion).
    Atomic(Box<AtomicEngine>),
    /// The cycle-approximate reference tier.
    Approx(Box<Engine>),
    /// The SMARTS-style sampled tier (shared windows, per-lane deltas).
    Sampled(Box<SampledEngine>),
}

impl Backend {
    /// Builds the backend selected by `tier` over the given core
    /// configuration, frequency lanes (results come back in the same
    /// order), thread count and seed.
    ///
    /// # Panics
    ///
    /// Panics if `freqs_hz` is empty, any frequency is not positive, or
    /// `threads == 0`.
    pub fn new(
        tier: TierConfig,
        cfg: &CoreConfig,
        freqs_hz: &[f64],
        threads: u32,
        seed: u64,
    ) -> Self {
        match tier.fidelity {
            Fidelity::Atomic => {
                Backend::Atomic(Box::new(AtomicEngine::new(cfg, freqs_hz, threads)))
            }
            Fidelity::Approx => Backend::Approx(Box::new(Engine::with_seed(
                cfg.clone(),
                freqs_hz,
                threads,
                seed,
            ))),
            Fidelity::Sampled => Backend::Sampled(Box::new(SampledEngine::new(
                cfg.clone(),
                freqs_hz,
                threads,
                seed,
                tier.sample,
            ))),
        }
    }

    /// Runs the startup prologue over `stream`: front-end-only functional
    /// warming (branch predictor, ITLB, L1I — see
    /// [`Engine::warm_frontend`]) modelling the pre-ROI execution every
    /// real measurement performs before its timed region. A no-op on the
    /// atomic tier, whose class-histogram model carries no
    /// microarchitectural state — the stream is not even decoded.
    /// Drivers call this once, before the timed replay.
    pub fn warm_prologue(&mut self, stream: impl Iterator<Item = Instr>) {
        match self {
            Backend::Atomic(_) => {}
            Backend::Approx(engine) => stream.for_each(|instr| engine.warm_frontend(&instr)),
            Backend::Sampled(engine) => stream.for_each(|instr| engine.warm_frontend(&instr)),
        }
    }

    /// Runs the backend over an instruction stream and returns one result
    /// per lane, with the per-tier obs span and run accounting
    /// (DESIGN.md §10). The detailed tiers drain their f64 accumulators
    /// every [`Engine::DRAIN_INSTRS`] instructions; the atomic tier is
    /// order-free.
    pub fn run_stream(&mut self, stream: impl Iterator<Item = Instr>) -> Vec<SimResult> {
        match self {
            Backend::Atomic(engine) => {
                let _span = run_span(Fidelity::Atomic, engine.lane_count());
                stream.for_each(|instr| engine.step(&instr));
                finish_run(Fidelity::Atomic, engine.finish())
            }
            Backend::Approx(engine) => engine.run(stream),
            Backend::Sampled(engine) => engine.run(stream),
        }
    }

    /// [`Backend::run_stream`] under a window observer (see
    /// [`Engine::run_observed`]): the results are bit-identical to an
    /// unobserved run.
    ///
    /// # Panics
    ///
    /// Panics unless this is the approx tier, the one whose cumulative
    /// results can be read mid-stream without changing them (the sampled
    /// tier's `finish` closes its open measurement window).
    pub fn run_observed(
        &mut self,
        stream: impl Iterator<Item = Instr>,
        observer: WindowObserver<'_>,
    ) -> Vec<SimResult> {
        let Backend::Approx(engine) = self else {
            panic!("only the approx tier replays under a window observer");
        };
        engine.run_observed(stream, observer)
    }

    /// Runs the atomic tier over a whole-stream class histogram — the
    /// replay path of packed traces and of the trace cache's memoised
    /// histograms, neither of which decodes an instruction — with the same
    /// span and run accounting as [`Backend::run_stream`] and bit-identical
    /// results (the atomic model is order-free).
    ///
    /// # Panics
    ///
    /// Panics unless this is the atomic tier: the detailed tiers need the
    /// instruction stream itself.
    pub fn run_histogram(&mut self, hist: &[u64; InstrClass::COUNT]) -> Vec<SimResult> {
        let Backend::Atomic(engine) = self else {
            panic!("only the atomic tier replays a class histogram");
        };
        let _span = run_span(Fidelity::Atomic, engine.lane_count());
        engine.absorb_histogram(hist);
        finish_run(Fidelity::Atomic, engine.finish())
    }
}

/// Records a finished run (see [`record_run`]) and hands its results back.
pub(crate) fn finish_run(fidelity: Fidelity, results: Vec<SimResult>) -> Vec<SimResult> {
    record_run(
        fidelity,
        results.len(),
        results[0].stats.committed_instructions,
    );
    results
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::configs::{cortex_a15_hw, cortex_a7_hw, ex5_big, Ex5Variant};
    use crate::instr::{BranchRef, MemRef};

    /// A mixed stream exercising every structural path: ALU, long-latency,
    /// loads/stores over a sliding footprint, biased branches, exclusives
    /// and barriers.
    fn mixed_stream(n: usize) -> Vec<Instr> {
        (0..n)
            .map(|i| {
                let pc = (i as u64 % 2048) * 4;
                match i % 16 {
                    0..=4 => Instr::alu(InstrClass::IntAlu, pc),
                    5 => Instr::alu(InstrClass::IntMul, pc),
                    6 => Instr::alu(InstrClass::FpAlu, pc),
                    7..=9 => Instr::mem(
                        InstrClass::Load,
                        pc,
                        MemRef::load((i as u64).wrapping_mul(2654435761) % (8 << 20), 4),
                    ),
                    10 => Instr::mem(
                        InstrClass::Store,
                        pc,
                        MemRef::store((i as u64 * 64) % (1 << 20), 4),
                    ),
                    11 | 12 => Instr::branch(
                        InstrClass::Branch,
                        pc,
                        BranchRef {
                            static_id: (i % 32) as u32,
                            taken: i % 5 != 0,
                            target_page: (i as u64 / 64) % 16,
                        },
                    ),
                    13 => Instr::alu(InstrClass::Simd, pc),
                    14 => Instr::alu(InstrClass::Nop, pc),
                    _ => Instr::alu(InstrClass::IntAlu, pc),
                }
            })
            .collect()
    }

    #[test]
    fn fidelity_parse_and_display() {
        assert_eq!("atomic".parse::<Fidelity>().unwrap(), Fidelity::Atomic);
        assert_eq!(" Approx ".parse::<Fidelity>().unwrap(), Fidelity::Approx);
        assert_eq!("SAMPLED".parse::<Fidelity>().unwrap(), Fidelity::Sampled);
        assert!("detailed".parse::<Fidelity>().is_err());
        assert_eq!(Fidelity::Sampled.to_string(), "sampled");
        assert_eq!(Fidelity::default(), Fidelity::Approx);
    }

    #[test]
    fn canonical_collapses_sample_params_for_non_sampled_tiers() {
        let odd = SampleParams {
            interval: 99,
            window: 9,
            warmup: 9,
        };
        let approx = TierConfig {
            fidelity: Fidelity::Approx,
            sample: odd,
        };
        assert_eq!(approx.canonical(), TierConfig::approx());
        let sampled = TierConfig::sampled(odd);
        assert_eq!(sampled.canonical(), sampled);
    }

    #[test]
    fn atomic_matches_approx_architectural_counts() {
        let stream = mixed_stream(50_000);
        let cfg = cortex_a15_hw();
        let mut atomic = Backend::new(TierConfig::atomic(), &cfg, &[1.0e9], 1, 0);
        let ra = atomic.run_stream(stream.clone().into_iter()).remove(0);
        let mut approx = Backend::new(TierConfig::approx(), &cfg, &[1.0e9], 1, 0);
        let rx = approx.run_stream(stream.into_iter()).remove(0);
        assert_eq!(
            ra.stats.committed.to_histogram(),
            rx.stats.committed.to_histogram(),
            "atomic committed counts must be bit-identical to approx"
        );
        assert_eq!(
            ra.stats.committed_instructions,
            rx.stats.committed_instructions
        );
        assert_eq!(ra.stats.fidelity, Fidelity::Atomic);
        assert_eq!(rx.stats.fidelity, Fidelity::Approx);
    }

    #[test]
    fn atomic_histogram_equals_stepping() {
        let stream = mixed_stream(10_000);
        let cfg = cortex_a7_hw();
        let mut stepped = AtomicEngine::new(&cfg, &[1.0e9], 1);
        for i in &stream {
            stepped.step(i);
        }
        let mut hist = [0u64; InstrClass::COUNT];
        for i in &stream {
            hist[i.class.index() as usize] += 1;
        }
        let mut absorbed = AtomicEngine::new(&cfg, &[1.0e9], 1);
        absorbed.absorb_histogram(&hist);
        let a = stepped.finish().remove(0);
        let b = absorbed.finish().remove(0);
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(
            a.stats.committed.to_histogram(),
            b.stats.committed.to_histogram()
        );
    }

    #[test]
    fn sampled_architectural_counts_exact_and_ipc_close() {
        let stream = mixed_stream(200_000);
        let cfg = cortex_a15_hw();
        let mut approx = Backend::new(TierConfig::approx(), &cfg, &[1.0e9], 1, 7);
        let rx = approx.run_stream(stream.clone().into_iter()).remove(0);
        let mut sampled = Backend::new(
            TierConfig::sampled(SampleParams::default()),
            &cfg,
            &[1.0e9],
            1,
            7,
        );
        let rs = sampled.run_stream(stream.into_iter()).remove(0);
        assert_eq!(
            rs.stats.committed.to_histogram(),
            rx.stats.committed.to_histogram(),
            "sampled architectural counts must stay exact"
        );
        let meta = rs.stats.sample.expect("sampled runs carry SampleMeta");
        assert!(meta.windows >= 50, "windows = {}", meta.windows);
        assert!(meta.coverage > 0.2 && meta.coverage < 0.6);
        let err = (rs.stats.ipc() - rx.stats.ipc()).abs() / rx.stats.ipc();
        assert!(err <= 0.05, "sampled IPC error {err:.4} exceeds 5%");
    }

    #[test]
    fn sampled_fully_detailed_is_bit_identical_to_approx() {
        let stream = mixed_stream(5_000);
        let cfg = ex5_big(Ex5Variant::Old);
        let mut approx = Engine::with_seed(cfg.clone(), &[1.0e9], 1, 3);
        let rx = approx.run(stream.clone().into_iter()).remove(0);
        // interval >= stream and warmup+window >= stream: everything detailed.
        let params = SampleParams {
            interval: 1 << 40,
            window: 1 << 39,
            warmup: 1 << 39,
        };
        let mut sampled = SampledEngine::new(cfg, &[1.0e9], 1, 3, params);
        for i in &stream {
            sampled.step(i);
        }
        let rs = sampled.finish().remove(0);
        assert_eq!(rs.cycles, rx.cycles);
        assert_eq!(rs.stats.l1d.misses, rx.stats.l1d.misses);
        assert_eq!(rs.stats.sample.unwrap().coverage, 1.0);
    }

    #[test]
    fn an_observed_replay_is_bit_identical_to_an_unobserved_one() {
        // Three drains and then some; a 1,000-instruction window never
        // meets a drain, a 4,096 one meets every drain.
        let stream = mixed_stream(3 * Engine::DRAIN_INSTRS as usize + 777);
        let cfg = ex5_big(Ex5Variant::Old);
        let freqs = [0.6e9, 1.0e9, 1.4e9, 1.8e9];
        let backend = || Backend::new(TierConfig::approx(), &cfg, &freqs, 4, 9);
        let plain = backend().run_stream(stream.iter().copied());
        for window in [1_000, 4_096] {
            let mut seen: Vec<Vec<SimResult>> = Vec::new();
            let mut observe = |lanes: &[SimResult]| seen.push(lanes.to_vec());
            let observer = WindowObserver {
                window,
                observe: &mut observe,
            };
            let observed = backend().run_observed(stream.iter().copied(), observer);
            assert_eq!(seen.len() as u64, stream.len() as u64 / window);
            for (k, lanes) in (1..).zip(&seen) {
                assert_eq!(lanes.len(), freqs.len());
                for lane in lanes {
                    assert_eq!(lane.stats.committed_instructions, k * window);
                }
            }
            for (a, b) in plain.iter().zip(&observed) {
                assert_eq!(a.cycles.to_bits(), b.cycles.to_bits(), "window {window}");
                assert_eq!(a.seconds.to_bits(), b.seconds.to_bits(), "window {window}");
                assert_eq!(a.stats.gem5_stats_map(), b.stats.gem5_stats_map());
            }
        }
    }

    #[test]
    #[should_panic(expected = "only the approx tier")]
    fn only_the_approx_tier_replays_under_an_observer() {
        let cfg = cortex_a7_hw();
        let mut sampled = Backend::new(
            TierConfig::sampled(SampleParams::default()),
            &cfg,
            &[1.0e9],
            1,
            0,
        );
        let mut observe = |_: &[SimResult]| {};
        let observer = WindowObserver {
            window: 100,
            observe: &mut observe,
        };
        sampled.run_observed(mixed_stream(1_000).into_iter(), observer);
    }

    #[test]
    fn sampled_is_deterministic() {
        let stream = mixed_stream(60_000);
        let cfg = cortex_a15_hw();
        let mk = || {
            let mut b = Backend::new(
                TierConfig::sampled(SampleParams::default()),
                &cfg,
                &[1.0e9],
                4,
                11,
            );
            b.run_stream(stream.clone().into_iter()).remove(0)
        };
        let a = mk();
        let b = mk();
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.stats.l1d.misses, b.stats.l1d.misses);
        assert_eq!(a.stats.sample, b.stats.sample);
    }

    #[test]
    fn warm_state_advances_state_but_records_nothing() {
        let stream = mixed_stream(20_000);
        let mut warmed = Engine::with_seed(cortex_a7_hw(), &[1.0e9], 1, 5);
        for i in &stream {
            warmed.warm_state(i);
        }
        // Warming charges no cycles and records no events at all.
        let r = warmed.finish().remove(0);
        assert_eq!(r.cycles, 0.0);
        assert_eq!(r.stats.committed_instructions, 0);
        assert_eq!(r.stats.l1d.accesses, 0);
        assert_eq!(r.stats.l2.misses, 0);
        assert_eq!(r.stats.branch.lookups, 0);
        assert_eq!(r.stats.itlb.l1_accesses, 0);

        // But the state did advance: replaying the same stream in detail on
        // the warmed engine hits where a cold engine misses.
        let mut cold = Engine::with_seed(cortex_a7_hw(), &[1.0e9], 1, 5);
        for i in &stream {
            cold.step(i);
        }
        let cold_r = cold.finish().remove(0);
        for i in &stream {
            warmed.step(i);
        }
        let warm_r = warmed.finish().remove(0);
        assert!(
            warm_r.stats.l2.misses < cold_r.stats.l2.misses,
            "warming must leave the caches hot: {} vs {}",
            warm_r.stats.l2.misses,
            cold_r.stats.l2.misses
        );
        assert!(warm_r.cycles < cold_r.cycles);
    }

    #[test]
    #[should_panic(expected = "frequencies must be positive")]
    fn atomic_tier_rejects_a_non_positive_later_lane() {
        let _ = Backend::new(TierConfig::atomic(), &cortex_a7_hw(), &[1.0e9, 0.0], 1, 0);
    }

    #[test]
    fn every_tier_validates_every_lane() {
        for tier in [
            TierConfig::atomic(),
            TierConfig::approx(),
            TierConfig::sampled(SampleParams::default()),
        ] {
            for freqs in [&[][..], &[1.0e9, -1.0e9], &[1.0e9, 1.4e9, f64::NAN]] {
                let built = std::panic::catch_unwind(|| {
                    Backend::new(tier, &cortex_a7_hw(), freqs, 1, 0);
                });
                assert!(built.is_err(), "{tier} accepted lanes {freqs:?}");
            }
        }
    }

    #[test]
    fn sample_params_env_defaults() {
        // Unset variables fall back to the documented defaults.
        std::env::remove_var(SAMPLE_INTERVAL_ENV);
        std::env::remove_var(SAMPLE_WINDOW_ENV);
        std::env::remove_var(SAMPLE_WARMUP_ENV);
        assert_eq!(SampleParams::from_env(), SampleParams::default());
    }

    #[test]
    fn detailed_len_clamps_to_interval() {
        let p = SampleParams {
            interval: 100,
            window: 80,
            warmup: 80,
        };
        assert_eq!(p.detailed_len(), 100);
    }
}
