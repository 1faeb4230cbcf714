//! Run-time power estimation inside the simulator.
//!
//! The paper's Fig. 2 tool has two output paths: retrospective application
//! of the power model to finished runs ([`crate::apply`]) and "power
//! equations in a format that allows run-time power analysis in gem5
//! itself". This module is the second path. It observes the replay a
//! simulation-cache fill runs ([`SimCache::execute_grid_with`]: the same
//! trace, seed and warm prologue) window by window of retired
//! instructions, and evaluates the power model on each window's event
//! rates. One fused pass over a DVFS column gives one power *trace* per
//! lane rather than a single average: what a run-time governor study
//! would consume. The last window of a lane ends at the cached run's
//! simulated time, and since the model is linear in the rates, its
//! window energies add up to the retrospective estimate of the same run
//! ([`crate::apply::apply_to_gem5`]).
//!
//! # Examples
//!
//! ```no_run
//! # fn model() -> gemstone_powmon::model::PowerModel { unimplemented!() }
//! use gemstone_platform::dvfs::Cluster;
//! use gemstone_powmon::runtime::RuntimePowerMonitor;
//! use gemstone_uarch::configs::cortex_a15_hw;
//! use gemstone_workloads::{suites, trace::TraceCache};
//!
//! let spec = suites::by_name("mi-fft").unwrap();
//! let freqs = Cluster::BigA15.frequencies();
//! let monitor = RuntimePowerMonitor::new(model(), 10_000);
//! let traces = monitor
//!     .run(&TraceCache::global(), &cortex_a15_hw(), spec, freqs)
//!     .unwrap();
//! for (f, trace) in freqs.iter().zip(&traces) {
//!     println!("{f:e} Hz: mean {:.2} W, peak {:.2} W", trace.mean_power_w(), trace.peak_power_w());
//! }
//! ```

use crate::model::PowerModel;
use gemstone_platform::simcache::SimCache;
use gemstone_stats::{Result, StatsError};
use gemstone_uarch::backend::{TierConfig, WindowObserver};
use gemstone_uarch::core::{CoreConfig, SimResult};
use gemstone_uarch::pmu::{event_counts, EventCode};
use gemstone_uarch::stats::SimStats;
use gemstone_workloads::spec::WorkloadSpec;
use gemstone_workloads::trace::TraceCache;
use std::collections::BTreeMap;

/// One window of the power trace.
#[derive(Debug, Clone, Copy)]
pub struct PowerSample {
    /// Window start (simulated seconds).
    pub t_start_s: f64,
    /// Window end (simulated seconds).
    pub t_end_s: f64,
    /// Estimated average power over the window (W).
    pub power_w: f64,
}

impl PowerSample {
    /// Window duration (s).
    pub fn duration_s(&self) -> f64 {
        self.t_end_s - self.t_start_s
    }

    /// Window energy (J).
    pub fn energy_j(&self) -> f64 {
        self.power_w * self.duration_s()
    }
}

/// A complete run-time power trace.
#[derive(Debug, Clone)]
pub struct PowerTrace {
    /// Per-window samples, in time order.
    pub samples: Vec<PowerSample>,
    /// Total simulated time (s).
    pub total_time_s: f64,
}

impl PowerTrace {
    /// Total energy (J).
    pub fn total_energy_j(&self) -> f64 {
        self.samples.iter().map(PowerSample::energy_j).sum()
    }

    /// Time-weighted mean power (W); 0 for an empty trace.
    pub fn mean_power_w(&self) -> f64 {
        if self.total_time_s > 0.0 {
            self.total_energy_j() / self.total_time_s
        } else {
            0.0
        }
    }

    /// Highest window power (W); 0 for an empty trace.
    pub fn peak_power_w(&self) -> f64 {
        self.samples.iter().map(|s| s.power_w).fold(0.0, f64::max)
    }

    /// A compact ASCII sparkline of the trace.
    pub fn sparkline(&self) -> String {
        const LEVELS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
        let peak = self.peak_power_w().max(1e-12);
        self.samples
            .iter()
            .map(|s| {
                let idx = ((s.power_w / peak) * (LEVELS.len() - 1) as f64).round() as usize;
                LEVELS[idx.min(LEVELS.len() - 1)]
            })
            .collect()
    }
}

/// Evaluates a power model over the windows of a replay.
#[derive(Debug)]
pub struct RuntimePowerMonitor {
    model: PowerModel,
    window_instructions: u64,
}

/// One lane's trace while the replay runs: its samples so far and the
/// cumulative counts and time at the end of the last one.
struct LaneTrace {
    freq_hz: f64,
    counts: BTreeMap<EventCode, f64>,
    t: f64,
    samples: Vec<PowerSample>,
}

impl LaneTrace {
    /// Closes the window that ends at the cumulative `snap`; a window in
    /// which no time passed is skipped. Cumulative counts never fall, and
    /// the deltas are used unclamped, so the window energies telescope to
    /// the whole run's.
    fn close(&mut self, model: &PowerModel, snap: &SimStats) -> Result<()> {
        let dt = snap.seconds - self.t;
        if dt <= 0.0 {
            return Ok(());
        }
        let counts = event_counts(snap);
        let rates: BTreeMap<EventCode, f64> = counts
            .iter()
            .map(|(&c, &v)| (c, (v - self.counts.get(&c).copied().unwrap_or(0.0)) / dt))
            .collect();
        self.samples.push(PowerSample {
            t_start_s: self.t,
            t_end_s: snap.seconds,
            power_w: model.predict(self.freq_hz, &rates)?,
        });
        self.counts = counts;
        self.t = snap.seconds;
        Ok(())
    }
}

impl RuntimePowerMonitor {
    /// Creates a monitor evaluating `model` every `window_instructions`
    /// retired instructions (minimum 100).
    pub fn new(model: PowerModel, window_instructions: u64) -> Self {
        RuntimePowerMonitor {
            model,
            window_instructions: window_instructions.max(100),
        }
    }

    /// Replays `spec` on `cfg` over the frequency column `freqs_hz` at the
    /// approx tier, from the packed trace in `traces`, in one fused pass,
    /// and returns one power trace per frequency, in order. The replay is
    /// the one a simulation-cache fill runs, so each trace's last window
    /// ends at that run's simulated time, bit for bit.
    ///
    /// # Errors
    ///
    /// [`StatsError::InvalidArgument`] when `freqs_hz` is empty or the
    /// model has no coefficients for one of its frequencies, before any
    /// replay; [`StatsError::NotEnoughData`] when the workload retires no
    /// instruction.
    pub fn run(
        &self,
        traces: &TraceCache,
        cfg: &CoreConfig,
        spec: &WorkloadSpec,
        freqs_hz: &[f64],
    ) -> Result<Vec<PowerTrace>> {
        if freqs_hz.is_empty() {
            return Err(StatsError::InvalidArgument("at least one frequency lane"));
        }
        for &f in freqs_hz {
            self.model.coefficients_at(f)?;
        }
        let mut lanes: Vec<LaneTrace> = freqs_hz
            .iter()
            .map(|&freq_hz| LaneTrace {
                freq_hz,
                counts: BTreeMap::new(),
                t: 0.0,
                samples: Vec::new(),
            })
            .collect();
        let mut status = Ok(());
        let mut observe = |snaps: &[SimResult]| {
            if status.is_ok() {
                status = lanes
                    .iter_mut()
                    .zip(snaps)
                    .try_for_each(|(lane, snap)| lane.close(&self.model, &snap.stats));
            }
        };
        let observer = WindowObserver {
            window: self.window_instructions,
            observe: &mut observe,
        };
        let ends = SimCache::execute_grid_with(
            traces,
            cfg,
            spec,
            freqs_hz,
            TierConfig::approx(),
            Some(observer),
        );
        status?;
        lanes
            .into_iter()
            .zip(&ends)
            .map(|(mut lane, end)| {
                // The trailing partial window.
                lane.close(&self.model, &end.stats)?;
                if lane.samples.is_empty() {
                    return Err(StatsError::NotEnoughData {
                        needed: 1,
                        available: 0,
                    });
                }
                Ok(PowerTrace {
                    samples: lane.samples,
                    total_time_s: lane.t,
                })
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset;
    use crate::selection::{self, SelectionOptions};
    use gemstone_platform::board::OdroidXu3;
    use gemstone_platform::dvfs::Cluster;
    use gemstone_uarch::configs::cortex_a15_hw;
    use gemstone_workloads::spec::{InstrMix, MemPattern, PhaseSpec, Suite};
    use gemstone_workloads::suites;

    fn model() -> PowerModel {
        let board = OdroidXu3::new();
        // Three distinct SIMD intensities (neonspeed 0.40, jpeg-decode
        // 0.12, jpeg-encode 0.10, rest 0) so the ASE_SPEC coefficient is
        // identified by a gradient rather than a single outlier point.
        let specs: Vec<_> = [
            "mi-sha",
            "mi-fft",
            "lm-bw-mem-rd",
            "mi-bitcount",
            "rl-neonspeed",
            "mi-jpeg-encode",
            "mi-jpeg-decode",
            "dhry-dhrystone",
            "mi-dijkstra",
            "whet-whetstone",
        ]
        .iter()
        .map(|n| suites::by_name(n).unwrap().scaled(0.08))
        .collect();
        let ds = dataset::collect(&board, Cluster::BigA15, &specs, &[1.0e9]);
        // Stepwise-selected terms, exactly as the real workflow fits them.
        // A small hand-picked term list is brittle here: omitted per-op
        // energies get absorbed into whatever terms they correlate with,
        // and the SIMD coefficient can come out with the wrong sign.
        let sel = selection::select_events(&ds, &SelectionOptions::default()).unwrap();
        PowerModel::fit(&ds, &sel.terms).unwrap()
    }

    /// The 1 GHz trace of `spec` on the A15, the one frequency `model()`
    /// has coefficients for.
    fn trace_of(spec: &WorkloadSpec, window: u64) -> PowerTrace {
        RuntimePowerMonitor::new(model(), window)
            .run(&TraceCache::global(), &cortex_a15_hw(), spec, &[1.0e9])
            .unwrap()
            .remove(0)
    }

    #[test]
    fn trace_covers_the_run_and_energy_adds_up() {
        let spec = suites::by_name("mi-fft").unwrap().scaled(0.2);
        let trace = trace_of(&spec, 5_000);
        assert!(
            trace.samples.len() >= 5,
            "samples = {}",
            trace.samples.len()
        );
        // Windows tile the run.
        assert_eq!(trace.samples[0].t_start_s, 0.0);
        for w in trace.samples.windows(2) {
            assert_eq!(w[0].t_end_s, w[1].t_start_s);
        }
        assert_eq!(trace.samples.last().unwrap().t_end_s, trace.total_time_s);
        // Energy = Σ window energies = mean power × total time.
        let e = trace.total_energy_j();
        assert!(e > 0.0);
        assert!((trace.mean_power_w() * trace.total_time_s - e).abs() < 1e-9);
        assert!(trace.peak_power_w() >= trace.mean_power_w());
    }

    #[test]
    fn phase_changes_show_in_the_trace() {
        // A two-phase workload: integer code streaming over 64 KiB, then
        // SIMD-heavy code chasing pointers over 4 MiB. The trace should
        // show distinctly different power in the two halves. (The fitted
        // model selects no SIMD event, so the memory behaviour is the
        // change it sees.)
        let mut p1 = PhaseSpec::default_phase();
        p1.weight = 1.0;
        let mut p2 = PhaseSpec::default_phase();
        p2.weight = 1.0;
        p2.mix = InstrMix {
            simd: 0.5,
            ..InstrMix::fp_baseline()
        };
        p2.mem = MemPattern::pointer_chase(4 << 20);
        let spec = WorkloadSpec::builder("phased-power", Suite::Whetstone)
            .instructions(60_000)
            .phases(vec![p1, p2])
            .build();
        let trace = trace_of(&spec, 3_000);
        let n = trace.samples.len();
        let first: f64 = trace.samples[..n / 2]
            .iter()
            .map(|s| s.power_w)
            .sum::<f64>()
            / (n / 2) as f64;
        let second: f64 = trace.samples[n / 2..]
            .iter()
            .map(|s| s.power_w)
            .sum::<f64>()
            / (n - n / 2) as f64;
        assert!(
            (first - second).abs() / first > 0.02,
            "phases should differ: {first} vs {second}"
        );
        // Sparkline renders one glyph per sample.
        assert_eq!(trace.sparkline().chars().count(), n);
    }

    #[test]
    fn uncovered_frequency_fails_before_any_replay() {
        let spec = suites::by_name("mi-sha").unwrap().scaled(0.05);
        let monitor = RuntimePowerMonitor::new(model(), 5_000);
        let traces = TraceCache::new();
        for freqs in [&[1.4e9][..], &[1.0e9, 1.4e9], &[]] {
            assert!(matches!(
                monitor.run(&traces, &cortex_a15_hw(), &spec, freqs),
                Err(StatsError::InvalidArgument(_))
            ));
        }
        assert_eq!(traces.misses() + traces.hits(), 0, "no trace was asked for");
    }
}
