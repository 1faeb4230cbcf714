//! The simulated ODROID-XU3 board: runs workloads on a cluster at a DVFS
//! point the way the paper's hardware experiments do — median-of-5 timing,
//! multiplexed PMC capture, and ≥30-second repetition under the power
//! sensor with a realistic thermal state.
//!
//! # Examples
//!
//! ```
//! use gemstone_platform::board::OdroidXu3;
//! use gemstone_platform::dvfs::Cluster;
//! use gemstone_workloads::suites;
//!
//! let board = OdroidXu3::new();
//! let spec = suites::by_name("dhry-dhrystone").unwrap().scaled(0.05);
//! let run = board.run(&spec, Cluster::LittleA7, 600.0e6);
//! assert_eq!(run.workload, "dhry-dhrystone");
//! assert!(run.pmc.len() > 60);
//! ```

use crate::dvfs::Cluster;
use crate::fault::{FaultError, FaultInjector, FaultSite};
use crate::pmu_capture::MultiplexedPmu;
use crate::power_truth;
use crate::sensors::{gaussian, PowerSensor};
use crate::simcache::{SimCache, SimOutcome};
use crate::thermal::ThermalModel;
use gemstone_uarch::backend::TierConfig;
use gemstone_uarch::configs::{cortex_a15_hw, cortex_a7_hw};
use gemstone_uarch::pmu::{event_counts, EventCode};
use gemstone_uarch::stats::SimStats;
use gemstone_workloads::spec::WorkloadSpec;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Duration (seconds) a workload is repeated under the power sensor.
pub const POWER_MEASUREMENT_SECONDS: f64 = 30.0;
/// Timing repetitions (the paper: "Each workload was run five times and the
/// observation with the median execution time used").
pub const TIMING_RUNS: usize = 5;

/// The result of running one workload on the (simulated) hardware.
#[derive(Debug, Clone)]
pub struct HwRun {
    /// Workload name.
    pub workload: String,
    /// Cluster the run used.
    pub cluster: Cluster,
    /// Core frequency (Hz).
    pub freq_hz: f64,
    /// Threads the workload ran with.
    pub threads: u32,
    /// Median-of-5 measured execution time (s).
    pub time_s: f64,
    /// Captured PMC event counts (multiplexed over repeated runs).
    pub pmc: BTreeMap<EventCode, f64>,
    /// Average measured cluster power (W) over the ≥30 s window.
    pub power_w: f64,
    /// Junction temperature at the end of the power window (°C).
    pub temperature_c: f64,
    /// Busy fraction of the power-measurement window (benchmarks include
    /// I/O, startup and scheduler gaps, so the core is not 100 % active).
    pub power_utilization: f64,
    /// The engine's full (noise-free) statistics — the methodology never
    /// reads these for hardware; they exist for validation tests.
    pub true_stats: SimStats,
}

impl HwRun {
    /// Energy over one workload execution (J): measured power × time.
    pub fn energy_j(&self) -> f64 {
        self.power_w * self.time_s
    }

    /// PMC event *rate* (events per second of measured time).
    pub fn pmc_rate(&self, code: EventCode) -> f64 {
        self.pmc.get(&code).copied().unwrap_or(0.0) / self.time_s
    }
}

/// The simulated board.
#[derive(Debug, Clone)]
pub struct OdroidXu3 {
    /// Ambient temperature (°C).
    pub ambient_c: f64,
    /// Power sensor model.
    pub sensor: PowerSensor,
    /// PMU capture model.
    pub pmu: MultiplexedPmu,
    /// Relative run-to-run execution-time jitter (1 σ).
    pub timing_jitter: f64,
    /// Extra board-level seed (lets tests model board-to-board variation).
    pub board_seed: u64,
    /// Simulation-result memo consulted before every engine run — the
    /// campaign's cache, which the gem5 runs of an experiment share.
    /// Defaults to the process-wide [`SimCache::global`]; swap in an
    /// isolated [`SimCache`] for controlled tests and benchmarks. The
    /// engine result is board-independent, so boards with different
    /// measurement seeds safely share one cache.
    pub cache: Arc<SimCache>,
}

impl Default for OdroidXu3 {
    fn default() -> Self {
        Self::new()
    }
}

impl OdroidXu3 {
    /// A board in the paper's lab conditions.
    pub fn new() -> Self {
        OdroidXu3 {
            ambient_c: 25.0,
            sensor: PowerSensor::default(),
            pmu: MultiplexedPmu::default(),
            timing_jitter: 0.004,
            board_seed: 0,
            cache: SimCache::global(),
        }
    }

    fn core_config(cluster: Cluster) -> gemstone_uarch::core::CoreConfig {
        match cluster {
            Cluster::LittleA7 => cortex_a7_hw(),
            Cluster::BigA15 => cortex_a15_hw(),
        }
    }

    fn noise_rng(&self, spec: &WorkloadSpec, cluster: Cluster, freq_hz: f64) -> SmallRng {
        let tag = match cluster {
            Cluster::LittleA7 => 0xA7,
            Cluster::BigA15 => 0xA15,
        };
        SmallRng::seed_from_u64(
            spec.derived_seed() ^ tag ^ (freq_hz as u64) ^ self.board_seed.rotate_left(17),
        )
    }

    /// Consults `faults` for every site a run at this DVFS point would
    /// touch — the run harness, the power sensor and the PMU capture loop
    /// — without doing any simulation or measurement work. Sweeps use
    /// this to vet a whole frequency column (retrying each point
    /// independently) before committing to one fused replay. Since faults
    /// fire before any simulation or RNG work, a run after faults is
    /// bit-identical to one that never faulted. `attempt` is the 0-based
    /// retry count; transient faults clear once it is high enough.
    ///
    /// # Errors
    ///
    /// Returns the injected [`FaultError`] when a fault fires for this
    /// (workload, cluster, frequency, attempt).
    pub fn check_faults(
        &self,
        faults: &FaultInjector,
        spec: &WorkloadSpec,
        cluster: Cluster,
        freq_hz: f64,
        attempt: u32,
    ) -> Result<(), FaultError> {
        if faults.is_active() {
            let key = format!("{}:{}:{:.0}", spec.name, cluster.name(), freq_hz);
            faults.check(FaultSite::BoardRun, &key, attempt)?;
            faults.check(FaultSite::SensorRead, &key, attempt)?;
            faults.check(FaultSite::PmuCapture, &key, attempt)?;
        }
        Ok(())
    }

    /// Runs a workload on `cluster` at `freq_hz` and collects time, PMCs and
    /// power exactly like the paper's Experiments 1/3/4, at the default
    /// (cycle-approximate) fidelity tier.
    ///
    /// # Panics
    ///
    /// Panics if `freq_hz` is not positive.
    pub fn run(&self, spec: &WorkloadSpec, cluster: Cluster, freq_hz: f64) -> HwRun {
        self.run_tier(spec, cluster, freq_hz, TierConfig::default())
    }

    /// [`OdroidXu3::run`] at an explicit fidelity tier. Measurement noise
    /// is tier-independent — it is drawn from the same seeded RNG — so the
    /// only differences between tiers are the engine statistics themselves
    /// (exact architectural counts on every tier; micro-architectural
    /// events fixed-cost on the atomic tier, extrapolated on the sampled
    /// tier).
    ///
    /// The simulation goes through [`SimCache::run_point`]: at one of the
    /// cluster's DVFS points a cold run fills the whole column from one
    /// fused replay; any other frequency replays one lane.
    ///
    /// # Panics
    ///
    /// Panics if `freq_hz` is not positive.
    pub fn run_tier(
        &self,
        spec: &WorkloadSpec,
        cluster: Cluster,
        freq_hz: f64,
        tier: TierConfig,
    ) -> HwRun {
        let cfg = Self::core_config(cluster);
        // The engine is deterministic, so the expensive simulation is
        // memoised; all measurement noise below is drawn per call from the
        // seeded RNG, keeping results identical on cache hit and miss.
        let sim = self
            .cache
            .run_point(&cfg, spec, Some(cluster), freq_hz, tier);
        self.measure(spec, cluster, freq_hz, sim)
    }

    /// Runs a workload across a whole frequency column on `cluster` from
    /// one fused grid replay: the trace is decoded once and every
    /// frequency is simulated as a lane of the same pass (see
    /// [`SimCache::run_grid`]). Returns one [`HwRun`] per entry of
    /// `freqs_hz`, in order, each bit-identical to
    /// [`OdroidXu3::run_tier`] at that frequency — measurement noise is
    /// seeded per (workload, cluster, frequency), so batching does not
    /// perturb it.
    ///
    /// # Panics
    ///
    /// Panics if any frequency is not positive.
    pub fn run_grid_tier(
        &self,
        spec: &WorkloadSpec,
        cluster: Cluster,
        freqs_hz: &[f64],
        tier: TierConfig,
    ) -> Vec<HwRun> {
        let cfg = Self::core_config(cluster);
        let sims = self.cache.run_grid(&cfg, spec, freqs_hz, tier);
        freqs_hz
            .iter()
            .zip(sims)
            .map(|(&f, sim)| self.measure(spec, cluster, f, sim))
            .collect()
    }

    /// The measurement half of a run: timing, PMC capture, thermal/power
    /// iteration and sensor averaging around an already-simulated
    /// outcome. Noise is drawn from a fresh per-(workload, cluster,
    /// frequency) RNG, so the result depends only on `sim` and the board
    /// — not on how (or in what batch) the simulation was produced.
    fn measure(
        &self,
        spec: &WorkloadSpec,
        cluster: Cluster,
        freq_hz: f64,
        sim: SimOutcome,
    ) -> HwRun {
        let mut rng = self.noise_rng(spec, cluster, freq_hz);

        // Median-of-5 timing with run-to-run jitter.
        let mut times: Vec<f64> = (0..TIMING_RUNS)
            .map(|_| sim.seconds * (1.0 + self.timing_jitter * gaussian(&mut rng)))
            .collect();
        times.sort_by(|a, b| a.partial_cmp(b).expect("finite times"));
        let time_s = times[TIMING_RUNS / 2];

        // Multiplexed PMC capture.
        let truth = event_counts(&sim.stats);
        let pmc = self.pmu.capture(&truth, &mut rng);

        // Power: repeat the workload for ≥30 s; the thermal state settles
        // and the sensor averages. Static power depends on temperature, so
        // iterate the coupled pair. The ambient and the regulator output
        // drift a little between measurements, and the repeat loop has a
        // workload-specific busy fraction (I/O, setup, scheduler gaps).
        let utilization = {
            let h = spec.derived_seed().wrapping_mul(0xD6E8_FEB8_6659_FD93);
            0.88 + 0.12 * ((h >> 11) as f64 / (1u64 << 53) as f64)
        };
        let ambient = self.ambient_c + 2.0 * gaussian(&mut rng);
        let v = cluster.voltage(freq_hz) * (1.0 + 0.006 * gaussian(&mut rng));
        let toggle_seed = spec.derived_seed();
        let mut thermal = ThermalModel::new(ambient);
        let mut power =
            power_truth::true_power(cluster, &sim.stats, v, thermal.temperature_c(), toggle_seed);
        for _ in 0..3 {
            thermal.advance(power, POWER_MEASUREMENT_SECONDS / 3.0);
            power = power_truth::true_power(
                cluster,
                &sim.stats,
                v,
                thermal.temperature_c(),
                toggle_seed,
            );
        }
        let idle_power = power_truth::static_power(cluster, v, thermal.temperature_c()) * 1.15;
        let window_power = utilization * power + (1.0 - utilization) * idle_power;
        let measured = self
            .sensor
            .measure(window_power, POWER_MEASUREMENT_SECONDS, &mut rng);

        HwRun {
            workload: spec.name.clone(),
            cluster,
            freq_hz,
            threads: spec.threads,
            time_s,
            pmc,
            power_w: measured,
            temperature_c: thermal.temperature_c(),
            power_utilization: utilization,
            true_stats: sim.stats,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gemstone_workloads::suites;

    fn spec() -> WorkloadSpec {
        suites::by_name("mi-sha").unwrap().scaled(0.1)
    }

    #[test]
    fn run_produces_consistent_record() {
        let board = OdroidXu3::new();
        let r = board.run(&spec(), Cluster::BigA15, 1.0e9);
        assert!(r.time_s > 0.0);
        assert!(r.power_w > 0.2 && r.power_w < 6.0, "power {}", r.power_w);
        assert!(r.temperature_c > board.ambient_c);
        assert!(r.pmc.len() >= 60);
        assert!(r.energy_j() > 0.0);
        // Measured time within jitter of the true time.
        let truth = r.true_stats.seconds;
        assert!((r.time_s - truth).abs() / truth < 0.03);
    }

    #[test]
    fn determinism_per_board() {
        let board = OdroidXu3::new();
        let a = board.run(&spec(), Cluster::LittleA7, 600.0e6);
        let b = board.run(&spec(), Cluster::LittleA7, 600.0e6);
        assert_eq!(a.time_s, b.time_s);
        assert_eq!(a.power_w, b.power_w);
        assert_eq!(a.pmc, b.pmc);
    }

    #[test]
    fn cache_cold_warm_direct_bit_identical() {
        // Isolated cache: no interference from concurrently running tests.
        let mut board = OdroidXu3::new();
        board.cache = Arc::new(SimCache::new());
        let cold = board.run(&spec(), Cluster::BigA15, 1.0e9);
        let warm = board.run(&spec(), Cluster::BigA15, 1.0e9);
        // 1 GHz is a DVFS point: the cold run filled the 4-lane column.
        assert_eq!((board.cache.misses(), board.cache.hits()), (4, 1));
        let sim = SimCache::execute_grid_with(
            board.cache.trace_cache(),
            &cortex_a15_hw(),
            &spec(),
            &[1.0e9],
            TierConfig::default(),
            None,
        )
        .remove(0);
        let direct = board.measure(&spec(), Cluster::BigA15, 1.0e9, sim);

        for other in [&warm, &direct] {
            assert_eq!(cold.time_s, other.time_s);
            assert_eq!(cold.power_w, other.power_w);
            assert_eq!(cold.pmc, other.pmc);
            assert_eq!(cold.temperature_c, other.temperature_c);
            assert_eq!(cold.true_stats.cycles, other.true_stats.cycles);
        }
    }

    #[test]
    fn off_column_points_run_one_lane() {
        let mut board = OdroidXu3::new();
        board.cache = Arc::new(SimCache::new());
        // 2 GHz is the A15's throttling point, outside its DVFS column.
        board.run(&spec(), Cluster::BigA15, 2.0e9);
        assert_eq!((board.cache.misses(), board.cache.grid_fills()), (1, 0));
    }

    #[test]
    fn grid_column_matches_per_frequency_runs() {
        let mut board = OdroidXu3::new();
        board.cache = Arc::new(SimCache::new());
        let freqs = [600.0e6, 1.0e9, 1.4e9, 1.8e9];
        let column = board.run_grid_tier(&spec(), Cluster::BigA15, &freqs, TierConfig::default());
        assert_eq!(board.cache.grid_fills(), freqs.len() as u64);
        let mut reference = OdroidXu3::new();
        reference.cache = Arc::new(SimCache::new());
        for (&f, run) in freqs.iter().zip(&column) {
            let single = reference.run(&spec(), Cluster::BigA15, f);
            assert_eq!(run.freq_hz, f);
            assert_eq!(run.time_s, single.time_s);
            assert_eq!(run.power_w, single.power_w);
            assert_eq!(run.pmc, single.pmc);
            assert_eq!(run.temperature_c, single.temperature_c);
            assert_eq!(run.true_stats.cycles, single.true_stats.cycles);
        }
    }

    #[test]
    fn cloned_boards_share_one_cache() {
        let mut board = OdroidXu3::new();
        board.cache = Arc::new(SimCache::new());
        let clone = board.clone();
        board.run(&spec(), Cluster::LittleA7, 600.0e6);
        clone.run(&spec(), Cluster::LittleA7, 600.0e6);
        // 600 MHz is a DVFS point: one 4-lane column fill, then a hit.
        assert_eq!((board.cache.misses(), board.cache.hits()), (4, 1));
    }

    #[test]
    fn board_seed_changes_measurements_not_truth() {
        let a = OdroidXu3::new().run(&spec(), Cluster::BigA15, 1.0e9);
        let mut board_b = OdroidXu3::new();
        board_b.board_seed = 99;
        let b = board_b.run(&spec(), Cluster::BigA15, 1.0e9);
        assert_eq!(a.true_stats.cycles, b.true_stats.cycles);
        assert_ne!(a.time_s, b.time_s);
    }

    #[test]
    fn higher_frequency_faster_and_hotter() {
        let board = OdroidXu3::new();
        let lo = board.run(&spec(), Cluster::BigA15, 600.0e6);
        let hi = board.run(&spec(), Cluster::BigA15, 1.8e9);
        assert!(hi.time_s < lo.time_s);
        assert!(hi.power_w > lo.power_w);
        assert!(hi.temperature_c > lo.temperature_c);
    }

    #[test]
    fn a15_faster_but_hungrier_than_a7() {
        let board = OdroidXu3::new();
        let little = board.run(&spec(), Cluster::LittleA7, 1.0e9);
        let big = board.run(&spec(), Cluster::BigA15, 1.0e9);
        assert!(big.time_s < little.time_s);
        assert!(big.power_w > little.power_w);
    }

    #[test]
    fn try_run_matches_run_and_recovers_bit_identically() {
        use crate::fault::{FaultInjector, FaultPlan};
        let board = OdroidXu3::new();
        let plain = board.run(&spec(), Cluster::BigA15, 1.0e9);
        // A disabled injector never faults.
        board
            .check_faults(
                &FaultInjector::disabled(),
                &spec(),
                Cluster::BigA15,
                1.0e9,
                0,
            )
            .unwrap();
        // Everything faults on attempt 0 and clears by the fail budget;
        // faults fire before any simulation or RNG work, so the run after
        // them is bit-identical to the clean one.
        let inj = FaultInjector::new(FaultPlan {
            seed: 5,
            transient_rate: 1.0,
            permanent_rate: 0.0,
            max_transient_fails: 2,
        });
        assert!(board
            .check_faults(&inj, &spec(), Cluster::BigA15, 1.0e9, 0)
            .is_err());
        board
            .check_faults(&inj, &spec(), Cluster::BigA15, 1.0e9, 2)
            .unwrap();
        let recovered = board.run(&spec(), Cluster::BigA15, 1.0e9);
        assert_eq!(plain.time_s, recovered.time_s);
        assert_eq!(plain.power_w, recovered.power_w);
        assert_eq!(plain.pmc, recovered.pmc);
    }

    #[test]
    fn pmc_rate_helper() {
        let board = OdroidXu3::new();
        let r = board.run(&spec(), Cluster::BigA15, 1.0e9);
        let rate = r.pmc_rate(gemstone_uarch::pmu::INST_RETIRED);
        assert!(rate > 1e6, "rate = {rate}");
        assert_eq!(r.pmc_rate(0x3F), 0.0); // unknown event
    }
}
