//! The gem5 simulation driver: runs the `ex5_big` / `ex5_LITTLE` model
//! configurations over the same workloads and DVFS points as the hardware
//! experiments and returns a gem5-style statistics dump (the paper's
//! Experiment 2).
//!
//! Unlike the board, the simulator is deterministic and noise-free — a real
//! gem5 run always produces the same `stats.txt`.
//!
//! # Examples
//!
//! ```
//! use gemstone_platform::gem5sim::{Gem5Model, Gem5Sim};
//! use gemstone_platform::simcache::SimCache;
//! use gemstone_uarch::backend::TierConfig;
//! use gemstone_workloads::suites;
//!
//! let spec = suites::by_name("mi-crc32").unwrap().scaled(0.05);
//! let cache = SimCache::new();
//! let run = Gem5Sim::run(&cache, &spec, Gem5Model::Ex5BigOld, 1.0e9, TierConfig::default());
//! assert!(run.stats_map.contains_key("system.cpu.numCycles"));
//! ```

use crate::dvfs::Cluster;
use crate::fault::{FaultError, FaultInjector, FaultSite};
use crate::simcache::SimCache;
use gemstone_uarch::backend::TierConfig;
use gemstone_uarch::configs::{ex5_big, ex5_little, Ex5Variant};
use gemstone_uarch::pmu::{event_counts, EventCode};
use gemstone_uarch::stats::SimStats;
use gemstone_workloads::spec::WorkloadSpec;
use std::collections::BTreeMap;

/// Which gem5 CPU model to simulate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Gem5Model {
    /// `ex5_big.py` before the branch-predictor fix (§IV).
    Ex5BigOld,
    /// `ex5_big.py` after the §VII bug fix.
    Ex5BigFixed,
    /// `ex5_LITTLE.py`.
    Ex5Little,
}

impl Gem5Model {
    /// The hardware cluster this model claims to represent.
    pub fn cluster(self) -> Cluster {
        match self {
            Gem5Model::Ex5BigOld | Gem5Model::Ex5BigFixed => Cluster::BigA15,
            Gem5Model::Ex5Little => Cluster::LittleA7,
        }
    }

    /// Model name as reported in results.
    pub fn name(self) -> &'static str {
        match self {
            Gem5Model::Ex5BigOld => "ex5_big(old)",
            Gem5Model::Ex5BigFixed => "ex5_big(fixed)",
            Gem5Model::Ex5Little => "ex5_LITTLE",
        }
    }

    fn config(self) -> gemstone_uarch::core::CoreConfig {
        match self {
            Gem5Model::Ex5BigOld => ex5_big(Ex5Variant::Old),
            Gem5Model::Ex5BigFixed => ex5_big(Ex5Variant::Fixed),
            Gem5Model::Ex5Little => ex5_little(),
        }
    }
}

/// One gem5 simulation result.
#[derive(Debug, Clone)]
pub struct Gem5Run {
    /// Workload name.
    pub workload: String,
    /// Model used.
    pub model: Gem5Model,
    /// Simulated core frequency (Hz).
    pub freq_hz: f64,
    /// Simulated execution time (s) — exact, no measurement noise.
    pub time_s: f64,
    /// Full gem5-style statistics dump.
    pub stats_map: BTreeMap<String, f64>,
    /// The model's event counts mapped onto PMU event numbering (box *l* of
    /// Fig. 1: "find equivalent gem5 events").
    pub pmu_equiv: BTreeMap<EventCode, f64>,
    /// Raw engine statistics.
    pub stats: SimStats,
}

impl Gem5Run {
    /// Event *rate* (events per simulated second).
    pub fn pmu_rate(&self, code: EventCode) -> f64 {
        self.pmu_equiv.get(&code).copied().unwrap_or(0.0) / self.time_s
    }
}

/// The gem5 simulation harness. Every run memoises into the [`SimCache`]
/// its caller passes, as the board does with its own cache.
#[derive(Debug, Clone, Copy)]
pub struct Gem5Sim;

impl Gem5Sim {
    /// Runs a workload on a gem5 model at `freq_hz` and `tier` through
    /// [`SimCache::run_point`]: at one of the model's DVFS points the
    /// cold run fills the whole column from one fused replay, so later
    /// runs at the column's other points are memo hits; any other
    /// frequency replays one lane. The result is the same either way.
    ///
    /// # Panics
    ///
    /// Panics if `freq_hz` is not positive.
    pub fn run(
        cache: &SimCache,
        spec: &WorkloadSpec,
        model: Gem5Model,
        freq_hz: f64,
        tier: TierConfig,
    ) -> Gem5Run {
        let sim = cache.run_point(&model.config(), spec, Some(model.cluster()), freq_hz, tier);
        Self::build_run(spec, model, freq_hz, sim)
    }

    /// Consults `faults` for the simulation-job site a run at this
    /// frequency would touch, without doing any simulation work.
    /// Sweeps use this to vet a whole frequency column (retrying each
    /// point independently) before committing to one fused replay; since
    /// faults fire before any simulation, a run after faults is
    /// bit-identical to one that never faulted.
    ///
    /// # Errors
    ///
    /// Returns the injected [`FaultError`] when a fault fires for this
    /// (workload, model, frequency, attempt).
    pub fn check_faults(
        faults: &FaultInjector,
        spec: &WorkloadSpec,
        model: Gem5Model,
        freq_hz: f64,
        attempt: u32,
    ) -> Result<(), FaultError> {
        if faults.is_active() {
            let key = format!("{}:{}:{:.0}", spec.name, model.name(), freq_hz);
            faults.check(FaultSite::Gem5Run, &key, attempt)?;
        }
        Ok(())
    }

    /// Runs a workload on a *custom* core configuration, reported under
    /// `model`'s name. This is the hook for model-improvement iteration
    /// ("adjustments can then be made to the problem component of the gem5
    /// model … and the effects of this change evaluated by re-running the
    /// gem5 simulation", §IV) and for ablation studies over individual
    /// specification errors. A custom configuration replays one lane
    /// ([`SimCache::run_point`] without a column). The cache key covers
    /// every configuration field and the tier, so custom configurations
    /// reported under the same model name never share an entry.
    ///
    /// # Panics
    ///
    /// Panics if `freq_hz` is not positive.
    pub fn run_config(
        cache: &SimCache,
        spec: &WorkloadSpec,
        model: Gem5Model,
        cfg: gemstone_uarch::core::CoreConfig,
        freq_hz: f64,
        tier: TierConfig,
    ) -> Gem5Run {
        let sim = cache.run_point(&cfg, spec, None, freq_hz, tier);
        Self::build_run(spec, model, freq_hz, sim)
    }

    /// Runs a workload across a whole frequency column on a gem5 model
    /// from one fused grid replay (see [`SimCache::run_grid`]). Returns
    /// one [`Gem5Run`] per entry of `freqs_hz`, in order, each
    /// bit-identical to [`Gem5Sim::run`] at that frequency.
    ///
    /// # Panics
    ///
    /// Panics if any frequency is not positive.
    pub fn run_grid(
        cache: &SimCache,
        spec: &WorkloadSpec,
        model: Gem5Model,
        freqs_hz: &[f64],
        tier: TierConfig,
    ) -> Vec<Gem5Run> {
        let sims = cache.run_grid(&model.config(), spec, freqs_hz, tier);
        freqs_hz
            .iter()
            .zip(sims)
            .map(|(&f, sim)| Self::build_run(spec, model, f, sim))
            .collect()
    }

    /// Wraps one simulation outcome into the gem5-style result record
    /// (stats dump + PMU-equivalent event counts).
    fn build_run(
        spec: &WorkloadSpec,
        model: Gem5Model,
        freq_hz: f64,
        sim: crate::simcache::SimOutcome,
    ) -> Gem5Run {
        let stats_map = sim.stats.gem5_stats_map();
        let pmu_equiv = event_counts(&sim.stats);
        Gem5Run {
            workload: spec.name.clone(),
            model,
            freq_hz,
            time_s: sim.seconds,
            stats_map,
            pmu_equiv,
            stats: sim.stats,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gemstone_workloads::suites;
    use gemstone_workloads::trace::TraceCache;

    fn spec(name: &str) -> WorkloadSpec {
        suites::by_name(name).unwrap().scaled(0.1)
    }

    /// A cold default-tier run on a fresh cache.
    fn run(s: &WorkloadSpec, model: Gem5Model, f: f64) -> Gem5Run {
        Gem5Sim::run(&SimCache::new(), s, model, f, TierConfig::default())
    }

    #[test]
    fn deterministic() {
        let s = spec("mi-fft");
        let a = run(&s, Gem5Model::Ex5BigOld, 1.0e9);
        let b = run(&s, Gem5Model::Ex5BigOld, 1.0e9);
        assert_eq!(a.time_s, b.time_s);
        assert_eq!(a.stats_map, b.stats_map);
    }

    #[test]
    fn cache_cold_warm_direct_bit_identical() {
        let s = spec("mi-fft");
        let model = Gem5Model::Ex5BigOld;
        let tier = TierConfig::default();
        let cache = SimCache::new();
        let cold = Gem5Sim::run(&cache, &s, model, 1.0e9, tier);
        let warm = Gem5Sim::run(&cache, &s, model, 1.0e9, tier);
        // 1 GHz is a DVFS point: the cold run filled the 4-lane column.
        assert_eq!((cache.misses(), cache.hits()), (4, 1));
        let direct = SimCache::execute_grid_with(
            &TraceCache::global(),
            &model.config(),
            &s,
            &[1.0e9],
            tier,
            None,
        )
        .remove(0);
        let direct = Gem5Sim::build_run(&s, model, 1.0e9, direct);
        for other in [&warm, &direct] {
            assert_eq!(cold.time_s, other.time_s);
            assert_eq!(cold.stats_map, other.stats_map);
            assert_eq!(cold.pmu_equiv, other.pmu_equiv);
        }
    }

    #[test]
    fn custom_configs_and_off_column_points_run_one_lane() {
        let s = spec("mi-sha");
        let model = Gem5Model::Ex5BigOld;
        let tier = TierConfig::default();
        let cache = SimCache::new();
        let custom =
            Gem5Sim::run_config(&cache, &s, model, ex5_big(Ex5Variant::Fixed), 1.0e9, tier);
        assert_eq!(custom.model, model);
        Gem5Sim::run(&cache, &s, model, 1.6e9, tier);
        assert_eq!((cache.misses(), cache.grid_fills()), (2, 0));
        // The stock config under run_config is the same tuple as a lane of
        // the model's column: a warm lane is a hit, not a column fill.
        let stock = Gem5Sim::run_config(&cache, &s, model, model.config(), 1.0e9, tier);
        let lane = Gem5Sim::run(&cache, &s, model, 1.0e9, tier);
        assert_eq!(stock.time_s.to_bits(), lane.time_s.to_bits());
        assert_eq!(
            (cache.misses(), cache.grid_fills(), cache.hits()),
            (3, 0, 1)
        );
    }

    #[test]
    fn grid_column_matches_per_frequency_runs() {
        let s = spec("mi-fft");
        let cache = SimCache::new();
        let freqs = [600.0e6, 1.0e9, 1.4e9, 1.8e9];
        let model = Gem5Model::Ex5BigOld;
        let tier = TierConfig::default();
        let column = Gem5Sim::run_grid(&cache, &s, model, &freqs, tier);
        assert_eq!(cache.grid_fills(), freqs.len() as u64);
        for (&f, run) in freqs.iter().zip(&column) {
            let single = Gem5Sim::run_config(&SimCache::new(), &s, model, model.config(), f, tier);
            assert_eq!(run.freq_hz, f);
            assert_eq!(run.time_s, single.time_s);
            assert_eq!(run.stats_map, single.stats_map);
            assert_eq!(run.pmu_equiv, single.pmu_equiv);
        }
    }

    #[test]
    fn try_run_faults_then_recovers_bit_identically() {
        use crate::fault::{FaultInjector, FaultPlan};
        let s = spec("mi-crc32");
        let clean = run(&s, Gem5Model::Ex5BigOld, 1.0e9);
        let inj = FaultInjector::new(FaultPlan {
            seed: 9,
            transient_rate: 1.0,
            permanent_rate: 0.0,
            max_transient_fails: 1,
        });
        let e = Gem5Sim::check_faults(&inj, &s, Gem5Model::Ex5BigOld, 1.0e9, 0).unwrap_err();
        assert!(e.is_transient());
        Gem5Sim::check_faults(&inj, &s, Gem5Model::Ex5BigOld, 1.0e9, 1).unwrap();
        let recovered = run(&s, Gem5Model::Ex5BigOld, 1.0e9);
        assert_eq!(clean.time_s, recovered.time_s);
        assert_eq!(clean.stats_map, recovered.stats_map);
    }

    #[test]
    fn old_model_has_walker_cache_stats() {
        let r = run(&spec("mi-fft"), Gem5Model::Ex5BigOld, 1.0e9);
        assert!(r
            .stats_map
            .contains_key("system.cpu.itb_walker_cache.overall_accesses"));
    }

    #[test]
    fn old_model_slower_than_fixed_on_patterned_branches() {
        let s = spec("par-basicmath-rad2deg");
        let old = run(&s, Gem5Model::Ex5BigOld, 1.0e9);
        let fixed = run(&s, Gem5Model::Ex5BigFixed, 1.0e9);
        assert!(
            old.time_s > fixed.time_s * 1.5,
            "old {} vs fixed {}",
            old.time_s,
            fixed.time_s
        );
    }

    #[test]
    fn model_cluster_mapping() {
        assert_eq!(Gem5Model::Ex5BigOld.cluster(), Cluster::BigA15);
        assert_eq!(Gem5Model::Ex5Little.cluster(), Cluster::LittleA7);
        assert_eq!(Gem5Model::Ex5BigFixed.name(), "ex5_big(fixed)");
    }

    #[test]
    fn pmu_rate_helper() {
        let r = run(&spec("mi-sha"), Gem5Model::Ex5Little, 600.0e6);
        assert!(r.pmu_rate(gemstone_uarch::pmu::INST_RETIRED) > 1e5);
    }
}
