//! Fault injection and retry for long characterisation sweeps.
//!
//! The paper's methodology rests on multi-hour hardware runs — 45
//! workloads repeated across passes for 68 multiplexed PMC events, at
//! every DVFS point, on both clusters (§III). On a real board those runs
//! die halfway: a sensor read times out, the DVFS governor hiccups, a
//! gem5 job wedges. This module gives the simulated platform the same
//! failure surface, deterministically, so the collection drivers can be
//! tested against it:
//!
//! * [`FaultPlan`] / [`FaultInjector`] — a seedable plan that makes a
//!   deterministic subset of operations fail, either transiently (the
//!   fault clears after a fixed number of attempts) or permanently.
//!   Enabled by the `GEMSTONE_FAULTS` environment variable; off by
//!   default, in which case every check is a single `Option` test.
//! * [`FaultError`] — the structured error the platform surfaces, with a
//!   transient-vs-permanent classification ([`Transience`]) that retry
//!   policies dispatch on.
//! * [`RetryPolicy`] — bounded exponential backoff with deterministic
//!   jitter. Transient errors are retried up to the attempt budget;
//!   permanent errors abort immediately.
//!
//! Injected faults fire *before* any simulation work happens, so a run
//! that eventually succeeds after retries is bit-identical to one that
//! never faulted — the measurement RNG and the [`crate::simcache`] memo
//! are never perturbed.
//!
//! Metrics: `faults.injected` counts every injected failure and
//! `retry.attempts` counts every retry (attempts beyond the first), both
//! in the process-wide [`gemstone_obs::Registry`].
//!
//! # Examples
//!
//! ```
//! use gemstone_platform::fault::{FaultInjector, FaultPlan, FaultSite, RetryPolicy};
//!
//! let inj = FaultInjector::new(FaultPlan {
//!     seed: 7,
//!     transient_rate: 1.0,
//!     permanent_rate: 0.0,
//!     max_transient_fails: 2,
//! });
//! let retry = RetryPolicy::default();
//! let value = retry
//!     .run("demo-op", |attempt| {
//!         inj.check(FaultSite::BoardRun, "demo-op", attempt)?;
//!         Ok::<_, gemstone_platform::fault::FaultError>(42)
//!     })
//!     .unwrap();
//! assert_eq!(value, 42);
//! ```

use std::fmt;
use std::str::FromStr;
use std::sync::{Arc, OnceLock};
use std::time::Duration;

/// Environment variable holding the fault plan
/// (e.g. `GEMSTONE_FAULTS="seed=7,transient=0.3,permanent=0.02,fails=2"`,
/// or a bare transient rate like `GEMSTONE_FAULTS=0.3`).
pub const FAULTS_ENV: &str = "GEMSTONE_FAULTS";

/// Process-wide count of injected failures (`faults.injected`).
fn faults_counter() -> &'static gemstone_obs::Counter {
    static C: OnceLock<Arc<gemstone_obs::Counter>> = OnceLock::new();
    C.get_or_init(|| gemstone_obs::Registry::global().counter("faults.injected"))
}

/// Process-wide count of retries — attempts beyond each operation's first
/// (`retry.attempts`).
fn retry_counter() -> &'static gemstone_obs::Counter {
    static C: OnceLock<Arc<gemstone_obs::Counter>> = OnceLock::new();
    C.get_or_init(|| gemstone_obs::Registry::global().counter("retry.attempts"))
}

/// Where in the platform a fault fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultSite {
    /// The whole board run (governor hiccup, run harness crash).
    BoardRun,
    /// The INA231 power-sensor read.
    SensorRead,
    /// One multiplexed PMU capture pass.
    PmuCapture,
    /// A gem5 simulation job (wedged or killed).
    Gem5Run,
}

impl FaultSite {
    /// Stable lower-case name (used in error messages and hashing).
    pub fn name(self) -> &'static str {
        match self {
            FaultSite::BoardRun => "board-run",
            FaultSite::SensorRead => "sensor-read",
            FaultSite::PmuCapture => "pmu-capture",
            FaultSite::Gem5Run => "gem5-run",
        }
    }
}

/// Classification every retryable error type exposes: transient errors are
/// worth retrying, permanent ones are not.
pub trait Transience {
    /// Whether a retry could plausibly succeed.
    fn is_transient(&self) -> bool;
}

/// A structured platform failure.
#[derive(Debug, Clone)]
pub struct FaultError {
    /// Where the fault fired.
    pub site: FaultSite,
    /// The operation key (workload:cluster:frequency or similar).
    pub key: String,
    /// Whether the fault clears after some number of attempts.
    pub transient: bool,
    /// The attempt (0-based) that observed the fault.
    pub attempt: u32,
}

impl fmt::Display for FaultError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} fault at {} for {} (attempt {})",
            if self.transient {
                "transient"
            } else {
                "permanent"
            },
            self.site.name(),
            self.key,
            self.attempt
        )
    }
}

impl std::error::Error for FaultError {}

impl FaultError {
    /// Whether a retry could plausibly succeed (see [`Transience`]).
    pub fn is_transient(&self) -> bool {
        self.transient
    }
}

impl Transience for FaultError {
    fn is_transient(&self) -> bool {
        self.transient
    }
}

/// A workload dropped from a sweep after exhausting its retry budget (or
/// hitting a permanent fault), recorded in the coverage report instead of
/// aborting the whole collection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuarantinedWorkload {
    /// Workload name.
    pub workload: String,
    /// Fault site that exhausted the budget.
    pub site: String,
    /// Attempts made before giving up.
    pub attempts: u32,
    /// Human-readable cause.
    pub reason: String,
}

/// FNV-1a over a list of byte slices — the deterministic hash behind fault
/// decisions and retry jitter.
fn fnv(parts: &[&[u8]]) -> u64 {
    use gemstone_obs::fnv::{fnv1a_from, OFFSET};
    parts.iter().fold(OFFSET, |h, part| {
        // Separator so ("ab","c") and ("a","bc") hash differently.
        fnv1a_from(fnv1a_from(h, part), &[0xff])
    })
}

/// Uniform in [0, 1) from the top bits of a hash.
fn unit(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// A seedable description of which operations fail and how.
///
/// Every (site, key) pair is hashed with the seed to a point in [0, 1):
/// points below `permanent_rate` fail on every attempt; points in the next
/// `transient_rate`-wide band fail for the first 1..=`max_transient_fails`
/// attempts (the exact count is itself derived from the hash) and then
/// succeed forever. The decision depends only on (seed, site, key,
/// attempt), so it is identical across threads, processes and resumed
/// runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// Seed mixed into every decision.
    pub seed: u64,
    /// Fraction of operations that fail transiently.
    pub transient_rate: f64,
    /// Fraction of operations that fail on every attempt.
    pub permanent_rate: f64,
    /// Upper bound on how many attempts a transient fault survives.
    pub max_transient_fails: u32,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            seed: 0,
            transient_rate: 0.1,
            permanent_rate: 0.0,
            max_transient_fails: 2,
        }
    }
}

impl FaultPlan {
    /// Whether the rates describe a usable plan.
    pub fn valid(&self) -> bool {
        self.transient_rate >= 0.0
            && self.permanent_rate >= 0.0
            && self.transient_rate + self.permanent_rate <= 1.0
            && (self.transient_rate > 0.0 || self.permanent_rate > 0.0)
    }
}

impl FromStr for FaultPlan {
    type Err = String;

    /// Parses `"seed=7,transient=0.3,permanent=0.02,fails=2"`; a bare
    /// number is shorthand for `transient=<number>`.
    fn from_str(s: &str) -> Result<FaultPlan, String> {
        let s = s.trim();
        let mut plan = FaultPlan {
            transient_rate: 0.0,
            ..FaultPlan::default()
        };
        if let Ok(rate) = s.parse::<f64>() {
            plan.transient_rate = rate;
            return Ok(plan);
        }
        for part in s.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("expected key=value, got {part:?}"))?;
            let value = value.trim();
            match key.trim() {
                "seed" => plan.seed = value.parse().map_err(|e| format!("seed: {e}"))?,
                "transient" => {
                    plan.transient_rate = value.parse().map_err(|e| format!("transient: {e}"))?
                }
                "permanent" => {
                    plan.permanent_rate = value.parse().map_err(|e| format!("permanent: {e}"))?
                }
                "fails" => {
                    plan.max_transient_fails = value.parse().map_err(|e| format!("fails: {e}"))?
                }
                other => return Err(format!("unknown fault-plan key {other:?}")),
            }
        }
        Ok(plan)
    }
}

/// Deterministic fault source consulted by the platform's fault checks
/// ([`crate::board::OdroidXu3::check_faults`],
/// [`crate::gem5sim::Gem5Sim::check_faults`]).
#[derive(Debug, Default)]
pub struct FaultInjector {
    plan: Option<FaultPlan>,
}

impl FaultInjector {
    /// An injector that never faults (the production default).
    pub fn disabled() -> FaultInjector {
        FaultInjector { plan: None }
    }

    /// An injector driven by an explicit plan.
    pub fn new(plan: FaultPlan) -> FaultInjector {
        FaultInjector { plan: Some(plan) }
    }

    /// The process-wide injector, configured once from `GEMSTONE_FAULTS`.
    /// Unset (the default) means disabled; malformed values produce a
    /// one-time stderr warning and fall back to disabled.
    pub fn global() -> Arc<FaultInjector> {
        static GLOBAL: OnceLock<Arc<FaultInjector>> = OnceLock::new();
        GLOBAL
            .get_or_init(|| {
                let plan = gemstone_obs::env::parse_checked::<FaultPlan>(
                    FAULTS_ENV,
                    "a fault plan like 'seed=7,transient=0.3,fails=2'",
                    "fault injection disabled",
                    FaultPlan::valid,
                );
                Arc::new(FaultInjector { plan })
            })
            .clone()
    }

    /// Whether any plan is loaded. When `false`, [`FaultInjector::check`]
    /// is a single branch — callers can skip building keys entirely.
    pub fn is_active(&self) -> bool {
        self.plan.is_some()
    }

    /// Decides whether the operation `(site, key)` faults on `attempt`
    /// (0-based). Deterministic in (plan, site, key, attempt).
    pub fn check(&self, site: FaultSite, key: &str, attempt: u32) -> Result<(), FaultError> {
        let Some(plan) = &self.plan else {
            return Ok(());
        };
        let h = fnv(&[
            &plan.seed.to_le_bytes(),
            site.name().as_bytes(),
            key.as_bytes(),
        ]);
        let u = unit(h);
        if u < plan.permanent_rate {
            faults_counter().add(1);
            gemstone_obs::flight::note(
                "faults.injected",
                format!(
                    "permanent fault at {} ({key}), attempt {attempt}",
                    site.name()
                ),
            );
            return Err(FaultError {
                site,
                key: key.to_string(),
                transient: false,
                attempt,
            });
        }
        if u < plan.permanent_rate + plan.transient_rate {
            let span = plan.max_transient_fails.max(1) as u64;
            let fails = 1 + (fnv(&[&h.to_le_bytes(), b"fails"]) % span) as u32;
            if attempt < fails {
                faults_counter().add(1);
                gemstone_obs::flight::note(
                    "faults.injected",
                    format!(
                        "transient fault at {} ({key}), attempt {attempt}",
                        site.name()
                    ),
                );
                return Err(FaultError {
                    site,
                    key: key.to_string(),
                    transient: true,
                    attempt,
                });
            }
        }
        Ok(())
    }
}

/// Bounded exponential backoff with deterministic jitter.
#[derive(Debug, Clone, PartialEq)]
pub struct RetryPolicy {
    /// Total tries per operation, including the first (minimum 1).
    pub max_attempts: u32,
    /// Delay before the first retry.
    pub base_delay: Duration,
    /// Upper bound on any single delay.
    pub max_delay: Duration,
    /// Growth factor per retry.
    pub multiplier: f64,
    /// Relative jitter half-width: a delay is scaled by a factor drawn
    /// deterministically from `[1 - jitter, 1 + jitter)`.
    pub jitter: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 4,
            base_delay: Duration::from_millis(1),
            max_delay: Duration::from_millis(50),
            multiplier: 2.0,
            jitter: 0.5,
        }
    }
}

/// A retried operation that still failed: the final error plus how many
/// attempts were spent on it.
#[derive(Debug, Clone)]
pub struct RetryExhausted<E> {
    /// The error from the final attempt.
    pub error: E,
    /// Attempts made (1 for a permanent error that aborted immediately).
    pub attempts: u32,
}

impl<E: fmt::Display> fmt::Display for RetryExhausted<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "gave up after {} attempt(s): {}",
            self.attempts, self.error
        )
    }
}

impl<E: fmt::Display + fmt::Debug> std::error::Error for RetryExhausted<E> {}

impl RetryPolicy {
    /// The backoff before retrying after failed `attempt` (0-based), with
    /// the deterministic jitter for `key` applied.
    pub fn delay_for(&self, attempt: u32, key: &str) -> Duration {
        let exp = self.multiplier.max(1.0).powi(attempt.min(30) as i32);
        let raw = self.base_delay.as_secs_f64() * exp;
        let capped = raw.min(self.max_delay.as_secs_f64());
        let j = self.jitter.clamp(0.0, 1.0);
        let u = unit(fnv(&[key.as_bytes(), &attempt.to_le_bytes()]));
        let factor = 1.0 - j + 2.0 * j * u;
        Duration::from_secs_f64((capped * factor).max(0.0))
    }

    /// Runs `op`, retrying transient failures with backoff until it
    /// succeeds or the attempt budget is spent. `op` receives the 0-based
    /// attempt number. Permanent failures abort immediately.
    ///
    /// # Errors
    ///
    /// Returns [`RetryExhausted`] wrapping the final error.
    pub fn run<T, E: Transience>(
        &self,
        key: &str,
        mut op: impl FnMut(u32) -> Result<T, E>,
    ) -> Result<T, RetryExhausted<E>> {
        let budget = self.max_attempts.max(1);
        let mut attempt = 0;
        loop {
            match op(attempt) {
                Ok(v) => return Ok(v),
                Err(e) => {
                    let spent = attempt + 1;
                    if !e.is_transient() || spent >= budget {
                        gemstone_obs::flight::note(
                            "retry.exhausted",
                            format!("{key}: gave up after {spent} attempt(s)"),
                        );
                        gemstone_obs::flight::auto_dump("retry-exhausted");
                        return Err(RetryExhausted {
                            error: e,
                            attempts: spent,
                        });
                    }
                    retry_counter().add(1);
                    gemstone_obs::flight::note(
                        "retry.attempt",
                        format!("{key}: retrying after attempt {attempt}"),
                    );
                    std::thread::sleep(self.delay_for(attempt, key));
                    attempt = spent;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan(transient: f64, permanent: f64) -> FaultPlan {
        FaultPlan {
            seed: 42,
            transient_rate: transient,
            permanent_rate: permanent,
            max_transient_fails: 2,
        }
    }

    #[test]
    fn disabled_injector_never_faults() {
        let inj = FaultInjector::disabled();
        assert!(!inj.is_active());
        for i in 0..100 {
            let key = format!("op-{i}");
            assert!(inj.check(FaultSite::BoardRun, &key, 0).is_ok());
        }
    }

    #[test]
    fn decisions_are_deterministic() {
        let a = FaultInjector::new(plan(0.5, 0.1));
        let b = FaultInjector::new(plan(0.5, 0.1));
        for i in 0..200 {
            let key = format!("wl-{i}:a15:1000");
            for attempt in 0..4 {
                let ra = a.check(FaultSite::BoardRun, &key, attempt).is_ok();
                let rb = b.check(FaultSite::BoardRun, &key, attempt).is_ok();
                assert_eq!(ra, rb, "{key} attempt {attempt}");
            }
        }
    }

    #[test]
    fn transient_faults_clear_within_the_fail_budget() {
        let inj = FaultInjector::new(FaultPlan {
            seed: 3,
            transient_rate: 1.0,
            permanent_rate: 0.0,
            max_transient_fails: 3,
        });
        for i in 0..50 {
            let key = format!("op-{i}");
            // Every op faults on attempt 0 (rate 1.0, fails >= 1)...
            let first = inj.check(FaultSite::SensorRead, &key, 0);
            assert!(first.is_err(), "{key}");
            assert!(first.unwrap_err().is_transient());
            // ...and clears by attempt `max_transient_fails`.
            assert!(inj.check(FaultSite::SensorRead, &key, 3).is_ok(), "{key}");
        }
    }

    #[test]
    fn permanent_faults_never_clear() {
        let inj = FaultInjector::new(plan(0.0, 1.0));
        let e = inj.check(FaultSite::Gem5Run, "wl:old:1000", 0).unwrap_err();
        assert!(!e.is_transient());
        assert!(inj.check(FaultSite::Gem5Run, "wl:old:1000", 100).is_err());
        assert!(e.to_string().contains("permanent"));
        assert!(e.to_string().contains("gem5-run"));
    }

    #[test]
    fn sites_fault_independently() {
        let inj = FaultInjector::new(plan(0.5, 0.0));
        // With rate 0.5, over many keys the two sites must disagree
        // somewhere — they hash independently.
        let disagree = (0..100).any(|i| {
            let key = format!("op-{i}");
            inj.check(FaultSite::BoardRun, &key, 0).is_ok()
                != inj.check(FaultSite::Gem5Run, &key, 0).is_ok()
        });
        assert!(disagree);
    }

    #[test]
    fn plan_parses_key_value_form() {
        let p: FaultPlan = "seed=7, transient=0.3, permanent=0.02, fails=5"
            .parse()
            .unwrap();
        assert_eq!(p.seed, 7);
        assert_eq!(p.transient_rate, 0.3);
        assert_eq!(p.permanent_rate, 0.02);
        assert_eq!(p.max_transient_fails, 5);
        assert!(p.valid());
    }

    #[test]
    fn plan_parses_bare_rate_and_rejects_junk() {
        let p: FaultPlan = "0.25".parse().unwrap();
        assert_eq!(p.transient_rate, 0.25);
        assert_eq!(p.permanent_rate, 0.0);
        assert!("seed=x".parse::<FaultPlan>().is_err());
        assert!("bogus-key=1".parse::<FaultPlan>().is_err());
        assert!("zebra".parse::<FaultPlan>().is_err());
        // Rates must stay within [0, 1] combined, and a plan with no
        // faults at all is rejected so GEMSTONE_FAULTS=0 warns.
        assert!(!"transient=0.9,permanent=0.9"
            .parse::<FaultPlan>()
            .unwrap()
            .valid());
        assert!(!"0".parse::<FaultPlan>().unwrap().valid());
    }

    #[test]
    fn retry_succeeds_after_transient_faults() {
        let inj = FaultInjector::new(FaultPlan {
            seed: 1,
            transient_rate: 1.0,
            permanent_rate: 0.0,
            max_transient_fails: 2,
        });
        let policy = RetryPolicy {
            base_delay: Duration::from_micros(10),
            ..RetryPolicy::default()
        };
        let mut calls = 0;
        let v = policy
            .run("op", |attempt| {
                calls += 1;
                inj.check(FaultSite::BoardRun, "op", attempt)?;
                Ok::<_, FaultError>(7)
            })
            .unwrap();
        assert_eq!(v, 7);
        assert!(calls >= 2, "at least one fault then success, got {calls}");
    }

    #[test]
    fn retry_aborts_on_permanent_fault() {
        let inj = FaultInjector::new(plan(0.0, 1.0));
        let policy = RetryPolicy {
            base_delay: Duration::from_micros(10),
            ..RetryPolicy::default()
        };
        let mut calls = 0;
        let err = policy
            .run("op", |attempt| {
                calls += 1;
                inj.check(FaultSite::BoardRun, "op", attempt)
            })
            .unwrap_err();
        assert_eq!(calls, 1, "permanent faults must not be retried");
        assert_eq!(err.attempts, 1);
        assert!(!err.error.is_transient());
    }

    #[test]
    fn retry_exhausts_budget_on_stubborn_transients() {
        let inj = FaultInjector::new(FaultPlan {
            seed: 2,
            transient_rate: 1.0,
            permanent_rate: 0.0,
            max_transient_fails: 100,
        });
        let policy = RetryPolicy {
            max_attempts: 3,
            base_delay: Duration::from_micros(10),
            ..RetryPolicy::default()
        };
        let err = policy
            .run("op", |attempt| {
                inj.check(FaultSite::PmuCapture, "op", attempt)
            })
            .unwrap_err();
        assert_eq!(err.attempts, 3);
        assert!(err.error.is_transient());
        assert!(err.to_string().contains("3 attempt"));
    }

    #[test]
    fn backoff_grows_is_capped_and_jitters_deterministically() {
        let policy = RetryPolicy::default();
        let d0 = policy.delay_for(0, "k");
        let d5 = policy.delay_for(5, "k");
        assert!(d5 >= d0);
        assert!(d5 <= Duration::from_secs_f64(0.050 * 1.5 + 1e-9));
        assert_eq!(policy.delay_for(2, "k"), policy.delay_for(2, "k"));
        // Different keys jitter differently (almost surely).
        let spread =
            (0..50).any(|i| policy.delay_for(1, &format!("k{i}")) != policy.delay_for(1, "k0"));
        assert!(spread);
    }

    #[test]
    fn zero_max_attempts_still_tries_once() {
        let policy = RetryPolicy {
            max_attempts: 0,
            ..RetryPolicy::default()
        };
        let mut calls = 0;
        let v: Result<u32, RetryExhausted<FaultError>> = policy.run("op", |_| {
            calls += 1;
            Ok(9)
        });
        assert_eq!(v.unwrap(), 9);
        assert_eq!(calls, 1);
    }
}
