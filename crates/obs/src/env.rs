//! The shared `GEMSTONE_*` environment-variable parser.
//!
//! Every knob in the tree (`GEMSTONE_THREADS`, `GEMSTONE_SAMPLE_INTERVAL`, …)
//! resolves through [`parse_checked`], so a malformed value is never
//! silently ignored: the first time a variable fails to parse (or fails
//! its validity check) a warning naming the variable, the rejected value
//! and the fallback is printed to stderr — once per variable per process.
//!
//! # Examples
//!
//! ```
//! std::env::set_var("GEMSTONE_DOC_DEMO", "not-a-number");
//! let v = gemstone_obs::env::parse_checked::<usize>(
//!     "GEMSTONE_DOC_DEMO",
//!     "a positive integer",
//!     "the default of 4",
//!     |&n| n > 0,
//! );
//! assert_eq!(v, None); // and a one-time warning went to stderr
//! ```

use std::collections::BTreeSet;
use std::str::FromStr;
use std::sync::{Mutex, MutexGuard, OnceLock};

/// Poison-tolerant lock: the guarded state is append-only bookkeeping.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

fn warned() -> &'static Mutex<BTreeSet<String>> {
    static WARNED: OnceLock<Mutex<BTreeSet<String>>> = OnceLock::new();
    WARNED.get_or_init(|| Mutex::new(BTreeSet::new()))
}

fn warn_once(name: &str, raw: &str, requirement: &str, fallback: &str) {
    if !lock(warned()).insert(name.to_string()) {
        return;
    }
    let msg = format!("warning: {name}={raw:?} is not {requirement}; falling back to {fallback}");
    eprintln!("{msg}");
    #[cfg(test)]
    lock(&tests::LOG).push(msg);
}

/// Reads and parses `name`. Returns `None` when the variable is unset, and
/// also when it is set but unparseable or fails `valid` — in which case a
/// one-time stderr warning names the variable, the offending value, the
/// `requirement` it missed and the `fallback` the caller will use.
pub fn parse_checked<T: FromStr>(
    name: &str,
    requirement: &str,
    fallback: &str,
    valid: impl Fn(&T) -> bool,
) -> Option<T> {
    let raw = std::env::var(name).ok()?;
    match raw.trim().parse::<T>() {
        Ok(v) if valid(&v) => Some(v),
        _ => {
            warn_once(name, &raw, requirement, fallback);
            None
        }
    }
}

/// [`parse_checked`] without an extra validity predicate.
pub fn parse<T: FromStr>(name: &str, requirement: &str, fallback: &str) -> Option<T> {
    parse_checked(name, requirement, fallback, |_| true)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every warning printed so far.
    pub(super) static LOG: Mutex<Vec<String>> = Mutex::new(Vec::new());

    fn warnings() -> Vec<String> {
        lock(&LOG).clone()
    }

    #[test]
    fn unset_is_silent() {
        assert_eq!(
            parse::<usize>("GEMSTONE_TEST_UNSET_VAR", "an integer", "7"),
            None
        );
        assert!(!warnings()
            .iter()
            .any(|w| w.contains("GEMSTONE_TEST_UNSET_VAR")));
    }

    #[test]
    fn valid_value_parses() {
        std::env::set_var("GEMSTONE_TEST_VALID", " 42 ");
        assert_eq!(
            parse_checked::<usize>("GEMSTONE_TEST_VALID", "an integer", "0", |&n| n > 0),
            Some(42)
        );
    }

    #[test]
    fn invalid_value_warns_exactly_once() {
        std::env::set_var("GEMSTONE_TEST_BAD", "zebra");
        for _ in 0..3 {
            assert_eq!(
                parse::<usize>("GEMSTONE_TEST_BAD", "a byte count", "512 MiB"),
                None
            );
        }
        let hits: Vec<String> = warnings()
            .into_iter()
            .filter(|w| w.contains("GEMSTONE_TEST_BAD"))
            .collect();
        assert_eq!(hits.len(), 1, "one warning per variable: {hits:?}");
        assert!(hits[0].contains("zebra"));
        assert!(hits[0].contains("512 MiB"));
    }

    #[test]
    fn failed_validation_warns() {
        std::env::set_var("GEMSTONE_TEST_ZERO", "0");
        assert_eq!(
            parse_checked::<usize>(
                "GEMSTONE_TEST_ZERO",
                "a positive integer",
                "available parallelism",
                |&n| n > 0
            ),
            None
        );
        assert!(warnings().iter().any(|w| w.contains("GEMSTONE_TEST_ZERO")));
    }
}
