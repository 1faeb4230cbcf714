//! Unified observability for GemStone: a process-wide metrics registry,
//! a span/timer API, and exporters.
//!
//! The paper's whole methodology is observability applied to CPU models —
//! it diagnoses gem5's errors purely from counter streams. This crate
//! instruments the *simulator itself* the same way:
//!
//! * [`registry`] — lock-free [`Counter`]s, [`Gauge`]s and fixed-bucket
//!   [`Histogram`]s under canonical dotted names (`simcache.hits`,
//!   `trace_cache.misses`, `engine.instructions`, …). The execution
//!   layers register their counters here instead of keeping private
//!   atomics, so one [`Registry::global`] snapshot sees everything.
//! * [`span`] — RAII timing guards. When tracing is disabled (the
//!   default) a span costs one relaxed atomic load; when enabled it
//!   records a `(name, thread, start, duration, depth)` event into the
//!   process-wide [`SpanLog`] and folds the duration into a
//!   `span.<name>.seconds` histogram.
//! * [`export`] — Prometheus text format for the registry, Chrome
//!   trace-event JSON (loadable in `chrome://tracing` / Perfetto) for the
//!   span log, and a JSONL stream for scripting.
//! * [`env`](mod@env) — the shared environment-variable parser used by every
//!   `GEMSTONE_*` knob; invalid values produce a one-time stderr warning
//!   naming the variable and the fallback instead of being silently
//!   ignored.
//! * [`profile`] — rebuilds the span tree from the flat event log (or a
//!   JSONL journal), aggregates inclusive/self time per span name and
//!   walks the critical path; `gemstone perf` renders it.
//! * [`flight`] — a bounded lock-free flight-recorder ring of recent
//!   span/note events, dumped on faults, quarantine, panic or demand.
//! * [`fnv`] — the workspace's one FNV-1a hash, streaming from any state.
//! * [`json`] — the workspace's one JSON codec: parser, typed field
//!   readers and writers (this crate stays dependency-free).
//!
//! Tracing is switched on by the `GEMSTONE_OBS` environment variable (any
//! value other than `0` / `false` / `off` / empty) or programmatically via
//! [`set_enabled`]. Counters in the registry always count — they are a
//! handful of relaxed atomic adds per *simulation*, not per instruction —
//! only the span layer is gated.
//!
//! # Examples
//!
//! ```
//! use gemstone_obs as obs;
//!
//! obs::set_enabled(true);
//! let c = obs::Registry::global().counter("example.events");
//! {
//!     let _span = obs::span::span("example.stage");
//!     c.add(3);
//! }
//! assert!(c.get() >= 3);
//! let dump = obs::export::prometheus(obs::Registry::global());
//! assert!(dump.contains("example_events"));
//! ```

pub mod env;
pub mod export;
pub mod flight;
pub mod fnv;
pub mod http;
pub mod json;
pub mod profile;
pub mod registry;
pub mod span;

pub use registry::{Counter, Gauge, Histogram, Registry};
pub use span::{SpanEvent, SpanLog};

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Once;

/// Environment variable enabling span tracing (`1`/`true`/anything except
/// `0`, `false`, `off` or empty).
pub const OBS_ENV: &str = "GEMSTONE_OBS";

static ENABLED: AtomicBool = AtomicBool::new(false);
static ENABLED_INIT: Once = Once::new();

fn ensure_init() {
    ENABLED_INIT.call_once(|| {
        let on = std::env::var(OBS_ENV).is_ok_and(|v| {
            let v = v.trim().to_ascii_lowercase();
            !(v.is_empty() || v == "0" || v == "false" || v == "off")
        });
        if on {
            ENABLED.store(true, Ordering::Relaxed);
        }
    });
}

/// Whether span tracing is enabled. After the first call this is a single
/// relaxed atomic load (plus the `Once` fast path).
pub fn enabled() -> bool {
    ensure_init();
    ENABLED.load(Ordering::Relaxed)
}

/// Enables or disables span tracing for the whole process, overriding the
/// `GEMSTONE_OBS` environment variable.
pub fn set_enabled(on: bool) {
    ensure_init();
    ENABLED.store(on, Ordering::Relaxed);
}
