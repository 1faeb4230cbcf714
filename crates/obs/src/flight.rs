//! The flight recorder: a bounded ring of the most recent span and note
//! events, kept cheaply at runtime and dumped when something goes wrong
//! (fault-injection retry exhaustion, workload quarantine, a panic) or
//! on demand (`gemstone ... --flight-record FILE`).
//!
//! The ring is lock-free on the hot path in the way that matters: a
//! writer claims a slot with one `fetch_add` and then takes that slot's
//! *own* mutex, which is uncontended unless the ring has wrapped all the
//! way around to a concurrent writer — recording never blocks on other
//! recorders in practice and never allocates beyond the event itself.
//! Readers ([`FlightRecorder::dump`]) lock slots one at a time, so a
//! dump taken mid-flight is a consistent set of whole events.
//!
//! Two kinds of event land in the ring:
//!
//! * **spans** — mirrored automatically by the span layer when tracing
//!   is enabled, so a dump shows what the process was doing just before
//!   the trigger;
//! * **notes** — explicit breadcrumbs from the fault/retry/quarantine
//!   machinery ([`note`]), recorded *regardless* of the tracing flag:
//!   like counters, they fire a handful of times per simulation at most.
//!
//! The process-wide ring holds [`DEFAULT_FLIGHT_CAP`] (4096) events.
//!
//! # Examples
//!
//! ```
//! use gemstone_obs::flight;
//!
//! flight::note("doc.retry", "attempt 2 after transient fault");
//! let dump = flight::FlightRecorder::global().dump_jsonl();
//! assert!(dump.contains("doc.retry"));
//! ```

use std::borrow::Cow;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

/// Ring capacity of the process-wide recorder, in events.
pub const DEFAULT_FLIGHT_CAP: usize = 4096;

/// One flight-recorder entry.
#[derive(Debug, Clone)]
pub struct FlightEvent {
    /// Global sequence number (monotonic across wraps; dump order).
    pub seq: u64,
    /// `"span"` or `"note"`.
    pub kind: &'static str,
    /// Event name (span name, or a dotted note topic).
    pub name: Cow<'static, str>,
    /// Free-form detail (span attrs rendered `k=v`, note body).
    pub detail: String,
    /// Recording thread (same ids as [`crate::span::SpanEvent::tid`]).
    pub tid: u64,
    /// Microseconds since the trace epoch.
    pub at_us: u64,
    /// Duration for spans, 0 for notes.
    pub dur_us: u64,
}

/// A bounded ring of recent [`FlightEvent`]s.
#[derive(Debug)]
pub struct FlightRecorder {
    slots: Box<[Mutex<Option<FlightEvent>>]>,
    next: AtomicU64,
}

impl FlightRecorder {
    /// Creates a recorder with `capacity` slots (min 16).
    pub fn with_capacity(capacity: usize) -> Self {
        let capacity = capacity.max(16);
        FlightRecorder {
            slots: (0..capacity).map(|_| Mutex::new(None)).collect(),
            next: AtomicU64::new(0),
        }
    }

    /// The process-wide recorder, [`DEFAULT_FLIGHT_CAP`] slots.
    pub fn global() -> &'static FlightRecorder {
        static GLOBAL: OnceLock<FlightRecorder> = OnceLock::new();
        GLOBAL.get_or_init(|| FlightRecorder::with_capacity(DEFAULT_FLIGHT_CAP))
    }

    /// Records one event: one `fetch_add` to claim a slot, then a write
    /// under that slot's own (uncontended) mutex.
    pub fn record(&self, mut ev: FlightEvent) {
        let seq = self.next.fetch_add(1, Ordering::Relaxed);
        ev.seq = seq;
        let slot = &self.slots[(seq % self.slots.len() as u64) as usize];
        *slot.lock().unwrap_or_else(|e| e.into_inner()) = Some(ev);
    }

    /// Number of events recorded over the recorder's lifetime (not the
    /// number retained, which is bounded by capacity).
    pub fn recorded(&self) -> u64 {
        self.next.load(Ordering::Relaxed)
    }

    /// Ring capacity in events.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// The retained events, oldest first.
    pub fn dump(&self) -> Vec<FlightEvent> {
        let mut events: Vec<FlightEvent> = self
            .slots
            .iter()
            .filter_map(|s| s.lock().unwrap_or_else(|e| e.into_inner()).clone())
            .collect();
        events.sort_by_key(|e| e.seq);
        events
    }

    /// Renders the retained events as JSONL, one event per line (the
    /// same `type`/`name` framing as [`crate::export::jsonl`], so
    /// [`crate::profile::Journal::parse`] re-ingests span lines).
    pub fn dump_jsonl(&self) -> String {
        use crate::json::push_str_lit;
        use std::fmt::Write as _;
        let mut out = String::new();
        for ev in self.dump() {
            let _ = write!(
                out,
                "{{\"type\": \"{}\", \"seq\": {}, \"name\": ",
                ev.kind, ev.seq
            );
            push_str_lit(&mut out, &ev.name);
            out.push_str(", \"detail\": ");
            push_str_lit(&mut out, &ev.detail);
            let _ = writeln!(
                out,
                ", \"tid\": {}, \"at_us\": {}, \"dur_us\": {}}}",
                ev.tid, ev.at_us, ev.dur_us
            );
        }
        out
    }

    /// Writes the JSONL dump to `path`.
    pub fn dump_to_file(&self, path: &str) -> std::io::Result<()> {
        std::fs::write(path, self.dump_jsonl())
    }
}

/// Records a breadcrumb note into the global ring. Always on — notes
/// fire on rare control-flow events (fault injected, retry exhausted,
/// quarantine), never per instruction.
pub fn note(name: impl Into<Cow<'static, str>>, detail: impl Into<String>) {
    FlightRecorder::global().record(FlightEvent {
        seq: 0,
        kind: "note",
        name: name.into(),
        detail: detail.into(),
        tid: crate::span::thread_id(),
        at_us: crate::span::now_us(),
        dur_us: 0,
    });
}

/// Dumps the global ring to `gemstone-flight-<reason>.jsonl` in
/// `$GEMSTONE_FLIGHT_DIR` (default: the system temp directory, so
/// injected-fault test suites don't litter the tree), announcing the
/// path on stderr. Used by the fault/quarantine paths and the panic
/// hook; errors writing the dump are reported, never propagated — the
/// recorder must not turn a diagnosed failure into a new one.
pub fn auto_dump(reason: &str) -> Option<String> {
    let recorder = FlightRecorder::global();
    if recorder.recorded() == 0 {
        return None;
    }
    let dir = std::env::var("GEMSTONE_FLIGHT_DIR")
        .unwrap_or_else(|_| std::env::temp_dir().display().to_string());
    let safe: String = reason
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '-' })
        .collect();
    let path = format!("{dir}/gemstone-flight-{safe}.jsonl");
    match recorder.dump_to_file(&path) {
        Ok(()) => {
            eprintln!(
                "flight recorder: dumped {} events to {path} ({reason})",
                recorder.dump().len()
            );
            Some(path)
        }
        Err(e) => {
            eprintln!("flight recorder: failed to write {path}: {e}");
            None
        }
    }
}

/// Installs a panic hook that dumps the flight recorder before the
/// previous hook runs. Idempotent per process.
pub fn install_panic_hook() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            auto_dump("panic");
            previous(info);
        }));
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_keeps_most_recent_events_in_order() {
        let r = FlightRecorder::with_capacity(16);
        for i in 0..40u64 {
            r.record(FlightEvent {
                seq: 0,
                kind: "note",
                name: Cow::Borrowed("test.note"),
                detail: format!("event {i}"),
                tid: 1,
                at_us: i,
                dur_us: 0,
            });
        }
        let dump = r.dump();
        assert_eq!(dump.len(), 16, "bounded by capacity");
        assert_eq!(r.recorded(), 40);
        let seqs: Vec<u64> = dump.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, (24..40).collect::<Vec<_>>(), "oldest evicted first");
    }

    #[test]
    fn concurrent_writers_never_lose_the_ring() {
        let r = FlightRecorder::with_capacity(64);
        std::thread::scope(|s| {
            for t in 0..8 {
                let r = &r;
                s.spawn(move || {
                    for i in 0..1_000u64 {
                        r.record(FlightEvent {
                            seq: 0,
                            kind: "note",
                            name: Cow::Borrowed("stress"),
                            detail: format!("{t}/{i}"),
                            tid: t,
                            at_us: i,
                            dur_us: 0,
                        });
                    }
                });
            }
        });
        assert_eq!(r.recorded(), 8_000);
        let dump = r.dump();
        assert_eq!(dump.len(), 64);
        // Every retained event is one of the 64 newest sequence numbers.
        for ev in &dump {
            assert!(ev.seq >= 8_000 - 64, "stale event survived: {}", ev.seq);
        }
    }

    #[test]
    fn jsonl_dump_lines_parse() {
        let r = FlightRecorder::with_capacity(16);
        r.record(FlightEvent {
            seq: 0,
            kind: "note",
            name: Cow::Borrowed("faults.retry"),
            detail: "attempt 1 \"quoted\"".to_string(),
            tid: 2,
            at_us: 7,
            dur_us: 0,
        });
        for line in r.dump_jsonl().lines() {
            let v = crate::json::Value::parse(line).expect("valid JSONL");
            assert_eq!(
                v.get("type").and_then(crate::json::Value::as_str),
                Some("note")
            );
        }
    }
}
