//! The structured trace-event timeline (`mx-obs-trace/1`).
//!
//! Metrics and stage totals answer *how much*; the trace answers
//! *when and in what shape*. Every instrumented site can append a
//! [`TraceEvent`] to a bounded per-shard ring buffer; a capture merges
//! the rings into one canonical multiset, sorted by a key built only
//! from deterministic fields, so the exported timeline obeys the same
//! discipline as the metric shards: bit-identical at any thread count
//! and across reruns of the same input.
//!
//! Determinism rules, mirroring [`crate::metrics::Class`]:
//!
//! - **Stable events** ([`EventKind::SimSpan`], [`EventKind::Charge`],
//!   [`EventKind::Instant`]) carry only caller-supplied deterministic
//!   fields: a sim-time stamp `t`, a sim duration `dur` and a tag
//!   `arg`, each a pure function of the input. They form the
//!   deterministic export.
//! - **Per-run events** ([`EventKind::Span`], volatile instants) carry
//!   monotonic host nanoseconds and exist for the Chrome-trace and
//!   flamegraph views; they never reach the deterministic export.
//!
//! The rings are bounded ([`set_capacity`]): overflow drops the
//! *oldest* event of the recording shard and counts it in the
//! `obs.trace.dropped` per-run counter, so `dropped + len(events) ==
//! recorded` reconciles exactly on every capture. The deterministic
//! export is guaranteed byte-identical across thread counts only while
//! no stable event has been dropped (which shard overflows first
//! depends on thread scheduling); gates size the rings accordingly and
//! [`TraceSnapshot::recorded_stable`] exposes the check.
//!
//! This module never reads a clock, the environment or a hash-ordered
//! container: host timestamps are computed by the span layer and
//! passed in as plain numbers, and the on/off gates live in the crate
//! root next to the metric gate.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

use crate::json::{self, JsonError, Value};
use crate::metrics::{Class, Counter};
use crate::{names, shard_index, SHARD_COUNT};

/// The trace exporter schema identifier.
pub const TRACE_SCHEMA: &str = "mx-obs-trace/1";

/// Default per-shard ring capacity (events).
pub const DEFAULT_RING_CAPACITY: usize = 8192;

/// Hard bounds on [`set_capacity`] so a bad caller cannot disable the
/// ring bound or allocate unboundedly.
const MIN_RING_CAPACITY: usize = 16;
const MAX_RING_CAPACITY: usize = 1 << 20;

/// What shape of event a record is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum EventKind {
    /// A host-timed scope (from a span guard drop). Always per-run:
    /// its content is wall time.
    Span,
    /// A sim-timed scope with a caller-supplied deterministic stamp
    /// and duration (e.g. one served request in the serve kernel).
    SimSpan,
    /// A sim-cost charge recorded alongside `SimClock::charge` (e.g.
    /// retry backoff); `dur` is the charged amount.
    Charge,
    /// A point event.
    Instant,
}

impl EventKind {
    /// Stable label used in exports.
    pub fn label(self) -> &'static str {
        match self {
            EventKind::Span => "span",
            EventKind::SimSpan => "sim_span",
            EventKind::Charge => "charge",
            EventKind::Instant => "instant",
        }
    }

    /// Canonical sort code (part of the export order contract).
    fn code(self) -> u8 {
        match self {
            EventKind::Span => 0,
            EventKind::SimSpan => 1,
            EventKind::Charge => 2,
            EventKind::Instant => 3,
        }
    }

    fn from_label(s: &str) -> Option<EventKind> {
        match s {
            "span" => Some(EventKind::Span),
            "sim_span" => Some(EventKind::SimSpan),
            "charge" => Some(EventKind::Charge),
            "instant" => Some(EventKind::Instant),
            _ => None,
        }
    }
}

/// One recorded event. `t`, `dur` and `arg` are deterministic
/// (caller-supplied, pure functions of the input); `host_start_ns`,
/// `host_dur_ns` and `shard` are per-run and excluded from the
/// deterministic export.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// The stage this event belongs to (a `names::STAGE_*` constant).
    pub stage: &'static str,
    /// Event shape.
    pub kind: EventKind,
    /// Stable (deterministic export) or per-run.
    pub class: Class,
    /// Deterministic sim-time stamp in the recording site's own sim
    /// unit (ms in the serve kernel, 0 for pipeline charges).
    pub t: u64,
    /// Deterministic sim duration (same unit as `t`).
    pub dur: u64,
    /// Caller tag (endpoint/outcome packing, domain hash, IP). Kept
    /// below 2^48 so the JSON number round-trips exactly.
    pub arg: u64,
    /// Shard that recorded the event (per-run; Chrome `tid`).
    pub shard: u64,
    /// Monotonic host start, nanoseconds since the span epoch
    /// (per-run; 0 for sim-only events).
    pub host_start_ns: u64,
    /// Monotonic host duration in nanoseconds (per-run).
    pub host_dur_ns: u64,
}

impl TraceEvent {
    /// The canonical multiset order: built only from deterministic
    /// fields first, so the sorted stable subsequence is
    /// thread-invariant; per-run fields only break ties among
    /// volatile duplicates to keep full exports stable per run.
    fn canon_key(&self) -> (u64, &'static str, u8, u64, u64, u8, u64, u64, u64) {
        let class_code = match self.class {
            Class::Stable => 0u8,
            Class::PerRun => 1u8,
        };
        (
            self.t,
            self.stage,
            self.kind.code(),
            self.arg,
            self.dur,
            class_code,
            self.shard,
            self.host_start_ns,
            self.host_dur_ns,
        )
    }
}

/// One shard's bounded event ring plus its offered/dropped totals.
#[derive(Debug, Default)]
struct Ring {
    events: VecDeque<TraceEvent>,
    recorded: u64,
    dropped: u64,
}

fn rings() -> &'static [Mutex<Ring>; SHARD_COUNT] {
    static RINGS: OnceLock<[Mutex<Ring>; SHARD_COUNT]> = OnceLock::new();
    RINGS.get_or_init(|| std::array::from_fn(|_| Mutex::new(Ring::default())))
}

static CAPACITY: AtomicUsize = AtomicUsize::new(DEFAULT_RING_CAPACITY);

/// Per-shard ring capacity currently in force.
pub fn capacity() -> usize {
    CAPACITY.load(Ordering::Relaxed)
}

/// Set the per-shard ring capacity (clamped to a sane range). Applies
/// to subsequent records; existing rings shrink lazily as they record.
pub fn set_capacity(events_per_shard: usize) {
    let v = events_per_shard.clamp(MIN_RING_CAPACITY, MAX_RING_CAPACITY);
    CAPACITY.store(v, Ordering::Relaxed);
}

fn recorded_counter() -> &'static Counter {
    static H: OnceLock<Counter> = OnceLock::new();
    H.get_or_init(|| Counter::register(names::OBS_TRACE_RECORDED, Class::Stable))
}

fn dropped_counter() -> &'static Counter {
    static H: OnceLock<Counter> = OnceLock::new();
    H.get_or_init(|| Counter::register(names::OBS_TRACE_DROPPED, Class::PerRun))
}

/// Is event recording on right now? Both the metric gate and the trace
/// gate must be enabled; each is one relaxed load.
pub(crate) fn active() -> bool {
    crate::enabled() && crate::trace_enabled()
}

/// Append an event to the calling thread's shard ring, dropping the
/// oldest event of that ring on overflow. Call sites gate on
/// [`active`] themselves (the span layer does) so the disabled path
/// never constructs an event.
pub(crate) fn record(ev: TraceEvent) {
    if ev.class == Class::Stable {
        recorded_counter().incr();
    }
    let cap = capacity();
    let Some(slot) = rings().get(shard_index()) else {
        return;
    };
    let mut ring = slot.lock().unwrap_or_else(|e| e.into_inner());
    ring.recorded = ring.recorded.saturating_add(1);
    while ring.events.len() >= cap {
        ring.events.pop_front();
        ring.dropped = ring.dropped.saturating_add(1);
        dropped_counter().incr();
    }
    ring.events.push_back(ev);
}

/// Zero every ring and its totals, in place.
pub fn reset_all() {
    for slot in rings().iter() {
        let mut ring = slot.lock().unwrap_or_else(|e| e.into_inner());
        ring.events.clear();
        ring.recorded = 0;
        ring.dropped = 0;
    }
}

/// Streaming 64-bit FNV-1a: the workspace's one FNV implementation
/// (`mx_cert::fingerprint` re-exports it for `fnv1a`/`h64`). Feeding
/// bytes in pieces hashes exactly like feeding their concatenation, so
/// keys never need to be assembled into a buffer first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv1a(u64);

impl Fnv1a {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// A hasher at the offset basis.
    pub fn new() -> Self {
        Fnv1a(Self::OFFSET)
    }

    /// Resume from an earlier [`Fnv1a::digest64`] value (chained hashing).
    pub fn resume(state: u64) -> Self {
        Fnv1a(state)
    }

    /// Feed bytes.
    pub fn feed(mut self, data: &[u8]) -> Self {
        for &b in data {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(Self::PRIME);
        }
        self
    }

    /// Feed a `u64` as its 8 big-endian bytes.
    pub fn feed_u64(self, v: u64) -> Self {
        self.feed(&v.to_be_bytes())
    }

    /// A hasher fed with `value`'s `Display` output, streamed piece by
    /// piece (no intermediate `String`).
    pub fn of_display(value: &impl std::fmt::Display) -> Self {
        use std::fmt::Write as _;
        let mut h = Self::new();
        // Writing into the hasher cannot fail.
        let _ = write!(h, "{value}");
        h
    }

    /// The hash of everything fed so far.
    pub fn digest64(self) -> u64 {
        self.0
    }
}

impl std::fmt::Write for Fnv1a {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        *self = self.feed(s.as_bytes());
        Ok(())
    }
}

/// Mask keeping a content tag within 48 bits.
pub const TAG_MASK: u64 = 0x0000_ffff_ffff_ffff;

/// A 48-bit FNV-1a content tag for event args: a pure function of the
/// bytes, masked so the value round-trips exactly through an `f64`
/// JSON number.
pub fn tag64(bytes: &[u8]) -> u64 {
    Fnv1a::new().feed(bytes).digest64() & TAG_MASK
}

/// A merged view of every ring: the canonical event multiset plus the
/// offered/dropped accounting it must reconcile with.
#[derive(Debug, Clone)]
pub struct TraceSnapshot {
    /// Every buffered event, in canonical order.
    pub events: Vec<TraceEvent>,
    /// Events offered to the rings since the last reset (all classes).
    pub recorded: u64,
    /// Stable-class events offered (the `obs.trace.recorded` counter).
    pub recorded_stable: u64,
    /// Events dropped by ring overflow (the `obs.trace.dropped`
    /// counter). `dropped + events.len() == recorded` always.
    pub dropped: u64,
}

impl TraceSnapshot {
    /// Merge and canonically sort every shard ring.
    pub fn capture() -> TraceSnapshot {
        let mut events: Vec<TraceEvent> = Vec::new();
        let mut recorded = 0u64;
        let mut dropped = 0u64;
        for slot in rings().iter() {
            let ring = slot.lock().unwrap_or_else(|e| e.into_inner());
            events.extend(ring.events.iter().cloned());
            recorded = recorded.saturating_add(ring.recorded);
            dropped = dropped.saturating_add(ring.dropped);
        }
        events.sort_by(|a, b| a.canon_key().cmp(&b.canon_key()));
        let recorded_stable = events
            .iter()
            .filter(|e| e.class == Class::Stable)
            .count() as u64;
        // The buffered stable count can undercount offers if stable
        // events were dropped; report the counter's view, which cannot.
        let offered_stable = crate::metrics::counter_value(names::OBS_TRACE_RECORDED);
        TraceSnapshot {
            events,
            recorded,
            recorded_stable: offered_stable.max(recorded_stable),
            dropped,
        }
    }

    /// Stable events in canonical order, optionally only the last `n`.
    fn stable_tail(&self, last: Option<usize>) -> Vec<&TraceEvent> {
        let stable: Vec<&TraceEvent> = self
            .events
            .iter()
            .filter(|e| e.class == Class::Stable)
            .collect();
        match last {
            Some(n) if n < stable.len() => {
                let skip = stable.len() - n;
                stable.into_iter().skip(skip).collect()
            }
            _ => stable,
        }
    }

    /// The deterministic export: stable events only, per-run fields
    /// (host time, shard) excluded, canonical order. Byte-identical
    /// across thread counts and reruns while no stable event has been
    /// dropped.
    pub fn deterministic_json(&self) -> String {
        self.deterministic_json_last(None)
    }

    /// Like [`Self::deterministic_json`], keeping only the last
    /// `last` events of the canonical order (the `/debug/trace?last=N`
    /// surface).
    pub fn deterministic_json_last(&self, last: Option<usize>) -> String {
        let events = self.stable_tail(last);
        let mut root = Value::obj();
        root.insert("schema", TRACE_SCHEMA.into());
        root.insert("deterministic", true.into());
        root.insert("recorded_stable", self.recorded_stable.into());
        let mut arr = Value::arr();
        for e in events {
            let mut o = Value::obj();
            o.insert("t", e.t.into());
            o.insert("stage", e.stage.into());
            o.insert("kind", e.kind.label().into());
            o.insert("arg", e.arg.into());
            o.insert("dur", e.dur.into());
            arr.push(o);
        }
        root.insert("events", arr);
        root.to_string_pretty()
    }

    /// The full export: every event with its class and per-run fields,
    /// plus the ring accounting. Stable within one run, per-run across
    /// runs (host time).
    pub fn full_json(&self) -> String {
        let mut root = Value::obj();
        root.insert("schema", TRACE_SCHEMA.into());
        root.insert("deterministic", false.into());
        root.insert("recorded", self.recorded.into());
        root.insert("recorded_stable", self.recorded_stable.into());
        root.insert("dropped", self.dropped.into());
        let mut arr = Value::arr();
        for e in &self.events {
            let mut o = Value::obj();
            o.insert("t", e.t.into());
            o.insert("stage", e.stage.into());
            o.insert("kind", e.kind.label().into());
            o.insert("class", e.class.label().into());
            o.insert("arg", e.arg.into());
            o.insert("dur", e.dur.into());
            o.insert("shard", e.shard.into());
            o.insert("host_start_ns", e.host_start_ns.into());
            o.insert("host_dur_ns", e.host_dur_ns.into());
            arr.push(o);
        }
        root.insert("events", arr);
        root.to_string_pretty()
    }

    /// Chrome Trace Event Format (load in `chrome://tracing` or
    /// Perfetto). Host-timed spans use their monotonic nanoseconds;
    /// sim-timed events place one sim tick per microsecond-millisecond
    /// pair (tick × 1000 µs), which keeps relative order readable.
    /// Per-run by nature.
    pub fn chrome_trace_json(&self) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        let mut first = true;
        for e in &self.events {
            let (ph, ts_us, dur_us) = match e.kind {
                EventKind::Span => (
                    "X",
                    e.host_start_ns as f64 / 1e3,
                    (e.host_dur_ns as f64 / 1e3).max(0.001),
                ),
                EventKind::SimSpan | EventKind::Charge => (
                    "X",
                    e.t as f64 * 1e3,
                    (e.dur as f64 * 1e3).max(0.001),
                ),
                EventKind::Instant => ("i", e.t as f64 * 1e3, 0.0),
            };
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!(
                "\n  {{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"{ph}\",\"ts\":{ts_us:.3},\
                 \"pid\":1,\"tid\":{}",
                e.stage,
                e.class.label(),
                e.shard.saturating_add(1),
            ));
            if ph == "X" {
                out.push_str(&format!(",\"dur\":{dur_us:.3}"));
            } else {
                out.push_str(",\"s\":\"t\"");
            }
            out.push_str(&format!(
                ",\"args\":{{\"arg\":{},\"t\":{},\"dur\":{},\"kind\":\"{}\"}}}}",
                e.arg,
                e.t,
                e.dur,
                e.kind.label(),
            ));
        }
        out.push_str("\n]}\n");
        out
    }
}

/// Why an exported trace document failed validation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceSchemaError {
    /// Not valid JSON.
    Parse(JsonError),
    /// Top level is not an object.
    NotAnObject,
    /// `schema` missing or not `mx-obs-trace/1`.
    WrongSchema,
    /// A required top-level field is missing or mistyped.
    MissingField(&'static str),
    /// The event at this index is malformed.
    BadEvent(usize),
    /// Events are not in canonical order at this index.
    EventsUnsorted(usize),
}

impl std::fmt::Display for TraceSchemaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceSchemaError::Parse(e) => write!(f, "not valid JSON: {e}"),
            TraceSchemaError::NotAnObject => write!(f, "top level is not an object"),
            TraceSchemaError::WrongSchema => {
                write!(f, "schema field missing or not {TRACE_SCHEMA:?}")
            }
            TraceSchemaError::MissingField(k) => write!(f, "missing or mistyped field {k:?}"),
            TraceSchemaError::BadEvent(i) => write!(f, "event #{i} is malformed"),
            TraceSchemaError::EventsUnsorted(i) => {
                write!(f, "events out of canonical order at #{i}")
            }
        }
    }
}

impl std::error::Error for TraceSchemaError {}

/// Check an exported trace document (deterministic or full form)
/// against the `mx-obs-trace/1` schema: required fields present and
/// numeric, kinds from the closed set, events in canonical order.
pub fn validate_trace(text: &str) -> Result<(), TraceSchemaError> {
    let doc = json::parse(text).map_err(TraceSchemaError::Parse)?;
    if !matches!(doc, Value::Obj(_)) {
        return Err(TraceSchemaError::NotAnObject);
    }
    if doc.get("schema").and_then(Value::as_str) != Some(TRACE_SCHEMA) {
        return Err(TraceSchemaError::WrongSchema);
    }
    doc.get("recorded_stable")
        .and_then(Value::as_num)
        .ok_or(TraceSchemaError::MissingField("recorded_stable"))?;
    let events = doc
        .get("events")
        .and_then(Value::as_arr)
        .ok_or(TraceSchemaError::MissingField("events"))?;
    let mut prev: Option<(u64, String, u8, u64, u64)> = None;
    for (i, e) in events.iter().enumerate() {
        let num = |field: &'static str| -> Result<u64, TraceSchemaError> {
            let v = e
                .get(field)
                .and_then(Value::as_num)
                .ok_or(TraceSchemaError::BadEvent(i))?;
            if !(v.is_finite() && v >= 0.0) {
                return Err(TraceSchemaError::BadEvent(i));
            }
            Ok(v as u64)
        };
        let t = num("t")?;
        let arg = num("arg")?;
        let dur = num("dur")?;
        let stage = e
            .get("stage")
            .and_then(Value::as_str)
            .ok_or(TraceSchemaError::BadEvent(i))?;
        let kind = e
            .get("kind")
            .and_then(Value::as_str)
            .and_then(EventKind::from_label)
            .ok_or(TraceSchemaError::BadEvent(i))?;
        let key = (t, stage.to_string(), kind.code(), arg, dur);
        if prev.as_ref().is_some_and(|p| *p > key) {
            return Err(TraceSchemaError::EventsUnsorted(i));
        }
        prev = Some(key);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(stage: &'static str, t: u64, arg: u64) -> TraceEvent {
        TraceEvent {
            stage,
            kind: EventKind::Instant,
            class: Class::Stable,
            t,
            dur: 0,
            arg,
            shard: 0,
            host_start_ns: 0,
            host_dur_ns: 0,
        }
    }

    #[test]
    fn capture_sorts_canonically_and_reconciles() {
        let _g = crate::test_guard();
        crate::set_enabled(true);
        crate::set_trace_enabled(true);
        crate::reset();
        record(ev("test.trace.b", 5, 1));
        record(ev("test.trace.a", 5, 2));
        record(ev("test.trace.a", 1, 3));
        let snap = TraceSnapshot::capture();
        assert_eq!(snap.events.len(), 3);
        assert_eq!(snap.recorded, 3);
        assert_eq!(snap.dropped, 0);
        assert_eq!(snap.dropped + snap.events.len() as u64, snap.recorded);
        let keys: Vec<(u64, &str)> = snap.events.iter().map(|e| (e.t, e.stage)).collect();
        assert_eq!(
            keys,
            vec![(1, "test.trace.a"), (5, "test.trace.a"), (5, "test.trace.b")]
        );
        let det = snap.deterministic_json();
        validate_trace(&det).expect("deterministic form validates");
        validate_trace(&snap.full_json()).expect("full form validates");
        crate::set_trace_enabled(false);
        crate::set_enabled(false);
    }

    #[test]
    fn overflow_drops_oldest_and_counts() {
        let _g = crate::test_guard();
        crate::set_enabled(true);
        crate::set_trace_enabled(true);
        crate::reset();
        let keep = capacity();
        set_capacity(MIN_RING_CAPACITY);
        for i in 0..40u64 {
            record(ev("test.trace.overflow", i, 0));
        }
        let snap = TraceSnapshot::capture();
        assert_eq!(snap.events.len(), MIN_RING_CAPACITY);
        assert_eq!(snap.dropped, 40 - MIN_RING_CAPACITY as u64);
        assert_eq!(snap.dropped + snap.events.len() as u64, snap.recorded);
        // Oldest events went first: the survivors are the tail.
        assert_eq!(
            snap.events.first().map(|e| e.t),
            Some(40 - MIN_RING_CAPACITY as u64)
        );
        assert_eq!(
            crate::metrics::counter_value(names::OBS_TRACE_DROPPED),
            snap.dropped
        );
        set_capacity(keep);
        crate::set_trace_enabled(false);
        crate::set_enabled(false);
    }

    #[test]
    fn tag64_is_pure_and_bounded() {
        assert_eq!(tag64(b"example.com"), tag64(b"example.com"));
        assert_ne!(tag64(b"example.com"), tag64(b"example.org"));
        assert!(tag64(b"anything at all") < (1u64 << 48));
    }

    #[test]
    fn validator_rejects_drift() {
        let ok = "{\"schema\": \"mx-obs-trace/1\", \"recorded_stable\": 0, \"events\": []}";
        assert_eq!(validate_trace(ok), Ok(()));
        let wrong = "{\"schema\": \"mx-obs/1\", \"recorded_stable\": 0, \"events\": []}";
        assert_eq!(validate_trace(wrong), Err(TraceSchemaError::WrongSchema));
        let bad_kind = "{\"schema\": \"mx-obs-trace/1\", \"recorded_stable\": 1, \"events\": [\
             {\"t\": 0, \"stage\": \"x\", \"kind\": \"nope\", \"arg\": 0, \"dur\": 0}]}";
        assert_eq!(validate_trace(bad_kind), Err(TraceSchemaError::BadEvent(0)));
        let unsorted = "{\"schema\": \"mx-obs-trace/1\", \"recorded_stable\": 2, \"events\": [\
             {\"t\": 5, \"stage\": \"x\", \"kind\": \"instant\", \"arg\": 0, \"dur\": 0},\
             {\"t\": 1, \"stage\": \"x\", \"kind\": \"instant\", \"arg\": 0, \"dur\": 0}]}";
        assert_eq!(
            validate_trace(unsorted),
            Err(TraceSchemaError::EventsUnsorted(1))
        );
    }
}
