//! Request-scoped tracing: a lock-free flight recorder.
//!
//! The histograms in [`crate::hist`] say *that* p99 is what it is; this
//! module says *why one request* was slow. Every layer records spans
//! (engine stages, emits) and instant events (buffer events stamped with
//! the input byte offset) tagged with a per-request 64-bit **trace ID**
//! into a [`FlightRecorder`] — fixed-size per-thread ring buffers of
//! atomic slots, written with a seqlock protocol:
//!
//! * recording is **allocation-free and lock-free** (one `fetch_add` to
//!   claim a ticket, seven relaxed stores, same discipline as
//!   [`crate::LatencyHistogram`]);
//! * the rings hold the *recent past* regardless of sampling, so a
//!   request discovered slow at its end can be kept **retroactively** —
//!   its spans are still in the rings;
//! * readers ([`FlightRecorder::export_chrome_json`]) validate each slot
//!   against its sequence number, so concurrent overwrites drop the
//!   oldest spans without ever tearing a record.
//!
//! Keeping a trace ([`FlightRecorder::keep`]) is the only non-lock-free
//! operation: it harvests the trace's records *out of the rings* into a
//! heap snapshot under a mutex, so a kept trace survives any amount of
//! later ring traffic (later requests overwrite ring slots, not
//! snapshots). It runs once per *sampled or slow* request — a few times
//! a second at most — never per span; a snapshot is bounded by the ring
//! capacity (2 × [`LANES`] × [`LANE_SLOTS`] records), and at most
//! [`KEPT_TRACES`] snapshots are retained (oldest dropped).
//!
//! The export format is Chrome trace-event JSON (the `traceEvents`
//! array), loadable in Perfetto / `chrome://tracing`: one *process* per
//! recording lane (the thread that wrote the span — a connection worker
//! or evaluator), one *track* (thread) per trace ID.

use crate::Counter;
use std::sync::atomic::{fence, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Ring lanes. Each recording thread is pinned to one lane (round-robin
/// at first use); more threads than lanes share lanes safely.
pub const LANES: usize = 8;
/// Slots per lane. Spans and buffer events ring separately (buffer
/// events arrive per allocation — orders of magnitude denser than
/// sampled stage spans, and would otherwise evict them all), so a
/// recorder holds 2 × 8 × 512 slots ≈ 450 KiB.
pub const LANE_SLOTS: usize = 512;
/// Kept-trace table size: the `/trace` endpoint exports at most this
/// many recent traces (older keeps are overwritten).
pub const KEPT_TRACES: usize = 32;
/// Kept-trace label bytes (query name / preview), truncated beyond.
const LABEL_BYTES: usize = 48;

/// What a span or instant event describes. The discriminants are stable
/// (they live in atomic slots); names appear in the Chrome JSON export.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u64)]
pub enum SpanKind {
    /// Whole request: head parsed → response flushed (gcx-net).
    Request = 1,
    /// Request head parsed (instant).
    HeadParse = 2,
    /// Session waited for an evaluator-pool thread.
    QueueWait = 3,
    /// First response byte on the wire (instant). A response whose
    /// bytes all go out in the final burst records it when that burst
    /// is queued.
    FirstByte = 4,
    /// Response complete: its last bytes are queued for the wire and the
    /// trace's keep decision is made (instant).
    Flush = 5,
    /// Engine stage: lexing one token.
    Lex = 6,
    /// Engine stage: raw-skipping a dead subtree.
    Skip = 7,
    /// Engine stage: projection matching.
    Match = 8,
    /// Engine stage: copying a node into the buffer.
    Buffer = 9,
    /// Engine stage: writing an output subtree.
    Emit = 10,
    /// Buffer event: a node was buffered (instant, arg = input offset).
    NodeBuffered = 11,
    /// Buffer event: a signOff removed role instances (instant).
    SignOff = 12,
    /// Buffer event: a subtree was garbage-collected (instant).
    SubtreeDelete = 13,
    /// Buffer event: bytes reserved against the memory budget (instant).
    BudgetReserve = 14,
    /// Buffer event: a budget reservation was refused (instant).
    BudgetReject = 15,
    /// Buffer event: the buffer's peak footprint crossed a new 64 KiB
    /// boundary (instant, arg2 = new peak bytes).
    HighWater = 16,
    /// Step machine: one `Engine::step` slice that ended in a voluntary
    /// yield (arg = pump events consumed this slice).
    Yield = 17,
}

impl SpanKind {
    /// The event name in the Chrome JSON export.
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::Request => "request",
            SpanKind::HeadParse => "head-parse",
            SpanKind::QueueWait => "queue-wait",
            SpanKind::FirstByte => "first-byte",
            SpanKind::Flush => "flush",
            SpanKind::Lex => "lex",
            SpanKind::Skip => "skip",
            SpanKind::Match => "match",
            SpanKind::Buffer => "buffer",
            SpanKind::Emit => "emit",
            SpanKind::NodeBuffered => "node-buffered",
            SpanKind::SignOff => "sign-off",
            SpanKind::SubtreeDelete => "subtree-delete",
            SpanKind::BudgetReserve => "budget-reserve",
            SpanKind::BudgetReject => "budget-reject",
            SpanKind::HighWater => "high-water",
            SpanKind::Yield => "yield",
        }
    }

    /// Instant events (`ph: "i"`) vs duration spans (`ph: "X"`).
    pub fn is_instant(self) -> bool {
        matches!(
            self,
            SpanKind::HeadParse
                | SpanKind::FirstByte
                | SpanKind::Flush
                | SpanKind::NodeBuffered
                | SpanKind::SignOff
                | SpanKind::SubtreeDelete
                | SpanKind::BudgetReserve
                | SpanKind::BudgetReject
                | SpanKind::HighWater
        )
    }

    /// Buffer events carry an input byte offset in `arg`.
    pub fn is_buffer_event(self) -> bool {
        matches!(
            self,
            SpanKind::NodeBuffered
                | SpanKind::SignOff
                | SpanKind::SubtreeDelete
                | SpanKind::BudgetReserve
                | SpanKind::BudgetReject
                | SpanKind::HighWater
        )
    }

    fn from_u64(v: u64) -> Option<SpanKind> {
        Some(match v {
            1 => SpanKind::Request,
            2 => SpanKind::HeadParse,
            3 => SpanKind::QueueWait,
            4 => SpanKind::FirstByte,
            5 => SpanKind::Flush,
            6 => SpanKind::Lex,
            7 => SpanKind::Skip,
            8 => SpanKind::Match,
            9 => SpanKind::Buffer,
            10 => SpanKind::Emit,
            11 => SpanKind::NodeBuffered,
            12 => SpanKind::SignOff,
            13 => SpanKind::SubtreeDelete,
            14 => SpanKind::BudgetReserve,
            15 => SpanKind::BudgetReject,
            16 => SpanKind::HighWater,
            17 => SpanKind::Yield,
            _ => return None,
        })
    }

    /// The duration-span kinds summarized by
    /// [`FlightRecorder::stage_totals`] (slow-request log breakdown).
    pub const STAGES: [SpanKind; 7] = [
        SpanKind::QueueWait,
        SpanKind::Lex,
        SpanKind::Skip,
        SpanKind::Match,
        SpanKind::Buffer,
        SpanKind::Emit,
        SpanKind::Request,
    ];
}

/// One recorded span, as read back out of a ring slot.
#[derive(Debug, Clone, Copy)]
pub struct SpanRecord {
    pub trace_id: u64,
    pub kind: SpanKind,
    /// Nanoseconds since the recorder's epoch.
    pub ts_ns: u64,
    /// Span duration (0 for instants).
    pub dur_ns: u64,
    /// Kind-specific: input byte offset for engine stages and buffer
    /// events.
    pub arg: u64,
    /// Kind-specific second value (bytes reserved, new peak, node id…).
    pub arg2: u64,
}

/// One ring slot: a seqlock-guarded record. Writers claim a ticket from
/// the lane head, invalidate the slot (`seq = 0`), store the fields with
/// relaxed ordering, then publish `ticket + 1` with release ordering.
/// Readers load `seq` (acquire), read the fields, fence, and re-check
/// `seq` — a concurrent overwrite changes the (unique) sequence number,
/// so a torn read can never validate.
struct Slot {
    seq: AtomicU64,
    trace_id: AtomicU64,
    kind: AtomicU64,
    ts_ns: AtomicU64,
    dur_ns: AtomicU64,
    arg: AtomicU64,
    arg2: AtomicU64,
}

impl Slot {
    const fn new() -> Self {
        Slot {
            seq: AtomicU64::new(0),
            trace_id: AtomicU64::new(0),
            kind: AtomicU64::new(0),
            ts_ns: AtomicU64::new(0),
            dur_ns: AtomicU64::new(0),
            arg: AtomicU64::new(0),
            arg2: AtomicU64::new(0),
        }
    }

    /// Seqlock-validated read; `None` for empty or mid-write slots.
    fn read(&self) -> Option<SpanRecord> {
        let s1 = self.seq.load(Ordering::Acquire);
        if s1 == 0 {
            return None;
        }
        let rec = SpanRecord {
            trace_id: self.trace_id.load(Ordering::Relaxed),
            kind: SpanKind::from_u64(self.kind.load(Ordering::Relaxed))?,
            ts_ns: self.ts_ns.load(Ordering::Relaxed),
            dur_ns: self.dur_ns.load(Ordering::Relaxed),
            arg: self.arg.load(Ordering::Relaxed),
            arg2: self.arg2.load(Ordering::Relaxed),
        };
        fence(Ordering::Acquire);
        (self.seq.load(Ordering::Relaxed) == s1).then_some(rec)
    }
}

/// One per-thread ring: a ticket counter and a fixed slot array. The
/// ticket is the total number of writes ever made to the lane; slot
/// `ticket % LANE_SLOTS` is overwritten (oldest first).
struct Lane {
    head: AtomicU64,
    slots: [Slot; LANE_SLOTS],
}

impl Lane {
    const fn new() -> Self {
        Lane {
            head: AtomicU64::new(0),
            slots: [const { Slot::new() }; LANE_SLOTS],
        }
    }
}

/// One kept (exported) trace: identity plus the records harvested from
/// the rings at keep time, each tagged with the lane (= export pid) it
/// was recorded on. Lives under the kept-table mutex, off the hot path.
struct KeptTrace {
    trace_id: u64,
    dur_ns: u64,
    slow: bool,
    label: String,
    records: Vec<(u8, SpanRecord)>,
}

/// The flight recorder. One instance per server (shared via `Arc`); see
/// the module docs for the protocol. `const`-constructible like every
/// other gcx-obs primitive.
pub struct FlightRecorder {
    lanes: [Lane; LANES],
    /// Buffer events ring apart from spans: one query can buffer tens
    /// of thousands of nodes between two sampled stage spans, and a
    /// shared ring would keep only the flood.
    buffer_lanes: [Lane; LANES],
    /// Snapshots of kept traces, newest last; capped at [`KEPT_TRACES`].
    kept: Mutex<Vec<KeptTrace>>,
    /// Traces kept (sampled or slow) — exported by `/trace`.
    pub traces_captured: Counter,
    /// Ring-slot overwrites: spans of the *oldest* writes dropped to
    /// make room. Nonzero is normal under load; the rings are sized for
    /// the recent past, not the whole history.
    pub spans_dropped: Counter,
    /// Requests kept because they exceeded the slow threshold.
    pub slow_requests: Counter,
    /// Timestamp zero, fixed at first use.
    epoch: OnceLock<Instant>,
}

impl Default for FlightRecorder {
    fn default() -> Self {
        Self::new()
    }
}

/// Round-robin lane assignment, fixed per thread at first use. The
/// counter is global so lanes spread across recorders too; a lane shared
/// by two threads (more threads than lanes) is still safe — tickets are
/// claimed with `fetch_add`.
fn lane_index() -> usize {
    use std::cell::Cell;
    static NEXT_LANE: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static LANE: Cell<usize> = const { Cell::new(usize::MAX) };
    }
    LANE.with(|l| {
        let mut v = l.get();
        if v == usize::MAX {
            v = NEXT_LANE.fetch_add(1, Ordering::Relaxed) % LANES;
            l.set(v);
        }
        v
    })
}

impl FlightRecorder {
    /// An empty recorder (usable in `static`s or fresh `Arc`s).
    pub const fn new() -> Self {
        FlightRecorder {
            lanes: [const { Lane::new() }; LANES],
            buffer_lanes: [const { Lane::new() }; LANES],
            kept: Mutex::new(Vec::new()),
            traces_captured: Counter::new(),
            spans_dropped: Counter::new(),
            slow_requests: Counter::new(),
            epoch: OnceLock::new(),
        }
    }

    /// Nanoseconds since this recorder's epoch (first call fixes zero).
    #[inline]
    pub fn now_ns(&self) -> u64 {
        self.epoch.get_or_init(Instant::now).elapsed().as_nanos() as u64
    }

    /// Records a duration span. Allocation-free, lock-free; a zero
    /// `trace_id` (no trace minted) is a no-op.
    #[inline]
    pub fn record_span(&self, trace_id: u64, kind: SpanKind, ts_ns: u64, dur_ns: u64, arg: u64) {
        self.record_raw(trace_id, kind, ts_ns, dur_ns, arg, 0);
    }

    /// Records an instant event at "now". `arg` is the input byte offset
    /// for buffer events; `arg2` is kind-specific (bytes, node id…).
    #[inline]
    pub fn record_instant(&self, trace_id: u64, kind: SpanKind, arg: u64, arg2: u64) {
        self.record_raw(trace_id, kind, self.now_ns(), 0, arg, arg2);
    }

    fn record_raw(
        &self,
        trace_id: u64,
        kind: SpanKind,
        ts_ns: u64,
        dur_ns: u64,
        arg: u64,
        arg2: u64,
    ) {
        if trace_id == 0 {
            return;
        }
        let lanes = if kind.is_buffer_event() {
            &self.buffer_lanes
        } else {
            &self.lanes
        };
        let lane = &lanes[lane_index()];
        let ticket = lane.head.fetch_add(1, Ordering::Relaxed);
        if ticket >= LANE_SLOTS as u64 {
            // The ring wrapped: this write evicts the lane's oldest span.
            self.spans_dropped.inc();
        }
        let slot = &lane.slots[(ticket % LANE_SLOTS as u64) as usize];
        // Invalidate, fill, publish (seqlock; see Slot docs). The ticket
        // is unique per lane, so two writers colliding on a wrapped slot
        // publish distinct sequence numbers and readers reject the race.
        slot.seq.store(0, Ordering::Release);
        slot.trace_id.store(trace_id, Ordering::Relaxed);
        slot.kind.store(kind as u64, Ordering::Relaxed);
        slot.ts_ns.store(ts_ns, Ordering::Relaxed);
        slot.dur_ns.store(dur_ns, Ordering::Relaxed);
        slot.arg.store(arg, Ordering::Relaxed);
        slot.arg2.store(arg2, Ordering::Relaxed);
        slot.seq.store(ticket + 1, Ordering::Release);
    }

    /// Marks `trace_id` as kept: its records are harvested out of the
    /// rings into a snapshot that the `/trace` export serves, immune to
    /// later ring traffic. Called once per sampled-or-slow request (the
    /// retroactive half of head-based sampling: the rings still hold
    /// the recent past, whatever the sampling decision was). Takes the
    /// kept-table mutex and allocates — diagnostics path, not the span
    /// hot path.
    pub fn keep(&self, trace_id: u64, label: &str, dur_ns: u64, slow: bool) {
        if trace_id == 0 {
            return;
        }
        let mut records = Vec::new();
        self.for_each_span_lane(|lane, rec| {
            if rec.trace_id == trace_id {
                records.push((lane as u8, *rec));
            }
        });
        let entry = KeptTrace {
            trace_id,
            dur_ns,
            slow,
            label: label[..floor_char_boundary(label, LABEL_BYTES)].to_string(),
            records,
        };
        let mut kept = self.kept.lock().unwrap_or_else(|p| p.into_inner());
        if kept.len() >= KEPT_TRACES {
            kept.remove(0);
        }
        kept.push(entry);
        drop(kept);
        self.traces_captured.inc();
        if slow {
            self.slow_requests.inc();
        }
    }

    /// Total recorded duration per stage kind for one trace (slow-request
    /// log breakdown): `(kind, total_ns)` in [`SpanKind::STAGES`] order.
    /// Scans every ring slot — diagnostics-path cost, not hot-path.
    pub fn stage_totals(&self, trace_id: u64) -> [(SpanKind, u64); SpanKind::STAGES.len()] {
        let mut totals = SpanKind::STAGES.map(|k| (k, 0u64));
        self.for_each_span(|rec| {
            if rec.trace_id == trace_id {
                if let Some(t) = totals.iter_mut().find(|(k, _)| *k == rec.kind) {
                    t.1 += rec.dur_ns;
                }
            }
        });
        totals
    }

    /// Calls `f` for every validly readable slot in every lane (span
    /// and buffer-event rings both).
    fn for_each_span(&self, mut f: impl FnMut(&SpanRecord)) {
        self.for_each_span_lane(|_, rec| f(rec));
    }

    /// Like [`Self::for_each_span`], also passing the lane index (the
    /// buffer-event ring for lane `i` reports index `i` too — one
    /// export process per recording thread, whichever ring the record
    /// landed in).
    fn for_each_span_lane(&self, mut f: impl FnMut(usize, &SpanRecord)) {
        for (idx, lane) in self
            .lanes
            .iter()
            .enumerate()
            .chain(self.buffer_lanes.iter().enumerate())
        {
            for slot in &lane.slots {
                if let Some(rec) = slot.read() {
                    f(idx, &rec);
                }
            }
        }
    }

    /// Exports the kept-trace snapshots as Chrome trace-event JSON
    /// (Perfetto / `chrome://tracing`): `{"traceEvents": [...]}` with
    /// one process per recording lane and one thread (track) per trace
    /// ID. Reads only snapshots under the kept-table mutex — the rings
    /// themselves are never scanned here, so a kept trace exports
    /// identically no matter how much has been recorded since.
    pub fn export_chrome_json(&self) -> String {
        let kept = self.kept.lock().unwrap_or_else(|p| p.into_inner());
        let mut out = String::with_capacity(16 * 1024);
        out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        let mut first = true;
        let sep = |out: &mut String, first: &mut bool| {
            if *first {
                *first = false;
            } else {
                out.push(',');
            }
        };
        // Metadata: process names (lanes) and thread names (kept traces).
        for lane in 0..LANES {
            sep(&mut out, &mut first);
            out.push_str(&format!(
                "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{lane},\"tid\":0,\
                 \"args\":{{\"name\":\"gcx-lane-{lane}\"}}}}"
            ));
        }
        for entry in kept.iter() {
            let slow = if entry.slow { " [slow]" } else { "" };
            let ms = entry.dur_ns as f64 / 1e6;
            for lane in 0..LANES {
                sep(&mut out, &mut first);
                out.push_str(&format!(
                    "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{lane},\"tid\":{},\
                     \"args\":{{\"name\":\"trace-{} ",
                    entry.trace_id, entry.trace_id
                ));
                esc_into(&mut out, &entry.label);
                out.push_str(&format!("{slow} ({ms:.1} ms)\"}}}}"));
            }
        }
        // Spans and instants from each snapshot; pid = recording lane.
        for entry in kept.iter() {
            for &(lane_idx, ref rec) in &entry.records {
                sep(&mut out, &mut first);
                let ts_us = rec.ts_ns / 1000;
                let ts_frac = rec.ts_ns % 1000;
                out.push_str(&format!(
                    "{{\"name\":\"{}\",\"cat\":\"gcx\",\"pid\":{lane_idx},\"tid\":{},\
                     \"ts\":{ts_us}.{ts_frac:03}",
                    rec.kind.name(),
                    rec.trace_id
                ));
                if rec.kind.is_instant() {
                    out.push_str(",\"ph\":\"i\",\"s\":\"t\"");
                } else {
                    let dur_us = rec.dur_ns / 1000;
                    let dur_frac = rec.dur_ns % 1000;
                    out.push_str(&format!(",\"ph\":\"X\",\"dur\":{dur_us}.{dur_frac:03}"));
                }
                if rec.kind.is_buffer_event() {
                    out.push_str(&format!(
                        ",\"args\":{{\"offset\":{},\"value\":{}}}",
                        rec.arg, rec.arg2
                    ));
                } else {
                    out.push_str(&format!(",\"args\":{{\"offset\":{}}}", rec.arg));
                }
                out.push('}');
            }
        }
        out.push_str("]}");
        out
    }
}

/// Largest `n ≤ max` such that `s[..n]` is a char boundary (stable-Rust
/// stand-in for `str::floor_char_boundary`).
fn floor_char_boundary(s: &str, max: usize) -> usize {
    let mut n = s.len().min(max);
    while n > 0 && !s.is_char_boundary(n) {
        n -= 1;
    }
    n
}

/// Minimal JSON string escaping (labels only; gcx-net has its own).
fn esc_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn spans_round_trip_through_export() {
        let rec = FlightRecorder::new();
        let t0 = rec.now_ns();
        rec.record_span(7, SpanKind::Lex, t0, 1_500, 42);
        rec.record_instant(7, SpanKind::NodeBuffered, 42, 9);
        rec.keep(7, "q1", 2_000, false);
        let json = rec.export_chrome_json();
        assert!(json.starts_with("{\"displayTimeUnit\""), "{json}");
        assert!(json.contains("\"traceEvents\""), "{json}");
        assert!(json.contains("\"name\":\"lex\""), "{json}");
        assert!(json.contains("\"ph\":\"X\""), "{json}");
        assert!(json.contains("\"name\":\"node-buffered\""), "{json}");
        assert!(json.contains("\"ph\":\"i\""), "{json}");
        assert!(json.contains("\"offset\":42"), "{json}");
        assert!(json.contains("\"tid\":7"), "{json}");
        assert!(json.contains("trace-7 q1"), "{json}");
        assert_eq!(rec.traces_captured.get(), 1);
    }

    #[test]
    fn unkept_traces_are_invisible() {
        let rec = FlightRecorder::new();
        rec.record_span(3, SpanKind::Match, 0, 10, 0);
        let json = rec.export_chrome_json();
        assert!(!json.contains("\"name\":\"match\""), "{json}");
    }

    #[test]
    fn zero_trace_id_is_a_noop() {
        let rec = FlightRecorder::new();
        rec.record_span(0, SpanKind::Lex, 0, 1, 0);
        rec.keep(0, "nope", 0, true);
        assert_eq!(rec.traces_captured.get(), 0);
        let mut any = false;
        rec.for_each_span(|_| any = true);
        assert!(!any);
    }

    #[test]
    fn overflow_drops_oldest_and_counts() {
        let rec = FlightRecorder::new();
        // All writes from this one thread land in one lane; overflow it.
        let writes = (LANE_SLOTS as u64) * 3;
        for i in 0..writes {
            rec.record_span(1, SpanKind::Lex, i, 1, i);
        }
        assert_eq!(rec.spans_dropped.get(), writes - LANE_SLOTS as u64);
        // The surviving spans are exactly the newest LANE_SLOTS writes.
        let mut seen = Vec::new();
        rec.for_each_span(|r| seen.push(r.ts_ns));
        seen.sort_unstable();
        assert_eq!(seen.len(), LANE_SLOTS);
        assert_eq!(seen[0], writes - LANE_SLOTS as u64);
        assert_eq!(*seen.last().unwrap(), writes - 1);
    }

    /// Satellite: concurrent writers wrapping the rings never produce a
    /// torn record. Writers encode an invariant across the slot fields
    /// (arg == ts * 3, arg2 == ts ^ mask, dur == trace_id); readers scan
    /// continuously and every validated read must satisfy it.
    #[test]
    fn concurrent_overflow_never_tears() {
        let rec = Arc::new(FlightRecorder::new());
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let writers: Vec<_> = (0..4)
            .map(|w| {
                let rec = rec.clone();
                let stop = stop.clone();
                std::thread::spawn(move || {
                    let trace_id = w as u64 + 1;
                    let mut i = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        rec.record_raw(
                            trace_id,
                            SpanKind::Buffer,
                            i,
                            trace_id,
                            i.wrapping_mul(3),
                            i ^ 0xdead_beef,
                        );
                        i += 1;
                    }
                })
            })
            .collect();
        let mut validated = 0u64;
        let t0 = Instant::now();
        while t0.elapsed() < std::time::Duration::from_millis(200) {
            rec.for_each_span(|r| {
                validated += 1;
                assert_eq!(r.arg, r.ts_ns.wrapping_mul(3), "torn arg");
                assert_eq!(r.arg2, r.ts_ns ^ 0xdead_beef, "torn arg2");
                assert_eq!(r.dur_ns, r.trace_id, "torn dur/trace pairing");
            });
        }
        stop.store(true, Ordering::Relaxed);
        for w in writers {
            w.join().unwrap();
        }
        assert!(validated > 0, "reader validated at least some slots");
        assert!(rec.spans_dropped.get() > 0, "rings wrapped during the run");
    }

    #[test]
    fn kept_table_wraps_to_recent() {
        let rec = FlightRecorder::new();
        rec.record_span(1, SpanKind::Lex, 0, 1, 0);
        rec.record_span(KEPT_TRACES as u64 + 5, SpanKind::Lex, 0, 1, 0);
        for id in 1..=(KEPT_TRACES as u64 + 5) {
            rec.keep(id, "x", 0, false);
        }
        let json = rec.export_chrome_json();
        // Trace 1 was evicted from the kept table; the newest survives
        // with its harvested span.
        assert!(!json.contains("\"tid\":1,"), "{json}");
        // The newest trace's harvested span is an event row (has "ts",
        // unlike the thread_name metadata). Lane pid varies per thread.
        assert!(
            json.contains(&format!(",\"tid\":{},\"ts\":", KEPT_TRACES + 5)),
            "{json}"
        );
        assert_eq!(rec.traces_captured.get(), KEPT_TRACES as u64 + 5);
    }

    /// The property that makes kept traces useful on a busy server:
    /// once kept, a trace's snapshot is immune to any amount of later
    /// ring traffic from other requests.
    #[test]
    fn kept_snapshots_survive_ring_overwrite() {
        let rec = FlightRecorder::new();
        rec.record_span(1, SpanKind::Lex, 10, 5, 77);
        rec.record_instant(1, SpanKind::NodeBuffered, 77, 1);
        rec.keep(1, "victim", 0, false);
        // Flood both rings far past capacity under another trace ID.
        for i in 0..(LANE_SLOTS as u64 * 3) {
            rec.record_span(2, SpanKind::Match, i, 1, i);
            rec.record_instant(2, SpanKind::SignOff, i, 1);
        }
        let json = rec.export_chrome_json();
        assert!(json.contains("\"name\":\"lex\""), "{json}");
        assert!(json.contains("\"offset\":77"), "{json}");
        // Trace 2 was never kept: its flood exports nothing.
        assert!(!json.contains("\"name\":\"match\""), "{json}");
    }

    #[test]
    fn stage_totals_sum_per_kind() {
        let rec = FlightRecorder::new();
        rec.record_span(9, SpanKind::Lex, 0, 100, 0);
        rec.record_span(9, SpanKind::Lex, 0, 50, 0);
        rec.record_span(9, SpanKind::Emit, 0, 25, 0);
        rec.record_span(8, SpanKind::Lex, 0, 999, 0); // other trace
        let totals = rec.stage_totals(9);
        let get = |k: SpanKind| totals.iter().find(|(x, _)| *x == k).unwrap().1;
        assert_eq!(get(SpanKind::Lex), 150);
        assert_eq!(get(SpanKind::Emit), 25);
        assert_eq!(get(SpanKind::Match), 0);
    }

    #[test]
    fn labels_truncate_on_char_boundaries() {
        let rec = FlightRecorder::new();
        let long = "é".repeat(LABEL_BYTES); // 2 bytes per char
        rec.record_span(5, SpanKind::Lex, 0, 1, 0);
        rec.keep(5, &long, 0, false);
        let json = rec.export_chrome_json();
        assert!(json.contains("trace-5 "), "{json}");
    }
}
