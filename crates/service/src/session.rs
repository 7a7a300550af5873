//! Push-based streaming sessions over the resumable GCX step machine.
//!
//! The engine ([`GcxEngine`]) evaluates in bounded **slices**
//! ([`GcxEngine::step`]): all suspension state lives in the engine
//! struct, so a session no longer needs a thread parked inside
//! evaluation. A [`StreamSession`] wraps one engine as a schedulable
//! task:
//!
//! ```text
//!   caller thread                         scheduler worker
//!   ─────────────                         ────────────────
//!   feed(chunk) ──► bounded chunk queue ──► ChunkReader::read (WouldBlock when dry)
//!        │ wake ──► ready queue          ──► GcxEngine::step(budget)
//!   feed/drain ◄── shared output buffer ◄── SessionWriter::write
//!   finish()   ──► close + wake + wait  ──► RunReport (BufferStats)
//! ```
//!
//! In pooled mode ([`SessionConfig::pool`]) the session is a
//! [`PoolTask`] on the shared [`EvaluatorPool`] scheduler: it runs one
//! bounded step per slice, re-enqueues itself while runnable (fairness),
//! and *parks* — leaves the scheduler entirely — when input runs dry
//! ([`StepOutcome::NeedInput`]) or undrained output crosses the
//! high-water mark ([`StepOutcome::OutputBackpressure`]). `feed`,
//! `drain`, `close_input` and `cancel` wake it back up. M workers thus
//! serve any number of open sessions, none of them ever blocked.
//!
//! Without a pool, a dedicated thread drives the same task, parking on
//! the session's condvars instead of the scheduler.
//!
//! The chunk queue applies backpressure (`feed` blocks once
//! `input_queue_bytes` are pending), and output bytes are handed back
//! incrementally — each `feed`/`drain` returns everything the engine
//! has emitted so far, which the engine produces as early as the stream
//! permits (the GCX property). Errors are isolated per session: a
//! malformed stream fails this session and surfaces on the next call,
//! nothing else.
//!
//! ## Output handoff
//!
//! The engine writes into a [`SessionWriter`] that stages bytes locally
//! and publishes them to the shared output buffer (one lock) at most a
//! few times per slice: at the first tag boundary of the slice (so the
//! first result of a slice is not held back for the slice's duration),
//! whenever `STAGE_FLUSH_BYTES` are staged, and at slice end
//! ([`GcxEngine::step`] flushes its sink before it returns). Waiters
//! are woken on *edges* only: `space_available` and the
//! [`SessionConfig::progress_waker`] fire when the shared output goes
//! from empty to non-empty (a consumer that left output pending already
//! holds a wakeup, so later pushes need not repeat it), when a read frees
//! input space for a caller that was refused it, and on termination.
//! [`StreamSession::drain_into`] hands the output over by swapping
//! buffers, so a steady-state driver drains without allocating.
//!
//! ## Session state machine
//!
//! `feed* → (drain | feed)* → finish` — or `cancel` at any point.
//! Dropping an unfinished session cancels it implicitly.

use crate::budget::MemoryBudget;
use crate::metrics::SessionMetrics;
use crate::pool::{EvaluatorPool, ParkReason, PoolTask, Slice, TaskHandle};
use crate::ServiceError;
use gcx_buffer::LiveBufferStats;
use gcx_core::{CancelFlag, EngineOptions, EngineStageMetrics, GcxEngine, RunReport, StepOutcome};
use gcx_obs::{log_error, log_info};
use gcx_query::CompiledQuery;
use gcx_xml::TagInterner;
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::panic::AssertUnwindSafe;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Instant;

/// Log target for session lifecycle events.
const LOG_TARGET: &str = "gcx_service::session";

/// Default engine step budget per scheduler slice (frame executions; see
/// [`SessionConfig::step_budget`]).
pub const DEFAULT_STEP_BUDGET: u32 = 4096;

/// Session tuning knobs.
#[derive(Clone)]
pub struct SessionConfig {
    /// Maximum bytes of fed-but-unconsumed input queued per session;
    /// `feed` blocks (backpressure) once the queue is full. A single
    /// chunk larger than the bound is admitted alone rather than
    /// deadlocking.
    pub input_queue_bytes: usize,
    /// Engine strategy (GC on by default), including the lexer options
    /// for the input stream (`engine.lexer`).
    pub engine: EngineOptions,
    /// Optional global budget shared with sibling sessions; `feed` fails
    /// with [`ServiceError::BudgetExceeded`] instead of queueing past it.
    pub budget: Option<Arc<MemoryBudget>>,
    /// Charge the engine buffer (nodes + text-arena payload) against
    /// `budget` as *hard* reservations: a document needing more buffer
    /// than the budget allows fails its own session with a clean error
    /// instead of growing without bound. Off by default — the I/O-queue
    /// budget semantics (backpressure, not failure) are unchanged.
    pub charge_engine_buffer: bool,
    /// Optional shared mirror of the session's live buffer footprint,
    /// published by the evaluator after every footprint change so
    /// observability planes (`/stats`) can sample it mid-stream.
    pub live_stats: Option<Arc<LiveBufferStats>>,
    /// Output-side high-water mark: once this many produced-but-undrained
    /// output bytes are pending, the engine's output gate closes and the
    /// session *parks* at the next step boundary until the caller drains
    /// — backpressure that suspends the engine at the consumer's pace
    /// instead of buffering its result. A slice already running can
    /// overshoot the mark by at most one step budget's worth of output.
    pub output_high_water: usize,
    /// Output-side hard cap: a push that would leave more than this many
    /// undrained bytes fails the session cleanly (error message contains
    /// [`crate::OUTPUT_CAP_ERROR`]). The gate parks at `output_high_water`
    /// *between* steps, so the cap is the in-slice overshoot backstop:
    /// set it below the high-water mark (or within one slice's output
    /// above it) to fail never-draining consumers instead of parking
    /// them. `usize::MAX` disables the cap.
    pub output_max_bytes: usize,
    /// Engine step budget (frame executions) per scheduler slice.
    /// Smaller slices tighten fairness and the output-overshoot bound;
    /// larger slices amortize scheduling overhead. Clamped to ≥ 1.
    pub step_budget: u32,
    /// Run the session on this shared scheduler instead of spawning a
    /// dedicated thread: the process thread count stays fixed no matter
    /// how many sessions are open, and parked sessions cost no thread at
    /// all. `None` keeps the one-thread-per-session behaviour.
    pub pool: Option<EvaluatorPool>,
    /// Called from the evaluator side whenever the session makes
    /// progress a parked caller could act on: input consumed after a
    /// caller was refused queue space, output produced into an empty
    /// output buffer, or the evaluator terminating.
    /// Drivers that park backpressured sessions (gcx-net's connection
    /// loop) hang their readiness wakeup here instead of sleep-polling.
    /// Must be cheap and must not call back into the session.
    pub progress_waker: Option<ProgressWaker>,
    /// Optional shared session lifecycle metrics (queue wait, run time,
    /// outcome counters); one instance is typically shared by every
    /// session a server opens. Recording is wait-free — a handful of
    /// relaxed atomic ops per session.
    pub metrics: Option<Arc<SessionMetrics>>,
    /// Optional shared per-stage engine timing, installed into the
    /// session's engine ([`gcx_core::GcxEngine::set_stage_metrics`]).
    /// Sampled every [`SessionConfig::stage_sample_every`] pump steps.
    pub stage_metrics: Option<Arc<EngineStageMetrics>>,
    /// Sampling interval for `stage_metrics` (clamped to ≥ 1); ignored
    /// when `stage_metrics` is `None`.
    pub stage_sample_every: u32,
    /// Human-readable session label (e.g. the query name) used in error
    /// logs — most importantly the evaluator-panic report.
    pub label: Option<String>,
    /// Optional request-scoped flight recorder, installed into the
    /// session's engine ([`gcx_core::GcxEngine::set_flight_recorder`])
    /// together with `trace_id`: stage spans, emit spans, yield spans
    /// and buffer events for this session are recorded under that trace
    /// ID.
    pub flight_recorder: Option<Arc<gcx_obs::FlightRecorder>>,
    /// Trace ID for `flight_recorder` (0 = no trace; spans are dropped).
    pub trace_id: u64,
}

/// Shared wakeup hook for session progress; see
/// [`SessionConfig::progress_waker`].
pub type ProgressWaker = Arc<dyn Fn() + Send + Sync>;

impl Default for SessionConfig {
    fn default() -> Self {
        SessionConfig {
            input_queue_bytes: 256 * 1024,
            engine: EngineOptions::default(),
            budget: None,
            charge_engine_buffer: false,
            live_stats: None,
            output_high_water: 4 * 1024 * 1024,
            output_max_bytes: usize::MAX,
            step_budget: DEFAULT_STEP_BUDGET,
            pool: None,
            progress_waker: None,
            metrics: None,
            stage_metrics: None,
            stage_sample_every: gcx_core::DEFAULT_STAGE_SAMPLE_EVERY,
            label: None,
            flight_recorder: None,
            trace_id: 0,
        }
    }
}

/// Everything a finished session hands back.
#[derive(Debug, Clone)]
pub struct SessionOutcome {
    /// Output bytes not yet drained by earlier `feed`/`drain` calls.
    pub output: Vec<u8>,
    /// The engine's run report: per-session [`gcx_buffer::BufferStats`],
    /// timing, token counts, role accounting.
    pub report: RunReport,
}

struct State {
    /// Fed chunks not yet consumed by the evaluator; the front chunk may
    /// be partially consumed (`head_offset` bytes already read).
    input: VecDeque<Vec<u8>>,
    head_offset: usize,
    /// Total unconsumed input bytes (budget-accounted).
    input_bytes: usize,
    /// No more input will arrive (`finish` called).
    closed: bool,
    /// Abort requested.
    cancelled: bool,
    /// The session's first slice has run (as opposed to still sitting in
    /// the scheduler's ready queue). Used for queue-wait metrics and to
    /// attribute cancellations of never-started sessions.
    started: bool,
    /// A caller was refused input space (`try_feed` returned `false`, or
    /// `feed` is about to wait): the evaluator's next read that frees
    /// queue space wakes it. Reads wake nobody otherwise.
    space_wanted: bool,
    /// Engine output not yet handed to the caller (budget-accounted).
    output: Vec<u8>,
    /// Set exactly once when the evaluator ends.
    done: Option<Result<RunReport, String>>,
}

struct Shared {
    state: Mutex<State>,
    /// Signaled when input arrives or the session closes/cancels (a
    /// dedicated evaluator thread parked on need-input re-checks).
    data_available: Condvar,
    /// Signaled when the evaluator consumes input a waiting caller
    /// wanted space for, produces output into an empty buffer, or
    /// terminates — anything a caller blocked in `feed` can act on.
    space_available: Condvar,
    /// Signaled when the caller drains output (a dedicated evaluator
    /// thread parked on output backpressure re-checks the mark).
    output_drained: Condvar,
    /// See [`SessionConfig::output_high_water`].
    output_high_water: usize,
    /// See [`SessionConfig::output_max_bytes`].
    output_max_bytes: usize,
    /// External wakeup for parked drivers (see
    /// [`SessionConfig::progress_waker`]).
    progress_waker: Option<ProgressWaker>,
}

impl Shared {
    fn lock(&self) -> MutexGuard<'_, State> {
        // A poisoned mutex means an evaluator slice panicked mid-update;
        // the session is already being failed, so keep serving the
        // caller rather than propagating the panic.
        self.state.lock().unwrap_or_else(|p| p.into_inner())
    }

    fn set_done(&self, result: Result<RunReport, String>) {
        let mut st = self.lock();
        if st.done.is_none() {
            st.done = Some(result);
        }
        self.data_available.notify_all();
        self.space_available.notify_all();
        self.output_drained.notify_all();
        drop(st);
        self.wake_progress();
    }

    /// Takes the undrained output, returning its bytes to the budget and
    /// waking an evaluator parked on the output high-water mark.
    fn take_output(&self, st: &mut State, budget: &Option<Arc<MemoryBudget>>) -> Vec<u8> {
        let mut out = Vec::new();
        self.take_output_into(st, budget, &mut out);
        out
    }

    /// [`Self::take_output`] into `dst`: swaps buffers when `dst` is
    /// empty (the session keeps `dst`'s capacity for its next output, so
    /// a driver that drains into one reused buffer allocates nothing),
    /// appends otherwise. Returns the number of bytes moved.
    fn take_output_into(
        &self,
        st: &mut State,
        budget: &Option<Arc<MemoryBudget>>,
        dst: &mut Vec<u8>,
    ) -> usize {
        let n = st.output.len();
        if n == 0 {
            return 0;
        }
        if dst.is_empty() {
            std::mem::swap(dst, &mut st.output);
        } else {
            dst.extend_from_slice(&st.output);
            st.output.clear();
        }
        if let Some(b) = budget {
            b.release(n);
        }
        self.output_drained.notify_all();
        n
    }

    /// Discards undrained output and queued input, returning their bytes
    /// to the budget (cancellation path; idempotent — both helpers zero
    /// the state they account for).
    fn reclaim(&self, st: &mut State, budget: &Option<Arc<MemoryBudget>>) {
        let _ = self.take_output(st, budget);
        StreamSession::release_input(st, budget);
    }

    /// Notifies an external parked driver, if one registered. Called
    /// outside the state lock (the waker may take its own locks).
    fn wake_progress(&self) {
        if let Some(w) = &self.progress_waker {
            w();
        }
    }
}

/// Best-effort text of a caught panic payload.
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    payload
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("non-string panic payload")
}

/// The evaluator-side `Read`: pops fed chunks, **never blocking** — an
/// empty queue surfaces as `WouldBlock`, which the lexer's non-blocking
/// contract turns into [`StepOutcome::NeedInput`] (the session parks
/// until `feed`/`close_input` wakes it).
struct ChunkReader {
    shared: Arc<Shared>,
    budget: Option<Arc<MemoryBudget>>,
}

impl Read for ChunkReader {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if buf.is_empty() {
            return Ok(0);
        }
        let mut st = self.shared.lock();
        if st.cancelled {
            return Err(io::Error::other("session cancelled"));
        }
        if let Some(chunk) = st.input.front() {
            let chunk_len = chunk.len();
            let avail = &chunk[st.head_offset..];
            let n = avail.len().min(buf.len());
            buf[..n].copy_from_slice(&avail[..n]);
            st.head_offset += n;
            if st.head_offset == chunk_len {
                st.input.pop_front();
                st.head_offset = 0;
            }
            st.input_bytes -= n;
            if let Some(b) = &self.budget {
                b.release(n);
            }
            // Queue space freed: a caller refused space can re-offer its
            // pending chunk. Wake only such a caller (an edge), not one
            // per read.
            if std::mem::take(&mut st.space_wanted) {
                self.shared.space_available.notify_all();
                drop(st);
                self.shared.wake_progress();
            }
            return Ok(n);
        }
        if st.closed {
            return Ok(0);
        }
        Err(io::ErrorKind::WouldBlock.into())
    }
}

/// The evaluator-side `Write`: hands engine output to the shared output
/// buffer once per slice, so callers see results incrementally without
/// paying a lock and a wakeup per tag.
///
/// Writes are staged in a local buffer and pushed (one lock) in three
/// cases:
///
/// 1. at the **first tag boundary of each slice** — the first time the
///    staged bytes end with `>` (which escaped character data never
///    does) after a `flush` — so a slice's first result is visible at
///    once instead of after the rest of the slice (time to first byte);
/// 2. whenever [`STAGE_FLUSH_BYTES`] are staged, bounding what a slice
///    holds back;
/// 3. on `flush`, which [`GcxEngine::step`] calls at the end of every
///    slice: everything a slice emitted is published when it returns.
///
/// A push wakes waiters (`space_available`, the progress waker) only
/// when the shared output was empty before it; see the module docs.
///
/// The writer never parks: output backpressure is the engine's output
/// *gate* (checked between steps), not a blocking write. A push only
/// fails on cancellation or on the [`SessionConfig::output_max_bytes`]
/// hard cap.
struct SessionWriter {
    shared: Arc<Shared>,
    budget: Option<Arc<MemoryBudget>>,
    /// Locally staged bytes not yet pushed to the shared buffer.
    staged: Vec<u8>,
    /// No push yet in the current slice: the next tag boundary publishes
    /// (case 1 above). Re-armed by every `flush`.
    eager: bool,
}

/// Push even mid-slice (or mid-tag) once this much is staged: a large
/// slice or a single enormous text node must not sit invisible in the
/// stage.
const STAGE_FLUSH_BYTES: usize = 8 * 1024;

impl SessionWriter {
    /// Pushes staged bytes to the shared output buffer, enforcing the
    /// hard cap (the high-water mark is enforced by the engine's output
    /// gate between steps, never here).
    fn push_staged(&mut self) -> io::Result<()> {
        if self.staged.is_empty() {
            return Ok(());
        }
        let mut st = self.shared.lock();
        if st.cancelled {
            return Err(io::Error::other("session cancelled"));
        }
        let backlog = st.output.len();
        if backlog.saturating_add(self.staged.len()) > self.shared.output_max_bytes {
            return Err(io::Error::other(format!(
                "{}: {} B undrained + {} B staged exceed the {} B cap \
                 (client not draining)",
                crate::OUTPUT_CAP_ERROR,
                backlog,
                self.staged.len(),
                self.shared.output_max_bytes,
            )));
        }
        let was_empty = backlog == 0;
        st.output.extend_from_slice(&self.staged);
        if let Some(b) = &self.budget {
            // Soft accounting: an engine mid-emit cannot fail cleanly, so
            // output may transiently overshoot until the caller drains.
            b.force_reserve(self.staged.len());
        }
        self.staged.clear();
        self.eager = false;
        if !was_empty {
            // Whoever left the earlier output pending holds a wakeup
            // for it already; `feed` waiters re-check `output`.
            return Ok(());
        }
        // Fresh output can also unblock a caller waiting for queue space
        // in `feed`: it wakes, drains, the gate reopens, the evaluator
        // consumes input (the amplifying-query case: gate closed while
        // the input queue is full).
        self.shared.space_available.notify_all();
        drop(st);
        // Fresh output: a parked driver can drain it.
        self.shared.wake_progress();
        Ok(())
    }
}

impl Write for SessionWriter {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.staged.extend_from_slice(buf);
        if (self.eager && self.staged.last() == Some(&b'>'))
            || self.staged.len() >= STAGE_FLUSH_BYTES
        {
            self.push_staged()?;
        }
        Ok(buf.len())
    }

    /// Slice end: publish everything staged and re-arm the eager first
    /// tag for the next slice.
    fn flush(&mut self) -> io::Result<()> {
        self.push_staged()?;
        self.eager = true;
        Ok(())
    }
}

impl Drop for SessionWriter {
    fn drop(&mut self) {
        // An engine that errors out mid-emit never flushes; hand over
        // whatever was staged so diagnostics see the partial output. A
        // cap/cancel error here is already being reported elsewhere.
        let _ = self.push_staged();
    }
}

/// Owns a [`GcxEngine`] together with the tag interner and compiled
/// query it borrows, making the bundle movable across scheduler worker
/// threads.
///
/// The engine's lifetimes (`&'q CompiledQuery`, `&'t mut TagInterner`)
/// normally pin it to a stack frame; a scheduler needs the suspended
/// engine to live in a heap task instead. Both borrows point into
/// heap allocations owned by this same struct — stable addresses for
/// as long as the struct lives — so erasing them to `'static` is sound
/// under this struct's invariants:
///
/// - `_compiled` keeps the `CompiledQuery` allocation alive (and
///   `Arc` contents never move);
/// - `tags` is a `Box` leaked to a raw pointer (never moved, freed only
///   in `Drop` *after* the engine is gone);
/// - the engine is dropped first (explicitly, in `Drop`), so neither
///   borrow ever dangles;
/// - the engine holds the *only* reference to the interner, so the
///   `&mut` stays exclusive.
struct EngineTask {
    /// `Some` until dropped; `Option` only so `Drop` can order the
    /// engine's death before freeing `tags`.
    engine: Option<GcxEngine<'static, 'static, ChunkReader, SessionWriter>>,
    tags: *mut TagInterner,
    _compiled: Arc<CompiledQuery>,
}

// SAFETY: the raw `tags` pointer suppresses auto-Send, but it is just
// an owned `Box` in disguise (exclusively reachable through the engine,
// freed once in `Drop`); every other field is `Send`. The engine itself
// (reader, writer, gate, tracer hooks) is `Send` by bound.
unsafe impl Send for EngineTask {}

impl EngineTask {
    fn new(
        compiled: Arc<CompiledQuery>,
        tags: TagInterner,
        reader: ChunkReader,
        writer: SessionWriter,
        options: EngineOptions,
    ) -> Self {
        let tags = Box::into_raw(Box::new(tags));
        // SAFETY: see the struct docs — both targets are heap-stable and
        // outlive the engine because this struct drops the engine first.
        let compiled_ref: &'static CompiledQuery = unsafe { &*Arc::as_ptr(&compiled) };
        let tags_ref: &'static mut TagInterner = unsafe { &mut *tags };
        let engine = GcxEngine::new(compiled_ref, tags_ref, reader, writer, options);
        EngineTask {
            engine: Some(engine),
            tags,
            _compiled: compiled,
        }
    }

    fn engine_mut(&mut self) -> &mut GcxEngine<'static, 'static, ChunkReader, SessionWriter> {
        self.engine.as_mut().expect("engine present until drop")
    }

    fn step(&mut self, budget: u32) -> StepOutcome {
        self.engine_mut().step(budget)
    }
}

impl Drop for EngineTask {
    fn drop(&mut self) {
        // Order matters: the engine borrows `tags`, so it dies first.
        self.engine = None;
        // SAFETY: created by `Box::into_raw` in `new`, freed exactly
        // once, and nothing references the interner anymore.
        unsafe { drop(Box::from_raw(self.tags)) };
    }
}

/// The schedulable session task: one engine step per slice, shared by
/// pooled mode (as a [`PoolTask`]) and dedicated-thread mode (driven by
/// [`dedicated_loop`]).
struct EvalTask {
    shared: Arc<Shared>,
    budget: Option<Arc<MemoryBudget>>,
    /// `Some` while the engine is alive; consumed on completion, error,
    /// panic or cancellation (dropping the engine flushes its writer).
    /// The scheduler guarantees at most one slice runs at a time, so
    /// this mutex is uncontended — it exists to make the task `Sync`.
    engine: Mutex<Option<EngineTask>>,
    step_budget: u32,
    metrics: Option<Arc<SessionMetrics>>,
    /// For panic accounting ([`EvaluatorPool::note_panic`]) only.
    pool: Option<EvaluatorPool>,
    label: Option<String>,
    flight: Option<Arc<gcx_obs::FlightRecorder>>,
    trace_id: u64,
    created: Instant,
    run_started: Mutex<Option<Instant>>,
}

impl EvalTask {
    /// Records final metrics, logs, publishes the result and (if the
    /// session was cancelled meanwhile) reclaims its accounting. The
    /// engine must already be dropped — its writer's final flush has to
    /// land in `output` before `done` is set.
    fn finish_with(&self, result: Result<RunReport, String>) {
        if let Some(m) = &self.metrics {
            if let Some(start) = *self.run_started.lock().unwrap_or_else(|p| p.into_inner()) {
                m.run.record(start.elapsed());
            }
            m.total.record(self.created.elapsed());
            match &result {
                Ok(_) => m.completed.inc(),
                Err(_) => m.failed.inc(),
            }
        }
        if let Err(msg) = &result {
            // Per-client failures (malformed streams, budget/cap trips)
            // are expected under hostile input: info, not warn, so a
            // default-level server stays quiet.
            log_info!(LOG_TARGET, "session failed: {msg}");
        }
        self.shared.set_done(result);
        let mut st = self.shared.lock();
        if st.cancelled {
            // The caller cancelled without waiting (or raced us): the
            // reclamation duty is ours. Idempotent otherwise.
            self.shared.reclaim(&mut st, &self.budget);
        }
    }
}

impl PoolTask for EvalTask {
    fn run_slice(&self) -> Slice {
        let mut slot = self.engine.lock().unwrap_or_else(|p| p.into_inner());
        let Some(engine) = slot.as_mut() else {
            return Slice::Done; // already retired
        };
        let mut first = false;
        {
            let mut st = self.shared.lock();
            if st.cancelled {
                if !st.started {
                    if let Some(m) = &self.metrics {
                        m.cancelled_queued.inc();
                    }
                }
                self.shared.reclaim(&mut st, &self.budget);
                drop(st);
                // Dropping the engine flushes its writer, which fails on
                // the cancelled flag — nothing re-charges the budget.
                *slot = None;
                self.shared.set_done(Err("session cancelled".to_string()));
                return Slice::Done;
            }
            if !st.started {
                st.started = true;
                first = true;
            }
        }
        if first {
            if let Some(m) = &self.metrics {
                m.queue_wait.record(self.created.elapsed());
                m.started.inc();
            }
            if let Some(rec) = &self.flight {
                // Queue-wait span: session creation → first slice.
                let dur_ns = self.created.elapsed().as_nanos() as u64;
                let start = rec.now_ns().saturating_sub(dur_ns);
                rec.record_span(
                    self.trace_id,
                    gcx_obs::SpanKind::QueueWait,
                    start,
                    dur_ns,
                    0,
                );
            }
            *self.run_started.lock().unwrap_or_else(|p| p.into_inner()) = Some(Instant::now());
        }
        // A panicking engine must fail *this session*, not the scheduler
        // worker carrying it: catch the unwind and convert it into a
        // normal session error (the pool's own catch is only a backstop).
        let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
            if first && gcx_faults::fire("eval.panic") {
                panic!("injected evaluator panic (gcx-faults)");
            }
            engine.step(self.step_budget)
        }));
        match outcome {
            Ok(StepOutcome::Yielded) => Slice::Again,
            Ok(StepOutcome::NeedInput) => Slice::Park(ParkReason::NeedInput),
            Ok(StepOutcome::OutputBackpressure) => Slice::Park(ParkReason::OutputBackpressure),
            Ok(StepOutcome::Finished(report)) => {
                *slot = None; // final writer flush lands before `done`
                self.finish_with(Ok(report));
                Slice::Done
            }
            Ok(StepOutcome::Err(e)) => {
                let msg = e.to_string();
                *slot = None;
                self.finish_with(Err(msg));
                Slice::Done
            }
            Err(payload) => {
                let msg = panic_message(payload.as_ref()).to_string();
                *slot = None;
                if let Some(p) = &self.pool {
                    p.note_panic();
                }
                log_error!(
                    LOG_TARGET,
                    "evaluator panicked (session {}): {msg}",
                    self.label.as_deref().unwrap_or("unlabeled")
                );
                self.finish_with(Err(format!("evaluator panicked: {msg}")));
                Slice::Done
            }
        }
    }
}

/// Dedicated-thread driver: the same slice loop the scheduler runs, with
/// the session's condvars standing in for park/wake.
fn dedicated_loop(task: EvalTask, shared: Arc<Shared>) {
    loop {
        match task.run_slice() {
            Slice::Again => continue,
            Slice::Done => return,
            Slice::Park(ParkReason::NeedInput) => {
                let mut st = shared.lock();
                while st.input.is_empty() && !st.closed && !st.cancelled {
                    st = shared
                        .data_available
                        .wait(st)
                        .unwrap_or_else(|p| p.into_inner());
                }
            }
            Slice::Park(ParkReason::OutputBackpressure) => {
                let mut st = shared.lock();
                while st.output.len() >= shared.output_high_water && !st.cancelled {
                    st = shared
                        .output_drained
                        .wait(st)
                        .unwrap_or_else(|p| p.into_inner());
                }
            }
        }
    }
}

/// How the session's task is driven.
enum Evaluator {
    /// One thread per session, parked on the session condvars.
    Dedicated(Option<JoinHandle<()>>),
    /// A task on the shared [`EvaluatorPool`] scheduler; the handle
    /// re-enqueues it after a park.
    Pooled(TaskHandle),
}

/// A push-driven evaluation of one compiled query over one input stream.
/// See the module docs for the control-flow picture.
pub struct StreamSession {
    shared: Arc<Shared>,
    cancel: CancelFlag,
    evaluator: Evaluator,
    input_queue_bytes: usize,
    budget: Option<Arc<MemoryBudget>>,
    /// The session has been finished/cancelled and its resources
    /// reclaimed; `Drop` has nothing left to do.
    terminated: bool,
}

impl StreamSession {
    /// Builds the session task for `compiled` over a fresh chunk queue
    /// and hands it to the shared [`EvaluatorPool`] scheduler when
    /// `config.pool` is set (fixed process thread count; a parked
    /// session costs no thread), or to a dedicated thread otherwise.
    /// `tags` must be (a snapshot/overlay of) the interner the query was
    /// compiled against — [`crate::QueryService`] hands out matching
    /// overlays; tags the document adds on top stay session-local.
    pub fn new(compiled: Arc<CompiledQuery>, tags: TagInterner, config: SessionConfig) -> Self {
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                input: VecDeque::new(),
                head_offset: 0,
                input_bytes: 0,
                closed: false,
                cancelled: false,
                started: false,
                space_wanted: false,
                output: Vec::new(),
                done: None,
            }),
            data_available: Condvar::new(),
            space_available: Condvar::new(),
            output_drained: Condvar::new(),
            output_high_water: config.output_high_water.max(STAGE_FLUSH_BYTES),
            output_max_bytes: config.output_max_bytes.max(STAGE_FLUSH_BYTES),
            progress_waker: config.progress_waker.clone(),
        });
        let cancel = CancelFlag::new();
        let budget = config.budget.clone();
        let reader = ChunkReader {
            shared: shared.clone(),
            budget: budget.clone(),
        };
        let writer = SessionWriter {
            shared: shared.clone(),
            budget: budget.clone(),
            staged: Vec::new(),
            eager: true,
        };
        let mut engine = EngineTask::new(compiled, tags, reader, writer, config.engine);
        {
            let e = engine.engine_mut();
            e.set_cancel_flag(cancel.clone());
            if let Some(live) = config.live_stats.clone() {
                e.set_live_stats(live);
            }
            if let Some(sm) = config.stage_metrics.clone() {
                e.set_stage_metrics(sm, config.stage_sample_every);
            }
            if let Some(rec) = config.flight_recorder.clone() {
                e.set_flight_recorder(rec, config.trace_id);
            }
            if config.charge_engine_buffer {
                if let Some(b) = &budget {
                    e.set_buffer_accounting(b.clone());
                }
            }
            // The output gate implements the high-water backpressure:
            // checked between steps, it parks the session instead of
            // blocking a write. Cancellation opens the gate so the next
            // slice runs straight into the reader/writer cancel error
            // and terminates promptly.
            let gate_shared = shared.clone();
            e.set_output_gate(Box::new(move || {
                let st = gate_shared.lock();
                st.cancelled || st.output.len() < gate_shared.output_high_water
            }));
        }
        let task = EvalTask {
            shared: shared.clone(),
            budget: budget.clone(),
            engine: Mutex::new(Some(engine)),
            step_budget: config.step_budget.max(1),
            metrics: config.metrics.clone(),
            pool: config.pool.clone(),
            label: config.label.clone(),
            flight: config.flight_recorder.clone(),
            trace_id: config.trace_id,
            created: Instant::now(),
            run_started: Mutex::new(None),
        };
        let evaluator = match &config.pool {
            Some(pool) => Evaluator::Pooled(pool.spawn_task(Box::new(task))),
            None => {
                let shared = shared.clone();
                let handle = std::thread::Builder::new()
                    .name("gcx-session".to_string())
                    .spawn(move || {
                        let shared2 = shared;
                        dedicated_loop(task, shared2)
                    })
                    .expect("spawn session evaluator thread");
                Evaluator::Dedicated(Some(handle))
            }
        };
        StreamSession {
            shared,
            cancel,
            evaluator,
            input_queue_bytes: config.input_queue_bytes,
            budget,
            terminated: false,
        }
    }

    /// Re-schedules a parked pooled task. Dedicated threads wake through
    /// the session condvars, notified at every mutation site. Must be
    /// called **outside** the state lock: after pool shutdown a wake
    /// runs the task inline, and the task takes that lock.
    fn wake_evaluator(&self) {
        if let Evaluator::Pooled(handle) = &self.evaluator {
            handle.wake();
        }
    }

    /// Pushes one input chunk and returns every output byte produced so
    /// far. Blocks while the input queue is full (backpressure) —
    /// draining output meanwhile, since an amplifying query may be
    /// parked on *output* backpressure while the input queue is full.
    /// Chunks fed after the evaluator already completed are discarded,
    /// matching one-shot semantics (the pull engine never reads past the
    /// data it needs). Returns the session's error if evaluation has
    /// failed.
    pub fn feed(&mut self, chunk: &[u8]) -> Result<Vec<u8>, ServiceError> {
        let mut collected = Vec::new();
        let mut st = self.shared.lock();
        loop {
            if let Some(done) = &st.done {
                if let Err(msg) = done {
                    return Err(ServiceError::Session(msg.clone()));
                }
                break; // completed: drop the chunk, hand back output
            }
            if chunk.is_empty() {
                break;
            }
            // Admit when there is room — or the queue is empty (a single
            // oversized chunk must not deadlock).
            if st.input_bytes == 0 || st.input_bytes + chunk.len() <= self.input_queue_bytes {
                if let Some(b) = &self.budget {
                    if !b.try_reserve(chunk.len()) {
                        self.shared
                            .take_output_into(&mut st, &self.budget, &mut collected);
                        drop(st);
                        self.wake_evaluator();
                        return Err(ServiceError::BudgetExceeded {
                            requested: chunk.len(),
                            used: b.used(),
                            limit: b.limit(),
                            drained: collected,
                        });
                    }
                }
                st.input_bytes += chunk.len();
                st.input.push_back(chunk.to_vec());
                self.shared.data_available.notify_all();
                break;
            }
            // Queue full: drain whatever output is pending (reopening
            // the gate if the engine parked on it), wake the evaluator,
            // and wait for space. The predicate is re-checked under the
            // re-acquired lock, so a consume/push/done between the wake
            // and the wait cannot be lost: all three notify
            // `space_available` — a consume because `space_wanted` is
            // set, a push because the output is empty when we wait.
            self.shared
                .take_output_into(&mut st, &self.budget, &mut collected);
            drop(st);
            self.wake_evaluator();
            st = self.shared.lock();
            if st.done.is_some()
                || st.input_bytes == 0
                || st.input_bytes + chunk.len() <= self.input_queue_bytes
                || !st.output.is_empty()
            {
                continue;
            }
            st.space_wanted = true;
            st = self
                .shared
                .space_available
                .wait(st)
                .unwrap_or_else(|p| p.into_inner());
        }
        self.shared
            .take_output_into(&mut st, &self.budget, &mut collected);
        drop(st);
        self.wake_evaluator();
        Ok(collected)
    }

    /// As [`feed`](Self::feed), but treats a budget rejection as
    /// *backpressure*: the budget drains as sibling evaluators consume
    /// queued input and callers drain output, so this waits and retries
    /// until the chunk fits. A chunk that can **never** fit (larger than
    /// the entire budget) fails immediately instead of livelocking;
    /// callers who want bounded waits should size their chunks at or
    /// below the budget limit.
    pub fn feed_blocking(&mut self, chunk: &[u8]) -> Result<Vec<u8>, ServiceError> {
        let mut output = Vec::new();
        loop {
            match self.feed(chunk) {
                Ok(out) if output.is_empty() => return Ok(out),
                Ok(out) => {
                    output.extend_from_slice(&out);
                    return Ok(output);
                }
                Err(ServiceError::BudgetExceeded {
                    requested,
                    used,
                    limit,
                    drained,
                }) => {
                    output.extend_from_slice(&drained);
                    if requested > limit {
                        return Err(ServiceError::BudgetExceeded {
                            requested,
                            used,
                            limit,
                            drained: output,
                        });
                    }
                    std::thread::sleep(std::time::Duration::from_millis(1));
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Non-blocking [`feed`](Self::feed): never waits for queue space or
    /// the budget, and **leaves produced output in the session** — take
    /// it with [`drain_into`](Self::drain_into). `Ok(true)` means the
    /// chunk was admitted (or discarded because evaluation already
    /// completed — one-shot semantics, matching `feed`); `Ok(false)`
    /// means the input queue or budget is full and the chunk was **not**
    /// admitted: re-offer it once the progress waker reports freed space.
    /// This is the connection-loop shape of gcx-net, where a worker parks
    /// a backpressured session and serves other connections instead of
    /// blocking a thread on it. A driver whose own downstream is backed
    /// up (a client that stopped reading) keeps feeding but stops
    /// draining, so the session's output high-water/hard-cap machinery
    /// applies instead of the response piling up in the driver.
    pub fn try_feed(&mut self, chunk: &[u8]) -> Result<bool, ServiceError> {
        let admitted = {
            let mut st = self.shared.lock();
            if let Some(done) = &st.done {
                if let Err(msg) = done {
                    return Err(ServiceError::Session(msg.clone()));
                }
                true // completed: drop the chunk (one-shot semantics)
            } else if chunk.is_empty() {
                true
            } else if st.input_bytes != 0 && st.input_bytes + chunk.len() > self.input_queue_bytes {
                st.space_wanted = true;
                false
            } else {
                match &self.budget {
                    Some(b) if !b.try_reserve(chunk.len()) => {
                        if chunk.len() > b.limit() {
                            // Can never fit: retrying would livelock.
                            return Err(ServiceError::BudgetExceeded {
                                requested: chunk.len(),
                                used: b.used(),
                                limit: b.limit(),
                                drained: Vec::new(),
                            });
                        }
                        st.space_wanted = true;
                        false
                    }
                    _ => {
                        st.input_bytes += chunk.len();
                        st.input.push_back(chunk.to_vec());
                        self.shared.data_available.notify_all();
                        true
                    }
                }
            }
        };
        // Admitted input makes a parked session runnable again.
        self.wake_evaluator();
        Ok(admitted)
    }

    /// Takes the output produced so far without feeding anything.
    pub fn drain(&mut self) -> Vec<u8> {
        let mut out = Vec::new();
        self.drain_into(&mut out);
        out
    }

    /// As [`drain`](Self::drain), into a caller-owned buffer: an empty
    /// `dst` is swapped with the session's output buffer, a non-empty one
    /// is appended to. A driver that drains into one reused buffer (and
    /// empties it after each use) thus moves output without copying or
    /// allocating. Returns the number of bytes moved.
    pub fn drain_into(&mut self, dst: &mut Vec<u8>) -> usize {
        let n = {
            let mut st = self.shared.lock();
            self.shared.take_output_into(&mut st, &self.budget, dst)
        };
        if n > 0 {
            // The gate may have reopened.
            self.wake_evaluator();
        }
        n
    }

    /// True once the evaluator has terminated (successfully or not).
    pub fn is_finished(&self) -> bool {
        self.shared.lock().done.is_some()
    }

    /// Signals end of input without waiting for the evaluator (the
    /// non-blocking half of [`finish`](Self::finish)); poll
    /// [`is_finished`](Self::is_finished) / [`take_outcome`](Self::take_outcome)
    /// afterwards. Idempotent.
    pub fn close_input(&mut self) {
        {
            let mut st = self.shared.lock();
            st.closed = true;
            self.shared.data_available.notify_all();
        }
        self.wake_evaluator();
    }

    /// Non-blocking completion poll: `None` while the evaluator is still
    /// running; once it has terminated, reclaims the session's queued
    /// bytes and returns the outcome exactly once. After `Some`, the
    /// session is spent — drop it.
    pub fn take_outcome(&mut self) -> Option<Result<SessionOutcome, ServiceError>> {
        let mut st = self.shared.lock();
        st.done.as_ref()?;
        let output = self.shared.take_output(&mut st, &self.budget);
        Self::release_input(&mut st, &self.budget);
        let done = st.done.take().expect("checked above");
        drop(st);
        self.reap_evaluator();
        self.terminated = true;
        Some(match done {
            Ok(report) => Ok(SessionOutcome { output, report }),
            Err(msg) => Err(ServiceError::Session(msg)),
        })
    }

    /// Signals end of input, waits for the evaluator to complete, and
    /// returns the remaining output together with the run report (which
    /// carries this session's `BufferStats`).
    pub fn finish(mut self) -> Result<SessionOutcome, ServiceError> {
        self.close_input();
        self.wait_done();
        self.take_outcome().unwrap_or_else(|| {
            Err(ServiceError::Session(
                "evaluator terminated without a result (bug)".to_string(),
            ))
        })
    }

    /// Aborts the session: cancels the engine cooperatively, wakes the
    /// task, and reclaims all budgeted bytes.
    pub fn cancel(mut self) {
        self.cancel_inner();
    }

    fn cancel_inner(&mut self) {
        self.cancel.cancel();
        {
            let mut st = self.shared.lock();
            st.cancelled = true;
            st.closed = true;
            self.shared.data_available.notify_all();
            self.shared.space_available.notify_all();
            self.shared.output_drained.notify_all();
        }
        // Waiting for `done` is bounded in every mode now that slices
        // are bounded: a parked or queued task's next slice observes
        // `cancelled` and retires immediately; after pool shutdown the
        // wake below runs that slice inline on this thread.
        self.wake_evaluator();
        self.wait_done();
        // The engine (and its writer) are gone — nothing can charge the
        // budget anymore. Reclaim whatever the task's own cancelled-path
        // reclaim did not cover (idempotent).
        {
            let mut st = self.shared.lock();
            self.shared.reclaim(&mut st, &self.budget);
        }
        self.reap_evaluator();
        self.terminated = true;
    }

    /// Blocks until the evaluator has set `done`.
    fn wait_done(&self) {
        let mut st = self.shared.lock();
        while st.done.is_none() {
            st = self
                .shared
                .space_available
                .wait(st)
                .unwrap_or_else(|p| p.into_inner());
        }
    }

    /// Joins the dedicated evaluator thread, if any (pool workers are
    /// never joined here — they outlive sessions by design).
    fn reap_evaluator(&mut self) {
        if let Evaluator::Dedicated(handle) = &mut self.evaluator {
            if let Some(handle) = handle.take() {
                // The loop exits once the task retires (`done` is set).
                let _ = handle.join();
            }
        }
    }

    fn release_input(st: &mut State, budget: &Option<Arc<MemoryBudget>>) {
        if let Some(b) = budget {
            b.release(st.input_bytes);
        }
        st.input.clear();
        st.head_offset = 0;
        st.input_bytes = 0;
    }
}

impl Drop for StreamSession {
    fn drop(&mut self) {
        if !self.terminated {
            self.cancel_inner();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcx_query::compile_default;

    fn compile(query: &str) -> (Arc<CompiledQuery>, TagInterner) {
        let mut tags = TagInterner::new();
        let compiled = compile_default(query, &mut tags).expect("compile");
        (Arc::new(compiled), tags)
    }

    const QUERY: &str = "<r>{ for $b in /bib/book return $b/title }</r>";
    const DOC: &str = "<bib><book><title>A</title></book><book><title>B</title></book></bib>";

    #[test]
    fn one_chunk_session_matches_one_shot() {
        let (compiled, tags) = compile(QUERY);
        let mut session = StreamSession::new(compiled, tags, SessionConfig::default());
        let mut out = session.feed(DOC.as_bytes()).unwrap();
        let outcome = session.finish().unwrap();
        out.extend_from_slice(&outcome.output);
        assert_eq!(
            String::from_utf8(out).unwrap(),
            "<r><title>A</title><title>B</title></r>"
        );
        assert_eq!(outcome.report.safety, Some(true));
        assert!(outcome.report.stats.peak_nodes > 0);
    }

    #[test]
    fn byte_at_a_time_feeding() {
        let (compiled, tags) = compile(QUERY);
        let mut session = StreamSession::new(compiled, tags, SessionConfig::default());
        let mut out = Vec::new();
        for b in DOC.as_bytes() {
            out.extend_from_slice(&session.feed(std::slice::from_ref(b)).unwrap());
        }
        let outcome = session.finish().unwrap();
        out.extend_from_slice(&outcome.output);
        assert_eq!(
            String::from_utf8(out).unwrap(),
            "<r><title>A</title><title>B</title></r>"
        );
    }

    #[test]
    fn output_arrives_incrementally() {
        // After the first book's subtree closes, its title is safely
        // emittable; the session must not sit on it until finish().
        let (compiled, tags) = compile(QUERY);
        let mut session = StreamSession::new(compiled, tags, SessionConfig::default());
        let early = "<bib><book><title>A</title></book>";
        let mut got = session.feed(early.as_bytes()).unwrap();
        // The evaluator runs asynchronously; poll briefly for the bytes.
        for _ in 0..200 {
            if String::from_utf8_lossy(&got).contains("<title>A</title>") {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
            got.extend_from_slice(&session.drain());
        }
        assert!(
            String::from_utf8_lossy(&got).contains("<title>A</title>"),
            "first result should be emitted before end of input, got {:?}",
            String::from_utf8_lossy(&got)
        );
        let rest = "<book><title>B</title></book></bib>";
        let mut out = got;
        out.extend_from_slice(&session.feed(rest.as_bytes()).unwrap());
        out.extend_from_slice(&session.finish().unwrap().output);
        assert_eq!(
            String::from_utf8(out).unwrap(),
            "<r><title>A</title><title>B</title></r>"
        );
    }

    #[test]
    fn malformed_stream_errors_cleanly() {
        let (compiled, tags) = compile(QUERY);
        let mut session = StreamSession::new(compiled, tags, SessionConfig::default());
        let _ = session.feed(b"<bib><book></bib>").unwrap();
        let err = session.finish().unwrap_err();
        assert!(matches!(err, ServiceError::Session(_)), "got {err}");
    }

    #[test]
    fn error_is_sticky_on_feed() {
        let (compiled, tags) = compile(QUERY);
        let mut session = StreamSession::new(compiled, tags, SessionConfig::default());
        let _ = session.feed(b"</nope>").unwrap();
        // Wait for the evaluator to hit the error.
        for _ in 0..200 {
            if session.is_finished() {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        assert!(session.feed(b"<more/>").is_err());
    }

    #[test]
    fn cancel_unblocks_and_reclaims_budget() {
        let budget = Arc::new(MemoryBudget::new(1 << 20));
        let (compiled, tags) = compile(QUERY);
        let config = SessionConfig {
            budget: Some(budget.clone()),
            ..Default::default()
        };
        let mut session = StreamSession::new(compiled, tags, config);
        let _ = session.feed(b"<bib><book>").unwrap();
        session.cancel();
        assert_eq!(budget.used(), 0, "all bytes returned to the budget");
    }

    #[test]
    fn drop_without_finish_does_not_hang() {
        let (compiled, tags) = compile(QUERY);
        let mut session = StreamSession::new(compiled, tags, SessionConfig::default());
        let _ = session.feed(b"<bib>").unwrap();
        drop(session); // must retire the task, not leak it parked
    }

    #[test]
    fn budget_exceeded_surfaces() {
        let budget = Arc::new(MemoryBudget::new(4));
        let (compiled, tags) = compile(QUERY);
        let config = SessionConfig {
            budget: Some(budget.clone()),
            ..Default::default()
        };
        let mut session = StreamSession::new(compiled, tags, config);
        let err = session.feed(b"<bib><book><title>A</title>").unwrap_err();
        assert!(matches!(err, ServiceError::BudgetExceeded { .. }), "{err}");
    }

    #[test]
    fn pooled_sessions_complete_on_a_single_shared_thread() {
        let pool = EvaluatorPool::new(1);
        let (compiled, tags) = compile(QUERY);
        let config = SessionConfig {
            pool: Some(pool.clone()),
            ..Default::default()
        };
        // More sessions than pool threads: all must complete correctly,
        // multiplexed over one worker, with no per-session thread.
        let mut sessions: Vec<StreamSession> = (0..3)
            .map(|_| StreamSession::new(compiled.clone(), tags.clone(), config.clone()))
            .collect();
        let mut outputs: Vec<Vec<u8>> = Vec::new();
        for s in &mut sessions {
            outputs.push(s.feed(DOC.as_bytes()).unwrap());
        }
        for (s, mut out) in sessions.into_iter().zip(outputs) {
            out.extend_from_slice(&s.finish().unwrap().output);
            assert_eq!(
                String::from_utf8(out).unwrap(),
                "<r><title>A</title><title>B</title></r>"
            );
        }
        pool.shutdown();
    }

    #[test]
    fn parked_session_does_not_hold_a_worker() {
        // Under the old blocking pool this deadlocked: session A's job
        // occupied the only worker (parked inside evaluation waiting for
        // input) and B's job never ran. With the step scheduler, A
        // *parks* — leaves the worker — and B completes immediately.
        let pool = EvaluatorPool::new(1);
        let (compiled, tags) = compile(QUERY);
        let config = SessionConfig {
            pool: Some(pool.clone()),
            ..Default::default()
        };
        let mut a = StreamSession::new(compiled.clone(), tags.clone(), config.clone());
        let _ = a.feed(b"<bib><book>").unwrap();
        let mut b = StreamSession::new(compiled, tags, config);
        let mut out_b = b.feed(DOC.as_bytes()).unwrap();
        out_b.extend_from_slice(&b.finish().unwrap().output);
        assert_eq!(
            String::from_utf8(out_b).unwrap(),
            "<r><title>A</title><title>B</title></r>"
        );
        // A is still healthy and completes too.
        let mut out_a = a.feed(b"<title>A</title></book></bib>").unwrap();
        out_a.extend_from_slice(&a.finish().unwrap().output);
        assert_eq!(String::from_utf8(out_a).unwrap(), "<r><title>A</title></r>");
        pool.shutdown();
    }

    #[test]
    fn try_feed_reports_busy_when_backpressured_and_recovers() {
        // Identity-ish query: output ≈ input, so an undrained consumer
        // closes the output gate quickly; the engine parks, the tiny
        // input queue fills, and try_feed refuses chunks without blocking.
        let (compiled, tags) = compile("<r>{ for $b in /bib/book return $b }</r>");
        let config = SessionConfig {
            input_queue_bytes: 64,
            output_high_water: 8 * 1024, // clamped to STAGE_FLUSH_BYTES
            ..Default::default()
        };
        let mut session = StreamSession::new(compiled, tags, config);
        let mut doc = String::from("<bib>");
        let mut body = String::new();
        for i in 0..1000 {
            let book = format!("<book><title>Padding title {i}</title></book>");
            body.push_str(&book);
            doc.push_str(&book);
        }
        doc.push_str("</bib>");
        let expected = format!("<r>{body}</r>");
        let mut chunks = doc.as_bytes().chunks(32);
        let mut saw_busy = false;
        let mut pending: Option<&[u8]> = None;
        // Phase 1: feed without draining until the session pushes back.
        for chunk in chunks.by_ref() {
            if !session.try_feed(chunk).unwrap() {
                saw_busy = true;
                pending = Some(chunk);
                break;
            }
        }
        assert!(saw_busy, "gate closed + full queue must report Busy");
        // Phase 2: drain-and-re-offer until everything is through.
        let mut out = Vec::new();
        let offer = |session: &mut StreamSession, chunk: &[u8], out: &mut Vec<u8>| loop {
            let admitted = session.try_feed(chunk).unwrap();
            session.drain_into(out);
            if admitted {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        };
        if let Some(chunk) = pending {
            offer(&mut session, chunk, &mut out);
        }
        for chunk in chunks {
            offer(&mut session, chunk, &mut out);
        }
        out.extend_from_slice(&session.finish().unwrap().output);
        assert_eq!(String::from_utf8(out).unwrap(), expected);
    }

    #[test]
    fn dropping_parked_pooled_session_does_not_block() {
        let budget = Arc::new(MemoryBudget::new(1 << 20));
        let pool = EvaluatorPool::new(1);
        let (compiled, tags) = compile(QUERY);
        let config = SessionConfig {
            pool: Some(pool.clone()),
            budget: Some(budget.clone()),
            ..Default::default()
        };
        // Two mid-stream sessions share the single worker; both are
        // parked on need-input. Dropping B must cancel it promptly (its
        // next slice observes the flag) — never wait on A.
        let mut a = StreamSession::new(compiled.clone(), tags.clone(), config.clone());
        let _ = a.feed(b"<bib><book>").unwrap();
        let mut b = StreamSession::new(compiled, tags, config);
        let _ = b.feed(b"<bib><book><title>x</title>").unwrap();
        let start = std::time::Instant::now();
        drop(b);
        assert!(
            start.elapsed() < std::time::Duration::from_millis(500),
            "dropping a parked session must be prompt"
        );
        // A is unaffected (it still holds budgeted bytes of its own, so
        // the balance check comes after it finishes).
        let _ = a.feed(b"<title>A</title></book></bib>").unwrap();
        a.finish().unwrap();
        pool.shutdown();
        assert_eq!(budget.used(), 0, "all sessions' bytes reclaimed");
    }

    #[test]
    fn live_stats_visible_mid_stream() {
        let live = Arc::new(LiveBufferStats::default());
        let (compiled, tags) = compile(QUERY);
        let config = SessionConfig {
            live_stats: Some(live.clone()),
            ..Default::default()
        };
        let mut session = StreamSession::new(compiled, tags, config);
        // Feed an unfinished document: the session is still running, yet
        // the live mirror must already show buffered nodes.
        let _ = session.feed(b"<bib><book><title>A</title>").unwrap();
        let mut created = 0;
        for _ in 0..500 {
            created = live
                .nodes_created
                .load(std::sync::atomic::Ordering::Relaxed);
            if created > 0 {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        assert!(created > 0, "mid-stream sampling sees buffered nodes");
        assert!(!session.is_finished(), "stream is still open");
        let _ = session.feed(b"</book></bib>").unwrap();
        let outcome = session.finish().unwrap();
        let (_, peak_nodes, ..) = live.snapshot();
        assert_eq!(
            peak_nodes, outcome.report.stats.peak_nodes,
            "final mirror agrees with the run report"
        );
    }

    #[test]
    fn engine_buffer_budget_fails_session_cleanly() {
        // A no-GC engine buffers every projected node; with the engine
        // buffer charged against a small budget the document must fail
        // its own session with a clean budget error — not grow unbounded.
        let budget = Arc::new(MemoryBudget::new(4 * 1024));
        let (compiled, tags) = compile(QUERY);
        let config = SessionConfig {
            budget: Some(budget.clone()),
            charge_engine_buffer: true,
            engine: gcx_core::EngineOptions {
                gc: false,
                ..Default::default()
            },
            ..Default::default()
        };
        let mut session = StreamSession::new(compiled, tags, config);
        let mut doc = String::from("<bib>");
        for i in 0..500 {
            doc.push_str(&format!("<book><title>Title number {i}</title></book>"));
        }
        doc.push_str("</bib>");
        let mut failed = None;
        for chunk in doc.as_bytes().chunks(256) {
            match session.feed_blocking(chunk) {
                Ok(_) => {}
                Err(e) => {
                    failed = Some(e);
                    break;
                }
            }
        }
        let err = match failed {
            Some(e) => {
                // Queued input stays charged until the session is torn
                // down; reclaim before checking the budget balance.
                drop(session);
                e
            }
            None => session.finish().expect_err("budget must trip"),
        };
        assert!(
            err.to_string().contains("memory budget exceeded"),
            "clean per-session budget error, got: {err}"
        );
        assert_eq!(budget.used(), 0, "I/O reservations reclaimed");
        assert_eq!(budget.engine_used(), 0, "engine reservations reclaimed");
    }

    #[test]
    fn output_cap_fails_never_draining_session() {
        // A consumer that never drains must not grow the session's
        // output without bound. With the hard cap *below* the high-water
        // mark, the gate never parks the engine first: the writer's push
        // trips the cap and fails the session with a clean, attributable
        // error.
        let (compiled, tags) = compile("<r>{ for $b in /bib/book return $b }</r>");
        let config = SessionConfig {
            output_high_water: 64 * 1024,
            output_max_bytes: 32 * 1024,
            ..Default::default()
        };
        let mut session = StreamSession::new(compiled, tags, config);
        let mut doc = String::from("<bib>");
        for i in 0..4000 {
            doc.push_str(&format!("<book><title>Padding title {i}</title></book>"));
        }
        doc.push_str("</bib>");
        // One oversized feed (admitted alone, drains nothing of note),
        // then never drain again: every `feed`/`drain` call empties the
        // output buffer, so the never-draining consumer is modeled by
        // simply not calling them while the evaluator produces ~170 KB
        // against a 32 KB cap.
        let _ = session.feed(doc.as_bytes()).expect("admitted alone");
        session.close_input();
        // Stop draining entirely; the evaluator must fail the session.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(20);
        let outcome = loop {
            if let Some(r) = session.take_outcome() {
                break r;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "session did not hit the output cap in time"
            );
            std::thread::sleep(std::time::Duration::from_millis(10));
        };
        let err = outcome.expect_err("never-draining session must fail");
        assert!(
            err.to_string().contains(crate::OUTPUT_CAP_ERROR),
            "got: {err}"
        );
    }

    #[test]
    fn output_gate_parks_never_draining_session_bounded() {
        // With the cap disabled, a never-draining consumer must *park*
        // the session at the high-water mark — bounded backlog, no
        // creeping growth (the old timed-park writer grew ~8 KB per
        // 20 ms park slice; the gate holds the line exactly).
        let budget = Arc::new(MemoryBudget::new(1 << 30));
        let (compiled, tags) = compile("<r>{ for $b in /bib/book return $b }</r>");
        let config = SessionConfig {
            budget: Some(budget.clone()),
            output_high_water: 16 * 1024,
            output_max_bytes: usize::MAX,
            step_budget: 64, // small slices: tight overshoot bound
            ..Default::default()
        };
        let mut session = StreamSession::new(compiled, tags, config);
        let mut doc = String::from("<bib>");
        for i in 0..2000 {
            doc.push_str(&format!("<book><title>Padding title {i}</title></book>"));
        }
        doc.push_str("</bib>");
        let _ = session.feed(doc.as_bytes()).expect("admitted alone");
        session.close_input();
        // Let the engine run into the gate and park.
        std::thread::sleep(std::time::Duration::from_millis(300));
        assert!(!session.is_finished(), "parked, not finished");
        let used_then = budget.used();
        assert!(used_then > 0, "undrained output is accounted");
        std::thread::sleep(std::time::Duration::from_millis(300));
        assert_eq!(
            budget.used(),
            used_then,
            "parked session must not keep producing (no timed creep)"
        );
        assert!(!session.is_finished());
        session.cancel();
        assert_eq!(budget.used(), 0, "cancel reclaims the backlog");
    }

    #[test]
    fn output_high_water_backpressures_but_draining_consumer_completes() {
        // A consumer that drains (slower than the engine) sees correct,
        // complete output — the high-water mark only paces the engine.
        let (compiled, tags) = compile(QUERY);
        let config = SessionConfig {
            output_high_water: 64, // absurdly small: park constantly
            output_max_bytes: usize::MAX,
            ..Default::default()
        };
        let mut session = StreamSession::new(compiled, tags, config);
        let mut out = Vec::new();
        for chunk in DOC.as_bytes().chunks(16) {
            out.extend_from_slice(&session.feed(chunk).unwrap());
        }
        out.extend_from_slice(&session.finish().unwrap().output);
        assert_eq!(
            String::from_utf8(out).unwrap(),
            "<r><title>A</title><title>B</title></r>"
        );
    }

    #[test]
    fn session_metrics_record_lifecycle_and_stages() {
        let metrics = Arc::new(SessionMetrics::new());
        let stage_metrics = Arc::new(EngineStageMetrics::new());
        let (compiled, tags) = compile(QUERY);
        let config = SessionConfig {
            metrics: Some(metrics.clone()),
            stage_metrics: Some(stage_metrics.clone()),
            stage_sample_every: 1, // time every pump step: deterministic
            ..Default::default()
        };
        let mut session = StreamSession::new(compiled, tags, config);
        let _ = session.feed(DOC.as_bytes()).unwrap();
        session.finish().unwrap();
        assert_eq!(metrics.started.get(), 1);
        assert_eq!(metrics.completed.get(), 1);
        assert_eq!(metrics.failed.get(), 0);
        assert_eq!(metrics.queue_wait.count(), 1);
        assert_eq!(metrics.run.count(), 1);
        assert_eq!(metrics.total.count(), 1);
        // total covers queue wait + run.
        let total = metrics.total.snapshot();
        let run = metrics.run.snapshot();
        assert!(total.sum_nanos >= run.sum_nanos);
        // The engine timed its stages through the same config.
        assert!(stage_metrics.lex.count() > 0, "lex sampled");
        assert!(stage_metrics.matching.count() > 0, "match sampled");
    }

    #[test]
    fn failed_session_counts_as_failed() {
        let metrics = Arc::new(SessionMetrics::new());
        let (compiled, tags) = compile(QUERY);
        let config = SessionConfig {
            metrics: Some(metrics.clone()),
            ..Default::default()
        };
        let mut session = StreamSession::new(compiled, tags, config);
        let _ = session.feed(b"</nope>").unwrap();
        session.finish().unwrap_err();
        assert_eq!(metrics.failed.get(), 1);
        assert_eq!(metrics.completed.get(), 0);
        assert_eq!(metrics.run.count(), 1, "failed runs still measured");
    }

    /// The copy query over a 1 MB XMark document: output is a third of
    /// the input and consists of tens of thousands of tags. Progress
    /// wakeups must scale with scheduler slices and staged output
    /// volume, not with tags.
    #[test]
    fn progress_wakes_scale_with_slices_not_tags() {
        use std::sync::atomic::{AtomicU64, Ordering};
        let copy = "<out>{ for $i in /site/regions//item return $i }</out>";
        let doc = gcx_xmark::generate_string(gcx_xmark::XmarkConfig::with_target_bytes(1 << 20, 1));
        let mut expected = Vec::new();
        {
            let (compiled, mut tags) = compile(copy);
            gcx_core::run_gcx(&compiled, &mut tags, doc.as_bytes(), &mut expected).unwrap();
        }
        let pool = EvaluatorPool::new(1);
        let wakes = Arc::new(AtomicU64::new(0));
        let counter = wakes.clone();
        let (compiled, tags) = compile(copy);
        let config = SessionConfig {
            pool: Some(pool.clone()),
            progress_waker: Some(Arc::new(move || {
                counter.fetch_add(1, Ordering::Relaxed);
            })),
            ..Default::default()
        };
        let mut session = StreamSession::new(compiled, tags, config);
        let mut out = Vec::new();
        for chunk in doc.as_bytes().chunks(64 * 1024) {
            out.extend(session.feed_blocking(chunk).unwrap());
        }
        out.extend(session.finish().unwrap().output);
        assert!(out == expected, "session output differs from run_gcx");
        let slices = pool.steps();
        pool.shutdown();
        let wakes = wakes.load(Ordering::Relaxed);
        let tags_out = out.iter().filter(|&&b| b == b'>').count() as u64;
        let bound = 2 * slices + (out.len() / STAGE_FLUSH_BYTES) as u64 + 8;
        assert!(
            wakes <= bound,
            "{wakes} wakes > bound {bound} ({slices} slices, {} B out, {tags_out} tags)",
            out.len()
        );
        assert!(wakes * 10 < tags_out, "{wakes} wakes for {tags_out} tags");
    }

    /// `drain_into` swaps into an empty destination and appends to a
    /// non-empty one; either way the bytes are the same.
    #[test]
    fn drain_into_matches_for_empty_and_non_empty_destinations() {
        let query = "<r>{ for $b in /bib/book return $b }</r>";
        let mut doc = String::from("<bib>");
        for i in 0..300 {
            doc.push_str(&format!("<book><title>Title {i}</title></book>"));
        }
        doc.push_str("</bib>");
        let mut expected = Vec::new();
        {
            let (compiled, mut tags) = compile(query);
            gcx_core::run_gcx(&compiled, &mut tags, doc.as_bytes(), &mut expected).unwrap();
        }
        for prefill in [false, true] {
            let (compiled, tags) = compile(query);
            let mut session = StreamSession::new(compiled, tags, SessionConfig::default());
            let prefix: &[u8] = if prefill { b"prefix" } else { b"" };
            let mut dst = prefix.to_vec();
            let mut collected = Vec::new();
            for chunk in doc.as_bytes().chunks(97) {
                assert!(session.try_feed(chunk).unwrap());
                session.drain_into(&mut dst);
                if !prefill {
                    // Empty it again, keeping the capacity: every drain
                    // takes the swap path.
                    collected.append(&mut dst);
                }
            }
            let outcome = session.finish().unwrap();
            collected.extend_from_slice(&dst);
            collected.extend_from_slice(&outcome.output);
            assert!(collected.starts_with(prefix));
            assert!(
                collected[prefix.len()..] == expected[..],
                "prefill={prefill}: output differs"
            );
        }
    }

    #[test]
    fn oversized_single_chunk_admitted_alone() {
        let (compiled, tags) = compile(QUERY);
        let config = SessionConfig {
            input_queue_bytes: 4, // far smaller than the document
            ..Default::default()
        };
        let mut session = StreamSession::new(compiled, tags, config);
        let mut out = session.feed(DOC.as_bytes()).unwrap();
        out.extend_from_slice(&session.finish().unwrap().output);
        assert_eq!(
            String::from_utf8(out).unwrap(),
            "<r><title>A</title><title>B</title></r>"
        );
    }
}
