//! # gcx-service — push-based streaming sessions and concurrent serving
//!
//! The GCX engine (`gcx-core`) evaluates one query over one *pulled*
//! stream. This crate turns that into a serving runtime:
//!
//! * [`StreamSession`] — a **push** API (`feed(&[u8])` → incremental
//!   output bytes → `finish()` → [`SessionOutcome`] with per-session
//!   `BufferStats`). A dedicated evaluator thread pulls from a bounded
//!   chunk queue, so callers are never blocked on evaluation and the
//!   engine's buffer-minimization machinery runs unmodified.
//! * [`QueryService`] — an LRU **compiled-query cache** (keyed by
//!   normalized query text, sharing one master `TagInterner`) so repeated
//!   queries skip parse/rewriting/signOff/projection analysis, plus
//!   [`QueryService::run_batch`] for bounded-concurrency evaluation of
//!   many jobs.
//! * [`MemoryBudget`] — a global bound on service-owned bytes (queued
//!   input + undrained output) summed over all concurrent sessions.
//!
//! Errors are isolated per session: a malformed stream fails that
//! session's `feed`/`finish` and nothing else. See `README.md` for the
//! session state machine and memory-budget semantics.

pub mod budget;
pub mod metrics;
pub mod pool;
pub mod service;
pub mod session;

pub use budget::MemoryBudget;
pub use metrics::SessionMetrics;
pub use pool::EvaluatorPool;
pub use service::{normalize_query, BatchJob, QueryService, ServiceConfig, ServiceStats};
pub use session::{ProgressWaker, SessionConfig, SessionOutcome, StreamSession};

use gcx_query::CompileError;
use std::fmt;

/// Marker substring of the session error produced when a session's
/// undrained output exceeds its hard cap ([`SessionConfig::output_max_bytes`]).
/// Session errors travel as strings (they cross the evaluator thread via
/// `io::Error`), so drivers attribute cap failures by matching this.
pub const OUTPUT_CAP_ERROR: &str = "session output hard cap exceeded";

/// Everything the service layer can fail with.
#[derive(Debug)]
pub enum ServiceError {
    /// The query failed to compile.
    Compile(CompileError),
    /// The session's evaluator failed (malformed stream, engine error,
    /// or evaluator panic). Sticky: every later call returns it again.
    Session(String),
    /// Admitting the chunk would exceed the global memory budget. Output
    /// produced so far is handed back in `drained`; the caller may drain
    /// other sessions and retry.
    BudgetExceeded {
        /// Bytes the rejected chunk needed.
        requested: usize,
        /// Budget bytes in use at rejection time.
        used: usize,
        /// The configured limit.
        limit: usize,
        /// Output bytes drained from this session as a side effect.
        drained: Vec<u8>,
    },
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::Compile(e) => write!(f, "compile error: {e}"),
            ServiceError::Session(msg) => write!(f, "session error: {msg}"),
            ServiceError::BudgetExceeded {
                requested,
                used,
                limit,
                ..
            } => write!(
                f,
                "memory budget exceeded: chunk of {requested}B does not fit ({used}B used of {limit}B)"
            ),
        }
    }
}

impl std::error::Error for ServiceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServiceError::Compile(e) => Some(e),
            _ => None,
        }
    }
}
