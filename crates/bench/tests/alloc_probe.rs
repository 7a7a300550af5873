//! Acceptance check for the zero-allocation lexer hot path. Only
//! meaningful (and only compiled) with the counting allocator installed:
//!
//! ```text
//! cargo test -p gcx-bench --features count-allocs --test alloc_probe
//! ```
//!
//! Every gate counts the allocations of its own thread
//! ([`alloc_count::thread_allocations`]): the harness runs the gates in
//! parallel, and a process-wide count would charge each gate for its
//! siblings' work.
#![cfg(feature = "count-allocs")]

use gcx_bench::{alloc_count, lexer_steady_probe, xmark_doc, NullSink};

/// Runs XMark query `name` under GCX over a `mb`-sized document (seed
/// 42); returns this thread's allocations during the evaluation (not the
/// compilation) and the run's report.
fn counted_run(name: &str, mb: f64) -> (u64, gcx_core::RunReport) {
    let doc = xmark_doc(mb, 42);
    let query = gcx_xmark::by_name(name).expect("query exists");
    let mut tags = gcx_xml::TagInterner::new();
    let compiled = gcx_query::compile_default(query, &mut tags).expect("compile");
    let before = alloc_count::thread_allocations();
    let mut sink = NullSink::default();
    let report = gcx_core::run_gcx(&compiled, &mut tags, &doc[..], &mut sink).expect("run");
    (alloc_count::thread_allocations() - before, report)
}

/// Once a document's tag vocabulary is interned and the lexer's scratch
/// buffers have reached their high-water capacity, lexing an identical
/// stream performs zero heap allocations.
#[test]
fn lexer_steady_state_is_allocation_free() {
    let doc = xmark_doc(0.5, 42);
    let probe = lexer_steady_probe(&doc).expect("probe runs");
    assert!(probe.events > 10_000, "probe too small: {}", probe.events);
    assert_eq!(
        probe.allocations, 0,
        "steady-state lexing allocated {} times over {} events",
        probe.allocations, probe.events
    );
}

/// Q13 buffers whole description subtrees (dos::node() projection) — the
/// last known allocation pocket. After arena-backed DFA states, the
/// inline role-set storage, the borrowed (not cloned) query body and the
/// arena-backed tag interner, a cold Q13 run performs only a few dozen
/// allocator round-trips total; the 0.005/event budget at a 16 MB
/// document (≈ 15k materialized events — skip-mode lexing consumes the
/// rest as raw bytes) allows ~77, roughly 2× the measured figure.
#[test]
fn q13_allocs_per_event_bounded() {
    let (allocs, report) = counted_run("Q13", 16.0);
    let events = report.tokens_read.max(1);
    let ratio = allocs as f64 / events as f64;
    assert!(
        ratio <= 0.005,
        "Q13 allocated {allocs} times over {events} events ({ratio:.5}/event; budget 0.005)"
    );
}

/// Recording into the observability primitives must be allocation-free:
/// they sit on the engine hot path (sampled stage timers) and the
/// request path, where the 0.005 allocs/event budget leaves no room.
/// Snapshotting is also alloc-free (fixed-size arrays on the stack).
#[test]
fn histogram_recording_is_allocation_free() {
    use std::time::Duration;
    let hist = gcx_obs::LatencyHistogram::new();
    let counter = gcx_obs::Counter::new();
    // Warm up any lazy allocator state.
    hist.record(Duration::from_micros(3));
    let before = alloc_count::thread_allocations();
    for i in 0..10_000u64 {
        hist.record_nanos(i * 37 + 1);
        counter.inc();
    }
    let snap = hist.snapshot();
    let allocs = alloc_count::thread_allocations() - before;
    assert_eq!(
        allocs, 0,
        "recording 10k histogram samples allocated {allocs} times"
    );
    assert_eq!(snap.count, 10_001);
    assert!(snap.p50() > 0);
}

/// Q20 runs the matcher in NFA mode (positional predicate) — the pooled
/// frames, matcher-resident scratch and evaluator scratch must keep the
/// whole engine's amortized allocation rate under 0.05 allocations per
/// materialized event. The per-run setup (lexer buffer, interner, frame
/// pool growth to peak depth, scratch high-water marks) is amortized
/// over the run, which is exactly what the bound budgets for.
#[test]
fn q20_allocs_per_event_bounded() {
    let (allocs, report) = counted_run("Q20", 1.0);
    assert!(report.dfa_states == 0, "Q20 must exercise NFA mode");
    let events = report.tokens_read.max(1);
    let ratio = allocs as f64 / events as f64;
    assert!(
        ratio <= 0.05,
        "Q20 allocated {allocs} times over {events} events ({ratio:.4}/event; budget 0.05)"
    );
}

/// Q8 is the paper's nested-loop join: every (person, buyer) pair runs
/// one buffered-text comparison, a few hundred thousand per 1 MB
/// document. Comparisons borrow string values from the buffer's text
/// arena and keep their match sets in engine scratch, so the join's inner
/// loop allocates nothing; what remains is per-run setup and scratch
/// growth, amortized over the run.
#[test]
fn q8_allocs_per_event_bounded() {
    let (allocs, report) = counted_run("Q8", 1.0);
    assert!(report.output_bytes > 0, "Q8 produced no output");
    let events = report.tokens_read.max(1);
    let ratio = allocs as f64 / events as f64;
    assert!(
        ratio <= 0.05,
        "Q8 allocated {allocs} times over {events} events ({ratio:.4}/event; budget 0.05)"
    );
}
