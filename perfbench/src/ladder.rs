//! The layer ladder: the workload's requests run in process through
//! each crate's public functions, one rung per layer in pipeline order,
//! with a span around every call. A rung's cost is its difference from
//! the rung below.

use crate::trace::Recorder;
use crate::workload::{check_output, Inputs, Pair, CHUNK};
use crate::{stats, Metric};
use gcx_bench::alloc_count::allocations;
use gcx_buffer::BufferTree;
use gcx_core::{
    run_gcx, run_no_gc_streaming, EngineOptions, EngineStageMetrics, GcxEngine, Preprojector,
    RunReport,
};
use gcx_query::{compile, CompileOptions, CompiledQuery};
use gcx_service::{EvaluatorPool, QueryService, ServiceConfig};
use gcx_xml::{TagInterner, XmlEvent, XmlLexer};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Each rung repeats its pass over the requests until it has run this
/// long, so short passes are still timed over many calls. Spans are
/// kept for the first pass only.
const MIN_RUNG: Duration = Duration::from_millis(300);
/// The staged pass times every pump step (emits are sampled by the
/// engine itself), so tiny documents still fill the histograms.
const STAGE_SAMPLE_EVERY: u32 = 1;
const MIB: f64 = 1024.0 * 1024.0;

/// Wall time of one pass of a rung over the requests.
pub struct Rung {
    pub name: &'static str,
    pub pass_s: f64,
}

pub struct Ladder {
    pub rungs: Vec<Rung>,
    pub metrics: Vec<Metric>,
}

/// Child intervals a rung call reports for its span.
type Children = Vec<(&'static str, Instant, Instant)>;

/// One rung's pass time and the first pass's per-request results.
struct Pass<T> {
    pass_s: f64,
    passes: u32,
    results: Vec<T>,
}

/// Runs `f` over every request, pass after pass, until [`MIN_RUNG`]
/// has elapsed, with a span (and child spans) per call of the first pass.
fn rung<T>(
    pairs: &[Pair],
    rec: &mut Recorder,
    name: &'static str,
    layer: &'static str,
    mut f: impl FnMut(usize, &Pair, &mut Children) -> Result<T, String>,
) -> Result<Pass<T>, String> {
    let mut results = Vec::with_capacity(pairs.len());
    let mut children = Children::new();
    let mut passes = 0u32;
    let started = Instant::now();
    loop {
        for (i, pair) in pairs.iter().enumerate() {
            children.clear();
            let t0 = Instant::now();
            let r = f(i, pair, &mut children)?;
            if passes == 0 {
                let parent = rec.record(name, layer, i as u64, None, t0, Instant::now());
                for &(child, a, b) in &children {
                    rec.record(child, layer, i as u64, Some(parent), a, b);
                }
                results.push(r);
            }
        }
        passes += 1;
        if started.elapsed() >= MIN_RUNG {
            break;
        }
    }
    Ok(Pass {
        pass_s: started.elapsed().as_secs_f64() / f64::from(passes),
        passes,
        results,
    })
}

fn compile_fresh(text: &str) -> Result<(CompiledQuery, TagInterner), String> {
    let mut tags = TagInterner::new();
    let c = compile(text, &mut tags, CompileOptions::default()).map_err(|e| e.to_string())?;
    Ok((c, tags))
}

/// Events of a full lex of `doc`.
fn lex(doc: &[u8]) -> Result<u64, String> {
    let mut tags = TagInterner::new();
    let mut lexer = XmlLexer::new(doc, &mut tags);
    let mut events = 0;
    while lexer.next_event().map_err(|e| e.to_string())?.is_some() {
        events += 1;
    }
    Ok(events)
}

/// Opens the root element and raw-skips each of its children.
fn skip_children(doc: &[u8]) -> Result<(), String> {
    let mut tags = TagInterner::new();
    let mut lexer = XmlLexer::new(doc, &mut tags);
    let mut in_root = false;
    loop {
        let open = match lexer.next_event().map_err(|e| e.to_string())? {
            Some(XmlEvent::Open(_)) => true,
            Some(XmlEvent::Close(_)) | None => return Ok(()),
            Some(XmlEvent::Text(_)) => false,
        };
        if open && in_root {
            lexer.skip_subtree().map_err(|e| e.to_string())?;
        }
        in_root |= open;
    }
}

struct Projected {
    tokens_read: u64,
    bytes_skipped: u64,
    dfa_states: usize,
}

fn project(
    compiled: &CompiledQuery,
    mut tags: TagInterner,
    doc: &[u8],
) -> Result<Projected, String> {
    let mut buffer = BufferTree::new(compiled.roles.len(), &compiled.projection.aggregates);
    let lexer = XmlLexer::new(doc, &mut tags);
    let mut p = Preprojector::new(lexer, &compiled.projection.tree, &mut buffer);
    p.pump_to_eof(&mut buffer).map_err(|e| e.to_string())?;
    Ok(Projected {
        tokens_read: p.tokens_read,
        bytes_skipped: p.bytes_skipped(),
        dfa_states: p.dfa_states(),
    })
}

pub fn run(
    inputs: &Inputs,
    pairs: &[Pair],
    rec: &mut Recorder,
    evaluators: usize,
) -> Result<Ladder, String> {
    let doc = |p: &Pair| &inputs.docs[p.doc][..];
    let text = |p: &Pair| inputs.queries[p.query].text.as_str();
    let input_bytes: usize = pairs.iter().map(|p| doc(p).len()).sum();
    let mb = input_bytes as f64 / MIB;
    let mut m: Vec<Metric> = Vec::new();
    let mut rungs = Vec::new();

    // xml: a full lex, and raw skipping of the root's children.
    let a0 = allocations();
    let lexed = rung(pairs, rec, "xml.lex", "xml", |_, p, _| lex(doc(p)))?;
    let lex_allocs = allocations() - a0;
    let events: u64 = lexed.results.iter().sum();
    let skipped = rung(pairs, rec, "xml.skip", "xml", |_, p, _| {
        skip_children(doc(p))
    })?;
    rungs.push(Rung {
        name: "xml.skip",
        pass_s: skipped.pass_s,
    });
    rungs.push(Rung {
        name: "xml.lex",
        pass_s: lexed.pass_s,
    });
    m.push(Metric::new("xml.lex_mb_per_s", "MB/s", mb / lexed.pass_s));
    m.push(Metric::new(
        "xml.skip_mb_per_s",
        "MB/s",
        mb / skipped.pass_s,
    ));
    m.push(Metric::new("xml.events", "count", events as f64));
    m.push(Metric::new(
        "xml.allocs_per_event",
        "1",
        per_event(lex_allocs, lexed.passes, events),
    ));

    // query: compile each request's query from scratch.
    let mut compile_us = Vec::new();
    rung(pairs, rec, "query.compile", "query", |_, p, _| {
        let t0 = Instant::now();
        compile_fresh(text(p))?;
        compile_us.push(t0.elapsed().as_secs_f64() * 1e6);
        Ok(())
    })?;
    m.push(Metric::new(
        "query.compile_us",
        "us",
        stats::median(&compile_us).unwrap_or(0.0),
    ));

    let compiled: Vec<(CompiledQuery, TagInterner)> = pairs
        .iter()
        .map(|p| compile_fresh(text(p)))
        .collect::<Result<_, _>>()?;
    let query = |i: usize| &compiled[i].0;
    let tags = |i: usize| compiled[i].1.clone();

    // projection: the preprojector alone, pumping into a buffer.
    let proj = rung(pairs, rec, "projection.pump", "projection", |i, p, _| {
        project(query(i), tags(i), doc(p))
    })?;
    rungs.push(Rung {
        name: "projection",
        pass_s: proj.pass_s,
    });
    let bytes_skipped: u64 = proj.results.iter().map(|p| p.bytes_skipped).sum();
    m.push(Metric::new("projection.mb_per_s", "MB/s", mb / proj.pass_s));
    m.push(Metric::new(
        "projection.skip_ratio",
        "1",
        bytes_skipped as f64 / input_bytes as f64,
    ));
    m.push(Metric::new(
        "projection.tokens_read",
        "count",
        proj.results.iter().map(|p| p.tokens_read).sum::<u64>() as f64,
    ));
    m.push(Metric::new(
        "projection.dfa_states",
        "count",
        proj.results.iter().map(|p| p.dfa_states).sum::<usize>() as f64,
    ));

    // core: the engine without GC, then with it; the paper's §5 claim
    // that cleanup is cheap is their ratio.
    let nogc = rung(pairs, rec, "core.nogc", "core", |i, p, _| {
        let mut out = Vec::with_capacity(p.reference.len());
        let r = run_no_gc_streaming(query(i), &mut tags(i), doc(p), &mut out)
            .map_err(|e| e.to_string())?;
        check_output(inputs, i, p, &out, Some(true))?;
        Ok(r)
    })?;
    rungs.push(Rung {
        name: "core.nogc",
        pass_s: nogc.pass_s,
    });
    let a0 = allocations();
    let gcx = rung(pairs, rec, "core.gcx", "core", |i, p, _| {
        let mut out = Vec::with_capacity(p.reference.len());
        let r = run_gcx(query(i), &mut tags(i), doc(p), &mut out).map_err(|e| e.to_string())?;
        check_output(inputs, i, p, &out, r.safety)?;
        Ok(r)
    })?;
    let gcx_allocs = allocations() - a0;
    rungs.push(Rung {
        name: "core.gcx",
        pass_s: gcx.pass_s,
    });
    let gcx_tokens: u64 = gcx.results.iter().map(|r| r.tokens_read).sum();
    m.push(Metric::new("core.gcx_mb_per_s", "MB/s", mb / gcx.pass_s));
    m.push(Metric::new("core.nogc_mb_per_s", "MB/s", mb / nogc.pass_s));
    m.push(Metric::new(
        "core.gc_overhead_ratio",
        "1",
        gcx.pass_s / nogc.pass_s,
    ));
    m.push(Metric::new(
        "core.allocs_per_event",
        "1",
        per_event(gcx_allocs, gcx.passes, gcx_tokens),
    ));
    let stages = Arc::new(EngineStageMetrics::new());
    rung(pairs, rec, "core.gcx_staged", "core", |i, p, _| {
        let mut t = tags(i);
        let mut engine = GcxEngine::new(
            query(i),
            &mut t,
            doc(p),
            std::io::sink(),
            EngineOptions::default(),
        );
        engine.set_stage_metrics(stages.clone(), STAGE_SAMPLE_EVERY);
        engine.run().map_err(|e| e.to_string())
    })?;
    for (stage, h) in stages.stages() {
        let name = match stage {
            "lex" => "core.stage_lex_p50_us",
            "skip" => "core.stage_skip_p50_us",
            "match" => "core.stage_match_p50_us",
            "buffer" => "core.stage_buffer_p50_us",
            _ => "core.stage_emit_p50_us",
        };
        m.push(Metric::new(name, "us", h.snapshot().p50() as f64 / 1e3));
    }

    // buffer: read from the GCX and NoGC runs above.
    let peak =
        |rs: &[RunReport], f: fn(&RunReport) -> usize| rs.iter().map(f).max().unwrap_or(0) as f64;
    let total = |f: fn(&RunReport) -> u64| gcx.results.iter().map(f).sum::<u64>() as f64;
    let gcx_peak_bytes = peak(&gcx.results, |r| r.stats.peak_bytes);
    let nogc_peak_bytes = peak(&nogc.results, |r| r.stats.peak_bytes);
    m.push(Metric::new(
        "buffer.peak_nodes",
        "count",
        peak(&gcx.results, |r| r.stats.peak_nodes),
    ));
    m.push(Metric::new("buffer.peak_bytes", "B", gcx_peak_bytes));
    m.push(Metric::new(
        "buffer.nodes_created",
        "count",
        total(|r| r.stats.nodes_created),
    ));
    m.push(Metric::new(
        "buffer.nodes_purged",
        "count",
        total(|r| r.stats.nodes_purged),
    ));
    m.push(Metric::new(
        "buffer.signoffs",
        "count",
        total(|r| r.stats.signoffs),
    ));
    m.push(Metric::new(
        "buffer.gc_visits",
        "count",
        total(|r| r.stats.gc_visits),
    ));
    m.push(Metric::new(
        "buffer.gc_peak_ratio",
        "1",
        gcx_peak_bytes / nogc_peak_bytes.max(1.0),
    ));

    // service: one session per request on a pool the size of the
    // server's, fed in 64 KiB chunks.
    let service = QueryService::new(ServiceConfig::default());
    let pool = EvaluatorPool::new(evaluators);
    let (mut open_us, mut feed_us) = (Vec::new(), Vec::new());
    // Cache and pool counters after the first pass: later passes only
    // repeat it.
    let mut first_pass = None;
    let session = rung(pairs, rec, "service.session", "service", |i, p, spans| {
        let t0 = Instant::now();
        let mut session = service
            .open_session_with(text(p), |c| c.pool = Some(pool.clone()))
            .map_err(|e| e.to_string())?;
        let t1 = Instant::now();
        let mut out = Vec::with_capacity(p.reference.len());
        for chunk in doc(p).chunks(CHUNK) {
            out.extend(session.feed_blocking(chunk).map_err(|e| e.to_string())?);
        }
        let t2 = Instant::now();
        let outcome = session.finish().map_err(|e| e.to_string())?;
        let t3 = Instant::now();
        out.extend(outcome.output);
        check_output(inputs, i, p, &out, outcome.report.safety)?;
        open_us.push((t1 - t0).as_secs_f64() * 1e6);
        feed_us.push((t2 - t1).as_secs_f64() * 1e6);
        spans.extend([
            ("service.open", t0, t1),
            ("service.feed", t1, t2),
            ("service.finish", t2, t3),
        ]);
        if open_us.len() == pairs.len() {
            first_pass = Some((service.stats(), pool.steps(), pool.yields()));
        }
        Ok(())
    })?;
    pool.shutdown();
    rungs.push(Rung {
        name: "service.session",
        pass_s: session.pass_s,
    });
    let (st, steps, yields) = first_pass.expect("the rung ran one full pass");
    m.push(Metric::new(
        "service.session_mb_per_s",
        "MB/s",
        mb / session.pass_s,
    ));
    m.push(Metric::new(
        "service.session_over_core_ratio",
        "1",
        gcx.pass_s / session.pass_s,
    ));
    m.push(Metric::new(
        "service.open_us",
        "us",
        stats::median(&open_us).unwrap_or(0.0),
    ));
    m.push(Metric::new(
        "service.feed_blocked_us",
        "us",
        stats::median(&feed_us).unwrap_or(0.0),
    ));
    m.push(Metric::new(
        "service.cache_hit_ratio",
        "1",
        st.cache_hits as f64 / (st.cache_hits + st.cache_misses).max(1) as f64,
    ));
    m.push(Metric::new("service.pool_steps", "count", steps as f64));
    m.push(Metric::new("service.pool_yields", "count", yields as f64));

    Ok(Ladder { rungs, metrics: m })
}

/// Allocations per event of one pass: `allocs` was counted over
/// `passes` passes of `events` events each.
fn per_event(allocs: u64, passes: u32, events: u64) -> f64 {
    allocs as f64 / (f64::from(passes) * events.max(1) as f64)
}
