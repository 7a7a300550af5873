//! # gcx-bench — benchmark harness for the Table 1 reproduction
//!
//! Shared plumbing for the `table1` and `ablation` binaries and the
//! Criterion benches: document generation/caching, engine dispatch, and
//! paper-style table formatting.

use gcx_core::{run_dom, run_gcx, run_no_gc_streaming, run_static_projection, RunReport};
use gcx_query::{compile, CompileOptions};
use gcx_xmark::XmarkConfig;
use gcx_xml::TagInterner;
use std::io::{Read, Write};
use std::time::Duration;

pub mod alloc_count;
pub mod report;
pub mod serve;

/// With `--features count-allocs`, every binary and test of this crate
/// counts allocator round-trips (see [`alloc_count`]).
#[cfg(feature = "count-allocs")]
#[global_allocator]
static GLOBAL_ALLOC: alloc_count::CountingAllocator = alloc_count::CountingAllocator;

/// The engines of our Table 1 (see DESIGN.md for the mapping to the
/// paper's comparison systems).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// GCX: incremental projection + active garbage collection.
    Gcx,
    /// Streaming projection, no GC ("static analysis alone";
    /// FluXQuery-class buffering).
    NoGc,
    /// Full projection first, then evaluate (Galax + projection \[13\]).
    StaticProj,
    /// Full DOM (Galax/Saxon/QizX class).
    Dom,
}

impl Engine {
    /// All engines, table order.
    pub const ALL: [Engine; 4] = [Engine::Gcx, Engine::NoGc, Engine::StaticProj, Engine::Dom];

    /// Table label.
    pub fn label(self) -> &'static str {
        match self {
            Engine::Gcx => "GCX",
            Engine::NoGc => "NoGC-Stream",
            Engine::StaticProj => "StaticProj",
            Engine::Dom => "DOM",
        }
    }

    /// Parses a label (CLI).
    pub fn parse(s: &str) -> Option<Engine> {
        match s.to_ascii_lowercase().as_str() {
            "gcx" => Some(Engine::Gcx),
            "nogc" | "nogc-stream" => Some(Engine::NoGc),
            "staticproj" | "static" => Some(Engine::StaticProj),
            "dom" => Some(Engine::Dom),
            _ => None,
        }
    }
}

/// A sink that counts output bytes without storing them, so output I/O
/// stays out of the measurements.
#[derive(Default)]
pub struct NullSink(pub u64);

impl Write for NullSink {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0 += buf.len() as u64;
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Generates (or returns cached) XMark data of roughly `mb` mebibytes.
pub fn xmark_doc(mb: f64, seed: u64) -> Vec<u8> {
    let cfg = XmarkConfig { seed, scale: mb };
    let mut buf = Vec::with_capacity((mb * 1024.0 * 1024.0) as usize);
    gcx_xmark::generate(cfg, &mut buf).expect("generation");
    buf
}

/// Query for the skip-heavy synthetic scenario: touches only the tiny
/// `/root/live` subtree, so static projection proves the whole `<dead>`
/// sibling (~99 % of the document) dead and the engine consumes it via
/// `skip_subtree`'s raw byte scanner. The resulting `skip_mb_per_sec`
/// is the raw-scan ceiling tracked in `BENCH_streaming.json`.
pub const SKIPHEAVY_QUERY: &str = "<skip>{ for $x in /root/live return $x/name/text() }</skip>";

/// Generates the skip-heavy synthetic document for [`SKIPHEAVY_QUERY`]:
/// a tiny live `<live>` subtree followed by a `<dead>` sibling padded to
/// roughly `mb` mebibytes with markup the skip scanner has to get right
/// — nested tags, quoted attribute values containing `>`, comments,
/// CDATA with overlapping `]]]>` runs, and ~130-byte text stretches.
pub fn skipheavy_doc(mb: f64) -> Vec<u8> {
    let target = (mb * 1024.0 * 1024.0) as usize;
    let mut buf = Vec::with_capacity(target + 512);
    buf.extend_from_slice(b"<root><live><name>hit</name></live><dead>");
    let block: &[u8] = b"<item cat=\"a&gt;b\" note='x>y'>\
        <sku>98431-17</sku>\
        <desc>Lorem ipsum dolor sit amet, consectetur adipiscing elit, sed do \
        eiusmod tempor incididunt ut labore et dolore magna aliqua praesent. \
        Duis aute irure dolor in reprehenderit in voluptate velit esse cillum \
        dolore eu fugiat nulla pariatur, excepteur sint occaecat cupidatat non \
        proident sunt in culpa qui officia deserunt mollit anim id est laborum \
        sed ut perspiciatis unde omnis iste natus error sit voluptatem rem.</desc>\
        <!-- dead comment, with a > inside -->\
        <blob><![CDATA[raw <bytes> & an overlapping tail x]]]></blob>\
        <qty unit=\"kg\">042</qty>\
        </item>";
    let close: &[u8] = b"</dead></root>";
    while buf.len() + block.len() + close.len() <= target {
        buf.extend_from_slice(block);
    }
    buf.extend_from_slice(close);
    buf
}

/// One measured cell of the table.
#[derive(Debug, Clone)]
pub struct Cell {
    pub report: RunReport,
}

impl Cell {
    /// `0.18s / 1.2MB` in the paper's Table 1 style.
    pub fn render(&self) -> String {
        format!(
            "{} / {}",
            fmt_duration(self.report.elapsed),
            self.report.stats.peak_human()
        )
    }
}

/// Formats a duration like the paper (seconds, or mm:ss above a minute).
pub fn fmt_duration(d: Duration) -> String {
    let secs = d.as_secs_f64();
    if secs >= 60.0 {
        format!("{:02}:{:02}", (secs / 60.0) as u64, (secs % 60.0) as u64)
    } else {
        format!("{secs:.2}s")
    }
}

/// Runs `engine` on (query, document); `copts` selects the optimization
/// set (ablations).
pub fn run_engine(
    engine: Engine,
    query: &str,
    doc: &[u8],
    copts: CompileOptions,
) -> Result<Cell, String> {
    run_engine_counted(engine, query, doc, copts).map(|(cell, _)| cell)
}

/// As [`run_engine`], additionally reporting allocator round-trips over
/// the *evaluation only* — query compilation is excluded, so the count
/// reflects the per-event hot path rather than one-time setup. `None`
/// without the `count-allocs` feature.
pub fn run_engine_counted(
    engine: Engine,
    query: &str,
    doc: &[u8],
    copts: CompileOptions,
) -> Result<(Cell, Option<u64>), String> {
    let mut tags = TagInterner::new();
    let compiled = compile(query, &mut tags, copts).map_err(|e| e.to_string())?;
    let mut sink = NullSink::default();
    let before = alloc_count::allocations();
    let report = match engine {
        Engine::Gcx => run_gcx(&compiled, &mut tags, doc, &mut sink),
        Engine::NoGc => run_no_gc_streaming(&compiled, &mut tags, doc, &mut sink),
        Engine::StaticProj => run_static_projection(&compiled, &mut tags, doc, &mut sink),
        Engine::Dom => run_dom(&compiled, &mut tags, doc, &mut sink),
    }
    .map_err(|e| e.to_string())?;
    let allocations = alloc_count::enabled().then(|| alloc_count::allocations() - before);
    if let Some(false) = report.safety {
        return Err("safety violation: roles leaked".into());
    }
    Ok((Cell { report }, allocations))
}

/// Runs (engine, query) `repeat` times over `doc`, keeping the best
/// wall-clock time and (with the `count-allocs` feature) the allocator
/// round-trips of one run. Produces a [`report::BenchRecord`] for the
/// machine-readable report.
pub fn measure_record(
    engine: Engine,
    qname: &str,
    query: &str,
    doc: &[u8],
    mb: f64,
    repeat: usize,
) -> Result<report::BenchRecord, String> {
    let mut best: Option<Cell> = None;
    let mut allocations = None;
    for _ in 0..repeat.max(1) {
        let (cell, allocs) = run_engine_counted(engine, query, doc, CompileOptions::default())?;
        if allocs.is_some() {
            allocations = allocs;
        }
        let improved = match &best {
            Some(b) => cell.report.elapsed < b.report.elapsed,
            None => true,
        };
        if improved {
            best = Some(cell);
        }
    }
    let cell = best.expect("repeat >= 1");
    let r = &cell.report;
    Ok(report::BenchRecord {
        query: qname.to_string(),
        engine: engine.label().to_string(),
        input_mb: mb,
        input_bytes: doc.len() as u64,
        seconds: r.elapsed.as_secs_f64(),
        events: r.tokens_read,
        peak_nodes: r.stats.peak_nodes as u64,
        peak_bytes: r.stats.peak_bytes as u64,
        dfa_states: r.dfa_states as u64,
        output_bytes: r.output_bytes,
        bytes_skipped: r.bytes_skipped,
        allocations,
        latency: None,
    })
}

/// Measures the lexer's steady-state allocation behaviour: the document
/// is lexed twice back-to-back under one synthetic root with one shared
/// interner, and allocator round-trips are counted over the second copy
/// only — by then the tag vocabulary is interned and every scratch
/// buffer has reached its high-water capacity, so the expected count is
/// exactly zero. Events are counted over the same stretch, and
/// allocations on the calling thread only.
pub fn lexer_steady_probe(doc: &[u8]) -> Result<report::LexerProbe, String> {
    use gcx_xml::XmlLexer;
    const OPEN: &[u8] = b"<gcx-probe>";
    const CLOSE: &[u8] = b"</gcx-probe>";
    let reader = OPEN.chain(doc).chain(doc).chain(CLOSE);
    let boundary = (OPEN.len() + doc.len()) as u64;
    let mut tags = TagInterner::new();
    let mut lexer = XmlLexer::new(reader, &mut tags);
    // Warm pass: the first copy of the document.
    while lexer.offset() < boundary {
        if lexer.next_event().map_err(|e| e.to_string())?.is_none() {
            return Err("probe stream ended during warmup".into());
        }
    }
    // Measured pass: identical input, warm everything.
    let before = alloc_count::thread_allocations();
    let mut events = 0u64;
    while lexer.next_event().map_err(|e| e.to_string())?.is_some() {
        events += 1;
    }
    let allocations = alloc_count::thread_allocations() - before;
    Ok(report::LexerProbe {
        events,
        allocations,
    })
}

/// Simple `--flag value` CLI parsing shared by the binaries.
pub fn arg_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn engines_roundtrip_labels() {
        for e in Engine::ALL {
            assert!(Engine::parse(e.label()).is_some() || e != Engine::Gcx);
        }
        assert_eq!(Engine::parse("gcx"), Some(Engine::Gcx));
        assert_eq!(Engine::parse("DOM"), Some(Engine::Dom));
        assert_eq!(Engine::parse("bogus"), None);
    }

    #[test]
    fn duration_formatting() {
        assert_eq!(fmt_duration(Duration::from_millis(180)), "0.18s");
        assert_eq!(fmt_duration(Duration::from_secs(83)), "01:23");
    }

    #[test]
    fn all_engines_agree_on_tiny_xmark() {
        let doc = xmark_doc(0.02, 11);
        for (name, query) in gcx_xmark::ALL {
            let mut outputs = Vec::new();
            for e in Engine::ALL {
                let mut tags = TagInterner::new();
                let compiled =
                    compile(query, &mut tags, CompileOptions::default()).expect("compile");
                let mut out = Vec::new();
                let r = match e {
                    Engine::Gcx => run_gcx(&compiled, &mut tags, &doc[..], &mut out),
                    Engine::NoGc => run_no_gc_streaming(&compiled, &mut tags, &doc[..], &mut out),
                    Engine::StaticProj => {
                        run_static_projection(&compiled, &mut tags, &doc[..], &mut out)
                    }
                    Engine::Dom => run_dom(&compiled, &mut tags, &doc[..], &mut out),
                };
                r.unwrap_or_else(|err| panic!("{name} on {:?}: {err}", e));
                outputs.push(out);
            }
            for o in &outputs[1..] {
                assert_eq!(
                    String::from_utf8_lossy(&outputs[0]),
                    String::from_utf8_lossy(o),
                    "engines disagree on {name}"
                );
            }
        }
    }

    #[test]
    fn skipheavy_doc_is_mostly_dead_and_engines_agree() {
        let doc = skipheavy_doc(0.05);
        let mut outputs = Vec::new();
        for e in Engine::ALL {
            let mut tags = TagInterner::new();
            let compiled =
                compile(SKIPHEAVY_QUERY, &mut tags, CompileOptions::default()).expect("compile");
            let mut out = Vec::new();
            let r = match e {
                Engine::Gcx => run_gcx(&compiled, &mut tags, &doc[..], &mut out),
                Engine::NoGc => run_no_gc_streaming(&compiled, &mut tags, &doc[..], &mut out),
                Engine::StaticProj => {
                    run_static_projection(&compiled, &mut tags, &doc[..], &mut out)
                }
                Engine::Dom => run_dom(&compiled, &mut tags, &doc[..], &mut out),
            };
            r.unwrap_or_else(|err| panic!("skip-heavy on {e:?}: {err}"));
            outputs.push(out);
        }
        for o in &outputs[1..] {
            assert_eq!(
                String::from_utf8_lossy(&outputs[0]),
                String::from_utf8_lossy(o),
                "engines disagree on skip-heavy doc"
            );
        }
        // The scenario only measures skip throughput if nearly everything
        // is actually skipped.
        let r = measure_record(Engine::Gcx, "SYNTH-SKIP", SKIPHEAVY_QUERY, &doc, 0.05, 1)
            .expect("measure skip-heavy");
        assert!(
            r.skip_ratio() > 0.95,
            "skip ratio too low: {}",
            r.skip_ratio()
        );
    }

    #[test]
    fn gcx_peak_below_dom_peak() {
        let doc = xmark_doc(0.05, 13);
        let gcx = run_engine(Engine::Gcx, gcx_xmark::Q1, &doc, CompileOptions::default()).unwrap();
        let dom = run_engine(Engine::Dom, gcx_xmark::Q1, &doc, CompileOptions::default()).unwrap();
        assert!(
            gcx.report.stats.peak_bytes * 5 < dom.report.stats.peak_bytes,
            "GCX {} vs DOM {}",
            gcx.report.stats.peak_bytes,
            dom.report.stats.peak_bytes
        );
    }

    #[test]
    fn arg_parsing() {
        let args: Vec<String> = ["--sizes", "1,5", "--seed", "7"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert_eq!(arg_value(&args, "--sizes").as_deref(), Some("1,5"));
        assert_eq!(arg_value(&args, "--seed").as_deref(), Some("7"));
        assert_eq!(arg_value(&args, "--none"), None);
    }
}
