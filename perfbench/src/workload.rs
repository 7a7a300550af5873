//! The four workloads: their fixed settings, the inputs each makes from
//! the seed, the reference output of every request, and the property
//! that makes each worth running.
//!
//! Why each workload exists and which layers it loads is written up in
//! `perfbench/README.md`; `BENCHMARK.json` carries the one-line version.

use gcx_core::{run_dom, run_gcx, run_no_gc_streaming};
use gcx_query::{compile, CompileOptions};
use gcx_xmark::XmarkConfig;
use gcx_xml::TagInterner;

/// Server topology, each at most `nproc` (clamped at run time).
pub const WORKERS: usize = 2;
pub const EVALUATORS: usize = 2;
/// HTTP upload chunk and `StreamSession::feed_blocking` chunk size.
pub const CHUNK: usize = 64 * 1024;
/// Offered rate of the `small-requests` open loop, requests per second.
/// About a third of what the server completes on a 2-core host.
pub const SMALL_RATE_PER_S: f64 = 1000.0;
/// One `small-requests` request in this many is a cold query.
pub const COLD_EVERY: usize = 10;

const STREAM_DOC_BYTES: usize = 8_000_000;
const STREAM_DOCS: usize = 3;
const JOIN_DOC_BYTES: usize = 1_000_000;
const JOIN_DOCS: usize = 4;
/// Tiny documents: the generator's smallest (one of each entity).
const TINY_DOC_BYTES: usize = 1;
const SMALL_DOCS: usize = 256;

/// Copy queries: about a third of the input comes back.
const COPY_ITEMS: &str = "<out>{ for $i in /site/regions//item return $i }</out>";
const COPY_PERSONS: &str = "<out>{ for $p in /site/people/person return $p }</out>";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Stream,
    Copy,
    Join,
    Small,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Stream,
        Workload::Copy,
        Workload::Join,
        Workload::Small,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Stream => "xmark-stream",
            Workload::Copy => "xmark-copy",
            Workload::Join => "xmark-join",
            Workload::Small => "small-requests",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// How the load generator drives this workload.
    pub fn plan(self) -> Plan {
        match self {
            Workload::Small => Plan::Open {
                rate_per_s: SMALL_RATE_PER_S,
                conns: 2,
            },
            _ => Plan::Closed { clients: 2 },
        }
    }
}

/// Closed loop: each client sends its next request when the previous
/// one completes. Open loop: requests fall due at a fixed rate whether
/// or not earlier ones finished.
#[derive(Debug, Clone, Copy)]
pub enum Plan {
    Closed { clients: usize },
    Open { rate_per_s: f64, conns: usize },
}

impl Plan {
    pub fn connections(self) -> usize {
        match self {
            Plan::Closed { clients } => clients,
            Plan::Open { conns, .. } => conns,
        }
    }
}

pub struct Query {
    pub label: String,
    pub text: String,
    /// Index into [`Inputs::classes`]; latency medians are taken per class.
    pub class: usize,
}

/// One request: a query over a document, with the reference output.
pub struct Pair {
    pub query: usize,
    pub doc: usize,
    pub reference: Vec<u8>,
}

pub struct Inputs {
    pub workload: Workload,
    pub seed: u64,
    pub classes: Vec<String>,
    pub queries: Vec<Query>,
    pub docs: Vec<Vec<u8>>,
    /// The request sequence; closed loops cycle through it, the open
    /// loop sends it once.
    pub pairs: Vec<Pair>,
    /// One request per distinct hot query over the first document: the
    /// set-up pass that pays for compilation and warms the server.
    pub warmup: Vec<Pair>,
}

/// Mixes `seed` with a per-purpose tag (splitmix64), so every document
/// of every workload gets its own generator seed.
pub fn derive_seed(seed: u64, tag: u64) -> u64 {
    let mut z = seed ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn xmark(bytes: usize, seed: u64) -> Vec<u8> {
    let mut doc = Vec::with_capacity(bytes + bytes / 8);
    gcx_xmark::generate(XmarkConfig::with_target_bytes(bytes, seed), &mut doc)
        .expect("generating into memory cannot fail");
    doc
}

impl Inputs {
    /// Makes the inputs of `workload` from `seed` and computes every
    /// reference output with the DOM engine. `requests` sizes the
    /// open loop's schedule (closed loops cycle their fixed sequence).
    pub fn generate(workload: Workload, seed: u64, requests: usize) -> Result<Inputs, String> {
        let hot: Vec<(&str, &str)> = match workload {
            Workload::Stream => vec![
                ("Q1", gcx_xmark::Q1),
                ("Q6", gcx_xmark::Q6),
                ("Q13", gcx_xmark::Q13),
                ("Q20", gcx_xmark::Q20),
            ],
            Workload::Copy => vec![("copy-items", COPY_ITEMS), ("copy-persons", COPY_PERSONS)],
            Workload::Join => vec![("Q8", gcx_xmark::Q8)],
            Workload::Small => gcx_xmark::ALL.to_vec(),
        };
        let (doc_bytes, doc_count, doc_tag) = match workload {
            // xmark-stream and xmark-copy share their documents.
            Workload::Stream | Workload::Copy => (STREAM_DOC_BYTES, STREAM_DOCS, 1),
            Workload::Join => (JOIN_DOC_BYTES, JOIN_DOCS, 2),
            Workload::Small => (TINY_DOC_BYTES, SMALL_DOCS, 3),
        };
        let docs: Vec<Vec<u8>> = (0..doc_count)
            .map(|i| xmark(doc_bytes, derive_seed(seed, doc_tag << 32 | i as u64)))
            .collect();
        let mut classes: Vec<String> = hot.iter().map(|(l, _)| l.to_string()).collect();
        let mut queries: Vec<Query> = hot
            .iter()
            .enumerate()
            .map(|(class, (label, text))| Query {
                label: label.to_string(),
                text: text.to_string(),
                class,
            })
            .collect();

        let mut plan: Vec<(usize, usize)> = Vec::new();
        match workload {
            Workload::Small => {
                classes.push("cold".into());
                let cold_class = classes.len() - 1;
                let mut hot_sent = 0;
                for i in 0..requests.max(1) {
                    let doc = i % docs.len();
                    if i % COLD_EVERY == COLD_EVERY - 1 {
                        // Never repeated within a run, so never cached.
                        let person = format!("person{}", 1000 + i);
                        queries.push(Query {
                            label: format!("Q1-{person}"),
                            text: gcx_xmark::Q1.replace("person0", &person),
                            class: cold_class,
                        });
                        plan.push((queries.len() - 1, doc));
                    } else {
                        plan.push((hot_sent % hot.len(), doc));
                        hot_sent += 1;
                    }
                }
            }
            _ => {
                // Rotate the queries; move to the next document after
                // each full rotation.
                for k in 0..hot.len() * docs.len() {
                    plan.push((k % hot.len(), (k / hot.len()) % docs.len()));
                }
            }
        }

        let warm_plan: Vec<(usize, usize)> = (0..hot.len()).map(|q| (q, 0)).collect();

        let mut oracle = Oracle::new(&queries)?;
        let mut build = |plan: Vec<(usize, usize)>| -> Result<Vec<Pair>, String> {
            plan.into_iter()
                .map(|(query, doc)| {
                    Ok(Pair {
                        query,
                        doc,
                        reference: oracle.reference(query, &docs[doc])?,
                    })
                })
                .collect()
        };
        let pairs = build(plan)?;
        let warmup = build(warm_plan)?;
        Ok(Inputs {
            workload,
            seed,
            classes,
            queries,
            docs,
            pairs,
            warmup,
        })
    }

    /// The first `max` requests of the sequence: what the ladder and
    /// the set-up checks run in process.
    pub fn head_pairs(&self, max: usize) -> &[Pair] {
        &self.pairs[..self.pairs.len().min(max)]
    }
}

/// Reference outputs from `gcx_core::run_dom`, which evaluates over a
/// full in-memory tree and shares no streaming code with the engine
/// under test. Each query is compiled once.
struct Oracle {
    compiled: Vec<(gcx_query::CompiledQuery, TagInterner)>,
}

impl Oracle {
    fn new(queries: &[Query]) -> Result<Oracle, String> {
        let compiled = queries
            .iter()
            .map(|q| {
                let mut tags = TagInterner::new();
                let c = compile(&q.text, &mut tags, CompileOptions::default())
                    .map_err(|e| format!("{}: {e}", q.label))?;
                Ok((c, tags))
            })
            .collect::<Result<_, String>>()?;
        Ok(Oracle { compiled })
    }

    fn reference(&mut self, query: usize, doc: &[u8]) -> Result<Vec<u8>, String> {
        let (compiled, tags) = &mut self.compiled[query];
        let mut out = Vec::new();
        run_dom(compiled, tags, doc, &mut out).map_err(|e| format!("reference: {e}"))?;
        Ok(out)
    }
}

/// What the in-process GCX and NoGC engines show on the distinct
/// requests: the figures the workload self-checks rest on.
#[derive(Debug, Default)]
pub struct EngineProfile {
    pub input_bytes: u64,
    pub output_bytes: u64,
    /// Mean over requests of bytes skipped ÷ input bytes.
    pub mean_skip_ratio: f64,
    pub gcx_peak_nodes: usize,
    pub gcx_peak_bytes: usize,
    pub nogc_peak_bytes: usize,
}

/// Runs GCX (and NoGC where the check needs it) over `pairs`, comparing
/// each output with its reference and requiring the safety invariant.
pub fn profile_engines(
    inputs: &Inputs,
    pairs: &[Pair],
    nogc: bool,
) -> Result<EngineProfile, String> {
    let mut p = EngineProfile::default();
    let mut ratio_sum = 0.0;
    for (i, pair) in pairs.iter().enumerate() {
        let q = &inputs.queries[pair.query];
        let doc = &inputs.docs[pair.doc][..];
        let mut tags = TagInterner::new();
        let compiled =
            compile(&q.text, &mut tags, CompileOptions::default()).map_err(|e| e.to_string())?;
        let mut out = Vec::new();
        let r = run_gcx(&compiled, &mut tags, doc, &mut out).map_err(|e| e.to_string())?;
        check_output(inputs, i, pair, &out, r.safety)?;
        p.input_bytes += doc.len() as u64;
        p.output_bytes += out.len() as u64;
        ratio_sum += r.bytes_skipped as f64 / doc.len() as f64;
        p.gcx_peak_nodes = p.gcx_peak_nodes.max(r.stats.peak_nodes);
        p.gcx_peak_bytes = p.gcx_peak_bytes.max(r.stats.peak_bytes);
        if nogc {
            let mut out = Vec::new();
            let r = run_no_gc_streaming(&compiled, &mut tags, doc, &mut out)
                .map_err(|e| e.to_string())?;
            check_output(inputs, i, pair, &out, Some(true))?;
            p.nogc_peak_bytes = p.nogc_peak_bytes.max(r.stats.peak_bytes);
        }
    }
    p.mean_skip_ratio = ratio_sum / pairs.len().max(1) as f64;
    Ok(p)
}

/// Byte-for-byte comparison with the reference; the error names the
/// seed and request that reproduce a mismatch.
pub fn check_output(
    inputs: &Inputs,
    index: usize,
    pair: &Pair,
    output: &[u8],
    safety: Option<bool>,
) -> Result<(), String> {
    let what = || {
        format!(
            "{} seed {} request {index} ({} over document {})",
            inputs.workload.name(),
            inputs.seed,
            inputs.queries[pair.query].label,
            pair.doc
        )
    };
    if output != pair.reference {
        let at = output
            .iter()
            .zip(&pair.reference)
            .position(|(a, b)| a != b)
            .unwrap_or(output.len().min(pair.reference.len()));
        return Err(format!(
            "{}: output differs from the reference at byte {at} ({} vs {} bytes)",
            what(),
            output.len(),
            pair.reference.len()
        ));
    }
    if safety != Some(true) {
        return Err(format!(
            "{}: role accounting unbalanced ({safety:?})",
            what()
        ));
    }
    Ok(())
}

/// Asserts the property that makes the workload worth running, so that
/// a generator or query drift cannot quietly turn it into a copy of
/// another workload.
pub fn self_check(inputs: &Inputs, p: &EngineProfile) -> Result<String, String> {
    let fail = |msg: String| {
        Err(format!(
            "{} self-check failed: {msg}",
            inputs.workload.name()
        ))
    };
    match inputs.workload {
        // The copy queries skip about 0.68 of their input; the stream
        // queries skip 0.67–0.99 (mean about 0.87) and must stay clear
        // of the copy workload.
        Workload::Stream if p.mean_skip_ratio < 0.8 => {
            fail(format!("mean skip ratio {:.3} < 0.8", p.mean_skip_ratio))
        }
        Workload::Copy if (p.output_bytes as f64) < 0.25 * p.input_bytes as f64 => fail(format!(
            "output is {:.3} of the input, below 0.25",
            p.output_bytes as f64 / p.input_bytes as f64
        )),
        Workload::Copy if p.gcx_peak_bytes as f64 > 0.01 * p.nogc_peak_bytes as f64 => {
            fail(format!(
                "GC peak {} B > 1 % of NoGC peak {} B",
                p.gcx_peak_bytes, p.nogc_peak_bytes
            ))
        }
        Workload::Join if p.gcx_peak_nodes < 1000 => {
            fail(format!("peak buffered nodes {} < 1000", p.gcx_peak_nodes))
        }
        Workload::Small => {
            let cold = inputs
                .pairs
                .iter()
                .filter(|pr| inputs.queries[pr.query].class == inputs.classes.len() - 1)
                .count();
            let share = cold as f64 / inputs.pairs.len() as f64;
            if (share - 1.0 / COLD_EVERY as f64).abs() > 0.01 {
                return fail(format!("cold share {share:.3} of the schedule"));
            }
            Ok(format!("cold share of the schedule {share:.3}"))
        }
        _ => {
            let mut note = format!(
                "skip ratio {:.3}, output/input {:.3}, GCX peak {} nodes / {} B",
                p.mean_skip_ratio,
                p.output_bytes as f64 / p.input_bytes.max(1) as f64,
                p.gcx_peak_nodes,
                p.gcx_peak_bytes,
            );
            if p.nogc_peak_bytes > 0 {
                note += &format!(", NoGC peak {} B", p.nogc_peak_bytes);
            }
            Ok(note)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        let a = Inputs::generate(Workload::Small, 5, 40).unwrap();
        let b = Inputs::generate(Workload::Small, 5, 40).unwrap();
        assert_eq!(a.docs, b.docs);
        assert_eq!(a.pairs.len(), 40);
        let c = Inputs::generate(Workload::Small, 6, 40).unwrap();
        assert_ne!(a.docs, c.docs);
    }

    #[test]
    fn small_requests_cold_queries_are_distinct() {
        let inputs = Inputs::generate(Workload::Small, 1, 100).unwrap();
        let cold: Vec<&str> = inputs
            .pairs
            .iter()
            .map(|p| &inputs.queries[p.query])
            .filter(|q| q.class == inputs.classes.len() - 1)
            .map(|q| q.text.as_str())
            .collect();
        assert_eq!(cold.len(), 10);
        let mut unique = cold.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), cold.len());
        assert!(self_check(&inputs, &EngineProfile::default()).is_ok());
    }
}
