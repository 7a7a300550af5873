//! Spans recorded by the benchmark around its calls into each layer.
//!
//! A span has a name, a layer, a start and an end, the span that caused
//! it, and the id shared by every span of one request. Spans stay in
//! memory and are written out once, at the end of the traced run, as
//! Chrome trace-event JSON (the format of the server's `GET /trace`), so
//! Perfetto loads the file.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Index of a span in its [`Recorder`].
pub type SpanId = usize;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub layer: &'static str,
    pub request: u64,
    pub parent: Option<SpanId>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// In-memory span store.
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a finished span and returns its id.
    pub fn record(
        &mut self,
        name: &'static str,
        layer: &'static str,
        request: u64,
        parent: Option<SpanId>,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        self.spans.push(Span {
            name,
            layer,
            request,
            parent,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        });
        self.spans.len() - 1
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time per (layer, span name), in nanoseconds: each span's
/// duration minus the part of its interval that its children cover
/// (overlapping children count once), summed.
pub fn self_time(spans: &[Span]) -> BTreeMap<(&'static str, &'static str), u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    let mut by_name = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let covered = covered_ns(s.start_ns, s.end_ns, &mut children[i]);
        let own = s.end_ns.saturating_sub(s.start_ns).saturating_sub(covered);
        *by_name.entry((s.layer, s.name)).or_insert(0) += own;
    }
    by_name
}

/// Length of the union of `intervals`, clipped to `[start, end)`.
fn covered_ns(start: u64, end: u64, intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut cursor = start;
    for &(a, b) in intervals.iter() {
        let a = a.max(cursor);
        let b = b.min(end);
        if b > a {
            covered += b - a;
            cursor = b;
        }
    }
    covered
}

/// Chrome trace-event JSON: one process, one track per request id, the
/// layer as the category, and the parent span in `args`. `metadata`
/// pairs are written as a top-level `metadata` object.
pub fn chrome_json(spans: &[Span], metadata: &[(&str, String)]) -> String {
    let mut out = String::with_capacity(128 * spans.len() + 256);
    out.push_str("{\"displayTimeUnit\":\"ms\",\"metadata\":{");
    for (i, (k, v)) in metadata.iter().enumerate() {
        let sep = if i > 0 { "," } else { "" };
        let _ = write!(out, "{sep}\"{}\":\"{}\"", escape(k), escape(v));
    }
    out.push_str("},\"traceEvents\":[");
    out.push_str(
        "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\
         \"args\":{\"name\":\"perfbench\"}}",
    );
    for (i, s) in spans.iter().enumerate() {
        let dur = s.end_ns.saturating_sub(s.start_ns);
        let _ = write!(
            out,
            ",{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\
             \"ts\":{}.{:03},\"dur\":{}.{:03},\"args\":{{\"span\":{i},\"parent\":{}}}}}",
            s.name,
            s.layer,
            s.request,
            s.start_ns / 1000,
            s.start_ns % 1000,
            dur / 1000,
            dur % 1000,
            s.parent.map_or("null".to_string(), |p| p.to_string()),
        );
    }
    out.push_str("]}\n");
    out
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<SpanId>, start: u64, end: u64) -> Span {
        Span {
            name,
            layer: "net",
            request: 1,
            parent,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = vec![
            // request 0..100 with two overlapping children (10..60 and
            // 40..80 cover 10..80) and a grandchild inside the first.
            span("request", None, 0, 100),
            span("upload", Some(0), 10, 60),
            span("download", Some(0), 40, 80),
            span("feed", Some(1), 20, 30),
        ];
        let by = self_time(&spans);
        assert_eq!(by[&("net", "request")], 100 - 70);
        assert_eq!(by[&("net", "upload")], 50 - 10);
        assert_eq!(by[&("net", "download")], 40);
        assert_eq!(by[&("net", "feed")], 10);
    }

    #[test]
    fn children_outside_the_parent_are_clipped() {
        let spans = vec![span("a", None, 10, 20), span("b", Some(0), 15, 40)];
        let by = self_time(&spans);
        assert_eq!(by[&("net", "a")], 5);
        assert_eq!(by[&("net", "b")], 25);
    }

    #[test]
    fn chrome_json_has_every_span() {
        let spans = vec![
            span("request", None, 1500, 4000),
            span("upload", Some(0), 2000, 3000),
        ];
        let json = chrome_json(&spans, &[("seed", "7".into())]);
        assert!(json.starts_with("{\"displayTimeUnit\""), "{json}");
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 2, "{json}");
        assert!(json.contains("\"ts\":1.500,\"dur\":2.500"), "{json}");
        assert!(json.contains("\"parent\":0"), "{json}");
        assert!(json.contains("\"seed\":\"7\""), "{json}");
    }
}
