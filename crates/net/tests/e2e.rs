//! End-to-end wire tests: a real server on an ephemeral port, real
//! sockets, concurrent clients, disconnects — asserting byte-identical
//! output vs the in-process engine, clean cancellation, live `/stats`
//! sampling, and a worker pool that does not leak threads.

use gcx_net::{client, http, GcxServer, NetConfig};
use gcx_xml::TagInterner;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::{RwLock, RwLockReadGuard};
use std::time::Duration;

const QUERY: &str = "<r>{ for $b in /bib/book return $b/title }</r>";
const QUERY2: &str =
    "<r>{ for $b in /bib/book return if (exists($b/price)) then $b/title else () }</r>";

fn reference_output(query: &str, doc: &[u8]) -> Vec<u8> {
    let mut tags = TagInterner::new();
    let compiled = gcx_query::compile_default(query, &mut tags).expect("compile");
    let mut out = Vec::new();
    gcx_core::run_gcx(&compiled, &mut tags, doc, &mut out).expect("run");
    out
}

fn make_doc(books: usize) -> Vec<u8> {
    let mut doc = String::from("<bib>");
    for i in 0..books {
        doc.push_str(&format!(
            "<book><title>Title {i}</title>{}</book>",
            if i % 2 == 0 { "<price>9</price>" } else { "" }
        ));
    }
    doc.push_str("</bib>");
    doc.into_bytes()
}

fn query_path(query: &str) -> String {
    format!("/query?xq={}", http::percent_encode(query))
}

/// The tests in this file share one process, and
/// `eight_concurrent_clients_mixed_queries_and_chunked_uploads` counts
/// the process's server threads: it holds this lock exclusively, so no
/// other test's server threads come and go while it samples; the others
/// share it.
static PROCESS: RwLock<()> = RwLock::new(());

fn shared_process() -> RwLockReadGuard<'static, ()> {
    PROCESS.read().unwrap_or_else(|p| p.into_inner())
}

/// Threads of this process named like GCX server threads (acceptor,
/// connection workers, pool evaluators, dedicated session evaluators all
/// start with `gcx-`). The test harness's own threads and the tests'
/// client threads do not count.
#[cfg(target_os = "linux")]
fn server_threads() -> usize {
    std::fs::read_dir("/proc/self/task").map_or(0, |tasks| {
        tasks
            .filter_map(Result::ok)
            .filter(|t| {
                std::fs::read_to_string(t.path().join("comm")).is_ok_and(|c| c.starts_with("gcx-"))
            })
            .count()
    })
}

#[test]
fn single_request_matches_in_process_engine() {
    let _process = shared_process();
    let server = GcxServer::bind("127.0.0.1:0", NetConfig::default()).unwrap();
    let addr = server.local_addr();
    let doc = make_doc(50);
    let resp = client::post(addr, &query_path(QUERY), &doc).unwrap();
    assert_eq!(resp.status, 200, "body: {}", resp.text());
    assert_eq!(resp.body, reference_output(QUERY, &doc));
    assert_eq!(server.active_sessions(), 0, "registry drained");
    server.shutdown();
}

#[test]
fn named_query_and_health_endpoints() {
    let _process = shared_process();
    let config = NetConfig {
        queries: vec![("titles".to_string(), QUERY.to_string())],
        ..Default::default()
    };
    let server = GcxServer::bind("127.0.0.1:0", config).unwrap();
    let addr = server.local_addr();
    let doc = make_doc(3);
    let resp = client::post(addr, "/query?name=titles", &doc).unwrap();
    assert_eq!(resp.status, 200);
    assert_eq!(resp.body, reference_output(QUERY, &doc));
    let missing = client::post(addr, "/query?name=nope", &doc).unwrap();
    assert_eq!(missing.status, 404);
    let health = client::get(addr, "/healthz").unwrap();
    assert_eq!(health.status, 200);
    let nowhere = client::get(addr, "/nowhere").unwrap();
    assert_eq!(nowhere.status, 404);
    server.shutdown();
}

#[test]
fn compile_error_yields_400_and_stream_error_yields_422() {
    let _process = shared_process();
    let server = GcxServer::bind("127.0.0.1:0", NetConfig::default()).unwrap();
    let addr = server.local_addr();
    let bad_query = client::post(addr, &query_path("<r>{ $undefined }</r>"), b"<a/>").unwrap();
    assert_eq!(bad_query.status, 400);
    assert!(bad_query.text().contains("compile"), "{}", bad_query.text());
    // Malformed XML whose error surfaces before any output byte.
    let bad_doc = client::post(addr, &query_path(QUERY), b"</nope>").unwrap();
    assert_eq!(bad_doc.status, 422, "body: {}", bad_doc.text());
    assert_eq!(server.active_sessions(), 0);
    server.shutdown();
}

/// Opens a connection and sends a `POST /query` head announcing
/// `body_len` bytes of body, followed by `first` (head and `first` in one
/// write, so they arrive together).
fn open_post(addr: std::net::SocketAddr, query: &str, body_len: usize, first: &[u8]) -> TcpStream {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    let mut req = format!(
        "POST {} HTTP/1.1\r\nHost: gcx\r\nContent-Length: {body_len}\r\n\
         Connection: close\r\n\r\n",
        query_path(query)
    )
    .into_bytes();
    req.extend_from_slice(first);
    stream.write_all(&req).unwrap();
    stream
}

/// Splits raw response bytes into the head and the decoded chunked body
/// received so far; the flag tells whether the terminating chunk came.
fn decode_chunked(raw: &[u8]) -> Option<(String, Vec<u8>, bool)> {
    let head_end = raw.windows(4).position(|w| w == b"\r\n\r\n")? + 4;
    let head = String::from_utf8_lossy(&raw[..head_end]).into_owned();
    let (mut rest, mut body) = (&raw[head_end..], Vec::new());
    loop {
        let Some(line_end) = rest.windows(2).position(|w| w == b"\r\n") else {
            return Some((head, body, false));
        };
        let size =
            usize::from_str_radix(std::str::from_utf8(&rest[..line_end]).unwrap(), 16).unwrap();
        if size == 0 {
            return Some((head, body, true));
        }
        let data = &rest[line_end + 2..];
        if data.len() < size + 2 {
            return Some((head, body, false));
        }
        body.extend_from_slice(&data[..size]);
        rest = &data[size + 2..];
    }
}

/// The document fails after results were produced, but the whole upload
/// arrived before any of them went out: the output is held until the
/// verdict, so the client gets a clean 422 instead of a truncated 200.
#[test]
fn failure_before_any_output_is_sent_gets_a_clean_4xx() {
    let _process = shared_process();
    let server = GcxServer::bind("127.0.0.1:0", NetConfig::default()).unwrap();
    let doc = b"<bib><book><title>A</title></book><book><title>B</title></book><oops></bib>";
    let mut stream = open_post(server.local_addr(), QUERY, doc.len(), doc);
    let resp = client::read_response(&mut stream).unwrap();
    assert_eq!(resp.status, 422, "body: {}", resp.text());
    assert!(resp.text().contains("query failed"), "{}", resp.text());
    assert_eq!(server.active_sessions(), 0);
    server.shutdown();
}

/// Once the 200 head and output are on the wire, a failure can only
/// abort the body: the client gets every result produced before the
/// failure — including those produced after the upload completed — and
/// a chunked body without its terminating chunk, then the close.
#[test]
fn failure_after_output_started_aborts_the_chunked_body() {
    let _process = shared_process();
    let server = GcxServer::bind("127.0.0.1:0", NetConfig::default()).unwrap();
    let first: &[u8] = b"<bib><book><title>A</title></book>";
    let rest: &[u8] = b"<book><title>B</title></book><oops></bib>";
    let mut stream = open_post(server.local_addr(), QUERY, first.len() + rest.len(), first);
    // Wait until the first result is on the wire: the head went out.
    let mut raw = Vec::new();
    let mut buf = [0u8; 4096];
    loop {
        let n = stream.read(&mut buf).unwrap();
        assert!(n > 0, "server closed before the first result");
        raw.extend_from_slice(&buf[..n]);
        if decode_chunked(&raw).is_some_and(|(_, body, _)| body.ends_with(b"<title>A</title>")) {
            break;
        }
    }
    stream.write_all(rest).unwrap();
    loop {
        match stream.read(&mut buf) {
            Ok(0) | Err(_) => break,
            Ok(n) => raw.extend_from_slice(&buf[..n]),
        }
    }
    let (head, body, terminated) = decode_chunked(&raw).expect("a response head");
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    assert_eq!(
        String::from_utf8_lossy(&body),
        "<r><title>A</title><title>B</title>"
    );
    assert!(
        !terminated,
        "a failed body must not end with the terminating chunk"
    );
    server.shutdown();
}

#[test]
fn eight_concurrent_clients_mixed_queries_and_chunked_uploads() {
    let _process = PROCESS.write().unwrap_or_else(|p| p.into_inner());
    let server = GcxServer::bind(
        "127.0.0.1:0",
        NetConfig {
            workers: 4,
            evaluators: 8,
            ..Default::default()
        },
    )
    .unwrap();
    let addr = server.local_addr();
    // A spawned thread names itself once it runs: wait until every
    // server thread carries its name before taking the baseline.
    #[cfg(target_os = "linux")]
    let threads_before = {
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while server_threads() < server.thread_count() {
            assert!(
                std::time::Instant::now() < deadline,
                "{} of {} server threads named after 10 s",
                server_threads(),
                server.thread_count()
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        server_threads()
    };
    #[cfg(not(target_os = "linux"))]
    let threads_before = 0usize;

    let doc = make_doc(400);
    let expected_q1 = reference_output(QUERY, &doc);
    let expected_q2 = reference_output(QUERY2, &doc);
    let (results, threads_during): (Vec<_>, usize) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..8)
            .map(|i| {
                let doc = &doc;
                scope.spawn(move || {
                    let query = if i % 2 == 0 { QUERY } else { QUERY2 };
                    if i % 3 == 0 {
                        // Streamed chunked upload in small pieces.
                        let mut ps = client::PostStream::open(addr, &query_path(query)).unwrap();
                        for chunk in doc.chunks(1024) {
                            ps.send_chunk(chunk).unwrap();
                        }
                        (i, ps.finish().unwrap())
                    } else {
                        (i, client::post(addr, &query_path(query), doc).unwrap())
                    }
                })
            })
            .collect();
        // Sample the server thread count until every client is done, so
        // the peak covers the moments sessions are open.
        #[allow(unused_mut)]
        let mut sampled = 0usize;
        #[cfg(target_os = "linux")]
        while !handles.iter().all(|h| h.is_finished()) {
            sampled = sampled.max(server_threads());
            std::thread::yield_now();
        }
        (
            handles.into_iter().map(|h| h.join().unwrap()).collect(),
            sampled,
        )
    });
    for (i, resp) in results {
        assert_eq!(resp.status, 200, "client {i}");
        let expected = if i % 2 == 0 {
            &expected_q1
        } else {
            &expected_q2
        };
        assert_eq!(
            resp.body, *expected,
            "client {i}: wire output must be byte-identical to run_gcx"
        );
    }
    // No worker-pool leak: the server's thread count is fixed, so the
    // burst of eight sessions adds no server thread.
    #[cfg(target_os = "linux")]
    assert!(
        threads_during <= threads_before,
        "server must not spawn per-session threads: {threads_before} before, \
         {threads_during} during"
    );
    #[cfg(not(target_os = "linux"))]
    let _ = (threads_before, threads_during);
    assert_eq!(server.active_sessions(), 0, "all sessions unregistered");
    assert_eq!(
        server
            .counters()
            .sessions_completed
            .load(std::sync::atomic::Ordering::Relaxed),
        8
    );
    server.shutdown();
}

#[test]
fn mid_stream_disconnect_cancels_session_cleanly() {
    let _process = shared_process();
    let server = GcxServer::bind("127.0.0.1:0", NetConfig::default()).unwrap();
    let addr = server.local_addr();
    let doc = make_doc(100);
    {
        let mut ps = client::PostStream::open(addr, &query_path(QUERY)).unwrap();
        ps.send_chunk(&doc[..doc.len() / 2]).unwrap();
        // Give the server time to open the session and start evaluating.
        for _ in 0..200 {
            if server.active_sessions() > 0 {
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(server.active_sessions(), 1, "session is live mid-stream");
        // Drop without finishing: mid-stream client disconnect.
    }
    for _ in 0..500 {
        if server.active_sessions() == 0 {
            break;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(
        server.active_sessions(),
        0,
        "disconnect cancels the session"
    );
    assert_eq!(
        server
            .counters()
            .sessions_failed
            .load(std::sync::atomic::Ordering::Relaxed),
        1
    );
    // The server still serves new requests afterwards.
    let resp = client::post(addr, &query_path(QUERY), &doc).unwrap();
    assert_eq!(resp.status, 200);
    assert_eq!(resp.body, reference_output(QUERY, &doc));
    server.shutdown();
}

#[test]
fn stats_report_live_mid_stream_buffer_figures() {
    let _process = shared_process();
    let server = GcxServer::bind("127.0.0.1:0", NetConfig::default()).unwrap();
    let addr = server.local_addr();
    let doc = make_doc(100);
    let mut ps = client::PostStream::open(addr, &query_path(QUERY)).unwrap();
    // Feed only part of the document — the session stays open.
    ps.send_chunk(&doc[..doc.len() / 2]).unwrap();
    let mut saw_live_session = false;
    for _ in 0..500 {
        let stats = client::get(addr, "/stats").unwrap();
        assert_eq!(stats.status, 200);
        let json = stats.text();
        assert!(json.contains("\"schema\": \"gcx-net-stats/5\""));
        // A live (mid-stream!) session whose engine has already created
        // buffer nodes — the sampling the finish()-only reports could
        // never give us.
        if json.contains("\"active_sessions\": 1") && has_positive_field(&json, "nodes_created") {
            assert!(json.contains("\"peak_nodes\""));
            assert!(json.contains("\"text_arena_bytes\""));
            saw_live_session = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    assert!(saw_live_session, "live session stats never appeared");
    ps.send_chunk(&doc[doc.len() / 2..]).unwrap();
    let resp = ps.finish().unwrap();
    assert_eq!(resp.status, 200);
    assert_eq!(resp.body, reference_output(QUERY, &doc));
    // After completion the registry is empty again and counters moved.
    let stats = client::get(addr, "/stats").unwrap().text();
    assert!(stats.contains("\"active_sessions\": 0"), "{stats}");
    assert!(stats.contains("\"sessions_completed\": 1"), "{stats}");
    server.shutdown();
}

#[test]
fn metrics_exposition_covers_requests_stages_and_sessions() {
    let _process = shared_process();
    let server = GcxServer::bind("127.0.0.1:0", NetConfig::default()).unwrap();
    let addr = server.local_addr();
    // Large enough that the sampled stage timers (1 in 512 pump steps)
    // fire several times per request.
    let doc = make_doc(200);
    for _ in 0..3 {
        let resp = client::post(addr, &query_path(QUERY), &doc).unwrap();
        assert_eq!(resp.status, 200);
    }
    let metrics = client::get(addr, "/metrics").unwrap();
    assert_eq!(metrics.status, 200);
    let text = metrics.text();
    // Exposition format: TYPE lines, counters, histogram series.
    assert!(text.contains("# TYPE gcx_requests_total counter"), "{text}");
    assert!(
        text.contains("# TYPE gcx_request_duration_seconds histogram"),
        "{text}"
    );
    assert!(text.contains("gcx_sessions_completed_total 3"), "{text}");
    assert!(
        metric_value(&text, "gcx_request_duration_seconds_count{class=\"query\"}") >= 1,
        "query latency series non-empty after traffic: {text}"
    );
    assert!(
        metric_value(&text, "gcx_request_ttfb_seconds_count{class=\"all\"}") >= 1,
        "{text}"
    );
    assert!(
        metric_value(&text, "gcx_conn_queue_wait_seconds_count{class=\"all\"}") >= 1,
        "{text}"
    );
    assert!(
        metric_value(
            &text,
            "gcx_engine_stage_duration_seconds_count{stage=\"lex\"}"
        ) >= 1,
        "sampled engine stages populated: {text}"
    );
    assert!(
        metric_value(
            &text,
            "gcx_session_phase_duration_seconds_count{phase=\"run\"}"
        ) >= 1,
        "{text}"
    );
    assert!(
        text.contains("gcx_request_duration_seconds_bucket{class=\"query\",le=\"+Inf\"}"),
        "{text}"
    );
    // Every non-comment line is `name[{labels}] value`.
    for line in text.lines() {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (series, value) = line.rsplit_once(' ').expect("series and value");
        assert!(!series.is_empty(), "bad line: {line}");
        assert!(value.parse::<f64>().is_ok(), "bad value in line: {line}");
    }
    // /stats serves the same quantiles in the schema-3 latency section.
    let stats = client::get(addr, "/stats").unwrap().text();
    assert!(stats.contains("\"schema\": \"gcx-net-stats/5\""), "{stats}");
    assert!(stats.contains("\"latency\""), "{stats}");
    assert!(stats.contains("\"engine_stages\""), "{stats}");
    assert!(stats.contains("\"p99_us\""), "{stats}");
    assert!(stats.contains("\"queue_wait\""), "{stats}");
    server.shutdown();
}

/// The integer value of one exposition series, 0 when absent.
fn metric_value(text: &str, series: &str) -> u64 {
    text.lines()
        .find_map(|l| l.strip_prefix(series))
        .and_then(|rest| rest.trim().parse::<u64>().ok())
        .unwrap_or(0)
}

/// True when the JSON text contains `"name": <positive integer>`.
fn has_positive_field(json: &str, name: &str) -> bool {
    let needle = format!("\"{name}\": ");
    json.match_indices(&needle).any(|(i, _)| {
        let rest = &json[i + needle.len()..];
        let digits: String = rest.chars().take_while(|c| c.is_ascii_digit()).collect();
        digits.parse::<u64>().map(|v| v > 0).unwrap_or(false)
    })
}

#[test]
fn document_larger_than_memory_budget_streams_through() {
    let _process = shared_process();
    // The acceptance shape: a document far larger than the global memory
    // budget flows end to end because the engine buffer stays minimized
    // and I/O is bounded — the budget only trips if buffering actually
    // grows, which GCX prevents.
    let server = GcxServer::bind(
        "127.0.0.1:0",
        NetConfig {
            service: gcx_service::ServiceConfig {
                memory_budget: Some(256 * 1024),
                ..Default::default()
            },
            ..Default::default()
        },
    )
    .unwrap();
    let addr = server.local_addr();
    let doc = make_doc(40_000); // ~1.8 MB, 7× the budget
    assert!(doc.len() > 4 * 256 * 1024);
    let ps = client::PostStream::open(addr, &query_path(QUERY)).unwrap();
    let chunks: Vec<Vec<u8>> = doc.chunks(32 * 1024).map(<[u8]>::to_vec).collect();
    let resp = ps.stream_and_finish(chunks).unwrap();
    assert_eq!(resp.status, 200);
    assert_eq!(resp.body, reference_output(QUERY, &doc));
    let stats = client::get(addr, "/stats").unwrap().text();
    assert!(stats.contains("\"budget\": { \"limit\": 262144"), "{stats}");
    server.shutdown();
}

#[test]
fn shutdown_with_connection_in_flight_does_not_hang() {
    let _process = shared_process();
    let server = GcxServer::bind("127.0.0.1:0", NetConfig::default()).unwrap();
    let addr = server.local_addr();
    let doc = make_doc(50);
    let mut ps = client::PostStream::open(addr, &query_path(QUERY)).unwrap();
    ps.send_chunk(&doc[..100]).unwrap();
    for _ in 0..200 {
        if server.active_sessions() > 0 {
            break;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    server.shutdown(); // must cancel the in-flight session and join
    drop(ps);
}
