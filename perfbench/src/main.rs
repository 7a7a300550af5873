//! GCX benchmark: end-to-end HTTP workloads against a child `gcx serve`,
//! and (with `--trace 1`) an in-process layer ladder with spans.
//!
//! ```text
//! perfbench --gcx-bin <path> --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. See `README.md`.

mod ladder;
mod loadgen;
mod server;
mod stats;
mod trace;
mod workload;

use loadgen::{Outcome, Pacing, Wire};
use server::{proc_cpu_s, Scrape, Server};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use trace::Recorder;
use workload::{Inputs, Plan, Workload, EVALUATORS, WORKERS};

const MIB: f64 = 1024.0 * 1024.0;
/// Set-up is timed this many times per run; the median is reported.
const SETUP_REPEATS: usize = 5;
/// The tail percentile keeps this many samples beyond it, within blocks
/// of this many consecutive requests: p95 for a full block, which on
/// `small-requests` lies among the one-in-ten cold requests.
const TAIL_BEYOND: usize = 10;
const TAIL_BLOCK: usize = 200;
/// Requests the set-up checks and the ladder run in process.
const IN_PROCESS_PAIRS: usize = 400;
/// Traced runs write their span files here, under the working directory.
const TRACE_DIR: &str = ".perfbench";

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

impl Metric {
    pub fn new(name: &'static str, unit: &'static str, value: f64) -> Metric {
        Metric { name, unit, value }
    }
}

struct Args {
    gcx_bin: PathBuf,
    workloads: Vec<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .map(String::as_str)
            .ok_or_else(|| format!("missing {flag}"))
    };
    let number = |flag: &str| -> Result<u64, String> {
        value(flag)?
            .parse()
            .map_err(|_| format!("{flag} takes a whole number"))
    };
    let workloads = match value("--workload")? {
        "all" => Workload::ALL.to_vec(),
        name => vec![Workload::parse(name).ok_or_else(|| format!("unknown workload {name}"))?],
    };
    let seconds = number("--seconds")?;
    if !(1..=600).contains(&seconds) {
        return Err("--seconds must be 1..=600".into());
    }
    Ok(Args {
        gcx_bin: PathBuf::from(value("--gcx-bin")?),
        workloads,
        seed: number("--seed")?,
        seconds,
        trace: match value("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace takes 0 or 1, not {other}")),
        },
    })
}

fn main() {
    let result = parse_args().and_then(|args| {
        args.workloads
            .iter()
            .map(|&w| run_workload(&args, w))
            .collect::<Result<Vec<()>, String>>()
    });
    if let Err(e) = result {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
}

fn run_workload(args: &Args, workload: Workload) -> Result<(), String> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let (workers, evaluators) = (WORKERS.min(nproc), EVALUATORS.min(nproc));
    let plan = workload.plan();
    let run = Duration::from_secs(args.seconds);
    // A traced run measures the workload twice, untraced and traced, in
    // halves of the run time.
    let pass = if args.trace { run / 2 } else { run };
    let attribution = [
        ("workload", workload.name().to_string()),
        ("seed", args.seed.to_string()),
        ("nproc", nproc.to_string()),
        ("scan_kernel", gcx_xml::scan::kernel_name().to_string()),
        ("workers", workers.to_string()),
        ("evaluators", evaluators.to_string()),
        ("commit", source_version()),
        ("plan", format!("{plan:?}")),
        ("seconds", args.seconds.to_string()),
        ("trace", u8::from(args.trace).to_string()),
    ];
    for (k, v) in &attribution {
        println!("# {k}: {v}");
    }

    // Benchmark-side set-up, not timed: inputs, references, self-check.
    let inputs = Inputs::generate(workload, args.seed, Pacing::open_requests(plan, pass))?;
    let checked = inputs.head_pairs(IN_PROCESS_PAIRS);
    let profile = workload::profile_engines(&inputs, checked, workload == Workload::Copy)?;
    println!("# self-check: {}", workload::self_check(&inputs, &profile)?);
    let wire = Wire::new(&inputs);

    // Timed set-up: spawn to healthy, plus one request per hot query.
    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    let mut server = None;
    for _ in 0..SETUP_REPEATS {
        drop(server.take());
        let t0 = Instant::now();
        let s = Server::start(&args.gcx_bin, workers, evaluators)?;
        let warm = loadgen::run(
            s.addr,
            &inputs,
            &inputs.warmup,
            &wire,
            1,
            closed_once(inputs.warmup.len()),
        )?;
        if let Some(f) = warm.failures.first() {
            return Err(format!("warm-up failed: {f}"));
        }
        setups.push(t0.elapsed().as_secs_f64());
        server = Some(s);
    }
    let server = server.expect("at least one set-up");
    let setup_s = stats::median(&setups).expect("set-up ran");
    if let Some((q1, q3)) = stats::quartiles(&setups) {
        println!("# setup_s over {SETUP_REPEATS} set-ups: median {setup_s:.4}, quartiles {q1:.4}..{q3:.4}");
    }

    if args.trace {
        return traced(
            &inputs,
            &server,
            &wire,
            plan,
            pass,
            evaluators,
            &attribution,
        );
    }

    let measured = measure(&server, &inputs, &wire, plan, pass)?;
    let mut metrics = vec![Metric::new("setup_s", "s", setup_s)];
    metrics.extend(end_to_end(&measured, &inputs.classes)?);
    if workload == Workload::Small {
        check_cold_misses(&measured)?;
    }
    report(workload, &measured.outcome, &metrics);
    Ok(())
}

/// A closed loop over one connection that sends `n` requests.
fn closed_once(n: usize) -> Pacing {
    Pacing::Closed {
        deadline: Instant::now() + Duration::from_secs(3600),
        limit: n,
        next: 0,
    }
}

/// One measured pass of the workload's own loop, with the server's CPU
/// time, peak memory and counters around it.
struct Measured {
    outcome: Outcome,
    server_cpu_s: f64,
    loadgen_cpu_s: f64,
    peak_rss_mb: f64,
    scrape: Scrape,
}

fn measure(
    server: &Server,
    inputs: &Inputs,
    wire: &Wire,
    plan: Plan,
    pass: Duration,
) -> Result<Measured, String> {
    let before = Scrape::take(server)?;
    let (cpu0, self0) = (server.cpu_s()?, proc_cpu_s("/proc/self/stat")?);
    let pacing = Pacing::new(plan, Instant::now(), pass);
    let outcome = loadgen::run(
        server.addr,
        inputs,
        &inputs.pairs,
        wire,
        plan.connections(),
        pacing,
    )?;
    let (cpu1, self1) = (server.cpu_s()?, proc_cpu_s("/proc/self/stat")?);
    let after = Scrape::take(server)?;
    let (user, system) = (cpu1.0 - cpu0.0, cpu1.1 - cpu0.1);
    println!(
        "# server CPU: {user:.2} s user, {system:.2} s system; {} reconnects",
        outcome.reconnects
    );
    for f in outcome.failures.iter().take(5) {
        eprintln!("perfbench: failed: {f}");
    }
    Ok(Measured {
        server_cpu_s: user + system,
        loadgen_cpu_s: (self1.0 + self1.1) - (self0.0 + self0.1),
        peak_rss_mb: server.peak_rss_mb()?,
        scrape: Scrape::delta(&before, &after),
        outcome,
    })
}

/// The end-to-end metrics of one pass (set-up time aside); `classes`
/// names the query classes latency medians are taken over.
fn end_to_end(m: &Measured, classes: &[String]) -> Result<Vec<Metric>, String> {
    let done = &m.outcome.done;
    let wall = m.outcome.wall.as_secs_f64();
    let input_mb = done.iter().map(|d| d.input_bytes).sum::<u64>() as f64 / MIB;
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    // The queries of a workload differ in cost, so the pooled median
    // would jump between them as the mix shifts: take the median per
    // query class and their geometric mean.
    let per_class = |f: &dyn Fn(&loadgen::Done) -> f64| -> Option<f64> {
        let medians: Vec<f64> = (0..classes.len())
            .filter_map(|c| {
                let v: Vec<f64> = done.iter().filter(|d| d.class == c).map(f).collect();
                stats::median(&v)
            })
            .collect();
        stats::geomean(&medians)
    };
    for (c, name) in classes.iter().enumerate() {
        let of = |f: fn(&loadgen::Done) -> Duration| -> Vec<f64> {
            done.iter()
                .filter(|d| d.class == c)
                .map(|d| ms(f(d)))
                .collect()
        };
        let (lat, ttfb) = (of(loadgen::Done::latency), of(loadgen::Done::ttfb));
        if let (Some(p50), Some(t50)) = (stats::median(&lat), stats::median(&ttfb)) {
            println!(
                "# {name:<14} {:>6} requests, latency p50 {p50:.3} ms, TTFB p50 {t50:.3} ms",
                lat.len()
            );
        }
    }
    let mut in_order: Vec<&loadgen::Done> = done.iter().collect();
    in_order.sort_unstable_by_key(|d| d.seq);
    let latencies: Vec<f64> = in_order.iter().map(|d| ms(d.latency())).collect();
    let (tail, pct, n, blocks) = stats::blocked_tail(&latencies, TAIL_BLOCK, TAIL_BEYOND)
        .ok_or_else(|| format!("{} completed requests: too few for a tail", done.len()))?;
    println!(
        "# latency_tail_ms: p{pct:.3} of {n} samples ({TAIL_BEYOND} beyond it), median of {blocks} block(s)"
    );
    let metrics = vec![
        Metric::new("input_mb_per_s", "MB/s", input_mb / wall),
        Metric::new("requests_per_s", "1/s", done.len() as f64 / wall),
        Metric::new(
            "latency_p50_ms",
            "ms",
            per_class(&|d| ms(d.latency())).ok_or("no latency samples")?,
        ),
        Metric::new("latency_tail_ms", "ms", tail),
        Metric::new(
            "ttfb_p50_ms",
            "ms",
            per_class(&|d| ms(d.ttfb())).ok_or("no TTFB samples")?,
        ),
        Metric::new(
            "server_cpu_ms_per_mb",
            "ms/MB",
            m.server_cpu_s * 1e3 / input_mb,
        ),
        Metric::new("server_peak_rss_mb", "MB", m.peak_rss_mb),
    ];
    for metric in &metrics {
        if !metric.value.is_finite() || metric.value <= 0.0 {
            return Err(format!("{} is {}", metric.name, metric.value));
        }
    }
    Ok(metrics)
}

/// `small-requests` must miss the compile cache on its cold share of
/// requests and only there.
fn check_cold_misses(m: &Measured) -> Result<(), String> {
    let share = m.scrape.cache_misses as f64 / m.outcome.attempted().max(1) as f64;
    let want = 1.0 / workload::COLD_EVERY as f64;
    println!("# compile-cache misses: {share:.4} of requests (cold share {want:.4})");
    if (share - want).abs() > 0.02 {
        return Err(format!(
            "small-requests self-check failed: cache misses on {share:.4} of requests, not ≈ {want}"
        ));
    }
    Ok(())
}

fn report(workload: Workload, outcome: &Outcome, metrics: &[Metric]) {
    for m in metrics {
        println!(
            "{:<16} {:<34} {:>14.4} {}",
            workload.name(),
            m.name,
            m.value,
            m.unit
        );
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failures.is_empty(),
        outcome.attempted(),
        outcome.failures.len(),
        body.join(", ")
    );
}

/// The traced run: the ladder in process, an HTTP rung over one
/// connection, then the workload's own loop untraced and traced.
fn traced(
    inputs: &Inputs,
    server: &Server,
    wire: &Wire,
    plan: Plan,
    pass: Duration,
    evaluators: usize,
    attribution: &[(&str, String)],
) -> Result<(), String> {
    let mut rec = Recorder::new();
    let pairs = inputs.head_pairs(IN_PROCESS_PAIRS);
    let ladder = ladder::run(inputs, pairs, &mut rec, evaluators)?;
    let mut metrics = ladder.metrics;
    let mut rungs: Vec<(&str, f64)> = ladder.rungs.iter().map(|r| (r.name, r.pass_s)).collect();

    // net rung: the same requests over HTTP, one connection, one pass.
    let http = loadgen::run(
        server.addr,
        inputs,
        pairs,
        wire,
        1,
        closed_once(pairs.len()),
    )?;
    if let Some(f) = http.failures.first() {
        return Err(format!("HTTP rung: {f}"));
    }
    record_requests(&mut rec, &http, 0);
    rungs.push(("net.http", http.wall.as_secs_f64()));
    let session_s = rungs
        .iter()
        .find(|r| r.0 == "service.session")
        .map_or(0.0, |r| r.1);
    metrics.push(Metric::new(
        "net.http_over_session_ratio",
        "1",
        session_s / http.wall.as_secs_f64(),
    ));

    // The workload's own loop, untraced and then traced.
    let untraced = measure(server, inputs, wire, plan, pass)?;
    let measured = measure(server, inputs, wire, plan, pass)?;
    record_requests(&mut rec, &measured.outcome, 1_000_000);
    let done = &measured.outcome.done;
    let n = done.len().max(1) as f64;
    let us = |f: fn(&loadgen::Done) -> Duration| {
        let v: Vec<f64> = done.iter().map(|d| f(d).as_secs_f64() * 1e6).collect();
        stats::median(&v).unwrap_or(0.0)
    };
    let lags: Vec<f64> = done.iter().map(|d| d.lag().as_secs_f64() * 1e3).collect();
    let s = &measured.scrape;
    let wall = measured.outcome.wall.as_secs_f64();
    metrics.extend([
        Metric::new("net.upload_us", "us", us(|d| d.upload_end - d.sent)),
        Metric::new(
            "net.ttfb_us",
            "us",
            us(|d| d.first_byte.saturating_duration_since(d.sent)),
        ),
        Metric::new(
            "net.download_us",
            "us",
            us(|d| d.end.saturating_duration_since(d.first_byte)),
        ),
        Metric::new("net.queue_wait_p50_us", "us", s.queue_wait_p50_us()),
        Metric::new(
            "net.epoll_wakeups_per_request",
            "1",
            s.epoll_wakeups as f64 / n,
        ),
        Metric::new("net.evaluator_steps_per_request", "1", s.steps as f64 / n),
        Metric::new(
            "loadgen.lag_p50_ms",
            "ms",
            stats::median(&lags).unwrap_or(0.0),
        ),
        Metric::new(
            "loadgen.lag_max_ms",
            "ms",
            lags.iter().copied().fold(0.0, f64::max),
        ),
        Metric::new("loadgen.cpu_share", "1", measured.loadgen_cpu_s / wall),
        Metric::new(
            "error_ratio",
            "1",
            measured.outcome.failures.len() as f64 / measured.outcome.attempted().max(1) as f64,
        ),
    ]);

    // Ladder: each rung's cost is its difference from the rung below.
    let mb = pairs
        .iter()
        .map(|p| inputs.docs[p.doc].len())
        .sum::<usize>() as f64
        / MIB;
    println!(
        "# ladder over {} requests ({mb:.2} MB per pass):",
        pairs.len()
    );
    let mut below = 0.0;
    for (name, s) in &rungs {
        println!(
            "#   {name:<18} {:>10.3} ms/pass {:>10.1} MB/s   +{:>9.3} ms over the rung below",
            s * 1e3,
            mb / s,
            (s - below) * 1e3
        );
        below = *s;
    }
    println!("# self time by layer and span (spans minus their children, summed):");
    for ((layer, name), ns) in trace::self_time(rec.spans()) {
        println!("#   {layer:<12} {name:<20} {:>12.3} ms", ns as f64 / 1e6);
    }
    println!("# tracing overhead (traced pass minus untraced pass):");
    let (u, t) = (
        end_to_end(&untraced, &inputs.classes)?,
        end_to_end(&measured, &inputs.classes)?,
    );
    for (u, t) in u.iter().zip(&t) {
        println!(
            "#   {:<22} {:>12.4} - {:>12.4} = {:>+10.4} {}",
            u.name,
            t.value,
            u.value,
            t.value - u.value,
            u.unit
        );
    }
    std::fs::create_dir_all(TRACE_DIR).map_err(|e| format!("{TRACE_DIR}: {e}"))?;
    let path = Path::new(TRACE_DIR).join(format!(
        "trace-{}-{}.json",
        inputs.workload.name(),
        inputs.seed
    ));
    std::fs::write(&path, trace::chrome_json(rec.spans(), attribution))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("# spans: {} in {}", rec.spans().len(), path.display());
    let mut all = measured.outcome;
    all.failures.extend(untraced.outcome.failures);
    report(inputs.workload, &all, &metrics);
    Ok(())
}

/// Client-side spans of completed requests: the request and, beneath
/// it, three phases that partition it: upload, waiting for the first
/// response byte after the upload, and the rest of the download.
fn record_requests(rec: &mut Recorder, outcome: &Outcome, id_base: u64) {
    for d in &outcome.done {
        let id = id_base + d.seq as u64;
        let parent = Some(rec.record("net.request", "net", id, None, d.sent, d.end));
        let first_byte = d.first_byte.max(d.upload_end);
        rec.record("net.upload", "net", id, parent, d.sent, d.upload_end);
        rec.record("net.wait", "net", id, parent, d.upload_end, first_byte);
        rec.record("net.download", "net", id, parent, first_byte, d.end);
    }
}

/// The commit of a git checkout, read from `.git` directly; otherwise
/// a fingerprint of the sources, so results stay attributable in an
/// export without history.
fn source_version() -> String {
    let git = Path::new(".git");
    if let Ok(head) = std::fs::read_to_string(git.join("HEAD")) {
        let head = head.trim();
        let Some(reference) = head.strip_prefix("ref: ") else {
            return head.to_string();
        };
        if let Ok(id) = std::fs::read_to_string(git.join(reference)) {
            return id.trim().to_string();
        }
        let packed = std::fs::read_to_string(git.join("packed-refs")).unwrap_or_default();
        if let Some(line) = packed.lines().find(|l| l.ends_with(reference)) {
            return line.split(' ').next().unwrap_or_default().to_string();
        }
    }
    let mut files = Vec::new();
    for root in ["Cargo.toml", "Cargo.lock", "src", "crates", "perfbench/src"] {
        collect_files(Path::new(root), &mut files);
    }
    files.sort();
    // FNV-1a over every path and its contents.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in &files {
        let bytes = std::fs::read(f).unwrap_or_default();
        for b in f.to_string_lossy().bytes().chain(bytes) {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("source-fnv1a:{h:016x} ({} files)", files.len())
}

fn collect_files(path: &Path, out: &mut Vec<PathBuf>) {
    if path.is_file() {
        out.push(path.to_path_buf());
    } else if let Ok(entries) = std::fs::read_dir(path) {
        for e in entries.flatten() {
            collect_files(&e.path(), out);
        }
    }
}
