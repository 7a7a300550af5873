//! The load generator: one thread multiplexing every connection with
//! `ppoll(2)`, so uploads and downloads of a request overlap (a large
//! response never backs up behind its own upload) without a thread per
//! direction.
//!
//! Each request is a chunked `POST /query?xq=…` over a keep-alive
//! connection. Its response is decoded as it arrives and compared byte
//! for byte with the reference output.

use crate::workload::{Inputs, Pair, Plan, CHUNK};
use gcx_net::http::{self, ChunkedDecoder};
use std::collections::VecDeque;
use std::io::{self, IoSlice, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

/// A request with no progress for this long fails the run.
const STALL_LIMIT: Duration = Duration::from_secs(30);

/// Request heads per query and chunk-encoded bodies per document, built
/// once at set-up.
pub struct Wire {
    heads: Vec<Vec<u8>>,
    bodies: Vec<Vec<u8>>,
}

impl Wire {
    pub fn new(inputs: &Inputs) -> Wire {
        let heads = inputs
            .queries
            .iter()
            .map(|q| {
                format!(
                    "POST /query?xq={} HTTP/1.1\r\nHost: gcx\r\nTransfer-Encoding: chunked\r\n\r\n",
                    http::percent_encode(&q.text)
                )
                .into_bytes()
            })
            .collect();
        let bodies = inputs
            .docs
            .iter()
            .map(|doc| {
                let mut body = Vec::with_capacity(doc.len() + doc.len() / CHUNK * 12 + 16);
                for chunk in doc.chunks(CHUNK) {
                    http::encode_chunk(chunk, &mut body);
                }
                body.extend_from_slice(http::FINAL_CHUNK);
                body
            })
            .collect();
        Wire { heads, bodies }
    }
}

/// Decides which request a free connection sends next, and from which
/// instant its latency counts.
pub enum Pacing {
    /// Send while `now < deadline`, at most `limit` requests in all; a
    /// request is due when its connection became free.
    Closed {
        deadline: Instant,
        limit: usize,
        next: usize,
    },
    /// Request `i` is due at `start + i·interval`, sent or not.
    Open {
        start: Instant,
        interval: Duration,
        total: usize,
        next: usize,
    },
}

impl Pacing {
    pub fn new(plan: Plan, start: Instant, run: Duration) -> Pacing {
        match plan {
            Plan::Closed { .. } => Pacing::Closed {
                deadline: start + run,
                limit: usize::MAX,
                next: 0,
            },
            Plan::Open { rate_per_s, .. } => Pacing::Open {
                start,
                interval: Duration::from_secs_f64(1.0 / rate_per_s),
                total: (rate_per_s * run.as_secs_f64()).round() as usize,
                next: 0,
            },
        }
    }

    /// Requests an open loop of `plan` sends in `run`.
    pub fn open_requests(plan: Plan, run: Duration) -> usize {
        match Pacing::new(plan, Instant::now(), run) {
            Pacing::Open { total, .. } => total,
            Pacing::Closed { .. } => 0,
        }
    }

    /// The next request for a connection free since `free_since`, if
    /// one is due at `now`: its sequence number and due instant.
    pub fn take(&mut self, now: Instant, free_since: Instant) -> Option<(usize, Instant)> {
        match self {
            Pacing::Closed {
                deadline,
                limit,
                next,
            } => {
                if now >= *deadline || *next >= *limit {
                    return None;
                }
                *next += 1;
                Some((*next - 1, free_since))
            }
            Pacing::Open {
                start,
                interval,
                total,
                next,
            } => {
                let due = *start + interval.mul_f64(*next as f64);
                if *next >= *total || due > now {
                    return None;
                }
                *next += 1;
                Some((*next - 1, due))
            }
        }
    }

    /// When the next open-loop request falls due (`None` for a closed
    /// loop or an exhausted schedule).
    pub fn next_due(&self) -> Option<Instant> {
        match self {
            Pacing::Open {
                start,
                interval,
                total,
                next,
            } if next < total => Some(*start + interval.mul_f64(*next as f64)),
            _ => None,
        }
    }

    /// No request will be handed out any more.
    pub fn exhausted(&self, now: Instant) -> bool {
        match self {
            Pacing::Closed {
                deadline,
                limit,
                next,
            } => now >= *deadline || next >= limit,
            Pacing::Open { total, next, .. } => next >= total,
        }
    }
}

/// One completed request.
#[derive(Debug, Clone)]
pub struct Done {
    pub seq: usize,
    pub class: usize,
    /// Latency counts from here: the send time in a closed loop (its
    /// connection was free), the schedule slot in an open loop.
    pub due: Instant,
    pub sent: Instant,
    pub upload_end: Instant,
    pub first_byte: Instant,
    pub end: Instant,
    pub input_bytes: u64,
}

impl Done {
    pub fn latency(&self) -> Duration {
        self.end - self.due
    }
    pub fn ttfb(&self) -> Duration {
        self.first_byte.saturating_duration_since(self.due)
    }
    /// How late the generator sent the request.
    pub fn lag(&self) -> Duration {
        self.sent - self.due
    }
}

#[derive(Default)]
pub struct Outcome {
    pub done: Vec<Done>,
    /// Failed attempts with a message that names the seed and request.
    pub failures: Vec<String>,
    pub reconnects: u64,
    /// First send to last completion.
    pub wall: Duration,
}

impl Outcome {
    pub fn attempted(&self) -> usize {
        self.done.len() + self.failures.len()
    }
}

/// Response decoding state of one request.
enum Body {
    Head(Vec<u8>),
    Chunked(ChunkedDecoder),
    Length(u64),
    Done,
}

struct InFlight {
    seq: usize,
    pair: usize,
    due: Instant,
    sent: Instant,
    written: usize,
    /// Not yet offered to the socket: the next poll does not wait.
    fresh: bool,
    upload_end: Option<Instant>,
    first_byte: Option<Instant>,
    last_progress: Instant,
    body: Body,
    status: u16,
    close: bool,
    /// Body bytes received so far; compared against the reference.
    received: usize,
    mismatch: Option<usize>,
    error_text: Vec<u8>,
}

struct Conn {
    stream: TcpStream,
    free_since: Instant,
    job: Option<InFlight>,
}

fn connect(addr: SocketAddr) -> io::Result<TcpStream> {
    let s = TcpStream::connect(addr)?;
    s.set_nodelay(true)?;
    s.set_nonblocking(true)?;
    Ok(s)
}

/// Drives `pairs` (cycled by sequence number) against the server at
/// `addr` under `pacing`, over `conns` keep-alive connections.
pub fn run(
    addr: SocketAddr,
    inputs: &Inputs,
    pairs: &[Pair],
    wire: &Wire,
    conns: usize,
    mut pacing: Pacing,
) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    set_timer_slack_1ns();
    let started = Instant::now();
    let mut conns: Vec<Conn> = (0..conns.max(1))
        .map(|_| {
            Ok(Conn {
                stream: connect(addr)?,
                free_since: started,
                job: None,
            })
        })
        .collect::<io::Result<_>>()
        .map_err(|e| format!("connect {addr}: {e}"))?;
    let mut first_send: Option<Instant> = None;
    let mut last_end = started;
    let mut scratch = vec![0u8; 256 * 1024];
    let mut decoded = Vec::with_capacity(256 * 1024);
    let mut fds: Vec<PollFd> = Vec::with_capacity(conns.len());
    // Open-loop requests that fell due while every connection was busy.
    let mut backlog: VecDeque<(usize, Instant)> = VecDeque::new();

    loop {
        let now = Instant::now();
        // Hand due requests to free connections.
        if matches!(pacing, Pacing::Open { .. }) {
            while let Some(r) = pacing.take(now, now) {
                backlog.push_back(r);
            }
        }
        for c in conns.iter_mut().filter(|c| c.job.is_none()) {
            let next = match pacing {
                Pacing::Open { .. } => backlog.pop_front(),
                Pacing::Closed { .. } => pacing.take(now, c.free_since),
            };
            let Some((seq, due)) = next else { break };
            let sent = Instant::now();
            first_send.get_or_insert(sent);
            c.job = Some(InFlight {
                seq,
                pair: seq % pairs.len(),
                due,
                sent,
                written: 0,
                fresh: true,
                upload_end: None,
                first_byte: None,
                last_progress: sent,
                body: Body::Head(Vec::new()),
                status: 0,
                close: false,
                received: 0,
                mismatch: None,
                error_text: Vec::new(),
            });
        }
        let busy = conns.iter().any(|c| c.job.is_some());
        if !busy && backlog.is_empty() && pacing.exhausted(now) {
            break;
        }

        fds.clear();
        for c in &conns {
            let events = match &c.job {
                Some(j) if j.upload_end.is_none() => POLLIN | POLLOUT,
                Some(_) => POLLIN,
                None => 0,
            };
            fds.push(PollFd {
                fd: c.stream.as_raw_fd(),
                events,
                revents: 0,
            });
        }
        let fresh = conns
            .iter()
            .any(|c| c.job.as_ref().is_some_and(|j| j.fresh));
        let timeout = match pacing.next_due() {
            _ if fresh => Duration::ZERO,
            Some(due) => due.saturating_duration_since(now),
            None if busy => Duration::from_secs(1),
            // Closed loop, nothing in flight, not exhausted: cannot happen
            // (a free connection would have taken a request).
            None => Duration::ZERO,
        };
        poll(&mut fds, timeout).map_err(|e| format!("ppoll: {e}"))?;

        for (i, c) in conns.iter_mut().enumerate() {
            let revents = fds[i].revents;
            let Some(job) = c.job.as_mut() else { continue };
            let mut result = Ok(false);
            if revents & POLLOUT != 0 {
                result = upload(&mut c.stream, job, wire, pairs);
            }
            if result.is_ok() && revents & (POLLIN | POLLHUP | POLLERR) != 0 {
                result = download(&mut c.stream, job, pairs, &mut scratch, &mut decoded);
            }
            let now = Instant::now();
            if result.is_ok() && now - job.last_progress > STALL_LIMIT {
                result = Err("no progress for 30 s".to_string());
            }
            let finished = match result {
                Ok(false) => continue,
                Ok(true) => finish(job, inputs, pairs, now),
                Err(e) => Err(e),
            };
            let job = c.job.take().expect("job checked above");
            last_end = now;
            c.free_since = now;
            let reconnect = match finished {
                Ok(done) => {
                    out.done.push(done);
                    job.close
                }
                Err(e) => {
                    let pair = &pairs[job.pair];
                    out.failures.push(format!(
                        "{} seed {} request {} ({} over document {}): {e}",
                        inputs.workload.name(),
                        inputs.seed,
                        job.seq,
                        inputs.queries[pair.query].label,
                        pair.doc
                    ));
                    true
                }
            };
            if reconnect {
                c.stream = connect(addr).map_err(|e| format!("reconnect {addr}: {e}"))?;
                out.reconnects += 1;
            }
        }
    }
    out.wall = last_end - first_send.unwrap_or(last_end);
    Ok(out)
}

/// Writes as much of the request as the socket takes.
fn upload(
    s: &mut TcpStream,
    job: &mut InFlight,
    wire: &Wire,
    pairs: &[Pair],
) -> Result<bool, String> {
    let pair = &pairs[job.pair];
    let head = &wire.heads[pair.query];
    let body = &wire.bodies[pair.doc];
    if job.fresh {
        job.fresh = false;
        job.sent = Instant::now();
    }
    loop {
        let (h, b) = if job.written < head.len() {
            (&head[job.written..], &body[..])
        } else {
            (&head[..0], &body[job.written - head.len()..])
        };
        if h.is_empty() && b.is_empty() {
            job.upload_end = Some(Instant::now());
            return Ok(false);
        }
        match s.write_vectored(&[IoSlice::new(h), IoSlice::new(b)]) {
            Ok(0) => return Err("connection closed during upload".into()),
            Ok(n) => {
                job.written += n;
                job.last_progress = Instant::now();
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(false),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            // The server may answer (e.g. an error status) and close
            // before reading the whole body; the response tells why.
            Err(_) if job.status != 0 => {
                job.upload_end = Some(Instant::now());
                return Ok(false);
            }
            Err(e) => return Err(format!("upload: {e}")),
        }
    }
}

/// Reads what is available; `Ok(true)` once the response is complete.
fn download(
    s: &mut TcpStream,
    job: &mut InFlight,
    pairs: &[Pair],
    scratch: &mut [u8],
    decoded: &mut Vec<u8>,
) -> Result<bool, String> {
    loop {
        let n = match s.read(scratch) {
            Ok(0) => return Err("connection closed before the response ended".into()),
            Ok(n) => n,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(false),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(format!("download: {e}")),
        };
        job.last_progress = Instant::now();
        let mut data = &scratch[..n];
        while !data.is_empty() {
            let used = match &mut job.body {
                Body::Head(buf) => {
                    let before = buf.len();
                    buf.extend_from_slice(data);
                    let Some(end) = http::find_head_end(buf) else {
                        if buf.len() > 64 * 1024 {
                            return Err("response head too long".into());
                        }
                        break;
                    };
                    let head = std::mem::take(buf);
                    let (status, framing, close) = parse_response_head(&head[..end])?;
                    job.status = status;
                    job.close = close;
                    job.body = framing;
                    end - before
                }
                Body::Chunked(dec) => {
                    decoded.clear();
                    let used = dec.decode(data, decoded)?;
                    receive(job, pairs, decoded);
                    if let Body::Chunked(dec) = &job.body {
                        if dec.is_done() {
                            job.body = Body::Done;
                        }
                    }
                    used
                }
                Body::Length(left) => {
                    let take = (*left).min(data.len() as u64) as usize;
                    *left -= take as u64;
                    if *left == 0 {
                        job.body = Body::Done;
                    }
                    receive(job, pairs, &data[..take]);
                    take
                }
                Body::Done => return Err("unexpected bytes after the response".into()),
            };
            data = &data[used..];
            if matches!(job.body, Body::Done) {
                if !data.is_empty() {
                    return Err("unexpected bytes after the response".into());
                }
                return Ok(true);
            }
        }
    }
}

/// Compares newly decoded body bytes with the reference.
fn receive(job: &mut InFlight, pairs: &[Pair], bytes: &[u8]) {
    if bytes.is_empty() {
        return;
    }
    job.first_byte.get_or_insert_with(Instant::now);
    if job.status != 200 {
        let room = 512usize.saturating_sub(job.error_text.len());
        job.error_text
            .extend_from_slice(&bytes[..bytes.len().min(room)]);
        return;
    }
    let reference = &pairs[job.pair].reference;
    if job.mismatch.is_none() {
        let start = job.received.min(reference.len());
        let end = (job.received + bytes.len()).min(reference.len());
        let expect = &reference[start..end];
        if let Some(at) = bytes.iter().zip(expect).position(|(a, b)| a != b) {
            job.mismatch = Some(job.received + at);
        } else if expect.len() < bytes.len() {
            job.mismatch = Some(job.received + expect.len());
        }
    }
    job.received += bytes.len();
}

fn finish(job: &InFlight, inputs: &Inputs, pairs: &[Pair], now: Instant) -> Result<Done, String> {
    let pair = &pairs[job.pair];
    if job.status != 200 {
        return Err(format!(
            "status {}: {}",
            job.status,
            String::from_utf8_lossy(&job.error_text).trim()
        ));
    }
    if job.upload_end.is_none() {
        return Err("the response ended before the upload".into());
    }
    if let Some(at) = job.mismatch {
        return Err(format!("response differs from the reference at byte {at}"));
    }
    if job.received != pair.reference.len() {
        return Err(format!(
            "response has {} bytes, the reference {}",
            job.received,
            pair.reference.len()
        ));
    }
    Ok(Done {
        seq: job.seq,
        class: inputs.queries[pair.query].class,
        due: job.due,
        sent: job.sent,
        upload_end: job.upload_end.unwrap_or(now),
        first_byte: job.first_byte.unwrap_or(now),
        end: now,
        input_bytes: inputs.docs[pair.doc].len() as u64,
    })
}

/// Status, body framing and whether the server closes the connection.
fn parse_response_head(head: &[u8]) -> Result<(u16, Body, bool), String> {
    let text = std::str::from_utf8(head).map_err(|_| "response head is not UTF-8")?;
    let mut lines = text.split("\r\n");
    let status_line = lines.next().unwrap_or("");
    let status: u16 = status_line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("bad status line {status_line:?}"))?;
    let mut framing = None;
    let mut close = false;
    for line in lines {
        let Some((name, value)) = line.split_once(':') else {
            continue;
        };
        let (name, value) = (name.trim().to_ascii_lowercase(), value.trim());
        match name.as_str() {
            "transfer-encoding" if value.eq_ignore_ascii_case("chunked") => {
                framing = Some(Body::Chunked(ChunkedDecoder::new()))
            }
            "content-length" if framing.is_none() => {
                let n: u64 = value.parse().map_err(|_| "bad content-length")?;
                framing = Some(if n == 0 { Body::Done } else { Body::Length(n) });
            }
            "connection" => close = value.eq_ignore_ascii_case("close"),
            _ => {}
        }
    }
    let framing = framing.ok_or("response without length or chunked framing")?;
    Ok((status, framing, close))
}

const POLLIN: i16 = 0x001;
const POLLOUT: i16 = 0x004;
const POLLERR: i16 = 0x008;
const POLLHUP: i16 = 0x010;

/// `struct pollfd` of `poll(2)`.
#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn ppoll(
        fds: *mut PollFd,
        nfds: u64,
        timeout: *const Timespec,
        sigmask: *const std::ffi::c_void,
    ) -> i32;
}

const PR_SET_TIMERSLACK: i32 = 29;

extern "C" {
    fn prctl(option: i32, arg2: u64, arg3: u64, arg4: u64, arg5: u64) -> i32;
}

/// Open-loop sends wake from `ppoll` at their due time; the default
/// 50 µs timer slack would make every one of them late by up to that.
fn set_timer_slack_1ns() {
    // SAFETY: PR_SET_TIMERSLACK takes one integer argument (the slack in
    // ns) and touches no memory; the unused arguments are ignored.
    unsafe {
        prctl(PR_SET_TIMERSLACK, 1, 0, 0, 0);
    }
}

/// Waits until a descriptor in `fds` is ready or `timeout` passes.
/// The standard library has no readiness wait, hence the foreign call.
fn poll(fds: &mut [PollFd], timeout: Duration) -> io::Result<()> {
    let ts = Timespec {
        tv_sec: timeout.as_secs() as i64,
        tv_nsec: i64::from(timeout.subsec_nanos()),
    };
    // SAFETY: `fds` is a live, exclusively borrowed array of `pollfd`
    // (`#[repr(C)]`, matching layout) whose length is passed as `nfds`;
    // `ts` outlives the call; a null signal mask is allowed and means
    // "leave the mask unchanged".
    let rc = unsafe { ppoll(fds.as_mut_ptr(), fds.len() as u64, &ts, std::ptr::null()) };
    if rc < 0 {
        let e = io::Error::last_os_error();
        if e.kind() != io::ErrorKind::Interrupted {
            return Err(e);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(n: f64) -> Duration {
        Duration::from_secs_f64(n / 1e3)
    }

    /// Simulates one connection under open-loop pacing: a request is
    /// sent as soon as it is due and the connection is free, and takes
    /// `service(seq)` to complete. Returns (latency, lag) per request.
    fn simulate(service: impl Fn(usize) -> Duration) -> Vec<(Duration, Duration)> {
        let t0 = Instant::now();
        let plan = Plan::Open {
            rate_per_s: 1000.0,
            conns: 1,
        };
        let mut pacing = Pacing::new(plan, t0, ms(20.0));
        let mut now = t0;
        let mut out = Vec::new();
        while !pacing.exhausted(now) {
            match pacing.take(now, now) {
                Some((seq, due)) => {
                    let sent = now;
                    now += service(seq);
                    out.push((now - due, sent - due));
                }
                None => now = pacing.next_due().expect("not exhausted"),
            }
        }
        out
    }

    #[test]
    fn open_loop_times_successors_of_a_stall_from_their_due_times() {
        let steady = simulate(|_| ms(0.1));
        assert_eq!(steady.len(), 20);
        assert!(steady
            .iter()
            .all(|&(lat, lag)| lat == ms(0.1) && lag.is_zero()));

        // Request 0 stalls for 10 ms; 1..=9 fall due meanwhile.
        let stalled = simulate(|seq| if seq == 0 { ms(10.0) } else { ms(0.1) });
        assert_eq!(stalled.len(), 20);
        // Request 1 was due at 1 ms, sent at 10 ms, done at 10.1 ms: its
        // latency includes the 9 ms it waited behind the stall.
        let (lat1, lag1) = stalled[1];
        assert!((lat1.as_secs_f64() - 0.0091).abs() < 1e-9, "{lat1:?}");
        assert!((lag1.as_secs_f64() - 0.009).abs() < 1e-9, "{lag1:?}");
        // Every queued successor is late, and the generator catches up.
        assert!(stalled[1..10].iter().all(|&(_, lag)| lag > Duration::ZERO));
        let max_lag = stalled.iter().map(|&(_, lag)| lag).max().unwrap();
        let steady_max = steady.iter().map(|&(_, lag)| lag).max().unwrap();
        assert!(max_lag > steady_max + ms(8.0));
        assert!(stalled[15].1.is_zero());
    }

    #[test]
    fn closed_loop_stops_at_deadline_and_limit() {
        let t0 = Instant::now();
        let mut p = Pacing::Closed {
            deadline: t0 + ms(10.0),
            limit: 2,
            next: 0,
        };
        assert_eq!(p.take(t0, t0), Some((0, t0)));
        assert_eq!(p.take(t0, t0), Some((1, t0)));
        assert_eq!(p.take(t0, t0), None);
        let mut p = Pacing::new(Plan::Closed { clients: 1 }, t0, ms(10.0));
        assert!(p.take(t0 + ms(11.0), t0).is_none());
        assert!(p.exhausted(t0 + ms(11.0)));
    }

    #[test]
    fn response_head_framing() {
        let (s, b, close) = parse_response_head(
            b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\nConnection: close\r\n\r\n",
        )
        .unwrap();
        assert_eq!(s, 200);
        assert!(matches!(b, Body::Chunked(_)) && close);
        let (s, b, close) =
            parse_response_head(b"HTTP/1.1 400 Bad\r\nContent-Length: 3\r\n\r\n").unwrap();
        assert_eq!(s, 400);
        assert!(matches!(b, Body::Length(3)) && !close);
        assert!(parse_response_head(b"HTTP/1.1 200 OK\r\n\r\n").is_err());
    }
}
