//! The server under test: `gcx serve --listen 127.0.0.1:0` as a child
//! process, observed from outside through HTTP and `/proc/<pid>`.

use gcx_net::client;
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// Linux reports process CPU time in ticks of 1/100 s (`USER_HZ`).
const TICKS_PER_S: f64 = 100.0;

/// A running server. Dropping it kills the process and waits for it.
pub struct Server {
    child: Child,
    // Held open so the server's stdout never sees a closed pipe.
    _stdout: BufReader<ChildStdout>,
    pub addr: SocketAddr,
}

impl Server {
    /// Spawns the server and returns once `/healthz` answers 200.
    pub fn start(bin: &Path, workers: usize, evaluators: usize) -> Result<Server, String> {
        let mut child = Command::new(bin)
            .args(["serve", "--listen", "127.0.0.1:0"])
            .args(["--workers", &workers.to_string()])
            .args(["--evaluators", &evaluators.to_string()])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut server = None;
        let mut line = String::new();
        while let Ok(n) = stdout.read_line(&mut line) {
            if n == 0 {
                break;
            }
            if let Some(addr) = line.trim().strip_prefix("gcx-net: listening on http://") {
                server = addr.parse().ok();
                break;
            }
            line.clear();
        }
        let Some(addr) = server else {
            let _ = child.kill();
            let _ = child.wait();
            return Err("the server did not report its listening address".into());
        };
        let server = Server {
            child,
            _stdout: stdout,
            addr,
        };
        server.wait_healthy()?;
        Ok(server)
    }

    fn wait_healthy(&self) -> Result<(), String> {
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match client::get(self.addr, "/healthz") {
                Ok(r) if r.status == 200 => return Ok(()),
                _ if Instant::now() > deadline => {
                    return Err("server not healthy after 10 s".into())
                }
                _ => std::thread::sleep(Duration::from_millis(1)),
            }
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// `GET path`, body as text.
    pub fn get(&self, path: &str) -> Result<String, String> {
        let r = client::get(self.addr, path).map_err(|e| format!("GET {path}: {e}"))?;
        if r.status != 200 {
            return Err(format!("GET {path}: status {}", r.status));
        }
        Ok(r.text())
    }

    /// Server process CPU time (user, system), seconds.
    pub fn cpu_s(&self) -> Result<(f64, f64), String> {
        proc_cpu_s(&format!("/proc/{}/stat", self.pid()))
    }

    /// Peak resident set (`VmHWM`), MiB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let path = format!("/proc/{}/status", self.pid());
        let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        let kb: f64 = status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
            .ok_or_else(|| format!("{path}: no VmHWM"))?;
        Ok(kb / 1024.0)
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// CPU time (user, system) of the process whose `stat` file is `path`.
pub fn proc_cpu_s(path: &str) -> Result<(f64, f64), String> {
    let stat = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    // The command name (field 2) may contain spaces; utime and stime are
    // fields 14 and 15, the 12th and 13th after the closing parenthesis.
    let mut fields = stat
        .rsplit_once(')')
        .map(|(_, rest)| rest.split_ascii_whitespace().skip(11))
        .ok_or_else(|| format!("{path}: malformed"))?;
    let mut ticks = || -> Result<u64, String> {
        fields
            .next()
            .and_then(|f| f.parse().ok())
            .ok_or_else(|| format!("{path}: malformed"))
    };
    let (utime, stime) = (ticks()?, ticks()?);
    Ok((utime as f64 / TICKS_PER_S, stime as f64 / TICKS_PER_S))
}

/// Counters read from the server's `/stats` and `/metrics`, subtracted
/// between two scrapes.
#[derive(Debug, Clone, Default)]
pub struct Scrape {
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub steps: u64,
    pub yields: u64,
    pub epoll_wakeups: u64,
    /// Cumulative session queue-wait histogram: (upper bound s, count).
    pub queue_wait: Vec<(f64, u64)>,
}

impl Scrape {
    pub fn take(server: &Server) -> Result<Scrape, String> {
        let stats = server.get("/stats")?;
        let metrics = server.get("/metrics")?;
        let field = |section: &str, key: &str| -> Result<u64, String> {
            let at = stats
                .find(&format!("\"{section}\": {{"))
                .ok_or_else(|| format!("/stats: no {section}"))?;
            let rest = &stats[at..];
            let k = rest
                .find(&format!("\"{key}\": "))
                .ok_or_else(|| format!("/stats: no {section}.{key}"))?;
            let digits: String = rest[k + key.len() + 4..]
                .chars()
                .take_while(char::is_ascii_digit)
                .collect();
            digits
                .parse()
                .map_err(|_| format!("/stats: bad {section}.{key}"))
        };
        let prefix = "gcx_session_phase_duration_seconds_bucket{phase=\"queue_wait\",le=\"";
        let queue_wait = metrics
            .lines()
            .filter_map(|l| l.strip_prefix(prefix))
            .filter_map(|l| {
                let (le, count) = l.split_once("\"} ")?;
                let le = if le == "+Inf" {
                    f64::INFINITY
                } else {
                    le.parse().ok()?
                };
                Some((le, count.trim().parse().ok()?))
            })
            .collect();
        Ok(Scrape {
            cache_hits: field("service", "cache_hits")?,
            cache_misses: field("service", "cache_misses")?,
            steps: field("scheduler", "steps")?,
            yields: field("scheduler", "yields")?,
            epoll_wakeups: field("scheduler", "epoll_wakeups")?,
            queue_wait,
        })
    }

    /// `after − before`, histogram buckets included.
    pub fn delta(before: &Scrape, after: &Scrape) -> Scrape {
        let was = |le: f64| {
            before
                .queue_wait
                .iter()
                .filter(|&&(b, _)| b <= le)
                .map(|&(_, c)| c)
                .max()
                .unwrap_or(0)
        };
        Scrape {
            cache_hits: after.cache_hits - before.cache_hits,
            cache_misses: after.cache_misses - before.cache_misses,
            steps: after.steps - before.steps,
            yields: after.yields - before.yields,
            epoll_wakeups: after.epoll_wakeups - before.epoll_wakeups,
            queue_wait: after
                .queue_wait
                .iter()
                .map(|&(le, c)| (le, c.saturating_sub(was(le))))
                .collect(),
        }
    }

    /// Median of the cumulative queue-wait histogram, µs: the upper
    /// bound of the bucket holding the middle sample.
    pub fn queue_wait_p50_us(&self) -> f64 {
        let total = self.queue_wait.last().map_or(0, |&(_, c)| c);
        if total == 0 {
            return 0.0;
        }
        let rank = total.div_ceil(2);
        self.queue_wait
            .iter()
            .find(|&&(_, c)| c >= rank)
            .map_or(0.0, |&(le, _)| le * 1e6)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn queue_wait_median_from_bucket_deltas() {
        let before = Scrape {
            queue_wait: vec![(1e-6, 5), (2e-6, 5), (f64::INFINITY, 5)],
            ..Scrape::default()
        };
        let after = Scrape {
            queue_wait: vec![(1e-6, 6), (2e-6, 9), (4e-6, 12), (f64::INFINITY, 12)],
            ..Scrape::default()
        };
        let d = Scrape::delta(&before, &after);
        assert_eq!(
            d.queue_wait,
            vec![(1e-6, 1), (2e-6, 4), (4e-6, 7), (f64::INFINITY, 7)]
        );
        // 7 samples, the 4th lies in the 2 µs bucket.
        assert_eq!(d.queue_wait_p50_us(), 2.0);
    }
}
