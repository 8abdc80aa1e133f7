//! Closed-loop load generator: one thread per connection, a fixed
//! number of requests, `depth` requests in flight per connection.
//!
//! Closed loop because the callers of a score service (a ranking front
//! end) wait for each reply. Latency is per request: from the `write`
//! that sent its batch to the `read` that returned its own response
//! line — not batch time divided by depth.

use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use crate::gen::{Req, RequestMix};

/// Every `SAMPLE_EVERY`-th raw response is kept for the content check.
pub const SAMPLE_EVERY: u64 = 64;

/// Why a connection stopped early.
#[derive(Debug)]
pub enum LoadError {
    /// No byte arrived for the whole read timeout.
    Timeout {
        /// The timeout that expired.
        after: Duration,
        /// Responses still owed when it did.
        owed: usize,
    },
    /// The server closed the connection with responses owed.
    Closed {
        /// Responses still owed.
        owed: usize,
    },
    /// Any other transport error.
    Io(std::io::Error),
}

impl std::fmt::Display for LoadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LoadError::Timeout { after, owed } => {
                write!(f, "no response for {after:?} with {owed} owed")
            }
            LoadError::Closed { owed } => write!(f, "server closed with {owed} responses owed"),
            LoadError::Io(e) => write!(f, "transport error: {e}"),
        }
    }
}

/// What one connection saw during one [`Conn::run`].
#[derive(Debug, Default)]
pub struct ConnStats {
    /// Requests written to the socket.
    pub attempted: u64,
    /// Responses received with `"ok":true`.
    pub succeeded: u64,
    /// Requests that got `ok:false`, a shed, or no response at all.
    pub failed: u64,
    /// Response bytes received (newlines included).
    pub bytes: u64,
    /// Latency of each succeeded `score`, nanoseconds.
    pub score_ns: Vec<u32>,
    /// Latency of each succeeded `topk`, nanoseconds.
    pub topk_ns: Vec<u32>,
    /// Every [`SAMPLE_EVERY`]-th request with its raw response line.
    pub samples: Vec<(Req, String)>,
    /// Why the run stopped early, if it did.
    pub error: Option<LoadError>,
}

/// One client connection with its own request stream.
#[derive(Debug)]
pub struct Conn {
    stream: TcpStream,
    mix: RequestMix,
    timeout: Duration,
    /// Requests sent over the connection's lifetime (drives sampling).
    sent: u64,
    buf: Vec<u8>,
}

impl Conn {
    /// Connect to `addr`; `timeout` bounds every read.
    pub fn connect(addr: SocketAddr, mix: RequestMix, timeout: Duration) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(timeout))?;
        stream.set_write_timeout(Some(timeout))?;
        Ok(Conn {
            stream,
            mix,
            timeout,
            sent: 0,
            buf: vec![0; 64 * 1024],
        })
    }

    /// Send `requests` requests, `depth` at a time, waiting for every
    /// response of a batch before sending the next. With `record` off
    /// (warm-up) nothing but the counters is kept.
    pub fn run(&mut self, requests: usize, depth: usize, record: bool) -> ConnStats {
        let mut stats = ConnStats::default();
        if record {
            stats.score_ns.reserve(requests);
        }
        let mut batch: Vec<Req> = Vec::with_capacity(depth);
        let mut wire: Vec<u8> = Vec::with_capacity(depth * 16);
        let mut left = requests;
        while left > 0 && stats.error.is_none() {
            batch.clear();
            wire.clear();
            for _ in 0..depth.min(left) {
                let req = self.mix.next_req();
                req.write_to(&mut wire);
                batch.push(req);
            }
            left -= batch.len();
            let first_index = self.sent;
            self.sent += batch.len() as u64;
            let sent_at = Instant::now();
            if let Err(e) = self.stream.write_all(&wire) {
                stats.failed += batch.len() as u64;
                stats.attempted += batch.len() as u64;
                stats.error = Some(LoadError::Io(e));
                break;
            }
            stats.attempted += batch.len() as u64;
            self.receive(&batch, first_index, sent_at, record, &mut stats);
        }
        stats
    }

    /// Read until every response of `batch` has arrived, stamping each
    /// line with the time of the `read` that delivered it.
    fn receive(
        &mut self,
        batch: &[Req],
        first_index: u64,
        sent_at: Instant,
        record: bool,
        stats: &mut ConnStats,
    ) {
        let mut got = 0usize;
        let mut filled = 0usize;
        while got < batch.len() {
            if filled == self.buf.len() {
                // a single response longer than the buffer (a large topk)
                self.buf.resize(self.buf.len() * 2, 0);
            }
            let n = match self.stream.read(&mut self.buf[filled..]) {
                Ok(0) => {
                    stats.error = Some(LoadError::Closed {
                        owed: batch.len() - got,
                    });
                    break;
                }
                Ok(n) => n,
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                    stats.error = Some(LoadError::Timeout {
                        after: self.timeout,
                        owed: batch.len() - got,
                    });
                    break;
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => {
                    stats.error = Some(LoadError::Io(e));
                    break;
                }
            };
            let ns = u32::try_from(sent_at.elapsed().as_nanos()).unwrap_or(u32::MAX);
            stats.bytes += n as u64;
            let scan_from = filled;
            filled += n;
            let mut line_start = 0usize;
            let mut scan = scan_from;
            while let Some(off) = self.buf[scan..filled].iter().position(|&b| b == b'\n') {
                let line = &self.buf[line_start..scan + off];
                // a server answering more lines than were asked for is
                // as wrong as one answering fewer
                let Some(&req) = batch.get(got) else {
                    stats.failed += 1;
                    break;
                };
                if line.starts_with(b"{\"ok\":true") {
                    stats.succeeded += 1;
                    if record {
                        match req {
                            Req::Score(_) => stats.score_ns.push(ns),
                            Req::TopK(_) => stats.topk_ns.push(ns),
                        }
                    }
                } else {
                    stats.failed += 1;
                }
                if record && (first_index + got as u64).is_multiple_of(SAMPLE_EVERY) {
                    stats
                        .samples
                        .push((req, String::from_utf8_lossy(line).into_owned()));
                }
                got += 1;
                scan += off + 1;
                line_start = scan;
            }
            // keep the partial line at the front of the buffer
            self.buf.copy_within(line_start..filled, 0);
            filled -= line_start;
        }
        stats.failed += (batch.len() - got) as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader};
    use std::net::TcpListener;

    /// A one-connection server answering `reply(line)` per request line;
    /// `None` makes it go silent (keeps the socket open, answers nothing).
    fn fake_server(
        reply: impl Fn(&str) -> Option<String> + Send + 'static,
    ) -> (SocketAddr, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let join = std::thread::spawn(move || {
            let (conn, _) = listener.accept().unwrap();
            let mut out = conn.try_clone().unwrap();
            for line in BufReader::new(conn).lines() {
                let Ok(line) = line else { break };
                if let Some(r) = reply(&line) {
                    if out.write_all(r.as_bytes()).is_err() {
                        break;
                    }
                }
            }
        });
        (addr, join)
    }

    fn mix() -> RequestMix {
        RequestMix::new(1, 0, 100, 0.2, 50)
    }

    #[test]
    fn counts_latencies_and_samples() {
        let (addr, join) = fake_server(|l| Some(format!("{{\"ok\":true,\"echo\":\"{l}\"}}\n")));
        let mut conn = Conn::connect(addr, mix(), Duration::from_secs(2)).unwrap();
        let warm = conn.run(70, 16, false);
        assert_eq!((warm.attempted, warm.succeeded, warm.failed), (70, 70, 0));
        assert!(warm.score_ns.is_empty() && warm.samples.is_empty());
        let s = conn.run(200, 16, true);
        assert_eq!((s.attempted, s.succeeded, s.failed), (200, 200, 0));
        assert!(s.error.is_none());
        assert_eq!(s.score_ns.len() + s.topk_ns.len(), 200);
        assert!(!s.topk_ns.is_empty() && s.score_ns.len() > s.topk_ns.len());
        // requests 128, 192 and 256 of the connection fall in this run
        assert_eq!(s.samples.len(), 3);
        for (req, line) in &s.samples {
            let mut wire = Vec::new();
            req.write_to(&mut wire);
            let sent = String::from_utf8(wire).unwrap();
            assert_eq!(
                line,
                &format!("{{\"ok\":true,\"echo\":\"{}\"}}", sent.trim())
            );
        }
        drop(conn);
        join.join().unwrap();
    }

    #[test]
    fn refused_requests_count_as_failed() {
        let (addr, join) = fake_server(|l| {
            Some(if l.starts_with("topk") {
                "{\"ok\":false,\"error\":\"overloaded\"}\n".to_string()
            } else {
                "{\"ok\":true}\n".to_string()
            })
        });
        let mut conn = Conn::connect(addr, mix(), Duration::from_secs(2)).unwrap();
        let s = conn.run(300, 8, true);
        assert_eq!(s.attempted, 300);
        assert!(s.failed > 0 && s.succeeded + s.failed == 300);
        assert_eq!(s.topk_ns.len(), 0);
        drop(conn);
        join.join().unwrap();
    }

    #[test]
    fn silence_is_a_typed_timeout_not_a_hang() {
        let (addr, join) = fake_server(|l| (!l.ends_with('7')).then(|| "{\"ok\":true}\n".into()));
        let mut conn = Conn::connect(
            addr,
            RequestMix::new(1, 0, 100, 0.0, 1),
            Duration::from_millis(200),
        )
        .unwrap();
        let started = Instant::now();
        let s = conn.run(1_000, 4, true);
        assert!(started.elapsed() < Duration::from_secs(5));
        assert!(matches!(s.error, Some(LoadError::Timeout { owed, .. }) if owed >= 1));
        assert!(s.failed >= 1 && s.attempted < 1_000);
        assert_eq!(s.attempted, s.succeeded + s.failed);
        drop(conn);
        join.join().unwrap();
    }
}
