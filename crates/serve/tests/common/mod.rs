//! Fixtures shared by the socket-level suites: the seed web every one
//! of them serves, and the line-protocol client two of them drive.
//! Each test binary uses a subset, hence the blanket `dead_code` allow.

#![allow(dead_code)]

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

use qrank_graph::{CsrGraph, PageId, Snapshot, SnapshotSeries};

/// The same growing 6-page web as the refresh unit tests: one page
/// steadily gains in-links, snapshot `i` is captured at time `i`.
pub fn seed_series(snapshots: usize) -> SnapshotSeries {
    let pages: Vec<PageId> = (0..6).map(PageId).collect();
    let base = vec![(3u32, 2u32), (4, 2), (5, 2), (2, 0), (0, 2), (1, 0)];
    let riser: Vec<(u32, u32)> = vec![(3, 1), (4, 1), (5, 1), (0, 1), (2, 1)];
    let mut s = SnapshotSeries::new();
    for i in 0..snapshots {
        let mut edges = base.clone();
        edges.extend_from_slice(&riser[..(i + 1).min(riser.len())]);
        s.push(Snapshot::new(i as f64, CsrGraph::from_edges(6, &edges), pages.clone()).unwrap())
            .unwrap();
    }
    s
}

pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    pub fn connect(addr: std::net::SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect to test server");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        Client {
            reader: BufReader::new(stream.try_clone().unwrap()),
            writer: stream,
        }
    }

    pub fn request(&mut self, line: &str) -> String {
        self.writer.write_all(line.as_bytes()).unwrap();
        self.writer.write_all(b"\n").unwrap();
        let mut response = String::new();
        self.reader
            .read_line(&mut response)
            .expect("server response");
        assert!(response.ends_with('\n'), "truncated response {response:?}");
        response.trim().to_string()
    }

    /// For multi-line responses (`metrics`, `trace report`): read until
    /// the `# EOF` terminator, returning every line before it.
    pub fn request_multiline(&mut self, line: &str) -> Vec<String> {
        self.writer.write_all(line.as_bytes()).unwrap();
        self.writer.write_all(b"\n").unwrap();
        let mut lines = Vec::new();
        loop {
            let mut response = String::new();
            self.reader
                .read_line(&mut response)
                .expect("server response");
            let trimmed = response.trim_end().to_string();
            if trimmed == "# EOF" {
                return lines;
            }
            lines.push(trimmed);
        }
    }
}
