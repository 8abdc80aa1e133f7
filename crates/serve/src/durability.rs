//! Durable ingestion: journaling and checkpointing for the refresh
//! engine.
//!
//! The [`crate::RefreshEngine`] journals every [`crate::EdgeDelta`] to a
//! [`qrank_wal::Wal`] *before* applying it (write-ahead ordering), and
//! periodically checkpoints its full state so recovery replays only a
//! short WAL tail. This module owns the glue: the checkpoint payload
//! codec and the journal bookkeeping around the raw log.
//!
//! ## One journal per data directory
//!
//! The engine is one writer: it applies one ordered delta stream to one
//! dynamic graph. So `--data-dir` holds one log — segments and
//! checkpoints directly in the directory, each delta one v1 record —
//! whatever shard count the store is served with. The shard count is a
//! property of the served store only: a directory written at `--shards
//! 2` recovers at any N to the same bytes.
//!
//! Recovery opens the log, restores its newest valid checkpoint and
//! replays the records from that checkpoint's LSN to the head in order,
//! reproducing the exact pre-crash interleaving — node numbering, float
//! summation order, and therefore published score bits.
//!
//! Builds before this layout wrote one log per shard under `shard-NNN/`
//! subdirectories when serving with `--shards N > 1`. Such a directory
//! is refused ([`refuse_per_shard_journal`]) rather than opened as an
//! empty journal and silently re-seeded; there is no migration.
//!
//! ## What a checkpoint stores
//!
//! Not the dynamic graph's event history — only what future snapshots
//! can observe of it:
//!
//! * the page list in node order (which fixes the node numbering),
//! * the currently alive edges, as page pairs in node order — read off
//!   the dynamic graph itself when the checkpoint is taken,
//! * the snapshot window itself (via `qrank_graph::io::encode_series`),
//! * the published generation counter and the newest snapshot time.
//!
//! Rebuilding the graph as "every known page born at the last snapshot
//! time, every alive edge added then" yields *bitwise identical* future
//! snapshots, because `DynamicGraph::snapshot_at(t)` only asks which
//! births and edge events are `≤ t`, ingest times never decrease, and
//! the CSR construction orders edges canonically. Combined with the
//! stage engine's fingerprint-keyed caching discipline (equal snapshots
//! ⇒ equal columns, bit for bit), a recovered engine publishes exactly
//! the scores the uninterrupted process would have — the recovery tests
//! assert this down to the last bit, at every shard count.

use std::path::{Path, PathBuf};

use bytes::{Buf, BufMut, BytesMut};
use qrank_graph::{CsrGraph, SnapshotSeries};
use qrank_wal::{FsyncPolicy, Wal, WalError, WalOptions, WalStats};

use crate::delta::EdgeDelta;
use crate::error::ServeError;

/// How the refresh engine persists its ingest stream.
#[derive(Debug, Clone)]
pub struct DurabilityConfig {
    /// Directory holding WAL segments and checkpoints (created if
    /// absent).
    pub dir: PathBuf,
    /// When journal appends reach stable storage.
    pub fsync: FsyncPolicy,
    /// Take an automatic checkpoint after this many ingested deltas
    /// (0 = only on explicit request / clean shutdown).
    pub checkpoint_every: u64,
}

impl DurabilityConfig {
    /// Defaults (`fsync every:64`, checkpoint every 256 deltas) rooted
    /// at `dir`.
    pub fn at(dir: impl Into<PathBuf>) -> Self {
        DurabilityConfig {
            dir: dir.into(),
            fsync: FsyncPolicy::default(),
            checkpoint_every: 256,
        }
    }
}

/// What recovery found and did, for operators and benchmarks.
#[derive(Debug, Clone, Default)]
pub struct RecoveryReport {
    /// Generation restored from the checkpoint (`None`: no checkpoint,
    /// the log was replayed from the beginning).
    pub checkpoint_generation: Option<u64>,
    /// WAL records replayed on top of the checkpoint.
    pub replayed_records: u64,
    /// Why the newest segment's tail was truncated, if it was.
    pub torn_tail: Option<String>,
    /// Checkpoints that failed validation and were skipped.
    pub skipped_checkpoints: u64,
    /// Replayed deltas the engine rejected (exactly as the original
    /// process rejected them — state is unaffected either way).
    pub replay_errors: Vec<String>,
    /// Shard count of the store recovery published into.
    pub shards: usize,
}

/// Bounded exponential-backoff retry for *transient* journal I/O
/// errors (`WalError::Io` only — decode/corruption/config errors are
/// never retried; retrying can't fix a bad byte).
///
/// Backoff doubles per attempt from 5 ms up to 200 ms, with
/// deterministic seeded jitter in
/// `[50%, 100%]` of the exponential value — equal seeds and equal
/// failure histories sleep for identical durations, which keeps chaos
/// runs reproducible while still decorrelating real-world retries.
///
/// Retry soundness: [`qrank_wal::Wal::append`] takes its frame back
/// out before returning an error — whether the write or the policy's
/// sync failed — so a retried append always lands on a clean tail and
/// a record is never journaled twice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts per operation (0 or 1 = no retry).
    pub attempts: u32,
    /// Jitter seed.
    pub seed: u64,
}

impl Default for RetryPolicy {
    /// No retry — errors surface immediately, the engine's historical
    /// behavior.
    fn default() -> Self {
        RetryPolicy {
            attempts: 1,
            seed: 0,
        }
    }
}

/// Backoff before the first retry, in milliseconds.
const RETRY_BASE_MS: u64 = 5;

/// Cap on any single backoff, in milliseconds.
const RETRY_MAX_MS: u64 = 200;

impl RetryPolicy {
    /// A sensible production policy: 5 attempts, 5ms → 200ms backoff.
    pub fn standard(seed: u64) -> Self {
        RetryPolicy { attempts: 5, seed }
    }

    /// The backoff before retry number `attempt` (1-based), salted so
    /// successive retries in one process jitter independently.
    pub fn backoff_ms(&self, attempt: u32, salt: u64) -> u64 {
        let exp = RETRY_BASE_MS
            .saturating_mul(1u64 << attempt.saturating_sub(1).min(20))
            .min(RETRY_MAX_MS);
        // jitter in [50%, 100%] of the exponential value
        let r = splitmix64(self.seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        (exp / 2 + (r % (exp / 2 + 1))).max(1)
    }
}

/// SplitMix64 — the workspace's standard cheap deterministic mixer.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Run `op` under `policy`, sleeping between attempts. `retries` is the
/// journal's cumulative retry counter (drives the jitter salt).
fn with_retry<T>(
    policy: &RetryPolicy,
    retries: &mut u64,
    mut op: impl FnMut() -> Result<T, WalError>,
) -> Result<T, WalError> {
    let attempts = policy.attempts.max(1);
    let mut attempt = 1u32;
    loop {
        match op() {
            Ok(v) => return Ok(v),
            Err(WalError::Io(_)) if attempt < attempts => {
                *retries += 1;
                if qrank_obs::enabled() {
                    qrank_obs::global().counter("wal.retry").inc();
                }
                std::thread::sleep(std::time::Duration::from_millis(
                    policy.backoff_ms(attempt, *retries),
                ));
                attempt += 1;
            }
            Err(e) => {
                if attempt > 1 && qrank_obs::enabled() {
                    qrank_obs::global().counter("wal.retry.exhausted").inc();
                }
                return Err(e);
            }
        }
    }
}

/// Refuse a data directory holding `shard-NNN` subdirectories: a
/// journal an earlier build wrote, one log per shard, when it served
/// with `--shards N > 1`. Opening it as an empty journal would re-seed
/// it and silently drop that history, so it is a configuration error;
/// there is no migration. Only directories count — a *file* named like
/// one leaves the journal alone. Reads only; a missing `dir` passes.
pub fn refuse_per_shard_journal(dir: &Path) -> Result<(), ServeError> {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return Ok(());
    };
    for entry in entries.flatten() {
        let name = entry.file_name();
        let shard_named = name
            .to_str()
            .and_then(|n| n.strip_prefix("shard-"))
            .is_some_and(|n| n.parse::<usize>().is_ok());
        if shard_named && entry.path().is_dir() {
            return Err(ServeError::Config(format!(
                "data dir {} holds a per-shard journal ({}/) written by an earlier \
                 build; this build keeps one journal per data directory and cannot \
                 read it (start from a fresh data dir)",
                dir.display(),
                name.to_string_lossy()
            )));
        }
    }
    Ok(())
}

/// The engine's handle on its write-ahead log plus the
/// automatic-checkpoint countdown and the retry policy.
#[derive(Debug)]
pub(crate) struct Journal {
    wal: Wal,
    checkpoint_every: u64,
    since_checkpoint: u64,
    retry: RetryPolicy,
    /// Cumulative backoffs taken — salts the jitter.
    retries: u64,
}

impl Journal {
    /// Install a retry policy for transient I/O errors of an append
    /// (its write, or the sync its fsync policy calls for).
    pub(crate) fn set_retry(&mut self, policy: RetryPolicy) {
        self.retry = policy;
    }

    /// Append one delta as one record (write-ahead: callers do this
    /// *before* mutating engine state).
    ///
    /// Transient I/O errors are retried per the installed
    /// [`RetryPolicy`]; a failed [`Wal::append`] left nothing behind, so
    /// a retry journals the delta once.
    pub(crate) fn append(&mut self, delta: &EdgeDelta) -> Result<(), WalError> {
        let frame = qrank_wal::encode_delta(delta);
        with_retry(&self.retry, &mut self.retries, || self.wal.append(&frame))?;
        self.since_checkpoint += 1;
        Ok(())
    }

    /// Has the automatic-checkpoint interval elapsed?
    pub(crate) fn due(&self) -> bool {
        self.checkpoint_every > 0 && self.since_checkpoint >= self.checkpoint_every
    }

    /// Write a checkpoint with `payload` and compact. Returns its LSN.
    pub(crate) fn checkpoint(&mut self, payload: &[u8]) -> Result<u64, WalError> {
        let lsn = self.wal.checkpoint(payload)?;
        self.since_checkpoint = 0;
        Ok(lsn)
    }

    /// Journal geometry.
    pub(crate) fn stats(&self) -> WalStats {
        self.wal.stats()
    }
}

/// Everything [`open_journal`] recovered: the journal to keep writing
/// through, the newest valid checkpoint payload, the deltas to replay
/// in LSN order, and the report.
pub(crate) struct OpenedJournal {
    pub(crate) journal: Journal,
    pub(crate) checkpoint: Option<Vec<u8>>,
    pub(crate) deltas: Vec<(u64, EdgeDelta)>,
    pub(crate) report: RecoveryReport,
}

/// Open (and recover) the journal in `cfg.dir`, refusing a per-shard
/// journal an earlier build wrote there.
pub(crate) fn open_journal(cfg: &DurabilityConfig) -> Result<OpenedJournal, ServeError> {
    refuse_per_shard_journal(&cfg.dir)?;
    let opts = WalOptions {
        fsync: cfg.fsync,
        ..WalOptions::default()
    };
    let (wal, recovery) = Wal::open(&cfg.dir, opts)?;
    let deltas = recovery
        .records
        .iter()
        .map(|(lsn, payload)| Ok((*lsn, qrank_wal::decode_delta(payload)?)))
        .collect::<Result<_, WalError>>()?;
    Ok(OpenedJournal {
        journal: Journal {
            wal,
            checkpoint_every: cfg.checkpoint_every,
            since_checkpoint: 0,
            retry: RetryPolicy::default(),
            retries: 0,
        },
        checkpoint: recovery.checkpoint.map(|c| c.payload),
        deltas,
        report: RecoveryReport {
            torn_tail: recovery.torn_tail,
            skipped_checkpoints: recovery.skipped_checkpoints,
            ..RecoveryReport::default()
        },
    })
}

/// Engine state as stored in (and restored from) a checkpoint payload.
#[derive(Debug)]
pub(crate) struct CheckpointState {
    /// Published generation counter at checkpoint time.
    pub generation: u64,
    /// Newest snapshot time (`NEG_INFINITY` when the window is empty);
    /// rebuilt nodes and edges are all stamped with this time.
    pub last_time: f64,
    /// Page of each node, in node order (fixes the node numbering).
    pub page_of_node: Vec<u64>,
    /// Edges alive at checkpoint time, as page pairs. Written in node
    /// order; checkpoints written before that hold them in page order,
    /// and either order rebuilds the same graph.
    pub edges: Vec<(u64, u64)>,
    /// The snapshot window.
    pub series: SnapshotSeries,
}

const STATE_VERSION: u16 = 1;

/// Encode engine state into a checkpoint payload. `alive` is the
/// dynamic graph's alive edges over node ids `0..page_of_node.len()`;
/// its edges are written as page pairs in node order.
pub(crate) fn encode_state(
    generation: u64,
    page_of_node: &[u64],
    alive: &CsrGraph,
    series: &SnapshotSeries,
) -> Vec<u8> {
    let series_bytes = qrank_graph::io::encode_series(series);
    let last_time = series
        .snapshots()
        .last()
        .map_or(f64::NEG_INFINITY, |s| s.time);
    let mut buf = BytesMut::with_capacity(
        2 + 8
            + 8
            + 8
            + page_of_node.len() * 8
            + 8
            + alive.num_edges() * 16
            + 8
            + series_bytes.len(),
    );
    buf.put_u16_le(STATE_VERSION);
    buf.put_u64_le(generation);
    buf.put_f64_le(last_time);
    buf.put_u64_le(page_of_node.len() as u64);
    for &p in page_of_node {
        buf.put_u64_le(p);
    }
    buf.put_u64_le(alive.num_edges() as u64);
    for (s, d) in alive.edges() {
        buf.put_u64_le(page_of_node[s as usize]);
        buf.put_u64_le(page_of_node[d as usize]);
    }
    buf.put_u64_le(series_bytes.len() as u64);
    buf.put_slice(&series_bytes);
    buf.to_vec()
}

fn short(msg: &str) -> ServeError {
    ServeError::Wal(WalError::Decode(format!("checkpoint state: {msg}")))
}

/// Decode a checkpoint payload back into engine state.
pub(crate) fn decode_state(mut buf: &[u8]) -> Result<CheckpointState, ServeError> {
    // Byte counts are compared in u64: a hostile count must fail here,
    // not overflow on the way to a comparison.
    let need = |buf: &&[u8], n: u64, what: &str| -> Result<(), ServeError> {
        if (buf.remaining() as u64) < n {
            Err(short(&format!("truncated while reading {what}")))
        } else {
            Ok(())
        }
    };
    need(&buf, 2 + 8 + 8 + 8, "header")?;
    let version = buf.get_u16_le();
    if version != STATE_VERSION {
        return Err(short(&format!("unsupported version {version}")));
    }
    let generation = buf.get_u64_le();
    let last_time = buf.get_f64_le();
    let n_pages = buf.get_u64_le();
    let page_bytes = n_pages
        .checked_mul(8)
        .and_then(|b| b.checked_add(8))
        .ok_or_else(|| short("page count overflows"))?;
    need(&buf, page_bytes, "page ids")?;
    let mut page_of_node = Vec::with_capacity(n_pages as usize);
    for _ in 0..n_pages {
        page_of_node.push(buf.get_u64_le());
    }
    let n_edges = buf.get_u64_le();
    let edge_bytes = n_edges
        .checked_mul(16)
        .and_then(|b| b.checked_add(8))
        .ok_or_else(|| short("edge count overflows"))?;
    need(&buf, edge_bytes, "alive edges")?;
    let mut edges = Vec::with_capacity(n_edges as usize);
    for _ in 0..n_edges {
        edges.push((buf.get_u64_le(), buf.get_u64_le()));
    }
    let series_len = buf.get_u64_le();
    if series_len != buf.remaining() as u64 {
        return Err(short(&format!(
            "series length {series_len} disagrees with {} remaining bytes",
            buf.remaining()
        )));
    }
    let series = qrank_graph::io::decode_series(buf).map_err(ServeError::Graph)?;
    Ok(CheckpointState {
        generation,
        last_time,
        page_of_node,
        edges,
        series,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use qrank_graph::{PageId, Snapshot};

    #[test]
    fn state_roundtrips() {
        let mut series = SnapshotSeries::new();
        let pages: Vec<PageId> = (0..3).map(PageId).collect();
        series
            .push(Snapshot::new(2.5, CsrGraph::from_edges(3, &[(0, 1), (2, 0)]), pages).unwrap())
            .unwrap();
        // node 0 is page 9: edges come out in node order, as page pairs
        let alive = CsrGraph::from_edges(3, &[(0, 1), (2, 0), (1, 2)]);
        let payload = encode_state(7, &[9, 1, 2], &alive, &series);
        let state = decode_state(&payload).unwrap();
        assert_eq!(state.generation, 7);
        assert_eq!(state.last_time, 2.5);
        assert_eq!(state.page_of_node, vec![9, 1, 2]);
        assert_eq!(state.edges, vec![(9, 1), (1, 2), (2, 9)]);
        assert_eq!(state.series.len(), 1);
        assert_eq!(state.series.snapshots()[0].time, 2.5);
    }

    #[test]
    fn state_rejects_truncation_at_every_prefix() {
        let no_edges = CsrGraph::from_edges(2, &[]);
        let payload = encode_state(1, &[4, 9], &no_edges, &SnapshotSeries::new());
        for cut in 0..payload.len() {
            assert!(
                decode_state(&payload[..cut]).is_err(),
                "prefix of {cut} bytes must not decode"
            );
        }
        assert!(decode_state(&payload).is_ok());
    }

    /// A 26-byte header claiming `n_pages` pages and nothing after it.
    fn header_claiming(n_pages: u64) -> Vec<u8> {
        let mut buf = BytesMut::new();
        buf.put_u16_le(STATE_VERSION);
        buf.put_u64_le(0);
        buf.put_f64_le(0.0);
        buf.put_u64_le(n_pages);
        buf.to_vec()
    }

    #[test]
    fn hostile_counts_are_decode_errors() {
        // page counts whose byte size overflows u64 with or without the
        // edge-count word after it, or that just exceed the payload
        for n_pages in [u64::MAX, 0x1FFF_FFFF_FFFF_FFFF, 0x2000_0000_0000_0000, 1] {
            assert!(
                matches!(
                    decode_state(&header_claiming(n_pages)),
                    Err(ServeError::Wal(WalError::Decode(_)))
                ),
                "n_pages = {n_pages:#x}"
            );
        }
        // the same for the edge count, behind zero pages
        for n_edges in [u64::MAX, 0x0FFF_FFFF_FFFF_FFFF, 0x1000_0000_0000_0000, 1] {
            let mut payload = header_claiming(0);
            payload.extend_from_slice(&n_edges.to_le_bytes());
            assert!(
                matches!(
                    decode_state(&payload),
                    Err(ServeError::Wal(WalError::Decode(_)))
                ),
                "n_edges = {n_edges:#x}"
            );
        }
    }

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("qrank_dur_{name}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn cfg(dir: &Path, checkpoint_every: u64) -> DurabilityConfig {
        DurabilityConfig {
            dir: dir.to_path_buf(),
            fsync: FsyncPolicy::Never,
            checkpoint_every,
        }
    }

    fn delta(i: u64) -> EdgeDelta {
        EdgeDelta {
            time: i as f64,
            new_pages: vec![100 + i],
            added: vec![(i, i + 1), (100 + i, i)],
            removed: if i > 2 { vec![(i - 1, i)] } else { vec![] },
        }
    }

    #[test]
    fn one_shard_frames_are_slotless_v1_records() {
        let dir = tmp("flat_frames");
        let mut journal = open_journal(&cfg(&dir, 0)).unwrap().journal;
        let deltas: Vec<EdgeDelta> = (0..4).map(delta).collect();
        for d in &deltas {
            journal.append(d).unwrap();
        }
        drop(journal);
        // the segments sit in the data dir itself, and each frame is the
        // delta's v1 encoding
        let (_, recovery) = Wal::open(&dir, WalOptions::default()).unwrap();
        assert_eq!(recovery.records.len(), deltas.len());
        for ((lsn, frame), d) in recovery.records.iter().zip(&deltas) {
            assert_eq!(frame, &qrank_wal::encode_delta(d), "lsn {lsn}");
            assert_eq!(frame[..2], 1u16.to_le_bytes(), "record codec v1");
        }
        let opened = open_journal(&cfg(&dir, 0)).unwrap();
        let replayed: Vec<EdgeDelta> = opened.deltas.into_iter().map(|(_, d)| d).collect();
        assert_eq!(replayed, deltas);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn backoff_is_deterministic_bounded_and_grows() {
        let p = RetryPolicy::standard(42);
        for attempt in 1..8 {
            for salt in 0..50 {
                let a = p.backoff_ms(attempt, salt);
                let b = p.backoff_ms(attempt, salt);
                assert_eq!(a, b, "equal seeds and history sleep identically");
                let exp = (RETRY_BASE_MS << (attempt - 1).min(20)).min(RETRY_MAX_MS);
                assert!(
                    a >= 1 && a >= exp / 2 && a <= exp,
                    "jitter window: {a} vs {exp}"
                );
            }
        }
        assert_ne!(
            p.backoff_ms(3, 1),
            RetryPolicy::standard(43).backoff_ms(3, 1),
            "different seeds jitter differently"
        );
    }

    #[test]
    fn with_retry_retries_transient_io_and_gives_up() {
        let p = RetryPolicy {
            attempts: 4,
            seed: 7,
        };
        let mut retries = 0;
        let mut calls = 0;
        let out: Result<u32, WalError> = with_retry(&p, &mut retries, || {
            calls += 1;
            if calls < 3 {
                Err(WalError::Io(std::io::Error::other("flaky")))
            } else {
                Ok(99)
            }
        });
        assert_eq!(out.unwrap(), 99);
        assert_eq!(calls, 3);
        assert_eq!(retries, 2);

        // exhaustion surfaces the final error
        let mut calls = 0;
        let out: Result<u32, WalError> = with_retry(&p, &mut retries, || {
            calls += 1;
            Err(WalError::Io(std::io::Error::other("still down")))
        });
        assert!(out.is_err());
        assert_eq!(calls, 4, "total attempts honored");

        // non-I/O errors are never retried
        let mut calls = 0;
        let out: Result<u32, WalError> = with_retry(&p, &mut retries, || {
            calls += 1;
            Err(WalError::Decode("bad version".into()))
        });
        assert!(out.is_err());
        assert_eq!(calls, 1, "decode failures are not transient");

        // disabled policy = single attempt
        let mut calls = 0;
        let _: Result<(), WalError> = with_retry(&RetryPolicy::default(), &mut retries, || {
            calls += 1;
            Err(WalError::Io(std::io::Error::other("down")))
        });
        assert_eq!(calls, 1);
    }
}
