//! Durable ingestion: journaling and checkpointing for the refresh
//! engine.
//!
//! The [`crate::RefreshEngine`] journals every [`crate::EdgeDelta`] to a
//! [`qrank_wal::Wal`] *before* applying it (write-ahead ordering), and
//! periodically checkpoints its full state so recovery replays only a
//! short WAL tail. This module owns the glue: the checkpoint payload
//! codec and the journal bookkeeping around the raw logs — one per
//! shard, opened, appended to, checkpointed and recovered the same way
//! whatever their number.
//!
//! ## Flat and sharded layouts
//!
//! A single-shard engine keeps the original layout — segments and
//! checkpoints directly under `--data-dir`, records in the slotless v1
//! codec, byte-compatible with logs written before sharding existed
//! (one shard's partition of a delta is that slotless record). An
//! N-shard engine (N > 1) turns `--data-dir` into a directory of
//! per-shard WAL subtrees:
//!
//! ```text
//! data/
//!   shard-000/seg-*.wal  ckpt-*.ck     (full-state checkpoints)
//!   shard-001/seg-*.wal  ckpt-*.ck     (marker checkpoints)
//!   ...
//! ```
//!
//! Every ingested delta appends exactly one record — possibly empty —
//! to *every* shard's log (see `crate::shard::partition_delta`), so the
//! per-shard LSN sequences stay aligned one-to-one and LSN `i` on every
//! shard is partition `i` of the same global delta. The layouts are
//! mutually exclusive: opening a sharded tree with the wrong shard
//! count, or a flat log with `--shards N`, is a configuration error,
//! not a silent reshard.
//!
//! ## The ensemble checkpoint protocol
//!
//! One checkpoint cycle at LSN `L` (the aligned head):
//!
//! 1. **sync every shard's log** — all records below `L` reach stable
//!    storage on every shard first (shard 0's as the first step of its
//!    own checkpoint, [`qrank_wal::Wal::checkpoint`]);
//! 2. shard 0 gets the **full state checkpoint** at `L`;
//! 3. shards 1..N get a small **marker** checkpoint at the *previous*
//!    full checkpoint's LSN (0 on the first cycle).
//!
//! Step 1 before step 2 gives the crash invariant: *if shard 0's
//! checkpoint at `L` is durable, every shard is durable through `L`* —
//! so recovery, whose replay starts at shard 0's checkpoint, always
//! finds the records it needs on every shard. The markers lag one cycle
//! so that if shard 0's newest checkpoint fails validation and recovery
//! falls back to the previous one (the WAL keeps two), the other shards
//! still retain the records that older checkpoint needs — compaction on
//! each shard only drops segments its own newest checkpoint covers.
//!
//! ## Recovery
//!
//! Shard logs are opened side by side through
//! [`qrank_graph::par::for_each_slot`], each into its own result slot
//! (one shard opens on the calling thread). The replay horizon is the
//! *minimum* head LSN across shards — a crash between per-shard appends
//! can leave some shards one record ahead; those overhanging records
//! were never applied (write-ahead covers the whole ensemble append)
//! and are physically truncated with [`qrank_wal::Wal::truncate_to`].
//! Shard 0's checkpoint payload is the single authority for engine
//! state (markers are ignored); the per-shard record streams from its
//! LSN to the horizon are zip-merged by LSN back into global deltas via
//! the slot arrays, reproducing the exact pre-crash interleaving — node
//! numbering, float summation order, and therefore published score
//! bits. At one shard the horizon is the log's head, and the merge of a
//! lone slotless record is that record.
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
//! assert this down to the last bit, sharded and flat.

use std::collections::VecDeque;
use std::path::{Path, PathBuf};

use bytes::{Buf, BufMut, BytesMut};
use qrank_graph::{CsrGraph, SnapshotSeries};
use qrank_wal::{FsyncPolicy, Recovery, Wal, WalError, WalOptions, WalStats};

use crate::delta::EdgeDelta;
use crate::error::ServeError;
use crate::shard::{merge_partitions, partition_delta};

/// How the refresh engine persists its ingest stream.
#[derive(Debug, Clone)]
pub struct DurabilityConfig {
    /// Directory holding WAL segments and checkpoints (created if
    /// absent). With more than one shard this becomes a directory of
    /// `shard-NNN/` WAL subtrees.
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
    /// WAL records replayed on top of the checkpoint (global deltas; a
    /// sharded journal counts each merged delta once).
    pub replayed_records: u64,
    /// Why a newest segment's tail was truncated, if one was (sharded
    /// journals prefix the shard index).
    pub torn_tail: Option<String>,
    /// Checkpoints that failed validation and were skipped, across all
    /// shards.
    pub skipped_checkpoints: u64,
    /// Replayed deltas the engine rejected (exactly as the original
    /// process rejected them — state is unaffected either way).
    pub replay_errors: Vec<String>,
    /// Shards in the journal layout (1 = flat).
    pub shards: usize,
    /// Overhanging records cut back to the cross-shard horizon — the
    /// tail of an ensemble append interrupted between shards.
    pub truncated_records: u64,
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
/// Retry soundness: [`qrank_wal::Wal::append`] rolls a partially
/// written frame back before returning an error, so a retried append
/// always lands on a clean tail; a sharded journal retries each
/// shard's append independently, so shards that already took the
/// record are never appended twice.
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

/// Marker payload for the lagging checkpoints on shards 1..N. Never
/// decoded — shard 0's payload is the only engine-state authority.
const SHARD_CKPT_MARKER: &[u8] = b"qrank sharded-journal marker";

/// Subdirectory of one shard's WAL subtree.
pub(crate) fn shard_dir(root: &Path, shard: usize) -> PathBuf {
    root.join(format!("shard-{shard:03}"))
}

/// The WAL directories of the data directory `root`, in shard order:
/// its `shard-NNN` subtrees when it holds any, else `[root]` itself (a
/// flat journal, or none yet). Only directories count as subtrees — a
/// file named like one leaves the layout flat — and they must be
/// numbered contiguously from `shard-000`. Reads only; a missing `root`
/// lists as flat.
pub fn wal_dirs(root: &Path) -> Result<Vec<PathBuf>, ServeError> {
    let mut found: Vec<usize> = Vec::new();
    if root.is_dir() {
        for entry in std::fs::read_dir(root).map_err(|e| ServeError::Wal(e.into()))? {
            let entry = entry.map_err(|e| ServeError::Wal(e.into()))?;
            let name = entry.file_name();
            let Some(n) = name
                .to_str()
                .and_then(|n| n.strip_prefix("shard-"))
                .and_then(|s| s.parse::<usize>().ok())
            else {
                continue;
            };
            if entry.path().is_dir() {
                found.push(n);
            }
        }
    }
    found.sort_unstable();
    for (i, &s) in found.iter().enumerate() {
        if i != s {
            return Err(ServeError::Config(format!(
                "data dir {} has a gap in its shard subtrees (missing shard-{i:03})",
                root.display()
            )));
        }
    }
    if found.is_empty() {
        return Ok(vec![root.to_path_buf()]);
    }
    Ok((0..found.len())
        .map(|shard| shard_dir(root, shard))
        .collect())
}

fn has_flat_wal_files(root: &Path) -> bool {
    let Ok(entries) = std::fs::read_dir(root) else {
        return false;
    };
    entries.flatten().any(|e| {
        e.file_name()
            .to_str()
            .is_some_and(|n| n.starts_with("seg-") || n.starts_with("ckpt-"))
    })
}

/// The engine's handle on its write-ahead log ensemble: one [`Wal`] per
/// shard (a flat journal is the one-shard case) plus the
/// automatic-checkpoint countdown and the lag-one marker position.
#[derive(Debug)]
pub(crate) struct Journal {
    wals: Vec<Wal>,
    checkpoint_every: u64,
    since_checkpoint: u64,
    prev_full_ckpt_lsn: u64,
    retry: RetryPolicy,
    /// Cumulative backoffs taken — salts the jitter and feeds stats.
    retries: u64,
}

impl Journal {
    pub(crate) fn new(wals: Vec<Wal>, checkpoint_every: u64, prev_full_ckpt_lsn: u64) -> Self {
        assert!(!wals.is_empty(), "a journal needs at least one log");
        Journal {
            wals,
            checkpoint_every,
            since_checkpoint: 0,
            prev_full_ckpt_lsn,
            retry: RetryPolicy::default(),
            retries: 0,
        }
    }

    /// Install a retry policy for transient append/sync I/O errors.
    pub(crate) fn set_retry(&mut self, policy: RetryPolicy) {
        self.retry = policy;
    }

    /// Append one delta (write-ahead: callers do this *before* mutating
    /// engine state): one partition record to every shard's log, keeping
    /// their LSN sequences aligned. One shard's partition is the slotless
    /// record, which encodes as v1.
    ///
    /// Transient I/O errors are retried per the installed
    /// [`RetryPolicy`] — per shard, so a partial ensemble append only
    /// ever retries the shards that haven't taken the record yet
    /// ([`Wal::append`] rolls back its own partial frames).
    pub(crate) fn append(&mut self, delta: &EdgeDelta) -> Result<(), WalError> {
        let parts = partition_delta(delta, self.wals.len());
        for (wal, part) in self.wals.iter_mut().zip(&parts) {
            let frame = qrank_wal::encode_delta(part);
            with_retry(&self.retry, &mut self.retries, || wal.append(&frame))?;
        }
        self.since_checkpoint += 1;
        Ok(())
    }

    /// Has the automatic-checkpoint interval elapsed?
    pub(crate) fn due(&self) -> bool {
        self.checkpoint_every > 0 && self.since_checkpoint >= self.checkpoint_every
    }

    /// Write a checkpoint with `payload` and compact. Returns the LSN of
    /// the full-state checkpoint (shard 0's).
    ///
    /// Order matters: shards 1..N are synced, then shard 0's checkpoint
    /// syncs shard 0 before it writes, so a durable shard-0 checkpoint
    /// at `L` implies every shard is durable through `L`; shards 1..N
    /// then take marker checkpoints at the previous full checkpoint's
    /// LSN (see module docs for why they lag one cycle).
    pub(crate) fn checkpoint(&mut self, payload: &[u8]) -> Result<u64, WalError> {
        let (full, markers) = self.wals.split_first_mut().expect("a journal has a log");
        for wal in markers.iter_mut() {
            wal.sync()?;
        }
        let lsn = full.checkpoint(payload)?;
        for wal in markers {
            wal.checkpoint_at(self.prev_full_ckpt_lsn, SHARD_CKPT_MARKER)?;
        }
        self.prev_full_ckpt_lsn = lsn;
        self.since_checkpoint = 0;
        Ok(lsn)
    }

    /// Aggregate journal geometry: head LSN is the (aligned) minimum,
    /// sizes sum across shards, the checkpoint LSN is shard 0's (the
    /// full-state one).
    pub(crate) fn stats(&self) -> WalStats {
        let mut agg = self.wals[0].stats();
        for wal in &self.wals[1..] {
            let s = wal.stats();
            agg.next_lsn = agg.next_lsn.min(s.next_lsn);
            agg.segments += s.segments;
            agg.active_segment_bytes += s.active_segment_bytes;
        }
        agg
    }
}

/// Everything [`open_journal`] recovered: the journal to keep writing
/// through, the authoritative checkpoint payload (shard 0's), the
/// merged global deltas to replay in LSN order, and the report.
pub(crate) struct OpenedJournal {
    pub(crate) journal: Journal,
    pub(crate) checkpoint: Option<Vec<u8>>,
    pub(crate) deltas: Vec<(u64, EdgeDelta)>,
    pub(crate) report: RecoveryReport,
}

/// Open (and recover) the journal under `cfg.dir` with `shards` shards:
/// one log in `cfg.dir` itself, or one in each `shard-NNN` subtree.
///
/// Refuses to reinterpret an existing directory under a different shard
/// count — resharding is a migration, not an open-time default.
pub(crate) fn open_journal(
    cfg: &DurabilityConfig,
    shards: usize,
) -> Result<OpenedJournal, ServeError> {
    let shards = shards.max(1);
    std::fs::create_dir_all(&cfg.dir).map_err(|e| ServeError::Wal(e.into()))?;
    let found = wal_dirs(&cfg.dir)?;
    let existing = if found[0] == cfg.dir { 0 } else { found.len() };
    let dirs = if shards == 1 {
        if existing > 0 {
            return Err(ServeError::Config(format!(
                "data dir {} holds a {existing}-shard journal; pass --shards {existing}",
                cfg.dir.display()
            )));
        }
        found
    } else {
        if existing == 0 && has_flat_wal_files(&cfg.dir) {
            return Err(ServeError::Config(format!(
                "data dir {} holds an unsharded journal; open it with --shards 1",
                cfg.dir.display()
            )));
        }
        if existing > 0 && existing != shards {
            return Err(ServeError::Config(format!(
                "data dir {} holds a {existing}-shard journal but --shards {shards} was requested \
                 (resharding requires a fresh data dir)",
                cfg.dir.display()
            )));
        }
        (0..shards)
            .map(|shard| shard_dir(&cfg.dir, shard))
            .collect()
    };
    open_logs(cfg, &dirs)
}

/// Open one log per directory in `dirs` (shard order), cut them back to
/// their common horizon, and zip-merge their records from shard 0's
/// checkpoint into global deltas.
fn open_logs(cfg: &DurabilityConfig, dirs: &[PathBuf]) -> Result<OpenedJournal, ServeError> {
    let _span = qrank_obs::span!("shard.wal_open");
    let opts = WalOptions {
        fsync: cfg.fsync,
        ..WalOptions::default()
    };
    // Every slot starts as the error an unopened log would report;
    // `for_each_slot` runs each pair exactly once, so each is replaced
    // by its own log's open.
    let mut opened: Vec<Result<(Wal, Recovery), WalError>> = dirs
        .iter()
        .map(|_| Err(WalError::Config("log not opened".into())))
        .collect();
    qrank_graph::par::for_each_slot(&mut opened, dirs, dirs.len(), |slot, dir| {
        *slot = Wal::open(dir, opts.clone());
    });
    let mut wals = Vec::with_capacity(dirs.len());
    let mut recoveries = Vec::with_capacity(dirs.len());
    for result in opened {
        let (wal, recovery) = result?;
        wals.push(wal);
        recoveries.push(recovery);
    }

    let mut report = RecoveryReport {
        shards: dirs.len(),
        ..RecoveryReport::default()
    };
    for (shard, rec) in recoveries.iter().enumerate() {
        report.skipped_checkpoints += rec.skipped_checkpoints;
        if let Some(reason) = &rec.torn_tail {
            // a flat log's reason stands alone; a shard's names its shard
            let reason = match dirs.len() {
                1 => reason.clone(),
                _ => format!("shard {shard}: {reason}"),
            };
            report.torn_tail = Some(match report.torn_tail.take() {
                Some(prev) => format!("{prev}; {reason}"),
                None => reason,
            });
        }
    }

    // The replay horizon: a crash between per-shard appends leaves some
    // shards one record ahead. Those records were never applied
    // (write-ahead covers the whole ensemble append), so cut them.
    let horizon = wals
        .iter()
        .map(|w| w.next_lsn())
        .min()
        .expect("a journal has a log");
    for wal in wals.iter_mut() {
        report.truncated_records += wal.truncate_to(horizon)?;
    }

    // Shard 0's checkpoint is the engine-state authority; the other
    // shards' markers only steer their local retention.
    let checkpoint = recoveries[0].checkpoint.take();
    let start = checkpoint.as_ref().map_or(0, |c| c.lsn);

    let mut streams: Vec<VecDeque<(u64, Vec<u8>)>> = recoveries
        .iter_mut()
        .map(|rec| {
            std::mem::take(&mut rec.records)
                .into_iter()
                .filter(|(lsn, _)| *lsn >= start && *lsn < horizon)
                .collect()
        })
        .collect();
    let mut deltas = Vec::with_capacity((horizon.saturating_sub(start)) as usize);
    for lsn in start..horizon {
        let mut parts = Vec::with_capacity(streams.len());
        for (shard, stream) in streams.iter_mut().enumerate() {
            match stream.pop_front() {
                Some((l, payload)) if l == lsn => {
                    parts.push(qrank_wal::decode_delta(&payload)?);
                }
                other => {
                    return Err(ServeError::Config(format!(
                        "shard {shard} journal is missing record {lsn} (found {:?}); \
                         the shard logs disagree",
                        other.map(|(l, _)| l)
                    )));
                }
            }
        }
        let delta = merge_partitions(&parts)
            .map_err(|e| ServeError::Config(format!("merging shard records at lsn {lsn}: {e}")))?;
        deltas.push((lsn, delta));
    }

    Ok(OpenedJournal {
        journal: Journal::new(wals, cfg.checkpoint_every, start),
        checkpoint: checkpoint.map(|c| c.payload),
        deltas,
        report,
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
    use qrank_wal::DeltaRecord;

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
        let mut journal = open_journal(&cfg(&dir, 0), 1).unwrap().journal;
        let deltas: Vec<EdgeDelta> = (0..4).map(delta).collect();
        for d in &deltas {
            journal.append(d).unwrap();
        }
        drop(journal);
        // the segments sit in the data dir itself, and each frame is the
        // v1 encoding of the delta's slotless record
        let (_, recovery) = Wal::open(&dir, WalOptions::default()).unwrap();
        assert_eq!(recovery.records.len(), deltas.len());
        for ((lsn, frame), d) in recovery.records.iter().zip(&deltas) {
            let record = DeltaRecord {
                time: d.time,
                new_pages: d.new_pages.clone(),
                added: d.added.clone(),
                removed: d.removed.clone(),
                ..DeltaRecord::default()
            };
            assert_eq!(frame, &qrank_wal::encode_delta(&record), "lsn {lsn}");
            assert_eq!(frame[..2], 1u16.to_le_bytes(), "record codec v1");
        }
        let opened = open_journal(&cfg(&dir, 0), 1).unwrap();
        assert_eq!(opened.report.shards, 1);
        let replayed: Vec<EdgeDelta> = opened.deltas.into_iter().map(|(_, d)| d).collect();
        assert_eq!(replayed, deltas);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn sharded_journal_roundtrips_deltas_in_order() {
        let dir = tmp("roundtrip");
        let opened = open_journal(&cfg(&dir, 0), 3).unwrap();
        assert_eq!(opened.report.shards, 3);
        let mut journal = opened.journal;
        let deltas: Vec<EdgeDelta> = (0..7).map(delta).collect();
        for d in &deltas {
            journal.append(d).unwrap();
        }
        drop(journal);
        let opened = open_journal(&cfg(&dir, 0), 3).unwrap();
        assert!(opened.checkpoint.is_none());
        let replayed: Vec<EdgeDelta> = opened.deltas.iter().map(|(_, d)| d.clone()).collect();
        assert_eq!(replayed, deltas, "merged replay must match ingest order");
        assert_eq!(opened.deltas.first().unwrap().0, 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn ensemble_checkpoint_trims_replay_and_markers_lag() {
        let dir = tmp("ckpt");
        let mut journal = open_journal(&cfg(&dir, 0), 2).unwrap().journal;
        for i in 0..5 {
            journal.append(&delta(i)).unwrap();
        }
        assert_eq!(journal.checkpoint(b"state-a").unwrap(), 5);
        for i in 5..8 {
            journal.append(&delta(i)).unwrap();
        }
        assert_eq!(journal.checkpoint(b"state-b").unwrap(), 8);
        journal.append(&delta(8)).unwrap();
        drop(journal);
        let opened = open_journal(&cfg(&dir, 0), 2).unwrap();
        assert_eq!(opened.checkpoint.as_deref(), Some(&b"state-b"[..]));
        let lsns: Vec<u64> = opened.deltas.iter().map(|(l, _)| *l).collect();
        assert_eq!(lsns, vec![8], "replay starts at the full checkpoint");
        assert_eq!(opened.deltas[0].1, delta(8));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn overhanging_shard_records_are_truncated_to_the_horizon() {
        let dir = tmp("horizon");
        let mut journal = open_journal(&cfg(&dir, 0), 2).unwrap().journal;
        for i in 0..4 {
            journal.append(&delta(i)).unwrap();
        }
        drop(journal);
        // Simulate a crash mid-ensemble-append: shard 0 got record 4,
        // shard 1 did not.
        let (mut w0, _) = Wal::open(&shard_dir(&dir, 0), WalOptions::default()).unwrap();
        w0.append(&qrank_wal::encode_delta(&partition_delta(&delta(4), 2)[0]))
            .unwrap();
        drop(w0);
        let opened = open_journal(&cfg(&dir, 0), 2).unwrap();
        assert_eq!(opened.report.truncated_records, 1);
        assert_eq!(opened.deltas.len(), 4, "the overhang is not replayed");
        drop(opened);
        // After truncation the logs agree again and append resumes at 4.
        let mut journal = open_journal(&cfg(&dir, 0), 2).unwrap().journal;
        journal.append(&delta(4)).unwrap();
        drop(journal);
        let opened = open_journal(&cfg(&dir, 0), 2).unwrap();
        assert_eq!(opened.deltas.len(), 5);
        assert_eq!(opened.report.truncated_records, 0);
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

    #[test]
    fn layout_mismatches_are_config_errors() {
        let dir = tmp("mismatch");
        drop(open_journal(&cfg(&dir, 0), 2).unwrap());
        assert!(matches!(
            open_journal(&cfg(&dir, 0), 1),
            Err(ServeError::Config(_))
        ));
        assert!(matches!(
            open_journal(&cfg(&dir, 0), 4),
            Err(ServeError::Config(_))
        ));
        let flat = tmp("mismatch_flat");
        drop(open_journal(&cfg(&flat, 0), 1).unwrap());
        assert!(matches!(
            open_journal(&cfg(&flat, 0), 2),
            Err(ServeError::Config(_))
        ));
        std::fs::remove_dir_all(&dir).unwrap();
        std::fs::remove_dir_all(&flat).unwrap();
    }
}
