//! The [`Wal`] manager: open/recover, append, rotate, checkpoint,
//! compact, inspect.
//!
//! One `Wal` owns one directory. Opening scans every segment in
//! sequence order, validates the LSN chain (each segment's `first_lsn`
//! must equal the previous segment's end), repairs a torn tail on the
//! *newest* segment, selects the newest checkpoint that validates, and
//! hands back the records that post-date it for replay. Any damage a
//! torn write cannot explain is a hard [`WalError::Corrupt`] — the log
//! never silently skips a record.

use std::fs::{File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use crate::checkpoint::{self, Checkpoint};
use crate::segment::{self, SegmentTail, FRAME_OVERHEAD, HEADER_LEN};
use crate::{FsyncPolicy, WalError, WalOptions};

fn bump(name: &'static str) {
    if qrank_obs::enabled() {
        qrank_obs::global().counter(name).inc();
    }
}

fn bump_by(name: &'static str, n: u64) {
    if qrank_obs::enabled() {
        qrank_obs::global().counter(name).add(n);
    }
}

/// `fsync` the directory itself so renames and unlinks are durable.
fn sync_dir(dir: &Path) -> Result<(), WalError> {
    // Directories cannot be opened for writing; a read handle suffices
    // for fsync on POSIX. Failure is surfaced: durability is the point.
    File::open(dir)?.sync_all()?;
    Ok(())
}

/// In-memory bookkeeping for one on-disk segment.
#[derive(Debug, Clone)]
struct SegInfo {
    seq: u64,
    first_lsn: u64,
    /// One past the last LSN stored in this segment.
    end_lsn: u64,
}

/// What [`Wal::open`] found on disk.
#[derive(Debug)]
pub struct Recovery {
    /// Newest checkpoint that validated, if any.
    pub checkpoint: Option<Checkpoint>,
    /// Records to replay on top of the checkpoint: `(lsn, payload)`,
    /// ascending, CRC-verified. Starts at the checkpoint's LSN (or LSN 0
    /// with no checkpoint).
    pub records: Vec<(u64, Vec<u8>)>,
    /// Why the newest segment's tail was truncated, if it was — the
    /// expected signature of a crash mid-append.
    pub torn_tail: Option<String>,
    /// Checkpoints that failed validation and were passed over for an
    /// older one. Nonzero deserves an operator's attention.
    pub skipped_checkpoints: u64,
}

/// A point-in-time summary of an open log (for benchmarks and the CLI).
#[derive(Debug, Clone)]
pub struct WalStats {
    /// LSN the next append will receive.
    pub next_lsn: u64,
    /// Live segment files.
    pub segments: u64,
    /// Bytes in the active (newest) segment.
    pub active_segment_bytes: u64,
    /// LSN of the newest checkpoint, if any.
    pub last_checkpoint_lsn: Option<u64>,
}

/// Read-only description of one segment, from [`inspect`].
#[derive(Debug, Clone)]
pub struct SegmentSummary {
    /// Segment sequence number.
    pub seq: u64,
    /// LSN of the segment's first record.
    pub first_lsn: u64,
    /// CRC-verified records in the segment.
    pub records: u64,
    /// File size in bytes.
    pub bytes: u64,
    /// Human-readable torn-tail cause, if the segment has one.
    pub torn: Option<String>,
}

/// Read-only description of one checkpoint, from [`inspect`].
#[derive(Debug, Clone)]
pub struct CheckpointSummary {
    /// Checkpoint sequence number.
    pub seq: u64,
    /// LSN the checkpoint covers up to.
    pub lsn: u64,
    /// Payload size in bytes.
    pub payload_bytes: u64,
    /// Did the file's CRC and structure validate?
    pub valid: bool,
}

/// Read-only description of a WAL directory, from [`inspect`].
#[derive(Debug, Clone)]
pub struct Inspection {
    /// Segments in sequence order.
    pub segments: Vec<SegmentSummary>,
    /// Checkpoints in sequence order.
    pub checkpoints: Vec<CheckpointSummary>,
    /// Total CRC-verified records across all segments.
    pub total_records: u64,
}

/// A segmented, checksummed, append-only journal rooted at one
/// directory. See the [crate docs](crate) for the durability contract.
#[derive(Debug)]
pub struct Wal {
    dir: PathBuf,
    opts: WalOptions,
    segments: Vec<SegInfo>,
    active: File,
    active_bytes: u64,
    next_lsn: u64,
    last_checkpoint: Option<(u64, u64)>, // (seq, lsn)
    /// LSN recovery replays from if the newest checkpoint fails
    /// validation; [`Wal::compact`] keeps every record from it on.
    /// `None` until a checkpoint is written or compaction reads it.
    fallback_lsn: Option<u64>,
    unsynced: u64,
}

/// Sweep temp files left by a crash mid-create/mid-checkpoint.
fn sweep_tmp(dir: &Path) -> Result<(), WalError> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        if entry
            .file_name()
            .to_str()
            .is_some_and(|n| n.ends_with(".tmp"))
        {
            std::fs::remove_file(entry.path())?;
        }
    }
    Ok(())
}

fn list_segments(dir: &Path) -> Result<Vec<u64>, WalError> {
    let mut seqs = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        if let Some(seq) = entry
            .file_name()
            .to_str()
            .and_then(segment::parse_segment_name)
        {
            seqs.push(seq);
        }
    }
    seqs.sort_unstable();
    Ok(seqs)
}

/// Read every segment in `dir`, fully validated: contiguous sequence
/// numbers, header/name agreement, an unbroken LSN chain, and a torn
/// tail permitted only on the newest segment. No file is modified —
/// this is the shared read path of [`Wal::open`] and [`scan`].
fn read_chain(dir: &Path) -> Result<Vec<segment::ReadSegment>, WalError> {
    let seqs = list_segments(dir)?;
    let mut out: Vec<segment::ReadSegment> = Vec::with_capacity(seqs.len());
    for (i, &seq) in seqs.iter().enumerate() {
        let path = segment::segment_path(dir, seq);
        let is_newest = i + 1 == seqs.len();
        if i > 0 && seq != seqs[i - 1] + 1 {
            return Err(WalError::Corrupt {
                file: path.display().to_string(),
                offset: 0,
                reason: format!("segment sequence gap: {} then {seq}", seqs[i - 1]),
            });
        }
        let read = segment::read_segment(&path)?;
        if read.seq != seq {
            return Err(WalError::Corrupt {
                file: path.display().to_string(),
                offset: 8,
                reason: format!("header says segment {} but file is named {seq}", read.seq),
            });
        }
        if let Some(prev) = out.last() {
            let prev_end = prev.first_lsn + prev.records.len() as u64;
            if read.first_lsn != prev_end {
                return Err(WalError::Corrupt {
                    file: path.display().to_string(),
                    offset: 16,
                    reason: format!(
                        "LSN chain break: previous segment ends at {prev_end} but this one starts at {}",
                        read.first_lsn
                    ),
                });
            }
        }
        if let SegmentTail::Torn { valid_len, reason } = &read.tail {
            if !is_newest {
                // Only the segment being appended to at crash time can
                // legitimately be torn.
                return Err(WalError::Corrupt {
                    file: path.display().to_string(),
                    offset: *valid_len,
                    reason: format!("torn tail in a non-final segment: {reason}"),
                });
            }
        }
        out.push(read);
    }
    Ok(out)
}

impl Wal {
    /// Open (creating if absent) the journal in `dir`, validating every
    /// segment and returning both the writable log and the [`Recovery`]
    /// needed to rebuild engine state.
    pub fn open(dir: &Path, opts: WalOptions) -> Result<(Wal, Recovery), WalError> {
        let _span = qrank_obs::span!("wal.open");
        std::fs::create_dir_all(dir)?;
        sweep_tmp(dir)?;

        let chain = read_chain(dir)?;
        let mut segments = Vec::with_capacity(chain.len());
        let mut all_records: Vec<(u64, Vec<u8>)> = Vec::new();
        let mut torn_tail = None;
        let mut active_bytes = HEADER_LEN;

        let n = chain.len();
        for (i, read) in chain.into_iter().enumerate() {
            let is_newest = i + 1 == n;
            if let SegmentTail::Torn { valid_len, reason } = &read.tail {
                // read_chain guarantees only the newest can be torn;
                // repair it by truncating to the last valid frame.
                let path = segment::segment_path(dir, read.seq);
                let f = OpenOptions::new().write(true).open(&path)?;
                f.set_len(*valid_len)?;
                f.sync_all()?;
                torn_tail = Some(reason.clone());
                bump("wal.recover.torn");
            }
            let end_lsn = read.first_lsn + read.records.len() as u64;
            if is_newest {
                active_bytes = HEADER_LEN
                    + read
                        .records
                        .iter()
                        .map(|r| FRAME_OVERHEAD + r.len() as u64)
                        .sum::<u64>();
            }
            segments.push(SegInfo {
                seq: read.seq,
                first_lsn: read.first_lsn,
                end_lsn,
            });
            let first_lsn = read.first_lsn;
            for (k, payload) in read.records.into_iter().enumerate() {
                all_records.push((first_lsn + k as u64, payload));
            }
        }

        let next_lsn = segments.last().map_or(0, |s| s.end_lsn);

        // Newest checkpoint that validates wins; invalid ones are
        // skipped (and counted) because the WAL tail still covers them.
        let mut checkpoint = None;
        let mut skipped = 0u64;
        let mut last_checkpoint = None;
        for seq in checkpoint::list_checkpoints(dir)?.into_iter().rev() {
            match checkpoint::read_checkpoint(&checkpoint::checkpoint_path(dir, seq)) {
                Ok(ck) => {
                    last_checkpoint = Some((ck.seq, ck.lsn));
                    checkpoint = Some(ck);
                    break;
                }
                Err(_) => skipped += 1,
            }
        }
        let replay_from = checkpoint.as_ref().map_or(0, |ck| ck.lsn);
        if replay_from > next_lsn {
            return Err(WalError::Corrupt {
                file: dir.display().to_string(),
                offset: 0,
                reason: format!(
                    "checkpoint covers LSN {replay_from} but the log ends at {next_lsn}"
                ),
            });
        }
        if let Some(first) = segments.first() {
            if replay_from < first.first_lsn {
                return Err(WalError::Corrupt {
                    file: dir.display().to_string(),
                    offset: 0,
                    reason: format!(
                        "replay must start at LSN {replay_from} but the oldest segment starts at {}",
                        first.first_lsn
                    ),
                });
            }
        } else if replay_from > 0 {
            return Err(WalError::Corrupt {
                file: dir.display().to_string(),
                offset: 0,
                reason: format!("checkpoint covers LSN {replay_from} but no segments remain"),
            });
        }
        let records: Vec<(u64, Vec<u8>)> = all_records
            .into_iter()
            .filter(|(lsn, _)| *lsn >= replay_from)
            .collect();
        bump_by("wal.recover.records", records.len() as u64);

        // Open (or create) the active segment for appending.
        let active = match segments.last() {
            Some(info) => OpenOptions::new()
                .append(true)
                .open(segment::segment_path(dir, info.seq))?,
            None => {
                let f = segment::create_segment(dir, 0, 0)?;
                sync_dir(dir)?;
                segments.push(SegInfo {
                    seq: 0,
                    first_lsn: 0,
                    end_lsn: 0,
                });
                f
            }
        };

        let wal = Wal {
            dir: dir.to_path_buf(),
            opts,
            segments,
            active,
            active_bytes,
            next_lsn,
            last_checkpoint,
            fallback_lsn: None,
            unsynced: 0,
        };
        Ok((
            wal,
            Recovery {
                checkpoint,
                records,
                torn_tail,
                skipped_checkpoints: skipped,
            },
        ))
    }

    /// LSN the next [`append`](Self::append) will be assigned.
    pub fn next_lsn(&self) -> u64 {
        self.next_lsn
    }

    /// Append one record payload; returns its LSN. Rotation and the
    /// fsync policy are handled here.
    ///
    /// `Err` means the record is not in the log: a frame whose write or
    /// policy sync fails is cut back off the segment before the error
    /// returns, so a retried append lands on a clean tail and is never
    /// journaled twice.
    pub fn append(&mut self, payload: &[u8]) -> Result<u64, WalError> {
        let _span = qrank_obs::span!("wal.append");
        if crate::fault::chaos_fail("wal.append") {
            return Err(WalError::Io(std::io::Error::other(
                "chaos: injected wal.append fault",
            )));
        }
        let frame = segment::frame_record(payload);
        if self.active_bytes > HEADER_LEN
            && self.active_bytes + frame.len() as u64 > self.opts.max_segment_bytes
        {
            self.rotate()?;
        }
        let (tail, lsn, unsynced) = (self.active_bytes, self.next_lsn, self.unsynced);
        let written = self.active.write_all(&frame).map_err(WalError::from);
        let appended = written.and_then(|()| {
            self.active_bytes += frame.len() as u64;
            self.next_lsn += 1;
            self.set_end_lsn(self.next_lsn);
            match self.opts.fsync {
                FsyncPolicy::Always => self.sync(),
                FsyncPolicy::EveryN(n) => {
                    self.unsynced += 1;
                    if self.unsynced >= n {
                        self.sync()
                    } else {
                        Ok(())
                    }
                }
                FsyncPolicy::Never => Ok(()),
            }
        });
        if let Err(e) = appended {
            // A new segment's handle writes at its cursor, not at the end
            // of the file, so the cursor goes back with the cut.
            let _ = self
                .active
                .set_len(tail)
                .and_then(|()| self.active.seek(SeekFrom::Start(tail)));
            self.active_bytes = tail;
            self.next_lsn = lsn;
            self.unsynced = unsynced;
            self.set_end_lsn(lsn);
            return Err(e);
        }
        bump("wal.append");
        Ok(lsn)
    }

    fn set_end_lsn(&mut self, end_lsn: u64) {
        self.segments
            .last_mut()
            .expect("wal always has an active segment")
            .end_lsn = end_lsn;
    }

    /// Flush the active segment to stable storage.
    pub fn sync(&mut self) -> Result<(), WalError> {
        let _span = qrank_obs::span!("wal.sync");
        if crate::fault::chaos_fail("wal.sync") {
            return Err(WalError::Io(std::io::Error::other(
                "chaos: injected wal.sync fault",
            )));
        }
        self.active.sync_data()?;
        self.unsynced = 0;
        bump("wal.sync");
        Ok(())
    }

    fn rotate(&mut self) -> Result<(), WalError> {
        let _span = qrank_obs::span!("wal.rotate");
        self.sync()?;
        let seq = self
            .segments
            .last()
            .expect("wal always has an active segment")
            .seq
            + 1;
        self.active = segment::create_segment(&self.dir, seq, self.next_lsn)?;
        sync_dir(&self.dir)?;
        self.active_bytes = HEADER_LEN;
        self.segments.push(SegInfo {
            seq,
            first_lsn: self.next_lsn,
            end_lsn: self.next_lsn,
        });
        bump("wal.rotate");
        Ok(())
    }

    /// Write a checkpoint covering everything appended so far, then
    /// [`compact`](Self::compact). Returns the checkpoint's LSN.
    ///
    /// The log is synced *before* the checkpoint is written, so a
    /// checkpoint on disk can never reference records that are not.
    pub fn checkpoint(&mut self, payload: &[u8]) -> Result<u64, WalError> {
        let _span = qrank_obs::span!("wal.checkpoint");
        if crate::fault::chaos_fail("wal.checkpoint") {
            return Err(WalError::Io(std::io::Error::other(
                "chaos: injected wal.checkpoint fault",
            )));
        }
        let lsn = self.next_lsn;
        self.sync()?;
        let seq = self.last_checkpoint.map_or(0, |(s, _)| s + 1);
        checkpoint::write_checkpoint(&self.dir, seq, lsn, payload)?;
        sync_dir(&self.dir)?;
        self.fallback_lsn = Some(self.last_checkpoint.map_or(lsn, |(_, prev)| prev));
        self.last_checkpoint = Some((seq, lsn));
        bump("wal.checkpoint");
        self.compact()?;
        Ok(lsn)
    }

    /// Keep the two newest checkpoints and the segments the *older* of
    /// them still needs: if the newest is ever found corrupt, recovery
    /// falls back to the previous one and replays from its LSN. Deletes
    /// every older checkpoint and every segment wholly below that LSN
    /// (never the active segment); a lone checkpoint covers its own.
    /// Returns how many segment files were removed.
    pub fn compact(&mut self) -> Result<u64, WalError> {
        let Some((ckpt_seq, ckpt_lsn)) = self.last_checkpoint else {
            return Ok(0);
        };
        // A freshly opened log learns its fallback from the disk.
        let keep_from = *self.fallback_lsn.get_or_insert_with(|| {
            ckpt_seq
                .checked_sub(1)
                .and_then(|prev| {
                    checkpoint::read_checkpoint(&checkpoint::checkpoint_path(&self.dir, prev)).ok()
                })
                .map_or(ckpt_lsn, |prev| prev.lsn.min(ckpt_lsn))
        });
        let mut removed = 0u64;
        while self.segments.len() > 1 && self.segments[0].end_lsn <= keep_from {
            let info = self.segments.remove(0);
            std::fs::remove_file(segment::segment_path(&self.dir, info.seq))?;
            removed += 1;
        }
        for seq in checkpoint::list_checkpoints(&self.dir)? {
            if seq + 1 < ckpt_seq {
                std::fs::remove_file(checkpoint::checkpoint_path(&self.dir, seq))?;
            }
        }
        if removed > 0 {
            sync_dir(&self.dir)?;
            bump_by("wal.compact.segments", removed);
        }
        Ok(removed)
    }

    /// Current log geometry.
    pub fn stats(&self) -> WalStats {
        WalStats {
            next_lsn: self.next_lsn,
            segments: self.segments.len() as u64,
            active_segment_bytes: self.active_bytes,
            last_checkpoint_lsn: self.last_checkpoint.map(|(_, lsn)| lsn),
        }
    }
}

/// Read-only scan of a WAL directory: per-segment and per-checkpoint
/// summaries without repairing or writing anything. Structural damage
/// (bad headers, mid-segment CRC failures, LSN chain breaks, torn tails
/// anywhere but the newest segment) is still a hard error; invalid
/// *checkpoints* are reported with `valid: false` rather than failing
/// the scan, since recovery can survive them.
pub fn inspect(dir: &Path) -> Result<Inspection, WalError> {
    Ok(scan(dir)?.0)
}

/// CRC-verified records in ascending LSN order: `(lsn, payload)`.
pub type Records = Vec<(u64, Vec<u8>)>;

/// Like [`inspect`], but also returns every CRC-verified record so the
/// caller can validate payload contents — the CLI's `wal --op verify`
/// decodes each one.
pub fn scan(dir: &Path) -> Result<(Inspection, Records), WalError> {
    let mut segments = Vec::new();
    let mut records = Vec::new();
    let mut total = 0u64;
    for read in read_chain(dir)? {
        let path = segment::segment_path(dir, read.seq);
        let bytes = std::fs::metadata(&path)?.len();
        total += read.records.len() as u64;
        segments.push(SegmentSummary {
            seq: read.seq,
            first_lsn: read.first_lsn,
            records: read.records.len() as u64,
            bytes,
            torn: match &read.tail {
                SegmentTail::Clean => None,
                SegmentTail::Torn { reason, .. } => Some(reason.clone()),
            },
        });
        for (k, payload) in read.records.into_iter().enumerate() {
            records.push((read.first_lsn + k as u64, payload));
        }
    }
    let mut checkpoints = Vec::new();
    for seq in checkpoint::list_checkpoints(dir)? {
        let path = checkpoint::checkpoint_path(dir, seq);
        match checkpoint::read_checkpoint(&path) {
            Ok(ck) => checkpoints.push(CheckpointSummary {
                seq,
                lsn: ck.lsn,
                payload_bytes: ck.payload.len() as u64,
                valid: true,
            }),
            Err(_) => checkpoints.push(CheckpointSummary {
                seq,
                lsn: 0,
                payload_bytes: std::fs::metadata(&path)?.len(),
                valid: false,
            }),
        }
    }
    Ok((
        Inspection {
            segments,
            checkpoints,
            total_records: total,
        },
        records,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("qrank_wal_log_{name}"));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn append_reopen_replays_everything() {
        let dir = tmpdir("roundtrip");
        {
            let (mut wal, rec) = Wal::open(&dir, WalOptions::default()).unwrap();
            assert!(rec.records.is_empty());
            assert!(rec.checkpoint.is_none());
            for i in 0..10u8 {
                assert_eq!(wal.append(&[i; 3]).unwrap(), i as u64);
            }
            wal.sync().unwrap();
        }
        let (wal, rec) = Wal::open(&dir, WalOptions::default()).unwrap();
        assert_eq!(wal.next_lsn(), 10);
        assert_eq!(rec.records.len(), 10);
        for (i, (lsn, payload)) in rec.records.iter().enumerate() {
            assert_eq!(*lsn, i as u64);
            assert_eq!(payload, &vec![i as u8; 3]);
        }
        assert!(rec.torn_tail.is_none());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rotation_chains_lsns_across_segments() {
        let dir = tmpdir("rotate");
        let opts = WalOptions {
            max_segment_bytes: 64,
            ..WalOptions::default()
        };
        {
            let (mut wal, _) = Wal::open(&dir, opts.clone()).unwrap();
            for i in 0..20u64 {
                wal.append(&i.to_le_bytes()).unwrap();
            }
            assert!(wal.stats().segments > 1, "64-byte cap must force rotation");
            wal.sync().unwrap();
        }
        let (wal, rec) = Wal::open(&dir, opts).unwrap();
        assert_eq!(wal.next_lsn(), 20);
        assert_eq!(rec.records.len(), 20);
        let insp = inspect(&dir).unwrap();
        assert_eq!(insp.total_records, 20);
        assert!(insp.segments.len() > 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_truncates_replay_and_compacts() {
        let dir = tmpdir("ckpt");
        let opts = WalOptions {
            max_segment_bytes: 64,
            ..WalOptions::default()
        };
        {
            let (mut wal, _) = Wal::open(&dir, opts.clone()).unwrap();
            for i in 0..12u64 {
                wal.append(&i.to_le_bytes()).unwrap();
            }
            let lsn = wal.checkpoint(b"state@12").unwrap();
            assert_eq!(lsn, 12);
            assert_eq!(wal.stats().segments, 1, "checkpoint must compact");
            for i in 12..15u64 {
                wal.append(&i.to_le_bytes()).unwrap();
            }
            wal.sync().unwrap();
        }
        let (wal, rec) = Wal::open(&dir, opts).unwrap();
        assert_eq!(wal.next_lsn(), 15);
        let ck = rec.checkpoint.expect("checkpoint must be recovered");
        assert_eq!(ck.lsn, 12);
        assert_eq!(ck.payload, b"state@12");
        let lsns: Vec<u64> = rec.records.iter().map(|(l, _)| *l).collect();
        assert_eq!(lsns, vec![12, 13, 14]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_truncated_and_reported() {
        let dir = tmpdir("torn");
        {
            let (mut wal, _) = Wal::open(&dir, WalOptions::default()).unwrap();
            for i in 0..5u64 {
                wal.append(&i.to_le_bytes()).unwrap();
            }
            wal.sync().unwrap();
        }
        // Chop 3 bytes off the final record, as a crash would.
        let path = segment::segment_path(&dir, 0);
        let len = std::fs::metadata(&path).unwrap().len();
        OpenOptions::new()
            .write(true)
            .open(&path)
            .unwrap()
            .set_len(len - 3)
            .unwrap();
        let (mut wal, rec) = Wal::open(&dir, WalOptions::default()).unwrap();
        assert!(rec.torn_tail.is_some());
        assert_eq!(rec.records.len(), 4, "the torn record is dropped");
        assert_eq!(wal.next_lsn(), 4, "its LSN is reused");
        // Appending after repair must produce a clean log.
        wal.append(&99u64.to_le_bytes()).unwrap();
        wal.sync().unwrap();
        drop(wal);
        let (_, rec) = Wal::open(&dir, WalOptions::default()).unwrap();
        assert!(rec.torn_tail.is_none());
        assert_eq!(rec.records.len(), 5);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_checkpoint_falls_back_to_previous() {
        let dir = tmpdir("ckpt_fallback");
        {
            let (mut wal, _) = Wal::open(&dir, WalOptions::default()).unwrap();
            for i in 0..4u64 {
                wal.append(&i.to_le_bytes()).unwrap();
            }
            wal.checkpoint(b"first").unwrap();
            for i in 4..6u64 {
                wal.append(&i.to_le_bytes()).unwrap();
            }
            wal.checkpoint(b"second").unwrap();
        }
        corrupt_checkpoint(&dir, 1);

        let (_, rec) = Wal::open(&dir, WalOptions::default()).unwrap();
        assert_eq!(rec.skipped_checkpoints, 1);
        let ck = rec.checkpoint.expect("older checkpoint must be used");
        assert_eq!(ck.payload, b"first");
        assert_eq!(ck.lsn, 4);
        let lsns: Vec<u64> = rec.records.iter().map(|(l, _)| *l).collect();
        assert_eq!(lsns, vec![4, 5], "gap records must still replay");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Corrupt the last byte of checkpoint `seq` in `dir`.
    fn corrupt_checkpoint(dir: &Path, seq: u64) {
        let path = checkpoint::checkpoint_path(dir, seq);
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
    }

    #[test]
    fn fallback_checkpoint_keeps_its_records_across_rotation() {
        let dir = tmpdir("ckpt_fallback_rotated");
        let opts = WalOptions {
            max_segment_bytes: 64,
            ..WalOptions::default()
        };
        {
            let (mut wal, _) = Wal::open(&dir, opts.clone()).unwrap();
            for i in 0..4u64 {
                wal.append(&i.to_le_bytes()).unwrap();
            }
            wal.checkpoint(b"first").unwrap();
            for i in 4..12u64 {
                wal.append(&i.to_le_bytes()).unwrap();
            }
            assert!(
                wal.stats().segments > 2,
                "the log must rotate between checkpoints"
            );
            wal.checkpoint(b"second").unwrap();
        }
        // a freshly opened log reads the older checkpoint's LSN to compact
        let (mut wal, _) = Wal::open(&dir, opts.clone()).unwrap();
        assert_eq!(wal.compact().unwrap(), 0, "nothing more is droppable");
        drop(wal);
        corrupt_checkpoint(&dir, 1);
        let (_, rec) = Wal::open(&dir, opts).unwrap();
        assert_eq!(rec.skipped_checkpoints, 1);
        let ck = rec.checkpoint.expect("older checkpoint must be used");
        assert_eq!((ck.payload.as_slice(), ck.lsn), (&b"first"[..], 4));
        let lsns: Vec<u64> = rec.records.iter().map(|(l, _)| *l).collect();
        assert_eq!(lsns, (4..12).collect::<Vec<u64>>());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
