//! # qrank-wal — durable ingestion journal
//!
//! A segmented, checksummed, append-only write-ahead log for the
//! quality-score serving layer, plus periodic checkpoints and crash
//! recovery. The serving layer journals every edge-delta batch *before*
//! applying it, so a process that dies mid-ingest can be restarted and
//! replayed to the exact state — bitwise identical published scores —
//! it would have reached uninterrupted.
//!
//! ## Layout of a WAL directory
//!
//! ```text
//! wal/
//!   seg-00000000000000000000.wal   segment: header + record frames
//!   seg-00000000000000000001.wal
//!   ckpt-00000000000000000003.ck   checkpoint: engine state at an LSN
//! ```
//!
//! * [`record`] — the [`EdgeDelta`] record and its payload codec (what
//!   is journaled).
//! * [`segment`] — record framing, segment headers, torn-tail detection.
//! * [`checkpoint`] — atomic full-state snapshots keyed by LSN.
//! * [`log`] — the [`Wal`] manager: open/recover, append, rotate,
//!   checkpoint, compact.
//!
//! ## Durability contract
//!
//! Appends are atomic at record granularity: a record either survives a
//! crash whole (length, CRC, and payload intact) or is truncated away at
//! recovery. A torn *tail* on the newest segment is expected crash
//! damage and is repaired silently (reported in [`Recovery`]); any other
//! checksum failure is surfaced as [`WalError::Corrupt`] and never
//! silently skipped. How often appends reach stable storage is the
//! [`FsyncPolicy`]; checkpoints always sync the log before being written
//! (tmp + fsync + rename) so a checkpoint can never reference records
//! that do not exist.
//!
//! Two promises make a log safe to retry into and to fall back on:
//!
//! * a [`Wal::append`] that returns `Err` left no record behind, even
//!   when its frame was written and only the policy's sync failed, so
//!   retrying it never journals the record twice;
//! * the two newest checkpoints are kept, and with them every record
//!   from the *older* one's LSN on, so a newest checkpoint that fails
//!   validation falls back to the previous one however many segments
//!   rotated between them.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;
use std::str::FromStr;

pub mod checkpoint;
pub mod crc;
mod fault;
pub mod log;
pub mod record;
pub mod segment;

pub use checkpoint::Checkpoint;
pub use log::{
    inspect, scan, CheckpointSummary, Inspection, Recovery, SegmentSummary, Wal, WalStats,
};
pub use record::{decode_delta, encode_delta, DeltaRecord, EdgeDelta};
pub use segment::SegmentTail;

/// Everything that can go wrong in the journal layer.
#[derive(Debug)]
pub enum WalError {
    /// An underlying filesystem operation failed.
    Io(std::io::Error),
    /// A CRC-verified payload failed to decode: version mismatch or a
    /// logic bug, treated as hard corruption.
    Decode(String),
    /// A checksum or structural check failed somewhere a torn write
    /// cannot explain. Never silently skipped.
    Corrupt {
        /// File the damage was found in.
        file: String,
        /// Byte offset of the damage.
        offset: u64,
        /// What check failed.
        reason: String,
    },
    /// An invalid option (for example an unparsable fsync policy).
    Config(String),
}

impl fmt::Display for WalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WalError::Io(e) => write!(f, "wal io error: {e}"),
            WalError::Decode(msg) => write!(f, "wal decode error: {msg}"),
            WalError::Corrupt {
                file,
                offset,
                reason,
            } => write!(f, "wal corruption in {file} at byte {offset}: {reason}"),
            WalError::Config(msg) => write!(f, "wal config error: {msg}"),
        }
    }
}

impl std::error::Error for WalError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WalError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for WalError {
    fn from(e: std::io::Error) -> Self {
        WalError::Io(e)
    }
}

/// When appends are flushed to stable storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// `fsync` after every append. Maximum durability, minimum
    /// throughput: nothing acknowledged is ever lost.
    Always,
    /// `fsync` after every `n` appends (and always before a checkpoint
    /// or clean shutdown). A crash loses at most the last `n` batches.
    EveryN(u64),
    /// Never `fsync` explicitly; the OS flushes on its own schedule.
    /// A crash may lose everything since the last checkpoint.
    Never,
}

impl Default for FsyncPolicy {
    fn default() -> Self {
        FsyncPolicy::EveryN(64)
    }
}

impl FromStr for FsyncPolicy {
    type Err = WalError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "always" => Ok(FsyncPolicy::Always),
            "never" => Ok(FsyncPolicy::Never),
            other => {
                if let Some(n) = other.strip_prefix("every:") {
                    let n: u64 = n.parse().map_err(|_| {
                        WalError::Config(format!("bad fsync interval in `{other}`"))
                    })?;
                    if n == 0 {
                        return Err(WalError::Config(
                            "fsync interval must be at least 1 (use `always`)".into(),
                        ));
                    }
                    Ok(FsyncPolicy::EveryN(n))
                } else {
                    Err(WalError::Config(format!(
                        "unknown fsync policy `{other}` (expected always, never, or every:N)"
                    )))
                }
            }
        }
    }
}

impl fmt::Display for FsyncPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FsyncPolicy::Always => write!(f, "always"),
            FsyncPolicy::EveryN(n) => write!(f, "every:{n}"),
            FsyncPolicy::Never => write!(f, "never"),
        }
    }
}

/// Tunables for opening a [`Wal`].
#[derive(Debug, Clone)]
pub struct WalOptions {
    /// When appends reach stable storage.
    pub fsync: FsyncPolicy,
    /// Rotate to a new segment once the current one exceeds this many
    /// bytes. Small segments mean finer-grained compaction; the default
    /// (4 MiB) keeps directory listings short without hoarding space.
    pub max_segment_bytes: u64,
}

impl Default for WalOptions {
    fn default() -> Self {
        WalOptions {
            fsync: FsyncPolicy::default(),
            max_segment_bytes: 4 << 20,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fsync_policy_parses_and_displays() {
        assert_eq!(
            "always".parse::<FsyncPolicy>().unwrap(),
            FsyncPolicy::Always
        );
        assert_eq!("never".parse::<FsyncPolicy>().unwrap(), FsyncPolicy::Never);
        assert_eq!(
            "every:128".parse::<FsyncPolicy>().unwrap(),
            FsyncPolicy::EveryN(128)
        );
        for bad in ["", "sometimes", "every:", "every:0", "every:x"] {
            assert!(
                bad.parse::<FsyncPolicy>().is_err(),
                "`{bad}` must not parse"
            );
        }
        for p in [
            FsyncPolicy::Always,
            FsyncPolicy::EveryN(7),
            FsyncPolicy::Never,
        ] {
            assert_eq!(p.to_string().parse::<FsyncPolicy>().unwrap(), p);
        }
    }
}
