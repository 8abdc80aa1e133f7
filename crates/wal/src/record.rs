//! The journaled record: one batch of link-structure changes.
//!
//! [`EdgeDelta`] is the refresh engine's unit of input and the WAL's
//! unit of record. It lives here, in the lower crate, so the serving
//! layer journals and replays the very struct it ingests. Its payload is
//! encoded little-endian with explicit counts, so a decoder can bound
//! every allocation by the bytes actually present:
//!
//! ```text
//! version u16 = 1 | time f64 | n_new u64 | n_added u64 | n_removed u64 |
//! new_pages [u64] | added [(u64, u64)] | removed [(u64, u64)]
//! ```

use bytes::{Buf, BufMut, BytesMut};

use crate::WalError;

/// A batch of link-structure changes observed at one instant.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EdgeDelta {
    /// Observation time (simulator clock; must be non-decreasing across
    /// ingested deltas).
    pub time: f64,
    /// Pages created without any links yet. Pages referenced by `added`
    /// are created implicitly; listing them here is only needed for
    /// isolated births.
    pub new_pages: Vec<u64>,
    /// Links that appeared, as `(source page, target page)`.
    pub added: Vec<(u64, u64)>,
    /// Links that disappeared. Both endpoints must already be known.
    pub removed: Vec<(u64, u64)>,
}

impl EdgeDelta {
    /// An empty delta at `time`.
    pub fn at(time: f64) -> Self {
        EdgeDelta {
            time,
            ..Default::default()
        }
    }

    /// True when the delta changes nothing.
    pub fn is_empty(&self) -> bool {
        self.new_pages.is_empty() && self.added.is_empty() && self.removed.is_empty()
    }
}

/// The journal's earlier name for [`EdgeDelta`], kept so callers that
/// still spell it compile.
pub type DeltaRecord = EdgeDelta;

const RECORD_VERSION: u16 = 1;

/// Encode a delta to its journal payload (framing and CRC are the
/// segment layer's job).
pub fn encode_delta(delta: &EdgeDelta) -> Vec<u8> {
    let mut buf = BytesMut::with_capacity(
        2 + 8 + 3 * 8 + delta.new_pages.len() * 8 + (delta.added.len() + delta.removed.len()) * 16,
    );
    buf.put_u16_le(RECORD_VERSION);
    buf.put_f64_le(delta.time);
    buf.put_u64_le(delta.new_pages.len() as u64);
    buf.put_u64_le(delta.added.len() as u64);
    buf.put_u64_le(delta.removed.len() as u64);
    for &p in &delta.new_pages {
        buf.put_u64_le(p);
    }
    for &(s, d) in delta.added.iter().chain(&delta.removed) {
        buf.put_u64_le(s);
        buf.put_u64_le(d);
    }
    buf.to_vec()
}

fn need(buf: &[u8], n: u64, what: &str) -> Result<(), WalError> {
    if (buf.remaining() as u64) < n {
        Err(WalError::Decode(format!("truncated while reading {what}")))
    } else {
        Ok(())
    }
}

/// Decode a journal payload back into an [`EdgeDelta`].
///
/// Payloads reach this point CRC-verified, so a decode failure means a
/// version mismatch or a logic bug, not line noise — callers treat it as
/// hard corruption rather than a torn tail.
pub fn decode_delta(mut buf: &[u8]) -> Result<EdgeDelta, WalError> {
    need(buf, 2 + 8 + 24, "delta header")?;
    let version = buf.get_u16_le();
    if version != RECORD_VERSION {
        return Err(WalError::Decode(format!(
            "unsupported delta record version {version}"
        )));
    }
    let time = buf.get_f64_le();
    if time.is_nan() {
        return Err(WalError::Decode("delta time is NaN".into()));
    }
    let n_new = buf.get_u64_le();
    let n_added = buf.get_u64_le();
    let n_removed = buf.get_u64_le();
    let total_bytes = n_new
        .checked_mul(8)
        .and_then(|a| n_added.checked_mul(16).map(|b| (a, b)))
        .and_then(|(a, b)| n_removed.checked_mul(16).map(|c| (a, b, c)))
        .and_then(|(a, b, c)| a.checked_add(b).and_then(|ab| ab.checked_add(c)))
        .ok_or_else(|| WalError::Decode("delta element counts overflow".into()))?;
    need(buf, total_bytes, "delta elements")?;
    let mut new_pages = Vec::with_capacity(n_new as usize);
    for _ in 0..n_new {
        new_pages.push(buf.get_u64_le());
    }
    let mut added = Vec::with_capacity(n_added as usize);
    for _ in 0..n_added {
        added.push((buf.get_u64_le(), buf.get_u64_le()));
    }
    let mut removed = Vec::with_capacity(n_removed as usize);
    for _ in 0..n_removed {
        removed.push((buf.get_u64_le(), buf.get_u64_le()));
    }
    if buf.remaining() > 0 {
        return Err(WalError::Decode(format!(
            "{} trailing bytes after delta elements",
            buf.remaining()
        )));
    }
    Ok(EdgeDelta {
        time,
        new_pages,
        added,
        removed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> EdgeDelta {
        EdgeDelta {
            time: 4.5,
            new_pages: vec![7, u64::MAX],
            added: vec![(3, 7), (0, 1)],
            removed: vec![(2, 5)],
        }
    }

    #[test]
    fn roundtrip() {
        let rec = sample();
        assert_eq!(decode_delta(&encode_delta(&rec)).unwrap(), rec);
        let empty = EdgeDelta::default();
        assert_eq!(decode_delta(&encode_delta(&empty)).unwrap(), empty);
    }

    #[test]
    fn slotless_records_encode_as_v1() {
        let bytes = encode_delta(&sample());
        assert_eq!(
            u16::from_le_bytes([bytes[0], bytes[1]]),
            RECORD_VERSION,
            "every journal record is v1"
        );
    }

    #[test]
    fn rejects_truncation_at_every_prefix() {
        let bytes = encode_delta(&sample());
        for cut in 0..bytes.len() {
            assert!(
                decode_delta(&bytes[..cut]).is_err(),
                "prefix of {cut} bytes must not decode"
            );
        }
        assert!(decode_delta(&bytes).is_ok());
    }

    #[test]
    fn rejects_trailing_garbage_and_bad_version() {
        let mut bytes = encode_delta(&sample());
        bytes.push(0);
        assert!(decode_delta(&bytes).is_err());
        // any version but 1 is unknown, the retired v2 included
        for version in [2u16, 0xFF] {
            let mut bad = encode_delta(&sample());
            bad[..2].copy_from_slice(&version.to_le_bytes());
            match decode_delta(&bad) {
                Err(WalError::Decode(msg)) => {
                    assert_eq!(msg, format!("unsupported delta record version {version}"))
                }
                other => panic!("version {version} decoded as {other:?}"),
            }
        }
    }

    #[test]
    fn rejects_overflowing_counts() {
        let mut buf = BytesMut::new();
        buf.put_u16_le(RECORD_VERSION);
        buf.put_f64_le(0.0);
        buf.put_u64_le(u64::MAX); // new_pages count overflows when ×8
        buf.put_u64_le(0);
        buf.put_u64_le(0);
        assert!(decode_delta(&buf).is_err());
    }
}
