//! Edge deltas — the refresh engine's unit of input — and their text
//! form: the delta files `qrank serve --deltas` reads and the
//! quarantine file the refresh worker writes.
//!
//! [`EdgeDelta`] itself is defined by `qrank-wal`, which journals it
//! as it is: the engine ingests, journals and replays one struct.

pub use qrank_wal::EdgeDelta;

use crate::error::ServeError;

/// Parse a delta file into a list of [`EdgeDelta`]s.
///
/// Line-oriented format (`#` starts a comment):
///
/// ```text
/// page 7         # create page 7 (isolated)
/// + 3 7          # link page 3 -> page 7
/// - 2 5          # remove link page 2 -> page 5
/// commit 4.5     # close the delta, observed at t = 4.5
/// ```
///
/// Every delta must end with a `commit`; a trailing uncommitted delta is
/// an error (it usually means a truncated file).
pub fn parse_deltas(text: &str) -> Result<Vec<EdgeDelta>, ServeError> {
    let mut out = Vec::new();
    let mut cur = EdgeDelta::at(f64::NAN);
    let mut dirty = false;
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let fail = |msg: String| ServeError::Parse(format!("line {}: {msg}", lineno + 1));
        let fields: Vec<&str> = line.split_whitespace().collect();
        let page_arg = |i: usize| -> Result<u64, ServeError> {
            fields
                .get(i)
                .and_then(|f| f.parse::<u64>().ok())
                .ok_or_else(|| fail(format!("expected page id, got {line:?}")))
        };
        match fields[0] {
            "page" if fields.len() == 2 => {
                cur.new_pages.push(page_arg(1)?);
                dirty = true;
            }
            "+" if fields.len() == 3 => {
                cur.added.push((page_arg(1)?, page_arg(2)?));
                dirty = true;
            }
            "-" if fields.len() == 3 => {
                cur.removed.push((page_arg(1)?, page_arg(2)?));
                dirty = true;
            }
            "commit" if fields.len() == 2 => {
                let t: f64 = fields[1]
                    .parse()
                    .map_err(|_| fail(format!("bad commit time {:?}", fields[1])))?;
                if !t.is_finite() {
                    return Err(fail("commit time must be finite".into()));
                }
                cur.time = t;
                out.push(std::mem::replace(&mut cur, EdgeDelta::at(f64::NAN)));
                dirty = false;
            }
            verb => {
                return Err(fail(format!("unrecognized directive {verb:?}")));
            }
        }
    }
    if dirty {
        return Err(ServeError::Parse(
            "trailing delta without a commit line".into(),
        ));
    }
    Ok(out)
}

/// Render one delta in the format [`parse_deltas`] reads — the exact
/// inverse: `parse_deltas(&format_delta(d))` yields `[d]` for any delta
/// with a finite time.
///
/// Returns an error for a non-finite time, which `parse_deltas` would
/// reject on the way back in.
pub fn format_delta(delta: &EdgeDelta) -> Result<String, ServeError> {
    if !delta.time.is_finite() {
        return Err(ServeError::Parse(format!(
            "cannot format a delta with non-finite time {}",
            delta.time
        )));
    }
    let mut out = String::new();
    for p in &delta.new_pages {
        out.push_str(&format!("page {p}\n"));
    }
    for (s, d) in &delta.added {
        out.push_str(&format!("+ {s} {d}\n"));
    }
    for (s, d) in &delta.removed {
        out.push_str(&format!("- {s} {d}\n"));
    }
    // `{}` on an f64 round-trips through parse exactly (shortest
    // representation that re-reads to the same bits).
    out.push_str(&format!("commit {}\n", delta.time));
    Ok(out)
}

/// Render a whole delta file: each delta in order, [`format_delta`]
/// style. `parse_deltas(&format_deltas(ds))` reproduces `ds` exactly.
pub fn format_deltas(deltas: &[EdgeDelta]) -> Result<String, ServeError> {
    let mut out = String::new();
    for d in deltas {
        out.push_str(&format_delta(d)?);
    }
    Ok(out)
}
