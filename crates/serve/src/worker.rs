//! The refresh worker: one thread that owns a [`RefreshEngine`], takes
//! [`RefreshMsg`]s off a channel, and keeps every failure of a message
//! away from the readers of the store the engine publishes to.

use std::io::Write;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::thread::JoinHandle;

use crate::delta::{format_delta, EdgeDelta};
use crate::error::ServeError;
use crate::refresh::RefreshEngine;

/// Messages accepted by the refresh worker thread.
#[derive(Debug)]
pub enum RefreshMsg {
    /// Ingest a delta (apply, snapshot, rerank, publish).
    Delta(EdgeDelta),
    /// Rerank the current window without new data.
    Rerank,
    /// Drain and exit.
    Shutdown,
}

/// Failure-containment options for [`spawn_refresh_worker_with`].
#[derive(Debug, Clone, Default)]
pub struct RefreshWorkerOptions {
    /// Append every rejected delta to this file instead of just
    /// dropping it. Entries are a `# quarantined: <reason>` comment
    /// followed by the delta in [`format_delta`] form, so the file is
    /// directly inspectable *and* re-ingestable through
    /// [`parse_deltas`](crate::parse_deltas) once the cause is fixed.
    pub quarantine: Option<PathBuf>,
}

/// Spawn the refresh worker thread; send it [`RefreshMsg`]s through the
/// returned channel. Joining the handle returns the engine plus any
/// per-message errors encountered (the worker never dies on a bad delta).
///
/// Equivalent to [`spawn_refresh_worker_with`] with default options
/// (no quarantine file; panic containment is always on).
pub fn spawn_refresh_worker(
    engine: RefreshEngine,
) -> (Sender<RefreshMsg>, JoinHandle<(RefreshEngine, Vec<String>)>) {
    spawn_refresh_worker_with(engine, RefreshWorkerOptions::default())
}

/// [`spawn_refresh_worker`] with failure containment configured.
///
/// Three failure classes, three containments:
///
/// * **Typed reject** (`ingest` returns `Err`, e.g. an unknown page or
///   an exhausted WAL retry) — the delta is quarantined with the error
///   as its reason; the engine keeps ingesting. Engine state is exactly
///   what the partial apply left (the same thing a restart would
///   recover), so continuing is sound.
/// * **Panic inside ingest** — caught with `catch_unwind`; the delta is
///   quarantined and the engine is *poisoned*: its in-memory state can
///   no longer be trusted mid-mutation, so every subsequent delta goes
///   straight to quarantine and the last sealed
///   [`ShardedStore`](crate::ShardedStore) view keeps serving untouched.
///   A restart recovers from the journal (write-ahead ordering means a
///   panic before the append left no trace; one after it replays the
///   delta).
/// * **Worker messages while poisoned** — recorded as errors, never
///   executed.
pub fn spawn_refresh_worker_with(
    mut engine: RefreshEngine,
    options: RefreshWorkerOptions,
) -> (Sender<RefreshMsg>, JoinHandle<(RefreshEngine, Vec<String>)>) {
    let (tx, rx): (Sender<RefreshMsg>, Receiver<RefreshMsg>) = channel();
    let handle = std::thread::spawn(move || {
        let mut errors = Vec::new();
        let mut poisoned = false;
        while let Ok(msg) = rx.recv() {
            match msg {
                RefreshMsg::Delta(delta) => {
                    let failed = if poisoned {
                        Some("engine poisoned by an earlier panic".to_string())
                    } else {
                        contained(&mut poisoned, "refresh", || engine.ingest(&delta))
                    };
                    if let Some(reason) = failed {
                        let path = options.quarantine.as_deref();
                        quarantine_delta(path, &delta, &reason, &mut errors);
                        errors.push(reason);
                    }
                }
                RefreshMsg::Rerank => errors.extend(if poisoned {
                    Some("rerank skipped: engine poisoned by an earlier panic".to_string())
                } else {
                    contained(&mut poisoned, "rerank", || engine.rerank())
                }),
                RefreshMsg::Shutdown => break,
            }
        }
        (engine, errors)
    });
    (tx, handle)
}

/// Run one engine call with its failure contained: `None` when it
/// succeeded, otherwise why it failed. A panic is caught, counted under
/// `refresh.panic`, reported as `"<what> panicked: …"`, and poisons the
/// worker.
pub(crate) fn contained<T>(
    poisoned: &mut bool,
    what: &str,
    call: impl FnOnce() -> Result<T, ServeError>,
) -> Option<String> {
    match catch_unwind(AssertUnwindSafe(call)) {
        Ok(Ok(_)) => None,
        Ok(Err(e)) => Some(e.to_string()),
        Err(panic) => {
            *poisoned = true;
            if qrank_obs::enabled() {
                qrank_obs::global().counter("refresh.panic").inc();
            }
            Some(format!("{what} panicked: {}", panic_message(&*panic)))
        }
    }
}

/// Best-effort human-readable payload of a caught panic.
fn panic_message(panic: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Append `delta` to the quarantine file with `reason`, in the exact
/// format [`parse_deltas`](crate::parse_deltas) reads back. Quarantine
/// I/O failures are recorded in `errors` but never escalate — losing a
/// quarantine entry must not take down ingestion on top of the original
/// failure.
fn quarantine_delta(
    path: Option<&Path>,
    delta: &EdgeDelta,
    reason: &str,
    errors: &mut Vec<String>,
) {
    let Some(path) = path else { return };
    if qrank_obs::enabled() {
        qrank_obs::global().counter("quarantine.deltas").inc();
    }
    let entry = match format_delta(delta) {
        Ok(body) => format!("# quarantined: {}\n{body}", reason.replace('\n', " ")),
        Err(e) => {
            if qrank_obs::enabled() {
                qrank_obs::global().counter("quarantine.errors").inc();
            }
            errors.push(format!("quarantine: delta not formattable: {e}"));
            return;
        }
    };
    let written = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .and_then(|mut f| f.write_all(entry.as_bytes()));
    if let Err(e) = written {
        if qrank_obs::enabled() {
            qrank_obs::global().counter("quarantine.errors").inc();
        }
        errors.push(format!(
            "quarantine append to {} failed: {e}",
            path.display()
        ));
    }
}
