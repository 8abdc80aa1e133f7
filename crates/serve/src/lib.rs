//! # qrank-serve — a long-running quality-score service
//!
//! The paper's estimator is a batch computation; this crate turns it into
//! something you can query. Three layers:
//!
//! * **Score store** ([`store`], [`shard`]) — one immutable store per
//!   published generation, holding per-page `{quality, pagerank,
//!   trend}` copied from a [`qrank_core::PipelineReport`] and its
//!   precomputed quality order, sealed into one view with the
//!   generation and snapshot time it serves under. Every verb reads that
//!   one view.
//! * **Refresh engine** ([`refresh`]) — ingests edge deltas ([`delta`])
//!   into a [`qrank_graph::DynamicGraph`], re-ranks the snapshot window
//!   through a [`qrank_core::PipelineEngine`] (every column is solved
//!   cold from the metric's canonical start and cached by its aligned
//!   snapshot's fingerprint, so an append or a window slide solves one
//!   column and reuses the rest, bit for bit), and publishes each new
//!   generation as one view swap without ever blocking readers. The
//!   [`worker`] thread drives it and contains its failures (quarantine,
//!   panic poisoning).
//! * **Durability** ([`durability`]) — optional crash safety: every
//!   ingested delta is journaled to the data directory's one
//!   `qrank-wal` write-ahead log before it is applied, engine state is
//!   checkpointed periodically, and
//!   [`RefreshEngine::open_durable`](refresh::RefreshEngine::open_durable)
//!   recovers a data directory to bitwise-identical published scores.
//! * **Front end** ([`server`], [`handler`]) — a fixed-size thread-pool
//!   TCP server speaking a line-delimited JSON protocol (`score <page>`,
//!   `topk <n>`, `stats`, `metrics`, `health`, `ready`, `trace …`,
//!   `shutdown`), with an LRU cache for `topk` responses, per-request
//!   latency counters backed by a `qrank-obs` registry, and draining
//!   shutdown. The `metrics` verb answers in the Prometheus text format,
//!   terminated by `# EOF`.
//! * **Tracing** — with `--trace-sample N` (ServerConfig
//!   `trace_sample`), every N-th request gets a [`qrank_obs::Trace`]
//!   whose stages are the request's spans (`serve.parse`,
//!   `serve.store_read`, `serve.cache_lookup`, `serve.serialize`,
//!   `serve.write`), retained slowest-first per verb and
//!   queryable over the wire via the `trace` verb; an SLO monitor
//!   watches every request (sampled or not) against latency and
//!   availability objectives. See [`qrank_obs::trace`].
//!
//! [`loadgen`] is the matching closed-loop load generator behind
//! `qrank bench-load`.
//!
//! ## Quick start
//!
//! ```no_run
//! use std::sync::Arc;
//! use qrank_serve::{serve, RefreshEngine, RefreshConfig, ServerConfig, ShardedStore};
//! # fn series() -> qrank_graph::SnapshotSeries { unimplemented!() }
//!
//! let handle = Arc::new(ShardedStore::new(1));
//! let engine =
//!     RefreshEngine::from_series(&series(), RefreshConfig::default(), Arc::clone(&handle))
//!         .unwrap();
//! let (refresh_tx, refresh_join) = qrank_serve::spawn_refresh_worker(engine);
//! let server = serve(handle, &ServerConfig::default()).unwrap();
//! println!("serving on {}", server.addr());
//! // ... later:
//! refresh_tx.send(qrank_serve::RefreshMsg::Shutdown).unwrap();
//! refresh_join.join().unwrap();
//! server.shutdown();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod delta;
pub mod durability;
pub mod error;
mod fault;
pub mod handler;
pub mod loadgen;
pub mod metrics;
pub mod overload;
pub mod protocol;
pub mod refresh;
pub mod server;
pub mod shard;
pub mod store;
pub mod worker;

pub use cache::LruCache;
pub use delta::{format_delta, format_deltas, parse_deltas, EdgeDelta};
pub use durability::{refuse_per_shard_journal, DurabilityConfig, RecoveryReport, RetryPolicy};
pub use error::ServeError;
pub use handler::handle_request;
pub use loadgen::{run_load, LoadConfig, LoadReport, VerbLatency};
pub use metrics::{Metrics, MetricsSnapshot};
pub use overload::{request_cost, Cost, DrainReport, ShedPolicy};
pub use protocol::{parse_request, render_trace, verb_name, Request, TraceQuery};
/// Re-exported so embedders wiring a [`ServerHandle`] tracer into a
/// [`RefreshEngine`] don't need a direct `qrank-obs` dependency.
pub use qrank_obs::trace::{TraceConfig, Tracer};
/// Re-exported so callers configuring [`DurabilityConfig`] don't need a
/// direct `qrank-wal` dependency.
pub use qrank_wal::FsyncPolicy;
pub use refresh::{RefreshConfig, RefreshEngine, RefreshStats};
pub use server::{serve, ServerConfig, ServerHandle, MAX_LINE_BYTES};
pub use shard::{shard_of, ShardView, ShardedStore};
pub use store::{PageScores, ScoreStore};
pub use worker::{
    spawn_refresh_worker, spawn_refresh_worker_with, RefreshMsg, RefreshWorkerOptions,
};

/// Unit tests that turn observability on serialize on this lock: the
/// enabled flag and the registry are process-global.
#[cfg(test)]
pub(crate) fn obs_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}
