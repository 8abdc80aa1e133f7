//! Hierarchical timing spans.
//!
//! `let _g = span!("rank.solve");` opens a span that closes when the
//! guard drops. Nesting is tracked per thread: a span opened while
//! another is active records under the joined path
//! `"outer/inner"`, so the histogram names themselves encode the call
//! tree (`span.pipeline.run/pipeline.trajectories`, …).
//!
//! When observability is [`crate::enabled`] a closed span lands in two
//! places: a `span.<path>` nanosecond histogram in the global registry,
//! and an event in the [`crate::recorder`] ring. When disabled the
//! guard is inert — no clock read, no allocation, no lock.
//!
//! The stack is per thread, so a span opened on a freshly spawned
//! worker would record as a *root* and the stage that fanned out would
//! seem to have done nothing. [`context`] on the spawning thread and
//! [`adopt`] on the worker carry the path across: worker spans then
//! record under the stage that spawned them. Their histogram sums are
//! CPU time summed over workers, which can exceed the wall time of the
//! enclosing span, recorded once on the spawning thread.

use std::cell::RefCell;
use std::time::Instant;

use crate::recorder;

thread_local! {
    static STACK: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
}

/// Open a span named by a `&'static str`; bind the result or it closes
/// immediately:
///
/// ```
/// let _g = qrank_obs::span!("rank.solve");
/// ```
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::span::enter($name)
    };
}

/// Open a span (prefer the [`span!`] macro). Returns an inert guard
/// when observability is disabled.
pub fn enter(name: &'static str) -> SpanGuard {
    if !crate::enabled() {
        return SpanGuard { start: None, name };
    }
    STACK.with(|s| s.borrow_mut().push(name));
    SpanGuard {
        start: Some(Instant::now()),
        name,
    }
}

/// The calling thread's open spans, outermost first, for a worker
/// thread to [`adopt`]. Empty when observability is disabled.
pub fn context() -> Vec<&'static str> {
    if !crate::enabled() {
        return Vec::new();
    }
    STACK.with(|s| s.borrow().clone())
}

/// Make `context` (from [`context`] on the spawning thread) this
/// thread's enclosing spans. Call it first thing on a freshly spawned
/// worker: it replaces whatever the thread had open.
pub fn adopt(context: &[&'static str]) {
    if !context.is_empty() {
        STACK.with(|s| *s.borrow_mut() = context.to_vec());
    }
}

/// RAII guard returned by [`enter`]; records the span on drop.
#[derive(Debug)]
pub struct SpanGuard {
    start: Option<Instant>,
    name: &'static str,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(start) = self.start else { return };
        let dur_ns = start.elapsed().as_nanos() as u64;
        let (path, depth) = STACK.with(|s| {
            let mut s = s.borrow_mut();
            let path = s.join("/");
            let depth = s.len();
            // Tolerate out-of-order drops: pop our own frame if it is
            // still the innermost, otherwise leave the stack alone.
            if s.last() == Some(&self.name) {
                s.pop();
            }
            (path, depth)
        });
        crate::global()
            .histogram(&format!("span.{path}"))
            .record(dur_ns);
        recorder::record(&path, dur_ns, depth as u32, "");
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn nested_spans_record_joined_paths_and_containing_durations() {
        let _serial = crate::test_lock();
        crate::set_enabled(true);
        crate::reset();
        {
            let _outer = crate::span!("t.outer");
            std::thread::sleep(std::time::Duration::from_millis(2));
            {
                let _inner = crate::span!("t.inner");
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
        }
        let snap = crate::global().snapshot();
        let outer = snap.histogram("span.t.outer").expect("outer recorded");
        let inner = snap
            .histogram("span.t.outer/t.inner")
            .expect("inner recorded under the joined path");
        assert_eq!(outer.count, 1);
        assert_eq!(inner.count, 1);
        // Monotonic clocks: the parent strictly contains the child.
        assert!(
            outer.sum >= inner.sum,
            "outer {}ns < inner {}ns",
            outer.sum,
            inner.sum
        );
        assert!(inner.sum > 0, "elapsed time is never negative or zero here");
        crate::set_enabled(false);
    }

    #[test]
    fn worker_spans_record_under_the_adopted_context() {
        let _serial = crate::test_lock();
        crate::set_enabled(true);
        crate::reset();
        {
            let _stage = crate::span!("t.stage");
            let ctx = super::context();
            assert_eq!(ctx, ["t.stage"]);
            std::thread::scope(|s| {
                s.spawn(|| {
                    super::adopt(&ctx);
                    let _g = crate::span!("t.work");
                });
            });
        }
        let snap = crate::global().snapshot();
        assert_eq!(snap.histogram("span.t.stage/t.work").unwrap().count, 1);
        assert!(snap.histogram("span.t.work").is_none(), "no orphan root");
        assert_eq!(snap.histogram("span.t.stage").unwrap().count, 1);
        crate::set_enabled(false);
        assert!(super::context().is_empty());
    }

    #[test]
    fn disabled_spans_leave_no_trace() {
        let _serial = crate::test_lock();
        crate::set_enabled(false);
        crate::reset();
        {
            let _g = crate::span!("t.ghost");
        }
        assert!(crate::global()
            .snapshot()
            .histogram("span.t.ghost")
            .is_none());
    }
}
