//! Hierarchical timing spans: the workspace's one stage timer.
//!
//! `let _g = span!("rank.solve");` opens a span that closes when the
//! guard drops. Nesting is tracked per thread: a span opened while
//! another is active records under the joined path
//! `"outer/inner"`, so the histogram names themselves encode the call
//! tree (`span.pipeline.run/pipeline.trajectories`, …).
//!
//! When observability is [`crate::enabled`] a closed span lands in a
//! `span.<path>` nanosecond histogram in the global registry, an event
//! in the [`crate::recorder`] ring, and, when it closes deeper than a
//! [`crate::trace`] current on its thread began, that trace's stages,
//! named by its path below the trace's root. When disabled, or on a
//! [`mute`]d thread with no trace current, the guard is inert — no
//! clock read, no allocation, no lock.
//!
//! The stack is per thread, so a span opened on a freshly spawned
//! worker would record as a *root* and the stage that fanned out would
//! seem to have done nothing. [`context`] on the spawning thread and
//! [`adopt`] on the worker carry the path across: worker spans then
//! record under the stage that spawned them. Their histogram sums are
//! CPU time summed over workers, which can exceed the wall time of the
//! enclosing span, recorded once on the spawning thread. They enter no
//! trace; a caller that works as one of the workers runs its share
//! [`untraced`], so which thread ran a job cannot change a trace.

use std::cell::RefCell;
use std::time::Instant;

use crate::recorder;
use crate::trace::Stage;

/// One thread's spans: those open (outermost first), whether it is
/// [`mute`]d, and the trace current on it.
struct Thread {
    stack: Vec<&'static str>,
    muted: bool,
    trace: Option<Capture>,
}

/// A current trace: its id, the span depth it began at, its start, and
/// the stages collected so far.
struct Capture {
    id: u64,
    base: usize,
    started: Instant,
    stages: Vec<Stage>,
}

thread_local! {
    static THREAD: RefCell<Thread> = const {
        RefCell::new(Thread { stack: Vec::new(), muted: false, trace: None })
    };
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
/// when observability is disabled or the thread is muted.
pub fn enter(name: &'static str) -> SpanGuard {
    let live = crate::enabled()
        && THREAD.with(|t| {
            let t = &mut *t.borrow_mut();
            let live = !t.muted || t.trace.is_some();
            if live {
                t.stack.push(name);
            }
            live
        });
    SpanGuard {
        start: live.then(Instant::now),
        name,
    }
}

/// The calling thread's open spans, outermost first, for a worker
/// thread to [`adopt`]. Empty when observability is disabled.
pub fn context() -> Vec<&'static str> {
    if !crate::enabled() {
        return Vec::new();
    }
    THREAD.with(|t| t.borrow().stack.clone())
}

/// Make `context` (from [`context`] on the spawning thread) this
/// thread's enclosing spans. Call it first thing on a freshly spawned
/// worker: it replaces whatever the thread had open.
pub fn adopt(context: &[&'static str]) {
    if !context.is_empty() {
        THREAD.with(|t| t.borrow_mut().stack = context.to_vec());
    }
}

/// Run `f` with the calling thread's trace set aside: its spans still
/// record in the registry, but enter no trace.
pub fn untraced<R>(f: impl FnOnce() -> R) -> R {
    if !crate::enabled() {
        return f();
    }
    let held = THREAD.with(|t| t.borrow_mut().trace.take());
    let out = f();
    THREAD.with(|t| t.borrow_mut().trace = held);
    out
}

/// Mute the calling thread until the guard drops: its spans are inert
/// unless a trace is current on it. A server mutes the threads it
/// serves requests on, so only sampled requests time their stages.
pub fn mute() -> Mute {
    Mute(THREAD.with(|t| std::mem::replace(&mut t.borrow_mut().muted, true)))
}

/// Guard returned by [`mute`]; restores the thread's previous state.
pub struct Mute(bool);

impl Drop for Mute {
    fn drop(&mut self) {
        THREAD.with(|t| t.borrow_mut().muted = self.0);
    }
}

/// Make trace `id` current on the calling thread, replacing any other;
/// returns its start.
pub(crate) fn attach(id: u64) -> Instant {
    let started = Instant::now();
    THREAD.with(|t| {
        let t = &mut *t.borrow_mut();
        let (base, stages) = (t.stack.len(), Vec::with_capacity(8));
        t.trace = Some(Capture {
            id,
            base,
            started,
            stages,
        });
    });
    started
}

/// Detach trace `id` if it is current on the calling thread, returning
/// the stages it collected.
pub(crate) fn detach(id: u64) -> Vec<Stage> {
    THREAD
        .with(|t| t.borrow_mut().trace.take_if(|c| c.id == id))
        .map_or_else(Vec::new, |c| c.stages)
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
        let (path, depth) = THREAD.with(|t| {
            let Thread { stack, trace, .. } = &mut *t.borrow_mut();
            let (path, depth) = (stack.join("/"), stack.len());
            if let Some(c) = trace.as_mut().filter(|c| depth > c.base) {
                c.stages.push(Stage {
                    name: stack[c.base..].join("/"),
                    start_ns: start.saturating_duration_since(c.started).as_nanos() as u64,
                    dur_ns,
                    depth: (depth - c.base) as u32,
                });
            }
            // Tolerate out-of-order drops: pop our own frame if it is
            // still the innermost, otherwise leave the stack alone.
            if stack.last() == Some(&self.name) {
                stack.pop();
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
