//! The workspace's one fan-out: independent jobs over scoped threads,
//! the calling thread working as one of them.
//!
//! Its three users — [`crate::restrict_snapshots`], `qrank_rank`'s
//! column-parallel solve and `qrank_sim`'s visit phase (one job per
//! chunk of pages, every step) — have a handful of jobs that are pure
//! functions of their inputs and write to disjoint result slots, so the
//! outcome cannot depend on which thread ran what. What the threads *do*
//! differ in is where their allocations land: glibc gives every spawned
//! thread its own malloc arena and keeps what was freed there, so a
//! caller that parks while `workers` fresh threads build the results
//! pays for `workers` arenas on top of its own. Here the caller is
//! worker 0 and only `workers − 1` threads are spawned. A job that must
//! grow a buffer is best handed one the caller allocated: glibc grows
//! a block in the arena it came from, whichever thread asks.

use std::sync::Mutex;

/// Run `work(slot, item)` for every `(slot, item)` pair of
/// `slots.iter_mut().zip(items)` on up to `workers` threads, the caller
/// included (so `workers <= 1` spawns nothing). Each thread takes the
/// next pending pair when it is free; every pair is run exactly once.
///
/// Spawned workers adopt the caller's open spans
/// ([`qrank_obs::span::adopt`]), so spans opened inside `work` record
/// under the stage that fanned out, on whichever thread they ran. None
/// of them enters the caller's trace, the caller's own share included
/// ([`qrank_obs::span::untraced`]).
///
/// A panic in `work` propagates to the caller once every thread is
/// joined.
pub fn for_each_slot<T, I, F>(slots: &mut [T], items: &[I], workers: usize, work: F)
where
    T: Send,
    I: Sync,
    F: Fn(&mut T, &I) + Sync,
{
    let workers = workers.min(slots.len().min(items.len()));
    let queue = Mutex::new(slots.iter_mut().zip(items));
    let drain = || loop {
        // the guard is a temporary: the lock is released before `work`
        let next = queue
            .lock()
            .expect("the queue lock is only held across Iterator::next")
            .next();
        let Some((slot, item)) = next else { break };
        work(slot, item);
    };
    let spans = qrank_obs::span::context();
    std::thread::scope(|scope| {
        for _ in 1..workers {
            scope.spawn(|| {
                qrank_obs::span::adopt(&spans);
                drain();
            });
        }
        qrank_obs::span::untraced(drain);
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::Barrier;
    use std::thread::ThreadId;

    #[test]
    fn every_pair_runs_once_at_any_worker_count() {
        let items: Vec<u64> = (0..37).collect();
        for workers in [0, 1, 2, 3, 8, 64] {
            let mut slots = vec![0u64; items.len()];
            for_each_slot(&mut slots, &items, workers, |slot, &i| *slot += i * i + 1);
            let expect: Vec<u64> = items.iter().map(|i| i * i + 1).collect();
            assert_eq!(slots, expect, "workers = {workers}");
        }
        for_each_slot(&mut [] as &mut [u64], &items, 4, |_, _| unreachable!());
    }

    #[test]
    fn the_caller_is_one_of_the_workers() {
        // Three jobs that each wait for the other two: only three
        // threads running side by side get past the barrier, and one of
        // them must be the caller.
        let barrier = Barrier::new(3);
        let mut ran_on: Vec<Option<ThreadId>> = vec![None; 3];
        for_each_slot(&mut ran_on, &[(); 3], 3, |slot, ()| {
            barrier.wait();
            *slot = Some(std::thread::current().id());
        });
        let ids: HashSet<ThreadId> = ran_on.into_iter().flatten().collect();
        assert_eq!(ids.len(), 3);
        assert!(ids.contains(&std::thread::current().id()));
    }

    #[test]
    fn a_single_worker_never_leaves_the_calling_thread() {
        let me = std::thread::current().id();
        let mut slots = vec![false; 5];
        for_each_slot(&mut slots, &[(); 5], 1, |slot, ()| {
            *slot = std::thread::current().id() == me;
        });
        assert_eq!(slots, [true; 5]);
    }
}
