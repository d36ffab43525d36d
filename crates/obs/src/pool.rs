//! A zero-dependency work-stealing thread pool for embarrassingly
//! parallel, order-preserving maps.
//!
//! [`map_indexed`] fans a fixed slice of independent tasks out over `N`
//! worker threads and returns the results **in input order**, so callers
//! that sort their inputs first (the scan driver sorts script paths)
//! produce byte-identical output at any parallelism level.
//!
//! Design notes:
//! * Scoped threads (`std::thread::scope`) — borrows the input slice and
//!   closure directly; no `'static` bounds, no channels.
//! * One `Mutex<VecDeque<usize>>` of task indices per worker, seeded in
//!   contiguous blocks. A worker pops from the *front* of its own queue
//!   and steals from the *back* of the busiest sibling, so stolen work
//!   is the work its owner would reach last.
//! * No task spawns further tasks, so "every queue empty" is a correct
//!   termination condition (in-flight tasks only *finish*; they never
//!   enqueue).
//! * Metrics: `pool.tasks` and `pool.steals` counters via [`crate::metrics`].
//!
//! Panic policy: the closure is expected to contain its own panics (the
//! scan driver wraps every script in `catch_unwind`). If a task panics
//! anyway, the scope propagates the panic after all threads finish —
//! fail loud rather than return a hole-y result vector.

use std::collections::VecDeque;
use std::sync::Mutex;

/// Best-effort available hardware parallelism (1 if unknown).
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Applies `f` to every element of `items` using up to `jobs` worker
/// threads and returns the results in input order.
///
/// `jobs <= 1` (or a single-element input) runs inline on the calling
/// thread with no pool at all, so the sequential path stays allocation-
/// and thread-free.
pub fn map_indexed<T, R, F>(jobs: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let jobs = jobs.max(1).min(items.len().max(1));
    if jobs <= 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }

    // Seed per-worker queues with contiguous blocks of indices: block
    // assignment keeps a worker's own work cache-adjacent and makes the
    // steal victim's *back* the work farthest from its current position.
    let queues: Vec<Mutex<VecDeque<usize>>> = (0..jobs)
        .map(|w| {
            Mutex::new(
                (0..items.len())
                    .filter(|i| i * jobs / items.len() == w)
                    .collect(),
            )
        })
        .collect();

    let slots: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();

    std::thread::scope(|scope| {
        for me in 0..jobs {
            let queues = &queues;
            let slots = &slots;
            let f = &f;
            scope.spawn(move || {
                let mut steals = 0u64;
                let mut done = 0u64;
                loop {
                    // Own queue first (front), then steal (back).
                    let task = {
                        let own = queues[me]
                            .lock()
                            .unwrap_or_else(|e| e.into_inner())
                            .pop_front();
                        match own {
                            Some(i) => Some(i),
                            None => steal(queues, me).inspect(|_| steals += 1),
                        }
                    };
                    let Some(i) = task else { break };
                    let result = f(i, &items[i]);
                    *slots[i].lock().unwrap_or_else(|e| e.into_inner()) = Some(result);
                    done += 1;
                }
                if done > 0 {
                    crate::counter_add("pool.tasks", done);
                }
                if steals > 0 {
                    crate::counter_add("pool.steals", steals);
                }
            });
        }
    });

    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .unwrap_or_else(|e| e.into_inner())
                .expect("pool invariant: every seeded task index ran exactly once")
        })
        .collect()
}

/// Steals one task from the sibling with the longest queue.
fn steal(queues: &[Mutex<VecDeque<usize>>], me: usize) -> Option<usize> {
    // Pick the currently longest victim queue so repeated steals spread
    // the remaining work instead of draining one neighbor.
    let mut best: Option<(usize, usize)> = None;
    for (w, q) in queues.iter().enumerate() {
        if w == me {
            continue;
        }
        let len = q.lock().unwrap_or_else(|e| e.into_inner()).len();
        if len > 0 && best.map(|(_, l)| len > l).unwrap_or(true) {
            best = Some((w, len));
        }
    }
    let (victim, _) = best?;
    queues[victim]
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .pop_back()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn preserves_input_order() {
        let items: Vec<usize> = (0..257).collect();
        let out = map_indexed(8, &items, |i, &x| {
            assert_eq!(i, x);
            x * 2
        });
        assert_eq!(out, items.iter().map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn runs_every_task_exactly_once() {
        let counter = AtomicUsize::new(0);
        let items: Vec<u32> = (0..1000).collect();
        let out = map_indexed(4, &items, |_, &x| {
            counter.fetch_add(1, Ordering::Relaxed);
            x
        });
        assert_eq!(counter.load(Ordering::Relaxed), 1000);
        assert_eq!(out, items);
    }

    #[test]
    fn sequential_and_degenerate_inputs() {
        let empty: Vec<u8> = Vec::new();
        assert!(map_indexed(8, &empty, |_, &x| x).is_empty());
        let one = [42u8];
        assert_eq!(map_indexed(8, &one, |_, &x| x), vec![42]);
        let items: Vec<u8> = (0..10).collect();
        assert_eq!(map_indexed(1, &items, |_, &x| x), items);
        assert_eq!(map_indexed(0, &items, |_, &x| x), items);
    }

    #[test]
    fn parallel_equals_sequential_with_uneven_work() {
        let items: Vec<u64> = (0..64).collect();
        let work = |_: usize, &x: &u64| {
            // Uneven spin so stealing actually happens.
            let mut acc = x;
            for _ in 0..(x % 7) * 10_000 {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1);
            }
            (x, acc)
        };
        let seq = map_indexed(1, &items, work);
        let par = map_indexed(8, &items, work);
        assert_eq!(seq, par);
    }
}
