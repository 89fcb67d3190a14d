//! The workspace's one deterministic work queue.
//!
//! Multi-seed simulation (`seleth_sim::multi::run_many`), the study bins'
//! grid sweeps and the zoo tournament all parallelize through
//! [`par_map_traced`]: workers claim item indices from one shared atomic
//! counter (no up-front chunking, so heterogeneous item costs stay
//! load-balanced) and the results are collected by index. As long as the
//! task is a pure function of its item, the output is bit-identical for
//! every thread count; the thread count only decides which worker runs
//! which item. Per-worker state (a recycled simulation engine, say) must
//! therefore never leak into a result.
//!
//! [`resolve_threads`] is the single rule for turning a requested worker
//! count into an actual one.

use std::sync::atomic::{AtomicUsize, Ordering};

use crate::metrics::Stopwatch;
use crate::recorder::{NoopRecorder, Recorder};
use crate::telemetry::TelemetryShard;

/// The worker count for a `requested` thread count: `0` means
/// `available_parallelism`, or 1 when the host cannot report it; any
/// other value is taken as given.
#[must_use]
pub fn resolve_threads(requested: usize) -> usize {
    if requested == 0 {
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    } else {
        requested
    }
}

/// Evaluate `f` over `items` on the shared work queue, returning results
/// in input order: [`par_map_traced`] without state, telemetry or spans.
///
/// # Panics
///
/// Re-raises a panic of `f`.
pub fn par_map<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    par_map_traced(items, threads, &NoopRecorder, |item, _: &mut (), _| f(item)).0
}

/// Evaluate `f` over `items` on `resolve_threads(threads)` workers (never
/// more than there are items), returning the results in input order plus
/// one [`TelemetryShard`] per worker, in worker order. With one worker the
/// work runs on the caller's thread.
///
/// Each worker builds one `S::default()` and passes it to every task it
/// claims, along with its shard, into which `f` can fold domain counters.
/// The scheduler itself records per worker the tasks claimed, busy time
/// and queue wait (time between tasks, thread start-up included). Shard
/// *counter totals* merge to the same values in any worker grouping;
/// the wall-clock fields are measurements with no such guarantee. When
/// `recorder.enabled()`, one `"task"` span per item is emitted.
///
/// # Panics
///
/// Re-raises a panic of `f`.
pub fn par_map_traced<T, S, R, F>(
    items: &[T],
    threads: usize,
    recorder: &dyn Recorder,
    f: F,
) -> (Vec<R>, Vec<TelemetryShard>)
where
    T: Sync,
    S: Default,
    R: Send,
    F: Fn(&T, &mut S, &mut TelemetryShard) -> R + Sync,
{
    if items.is_empty() {
        return (Vec::new(), Vec::new());
    }
    let threads = resolve_threads(threads).min(items.len());
    let next = AtomicUsize::new(0);
    let work = |worker: usize| {
        let mut shard = TelemetryShard::new(worker);
        let mut state = S::default();
        let mut produced = Vec::new();
        let mut idle = Stopwatch::start();
        loop {
            let k = next.fetch_add(1, Ordering::Relaxed);
            let Some(item) = items.get(k) else { break };
            shard.queue_wait_ns += idle.elapsed_ns();
            let busy = Stopwatch::start();
            let started = recorder.now_ns();
            produced.push((k, f(item, &mut state, &mut shard)));
            shard.busy_ns += busy.elapsed_ns();
            shard.tasks += 1;
            if recorder.enabled() {
                recorder.span("task", worker, started, recorder.now_ns());
            }
            idle = Stopwatch::start();
        }
        (produced, shard)
    };
    // The workspace's one spawn site (see `clippy.toml`).
    #[allow(clippy::disallowed_methods)]
    let workers = if threads == 1 {
        vec![work(0)]
    } else {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|worker| {
                    let work = &work;
                    scope.spawn(move || work(worker))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
                .collect::<Vec<_>>()
        })
    };
    let mut indexed = Vec::with_capacity(items.len());
    let mut shards = Vec::with_capacity(workers.len());
    for (produced, shard) in workers {
        indexed.extend(produced);
        shards.push(shard);
    }
    indexed.sort_unstable_by_key(|&(k, _)| k);
    (indexed.into_iter().map(|(_, r)| r).collect(), shards)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TraceLog;

    #[test]
    fn par_map_preserves_order_and_thread_invariance() {
        let items: Vec<u64> = (0..23).collect();
        let reference: Vec<u64> = items.iter().map(|v| v * v).collect();
        for threads in [0, 1, 2, 7, 64] {
            let out = par_map(&items, threads, |v| v * v);
            assert_eq!(out, reference, "threads={threads}");
        }
        assert_eq!(par_map::<u64, u64, _>(&[], 4, |v| *v), Vec::<u64>::new());
    }

    #[test]
    fn par_map_traced_is_thread_invariant_and_counts_work() {
        let items: Vec<u64> = (0..17).collect();
        let reference: Vec<u64> = items.iter().map(|v| v * 3).collect();
        for threads in [1, 2, 8] {
            let (out, shards) =
                par_map_traced(&items, threads, &NoopRecorder, |v, _: &mut (), shard| {
                    shard.add("item.sum", *v);
                    v * 3
                });
            assert_eq!(out, reference, "threads={threads}");
            assert_eq!(shards.iter().map(|s| s.tasks).sum::<u64>(), 17);
            // Counter totals are bit-identical in any worker grouping.
            assert_eq!(
                shards.iter().map(|s| s.counter("item.sum")).sum::<u64>(),
                items.iter().sum::<u64>(),
                "threads={threads}"
            );
        }
        let trace = TraceLog::new();
        let (_, shards) = par_map_traced(&items, 2, &trace, |v, _: &mut (), _| *v);
        assert_eq!(trace.len(), items.len(), "one span per task");
        assert!(shards.iter().all(|s| s.tasks == 0 || s.busy_ns > 0));
    }

    #[test]
    fn worker_state_is_built_once_per_worker() {
        let items: Vec<u64> = (0..40).collect();
        for threads in [1, 3] {
            let (out, shards) =
                par_map_traced(&items, threads, &NoopRecorder, |v, seen: &mut u64, _| {
                    *seen += 1;
                    (*v, *seen)
                });
            assert!(out.iter().map(|&(v, _)| v).eq(items.iter().copied()));
            // Each worker numbers its own tasks 1, 2, ...: a state rebuilt
            // per task would number every task 1.
            let firsts = out.iter().filter(|&&(_, n)| n == 1).count();
            let active = shards.iter().filter(|s| s.tasks > 0).count();
            assert_eq!(firsts, active, "threads={threads}");
        }
    }

    #[test]
    fn zero_requests_the_host_and_anything_else_is_kept() {
        assert!(resolve_threads(0) >= 1);
        assert_eq!(resolve_threads(1), 1);
        assert_eq!(resolve_threads(13), 13);
    }

    #[test]
    fn a_task_panic_reaches_the_caller() {
        let items: Vec<u64> = (0..8).collect();
        let caught = std::panic::catch_unwind(|| {
            par_map(&items, 2, |&v| {
                assert!(v != 5, "task five fails");
                v
            })
        });
        assert!(caught.is_err());
    }
}
