//! Multi-run orchestration: the paper averages 10 independent runs of
//! 100,000 blocks each (Section V); this module runs seeds in parallel and
//! aggregates the reports.
//!
//! Each run `k` is an independent simulation seeded `base_seed + k`, so the
//! reports are a pure function of the configuration: the thread count only
//! decides which worker executes which seed, never the result. Seeds go
//! through the workspace work queue ([`seleth_obs::par_map_traced`]), and
//! each worker recycles one [`Simulation`] engine — block-tree arena
//! included — across all the runs it executes.

use seleth_chain::Scenario;
use seleth_obs::{par_map_traced, NoopRecorder, Recorder, TelemetryShard};

use crate::config::SimConfig;
use crate::engine::Simulation;
use crate::stats::SimReport;

/// Run `runs` independent simulations (seeds `base_seed..base_seed+runs`)
/// in parallel and collect the reports in seed order.
///
/// Uses up to `available_parallelism` threads; see
/// [`run_many_with_threads`] for an explicit thread count. Results are
/// identical for every thread count.
///
/// # Panics
///
/// Re-raises a panic of the simulator (a bug, not a recoverable
/// condition).
pub fn run_many(config: &SimConfig, runs: u64) -> Vec<SimReport> {
    run_many_with_threads(config, runs, 0)
}

/// As [`run_many`], with an explicit worker count (`0` = use
/// `available_parallelism`). Reports depend only on `config` and `runs`,
/// never on `threads`.
///
/// # Panics
///
/// As [`run_many`].
pub fn run_many_with_threads(config: &SimConfig, runs: u64, threads: usize) -> Vec<SimReport> {
    run_many_recorded(config, runs, threads, &NoopRecorder).0
}

/// As [`run_many_with_threads`], additionally returning one
/// [`TelemetryShard`] per worker thread.
///
/// Besides the scheduler's per-worker busy time, queue wait and task
/// count, each shard carries the deterministic counters `sim.runs`,
/// `sim.blocks`, `sim.engine_builds` and `sim.engine_reuses`. Counter
/// *totals* over all shards are bit-identical for every thread count
/// (each run contributes fixed deltas; only their grouping varies);
/// per-worker timing is a wall-clock measurement with no such guarantee.
/// When `recorder` is enabled, one `"task"` span per simulation is
/// emitted.
///
/// # Panics
///
/// As [`run_many`].
pub fn run_many_recorded(
    config: &SimConfig,
    runs: u64,
    threads: usize,
    recorder: &dyn Recorder,
) -> (Vec<SimReport>, Vec<TelemetryShard>) {
    let seeds: Vec<u64> = (0..runs).map(|k| config.seed() + k).collect();
    par_map_traced(
        &seeds,
        threads,
        recorder,
        |&seed, engine: &mut Option<Simulation>, shard| {
            let run_config = config.with_seed(seed);
            let report = if let Some(sim) = engine {
                shard.add("sim.engine_reuses", 1);
                sim.reset(run_config);
                sim.run_in_place()
            } else {
                shard.add("sim.engine_builds", 1);
                engine.insert(Simulation::new(run_config)).run_in_place()
            };
            shard.add("sim.runs", 1);
            shard.add("sim.blocks", config.blocks());
            report
        },
    )
}

/// Mean and sample standard deviation of a metric over several runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample mean.
    pub mean: f64,
    /// Sample standard deviation (0 for a single run).
    pub std_dev: f64,
}

/// Summarize an arbitrary per-run metric.
pub fn summarize<F: FnMut(&SimReport) -> f64>(reports: &[SimReport], mut metric: F) -> Summary {
    let n = reports.len();
    if n == 0 {
        return Summary {
            mean: 0.0,
            std_dev: 0.0,
        };
    }
    let values: Vec<f64> = reports.iter().map(&mut metric).collect();
    let mean = values.iter().sum::<f64>() / n as f64;
    let var = if n > 1 {
        values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / (n - 1) as f64
    } else {
        0.0
    };
    Summary {
        mean,
        std_dev: var.sqrt(),
    }
}

/// Mean pool absolute revenue `U_s` across runs.
pub fn mean_absolute_pool(reports: &[SimReport], scenario: Scenario) -> Summary {
    summarize(reports, |r| r.absolute_pool(scenario))
}

/// Mean honest absolute revenue `U_h` across runs.
pub fn mean_absolute_honest(reports: &[SimReport], scenario: Scenario) -> Summary {
    summarize(reports, |r| r.absolute_honest(scenario))
}

/// Element-wise mean of the honest uncle-distance distributions.
pub fn mean_honest_distance_distribution(reports: &[SimReport]) -> Vec<f64> {
    if reports.is_empty() {
        return Vec::new();
    }
    let len = reports
        .iter()
        .map(|r| r.honest_uncle_histogram.len())
        .max()
        .unwrap_or(0);
    let mut acc = vec![0.0; len];
    for r in reports {
        let pmf = r.honest_distance_distribution();
        for (a, p) in acc.iter_mut().zip(pmf.iter()) {
            *a += p;
        }
    }
    for a in &mut acc {
        *a /= reports.len() as f64;
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config(blocks: u64) -> SimConfig {
        SimConfig::builder()
            .alpha(0.3)
            .gamma(0.5)
            .blocks(blocks)
            .n_honest(50)
            .seed(100)
            .build()
            .unwrap()
    }

    #[test]
    fn parallel_matches_sequential() {
        let c = config(3_000);
        let seq: Vec<SimReport> = (0..4)
            .map(|k| Simulation::new(c.with_seed(100 + k)).run())
            .collect();
        let par = run_many(&c, 4);
        for (s, p) in seq.iter().zip(par.iter()) {
            assert_eq!(s.pool.total(), p.pool.total());
            assert_eq!(s.reward_report.regular_count, p.reward_report.regular_count);
        }
    }

    #[test]
    fn thread_count_never_changes_results() {
        // Regression test for the chunked scheduler this module used to
        // have: per-seed results must be a pure function of the config,
        // bit-for-bit, whatever the worker count — including worker counts
        // exceeding the run count (the old degenerate-partition case).
        let c = config(2_000);
        let runs = 5;
        let reference = run_many_with_threads(&c, runs, 1);
        for threads in [2, 3, 8, 64] {
            let parallel = run_many_with_threads(&c, runs, threads);
            assert_eq!(parallel.len(), reference.len());
            for (r, p) in reference.iter().zip(parallel.iter()) {
                assert_eq!(r.pool.total(), p.pool.total(), "threads={threads}");
                assert_eq!(r.honest.total(), p.honest.total(), "threads={threads}");
                assert_eq!(
                    r.reward_report.regular_count, p.reward_report.regular_count,
                    "threads={threads}"
                );
                assert_eq!(
                    r.reward_report.uncle_count, p.reward_report.uncle_count,
                    "threads={threads}"
                );
                assert_eq!(r.state_visits, p.state_visits, "threads={threads}");
            }
        }
    }

    #[test]
    fn fewer_runs_than_threads() {
        // runs < threads used to yield degenerate chunk partitions; the
        // work queue must handle it and still return every report in seed
        // order.
        let c = config(500);
        let reports = run_many_with_threads(&c, 2, 16);
        assert_eq!(reports.len(), 2);
        let solo: Vec<SimReport> = (0..2)
            .map(|k| Simulation::new(c.with_seed(100 + k)).run())
            .collect();
        for (a, b) in reports.iter().zip(solo.iter()) {
            assert_eq!(a.pool.total(), b.pool.total());
        }
    }

    #[test]
    fn engine_reuse_matches_fresh_engines() {
        // The sequential path recycles one engine across seeds; recycling
        // must be observationally identical to constructing fresh engines.
        let c = config(1_500);
        let recycled = run_many_with_threads(&c, 3, 1);
        let fresh: Vec<SimReport> = (0..3)
            .map(|k| Simulation::new(c.with_seed(100 + k)).run())
            .collect();
        for (a, b) in recycled.iter().zip(fresh.iter()) {
            assert_eq!(a.pool.total(), b.pool.total());
            assert_eq!(a.reward_report.regular_count, b.reward_report.regular_count);
            assert_eq!(a.state_visits, b.state_visits);
        }
    }

    #[test]
    fn recorded_counter_totals_are_thread_invariant() {
        let c = config(1_000);
        let total = |threads: usize| {
            let (reports, shards) = run_many_recorded(&c, 6, threads, &seleth_obs::NoopRecorder);
            assert_eq!(reports.len(), 6);
            let merged = seleth_obs::Telemetry::merge_shards(&shards);
            (
                merged.counter("sim.runs"),
                merged.counter("sim.blocks"),
                merged.counter("sim.engine_builds") + merged.counter("sim.engine_reuses"),
            )
        };
        let reference = total(1);
        assert_eq!(reference, (6, 6_000, 6));
        for threads in [2, 3, 8] {
            assert_eq!(total(threads), reference, "threads={threads}");
        }
    }

    #[test]
    fn recorded_spans_cover_every_run() {
        let c = config(500);
        let log = seleth_obs::TraceLog::new();
        let (_, shards) = run_many_recorded(&c, 3, 2, &log);
        assert_eq!(log.events().len(), 3);
        let tasks: u64 = shards.iter().map(|s| s.tasks).sum();
        assert_eq!(tasks, 3);
    }

    #[test]
    fn summary_statistics() {
        let c = config(2_000);
        let reports = run_many(&c, 3);
        let s = mean_absolute_pool(&reports, Scenario::RegularRate);
        assert!(s.mean > 0.0);
        assert!(s.std_dev >= 0.0);
        // Distinct seeds → some variation.
        assert!(s.std_dev > 0.0);
    }

    #[test]
    fn empty_and_single_run_summaries() {
        assert_eq!(
            summarize(&[], |_| 1.0),
            Summary {
                mean: 0.0,
                std_dev: 0.0
            }
        );
        let c = config(1_000);
        let reports = run_many(&c, 1);
        let s = summarize(&reports, |r| r.alpha);
        assert_eq!(s.mean, 0.3);
        assert_eq!(s.std_dev, 0.0);
    }

    #[test]
    fn mean_distance_distribution_normalized() {
        let c = config(5_000);
        let reports = run_many(&c, 2);
        let pmf = mean_honest_distance_distribution(&reports);
        let total: f64 = pmf.iter().sum();
        assert!((total - 1.0).abs() < 1e-9, "mean pmf sums to {total}");
    }
}
