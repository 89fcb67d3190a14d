//! Shared replay and reporting helpers for the delay-study bins.
//!
//! `optimal_delay`, `strategy_zoo`'s tournament and `chaos_study` all
//! phrase their measurements the same way: replay a [`DelayConfig`] over
//! `runs` independent seeds, average the strategist's RegularRate-
//! normalized absolute revenue (the quantity comparable to an artifact's
//! ρ*), track the system-wide orphan rate and the mined fraction of the
//! block budget, and gate anchor points against a predicted revenue with
//! a smoke-loosened tolerance. This module is the single implementation
//! of that loop — plus the `--trace` flag ([`Trace`]) the telemetry layer
//! adds to every study bin.

use std::path::PathBuf;

use seleth_chain::Scenario;
use seleth_obs::{NoopRecorder, Recorder, TraceLog};
use seleth_sim::delay::{DelayConfig, DelayCounters, DelaySimulation};

/// Aggregated outcome of replaying one sweep point over several seeds.
#[derive(Debug, Clone)]
pub struct ReplayOutcome {
    /// Per-strategist-slot `(mean, std_err)` of RegularRate-normalized
    /// absolute revenue, in miner-slot order.
    pub slots: Vec<(f64, f64)>,
    /// Mean system-wide orphan rate across the runs.
    pub orphan_rate: f64,
    /// Mean fraction of the block budget actually mined (< 1 under
    /// crash churn: thinned slots produce no block).
    pub mined_fraction: f64,
    /// Deterministic engine counters summed across the runs (bit-identical
    /// in any grouping; see `seleth_sim::delay::DelayCounters`).
    pub counters: DelayCounters,
}

impl ReplayOutcome {
    /// Slot 0's mean revenue — the single-strategist reporting key.
    pub fn mean(&self) -> f64 {
        self.slots.first().map_or(0.0, |s| s.0)
    }

    /// Slot 0's standard error.
    pub fn std_err(&self) -> f64 {
        self.slots.first().map_or(0.0, |s| s.1)
    }
}

/// Replay `runs` independently seeded delay configurations and aggregate
/// the revenue-vs-ρ* reporting quantities. `make(k)` builds repetition
/// `k`'s full configuration (simulation seed, fault-plan seed, budgets),
/// so per-run reseeding conventions stay with the caller; `slots` is the
/// number of leading miner slots whose revenue is tracked.
///
/// # Panics
///
/// Panics if `runs` or `slots` is zero — a study point without
/// repetitions or strategists is a harness bug.
pub fn replay_revenue(runs: u64, slots: usize, make: impl Fn(u64) -> DelayConfig) -> ReplayOutcome {
    assert!(runs > 0, "a replay needs at least one run");
    assert!(slots > 0, "a replay tracks at least one miner slot");
    let mut revenues: Vec<Vec<f64>> = vec![Vec::with_capacity(runs as usize); slots];
    let mut orphans = 0.0;
    let mut mined = 0.0;
    let mut counters = DelayCounters::default();
    for k in 0..runs {
        let config = make(k);
        let blocks = config.blocks();
        let report = DelaySimulation::new(config).run();
        for (slot, samples) in revenues.iter_mut().enumerate() {
            // An artifact's ρ* is a RegularRate-normalized revenue;
            // measure the same quantity (identical to the plain revenue
            // share under the Bitcoin schedule).
            samples.push(report.absolute_revenue(slot, Scenario::RegularRate));
        }
        orphans += report.orphan_rate();
        mined += report.report.block_count() as f64 / blocks.max(1) as f64;
        counters.merge(&report.counters);
    }
    ReplayOutcome {
        slots: revenues
            .iter()
            .map(|samples| crate::mean_stderr(samples))
            .collect(),
        orphan_rate: orphans / runs as f64,
        mined_fraction: mined / runs as f64,
        counters,
    }
}

/// The anchor-gate tolerance every gated study point uses: three standard
/// errors or 1% absolute on full budgets, loosened to four standard
/// errors or 5% under `--smoke`'s tiny budgets.
pub fn gate_tolerance(smoke: bool, std_err: f64) -> f64 {
    if smoke {
        (4.0 * std_err).max(0.05)
    } else {
        (3.0 * std_err).max(0.01)
    }
}

/// The bins' `--trace <path>` switch: with the flag, spans are recorded
/// into a [`TraceLog`] and dumped as JSON lines at `path` by
/// [`Trace::finish`]; without it, [`Trace::recorder`] is the no-op
/// recorder.
#[derive(Debug)]
pub struct Trace {
    path: Option<PathBuf>,
    log: TraceLog,
}

impl Trace {
    /// Read `--trace <path>` (or `--trace=<path>`) from the process
    /// arguments.
    pub fn from_args() -> Self {
        let mut args = std::env::args().skip(1);
        let path = loop {
            let Some(a) = args.next() else { break None };
            if a == "--trace" {
                break args.next().map(PathBuf::from);
            }
            if let Some(p) = a.strip_prefix("--trace=") {
                break Some(PathBuf::from(p));
            }
        };
        Trace {
            path,
            log: TraceLog::new(),
        }
    }

    /// The recorder to instrument with: the trace log when `--trace` was
    /// given, else [`NoopRecorder`].
    pub fn recorder(&self) -> &dyn Recorder {
        if self.path.is_some() {
            &self.log
        } else {
            &NoopRecorder
        }
    }

    /// Write the recorded spans if `--trace` asked for them, printing the
    /// destination; quietly does nothing without the flag.
    ///
    /// # Panics
    ///
    /// Panics when the trace file cannot be written — study bins have no
    /// recovery path and a loud failure beats a silently missing trace.
    pub fn finish(&self) {
        if let Some(path) = &self.path {
            self.log.write_jsonl(path).expect("write trace file");
            println!(
                "wrote trace ({} spans) to {}",
                self.log.len(),
                path.display()
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replay_matches_a_hand_rolled_loop() {
        let make = |k: u64| {
            DelayConfig::builder()
                .shares(vec![0.4, 0.6])
                .delay(4.0)
                .blocks(4_000)
                .seed(100 + k)
                .build()
                .expect("valid config")
        };
        let out = replay_revenue(3, 1, make);
        let mut revenues = Vec::new();
        for k in 0..3 {
            let report = DelaySimulation::new(make(k)).run();
            revenues.push(report.absolute_revenue(0, Scenario::RegularRate));
        }
        let (mean, std_err) = crate::mean_stderr(&revenues);
        assert_eq!(out.slots, vec![(mean, std_err)]);
        assert!((0.0..=1.0).contains(&out.orphan_rate));
        assert!((out.mined_fraction - 1.0).abs() < 1e-12, "no churn");
        assert_eq!(out.counters.mining_events, 12_000);
    }

    #[test]
    fn tolerance_floors_match_the_gates() {
        assert_eq!(gate_tolerance(false, 0.0), 0.01);
        assert_eq!(gate_tolerance(true, 0.0), 0.05);
        assert_eq!(gate_tolerance(false, 0.02), 0.06);
        assert_eq!(gate_tolerance(true, 0.02), 0.08);
    }
}
