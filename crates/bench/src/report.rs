//! The replay harness every delay-study bin shares.
//!
//! `optimal_delay`, `optimal_closed_loop`, `strategy_zoo`'s tournament,
//! `chaos_study` and `topology_study` all phrase their measurements the
//! same way: drop strategist tables into a share split at a delay (plus,
//! for chaos and topology, a fault plan or a peer graph), replay that
//! [`ReplayCell`] over `runs` independent seeds, average each
//! strategist's RegularRate-normalized absolute revenue (the quantity
//! comparable to an artifact's ρ*), track the system-wide orphan rate and
//! the mined fraction of the block budget, and gate anchor points against
//! a predicted revenue with a smoke-loosened tolerance. This module is the
//! single implementation of that loop:
//!
//! - [`Replay`] holds the budgets and the one seeding rule (run `k` uses
//!   sim seed `seed + k` and fault seed `faults.seed() + k`) and sweeps
//!   cells in parallel on [`par_map_traced`], folding each cell's engine
//!   counters and `study.runs` into the workers' telemetry shards. The
//!   recompute tests replay committed cells through the same runner.
//! - [`Study`] is the per-bin harness: `--smoke`, `--trace` ([`Trace`]),
//!   the wall clock, telemetry phases and shard folding, the
//!   `<stem>.json` / `<stem>_smoke.json` output and exit code 1 on a
//!   failed gate.

use std::path::PathBuf;
use std::sync::Arc;

use seleth_chain::{RewardSchedule, Scenario};
use seleth_mdp::{PolicyTable, RewardModel};
use seleth_net::Topology;
use seleth_obs::{
    par_map_traced, NoopRecorder, Recorder, Stopwatch, Telemetry, TelemetryShard, TraceLog,
};
use seleth_sim::delay::{
    DelayConfig, DelayCounters, DelaySimulation, MinerStrategy, PropagationModel,
};
use seleth_sim::{FaultPlan, SimError};

/// One study cell: strategist tables in miner slots `0..n`, the honest
/// landscape after them, in one network.
#[derive(Debug, Clone)]
pub struct ReplayCell {
    /// Strategist tables, occupying miner slots `0..n`; the remaining
    /// share entries are honest miners. The reward schedule follows the
    /// lead (slot-0) table's reward model.
    pub tables: Vec<Arc<PolicyTable>>,
    /// Full hash-share vector (strategists first; must be a probability
    /// distribution).
    pub shares: Vec<f64>,
    /// Fraction of honest power joining a strategist's side in tie races.
    pub tie_gamma: f64,
    /// Propagation delay in seconds.
    pub delay: f64,
    /// Fault plan; run `k` re-seeds it to `faults.seed() + k`.
    pub faults: FaultPlan,
    /// Peer graph to gossip over; `None` is the uniform delay model.
    pub topology: Option<Arc<Topology>>,
}

impl ReplayCell {
    /// A fault-free, uniform-delay cell.
    pub fn new(
        tables: Vec<Arc<PolicyTable>>,
        shares: Vec<f64>,
        tie_gamma: f64,
        delay: f64,
    ) -> Self {
        ReplayCell {
            tables,
            shares,
            tie_gamma,
            delay,
            faults: FaultPlan::none(),
            topology: None,
        }
    }

    /// Run `k`'s configuration under `replay`'s budgets and seeding rule.
    fn config(&self, replay: &Replay, k: u64) -> Result<DelayConfig, SimError> {
        let schedule = match self.tables.first().map(|t| t.rewards()) {
            Some(RewardModel::EthereumApprox) => RewardSchedule::ethereum(),
            _ => RewardSchedule::bitcoin(),
        };
        let mut b = DelayConfig::builder();
        b.shares(self.shares.clone())
            .strategies(
                self.tables
                    .iter()
                    .map(|t| MinerStrategy::Table(Arc::clone(t)))
                    .collect(),
            )
            .tie_gamma(self.tie_gamma)
            .delay(self.delay)
            .interval(replay.interval)
            .schedule(schedule)
            .blocks(replay.blocks)
            .seed(replay.seed + k)
            .faults(self.faults.with_seed(self.faults.seed() + k));
        if let Some(t) = &self.topology {
            b.propagation(PropagationModel::Graph(Arc::clone(t)));
        }
        b.build()
    }
}

/// Aggregated outcome of replaying one cell over several seeds.
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

/// Budgets and seeding shared by every cell of a study.
#[derive(Debug, Clone, PartialEq)]
pub struct Replay {
    /// Mean block interval in seconds (Ethereum-like 13 s by default).
    pub interval: f64,
    /// Seeded repetitions per cell (standard errors come from these).
    pub runs: u64,
    /// Blocks mined per repetition.
    pub blocks: u64,
    /// Base sim seed; run `k` of every cell uses `seed + k`.
    pub seed: u64,
    /// Worker threads for a sweep (`0` = `available_parallelism`).
    pub threads: usize,
}

impl Default for Replay {
    fn default() -> Self {
        Replay {
            interval: 13.0,
            runs: 5,
            blocks: 30_000,
            seed: 31_337,
            threads: 0,
        }
    }
}

impl Replay {
    /// Replay `cell` over `runs` seeds, one after another.
    ///
    /// # Errors
    ///
    /// The [`SimError`] of a rejected configuration (invalid shares, more
    /// tables than miners, a fault plan or topology that disagrees with
    /// the miner count, …).
    ///
    /// # Panics
    ///
    /// Panics if `runs` is zero — a study point without repetitions is a
    /// harness bug.
    pub fn run(&self, cell: &ReplayCell) -> Result<ReplayOutcome, SimError> {
        assert!(self.runs > 0, "a replay needs at least one run");
        let mut revenues: Vec<Vec<f64>> =
            vec![Vec::with_capacity(self.runs as usize); cell.tables.len()];
        let mut orphans = 0.0;
        let mut mined = 0.0;
        let mut counters = DelayCounters::default();
        for k in 0..self.runs {
            let report = DelaySimulation::new(cell.config(self, k)?).run();
            for (slot, samples) in revenues.iter_mut().enumerate() {
                // An artifact's ρ* is a RegularRate-normalized revenue;
                // measure the same quantity (identical to the plain revenue
                // share under the Bitcoin schedule).
                samples.push(report.absolute_revenue(slot, Scenario::RegularRate));
            }
            orphans += report.orphan_rate();
            mined += report.report.block_count() as f64 / self.blocks.max(1) as f64;
            counters.merge(&report.counters);
        }
        Ok(ReplayOutcome {
            slots: revenues.iter().map(|s| crate::mean_stderr(s)).collect(),
            orphan_rate: orphans / self.runs as f64,
            mined_fraction: mined / self.runs as f64,
            counters,
        })
    }

    /// [`Replay::run`] over every cell, in parallel across cells on
    /// [`par_map_traced`], outcomes in cell order. Each worker folds its
    /// cells' engine counters and `study.runs` into its shard; outcomes
    /// and counter totals are bit-identical for every thread count.
    ///
    /// # Errors
    ///
    /// The first rejected cell's [`SimError`], in cell order.
    pub fn sweep(
        &self,
        cells: &[ReplayCell],
        recorder: &dyn Recorder,
    ) -> Result<(Vec<ReplayOutcome>, Vec<TelemetryShard>), SimError> {
        let (outcomes, shards) =
            par_map_traced(cells, self.threads, recorder, |cell, _: &mut (), shard| {
                let outcome = self.run(cell)?;
                outcome.counters.record_into(shard);
                shard.add("study.runs", self.runs);
                Ok(outcome)
            });
        Ok((outcomes.into_iter().collect::<Result<_, _>>()?, shards))
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

/// A study JSON object at four-space indent: `head` (its opening brace
/// and members, ending in an open array), then `rows`, one per line and
/// comma-separated, then the array's and the object's closing brackets.
pub fn json_block(head: String, rows: impl Iterator<Item = String>) -> String {
    format!(
        "{head}{}\n      ]\n    }}",
        rows.collect::<Vec<_>>().join(",\n")
    )
}

/// One study bin's harness: reads `--smoke` and `--trace`, times phases,
/// folds sweep shards into the study's telemetry, writes
/// `<stem>.json` (`<stem>_smoke.json` under `--smoke`) into
/// [`crate::results_dir`] and exits 1 if a gate failed.
#[derive(Debug)]
pub struct Study {
    stem: &'static str,
    smoke: bool,
    trace: Trace,
    wall: Stopwatch,
    telemetry: Telemetry,
    failed: bool,
}

impl Study {
    /// Start the wall clock of the study writing `<stem>.json`, reading
    /// `--smoke` and `--trace` from the process arguments.
    pub fn from_args(stem: &'static str) -> Self {
        Study {
            stem,
            smoke: std::env::args().any(|a| a == "--smoke"),
            trace: Trace::from_args(),
            wall: Stopwatch::start(),
            telemetry: Telemetry::new(),
            failed: false,
        }
    }

    /// Whether `--smoke` asked for the small CI grid.
    pub fn smoke(&self) -> bool {
        self.smoke
    }

    /// The study's replay budgets: `SELETH_RUNS` and `SELETH_BLOCKS`,
    /// defaulting to `runs` and `blocks` (each `[smoke, full]`) by mode,
    /// at `interval` from base sim seed `seed`, on every available worker.
    pub fn replay(&self, interval: f64, seed: u64, runs: [u64; 2], blocks: [u64; 2]) -> Replay {
        let knob = |key, [smoke, full]: [u64; 2]| {
            crate::env_u64(key, if self.smoke { smoke } else { full })
        };
        Replay {
            interval,
            runs: knob("SELETH_RUNS", runs),
            blocks: knob("SELETH_BLOCKS", blocks),
            seed,
            threads: 0,
        }
    }

    /// [`gate_tolerance`] at this study's mode.
    pub fn tolerance(&self, std_err: f64) -> f64 {
        gate_tolerance(self.smoke, std_err)
    }

    /// Run `f`, recording its wall time as phase `name`.
    pub fn phase<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> T {
        let clock = Stopwatch::start();
        let out = f();
        self.telemetry.add_phase(name, clock.elapsed_ns());
        out
    }

    /// Run the traced parallel region `f` as phase `name` and fold its
    /// worker shards into the study's telemetry. A rejected cell fails
    /// the study on the spot (exit code 1): grids are fixed experiment
    /// code, so a bad cell is a bug in the bin.
    pub fn traced<T>(
        &mut self,
        name: &str,
        f: impl FnOnce(&dyn Recorder) -> Result<(T, Vec<TelemetryShard>), SimError>,
    ) -> T {
        let clock = Stopwatch::start();
        let out = f(self.trace.recorder());
        self.telemetry.add_phase(name, clock.elapsed_ns());
        match out {
            Ok((out, shards)) => {
                for shard in &shards {
                    self.telemetry.fold_shard(shard);
                }
                out
            }
            Err(e) => {
                eprintln!("FAIL {}: a study cell was rejected: {e}", self.stem);
                std::process::exit(1);
            }
        }
    }

    /// Sweep `cells` through `replay` as a `sweep` phase.
    pub fn sweep(&mut self, replay: &Replay, cells: &[ReplayCell]) -> Vec<ReplayOutcome> {
        self.traced("sweep", |recorder| replay.sweep(cells, recorder))
    }

    /// Report a failed gate: printed now, exit code 1 at [`Study::finish`].
    pub fn fail(&mut self, message: &str) {
        eprintln!("FAIL {message}");
        self.failed = true;
    }

    /// Write the study JSON — `kind`, `"format": 1`, the bin's `fields`
    /// (JSON members at two-space indent, no trailing comma) and the
    /// telemetry block — print `reading` and the output path, dump the
    /// trace, and exit 1 with `failure` if a gate failed, else print
    /// `success`.
    ///
    /// # Panics
    ///
    /// As [`crate::write_text`] and [`Trace::finish`].
    pub fn finish(mut self, kind: &str, fields: &str, reading: &str, success: &str, failure: &str) {
        self.telemetry.wall_ns = self.wall.elapsed_ns();
        self.telemetry.stamp_host();
        let json = format!(
            "{{\n  \"kind\": \"{kind}\",\n  \"format\": 1,\n{fields},\n  \"telemetry\": {}\n}}\n",
            self.telemetry.to_json(2)
        );
        let smoke = if self.smoke { "_smoke" } else { "" };
        let path = crate::write_text(&format!("{}{smoke}.json", self.stem), &json);
        println!("\n{reading}");
        println!("wrote {}", path.display());
        self.trace.finish();
        if self.failed {
            eprintln!("FAIL: {failure}");
            std::process::exit(1);
        }
        println!("{success}");
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

    /// A replay must equal the loop it stands for, bit for bit: run `k`
    /// at sim seed `seed + k` and fault seed `faults.seed() + k`, revenue
    /// averaged per slot, orphan rate and mined fraction averaged,
    /// counters summed — for a fault-free uniform cell, a lossy churning
    /// cell and a graph cell alike.
    #[test]
    fn replay_matches_a_hand_rolled_loop() {
        let table = Arc::new(PolicyTable::honest(0.4, 0.5, 20));
        let plain = ReplayCell::new(vec![Arc::clone(&table)], vec![0.4, 0.6], 0.5, 4.0);
        let mut faults = FaultPlan::builder();
        faults.seed(77).loss(0.2).churn(1_500.0, 300.0);
        let faulted = ReplayCell {
            faults: faults.build().expect("valid plan"),
            ..plain.clone()
        };
        let star = Topology::star_relay(&[1.0, 3.0, 2.0]).expect("valid star");
        let graph = ReplayCell {
            shares: vec![0.4, 0.3, 0.3],
            topology: Some(Arc::new(star)),
            ..plain.clone()
        };
        let hand_rolled = |cell: &ReplayCell| {
            let mut revenues = Vec::new();
            let mut orphans = 0.0;
            let mut mined = 0.0;
            let mut counters = DelayCounters::default();
            for k in 0..3 {
                let mut b = DelayConfig::builder();
                b.shares(cell.shares.clone())
                    .policy(0, (*table).clone())
                    .delay(4.0)
                    .blocks(4_000)
                    .seed(100 + k)
                    .schedule(RewardSchedule::bitcoin())
                    .faults(cell.faults.with_seed(cell.faults.seed() + k));
                if let Some(t) = &cell.topology {
                    b.topology((**t).clone());
                }
                let report = DelaySimulation::new(b.build().expect("valid config")).run();
                revenues.push(report.absolute_revenue(0, Scenario::RegularRate));
                orphans += report.orphan_rate();
                mined += report.report.block_count() as f64 / 4_000.0;
                counters.merge(&report.counters);
            }
            let (mean, std_err) = crate::mean_stderr(&revenues);
            let bits = [mean, std_err, orphans / 3.0, mined / 3.0].map(f64::to_bits);
            (bits, counters)
        };
        let replay = Replay {
            runs: 3,
            blocks: 4_000,
            seed: 100,
            ..Replay::default()
        };
        let cells = [plain, faulted, graph];
        let (swept, shards) = replay.sweep(&cells, &NoopRecorder).expect("valid cells");
        for (cell, out) in cells.iter().zip(&swept) {
            let got = [
                out.mean(),
                out.std_err(),
                out.orphan_rate,
                out.mined_fraction,
            ];
            assert_eq!((got.map(f64::to_bits), out.counters), hand_rolled(cell));
            let slots = out.counters.mining_events + out.counters.thinned_events;
            assert_eq!(slots, 12_000, "every run draws its block budget");
        }
        assert!(swept[1].mined_fraction < 1.0, "churn thins the supply");
        assert!(swept[1].counters.drops > 0, "loss drops deliveries");
        assert!(swept[2].counters.gossip_sends > 0, "the graph gossips");
        let runs: u64 = shards.iter().map(|s| s.counter("study.runs")).sum();
        assert_eq!(runs, 9);
    }

    #[test]
    fn rejected_cells_are_typed_errors() {
        let table = Arc::new(PolicyTable::honest(0.4, 0.5, 20));
        let bad = ReplayCell::new(vec![table], vec![0.4, 0.4], 0.5, 0.0);
        let replay = Replay::default();
        assert!(matches!(
            replay.run(&bad),
            Err(SimError::InvalidShares { .. })
        ));
        assert!(replay.sweep(&[bad], &NoopRecorder).is_err());
    }

    #[test]
    fn tolerance_floors_match_the_gates() {
        assert_eq!(gate_tolerance(false, 0.0), 0.01);
        assert_eq!(gate_tolerance(true, 0.0), 0.05);
        assert_eq!(gate_tolerance(false, 0.02), 0.06);
        assert_eq!(gate_tolerance(true, 0.02), 0.08);
    }
}
