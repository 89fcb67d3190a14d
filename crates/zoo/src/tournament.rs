//! The tournament harness: sweep grids of strategy cells through the
//! propagation-delay simulator, in parallel.
//!
//! A [`Cell`] is one experiment point: one or more registered strategists
//! (by [`StrategyRegistry`] index) dropped into a share split, at a delay
//! and a tie-breaking γ. Single-strategist cells measure a family against
//! an honest landscape (duopoly or the 2018 pool split); multi-strategist
//! cells are *matchups* — two table-driven miners attacking each other in
//! the same run, each treating the other's releases as foreign chain
//! (`seleth_sim::delay`'s multi-strategist semantics).
//!
//! [`Tournament::run`] evaluates every cell over `runs` seeded
//! repetitions and reports per-strategist mean revenue (RegularRate
//! normalization, the same quantity as an artifact's ρ*), its standard
//! error, and the cell's orphan rate. Cells are independent, so the sweep
//! runs through the workspace work queue ([`seleth_obs::par_map_traced`]):
//! results are bit-identical for every thread count, and heterogeneous
//! cell costs stay load-balanced.

use seleth_bench::report::replay_revenue;
use seleth_chain::RewardSchedule;
use seleth_mdp::RewardModel;
use seleth_sim::delay::{DelayConfig, DelayCounters, MinerStrategy};

use crate::registry::StrategyRegistry;

/// Budgets and timing shared by every cell of a tournament.
#[derive(Debug, Clone, PartialEq)]
pub struct TournamentConfig {
    /// Mean block interval in seconds (Ethereum-like 13 s by default).
    pub interval: f64,
    /// Seeded repetitions per cell (standard errors come from these).
    pub runs: u64,
    /// Blocks mined per repetition.
    pub blocks: u64,
    /// Base RNG seed; repetition `k` of every cell uses `seed + k`.
    pub seed: u64,
    /// Worker threads for the cell sweep (`0` = `available_parallelism`).
    pub threads: usize,
}

impl Default for TournamentConfig {
    fn default() -> Self {
        TournamentConfig {
            interval: 13.0,
            runs: 5,
            blocks: 30_000,
            seed: 31_337,
            threads: 0,
        }
    }
}

/// One sweep point: strategists, their share split, delay and γ.
#[derive(Debug, Clone, PartialEq)]
pub struct Cell {
    /// Split label carried into reports (e.g. `duopoly`, `pools2018`,
    /// `matchup`).
    pub label: String,
    /// Registry indices of the strategists, occupying miner slots
    /// `0..n`; the remaining share entries are honest miners.
    pub strategists: Vec<usize>,
    /// Full hash-share vector (strategists first, honest landscape after;
    /// must be a probability distribution).
    pub shares: Vec<f64>,
    /// Fraction of honest power joining a strategist's side in tie races.
    pub tie_gamma: f64,
    /// Propagation delay in seconds.
    pub delay: f64,
}

impl Cell {
    /// A single-strategist cell: the strategist's share first, the honest
    /// landscape after it.
    pub fn single(
        label: impl Into<String>,
        strategist: usize,
        shares: Vec<f64>,
        tie_gamma: f64,
        delay: f64,
    ) -> Self {
        Cell {
            label: label.into(),
            strategists: vec![strategist],
            shares,
            tie_gamma,
            delay,
        }
    }

    /// A two-strategist matchup: `a` and `b` with explicit shares, the
    /// remaining hash power as one aggregate honest miner (dropped when
    /// the two strategists already exhaust the distribution).
    pub fn matchup(
        label: impl Into<String>,
        a: (usize, f64),
        b: (usize, f64),
        tie_gamma: f64,
        delay: f64,
    ) -> Self {
        let rest = 1.0 - a.1 - b.1;
        let mut shares = vec![a.1, b.1];
        if rest > 1e-9 {
            shares.push(rest);
        }
        Cell {
            label: label.into(),
            strategists: vec![a.0, b.0],
            shares,
            tie_gamma,
            delay,
        }
    }
}

/// One strategist's measured outcome in a cell.
#[derive(Debug, Clone, PartialEq)]
pub struct StrategistOutcome {
    /// Registry name (family id or artifact stem).
    pub name: String,
    /// Family metadata recorded in the table (`""` for solver artifacts).
    pub family: String,
    /// Hash share the strategist held in this cell.
    pub share: f64,
    /// The table's predicted objective value at its own `(α, γ)`.
    pub predicted: f64,
    /// Mean measured revenue (RegularRate normalization, comparable to
    /// ρ*).
    pub revenue: f64,
    /// Standard error of the mean over the cell's repetitions.
    pub std_err: f64,
}

/// A fully evaluated cell.
#[derive(Debug, Clone, PartialEq)]
pub struct CellResult {
    /// The cell's split label.
    pub label: String,
    /// Propagation delay of the cell.
    pub delay: f64,
    /// Tie-breaking γ of the cell.
    pub tie_gamma: f64,
    /// Per-strategist outcomes, in miner-slot order.
    pub strategists: Vec<StrategistOutcome>,
    /// Mean system-wide orphan rate across repetitions.
    pub orphan_rate: f64,
    /// Deterministic delay-engine counters summed over the cell's
    /// repetitions (bit-identical at any thread count).
    pub counters: DelayCounters,
}

impl CellResult {
    /// The first (slot-0) strategist's mean revenue — the ranking key for
    /// single-strategist cells.
    pub fn lead_revenue(&self) -> f64 {
        self.strategists[0].revenue
    }
}

/// A grid of cells over a registry, ready to sweep.
#[derive(Debug)]
pub struct Tournament<'r> {
    registry: &'r StrategyRegistry,
    config: TournamentConfig,
    cells: Vec<Cell>,
}

impl<'r> Tournament<'r> {
    /// An empty tournament over `registry`.
    pub fn new(registry: &'r StrategyRegistry, config: TournamentConfig) -> Self {
        Tournament {
            registry,
            config,
            cells: Vec::new(),
        }
    }

    /// Add a sweep point.
    ///
    /// # Panics
    ///
    /// Panics when the cell is structurally broken — no strategists, a
    /// registry index out of range, or fewer shares than strategists.
    /// (Share-distribution validity is enforced by the delay simulator's
    /// builder at evaluation time.)
    pub fn add_cell(&mut self, cell: Cell) {
        assert!(!cell.strategists.is_empty(), "cell without strategists");
        assert!(
            cell.shares.len() >= cell.strategists.len(),
            "cell with fewer shares than strategists"
        );
        for &idx in &cell.strategists {
            assert!(idx < self.registry.len(), "unknown strategist index {idx}");
        }
        self.cells.push(cell);
    }

    /// The grid so far.
    pub fn cells(&self) -> &[Cell] {
        &self.cells
    }

    /// Evaluate every cell, in parallel across sweep points, returning
    /// results in grid order. Bit-identical for every thread count.
    ///
    /// # Panics
    ///
    /// Panics when a cell's delay configuration is rejected (invalid share
    /// distribution) — tournament grids are experiment code with no
    /// recovery path.
    pub fn run(&self) -> Vec<CellResult> {
        self.run_traced(&seleth_obs::NoopRecorder).0
    }

    /// [`Tournament::run`] with per-worker telemetry: cells sweep through
    /// [`seleth_obs::par_map_traced`], each worker folding its cells'
    /// deterministic engine counters into a shard. Cell results are
    /// bit-identical to [`Tournament::run`]; shard counter totals merge
    /// to the same values at any thread count.
    ///
    /// # Panics
    ///
    /// As [`Tournament::run`].
    pub fn run_traced(
        &self,
        recorder: &dyn seleth_obs::Recorder,
    ) -> (Vec<CellResult>, Vec<seleth_obs::TelemetryShard>) {
        seleth_obs::par_map_traced(
            &self.cells,
            self.config.threads,
            recorder,
            |cell, _: &mut (), shard| {
                let result = self.eval(cell);
                result.counters.record_into(shard);
                shard.add("study.runs", self.config.runs);
                result
            },
        )
    }

    fn eval(&self, cell: &Cell) -> CellResult {
        let entries: Vec<_> = cell
            .strategists
            .iter()
            .map(|&i| self.registry.get(i))
            .collect();
        // The cell's reward schedule follows the lead strategist's reward
        // model (families are Bitcoin-model; Ethereum artifacts bring the
        // uncle schedule with them).
        let schedule = match entries[0].table.rewards() {
            RewardModel::Bitcoin => RewardSchedule::bitcoin(),
            RewardModel::EthereumApprox => RewardSchedule::ethereum(),
        };
        let strategies: Vec<MinerStrategy> = entries
            .iter()
            .map(|e| MinerStrategy::Table(e.table.clone()))
            .collect();
        let config = DelayConfig::builder()
            .shares(cell.shares.clone())
            .strategies(strategies)
            .tie_gamma(cell.tie_gamma)
            .delay(cell.delay)
            .interval(self.config.interval)
            .blocks(self.config.blocks)
            .seed(self.config.seed)
            .schedule(schedule)
            .build()
            .expect("valid tournament cell");

        let outcome = replay_revenue(self.config.runs, entries.len(), |k| {
            config.with_seed(self.config.seed + k)
        });

        let strategists = entries
            .iter()
            .zip(outcome.slots.iter())
            .enumerate()
            .map(|(slot, (entry, &(mean, std_err)))| StrategistOutcome {
                name: entry.name.clone(),
                family: entry.table.family().to_string(),
                share: cell.shares[slot],
                predicted: entry.predicted,
                revenue: mean,
                std_err,
            })
            .collect();
        CellResult {
            label: cell.label.clone(),
            delay: cell.delay,
            tie_gamma: cell.tie_gamma,
            strategists,
            orphan_rate: outcome.orphan_rate,
            counters: outcome.counters,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::families::Family;

    fn small_config(threads: usize) -> TournamentConfig {
        TournamentConfig {
            runs: 2,
            blocks: 4_000,
            threads,
            ..TournamentConfig::default()
        }
    }

    fn grid(registry: &StrategyRegistry, threads: usize) -> Tournament<'_> {
        let mut t = Tournament::new(registry, small_config(threads));
        for delay in [0.0, 4.0] {
            t.add_cell(Cell::single("duopoly", 0, vec![0.3, 0.7], 0.5, delay));
            t.add_cell(Cell::single("duopoly", 1, vec![0.3, 0.7], 0.5, delay));
            t.add_cell(Cell::matchup("matchup", (1, 0.3), (1, 0.3), 0.5, delay));
        }
        t
    }

    #[test]
    fn sweep_is_thread_count_invariant() {
        let mut registry = StrategyRegistry::new();
        registry.register_family(Family::Honest, 0.3, 0.5, 10);
        registry.register_family(Family::Sm1, 0.3, 0.5, 10);
        let reference = grid(&registry, 1).run();
        assert_eq!(reference.len(), 6);
        let parallel = grid(&registry, 4).run();
        assert_eq!(reference, parallel);
        // Honest playback in the zero-delay duopoly earns the fair share.
        let honest_zero = &reference[0];
        assert!((honest_zero.lead_revenue() - 0.3).abs() < 0.05);
        assert_eq!(honest_zero.strategists[0].family, "honest");
        // The matchup cell reports both strategists.
        assert_eq!(reference[2].strategists.len(), 2);
        assert_eq!(reference[2].strategists[1].name, "sm1");
    }

    #[test]
    #[should_panic(expected = "unknown strategist index")]
    fn unknown_indices_are_rejected() {
        let registry = StrategyRegistry::new();
        let mut t = Tournament::new(&registry, small_config(1));
        t.add_cell(Cell::single("duopoly", 0, vec![0.3, 0.7], 0.5, 0.0));
    }
}
