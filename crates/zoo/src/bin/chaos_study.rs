//! Chaos study: does the withholding advantage survive a faulty network?
//!
//! PR 3's delay study showed propagation delay *bleeding* the optimal
//! artifact's edge — a graceful degradation, not a collapse. This
//! experiment asks the same question about the rest of the failure
//! spectrum, using the deterministic fault-injection layer
//! (`seleth_sim::faults`): per-link message **loss** (re-gossiped with
//! capped exponential backoff), miner **crash/recovery churn** (hash
//! power thins out; strategists resync via the forced-adopt path on
//! rejoin), and timed network **partitions** that heal.
//!
//! Sweep: the full loss-rate × churn × partition grid at a 6 s delay —
//! loss ∈ {0, 0.1, 0.25}, churn off/on, partitions off/on — plus the
//! zero-delay zero-fault anchor cell, over three strategists (the saved
//! `bitcoin_a040_g050` optimal artifact and the zoo's SM1 and
//! lead-stubborn families) × two share splits (duopoly and the 2018 pool
//! landscape). Every fault schedule is a pure function of the plan seed,
//! so the whole study is bit-reproducible at any thread count.
//!
//! The zero-delay zero-fault duopoly cell is **gated** for the solved
//! artifact: measured revenue must reproduce the artifact's recorded ρ*
//! within 3 standard errors or 1% absolute (exit code 1 otherwise) —
//! the same anchor the delay study gates, proving the fault layer's
//! zero-fault path changed nothing.
//!
//! Output: `results/chaos_study.json` — one series per (strategy, split)
//! with one entry per grid cell, plus the simulation `seed` and the
//! `fault_seed` beside its budgets, so every cell can be replayed from
//! the file alone — plus a human-readable table on stdout.
//!
//! Environment knobs: `SELETH_RUNS` (4), `SELETH_BLOCKS` (30 000),
//! `SELETH_MDP_LEN` (30), `SELETH_RESULTS`, `SELETH_POLICIES`. Pass
//! `--smoke` for the CI gate: the artifact only, duopoly split, a reduced
//! grid, small budgets, loosened tolerance.

use std::sync::Arc;

use seleth_bench::report::{json_block, ReplayCell, Study};
use seleth_bench::{json_f64, json_f64_list};
use seleth_mdp::RewardModel;
use seleth_sim::{pools, FaultPlan};
use seleth_zoo::{Family, StrategyRegistry, StrategySource};

/// Mean block interval for every run (Ethereum-like, seconds).
const INTERVAL: f64 = 13.0;
/// Propagation delay of every fault-grid cell (delay/interval ≈ 0.46,
/// the regime where PR 3 measured a sizeable but graceful degradation).
const DELAY: f64 = 6.0;
const SEED: u64 = 57_005;
/// Base seed of every cell's fault plan; run `k` uses `FAULT_SEED + k`.
const FAULT_SEED: u64 = 90_210;

/// Crash/recovery churn of the `churn` cells: miners are down ~13% of
/// the time in many short outages (mean 5 min down per ~38 min up).
const CHURN_UPTIME: f64 = 2_300.0;
const CHURN_DOWNTIME: f64 = 345.0;

/// Partition cadence of the `partition` cells: a 2-group split opens
/// every `PARTITION_EVERY` seconds and heals after `PARTITION_LEN`.
const PARTITION_EVERY: f64 = 40_000.0;
const PARTITION_LEN: f64 = 4_000.0;

/// One grid cell: a delay plus a fault plan.
struct CellSpec {
    name: &'static str,
    delay: f64,
    loss: f64,
    churn: bool,
    partition: bool,
}

impl CellSpec {
    fn zero_fault(&self) -> bool {
        self.loss == 0.0 && !self.churn && !self.partition
    }

    /// Compile the cell into a fault plan for `miners` participants.
    /// Partition windows cover the whole mining horizon; the group split
    /// alternates miners (the strategist always lands in group 0).
    fn plan(&self, miners: usize, horizon: f64) -> FaultPlan {
        let mut b = FaultPlan::builder();
        b.seed(FAULT_SEED).loss(self.loss);
        if self.churn {
            b.churn(CHURN_UPTIME, CHURN_DOWNTIME);
        }
        if self.partition {
            let groups: Vec<usize> = (0..miners).map(|i| i % 2).collect();
            let mut start = PARTITION_EVERY;
            while start < horizon {
                b.partition(start, start + PARTITION_LEN, groups.clone());
                start += PARTITION_EVERY;
            }
        }
        b.build().expect("grid cells are valid plans")
    }
}

/// The full grid: the zero-delay anchor, then loss × churn × partition
/// at the study delay.
fn grid() -> Vec<CellSpec> {
    let mut cells = vec![CellSpec {
        name: "anchor_delay0",
        delay: 0.0,
        loss: 0.0,
        churn: false,
        partition: false,
    }];
    let names = [
        ["baseline", "partition", "churn", "churn_partition"],
        [
            "loss10",
            "loss10_partition",
            "loss10_churn",
            "loss10_churn_partition",
        ],
        [
            "loss25",
            "loss25_partition",
            "loss25_churn",
            "loss25_churn_partition",
        ],
    ];
    for (li, &loss) in [0.0, 0.10, 0.25].iter().enumerate() {
        for (ci, churn) in [false, true].into_iter().enumerate() {
            for (pi, partition) in [false, true].into_iter().enumerate() {
                cells.push(CellSpec {
                    name: names[li][ci * 2 + pi],
                    delay: DELAY,
                    loss,
                    churn,
                    partition,
                });
            }
        }
    }
    cells
}

fn main() {
    let mut study = Study::from_args("chaos_study");
    let smoke = study.smoke();
    let replay = study.replay(INTERVAL, SEED, [2, 4], [6_000, 30_000]);
    let (runs, blocks) = (replay.runs, replay.blocks);
    let max_len = u32::try_from(seleth_bench::env_u64("SELETH_MDP_LEN", 30)).unwrap_or(30);

    let artifact = seleth_bench::load_or_solve_policy(
        "bitcoin_a040_g050",
        0.40,
        0.5,
        RewardModel::Bitcoin,
        max_len,
    );
    // Each strategy's prediction is ρ* for the solved artifact (gated at
    // the zero-delay zero-fault duopoly cell), the family's closed form
    // otherwise.
    let mut strategies = StrategyRegistry::new();
    strategies.register_artifact("bitcoin_a040_g050", artifact);
    if !smoke {
        for family in [Family::Sm1, Family::LeadStubborn { k: 2 }] {
            strategies.register_family(family, 0.35, 0.5, max_len);
        }
    }

    let cells = grid();
    let cells: Vec<CellSpec> = if smoke {
        cells
            .into_iter()
            .filter(|c| {
                matches!(
                    c.name,
                    "anchor_delay0" | "baseline" | "loss25" | "churn_partition"
                )
            })
            .collect()
    } else {
        cells
    };

    println!(
        "Chaos study: withholding under loss x churn x partitions \
         ({runs} runs x {blocks} blocks per cell, {INTERVAL}s interval, \
         {DELAY}s delay{})\n",
        if smoke { ", SMOKE" } else { "" }
    );
    println!(
        "{:>20} {:>9} {:>22} {:>9} {:>9} {:>+9} {:>8} {:>7}",
        "strategy", "split", "cell", "revenue", "std_err", "vs_rho", "orphans", "mined"
    );

    let mut series_json = Vec::new();
    for strategy in strategies.iter() {
        let (alpha, gamma) = (strategy.table.alpha(), strategy.table.gamma());
        let gated = strategy.source == StrategySource::Artifact;
        let splits: &[(&str, Vec<f64>)] = &[
            ("duopoly", vec![alpha, 1.0 - alpha]),
            ("pools2018", pools::shares_with_strategist(alpha)),
        ];
        let splits = if smoke { &splits[..1] } else { splits };

        for (split_name, shares) in splits {
            // Generous horizon for the partition schedule: mean mining
            // time plus slack (windows beyond the actual end are simply
            // never reached).
            let horizon = 2.0 * blocks as f64 * INTERVAL;
            let replay_cells: Vec<ReplayCell> = cells
                .iter()
                .map(|cell| ReplayCell {
                    faults: cell.plan(shares.len(), horizon),
                    ..ReplayCell::new(
                        vec![Arc::clone(&strategy.table)],
                        shares.clone(),
                        gamma,
                        cell.delay,
                    )
                })
                .collect();
            let results = study.sweep(&replay, &replay_cells);
            for (cell, r) in cells.iter().zip(&results) {
                println!(
                    "{:>20} {:>9} {:>22} {:>9.5} {:>9.5} {:>+9.5} {:>8.4} {:>7.4}",
                    strategy.name,
                    split_name,
                    cell.name,
                    r.mean(),
                    r.std_err(),
                    r.mean() - strategy.predicted,
                    r.orphan_rate,
                    r.mined_fraction
                );
            }

            // The anchor cell must reproduce the artifact's ρ* — the
            // fault layer's zero-fault path is the PR 3 delay engine.
            if gated && *split_name == "duopoly" {
                let anchor = &results[0];
                assert!(cells[0].zero_fault() && cells[0].delay == 0.0);
                let tolerance = study.tolerance(anchor.std_err());
                if (anchor.mean() - strategy.predicted).abs() > tolerance {
                    study.fail(&format!(
                        "{}: anchor revenue {:.5} vs rho* {:.5} exceeds \
                         tolerance {tolerance:.5}",
                        strategy.name,
                        anchor.mean(),
                        strategy.predicted
                    ));
                }
            }

            let head = format!(
                "    {{\n      \"strategy\": \"{}\",\n      \
                 \"split\": \"{split_name}\",\n      \"alpha\": {},\n      \
                 \"gamma\": {},\n      \"rho_star\": {},\n      \"gated\": {},\n      \
                 \"shares\": [{}],\n      \"cells\": [\n",
                strategy.name,
                json_f64(alpha),
                json_f64(gamma),
                json_f64(strategy.predicted),
                gated && *split_name == "duopoly",
                json_f64_list(shares),
            );
            let rows = cells.iter().zip(&results).map(|(cell, r)| {
                format!(
                    "        {{\"cell\": \"{}\", \"delay\": {}, \"loss\": {}, \
                         \"churn\": {}, \"partition\": {}, \"revenue\": {}, \
                         \"std_err\": {}, \"vs_rho_star\": {}, \"orphan_rate\": {}, \
                         \"mined_fraction\": {}}}",
                    cell.name,
                    json_f64(cell.delay),
                    json_f64(cell.loss),
                    cell.churn,
                    cell.partition,
                    json_f64(r.mean()),
                    json_f64(r.std_err()),
                    json_f64(r.mean() - strategy.predicted),
                    json_f64(r.orphan_rate),
                    json_f64(r.mined_fraction)
                )
            });
            series_json.push(json_block(head, rows));
        }
    }

    let fields = format!(
        "  \"interval\": {},\n  \"delay\": {},\n  \"runs\": {runs},\n  \
         \"blocks\": {blocks},\n  \"seed\": {SEED},\n  \"fault_seed\": {FAULT_SEED},\n  \
         \"churn_mean_uptime\": {},\n  \"churn_mean_downtime\": {},\n  \
         \"partition_every\": {},\n  \"partition_len\": {},\n  \
         \"series\": [\n{}\n  ]",
        json_f64(INTERVAL),
        json_f64(DELAY),
        json_f64(CHURN_UPTIME),
        json_f64(CHURN_DOWNTIME),
        json_f64(PARTITION_EVERY),
        json_f64(PARTITION_LEN),
        series_json.join(",\n"),
    );
    study.finish(
        "seleth-chaos-study",
        &fields,
        "Reading: 'vs_rho' is measured strategist revenue minus the predicted\n\
         zero-delay optimum. The 'baseline' cell repeats the delay study's graceful\n\
         degradation; the loss cells test whether random message loss amplifies\n\
         withholding the way systematic delay does, and the churn/partition\n\
         cells whether the advantage collapses or degrades when the network\n\
         itself fails. 'mined' < 1 under churn: crashed hash power thins out.",
        "all gated anchor cells reproduce their recorded rho*",
        "a gated anchor cell disagrees with its recorded rho*",
    );
}
