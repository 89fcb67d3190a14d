//! `engine_eth`: the paper's Section V simulator (999 honest miners plus
//! the pool, γ = 0.5, Ethereum rewards with the protocol's two-uncle cap)
//! at a fixed block budget per op.

use std::collections::BTreeMap;

use seleth_chain::accounting::account_with_events;
use seleth_chain::classify::uncle_events_with_cap;
use seleth_chain::forkchoice::{longest_chain, TieBreak};
use seleth_chain::{BlockTree, RewardSchedule, Scenario};
use seleth_core::{Analysis, ModelParams};
use seleth_mdp::PolicyTable;
use seleth_sim::{PoolStrategy, SimConfig, SimReport, Simulation};

use crate::ops::{decide_everywhere, derive, grid, zigzag, Counts, Workload};
use crate::trace::Tracer;

/// Ops per list: every fourth replays the Ethereum artifact.
const OPS: usize = 120;
const ARTIFACT_EVERY: usize = 4;
/// Blocks mined per op.
const BLOCKS: u64 = 20_000;
/// Honest miners besides the pool (the paper's n = 1000).
const HONEST: u32 = 999;
const GAMMA: f64 = 0.5;
/// The Algorithm 1 α grid.
const ALPHA_LO: f64 = 0.10;
const ALPHA_HI: f64 = 0.45;
const ALPHA_POINTS: usize = 8;
/// The replayed artifact and its design point.
const ARTIFACT: &str = "ethereum_a030_g050";
/// `Simulation::step` calls per span in the traced run.
const STEP_BATCH: u64 = 1_000;
/// Largest accepted gap between one op's pool revenue `U_s` (per regular
/// block) and the model's prediction. At 20k blocks the per-op standard
/// deviation grows with α to about 0.013 at α = 0.45; 0.1 keeps a correct
/// engine from failing by chance over thousands of ops.
const REVENUE_TOLERANCE: f64 = 0.1;

#[derive(Debug, Clone, Copy)]
struct Op {
    /// Index into the α grid; `None` replays the artifact.
    alpha: Option<usize>,
    seed: u64,
}

/// The `engine_eth` workload.
pub struct EngineEth {
    alphas: Vec<f64>,
    selfish: Vec<SimConfig>,
    artifact: SimConfig,
    artifact_revenue: f64,
    table: PolicyTable,
    ops: Vec<Op>,
    /// Model revenue per α grid point, solved before the warm-up op.
    expected: Vec<f64>,
}

fn schedule() -> RewardSchedule {
    RewardSchedule::ethereum_capped()
}

impl EngineEth {
    /// Build the configurations and the op list for `seed`.
    pub fn setup(artifacts: &BTreeMap<&str, PolicyTable>, seed: u64) -> Result<Self, String> {
        let table = artifacts
            .get(ARTIFACT)
            .cloned()
            .ok_or_else(|| format!("artifact {ARTIFACT} missing"))?;
        let base = || {
            let mut b = SimConfig::builder();
            b.gamma(GAMMA)
                .n_honest(HONEST)
                .blocks(BLOCKS)
                .schedule(schedule());
            b
        };
        let alphas = grid(ALPHA_LO, ALPHA_HI, ALPHA_POINTS);
        let selfish = alphas
            .iter()
            .map(|&a| {
                base()
                    .alpha(a)
                    .strategy(PoolStrategy::Selfish)
                    .build()
                    .map_err(|e| e.to_string())
            })
            .collect::<Result<Vec<_>, _>>()?;
        let artifact = base()
            .alpha(table.alpha())
            .policy(table.clone())
            .build()
            .map_err(|e| e.to_string())?;
        let mut order = zigzag(ALPHA_POINTS, seed).into_iter().cycle();
        let ops = (0..OPS)
            .map(|i| Op {
                alpha: (i % ARTIFACT_EVERY != ARTIFACT_EVERY - 1)
                    .then(|| order.next().unwrap_or(0)),
                seed: derive(seed, 1, i as u64),
            })
            .collect();
        Ok(EngineEth {
            alphas,
            selfish,
            artifact,
            artifact_revenue: table.predicted_revenue(),
            table,
            ops,
            expected: Vec::new(),
        })
    }
}

impl Workload for EngineEth {
    type Output = (Simulation, SimReport);

    fn len(&self) -> usize {
        self.ops.len()
    }

    fn blocks_per_op(&self) -> u64 {
        BLOCKS
    }

    /// Solve the Markov model at every grid point, in grid order whatever
    /// the seed, so the heap (and `peak_rss_mb`) does not depend on it.
    fn prepare(&mut self) -> Result<(), String> {
        self.expected = self
            .alphas
            .iter()
            .map(|&a| {
                let params = ModelParams::new(a, GAMMA, schedule()).map_err(|e| e.to_string())?;
                Ok(Analysis::new(&params)
                    .map_err(|e| e.to_string())?
                    .revenue()
                    .absolute_pool(Scenario::RegularRate))
            })
            .collect::<Result<_, String>>()?;
        Ok(())
    }

    fn run(&mut self, i: usize, tr: &mut Tracer) -> Result<Self::Output, String> {
        let op = self.ops[i];
        let config = match op.alpha {
            Some(a) => &self.selfish[a],
            None => &self.artifact,
        }
        .with_seed(op.seed);
        Ok(tr.span("bench.op", |tr| {
            let mut sim = tr.span("sim.engine.new", |_| Simulation::new(config));
            let mut left = BLOCKS;
            while left > 0 {
                let n = left.min(STEP_BATCH);
                tr.span("sim.engine.step", |_| {
                    for _ in 0..n {
                        sim.step();
                    }
                });
                left -= n;
            }
            // Every block is already mined, so this is exactly the
            // engine's `finalize` (fork choice, classify, account), but it
            // borrows and leaves the tree readable for the checks.
            let report = tr.span("sim.engine.finalize", |_| sim.run_in_place());
            (sim, report)
        }))
    }

    fn check(&mut self, i: usize, (sim, report): &Self::Output) -> Result<(), String> {
        let s = schedule();
        let cap = s.max_uncles_per_block().unwrap_or(usize::MAX);
        audit_uncles(sim.tree(), s.max_uncle_distance(), cap)?;
        if report.blocks_mined != BLOCKS {
            return Err(format!("mined {} of {BLOCKS} blocks", report.blocks_mined));
        }
        let (alpha, want) = match self.ops[i].alpha {
            Some(a) => (self.alphas[a], self.expected[a]),
            None => (self.table.alpha(), self.artifact_revenue),
        };
        let got = report.absolute_pool(Scenario::RegularRate);
        if (got - want).abs() > REVENUE_TOLERANCE {
            return Err(format!(
                "alpha {alpha}: pool revenue {got:.4} vs predicted {want:.4}"
            ));
        }
        Ok(())
    }

    fn probe(&mut self, i: usize, (sim, report): &Self::Output, tr: &mut Tracer, c: &mut Counts) {
        let tree = sim.tree();
        let s = schedule();
        let chain = tr.span("chain.forkchoice.longest_chain", |_| {
            longest_chain(tree, TieBreak::FirstSeen)
        });
        let events = tr.span("chain.classify.uncle_events", |_| {
            uncle_events_with_cap(
                tree,
                &chain,
                s.max_uncle_distance(),
                s.max_uncles_per_block(),
            )
        });
        let rewards = tr.span("chain.accounting.account", |_| {
            account_with_events(tree, &chain, &s, &events)
        });
        std::hint::black_box(rewards);
        c.chain_tree_blocks += tree.len() as u64 - 1;
        c.engine_blocks += BLOCKS;
        c.chain_blocks += report.blocks_mined;
        c.chain_uncle_refs += report.reward_report.uncle_count;
        if self.ops[i].alpha.is_none() {
            let (calls, digest) = tr.span("mdp.policy.decide", |_| decide_everywhere(&self.table));
            std::hint::black_box(digest);
            c.decide_calls += calls;
        }
    }
}

/// Ethereum's uncle rule, audited over the canonical chain (highest block,
/// first seen on ties) through public `BlockTree` accessors alone: at most
/// `cap` uncles per block, each at distance `1..=max_distance`, off the
/// chain with its parent on it, and included at most once.
pub fn audit_uncles(tree: &BlockTree, max_distance: u64, cap: usize) -> Result<(), String> {
    let head = tree.iter().fold(tree.genesis(), |best, b| {
        if b.height() > tree.height(best) {
            b.id()
        } else {
            best
        }
    });
    let mut on_chain = vec![false; tree.len()];
    let mut chain = Vec::new();
    let mut cursor = Some(head);
    while let Some(id) = cursor {
        on_chain[id.index()] = true;
        chain.push(id);
        cursor = tree.block(id).parent();
    }
    let mut included = vec![false; tree.len()];
    for &nephew in chain.iter().rev() {
        let block = tree.block(nephew);
        let refs = block.uncle_refs();
        if refs.len() > cap {
            return Err(format!(
                "block {} references {} uncles",
                nephew.index(),
                refs.len()
            ));
        }
        for &uncle in refs {
            let u = tree.block(uncle);
            let parent_on_chain = u.parent().is_some_and(|p| on_chain[p.index()]);
            let distance = block.height().saturating_sub(u.height());
            let why = if on_chain[uncle.index()] {
                "is on the main chain"
            } else if !parent_on_chain {
                "has its parent off the main chain"
            } else if distance == 0 || distance > max_distance {
                "is out of reference distance"
            } else if included[uncle.index()] {
                "is included twice"
            } else {
                included[uncle.index()] = true;
                continue;
            };
            return Err(format!(
                "uncle {} of block {} {why}",
                uncle.index(),
                nephew.index()
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use seleth_chain::MinerId;

    #[test]
    fn audit_rejects_each_broken_rule() {
        let m = MinerId(1);
        let mut t = BlockTree::new();
        let g = t.genesis();
        let a = t.add_block(g, m, &[]).unwrap();
        let u1 = t.add_block(a, m, &[]).unwrap();
        let u2 = t.add_block(a, m, &[]).unwrap();
        let u3 = t.add_block(a, m, &[]).unwrap();
        let b = t.add_block(a, m, &[]).unwrap();
        let c = t.add_block(b, m, &[u1, u2]).unwrap();
        assert_eq!(audit_uncles(&t, 6, 2), Ok(()));

        let mut too_many = t.clone();
        too_many.add_block(c, m, &[u1, u2, u3]).unwrap();
        assert!(audit_uncles(&too_many, 6, 8).is_err(), "double inclusion");
        let mut capped = t.clone();
        capped.add_block(c, m, &[u3]).unwrap();
        assert_eq!(audit_uncles(&capped, 6, 2), Ok(()));
        let mut over_cap = t.clone();
        let d = over_cap.add_block(c, m, &[]).unwrap();
        let x = over_cap.add_block(d, m, &[]).unwrap();
        let y = over_cap.add_block(d, m, &[]).unwrap();
        let z = over_cap.add_block(d, m, &[]).unwrap();
        let e = over_cap.add_block(d, m, &[]).unwrap();
        over_cap.add_block(e, m, &[x, y, z]).unwrap();
        assert!(audit_uncles(&over_cap, 6, 2).is_err(), "three uncles");
        assert!(audit_uncles(&capped, 1, 2).is_err(), "distance 2 beyond 1");
    }
}
