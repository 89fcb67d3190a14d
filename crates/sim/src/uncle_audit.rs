//! The uncle rule over whole simulator trees.
//!
//! Two checks cover the mining-time selector that both engines share:
//!
//! - **Whole-tree anchors** hash every block's `(parent, miner,
//!   uncle_refs)` in id order for fixed runs of both engines, so a change
//!   to which references a miner picks shows up even when reward totals
//!   happen to agree. They were recorded while each engine still ran its
//!   own copy of the selection walk, so they also pin that the shared
//!   [`seleth_chain::classify::select_uncles`] picks the same lists.
//! - **A consensus-rule audit** replays the accounting-time validator
//!   ([`uncle_events_with_cap`]) over random trees from both engines:
//!   every reference a main-chain header carries must be one the
//!   validator accepts.

use proptest::prelude::*;

use seleth_chain::classify::uncle_events_with_cap;
use seleth_chain::forkchoice::{longest_chain, TieBreak};
use seleth_chain::{BlockTree, RewardSchedule};
use seleth_net::Topology;

use crate::delay::tests::{mined_tree, sm1_table};
use crate::delay::DelayConfig;
use crate::{FaultPlan, PoolStrategy, SimConfig, Simulation};

/// FNV-1a over every block's parent, miner and reference list, in id
/// order, plus the total number of references.
fn tree_digest(tree: &BlockTree) -> (u64, usize) {
    let mut hash = 0xcbf2_9ce4_8422_2325_u64;
    let mut mix = |x: u64| hash = (hash ^ x).wrapping_mul(0x0000_0100_0000_01b3);
    let mut refs = 0;
    for block in tree.iter() {
        mix(block.parent().map_or(u64::MAX, |p| p.index() as u64));
        mix(u64::from(block.miner().0));
        mix(block.uncle_refs().len() as u64);
        for r in block.uncle_refs() {
            mix(r.index() as u64);
        }
        refs += block.uncle_refs().len();
    }
    (hash, refs)
}

/// The largest reference distance any block in the tree uses.
fn deepest_reference(tree: &BlockTree) -> u64 {
    tree.iter()
        .flat_map(|b| b.uncle_refs().iter().map(|&u| b.height() - tree.height(u)))
        .max()
        .unwrap_or(0)
}

fn engine_tree(
    schedule: RewardSchedule,
    strategy: PoolStrategy,
    alpha: f64,
    n_honest: u32,
    blocks: u64,
    seed: u64,
) -> BlockTree {
    let config = SimConfig::builder()
        .alpha(alpha)
        .gamma(0.5)
        .strategy(strategy)
        .n_honest(n_honest)
        .blocks(blocks)
        .seed(seed)
        .schedule(schedule)
        .build()
        .unwrap();
    let mut sim = Simulation::new(config);
    sim.run_in_place();
    sim.tree().clone()
}

/// A four-miner delay network whose first miner replays SM1 at share
/// `alpha`, optionally over a two-cluster graph and under a fault plan.
fn delay_tree(
    schedule: RewardSchedule,
    alpha: f64,
    graph: bool,
    faults: Option<FaultPlan>,
    blocks: u64,
    seed: u64,
) -> BlockTree {
    let rest = (1.0 - alpha) / 3.0;
    let mut builder = DelayConfig::builder();
    builder
        .shares(vec![alpha, rest, rest, 1.0 - alpha - 2.0 * rest])
        .policy(0, sm1_table(alpha, 0.5, 12))
        .tie_gamma(0.5)
        .delay(6.0)
        .blocks(blocks)
        .seed(seed)
        .schedule(schedule);
    if graph {
        builder.topology(Topology::two_clusters(2, 2, 1.5, 6.0).unwrap());
    }
    if let Some(plan) = faults {
        builder.faults(plan);
    }
    mined_tree(builder.build().unwrap())
}

fn partition() -> FaultPlan {
    FaultPlan::builder()
        .partition(20_000.0, 50_000.0, vec![0, 0, 1, 1])
        .seed(5)
        .build()
        .unwrap()
}

#[test]
fn engine_trees_match_their_anchors() {
    let eth = engine_tree(
        RewardSchedule::ethereum(),
        PoolStrategy::Selfish,
        0.35,
        99,
        20_000,
        11,
    );
    assert_eq!(tree_digest(&eth), (0x5ffd_3644_c1a0_104e, 6258));
    let capped = engine_tree(
        RewardSchedule::ethereum_capped(),
        PoolStrategy::Selfish,
        0.35,
        99,
        20_000,
        11,
    );
    assert_eq!(tree_digest(&capped), (0xfc90_cf8e_3900_8f7e, 6116));
    // α = 0.45 grows private leads long enough to reach past Ethereum's
    // six-block window.
    let unbounded = engine_tree(
        RewardSchedule::fixed_uncle_unbounded(0.5),
        PoolStrategy::Selfish,
        0.45,
        99,
        20_000,
        13,
    );
    assert_eq!(tree_digest(&unbounded), (0xeeaf_abaf_bcce_0edf, 14164));
    assert_eq!(deepest_reference(&unbounded), 24);
}

#[test]
fn delay_trees_match_their_anchors() {
    let eth = RewardSchedule::ethereum;
    let uniform = delay_tree(eth(), 0.35, false, None, 6_000, 17);
    assert_eq!(tree_digest(&uniform), (0x85da_f7bf_a47d_c4af, 2287));
    let graph = delay_tree(eth(), 0.35, true, None, 6_000, 17);
    assert_eq!(tree_digest(&graph), (0x2904_a60d_87e1_469b, 2148));
    let cut = delay_tree(eth(), 0.35, false, Some(partition()), 6_000, 17);
    assert_eq!(tree_digest(&cut), (0x801d_b661_4dec_357a, 1737));
}

/// Check every main-chain header of `tree` against `schedule`'s uncle
/// rule, with the accounting-time validator as the oracle.
fn audit(tree: &BlockTree, schedule: &RewardSchedule) -> Result<(), TestCaseError> {
    let max_d = schedule.max_uncle_distance();
    let cap = schedule.max_uncles_per_block();
    let chain = longest_chain(tree, TieBreak::FirstSeen);
    let accepted = uncle_events_with_cap(tree, &chain, max_d, cap).len();
    let mut included = vec![false; tree.len()];
    let mut carried = 0;
    for &nephew in &chain {
        let header = tree.block(nephew).uncle_refs();
        prop_assert!(cap.is_none_or(|c| header.len() <= c), "over the cap");
        for &uncle in header {
            let d = tree.height(nephew).saturating_sub(tree.height(uncle));
            prop_assert!((1..=max_d).contains(&d), "distance {} of {}", d, max_d);
            prop_assert!(!included[uncle.index()], "uncle included twice");
            included[uncle.index()] = true;
        }
        carried += header.len();
    }
    prop_assert_eq!(accepted, carried, "the validator rejects a reference");
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every reference either engine writes into a main-chain header is
    /// one the validator accepts, under capped, uncapped and 64-deep
    /// rules, on uniform and graph networks, with and without faults.
    #[test]
    fn simulator_trees_obey_the_uncle_rule(
        engine in 0usize..5,
        rules in 0usize..3,
        alpha in 0.05f64..0.45,
        seed in any::<u64>(),
    ) {
        let schedule = [
            RewardSchedule::ethereum(),
            RewardSchedule::ethereum_capped(),
            RewardSchedule::fixed_uncle_unbounded(0.5),
        ][rules]
            .clone();
        let s = schedule.clone();
        let tree = match engine {
            0 => engine_tree(s, PoolStrategy::Selfish, alpha, 15, 1_500, seed),
            1 => engine_tree(s, PoolStrategy::LeadStubborn, alpha, 15, 1_500, seed),
            2 => delay_tree(s, alpha, false, None, 1_500, seed),
            3 => delay_tree(s, alpha, true, None, 1_500, seed),
            _ => {
                let plan = FaultPlan::builder()
                    .loss(0.1)
                    .partition(5_000.0, 12_000.0, vec![0, 0, 1, 1])
                    .seed(seed)
                    .build()
                    .unwrap();
                delay_tree(s, alpha, seed % 2 == 0, Some(plan), 1_500, seed)
            }
        };
        audit(&tree, &schedule)?;
    }
}
