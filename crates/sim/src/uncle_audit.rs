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
//! - **Executor anchors** pin the adopt/override/match executor both
//!   engines share ([`crate::fork::PrivateFork`]): engine table playback
//!   and the hand-coded paths (tree, reward bits, state visits), and
//!   delay-engine strategists under crash resyncs, forced adopts and a
//!   two-cluster graph (tree, reward bits, action counters). They were
//!   recorded while each engine still ran its own copy of the executor.
//! - **A consensus-rule audit** replays the accounting-time validator
//!   ([`uncle_events_with_cap`]) over random trees from both engines:
//!   every reference a main-chain header carries must be one the
//!   validator accepts.

use std::collections::HashMap;
use std::path::PathBuf;

use proptest::prelude::*;

use seleth_chain::classify::uncle_events_with_cap;
use seleth_chain::forkchoice::{longest_chain, TieBreak};
use seleth_chain::{BlockTree, RewardSchedule};
use seleth_mdp::PolicyTable;
use seleth_net::Topology;

use crate::delay::tests::{mined_tree, sm1_table};
use crate::delay::{DelayConfig, DelaySimulation};
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

/// A committed policy artifact from `results/policies`.
fn artifact(name: &str) -> PolicyTable {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../results/policies")
        .join(format!("{name}.json"));
    PolicyTable::load(&path).unwrap()
}

/// FNV-1a over `state_visits` in state order.
fn visits_digest(visits: &HashMap<(u32, u32), u64>) -> u64 {
    let mut sorted: Vec<_> = visits.iter().collect();
    sorted.sort_unstable();
    let mut hash = 0xcbf2_9ce4_8422_2325_u64;
    for (&(a, h), &n) in sorted {
        for x in [u64::from(a), u64::from(h), n] {
            hash = (hash ^ x).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

/// One engine run under Ethereum rewards with 99 honest miners and 30k
/// blocks: tree digest, pool and total reward bits, state-visit digest.
fn engine_anchor(alpha: f64, strategy: Result<PolicyTable, PoolStrategy>) -> [u64; 5] {
    let mut builder = SimConfig::builder();
    builder
        .alpha(alpha)
        .gamma(0.5)
        .n_honest(99)
        .blocks(30_000)
        .seed(23)
        .schedule(RewardSchedule::ethereum());
    match strategy {
        Ok(table) => builder.policy(table),
        Err(hand_coded) => builder.strategy(hand_coded),
    };
    let mut sim = Simulation::new(builder.build().unwrap());
    let report = sim.run_in_place();
    let (tree, refs) = tree_digest(sim.tree());
    [
        tree,
        refs as u64,
        report.pool.total().to_bits(),
        report.reward_report.total_reward().to_bits(),
        visits_digest(&report.state_visits),
    ]
}

/// One delay run: tree digest, miner 0 and total reward bits, then the
/// adopt, override, match, forced-adopt, crash-resync and released-block
/// counters.
fn delay_anchor(config: DelayConfig) -> [u64; 10] {
    let (tree, refs) = tree_digest(&mined_tree(config.clone()));
    let r = DelaySimulation::new(config).run();
    let c = r.counters;
    [
        tree,
        refs as u64,
        r.miner(0).total().to_bits(),
        r.report.total_reward().to_bits(),
        c.adopts,
        c.overrides,
        c.matches,
        c.forced_adopts,
        c.crash_resyncs,
        c.released_blocks,
    ]
}

#[test]
fn engine_executor_matches_its_anchors() {
    let sm1 = engine_anchor(0.35, Ok(sm1_table(0.35, 0.5, 12)));
    let eth = engine_anchor(0.30, Ok(artifact("ethereum_a030_g050")));
    let aware = engine_anchor(0.40, Ok(artifact("bitcoin_a040_g050_d6")));
    let stubborn = engine_anchor(0.35, Err(PoolStrategy::LeadStubborn));
    let selfish = engine_anchor(0.35, Err(PoolStrategy::Selfish));
    assert_eq!(
        sm1,
        [
            0xe5f_1717_10d9_1b49,
            5958,
            0x40c3_03a0_0000_0000,
            0x40da_7890_0000_0000,
            0xf23d_6707_be4a_4ab9
        ]
    );
    assert_eq!(
        eth,
        [
            0x636e_4a3c_3d75_fba7,
            10898,
            0x40c0_6f24_0000_0000,
            0x40d9_d526_0000_0000,
            0x1810_c79a_0421_5cbc
        ]
    );
    assert_eq!(
        aware,
        [
            0xc918_c9e8_a612_eeee,
            16911,
            0x40c6_691c_0000_0000,
            0x40d6_729a_0000_0000,
            0x64d3_cc17_a075_3474
        ]
    );
    assert_eq!(
        stubborn,
        [
            0x22e5_d2f7_47e1_1009,
            13879,
            0x40c3_0e98_0000_0000,
            0x40d8_5b28_0000_0000,
            0x6802_508d_870a_e168
        ]
    );
    assert_eq!(
        selfish,
        [
            0x8dc0_cee2_3131_fbfc,
            9742,
            0x40c4_35c4_0000_0000,
            0x40db_1110_0000_0000,
            0xbd8d_aa80_d591_dec1
        ]
    );
}

#[test]
fn delay_executor_matches_its_anchors() {
    let base = |shares: Vec<f64>| {
        let mut b = DelayConfig::builder();
        b.shares(shares)
            .tie_gamma(0.5)
            .blocks(12_000)
            .seed(29)
            .schedule(RewardSchedule::ethereum());
        b
    };
    // Two rival SM1 strategists; the first is down for a window and
    // rejoins through the crash resync.
    let downtime = FaultPlan::builder()
        .downtime(0, 20_000.0, 40_000.0)
        .build()
        .unwrap();
    let rivals = delay_anchor(
        base(vec![0.3, 0.3, 0.4])
            .policy(0, sm1_table(0.3, 0.5, 12))
            .policy(1, sm1_table(0.3, 0.5, 12))
            .delay(2.0)
            .faults(downtime)
            .build()
            .unwrap(),
    );
    // Loss, jitter and duplication let below-epoch branches catch up:
    // forced adopts.
    let lossy = FaultPlan::builder()
        .loss(0.3)
        .duplication(0.2)
        .jitter(3.0)
        .seed(5)
        .build()
        .unwrap();
    let forced = delay_anchor(
        base(vec![0.3, 0.35, 0.35])
            .policy(0, artifact("ethereum_a030_g050"))
            .delay(3.0)
            .faults(lossy)
            .build()
            .unwrap(),
    );
    let clusters = delay_anchor(
        base(vec![0.4, 0.2, 0.2, 0.2])
            .policy(0, artifact("bitcoin_a040_g050_d6"))
            .delay(6.0)
            .topology(Topology::two_clusters(2, 2, 1.5, 6.0).unwrap())
            .build()
            .unwrap(),
    );
    assert_eq!(
        rivals,
        [
            0x2423_05bb_f67d_b2c9,
            4176,
            0x409f_a500_0000_0000,
            0x40bf_3550_0000_0000,
            4362,
            1615,
            1460,
            1088,
            1,
            9951
        ]
    );
    assert_eq!(
        forced,
        [
            0x84ae_6d6b_840f_495a,
            4917,
            0x40a5_f280_0000_0000,
            0x40c3_3050_0000_0000,
            3610,
            188,
            3038,
            199,
            0,
            11820
        ]
    );
    assert_eq!(
        clusters,
        [
            0xb3f5_325d_5263_1db7,
            6483,
            0x40ad_58d0_0000_0000,
            0x40bf_16a8_0000_0000,
            1252,
            44,
            4015,
            134,
            0,
            11345
        ]
    );
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
