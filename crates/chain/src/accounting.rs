//! Per-miner reward accounting over a finished block tree.
//!
//! Applies a [`RewardSchedule`] to the classification of
//! [`crate::classify`] and tallies static, uncle, and nephew rewards per
//! miner — the quantities `r_b`, `r_u`, `r_n` of Section IV-E, measured
//! instead of derived. The report also carries the block-type counts and the
//! uncle reference-distance histogram needed for the paper's Scenario 1/2
//! revenue normalizations and for Table II.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use crate::block::{BlockId, MinerId};
use crate::classify::{self, UncleEvent};
use crate::rewards::RewardSchedule;
use crate::tree::BlockTree;

/// Reward tally for a single miner.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct MinerRewards {
    /// Static rewards from regular blocks.
    pub static_reward: f64,
    /// Uncle rewards from referenced stale blocks.
    pub uncle_reward: f64,
    /// Nephew rewards from referencing uncles.
    pub nephew_reward: f64,
    /// Regular blocks mined.
    pub regular_blocks: u64,
    /// Uncle blocks mined (stale blocks that got referenced).
    pub uncle_blocks: u64,
    /// Stale, unrewarded blocks mined.
    pub stale_blocks: u64,
}

impl MinerRewards {
    /// Total reward across all three types.
    pub fn total(&self) -> f64 {
        self.static_reward + self.uncle_reward + self.nephew_reward
    }
}

/// Complete accounting of a block tree under a reward schedule.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct RewardReport {
    /// Tally per miner, in `MinerId` order (so sums over it come out the
    /// same bits on every run).
    pub per_miner: BTreeMap<MinerId, MinerRewards>,
    /// Number of regular blocks (excluding genesis).
    pub regular_count: u64,
    /// Number of uncle blocks.
    pub uncle_count: u64,
    /// Number of stale, never-rewarded blocks.
    pub stale_count: u64,
    /// Histogram of accepted reference distances: entry `d − 1` counts
    /// uncles referenced at distance `d`.
    pub distance_histogram: Vec<u64>,
}

impl RewardReport {
    /// Sum of all rewards paid out.
    pub fn total_reward(&self) -> f64 {
        self.per_miner.values().map(MinerRewards::total).sum()
    }

    /// Rewards of a single miner (zero tally if unknown).
    pub fn miner(&self, id: MinerId) -> MinerRewards {
        self.per_miner.get(&id).copied().unwrap_or_default()
    }

    /// Combined tally over any set of miners (e.g. "all honest miners").
    pub fn combined<I: IntoIterator<Item = MinerId>>(&self, ids: I) -> MinerRewards {
        let mut acc = MinerRewards::default();
        for id in ids {
            let m = self.miner(id);
            acc.static_reward += m.static_reward;
            acc.uncle_reward += m.uncle_reward;
            acc.nephew_reward += m.nephew_reward;
            acc.regular_blocks += m.regular_blocks;
            acc.uncle_blocks += m.uncle_blocks;
            acc.stale_blocks += m.stale_blocks;
        }
        acc
    }

    /// Total blocks that earned anything or not (excluding genesis).
    pub fn block_count(&self) -> u64 {
        self.regular_count + self.uncle_count + self.stale_count
    }
}

/// Account rewards for `tree` under `schedule`, given the main chain
/// (genesis → head).
///
/// Respects the schedule's maximum reference distance and per-block uncle
/// cap. Genesis earns nothing.
///
/// # Panics
///
/// Panics if `main_chain` contains ids not in the tree.
///
/// ```
/// use seleth_chain::{accounting, BlockTree, MinerId, RewardSchedule};
/// let m0 = MinerId(0);
/// let m1 = MinerId(1);
/// let mut t = BlockTree::new();
/// let a = t.add_block(t.genesis(), m0, &[]).unwrap();
/// let u = t.add_block(a, m1, &[]).unwrap();
/// let b = t.add_block(a, m0, &[]).unwrap();
/// let c = t.add_block(b, m0, &[u]).unwrap();
/// let chain = vec![t.genesis(), a, b, c];
/// let report = accounting::account(&t, &chain, &RewardSchedule::ethereum());
/// // m1's block is an uncle at distance 1 → Ku(1) = 7/8.
/// assert_eq!(report.miner(m1).uncle_reward, 7.0 / 8.0);
/// // m0 mined 3 regular blocks and the nephew reward.
/// assert_eq!(report.miner(m0).static_reward, 3.0);
/// assert_eq!(report.miner(m0).nephew_reward, 1.0 / 32.0);
/// ```
pub fn account(
    tree: &BlockTree,
    main_chain: &[BlockId],
    schedule: &RewardSchedule,
) -> RewardReport {
    let events = classify::uncle_events_with_cap(
        tree,
        main_chain,
        schedule.max_uncle_distance(),
        schedule.max_uncles_per_block(),
    );
    account_with_events(tree, main_chain, schedule, &events)
}

/// Like [`account`] but with pre-computed uncle events (avoids re-walking
/// the chain when the caller already has them).
pub fn account_with_events(
    tree: &BlockTree,
    main_chain: &[BlockId],
    schedule: &RewardSchedule,
    events: &[UncleEvent],
) -> RewardReport {
    let mut report = RewardReport::default();
    // Each block's class as an index, a main-chain block being regular
    // even if an event names it.
    let mut classes = vec![STALE; tree.len()];
    for ev in events {
        classes[ev.uncle.index()] = UNCLE;
    }
    for id in main_chain {
        classes[id.index()] = REGULAR;
    }
    // Tallies live in `Vec`s indexed by miner id, so a per-block lookup is
    // an index, not a hash. The block pass only counts blocks per miner
    // and class, without a branch on the class, which keeps the table it
    // scatters into small. A `u32` holds any count, since block ids are
    // `u32`s.
    let mut blocks: Tally<[u32; 3]> = Tally::new(tree.len());
    let mut totals = [0u64; 3];
    // Genesis comes first and earns nothing.
    for (block, &class) in tree.iter().zip(&classes).skip(1) {
        blocks.entry(block.miner())[usize::from(class)] += 1;
        totals[usize::from(class)] += 1;
    }
    [report.regular_count, report.uncle_count, report.stale_count] = totals;

    // Each miner's sums follow block and event order whatever the
    // container, so the bits match a tally in any other container. A
    // miner's static reward adds the same value once per regular block,
    // which gives the same bits whichever blocks those are.
    let static_reward = schedule.static_reward();
    let mut per_miner = blocks.map(|[regular, uncle, stale]| {
        let mut rewards = MinerRewards {
            regular_blocks: regular.into(),
            uncle_blocks: uncle.into(),
            stale_blocks: stale.into(),
            ..MinerRewards::default()
        };
        for _ in 0..regular {
            rewards.static_reward += static_reward;
        }
        rewards
    });
    for ev in events {
        let uncle_miner = tree.block(ev.uncle).miner();
        let nephew_miner = tree.block(ev.nephew).miner();
        per_miner.entry(uncle_miner).uncle_reward += schedule.uncle_reward(ev.distance);
        per_miner.entry(nephew_miner).nephew_reward += schedule.nephew_reward(ev.distance);
        let d = ev.distance as usize;
        if report.distance_histogram.len() < d {
            report.distance_histogram.resize(d, 0);
        }
        report.distance_histogram[d - 1] += 1;
    }
    report.per_miner = per_miner.into_map();
    report
}

/// Indices of the per-class block counts.
const REGULAR: u8 = 0;
const UNCLE: u8 = 1;
const STALE: u8 = 2;

/// Per-miner values: ids below `dense_limit` index a `Vec` that grows to
/// the largest such id seen, and the rest go to a map. With the limit at
/// the tree's size, memory stays O(tree size) whatever the id values.
struct Tally<T> {
    dense_limit: usize,
    dense: Vec<Option<T>>,
    spill: BTreeMap<MinerId, T>,
}

impl<T: Clone + Default> Tally<T> {
    fn new(dense_limit: usize) -> Self {
        Tally {
            dense_limit,
            dense: Vec::new(),
            spill: BTreeMap::new(),
        }
    }

    /// The miner's value, created as the default on first use.
    #[inline]
    fn entry(&mut self, id: MinerId) -> &mut T {
        let i = id.0 as usize;
        if i >= self.dense_limit {
            return self.spill.entry(id).or_default();
        }
        if i >= self.dense.len() {
            self.dense.resize(i + 1, None);
        }
        self.dense[i].get_or_insert_with(T::default)
    }

    /// The same miners, each value passed through `f`.
    fn map<U>(self, mut f: impl FnMut(T) -> U) -> Tally<U> {
        Tally {
            dense_limit: self.dense_limit,
            dense: self.dense.into_iter().map(|v| v.map(&mut f)).collect(),
            spill: self.spill.into_iter().map(|(id, v)| (id, f(v))).collect(),
        }
    }

    /// Every miner used, in `MinerId` order: dense ids all lie below the
    /// spilled ones, so the chain is already sorted.
    fn into_map(self) -> BTreeMap<MinerId, T> {
        self.dense
            .into_iter()
            .enumerate()
            .filter_map(|(i, m)| Some((MinerId(i as u32), m?)))
            .chain(self.spill)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rewards::RewardSchedule;

    /// A fork where miner 1's block is orphaned and referenced.
    fn forked() -> (BlockTree, Vec<BlockId>) {
        let mut t = BlockTree::new();
        let a = t.add_block(t.genesis(), MinerId(0), &[]).unwrap();
        let u = t.add_block(a, MinerId(1), &[]).unwrap();
        let b = t.add_block(a, MinerId(0), &[]).unwrap();
        let c = t.add_block(b, MinerId(0), &[u]).unwrap();
        let chain = vec![t.genesis(), a, b, c];
        (t, chain)
    }

    #[test]
    fn counts_partition_blocks() {
        let (t, chain) = forked();
        let r = account(&t, &chain, &RewardSchedule::ethereum());
        assert_eq!(r.regular_count, 3);
        assert_eq!(r.uncle_count, 1);
        assert_eq!(r.stale_count, 0);
        assert_eq!(r.block_count(), 4);
        assert_eq!(r.distance_histogram, vec![1]);
    }

    #[test]
    fn bitcoin_schedule_pays_no_uncles() {
        let (t, chain) = forked();
        let r = account(&t, &chain, &RewardSchedule::bitcoin());
        assert_eq!(r.miner(MinerId(1)).total(), 0.0);
        assert_eq!(r.miner(MinerId(0)).total(), 3.0);
        // The orphan is plain stale under Bitcoin rules (distance cap 0).
        assert_eq!(r.uncle_count, 0);
        assert_eq!(r.stale_count, 1);
    }

    #[test]
    fn total_reward_is_sum_of_parts() {
        let (t, chain) = forked();
        let r = account(&t, &chain, &RewardSchedule::ethereum());
        let expected = 3.0 + 7.0 / 8.0 + 1.0 / 32.0;
        assert!((r.total_reward() - expected).abs() < 1e-12);
    }

    #[test]
    fn combined_aggregates_miners() {
        let (t, chain) = forked();
        let r = account(&t, &chain, &RewardSchedule::ethereum());
        let both = r.combined([MinerId(0), MinerId(1)]);
        assert!((both.total() - r.total_reward()).abs() < 1e-12);
        assert_eq!(both.regular_blocks, 3);
        assert_eq!(both.uncle_blocks, 1);
    }

    #[test]
    fn uncle_cap_limits_references() {
        // Three stale siblings, one nephew referencing all three.
        let mut t = BlockTree::new();
        let a = t.add_block(t.genesis(), MinerId(0), &[]).unwrap();
        let u1 = t.add_block(a, MinerId(1), &[]).unwrap();
        let u2 = t.add_block(a, MinerId(1), &[]).unwrap();
        let u3 = t.add_block(a, MinerId(1), &[]).unwrap();
        let b = t.add_block(a, MinerId(0), &[]).unwrap();
        let c = t.add_block(b, MinerId(0), &[u1, u2, u3]).unwrap();
        let chain = vec![t.genesis(), a, b, c];

        let unlimited = account(&t, &chain, &RewardSchedule::ethereum());
        assert_eq!(unlimited.uncle_count, 3);

        let capped = account(&t, &chain, &RewardSchedule::ethereum_capped());
        assert_eq!(capped.uncle_count, 2);
        assert_eq!(capped.stale_count, 1);
        assert!((capped.miner(MinerId(0)).nephew_reward - 2.0 / 32.0).abs() < 1e-12);
    }

    #[test]
    fn dense_and_spilled_miner_ids_match_a_map_tally() {
        // 41 blocks with genesis: ids up to 40 are tallied densely, the
        // rest spill. Every fourth block is a sibling of the tip, and most
        // of those get referenced by the next chain block.
        let ids = [0, 3, 40, 41, 7, 1_000_000, u32::MAX - 1].map(MinerId);
        let mut t = BlockTree::new();
        let mut tip = t.genesis();
        let mut orphan = None;
        for i in 0..40 {
            let miner = ids[i % ids.len()];
            if i % 4 == 3 {
                let parent = t.block(tip).parent().unwrap_or(tip);
                orphan = Some(t.add_block(parent, miner, &[]).unwrap());
            } else if i % 8 == 4 {
                tip = t.add_block(tip, miner, &[]).unwrap();
            } else {
                let refs: Vec<BlockId> = orphan.take().into_iter().collect();
                tip = t.add_block(tip, miner, &refs).unwrap();
            }
        }
        assert_eq!(t.len(), 41);
        let chain = t.path_from_genesis(tip);
        let schedule = RewardSchedule::ethereum();
        let report = account(&t, &chain, &schedule);

        // Reference tally through a map, from the classification.
        let classes = classify::classify(&t, &chain, schedule.max_uncle_distance());
        let mut want: BTreeMap<MinerId, MinerRewards> = BTreeMap::new();
        for (block, class) in t.iter().zip(&classes).skip(1) {
            let m = want.entry(block.miner()).or_default();
            match class {
                classify::BlockClass::Regular => {
                    m.static_reward += schedule.static_reward();
                    m.regular_blocks += 1;
                }
                classify::BlockClass::Uncle { .. } => m.uncle_blocks += 1,
                classify::BlockClass::Stale => m.stale_blocks += 1,
            }
        }
        let events = classify::uncle_events(&t, &chain, schedule.max_uncle_distance());
        for ev in &events {
            want.entry(t.block(ev.uncle).miner())
                .or_default()
                .uncle_reward += schedule.uncle_reward(ev.distance);
            want.entry(t.block(ev.nephew).miner())
                .or_default()
                .nephew_reward += schedule.nephew_reward(ev.distance);
        }
        assert!(report.uncle_count > 0 && report.stale_count > 0);
        assert_eq!(want.len(), ids.len());
        assert_eq!(report.per_miner, want);
    }

    #[test]
    fn unknown_miner_reports_zero() {
        let (t, chain) = forked();
        let r = account(&t, &chain, &RewardSchedule::ethereum());
        assert_eq!(r.miner(MinerId(99)), MinerRewards::default());
    }
}
