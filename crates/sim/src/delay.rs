//! Propagation-delay simulator — honest networks *and* strategic playback.
//!
//! Section VI of the paper recalls that uncle and nephew rewards were
//! introduced to counter *centralization bias*: with real propagation
//! delay, large miners hear about their own blocks instantly and therefore
//! orphan fewer of them, earning a super-proportional revenue share.
//! Rewarding stale blocks compresses that advantage.
//!
//! This module simulates a network of weighted miners with a propagation
//! delay: block production is a Poisson process; a block released at time
//! `t` becomes visible to other miners at `t + delay`, while its producer
//! sees it immediately. Each miner carries a [`MinerStrategy`]:
//!
//! - [`MinerStrategy::Honest`] miners mine on the longest chain they can
//!   see, reference every visible eligible uncle, and release every block
//!   the moment it is mined.
//! - [`MinerStrategy::Table`] miners replay an exported MDP policy
//!   artifact ([`seleth_mdp::PolicyTable`]): they keep a **private fork**,
//!   consult the table at every event they observe (mining a block,
//!   hearing a released block) in the MDP's decision order, and execute
//!   the prescribed *adopt / override / match / wait* over the real block
//!   tree through the same private-fork executor (`PrivateFork`) the
//!   instant-broadcast engine's table playback runs. Lookups go through
//!   [`seleth_mdp::PolicyTable::decide`]: states outside the table's
//!   truncation and illegal prescriptions degrade to a forced adopt,
//!   never a panic.
//!
//! Several strategists may run concurrently — one [`MinerStrategy::Table`]
//! per attacking miner, each with its own artifact. Every strategist keeps
//! its own private fork and treats the *other* miners' released blocks,
//! honest or strategic, as the foreign public chain: a rival's override
//! arrives through the same hear path as an honest block, and a branch
//! that forks below the strategist's epoch forces an adopt once it catches
//! up. Equal-height ties between two rival strategists' tips split the
//! honest hash power evenly (the network model's γ is defined against an
//! honest incumbent, so neither attacker earns it), while
//! strategic-vs-honest ties follow `tie_gamma` as before. This is the
//! engine under the strategy zoo's multi-strategist tournament matchups
//! (`seleth-zoo`, the `strategy_zoo` experiment).
//!
//! This is the regime the MDP itself cannot model — its ρ* is derived in
//! a zero-delay two-player world — which is exactly what makes the replay
//! interesting: at `delay = 0` with two miners the strategic run
//! reproduces the engine's `PoolStrategy::Table` playback (and therefore
//! ρ*, see `tests/delay_study.rs`); as the delay grows the artifact's
//! edge degrades, measured by the `optimal_delay` experiment.
//!
//! Accounting reuses the standard tree machinery, so the same run can be
//! scored under Ethereum and Bitcoin reward schedules.
//!
//! ```
//! use seleth_sim::delay::{DelayConfig, DelaySimulation};
//!
//! // Three honest miners, one 3x larger; blocks every 13 "seconds",
//! // 6-second delay.
//! let config = DelayConfig::builder()
//!     .shares(vec![0.6, 0.2, 0.2])
//!     .delay(6.0)
//!     .blocks(5_000)
//!     .seed(1)
//!     .build()
//!     .unwrap();
//! let report = DelaySimulation::new(config).run();
//! // The large miner orphans proportionally fewer of its blocks.
//! assert!(report.stale_fraction(0) <= report.stale_fraction(1) + 0.05);
//! ```
//!
//! Strategic playback:
//!
//! ```
//! use seleth_chain::RewardSchedule;
//! use seleth_mdp::PolicyTable;
//! use seleth_sim::delay::{DelayConfig, DelaySimulation};
//!
//! // A 35% pool replays the honest baseline table against a 65% miner.
//! let config = DelayConfig::builder()
//!     .shares(vec![0.35, 0.65])
//!     .policy(0, PolicyTable::honest(0.35, 0.0, 12))
//!     .tie_gamma(0.0)
//!     .delay(0.0)
//!     .schedule(RewardSchedule::bitcoin())
//!     .blocks(4_000)
//!     .seed(1)
//!     .build()
//!     .unwrap();
//! let report = DelaySimulation::new(config).run();
//! // Honest play earns the fair share.
//! assert!((report.revenue_share(0) - 0.35).abs() < 0.05);
//! ```

use std::collections::VecDeque;
use std::sync::Arc;

use rand::Rng;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha12Rng;
use serde::{Deserialize, Serialize};

use seleth_chain::accounting::{self, MinerRewards};
use seleth_chain::forkchoice::{longest_chain, TieBreak};
use seleth_chain::{classify, BlockId, BlockTree, MinerId, RewardSchedule};
use seleth_mdp::{Action, Fork, PolicyTable};
use seleth_net::Topology;
use seleth_obs::{EventKind, EventLog};

use crate::config::SimError;
use crate::engine::record_event;
use crate::faults::{CrashTimeline, FaultPlan};
use crate::fork::PrivateFork;

/// The behaviour of one miner in the delay simulator.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum MinerStrategy {
    /// Follow the protocol: mine on the best visible tip, reference
    /// visible uncles, release every block immediately.
    Honest,
    /// Replay an exported MDP policy artifact over a private fork,
    /// consulting the table at every observed event (see the
    /// [module docs](self)). Shared via [`Arc`] so that cloning a
    /// configuration per seed never copies the action arrays.
    Table(Arc<PolicyTable>),
}

impl MinerStrategy {
    /// `true` for policy-driven (withholding) miners.
    pub fn is_strategic(&self) -> bool {
        matches!(self, MinerStrategy::Table(_))
    }
}

/// How released blocks reach the other miners.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub enum PropagationModel {
    /// The uniform model: every miner hears every block exactly `delay`
    /// after release (the original delay engine).
    #[default]
    Uniform,
    /// Gossip over a peer graph ([`seleth_net::Topology`]): each miner
    /// hears each block at its graph-shortest-path arrival time. The
    /// per-receiver surcharge relative to the base `delay` folds into the
    /// same pending-queue machinery the uniform model uses, so a
    /// complete-graph topology whose edge latency equals `delay`
    /// reproduces the uniform engine bit-for-bit. Shared via [`Arc`]:
    /// cloning a configuration per seed never copies the graph.
    Graph(Arc<Topology>),
}

/// Configuration of a delay study run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DelayConfig {
    shares: Vec<f64>,
    strategies: Vec<MinerStrategy>,
    tie_gamma: f64,
    delay: f64,
    interval: f64,
    blocks: u64,
    seed: u64,
    schedule: RewardSchedule,
    faults: FaultPlan,
    propagation: PropagationModel,
}

/// Builder for [`DelayConfig`].
#[derive(Debug, Clone)]
pub struct DelayConfigBuilder {
    shares: Vec<f64>,
    strategies: Vec<MinerStrategy>,
    tie_gamma: f64,
    delay: f64,
    interval: f64,
    blocks: u64,
    seed: u64,
    schedule: RewardSchedule,
    faults: FaultPlan,
    propagation: PropagationModel,
}

impl Default for DelayConfigBuilder {
    fn default() -> Self {
        DelayConfigBuilder {
            shares: vec![0.25; 4],
            strategies: Vec::new(),
            tie_gamma: 0.5,
            delay: 6.0,
            interval: 13.0,
            blocks: 100_000,
            seed: 0,
            schedule: RewardSchedule::ethereum(),
            faults: FaultPlan::none(),
            propagation: PropagationModel::Uniform,
        }
    }
}

impl DelayConfigBuilder {
    /// Hash-power shares per miner. Must form a probability distribution:
    /// finite, non-negative, summing to 1 (see [`crate::pools`] for
    /// ready-made splits) — [`DelayConfigBuilder::build`] rejects anything
    /// else instead of silently renormalizing.
    pub fn shares(&mut self, shares: Vec<f64>) -> &mut Self {
        self.shares = shares;
        self
    }

    /// One [`MinerStrategy`] per miner (default: all honest). May be
    /// shorter than the share vector — the tail defaults to honest — but
    /// never longer.
    pub fn strategies(&mut self, strategies: Vec<MinerStrategy>) -> &mut Self {
        self.strategies = strategies;
        self
    }

    /// Have miner `index` replay `table` ([`MinerStrategy::Table`]);
    /// miners without an explicit strategy stay honest.
    pub fn policy(&mut self, index: usize, table: PolicyTable) -> &mut Self {
        if self.strategies.len() <= index {
            self.strategies.resize(index + 1, MinerStrategy::Honest);
        }
        self.strategies[index] = MinerStrategy::Table(Arc::new(table));
        self
    }

    /// Tie-breaking parameter for strategic races: the fraction of honest
    /// mining power that mines on a strategic miner's published branch
    /// when it ties the honest public tip (the network model's `γ`,
    /// Section IV-A). Irrelevant in all-honest networks, where equal-height
    /// tips resolve first-seen.
    pub fn tie_gamma(&mut self, gamma: f64) -> &mut Self {
        self.tie_gamma = gamma;
        self
    }

    /// Propagation delay, in the same time unit as `interval`.
    pub fn delay(&mut self, delay: f64) -> &mut Self {
        self.delay = delay;
        self
    }

    /// Mean block interval (Ethereum ≈ 13 s; Bitcoin 600 s).
    pub fn interval(&mut self, interval: f64) -> &mut Self {
        self.interval = interval;
        self
    }

    /// Number of blocks to mine.
    pub fn blocks(&mut self, blocks: u64) -> &mut Self {
        self.blocks = blocks;
        self
    }

    /// RNG seed.
    pub fn seed(&mut self, seed: u64) -> &mut Self {
        self.seed = seed;
        self
    }

    /// Reward schedule used for accounting.
    pub fn schedule(&mut self, schedule: RewardSchedule) -> &mut Self {
        self.schedule = schedule;
        self
    }

    /// Install a fault plan ([`crate::faults`]). The default,
    /// [`FaultPlan::none`], injects nothing and keeps the run
    /// bit-identical to the fault-unaware engine.
    pub fn faults(&mut self, faults: FaultPlan) -> &mut Self {
        self.faults = faults;
        self
    }

    /// Choose the propagation model (default [`PropagationModel::Uniform`]).
    pub fn propagation(&mut self, propagation: PropagationModel) -> &mut Self {
        self.propagation = propagation;
        self
    }

    /// Propagate over a peer graph — shorthand for
    /// [`PropagationModel::Graph`]. The topology's miner count must equal
    /// the share vector's length (checked at build).
    pub fn topology(&mut self, topology: Topology) -> &mut Self {
        self.propagation = PropagationModel::Graph(Arc::new(topology));
        self
    }

    /// Validate and build.
    ///
    /// # Errors
    ///
    /// [`SimError::NoHonestMiners`] without at least two miners (a solo
    /// network has no propagation), [`SimError::NoBlocks`] for an empty
    /// budget, [`SimError::InvalidShares`] unless the shares are a
    /// probability distribution (finite, non-negative, summing to 1 within
    /// `1e-6`), [`SimError::StrategyCount`] when the strategy vector
    /// disagrees with the number of miners, [`SimError::InvalidGamma`] for
    /// a tie-breaking parameter outside `[0, 1]`, and
    /// [`SimError::InvalidAlpha`] if the delay/interval are not positive
    /// finite numbers, and [`SimError::InvalidFaultPlan`] when the fault
    /// plan is malformed or disagrees with the miner count.
    pub fn build(&self) -> Result<DelayConfig, SimError> {
        if self.shares.len() < 2 {
            return Err(SimError::NoHonestMiners);
        }
        if self.blocks == 0 {
            return Err(SimError::NoBlocks);
        }
        let total: f64 = self.shares.iter().sum();
        if self.shares.iter().any(|s| !s.is_finite() || *s < 0.0) || (total - 1.0).abs() > 1e-6 {
            return Err(SimError::InvalidShares { total });
        }
        if self.strategies.len() > self.shares.len() {
            return Err(SimError::StrategyCount {
                miners: self.shares.len(),
                strategies: self.strategies.len(),
            });
        }
        // Unspecified miners default to honest, so `policy(0, table)`
        // works without spelling out the whole vector.
        let mut strategies = self.strategies.clone();
        strategies.resize(self.shares.len(), MinerStrategy::Honest);
        if !self.tie_gamma.is_finite() || !(0.0..=1.0).contains(&self.tie_gamma) {
            return Err(SimError::InvalidGamma {
                gamma: self.tie_gamma,
            });
        }
        let timing_ok = self.delay.is_finite()
            && self.delay >= 0.0
            && self.interval.is_finite()
            && self.interval > 0.0;
        if !timing_ok {
            return Err(SimError::InvalidAlpha { alpha: self.delay });
        }
        self.faults.validate_for(self.shares.len())?;
        if let PropagationModel::Graph(topology) = &self.propagation {
            if topology.miner_count() != self.shares.len() {
                return Err(SimError::InvalidTopology {
                    reason: format!(
                        "topology has {} miners but the share vector has {}",
                        topology.miner_count(),
                        self.shares.len()
                    ),
                });
            }
        }
        Ok(DelayConfig {
            shares: self.shares.clone(),
            strategies,
            tie_gamma: self.tie_gamma,
            delay: self.delay,
            interval: self.interval,
            blocks: self.blocks,
            seed: self.seed,
            schedule: self.schedule.clone(),
            faults: self.faults.clone(),
            propagation: self.propagation.clone(),
        })
    }
}

impl DelayConfig {
    /// Start building a configuration.
    pub fn builder() -> DelayConfigBuilder {
        DelayConfigBuilder::default()
    }

    /// Hash shares (a probability distribution; validated at build).
    pub fn shares(&self) -> &[f64] {
        &self.shares
    }

    /// Per-miner strategies, parallel to [`DelayConfig::shares`].
    pub fn strategies(&self) -> &[MinerStrategy] {
        &self.strategies
    }

    /// Tie-breaking parameter for strategic races.
    pub fn tie_gamma(&self) -> f64 {
        self.tie_gamma
    }

    /// RNG seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Propagation delay.
    pub fn delay(&self) -> f64 {
        self.delay
    }

    /// Mean block interval.
    pub fn interval(&self) -> f64 {
        self.interval
    }

    /// Block budget per run.
    pub fn blocks(&self) -> u64 {
        self.blocks
    }

    /// The reward schedule in force.
    pub fn schedule(&self) -> &RewardSchedule {
        &self.schedule
    }

    /// The fault plan in force ([`FaultPlan::none`] by default).
    pub fn faults(&self) -> &FaultPlan {
        &self.faults
    }

    /// The propagation model in force ([`PropagationModel::Uniform`] by
    /// default).
    pub fn propagation(&self) -> &PropagationModel {
        &self.propagation
    }

    /// A copy with a different seed (for multi-run averaging; shared
    /// policy tables are never copied).
    pub fn with_seed(&self, seed: u64) -> Self {
        DelayConfig {
            seed,
            ..self.clone()
        }
    }
}

/// A strategic miner: its table, its private fork (the executor the
/// instant-broadcast engine shares, [`crate::fork::PrivateFork`], whose
/// `h` here is the miner's *heard* view of the public chain) and its
/// network state.
#[derive(Debug)]
struct Strategist {
    miner: MinerId,
    table: Arc<PolicyTable>,
    epoch: PrivateFork,
    /// Highest block heard from other miners so far.
    best_heard: BlockId,
    /// Released blocks by other miners, not yet heard; an entry is heard
    /// at `pub_time + delay + extra`. Kept sorted by that due time
    /// (without faults every `extra` is zero and release times never
    /// decrease, so insertion degenerates to a plain `push_back`).
    inbox: VecDeque<Pending>,
    /// `true` while the miner is down and has not yet resynchronized
    /// (set by the crash gate, cleared by the forced-adopt resync on the
    /// first event after recovery).
    crashed: bool,
}

/// One queued delivery of a released block to a receiver — a public view
/// or a strategist's inbox — due at `pub_time(block) + delay + extra`
/// (strategists) or visible at `pub_time(block) + extra + delay` past
/// release (views; same ordering).
#[derive(Debug, Clone, Copy)]
struct Pending {
    block: BlockId,
    /// The fault layer's surcharge on top of the base propagation delay:
    /// accumulated reorder jitter and re-gossip backoff. Exactly `0.0` on
    /// the zero-fault path — and `x + 0.0` is bitwise `x` for the finite
    /// release timestamps, which is what keeps zero-fault runs
    /// byte-identical to the fault-unaware engine.
    extra: f64,
    /// Delivery attempts so far; keys the per-attempt fault coins.
    attempt: u32,
    /// An inert duplicate copy: skips the fault pipeline, exercising only
    /// the receiver's idempotence.
    dup: bool,
}

impl Pending {
    fn first(block: BlockId, extra: f64) -> Self {
        Pending {
            block,
            extra,
            attempt: 0,
            dup: false,
        }
    }
}

/// One public frontier. View 0 is the shared network; under a fault plan
/// with partitions there is one additional view per partition group id,
/// and honest miners read the view of their current group. Every view
/// receives every delivery at all times (so dormant views track the
/// shared frontier for free); a delivery into view `v` stalls only while
/// an *active* partition uses group `v` and assigns the producer
/// elsewhere — it then retries with backoff until the partition heals.
#[derive(Debug)]
struct PublicView {
    /// Best (highest, earliest-released) block fully propagated to this
    /// view.
    best: BlockId,
    /// A competing fully-propagated tip at `best`'s height — a live race
    /// honest miners must split (see [`DelaySimulation::promote_public`]).
    race: Option<BlockId>,
    /// Deliveries still inside the propagation pipeline, in due-time
    /// order.
    pending: VecDeque<Pending>,
}

/// Receiver-id namespace of the public views inside the fault plan's hash
/// streams; strategist receivers use their (small) miner index directly.
fn view_receiver(v: usize) -> u64 {
    (1u64 << 32) + v as u64
}

/// Insert `p` into a due-time-ordered queue. Duplicates and retries can
/// land out of order; the zero-fault path (every `extra` zero, release
/// times monotone) always takes the `push_back` branch, preserving the
/// fault-unaware engine's queue order exactly.
fn enqueue(queue: &mut VecDeque<Pending>, pub_time: &[f64], p: Pending) {
    let due = pub_time[p.block.index()] + p.extra;
    match queue.back() {
        Some(b) if pub_time[b.block.index()] + b.extra > due => {
            let at = queue.partition_point(|e| pub_time[e.block.index()] + e.extra <= due);
            queue.insert(at, p);
        }
        _ => queue.push_back(p),
    }
}

/// Deterministic event counters of one delay run.
///
/// Every field is a plain `u64` incremented on the engine's control-flow
/// paths without ever touching the RNG or the event timeline, so counting
/// preserves the zero-fault bit-identity invariant (a [`FaultPlan::none`]
/// run stays bit-identical to the fault-unaware engine) and counter totals
/// summed across runs are bit-identical in any grouping — the property the
/// telemetry shard merge relies on.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DelayCounters {
    /// Poisson event slots that produced a block.
    pub mining_events: u64,
    /// Poisson event slots lost to a crashed miner (thinning).
    pub thinned_events: u64,
    /// Delivery events processed at a receiver (views and strategist
    /// inboxes; duplicate copies count here too once processed).
    pub deliveries: u64,
    /// Inert duplicate copies processed at a receiver.
    pub duplicate_deliveries: u64,
    /// Gossip messages lost to the link-fault drop coin.
    pub drops: u64,
    /// Re-gossip retries enqueued after a drop or a partition stall.
    pub regossip_attempts: u64,
    /// Deliveries stalled because a partition separated producer and
    /// receiver at arrival time.
    pub partition_stalls: u64,
    /// Partition windows observed closing (active → healed transitions
    /// sampled at mining events).
    pub partition_heals: u64,
    /// Hear events a crashed strategist missed outright.
    pub crash_misses: u64,
    /// Crash-recovery resynchronizations (forced-adopt rejoins).
    pub crash_resyncs: u64,
    /// Epochs conceded because a below-epoch branch caught up.
    pub forced_adopts: u64,
    /// Policy *adopt* actions executed.
    pub adopts: u64,
    /// Policy *override* actions executed.
    pub overrides: u64,
    /// Policy *match* actions executed.
    pub matches: u64,
    /// Blocks released into the gossip layer (honest blocks at mine time,
    /// strategic blocks at publication).
    pub released_blocks: u64,
    /// Blocks that ended the run off the main chain (uncles + stales).
    pub orphan_blocks: u64,
    /// Graph mode: gossip messages sent over edges (all zero under the
    /// uniform model, like the rest of the `gossip_*` family).
    pub gossip_sends: u64,
    /// Graph mode: copies dropped by a receiving node's seen-set.
    pub gossip_dedup_drops: u64,
    /// Graph mode: per-edge loss coins that forced a backoff re-send.
    pub gossip_loss_retries: u64,
    /// Graph mode: (block, miner) pairs the graph never delivered.
    pub gossip_unreachable: u64,
    /// Graph mode: deliveries whose earliest path was one edge.
    pub gossip_hops_1: u64,
    /// Graph mode: deliveries whose earliest path was two edges (e.g.
    /// through one relay).
    pub gossip_hops_2: u64,
    /// Graph mode: deliveries whose earliest path was three edges.
    pub gossip_hops_3: u64,
    /// Graph mode: deliveries whose earliest path was four or more edges.
    pub gossip_hops_4_plus: u64,
}

impl DelayCounters {
    /// Add `other`'s totals into `self` (u64 sums: order-independent).
    pub fn merge(&mut self, other: &DelayCounters) {
        for ((_, lhs), (_, rhs)) in self.entries_mut().into_iter().zip(other.entries()) {
            *lhs += rhs;
        }
    }

    /// Counter values under their stable telemetry keys.
    pub fn entries(&self) -> [(&'static str, u64); 24] {
        [
            ("delay.mining_events", self.mining_events),
            ("delay.thinned_events", self.thinned_events),
            ("delay.deliveries", self.deliveries),
            ("delay.duplicate_deliveries", self.duplicate_deliveries),
            ("delay.drops", self.drops),
            ("delay.regossip_attempts", self.regossip_attempts),
            ("delay.partition_stalls", self.partition_stalls),
            ("delay.partition_heals", self.partition_heals),
            ("delay.crash_misses", self.crash_misses),
            ("delay.crash_resyncs", self.crash_resyncs),
            ("delay.forced_adopts", self.forced_adopts),
            ("delay.adopts", self.adopts),
            ("delay.overrides", self.overrides),
            ("delay.matches", self.matches),
            ("delay.released_blocks", self.released_blocks),
            ("delay.orphan_blocks", self.orphan_blocks),
            ("delay.gossip_sends", self.gossip_sends),
            ("delay.gossip_dedup_drops", self.gossip_dedup_drops),
            ("delay.gossip_loss_retries", self.gossip_loss_retries),
            ("delay.gossip_unreachable", self.gossip_unreachable),
            ("delay.gossip_hops_1", self.gossip_hops_1),
            ("delay.gossip_hops_2", self.gossip_hops_2),
            ("delay.gossip_hops_3", self.gossip_hops_3),
            ("delay.gossip_hops_4_plus", self.gossip_hops_4_plus),
        ]
    }

    fn entries_mut(&mut self) -> [(&'static str, &mut u64); 24] {
        [
            ("delay.mining_events", &mut self.mining_events),
            ("delay.thinned_events", &mut self.thinned_events),
            ("delay.deliveries", &mut self.deliveries),
            ("delay.duplicate_deliveries", &mut self.duplicate_deliveries),
            ("delay.drops", &mut self.drops),
            ("delay.regossip_attempts", &mut self.regossip_attempts),
            ("delay.partition_stalls", &mut self.partition_stalls),
            ("delay.partition_heals", &mut self.partition_heals),
            ("delay.crash_misses", &mut self.crash_misses),
            ("delay.crash_resyncs", &mut self.crash_resyncs),
            ("delay.forced_adopts", &mut self.forced_adopts),
            ("delay.adopts", &mut self.adopts),
            ("delay.overrides", &mut self.overrides),
            ("delay.matches", &mut self.matches),
            ("delay.released_blocks", &mut self.released_blocks),
            ("delay.orphan_blocks", &mut self.orphan_blocks),
            ("delay.gossip_sends", &mut self.gossip_sends),
            ("delay.gossip_dedup_drops", &mut self.gossip_dedup_drops),
            ("delay.gossip_loss_retries", &mut self.gossip_loss_retries),
            ("delay.gossip_unreachable", &mut self.gossip_unreachable),
            ("delay.gossip_hops_1", &mut self.gossip_hops_1),
            ("delay.gossip_hops_2", &mut self.gossip_hops_2),
            ("delay.gossip_hops_3", &mut self.gossip_hops_3),
            ("delay.gossip_hops_4_plus", &mut self.gossip_hops_4_plus),
        ]
    }

    /// Fold the totals into a telemetry shard under the `delay.` keys,
    /// plus the per-hop delivery histogram (`delay.gossip_hops`) rebuilt
    /// from its deterministic bucket counters.
    pub fn record_into(&self, shard: &mut seleth_obs::TelemetryShard) {
        for (key, value) in self.entries() {
            shard.add(key, value);
        }
        for (hops, n) in [
            (1u64, self.gossip_hops_1),
            (2, self.gossip_hops_2),
            (3, self.gossip_hops_3),
            (4, self.gossip_hops_4_plus),
        ] {
            shard.observe_n("delay.gossip_hops", hops, n);
        }
    }
}

/// Graph-propagation state of a run ([`PropagationModel::Graph`]): the
/// topology plus the per-(block, receiver) arrival surcharges its gossip
/// schedule produced.
#[derive(Debug)]
struct GraphNet {
    topology: Arc<Topology>,
    /// Flattened `[block_index * miners + receiver]` queue surcharges:
    /// `arrival - delay` for cross-miner deliveries, `0.0` for the
    /// producer's own view (its frontier adopts the block on the shared
    /// schedule, exactly like the uniform model — instant self-visibility
    /// comes from the pending self-scan), [`f64::INFINITY`] while a block
    /// is withheld or unreachable.
    extras: Vec<f64>,
}

impl GraphNet {
    /// The surcharge of `block` toward `receiver` (`INFINITY` when the
    /// block was never released or never reaches the receiver).
    fn extra(&self, block: usize, miners: usize, receiver: usize) -> f64 {
        self.extras
            .get(block * miners + receiver)
            .copied()
            .unwrap_or(f64::INFINITY)
    }
}

/// The delay-study simulator.
#[derive(Debug)]
pub struct DelaySimulation {
    config: DelayConfig,
    rng: ChaCha12Rng,
    tree: BlockTree,
    /// Release time per block (`f64::INFINITY` while withheld); visible to
    /// non-producers at `+delay`.
    pub_time: Vec<f64>,
    /// Public frontier views (always at least the shared view 0; one per
    /// partition group under a partitioned fault plan).
    views: Vec<PublicView>,
    strategists: Vec<Strategist>,
    /// The fault plan's crash schedule (inert without crash faults).
    crashes: CrashTimeline,
    /// Fast-path flags hoisted from the plan: with all three false every
    /// fault branch is skipped and the run is bit-identical to the
    /// fault-unaware engine.
    link_faults: bool,
    crash_faults: bool,
    partition_faults: bool,
    now: f64,
    /// Deterministic event counters (no RNG interaction; see
    /// [`DelayCounters`]).
    counters: DelayCounters,
    /// Whether a partition window was active at the last mining event
    /// (tracks active → healed transitions for `partition_heals`).
    partition_open: bool,
    /// Optional flight recorder ([`DelaySimulation::attach_events`]);
    /// `None` (the default) keeps every instrumentation site one branch.
    events: Option<Arc<EventLog>>,
    /// Graph-propagation state; `None` under the uniform model (every
    /// graph branch is then one predictable-false test).
    graph: Option<GraphNet>,
}

/// Outcome of a delay run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DelayReport {
    /// Hash shares the run used.
    pub shares: Vec<f64>,
    /// Per-miner accounting.
    pub report: accounting::RewardReport,
    /// Deterministic event counters of the run.
    pub counters: DelayCounters,
}

impl DelaySimulation {
    /// Set up a run.
    pub fn new(config: DelayConfig) -> Self {
        let tree = BlockTree::new();
        let rng = ChaCha12Rng::seed_from_u64(config.seed());
        let genesis = tree.genesis();
        let strategists = config
            .strategies()
            .iter()
            .enumerate()
            .filter_map(|(i, s)| match s {
                MinerStrategy::Honest => None,
                MinerStrategy::Table(table) => Some(Strategist {
                    miner: MinerId(i as u32),
                    table: Arc::clone(table),
                    epoch: PrivateFork::new(genesis),
                    best_heard: genesis,
                    inbox: VecDeque::new(),
                    crashed: false,
                }),
            })
            .collect();
        let graph = match config.propagation() {
            PropagationModel::Uniform => None,
            PropagationModel::Graph(topology) => Some(GraphNet {
                topology: Arc::clone(topology),
                extras: Vec::new(),
            }),
        };
        let plan = config.faults();
        // Uniform mode: the shared view 0 plus one view per partition
        // group. Graph mode: every miner has its own frontier (view
        // index = miner index) because arrival times differ per receiver;
        // partitions then act as timed graph cuts over the same views.
        let view_count = if graph.is_some() {
            config.shares().len()
        } else {
            plan.view_count()
        };
        let views = (0..view_count)
            .map(|_| PublicView {
                best: genesis,
                race: None,
                pending: VecDeque::new(),
            })
            .collect();
        let crashes = CrashTimeline::new(plan, config.shares().len());
        let (link_faults, crash_faults, partition_faults) = (
            plan.has_link_faults(),
            plan.has_crashes(),
            plan.has_partitions(),
        );
        DelaySimulation {
            config,
            rng,
            tree,
            pub_time: vec![f64::NEG_INFINITY], // genesis: always visible
            views,
            strategists,
            crashes,
            link_faults,
            crash_faults,
            partition_faults,
            now: 0.0,
            counters: DelayCounters::default(),
            partition_open: false,
            events: None,
            graph,
        }
    }

    /// Attach a flight recorder: every mining event, hear, release, policy
    /// decision and fault-coin outcome is recorded as a canonical
    /// [`EventKind`] event. Recording only *reads* simulator state (never
    /// the RNG), so an attached log cannot change a run's results — the
    /// property the recording-enabled bit-identity gate in
    /// `tests/flight_recorder.rs` asserts.
    pub fn attach_events(&mut self, log: Arc<EventLog>) {
        self.events = Some(log);
    }

    /// Detach the flight recorder, restoring the zero-overhead path.
    pub fn detach_events(&mut self) -> Option<Arc<EventLog>> {
        self.events.take()
    }

    /// Run to the block budget and account the tree.
    ///
    /// Finalization mirrors the engine exactly: every strategic miner
    /// releases the remaining private blocks of its *live* epoch (what a
    /// pool does when it stops attacking) before the canonical chain is
    /// chosen, while branches abandoned by earlier adopts stay withheld.
    /// As in the engine, the closing fork choice is publication-blind —
    /// an abandoned branch the public chain has not yet overtaken when
    /// the budget expires can still win `longest_chain`. That end-of-run
    /// boundary effect is bounded by a single truncation length of
    /// blocks per run, is shared bit-for-bit with the engine's
    /// `PoolStrategy::Table` finalization (which the zero-delay
    /// cross-validation in `tests/delay_study.rs` relies on), and washes
    /// out in the multi-run study averages.
    pub fn run(mut self) -> DelayReport {
        for _ in 0..self.config.blocks {
            self.step();
        }
        for i in 0..self.strategists.len() {
            let s = &self.strategists[i];
            let (miner, unreleased) = (s.miner, s.epoch.published..s.epoch.private.len());
            for k in unreleased {
                self.release(self.strategists[i].epoch.private[k], self.now, miner);
            }
        }
        let chain = longest_chain(&self.tree, TieBreak::FirstSeen);
        let report = accounting::account(&self.tree, &chain, &self.config.schedule);
        self.counters.orphan_blocks = report.uncle_count + report.stale_count;
        DelayReport {
            shares: self.config.shares.clone(),
            report,
            counters: self.counters,
        }
    }

    fn step(&mut self) {
        // Exponential inter-arrival; the winner is share-weighted.
        let u: f64 = self.rng.gen_range(f64::EPSILON..1.0);
        self.now += -self.config.interval * u.ln();
        let miner = self.pick_miner();

        if self.partition_faults {
            let open = self.config.faults.active_partition(self.now).is_some();
            if self.partition_open && !open {
                self.counters.partition_heals += 1;
            }
            self.partition_open = open;
        }

        // Deliver everything that reached a strategic miner before this
        // mining event (their decisions — and therefore their release
        // timestamps — happen at hear time, not at the next block).
        self.deliver_to_strategists();
        // Promote fully propagated blocks into the public frontier views.
        self.promote_public();

        match self.strategists.iter().position(|s| s.miner == miner) {
            Some(i) => {
                // A crashed miner's hash power drops out of the Poisson
                // race: the event slot produces no block (thinning — the
                // arrival process stays exact for the remaining power).
                if self.strategist_down(i, self.now) {
                    self.counters.thinned_events += 1;
                    record_event(
                        &self.events,
                        EventKind::Thinned,
                        miner.0,
                        0,
                        self.now.to_bits(),
                    );
                    return;
                }
                self.counters.mining_events += 1;
                self.strategic_mines(i)
            }
            None => {
                if self.crash_faults && self.crashes.is_down(miner.0 as usize, self.now) {
                    self.counters.thinned_events += 1;
                    record_event(
                        &self.events,
                        EventKind::Thinned,
                        miner.0,
                        0,
                        self.now.to_bits(),
                    );
                    return;
                }
                self.counters.mining_events += 1;
                self.honest_mines(miner)
            }
        }
    }

    fn pick_miner(&mut self) -> MinerId {
        let x: f64 = self.rng.gen_range(0.0..1.0);
        let mut acc = 0.0;
        for (i, share) in self.config.shares.iter().enumerate() {
            acc += share;
            if x < acc {
                return MinerId(i as u32);
            }
        }
        MinerId(self.config.shares.len() as u32 - 1)
    }

    /// `true` if the block was mined by a policy-driven miner.
    fn is_strategic_block(&self, id: BlockId) -> bool {
        let m = self.tree.block(id).miner().0 as usize;
        self.config
            .strategies
            .get(m)
            .is_some_and(MinerStrategy::is_strategic)
    }

    /// Release a withheld block at time `t`: it enters every public
    /// view's propagation pipeline and every other strategic miner's
    /// inbox, each link drawing its own reorder jitter from the fault
    /// plan (exactly `0.0` without link faults).
    fn release(&mut self, id: BlockId, t: f64, producer: MinerId) {
        if self.pub_time[id.index()] < f64::INFINITY {
            return; // already out (e.g. a matched prefix being overridden)
        }
        self.counters.released_blocks += 1;
        record_event(
            &self.events,
            EventKind::Release,
            producer.0,
            id.index() as u64,
            t.to_bits(),
        );
        self.pub_time[id.index()] = t;
        let block = id.index() as u64;
        // Graph mode: one gossip propagation per release. Per-receiver
        // arrivals fold into the queues' `extra` surcharge relative to
        // the base delay: a complete/uniform topology yields exactly
        // `0.0` for every pair (`latency - delay` on bitwise-equal
        // values), which keeps every downstream comparison the same
        // operation as under the uniform model. The schedule is a pure
        // function of (topology, producer, block) — never the sim RNG.
        if self.graph.is_some() {
            self.gossip_release(id, producer);
        }
        for v in 0..self.views.len() {
            let mut extra = match &self.graph {
                // The producer's own view keeps the shared schedule
                // (extra 0.0, stored as such by gossip_release).
                Some(net) => net.extra(id.index(), self.config.shares.len(), v),
                None => 0.0,
            };
            if !extra.is_finite() {
                continue; // the graph never delivers it to this miner
            }
            if self.link_faults {
                extra += self
                    .config
                    .faults
                    .delivery_jitter(block, view_receiver(v), 0);
            }
            enqueue(
                &mut self.views[v].pending,
                &self.pub_time,
                Pending::first(id, extra),
            );
        }
        let miners = self.config.shares.len();
        let link_faults = self.link_faults;
        let Self {
            strategists,
            graph,
            config,
            pub_time,
            ..
        } = self;
        let plan = &config.faults;
        for s in strategists.iter_mut() {
            if s.miner != producer {
                let mut extra = match graph {
                    Some(net) => net.extra(id.index(), miners, s.miner.0 as usize),
                    None => 0.0,
                };
                if !extra.is_finite() {
                    continue;
                }
                if link_faults {
                    extra += plan.delivery_jitter(block, s.miner.0 as u64, 0);
                }
                enqueue(&mut s.inbox, pub_time, Pending::first(id, extra));
            }
        }
    }

    /// Graph-mode half of [`DelaySimulation::release`]: run the gossip
    /// schedule for one released block, store the per-receiver surcharges,
    /// count edge-level activity, and (with a recorder attached) emit the
    /// per-receiver `EdgeDelivery`/`RelayHop` events.
    fn gossip_release(&mut self, id: BlockId, producer: MinerId) {
        let miners = self.config.shares.len();
        let src = producer.0 as usize;
        let block = id.index() as u64;
        let prop = {
            let net = self.graph.as_ref().expect("caller checked graph mode");
            net.topology.propagate(src, block)
        };
        self.counters.gossip_sends += prop.stats.sends;
        self.counters.gossip_dedup_drops += prop.stats.dedup_drops;
        self.counters.gossip_loss_retries += prop.stats.loss_retries;
        for (r, (&arrival, &hops)) in prop.arrival.iter().zip(&prop.hops).enumerate() {
            if r == src {
                continue;
            }
            if !arrival.is_finite() {
                self.counters.gossip_unreachable += 1;
                continue;
            }
            match hops {
                0 | 1 => self.counters.gossip_hops_1 += 1,
                2 => self.counters.gossip_hops_2 += 1,
                3 => self.counters.gossip_hops_3 += 1,
                _ => self.counters.gossip_hops_4_plus += 1,
            }
        }
        if self.events.is_some() {
            for (r, (&arrival, &hops)) in prop.arrival.iter().zip(&prop.hops).enumerate() {
                if r == src || !arrival.is_finite() {
                    continue;
                }
                record_event(
                    &self.events,
                    EventKind::EdgeDelivery,
                    r as u32,
                    block,
                    arrival.to_bits(),
                );
                if hops >= 2 {
                    record_event(
                        &self.events,
                        EventKind::RelayHop,
                        r as u32,
                        block,
                        u64::from(hops),
                    );
                }
            }
        }
        let delay = self.config.delay;
        let net = self.graph.as_mut().expect("caller checked graph mode");
        let base = id.index() * miners;
        if net.extras.len() < base + miners {
            net.extras.resize(base + miners, f64::INFINITY);
        }
        for (r, &arrival) in prop.arrival.iter().enumerate() {
            net.extras[base + r] = if r == src { 0.0 } else { arrival - delay };
        }
    }

    /// Promote fully propagated blocks into the shared honest frontier,
    /// tracking races at the frontier height: strategic-vs-honest ties
    /// (split by `tie_gamma`) and — with several concurrent strategists —
    /// ties between two *rival* strategists' tips (split evenly, since the
    /// network model's γ is defined against an honest incumbent and
    /// neither attacker controls the other's propagation).
    fn promote_public(&mut self) {
        let horizon = self.now - self.config.delay;
        for v in 0..self.views.len() {
            self.promote_view(v, horizon);
        }
    }

    /// Drain view `v`'s pipeline up to the propagation horizon, running
    /// each non-duplicate delivery through the fault pipeline first: a
    /// partition stall or a lost gossip re-enqueues the entry with capped
    /// exponential backoff (plus fresh jitter); a duplication coin adds an
    /// inert second copy at the same due time.
    fn promote_view(&mut self, v: usize, horizon: f64) {
        while let Some(&p) = self.views[v].pending.front() {
            if self.pub_time[p.block.index()] + p.extra > horizon {
                break;
            }
            self.views[v].pending.pop_front();
            let front = p.block;
            if p.dup {
                self.counters.duplicate_deliveries += 1;
            }
            if !p.dup && (self.link_faults || self.partition_faults) {
                let plan = &self.config.faults;
                let block = front.index() as u64;
                let receiver = view_receiver(v);
                // The view's group hears the block when it finishes
                // propagating; a partition active *then* that uses this
                // group but assigns the producer elsewhere stalls it.
                let arrival = self.pub_time[front.index()] + self.config.delay + p.extra;
                let producer = self.tree.block(front).miner().0 as usize;
                // Graph mode: views are per-miner, so a partition stalls
                // the delivery exactly when it cuts producer from the
                // view's miner — the graph-cut reading of the same timed
                // group vectors.
                let stalled = self.partition_faults
                    && if self.graph.is_some() {
                        plan.cross_blocked(producer, v, arrival)
                    } else {
                        plan.active_partition(arrival)
                            .is_some_and(|part| part.uses_group(v) && part.groups[producer] != v)
                    };
                if stalled || (self.link_faults && plan.drops(block, receiver, p.attempt)) {
                    let retry = Pending {
                        block: front,
                        extra: p.extra
                            + plan.retry_backoff(p.attempt)
                            + plan.delivery_jitter(block, receiver, p.attempt + 1),
                        attempt: p.attempt + 1,
                        dup: false,
                    };
                    if stalled {
                        self.counters.partition_stalls += 1;
                        record_event(
                            &self.events,
                            EventKind::FaultStall,
                            v as u32,
                            block,
                            u64::from(p.attempt),
                        );
                    } else {
                        self.counters.drops += 1;
                        record_event(
                            &self.events,
                            EventKind::FaultDrop,
                            v as u32,
                            block,
                            u64::from(p.attempt),
                        );
                    }
                    self.counters.regossip_attempts += 1;
                    enqueue(&mut self.views[v].pending, &self.pub_time, retry);
                    continue;
                }
                if self.link_faults && plan.duplicates(block, receiver, p.attempt) {
                    record_event(
                        &self.events,
                        EventKind::FaultDuplicate,
                        v as u32,
                        block,
                        u64::from(p.attempt),
                    );
                    enqueue(
                        &mut self.views[v].pending,
                        &self.pub_time,
                        Pending { dup: true, ..p },
                    );
                }
            }
            self.counters.deliveries += 1;
            let h = self.tree.height(front);
            let best = self.views[v].best;
            let best_h = self.tree.height(best);
            if h > best_h {
                self.views[v].best = front;
                self.views[v].race = None;
            } else if h == best_h && front != best && self.views[v].race.is_none() {
                let front_strategic = self.is_strategic_block(front);
                let best_strategic = self.is_strategic_block(best);
                let rivals = front_strategic
                    && best_strategic
                    && self.tree.block(front).miner() != self.tree.block(best).miner();
                if front_strategic != best_strategic || rivals {
                    self.views[v].race = Some(front);
                }
            }
        }
    }

    /// Process every pending hear event up to `self.now`, globally in
    /// chronological order (strategists' reactions can release blocks that
    /// other strategists then hear).
    ///
    /// *Simultaneous* hear events — several strategists hearing blocks
    /// released at the same instant, the common case when rivals react to
    /// the same honest block at zero delay — are processed in uniformly
    /// random order. A fixed index order would make one strategist
    /// structurally the first reactor at every tie, which measurably
    /// biases otherwise-symmetric matchups (≈ 0.06 revenue between two
    /// identical SM1 miners at γ = 0.5). Runs with at most one strategist
    /// never tie, so they draw no extra randomness and stay bit-identical
    /// to the single-strategist semantics.
    fn deliver_to_strategists(&mut self) {
        // Reused across loop iterations; non-empty only while several
        // strategists' next hear events coincide.
        let mut tied: Vec<usize> = Vec::new();
        loop {
            let mut earliest: Option<f64> = None;
            tied.clear();
            for (i, s) in self.strategists.iter().enumerate() {
                if let Some(&p) = s.inbox.front() {
                    let t = self.pub_time[p.block.index()] + self.config.delay + p.extra;
                    if t > self.now {
                        continue;
                    }
                    match earliest {
                        Some(bt) if t > bt => {}
                        Some(bt) if t == bt => tied.push(i),
                        _ => {
                            earliest = Some(t);
                            tied.clear();
                            tied.push(i);
                        }
                    }
                }
            }
            let Some(t) = earliest else { break };
            let chosen = if tied.len() > 1 {
                tied[self.rng.gen_range(0..tied.len())]
            } else {
                tied[0]
            };
            let p = self.strategists[chosen].inbox.pop_front().expect("peeked");
            // A down receiver simply misses the gossip; re-gossip retries
            // (below, for fault plans with link faults) or the forced-adopt
            // resync on recovery pick the chain back up.
            if self.crash_faults && self.strategist_down(chosen, t) {
                self.counters.crash_misses += 1;
                record_event(
                    &self.events,
                    EventKind::CrashMiss,
                    self.strategists[chosen].miner.0,
                    p.block.index() as u64,
                    t.to_bits(),
                );
                continue;
            }
            if p.dup {
                self.counters.duplicate_deliveries += 1;
            }
            if !p.dup && (self.link_faults || self.partition_faults) {
                let plan = &self.config.faults;
                let block = p.block.index() as u64;
                let receiver = self.strategists[chosen].miner.0 as u64;
                let producer = self.tree.block(p.block).miner().0 as usize;
                let stalled =
                    self.partition_faults && plan.cross_blocked(producer, receiver as usize, t);
                if stalled || (self.link_faults && plan.drops(block, receiver, p.attempt)) {
                    let retry = Pending {
                        block: p.block,
                        extra: p.extra
                            + plan.retry_backoff(p.attempt)
                            + plan.delivery_jitter(block, receiver, p.attempt + 1),
                        attempt: p.attempt + 1,
                        dup: false,
                    };
                    if stalled {
                        self.counters.partition_stalls += 1;
                        record_event(
                            &self.events,
                            EventKind::FaultStall,
                            receiver as u32,
                            block,
                            u64::from(p.attempt),
                        );
                    } else {
                        self.counters.drops += 1;
                        record_event(
                            &self.events,
                            EventKind::FaultDrop,
                            receiver as u32,
                            block,
                            u64::from(p.attempt),
                        );
                    }
                    self.counters.regossip_attempts += 1;
                    enqueue(&mut self.strategists[chosen].inbox, &self.pub_time, retry);
                    continue;
                }
                if self.link_faults && plan.duplicates(block, receiver, p.attempt) {
                    record_event(
                        &self.events,
                        EventKind::FaultDuplicate,
                        receiver as u32,
                        block,
                        u64::from(p.attempt),
                    );
                    enqueue(
                        &mut self.strategists[chosen].inbox,
                        &self.pub_time,
                        Pending { dup: true, ..p },
                    );
                }
            }
            self.counters.deliveries += 1;
            self.hear(chosen, p.block, t);
        }
    }

    /// Crash gate for strategist `i` at event time `t`: `true` while the
    /// miner is down (the event is lost). The first gated event marks the
    /// miner crashed. The first event after recovery resynchronizes it
    /// the way a restarted node rejoins: it syncs to the public tip its
    /// view currently holds and concedes whatever private fork it held
    /// before the crash, exactly like losing an epoch.
    fn strategist_down(&mut self, i: usize, t: f64) -> bool {
        if !self.crash_faults {
            return false;
        }
        let m = self.strategists[i].miner.0 as usize;
        if self.crashes.is_down(m, t) {
            self.strategists[i].crashed = true;
            return true;
        }
        if self.strategists[i].crashed {
            self.counters.crash_resyncs += 1;
            record_event(
                &self.events,
                EventKind::CrashResync,
                m as u32,
                0,
                t.to_bits(),
            );
            let tip = self.views[self.view_of(m, t)].best;
            let s = &mut self.strategists[i];
            s.epoch.concede(&self.tree, tip);
            if self.tree.height(tip) > self.tree.height(s.best_heard) {
                s.best_heard = tip;
            }
            s.crashed = false;
        }
        false
    }

    /// The public view miner `m` mines on at time `t`: its own frontier
    /// in graph mode, its partition group's view under a partition, and
    /// the shared view 0 otherwise.
    fn view_of(&self, m: usize, t: f64) -> usize {
        if self.graph.is_some() {
            m
        } else if self.partition_faults {
            self.config.faults.group_of(m, t)
        } else {
            0
        }
    }

    /// Strategic miner `i` hears `block` at time `t`: update its private
    /// view of the `(a, h, fork, match_d)` state and consult the table.
    fn hear(&mut self, i: usize, block: BlockId, t: f64) {
        record_event(
            &self.events,
            EventKind::Hear,
            self.strategists[i].miner.0,
            block.index() as u64,
            t.to_bits(),
        );
        let Self {
            tree,
            strategists,
            counters,
            events,
            ..
        } = self;
        let s = &mut strategists[i];
        // Only a new best tip changes the MDP state; natural-fork losers
        // at or below the known height carry no decision weight.
        if tree.height(block) <= tree.height(s.best_heard) {
            return;
        }
        s.best_heard = block;
        let epoch = &mut s.epoch;
        let base_h = tree.height(epoch.base);
        let tip_h = tree.height(block);
        if tip_h <= base_h {
            return;
        }
        let anchor = tree.ancestor_at(block, base_h).expect("height checked");
        if anchor == epoch.base {
            // How much of our released prefix the heard chain builds on.
            let mut k = 0usize;
            while k < epoch.published
                && tree.ancestor_at(block, base_h + k as u64 + 1) == Some(epoch.private[k])
            {
                k += 1;
            }
            if k > 0 {
                // The network adopted our published prefix (the MDP's γβ
                // outcome): those blocks are settled wins; rebase on them.
                epoch.settle(k);
            }
            epoch.h = (tip_h - tree.height(epoch.base)) as usize;
            epoch.fork = Fork::Relevant;
        } else {
            // A branch that forked below our epoch (e.g. honest blocks
            // released before they heard an override) — outside the MDP's
            // state abstraction. If it has caught up with the private
            // chain the epoch is lost: forced adopt. While we are still
            // strictly ahead, ignore it.
            if tip_h >= base_h + epoch.private.len() as u64 {
                counters.forced_adopts += 1;
                record_event(
                    events,
                    EventKind::ForcedAdopt,
                    s.miner.0,
                    block.index() as u64,
                    tip_h,
                );
                epoch.reset(block);
            }
            return;
        }
        self.consult(i, t);
    }

    /// Consult the table at the live state and execute the decision:
    /// count and record it, release the blocks it names at event time
    /// `t`, then apply it to the epoch. Releasing first is safe because a
    /// release only writes the *other* strategists' inboxes.
    fn consult(&mut self, i: usize, t: f64) {
        let s = &self.strategists[i];
        let action = s.epoch.decide(&s.table);
        let (kind, count) = match action {
            Action::Wait => return,
            Action::Adopt => (EventKind::Adopt, &mut self.counters.adopts),
            Action::Override => (EventKind::Override, &mut self.counters.overrides),
            Action::Match => (EventKind::Match, &mut self.counters.matches),
        };
        *count += 1;
        record_event(
            &self.events,
            kind,
            s.miner.0,
            s.epoch.private.len() as u64,
            s.epoch.h as u64,
        );
        let (miner, released) = (s.miner, s.epoch.releases(action));
        for k in released {
            self.release(self.strategists[i].epoch.private[k], t, miner);
        }
        let s = &mut self.strategists[i];
        s.epoch.apply(action, &self.tree, s.best_heard);
    }

    /// A strategic miner mines: always privately (releasing is the
    /// policy's job), on its own fork; then a decision point.
    fn strategic_mines(&mut self, i: usize) {
        let s = &self.strategists[i];
        let id = self.mint(s.epoch.tip(), s.miner);
        self.strategists[i].epoch.push(id);
        self.consult(i, self.now);
    }

    /// An honest miner mines on the best tip it can see and releases the
    /// block immediately.
    fn honest_mines(&mut self, miner: MinerId) {
        // The miner's public frontier (its partition group's view; the
        // shared view 0 outside partitions), with a live race:
        // strategic-vs-honest ties split by tie_gamma, rival-strategist
        // ties split evenly...
        let g = self.view_of(miner.0 as usize, self.now);
        let view = &self.views[g];
        let mut tip = view.best;
        if let Some(contender) = view.race {
            let incumbent_strategic = self.is_strategic_block(view.best);
            tip = if incumbent_strategic && self.is_strategic_block(contender) {
                // Two different strategists tying (promote_view only
                // records same-side races across distinct miners): γ is
                // defined against an honest tip, so neither side earns it.
                if self.rng.gen_bool(0.5) {
                    view.best
                } else {
                    contender
                }
            } else {
                let (strategic, honest) = if incumbent_strategic {
                    (view.best, contender)
                } else {
                    (contender, view.best)
                };
                if self.rng.gen_bool(self.config.tie_gamma) {
                    strategic
                } else {
                    honest
                }
            };
        }
        // ...plus any block the miner produced itself that is still
        // propagating.
        for p in &self.views[g].pending {
            let b = p.block;
            if self.tree.block(b).miner() == miner && self.tree.height(b) > self.tree.height(tip) {
                tip = b;
            }
        }

        let id = self.mint(tip, miner);
        self.release(id, self.now, miner);
    }

    /// Create a withheld block on `parent` referencing every eligible
    /// uncle ([`classify::select_uncles`]) *visible to the miner*:
    /// released and propagated, or released and self-mined. Withheld
    /// blocks are invisible to everyone, so abandoning a private branch
    /// leaves plain stales, exactly like the engine.
    fn mint(&mut self, parent: BlockId, miner: MinerId) -> BlockId {
        let schedule = &self.config.schedule;
        let horizon = self.now - self.config.delay;
        let visible = |u: BlockId| {
            let released = self.pub_time[u.index()] < f64::INFINITY;
            // Graph mode: visibility is per-pair — the block must
            // have finished its graph path *to this miner* by the
            // horizon. The uniform expression is untouched (the
            // complete/uniform surcharge is exactly 0.0, but keeping
            // the original comparison makes the bit-identity claim
            // local to this line).
            let heard = match &self.graph {
                Some(net) => {
                    self.pub_time[u.index()]
                        + net.extra(u.index(), self.config.shares.len(), miner.0 as usize)
                        <= horizon
                }
                None => self.pub_time[u.index()] <= horizon,
            };
            let propagated = heard
                && (!self.partition_faults
                    || !self.config.faults.cross_blocked(
                        self.tree.block(u).miner().0 as usize,
                        miner.0 as usize,
                        self.now,
                    ));
            propagated || (released && self.tree.block(u).miner() == miner)
        };
        let refs = classify::select_uncles(
            &self.tree,
            parent,
            schedule.max_uncle_distance(),
            schedule.max_uncles_per_block(),
            visible,
        );
        let id = self
            .tree
            .add_block(parent, miner, &refs)
            .expect("engine-created ids");
        record_event(
            &self.events,
            EventKind::Mine,
            miner.0,
            id.index() as u64,
            self.tree.height(id),
        );
        self.pub_time.push(f64::INFINITY);
        id
    }
}

impl DelayReport {
    /// Rewards of miner `i`.
    pub fn miner(&self, i: usize) -> MinerRewards {
        self.report.miner(MinerId(i as u32))
    }

    /// Miner `i`'s share of all rewards paid.
    pub fn revenue_share(&self, i: usize) -> f64 {
        let total = self.report.total_reward();
        if total > 0.0 {
            self.miner(i).total() / total
        } else {
            0.0
        }
    }

    /// Miner `i`'s absolute revenue under the paper's `scenario`
    /// normalization: total reward per normalized block slot (regular
    /// blocks, or regular + uncle blocks) — the delay-world analogue of
    /// the engine's `SimReport::absolute_pool`, and the quantity
    /// comparable against an artifact's predicted ρ*. Under the Bitcoin
    /// schedule it coincides with [`DelayReport::revenue_share`].
    pub fn absolute_revenue(&self, i: usize, scenario: seleth_chain::Scenario) -> f64 {
        let r = self.report.regular_count as f64;
        let norm = match scenario {
            seleth_chain::Scenario::RegularRate => r,
            seleth_chain::Scenario::RegularPlusUncleRate => r + self.report.uncle_count as f64,
        };
        if norm > 0.0 {
            self.miner(i).total() / norm
        } else {
            0.0
        }
    }

    /// Fraction of miner `i`'s blocks that earned nothing (plain stale).
    pub fn stale_fraction(&self, i: usize) -> f64 {
        let m = self.miner(i);
        let mined = m.regular_blocks + m.uncle_blocks + m.stale_blocks;
        if mined == 0 {
            return 0.0;
        }
        m.stale_blocks as f64 / mined as f64
    }

    /// Miner `i`'s *advantage*: revenue share divided by hash share; 1.0
    /// is perfectly fair, above 1.0 means the miner profits from its size.
    pub fn advantage(&self, i: usize) -> f64 {
        self.revenue_share(i) / self.shares[i]
    }

    /// System-wide fraction of blocks that ended up off the main chain.
    pub fn orphan_rate(&self) -> f64 {
        let total = self.report.block_count().max(1) as f64;
        (self.report.uncle_count + self.report.stale_count) as f64 / total
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use seleth_chain::Scenario;
    use seleth_mdp::RewardModel;

    /// Mine `config`'s whole block budget and return the tree. Every
    /// uncle reference is chosen at mining time, so this tree carries the
    /// same headers as the one [`DelaySimulation::run`] accounts.
    pub(crate) fn mined_tree(config: DelayConfig) -> BlockTree {
        let mut sim = DelaySimulation::new(config);
        for _ in 0..sim.config.blocks {
            sim.step();
        }
        sim.tree
    }

    fn run(shares: Vec<f64>, delay: f64, schedule: RewardSchedule, seed: u64) -> DelayReport {
        let config = DelayConfig::builder()
            .shares(shares)
            .delay(delay)
            .blocks(40_000)
            .seed(seed)
            .schedule(schedule)
            .build()
            .unwrap();
        DelaySimulation::new(config).run()
    }

    #[test]
    fn zero_delay_means_no_forks() {
        let r = run(vec![0.5, 0.3, 0.2], 0.0, RewardSchedule::ethereum(), 1);
        assert_eq!(r.orphan_rate(), 0.0);
        // Fair shares within sampling noise.
        for i in 0..3 {
            assert!(
                (r.advantage(i) - 1.0).abs() < 0.05,
                "miner {i}: {}",
                r.advantage(i)
            );
        }
    }

    #[test]
    fn delay_creates_orphans_at_ethereum_rates() {
        // delay/interval ≈ 0.46: a sizeable natural fork rate, like early
        // Ethereum's.
        let r = run(vec![0.25; 4], 6.0, RewardSchedule::ethereum(), 2);
        assert!(r.orphan_rate() > 0.05, "orphan rate {}", r.orphan_rate());
        assert!(r.orphan_rate() < 0.5);
        // Most orphans are referenced as uncles under unlimited refs.
        assert!(r.report.uncle_count > r.report.stale_count);
    }

    #[test]
    fn big_miners_orphan_less() {
        let r = run(
            vec![0.6, 0.1, 0.1, 0.1, 0.1],
            6.0,
            RewardSchedule::bitcoin(),
            3,
        );
        let big = r.stale_fraction(0);
        let small: f64 = (1..5).map(|i| r.stale_fraction(i)).sum::<f64>() / 4.0;
        assert!(
            big < small,
            "big miner stale {big:.4} should undercut small miners' {small:.4}"
        );
    }

    #[test]
    fn uncle_rewards_compress_the_size_advantage() {
        // The paper's Section VI premise: rewarding stale blocks reduces
        // the big miner's edge. Same seed, same tree dynamics — only the
        // reward schedule differs.
        let shares = vec![0.6, 0.1, 0.1, 0.1, 0.1];
        let btc = run(shares.clone(), 6.0, RewardSchedule::bitcoin(), 4);
        let eth = run(shares, 6.0, RewardSchedule::ethereum(), 4);
        let adv_btc = btc.advantage(0);
        let adv_eth = eth.advantage(0);
        assert!(adv_btc > 1.0, "without uncle rewards size pays: {adv_btc}");
        assert!(
            adv_eth < adv_btc,
            "uncle rewards must shrink the advantage: {adv_eth} vs {adv_btc}"
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let a = run(vec![0.5, 0.5], 4.0, RewardSchedule::ethereum(), 9);
        let b = run(vec![0.5, 0.5], 4.0, RewardSchedule::ethereum(), 9);
        assert_eq!(a.report.total_reward(), b.report.total_reward());
    }

    #[test]
    fn builder_validation() {
        assert!(matches!(
            DelayConfig::builder().shares(vec![1.0]).build(),
            Err(SimError::NoHonestMiners)
        ));
        // Share vectors must be distributions — no silent renormalization.
        assert!(matches!(
            DelayConfig::builder().shares(vec![2.0, 6.0]).build(),
            Err(SimError::InvalidShares { total }) if (total - 8.0).abs() < 1e-12
        ));
        assert!(matches!(
            DelayConfig::builder().shares(vec![-0.2, 1.2]).build(),
            Err(SimError::InvalidShares { .. })
        ));
        assert!(matches!(
            DelayConfig::builder().shares(vec![f64::NAN, 0.5]).build(),
            Err(SimError::InvalidShares { .. })
        ));
        assert!(DelayConfig::builder()
            .shares(vec![0.25, 0.75])
            .build()
            .is_ok());
        assert!(DelayConfig::builder().delay(-1.0).build().is_err());
        assert!(DelayConfig::builder().blocks(0).build().is_err());
        assert!(matches!(
            DelayConfig::builder().tie_gamma(1.5).build(),
            Err(SimError::InvalidGamma { .. })
        ));
        // Strategy vectors must match the miner count.
        assert!(matches!(
            DelayConfig::builder()
                .shares(vec![0.5, 0.5])
                .strategies(vec![MinerStrategy::Honest; 3])
                .build(),
            Err(SimError::StrategyCount {
                miners: 2,
                strategies: 3
            })
        ));
        // pools helpers produce accepted splits.
        assert!(DelayConfig::builder()
            .shares(crate::pools::shares_with_strategist(0.3))
            .build()
            .is_ok());
    }

    fn strategic_run(
        table: PolicyTable,
        alpha: f64,
        gamma: f64,
        delay: f64,
        schedule: RewardSchedule,
        blocks: u64,
        seed: u64,
    ) -> DelayReport {
        let config = DelayConfig::builder()
            .shares(vec![alpha, 1.0 - alpha])
            .policy(0, table)
            .tie_gamma(gamma)
            .delay(delay)
            .blocks(blocks)
            .seed(seed)
            .schedule(schedule)
            .build()
            .unwrap();
        DelaySimulation::new(config).run()
    }

    #[test]
    fn strategic_runs_are_deterministic_per_seed() {
        let mk = |seed| {
            strategic_run(
                PolicyTable::honest(0.35, 0.5, 10),
                0.35,
                0.5,
                3.0,
                RewardSchedule::ethereum(),
                10_000,
                seed,
            )
        };
        let (a, b, c) = (mk(5), mk(5), mk(6));
        assert_eq!(a.report.total_reward(), b.report.total_reward());
        assert_eq!(a.miner(0).total(), b.miner(0).total());
        assert_ne!(a.report.total_reward(), c.report.total_reward());
    }

    #[test]
    fn honest_table_at_zero_delay_earns_fair_share() {
        let r = strategic_run(
            PolicyTable::honest(0.3, 0.0, 12),
            0.3,
            0.0,
            0.0,
            RewardSchedule::bitcoin(),
            40_000,
            7,
        );
        // Publishing every lead immediately at zero delay forks nothing.
        assert_eq!(r.orphan_rate(), 0.0);
        assert!(
            (r.revenue_share(0) - 0.3).abs() < 0.02,
            "honest playback share {}",
            r.revenue_share(0)
        );
    }

    /// A solved Bitcoin-model optimal table at `(α, γ)` — small truncation
    /// keeps unit-test solves cheap.
    fn solved_table(alpha: f64, gamma: f64) -> PolicyTable {
        let config =
            seleth_mdp::MdpConfig::new(alpha, gamma, RewardModel::Bitcoin).with_max_len(16);
        let solution = config.solve().expect("mdp solve");
        PolicyTable::from_solution(&config, &solution)
    }

    #[test]
    fn withholding_earns_more_than_fair_share_at_zero_delay() {
        // The solved optimal policy at α = 0.4, γ = 0 predicts ρ* ≈ 0.487;
        // its zero-delay replay must comfortably clear the fair share.
        let r = strategic_run(
            solved_table(0.4, 0.0),
            0.4,
            0.0,
            0.0,
            RewardSchedule::bitcoin(),
            60_000,
            11,
        );
        assert!(
            r.revenue_share(0) > 0.44,
            "withholding share {} should clear alpha 0.4",
            r.revenue_share(0)
        );
    }

    #[test]
    fn delay_degrades_the_strategic_edge() {
        // The tentpole claim, in miniature: the same optimal artifact earns
        // less once its overrides race a propagation delay (honest miners
        // keep extending the branch it tries to orphan until they hear it).
        let table = solved_table(0.4, 0.0);
        let fast = strategic_run(
            table.clone(),
            0.4,
            0.0,
            0.0,
            RewardSchedule::bitcoin(),
            60_000,
            13,
        );
        let slow = strategic_run(table, 0.4, 0.0, 9.0, RewardSchedule::bitcoin(), 60_000, 13);
        assert!(
            slow.revenue_share(0) < fast.revenue_share(0) - 0.01,
            "delay must cost the strategist: {} vs {}",
            slow.revenue_share(0),
            fast.revenue_share(0)
        );
    }

    #[test]
    fn corrupt_tables_degrade_to_adopt_without_panic() {
        // Override-everywhere is illegal half the time; match-everywhere
        // almost always; every prescription must resolve via the shared
        // PolicyTable::decide fallback, never a panic — including under
        // delay, where overrides can lose races.
        for (bad, seed) in [(Action::Override, 21u64), (Action::Match, 22)] {
            let table = PolicyTable::from_fn3(
                0.3,
                0.5,
                RewardModel::Bitcoin,
                Scenario::RegularRate,
                5,
                0.3,
                move |_, _, _| bad,
            );
            // The shared audit agrees these tables are corrupt — the same
            // judgement `decide` applies slot by slot during the replay.
            assert!(!table.is_legal_everywhere());
            let r = strategic_run(
                table,
                0.3,
                0.5,
                5.0,
                RewardSchedule::ethereum(),
                8_000,
                seed,
            );
            assert_eq!(r.report.block_count(), 8_000);
        }
    }

    #[test]
    fn out_of_truncation_states_force_adopt() {
        // An all-wait table truncated at 3: the private branch must be
        // conceded at the boundary, so the pool's stale blocks exist but
        // the run completes with full accounting.
        let table = PolicyTable::from_fn3(
            0.45,
            0.5,
            RewardModel::Bitcoin,
            Scenario::RegularRate,
            3,
            0.45,
            |_, _, _| Action::Wait,
        );
        let r = strategic_run(table, 0.45, 0.5, 2.0, RewardSchedule::bitcoin(), 10_000, 31);
        assert_eq!(r.report.block_count(), 10_000);
        assert!(
            r.miner(0).stale_blocks > 0,
            "forced adopts must abandon private blocks"
        );
    }

    /// A hand-written SM1 table in the MDP's state encoding (the richer
    /// parametric generators live upstream in `seleth-zoo`; this inline
    /// rule keeps the engine tests self-contained).
    pub(crate) fn sm1_table(alpha: f64, gamma: f64, max_len: u32) -> PolicyTable {
        PolicyTable::from_fn3(
            alpha,
            gamma,
            RewardModel::Bitcoin,
            Scenario::RegularRate,
            max_len,
            alpha,
            |a, h, fork| {
                if h > a {
                    Action::Adopt
                } else if a == h && a >= 1 {
                    if fork == Fork::Relevant {
                        Action::Match
                    } else {
                        Action::Wait
                    }
                } else if a == h + 1 && h >= 1 {
                    Action::Override
                } else {
                    Action::Wait
                }
            },
        )
    }

    #[test]
    fn two_strategists_attack_each_other() {
        // The multi-strategist matchup: two SM1 miners and one honest pool
        // in a single run. Each strategist must treat the rival's released
        // blocks as foreign chain, the run must complete with full
        // accounting, and results must stay seed-deterministic.
        let mk = |seed| {
            let config = DelayConfig::builder()
                .shares(vec![0.3, 0.3, 0.4])
                .policy(0, sm1_table(0.3, 0.5, 12))
                .policy(1, sm1_table(0.3, 0.5, 12))
                .tie_gamma(0.5)
                .delay(2.0)
                .blocks(30_000)
                .seed(seed)
                .schedule(RewardSchedule::bitcoin())
                .build()
                .unwrap();
            DelaySimulation::new(config).run()
        };
        let r = mk(17);
        assert_eq!(r.report.block_count(), 30_000);
        let total: f64 = (0..3).map(|i| r.revenue_share(i)).sum();
        assert!((total - 1.0).abs() < 1e-9, "shares sum to {total}");
        assert!(
            r.revenue_share(0) > 0.05 && r.revenue_share(1) > 0.05,
            "both strategists stay in the game: {} / {}",
            r.revenue_share(0),
            r.revenue_share(1)
        );
        let r2 = mk(17);
        assert_eq!(r.report.total_reward(), r2.report.total_reward());
        assert_eq!(r.miner(0).total(), r2.miner(0).total());
        assert_eq!(r.miner(1).total(), r2.miner(1).total());
    }

    #[test]
    fn rival_matchups_are_slot_symmetric() {
        // Two identical SM1 miners with identical shares must earn the
        // same revenue in distribution. Regression for the deliver-loop's
        // tie handling: a fixed processing order at simultaneous hear
        // events made one slot structurally the first reactor, worth a
        // reproducible ~0.06 revenue at γ = 0.5 — far outside the ~0.006
        // Monte-Carlo noise of this budget.
        let mut diffs = Vec::new();
        for seed in 0..6u64 {
            let config = DelayConfig::builder()
                .shares(vec![0.3, 0.3, 0.4])
                .policy(0, sm1_table(0.3, 0.5, 30))
                .policy(1, sm1_table(0.3, 0.5, 30))
                .tie_gamma(0.5)
                .delay(0.0)
                .blocks(30_000)
                .seed(seed)
                .schedule(RewardSchedule::bitcoin())
                .build()
                .unwrap();
            let r = DelaySimulation::new(config).run();
            diffs.push(r.revenue_share(1) - r.revenue_share(0));
        }
        let mean = diffs.iter().sum::<f64>() / diffs.len() as f64;
        assert!(
            mean.abs() < 0.025,
            "slot asymmetry {mean:+.4} exceeds noise (diffs {diffs:?})"
        );
    }

    #[test]
    fn strategist_duopoly_without_honest_miners() {
        // Two table-driven miners and nobody else: an SM1 attacker against
        // a rival replaying the honest baseline table. The rival's
        // immediate releases feed the attacker's hear path; the attacker's
        // overrides arrive as foreign chain. (Two SM1s alone would be a
        // degenerate standoff — neither ever publishes without honest
        // blocks to react to.)
        let config = DelayConfig::builder()
            .shares(vec![0.35, 0.65])
            .policy(0, sm1_table(0.35, 0.0, 12))
            .policy(1, PolicyTable::honest(0.65, 0.0, 12))
            .tie_gamma(0.0)
            .delay(1.0)
            .blocks(20_000)
            .seed(23)
            .schedule(RewardSchedule::bitcoin())
            .build()
            .unwrap();
        let r = DelaySimulation::new(config).run();
        assert_eq!(r.report.block_count(), 20_000);
        let total: f64 = (0..2).map(|i| r.revenue_share(i)).sum();
        assert!((total - 1.0).abs() < 1e-9, "shares sum to {total}");
        assert!(
            r.revenue_share(0) > 0.15 && r.revenue_share(1) > 0.3,
            "attacker and table-honest rival both earn: {} / {}",
            r.revenue_share(0),
            r.revenue_share(1)
        );
    }

    #[test]
    fn zero_hash_power_miner_is_inert() {
        // A 0-share miner never wins a slot: the run completes, the miner
        // earns nothing, and the distribution still validates.
        let config = DelayConfig::builder()
            .shares(vec![0.5, 0.5, 0.0])
            .delay(4.0)
            .blocks(10_000)
            .seed(3)
            .build()
            .unwrap();
        let r = DelaySimulation::new(config).run();
        assert_eq!(r.report.block_count(), 10_000);
        assert_eq!(r.miner(2).total(), 0.0);
        assert_eq!(r.revenue_share(2), 0.0);
    }

    #[test]
    fn inert_fault_settings_stay_bit_identical() {
        // A plan that only reconfigures backoff (no loss, churn or
        // partitions) must not perturb a single bit of the run — the
        // fault pipeline is fully gated behind the activity flags.
        let base = strategic_run(
            sm1_table(0.35, 0.5, 12),
            0.35,
            0.5,
            2.0,
            RewardSchedule::ethereum(),
            15_000,
            19,
        );
        let plan = FaultPlan::builder().backoff(2.5, 40.0).build().unwrap();
        let config = DelayConfig::builder()
            .shares(vec![0.35, 0.65])
            .policy(0, sm1_table(0.35, 0.5, 12))
            .tie_gamma(0.5)
            .delay(2.0)
            .blocks(15_000)
            .seed(19)
            .schedule(RewardSchedule::ethereum())
            .faults(plan)
            .build()
            .unwrap();
        let faulty = DelaySimulation::new(config).run();
        assert_eq!(
            base.report.total_reward().to_bits(),
            faulty.report.total_reward().to_bits()
        );
        assert_eq!(
            base.miner(0).total().to_bits(),
            faulty.miner(0).total().to_bits()
        );
    }

    #[test]
    fn duplicate_delivery_of_every_release_is_idempotent() {
        // duplication = 1.0 re-delivers every block once to every
        // receiver. With a single strategist no hear-time ties can arise,
        // so the extra copies must be absorbed by the height guards with
        // zero effect on the outcome.
        let base = strategic_run(
            sm1_table(0.35, 0.5, 12),
            0.35,
            0.5,
            2.0,
            RewardSchedule::bitcoin(),
            12_000,
            29,
        );
        let plan = FaultPlan::builder().duplication(1.0).build().unwrap();
        let config = DelayConfig::builder()
            .shares(vec![0.35, 0.65])
            .policy(0, sm1_table(0.35, 0.5, 12))
            .tie_gamma(0.5)
            .delay(2.0)
            .blocks(12_000)
            .seed(29)
            .schedule(RewardSchedule::bitcoin())
            .faults(plan)
            .build()
            .unwrap();
        let doubled = DelaySimulation::new(config).run();
        assert_eq!(doubled.report.block_count(), 12_000);
        assert_eq!(
            base.report.total_reward().to_bits(),
            doubled.report.total_reward().to_bits(),
            "inert duplicates must not change the run"
        );
        assert_eq!(
            base.miner(0).total().to_bits(),
            doubled.miner(0).total().to_bits()
        );
    }

    #[test]
    fn lossy_jittery_network_completes_and_conserves() {
        let plan = FaultPlan::builder()
            .loss(0.3)
            .duplication(0.2)
            .jitter(3.0)
            .seed(5)
            .build()
            .unwrap();
        let config = DelayConfig::builder()
            .shares(vec![0.3, 0.3, 0.4])
            .policy(0, sm1_table(0.3, 0.5, 12))
            .tie_gamma(0.5)
            .delay(3.0)
            .blocks(15_000)
            .seed(7)
            .schedule(RewardSchedule::ethereum())
            .faults(plan)
            .build()
            .unwrap();
        let r = DelaySimulation::new(config).run();
        assert_eq!(
            r.report.block_count(),
            15_000,
            "loss delays, never destroys"
        );
        let total: f64 = (0..3).map(|i| r.revenue_share(i)).sum();
        assert!((total - 1.0).abs() < 1e-9, "shares sum to {total}");
    }

    #[test]
    fn all_strategists_crashed_window_recovers() {
        // Both strategists are down for the first half of the run: honest
        // mining proceeds alone (their slots thin out of the Poisson
        // race), and on recovery they resync via the forced-adopt path
        // and resume attacking. Deterministic per seed throughout.
        let mk = |seed| {
            let plan = FaultPlan::builder()
                .downtime(0, 0.0, 70_000.0)
                .downtime(1, 0.0, 70_000.0)
                .build()
                .unwrap();
            let config = DelayConfig::builder()
                .shares(vec![0.3, 0.3, 0.4])
                .policy(0, sm1_table(0.3, 0.5, 12))
                .policy(1, sm1_table(0.3, 0.5, 12))
                .tie_gamma(0.5)
                .delay(2.0)
                .blocks(10_000)
                .seed(seed)
                .schedule(RewardSchedule::bitcoin())
                .faults(plan)
                .build()
                .unwrap();
            DelaySimulation::new(config).run()
        };
        let r = mk(11);
        // Thinning: crashed slots mine nothing, so the tree is smaller
        // than the budget but everything in it is accounted.
        assert!(r.report.block_count() < 10_000);
        assert!(r.report.block_count() > 4_000);
        let total: f64 = (0..3).map(|i| r.revenue_share(i)).sum();
        assert!((total - 1.0).abs() < 1e-9);
        // The strategists still earn after recovery, but far below the
        // all-up baseline.
        assert!(r.revenue_share(0) > 0.0 && r.revenue_share(0) < 0.3);
        let r2 = mk(11);
        assert_eq!(r.report.total_reward(), r2.report.total_reward());
        assert_eq!(r.miner(0).total(), r2.miner(0).total());
    }

    #[test]
    fn crashed_forever_miner_mines_nothing() {
        let plan = FaultPlan::builder()
            .downtime(0, 0.0, f64::INFINITY)
            .build()
            .unwrap();
        let config = DelayConfig::builder()
            .shares(vec![0.4, 0.6])
            .delay(4.0)
            .blocks(8_000)
            .seed(13)
            .faults(plan)
            .build()
            .unwrap();
        let r = DelaySimulation::new(config).run();
        assert_eq!(r.miner(0).total(), 0.0);
        let m = r.miner(0);
        assert_eq!(m.regular_blocks + m.uncle_blocks + m.stale_blocks, 0);
        assert!(r.report.block_count() < 8_000, "its slots thin out");
    }

    #[test]
    fn partition_that_never_heals_diverges() {
        // Two honest camps split for good halfway through the run: each
        // side keeps extending its own view, cross-deliveries stall
        // forever, and the closing fork choice picks one side — the other
        // side's blocks settle as orphans. Wide backoff keeps the eternal
        // retries cheap.
        let plan = FaultPlan::builder()
            .partition(26_000.0, f64::INFINITY, vec![0, 0, 1, 1])
            .backoff(13.0, 3_328.0)
            .build()
            .unwrap();
        let config = DelayConfig::builder()
            .shares(vec![0.3, 0.2, 0.3, 0.2])
            .delay(4.0)
            .blocks(4_000)
            .seed(15)
            .schedule(RewardSchedule::bitcoin())
            .faults(plan)
            .build()
            .unwrap();
        let r = DelaySimulation::new(config).run();
        assert_eq!(r.report.block_count(), 4_000);
        // Both camps mine roughly half the run apiece after the split, so
        // a large fraction of all blocks must end up off-chain.
        assert!(
            r.orphan_rate() > 0.2,
            "a permanent split must orphan a camp: {}",
            r.orphan_rate()
        );
        let total: f64 = (0..4).map(|i| r.revenue_share(i)).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn healing_partition_reconverges() {
        // A timed split heals: the stalled cross-deliveries drain through
        // their backoff retries and both sides converge back onto one
        // chain — the orphan rate stays near the no-fault level instead
        // of the permanent-split level.
        let plan = FaultPlan::builder()
            .partition(13_000.0, 16_000.0, vec![0, 0, 1, 1])
            .build()
            .unwrap();
        let config = DelayConfig::builder()
            .shares(vec![0.3, 0.2, 0.3, 0.2])
            .delay(4.0)
            .blocks(4_000)
            .seed(15)
            .schedule(RewardSchedule::bitcoin())
            .faults(plan)
            .build()
            .unwrap();
        let r = DelaySimulation::new(config).run();
        assert_eq!(r.report.block_count(), 4_000);
        assert!(
            r.orphan_rate() < 0.2,
            "a healed split reconverges: {}",
            r.orphan_rate()
        );
    }

    #[test]
    fn fault_runs_are_deterministic_and_fault_seed_sensitive() {
        let mk = |fault_seed| {
            let plan = FaultPlan::builder()
                .loss(0.2)
                .jitter(2.0)
                .churn(2_000.0, 300.0)
                .seed(fault_seed)
                .build()
                .unwrap();
            let config = DelayConfig::builder()
                .shares(vec![0.35, 0.65])
                .policy(0, sm1_table(0.35, 0.5, 12))
                .tie_gamma(0.5)
                .delay(2.0)
                .blocks(10_000)
                .seed(23)
                .schedule(RewardSchedule::bitcoin())
                .faults(plan)
                .build()
                .unwrap();
            DelaySimulation::new(config).run()
        };
        let (a, b, c) = (mk(1), mk(1), mk(2));
        assert_eq!(a.report.total_reward(), b.report.total_reward());
        assert_eq!(a.miner(0).total(), b.miner(0).total());
        assert_ne!(
            a.report.total_reward(),
            c.report.total_reward(),
            "the fault seed is a real axis of the schedule"
        );
    }

    #[test]
    fn trail_stubborn_table_plays_through() {
        // Policy-space tooling on top of PolicyTable::from_fn: a
        // trail-stubborn variant keeps mining one block behind instead of
        // adopting — legal everywhere, never solver-produced.
        let table = PolicyTable::from_fn3(
            0.4,
            0.5,
            RewardModel::Bitcoin,
            Scenario::RegularRate,
            10,
            0.4,
            |a, h, _| {
                if a > h && h >= 1 {
                    Action::Override
                } else if a + 1 >= h && a < 10 && h < 10 {
                    // Waiting is only legal strictly inside the
                    // truncation region; the boundary must resolve.
                    Action::Wait
                } else {
                    Action::Adopt
                }
            },
        );
        assert!(table.is_legal_everywhere(), "hand-written but fully legal");
        let r = strategic_run(table, 0.4, 0.5, 4.0, RewardSchedule::ethereum(), 20_000, 41);
        assert_eq!(r.report.block_count(), 20_000);
        let share = r.revenue_share(0);
        assert!((0.0..=1.0).contains(&share), "share {share}");
    }

    #[test]
    fn boundary_fallback_matches_an_explicitly_resolved_table() {
        // Regression for the truncation-boundary reconciliation, delay
        // engine side (the instant-broadcast engine has the twin test): a
        // table whose boundary slots still say "wait" and the same table
        // with those slots explicitly resolved to the solver's boundary
        // rule must replay bit-for-bit identically. A tiny truncation
        // walks the strategist onto the boundary constantly.
        let mk = |boundary_resolved: bool| {
            let table = PolicyTable::from_fn3(
                0.4,
                0.5,
                RewardModel::Bitcoin,
                Scenario::RegularRate,
                3,
                0.4,
                move |a, h, _| {
                    if boundary_resolved && (a >= 3 || h >= 3) {
                        Action::Adopt
                    } else {
                        Action::Wait
                    }
                },
            );
            strategic_run(table, 0.4, 0.5, 3.0, RewardSchedule::bitcoin(), 12_000, 77)
        };
        let (implicit, explicit) = (mk(false), mk(true));
        assert_eq!(
            implicit.miner(0).total().to_bits(),
            explicit.miner(0).total().to_bits()
        );
        assert_eq!(
            implicit.report.total_reward().to_bits(),
            explicit.report.total_reward().to_bits()
        );
        assert_eq!(implicit.report.stale_count, explicit.report.stale_count);
        assert_eq!(
            implicit.counters.released_blocks,
            explicit.counters.released_blocks
        );
    }

    #[test]
    fn counters_trace_a_zero_fault_run() {
        let r = run(vec![0.5, 0.5], 4.0, RewardSchedule::ethereum(), 9);
        let c = r.counters;
        // Without crash faults every Poisson slot mines and every honest
        // block is released; no fault path can fire.
        assert_eq!(c.mining_events, 40_000);
        assert_eq!(c.thinned_events, 0);
        assert_eq!(c.released_blocks, 40_000);
        assert_eq!(c.drops, 0);
        assert_eq!(c.regossip_attempts, 0);
        assert_eq!(c.duplicate_deliveries, 0);
        assert_eq!(c.partition_stalls, 0);
        assert_eq!(c.partition_heals, 0);
        assert_eq!(c.crash_misses + c.crash_resyncs, 0);
        assert!(c.deliveries > 0, "views promote released blocks");
        assert_eq!(c.orphan_blocks, r.report.uncle_count + r.report.stale_count);
    }

    #[test]
    fn counters_expose_fault_activity() {
        let plan = FaultPlan::builder()
            .loss(0.25)
            .jitter(2.0)
            .duplication(0.2)
            .churn(2_000.0, 300.0)
            .partition(13_000.0, 16_000.0, vec![0, 0, 1, 1])
            .seed(5)
            .build()
            .unwrap();
        let config = DelayConfig::builder()
            .shares(vec![0.35, 0.25, 0.2, 0.2])
            .policy(0, sm1_table(0.35, 0.5, 12))
            .tie_gamma(0.5)
            .delay(2.0)
            .blocks(10_000)
            .seed(23)
            .schedule(RewardSchedule::bitcoin())
            .faults(plan)
            .build()
            .unwrap();
        let c = DelaySimulation::new(config).run().counters;
        assert!(c.drops > 0, "25% loss must drop gossip");
        assert_eq!(
            c.regossip_attempts,
            c.drops + c.partition_stalls,
            "every drop or stall re-enqueues exactly one retry"
        );
        assert!(c.duplicate_deliveries > 0, "20% duplication fires");
        assert!(c.partition_stalls > 0, "the split stalls cross-deliveries");
        assert_eq!(c.partition_heals, 1, "one timed window closes once");
        assert!(c.thinned_events > 0, "churn thins mining slots");
        assert!(c.adopts + c.overrides + c.matches > 0, "policy acted");
    }

    #[test]
    fn counters_merge_sums_fieldwise() {
        let a = run(vec![0.5, 0.5], 4.0, RewardSchedule::ethereum(), 9).counters;
        let b = run(vec![0.5, 0.5], 4.0, RewardSchedule::ethereum(), 10).counters;
        let mut m = a;
        m.merge(&b);
        for (((key, av), (_, bv)), (_, mv)) in
            a.entries().into_iter().zip(b.entries()).zip(m.entries())
        {
            assert_eq!(mv, av + bv, "{key}");
        }
        let mut shard = seleth_obs::TelemetryShard::new(0);
        m.record_into(&mut shard);
        assert_eq!(shard.counter("delay.mining_events"), 80_000);
    }

    #[test]
    fn complete_uniform_topology_matches_uniform_engine_bitwise() {
        // The acceptance gate in miniature: a complete graph whose every
        // edge carries exactly the uniform delay folds to extra == 0.0
        // bitwise, so the graph engine must replay the uniform engine's
        // event order, RNG draws, and rewards exactly.
        let base = |topo: Option<Topology>| {
            let mut b = DelayConfig::builder();
            b.shares(vec![0.25; 4])
                .delay(6.0)
                .blocks(15_000)
                .seed(2)
                .schedule(RewardSchedule::ethereum());
            if let Some(t) = topo {
                b.topology(t);
            }
            DelaySimulation::new(b.build().unwrap()).run()
        };
        let uniform = base(None);
        let graph = base(Some(Topology::complete(4, 6.0).unwrap()));
        assert_eq!(
            uniform.report.total_reward().to_bits(),
            graph.report.total_reward().to_bits()
        );
        for i in 0..4 {
            assert_eq!(
                uniform.miner(i).total().to_bits(),
                graph.miner(i).total().to_bits(),
                "miner {i}"
            );
        }
        assert_eq!(uniform.report.stale_count, graph.report.stale_count);
        assert_eq!(uniform.report.uncle_count, graph.report.uncle_count);
        // Graph mode additionally reports gossip traffic the uniform
        // engine never tracks.
        assert_eq!(uniform.counters.gossip_sends, 0);
        assert!(graph.counters.gossip_sends > 0);
        assert_eq!(graph.counters.gossip_unreachable, 0);
        assert!(graph.counters.gossip_hops_1 > 0, "complete graph is 1 hop");
        assert_eq!(graph.counters.gossip_hops_2, 0);
    }

    #[test]
    fn strategic_complete_topology_matches_uniform_engine_bitwise() {
        // Same gate with a strategist in the mix: the private-fork release
        // machinery and tie races must also see identical arrival times.
        let base = |topo: Option<Topology>| {
            let mut b = DelayConfig::builder();
            b.shares(vec![0.35, 0.65])
                .policy(0, sm1_table(0.35, 0.5, 12))
                .tie_gamma(0.5)
                .delay(2.0)
                .blocks(10_000)
                .seed(17)
                .schedule(RewardSchedule::bitcoin());
            if let Some(t) = topo {
                b.topology(t);
            }
            DelaySimulation::new(b.build().unwrap()).run()
        };
        let uniform = base(None);
        let graph = base(Some(Topology::complete(2, 2.0).unwrap()));
        assert_eq!(
            uniform.report.total_reward().to_bits(),
            graph.report.total_reward().to_bits()
        );
        assert_eq!(
            uniform.miner(0).total().to_bits(),
            graph.miner(0).total().to_bits()
        );
        assert_eq!(uniform.report.stale_count, graph.report.stale_count);
    }

    #[test]
    fn topology_miner_count_must_match_shares() {
        let err = DelayConfig::builder()
            .shares(vec![0.5, 0.5])
            .topology(Topology::complete(3, 2.0).unwrap())
            .build();
        assert!(matches!(err, Err(SimError::InvalidTopology { .. })));
    }

    #[test]
    fn peripheral_miner_orphans_more_than_well_connected() {
        // Star with one distant spoke: the peripheral miner hears blocks
        // late and loses more of its work than the well-connected peers.
        let topo = Topology::star_relay(&[1.0, 1.0, 1.0, 12.0]).unwrap();
        let config = DelayConfig::builder()
            .shares(vec![0.25; 4])
            .delay(6.0)
            .blocks(30_000)
            .seed(11)
            .schedule(RewardSchedule::bitcoin())
            .topology(topo)
            .build()
            .unwrap();
        let r = DelaySimulation::new(config).run();
        let near: f64 = (0..3).map(|i| r.stale_fraction(i)).sum::<f64>() / 3.0;
        let far = r.stale_fraction(3);
        assert!(
            far > near,
            "peripheral miner stale {far:.4} should exceed core {near:.4}"
        );
        assert!(
            r.counters.gossip_hops_2 > 0,
            "star topology routes through the relay hub"
        );
    }

    #[test]
    fn eclipsed_victim_loses_revenue() {
        let topo = Topology::eclipse(4, 3, 1.0, 20.0).unwrap();
        let config = DelayConfig::builder()
            .shares(vec![0.25; 4])
            .delay(6.0)
            .blocks(30_000)
            .seed(11)
            .schedule(RewardSchedule::bitcoin())
            .topology(topo)
            .build()
            .unwrap();
        let r = DelaySimulation::new(config).run();
        let inner: f64 = (0..3).map(|i| r.advantage(i)).sum::<f64>() / 3.0;
        assert!(
            r.advantage(3) < inner,
            "eclipsed miner advantage {:.4} should trail the inner clique's {inner:.4}",
            r.advantage(3)
        );
    }

    #[test]
    fn graph_mode_composes_with_partition_cuts() {
        // A two-cluster graph plus a timed partition over the matching
        // groups: during the window cross-cluster deliveries stall and
        // re-enqueue, exactly like the uniform engine's group partitions.
        let plan = FaultPlan::builder()
            .partition(10_000.0, 14_000.0, vec![0, 0, 1, 1])
            .seed(5)
            .build()
            .unwrap();
        let config = DelayConfig::builder()
            .shares(vec![0.25; 4])
            .delay(4.0)
            .blocks(20_000)
            .seed(11)
            .schedule(RewardSchedule::ethereum())
            .topology(Topology::two_clusters(2, 2, 1.5, 6.0).unwrap())
            .faults(plan)
            .build()
            .unwrap();
        let r = DelaySimulation::new(config).run();
        assert!(r.counters.partition_stalls > 0, "the cut must stall gossip");
        assert_eq!(r.counters.partition_heals, 1, "one window closes once");
        let baseline = {
            let config = DelayConfig::builder()
                .shares(vec![0.25; 4])
                .delay(4.0)
                .blocks(20_000)
                .seed(11)
                .schedule(RewardSchedule::ethereum())
                .topology(Topology::two_clusters(2, 2, 1.5, 6.0).unwrap())
                .build()
                .unwrap();
            DelaySimulation::new(config).run()
        };
        assert!(
            r.orphan_rate() > baseline.orphan_rate(),
            "a timed cut must raise the fork rate: {} vs {}",
            r.orphan_rate(),
            baseline.orphan_rate()
        );
    }
}
