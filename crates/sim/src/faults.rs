//! Deterministic fault injection for the propagation-delay simulator.
//!
//! Real gossip networks are lossy and churny: messages are dropped,
//! duplicated and reordered, peers crash and rejoin, and links partition
//! and heal. A [`FaultPlan`] describes such an environment as *data* —
//! per-link loss/duplication/jitter rates, miner crash/recovery churn,
//! explicit downtime windows, and timed network partitions — and the delay
//! engine compiles it into its event queue.
//!
//! Two properties anchor the design:
//!
//! - **Determinism.** Every fault decision is a pure function of the
//!   plan's own seed and the identity of the event it applies to (block,
//!   receiver, delivery attempt), computed with dedicated splitmix64
//!   streams and per-miner ChaCha churn generators. The simulator's main
//!   RNG is never consulted, so a given `(config, plan)` pair yields a
//!   bit-identical schedule wherever and however parallel the run is.
//! - **Zero-fault transparency.** [`FaultPlan::none`] injects nothing and
//!   adds exactly `0.0` to every delivery time; because `x + 0.0` is
//!   bitwise `x` for every finite release timestamp, a zero-fault run
//!   reproduces the fault-unaware engine byte for byte (regression-tested
//!   in `tests/chaos_study.rs`).
//!
//! Failed deliveries are re-gossiped with capped exponential backoff in
//! simulation time; crashed strategists resynchronize through the
//! existing forced-adopt path when they rejoin (see
//! [`crate::delay`]). This module is also the substrate the ROADMAP's
//! topology-aware propagation item builds on: a topology is, to first
//! order, a per-link delay/loss matrix — exactly the shape of data a
//! `FaultPlan` already carries per link.

use rand::Rng;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha12Rng;
use serde::{Deserialize, Serialize};

use seleth_net::unit;

use crate::config::SimError;

/// Hash-stream tags: one per independent fault decision, so loss,
/// duplication, jitter and churn coins never correlate.
const STREAM_LOSS: u64 = 1;
const STREAM_DUP: u64 = 2;
const STREAM_JITTER: u64 = 3;
const STREAM_CHURN: u64 = 4;

/// Miner crash/recovery churn: alternating exponentially distributed
/// up/down phases, drawn per miner from a dedicated ChaCha stream keyed
/// by the plan seed. While down, a miner's hash power drops out of the
/// Poisson race and it hears nothing.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Churn {
    /// Mean uptime between crashes (simulation time units).
    pub mean_uptime: f64,
    /// Mean downtime per crash.
    pub mean_downtime: f64,
}

/// An explicit downtime window for one miner: down during `[start, end)`.
/// `end = f64::INFINITY` models a miner that never comes back.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Downtime {
    /// Miner index (into the share vector).
    pub miner: usize,
    /// Crash time.
    pub start: f64,
    /// Recovery time (exclusive); `INFINITY` = never recovers.
    pub end: f64,
}

/// A timed network split: during `[start, end)` a delivery crosses from
/// one side to the other only after the partition heals (its retries keep
/// backing off until then). `end = f64::INFINITY` models a partition that
/// never heals — the two sides finish the run on divergent chains.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Partition {
    /// Activation time.
    pub start: f64,
    /// Heal time (exclusive); `INFINITY` = never heals.
    pub end: f64,
    /// Group id per miner (one entry per miner). Miners in the same group
    /// keep hearing each other; cross-group deliveries stall.
    pub groups: Vec<usize>,
}

impl Partition {
    /// `true` if any miner is assigned to group `g` by this partition.
    pub(crate) fn uses_group(&self, g: usize) -> bool {
        self.groups.contains(&g)
    }
}

/// A complete, seeded fault schedule for one delay run.
///
/// Built with [`FaultPlan::builder`]; [`FaultPlan::none`] (the default)
/// injects nothing. Rates apply per *link delivery attempt* — each
/// `(block, receiver, attempt)` triple draws its own coins — so loss and
/// duplication are independent across receivers, exactly like independent
/// gossip links.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    seed: u64,
    loss: f64,
    duplication: f64,
    jitter: f64,
    backoff_base: f64,
    backoff_cap: f64,
    churn: Option<Churn>,
    downtimes: Vec<Downtime>,
    partitions: Vec<Partition>,
    /// Divergence injection for the flight-recorder diagnostics
    /// (`tests/flight_recorder.rs`): every loss coin of this block index
    /// reports the *opposite* outcome. Still a pure function of the coin's
    /// identity, so the perturbed schedule is as deterministic as the
    /// original — exactly one block's deliveries change.
    flip_drop_block: Option<u64>,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::none()
    }
}

/// Builder for [`FaultPlan`].
#[derive(Debug, Clone)]
pub struct FaultPlanBuilder {
    plan: FaultPlan,
}

impl FaultPlanBuilder {
    /// Seed of the fault schedule's dedicated randomness (independent of
    /// the simulation seed: the same fault environment can be replayed
    /// across many simulation seeds, and vice versa).
    pub fn seed(&mut self, seed: u64) -> &mut Self {
        self.plan.seed = seed;
        self
    }

    /// Per-delivery-attempt loss probability, in `[0, 1]`. Lost
    /// deliveries are re-gossiped with capped exponential backoff.
    pub fn loss(&mut self, loss: f64) -> &mut Self {
        self.plan.loss = loss;
        self
    }

    /// Per-delivery duplication probability, in `[0, 1]`: a successful
    /// delivery is followed by an inert duplicate copy, exercising the
    /// receivers' idempotence.
    pub fn duplication(&mut self, duplication: f64) -> &mut Self {
        self.plan.duplication = duplication;
        self
    }

    /// Maximum per-link reorder jitter (time units): each delivery is
    /// delayed by an extra `Uniform[0, jitter)`, decorrelated across
    /// receivers, so two blocks released in one order can be heard in the
    /// other.
    pub fn jitter(&mut self, jitter: f64) -> &mut Self {
        self.plan.jitter = jitter;
        self
    }

    /// Re-gossip backoff: retry `k` waits `base · 2^k` capped at `cap`
    /// (both in simulation time units).
    pub fn backoff(&mut self, base: f64, cap: f64) -> &mut Self {
        self.plan.backoff_base = base;
        self.plan.backoff_cap = cap;
        self
    }

    /// Enable crash/recovery churn for every miner.
    pub fn churn(&mut self, mean_uptime: f64, mean_downtime: f64) -> &mut Self {
        self.plan.churn = Some(Churn {
            mean_uptime,
            mean_downtime,
        });
        self
    }

    /// Add an explicit downtime window (composable with churn).
    pub fn downtime(&mut self, miner: usize, start: f64, end: f64) -> &mut Self {
        self.plan.downtimes.push(Downtime { miner, start, end });
        self
    }

    /// Add a timed partition assigning each miner a group id. Partitions
    /// must be disjoint in time and sorted by start.
    pub fn partition(&mut self, start: f64, end: f64, groups: Vec<usize>) -> &mut Self {
        self.plan.partitions.push(Partition { start, end, groups });
        self
    }

    /// Diagnostics-only divergence injection: flip the outcome of every
    /// loss coin drawn for `block` (by tree index). Used by the
    /// flight-recorder acceptance tests to manufacture a single, exactly
    /// localizable mid-run divergence; not meant for studies.
    #[doc(hidden)]
    pub fn flip_drop_coin(&mut self, block: u64) -> &mut Self {
        self.plan.flip_drop_block = Some(block);
        self
    }

    /// Validate the numeric content and produce the plan. Miner-count
    /// checks (downtime indices, partition group vectors) happen when the
    /// plan meets a share vector in
    /// [`crate::delay::DelayConfigBuilder::build`].
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidFaultPlan`] for rates outside `[0, 1]`,
    /// negative or non-finite jitter, a non-positive backoff base, a cap
    /// below the base, degenerate churn means, or malformed / overlapping
    /// windows.
    pub fn build(&self) -> Result<FaultPlan, SimError> {
        self.plan.validate_numeric()?;
        Ok(self.plan.clone())
    }
}

fn fault_err(reason: impl Into<String>) -> SimError {
    SimError::InvalidFaultPlan {
        reason: reason.into(),
    }
}

impl FaultPlan {
    /// The zero-fault plan: nothing is lost, duplicated, jittered,
    /// crashed or partitioned. Runs under it are bit-identical to the
    /// fault-unaware engine.
    pub fn none() -> Self {
        FaultPlan {
            seed: 0,
            loss: 0.0,
            duplication: 0.0,
            jitter: 0.0,
            backoff_base: 1.0,
            backoff_cap: 64.0,
            churn: None,
            downtimes: Vec::new(),
            partitions: Vec::new(),
            flip_drop_block: None,
        }
    }

    /// Start building a plan.
    pub fn builder() -> FaultPlanBuilder {
        FaultPlanBuilder {
            plan: FaultPlan::none(),
        }
    }

    /// The plan's own seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Per-attempt loss probability.
    pub fn loss(&self) -> f64 {
        self.loss
    }

    /// Per-delivery duplication probability.
    pub fn duplication(&self) -> f64 {
        self.duplication
    }

    /// Maximum per-link reorder jitter.
    pub fn jitter(&self) -> f64 {
        self.jitter
    }

    /// Crash/recovery churn, if enabled.
    pub fn churn(&self) -> Option<Churn> {
        self.churn
    }

    /// Explicit downtime windows.
    pub fn downtimes(&self) -> &[Downtime] {
        &self.downtimes
    }

    /// Timed partitions.
    pub fn partitions(&self) -> &[Partition] {
        &self.partitions
    }

    /// A copy with a different fault seed (grid sweeps re-seed the fault
    /// schedule alongside the simulation seed).
    pub fn with_seed(&self, seed: u64) -> Self {
        FaultPlan {
            seed,
            ..self.clone()
        }
    }

    /// `true` if any per-link fault (loss, duplication, jitter, or a
    /// diagnostic coin flip) is active.
    pub(crate) fn has_link_faults(&self) -> bool {
        self.loss > 0.0
            || self.duplication > 0.0
            || self.jitter > 0.0
            || self.flip_drop_block.is_some()
    }

    /// `true` if any miner can ever be down.
    pub(crate) fn has_crashes(&self) -> bool {
        self.churn.is_some() || !self.downtimes.is_empty()
    }

    /// `true` if any partition window exists.
    pub(crate) fn has_partitions(&self) -> bool {
        !self.partitions.is_empty()
    }

    /// Number of public frontier views the engine must maintain: one per
    /// partition group id in use, and always at least the shared view 0.
    pub(crate) fn view_count(&self) -> usize {
        1 + self
            .partitions
            .iter()
            .flat_map(|p| p.groups.iter().copied())
            .max()
            .unwrap_or(0)
    }

    /// The partition active at time `t`, if any.
    pub(crate) fn active_partition(&self, t: f64) -> Option<&Partition> {
        let i = self.partitions.partition_point(|p| p.start <= t);
        if i == 0 {
            return None;
        }
        let p = &self.partitions[i - 1];
        (t < p.end).then_some(p)
    }

    /// The partition group miner `m` belongs to at time `t` (group 0 —
    /// the shared network — outside every partition window).
    pub(crate) fn group_of(&self, m: usize, t: f64) -> usize {
        self.active_partition(t).map_or(0, |p| p.groups[m])
    }

    /// `true` if a message from `from` to `to` is stalled by an active
    /// partition at time `t`.
    pub(crate) fn cross_blocked(&self, from: usize, to: usize, t: f64) -> bool {
        self.active_partition(t)
            .is_some_and(|p| p.groups[from] != p.groups[to])
    }

    /// Loss coin for one delivery attempt.
    pub(crate) fn drops(&self, block: u64, receiver: u64, attempt: u32) -> bool {
        let base =
            self.loss > 0.0 && unit(self.hash(STREAM_LOSS, block, receiver, attempt)) < self.loss;
        if self.flip_drop_block == Some(block) {
            return !base;
        }
        base
    }

    /// Duplication coin for one successful delivery.
    pub(crate) fn duplicates(&self, block: u64, receiver: u64, attempt: u32) -> bool {
        self.duplication > 0.0
            && unit(self.hash(STREAM_DUP, block, receiver, attempt)) < self.duplication
    }

    /// Reorder jitter for one delivery attempt: `Uniform[0, jitter)`,
    /// exactly `0.0` when jitter is disabled.
    pub(crate) fn delivery_jitter(&self, block: u64, receiver: u64, attempt: u32) -> f64 {
        if self.jitter == 0.0 {
            return 0.0;
        }
        unit(self.hash(STREAM_JITTER, block, receiver, attempt)) * self.jitter
    }

    /// Re-gossip delay before retry `attempt` (capped exponential).
    pub(crate) fn retry_backoff(&self, attempt: u32) -> f64 {
        let exp = attempt.min(63) as i32;
        (self.backoff_base * 2f64.powi(exp)).min(self.backoff_cap)
    }

    /// One splitmix64 chain over `(plan seed, stream, block, receiver,
    /// attempt)` — the entire per-link randomness of the plan, hashed
    /// exactly like the topology's per-edge draws ([`seleth_net::hash`]).
    fn hash(&self, stream: u64, block: u64, receiver: u64, attempt: u32) -> u64 {
        seleth_net::hash(self.seed, stream, block, receiver, attempt)
    }

    fn validate_numeric(&self) -> Result<(), SimError> {
        for (name, rate) in [("loss", self.loss), ("duplication", self.duplication)] {
            if !rate.is_finite() || !(0.0..=1.0).contains(&rate) {
                return Err(fault_err(format!("{name} must be in [0, 1], got {rate}")));
            }
        }
        if !self.jitter.is_finite() || self.jitter < 0.0 {
            return Err(fault_err(format!(
                "jitter must be finite and non-negative, got {}",
                self.jitter
            )));
        }
        if !self.backoff_base.is_finite() || self.backoff_base <= 0.0 {
            return Err(fault_err(format!(
                "backoff base must be positive finite, got {}",
                self.backoff_base
            )));
        }
        if !self.backoff_cap.is_finite() || self.backoff_cap < self.backoff_base {
            return Err(fault_err(format!(
                "backoff cap must be finite and at least the base, got {}",
                self.backoff_cap
            )));
        }
        if let Some(c) = self.churn {
            for (name, mean) in [
                ("mean uptime", c.mean_uptime),
                ("mean downtime", c.mean_downtime),
            ] {
                if !mean.is_finite() || mean <= 0.0 {
                    return Err(fault_err(format!(
                        "churn {name} must be positive finite, got {mean}"
                    )));
                }
            }
        }
        for d in &self.downtimes {
            // end = INFINITY (never recovers) is legal; start must be a
            // real instant.
            if !d.start.is_finite() || d.start < 0.0 || d.end.is_nan() || d.end <= d.start {
                return Err(fault_err(format!(
                    "downtime window [{}, {}) of miner {} is malformed",
                    d.start, d.end, d.miner
                )));
            }
        }
        let mut prev_end = 0.0f64;
        for p in &self.partitions {
            if !p.start.is_finite() || p.start < 0.0 || p.end.is_nan() || p.end <= p.start {
                return Err(fault_err(format!(
                    "partition window [{}, {}) is malformed",
                    p.start, p.end
                )));
            }
            if p.start < prev_end {
                return Err(fault_err(
                    "partitions must be sorted by start and disjoint in time",
                ));
            }
            prev_end = p.end;
        }
        Ok(())
    }

    /// Full validation against a concrete miner count, called when the
    /// plan is installed into a delay configuration.
    pub(crate) fn validate_for(&self, miners: usize) -> Result<(), SimError> {
        self.validate_numeric()?;
        for d in &self.downtimes {
            if d.miner >= miners {
                return Err(fault_err(format!(
                    "downtime names miner {} but the run has {miners} miners",
                    d.miner
                )));
            }
        }
        for p in &self.partitions {
            if p.groups.len() != miners {
                return Err(fault_err(format!(
                    "partition group vector has {} entries for {miners} miners",
                    p.groups.len()
                )));
            }
            if p.groups.iter().any(|&g| g >= miners) {
                return Err(fault_err(
                    "partition group ids must be smaller than the miner count",
                ));
            }
        }
        Ok(())
    }
}

/// The lazily generated crash schedule of one run: per miner, the merged
/// view of explicit downtime windows and churn-generated ones. Windows
/// are extended on demand as queries advance, from per-miner ChaCha
/// streams keyed by the plan seed alone — the schedule is a constant of
/// the plan, independent of anything the simulation does.
#[derive(Debug)]
pub(crate) struct CrashTimeline {
    miners: Vec<MinerTimeline>,
}

#[derive(Debug)]
struct MinerTimeline {
    /// Explicit windows, sorted by start.
    explicit: Vec<(f64, f64)>,
    churn: Option<ChurnGen>,
}

#[derive(Debug)]
struct ChurnGen {
    rng: ChaCha12Rng,
    mean_uptime: f64,
    mean_downtime: f64,
    /// Generated windows so far, sorted and disjoint.
    windows: Vec<(f64, f64)>,
    /// Start of the next not-yet-generated window.
    next_start: f64,
}

impl ChurnGen {
    fn exp(&mut self, mean: f64) -> f64 {
        let u: f64 = self.rng.gen_range(f64::EPSILON..1.0);
        -mean * u.ln()
    }

    /// Generate windows until the schedule covers time `t`.
    fn ensure(&mut self, t: f64) {
        while self.next_start <= t {
            let start = self.next_start;
            let down = self.exp(self.mean_downtime);
            self.windows.push((start, start + down));
            self.next_start = start + down + self.exp(self.mean_uptime);
        }
    }
}

/// `true` if some window of the sorted, disjoint list covers `t`.
fn covers(windows: &[(f64, f64)], t: f64) -> bool {
    let i = windows.partition_point(|w| w.0 <= t);
    i > 0 && t < windows[i - 1].1
}

impl CrashTimeline {
    pub(crate) fn new(plan: &FaultPlan, miners: usize) -> Self {
        let timelines = (0..miners)
            .map(|m| {
                let mut explicit: Vec<(f64, f64)> = plan
                    .downtimes
                    .iter()
                    .filter(|d| d.miner == m)
                    .map(|d| (d.start, d.end))
                    .collect();
                explicit.sort_by(|a, b| a.0.total_cmp(&b.0));
                let churn = plan.churn.map(|c| {
                    let rng = ChaCha12Rng::seed_from_u64(plan.hash(STREAM_CHURN, m as u64, 0, 0));
                    let mut g = ChurnGen {
                        rng,
                        mean_uptime: c.mean_uptime,
                        mean_downtime: c.mean_downtime,
                        windows: Vec::new(),
                        next_start: 0.0,
                    };
                    // Every miner starts up; the first crash arrives after
                    // an exponential uptime.
                    g.next_start = g.exp(g.mean_uptime);
                    g
                });
                MinerTimeline { explicit, churn }
            })
            .collect();
        CrashTimeline { miners: timelines }
    }

    /// Is miner `m` down at time `t`? (`&mut`: extends the lazy churn
    /// schedule up to `t`.) Queries may go backwards in time — the
    /// generated windows are kept, only generation is monotone.
    pub(crate) fn is_down(&mut self, m: usize, t: f64) -> bool {
        let tl = &mut self.miners[m];
        // Explicit windows may overlap each other; scan the (few) entries.
        if tl.explicit.iter().any(|&(s, e)| s <= t && t < e) {
            return true;
        }
        match &mut tl.churn {
            Some(g) => {
                g.ensure(t);
                covers(&g.windows, t)
            }
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_is_inert_and_default() {
        let p = FaultPlan::none();
        assert_eq!(p, FaultPlan::default());
        assert!(!p.has_link_faults() && !p.has_crashes() && !p.has_partitions());
        assert_eq!(p.view_count(), 1);
        assert_eq!(p.delivery_jitter(1, 2, 3), 0.0);
        assert!(!p.drops(1, 2, 3) && !p.duplicates(1, 2, 3));
        assert!(!p.cross_blocked(0, 1, 10.0));
        let mut tl = CrashTimeline::new(&p, 4);
        assert!(!tl.is_down(0, 1e9));
    }

    #[test]
    fn builder_validation() {
        assert!(FaultPlan::builder().loss(1.5).build().is_err());
        assert!(FaultPlan::builder().loss(-0.1).build().is_err());
        assert!(FaultPlan::builder().duplication(f64::NAN).build().is_err());
        assert!(FaultPlan::builder().jitter(-1.0).build().is_err());
        assert!(FaultPlan::builder().backoff(0.0, 10.0).build().is_err());
        assert!(FaultPlan::builder().backoff(5.0, 1.0).build().is_err());
        assert!(FaultPlan::builder().churn(0.0, 5.0).build().is_err());
        assert!(FaultPlan::builder().downtime(0, 5.0, 5.0).build().is_err());
        assert!(FaultPlan::builder()
            .partition(10.0, 5.0, vec![0, 1])
            .build()
            .is_err());
        // Overlapping partitions are rejected; disjoint sorted ones pass.
        assert!(FaultPlan::builder()
            .partition(0.0, 10.0, vec![0, 1])
            .partition(5.0, 20.0, vec![0, 1])
            .build()
            .is_err());
        let ok = FaultPlan::builder()
            .loss(0.2)
            .duplication(0.1)
            .jitter(1.5)
            .churn(300.0, 30.0)
            .downtime(1, 10.0, f64::INFINITY)
            .partition(0.0, 10.0, vec![0, 1])
            .partition(20.0, f64::INFINITY, vec![1, 0])
            .build()
            .expect("valid plan");
        assert!(ok.has_link_faults() && ok.has_crashes() && ok.has_partitions());
        assert_eq!(ok.view_count(), 2);
    }

    #[test]
    fn miner_count_validation() {
        let plan = FaultPlan::builder()
            .downtime(3, 0.0, 5.0)
            .build()
            .expect("numerically valid");
        assert!(plan.validate_for(3).is_err());
        assert!(plan.validate_for(4).is_ok());
        let plan = FaultPlan::builder()
            .partition(0.0, 5.0, vec![0, 1])
            .build()
            .expect("numerically valid");
        assert!(plan.validate_for(3).is_err(), "group vector too short");
        assert!(plan.validate_for(2).is_ok());
        let plan = FaultPlan::builder()
            .partition(0.0, 5.0, vec![0, 5])
            .build()
            .expect("numerically valid");
        assert!(plan.validate_for(2).is_err(), "group id out of range");
    }

    #[test]
    fn coins_are_deterministic_and_seed_sensitive() {
        let p = FaultPlan::builder().loss(0.5).jitter(2.0).build().unwrap();
        let q = p.with_seed(1);
        let same = (0..200).all(|i| p.drops(i, 3, 0) == p.drops(i, 3, 0));
        assert!(same, "coins are pure functions of their identity");
        let differs = (0..200).any(|i| p.drops(i, 3, 0) != q.drops(i, 3, 0));
        assert!(differs, "different plan seeds give different schedules");
        let jitter_in_range = (0..200).all(|i| {
            let j = p.delivery_jitter(i, 7, 2);
            (0.0..2.0).contains(&j)
        });
        assert!(jitter_in_range);
    }

    #[test]
    fn loss_rate_is_respected() {
        let p = FaultPlan::builder().loss(0.25).build().unwrap();
        let n = 20_000u64;
        let dropped = (0..n).filter(|&i| p.drops(i, 1, 0)).count() as f64;
        let rate = dropped / n as f64;
        assert!((rate - 0.25).abs() < 0.02, "observed loss {rate}");
    }

    #[test]
    fn backoff_is_capped_exponential() {
        let p = FaultPlan::builder().backoff(2.0, 50.0).build().unwrap();
        assert_eq!(p.retry_backoff(0), 2.0);
        assert_eq!(p.retry_backoff(1), 4.0);
        assert_eq!(p.retry_backoff(3), 16.0);
        assert_eq!(p.retry_backoff(5), 50.0, "cap binds");
        assert_eq!(p.retry_backoff(1000), 50.0, "huge attempts stay capped");
    }

    #[test]
    fn partitions_are_time_indexed() {
        let p = FaultPlan::builder()
            .partition(10.0, 20.0, vec![0, 1, 0])
            .partition(30.0, f64::INFINITY, vec![1, 1, 0])
            .build()
            .unwrap();
        assert!(p.active_partition(5.0).is_none());
        assert_eq!(p.group_of(1, 15.0), 1);
        assert_eq!(p.group_of(1, 25.0), 0, "healed between windows");
        assert!(p.cross_blocked(0, 1, 15.0));
        assert!(!p.cross_blocked(0, 2, 15.0));
        assert!(p.cross_blocked(0, 2, 1e12), "the second split never heals");
        assert_eq!(p.view_count(), 2);
    }

    #[test]
    fn churn_timelines_are_deterministic_and_alternate() {
        let p = FaultPlan::builder().churn(100.0, 20.0).build().unwrap();
        let mut a = CrashTimeline::new(&p, 2);
        let mut b = CrashTimeline::new(&p, 2);
        let mut down_seen = false;
        let mut up_seen = false;
        for i in 0..4000 {
            let t = i as f64 * 7.3;
            let da = a.is_down(0, t);
            assert_eq!(da, b.is_down(0, t), "same plan, same schedule");
            down_seen |= da;
            up_seen |= !da;
        }
        assert!(down_seen && up_seen, "both phases occur over a long span");
        // Backwards queries agree with what was generated forwards.
        assert_eq!(a.is_down(0, 35.0), b.is_down(0, 35.0));
        // Per-miner streams are independent: schedules differ somewhere.
        let differs = (0..4000).any(|i| {
            let t = i as f64 * 7.3;
            a.is_down(0, t) != a.is_down(1, t)
        });
        assert!(differs);
    }

    #[test]
    fn explicit_downtime_windows_apply() {
        let p = FaultPlan::builder()
            .downtime(1, 50.0, 80.0)
            .downtime(1, 100.0, f64::INFINITY)
            .build()
            .unwrap();
        let mut tl = CrashTimeline::new(&p, 3);
        assert!(!tl.is_down(1, 49.9));
        assert!(tl.is_down(1, 50.0));
        assert!(tl.is_down(1, 79.9));
        assert!(!tl.is_down(1, 80.0), "recovered at the window end");
        assert!(tl.is_down(1, 1e15), "the second window never ends");
        assert!(!tl.is_down(0, 60.0), "other miners unaffected");
    }
}
