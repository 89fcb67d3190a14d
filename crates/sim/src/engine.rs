//! The discrete-event simulation engine.
//!
//! Mining is simulated at block granularity: since broadcast is
//! instantaneous in the paper's network model (Section IV-A), the system
//! state only changes when a block is found, and the finder is the pool
//! with probability `α` or a uniformly random honest miner otherwise.
//! Honest miners follow the protocol; during a live match race an honest
//! block extends the pool's published prefix with probability `γ` (the
//! network model).
//!
//! Unlike the analytical model, blocks here are real: the engine maintains
//! a [`BlockTree`], publication status, and per-block uncle references
//! created under Ethereum's validity rules at mining time.
//!
//! # One executor
//!
//! Every pool strategy is a decision rule played through the private-fork
//! executor the delay simulator shares ([`crate::fork::PrivateFork`]).
//! Right after each block event the pool decides at the live
//! `(a, h, fork, match_d)` state, publishes the blocks the action
//! releases and applies it, so the recorded state visits are the
//! post-decision states of the paper's Markov model. The decision source
//! is resolved once per run: a built-in rule from [`seleth_mdp::rules`]
//! (SM1, which is the paper's Algorithm 1, lead-stubborn mining without a
//! cash-in bound, or honest mining) or an exported MDP policy artifact
//! ([`seleth_mdp::PolicyTable`], [`crate::config::PoolStrategy::Table`]).

use std::collections::HashMap;
use std::sync::Arc;

use rand::Rng;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha12Rng;

use seleth_chain::{classify, BlockId, BlockTree, MinerId};
use seleth_mdp::{rules, Action, Fork, PolicyTable};
use seleth_obs::{EventKind, EventLog};

use crate::config::{PoolStrategy, SimConfig};
use crate::fork::PrivateFork;
use crate::stats::SimReport;

/// Record one flight-recorder event if a log is attached. Free function so
/// call sites that have destructured `self` can still record; one branch
/// when no log (or a disabled log) is attached.
#[inline]
pub(crate) fn record_event(
    events: &Option<Arc<EventLog>>,
    kind: EventKind,
    actor: u32,
    a: u64,
    b: u64,
) {
    if let Some(log) = events {
        log.record(kind, actor, a, b);
    }
}

/// The miner id used for the selfish pool.
pub const POOL: MinerId = MinerId(0);

/// Where the pool's decisions come from, resolved once per run.
#[derive(Debug, Clone)]
enum Decider {
    /// A built-in rule over `(a, h, fork, match_d)`.
    Rule(fn(u32, u32, Fork, u8) -> Action),
    /// An exported policy artifact, resolved by [`PolicyTable::decide`].
    Table(Arc<PolicyTable>),
}

impl Decider {
    /// The configured table, or the built-in rule the strategy names.
    fn new(config: &SimConfig) -> Self {
        if let Some(table) = config.shared_policy() {
            return Decider::Table(Arc::clone(table));
        }
        Decider::Rule(match config.strategy() {
            PoolStrategy::Honest => |a, h, _, _| rules::honest(a, h),
            PoolStrategy::LeadStubborn => {
                |a, h, fork, _| rules::lead_stubborn(a, h, fork, u32::MAX)
            }
            // A `Table` configuration always carries its table
            // (`SimConfigBuilder::build`), so only `Selfish` lands here.
            PoolStrategy::Selfish | PoolStrategy::Table => |a, h, fork, _| rules::sm1(a, h, fork),
        })
    }

    fn decide(&self, epoch: &PrivateFork) -> Action {
        let (a, h, fork, match_d) = epoch.state();
        match self {
            Decider::Rule(rule) => rule(a, h, fork, match_d),
            Decider::Table(table) => table.decide(a, h, fork, match_d),
        }
    }
}

/// A running simulation. Construct with [`Simulation::new`], drive with
/// [`Simulation::run`] (or [`Simulation::step`] for fine-grained control).
#[derive(Debug)]
pub struct Simulation {
    config: SimConfig,
    decider: Decider,
    rng: ChaCha12Rng,
    tree: BlockTree,
    published: Vec<bool>,
    /// The pool's epoch: everything above the last consensus block. The
    /// honest branch above the fork base is `epoch.h` blocks long.
    epoch: PrivateFork,
    /// The honest branch's tip; meaningful only while `epoch.h > 0`.
    honest_tip: BlockId,
    /// Reused by every `mint` for its uncle references.
    uncle_refs: Vec<BlockId>,
    // --- statistics ---
    blocks_mined: u64,
    state_visits: Visits,
    /// Optional flight recorder ([`Simulation::attach_events`]); `None`
    /// (the default) keeps every instrumentation site a single branch.
    events: Option<Arc<EventLog>>,
}

impl Simulation {
    /// Set up a simulation for `config`.
    pub fn new(config: SimConfig) -> Self {
        let tree = BlockTree::new();
        let rng = ChaCha12Rng::seed_from_u64(config.seed());
        let genesis = tree.genesis();
        Simulation {
            decider: Decider::new(&config),
            config,
            rng,
            tree,
            published: vec![true], // genesis
            epoch: PrivateFork::new(genesis),
            honest_tip: genesis,
            uncle_refs: Vec::new(),
            blocks_mined: 0,
            state_visits: Visits::new(),
            events: None,
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// Attach a flight recorder: every mined block, publication and policy
    /// decision is recorded as a canonical [`EventKind`] event. Recording
    /// only *reads* engine state (it never touches the RNG), so an
    /// attached — even enabled — log cannot change a run's results; the
    /// recorder survives [`Simulation::reset`] so reused engines keep
    /// recording across seeds.
    pub fn attach_events(&mut self, log: Arc<EventLog>) {
        self.events = Some(log);
    }

    /// Re-arm this simulation for a fresh run under `config`, recycling the
    /// block-tree arena and bookkeeping vectors.
    ///
    /// Produces a state indistinguishable from `Simulation::new(config)`
    /// (same RNG stream, same empty tree) without reallocating, which is
    /// what lets [`crate::multi::run_many`] reuse one engine per worker
    /// across many seeds.
    pub fn reset(&mut self, config: SimConfig) {
        self.rng = ChaCha12Rng::seed_from_u64(config.seed());
        self.decider = Decider::new(&config);
        self.config = config;
        self.tree.reset();
        self.published.clear();
        self.published.push(true); // genesis
        self.epoch.reset(self.tree.genesis());
        self.honest_tip = self.tree.genesis();
        self.blocks_mined = 0;
        self.state_visits.clear();
    }

    /// The current `(Ls, Lh)` state, for inspection and testing.
    pub fn state(&self) -> (u32, u32) {
        (self.epoch.private.len() as u32, self.epoch.h as u32)
    }

    /// Borrow the block tree built so far.
    pub fn tree(&self) -> &BlockTree {
        &self.tree
    }

    /// `true` if the block has been broadcast to the network.
    pub fn is_published(&self, id: BlockId) -> bool {
        self.published[id.index()]
    }

    /// Run to the configured block budget and produce the report.
    pub fn run(mut self) -> SimReport {
        self.run_in_place()
    }

    /// As [`Simulation::run`], but borrowing: afterwards the engine can be
    /// [`Simulation::reset`] and reused for another run.
    pub fn run_in_place(&mut self) -> SimReport {
        while self.blocks_mined < self.config.blocks() {
            self.step();
        }
        self.finalize_in_place()
    }

    /// Mine exactly one block (pool with probability `α`, honest
    /// otherwise), then let the pool decide on the new state.
    pub fn step(&mut self) {
        if self.rng.gen_bool(self.config.alpha()) {
            self.mine_private();
        } else {
            let id = MinerId(self.rng.gen_range(1..=self.config.n_honest()));
            self.mine_public(id);
        }
        self.act();
        self.blocks_mined += 1;
        let s = self.state();
        self.state_visits.count(s);
    }

    /// Finish: publish any remaining private blocks (what the pool would do
    /// when it stops attacking) and account the tree.
    pub fn finalize(mut self) -> SimReport {
        self.finalize_in_place()
    }

    fn finalize_in_place(&mut self) -> SimReport {
        self.publish_all_private();
        SimReport::from_simulation(
            &self.config,
            &self.tree,
            self.blocks_mined,
            self.state_visits.to_map(),
        )
    }

    // ------------------------------------------------------------------
    // Block events and the pool's decision
    // ------------------------------------------------------------------

    /// The pool's block: always mined privately on its branch
    /// (publication is the decision's job).
    fn mine_private(&mut self) {
        let block = self.mint(self.epoch.tip(), POOL);
        self.epoch.push(block);
    }

    /// An honest block. During an active race the miner picks the pool's
    /// published prefix with probability `γ` (resolving the race for the
    /// pool — the MDP's `γβ` branch: the prefix settles and the new block
    /// starts the next epoch on top of it); otherwise the honest branch
    /// simply grows and any race falls back to *relevant*.
    fn mine_public(&mut self, miner: MinerId) {
        let won = self.epoch.published;
        let race_won = self.epoch.fork == Fork::Active && {
            debug_assert_eq!(
                won, self.epoch.h,
                "an active race is two equal-length public branches"
            );
            self.rng.gen_bool(self.config.gamma())
        };
        let parent = if race_won {
            self.epoch.private[won - 1]
        } else {
            self.public_tip()
        };
        let block = self.mint(parent, miner);
        self.publish(block);
        if race_won {
            self.epoch.settle(won);
        }
        // The honest block extends the public branch above the fork base.
        self.epoch.h += 1;
        self.honest_tip = block;
        self.epoch.fork = Fork::Relevant;
    }

    /// Decide at the live `(a, h, fork, match_d)` state and execute the
    /// action: record the decision, publish the blocks it releases, then
    /// apply it to the epoch. A table's out-of-truncation states and
    /// illegal prescriptions resolve to a forced *adopt*
    /// ([`PolicyTable::decide`]); the built-in rules are legal everywhere.
    fn act(&mut self) {
        let action = self.decider.decide(&self.epoch);
        let kind = match action {
            Action::Wait => return,
            Action::Adopt => EventKind::Adopt,
            Action::Override => EventKind::Override,
            Action::Match => EventKind::Match,
        };
        record_event(
            &self.events,
            kind,
            POOL.0,
            self.epoch.private.len() as u64,
            self.epoch.h as u64,
        );
        for i in self.epoch.releases(action) {
            self.publish(self.epoch.private[i]);
        }
        let tip = self.public_tip();
        self.epoch.apply(action, &self.tree, tip);
    }

    // ------------------------------------------------------------------
    // Plumbing
    // ------------------------------------------------------------------

    /// Create a block on `parent` referencing every published eligible
    /// uncle ([`classify::select_uncles`]). Miners never need to tell pool
    /// from honest visibility here: unpublished pool blocks are always
    /// ancestors of the pool's own next block, and ancestors are never
    /// candidates.
    fn mint(&mut self, parent: BlockId, miner: MinerId) -> BlockId {
        let schedule = self.config.schedule();
        let published = &self.published;
        classify::select_uncles(
            &self.tree,
            parent,
            schedule.max_uncle_distance(),
            schedule.max_uncles_per_block(),
            |u| published[u.index()],
            &mut self.uncle_refs,
        );
        let id = self
            .tree
            .add_block(parent, miner, &self.uncle_refs)
            .expect("engine only uses ids it created");
        self.published.push(false);
        record_event(
            &self.events,
            EventKind::Mine,
            miner.0,
            id.index() as u64,
            self.tree.height(id),
        );
        id
    }

    fn publish(&mut self, id: BlockId) {
        if !self.published[id.index()] {
            record_event(
                &self.events,
                EventKind::Release,
                self.tree.block(id).miner().0,
                id.index() as u64,
                self.tree.height(id),
            );
        }
        self.published[id.index()] = true;
    }

    fn publish_all_private(&mut self) {
        for i in self.epoch.published..self.epoch.private.len() {
            self.publish(self.epoch.private[i]);
        }
        self.epoch.published = self.epoch.private.len();
    }

    /// The honest branch's tip, or the fork base while it is empty.
    fn public_tip(&self) -> BlockId {
        if self.epoch.h > 0 {
            self.honest_tip
        } else {
            self.epoch.base
        }
    }
}

/// Bounds of the dense `(Ls, Lh)` visit grid: `Ls < VISIT_LS` and
/// `Lh < VISIT_LH`. The pool's lead reaches the forties at α = 0.45 while
/// the honest branch stays short, so runs below α ≈ 0.47 almost never
/// leave the grid; states past it are counted in a map.
const VISIT_LS: usize = 64;
const VISIT_LH: usize = 16;

/// Visit counts of the `(Ls, Lh)` state after each block event: an index
/// into a flat grid per step, and a hash lookup only past the grid.
#[derive(Debug)]
struct Visits {
    grid: Vec<u64>,
    overflow: HashMap<(u32, u32), u64>,
}

impl Visits {
    fn new() -> Self {
        Visits {
            grid: vec![0; VISIT_LS * VISIT_LH],
            overflow: HashMap::new(),
        }
    }

    #[inline]
    fn count(&mut self, (a, h): (u32, u32)) {
        let (i, j) = (a as usize, h as usize);
        if i < VISIT_LS && j < VISIT_LH {
            self.grid[i * VISIT_LH + j] += 1;
        } else {
            *self.overflow.entry((a, h)).or_insert(0) += 1;
        }
    }

    fn clear(&mut self) {
        self.grid.fill(0);
        self.overflow.clear();
    }

    /// Every visited state with its count.
    fn to_map(&self) -> HashMap<(u32, u32), u64> {
        let mut map = self.overflow.clone();
        for (cell, &n) in self.grid.iter().enumerate() {
            if n > 0 {
                let state = ((cell / VISIT_LH) as u32, (cell % VISIT_LH) as u32);
                map.insert(state, n);
            }
        }
        map
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seleth_chain::RewardSchedule;

    /// A scripted α = 0.3, γ = 0.5 engine running `strategy`.
    fn sim(strategy: PoolStrategy) -> Simulation {
        let config = SimConfig::builder()
            .alpha(0.3)
            .gamma(0.5)
            .n_honest(99)
            .blocks(u64::MAX) // stepped manually
            .strategy(strategy)
            .seed(1)
            .build()
            .unwrap();
        Simulation::new(config)
    }

    /// Drive the simulation with a scripted winner sequence by re-seeding
    /// is impractical; instead each scripted step forces the winner and
    /// then lets the pool decide, exactly as [`Simulation::step`] does.
    impl Simulation {
        fn force_pool(&mut self) {
            self.mine_private();
            self.act();
            self.blocks_mined += 1;
        }
        fn force_honest(&mut self) {
            self.mine_public(MinerId(1));
            self.act();
            self.blocks_mined += 1;
        }
    }

    #[test]
    fn honest_only_chain_is_linear() {
        let mut s = sim(PoolStrategy::Selfish);
        for _ in 0..10 {
            s.force_honest();
        }
        assert_eq!(s.state(), (0, 0));
        assert_eq!(s.tree().max_height(), 10);
        assert_eq!(s.tree().leaves().len(), 1);
    }

    #[test]
    fn pool_withholds_until_threat() {
        let mut s = sim(PoolStrategy::Selfish);
        s.force_pool();
        assert_eq!(s.state(), (1, 0));
        s.force_pool();
        assert_eq!(s.state(), (2, 0));
        // The two private blocks are not published.
        let unpublished: Vec<_> = s
            .tree()
            .iter()
            .filter(|b| !b.is_genesis() && !s.is_published(b.id()))
            .collect();
        assert_eq!(unpublished.len(), 2);
    }

    #[test]
    fn lead_two_resolves_on_honest_block() {
        // (2,0) + honest block → pool publishes everything (Case 9).
        let mut s = sim(PoolStrategy::Selfish);
        s.force_pool();
        s.force_pool();
        s.force_honest();
        assert_eq!(s.state(), (0, 0));
        // All blocks published; pool branch is the main chain.
        assert!(s.tree().iter().all(|b| s.is_published(b.id())));
        assert_eq!(s.tree().max_height(), 2);
    }

    #[test]
    fn tie_race_from_one_block_lead() {
        // (1,0) + honest → (1,1): both length-1 branches public.
        let mut s = sim(PoolStrategy::Selfish);
        s.force_pool();
        s.force_honest();
        assert_eq!(s.state(), (1, 1));
        assert!(s.tree().iter().all(|b| s.is_published(b.id())));
        // Pool mines again: (2,1) → immediate full publication & reset.
        s.force_pool();
        assert_eq!(s.state(), (0, 0));
    }

    #[test]
    fn honest_resolution_of_tie_adopts() {
        let mut s = sim(PoolStrategy::Selfish);
        s.force_pool();
        s.force_honest(); // (1,1)
        s.force_honest(); // race resolved by honest block
        assert_eq!(s.state(), (0, 0));
        assert_eq!(s.tree().max_height(), 2);
    }

    #[test]
    fn long_lead_publishes_one_by_one() {
        let mut s = sim(PoolStrategy::Selfish);
        for _ in 0..5 {
            s.force_pool();
        }
        assert_eq!(s.state(), (5, 0));
        s.force_honest();
        assert_eq!(s.state(), (5, 1));
        assert_eq!(s.epoch.published, 1, "exactly one private block published");
        s.force_honest(); // γ decides prefix vs honest branch
        let (ls, lh) = s.state();
        assert!(
            (ls == 5 && lh == 2) || (ls == 4 && lh == 1),
            "case 7 or case 11, got ({ls},{lh})"
        );
    }

    #[test]
    fn uncle_references_created() {
        // Pool wins a 2-lead race; the honest loser is referenced by the
        // next block.
        let mut s = sim(PoolStrategy::Selfish);
        s.force_pool();
        s.force_pool();
        s.force_honest(); // honest block orphaned at height 1
        s.force_honest(); // next honest block should reference it
        let with_refs: Vec<_> = s
            .tree()
            .iter()
            .filter(|b| !b.uncle_refs().is_empty())
            .collect();
        assert!(!with_refs.is_empty(), "the orphan must be referenced");
    }

    #[test]
    fn no_references_under_bitcoin_schedule() {
        let config = SimConfig::builder()
            .alpha(0.35)
            .schedule(RewardSchedule::bitcoin())
            .blocks(3_000)
            .seed(3)
            .build()
            .unwrap();
        let sim = Simulation::new(config);
        let report = sim.run();
        assert_eq!(report.reward_report.uncle_count, 0);
    }

    #[test]
    fn deterministic_under_seed() {
        let run = |seed| {
            let config = SimConfig::builder()
                .alpha(0.3)
                .blocks(2_000)
                .seed(seed)
                .build()
                .unwrap();
            let r = Simulation::new(config).run();
            (
                r.reward_report.regular_count,
                r.reward_report.uncle_count,
                r.pool.total(),
            )
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43));
    }

    #[test]
    fn honest_pool_strategy_creates_no_forks() {
        let config = SimConfig::builder()
            .alpha(0.4)
            .strategy(PoolStrategy::Honest)
            .blocks(5_000)
            .seed(17)
            .build()
            .unwrap();
        let report = Simulation::new(config).run();
        assert_eq!(report.reward_report.regular_count, 5_000);
        assert_eq!(report.reward_report.uncle_count, 0);
        assert_eq!(report.reward_report.stale_count, 0);
        // Fair share: binomial(5000, 0.4)/5000 stays within ~4σ of 0.4.
        let share = report.relative_pool_share();
        assert!((share - 0.4).abs() < 0.03, "honest pool share {share}");
    }

    #[test]
    fn stubborn_pool_skips_the_two_one_concession() {
        let mut s = sim(PoolStrategy::LeadStubborn);
        s.force_pool();
        s.force_honest(); // (1,1)
        s.force_pool(); // selfish would publish-and-reset; stubborn holds
        assert_eq!(s.state(), (2, 1));
    }

    #[test]
    fn stubborn_never_concedes_at_lead_one() {
        let mut s = sim(PoolStrategy::LeadStubborn);
        s.force_pool();
        s.force_pool(); // (2,0)
        s.force_honest(); // selfish: publish all, reset; stubborn: match one
        assert_eq!(s.state(), (2, 1));
        s.force_honest(); // match again → full tie (2,2)
        let (ls, lh) = s.state();
        assert!(
            (ls == 2 && lh == 2) || (ls == 1 && lh == 1),
            "tie or rebased tie, got ({ls},{lh})"
        );
    }

    #[test]
    fn stubborn_runs_account_consistently() {
        let config = SimConfig::builder()
            .alpha(0.4)
            .gamma(0.5)
            .strategy(PoolStrategy::LeadStubborn)
            .blocks(20_000)
            .n_honest(100)
            .seed(3)
            .build()
            .unwrap();
        let report = Simulation::new(config).run();
        assert_eq!(report.reward_report.block_count(), 20_000);
        let (reg, unc, stale) = report.block_type_fractions();
        assert!((reg + unc + stale - 1.0).abs() < 1e-12);
        assert!(unc > 0.0, "stubborn racing should orphan blocks");
    }

    fn table_sim(table: PolicyTable, alpha: f64, gamma: f64, seed: u64) -> Simulation {
        let config = SimConfig::builder()
            .alpha(alpha)
            .gamma(gamma)
            .n_honest(99)
            .blocks(u64::MAX) // stepped manually
            .seed(seed)
            .policy(table)
            .build()
            .unwrap();
        Simulation::new(config)
    }

    /// A classic table truncated at `max_len` that plays `rule`.
    fn table(max_len: u32, rule: impl Fn(u32, u32, Fork) -> Action) -> PolicyTable {
        crate::delay::tests::classic_table(0.3, 0.5, max_len, rule)
    }

    /// A table that always waits (adopting only where wait is absent from
    /// the artifact, i.e. outside truncation via fallback).
    fn all_wait_table(max_len: u32) -> PolicyTable {
        table(max_len, |_, _, _| Action::Wait)
    }

    #[test]
    fn playback_override_settles_the_lead() {
        // Sapirshtein-style: wait at (1,0) and (2,0); override once honest
        // catches up. Encode just that far and rely on fallback elsewhere.
        let table = table(8, |a, h, _| {
            if a > h {
                if h >= 1 {
                    Action::Override
                } else {
                    Action::Wait
                }
            } else {
                Action::Adopt
            }
        });
        let mut s = table_sim(table, 0.3, 0.5, 1);
        s.force_pool();
        s.force_pool();
        assert_eq!(s.state(), (2, 0), "leads are held privately");
        // The decision right after the honest block, at (2, 1), overrides:
        // the two pool blocks publish and the honest block is orphaned.
        s.force_honest();
        assert_eq!(s.state(), (0, 0), "override settled the epoch");
        assert_eq!(s.tree().max_height(), 2);
        assert!(s.tree().iter().all(|b| s.is_published(b.id())));
    }

    #[test]
    fn playback_match_splits_and_gamma_resolves() {
        // Always match when possible, γ = 1: every honest block after a
        // match mines on the pool's prefix, handing the pool the epoch.
        let table = table(8, |a, h, fork| {
            if fork == Fork::Relevant && a >= h && h >= 1 {
                Action::Match
            } else if a > h || h == 0 {
                Action::Wait
            } else {
                Action::Adopt
            }
        });
        let mut s = table_sim(table, 0.3, 1.0, 1);
        s.force_pool(); // (1,0) private
        s.force_honest(); // (1,1) relevant: the decision matches
        assert_eq!(s.state(), (1, 1));
        assert_eq!(s.epoch.fork, Fork::Active, "the prefix is published");
        // The honest block mines on the prefix with probability γ = 1: the
        // pool wins, and the new epoch's (0, 1) adopts the honest block.
        s.force_honest();
        assert_eq!(s.state(), (0, 0), "γβ outcome: pool block won, new epoch");
        // The pool's block is on the main chain, under the honest block.
        assert_eq!(s.tree().max_height(), 2);
        let parent = s.tree().block(s.epoch.base).parent().unwrap();
        assert_eq!(s.tree().block(parent).miner(), POOL);
    }

    #[test]
    fn playback_fallback_forces_adopt_outside_truncation() {
        // An all-wait table truncated at 3: the executor forces adopt the
        // moment either chain reaches the boundary — the solver's own
        // boundary rule — so the post-decision state never even sits on
        // the boundary.
        let mut s = table_sim(all_wait_table(3), 0.3, 0.5, 7);
        for _ in 0..2_000 {
            s.step();
        }
        let (max_a, max_h) = s
            .state_visits
            .to_map()
            .keys()
            .fold((0, 0), |(ma, mh), &(a, h)| (ma.max(a), mh.max(h)));
        assert!(
            max_a < 3,
            "private branch must adopt at the boundary: {max_a}"
        );
        assert!(
            max_h < 3,
            "honest branch must be adopted at the boundary: {max_h}"
        );
        // Adopt abandons unpublished blocks: they settle as stale.
        let report = s.finalize();
        assert!(report.reward_report.stale_count > 0);
    }

    #[test]
    fn boundary_fallback_is_bit_identical_to_an_explicitly_resolved_table() {
        // Regression for the truncation-boundary reconciliation: a table
        // whose boundary slots still say "wait" and the same table with
        // those slots explicitly resolved to the solver's boundary rule
        // must replay bit-for-bit identically — proof the executor's
        // runtime fallback *is* the solver's forced resolution, not one
        // slot later.
        let resolved = table(3, |a, h, _| {
            if a >= 3 || h >= 3 {
                Action::Adopt
            } else {
                Action::Wait
            }
        });
        assert!(resolved.is_legal_everywhere());
        let mut implicit = table_sim(all_wait_table(3), 0.3, 0.5, 7);
        let mut explicit = table_sim(resolved, 0.3, 0.5, 7);
        let log = Arc::new(EventLog::new(1 << 16));
        implicit.attach_events(Arc::clone(&log));
        for _ in 0..2_000 {
            implicit.step();
            explicit.step();
        }
        // The walk genuinely reaches the boundary in this run: the
        // post-decision states never sit there, but the decisions taken
        // there are the forced adopts...
        assert!(
            log.events()
                .iter()
                .any(|e| e.kind == EventKind::Adopt && (e.a == 3 || e.b == 3)),
            "strategist never reached the truncation boundary"
        );
        // ...and both tables traced exactly the same trajectory.
        assert_eq!(
            implicit.state_visits.to_map(),
            explicit.state_visits.to_map()
        );
        let (ri, re) = (implicit.finalize(), explicit.finalize());
        assert_eq!(
            ri.reward_report.miner(POOL).total().to_bits(),
            re.reward_report.miner(POOL).total().to_bits()
        );
        assert_eq!(ri.reward_report.stale_count, re.reward_report.stale_count);
    }

    #[test]
    fn playback_illegal_actions_degrade_to_adopt() {
        // A malicious/corrupt table prescribing override everywhere: with
        // a = 0 ≤ h the override is illegal and must degrade to adopt
        // rather than panic.
        let table = table(6, |_, _, _| Action::Override);
        let mut s = table_sim(table, 0.3, 0.5, 3);
        for _ in 0..500 {
            s.step();
        }
        let report = s.finalize();
        assert!(report.reward_report.block_count() >= 500);
    }

    #[test]
    fn playback_is_deterministic_per_seed() {
        let run = |seed| {
            let mut s = table_sim(all_wait_table(6), 0.35, 0.5, seed);
            for _ in 0..3_000 {
                s.step();
            }
            let r = s.finalize();
            (r.pool.total(), r.reward_report.regular_count)
        };
        assert_eq!(run(9), run(9));
        assert_ne!(run(9), run(10));
    }

    #[test]
    fn state_visits_past_the_grid_match_a_per_step_count() {
        // A lead-stubborn pool at α = 0.49 races long enough to leave the
        // dense grid; the report must still count every visited state.
        let config = SimConfig::builder()
            .alpha(0.49)
            .gamma(0.5)
            .n_honest(99)
            .strategy(PoolStrategy::LeadStubborn)
            .blocks(20_000)
            .seed(2)
            .build()
            .unwrap();
        let mut s = Simulation::new(config);
        let mut want: HashMap<(u32, u32), u64> = HashMap::new();
        for _ in 0..20_000 {
            s.step();
            *want.entry(s.state()).or_insert(0) += 1;
        }
        let inside = |&(a, h): &(u32, u32)| (a as usize) < VISIT_LS && (h as usize) < VISIT_LH;
        assert!(
            want.keys().any(|s| !inside(s)),
            "the run never left the grid"
        );
        assert!(want.keys().any(inside));
        assert_eq!(s.finalize().state_visits, want);
    }

    #[test]
    fn alpha_zero_never_mines_pool_blocks() {
        let config = SimConfig::builder()
            .alpha(0.0)
            .blocks(1_000)
            .seed(9)
            .build()
            .unwrap();
        let report = Simulation::new(config).run();
        assert_eq!(report.pool.total(), 0.0);
        assert_eq!(report.reward_report.regular_count, 1_000);
        assert_eq!(
            report.reward_report.stale_count + report.reward_report.uncle_count,
            0
        );
    }
}
