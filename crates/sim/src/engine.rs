//! The discrete-event simulation engine.
//!
//! Mining is simulated at block granularity: since broadcast is
//! instantaneous in the paper's network model (Section IV-A), the system
//! state only changes when a block is found, and the finder is the pool
//! with probability `α` or a uniformly random honest miner otherwise. The
//! selfish pool runs Algorithm 1 verbatim; honest miners follow the
//! protocol, breaking ties toward the pool's published branch with
//! probability `γ`.
//!
//! Unlike the analytical model, blocks here are real: the engine maintains
//! a [`BlockTree`], publication status, and per-block uncle references
//! created under Ethereum's validity rules at mining time.
//!
//! # Policy playback
//!
//! Besides the three hand-coded strategies, the engine can replay an
//! exported MDP policy artifact ([`seleth_mdp::PolicyTable`],
//! [`crate::config::PoolStrategy::Table`]). Before every block event the
//! pool consults the table at the live `(a, h, fork, match_d)` state and
//! executes the prescribed action over the real block tree through the
//! executor the delay simulator shares ([`crate::fork::PrivateFork`]).
//! During a live match race an honest block extends the pool's prefix
//! with probability `γ`.

use std::collections::HashMap;
use std::sync::Arc;

use rand::Rng;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha12Rng;

use seleth_chain::{classify, BlockId, BlockTree, MinerId};
use seleth_mdp::{Action, Fork};
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

/// A running simulation. Construct with [`Simulation::new`], drive with
/// [`Simulation::run`] (or [`Simulation::step`] for fine-grained control).
#[derive(Debug)]
pub struct Simulation {
    config: SimConfig,
    rng: ChaCha12Rng,
    tree: BlockTree,
    published: Vec<bool>,
    /// The pool's epoch: everything above the last consensus block. The
    /// honest branch above the fork base is `epoch.h` blocks long (the
    /// hand-coded strategies ignore `fork` and `match_d`).
    epoch: PrivateFork,
    /// The honest branch's tip; meaningful only while `epoch.h > 0`.
    honest_tip: BlockId,
    // --- statistics ---
    blocks_mined: u64,
    state_visits: HashMap<(u32, u32), u64>,
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
            config,
            rng,
            tree,
            published: vec![true], // genesis
            epoch: PrivateFork::new(genesis),
            honest_tip: genesis,
            blocks_mined: 0,
            state_visits: HashMap::new(),
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

    /// Detach the flight recorder, restoring the zero-overhead path.
    pub fn detach_events(&mut self) -> Option<Arc<EventLog>> {
        self.events.take()
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
    /// otherwise) and apply the strategy updates. Under
    /// [`PoolStrategy::Table`] the pool's table action is applied *before*
    /// the block event, mirroring the MDP's decision order.
    pub fn step(&mut self) {
        if self.config.strategy() == PoolStrategy::Table {
            self.policy_act();
        }
        let pool_wins = self.rng.gen_bool(self.config.alpha());
        if pool_wins {
            match self.config.strategy() {
                PoolStrategy::Honest => self.honest_mines(POOL),
                PoolStrategy::Selfish | PoolStrategy::LeadStubborn => self.pool_mines(),
                PoolStrategy::Table => self.policy_pool_mines(),
            }
        } else {
            let id = MinerId(self.rng.gen_range(1..=self.config.n_honest()));
            match self.config.strategy() {
                PoolStrategy::Table => self.policy_honest_mines(id),
                _ => self.honest_mines(id),
            }
        }
        self.blocks_mined += 1;
        let s = self.state();
        *self.state_visits.entry(s).or_insert(0) += 1;
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
            std::mem::take(&mut self.state_visits),
        )
    }

    // ------------------------------------------------------------------
    // Pool behaviour (Algorithm 1, "the selfish pool mines a new block")
    // ------------------------------------------------------------------

    fn pool_mines(&mut self) {
        let block = self.mint(self.epoch.tip(), POOL);
        self.epoch.push(block);
        // Lines 3-5 of Algorithm 1: with (Ls, Lh) = (2, 1) the advantage is
        // too slim; publish and settle. This state is reachable only from
        // (1, 1). A Lead-Stubborn pool skips this concession and keeps the
        // new block private.
        if self.config.strategy() == PoolStrategy::Selfish
            && self.epoch.private.len() == 2
            && self.epoch.h == 1
        {
            self.publish_all_private();
            self.epoch.reset(block);
        }
        // Otherwise: keep mining privately (lines 6-7).
    }

    // ------------------------------------------------------------------
    // Honest behaviour (protocol + Algorithm 1's reactions)
    // ------------------------------------------------------------------

    fn honest_mines(&mut self, miner: MinerId) {
        let ls = self.epoch.private.len();
        let lh = self.epoch.h;
        let published = self.epoch.published;
        debug_assert!(
            lh == 0 || published == lh,
            "public branches must have equal length (published {published} vs honest {lh})"
        );

        // Parent selection: the longest public tip; on ties, the pool's
        // published branch with probability γ (the network model).
        let prefix_tip = (published > 0).then(|| self.epoch.private[published - 1]);
        let parent = match prefix_tip {
            Some(p) => {
                debug_assert!(lh > 0, "pool publishes only in response to honest blocks");
                if self.rng.gen_bool(self.config.gamma()) {
                    p
                } else {
                    self.honest_tip
                }
            }
            None => self.public_tip(),
        };
        let on_prefix = Some(parent) == prefix_tip;

        let block = self.mint(parent, miner);
        self.publish(block);

        // Algorithm 1, lines 8-20, with Lh already incremented. The
        // Lead-Stubborn variant differs in exactly one place: it never
        // concedes a near-win by publishing the whole branch (lines 15-17);
        // it always reveals just enough to match the public chain.
        let stubborn = self.config.strategy() == PoolStrategy::LeadStubborn;
        let lh_inc = lh + 1;
        if ls < lh_inc {
            // Lines 10-12: the public chain is longer; everyone adopts it.
            // A stubborn pool may be abandoning withheld blocks here; under
            // Algorithm 1 there is never anything unpublished to discard.
            debug_assert!(
                stubborn || ls == published,
                "Algorithm 1 never abandons unpublished blocks"
            );
            self.epoch.reset(block);
        } else if ls == lh_inc + 1 && !stubborn {
            // Lines 15-17: lead of one left; publish everything and win.
            let tip = self.epoch.tip();
            self.publish_all_private();
            self.epoch.reset(tip);
        } else {
            // Lines 13-14 (ls == lh_inc: reveal the last block, branches
            // tie) and lines 18-20 (comfortable lead: reveal the first
            // unpublished block) share the same mechanics: publish exactly
            // one more block. For the stubborn pool this branch also
            // handles ls == lh_inc + 1.
            self.publish(self.epoch.private[published]);
            self.epoch.published += 1;
            if on_prefix {
                // The fork point moves up to the honest block's parent
                // (the lh-th private block): state (Ls − Lh + 1, 1) after
                // the line-9 increment.
                self.epoch.settle(lh);
            }
            self.extend_honest(block);
        }
    }

    // ------------------------------------------------------------------
    // Policy playback (PoolStrategy::Table): execute an exported MDP
    // policy over the real block tree.
    // ------------------------------------------------------------------

    /// Consult the table at the live `(a, h, fork, match_d)` state and
    /// execute the prescribed action: record the decision, publish the
    /// blocks it releases, then apply it to the epoch. Out-of-truncation
    /// states and illegal prescriptions resolve to a forced *adopt*
    /// ([`seleth_mdp::PolicyTable::decide`]).
    fn policy_act(&mut self) {
        let table = self.config.policy().expect("Table strategy has a table");
        let action = self.epoch.decide(table);
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

    /// Pool block under playback: always mined privately (publication is
    /// the policy's job).
    fn policy_pool_mines(&mut self) {
        let block = self.mint(self.epoch.tip(), POOL);
        self.epoch.push(block);
    }

    /// Honest block under playback. During an active race the miner picks
    /// the pool's published prefix with probability `γ` (resolving the
    /// race for the pool — the MDP's `γβ` branch: the prefix settles and
    /// the new block starts the next epoch on top of it); otherwise the
    /// honest branch simply grows and any race falls back to *relevant*.
    fn policy_honest_mines(&mut self, miner: MinerId) {
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
        self.extend_honest(block);
        self.epoch.fork = Fork::Relevant;
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
        let refs = classify::select_uncles(
            &self.tree,
            parent,
            schedule.max_uncle_distance(),
            schedule.max_uncles_per_block(),
            |u| published[u.index()],
        );
        let id = self
            .tree
            .add_block(parent, miner, &refs)
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

    /// An honest block extends the public branch above the fork base.
    fn extend_honest(&mut self, block: BlockId) {
        self.epoch.h += 1;
        self.honest_tip = block;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seleth_chain::RewardSchedule;

    fn sim(alpha: f64, gamma: f64, seed: u64) -> Simulation {
        let config = SimConfig::builder()
            .alpha(alpha)
            .gamma(gamma)
            .n_honest(99)
            .blocks(u64::MAX) // stepped manually
            .seed(seed)
            .build()
            .unwrap();
        Simulation::new(config)
    }

    /// Drive the simulation with a scripted winner sequence by re-seeding
    /// is impractical; instead we call the private handlers directly.
    impl Simulation {
        fn force_pool(&mut self) {
            self.pool_mines();
            self.blocks_mined += 1;
        }
        fn force_honest(&mut self) {
            self.honest_mines(MinerId(1));
            self.blocks_mined += 1;
        }
        /// Scripted playback steps: decision point, then a forced winner.
        fn force_pool_policy(&mut self) {
            self.policy_act();
            self.policy_pool_mines();
            self.blocks_mined += 1;
        }
        fn force_honest_policy(&mut self) {
            self.policy_act();
            self.policy_honest_mines(MinerId(1));
            self.blocks_mined += 1;
        }
    }

    #[test]
    fn honest_only_chain_is_linear() {
        let mut s = sim(0.3, 0.5, 1);
        for _ in 0..10 {
            s.force_honest();
        }
        assert_eq!(s.state(), (0, 0));
        assert_eq!(s.tree().max_height(), 10);
        assert_eq!(s.tree().leaves().len(), 1);
    }

    #[test]
    fn pool_withholds_until_threat() {
        let mut s = sim(0.3, 0.5, 1);
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
        let mut s = sim(0.3, 0.5, 1);
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
        let mut s = sim(0.3, 0.5, 1);
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
        let mut s = sim(0.3, 0.5, 1);
        s.force_pool();
        s.force_honest(); // (1,1)
        s.force_honest(); // race resolved by honest block
        assert_eq!(s.state(), (0, 0));
        assert_eq!(s.tree().max_height(), 2);
    }

    #[test]
    fn long_lead_publishes_one_by_one() {
        let mut s = sim(0.3, 0.5, 1);
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
        let mut s = sim(0.3, 0.5, 1);
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
        let mut s = sim(0.3, 0.5, 1);
        s.config = SimConfig::builder()
            .alpha(0.3)
            .gamma(0.5)
            .n_honest(99)
            .blocks(u64::MAX)
            .strategy(PoolStrategy::LeadStubborn)
            .seed(1)
            .build()
            .unwrap();
        s.force_pool();
        s.force_honest(); // (1,1)
        s.force_pool(); // selfish would publish-and-reset; stubborn holds
        assert_eq!(s.state(), (2, 1));
    }

    #[test]
    fn stubborn_never_concedes_at_lead_one() {
        let config = SimConfig::builder()
            .alpha(0.3)
            .gamma(0.5)
            .n_honest(99)
            .blocks(u64::MAX)
            .strategy(PoolStrategy::LeadStubborn)
            .seed(1)
            .build()
            .unwrap();
        let mut s = Simulation::new(config);
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

    fn table_sim(table: seleth_mdp::PolicyTable, alpha: f64, gamma: f64, seed: u64) -> Simulation {
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

    /// A table that always waits (adopting only where wait is absent from
    /// the artifact, i.e. outside truncation via fallback).
    fn all_wait_table(max_len: u32) -> seleth_mdp::PolicyTable {
        seleth_mdp::PolicyTable::from_fn3(
            0.3,
            0.5,
            seleth_mdp::RewardModel::Bitcoin,
            seleth_chain::Scenario::RegularRate,
            max_len,
            0.3,
            |_, _, _| Action::Wait,
        )
    }

    #[test]
    fn playback_override_settles_the_lead() {
        // Sapirshtein-style: wait at (1,0) and (2,0); override once honest
        // catches up. Encode just that far and rely on fallback elsewhere.
        let table = seleth_mdp::PolicyTable::from_fn3(
            0.3,
            0.5,
            seleth_mdp::RewardModel::Bitcoin,
            seleth_chain::Scenario::RegularRate,
            8,
            0.3,
            |a, h, _| {
                if a > h {
                    if h >= 1 {
                        Action::Override
                    } else {
                        Action::Wait
                    }
                } else {
                    Action::Adopt
                }
            },
        );
        let mut s = table_sim(table, 0.3, 0.5, 1);
        s.force_pool_policy();
        s.force_pool_policy();
        assert_eq!(s.state(), (2, 0), "leads are held privately");
        s.force_honest_policy();
        assert_eq!(s.state(), (2, 1));
        // Next decision point (before any further block) overrides: the
        // two pool blocks publish and the honest block is orphaned.
        s.policy_act();
        assert_eq!(s.state(), (0, 0), "override settled the epoch");
        assert_eq!(s.tree().max_height(), 2);
        assert!(s.tree().iter().all(|b| s.is_published(b.id())));
    }

    #[test]
    fn playback_match_splits_and_gamma_resolves() {
        // Always match when possible, γ = 1: every honest block after a
        // match mines on the pool's prefix, handing the pool the epoch.
        let table = seleth_mdp::PolicyTable::from_fn3(
            0.3,
            1.0,
            seleth_mdp::RewardModel::Bitcoin,
            seleth_chain::Scenario::RegularRate,
            8,
            0.3,
            |a, h, fork| {
                if fork == Fork::Relevant && a >= h && h >= 1 {
                    Action::Match
                } else if a > h || h == 0 {
                    Action::Wait
                } else {
                    Action::Adopt
                }
            },
        );
        let mut s = table_sim(table, 0.3, 1.0, 1);
        s.force_pool_policy(); // (1,0) private
        s.force_honest_policy(); // (1,1) relevant
        assert_eq!(s.state(), (1, 1));
        // The next decision matches (prefix published), and the honest
        // block mines on the prefix with probability γ = 1: pool wins.
        s.force_honest_policy();
        assert_eq!(s.state(), (0, 1), "γβ outcome: pool block won, new epoch");
        // The pool's block is on the main chain.
        assert_eq!(s.tree().max_height(), 2);
    }

    #[test]
    fn playback_fallback_forces_adopt_outside_truncation() {
        // An all-wait table truncated at 3: the executor forces adopt the
        // moment either chain reaches the boundary — the solver's own
        // boundary rule — so the live state never leaves the truncated
        // region at all.
        let mut s = table_sim(all_wait_table(3), 0.3, 0.5, 7);
        for _ in 0..2_000 {
            s.step();
        }
        let (max_a, max_h) = s
            .state_visits
            .keys()
            .fold((0, 0), |(ma, mh), &(a, h)| (ma.max(a), mh.max(h)));
        assert!(
            max_a <= 3,
            "private branch must adopt at the boundary: {max_a}"
        );
        assert!(
            max_h <= 3,
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
        let resolved = seleth_mdp::PolicyTable::from_fn3(
            0.3,
            0.5,
            seleth_mdp::RewardModel::Bitcoin,
            seleth_chain::Scenario::RegularRate,
            3,
            0.3,
            |a, h, _| {
                if a >= 3 || h >= 3 {
                    Action::Adopt
                } else {
                    Action::Wait
                }
            },
        );
        assert!(resolved.is_legal_everywhere());
        let mut implicit = table_sim(all_wait_table(3), 0.3, 0.5, 7);
        let mut explicit = table_sim(resolved, 0.3, 0.5, 7);
        for _ in 0..2_000 {
            implicit.step();
            explicit.step();
        }
        // The walk genuinely reaches the boundary in this run...
        assert!(
            implicit.state_visits.keys().any(|&(a, h)| a == 3 || h == 3),
            "strategist never reached the truncation boundary"
        );
        // ...and both tables traced exactly the same trajectory.
        assert_eq!(implicit.state_visits, explicit.state_visits);
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
        let table = seleth_mdp::PolicyTable::from_fn3(
            0.3,
            0.5,
            seleth_mdp::RewardModel::Bitcoin,
            seleth_chain::Scenario::RegularRate,
            6,
            0.3,
            |_, _, _| Action::Override,
        );
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
