//! The private fork a strategic miner plays over.
//!
//! Both simulators execute the MDP's moves — *adopt*, *override*, *match*
//! and *wait* at the state `(a, h, fork, match_d)` — through this one
//! epoch state machine: the instant-broadcast engine's
//! [`crate::config::PoolStrategy::Table`] pool and every
//! [`crate::delay::MinerStrategy::Table`] strategist of the delay
//! simulator. A simulator publishes the blocks [`PrivateFork::releases`]
//! names and then calls [`PrivateFork::apply`]; the bookkeeping of the
//! epoch (fork base, private branch, released prefix, fork qualifier and
//! `match_d`) lives only here.
//!
//! The fork qualifier follows the MDP: *irrelevant* after a private
//! block, *relevant* after a public one, *active* while a published match
//! race is live. `match_d` is the published prefix's reference distance:
//! fixed at the public height of the epoch's *first* match, kept by
//! re-matches, cleared when the epoch settles. Four-axis Ethereum-model
//! tables consult it; classic tables ignore it.

use std::ops::Range;

use seleth_chain::{BlockId, BlockTree};
use seleth_mdp::{Action, Fork, PolicyTable, StateSpace};

/// One epoch of a private fork: everything above the last block the
/// miner considers settled.
#[derive(Debug, Clone)]
pub(crate) struct PrivateFork {
    /// Last settled block; the private and public branches fork here.
    pub(crate) base: BlockId,
    /// The private branch above `base`, oldest first.
    pub(crate) private: Vec<BlockId>,
    /// How many of `private` have been released.
    pub(crate) published: usize,
    /// Length of the public branch above `base`. In the delay simulator
    /// this is the miner's *heard* view, which lags the network by up to
    /// one propagation delay.
    pub(crate) h: usize,
    /// MDP fork qualifier.
    pub(crate) fork: Fork,
    /// Published-prefix reference distance; 0 while no prefix of the
    /// private branch is public this epoch.
    pub(crate) match_d: u8,
}

impl PrivateFork {
    /// An empty epoch on `base`.
    pub(crate) fn new(base: BlockId) -> Self {
        PrivateFork {
            base,
            private: Vec::new(),
            published: 0,
            h: 0,
            fork: Fork::Irrelevant,
            match_d: 0,
        }
    }

    /// Concede the epoch unconditionally: start an empty one on `base`.
    /// Unreleased private blocks are abandoned (they settle as stale).
    pub(crate) fn reset(&mut self, base: BlockId) {
        self.base = base;
        self.private.clear();
        self.published = 0;
        self.h = 0;
        self.fork = Fork::Irrelevant;
        self.match_d = 0;
    }

    /// The block the miner mines its next private block on.
    pub(crate) fn tip(&self) -> BlockId {
        self.private.last().copied().unwrap_or(self.base)
    }

    /// The table's action at the live state, resolved by
    /// [`PolicyTable::decide`] (states outside the truncation and illegal
    /// prescriptions become a forced adopt).
    pub(crate) fn decide(&self, table: &PolicyTable) -> Action {
        let a = u32::try_from(self.private.len()).unwrap_or(u32::MAX);
        let h = u32::try_from(self.h).unwrap_or(u32::MAX);
        table.decide(a, h, self.fork, self.match_d)
    }

    /// The indices into `private` that `action` makes public: *override*
    /// releases the first `h + 1` blocks, *match* the unreleased part of
    /// the length-`h` prefix. Publish them before [`PrivateFork::apply`].
    pub(crate) fn releases(&self, action: Action) -> Range<usize> {
        match action {
            Action::Override => 0..self.h + 1,
            Action::Match => self.published.min(self.h)..self.h,
            Action::Adopt | Action::Wait => 0..0,
        }
    }

    /// Execute `action`'s state change. *Adopt* concedes to
    /// `public_tip`, the best public block the miner knows of.
    pub(crate) fn apply(&mut self, action: Action, tree: &BlockTree, public_tip: BlockId) {
        let h = self.h;
        match action {
            Action::Wait => {}
            Action::Adopt => self.concede(tree, public_tip),
            Action::Override => {
                // The released blocks outrace the public branch; the last
                // of them is the new base.
                debug_assert!(self.private.len() > h, "override needs a > h");
                self.base = self.private[h];
                self.private.drain(..=h);
                self.published = self.published.saturating_sub(h + 1);
                self.h = 0;
                self.fork = Fork::Irrelevant;
                self.match_d = 0;
            }
            Action::Match => {
                debug_assert!(self.private.len() >= h && h >= 1, "match needs a >= h >= 1");
                self.published = h;
                self.fork = Fork::Active;
                if self.match_d == 0 {
                    self.match_d = StateSpace::first_match_d(u32::try_from(h).unwrap_or(u32::MAX));
                }
            }
        }
    }

    /// Concede the epoch to the public chain at `tip`: the base moves up
    /// to `tip` only if it is higher, so conceding at `h = 0` (or to a
    /// lower tip) keeps the current base.
    pub(crate) fn concede(&mut self, tree: &BlockTree, tip: BlockId) {
        let base = if tree.height(tip) > tree.height(self.base) {
            tip
        } else {
            self.base
        };
        self.reset(base);
    }

    /// A new private block on [`PrivateFork::tip`]. A live match race
    /// stays active (the MDP's `α` branch of *match*); otherwise the fork
    /// becomes irrelevant.
    pub(crate) fn push(&mut self, id: BlockId) {
        self.private.push(id);
        if self.fork != Fork::Active {
            self.fork = Fork::Irrelevant;
        }
    }

    /// The public chain built on the first `k ≥ 1` released blocks: they
    /// are settled wins, so the epoch rebases on `private[k - 1]` and the
    /// public branch above the new base starts empty. `match_d` clears
    /// only once no released prefix is left.
    pub(crate) fn settle(&mut self, k: usize) {
        debug_assert!(
            (1..=self.published).contains(&k),
            "settle within the prefix"
        );
        self.base = self.private[k - 1];
        self.private.drain(..k);
        self.published -= k;
        self.h = 0;
        if self.published == 0 {
            self.match_d = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seleth_chain::MinerId;

    /// Genesis plus a private chain of `a` pool blocks and a public chain
    /// of `h` honest blocks, both on genesis; the epoch holds the private
    /// chain with `h` public blocks above its base.
    fn race(a: usize, h: usize) -> (BlockTree, PrivateFork, Vec<BlockId>) {
        let mut tree = BlockTree::new();
        let genesis = tree.genesis();
        let mut epoch = PrivateFork::new(genesis);
        let mut honest = Vec::new();
        for _ in 0..a {
            let id = tree.add_block(epoch.tip(), MinerId(0), &[]).unwrap();
            epoch.push(id);
        }
        for _ in 0..h {
            let parent = honest.last().copied().unwrap_or(genesis);
            honest.push(tree.add_block(parent, MinerId(1), &[]).unwrap());
        }
        epoch.h = h;
        epoch.fork = if h > 0 {
            Fork::Relevant
        } else {
            Fork::Irrelevant
        };
        (tree, epoch, honest)
    }

    #[test]
    fn adopt_keeps_the_base_unless_the_tip_is_higher() {
        // h = 0: the public tip is the base itself.
        let (tree, mut epoch, _) = race(2, 0);
        let base = epoch.base;
        epoch.apply(Action::Adopt, &tree, base);
        assert_eq!((epoch.base, epoch.private.len(), epoch.h), (base, 0, 0));

        // A lower tip (genesis under a settled base) or a rival tip of the
        // same height never moves the base.
        let (tree, mut epoch, honest) = race(3, 2);
        epoch.published = 2;
        epoch.settle(1);
        let settled = epoch.base;
        for tip in [tree.genesis(), honest[0]] {
            epoch.apply(Action::Adopt, &tree, tip);
            assert_eq!(epoch.base, settled);
            assert!(epoch.private.is_empty());
        }

        // A higher tip becomes the base; the epoch is empty again.
        let (tree, mut epoch, honest) = race(1, 2);
        epoch.apply(Action::Adopt, &tree, honest[1]);
        assert_eq!(epoch.base, honest[1]);
        assert_eq!((epoch.private.len(), epoch.published, epoch.h), (0, 0, 0));
        assert_eq!((epoch.fork, epoch.match_d), (Fork::Irrelevant, 0));
    }

    #[test]
    fn override_releases_the_first_h_plus_one_and_rebases() {
        let (tree, mut epoch, honest) = race(4, 2);
        let private = epoch.private.clone();
        epoch.apply(Action::Match, &tree, honest[1]);
        assert_eq!(epoch.published, 2);
        assert_eq!(epoch.releases(Action::Override), 0..3);
        epoch.apply(Action::Override, &tree, honest[1]);
        assert_eq!(epoch.base, private[2]);
        assert_eq!(epoch.private, &private[3..]);
        // The two matched blocks are inside the released three.
        assert_eq!((epoch.published, epoch.h), (0, 0));
        assert_eq!((epoch.fork, epoch.match_d), (Fork::Irrelevant, 0));
    }

    #[test]
    fn match_releases_only_the_unpublished_part_and_fixes_match_d() {
        let (mut tree, mut epoch, mut honest) = race(4, 1);
        assert_eq!(epoch.releases(Action::Match), 0..1);
        epoch.apply(Action::Match, &tree, honest[0]);
        assert_eq!((epoch.published, epoch.fork), (1, Fork::Active));
        assert_eq!(epoch.match_d, StateSpace::first_match_d(1));

        // The public branch grows by two; the re-match releases only the
        // two new prefix blocks and keeps the first match's distance.
        for _ in 0..2 {
            let parent = *honest.last().unwrap();
            honest.push(tree.add_block(parent, MinerId(1), &[]).unwrap());
        }
        epoch.h = 3;
        epoch.fork = Fork::Relevant;
        assert_eq!(epoch.releases(Action::Match), 1..3);
        epoch.apply(Action::Match, &tree, honest[2]);
        assert_eq!(epoch.published, 3);
        assert_eq!(epoch.match_d, StateSpace::first_match_d(1));
        assert_ne!(StateSpace::first_match_d(3), StateSpace::first_match_d(1));
    }

    #[test]
    fn settle_keeps_match_d_while_a_prefix_is_left() {
        let (tree, mut epoch, honest) = race(4, 3);
        let private = epoch.private.clone();
        epoch.apply(Action::Match, &tree, honest[2]);
        let match_d = epoch.match_d;
        epoch.settle(2);
        assert_eq!(epoch.base, private[1]);
        assert_eq!(epoch.private, &private[2..]);
        assert_eq!((epoch.published, epoch.h, epoch.match_d), (1, 0, match_d));
        epoch.settle(1);
        assert_eq!(
            (epoch.base, epoch.published, epoch.match_d),
            (private[2], 0, 0)
        );
    }

    #[test]
    fn push_keeps_an_active_race_active() {
        let (mut tree, mut epoch, honest) = race(1, 1);
        epoch.apply(Action::Match, &tree, honest[0]);
        let id = tree.add_block(epoch.tip(), MinerId(0), &[]).unwrap();
        epoch.push(id);
        assert_eq!((epoch.fork, epoch.tip()), (Fork::Active, id));

        epoch.fork = Fork::Relevant;
        let id = tree.add_block(epoch.tip(), MinerId(0), &[]).unwrap();
        epoch.push(id);
        assert_eq!(epoch.fork, Fork::Irrelevant);
        assert_eq!((epoch.private.len(), epoch.published, epoch.h), (3, 1, 1));
    }
}
