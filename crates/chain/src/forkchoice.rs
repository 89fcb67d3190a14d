//! Fork-choice rules: selecting a main chain from a block tree.
//!
//! The paper (Section II-B, footnote 2) notes that although Ethereum claims
//! the GHOST heaviest-subtree rule, in practice it applies the longest-chain
//! rule; both are provided here. Ties are resolved by a [`TieBreak`] policy —
//! the uniform tie-breaking defense of Eyal & Sirer corresponds to honest
//! miners splitting between equal branches, which the simulator models with
//! its `γ` parameter at mining time rather than here.

use crate::block::BlockId;
use crate::tree::BlockTree;

/// Deterministic policy for choosing among equal-score candidate heads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum TieBreak {
    /// Prefer the block that was inserted into the tree first (oldest id).
    /// This matches the "first received wins" behaviour of real clients under
    /// instantaneous broadcast.
    #[default]
    FirstSeen,
    /// Prefer the block inserted last (useful for adversarial analyses).
    LastSeen,
}

/// Pick the head block by the longest-chain rule.
///
/// Returns the leaf of maximal height; among equal-height leaves the
/// [`TieBreak`] policy decides.
///
/// ```
/// use seleth_chain::{BlockTree, MinerId, forkchoice::{longest_chain_head, TieBreak}};
/// let mut t = BlockTree::new();
/// let a = t.add_block(t.genesis(), MinerId(0), &[]).unwrap();
/// let b = t.add_block(a, MinerId(0), &[]).unwrap();
/// let c = t.add_block(a, MinerId(1), &[]).unwrap();
/// assert_eq!(longest_chain_head(&t, TieBreak::FirstSeen), b);
/// assert_eq!(longest_chain_head(&t, TieBreak::LastSeen), c);
/// ```
pub fn longest_chain_head(tree: &BlockTree, tie: TieBreak) -> BlockId {
    let mut best = tree.genesis();
    let mut best_height = 0u64;
    for block in tree.iter() {
        let better = match block.height().cmp(&best_height) {
            std::cmp::Ordering::Greater => true,
            std::cmp::Ordering::Equal => match tie {
                TieBreak::FirstSeen => false, // earlier id already kept
                TieBreak::LastSeen => true,
            },
            std::cmp::Ordering::Less => false,
        };
        if better {
            best = block.id();
            best_height = block.height();
        }
    }
    best
}

/// Pick the head block by the GHOST (heaviest observed subtree) rule.
///
/// Starting from genesis, repeatedly descend into the child whose subtree
/// contains the most blocks; [`TieBreak`] resolves equal subtree weights.
///
/// ```
/// use seleth_chain::{BlockTree, MinerId, forkchoice::{ghost_head, longest_chain_head, TieBreak}};
/// let mut t = BlockTree::new();
/// let a = t.add_block(t.genesis(), MinerId(0), &[]).unwrap();
/// // A heavy but short branch...
/// let b = t.add_block(a, MinerId(0), &[]).unwrap();
/// let c1 = t.add_block(b, MinerId(0), &[]).unwrap();
/// let _c2 = t.add_block(b, MinerId(0), &[]).unwrap();
/// let _c3 = t.add_block(b, MinerId(0), &[]).unwrap();
/// // ...beats a longer, lighter one under GHOST (but not under longest-chain).
/// let d = t.add_block(a, MinerId(1), &[]).unwrap();
/// let e = t.add_block(d, MinerId(1), &[]).unwrap();
/// let f = t.add_block(e, MinerId(1), &[]).unwrap();
/// assert_eq!(ghost_head(&t, TieBreak::FirstSeen), c1);
/// assert_eq!(longest_chain_head(&t, TieBreak::FirstSeen), f);
/// ```
pub fn ghost_head(tree: &BlockTree, tie: TieBreak) -> BlockId {
    let mut cur = tree.genesis();
    loop {
        let mut children = tree.children(cur);
        let Some(mut best) = children.next() else {
            return cur;
        };
        let mut best_weight = tree.subtree_size(best);
        for child in children {
            let w = tree.subtree_size(child);
            let better = match w.cmp(&best_weight) {
                std::cmp::Ordering::Greater => true,
                std::cmp::Ordering::Equal => tie == TieBreak::LastSeen,
                std::cmp::Ordering::Less => false,
            };
            if better {
                best = child;
                best_weight = w;
            }
        }
        cur = best;
    }
}

/// The full main chain (genesis → head) under the longest-chain rule.
pub fn longest_chain(tree: &BlockTree, tie: TieBreak) -> Vec<BlockId> {
    tree.path_from_genesis(longest_chain_head(tree, tie))
}

/// The full main chain (genesis → head) under the GHOST rule.
pub fn ghost_chain(tree: &BlockTree, tie: TieBreak) -> Vec<BlockId> {
    tree.path_from_genesis(ghost_head(tree, tie))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::MinerId;

    #[test]
    fn single_chain_trivial() {
        let mut t = BlockTree::new();
        let m = MinerId(0);
        let mut tip = t.genesis();
        for _ in 0..5 {
            tip = t.add_block(tip, m, &[]).unwrap();
        }
        assert_eq!(longest_chain_head(&t, TieBreak::FirstSeen), tip);
        assert_eq!(ghost_head(&t, TieBreak::FirstSeen), tip);
        assert_eq!(longest_chain(&t, TieBreak::FirstSeen).len(), 6);
    }

    #[test]
    fn longest_beats_heaviest_under_longest_rule() {
        let mut t = BlockTree::new();
        let m = MinerId(0);
        let a = t.add_block(t.genesis(), m, &[]).unwrap();
        // Heavy bushy branch of height 2.
        let b = t.add_block(a, m, &[]).unwrap();
        t.add_block(b, m, &[]).unwrap();
        t.add_block(b, m, &[]).unwrap();
        t.add_block(b, m, &[]).unwrap();
        // Light branch of height 4.
        let d = t.add_block(a, m, &[]).unwrap();
        let e = t.add_block(d, m, &[]).unwrap();
        let f = t.add_block(e, m, &[]).unwrap();
        let g = t.add_block(f, m, &[]).unwrap();
        assert_eq!(longest_chain_head(&t, TieBreak::FirstSeen), g);
        // GHOST descends into the bushy branch instead.
        assert_eq!(t.height(ghost_head(&t, TieBreak::FirstSeen)), 3);
    }

    #[test]
    fn tie_break_policies_differ() {
        let mut t = BlockTree::new();
        let a = t.add_block(t.genesis(), MinerId(0), &[]).unwrap();
        let b = t.add_block(t.genesis(), MinerId(1), &[]).unwrap();
        assert_eq!(longest_chain_head(&t, TieBreak::FirstSeen), a);
        assert_eq!(longest_chain_head(&t, TieBreak::LastSeen), b);
        assert_eq!(ghost_head(&t, TieBreak::FirstSeen), a);
        assert_eq!(ghost_head(&t, TieBreak::LastSeen), b);
    }

    #[test]
    fn genesis_only_tree() {
        let t = BlockTree::new();
        assert_eq!(longest_chain_head(&t, TieBreak::FirstSeen), t.genesis());
        assert_eq!(ghost_head(&t, TieBreak::FirstSeen), t.genesis());
        assert_eq!(longest_chain(&t, TieBreak::FirstSeen), vec![t.genesis()]);
    }
}
