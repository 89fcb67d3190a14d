//! Block classification: regular, uncle, and plain stale blocks.
//!
//! Section III-B of the paper partitions blocks by their relation to the
//! system main chain (Fig. 3):
//!
//! - a **regular** block is on the main chain;
//! - an **uncle** block is a stale block whose parent is a regular block and
//!   which is referenced by a later regular block (its **nephew**) within the
//!   maximum reference distance (6 in Ethereum);
//! - everything else is **stale** and earns nothing.
//!
//! The *reference distance* between an uncle and its nephew is the height
//! difference `height(nephew) − height(uncle)`; it determines the uncle
//! reward via `Ku(d)`.
//!
//! The whole uncle rule lives here, in two halves: [`select_uncles`]
//! picks the references a miner writes into a new header, and
//! [`uncle_events_with_cap`] decides which references in main-chain
//! headers are paid.

use std::collections::HashMap;

use crate::block::BlockId;
use crate::tree::BlockTree;

/// The classification of one block relative to a main chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BlockClass {
    /// On the main chain; earns the static reward.
    Regular,
    /// Stale, direct child of the main chain, referenced by `nephew`.
    Uncle {
        /// The regular block whose header references this uncle.
        nephew: BlockId,
        /// `height(nephew) − height(uncle)`, in `1..=max_distance`.
        distance: u64,
    },
    /// Stale and unrewarded (never referenced, or invalid as an uncle).
    Stale,
}

/// One accepted uncle reference, in main-chain order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct UncleEvent {
    /// The uncle block.
    pub uncle: BlockId,
    /// The referencing regular block.
    pub nephew: BlockId,
    /// Reference distance in heights.
    pub distance: u64,
}

/// Classify every block of `tree` against `main_chain` (genesis → head,
/// as produced by [`crate::forkchoice`]).
///
/// Reference validity follows Ethereum's rules, restricted to what the
/// paper's model needs:
///
/// - only references appearing in *main-chain* block headers count;
/// - the referenced block must not itself be on the main chain;
/// - its parent must be on the main chain (uncles are "direct children of
///   the system main chain");
/// - `1 ≤ distance ≤ max_distance`;
/// - each uncle is rewarded at most once (the earliest reference wins).
///
/// Genesis is classified as [`BlockClass::Regular`].
///
/// # Panics
///
/// Panics if `main_chain` contains ids that are not in the tree.
pub fn classify(
    tree: &BlockTree,
    main_chain: &[BlockId],
    max_distance: u64,
) -> HashMap<BlockId, BlockClass> {
    let mut classes: HashMap<BlockId, BlockClass> = HashMap::with_capacity(tree.len());
    let on_chain = mask(tree, main_chain.iter().copied());
    for block in tree.iter() {
        let class = if on_chain[block.id().index()] {
            BlockClass::Regular
        } else {
            BlockClass::Stale
        };
        classes.insert(block.id(), class);
    }
    for ev in uncle_events(tree, main_chain, max_distance) {
        classes.insert(
            ev.uncle,
            BlockClass::Uncle {
                nephew: ev.nephew,
                distance: ev.distance,
            },
        );
    }
    classes
}

/// The accepted uncle references, walking the main chain from genesis to
/// head (so "earliest reference wins" is by construction).
///
/// # Panics
///
/// Panics if `main_chain` contains ids that are not in the tree.
pub fn uncle_events(
    tree: &BlockTree,
    main_chain: &[BlockId],
    max_distance: u64,
) -> Vec<UncleEvent> {
    uncle_events_with_cap(tree, main_chain, max_distance, None)
}

/// Like [`uncle_events`], additionally enforcing a per-nephew cap on
/// accepted references (`Some(2)` for real Ethereum; `None` matches the
/// paper's unlimited-references assumption).
///
/// # Panics
///
/// Panics if `main_chain` contains ids that are not in the tree.
pub fn uncle_events_with_cap(
    tree: &BlockTree,
    main_chain: &[BlockId],
    max_distance: u64,
    cap: Option<usize>,
) -> Vec<UncleEvent> {
    let on_chain = mask(tree, main_chain.iter().copied());
    let mut referenced = vec![false; tree.len()];
    let mut events = Vec::new();
    for &nephew in main_chain {
        let nephew_height = tree.height(nephew);
        let mut accepted = 0usize;
        for &uncle in tree.block(nephew).uncle_refs() {
            if cap.is_some_and(|c| accepted >= c) {
                break;
            }
            if referenced[uncle.index()] || on_chain[uncle.index()] {
                continue;
            }
            let ub = tree.block(uncle);
            let Some(parent) = ub.parent() else { continue };
            if !on_chain[parent.index()] {
                continue;
            }
            let uncle_height = ub.height();
            if uncle_height >= nephew_height {
                continue;
            }
            let distance = nephew_height - uncle_height;
            if distance > max_distance {
                continue;
            }
            referenced[uncle.index()] = true;
            accepted += 1;
            events.push(UncleEvent {
                uncle,
                nephew,
                distance,
            });
        }
    }
    events
}

/// Mining-time uncle selection: the references a block mined on `parent`
/// carries.
///
/// Walks the `max_distance` ancestors above `parent`, newest first, and
/// takes their children in insertion order, up to `cap` of them. A child
/// is skipped when it is the chain child (the ancestor one step below, or
/// `parent` itself), when one of the `max_distance + 1` window blocks
/// from `parent` upward already references it, or when `visible` rejects
/// it. Every pick therefore sits at distance `1..=max_distance` from the
/// new block. `max_distance = 0` or `cap = Some(0)` selects nothing.
///
/// The window counts every reference in an ancestor's header as taken,
/// accepted or not, so this is not the validator run early: on
/// hand-built trees [`uncle_events_with_cap`] can still reject a pick.
///
/// # Panics
///
/// Panics if `parent` is not in the tree.
///
/// ```
/// use seleth_chain::{classify, BlockTree, MinerId};
/// let m = MinerId(0);
/// let mut t = BlockTree::new();
/// let a = t.add_block(t.genesis(), m, &[]).unwrap();
/// let stale = t.add_block(a, m, &[]).unwrap();
/// let b = t.add_block(a, m, &[]).unwrap();
/// assert_eq!(classify::select_uncles(&t, b, 6, None, |_| true), vec![stale]);
/// assert!(classify::select_uncles(&t, b, 6, None, |u| u != stale).is_empty());
/// ```
pub fn select_uncles(
    tree: &BlockTree,
    parent: BlockId,
    max_distance: u64,
    cap: Option<usize>,
    mut visible: impl FnMut(BlockId) -> bool,
) -> Vec<BlockId> {
    let cap = cap.unwrap_or(usize::MAX);
    let mut refs = Vec::new();
    if cap == 0 {
        return refs;
    }
    let taken = |u: BlockId| {
        let mut window = Some(parent);
        for _ in 0..=max_distance {
            let Some(id) = window else { break };
            let block = tree.block(id);
            if block.uncle_refs().contains(&u) {
                return true;
            }
            window = block.parent();
        }
        false
    };
    let mut chain_child = parent;
    let mut ancestor = tree.block(parent).parent();
    for _ in 0..max_distance {
        let Some(a) = ancestor else { break };
        for &u in tree.children(a) {
            if u == chain_child || taken(u) || !visible(u) {
                continue;
            }
            refs.push(u);
            if refs.len() >= cap {
                return refs;
            }
        }
        chain_child = a;
        ancestor = tree.block(a).parent();
    }
    refs
}

/// An index-addressed membership mask over `tree`'s blocks.
pub(crate) fn mask(tree: &BlockTree, ids: impl IntoIterator<Item = BlockId>) -> Vec<bool> {
    let mut mask = vec![false; tree.len()];
    for id in ids {
        mask[id.index()] = true;
    }
    mask
}

/// Count blocks per class (excluding genesis): `(regular, uncle, stale)`.
pub fn class_counts(classes: &HashMap<BlockId, BlockClass>) -> (usize, usize, usize) {
    let mut counts = (0usize, 0usize, 0usize);
    for (&id, class) in classes {
        if id.index() == 0 {
            continue; // genesis mints no reward
        }
        match class {
            BlockClass::Regular => counts.0 += 1,
            BlockClass::Uncle { .. } => counts.1 += 1,
            BlockClass::Stale => counts.2 += 1,
        }
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::MinerId;

    /// Reconstruct the paper's Fig. 3 tree:
    ///
    /// ```text
    /// height: 1    2    3    4    5    6    7    8
    ///         A -  B2 - C1 - D1 - E1 - F1 - G1 - H1   (main chain)
    ///          \   |\
    ///           \  | C2 (child of B1: stale, not uncle)
    ///            B1, B3 (uncles, referenced by C1, distance 1)
    ///         D2 (child of C1, sibling of D1; uncle, referenced by F1, distance 2)
    /// ```
    ///
    /// Matches the paper: regular = {A,B2,C1,D1,E1,F1,G1,H1}, stale =
    /// {B1,B3,C2,D2}, uncles = {B1,B3,D2}, nephews = {C1,F1}.
    fn fig3() -> (BlockTree, Vec<BlockId>, [BlockId; 4]) {
        let m = MinerId(0);
        let mut t = BlockTree::new();
        let a = t.add_block(t.genesis(), m, &[]).unwrap();
        let b1 = t.add_block(a, m, &[]).unwrap();
        let b2 = t.add_block(a, m, &[]).unwrap();
        let b3 = t.add_block(a, m, &[]).unwrap();
        let c2 = t.add_block(b1, m, &[]).unwrap();
        let c1 = t.add_block(b2, m, &[b1, b3]).unwrap();
        let d1 = t.add_block(c1, m, &[]).unwrap();
        let d2 = t.add_block(c1, m, &[]).unwrap();
        let e1 = t.add_block(d1, m, &[]).unwrap();
        let f1 = t.add_block(e1, m, &[d2]).unwrap();
        let g1 = t.add_block(f1, m, &[]).unwrap();
        let h1 = t.add_block(g1, m, &[]).unwrap();
        let chain = vec![t.genesis(), a, b2, c1, d1, e1, f1, g1, h1];
        (t, chain, [b1, b3, d2, c2])
    }

    #[test]
    fn fig3_classification_matches_paper() {
        let (t, chain, [b1, b3, d2, c2]) = fig3();
        let classes = classify(&t, &chain, 6);
        for &r in &chain[1..] {
            assert_eq!(classes[&r], BlockClass::Regular);
        }
        assert!(
            matches!(classes[&b1], BlockClass::Uncle { distance: 1, .. }),
            "B1 should be an uncle at distance 1"
        );
        assert!(matches!(
            classes[&b3],
            BlockClass::Uncle { distance: 1, .. }
        ));
        assert!(
            matches!(classes[&d2], BlockClass::Uncle { distance: 2, .. }),
            "D2 should be an uncle at distance 2, got {:?}",
            classes[&d2]
        );
        assert_eq!(
            classes[&c2],
            BlockClass::Stale,
            "C2's parent is stale; not an uncle"
        );
        let (regular, uncle, stale) = class_counts(&classes);
        assert_eq!((regular, uncle, stale), (8, 3, 1));
    }

    #[test]
    fn uncle_event_ordering_and_nephews() {
        let (t, chain, [b1, b3, d2, _]) = fig3();
        let events = uncle_events(&t, &chain, 6);
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].uncle, b1);
        assert_eq!(events[1].uncle, b3);
        assert_eq!(events[2].uncle, d2);
        assert_eq!(events[2].distance, 2);
        // Nephews are C1 (twice) and F1.
        assert_eq!(events[0].nephew, events[1].nephew);
        assert_ne!(events[0].nephew, events[2].nephew);
    }

    #[test]
    fn double_reference_rewarded_once() {
        let m = MinerId(0);
        let mut t = BlockTree::new();
        let a = t.add_block(t.genesis(), m, &[]).unwrap();
        let b1 = t.add_block(a, m, &[]).unwrap();
        let b2 = t.add_block(a, m, &[]).unwrap();
        let c = t.add_block(b2, m, &[b1]).unwrap();
        let d = t.add_block(c, m, &[b1]).unwrap(); // second reference: ignored
        let chain = vec![t.genesis(), a, b2, c, d];
        let events = uncle_events(&t, &chain, 6);
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].nephew, c);
    }

    #[test]
    fn distance_beyond_max_not_rewarded() {
        let m = MinerId(0);
        let mut t = BlockTree::new();
        let a = t.add_block(t.genesis(), m, &[]).unwrap();
        let stale = t.add_block(a, m, &[]).unwrap();
        let mut tip = t.add_block(a, m, &[]).unwrap();
        for _ in 0..6 {
            tip = t.add_block(tip, m, &[]).unwrap();
        }
        // tip is now at height 8; stale at height 2 → distance 7 > 6.
        let nephew = t.add_block(tip, m, &[stale]).unwrap();
        let chain = t.path_from_genesis(nephew);
        assert!(uncle_events(&t, &chain, 6).is_empty());
        let classes = classify(&t, &chain, 6);
        assert_eq!(classes[&stale], BlockClass::Stale);
    }

    #[test]
    fn reference_from_stale_block_ignored() {
        let m = MinerId(0);
        let mut t = BlockTree::new();
        let a = t.add_block(t.genesis(), m, &[]).unwrap();
        let u = t.add_block(a, m, &[]).unwrap();
        let b = t.add_block(a, m, &[]).unwrap();
        // A stale block references u — but it is not on the main chain.
        let _stale_nephew = t.add_block(u, m, &[b]).unwrap();
        let c = t.add_block(b, m, &[]).unwrap();
        let d = t.add_block(c, m, &[]).unwrap();
        let chain = vec![t.genesis(), a, b, c, d];
        let events = uncle_events(&t, &chain, 6);
        assert!(events.is_empty());
    }

    /// `a` on genesis with three stale children `u1`, `u2`, `u3` and the
    /// chain child `b` inserted between `u1` and `u2`.
    fn fan() -> (BlockTree, BlockId, [BlockId; 3]) {
        let m = MinerId(0);
        let mut t = BlockTree::new();
        let a = t.add_block(t.genesis(), m, &[]).unwrap();
        let u1 = t.add_block(a, m, &[]).unwrap();
        let b = t.add_block(a, m, &[]).unwrap();
        let u2 = t.add_block(a, m, &[]).unwrap();
        let u3 = t.add_block(a, m, &[]).unwrap();
        (t, b, [u1, u2, u3])
    }

    #[test]
    fn selector_takes_children_in_insertion_order() {
        let (t, b, us) = fan();
        assert_eq!(select_uncles(&t, b, 6, None, |_| true), us.to_vec());
    }

    #[test]
    fn selector_zero_window_or_cap_selects_nothing() {
        let (t, b, _) = fan();
        assert!(select_uncles(&t, b, 0, None, |_| true).is_empty());
        assert!(select_uncles(&t, b, 6, Some(0), |_| true).is_empty());
    }

    #[test]
    fn selector_stops_at_the_cap() {
        let (t, b, [u1, u2, _]) = fan();
        assert_eq!(select_uncles(&t, b, 6, Some(2), |_| true), vec![u1, u2]);
    }

    #[test]
    fn selector_skips_invisible_candidates() {
        let (t, b, [u1, u2, u3]) = fan();
        assert_eq!(select_uncles(&t, b, 6, None, |u| u != u1), vec![u2, u3]);
    }

    #[test]
    fn selector_window_stops_at_genesis() {
        let m = MinerId(0);
        let mut t = BlockTree::new();
        let a = t.add_block(t.genesis(), m, &[]).unwrap();
        let s = t.add_block(t.genesis(), m, &[]).unwrap();
        let b = t.add_block(a, m, &[]).unwrap();
        // Genesis is one ancestor above `b`'s parent: `s` at distance 2.
        assert_eq!(select_uncles(&t, b, 6, None, |_| true), vec![s]);
        assert!(select_uncles(&t, b, 1, None, |_| true).is_empty());
    }

    #[test]
    fn selector_skips_uncles_the_window_references() {
        let (mut t, b, [u1, u2, u3]) = fan();
        // `u2` is taken whether the referencing block is the parent...
        let c = t.add_block(b, MinerId(0), &[u2]).unwrap();
        assert_eq!(select_uncles(&t, c, 6, None, |_| true), vec![u1, u3]);
        // ...or an ancestor further up the window.
        let d = t.add_block(c, MinerId(0), &[u1]).unwrap();
        assert_eq!(select_uncles(&t, d, 6, None, |_| true), vec![u3]);
    }

    #[test]
    fn selector_reaches_a_64_deep_window() {
        let m = MinerId(0);
        let mut t = BlockTree::new();
        let a = t.add_block(t.genesis(), m, &[]).unwrap();
        let stale = t.add_block(a, m, &[]).unwrap();
        let mut tip = a;
        for _ in 0..64 {
            tip = t.add_block(tip, m, &[]).unwrap();
        }
        // The next block sits at height 66, `stale` at height 2.
        assert_eq!(select_uncles(&t, tip, 64, None, |_| true), vec![stale]);
        assert!(select_uncles(&t, tip, 63, None, |_| true).is_empty());
    }

    #[test]
    fn main_chain_block_never_an_uncle() {
        let m = MinerId(0);
        let mut t = BlockTree::new();
        let a = t.add_block(t.genesis(), m, &[]).unwrap();
        let b = t.add_block(a, m, &[]).unwrap();
        // c references its own grandparent (on-chain): invalid.
        let c = t.add_block(b, m, &[a]).unwrap();
        let chain = vec![t.genesis(), a, b, c];
        assert!(uncle_events(&t, &chain, 6).is_empty());
    }
}
