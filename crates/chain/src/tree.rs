use serde::{Deserialize, Serialize};

use crate::block::{Block, BlockId, MinerId, UncleRefs};
use crate::error::ChainError;

/// An append-only tree of blocks rooted at a genesis block.
///
/// The tree is the "view of all blocks" each client observes in the paper's
/// Section II-B: forks appear as multiple children of a block, and a main
/// chain is chosen from the tree by a fork-choice rule
/// ([`crate::forkchoice`]).
///
/// Blocks are stored in an arena indexed by [`BlockId`]; the genesis block is
/// created by [`BlockTree::new`] with a reserved miner id (`u32::MAX`) so
/// that it never appears in reward accounting. Children are first-child /
/// next-sibling links in a second flat array, so appending a block
/// allocates nothing per block.
///
/// ```
/// use seleth_chain::{BlockTree, MinerId};
/// let mut tree = BlockTree::new();
/// let g = tree.genesis();
/// let a = tree.add_block(g, MinerId(7), &[]).unwrap();
/// let b = tree.add_block(a, MinerId(8), &[]).unwrap();
/// assert_eq!(tree.height(b), 2);
/// assert!(tree.is_ancestor(g, b));
/// assert!(!tree.is_ancestor(b, a));
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BlockTree {
    blocks: Vec<Block>,
    /// Child links, indexed like `blocks`.
    links: Vec<Links>,
}

/// One block's children as a linked list through `next_sibling`. Genesis
/// is never a child, so id 0 stands for "none".
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
struct Links {
    first_child: u32,
    last_child: u32,
    next_sibling: u32,
}

/// Miner id reserved for the genesis block.
pub(crate) const GENESIS_MINER: MinerId = MinerId(u32::MAX);

impl BlockTree {
    /// Create a tree containing only the genesis block.
    pub fn new() -> Self {
        let genesis = Block {
            id: BlockId(0),
            parent: BlockId(0),
            height: 0,
            miner: GENESIS_MINER,
            uncle_refs: UncleRefs::new(&[]),
        };
        BlockTree {
            blocks: vec![genesis],
            links: vec![Links::default()],
        }
    }

    /// Id of the genesis block (always the same value for every tree).
    pub fn genesis(&self) -> BlockId {
        BlockId(0)
    }

    /// Drop every block except genesis, keeping the arena's allocations.
    ///
    /// Lets long-running drivers (e.g. `seleth-sim`'s multi-run workers)
    /// recycle one tree across many simulations instead of reallocating the
    /// arena per run.
    pub fn reset(&mut self) {
        self.blocks.truncate(1);
        self.links.truncate(1);
        self.links[0] = Links::default();
    }

    /// Total number of blocks, including genesis.
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// `false` always (a tree always contains genesis); provided for
    /// API completeness alongside [`BlockTree::len`].
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Append a block on `parent`, mined by `miner`, referencing
    /// `uncle_refs` as uncles.
    ///
    /// Reference *validity* (distance bounds, main-chain membership of the
    /// uncle's parent) is not checked here — it cannot be, since the main
    /// chain is only decided later; [`crate::classify`] and
    /// [`crate::accounting`] validate references when rewards are computed.
    /// Structural sanity is checked.
    ///
    /// # Errors
    ///
    /// - [`ChainError::UnknownParent`] if `parent` is not in the tree.
    /// - [`ChainError::UnknownUncle`] if a reference is not in the tree.
    /// - [`ChainError::SelfReference`] if a reference equals `parent`.
    /// - [`ChainError::Full`] if the arena is exhausted.
    pub fn add_block(
        &mut self,
        parent: BlockId,
        miner: MinerId,
        uncle_refs: &[BlockId],
    ) -> Result<BlockId, ChainError> {
        if !self.contains(parent) {
            return Err(ChainError::UnknownParent { parent });
        }
        for &u in uncle_refs {
            if !self.contains(u) {
                return Err(ChainError::UnknownUncle { uncle: u });
            }
            if u == parent {
                return Err(ChainError::SelfReference { uncle: u });
            }
        }
        let id = BlockId(u32::try_from(self.blocks.len()).map_err(|_| ChainError::Full)?);
        // Heights stay below ids, so `u32` holds them.
        let height = self.blocks[parent.index()].height + 1;
        self.blocks.push(Block {
            id,
            parent,
            height,
            miner,
            uncle_refs: UncleRefs::new(uncle_refs),
        });
        self.links.push(Links::default());
        let siblings = &mut self.links[parent.index()];
        let last = std::mem::replace(&mut siblings.last_child, id.0);
        if last == 0 {
            siblings.first_child = id.0;
        } else {
            self.links[last as usize].next_sibling = id.0;
        }
        Ok(id)
    }

    /// `true` if `id` is a block in this tree.
    pub fn contains(&self, id: BlockId) -> bool {
        id.index() < self.blocks.len()
    }

    /// Borrow the block with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not in the tree; use [`BlockTree::get`] for a
    /// fallible lookup.
    pub fn block(&self, id: BlockId) -> &Block {
        &self.blocks[id.index()]
    }

    /// Borrow the block with the given id, or `None` if absent.
    pub fn get(&self, id: BlockId) -> Option<&Block> {
        self.blocks.get(id.index())
    }

    /// Height of a block (genesis = 0).
    ///
    /// # Panics
    ///
    /// Panics if `id` is not in the tree.
    pub fn height(&self, id: BlockId) -> u64 {
        self.block(id).height()
    }

    /// Children of a block, in insertion order.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not in the tree.
    pub fn children(&self, id: BlockId) -> impl Iterator<Item = BlockId> + '_ {
        let first = self.links[id.index()].first_child;
        std::iter::successors((first != 0).then_some(BlockId(first)), |c| {
            let next = self.links[c.index()].next_sibling;
            (next != 0).then_some(BlockId(next))
        })
    }

    /// Iterate all blocks in insertion (id) order, genesis first.
    pub fn iter(&self) -> impl Iterator<Item = &Block> + '_ {
        self.blocks.iter()
    }

    /// `true` if `ancestor` lies on the path from `descendant` to genesis
    /// (a block is its own ancestor).
    ///
    /// # Panics
    ///
    /// Panics if either id is not in the tree.
    pub fn is_ancestor(&self, ancestor: BlockId, descendant: BlockId) -> bool {
        let target_height = self.height(ancestor);
        let mut cur = descendant;
        while self.height(cur) > target_height {
            cur = self.up(cur);
        }
        cur == ancestor
    }

    /// The ancestor of `id` at exactly `height`, or `None` if `height`
    /// exceeds the block's own height.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not in the tree.
    pub fn ancestor_at(&self, id: BlockId, height: u64) -> Option<BlockId> {
        if height > self.height(id) {
            return None;
        }
        let mut cur = id;
        while self.height(cur) > height {
            cur = self.up(cur);
        }
        Some(cur)
    }

    /// Path from genesis to `id`, inclusive on both ends.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not in the tree.
    pub fn path_from_genesis(&self, id: BlockId) -> Vec<BlockId> {
        let mut path = Vec::with_capacity(self.height(id) as usize + 1);
        let mut cur = Some(id);
        while let Some(b) = cur {
            path.push(b);
            cur = self.block(b).parent();
        }
        path.reverse();
        path
    }

    /// Lowest common ancestor of two blocks.
    ///
    /// # Panics
    ///
    /// Panics if either id is not in the tree.
    pub fn common_ancestor(&self, a: BlockId, b: BlockId) -> BlockId {
        let (mut x, mut y) = (a, b);
        while self.height(x) > self.height(y) {
            x = self.up(x);
        }
        while self.height(y) > self.height(x) {
            y = self.up(y);
        }
        while x != y {
            x = self.up(x);
            y = self.up(y);
        }
        x
    }

    /// One step toward genesis: the parent, or genesis itself for genesis.
    /// Every walk built on it ends at genesis at the latest, so none can
    /// panic or loop.
    fn up(&self, id: BlockId) -> BlockId {
        self.block(id).parent
    }

    /// All leaf blocks (no children).
    pub fn leaves(&self) -> Vec<BlockId> {
        self.blocks
            .iter()
            .zip(&self.links)
            .filter(|(_, l)| l.first_child == 0)
            .map(|(b, _)| b.id)
            .collect()
    }

    /// Maximum height present in the tree.
    pub fn max_height(&self) -> u64 {
        self.blocks.iter().map(Block::height).max().unwrap_or(0)
    }

    /// Number of blocks in the subtree rooted at `id` (including `id`).
    ///
    /// Used by the GHOST fork-choice rule.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not in the tree.
    pub fn subtree_size(&self, id: BlockId) -> usize {
        let mut count = 0;
        let mut stack = vec![id];
        while let Some(b) = stack.pop() {
            count += 1;
            stack.extend(self.children(b));
        }
        count
    }
}

impl Default for BlockTree {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Build a small fixture:
    /// ```text
    /// g - a - b - c
    ///      \
    ///       d - e
    /// ```
    fn fixture() -> (BlockTree, [BlockId; 5]) {
        let mut t = BlockTree::new();
        let m = MinerId(1);
        let a = t.add_block(t.genesis(), m, &[]).unwrap();
        let b = t.add_block(a, m, &[]).unwrap();
        let c = t.add_block(b, m, &[]).unwrap();
        let d = t.add_block(a, m, &[]).unwrap();
        let e = t.add_block(d, m, &[]).unwrap();
        (t, [a, b, c, d, e])
    }

    #[test]
    fn heights_follow_parents() {
        let (t, [a, b, c, d, e]) = fixture();
        assert_eq!(t.height(t.genesis()), 0);
        assert_eq!(t.height(a), 1);
        assert_eq!(t.height(b), 2);
        assert_eq!(t.height(c), 3);
        assert_eq!(t.height(d), 2);
        assert_eq!(t.height(e), 3);
    }

    #[test]
    fn ancestry_queries() {
        let (t, [a, b, c, d, e]) = fixture();
        assert!(t.is_ancestor(a, c));
        assert!(t.is_ancestor(a, e));
        assert!(!t.is_ancestor(b, e));
        assert!(t.is_ancestor(c, c));
        assert_eq!(t.common_ancestor(c, e), a);
        assert_eq!(t.common_ancestor(b, c), b);
        assert_eq!(t.ancestor_at(e, 1), Some(a));
        assert_eq!(t.ancestor_at(e, 2), Some(d));
        assert_eq!(t.ancestor_at(a, 5), None);
    }

    #[test]
    fn path_and_leaves() {
        let (t, [a, b, c, _d, e]) = fixture();
        assert_eq!(t.path_from_genesis(c), vec![t.genesis(), a, b, c]);
        let mut leaves = t.leaves();
        leaves.sort();
        assert_eq!(leaves, vec![c, e]);
    }

    #[test]
    fn subtree_sizes() {
        let (t, [a, _b, _c, d, _e]) = fixture();
        assert_eq!(t.subtree_size(t.genesis()), 6);
        assert_eq!(t.subtree_size(a), 5);
        assert_eq!(t.subtree_size(d), 2);
    }

    #[test]
    fn unknown_parent_rejected() {
        let mut t = BlockTree::new();
        let err = t.add_block(BlockId(42), MinerId(0), &[]).unwrap_err();
        assert_eq!(
            err,
            ChainError::UnknownParent {
                parent: BlockId(42)
            }
        );
    }

    #[test]
    fn unknown_uncle_rejected() {
        let mut t = BlockTree::new();
        let err = t
            .add_block(t.genesis(), MinerId(0), &[BlockId(9)])
            .unwrap_err();
        assert_eq!(err, ChainError::UnknownUncle { uncle: BlockId(9) });
    }

    #[test]
    fn parent_as_uncle_rejected() {
        let (mut t, [a, ..]) = fixture();
        let err = t.add_block(a, MinerId(0), &[a]).unwrap_err();
        assert_eq!(err, ChainError::SelfReference { uncle: a });
    }

    #[test]
    fn children_in_insertion_order() {
        let (t, [a, b, _c, d, _e]) = fixture();
        assert_eq!(t.children(a).collect::<Vec<_>>(), [b, d]);
    }

    #[test]
    fn iter_visits_all_blocks() {
        let (t, _) = fixture();
        assert_eq!(t.iter().count(), 6);
        assert!(t.iter().next().unwrap().is_genesis());
    }
}
