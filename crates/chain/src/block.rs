use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifier of a block within a [`crate::BlockTree`].
///
/// Ids are dense arena indices assigned in insertion order; the genesis block
/// is always id 0. They stand in for the Keccak-256 hashes of real Ethereum
/// headers — the analysis never needs actual hashing, only identity and
/// parent links.
///
/// ```
/// use seleth_chain::BlockTree;
/// let tree = BlockTree::new();
/// assert_eq!(tree.genesis().index(), 0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct BlockId(pub(crate) u32);

impl BlockId {
    /// The dense arena index of this block.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for BlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// Identifier of a miner (or mining pool).
///
/// The simulator conventionally gives the selfish pool id 0 and honest
/// miners ids 1..n, but this crate attaches no meaning to the value.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct MinerId(pub u32);

impl fmt::Display for MinerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "miner{}", self.0)
    }
}

/// A block in the tree: header-level data only (the study is
/// transaction-agnostic; gas fees are ignored as in the paper).
///
/// Stored in 32 bytes, so every pass over a tree streams as little memory
/// as it can: a height never exceeds the block's `u32` id, and genesis
/// (id 0) stores itself as its parent.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Block {
    pub(crate) id: BlockId,
    pub(crate) parent: BlockId,
    pub(crate) height: u32,
    pub(crate) miner: MinerId,
    pub(crate) uncle_refs: UncleRefs,
}

const _: () = assert!(std::mem::size_of::<Block>() <= 32);

/// A header's uncle references, stored without a heap allocation up to
/// the protocol cap of two and boxed beyond it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) enum UncleRefs {
    /// The first `len` ids are the references.
    Inline { len: u8, ids: [BlockId; 2] },
    /// Three or more references, behind a thin pointer so the enum stays
    /// 16 bytes (a `Box<[BlockId]>` would make it 24).
    #[allow(clippy::box_collection)]
    Spilled(Box<Vec<BlockId>>),
}

impl UncleRefs {
    /// Copy `refs` into the inline slots, or into a box if they do not fit.
    pub(crate) fn new(refs: &[BlockId]) -> Self {
        let mut ids = [BlockId(0); 2];
        match ids.get_mut(..refs.len()) {
            Some(slots) => {
                slots.copy_from_slice(refs);
                UncleRefs::Inline {
                    len: refs.len() as u8,
                    ids,
                }
            }
            None => UncleRefs::Spilled(Box::new(refs.to_vec())),
        }
    }

    fn as_slice(&self) -> &[BlockId] {
        match self {
            UncleRefs::Inline { len, ids } => &ids[..usize::from(*len)],
            UncleRefs::Spilled(ids) => ids,
        }
    }
}

impl Block {
    /// This block's id.
    pub fn id(&self) -> BlockId {
        self.id
    }

    /// Parent id; `None` only for the genesis block.
    pub fn parent(&self) -> Option<BlockId> {
        (!self.is_genesis()).then_some(self.parent)
    }

    /// Height above genesis (genesis is 0).
    pub fn height(&self) -> u64 {
        u64::from(self.height)
    }

    /// The miner that produced this block.
    pub fn miner(&self) -> MinerId {
        self.miner
    }

    /// Uncle blocks referenced by this block's header.
    pub fn uncle_refs(&self) -> &[BlockId] {
        self.uncle_refs.as_slice()
    }

    /// `true` for the genesis block.
    pub fn is_genesis(&self) -> bool {
        self.id.0 == 0
    }
}
