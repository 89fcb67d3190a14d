//! Property-based tests of the blockchain substrate on randomly grown
//! trees: structural invariants, fork-choice sanity, classification
//! partitioning, and accounting conservation.

use proptest::prelude::*;

use seleth_chain::accounting;
use seleth_chain::classify::{self, BlockClass};
use seleth_chain::forkchoice::{self, TieBreak};
use seleth_chain::{BlockId, BlockTree, MinerId, RewardSchedule};

/// Grow a random tree: each step attaches a block to a uniformly chosen
/// existing block, with random miner and random (possibly invalid)
/// uncle references — the validity filters are part of what we test.
fn random_tree(choices: &[(u8, u8, u8)]) -> BlockTree {
    let mut tree = BlockTree::new();
    let mut ids: Vec<BlockId> = vec![tree.genesis()];
    for &(parent_pick, miner, ref_pick) in choices {
        let parent = ids[parent_pick as usize % ids.len()];
        let candidate = ids[ref_pick as usize % ids.len()];
        let refs: Vec<BlockId> = if candidate != parent {
            vec![candidate]
        } else {
            Vec::new()
        };
        let id = tree
            .add_block(parent, MinerId(u32::from(miner % 5)), &refs)
            .expect("structurally valid");
        ids.push(id);
    }
    tree
}

/// Grow a random tree whose blocks reference 0–5 earlier blocks each
/// (never their parent), and return it with each block's reference list,
/// genesis's empty one first.
fn tree_with_refs(choices: &[(u8, Vec<u8>)]) -> (BlockTree, Vec<Vec<BlockId>>) {
    let mut tree = BlockTree::new();
    let mut ids = vec![tree.genesis()];
    let mut given = vec![Vec::new()];
    for (parent_pick, picks) in choices {
        let parent = ids[*parent_pick as usize % ids.len()];
        let refs: Vec<BlockId> = picks
            .iter()
            .map(|&r| ids[r as usize % ids.len()])
            .filter(|&r| r != parent)
            .collect();
        let id = tree
            .add_block(parent, MinerId(0), &refs)
            .expect("structurally valid");
        ids.push(id);
        given.push(refs);
    }
    (tree, given)
}

fn tree_strategy() -> impl Strategy<Value = BlockTree> {
    proptest::collection::vec((any::<u8>(), any::<u8>(), any::<u8>()), 1..120)
        .prop_map(|choices| random_tree(&choices))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Heights, parents and ancestry are mutually consistent.
    #[test]
    fn tree_structure_invariants(tree in tree_strategy()) {
        for block in tree.iter() {
            match block.parent() {
                None => prop_assert_eq!(block.height(), 0),
                Some(p) => {
                    prop_assert_eq!(block.height(), tree.height(p) + 1);
                    prop_assert!(tree.is_ancestor(p, block.id()));
                    prop_assert!(tree.children(p).any(|c| c == block.id()));
                }
            }
        }
        // Subtree of genesis covers everything.
        prop_assert_eq!(tree.subtree_size(tree.genesis()), tree.len());
    }

    /// `children(p)` yields exactly the blocks whose parent is `p`, in id
    /// order, and every header returns the references it was built with,
    /// whether they fit inline (two or fewer) or spill to the heap.
    #[test]
    fn children_and_uncle_refs_match_the_tree_built(
        choices in proptest::collection::vec(
            (any::<u8>(), proptest::collection::vec(any::<u8>(), 0..6)),
            1..80,
        )
    ) {
        let (tree, given) = tree_with_refs(&choices);
        for p in tree.iter() {
            let want: Vec<BlockId> = tree
                .iter()
                .filter(|b| b.parent() == Some(p.id()))
                .map(|b| b.id())
                .collect();
            prop_assert_eq!(tree.children(p.id()).collect::<Vec<_>>(), want);
        }
        prop_assert_eq!(given.len(), tree.len());
        for (block, refs) in tree.iter().zip(&given) {
            prop_assert_eq!(block.uncle_refs(), &refs[..]);
        }
    }

    /// The longest chain is a real chain ending at maximal height, and the
    /// GHOST chain is a real chain too.
    #[test]
    fn fork_choice_chains_are_chains(tree in tree_strategy()) {
        for chain in [
            forkchoice::longest_chain(&tree, TieBreak::FirstSeen),
            forkchoice::ghost_chain(&tree, TieBreak::FirstSeen),
        ] {
            prop_assert_eq!(chain[0], tree.genesis());
            for w in chain.windows(2) {
                prop_assert_eq!(tree.block(w[1]).parent(), Some(w[0]));
            }
        }
        let longest = forkchoice::longest_chain(&tree, TieBreak::FirstSeen);
        prop_assert_eq!(
            tree.height(*longest.last().unwrap()),
            tree.max_height()
        );
    }

    /// Classification partitions all non-genesis blocks, and every uncle's
    /// parent lies on the main chain with a distance within bounds.
    #[test]
    fn classification_partitions(tree in tree_strategy()) {
        let chain = forkchoice::longest_chain(&tree, TieBreak::FirstSeen);
        let classes = classify::classify(&tree, &chain, 6);
        prop_assert_eq!(classes.len(), tree.len());
        let on_chain: std::collections::HashSet<_> = chain.iter().copied().collect();
        for (block, class) in tree.iter().zip(&classes) {
            let id = block.id();
            match *class {
                BlockClass::Regular => prop_assert!(on_chain.contains(&id)),
                BlockClass::Stale => prop_assert!(!on_chain.contains(&id)),
                BlockClass::Uncle { nephew, distance } => {
                    prop_assert!(!on_chain.contains(&id));
                    prop_assert!(on_chain.contains(&nephew));
                    let parent = tree.block(id).parent().expect("uncles are not genesis");
                    prop_assert!(on_chain.contains(&parent));
                    prop_assert!((1..=6).contains(&distance));
                    prop_assert_eq!(
                        tree.height(nephew) - tree.height(id),
                        distance
                    );
                }
            }
        }
    }

    /// Accounting conserves rewards: per-miner totals sum to the report
    /// total; block counts sum to the tree size minus genesis; each uncle
    /// pays exactly Ku + Kn.
    #[test]
    fn accounting_conserves(tree in tree_strategy()) {
        let chain = forkchoice::longest_chain(&tree, TieBreak::FirstSeen);
        let schedule = RewardSchedule::ethereum();
        let report = accounting::account(&tree, &chain, &schedule);
        prop_assert_eq!(report.block_count() as usize, tree.len() - 1);
        let by_miner: f64 = report.per_miner.values().map(|m| m.total()).sum();
        prop_assert!((by_miner - report.total_reward()).abs() < 1e-9);

        // Recompute the expected total from the classification directly.
        let events = classify::uncle_events(&tree, &chain, 6);
        let expected: f64 = (chain.len() - 1) as f64
            + events
                .iter()
                .map(|e| schedule.uncle_reward(e.distance) + schedule.nephew_reward(e.distance))
                .sum::<f64>();
        prop_assert!((report.total_reward() - expected).abs() < 1e-9);
    }

    /// A stricter uncle cap never increases any miner's reward.
    #[test]
    fn caps_are_monotone(tree in tree_strategy()) {
        let chain = forkchoice::longest_chain(&tree, TieBreak::FirstSeen);
        let unlimited = accounting::account(&tree, &chain, &RewardSchedule::ethereum());
        let capped1 = accounting::account(
            &tree,
            &chain,
            &RewardSchedule::ethereum().with_max_uncles_per_block(Some(1)),
        );
        prop_assert!(capped1.total_reward() <= unlimited.total_reward() + 1e-9);
        prop_assert!(capped1.uncle_count <= unlimited.uncle_count);
        // Static rewards are untouched by the cap.
        for (id, m) in &capped1.per_miner {
            prop_assert_eq!(m.static_reward, unlimited.miner(*id).static_reward);
        }
    }

    /// Tie-break policy changes the head only among equal-height leaves.
    #[test]
    fn tie_break_consistent(tree in tree_strategy()) {
        let first = forkchoice::longest_chain_head(&tree, TieBreak::FirstSeen);
        let last = forkchoice::longest_chain_head(&tree, TieBreak::LastSeen);
        prop_assert_eq!(tree.height(first), tree.height(last));
        prop_assert!(first <= last, "FirstSeen picks the earliest id");
    }
}
