//! What every workload shares: the op interface the measuring loop drives,
//! seed derivation, the committed policy artifacts, and the per-layer
//! counts the traced run reads from public outputs.

use std::collections::BTreeMap;
use std::path::Path;

use seleth_mdp::{Fork, PolicyTable};

use crate::trace::Tracer;

/// A workload: a fixed, seeded list of similar ops.
pub trait Workload {
    /// What one op returns, for its check and the traced probes.
    type Output;

    /// Ops in the list.
    fn len(&self) -> usize;

    /// Simulated blocks per op (`0` for workloads that simulate nothing).
    fn blocks_per_op(&self) -> u64 {
        0
    }

    /// Untimed work before the warm-up op, such as solving the reference
    /// values the checks compare against.
    fn prepare(&mut self) -> Result<(), String> {
        Ok(())
    }

    /// Run op `i`: the measured call into the workspace. Wraps its calls
    /// in spans so the traced run sees each layer.
    fn run(&mut self, i: usize, tr: &mut Tracer) -> Result<Self::Output, String>;

    /// Check op `i`'s output (untimed).
    fn check(&mut self, i: usize, out: &Self::Output) -> Result<(), String>;

    /// Traced run only, untimed: re-run single layers on the op's inputs
    /// and outputs under spans, and add the op's public counts.
    fn probe(&mut self, i: usize, out: &Self::Output, tr: &mut Tracer, counts: &mut Counts);

    /// A once-per-run check outside timing, counted as one extra op.
    fn canary(&mut self) -> Option<Result<(), String>> {
        None
    }
}

/// Exact counts read from public outputs, plus the denominators of the
/// per-layer rates. Summed over the traced ops.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counts {
    /// Blocks stepped through `Simulation::step`.
    pub engine_blocks: u64,
    /// Blocks in the trees the chain-layer probes walked.
    pub chain_tree_blocks: u64,
    /// `SimReport::blocks_mined`, summed.
    pub chain_blocks: u64,
    /// Referenced uncles (`RewardReport::uncle_count`), summed.
    pub chain_uncle_refs: u64,
    /// `PolicyTable::decide` calls made by the probes.
    pub decide_calls: u64,
    /// Blocks mined by `DelaySimulation::run`.
    pub delay_blocks: u64,
    /// `Topology::propagate` calls made by the probes.
    pub propagate_calls: u64,
    /// `DelayReport.counters` totals.
    pub gossip_sends: u64,
    /// Copies dropped by a receiver's seen-set.
    pub gossip_dedup_drops: u64,
    /// Loss coins that forced a re-send.
    pub gossip_loss_retries: u64,
    /// Deliveries whose earliest path had two or more edges.
    pub relay_hops: u64,
    /// Delivery events processed at receivers.
    pub deliveries: u64,
    /// Blocks that ended off the main chain.
    pub orphan_blocks: u64,
    /// Value-iteration sweeps (`Solution::iterations`), summed.
    pub solver_sweeps: u64,
    /// Bisection steps, summed.
    pub solver_bisections: u64,
    /// States of one solve.
    pub solver_states: u64,
    /// `iterations × states`, summed: the denominator of ns per state sweep.
    pub solver_state_sweeps: u64,
    /// Iterates after the first that beat the cold iterate's sweep count.
    pub warm_start_hits: u64,
    /// Iterates after the first.
    pub warm_start_iterates: u64,
    /// Matrix non-zeros streamed by the `left_mul_vec` probes.
    pub spmv_nnz: u64,
}

/// The splitmix64 finalizer: seeds and orders derive from the workload
/// seed through it, so the same seed gives the same inputs.
pub fn splitmix64(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The `i`-th value of the seed stream `stream`.
pub fn derive(seed: u64, stream: u64, i: u64) -> u64 {
    splitmix64(splitmix64(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15)) ^ i)
}

/// Map a hash to `[0, 1)`.
pub fn unit(h: u64) -> f64 {
    (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// `points` evenly spaced values from `lo` to `hi`, both included.
pub fn grid(lo: f64, hi: f64, points: usize) -> Vec<f64> {
    let step = (hi - lo) / (points - 1) as f64;
    (0..points).map(|k| lo + step * k as f64).collect()
}

/// Grid indices up and back down (`0, 1, …, n−1, n−2, …, 1`), rotated to
/// start at a seed-derived position. Neighbouring entries are always
/// adjacent grid points, so warm-started solves cost the same whatever
/// the seed.
pub fn zigzag(points: usize, seed: u64) -> Vec<usize> {
    let cycle: Vec<usize> = (0..points).chain((1..points - 1).rev()).collect();
    let start = (splitmix64(seed) % cycle.len() as u64) as usize;
    cycle[start..]
        .iter()
        .chain(&cycle[..start])
        .copied()
        .collect()
}

/// Every committed policy artifact under `results/policies`.
pub const ARTIFACTS: [&str; 6] = [
    "bitcoin_a020_g050",
    "bitcoin_a035_g000",
    "bitcoin_a040_g050",
    "bitcoin_a040_g050_d12",
    "bitcoin_a040_g050_d6",
    "ethereum_a030_g050",
];

/// Load every artifact and audit that its prescriptions are legal in
/// every state.
pub fn load_artifacts(dir: &Path) -> Result<BTreeMap<&'static str, PolicyTable>, String> {
    ARTIFACTS
        .iter()
        .map(|&name| {
            let path = dir.join(format!("{name}.json"));
            let table = PolicyTable::load(&path).map_err(|e| format!("{}: {e}", path.display()))?;
            if !table.is_legal_everywhere() {
                return Err(format!("{name}: illegal prescription in some state"));
            }
            Ok((name, table))
        })
        .collect()
}

/// Call `PolicyTable::decide` on every state of the table's space; returns
/// the number of calls and a digest of the answers.
pub fn decide_everywhere(table: &PolicyTable) -> (u64, u64) {
    let space = table.state_space();
    let bound = space.match_d_bound().unwrap_or(0);
    let (mut calls, mut digest) = (0u64, 0u64);
    for fork in [Fork::Irrelevant, Fork::Relevant, Fork::Active] {
        for match_d in 0..=bound {
            for a in 0..=space.max_len() {
                for h in 0..=space.max_len() {
                    let action = table.decide(a, h, fork, match_d);
                    digest = digest.wrapping_mul(31).wrapping_add(action as u64);
                    calls += 1;
                }
            }
        }
    }
    (calls, digest)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zigzag_steps_between_neighbours_only() {
        for seed in 0..20 {
            let order = zigzag(6, seed);
            assert_eq!(order.len(), 10);
            for pair in order.windows(2) {
                assert_eq!(pair[0].abs_diff(pair[1]), 1);
            }
            assert_eq!(order[0].abs_diff(order[9]), 1, "the cycle closes");
        }
        assert_eq!(zigzag(6, 3), zigzag(6, 3), "same seed, same order");
    }

    #[test]
    fn grid_includes_both_ends() {
        let g = grid(0.10, 0.45, 8);
        assert_eq!(g.len(), 8);
        assert!((g[0] - 0.10).abs() < 1e-15 && (g[7] - 0.45).abs() < 1e-12);
    }
}
