//! The lowering oracle: every built-in pool strategy of the Section V
//! engine replays bit for bit as its zoo family lowered into a table.
//!
//! `PoolStrategy::Selfish`, `LeadStubborn` and `Honest` run against
//! `Family::Sm1`, `Family::LeadStubborn { k: u32::MAX }` and
//! `Family::Honest` lowered at truncation 128, over a grid of attacker
//! shares, network sizes, seeds and reward schedules. Each pair must build
//! the same block tree (every block's parent, miner and uncle references),
//! pay the pool and the network the same reward bits and visit the same
//! `(Ls, Lh)` states the same number of times.

use seleth_chain::RewardSchedule;
use seleth_sim::{PoolStrategy, SimConfig, SimConfigBuilder, Simulation};
use seleth_zoo::Family;

/// A visited `(Ls, Lh)` state and its count.
type Visit = ((u32, u32), u64);

/// Run `builder` to the end: an FNV-1a digest over every block's parent,
/// miner and reference list in id order, the pool and total reward bits,
/// and the state visits in state order.
fn outcome(builder: &SimConfigBuilder) -> (u64, u64, u64, Vec<Visit>) {
    let mut sim = Simulation::new(builder.build().unwrap());
    let report = sim.run_in_place();
    let mut hash = 0xcbf2_9ce4_8422_2325_u64;
    let mut mix = |x: u64| hash = (hash ^ x).wrapping_mul(0x0000_0100_0000_01b3);
    for block in sim.tree().iter() {
        mix(block.parent().map_or(u64::MAX, |p| p.index() as u64));
        mix(u64::from(block.miner().0));
        mix(block.uncle_refs().len() as u64);
        block
            .uncle_refs()
            .iter()
            .for_each(|r| mix(r.index() as u64));
    }
    let mut visits: Vec<_> = report.state_visits.into_iter().collect();
    visits.sort_unstable();
    let pool = report.pool.total().to_bits();
    (
        hash,
        pool,
        report.reward_report.total_reward().to_bits(),
        visits,
    )
}

#[test]
fn built_in_strategies_replay_as_their_lowered_tables() {
    let pairs = [
        (PoolStrategy::Selfish, Family::Sm1),
        (
            PoolStrategy::LeadStubborn,
            Family::LeadStubborn { k: u32::MAX },
        ),
        (PoolStrategy::Honest, Family::Honest),
    ];
    let schedules = [
        RewardSchedule::ethereum(),
        RewardSchedule::ethereum_capped(),
        RewardSchedule::bitcoin(),
    ];
    let mut configs = 0;
    for (built_in, family) in pairs {
        for alpha in [0.10, 0.25, 0.35, 0.45] {
            // Family actions do not depend on (α, γ); the table carries
            // them as metadata only.
            let table = family.table(alpha, 0.5, 128);
            for (n_honest, seed, schedule) in [99, 999]
                .into_iter()
                .flat_map(|n| (1..=4).flat_map(move |seed| (0..3).map(move |s| (n, seed, s))))
            {
                let mut builder = SimConfig::builder();
                builder
                    .alpha(alpha)
                    .gamma(0.5)
                    .n_honest(n_honest)
                    .blocks(6_000)
                    .seed(seed)
                    .schedule(schedules[schedule].clone());
                let want = outcome(builder.strategy(built_in));
                let got = outcome(builder.policy(table.clone()));
                let at =
                    format!("{built_in:?} α={alpha} n={n_honest} seed={seed} schedule #{schedule}");
                assert_eq!(got.0, want.0, "tree at {at}");
                assert_eq!(got.1, want.1, "pool reward bits at {at}");
                assert_eq!(got.2, want.2, "total reward bits at {at}");
                assert_eq!(got.3, want.3, "state visits at {at}");
                configs += 1;
            }
        }
    }
    assert_eq!(configs, 288);
}
