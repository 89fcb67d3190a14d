//! Property-based tests over the whole stack: invariants that must hold
//! for *any* parameters, not just the paper's operating points.

use proptest::prelude::*;

use selfish_ethereum::chain::accounting;
use selfish_ethereum::chain::forkchoice::{self, TieBreak};
use selfish_ethereum::core::{revenue, stationary};
use selfish_ethereum::prelude::*;

fn alpha_strategy() -> impl Strategy<Value = f64> {
    // Stay below 0.47 so small truncations remain accurate.
    (0.01f64..0.47).prop_map(|a| (a * 1000.0).round() / 1000.0)
}

fn gamma_strategy() -> impl Strategy<Value = f64> {
    (0.0f64..=1.0).prop_map(|g| (g * 100.0).round() / 100.0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The stationary distribution is a probability distribution and its
    /// small states match the closed forms, for any (α, γ).
    #[test]
    fn stationary_is_probability_distribution(alpha in alpha_strategy(), gamma in gamma_strategy()) {
        let params = ModelParams::with_truncation(alpha, gamma, RewardSchedule::ethereum(), 250)
            .expect("valid");
        let dist = stationary::solve(&params).expect("solve");
        let mut total = 0.0;
        for (_, p) in dist.iter() {
            prop_assert!(p >= -1e-12, "negative probability {p}");
            total += p;
        }
        prop_assert!((total - 1.0).abs() < 1e-9);
        // Closed-form agreement. Truncation bias is negligible except in
        // the slow-mixing corner γ → 0, α → 0.5, where the pool's lead is
        // a nearly unbiased random walk and excursions outlive any finite
        // truncation (see the `ablation_truncation` experiment); allow a
        // correspondingly looser bound there.
        let tol = if alpha <= 0.40 || gamma >= 0.2 { 1e-5 } else { 2e-2 };
        prop_assert!(
            (dist.prob(&State::new(0, 0)) - stationary::pi00(alpha)).abs() < tol,
            "pi00 numeric {} vs closed {}", dist.prob(&State::new(0, 0)), stationary::pi00(alpha)
        );
    }

    /// Block-type rates always partition the unit production rate, and all
    /// revenue components are non-negative.
    #[test]
    fn revenue_rates_partition(alpha in alpha_strategy(), gamma in gamma_strategy()) {
        let params = ModelParams::with_truncation(alpha, gamma, RewardSchedule::ethereum(), 80)
            .expect("valid");
        let dist = stationary::solve(&params).expect("solve");
        let r = revenue::revenue_from_distribution(&params, dist.probs());
        prop_assert!((r.regular_rate + r.uncle_rate + r.stale_rate - 1.0).abs() < 1e-9);
        for v in [
            r.pool.static_reward, r.pool.uncle_reward, r.pool.nephew_reward,
            r.honest.static_reward, r.honest.uncle_reward, r.honest.nephew_reward,
        ] {
            prop_assert!(v >= -1e-12, "negative revenue component {v}");
        }
        // Static rewards are exactly the regular rate (Ks = 1).
        prop_assert!((r.pool.static_reward + r.honest.static_reward - r.regular_rate).abs() < 1e-9);
    }

    /// The pool's relative share always meets or beats the Eyal–Sirer
    /// share under the Ethereum schedule (uncle rewards only help).
    #[test]
    fn uncle_rewards_never_hurt_the_pool(alpha in alpha_strategy(), gamma in gamma_strategy()) {
        let eth = ModelParams::with_truncation(alpha, gamma, RewardSchedule::ethereum(), 80)
            .expect("valid");
        let btc = ModelParams::with_truncation(alpha, gamma, RewardSchedule::bitcoin(), 80)
            .expect("valid");
        let us_eth = Analysis::new(&eth).expect("solve").revenue()
            .absolute_pool(Scenario::RegularRate);
        let us_btc = Analysis::new(&btc).expect("solve").revenue()
            .absolute_pool(Scenario::RegularRate);
        prop_assert!(us_eth >= us_btc - 1e-9, "eth {us_eth} < btc {us_btc}");
    }

    /// Simulated trees always account consistently: the main chain length
    /// equals the regular count, rewards match block counts, and the block
    /// classes partition the tree.
    #[test]
    fn simulation_accounting_consistent(
        alpha in 0.0f64..0.6,
        gamma in gamma_strategy(),
        seed in 0u64..1_000,
    ) {
        let config = SimConfig::builder()
            .alpha(alpha)
            .gamma(gamma)
            .blocks(2_000)
            .n_honest(20)
            .seed(seed)
            .build()
            .expect("valid");
        let report = Simulation::new(config).run();
        let rr = &report.reward_report;
        prop_assert_eq!(rr.block_count(), report.blocks_mined);
        // Static reward equals regular count (Ks = 1).
        let static_total: f64 = report.pool.static_reward + report.honest.static_reward;
        prop_assert!((static_total - rr.regular_count as f64).abs() < 1e-9);
        // Every uncle pays Ku > 0 at distance <= 6 under the Ethereum
        // schedule, so uncle reward count and histogram agree.
        let hist_total: u64 = report.honest_uncle_histogram.iter().sum::<u64>()
            + report.pool_uncle_histogram.iter().sum::<u64>();
        prop_assert_eq!(hist_total, rr.uncle_count);
    }

    /// The longest chain through a simulated tree is monotone in height
    /// and parent-linked (i.e. a real chain).
    #[test]
    fn main_chain_is_well_formed(seed in 0u64..200) {
        let config = SimConfig::builder()
            .alpha(0.4)
            .gamma(0.5)
            .blocks(500)
            .n_honest(10)
            .seed(seed)
            .build()
            .expect("valid");
        let mut sim = Simulation::new(config);
        for _ in 0..500 {
            sim.step();
        }
        let tree = sim.tree();
        let chain = forkchoice::longest_chain(tree, TieBreak::FirstSeen);
        prop_assert_eq!(chain[0], tree.genesis());
        for w in chain.windows(2) {
            prop_assert_eq!(tree.block(w[1]).parent(), Some(w[0]));
        }
    }

    /// Accounting under any uncle cap never pays more than the uncapped
    /// schedule, and total reward decomposes exactly by miner.
    #[test]
    fn capped_accounting_bounded(seed in 0u64..200) {
        let config = SimConfig::builder()
            .alpha(0.35)
            .blocks(2_000)
            .n_honest(10)
            .seed(seed)
            .build()
            .expect("valid");
        let mut sim = Simulation::new(config);
        for _ in 0..2_000 {
            sim.step();
        }
        let tree = sim.tree();
        let chain = forkchoice::longest_chain(tree, TieBreak::FirstSeen);
        let unlimited = accounting::account(tree, &chain, &RewardSchedule::ethereum());
        let capped = accounting::account(tree, &chain, &RewardSchedule::ethereum_capped());
        prop_assert!(capped.total_reward() <= unlimited.total_reward() + 1e-9);
        prop_assert!(capped.uncle_count <= unlimited.uncle_count);
        let by_miner: f64 = unlimited.per_miner.values().map(|m| m.total()).sum();
        prop_assert!((by_miner - unlimited.total_reward()).abs() < 1e-9);
    }
}
