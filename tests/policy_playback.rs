//! Cross-validation of the policy subsystem: MDP-optimal strategies,
//! exported as artifacts, replayed by the Monte-Carlo simulator.
//!
//! The MDP solver predicts the optimal revenue ρ* by policy iteration over
//! an abstract state space; the simulator plays the exported table over a
//! real block tree with real fork choice and real reward accounting.
//! Nothing is shared between the two computations except the policy
//! itself, so agreement here validates solver, lowering, artifact format
//! and playback executor at once — the same closed loop
//! `tests/theory_vs_simulation.rs` provides for the closed-form analysis.
//! Bitcoin points replay classic three-axis artifacts; the Ethereum point
//! replays a four-axis (`match_d`-aware) format-2 artifact and is gated
//! just as hard.

use selfish_ethereum::prelude::*;

const RUNS: u64 = 6;
const BLOCKS: u64 = 30_000;
const SEED: u64 = 31337;

/// Solve the Bitcoin MDP, round-trip the artifact through disk, replay
/// it, and demand the simulated revenue match the predicted ρ* within
/// 3 standard errors *and* 1% absolute.
fn cross_validate(alpha: f64, gamma: f64) {
    let config = MdpConfig::new(alpha, gamma, RewardModel::Bitcoin).with_max_len(30);
    let solution = config.solve().expect("mdp solve");
    let table = PolicyTable::from_solution(&config, &solution);

    // The artifact must survive disk: what we replay is the *loaded* copy.
    let dir = std::env::temp_dir().join("seleth-policy-playback");
    let path = dir.join(format!("btc_a{alpha}_g{gamma}.json"));
    table.save(&path).expect("save artifact");
    let loaded = PolicyTable::load(&path).expect("load artifact");
    assert_eq!(table, loaded, "artifact round-trip must be lossless");
    let _ = std::fs::remove_file(&path);

    let sim_config = SimConfig::builder()
        .alpha(alpha)
        .gamma(gamma)
        .schedule(RewardSchedule::bitcoin())
        .blocks(BLOCKS)
        .n_honest(100)
        .seed(SEED)
        .policy(loaded)
        .build()
        .expect("valid config");
    let reports = multi::run_many(&sim_config, RUNS);
    let us = multi::mean_absolute_pool(&reports, Scenario::RegularRate);
    let std_err = us.std_dev / (RUNS as f64).sqrt();
    let diff = (us.mean - solution.revenue).abs();
    assert!(
        diff <= 3.0 * std_err,
        "alpha={alpha} gamma={gamma}: sim {} vs rho* {} is {:.2} standard errors",
        us.mean,
        solution.revenue,
        diff / std_err
    );
    assert!(
        diff <= 0.01,
        "alpha={alpha} gamma={gamma}: sim {} vs rho* {} misses 1% absolute",
        us.mean,
        solution.revenue
    );
}

#[test]
fn optimal_policy_below_threshold_earns_fair_share() {
    // γ = 0.5 puts the optimal-strategy threshold at 25%: at α = 0.2 the
    // optimum is honest mining and ρ* = α exactly.
    cross_validate(0.20, 0.5);
}

#[test]
fn optimal_policy_matches_published_sapirshtein_point() {
    // α = 0.35, γ = 0 — above the threshold; ρ* ≈ 0.37077 (published).
    cross_validate(0.35, 0.0);
}

#[test]
fn optimal_policy_high_alpha_agrees() {
    // Deep in profitable territory: α = 0.40, γ = 0.5, ρ* ≈ 0.57.
    cross_validate(0.40, 0.5);
}

#[test]
fn honest_table_playback_earns_alpha() {
    // The honest baseline as a *table*: replaying it through the policy
    // executor (publish every lead immediately, adopt otherwise) must earn
    // the fair share α under the full Ethereum schedule — no forks, no
    // uncles, exactly like PoolStrategy::Honest.
    let (alpha, gamma) = (0.30, 0.5);
    let config = SimConfig::builder()
        .alpha(alpha)
        .gamma(gamma)
        .blocks(BLOCKS)
        .n_honest(100)
        .seed(SEED)
        .policy(PolicyTable::honest(alpha, gamma, 20))
        .build()
        .expect("valid config");
    let reports = multi::run_many(&config, RUNS);
    for r in &reports {
        assert_eq!(
            r.reward_report.uncle_count + r.reward_report.stale_count,
            0,
            "honest playback must not fork"
        );
    }
    let us = multi::mean_absolute_pool(&reports, Scenario::RegularRate);
    let tol = 4.0 * us.std_dev / (RUNS as f64).sqrt() + 0.004;
    assert!(
        (us.mean - alpha).abs() < tol,
        "honest playback Us {} vs alpha {alpha} (tol {tol})",
        us.mean
    );
}

#[test]
fn ethereum_model_playback_matches_rho_star() {
    // Ethereum-model tables replay through the same executor. Since the
    // state space became explicit, the lowering keeps the
    // published-prefix distance as a fourth axis instead of projecting it
    // away, and the executor threads the live `match_d` into every
    // decision — so Ethereum playback is *exact* and holds the same
    // 3σ + 1% gate as the Bitcoin points (it was informational, ~0.2σ
    // off, while the lowering still projected).
    let (alpha, gamma) = (0.30, 0.5);
    let config = MdpConfig::new(alpha, gamma, RewardModel::EthereumApprox).with_max_len(30);
    let solution = config.solve().expect("mdp solve");
    let table = PolicyTable::from_solution(&config, &solution);
    assert!(solution.revenue > alpha, "attack profitable at 30%");
    assert!(
        table.state_space().has_match_d(),
        "Ethereum lowering must carry the match_d axis"
    );

    // The artifact must survive disk on the format-2 wire form: what we
    // replay is the *loaded* copy.
    let dir = std::env::temp_dir().join("seleth-policy-playback");
    let path = dir.join(format!("eth_a{alpha}_g{gamma}.json"));
    table.save(&path).expect("save artifact");
    let loaded = PolicyTable::load(&path).expect("load artifact");
    assert_eq!(table, loaded, "artifact round-trip must be lossless");
    let _ = std::fs::remove_file(&path);

    let sim_config = SimConfig::builder()
        .alpha(alpha)
        .gamma(gamma)
        .blocks(BLOCKS)
        .n_honest(100)
        .seed(SEED)
        .policy(loaded)
        .build()
        .expect("valid config");
    let reports = multi::run_many(&sim_config, RUNS);
    let us = multi::mean_absolute_pool(&reports, Scenario::RegularRate);
    let std_err = us.std_dev / (RUNS as f64).sqrt();
    let diff = (us.mean - solution.revenue).abs();
    assert!(
        us.mean > alpha + 0.01,
        "replayed Ethereum policy must beat honest: {} vs {alpha}",
        us.mean
    );
    assert!(
        diff <= 3.0 * std_err,
        "ethereum: sim {} vs rho* {} is {:.2} standard errors",
        us.mean,
        solution.revenue,
        diff / std_err
    );
    assert!(
        diff <= 0.01,
        "ethereum: sim {} vs rho* {} misses 1% absolute",
        us.mean,
        solution.revenue
    );
}

#[test]
fn table_strategy_is_thread_count_invariant() {
    // Policy playback must keep run_many's thread-count invariance: the
    // table is shared, never mutated, and each run is seed-deterministic.
    let config = MdpConfig::new(0.35, 0.5, RewardModel::Bitcoin).with_max_len(20);
    let solution = config.solve().expect("mdp solve");
    let table = PolicyTable::from_solution(&config, &solution);
    let sim_config = SimConfig::builder()
        .alpha(0.35)
        .gamma(0.5)
        .schedule(RewardSchedule::bitcoin())
        .blocks(5_000)
        .n_honest(50)
        .seed(99)
        .policy(table)
        .build()
        .expect("valid config");
    let reference = multi::run_many_with_threads(&sim_config, 4, 1);
    for threads in [2, 8] {
        let parallel = multi::run_many_with_threads(&sim_config, 4, threads);
        for (r, p) in reference.iter().zip(parallel.iter()) {
            assert_eq!(r.pool.total(), p.pool.total(), "threads={threads}");
            assert_eq!(r.state_visits, p.state_visits, "threads={threads}");
        }
    }
}
