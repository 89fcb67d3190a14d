//! Cross-validation of strategic playback in the propagation-delay
//! simulator against the PR 2 policy subsystem.
//!
//! The delay engine replays the *committed* policy artifacts under
//! `results/policies/` — the exact tables the `optimal_sim` experiment
//! gated against the MDP's ρ*. In the zero-delay limit with two miners the
//! delay simulator models the same world as the instant-broadcast engine,
//! so its measured revenue must reproduce both the predicted ρ* and the
//! engine's own `PoolStrategy::Table` playback. Nothing is shared between
//! the two simulators beyond the artifact and the reward accounting, so
//! agreement validates the delay engine's strategic event loop end to end.

use selfish_ethereum::prelude::*;

use seleth_bench::mean_stderr;

mod common;
use common::{delay_playback, load_artifact, PLAYBACK_SEED};

const RUNS: u64 = 8;
const BLOCKS: u64 = 30_000;

#[test]
fn zero_delay_strategic_run_reproduces_rho_star_below_threshold() {
    // Bitcoin-model artifact at α = 0.20, γ = 0.5: below the optimal-play
    // threshold, ρ* = α exactly. Hard gate: 3 standard errors AND 1%
    // absolute, the same bar `tests/policy_playback.rs` sets the engine.
    let table = load_artifact("bitcoin_a020_g050.json");
    let rho = table.predicted_revenue();
    let (mean, std_err) = delay_playback(&table, 0.0, RUNS, BLOCKS);
    let diff = (mean - rho).abs();
    assert!(
        diff <= 3.0 * std_err,
        "delay sim {mean} vs rho* {rho} is {:.2} standard errors",
        diff / std_err
    );
    assert!(diff <= 0.01, "delay sim {mean} vs rho* {rho} misses 1%");
}

#[test]
fn zero_delay_strategic_run_reproduces_rho_star_above_threshold() {
    // Bitcoin-model artifact at α = 0.40, γ = 0.5 (ρ* ≈ 0.57): the
    // zero-delay limit must land within 3 standard errors or 1% absolute
    // of the PR 2 prediction — deep in profitable territory, with live
    // match races exercising the tie_gamma machinery.
    let table = load_artifact("bitcoin_a040_g050.json");
    let rho = table.predicted_revenue();
    let (mean, std_err) = delay_playback(&table, 0.0, RUNS, BLOCKS);
    let diff = (mean - rho).abs();
    assert!(
        diff <= (3.0 * std_err).max(0.01),
        "delay sim {mean} vs rho* {rho}: {:.2} standard errors and {diff:.4} absolute",
        diff / std_err
    );
    // And the edge itself must be there: far above the fair share.
    assert!(mean > 0.5, "optimal play at 40% must clear half: {mean}");
}

#[test]
fn zero_delay_strategic_run_matches_engine_playback() {
    // Same artifact, same world, two independent executors: the delay
    // simulator at delay 0 vs the engine's PoolStrategy::Table. Their
    // mean revenues must agree within combined Monte-Carlo noise.
    let table = load_artifact("bitcoin_a035_g000.json");
    let (delay_mean, delay_se) = delay_playback(&table, 0.0, RUNS, BLOCKS);

    let engine_config = SimConfig::builder()
        .alpha(table.alpha())
        .gamma(table.gamma())
        .schedule(RewardSchedule::bitcoin())
        .blocks(BLOCKS)
        .n_honest(1)
        .seed(PLAYBACK_SEED)
        .policy(table)
        .build()
        .expect("valid engine config");
    let reports = multi::run_many(&engine_config, RUNS);
    let engine: Vec<f64> = reports
        .iter()
        .map(|r| r.absolute_pool(Scenario::RegularRate))
        .collect();
    let (engine_mean, engine_se) = mean_stderr(&engine);

    let diff = (delay_mean - engine_mean).abs();
    let combined = (delay_se * delay_se + engine_se * engine_se).sqrt();
    assert!(
        diff <= (3.0 * combined).max(0.01),
        "delay sim {delay_mean} vs engine playback {engine_mean}: \
         {:.2} combined standard errors",
        diff / combined
    );
}

#[test]
fn strategic_delay_runs_are_seed_deterministic() {
    let table = load_artifact("bitcoin_a035_g000.json");
    let a = delay_playback(&table, 3.0, 2, 5_000);
    let b = delay_playback(&table, 3.0, 2, 5_000);
    assert_eq!(a, b, "same seeds must reproduce bit-identical revenue");
    let c = delay_playback(&table, 4.0, 2, 5_000);
    assert_ne!(a, c, "a different delay must change the dynamics");
}

#[test]
fn delay_strictly_degrades_the_above_threshold_artifact() {
    // The study's headline, as a regression: the α = 0.40 artifact's
    // measured revenue falls monotonically-in-spirit (0 vs 6s) once
    // propagation delay lets honest miners race its overrides.
    let table = load_artifact("bitcoin_a040_g050.json");
    let (fast, _) = delay_playback(&table, 0.0, 4, 20_000);
    let (slow, _) = delay_playback(&table, 6.0, 4, 20_000);
    assert!(
        slow < fast - 0.01,
        "6s of delay must cost the strategist: {slow} vs {fast}"
    );
}
