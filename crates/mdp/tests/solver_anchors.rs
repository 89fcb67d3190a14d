//! Bit-identity anchors of the MDP solver.
//!
//! Each anchor pins one solve through the public API: the solved
//! revenue's bits, the total sweep count, the sweeps of every ρ iterate,
//! an FNV digest over the bits of every iterate's residual, and an FNV
//! digest over every `(state, action)` of the policy. The values were
//! captured from the per-state CSR sweep kernel that the width-grouped
//! tile kernel replaced, so a change to the sweep arithmetic, the
//! first-wins tie-break, the bisection walk or a warm start fails here.
//!
//! Rendering: `revenue-bits total-sweeps [sweeps per iterate]
//! residual-digest policy-digest`.

use seleth_chain::Scenario;
use seleth_mdp::{Action, Fork, MdpConfig, RewardModel, Solution, ValueCache};

/// FNV-style fold over 64-bit words.
fn fold(h: u64, word: u64) -> u64 {
    (h ^ word).wrapping_mul(0x0000_0100_0000_01b3)
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn render(s: &Solution) -> String {
    let residuals = s
        .stats
        .residuals
        .iter()
        .fold(FNV_OFFSET, |h, r| fold(h, r.to_bits()));
    let policy = s.policy.iter().fold(FNV_OFFSET, |h, (state, action)| {
        let fork = match state.fork {
            Fork::Irrelevant => 0,
            Fork::Relevant => 1,
            Fork::Active => 2,
        };
        let action = match action {
            Action::Adopt => 0,
            Action::Override => 1,
            Action::Match => 2,
            Action::Wait => 3,
        };
        let h = fold(h, u64::from(state.a));
        let h = fold(h, u64::from(state.h));
        let h = fold(h, fork);
        let h = fold(h, u64::from(state.match_d));
        fold(h, action)
    });
    format!(
        "{:016x} {} {:?} {residuals:016x} {policy:016x}",
        s.revenue.to_bits(),
        s.iterations,
        s.stats.sweeps_per_iterate,
    )
}

/// Render a solve whose every bisection sign was certified, which is
/// what makes its revenue bits independent of any warm start.
fn certified(config: &MdpConfig, solution: &Solution) -> String {
    assert_eq!(solution.stats.unresolved_signs, 0, "{config:?}");
    render(solution)
}

fn solve(config: MdpConfig) -> String {
    certified(&config, &config.solve().unwrap())
}

fn base(rewards: RewardModel) -> MdpConfig {
    MdpConfig::new(0.35, 0.5, rewards)
        .with_max_len(24)
        .with_threads(1)
}

/// Every single-solve anchor: both reward models, both scenarios, three
/// delay ratios (a positive ratio adds 4-outcome override rows) and the
/// threaded path on a space above the parallel threshold.
fn single_solves() -> Vec<(&'static str, String)> {
    let eth16 = MdpConfig::new(0.38, 0.4, RewardModel::EthereumApprox).with_max_len(16);
    vec![
        ("bitcoin", solve(base(RewardModel::Bitcoin))),
        ("ethereum", solve(base(RewardModel::EthereumApprox))),
        (
            "ethereum_scenario2",
            solve(base(RewardModel::EthereumApprox).with_scenario(Scenario::RegularPlusUncleRate)),
        ),
        (
            "bitcoin_delay_0.5",
            solve(base(RewardModel::Bitcoin).with_delay_ratio(0.5)),
        ),
        (
            "bitcoin_delay_1.2",
            solve(base(RewardModel::Bitcoin).with_delay_ratio(1.2)),
        ),
        (
            "ethereum_delay_0.5",
            solve(
                base(RewardModel::EthereumApprox)
                    .with_max_len(12)
                    .with_delay_ratio(0.5),
            ),
        ),
        ("ethereum_len16_threads1", solve(eth16.with_threads(1))),
        ("ethereum_len16_threads2", solve(eth16.with_threads(2))),
    ]
}

/// Captured before the tile kernel; one `name: rendering` line each.
const SINGLE_SOLVES: &str = "\
bitcoin: 3fdb880200000000 886 [37, 79, 2, 63, 55, 13, 47, 94, 10, 16, 17, 181, 3, 14, 14, 14, 18, 22, 18, 17, 20, 132] 4049b5f5fffa3ca1 710cd0a69cad8e96
ethereum: 3fdfad0a00000000 790 [41, 122, 2, 37, 34, 44, 27, 60, 14, 40, 12, 7, 57, 5, 79, 3, 11, 12, 19, 19, 30, 115] e09f8f9cf52dc7ae fbab5de793ef1b9a
ethereum_scenario2: 3fd8eed200000000 926 [27, 71, 8, 76, 22, 20, 67, 18, 31, 44, 43, 23, 33, 46, 39, 31, 50, 30, 58, 18, 29, 142] 6c6f8864a5a0a9ed cd1798a4f6656427
bitcoin_delay_0.5: 3fd8a98200000000 570 [26, 78, 4, 24, 9, 19, 16, 28, 7, 12, 9, 33, 4, 18, 6, 78, 3, 14, 14, 14, 33, 121] 7734b4214f290ef7 46e33fb3513970f4
bitcoin_delay_1.2: 3fd552b200000000 527 [26, 67, 6, 41, 8, 20, 8, 26, 9, 20, 12, 10, 26, 7, 31, 6, 41, 4, 20, 5, 15, 119] 351db4115ae7b863 cb2ecde3a6bfdd8e
ethereum_delay_0.5: 3fdddaea00000000 277 [14, 39, 2, 10, 10, 13, 4, 8, 9, 9, 8, 12, 7, 13, 11, 6, 8, 11, 6, 16, 7, 54] 56d342971c9d8086 69231f98a0060ed4
ethereum_len16_threads1: 3fe1a89f00000000 484 [28, 9, 22, 11, 37, 3, 15, 18, 8, 11, 15, 4, 11, 26, 8, 17, 97, 3, 10, 10, 14, 107] dab986b9257d174a 9bb4bb95f42e10f7
ethereum_len16_threads2: 3fe1a89f00000000 484 [28, 9, 22, 11, 37, 3, 15, 18, 8, 11, 15, 4, 11, 26, 8, 17, 97, 3, 10, 10, 14, 107] dab986b9257d174a 9bb4bb95f42e10f7
";

/// Bitcoin at truncation 24, α = 0.30 → 0.32 → 0.34 through one cache.
/// The first solve is cold. The warm solves' revenue bits and policy
/// digests equal those of the unshifted warm start; their sweep counts
/// and residual digests are the ρ-shifted warm start's.
const ALPHA_WALK: &str = "\
0.3: 3fd4eb8200000000 719 [35, 48, 4, 36, 38, 23, 49, 4, 22, 59, 39, 27, 52, 6, 20, 110, 4, 10, 10, 13, 10, 100] 34bfa94e8d494f02 500e70e12a08a400
0.32: 3fd7465600000000 343 [1, 6, 3, 60, 1, 2, 5, 10, 39, 2, 2, 23, 3, 15, 2, 23, 4, 19, 4, 18, 3, 98] a24f7241f7695821 8ee579bf4905edfb
0.34: 3fda03fe00000000 329 [2, 3, 1, 4, 1, 69, 1, 1, 1, 1, 14, 17, 85, 1, 1, 1, 1, 1, 1, 1, 2, 120] 8c6cedf3347249f5 c850aae493c40cff
";

#[test]
fn solves_match_their_anchors() {
    let got: String = single_solves()
        .iter()
        .map(|(name, anchor)| format!("{name}: {anchor}\n"))
        .collect();
    assert_eq!(got, SINGLE_SOLVES);
}

#[test]
fn alpha_walk_through_one_cache_matches_its_anchors() {
    // Each solve warm-starts from the previous α's converged values,
    // shifted to each ρ candidate by the cached units bias.
    let mut cache = ValueCache::new();
    let got: String = [0.30, 0.32, 0.34]
        .iter()
        .map(|&alpha| {
            let config = MdpConfig::new(alpha, 0.5, RewardModel::Bitcoin)
                .with_max_len(24)
                .with_threads(1);
            let solution = config.solve_with_cache(&mut cache).unwrap();
            format!("{alpha}: {}\n", certified(&config, &solution))
        })
        .collect();
    assert_eq!(got, ALPHA_WALK);
}

#[test]
fn a_root_on_a_bisection_midpoint_leaves_its_sign_unresolved() {
    // Bitcoin at γ = 0.5 and α = 0.25 sits at the profitability
    // threshold: honest mining is optimal, so ρ* = 0.25 = 2 · 2⁻³ is
    // itself a midpoint of the `[0, 2]` bisection and `g` there is zero.
    let config = MdpConfig::new(0.25, 0.5, RewardModel::Bitcoin)
        .with_max_len(24)
        .with_threads(1);
    let solution = config.solve().unwrap();
    assert!(solution.stats.unresolved_signs >= 1, "{:?}", solution.stats);
    assert!((solution.revenue - 0.25).abs() <= config.rho_tolerance);
}
