//! Bit-identity anchors of the MDP solver.
//!
//! Each anchor pins one solve through the public API: the solved
//! revenue's bits, the total Q-pass count, the Q passes of every ρ
//! iterate, an FNV digest over the bits of every iterate's residual, and
//! an FNV digest over every `(state, action)` of the policy. The revenue
//! bits and policy digests were captured from the per-state CSR sweep
//! kernel of the bisection-only solver and have held through the tile
//! kernel, warm starts and exact policy evaluation; the pass counts and
//! residual digests are those of Dinkelbach policy iteration (improvement
//! passes, the bracket probe, the closing greedy pass). So a change to
//! the Q-pass arithmetic, the first-wins tie-break, the bisection walk or
//! the certified bracket fails here.
//!
//! Rendering: `revenue-bits total-passes [passes per iterate]
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

/// One `name: rendering` line each.
const SINGLE_SOLVES: &str = "\
bitcoin: 3fdb880200000000 7 [1, 1, 1, 1, 1, 1, 1] 9558f64c2144d192 710cd0a69cad8e96
ethereum: 3fdfad0a00000000 8 [1, 1, 1, 1, 1, 1, 1, 1] cb3926d702a72ac1 fbab5de793ef1b9a
ethereum_scenario2: 3fd8eed200000000 9 [1, 1, 1, 1, 1, 1, 1, 1, 1] 1949bca3cceb7b2e cd1798a4f6656427
bitcoin_delay_0.5: 3fd8a98200000000 8 [1, 1, 1, 1, 1, 1, 1, 1] ce08aceab876da92 46e33fb3513970f4
bitcoin_delay_1.2: 3fd552b200000000 8 [1, 1, 1, 1, 1, 1, 1, 1] c6a8293cda1fe776 cb2ecde3a6bfdd8e
ethereum_delay_0.5: 3fdddaea00000000 7 [1, 1, 1, 1, 1, 1, 1] 938e4e4fa62cac16 69231f98a0060ed4
ethereum_len16_threads1: 3fe1a89f00000000 8 [1, 1, 1, 1, 1, 1, 1, 1] c9d5bda9f882d189 9bb4bb95f42e10f7
ethereum_len16_threads2: 3fe1a89f00000000 8 [1, 1, 1, 1, 1, 1, 1, 1] c9d5bda9f882d189 9bb4bb95f42e10f7
";

/// Bitcoin at truncation 24, α = 0.30 → 0.32 → 0.34 through one cache.
/// The first solve is cold (five policy evaluations); the warm ones start
/// from the previous policy and take two and three. Revenue bits and
/// policy digests equal the cold solves' of the bisection-only solver.
const ALPHA_WALK: &str = "\
0.3: 3fd4eb8200000000 7 [1, 1, 1, 1, 1, 1, 1] 240c5d919b510ea5 500e70e12a08a400
0.32: 3fd7465600000000 4 [1, 1, 1, 1] a9ce21f8deee9e75 8ee579bf4905edfb
0.34: 3fda03fe00000000 5 [1, 1, 1, 1, 1] 70acd130ead3774f c850aae493c40cff
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
    // Each solve starts its policy iteration from the previous α's
    // policy.
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

/// The `solve` benchmark's α walk: 51 grid points from 0.15 to 0.40, up
/// and back down (`0, 1, …, 50, 49, …, 1`, 100 solves) through one cache,
/// for one `(γ, rewards, truncation)` family.
fn benchmark_walk(gamma: f64, rewards: RewardModel, max_len: u32) -> Vec<(f64, Solution)> {
    const POINTS: usize = 51;
    let step = (0.40 - 0.15) / (POINTS - 1) as f64;
    let mut cache = ValueCache::new();
    (0..POINTS)
        .chain((1..POINTS - 1).rev())
        .map(|k| {
            let alpha = 0.15 + step * k as f64;
            let config = MdpConfig::new(alpha, gamma, rewards)
                .with_max_len(max_len)
                .with_threads(1);
            (alpha, config.solve_with_cache(&mut cache).unwrap())
        })
        .collect()
}

/// The benchmark walks' revenue bits, captured from the bisection-only
/// solver (ρ-shifted warm starts) before exact policy evaluation replaced
/// it: `name: digest [index:bits, …]`. The digest folds the revenue bits
/// of every solve whose bisection signs were all certified; the list names
/// the solves that left a sign unresolved (`unresolved_signs ≥ 1`, both
/// visits to α = 0.25, where ρ* = 0.25 is itself a bisection midpoint)
/// and their revenue then, which may move within `rho_tolerance`.
const BENCHMARK_WALKS: &str = "\
bitcoin_g50_t24: 4eb570c5cf1b98a2 [20:3fd0000200000000, 80:3fd0000200000000]
bitcoin_g0_t24: 6a8e50692743c783 [20:3fd0000200000000, 80:3fd0000200000000]
ethereum_g50_t16: 5f1159aac09d3334 []
";

#[test]
fn benchmark_walks_keep_their_revenue_bits() {
    let families = [
        ("bitcoin_g50_t24", 0.5, RewardModel::Bitcoin, 24),
        ("bitcoin_g0_t24", 0.0, RewardModel::Bitcoin, 24),
        ("ethereum_g50_t16", 0.5, RewardModel::EthereumApprox, 16),
    ];
    for ((name, gamma, rewards, max_len), line) in families.into_iter().zip(BENCHMARK_WALKS.lines())
    {
        let (anchor_name, rest) = line.split_once(": ").unwrap();
        assert_eq!(anchor_name, name);
        let (digest, list) = rest.split_once(' ').unwrap();
        let moved: Vec<(usize, f64)> = list
            .trim_matches(|c| c == '[' || c == ']')
            .split(", ")
            .filter(|item| !item.is_empty())
            .map(|item| {
                let (k, bits) = item.split_once(':').unwrap();
                let bits = u64::from_str_radix(bits, 16).unwrap();
                (k.parse().unwrap(), f64::from_bits(bits))
            })
            .collect();
        let walk = benchmark_walk(gamma, rewards, max_len);
        assert_eq!(walk.len(), 100);
        let mut h = FNV_OFFSET;
        for (k, (alpha, s)) in walk.iter().enumerate() {
            match moved.iter().find(|&&(j, _)| j == k) {
                Some(&(_, then)) => assert!(
                    (s.revenue - then).abs() <= 1e-6,
                    "{name} solve {k} (alpha {alpha}): {} vs {then}",
                    s.revenue
                ),
                None => {
                    let bits = s.revenue.to_bits();
                    h = fold(fold(h, bits >> 32), bits);
                }
            }
        }
        assert_eq!(format!("{h:016x}"), digest, "{name}");
    }
}
