//! Optimal-under-delay: how far does ρ* degrade when the MDP's world
//! model breaks?
//!
//! The MDP derives its optimal withholding strategies — and their
//! predicted revenue ρ* — in a zero-delay two-player world. This
//! experiment replays the exported policy artifacts in the regime the MDP
//! cannot model: the propagation-delay simulator
//! (`seleth_sim::delay`), where honest miners keep extending a branch
//! until they *hear* the strategist's override, and where the honest hash
//! power is split across many concurrent pools (the paper's Fig. 6
//! landscape) instead of one aggregate opponent.
//!
//! Sweep: delay ∈ {0, 2, 6, 12} s (13 s mean block interval, so up to a
//! ~0.9 delay/interval ratio) × the saved Bitcoin/Ethereum artifacts
//! under `results/policies/` × two share splits — a duopoly
//! (strategist vs one honest pool, the MDP's own world) and the 2018
//! pool landscape (`seleth_sim::pools::shares_with_strategist`).
//!
//! The zero-delay duopoly limit is **gated** for Bitcoin-model
//! artifacts: measured revenue must reproduce the PR 2 playback numbers
//! (the artifact's recorded ρ*) within 3 standard errors or 1% absolute,
//! exit code 1 otherwise. Ethereum-model artifacts are informational,
//! exactly as in `optimal_sim` (their lowering projects away the
//! published-prefix distance).
//!
//! Output: `results/delay_study.json` — one series per (artifact, split)
//! with a revenue-vs-ρ* degradation curve over the delay sweep — plus a
//! human-readable table on stdout. Missing artifacts are solved on the
//! fly and saved, so the experiment is self-contained on a fresh
//! checkout.
//!
//! Environment knobs: `SELETH_RUNS` (6), `SELETH_BLOCKS` (40 000),
//! `SELETH_MDP_LEN` (30), `SELETH_RESULTS`, `SELETH_POLICIES`. Pass
//! `--smoke` for the CI gate: one Bitcoin artifact, the duopoly split,
//! two delay points, small budgets, loosened zero-delay tolerance.

use std::fmt::Write as _;

use seleth_bench::json_f64;
use seleth_bench::report::{gate_tolerance, replay_revenue, Trace};
use seleth_chain::RewardSchedule;
use seleth_mdp::{PolicyTable, RewardModel};
use seleth_obs::{par_map_traced, Recorder, Stopwatch, Telemetry, TelemetryShard};
use seleth_sim::delay::DelayConfig;
use seleth_sim::pools;

/// Mean block interval for every run (Ethereum-like, seconds).
const INTERVAL: f64 = 13.0;
const SEED: u64 = 31_337;

struct Artifact {
    /// File stem under the policies directory.
    name: &'static str,
    alpha: f64,
    gamma: f64,
    rewards: RewardModel,
    /// Whether the zero-delay duopoly point is gated against ρ*.
    gated: bool,
}

const ARTIFACTS: &[Artifact] = &[
    Artifact {
        name: "bitcoin_a020_g050",
        alpha: 0.20,
        gamma: 0.5,
        rewards: RewardModel::Bitcoin,
        gated: true,
    },
    Artifact {
        name: "bitcoin_a035_g000",
        alpha: 0.35,
        gamma: 0.0,
        rewards: RewardModel::Bitcoin,
        gated: true,
    },
    Artifact {
        name: "bitcoin_a040_g050",
        alpha: 0.40,
        gamma: 0.5,
        rewards: RewardModel::Bitcoin,
        gated: true,
    },
    Artifact {
        name: "ethereum_a030_g050",
        alpha: 0.30,
        gamma: 0.5,
        rewards: RewardModel::EthereumApprox,
        gated: false,
    },
];

struct Point {
    delay: f64,
    mean: f64,
    std_err: f64,
    orphan_rate: f64,
}

/// One evaluated sweep point: an artifact replayed at one delay under a
/// fixed share split, through the shared replay loop. The run's
/// deterministic engine counters are folded into the worker's telemetry
/// shard.
fn eval_point(
    table: &PolicyTable,
    spec: &Artifact,
    shares: &[f64],
    delay: f64,
    runs: u64,
    blocks: u64,
    shard: &mut TelemetryShard,
) -> Point {
    let schedule = match spec.rewards {
        RewardModel::Bitcoin => RewardSchedule::bitcoin(),
        RewardModel::EthereumApprox => RewardSchedule::ethereum(),
    };
    let config = DelayConfig::builder()
        .shares(shares.to_vec())
        .policy(0, table.clone())
        .tie_gamma(spec.gamma)
        .delay(delay)
        .interval(INTERVAL)
        .schedule(schedule)
        .blocks(blocks)
        .seed(SEED)
        .build()
        .expect("valid delay config");
    let outcome = replay_revenue(runs, 1, |k| config.with_seed(SEED + k));
    outcome.counters.record_into(shard);
    shard.add("study.runs", runs);
    Point {
        delay,
        mean: outcome.mean(),
        std_err: outcome.std_err(),
        orphan_rate: outcome.orphan_rate,
    }
}

/// One degradation curve: an artifact replayed over the delay sweep under
/// a fixed share split, sweep points in parallel through the shared
/// work-queue helper (the same scheduler the zoo tournament uses; results
/// are bit-identical for every thread count). Returns the points plus the
/// workers' telemetry shards.
fn sweep_series(
    table: &PolicyTable,
    spec: &Artifact,
    shares: &[f64],
    delays: &[f64],
    runs: u64,
    blocks: u64,
    recorder: &dyn Recorder,
) -> (Vec<Point>, Vec<TelemetryShard>) {
    par_map_traced(delays, 0, recorder, |&delay, _: &mut (), shard| {
        eval_point(table, spec, shares, delay, runs, blocks, shard)
    })
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let trace = Trace::from_args();
    let recorder = trace.recorder();
    let wall = Stopwatch::start();
    let mut telemetry = Telemetry::new();
    let runs = seleth_bench::env_u64("SELETH_RUNS", if smoke { 3 } else { 6 });
    let blocks = seleth_bench::env_u64("SELETH_BLOCKS", if smoke { 10_000 } else { 40_000 });
    let max_len = u32::try_from(seleth_bench::env_u64("SELETH_MDP_LEN", 30)).unwrap_or(30);
    let delays: &[f64] = if smoke {
        &[0.0, 6.0]
    } else {
        &[0.0, 2.0, 6.0, 12.0]
    };
    let artifacts: &[Artifact] = if smoke { &ARTIFACTS[1..2] } else { ARTIFACTS };

    println!(
        "Optimal policies under propagation delay \
         ({runs} runs x {blocks} blocks per point, {INTERVAL}s interval{})\n",
        if smoke { ", SMOKE" } else { "" }
    );
    println!(
        "{:>20} {:>9} {:>9} {:>8} {:>10} {:>9} {:>10} {:>8}",
        "artifact", "split", "delay[s]", "rho_mdp", "us_delay", "std_err", "vs_rho", "orphans"
    );

    let mut failed = false;
    let mut series_json = Vec::new();
    for spec in artifacts {
        let load = Stopwatch::start();
        let table = seleth_bench::load_or_solve_policy(
            spec.name,
            spec.alpha,
            spec.gamma,
            spec.rewards,
            max_len,
        );
        telemetry.add_phase("load_policies", load.elapsed_ns());
        let rho = table.predicted_revenue();
        let splits: &[(&str, Vec<f64>)] = &[
            ("duopoly", vec![spec.alpha, 1.0 - spec.alpha]),
            ("pools2018", pools::shares_with_strategist(spec.alpha)),
        ];
        let splits = if smoke { &splits[..1] } else { splits };

        for (split_name, shares) in splits {
            let sweep = Stopwatch::start();
            let (points, shards) =
                sweep_series(&table, spec, shares, delays, runs, blocks, recorder);
            telemetry.add_phase("sweep", sweep.elapsed_ns());
            for shard in &shards {
                telemetry.fold_shard(shard);
            }
            for p in &points {
                println!(
                    "{:>20} {:>9} {:>9.1} {:>8.5} {:>10.5} {:>9.5} {:>+10.5} {:>8.4}",
                    spec.name,
                    split_name,
                    p.delay,
                    rho,
                    p.mean,
                    p.std_err,
                    p.mean - rho,
                    p.orphan_rate
                );
            }

            // The zero-delay duopoly limit must reproduce the PR 2
            // playback numbers for gated (Bitcoin-model) artifacts.
            if spec.gated && *split_name == "duopoly" {
                let zero = &points[0];
                assert!(zero.delay == 0.0, "sweep starts at the zero-delay limit");
                let diff = (zero.mean - rho).abs();
                let tolerance = gate_tolerance(smoke, zero.std_err);
                if diff > tolerance {
                    eprintln!(
                        "FAIL {}: zero-delay revenue {:.5} vs rho* {rho:.5} \
                         exceeds tolerance {tolerance:.5}",
                        spec.name, zero.mean
                    );
                    failed = true;
                }
            }

            let mut s = String::new();
            let _ = write!(
                s,
                "    {{\n      \"artifact\": \"{}\",\n      \"model\": \"{}\",\n      \
                 \"split\": \"{split_name}\",\n      \"alpha\": {},\n      \
                 \"gamma\": {},\n      \"rho_star\": {},\n      \"gated\": {},\n      \
                 \"shares\": [{}],\n      \"points\": [\n",
                spec.name,
                match spec.rewards {
                    RewardModel::Bitcoin => "bitcoin",
                    RewardModel::EthereumApprox => "ethereum_approx",
                },
                json_f64(spec.alpha),
                json_f64(spec.gamma),
                json_f64(rho),
                spec.gated && *split_name == "duopoly",
                shares
                    .iter()
                    .map(|v| json_f64(*v))
                    .collect::<Vec<_>>()
                    .join(", "),
            );
            let point_lines: Vec<String> = points
                .iter()
                .map(|p| {
                    format!(
                        "        {{\"delay\": {}, \"revenue\": {}, \"std_err\": {}, \
                         \"vs_rho_star\": {}, \"orphan_rate\": {}}}",
                        json_f64(p.delay),
                        json_f64(p.mean),
                        json_f64(p.std_err),
                        json_f64(p.mean - rho),
                        json_f64(p.orphan_rate)
                    )
                })
                .collect();
            s.push_str(&point_lines.join(",\n"));
            s.push_str("\n      ]\n    }");
            series_json.push(s);
        }
    }

    telemetry.wall_ns = wall.elapsed_ns();
    telemetry.stamp_host();
    let json = format!(
        "{{\n  \"kind\": \"seleth-delay-study\",\n  \"format\": 1,\n  \
         \"interval\": {},\n  \"runs\": {runs},\n  \"blocks\": {blocks},\n  \
         \"series\": [\n{}\n  ],\n  \"telemetry\": {}\n}}\n",
        json_f64(INTERVAL),
        series_json.join(",\n"),
        telemetry.to_json(2)
    );
    let out_name = if smoke {
        "delay_study_smoke.json"
    } else {
        "delay_study.json"
    };
    let path = seleth_bench::write_text(out_name, &json);

    println!("\nReading: 'vs_rho' is measured strategist revenue share minus the");
    println!("artifact's predicted rho*. At delay 0 (duopoly) it is statistical noise —");
    println!("the gate below enforces that. As delay/interval grows, honest miners");
    println!("race the strategist's overrides and the optimal-under-zero-delay policy");
    println!("bleeds its edge; 'orphans' tracks the systemic cost.");
    println!("wrote {}", path.display());
    trace.finish();

    if failed {
        eprintln!("FAIL: a gated zero-delay point disagrees with its PR 2 prediction");
        std::process::exit(1);
    }
    println!("all gated zero-delay points reproduce their PR 2 playback numbers");
}
