//! Closed-loop delay study: does solving *on* the race-window kernel
//! recover the revenue the zero-delay optimum bleeds under delay?
//!
//! `optimal_delay` measured the open-loop gap: artifacts solved in the
//! MDP's zero-delay world model lose revenue when replayed in the
//! propagation-delay simulator. This experiment closes the loop — the
//! delay-aware artifacts are solved on the kernel that folds each
//! release's orphan/loss probability into the transition rows
//! ([`seleth_mdp::MdpConfig::with_delay_ratio`]), at truncation 200 so the
//! boundary's forced resolution stays far from the operating region —
//! and replays them head-to-head against the zero-delay baseline in the
//! same duopoly delay simulator.
//!
//! Sweep: each aware artifact (`bitcoin_a040_g050_d6`, solved at
//! delay/interval = 6/13, and `bitcoin_a040_g050_d12`, at 12/13) and the
//! committed zero-delay baseline `bitcoin_a040_g050` are replayed at
//! delay ∈ {0, 6, 12} s (13 s mean interval). **Gated**: at its design
//! delay, an aware artifact's measured revenue must not fall below the
//! baseline's by more than 3 standard errors or 1% absolute (4σ / 5% in
//! smoke), exit code 1 otherwise — the "delay-aware solving pays for
//! itself" acceptance gate.
//!
//! Output: `results/optimal_closed_loop.json` — one series per artifact
//! with aware-vs-baseline revenue at every delay point — plus a
//! human-readable table on stdout. Missing artifacts are solved on the
//! fly and saved, so the experiment is self-contained on a fresh
//! checkout (the truncation-200 solves take minutes each; see
//! `BENCH_gates.json`'s `mdp_scaling` rows).
//!
//! Environment knobs: `SELETH_RUNS` (8), `SELETH_BLOCKS` (30 000),
//! `SELETH_MDP_LEN` (200, the aware artifacts' truncation),
//! `SELETH_RESULTS`, `SELETH_POLICIES`. Pass `--smoke` for the CI gate:
//! the 6 s artifact only, its design delay only, small replay budgets,
//! loosened tolerance (the committed artifacts are read via
//! `SELETH_POLICIES`, so no solve happens in CI).

use std::fmt::Write as _;

use seleth_bench::json_f64;
use seleth_bench::report::{gate_tolerance, replay_revenue, Trace};
use seleth_chain::RewardSchedule;
use seleth_mdp::{PolicyTable, RewardModel};
use seleth_obs::{par_map_traced, Recorder, Stopwatch, Telemetry, TelemetryShard};
use seleth_sim::delay::DelayConfig;

/// Mean block interval for every run (Ethereum-like, seconds).
const INTERVAL: f64 = 13.0;
const SEED: u64 = 31_337;
/// The duopoly the artifacts were solved for.
const ALPHA: f64 = 0.40;
const GAMMA: f64 = 0.5;
/// The committed zero-delay baseline's truncation (PR 2 artifact).
const BASE_LEN: u32 = 30;
/// File stem of the zero-delay baseline artifact.
const BASE_NAME: &str = "bitcoin_a040_g050";

/// One delay-aware artifact: solved at `delay_seconds / INTERVAL` on the
/// race-window kernel, gated against the baseline at `delay_seconds`.
struct AwareSpec {
    name: &'static str,
    delay_seconds: f64,
}

const AWARE: &[AwareSpec] = &[
    AwareSpec {
        name: "bitcoin_a040_g050_d6",
        delay_seconds: 6.0,
    },
    AwareSpec {
        name: "bitcoin_a040_g050_d12",
        delay_seconds: 12.0,
    },
];

struct Point {
    delay: f64,
    mean: f64,
    std_err: f64,
    orphan_rate: f64,
}

/// Replay `table` in the duopoly delay simulator at one delay, through
/// the shared replay loop. The run's deterministic engine counters are
/// folded into the worker's telemetry shard.
fn eval_point(
    table: &PolicyTable,
    delay: f64,
    runs: u64,
    blocks: u64,
    shard: &mut TelemetryShard,
) -> Point {
    let config = DelayConfig::builder()
        .shares(vec![ALPHA, 1.0 - ALPHA])
        .policy(0, table.clone())
        .tie_gamma(GAMMA)
        .delay(delay)
        .interval(INTERVAL)
        .schedule(RewardSchedule::bitcoin())
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

/// One table replayed over the delay sweep, sweep points in parallel
/// through the shared work-queue helper (bit-identical for every thread
/// count). Returns the points plus the workers' telemetry shards.
fn sweep_table(
    table: &PolicyTable,
    delays: &[f64],
    runs: u64,
    blocks: u64,
    recorder: &dyn Recorder,
) -> (Vec<Point>, Vec<TelemetryShard>) {
    par_map_traced(delays, 0, recorder, |&delay, _: &mut (), shard| {
        eval_point(table, delay, runs, blocks, shard)
    })
}

fn point_at(points: &[Point], delay: f64) -> &Point {
    points
        .iter()
        .find(|p| p.delay == delay)
        .expect("sweep covers the gated delay")
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let trace = Trace::from_args();
    let recorder = trace.recorder();
    let wall = Stopwatch::start();
    let mut telemetry = Telemetry::new();
    let runs = seleth_bench::env_u64("SELETH_RUNS", if smoke { 3 } else { 8 });
    let blocks = seleth_bench::env_u64("SELETH_BLOCKS", if smoke { 10_000 } else { 30_000 });
    let aware_len = u32::try_from(seleth_bench::env_u64("SELETH_MDP_LEN", 200)).unwrap_or(200);
    let specs: &[AwareSpec] = if smoke { &AWARE[..1] } else { AWARE };

    println!(
        "Closed-loop delay study: race-window artifacts vs the zero-delay \
         optimum\n({runs} runs x {blocks} blocks per point, {INTERVAL}s interval{})\n",
        if smoke { ", SMOKE" } else { "" }
    );

    let load = Stopwatch::start();
    let base =
        seleth_bench::load_or_solve_policy(BASE_NAME, ALPHA, GAMMA, RewardModel::Bitcoin, BASE_LEN);
    telemetry.add_phase("load_policies", load.elapsed_ns());
    let delays: Vec<f64> = if smoke {
        vec![specs[0].delay_seconds]
    } else {
        vec![0.0, 6.0, 12.0]
    };
    let sweep = Stopwatch::start();
    let (base_points, shards) = sweep_table(&base, &delays, runs, blocks, recorder);
    telemetry.add_phase("sweep", sweep.elapsed_ns());
    for shard in &shards {
        telemetry.fold_shard(shard);
    }

    println!(
        "{:>24} {:>9} {:>8} {:>10} {:>9} {:>10} {:>8}",
        "artifact", "delay[s]", "rho_mdp", "us_delay", "std_err", "vs_base", "orphans"
    );
    for p in &base_points {
        println!(
            "{:>24} {:>9.1} {:>8.5} {:>10.5} {:>9.5} {:>10} {:>8.4}",
            BASE_NAME,
            p.delay,
            base.predicted_revenue(),
            p.mean,
            p.std_err,
            "-",
            p.orphan_rate
        );
    }

    let mut failed = false;
    let mut series_json = Vec::new();
    for spec in specs {
        let load = Stopwatch::start();
        let aware = seleth_bench::load_or_solve_policy_delay(
            spec.name,
            ALPHA,
            GAMMA,
            RewardModel::Bitcoin,
            aware_len,
            spec.delay_seconds / INTERVAL,
        );
        telemetry.add_phase("load_policies", load.elapsed_ns());
        let sweep = Stopwatch::start();
        let (points, shards) = sweep_table(&aware, &delays, runs, blocks, recorder);
        telemetry.add_phase("sweep", sweep.elapsed_ns());
        for shard in &shards {
            telemetry.fold_shard(shard);
        }
        for p in &points {
            let b = point_at(&base_points, p.delay);
            println!(
                "{:>24} {:>9.1} {:>8.5} {:>10.5} {:>9.5} {:>+10.5} {:>8.4}",
                spec.name,
                p.delay,
                aware.predicted_revenue(),
                p.mean,
                p.std_err,
                p.mean - b.mean,
                p.orphan_rate
            );
        }

        // The acceptance gate: at its design delay, the aware artifact
        // must not trail the zero-delay baseline.
        let a = point_at(&points, spec.delay_seconds);
        let b = point_at(&base_points, spec.delay_seconds);
        let combined_err = a.std_err.hypot(b.std_err);
        let tolerance = gate_tolerance(smoke, combined_err);
        if a.mean < b.mean - tolerance {
            eprintln!(
                "FAIL {}: {:.5} at {}s trails the zero-delay baseline {:.5} \
                 beyond tolerance {tolerance:.5}",
                spec.name, a.mean, spec.delay_seconds, b.mean
            );
            failed = true;
        }

        let mut s = String::new();
        let _ = write!(
            s,
            "    {{\n      \"artifact\": \"{}\",\n      \"baseline\": \"{BASE_NAME}\",\n      \
             \"alpha\": {},\n      \"gamma\": {},\n      \"delay_ratio\": {},\n      \
             \"design_delay\": {},\n      \"rho_star\": {},\n      \
             \"baseline_rho_star\": {},\n      \"truncation\": {},\n      \"points\": [\n",
            spec.name,
            json_f64(ALPHA),
            json_f64(GAMMA),
            json_f64(aware.delay()),
            json_f64(spec.delay_seconds),
            json_f64(aware.predicted_revenue()),
            json_f64(base.predicted_revenue()),
            aware.max_len(),
        );
        let point_lines: Vec<String> = points
            .iter()
            .map(|p| {
                let b = point_at(&base_points, p.delay);
                format!(
                    "        {{\"delay\": {}, \"revenue\": {}, \"std_err\": {}, \
                     \"baseline_revenue\": {}, \"baseline_std_err\": {}, \
                     \"vs_baseline\": {}, \"orphan_rate\": {}}}",
                    json_f64(p.delay),
                    json_f64(p.mean),
                    json_f64(p.std_err),
                    json_f64(b.mean),
                    json_f64(b.std_err),
                    json_f64(p.mean - b.mean),
                    json_f64(p.orphan_rate)
                )
            })
            .collect();
        s.push_str(&point_lines.join(",\n"));
        s.push_str("\n      ]\n    }");
        series_json.push(s);
    }

    telemetry.wall_ns = wall.elapsed_ns();
    telemetry.stamp_host();
    let json = format!(
        "{{\n  \"kind\": \"seleth-closed-loop-study\",\n  \"format\": 1,\n  \
         \"interval\": {},\n  \"runs\": {runs},\n  \"blocks\": {blocks},\n  \
         \"series\": [\n{}\n  ],\n  \"telemetry\": {}\n}}\n",
        json_f64(INTERVAL),
        series_json.join(",\n"),
        telemetry.to_json(2)
    );
    let out_name = if smoke {
        "optimal_closed_loop_smoke.json"
    } else {
        "optimal_closed_loop.json"
    };
    let path = seleth_bench::write_text(out_name, &json);

    println!("\nReading: 'vs_base' is the aware artifact's measured revenue minus the");
    println!("zero-delay optimum's at the same simulated delay. At the design delay the");
    println!("gate below enforces the aware policy recovers (at least) the baseline;");
    println!("at delay 0 the aware policy may trail — it prices in races that never");
    println!("happen there.");
    println!("wrote {}", path.display());
    trace.finish();

    if failed {
        eprintln!(
            "FAIL: a delay-aware artifact trails the zero-delay baseline at its design delay"
        );
        std::process::exit(1);
    }
    println!("all delay-aware artifacts hold their gate at their design delay");
}
