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

use std::sync::Arc;

use seleth_bench::json_f64;
use seleth_bench::report::{json_block, ReplayCell, Study};
use seleth_mdp::{PolicyTable, RewardModel};

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

/// `table` in the duopoly the artifacts were solved for, one cell per
/// delay.
fn duopoly_cells(table: &Arc<PolicyTable>, delays: &[f64]) -> Vec<ReplayCell> {
    delays
        .iter()
        .map(|&d| ReplayCell::new(vec![Arc::clone(table)], vec![ALPHA, 1.0 - ALPHA], GAMMA, d))
        .collect()
}

fn main() {
    let mut study = Study::from_args("optimal_closed_loop");
    let smoke = study.smoke();
    let replay = study.replay(INTERVAL, SEED, [3, 8], [10_000, 30_000]);
    let (runs, blocks) = (replay.runs, replay.blocks);
    let aware_len = u32::try_from(seleth_bench::env_u64("SELETH_MDP_LEN", 200)).unwrap_or(200);
    let specs: &[AwareSpec] = if smoke { &AWARE[..1] } else { AWARE };

    println!(
        "Closed-loop delay study: race-window artifacts vs the zero-delay \
         optimum\n({runs} runs x {blocks} blocks per point, {INTERVAL}s interval{})\n",
        if smoke { ", SMOKE" } else { "" }
    );

    let base = Arc::new(study.phase("load_policies", || {
        seleth_bench::load_or_solve_policy(BASE_NAME, ALPHA, GAMMA, RewardModel::Bitcoin, BASE_LEN)
    }));
    let delays: Vec<f64> = if smoke {
        vec![specs[0].delay_seconds]
    } else {
        vec![0.0, 6.0, 12.0]
    };
    let base_points = study.sweep(&replay, &duopoly_cells(&base, &delays));

    println!(
        "{:>24} {:>9} {:>8} {:>10} {:>9} {:>10} {:>8}",
        "artifact", "delay[s]", "rho_mdp", "us_delay", "std_err", "vs_base", "orphans"
    );
    for (&delay, p) in delays.iter().zip(&base_points) {
        println!(
            "{:>24} {:>9.1} {:>8.5} {:>10.5} {:>9.5} {:>10} {:>8.4}",
            BASE_NAME,
            delay,
            base.predicted_revenue(),
            p.mean(),
            p.std_err(),
            "-",
            p.orphan_rate
        );
    }

    let mut series_json = Vec::new();
    for spec in specs {
        let aware = Arc::new(study.phase("load_policies", || {
            seleth_bench::load_or_solve_policy_delay(
                spec.name,
                ALPHA,
                GAMMA,
                RewardModel::Bitcoin,
                aware_len,
                spec.delay_seconds / INTERVAL,
            )
        }));
        let points = study.sweep(&replay, &duopoly_cells(&aware, &delays));
        for ((&delay, p), b) in delays.iter().zip(&points).zip(&base_points) {
            println!(
                "{:>24} {:>9.1} {:>8.5} {:>10.5} {:>9.5} {:>+10.5} {:>8.4}",
                spec.name,
                delay,
                aware.predicted_revenue(),
                p.mean(),
                p.std_err(),
                p.mean() - b.mean(),
                p.orphan_rate
            );
        }

        // The acceptance gate: at its design delay, the aware artifact
        // must not trail the zero-delay baseline.
        let design = delays.iter().position(|&d| d == spec.delay_seconds);
        let design = design.expect("sweep covers the gated delay");
        let (a, b) = (&points[design], &base_points[design]);
        let tolerance = study.tolerance(a.std_err().hypot(b.std_err()));
        if a.mean() < b.mean() - tolerance {
            study.fail(&format!(
                "{}: {:.5} at {}s trails the zero-delay baseline {:.5} \
                 beyond tolerance {tolerance:.5}",
                spec.name,
                a.mean(),
                spec.delay_seconds,
                b.mean()
            ));
        }

        let head = format!(
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
        let rows = delays
            .iter()
            .zip(&points)
            .zip(&base_points)
            .map(|((&delay, p), b)| {
                format!(
                    "        {{\"delay\": {}, \"revenue\": {}, \"std_err\": {}, \
                     \"baseline_revenue\": {}, \"baseline_std_err\": {}, \
                     \"vs_baseline\": {}, \"orphan_rate\": {}}}",
                    json_f64(delay),
                    json_f64(p.mean()),
                    json_f64(p.std_err()),
                    json_f64(b.mean()),
                    json_f64(b.std_err()),
                    json_f64(p.mean() - b.mean()),
                    json_f64(p.orphan_rate)
                )
            });
        series_json.push(json_block(head, rows));
    }

    let fields = format!(
        "  \"interval\": {},\n  \"runs\": {runs},\n  \"blocks\": {blocks},\n  \
         \"seed\": {SEED},\n  \"series\": [\n{}\n  ]",
        json_f64(INTERVAL),
        series_json.join(",\n"),
    );
    study.finish(
        "seleth-closed-loop-study",
        &fields,
        "Reading: 'vs_base' is the aware artifact's measured revenue minus the\n\
         zero-delay optimum's at the same simulated delay. At the design delay the\n\
         gate below enforces the aware policy recovers (at least) the baseline;\n\
         at delay 0 the aware policy may trail — it prices in races that never\n\
         happen there.",
        "all delay-aware artifacts hold their gate at their design delay",
        "a delay-aware artifact trails the zero-delay baseline at its design delay",
    );
}
