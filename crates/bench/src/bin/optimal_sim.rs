//! Cross-validation experiment: solve the MDP, export the optimal policy
//! as an artifact, replay it through the Monte-Carlo simulator, and
//! compare measured revenue against the predicted ρ*.
//!
//! Every point — the Bitcoin grid *and* the Ethereum-model point — is
//! **gated**: simulated mean revenue must match ρ* within 3 standard
//! errors *and* 1% absolute (exit code 1 otherwise) — the
//! executable-artifact analogue of `tests/policy_playback.rs`. The
//! Ethereum point exports a four-axis (`match_d`-aware) format-2
//! artifact, so its replay is the exact optimum, not a projection (see
//! `seleth_mdp::policy`).
//!
//! Artifacts land in `results/policies/` (see the README's "Policy
//! subsystem" section for the format); the comparison table is written to
//! `results/optimal_sim.csv` and, with solver/simulator telemetry, to
//! `results/optimal_sim.json`. `--trace <path>` additionally dumps span
//! events as JSON lines. Environment knobs: `SELETH_RUNS` (8),
//! `SELETH_BLOCKS` (50 000), `SELETH_MDP_LEN` (30), `SELETH_RESULTS`,
//! `SELETH_POLICIES` (artifact directory override). A budget of
//! `SELETH_RUNS × SELETH_BLOCKS` below 80 000 blocks is refused (exit
//! code 2): the 1% bound is fixed, so a smaller sample fails it by chance.
//!
//! With `--audit` the binary instead verifies the committed artifact set
//! (no simulation, no network): every `*.json` under the policies
//! directory must parse, pass the [`PolicyTable::is_legal_everywhere`]
//! audit, and re-save byte-identically, and every truncation-30 artifact
//! (this bin's own output) must come back byte for byte when re-solved
//! from its recorded metadata; exit code 1 otherwise. This is the CI
//! gate for the artifact format and for the solver's bits.

use seleth_bench::json_f64;
use seleth_bench::report::Trace;
use seleth_chain::{RewardSchedule, Scenario};
use seleth_mdp::{MdpConfig, PolicyTable, RewardModel};
use seleth_obs::{Stopwatch, Telemetry};
use seleth_sim::{multi, SimConfig};

struct Point {
    alpha: f64,
    gamma: f64,
    rewards: RewardModel,
    /// Whether the 3σ/1% agreement gate applies.
    gated: bool,
}

/// The smallest simulated budget (`SELETH_RUNS × SELETH_BLOCKS`, the CI
/// run's 4 × 20 000) that the gate accepts. Its 1% absolute bound does not
/// shrink with the budget, so below this an ordinary sample fails it: at
/// 2 × 5 000 blocks the α = 0.35, γ = 0 row sat 2.07σ off.
const MIN_BUDGET: u64 = 80_000;

/// Truncation of the artifacts `--audit` re-solves: this bin's default
/// `SELETH_MDP_LEN`. The truncation-200 delay artifacts come from the
/// delay studies and take seconds each, so they are audited for
/// legality and re-save only.
const AUDIT_RESOLVE_LEN: u32 = 30;

/// Whether re-solving `table` from its recorded metadata (α, γ, reward
/// model, scenario, truncation, delay) writes `text` byte for byte.
fn resolves_identically(table: &PolicyTable, text: &str) -> bool {
    let config = MdpConfig::new(table.alpha(), table.gamma(), table.rewards())
        .with_max_len(table.max_len())
        .with_scenario(table.scenario())
        .with_delay_ratio(table.delay());
    config
        .solve()
        .is_ok_and(|solution| PolicyTable::from_solution(&config, &solution).to_json() == text)
}

/// `--audit`: load every artifact in the policies directory, audit its
/// legality and its byte-identical re-save, re-solve the truncation-30
/// ones, and exit non-zero on any unreadable, illegal, unstable or
/// irreproducible table.
fn audit_artifacts() -> ! {
    let dir = seleth_bench::policies_dir();
    let mut paths: Vec<_> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("read policies dir {}: {e}", dir.display()))
        .filter_map(|entry| {
            let path = entry.expect("readable dir entry").path();
            (path.extension().and_then(|e| e.to_str()) == Some("json")).then_some(path)
        })
        .collect();
    paths.sort();
    println!("Artifact-compat audit over {}\n", dir.display());
    let mut failed = false;
    for path in &paths {
        let name = path.file_name().unwrap_or_default().to_string_lossy();
        let text = match std::fs::read_to_string(path) {
            Ok(text) => text,
            Err(e) => {
                println!("{name:>32}  FAIL (unreadable: {e})");
                failed = true;
                continue;
            }
        };
        match PolicyTable::from_json(&text) {
            Err(e) => {
                println!("{name:>32}  FAIL (parse: {e})");
                failed = true;
            }
            Ok(table) => {
                let legal = table.is_legal_everywhere();
                let stable = table.to_json() == text;
                let reproduced = (table.max_len() == AUDIT_RESOLVE_LEN)
                    .then(|| resolves_identically(&table, &text));
                let dims: Vec<String> = table
                    .state_space()
                    .dims()
                    .into_iter()
                    .map(|(n, s)| format!("{n}:{s}"))
                    .collect();
                let ok = legal && stable && reproduced != Some(false);
                let verdict = if ok { "ok" } else { "FAIL" };
                failed |= !ok;
                let resolved = match reproduced {
                    Some(same) => format!("re-solved identical: {same}, "),
                    None => String::new(),
                };
                println!(
                    "{name:>32}  {verdict} (legal: {legal}, byte-identical: {stable}, \
                     {resolved}dims [{}])",
                    dims.join(", ")
                );
            }
        }
    }
    if paths.is_empty() {
        eprintln!("FAIL: no artifacts found under {}", dir.display());
        failed = true;
    }
    if failed {
        eprintln!("\nFAIL: the committed artifact set is not replayable");
        std::process::exit(1);
    }
    println!(
        "\nall {} artifacts legal and byte-stable; every truncation-{AUDIT_RESOLVE_LEN} \
         one re-solves byte for byte",
        paths.len()
    );
    std::process::exit(0);
}

fn main() {
    if std::env::args().any(|arg| arg == "--audit") {
        audit_artifacts();
    }
    let trace = Trace::from_args();
    let recorder = trace.recorder();
    let wall = Stopwatch::start();
    let mut telemetry = Telemetry::new();
    let runs = seleth_bench::env_u64("SELETH_RUNS", 8);
    let blocks = seleth_bench::env_u64("SELETH_BLOCKS", 50_000);
    if runs.saturating_mul(blocks) < MIN_BUDGET {
        eprintln!(
            "optimal_sim: SELETH_RUNS × SELETH_BLOCKS = {runs} × {blocks} is below the \
             minimum budget of {MIN_BUDGET} blocks (4 × 20 000) that the 1% agreement \
             bound needs"
        );
        std::process::exit(2);
    }
    let max_len = u32::try_from(seleth_bench::env_u64("SELETH_MDP_LEN", 30)).unwrap_or(30);

    // One point below the γ = 0.5 profitability threshold (optimal play is
    // honest, ρ* = α), two above, plus the Ethereum-model point — gated
    // like the rest since the four-axis lowering made its replay exact.
    let points = [
        Point {
            alpha: 0.20,
            gamma: 0.5,
            rewards: RewardModel::Bitcoin,
            gated: true,
        },
        Point {
            alpha: 0.35,
            gamma: 0.0,
            rewards: RewardModel::Bitcoin,
            gated: true,
        },
        Point {
            alpha: 0.40,
            gamma: 0.5,
            rewards: RewardModel::Bitcoin,
            gated: true,
        },
        Point {
            alpha: 0.30,
            gamma: 0.5,
            rewards: RewardModel::EthereumApprox,
            gated: true,
        },
    ];

    println!(
        "Optimal-policy playback: MDP rho* vs simulation \
         ({runs} runs x {blocks} blocks, MDP len {max_len})\n"
    );
    println!(
        "{:>6} {:>6} {:>9} {:>10} {:>10} {:>9} {:>8} {:>8}",
        "alpha", "gamma", "model", "rho_mdp", "us_sim", "std_err", "sigmas", "verdict"
    );

    let policies_dir = seleth_bench::policies_dir();
    let mut rows = Vec::new();
    let mut point_rows = Vec::new();
    let mut failed = false;
    let mut solve_ns = 0u64;
    let mut sim_ns = 0u64;
    let mut warm_rates = Vec::new();
    for p in &points {
        let config = MdpConfig::new(p.alpha, p.gamma, p.rewards).with_max_len(max_len);
        let solving = Stopwatch::start();
        let solution = config.solve().expect("mdp solve");
        solve_ns += solving.elapsed_ns();
        let stats = &solution.stats;
        telemetry.add("solver.bisections", stats.bisection_steps as u64);
        telemetry.add("solver.policy_evaluations", stats.policy_evaluations as u64);
        telemetry.add(
            "solver.sweeps",
            stats.sweeps_per_iterate.iter().map(|&s| s as u64).sum(),
        );
        for &sweeps in &stats.sweeps_per_iterate {
            telemetry.observe("solver.sweeps_per_iterate", sweeps as u64);
        }
        telemetry.add("solver.warm_start_hits", stats.warm_start_hits as u64);
        warm_rates.push(stats.warm_start_hit_rate());
        let table = PolicyTable::from_solution(&config, &solution);

        // The artifact is the product under test: save, reload, replay the
        // loaded copy.
        let (model, schedule) = match p.rewards {
            RewardModel::Bitcoin => ("bitcoin", RewardSchedule::bitcoin()),
            RewardModel::EthereumApprox => ("ethereum", RewardSchedule::ethereum()),
        };
        let path = policies_dir.join(format!(
            "{model}_a{:03.0}_g{:03.0}.json",
            p.alpha * 100.0,
            p.gamma * 100.0
        ));
        table.save(&path).expect("save policy artifact");
        let loaded = PolicyTable::load(&path).expect("reload policy artifact");
        assert_eq!(table, loaded, "artifact round-trip must be lossless");

        let sim_config = SimConfig::builder()
            .alpha(p.alpha)
            .gamma(p.gamma)
            .schedule(schedule)
            .blocks(blocks)
            .n_honest(100)
            .seed(31_337)
            .policy(loaded)
            .build()
            .expect("valid sim config");
        let simulating = Stopwatch::start();
        let (reports, shards) = multi::run_many_recorded(&sim_config, runs, 0, recorder);
        sim_ns += simulating.elapsed_ns();
        for shard in &shards {
            telemetry.fold_shard(shard);
        }
        let us = multi::mean_absolute_pool(&reports, Scenario::RegularRate);
        let std_err = us.std_dev / (runs as f64).sqrt();
        let diff = (us.mean - solution.revenue).abs();
        let sigmas = if std_err > 0.0 { diff / std_err } else { 0.0 };

        let verdict = if !p.gated {
            "info"
        } else if diff <= 3.0 * std_err && diff <= 0.01 {
            "ok"
        } else {
            failed = true;
            "FAIL"
        };
        println!(
            "{:>6.2} {:>6.2} {model:>9} {:>10.5} {:>10.5} {:>9.5} {sigmas:>8.2} {verdict:>8}",
            p.alpha, p.gamma, solution.revenue, us.mean, std_err
        );
        let mut row = seleth_bench::cells(&[p.alpha, p.gamma, solution.revenue, us.mean, std_err]);
        row.insert(2, model.to_string());
        row.push(verdict.to_string());
        rows.push(row);
        point_rows.push(format!(
            "    {{\"alpha\": {}, \"gamma\": {}, \"model\": \"{model}\", \"rho_mdp\": {}, \
             \"us_sim\": {}, \"std_err\": {}, \"verdict\": \"{verdict}\"}}",
            json_f64(p.alpha),
            json_f64(p.gamma),
            json_f64(solution.revenue),
            json_f64(us.mean),
            json_f64(std_err)
        ));
    }

    let csv = seleth_bench::write_csv(
        "optimal_sim.csv",
        &[
            "alpha", "gamma", "model", "rho_mdp", "us_sim", "std_err", "verdict",
        ],
        &rows,
    );
    telemetry.add_phase("solve", solve_ns);
    telemetry.add_phase("simulate", sim_ns);
    telemetry.wall_ns = wall.elapsed_ns();
    telemetry.stamp_host();
    telemetry.set_gauge(
        "solver.warm_start_hit_rate",
        warm_rates.iter().sum::<f64>() / warm_rates.len().max(1) as f64,
    );
    let json = format!(
        "{{\n  \"kind\": \"seleth-optimal-sim\",\n  \"format\": 1,\n  \
         \"runs\": {runs},\n  \"blocks\": {blocks},\n  \"mdp_len\": {max_len},\n  \
         \"points\": [\n{}\n  ],\n  \"telemetry\": {}\n}}\n",
        point_rows.join(",\n"),
        telemetry.to_json(2)
    );
    let json_path = seleth_bench::write_text("optimal_sim.json", &json);
    println!("\npolicies under {}", policies_dir.display());
    println!("wrote {}", csv.display());
    println!("wrote {}", json_path.display());
    trace.finish();

    if failed {
        eprintln!("FAIL: a gated point disagrees with its MDP prediction");
        std::process::exit(1);
    }
    println!("all gated points agree within 3 standard errors and 1% absolute");
}
