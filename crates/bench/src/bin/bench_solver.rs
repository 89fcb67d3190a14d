//! Solver performance tracker: times the hot numeric kernels and writes
//! `BENCH_solver.json` into the results directory so the perf trajectory
//! is recorded PR over PR.
//!
//! Measured (all wall-clock, best of `SELETH_BENCH_REPS` repetitions,
//! default 3):
//!
//! - `csr_spmv_ns`: one `π ← π P` product on the paper's chain at
//!   truncation 200 (the stationary solvers' inner loop);
//! - `stationary_solve_ms`: a full Gauss–Seidel stationary solve at
//!   truncation 200;
//! - `mdp_solve_ms`: the single-expansion, warm-started Dinkelbach solve
//!   at the default truncation of [`MdpConfig::new`];
//! - `mdp_solve_reexpand_ms`: the legacy behaviour (re-expansion and a
//!   cold-started value function per ρ candidate) on the same MDP;
//! - `mdp_expansion_reuse_speedup`: the ratio of the two — the
//!   acceptance gate for the single-expansion layout is ≥ 2×;
//! - `mdp_scaling`: cold solve times at truncation 60 / 120 / 200 (one
//!   repetition each) — the tiled-sweep scaling record behind the
//!   truncation-200 delay-aware artifacts.
//!
//! The JSON carries the shared `"host"` fingerprint block (identical to
//! `BENCH_sim.json`'s, including `available_parallelism`) and ends with a
//! `"telemetry"` block carrying the Dinkelbach solver's instrumentation
//! (bisection count, sweeps per ρ iterate, warm-start hit rate, final
//! residual); `--trace <path>` dumps one span per benchmark section as
//! JSON lines. Every run also appends one snapshot row (git sha, host,
//! headline metrics) to `BENCH_history.jsonl` — the ledger behind
//! `perf_report --trend`.
//!
//! Usage: `cargo run --release -p seleth-bench --bin bench_solver`.
//! Set `SELETH_MDP_LEN` to override the MDP truncation (the default of 60
//! takes a few minutes of total runtime; CI smoke runs use e.g. 16).

use std::fmt::Write as _;

use seleth_bench::best_of;
use seleth_bench::report::Trace;
use seleth_chain::RewardSchedule;
use seleth_core::{stationary, ModelParams};
use seleth_mdp::{MdpConfig, RewardModel};
use seleth_obs::{Stopwatch, Telemetry};

fn main() {
    let trace = Trace::from_args();
    let recorder = trace.recorder();
    let wall = Stopwatch::start();
    let mut telemetry = Telemetry::new();
    let reps = usize::try_from(seleth_bench::env_u64("SELETH_BENCH_REPS", 3)).unwrap_or(3);
    let mdp_len: u32 = std::env::var("SELETH_MDP_LEN")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| MdpConfig::new(0.35, 0.5, RewardModel::Bitcoin).max_len);

    // --- CSR SpMV on the paper's chain at truncation 200 ---
    let params = ModelParams::with_truncation(0.4, 0.5, RewardSchedule::ethereum(), 200)
        .expect("valid params");
    let dtmc = seleth_core::chain_model::build_dtmc(&params);
    let matrix = dtmc.matrix();
    let n = matrix.n_rows();
    let pi = vec![1.0 / n as f64; n];
    let mut out = vec![0.0; n];
    // Batch to get above timer resolution.
    let spmv_batch = 1_000;
    let span_start = recorder.now_ns();
    let (spmv_batch_s, _) = best_of(reps, || {
        for _ in 0..spmv_batch {
            matrix.left_mul_vec(&pi, &mut out);
        }
        out[0]
    });
    if recorder.enabled() {
        recorder.span("csr_spmv", 0, span_start, recorder.now_ns());
    }
    telemetry.add_phase("csr_spmv", (spmv_batch_s * 1e9) as u64);
    let csr_spmv_ns = spmv_batch_s / spmv_batch as f64 * 1e9;
    println!(
        "csr_spmv            {n} states, {} nnz: {csr_spmv_ns:.0} ns/product",
        matrix.nnz()
    );

    // --- Full stationary solve ---
    let span_start = recorder.now_ns();
    let (stationary_s, _) = best_of(reps, || stationary::solve(&params).expect("solve"));
    if recorder.enabled() {
        recorder.span("stationary_solve", 0, span_start, recorder.now_ns());
    }
    telemetry.add_phase("stationary_solve", (stationary_s * 1e9) as u64);
    println!(
        "stationary_solve    truncation 200: {:.2} ms",
        stationary_s * 1e3
    );

    // --- MDP: single expansion + warm start vs legacy re-expansion ---
    let config = MdpConfig::new(0.35, 0.5, RewardModel::Bitcoin).with_max_len(mdp_len);
    let span_start = recorder.now_ns();
    let (fast_s, fast) = best_of(reps, || config.solve().expect("mdp solve"));
    if recorder.enabled() {
        recorder.span("mdp_solve", 0, span_start, recorder.now_ns());
    }
    telemetry.add_phase("mdp_solve", (fast_s * 1e9) as u64);
    let stats = &fast.stats;
    telemetry.add("solver.bisections", stats.bisection_steps as u64);
    telemetry.add(
        "solver.sweeps",
        stats.sweeps_per_iterate.iter().map(|&s| s as u64).sum(),
    );
    telemetry.add("solver.warm_start_hits", stats.warm_start_hits as u64);
    for &sweeps in &stats.sweeps_per_iterate {
        telemetry.observe("solver.sweeps_per_iterate", sweeps as u64);
    }
    telemetry.set_gauge("solver.warm_start_hit_rate", stats.warm_start_hit_rate());
    telemetry.set_gauge(
        "solver.final_residual",
        stats.residuals.last().copied().unwrap_or(0.0),
    );
    let span_start = recorder.now_ns();
    let (slow_s, slow) = best_of(reps, || config.solve_reexpanding().expect("mdp solve"));
    if recorder.enabled() {
        recorder.span("mdp_solve_reexpand", 0, span_start, recorder.now_ns());
    }
    telemetry.add_phase("mdp_solve_reexpand", (slow_s * 1e9) as u64);
    assert!(
        (fast.revenue - slow.revenue).abs() < 1e-9,
        "solvers disagree: {} vs {}",
        fast.revenue,
        slow.revenue
    );
    let speedup = slow_s / fast_s;
    println!(
        "mdp_solve           len {mdp_len}: {:.2} ms single-expansion ({} sweeps) \
         vs {:.2} ms re-expanding ({} sweeps) → {speedup:.2}x",
        fast_s * 1e3,
        fast.iterations,
        slow_s * 1e3,
        slow.iterations
    );

    // --- MDP truncation scaling: the tiled Bellman layout at 200+ ---
    // One cold solve per truncation (single repetition: the large solves
    // dominate the bin's runtime), recording the wall-clock growth of the
    // flat layout up to the delay-study truncation of 200.
    let mut scaling_rows = Vec::new();
    for &truncation in &[60u32, 120, 200] {
        let config = MdpConfig::new(0.35, 0.5, RewardModel::Bitcoin).with_max_len(truncation);
        let span_start = recorder.now_ns();
        let (solve_s, solution) = best_of(1, || config.solve().expect("mdp solve"));
        if recorder.enabled() {
            recorder.span("mdp_scaling", 0, span_start, recorder.now_ns());
        }
        telemetry.add_phase("mdp_scaling", (solve_s * 1e9) as u64);
        println!(
            "mdp_scaling         len {truncation}: {:.1} ms ({} sweeps, ρ* {:.5})",
            solve_s * 1e3,
            solution.iterations,
            solution.revenue
        );
        scaling_rows.push(format!(
            "{{\"truncation\": {truncation}, \"solve_ms\": {:.3}, \"sweeps\": {}, \
             \"revenue\": {:.9}}}",
            solve_s * 1e3,
            solution.iterations,
            solution.revenue
        ));
    }

    // --- Emit BENCH_solver.json ---
    let mut json = String::from("{\n");
    let mut field = |key: &str, value: String| {
        let _ = writeln!(json, "  \"{key}\": {value},");
    };
    field("truncation", "200".into());
    field("csr_states", n.to_string());
    field("csr_nnz", matrix.nnz().to_string());
    field("csr_spmv_ns", format!("{csr_spmv_ns:.1}"));
    field("stationary_solve_ms", format!("{:.3}", stationary_s * 1e3));
    field("mdp_max_len", mdp_len.to_string());
    field("mdp_solve_ms", format!("{:.3}", fast_s * 1e3));
    field("mdp_solve_sweeps", fast.iterations.to_string());
    field("mdp_solve_reexpand_ms", format!("{:.3}", slow_s * 1e3));
    field("mdp_solve_reexpand_sweeps", slow.iterations.to_string());
    field("mdp_expansion_reuse_speedup", format!("{speedup:.3}"));
    field(
        "mdp_scaling",
        format!("[\n    {}\n  ]", scaling_rows.join(",\n    ")),
    );
    field("reps", reps.to_string());
    field("revenue_check", format!("{:.9}", fast.revenue));
    field("host", seleth_bench::host_fingerprint_json());
    telemetry.wall_ns = wall.elapsed_ns();
    telemetry.stamp_host();
    // Trailing field without comma.
    let _ = write!(json, "  \"telemetry\": {}\n}}\n", telemetry.to_json(2));

    let dir = seleth_bench::results_dir();
    std::fs::create_dir_all(&dir).expect("create results directory");
    let path = dir.join("BENCH_solver.json");
    std::fs::write(&path, json).expect("write BENCH_solver.json");
    println!("wrote {}", path.display());
    let ledger = seleth_bench::append_history_row(
        "bench_solver",
        &[
            ("csr_spmv_ns", csr_spmv_ns),
            ("stationary_solve_ms", stationary_s * 1e3),
            ("mdp_solve_ms", fast_s * 1e3),
            ("mdp_expansion_reuse_speedup", speedup),
        ],
    );
    println!("appended history row to {}", ledger.display());
    trace.finish();

    if speedup < 2.0 {
        eprintln!("WARNING: single-expansion speedup {speedup:.2}x below the 2x acceptance gate");
        std::process::exit(1);
    }
}
