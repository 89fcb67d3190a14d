//! The perf gates `perfbench` cannot express, in one bin: overhead ratios
//! that need a same-pass plain run, replay-identity asserts, `run_many`
//! thread scaling and the MDP truncation scaling up to 200. Per-layer
//! costs (engine stages, propagation, SpMV, the stationary solve, Bellman
//! sweeps) are reported by `perfbench --trace 1`, not here.
//!
//! Measured (wall-clock, best of `SELETH_BENCH_REPS` repetitions,
//! default 3, on `SELETH_BENCH_BLOCKS` blocks, default 200 000):
//!
//! - `noop_overhead_ratio`: a fresh-engine selfish-mining run through the
//!   telemetry-instrumented `run_many_recorded` path (no-op recorder)
//!   against the same run without instrumentation, interleaved per
//!   repetition in rotating order so host drift cancels, each engine
//!   dropped outside its timer, and gated on the best *paired*
//!   per-repetition ratio. **Gated**: ≥ 0.95 of the plain throughput —
//!   the "no-op compiles to nothing" contract, bounded below by
//!   same-code host jitter;
//! - `recorder_disabled_ratio`: the same run with a capacity-0 (disabled)
//!   flight recorder attached, measured and gated the same paired way.
//!   **Gated**: ≥ 0.95 — the disabled recorder is one branch per
//!   would-be event. The fastest plain side of these pairs is
//!   `single_run_blocks_per_sec`. Beside each best pair the median
//!   paired ratio is reported (`noop_overhead_median_ratio`,
//!   `recorder_disabled_median_ratio`), ungated: the best pair is biased
//!   upward by the host's short speed spells, the median much less;
//! - `policy4_vs_policy3`: an exported optimal policy replayed as a
//!   classic table (`policy_run_blocks_per_sec`) and broadcast over the
//!   `match_d` axis as a four-axis table (`policy4_run_blocks_per_sec`):
//!   identical decisions (asserted), so the ratio is pure lookup cost.
//!   The two sides alternate within each of at least ten repetitions and
//!   each keeps its best. **Gated**: ≥ 0.9;
//! - `graph_vs_uniform_ratio`: a `DelaySimulation` run in graph mode on
//!   a static complete graph against the same workload on the uniform
//!   engine. The totals are bit-equal (asserted), so the ratio prices the
//!   static propagation path end to end. **Gated**: ≥ 0.25;
//! - `run_many` scaling: `SELETH_BENCH_RUNS` runs (default 16) of
//!   `blocks / 4` blocks each across 1/2/4/8 workers, with each worker's
//!   tasks, busy fraction and queue wait (`run_many_tN_workers`) and a
//!   speedup that is flagged invalid on a 1-CPU host;
//! - `mdp_scaling`: one cold solve per truncation 60 / 120 / 200 with
//!   its state count, policy evaluations, sweeps (Q passes) and
//!   `ns_per_state_sweep` (wall time over states × Q passes, so it also
//!   carries the exact evaluations' cost). The truncation-60 solve is
//!   `MdpConfig::new`'s default and feeds the solver telemetry
//!   (bisections, policy evaluations, Q passes per ρ iterate, warm-start
//!   hit rate, final residual).
//!
//! Output: `BENCH_gates.json` in the results directory, with the shared
//! `"host"` fingerprint and a closing `"telemetry"` block, plus one
//! `bench_gates` row in `BENCH_history.jsonl`, the ledger behind
//! `perf_report --trend`. `--trace <path>` dumps span events as JSON
//! lines. Exit code 1 when any gate fails, after both are written.
//!
//! Usage: `cargo run --release -p seleth-bench --bin bench_gates`.

use std::fmt::Write as _;
use std::time::Instant;

use seleth_bench::best_of;
use seleth_bench::report::Trace;
use seleth_chain::RewardSchedule;
use seleth_mdp::{Fork, MdpConfig, PolicyTable, RewardModel, StateSpace};
use seleth_net::Topology;
use seleth_obs::{EventLog, NoopRecorder, Stopwatch, Telemetry, TelemetryShard};
use seleth_sim::delay::{DelayConfig, DelaySimulation};
use seleth_sim::{multi, SimConfig, Simulation};

/// One-line JSON array of per-worker stats for a `run_many` measurement
/// lasting `wall_s` seconds.
fn workers_json(shards: &[TelemetryShard], wall_s: f64) -> String {
    let rows: Vec<String> = shards
        .iter()
        .map(|s| {
            let busy_fraction = if wall_s > 0.0 {
                s.busy_ns as f64 / 1.0e9 / wall_s
            } else {
                0.0
            };
            format!(
                "{{\"worker\": {}, \"tasks\": {}, \"busy_ms\": {:.3}, \
                 \"queue_wait_ms\": {:.3}, \"busy_fraction\": {busy_fraction:.4}}}",
                s.worker,
                s.tasks,
                s.busy_ns as f64 / 1.0e6,
                s.queue_wait_ns as f64 / 1.0e6
            )
        })
        .collect();
    format!("[{}]", rows.join(", "))
}

fn main() {
    let trace = Trace::from_args();
    let recorder = trace.recorder();
    let wall = Stopwatch::start();
    let mut telemetry = Telemetry::new();
    let reps = usize::try_from(seleth_bench::env_u64("SELETH_BENCH_REPS", 3)).unwrap_or(3);
    let blocks = seleth_bench::env_u64("SELETH_BENCH_BLOCKS", 200_000);
    let runs = seleth_bench::env_u64("SELETH_BENCH_RUNS", 16);

    let sim_config = |blocks: u64, seed: u64, policy: Option<PolicyTable>| {
        let mut b = SimConfig::builder();
        b.alpha(0.35)
            .gamma(0.5)
            .n_honest(999)
            .blocks(blocks)
            .seed(seed);
        if let Some(table) = policy {
            b.policy(table);
        }
        b.build().expect("valid config")
    };
    let base = sim_config(blocks, 4242, None);

    // --- Overhead ratios, interleaved per repetition ---
    // Three variants of the identical workload run back to back in every
    // repetition, so slow host drift (thermal, noisy neighbors) hits all
    // sides equally. Each repetition yields a *paired* ratio (plain time
    // over variant time from the same pass), and the gate judges the best
    // pair: on a noisy shared host even two identical plain runs disagree
    // by several percent per pair, so "at least one pair shows the
    // variant at full speed" is the strongest claim the hardware can
    // certify. A fresh engine per side, dropped right after its timer
    // stops, so no side runs on memory another just freed; and the order
    // of the three rotates between repetitions, so none always goes
    // first. One untimed run of each variant warms the allocator up: on a
    // 2-CPU host the first timed run after a single warm-up run still took
    // about 20% longer than the rest, which inflated its repetition's
    // ratios. The only difference left is the instrumentation under test.
    let plain = || {
        let start = Instant::now();
        let mut sim = Simulation::new(base.clone());
        let report = sim.run_in_place();
        (start.elapsed().as_secs_f64(), report.pool.total())
    };
    let noop = || {
        let start = Instant::now();
        let reports = multi::run_many_recorded(&base, 1, 1, &NoopRecorder).0;
        (start.elapsed().as_secs_f64(), reports[0].pool.total())
    };
    let disabled = || {
        let start = Instant::now();
        let mut sim = Simulation::new(base.clone());
        sim.attach_events(std::sync::Arc::new(EventLog::disabled()));
        let report = sim.run_in_place();
        (start.elapsed().as_secs_f64(), report.pool.total())
    };
    let variants: [&dyn Fn() -> (f64, f64); 3] = [&plain, &noop, &disabled];
    for variant in variants {
        variant();
    }
    let overhead_reps = reps.max(10);
    let mut single_s = f64::INFINITY;
    let mut noop_ratios = Vec::with_capacity(overhead_reps);
    let mut recorder_disabled_ratios = Vec::with_capacity(overhead_reps);
    for rep in 0..overhead_reps {
        let mut timed = [(0.0, 0.0); 3];
        for k in 0..3 {
            let v = (rep + k) % 3;
            timed[v] = variants[v]();
        }
        let [(plain_s, plain_total), (noop_s, noop_total), (disabled_s, disabled_total)] = timed;
        single_s = single_s.min(plain_s);
        noop_ratios.push(plain_s / noop_s);
        recorder_disabled_ratios.push(plain_s / disabled_s);
        assert_eq!(
            noop_total, plain_total,
            "instrumentation must not change simulation results"
        );
        assert_eq!(
            disabled_total, plain_total,
            "a disabled flight recorder must not change simulation results"
        );
    }
    let (noop_ratio, noop_median) = best_and_median(&mut noop_ratios);
    let (recorder_disabled_ratio, recorder_disabled_median) =
        best_and_median(&mut recorder_disabled_ratios);
    let single_rate = blocks as f64 / single_s;
    telemetry.add_phase("single_run", (single_s * 1e9) as u64);
    telemetry.set_gauge("bench.noop_overhead_ratio", noop_ratio);
    telemetry.set_gauge("bench.noop_overhead_median_ratio", noop_median);
    telemetry.set_gauge("bench.recorder_disabled_ratio", recorder_disabled_ratio);
    telemetry.set_gauge(
        "bench.recorder_disabled_median_ratio",
        recorder_disabled_median,
    );
    println!(
        "single_run          {blocks} blocks: {:.1} ms ({:.2} Mblocks/s, best plain side)",
        single_s * 1e3,
        single_rate / 1e6
    );
    println!(
        "noop_overhead       instrumented at {noop_ratio:.3}x of plain throughput \
         (best pair, gate: >= 0.95; median pair {noop_median:.3}x)"
    );
    println!(
        "recorder_disabled   disabled flight recorder at {recorder_disabled_ratio:.3}x \
         of plain throughput (best pair, gate: >= 0.95; median pair \
         {recorder_disabled_median:.3}x)"
    );

    // --- Four-axis (match_d) lookup against the classic table ---
    let mdp = MdpConfig::new(0.35, 0.5, RewardModel::Bitcoin).with_max_len(30);
    let table = PolicyTable::from_solution(&mdp, &mdp.solve().expect("mdp solve"));
    // The same policy broadcast over the match_d axis: identical actions on
    // every distance slice, so any rate difference is pure lookup cost.
    let wide_table = PolicyTable::from_fn(
        table.alpha(),
        table.gamma(),
        table.rewards(),
        table.scenario(),
        StateSpace::ethereum(table.max_len()),
        table.predicted_revenue(),
        |a, h, fork: Fork, _| table.action(a, h, fork, 0).expect("in region"),
    );
    // The two sides alternate within each repetition, and each keeps its
    // best of at least ten. On a 2-CPU host whose speed switches by about
    // 25% for short spells, best of three let one side catch a fast spell
    // the other missed, and the ratio read 0.75-0.85 in about one run in
    // five with identical lookup code.
    let mut playback = [table, wide_table].map(|table| {
        let config = sim_config(blocks, 4242, Some(table));
        (Simulation::new(config.clone()), config, f64::INFINITY, 0.0)
    });
    for _ in 0..reps.max(10) {
        for (engine, config, best, total) in &mut playback {
            let start = Instant::now();
            engine.reset(config.clone());
            *total = engine.run_in_place().pool.total();
            *best = best.min(start.elapsed().as_secs_f64());
        }
    }
    let [(_, _, policy_s, policy_total), (_, _, policy4_s, policy4_total)] = playback;
    telemetry.add_phase("policy_run", (policy_s * 1e9) as u64);
    telemetry.add_phase("policy4_run", (policy4_s * 1e9) as u64);
    assert_eq!(
        policy_total, policy4_total,
        "broadcast four-axis table must replay identically"
    );
    let policy_rate = blocks as f64 / policy_s;
    let policy4_rate = blocks as f64 / policy4_s;
    let policy4_ratio = policy4_rate / policy_rate;
    println!(
        "policy_run          {blocks} blocks: {:.1} ms ({:.2} Mblocks/s)",
        policy_s * 1e3,
        policy_rate / 1e6
    );
    println!(
        "policy4_run         {blocks} blocks: {:.1} ms ({:.2} Mblocks/s, {policy4_ratio:.3}x \
         of 3-axis, gate: >= 0.9)",
        policy4_s * 1e3,
        policy4_rate / 1e6
    );

    // --- Graph-mode delay engine against the uniform engine ---
    let delay_config = |graph: bool| {
        let mut b = DelayConfig::builder();
        b.shares(vec![0.25; 4])
            .delay(6.0)
            .blocks(blocks)
            .seed(4242)
            .schedule(RewardSchedule::ethereum());
        if graph {
            b.topology(Topology::complete(4, 6.0).expect("complete is valid"));
        }
        b.build().expect("valid config")
    };
    let mut timed_delay = |name: &str, graph: bool| {
        let (s, total) = best_of(reps, || {
            DelaySimulation::new(delay_config(graph))
                .run()
                .report
                .total_reward()
        });
        telemetry.add_phase(name, (s * 1e9) as u64);
        (s, total)
    };
    let (uniform_s, uniform_total) = timed_delay("uniform_sim", false);
    let (graph_s, graph_total) = timed_delay("graph_sim", true);
    assert_eq!(
        uniform_total.to_bits(),
        graph_total.to_bits(),
        "graph mode must replay the uniform engine bit-for-bit"
    );
    let uniform_rate = blocks as f64 / uniform_s;
    let graph_rate = blocks as f64 / graph_s;
    let graph_ratio = graph_rate / uniform_rate;
    telemetry.set_gauge("bench.graph_vs_uniform_ratio", graph_ratio);
    println!(
        "uniform_sim         {blocks} blocks: {:.1} ms ({:.2} Mblocks/s)",
        uniform_s * 1e3,
        uniform_rate / 1e6
    );
    println!(
        "graph_sim           {blocks} blocks: {:.1} ms ({:.2} Mblocks/s, {graph_ratio:.3}x \
         of uniform, gate: >= 0.25)",
        graph_s * 1e3,
        graph_rate / 1e6
    );

    // --- run_many scaling across worker counts ---
    let many_blocks = (blocks / 4).max(1);
    let many_config = sim_config(many_blocks, 999, None);
    let many = Stopwatch::start();
    let mut scaling = Vec::new();
    for threads in [1usize, 2, 4, 8] {
        let (s, (reports, shards)) = best_of(reps, || {
            multi::run_many_recorded(&many_config, runs, threads, recorder)
        });
        assert_eq!(reports.len(), usize::try_from(runs).unwrap_or(usize::MAX));
        println!(
            "run_many            {runs} x {many_blocks} blocks, {threads} threads: \
             {:.1} ms ({:.2} Mblocks/s)",
            s * 1e3,
            (many_blocks * runs) as f64 / s / 1e6
        );
        scaling.push((threads, s, shards));
    }
    telemetry.add_phase("run_many", many.elapsed_ns());
    if let Some((_, _, shards)) = scaling.last() {
        for shard in shards {
            telemetry.fold_shard(shard);
        }
    }
    let speedup_max = scaling[0].1
        / scaling
            .iter()
            .map(|(_, s, _)| *s)
            .fold(f64::INFINITY, f64::min);
    // On a 1-CPU host every worker time-slices one CPU and ≈1.0x is the
    // healthy reading, so the speedup carries a validity flag rather than
    // being misread as a scheduler regression.
    let speedup_valid = seleth_obs::resolve_threads(0) > 1;
    println!(
        "run_many_speedup    best {speedup_max:.2}x over 1 thread{}",
        if speedup_valid {
            ""
        } else {
            " (NOT meaningful: host has 1 CPU; workers time-slice it)"
        }
    );

    // --- MDP truncation scaling up to the delay-study truncation ---
    // One cold solve per truncation (single repetition: the large solves
    // dominate the bin's runtime).
    let default_mdp = MdpConfig::new(0.35, 0.5, RewardModel::Bitcoin);
    let mut scaling_rows = Vec::new();
    // (solve ms, ns per state and Q pass) of the last, truncation-200, row.
    let mut t200 = (0.0, 0.0);
    for truncation in [60u32, 120, 200] {
        let config = default_mdp.with_max_len(truncation);
        let span_start = recorder.now_ns();
        let (solve_s, solution) = best_of(1, || config.solve().expect("mdp solve"));
        if recorder.enabled() {
            recorder.span("mdp_scaling", 0, span_start, recorder.now_ns());
        }
        telemetry.add_phase("mdp_scaling", (solve_s * 1e9) as u64);
        if truncation == default_mdp.max_len {
            let stats = &solution.stats;
            telemetry.add("solver.bisections", stats.bisection_steps as u64);
            telemetry.add("solver.policy_evaluations", stats.policy_evaluations as u64);
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
        }
        let states = solution.policy.len();
        let ns_per_state_sweep = solve_s * 1e9 / (states * solution.iterations) as f64;
        t200 = (solve_s * 1e3, ns_per_state_sweep);
        let evaluations = solution.stats.policy_evaluations;
        println!(
            "mdp_scaling         len {truncation}: {:.1} ms ({states} states, \
             {evaluations} policy evaluations, {} sweeps, \
             {ns_per_state_sweep:.1} ns/state-sweep, ρ* {:.5})",
            solve_s * 1e3,
            solution.iterations,
            solution.revenue
        );
        scaling_rows.push(format!(
            "{{\"truncation\": {truncation}, \"states\": {states}, \"solve_ms\": {:.3}, \
             \"policy_evaluations\": {evaluations}, \"sweeps\": {}, \
             \"ns_per_state_sweep\": {ns_per_state_sweep:.2}, \"revenue\": {:.9}}}",
            solve_s * 1e3,
            solution.iterations,
            solution.revenue
        ));
    }

    // --- Emit BENCH_gates.json ---
    let mut json = String::from("{\n");
    let mut field = |key: &str, value: String| {
        let _ = writeln!(json, "  \"{key}\": {value},");
    };
    field("blocks", blocks.to_string());
    field("single_run_ms", format!("{:.3}", single_s * 1e3));
    field("single_run_blocks_per_sec", format!("{single_rate:.0}"));
    field("noop_overhead_ratio", format!("{noop_ratio:.4}"));
    field("noop_overhead_median_ratio", format!("{noop_median:.4}"));
    field(
        "recorder_disabled_ratio",
        format!("{recorder_disabled_ratio:.4}"),
    );
    field(
        "recorder_disabled_median_ratio",
        format!("{recorder_disabled_median:.4}"),
    );
    field("policy_run_ms", format!("{:.3}", policy_s * 1e3));
    field("policy_run_blocks_per_sec", format!("{policy_rate:.0}"));
    field("policy4_run_ms", format!("{:.3}", policy4_s * 1e3));
    field("policy4_run_blocks_per_sec", format!("{policy4_rate:.0}"));
    field("policy4_vs_policy3", format!("{policy4_ratio:.3}"));
    field("uniform_sim_blocks_per_sec", format!("{uniform_rate:.0}"));
    field("graph_sim_blocks_per_sec", format!("{graph_rate:.0}"));
    field("graph_vs_uniform_ratio", format!("{graph_ratio:.3}"));
    field("many_runs", runs.to_string());
    field("many_blocks_per_run", many_blocks.to_string());
    for (threads, s, shards) in &scaling {
        field(
            &format!("run_many_t{threads}_ms"),
            format!("{:.3}", s * 1e3),
        );
        field(
            &format!("run_many_t{threads}_workers"),
            workers_json(shards, *s),
        );
    }
    field("run_many_speedup_max", format!("{speedup_max:.3}"));
    field("run_many_speedup_valid", speedup_valid.to_string());
    field(
        "mdp_scaling",
        format!("[\n    {}\n  ]", scaling_rows.join(",\n    ")),
    );
    field("reps", reps.to_string());
    field("host", seleth_bench::host_fingerprint_json());
    telemetry.wall_ns = wall.elapsed_ns();
    telemetry.stamp_host();
    // Trailing field without comma.
    let _ = write!(json, "  \"telemetry\": {}\n}}\n", telemetry.to_json(2));

    let path = seleth_bench::write_text("BENCH_gates.json", &json);
    println!("wrote {}", path.display());
    // Every metric name must gate under `seleth_obs::direction_of`
    // (`per_sec`/`ratio` higher-better, `_ms`/`_ns` lower-better).
    let ledger = seleth_bench::append_history_row(
        "bench_gates",
        &[
            ("single_run_blocks_per_sec", single_rate),
            ("noop_overhead_ratio", noop_ratio),
            ("recorder_disabled_ratio", recorder_disabled_ratio),
            ("policy_run_blocks_per_sec", policy_rate),
            ("policy4_run_blocks_per_sec", policy4_rate),
            ("policy4_vs_policy3_ratio", policy4_ratio),
            ("graph_sim_blocks_per_sec", graph_rate),
            ("graph_vs_uniform_ratio", graph_ratio),
            ("mdp_t200_solve_ms", t200.0),
            // Per state and Q pass: the passes are a dozen improvement,
            // probe and greedy passes, so this mostly prices the exact
            // evaluations, not a Bellman sweep.
            ("mdp_t200_state_pass_ns", t200.1),
        ],
    );
    println!("appended history row to {}", ledger.display());
    trace.finish();

    let gates = [
        ("no-op instrumentation", noop_ratio, 0.95),
        ("disabled flight recorder", recorder_disabled_ratio, 0.95),
        ("four-axis playback vs 3-axis", policy4_ratio, 0.9),
        ("graph-mode vs uniform engine", graph_ratio, 0.25),
    ];
    let mut failed = false;
    for (what, ratio, bound) in gates {
        if ratio < bound {
            eprintln!("FAIL: {what} at {ratio:.3}x (gate: >= {bound})");
            failed = true;
        }
    }
    if failed {
        std::process::exit(1);
    }
}

/// The best (largest) and the median of the paired ratios; an even count
/// takes the mean of the middle two.
fn best_and_median(ratios: &mut [f64]) -> (f64, f64) {
    ratios.sort_by(f64::total_cmp);
    let n = ratios.len();
    (ratios[n - 1], 0.5 * (ratios[(n - 1) / 2] + ratios[n / 2]))
}
