//! Gossip-layer performance tracker: times the `seleth-net` propagation
//! hot paths and writes `BENCH_net.json` into the results directory —
//! the network-side counterpart of `BENCH_sim.json`.
//!
//! Measured (wall-clock, best of `SELETH_BENCH_REPS` repetitions,
//! default 3):
//!
//! - `static_propagate_per_sec`: [`seleth_net::Topology::propagate`] on a
//!   static 16-miner complete graph — the cached all-pairs row copy every
//!   graph-mode block release pays;
//! - `dynamic_propagate_per_sec`: the same call on a lossy
//!   uniform-latency graph, where every block re-runs the per-edge draw
//!   chain plus the deterministic Dijkstra sweep;
//! - `graph_sim_blocks_per_sec`: a full `DelaySimulation` run in graph
//!   mode on the complete/uniform-equivalent topology, against
//!   `uniform_sim_blocks_per_sec` for the same workload on the classic
//!   uniform engine. The two runs are bit-identical in results (asserted),
//!   so `graph_vs_uniform_ratio` prices exactly the gossip layer.
//!   **Gated**: graph mode must keep ≥ 25% of the uniform throughput
//!   (exit code 1 otherwise) — the static-plan row copy plus per-view
//!   queues may cost, but not an order of magnitude.
//!
//! Every run appends one snapshot row (git sha, host, headline metrics)
//! to `BENCH_history.jsonl`, the ledger behind `perf_report --trend`.
//!
//! Usage: `cargo run --release -p seleth-bench --bin bench_net`.

use std::fmt::Write as _;

use seleth_bench::best_of;
use seleth_bench::report::{trace_arg, write_trace};
use seleth_chain::RewardSchedule;
use seleth_net::{Latency, Topology};
use seleth_obs::{Stopwatch, Telemetry, TraceLog};
use seleth_sim::delay::{DelayConfig, DelaySimulation};

fn main() {
    let trace_path = trace_arg();
    let trace = TraceLog::new();
    let wall = Stopwatch::start();
    let mut telemetry = Telemetry::new();
    let reps = usize::try_from(seleth_bench::env_u64("SELETH_BENCH_REPS", 3)).unwrap_or(3);
    let calls = seleth_bench::env_u64("SELETH_BENCH_CALLS", 200_000);
    let blocks = seleth_bench::env_u64("SELETH_BENCH_BLOCKS", 200_000);
    const MINERS: usize = 16;

    // --- Static hot path: cached all-pairs row per release ---
    let static_topo = Topology::complete(MINERS, 6.0).expect("complete is valid");
    assert!(static_topo.is_static(), "fixed lossless graphs precompile");
    let (static_s, checksum) = best_of(reps, || {
        let mut acc = 0.0f64;
        for b in 0..calls {
            let p = static_topo.propagate(usize::try_from(b).unwrap_or(0) % MINERS, b);
            acc += p.arrival[(b as usize + 1) % MINERS];
        }
        acc
    });
    assert!(checksum.is_finite());
    let static_rate = calls as f64 / static_s;
    telemetry.add_phase("static_propagate", (static_s * 1e9) as u64);
    println!(
        "static_propagate    {calls} calls x {MINERS} miners: {:.1} ms ({:.2} Mcalls/s)",
        static_s * 1e3,
        static_rate / 1e6
    );

    // --- Dynamic hot path: per-block draws + Dijkstra per release ---
    let dynamic_topo = {
        let mut b = Topology::builder();
        let first = b.miners(MINERS);
        b.seed(7);
        for i in first..MINERS {
            for j in (i + 1)..MINERS {
                b.link(i, j, 4.0);
            }
        }
        // One lossy, jittered edge per miner keeps the graph off the
        // static fast path without changing its diameter.
        for i in first..MINERS {
            let j = (i + 1) % MINERS;
            b.edge_spec(seleth_net::Link {
                from: i,
                to: j,
                latency: Latency::Uniform { lo: 1.0, hi: 3.0 },
                loss: 0.05,
                shortcut: false,
            });
        }
        b.build().expect("dynamic graph is valid")
    };
    assert!(!dynamic_topo.is_static(), "draws force the dynamic path");
    let dyn_calls = (calls / 20).max(1);
    let (dynamic_s, checksum) = best_of(reps, || {
        let mut acc = 0.0f64;
        for b in 0..dyn_calls {
            let p = dynamic_topo.propagate(usize::try_from(b).unwrap_or(0) % MINERS, b);
            acc += p.arrival[(b as usize + 1) % MINERS];
        }
        acc
    });
    assert!(checksum.is_finite());
    let dynamic_rate = dyn_calls as f64 / dynamic_s;
    telemetry.add_phase("dynamic_propagate", (dynamic_s * 1e9) as u64);
    println!(
        "dynamic_propagate   {dyn_calls} calls x {MINERS} miners: {:.1} ms ({:.2} kcalls/s)",
        dynamic_s * 1e3,
        dynamic_rate / 1e3
    );

    // --- Full graph-mode simulation vs the uniform engine ---
    let sim_config = |graph: bool| {
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
    let (uniform_s, uniform_total) = best_of(reps, || {
        DelaySimulation::new(sim_config(false))
            .run()
            .report
            .total_reward()
    });
    let (graph_s, graph_total) = best_of(reps, || {
        DelaySimulation::new(sim_config(true))
            .run()
            .report
            .total_reward()
    });
    assert_eq!(
        uniform_total.to_bits(),
        graph_total.to_bits(),
        "graph mode must replay the uniform engine bit-for-bit"
    );
    let uniform_rate = blocks as f64 / uniform_s;
    let graph_rate = blocks as f64 / graph_s;
    let graph_ratio = graph_rate / uniform_rate;
    telemetry.add_phase("uniform_sim", (uniform_s * 1e9) as u64);
    telemetry.add_phase("graph_sim", (graph_s * 1e9) as u64);
    telemetry.set_gauge("bench.graph_vs_uniform_ratio", graph_ratio);
    println!(
        "uniform_sim         {blocks} blocks: {:.1} ms ({:.2} Mblocks/s)",
        uniform_s * 1e3,
        uniform_rate / 1e6
    );
    println!(
        "graph_sim           {blocks} blocks: {:.1} ms ({:.2} Mblocks/s, {graph_ratio:.2}x \
         of uniform, gate: >= 0.25)",
        graph_s * 1e3,
        graph_rate / 1e6
    );

    // --- Emit BENCH_net.json ---
    let mut json = String::from("{\n");
    let mut field = |key: &str, value: String| {
        let _ = writeln!(json, "  \"{key}\": {value},");
    };
    field("miners", MINERS.to_string());
    field("calls", calls.to_string());
    field("static_propagate_ms", format!("{:.3}", static_s * 1e3));
    field("static_propagate_per_sec", format!("{static_rate:.0}"));
    field("dynamic_calls", dyn_calls.to_string());
    field("dynamic_propagate_ms", format!("{:.3}", dynamic_s * 1e3));
    field("dynamic_propagate_per_sec", format!("{dynamic_rate:.0}"));
    field("sim_blocks", blocks.to_string());
    field("uniform_sim_blocks_per_sec", format!("{uniform_rate:.0}"));
    field("graph_sim_blocks_per_sec", format!("{graph_rate:.0}"));
    field("graph_vs_uniform_ratio", format!("{graph_ratio:.3}"));
    field("reps", reps.to_string());
    field("host", seleth_bench::host_fingerprint_json());
    telemetry.wall_ns = wall.elapsed_ns();
    telemetry.threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    telemetry.set_gauge("host.available_parallelism", telemetry.threads as f64);
    let _ = write!(json, "  \"telemetry\": {}\n}}\n", telemetry.to_json(2));

    let dir = seleth_bench::results_dir();
    std::fs::create_dir_all(&dir).expect("create results directory");
    let path = dir.join("BENCH_net.json");
    std::fs::write(&path, json).expect("write BENCH_net.json");
    println!("wrote {}", path.display());
    let ledger = seleth_bench::append_history_row(
        "bench_net",
        &[
            ("static_propagate_per_sec", static_rate),
            ("dynamic_propagate_per_sec", dynamic_rate),
            ("graph_sim_blocks_per_sec", graph_rate),
            ("graph_vs_uniform_ratio", graph_ratio),
        ],
    );
    println!("appended history row to {}", ledger.display());
    write_trace(&trace, trace_path.as_ref());

    // The gossip layer's overhead on the bit-identical workload: the
    // static row copy, per-view pending queues, and counter upkeep. Keep
    // it within 4x of the uniform engine.
    if graph_ratio < 0.25 {
        eprintln!(
            "FAIL: graph-mode simulation at {graph_ratio:.3}x of the uniform \
             engine (gate: >= 0.25)"
        );
        std::process::exit(1);
    }
}
