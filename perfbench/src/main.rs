//! The selfish-ethereum benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <engine_eth|gossip_graph|solve|all> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Untraced (`--trace 0`), one workload's fixed op list runs single-
//! threaded in whole passes that fit in `--seconds`, after an untimed
//! warm-up op. Every op's output is checked outside timing. The last line
//! of standard output is a JSON object with the end-to-end metrics
//! (`setup_s`, `op_ms_p90`, `peak_rss_mb`); the lines before it also
//! print `wall_s`, `op_ms_p50` and `blocks_per_s`.
//! Traced (`--trace 1`), one pass of the workload runs untraced for
//! reference, then one pass of every workload's list runs with spans
//! around each call into a layer; the JSON then holds the per-layer
//! metrics and the spans are written to `perfbench/out/`. `all` runs each
//! workload in a process of its own. See `perfbench/README.md` for the
//! workloads, why each was chosen, and which layer moves which metric.

mod engine;
mod gossip;
mod ops;
mod solve;
mod stats;
mod trace;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

use engine::EngineEth;
use gossip::GossipGraph;
use ops::{load_artifacts, Counts, Workload};
use solve::Solve;
use stats::Tally;
use trace::Tracer;

/// Workloads, in the order `all` and the traced run visit them.
const WORKLOADS: [&str; 3] = ["engine_eth", "gossip_graph", "solve"];
/// Set-ups timed before the first pass and again after every pass, so
/// they sample the whole run as the ops do; `setup_s` is their 90th
/// percentile.
const SETUPS_PER_PASS: usize = 8;
/// Worker threads every measured call runs on.
const THREADS: usize = 1;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 0, 10, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = number()?,
            "--seconds" => seconds = number()?,
            "--trace" => trace = number()? != 0,
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; one of {WORKLOADS:?} or all"
        ));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn artifact_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../results/policies")
}

/// Peak resident set (VmHWM) of this process, in MiB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// What one set of passes over an op list measured.
#[derive(Default)]
struct Measured {
    op_ms: Vec<f64>,
    pass_s: Vec<f64>,
    ops_per_pass: usize,
    tally: Tally,
}

/// Prepare `w` and run its warm-up op, then whole passes over its list
/// while the next pass is expected to end within `budget`, at most
/// `max_passes`, calling `after_pass` after each. Each op is timed alone;
/// its check (and, traced, its probes) run outside the timed interval.
fn measure<W: Workload>(
    w: &mut W,
    tr: &mut Tracer,
    counts: &mut Counts,
    budget: Duration,
    max_passes: usize,
    after_pass: &mut dyn FnMut() -> Result<(), String>,
) -> Result<Measured, String> {
    let n = w.len();
    let mut m = Measured {
        ops_per_pass: n,
        ..Measured::default()
    };
    w.prepare()?;
    // Untimed warm-up: the list's last op, so the first timed op follows
    // it exactly as it does in every later pass.
    let _ = w.run(n - 1, &mut Tracer::new(false));
    if let Some(outcome) = w.canary() {
        report_failure("canary", &outcome);
        m.tally.record(&outcome);
    }
    let start = Instant::now();
    let mut op_id = tr.spans().last().map_or(0, |s| s.op + 1);
    loop {
        let mut pass = Duration::ZERO;
        for i in 0..n {
            tr.set_op(op_id);
            op_id += 1;
            let t = Instant::now();
            let out = w.run(i, tr);
            let dt = t.elapsed();
            pass += dt;
            m.op_ms.push(dt.as_secs_f64() * 1e3);
            let outcome = out.and_then(|o| {
                if tr.enabled() {
                    w.probe(i, &o, tr, counts);
                }
                w.check(i, &o)
            });
            report_failure(&format!("op {i}"), &outcome);
            m.tally.record(&outcome);
        }
        m.pass_s.push(pass.as_secs_f64());
        after_pass()?;
        // Start another pass only if it should end within the budget.
        let next_end = start.elapsed() + start.elapsed() / m.pass_s.len() as u32;
        if next_end > budget || m.pass_s.len() >= max_passes {
            return Ok(m);
        }
    }
}

fn report_failure(what: &str, outcome: &Result<(), String>) {
    if let Err(e) = outcome {
        eprintln!("FAILED {what}: {e}");
    }
}

/// A workload ready to run.
enum Bench {
    EngineEth(Box<EngineEth>),
    GossipGraph(Box<GossipGraph>),
    Solve(Solve),
}

impl Bench {
    /// Once-per-process work: load and audit the committed artifacts, then
    /// build the workload's topology and configurations.
    fn build(name: &str, seed: u64) -> Result<Bench, String> {
        let artifacts = load_artifacts(&artifact_dir())?;
        Ok(match name {
            "engine_eth" => Bench::EngineEth(Box::new(EngineEth::setup(&artifacts, seed)?)),
            "gossip_graph" => Bench::GossipGraph(Box::new(GossipGraph::setup(&artifacts, seed)?)),
            "solve" => Bench::Solve(Solve::setup(&artifacts, seed)?),
            _ => return Err(format!("unknown workload {name}")),
        })
    }

    /// [`Bench::build`] [`SETUPS_PER_PASS`] times, adding each time to
    /// `times`; returns the last.
    fn timed_builds(name: &str, seed: u64, times: &mut Vec<f64>) -> Result<Bench, String> {
        let mut bench = Err("no set-up ran".to_string());
        for _ in 0..SETUPS_PER_PASS {
            let t = Instant::now();
            bench = Ok(Bench::build(name, seed)?);
            times.push(t.elapsed().as_secs_f64());
        }
        bench
    }

    fn measure(
        &mut self,
        tr: &mut Tracer,
        c: &mut Counts,
        budget: Duration,
        passes: usize,
        after_pass: &mut dyn FnMut() -> Result<(), String>,
    ) -> Result<Measured, String> {
        match self {
            Bench::EngineEth(w) => measure(&mut **w, tr, c, budget, passes, after_pass),
            Bench::GossipGraph(w) => measure(&mut **w, tr, c, budget, passes, after_pass),
            Bench::Solve(w) => measure(w, tr, c, budget, passes, after_pass),
        }
    }

    fn blocks_per_op(&self) -> u64 {
        match self {
            Bench::EngineEth(w) => w.blocks_per_op(),
            Bench::GossipGraph(w) => w.blocks_per_op(),
            Bench::Solve(w) => w.blocks_per_op(),
        }
    }
}

/// A metric as printed: name, value, unit.
type Metric = (String, f64, &'static str);

fn json_line(tally: Tally, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                finite(*value)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.all_passed(),
        tally.attempted,
        tally.failed,
        body.join(", ")
    )
}

/// JSON has no NaN or infinity; print those as 0.
fn finite(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        0.0
    }
}

fn host_line(args: &Args) {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "workload {} seed {} seconds {} trace {} | available_parallelism {cores} | threads_used {THREADS}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
}

/// `--trace 0`: the end-to-end metrics of one workload.
fn run_untraced(args: &Args) -> Result<(Tally, Vec<Metric>), String> {
    let mut setup_times = Vec::new();
    let mut bench = Bench::timed_builds(&args.workload, args.seed, &mut setup_times)?;
    let budget = Duration::from_secs(args.seconds);
    let m = bench.measure(
        &mut Tracer::new(false),
        &mut Counts::default(),
        budget,
        usize::MAX,
        &mut || Bench::timed_builds(&args.workload, args.seed, &mut setup_times).map(drop),
    )?;
    let setup_s = stats::percentile(&setup_times, 0.9).unwrap_or(0.0);
    let wall_s = stats::median(&m.pass_s).unwrap_or(0.0);
    let ops = m.op_ms.len();
    let p50 = stats::median(&m.op_ms).unwrap_or(0.0);
    let p90 = stats::p90(&m.op_ms);
    let rss = peak_rss_mb().unwrap_or(0.0);
    println!(
        "setup_s      {setup_s:.6} s    (p90 of {} set-ups spread over the run)",
        setup_times.len()
    );
    println!(
        "wall_s       {wall_s:.4} s    (median of {} passes of {} ops)",
        m.pass_s.len(),
        m.ops_per_pass
    );
    let passes: Vec<String> = m.pass_s.iter().map(|s| format!("{s:.3}")).collect();
    println!("passes_s     {}", passes.join(" "));
    println!("op_ms_p50    {p50:.3} ms   ({ops} ops)");
    match p90 {
        Some(p) => println!("op_ms_p90    {p:.3} ms   ({ops} ops)"),
        None => println!(
            "op_ms_p90    undefined  ({ops} ops < {})",
            stats::P90_MIN_OPS
        ),
    }
    println!("peak_rss_mb  {rss:.2} MB");
    let blocks = bench.blocks_per_op();
    if blocks > 0 && wall_s > 0.0 {
        let rate = (blocks * m.ops_per_pass as u64) as f64 / wall_s;
        println!("blocks_per_s {rate:.0} 1/s");
    }
    println!(
        "failed       {} of {} ops ({:.4})",
        m.tally.failed,
        m.tally.attempted,
        m.tally.failed_share()
    );
    // `wall_s`, `op_ms_p50` and `blocks_per_s` are printed above but not
    // reported: on a host that switches between two speeds for minutes at
    // a time they follow the share of time spent in each (their spread
    // over ten runs reached 26%), while a 90th percentile stays at the
    // slower speed.
    let metrics = vec![
        ("setup_s".into(), setup_s, "s"),
        ("op_ms_p90".into(), p90.unwrap_or(0.0), "ms"),
        ("peak_rss_mb".into(), rss, "MB"),
    ];
    Ok((m.tally, metrics))
}

/// `--trace 1`: one untraced pass of the workload for reference, then a
/// traced pass of every workload; reports every per-layer metric.
fn run_traced(args: &Args) -> Result<(Tally, Vec<Metric>), String> {
    let one = |bench: &mut Bench, tr: &mut Tracer, c: &mut Counts| {
        bench.measure(tr, c, Duration::ZERO, 1, &mut || Ok(()))
    };
    let mut home = Bench::build(&args.workload, args.seed)?;
    let untraced = one(&mut home, &mut Tracer::new(false), &mut Counts::default())?;
    let mut tally = untraced.tally;
    let mut tr = Tracer::new(true);
    let mut c = Counts::default();
    let mut overhead_s = 0.0;
    for name in WORKLOADS {
        let mut bench = Bench::build(name, args.seed)?;
        let traced = one(&mut bench, &mut tr, &mut c)?;
        if name == args.workload {
            overhead_s = traced.pass_s[0] - untraced.pass_s[0];
        }
        tally.merge(traced.tally);
    }
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("trace-{}-seed{}.jsonl", args.workload, args.seed));
    tr.write_jsonl(&path)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!(
        "spans        {} written to {}",
        tr.spans().len(),
        path.display()
    );
    let metrics = layer_metrics(tr.spans(), &c, overhead_s);
    for (name, value, unit) in &metrics {
        println!("{name:<48} {value:>16.4} {unit}");
    }
    Ok((tally, metrics))
}

/// Per-layer metrics from the traced spans and the public counts.
fn layer_metrics(spans: &[trace::Span], c: &Counts, overhead_s: f64) -> Vec<Metric> {
    let ns = |name: &str| trace::name_total(spans, name).0 as f64;
    let mean_ms = |name: &str| {
        let (total, calls) = trace::name_total(spans, name);
        total as f64 / 1e6 / calls.max(1) as f64
    };
    let per = |name: &str, n: u64| ns(name) / n.max(1) as f64;
    let ratio = |a: u64, b: u64| a as f64 / b.max(1) as f64;
    let mut m: Vec<Metric> = vec![
        (
            "sim.engine.step_ns_per_block".into(),
            per("sim.engine.step", c.engine_blocks),
            "ns",
        ),
        (
            "sim.engine.finalize_ms".into(),
            mean_ms("sim.engine.finalize"),
            "ms",
        ),
        (
            "chain.forkchoice.longest_chain_ns_per_block".into(),
            per("chain.forkchoice.longest_chain", c.chain_tree_blocks),
            "ns",
        ),
        (
            "chain.classify.uncle_events_ns_per_block".into(),
            per("chain.classify.uncle_events", c.chain_tree_blocks),
            "ns",
        ),
        (
            "chain.accounting.account_ns_per_block".into(),
            per("chain.accounting.account", c.chain_tree_blocks),
            "ns",
        ),
        (
            "mdp.policy.decide_ns".into(),
            per("mdp.policy.decide", c.decide_calls),
            "ns",
        ),
        (
            "sim.delay.run_ns_per_block".into(),
            per("sim.delay.run", c.delay_blocks),
            "ns",
        ),
        (
            "net.propagate_ns".into(),
            per("net.propagate", c.propagate_calls),
            "ns",
        ),
        (
            "mdp.solver.solve_ms".into(),
            mean_ms("mdp.solver.solve_with_cache"),
            "ms",
        ),
        (
            "mdp.solver.ns_per_state_sweep".into(),
            per("mdp.solver.solve_with_cache", c.solver_state_sweeps),
            "ns",
        ),
        (
            "core.excess_revenue_ms".into(),
            mean_ms("core.excess_revenue"),
            "ms",
        ),
        (
            "core.chain_model.build_ms".into(),
            mean_ms("core.chain_model.build_dtmc"),
            "ms",
        ),
        (
            "markov.stationary_ms".into(),
            mean_ms("markov.stationary"),
            "ms",
        ),
        (
            "markov.spmv_ns_per_nnz".into(),
            per("markov.spmv", c.spmv_nnz),
            "ns",
        ),
        ("chain.blocks".into(), c.chain_blocks as f64, "count"),
        (
            "chain.uncle_refs".into(),
            c.chain_uncle_refs as f64,
            "count",
        ),
        (
            "chain.uncle_ref_frac".into(),
            ratio(c.chain_uncle_refs, c.chain_blocks),
            "ratio",
        ),
        ("net.gossip_sends".into(), c.gossip_sends as f64, "count"),
        (
            "net.gossip_dedup_drops".into(),
            c.gossip_dedup_drops as f64,
            "count",
        ),
        (
            "net.gossip_loss_retries".into(),
            c.gossip_loss_retries as f64,
            "count",
        ),
        ("net.relay_hops".into(), c.relay_hops as f64, "count"),
        (
            "net.dedup_frac".into(),
            ratio(c.gossip_dedup_drops, c.gossip_sends),
            "ratio",
        ),
        ("sim.delay.deliveries".into(), c.deliveries as f64, "count"),
        (
            "sim.delay.orphan_blocks".into(),
            c.orphan_blocks as f64,
            "count",
        ),
        ("mdp.solver.sweeps".into(), c.solver_sweeps as f64, "count"),
        (
            "mdp.solver.bisections".into(),
            c.solver_bisections as f64,
            "count",
        ),
        ("mdp.solver.states".into(), c.solver_states as f64, "count"),
        (
            "mdp.solver.warm_start_hit_rate".into(),
            ratio(c.warm_start_hits, c.warm_start_iterates),
            "ratio",
        ),
    ];
    for (layer, own) in trace::layer_self_ns(spans) {
        m.push((format!("{layer}.self_ms"), own as f64 / 1e6, "ms"));
    }
    m.push(("trace.overhead_s".into(), overhead_s, "s"));
    m.push(("trace.spans".into(), spans.len() as f64, "count"));
    m
}

/// `--workload all`: each workload in a process of its own, one after the
/// other, so `peak_rss_mb` is that workload's alone. Fails if any fails.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("cannot locate the benchmark binary: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for name in WORKLOADS {
        let status = Command::new(&exe)
            .args(["--workload", name])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .status();
        ok &= status.is_ok_and(|s| s.success());
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("usage: --workload <name|all> --seed <n> --seconds <s> --trace <0|1>: {e}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&args);
    }
    host_line(&args);
    let result = if args.trace {
        run_traced(&args)
    } else {
        run_untraced(&args)
    };
    match result {
        Ok((tally, metrics)) => {
            println!("{}", json_line(tally, &metrics));
            if tally.all_passed() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("benchmark set-up failed: {e}");
            ExitCode::FAILURE
        }
    }
}
