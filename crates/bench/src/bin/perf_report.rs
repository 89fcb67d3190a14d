//! Render a human-readable performance profile from study telemetry, and
//! gate the perf trajectory against the `BENCH_history.jsonl` ledger.
//!
//! Every study bin appends a `"telemetry"` block to its JSON output
//! (phases, per-worker utilization, deterministic counters, gauges,
//! histograms); `perf_report` turns those blocks back into a terminal
//! report via [`seleth_obs::render_profile`].
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p seleth-bench --bin perf_report [FILE ...]
//! cargo run --release -p seleth-bench --bin perf_report -- --trend [--smoke]
//! cargo run --release -p seleth-bench --bin perf_report -- --ingest <workload> <perfbench-output>
//! ```
//!
//! Without arguments, every study JSON of [`seleth_bench::STUDIES`]
//! found in the results directory (`SELETH_RESULTS` or `results/`) is
//! rendered; pre-telemetry artifacts degrade to a header plus a
//! "(no telemetry block recorded)" note. Exit code 1 if any rendered
//! file is unreadable or not valid JSON.
//!
//! `--trend` switches to the perf-trajectory gate: the latest
//! `BENCH_history.jsonl` row per bench bin is compared against the most
//! recent earlier row from a comparable host (same `os`/`arch`/
//! `available_parallelism` fingerprint), metric by metric, with a
//! noise-aware band (`SELETH_TREND_BAND`, default 1.5×: timings may grow
//! — and rates shrink — by up to 50% before the gate trips, absorbing
//! shared-runner jitter while catching real 2× cliffs). Exit code 1 on
//! any regression. `--smoke` additionally tolerates a missing or
//! single-row ledger (the first run on a fresh checkout is *seeding* the
//! trajectory, not regressing it); without `--smoke` a missing ledger is
//! an error so CI cannot silently skip the gate.
//!
//! `--ingest <workload> <perfbench-output>` feeds the ledger from
//! perfbench: it reads a file holding a perfbench run's printed output,
//! takes the JSON summary on its last JSON line and appends one
//! `perfbench_<workload>` row under perfbench's metric names
//! (`op_ms_p90`, `setup_s`, `peak_rss_mb`, or the per-layer names of a
//! `--trace 1` run). A run that is not `correct` or has failed ops is
//! refused with exit code 1 and appends nothing.

use std::path::PathBuf;

/// The noise band for `--trend`: `SELETH_TREND_BAND` (a factor > 1.0)
/// when set and parsable, else 1.5.
fn trend_band() -> f64 {
    std::env::var("SELETH_TREND_BAND")
        .ok()
        .and_then(|v| v.parse::<f64>().ok())
        .filter(|b| b.is_finite() && *b > 1.0)
        .unwrap_or(1.5)
}

/// The `--trend` mode: walk the history ledger, compare the latest row
/// per bin against its comparable-host baseline, exit 1 on regression.
fn run_trend(smoke: bool) -> ! {
    let path = seleth_bench::results_dir().join("BENCH_history.jsonl");
    let text = match std::fs::read_to_string(&path) {
        Ok(text) => text,
        Err(e) if smoke => {
            println!(
                "trend: no ledger at {} ({e}); first run seeds the trajectory — pass",
                path.display()
            );
            std::process::exit(0);
        }
        Err(e) => {
            eprintln!(
                "FAIL: read {}: {e} (run the bench bins first)",
                path.display()
            );
            std::process::exit(1);
        }
    };
    let rows = match seleth_obs::parse_history(&text) {
        Ok(rows) => rows,
        Err(e) => {
            eprintln!("FAIL: parse {}: {e}", path.display());
            std::process::exit(1);
        }
    };
    let report = seleth_obs::evaluate_trend(&rows, trend_band());
    print!("{}", report.rendered);
    if report.passed() {
        std::process::exit(0);
    }
    for r in &report.regressions {
        eprintln!("FAIL: {r}");
    }
    std::process::exit(1);
}

/// The `--ingest` mode: append one `perfbench_<workload>` ledger row
/// from the perfbench output in `file`; exit 1 if the run is refused.
fn run_ingest(workload: Option<&String>, file: Option<&String>) -> ! {
    let (Some(workload), Some(file)) = (workload, file) else {
        eprintln!("usage: perf_report --ingest <workload> <perfbench-output>");
        std::process::exit(2);
    };
    // The name lands in a hand-written JSON string: keep it to a plain
    // identifier.
    if workload.is_empty()
        || !workload
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'_')
    {
        eprintln!("FAIL: workload name {workload:?} must be [A-Za-z0-9_]+");
        std::process::exit(1);
    }
    let metrics = std::fs::read_to_string(file)
        .map_err(|e| format!("read {file}: {e}"))
        .and_then(|text| seleth_bench::perfbench_metrics(&text));
    let metrics = match metrics {
        Ok(metrics) => metrics,
        Err(e) => {
            eprintln!("FAIL: {file}: {e}; nothing appended");
            std::process::exit(1);
        }
    };
    let named: Vec<(&str, f64)> = metrics.iter().map(|(k, v)| (k.as_str(), *v)).collect();
    let bin = format!("perfbench_{workload}");
    let path = seleth_bench::append_history_row(&bin, &named);
    println!(
        "ingest: {bin} row with {} metrics appended to {}",
        named.len(),
        path.display()
    );
    std::process::exit(0);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(i) = args.iter().position(|a| a == "--ingest") {
        run_ingest(args.get(i + 1), args.get(i + 2));
    }
    if args.iter().any(|a| a == "--trend") {
        let smoke = args.iter().any(|a| a == "--smoke");
        run_trend(smoke);
    }
    let named: Vec<PathBuf> = args.iter().map(PathBuf::from).collect();
    let paths = if named.is_empty() {
        let dir = seleth_bench::results_dir();
        let found: Vec<PathBuf> = seleth_bench::STUDIES
            .iter()
            .map(|name| dir.join(name))
            .filter(|p| p.is_file())
            .collect();
        if found.is_empty() {
            eprintln!("no study JSONs under {} and none named", dir.display());
            std::process::exit(1);
        }
        found
    } else {
        named
    };

    let mut failed = false;
    for path in &paths {
        let name = path.file_name().map_or_else(
            || path.display().to_string(),
            |n| n.to_string_lossy().into(),
        );
        let text = match std::fs::read_to_string(path) {
            Ok(text) => text,
            Err(e) => {
                eprintln!("FAIL: read {}: {e}", path.display());
                failed = true;
                continue;
            }
        };
        match seleth_obs::render_profile(&name, &text) {
            Ok(report) => print!("{report}"),
            Err(e) => {
                eprintln!("FAIL: {}: {e}", path.display());
                failed = true;
            }
        }
    }
    if failed {
        std::process::exit(1);
    }
}
