//! Experiment harness for the reproduction of *Selfish Mining in Ethereum*
//! (Niu & Feng, ICDCS 2019).
//!
//! Each table and figure of the paper's evaluation has a dedicated binary
//! (run with `cargo run --release -p seleth-bench --bin <name>`):
//!
//! | Binary       | Reproduces |
//! |--------------|------------|
//! | `table1`     | Table I — reward types in Ethereum vs Bitcoin |
//! | `fig6`       | Fig. 6 — mining-pool hash-power shares (2018-09) |
//! | `stationary` | Fig. 7 / Eq. (2) — stationary-distribution self-check |
//! | `fig8`       | Fig. 8 — absolute revenue vs α, theory + simulation |
//! | `fig9`       | Fig. 9 — revenue under different uncle rewards |
//! | `fig10`      | Fig. 10 — profitability thresholds vs γ |
//! | `table2`     | Table II — honest uncle reference distances |
//! | `discussion` | Section VI — redesigned reward function thresholds |
//!
//! Extension experiments beyond the paper:
//!
//! | Binary        | What it studies |
//! |---------------|-----------------|
//! | `strategies`  | Honest vs Algorithm 1 vs Lead-Stubborn, all simulated |
//! | `optimal`     | MDP-optimal revenue vs Algorithm 1 (Bitcoin + Ethereum) |
//! | `optimal_sim` | Exported optimal policies replayed in the simulator, gated vs ρ* |
//! | `delay`       | Propagation-delay sensitivity of the simulator (all honest) |
//! | `optimal_delay` | Optimal artifacts replayed *under delay*: ρ* degradation study (`delay_study.json`) |
//! | `optimal_closed_loop` | Race-window (delay-aware) artifacts vs the zero-delay optimum under delay, gated (`optimal_closed_loop.json`) |
//! | `strategy_zoo` | Hand-written strategy families vs the optimum, incl. multi-strategist matchups (`zoo_study.json`; lives in `seleth-zoo`) |
//! | `chaos_study` | Strategic replay under injected faults: loss × churn × partition grid (`chaos_study.json`; lives in `seleth-zoo`) |
//! | `ablation_truncation` | Model-truncation bias ablation |
//! | `bench_gates` | Perf gates `perfbench` cannot express: overhead and lookup ratios, graph vs uniform, `run_many` and MDP scaling (`BENCH_gates.json`) |
//! | `perf_report` | Renders study telemetry ([`STUDIES`]) and gates the `BENCH_history.jsonl` trend |
//!
//! Binaries print the same rows/series the paper reports and write CSV
//! files under `results/` (override with `SELETH_RESULTS`). Their sweeps
//! parallelize through the workspace work queue,
//! [`seleth_obs::par_map_traced`]; this crate holds the shared output and
//! artifact plumbing, and [`report`] holds the replay runner and study
//! driver every delay-study bin shares.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Library code must degrade with typed errors, never a panic, on
// untrusted input; invariant violations use `expect` with a message.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::panic))]

use std::fs;
use std::io::Write as _;
use std::path::PathBuf;
use std::time::Instant;

pub mod report;

/// Every committed study JSON under `results/` that carries a top-level
/// `"telemetry"` block: what `perf_report` renders when no file is named.
pub const STUDIES: [&str; 7] = [
    "BENCH_gates.json",
    "optimal_sim.json",
    "delay_study.json",
    "optimal_closed_loop.json",
    "zoo_study.json",
    "chaos_study.json",
    "topology_study.json",
];

/// Directory where experiment CSVs are written: `$SELETH_RESULTS` if set,
/// else `./results` relative to the current directory.
pub fn results_dir() -> PathBuf {
    std::env::var_os("SELETH_RESULTS").map_or_else(|| PathBuf::from("results"), PathBuf::from)
}

/// Directory holding exported policy artifacts: `$SELETH_POLICIES` if
/// set, else `policies/` inside [`results_dir`]. The override lets CI
/// redirect experiment *output* to a scratch directory while still
/// replaying the committed artifacts.
pub fn policies_dir() -> PathBuf {
    std::env::var_os("SELETH_POLICIES")
        .map_or_else(|| results_dir().join("policies"), PathBuf::from)
}

/// Load a policy artifact `<name>.json` from [`policies_dir`], or solve
/// it at `(alpha, gamma, rewards, max_len)` and save it when absent —
/// so experiment bins stay self-contained on fresh checkouts and scratch
/// `SELETH_POLICIES` directories. A cached file whose metadata disagrees
/// with the request (e.g. a committed default-truncation artifact under
/// a `SELETH_MDP_LEN` override — the truncation is not in the filename)
/// is re-solved rather than silently returned mislabeled; the existing
/// file is left untouched (only missing artifacts are written, so a
/// knob override can never clobber the committed set).
///
/// # Panics
///
/// Panics when the solve or the save fails: experiment binaries have no
/// recovery path.
pub fn load_or_solve_policy(
    name: &str,
    alpha: f64,
    gamma: f64,
    rewards: seleth_mdp::RewardModel,
    max_len: u32,
) -> seleth_mdp::PolicyTable {
    load_or_solve_policy_delay(name, alpha, gamma, rewards, max_len, 0.0)
}

/// [`load_or_solve_policy`] for delay-aware artifacts: the solve runs on
/// the race-window kernel at `delay_ratio` (propagation delay / mean
/// block interval; `0.0` is exactly the classic kernel) and a cached
/// file must additionally match the requested ratio to be returned.
///
/// # Panics
///
/// As [`load_or_solve_policy`].
pub fn load_or_solve_policy_delay(
    name: &str,
    alpha: f64,
    gamma: f64,
    rewards: seleth_mdp::RewardModel,
    max_len: u32,
    delay_ratio: f64,
) -> seleth_mdp::PolicyTable {
    let path = policies_dir().join(format!("{name}.json"));
    let mut save_solved = true;
    if let Ok(table) = seleth_mdp::PolicyTable::load(&path) {
        if table.alpha() == alpha
            && table.gamma() == gamma
            && table.rewards() == rewards
            && table.max_len() == max_len
            && table.delay() == delay_ratio
        {
            return table;
        }
        eprintln!("  (artifact {name} metadata disagrees with the request; re-solving)");
        save_solved = false;
    } else {
        eprintln!("  (artifact {name} missing; solving)");
    }
    let config = seleth_mdp::MdpConfig::new(alpha, gamma, rewards)
        .with_max_len(max_len)
        .with_delay_ratio(delay_ratio);
    let solution = config.solve().expect("mdp solve");
    let table = seleth_mdp::PolicyTable::from_solution(&config, &solution);
    if save_solved {
        table.save(&path).expect("save policy artifact");
    }
    table
}

/// Shortest-round-trip float formatting for hand-rolled JSON output (the
/// vendored serde is marker-only), matching the policy-artifact format.
pub fn json_f64(v: f64) -> String {
    format!("{v}")
}

/// `values` as the body of a JSON number list: [`json_f64`] of each,
/// comma-separated.
pub fn json_f64_list(values: &[f64]) -> String {
    let items: Vec<String> = values.iter().map(|v| json_f64(*v)).collect();
    items.join(", ")
}

/// The host fingerprint block shared by every perf artifact:
/// `BENCH_gates.json` embeds it as its `"host"` field and
/// [`append_history_row`] stamps it into every ledger row, so the trend
/// gate can restrict comparisons to rows from a comparable machine
/// (`os`/`arch`/`available_parallelism` — the axes that move the
/// headline numbers).
pub fn host_fingerprint_json() -> String {
    format!(
        "{{\"os\": \"{}\", \"arch\": \"{}\", \"available_parallelism\": {}}}",
        std::env::consts::OS,
        std::env::consts::ARCH,
        seleth_obs::resolve_threads(0)
    )
}

/// The checked-out commit's sha as `git rev-parse HEAD` reports it, with
/// a `-dirty` suffix when `git status` lists a change to a tracked file,
/// so a row measured before its change is committed does not carry its
/// parent's sha; `"unknown"` when `git` cannot run here (no `git`, or not
/// inside a checkout).
pub fn git_sha() -> String {
    let git = |args: &[&str]| {
        let out = std::process::Command::new("git").args(args).output().ok()?;
        out.status
            .success()
            .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
    };
    match (
        git(&["rev-parse", "HEAD"]),
        git(&["status", "--porcelain", "--untracked-files=no"]),
    ) {
        (Some(sha), Some(status)) if status.is_empty() => sha,
        (Some(sha), Some(_)) => format!("{sha}-dirty"),
        _ => "unknown".to_string(),
    }
}

/// Append one perf-trajectory snapshot row for `bin` to
/// `BENCH_history.jsonl` in [`results_dir`]: git sha, Unix timestamp, the
/// [`host_fingerprint_json`] block and the headline `metrics`. One row per
/// bench run — the ledger the `perf_report --trend` gate walks.
///
/// # Panics
///
/// Panics on I/O failure: experiment binaries have no recovery path.
pub fn append_history_row(bin: &str, metrics: &[(&str, f64)]) -> PathBuf {
    let dir = results_dir();
    fs::create_dir_all(&dir).expect("create results directory");
    let path = dir.join("BENCH_history.jsonl");
    let unix_time = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let metrics_json: Vec<String> = metrics
        .iter()
        .map(|(k, v)| format!("\"{k}\": {}", json_f64(*v)))
        .collect();
    let row = format!(
        "{{\"bin\": \"{bin}\", \"git_sha\": \"{}\", \"unix_time\": {unix_time}, \
         \"host\": {}, \"metrics\": {{{}}}}}\n",
        git_sha(),
        host_fingerprint_json(),
        metrics_json.join(", ")
    );
    let mut file = fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
        .expect("open BENCH_history.jsonl");
    file.write_all(row.as_bytes()).expect("append history row");
    path
}

/// The metrics of one perfbench run, from its captured output: the last
/// line that starts with `{` is perfbench's JSON summary
/// (`{"correct": …, "attempted": …, "failed": …, "metrics": {name:
/// {"value": …, "unit": …}}}`), and each metric comes back as
/// `(name, value)` under perfbench's own name.
///
/// # Errors
///
/// A message when there is no such line, it is not valid JSON, the run
/// is not `correct: true` with `failed: 0`, or it carries no numeric
/// metric: a failed or partial run must not enter the ledger.
pub fn perfbench_metrics(output: &str) -> Result<Vec<(String, f64)>, String> {
    let line = output
        .lines()
        .rev()
        .map(str::trim)
        .find(|l| l.starts_with('{'))
        .ok_or("no JSON line in the perfbench output")?;
    let doc = seleth_obs::parse_json(line).map_err(|e| format!("perfbench JSON: {e}"))?;
    if doc.get("correct") != Some(&seleth_obs::JsonValue::Bool(true)) {
        return Err("the run is not marked correct".into());
    }
    match doc.get("failed").and_then(seleth_obs::JsonValue::as_u64) {
        Some(0) => {}
        Some(n) => return Err(format!("{n} ops failed")),
        None => return Err("the run does not report `failed`".into()),
    }
    let metrics: Vec<(String, f64)> = doc
        .get("metrics")
        .and_then(seleth_obs::JsonValue::as_object)
        .ok_or("the run carries no `metrics` object")?
        .iter()
        .map(|(name, m)| {
            m.get("value")
                .and_then(seleth_obs::JsonValue::as_f64)
                .map(|v| (name.clone(), v))
                .ok_or_else(|| format!("metric {name} has no numeric value"))
        })
        .collect::<Result<_, _>>()?;
    if metrics.is_empty() {
        return Err("the run carries no metrics".into());
    }
    Ok(metrics)
}

/// Write a text file (e.g. hand-rolled JSON) into [`results_dir`],
/// creating the directory if needed.
///
/// # Panics
///
/// Panics on I/O failure: experiment binaries have no recovery path and a
/// loud failure beats silently missing output.
pub fn write_text(name: &str, contents: &str) -> PathBuf {
    let dir = results_dir();
    fs::create_dir_all(&dir).expect("create results directory");
    let path = dir.join(name);
    fs::write(&path, contents).expect("write results file");
    path
}

/// Write a CSV file into [`results_dir`], creating the directory if needed.
///
/// # Panics
///
/// Panics on I/O failure: experiment binaries have no recovery path and a
/// loud failure beats silently missing output.
pub fn write_csv(name: &str, header: &[&str], rows: &[Vec<String>]) -> PathBuf {
    let dir = results_dir();
    fs::create_dir_all(&dir).expect("create results directory");
    let path = dir.join(name);
    let mut file = fs::File::create(&path).expect("create CSV file");
    writeln!(file, "{}", header.join(",")).expect("write CSV header");
    for row in rows {
        writeln!(file, "{}", row.join(",")).expect("write CSV row");
    }
    path
}

/// Read an integer experiment knob from the environment, falling back to
/// `default` when unset or unparsable.
pub fn env_u64(key: &str, default: u64) -> u64 {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Run `f` `reps` times (at least once) and return the fastest wall time
/// in seconds with the value from that repetition, so timing carried in
/// the value (per-worker busy time, say) lines up with the reported time.
pub fn best_of<T>(reps: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut best = f64::INFINITY;
    let mut out = None;
    for _ in 0..reps.max(1) {
        let start = Instant::now();
        let value = f();
        let elapsed = start.elapsed().as_secs_f64();
        if elapsed < best {
            best = elapsed;
            out = Some(value);
        }
    }
    (best, out.expect("at least one repetition"))
}

/// Inclusive floating-point range with a fixed step, robust to rounding
/// (e.g. `sweep(0.0, 0.45, 0.025)` yields 19 points ending exactly at 0.45).
pub fn sweep(start: f64, end: f64, step: f64) -> Vec<f64> {
    assert!(step > 0.0, "step must be positive");
    let n = ((end - start) / step).round() as usize;
    (0..=n).map(|k| start + k as f64 * step).collect()
}

/// Render a row of f64 cells to CSV strings with 6 significant digits.
pub fn cells(values: &[f64]) -> Vec<String> {
    values.iter().map(|v| format!("{v:.6}")).collect()
}

/// Sample mean and standard error of the mean — the `(mean, std_err)`
/// pair every multi-run experiment gate is phrased in. Zero standard
/// error for fewer than two samples.
pub fn mean_stderr(values: &[f64]) -> (f64, f64) {
    if values.is_empty() {
        return (0.0, 0.0);
    }
    let n = values.len() as f64;
    let mean = values.iter().sum::<f64>() / n;
    let var = if values.len() > 1 {
        values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / (n - 1.0)
    } else {
        0.0
    };
    (mean, (var / n).sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_endpoints_exact() {
        let s = sweep(0.0, 0.45, 0.025);
        assert_eq!(s.len(), 19);
        assert_eq!(s[0], 0.0);
        assert!((s[18] - 0.45).abs() < 1e-12);
    }

    #[test]
    fn sweep_single_point() {
        assert_eq!(sweep(0.5, 0.5, 0.1), vec![0.5]);
    }

    #[test]
    fn mean_stderr_matches_hand_computation() {
        assert_eq!(mean_stderr(&[]), (0.0, 0.0));
        assert_eq!(mean_stderr(&[3.0]), (3.0, 0.0));
        let (mean, se) = mean_stderr(&[1.0, 2.0, 3.0, 4.0]);
        assert!((mean - 2.5).abs() < 1e-12);
        // Sample variance 5/3; standard error sqrt(5/12).
        assert!((se - (5.0f64 / 12.0).sqrt()).abs() < 1e-12);
    }

    /// Serializes the tests that mutate `SELETH_*` environment variables.
    static ENV_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn text_files_land_in_results() {
        let _guard = ENV_LOCK.lock().unwrap();
        let dir = std::env::temp_dir().join("seleth-bench-text-test");
        std::env::set_var("SELETH_RESULTS", &dir);
        let path = write_text("t.json", "{\"ok\": true}\n");
        let content = std::fs::read_to_string(path).unwrap();
        assert_eq!(content, "{\"ok\": true}\n");
        // Policies default to a subdirectory of the results dir...
        assert_eq!(policies_dir(), dir.join("policies"));
        // ...unless explicitly redirected.
        std::env::set_var("SELETH_POLICIES", "/tmp/elsewhere");
        assert_eq!(policies_dir(), PathBuf::from("/tmp/elsewhere"));
        std::env::remove_var("SELETH_POLICIES");
        std::env::remove_var("SELETH_RESULTS");
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn history_rows_round_trip_through_the_trend_parser() {
        let _guard = ENV_LOCK.lock().unwrap();
        let dir = std::env::temp_dir().join("seleth-bench-history-test");
        let _ = std::fs::remove_dir_all(&dir);
        std::env::set_var("SELETH_RESULTS", &dir);
        let path = append_history_row(
            "bench_sim",
            &[
                ("single_run_blocks_per_sec", 1.0e6),
                ("single_run_ms", 200.0),
            ],
        );
        append_history_row(
            "bench_sim",
            &[
                ("single_run_blocks_per_sec", 1.05e6),
                ("single_run_ms", 190.0),
            ],
        );
        std::env::remove_var("SELETH_RESULTS");
        let text = std::fs::read_to_string(&path).unwrap();
        let rows = seleth_obs::parse_history(&text).unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].bin, "bench_sim");
        // Both rows carry this host's fingerprint, so they are comparable.
        assert_eq!(rows[0].host, rows[1].host);
        assert!(rows[0].host.contains(std::env::consts::ARCH));
        let report = seleth_obs::evaluate_trend(&rows, 1.5);
        assert!(report.passed(), "{}", report.rendered);
        assert_eq!(
            report.compared, 2,
            "both metrics of the bench_sim pair compare"
        );
        let _ = std::fs::remove_dir_all(dir);
    }

    /// A perfbench summary line with the given verdict fields.
    fn perfbench_line(correct: bool, failed: u64) -> String {
        format!(
            "{{\"correct\": {correct}, \"attempted\": 121, \"failed\": {failed}, \
             \"metrics\": {{\"setup_s\": {{\"value\": 0.0026, \"unit\": \"s\"}}, \
             \"op_ms_p90\": {{\"value\": 12.5, \"unit\": \"ms\"}}, \
             \"peak_rss_mb\": {{\"value\": 4.4, \"unit\": \"MB\"}}}}}}"
        )
    }

    #[test]
    fn perfbench_metrics_reads_the_last_json_line() {
        let output = format!(
            "workload gossip_graph seed 0\nop_ms_p90    12.500 ms\n{}\n\n",
            perfbench_line(true, 0)
        );
        let metrics = perfbench_metrics(&output).unwrap();
        assert_eq!(
            metrics,
            vec![
                ("op_ms_p90".to_string(), 12.5),
                ("peak_rss_mb".to_string(), 4.4),
                ("setup_s".to_string(), 0.0026),
            ]
        );
        // An earlier JSON line is ignored: only the last one counts.
        let two = format!("{}\n{}", perfbench_line(true, 3), perfbench_line(true, 0));
        assert!(perfbench_metrics(&two).is_ok());
    }

    #[test]
    fn perfbench_metrics_refuses_failed_or_malformed_runs() {
        let err = |text: &str| perfbench_metrics(text).unwrap_err();
        assert!(err(&perfbench_line(false, 0)).contains("not marked correct"));
        assert!(err(&perfbench_line(true, 2)).contains("2 ops failed"));
        assert!(err("op_ms_p90 12.5 ms\n").contains("no JSON line"));
        assert!(err("{not json").contains("perfbench JSON"));
        assert!(err(r#"{"correct": true, "metrics": {}}"#).contains("`failed`"));
        assert!(err(r#"{"correct": true, "failed": 0}"#).contains("`metrics`"));
        assert!(err(r#"{"correct": true, "failed": 0, "metrics": {}}"#).contains("no metrics"));
        assert!(err(r#"{"correct": true, "failed": 0, "metrics": {"x_ms": {}}}"#).contains("x_ms"));
    }

    #[test]
    fn ingested_perfbench_rows_gate_op_ms_p90() {
        let _guard = ENV_LOCK.lock().unwrap();
        let dir = std::env::temp_dir().join("seleth-bench-ingest-test");
        let _ = std::fs::remove_dir_all(&dir);
        std::env::set_var("SELETH_RESULTS", &dir);
        let row = |p90: f64, rss: f64| {
            let metrics = [
                ("op_ms_p90", p90),
                ("peak_rss_mb", rss),
                ("setup_s", 0.0026),
            ];
            append_history_row("perfbench_gossip_graph", &metrics)
        };
        row(12.0, 4.0);
        let path = row(30.0, 40.0);
        std::env::remove_var("SELETH_RESULTS");
        let rows = seleth_obs::parse_history(&std::fs::read_to_string(&path).unwrap()).unwrap();
        let report = seleth_obs::evaluate_trend(&rows, 1.5);
        // `op_ms_p90` and `setup_s` gate; `peak_rss_mb` is informational,
        // so its tenfold rise alone would not fail the gate.
        assert_eq!(report.compared, 2, "{}", report.rendered);
        assert_eq!(report.regressions.len(), 1, "{}", report.rendered);
        assert!(report.regressions[0].contains("op_ms_p90"));
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn git_sha_reads_this_checkout() {
        let sha = git_sha();
        // This test runs inside the repository, so a real sha is expected:
        // 40 hex characters, marked `-dirty` in a tree with uncommitted
        // changes, stable across two reads.
        let hex = sha.strip_suffix("-dirty").unwrap_or(&sha);
        assert_eq!(hex.len(), 40, "sha: {sha}");
        assert!(hex.chars().all(|c| c.is_ascii_hexdigit()));
        assert_eq!(sha, git_sha());
    }

    #[test]
    fn csv_roundtrip() {
        let _guard = ENV_LOCK.lock().unwrap();
        let dir = std::env::temp_dir().join("seleth-bench-test");
        std::env::set_var("SELETH_RESULTS", &dir);
        let path = write_csv(
            "t.csv",
            &["a", "b"],
            &[cells(&[1.0, 2.0]), cells(&[3.5, 4.25])],
        );
        let content = std::fs::read_to_string(path).unwrap();
        assert!(content.starts_with("a,b\n"));
        assert!(content.contains("3.500000,4.250000"));
        std::env::remove_var("SELETH_RESULTS");
    }
}
