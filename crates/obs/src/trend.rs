//! Perf-trajectory evaluation over the `BENCH_history.jsonl` ledger.
//!
//! The `bench_gates` bin appends one snapshot row per run — git sha,
//! host fingerprint, headline metrics — to `results/BENCH_history.jsonl`
//! (older rows from the retired `bench_sim`/`bench_net`/`bench_solver`
//! bins stay in the ledger and are evaluated per bin the same way).
//! This module parses those rows and evaluates the **trend**: for every
//! bin, the latest row is compared against the previous row from a
//! *comparable host* (same OS, architecture and `available_parallelism` —
//! cross-host deltas are meaningless), metric by metric, under a
//! noise-aware relative band.  Metrics are classified by name convention:
//!
//! * **higher is better**: names containing `per_sec`, `ratio` or
//!   `speedup`;
//! * **lower is better**: names ending in `_s`, `_ms`, `_ns` or
//!   containing `seconds`;
//! * anything else is informational and never gates.
//!
//! The default band factor is 1.5 (a metric must degrade by more than
//! 50% relative to the previous comparable row to trip the gate): the
//! bins already report best-of-N timings, and the 1-CPU CI box still
//! jitters by tens of percent, while a genuine 2× regression clears the
//! band decisively.  Override with `SELETH_TREND_BAND` (a float > 1) at
//! the `perf_report --trend` layer.

use std::fmt::Write as _;

use crate::json::{parse_json, JsonError, JsonValue};

/// One parsed row of the history ledger.
#[derive(Debug, Clone, PartialEq)]
pub struct TrendRow {
    /// Which bench bin produced the row (`bench_gates`).
    pub bin: String,
    /// Git commit the workspace was at (or `"unknown"`).
    pub git_sha: String,
    /// Seconds since the Unix epoch at append time.
    pub unix_time: u64,
    /// Host comparability key, e.g. `linux/x86_64/p1`.
    pub host: String,
    /// Headline metrics, in ledger order.
    pub metrics: Vec<(String, f64)>,
}

/// Parse a JSON-lines history ledger.  Blank lines are skipped; rows
/// missing `bin` or `metrics` are ignored (forward compatibility), but a
/// line that is not valid JSON is an error.
///
/// # Errors
/// Returns the first [`JsonError`] from an unparseable line.
pub fn parse_history(text: &str) -> Result<Vec<TrendRow>, JsonError> {
    let mut rows = Vec::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let doc = parse_json(line)?;
        let Some(bin) = doc.get("bin").and_then(JsonValue::as_str) else {
            continue;
        };
        let Some(metrics_obj) = doc.get("metrics").and_then(JsonValue::as_object) else {
            continue;
        };
        let host = doc.get("host").map_or_else(
            || "unknown".to_string(),
            |h| {
                format!(
                    "{}/{}/p{:.0}",
                    h.get("os").and_then(JsonValue::as_str).unwrap_or("?"),
                    h.get("arch").and_then(JsonValue::as_str).unwrap_or("?"),
                    h.get("available_parallelism")
                        .and_then(JsonValue::as_f64)
                        .unwrap_or(0.0)
                )
            },
        );
        let metrics = metrics_obj
            .iter()
            .filter_map(|(k, v)| v.as_f64().map(|x| (k.clone(), x)))
            .collect();
        rows.push(TrendRow {
            bin: bin.to_string(),
            git_sha: doc
                .get("git_sha")
                .and_then(JsonValue::as_str)
                .unwrap_or("unknown")
                .to_string(),
            unix_time: doc
                .get("unix_time")
                .and_then(JsonValue::as_f64)
                .unwrap_or(0.0) as u64,
            host,
            metrics,
        });
    }
    Ok(rows)
}

/// How a metric's direction is judged, by name convention.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Larger values are better (throughputs, ratios, speedups).
    HigherBetter,
    /// Smaller values are better (timings).
    LowerBetter,
    /// Not gated; reported for information only.
    Informational,
}

/// Classify a metric name into a gating direction.
#[must_use]
pub fn direction_of(name: &str) -> Direction {
    if name.contains("per_sec") || name.contains("ratio") || name.contains("speedup") {
        Direction::HigherBetter
    } else if name.ends_with("_s")
        || name.ends_with("_ms")
        || name.ends_with("_ns")
        || name.contains("seconds")
    {
        Direction::LowerBetter
    } else {
        Direction::Informational
    }
}

/// The outcome of a trend evaluation.
#[derive(Debug, Clone, PartialEq)]
pub struct TrendReport {
    /// Human-readable report, one line per compared metric.
    pub rendered: String,
    /// One entry per regressed metric (`bin metric old new`); empty means
    /// the gate passes.
    pub regressions: Vec<String>,
    /// Number of (bin, metric) pairs actually compared.
    pub compared: usize,
}

impl TrendReport {
    /// `true` if no compared metric regressed beyond the band.
    #[must_use]
    pub fn passed(&self) -> bool {
        self.regressions.is_empty()
    }
}

/// Evaluate the perf trend over parsed ledger rows.
///
/// For each bin, the latest row is compared to the most recent *earlier*
/// row with the same host key.  A gated metric regresses when it is worse
/// than the baseline by more than the relative `band` factor (e.g. 1.5 =
/// 50% slack): lower-better metrics fail at `new > old * band`,
/// higher-better at `new * band < old`.  Bins or hosts with fewer than
/// two rows are reported but never gate (the first run seeds the ledger).
#[must_use]
pub fn evaluate_trend(rows: &[TrendRow], band: f64) -> TrendReport {
    let band = if band > 1.0 { band } else { 1.5 };
    let mut rendered = String::new();
    let mut regressions = Vec::new();
    let mut compared = 0usize;

    // Latest row per bin, in first-appearance bin order.
    let mut bins: Vec<&str> = Vec::new();
    for row in rows {
        if !bins.contains(&row.bin.as_str()) {
            bins.push(&row.bin);
        }
    }
    for bin in bins {
        let Some(latest) = rows.iter().rev().find(|r| r.bin == bin) else {
            continue;
        };
        let baseline = rows
            .iter()
            .rev()
            .skip_while(|r| !std::ptr::eq(*r, latest))
            .skip(1)
            .find(|r| r.bin == bin && r.host == latest.host);
        let sha: String = latest.git_sha.chars().take(12).collect();
        let _ = writeln!(rendered, "== {bin} @ {sha} (host {}) ==", latest.host);
        let Some(base) = baseline else {
            let _ = writeln!(rendered, "  (no earlier comparable-host row; seeding)");
            continue;
        };
        for (name, new) in &latest.metrics {
            let Some((_, old)) = base.metrics.iter().find(|(k, _)| k == name) else {
                continue;
            };
            let dir = direction_of(name);
            let (gated, regressed) = match dir {
                Direction::LowerBetter => (true, *new > old * band),
                Direction::HigherBetter => (true, new * band < *old),
                Direction::Informational => (false, false),
            };
            if gated {
                compared += 1;
            }
            let delta = if *old != 0.0 {
                100.0 * (new - old) / old.abs()
            } else {
                0.0
            };
            let verdict = if regressed {
                "REGRESSION"
            } else if gated {
                "ok"
            } else {
                "info"
            };
            let _ = writeln!(
                rendered,
                "  {name:<32} {old:>14.4} -> {new:>14.4}  {delta:>+7.1}%  {verdict}"
            );
            if regressed {
                regressions.push(format!("{bin} {name} {old} -> {new}"));
            }
        }
    }
    if rows.is_empty() {
        let _ = writeln!(rendered, "(empty ledger)");
    }
    TrendReport {
        rendered,
        regressions,
        compared,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(bin: &str, t: u64, metrics: &[(&str, f64)]) -> TrendRow {
        TrendRow {
            bin: bin.to_string(),
            git_sha: "deadbeef".to_string(),
            unix_time: t,
            host: "linux/x86_64/p1".to_string(),
            metrics: metrics.iter().map(|(k, v)| (k.to_string(), *v)).collect(),
        }
    }

    #[test]
    fn direction_conventions() {
        assert_eq!(direction_of("blocks_per_sec"), Direction::HigherBetter);
        assert_eq!(direction_of("noop_overhead_ratio"), Direction::HigherBetter);
        assert_eq!(direction_of("speedup_t8"), Direction::HigherBetter);
        assert_eq!(direction_of("cold_solve_s"), Direction::LowerBetter);
        assert_eq!(direction_of("sweep_ms"), Direction::LowerBetter);
        assert_eq!(direction_of("queue_wait_ns"), Direction::LowerBetter);
        assert_eq!(direction_of("runs"), Direction::Informational);
    }

    #[test]
    fn parses_ledger_lines_and_skips_blanks() {
        let text = concat!(
            r#"{"bin": "bench_sim", "git_sha": "abc", "unix_time": 100, "#,
            r#""host": {"os": "linux", "arch": "x86_64", "available_parallelism": 1}, "#,
            r#""metrics": {"blocks_per_sec": 10.0}}"#,
            "\n\n",
            r#"{"bin": "bench_solver", "metrics": {"cold_solve_s": 2.0}}"#,
            "\n"
        );
        let rows = parse_history(text).expect("valid ledger");
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].bin, "bench_sim");
        assert_eq!(rows[0].host, "linux/x86_64/p1");
        assert_eq!(rows[0].metrics, vec![("blocks_per_sec".to_string(), 10.0)]);
        assert_eq!(rows[1].host, "unknown");
        assert!(parse_history("{not json").is_err());
    }

    #[test]
    fn single_row_seeds_without_gating() {
        let rows = vec![row("bench_sim", 1, &[("blocks_per_sec", 10.0)])];
        let r = evaluate_trend(&rows, 1.5);
        assert!(r.passed());
        assert_eq!(r.compared, 0);
        assert!(r.rendered.contains("seeding"));
    }

    #[test]
    fn clean_back_to_back_rows_pass() {
        let rows = vec![
            row("bench_sim", 1, &[("blocks_per_sec", 10.0), ("cold_s", 2.0)]),
            row("bench_sim", 2, &[("blocks_per_sec", 9.1), ("cold_s", 2.2)]),
        ];
        let r = evaluate_trend(&rows, 1.5);
        assert!(r.passed(), "{}", r.rendered);
        assert_eq!(r.compared, 2);
    }

    #[test]
    fn synthetic_two_x_slowdown_fails_both_directions() {
        let rows = vec![
            row("bench_sim", 1, &[("blocks_per_sec", 10.0)]),
            row("bench_sim", 2, &[("blocks_per_sec", 4.9)]),
        ];
        let r = evaluate_trend(&rows, 1.5);
        assert!(!r.passed());
        assert!(r.rendered.contains("REGRESSION"));

        let rows = vec![
            row("bench_solver", 1, &[("cold_solve_s", 2.0)]),
            row("bench_solver", 2, &[("cold_solve_s", 4.0)]),
        ];
        let r = evaluate_trend(&rows, 1.5);
        assert_eq!(r.regressions.len(), 1);
        assert!(r.regressions[0].contains("cold_solve_s"));
    }

    #[test]
    fn cross_host_rows_never_compare() {
        let mut other = row("bench_sim", 1, &[("blocks_per_sec", 100.0)]);
        other.host = "linux/x86_64/p64".to_string();
        let rows = vec![other, row("bench_sim", 2, &[("blocks_per_sec", 10.0)])];
        let r = evaluate_trend(&rows, 1.5);
        assert!(r.passed(), "{}", r.rendered);
        assert_eq!(r.compared, 0);
    }

    #[test]
    fn informational_metrics_never_gate() {
        let rows = vec![
            row("bench_sim", 1, &[("runs", 64.0)]),
            row("bench_sim", 2, &[("runs", 1.0)]),
        ];
        let r = evaluate_trend(&rows, 1.5);
        assert!(r.passed());
        assert!(r.rendered.contains("info"));
    }

    #[test]
    fn non_ascii_sha_renders_without_panicking() {
        // The 12-byte cut of this sha falls inside the two-byte 'é'.
        let rows = parse_history(
            r#"{"bin": "bench_gates", "git_sha": "abcdefghijkéxyz", "metrics": {"x_ms": 1.0}}"#,
        )
        .expect("valid ledger");
        let r = evaluate_trend(&rows, 1.5);
        assert!(r.passed());
        assert!(r.rendered.contains("== bench_gates @ abcdefghijké "));
    }

    #[test]
    fn latest_vs_most_recent_comparable_not_first() {
        let rows = vec![
            row("bench_sim", 1, &[("blocks_per_sec", 100.0)]),
            row("bench_sim", 2, &[("blocks_per_sec", 10.0)]),
            row("bench_sim", 3, &[("blocks_per_sec", 9.0)]),
        ];
        // vs row 2 (10.0) this passes; vs row 1 (100.0) it would fail.
        let r = evaluate_trend(&rows, 1.5);
        assert!(r.passed(), "{}", r.rendered);
    }
}
