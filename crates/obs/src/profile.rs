//! Rendering of study telemetry into a human-readable profile.
//!
//! Used by the `perf_report` bin (and its round-trip test) to turn the
//! `"telemetry"` block of any study JSON into per-phase wall times,
//! per-worker utilization and hot-counter tables.

use std::fmt::Write as _;

use crate::json::{parse_json, JsonError, JsonValue};

/// Renders a human-readable profile from a study JSON document.
///
/// The document is parsed in full; every `"telemetry"` object found in the
/// tree (studies emit one at top level) is rendered as per-phase wall
/// times, a per-worker utilization table, hot counters sorted descending,
/// gauges, and histogram summaries.  A document without any telemetry
/// block still renders its header with a note, so the report degrades
/// gracefully on pre-telemetry artifacts.
///
/// # Errors
/// Returns a [`JsonError`] if `text` is not valid JSON.
pub fn render_profile(name: &str, text: &str) -> Result<String, JsonError> {
    let doc = parse_json(text)?;
    let mut out = String::new();
    let kind = doc
        .get("kind")
        .and_then(JsonValue::as_str)
        .unwrap_or("unknown");
    let _ = writeln!(out, "== {name} (kind: {kind}) ==");
    for key in ["generated_unix", "runs", "blocks", "format"] {
        if let Some(v) = doc.get(key) {
            match v {
                JsonValue::Number(n) => {
                    let _ = writeln!(out, "  {key}: {n}");
                }
                JsonValue::String(s) => {
                    let _ = writeln!(out, "  {key}: {s}");
                }
                _ => {}
            }
        }
    }
    let mut blocks = Vec::new();
    collect_telemetry("", &doc, &mut blocks);
    if blocks.is_empty() {
        let _ = writeln!(out, "  (no telemetry block recorded)");
        return Ok(out);
    }
    for (path, telemetry) in blocks {
        render_block(&mut out, &path, telemetry);
    }
    Ok(out)
}

/// Collects every `"telemetry"` object in the tree with its key path.
fn collect_telemetry<'a>(
    path: &str,
    node: &'a JsonValue,
    found: &mut Vec<(String, &'a JsonValue)>,
) {
    match node {
        JsonValue::Object(map) => {
            for (key, value) in map {
                let child = if path.is_empty() {
                    key.clone()
                } else {
                    format!("{path}.{key}")
                };
                if key == "telemetry" && value.as_object().is_some() {
                    found.push((child, value));
                } else {
                    collect_telemetry(&child, value, found);
                }
            }
        }
        JsonValue::Array(items) => {
            for (i, item) in items.iter().enumerate() {
                collect_telemetry(&format!("{path}[{i}]"), item, found);
            }
        }
        _ => {}
    }
}

fn num(v: Option<&JsonValue>) -> f64 {
    v.and_then(JsonValue::as_f64).unwrap_or(0.0)
}

fn render_block(out: &mut String, path: &str, telemetry: &JsonValue) {
    let _ = writeln!(out, "\n-- telemetry at {path} --");
    let wall_ms = num(telemetry.get("wall_ms"));
    let threads = num(telemetry.get("threads"));
    let _ = writeln!(out, "  wall: {wall_ms:.3} ms, threads: {threads:.0}");

    if let Some(phases) = telemetry.get("phases").and_then(JsonValue::as_array) {
        let _ = writeln!(out, "  phases:");
        for phase in phases {
            let name = phase.get("name").and_then(JsonValue::as_str).unwrap_or("?");
            let ms = num(phase.get("wall_ms"));
            let share = if wall_ms > 0.0 {
                100.0 * ms / wall_ms
            } else {
                0.0
            };
            let _ = writeln!(out, "    {name:<28} {ms:>12.3} ms  {share:>5.1}%");
        }
    }

    if let Some(workers) = telemetry.get("workers").and_then(JsonValue::as_array) {
        let _ = writeln!(
            out,
            "  workers:  id   tasks      busy_ms  queue_wait_ms  busy%  utilization"
        );
        for w in workers {
            let id = num(w.get("worker"));
            let tasks = num(w.get("tasks_claimed"));
            let busy = num(w.get("busy_ms"));
            let wait = num(w.get("queue_wait_ms"));
            let frac = num(w.get("busy_fraction"));
            let bar_len = (frac * 20.0).round().clamp(0.0, 20.0) as usize;
            let bar: String = "#".repeat(bar_len);
            let _ = writeln!(
                out,
                "           {id:>3} {tasks:>7.0} {busy:>12.3} {wait:>14.3} {:>5.1}  |{bar:<20}|",
                100.0 * frac
            );
        }
    }

    if let Some(counters) = telemetry.get("counters").and_then(JsonValue::as_object) {
        let mut rows: Vec<(&str, f64)> = counters
            .iter()
            .map(|(k, v)| (k.as_str(), num(Some(v))))
            .collect();
        rows.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
        let _ = writeln!(out, "  hot counters:");
        for (key, value) in rows {
            let _ = writeln!(out, "    {key:<36} {value:>16.0}");
        }
    }

    if let Some(gauges) = telemetry.get("gauges").and_then(JsonValue::as_object) {
        let _ = writeln!(out, "  gauges:");
        for (key, value) in gauges {
            let _ = writeln!(out, "    {key:<36} {:>16.4}", num(Some(value)));
        }
    }

    if let Some(hists) = telemetry.get("histograms").and_then(JsonValue::as_object) {
        let _ = writeln!(out, "  histograms:");
        for (key, h) in hists {
            let _ = writeln!(
                out,
                "    {key:<28} n={:<8.0} mean={:<10.3} p50={:<8.0} p99={:<8.0} max={:.0}",
                num(h.get("count")),
                num(h.get("mean")),
                num(h.get("p50")),
                num(h.get("p99")),
                num(h.get("max"))
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_document_without_telemetry() {
        let text = r#"{"kind": "seleth-delay-study", "runs": 6}"#;
        let report = render_profile("delay_study.json", text).unwrap();
        assert!(report.contains("seleth-delay-study"));
        assert!(report.contains("no telemetry block"));
    }

    #[test]
    fn renders_telemetry_tables() {
        let mut t = crate::Telemetry::new();
        t.wall_ns = 10_000_000;
        t.threads = 2;
        t.add("delay.drops", 42);
        t.set_gauge("host.parallelism", 1.0);
        t.add_phase("sweep", 9_000_000);
        let mut shard = crate::TelemetryShard::new(0);
        shard.tasks = 3;
        shard.busy_ns = 8_000_000;
        shard.queue_wait_ns = 1_000_000;
        t.fold_shard(&shard);
        let doc = format!(
            "{{\n  \"kind\": \"seleth-chaos-study\",\n  \"telemetry\": {}\n}}\n",
            t.to_json(2)
        );
        let report = render_profile("chaos_study.json", &doc).unwrap();
        assert!(report.contains("telemetry at telemetry"));
        assert!(report.contains("delay.drops"));
        assert!(report.contains("sweep"));
        assert!(report.contains("host.parallelism"));
        assert!(report.contains("|#"));
    }

    #[test]
    fn propagates_parse_errors() {
        assert!(render_profile("x", "{not json").is_err());
    }
}
