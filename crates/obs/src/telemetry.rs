//! Per-worker telemetry shards and their deterministic merge.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::json::escape_string;
use crate::metrics::Histogram;
use crate::sched::resolve_threads;

/// Telemetry accumulated by a single worker thread.
///
/// A shard is plain mutable state owned by one worker — no atomics, no
/// locks — so recording into it costs a handful of instructions.  Counters
/// and histogram buckets are `u64`s, which makes the merged totals
/// independent of how tasks were partitioned across workers: summing the
/// same per-task deltas in any grouping yields bit-identical results.
///
/// The wall-clock fields (`busy_ns`, `queue_wait_ns`) are measurement
/// artifacts of a particular run and carry no determinism guarantee.
#[derive(Debug, Clone, Default)]
pub struct TelemetryShard {
    /// Index of the worker that owns this shard.
    pub worker: usize,
    /// Number of tasks this worker claimed from the shared queue.
    pub tasks: u64,
    /// Wall-clock nanoseconds this worker spent executing tasks.
    pub busy_ns: u64,
    /// Wall-clock nanoseconds this worker spent between tasks (claiming
    /// work, waiting on the queue, thread startup).
    pub queue_wait_ns: u64,
    counters: BTreeMap<String, u64>,
    histograms: BTreeMap<String, Histogram>,
}

impl TelemetryShard {
    /// Creates an empty shard for worker `worker`.
    #[must_use]
    pub fn new(worker: usize) -> Self {
        Self {
            worker,
            ..Self::default()
        }
    }

    /// Adds `delta` to the named counter.
    #[inline]
    pub fn add(&mut self, key: &str, delta: u64) {
        if let Some(slot) = self.counters.get_mut(key) {
            *slot += delta;
        } else {
            self.counters.insert(key.to_string(), delta);
        }
    }

    /// Records one sample of the named distribution.
    #[inline]
    pub fn observe(&mut self, key: &str, value: u64) {
        if let Some(h) = self.histograms.get_mut(key) {
            h.observe(value);
        } else {
            let mut h = Histogram::new();
            h.observe(value);
            self.histograms.insert(key.to_string(), h);
        }
    }

    /// Records `n` identical samples of the named distribution at once
    /// (see [`Histogram::observe_n`]).
    #[inline]
    pub fn observe_n(&mut self, key: &str, value: u64, n: u64) {
        if n == 0 {
            return;
        }
        if let Some(h) = self.histograms.get_mut(key) {
            h.observe_n(value, n);
        } else {
            let mut h = Histogram::new();
            h.observe_n(value, n);
            self.histograms.insert(key.to_string(), h);
        }
    }

    /// Current value of the named counter (0 if never written).
    #[must_use]
    pub fn counter(&self, key: &str) -> u64 {
        self.counters.get(key).copied().unwrap_or(0)
    }

    /// Iterates counters in key order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, v)| (k.as_str(), *v))
    }
}

/// Per-worker summary retained after a merge.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WorkerStats {
    /// Worker index.
    pub worker: usize,
    /// Tasks the worker claimed.
    pub tasks: u64,
    /// Nanoseconds spent executing tasks.
    pub busy_ns: u64,
    /// Nanoseconds spent between tasks.
    pub queue_wait_ns: u64,
}

impl WorkerStats {
    /// Fraction of `wall_ns` this worker spent executing tasks.
    #[must_use]
    pub fn busy_fraction(&self, wall_ns: u64) -> f64 {
        if wall_ns == 0 {
            0.0
        } else {
            self.busy_ns as f64 / wall_ns as f64
        }
    }
}

/// Merged telemetry for one study phase or one parallel region.
///
/// Built either directly (single-threaded studies) or by merging per-worker
/// [`TelemetryShard`]s with [`Telemetry::merge_shards`].  Counter and
/// histogram totals from a merge are deterministic (see
/// [`TelemetryShard`]); `wall_ns`, phase timings and per-worker stats are
/// wall-clock measurements.
#[derive(Debug, Clone, Default)]
pub struct Telemetry {
    /// Wall-clock duration of the region this telemetry covers.
    pub wall_ns: u64,
    /// Worker threads used (0 = unknown / not a parallel region).
    pub threads: usize,
    phases: Vec<(String, u64)>,
    workers: Vec<WorkerStats>,
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histogram>,
}

impl Telemetry {
    /// Creates an empty telemetry summary.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Merges per-worker shards: counter and histogram totals are summed in
    /// key order (bit-identical for any partition of the same task set);
    /// per-worker busy/queue-wait stats are retained in worker order.
    #[must_use]
    pub fn merge_shards(shards: &[TelemetryShard]) -> Self {
        let mut merged = Self::new();
        merged.threads = shards.len();
        for shard in shards {
            merged.fold_shard(shard);
        }
        merged
    }

    /// Folds one worker shard into this summary (see
    /// [`Telemetry::merge_shards`]).
    pub fn fold_shard(&mut self, shard: &TelemetryShard) {
        self.workers.push(WorkerStats {
            worker: shard.worker,
            tasks: shard.tasks,
            busy_ns: shard.busy_ns,
            queue_wait_ns: shard.queue_wait_ns,
        });
        for (key, value) in &shard.counters {
            *self.counters.entry(key.clone()).or_insert(0) += value;
        }
        for (key, hist) in &shard.histograms {
            self.histograms.entry(key.clone()).or_default().merge(hist);
        }
    }

    /// Adds `delta` to the named counter.
    pub fn add(&mut self, key: &str, delta: u64) {
        *self.counters.entry(key.to_string()).or_insert(0) += delta;
    }

    /// Sets the named gauge.
    pub fn set_gauge(&mut self, key: &str, value: f64) {
        self.gauges.insert(key.to_string(), value);
    }

    /// Stamps the host's worker count, [`resolve_threads`]`(0)`, as
    /// `threads` and as the `host.available_parallelism` gauge.
    pub fn stamp_host(&mut self) {
        self.threads = resolve_threads(0);
        self.set_gauge("host.available_parallelism", self.threads as f64);
    }

    /// Records one sample of the named distribution.
    pub fn observe(&mut self, key: &str, value: u64) {
        self.histograms
            .entry(key.to_string())
            .or_default()
            .observe(value);
    }

    /// Appends a named phase with its wall-clock duration.
    pub fn add_phase(&mut self, name: &str, wall_ns: u64) {
        self.phases.push((name.to_string(), wall_ns));
    }

    /// Current value of the named counter (0 if never written).
    #[must_use]
    pub fn counter(&self, key: &str) -> u64 {
        self.counters.get(key).copied().unwrap_or(0)
    }

    /// Current value of the named gauge.
    #[must_use]
    pub fn gauge(&self, key: &str) -> Option<f64> {
        self.gauges.get(key).copied()
    }

    /// Iterates counters in key order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// The named histogram, if any samples were recorded.
    #[must_use]
    pub fn histogram(&self, key: &str) -> Option<&Histogram> {
        self.histograms.get(key)
    }

    /// Per-worker stats in worker order (empty if not a parallel region).
    #[must_use]
    pub fn workers(&self) -> &[WorkerStats] {
        &self.workers
    }

    /// Recorded phases in insertion order.
    #[must_use]
    pub fn phases(&self) -> &[(String, u64)] {
        &self.phases
    }

    /// Renders the telemetry as a JSON object (the value of a study's
    /// `"telemetry"` key).  `indent` is the number of spaces prefixed to
    /// the object's own lines; members are indented two further.
    #[must_use]
    pub fn to_json(&self, indent: usize) -> String {
        let pad = " ".repeat(indent);
        let inner = " ".repeat(indent + 2);
        let deep = " ".repeat(indent + 4);
        let mut parts: Vec<String> = Vec::new();
        parts.push(format!(
            "{inner}\"wall_ms\": {:.3}",
            self.wall_ns as f64 / 1.0e6
        ));
        parts.push(format!("{inner}\"threads\": {}", self.threads));
        if !self.phases.is_empty() {
            let rows: Vec<String> = self
                .phases
                .iter()
                .map(|(name, ns)| {
                    format!(
                        "{deep}{{\"name\": {}, \"wall_ms\": {:.3}}}",
                        escape_string(name),
                        *ns as f64 / 1.0e6
                    )
                })
                .collect();
            parts.push(format!(
                "{inner}\"phases\": [\n{}\n{inner}]",
                rows.join(",\n")
            ));
        }
        if !self.workers.is_empty() {
            let rows: Vec<String> = self
                .workers
                .iter()
                .map(|w| {
                    format!(
                        "{deep}{{\"worker\": {}, \"tasks_claimed\": {}, \"busy_ms\": {:.3}, \"queue_wait_ms\": {:.3}, \"busy_fraction\": {:.4}}}",
                        w.worker,
                        w.tasks,
                        w.busy_ns as f64 / 1.0e6,
                        w.queue_wait_ns as f64 / 1.0e6,
                        w.busy_fraction(self.wall_ns)
                    )
                })
                .collect();
            parts.push(format!(
                "{inner}\"workers\": [\n{}\n{inner}]",
                rows.join(",\n")
            ));
        }
        if !self.counters.is_empty() {
            let rows: Vec<String> = self
                .counters
                .iter()
                .map(|(k, v)| format!("{deep}{}: {v}", escape_string(k)))
                .collect();
            parts.push(format!(
                "{inner}\"counters\": {{\n{}\n{inner}}}",
                rows.join(",\n")
            ));
        }
        if !self.gauges.is_empty() {
            let rows: Vec<String> = self
                .gauges
                .iter()
                .map(|(k, v)| format!("{deep}{}: {v}", escape_string(k)))
                .collect();
            parts.push(format!(
                "{inner}\"gauges\": {{\n{}\n{inner}}}",
                rows.join(",\n")
            ));
        }
        if !self.histograms.is_empty() {
            let rows: Vec<String> = self
                .histograms
                .iter()
                .map(|(k, h)| {
                    format!(
                        "{deep}{}: {{\"count\": {}, \"sum\": {}, \"min\": {}, \"max\": {}, \"mean\": {:.3}, \"p50\": {}, \"p99\": {}}}",
                        escape_string(k),
                        h.count(),
                        h.sum(),
                        h.min(),
                        h.max(),
                        h.mean(),
                        h.quantile(0.5),
                        h.quantile(0.99)
                    )
                })
                .collect();
            parts.push(format!(
                "{inner}\"histograms\": {{\n{}\n{inner}}}",
                rows.join(",\n")
            ));
        }
        let mut out = String::from("{\n");
        out.push_str(&parts.join(",\n"));
        // Writing to a String cannot fail.
        let _ = write!(out, "\n{pad}}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shard_with(worker: usize, pairs: &[(&str, u64)]) -> TelemetryShard {
        let mut s = TelemetryShard::new(worker);
        for (k, v) in pairs {
            s.add(k, *v);
        }
        s
    }

    #[test]
    fn merge_is_partition_invariant() {
        // The same 6 task deltas split 1-way, 2-way, 3-way.
        let deltas = [3u64, 5, 7, 11, 13, 17];
        let splits: Vec<Vec<Vec<u64>>> = vec![
            vec![deltas.to_vec()],
            vec![deltas[..2].to_vec(), deltas[2..].to_vec()],
            vec![
                deltas[..1].to_vec(),
                deltas[1..4].to_vec(),
                deltas[4..].to_vec(),
            ],
        ];
        let mut totals = Vec::new();
        for split in splits {
            let shards: Vec<TelemetryShard> = split
                .iter()
                .enumerate()
                .map(|(w, chunk)| {
                    let mut s = TelemetryShard::new(w);
                    for d in chunk {
                        s.add("delay.drops", *d);
                        s.observe("delay.inbox", *d);
                    }
                    s
                })
                .collect();
            let merged = Telemetry::merge_shards(&shards);
            totals.push((
                merged.counter("delay.drops"),
                merged
                    .histogram("delay.inbox")
                    .map(|h| h.buckets().to_vec()),
            ));
        }
        assert_eq!(totals[0], totals[1]);
        assert_eq!(totals[1], totals[2]);
        assert_eq!(totals[0].0, 56);
    }

    #[test]
    fn json_rendering_parses_back() {
        let mut t = Telemetry::merge_shards(&[
            shard_with(0, &[("a.count", 2)]),
            shard_with(1, &[("a.count", 3), ("b.count", 1)]),
        ]);
        t.wall_ns = 5_000_000;
        t.set_gauge("host.parallelism", 8.0);
        t.observe("task.ns", 1024);
        t.add_phase("sweep", 2_500_000);
        let text = t.to_json(0);
        let v = crate::json::parse_json(&text).expect("telemetry JSON parses");
        let counters = v.get("counters").expect("counters present");
        assert_eq!(
            counters
                .get("a.count")
                .and_then(crate::json::JsonValue::as_u64),
            Some(5)
        );
        let workers = v.get("workers").and_then(crate::json::JsonValue::as_array);
        assert_eq!(workers.map(<[crate::json::JsonValue]>::len), Some(2));
        assert!(v.get("phases").is_some());
        assert!(v.get("histograms").is_some());
    }

    #[test]
    fn busy_fraction_is_bounded() {
        let w = WorkerStats {
            worker: 0,
            tasks: 4,
            busy_ns: 500,
            queue_wait_ns: 100,
        };
        assert_eq!(w.busy_fraction(0), 0.0);
        assert!((w.busy_fraction(1000) - 0.5).abs() < 1e-12);
    }
}
