//! Zero-dependency telemetry core for the selfish-ethereum workspace.
//!
//! The crate is hand-rolled (no external dependencies, matching the offline
//! `vendor/` policy) and provides these layers:
//!
//! * **Primitives** ([`metrics`]): fixed-bucket power-of-two
//!   [`Histogram`]s and a monotonic [`Stopwatch`] for scoped timing.
//! * **Recorder** ([`recorder`]): the [`Recorder`] trait, a sink for
//!   spans and flight-recorder events.  The default method bodies are
//!   empty, so the no-op implementation ([`NoopRecorder`]) compiles to
//!   nothing on hot paths; [`TraceLog`] is an in-memory span sink that can
//!   be dumped as JSON lines for the `--trace` flag of the study bins.
//! * **Shards** ([`telemetry`]): per-worker [`TelemetryShard`]s accumulate
//!   counters, histograms and busy/queue-wait time without any locking, and
//!   merge deterministically into a [`Telemetry`] summary whose counter
//!   totals are bit-identical at any thread count.
//! * **Scheduler** ([`sched`]): the workspace's one work queue.
//!   [`par_map_traced`] runs tasks on workers that claim item indices from
//!   a shared counter, hands each worker its own state and shard, and
//!   returns results in input order, bit-identical at any thread count;
//!   [`resolve_threads`] is the one rule for an automatic (`0`) worker
//!   count.
//! * **Profiles** ([`profile`]): a tiny JSON parser ([`json`]) and
//!   [`render_profile`], which turns the `"telemetry"` and `"event_log"`
//!   blocks of any study JSON into a human-readable report (used by the
//!   `perf_report` bin).
//! * **Flight recorder** ([`events`]): a bounded ring-buffer [`EventLog`]
//!   of canonical structured events with a rolling splitmix64 digest and
//!   periodic checkpoints; [`trace_diff`] localizes the first divergent
//!   event between two recordings when a bit-identity gate fails.
//! * **Trend** ([`trend`]): parsing and noise-aware regression evaluation
//!   of the `results/BENCH_history.jsonl` perf-trajectory ledger (the
//!   `perf_report --trend` gate).
//!
//! Determinism contract: counter and histogram-bucket totals are plain
//! `u64` sums of per-task values, so a merged [`Telemetry`] is invariant to
//! how tasks were partitioned across workers.  Wall-clock fields (`busy_ns`,
//! `queue_wait_ns`, span timestamps) are measurement artifacts and are
//! explicitly excluded from that guarantee.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::panic))]

pub mod events;
pub mod json;
pub mod metrics;
pub mod profile;
pub mod recorder;
pub mod sched;
pub mod telemetry;
pub mod trend;

pub use events::{trace_diff, Divergence, Event, EventKind, EventLog};
pub use json::{parse_json, JsonError, JsonValue};
pub use metrics::{Histogram, Stopwatch};
pub use profile::render_profile;
pub use recorder::{NoopRecorder, Recorder, SpanEvent, TraceLog};
pub use sched::{par_map, par_map_traced, resolve_threads};
pub use telemetry::{Telemetry, TelemetryShard, WorkerStats};
pub use trend::{evaluate_trend, parse_history, TrendReport, TrendRow};
