//! First-divergence diagnostics for the determinism gates.
//!
//! The bit-identity suites (`tests/chaos_study.rs`,
//! `tests/flight_recorder.rs`) assert that two runs — same config twice,
//! fault-free plan vs fault-unaware engine, 1 thread vs N threads — produce
//! byte-identical reports. When such a gate fails, the raw assertion tells
//! you *that* the runs differ, not *where* they first did. This module
//! closes that gap: it re-runs both configurations with the flight
//! recorder attached and binary-searches the digest checkpoints for the
//! first divergent event (see [`seleth_obs::EventLog::first_divergence`]).
//!
//! Set the environment variable named by [`TRACE_ON_FAIL_ENV`] to a
//! directory (the CI driver exports it for the gated suites) and
//! [`explain_divergence`] additionally dumps both event logs as JSONL
//! next to the report, so a failure on a remote runner leaves a
//! post-mortem artifact.

use std::path::PathBuf;
use std::sync::Arc;

use seleth_obs::{trace_diff, Divergence, EventLog};

use crate::delay::{DelayConfig, DelayReport, DelaySimulation};
use crate::{SimConfig, SimReport, Simulation};

/// Environment variable consulted by [`explain_divergence`]: when set to a
/// writable directory, both event logs are dumped there as
/// `<label>.left.jsonl` / `<label>.right.jsonl`.
pub const TRACE_ON_FAIL_ENV: &str = "SELETH_TRACE_ON_FAIL";

/// Ring capacity for a diagnostic re-run with a `blocks`-sized budget.
///
/// A delay-sim step emits one mining event plus at most a handful of
/// hears, releases, policy decisions and fault outcomes per strategist;
/// 32 events per block is comfortably past that envelope, and the cap
/// keeps a pathological budget from pinning the ring's memory. The ring
/// grows lazily (it is a `VecDeque` push path), so a generous capacity
/// costs nothing until events actually arrive.
#[must_use]
pub fn capacity_for(blocks: u64) -> usize {
    usize::try_from(blocks.saturating_mul(32).min(1 << 22)).unwrap_or(1 << 22)
}

/// Run `config` in the delay engine with a fresh flight recorder attached.
///
/// The returned log holds every canonical event of the run and its rolling
/// state digest; recording never touches the RNG, so the report is
/// bit-identical to an unrecorded run of the same config.
#[must_use]
pub fn record_delay_run(config: &DelayConfig, capacity: usize) -> (DelayReport, Arc<EventLog>) {
    let log = Arc::new(EventLog::new(capacity));
    let mut sim = DelaySimulation::new(config.clone());
    sim.attach_events(Arc::clone(&log));
    (sim.run(), log)
}

/// Run `config` in the slot engine with a fresh flight recorder attached.
#[must_use]
pub fn record_engine_run(config: &SimConfig, capacity: usize) -> (SimReport, Arc<EventLog>) {
    let log = Arc::new(EventLog::new(capacity));
    let mut sim = Simulation::new(config.clone());
    sim.attach_events(Arc::clone(&log));
    (sim.run(), log)
}

/// Re-run two delay configurations with recording on and report the first
/// divergent event, or `None` if the two traces are identical.
#[must_use]
pub fn delay_divergence(left: &DelayConfig, right: &DelayConfig) -> Option<Divergence> {
    let capacity = capacity_for(left.blocks().max(right.blocks()));
    let (_, la) = record_delay_run(left, capacity);
    let (_, lb) = record_delay_run(right, capacity);
    trace_diff(&la, &lb)
}

/// Re-run two slot-engine configurations with recording on and report the
/// first divergent event, or `None` if the two traces are identical.
#[must_use]
pub fn engine_divergence(left: &SimConfig, right: &SimConfig) -> Option<Divergence> {
    let capacity = capacity_for(left.blocks().max(right.blocks()));
    let (_, la) = record_engine_run(left, capacity);
    let (_, lb) = record_engine_run(right, capacity);
    trace_diff(&la, &lb)
}

/// Render a human-readable first-divergence report for a failed gate.
///
/// Always returns the textual report (suitable for a panic message). When
/// [`TRACE_ON_FAIL_ENV`] names a directory, both logs are additionally
/// dumped there as JSONL and the dump paths are appended to the report;
/// dump errors degrade to a note rather than masking the original failure.
#[must_use]
pub fn explain_divergence(label: &str, left: &EventLog, right: &EventLog) -> String {
    let mut out = match trace_diff(left, right) {
        None => format!(
            "[{label}] traces are identical ({} events, digest {:016x}) — \
             the divergence is outside the recorded event set",
            left.count(),
            left.digest()
        ),
        Some(d) => format!("[{label}] {}", d.describe()),
    };
    if let Some(dir) = std::env::var_os(TRACE_ON_FAIL_ENV) {
        let dir = PathBuf::from(dir);
        for (side, log) in [("left", left), ("right", right)] {
            let path = dir.join(format!("{label}.{side}.jsonl"));
            match log.write_jsonl(&path) {
                Ok(()) => {
                    out.push_str(&format!("\n  {side} trace: {}", path.display()));
                }
                Err(e) => {
                    out.push_str(&format!("\n  {side} trace dump failed: {e}"));
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::FaultPlan;

    fn base_config(seed: u64) -> DelayConfig {
        DelayConfig::builder()
            .shares(vec![0.3, 0.7])
            .delay(0.5)
            .blocks(400)
            .seed(seed)
            .build()
            .expect("valid config")
    }

    #[test]
    fn identical_configs_have_no_divergence() {
        let c = base_config(11);
        assert!(delay_divergence(&c, &c).is_none());
    }

    #[test]
    fn different_seeds_diverge_at_index_zero_region() {
        let a = base_config(11);
        let b = base_config(12);
        let d = delay_divergence(&a, &b).expect("seeds differ");
        // A different RNG seed changes the very first mining event.
        assert!(d.exact);
        assert_eq!(d.index, 0);
    }

    #[test]
    fn recording_does_not_change_the_report() {
        let c = base_config(21);
        let plain = DelaySimulation::new(c.clone()).run();
        let (recorded, log) = record_delay_run(&c, capacity_for(c.blocks()));
        assert_eq!(plain.report.regular_count, recorded.report.regular_count);
        assert_eq!(plain.counters.deliveries, recorded.counters.deliveries);
        assert!(log.count() > 0, "a 400-block run records events");
    }

    #[test]
    fn explain_divergence_reports_identical_and_dumps_nothing_without_env() {
        let c = base_config(31);
        let (_, a) = record_delay_run(&c, 1024);
        let (_, b) = record_delay_run(&c, 1024);
        let text = explain_divergence("gate", &a, &b);
        assert!(text.contains("identical"), "{text}");
    }

    #[test]
    fn fault_plan_divergence_is_localized() {
        let plan = FaultPlan::builder()
            .seed(9)
            .loss(0.05)
            .build()
            .expect("valid plan");
        let faulty = DelayConfig::builder()
            .shares(vec![0.3, 0.7])
            .delay(0.5)
            .blocks(400)
            .seed(11)
            .faults(plan)
            .build()
            .expect("valid config");
        let clean = base_config(11);
        let d = delay_divergence(&clean, &faulty).expect("faults diverge");
        assert!(d.exact);
    }
}
