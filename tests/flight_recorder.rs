//! Tier-1 gates for the flight recorder, the first-divergence debugger
//! and the perf-trend ledger gate.
//!
//! Four contracts:
//!
//! 1. *Recording is bit-neutral*: attaching an [`EventLog`] to either
//!    engine — including the `FaultPlan::none()` configurations whose
//!    outcomes are pinned by captured hex constants in
//!    `tests/common/mod.rs` — reproduces the unrecorded run bit for bit,
//!    and stays thread-invariant under `par_map`.
//! 2. *First-divergence localization*: a deliberately injected
//!    divergence (flipping one fault coin of a mid-run block via the
//!    test-only `flip_drop_coin` hook) is localized by [`trace_diff`] to
//!    the exact first divergent event — same index and kind as a naive
//!    full-trace comparison — through the digest-checkpoint binary
//!    search.
//! 3. *Ring/checkpoint coherence*: at every capacity (including 0 =
//!    disabled) the rolling digest is capacity-independent and identical
//!    traces never report a divergence.
//! 4. *Trend gate*: a synthetic 2× slowdown row appended to a clean
//!    ledger trips `evaluate_trend` (the engine behind
//!    `perf_report --trend`), while clean back-to-back rows pass.

use selfish_ethereum::prelude::*;

use seleth_obs::par_map;
use seleth_sim::diagnose::capacity_for;

mod common;
use common::{committed_json, f64_field, pinned_delay_configs};

// ---------------------------------------------------------------------
// 1. Recording is bit-neutral
// ---------------------------------------------------------------------

/// The pinned configurations of `common::pinned_delay_configs` under
/// `FaultPlan::none()` (as `tests/chaos_study.rs` replays them): the same
/// captured hex constants must hold with the flight recorder attached.
#[test]
fn recording_preserves_the_zero_fault_captured_constants() {
    for mut pinned in pinned_delay_configs() {
        let config = pinned
            .builder
            .faults(FaultPlan::none())
            .build()
            .expect("valid config");
        let (r, log) = record_delay_run(&config, capacity_for(config.blocks()));
        pinned.check(&r);
        assert!(log.count() > 0, "a pinned run records events");
    }
}

#[test]
fn recording_is_bit_neutral_for_both_engines() {
    // Slot engine.
    let sim_config = SimConfig::builder()
        .alpha(0.3)
        .gamma(0.5)
        .blocks(10_000)
        .seed(7)
        .build()
        .expect("valid config");
    let plain = Simulation::new(sim_config.clone()).run();
    let (recorded, log) = record_engine_run(&sim_config, capacity_for(sim_config.blocks()));
    assert_eq!(
        plain.pool.total().to_bits(),
        recorded.pool.total().to_bits()
    );
    assert_eq!(plain.blocks_mined, recorded.blocks_mined);
    assert!(log.count() > 0);

    // Delay engine, with live faults (the fault pipeline records too).
    let faults = FaultPlan::builder()
        .seed(5)
        .loss(0.1)
        .duplication(0.1)
        .jitter(1.0)
        .build()
        .expect("valid plan");
    let config = DelayConfig::builder()
        .shares(vec![0.3, 0.7])
        .policy(0, PolicyTable::honest(0.3, 0.5, 20))
        .delay(2.0)
        .blocks(5_000)
        .seed(7)
        .faults(faults)
        .build()
        .expect("valid config");
    let plain = DelaySimulation::new(config.clone()).run();
    let (recorded, log) = record_delay_run(&config, capacity_for(config.blocks()));
    assert_eq!(
        plain.report.total_reward().to_bits(),
        recorded.report.total_reward().to_bits()
    );
    assert_eq!(plain.counters, recorded.counters);
    let kinds: Vec<&str> = log
        .counts_by_kind()
        .iter()
        .filter(|(_, n)| *n > 0)
        .map(|(k, _)| k.name())
        .collect();
    for expected in ["mine", "hear", "release", "fault_drop"] {
        assert!(kinds.contains(&expected), "missing {expected} in {kinds:?}");
    }
}

/// Graph-mode propagation records its own event kinds — one
/// `edge_delivery` per (block, receiver) arrival and a `relay_hop` per
/// multi-hop delivery — and recording stays bit-neutral there too.
#[test]
fn graph_mode_records_edge_deliveries_and_relay_hops() {
    let config = DelayConfig::builder()
        .shares(vec![0.25; 4])
        .delay(6.0)
        .blocks(5_000)
        .seed(7)
        .schedule(RewardSchedule::ethereum())
        .topology(Topology::star_relay(&[1.0, 2.0, 3.0, 4.0]).expect("valid star"))
        .build()
        .expect("valid config");
    let plain = DelaySimulation::new(config.clone()).run();
    let (recorded, log) = record_delay_run(&config, capacity_for(config.blocks()));
    assert_eq!(
        plain.report.total_reward().to_bits(),
        recorded.report.total_reward().to_bits()
    );
    assert_eq!(plain.counters, recorded.counters);
    let count_of = |name: &str| {
        log.counts_by_kind()
            .iter()
            .find(|(k, _)| k.name() == name)
            .map_or(0, |(_, n)| *n)
    };
    let deliveries = count_of("edge_delivery");
    let hops = count_of("relay_hop");
    assert!(deliveries > 0, "graph releases record arrivals");
    assert!(hops > 0, "star deliveries route through the hub (2 hops)");
    assert!(
        hops <= deliveries,
        "every relay hop belongs to a delivery event"
    );
    let c = &recorded.counters;
    assert_eq!(
        deliveries,
        c.gossip_hops_1 + c.gossip_hops_2 + c.gossip_hops_3 + c.gossip_hops_4_plus,
        "one edge_delivery event per reachable non-producer arrival"
    );
}

/// Recorded runs stay thread-invariant: sweeping the same seeds through
/// `par_map` at 1 and 4 workers, each run with its own recorder, yields
/// bit-identical reward bits *and* event digests.
#[test]
fn recorded_runs_are_thread_invariant() {
    let seeds: Vec<u64> = (0..4).map(|k| 300 + k).collect();
    let outcome = |threads: usize| -> Vec<(u64, u64, u64)> {
        par_map(&seeds, threads, |&seed| {
            let config = DelayConfig::builder()
                .shares(vec![0.35, 0.65])
                .delay(1.5)
                .blocks(2_000)
                .seed(seed)
                .build()
                .expect("valid config");
            let (r, log) = record_delay_run(&config, capacity_for(config.blocks()));
            (r.report.total_reward().to_bits(), log.digest(), log.count())
        })
    };
    assert_eq!(outcome(1), outcome(4));
}

// ---------------------------------------------------------------------
// 2. First-divergence localization
// ---------------------------------------------------------------------

/// Inject a divergence mid-run by flipping every loss coin of one block
/// (the diagnostics-only `flip_drop_coin` hook) and assert the
/// checkpoint-bisecting `trace_diff` lands on the exact same first
/// divergent event as a naive element-by-element trace comparison.
#[test]
fn injected_divergence_is_localized_to_the_exact_first_event() {
    let plan = FaultPlan::builder()
        .seed(77)
        .loss(0.08)
        .build()
        .expect("valid plan");
    let make = |flip: Option<u64>| {
        let mut b = FaultPlan::builder();
        b.seed(77).loss(0.08);
        if let Some(block) = flip {
            b.flip_drop_coin(block);
        }
        let plan = b.build().expect("valid plan");
        DelayConfig::builder()
            .shares(vec![0.3, 0.7])
            .delay(2.0)
            .blocks(3_000)
            .seed(13)
            .faults(plan)
            .build()
            .expect("valid config")
    };
    assert!(plan.loss() > 0.0);
    let capacity = capacity_for(3_000);
    let (_, baseline) = record_delay_run(&make(None), capacity);
    // Pick a block mined *mid-run*: the flip then perturbs an event
    // stream that has a long identical prefix, so localization is doing
    // real work (checkpoint bisection over the shared prefix).
    let events = baseline.events();
    let mid = events.len() as u64 / 2;
    let target = events
        .iter()
        .find(|e| e.index >= mid && e.kind == EventKind::Mine)
        .expect("a mine event in the back half")
        .a;
    let (_, perturbed) = record_delay_run(&make(Some(target)), capacity);

    let d = trace_diff(&baseline, &perturbed).expect("flip must diverge");
    assert!(d.exact, "full retention proves exactness");

    // The naive ground truth: first index where the traces disagree.
    let perturbed_events = perturbed.events();
    let naive = events
        .iter()
        .zip(perturbed_events.iter())
        .position(|(a, b)| !a.same_step(b))
        .map_or(events.len().min(perturbed_events.len()) as u64, |i| {
            i as u64
        });
    assert_eq!(d.index, naive, "bisection must match the naive scan");
    assert!(
        d.index >= 1,
        "the traces share a non-empty identical prefix"
    );
    let left = d.left.expect("event present at full retention");
    let right = d.right.expect("event present at full retention");
    assert_eq!(left.index, d.index);
    assert_eq!(right.index, d.index);
    assert!(
        !left.same_step(&right),
        "reported events actually disagree: {} vs {}",
        left.to_json_line(),
        right.to_json_line()
    );
    // And the rendered explanation names the divergent index.
    let text = explain_divergence("flip", &baseline, &perturbed);
    assert!(text.contains(&format!("{}", d.index)), "{text}");
}

// ---------------------------------------------------------------------
// 3. Ring/checkpoint coherence across capacities
// ---------------------------------------------------------------------

#[test]
fn digest_is_capacity_independent_and_identity_never_diverges() {
    let config = DelayConfig::builder()
        .shares(vec![0.4, 0.6])
        .delay(1.0)
        .blocks(500)
        .seed(99)
        .build()
        .expect("valid config");
    let (_, full) = record_delay_run(&config, 1 << 20);
    assert!(full.count() > 64, "enough events to wrap small rings");
    for capacity in [0usize, 1, 2, 3, 7, 64, 4096] {
        let (_, log) = record_delay_run(&config, capacity);
        if capacity == 0 {
            assert!(!log.is_enabled());
            assert_eq!(log.count(), 0, "disabled log records nothing");
            continue;
        }
        assert_eq!(log.count(), full.count(), "capacity={capacity}");
        assert_eq!(log.digest(), full.digest(), "capacity={capacity}");
        assert_eq!(
            log.len() as u64,
            full.count().min(capacity as u64),
            "ring retains min(count, capacity)"
        );
        assert!(
            trace_diff(&log, &full).is_none(),
            "identical traces never diverge (capacity={capacity})"
        );
    }
}

// ---------------------------------------------------------------------
// 4. Trend gate
// ---------------------------------------------------------------------

fn ledger_row(bin: &str, metrics: &str) -> String {
    format!(
        "{{\"bin\": \"{bin}\", \"git_sha\": \"deadbeef\", \"unix_time\": 1, \
         \"host\": {{\"os\": \"linux\", \"arch\": \"x86_64\", \
         \"available_parallelism\": 1}}, \"metrics\": {{{metrics}}}}}\n"
    )
}

#[test]
fn trend_gate_trips_on_synthetic_slowdown_and_passes_clean_reruns() {
    // Clean back-to-back runs (small jitter) pass.
    let clean = format!(
        "{}{}",
        ledger_row(
            "bench_solver",
            "\"mdp_solve_ms\": 100.0, \"csr_spmv_ns\": 5000.0"
        ),
        ledger_row(
            "bench_solver",
            "\"mdp_solve_ms\": 104.0, \"csr_spmv_ns\": 4900.0"
        ),
    );
    let rows = parse_history(&clean).expect("ledger parses");
    let report = evaluate_trend(&rows, 1.5);
    assert!(report.passed(), "{}", report.rendered);
    assert_eq!(report.compared, 2);

    // A synthetic 2× slowdown on a lower-better metric trips the gate.
    let slow = format!(
        "{clean}{}",
        ledger_row(
            "bench_solver",
            "\"mdp_solve_ms\": 208.0, \"csr_spmv_ns\": 4950.0"
        )
    );
    let rows = parse_history(&slow).expect("ledger parses");
    let report = evaluate_trend(&rows, 1.5);
    assert!(!report.passed(), "{}", report.rendered);
    assert!(
        report
            .regressions
            .iter()
            .any(|r| r.contains("mdp_solve_ms")),
        "{:?}",
        report.regressions
    );

    // A 2× throughput drop on a higher-better metric trips it too.
    let rate_drop = format!(
        "{}{}",
        ledger_row("bench_sim", "\"single_run_blocks_per_sec\": 2000000"),
        ledger_row("bench_sim", "\"single_run_blocks_per_sec\": 1000000"),
    );
    let rows = parse_history(&rate_drop).expect("ledger parses");
    assert!(!evaluate_trend(&rows, 1.5).passed());

    // Rows from a *different* host never gate against each other.
    let cross_host = format!(
        "{}{}",
        ledger_row("bench_sim", "\"single_run_blocks_per_sec\": 2000000"),
        ledger_row("bench_sim", "\"single_run_blocks_per_sec\": 1000000").replace(
            "\"available_parallelism\": 1",
            "\"available_parallelism\": 8"
        ),
    );
    let rows = parse_history(&cross_host).expect("ledger parses");
    let report = evaluate_trend(&rows, 1.5);
    assert!(report.passed(), "{}", report.rendered);
    assert_eq!(report.compared, 0, "no comparable-host baseline");

    // A single-row (seeding) ledger and an empty one pass.
    let rows = parse_history(&ledger_row(
        "bench_sim",
        "\"single_run_blocks_per_sec\": 1.0",
    ))
    .unwrap();
    assert!(evaluate_trend(&rows, 1.5).passed());
    assert!(evaluate_trend(&[], 1.5).passed());
}

/// Every metric of the committed ledger's latest `bench_gates` row must
/// gate: a name `direction_of` classifies as informational would drift
/// through `perf_report --trend` unchecked.
#[test]
fn committed_bench_gates_row_gates_every_metric() {
    let text = std::fs::read_to_string("results/BENCH_history.jsonl")
        .expect("committed results/BENCH_history.jsonl");
    let rows = parse_history(&text).expect("ledger parses");
    let latest = rows
        .iter()
        .rev()
        .find(|r| r.bin == "bench_gates")
        .expect("a committed bench_gates row");
    assert!(!latest.metrics.is_empty(), "the row carries metrics");
    for (name, _) in &latest.metrics {
        assert_ne!(
            seleth_obs::trend::direction_of(name),
            seleth_obs::trend::Direction::Informational,
            "bench_gates metric {name} is never gated"
        );
    }
}

/// The committed `BENCH_gates.json` certifies the disabled-recorder gate
/// the same way `tests/telemetry.rs` pins the no-op overhead gate.
#[test]
fn committed_bench_certifies_the_disabled_recorder_gate() {
    let doc = committed_json("BENCH_gates.json");
    let ratio = f64_field(&doc, "recorder_disabled_ratio");
    assert!(
        ratio >= 0.95,
        "committed disabled-recorder ratio {ratio} below the 0.95 gate"
    );
    // The bench artifact carries the shared host fingerprint.
    let host = doc.get("host").expect("host block");
    for field in ["os", "arch", "available_parallelism"] {
        assert!(host.get(field).is_some(), "BENCH_gates.json host.{field}");
    }
}
