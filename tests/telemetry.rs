//! The telemetry determinism contract end to end: counter totals merged
//! from per-worker shards must be bit-identical at any thread count, the
//! no-op recorder must not perturb simulation results, and the committed
//! `BENCH_sim.json` must certify the no-op overhead gate.

use selfish_ethereum::prelude::*;

use seleth_obs::parse_json;

/// A fixed-seed faulty delay run: every fault counter is exercised, so a
/// partition-invariance bug in the merge has something to corrupt.
fn faulty_delay_counters(seed: u64) -> DelayCounters {
    let plan = FaultPlan::builder()
        .loss(0.2)
        .duplication(0.2)
        .jitter(1.5)
        .partition(2_000.0, 4_000.0, vec![0, 0, 1])
        .build()
        .expect("valid fault plan");
    let config = DelayConfig::builder()
        .shares(vec![0.3, 0.4, 0.3])
        .tie_gamma(0.5)
        .delay(2.0)
        .blocks(2_000)
        .seed(seed)
        .faults(plan.with_seed(seed))
        .build()
        .expect("valid faulty config");
    DelaySimulation::new(config).run().counters
}

#[test]
fn delay_counter_totals_are_thread_invariant() {
    // Sweep 9 fixed-seed faulty delay runs through the traced work queue
    // at 1, 2 and 8 workers: the merged counter totals must be
    // bit-identical however the queue interleaved the tasks.
    let seeds: Vec<u64> = (0..9).collect();
    let mut totals = Vec::new();
    for threads in [1usize, 2, 8] {
        let (_, shards) = seleth_obs::par_map_traced(
            &seeds,
            threads,
            &NoopRecorder,
            |&seed, _: &mut (), shard| {
                let counters = faulty_delay_counters(seed);
                counters.record_into(shard);
                counters
            },
        );
        let merged = Telemetry::merge_shards(&shards);
        let counters: Vec<(String, u64)> =
            merged.counters().map(|(k, v)| (k.to_string(), v)).collect();
        totals.push((threads, counters));
    }
    assert!(
        totals[0]
            .1
            .iter()
            .any(|(k, v)| k == "delay.drops" && *v > 0),
        "the fault plan must actually drop packets"
    );
    assert_eq!(totals[0].1, totals[1].1, "1 vs 2 threads");
    assert_eq!(totals[1].1, totals[2].1, "2 vs 8 threads");
}

#[test]
fn run_many_counter_totals_are_thread_invariant() {
    let config = SimConfig::builder()
        .alpha(0.35)
        .gamma(0.5)
        .blocks(3_000)
        .seed(17)
        .build()
        .expect("valid config");
    let mut totals = Vec::new();
    let mut revenues = Vec::new();
    for threads in [1usize, 2, 8] {
        let (r, shards) = multi::run_many_recorded(&config, 6, threads, &NoopRecorder);
        let merged = Telemetry::merge_shards(&shards);
        assert_eq!(merged.counter("sim.runs"), 6);
        assert_eq!(merged.counter("sim.blocks"), 18_000);
        assert_eq!(
            merged.counter("sim.engine_builds") + merged.counter("sim.engine_reuses"),
            6,
            "every run either builds or reuses an engine"
        );
        // The build/reuse *split* legitimately varies with the worker
        // count (one build per participating worker); only its sum and
        // the per-run counters are invariant.
        totals.push(
            merged
                .counters()
                .filter(|(k, _)| !k.starts_with("sim.engine_"))
                .map(|(k, v)| (k.to_string(), v))
                .collect::<Vec<_>>(),
        );
        revenues.push(
            r.iter()
                .map(|report| report.absolute_pool(Scenario::RegularRate))
                .collect::<Vec<f64>>(),
        );
    }
    // The counter totals are asserted invariant above; the simulation
    // results themselves must also be bit-identical at any thread count.
    assert_eq!(totals[0], totals[1], "1 vs 2 threads");
    assert_eq!(totals[1], totals[2], "2 vs 8 threads");
    assert_eq!(revenues[0], revenues[1]);
    assert_eq!(revenues[1], revenues[2]);
}

#[test]
fn committed_bench_certifies_the_noop_overhead_gate() {
    // `bench_sim` measures a fresh-engine run against the same run through
    // the instrumented `run_many_recorded` path, interleaved, and writes
    // the best paired per-repetition ratio; the committed artifact must
    // certify the overhead contract (the bin itself exits non-zero below
    // 0.95 — the tightest bound same-code host jitter can certify — and
    // this pins the committed state).
    let text = std::fs::read_to_string("results/BENCH_sim.json")
        .expect("committed results/BENCH_sim.json");
    let doc = parse_json(&text).expect("BENCH_sim.json parses");
    let ratio = doc
        .get("noop_overhead_ratio")
        .and_then(seleth_obs::JsonValue::as_f64)
        .expect("noop_overhead_ratio field");
    assert!(
        ratio >= 0.95,
        "committed no-op overhead ratio {ratio} below the 0.95 gate"
    );
    // And the scaling study must carry per-worker utilization.
    for key in ["run_many_t1_workers", "run_many_t8_workers"] {
        let workers = doc
            .get(key)
            .and_then(seleth_obs::JsonValue::as_array)
            .unwrap_or_else(|| panic!("{key} array"));
        assert!(!workers.is_empty(), "{key} must list workers");
        let w0 = &workers[0];
        for field in [
            "worker",
            "tasks",
            "busy_ms",
            "queue_wait_ms",
            "busy_fraction",
        ] {
            assert!(w0.get(field).is_some(), "{key}[0].{field} present");
        }
    }
}
