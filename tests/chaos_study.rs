//! Tier-1 gates for the fault-injection layer and the committed chaos
//! study (`results/chaos_study.json`).
//!
//! Three contracts, in increasing order of strictness:
//!
//! 1. *Graceful degradation*: any valid [`FaultPlan`] — random loss,
//!    duplication, jitter, churn, downtime and partition parameters —
//!    runs to completion without panicking, conserves revenue shares,
//!    and never mints more blocks than the event budget allows.
//! 2. *Determinism*: a faulty run is a pure function of `(sim seed,
//!    fault seed)` — bit-identical when replayed, and bit-identical
//!    across `par_map` thread counts (fault coins are counter-hashed,
//!    never drawn from a shared RNG stream).
//! 3. *Zero-fault identity*: an explicit [`FaultPlan::none`] reproduces
//!    the fault-unaware delay engine **bit for bit**. The hex constants
//!    below were captured from the engine before the fault layer
//!    existed; any drift in the zero-fault path fails loudly.
//!
//! Plus the committed-artifact gate: `results/chaos_study.json` must be
//! coherent and its gated anchor cell must reproduce the artifact's ρ*.

use std::path::PathBuf;

use proptest::prelude::*;

use selfish_ethereum::prelude::*;

use seleth_obs::{par_map, parse_json, JsonValue};

/// The classic SM1 rule as a policy table — the same hand-written
/// strategy the delay-study gates replay.
fn sm1(alpha: f64, gamma: f64, max_len: u32) -> PolicyTable {
    PolicyTable::from_fn3(
        alpha,
        gamma,
        RewardModel::Bitcoin,
        Scenario::RegularRate,
        max_len,
        alpha,
        |a, h, fork| {
            if h > a {
                Action::Adopt
            } else if a == h && a >= 1 {
                if fork == Fork::Relevant {
                    Action::Match
                } else {
                    Action::Wait
                }
            } else if a == h + 1 && h >= 1 {
                Action::Override
            } else {
                Action::Wait
            }
        },
    )
}

// ---------------------------------------------------------------------
// 3. Zero-fault bit identity
// ---------------------------------------------------------------------

/// Reference outcomes captured from the fault-unaware delay engine.
/// Exact `f64` bit patterns: the zero-fault plan must not perturb a
/// single rounding step. Recaptured when `PolicyTable::decide` started
/// forcing resolution at the truncation boundary (the hand-written SM1
/// tables below store `Wait` at `a == max_len`, which the executors now
/// resolve exactly like the solver's boundary action set) — the
/// fault-layer identity itself is unchanged and independently re-gated
/// in `tests/closed_loop_study.rs` by comparing a fault-free config
/// against an explicit `FaultPlan::none()` run.
#[test]
fn zero_fault_plan_reproduces_the_delay_engine_bit_for_bit() {
    // (name, total_reward bits, per-miner bits)
    let honest_eth = DelayConfig::builder()
        .shares(vec![0.25; 4])
        .delay(6.0)
        .blocks(40_000)
        .seed(2)
        .schedule(RewardSchedule::ethereum())
        .faults(FaultPlan::none())
        .build()
        .expect("valid config");
    let r = DelaySimulation::new(honest_eth).run();
    assert_eq!(r.report.total_reward().to_bits(), 0x40e2decf00000000);
    assert_eq!(r.miner(0).total().to_bits(), 0x40c2e9f400000000);

    let sm1_btc = DelayConfig::builder()
        .shares(vec![0.35, 0.65])
        .policy(0, sm1(0.35, 0.5, 12))
        .tie_gamma(0.5)
        .delay(2.0)
        .blocks(30_000)
        .seed(17)
        .schedule(RewardSchedule::bitcoin())
        .faults(FaultPlan::none())
        .build()
        .expect("valid config");
    let r = DelaySimulation::new(sm1_btc).run();
    assert_eq!(r.report.total_reward().to_bits(), 0x40d5848000000000);
    assert_eq!(r.miner(0).total().to_bits(), 0x40bd900000000000);

    let duo_btc = DelayConfig::builder()
        .shares(vec![0.3, 0.3, 0.4])
        .policy(0, sm1(0.3, 0.5, 12))
        .policy(1, sm1(0.3, 0.5, 12))
        .tie_gamma(0.5)
        .delay(2.0)
        .blocks(30_000)
        .seed(17)
        .schedule(RewardSchedule::bitcoin())
        .faults(FaultPlan::none())
        .build()
        .expect("valid config");
    let r = DelaySimulation::new(duo_btc).run();
    assert_eq!(r.report.total_reward().to_bits(), 0x40ce9e8000000000);
    assert_eq!(r.miner(0).total().to_bits(), 0x40b2e70000000000);
    assert_eq!(r.miner(1).total().to_bits(), 0x40b2840000000000);

    let sm1_eth = DelayConfig::builder()
        .shares(vec![0.4, 0.6])
        .policy(0, sm1(0.4, 0.0, 14))
        .tie_gamma(0.0)
        .delay(4.0)
        .blocks(25_000)
        .seed(41)
        .schedule(RewardSchedule::ethereum())
        .faults(FaultPlan::none())
        .build()
        .expect("valid config");
    let r = DelaySimulation::new(sm1_eth).run();
    assert_eq!(r.report.total_reward().to_bits(), 0x40d3181a00000000);
    assert_eq!(r.miner(0).total().to_bits(), 0x40b8409800000000);
}

// ---------------------------------------------------------------------
// 2. Determinism across thread counts
// ---------------------------------------------------------------------

fn chaotic_config(seed: u64) -> DelayConfig {
    let faults = FaultPlan::builder()
        .seed(seed ^ 0xfa17)
        .loss(0.2)
        .duplication(0.15)
        .jitter(2.5)
        .churn(1_500.0, 200.0)
        .partition(30_000.0, 36_000.0, vec![0, 1, 0])
        .build()
        .expect("valid fault plan");
    DelayConfig::builder()
        .shares(vec![0.3, 0.3, 0.4])
        .policy(0, sm1(0.3, 0.5, 12))
        .tie_gamma(0.5)
        .delay(4.0)
        .blocks(6_000)
        .seed(seed)
        .schedule(RewardSchedule::ethereum())
        .faults(faults)
        .build()
        .expect("valid config")
}

/// Fault coins come from counter-based hashes of the plan seed, never
/// from a shared RNG: the same grid of seeds must produce bit-identical
/// outcomes whether the runs execute on 1 worker or 4.
#[test]
fn fault_schedules_are_bit_identical_across_thread_counts() {
    let seeds: Vec<u64> = (0..6).map(|k| 9_000 + k).collect();
    let outcome = |threads: usize| -> Vec<(u64, u64, u64)> {
        par_map(&seeds, threads, |&seed| {
            let r = DelaySimulation::new(chaotic_config(seed)).run();
            (
                r.report.total_reward().to_bits(),
                r.miner(0).total().to_bits(),
                r.report.block_count(),
            )
        })
    };
    let single = outcome(1);
    let quad = outcome(4);
    if single != quad {
        // First-divergence debugger: re-run the first disagreeing seed
        // twice with the flight recorder attached and report the exact
        // event where the traces split (dumping JSONL when
        // SELETH_TRACE_ON_FAIL names a directory — ci.sh does).
        let bad = seeds
            .iter()
            .zip(single.iter().zip(quad.iter()))
            .find(|(_, (a, b))| a != b)
            .map_or(seeds[0], |(s, _)| *s);
        let config = chaotic_config(bad);
        let cap = seleth_sim::diagnose::capacity_for(config.blocks());
        let (_, left) = record_delay_run(&config, cap);
        let (_, right) = record_delay_run(&config, cap);
        panic!(
            "fault schedules must not depend on threads (seed {bad}): {}",
            explain_divergence("thread_invariance", &left, &right)
        );
    }
    // And the schedule is genuinely seed-sensitive, not degenerate.
    assert!(single.windows(2).any(|w| w[0] != w[1]));
}

// ---------------------------------------------------------------------
// 1. Graceful degradation under arbitrary valid fault plans
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random-but-valid fault plans: the run must complete, pay only
    /// finite non-negative rewards, conserve revenue shares, and never
    /// exceed the block budget (faults delay and destroy, never mint).
    #[test]
    fn random_fault_plans_degrade_gracefully(
        sim_seed in any::<u64>(),
        fault_seed in any::<u64>(),
        loss in 0.0f64..0.6,
        duplication in 0.0f64..0.6,
        jitter in 0.0f64..4.0,
        churn_on in any::<bool>(),
        churn in (300.0f64..3_000.0, 30.0f64..400.0),
        downs in proptest::collection::vec(
            (0usize..3, 0.0f64..20_000.0, 100.0f64..10_000.0),
            0..3,
        ),
        part_on in any::<bool>(),
        part in (0.0f64..20_000.0, 500.0f64..8_000.0, proptest::collection::vec(0usize..2, 3)),
    ) {
        let mut builder = FaultPlan::builder();
        builder
            .seed(fault_seed)
            .loss(loss)
            .duplication(duplication)
            .jitter(jitter);
        if churn_on {
            let (up, down) = churn;
            builder.churn(up, down);
        }
        for (miner, start, len) in downs {
            builder.downtime(miner, start, start + len);
        }
        if part_on {
            let (start, len, groups) = part;
            builder.partition(start, start + len, groups);
        }
        let faults = builder.build().expect("generated plans are valid");

        let blocks = 2_000u64;
        let config = DelayConfig::builder()
            .shares(vec![0.3, 0.3, 0.4])
            .policy(0, sm1(0.3, 0.5, 12))
            .tie_gamma(0.5)
            .delay(3.0)
            .blocks(blocks)
            .seed(sim_seed)
            .schedule(RewardSchedule::ethereum())
            .faults(faults)
            .build()
            .expect("valid config");
        let r = DelaySimulation::new(config.clone()).run();

        // Crashes thin the block supply but never add to it.
        prop_assert!(r.report.block_count() <= blocks);
        // Every reward paid is finite and non-negative…
        let total = r.report.total_reward();
        prop_assert!(total.is_finite() && total >= 0.0);
        let mut summed = 0.0;
        for i in 0..3 {
            let t = r.miner(i).total();
            prop_assert!(t.is_finite() && t >= 0.0);
            summed += t;
        }
        // …and the per-miner ledger conserves the total.
        prop_assert!((summed - total).abs() <= 1e-9 * total.max(1.0));
        if total > 0.0 {
            let shares: f64 = (0..3).map(|i| r.revenue_share(i)).sum();
            prop_assert!((shares - 1.0).abs() < 1e-9);
        }
        let orphans = r.orphan_rate();
        prop_assert!((0.0..=1.0).contains(&orphans));

        // Replay is a pure function of the configuration.
        let again = DelaySimulation::new(config).run();
        prop_assert_eq!(
            again.report.total_reward().to_bits(),
            total.to_bits(),
            "faulty runs must replay bit-identically"
        );
    }
}

// ---------------------------------------------------------------------
// Committed-artifact gate: results/chaos_study.json
// ---------------------------------------------------------------------

/// The numeric field `key` of the JSON object `node`.
fn f64_field(node: &JsonValue, key: &str) -> f64 {
    node.get(key)
        .and_then(JsonValue::as_f64)
        .unwrap_or_else(|| panic!("numeric field {key} present"))
}

/// The string field `key` of the JSON object `node`.
fn str_field<'a>(node: &'a JsonValue, key: &str) -> &'a str {
    node.get(key)
        .and_then(JsonValue::as_str)
        .unwrap_or_else(|| panic!("string field {key} present"))
}

/// The array field `key` of the JSON object `node`.
fn array_field<'a>(node: &'a JsonValue, key: &str) -> &'a [JsonValue] {
    node.get(key)
        .and_then(JsonValue::as_array)
        .unwrap_or_else(|| panic!("array field {key} present"))
}

/// The committed chaos study must be coherent: well-formed header, every
/// series carries the zero-delay anchor cell plus a grid of fault cells
/// with finite statistics, and every *gated* series reproduces its
/// artifact's ρ* in the anchor cell — the same bar `chaos_study` itself
/// enforces before writing the file, re-checked here against the bytes
/// actually in the repository.
#[test]
fn committed_chaos_study_is_coherent_and_anchored() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("results/chaos_study.json");
    let text = std::fs::read_to_string(&path).expect("committed results/chaos_study.json");
    let doc = parse_json(&text).expect("results/chaos_study.json parses");
    assert_eq!(
        str_field(&doc, "kind"),
        "seleth-chaos-study",
        "kind marker present"
    );
    assert!(f64_field(&doc, "runs") >= 2.0);
    assert!(f64_field(&doc, "blocks") >= 10_000.0);

    let series = array_field(&doc, "series");
    assert!(series.len() >= 2, "study sweeps at least two series");
    let mut gated_seen = false;
    for chunk in series {
        let rho = f64_field(chunk, "rho_star");
        assert!(rho.is_finite() && rho > 0.0);
        let gated = chunk.get("gated") == Some(&JsonValue::Bool(true));
        gated_seen |= gated;

        let cells = array_field(chunk, "cells");
        assert!(cells.len() >= 5, "each series sweeps a fault grid");
        assert!(
            cells
                .iter()
                .any(|c| str_field(c, "cell") == "anchor_delay0"),
            "each series carries the zero-delay anchor"
        );
        for cell in cells {
            let revenue = f64_field(cell, "revenue");
            let se = f64_field(cell, "std_err");
            let orphan = f64_field(cell, "orphan_rate");
            let mined = f64_field(cell, "mined_fraction");
            assert!(revenue.is_finite() && (0.0..=1.0).contains(&revenue));
            assert!(se.is_finite() && se >= 0.0);
            assert!((0.0..=1.0).contains(&orphan));
            assert!(mined.is_finite() && mined > 0.0 && mined <= 1.0 + 1e-9);
        }

        if gated {
            let anchor = cells
                .iter()
                .find(|c| str_field(c, "cell") == "anchor_delay0")
                .expect("gated series has the anchor cell");
            let revenue = f64_field(anchor, "revenue");
            let se = f64_field(anchor, "std_err");
            let diff = (revenue - rho).abs();
            assert!(
                diff <= (3.0 * se).max(0.01),
                "gated anchor cell replays {revenue:.5} vs rho* {rho:.5}"
            );
        }
    }
    assert!(gated_seen, "at least one series is gated against its rho*");
}
