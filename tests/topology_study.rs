//! Tier-1 gates for the peer-graph gossip layer (`seleth-net`) and the
//! committed topology study (`results/topology_study.json`).
//!
//! Four contracts, in increasing order of strictness:
//!
//! 1. *Graceful degradation*: any random connected topology — arbitrary
//!    latencies, lossy edges, relay hubs — runs to completion without
//!    panicking, conserves revenue shares, and replays bit-identically.
//! 2. *Determinism*: graph-mode runs are a pure function of the
//!    configuration — bit-identical across `par_map` thread counts
//!    (every per-edge draw is counter-hashed off the topology seed,
//!    never taken from a shared RNG stream).
//! 3. *Partition equivalence*: a PR 6 group partition expressed as a
//!    timed cut over the peer graph reproduces the uniform engine's
//!    partition run **bit for bit** on an equivalent complete graph.
//! 4. *Uniform identity*: a complete graph at uniform latency reproduces
//!    the fault-unaware delay engine bit for bit — checked against the
//!    same hex anchors `tests/chaos_study.rs` replays, so the gossip path
//!    cannot drift from the engine it generalizes.
//!
//! Plus the committed-artifact gates: `results/topology_study.json` must
//! be coherent, its complete-graph cells bit-equal to uniform, its
//! hub-vs-leaf attacker spread positive at fixed mean latency, and its
//! anchor cells must recompute bit for bit at their committed settings.

use std::sync::Arc;

use proptest::prelude::*;

use selfish_ethereum::prelude::*;

use seleth_bench::report::ReplayCell;
use seleth_obs::{par_map, JsonValue};

mod common;
use common::{
    array_field, committed_json, committed_replay, f64_field, load_artifact, pinned_delay_configs,
    sm1, str_field,
};

// ---------------------------------------------------------------------
// 4. Complete-graph/uniform bit identity against the pinned anchors
// ---------------------------------------------------------------------

/// The four pinned reference outcomes of `common::pinned_delay_configs`
/// (the uniform delay engine's), replayed through
/// [`PropagationModel::Graph`] on a complete graph whose every edge
/// carries exactly the uniform delay. The graph path folds each arrival
/// into the same `pub_time + 0.0` arithmetic, so the bit patterns must
/// match — not merely the values.
#[test]
fn complete_graph_reproduces_the_delay_engine_bit_for_bit() {
    for mut pinned in pinned_delay_configs() {
        let uniform = pinned.builder.build().expect("valid config");
        let complete = Topology::complete(uniform.shares().len(), uniform.delay()).expect("valid");
        let config = pinned
            .builder
            .topology(complete)
            .build()
            .expect("valid config");
        pinned.check(&DelaySimulation::new(config).run());
    }
}

// ---------------------------------------------------------------------
// 3. Graph-cut partitions replay the uniform engine's group partitions
// ---------------------------------------------------------------------

/// A PR 6 group partition ({0,1} vs {2,3}, one timed window) on the
/// uniform engine, against the same plan driving per-miner graph cuts on
/// the equivalent complete graph. The cut blocks exactly the deliveries
/// the group split blocks and retries them on the same frontier, so the
/// rewards must agree bit for bit even though the graph engine tracks
/// one view per miner instead of one per group.
#[test]
fn graph_cut_partition_replays_the_group_partition_bit_for_bit() {
    let run = |topo: Option<Topology>| {
        let plan = FaultPlan::builder()
            .partition(20_000.0, 28_000.0, vec![0, 0, 1, 1])
            .seed(5)
            .build()
            .expect("valid plan");
        let mut b = DelayConfig::builder();
        b.shares(vec![0.3, 0.25, 0.25, 0.2])
            .policy(0, sm1(0.3, 0.5, 12))
            .tie_gamma(0.5)
            .delay(4.0)
            .blocks(20_000)
            .seed(33)
            .schedule(RewardSchedule::ethereum())
            .faults(plan);
        if let Some(t) = topo {
            b.topology(t);
        }
        DelaySimulation::new(b.build().expect("valid config")).run()
    };
    let uniform = run(None);
    let graph = run(Some(Topology::complete(4, 4.0).expect("valid")));
    assert!(
        uniform.counters.partition_stalls > 0,
        "the window must actually stall deliveries"
    );
    assert!(graph.counters.partition_stalls > 0);
    assert_eq!(uniform.counters.partition_heals, 1);
    assert_eq!(graph.counters.partition_heals, 1);
    assert_eq!(
        uniform.report.total_reward().to_bits(),
        graph.report.total_reward().to_bits()
    );
    for i in 0..4 {
        assert_eq!(
            uniform.miner(i).total().to_bits(),
            graph.miner(i).total().to_bits(),
            "miner {i}"
        );
    }
    assert_eq!(uniform.report.stale_count, graph.report.stale_count);
}

// ---------------------------------------------------------------------
// 2. Determinism across thread counts
// ---------------------------------------------------------------------

/// A deliberately messy topology: a relay hub, asymmetric spokes,
/// jittered lossy edges — everything that draws from the per-edge hash
/// streams.
fn messy_topology(seed: u64) -> Topology {
    let mut b = Topology::builder();
    let m0 = b.miner();
    let m1 = b.miner();
    let m2 = b.miner();
    let hub = b.relay();
    b.seed(seed);
    b.link(m0, hub, 1.0);
    b.link(m1, hub, 2.5);
    b.link(m2, hub, 5.0);
    b.edge_spec(Link {
        from: m0,
        to: m1,
        latency: Latency::Uniform { lo: 0.5, hi: 4.0 },
        loss: 0.3,
        shortcut: false,
    });
    b.edge_spec(Link {
        from: m1,
        to: m0,
        latency: Latency::Uniform { lo: 0.5, hi: 4.0 },
        loss: 0.3,
        shortcut: false,
    });
    b.shortcut(m1, m2, 0.75);
    b.build().expect("messy topology is valid")
}

/// Per-edge latency and loss coins come from counter-based hashes of the
/// topology seed, never from a shared RNG: the same grid of seeds must
/// produce bit-identical outcomes on 1 worker or 4.
#[test]
fn graph_runs_are_bit_identical_across_thread_counts() {
    let seeds: Vec<u64> = (0..6).map(|k| 5_000 + k).collect();
    let outcome = |threads: usize| -> Vec<(u64, u64, u64)> {
        par_map(&seeds, threads, |&seed| {
            let config = DelayConfig::builder()
                .shares(vec![0.35, 0.35, 0.3])
                .policy(0, sm1(0.35, 0.5, 12))
                .tie_gamma(0.5)
                .delay(3.0)
                .blocks(6_000)
                .seed(seed)
                .schedule(RewardSchedule::ethereum())
                .topology(messy_topology(seed ^ 0x7090))
                .build()
                .expect("valid config");
            let r = DelaySimulation::new(config).run();
            (
                r.report.total_reward().to_bits(),
                r.miner(0).total().to_bits(),
                r.counters.gossip_sends,
            )
        })
    };
    let single = outcome(1);
    let quad = outcome(4);
    assert_eq!(single, quad, "gossip draws must not depend on thread count");
    // And the runs are genuinely seed-sensitive, not degenerate.
    assert!(single.windows(2).any(|w| w[0] != w[1]));
}

// ---------------------------------------------------------------------
// 1. Graceful degradation on random connected topologies
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random connected topologies (a ring backbone guarantees a path
    /// between every pair, chords and loss are arbitrary): the run must
    /// complete, pay only finite non-negative rewards, conserve revenue
    /// shares, and replay bit-identically.
    #[test]
    fn random_connected_topologies_degrade_gracefully(
        sim_seed in any::<u64>(),
        net_seed in any::<u64>(),
        miners in 3usize..6,
        ring_latency in 0.1f64..8.0,
        chords in proptest::collection::vec(
            (0usize..6, 0usize..6, 0.1f64..10.0, 0.0f64..0.5),
            0..4,
        ),
        jitter_edges in any::<bool>(),
    ) {
        let mut b = Topology::builder();
        let first = b.miners(miners);
        b.seed(net_seed);
        for i in 0..miners {
            let j = (i + 1) % miners;
            b.link(first + i, first + j, ring_latency);
        }
        for (a, z, latency, loss) in chords {
            let (a, z) = (a % miners, z % miners);
            if a == z {
                continue;
            }
            let latency = if jitter_edges {
                Latency::Uniform { lo: latency * 0.5, hi: latency }
            } else {
                Latency::Fixed(latency)
            };
            b.edge_spec(Link { from: a, to: z, latency, loss, shortcut: false });
        }
        let topology = b.build().expect("generated topologies are valid");

        let blocks = 2_000u64;
        let mut shares = vec![0.6 / (miners - 1) as f64; miners];
        shares[0] = 0.4;
        let config = DelayConfig::builder()
            .shares(shares)
            .policy(0, sm1(0.4, 0.5, 12))
            .tie_gamma(0.5)
            .delay(3.0)
            .blocks(blocks)
            .seed(sim_seed)
            .schedule(RewardSchedule::ethereum())
            .topology(topology)
            .build()
            .expect("valid config");
        let r = DelaySimulation::new(config.clone()).run();

        prop_assert!(r.report.block_count() <= blocks);
        let total = r.report.total_reward();
        prop_assert!(total.is_finite() && total >= 0.0);
        let mut summed = 0.0;
        for i in 0..miners {
            let t = r.miner(i).total();
            prop_assert!(t.is_finite() && t >= 0.0);
            summed += t;
        }
        prop_assert!((summed - total).abs() <= 1e-9 * total.max(1.0));
        if total > 0.0 {
            let shares: f64 = (0..miners).map(|i| r.revenue_share(i)).sum();
            prop_assert!((shares - 1.0).abs() < 1e-9);
        }
        let orphans = r.orphan_rate();
        prop_assert!((0.0..=1.0).contains(&orphans));
        // The ring backbone keeps every miner reachable.
        prop_assert_eq!(r.counters.gossip_unreachable, 0);

        // Replay is a pure function of the configuration.
        let again = DelaySimulation::new(config).run();
        prop_assert_eq!(
            again.report.total_reward().to_bits(),
            total.to_bits(),
            "graph runs must replay bit-identically"
        );
    }
}

// ---------------------------------------------------------------------
// Committed-artifact gate: results/topology_study.json
// ---------------------------------------------------------------------

/// The committed topology study must be coherent: well-formed header,
/// every gate bit-identical and with a positive hub-vs-leaf spread, and
/// every swept cell carrying finite statistics at the fixed mean
/// latency — the same bar `topology_study` itself enforces before
/// writing the file, re-checked here against the bytes actually in the
/// repository.
#[test]
fn committed_topology_study_is_coherent_and_gated() {
    let doc = committed_json("topology_study.json");
    assert_eq!(
        str_field(&doc, "kind"),
        "seleth-topology-study",
        "kind marker present"
    );
    assert!(f64_field(&doc, "runs") >= 2.0);
    assert!(f64_field(&doc, "blocks") >= 10_000.0);
    let mean_latency = f64_field(&doc, "mean_latency");
    assert!(mean_latency > 0.0);

    // Every gate: the complete graph replays uniform to the bit, and the
    // well-connected attacker out-earns the peripheral one.
    let gates = array_field(&doc, "gates");
    assert!(gates.len() >= 2, "study gates at least two series");
    for gate in gates {
        assert!(
            gate.get("bit_identical") == Some(&JsonValue::Bool(true)),
            "complete-graph cells must be bit-identical to uniform"
        );
        assert_eq!(
            str_field(gate, "uniform_revenue_bits"),
            str_field(gate, "complete_revenue_bits"),
            "the recorded bit patterns must agree"
        );
        let spread = f64_field(gate, "hub_leaf_spread");
        assert!(
            spread > 0.0,
            "hub attacker must out-earn leaf attacker: spread {spread}"
        );
    }

    // Every swept cell is statistically sane.
    let cells: Vec<&JsonValue> = array_field(&doc, "series")
        .iter()
        .flat_map(|series| array_field(series, "cells"))
        .collect();
    assert!(cells.len() >= 14, "full sweep covers the shape grid");
    let mut relay_seen = false;
    for cell in cells {
        let revenue = f64_field(cell, "revenue");
        let se = f64_field(cell, "std_err");
        let orphan = f64_field(cell, "orphan_rate");
        let latency = f64_field(cell, "mean_latency");
        assert!(revenue.is_finite() && (0.0..=1.0).contains(&revenue));
        assert!(se.is_finite() && se >= 0.0);
        assert!((0.0..=1.0).contains(&orphan));
        assert!(latency.is_finite() && latency > 0.0);
        // The revenue_bits hex field round-trips to the revenue value.
        let bits = str_field(cell, "revenue_bits");
        let bits = u64::from_str_radix(bits.trim_start_matches("0x"), 16).expect("hex bits");
        assert_eq!(f64::from_bits(bits).to_bits(), revenue.to_bits());
        if str_field(cell, "shape") == "relay_shortcut" {
            relay_seen = true;
            assert!(
                latency < mean_latency,
                "the relay overlay must lower the effective mean latency"
            );
        }
    }
    assert!(relay_seen, "the relay-shortcut shape is part of the sweep");
}

/// The committed topology study must be what `topology_study` writes: the
/// `uniform` and `complete` cells of the solved artifact's 4-miner split
/// recompute bit for bit at the study's committed runs, blocks, seed,
/// interval and mean latency. No other test replays a topology-study cell,
/// so without this gate a behaviour change could leave the file stale.
#[test]
fn committed_topology_study_recomputes_bit_for_bit() {
    let doc = committed_json("topology_study.json");
    let artifact = Arc::new(load_artifact("bitcoin_a040_g050.json"));
    let series = array_field(&doc, "series")
        .iter()
        .find(|s| {
            str_field(s, "strategy") == "bitcoin_a040_g050" && str_field(s, "split") == "quad"
        })
        .expect("bitcoin_a040_g050 quad series");
    let alpha = f64_field(series, "alpha");
    let rest = (1.0 - alpha) / 3.0;
    let delay = f64_field(&doc, "mean_latency");
    let replay = committed_replay(&doc);
    for (shape, topology) in [
        ("uniform", None),
        (
            "complete",
            Some(Arc::new(Topology::complete(4, delay).expect("valid"))),
        ),
    ] {
        let cell = array_field(series, "cells")
            .iter()
            .find(|c| str_field(c, "shape") == shape)
            .unwrap_or_else(|| panic!("{shape} cell"));
        let replay_cell = ReplayCell {
            topology,
            ..ReplayCell::new(
                vec![Arc::clone(&artifact)],
                vec![alpha, rest, rest, rest],
                f64_field(series, "gamma"),
                delay,
            )
        };
        let outcome = replay.run(&replay_cell).expect("valid topology cell");
        let bits = format!("0x{:016x}", outcome.mean().to_bits());
        assert_eq!(
            bits,
            str_field(cell, "revenue_bits"),
            "{shape} revenue_bits"
        );
        for (key, got) in [
            ("std_err", outcome.std_err()),
            ("orphan_rate", outcome.orphan_rate),
        ] {
            let want = f64_field(cell, key);
            assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "{shape} {key}: {got} vs {want}"
            );
        }
    }
}
