//! Bit-identity anchors of gossip propagation.
//!
//! Each anchor is one digest over every producer × 2 000 blocks of a
//! topology: the arrival bits and hop count of every miner plus the
//! `sends`, `dedup_drops` and `loss_retries` totals of every call. The
//! digests were captured from the original O(n²)-selection Dijkstra, so
//! any change to the propagation path that moves a single draw, arrival,
//! tie-break or counter fails here.

use seleth_net::{Latency, Link, Propagation, Scratch, Topology, TopologyBuilder};

const BLOCKS: u64 = 2_000;

/// FNV-style fold over 64-bit words.
fn fold(h: u64, word: u64) -> u64 {
    (h ^ word).wrapping_mul(0x0000_0100_0000_01b3)
}

fn digest_one(mut h: u64, p: &Propagation) -> u64 {
    for (&a, &hops) in p.arrival.iter().zip(&p.hops) {
        h = fold(h, a.to_bits());
        h = fold(h, u64::from(hops));
    }
    h = fold(h, p.stats.sends);
    h = fold(h, p.stats.dedup_drops);
    fold(h, p.stats.loss_retries)
}

fn digest(t: &Topology) -> String {
    let mut h = 0xcbf2_9ce4_8422_2325;
    for producer in 0..t.miner_count() {
        for block in 0..BLOCKS {
            h = digest_one(h, &t.propagate(producer, block));
        }
    }
    format!("{h:016x}")
}

fn lossy(b: &mut TopologyBuilder, x: usize, y: usize, (lo, hi): (f64, f64), loss: f64) {
    for (from, to) in [(x, y), (y, x)] {
        b.edge_spec(Link {
            from,
            to,
            latency: Latency::Uniform { lo, hi },
            loss,
            shortcut: false,
        });
    }
}

/// The benchmark's graph: two lossy uniform 8-clusters and a bridge,
/// rescaled to a 6.0 mean pairwise latency.
fn two_cluster_bridge() -> Topology {
    let mut b = Topology::builder();
    b.miners(16);
    b.seed(0x5eed);
    for cluster in [0..8, 8..16] {
        for i in cluster.clone() {
            for j in i + 1..cluster.end {
                lossy(&mut b, i, j, (0.5, 1.5), 0.05);
            }
        }
    }
    lossy(&mut b, 0, 8, (12.0, 20.0), 0.05);
    b.build().unwrap().scaled_to_mean(6.0).unwrap()
}

/// Two relay hubs built before the miners, so miner ids are not node
/// indices; every spoke is lossy and draws its latency per block.
fn star_relay() -> Topology {
    let mut b = Topology::builder();
    b.seed(17).backoff(0.5);
    let hub_a = b.relay();
    let hub_b = b.relay();
    let first = b.miners(10);
    lossy(&mut b, hub_a, hub_b, (0.2, 0.4), 0.1);
    for m in 0..10 {
        let hub = if m % 2 == 0 { hub_a } else { hub_b };
        lossy(&mut b, first + m, hub, (1.0, 1.0 + m as f64), 0.1);
    }
    b.build().unwrap()
}

/// A lossy ring with a compact-relay shortcut across it.
fn shortcut_overlay() -> Topology {
    let mut b = Topology::builder();
    b.miners(8);
    b.seed(99).backoff(2.0);
    for i in 0..8 {
        lossy(&mut b, i, (i + 1) % 8, (1.0, 3.0), 0.3);
    }
    b.shortcut(0, 4, 2.5);
    b.shortcut(2, 6, 4.0);
    b.build().unwrap()
}

/// A ring whose every attempt is lost 90% of the time, so the attempt
/// cap binds on many edges.
fn saturated_ring() -> Topology {
    let mut b = Topology::builder();
    b.miners(6);
    b.seed(5);
    for i in 0..6 {
        lossy(&mut b, i, (i + 1) % 6, (1.0, 2.0), 0.9);
    }
    b.build().unwrap()
}

/// 72 relays and 8 miners (node count above one 64-bit word), miners
/// spread over both words, edges placed by a fixed hash.
fn generated_wide() -> Topology {
    let mut b = Topology::builder();
    b.seed(2024);
    let mut miners = Vec::new();
    for n in 0..80 {
        if n % 10 == 3 {
            miners.push(b.miner());
        } else {
            b.relay();
        }
    }
    assert_eq!(miners.len(), 8);
    for n in 0..80usize {
        // A ring for connectivity plus two hashed chords per node.
        lossy(&mut b, n, (n + 1) % 80, (0.5, 2.0), 0.02);
        for k in 0..2u64 {
            let to = (seleth_net::hash(7, 3, n as u64, k, 0) % 80) as usize;
            if to != n {
                lossy(&mut b, n, to, (1.0, 4.0), 0.1);
            }
        }
    }
    b.build().unwrap()
}

/// Miner 3 has no links at all: its arrival is `INFINITY` from every
/// other producer, and nothing reaches beyond it as a producer.
fn isolated_miner() -> Topology {
    let mut b = Topology::builder();
    b.miners(4);
    b.seed(41);
    lossy(&mut b, 0, 1, (1.0, 2.0), 0.2);
    lossy(&mut b, 1, 2, (1.0, 2.0), 0.2);
    b.build().unwrap()
}

/// Equal fixed latencies on lossy links (and equal-width uniform ones
/// around a relay): arrivals tie exactly, so the lowest-index tie-break
/// decides hop counts and dedup drops.
fn fixed_ties() -> Topology {
    let mut b = Topology::builder();
    b.seed(8);
    b.miners(9);
    let hub = b.relay();
    for i in 0..9 {
        for j in [(i + 1) % 9, (i + 3) % 9] {
            b.edge_spec(Link {
                from: i,
                to: j,
                latency: Latency::Fixed(1.0),
                loss: 0.3,
                shortcut: false,
            });
        }
        lossy(&mut b, i, hub, (0.5, 0.5), 0.3);
    }
    b.build().unwrap()
}

#[test]
fn propagation_matches_its_anchors() {
    let cases: [(&str, Topology, &str); 7] = [
        (
            "two_cluster_bridge",
            two_cluster_bridge(),
            "d2ac47b2fdc10229",
        ),
        ("star_relay", star_relay(), "93db80a08324d057"),
        ("shortcut_overlay", shortcut_overlay(), "25e2578bda625b5b"),
        ("saturated_ring", saturated_ring(), "3d795ca9974a0b07"),
        ("generated_wide", generated_wide(), "893675c3f247139a"),
        ("isolated_miner", isolated_miner(), "9897edf736262c66"),
        ("fixed_ties", fixed_ties(), "c3811514821810c9"),
    ];
    let mut got = Vec::new();
    for (name, t, _) in &cases {
        assert!(!t.is_static(), "{name} must take the dynamic path");
        got.push(format!("{name}: {}", digest(t)));
    }
    let want: Vec<String> = cases
        .iter()
        .map(|(name, _, hex)| format!("{name}: {hex}"))
        .collect();
    assert_eq!(got, want);
}

#[test]
fn anchor_graphs_exercise_their_cases() {
    // The wide graph spans two bitset words and reaches every miner.
    let wide = generated_wide();
    assert!(wide.node_count() > 64);
    assert!((0..BLOCKS).all(|b| wide.propagate(0, b).arrival.iter().all(|a| a.is_finite())));
    // The 0.9 ring reaches the 8-attempt cap: some copy pays the full
    // capped backoff 1 + 2 + … + 64 + 64 = 191 on top of its latency.
    let ring = saturated_ring();
    let capped = (0..BLOCKS).any(|b| ring.propagate(0, b).arrival[1] >= 192.0);
    assert!(capped, "no block hit the attempt cap");
    // The isolated miner is unreachable, and reaches nobody.
    let iso = isolated_miner();
    let p = iso.propagate(0, 0);
    assert!(p.arrival[3].is_infinite());
    assert_eq!(p.hops[3], 0);
    let q = iso.propagate(3, 0);
    assert!(q.arrival[..3].iter().all(|a| a.is_infinite()));
    assert_eq!(q.stats.sends, 0);
}

#[test]
fn one_scratch_serves_every_topology_in_any_order() {
    let topologies = [
        two_cluster_bridge(),
        star_relay(),
        shortcut_overlay(),
        saturated_ring(),
        generated_wide(),
        isolated_miner(),
        fixed_ties(),
        // Static graphs take the precompiled row copy.
        Topology::star_relay(&[1.0, 2.0, 3.0]).unwrap(),
        Topology::complete(5, 6.0).unwrap(),
    ];
    let mut scratch = Scratch::default();
    let mut out = Propagation::default();
    for block in 0..200u64 {
        // Visit the topologies in a block-dependent rotation, so the
        // scratch shrinks and grows between node counts.
        for k in 0..topologies.len() {
            let t = &topologies[(k * 3 + block as usize) % topologies.len()];
            let producer = (block as usize + k) % t.miner_count();
            t.propagate_into(producer, block, &mut scratch, &mut out);
            assert_eq!(out, t.propagate(producer, block), "block {block}");
        }
    }
}
