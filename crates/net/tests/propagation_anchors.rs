//! Bit-identity anchors of gossip propagation.
//!
//! Each anchor is one digest over every producer × 2 000 blocks of a
//! topology. The schedule digest folds the arrival bits and hop count of
//! every miner plus the `sends` and `dedup_drops` totals of every call;
//! the full digest folds `loss_retries` too. The schedule digests were
//! captured before propagation stopped drawing for copies that cannot
//! win, from code the full digests pinned to the original
//! O(n²)-selection Dijkstra; the full digests were captured again when
//! `loss_retries` came to count winning copies only. Any change to the
//! propagation path that moves a single arrival, tie-break or schedule
//! counter fails here.
//!
//! An independent oracle sits beside them: a textbook Dijkstra with
//! O(n²) selection that draws every copy's coins and latency straight
//! from [`seleth_net::hash`] and the public graph description, with no
//! pruning. It must agree with [`Topology::propagate`] on the anchor
//! graphs and on random small lossy graphs.

use proptest::prelude::*;
use seleth_net::{
    hash, unit, GossipStats, Latency, Link, NodeRole, Propagation, Scratch, Topology,
    TopologyBuilder,
};

const BLOCKS: u64 = 2_000;

/// FNV-style fold over 64-bit words.
fn fold(h: u64, word: u64) -> u64 {
    (h ^ word).wrapping_mul(0x0000_0100_0000_01b3)
}

/// Fold one call's schedule, and its `loss_retries` when `retries`.
fn digest_one(mut h: u64, p: &Propagation, retries: bool) -> u64 {
    for (&a, &hops) in p.arrival.iter().zip(&p.hops) {
        h = fold(h, a.to_bits());
        h = fold(h, u64::from(hops));
    }
    h = fold(h, p.stats.sends);
    h = fold(h, p.stats.dedup_drops);
    if retries {
        h = fold(h, p.stats.loss_retries);
    }
    h
}

fn digest(t: &Topology, retries: bool) -> String {
    let mut h = 0xcbf2_9ce4_8422_2325;
    for producer in 0..t.miner_count() {
        for block in 0..BLOCKS {
            h = digest_one(h, &t.propagate(producer, block), retries);
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

/// Check every anchor graph's digest against `want`, in graph order.
fn check_anchors(retries: bool, want: [&str; 7]) {
    let names = [
        "two_cluster_bridge",
        "star_relay",
        "shortcut_overlay",
        "saturated_ring",
        "generated_wide",
        "isolated_miner",
        "fixed_ties",
    ];
    let mut got = Vec::new();
    for (name, t) in names.iter().zip(anchor_graphs()) {
        assert!(!t.is_static(), "{name} must take the dynamic path");
        got.push(format!("{name}: {}", digest(&t, retries)));
    }
    let want: Vec<String> = names
        .iter()
        .zip(want)
        .map(|(name, hex)| format!("{name}: {hex}"))
        .collect();
    assert_eq!(got, want);
}

/// The seven anchor graphs, in anchor order.
fn anchor_graphs() -> [Topology; 7] {
    [
        two_cluster_bridge(),
        star_relay(),
        shortcut_overlay(),
        saturated_ring(),
        generated_wide(),
        isolated_miner(),
        fixed_ties(),
    ]
}

#[test]
fn schedules_match_their_anchors() {
    check_anchors(
        false,
        [
            "8339a53be743bc9b",
            "cdb028504c73a663",
            "3399edbaa23cd761",
            "6cf72be4e61311d1",
            "e796d65ea01ee784",
            "5aa2ee7411296cf0",
            "e5d8cec62f72fcb6",
        ],
    );
}

#[test]
fn propagation_matches_its_anchors() {
    check_anchors(
        true,
        [
            "b43f81c5d4b0acb1",
            "99e9366b9cc46416",
            "b6454da64e533a73",
            "0da1be40a5b3ce84",
            "6d078d929f58c79a",
            "002692058aa809a4",
            "8a8c2fd1c4576526",
        ],
    );
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

/// Stream tags of the draw chain (`STREAM_LATENCY` and `STREAM_LOSS` in
/// `seleth-net`): latency draws on stream 1, loss coins on stream 2.
const LATENCY: u64 = 1;
const LOSS: u64 = 2;

/// Textbook gossip propagation over the public description of `t`: the
/// unsettled reached node with the lowest arrival settles next (lowest
/// index on ties), and it sends over every out-link in link order. Every
/// copy draws all its loss coins and its latency before the receiver's
/// seen-set looks at it. `loss_retries` sums the lost attempts of the
/// copy that set each reached node's final arrival.
fn oracle(t: &Topology, producer: usize, block: u64) -> Propagation {
    let roles = t.nodes();
    let n = roles.len();
    let node_of = |id: usize| {
        roles
            .iter()
            .position(|r| *r == NodeRole::Miner(id))
            .unwrap()
    };
    let (mut dist, mut hops, mut lost) = (vec![f64::INFINITY; n], vec![0u32; n], vec![0u32; n]);
    let mut settled = vec![false; n];
    let mut stats = GossipStats::default();
    dist[node_of(producer)] = 0.0;
    loop {
        let mut u = None;
        for v in 0..n {
            if !settled[v] && dist[v].is_finite() && u.is_none_or(|w: usize| dist[v] < dist[w]) {
                u = Some(v);
            }
        }
        let Some(u) = u else { break };
        settled[u] = true;
        stats.loss_retries += u64::from(lost[u]);
        for (e, link) in t.links().iter().enumerate().filter(|(_, l)| l.from == u) {
            stats.sends += 1;
            let e = e as u64;
            let mut attempts = 0;
            if !link.shortcut {
                while attempts < t.max_attempts()
                    && unit(hash(t.seed(), LOSS, block, e, attempts)) < link.loss
                {
                    attempts += 1;
                }
            }
            let mut time = match link.latency {
                Latency::Fixed(l) => l,
                Latency::Uniform { lo, hi } => {
                    lo + unit(hash(t.seed(), LATENCY, block, e, 0)) * (hi - lo)
                }
            };
            let mut backoff = 0.0;
            for a in 0..attempts {
                backoff += t.backoff_base() * 2f64.powi(a.min(6) as i32);
            }
            if attempts > 0 {
                time += backoff;
            }
            let v = link.to;
            let cand = dist[u] + time;
            if settled[v] || cand >= dist[v] {
                stats.dedup_drops += 1;
            } else {
                (dist[v], hops[v], lost[v]) = (cand, hops[u] + 1, attempts);
            }
        }
    }
    let miners = 0..t.miner_count();
    Propagation {
        arrival: miners.clone().map(|id| dist[node_of(id)]).collect(),
        hops: miners.map(|id| hops[node_of(id)]).collect(),
        stats,
    }
}

/// Compare `t` against the oracle for every producer over `blocks`,
/// arrivals bit for bit.
fn assert_matches_oracle(t: &Topology, blocks: std::ops::Range<u64>) {
    for producer in 0..t.miner_count() {
        for block in blocks.clone() {
            let (got, want) = (t.propagate(producer, block), oracle(t, producer, block));
            let bits = |p: &Propagation| p.arrival.iter().map(|a| a.to_bits()).collect::<Vec<_>>();
            assert_eq!(
                bits(&got),
                bits(&want),
                "arrivals, producer {producer} block {block}"
            );
            assert_eq!(
                got.hops, want.hops,
                "hops, producer {producer} block {block}"
            );
            assert_eq!(
                got.stats, want.stats,
                "stats, producer {producer} block {block}"
            );
        }
    }
}

#[test]
fn anchor_graphs_match_the_oracle() {
    for t in anchor_graphs() {
        assert_matches_oracle(&t, 0..200);
    }
}

/// A random graph of `nodes` nodes drawn from `seed`: some relays, about
/// `degree` out-links per node (some nodes get none, so miners can be
/// unreachable), fixed latencies on a coarse grid so arrivals tie,
/// uniform ones, lossy links up to the attempt cap, and shortcuts.
fn random_graph(nodes: usize, degree: u64, seed: u64) -> Topology {
    let mut k = 0u64;
    let mut draw = |bound: u64| {
        k += 1;
        hash(seed, 9, k, 0, 0) % bound
    };
    let mut b = Topology::builder();
    b.seed(seed)
        .backoff([0.25, 1.0, 3.0][draw(3) as usize])
        .max_attempts(1 + draw(8) as u32);
    for n in 0..nodes {
        if n == 0 || draw(4) != 0 {
            b.miner();
        } else {
            b.relay();
        }
    }
    for from in 0..nodes {
        for _ in 0..draw(2 * degree + 1) {
            let to = draw(nodes as u64) as usize;
            if to == from {
                continue;
            }
            let latency = if draw(2) == 0 {
                Latency::Fixed(draw(4) as f64 * 0.5)
            } else {
                let lo = draw(3) as f64;
                Latency::Uniform {
                    lo,
                    hi: lo + draw(3) as f64,
                }
            };
            b.edge_spec(Link {
                from,
                to,
                latency,
                loss: [0.0, 0.1, 0.5, 0.9][draw(4) as usize],
                shortcut: draw(6) == 0,
            });
        }
    }
    b.build().unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random small lossy graphs agree with the oracle on every producer.
    #[test]
    fn random_graphs_match_the_oracle(
        nodes in 2usize..12,
        degree in 1u64..4,
        seed in any::<u64>(),
    ) {
        assert_matches_oracle(&random_graph(nodes, degree, seed), 0..16);
    }
}
