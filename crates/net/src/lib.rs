//! Peer-graph gossip network layer for the selfish-ethereum workspace.
//!
//! The uniform delay model (`seleth_sim::delay`) treats propagation as a
//! single constant: every miner hears every block exactly `delay` seconds
//! after release. Real networks are graphs — miners and relay nodes joined
//! by links of unequal latency, with packet loss, re-gossip, and
//! compact-relay shortcuts — and the *position* of a miner in that graph
//! changes what selfish mining earns it. This crate supplies the graph:
//!
//! * [`Topology`]: a node set ([`NodeRole::Miner`] / [`NodeRole::Relay`])
//!   and directed [`Link`]s, each with a latency distribution
//!   ([`Latency::Fixed`] or [`Latency::Uniform`]), a loss probability and
//!   an optional compact-relay `shortcut` flag.
//! * A deterministic **gossip propagation engine**
//!   ([`Topology::propagate`]): blocks flood the graph with per-node
//!   seen-set dedup; the first copy to reach each node wins, every later
//!   copy is a dedup drop. Earliest arrivals are the graph
//!   shortest-path times under the per-edge traversal costs, computed by a
//!   deterministic Dijkstra (ties broken by node index).
//! * Builders for the canonical shapes the topology study sweeps:
//!   [`Topology::complete`], [`Topology::ring`], [`Topology::star_relay`],
//!   [`Topology::two_clusters`] and [`Topology::eclipse`], plus a general
//!   [`TopologyBuilder`].
//!
//! # Determinism contract
//!
//! All per-edge randomness — a `Uniform` latency draw, a loss coin — is a
//! pure function of `(topology seed, stream, block, edge, attempt)`
//! hashed through a splitmix64 counter chain, exactly like the fault
//! layer's per-link coins. The engine's RNG is **never** consulted, so a
//! propagation schedule is a constant of the topology and the block index:
//! bit-identical at any thread count, in any evaluation order.
//!
//! The complete-graph/uniform-latency topology reproduces the uniform
//! delay engine **bit-for-bit**: every pairwise arrival equals the edge
//! latency exactly (one hop, no loss), so the delay engine's folded
//! per-receiver surcharge is exactly `0.0` and every downstream `f64`
//! comparison is the same operation as in the uniform model. The PR 6 hex
//! anchors re-assert this in `tests/topology_study.rs`.
//!
//! # Example
//!
//! ```
//! use seleth_net::Topology;
//!
//! // Four miners behind one relay hub, 3s spokes: every pairwise
//! // arrival is 6s over two hops.
//! let star = Topology::star_relay(&[3.0, 3.0, 3.0, 3.0]).unwrap();
//! let p = star.propagate(0, 42);
//! assert_eq!(p.arrival[0], 0.0);
//! assert_eq!(p.arrival[2], 6.0);
//! assert_eq!(p.hops[2], 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

use serde::{Deserialize, Serialize};

/// Stream tag of per-edge latency draws in the splitmix64 chain.
const STREAM_LATENCY: u64 = 1;
/// Stream tag of per-edge loss coins in the splitmix64 chain.
const STREAM_LOSS: u64 = 2;

/// The splitmix64 finalizer: a cheap, well-mixed 64-bit permutation.
fn splitmix64(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Map a hash to `[0, 1)` with the standard 53-bit mantissa trick.
pub fn unit(h: u64) -> f64 {
    (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// One splitmix64 chain over `(seed, stream, block, edge, attempt)` — the
/// entire randomness of a topology, and of the simulator's fault plans
/// (`edge` is then the receiver). Counter-based, never stateful.
pub fn hash(seed: u64, stream: u64, block: u64, edge: u64, attempt: u32) -> u64 {
    hash_tail(hash_prefix(seed, stream, block), edge, attempt)
}

/// The `(seed, stream, block)` half of [`hash`]: constant over one
/// propagation, so it is computed once per block, not once per edge.
fn hash_prefix(seed: u64, stream: u64, block: u64) -> u64 {
    splitmix64(splitmix64(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15)) ^ block)
}

/// The `(edge, attempt)` half of [`hash`].
fn hash_tail(prefix: u64, edge: u64, attempt: u32) -> u64 {
    splitmix64(splitmix64(prefix ^ edge) ^ u64::from(attempt))
}

/// The integer form of the coin `unit(h) < p` for `p` in `[0, 1)`:
/// `unit(h) < p` holds exactly when `(h >> 11) < loss_cut(p)`, because
/// `unit(h)` is the 53-bit integer `h >> 11` scaled by the exact power
/// `2^-53`, and an integer lies below a real exactly when it lies below
/// the real's ceiling.
fn loss_cut(p: f64) -> u64 {
    (p * (1u64 << 53) as f64).ceil() as u64
}

/// What a graph node is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum NodeRole {
    /// A mining participant; the payload is the dense miner id (the index
    /// into the delay simulator's share vector).
    Miner(usize),
    /// A non-mining relay: it forwards gossip but never produces blocks.
    Relay,
}

/// Per-link latency model, in the simulation's time unit.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Latency {
    /// A constant traversal latency.
    Fixed(f64),
    /// A fresh draw per `(edge, block)` from `[lo, hi)`, via the
    /// counter-based splitmix64 chain (never the sim RNG).
    Uniform {
        /// Inclusive lower bound.
        lo: f64,
        /// Exclusive upper bound (equal to `lo` degenerates to fixed).
        hi: f64,
    },
}

impl Latency {
    /// The expected traversal latency (midpoint for `Uniform`), used for
    /// nominal-mean scaling — never on the propagation path.
    fn expected(&self) -> f64 {
        match *self {
            Latency::Fixed(l) => l,
            Latency::Uniform { lo, hi } => lo + (hi - lo) * 0.5,
        }
    }

    fn scaled(&self, factor: f64) -> Latency {
        match *self {
            Latency::Fixed(l) => Latency::Fixed(l * factor),
            Latency::Uniform { lo, hi } => Latency::Uniform {
                lo: lo * factor,
                hi: hi * factor,
            },
        }
    }

    fn validate(&self) -> Result<(), NetError> {
        let ok = match *self {
            Latency::Fixed(l) => l.is_finite() && l >= 0.0,
            Latency::Uniform { lo, hi } => {
                lo.is_finite() && hi.is_finite() && 0.0 <= lo && lo <= hi
            }
        };
        if ok {
            Ok(())
        } else {
            Err(NetError::InvalidLatency { latency: *self })
        }
    }
}

/// One directed edge of the peer graph.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Link {
    /// Source node index.
    pub from: usize,
    /// Destination node index.
    pub to: usize,
    /// Traversal latency model.
    pub latency: Latency,
    /// Probability that one gossip attempt over this link is lost
    /// (re-sent with capped exponential backoff until it succeeds).
    /// Must lie in `[0, 1)`.
    pub loss: f64,
    /// A compact-relay shortcut: announcement and body travel as one
    /// compact message on a persistent session, bypassing the loss/retry
    /// pipeline entirely (cf. compact-block relay networks).
    pub shortcut: bool,
}

/// Why a topology failed to build.
#[derive(Debug, Clone, PartialEq)]
pub enum NetError {
    /// The node set contains no miner.
    NoMiners,
    /// A link names a node index outside the node set.
    UnknownNode {
        /// The offending node index.
        node: usize,
        /// Number of nodes in the set.
        nodes: usize,
    },
    /// A link loops a node back to itself.
    SelfLoop {
        /// The offending node index.
        node: usize,
    },
    /// A latency bound is not a finite non-negative number (or an empty
    /// uniform range).
    InvalidLatency {
        /// The rejected latency model.
        latency: Latency,
    },
    /// A loss probability is outside `[0, 1)`.
    InvalidLoss {
        /// The rejected value.
        loss: f64,
    },
    /// A retry/backoff parameter is not positive finite.
    InvalidBackoff {
        /// The rejected value.
        backoff: f64,
    },
    /// A latency scale factor is not positive finite (e.g. the nominal
    /// mean was zero or the graph has unreachable miner pairs).
    InvalidScale {
        /// The rejected factor.
        factor: f64,
    },
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::NoMiners => write!(f, "a topology needs at least one miner node"),
            NetError::UnknownNode { node, nodes } => {
                write!(
                    f,
                    "link names node {node} but the topology has {nodes} nodes"
                )
            }
            NetError::SelfLoop { node } => write!(f, "node {node} links to itself"),
            NetError::InvalidLatency { latency } => {
                write!(f, "latency {latency:?} must be finite and non-negative")
            }
            NetError::InvalidLoss { loss } => write!(f, "loss {loss} must lie in [0, 1)"),
            NetError::InvalidBackoff { backoff } => {
                write!(f, "backoff {backoff} must be positive finite")
            }
            NetError::InvalidScale { factor } => {
                write!(f, "latency scale factor {factor} must be positive finite")
            }
        }
    }
}

impl std::error::Error for NetError {}

/// Deterministic gossip-accounting totals of one propagation (plain `u64`
/// counts: summing them across blocks or runs is order-independent).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct GossipStats {
    /// Gossip messages sent over edges out of reached nodes.
    pub sends: u64,
    /// Copies discarded by a receiver's seen-set (the receiver already
    /// held the block, or an equal-or-earlier copy was already queued).
    pub dedup_drops: u64,
    /// Lost attempts on each reached node's earliest-arrival copy (the
    /// last edge of its winning path), summed over the reached nodes.
    /// Copies a seen-set drops are not counted, so the total does not
    /// depend on which of them propagation skips drawing coins for.
    pub loss_retries: u64,
}

impl GossipStats {
    /// Add `other`'s totals into `self`.
    pub fn merge(&mut self, other: &GossipStats) {
        self.sends += other.sends;
        self.dedup_drops += other.dedup_drops;
        self.loss_retries += other.loss_retries;
    }
}

/// Earliest-arrival schedule of one block over the graph.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Propagation {
    /// Per miner id: time after release at which the miner first holds
    /// the block. `0.0` for the producer, [`f64::INFINITY`] if the graph
    /// never delivers it.
    pub arrival: Vec<f64>,
    /// Per miner id: edges on the earliest-arrival path (0 for the
    /// producer and for unreachable miners). Paths through relays count
    /// every edge, so a star delivery is 2 hops.
    pub hops: Vec<u32>,
    /// Gossip accounting of this propagation.
    pub stats: GossipStats,
}

/// Precomputed all-pairs schedule of a static topology (all latencies
/// fixed, no lossy links): propagation is block-independent, so the
/// engine's hot path degenerates to a row copy.
#[derive(Debug, Clone, PartialEq)]
struct StaticPlan {
    /// Flattened `[producer * miners + receiver]` arrivals.
    arrival: Vec<f64>,
    /// Flattened `[producer * miners + receiver]` hop counts.
    hops: Vec<u32>,
    /// Per-producer gossip stats.
    stats: Vec<GossipStats>,
}

/// One out-edge as the propagation loop reads it: a [`Link`] compiled
/// once at build time into the numbers its draws need.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Edge {
    /// Destination node index.
    to: usize,
    /// Index of the source [`Link`] (the `edge` input of every draw).
    link: u64,
    /// The fixed latency, or the lower bound of a uniform draw.
    lo: f64,
    /// `hi - lo` of a uniform draw (unused for a fixed latency).
    span: f64,
    /// Whether the latency is drawn per block ([`Latency::Uniform`]).
    draw: bool,
    /// [`loss_cut`] of the link's loss; `0` (never lost) for shortcuts
    /// and lossless links, which draw no coins at all.
    loss_cut: u64,
}

/// Reusable working memory of [`Topology::propagate_into`]: Dijkstra's
/// per-node arrays plus the frontier bitset. It adapts to any topology
/// size, so one `Scratch` can serve several topologies in turn; once it
/// has grown to the largest of them, propagation allocates nothing.
#[derive(Debug, Clone, Default)]
pub struct Scratch {
    /// Tentative (then final) arrival per node.
    dist: Vec<f64>,
    /// Edges on the current best path per node.
    hops: Vec<u32>,
    /// Lost attempts on the last edge of the current best path per node.
    lost: Vec<u32>,
    /// Bitset of reached but unsettled nodes (64 per word).
    frontier: Vec<u64>,
}

impl Scratch {
    /// Reset for a Dijkstra over `n` nodes from `src`.
    fn reset(&mut self, n: usize, src: usize) {
        self.dist.clear();
        self.dist.resize(n, f64::INFINITY);
        self.hops.clear();
        self.hops.resize(n, 0);
        self.lost.clear();
        self.lost.resize(n, 0);
        self.frontier.clear();
        self.frontier.resize(n.div_ceil(64), 0);
        self.dist[src] = 0.0;
        self.frontier[src / 64] |= 1 << (src % 64);
    }

    /// The frontier node with the lowest tentative arrival, the lowest
    /// index on ties (bits ascend, and the strict `<` keeps the earlier
    /// one); `None` once the frontier is empty.
    fn pop_nearest(&mut self) -> Option<usize> {
        let (mut u, mut best) = (usize::MAX, f64::INFINITY);
        for (w, &word) in self.frontier.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                let v = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                // Every frontier arrival is finite, so the first node
                // always beats the initial `INFINITY`.
                if self.dist[v] < best {
                    (u, best) = (v, self.dist[v]);
                }
            }
        }
        if u == usize::MAX {
            return None;
        }
        self.frontier[u / 64] &= !(1 << (u % 64));
        Some(u)
    }
}

/// A validated peer graph. Build one with [`Topology::builder`] or a
/// canonical-shape constructor, then hand it to the delay simulator as a
/// `PropagationModel` (or query [`Topology::propagate`] directly).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Topology {
    nodes: Vec<NodeRole>,
    links: Vec<Link>,
    /// Compiled out-edges grouped by source node, each group in link
    /// insertion order (part of the deterministic tie-break contract).
    edges: Vec<Edge>,
    /// Node `u`'s out-edges are `edges[edge_start[u]..edge_start[u + 1]]`.
    edge_start: Vec<usize>,
    /// Node index of each dense miner id.
    miner_nodes: Vec<usize>,
    seed: u64,
    /// Loss re-send attempts before the copy is forced through (gossip
    /// keeps retrying forever; the cap bounds the arithmetic).
    max_attempts: u32,
    /// Base of the capped exponential re-send backoff.
    backoff_base: f64,
    /// All-pairs schedule when the graph is static (no per-block draws).
    static_plan: Option<StaticPlan>,
}

/// Incremental constructor for arbitrary [`Topology`] graphs.
#[derive(Debug, Clone)]
pub struct TopologyBuilder {
    nodes: Vec<NodeRole>,
    links: Vec<Link>,
    seed: u64,
    max_attempts: u32,
    backoff_base: f64,
}

impl Default for TopologyBuilder {
    fn default() -> Self {
        TopologyBuilder {
            nodes: Vec::new(),
            links: Vec::new(),
            seed: 0,
            max_attempts: 8,
            backoff_base: 1.0,
        }
    }
}

impl TopologyBuilder {
    /// Append a miner node; returns its node index. Miner ids are dense
    /// and assigned in call order (the first call is miner 0).
    pub fn miner(&mut self) -> usize {
        let id = self
            .nodes
            .iter()
            .filter(|n| matches!(n, NodeRole::Miner(_)))
            .count();
        self.nodes.push(NodeRole::Miner(id));
        self.nodes.len() - 1
    }

    /// Append `count` miner nodes; returns the node index of the first.
    pub fn miners(&mut self, count: usize) -> usize {
        let first = self.nodes.len();
        for _ in 0..count {
            self.miner();
        }
        first
    }

    /// Append a relay node; returns its node index.
    pub fn relay(&mut self) -> usize {
        self.nodes.push(NodeRole::Relay);
        self.nodes.len() - 1
    }

    /// Seed of the counter-based per-edge draw chain.
    pub fn seed(&mut self, seed: u64) -> &mut Self {
        self.seed = seed;
        self
    }

    /// Base of the capped exponential re-send backoff after a lost gossip
    /// (default 1.0 time units; the cap is `base * 2^6`).
    pub fn backoff(&mut self, base: f64) -> &mut Self {
        self.backoff_base = base;
        self
    }

    /// Loss re-send attempts before a copy is forced through (default 8).
    pub fn max_attempts(&mut self, attempts: u32) -> &mut Self {
        self.max_attempts = attempts.max(1);
        self
    }

    /// Add one directed lossless fixed-latency edge.
    pub fn edge(&mut self, from: usize, to: usize, latency: f64) -> &mut Self {
        self.links.push(Link {
            from,
            to,
            latency: Latency::Fixed(latency),
            loss: 0.0,
            shortcut: false,
        });
        self
    }

    /// Add a lossless fixed-latency edge in both directions.
    pub fn link(&mut self, a: usize, b: usize, latency: f64) -> &mut Self {
        self.edge(a, b, latency).edge(b, a, latency)
    }

    /// Add one fully specified directed edge.
    pub fn edge_spec(&mut self, link: Link) -> &mut Self {
        self.links.push(link);
        self
    }

    /// Add a compact-relay shortcut in both directions: fixed latency, no
    /// loss pipeline (see [`Link::shortcut`]).
    pub fn shortcut(&mut self, a: usize, b: usize, latency: f64) -> &mut Self {
        for (from, to) in [(a, b), (b, a)] {
            self.links.push(Link {
                from,
                to,
                latency: Latency::Fixed(latency),
                loss: 0.0,
                shortcut: true,
            });
        }
        self
    }

    /// Validate and build the topology.
    ///
    /// # Errors
    ///
    /// [`NetError`] when the node set has no miner, a link names an
    /// unknown node or loops, a latency or loss parameter is out of
    /// range, or the backoff base is not positive finite.
    pub fn build(&self) -> Result<Topology, NetError> {
        let miners = self
            .nodes
            .iter()
            .filter(|n| matches!(n, NodeRole::Miner(_)))
            .count();
        if miners == 0 {
            return Err(NetError::NoMiners);
        }
        if !self.backoff_base.is_finite() || self.backoff_base <= 0.0 {
            return Err(NetError::InvalidBackoff {
                backoff: self.backoff_base,
            });
        }
        for link in &self.links {
            for node in [link.from, link.to] {
                if node >= self.nodes.len() {
                    return Err(NetError::UnknownNode {
                        node,
                        nodes: self.nodes.len(),
                    });
                }
            }
            if link.from == link.to {
                return Err(NetError::SelfLoop { node: link.from });
            }
            link.latency.validate()?;
            if !link.loss.is_finite() || !(0.0..1.0).contains(&link.loss) {
                return Err(NetError::InvalidLoss { loss: link.loss });
            }
        }
        // CSR out-edges: a stable sort by source keeps each node's links
        // in insertion order.
        let mut order: Vec<usize> = (0..self.links.len()).collect();
        order.sort_by_key(|&e| self.links[e].from);
        let edges = order
            .into_iter()
            .map(|e| {
                let link = &self.links[e];
                let (lo, span, draw) = match link.latency {
                    Latency::Fixed(l) => (l, 0.0, false),
                    Latency::Uniform { lo, hi } => (lo, hi - lo, true),
                };
                Edge {
                    to: link.to,
                    link: e as u64,
                    lo,
                    span,
                    draw,
                    loss_cut: if link.shortcut {
                        0
                    } else {
                        loss_cut(link.loss)
                    },
                }
            })
            .collect();
        let mut edge_start = vec![0usize; self.nodes.len() + 1];
        for link in &self.links {
            edge_start[link.from + 1] += 1;
        }
        for u in 0..self.nodes.len() {
            edge_start[u + 1] += edge_start[u];
        }
        let mut miner_nodes = vec![0usize; miners];
        for (n, role) in self.nodes.iter().enumerate() {
            if let NodeRole::Miner(id) = role {
                miner_nodes[*id] = n;
            }
        }
        let mut topology = Topology {
            nodes: self.nodes.clone(),
            links: self.links.clone(),
            edges,
            edge_start,
            miner_nodes,
            seed: self.seed,
            max_attempts: self.max_attempts,
            backoff_base: self.backoff_base,
            static_plan: None,
        };
        if topology.is_static() {
            topology.static_plan = Some(topology.compile_static());
        }
        Ok(topology)
    }
}

impl Topology {
    /// Start building an arbitrary graph.
    pub fn builder() -> TopologyBuilder {
        TopologyBuilder::default()
    }

    /// The complete graph over `miners` miners with one fixed `latency`
    /// on every ordered pair — the uniform delay model as a topology.
    /// With the delay simulator's base delay set to the same value the
    /// run is bit-identical to the uniform engine.
    ///
    /// # Errors
    ///
    /// [`NetError`] for zero miners or an invalid latency.
    pub fn complete(miners: usize, latency: f64) -> Result<Topology, NetError> {
        let mut b = Topology::builder();
        b.miners(miners);
        for i in 0..miners {
            for j in (i + 1)..miners {
                b.link(i, j, latency);
            }
        }
        b.build()
    }

    /// A bidirectional ring of `miners` miners with `hop_latency` per
    /// hop: arrival time grows linearly with ring distance.
    ///
    /// # Errors
    ///
    /// [`NetError`] for zero miners or an invalid latency.
    pub fn ring(miners: usize, hop_latency: f64) -> Result<Topology, NetError> {
        let mut b = Topology::builder();
        b.miners(miners);
        for i in 0..miners {
            b.link(i, (i + 1) % miners, hop_latency);
        }
        b.build()
    }

    /// A star: every miner hangs off one central relay node by its spoke
    /// latency (`spokes[i]` for miner `i`); pairwise arrival is the sum
    /// of the two spokes, over two hops. Unequal spokes express
    /// well-connected vs peripheral miners.
    ///
    /// # Errors
    ///
    /// [`NetError`] for an empty spoke list or an invalid latency.
    pub fn star_relay(spokes: &[f64]) -> Result<Topology, NetError> {
        let mut b = Topology::builder();
        b.miners(spokes.len());
        let hub = b.relay();
        for (i, &s) in spokes.iter().enumerate() {
            b.link(i, hub, s);
        }
        b.build()
    }

    /// Two complete clusters of `a` and `b` miners (intra-cluster latency
    /// `intra`) joined by a single bridge between miner `0` and miner `a`
    /// with latency `bridge` — a graph with a cut. Timed partitions over
    /// the cluster assignment express the cut opening and healing.
    ///
    /// # Errors
    ///
    /// [`NetError`] for an empty cluster or an invalid latency.
    pub fn two_clusters(a: usize, b: usize, intra: f64, bridge: f64) -> Result<Topology, NetError> {
        if a == 0 || b == 0 {
            return Err(NetError::NoMiners);
        }
        let mut bld = Topology::builder();
        bld.miners(a + b);
        for cluster in [0..a, a..a + b] {
            let members: Vec<usize> = cluster.collect();
            for (x, &i) in members.iter().enumerate() {
                for &j in &members[x + 1..] {
                    bld.link(i, j, intra);
                }
            }
        }
        bld.link(0, a, bridge);
        bld.build()
    }

    /// An eclipse-of-one: all miners except `victim` form a complete
    /// graph at `inner`; the victim's only connection is a single choked
    /// link (latency `choke`) to the lowest-indexed other miner.
    ///
    /// # Errors
    ///
    /// [`NetError`] for fewer than two miners, a victim index out of
    /// range, or an invalid latency.
    pub fn eclipse(
        miners: usize,
        victim: usize,
        inner: f64,
        choke: f64,
    ) -> Result<Topology, NetError> {
        if miners < 2 || victim >= miners {
            return Err(NetError::NoMiners);
        }
        let mut b = Topology::builder();
        b.miners(miners);
        for i in 0..miners {
            if i == victim {
                continue;
            }
            for j in (i + 1)..miners {
                if j == victim {
                    continue;
                }
                b.link(i, j, inner);
            }
        }
        let gateway = (0..miners).find(|&m| m != victim).unwrap_or(0);
        b.link(victim, gateway, choke);
        b.build()
    }

    /// Number of miner nodes (dense ids `0..miner_count`).
    pub fn miner_count(&self) -> usize {
        self.miner_nodes.len()
    }

    /// Total number of graph nodes (miners + relays).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of relay nodes.
    pub fn relay_count(&self) -> usize {
        self.nodes.len() - self.miner_nodes.len()
    }

    /// The role of every graph node, by node index.
    pub fn nodes(&self) -> &[NodeRole] {
        &self.nodes
    }

    /// The directed links of the graph.
    pub fn links(&self) -> &[Link] {
        &self.links
    }

    /// Loss re-send attempts before a copy is forced through.
    pub fn max_attempts(&self) -> u32 {
        self.max_attempts
    }

    /// Base of the capped exponential re-send backoff.
    pub fn backoff_base(&self) -> f64 {
        self.backoff_base
    }

    /// The seed of the per-edge draw chain.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// A copy with a different draw seed (schedules decorrelate across
    /// runs while the graph shape stays put). Static topologies are
    /// unaffected — their schedule never consults the seed.
    pub fn with_seed(&self, seed: u64) -> Topology {
        Topology {
            seed,
            ..self.clone()
        }
    }

    /// `true` when propagation is block-independent: every latency fixed
    /// and every link lossless (shortcut links are always lossless).
    pub fn is_static(&self) -> bool {
        self.links
            .iter()
            .all(|l| matches!(l.latency, Latency::Fixed(_)) && (l.shortcut || l.loss == 0.0))
    }

    /// Mean nominal arrival latency over ordered miner pairs `(i, j)`,
    /// `i != j`, using expected per-edge latencies and ignoring loss —
    /// the normalizer that puts different shapes at the same effective
    /// delay. [`f64::INFINITY`] if any pair is unreachable.
    pub fn nominal_mean_latency(&self) -> f64 {
        let m = self.miner_count();
        if m < 2 {
            return 0.0;
        }
        let mut total = 0.0;
        let mut scratch = Scratch::default();
        for p in 0..m {
            self.shortest_from(
                self.miner_nodes[p],
                &mut scratch,
                &mut GossipStats::default(),
                |_| 0,
                |edge, _| self.links[edge.link as usize].latency.expected(),
            );
            for r in 0..m {
                if r != p {
                    total += scratch.dist[self.miner_nodes[r]];
                }
            }
        }
        total / (m * (m - 1)) as f64
    }

    /// A copy with every latency multiplied by `factor`.
    ///
    /// # Errors
    ///
    /// [`NetError::InvalidScale`] unless `factor` is positive finite.
    pub fn scaled(&self, factor: f64) -> Result<Topology, NetError> {
        if !factor.is_finite() || factor <= 0.0 {
            return Err(NetError::InvalidScale { factor });
        }
        let mut b = TopologyBuilder {
            nodes: self.nodes.clone(),
            links: self.links.clone(),
            seed: self.seed,
            max_attempts: self.max_attempts,
            backoff_base: self.backoff_base,
        };
        for link in &mut b.links {
            link.latency = link.latency.scaled(factor);
        }
        b.build()
    }

    /// A copy rescaled so [`Topology::nominal_mean_latency`] equals
    /// `target` — the study's fixed-mean-delay normalization.
    ///
    /// # Errors
    ///
    /// [`NetError::InvalidScale`] when the current mean is zero or not
    /// finite (unreachable miner pairs cannot be normalized).
    pub fn scaled_to_mean(&self, target: f64) -> Result<Topology, NetError> {
        let mean = self.nominal_mean_latency();
        self.scaled(target / mean)
    }

    /// Gossip `block` from miner `producer` through the graph and return
    /// the earliest-arrival schedule per miner: [`Topology::propagate_into`]
    /// with fresh buffers.
    ///
    /// # Panics
    ///
    /// If `producer` is not a valid miner id.
    pub fn propagate(&self, producer: usize, block: u64) -> Propagation {
        let mut out = Propagation::default();
        self.propagate_into(producer, block, &mut Scratch::default(), &mut out);
        out
    }

    /// Gossip `block` from miner `producer` through the graph and write
    /// the earliest-arrival schedule per miner into `out`.
    ///
    /// Every reached node forwards to all its out-links; per-node
    /// seen-sets drop all but the first copy. Lost copies (per-edge,
    /// per-attempt counter-hashed coins) re-send with capped exponential
    /// backoff added to the traversal time. The result is a deterministic
    /// function of `(topology, producer, block)` alone — not of `scratch`
    /// or of what `out` held before. Once `scratch` and `out` have grown
    /// to this topology's size, the call allocates nothing.
    ///
    /// # Panics
    ///
    /// If `producer` is not a valid miner id.
    pub fn propagate_into(
        &self,
        producer: usize,
        block: u64,
        scratch: &mut Scratch,
        out: &mut Propagation,
    ) {
        if let Some((arrival, hops, stats)) = self.static_row(producer) {
            out.arrival.clear();
            out.arrival.extend_from_slice(arrival);
            out.hops.clear();
            out.hops.extend_from_slice(hops);
            out.stats = stats;
            return;
        }
        self.propagate_dynamic(producer, block, scratch, out);
    }

    /// The precompiled schedule of `producer` on a static graph; `None`
    /// when propagation is per-block.
    ///
    /// # Panics
    ///
    /// If `producer` is not a valid miner id.
    #[inline]
    fn static_row(&self, producer: usize) -> Option<(&[f64], &[u32], GossipStats)> {
        let m = self.miner_count();
        assert!(
            producer < m,
            "producer {producer} out of range for {m} miners"
        );
        let plan = self.static_plan.as_ref()?;
        let row = producer * m..(producer + 1) * m;
        Some((
            &plan.arrival[row.clone()],
            &plan.hops[row],
            plan.stats[producer],
        ))
    }

    /// The general (per-block) propagation path.
    fn propagate_dynamic(
        &self,
        producer: usize,
        block: u64,
        scratch: &mut Scratch,
        out: &mut Propagation,
    ) {
        let latency = hash_prefix(self.seed, STREAM_LATENCY, block);
        let loss = hash_prefix(self.seed, STREAM_LOSS, block);
        let mut stats = GossipStats::default();
        self.shortest_from(
            self.miner_nodes[producer],
            scratch,
            &mut stats,
            |edge| self.lost_attempts(edge, loss),
            |edge, lost| self.traversal_time(edge, latency, lost),
        );
        out.arrival.clear();
        out.arrival
            .extend(self.miner_nodes.iter().map(|&n| scratch.dist[n]));
        out.hops.clear();
        out.hops
            .extend(self.miner_nodes.iter().map(|&n| scratch.hops[n]));
        out.stats = stats;
    }

    /// Effective traversal time of `edge`, given the block's latency hash
    /// prefix and the attempts the edge lost: the latency draw plus
    /// re-send backoff for every lost attempt. Shortcut and lossless
    /// links skip the loss pipeline.
    fn traversal_time(&self, edge: &Edge, latency: u64, lost: u32) -> f64 {
        let base = if edge.draw {
            edge.lo + unit(hash_tail(latency, edge.link, 0)) * edge.span
        } else {
            edge.lo
        };
        if edge.loss_cut == 0 {
            return base;
        }
        let mut extra = 0.0;
        for attempt in 0..lost {
            // Capped exponential backoff, mirroring the fault layer's
            // re-gossip schedule.
            let exp = attempt.min(6) as i32;
            extra += self.backoff_base * 2f64.powi(exp);
        }
        base + extra
    }

    /// Attempts lost on `edge` before one goes through (or the cap
    /// forces it), given the block's loss hash prefix: the coin of
    /// attempt `a` is `hash_tail(loss, link, a)`, lost when
    /// `unit(coin) < loss`, tested in its integer form.
    fn lost_attempts(&self, edge: &Edge, loss: u64) -> u32 {
        if edge.loss_cut == 0 {
            return 0;
        }
        let mut attempt = 0u32;
        while attempt < self.max_attempts
            && (hash_tail(loss, edge.link, attempt) >> 11) < edge.loss_cut
        {
            attempt += 1;
        }
        attempt
    }

    /// Deterministic Dijkstra from `src` into `s`, with ties broken by
    /// node index and gossip accounting folded into `stats`. Selection
    /// scans only the frontier bitset of reached, unsettled nodes.
    ///
    /// A copy over `edge` first meets one test: if `du + edge.lo` does
    /// not beat the receiver's tentative arrival, it is a dedup drop and
    /// draws nothing. That is exact, because every `weight` is at least
    /// `edge.lo` (latency bounds and the backoff base are non-negative)
    /// and `f64` addition is monotone, so the priced copy would have been
    /// dropped too; and it covers settled receivers, whose arrival is at
    /// most `du`. Only a copy that passes draws its loss coins
    /// (`lost_attempts`) and is priced by `weight`. The lost attempts of
    /// each node's winning copy count into `loss_retries` when it
    /// settles.
    fn shortest_from(
        &self,
        src: usize,
        s: &mut Scratch,
        stats: &mut GossipStats,
        lost_attempts: impl Fn(&Edge) -> u32,
        weight: impl Fn(&Edge, u32) -> f64,
    ) {
        s.reset(self.nodes.len(), src);
        while let Some(u) = s.pop_nearest() {
            let (du, hu) = (s.dist[u], s.hops[u]);
            stats.loss_retries += u64::from(s.lost[u]);
            let out = &self.edges[self.edge_start[u]..self.edge_start[u + 1]];
            stats.sends += out.len() as u64;
            for edge in out {
                let v = edge.to;
                // The receiver's seen-set drops the copy when it already
                // holds the block or an equal-or-earlier copy is in
                // flight; one that cannot beat it even unpriced draws
                // nothing.
                if du + edge.lo >= s.dist[v] {
                    stats.dedup_drops += 1;
                    continue;
                }
                let lost = lost_attempts(edge);
                let cand = du + weight(edge, lost);
                if cand >= s.dist[v] {
                    stats.dedup_drops += 1;
                    continue;
                }
                s.dist[v] = cand;
                s.hops[v] = hu + 1;
                s.lost[v] = lost;
                s.frontier[v / 64] |= 1 << (v % 64);
            }
        }
    }

    /// All-pairs schedule of a static graph (every latency fixed, no
    /// loss): one Dijkstra per producer at build time, then every
    /// [`Topology::propagate`] is a row copy.
    fn compile_static(&self) -> StaticPlan {
        let m = self.miner_count();
        let mut arrival = Vec::with_capacity(m * m);
        let mut hops_flat = Vec::with_capacity(m * m);
        let mut stats = Vec::with_capacity(m);
        let (mut scratch, mut prop) = (Scratch::default(), Propagation::default());
        for p in 0..m {
            self.propagate_dynamic(p, 0, &mut scratch, &mut prop);
            arrival.extend_from_slice(&prop.arrival);
            hops_flat.extend_from_slice(&prop.hops);
            stats.push(prop.stats);
        }
        StaticPlan {
            arrival,
            hops: hops_flat,
            stats,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn complete_graph_arrivals_equal_the_edge_latency() {
        let t = Topology::complete(4, 6.0).unwrap();
        assert!(t.is_static());
        assert_eq!(t.miner_count(), 4);
        assert_eq!(t.relay_count(), 0);
        for p in 0..4 {
            let prop = t.propagate(p, 7);
            for r in 0..4 {
                if r == p {
                    assert_eq!(prop.arrival[r], 0.0);
                    assert_eq!(prop.hops[r], 0);
                } else {
                    // Bitwise the edge latency: the bit-identity contract.
                    assert_eq!(prop.arrival[r].to_bits(), 6.0f64.to_bits());
                    assert_eq!(prop.hops[r], 1);
                }
            }
        }
    }

    #[test]
    fn ring_arrival_grows_with_distance() {
        let t = Topology::ring(6, 2.0).unwrap();
        let p = t.propagate(0, 0);
        assert_eq!(p.arrival[1], 2.0);
        assert_eq!(p.arrival[2], 4.0);
        assert_eq!(p.arrival[3], 6.0); // antipode, either way round
        assert_eq!(p.arrival[5], 2.0);
        assert_eq!(p.hops[3], 3);
    }

    #[test]
    fn star_relay_sums_spokes_over_two_hops() {
        let t = Topology::star_relay(&[1.0, 3.0, 5.0]).unwrap();
        assert_eq!(t.relay_count(), 1);
        let p = t.propagate(0, 0);
        assert_eq!(p.arrival[1], 4.0);
        assert_eq!(p.arrival[2], 6.0);
        assert_eq!(p.hops[1], 2);
        // The peripheral miner is symmetrically late as a producer.
        let q = t.propagate(2, 0);
        assert_eq!(q.arrival[0], 6.0);
        assert_eq!(q.arrival[1], 8.0);
    }

    #[test]
    fn two_clusters_cross_via_the_bridge() {
        let t = Topology::two_clusters(2, 2, 1.0, 10.0).unwrap();
        let p = t.propagate(1, 0);
        assert_eq!(p.arrival[0], 1.0);
        // 1 -> 0 -> bridge -> 2: 1 + 10
        assert_eq!(p.arrival[2], 11.0);
        assert_eq!(p.arrival[3], 12.0);
        assert_eq!(p.hops[2], 2);
    }

    #[test]
    fn eclipse_funnels_the_victim_through_the_choke() {
        let t = Topology::eclipse(4, 2, 1.0, 9.0).unwrap();
        let p = t.propagate(0, 0);
        assert_eq!(p.arrival[1], 1.0);
        assert_eq!(p.arrival[3], 1.0);
        assert_eq!(p.arrival[2], 9.0); // via gateway miner 0
        let q = t.propagate(2, 0);
        assert_eq!(q.arrival[0], 9.0);
        assert_eq!(q.arrival[1], 10.0);
    }

    #[test]
    fn unreachable_miners_arrive_at_infinity() {
        let mut b = Topology::builder();
        b.miners(3);
        b.link(0, 1, 2.0); // miner 2 is isolated
        let t = b.build().unwrap();
        let p = t.propagate(0, 0);
        assert_eq!(p.arrival[1], 2.0);
        assert!(p.arrival[2].is_infinite());
        assert_eq!(p.hops[2], 0);
    }

    #[test]
    fn shortcut_beats_the_lossy_path_and_skips_coins() {
        // A lossy direct link vs a lossless shortcut of equal latency:
        // the shortcut must win whenever the loss coin fires.
        let mut b = Topology::builder();
        b.miners(2);
        b.seed(3).backoff(2.0);
        b.edge_spec(Link {
            from: 0,
            to: 1,
            latency: Latency::Fixed(4.0),
            loss: 0.9,
            shortcut: false,
        });
        b.shortcut(0, 1, 4.0);
        let t = b.build().unwrap();
        assert!(!t.is_static());
        let p = t.propagate(0, 1);
        assert_eq!(p.arrival[1], 4.0, "the shortcut path is never delayed");
    }

    #[test]
    fn lossy_links_retry_deterministically() {
        let mut b = Topology::builder();
        b.miners(2);
        b.seed(11).backoff(1.5);
        b.edge_spec(Link {
            from: 0,
            to: 1,
            latency: Latency::Fixed(2.0),
            loss: 0.5,
            shortcut: false,
        });
        let t = b.build().unwrap();
        let a = t.propagate(0, 5);
        let b2 = t.propagate(0, 5);
        assert_eq!(a, b2, "same (topology, block) => same schedule");
        // Across many blocks, some draw retries (arrival > base latency).
        let delayed = (0..200)
            .filter(|&blk| t.propagate(0, blk).arrival[1] > 2.0)
            .count();
        assert!(delayed > 40, "0.5 loss should delay ~half: {delayed}/200");
        let total_retries: u64 = (0..200)
            .map(|blk| t.propagate(0, blk).stats.loss_retries)
            .sum();
        assert!(total_retries > 0);
    }

    #[test]
    fn uniform_latency_draws_stay_in_range_and_vary_by_block() {
        let mut b = Topology::builder();
        b.miners(2);
        b.seed(29);
        b.edge_spec(Link {
            from: 0,
            to: 1,
            latency: Latency::Uniform { lo: 1.0, hi: 3.0 },
            loss: 0.0,
            shortcut: false,
        });
        let t = b.build().unwrap();
        assert!(!t.is_static());
        let mut distinct = std::collections::BTreeSet::new();
        for blk in 0..50 {
            let a = t.propagate(0, blk).arrival[1];
            assert!((1.0..3.0).contains(&a), "draw {a} out of range");
            distinct.insert(a.to_bits());
        }
        assert!(distinct.len() > 10, "draws should vary by block");
    }

    #[test]
    fn dedup_drops_count_redundant_copies() {
        // Complete graph: each delivery also draws redundant copies from
        // every other reached node.
        let t = Topology::complete(4, 1.0).unwrap();
        let p = t.propagate(0, 0);
        // 12 directed edges among reached nodes are all explored; 3 are
        // first deliveries, the rest hit seen-sets.
        assert_eq!(p.stats.sends, 12);
        assert_eq!(p.stats.dedup_drops, 9);
    }

    #[test]
    fn builder_validation_rejects_malformed_graphs() {
        assert!(matches!(
            Topology::builder().build(),
            Err(NetError::NoMiners)
        ));
        let mut b = Topology::builder();
        b.miners(2);
        b.edge(0, 5, 1.0);
        assert!(matches!(
            b.build(),
            Err(NetError::UnknownNode { node: 5, .. })
        ));
        let mut b = Topology::builder();
        b.miners(2);
        b.edge(1, 1, 1.0);
        assert!(matches!(b.build(), Err(NetError::SelfLoop { node: 1 })));
        let mut b = Topology::builder();
        b.miners(2);
        b.edge(0, 1, -2.0);
        assert!(matches!(b.build(), Err(NetError::InvalidLatency { .. })));
        let mut b = Topology::builder();
        b.miners(2);
        b.edge_spec(Link {
            from: 0,
            to: 1,
            latency: Latency::Fixed(1.0),
            loss: 1.0,
            shortcut: false,
        });
        assert!(matches!(b.build(), Err(NetError::InvalidLoss { .. })));
        let mut b = Topology::builder();
        b.miners(2);
        b.backoff(0.0);
        assert!(matches!(b.build(), Err(NetError::InvalidBackoff { .. })));
        assert!(Topology::complete(0, 1.0).is_err());
        assert!(Topology::two_clusters(0, 3, 1.0, 2.0).is_err());
        assert!(Topology::eclipse(4, 9, 1.0, 2.0).is_err());
    }

    #[test]
    fn nominal_mean_and_rescaling() {
        let t = Topology::star_relay(&[1.0, 1.0, 4.0]).unwrap();
        // Ordered pairs: (0,1)=2, (0,2)=5, (1,2)=5 and mirrors -> mean 4.
        assert!((t.nominal_mean_latency() - 4.0).abs() < 1e-12);
        let s = t.scaled_to_mean(6.0).unwrap();
        assert!((s.nominal_mean_latency() - 6.0).abs() < 1e-12);
        let p = s.propagate(0, 0);
        assert!((p.arrival[1] - 3.0).abs() < 1e-12);
        // Unreachable pairs cannot be normalized.
        let mut b = Topology::builder();
        b.miners(2);
        let iso = b.build().unwrap();
        assert!(iso.nominal_mean_latency().is_infinite());
        assert!(matches!(
            iso.scaled_to_mean(6.0),
            Err(NetError::InvalidScale { .. })
        ));
    }

    #[test]
    fn static_plan_matches_the_dynamic_path() {
        let t = Topology::two_clusters(3, 2, 1.5, 7.0).unwrap();
        assert!(t.is_static());
        for p in 0..5 {
            let cached = t.propagate(p, 123);
            let mut fresh = Propagation::default();
            t.propagate_dynamic(p, 123, &mut Scratch::default(), &mut fresh);
            assert_eq!(cached, fresh);
        }
    }

    #[test]
    fn seed_changes_dynamic_schedules_only() {
        let mut b = Topology::builder();
        b.miners(2);
        b.seed(1);
        b.edge_spec(Link {
            from: 0,
            to: 1,
            latency: Latency::Uniform { lo: 0.0, hi: 5.0 },
            loss: 0.0,
            shortcut: false,
        });
        let t1 = b.build().unwrap();
        let t2 = t1.with_seed(2);
        let diff = (0..64).any(|blk| t1.propagate(0, blk) != t2.propagate(0, blk));
        assert!(diff, "reseeding must decorrelate uniform draws");
        let s1 = Topology::complete(3, 2.0).unwrap();
        let s2 = s1.with_seed(99);
        assert_eq!(s1.propagate(0, 0), s2.propagate(0, 0));
    }

    #[test]
    fn loss_cut_is_the_integer_form_of_the_float_coin() {
        let tiny = f64::from_bits(1); // smallest positive f64
        let ulp = 1.0 / (1u64 << 53) as f64;
        let mut losses = vec![0.05, 0.5, 1.0 - ulp, tiny];
        losses.extend([1u64, 3, 12_345, 1 << 52].map(|k| k as f64 * ulp));
        let mut low = 0x5eed_u64;
        for loss in losses {
            let cut = loss_cut(loss);
            assert!((1..=1 << 53).contains(&cut), "cut {cut} for loss {loss:e}");
            for k in [cut.wrapping_sub(1), cut, cut + 1] {
                if k >= 1 << 53 {
                    continue; // `h >> 11` never reaches 2^53
                }
                for _ in 0..16 {
                    low = splitmix64(low);
                    let h = (k << 11) | (low & 0x7ff);
                    assert_eq!(
                        (h >> 11) < cut,
                        unit(h) < loss,
                        "loss {loss:e}, cut {cut}, k {k}"
                    );
                }
                // The boundary sits exactly at the cut.
                assert_eq!(k < cut, unit(k << 11) < loss);
            }
        }
        assert_eq!(loss_cut(0.0), 0);
    }
}
