//! Topology study: where an attacker sits in the peer graph changes what
//! withholding pays.
//!
//! The delay engine's uniform model gives every miner the same `delay`-
//! second view lag — the paper's Section V propagation model. Real gossip
//! networks are graphs: blocks radiate from the producer along peer links,
//! so a well-connected miner hears (and is heard) sooner than a peripheral
//! one. This study swaps in `seleth-net` topologies via
//! [`seleth_sim::delay::PropagationModel::Graph`] and asks two questions:
//!
//! 1. **Position**: at a *fixed mean pairwise latency*, does moving the
//!    strategist from the hub of a star to its rim change its revenue?
//!    (`hub_attacker` vs `leaf_attacker` — the gated spread.)
//! 2. **Relay networks**: does overlaying a compact-relay shortcut on a
//!    clustered graph (the real-world fast-relay story) claw back the
//!    orphan rate the clusters' slow bridge creates?
//!    (`clustered` vs `relay_shortcut`.)
//!
//! Shapes at mean latency [`DELAY`]: `uniform` (the PR 3 engine, anchor),
//! `complete` (every pair at `DELAY` — **gated bit-identical** to
//! `uniform`: the graph path must fold to the exact same arithmetic),
//! `hub_attacker` / `leaf_attacker` stars (strategist spoke near/far),
//! `ring`, `clustered` two-cluster with a slow bridge, and
//! `relay_shortcut` (the same clustered graph plus a fast lossless
//! shortcut — its *lower* effective mean latency is the relay advantage,
//! reported as `mean_latency` per cell). Sweep over the saved
//! `bitcoin_a040_g050` artifact plus the SM1 family × two splits (4 and
//! 8 miners). Every per-edge draw comes from the topology's own
//! counter-based hash stream, so the study is bit-reproducible at any
//! thread count.
//!
//! Output: `results/topology_study.json` — one series per (strategy,
//! split) with one entry per shape (revenue, its IEEE-754 bit pattern in
//! hex for the bit-identity gates, orphan rate, gossip counters) plus a
//! `gates` block the tier-1 suite re-checks from the committed file.
//!
//! Environment knobs: `SELETH_RUNS` (4), `SELETH_BLOCKS` (30 000),
//! `SELETH_MDP_LEN` (30), `SELETH_RESULTS`, `SELETH_POLICIES`. Pass
//! `--smoke` for the CI gate: artifact only, 4-miner split, reduced shape
//! set, small budgets, loosened spread tolerance.

use std::sync::Arc;

use seleth_bench::json_f64;
use seleth_bench::report::{json_block, ReplayCell, ReplayOutcome, Study};
use seleth_mdp::RewardModel;
use seleth_net::Topology;
use seleth_zoo::{Family, StrategyRegistry};

/// Mean block interval for every run (Ethereum-like, seconds).
const INTERVAL: f64 = 13.0;
/// Target mean pairwise latency of every shaped cell — the same
/// delay/interval ≈ 0.46 regime the delay and chaos studies probe.
const DELAY: f64 = 6.0;
const SEED: u64 = 48_879;

/// Near/far spoke latencies of the attacker-position stars, before
/// rescaling to the common mean.
const SPOKE_NEAR: f64 = 1.0;
const SPOKE_FAR: f64 = 8.0;

/// Intra-cluster and bridge latencies of the clustered shapes, before
/// rescaling. The bridge dominates cross-cluster paths until the
/// shortcut overlay bypasses it.
const INTRA: f64 = 1.0;
const BRIDGE: f64 = 16.0;

/// One swept cell: a named shape, compiled per miner count.
struct ShapeSpec {
    name: &'static str,
    /// `None` is the uniform delay engine (no topology) — the anchor the
    /// complete graph must reproduce bitwise.
    topology: Option<Arc<Topology>>,
}

impl ShapeSpec {
    fn new(name: &'static str, topology: Topology) -> Self {
        ShapeSpec {
            name,
            topology: Some(Arc::new(topology)),
        }
    }

    /// The shape's effective mean pairwise latency.
    fn mean_latency(&self) -> f64 {
        self.topology
            .as_deref()
            .map_or(DELAY, Topology::nominal_mean_latency)
    }
}

/// Star with the strategist's spoke at `miner0`, everyone else at
/// `others`, rescaled to the common mean pairwise latency.
fn star(n: usize, miner0: f64, others: f64) -> Topology {
    let mut spokes = vec![others; n];
    spokes[0] = miner0;
    Topology::star_relay(&spokes)
        .and_then(|t| t.scaled_to_mean(DELAY))
        .expect("star shapes are valid")
}

/// Two equal clusters joined by one slow bridge, rescaled to the common
/// mean; with `shortcut`, the *rescaled* graph additionally gets a fast
/// lossless relay link between the clusters' last members, so its
/// effective mean drops below [`DELAY`] — that drop is the measured
/// relay-network advantage.
fn clustered(n: usize, shortcut: bool) -> Topology {
    let a = n / 2;
    let base = Topology::two_clusters(a, n - a, INTRA, BRIDGE)
        .and_then(|t| t.scaled_to_mean(DELAY))
        .expect("clustered shapes are valid");
    if !shortcut {
        return base;
    }
    let fast = base
        .links()
        .iter()
        .map(|l| match l.latency {
            seleth_net::Latency::Fixed(v) => v,
            seleth_net::Latency::Uniform { lo, .. } => lo,
        })
        .fold(f64::INFINITY, f64::min);
    let mut b = Topology::builder();
    b.miners(n);
    b.seed(base.seed());
    for link in base.links() {
        b.edge_spec(*link);
    }
    b.shortcut(a - 1, n - 1, fast);
    b.build().expect("shortcut overlay is valid")
}

/// The shape sweep for an `n`-miner split.
fn shapes(n: usize, smoke: bool) -> Vec<ShapeSpec> {
    let mut all = vec![
        ShapeSpec {
            name: "uniform",
            topology: None,
        },
        ShapeSpec::new(
            "complete",
            Topology::complete(n, DELAY).expect("complete is valid"),
        ),
        ShapeSpec::new("hub_attacker", star(n, SPOKE_NEAR, SPOKE_FAR)),
        ShapeSpec::new("leaf_attacker", star(n, SPOKE_FAR, SPOKE_NEAR)),
    ];
    if !smoke {
        all.push(ShapeSpec::new(
            "ring",
            Topology::ring(n, 1.0)
                .and_then(|t| t.scaled_to_mean(DELAY))
                .expect("ring is valid"),
        ));
        all.push(ShapeSpec::new("clustered", clustered(n, false)));
        all.push(ShapeSpec::new("relay_shortcut", clustered(n, true)));
    }
    all
}

/// The sum of the gossip hop counters above one hop: deliveries that
/// went through at least one relay.
fn relay_hops(r: &ReplayOutcome) -> u64 {
    r.counters.gossip_hops_2 + r.counters.gossip_hops_3 + r.counters.gossip_hops_4_plus
}

fn hex_bits(v: f64) -> String {
    format!("0x{:016x}", v.to_bits())
}

fn main() {
    let mut study = Study::from_args("topology_study");
    let smoke = study.smoke();
    let replay = study.replay(INTERVAL, SEED, [2, 4], [6_000, 30_000]);
    let (runs, blocks) = (replay.runs, replay.blocks);
    let max_len = u32::try_from(seleth_bench::env_u64("SELETH_MDP_LEN", 30)).unwrap_or(30);

    let artifact = seleth_bench::load_or_solve_policy(
        "bitcoin_a040_g050",
        0.40,
        0.5,
        RewardModel::Bitcoin,
        max_len,
    );
    // Each strategy's prediction (ρ* for the solved artifact, the
    // family's closed form otherwise) is a reporting reference only.
    let mut strategies = StrategyRegistry::new();
    strategies.register_artifact("bitcoin_a040_g050", artifact);
    if !smoke {
        strategies.register_family(Family::Sm1, 0.35, 0.5, max_len);
    }

    println!(
        "Topology study: attacker position in the peer graph \
         ({runs} runs x {blocks} blocks per cell, {INTERVAL}s interval, \
         {DELAY}s mean latency{})\n",
        if smoke { ", SMOKE" } else { "" }
    );
    println!(
        "{:>20} {:>7} {:>16} {:>9} {:>9} {:>+9} {:>8} {:>8}",
        "strategy", "split", "shape", "revenue", "std_err", "vs_rho", "orphans", "latency"
    );

    let mut series_json = Vec::new();
    let mut gates_json = Vec::new();
    for strategy in strategies.iter() {
        let (alpha, gamma) = (strategy.table.alpha(), strategy.table.gamma());
        let splits: &[(&str, usize)] = &[("quad", 4), ("octet", 8)];
        let splits = if smoke { &splits[..1] } else { splits };

        for &(split_name, miners) in splits {
            let rest = (1.0 - alpha) / (miners - 1) as f64;
            let mut shares = vec![rest; miners];
            shares[0] = alpha;
            let cells = shapes(miners, smoke);

            // Every per-edge draw hashes off the topology seed, so the
            // sweep is bit-identical at any thread count.
            let replay_cells: Vec<ReplayCell> = cells
                .iter()
                .map(|shape| ReplayCell {
                    topology: shape.topology.clone(),
                    ..ReplayCell::new(
                        vec![Arc::clone(&strategy.table)],
                        shares.clone(),
                        gamma,
                        DELAY,
                    )
                })
                .collect();
            let results = study.sweep(&replay, &replay_cells);
            for (shape, r) in cells.iter().zip(&results) {
                println!(
                    "{:>20} {:>7} {:>16} {:>9.5} {:>9.5} {:>+9.5} {:>8.4} {:>8.3}",
                    strategy.name,
                    split_name,
                    shape.name,
                    r.mean(),
                    r.std_err(),
                    r.mean() - strategy.predicted,
                    r.orphan_rate,
                    shape.mean_latency()
                );
            }

            let find = |name: &str| {
                cells
                    .iter()
                    .position(|c| c.name == name)
                    .map(|i| &results[i])
            };

            // Gate 1: the complete graph at uniform latency must fold to
            // the exact arithmetic of the uniform engine — bit-identical
            // revenue and orphan rate, not merely close.
            let (uniform, complete) = (
                find("uniform").expect("uniform cell always swept"),
                find("complete").expect("complete cell always swept"),
            );
            let bit_identical = uniform.mean().to_bits() == complete.mean().to_bits()
                && uniform.orphan_rate.to_bits() == complete.orphan_rate.to_bits();
            if !bit_identical {
                study.fail(&format!(
                    "{}/{split_name}: complete-graph revenue {} != uniform {}",
                    strategy.name,
                    hex_bits(complete.mean()),
                    hex_bits(uniform.mean())
                ));
            }

            // Gate 2: at the same mean latency, the hub-attacker must out-
            // earn the leaf-attacker (position pays). Smoke budgets only
            // get the loosened noise allowance.
            let (hub, leaf) = (
                find("hub_attacker").expect("hub cell always swept"),
                find("leaf_attacker").expect("leaf cell always swept"),
            );
            let spread = hub.mean() - leaf.mean();
            let (h, l) = (hub.std_err(), leaf.std_err());
            let noise = (h * h + l * l).sqrt();
            let floor = if smoke { -study.tolerance(noise) } else { 0.0 };
            if spread <= floor {
                study.fail(&format!(
                    "{}/{split_name}: hub-vs-leaf revenue spread {spread:.5} \
                     is not positive (noise {noise:.5})",
                    strategy.name
                ));
            }

            gates_json.push(format!(
                "    {{\"strategy\": \"{}\", \"split\": \"{split_name}\", \
                 \"bit_identical\": {bit_identical}, \
                 \"uniform_revenue_bits\": \"{}\", \"complete_revenue_bits\": \"{}\", \
                 \"hub_leaf_spread\": {}, \"spread_noise\": {}}}",
                strategy.name,
                hex_bits(uniform.mean()),
                hex_bits(complete.mean()),
                json_f64(spread),
                json_f64(noise)
            ));

            let head = format!(
                "    {{\n      \"strategy\": \"{}\",\n      \
                 \"split\": \"{split_name}\",\n      \"miners\": {miners},\n      \
                 \"alpha\": {},\n      \"gamma\": {},\n      \"rho_star\": {},\n      \
                 \"cells\": [\n",
                strategy.name,
                json_f64(alpha),
                json_f64(gamma),
                json_f64(strategy.predicted),
            );
            let rows = cells.iter().zip(&results).map(|(shape, r)| {
                format!(
                    "        {{\"shape\": \"{}\", \"mean_latency\": {}, \
                         \"revenue\": {}, \"revenue_bits\": \"{}\", \"std_err\": {}, \
                         \"vs_rho_star\": {}, \"orphan_rate\": {}, \
                         \"gossip_sends\": {}, \"gossip_dedup_drops\": {}, \
                         \"relay_hops\": {}}}",
                    shape.name,
                    json_f64(shape.mean_latency()),
                    json_f64(r.mean()),
                    hex_bits(r.mean()),
                    json_f64(r.std_err()),
                    json_f64(r.mean() - strategy.predicted),
                    json_f64(r.orphan_rate),
                    r.counters.gossip_sends,
                    r.counters.gossip_dedup_drops,
                    relay_hops(r)
                )
            });
            series_json.push(json_block(head, rows));
        }
    }

    let fields = format!(
        "  \"interval\": {},\n  \"mean_latency\": {},\n  \"runs\": {runs},\n  \
         \"blocks\": {blocks},\n  \"seed\": {SEED},\n  \
         \"gates\": [\n{}\n  ],\n  \
         \"series\": [\n{}\n  ]",
        json_f64(INTERVAL),
        json_f64(DELAY),
        gates_json.join(",\n"),
        series_json.join(",\n"),
    );
    study.finish(
        "seleth-topology-study",
        &fields,
        "Reading: 'complete' must equal 'uniform' to the bit — the graph\n\
         engine folds a complete graph at uniform latency into the exact\n\
         arithmetic of the uniform delay engine. The hub/leaf pair isolates\n\
         attacker position at a fixed mean pairwise latency: the spread is\n\
         the well-connected attacker's edge. 'relay_shortcut' keeps the\n\
         clustered graph's links and overlays one fast relay link — its\n\
         lower 'latency' column is the relay-network advantage.",
        "all topology gates hold: complete==uniform bitwise, hub beats leaf",
        "a topology gate did not hold",
    );
}
