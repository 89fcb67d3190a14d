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

use std::fmt::Write as _;

use seleth_bench::json_f64;
use seleth_bench::report::{gate_tolerance, replay_revenue, Trace};
use seleth_chain::RewardSchedule;
use seleth_mdp::{PolicyTable, RewardModel};
use seleth_net::Topology;
use seleth_obs::{par_map_traced, Stopwatch, Telemetry, TelemetryShard};
use seleth_sim::delay::DelayConfig;
use seleth_zoo::Family;

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

struct Strategy {
    name: String,
    table: PolicyTable,
    alpha: f64,
    gamma: f64,
    /// Predicted zero-delay revenue (ρ* for the solved artifact, the
    /// family's closed form otherwise) — reporting reference only.
    rho: f64,
}

/// One swept cell: a named shape, compiled per miner count.
struct ShapeSpec {
    name: &'static str,
    /// `None` is the uniform delay engine (no topology) — the anchor the
    /// complete graph must reproduce bitwise.
    topology: Option<Topology>,
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
        ShapeSpec {
            name: "complete",
            topology: Some(Topology::complete(n, DELAY).expect("complete is valid")),
        },
        ShapeSpec {
            name: "hub_attacker",
            topology: Some(star(n, SPOKE_NEAR, SPOKE_FAR)),
        },
        ShapeSpec {
            name: "leaf_attacker",
            topology: Some(star(n, SPOKE_FAR, SPOKE_NEAR)),
        },
    ];
    if !smoke {
        all.push(ShapeSpec {
            name: "ring",
            topology: Some(
                Topology::ring(n, 1.0)
                    .and_then(|t| t.scaled_to_mean(DELAY))
                    .expect("ring is valid"),
            ),
        });
        all.push(ShapeSpec {
            name: "clustered",
            topology: Some(clustered(n, false)),
        });
        all.push(ShapeSpec {
            name: "relay_shortcut",
            topology: Some(clustered(n, true)),
        });
    }
    all
}

struct CellResult {
    mean: f64,
    std_err: f64,
    orphan_rate: f64,
    mean_latency: f64,
    gossip_sends: u64,
    gossip_dedup_drops: u64,
    relay_hops: u64,
}

fn eval_cell(
    strategy: &Strategy,
    shares: &[f64],
    shape: &ShapeSpec,
    runs: u64,
    blocks: u64,
    shard: &mut TelemetryShard,
) -> CellResult {
    let outcome = replay_revenue(runs, 1, |k| {
        let mut b = DelayConfig::builder();
        b.shares(shares.to_vec())
            .policy(0, strategy.table.clone())
            .tie_gamma(strategy.gamma)
            .delay(DELAY)
            .interval(INTERVAL)
            .schedule(RewardSchedule::bitcoin())
            .blocks(blocks)
            .seed(SEED + k);
        if let Some(t) = &shape.topology {
            b.topology(t.clone());
        }
        b.build().expect("valid topology config")
    });
    outcome.counters.record_into(shard);
    shard.add("study.runs", runs);
    CellResult {
        mean: outcome.mean(),
        std_err: outcome.std_err(),
        orphan_rate: outcome.orphan_rate,
        mean_latency: shape
            .topology
            .as_ref()
            .map_or(DELAY, Topology::nominal_mean_latency),
        gossip_sends: outcome.counters.gossip_sends,
        gossip_dedup_drops: outcome.counters.gossip_dedup_drops,
        relay_hops: outcome.counters.gossip_hops_2
            + outcome.counters.gossip_hops_3
            + outcome.counters.gossip_hops_4_plus,
    }
}

fn hex_bits(v: f64) -> String {
    format!("0x{:016x}", v.to_bits())
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let trace = Trace::from_args();
    let recorder = trace.recorder();
    let wall = Stopwatch::start();
    let mut telemetry = Telemetry::new();
    let runs = seleth_bench::env_u64("SELETH_RUNS", if smoke { 2 } else { 4 });
    let blocks = seleth_bench::env_u64("SELETH_BLOCKS", if smoke { 6_000 } else { 30_000 });
    let max_len = u32::try_from(seleth_bench::env_u64("SELETH_MDP_LEN", 30)).unwrap_or(30);

    let artifact = seleth_bench::load_or_solve_policy(
        "bitcoin_a040_g050",
        0.40,
        0.5,
        RewardModel::Bitcoin,
        max_len,
    );
    let rho_star = artifact.predicted_revenue();
    let mut strategies = vec![Strategy {
        name: "bitcoin_a040_g050".into(),
        table: artifact,
        alpha: 0.40,
        gamma: 0.5,
        rho: rho_star,
    }];
    if !smoke {
        let family = Family::Sm1;
        strategies.push(Strategy {
            name: family.id(),
            table: family.table(0.35, 0.5, max_len),
            alpha: 0.35,
            gamma: 0.5,
            rho: family.predicted_revenue(0.35, 0.5),
        });
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

    let mut failed = false;
    let mut series_json = Vec::new();
    let mut gates_json = Vec::new();
    for strategy in &strategies {
        let splits: &[(&str, usize)] = &[("quad", 4), ("octet", 8)];
        let splits = if smoke { &splits[..1] } else { splits };

        for &(split_name, miners) in splits {
            let rest = (1.0 - strategy.alpha) / (miners - 1) as f64;
            let mut shares = vec![rest; miners];
            shares[0] = strategy.alpha;
            let cells = shapes(miners, smoke);

            // Shapes in parallel through the shared work-queue helper;
            // every per-edge draw hashes off the topology seed, so the
            // sweep is bit-identical at any thread count.
            let sweep = Stopwatch::start();
            let (results, shards) =
                par_map_traced(&cells, 0, recorder, |shape, _: &mut (), shard| {
                    eval_cell(strategy, &shares, shape, runs, blocks, shard)
                });
            telemetry.add_phase("sweep", sweep.elapsed_ns());
            for shard in &shards {
                telemetry.fold_shard(shard);
            }
            for (shape, r) in cells.iter().zip(&results) {
                println!(
                    "{:>20} {:>7} {:>16} {:>9.5} {:>9.5} {:>+9.5} {:>8.4} {:>8.3}",
                    strategy.name,
                    split_name,
                    shape.name,
                    r.mean,
                    r.std_err,
                    r.mean - strategy.rho,
                    r.orphan_rate,
                    r.mean_latency
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
            let bit_identical = uniform.mean.to_bits() == complete.mean.to_bits()
                && uniform.orphan_rate.to_bits() == complete.orphan_rate.to_bits();
            if !bit_identical {
                eprintln!(
                    "FAIL {}/{split_name}: complete-graph revenue {} != uniform {}",
                    strategy.name,
                    hex_bits(complete.mean),
                    hex_bits(uniform.mean)
                );
                failed = true;
            }

            // Gate 2: at the same mean latency, the hub-attacker must out-
            // earn the leaf-attacker (position pays). Smoke budgets only
            // get the loosened noise allowance.
            let (hub, leaf) = (
                find("hub_attacker").expect("hub cell always swept"),
                find("leaf_attacker").expect("leaf cell always swept"),
            );
            let spread = hub.mean - leaf.mean;
            let noise = (hub.std_err * hub.std_err + leaf.std_err * leaf.std_err).sqrt();
            let floor = if smoke {
                -gate_tolerance(true, noise)
            } else {
                0.0
            };
            if spread <= floor {
                eprintln!(
                    "FAIL {}/{split_name}: hub-vs-leaf revenue spread {spread:.5} \
                     is not positive (noise {noise:.5})",
                    strategy.name
                );
                failed = true;
            }

            gates_json.push(format!(
                "    {{\"strategy\": \"{}\", \"split\": \"{split_name}\", \
                 \"bit_identical\": {bit_identical}, \
                 \"uniform_revenue_bits\": \"{}\", \"complete_revenue_bits\": \"{}\", \
                 \"hub_leaf_spread\": {}, \"spread_noise\": {}}}",
                strategy.name,
                hex_bits(uniform.mean),
                hex_bits(complete.mean),
                json_f64(spread),
                json_f64(noise)
            ));

            let mut s = String::new();
            let _ = write!(
                s,
                "    {{\n      \"strategy\": \"{}\",\n      \
                 \"split\": \"{split_name}\",\n      \"miners\": {miners},\n      \
                 \"alpha\": {},\n      \"gamma\": {},\n      \"rho_star\": {},\n      \
                 \"cells\": [\n",
                strategy.name,
                json_f64(strategy.alpha),
                json_f64(strategy.gamma),
                json_f64(strategy.rho),
            );
            let cell_lines: Vec<String> = cells
                .iter()
                .zip(&results)
                .map(|(shape, r)| {
                    format!(
                        "        {{\"shape\": \"{}\", \"mean_latency\": {}, \
                         \"revenue\": {}, \"revenue_bits\": \"{}\", \"std_err\": {}, \
                         \"vs_rho_star\": {}, \"orphan_rate\": {}, \
                         \"gossip_sends\": {}, \"gossip_dedup_drops\": {}, \
                         \"relay_hops\": {}}}",
                        shape.name,
                        json_f64(r.mean_latency),
                        json_f64(r.mean),
                        hex_bits(r.mean),
                        json_f64(r.std_err),
                        json_f64(r.mean - strategy.rho),
                        json_f64(r.orphan_rate),
                        r.gossip_sends,
                        r.gossip_dedup_drops,
                        r.relay_hops
                    )
                })
                .collect();
            s.push_str(&cell_lines.join(",\n"));
            s.push_str("\n      ]\n    }");
            series_json.push(s);
        }
    }

    let json = format!(
        "{{\n  \"kind\": \"seleth-topology-study\",\n  \"format\": 1,\n  \
         \"interval\": {},\n  \"mean_latency\": {},\n  \"runs\": {runs},\n  \
         \"blocks\": {blocks},\n  \"seed\": {SEED},\n  \
         \"gates\": [\n{}\n  ],\n  \
         \"series\": [\n{}\n  ],\n  \"telemetry\": {}\n}}\n",
        json_f64(INTERVAL),
        json_f64(DELAY),
        gates_json.join(",\n"),
        series_json.join(",\n"),
        {
            telemetry.wall_ns = wall.elapsed_ns();
            telemetry.stamp_host();
            telemetry.to_json(2)
        }
    );
    let out_name = if smoke {
        "topology_study_smoke.json"
    } else {
        "topology_study.json"
    };
    let path = seleth_bench::write_text(out_name, &json);

    println!("\nReading: 'complete' must equal 'uniform' to the bit — the graph");
    println!("engine folds a complete graph at uniform latency into the exact");
    println!("arithmetic of the PR 3 delay engine. The hub/leaf pair isolates");
    println!("attacker position at a fixed mean pairwise latency: the spread is");
    println!("the well-connected attacker's edge. 'relay_shortcut' keeps the");
    println!("clustered graph's links and overlays one fast relay link — its");
    println!("lower 'latency' column is the relay-network advantage.");
    println!("wrote {}", path.display());
    trace.finish();

    if failed {
        eprintln!("FAIL: a topology gate did not hold");
        std::process::exit(1);
    }
    println!("all topology gates hold: complete==uniform bitwise, hub beats leaf");
}
