//! `gossip_graph`: the propagation-delay simulator over a 16-miner
//! dynamic peer graph, with the committed delay-aware artifact replayed
//! by a 40% miner.

use std::collections::BTreeMap;

use seleth_chain::RewardSchedule;
use seleth_mdp::PolicyTable;
use seleth_net::{Latency, Link, Topology, TopologyBuilder};
use seleth_sim::delay::{DelayConfig, DelayReport, DelaySimulation};

use crate::ops::{decide_everywhere, derive, unit, Counts, Workload};
use crate::trace::Tracer;

/// Ops per list.
const OPS: usize = 120;
/// Blocks mined per op.
const BLOCKS: u64 = 4_000;
/// Two clusters of this many miners each.
const CLUSTER: usize = 8;
const MINERS: usize = 2 * CLUSTER;
/// The strategist's hash share; the other miners split the rest evenly.
const POOL_SHARE: f64 = 0.4;
/// Per-attempt loss on every link.
const LOSS: f64 = 0.05;
/// Latency ranges before rescaling: fast inside a cluster, slow across
/// the bridge.
const INTRA: (f64, f64) = (0.5, 1.5);
const BRIDGE: (f64, f64) = (12.0, 20.0);
/// Mean pairwise latency after rescaling, and the base delay.
const MEAN_DELAY: f64 = 6.0;
/// Ethereum's block interval.
const INTERVAL: f64 = 13.0;
const GAMMA: f64 = 0.5;
/// The delay-aware artifact the strategist replays.
const ARTIFACT: &str = "bitcoin_a040_g050_d6";

/// The `gossip_graph` workload.
pub struct GossipGraph {
    config: DelayConfig,
    table: PolicyTable,
    topology: Topology,
    seeds: Vec<u64>,
    canary_seed: u64,
}

fn shares() -> Vec<f64> {
    let rest = (1.0 - POOL_SHARE) / (MINERS - 1) as f64;
    std::iter::once(POOL_SHARE)
        .chain(std::iter::repeat_n(rest, MINERS - 1))
        .collect()
}

fn lossy_link(b: &mut TopologyBuilder, x: usize, y: usize, (lo, hi): (f64, f64)) {
    for (from, to) in [(x, y), (y, x)] {
        b.edge_spec(Link {
            from,
            to,
            latency: Latency::Uniform { lo, hi },
            loss: LOSS,
            shortcut: false,
        });
    }
}

/// Two complete 8-miner clusters joined by one bridge between miners 0
/// and 8; every link draws its latency per block and loses 5% of
/// attempts, so every release takes the dynamic propagation path.
fn topology(seed: u64) -> Result<Topology, String> {
    let mut b = Topology::builder();
    b.miners(MINERS);
    b.seed(seed);
    for cluster in [0..CLUSTER, CLUSTER..MINERS] {
        for i in cluster.clone() {
            for j in i + 1..cluster.end {
                lossy_link(&mut b, i, j, INTRA);
            }
        }
    }
    lossy_link(&mut b, 0, CLUSTER, BRIDGE);
    let t = b
        .build()
        .and_then(|t| t.scaled_to_mean(MEAN_DELAY))
        .map_err(|e| e.to_string())?;
    if t.is_static() {
        return Err("the gossip graph must take the dynamic path".into());
    }
    Ok(t)
}

fn config(table: &PolicyTable, topology: Option<Topology>) -> Result<DelayConfig, String> {
    let mut b = DelayConfig::builder();
    b.shares(shares())
        .policy(0, table.clone())
        .tie_gamma(GAMMA)
        .delay(MEAN_DELAY)
        .interval(INTERVAL)
        .blocks(BLOCKS)
        .schedule(RewardSchedule::ethereum());
    if let Some(t) = topology {
        b.topology(t);
    }
    b.build().map_err(|e| e.to_string())
}

impl GossipGraph {
    /// Build the topology, the configuration and the op list for `seed`.
    pub fn setup(artifacts: &BTreeMap<&str, PolicyTable>, seed: u64) -> Result<Self, String> {
        let table = artifacts
            .get(ARTIFACT)
            .cloned()
            .ok_or_else(|| format!("artifact {ARTIFACT} missing"))?;
        let topology = topology(derive(seed, 4, 0))?;
        Ok(GossipGraph {
            config: config(&table, Some(topology.clone()))?,
            table,
            topology,
            seeds: (0..OPS as u64).map(|i| derive(seed, 1, i)).collect(),
            canary_seed: derive(seed, 3, 0),
        })
    }

    /// The miner that produced block `block` in the replay: drawn by hash
    /// share from the op's seed.
    fn producer(seed: u64, block: u64) -> usize {
        let u = unit(derive(seed, 2, block));
        if u < POOL_SHARE {
            return 0;
        }
        let rest = (1.0 - POOL_SHARE) / (MINERS - 1) as f64;
        (1 + ((u - POOL_SHARE) / rest) as usize).min(MINERS - 1)
    }
}

impl Workload for GossipGraph {
    type Output = DelayReport;

    fn len(&self) -> usize {
        self.seeds.len()
    }

    fn blocks_per_op(&self) -> u64 {
        BLOCKS
    }

    fn run(&mut self, i: usize, tr: &mut Tracer) -> Result<Self::Output, String> {
        let config = self.config.with_seed(self.seeds[i]);
        Ok(tr.span("bench.op", |tr| {
            tr.span("sim.delay.run", |_| DelaySimulation::new(config).run())
        }))
    }

    fn check(&mut self, _: usize, report: &Self::Output) -> Result<(), String> {
        let total: f64 = (0..MINERS).map(|m| report.revenue_share(m)).sum();
        if (total - 1.0).abs() > 1e-9 {
            return Err(format!("revenue shares sum to {total}"));
        }
        if report.counters.gossip_unreachable != 0 {
            return Err(format!(
                "{} deliveries never arrived",
                report.counters.gossip_unreachable
            ));
        }
        if report.counters.mining_events != BLOCKS {
            return Err(format!(
                "mined {} of {BLOCKS} blocks",
                report.counters.mining_events
            ));
        }
        Ok(())
    }

    fn probe(&mut self, i: usize, report: &Self::Output, tr: &mut Tracer, c: &mut Counts) {
        let seed = self.seeds[i];
        let topology = &self.topology;
        let reached = tr.span("net.propagate", |_| {
            (1..=BLOCKS)
                .map(|b| topology.propagate(Self::producer(seed, b), b).arrival[MINERS - 1])
                .sum::<f64>()
        });
        std::hint::black_box(reached);
        c.propagate_calls += BLOCKS;
        let (calls, digest) = tr.span("mdp.policy.decide", |_| decide_everywhere(&self.table));
        std::hint::black_box(digest);
        c.decide_calls += calls;
        let k = &report.counters;
        c.delay_blocks += BLOCKS;
        c.gossip_sends += k.gossip_sends;
        c.gossip_dedup_drops += k.gossip_dedup_drops;
        c.gossip_loss_retries += k.gossip_loss_retries;
        c.relay_hops += k.gossip_hops_2 + k.gossip_hops_3 + k.gossip_hops_4_plus;
        c.deliveries += k.deliveries;
        c.orphan_blocks += k.orphan_blocks;
    }

    /// A complete graph at uniform latency must reproduce the uniform
    /// engine bit for bit.
    fn canary(&mut self) -> Option<Result<(), String>> {
        let run = |topology| -> Result<DelayReport, String> {
            let c = config(&self.table, topology)?.with_seed(self.canary_seed);
            Ok(DelaySimulation::new(c).run())
        };
        let complete = Topology::complete(MINERS, MEAN_DELAY).map_err(|e| e.to_string());
        Some(complete.and_then(|t| {
            let (graph, uniform) = (run(Some(t))?, run(None)?);
            let bits = |r: &DelayReport| -> Vec<u64> {
                let rr = &r.report;
                (0..MINERS)
                    .map(|m| r.miner(m).total().to_bits())
                    .chain([
                        rr.total_reward().to_bits(),
                        rr.regular_count,
                        rr.uncle_count,
                        rr.stale_count,
                    ])
                    .collect()
            };
            if bits(&graph) == bits(&uniform) {
                Ok(())
            } else {
                Err("complete graph diverged from the uniform engine".into())
            }
        }))
    }
}
