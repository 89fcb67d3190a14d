//! Helpers more than one root test file needs, each defined once: the
//! hold-lead SM1 table, the delay-engine configurations pinned by
//! captured hex constants, committed-artifact loading and duopoly delay
//! playback, and committed-JSON reading. Each file includes this module
//! with `mod common;` and uses a subset of it, so the rest is dead code
//! in that test crate.
#![allow(dead_code)]

use std::path::{Path, PathBuf};
use std::sync::Arc;

use selfish_ethereum::prelude::*;

use seleth_bench::report::{Replay, ReplayCell};
use seleth_obs::{parse_json, JsonValue};
use seleth_sim::delay::DelayConfigBuilder;

/// The classic SM1 table the delay-study, chaos and topology gates
/// replay: `seleth_mdp::rules::sm1` without the progressive reveal, so it
/// holds a lead of two or more.
pub fn sm1(alpha: f64, gamma: f64, max_len: u32) -> PolicyTable {
    let (bitcoin, regular) = (RewardModel::Bitcoin, Scenario::RegularRate);
    PolicyTable::from_fn3(
        alpha,
        gamma,
        bitcoin,
        regular,
        max_len,
        alpha,
        |a, h, fork| {
            if a > h + 1 {
                Action::Wait
            } else {
                seleth_mdp::rules::sm1(a, h, fork)
            }
        },
    )
}

/// A delay-engine configuration whose outcome was captured as exact `f64`
/// bit patterns before the fault layer, the gossip layer and the flight
/// recorder existed: each of those must leave every rounding step alone.
pub struct Pinned {
    /// The configuration, fault-free on the uniform delay model; a test
    /// applies its own variant before building.
    pub builder: DelayConfigBuilder,
    /// Bits of the run's total reward.
    pub total_bits: u64,
    /// Bits of each leading miner's total reward, in slot order.
    pub miner_bits: &'static [u64],
}

impl Pinned {
    /// Assert `report` reproduces the captured bits.
    pub fn check(&self, report: &DelayReport) {
        assert_eq!(report.report.total_reward().to_bits(), self.total_bits);
        for (i, &bits) in self.miner_bits.iter().enumerate() {
            assert_eq!(report.miner(i).total().to_bits(), bits, "miner {i}");
        }
    }
}

/// The four pinned configurations: an honest Ethereum network, an SM1
/// duopoly under Bitcoin rewards, two rival SM1 strategists, and an SM1
/// duopoly under Ethereum rewards at `γ = 0`. The SM1 tables store `Wait`
/// at `a == max_len`, which the executors resolve like the solver's
/// boundary action set.
pub fn pinned_delay_configs() -> [Pinned; 4] {
    let mut honest_eth = DelayConfig::builder();
    honest_eth
        .shares(vec![0.25; 4])
        .delay(6.0)
        .blocks(40_000)
        .seed(2)
        .schedule(RewardSchedule::ethereum());
    let mut sm1_btc = DelayConfig::builder();
    sm1_btc
        .shares(vec![0.35, 0.65])
        .policy(0, sm1(0.35, 0.5, 12))
        .tie_gamma(0.5)
        .delay(2.0)
        .blocks(30_000)
        .seed(17)
        .schedule(RewardSchedule::bitcoin());
    let mut duo_btc = DelayConfig::builder();
    duo_btc
        .shares(vec![0.3, 0.3, 0.4])
        .policy(0, sm1(0.3, 0.5, 12))
        .policy(1, sm1(0.3, 0.5, 12))
        .tie_gamma(0.5)
        .delay(2.0)
        .blocks(30_000)
        .seed(17)
        .schedule(RewardSchedule::bitcoin());
    let mut sm1_eth = DelayConfig::builder();
    sm1_eth
        .shares(vec![0.4, 0.6])
        .policy(0, sm1(0.4, 0.0, 14))
        .tie_gamma(0.0)
        .delay(4.0)
        .blocks(25_000)
        .seed(41)
        .schedule(RewardSchedule::ethereum());
    [
        Pinned {
            builder: honest_eth,
            total_bits: 0x40e2decf00000000,
            miner_bits: &[0x40c2e9f400000000],
        },
        Pinned {
            builder: sm1_btc,
            total_bits: 0x40d5848000000000,
            miner_bits: &[0x40bd900000000000],
        },
        Pinned {
            builder: duo_btc,
            total_bits: 0x40ce9e8000000000,
            miner_bits: &[0x40b2e70000000000, 0x40b2840000000000],
        },
        Pinned {
            builder: sm1_eth,
            total_bits: 0x40d3181a00000000,
            miner_bits: &[0x40b8409800000000],
        },
    ]
}

/// Seed of the first run of every [`delay_playback`] replay.
pub const PLAYBACK_SEED: u64 = 31_337;
/// Mean block interval of every [`delay_playback`] replay (seconds): the
/// delay engine's default, and the closed-loop study's world.
pub const PLAYBACK_INTERVAL: f64 = 13.0;

/// The committed policy artifact `results/policies/<name>`.
pub fn load_artifact(name: &str) -> PolicyTable {
    let path = Path::new("results/policies").join(name);
    PolicyTable::load(&path).unwrap_or_else(|e| panic!("committed artifact {name}: {e}"))
}

/// Replay `table` in the delay simulator at `delay` seconds through the
/// studies' replay runner: a two-miner world (strategist vs one honest
/// pool), the table's reward schedule, `runs` seeds counted up from
/// [`PLAYBACK_SEED`]. Returns the strategist's mean revenue and its
/// standard error.
pub fn delay_playback(table: &PolicyTable, delay: f64, runs: u64, blocks: u64) -> (f64, f64) {
    let shares = vec![table.alpha(), 1.0 - table.alpha()];
    let cell = ReplayCell::new(vec![Arc::new(table.clone())], shares, table.gamma(), delay);
    let replay = Replay {
        interval: PLAYBACK_INTERVAL,
        runs,
        blocks,
        seed: PLAYBACK_SEED,
        threads: 1,
    };
    let outcome = replay.run(&cell).expect("valid duopoly cell");
    (outcome.mean(), outcome.std_err())
}

/// The committed JSON file `results/<name>`, parsed.
pub fn committed_json(name: &str) -> JsonValue {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("results")
        .join(name);
    let text =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("committed results/{name}: {e}"));
    parse_json(&text).unwrap_or_else(|e| panic!("results/{name} parses: {e}"))
}

/// The replay budgets a committed study file records: its `interval`,
/// `runs`, `blocks` and `seed`, on one thread.
pub fn committed_replay(doc: &JsonValue) -> Replay {
    Replay {
        interval: f64_field(doc, "interval"),
        runs: f64_field(doc, "runs") as u64,
        blocks: f64_field(doc, "blocks") as u64,
        seed: f64_field(doc, "seed") as u64,
        threads: 1,
    }
}

/// The numeric field `key` of the JSON object `node`.
pub fn f64_field(node: &JsonValue, key: &str) -> f64 {
    node.get(key)
        .and_then(JsonValue::as_f64)
        .unwrap_or_else(|| panic!("numeric field {key} present"))
}

/// The string field `key` of the JSON object `node`.
pub fn str_field<'a>(node: &'a JsonValue, key: &str) -> &'a str {
    node.get(key)
        .and_then(JsonValue::as_str)
        .unwrap_or_else(|| panic!("string field {key} present"))
}

/// The array field `key` of the JSON object `node`.
pub fn array_field<'a>(node: &'a JsonValue, key: &str) -> &'a [JsonValue] {
    node.get(key)
        .and_then(JsonValue::as_array)
        .unwrap_or_else(|| panic!("array field {key} present"))
}
