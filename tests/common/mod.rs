//! Helpers more than one root test file needs, each defined once: the
//! hold-lead SM1 table, committed-artifact loading and duopoly delay
//! playback, and committed-JSON reading. Each file includes this module
//! with `mod common;` and uses a subset of it, so the rest is dead code
//! in that test crate.
#![allow(dead_code)]

use std::path::{Path, PathBuf};

use selfish_ethereum::prelude::*;

use seleth_obs::{parse_json, JsonValue};

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

/// Replay `table` in the delay simulator at `delay` seconds: a two-miner
/// world (strategist vs one honest pool), Bitcoin schedule, `runs` seeds
/// counted up from [`PLAYBACK_SEED`]. Returns the strategist's revenue
/// share per run.
pub fn delay_playback(table: &PolicyTable, delay: f64, runs: u64, blocks: u64) -> Vec<f64> {
    let config = DelayConfig::builder()
        .shares(vec![table.alpha(), 1.0 - table.alpha()])
        .policy(0, table.clone())
        .tie_gamma(table.gamma())
        .delay(delay)
        .interval(PLAYBACK_INTERVAL)
        .schedule(RewardSchedule::bitcoin())
        .blocks(blocks)
        .seed(PLAYBACK_SEED)
        .build()
        .expect("valid delay config");
    (0..runs)
        .map(|k| {
            DelaySimulation::new(config.with_seed(PLAYBACK_SEED + k))
                .run()
                .revenue_share(0)
        })
        .collect()
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
