//! Discrete-event Monte-Carlo simulator for selfish mining in Ethereum.
//!
//! This crate implements the simulation study of Section V of *Selfish
//! Mining in Ethereum* (Niu & Feng, ICDCS 2019): a system of `n` miners
//! whose block production is a sequence of Bernoulli/Poisson trials, a
//! selfish pool running the paper's Algorithm 1 (the SM1 rule
//! [`seleth_mdp::rules::sm1`]), honest miners following the protocol
//! (with the `γ` tie-breaking network model of Section IV-A), uncle
//! referencing per the Ethereum rules, and full per-miner reward
//! accounting over the resulting block tree.
//!
//! Unlike the analytical model in `seleth-core`, nothing here is derived:
//! the simulator builds the actual tree, runs the actual strategy state
//! machine and counts actual rewards — which is what makes it a meaningful
//! cross-check of the theory (Fig. 8 of the paper).
//!
//! Every pool strategy is a decision rule played through one
//! adopt/override/match executor, shared with the [`delay`] simulator.
//! Besides the built-in rules (SM1, lead-stubborn, honest) the pool can
//! replay an *exported MDP policy artifact* ([`seleth_mdp::PolicyTable`],
//! installed with [`SimConfigBuilder::policy`]): the same
//! derive-optimal-then-simulate loop Sapirshtein et al. close for
//! Bitcoin, here closing the gap between
//! `seleth-mdp`'s predicted optimal revenue ρ* and Monte-Carlo measurement
//! (see `tests/policy_playback.rs` and the `optimal_sim` experiment).
//!
//! The [`delay`] module extends the playback loop to the regime the MDP
//! cannot model: a network with *propagation delay* and arbitrarily many
//! weighted pools, where each miner carries its own
//! [`delay::MinerStrategy`] — honest protocol-following or artifact
//! replay over a private fork. At zero delay the strategic replay
//! reproduces ρ*; as the delay grows the artifact's edge degrades (the
//! `optimal_delay` experiment and `results/delay_study.json`).
//!
//! # Quickstart
//!
//! ```
//! use seleth_sim::{SimConfig, Simulation};
//! use seleth_chain::Scenario;
//!
//! let config = SimConfig::builder()
//!     .alpha(0.3)
//!     .gamma(0.5)
//!     .blocks(20_000)
//!     .seed(7)
//!     .build()
//!     .unwrap();
//! let report = Simulation::new(config).run();
//! let us = report.absolute_pool(Scenario::RegularRate);
//! // At α = 0.3 > α* ≈ 0.054 selfish mining is profitable.
//! assert!(us > 0.3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Library code must degrade with typed errors, never a panic, on
// untrusted input; invariant violations use `expect` with a message.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::panic))]

mod config;
pub mod delay;
pub mod diagnose;
mod engine;
pub mod faults;
mod fork;
pub mod multi;
pub mod pools;
mod stats;
#[cfg(test)]
mod uncle_audit;

pub use config::{PoolStrategy, SimConfig, SimConfigBuilder, SimError};
pub use diagnose::{
    delay_divergence, engine_divergence, explain_divergence, record_delay_run, record_engine_run,
    TRACE_ON_FAIL_ENV,
};
pub use engine::Simulation;
pub use faults::{FaultPlan, FaultPlanBuilder};
pub use stats::SimReport;
