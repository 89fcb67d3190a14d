//! # selfish-ethereum
//!
//! A from-scratch Rust reproduction of **“Selfish Mining in Ethereum”**
//! (Jianyu Niu & Chen Feng, ICDCS 2019, arXiv:1901.04620): the
//! 2-dimensional Markov analysis of selfish mining under Ethereum's uncle
//! and nephew rewards, together with the Monte-Carlo simulator that
//! validates it.
//!
//! This crate is a facade over the four workspace crates:
//!
//! - [`markov`] (`seleth-markov`) — generic Markov-chain machinery:
//!   builders, DTMC, stationary-distribution solvers.
//! - [`chain`] (`seleth-chain`) — the blockchain substrate: block tree,
//!   fork choice, regular/uncle/stale classification, reward schedules.
//! - [`core`] (`seleth-core`) — the paper's contribution: the `(Ls, Lh)`
//!   Markov process, closed-form and numeric stationary distributions,
//!   Appendix-B probabilistic reward tracking, revenue and threshold
//!   analysis, the Eyal–Sirer Bitcoin baseline.
//! - [`sim`] (`seleth-sim`) — the discrete-event selfish-mining simulator
//!   (Algorithm 1 over a real block tree).
//! - [`mdp`] (`seleth-mdp`) — *optimal* withholding strategies via
//!   average-reward MDPs (the future-work direction the paper points at).
//! - [`zoo`] (`seleth-zoo`) — the strategy zoo: parametric hand-written
//!   strategy families (SM1, stubborn variants) lowered into policy
//!   artifacts, plus a parallel multi-strategist tournament harness.
//! - [`obs`] (`seleth-obs`) — zero-dependency telemetry: the [`Recorder`]
//!   trait (no-op by default), per-worker shards with deterministic
//!   merges, and the study-profile renderer behind `perf_report`.
//!
//! [`Recorder`]: obs::Recorder
//!
//! # The paper in one example
//!
//! How much does a pool with 30% of Ethereum's hash power earn by mining
//! selfishly, and does the theory agree with simulation?
//!
//! ```
//! use selfish_ethereum::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Theory: solve the 2-D Markov model.
//! let params = ModelParams::new(0.30, 0.5, RewardSchedule::ethereum())?;
//! let theory = Analysis::new(&params)?.revenue();
//! let us_theory = theory.absolute_pool(Scenario::RegularRate);
//!
//! // Honest mining would earn exactly α = 0.30; selfish mining beats it.
//! assert!(us_theory > 0.30);
//!
//! // Simulation: run Algorithm 1 over an actual block tree.
//! let config = SimConfig::builder().alpha(0.30).gamma(0.5).blocks(50_000).seed(1).build()?;
//! let us_sim = Simulation::new(config).run().absolute_pool(Scenario::RegularRate);
//! assert!((us_sim - us_theory).abs() < 0.02);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Library code must degrade with typed errors, never a panic, on
// untrusted input; invariant violations use `expect` with a message.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::panic))]

pub use seleth_chain as chain;
pub use seleth_core as core;
pub use seleth_markov as markov;
pub use seleth_mdp as mdp;
pub use seleth_net as net;
pub use seleth_obs as obs;
pub use seleth_sim as sim;
pub use seleth_zoo as zoo;

/// One-stop imports for the common workflow: model parameters in, revenue
/// and thresholds out, simulation alongside.
pub mod prelude {
    pub use seleth_chain::{
        BlockTree, MinerId, NephewReward, RewardSchedule, Scenario, UncleReward,
    };
    pub use seleth_core::threshold::{profitability_threshold, ThresholdOptions};
    pub use seleth_core::{Analysis, AnalysisError, ModelParams, RevenueBreakdown, State};
    pub use seleth_mdp::{
        Action, Fork, MdpConfig, PolicyTable, RewardModel, SolveStats, StateSpace, ValueCache,
        MATCH_D_CAP,
    };
    pub use seleth_net::{
        Latency, Link, NetError, NodeRole, Propagation, Topology, TopologyBuilder,
    };
    pub use seleth_obs::{
        evaluate_trend, parse_history, trace_diff, Divergence, Event, EventKind, EventLog,
        NoopRecorder, Recorder, Stopwatch, Telemetry, TelemetryShard, TraceLog, TrendReport,
        TrendRow,
    };
    pub use seleth_sim::delay::{
        DelayConfig, DelayCounters, DelayReport, DelaySimulation, MinerStrategy, PropagationModel,
    };
    pub use seleth_sim::{
        delay_divergence, diagnose, engine_divergence, explain_divergence, multi, record_delay_run,
        record_engine_run, FaultPlan, FaultPlanBuilder, PoolStrategy, SimConfig, SimReport,
        Simulation, TRACE_ON_FAIL_ENV,
    };
    pub use seleth_zoo::{sm1_closed_form, Cell, Family, StrategyRegistry, Tournament};
}
