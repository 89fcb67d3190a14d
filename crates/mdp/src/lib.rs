//! Optimal selfish-mining strategies via Markov decision processes.
//!
//! *Selfish Mining in Ethereum* analyses one fixed strategy (Algorithm 1)
//! and notes it "isn't necessarily optimal" (Remark 1); its related work
//! leans on Sapirshtein et al. (FC 2016) and Gervais et al. (CCS 2016),
//! who compute *optimal* withholding strategies for Bitcoin as an
//! average-reward MDP. This crate implements that machinery from scratch:
//!
//! - the standard state space `(a, h, fork)` — attacker chain length,
//!   honest chain length, and whether a published fork race is relevant or
//!   active — with the four actions *adopt / override / match / wait*;
//! - the Dinkelbach transform: for a candidate revenue `ρ`, per-step
//!   rewards become `r_attacker − ρ·units`, and the optimal revenue is the
//!   `ρ*` at which the optimal average reward is zero. `ρ*` is found by
//!   bisection on ρ, each candidate evaluated by relative value iteration
//!   started from the previous values shifted by `−Δρ` times the units
//!   bias (exact under a fixed policy). A bisection sign certified by the
//!   value-iteration sandwich does not depend on the starting values, so
//!   the shift changes sweep counts, not revenue bits
//!   ([`SolveStats::unresolved_signs`] counts the uncertified ones);
//! - two reward models: exact Bitcoin (validated against Eyal–Sirer's
//!   closed form where SM1 is optimal, and against Sapirshtein et al.'s
//!   published optimal revenue 0.37077 at `α = 0.35, γ = 0`), and a
//!   documented
//!   first-order approximation of Ethereum's uncle/nephew rewards
//!   ([`RewardModel::EthereumApprox`]), which lets the optimal-play
//!   analysis reproduce the paper's headline — Ethereum is strictly more
//!   vulnerable — beyond the fixed Algorithm 1;
//! - the fixed rules themselves ([`rules`]): honest mining, SM1 (the
//!   paper's Algorithm 1) and lead-stubborn mining, written once for the
//!   simulator and the strategy zoo.
//!
//! # Example
//!
//! ```
//! use seleth_mdp::{MdpConfig, RewardModel};
//!
//! // Optimal Bitcoin selfish mining at α = 0.3 with uniform tie-breaking
//! // (γ = 0.5): profitable — the honest baseline would earn exactly 0.3.
//! let config = MdpConfig::new(0.3, 0.5, RewardModel::Bitcoin).with_max_len(40);
//! let solution = config.solve().unwrap();
//! assert!(solution.revenue > 0.3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Library code must degrade with typed errors, never a panic, on
// untrusted input or a malformed state space.
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

mod model;
pub mod policy;
pub mod rules;
mod solver;

pub use model::{Action, Fork, MdpConfig, MdpError, MdpState, RewardModel, MATCH_D_CAP};
pub use policy::{PolicyError, PolicyTable, StateSpace};
pub use solver::{Policy, Solution, SolveStats, ValueCache};
