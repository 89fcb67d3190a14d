//! Analysis of selfish mining in Ethereum — a faithful implementation of
//! *Selfish Mining in Ethereum* (Jianyu Niu & Chen Feng, ICDCS 2019,
//! arXiv:1901.04620).
//!
//! The paper models an Eyal–Sirer-style selfish mining pool in Ethereum as a
//! 2-dimensional Markov process over `(Ls, Lh)` — the private branch length
//! seen by the pool and the public branch length seen by honest miners — and
//! tracks Ethereum's three reward types (static, uncle, nephew)
//! *probabilistically* per state transition. This crate implements:
//!
//! - [`ModelParams`] / [`State`] / [`chain_model`]: the Markov process of
//!   Fig. 7 with its eleven transition-rate families (Section IV-C);
//! - [`stationary`]: the exact stationary distribution of the truncated
//!   chain (one dense LU over the column-`Lh = 1` masses) and the paper's
//!   closed forms — `π₀₀`, `πᵢ₀`, `π₁₁` and the general `πᵢⱼ` built on
//!   the multiple-summation function `f(x,y,z)` (Eq. (2), Appendix A);
//! - [`rewards`]: the per-transition expected-reward analysis of
//!   Appendix B (Cases 1–12);
//! - [`revenue`]: long-term revenue rates `r_b^s, r_b^h, r_u^s, r_u^h,
//!   r_n^s, r_n^h` (Eqs. (3)–(9)), relative share `R_s` (Eq. (10)) and
//!   absolute revenues `U_s`, `U_h` under the two difficulty-adjustment
//!   scenarios of Section IV-E-2;
//! - [`threshold`]: the profitability threshold `α*` (Section IV-E-3);
//! - [`distances`]: the honest miners' uncle reference-distance
//!   distribution (Table II);
//! - [`bitcoin`]: the Eyal–Sirer Bitcoin baseline (1-D model, closed-form
//!   revenue and the `(1−γ)/(3−2γ)` threshold) used in Fig. 10.
//!
//! # Quickstart
//!
//! ```
//! use seleth_core::{Analysis, ModelParams, Scenario};
//! use seleth_chain::RewardSchedule;
//!
//! # fn main() -> Result<(), seleth_core::AnalysisError> {
//! // A pool with 30% hash power, γ = 0.5, Ethereum Byzantium rewards.
//! let params = ModelParams::new(0.30, 0.5, RewardSchedule::ethereum())?;
//! let analysis = Analysis::new(&params)?;
//! let revenue = analysis.revenue();
//! let us = revenue.absolute_pool(Scenario::RegularRate);
//! assert!(us > 0.30, "at α=0.3 selfish mining beats honest mining");
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Library code must degrade with typed errors, never a panic, on
// untrusted input.
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

mod analysis;
pub mod bitcoin;
pub mod chain_model;
pub mod cycles;
pub mod distances;
mod error;
mod params;
pub mod revenue;
pub mod rewards;
mod state;
pub mod stationary;
pub mod summation;
pub mod threshold;

pub use analysis::Analysis;
pub use error::AnalysisError;
pub use params::ModelParams;
pub use revenue::{RevenueBreakdown, Scenario};
pub use state::State;
