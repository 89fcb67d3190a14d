//! Generic Markov-chain machinery used by the selfish-mining analysis.
//!
//! This crate provides the numerical substrate for the 2-dimensional Markov
//! process of *Selfish Mining in Ethereum* (Niu & Feng, ICDCS 2019): sparse
//! transition structures over arbitrary state types and several
//! stationary-distribution solvers
//! (power iteration, Gauss–Seidel, dense LU) so results can be
//! cross-validated against each other and against closed forms.
//!
//! All solvers run over contiguous [`csr`] storage (`row_ptr`/`col_idx`/
//! `values` arrays); state values and hashing live only at the construction
//! boundary, where [`ChainBuilder`] interns states into dense indices.
//!
//! # Quick example
//!
//! A two-state weather chain: sunny → rainy with probability 0.1,
//! rainy → sunny with probability 0.5.
//!
//! ```
//! use seleth_markov::{ChainBuilder, SolveOptions};
//!
//! # fn main() -> Result<(), seleth_markov::SolveError> {
//! let mut b = ChainBuilder::new();
//! b.add_rate("sunny", "rainy", 0.1);
//! b.add_rate("sunny", "sunny", 0.9);
//! b.add_rate("rainy", "sunny", 0.5);
//! b.add_rate("rainy", "rainy", 0.5);
//! let chain = b.build_dtmc();
//! let pi = chain.stationary(SolveOptions::default())?;
//! assert!((pi.prob(&"sunny") - 5.0 / 6.0).abs() < 1e-9);
//! # Ok(())
//! # }
//! ```
//!
//! The chain builder accepts *rates*; [`ChainBuilder::build_dtmc`] normalizes
//! each row into probabilities (the embedded jump chain).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Library code must degrade with typed errors, never a panic, on
// untrusted input: a lookup that can miss returns `Option`, a solver
// that can fail returns `SolveError`.
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

mod builder;
pub mod csr;
mod distribution;
mod dtmc;
mod error;
pub mod hitting;
mod solve;

pub use builder::ChainBuilder;
pub use distribution::Distribution;
pub use dtmc::Dtmc;
pub use error::SolveError;
pub use solve::{solve_dense, SolveMethod, SolveOptions};

/// Helpers for constructing standard textbook chains, used in tests and
/// benchmarks as ground truth.
pub mod classic {
    use crate::{ChainBuilder, Dtmc};

    /// Build an M/M/1/K queue (birth–death chain) with arrival rate
    /// `lambda`, service rate `mu` and capacity `capacity` (states
    /// `0..=capacity`).
    ///
    /// Its stationary distribution is the truncated geometric
    /// `pi_k ∝ (lambda/mu)^k`, which makes it a convenient oracle for solver
    /// tests.
    ///
    /// # Panics
    ///
    /// Panics if `lambda` or `mu` is not strictly positive.
    ///
    /// ```
    /// use seleth_markov::{classic, SolveOptions};
    /// let q = classic::mm1k(1.0, 2.0, 10);
    /// let pi = q.stationary(SolveOptions::default()).unwrap();
    /// // rho = 1/2: pi_0 = (1 - rho) / (1 - rho^11)
    /// assert!((pi.prob(&0) - 0.5 / (1.0 - 0.5f64.powi(11))).abs() < 1e-9);
    /// ```
    pub fn mm1k(lambda: f64, mu: f64, capacity: usize) -> Dtmc<usize> {
        assert!(lambda > 0.0, "lambda must be positive");
        assert!(mu > 0.0, "mu must be positive");
        let mut b = ChainBuilder::new();
        for k in 0..=capacity {
            if k < capacity {
                b.add_rate(k, k + 1, lambda);
            }
            if k > 0 {
                b.add_rate(k, k - 1, mu);
            }
        }
        // Uniformize so the embedded chain has the same stationary
        // distribution as the continuous-time queue: add self-loops
        // topping rates up to a common constant.
        let total = lambda + mu;
        b.add_rate(0, 0, total - lambda);
        if capacity > 0 {
            b.add_rate(capacity, capacity, total - mu);
        }
        b.build_dtmc()
    }
}
