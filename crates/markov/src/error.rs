use std::error::Error;
use std::fmt;

/// Error returned by stationary-distribution solvers.
///
/// ```
/// use seleth_markov::SolveError;
/// let err = SolveError::NotConverged { iterations: 10, residual: 0.5 };
/// assert!(err.to_string().contains("did not converge"));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum SolveError {
    /// The chain has no states, so there is no distribution to compute.
    EmptyChain,
    /// Some state has no outgoing transitions; the chain cannot be
    /// stationary-solved as given (add a self-loop for absorbing states).
    DeadEndState {
        /// Dense index of the offending state.
        index: usize,
    },
    /// The chain is reducible: not every state can reach every other state,
    /// so the stationary distribution is not unique.
    Reducible,
    /// An iterative solver exhausted its iteration budget before reaching the
    /// requested tolerance.
    NotConverged {
        /// Iterations performed before giving up.
        iterations: usize,
        /// The final iteration's change, in the norm the solver tests
        /// against its tolerance: L1 for the stationary solvers, max-abs
        /// for the hitting-time and hitting-probability sweeps (infinite
        /// if no iteration ran).
        residual: f64,
    },
    /// A transition was registered with a non-finite or negative rate.
    InvalidRate {
        /// The offending rate value.
        rate: f64,
    },
    /// The dense linear solver hit a (numerically) singular pivot.
    Singular,
}

impl fmt::Display for SolveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolveError::EmptyChain => write!(f, "chain has no states"),
            SolveError::DeadEndState { index } => {
                write!(f, "state {index} has no outgoing transitions")
            }
            SolveError::Reducible => {
                write!(
                    f,
                    "chain is reducible; stationary distribution is not unique"
                )
            }
            SolveError::NotConverged {
                iterations,
                residual,
            } => write!(
                f,
                "solver did not converge after {iterations} iterations (residual {residual:e})"
            ),
            SolveError::InvalidRate { rate } => {
                write!(
                    f,
                    "transition rate {rate} is not a finite non-negative number"
                )
            }
            SolveError::Singular => write!(f, "linear system is numerically singular"),
        }
    }
}

impl Error for SolveError {}
