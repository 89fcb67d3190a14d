use std::collections::HashMap;
use std::hash::Hash;

use crate::csr::CsrMatrix;
use crate::distribution::Distribution;
use crate::error::SolveError;
use crate::solve::{self, SolveOptions};

/// A discrete-time Markov chain with row-stochastic transition matrix.
///
/// Built with [`crate::ChainBuilder::build_dtmc`]; rows are normalized at
/// build time, so `prob` always returns a probability. Transitions are
/// stored in a contiguous [`CsrMatrix`]; the state → index
/// [`HashMap`] exists only for boundary lookups (`prob`, `index_of`), never
/// inside the numeric kernels.
///
/// ```
/// use seleth_markov::{ChainBuilder, SolveOptions};
/// let mut b = ChainBuilder::new();
/// b.add_rate("work", "rest", 1.0);
/// b.add_rate("rest", "work", 3.0);
/// b.add_rate("rest", "rest", 1.0);
/// let chain = b.build_dtmc();
/// assert_eq!(chain.prob(&"work", &"rest"), 1.0);
/// let pi = chain.stationary(SolveOptions::default()).unwrap();
/// assert!((pi.prob(&"work") - 3.0 / 7.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone)]
pub struct Dtmc<S> {
    states: Vec<S>,
    index: HashMap<S, usize>,
    matrix: CsrMatrix,
}

impl<S: Eq + Hash + Clone> Dtmc<S> {
    pub(crate) fn from_parts(states: Vec<S>, index: HashMap<S, usize>, matrix: CsrMatrix) -> Self {
        Dtmc {
            states,
            index,
            matrix,
        }
    }

    /// Number of states.
    pub fn len(&self) -> usize {
        self.states.len()
    }

    /// `true` if the chain has no states.
    pub fn is_empty(&self) -> bool {
        self.states.is_empty()
    }

    /// The states in dense-index order.
    pub fn states(&self) -> &[S] {
        &self.states
    }

    /// Dense index of `state`, if present.
    pub fn index_of(&self, state: &S) -> Option<usize> {
        self.index.get(state).copied()
    }

    /// The CSR transition matrix (row `i` holds the out-transitions of the
    /// state at dense index `i`, column-sorted).
    pub fn matrix(&self) -> &CsrMatrix {
        &self.matrix
    }

    /// Iterate the non-zero transitions out of dense index `i` as
    /// `(column, probability)` pairs.
    pub(crate) fn row(&self, i: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        self.matrix.row(i)
    }

    /// One-step transition probability `from → to` (0 if either state is
    /// unknown or the transition is absent).
    pub fn prob(&self, from: &S, to: &S) -> f64 {
        let (Some(&fi), Some(&ti)) = (self.index.get(from), self.index.get(to)) else {
            return 0.0;
        };
        self.matrix.get(fi, ti)
    }

    /// Iterate the non-zero transitions out of `state`.
    pub fn transitions_from<'a>(&'a self, state: &S) -> impl Iterator<Item = (&'a S, f64)> + 'a {
        let (cols, vals) = self
            .index
            .get(state)
            .map_or((&[] as &[usize], &[] as &[f64]), |&i| {
                self.matrix.row_entries(i)
            });
        cols.iter()
            .zip(vals)
            .map(move |(&j, &p)| (&self.states[j], p))
    }

    /// Compute the stationary distribution `π = π P`.
    ///
    /// # Errors
    ///
    /// Returns [`SolveError`] if the chain is empty, has dead-end states, is
    /// reducible (when checking is enabled), or the iterative solver fails to
    /// converge within budget.
    pub fn stationary(&self, opts: SolveOptions) -> Result<Distribution<S>, SolveError> {
        let probs = solve::solve(&self.matrix, &opts)?;
        Ok(Distribution::from_parts(
            self.states.clone(),
            self.index.clone(),
            probs,
        ))
    }

    /// Evolve an initial distribution `n` steps: returns `π₀ Pⁿ`.
    ///
    /// The initial distribution assigns all mass to `start`; `None` if
    /// `start` is not a state of the chain.
    pub fn evolve_from(&self, start: &S, n: usize) -> Option<Distribution<S>> {
        let i0 = *self.index.get(start)?;
        let mut pi = vec![0.0; self.states.len()];
        pi[i0] = 1.0;
        let mut next = vec![0.0; self.states.len()];
        for _ in 0..n {
            self.matrix.left_mul_vec(&pi, &mut next);
            std::mem::swap(&mut pi, &mut next);
        }
        Some(Distribution::from_parts(
            self.states.clone(),
            self.index.clone(),
            pi,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solve::SolveMethod;
    use crate::ChainBuilder;

    fn chain() -> Dtmc<&'static str> {
        let mut b = ChainBuilder::new();
        b.add_rate("a", "b", 2.0);
        b.add_rate("a", "a", 2.0);
        b.add_rate("b", "a", 1.0);
        b.build_dtmc()
    }

    #[test]
    fn rows_are_normalized() {
        let c = chain();
        assert!((c.prob(&"a", &"b") - 0.5).abs() < 1e-12);
        assert!((c.prob(&"a", &"a") - 0.5).abs() < 1e-12);
        assert_eq!(c.prob(&"b", &"a"), 1.0);
        assert_eq!(c.prob(&"zzz", &"a"), 0.0);
    }

    #[test]
    fn transitions_from_lists_neighbors() {
        let c = chain();
        let mut out: Vec<_> = c.transitions_from(&"a").collect();
        out.sort_by_key(|(s, _)| *s);
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn evolve_converges_to_stationary() {
        let c = chain();
        let pi = c.stationary(SolveOptions::default()).unwrap();
        let evolved = c.evolve_from(&"a", 200).unwrap();
        assert!(pi.l1_distance(&evolved) < 1e-9);
        assert!(c.evolve_from(&"zzz", 1).is_none());
    }

    #[test]
    fn stationary_matches_hand_computation() {
        // pi_a * 0.5 = pi_b  =>  pi = (2/3, 1/3)
        let c = chain();
        for m in [
            SolveMethod::PowerIteration,
            SolveMethod::GaussSeidel,
            SolveMethod::DenseLu,
        ] {
            let pi = c.stationary(SolveOptions::with_method(m)).unwrap();
            assert!((pi.prob(&"a") - 2.0 / 3.0).abs() < 1e-9, "{m:?}");
        }
    }
}
