use std::collections::HashMap;
use std::hash::Hash;

/// A probability distribution over the states of a chain.
///
/// Returned by the stationary solvers; indexable both by dense index and by
/// the original state value.
///
/// ```
/// use seleth_markov::{ChainBuilder, SolveOptions};
/// let mut b = ChainBuilder::new();
/// b.add_rate('a', 'b', 1.0);
/// b.add_rate('b', 'a', 1.0);
/// let pi = b.build_dtmc().stationary(SolveOptions::default()).unwrap();
/// assert_eq!(pi.len(), 2);
/// let total: f64 = pi.iter().map(|(_, p)| p).sum();
/// assert!((total - 1.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone)]
pub struct Distribution<S> {
    states: Vec<S>,
    index: HashMap<S, usize>,
    probs: Vec<f64>,
}

impl<S: Eq + Hash + Clone> Distribution<S> {
    pub(crate) fn from_parts(states: Vec<S>, index: HashMap<S, usize>, probs: Vec<f64>) -> Self {
        debug_assert_eq!(states.len(), probs.len());
        Distribution {
            states,
            index,
            probs,
        }
    }

    /// A distribution over `states` (which must be distinct), `probs[i]`
    /// being the probability of `states[i]`.
    ///
    /// ```
    /// use seleth_markov::Distribution;
    /// let d = Distribution::from_probs(vec!['x', 'y'], vec![0.25, 0.75]);
    /// assert_eq!(d.prob(&'y'), 0.75);
    /// assert_eq!(d.probs(), &[0.25, 0.75]);
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `states` and `probs` differ in length.
    pub fn from_probs(states: Vec<S>, probs: Vec<f64>) -> Self {
        assert_eq!(states.len(), probs.len(), "one probability per state");
        let index = states.iter().cloned().zip(0..).collect();
        Distribution::from_parts(states, index, probs)
    }

    /// The probabilities in dense-index order.
    pub fn probs(&self) -> &[f64] {
        &self.probs
    }

    /// Probability of `state`; `0.0` for states not in the chain.
    pub fn prob(&self, state: &S) -> f64 {
        self.index.get(state).map_or(0.0, |&i| self.probs[i])
    }

    /// Probability of the state with dense index `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn prob_at(&self, i: usize) -> f64 {
        self.probs[i]
    }

    /// Number of states.
    pub fn len(&self) -> usize {
        self.probs.len()
    }

    /// `true` if the distribution covers no states.
    pub fn is_empty(&self) -> bool {
        self.probs.is_empty()
    }

    /// Iterate over `(state, probability)` pairs in dense-index order.
    pub fn iter(&self) -> impl Iterator<Item = (&S, f64)> + '_ {
        self.states.iter().zip(self.probs.iter().copied())
    }

    /// The state with the highest stationary probability, with that
    /// probability. `None` for an empty distribution.
    pub fn mode(&self) -> Option<(&S, f64)> {
        let (i, &p) = self
            .probs
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))?;
        Some((&self.states[i], p))
    }

    /// Expected value of `f` under the distribution.
    pub fn expect<F: FnMut(&S) -> f64>(&self, mut f: F) -> f64 {
        self.iter().map(|(s, p)| p * f(s)).sum()
    }

    /// Total probability mass of states satisfying `pred`.
    pub fn mass_where<F: FnMut(&S) -> bool>(&self, mut pred: F) -> f64 {
        self.iter().filter(|(s, _)| pred(s)).map(|(_, p)| p).sum()
    }

    /// L1 distance to another distribution over the same chain.
    ///
    /// # Panics
    ///
    /// Panics if the two distributions have different lengths.
    pub fn l1_distance(&self, other: &Distribution<S>) -> f64 {
        assert_eq!(
            self.len(),
            other.len(),
            "distributions cover different chains"
        );
        self.probs
            .iter()
            .zip(&other.probs)
            .map(|(a, b)| (a - b).abs())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dist() -> Distribution<u32> {
        let states = vec![0u32, 1, 2];
        let index = states.iter().enumerate().map(|(i, &s)| (s, i)).collect();
        Distribution::from_parts(states, index, vec![0.2, 0.5, 0.3])
    }

    #[test]
    fn prob_lookup() {
        let d = dist();
        assert_eq!(d.prob(&1), 0.5);
        assert_eq!(d.prob(&99), 0.0);
        assert_eq!(d.prob_at(2), 0.3);
    }

    #[test]
    fn mode_and_expect() {
        let d = dist();
        assert_eq!(d.mode(), Some((&1u32, 0.5)));
        let mean = d.expect(|&s| s as f64);
        assert!((mean - (0.5 + 0.6)).abs() < 1e-12);
    }

    #[test]
    fn mass_where_partitions() {
        let d = dist();
        let even = d.mass_where(|s| s % 2 == 0);
        let odd = d.mass_where(|s| s % 2 == 1);
        assert!((even + odd - 1.0).abs() < 1e-12);
    }

    #[test]
    fn l1_distance_zero_for_self() {
        let d = dist();
        assert_eq!(d.l1_distance(&d), 0.0);
    }
}
