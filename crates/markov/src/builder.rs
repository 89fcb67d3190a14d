use std::collections::HashMap;
use std::hash::Hash;

use crate::csr::{CsrBuilder, CsrMatrix};
use crate::dtmc::Dtmc;

/// Incrementally assembles a Markov chain over an arbitrary state type.
///
/// States are interned on first use and mapped to dense indices; transitions
/// are accumulated as *rates* (repeated `add_rate` calls for the same pair
/// add up). The builder is finished as a discrete-time chain
/// ([`ChainBuilder::build_dtmc`]), each row normalized to probabilities.
///
/// ```
/// use seleth_markov::{ChainBuilder, SolveOptions};
/// let mut b = ChainBuilder::new();
/// // Rates out of state 0 add up to 2 + 1 = 3, so 0 → 1 has probability
/// // 2/3 and the jump chain's stationary mass on 1 is 2/5.
/// b.add_rate(0u8, 1u8, 2.0);
/// b.add_rate(0u8, 0u8, 1.0);
/// b.add_rate(1u8, 0u8, 1.0);
/// let pi = b.build_dtmc().stationary(SolveOptions::default()).unwrap();
/// assert!((pi.prob(&1u8) - 2.0 / 5.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone)]
pub struct ChainBuilder<S> {
    states: Vec<S>,
    index: HashMap<S, usize>,
    rows: Vec<HashMap<usize, f64>>,
}

impl<S: Eq + Hash + Clone> ChainBuilder<S> {
    /// Create an empty builder.
    pub fn new() -> Self {
        ChainBuilder {
            states: Vec::new(),
            index: HashMap::new(),
            rows: Vec::new(),
        }
    }

    /// Number of distinct states registered so far.
    pub fn len(&self) -> usize {
        self.states.len()
    }

    /// `true` if no state has been registered.
    pub fn is_empty(&self) -> bool {
        self.states.is_empty()
    }

    /// Intern `state`, returning its dense index. Registering a state without
    /// transitions is allowed (useful for pre-ordering states).
    pub fn intern(&mut self, state: S) -> usize {
        if let Some(&i) = self.index.get(&state) {
            return i;
        }
        let i = self.states.len();
        self.states.push(state.clone());
        self.index.insert(state, i);
        self.rows.push(HashMap::new());
        i
    }

    /// Add `rate` to the transition `from → to`. Rates for the same pair
    /// accumulate. Zero rates are accepted and ignored at build time.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is negative or not finite; transition rates must be
    /// well-formed at registration time so that build never fails.
    pub fn add_rate(&mut self, from: S, to: S, rate: f64) {
        assert!(
            rate.is_finite() && rate >= 0.0,
            "transition rate must be finite and non-negative, got {rate}"
        );
        let fi = self.intern(from);
        let ti = self.intern(to);
        *self.rows[fi].entry(ti).or_insert(0.0) += rate;
    }

    /// Flatten the accumulated hash-indexed rows into contiguous CSR
    /// storage, column-sorted, dropping zero rates. This is the boundary
    /// where hashing ends: everything downstream is index arithmetic.
    fn into_parts(self) -> (Vec<S>, HashMap<S, usize>, CsrMatrix) {
        let ChainBuilder {
            states,
            index,
            rows,
        } = self;
        let nnz = rows.iter().map(HashMap::len).sum();
        let mut csr = CsrBuilder::with_capacity(rows.len(), nnz);
        let mut scratch: Vec<(usize, f64)> = Vec::new();
        for row in rows {
            scratch.clear();
            scratch.extend(row.into_iter().filter(|&(_, rate)| rate > 0.0));
            scratch.sort_unstable_by_key(|&(c, _)| c);
            csr.push_row(&scratch);
        }
        (states, index, csr.finish())
    }

    /// Finish as a discrete-time chain: each row of accumulated rates is
    /// normalized into a probability distribution (the embedded jump chain).
    pub fn build_dtmc(self) -> Dtmc<S> {
        let (states, index, matrix) = self.into_parts();
        Dtmc::normalized(states, index, matrix)
    }
}

impl<S: Eq + Hash + Clone> Default for ChainBuilder<S> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let mut b = ChainBuilder::new();
        assert_eq!(b.intern("a"), 0);
        assert_eq!(b.intern("b"), 1);
        assert_eq!(b.intern("a"), 0);
        assert_eq!(b.len(), 2);
    }

    #[test]
    fn rates_accumulate() {
        let mut b = ChainBuilder::new();
        b.add_rate(0, 1, 0.25);
        b.add_rate(0, 1, 0.25);
        b.add_rate(0, 0, 0.5);
        let d = b.build_dtmc();
        assert!((d.prob(&0, &1) - 0.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_rate_panics() {
        let mut b = ChainBuilder::new();
        b.add_rate(0, 1, -1.0);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn nan_rate_panics() {
        let mut b = ChainBuilder::new();
        b.add_rate(0, 1, f64::NAN);
    }

    #[test]
    fn zero_rates_dropped() {
        let mut b = ChainBuilder::new();
        b.add_rate(0, 1, 0.0);
        b.add_rate(0, 0, 1.0);
        let d = b.build_dtmc();
        assert_eq!(d.prob(&0, &1), 0.0);
        assert_eq!(d.prob(&0, &0), 1.0);
    }

    #[test]
    fn empty_builder_reports_empty() {
        let b: ChainBuilder<u32> = ChainBuilder::default();
        assert!(b.is_empty());
        assert_eq!(b.len(), 0);
    }
}
