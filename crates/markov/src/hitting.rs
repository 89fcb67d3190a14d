//! First-passage analysis: expected hitting times and hit-before
//! probabilities.
//!
//! Used by the selfish-mining analysis for *attack-cycle* statistics — the
//! expected number of blocks between consensus points is the expected
//! return time to `(0,0)`, which renewal theory ties back to the
//! stationary distribution (`E[return] = 1/π₀₀`), giving an independent
//! cross-check of the solvers.

use std::collections::VecDeque;
use std::hash::Hash;

use crate::dtmc::Dtmc;
use crate::error::SolveError;

/// Numerical options for the iterative first-passage solvers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HittingOptions {
    /// Convergence tolerance on the max-norm between sweeps.
    pub tolerance: f64,
    /// Iteration budget.
    pub max_iterations: usize,
}

impl Default for HittingOptions {
    fn default() -> Self {
        HittingOptions {
            tolerance: 1e-12,
            max_iterations: 1_000_000,
        }
    }
}

impl<S: Eq + Hash + Clone> Dtmc<S> {
    /// Expected number of steps to first reach any state of `targets`,
    /// from every state (entry is `None` for states that cannot reach the
    /// target set; `Some(0.0)` for the targets themselves).
    ///
    /// Solves `h_i = 1 + Σ_j P_ij h_j` (over non-target `i`) by
    /// Gauss–Seidel sweeps restricted to the states that can reach the
    /// targets.
    ///
    /// # Errors
    ///
    /// - [`SolveError::EmptyChain`] if `targets` is empty or contains no
    ///   known state.
    /// - [`SolveError::NotConverged`] if the sweep budget is exhausted
    ///   (e.g. for chains where the expected hitting time is infinite even
    ///   though the target is reachable).
    ///
    /// ```
    /// use seleth_markov::{ChainBuilder, hitting::HittingOptions};
    /// // Fair coin flips until the first heads: E = 2.
    /// let mut b = ChainBuilder::new();
    /// b.add_rate("flip", "heads", 0.5);
    /// b.add_rate("flip", "flip", 0.5);
    /// b.add_rate("heads", "heads", 1.0);
    /// let chain = b.build_dtmc();
    /// let h = chain.expected_hitting_times(&["heads"], HittingOptions::default()).unwrap();
    /// let i = chain.index_of(&"flip").unwrap();
    /// assert!((h[i].unwrap() - 2.0).abs() < 1e-9);
    /// ```
    pub fn expected_hitting_times(
        &self,
        targets: &[S],
        opts: HittingOptions,
    ) -> Result<Vec<Option<f64>>, SolveError> {
        let n = self.len();
        let mut is_target = vec![false; n];
        let mut any = false;
        for t in targets {
            if let Some(i) = self.index_of(t) {
                is_target[i] = true;
                any = true;
            }
        }
        if !any {
            return Err(SolveError::EmptyChain);
        }
        let reach = self.can_reach(&is_target);

        let mut h = vec![0.0f64; n];
        let mut delta = f64::INFINITY;
        for _ in 0..opts.max_iterations {
            delta = 0.0;
            for i in 0..n {
                if is_target[i] || !reach[i] {
                    continue;
                }
                let mut acc = 1.0;
                let mut self_p = 0.0;
                for (s, p) in self.row(i) {
                    if s == i {
                        self_p = p;
                    } else if reach[s] && !is_target[s] {
                        acc += p * h[s];
                    }
                    // Targets contribute h = 0; unreachable successors are
                    // impossible here (they would make i unreachable too,
                    // unless i also leads to the target — in which case the
                    // expected time is infinite and we will fail to
                    // converge, which is the correct signal).
                    if !reach[s] && !is_target[s] && p > 0.0 {
                        // Escaping to a non-returning component ⇒ infinite
                        // expectation: poison the value so it diverges.
                        acc += p * 1e18;
                    }
                }
                let new = if self_p < 1.0 {
                    acc / (1.0 - self_p)
                } else {
                    f64::INFINITY
                };
                delta = delta.max((new - h[i]).abs());
                h[i] = new;
            }
            if delta < opts.tolerance {
                return Ok((0..n)
                    .map(|i| {
                        if is_target[i] {
                            Some(0.0)
                        } else if reach[i] && h[i] < 1e17 {
                            Some(h[i])
                        } else {
                            None
                        }
                    })
                    .collect());
            }
        }
        Err(SolveError::NotConverged {
            iterations: opts.max_iterations,
            residual: delta,
        })
    }

    /// Probability, from each state, of reaching `a` before `b`.
    ///
    /// Solves the harmonic system `p_i = Σ_j P_ij p_j` with boundary
    /// `p_a = 1`, `p_b = 0`.
    ///
    /// # Errors
    ///
    /// - [`SolveError::EmptyChain`] if `a` or `b` is not a state of the
    ///   chain.
    /// - [`SolveError::NotConverged`] if the sweep budget is exhausted.
    ///
    /// ```
    /// use seleth_markov::{classic, hitting::HittingOptions};
    /// // Gambler's ruin on a fair M/M/1/K queue: linear in the start.
    /// let q = classic::mm1k(1.0, 1.0, 10);
    /// let p = q.probability_hits_before(&10, &0, HittingOptions::default()).unwrap();
    /// let i = q.index_of(&5).unwrap();
    /// assert!((p[i] - 0.5).abs() < 1e-9);
    /// ```
    pub fn probability_hits_before(
        &self,
        a: &S,
        b: &S,
        opts: HittingOptions,
    ) -> Result<Vec<f64>, SolveError> {
        let (Some(ia), Some(ib)) = (self.index_of(a), self.index_of(b)) else {
            return Err(SolveError::EmptyChain);
        };
        let n = self.len();
        let mut p = vec![0.0f64; n];
        p[ia] = 1.0;
        let mut delta = f64::INFINITY;
        for _ in 0..opts.max_iterations {
            delta = 0.0;
            for i in 0..n {
                if i == ia || i == ib {
                    continue;
                }
                let mut acc = 0.0;
                let mut self_p = 0.0;
                for (s, q) in self.row(i) {
                    if s == i {
                        self_p = q;
                    } else {
                        acc += q * p[s];
                    }
                }
                let new = if self_p < 1.0 {
                    acc / (1.0 - self_p)
                } else {
                    p[i]
                };
                delta = delta.max((new - p[i]).abs());
                p[i] = new;
            }
            if delta < opts.tolerance {
                return Ok(p);
            }
        }
        Err(SolveError::NotConverged {
            iterations: opts.max_iterations,
            residual: delta,
        })
    }

    /// Expected return time to `state`: one step plus the expected hitting
    /// time of `state` from the one-step distribution out of it. For an
    /// irreducible positive-recurrent chain this equals `1 / π(state)`
    /// (Kac's formula).
    ///
    /// # Errors
    ///
    /// As [`Dtmc::expected_hitting_times`].
    pub fn expected_return_time(&self, state: &S, opts: HittingOptions) -> Result<f64, SolveError> {
        let Some(i0) = self.index_of(state) else {
            return Err(SolveError::EmptyChain);
        };
        let h = self.expected_hitting_times(std::slice::from_ref(state), opts)?;
        let mut acc = 1.0;
        for (s, p) in self.row(i0) {
            if s != i0 {
                match h[s] {
                    Some(v) => acc += p * v,
                    None => return Err(SolveError::Reducible),
                }
            }
        }
        Ok(acc)
    }

    /// BFS on the reverse graph: which states can reach the target set.
    fn can_reach(&self, is_target: &[bool]) -> Vec<bool> {
        let n = self.len();
        let mut reverse: Vec<Vec<usize>> = vec![Vec::new(); n];
        for i in 0..n {
            for (j, _) in self.row(i) {
                reverse[j].push(i);
            }
        }
        let mut seen = vec![false; n];
        let mut queue: VecDeque<usize> = (0..n)
            .filter(|&i| is_target[i])
            .inspect(|&i| seen[i] = true)
            .collect();
        while let Some(i) = queue.pop_front() {
            for &j in &reverse[i] {
                if !seen[j] {
                    seen[j] = true;
                    queue.push_back(j);
                }
            }
        }
        seen
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{classic, ChainBuilder, SolveOptions};

    #[test]
    fn gamblers_ruin_probabilities() {
        // Biased walk on 0..=N with up-probability p: P(hit N before 0 | i)
        // = (1 - r^i) / (1 - r^N) with r = q/p.
        let (lambda, mu, n) = (2.0, 3.0, 8usize);
        let q = classic::mm1k(lambda, mu, n);
        let probs = q
            .probability_hits_before(&n, &0, HittingOptions::default())
            .unwrap();
        let r: f64 = mu / lambda;
        for i in 1..n {
            let want = (1.0 - r.powi(i as i32)) / (1.0 - r.powi(n as i32));
            let got = probs[q.index_of(&i).unwrap()];
            assert!((got - want).abs() < 1e-9, "i={i}: got {got}, want {want}");
        }
    }

    #[test]
    fn symmetric_walk_hitting_times() {
        // Symmetric random walk absorbed at both ends: E[T | i] = i (N − i).
        let n = 10usize;
        let mut b = ChainBuilder::new();
        for i in 1..n {
            b.add_rate(i, i - 1, 0.5);
            b.add_rate(i, i + 1, 0.5);
        }
        b.add_rate(0, 0, 1.0);
        b.add_rate(n, n, 1.0);
        let chain = b.build_dtmc();
        let h = chain
            .expected_hitting_times(&[0, n], HittingOptions::default())
            .unwrap();
        for i in 1..n {
            let got = h[chain.index_of(&i).unwrap()].unwrap();
            let want = (i * (n - i)) as f64;
            assert!((got - want).abs() < 1e-7, "i={i}: got {got}, want {want}");
        }
    }

    /// A one-sweep budget on a chain that needs more: the error carries
    /// that sweep's finite max-abs change.
    fn assert_last_delta<T: std::fmt::Debug>(result: Result<T, SolveError>, opts: HittingOptions) {
        match result {
            Err(SolveError::NotConverged {
                iterations: 1,
                residual,
            }) => assert!(
                residual.is_finite() && residual >= opts.tolerance,
                "residual {residual}"
            ),
            other => panic!("expected NotConverged, got {other:?}"),
        }
    }

    #[test]
    fn unconverged_sweeps_report_their_last_change() {
        let opts = HittingOptions {
            max_iterations: 1,
            ..HittingOptions::default()
        };
        let q = classic::mm1k(1.0, 1.0, 10);
        assert_last_delta(q.expected_hitting_times(&[0, 10], opts), opts);
        assert_last_delta(q.probability_hits_before(&10, &0, opts), opts);
    }

    #[test]
    fn kac_formula_on_queue() {
        let q = classic::mm1k(1.0, 2.0, 12);
        let pi = q.stationary(SolveOptions::default()).unwrap();
        for state in [0usize, 3, 8] {
            let ret = q
                .expected_return_time(&state, HittingOptions::default())
                .unwrap();
            let want = 1.0 / pi.prob(&state);
            assert!(
                (ret - want).abs() / want < 1e-8,
                "state {state}: {ret} vs {want}"
            );
        }
    }

    #[test]
    fn unreachable_targets_are_none() {
        // 0 → 1 → 1; target 0 unreachable from 1.
        let mut b = ChainBuilder::new();
        b.add_rate(0, 1, 1.0);
        b.add_rate(1, 1, 1.0);
        let chain = b.build_dtmc();
        let h = chain
            .expected_hitting_times(&[0], HittingOptions::default())
            .unwrap();
        assert_eq!(h[chain.index_of(&0).unwrap()], Some(0.0));
        assert_eq!(h[chain.index_of(&1).unwrap()], None);
    }

    #[test]
    fn unknown_target_errors() {
        let mut b = ChainBuilder::new();
        b.add_rate(0, 0, 1.0);
        let chain = b.build_dtmc();
        assert!(chain
            .expected_hitting_times(&[42], HittingOptions::default())
            .is_err());
        assert!(chain
            .probability_hits_before(&0, &42, HittingOptions::default())
            .is_err());
    }

    #[test]
    fn absorbing_self_loop_target_trivial() {
        let mut b = ChainBuilder::new();
        b.add_rate("a", "b", 0.3);
        b.add_rate("a", "a", 0.7);
        b.add_rate("b", "b", 1.0);
        let chain = b.build_dtmc();
        let h = chain
            .expected_hitting_times(&["b"], HittingOptions::default())
            .unwrap();
        let ia = chain.index_of(&"a").unwrap();
        // Geometric with success 0.3: mean 1/0.3.
        assert!((h[ia].unwrap() - 1.0 / 0.3).abs() < 1e-9);
    }
}
