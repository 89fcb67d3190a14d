//! The 2-dimensional Markov process of Fig. 7: state space and transition
//! rates (Section IV-C of the paper).
//!
//! Each transition corresponds to one new block being mined (by the pool at
//! rate `α`, by honest miners at rate `β = 1 − α` after the paper's time
//! re-scaling). The total exit rate of every state is therefore `1`, so the
//! embedded jump chain has the same stationary distribution as the
//! continuous-time process; we build it as a DTMC.
//!
//! Every transition is tagged with the Appendix-B *case* that analyses the
//! fate of the block minted by that transition, so the reward analysis
//! ([`crate::rewards`]) can consume the exact same enumeration.

use seleth_markov::csr::CsrBuilder;
use seleth_markov::Dtmc;

use crate::params::ModelParams;
use crate::state::State;

/// The Appendix-B case describing the target block of a transition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Case {
    /// Case 1: `(0,0) → (0,0)`, rate `β`. Honest block on consensus;
    /// regular.
    HonestOnConsensus,
    /// Case 2: `(0,0) → (1,0)`, rate `α`. Pool withholds its first block.
    PoolFirstWithhold,
    /// Case 3: `(1,0) → (2,0)`, rate `α`. Pool extends its private lead to 2.
    PoolSecondWithhold,
    /// Case 4: `(1,0) → (1,1)`, rate `β`. Honest block ties the pool's
    /// published block.
    HonestTie,
    /// Case 5: `(1,1) → (0,0)`, rate `1`. Whoever mines next resolves the
    /// race; the new block is regular.
    RaceResolution,
    /// Case 6: `(i,j) → (i+1,j)`, rate `α`, for `i ≥ 2`. Pool extends a
    /// safe lead; the block is regular with probability 1 (Lemma 1).
    PoolExtendLead,
    /// Case 7: `(i,j) → (i−j,1)`, rate `βγ`, for `i−j ≥ 3`, `j ≥ 1`.
    /// Honest block on the published prefix of the private branch; it
    /// becomes an uncle at distance `i − j`.
    HonestOnPrefix,
    /// Case 8: `(i,j) → (0,0)`, rate `βγ`, for `i−j = 2`, `j ≥ 1`. Honest
    /// block on the prefix forces full publication; uncle at distance 2.
    HonestOnPrefixClose,
    /// Case 9: `(2,0) → (0,0)`, rate `β`. Honest block forces publication
    /// of the 2-block private branch; uncle at distance 2.
    HonestAtLeadTwo,
    /// Case 10: `(i,0) → (i,1)`, rate `β`, for `i ≥ 3`. First honest fork
    /// against a long private branch; uncle at distance `i`.
    HonestFirstFork,
    /// Case 11: `(i,j) → (i,j+1)`, rate `β(1−γ)`, for `i−j ≥ 3`, `j ≥ 1`.
    /// Honest block extends the honest public branch; plain stale.
    HonestExtendPublic,
    /// Case 12: `(i,j) → (0,0)`, rate `β(1−γ)`, for `i−j = 2`, `j ≥ 1`.
    /// As Case 8 but off the prefix; plain stale.
    HonestExtendPublicClose,
}

/// One transition of the model: `from → to` at `rate`, minting a block
/// analysed by `case`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Transition {
    /// Source state.
    pub from: State,
    /// Destination state.
    pub to: State,
    /// Transition rate (probability of this jump, since exit rates are 1).
    pub rate: f64,
    /// Appendix-B case of the target block.
    pub case: Case,
}

/// Enumerate the reachable (truncated) state space: `(0,0)`, `(1,0)`,
/// `(1,1)` and all `(i,j)` with `2 + j ≤ i ≤ truncation`.
pub fn states(truncation: u32) -> Vec<State> {
    let mut v = vec![State::new(0, 0), State::new(1, 0), State::new(1, 1)];
    for i in 2..=truncation {
        for j in 0..=(i - 2) {
            v.push(State::new(i, j));
        }
    }
    v
}

/// Position of `state` in [`states`]: `(0,0)`, `(1,0)` and `(1,1)` first,
/// then row `Ls = i ≥ 2` from `3 + (i−2)(i−1)/2`, in `Lh` order.
///
/// `state` must be a state of the model ([`State::is_valid`]).
///
/// ```
/// use seleth_core::chain_model::{index, states};
/// for (k, s) in states(12).into_iter().enumerate() {
///     assert_eq!(index(s), k);
/// }
/// ```
pub fn index(state: State) -> usize {
    debug_assert!(state.is_valid(), "{state} is not a model state");
    match (state.ls as usize, state.lh as usize) {
        (0, 0) => 0,
        (1, lh) => 1 + lh,
        (i, j) => 3 + (i - 2) * (i - 1) / 2 + j,
    }
}

/// Enumerate every transition of the truncated model, grouped by source
/// state in [`states`] order.
///
/// At the truncation boundary `i = truncation` the pool-extend transition
/// (Case 6) is redirected to a self-loop so the chain stays stochastic; the
/// stationary mass there is `O(α^truncation)` and negligible for
/// `α ≤ 0.45`, `truncation ≥ 60` (Remark 3 of the paper).
pub fn transitions(params: &ModelParams) -> Vec<Transition> {
    let alpha = params.alpha();
    let beta = params.beta();
    let gamma = params.gamma();
    let n = params.truncation();
    let mut out = Vec::new();
    let mut push = |from: State, to: State, rate: f64, case: Case| {
        if rate > 0.0 {
            out.push(Transition {
                from,
                to,
                rate,
                case,
            });
        }
    };

    let s00 = State::new(0, 0);
    let s10 = State::new(1, 0);
    let s11 = State::new(1, 1);

    // Cases 1–5: the small states.
    push(s00, s00, beta, Case::HonestOnConsensus);
    push(s00, s10, alpha, Case::PoolFirstWithhold);
    push(s10, State::new(2, 0), alpha, Case::PoolSecondWithhold);
    push(s10, s11, beta, Case::HonestTie);
    push(s11, s00, 1.0, Case::RaceResolution);

    for i in 2..=n {
        for j in 0..=(i - 2) {
            let s = State::new(i, j);
            // Case 6: pool extends (self-loop at the truncation boundary).
            let extended = if i < n { State::new(i + 1, j) } else { s };
            push(s, extended, alpha, Case::PoolExtendLead);

            let lead = i - j;
            if j == 0 {
                if lead == 2 {
                    // Case 9.
                    push(s, s00, beta, Case::HonestAtLeadTwo);
                } else {
                    // Case 10 (i ≥ 3).
                    push(s, State::new(i, 1), beta, Case::HonestFirstFork);
                }
            } else if lead == 2 {
                // Cases 8 and 12 share the jump to (0,0) but differ in the
                // block's fate; keep them separate for the reward analysis.
                push(s, s00, beta * gamma, Case::HonestOnPrefixClose);
                push(s, s00, beta * (1.0 - gamma), Case::HonestExtendPublicClose);
            } else {
                // Case 7: new fork point after publishing; lead shrinks.
                push(s, State::new(lead, 1), beta * gamma, Case::HonestOnPrefix);
                // Case 11: public branch grows.
                push(
                    s,
                    State::new(i, j + 1),
                    beta * (1.0 - gamma),
                    Case::HonestExtendPublic,
                );
            }
        }
    }
    out
}

/// Build the embedded DTMC of the truncated model.
///
/// Each state's transitions become one CSR row in [`states`] order:
/// parallel edges (Cases 8 + 12) are merged and the boundary's pool-extend
/// self-loop is an ordinary entry. The [`Case`] tags are only needed for
/// reward analysis and are not part of the chain itself.
pub fn build_dtmc(params: &ModelParams) -> Dtmc<State> {
    let states = states(params.truncation());
    let mut rates = CsrBuilder::with_capacity(states.len(), 3 * states.len());
    let mut row: Vec<(usize, f64)> = Vec::with_capacity(3);
    let mut push = |row: &mut Vec<(usize, f64)>| {
        row.sort_unstable_by_key(|&(col, _)| col);
        rates.push_row(row);
        row.clear();
    };
    let mut from = 0;
    for t in transitions(params) {
        let (i, col) = (index(t.from), index(t.to));
        if i != from {
            debug_assert_eq!(i, from + 1, "every state has a transition");
            push(&mut row);
            from = i;
        }
        match row.iter_mut().find(|(c, _)| *c == col) {
            Some((_, rate)) => *rate += t.rate,
            None => row.push((col, t.rate)),
        }
    }
    push(&mut row);
    Dtmc::from_rates(states, rates.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use seleth_chain::RewardSchedule;
    use std::collections::HashMap;

    fn params(alpha: f64, gamma: f64, n: u32) -> ModelParams {
        ModelParams::with_truncation(alpha, gamma, RewardSchedule::ethereum(), n).unwrap()
    }

    #[test]
    fn state_count_matches_formula() {
        // 3 + sum_{i=2}^{N} (i-1)
        let n = 10u32;
        let expected = 3 + (2..=n).map(|i| i - 1).sum::<u32>() as usize;
        assert_eq!(states(n).len(), expected);
    }

    #[test]
    fn all_states_valid() {
        for s in states(30) {
            assert!(s.is_valid(), "{s} invalid");
        }
    }

    #[test]
    fn rates_out_of_each_state_sum_to_one() {
        let p = params(0.3, 0.5, 40);
        let mut out: HashMap<State, f64> = HashMap::new();
        for t in transitions(&p) {
            *out.entry(t.from).or_insert(0.0) += t.rate;
        }
        for s in states(40) {
            let total = out.get(&s).copied().unwrap_or(0.0);
            assert!(
                (total - 1.0).abs() < 1e-12,
                "state {s} exits at rate {total}"
            );
        }
    }

    #[test]
    fn transitions_stay_in_state_space() {
        let p = params(0.45, 0.9, 25);
        let valid: std::collections::HashSet<State> = states(25).into_iter().collect();
        for t in transitions(&p) {
            assert!(valid.contains(&t.from), "{} not in space", t.from);
            assert!(valid.contains(&t.to), "{} not in space", t.to);
        }
    }

    #[test]
    fn specific_rates_match_paper() {
        let p = params(0.3, 0.5, 30);
        let ts = transitions(&p);
        let rate = |from: State, to: State, case: Case| {
            ts.iter()
                .find(|t| t.from == from && t.to == to && t.case == case)
                .map(|t| t.rate)
                .unwrap_or(0.0)
        };
        let (a, b, g) = (0.3, 0.7, 0.5);
        assert_eq!(
            rate(State::new(0, 0), State::new(0, 0), Case::HonestOnConsensus),
            b
        );
        assert_eq!(
            rate(State::new(0, 0), State::new(1, 0), Case::PoolFirstWithhold),
            a
        );
        assert_eq!(
            rate(State::new(1, 1), State::new(0, 0), Case::RaceResolution),
            1.0
        );
        assert_eq!(
            rate(State::new(2, 0), State::new(0, 0), Case::HonestAtLeadTwo),
            b
        );
        assert_eq!(
            rate(State::new(5, 0), State::new(5, 1), Case::HonestFirstFork),
            b
        );
        // (5,1): lead 4 ≥ 3 → cases 7 and 11.
        assert_eq!(
            rate(State::new(5, 1), State::new(4, 1), Case::HonestOnPrefix),
            b * g
        );
        assert_eq!(
            rate(State::new(5, 1), State::new(5, 2), Case::HonestExtendPublic),
            b * (1.0 - g)
        );
        // (3,1): lead 2 → cases 8 and 12 to (0,0).
        assert_eq!(
            rate(
                State::new(3, 1),
                State::new(0, 0),
                Case::HonestOnPrefixClose
            ),
            b * g
        );
        assert_eq!(
            rate(
                State::new(3, 1),
                State::new(0, 0),
                Case::HonestExtendPublicClose
            ),
            b * (1.0 - g)
        );
        assert_eq!(
            rate(State::new(3, 1), State::new(4, 1), Case::PoolExtendLead),
            a
        );
    }

    #[test]
    fn truncation_boundary_self_loops() {
        let p = params(0.3, 0.5, 10);
        let ts = transitions(&p);
        let boundary: Vec<_> = ts
            .iter()
            .filter(|t| t.from.ls == 10 && t.case == Case::PoolExtendLead)
            .collect();
        assert!(!boundary.is_empty());
        for t in boundary {
            assert_eq!(t.from, t.to, "pool-extend at the boundary must self-loop");
        }
    }

    #[test]
    fn gamma_zero_has_no_prefix_mining() {
        let p = params(0.3, 0.0, 20);
        assert!(transitions(&p)
            .iter()
            .all(|t| !matches!(t.case, Case::HonestOnPrefix | Case::HonestOnPrefixClose)));
    }

    #[test]
    fn dtmc_matches_the_chain_builder_route_bit_for_bit() {
        for &(alpha, gamma, n) in &[
            (0.0, 0.5, 3),
            (0.3, 0.0, 12),
            (0.35, 0.5, 30),
            (0.45, 1.0, 25),
            (0.499, 0.7, 40),
        ] {
            let p = params(alpha, gamma, n);
            let mut b = seleth_markov::ChainBuilder::new();
            for s in states(n) {
                b.intern(s);
            }
            for t in transitions(&p) {
                b.add_rate(t.from, t.to, t.rate);
            }
            let (want, got) = (b.build_dtmc(), build_dtmc(&p));
            assert_eq!(got.states(), want.states());
            let (want, got) = (want.matrix(), got.matrix());
            assert_eq!(got.n_rows(), want.n_rows());
            for i in 0..got.n_rows() {
                let (gc, gv) = got.row_entries(i);
                let (wc, wv) = want.row_entries(i);
                assert_eq!(gc, wc, "row {i} columns at alpha={alpha} gamma={gamma}");
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(gv), bits(wv), "row {i} at alpha={alpha} gamma={gamma}");
            }
        }
    }

    #[test]
    fn dtmc_is_well_formed() {
        let p = params(0.35, 0.5, 30);
        let d = build_dtmc(&p);
        assert_eq!(d.len(), states(30).len());
        // Spot-check a merged row: (3,1) → (0,0) merges cases 8 + 12.
        assert!((d.prob(&State::new(3, 1), &State::new(0, 0)) - 0.65).abs() < 1e-12);
    }
}
