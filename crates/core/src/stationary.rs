//! Stationary distribution of the selfish-mining chain: the exact solve of
//! the truncated chain and the paper's closed forms (Section IV-C, Eq. (2)).

use seleth_markov::{solve_dense, Distribution, SolveError, SolveMethod, SolveOptions};

use crate::chain_model::{self, index};
use crate::error::AnalysisError;
use crate::params::ModelParams;
use crate::state::State;
use crate::summation::f;

/// Solve the truncated chain exactly: [`probabilities`] over
/// [`chain_model::states`].
///
/// # Errors
///
/// As [`probabilities`].
pub fn solve(params: &ModelParams) -> Result<Distribution<State>, AnalysisError> {
    Ok(Distribution::from_probs(
        chain_model::states(params.truncation()),
        probabilities(params)?,
    ))
}

/// The stationary distribution of the truncated chain, in
/// [`chain_model::states`] order (address it with [`chain_model::index`]).
///
/// Every transition raises `Ls + Lh` by one, resets to `(0,0)`, or lands
/// on column `Lh = 1` (Case 7's `βγ` jump to `(Ls − Lh, 1)`, and Case 10).
/// So with `π₀₀ = 1`, column 0 is `αⁱ`, and every state with `Lh ≥ 2` is a
/// linear combination of the column-1 masses `x_L = π(L, 1)`, `L = 3..=n`:
///
/// ```text
/// π(i, j) = α·π(i−1, j) + β(1−γ)·π(i, j−1),   divided by 1 − α at i = n
/// ```
///
/// (the boundary's pool-extend transition self-loops). Walking the columns
/// `Lh = 2..=n−2` with two slabs of coefficient rows over `x`, and adding
/// `βγ·row` into the balance equation of lead `i − j`, yields the `n − 2`
/// balance equations of column 1. One dense LU solves them, a scalar pass
/// fills the columns, and the result is normalised. No iteration: the
/// answer is exact up to rounding whatever `α < 0.5` and `γ`.
///
/// # Errors
///
/// [`AnalysisError::Solve`] with [`SolveError::Singular`] if elimination
/// meets a zero or non-finite pivot, or the masses do not normalise.
pub fn probabilities(params: &ModelParams) -> Result<Vec<f64>, AnalysisError> {
    let n = params.truncation() as usize;
    let (alpha, beta, gamma) = (params.alpha(), params.beta(), params.gamma());
    let (prefix, extend) = (beta * gamma, beta * (1.0 - gamma));
    // Mass kept per unit inflow at row `i`: the boundary row self-loops.
    let keep = |i: usize| if i == n { 1.0 - alpha } else { 1.0 };

    // Column 0: `col0[i] = π(i, 0)`.
    let mut col0 = vec![1.0; n + 1];
    for i in 1..=n {
        col0[i] = alpha * col0[i - 1] / keep(i);
    }

    // Balance of `x_L` (row and unknown `L − 3`): kept mass against the
    // pool-extend inflow from `x_{L−1}`, Case 10 from `(L, 0)` and Case 7
    // from every state of lead `L`.
    let m = n - 2;
    let mut a = vec![0.0; m * m];
    let mut b: Vec<f64> = (3..=n).map(|l| beta * col0[l]).collect();
    for r in 0..m {
        a[r * m + r] = keep(r + 3);
        if r > 0 {
            a[r * m + r - 1] = -alpha;
        }
        // Case 7 out of `(L+1, 1)`.
        if r + 1 < m {
            a[r * m + r + 1] -= prefix;
        }
    }

    // Coefficient rows over `x`, indexed by `Ls`: row `i` of a column is
    // non-zero only in its first `i − 2` entries, `x_3..x_i`.
    let mut prev = vec![0.0; (n + 1) * m];
    for i in 3..=n {
        prev[i * m + i - 3] = 1.0;
    }
    let mut cur = vec![0.0; (n + 1) * m];
    for j in 2..=n - 2 {
        for i in j + 2..=n {
            let w = i - 2;
            let (done, rest) = cur.split_at_mut(i * m);
            let row = &mut rest[..w];
            let left = &prev[i * m..i * m + w];
            if i > j + 2 {
                // Slot `w − 1` of row `i − 1` is never written, so stays 0.
                let down = &done[(i - 1) * m..(i - 1) * m + w];
                for ((y, &u), &l) in row.iter_mut().zip(down).zip(left) {
                    *y = alpha * u + extend * l;
                }
            } else {
                for (y, &l) in row.iter_mut().zip(left) {
                    *y = extend * l;
                }
            }
            if i == n {
                for y in row.iter_mut() {
                    *y /= keep(n);
                }
            }
            let lead = i - j;
            if lead >= 3 && prefix > 0.0 {
                let eq = &mut a[(lead - 3) * m..(lead - 3) * m + w];
                for (e, &y) in eq.iter_mut().zip(row.iter()) {
                    *e -= prefix * y;
                }
            }
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    solve_dense(&mut a, m, &mut b)?;

    // Scalar forward pass over the solved column 1.
    let mut pi = vec![0.0; index(state(n, n - 2)) + 1];
    pi[0] = 1.0;
    pi[index(State::new(1, 0))] = col0[1];
    pi[index(State::new(1, 1))] = beta * col0[1];
    for i in 2..=n {
        pi[index(state(i, 0))] = col0[i];
    }
    for (i, &x) in (3..=n).zip(&b) {
        pi[index(state(i, 1))] = x;
    }
    for j in 2..=n - 2 {
        for i in j + 2..=n {
            let down = if i > j + 2 {
                pi[index(state(i - 1, j))]
            } else {
                0.0
            };
            pi[index(state(i, j))] = (alpha * down + extend * pi[index(state(i, j - 1))]) / keep(i);
        }
    }
    let total: f64 = pi.iter().sum();
    if !(total.is_finite() && total > 0.0) {
        return Err(SolveError::Singular.into());
    }
    for p in &mut pi {
        *p /= total;
    }
    Ok(pi)
}

fn state(i: usize, j: usize) -> State {
    State::new(i as u32, j as u32)
}

/// Gauss–Seidel options for cross-checking [`solve`] with the generic
/// iterative solver: `chain_model::build_dtmc(p).stationary(default_options())`.
pub fn default_options() -> SolveOptions {
    SolveOptions {
        method: SolveMethod::GaussSeidel,
        tolerance: 1e-13,
        max_iterations: 100_000,
        // The truncated chain is irreducible by construction; skip the BFS.
        check_irreducible: false,
    }
}

/// Closed form for `π₀₀` (Eq. (2)):
/// `π₀₀ = (1 − 2α) / (2α³ − 4α² + 1)`.
///
/// ```
/// use seleth_core::stationary::pi00;
/// assert!((pi00(0.0) - 1.0).abs() < 1e-12);
/// assert!(pi00(0.4) > 0.0 && pi00(0.4) < 1.0);
/// ```
pub fn pi00(alpha: f64) -> f64 {
    (1.0 - 2.0 * alpha) / (2.0 * alpha.powi(3) - 4.0 * alpha.powi(2) + 1.0)
}

/// Closed form for `π_{i,0} = αⁱ π₀₀` (Eq. (2)), `i ≥ 1`.
pub fn pi_i0(alpha: f64, i: u32) -> f64 {
    alpha.powi(i as i32) * pi00(alpha)
}

/// Closed form for `π_{1,1} = (α − α²) π₀₀` (Eq. (2)).
pub fn pi11(alpha: f64) -> f64 {
    (alpha - alpha * alpha) * pi00(alpha)
}

/// The paper's general closed form for `π_{i,j}`, `i ≥ j + 2`, `j ≥ 1`
/// (Eq. (2)), built on the multiple-summation function
/// [`crate::summation::f`]:
///
/// ```text
/// π_{i,j} = αⁱ (1−α)ʲ (1−γ)ʲ f(i,j,j) π₀₀
///         + α^{i−j} γ (1−γ)^{j−1} (1/(1−α)^{i−j−1} − 1) π₀₀
///         − γ (1−γ)^{j−1} Σ_{k=1}^{j} α^{i−k} (1−α)^{j−k} f(i,j,j−k) π₀₀
/// ```
///
/// Returns the closed forms for `(0,0)`, `(i,0)` and `(1,1)` when those
/// states are requested, and 0 for states outside the model's state space.
pub fn pi_closed_form(alpha: f64, gamma: f64, state: State) -> f64 {
    let State { ls: i, lh: j } = state;
    match (i, j) {
        (0, 0) => pi00(alpha),
        (1, 1) => pi11(alpha),
        (_, 0) => pi_i0(alpha, i),
        _ if i >= j + 2 => {
            let p0 = pi00(alpha);
            let (a, b, g) = (alpha, 1.0 - alpha, gamma);
            let (i64i, j64) = (i as i64, j as i64);
            let term1 =
                a.powi(i as i32) * b.powi(j as i32) * (1.0 - g).powi(j as i32) * f(i64i, j64, j64);
            let term2 = a.powi((i - j) as i32)
                * g
                * (1.0 - g).powi(j as i32 - 1)
                * (1.0 / b.powi((i - j) as i32 - 1) - 1.0);
            let mut term3 = 0.0;
            for k in 1..=j64 {
                term3 +=
                    a.powi((i64i - k) as i32) * b.powi((j64 - k) as i32) * f(i64i, j64, j64 - k);
            }
            term3 *= g * (1.0 - g).powi(j as i32 - 1);
            (term1 + term2 - term3) * p0
        }
        _ => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seleth_chain::RewardSchedule;

    fn params(alpha: f64, gamma: f64) -> ModelParams {
        ModelParams::with_truncation(alpha, gamma, RewardSchedule::ethereum(), 120).unwrap()
    }

    #[test]
    fn pi00_reference_values() {
        // alpha = 0.3: (1 - 0.6) / (0.054 - 0.36 + 1) = 0.4 / 0.694
        assert!((pi00(0.3) - 0.4 / 0.694).abs() < 1e-12);
        // Monotonically decreasing in alpha (Remark 2).
        let mut prev = pi00(0.0);
        for k in 1..50 {
            let v = pi00(k as f64 * 0.01);
            assert!(v < prev);
            prev = v;
        }
    }

    #[test]
    fn numeric_matches_pi00_pi10_pi11() {
        for &(alpha, gamma) in &[(0.1, 0.5), (0.3, 0.5), (0.4, 0.2), (0.45, 0.9)] {
            let dist = solve(&params(alpha, gamma)).unwrap();
            let got00 = dist.prob(&State::new(0, 0));
            assert!(
                (got00 - pi00(alpha)).abs() < 1e-9,
                "pi00 alpha={alpha} gamma={gamma}: got {got00}, want {}",
                pi00(alpha)
            );
            for i in 1..=8 {
                let got = dist.prob(&State::new(i, 0));
                assert!(
                    (got - pi_i0(alpha, i)).abs() < 1e-9,
                    "pi_{i}0 alpha={alpha}: got {got}, want {}",
                    pi_i0(alpha, i)
                );
            }
            let got11 = dist.prob(&State::new(1, 1));
            assert!((got11 - pi11(alpha)).abs() < 1e-9);
        }
    }

    #[test]
    fn numeric_matches_general_closed_form() {
        for &(alpha, gamma) in &[(0.25, 0.0), (0.3, 0.5), (0.4, 1.0), (0.45, 0.3)] {
            let dist = solve(&params(alpha, gamma)).unwrap();
            for i in 3..=12u32 {
                for j in 1..=(i - 2) {
                    let s = State::new(i, j);
                    let want = pi_closed_form(alpha, gamma, s);
                    let got = dist.prob(&s);
                    assert!(
                        (got - want).abs() < 1e-9,
                        "pi({i},{j}) alpha={alpha} gamma={gamma}: numeric {got}, closed {want}"
                    );
                }
            }
        }
    }

    #[test]
    fn probabilities_sum_to_one() {
        let dist = solve(&params(0.4, 0.5)).unwrap();
        let total: f64 = dist.iter().map(|(_, p)| p).sum();
        assert!((total - 1.0).abs() < 1e-10);
    }

    #[test]
    fn geometric_decay_allows_truncation() {
        // Remark 3: pi_{i,0} < 1e-6 for i >= 15 at alpha = 0.4.
        assert!(pi_i0(0.4, 15) < 1e-5);
        assert!(pi_i0(0.4, 20) < 1e-7);
    }

    #[test]
    fn alpha_zero_degenerates_to_all_honest() {
        let dist = solve(&params(0.0, 0.5)).unwrap();
        assert!((dist.prob(&State::new(0, 0)) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn solver_methods_agree() {
        let p = ModelParams::with_truncation(0.35, 0.6, RewardSchedule::ethereum(), 40).unwrap();
        let dtmc = chain_model::build_dtmc(&p);
        let gs = dtmc.stationary(default_options()).unwrap();
        let power = dtmc
            .stationary(SolveOptions {
                method: SolveMethod::PowerIteration,
                tolerance: 1e-13,
                max_iterations: 2_000_000,
                check_irreducible: false,
            })
            .unwrap();
        assert!(gs.l1_distance(&power) < 1e-7);
        assert!(gs.l1_distance(&solve(&p).unwrap()) < 1e-7);
    }

    #[test]
    fn exact_solve_matches_the_dense_lu_oracle() {
        for n in 3..=25 {
            for &alpha in &[0.0, 0.01, 0.25, 0.45, 0.499] {
                for &gamma in &[0.0, 0.5, 1.0] {
                    let p =
                        ModelParams::with_truncation(alpha, gamma, RewardSchedule::ethereum(), n)
                            .unwrap();
                    let oracle = chain_model::build_dtmc(&p)
                        .stationary(SolveOptions {
                            // α = 0 leaves every state but (0,0) unreachable.
                            check_irreducible: false,
                            ..SolveOptions::with_method(SolveMethod::DenseLu)
                        })
                        .unwrap();
                    let pi = probabilities(&p).unwrap();
                    assert_eq!(pi.len(), oracle.len());
                    let diff = pi
                        .iter()
                        .zip(oracle.probs())
                        .map(|(x, y)| (x - y).abs())
                        .fold(0.0, f64::max);
                    assert!(
                        diff <= 1e-13,
                        "n={n} alpha={alpha} gamma={gamma}: max |Δπ| = {diff:e}"
                    );
                }
            }
        }
    }

    #[test]
    fn exact_solve_balances_the_chain_at_truncation_250() {
        for &alpha in &[0.1, 0.3, 0.45, 0.499] {
            for &gamma in &[0.0, 0.5, 1.0] {
                let p = ModelParams::with_truncation(alpha, gamma, RewardSchedule::ethereum(), 250)
                    .unwrap();
                let pi = probabilities(&p).unwrap();
                let mut next = vec![0.0; pi.len()];
                chain_model::build_dtmc(&p)
                    .matrix()
                    .left_mul_vec(&pi, &mut next);
                let residual: f64 = next.iter().zip(&pi).map(|(x, y)| (x - y).abs()).sum();
                assert!(
                    residual <= 1e-14,
                    "alpha={alpha} gamma={gamma}: ‖πP − π‖₁ = {residual:e}"
                );
                assert!(pi.iter().all(|&x| x >= 0.0));
            }
        }
    }

    #[test]
    fn slow_mixing_corner_solves() {
        // Gauss–Seidel ran out of its 100 000 sweeps here.
        let p = ModelParams::with_truncation(0.499, 1.0, RewardSchedule::ethereum(), 250).unwrap();
        let dist = solve(&p).unwrap();
        let total: f64 = dist.probs().iter().sum();
        assert!((total - 1.0).abs() < 1e-12);
        let analysis = crate::Analysis::new(&p).unwrap();
        assert_eq!(analysis.pi(State::START), dist.prob(&State::START));
    }
}
