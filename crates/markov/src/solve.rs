//! Solver configuration and the numerical kernels behind
//! [`crate::Dtmc`].
//!
//! Every kernel operates on a [`CsrMatrix`]: contiguous `row_ptr`/`col_idx`
//! /`values` arrays, so the inner loops are linear scans over flat memory.
//! Gauss–Seidel additionally materializes the transpose once per solve
//! (its sweeps are column-oriented).

use crate::csr::CsrMatrix;
use crate::error::SolveError;

/// Which numerical method to use for the stationary distribution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SolveMethod {
    /// Repeated application of the transition matrix to a distribution.
    /// Robust and memory-light; linear convergence.
    #[default]
    PowerIteration,
    /// Gauss–Seidel sweeps on `π P = π`; usually converges in far fewer
    /// iterations than power iteration on the banded chains produced by the
    /// selfish-mining model.
    GaussSeidel,
    /// Direct dense Gaussian elimination on `(Pᵀ − I) π = 0` with the
    /// normalization constraint. Exact up to floating point, `O(n³)`;
    /// intended for chains up to a few thousand states.
    DenseLu,
}

/// Options controlling stationary-distribution computation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SolveOptions {
    /// Numerical method; see [`SolveMethod`].
    pub method: SolveMethod,
    /// Convergence tolerance on the L1 residual between successive iterates
    /// (iterative methods only).
    pub tolerance: f64,
    /// Iteration budget for the iterative methods.
    pub max_iterations: usize,
    /// If `true` (default) the solver first verifies the chain is strongly
    /// connected and returns [`SolveError::Reducible`] otherwise. Disable for
    /// chains known to be irreducible when the BFS cost matters.
    pub check_irreducible: bool,
}

impl Default for SolveOptions {
    fn default() -> Self {
        SolveOptions {
            method: SolveMethod::PowerIteration,
            tolerance: 1e-12,
            max_iterations: 200_000,
            check_irreducible: true,
        }
    }
}

impl SolveOptions {
    /// Options preset for the given method, other fields default.
    pub fn with_method(method: SolveMethod) -> Self {
        SolveOptions {
            method,
            ..SolveOptions::default()
        }
    }
}

/// Verify every state has at least one outgoing transition.
pub(crate) fn check_no_dead_ends(matrix: &CsrMatrix) -> Result<(), SolveError> {
    for i in 0..matrix.n_rows() {
        if matrix.row_len(i) == 0 {
            return Err(SolveError::DeadEndState { index: i });
        }
    }
    Ok(())
}

/// Check strong connectivity with a forward BFS on the matrix and a
/// backward BFS on its transpose, both from state 0. For a finite chain
/// this is equivalent to irreducibility.
pub(crate) fn check_irreducible(matrix: &CsrMatrix) -> Result<(), SolveError> {
    let n = matrix.n_rows();
    if n == 0 {
        return Err(SolveError::EmptyChain);
    }
    let reverse = matrix.transpose();
    if bfs_covers(matrix) && bfs_covers(&reverse) {
        Ok(())
    } else {
        Err(SolveError::Reducible)
    }
}

fn bfs_covers(adjacency: &CsrMatrix) -> bool {
    let n = adjacency.n_rows();
    let mut seen = vec![false; n];
    let mut queue = std::collections::VecDeque::from([0usize]);
    seen[0] = true;
    let mut count = 1;
    while let Some(i) = queue.pop_front() {
        for (j, _) in adjacency.row(i) {
            if !seen[j] {
                seen[j] = true;
                count += 1;
                queue.push_back(j);
            }
        }
    }
    count == n
}

/// Power iteration: `π ← π P` until the L1 change drops below tolerance.
pub(crate) fn power_iteration(
    matrix: &CsrMatrix,
    opts: &SolveOptions,
) -> Result<Vec<f64>, SolveError> {
    let n = matrix.n_rows();
    let mut pi = vec![1.0 / n as f64; n];
    let mut next = vec![0.0; n];
    for it in 0..opts.max_iterations {
        matrix.left_mul_vec(&pi, &mut next);
        normalize(&mut next);
        let residual: f64 = pi.iter().zip(&next).map(|(a, b)| (a - b).abs()).sum();
        std::mem::swap(&mut pi, &mut next);
        if residual < opts.tolerance {
            return Ok(pi);
        }
        // Periodic chains oscillate; damp every so often by averaging.
        if it % 97 == 96 {
            for (a, b) in pi.iter_mut().zip(&next) {
                *a = 0.5 * (*a + *b);
            }
            normalize(&mut pi);
        }
    }
    let residual: f64 = pi.iter().zip(&next).map(|(a, b)| (a - b).abs()).sum();
    Err(SolveError::NotConverged {
        iterations: opts.max_iterations,
        residual,
    })
}

/// Gauss–Seidel on the fixed point `π_j = Σ_i π_i P_ij` (excluding the
/// diagonal term, solved for explicitly). Sweeps run over the transposed
/// matrix, built once per solve.
pub(crate) fn gauss_seidel(
    matrix: &CsrMatrix,
    opts: &SolveOptions,
) -> Result<Vec<f64>, SolveError> {
    let n = matrix.n_rows();
    // Row j of the transpose lists (i, P_ij) by ascending i; the diagonal
    // entry is skipped during accumulation and solved for explicitly.
    let transpose = matrix.transpose();
    let mut pi = vec![1.0 / n as f64; n];
    for _ in 0..opts.max_iterations {
        let mut residual = 0.0;
        for j in 0..n {
            let mut incoming = 0.0;
            let mut diag = 0.0;
            let (cols, vals) = transpose.row_entries(j);
            for (&i, &q) in cols.iter().zip(vals) {
                if i == j {
                    diag = q;
                } else {
                    incoming += pi[i] * q;
                }
            }
            let denom = 1.0 - diag;
            let new = if denom > f64::EPSILON {
                incoming / denom
            } else {
                pi[j]
            };
            residual += (new - pi[j]).abs();
            pi[j] = new;
        }
        normalize(&mut pi);
        if residual < opts.tolerance {
            normalize(&mut pi);
            return Ok(pi);
        }
    }
    Err(SolveError::NotConverged {
        iterations: opts.max_iterations,
        residual: f64::NAN,
    })
}

/// Dense direct solve of `π (P − I) = 0`, replacing the last equation by the
/// normalization `Σ π = 1`. Gaussian elimination with partial pivoting.
pub(crate) fn dense_lu(matrix: &CsrMatrix) -> Result<Vec<f64>, SolveError> {
    let n = matrix.n_rows();
    // Build A = (P^T - I), then overwrite the last row with ones; b = e_n.
    let mut a = vec![0.0f64; n * n];
    for i in 0..n {
        for (j, q) in matrix.row(i) {
            a[j * n + i] += q;
        }
    }
    for i in 0..n {
        a[i * n + i] -= 1.0;
    }
    for i in 0..n {
        a[(n - 1) * n + i] = 1.0;
    }
    let mut x = vec![0.0; n];
    x[n - 1] = 1.0;
    solve_dense(&mut a, n, &mut x)?;
    // Clip tiny negative round-off and renormalize.
    for v in &mut x {
        if *v < 0.0 && *v > -1e-9 {
            *v = 0.0;
        }
    }
    normalize(&mut x);
    Ok(x)
}

/// Solve `a·x = b` in place, `x` overwriting `b`: Gaussian elimination
/// with partial pivoting on the row-major `k × k` matrix `a`, then back
/// substitution.
///
/// ```
/// let mut a = [0.0, 2.0, 4.0, 0.0];
/// let mut b = [2.0, 8.0];
/// seleth_markov::solve_dense(&mut a, 2, &mut b).unwrap();
/// assert_eq!(b, [2.0, 1.0]);
/// ```
///
/// # Errors
///
/// [`SolveError::Singular`] if elimination meets a zero or non-finite
/// pivot.
///
/// # Panics
///
/// Panics if `a` is shorter than `k × k` or `b` shorter than `k`.
pub fn solve_dense(a: &mut [f64], k: usize, b: &mut [f64]) -> Result<(), SolveError> {
    for col in 0..k {
        let pivot = (col..k)
            .max_by(|&x, &y| a[x * k + col].abs().total_cmp(&a[y * k + col].abs()))
            .unwrap_or(col);
        let p = a[pivot * k + col];
        if !(p.abs() > 0.0 && p.is_finite()) {
            return Err(SolveError::Singular);
        }
        if pivot != col {
            for j in col..k {
                a.swap(pivot * k + j, col * k + j);
            }
            b.swap(pivot, col);
        }
        let (head, tail) = a[..k * k].split_at_mut((col + 1) * k);
        let pivot_row = &head[col * k + col..col * k + k];
        for (r, row) in tail.chunks_exact_mut(k).enumerate() {
            let f = row[col] / p;
            if f == 0.0 {
                continue;
            }
            for (x, &y) in row[col..].iter_mut().zip(pivot_row) {
                *x -= f * y;
            }
            b[col + 1 + r] -= f * b[col];
        }
    }
    for col in (0..k).rev() {
        let row = &a[col * k..(col + 1) * k];
        let mut x = b[col];
        for j in col + 1..k {
            x -= row[j] * b[j];
        }
        b[col] = x / row[col];
    }
    Ok(())
}

pub(crate) fn normalize(v: &mut [f64]) {
    let total: f64 = v.iter().sum();
    if total > 0.0 {
        for x in v {
            *x /= total;
        }
    }
}

pub(crate) fn solve(matrix: &CsrMatrix, opts: &SolveOptions) -> Result<Vec<f64>, SolveError> {
    if matrix.is_empty() {
        return Err(SolveError::EmptyChain);
    }
    check_no_dead_ends(matrix)?;
    if opts.check_irreducible {
        check_irreducible(matrix)?;
    }
    match opts.method {
        SolveMethod::PowerIteration => power_iteration(matrix, opts),
        SolveMethod::GaussSeidel => gauss_seidel(matrix, opts),
        SolveMethod::DenseLu => dense_lu(matrix),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_state() -> CsrMatrix {
        CsrMatrix::from_rows(&[vec![(0, 0.9), (1, 0.1)], vec![(0, 0.5), (1, 0.5)]])
    }

    #[test]
    fn all_methods_agree_on_two_state() {
        let matrix = two_state();
        let expected = [5.0 / 6.0, 1.0 / 6.0];
        for method in [
            SolveMethod::PowerIteration,
            SolveMethod::GaussSeidel,
            SolveMethod::DenseLu,
        ] {
            let opts = SolveOptions::with_method(method);
            let pi = solve(&matrix, &opts).unwrap();
            for (p, e) in pi.iter().zip(expected.iter()) {
                assert!((p - e).abs() < 1e-9, "{method:?}: {pi:?}");
            }
        }
    }

    #[test]
    fn dead_end_detected() {
        let matrix = CsrMatrix::from_rows(&[vec![(1, 1.0)], vec![]]);
        let err = solve(&matrix, &SolveOptions::default()).unwrap_err();
        assert_eq!(err, SolveError::DeadEndState { index: 1 });
    }

    #[test]
    fn reducible_detected() {
        // 0 -> 1 but 1 never returns to 0.
        let matrix = CsrMatrix::from_rows(&[vec![(1, 1.0)], vec![(1, 1.0)]]);
        let err = solve(&matrix, &SolveOptions::default()).unwrap_err();
        assert_eq!(err, SolveError::Reducible);
    }

    #[test]
    fn empty_chain_detected() {
        let err = solve(&CsrMatrix::empty(), &SolveOptions::default()).unwrap_err();
        assert_eq!(err, SolveError::EmptyChain);
    }

    #[test]
    fn periodic_chain_converges_via_damping() {
        // Pure 2-cycle: power iteration oscillates without damping.
        let matrix = CsrMatrix::from_rows(&[vec![(1, 1.0)], vec![(0, 1.0)]]);
        let pi = solve(&matrix, &SolveOptions::default()).unwrap();
        assert!((pi[0] - 0.5).abs() < 1e-6);
    }

    #[test]
    fn solve_dense_rejects_zero_and_non_finite_pivots() {
        let mut singular = [1.0, 2.0, 2.0, 4.0];
        assert_eq!(
            solve_dense(&mut singular, 2, &mut [1.0, 1.0]),
            Err(SolveError::Singular)
        );
        let mut nan = [f64::NAN, 0.0, 0.0, 1.0];
        assert_eq!(
            solve_dense(&mut nan, 2, &mut [1.0, 1.0]),
            Err(SolveError::Singular)
        );
    }

    #[test]
    fn singular_reported_by_dense() {
        // Two disconnected self-loop states: reducible; with the check off,
        // the dense solver must either report singular or return *a*
        // stationary vector. Keep the irreducibility check on and assert
        // Reducible instead (documents the contract).
        let matrix = CsrMatrix::from_rows(&[vec![(0, 1.0)], vec![(1, 1.0)]]);
        let err = solve(&matrix, &SolveOptions::with_method(SolveMethod::DenseLu)).unwrap_err();
        assert_eq!(err, SolveError::Reducible);
    }
}
