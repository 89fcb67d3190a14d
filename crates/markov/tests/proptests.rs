//! Property-based tests of the Markov machinery on randomly generated
//! chains: solver cross-agreement, stationarity, and first-passage
//! consistency.

use proptest::prelude::*;

use seleth_markov::hitting::HittingOptions;
use seleth_markov::{ChainBuilder, Dtmc, SolveMethod, SolveOptions};

/// A random irreducible chain: a Hamiltonian cycle (guarantees
/// irreducibility) plus random extra edges and self-loops.
fn random_chain(n: usize, extra: Vec<(usize, usize, u8)>, loops: Vec<u8>) -> Dtmc<usize> {
    let mut b = ChainBuilder::new();
    for i in 0..n {
        b.add_rate(i, (i + 1) % n, 1.0);
    }
    for (from, to, w) in extra {
        b.add_rate(from % n, to % n, 0.1 + f64::from(w));
    }
    for (i, w) in loops.into_iter().enumerate().take(n) {
        b.add_rate(i, i, f64::from(w) * 0.1);
    }
    b.build_dtmc()
}

fn chain_strategy() -> impl Strategy<Value = Dtmc<usize>> {
    (2usize..25)
        .prop_flat_map(|n| {
            (
                Just(n),
                proptest::collection::vec((0usize..n, 0usize..n, 0u8..5), 0..30),
                proptest::collection::vec(0u8..5, n),
            )
        })
        .prop_map(|(n, extra, loops)| random_chain(n, extra, loops))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// All three solvers agree on random irreducible chains.
    #[test]
    fn solvers_agree(chain in chain_strategy()) {
        let gs = chain
            .stationary(SolveOptions::with_method(SolveMethod::GaussSeidel))
            .expect("gauss-seidel");
        let power = chain
            .stationary(SolveOptions::with_method(SolveMethod::PowerIteration))
            .expect("power");
        let lu = chain
            .stationary(SolveOptions::with_method(SolveMethod::DenseLu))
            .expect("dense lu");
        prop_assert!(gs.l1_distance(&power) < 1e-7);
        prop_assert!(gs.l1_distance(&lu) < 1e-7);
    }

    /// The stationary vector is non-negative, normalized, and invariant
    /// under one application of the transition matrix.
    #[test]
    fn stationary_is_fixed_point(chain in chain_strategy()) {
        let pi = chain.stationary(SolveOptions::default()).expect("solve");
        let mut total = 0.0;
        for (_, p) in pi.iter() {
            prop_assert!(p >= -1e-12);
            total += p;
        }
        prop_assert!((total - 1.0).abs() < 1e-10);
        // pi P = pi, checked via expectation of indicator functions.
        for target in 0..chain.len().min(5) {
            let direct = pi.prob(&target);
            let via_step: f64 = (0..chain.len())
                .map(|i| pi.prob(&i) * chain.prob(&i, &target))
                .sum();
            prop_assert!((direct - via_step).abs() < 1e-9);
        }
    }

    /// Kac's formula on random chains: expected return time = 1/π.
    #[test]
    fn kac_formula(chain in chain_strategy()) {
        let pi = chain.stationary(SolveOptions::default()).expect("solve");
        let state = 0usize;
        let ret = chain
            .expected_return_time(&state, HittingOptions::default())
            .expect("return time");
        let expected = 1.0 / pi.prob(&state);
        prop_assert!(
            (ret - expected).abs() / expected < 1e-6,
            "return {ret} vs 1/pi {expected}"
        );
    }

    /// Hit-before probabilities are genuine probabilities and
    /// complementary at the boundary states.
    #[test]
    fn hit_before_is_probability(chain in chain_strategy()) {
        let n = chain.len();
        prop_assume!(n >= 3);
        let (a, b) = (0usize, n / 2);
        prop_assume!(a != b);
        let p = chain
            .probability_hits_before(&a, &b, HittingOptions::default())
            .expect("harmonic solve");
        for (i, &v) in p.iter().enumerate() {
            prop_assert!((-1e-9..=1.0 + 1e-9).contains(&v), "p[{i}] = {v}");
        }
        prop_assert!((p[chain.index_of(&a).unwrap()] - 1.0).abs() < 1e-12);
        prop_assert!(p[chain.index_of(&b).unwrap()].abs() < 1e-12);
    }

    /// Evolving any start distribution long enough lands on the
    /// stationary distribution (ergodic theorem on our aperiodic chains).
    #[test]
    fn evolution_converges(chain in chain_strategy()) {
        // Ensure aperiodicity by adding a self-loop-rich chain: skip pure
        // cycles, which are periodic.
        let has_self_loop = (0..chain.len()).any(|i| chain.prob(&i, &i) > 0.0);
        prop_assume!(has_self_loop);
        let pi = chain.stationary(SolveOptions::default()).expect("solve");
        let evolved = chain.evolve_from(&0, 20_000).expect("state 0 is in the chain");
        prop_assert!(pi.l1_distance(&evolved) < 1e-6);
    }
}
