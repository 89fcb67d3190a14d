//! Reference-distance distribution of honest miners' uncle blocks
//! (Table II of the paper).
//!
//! The pool's uncles are *always* referenced at distance 1 (Remark 5); the
//! honest miners' uncles span distances `1..=6` with a distribution that
//! shifts to longer distances as `α` grows — the observation motivating the
//! Section VI reward redesign.

use serde::{Deserialize, Serialize};

use crate::chain_model::{index, transitions};
use crate::params::ModelParams;
use crate::rewards::case_outcome;

/// A probability distribution over uncle reference distances.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DistanceDistribution {
    /// `pmf[d − 1]` = probability an honest uncle is referenced at
    /// distance `d`.
    pmf: Vec<f64>,
}

impl DistanceDistribution {
    /// Build from unnormalized per-distance masses.
    ///
    /// # Panics
    ///
    /// Panics if any mass is negative or not finite.
    pub fn from_masses(masses: Vec<f64>) -> Self {
        assert!(
            masses.iter().all(|m| m.is_finite() && *m >= 0.0),
            "distance masses must be finite and non-negative"
        );
        let total: f64 = masses.iter().sum();
        let pmf = if total > 0.0 {
            masses.into_iter().map(|m| m / total).collect()
        } else {
            masses
        };
        DistanceDistribution { pmf }
    }

    /// Probability of distance `d` (1-based; 0 outside the support).
    pub fn prob(&self, d: u64) -> f64 {
        if d == 0 {
            return 0.0;
        }
        self.pmf.get(d as usize - 1).copied().unwrap_or(0.0)
    }

    /// The probability mass function, index `d − 1`.
    pub fn pmf(&self) -> &[f64] {
        &self.pmf
    }

    /// Expected reference distance (the "Expectation" row of Table II).
    pub fn expectation(&self) -> f64 {
        self.pmf
            .iter()
            .enumerate()
            .map(|(i, p)| (i + 1) as f64 * p)
            .sum()
    }

    /// Largest distance with nonzero probability (0 for an empty
    /// distribution).
    pub fn max_distance(&self) -> u64 {
        self.pmf
            .iter()
            .rposition(|&p| p > 0.0)
            .map_or(0, |i| i as u64 + 1)
    }
}

/// Compute the honest miners' uncle-distance distribution from the
/// stationary distribution `pi` (in [`crate::chain_model::states`] order):
/// the per-distance uncle creation *flows* of the
/// Appendix-B cases (4, 7, 8, 9, 10), normalized.
pub fn honest_uncle_distances(params: &ModelParams, pi: &[f64]) -> DistanceDistribution {
    let max_d = params.schedule().max_uncle_distance().max(1) as usize;
    let mut masses = vec![0.0; max_d];
    for t in transitions(params) {
        let o = case_outcome(&t, params);
        if o.p_uncle == 0.0 || o.pool_share > 0.0 {
            continue; // not an honest uncle
        }
        let flow = pi[index(t.from)] * t.rate * o.p_uncle;
        let d = o.uncle_distance as usize;
        if (1..=max_d).contains(&d) {
            masses[d - 1] += flow;
        }
    }
    DistanceDistribution::from_masses(masses)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stationary;
    use seleth_chain::RewardSchedule;

    fn distances(alpha: f64, gamma: f64) -> DistanceDistribution {
        let p =
            ModelParams::with_truncation(alpha, gamma, RewardSchedule::ethereum(), 150).unwrap();
        honest_uncle_distances(&p, &stationary::probabilities(&p).unwrap())
    }

    #[test]
    fn table2_alpha_03() {
        // Paper Table II, γ = 0.5, α = 0.3 (3 decimal places).
        let d = distances(0.3, 0.5);
        let expected = [0.527, 0.295, 0.111, 0.043, 0.017, 0.007];
        for (i, &want) in expected.iter().enumerate() {
            let got = d.prob(i as u64 + 1);
            assert!(
                (got - want).abs() < 2e-3,
                "P(d={}) = {got:.4}, paper says {want}",
                i + 1
            );
        }
        assert!(
            (d.expectation() - 1.75).abs() < 0.01,
            "expectation {}",
            d.expectation()
        );
    }

    #[test]
    fn table2_alpha_045() {
        // Paper Table II, γ = 0.5, α = 0.45.
        let d = distances(0.45, 0.5);
        let expected = [0.284, 0.249, 0.171, 0.125, 0.096, 0.075];
        for (i, &want) in expected.iter().enumerate() {
            let got = d.prob(i as u64 + 1);
            assert!(
                (got - want).abs() < 2e-3,
                "P(d={}) = {got:.4}, paper says {want}",
                i + 1
            );
        }
        assert!(
            (d.expectation() - 2.72).abs() < 0.02,
            "expectation {}",
            d.expectation()
        );
    }

    #[test]
    fn expectation_grows_with_alpha() {
        // Section VI: "with the increase of α, the average referencing
        // distance of honest miners' blocks [is] increasing".
        let mut prev = 0.0;
        for &a in &[0.1, 0.2, 0.3, 0.4, 0.45] {
            let e = distances(a, 0.5).expectation();
            assert!(e > prev, "expectation at alpha={a} should exceed {prev}");
            prev = e;
        }
    }

    #[test]
    fn pmf_is_normalized() {
        let d = distances(0.35, 0.5);
        let total: f64 = d.pmf().iter().sum();
        assert!((total - 1.0).abs() < 1e-12);
        assert_eq!(d.max_distance(), 6);
    }

    #[test]
    fn helpers_behave() {
        let d = DistanceDistribution::from_masses(vec![2.0, 1.0, 1.0]);
        assert_eq!(d.prob(1), 0.5);
        assert_eq!(d.prob(4), 0.0);
        assert_eq!(d.prob(0), 0.0);
        assert_eq!(d.expectation(), 0.5 + 2.0 * 0.25 + 3.0 * 0.25);
        assert_eq!(d.max_distance(), 3);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_mass_panics() {
        DistanceDistribution::from_masses(vec![1.0, -0.5]);
    }
}
