//! The Eyal–Sirer Bitcoin baseline ("Majority is not Enough", 2014/2018),
//! used by the paper's Fig. 10 comparison.
//!
//! In Bitcoin there are no uncle or nephew rewards, so the pool's absolute
//! revenue equals its *relative* share of static rewards. Both the original
//! closed form and a derivation through this crate's 2-D model with a
//! Bitcoin reward schedule are provided; they agree (Remark 4 of the paper:
//! restricted to static rewards, the Ethereum analysis reproduces
//! Eyal–Sirer).

use seleth_chain::RewardSchedule;

use crate::error::AnalysisError;
use crate::params::ModelParams;
use crate::revenue::revenue_from_distribution;
use crate::stationary;

/// Eyal & Sirer's closed-form relative pool revenue of SM1 (Majority is
/// not Enough, Eq. 8):
///
/// ```text
/// R = (α(1−α)²(4α + γ(1−2α)) − α³) / (1 − α(1 + (2−α)α))
/// ```
///
/// The squares and the cube are formed as plain products, the rounding
/// the strategy zoo's committed `predicted` revenues carry.
///
/// ```
/// use seleth_core::bitcoin::eyal_sirer_revenue;
/// // At the γ=0 threshold α=1/3 the pool earns exactly its fair share.
/// let r = eyal_sirer_revenue(1.0 / 3.0, 0.0);
/// assert!((r - 1.0 / 3.0).abs() < 1e-12);
/// ```
pub fn eyal_sirer_revenue(alpha: f64, gamma: f64) -> f64 {
    let a = alpha;
    let num = a * (1.0 - a) * (1.0 - a) * (4.0 * a + gamma * (1.0 - 2.0 * a)) - a * a * a;
    let den = 1.0 - a * (1.0 + (2.0 - a) * a);
    num / den
}

/// Eyal & Sirer's closed-form profitability threshold
/// `α* = (1 − γ) / (3 − 2γ)`.
///
/// ```
/// use seleth_core::bitcoin::eyal_sirer_threshold;
/// assert!((eyal_sirer_threshold(0.0) - 1.0 / 3.0).abs() < 1e-12);
/// assert!((eyal_sirer_threshold(0.5) - 0.25).abs() < 1e-12);
/// assert_eq!(eyal_sirer_threshold(1.0), 0.0);
/// ```
pub fn eyal_sirer_threshold(gamma: f64) -> f64 {
    (1.0 - gamma) / (3.0 - 2.0 * gamma)
}

/// The pool's relative revenue in Bitcoin computed through this crate's
/// Markov model with a static-rewards-only schedule.
///
/// # Errors
///
/// Propagates solver failures.
pub fn model_revenue(alpha: f64, gamma: f64, truncation: u32) -> Result<f64, AnalysisError> {
    let params = ModelParams::with_truncation(alpha, gamma, RewardSchedule::bitcoin(), truncation)?;
    let pi = stationary::probabilities(&params)?;
    Ok(revenue_from_distribution(&params, &pi).relative_pool_share())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closed_form_matches_model() {
        // Remark 4: the 2-D analysis restricted to static rewards equals
        // the 1-D Eyal–Sirer result.
        for &(alpha, gamma) in &[
            (0.1, 0.0),
            (0.25, 0.5),
            (0.33, 0.5),
            (0.4, 0.9),
            (0.45, 0.25),
        ] {
            let want = eyal_sirer_revenue(alpha, gamma);
            let got = model_revenue(alpha, gamma, 150).unwrap();
            assert!(
                (got - want).abs() < 1e-8,
                "alpha={alpha} gamma={gamma}: model {got}, closed form {want}"
            );
        }
    }

    #[test]
    fn threshold_endpoints() {
        assert!((eyal_sirer_threshold(0.0) - 1.0 / 3.0).abs() < 1e-15);
        assert!((eyal_sirer_threshold(0.5) - 0.25).abs() < 1e-15);
        assert!(eyal_sirer_threshold(1.0).abs() < 1e-15);
    }

    #[test]
    fn revenue_crosses_fair_share_at_threshold() {
        for &gamma in &[0.0, 0.25, 0.5, 0.75] {
            let t = eyal_sirer_threshold(gamma);
            assert!(eyal_sirer_revenue(t - 0.01, gamma) < t - 0.01);
            assert!(eyal_sirer_revenue(t + 0.01, gamma) > t + 0.01);
        }
    }

    #[test]
    fn closed_form_anchors() {
        // Sapirshtein et al. report SM1 ≈ 0.36650 at α = 0.35, γ = 0
        // (optimal play only adds ≈ 0.004).
        assert!((eyal_sirer_revenue(0.35, 0.0) - 0.366_50).abs() < 1e-4);
        // γ strictly helps the attacker.
        assert!(eyal_sirer_revenue(0.30, 0.5) > eyal_sirer_revenue(0.30, 0.0));
    }

    #[test]
    fn majority_pool_dominates() {
        // Approaching α = 0.5 the pool collects almost everything.
        assert!(eyal_sirer_revenue(0.49, 0.5) > 0.9);
    }

    #[test]
    fn honest_small_pool_loses_by_withholding() {
        // Below threshold the pool earns less than its fair share.
        let r = eyal_sirer_revenue(0.1, 0.0);
        assert!(r < 0.1);
        assert!(r >= 0.0 || r.abs() < 0.05); // small losses, not nonsense
    }
}
