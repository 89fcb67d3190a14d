//! Profitability threshold `α*` (Section IV-E-3): the smallest hash-power
//! fraction at which the pool's absolute revenue `U_s(α)` reaches the
//! honest-mining baseline `α`.

use seleth_chain::RewardSchedule;

use crate::error::AnalysisError;
use crate::params::ModelParams;
use crate::revenue::{revenue_from_distribution, Scenario};
use crate::stationary;

/// Options for the threshold search.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThresholdOptions {
    /// Step of the initial coarse scan over `α`.
    pub scan_step: f64,
    /// Absolute tolerance on the returned `α*`.
    pub tolerance: f64,
    /// State-space truncation used for each solve.
    pub truncation: u32,
    /// Upper end of the search range (exclusive; must be `< 0.5`).
    pub max_alpha: f64,
}

impl Default for ThresholdOptions {
    fn default() -> Self {
        ThresholdOptions {
            scan_step: 0.01,
            tolerance: 1e-4,
            truncation: 150,
            max_alpha: 0.499,
        }
    }
}

/// Excess revenue `U_s(α) − α`; positive means selfish mining beats honest
/// mining at that hash power.
///
/// # Errors
///
/// Propagates solver failures.
pub fn excess_revenue(
    alpha: f64,
    gamma: f64,
    schedule: &RewardSchedule,
    scenario: Scenario,
    truncation: u32,
) -> Result<f64, AnalysisError> {
    let params = ModelParams::with_truncation(alpha, gamma, schedule.clone(), truncation)?;
    let pi = stationary::probabilities(&params)?;
    let revenue = revenue_from_distribution(&params, &pi);
    Ok(revenue.absolute_pool(scenario) - alpha)
}

/// Find the profitability threshold `α*` for the given `γ`, reward
/// schedule and difficulty scenario.
///
/// Returns `Ok(None)` if selfish mining is unprofitable across the whole
/// search range (`α* ≥ 0.5` would mean a 51% attack is needed anyway), and
/// `Ok(Some(0.0))` when it is profitable for arbitrarily small pools (the
/// `γ = 1` regime of Fig. 10).
///
/// The search scans `α` coarsely for the first sign change of
/// `U_s(α) − α`, then bisects.
///
/// # Errors
///
/// Propagates solver failures.
///
/// ```
/// use seleth_core::threshold::{profitability_threshold, ThresholdOptions};
/// use seleth_core::Scenario;
/// use seleth_chain::RewardSchedule;
///
/// # fn main() -> Result<(), seleth_core::AnalysisError> {
/// let opts = ThresholdOptions { truncation: 80, ..Default::default() };
/// let t = profitability_threshold(0.5, &RewardSchedule::fixed_uncle(0.5),
///                                 Scenario::RegularRate, opts)?
///     .expect("profitable below 50%");
/// assert!((t - 0.163).abs() < 0.005, "paper: α* ≈ 0.163, got {t}");
/// # Ok(())
/// # }
/// ```
pub fn profitability_threshold(
    gamma: f64,
    schedule: &RewardSchedule,
    scenario: Scenario,
    opts: ThresholdOptions,
) -> Result<Option<f64>, AnalysisError> {
    let g = |alpha: f64| excess_revenue(alpha, gamma, schedule, scenario, opts.truncation);

    // Coarse scan for the first α with positive excess.
    let mut lo = opts.scan_step.min(1e-3);
    if g(lo)? >= 0.0 {
        // Profitable essentially from zero hash power.
        return Ok(Some(0.0));
    }
    let mut hi = None;
    let mut a = opts.scan_step;
    while a < opts.max_alpha {
        if g(a)? >= 0.0 {
            hi = Some(a);
            break;
        }
        lo = a;
        a += opts.scan_step;
    }
    let Some(mut hi) = hi else {
        return Ok(None);
    };

    // Bisection refine.
    while hi - lo > opts.tolerance {
        let mid = 0.5 * (lo + hi);
        if g(mid)? >= 0.0 {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    Ok(Some(0.5 * (lo + hi)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts() -> ThresholdOptions {
        ThresholdOptions {
            truncation: 100,
            ..Default::default()
        }
    }

    #[test]
    fn section6_scenario1_thresholds() {
        // γ = 0.5: Ku(·) gives α* ≈ 0.054; fixed Ku = 4/8 gives ≈ 0.163.
        let t_eth = profitability_threshold(
            0.5,
            &RewardSchedule::ethereum(),
            Scenario::RegularRate,
            opts(),
        )
        .unwrap()
        .unwrap();
        assert!((t_eth - 0.054).abs() < 0.005, "Ethereum Ku(·): got {t_eth}");

        let t_fixed = profitability_threshold(
            0.5,
            &RewardSchedule::fixed_uncle(0.5),
            Scenario::RegularRate,
            opts(),
        )
        .unwrap()
        .unwrap();
        assert!((t_fixed - 0.163).abs() < 0.005, "fixed 4/8: got {t_fixed}");
    }

    #[test]
    fn section6_scenario2_thresholds() {
        // γ = 0.5: Ku(·) gives α* ≈ 0.270; fixed Ku = 4/8 gives ≈ 0.356.
        let t_eth = profitability_threshold(
            0.5,
            &RewardSchedule::ethereum(),
            Scenario::RegularPlusUncleRate,
            opts(),
        )
        .unwrap()
        .unwrap();
        assert!((t_eth - 0.270).abs() < 0.01, "Ethereum Ku(·): got {t_eth}");

        let t_fixed = profitability_threshold(
            0.5,
            &RewardSchedule::fixed_uncle(0.5),
            Scenario::RegularPlusUncleRate,
            opts(),
        )
        .unwrap()
        .unwrap();
        assert!((t_fixed - 0.356).abs() < 0.01, "fixed 4/8: got {t_fixed}");
    }

    #[test]
    fn bitcoin_schedule_threshold_matches_eyal_sirer() {
        // With static-only rewards, our generic threshold solver must land
        // on the Eyal-Sirer closed form (1-γ)/(3-2γ).
        for &gamma in &[0.0, 0.25, 0.5, 0.75] {
            let got = profitability_threshold(
                gamma,
                &RewardSchedule::bitcoin(),
                Scenario::RegularRate,
                opts(),
            )
            .unwrap()
            .unwrap();
            let want = crate::bitcoin::eyal_sirer_threshold(gamma);
            assert!(
                (got - want).abs() < 2e-3,
                "gamma={gamma}: got {got}, want {want}"
            );
        }
    }

    #[test]
    fn no_threshold_reported_when_unprofitable_everywhere() {
        // A punitive schedule: no uncle rewards plus a scan capped below
        // the Bitcoin threshold finds no crossing.
        let opts = ThresholdOptions {
            max_alpha: 0.2,
            truncation: 80,
            ..Default::default()
        };
        let t =
            profitability_threshold(0.0, &RewardSchedule::bitcoin(), Scenario::RegularRate, opts)
                .unwrap();
        assert_eq!(t, None, "no profitable alpha below 0.2 at gamma=0");
    }

    #[test]
    fn excess_revenue_signs() {
        let sched = RewardSchedule::fixed_uncle(0.5);
        let below = excess_revenue(0.10, 0.5, &sched, Scenario::RegularRate, 80).unwrap();
        let above = excess_revenue(0.25, 0.5, &sched, Scenario::RegularRate, 80).unwrap();
        assert!(below < 0.0, "losing below threshold: {below}");
        assert!(above > 0.0, "winning above threshold: {above}");
    }

    #[test]
    fn gamma_one_always_profitable() {
        let t = profitability_threshold(
            1.0,
            &RewardSchedule::ethereum(),
            Scenario::RegularRate,
            opts(),
        )
        .unwrap()
        .unwrap();
        assert!(
            t < 0.011,
            "γ=1 should be profitable from ~0 hash power, got {t}"
        );
    }

    #[test]
    fn threshold_decreases_with_gamma() {
        let mut prev = f64::INFINITY;
        for &gamma in &[0.0, 0.25, 0.5, 0.75] {
            let t = profitability_threshold(
                gamma,
                &RewardSchedule::ethereum(),
                Scenario::RegularRate,
                opts(),
            )
            .unwrap()
            .unwrap();
            assert!(t < prev, "threshold should fall as γ grows");
            prev = t;
        }
    }

    #[test]
    fn ethereum_scenario1_below_bitcoin_everywhere() {
        // Fig. 10: "the hash power thresholds of Ethereum in scenario 1 are
        // always lower than Bitcoin".
        for &gamma in &[0.0, 0.3, 0.6, 0.9] {
            let eth = profitability_threshold(
                gamma,
                &RewardSchedule::ethereum(),
                Scenario::RegularRate,
                opts(),
            )
            .unwrap()
            .unwrap();
            let btc = crate::bitcoin::eyal_sirer_threshold(gamma);
            assert!(
                eth < btc,
                "γ={gamma}: Ethereum {eth} should be below Bitcoin {btc}"
            );
        }
    }
}
