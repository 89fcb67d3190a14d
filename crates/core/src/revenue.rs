//! Long-term revenue analysis (Section IV-E): folding the per-transition
//! reward outcomes of Appendix B over the stationary distribution.

use serde::{Deserialize, Serialize};

use crate::chain_model::{index, transitions};
use crate::params::ModelParams;
use crate::rewards::{case_outcome, expected_uncle_rewards};

pub use seleth_chain::Scenario;

/// Revenue rates per reward type for one side (pool or honest miners),
/// in units of `Ks` per unit time.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct SideRevenue {
    /// Static (regular-block) reward rate: `r_b` of the paper.
    pub static_reward: f64,
    /// Uncle reward rate: `r_u`.
    pub uncle_reward: f64,
    /// Nephew reward rate: `r_n`.
    pub nephew_reward: f64,
}

impl SideRevenue {
    /// Total revenue rate across all reward types.
    pub fn total(&self) -> f64 {
        self.static_reward + self.uncle_reward + self.nephew_reward
    }
}

/// Complete long-term revenue breakdown of the model.
///
/// The six reward rates correspond to the paper's
/// `r_b^s, r_b^h, r_u^s, r_u^h, r_n^s, r_n^h` (Eqs. (3)–(9)); block-type
/// rates support the Scenario 1/2 normalizations and consistency checks
/// (regular + uncle + stale = 1, the total block production rate).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RevenueBreakdown {
    /// Selfish pool revenue rates.
    pub pool: SideRevenue,
    /// Honest miners' combined revenue rates.
    pub honest: SideRevenue,
    /// Rate of regular-block creation (equals `r_b^s + r_b^h` when
    /// `Ks = 1`).
    pub regular_rate: f64,
    /// Rate of uncle-block creation (blocks that end up referenced).
    pub uncle_rate: f64,
    /// Rate of plain-stale-block creation.
    pub stale_rate: f64,
    /// The pool hash power `α` the breakdown was computed for.
    pub alpha: f64,
}

impl RevenueBreakdown {
    /// Total revenue rate `r_total` of Eq. (10).
    pub fn total(&self) -> f64 {
        self.pool.total() + self.honest.total()
    }

    /// The pool's *relative* share `R_s` of Eq. (10).
    pub fn relative_pool_share(&self) -> f64 {
        let total = self.total();
        if total > 0.0 {
            self.pool.total() / total
        } else {
            0.0
        }
    }

    /// The divisor used for absolute revenue under `scenario`.
    pub fn normalization(&self, scenario: Scenario) -> f64 {
        match scenario {
            Scenario::RegularRate => self.regular_rate,
            Scenario::RegularPlusUncleRate => self.regular_rate + self.uncle_rate,
        }
    }

    /// The pool's long-term absolute revenue `U_s` (Eq. (11)), i.e. revenue
    /// per time unit after difficulty re-scaling. Honest mining would earn
    /// exactly `α`, so `U_s > α` means selfish mining is profitable.
    pub fn absolute_pool(&self, scenario: Scenario) -> f64 {
        self.pool.total() / self.normalization(scenario)
    }

    /// Honest miners' long-term absolute revenue `U_h` (Eq. (12)).
    pub fn absolute_honest(&self, scenario: Scenario) -> f64 {
        self.honest.total() / self.normalization(scenario)
    }

    /// System-wide absolute revenue (the "Total" series of Fig. 9); equal
    /// to 1 when nobody mines selfishly.
    pub fn absolute_total(&self, scenario: Scenario) -> f64 {
        self.total() / self.normalization(scenario)
    }
}

/// Fold the Appendix-B reward outcomes over a stationary distribution.
///
/// `pi` must be the stationary distribution of the chain built from the
/// same `params`, in [`crate::chain_model::states`] order
/// ([`crate::stationary::probabilities`], or the `probs()` of
/// [`crate::stationary::solve`]); [`crate::Analysis`] packages the two
/// together.
pub fn revenue_from_distribution(params: &ModelParams, pi: &[f64]) -> RevenueBreakdown {
    let schedule = params.schedule();
    let ks = schedule.static_reward();
    let mut out = RevenueBreakdown {
        pool: SideRevenue::default(),
        honest: SideRevenue::default(),
        regular_rate: 0.0,
        uncle_rate: 0.0,
        stale_rate: 0.0,
        alpha: params.alpha(),
    };
    for t in transitions(params) {
        let flow = pi[index(t.from)] * t.rate;
        if flow == 0.0 {
            continue;
        }
        let o = case_outcome(&t, params);
        out.regular_rate += flow * o.p_regular;
        out.uncle_rate += flow * o.p_uncle;
        out.stale_rate += flow * o.p_stale();

        out.pool.static_reward += flow * o.p_regular * o.pool_share * ks;
        out.honest.static_reward += flow * o.p_regular * (1.0 - o.pool_share) * ks;

        let (pu, hu, pn, hn) = expected_uncle_rewards(&o, schedule);
        out.pool.uncle_reward += flow * pu;
        out.honest.uncle_reward += flow * hu;
        out.pool.nephew_reward += flow * pn;
        out.honest.nephew_reward += flow * hn;
    }
    out
}

/// Closed-form expressions for the static and pool-uncle revenue rates,
/// used to validate the transition-folding computation.
pub mod closed_form {
    use crate::stationary::{pi00, pi11, pi_i0};

    /// Eq. (3): the pool's static reward rate
    /// `r_b^s = α − αβ²(1−γ)π₀₀`.
    pub fn pool_static(alpha: f64, gamma: f64) -> f64 {
        let beta = 1.0 - alpha;
        alpha - alpha * beta * beta * (1.0 - gamma) * pi00(alpha)
    }

    /// Eq. (4): the honest static reward rate
    /// `r_b^h = β(π₀₀ + π₁₁) + β²(1−γ)π₁₀`.
    pub fn honest_static(alpha: f64, gamma: f64) -> f64 {
        let beta = 1.0 - alpha;
        beta * (pi00(alpha) + pi11(alpha)) + beta * beta * (1.0 - gamma) * pi_i0(alpha, 1)
    }

    /// Eq. (5): the pool's uncle reward rate
    /// `r_u^s = αβ²(1−γ) Ku(1) π₀₀`.
    pub fn pool_uncle(alpha: f64, gamma: f64, ku1: f64) -> f64 {
        let beta = 1.0 - alpha;
        alpha * beta * beta * (1.0 - gamma) * ku1 * pi00(alpha)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stationary;
    use seleth_chain::RewardSchedule;

    fn breakdown(alpha: f64, gamma: f64, schedule: RewardSchedule) -> RevenueBreakdown {
        let p = ModelParams::with_truncation(alpha, gamma, schedule, 150).unwrap();
        revenue_from_distribution(&p, &stationary::probabilities(&p).unwrap())
    }

    #[test]
    fn block_rates_partition_unity() {
        for &(a, g) in &[(0.1, 0.5), (0.3, 0.5), (0.45, 0.0), (0.4, 1.0)] {
            let r = breakdown(a, g, RewardSchedule::ethereum());
            let total = r.regular_rate + r.uncle_rate + r.stale_rate;
            assert!(
                (total - 1.0).abs() < 1e-9,
                "alpha={a} gamma={g}: rates sum {total}"
            );
        }
    }

    #[test]
    fn static_rates_match_closed_forms() {
        for &(a, g) in &[(0.05, 0.3), (0.2, 0.5), (0.35, 0.8), (0.45, 0.5)] {
            let r = breakdown(a, g, RewardSchedule::ethereum());
            let want_pool = closed_form::pool_static(a, g);
            let want_honest = closed_form::honest_static(a, g);
            assert!(
                (r.pool.static_reward - want_pool).abs() < 1e-9,
                "pool static alpha={a} gamma={g}: got {}, want {want_pool}",
                r.pool.static_reward
            );
            assert!(
                (r.honest.static_reward - want_honest).abs() < 1e-9,
                "honest static alpha={a} gamma={g}: got {}, want {want_honest}",
                r.honest.static_reward
            );
        }
    }

    #[test]
    fn pool_uncle_matches_eq5() {
        for &(a, g) in &[(0.1, 0.0), (0.3, 0.5), (0.45, 0.9)] {
            let r = breakdown(a, g, RewardSchedule::ethereum());
            let want = closed_form::pool_uncle(a, g, 7.0 / 8.0);
            assert!(
                (r.pool.uncle_reward - want).abs() < 1e-9,
                "alpha={a} gamma={g}: got {}, want {want}",
                r.pool.uncle_reward
            );
        }
    }

    #[test]
    fn pool_uncles_always_distance_one() {
        // Remark 5: the pool's uncles are always referenced at distance 1,
        // so its uncle revenue under Ku(·) equals that under fixed 7/8.
        let eth = breakdown(0.35, 0.5, RewardSchedule::ethereum());
        let fixed = breakdown(0.35, 0.5, RewardSchedule::fixed_uncle(7.0 / 8.0));
        assert!((eth.pool.uncle_reward - fixed.pool.uncle_reward).abs() < 1e-12);
    }

    #[test]
    fn bitcoin_schedule_drops_uncle_revenue() {
        let r = breakdown(0.3, 0.5, RewardSchedule::bitcoin());
        assert_eq!(r.pool.uncle_reward, 0.0);
        assert_eq!(r.honest.uncle_reward, 0.0);
        assert_eq!(r.pool.nephew_reward, 0.0);
        assert_eq!(r.honest.nephew_reward, 0.0);
        assert_eq!(r.uncle_rate, 0.0);
        // Static rates unchanged by the schedule.
        assert!((r.pool.static_reward - closed_form::pool_static(0.3, 0.5)).abs() < 1e-9);
    }

    #[test]
    fn relative_and_absolute_coincide_in_bitcoin() {
        // Section IV-E-2: absolute == relative when there are no uncles.
        let r = breakdown(0.3, 0.5, RewardSchedule::bitcoin());
        let rel = r.relative_pool_share();
        let abs1 = r.absolute_pool(Scenario::RegularRate);
        let abs2 = r.absolute_pool(Scenario::RegularPlusUncleRate);
        assert!((rel - abs1).abs() < 1e-12);
        assert!((abs1 - abs2).abs() < 1e-12);
    }

    #[test]
    fn honest_mining_earns_alpha_at_alpha_zero_limit() {
        let r = breakdown(0.0, 0.5, RewardSchedule::ethereum());
        assert!((r.honest.total() - 1.0).abs() < 1e-12);
        assert_eq!(r.pool.total(), 0.0);
        assert!((r.absolute_total(Scenario::RegularRate) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn scenario2_normalization_is_larger() {
        let r = breakdown(0.4, 0.5, RewardSchedule::ethereum());
        assert!(r.uncle_rate > 0.0);
        assert!(
            r.absolute_pool(Scenario::RegularPlusUncleRate)
                < r.absolute_pool(Scenario::RegularRate)
        );
    }

    #[test]
    fn fig8_threshold_behaviour_at_ku_half() {
        // Fig. 8: with γ=0.5, Ku=4/8, selfish mining beats honest mining
        // above α ≈ 0.163 and loses below.
        let sched = RewardSchedule::fixed_uncle(0.5);
        let below = breakdown(0.14, 0.5, sched.clone());
        assert!(below.absolute_pool(Scenario::RegularRate) < 0.14);
        let above = breakdown(0.19, 0.5, sched);
        assert!(above.absolute_pool(Scenario::RegularRate) > 0.19);
    }
}
