//! Attack-cycle statistics: what one "epoch" of the attack looks like.
//!
//! The chain regenerates every time it returns to `(0,0)` (all miners back
//! on consensus). Renewal theory then turns per-transition rates into
//! per-cycle quantities: a cycle lasts `1/π₀₀` block events on average, of
//! which `regular_rate/π₀₀` end on the main chain, and so on. These are
//! the operational numbers an attacker (or defender) actually experiences:
//! how long a withholding episode lasts, how many blocks it burns, how
//! deep reorganizations get.

use serde::{Deserialize, Serialize};

use seleth_markov::hitting::HittingOptions;

use crate::chain_model;
use crate::error::AnalysisError;
use crate::params::ModelParams;
use crate::revenue::RevenueBreakdown;
use crate::state::State;
use crate::stationary;

/// Per-cycle (consensus-to-consensus) statistics of the attack.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CycleStats {
    /// Expected number of block events per cycle (`1/π₀₀`).
    pub expected_length: f64,
    /// Same quantity computed independently from first-passage analysis
    /// (Kac's formula); agreement with `expected_length` certifies the
    /// solve.
    pub expected_length_via_hitting: f64,
    /// Expected regular (main-chain) blocks per cycle.
    pub regular_blocks: f64,
    /// Expected uncle blocks per cycle.
    pub uncle_blocks: f64,
    /// Expected plain-stale blocks per cycle.
    pub stale_blocks: f64,
    /// Expected pool revenue per cycle (in `Ks` units).
    pub pool_revenue: f64,
    /// Expected honest revenue per cycle.
    pub honest_revenue: f64,
    /// Probability that a cycle involves any withholding at all (the first
    /// event is a pool block): `α`.
    pub attack_probability: f64,
}

/// Compute cycle statistics for the model.
///
/// # Errors
///
/// Propagates solver failures from the stationary and first-passage
/// computations.
pub fn cycle_stats(params: &ModelParams) -> Result<CycleStats, AnalysisError> {
    let pi = stationary::probabilities(params)?;
    let revenue = crate::revenue::revenue_from_distribution(params, &pi);
    let pi00 = pi[chain_model::index(State::START)];
    let cycle = 1.0 / pi00;

    let dtmc = chain_model::build_dtmc(params);
    let via_hitting = dtmc
        .expected_return_time(&State::START, HittingOptions::default())
        .map_err(AnalysisError::from)?;

    Ok(from_parts(&revenue, cycle, via_hitting, params.alpha()))
}

fn from_parts(revenue: &RevenueBreakdown, cycle: f64, via_hitting: f64, alpha: f64) -> CycleStats {
    CycleStats {
        expected_length: cycle,
        expected_length_via_hitting: via_hitting,
        regular_blocks: revenue.regular_rate * cycle,
        uncle_blocks: revenue.uncle_rate * cycle,
        stale_blocks: revenue.stale_rate * cycle,
        pool_revenue: revenue.pool.total() * cycle,
        honest_revenue: revenue.honest.total() * cycle,
        attack_probability: alpha,
    }
}

impl CycleStats {
    /// Blocks per cycle across all types (equals `expected_length`).
    pub fn total_blocks(&self) -> f64 {
        self.regular_blocks + self.uncle_blocks + self.stale_blocks
    }

    /// Fraction of produced blocks wasted (uncle + stale) per cycle — the
    /// system-wide efficiency cost of the attack.
    pub fn waste_fraction(&self) -> f64 {
        (self.uncle_blocks + self.stale_blocks) / self.total_blocks()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seleth_chain::RewardSchedule;

    fn stats(alpha: f64, gamma: f64) -> CycleStats {
        let p =
            ModelParams::with_truncation(alpha, gamma, RewardSchedule::ethereum(), 120).unwrap();
        cycle_stats(&p).unwrap()
    }

    #[test]
    fn kac_formula_agreement() {
        // Two fully independent computations of the cycle length: the
        // stationary distribution (1/π₀₀) and first-passage analysis.
        for &(a, g) in &[(0.1, 0.5), (0.3, 0.5), (0.42, 0.2)] {
            let s = stats(a, g);
            assert!(
                (s.expected_length - s.expected_length_via_hitting).abs() < 1e-6,
                "alpha={a} gamma={g}: {} vs {}",
                s.expected_length,
                s.expected_length_via_hitting
            );
        }
    }

    #[test]
    fn cycle_blocks_partition() {
        let s = stats(0.35, 0.5);
        assert!((s.total_blocks() - s.expected_length).abs() < 1e-9);
        assert!(s.waste_fraction() > 0.0 && s.waste_fraction() < 1.0);
    }

    #[test]
    fn no_attack_means_unit_cycles() {
        let s = stats(0.0, 0.5);
        assert!((s.expected_length - 1.0).abs() < 1e-12);
        assert!(s.waste_fraction().abs() < 1e-12);
        assert!((s.honest_revenue - 1.0).abs() < 1e-12);
        assert!(s.pool_revenue.abs() < 1e-12);
    }

    #[test]
    fn cycles_lengthen_with_hash_power() {
        let mut prev = 0.0;
        for &a in &[0.1, 0.2, 0.3, 0.4, 0.45] {
            let len = stats(a, 0.5).expected_length;
            assert!(len > prev, "cycle length must grow with alpha");
            prev = len;
        }
    }

    #[test]
    fn waste_grows_with_attack_size() {
        assert!(stats(0.45, 0.5).waste_fraction() > stats(0.15, 0.5).waste_fraction());
    }

    #[test]
    fn revenue_per_cycle_consistent_with_rates() {
        let p = ModelParams::with_truncation(0.3, 0.5, RewardSchedule::ethereum(), 120).unwrap();
        let s = cycle_stats(&p).unwrap();
        let pi = stationary::probabilities(&p).unwrap();
        let r = crate::revenue::revenue_from_distribution(&p, &pi);
        assert!(((s.pool_revenue / s.expected_length) - r.pool.total()).abs() < 1e-12);
    }
}
