use seleth_markov::Distribution;

use crate::distances::{self, DistanceDistribution};
use crate::error::AnalysisError;
use crate::params::ModelParams;
use crate::revenue::{revenue_from_distribution, RevenueBreakdown};
use crate::state::State;
use crate::stationary;

/// A solved instance of the selfish-mining model: parameters plus the
/// stationary distribution, with derived quantities computed on demand.
///
/// ```
/// use seleth_core::{Analysis, ModelParams, State};
/// use seleth_chain::RewardSchedule;
///
/// # fn main() -> Result<(), seleth_core::AnalysisError> {
/// let params = ModelParams::new(0.3, 0.5, RewardSchedule::ethereum())?;
/// let analysis = Analysis::new(&params)?;
/// // π₀₀ from the solved chain matches the paper's closed form.
/// let pi00 = analysis.pi(State::new(0, 0));
/// assert!((pi00 - 0.4 / 0.694).abs() < 1e-9);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Analysis {
    params: ModelParams,
    dist: Distribution<State>,
}

impl Analysis {
    /// Solve the chain for `params`.
    ///
    /// # Errors
    ///
    /// Propagates solver failures as [`AnalysisError::Solve`].
    pub fn new(params: &ModelParams) -> Result<Self, AnalysisError> {
        let dist = stationary::solve(params)?;
        Ok(Analysis {
            params: params.clone(),
            dist,
        })
    }

    /// The parameters this analysis was solved for.
    pub fn params(&self) -> &ModelParams {
        &self.params
    }

    /// The stationary distribution over `(Ls, Lh)` states.
    pub fn stationary(&self) -> &Distribution<State> {
        &self.dist
    }

    /// Stationary probability of one state (0 for states outside the
    /// truncated space).
    pub fn pi(&self, state: State) -> f64 {
        self.dist.prob(&state)
    }

    /// The long-term revenue breakdown (Eqs. (3)–(12)).
    pub fn revenue(&self) -> RevenueBreakdown {
        revenue_from_distribution(&self.params, self.dist.probs())
    }

    /// The honest miners' uncle reference-distance distribution (Table II).
    pub fn honest_uncle_distances(&self) -> DistanceDistribution {
        distances::honest_uncle_distances(&self.params, self.dist.probs())
    }

    /// Expected private-branch length `E[Ls]` in steady state — a measure
    /// of how much inventory the pool holds.
    pub fn expected_private_length(&self) -> f64 {
        self.dist.expect(|s| f64::from(s.ls))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seleth_chain::RewardSchedule;

    #[test]
    fn analysis_bundles_consistently() {
        let p = ModelParams::with_truncation(0.3, 0.5, RewardSchedule::ethereum(), 80).unwrap();
        let a = Analysis::new(&p).unwrap();
        assert_eq!(a.params(), &p);
        let total: f64 = a.stationary().iter().map(|(_, pr)| pr).sum();
        assert!((total - 1.0).abs() < 1e-10);
        assert!(a.expected_private_length() > 0.0);
    }

    #[test]
    fn more_hash_power_means_longer_private_branch() {
        let mut prev = 0.0;
        for &alpha in &[0.1, 0.2, 0.3, 0.4] {
            let p =
                ModelParams::with_truncation(alpha, 0.5, RewardSchedule::ethereum(), 80).unwrap();
            let len = Analysis::new(&p).unwrap().expected_private_length();
            assert!(len > prev, "E[Ls] should grow with alpha");
            prev = len;
        }
    }
}
