//! The harness's own arithmetic: order statistics of op times and the
//! failed/attempted tally. Kept free of any workspace type so the unit
//! tests below pin the rules themselves.

/// Ops a run needs before its 90th percentile is reported: with fewer,
/// fewer than ten samples lie beyond the percentile and one slow op sets
/// it.
pub const P90_MIN_OPS: usize = 100;

/// Nearest-rank percentile (`q` in `(0, 1]`) of unsorted samples; `None`
/// for an empty slice.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Median (nearest rank) of unsorted samples.
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 0.5)
}

/// The 90th percentile, defined only when at least [`P90_MIN_OPS`]
/// samples were taken, so at least ten lie beyond it.
pub fn p90(samples: &[f64]) -> Option<f64> {
    if samples.len() < P90_MIN_OPS {
        return None;
    }
    percentile(samples, 0.9)
}

/// Ops attempted against ops failed. An op fails if its call returned an
/// error or its output failed its check; either way it is counted once.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Ops run and checked.
    pub attempted: u64,
    /// Ops whose call errored or whose check failed.
    pub failed: u64,
}

impl Tally {
    /// Count one op; `Ok(())` passed, `Err(reason)` failed.
    pub fn record(&mut self, outcome: &Result<(), String>) {
        self.attempted += 1;
        if outcome.is_err() {
            self.failed += 1;
        }
    }

    /// Add another tally's counts.
    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    /// Failed share of attempted ops (`0.0` when nothing was attempted).
    pub fn failed_share(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }

    /// `true` when at least one op ran and none failed.
    pub fn all_passed(&self) -> bool {
        self.attempted > 0 && self.failed == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p90_needs_one_hundred_samples() {
        let ninety_nine: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(p90(&ninety_nine), None);
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        // Nearest rank 90 of 100: exactly ten samples lie beyond it.
        assert_eq!(p90(&hundred), Some(90.0));
        let beyond = hundred.iter().filter(|&&x| x > 90.0).count();
        assert_eq!(beyond, 10);
    }

    #[test]
    fn percentiles_ignore_input_order() {
        let samples = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(median(&samples), Some(3.0));
        assert_eq!(percentile(&samples, 1.0), Some(5.0));
        assert_eq!(percentile(&samples, 0.01), Some(1.0));
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[2.0, 1.0]), Some(1.0));
    }

    #[test]
    fn failures_count_once_against_attempts() {
        let mut t = Tally::default();
        assert!(!t.all_passed(), "nothing attempted is not a pass");
        t.record(&Ok(()));
        t.record(&Err("call returned an error".into()));
        t.record(&Ok(()));
        t.record(&Err("check failed".into()));
        assert_eq!(
            t,
            Tally {
                attempted: 4,
                failed: 2
            }
        );
        assert_eq!(t.failed_share(), 0.5);
        let mut total = Tally::default();
        total.merge(t);
        total.record(&Ok(()));
        assert_eq!(
            total,
            Tally {
                attempted: 5,
                failed: 2
            }
        );
        assert!(!total.all_passed());
    }
}
