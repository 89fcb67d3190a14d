//! `solve`: the analytic stack with no simulation. Each op is one α point:
//! the Markov model's excess revenue under Ethereum rewards, then the
//! optimal-strategy MDP solved single-threaded through one value cache
//! shared across the run.

use std::collections::BTreeMap;

use seleth_chain::{RewardSchedule, Scenario};
use seleth_core::bitcoin::eyal_sirer_revenue;
use seleth_core::chain_model::build_dtmc;
use seleth_core::stationary::{self, default_options, pi_closed_form};
use seleth_core::threshold::excess_revenue;
use seleth_core::{ModelParams, State};
use seleth_mdp::{MdpConfig, PolicyTable, RewardModel, Solution, ValueCache};

use crate::ops::{grid, zigzag, Counts, Workload};
use crate::trace::Tracer;

/// α grid points; the zig-zag walk over them gives `2 × (POINTS − 1)`
/// = 100 ops per list.
const POINTS: usize = 51;
/// Narrower than the simulators' grid: beyond 0.40 the value iteration
/// needs twice the sweeps, and ops of unlike cost would set the p90.
const ALPHA_LO: f64 = 0.15;
const ALPHA_HI: f64 = 0.40;
const GAMMA: f64 = 0.5;
/// Truncation of the 2-D Markov model (one value for every op).
const TRUNCATION: u32 = 40;
/// MDP truncation (one value for every op).
const MAX_LEN: u32 = 24;
/// `left_mul_vec` calls per op in the traced run.
const SPMV_CALLS: u64 = 32;
/// Slack on ρ* ≥ SM1: the solver's ρ tolerance plus truncation bias.
const RHO_SLACK: f64 = 1e-5;

/// Largest accepted gap between a numeric and a closed-form π entry:
/// ten times the truncated chain's bias `(α/β)^T`, plus rounding.
fn pi_tolerance(alpha: f64) -> f64 {
    10.0 * (alpha / (1.0 - alpha)).powi(TRUNCATION as i32) + 1e-12
}

/// The `solve` workload.
pub struct Solve {
    alphas: Vec<f64>,
    configs: Vec<MdpConfig>,
    order: Vec<usize>,
    cache: ValueCache,
}

fn params(alpha: f64) -> Result<ModelParams, String> {
    ModelParams::with_truncation(alpha, GAMMA, RewardSchedule::ethereum(), TRUNCATION)
        .map_err(|e| e.to_string())
}

impl Solve {
    /// Build the solver configurations and the α order for `seed`.
    pub fn setup(_: &BTreeMap<&str, PolicyTable>, seed: u64) -> Result<Self, String> {
        let alphas = grid(ALPHA_LO, ALPHA_HI, POINTS);
        let configs = alphas
            .iter()
            .map(|&a| {
                MdpConfig::new(a, GAMMA, RewardModel::Bitcoin)
                    .with_max_len(MAX_LEN)
                    .with_threads(crate::THREADS)
            })
            .collect();
        Ok(Solve {
            alphas,
            configs,
            order: zigzag(POINTS, seed),
            cache: ValueCache::new(),
        })
    }
}

impl Workload for Solve {
    type Output = (f64, Solution);

    fn len(&self) -> usize {
        self.order.len()
    }

    fn run(&mut self, i: usize, tr: &mut Tracer) -> Result<Self::Output, String> {
        let k = self.order[i];
        let (alpha, config, cache) = (self.alphas[k], &self.configs[k], &mut self.cache);
        tr.span("bench.op", |tr| {
            let excess = tr
                .span("core.excess_revenue", |_| {
                    excess_revenue(
                        alpha,
                        GAMMA,
                        &RewardSchedule::ethereum(),
                        Scenario::RegularRate,
                        TRUNCATION,
                    )
                })
                .map_err(|e| e.to_string())?;
            let solution = tr
                .span("mdp.solver.solve_with_cache", |_| {
                    config.solve_with_cache(cache)
                })
                .map_err(|e| e.to_string())?;
            Ok((excess, solution))
        })
    }

    fn check(&mut self, i: usize, (excess, solution): &Self::Output) -> Result<(), String> {
        let alpha = self.alphas[self.order[i]];
        if !excess.is_finite() {
            return Err(format!("alpha {alpha}: excess revenue {excess}"));
        }
        let sm1 = eyal_sirer_revenue(alpha, GAMMA);
        if solution.revenue < sm1 - RHO_SLACK {
            return Err(format!(
                "alpha {alpha}: rho* {} below SM1 {sm1}",
                solution.revenue
            ));
        }
        let pi = stationary::solve(&params(alpha)?).map_err(|e| e.to_string())?;
        for (ls, lh) in [(0, 0), (1, 0), (1, 1)] {
            let state = State { ls, lh };
            let (got, want) = (pi.prob(&state), pi_closed_form(alpha, GAMMA, state));
            if (got - want).abs() > pi_tolerance(alpha) {
                return Err(format!(
                    "alpha {alpha}: pi({ls},{lh}) {got} vs closed form {want}"
                ));
            }
        }
        Ok(())
    }

    fn probe(&mut self, i: usize, (_, solution): &Self::Output, tr: &mut Tracer, c: &mut Counts) {
        let Ok(p) = params(self.alphas[self.order[i]]) else {
            return;
        };
        let dtmc = tr.span("core.chain_model.build_dtmc", |_| build_dtmc(&p));
        if let Ok(pi) = tr.span("markov.stationary", |_| dtmc.stationary(default_options())) {
            let matrix = dtmc.matrix();
            let x: Vec<f64> = (0..pi.len()).map(|k| pi.prob_at(k)).collect();
            let mut out = vec![0.0; x.len()];
            tr.span("markov.spmv", |_| {
                for _ in 0..SPMV_CALLS {
                    matrix.left_mul_vec(std::hint::black_box(&x), &mut out);
                }
            });
            std::hint::black_box(&out);
            c.spmv_nnz += SPMV_CALLS * matrix.nnz() as u64;
        }
        let states = solution.policy.len() as u64;
        let sweeps = solution.iterations as u64;
        c.solver_sweeps += sweeps;
        c.solver_bisections += solution.stats.bisection_steps as u64;
        c.solver_states = states;
        c.solver_state_sweeps += sweeps * states;
        c.warm_start_hits += solution.stats.warm_start_hits as u64;
        c.warm_start_iterates += solution.stats.sweeps_per_iterate.len().saturating_sub(1) as u64;
    }
}
