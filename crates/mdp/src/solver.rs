//! Relative value iteration + Dinkelbach bisection over the revenue `ρ`.
//!
//! The attacker maximizes a *ratio*: expected reward per normalization
//! unit (regular blocks for Scenario 1; regular + uncle blocks for
//! Scenario 2 — exactly the paper's absolute revenue `U_s`). Following the
//! fractional-programming transformation (Dinkelbach; Sapirshtein et al.
//! use its relative-revenue special case), for a candidate ratio `ρ`
//! per-step rewards become `w = r_attacker − ρ · units`, the optimal
//! long-run average `g(ρ)` is strictly decreasing, and the optimal ratio
//! is the root `g(ρ*) = 0`. `g(ρ)` itself is computed by relative value
//! iteration on the unichain MDP.
//!
//! # Performance architecture
//!
//! The transition table is expanded **once per solve** into flat
//! struct-of-arrays storage ([`ExpandedMdp`]): per outcome, `(prob,
//! successor index, attacker reward, normalization units)`. Each ρ
//! candidate then re-weights rewards on the fly (`w = r − ρ·units`) inside
//! the Bellman sweep instead of rebuilding per-action outcome lists, and
//! the value function is **warm-started across ρ iterates** (the optimal
//! `v` moves continuously with ρ, so each bisection step starts next to
//! its fixed point and converges in a fraction of the cold-start sweeps).
//! Bellman sweeps and greedy-policy extraction run in parallel over
//! contiguous state chunks; every chunk writes disjoint slots and all
//! reductions (span seminorm, reference offset) are performed sequentially
//! in index order, so results are bit-identical for every thread count.

use std::collections::HashMap;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use seleth_chain::Scenario;
use seleth_obs::{EventKind, NoopRecorder, Recorder};

use crate::model::{Action, Fork, MdpConfig, MdpError, MdpState};

/// Don't spin up worker threads below this state count; a sweep this small
/// is cheaper than the thread handoff.
const PARALLEL_MIN_STATES: usize = 4096;

/// Minimum slots per worker thread: the effective worker count is clamped
/// to `n / PARALLEL_GRAIN`, so arbitrarily large `with_threads` values
/// cannot spawn per-state threads.
const PARALLEL_GRAIN: usize = 1024;

/// Hard cap on Dinkelbach bisection steps. 128 halvings of the initial
/// `[0, 2]` bracket reach the limit of f64 resolution, so any positive
/// `rho_tolerance` converges well before this; the cap turns a
/// pathological tolerance into a typed [`MdpError::NoConvergence`] instead
/// of an unbounded loop.
const MAX_BISECTIONS: usize = 128;

/// The dense state enumeration of one solve, shared (via [`Arc`]) between
/// the solver's flat tables and the policies it returns. The hash index
/// exists only for boundary lookups ([`Policy::action`]); the numeric
/// kernels address states by dense index.
///
/// Derives the serde traits so [`Policy`]'s own derive stays valid under
/// the real `serde` too (which additionally needs its `rc` feature for the
/// `Arc` field; see `vendor/README.md`).
#[derive(Debug, Serialize, Deserialize)]
struct StateSpace {
    states: Vec<MdpState>,
    index: HashMap<MdpState, usize>,
}

impl StateSpace {
    fn new(states: Vec<MdpState>) -> Self {
        let index = states.iter().enumerate().map(|(i, &s)| (s, i)).collect();
        StateSpace { states, index }
    }
}

/// An optimal stationary policy: the best action per state.
///
/// Index-backed: actions are stored densely in state-enumeration order and
/// the state table is shared with the solver, so constructing and cloning
/// policies is cheap; the state → action lookup keeps its hash-map API.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Policy {
    space: Arc<StateSpace>,
    actions: Vec<Action>,
}

impl Policy {
    /// The optimal action in `state` (`None` for states outside the
    /// truncated space).
    pub fn action(&self, state: MdpState) -> Option<Action> {
        self.space.index.get(&state).map(|&i| self.actions[i])
    }

    /// Number of states covered.
    pub fn len(&self) -> usize {
        self.actions.len()
    }

    /// `true` if the policy covers no states.
    pub fn is_empty(&self) -> bool {
        self.actions.is_empty()
    }

    /// Iterate `(state, action)` pairs in dense-index order.
    pub fn iter(&self) -> impl Iterator<Item = (MdpState, Action)> + '_ {
        self.space
            .states
            .iter()
            .copied()
            .zip(self.actions.iter().copied())
    }

    /// Fraction of states at or behind parity (`a ≤ h + 1`) in which the
    /// policy still deviates from simply adopting — a rough measure of how
    /// aggressive the optimal attacker is.
    pub fn aggression(&self) -> f64 {
        let mut candidates = 0usize;
        let mut deviant = 0usize;
        for (s, a) in self.iter() {
            if s.a <= s.h + 1 {
                candidates += 1;
                if !matches!(a, Action::Adopt) {
                    deviant += 1;
                }
            }
        }
        if candidates == 0 {
            return 0.0;
        }
        deviant as f64 / candidates as f64
    }
}

/// Instrumentation of one Dinkelbach solve.
///
/// Collected on every [`MdpConfig::solve`] (and on the legacy
/// re-expanding solver, where it documents what warm starts buy): one
/// entry per ρ iterate — the bisection candidates in order, then the
/// closing full-tolerance evaluation at the solved revenue. Recording is
/// pure bookkeeping over values the solver already computes, so the
/// numerics (and exported policy artifacts) are untouched.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct SolveStats {
    /// Bisection steps taken on the ρ bracket.
    pub bisection_steps: usize,
    /// Value-iteration sweeps spent per ρ iterate (last entry: the
    /// closing evaluation at ρ*).
    pub sweeps_per_iterate: Vec<usize>,
    /// Final Bellman-update span per ρ iterate — the residual each
    /// iterate converged (or sign-resolved) at.
    pub residuals: Vec<f64>,
    /// Iterates after the first that converged in fewer sweeps than the
    /// cold first iterate — warm starts paying off.
    pub warm_start_hits: usize,
}

impl SolveStats {
    fn record(&mut self, sweeps: usize, residual: f64) {
        if let Some(&cold) = self.sweeps_per_iterate.first() {
            if sweeps < cold {
                self.warm_start_hits += 1;
            }
        }
        self.sweeps_per_iterate.push(sweeps);
        self.residuals.push(residual);
    }

    /// Fraction of post-cold iterates that beat the cold iterate's sweep
    /// count; `0.0` for a solve with at most one iterate.
    pub fn warm_start_hit_rate(&self) -> f64 {
        let later = self.sweeps_per_iterate.len().saturating_sub(1);
        if later == 0 {
            return 0.0;
        }
        self.warm_start_hits as f64 / later as f64
    }
}

/// Result of solving the MDP.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Solution {
    /// The attacker's optimal revenue: reward per normalization unit
    /// (the paper's `U_s`; relative share for Bitcoin). Honest mining
    /// earns exactly `α`, so `revenue > α` means the chain is attackable
    /// at this hash power by *some* strategy.
    pub revenue: f64,
    /// The optimal policy at the solved revenue.
    pub policy: Policy,
    /// Value-iteration sweeps used across all bisection steps.
    pub iterations: usize,
    /// Per-iterate instrumentation of the solve.
    pub stats: SolveStats,
}

/// The transition table of one solve, flattened into contiguous arrays.
///
/// Layout: state `i`'s legal actions occupy `state_ptr[i]..state_ptr[i+1]`
/// of `actions`; action slot `k`'s outcomes occupy `out_ptr[k]..
/// out_ptr[k+1]` of the four parallel outcome arrays. Rewards are stored
/// *untransformed*; the ρ weighting happens inside the sweep.
#[derive(Debug)]
struct ExpandedMdp {
    space: Arc<StateSpace>,
    ref_state: usize,
    state_ptr: Vec<usize>,
    actions: Vec<Action>,
    out_ptr: Vec<usize>,
    prob: Vec<f64>,
    succ: Vec<u32>,
    attacker_reward: Vec<f64>,
    units: Vec<f64>,
}

/// Reusable value-iteration buffers, retained across every ρ candidate of
/// a solve (both the allocation and the converged values, which warm-start
/// the next candidate).
#[derive(Debug)]
struct ValueWorkspace {
    v: Vec<f64>,
    next_v: Vec<f64>,
    /// Per-action-slot expected transformed reward at the current ρ
    /// candidate: `base[k] = Σ_t prob[t]·(r[t] − ρ·units[t])`. Computed
    /// once per candidate, so the hot sweep loop streams only
    /// `prob`/`succ` and the value function.
    base: Vec<f64>,
}

impl ValueWorkspace {
    fn new(n: usize) -> Self {
        ValueWorkspace {
            v: vec![0.0; n],
            next_v: vec![0.0; n],
            base: Vec::new(),
        }
    }
}

/// A cross-solve value-function cache for parameter sweeps.
///
/// The Dinkelbach solver already warm-starts its value function across ρ
/// candidates *within* one solve; a sweep over a model axis (most notably
/// the delay axis of a delay-aware study: the optimal `v` moves
/// continuously with `delay_ratio`) can reuse the previous solve's
/// converged values the same way via [`MdpConfig::solve_with_cache`].
/// The cache is consulted only when the state-space size matches, so
/// sweeping mixed truncations or reward models through one cache is safe
/// (those solves simply start cold).
#[derive(Debug, Clone, Default)]
pub struct ValueCache {
    v: Vec<f64>,
}

impl ValueCache {
    /// An empty cache; the first solve through it starts cold.
    pub fn new() -> Self {
        Self::default()
    }
}

impl ExpandedMdp {
    /// Expand `config`'s transition table. Builds the state index (the one
    /// hash-map construction of the whole solve) and flattens every legal
    /// `(state, action)`'s outcomes.
    fn build(config: &MdpConfig) -> Self {
        let space = Arc::new(StateSpace::new(config.states()));
        let n = space.states.len();
        let ref_state = space.index[&MdpState::new(0, 0, Fork::Irrelevant)];

        let mut state_ptr = Vec::with_capacity(n + 1);
        state_ptr.push(0);
        let mut actions = Vec::new();
        let mut out_ptr = vec![0usize];
        let mut prob = Vec::new();
        let mut succ = Vec::new();
        let mut attacker_reward = Vec::new();
        let mut units = Vec::new();

        for &s in &space.states {
            let legal = config.legal_actions(s);
            debug_assert!(!legal.is_empty(), "state {s} has no legal action");
            for action in legal {
                let row_start = prob.len();
                for o in config.outcomes(s, action) {
                    debug_assert!(
                        space.index.contains_key(&o.next),
                        "successor {} of {s} outside the state space",
                        o.next
                    );
                    let j = *space
                        .index
                        .get(&o.next)
                        .expect("transition successors stay inside the truncated space");
                    let u = match config.scenario {
                        Scenario::RegularRate => o.regular,
                        Scenario::RegularPlusUncleRate => o.regular + o.uncles,
                    };
                    prob.push(o.prob);
                    succ.push(u32::try_from(j).expect("state index fits u32"));
                    attacker_reward.push(o.attacker_reward);
                    units.push(u);
                }
                // Every CSR row is a probability distribution; the
                // delay-aware race folding (win/loss branch splits,
                // effective-γ scaling) makes silent mass leakage easy, so
                // rows are validated at construction.
                debug_assert!(
                    {
                        let row_sum: f64 = prob[row_start..].iter().sum();
                        (row_sum - 1.0).abs() < 1e-12
                    },
                    "transition row ({s}, {action:?}) leaks probability mass"
                );
                out_ptr.push(prob.len());
                actions.push(action);
            }
            state_ptr.push(actions.len());
        }

        ExpandedMdp {
            space,
            ref_state,
            state_ptr,
            actions,
            out_ptr,
            prob,
            succ,
            attacker_reward,
            units,
        }
    }

    fn len(&self) -> usize {
        self.space.states.len()
    }

    /// Refill `base[k] = Σ_t prob[t]·(r[t] − ρ·units[t])` for every
    /// action slot — the reward half of the Bellman backup, hoisted out
    /// of the sweep loop. One `O(nnz)` pass per ρ candidate buys every
    /// subsequent sweep a multiply-subtract per outcome and halves the
    /// arrays the hot loop streams.
    fn fill_base(&self, rho: f64, base: &mut Vec<f64>) {
        base.clear();
        base.extend((0..self.actions.len()).map(|k| {
            let mut b = 0.0;
            for t in self.out_ptr[k]..self.out_ptr[k + 1] {
                b += self.prob[t] * (self.attacker_reward[t] - rho * self.units[t]);
            }
            b
        }));
    }

    /// Best action value for state `i` given the per-action reward bases
    /// (already ρ-weighted by [`ExpandedMdp::fill_base`]) and the current
    /// value function.
    #[inline]
    fn best_q(&self, i: usize, base: &[f64], v: &[f64]) -> (f64, Action) {
        let mut best = f64::NEG_INFINITY;
        let mut best_action = Action::Adopt;
        let (lo, hi) = (self.state_ptr[i], self.state_ptr[i + 1]);
        for ((&action, &b), k) in self.actions[lo..hi].iter().zip(&base[lo..hi]).zip(lo..hi) {
            let mut q = b;
            for t in self.out_ptr[k]..self.out_ptr[k + 1] {
                q += self.prob[t] * v[self.succ[t] as usize];
            }
            if q > best {
                best = q;
                best_action = action;
            }
        }
        (best, best_action)
    }

    /// Fill `out[i] = f(i)` for every slot, in parallel. Workers claim
    /// fixed-size state tiles ([`PARALLEL_GRAIN`] slots) from an atomic
    /// counter, the claiming rule of the workspace work queue
    /// (`seleth_obs::sched`), so heterogeneous per-state costs (the action
    /// fan-out varies across the space) stay load-balanced at truncation
    /// 200+. Tile membership only decides which thread computes which
    /// slot, never the arithmetic, so the result is deterministic for any
    /// `threads`; each tile sits behind an uncontended mutex purely to
    /// hand its `&mut` slice across threads. This is the one queue kept
    /// outside `seleth_obs::sched`: it refills a preallocated slice in
    /// place on every Bellman sweep, where a `Vec`-returning map would
    /// allocate once per sweep.
    fn par_fill<T: Send>(out: &mut [T], threads: usize, f: impl Fn(usize) -> T + Sync) {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Mutex;

        let n = out.len();
        let threads = threads.min(n.div_ceil(PARALLEL_GRAIN)).max(1);
        if threads <= 1 || n < PARALLEL_MIN_STATES {
            for (i, slot) in out.iter_mut().enumerate() {
                *slot = f(i);
            }
            return;
        }
        let tiles: Vec<Mutex<(usize, &mut [T])>> = out
            .chunks_mut(PARALLEL_GRAIN)
            .enumerate()
            .map(|(k, chunk)| Mutex::new((k * PARALLEL_GRAIN, chunk)))
            .collect();
        let next = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..threads {
                let tiles = &tiles;
                let next = &next;
                let f = &f;
                scope.spawn(move || loop {
                    let k = next.fetch_add(1, Ordering::Relaxed);
                    if k >= tiles.len() {
                        break;
                    }
                    let mut tile = tiles[k].lock().expect("sweep tile lock");
                    let (start, slots) = &mut *tile;
                    for (j, slot) in slots.iter_mut().enumerate() {
                        *slot = f(*start + j);
                    }
                });
            }
        });
    }

    /// One Bellman sweep: `next_v[i] = max_a Q(i, a)` for every state.
    fn bellman_sweep(&self, base: &[f64], v: &[f64], next_v: &mut [f64], threads: usize) {
        Self::par_fill(next_v, threads, |i| self.best_q(i, base, v).0);
    }

    /// Optimal average transformed reward `g(ρ)` via relative value
    /// iteration, warm-started from (and leaving its converged values in)
    /// `ws.v`. Returns `(g, sweeps, span)` — `span` is the Bellman-update
    /// span seminorm of the terminating sweep (the iterate's residual).
    ///
    /// With `sign_only`, iteration stops as soon as the sign of `g(ρ)` is
    /// certain: every sweep's Bellman-update differences bound the optimal
    /// gain (`min_d ≤ g ≤ max_d`, the classic value-iteration sandwich for
    /// unichain MDPs), so once the whole interval clears zero the returned
    /// midpoint carries the exact sign — which is all a bisection step
    /// needs. Candidates far from the root resolve in a handful of sweeps.
    fn optimal_average(
        &self,
        rho: f64,
        tolerance: f64,
        threads: usize,
        sign_only: bool,
        ws: &mut ValueWorkspace,
    ) -> Result<(f64, usize, f64), MdpError> {
        let n = self.len();
        let max_sweeps = 200_000;
        self.fill_base(rho, &mut ws.base);
        for sweep in 0..max_sweeps {
            self.bellman_sweep(&ws.base, &ws.v, &mut ws.next_v, threads);
            // Span seminorm of the Bellman update; sequential index-order
            // reduction keeps it deterministic under any thread count.
            let mut min_d = f64::INFINITY;
            let mut max_d = f64::NEG_INFINITY;
            for i in 0..n {
                let d = ws.next_v[i] - ws.v[i];
                min_d = min_d.min(d);
                max_d = max_d.max(d);
            }
            let offset = ws.next_v[self.ref_state];
            for i in 0..n {
                ws.v[i] = ws.next_v[i] - offset;
            }
            if sign_only && (min_d > 0.0 || max_d < 0.0) {
                return Ok((0.5 * (max_d + min_d), sweep + 1, max_d - min_d));
            }
            if max_d - min_d < tolerance {
                return Ok((0.5 * (max_d + min_d), sweep + 1, max_d - min_d));
            }
        }
        // The caller widens `rho_lo`/`rho_hi` to its live bisection
        // bracket; here only the failing candidate is known.
        Err(MdpError::NoConvergence {
            rho_lo: rho,
            rho_hi: rho,
            sweeps: max_sweeps,
        })
    }

    /// Extract the greedy policy from the converged values and the reward
    /// bases of the final ρ (deterministic: ties break by
    /// action-enumeration order in every tiling).
    fn greedy_policy(&self, base: &[f64], v: &[f64], threads: usize) -> Vec<Action> {
        let mut actions = vec![Action::Adopt; self.len()];
        Self::par_fill(&mut actions, threads, |i| self.best_q(i, base, v).1);
        actions
    }
}

/// Replace a [`MdpError::NoConvergence`] candidate-point bracket with the
/// bisection's live `[lo, hi]` bracket and accumulated sweep count, so the
/// diagnostics describe the whole solve rather than the failing candidate.
fn widen_bracket(e: MdpError, lo: f64, hi: f64, done: usize) -> MdpError {
    match e {
        MdpError::NoConvergence { sweeps, .. } => MdpError::NoConvergence {
            rho_lo: lo,
            rho_hi: hi,
            sweeps: done + sweeps,
        },
        other => other,
    }
}

impl MdpConfig {
    /// Solve for the attacker's optimal revenue and policy.
    ///
    /// The transition table is expanded once; each Dinkelbach bisection
    /// step re-weights it on the fly and warm-starts relative value
    /// iteration from the previous candidate's fixed point. The reported
    /// policy is the greedy policy at the solved revenue.
    ///
    /// # Errors
    ///
    /// - [`MdpError::InvalidAlpha`] / [`MdpError::InvalidGamma`] /
    ///   [`MdpError::InvalidTolerance`] for bad parameters;
    /// - [`MdpError::NoConvergence`] if value iteration stalls or the
    ///   bisection exhausts its step budget; the error carries the ρ
    ///   bracket reached and the sweeps spent.
    pub fn solve(&self) -> Result<Solution, MdpError> {
        self.solve_with_cache(&mut ValueCache::new())
    }

    /// [`MdpConfig::solve`], warm-started from (and refreshing) a
    /// cross-solve [`ValueCache`]. When the cached value function matches
    /// this solve's state count it seeds relative value iteration — for a
    /// sweep along a continuous model axis (delay, α, γ) each solve then
    /// starts next to its fixed point, exactly like the within-solve warm
    /// start across ρ candidates. A mismatched (or empty) cache is
    /// ignored; either way the converged values are stored back.
    ///
    /// Sign-only bisection candidates resolve the *exact* sign of `g(ρ)`
    /// regardless of the starting values, so a warm-started solve walks
    /// the identical ρ bracket and returns a revenue within
    /// `rho_tolerance` of the cold solve's.
    ///
    /// # Errors
    ///
    /// As [`MdpConfig::solve`].
    pub fn solve_with_cache(&self, cache: &mut ValueCache) -> Result<Solution, MdpError> {
        self.solve_observed(cache, &NoopRecorder)
    }

    /// [`MdpConfig::solve_with_cache`] with a flight recorder attached.
    ///
    /// Each bisection candidate emits an [`EventKind::Bisect`] event
    /// (actor: step number; payloads: the candidate ρ's bits and the
    /// sweeps it took), warm-start payoffs emit [`EventKind::WarmStart`]
    /// (sweeps vs the cold first iterate), and the closing full-tolerance
    /// evaluation emits [`EventKind::Sweep`] with the solved revenue.
    /// Recording is pure observation of values the solver already
    /// computes: the bisection walk, the revenue and the exported policy
    /// are bit-identical with any recorder, including none.
    ///
    /// # Errors
    ///
    /// As [`MdpConfig::solve`].
    pub fn solve_observed(
        &self,
        cache: &mut ValueCache,
        recorder: &dyn Recorder,
    ) -> Result<Solution, MdpError> {
        self.validate()?;
        let threads = self.resolved_threads();
        let expanded = ExpandedMdp::build(self);
        let mut ws = ValueWorkspace::new(expanded.len());
        if cache.v.len() == expanded.len() {
            ws.v.copy_from_slice(&cache.v);
        }
        // Us ≤ static + uncle + nephew per regular block < 2 comfortably.
        let mut lo = 0.0f64;
        let mut hi = 2.0f64;
        let mut iterations = 0usize;
        let mut steps = 0usize;
        let mut stats = SolveStats::default();
        while hi - lo > self.rho_tolerance {
            if steps >= MAX_BISECTIONS {
                return Err(MdpError::NoConvergence {
                    rho_lo: lo,
                    rho_hi: hi,
                    sweeps: iterations,
                });
            }
            steps += 1;
            let mid = 0.5 * (lo + hi);
            let (g, sweeps, span) = expanded
                .optimal_average(mid, self.tolerance, threads, true, &mut ws)
                .map_err(|e| widen_bracket(e, lo, hi, iterations))?;
            iterations += sweeps;
            let cold = stats.sweeps_per_iterate.first().copied();
            stats.record(sweeps, span);
            recorder.event(
                EventKind::Bisect,
                u32::try_from(steps).unwrap_or(u32::MAX),
                mid.to_bits(),
                sweeps as u64,
            );
            if let Some(cold) = cold {
                if sweeps < cold {
                    recorder.event(
                        EventKind::WarmStart,
                        u32::try_from(steps).unwrap_or(u32::MAX),
                        sweeps as u64,
                        cold as u64,
                    );
                }
            }
            if g > 0.0 {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        stats.bisection_steps = steps;
        let revenue = 0.5 * (lo + hi);
        // One more full-tolerance evaluation at the solved revenue (cheap:
        // warm-started) so the reported policy is greedy at ρ*, not at the
        // last bisection midpoint.
        let (_, sweeps, span) = expanded
            .optimal_average(revenue, self.tolerance, threads, false, &mut ws)
            .map_err(|e| widen_bracket(e, lo, hi, iterations))?;
        iterations += sweeps;
        stats.record(sweeps, span);
        recorder.event(EventKind::Sweep, 0, revenue.to_bits(), sweeps as u64);
        let actions = expanded.greedy_policy(&ws.base, &ws.v, threads);
        cache.v.clear();
        cache.v.extend_from_slice(&ws.v);
        Ok(Solution {
            revenue,
            policy: Policy {
                space: expanded.space.clone(),
                actions,
            },
            iterations,
            stats,
        })
    }

    /// Legacy solver kept for benchmarking the single-expansion layout:
    /// re-expands the transition table, cold-starts the value function and
    /// rebuilds the policy on **every** ρ candidate, exactly like the
    /// pre-CSR implementation. Produces the same revenue as
    /// [`MdpConfig::solve`]. Do not use outside benchmarks.
    ///
    /// # Errors
    ///
    /// As [`MdpConfig::solve`].
    #[doc(hidden)]
    pub fn solve_reexpanding(&self) -> Result<Solution, MdpError> {
        self.validate()?;
        let threads = self.resolved_threads();
        let mut lo = 0.0f64;
        let mut hi = 2.0f64;
        let mut iterations = 0usize;
        let mut steps = 0usize;
        let mut stats = SolveStats::default();
        let mut last: Option<Solution> = None;
        while hi - lo > self.rho_tolerance {
            if steps >= MAX_BISECTIONS {
                return Err(MdpError::NoConvergence {
                    rho_lo: lo,
                    rho_hi: hi,
                    sweeps: iterations,
                });
            }
            steps += 1;
            let mid = 0.5 * (lo + hi);
            // The legacy behaviour under benchmark: full re-expansion and a
            // cold-started value function per candidate.
            let expanded = ExpandedMdp::build(self);
            let mut ws = ValueWorkspace::new(expanded.len());
            let (g, sweeps, span) =
                expanded.optimal_average(mid, self.tolerance, threads, false, &mut ws)?;
            iterations += sweeps;
            stats.record(sweeps, span);
            let actions = expanded.greedy_policy(&ws.base, &ws.v, threads);
            if g > 0.0 {
                lo = mid;
            } else {
                hi = mid;
            }
            last = Some(Solution {
                revenue: 0.5 * (lo + hi),
                policy: Policy {
                    space: expanded.space.clone(),
                    actions,
                },
                iterations,
                stats: SolveStats::default(),
            });
        }
        let mut solution = last.expect("bisection runs at least once");
        solution.revenue = 0.5 * (lo + hi);
        solution.iterations = iterations;
        stats.bisection_steps = steps;
        solution.stats = stats;
        Ok(solution)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::RewardModel;
    use seleth_core::bitcoin;

    fn solve(alpha: f64, gamma: f64, rewards: RewardModel) -> Solution {
        MdpConfig::new(alpha, gamma, rewards)
            .with_max_len(30)
            .solve()
            .unwrap()
    }

    #[test]
    fn optimal_dominates_eyal_sirer() {
        // SM1 is a feasible policy, so the optimum can only do better
        // (up to truncation bias).
        for &(a, g) in &[(0.3, 0.0), (0.35, 0.5), (0.4, 0.5), (0.45, 0.9)] {
            let opt = solve(a, g, RewardModel::Bitcoin).revenue;
            let sm1 = bitcoin::eyal_sirer_revenue(a, g);
            assert!(
                opt >= sm1 - 2e-3,
                "alpha={a} gamma={g}: optimal {opt} below SM1 {sm1}"
            );
        }
    }

    #[test]
    fn optimal_matches_sm1_where_sm1_is_optimal() {
        // At γ = 0.5 and modest α, Eyal–Sirer's SM1 is known-optimal; two
        // completely independent implementations (closed form vs MDP)
        // must agree to bisection precision.
        for &a in &[0.26, 0.28, 0.30] {
            let opt = solve(a, 0.5, RewardModel::Bitcoin).revenue;
            let sm1 = bitcoin::eyal_sirer_revenue(a, 0.5);
            assert!(
                (opt - sm1).abs() < 5e-5,
                "alpha={a}: optimal {opt} vs SM1 {sm1}"
            );
        }
    }

    #[test]
    fn optimal_strictly_beats_sm1_at_high_alpha() {
        // Sapirshtein et al.: above ~1/3 the optimal policy outperforms
        // SM1 (e.g. their published 0.37077 at α = 0.35, γ = 0).
        let opt = solve(0.35, 0.0, RewardModel::Bitcoin).revenue;
        let sm1 = bitcoin::eyal_sirer_revenue(0.35, 0.0);
        assert!(opt > sm1 + 4e-3, "optimal {opt} vs SM1 {sm1}");
        assert!(
            (opt - 0.37077).abs() < 5e-4,
            "published optimal value: got {opt}"
        );
    }

    #[test]
    fn solve_stats_trace_the_bisection() {
        let s = solve(0.35, 0.5, RewardModel::Bitcoin);
        let stats = &s.stats;
        assert!(stats.bisection_steps > 0);
        // One entry per bisection candidate plus the closing evaluation.
        assert_eq!(stats.sweeps_per_iterate.len(), stats.bisection_steps + 1);
        assert_eq!(stats.residuals.len(), stats.sweeps_per_iterate.len());
        assert_eq!(
            stats.sweeps_per_iterate.iter().sum::<usize>(),
            s.iterations,
            "per-iterate sweeps must partition the total"
        );
        assert!(stats.residuals.iter().all(|r| r.is_finite() && *r >= 0.0));
        let rate = stats.warm_start_hit_rate();
        assert!((0.0..=1.0).contains(&rate));
        assert!(
            rate > 0.5,
            "warm starts should beat the cold iterate most of the time: {rate}"
        );
    }

    #[test]
    fn observed_solve_records_events_without_changing_the_answer() {
        let config = MdpConfig::new(0.35, 0.5, RewardModel::Bitcoin).with_max_len(30);
        let plain = config.solve().unwrap();
        let log = seleth_obs::EventLog::new(4096);
        let observed = config.solve_observed(&mut ValueCache::new(), &log).unwrap();
        // Observation is bit-neutral: same revenue, same policy walk.
        assert_eq!(plain.revenue.to_bits(), observed.revenue.to_bits());
        assert_eq!(plain.iterations, observed.iterations);
        let counts = log.counts_by_kind();
        let count_of = |k: EventKind| {
            counts
                .iter()
                .find(|(kind, _)| *kind == k)
                .map_or(0, |(_, n)| *n)
        };
        assert_eq!(
            count_of(EventKind::Bisect) as usize,
            observed.stats.bisection_steps
        );
        assert_eq!(count_of(EventKind::Sweep), 1);
        assert_eq!(
            count_of(EventKind::WarmStart) as usize,
            observed.stats.warm_start_hits
        );
        // The closing Sweep event carries the solved revenue's exact bits.
        let sweep = log
            .events()
            .into_iter()
            .find(|e| e.kind == EventKind::Sweep)
            .unwrap();
        assert_eq!(sweep.a, observed.revenue.to_bits());
    }

    #[test]
    fn optimal_never_below_honest() {
        // "Override at (1,0), adopt when behind" is honest mining and
        // earns exactly α, so the optimum is at least that.
        for &(a, g) in &[(0.1, 0.0), (0.2, 0.5), (0.45, 1.0)] {
            let opt = solve(a, g, RewardModel::Bitcoin).revenue;
            assert!(opt >= a - 2e-3, "alpha={a} gamma={g}: {opt}");
        }
    }

    #[test]
    fn revenue_monotone_in_alpha() {
        let mut prev = 0.0;
        for &a in &[0.15, 0.25, 0.35, 0.45] {
            let r = solve(a, 0.5, RewardModel::Bitcoin).revenue;
            assert!(r > prev);
            prev = r;
        }
    }

    #[test]
    fn ethereum_rewards_dominate_bitcoin() {
        // Under the absolute-revenue objective, uncle rewards are free
        // money for the attacker: optimal Ethereum revenue must be at
        // least the Bitcoin optimum — the paper's headline under optimal
        // play, not just Algorithm 1.
        for &(a, g) in &[(0.2, 0.0), (0.3, 0.5), (0.4, 0.5)] {
            let btc = solve(a, g, RewardModel::Bitcoin).revenue;
            let eth = solve(a, g, RewardModel::EthereumApprox).revenue;
            assert!(
                eth >= btc - 1e-4,
                "alpha={a} gamma={g}: eth {eth} vs btc {btc}"
            );
        }
    }

    #[test]
    fn ethereum_profitable_where_bitcoin_is_not() {
        // At γ = 0.5, α = 0.22 the Bitcoin optimum is honest mining
        // (below the optimal threshold); with uncle rewards the attacker
        // clears its fair share.
        let btc = solve(0.22, 0.5, RewardModel::Bitcoin).revenue;
        let eth = solve(0.22, 0.5, RewardModel::EthereumApprox).revenue;
        assert!(btc <= 0.22 + 1e-3, "bitcoin optimum ~honest, got {btc}");
        assert!(eth > 0.2225, "ethereum optimum profitable, got {eth}");
    }

    #[test]
    fn scenario2_no_more_profitable_than_scenario1() {
        // Counting uncles in the difficulty can only shrink the ratio.
        let base = MdpConfig::new(0.35, 0.5, RewardModel::EthereumApprox).with_max_len(30);
        let s1 = base.solve().unwrap().revenue;
        let s2 = base
            .with_scenario(Scenario::RegularPlusUncleRate)
            .solve()
            .unwrap()
            .revenue;
        assert!(s2 <= s1 + 1e-6, "scenario2 {s2} vs scenario1 {s1}");
    }

    #[test]
    fn policy_is_meaningful() {
        let s = solve(0.4, 0.5, RewardModel::Bitcoin);
        assert!(!s.policy.is_empty());
        // With a 2-lead the attacker holds (waits), not adopts.
        let act = s.policy.action(MdpState::new(2, 0, Fork::Irrelevant));
        assert_eq!(act, Some(Action::Wait), "lead of 2 should be held");
        // Far behind, adopt.
        let act = s.policy.action(MdpState::new(0, 3, Fork::Relevant));
        assert_eq!(act, Some(Action::Adopt));
        assert!(s.policy.aggression() > 0.0);
    }

    #[test]
    fn gamma_one_always_profitable() {
        let r = solve(0.1, 1.0, RewardModel::Bitcoin).revenue;
        assert!(r > 0.1, "γ=1 attack profitable even at 10%: {r}");
    }

    #[test]
    fn invalid_params_rejected() {
        assert!(MdpConfig::new(0.0, 0.5, RewardModel::Bitcoin)
            .solve()
            .is_err());
        assert!(MdpConfig::new(0.3, 2.0, RewardModel::Bitcoin)
            .solve()
            .is_err());
    }

    #[test]
    fn degenerate_tolerances_are_typed_errors() {
        // A zero or negative bisection tolerance used to loop forever;
        // now it is rejected up front.
        for bad in [0.0, -1e-6, f64::NAN, f64::INFINITY] {
            let mut config = MdpConfig::new(0.3, 0.5, RewardModel::Bitcoin).with_max_len(8);
            config.rho_tolerance = bad;
            assert!(
                matches!(config.solve(), Err(MdpError::InvalidTolerance { .. })),
                "rho_tolerance {bad} must be rejected"
            );
            let mut config = MdpConfig::new(0.3, 0.5, RewardModel::Bitcoin).with_max_len(8);
            config.tolerance = bad;
            assert!(matches!(
                config.solve(),
                Err(MdpError::InvalidTolerance { .. })
            ));
        }
    }

    #[test]
    fn sub_resolution_tolerance_terminates() {
        // A positive but sub-f64-resolution tolerance passes validation;
        // the bisection must terminate regardless — either the bracket
        // collapses to zero width at the floating-point floor (Ok), or the
        // step cap fires with bracket diagnostics. Never an unbounded loop.
        let mut config = MdpConfig::new(0.3, 0.5, RewardModel::Bitcoin).with_max_len(6);
        config.rho_tolerance = 1e-300;
        match config.solve() {
            Ok(s) => assert!((0.0..1.0).contains(&s.revenue), "revenue {}", s.revenue),
            Err(MdpError::NoConvergence { rho_lo, rho_hi, .. }) => {
                assert!(rho_lo <= rho_hi, "bracket [{rho_lo}, {rho_hi}]")
            }
            Err(other) => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn no_convergence_carries_bracket_diagnostics() {
        // The bisection widens a candidate-point failure to its live ρ
        // bracket and accumulates the sweep count; other errors pass
        // through untouched.
        let e = widen_bracket(
            MdpError::NoConvergence {
                rho_lo: 0.4,
                rho_hi: 0.4,
                sweeps: 7,
            },
            0.25,
            0.5,
            100,
        );
        assert_eq!(
            e,
            MdpError::NoConvergence {
                rho_lo: 0.25,
                rho_hi: 0.5,
                sweeps: 107
            }
        );
        let msg = e.to_string();
        assert!(
            msg.contains("107") && msg.contains("0.25") && msg.contains("0.5"),
            "diagnostics missing from {msg:?}"
        );
        let other = widen_bracket(MdpError::InvalidGamma { gamma: 2.0 }, 0.0, 1.0, 5);
        assert_eq!(other, MdpError::InvalidGamma { gamma: 2.0 });
    }

    #[test]
    fn thread_count_never_changes_solution() {
        // The parallel Bellman sweep partitions states but never reorders
        // arithmetic: revenue, sweep counts and the full policy must be
        // identical for every worker count.
        let base = MdpConfig::new(0.38, 0.4, RewardModel::EthereumApprox).with_max_len(16);
        let reference = base.with_threads(1).solve().unwrap();
        for threads in [2, 3, 8] {
            let parallel = base.with_threads(threads).solve().unwrap();
            assert_eq!(reference.revenue, parallel.revenue, "threads={threads}");
            assert_eq!(
                reference.iterations, parallel.iterations,
                "threads={threads}"
            );
            let same = reference
                .policy
                .iter()
                .zip(parallel.policy.iter())
                .all(|((s1, a1), (s2, a2))| s1 == s2 && a1 == a2);
            assert!(same, "policy differs at threads={threads}");
        }
    }

    #[test]
    fn reexpanding_solver_matches_fast_path() {
        // The legacy-layout benchmark reference must agree on the solved
        // revenue to bisection precision (both bisect the same g(ρ)).
        let config = MdpConfig::new(0.33, 0.5, RewardModel::Bitcoin).with_max_len(20);
        let fast = config.solve().unwrap();
        let slow = config.solve_reexpanding().unwrap();
        assert!(
            (fast.revenue - slow.revenue).abs() < 1e-9,
            "fast {} vs legacy {}",
            fast.revenue,
            slow.revenue
        );
        // Warm-starting must save sweeps, not just wall-clock.
        assert!(
            fast.iterations < slow.iterations,
            "warm start used {} sweeps vs {}",
            fast.iterations,
            slow.iterations
        );
    }

    #[test]
    fn csr_rows_sum_to_one_over_random_configs() {
        // Property test over random (α, γ, delay): every expanded CSR row
        // must be a probability distribution to 1e-12 — the construction
        // debug-assert fires inside `build`, and the explicit re-check
        // below keeps the property gated in release-mode test runs too.
        let mut state = 0x5eed_cafe_f00d_u64;
        let mut next_unit = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        for case in 0..40 {
            let alpha = 0.05 + 0.44 * next_unit();
            let gamma = next_unit();
            let delay = 2.0 * next_unit();
            let rewards = if case % 2 == 0 {
                RewardModel::Bitcoin
            } else {
                RewardModel::EthereumApprox
            };
            let config = MdpConfig::new(alpha, gamma, rewards)
                .with_max_len(8)
                .with_delay_ratio(delay);
            let expanded = ExpandedMdp::build(&config);
            for k in 0..expanded.actions.len() {
                let row: f64 = expanded.prob[expanded.out_ptr[k]..expanded.out_ptr[k + 1]]
                    .iter()
                    .sum();
                assert!(
                    (row - 1.0).abs() < 1e-12,
                    "case {case} (α={alpha} γ={gamma} delay={delay}): \
                     action slot {k} sums to {row}"
                );
            }
        }
    }

    #[test]
    fn value_cache_saves_sweeps_across_a_delay_sweep() {
        // Sweeping the delay axis through one cache must (a) keep every
        // revenue within bisection tolerance of its cold solve and (b)
        // spend fewer sweeps than the cold solves once warm.
        let base = MdpConfig::new(0.4, 0.5, RewardModel::Bitcoin).with_max_len(16);
        let mut cache = ValueCache::new();
        let mut warm_total = 0usize;
        let mut cold_total = 0usize;
        for (i, &delay) in [0.0, 0.15, 0.3, 0.45].iter().enumerate() {
            let config = base.with_delay_ratio(delay);
            let warm = config.solve_with_cache(&mut cache).unwrap();
            let cold = config.solve().unwrap();
            assert!(
                (warm.revenue - cold.revenue).abs() <= config.rho_tolerance,
                "delay {delay}: warm {} vs cold {}",
                warm.revenue,
                cold.revenue
            );
            if i > 0 {
                warm_total += warm.iterations;
                cold_total += cold.iterations;
            }
        }
        assert!(
            warm_total < cold_total,
            "cache-seeded solves spent {warm_total} sweeps vs {cold_total} cold"
        );
    }

    #[test]
    fn revenue_degrades_as_delay_grows() {
        // The race window only ever costs the attacker (releases can now
        // lose), so optimal revenue is monotone non-increasing in delay —
        // and strictly lower once the window is material.
        let base = MdpConfig::new(0.4, 0.5, RewardModel::Bitcoin).with_max_len(16);
        let mut prev = f64::INFINITY;
        for &delay in &[0.0, 0.2, 0.5, 1.0] {
            let r = base.with_delay_ratio(delay).solve().unwrap().revenue;
            assert!(
                r <= prev + 1e-9,
                "delay {delay}: revenue {r} above previous {prev}"
            );
            prev = r;
        }
        let zero = base.solve().unwrap().revenue;
        assert!(
            prev < zero - 0.01,
            "delay 1.0 should cost materially: {prev} vs {zero}"
        );
    }

    #[test]
    fn policy_lookup_outside_space_is_none() {
        let s = solve(0.3, 0.5, RewardModel::Bitcoin);
        assert_eq!(
            s.policy.action(MdpState::new(900, 0, Fork::Irrelevant)),
            None
        );
        assert_eq!(s.policy.len(), s.policy.iter().count());
    }
}
