//! Dinkelbach policy iteration with exact policy evaluation, and the
//! bisection on ρ replayed from certified signs.
//!
//! The attacker maximizes a *ratio*: expected reward per normalization
//! unit (regular blocks for Scenario 1; regular + uncle blocks for
//! Scenario 2 — exactly the paper's absolute revenue `U_s`). Following the
//! fractional-programming transformation (Dinkelbach; Sapirshtein et al.
//! use its relative-revenue special case), for a candidate ratio `ρ`
//! per-step rewards become `r_attacker − ρ · units`, the optimal long-run
//! average `g(ρ)` is strictly decreasing, and the optimal ratio is the
//! root `g(ρ*) = 0`.
//!
//! # Exact policy evaluation
//!
//! Every transition of this MDP either raises `a + h` by exactly one or
//! lands on a state with `h ≤ 1`, a *landing state* (48 of 1 525 states
//! at truncation 24, 400 of 100 701 at truncation 200). So a fixed policy
//! is evaluated exactly, level by level: walking the states by descending
//! `a + h`, each state's expected reward, units and step count up to its
//! next landing reduce to a combination of the landing states' values,
//! because its other successors sit one level up and are already reduced.
//! One dense `(m + 1) × (m + 1)` system over the `m` landing values and
//! the gain, normalised at `(1, 0)`, then yields the relative values
//! `h_r` of rewards and `h_u` of units, back-substituted level by level,
//! and `ρ(π) = g_r / g_u`. Only two level slabs of coefficients are held
//! at a time, never a states × landing array.
//!
//! # Dinkelbach policy iteration
//!
//! Starting from honest mining (each state's first legal action), or from
//! the policy a [`ValueCache`] kept, the solver evaluates π and improves
//! it greedily at `ρ(π)` over `h_r − ρ(π)·h_u`, keeping the current
//! action unless another beats it by more than a rounding margin, until
//! no action improves. That is Dinkelbach's own update: `ρ(π)` climbs to
//! ρ* in a handful of evaluations.
//!
//! # The bisection, replayed
//!
//! The reported revenue is still the midpoint of the `[0, 2]` bisection
//! down to `rho_tolerance`, a walk fixed by the signs of `g` at its
//! midpoints. The final policy certifies a bracket around ρ*: below
//! `ρ(π) − δ` its own gain proves `g > 0`, and above `ρ(π) + δ` one
//! Bellman sweep from `h_r − ρ·h_u` whose update sandwich
//! `min_d ≤ g ≤ max_d` lies below zero proves `g < 0`. A midpoint outside
//! the bracket takes its certified sign with no sweep; one inside is
//! evaluated by relative value iteration until the sandwich clears zero
//! ([`SolveStats::unresolved_signs`] counts those where it never does,
//! most plainly when ρ* is itself a midpoint). The signs, and so the
//! revenue bits, do not depend on the starting policy. The returned
//! policy is one greedy pass at the revenue over `h_r − revenue·h_u`
//! that takes each state's first action within the rounding margin of
//! its greatest Q value, so exact ties break by action order, not by the
//! last ulp of an evaluation.
//!
//! # Performance architecture
//!
//! The transition table is expanded into flat struct-of-arrays storage
//! ([`ExpandedMdp`]): per outcome, `(prob, successor index, attacker
//! reward, normalization units)`. A cold solve expands it once; a
//! [`ValueCache`] keeps the expansion, and the next solve through it
//! refills only the probabilities, rewards and units in place, after
//! checking that every action, row width and successor is unchanged (a
//! mismatch expands afresh). Each ρ re-weights rewards once (`base = Σ
//! p·(r − ρ·units)` per action) instead of rebuilding per-action outcome
//! lists. States are indexed through a dense table over the policy
//! artifacts' own slot indexer ([`StateSpace::index`]), so the expansion
//! hashes nothing.
//!
//! Every Q pass (an improvement pass, a Bellman sweep, the closing greedy
//! pass) runs over **state tiles** of [`PARALLEL_GRAIN`] consecutive
//! states. Inside a tile, action rows are grouped by outcome count and
//! states by action count, so a pass runs two fixed-width loops per tile
//! instead of a per-state walk whose loop trip counts change from state
//! to state: a *Q pass* (`q = base + Σ p_j·v[s_j]`, widths 1–4 unrolled
//! at compile time) and a *max pass* (the first strictly greatest `q` per
//! state). Each action's sum is formed in enumeration order and the
//! tie-break is unchanged, so the grouping moves no bit of any result; a
//! tile keeps its states' values close together in cache.
//!
//! A sequential pass runs the tiles in order, a parallel one lets workers
//! claim whole tiles. Every tile writes disjoint slots and all reductions
//! (span seminorm, reference offsets, the improvement count) run on the
//! calling thread or are order-free sums, and the exact evaluation is
//! sequential, so results are bit-identical for every thread count. The
//! span reduction runs four interleaved `min`/`max` accumulators and
//! falls back to the index-order fold only when an extreme is exactly
//! zero, the one case where regrouping could pick the other signed zero.

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

use serde::{Deserialize, Serialize};

use seleth_chain::Scenario;

use crate::model::{Action, Fork, MdpConfig, MdpError, MdpState, Outcome};
use crate::policy::StateSpace;

/// Don't spin up worker threads below this state count; a sweep this small
/// is cheaper than the thread handoff.
const PARALLEL_MIN_STATES: usize = 4096;

/// States per sweep tile. The effective worker count is clamped to the
/// tile count, so arbitrarily large `with_threads` values cannot spawn
/// per-state threads.
const PARALLEL_GRAIN: usize = 1024;

/// Hard cap on bisection steps and on policy evaluations. 128 halvings of
/// the initial `[0, 2]` bracket reach the limit of f64 resolution, so any
/// positive `rho_tolerance` converges well before this; every policy
/// improvement raises `ρ(π)` by more than the rounding margin, so policy
/// iteration ends in a handful of evaluations. The cap turns a
/// pathological tolerance into a typed [`MdpError::NoConvergence`]
/// instead of an unbounded loop.
const MAX_STEPS: usize = 128;

/// Sweeps one relative value iteration may spend before
/// [`MdpError::NoConvergence`].
const MAX_SWEEPS: usize = 200_000;

/// Rounding headroom of a Q value, in units of `ε · (1 + max|v|)`. A Q
/// value sums at most five terms bounded by the value scale, each
/// formed from `h_r − ρ·h_u`, so two Q values of one state carry a
/// rounding difference of a few tens of ulps of that scale; 1024 ulps
/// clears it with a wide factor. It sets the improvement margin (an
/// action must beat the current one by more than this), the tie width
/// of the closing greedy pass and, divided by the units gain, the
/// half-width δ of the certified bracket.
const ROUNDING_ULPS: f64 = 1024.0;

/// Marks a [`StateSpace`] slot that holds no state of the solve.
const NO_STATE: u32 = u32::MAX;

/// The dense state enumeration of one solve ([`MdpConfig::states`]
/// order), shared (via [`Arc`]) between the solver's flat tables and the
/// policies it returns. A state's dense index is read from a table over
/// the flat slots of its [`StateSpace::of`] shape, so lookups hash
/// nothing.
///
/// Derives the serde traits so [`Policy`]'s own derive stays valid under
/// the real `serde` too (which additionally needs its `rc` feature for the
/// `Arc` field; see `vendor/README.md`).
#[derive(Debug, Serialize, Deserialize)]
struct DenseStates {
    states: Vec<MdpState>,
    shape: StateSpace,
    /// Per slot of `shape`: the dense index of its state, or [`NO_STATE`].
    dense: Vec<u32>,
}

impl DenseStates {
    fn new(config: &MdpConfig) -> Result<Self, MdpError> {
        let states = config.states();
        let n = states.len();
        // Indices must fit a `u32` below the `NO_STATE` marker.
        if u32::try_from(n).is_err() {
            return Err(MdpError::InvalidSpace {
                states: n,
                missing: None,
            });
        }
        let shape = StateSpace::of(config);
        let mut dense = vec![NO_STATE; shape.len()];
        for (i, &s) in states.iter().enumerate() {
            let slot = shape.index(s.a, s.h, s.fork, s.match_d);
            match slot.and_then(|k| dense.get_mut(k)) {
                Some(d) if *d == NO_STATE => *d = i as u32,
                // Off the shape, or sharing a slot with another state.
                _ => {
                    return Err(MdpError::InvalidSpace {
                        states: n,
                        missing: Some(s),
                    })
                }
            }
        }
        Ok(DenseStates {
            states,
            shape,
            dense,
        })
    }

    /// The dense index of `s`, or `None` outside the space.
    fn get(&self, s: MdpState) -> Option<usize> {
        let slot = self.shape.index(s.a, s.h, s.fork, s.match_d)?;
        let i = *self.dense.get(slot)? as usize;
        // The shape projects coordinates the space does not carry (the
        // distance of a Bitcoin state, a distance beyond the cap), so
        // only the state stored at the slot is a match.
        (self.states.get(i) == Some(&s)).then_some(i)
    }
}

/// An optimal stationary policy: the best action per state.
///
/// Index-backed: actions are stored densely in state-enumeration order and
/// the state table is shared with the solver, so constructing and cloning
/// policies is cheap.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Policy {
    space: Arc<DenseStates>,
    actions: Vec<Action>,
}

impl Policy {
    /// The optimal action in `state` (`None` for states outside the
    /// truncated space).
    pub fn action(&self, state: MdpState) -> Option<Action> {
        self.space.get(state).map(|i| self.actions[i])
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
/// Collected on every [`MdpConfig::solve`]: one entry per ρ at which the
/// solver ran Q passes, in order — each policy-improvement pass, the
/// bracket probe sweep, every bisection midpoint evaluated by value
/// iteration, and the closing greedy pass. Recording is pure bookkeeping
/// over values the solver already computes, so the numerics (and
/// exported policy artifacts) are untouched.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct SolveStats {
    /// Halvings of the `[0, 2]` ρ bracket, whether their sign came from
    /// the certified bracket or from value iteration.
    pub bisection_steps: usize,
    /// Exact policy evaluations of the Dinkelbach policy iteration.
    pub policy_evaluations: usize,
    /// Q passes spent per ρ iterate (see the type's docs for the order).
    pub sweeps_per_iterate: Vec<usize>,
    /// Final Bellman-update span per ρ iterate: for an improvement or
    /// greedy pass from a policy's exact values, the largest gain any
    /// action offers over the policy's own; for value iteration, the
    /// span it converged (or sign-resolved) at.
    pub residuals: Vec<f64>,
    /// Iterates after the first that ran fewer Q passes than the first.
    /// Improvement, probe and greedy passes are one pass each, so this
    /// counts only value-iteration midpoints cheaper than a multi-pass
    /// first iterate and is mostly zero.
    pub warm_start_hits: usize,
    /// Bisection midpoints inside the certified bracket whose
    /// Bellman-update span fell below `tolerance` before the sandwich
    /// `min_d ≤ g ≤ max_d` cleared zero. Their sign is the sandwich
    /// midpoint's, which depends on the starting values; every other
    /// sign is certified. It is non-zero only when `|g|` at a midpoint is
    /// below the value tolerance, most plainly when ρ* is itself a
    /// bisection midpoint.
    pub unresolved_signs: usize,
}

impl SolveStats {
    fn record(&mut self, sweeps: usize, residual: f64) {
        if let Some(&first) = self.sweeps_per_iterate.first() {
            if sweeps < first {
                self.warm_start_hits += 1;
            }
        }
        self.sweeps_per_iterate.push(sweeps);
        self.residuals.push(residual);
    }

    /// Fraction of post-first iterates that beat the first iterate's
    /// sweep count; `0.0` for a solve with at most one iterate.
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
    /// Q passes run: improvement passes, Bellman sweeps and the closing
    /// greedy pass.
    pub iterations: usize,
    /// Per-iterate instrumentation of the solve.
    pub stats: SolveStats,
}

/// The transition table of a solve, compiled into state tiles.
///
/// States are cut into tiles of [`PARALLEL_GRAIN`] consecutive indices.
/// Inside a tile, every legal `(state, action)` pair owns one *slot*
/// (one entry of the `q` buffer) and one *row* (its outcomes):
///
/// - slots are numbered by [`StateGroup`]: states with the same action
///   count are stored together, each state's slots contiguous and in
///   action-enumeration order, so the max pass reads fixed-width runs;
/// - rows are stored by [`RowGroup`]: rows with the same outcome count
///   sit together as fixed-width `(prob, succ)` runs, each row's
///   outcomes in enumeration order, so the Q pass has no
///   data-dependent trip counts.
///
/// A tile's slots and rows are two orderings of the same pairs, so both
/// occupy the global range [`Tile::slots`]. Rewards are stored
/// *untransformed*; the ρ weighting happens in [`ExpandedMdp::fill_base`].
#[derive(Debug, Clone)]
struct ExpandedMdp {
    space: Arc<DenseStates>,
    /// The dense index of `(1, 0)`, where relative values are zero.
    ref_state: usize,
    tiles: Vec<Tile>,
    row_groups: Vec<RowGroup>,
    state_groups: Vec<StateGroup>,
    /// Per global slot: its action.
    actions: Vec<Action>,
    /// Per global slot: the first of its outcomes and their count.
    slot_outs: Vec<(usize, usize)>,
    /// Per global row: the tile-local slot its value lands in.
    row_slot: Vec<u32>,
    /// Per state-group entry: the tile-local state index.
    group_state: Vec<u32>,
    /// Per outcome, in row order: probability, successor state,
    /// attacker reward and normalization units.
    prob: Vec<f64>,
    succ: Vec<u32>,
    attacker_reward: Vec<f64>,
    units: Vec<f64>,
    levels: Levels,
}

/// One tile: the unit of a sweep, sequential or parallel. It writes only
/// its own states' entries and its own slots.
#[derive(Debug, Clone)]
struct Tile {
    states: Range<usize>,
    /// Global slot range, which is also the tile's global row range.
    slots: Range<usize>,
    row_groups: Range<usize>,
    state_groups: Range<usize>,
}

/// Rows with `width` outcomes each: global rows `rows`, whose outcomes
/// start at `out` (row `rows.start + r` owns `out + r·width ..`).
#[derive(Debug, Clone)]
struct RowGroup {
    width: usize,
    rows: Range<usize>,
    out: usize,
}

/// States with `arity` legal actions each: `group_state[states]`, whose
/// slots start at tile-local slot `slot` (`arity` per state, in order).
#[derive(Debug, Clone)]
struct StateGroup {
    arity: usize,
    states: Range<usize>,
    slot: usize,
}

/// The level structure behind exact policy evaluation: states ordered by
/// descending level `a + h`, and the landing states — every successor
/// that is not exactly one level above its predecessor.
#[derive(Debug, Clone, Default)]
struct Levels {
    /// State indices, highest level first.
    order: Vec<u32>,
    /// `order` ranges of the levels, highest first.
    bounds: Vec<Range<usize>>,
    /// Per state: its position within its level's range of `order`.
    pos: Vec<u32>,
    /// Per state: its landing index, or [`NO_STATE`].
    landing: Vec<u32>,
    /// The landing states, in state-index order.
    landing_states: Vec<u32>,
}

impl Levels {
    /// Order `space` by level (a counting sort, state order kept within a
    /// level) and number the states `is_landing` flags as landing states.
    fn new(space: &DenseStates, is_landing: &[bool]) -> Self {
        let level = |s: &MdpState| (s.a + s.h) as usize;
        let top = space.states.iter().map(level).max().unwrap_or(0);
        let mut count = vec![0usize; top + 1];
        for s in &space.states {
            count[top - level(s)] += 1;
        }
        let mut bounds = Vec::with_capacity(top + 1);
        let mut start = 0;
        for c in count {
            bounds.push(start..start + c);
            start += c;
        }
        let mut fill: Vec<usize> = bounds.iter().map(|b| b.start).collect();
        let (mut order, mut pos) = (
            vec![0u32; space.states.len()],
            vec![0u32; space.states.len()],
        );
        for (i, s) in space.states.iter().enumerate() {
            let l = top - level(s);
            order[fill[l]] = i as u32;
            pos[i] = (fill[l] - bounds[l].start) as u32;
            fill[l] += 1;
        }
        let mut landing = vec![NO_STATE; space.states.len()];
        let mut landing_states = Vec::new();
        for (i, _) in is_landing.iter().enumerate().filter(|(_, &l)| l) {
            landing[i] = landing_states.len() as u32;
            landing_states.push(i as u32);
        }
        Levels {
            order,
            bounds,
            pos,
            landing,
            landing_states,
        }
    }

    /// The number of states on the widest level.
    fn widest(&self) -> usize {
        self.bounds.iter().map(|b| b.len()).max().unwrap_or(0)
    }
}

/// The legal `(state, action)` pairs of the tile being compiled, in
/// enumeration order: tile-local state `j` owns pairs
/// `state_pairs[j]..state_pairs[j + 1]`, and pair `k` owns the outcomes
/// `pair_outs[k]..pair_outs[k + 1]` of `outs`, each as `(prob, successor,
/// attacker reward, units)`. Every buffer is reused from tile to tile, so
/// compiling a tile allocates only while a buffer still grows.
#[derive(Debug, Default)]
struct TilePairs {
    state_pairs: Vec<usize>,
    actions: Vec<Action>,
    pair_outs: Vec<usize>,
    outs: Vec<(f64, u32, f64, f64)>,
    /// The outcomes of the action being expanded.
    scratch: Vec<Outcome>,
    /// Tile-local slot → pair, filled by [`ExpandedMdp::push_tile`].
    slot_pair: Vec<usize>,
}

impl TilePairs {
    fn clear(&mut self) {
        self.state_pairs.clear();
        self.state_pairs.push(0);
        self.actions.clear();
        self.pair_outs.clear();
        self.pair_outs.push(0);
        self.outs.clear();
    }

    fn arity(&self, j: usize) -> usize {
        self.state_pairs[j + 1] - self.state_pairs[j]
    }

    fn width(&self, k: usize) -> usize {
        self.pair_outs[k + 1] - self.pair_outs[k]
    }

    /// Append every legal action of `s` with its outcomes, flagging in
    /// `is_landing` every successor not exactly one level above `s`.
    fn push_state(
        &mut self,
        config: &MdpConfig,
        space: &DenseStates,
        s: MdpState,
        is_landing: &mut [bool],
    ) -> Result<(), MdpError> {
        let first = self.actions.len();
        config.push_legal_actions(s, &mut self.actions);
        debug_assert!(self.actions.len() > first, "state {s} has no legal action");
        for k in first..self.actions.len() {
            expand_row(config, s, self.actions[k], &mut self.scratch);
            for o in &self.scratch {
                let Some(j) = space.get(o.next) else {
                    return Err(MdpError::InvalidSpace {
                        states: space.states.len(),
                        missing: Some(o.next),
                    });
                };
                if o.next.a + o.next.h != s.a + s.h + 1 {
                    is_landing[j] = true;
                }
                // `DenseStates::new` checked that every index fits a `u32`.
                let u = units_of(config.scenario, o);
                self.outs.push((o.prob, j as u32, o.attacker_reward, u));
            }
            self.pair_outs.push(self.outs.len());
        }
        self.state_pairs.push(self.actions.len());
        Ok(())
    }
}

/// Replace `row` with the outcomes of `action` in `s`, in enumeration
/// order: the one expansion of a row that [`ExpandedMdp::build`] and
/// [`ExpandedMdp::refill`] share.
fn expand_row(config: &MdpConfig, s: MdpState, action: Action, row: &mut Vec<Outcome>) {
    row.clear();
    config.push_outcomes(s, action, row);
    // Every row is a probability distribution; the delay-aware race
    // folding (win/loss branch splits, effective-γ scaling) makes silent
    // mass leakage easy, so rows are validated as they are expanded.
    debug_assert!(
        (row.iter().map(|o| o.prob).sum::<f64>() - 1.0).abs() < 1e-12,
        "transition row ({s}, {action:?}) leaks probability mass"
    );
}

/// An outcome's normalization units under `scenario`: its regular blocks,
/// plus its uncle blocks in Scenario 2.
fn units_of(scenario: Scenario, o: &Outcome) -> f64 {
    match scenario {
        Scenario::RegularRate => o.regular,
        Scenario::RegularPlusUncleRate => o.regular + o.uncles,
    }
}

/// Reusable buffers of one solve, retained across every policy
/// evaluation, improvement pass and ρ candidate. A Q pass allocates
/// nothing.
#[derive(Debug)]
struct ValueWorkspace {
    /// The values the next Q pass reads.
    v: Vec<f64>,
    next_v: Vec<f64>,
    /// Per row: expected transformed reward at the current ρ,
    /// `base[k] = Σ_t prob[t]·(r[t] − ρ·units[t])`. Computed once per
    /// ρ, so the hot sweep loop streams only `prob`/`succ` and the value
    /// function.
    base: Vec<f64>,
    /// Per slot: the action value `Q(s, a)` of the current pass.
    q: Vec<f64>,
    /// Per state: the global slot of the current policy's action.
    choice: Vec<usize>,
    /// The current policy's exact relative values of rewards and units.
    h_r: Vec<f64>,
    h_u: Vec<f64>,
    /// Two level slabs of reduced coefficients (see
    /// [`ExpandedMdp::evaluate`]).
    slab: Vec<f64>,
    upper: Vec<f64>,
    /// The dense landing system, row-major, and its two right-hand sides.
    system: Vec<f64>,
    rhs_r: Vec<f64>,
    rhs_u: Vec<f64>,
}

impl ValueWorkspace {
    fn new(mdp: &ExpandedMdp) -> Self {
        let (n, m) = (mdp.len(), mdp.levels.landing_states.len());
        let slab = mdp.levels.widest() * (m + SLAB_SCALARS);
        ValueWorkspace {
            v: vec![0.0; n],
            next_v: vec![0.0; n],
            base: Vec::new(),
            q: vec![0.0; mdp.actions.len()],
            choice: vec![0; n],
            h_r: vec![0.0; n],
            h_u: vec![0.0; n],
            slab: vec![0.0; slab],
            upper: vec![0.0; slab],
            system: vec![0.0; (m + 1) * (m + 1)],
            rhs_r: vec![0.0; m + 1],
            rhs_u: vec![0.0; m + 1],
        }
    }

    /// Q values of `v` that differ by no more than this are tied: the
    /// rounding headroom [`ROUNDING_ULPS`] of the values' scale.
    fn rounding_margin(&self) -> f64 {
        let scale = self.v.iter().fold(1.0f64, |m, v| m.max(1.0 + v.abs()));
        ROUNDING_ULPS * f64::EPSILON * scale
    }

    /// `v ← h_r − ρ·h_u`: the current policy's exact relative values of
    /// the transformed reward at `rho`.
    fn values_at(&mut self, rho: f64) {
        for ((v, &r), &u) in self.v.iter_mut().zip(&self.h_r).zip(&self.h_u) {
            *v = r - rho * u;
        }
    }
}

/// Per slab row, after the `m` landing coefficients: expected reward,
/// expected units and expected steps up to the next landing.
const SLAB_SCALARS: usize = 3;

/// A cross-solve cache for parameter sweeps: the last solve's policy and
/// its expanded transition table.
///
/// A sweep over a model axis (α, γ, or the delay axis of a delay-aware
/// study) moves the optimal policy little from one point to the next, so
/// [`MdpConfig::solve_with_cache`] starts its policy iteration from the
/// previous solve's policy; a warm solve then needs one or two policy
/// evaluations. The axis also leaves the table's layout alone (states,
/// actions, successors, tiles), so a warm solve refills only the
/// probabilities, rewards and units of the kept expansion in place,
/// checking every action, row width and successor against it. The policy
/// is used only when the state count matches, and the expansion only
/// when the layout does; otherwise the solve starts from honest mining
/// or expands afresh, so sweeping mixed truncations, reward models or
/// zero and positive γ and delay through one cache is safe.
#[derive(Debug, Clone, Default)]
pub struct ValueCache {
    actions: Vec<Action>,
    /// The last solve's expansion, refilled by the next solve. Boxed, so
    /// a cache embedded in a caller's type adds one pointer for it.
    mdp: Option<Box<ExpandedMdp>>,
}

impl ValueCache {
    /// An empty cache; the first solve through it starts cold.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Buffers that a sweep cuts into per-tile pieces: one slice, or a pair.
trait TileCut: Send + Sized {
    /// Split off the first `len` entries.
    fn cut(&mut self, len: usize) -> Self;
}

impl<T: Send> TileCut for &mut [T] {
    fn cut(&mut self, len: usize) -> Self {
        let (head, rest) = std::mem::take(self).split_at_mut(len);
        *self = rest;
        head
    }
}

impl<A: TileCut, B: TileCut> TileCut for (A, B) {
    fn cut(&mut self, len: usize) -> Self {
        (self.0.cut(len), self.1.cut(len))
    }
}

/// One ρ candidate's relative value iteration.
struct Iterate {
    /// The sandwich midpoint `(min_d + max_d) / 2`, an estimate of `g(ρ)`.
    gain: f64,
    sweeps: usize,
    /// The terminating sweep's Bellman-update span.
    span: f64,
    /// Whether the sandwich cleared zero, which fixes the sign of `g(ρ)`.
    certified: bool,
}

impl ExpandedMdp {
    /// Expand `config`'s transition table: enumerate and index the states,
    /// compile every legal `(state, action)`'s outcomes into tiles, and
    /// order the states by level for exact policy evaluation.
    fn build(config: &MdpConfig) -> Result<Self, MdpError> {
        let space = Arc::new(DenseStates::new(config)?);
        let n = space.states.len();
        let origin = MdpState::new(1, 0, Fork::Irrelevant);
        let ref_state = space.get(origin).ok_or(MdpError::InvalidSpace {
            states: n,
            missing: Some(origin),
        })?;
        let mut mdp = ExpandedMdp {
            space: Arc::clone(&space),
            ref_state,
            tiles: Vec::with_capacity(n.div_ceil(PARALLEL_GRAIN)),
            row_groups: Vec::new(),
            state_groups: Vec::new(),
            actions: Vec::new(),
            slot_outs: Vec::new(),
            row_slot: Vec::new(),
            group_state: Vec::with_capacity(n),
            prob: Vec::new(),
            succ: Vec::new(),
            attacker_reward: Vec::new(),
            units: Vec::new(),
            levels: Levels::default(),
        };
        let mut pairs = TilePairs::default();
        let mut is_landing = vec![false; n];
        for first in (0..n).step_by(PARALLEL_GRAIN) {
            let states = first..n.min(first + PARALLEL_GRAIN);
            pairs.clear();
            for &s in &space.states[states.clone()] {
                pairs.push_state(config, &space, s, &mut is_landing)?;
            }
            mdp.push_tile(states, &mut pairs);
        }
        // Adopting always lands on `(1, 0)`, so it is a landing state and
        // can carry the evaluation's normalisation.
        if !is_landing[ref_state] {
            return Err(MdpError::InvalidSpace {
                states: n,
                missing: Some(origin),
            });
        }
        mdp.levels = Levels::new(&space, &is_landing);
        // A `ValueCache` keeps the expansion between solves, so return the
        // capacity `push_tile` reserved beyond the final lengths.
        for v in [&mut mdp.prob, &mut mdp.attacker_reward, &mut mdp.units] {
            v.shrink_to_fit();
        }
        mdp.succ.shrink_to_fit();
        mdp.actions.shrink_to_fit();
        mdp.slot_outs.shrink_to_fit();
        mdp.row_slot.shrink_to_fit();
        Ok(mdp)
    }

    /// Refill the probabilities, rewards and units for `config` in place,
    /// keeping every index, tile, group and level, and return whether the
    /// layout still fits: the same state space, and per state the same
    /// actions, row widths and successors. The tiles are walked in slot
    /// order; the first mismatch returns `false` and leaves the expansion
    /// half-refilled, to be dropped for a fresh [`ExpandedMdp::build`].
    /// Pruning zero-probability outcomes changes row widths as γ reaches
    /// 0 or 1, or the delay leaves or reaches zero.
    fn refill(&mut self, config: &MdpConfig) -> bool {
        let ExpandedMdp {
            space,
            tiles,
            state_groups,
            group_state,
            actions,
            slot_outs,
            prob,
            succ,
            attacker_reward,
            units,
            ..
        } = self;
        if space.shape != StateSpace::of(config) {
            return false;
        }
        let (mut legal, mut row) = (Vec::new(), Vec::new());
        for tile in tiles.iter() {
            for g in &state_groups[tile.state_groups.clone()] {
                for (j, &s) in group_state[g.states.clone()].iter().enumerate() {
                    let state = space.states[tile.states.start + s as usize];
                    legal.clear();
                    config.push_legal_actions(state, &mut legal);
                    let first = tile.slots.start + g.slot + j * g.arity;
                    let slots = first..first + g.arity;
                    if legal[..] != actions[slots.clone()] {
                        return false;
                    }
                    for (slot, &action) in slots.zip(&legal) {
                        expand_row(config, state, action, &mut row);
                        let (out, width) = slot_outs[slot];
                        if row.len() != width {
                            return false;
                        }
                        for (t, o) in (out..).zip(&row) {
                            if space.states[succ[t] as usize] != o.next {
                                return false;
                            }
                            prob[t] = o.prob;
                            attacker_reward[t] = o.attacker_reward;
                            units[t] = units_of(config.scenario, o);
                        }
                    }
                }
            }
        }
        true
    }

    /// Append one tile: number its slots by state group (ascending action
    /// count, states in index order), then lay its rows out by row group
    /// (ascending outcome count, rows in slot order). Counts are small,
    /// so each group is one filtered pass instead of a sort.
    fn push_tile(&mut self, states: Range<usize>, pairs: &mut TilePairs) {
        if self.tiles.is_empty() {
            // Size the flat arrays from the first tile's density, so they
            // are not regrown (and copied) tile after tile; capacity
            // beyond the final length is never touched.
            let tiles = self.len().div_ceil(states.len());
            let (slots, outs) = (pairs.actions.len() * tiles, pairs.outs.len() * tiles);
            self.actions.reserve(slots);
            self.slot_outs.reserve(slots);
            self.row_slot.reserve(slots);
            self.prob.reserve(outs);
            self.succ.reserve(outs);
            self.attacker_reward.reserve(outs);
            self.units.reserve(outs);
        }
        let slot_start = self.actions.len();
        let state_groups_start = self.state_groups.len();
        let mut slot_pair = std::mem::take(&mut pairs.slot_pair);
        slot_pair.clear();
        let max_arity = (0..states.len()).map(|j| pairs.arity(j)).max();
        for arity in 0..=max_arity.unwrap_or(0) {
            let (first, slot) = (self.group_state.len(), slot_pair.len());
            for j in (0..states.len()).filter(|&j| pairs.arity(j) == arity) {
                self.group_state.push(j as u32);
                for k in pairs.state_pairs[j]..pairs.state_pairs[j + 1] {
                    self.actions.push(pairs.actions[k]);
                    slot_pair.push(k);
                }
            }
            if self.group_state.len() > first {
                self.state_groups.push(StateGroup {
                    arity,
                    states: first..self.group_state.len(),
                    slot,
                });
            }
        }

        let row_groups_start = self.row_groups.len();
        self.slot_outs.resize(self.actions.len(), (0, 0));
        let max_width = slot_pair.iter().map(|&k| pairs.width(k)).max();
        for width in 0..=max_width.unwrap_or(0) {
            let (first, out) = (self.row_slot.len(), self.prob.len());
            for (slot, &k) in slot_pair.iter().enumerate() {
                if pairs.width(k) != width {
                    continue;
                }
                self.row_slot.push(slot as u32);
                self.slot_outs[slot_start + slot] = (self.prob.len(), width);
                let outs = &pairs.outs[pairs.pair_outs[k]..pairs.pair_outs[k + 1]];
                self.prob.extend(outs.iter().map(|o| o.0));
                self.succ.extend(outs.iter().map(|o| o.1));
                self.attacker_reward.extend(outs.iter().map(|o| o.2));
                self.units.extend(outs.iter().map(|o| o.3));
            }
            if self.row_slot.len() > first {
                self.row_groups.push(RowGroup {
                    width,
                    rows: first..self.row_slot.len(),
                    out,
                });
            }
        }
        pairs.slot_pair = slot_pair;
        self.tiles.push(Tile {
            states,
            slots: slot_start..self.actions.len(),
            row_groups: row_groups_start..self.row_groups.len(),
            state_groups: state_groups_start..self.state_groups.len(),
        });
    }

    fn len(&self) -> usize {
        self.space.states.len()
    }

    /// Point every state's `choice` at its slot for `actions[state]`, or
    /// at its first slot where `actions` is absent or names an action
    /// not legal there. The first legal action is override when ahead and
    /// adopt otherwise: honest mining.
    fn init_choice(&self, actions: Option<&[Action]>, choice: &mut [usize]) {
        for tile in &self.tiles {
            for g in &self.state_groups[tile.state_groups.clone()] {
                let states = &self.group_state[g.states.clone()];
                for (j, &s) in states.iter().enumerate() {
                    let s = tile.states.start + s as usize;
                    let first = tile.slots.start + g.slot + j * g.arity;
                    let wanted = actions.map(|a| a[s]);
                    choice[s] = (first..first + g.arity)
                        .find(|&k| Some(self.actions[k]) == wanted)
                        .unwrap_or(first);
                }
            }
        }
    }

    /// Refill `base[k] = Σ_t prob[t]·(r[t] − ρ·units[t])` for every row —
    /// the reward half of the Bellman backup, hoisted out of the sweep
    /// loop. One `O(nnz)` pass per ρ buys every subsequent Q pass a
    /// multiply-add per outcome and halves the arrays the hot loop
    /// streams.
    fn fill_base(&self, rho: f64, base: &mut Vec<f64>) {
        base.clear();
        for g in &self.row_groups {
            base.extend((0..g.rows.len()).map(|r| {
                let first = g.out + r * g.width;
                let mut b = 0.0;
                for t in first..first + g.width {
                    b += self.prob[t] * (self.attacker_reward[t] - rho * self.units[t]);
                }
                b
            }));
        }
    }

    /// Evaluate the policy `ws.choice` exactly: fill `ws.h_r` and
    /// `ws.h_u` with its relative values of rewards and of units (zero at
    /// `(1, 0)`) and return its gains `(g_r, g_u)`, whose ratio is `ρ(π)`.
    ///
    /// Walking the levels from the top, each state's row of the current
    /// slab holds its expected reward, units and steps until the chain
    /// first lands, and the probability of landing on each landing state:
    /// a landing successor adds its probability to its own coefficient,
    /// any other successor is one level up and adds its reduced row of
    /// the slab above. A landing state's row is its equation in the dense
    /// system `h(L) = R − g·T + Σ_K c_K·h(K)`, closed by `h(1, 0) = 0`;
    /// one LU solve gives the landing values and the gains for rewards and
    /// units at once, and `h = r − g + P·h` back-substitutes every other
    /// state, level by level from the top.
    ///
    /// # Errors
    ///
    /// [`MdpError::SingularEvaluation`] if the dense system has a zero
    /// pivot, which no unichain policy produces.
    fn evaluate(&self, ws: &mut ValueWorkspace) -> Result<(f64, f64), MdpError> {
        let ValueWorkspace {
            choice,
            h_r,
            h_u,
            slab,
            upper,
            system,
            rhs_r,
            rhs_u,
            ..
        } = ws;
        let levels = &self.levels;
        let m = levels.landing_states.len();
        let (stride, k) = (m + SLAB_SCALARS, m + 1);
        for bounds in &levels.bounds {
            std::mem::swap(slab, upper);
            for (j, &s) in levels.order[bounds.clone()].iter().enumerate() {
                let s = s as usize;
                let row = &mut slab[j * stride..(j + 1) * stride];
                row.fill(0.0);
                let (out, width) = self.slot_outs[choice[s]];
                let outs = out..out + width;
                for t in outs.clone() {
                    row[m] += self.prob[t] * self.attacker_reward[t];
                    row[m + 1] += self.prob[t] * self.units[t];
                }
                row[m + 2] = 1.0;
                for t in outs {
                    let (p, next) = (self.prob[t], self.succ[t] as usize);
                    match levels.landing[next] {
                        NO_STATE => {
                            let above = levels.pos[next] as usize * stride;
                            for (x, &y) in row.iter_mut().zip(&upper[above..above + stride]) {
                                *x += p * y;
                            }
                        }
                        l => row[l as usize] += p,
                    }
                }
                let i = levels.landing[s];
                if i != NO_STATE {
                    let i = i as usize;
                    let eq = &mut system[i * k..(i + 1) * k];
                    for (a, &c) in eq.iter_mut().zip(&row[..m]) {
                        *a = -c;
                    }
                    eq[i] += 1.0;
                    eq[m] = row[m + 2];
                    (rhs_r[i], rhs_u[i]) = (row[m], row[m + 1]);
                }
            }
        }
        let eq = &mut system[m * k..];
        eq.fill(0.0);
        eq[levels.landing[self.ref_state] as usize] = 1.0;
        (rhs_r[m], rhs_u[m]) = (0.0, 0.0);
        solve_dense(system, k, rhs_r, rhs_u)?;

        for (&s, (&r, &u)) in levels.landing_states.iter().zip(rhs_r.iter().zip(&*rhs_u)) {
            (h_r[s as usize], h_u[s as usize]) = (r, u);
        }
        let (gain_r, gain_u) = (rhs_r[m], rhs_u[m]);
        for &s in &levels.order {
            let s = s as usize;
            if levels.landing[s] != NO_STATE {
                continue;
            }
            let (out, width) = self.slot_outs[choice[s]];
            let (mut r, mut u) = (-gain_r, -gain_u);
            for t in out..out + width {
                let next = self.succ[t] as usize;
                r += self.prob[t] * (self.attacker_reward[t] + h_r[next]);
                u += self.prob[t] * (self.units[t] + h_u[next]);
            }
            (h_r[s], h_u[s]) = (r, u);
        }
        Ok((gain_r, gain_u))
    }

    /// The Q pass of one tile: `q[slot] = base[row] + Σ_j p_j·v[s_j]`
    /// for every row, summed in outcome-enumeration order. Widths 1–4
    /// run with a compile-time trip count.
    fn tile_q(&self, tile: &Tile, base: &[f64], v: &[f64], q: &mut [f64]) {
        for g in &self.row_groups[tile.row_groups.clone()] {
            let outs = g.out..g.out + g.rows.len() * g.width;
            let (base, slot) = (&base[g.rows.clone()], &self.row_slot[g.rows.clone()]);
            let (prob, succ) = (&self.prob[outs.clone()], &self.succ[outs]);
            match g.width {
                1 => q_rows::<1>(base, slot, prob, succ, v, q),
                2 => q_rows::<2>(base, slot, prob, succ, v, q),
                3 => q_rows::<3>(base, slot, prob, succ, v, q),
                4 => q_rows::<4>(base, slot, prob, succ, v, q),
                width => q_rows_wide(width, base, slot, prob, succ, v, q),
            }
        }
    }

    /// The max pass of one tile with the winning slot: for every state,
    /// the first strictly greatest of its slots (`q > best` from `−∞`, in
    /// action order). `sink(local_state, best, slot)` receives the
    /// tile-local state, the value and the tile-local slot of the winner
    /// (`None` if no value beats `−∞`). Action counts 1–4 run with a
    /// compile-time trip count.
    #[inline]
    fn tile_best(&self, tile: &Tile, q: &[f64], mut sink: impl FnMut(usize, f64, Option<usize>)) {
        for g in &self.state_groups[tile.state_groups.clone()] {
            let states = &self.group_state[g.states.clone()];
            let q = &q[g.slot..g.slot + states.len() * g.arity];
            match g.arity {
                1 => best_rows::<1>(states, q, g.slot, &mut sink),
                2 => best_rows::<2>(states, q, g.slot, &mut sink),
                3 => best_rows::<3>(states, q, g.slot, &mut sink),
                4 => best_rows::<4>(states, q, g.slot, &mut sink),
                arity => {
                    for (j, &s) in states.iter().enumerate() {
                        let (best, arg) = first_max(&q[j * arity..(j + 1) * arity]);
                        sink(s as usize, best, arg.map(|a| g.slot + j * arity + a));
                    }
                }
            }
        }
    }

    /// Run `f(tile, q.cut(tile.slots), out.cut(tile.states))` for every
    /// tile, in parallel when the space is large enough. `q` and `out`
    /// are per-slot and per-state buffers (or pairs of them). Workers
    /// claim whole tiles from an atomic counter, the claiming rule of the
    /// workspace work queue (`seleth_obs::sched`), so heterogeneous
    /// per-state costs (the action fan-out varies across the space) stay
    /// load-balanced at truncation 200+. Tiles write disjoint ranges and
    /// never share arithmetic, so the result is deterministic for any
    /// `threads`; each tile's pieces sit behind an uncontended mutex
    /// purely to hand them across threads. This is the one queue kept
    /// outside `seleth_obs::sched`: it refills preallocated buffers in
    /// place on every Bellman sweep, where a `Vec`-returning map would
    /// allocate once per sweep.
    fn for_each_tile<Q: TileCut, O: TileCut>(
        &self,
        mut q: Q,
        mut out: O,
        threads: usize,
        f: impl Fn(&Tile, Q, O) + Sync,
    ) {
        let tiles = self
            .tiles
            .iter()
            .map(|tile| (tile, q.cut(tile.slots.len()), out.cut(tile.states.len())));
        let threads = threads.min(self.tiles.len());
        if threads <= 1 || self.len() < PARALLEL_MIN_STATES {
            for (tile, tile_q, tile_out) in tiles {
                f(tile, tile_q, tile_out);
            }
            return;
        }
        let tiles: Vec<Mutex<Option<_>>> = tiles.map(|t| Mutex::new(Some(t))).collect();
        let next = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..threads {
                let (tiles, next, f) = (&tiles, &next, &f);
                scope.spawn(move || loop {
                    let k = next.fetch_add(1, Ordering::Relaxed);
                    let Some(tile) = tiles.get(k) else { break };
                    // Each tile is claimed exactly once, and a worker's
                    // panic resurfaces when the scope joins, so recovering
                    // a poisoned guard never exposes a half-written tile.
                    let piece = tile.lock().unwrap_or_else(PoisonError::into_inner).take();
                    if let Some((tile, tile_q, tile_out)) = piece {
                        f(tile, tile_q, tile_out);
                    }
                });
            }
        });
    }

    /// One Bellman sweep, `next_v[i] = max_a Q(i, a)` from `ws.base` and
    /// `ws.v`, then `v ← next_v − next_v(1, 0)`. Returns the update range
    /// `(min_d, max_d)` of `next_v − v`, reduced on this thread whatever
    /// the sweep's thread count: the sandwich `min_d ≤ g ≤ max_d` of the
    /// optimal gain at the filled ρ.
    fn sweep(&self, ws: &mut ValueWorkspace, threads: usize) -> (f64, f64) {
        let ValueWorkspace {
            v, next_v, base, q, ..
        } = ws;
        let (v_in, base) = (&*v, &*base);
        self.for_each_tile(&mut q[..], &mut next_v[..], threads, |tile, q, next_v| {
            self.tile_q(tile, base, v_in, q);
            self.tile_best(tile, q, |s, best, _| next_v[s] = best);
        });
        let range = update_range(next_v, v);
        let offset = next_v[self.ref_state];
        for (v, &next) in v.iter_mut().zip(&*next_v) {
            *v = next - offset;
        }
        range
    }

    /// The sign of the optimal average transformed reward `g(ρ)` by
    /// relative value iteration from `ws.v`.
    ///
    /// Every sweep's Bellman-update differences bound the optimal gain
    /// (`min_d ≤ g ≤ max_d`, the classic value-iteration sandwich for
    /// unichain MDPs), so iteration stops as soon as the whole interval
    /// clears zero, which certifies the sign, or once the span falls below
    /// `tolerance`, leaving the sign of the sandwich midpoint uncertified.
    fn optimal_average(
        &self,
        rho: f64,
        tolerance: f64,
        threads: usize,
        ws: &mut ValueWorkspace,
    ) -> Result<Iterate, MdpError> {
        self.fill_base(rho, &mut ws.base);
        for sweeps in 1..=MAX_SWEEPS {
            let (min_d, max_d) = self.sweep(ws, threads);
            let certified = min_d > 0.0 || max_d < 0.0;
            if certified || max_d - min_d < tolerance {
                return Ok(Iterate {
                    gain: 0.5 * (max_d + min_d),
                    sweeps,
                    span: max_d - min_d,
                    certified,
                });
            }
        }
        // The caller widens `rho_lo`/`rho_hi` to its live bisection
        // bracket; here only the failing candidate is known.
        Err(MdpError::NoConvergence {
            rho_lo: rho,
            rho_hi: rho,
            sweeps: MAX_SWEEPS,
        })
    }

    /// One policy-improvement pass over `ws.v` and `ws.base`: a state
    /// switches `ws.choice` to its first strictly greatest action only if
    /// that beats its current action by more than `margin`. Writes every
    /// state's greatest Q value to `ws.next_v` and returns how many
    /// states switched.
    fn improve(&self, ws: &mut ValueWorkspace, margin: f64, threads: usize) -> usize {
        let ValueWorkspace {
            v,
            next_v,
            base,
            q,
            choice,
            ..
        } = ws;
        let (v, base) = (&*v, &*base);
        let switched = AtomicUsize::new(0);
        let states = (&mut next_v[..], &mut choice[..]);
        self.for_each_tile(&mut q[..], states, threads, |tile, q, (next_v, choice)| {
            self.tile_q(tile, base, v, q);
            let (q, slots, mut count) = (&*q, tile.slots.start, 0);
            self.tile_best(tile, q, |s, best, slot| {
                next_v[s] = best;
                match slot {
                    Some(k) if best > q[choice[s] - slots] + margin => {
                        choice[s] = slots + k;
                        count += 1;
                    }
                    _ => {}
                }
            });
            switched.fetch_add(count, Ordering::Relaxed);
        });
        switched.into_inner()
    }

    /// The greedy policy over `ws.v` and `ws.base`: per state, the first
    /// action (in enumeration order) whose Q value is within `margin` of
    /// the greatest, so an exact tie breaks by action order whatever the
    /// rounding, in every tiling. Every state's greatest Q value lands in
    /// `ws.next_v`.
    fn greedy_policy(&self, ws: &mut ValueWorkspace, margin: f64, threads: usize) -> Vec<Action> {
        let mut policy = vec![Action::Adopt; self.len()];
        let ValueWorkspace {
            v, next_v, base, q, ..
        } = ws;
        let (v, base) = (&*v, &*base);
        let states = (&mut next_v[..], &mut policy[..]);
        self.for_each_tile(&mut q[..], states, threads, |tile, q, (next_v, policy)| {
            self.tile_q(tile, base, v, q);
            for g in &self.state_groups[tile.state_groups.clone()] {
                for (j, &s) in self.group_state[g.states.clone()].iter().enumerate() {
                    let first = g.slot + j * g.arity;
                    let row = &q[first..first + g.arity];
                    let (best, _) = first_max(row);
                    next_v[s as usize] = best;
                    if let Some(k) = row.iter().position(|&x| x >= best - margin) {
                        policy[s as usize] = self.actions[tile.slots.start + first + k];
                    }
                }
            }
        });
        policy
    }
}

/// Solve `a·x = b` in place for the two right-hand sides `b_r`, `b_u`:
/// Gaussian elimination with partial pivoting on the row-major `k × k`
/// matrix `a`, then back substitution.
fn solve_dense(a: &mut [f64], k: usize, b_r: &mut [f64], b_u: &mut [f64]) -> Result<(), MdpError> {
    for col in 0..k {
        let pivot = (col..k)
            .max_by(|&x, &y| a[x * k + col].abs().total_cmp(&a[y * k + col].abs()))
            .unwrap_or(col);
        let p = a[pivot * k + col];
        if !(p.abs() > 0.0 && p.is_finite()) {
            return Err(MdpError::SingularEvaluation {
                pivot: col,
                size: k,
            });
        }
        if pivot != col {
            for j in col..k {
                a.swap(pivot * k + j, col * k + j);
            }
            b_r.swap(pivot, col);
            b_u.swap(pivot, col);
        }
        let (head, tail) = a.split_at_mut((col + 1) * k);
        let pivot_row = &head[col * k + col..col * k + k];
        for (r, row) in tail.chunks_exact_mut(k).enumerate() {
            let f = row[col] / p;
            if f == 0.0 {
                continue;
            }
            for (x, &y) in row[col..].iter_mut().zip(pivot_row) {
                *x -= f * y;
            }
            b_r[col + 1 + r] -= f * b_r[col];
            b_u[col + 1 + r] -= f * b_u[col];
        }
    }
    for col in (0..k).rev() {
        let row = &a[col * k..(col + 1) * k];
        let (mut r, mut u) = (b_r[col], b_u[col]);
        for j in col + 1..k {
            r -= row[j] * b_r[j];
            u -= row[j] * b_u[j];
        }
        b_r[col] = r / row[col];
        b_u[col] = u / row[col];
    }
    Ok(())
}

/// The Q pass over rows of exactly `W` outcomes.
#[inline]
fn q_rows<const W: usize>(
    base: &[f64],
    slot: &[u32],
    prob: &[f64],
    succ: &[u32],
    v: &[f64],
    q: &mut [f64],
) {
    let (prob, _) = prob.as_chunks::<W>();
    let (succ, _) = succ.as_chunks::<W>();
    for (((&b, &k), p), s) in base.iter().zip(slot).zip(prob).zip(succ) {
        let mut acc = b;
        for j in 0..W {
            acc += p[j] * v[s[j] as usize];
        }
        q[k as usize] = acc;
    }
}

/// The Q pass over rows of a width known only at run time.
fn q_rows_wide(
    width: usize,
    base: &[f64],
    slot: &[u32],
    prob: &[f64],
    succ: &[u32],
    v: &[f64],
    q: &mut [f64],
) {
    for (r, (&b, &k)) in base.iter().zip(slot).enumerate() {
        let mut acc = b;
        for t in r * width..(r + 1) * width {
            acc += prob[t] * v[succ[t] as usize];
        }
        q[k as usize] = acc;
    }
}

/// The max pass over states of exactly `C` actions.
#[inline]
fn best_rows<const C: usize>(
    states: &[u32],
    q: &[f64],
    slot: usize,
    sink: &mut impl FnMut(usize, f64, Option<usize>),
) {
    let (rows, _) = q.as_chunks::<C>();
    for (j, (&s, row)) in states.iter().zip(rows).enumerate() {
        let (best, arg) = first_max(row);
        sink(s as usize, best, arg.map(|a| slot + j * C + a));
    }
}

/// `(min, max)` of `next[i] − v[i]`, bit-identical to the sequential
/// `f64::min`/`f64::max` fold in index order (from `±∞`). Four
/// interleaved accumulators break that fold's dependency chain. Regrouping
/// cannot change which value is extreme, since `min`/`max` skip NaNs and
/// equal non-zero floats share their bits; it can only change which
/// signed zero wins a tie, so an extreme of exactly zero is recomputed in
/// index order.
fn update_range(next: &[f64], v: &[f64]) -> (f64, f64) {
    let (next4, next_rest) = next.as_chunks::<4>();
    let (v4, v_rest) = v.as_chunks::<4>();
    let mut lo = [f64::INFINITY; 4];
    let mut hi = [f64::NEG_INFINITY; 4];
    for (n, x) in next4.iter().zip(v4) {
        for l in 0..4 {
            let d = n[l] - x[l];
            lo[l] = lo[l].min(d);
            hi[l] = hi[l].max(d);
        }
    }
    for (&n, &x) in next_rest.iter().zip(v_rest) {
        lo[0] = lo[0].min(n - x);
        hi[0] = hi[0].max(n - x);
    }
    let min = lo[0].min(lo[1]).min(lo[2].min(lo[3]));
    let max = hi[0].max(hi[1]).max(hi[2].max(hi[3]));
    if min != 0.0 && max != 0.0 {
        return (min, max);
    }
    next.iter().zip(v).fold(
        (f64::INFINITY, f64::NEG_INFINITY),
        |(min, max), (&n, &x)| (min.min(n - x), max.max(n - x)),
    )
}

/// The first strictly greatest value of `q` and its position, starting
/// from `−∞` (`None` if nothing beats it).
#[inline]
fn first_max(q: &[f64]) -> (f64, Option<usize>) {
    let mut best = f64::NEG_INFINITY;
    let mut arg = None;
    for (a, &x) in q.iter().enumerate() {
        if x > best {
            best = x;
            arg = Some(a);
        }
    }
    (best, arg)
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
    /// The transition table is expanded once. Dinkelbach policy iteration
    /// with exact policy evaluation finds a policy with `ρ(π) = ρ*`, whose
    /// values certify the sign of `g` at every bisection midpoint outside
    /// a narrow bracket around it; the `[0, 2]` bisection is replayed from
    /// those signs, evaluating by relative value iteration only the
    /// midpoints inside the bracket. The reported policy is the greedy
    /// policy at the solved revenue.
    ///
    /// # Errors
    ///
    /// - [`MdpError::InvalidAlpha`] / [`MdpError::InvalidGamma`] /
    ///   [`MdpError::InvalidTolerance`] for bad parameters;
    /// - [`MdpError::NoConvergence`] if value iteration stalls, or policy
    ///   iteration or the bisection exhausts its step budget; the error
    ///   carries the ρ bracket reached and the Q passes spent;
    /// - [`MdpError::SingularEvaluation`] if a policy's exact evaluation
    ///   meets a zero pivot.
    pub fn solve(&self) -> Result<Solution, MdpError> {
        self.solve_from(None)
    }

    /// [`MdpConfig::solve`], started from (and refreshing) a cross-solve
    /// [`ValueCache`]: policy iteration starts from the cached policy when
    /// its state count matches, and the cached expansion is refilled in
    /// place when its layout fits; otherwise the solve starts from honest
    /// mining or expands afresh. Either way the solved policy and the
    /// expansion are stored back.
    ///
    /// A refilled expansion holds the same values in the same order as a
    /// fresh one, so it moves no bit. The starting policy changes how many
    /// evaluations the solve takes, not the revenue bits: the bisection's
    /// signs are certified whatever the start, unless a midpoint's sign
    /// could not be ([`SolveStats::unresolved_signs`]); the revenue then
    /// stays within `rho_tolerance` of the cold solve's.
    ///
    /// # Errors
    ///
    /// As [`MdpConfig::solve`].
    pub fn solve_with_cache(&self, cache: &mut ValueCache) -> Result<Solution, MdpError> {
        self.solve_from(Some(cache))
    }

    /// The solve behind [`MdpConfig::solve`] (`cache = None`) and
    /// [`MdpConfig::solve_with_cache`].
    fn solve_from(&self, mut cache: Option<&mut ValueCache>) -> Result<Solution, MdpError> {
        self.validate()?;
        let threads = self.resolved_threads();
        let kept = cache.as_mut().and_then(|c| c.mdp.take());
        let mdp = match kept.and_then(|mut mdp| mdp.refill(self).then_some(mdp)) {
            Some(mdp) => mdp,
            None => Box::new(ExpandedMdp::build(self)?),
        };
        let mut ws = ValueWorkspace::new(&mdp);
        let cached = cache.as_deref().map(|c| &c.actions[..]);
        mdp.init_choice(cached.filter(|a| a.len() == mdp.len()), &mut ws.choice);
        let mut stats = SolveStats::default();
        let passes = |stats: &SolveStats| stats.sweeps_per_iterate.iter().sum::<usize>();

        // Dinkelbach policy iteration: evaluate π exactly, then improve it
        // greedily at ρ(π), until no action improves by more than the
        // rounding margin.
        let mut rho = 0.0;
        let delta = loop {
            if stats.policy_evaluations == MAX_STEPS {
                return Err(MdpError::NoConvergence {
                    rho_lo: rho,
                    rho_hi: 2.0,
                    sweeps: passes(&stats),
                });
            }
            let (gain_r, gain_u) = mdp.evaluate(&mut ws)?;
            stats.policy_evaluations += 1;
            rho = gain_r / gain_u;
            mdp.fill_base(rho, &mut ws.base);
            ws.values_at(rho);
            let margin = ws.rounding_margin();
            let switched = mdp.improve(&mut ws, margin, threads);
            let (min_d, max_d) = update_range(&ws.next_v, &ws.v);
            stats.record(1, max_d - min_d);
            if switched == 0 {
                // ρ* − ρ(π) is at most about margin / g_u once no action
                // improves; twice that clears it and the rounding of ρ(π).
                break 2.0 * margin / gain_u;
            }
        };

        // The certified bracket: `g(ρ) ≥ g_u·(ρ(π) − ρ) > 0` below
        // `ρ(π) − δ`, and one sweep's sandwich below zero at `ρ(π) + δ`
        // proves `g < 0` there and, `g` being decreasing, above.
        let certain_above = rho - delta;
        let probe = rho + delta;
        mdp.fill_base(probe, &mut ws.base);
        ws.values_at(probe);
        let (min_d, max_d) = mdp.sweep(&mut ws, threads);
        stats.record(1, max_d - min_d);
        let certain_below = if max_d < 0.0 { probe } else { f64::INFINITY };

        // Replay the bisection: only a midpoint inside the bracket needs
        // value iteration, from the policy's exact values at that ρ.
        let (mut lo, mut hi) = (0.0f64, 2.0f64);
        while hi - lo > self.rho_tolerance {
            if stats.bisection_steps == MAX_STEPS {
                return Err(MdpError::NoConvergence {
                    rho_lo: lo,
                    rho_hi: hi,
                    sweeps: passes(&stats),
                });
            }
            stats.bisection_steps += 1;
            let mid = 0.5 * (lo + hi);
            let positive = if mid < certain_above {
                true
            } else if mid >= certain_below {
                false
            } else {
                ws.values_at(mid);
                let it = mdp
                    .optimal_average(mid, self.tolerance, threads, &mut ws)
                    .map_err(|e| widen_bracket(e, lo, hi, passes(&stats)))?;
                stats.record(it.sweeps, it.span);
                stats.unresolved_signs += usize::from(!it.certified);
                it.gain > 0.0
            };
            if positive {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        let revenue = 0.5 * (lo + hi);
        mdp.fill_base(revenue, &mut ws.base);
        ws.values_at(revenue);
        let margin = ws.rounding_margin();
        let actions = mdp.greedy_policy(&mut ws, margin, threads);
        let (min_d, max_d) = update_range(&ws.next_v, &ws.v);
        stats.record(1, max_d - min_d);
        let space = Arc::clone(&mdp.space);
        if let Some(cache) = cache {
            cache.actions.clone_from(&actions);
            cache.mdp = Some(mdp);
        }
        Ok(Solution {
            revenue,
            policy: Policy { space, actions },
            iterations: passes(&stats),
            stats,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::RewardModel;
    use seleth_core::bitcoin;
    use seleth_markov::SolveMethod;
    use std::collections::HashMap;

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
    fn solve_stats_trace_the_solve() {
        let s = solve(0.35, 0.5, RewardModel::Bitcoin);
        let stats = &s.stats;
        // The bisection still halves `[0, 2]` down to `rho_tolerance`.
        assert_eq!(stats.bisection_steps, 21);
        assert!((1..=10).contains(&stats.policy_evaluations), "{stats:?}");
        // One entry per improvement pass, the probe, every midpoint that
        // needed value iteration and the closing greedy pass.
        assert!(stats.sweeps_per_iterate.len() >= stats.policy_evaluations + 2);
        assert_eq!(stats.residuals.len(), stats.sweeps_per_iterate.len());
        assert_eq!(
            stats.sweeps_per_iterate.iter().sum::<usize>(),
            s.iterations,
            "per-iterate Q passes must partition the total"
        );
        assert!(stats.residuals.iter().all(|r| r.is_finite() && *r >= 0.0));
        assert!((0.0..=1.0).contains(&stats.warm_start_hit_rate()));
        // The last improvement pass found no action better than the
        // policy's own beyond rounding, which is what ended the iteration.
        let last_improvement = stats.residuals[stats.policy_evaluations - 1];
        assert!(last_improvement < 1e-9, "{stats:?}");
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
        // arithmetic: revenue, sweep counts, residuals and the full policy
        // must be identical for every worker count — for cold solves and
        // for a cached walk, whose policy iterations start from the
        // previous solve's policy.
        let base = MdpConfig::new(0.38, 0.4, RewardModel::EthereumApprox).with_max_len(16);
        let fingerprint = |s: &Solution| {
            let residuals: Vec<u64> = s.stats.residuals.iter().map(|r| r.to_bits()).collect();
            let policy: Vec<(MdpState, Action)> = s.policy.iter().collect();
            (
                s.revenue.to_bits(),
                s.stats.sweeps_per_iterate.clone(),
                residuals,
                policy,
            )
        };
        let walk = |threads: usize| {
            let mut cache = ValueCache::new();
            [0.36, 0.38, 0.40]
                .iter()
                .map(|&alpha| {
                    let config = MdpConfig {
                        alpha,
                        ..base.with_threads(threads)
                    };
                    fingerprint(&config.solve_with_cache(&mut cache).unwrap())
                })
                .collect::<Vec<_>>()
        };
        let reference = fingerprint(&base.with_threads(1).solve().unwrap());
        // Filling a fresh cache changes nothing about a cold solve.
        let filled = base
            .with_threads(1)
            .solve_with_cache(&mut ValueCache::new());
        assert!(
            reference == fingerprint(&filled.unwrap()),
            "a fresh cache moved the cold solve"
        );
        let reference_walk = walk(1);
        for threads in [2, 3, 8] {
            let parallel = fingerprint(&base.with_threads(threads).solve().unwrap());
            assert!(reference == parallel, "solve differs at threads={threads}");
            if threads <= 3 {
                assert!(
                    reference_walk == walk(threads),
                    "cached walk differs at threads={threads}"
                );
            }
        }
    }

    /// The 40 random `(α, γ, delay, rewards, scenario)` cases of the
    /// kernel tests.
    fn random_configs() -> Vec<MdpConfig> {
        let mut state = 0x5eed_cafe_f00d_u64;
        let mut next_unit = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        (0..40)
            .map(|case| {
                let alpha = 0.05 + 0.44 * next_unit();
                let gamma = next_unit();
                let delay = 2.0 * next_unit();
                let rewards = if case % 2 == 0 {
                    RewardModel::Bitcoin
                } else {
                    RewardModel::EthereumApprox
                };
                let scenario = if case % 4 < 2 {
                    Scenario::RegularRate
                } else {
                    Scenario::RegularPlusUncleRate
                };
                MdpConfig::new(alpha, gamma, rewards)
                    .with_max_len(8)
                    .with_delay_ratio(delay)
                    .with_scenario(scenario)
            })
            .collect()
    }

    #[test]
    fn rows_sum_to_one_over_random_configs() {
        // Property test over random (α, γ, delay): every compiled row must
        // be a probability distribution to 1e-12 — the construction
        // debug-assert fires inside `build`, and the explicit re-check
        // below keeps the property gated in release-mode test runs too.
        for (case, config) in random_configs().iter().enumerate() {
            let expanded = ExpandedMdp::build(config).unwrap();
            let mut rows = 0;
            for g in &expanded.row_groups {
                for r in 0..g.rows.len() {
                    let first = g.out + r * g.width;
                    let row: f64 = expanded.prob[first..first + g.width].iter().sum();
                    assert!(
                        (row - 1.0).abs() < 1e-12,
                        "case {case} ({config:?}): row {} sums to {row}",
                        g.rows.start + r
                    );
                    rows += 1;
                }
            }
            assert_eq!(
                rows,
                expanded.actions.len(),
                "case {case}: one row per slot"
            );
        }
    }

    /// The plain per-state backup the tile kernel replaced: for every
    /// state in enumeration order, every legal action's
    /// `Σ p·(r − ρ·units) + Σ p·v[succ]` and the first strictly greatest.
    fn csr_backup(config: &MdpConfig, rho: f64, v: &[f64]) -> (Vec<f64>, Vec<Action>) {
        let states = config.states();
        let index: HashMap<MdpState, usize> =
            states.iter().enumerate().map(|(i, &s)| (s, i)).collect();
        let mut out = (Vec::new(), Vec::new());
        for &s in &states {
            let mut best = (f64::NEG_INFINITY, Action::Adopt);
            for action in config.legal_actions(s) {
                let outcomes = config.outcomes(s, action);
                let mut q = 0.0;
                for o in &outcomes {
                    q += o.prob * (o.attacker_reward - rho * units_of(config.scenario, o));
                }
                for o in &outcomes {
                    q += o.prob * v[index[&o.next]];
                }
                if q > best.0 {
                    best = (q, action);
                }
            }
            out.0.push(best.0);
            out.1.push(best.1);
        }
        out
    }

    /// A pseudo-random vector of `len` values in `[−20, 20)`.
    fn noise(len: usize, seed: u64) -> Vec<f64> {
        let mut state = seed;
        (0..len)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (state >> 11) as f64 / (1u64 << 53) as f64 * 40.0 - 20.0
            })
            .collect()
    }

    /// One Bellman sweep and greedy extraction from pseudo-random values,
    /// checked bit for bit against [`csr_backup`].
    fn assert_kernel_matches_csr(config: &MdpConfig, threads: usize, seed: u64) {
        let expanded = ExpandedMdp::build(config).unwrap();
        let mut ws = ValueWorkspace::new(&expanded);
        ws.v = noise(expanded.len(), seed);
        let rho = 0.25 + (seed % 7) as f64 * 0.05;
        expanded.fill_base(rho, &mut ws.base);
        let (want_v, want_actions) = csr_backup(config, rho, &ws.v);
        let bits = |x: &[f64]| x.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let v = ws.v.clone();
        expanded.sweep(&mut ws, threads);
        ws.v = v;
        assert_eq!(
            bits(&ws.next_v),
            bits(&want_v),
            "{config:?}: sweep differs from the CSR backup"
        );
        ws.next_v.fill(0.0);
        assert_eq!(
            expanded.greedy_policy(&mut ws, 0.0, threads),
            want_actions,
            "{config:?}: greedy actions differ from the CSR backup"
        );
        assert_eq!(
            bits(&ws.next_v),
            bits(&want_v),
            "{config:?}: greedy pass's values differ from the CSR backup"
        );
    }

    #[test]
    fn update_range_matches_the_sequential_fold() {
        // Signed zeros, infinities and NaNs at random positions, over
        // lengths on both sides of the four-lane split.
        let specials = [
            0.0,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            1.5,
            -1.5,
        ];
        let mut state = 0x0dd_ba11_u64;
        let mut next_word = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 11
        };
        // A zero extreme reached as +0 in one lane and −0 in another: the
        // lanes meet the two zeros in the opposite order to the fold.
        let tie = [5.0, 0.0, 5.0, 5.0, -0.0, 5.0, 5.0, 5.0];
        let cases = (0..2000).map(|case| {
            let len = [0, 1, 3, 4, 5, 8, 13, 1525][case % 8];
            let mut draw = || match next_word() % 4 {
                0 => specials[(next_word() % 7) as usize],
                _ => (next_word() % 9) as f64 - 4.0,
            };
            let next: Vec<f64> = (0..len).map(|_| draw()).collect();
            let v: Vec<f64> = (0..len).map(|_| draw()).collect();
            (next, v)
        });
        let ties = [
            (tie.to_vec(), vec![0.0; 8]),
            (tie.map(|x| -x).to_vec(), vec![0.0; 8]),
        ];
        for (case, (next, v)) in ties.into_iter().chain(cases).enumerate() {
            let want = next.iter().zip(&v).fold(
                (f64::INFINITY, f64::NEG_INFINITY),
                |(min, max), (&n, &x)| (min.min(n - x), max.max(n - x)),
            );
            let got = update_range(&next, &v);
            assert_eq!(
                (got.0.to_bits(), got.1.to_bits()),
                (want.0.to_bits(), want.1.to_bits()),
                "case {case}: {next:?} − {v:?}"
            );
        }
    }

    #[test]
    fn tile_kernel_matches_the_csr_backup() {
        for (case, config) in random_configs().iter().enumerate() {
            assert_kernel_matches_csr(config, 1, case as u64);
        }
        // Several tiles, the last one partial, on the sequential and the
        // parallel path (above `PARALLEL_MIN_STATES`).
        for (config, threads) in [
            (
                MdpConfig::new(0.3, 0.5, RewardModel::Bitcoin).with_max_len(40),
                1,
            ),
            (
                MdpConfig::new(0.38, 0.4, RewardModel::EthereumApprox)
                    .with_max_len(16)
                    .with_delay_ratio(0.5),
                2,
            ),
        ] {
            let n = config.states().len();
            assert!(n > PARALLEL_GRAIN && n % PARALLEL_GRAIN != 0, "{n} states");
            assert_kernel_matches_csr(&config, threads, 7);
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
    fn a_cached_walk_refills_exactly_where_the_layout_holds() {
        // One cache through every change of layout. γ reaching 0 or 1 and
        // the delay leaving or reaching 0 prune or restore outcomes (γ 0 →
        // 1 keeps every width and moves successors); the reward model and
        // the truncation change the space; α and the scenario change only
        // values. At every step the kept expansion must equal a fresh
        // build bit for bit, the refill must have kept the layout (its
        // state table) exactly where the layout held, and the solve must
        // match a cold one wherever its signs are certified.
        let btc = MdpConfig::new(0.3, 0.5, RewardModel::Bitcoin).with_max_len(16);
        let eth = MdpConfig {
            rewards: RewardModel::EthereumApprox,
            ..btc
        };
        let long = btc.with_max_len(24);
        let walk = [
            (btc, false),
            (MdpConfig { alpha: 0.35, ..btc }, true),
            (MdpConfig { gamma: 0.0, ..btc }, false),
            (MdpConfig { gamma: 1.0, ..btc }, false),
            (btc, false),
            (btc.with_delay_ratio(0.1), false),
            (MdpConfig { alpha: 0.35, ..btc }.with_delay_ratio(0.2), true),
            (btc, false),
            (eth, false),
            (eth.with_scenario(Scenario::RegularPlusUncleRate), true),
            (btc, false),
            (long, false),
            (long.with_scenario(Scenario::RegularPlusUncleRate), true),
        ];
        let bits = |x: &[f64]| x.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let mut cache = ValueCache::new();
        let mut kept_space: Option<Arc<DenseStates>> = None;
        for (step, (config, refills)) in walk.into_iter().enumerate() {
            let warm = config.solve_with_cache(&mut cache).unwrap();
            let kept = cache.mdp.as_ref().unwrap();
            let fresh = ExpandedMdp::build(&config).unwrap();
            let at = format!("step {step} ({config:?})");
            assert_eq!(bits(&kept.prob), bits(&fresh.prob), "{at}: prob");
            assert_eq!(kept.succ, fresh.succ, "{at}: succ");
            assert_eq!(
                bits(&kept.attacker_reward),
                bits(&fresh.attacker_reward),
                "{at}: attacker_reward"
            );
            assert_eq!(bits(&kept.units), bits(&fresh.units), "{at}: units");
            assert_eq!(kept.slot_outs, fresh.slot_outs, "{at}: slot_outs");
            assert_eq!(kept.actions, fresh.actions, "{at}: actions");
            assert_eq!(
                kept.levels.landing_states, fresh.levels.landing_states,
                "{at}: landing set"
            );
            let same = kept_space
                .as_ref()
                .is_some_and(|s| Arc::ptr_eq(s, &kept.space));
            assert_eq!(same, refills, "{at}: refilled {same}, expected {refills}");
            kept_space = Some(Arc::clone(&kept.space));

            if warm.stats.unresolved_signs == 0 {
                let cold = config.solve().unwrap();
                assert_eq!(
                    warm.revenue.to_bits(),
                    cold.revenue.to_bits(),
                    "{at}: warm {} vs cold {}",
                    warm.revenue,
                    cold.revenue
                );
                assert!(
                    warm.policy.iter().eq(cold.policy.iter()),
                    "{at}: warm and cold policies differ"
                );
            }
        }
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

    /// `ρ(π)` of the fixed policy `action` on `config`'s MDP, computed
    /// with nothing from value iteration: the Markov chain the policy
    /// induces on the states it reaches from `(1, 0)`, its stationary
    /// distribution from `seleth-markov`, then expected attacker reward
    /// over expected normalization units per step.
    fn policy_revenue(
        config: &MdpConfig,
        method: SolveMethod,
        action: impl Fn(MdpState) -> Action,
    ) -> f64 {
        use seleth_markov::{ChainBuilder, SolveOptions};
        use std::collections::hash_map::Entry;
        use std::collections::VecDeque;

        let start = MdpState::new(1, 0, Fork::Irrelevant);
        let mut chain = ChainBuilder::new();
        let mut per_step: HashMap<MdpState, (f64, f64)> = HashMap::from([(start, (0.0, 0.0))]);
        let mut queue = VecDeque::from([start]);
        while let Some(s) = queue.pop_front() {
            let a = action(s);
            assert!(
                config.legal_actions(s).contains(&a),
                "{s}: {a:?} is illegal"
            );
            let (mut reward, mut units) = (0.0, 0.0);
            for o in config.outcomes(s, a) {
                chain.add_rate(s, o.next, o.prob);
                reward += o.prob * o.attacker_reward;
                units += o.prob * units_of(config.scenario, &o);
                if let Entry::Vacant(slot) = per_step.entry(o.next) {
                    slot.insert((0.0, 0.0));
                    queue.push_back(o.next);
                }
            }
            per_step.insert(s, (reward, units));
        }
        let pi = chain
            .build_dtmc()
            .stationary(SolveOptions::with_method(method))
            .unwrap();
        pi.expect(|s| per_step[s].0) / pi.expect(|s| per_step[s].1)
    }

    /// Check a solution against [`policy_revenue`] of its own policy.
    fn assert_oracle_agrees(config: &MdpConfig, s: &Solution) {
        let oracle = policy_revenue(config, SolveMethod::GaussSeidel, |state| {
            s.policy.action(state).unwrap()
        });
        assert!(
            (oracle - s.revenue).abs() <= config.rho_tolerance,
            "{config:?}: rho(pi) {oracle} vs solved revenue {}",
            s.revenue
        );
    }

    #[test]
    fn policy_evaluation_oracle_matches_the_committed_artifacts() {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results/policies");
        let mut checked = 0;
        for entry in std::fs::read_dir(&dir).unwrap() {
            let table = crate::PolicyTable::load(&entry.unwrap().path()).unwrap();
            if table.max_len() != 30 {
                continue;
            }
            let config = MdpConfig::new(table.alpha(), table.gamma(), table.rewards())
                .with_max_len(table.max_len())
                .with_scenario(table.scenario())
                .with_delay_ratio(table.delay());
            let oracle = policy_revenue(&config, SolveMethod::GaussSeidel, |s| {
                table.action(s.a, s.h, s.fork, s.match_d).unwrap()
            });
            let recorded = table.predicted_revenue();
            assert!(
                (oracle - recorded).abs() <= config.rho_tolerance,
                "{config:?}: rho(pi) {oracle} vs recorded {recorded}"
            );
            checked += 1;
        }
        assert_eq!(checked, 4, "the four truncation-30 artifacts");
    }

    #[test]
    fn policy_evaluation_oracle_matches_random_solves() {
        for config in random_configs().iter().take(10) {
            assert_oracle_agrees(config, &config.solve().unwrap());
        }
    }

    #[test]
    fn policy_evaluation_oracle_matches_cached_walks() {
        // α up and back down through one cache per family, so every solve
        // after the first starts its policy iteration from its neighbour's
        // policy. The Bitcoin walks are perfbench's `solve` walk (51 points
        // from 0.15 to 0.40 at truncation 24); the Ethereum walk is
        // coarser.
        let grid = |points: usize, max_len: u32| {
            let step = (0.40 - 0.15) / (points - 1) as f64;
            let up = (0..points).map(move |k| (0.15 + step * k as f64, max_len));
            up.clone().chain(up.rev().skip(1))
        };
        for (gamma, rewards, walk) in [
            (0.5, RewardModel::Bitcoin, grid(51, 24)),
            (0.0, RewardModel::Bitcoin, grid(51, 24)),
            (0.5, RewardModel::EthereumApprox, grid(6, 16)),
        ] {
            let mut cache = ValueCache::new();
            for (alpha, max_len) in walk {
                let config = MdpConfig::new(alpha, gamma, rewards).with_max_len(max_len);
                let solution = config.solve_with_cache(&mut cache).unwrap();
                assert_oracle_agrees(&config, &solution);
            }
        }
    }

    #[test]
    fn exact_evaluation_matches_the_markov_oracle_for_random_policies() {
        // A random legal action per state, so the evaluator meets
        // policies far from optimal: its ρ(π) against a dense stationary
        // solve of the chain the policy induces, and its relative values
        // against their defining equations `h = r − g + P·h`.
        let mut draw = 0x00c0_ffee_u64;
        for (case, config) in random_configs().iter().enumerate() {
            let states = config.states();
            let index: HashMap<MdpState, usize> =
                states.iter().enumerate().map(|(i, &s)| (s, i)).collect();
            let actions: Vec<Action> = states
                .iter()
                .map(|&s| {
                    draw = draw
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    let legal = config.legal_actions(s);
                    legal[(draw >> 33) as usize % legal.len()]
                })
                .collect();
            let mdp = ExpandedMdp::build(config).unwrap();
            let mut ws = ValueWorkspace::new(&mdp);
            mdp.init_choice(Some(&actions), &mut ws.choice);
            let (gain_r, gain_u) = mdp.evaluate(&mut ws).unwrap();
            let oracle = policy_revenue(config, SolveMethod::DenseLu, |s| actions[index[&s]]);
            assert!(
                (gain_r / gain_u - oracle).abs() <= 1e-12,
                "case {case} ({config:?}): rho(pi) {} vs oracle {oracle}",
                gain_r / gain_u
            );
            assert_eq!((ws.h_r[mdp.ref_state], ws.h_u[mdp.ref_state]), (0.0, 0.0));
            for (i, &s) in states.iter().enumerate() {
                let (mut r, mut u) = (-gain_r, -gain_u);
                for o in config.outcomes(s, actions[i]) {
                    let next = index[&o.next];
                    r += o.prob * (o.attacker_reward + ws.h_r[next]);
                    u += o.prob * (units_of(config.scenario, &o) + ws.h_u[next]);
                }
                assert!(
                    (r - ws.h_r[i]).abs() <= 1e-10 && (u - ws.h_u[i]).abs() <= 1e-10,
                    "case {case}, state {s}: residuals {} / {}",
                    r - ws.h_r[i],
                    u - ws.h_u[i]
                );
            }
        }
    }

    #[test]
    fn a_singular_evaluation_system_is_a_typed_error() {
        let mut a = vec![1.0, 2.0, 2.0, 4.0];
        let (mut r, mut u) = (vec![1.0, 2.0], vec![0.0, 0.0]);
        assert_eq!(
            solve_dense(&mut a, 2, &mut r, &mut u),
            Err(MdpError::SingularEvaluation { pivot: 1, size: 2 })
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
