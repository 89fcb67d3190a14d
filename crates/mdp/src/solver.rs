//! Relative value iteration + bisection on ρ in the Dinkelbach transform.
//!
//! The attacker maximizes a *ratio*: expected reward per normalization
//! unit (regular blocks for Scenario 1; regular + uncle blocks for
//! Scenario 2 — exactly the paper's absolute revenue `U_s`). Following the
//! fractional-programming transformation (Dinkelbach; Sapirshtein et al.
//! use its relative-revenue special case), for a candidate ratio `ρ`
//! per-step rewards become `r_attacker − ρ · units`, the optimal long-run
//! average `g(ρ)` is strictly decreasing, and the optimal ratio is the
//! root `g(ρ*) = 0`. The solver bisects `[0, 2]` on the sign of `g`, which
//! it computes by relative value iteration on the unichain MDP.
//!
//! # Performance architecture
//!
//! The transition table is expanded **once per solve** into flat
//! struct-of-arrays storage ([`ExpandedMdp`]): per outcome, `(prob,
//! successor index, attacker reward, normalization units)`. Each ρ
//! candidate then re-weights rewards once (`base = Σ p·(r − ρ·units)`
//! per action) instead of rebuilding per-action outcome lists. States are
//! indexed through a dense table over the policy artifacts' own slot
//! indexer ([`StateSpace::index`]), so the expansion hashes nothing.
//!
//! **ρ-shifted warm starts.** Under a fixed policy the relative value is
//! exactly linear in ρ, `h_ρ = h_r − ρ·h_u`, where `h_u` is the relative
//! value of the normalization units. The solver carries that *units
//! bias* `w` beside the value function `v` and starts every ρ candidate
//! from `v − (ρ − ρ_prev)·w`, so a candidate only has to learn how the
//! greedy policy moves, not the whole shift. `w` is refreshed only by
//! the closing full-tolerance evaluation at the solved revenue, through
//! a second accumulator in the Q pass, and a [`ValueCache`] keeps
//! `(v, w, ρ)` for the next solve of a sweep. Only a kept cache ever
//! reads `w`, so only [`MdpConfig::solve_with_cache`] forms it;
//! [`MdpConfig::solve`] runs value-only sweeps throughout.
//!
//! What stays bit-identical: a sign-only bisection candidate stops only
//! once the Bellman-update sandwich `min_d ≤ g ≤ max_d` clears zero,
//! which certifies the exact sign from any starting values. So the
//! bisection visits the same midpoints and returns the same revenue bits
//! whatever the warm start; [`SolveStats::unresolved_signs`] counts the
//! candidates where `|g|` was too small to certify. A cold solve has
//! `w = 0` until its closing evaluation, so it is bit-identical in every
//! field, sweep counts included, whether or not it fills a cache.
//!
//! The storage is compiled into **state tiles** of [`PARALLEL_GRAIN`]
//! consecutive states. Inside a tile, action rows are grouped by outcome
//! count and states by action count, so a sweep runs two fixed-width
//! passes per tile instead of a per-state walk whose loop trip counts
//! change from state to state: a *Q pass* (`q = base + Σ p_j·v[s_j]`,
//! widths 1–4 unrolled at compile time) and a *max pass* (the first
//! strictly greatest `q` per state). Each action's sum is formed in
//! enumeration order and the tie-break is unchanged, so the grouping
//! moves no bit of any result; a tile keeps its states' values close
//! together in cache, which grouping the whole space at once would lose.
//! A units-tracking sweep also forms `qw = Σ p·units + Σ p_j·w[s_j]` over
//! the same outcome streams and copies the winning slot's `qw` into the
//! new `w`; its Q pass is a function of its own, so value-only sweeps run
//! the plain pass's code.
//!
//! The tile is the unit of every sweep and of greedy-policy extraction:
//! a sequential sweep runs the tiles in order, a parallel sweep lets
//! workers claim whole tiles. Every tile writes disjoint slots and all
//! reductions (span seminorm, reference offsets) run on the calling
//! thread, so results are bit-identical for every thread count. The span
//! reduction runs four interleaved `min`/`max` accumulators and falls
//! back to the index-order fold only when an extreme is exactly zero,
//! the one case where regrouping could pick the other signed zero.

use std::ops::Range;
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

/// Hard cap on Dinkelbach bisection steps. 128 halvings of the initial
/// `[0, 2]` bracket reach the limit of f64 resolution, so any positive
/// `rho_tolerance` converges well before this; the cap turns a
/// pathological tolerance into a typed [`MdpError::NoConvergence`] instead
/// of an unbounded loop.
const MAX_BISECTIONS: usize = 128;

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
/// Collected on every [`MdpConfig::solve`]: one entry per ρ iterate — the bisection candidates in order, then the
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
    /// first iterate. In a cold solve the first iterate starts from zero
    /// values, so this counts warm starts paying off; through a warm
    /// [`ValueCache`] the first iterate is warm too (it starts from the
    /// cached values, ρ-shifted), so the count compares warm iterates
    /// with a warm one and reads lower for the same speed.
    pub warm_start_hits: usize,
    /// Sign-only bisection candidates whose Bellman-update span fell below
    /// `tolerance` before the sandwich `min_d ≤ g ≤ max_d` cleared zero.
    /// Their sign is the sandwich midpoint's, which depends on the
    /// starting values; every other candidate's sign is certified. It is
    /// non-zero only when `|g|` at a midpoint is below the value
    /// tolerance, most plainly when ρ* is itself a bisection midpoint.
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
    /// Value-iteration sweeps used across all bisection steps.
    pub iterations: usize,
    /// Per-iterate instrumentation of the solve.
    pub stats: SolveStats,
}

/// The transition table of one solve, compiled into state tiles.
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
#[derive(Debug)]
struct ExpandedMdp {
    space: Arc<DenseStates>,
    ref_state: usize,
    tiles: Vec<Tile>,
    row_groups: Vec<RowGroup>,
    state_groups: Vec<StateGroup>,
    /// Per global slot: its action.
    actions: Vec<Action>,
    /// Per global row: the tile-local slot its value lands in.
    row_slot: Vec<u32>,
    /// Per global row: expected normalization units, `Σ_t prob[t]·units[t]`
    /// — the reward half of the units backup, independent of ρ.
    unit_base: Vec<f64>,
    /// Per state-group entry: the tile-local state index.
    group_state: Vec<u32>,
    /// Per outcome, in row order: probability, successor state,
    /// attacker reward and normalization units.
    prob: Vec<f64>,
    succ: Vec<u32>,
    attacker_reward: Vec<f64>,
    units: Vec<f64>,
}

/// One tile: the unit of a sweep, sequential or parallel. It writes only
/// its own states' entries and its own slots.
#[derive(Debug)]
struct Tile {
    states: Range<usize>,
    /// Global slot range, which is also the tile's global row range.
    slots: Range<usize>,
    row_groups: Range<usize>,
    state_groups: Range<usize>,
}

/// Rows with `width` outcomes each: global rows `rows`, whose outcomes
/// start at `out` (row `rows.start + r` owns `out + r·width ..`).
#[derive(Debug)]
struct RowGroup {
    width: usize,
    rows: Range<usize>,
    out: usize,
}

/// States with `arity` legal actions each: `group_state[states]`, whose
/// slots start at tile-local slot `slot` (`arity` per state, in order).
#[derive(Debug)]
struct StateGroup {
    arity: usize,
    states: Range<usize>,
    slot: usize,
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

    /// Append every legal action of `s` with its outcomes.
    fn push_state(
        &mut self,
        config: &MdpConfig,
        space: &DenseStates,
        s: MdpState,
    ) -> Result<(), MdpError> {
        let first = self.actions.len();
        config.push_legal_actions(s, &mut self.actions);
        debug_assert!(self.actions.len() > first, "state {s} has no legal action");
        for k in first..self.actions.len() {
            let action = self.actions[k];
            self.scratch.clear();
            config.push_outcomes(s, action, &mut self.scratch);
            let row_start = self.outs.len();
            for o in &self.scratch {
                let Some(j) = space.get(o.next) else {
                    return Err(MdpError::InvalidSpace {
                        states: space.states.len(),
                        missing: Some(o.next),
                    });
                };
                let u = match config.scenario {
                    Scenario::RegularRate => o.regular,
                    Scenario::RegularPlusUncleRate => o.regular + o.uncles,
                };
                // `DenseStates::new` checked that every index fits a `u32`.
                self.outs.push((o.prob, j as u32, o.attacker_reward, u));
            }
            // Every row is a probability distribution; the delay-aware
            // race folding (win/loss branch splits, effective-γ scaling)
            // makes silent mass leakage easy, so rows are validated at
            // construction.
            debug_assert!(
                {
                    let row_sum: f64 = self.outs[row_start..].iter().map(|o| o.0).sum();
                    (row_sum - 1.0).abs() < 1e-12
                },
                "transition row ({s}, {action:?}) leaks probability mass"
            );
            self.pair_outs.push(self.outs.len());
        }
        self.state_pairs.push(self.actions.len());
        Ok(())
    }
}

/// Reusable value-iteration buffers, retained across every ρ candidate of
/// a solve (both the allocation and the converged values, which warm-start
/// the next candidate). A sweep allocates nothing.
#[derive(Debug)]
struct ValueWorkspace {
    v: Vec<f64>,
    next_v: Vec<f64>,
    /// The units bias: the relative value of the normalization units
    /// under the greedy policy, refreshed by full-tolerance evaluations
    /// (all zero before the first one).
    w: Vec<f64>,
    next_w: Vec<f64>,
    /// The ρ that `v` was last relaxed at, once `w` is its units bias;
    /// `None` while `w` is still zero, which leaves `v` unshifted.
    rho: Option<f64>,
    /// Per row: expected transformed reward at the current ρ candidate,
    /// `base[k] = Σ_t prob[t]·(r[t] − ρ·units[t])`. Computed once per
    /// candidate, so the hot sweep loop streams only `prob`/`succ` and
    /// the value function.
    base: Vec<f64>,
    /// Per slot: the action value `Q(s, a)` of the current sweep.
    q: Vec<f64>,
    /// Per slot: the units backup of the current full-tolerance sweep.
    qw: Vec<f64>,
}

impl ValueWorkspace {
    fn new(mdp: &ExpandedMdp) -> Self {
        ValueWorkspace {
            v: vec![0.0; mdp.len()],
            next_v: vec![0.0; mdp.len()],
            w: vec![0.0; mdp.len()],
            next_w: vec![0.0; mdp.len()],
            rho: None,
            base: Vec::new(),
            q: vec![0.0; mdp.actions.len()],
            qw: vec![0.0; mdp.actions.len()],
        }
    }

    /// Move `v` to candidate `rho`: `v ← v − (ρ − ρ_prev)·w`, exact for
    /// the relative value of a fixed policy. A no-op while `w` is zero.
    fn shift_to(&mut self, rho: f64) {
        if let Some(prev) = self.rho {
            let step = rho - prev;
            for (v, &w) in self.v.iter_mut().zip(&self.w) {
                *v -= step * w;
            }
            self.rho = Some(rho);
        }
    }
}

/// A cross-solve value-function cache for parameter sweeps.
///
/// The Dinkelbach solver already warm-starts its value function across ρ
/// candidates *within* one solve; a sweep over a model axis (α, γ, or the
/// delay axis of a delay-aware study: the optimal `v` moves continuously
/// with each) can reuse the previous solve's converged values the same
/// way via [`MdpConfig::solve_with_cache`]. The cache holds the value
/// function, its units bias and the revenue they were converged at, so
/// the next solve's first candidate starts ρ-shifted too. It is consulted
/// only when the state-space size matches, so sweeping mixed truncations
/// or reward models through one cache is safe (those solves simply start
/// cold).
#[derive(Debug, Clone, Default)]
pub struct ValueCache {
    v: Vec<f64>,
    w: Vec<f64>,
    rho: f64,
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

/// How far [`ExpandedMdp::optimal_average`] iterates one ρ candidate.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Eval {
    /// Until the sandwich certifies the sign of `g(ρ)`: a bisection step.
    Sign,
    /// To `tolerance`, value-only: the closing evaluation of a solve that
    /// keeps no [`ValueCache`], whose units bias nothing would read.
    Full,
    /// To `tolerance`, refreshing the units bias `w` every sweep: the
    /// closing evaluation of a solve whose `(v, w)` a cache keeps.
    Tracked,
}

/// One ρ iterate of relative value iteration.
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
    /// then compile every legal `(state, action)`'s outcomes into tiles.
    fn build(config: &MdpConfig) -> Result<Self, MdpError> {
        let space = Arc::new(DenseStates::new(config)?);
        let n = space.states.len();
        let origin = MdpState::new(0, 0, Fork::Irrelevant);
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
            row_slot: Vec::new(),
            unit_base: Vec::new(),
            group_state: Vec::with_capacity(n),
            prob: Vec::new(),
            succ: Vec::new(),
            attacker_reward: Vec::new(),
            units: Vec::new(),
        };
        let mut pairs = TilePairs::default();
        for first in (0..n).step_by(PARALLEL_GRAIN) {
            let states = first..n.min(first + PARALLEL_GRAIN);
            pairs.clear();
            for &s in &space.states[states.clone()] {
                pairs.push_state(config, &space, s)?;
            }
            mdp.push_tile(states, &mut pairs);
        }
        Ok(mdp)
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
            self.row_slot.reserve(slots);
            self.unit_base.reserve(slots);
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
        let max_width = slot_pair.iter().map(|&k| pairs.width(k)).max();
        for width in 0..=max_width.unwrap_or(0) {
            let (first, out) = (self.row_slot.len(), self.prob.len());
            for (slot, &k) in slot_pair.iter().enumerate() {
                if pairs.width(k) != width {
                    continue;
                }
                self.row_slot.push(slot as u32);
                let outs = &pairs.outs[pairs.pair_outs[k]..pairs.pair_outs[k + 1]];
                let mut units = 0.0;
                for o in outs {
                    units += o.0 * o.3;
                }
                self.unit_base.push(units);
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

    /// Refill `base[k] = Σ_t prob[t]·(r[t] − ρ·units[t])` for every row —
    /// the reward half of the Bellman backup, hoisted out of the sweep
    /// loop. One `O(nnz)` pass per ρ candidate buys every subsequent
    /// sweep a multiply-add per outcome and halves the arrays the hot
    /// loop streams.
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

    /// [`ExpandedMdp::tile_q`] plus the units backup
    /// `qw[slot] = unit_base[row] + Σ_j p_j·w[s_j]`, formed in the same
    /// pass over the `prob`/`succ` streams. A pass of its own, so the
    /// value-only sweeps keep the plain pass's code.
    fn tile_q_tracked(
        &self,
        tile: &Tile,
        (base, v, q): (&[f64], &[f64], &mut [f64]),
        (w, qw): (&[f64], &mut [f64]),
    ) {
        for g in &self.row_groups[tile.row_groups.clone()] {
            let outs = g.out..g.out + g.rows.len() * g.width;
            let (base, slot) = (&base[g.rows.clone()], &self.row_slot[g.rows.clone()]);
            let (prob, succ) = (&self.prob[outs.clone()], &self.succ[outs]);
            let unit_base = &self.unit_base[g.rows.clone()];
            let (bases, values, out) = ((base, unit_base), (v, w), (&mut *q, &mut *qw));
            match g.width {
                1 => q_rows_tracked::<1>(bases, slot, prob, succ, values, out),
                2 => q_rows_tracked::<2>(bases, slot, prob, succ, values, out),
                3 => q_rows_tracked::<3>(bases, slot, prob, succ, values, out),
                4 => q_rows_tracked::<4>(bases, slot, prob, succ, values, out),
                width => {
                    q_rows_wide(width, base, slot, prob, succ, v, out.0);
                    q_rows_wide(width, unit_base, slot, prob, succ, w, out.1);
                }
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
        use std::sync::atomic::{AtomicUsize, Ordering};

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

    /// One value-only Bellman sweep: `next_v[i] = max_a Q(i, a)` for
    /// every state, from `ws.base` and `ws.v`.
    fn bellman_sweep(&self, ws: &mut ValueWorkspace, threads: usize) {
        let ValueWorkspace {
            v, next_v, base, q, ..
        } = ws;
        let (v, base) = (&*v, &*base);
        self.for_each_tile(&mut q[..], &mut next_v[..], threads, |tile, q, next_v| {
            self.tile_q(tile, base, v, q);
            self.tile_best(tile, q, |s, best, _| next_v[s] = best);
        });
    }

    /// One Bellman sweep that also carries the units bias: `next_v` as in
    /// [`ExpandedMdp::bellman_sweep`], and `next_w[i]` the units backup of
    /// the action that wins `next_v[i]`.
    fn tracked_sweep(&self, ws: &mut ValueWorkspace, threads: usize) {
        let ValueWorkspace {
            v,
            next_v,
            w,
            next_w,
            base,
            q,
            qw,
            ..
        } = ws;
        let (v, w, base) = (&*v, &*w, &*base);
        let slots = (&mut q[..], &mut qw[..]);
        let states = (&mut next_v[..], &mut next_w[..]);
        self.for_each_tile(slots, states, threads, |tile, (q, qw), (next_v, next_w)| {
            self.tile_q_tracked(tile, (base, v, q), (w, &mut *qw));
            self.tile_best(tile, q, |s, best, slot| {
                next_v[s] = best;
                next_w[s] = slot.map_or(0.0, |k| qw[k]);
            });
        });
    }

    /// Optimal average transformed reward `g(ρ)` via relative value
    /// iteration, started from `ws.v` shifted to `rho` (see
    /// [`ValueWorkspace::shift_to`]) and leaving its converged values
    /// there.
    ///
    /// With [`Eval::Sign`], iteration stops as soon as the sign of `g(ρ)` is
    /// certain: every sweep's Bellman-update differences bound the optimal
    /// gain (`min_d ≤ g ≤ max_d`, the classic value-iteration sandwich for
    /// unichain MDPs), so once the whole interval clears zero the returned
    /// midpoint carries the exact sign — which is all a bisection step
    /// needs. Candidates far from the root resolve in a handful of sweeps.
    /// Otherwise iteration runs to `tolerance`; with [`Eval::Tracked`]
    /// every sweep also refreshes the units bias `ws.w`.
    fn optimal_average(
        &self,
        rho: f64,
        tolerance: f64,
        threads: usize,
        eval: Eval,
        ws: &mut ValueWorkspace,
    ) -> Result<Iterate, MdpError> {
        let max_sweeps = 200_000;
        self.fill_base(rho, &mut ws.base);
        ws.shift_to(rho);
        if eval == Eval::Tracked {
            ws.rho = Some(rho);
        }
        for sweep in 0..max_sweeps {
            if eval == Eval::Tracked {
                self.tracked_sweep(ws, threads);
                let offset = ws.next_w[self.ref_state];
                for (w, &next) in ws.w.iter_mut().zip(&ws.next_w) {
                    *w = next - offset;
                }
            } else {
                self.bellman_sweep(ws, threads);
            }
            // Span seminorm of the Bellman update, reduced on this thread
            // whatever the sweep's thread count.
            let (min_d, max_d) = update_range(&ws.next_v, &ws.v);
            let offset = ws.next_v[self.ref_state];
            for (v, &next) in ws.v.iter_mut().zip(&ws.next_v) {
                *v = next - offset;
            }
            let certified = min_d > 0.0 || max_d < 0.0;
            if (eval == Eval::Sign && certified) || max_d - min_d < tolerance {
                return Ok(Iterate {
                    gain: 0.5 * (max_d + min_d),
                    sweeps: sweep + 1,
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
            sweeps: max_sweeps,
        })
    }

    /// Extract the greedy policy from `ws.v` and the reward bases of the
    /// final ρ through the sweep kernel (deterministic: ties break by
    /// action-enumeration order in every tiling).
    fn greedy_policy(&self, ws: &mut ValueWorkspace, threads: usize) -> Vec<Action> {
        let mut policy = vec![Action::Adopt; self.len()];
        let ValueWorkspace { v, base, q, .. } = ws;
        let (v, base) = (&*v, &*base);
        self.for_each_tile(&mut q[..], &mut policy[..], threads, |tile, q, policy| {
            self.tile_q(tile, base, v, q);
            self.tile_best(tile, q, |s, _, slot| {
                if let Some(k) = slot {
                    policy[s] = self.actions[tile.slots.start + k];
                }
            });
        });
        policy
    }
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

/// The Q pass and the units backup over rows of exactly `W` outcomes,
/// from `(base, unit_base)` and `(v, w)` into `(q, qw)`. Each `q` is
/// formed exactly as [`q_rows`] forms it.
#[inline]
fn q_rows_tracked<const W: usize>(
    (base, unit_base): (&[f64], &[f64]),
    slot: &[u32],
    prob: &[f64],
    succ: &[u32],
    (v, w): (&[f64], &[f64]),
    (q, qw): (&mut [f64], &mut [f64]),
) {
    let (prob, _) = prob.as_chunks::<W>();
    let (succ, _) = succ.as_chunks::<W>();
    let rows = base.iter().zip(unit_base).zip(slot).zip(prob).zip(succ);
    for ((((&b, &u), &k), p), s) in rows {
        let (mut acc, mut acc_w) = (b, u);
        for j in 0..W {
            let t = s[j] as usize;
            acc += p[j] * v[t];
            acc_w += p[j] * w[t];
        }
        q[k as usize] = acc;
        qw[k as usize] = acc_w;
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
        self.solve_from(None)
    }

    /// [`MdpConfig::solve`], warm-started from (and refreshing) a
    /// cross-solve [`ValueCache`]. When the cached value function matches
    /// this solve's state count it seeds relative value iteration, shifted
    /// to each ρ candidate by the cached units bias — for a sweep along a
    /// continuous model axis (delay, α, γ) each solve then starts next to
    /// its fixed point. A mismatched (or empty) cache is ignored; either
    /// way the converged values are stored back.
    ///
    /// Sign-only bisection candidates resolve the *exact* sign of `g(ρ)`
    /// regardless of the starting values, so a warm-started solve walks
    /// the identical ρ bracket and returns the cold solve's revenue bits,
    /// unless a candidate's sign could not be certified
    /// ([`SolveStats::unresolved_signs`]); it then stays within
    /// `rho_tolerance` of it.
    ///
    /// # Errors
    ///
    /// As [`MdpConfig::solve`].
    pub fn solve_with_cache(&self, cache: &mut ValueCache) -> Result<Solution, MdpError> {
        self.solve_from(Some(cache))
    }

    /// The solve behind [`MdpConfig::solve`] (`cache = None`) and
    /// [`MdpConfig::solve_with_cache`]. Only a kept cache ever reads the
    /// units bias, so only then does the closing evaluation form it.
    fn solve_from(&self, cache: Option<&mut ValueCache>) -> Result<Solution, MdpError> {
        self.validate()?;
        let threads = self.resolved_threads();
        let expanded = ExpandedMdp::build(self)?;
        let mut ws = ValueWorkspace::new(&expanded);
        if let Some(cache) = cache.as_deref().filter(|c| c.v.len() == expanded.len()) {
            ws.v.copy_from_slice(&cache.v);
            ws.w.copy_from_slice(&cache.w);
            ws.rho = Some(cache.rho);
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
            let it = expanded
                .optimal_average(mid, self.tolerance, threads, Eval::Sign, &mut ws)
                .map_err(|e| widen_bracket(e, lo, hi, iterations))?;
            iterations += it.sweeps;
            stats.record(it.sweeps, it.span);
            if !it.certified {
                stats.unresolved_signs += 1;
            }
            if it.gain > 0.0 {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        stats.bisection_steps = steps;
        let revenue = 0.5 * (lo + hi);
        // One more full-tolerance evaluation at the solved revenue (cheap:
        // warm-started) so the reported policy is greedy at ρ*, not at the
        // last bisection midpoint. For a kept cache it also refreshes the
        // units bias.
        let eval = if cache.is_some() {
            Eval::Tracked
        } else {
            Eval::Full
        };
        let it = expanded
            .optimal_average(revenue, self.tolerance, threads, eval, &mut ws)
            .map_err(|e| widen_bracket(e, lo, hi, iterations))?;
        iterations += it.sweeps;
        stats.record(it.sweeps, it.span);
        let actions = expanded.greedy_policy(&mut ws, threads);
        if let Some(cache) = cache {
            cache.v.clone_from(&ws.v);
            cache.w.clone_from(&ws.w);
            cache.rho = revenue;
        }
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::RewardModel;
    use seleth_core::bitcoin;
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
        // for a cached walk, whose ρ shifts use the units bias that the
        // tracked sweeps computed.
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
        // Filling a cache only adds the units bias to the closing
        // evaluation; the cold solve's values are the same.
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

    /// The 40 random `(α, γ, delay, rewards)` cases of the kernel tests.
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
                MdpConfig::new(alpha, gamma, rewards)
                    .with_max_len(8)
                    .with_delay_ratio(delay)
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
    /// `Σ p·(r − ρ·units) + Σ p·v[succ]`, the first strictly greatest,
    /// and that action's units backup `Σ p·units + Σ p·w[succ]`.
    fn csr_backup(
        config: &MdpConfig,
        rho: f64,
        v: &[f64],
        w: &[f64],
    ) -> (Vec<f64>, Vec<Action>, Vec<f64>) {
        let states = config.states();
        let index: HashMap<MdpState, usize> =
            states.iter().enumerate().map(|(i, &s)| (s, i)).collect();
        let mut out = (Vec::new(), Vec::new(), Vec::new());
        for &s in &states {
            let mut best = (f64::NEG_INFINITY, Action::Adopt, 0.0);
            for action in config.legal_actions(s) {
                let outcomes = config.outcomes(s, action);
                let (mut q, mut qw) = (0.0, 0.0);
                for o in &outcomes {
                    let units = match config.scenario {
                        Scenario::RegularRate => o.regular,
                        Scenario::RegularPlusUncleRate => o.regular + o.uncles,
                    };
                    q += o.prob * (o.attacker_reward - rho * units);
                    qw += o.prob * units;
                }
                for o in &outcomes {
                    q += o.prob * v[index[&o.next]];
                    qw += o.prob * w[index[&o.next]];
                }
                if q > best.0 {
                    best = (q, action, qw);
                }
            }
            out.0.push(best.0);
            out.1.push(best.1);
            out.2.push(best.2);
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

    /// One value-only sweep, one tracked sweep and greedy extraction from
    /// pseudo-random values and units bias, checked bit for bit against
    /// [`csr_backup`].
    fn assert_kernel_matches_csr(config: &MdpConfig, threads: usize, seed: u64) {
        let expanded = ExpandedMdp::build(config).unwrap();
        let mut ws = ValueWorkspace::new(&expanded);
        ws.v = noise(expanded.len(), seed);
        ws.w = noise(expanded.len(), !seed);
        let rho = 0.25 + (seed % 7) as f64 * 0.05;
        expanded.fill_base(rho, &mut ws.base);
        let (want_v, want_actions, want_w) = csr_backup(config, rho, &ws.v, &ws.w);
        let bits = |x: &[f64]| x.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        expanded.bellman_sweep(&mut ws, threads);
        assert_eq!(
            bits(&ws.next_v),
            bits(&want_v),
            "{config:?}: sweep differs from the CSR backup"
        );
        ws.next_v.fill(0.0);
        expanded.tracked_sweep(&mut ws, threads);
        assert_eq!(
            bits(&ws.next_v),
            bits(&want_v),
            "{config:?}: tracked sweep's values differ from the CSR backup"
        );
        assert_eq!(
            bits(&ws.next_w),
            bits(&want_w),
            "{config:?}: units bias differs from the CSR backup"
        );
        assert_eq!(
            expanded.greedy_policy(&mut ws, threads),
            want_actions,
            "{config:?}: greedy actions differ from the CSR backup"
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
    fn policy_revenue(config: &MdpConfig, action: impl Fn(MdpState) -> Action) -> f64 {
        use seleth_markov::{ChainBuilder, SolveMethod, SolveOptions};
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
                units += o.prob
                    * match config.scenario {
                        Scenario::RegularRate => o.regular,
                        Scenario::RegularPlusUncleRate => o.regular + o.uncles,
                    };
                if let Entry::Vacant(slot) = per_step.entry(o.next) {
                    slot.insert((0.0, 0.0));
                    queue.push_back(o.next);
                }
            }
            per_step.insert(s, (reward, units));
        }
        let pi = chain
            .build_dtmc()
            .stationary(SolveOptions::with_method(SolveMethod::GaussSeidel))
            .unwrap();
        pi.expect(|s| per_step[s].0) / pi.expect(|s| per_step[s].1)
    }

    /// Check a solution against [`policy_revenue`] of its own policy.
    fn assert_oracle_agrees(config: &MdpConfig, s: &Solution) {
        let oracle = policy_revenue(config, |state| s.policy.action(state).unwrap());
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
            let oracle = policy_revenue(&config, |s| {
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
        // after the first starts from its neighbour's ρ-shifted values. The
        // Bitcoin walks are perfbench's `solve` walk (51 points from 0.15
        // to 0.40 at truncation 24), where warm starts flip the action of
        // the near-tie corner state (23, 21, relevant) between match and
        // wait; the oracle holds either way. The Ethereum walk is coarser.
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
    fn policy_lookup_outside_space_is_none() {
        let s = solve(0.3, 0.5, RewardModel::Bitcoin);
        assert_eq!(
            s.policy.action(MdpState::new(900, 0, Fork::Irrelevant)),
            None
        );
        assert_eq!(s.policy.len(), s.policy.iter().count());
    }
}
