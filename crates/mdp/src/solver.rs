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
//! candidate then re-weights rewards once (`base = Σ p·(r − ρ·units)`
//! per action) instead of rebuilding per-action outcome lists, and the
//! value function is **warm-started across ρ iterates** (the optimal `v`
//! moves continuously with ρ, so each bisection step starts next to its
//! fixed point and converges in a fraction of the cold-start sweeps).
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
//!
//! The tile is the unit of every sweep and of greedy-policy extraction:
//! a sequential sweep runs the tiles in order, a parallel sweep lets
//! workers claim whole tiles. Every tile writes disjoint slots and all
//! reductions (span seminorm, reference offset) run on the calling
//! thread, so results are bit-identical for every thread count. The span
//! reduction runs four interleaved `min`/`max` accumulators and falls
//! back to the index-order fold only when an extreme is exactly zero,
//! the one case where regrouping could pick the other signed zero.

use std::collections::HashMap;
use std::ops::Range;
use std::sync::{Arc, Mutex, PoisonError};

use serde::{Deserialize, Serialize};

use seleth_chain::Scenario;

use crate::model::{Action, Fork, MdpConfig, MdpError, MdpState};

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
    space: Arc<StateSpace>,
    ref_state: usize,
    tiles: Vec<Tile>,
    row_groups: Vec<RowGroup>,
    state_groups: Vec<StateGroup>,
    /// Per global slot: its action.
    actions: Vec<Action>,
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
}

/// One tile: the unit of a sweep, sequential or parallel. It writes only
/// `next_v[states]` and `q[slots]`.
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
/// attacker reward, units)`. Reused from tile to tile.
#[derive(Debug, Default)]
struct TilePairs {
    state_pairs: Vec<usize>,
    actions: Vec<Action>,
    pair_outs: Vec<usize>,
    outs: Vec<(f64, u32, f64, f64)>,
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
        space: &StateSpace,
        s: MdpState,
    ) -> Result<(), MdpError> {
        let legal = config.legal_actions(s);
        debug_assert!(!legal.is_empty(), "state {s} has no legal action");
        for action in legal {
            let row_start = self.outs.len();
            for o in config.outcomes(s, action) {
                let Some(&j) = space.index.get(&o.next) else {
                    return Err(MdpError::InvalidSpace {
                        states: space.states.len(),
                        missing: Some(o.next),
                    });
                };
                let u = match config.scenario {
                    Scenario::RegularRate => o.regular,
                    Scenario::RegularPlusUncleRate => o.regular + o.uncles,
                };
                // `build` checked that every index fits a `u32`.
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
            self.actions.push(action);
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
    /// Per row: expected transformed reward at the current ρ candidate,
    /// `base[k] = Σ_t prob[t]·(r[t] − ρ·units[t])`. Computed once per
    /// candidate, so the hot sweep loop streams only `prob`/`succ` and
    /// the value function.
    base: Vec<f64>,
    /// Per slot: the action value `Q(s, a)` of the current sweep.
    q: Vec<f64>,
}

impl ValueWorkspace {
    fn new(mdp: &ExpandedMdp) -> Self {
        ValueWorkspace {
            v: vec![0.0; mdp.len()],
            next_v: vec![0.0; mdp.len()],
            base: Vec::new(),
            q: vec![0.0; mdp.actions.len()],
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
    /// hash-map construction of the whole solve) and compiles every legal
    /// `(state, action)`'s outcomes into tiles.
    fn build(config: &MdpConfig) -> Result<Self, MdpError> {
        let space = Arc::new(StateSpace::new(config.states()));
        let n = space.states.len();
        let invalid = |missing| MdpError::InvalidSpace { states: n, missing };
        if u32::try_from(n).is_err() {
            return Err(invalid(None));
        }
        let origin = MdpState::new(0, 0, Fork::Irrelevant);
        let ref_state = *space.index.get(&origin).ok_or(invalid(Some(origin)))?;
        let mut mdp = ExpandedMdp {
            space: Arc::clone(&space),
            ref_state,
            tiles: Vec::with_capacity(n.div_ceil(PARALLEL_GRAIN)),
            row_groups: Vec::new(),
            state_groups: Vec::new(),
            actions: Vec::new(),
            row_slot: Vec::new(),
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
            mdp.push_tile(states, &pairs);
        }
        Ok(mdp)
    }

    /// Append one tile: number its slots by state group (ascending action
    /// count, states in index order), then lay its rows out by row group
    /// (ascending outcome count, rows in slot order). Counts are small,
    /// so each group is one filtered pass instead of a sort.
    fn push_tile(&mut self, states: Range<usize>, pairs: &TilePairs) {
        if self.tiles.is_empty() {
            // Size the flat arrays from the first tile's density, so they
            // are not regrown (and copied) tile after tile; capacity
            // beyond the final length is never touched.
            let tiles = self.len().div_ceil(states.len());
            let (slots, outs) = (pairs.actions.len() * tiles, pairs.outs.len() * tiles);
            self.actions.reserve(slots);
            self.row_slot.reserve(slots);
            self.prob.reserve(outs);
            self.succ.reserve(outs);
            self.attacker_reward.reserve(outs);
            self.units.reserve(outs);
        }
        let slot_start = self.actions.len();
        let state_groups_start = self.state_groups.len();
        // Tile-local slot → pair.
        let mut slot_pair = Vec::with_capacity(pairs.actions.len());
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
                width => {
                    for (r, (&b, &k)) in base.iter().zip(slot).enumerate() {
                        let mut acc = b;
                        for t in r * width..(r + 1) * width {
                            acc += prob[t] * v[succ[t] as usize];
                        }
                        q[k as usize] = acc;
                    }
                }
            }
        }
    }

    /// The max pass of one tile: for every state, the first strictly
    /// greatest of its slots (`q > best` from `−∞`, in action order).
    /// `sink(local_state, best, slot)` receives the tile-local state, the
    /// value and the tile-local slot of the winner (`None` if no value
    /// beats `−∞`). Action counts 1–4 run with a compile-time trip count.
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

    /// Run `f(tile, q[tile.slots], out[tile.states])` for every tile,
    /// in parallel when the space is large enough. Workers claim whole
    /// tiles from an atomic counter, the claiming rule of the workspace
    /// work queue (`seleth_obs::sched`), so heterogeneous per-state costs
    /// (the action fan-out varies across the space) stay load-balanced at
    /// truncation 200+. Tiles write disjoint ranges and never share
    /// arithmetic, so the result is deterministic for any `threads`; each
    /// tile sits behind an uncontended mutex purely to hand its `&mut`
    /// slices across threads. This is the one queue kept outside
    /// `seleth_obs::sched`: it refills preallocated buffers in place on
    /// every Bellman sweep, where a `Vec`-returning map would allocate
    /// once per sweep.
    fn for_each_tile<T: Send>(
        &self,
        mut q: &mut [f64],
        mut out: &mut [T],
        threads: usize,
        f: impl Fn(&Tile, &mut [f64], &mut [T]) + Sync,
    ) {
        use std::sync::atomic::{AtomicUsize, Ordering};

        let tiles = self.tiles.iter().map(|tile| {
            let (tile_q, rest_q) = std::mem::take(&mut q).split_at_mut(tile.slots.len());
            let (tile_out, rest_out) = std::mem::take(&mut out).split_at_mut(tile.states.len());
            q = rest_q;
            out = rest_out;
            (tile, tile_q, tile_out)
        });
        let threads = threads.min(self.tiles.len());
        if threads <= 1 || self.len() < PARALLEL_MIN_STATES {
            for (tile, tile_q, tile_out) in tiles {
                f(tile, tile_q, tile_out);
            }
            return;
        }
        let tiles: Vec<Mutex<_>> = tiles.map(Mutex::new).collect();
        let next = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..threads {
                let (tiles, next, f) = (&tiles, &next, &f);
                scope.spawn(move || loop {
                    let k = next.fetch_add(1, Ordering::Relaxed);
                    let Some(tile) = tiles.get(k) else { break };
                    // Each tile is claimed and locked exactly once, and a
                    // worker's panic resurfaces when the scope joins, so
                    // recovering a poisoned guard never exposes a
                    // half-written tile.
                    let mut tile = tile.lock().unwrap_or_else(PoisonError::into_inner);
                    let (tile, tile_q, tile_out) = &mut *tile;
                    f(tile, tile_q, tile_out);
                });
            }
        });
    }

    /// One Bellman sweep: `next_v[i] = max_a Q(i, a)` for every state,
    /// from `ws.base` and `ws.v`.
    fn bellman_sweep(&self, ws: &mut ValueWorkspace, threads: usize) {
        let ValueWorkspace { v, next_v, base, q } = ws;
        let (v, base) = (&*v, &*base);
        self.for_each_tile(q, next_v, threads, |tile, q, next_v| {
            self.tile_q(tile, base, v, q);
            self.tile_best(tile, q, |s, best, _| next_v[s] = best);
        });
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
        let max_sweeps = 200_000;
        self.fill_base(rho, &mut ws.base);
        for sweep in 0..max_sweeps {
            self.bellman_sweep(ws, threads);
            // Span seminorm of the Bellman update, reduced on this thread
            // whatever the sweep's thread count.
            let (min_d, max_d) = update_range(&ws.next_v, &ws.v);
            let offset = ws.next_v[self.ref_state];
            for (v, &next) in ws.v.iter_mut().zip(&ws.next_v) {
                *v = next - offset;
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

    /// Extract the greedy policy from `ws.v` and the reward bases of the
    /// final ρ through the sweep kernel (deterministic: ties break by
    /// action-enumeration order in every tiling).
    fn greedy_policy(&self, ws: &mut ValueWorkspace, threads: usize) -> Vec<Action> {
        let mut policy = vec![Action::Adopt; self.len()];
        let ValueWorkspace { v, base, q, .. } = ws;
        let (v, base) = (&*v, &*base);
        self.for_each_tile(q, &mut policy, threads, |tile, q, policy| {
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
        self.validate()?;
        let threads = self.resolved_threads();
        let expanded = ExpandedMdp::build(self)?;
        let mut ws = ValueWorkspace::new(&expanded);
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
            stats.record(sweeps, span);
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
        let actions = expanded.greedy_policy(&mut ws, threads);
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
    /// `Σ p·(r − ρ·units) + Σ p·v[succ]`, and the first strictly greatest.
    fn csr_backup(config: &MdpConfig, rho: f64, v: &[f64]) -> (Vec<f64>, Vec<Action>) {
        let states = config.states();
        let index: HashMap<MdpState, usize> =
            states.iter().enumerate().map(|(i, &s)| (s, i)).collect();
        states
            .iter()
            .map(|&s| {
                let mut best = f64::NEG_INFINITY;
                let mut best_action = Action::Adopt;
                for action in config.legal_actions(s) {
                    let outcomes = config.outcomes(s, action);
                    let mut q = 0.0;
                    for o in &outcomes {
                        let units = match config.scenario {
                            Scenario::RegularRate => o.regular,
                            Scenario::RegularPlusUncleRate => o.regular + o.uncles,
                        };
                        q += o.prob * (o.attacker_reward - rho * units);
                    }
                    for o in &outcomes {
                        q += o.prob * v[index[&o.next]];
                    }
                    if q > best {
                        best = q;
                        best_action = action;
                    }
                }
                (best, best_action)
            })
            .unzip()
    }

    /// One tile-kernel sweep and greedy extraction from a pseudo-random
    /// value function, checked bit for bit against [`csr_backup`].
    fn assert_kernel_matches_csr(config: &MdpConfig, threads: usize, seed: u64) {
        let expanded = ExpandedMdp::build(config).unwrap();
        let mut ws = ValueWorkspace::new(&expanded);
        let mut state = seed;
        for x in &mut ws.v {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            *x = (state >> 11) as f64 / (1u64 << 53) as f64 * 40.0 - 20.0;
        }
        let rho = 0.25 + (seed % 7) as f64 * 0.05;
        expanded.fill_base(rho, &mut ws.base);
        expanded.bellman_sweep(&mut ws, threads);
        let (want_v, want_actions) = csr_backup(config, rho, &ws.v);
        let same_v = ws
            .next_v
            .iter()
            .zip(&want_v)
            .all(|(a, b)| a.to_bits() == b.to_bits());
        assert!(same_v, "{config:?}: sweep differs from the CSR backup");
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
