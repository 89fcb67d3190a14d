//! Executable policy artifacts: compact, versioned, replayable tables.
//!
//! A solved [`crate::Policy`] is index-backed but tied to the solver's
//! in-memory state enumeration. This module lowers it into a
//! [`PolicyTable`] — one dense action array over an explicit
//! [`StateSpace`] descriptor, plus the metadata needed to reproduce and
//! audit the solve (α, γ, reward model, scenario, truncation, predicted
//! revenue ρ*). The table is what the simulator replays ([`seleth-sim`]'s
//! `PoolStrategy::Table`): lookups are pure arithmetic over a flat array,
//! no hashing, no allocation.
//!
//! # State spaces
//!
//! The state space is part of the artifact, not an assumption baked into
//! the storage layout. A [`StateSpace`] records its axes:
//!
//! - the **classic** three-axis shape `(fork, a, h)` — the
//!   Sapirshtein-style Bitcoin abstraction every pre-v2 artifact used;
//! - optionally a fourth **`match_d`** axis (the published-prefix
//!   reference distance, with an explicit bound): the Ethereum MDP's
//!   fourth state component, which decides uncle eligibility.
//!
//! Storage is a single flat array addressed by a computed strided
//! indexer ([`StateSpace::index`]), row-major over
//! `fork → match_d → a → h`.
//!
//! # Artifact format
//!
//! Tables serialize to a single flat JSON object. Three-axis tables write
//! **format 1** — one action-code string per fork label (`a` = adopt,
//! `o` = override, `m` = match, `w` = wait; row-major,
//! `index = a · (max_len + 1) + h`) — byte-identical to every artifact
//! produced before the state space became explicit, so pre-existing
//! files load and re-save losslessly. Tables with a `match_d` axis, or
//! any table solved against a non-zero propagation delay, write
//! **format 2** ([`FORMAT_VERSION`]): an explicit `dims` array naming
//! every axis with its size (e.g. `["fork:3", "match_d:8", "a:31",
//! "h:31"]`, or the three-axis `["fork:3", "a:201", "h:201"]` for
//! delay-aware Bitcoin tables) and a single `actions` string of
//! `∏ dims` codes in storage order. Hand-written tables may additionally
//! carry a strategy-family name ([`PolicyTable::with_family`]), written
//! as an optional `family` field; delay-aware tables record their delay
//! ratio in an optional `delay` field. Floats are written with Rust's shortest round-trip formatting,
//! so save → load is bit-identical. The reader is the workspace JSON
//! parser ([`seleth_obs::parse_json`]): fields may come in any order,
//! unknown fields of any JSON type are ignored, and a backslash escape
//! anywhere is rejected, because the artifact grammar is escape-free.
//!
//! # Lowering
//!
//! [`RewardModel::Bitcoin`] policies carry no published-prefix distance;
//! they lower to the classic shape and the lowering is exact.
//! [`RewardModel::EthereumApprox`] policies condition on the
//! first-reference distance of a published prefix; since format 2 they
//! lower to a four-axis table **without projection** — every
//! `(a, h, fork, match_d)` slice of the optimum is preserved, so replay
//! of an Ethereum-model table plays the same action the MDP optimum
//! plays in every reachable state (cross-validated against ρ* in
//! `tests/policy_playback.rs`, gated exactly like the Bitcoin points).
//!
//! [`seleth-sim`]: https://docs.rs/seleth-sim

use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;
use std::fs;
use std::path::Path;

use serde::{Deserialize, Serialize};

use seleth_chain::Scenario;
use seleth_obs::{parse_json, JsonValue};

use crate::model::{Action, Fork, MdpConfig, MdpState, RewardModel, MATCH_D_CAP};
use crate::solver::Solution;

/// Newest artifact format version this build writes and reads. Classic
/// three-axis tables still serialize as format 1 (byte-identical with
/// pre-v2 artifacts); tables with a `match_d` axis serialize as format 2.
pub const FORMAT_VERSION: u32 = 2;

/// The format version of classic three-axis artifacts.
const FORMAT_V1: u32 = 1;

/// Artifact kind tag, so unrelated JSON files fail loudly on load.
const KIND: &str = "seleth-policy";

/// Upper bound accepted for `max_len` when parsing (keeps hostile inputs
/// from requesting absurd allocations).
const MAX_LEN_LIMIT: u32 = 4096;

/// Error raised by [`PolicyTable`] parsing and I/O.
#[derive(Debug)]
pub enum PolicyError {
    /// Reading or writing the artifact file failed.
    Io {
        /// The file involved.
        path: String,
        /// The underlying I/O error.
        source: std::io::Error,
    },
    /// The artifact text is not a valid policy table.
    Parse(String),
}

impl fmt::Display for PolicyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PolicyError::Io { path, source } => write!(f, "policy I/O on {path}: {source}"),
            PolicyError::Parse(msg) => write!(f, "policy parse error: {msg}"),
        }
    }
}

impl Error for PolicyError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            PolicyError::Io { source, .. } => Some(source),
            PolicyError::Parse(_) => None,
        }
    }
}

/// The explicit state-space descriptor of a [`PolicyTable`]: which axes
/// the table covers and how `(a, h, fork, match_d)` maps to a flat slot.
///
/// Two shapes exist:
///
/// - [`StateSpace::classic`] — the three-axis `(fork, a, h)` space of
///   Bitcoin-model tables and every pre-v2 artifact. The `match_d`
///   coordinate is ignored by the indexer.
/// - [`StateSpace::with_match_d`] — the four-axis space carrying the
///   published-prefix reference distance `0..=bound` explicitly, which
///   makes Ethereum-model lowering (and playback) exact.
///
/// Storage order is row-major over `fork → match_d → a → h`; the axes
/// (with sizes) are reported by [`StateSpace::dims`] and recorded
/// verbatim in format-2 artifacts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct StateSpace {
    max_len: u32,
    /// `None` for the classic three-axis shape; `Some(bound)` adds a
    /// `match_d ∈ 0..=bound` axis.
    match_d_bound: Option<u8>,
}

impl StateSpace {
    /// The classic three-axis space `(fork, a, h)` with `a, h ≤ max_len`.
    pub fn classic(max_len: u32) -> Self {
        StateSpace {
            max_len,
            match_d_bound: None,
        }
    }

    /// The four-axis space with an explicit `match_d ∈ 0..=bound` axis.
    ///
    /// The MDP's own bound is [`MATCH_D_CAP`] (rewards vanish beyond
    /// distance 6, so larger live distances are stored clamped).
    ///
    /// # Panics
    ///
    /// Panics when `bound == 0` — a zero-width distance axis is the
    /// classic shape; use [`StateSpace::classic`].
    pub fn with_match_d(max_len: u32, bound: u8) -> Self {
        assert!(bound >= 1, "a match_d axis needs bound >= 1");
        StateSpace {
            max_len,
            match_d_bound: Some(bound),
        }
    }

    /// The four-axis space at the MDP's own distance bound
    /// ([`MATCH_D_CAP`]) — the shape [`PolicyTable::from_solution`] uses
    /// for Ethereum-model solves.
    pub fn ethereum(max_len: u32) -> Self {
        Self::with_match_d(max_len, MATCH_D_CAP)
    }

    /// Truncation: the space covers `a, h ≤ max_len`.
    pub fn max_len(&self) -> u32 {
        self.max_len
    }

    /// The `match_d` axis bound, or `None` for the classic shape.
    pub fn match_d_bound(&self) -> Option<u8> {
        self.match_d_bound
    }

    /// `true` when the space carries the `match_d` axis.
    pub fn has_match_d(&self) -> bool {
        self.match_d_bound.is_some()
    }

    fn side(&self) -> usize {
        (self.max_len + 1) as usize
    }

    fn d_size(&self) -> usize {
        self.match_d_bound.map_or(1, |b| b as usize + 1)
    }

    /// The axes in storage order, each with its size — what a format-2
    /// artifact records in its `dims` field.
    pub fn dims(&self) -> Vec<(&'static str, usize)> {
        let side = self.side();
        match self.match_d_bound {
            None => vec![("fork", 3), ("a", side), ("h", side)],
            Some(_) => vec![
                ("fork", 3),
                ("match_d", self.d_size()),
                ("a", side),
                ("h", side),
            ],
        }
    }

    /// Total number of action slots (`∏` of the axis sizes).
    pub fn len(&self) -> usize {
        3 * self.d_size() * self.side() * self.side()
    }

    /// `true` if the space covers no slots (never: every space covers at
    /// least `a = h = 0`).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The `match_d` value an epoch's *first* match fixes when the
    /// honest branch has length `h`: the published prefix's first block
    /// will be referenced at exactly that distance, capped at
    /// [`MATCH_D_CAP`] where rewards vanish. This is the single
    /// first-match rule of the replay executor (`seleth-sim`'s private
    /// fork, shared by both simulators), mirroring the MDP's own
    /// transition dynamics — kept here, next to [`PolicyTable::decide`],
    /// so the executor cannot drift from the solver.
    /// Re-matches keep the previously fixed distance; callers apply this
    /// only when no prefix is public yet (`match_d == 0`).
    #[inline]
    pub fn first_match_d(h: u32) -> u8 {
        u8::try_from(h).unwrap_or(MATCH_D_CAP).clamp(1, MATCH_D_CAP)
    }

    /// The flat slot of `(a, h, fork, match_d)`, or `None` outside the
    /// truncated region. On the classic shape `match_d` is ignored; on
    /// the four-axis shape live distances beyond the bound are clamped to
    /// it (the MDP stores capped distances the same way).
    #[inline]
    pub fn index(&self, a: u32, h: u32, fork: Fork, match_d: u8) -> Option<usize> {
        if a > self.max_len || h > self.max_len {
            return None;
        }
        let side = self.side();
        let d_size = self.d_size();
        let fork_idx = match fork {
            Fork::Irrelevant => 0usize,
            Fork::Relevant => 1,
            Fork::Active => 2,
        };
        let d = (match_d as usize).min(d_size - 1);
        Some(((fork_idx * d_size + d) * side + a as usize) * side + h as usize)
    }
}

/// A dense, replayable withholding policy: `(a, h, fork[, match_d]) →
/// Action` over an explicit [`StateSpace`], plus solve metadata.
///
/// Construct by lowering a solve ([`PolicyTable::from_solution`]), from a
/// closure over the state space ([`PolicyTable::from_fn`], or the
/// three-axis compat entry [`PolicyTable::from_fn3`]), as the honest
/// baseline ([`PolicyTable::honest`]), or by loading an artifact
/// ([`PolicyTable::load`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PolicyTable {
    alpha: f64,
    gamma: f64,
    rewards: RewardModel,
    scenario: Scenario,
    space: StateSpace,
    revenue: f64,
    /// Propagation-delay ratio (delay / mean block interval) the policy
    /// was solved against — `0.0` for the classic zero-delay kernel.
    /// Serialized (as a `delay` field) only when non-zero, so
    /// pre-existing artifacts stay byte-identical; any non-zero value
    /// forces the self-describing format 2, since format 1's grammar
    /// predates the field.
    delay: f64,
    /// Name of the strategy family (plus parameters) this table encodes —
    /// e.g. `sm1` or `lead_stubborn_l2` for hand-written strategies from
    /// the zoo's generators. Empty for unnamed tables (solver lowerings,
    /// artifacts predating the field); serialized only when non-empty, so
    /// pre-existing artifacts stay byte-identical.
    family: String,
    /// One action per [`StateSpace`] slot, in storage order.
    actions: Vec<Action>,
}

impl PolicyTable {
    /// Lower a solved policy into a dense table.
    ///
    /// `config` must be the configuration `solution` was solved with (the
    /// table records its α, γ, reward model, scenario and truncation).
    /// Bitcoin-model solves lower to the classic three-axis shape (their
    /// MDP collapses the distance dimension); Ethereum-model solves lower
    /// to the four-axis shape **without projection** — every `match_d`
    /// slice of the optimum is preserved.
    pub fn from_solution(config: &MdpConfig, solution: &Solution) -> Self {
        let delay = config.delay_ratio;
        let policy = &solution.policy;
        let space = match config.rewards {
            RewardModel::Bitcoin => StateSpace::classic(config.max_len),
            RewardModel::EthereumApprox => StateSpace::ethereum(config.max_len),
        };
        let classic = !space.has_match_d();
        let lookup = |a: u32, h: u32, fork: Fork, d: u8| -> Action {
            let state = match fork {
                Fork::Irrelevant | Fork::Relevant => MdpState::new(a, h, fork).with_match_d(d),
                // Bitcoin collapses the active distance to a canonical 1;
                // the four-axis space asks for each distance explicitly.
                Fork::Active => MdpState::active(a, h, if classic { 1 } else { d }),
            };
            // Slots for states outside the MDP's space (relevant/active
            // with h = 0, active with a < h or d = 0, a prefix distance
            // without blocks on both sides) are unreachable in replay;
            // fill them with the always-safe resolution.
            policy.action(state).unwrap_or(Action::Adopt)
        };
        Self::from_fn(
            config.alpha,
            config.gamma,
            config.rewards,
            config.scenario,
            space,
            solution.revenue,
            lookup,
        )
        .with_delay(delay)
    }

    /// Build a table from an arbitrary `(a, h, fork, match_d) → Action`
    /// rule over an explicit [`StateSpace`] — the state-space-generic
    /// constructor behind every lowering. On the classic shape the
    /// closure is called with `match_d = 0` only. `revenue` records the
    /// strategy's *predicted* objective value (use the honest baseline
    /// `α` when no prediction exists).
    pub fn from_fn(
        alpha: f64,
        gamma: f64,
        rewards: RewardModel,
        scenario: Scenario,
        space: StateSpace,
        revenue: f64,
        mut f: impl FnMut(u32, u32, Fork, u8) -> Action,
    ) -> Self {
        let mut actions = Vec::with_capacity(space.len());
        let d_bound = space.match_d_bound().unwrap_or(0);
        for fork in [Fork::Irrelevant, Fork::Relevant, Fork::Active] {
            for d in 0..=d_bound {
                for a in 0..=space.max_len {
                    for h in 0..=space.max_len {
                        actions.push(f(a, h, fork, d));
                    }
                }
            }
        }
        PolicyTable {
            alpha,
            gamma,
            rewards,
            scenario,
            space,
            revenue,
            delay: 0.0,
            family: String::new(),
            actions,
        }
    }

    /// Build a classic three-axis table from an `(a, h, fork) → Action`
    /// rule — the single compat entry point for the pre-v2 shape, kept
    /// for hand-written rules that never condition on the prefix
    /// distance. Equivalent to [`PolicyTable::from_fn`] over
    /// [`StateSpace::classic`] with the distance coordinate ignored.
    pub fn from_fn3(
        alpha: f64,
        gamma: f64,
        rewards: RewardModel,
        scenario: Scenario,
        max_len: u32,
        revenue: f64,
        mut f: impl FnMut(u32, u32, Fork) -> Action,
    ) -> Self {
        Self::from_fn(
            alpha,
            gamma,
            rewards,
            scenario,
            StateSpace::classic(max_len),
            revenue,
            |a, h, fork, _| f(a, h, fork),
        )
    }

    /// Tag the table with a strategy-family name (e.g. `trail_stubborn_t1`
    /// from the zoo's generators). The name survives the JSON round-trip.
    ///
    /// # Panics
    ///
    /// Panics when `family` contains characters the escape-free artifact
    /// string format cannot carry (`"`, `\`, control characters).
    #[must_use]
    pub fn with_family(mut self, family: impl Into<String>) -> Self {
        let family = family.into();
        assert!(
            !family
                .chars()
                .any(|c| c == '"' || c == '\\' || c.is_control()),
            "family name {family:?} needs escaping, which the artifact format forbids"
        );
        self.family = family;
        self
    }

    /// Tag the table with the propagation-delay ratio it was solved
    /// against (delay / mean block interval; see
    /// [`MdpConfig::with_delay_ratio`]). [`PolicyTable::from_solution`]
    /// copies the ratio from the config automatically; this builder is
    /// for hand-constructed tables. A non-zero ratio forces the
    /// self-describing format 2 on serialization.
    ///
    /// # Panics
    ///
    /// Panics when `delay` is negative or non-finite — those never come
    /// out of a validated solve.
    #[must_use]
    pub fn with_delay(mut self, delay: f64) -> Self {
        assert!(
            delay.is_finite() && delay >= 0.0,
            "delay ratio {delay} must be finite and non-negative"
        );
        self.delay = delay;
        self
    }

    /// The honest-mining baseline as a table ([`crate::rules::honest`]):
    /// publish (override) any private lead immediately, adopt whenever
    /// behind or tied. Replaying it earns exactly the fair share `α`,
    /// which is what the `revenue` field records.
    pub fn honest(alpha: f64, gamma: f64, max_len: u32) -> Self {
        Self::from_fn3(
            alpha,
            gamma,
            RewardModel::Bitcoin,
            Scenario::RegularRate,
            max_len,
            alpha,
            |a, h, _| crate::rules::honest(a, h),
        )
    }

    /// Attacker hash-power fraction the policy was solved for.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Tie-breaking parameter the policy was solved for.
    pub fn gamma(&self) -> f64 {
        self.gamma
    }

    /// Reward semantics of the solve.
    pub fn rewards(&self) -> RewardModel {
        self.rewards
    }

    /// Difficulty-adjustment scenario of the solve's objective.
    pub fn scenario(&self) -> Scenario {
        self.scenario
    }

    /// The explicit state-space descriptor: axes, bounds, slot count.
    pub fn state_space(&self) -> StateSpace {
        self.space
    }

    /// Truncation: the table covers `a, h ≤ max_len`.
    pub fn max_len(&self) -> u32 {
        self.space.max_len()
    }

    /// The solver-predicted optimal revenue ρ* (the replay target).
    pub fn predicted_revenue(&self) -> f64 {
        self.revenue
    }

    /// The propagation-delay ratio the policy was solved against —
    /// `0.0` for classic zero-delay artifacts.
    pub fn delay(&self) -> f64 {
        self.delay
    }

    /// The strategy-family name set via [`PolicyTable::with_family`], or
    /// `""` for unnamed tables.
    pub fn family(&self) -> &str {
        &self.family
    }

    /// Number of stored action slots ([`StateSpace::len`]).
    pub fn len(&self) -> usize {
        self.actions.len()
    }

    /// `true` if the table covers no states (never produced by the
    /// constructors; tables always cover at least `a = h = 0`).
    pub fn is_empty(&self) -> bool {
        self.actions.is_empty()
    }

    /// The action prescribed in `(a, h, fork, match_d)`, or `None` when
    /// the state lies outside the truncated region — the replay
    /// executor's documented fallback is then a forced *adopt*. Classic
    /// tables ignore `match_d` (pass the live distance anyway; the
    /// indexer projects it).
    #[inline]
    pub fn action(&self, a: u32, h: u32, fork: Fork, match_d: u8) -> Option<Action> {
        self.space
            .index(a, h, fork, match_d)
            .map(|i| self.actions[i])
    }

    /// The action an event-driven replay executor should take in the live
    /// state `(a, h, fork, match_d)`, with the documented fallback
    /// semantics resolved: states outside the truncated region, and
    /// prescriptions that are illegal in the live state (*override*
    /// without a strictly longer private chain, *match* without a
    /// relevant race of length `h ≥ 1` it can cover), degrade to the
    /// always-legal forced *adopt*. Legality never depends on `match_d`;
    /// the distance only selects the slice consulted.
    ///
    /// On the truncation boundary (`a == max_len` or `h == max_len`) the
    /// executors mirror the solver's own boundary rule exactly: the MDP
    /// removes *wait* and *match* from the legal set there (growing
    /// either chain would leave the truncated space), so a stored
    /// *wait*/*match* at the boundary degrades to the forced *adopt* —
    /// one slot earlier than the out-of-region fallback, which is the
    /// point: the replayed chain state never escapes the region the
    /// policy was solved on.
    ///
    /// This is the single decision procedure shared by every executor that
    /// replays artifacts over real block trees (the instant-broadcast
    /// engine's `PoolStrategy::Table` and the propagation-delay
    /// simulator's strategic miners), so fallback behaviour cannot drift
    /// between them. Corrupt or hand-written tables therefore never make a
    /// replay panic — at worst they concede epochs.
    #[inline]
    pub fn decide(&self, a: u32, h: u32, fork: Fork, match_d: u8) -> Action {
        let at_boundary = a >= self.max_len() || h >= self.max_len();
        match self.action(a, h, fork, match_d) {
            Some(Action::Override) if a > h => Action::Override,
            Some(Action::Match) if !at_boundary && fork == Fork::Relevant && a >= h && h >= 1 => {
                Action::Match
            }
            Some(Action::Wait) if !at_boundary => Action::Wait,
            // Out-of-table states, boundary holds and illegal
            // prescriptions fall back to the always-legal resolution.
            _ => Action::Adopt,
        }
    }

    /// Audit the whole truncation region across every axis: `true` iff
    /// [`PolicyTable::decide`] returns every stored prescription
    /// unchanged — no slot is an illegal *override* (without a lead) or
    /// *match* (outside a coverable relevant race), so a replay inside
    /// the region never hits the forced-adopt fallback.
    ///
    /// Solver lowerings and the zoo's strategy-family generators must
    /// pass this audit; corrupt or adversarial tables (which executors
    /// tolerate by degrading to adopt) are flagged by it. This is the
    /// single legality check tests should use instead of re-deriving the
    /// fallback rules ad hoc.
    pub fn is_legal_everywhere(&self) -> bool {
        let d_bound = self.space.match_d_bound().unwrap_or(0);
        [Fork::Irrelevant, Fork::Relevant, Fork::Active]
            .into_iter()
            .all(|fork| {
                (0..=d_bound).all(|d| {
                    (0..=self.max_len()).all(|a| {
                        (0..=self.max_len()).all(|h| {
                            self.action(a, h, fork, d)
                                .is_some_and(|stored| self.decide(a, h, fork, d) == stored)
                        })
                    })
                })
            })
    }

    // ------------------------------------------------------------------
    // Serialization: written by hand, read through `seleth_obs::parse_json`
    // ------------------------------------------------------------------

    /// Render the artifact JSON: format 1 for classic three-axis
    /// zero-delay tables (byte-identical with pre-v2 artifacts), format 2
    /// — explicit `dims`, single `actions` string — for tables with a
    /// `match_d` axis *or* a non-zero delay ratio (the `delay` field
    /// postdates format 1's grammar, so delay-aware tables always write
    /// the self-describing format). Floats use Rust's shortest
    /// round-trip formatting, so [`PolicyTable::from_json`] restores
    /// them bit-identically.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(self.actions.len() + 512);
        out.push_str("{\n");
        out.push_str(&format!("  \"kind\": \"{KIND}\",\n"));
        let format = if self.space.has_match_d() || self.delay != 0.0 {
            FORMAT_VERSION
        } else {
            FORMAT_V1
        };
        out.push_str(&format!("  \"format\": {format},\n"));
        out.push_str(&format!("  \"alpha\": {},\n", self.alpha));
        out.push_str(&format!("  \"gamma\": {},\n", self.gamma));
        let rewards = match self.rewards {
            RewardModel::Bitcoin => "bitcoin",
            RewardModel::EthereumApprox => "ethereum_approx",
        };
        out.push_str(&format!("  \"rewards\": \"{rewards}\",\n"));
        let scenario = match self.scenario {
            Scenario::RegularRate => "regular_rate",
            Scenario::RegularPlusUncleRate => "regular_plus_uncle_rate",
        };
        out.push_str(&format!("  \"scenario\": \"{scenario}\",\n"));
        out.push_str(&format!("  \"max_len\": {},\n", self.max_len()));
        out.push_str(&format!("  \"revenue\": {},\n", self.revenue));
        // Written only when non-zero / non-empty: artifacts predating
        // these fields stay byte-identical across a load/save cycle.
        if self.delay != 0.0 {
            out.push_str(&format!("  \"delay\": {},\n", self.delay));
        }
        if !self.family.is_empty() {
            out.push_str(&format!("  \"family\": \"{}\",\n", self.family));
        }
        if format == FORMAT_VERSION {
            let dims: Vec<String> = self
                .space
                .dims()
                .into_iter()
                .map(|(name, size)| format!("\"{name}:{size}\""))
                .collect();
            out.push_str(&format!("  \"dims\": [{}],\n", dims.join(", ")));
            out.push_str("  \"actions\": \"");
            for &action in &self.actions {
                out.push(encode_action(action));
            }
            out.push_str("\",\n");
        } else {
            let slice = self.space.side() * self.space.side();
            for (name, chunk) in ["irrelevant", "relevant", "active"]
                .into_iter()
                .zip(self.actions.chunks(slice))
            {
                out.push_str(&format!("  \"{name}\": \""));
                for &action in chunk {
                    out.push(encode_action(action));
                }
                out.push_str("\",\n");
            }
        }
        // Replace the trailing comma of the last field.
        out.truncate(out.len() - 2);
        out.push_str("\n}\n");
        out
    }

    /// Parse an artifact produced by [`PolicyTable::to_json`] — either
    /// format version — through [`seleth_obs::parse_json`].
    ///
    /// # Errors
    ///
    /// [`PolicyError::Parse`] on malformed JSON (including anything but
    /// whitespace after the closing `}`), a document that is not an
    /// object, a backslash escape anywhere, a known field of the wrong
    /// JSON type, a wrong `kind`/`format` tag, missing fields, a `dims`
    /// descriptor the indexer cannot honour, or action strings whose
    /// length disagrees with the declared state space.
    pub fn from_json(text: &str) -> Result<Self, PolicyError> {
        // The artifact grammar is escape-free, so a loaded `family` always
        // re-saves byte-identically. A backslash can only appear inside a
        // JSON string, so one scan of the text enforces that.
        if text.contains('\\') {
            return Err(PolicyError::Parse(
                "escape sequences are not part of the artifact format".into(),
            ));
        }
        let mut map = match parse_json(text) {
            Ok(JsonValue::Object(map)) => map,
            Ok(_) => return Err(PolicyError::Parse("artifact is not a JSON object".into())),
            Err(e) => return Err(PolicyError::Parse(e.to_string())),
        };
        // Every known field is read with its JSON type up front, so a
        // mistyped field fails whichever format the artifact declares.
        let kind = take(&mut map, "kind", string)?;
        let format = take(&mut map, "format", number)?;
        let alpha = take(&mut map, "alpha", number)?;
        let gamma = take(&mut map, "gamma", number)?;
        let rewards = take(&mut map, "rewards", string)?;
        let scenario = take(&mut map, "scenario", string)?;
        let max_len = take(&mut map, "max_len", number)?;
        let revenue = take(&mut map, "revenue", number)?;
        let delay = take(&mut map, "delay", number)?;
        let family = take(&mut map, "family", string)?;
        let dims = take(&mut map, "dims", strings)?;
        let flat_actions = take(&mut map, "actions", string)?;
        let irrelevant = take(&mut map, "irrelevant", string)?;
        let relevant = take(&mut map, "relevant", string)?;
        let active = take(&mut map, "active", string)?;

        let missing = |field: &str| PolicyError::Parse(format!("missing field `{field}`"));
        let kind = kind.ok_or_else(|| missing("kind"))?;
        if kind != KIND {
            return Err(PolicyError::Parse(format!("kind `{kind}` is not `{KIND}`")));
        }
        let format = format.ok_or_else(|| missing("format"))?;
        if format != f64::from(FORMAT_V1) && format != f64::from(FORMAT_VERSION) {
            return Err(PolicyError::Parse(format!(
                "unsupported format version {format} (expected {FORMAT_V1} or {FORMAT_VERSION})"
            )));
        }
        let max_len_f = max_len.ok_or_else(|| missing("max_len"))?;
        if !(0.0..=f64::from(MAX_LEN_LIMIT)).contains(&max_len_f) || max_len_f.fract() != 0.0 {
            return Err(PolicyError::Parse(format!("bad max_len {max_len_f}")));
        }
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let max_len = max_len_f as u32;
        let rewards = match rewards.ok_or_else(|| missing("rewards"))?.as_str() {
            "bitcoin" => RewardModel::Bitcoin,
            "ethereum_approx" => RewardModel::EthereumApprox,
            other => {
                return Err(PolicyError::Parse(format!(
                    "unknown reward model `{other}`"
                )));
            }
        };
        let scenario = match scenario.ok_or_else(|| missing("scenario"))?.as_str() {
            "regular_rate" => Scenario::RegularRate,
            "regular_plus_uncle_rate" => Scenario::RegularPlusUncleRate,
            other => {
                return Err(PolicyError::Parse(format!("unknown scenario `{other}`")));
            }
        };

        let delay = delay.unwrap_or(0.0);
        if !delay.is_finite() || delay < 0.0 {
            return Err(PolicyError::Parse(format!("bad delay ratio {delay}")));
        }
        if delay != 0.0 && format == f64::from(FORMAT_V1) {
            return Err(PolicyError::Parse(
                "format-1 artifacts cannot carry a delay field".into(),
            ));
        }

        // Validate every declared length before allocating anything sized
        // by the artifact's own claims.
        let (space, texts) = if format == f64::from(FORMAT_V1) {
            let space = StateSpace::classic(max_len);
            let slice = space.side() * space.side();
            let mut texts = Vec::new();
            for (name, text) in [
                ("irrelevant", irrelevant),
                ("relevant", relevant),
                ("active", active),
            ] {
                let text = text.ok_or_else(|| missing(name))?;
                if text.len() != slice {
                    return Err(PolicyError::Parse(format!(
                        "table `{name}` has {} slots, expected {slice}",
                        text.len()
                    )));
                }
                texts.push(text);
            }
            (space, texts)
        } else {
            let dims = dims.ok_or_else(|| missing("dims"))?;
            let space = parse_dims(&dims, max_len)?;
            let text = flat_actions.ok_or_else(|| missing("actions"))?;
            if text.len() != space.len() {
                return Err(PolicyError::Parse(format!(
                    "actions has {} slots, dims declare {}",
                    text.len(),
                    space.len()
                )));
            }
            (space, vec![text])
        };
        let mut actions = Vec::with_capacity(space.len());
        for text in &texts {
            for byte in text.bytes() {
                actions.push(match byte {
                    b'a' => Action::Adopt,
                    b'o' => Action::Override,
                    b'm' => Action::Match,
                    b'w' => Action::Wait,
                    other => return Err(unknown_action(other)),
                });
            }
        }

        Ok(PolicyTable {
            alpha: alpha.ok_or_else(|| missing("alpha"))?,
            gamma: gamma.ok_or_else(|| missing("gamma"))?,
            rewards,
            scenario,
            space,
            revenue: revenue.ok_or_else(|| missing("revenue"))?,
            delay,
            family: family.unwrap_or_default(),
            actions,
        })
    }

    /// Write the artifact to `path`, creating parent directories.
    ///
    /// # Errors
    ///
    /// [`PolicyError::Io`] on filesystem failure.
    pub fn save(&self, path: &Path) -> Result<(), PolicyError> {
        let io_err = |source| PolicyError::Io {
            path: path.display().to_string(),
            source,
        };
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                fs::create_dir_all(parent).map_err(io_err)?;
            }
        }
        fs::write(path, self.to_json()).map_err(io_err)
    }

    /// Load an artifact written by [`PolicyTable::save`].
    ///
    /// # Errors
    ///
    /// [`PolicyError::Io`] on filesystem failure, [`PolicyError::Parse`]
    /// on malformed content.
    pub fn load(path: &Path) -> Result<Self, PolicyError> {
        let text = fs::read_to_string(path).map_err(|source| PolicyError::Io {
            path: path.display().to_string(),
            source,
        })?;
        Self::from_json(&text)
    }
}

/// Reconstruct a [`StateSpace`] from a format-2 `dims` descriptor,
/// cross-checking it against the artifact's `max_len`.
fn parse_dims(dims: &[String], max_len: u32) -> Result<StateSpace, PolicyError> {
    let mut parsed = Vec::with_capacity(dims.len());
    for entry in dims {
        let (name, size) = entry
            .split_once(':')
            .ok_or_else(|| PolicyError::Parse(format!("malformed dims entry `{entry}`")))?;
        let size: usize = size
            .parse()
            .map_err(|_| PolicyError::Parse(format!("bad axis size in `{entry}`")))?;
        parsed.push((name, size));
    }
    let side = (max_len + 1) as usize;
    match parsed.as_slice() {
        // Classic three-axis tables appear in format 2 when they carry
        // post-v1 metadata (a delay ratio).
        [("fork", 3), ("a", a), ("h", h)] => {
            if *a != side || *h != side {
                return Err(PolicyError::Parse(format!(
                    "dims disagree with max_len {max_len}: a:{a}, h:{h}"
                )));
            }
            Ok(StateSpace::classic(max_len))
        }
        [("fork", 3), ("match_d", d), ("a", a), ("h", h)] => {
            if *a != side || *h != side {
                return Err(PolicyError::Parse(format!(
                    "dims disagree with max_len {max_len}: a:{a}, h:{h}"
                )));
            }
            let bound = d
                .checked_sub(1)
                .and_then(|b| u8::try_from(b).ok())
                .filter(|&b| b >= 1)
                .ok_or_else(|| {
                    PolicyError::Parse(format!("match_d axis size {d} outside 2..=256"))
                })?;
            Ok(StateSpace::with_match_d(max_len, bound))
        }
        _ => Err(PolicyError::Parse(format!(
            "unsupported dims descriptor {dims:?}"
        ))),
    }
}

fn encode_action(action: Action) -> char {
    match action {
        Action::Adopt => 'a',
        Action::Override => 'o',
        Action::Match => 'm',
        Action::Wait => 'w',
    }
}

#[cold]
fn unknown_action(byte: u8) -> PolicyError {
    PolicyError::Parse(format!("unknown action code `{}`", char::from(byte)))
}

/// Move field `key` out of the artifact object: `None` when absent, an
/// error when `pick` rejects its JSON type.
fn take<T>(
    map: &mut BTreeMap<String, JsonValue>,
    key: &str,
    pick: fn(JsonValue) -> Option<T>,
) -> Result<Option<T>, PolicyError> {
    map.remove(key)
        .map(|value| pick(value).ok_or_else(|| wrong_type(key)))
        .transpose()
}

#[cold]
fn wrong_type(key: &str) -> PolicyError {
    PolicyError::Parse(format!("field `{key}` has the wrong JSON type"))
}

fn string(value: JsonValue) -> Option<String> {
    match value {
        JsonValue::String(s) => Some(s),
        _ => None,
    }
}

fn number(value: JsonValue) -> Option<f64> {
    value.as_f64()
}

fn strings(value: JsonValue) -> Option<Vec<String>> {
    match value {
        JsonValue::Array(items) => items.into_iter().map(string).collect(),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn solved_table(alpha: f64, gamma: f64, rewards: RewardModel, len: u32) -> PolicyTable {
        let config = MdpConfig::new(alpha, gamma, rewards).with_max_len(len);
        let solution = config.solve().expect("solve");
        PolicyTable::from_solution(&config, &solution)
    }

    #[test]
    fn state_space_indexing_is_strided_and_bounded() {
        let classic = StateSpace::classic(4);
        assert_eq!(classic.len(), 3 * 5 * 5);
        assert_eq!(classic.dims(), vec![("fork", 3), ("a", 5), ("h", 5)]);
        assert_eq!(classic.match_d_bound(), None);
        assert_eq!(classic.index(0, 0, Fork::Irrelevant, 0), Some(0));
        // Classic spaces project the distance away.
        assert_eq!(
            classic.index(2, 3, Fork::Active, 5),
            classic.index(2, 3, Fork::Active, 0)
        );
        assert_eq!(classic.index(5, 0, Fork::Irrelevant, 0), None);

        let eth = StateSpace::with_match_d(4, 7);
        assert_eq!(eth.len(), 3 * 8 * 5 * 5);
        assert_eq!(
            eth.dims(),
            vec![("fork", 3), ("match_d", 8), ("a", 5), ("h", 5)]
        );
        assert_eq!(eth.match_d_bound(), Some(7));
        // Distinct distances land in distinct slots...
        assert_ne!(
            eth.index(2, 3, Fork::Active, 1),
            eth.index(2, 3, Fork::Active, 2)
        );
        // ...and beyond the bound they clamp instead of escaping.
        assert_eq!(
            eth.index(2, 3, Fork::Active, 200),
            eth.index(2, 3, Fork::Active, 7)
        );
        // Every slot is hit exactly once by the enumeration order.
        let mut seen = vec![false; eth.len()];
        for fork in [Fork::Irrelevant, Fork::Relevant, Fork::Active] {
            for d in 0..=7 {
                for a in 0..=4 {
                    for h in 0..=4 {
                        let i = eth.index(a, h, fork, d).expect("in region");
                        assert!(!seen[i], "slot ({a}, {h}, {fork:?}, {d}) collides");
                        seen[i] = true;
                    }
                }
            }
        }
        assert!(seen.into_iter().all(|s| s));
    }

    #[test]
    #[should_panic(expected = "bound >= 1")]
    fn zero_width_match_d_axis_is_rejected() {
        let _ = StateSpace::with_match_d(4, 0);
    }

    #[test]
    fn lowering_preserves_policy_actions() {
        let config = MdpConfig::new(0.4, 0.5, RewardModel::Bitcoin).with_max_len(16);
        let solution = config.solve().expect("solve");
        let table = PolicyTable::from_solution(&config, &solution);
        // Bitcoin lowering is exact: every in-space (a, h, fork) slot
        // matches the solver's policy.
        for (state, action) in solution.policy.iter() {
            assert_eq!(
                table.action(state.a, state.h, state.fork, state.match_d),
                Some(action),
                "slot {state}"
            );
        }
        assert_eq!(table.predicted_revenue(), solution.revenue);
        assert_eq!(table.max_len(), 16);
        assert_eq!(table.len(), 3 * 17 * 17);
        assert!(!table.state_space().has_match_d());
    }

    #[test]
    fn ethereum_lowering_is_exact_over_all_four_axes() {
        // The v2 point: no projection. Every state of the Ethereum MDP —
        // including every match_d slice — appears verbatim in the table.
        let config = MdpConfig::new(0.3, 0.5, RewardModel::EthereumApprox).with_max_len(10);
        let solution = config.solve().expect("solve");
        let table = PolicyTable::from_solution(&config, &solution);
        assert_eq!(table.state_space(), StateSpace::ethereum(10));
        assert_eq!(table.len(), 3 * 8 * 11 * 11);
        for (state, action) in solution.policy.iter() {
            assert_eq!(
                table.action(state.a, state.h, state.fork, state.match_d),
                Some(action),
                "slot {state}"
            );
        }
        assert!(table.is_legal_everywhere());
    }

    #[test]
    fn lookup_outside_truncation_is_none() {
        let table = PolicyTable::honest(0.3, 0.5, 8);
        assert_eq!(table.action(9, 0, Fork::Irrelevant, 0), None);
        assert_eq!(table.action(0, 9, Fork::Relevant, 0), None);
        assert!(table.action(8, 8, Fork::Active, 0).is_some());
        assert!(!table.is_empty());
    }

    #[test]
    fn honest_table_overrides_leads_adopts_otherwise() {
        let table = PolicyTable::honest(0.3, 0.5, 10);
        assert_eq!(
            table.action(1, 0, Fork::Irrelevant, 0),
            Some(Action::Override)
        );
        assert_eq!(
            table.action(3, 1, Fork::Relevant, 0),
            Some(Action::Override)
        );
        assert_eq!(table.action(0, 2, Fork::Relevant, 0), Some(Action::Adopt));
        assert_eq!(table.action(2, 2, Fork::Active, 0), Some(Action::Adopt));
        assert_eq!(table.predicted_revenue(), 0.3);
    }

    #[test]
    fn decide_resolves_fallbacks() {
        // Outside truncation: forced adopt regardless of content.
        let table = PolicyTable::honest(0.3, 0.5, 4);
        assert_eq!(table.decide(5, 0, Fork::Irrelevant, 0), Action::Adopt);
        assert_eq!(table.decide(0, 5, Fork::Relevant, 0), Action::Adopt);
        // Legal prescriptions pass through.
        assert_eq!(table.decide(2, 1, Fork::Relevant, 0), Action::Override);
        assert_eq!(table.decide(0, 1, Fork::Relevant, 0), Action::Adopt);

        // Illegal prescriptions degrade to adopt: override without a lead,
        // match without a coverable relevant race.
        let overrides = PolicyTable::from_fn3(
            0.3,
            0.5,
            RewardModel::Bitcoin,
            Scenario::RegularRate,
            4,
            0.3,
            |_, _, _| Action::Override,
        );
        assert_eq!(overrides.decide(2, 2, Fork::Relevant, 0), Action::Adopt);
        assert_eq!(overrides.decide(3, 1, Fork::Relevant, 0), Action::Override);
        let matches = PolicyTable::from_fn3(
            0.3,
            0.5,
            RewardModel::Bitcoin,
            Scenario::RegularRate,
            4,
            0.3,
            |_, _, _| Action::Match,
        );
        assert_eq!(matches.decide(2, 1, Fork::Relevant, 0), Action::Match);
        assert_eq!(matches.decide(2, 0, Fork::Relevant, 0), Action::Adopt);
        assert_eq!(matches.decide(1, 2, Fork::Relevant, 0), Action::Adopt);
        assert_eq!(matches.decide(2, 1, Fork::Active, 0), Action::Adopt);
    }

    #[test]
    fn decide_forces_resolution_on_the_truncation_boundary() {
        // The solver removes wait/match from the legal set at
        // a == max_len or h == max_len (either chain growing would leave
        // the truncated space); the shared executor decision procedure
        // must mirror that exactly, not one slot later.
        let waits = PolicyTable::from_fn3(
            0.3,
            0.5,
            RewardModel::Bitcoin,
            Scenario::RegularRate,
            4,
            0.3,
            |_, _, _| Action::Wait,
        );
        // Interior waits pass through...
        assert_eq!(waits.decide(3, 3, Fork::Irrelevant, 0), Action::Wait);
        // ...boundary waits resolve, on either axis, corner included.
        assert_eq!(waits.decide(4, 0, Fork::Irrelevant, 0), Action::Adopt);
        assert_eq!(waits.decide(0, 4, Fork::Relevant, 0), Action::Adopt);
        assert_eq!(waits.decide(4, 4, Fork::Active, 0), Action::Adopt);

        let matches = PolicyTable::from_fn3(
            0.3,
            0.5,
            RewardModel::Bitcoin,
            Scenario::RegularRate,
            4,
            0.3,
            |_, _, _| Action::Match,
        );
        // A coverable relevant race at the boundary still must not match:
        // the race state itself sits outside the solvable region.
        assert_eq!(matches.decide(4, 4, Fork::Relevant, 0), Action::Adopt);
        assert_eq!(matches.decide(4, 2, Fork::Relevant, 0), Action::Adopt);
        assert_eq!(matches.decide(3, 2, Fork::Relevant, 0), Action::Match);

        // Override with a lead stays legal on the boundary — it shrinks
        // the state back into the region.
        let honest = PolicyTable::honest(0.3, 0.5, 4);
        assert_eq!(honest.decide(4, 1, Fork::Irrelevant, 0), Action::Override);
        assert_eq!(honest.decide(4, 4, Fork::Relevant, 0), Action::Adopt);
    }

    #[test]
    fn delay_metadata_round_trips_in_format_two() {
        let ratio = 6.0 / 13.0;
        let config = MdpConfig::new(0.4, 0.5, RewardModel::Bitcoin)
            .with_max_len(8)
            .with_delay_ratio(ratio);
        let solution = config.solve().expect("solve");
        let table = PolicyTable::from_solution(&config, &solution);
        assert_eq!(table.delay(), ratio);
        // A delay-aware Bitcoin table is three-axis but must write the
        // self-describing format with its dims spelled out.
        let json = table.to_json();
        assert!(json.contains("\"format\": 2"), "{json}");
        assert!(json.contains("\"dims\": [\"fork:3\", \"a:9\", \"h:9\"]"));
        assert!(json.contains(&format!("\"delay\": {ratio}")));
        let restored = PolicyTable::from_json(&json).expect("parse");
        assert_eq!(table, restored);
        assert_eq!(table.delay().to_bits(), restored.delay().to_bits());
        // Zero-delay tables don't write the field and stay on format 1.
        let classic = PolicyTable::honest(0.4, 0.5, 8);
        assert_eq!(classic.delay(), 0.0);
        assert!(!classic.to_json().contains("delay"));
    }

    #[test]
    fn bad_delay_fields_are_rejected() {
        let ratio = 6.0 / 13.0;
        let config = MdpConfig::new(0.4, 0.5, RewardModel::Bitcoin)
            .with_max_len(6)
            .with_delay_ratio(ratio);
        let solution = config.solve().expect("solve");
        let json = PolicyTable::from_solution(&config, &solution).to_json();
        let negative = json.replace(&format!("\"delay\": {ratio}"), "\"delay\": -0.5");
        assert!(PolicyTable::from_json(&negative).is_err());
        // The delay field postdates format 1's grammar; a format-1
        // artifact claiming one is corrupt, not forward-compatible.
        let v1 = PolicyTable::honest(0.3, 0.5, 4)
            .to_json()
            .replace("\"revenue\": 0.3,", "\"revenue\": 0.3,\n  \"delay\": 0.5,");
        assert!(PolicyTable::from_json(&v1).is_err());
    }

    #[test]
    fn decide_consults_the_match_d_slice() {
        // A four-axis table whose prescription genuinely depends on the
        // distance: wait on rich prefixes (d ≤ 2), adopt otherwise.
        let table = PolicyTable::from_fn(
            0.3,
            0.5,
            RewardModel::EthereumApprox,
            Scenario::RegularRate,
            StateSpace::with_match_d(6, 7),
            0.3,
            |a, h, _, d| {
                if (1..=2).contains(&d) && a < 6 && h < 6 {
                    Action::Wait
                } else {
                    Action::Adopt
                }
            },
        );
        assert_eq!(table.decide(1, 3, Fork::Relevant, 0), Action::Adopt);
        assert_eq!(table.decide(1, 3, Fork::Relevant, 1), Action::Wait);
        assert_eq!(table.decide(1, 3, Fork::Relevant, 2), Action::Wait);
        assert_eq!(table.decide(1, 3, Fork::Relevant, 3), Action::Adopt);
        // Distances beyond the bound clamp to the last slice.
        assert_eq!(table.decide(1, 3, Fork::Relevant, 200), Action::Adopt);
        assert!(table.is_legal_everywhere());
    }

    #[test]
    fn family_metadata_round_trips_and_defaults_empty() {
        let table = PolicyTable::honest(0.3, 0.5, 4);
        assert_eq!(table.family(), "");
        // Unnamed tables serialize without the field at all.
        assert!(!table.to_json().contains("family"));
        let named = table.with_family("sm1");
        assert_eq!(named.family(), "sm1");
        let restored = PolicyTable::from_json(&named.to_json()).expect("parse");
        assert_eq!(restored.family(), "sm1");
        assert_eq!(named, restored);
        // Artifacts predating the field load with an empty family.
        let legacy = named.to_json().replace("  \"family\": \"sm1\",\n", "");
        assert_eq!(PolicyTable::from_json(&legacy).expect("parse").family(), "");
    }

    #[test]
    #[should_panic(expected = "needs escaping")]
    fn family_names_needing_escapes_are_rejected() {
        let _ = PolicyTable::honest(0.3, 0.5, 2).with_family("bad\"name");
    }

    #[test]
    fn legality_audit_flags_illegal_slots_only() {
        // Honest and solver-lowered tables are legal in the whole region.
        assert!(PolicyTable::honest(0.3, 0.5, 8).is_legal_everywhere());
        assert!(solved_table(0.35, 0.5, RewardModel::Bitcoin, 10).is_legal_everywhere());
        // Override without a lead is illegal; so is match outside a
        // coverable relevant race — on four-axis tables too, where a
        // single bad slice must flunk the audit.
        for bad in [Action::Override, Action::Match] {
            let table = PolicyTable::from_fn3(
                0.3,
                0.5,
                RewardModel::Bitcoin,
                Scenario::RegularRate,
                4,
                0.3,
                move |_, _, _| bad,
            );
            assert!(!table.is_legal_everywhere(), "{bad:?} everywhere");
            let four_d = PolicyTable::from_fn(
                0.3,
                0.5,
                RewardModel::EthereumApprox,
                Scenario::RegularRate,
                StateSpace::with_match_d(4, 7),
                0.3,
                move |_, _, _, d| if d == 5 { bad } else { Action::Adopt },
            );
            assert!(!four_d.is_legal_everywhere(), "{bad:?} on the d=5 slice");
        }
        // Wait on the truncation boundary is illegal — the solver removes
        // wait/match from the legal set at a == max_len or h == max_len,
        // and the executors mirror that exactly — so an everywhere-wait
        // table flunks the audit...
        let waits = PolicyTable::from_fn3(
            0.3,
            0.5,
            RewardModel::Bitcoin,
            Scenario::RegularRate,
            4,
            0.3,
            |_, _, _| Action::Wait,
        );
        assert!(!waits.is_legal_everywhere());
        // ...while the same rule kept strictly inside the region passes.
        let interior_waits = PolicyTable::from_fn3(
            0.3,
            0.5,
            RewardModel::Bitcoin,
            Scenario::RegularRate,
            4,
            0.3,
            |a, h, _| {
                if a < 4 && h < 4 {
                    Action::Wait
                } else {
                    Action::Adopt
                }
            },
        );
        assert!(interior_waits.is_legal_everywhere());
    }

    #[test]
    fn json_round_trip_is_bit_identical() {
        for (rewards, scenario) in [
            (RewardModel::Bitcoin, Scenario::RegularRate),
            (RewardModel::EthereumApprox, Scenario::RegularPlusUncleRate),
        ] {
            let config = MdpConfig::new(0.37, 0.41, rewards)
                .with_max_len(10)
                .with_scenario(scenario);
            let solution = config.solve().expect("solve");
            let table = PolicyTable::from_solution(&config, &solution);
            let restored = PolicyTable::from_json(&table.to_json()).expect("parse");
            assert_eq!(table, restored);
            assert_eq!(table.alpha().to_bits(), restored.alpha().to_bits());
            assert_eq!(table.gamma().to_bits(), restored.gamma().to_bits());
            assert_eq!(
                table.predicted_revenue().to_bits(),
                restored.predicted_revenue().to_bits()
            );
            assert_eq!(table.state_space(), restored.state_space());
        }
    }

    #[test]
    fn format_two_artifacts_carry_their_dims() {
        let table = solved_table(0.3, 0.5, RewardModel::EthereumApprox, 8);
        let json = table.to_json();
        assert!(json.contains("\"format\": 2"));
        assert!(json.contains("\"dims\": [\"fork:3\", \"match_d:8\", \"a:9\", \"h:9\"]"));
        assert!(json.contains("\"actions\": \""));
        // Classic tables stay on the v1 wire format.
        let classic = PolicyTable::honest(0.3, 0.5, 8).to_json();
        assert!(classic.contains("\"format\": 1"));
        assert!(!classic.contains("dims"));
    }

    #[test]
    fn save_load_round_trip() {
        for table in [
            solved_table(0.35, 0.0, RewardModel::Bitcoin, 12),
            solved_table(0.3, 0.5, RewardModel::EthereumApprox, 8),
        ] {
            let dir = std::env::temp_dir().join("seleth-policy-test");
            let path = dir.join("nested").join("t.json");
            table.save(&path).expect("save");
            let restored = PolicyTable::load(&path).expect("load");
            assert_eq!(table, restored);
            let _ = fs::remove_dir_all(dir);
        }
    }

    #[test]
    fn malformed_artifacts_are_rejected() {
        assert!(PolicyTable::from_json("").is_err());
        assert!(PolicyTable::from_json("{}").is_err());
        assert!(PolicyTable::from_json("{\"kind\": \"other\"}").is_err());
        // Wrong format version.
        let json = PolicyTable::honest(0.3, 0.5, 4)
            .to_json()
            .replace("\"format\": 1", "\"format\": 99");
        assert!(PolicyTable::from_json(&json).is_err());
        // Truncated action table.
        let json = PolicyTable::honest(0.3, 0.5, 4)
            .to_json()
            .replace("\"max_len\": 4", "\"max_len\": 5");
        assert!(PolicyTable::from_json(&json).is_err());
        // Unknown action code.
        let json = PolicyTable::honest(0.3, 0.5, 4).to_json().replace('o', "x");
        assert!(PolicyTable::from_json(&json).is_err());
        // Format-2 artifacts must declare a coherent state space.
        let v2 = solved_table(0.3, 0.5, RewardModel::EthereumApprox, 6).to_json();
        for (from, to) in [
            ("\"dims\": [\"fork:3\"", "\"dims\": [\"spork:3\""),
            ("\"match_d:8\"", "\"match_d:1\""),
            ("\"a:7\"", "\"a:9\""),
            ("\"format\": 2", "\"format\": 1"),
        ] {
            let broken = v2.replace(from, to);
            assert!(
                PolicyTable::from_json(&broken).is_err(),
                "{from} -> {to} must be rejected"
            );
        }
        // Any backslash escape is rejected, even one that decodes to the
        // same text.
        let named = PolicyTable::honest(0.3, 0.5, 4)
            .with_family("sm1")
            .to_json();
        let escaped_family = named.replace("\"sm1\"", "\"s\\u006d1\"");
        assert!(PolicyTable::from_json(&escaped_family).is_err());
        let escaped_action = v2.replacen("\"actions\": \"a", "\"actions\": \"\\u0061", 1);
        assert_ne!(escaped_action, v2);
        assert!(PolicyTable::from_json(&escaped_action).is_err());
        // A known field of the wrong JSON type is rejected.
        let quoted_alpha = named.replace("\"alpha\": 0.3", "\"alpha\": \"0.3\"");
        assert!(PolicyTable::from_json(&quoted_alpha).is_err());
        let numeric_dims = v2.replace("\"fork:3\", \"match_d:8\", \"a:7\", \"h:7\"", "3");
        assert_ne!(numeric_dims, v2);
        assert!(PolicyTable::from_json(&numeric_dims).is_err());
        // The document must be an object.
        assert!(PolicyTable::from_json(&format!("[{named}]")).is_err());
    }

    #[test]
    fn unknown_fields_are_ignored() {
        let table = PolicyTable::honest(0.25, 0.5, 4);
        let json = table.to_json().replace(
            "\"alpha\"",
            "\"note\": \"extra\",\n  \"spare\": 7,\n  \"tags\": [\"x\", \"y\"],\n  \
             \"meta\": {\"by\": [1, {\"x\": null}]},\n  \"ok\": true,\n  \"gone\": null,\n  \"alpha\"",
        );
        let restored = PolicyTable::from_json(&json).expect("parse with extras");
        assert_eq!(table, restored);
    }

    #[test]
    fn field_order_does_not_matter() {
        for table in [
            solved_table(0.3, 0.5, RewardModel::Bitcoin, 6),
            solved_table(0.3, 0.5, RewardModel::EthereumApprox, 6),
        ] {
            let json = table.to_json();
            // Reverse the field lines of the object.
            let body: Vec<&str> = json
                .trim()
                .trim_start_matches('{')
                .trim_end_matches('}')
                .trim()
                .trim_end_matches(',')
                .split(",\n")
                .collect();
            let reversed = format!(
                "{{\n{}\n}}\n",
                body.iter().rev().copied().collect::<Vec<_>>().join(",\n")
            );
            let restored = PolicyTable::from_json(&reversed).expect("parse reversed");
            assert_eq!(table, restored);
        }
    }
}
