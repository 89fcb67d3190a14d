//! The selfish-mining MDP: states, actions, transitions and reward models.

use serde::{Deserialize, Serialize};
use std::error::Error;
use std::fmt;

use seleth_chain::Scenario;

/// Fork qualifier of an MDP state (Sapirshtein et al.'s three-valued
/// label).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Fork {
    /// The last block was mined by the attacker: honest miners saw nothing
    /// new, no match is possible right now.
    Irrelevant,
    /// The last block was mined honestly: the attacker may publish a
    /// matching prefix (action *match*) to start a tie race.
    Relevant,
    /// A match is live: the network is split between two equal-length
    /// public branches; `γ` of honest hash power mines on the attacker's.
    Active,
}

/// An MDP state: attacker private-chain length `a`, honest chain length
/// `h` since the last consensus block, fork qualifier, and — if the
/// attacker has *published* a prefix of its branch during this fork epoch
/// — the reference distance its first block was (or will be) referenced
/// at. The prefix's first block is a direct child of the main chain; if
/// the honest side ultimately wins the epoch, it is a rewarded uncle at
/// exactly that distance (the mechanism behind the paper's Remark 5:
/// pool uncles always collect the maximum reward).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct MdpState {
    /// Attacker chain length above the fork point.
    pub a: u32,
    /// Honest chain length above the fork point.
    pub h: u32,
    /// Fork qualifier.
    pub fork: Fork,
    /// 0 if no prefix is public; otherwise the reference distance of the
    /// prefix's first block, fixed at first match (capped at 7, where
    /// `Ku = 0` anyway).
    pub match_d: u8,
}

/// Cap on the stored reference distance (rewards vanish beyond 6): the
/// bound of the Ethereum MDP's `match_d` axis, and therefore of the
/// four-axis policy tables lowered from it.
pub const MATCH_D_CAP: u8 = 7;

impl MdpState {
    /// State with no published prefix.
    ///
    /// # Panics
    ///
    /// Debug-panics for [`Fork::Active`], which always has a published
    /// prefix — use [`MdpState::active`].
    pub const fn new(a: u32, h: u32, fork: Fork) -> Self {
        debug_assert!(!matches!(fork, Fork::Active));
        MdpState {
            a,
            h,
            fork,
            match_d: 0,
        }
    }

    /// An active-fork state with the given first-reference distance.
    pub const fn active(a: u32, h: u32, match_d: u8) -> Self {
        MdpState {
            a,
            h,
            fork: Fork::Active,
            match_d,
        }
    }

    /// Set the published-prefix reference distance.
    pub const fn with_match_d(mut self, match_d: u8) -> Self {
        self.match_d = match_d;
        self
    }
}

impl fmt::Display for MdpState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let tag = match self.fork {
            Fork::Irrelevant => "i",
            Fork::Relevant => "r",
            Fork::Active => "a",
        };
        if self.match_d > 0 {
            write!(f, "({}, {}, {tag}+{})", self.a, self.h, self.match_d)
        } else {
            write!(f, "({}, {}, {tag})", self.a, self.h)
        }
    }
}

/// The attacker's actions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Action {
    /// Give up the private chain and mine on the honest tip.
    Adopt,
    /// Publish `h + 1` blocks, orphaning the honest chain (needs `a > h`).
    Override,
    /// Publish a matching prefix of length `h`, splitting the network
    /// (needs `a ≥ h ≥ 1` and a *relevant* fork).
    Match,
    /// Keep mining privately.
    Wait,
}

/// Reward semantics attached to chain events.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum RewardModel {
    /// Static rewards only; the Sapirshtein et al. MDP. The optimized
    /// quantity coincides with the attacker's relative revenue share.
    Bitcoin,
    /// Bitcoin rewards plus a first-order model of Ethereum's
    /// uncle/nephew rewards (`Ku(d) = (8−d)/8` for `d ≤ 6`, `Kn = 1/32`):
    ///
    /// - *override*: the first orphaned honest block is a direct child of
    ///   the main chain → uncle at distance `h + 1`; `Ku` to the honest
    ///   side, `Kn` to whoever mines the next main-chain block;
    /// - *match resolved for the attacker* (`γβ` outcome): the orphaned
    ///   honest chain's first block → uncle at distance `h`, referenced by
    ///   the honest block that just won the race;
    /// - *adopt with a published attacker prefix*: the prefix's first
    ///   block → uncle at distance `h`; `Ku` to the attacker (the paper's
    ///   subsidy effect), `Kn` to the honest side.
    ///
    /// Deeper orphans (parents themselves stale) earn nothing, matching
    /// the paper's Cases 11–12. Reference distances are first-order
    /// (the earliest possible nephew); the model slightly under-counts
    /// honest uncle income, which does not enter the attacker's
    /// absolute-revenue objective.
    EthereumApprox,
}

impl RewardModel {
    pub(crate) fn ku(self, d: u32) -> f64 {
        match self {
            RewardModel::Bitcoin => 0.0,
            RewardModel::EthereumApprox => {
                if (1..=6).contains(&d) {
                    (8 - d) as f64 / 8.0
                } else {
                    0.0
                }
            }
        }
    }

    pub(crate) fn kn(self, d: u32) -> f64 {
        match self {
            RewardModel::Bitcoin => 0.0,
            RewardModel::EthereumApprox => {
                if (1..=6).contains(&d) {
                    1.0 / 32.0
                } else {
                    0.0
                }
            }
        }
    }

    /// Whether orphans get referenced at all (drives the uncle-block count
    /// used by the Scenario-2 normalization).
    fn references_uncles(self) -> bool {
        matches!(self, RewardModel::EthereumApprox)
    }
}

/// One outcome of taking an action: probability, successor, and the
/// *settled* quantities of the step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Outcome {
    pub prob: f64,
    pub next: MdpState,
    /// Attacker reward settled this step (static + uncle + nephew), `Ks`
    /// units.
    pub attacker_reward: f64,
    /// Honest reward settled this step.
    pub honest_reward: f64,
    /// Regular blocks settled this step.
    pub regular: f64,
    /// Uncle blocks settled this step.
    pub uncles: f64,
}

/// Error raised by [`MdpConfig::solve`].
#[derive(Debug, Clone, PartialEq)]
pub enum MdpError {
    /// `alpha` must lie in `(0, 0.5)`.
    InvalidAlpha {
        /// The rejected value.
        alpha: f64,
    },
    /// `gamma` must lie in `[0, 1]`.
    InvalidGamma {
        /// The rejected value.
        gamma: f64,
    },
    /// `tolerance` / `rho_tolerance` must be positive finite numbers — a
    /// zero or negative bisection tolerance would loop forever.
    InvalidTolerance {
        /// The rejected value.
        tolerance: f64,
    },
    /// `delay_ratio` must be a finite non-negative number.
    InvalidDelay {
        /// The rejected value.
        delay_ratio: f64,
    },
    /// Value iteration or the Dinkelbach bisection exhausted its iteration
    /// budget. Carries the ρ bracket reached and the sweeps spent, so a
    /// caller can see how close the solve got before giving up.
    NoConvergence {
        /// Lower end of the ρ bracket when the solve gave up.
        rho_lo: f64,
        /// Upper end of the ρ bracket when the solve gave up.
        rho_hi: f64,
        /// Value-iteration sweeps spent across all candidates.
        sweeps: usize,
    },
    /// The enumerated state space cannot be compiled for the solver: a
    /// state the transition table needs is missing from it (a successor,
    /// or the reference state `(0, 0)`), or (`missing` is `None`) it has
    /// more states than the solver's `u32` state index addresses.
    InvalidSpace {
        /// Size of the enumerated space.
        states: usize,
        /// The needed state that is not in the space.
        missing: Option<MdpState>,
    },
    /// A fixed policy's exact evaluation met a zero pivot: its dense
    /// landing-state system is singular, which no unichain policy's is.
    SingularEvaluation {
        /// The column of the zero pivot.
        pivot: usize,
        /// The system's order: landing states plus the gain.
        size: usize,
    },
}

impl fmt::Display for MdpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MdpError::InvalidAlpha { alpha } => {
                write!(f, "alpha must be in (0, 0.5), got {alpha}")
            }
            MdpError::InvalidGamma { gamma } => {
                write!(f, "gamma must be in [0, 1], got {gamma}")
            }
            MdpError::InvalidTolerance { tolerance } => {
                write!(f, "tolerances must be positive finite, got {tolerance}")
            }
            MdpError::InvalidDelay { delay_ratio } => {
                write!(
                    f,
                    "delay_ratio must be finite and non-negative, got {delay_ratio}"
                )
            }
            MdpError::NoConvergence {
                rho_lo,
                rho_hi,
                sweeps,
            } => write!(
                f,
                "solver did not converge after {sweeps} sweeps \
                 (rho bracketed in [{rho_lo}, {rho_hi}])"
            ),
            MdpError::InvalidSpace {
                states,
                missing: Some(state),
            } => write!(
                f,
                "state {state} is needed by the transition table but missing \
                 from the {states}-state space"
            ),
            MdpError::InvalidSpace {
                states,
                missing: None,
            } => write!(f, "{states} states exceed the solver's u32 state index"),
            MdpError::SingularEvaluation { pivot, size } => write!(
                f,
                "policy evaluation met a zero pivot in column {pivot} of its \
                 {size}-unknown landing system"
            ),
        }
    }
}

impl Error for MdpError {}

/// Configuration of the optimal-strategy computation.
///
/// The optimized objective is the attacker's **absolute revenue** in the
/// paper's sense: expected attacker reward per normalization unit, where
/// the unit is regular blocks (Scenario 1) or regular + uncle blocks
/// (Scenario 2). For [`RewardModel::Bitcoin`] the two scenarios coincide
/// and the objective equals the classical relative revenue share.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MdpConfig {
    /// Attacker hash-power fraction.
    pub alpha: f64,
    /// Tie-breaking parameter of the network model.
    pub gamma: f64,
    /// Reward semantics.
    pub rewards: RewardModel,
    /// Difficulty-adjustment normalization for the objective.
    pub scenario: Scenario,
    /// Truncation: maximum chain length per side. At the boundary the
    /// attacker is forced to resolve (adopt/override); bias is
    /// `O((α/β)^max_len)`.
    pub max_len: u32,
    /// Propagation delay as a fraction of the mean block interval
    /// (`delay / interval`). Zero (the default) reproduces the classic
    /// zero-delay kernel exactly; a positive ratio folds a race-loss
    /// probability into every release action: honest blocks mined during
    /// the propagation window extend the stale public tip, so an
    /// *override* can be out-raced and a *match* reaches only the honest
    /// miners it beats to the wire (see [`MdpConfig::with_delay_ratio`]).
    pub delay_ratio: f64,
    /// Span tolerance of the relative value iteration that resolves a
    /// bisection midpoint inside the certified bracket around ρ*.
    pub tolerance: f64,
    /// Bisection tolerance on the optimal revenue.
    pub rho_tolerance: f64,
}

impl MdpConfig {
    /// Configuration with defaults (Scenario 1, `max_len = 60`, tolerances
    /// `1e-9` / `1e-6`).
    pub fn new(alpha: f64, gamma: f64, rewards: RewardModel) -> Self {
        MdpConfig {
            alpha,
            gamma,
            rewards,
            scenario: Scenario::RegularRate,
            max_len: 60,
            delay_ratio: 0.0,
            tolerance: 1e-9,
            rho_tolerance: 1e-6,
        }
    }

    /// Override the propagation-delay ratio (`delay / interval`).
    ///
    /// The race-window model matches the propagation-delay simulator's
    /// semantics: while a release propagates, honest mining continues on
    /// the stale public tip at rate `β`, so the number of honest race
    /// blocks in one window is Poisson with mean `λ = β · delay_ratio`.
    /// An *override* (published lead of exactly one block) then loses the
    /// epoch with probability
    ///
    /// ```text
    /// loss = P(1 race block) · (1 − (α + γβ)) + P(≥ 2 race blocks)
    /// ```
    ///
    /// — one race block forces a tie the attacker wins only if the next
    /// block lands on its branch (`α + γβ`, the engine's tie semantics),
    /// two or more mean the honest chain is already longer. A *match*
    /// splits the honest miners only when no race block beats the
    /// matching prefix to the wire, shrinking the effective tie-breaking
    /// power to `γ · e^{−λ}`; an established race (*wait* on an active
    /// fork) keeps the full `γ`, both branches being public already.
    pub fn with_delay_ratio(mut self, delay_ratio: f64) -> Self {
        self.delay_ratio = delay_ratio;
        self
    }

    /// Override the truncation length.
    pub fn with_max_len(mut self, max_len: u32) -> Self {
        self.max_len = max_len.max(4);
        self
    }

    /// Override the difficulty scenario.
    pub fn with_scenario(mut self, scenario: Scenario) -> Self {
        self.scenario = scenario;
        self
    }

    /// Accepted for source compatibility and ignored: the solver runs on
    /// the calling thread, so there is no worker count to set.
    pub fn with_threads(self, _threads: usize) -> Self {
        self
    }

    /// Race-window quantities of one release under this configuration's
    /// delay ratio: `(loss, keep)`, where `loss` is the probability an
    /// override is out-raced during propagation and `keep = e^{−λ}` is
    /// the probability a matching prefix reaches the network before any
    /// honest race block (`λ = β · delay_ratio`). Both are exactly
    /// `(0, 1)` at `delay_ratio = 0`, which is what keeps the zero-delay
    /// kernel byte-identical to the classic one.
    pub(crate) fn release_race(&self) -> (f64, f64) {
        let beta = 1.0 - self.alpha;
        let lambda = beta * self.delay_ratio;
        let keep = (-lambda).exp();
        let p1 = lambda * keep;
        // Guard the tail against floating dust: e^{−λ}(1 + λ) ≤ 1
        // mathematically, but the rounded sum may overshoot by an ulp.
        let p2 = (1.0 - keep - p1).max(0.0);
        let tie_win = self.alpha + self.gamma * beta;
        let loss = (p1 * (1.0 - tie_win) + p2).clamp(0.0, 1.0);
        (loss, keep)
    }

    /// All outcomes of taking `action` in `state`.
    #[cfg(test)]
    pub(crate) fn outcomes(&self, state: MdpState, action: Action) -> Vec<Outcome> {
        let mut out = Vec::new();
        self.push_outcomes(state, action, &mut out);
        out
    }

    /// Append every outcome of taking `action` in `state` to `out`, in
    /// enumeration order; outcomes of probability zero are left out.
    pub(crate) fn push_outcomes(&self, state: MdpState, action: Action, out: &mut Vec<Outcome>) {
        let MdpState {
            a,
            h,
            fork,
            match_d,
        } = state;
        let alpha = self.alpha;
        let beta = 1.0 - alpha;
        let gamma = self.gamma;
        let r = self.rewards;
        let refs = r.references_uncles();

        let mut mk = |prob: f64, next: MdpState, ra: f64, rh: f64, regular: f64, uncles: f64| {
            if prob > 0.0 {
                out.push(Outcome {
                    prob,
                    next,
                    attacker_reward: ra,
                    honest_reward: rh,
                    regular,
                    uncles,
                });
            }
        };

        match action {
            Action::Adopt => {
                // The honest chain's h blocks settle as regular. If the
                // attacker had published a prefix, its first block becomes
                // an uncle at the distance fixed when it was first
                // referenced: Ku to the attacker, Kn to the honest nephew.
                let has_uncle = refs && match_d >= 1 && a >= 1;
                let (ua, uh, unc) = if has_uncle {
                    (r.ku(match_d as u32), r.kn(match_d as u32), 1.0)
                } else {
                    (0.0, 0.0, 0.0)
                };
                mk(
                    alpha,
                    MdpState::new(1, 0, Fork::Irrelevant),
                    ua,
                    h as f64 + uh,
                    h as f64,
                    unc,
                );
                mk(
                    beta,
                    MdpState::new(0, 1, Fork::Relevant),
                    ua,
                    h as f64 + uh,
                    h as f64,
                    unc,
                );
            }
            Action::Override => {
                // Attacker publishes h + 1 blocks and wins them; the
                // honest chain's first block becomes an uncle at distance
                // h + 1, referenced by the next main-chain block (attacker
                // w.p. α).
                //
                // Under a positive delay ratio the release races its own
                // propagation window: with probability `loss` honest race
                // blocks out-grow the published one-block lead before it
                // lands (see `release_race`), the attacker's whole private
                // chain orphans, and the honest chain — approximated at
                // its pre-race length plus the winning race block —
                // settles instead. At `delay_ratio = 0`, `loss = 0` and
                // the zero-probability branches are pruned, leaving the
                // classic kernel bit-for-bit.
                debug_assert!(a > h);
                let (loss, _) = self.release_race();
                let win = 1.0 - loss;
                let d = h + 1;
                let has_uncle = refs && h >= 1;
                let (hu, kn, unc) = if has_uncle {
                    (r.ku(d), r.kn(d), 1.0)
                } else {
                    (0.0, 0.0, 0.0)
                };
                let settled = (h + 1) as f64;
                let lost = (h + 1) as f64;
                mk(
                    win * alpha,
                    MdpState::new(a - h, 0, Fork::Irrelevant),
                    settled + kn,
                    hu,
                    settled,
                    unc,
                );
                mk(
                    win * beta,
                    MdpState::new(a - h - 1, 1, Fork::Relevant),
                    settled,
                    hu + kn,
                    settled,
                    unc,
                );
                mk(
                    loss * alpha,
                    MdpState::new(1, 0, Fork::Irrelevant),
                    0.0,
                    lost,
                    lost,
                    0.0,
                );
                mk(
                    loss * beta,
                    MdpState::new(0, 1, Fork::Relevant),
                    0.0,
                    lost,
                    lost,
                    0.0,
                );
            }
            Action::Wait if fork != Fork::Active => {
                mk(
                    alpha,
                    MdpState::new(a + 1, h, Fork::Irrelevant).with_match_d(match_d),
                    0.0,
                    0.0,
                    0.0,
                    0.0,
                );
                mk(
                    beta,
                    MdpState::new(a, h + 1, Fork::Relevant).with_match_d(match_d),
                    0.0,
                    0.0,
                    0.0,
                    0.0,
                );
            }
            Action::Match | Action::Wait => {
                // A matched prefix of length h races the honest chain:
                //  - attacker extends privately (α): race stands;
                //  - honest mines on the attacker's prefix (γβ): the
                //    attacker's h published blocks win; the orphaned honest
                //    chain's first block is an uncle at distance h,
                //    referenced by the just-mined honest block;
                //  - honest extends its own chain ((1−γ)β): the race
                //    stands, the published prefix stays public.
                debug_assert!(a >= h && h >= 1);
                // The prefix's first block is referenced by the next
                // honest block mined after publication: if this is the
                // epoch's first match, that distance is h (fixed from now
                // on); re-matches keep the original distance. Bitcoin has
                // no uncle rewards, so its distance dimension is collapsed
                // to a single canonical value.
                let d_active = if !refs {
                    1
                } else if match_d >= 1 {
                    match_d
                } else {
                    (h as u8).min(MATCH_D_CAP)
                };
                let (hu, kn, unc) = if refs {
                    (r.ku(h), r.kn(h), 1.0)
                } else {
                    (0.0, 0.0, 0.0)
                };
                // Initiating a match is a release, so under delay the
                // prefix only splits the honest miners it beats to the
                // wire: the effective tie-breaking power is γ·e^{−λ}.
                // Waiting on an *active* race keeps the full γ — both
                // branches are already public.
                let g_eff = if action == Action::Match {
                    gamma * self.release_race().1
                } else {
                    gamma
                };
                mk(
                    alpha,
                    MdpState::active(a + 1, h, d_active),
                    0.0,
                    0.0,
                    0.0,
                    0.0,
                );
                mk(
                    g_eff * beta,
                    MdpState::new(a - h, 1, Fork::Relevant),
                    h as f64,
                    hu + kn,
                    h as f64,
                    unc,
                );
                mk(
                    (1.0 - g_eff) * beta,
                    MdpState::new(a, h + 1, Fork::Relevant).with_match_d(if refs {
                        d_active
                    } else {
                        0
                    }),
                    0.0,
                    0.0,
                    0.0,
                    0.0,
                );
            }
        }
    }

    /// The actions legal in `state` under this configuration's truncation.
    #[cfg(test)]
    pub(crate) fn legal_actions(&self, state: MdpState) -> Vec<Action> {
        let mut actions = Vec::new();
        self.push_legal_actions(state, &mut actions);
        actions
    }

    /// Append the actions legal in `state` to `actions`, in enumeration
    /// order.
    pub(crate) fn push_legal_actions(&self, state: MdpState, actions: &mut Vec<Action>) {
        let MdpState { a, h, fork, .. } = state;
        let at_boundary = a >= self.max_len || h >= self.max_len;
        if a > h {
            actions.push(Action::Override);
        }
        actions.push(Action::Adopt);
        if !at_boundary {
            if fork == Fork::Relevant && a >= h && h >= 1 {
                actions.push(Action::Match);
            }
            actions.push(Action::Wait);
        }
    }

    /// Enumerate the truncated state space.
    ///
    /// The `match_d` dimension only exists when the reward model
    /// references uncles (Bitcoin collapses it to 0), which keeps the
    /// Bitcoin MDP at its classical size.
    pub(crate) fn states(&self) -> Vec<MdpState> {
        let d_range: Vec<u8> = if matches!(self.rewards, RewardModel::Bitcoin) {
            vec![0]
        } else {
            (0..=MATCH_D_CAP).collect()
        };
        let mut out = Vec::new();
        for a in 0..=self.max_len {
            for h in 0..=self.max_len {
                // Irrelevant / Relevant states.
                for fork in [Fork::Irrelevant, Fork::Relevant] {
                    if fork == Fork::Relevant && h == 0 {
                        continue;
                    }
                    for &d in &d_range {
                        // A published prefix requires at least one block
                        // on each side of the epoch.
                        if d >= 1 && (a == 0 || h == 0) {
                            continue;
                        }
                        out.push(MdpState::new(a, h, fork).with_match_d(d));
                    }
                }
                // Active states carry d >= 1 by construction.
                if h >= 1 && a >= h {
                    let active_d: Vec<u8> = if matches!(self.rewards, RewardModel::Bitcoin) {
                        vec![1]
                    } else {
                        (1..=MATCH_D_CAP).collect()
                    };
                    for d in active_d {
                        out.push(MdpState::active(a, h, d));
                    }
                }
            }
        }
        out
    }

    pub(crate) fn validate(&self) -> Result<(), MdpError> {
        if !self.alpha.is_finite() || !(0.0..0.5).contains(&self.alpha) || self.alpha == 0.0 {
            return Err(MdpError::InvalidAlpha { alpha: self.alpha });
        }
        if !self.gamma.is_finite() || !(0.0..=1.0).contains(&self.gamma) {
            return Err(MdpError::InvalidGamma { gamma: self.gamma });
        }
        for tolerance in [self.tolerance, self.rho_tolerance] {
            if !tolerance.is_finite() || tolerance <= 0.0 {
                return Err(MdpError::InvalidTolerance { tolerance });
            }
        }
        if !self.delay_ratio.is_finite() || self.delay_ratio < 0.0 {
            return Err(MdpError::InvalidDelay {
                delay_ratio: self.delay_ratio,
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> MdpConfig {
        MdpConfig::new(0.3, 0.5, RewardModel::Bitcoin).with_max_len(20)
    }

    #[test]
    fn outcome_probabilities_sum_to_one() {
        for rewards in [RewardModel::Bitcoin, RewardModel::EthereumApprox] {
            for delay in [0.0, 0.4615, 0.92] {
                let c = MdpConfig::new(0.3, 0.5, rewards)
                    .with_max_len(20)
                    .with_delay_ratio(delay);
                for s in c.states().into_iter().filter(|s| s.a <= 6 && s.h <= 6) {
                    for action in c.legal_actions(s) {
                        let total: f64 = c.outcomes(s, action).iter().map(|o| o.prob).sum();
                        assert!(
                            (total - 1.0).abs() < 1e-12,
                            "{s} {action:?} delay {delay}: probabilities sum to {total}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn zero_delay_kernel_is_bit_identical_to_the_classic_one() {
        let classic = MdpConfig::new(0.35, 0.5, RewardModel::EthereumApprox).with_max_len(12);
        let zero = classic.with_delay_ratio(0.0);
        for s in classic.states() {
            for action in classic.legal_actions(s) {
                assert_eq!(
                    classic.outcomes(s, action),
                    zero.outcomes(s, action),
                    "{s} {action:?}"
                );
            }
        }
    }

    #[test]
    fn delayed_override_carries_a_loss_branch() {
        let c = MdpConfig::new(0.4, 0.5, RewardModel::Bitcoin)
            .with_max_len(20)
            .with_delay_ratio(6.0 / 13.0);
        let (loss, keep) = c.release_race();
        // λ = 0.6 · 6/13 ≈ 0.277: a visible but sub-dominant race risk.
        assert!(loss > 0.05 && loss < 0.25, "loss {loss}");
        assert!(keep > 0.7 && keep < 1.0, "keep {keep}");
        let outs = c.outcomes(MdpState::new(5, 2, Fork::Irrelevant), Action::Override);
        assert_eq!(outs.len(), 4, "win and loss branches, α/β each");
        let total: f64 = outs.iter().map(|o| o.prob).sum();
        assert!((total - 1.0).abs() < 1e-12);
        // Loss branches reset the attacker, pay it nothing, and settle
        // the honest chain plus the winning race block.
        for o in outs.iter().filter(|o| o.attacker_reward == 0.0) {
            assert!(o.next.a <= 1 && o.next.h <= 1, "loss resets: {}", o.next);
            assert_eq!(o.honest_reward, 3.0);
            assert_eq!(o.regular, 3.0);
        }
        // The win branches still pay h + 1 settled attacker blocks.
        let win_mass: f64 = outs
            .iter()
            .filter(|o| o.attacker_reward > 0.0)
            .map(|o| o.prob)
            .sum();
        assert!((win_mass - (1.0 - loss)).abs() < 1e-12);
    }

    #[test]
    fn delayed_match_shrinks_gamma_but_active_wait_keeps_it() {
        let c = MdpConfig::new(0.3, 0.5, RewardModel::Bitcoin)
            .with_max_len(20)
            .with_delay_ratio(0.5);
        let beta = 0.7;
        let keep = c.release_race().1;
        // Initiating the match: the γβ win outcome is scaled by e^{−λ}.
        let outs = c.outcomes(MdpState::new(3, 2, Fork::Relevant), Action::Match);
        let win = outs
            .iter()
            .find(|o| o.attacker_reward > 0.0)
            .expect("match win branch");
        assert!((win.prob - 0.5 * keep * beta).abs() < 1e-12);
        // Waiting on the already-public race keeps the full γ.
        let outs = c.outcomes(MdpState::active(3, 2, 1), Action::Wait);
        let win = outs
            .iter()
            .find(|o| o.attacker_reward > 0.0)
            .expect("active win branch");
        assert!((win.prob - 0.5 * beta).abs() < 1e-12);
    }

    #[test]
    fn delayed_successors_stay_in_state_space() {
        let c = MdpConfig::new(0.45, 0.5, RewardModel::EthereumApprox)
            .with_max_len(12)
            .with_delay_ratio(0.9);
        let space: std::collections::HashSet<MdpState> = c.states().into_iter().collect();
        for &s in &c.states() {
            for action in c.legal_actions(s) {
                for o in c.outcomes(s, action) {
                    assert!(
                        space.contains(&o.next),
                        "{s} --{action:?}--> {} escapes",
                        o.next
                    );
                }
            }
        }
    }

    #[test]
    fn invalid_delay_ratio_is_rejected() {
        for bad in [-0.1, f64::NAN, f64::INFINITY] {
            let c = MdpConfig::new(0.3, 0.5, RewardModel::Bitcoin).with_delay_ratio(bad);
            assert!(
                matches!(c.validate(), Err(MdpError::InvalidDelay { .. })),
                "delay_ratio {bad} must be rejected"
            );
        }
        let c = MdpConfig::new(0.3, 0.5, RewardModel::Bitcoin).with_delay_ratio(0.9);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn invalid_space_errors_name_their_cause() {
        let missing = MdpError::InvalidSpace {
            states: 1525,
            missing: Some(MdpState::new(25, 3, Fork::Relevant)),
        };
        assert_eq!(
            missing.to_string(),
            "state (25, 3, r) is needed by the transition table but missing \
             from the 1525-state space"
        );
        let oversized = MdpError::InvalidSpace {
            states: u32::MAX as usize + 1,
            missing: None,
        };
        assert_eq!(
            oversized.to_string(),
            "4294967296 states exceed the solver's u32 state index"
        );
    }

    #[test]
    fn successors_stay_in_state_space() {
        let c = MdpConfig::new(0.45, 0.5, RewardModel::EthereumApprox).with_max_len(12);
        let space: std::collections::HashSet<MdpState> = c.states().into_iter().collect();
        for &s in &c.states() {
            for action in c.legal_actions(s) {
                for o in c.outcomes(s, action) {
                    assert!(
                        space.contains(&o.next),
                        "{s} --{action:?}--> {} escapes",
                        o.next
                    );
                }
            }
        }
    }

    #[test]
    fn override_requires_longer_chain() {
        let c = config();
        assert!(!c
            .legal_actions(MdpState::new(2, 2, Fork::Relevant))
            .contains(&Action::Override));
        assert!(c
            .legal_actions(MdpState::new(3, 2, Fork::Relevant))
            .contains(&Action::Override));
    }

    #[test]
    fn match_requires_relevant_fork() {
        let c = config();
        assert!(c
            .legal_actions(MdpState::new(2, 1, Fork::Relevant))
            .contains(&Action::Match));
        assert!(!c
            .legal_actions(MdpState::new(2, 1, Fork::Irrelevant))
            .contains(&Action::Match));
        assert!(!c
            .legal_actions(MdpState::new(2, 0, Fork::Relevant))
            .contains(&Action::Match));
    }

    #[test]
    fn boundary_forces_resolution() {
        let c = config();
        let legal = c.legal_actions(MdpState::new(20, 3, Fork::Irrelevant));
        assert!(!legal.contains(&Action::Wait));
        assert!(legal.contains(&Action::Override));
    }

    #[test]
    fn adopt_awards_honest_blocks_and_counts_regular() {
        let c = config();
        for o in c.outcomes(MdpState::new(1, 3, Fork::Relevant), Action::Adopt) {
            assert_eq!(o.attacker_reward, 0.0);
            assert_eq!(o.honest_reward, 3.0);
            assert_eq!(o.regular, 3.0);
            assert_eq!(o.uncles, 0.0, "Bitcoin never references orphans");
        }
    }

    #[test]
    fn override_awards_h_plus_one() {
        let c = config();
        for o in c.outcomes(MdpState::new(5, 2, Fork::Irrelevant), Action::Override) {
            assert!(o.attacker_reward >= 3.0);
            assert_eq!(o.honest_reward, 0.0);
            assert_eq!(o.regular, 3.0);
        }
    }

    #[test]
    fn ethereum_override_pays_uncles() {
        let c = MdpConfig::new(0.3, 0.5, RewardModel::EthereumApprox).with_max_len(20);
        for o in c.outcomes(MdpState::new(5, 2, Fork::Irrelevant), Action::Override) {
            assert_eq!(o.uncles, 1.0);
            // Uncle at distance 3: Ku = 5/8; Kn = 1/32 to the next miner.
            if o.next.a == 3 {
                assert!((o.attacker_reward - (3.0 + 1.0 / 32.0)).abs() < 1e-12);
                assert!((o.honest_reward - 5.0 / 8.0).abs() < 1e-12);
            } else {
                assert!((o.attacker_reward - 3.0).abs() < 1e-12);
                assert!((o.honest_reward - (5.0 / 8.0 + 1.0 / 32.0)).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn adopt_with_published_prefix_pays_the_attacker() {
        let c = MdpConfig::new(0.3, 0.5, RewardModel::EthereumApprox).with_max_len(20);
        // Prefix first referenced at distance 1 (matched at h = 1), honest
        // chain has since grown to 3: the attacker still collects the full
        // Ku(1) = 7/8 on adoption — the paper's Remark 5 in MDP form.
        let s = MdpState::new(2, 3, Fork::Relevant).with_match_d(1);
        for o in c.outcomes(s, Action::Adopt) {
            assert!((o.attacker_reward - 7.0 / 8.0).abs() < 1e-12);
            assert!((o.honest_reward - (3.0 + 1.0 / 32.0)).abs() < 1e-12);
            assert_eq!(o.uncles, 1.0);
        }
        // Without a published prefix the attacker gets nothing back.
        let s = MdpState::new(2, 3, Fork::Relevant);
        for o in c.outcomes(s, Action::Adopt) {
            assert_eq!(o.attacker_reward, 0.0);
        }
    }

    #[test]
    fn match_distance_fixed_at_first_match() {
        let c = MdpConfig::new(0.3, 0.5, RewardModel::EthereumApprox).with_max_len(20);
        // First match at h = 1: every successor carries match_d = 1.
        let outs = c.outcomes(MdpState::new(3, 1, Fork::Relevant), Action::Match);
        for o in &outs {
            if o.next.h > 0
                && o.next.a >= 1
                && o.next.fork != Fork::Irrelevant
                && (o.next.fork == Fork::Active || o.next.h == 2)
            {
                assert_eq!(o.next.match_d, 1, "{}", o.next);
            }
        }
        // Re-match at larger h keeps the original distance.
        let outs = c.outcomes(
            MdpState::new(4, 2, Fork::Relevant).with_match_d(1),
            Action::Match,
        );
        let active = outs.iter().find(|o| o.next.fork == Fork::Active).unwrap();
        assert_eq!(active.next.match_d, 1);
    }

    #[test]
    fn match_d_survives_waiting() {
        let c = MdpConfig::new(0.3, 0.5, RewardModel::EthereumApprox).with_max_len(20);
        let s = MdpState::new(2, 2, Fork::Relevant).with_match_d(2);
        for o in c.outcomes(s, Action::Wait) {
            assert_eq!(
                o.next.match_d, 2,
                "waiting must not forget the published prefix"
            );
        }
        // The (1−γ)β branch of an active race keeps the prefix public.
        let s = MdpState::active(3, 2, 2);
        let outs = c.outcomes(s, Action::Wait);
        let grown = outs
            .iter()
            .find(|o| o.next.h == 3)
            .expect("honest-extends outcome");
        assert_eq!(grown.next.match_d, 2);
    }

    #[test]
    fn validation_rejects_bad_params() {
        assert!(MdpConfig::new(0.0, 0.5, RewardModel::Bitcoin)
            .validate()
            .is_err());
        assert!(MdpConfig::new(0.5, 0.5, RewardModel::Bitcoin)
            .validate()
            .is_err());
        assert!(MdpConfig::new(0.3, 1.5, RewardModel::Bitcoin)
            .validate()
            .is_err());
        assert!(MdpConfig::new(0.3, 0.5, RewardModel::Bitcoin)
            .validate()
            .is_ok());
    }
}
