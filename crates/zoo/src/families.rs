//! Parametric strategy families, lowered into [`PolicyTable`] artifacts.
//!
//! Every published hand-written withholding strategy is a rule over the
//! MDP's state abstraction, which makes [`PolicyTable::from_fn`] — the
//! state-space-generic constructor — the natural compilation target: a
//! family plus its parameters becomes a dense table over an explicit
//! [`StateSpace`], tagged with a machine-readable family id
//! ([`PolicyTable::family`]), and every executor that replays artifacts —
//! the instant-broadcast engine, the propagation-delay simulator, the
//! tournament harness — can play it without new code. Distance-blind
//! families lower to the classic three-axis shape; uncle-aware families
//! lower to the four-axis shape and genuinely condition on the
//! published-prefix reference distance `match_d`.
//!
//! The families, in the MDP's decision order (consulted after every mined
//! or heard block):
//!
//! - [`Family::Honest`] — publish any lead immediately, adopt otherwise;
//!   earns exactly the fair share `α` ([`rules::honest`]).
//! - [`Family::Sm1`] — Eyal–Sirer selfish mining, the paper's
//!   Algorithm 1 ([`rules::sm1`]): withhold, match when the honest chain
//!   draws level, override when the lead shrinks to one. Its revenue has
//!   the closed form [`eyal_sirer_revenue`].
//! - [`Family::LeadStubborn`] `L_k` — SM1 that refuses to cash in a lead
//!   while the public branch is short: instead of overriding at `a = h+1`
//!   it *matches* (keeping one block hidden) until the honest branch
//!   reaches length `k` ([`rules::lead_stubborn`]). `L_0` is exactly SM1.
//! - [`Family::TrailStubborn`] `T_k` — SM1 that keeps mining up to `k`
//!   blocks behind instead of adopting. `T_0` is exactly SM1.
//! - [`Family::EqualForkStubborn`] — SM1 that stays stubborn about equal
//!   forks: after winning a tie race by mining (`a = h+1` in an active
//!   fork) it keeps the new block private instead of overriding. The
//!   `race` flag is the family's γ-behaviour: whether it publishes
//!   matching prefixes at all — tie races and the deep-lead progressive
//!   reveal — exposing itself to the `tie_gamma` split, or withholds
//!   everything until an override, γ-blind.
//! - [`Family::UncleTrailStubborn`] `T_k^{d ≤ c}` — the uncle-aware
//!   variant over the fourth axis: trail-stubborn `T_k` that, once its
//!   published prefix's reference distance is fixed at `d ≤ cash_d`
//!   (uncle reward `Ku(d)` still rich), *adopts* the moment it falls
//!   behind — cashing the paper's uncle subsidy instead of gambling the
//!   trail — while staying stubborn when no prefix is out or the
//!   distance is poor. With `cash_d = 0` (or when no prefix is ever
//!   published) it is exactly `T_k`.
//!
//! Every generated table prescribes only *legal* actions inside its
//! truncation region ([`PolicyTable::is_legal_everywhere`]), so replays
//! never hit the forced-adopt fallback except at the truncation boundary.

use seleth_chain::Scenario;
use seleth_core::bitcoin::eyal_sirer_revenue;
use seleth_mdp::{rules, Action, Fork, PolicyTable, RewardModel, StateSpace};

/// A parametric hand-written withholding strategy (see the
/// [module docs](self) for the catalogue).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// Protocol-following baseline: override any lead, adopt otherwise.
    Honest,
    /// Eyal–Sirer selfish mining (SM1).
    Sm1,
    /// Lead-stubborn `L_k`: matches instead of overriding while the
    /// honest branch is shorter than `k`. `L_0` ≡ SM1.
    LeadStubborn {
        /// Honest-branch length below which the family keeps racing.
        k: u32,
    },
    /// Trail-stubborn `T_k`: keeps mining up to `k` blocks behind the
    /// honest chain instead of adopting. `T_0` ≡ SM1.
    TrailStubborn {
        /// Maximum tolerated trail before conceding.
        k: u32,
    },
    /// Equal-fork-stubborn: never overrides out of a won tie race; the
    /// `race` flag decides whether ties are matched at all.
    EqualForkStubborn {
        /// `true`: publish a matching prefix on ties (the γ-exposed
        /// variant); `false`: withhold through ties, γ-blind.
        race: bool,
    },
    /// Uncle-aware trail-stubborn `T_k^{d ≤ cash_d}`: trail-stubborn that
    /// concedes early — adopting as soon as it falls behind — whenever
    /// its published prefix is fixed at a reference distance `d ≤ cash_d`
    /// and the uncle subsidy is therefore still rich. The only family
    /// whose rule reads the fourth (`match_d`) axis; it lowers to a
    /// four-axis table.
    UncleTrailStubborn {
        /// Maximum tolerated trail while no rich prefix is cashable.
        k: u32,
        /// Largest reference distance considered worth cashing.
        cash_d: u8,
    },
}

impl Family {
    /// A representative of each family at sensible parameters — the
    /// default tournament line-up.
    pub fn representatives() -> Vec<Family> {
        vec![
            Family::Honest,
            Family::Sm1,
            Family::LeadStubborn { k: 2 },
            Family::TrailStubborn { k: 1 },
            Family::EqualForkStubborn { race: true },
            Family::UncleTrailStubborn { k: 1, cash_d: 2 },
        ]
    }

    /// Machine-readable family id including parameters (e.g.
    /// `lead_stubborn_l2`); recorded in the lowered table's
    /// [`PolicyTable::family`] metadata and in tournament reports.
    pub fn id(&self) -> String {
        match self {
            Family::Honest => "honest".into(),
            Family::Sm1 => "sm1".into(),
            Family::LeadStubborn { k } => format!("lead_stubborn_l{k}"),
            Family::TrailStubborn { k } => format!("trail_stubborn_t{k}"),
            Family::EqualForkStubborn { race: true } => "equal_fork_stubborn_race".into(),
            Family::EqualForkStubborn { race: false } => "equal_fork_stubborn_hidden".into(),
            Family::UncleTrailStubborn { k, cash_d } => {
                format!("uncle_trail_stubborn_t{k}_d{cash_d}")
            }
        }
    }

    /// `true` when the family's rule reads the published-prefix reference
    /// distance — such families lower to four-axis tables.
    pub fn is_uncle_aware(&self) -> bool {
        matches!(self, Family::UncleTrailStubborn { .. })
    }

    /// The family's prescription in state `(a, h, fork, match_d)`.
    /// Distance-blind families ignore `match_d`.
    ///
    /// Every returned action is legal in its state under
    /// [`PolicyTable::decide`]'s rules: *override* only with `a > h`,
    /// *match* only in a coverable relevant race (`a ≥ h ≥ 1`).
    pub fn action(&self, a: u32, h: u32, fork: Fork, match_d: u8) -> Action {
        match self {
            Family::Honest => rules::honest(a, h),
            Family::Sm1 => rules::sm1(a, h, fork),
            Family::LeadStubborn { k } => rules::lead_stubborn(a, h, fork, *k),
            Family::TrailStubborn { k } => trail_stubborn_action(a, h, fork, *k),
            Family::EqualForkStubborn { race } => {
                let base = rules::sm1(a, h, fork);
                if !*race && base == Action::Match {
                    // γ-blind: never reveal a prefix early — no tie races,
                    // no progressive reveal; only overrides publish.
                    Action::Wait
                } else if a == h + 1 && h >= 1 && fork == Fork::Active {
                    // Won the race by mining — stay stubborn, keep the new
                    // block private instead of overriding.
                    Action::Wait
                } else {
                    base
                }
            }
            Family::UncleTrailStubborn { k, cash_d } => {
                if h > a && (1..=*cash_d).contains(&match_d) {
                    // Behind with a rich published prefix: concede now and
                    // collect Ku(match_d) — the paper's subsidy effect —
                    // instead of gambling the trail away.
                    Action::Adopt
                } else {
                    trail_stubborn_action(a, h, fork, *k)
                }
            }
        }
    }

    /// The family's predicted objective value at `(α, γ)`, recorded in the
    /// lowered table's `revenue` metadata: the fair share `α` for
    /// [`Family::Honest`], the Eyal–Sirer closed form for [`Family::Sm1`],
    /// and — per [`PolicyTable::from_fn`]'s documented convention for
    /// strategies without a prediction — the honest baseline `α` for the
    /// stubborn variants.
    pub fn predicted_revenue(&self, alpha: f64, gamma: f64) -> f64 {
        match self {
            Family::Sm1 => eyal_sirer_revenue(alpha, gamma),
            _ => alpha,
        }
    }

    /// Lower the family into a replayable [`PolicyTable`] artifact for an
    /// attacker of size `alpha` under tie-breaking `gamma`, truncated at
    /// `max_len`, tagged with [`Family::id`]. Distance-blind families
    /// lower to [`StateSpace::classic`]; uncle-aware ones to the
    /// four-axis [`StateSpace::ethereum`] shape (and record the Ethereum
    /// reward model their rule targets). Family actions do not depend on
    /// `(α, γ)` — the parameters are metadata (and the predicted revenue)
    /// only, exactly as for solver artifacts.
    ///
    /// The family rules are written for the unbounded state abstraction;
    /// on the truncation boundary (`a == max_len` or `h == max_len`) the
    /// lowering canonicalizes *wait*/*match* prescriptions to the
    /// solver's boundary rule — *override* with a lead, *adopt*
    /// otherwise — so every generated table passes
    /// [`PolicyTable::is_legal_everywhere`] and replays identically to
    /// what [`PolicyTable::decide`] would force anyway.
    pub fn table(&self, alpha: f64, gamma: f64, max_len: u32) -> PolicyTable {
        let (space, rewards) = if self.is_uncle_aware() {
            (StateSpace::ethereum(max_len), RewardModel::EthereumApprox)
        } else {
            (StateSpace::classic(max_len), RewardModel::Bitcoin)
        };
        PolicyTable::from_fn(
            alpha,
            gamma,
            rewards,
            Scenario::RegularRate,
            space,
            self.predicted_revenue(alpha, gamma),
            |a, h, fork, d| canonicalize_boundary(self.action(a, h, fork, d), a, h, max_len),
        )
        .with_family(self.id())
    }
}

/// Resolve a family prescription on the truncation boundary: the MDP's
/// legal set there is {*override* if `a > h`, *adopt*} — growing either
/// chain would leave the truncated space — so stored *wait*/*match*
/// canonicalize to the best still-legal resolution. Interior states pass
/// through untouched. Public so tests comparing a raw [`Family::action`]
/// against its lowered table can apply the same rule.
pub fn canonicalize_boundary(action: Action, a: u32, h: u32, max_len: u32) -> Action {
    if (a >= max_len || h >= max_len) && matches!(action, Action::Wait | Action::Match) {
        if a > h {
            Action::Override
        } else {
            Action::Adopt
        }
    } else {
        action
    }
}

/// The trail-stubborn `T_k` rule: concede only when the trail exceeds
/// `k`; otherwise keep mining behind (`h ≤ a + k`) exactly like SM1 would
/// ahead. Shared by [`Family::TrailStubborn`] and the uncle-aware
/// variant's distance-poor slices.
fn trail_stubborn_action(a: u32, h: u32, fork: Fork, k: u32) -> Action {
    if h > a && h <= a + k {
        Action::Wait
    } else {
        rules::sm1(a, h, fork)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn family_ids_are_stable() {
        assert_eq!(Family::Honest.id(), "honest");
        assert_eq!(Family::Sm1.id(), "sm1");
        assert_eq!(Family::LeadStubborn { k: 2 }.id(), "lead_stubborn_l2");
        assert_eq!(Family::TrailStubborn { k: 7 }.id(), "trail_stubborn_t7");
        assert_eq!(
            Family::EqualForkStubborn { race: true }.id(),
            "equal_fork_stubborn_race"
        );
        assert_eq!(
            Family::EqualForkStubborn { race: false }.id(),
            "equal_fork_stubborn_hidden"
        );
        assert_eq!(
            Family::UncleTrailStubborn { k: 2, cash_d: 3 }.id(),
            "uncle_trail_stubborn_t2_d3"
        );
    }

    #[test]
    fn zero_parameter_stubborn_variants_reduce_to_sm1() {
        for fork in [Fork::Irrelevant, Fork::Relevant, Fork::Active] {
            for a in 0..12 {
                for h in 0..12 {
                    assert_eq!(
                        Family::LeadStubborn { k: 0 }.action(a, h, fork, 0),
                        Family::Sm1.action(a, h, fork, 0),
                        "L_0 at ({a}, {h}, {fork:?})"
                    );
                    assert_eq!(
                        Family::TrailStubborn { k: 0 }.action(a, h, fork, 0),
                        Family::Sm1.action(a, h, fork, 0),
                        "T_0 at ({a}, {h}, {fork:?})"
                    );
                    // With nothing worth cashing the uncle-aware variant
                    // is exactly trail-stubborn, on every distance slice.
                    for d in 0..=7u8 {
                        assert_eq!(
                            Family::UncleTrailStubborn { k: 2, cash_d: 0 }.action(a, h, fork, d),
                            Family::TrailStubborn { k: 2 }.action(a, h, fork, d),
                            "T_2^0 at ({a}, {h}, {fork:?}, {d})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn all_representatives_lower_to_legal_tables() {
        for family in Family::representatives() {
            for max_len in [1, 4, 12] {
                let table = family.table(0.35, 0.5, max_len);
                assert!(
                    table.is_legal_everywhere(),
                    "{} at truncation {max_len}",
                    family.id()
                );
                assert_eq!(table.family(), family.id());
                assert_eq!(table.alpha(), 0.35);
                assert_eq!(table.gamma(), 0.5);
                assert_eq!(
                    table.state_space().has_match_d(),
                    family.is_uncle_aware(),
                    "{} lowers to the wrong shape",
                    family.id()
                );
            }
        }
    }

    #[test]
    fn stubborn_variants_deviate_where_advertised() {
        // Lead-stubborn ties short races instead of overriding.
        let lead = Family::LeadStubborn { k: 2 };
        assert_eq!(lead.action(2, 1, Fork::Relevant, 0), Action::Match);
        assert_eq!(lead.action(3, 2, Fork::Relevant, 0), Action::Override);
        // Trail-stubborn tolerates a bounded trail.
        let trail = Family::TrailStubborn { k: 1 };
        assert_eq!(trail.action(1, 2, Fork::Relevant, 0), Action::Wait);
        assert_eq!(trail.action(1, 3, Fork::Relevant, 0), Action::Adopt);
        // Equal-fork-stubborn keeps a won race private...
        let efs = Family::EqualForkStubborn { race: true };
        assert_eq!(efs.action(2, 1, Fork::Active, 0), Action::Wait);
        assert_eq!(efs.action(2, 1, Fork::Relevant, 0), Action::Override);
        // ...and the hidden variant never reveals anything early.
        let hidden = Family::EqualForkStubborn { race: false };
        assert_eq!(hidden.action(1, 1, Fork::Relevant, 0), Action::Wait);
        assert_eq!(hidden.action(4, 2, Fork::Relevant, 0), Action::Wait);
        assert_eq!(hidden.action(2, 1, Fork::Relevant, 0), Action::Override);
    }

    #[test]
    fn uncle_aware_family_reads_the_fourth_axis() {
        let f = Family::UncleTrailStubborn { k: 2, cash_d: 2 };
        // No prefix out (d = 0): stubborn, tolerate the trail.
        assert_eq!(f.action(1, 2, Fork::Relevant, 0), Action::Wait);
        // Rich prefix (d ≤ 2): cash the uncle the moment it is behind.
        assert_eq!(f.action(1, 2, Fork::Relevant, 1), Action::Adopt);
        assert_eq!(f.action(1, 2, Fork::Relevant, 2), Action::Adopt);
        // Poor prefix (d > 2): back to stubborn.
        assert_eq!(f.action(1, 2, Fork::Relevant, 3), Action::Wait);
        // Ahead or level, the distance changes nothing.
        for d in 0..=7u8 {
            assert_eq!(f.action(3, 1, Fork::Relevant, d), Action::Match);
            assert_eq!(f.action(2, 2, Fork::Relevant, d), Action::Match);
        }
        // And the lowered table puts those prescriptions on the right
        // slices.
        let table = f.table(0.3, 0.5, 8);
        assert!(table.state_space().has_match_d());
        assert_eq!(table.decide(1, 2, Fork::Relevant, 0), Action::Wait);
        assert_eq!(table.decide(1, 2, Fork::Relevant, 1), Action::Adopt);
        assert_eq!(table.decide(1, 2, Fork::Relevant, 3), Action::Wait);
    }
}
