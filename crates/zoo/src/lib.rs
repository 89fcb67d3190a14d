//! Strategy zoo: hand-written withholding strategies as first-class,
//! sweepable experiment subjects.
//!
//! The MDP subsystem answers "what is the *optimal* withholding strategy
//! at `(α, γ)`?"; this crate opens the complementary question: how does
//! the whole space of *published hand-written* strategies — honest
//! mining, Eyal–Sirer SM1, the lead-/trail-/equal-fork-stubborn families
//! — compare against the optimum, against each other, and under network
//! conditions (propagation delay, fragmented pools, rival attackers) the
//! closed forms cannot reach?
//!
//! Three layers:
//!
//! - [`families`]: parametric strategy generators. Each [`Family`] lowers
//!   into a legal [`seleth_mdp::PolicyTable`] via `from_fn`, tagged with
//!   a machine-readable family id, so every artifact executor in the
//!   workspace can replay it unchanged. [`sm1_closed_form`] provides the
//!   Eyal–Sirer reference revenue the SM1 replays are gated against.
//! - [`registry`]: the contestant pool — families at chosen `(α, γ)`
//!   points plus solver artifacts loaded from `results/policies/`,
//!   shared behind [`std::sync::Arc`].
//! - [`tournament`]: grid sweeps over family × parameters × delay ×
//!   share-split, including **multi-strategist matchups** (two
//!   table-driven miners attacking each other in one delay-simulator
//!   run), evaluated in parallel across sweep points on the workspace
//!   work queue, [`seleth_obs::par_map_traced`].
//!
//! The `strategy_zoo` binary drives the full study and writes the ranked
//! `results/zoo_study.json`.
//!
//! # Example
//!
//! ```
//! use seleth_zoo::{Cell, Family, StrategyRegistry, Tournament, TournamentConfig};
//!
//! // SM1 vs the honest baseline in a zero-delay duopoly at α = 0.4.
//! let mut registry = StrategyRegistry::new();
//! let sm1 = registry.register_family(Family::Sm1, 0.4, 0.5, 20);
//! let honest = registry.register_family(Family::Honest, 0.4, 0.5, 20);
//! let config = TournamentConfig { runs: 2, blocks: 8_000, ..Default::default() };
//! let mut tournament = Tournament::new(&registry, config);
//! tournament.add_cell(Cell::single("duopoly", sm1, vec![0.4, 0.6], 0.5, 0.0));
//! tournament.add_cell(Cell::single("duopoly", honest, vec![0.4, 0.6], 0.5, 0.0));
//! let results = tournament.run();
//! // Above the threshold, selfish mining beats honest play.
//! assert!(results[0].lead_revenue() > results[1].lead_revenue());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Library code must degrade with typed errors, never a panic, on
// untrusted input; invariant violations use `expect` with a message.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::panic))]

pub mod families;
pub mod registry;
pub mod tournament;

pub use families::{canonicalize_boundary, sm1_closed_form, Family};
pub use registry::{RegisteredStrategy, StrategyRegistry, StrategySource};
pub use tournament::{Cell, CellResult, StrategistOutcome, Tournament, TournamentConfig};
