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
//!   workspace can replay it unchanged. SM1 replays are gated against
//!   the Eyal–Sirer closed form,
//!   [`seleth_core::bitcoin::eyal_sirer_revenue`].
//! - [`registry`]: the contestant pool — families at chosen `(α, γ)`
//!   points plus solver artifacts loaded from `results/policies/`,
//!   shared behind [`std::sync::Arc`].
//! - [`tournament`]: grid sweeps over family × parameters × delay ×
//!   share-split, including **multi-strategist matchups** (two
//!   table-driven miners attacking each other in one delay-simulator
//!   run). Each cell maps onto a [`seleth_bench::report::ReplayCell`] and
//!   the grid sweeps through the replay runner every delay study shares,
//!   [`seleth_bench::report::Replay`]: one seeding rule, one parallel
//!   sweep on [`seleth_obs::par_map_traced`], and a typed
//!   [`seleth_sim::SimError`] for a rejected cell.
//!
//! The `strategy_zoo` binary drives the full study and writes the ranked
//! `results/zoo_study.json`.
//!
//! # Example
//!
//! ```
//! use seleth_bench::report::Replay;
//! use seleth_zoo::{Cell, Family, StrategyRegistry, Tournament};
//!
//! // SM1 vs the honest baseline in a zero-delay duopoly at α = 0.4.
//! let mut registry = StrategyRegistry::new();
//! let sm1 = registry.register_family(Family::Sm1, 0.4, 0.5, 20);
//! let honest = registry.register_family(Family::Honest, 0.4, 0.5, 20);
//! let config = Replay { runs: 2, blocks: 8_000, ..Default::default() };
//! let mut tournament = Tournament::new(&registry, config);
//! tournament.add_cell(Cell::single("duopoly", sm1, vec![0.4, 0.6], 0.5, 0.0));
//! tournament.add_cell(Cell::single("duopoly", honest, vec![0.4, 0.6], 0.5, 0.0));
//! let results = tournament.run().expect("valid share splits");
//! // Above the threshold, selfish mining beats honest play.
//! assert!(results[0].lead_revenue() > results[1].lead_revenue());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Library code must degrade with typed errors, never a panic, on
// untrusted input.
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

pub mod families;
pub mod registry;
pub mod tournament;

pub use families::{canonicalize_boundary, Family};
pub use registry::{RegisteredStrategy, StrategyRegistry, StrategySource};
pub use tournament::{Cell, CellResult, StrategistOutcome, Tournament};
