//! Tier-1 gates for the strategy zoo: hand-written families replayed in
//! the delay simulator must reproduce their closed forms, and the solved
//! MDP artifact must dominate every hand-written family at its own
//! `(α, γ)`.
//!
//! The SM1 gate is the zoo's analogue of the policy-playback gates: the
//! Eyal–Sirer closed form is exact for the two-player zero-delay world
//! the duopoly split reproduces, so the measured revenue must land within
//! 3 standard errors (or 0.5% absolute — tighter than the repo's usual
//! 1% bar, since the prediction here is an exact formula, not a solver
//! output at finite truncation). Family tables are generated at deep
//! truncation (`max_len = 80`): SM1 is truncation-sensitive at `γ = 0`
//! because nothing rebases its epochs' `(a, h)` walk (see the zoo crate
//! docs), and a shallow table's boundary forced-adopts bias the replay
//! low.
//!
//! Plus the committed-artifact gate: the cheapest cell of
//! `results/zoo_study.json` recomputes bit for bit at its committed
//! settings.

use std::sync::Arc;

use selfish_ethereum::core::bitcoin::eyal_sirer_revenue;
use selfish_ethereum::prelude::*;

use seleth_bench::report::{Replay, ReplayCell};
use seleth_obs::JsonValue;

mod common;
use common::{array_field, committed_json, committed_replay, f64_field, load_artifact};

const SEED: u64 = 424_242;

fn sm1_playback(alpha: f64, gamma: f64, runs: u64, blocks: u64) -> (f64, f64) {
    let table = Arc::new(Family::Sm1.table(alpha, gamma, 80));
    let cell = ReplayCell::new(vec![table], vec![alpha, 1.0 - alpha], gamma, 0.0);
    let replay = Replay {
        runs,
        blocks,
        seed: SEED,
        threads: 1,
        ..Replay::default()
    };
    let outcome = replay.run(&cell).expect("valid duopoly cell");
    (outcome.mean(), outcome.std_err())
}

#[test]
fn sm1_zero_delay_duopoly_reproduces_the_closed_form() {
    // Above the γ = 0 threshold and in the γ-rich regime: both must land
    // on Eyal–Sirer's formula.
    for (alpha, gamma) in [(0.35, 0.0), (0.30, 0.5)] {
        let cf = eyal_sirer_revenue(alpha, gamma);
        let (mean, se) = sm1_playback(alpha, gamma, 8, 25_000);
        let diff = (mean - cf).abs();
        assert!(
            diff <= (3.0 * se).max(0.005),
            "sm1 at ({alpha}, {gamma}): measured {mean:.5} vs closed form {cf:.5} \
             is {:.2} standard errors ({diff:.5} absolute)",
            diff / se
        );
    }
}

#[test]
fn closed_form_anchors_the_known_thresholds() {
    // The formula itself: R = α exactly at the published thresholds.
    let third = 1.0 / 3.0;
    assert!((eyal_sirer_revenue(third, 0.0) - third).abs() < 1e-12);
    assert!((eyal_sirer_revenue(0.25, 0.5) - 0.25).abs() < 1e-12);
}

#[test]
fn optimal_artifact_dominates_every_family_at_its_own_point() {
    // The acceptance bar: at (α = 0.40, γ = 0.5), zero-delay duopoly, the
    // committed solved artifact must earn at least as much as every
    // hand-written family, within combined Monte-Carlo noise.
    let artifact = load_artifact("bitcoin_a040_g050.json");
    let (alpha, gamma) = (artifact.alpha(), artifact.gamma());

    let mut registry = StrategyRegistry::new();
    let art_idx = registry.register_artifact("optimal", artifact);
    // Families lower through the state-space-generic constructor: the
    // line-up now includes the uncle-aware variant, which rides in on a
    // four-axis table while the distance-blind families stay classic.
    let family_idx: Vec<(Family, usize)> = Family::representatives()
        .into_iter()
        .map(|f| (f, registry.register_family(f, alpha, gamma, 64)))
        .collect();
    assert!(
        family_idx.iter().any(|(f, _)| f.is_uncle_aware()),
        "the representatives must field an uncle-aware contestant"
    );
    for &(family, idx) in &family_idx {
        assert_eq!(
            registry.get(idx).table.state_space().has_match_d(),
            family.is_uncle_aware(),
            "{} registered with the wrong state-space shape",
            family.id()
        );
    }

    let config = Replay {
        runs: 5,
        blocks: 20_000,
        seed: SEED,
        ..Default::default()
    };
    let mut tournament = Tournament::new(&registry, config);
    let shares = vec![alpha, 1.0 - alpha];
    tournament.add_cell(Cell::single("duopoly", art_idx, shares.clone(), gamma, 0.0));
    for &(_, idx) in &family_idx {
        tournament.add_cell(Cell::single("duopoly", idx, shares.clone(), gamma, 0.0));
    }
    let results = tournament.run().expect("valid duopoly cells");

    let opt = &results[0];
    // Tournament cells replay under the lead strategist's reward
    // schedule. Distance-blind families share the artifact's Bitcoin
    // schedule, so its ρ* bounds them; the uncle-aware family replays
    // under the Ethereum schedule, where the correct upper bound is the
    // *Ethereum-model* optimum at the same point (the Bitcoin ρ* is not
    // one — uncle subsidies are the paper's headline).
    let eth_rho = MdpConfig::new(alpha, gamma, RewardModel::EthereumApprox)
        .with_max_len(30)
        .solve()
        .expect("ethereum mdp solve")
        .revenue;
    for ((family, _), fam) in family_idx.iter().zip(&results[1..]) {
        if family.is_uncle_aware() {
            // Additive tolerance: the ~1% model-vs-simulator uncle
            // accounting gap plus Monte-Carlo noise (independent slop
            // sources sum, they don't max).
            let se = fam.strategists[0].std_err;
            assert!(
                fam.lead_revenue() <= eth_rho + 0.01 + 3.0 * se,
                "{} earns {:.5}, beating the Ethereum-model optimum {eth_rho:.5}",
                family.id(),
                fam.lead_revenue(),
            );
            continue;
        }
        let combined =
            (opt.strategists[0].std_err.powi(2) + fam.strategists[0].std_err.powi(2)).sqrt();
        assert!(
            opt.lead_revenue() >= fam.lead_revenue() - (3.0 * combined).max(0.005),
            "{} earns {:.5}, beating the optimal artifact's {:.5}",
            family.id(),
            fam.lead_revenue(),
            opt.lead_revenue()
        );
    }
    // And the artifact must actually reproduce its own rho* here (the
    // same bar tests/delay_study.rs sets the committed artifacts).
    let rho = opt.strategists[0].predicted;
    let diff = (opt.lead_revenue() - rho).abs();
    assert!(
        diff <= (3.0 * opt.strategists[0].std_err).max(0.01),
        "artifact replay {:.5} vs rho* {rho:.5}",
        opt.lead_revenue()
    );
}

#[test]
fn matchup_cells_field_two_strategists_deterministically() {
    // The multi-strategist path end to end through the facade: an SM1
    // matchup cell reports both miners, conserves revenue shares, and is
    // a pure function of the configuration.
    let mut registry = StrategyRegistry::new();
    let sm1 = registry.register_family(Family::Sm1, 0.30, 0.5, 30);
    let run = || {
        let config = Replay {
            runs: 2,
            blocks: 8_000,
            seed: SEED,
            ..Default::default()
        };
        let mut tournament = Tournament::new(&registry, config);
        tournament.add_cell(Cell::matchup("matchup", (sm1, 0.30), (sm1, 0.30), 0.5, 2.0));
        tournament.run().expect("valid matchup cell")
    };
    let (a, b) = (run(), run());
    assert_eq!(a, b, "tournament cells are seed-deterministic");
    let cell = &a[0];
    assert_eq!(cell.strategists.len(), 2);
    assert_eq!(cell.strategists[0].family, "sm1");
    assert!(cell.strategists[0].revenue > 0.0 && cell.strategists[1].revenue > 0.0);
    assert!(cell.orphan_rate > 0.0, "rival withholding orphans blocks");
}

/// Recompute the committed zero-fault duopoly cell of `family` at `point`
/// and `delay` at the study's committed runs, blocks, interval, seed and
/// family truncation, and compare its statistics with the committed ones
/// bit for bit.
fn recompute_committed_cell(doc: &JsonValue, point: &str, family: Family, delay: f64) {
    let (cell, committed) = array_field(doc, "cells")
        .iter()
        .filter(|c| c.get("point").and_then(JsonValue::as_str) == Some(point))
        .filter(|c| c.get("split").and_then(JsonValue::as_str) == Some("duopoly"))
        .filter(|c| f64_field(c, "delay") == delay)
        .find_map(|c| {
            let lead = c.get("strategists")?.as_array()?.first()?;
            (lead.get("name")?.as_str()? == family.id()).then_some((c, lead))
        })
        .unwrap_or_else(|| panic!("{} duopoly cell at {point}, delay {delay}", family.id()));
    let (alpha, gamma) = (f64_field(cell, "alpha"), f64_field(cell, "gamma"));
    let mut registry = StrategyRegistry::new();
    let truncation = f64_field(doc, "family_truncation") as u32;
    let idx = registry.register_family(family, alpha, gamma, truncation);
    let mut tournament = Tournament::new(&registry, committed_replay(doc));
    tournament.add_cell(Cell::single(
        "duopoly",
        idx,
        vec![alpha, 1.0 - alpha],
        gamma,
        delay,
    ));
    let result = &tournament.run().expect("valid zoo cell")[0];
    let got = &result.strategists[0];
    for (key, want, got) in [
        (
            "orphan_rate",
            f64_field(cell, "orphan_rate"),
            result.orphan_rate,
        ),
        ("share", f64_field(committed, "share"), got.share),
        (
            "predicted",
            f64_field(committed, "predicted"),
            got.predicted,
        ),
        ("revenue", f64_field(committed, "revenue"), got.revenue),
        ("std_err", f64_field(committed, "std_err"), got.std_err),
    ] {
        assert_eq!(
            got.to_bits(),
            want.to_bits(),
            "{point} {delay} {key}: {got} vs {want}"
        );
    }
}

/// The committed zoo study must be what `strategy_zoo` writes. Two cells
/// recompute bit for bit: the cheapest, the honest family in the
/// zero-delay duopoly at `α = 0.2`, and SM1 at a 2 s delay, one of the
/// cells the truncation-boundary rule of `PolicyTable::decide` moved
/// (the file went stale on that change once).
#[test]
fn committed_zoo_study_recomputes_bit_for_bit() {
    let doc = committed_json("zoo_study.json");
    recompute_committed_cell(&doc, "bitcoin_a020_g050", Family::Honest, 0.0);
    recompute_committed_cell(&doc, "bitcoin_a040_g050", Family::Sm1, 2.0);
}
