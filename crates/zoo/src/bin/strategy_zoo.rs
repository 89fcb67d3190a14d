//! The strategy-zoo tournament: every hand-written family, the MDP
//! optimum, and multi-strategist matchups, ranked under one harness.
//!
//! Sweep: strategy (6 family representatives + the solved artifact at
//! each `(α, γ)` point) × share split (duopoly, 2018 pool landscape) ×
//! propagation delay, plus two-strategist **matchup** cells (SM1 vs SM1,
//! and the optimal artifact vs SM1, in one delay-simulator run each).
//! All cells are evaluated through `seleth_zoo::Tournament`, in parallel
//! across sweep points on the workspace work queue
//! (`seleth_obs::par_map_traced`).
//!
//! Gates (exit code 1 on failure):
//!
//! - **SM1 closed form**: the zero-delay duopoly replay of the SM1 family
//!   must reproduce the Eyal–Sirer closed-form revenue at every `(α, γ)`
//!   point within 3 standard errors or 1% absolute.
//! - **Optimum dominates**: the solved artifact's zero-delay duopoly
//!   revenue must be ≥ every hand-written family's at the same `(α, γ)`,
//!   within combined Monte-Carlo noise. Applies to families scored under
//!   the artifact's own (Bitcoin) schedule; uncle-aware families replay
//!   under the Ethereum schedule — where the Bitcoin ρ* is *not* an
//!   upper bound (they measurably beat it, e.g. 0.397 vs 0.371 at
//!   α = 0.35, γ = 0: the paper's uncle-subsidy headline inside the
//!   zoo) — and are instead gated below the **Ethereum-model** optimum
//!   ρ* at the same point.
//!
//! Family tables are generated at truncation `SELETH_ZOO_LEN` (default
//! 64): SM1-family replays are *truncation-sensitive* at `γ = 0` —
//! without γβ rebases an epoch's `(a, h)` walk goes deep, and a boundary
//! forced-adopt abandons a large private lead (truncation 30 measurably
//! undershoots the closed form; 60+ converges).
//!
//! Output: `results/zoo_study.json` (`zoo_study_smoke.json` with
//! `--smoke`) — every cell with per-strategist revenue vs prediction,
//! standard error, orphan rate, and a rank within its
//! (point, split, delay) group — plus ranked tables on stdout.
//!
//! Environment knobs: `SELETH_RUNS` (8), `SELETH_BLOCKS` (30 000),
//! `SELETH_MDP_LEN` (30, artifact solves), `SELETH_ZOO_LEN` (64, family
//! tables), `SELETH_RESULTS`, `SELETH_POLICIES`. `--smoke` shrinks the
//! grid to one point, the duopoly split, and small budgets for CI.

use std::fmt::Write as _;

use seleth_bench::json_f64;
use seleth_bench::report::{json_block, Study};
use seleth_mdp::{MdpConfig, RewardModel};
use seleth_sim::pools;
use seleth_zoo::{sm1_closed_form, Cell, CellResult, Family, StrategyRegistry, Tournament};

const INTERVAL: f64 = 13.0;
const SEED: u64 = 90_210;

/// One `(α, γ)` evaluation point, anchored to a committed artifact.
struct Point {
    artifact: &'static str,
    alpha: f64,
    gamma: f64,
}

const POINTS: &[Point] = &[
    Point {
        artifact: "bitcoin_a020_g050",
        alpha: 0.20,
        gamma: 0.5,
    },
    Point {
        artifact: "bitcoin_a035_g000",
        alpha: 0.35,
        gamma: 0.0,
    },
    Point {
        artifact: "bitcoin_a040_g050",
        alpha: 0.40,
        gamma: 0.5,
    },
];

/// Grid metadata parallel to the tournament's cell list.
struct Meta {
    point: &'static str,
    alpha: f64,
    gamma: f64,
    split: &'static str,
    kind: &'static str,
}

#[allow(clippy::too_many_lines)]
fn main() {
    let mut study = Study::from_args("zoo_study");
    let smoke = study.smoke();
    let config = study.replay(INTERVAL, SEED, [3, 8], [8_000, 30_000]);
    let (runs, blocks) = (config.runs, config.blocks);
    let mdp_len = u32::try_from(seleth_bench::env_u64("SELETH_MDP_LEN", 30)).unwrap_or(30);
    let zoo_len = u32::try_from(seleth_bench::env_u64("SELETH_ZOO_LEN", 64)).unwrap_or(64);
    let delays: &[f64] = if smoke { &[0.0, 6.0] } else { &[0.0, 2.0, 6.0] };
    let points: &[Point] = if smoke { &POINTS[1..2] } else { POINTS };

    println!(
        "Strategy zoo tournament ({runs} runs x {blocks} blocks per cell, \
         {INTERVAL}s interval, family truncation {zoo_len}{})\n",
        if smoke { ", SMOKE" } else { "" }
    );

    // ------------------------------------------------------------------
    // Registry: family representatives + the solved artifact per point.
    // ------------------------------------------------------------------
    let families = Family::representatives();
    let mut registry = StrategyRegistry::new();
    // Per point: (family, registry index) pairs plus the artifact index.
    let mut lineups: Vec<(Vec<(Family, usize)>, usize)> = Vec::new();
    for p in points {
        let fam_idx: Vec<(Family, usize)> = families
            .iter()
            .map(|&f| (f, registry.register_family(f, p.alpha, p.gamma, zoo_len)))
            .collect();
        let artifact = seleth_bench::load_or_solve_policy(
            p.artifact,
            p.alpha,
            p.gamma,
            RewardModel::Bitcoin,
            mdp_len,
        );
        let art_idx = registry.register_artifact(p.artifact, artifact);
        lineups.push((fam_idx, art_idx));
    }
    // SM1 at α = 0.30 for the matchup cells (shares differ from the
    // per-point α, so it gets its own registry entries — one per matchup
    // γ, so each cell's recorded prediction is the closed form at the γ
    // actually played).
    let sm1_030_g050 = registry.register_family(Family::Sm1, 0.30, 0.5, zoo_len);
    let sm1_030_g000 = registry.register_family(Family::Sm1, 0.30, 0.0, zoo_len);

    // ------------------------------------------------------------------
    // Grid: single-strategist cells + matchups, with parallel metadata.
    // ------------------------------------------------------------------
    let mut tournament = Tournament::new(&registry, config);
    let mut metas: Vec<Meta> = Vec::new();
    for (p, (fam_idx, art_idx)) in points.iter().zip(&lineups) {
        let contestants: Vec<usize> = fam_idx
            .iter()
            .map(|&(_, idx)| idx)
            .chain(std::iter::once(*art_idx))
            .collect();
        let splits: &[(&'static str, Vec<f64>)] = &[
            ("duopoly", vec![p.alpha, 1.0 - p.alpha]),
            ("pools2018", pools::shares_with_strategist(p.alpha)),
        ];
        let splits = if smoke { &splits[..1] } else { splits };
        for idx in contestants {
            for (split, shares) in splits {
                for &delay in delays {
                    tournament.add_cell(Cell::single(*split, idx, shares.clone(), p.gamma, delay));
                    metas.push(Meta {
                        point: p.artifact,
                        alpha: p.alpha,
                        gamma: p.gamma,
                        split,
                        kind: "single",
                    });
                }
            }
        }
    }
    // Matchups: two strategists attacking each other in one run. The
    // smoke grid keeps one cell so CI exercises the multi-strategist path.
    let matchup_delays: &[f64] = if smoke { &delays[..1] } else { &[0.0, 6.0] };
    for &delay in matchup_delays {
        if !smoke {
            // SM1 vs SM1: two 30% attackers over a 40% honest remainder.
            tournament.add_cell(Cell::matchup(
                "matchup",
                (sm1_030_g050, 0.30),
                (sm1_030_g050, 0.30),
                0.5,
                delay,
            ));
            metas.push(Meta {
                point: "sm1_vs_sm1",
                alpha: 0.30,
                gamma: 0.5,
                split: "matchup",
                kind: "matchup",
            });
        }
        // The α = 0.35 optimal artifact vs a 30% SM1 rival, at the
        // artifact's own γ = 0 (the SM1 prediction is the γ = 0 closed
        // form accordingly).
        let a035_idx = points
            .iter()
            .position(|p| p.artifact == "bitcoin_a035_g000")
            .map(|i| lineups[i].1)
            .expect("a035 point is always in the grid");
        tournament.add_cell(Cell::matchup(
            "matchup",
            (a035_idx, 0.35),
            (sm1_030_g000, 0.30),
            0.0,
            delay,
        ));
        metas.push(Meta {
            point: "optimal_a035_vs_sm1",
            alpha: 0.35,
            gamma: 0.0,
            split: "matchup",
            kind: "matchup",
        });
    }

    // ------------------------------------------------------------------
    // Run (parallel across cells) and rank within (point, split, delay).
    // ------------------------------------------------------------------
    let results = study.traced("tournament", |recorder| tournament.run_traced(recorder));
    assert_eq!(results.len(), metas.len(), "meta list tracks the grid");
    let mut rank: Vec<usize> = vec![0; results.len()];
    {
        let mut groups: std::collections::BTreeMap<String, Vec<usize>> =
            std::collections::BTreeMap::new();
        for (i, m) in metas.iter().enumerate() {
            if m.kind == "single" {
                groups
                    .entry(format!("{}|{}|{}", m.point, m.split, results[i].delay))
                    .or_default()
                    .push(i);
            }
        }
        for indices in groups.values() {
            let mut sorted = indices.clone();
            sorted.sort_by(|&x, &y| {
                results[y]
                    .lead_revenue()
                    .total_cmp(&results[x].lead_revenue())
            });
            for (r, &i) in sorted.iter().enumerate() {
                rank[i] = r + 1;
            }
        }
    }

    // ------------------------------------------------------------------
    // Ranked stdout tables.
    // ------------------------------------------------------------------
    println!(
        "{:>20} {:>9} {:>6} {:>26} {:>5} {:>9} {:>9} {:>9} {:>9} {:>8}",
        "point",
        "split",
        "delay",
        "strategy",
        "rank",
        "predict",
        "revenue",
        "std_err",
        "vs_pred",
        "orphans"
    );
    let mut order: Vec<usize> = (0..results.len()).collect();
    order.sort_by_key(|&i| {
        (
            metas[i].kind == "matchup", // singles first
            metas[i].point,
            metas[i].split,
            (results[i].delay * 10.0) as u64,
            rank[i],
        )
    });
    for &i in &order {
        let (m, r) = (&metas[i], &results[i]);
        for s in &r.strategists {
            println!(
                "{:>20} {:>9} {:>6.1} {:>26} {:>5} {:>9.5} {:>9.5} {:>9.5} {:>+9.5} {:>8.4}",
                m.point,
                m.split,
                r.delay,
                format!("{} ({:.2})", s.name, s.share),
                if m.kind == "single" {
                    rank[i].to_string()
                } else {
                    "-".into()
                },
                s.predicted,
                s.revenue,
                s.std_err,
                s.revenue - s.predicted,
                r.orphan_rate,
            );
        }
    }

    // ------------------------------------------------------------------
    // Gates.
    // ------------------------------------------------------------------
    let zero_duopoly = |name: &str, point: &str| -> Option<&CellResult> {
        metas.iter().zip(&results).find_map(|(m, r)| {
            (m.kind == "single"
                && m.point == point
                && m.split == "duopoly"
                && r.delay == 0.0
                && r.strategists[0].name == name)
                .then_some(r)
        })
    };
    for p in points {
        // Gate 1: SM1 vs the Eyal–Sirer closed form.
        let sm1 = zero_duopoly("sm1", p.artifact).expect("sm1 zero-delay duopoly cell");
        let cf = sm1_closed_form(p.alpha, p.gamma);
        let (mean, se) = (sm1.lead_revenue(), sm1.strategists[0].std_err);
        let tol = study.tolerance(se);
        if (mean - cf).abs() > tol {
            study.fail(&format!(
                "sm1@{}: zero-delay revenue {mean:.5} vs closed form {cf:.5} \
                 exceeds tolerance {tol:.5}",
                p.artifact
            ));
        }
        // Gate 2: the optimum dominates every hand-written family *scored
        // under the same reward schedule*. Tournament cells follow the
        // lead strategist's reward model, so uncle-aware families replay
        // under the Ethereum schedule, where a Bitcoin-model ρ* is not an
        // upper bound (the paper's headline — uncle rewards make the
        // chain more attackable — showing up inside the zoo); they get
        // their own Ethereum-model bound in gate 3.
        let opt = zero_duopoly(p.artifact, p.artifact).expect("artifact zero-delay duopoly cell");
        for family in families.iter().filter(|f| !f.is_uncle_aware()) {
            let fam =
                zero_duopoly(&family.id(), p.artifact).expect("family zero-delay duopoly cell");
            let combined =
                (opt.strategists[0].std_err.powi(2) + fam.strategists[0].std_err.powi(2)).sqrt();
            let tol = if smoke {
                (4.0 * combined).max(0.05)
            } else {
                (3.0 * combined).max(0.005)
            };
            if opt.lead_revenue() < fam.lead_revenue() - tol {
                study.fail(&format!(
                    "{}@{}: family revenue {:.5} beats the optimal artifact's {:.5} \
                     beyond tolerance {tol:.5}",
                    family.id(),
                    p.artifact,
                    fam.lead_revenue(),
                    opt.lead_revenue()
                ));
            }
        }
        // Gate 3: uncle-aware families stay below the *Ethereum-model*
        // optimum ρ* at their point — the correct upper bound for an
        // Ethereum-schedule replay. The tolerance is additive: a 1%
        // absolute model-gap allowance (the documented first-order gap
        // between the MDP's reward model and the simulator's real uncle
        // accounting) *plus* the Monte-Carlo noise of the measurement —
        // two independent slop sources, so they sum rather than max.
        if families.iter().any(Family::is_uncle_aware) {
            let eth_rho = MdpConfig::new(p.alpha, p.gamma, RewardModel::EthereumApprox)
                .with_max_len(mdp_len)
                .solve()
                .expect("ethereum mdp solve")
                .revenue;
            for family in families.iter().filter(|f| f.is_uncle_aware()) {
                let fam =
                    zero_duopoly(&family.id(), p.artifact).expect("family zero-delay duopoly cell");
                let se = fam.strategists[0].std_err;
                let tol = if smoke {
                    0.05 + 4.0 * se
                } else {
                    0.01 + 3.0 * se
                };
                if fam.lead_revenue() > eth_rho + tol {
                    study.fail(&format!(
                        "{}@{}: family revenue {:.5} beats the Ethereum-model optimum \
                         {eth_rho:.5} beyond tolerance {tol:.5}",
                        family.id(),
                        p.artifact,
                        fam.lead_revenue(),
                    ));
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // JSON artifact.
    // ------------------------------------------------------------------
    let mut cells_json: Vec<String> = Vec::new();
    for &i in &order {
        let (m, r) = (&metas[i], &results[i]);
        let mut head = String::new();
        let _ = write!(
            head,
            "    {{\n      \"point\": \"{}\",\n      \"kind\": \"{}\",\n      \
             \"split\": \"{}\",\n      \"alpha\": {},\n      \"gamma\": {},\n      \
             \"delay\": {},\n",
            m.point,
            m.kind,
            m.split,
            json_f64(m.alpha),
            json_f64(m.gamma),
            json_f64(r.delay),
        );
        if m.kind == "single" {
            let _ = writeln!(head, "      \"rank\": {},", rank[i]);
        }
        let _ = write!(
            head,
            "      \"orphan_rate\": {},\n      \"strategists\": [\n",
            json_f64(r.orphan_rate)
        );
        let rows = r.strategists.iter().map(|st| {
            format!(
                "        {{\"name\": \"{}\", \"family\": \"{}\", \"share\": {}, \
                     \"predicted\": {}, \"revenue\": {}, \"std_err\": {}, \
                     \"vs_predicted\": {}}}",
                st.name,
                st.family,
                json_f64(st.share),
                json_f64(st.predicted),
                json_f64(st.revenue),
                json_f64(st.std_err),
                json_f64(st.revenue - st.predicted),
            )
        });
        cells_json.push(json_block(head, rows));
    }
    let fields = format!(
        "  \"interval\": {},\n  \"runs\": {runs},\n  \"blocks\": {blocks},\n  \
         \"seed\": {SEED},\n  \"family_truncation\": {zoo_len},\n  \"cells\": [\n{}\n  ]",
        json_f64(INTERVAL),
        cells_json.join(",\n"),
    );
    study.finish(
        "seleth-zoo-study",
        &fields,
        "Reading: within each (point, split, delay) group, 'rank' orders the\n\
         strategies by measured revenue (RegularRate normalization, the same\n\
         quantity as an artifact's rho*). 'vs_pred' compares against each\n\
         strategy's own prediction: closed form for SM1, rho* for the MDP\n\
         artifact, the fair share alpha elsewhere. Matchup cells field two\n\
         strategists in one run; their revenues are per-miner.",
        "all gates hold: SM1 reproduces its closed form; the optimum dominates the zoo",
        "a zoo gate disagrees with its prediction",
    );
}
