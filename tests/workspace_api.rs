//! Cross-crate API flows through the facade: building trees by hand,
//! classifying and accounting them, and wiring analysis pieces together —
//! the way a downstream user would.

use selfish_ethereum::chain::accounting;
use selfish_ethereum::chain::classify::{self, BlockClass};
use selfish_ethereum::chain::forkchoice::{self, TieBreak};
use selfish_ethereum::markov::{ChainBuilder, SolveOptions};
use selfish_ethereum::prelude::*;

#[test]
fn manual_selfish_episode_accounts_like_the_paper() {
    // Re-enact Fig. 5: the pool withholds three blocks, publishes under
    // pressure, and overrides two honest blocks.
    let pool = MinerId(0);
    let honest = MinerId(1);
    let mut tree = BlockTree::new();
    let base = tree.genesis();

    // Step 1: pool mines A1, B1, C1 privately.
    let a1 = tree.add_block(base, pool, &[]).unwrap();
    let b1 = tree.add_block(a1, pool, &[]).unwrap();
    let c1 = tree.add_block(b1, pool, &[]).unwrap();
    // Step 2: honest A2 appears, pool publishes A1.
    let a2 = tree.add_block(base, honest, &[]).unwrap();
    // Step 3: honest B2 on A2; pool publishes everything and wins.
    let b2 = tree.add_block(a2, honest, &[]).unwrap();
    // Aftermath: next block (honest) extends C1, referencing the orphans.
    let d = tree.add_block(c1, honest, &[a2, b2]).unwrap();

    let chain = forkchoice::longest_chain(&tree, TieBreak::FirstSeen);
    assert_eq!(chain.last(), Some(&d));

    let classes = classify::classify(&tree, &chain, 6);
    assert_eq!(classes[c1.index()], BlockClass::Regular);
    // A2 forked directly off the main chain → uncle, referenced by D at
    // height 4 (distance 3). B2's parent A2 is itself stale, so B2 can
    // never be an uncle (the paper's Case 11) — D's reference to it is
    // invalid and ignored.
    assert!(matches!(
        classes[a2.index()],
        BlockClass::Uncle { distance: 3, .. }
    ));
    assert_eq!(classes[b2.index()], BlockClass::Stale);

    let report = accounting::account(&tree, &chain, &RewardSchedule::ethereum());
    // Pool: 3 static; honest: 1 static + Ku(3) + 1 nephew reward.
    assert_eq!(report.miner(pool).static_reward, 3.0);
    let h = report.miner(honest);
    assert_eq!(h.static_reward, 1.0);
    assert!((h.uncle_reward - 5.0 / 8.0).abs() < 1e-12);
    assert!((h.nephew_reward - 1.0 / 32.0).abs() < 1e-12);
    assert_eq!(h.stale_blocks, 1);
}

#[test]
fn markov_crate_usable_standalone() {
    // The generic machinery is not tied to the mining model.
    let mut b = ChainBuilder::new();
    for i in 0..10u32 {
        b.add_rate(i, (i + 1) % 10, 1.0);
        b.add_rate(i, i, 1.0);
    }
    let pi = b.build_dtmc().stationary(SolveOptions::default()).unwrap();
    for i in 0..10u32 {
        assert!((pi.prob(&i) - 0.1).abs() < 1e-9);
    }
}

#[test]
fn facade_prelude_covers_the_workflow() {
    let params = ModelParams::new(0.2, 0.5, RewardSchedule::ethereum()).unwrap();
    let analysis = Analysis::new(&params).unwrap();
    let revenue: RevenueBreakdown = analysis.revenue();
    assert!(revenue.relative_pool_share() > 0.0);

    let config = SimConfig::builder()
        .alpha(0.2)
        .blocks(5_000)
        .seed(3)
        .build()
        .unwrap();
    let report: SimReport = Simulation::new(config).run();
    assert!(report.pool.total() > 0.0);
}

#[test]
fn ghost_and_longest_agree_on_selfish_trees() {
    // Under Algorithm 1 the private branch is both longest and heaviest,
    // so the two fork-choice rules pick the same head on simulated trees.
    let config = SimConfig::builder()
        .alpha(0.4)
        .blocks(5_000)
        .n_honest(50)
        .seed(9)
        .build()
        .unwrap();
    let mut sim = Simulation::new(config);
    for _ in 0..5_000 {
        sim.step();
    }
    let tree = sim.tree();
    let a = forkchoice::longest_chain_head(tree, TieBreak::FirstSeen);
    let b = forkchoice::ghost_head(tree, TieBreak::FirstSeen);
    assert_eq!(tree.height(a), tree.height(b), "same consensus depth");
}

#[test]
fn state_space_descriptors_flow_through_the_prelude() {
    // The v2 policy API end to end through the facade: explicit state
    // spaces, the generic constructor, distance-aware decisions, and the
    // format-2 artifact round-trip.
    let classic = StateSpace::classic(8);
    assert_eq!(classic.dims(), vec![("fork", 3), ("a", 9), ("h", 9)]);
    assert_eq!(classic.match_d_bound(), None);

    let eth = StateSpace::ethereum(8);
    assert_eq!(eth.match_d_bound(), Some(MATCH_D_CAP));
    assert_eq!(eth.len(), 3 * 9 * 9 * usize::from(MATCH_D_CAP + 1));

    // A rule that genuinely reads the fourth axis: concede only on rich
    // published prefixes (and at the truncation boundary, where waiting
    // is no longer a legal prescription).
    let table = PolicyTable::from_fn(
        0.3,
        0.5,
        RewardModel::EthereumApprox,
        Scenario::RegularRate,
        eth,
        0.3,
        |a, h, _, d| {
            if (1..=2).contains(&d) || a >= 8 || h >= 8 {
                Action::Adopt
            } else {
                Action::Wait
            }
        },
    );
    assert_eq!(table.state_space(), eth);
    assert_eq!(table.decide(1, 3, Fork::Relevant, 0), Action::Wait);
    assert_eq!(table.decide(1, 3, Fork::Relevant, 2), Action::Adopt);
    assert!(table.is_legal_everywhere());

    let json = table.to_json();
    assert!(json.contains("\"format\": 2") && json.contains("\"dims\""));
    let restored = PolicyTable::from_json(&json).expect("v2 parse");
    assert_eq!(table, restored);

    // The facade also replays four-axis tables: the zoo's uncle-aware
    // family through the delay simulator, end to end.
    let family = Family::UncleTrailStubborn { k: 1, cash_d: 2 };
    let config = DelayConfig::builder()
        .shares(vec![0.3, 0.7])
        .policy(0, family.table(0.3, 0.5, 12))
        .tie_gamma(0.5)
        .delay(0.0)
        .blocks(2_000)
        .seed(5)
        .build()
        .expect("valid delay config");
    let report = DelaySimulation::new(config).run();
    assert_eq!(report.report.block_count(), 2_000);
}

#[test]
fn telemetry_types_flow_through_the_prelude() {
    // The observability layer end to end through the facade: a recorded
    // parallel sweep, deterministic counter totals, a trace, and the
    // profile renderer.
    let config = SimConfig::builder()
        .alpha(0.3)
        .blocks(2_000)
        .seed(7)
        .build()
        .unwrap();
    let trace = TraceLog::new();
    let recorder: &dyn Recorder = &trace;
    let (reports, shards) =
        selfish_ethereum::sim::multi::run_many_recorded(&config, 4, 2, recorder);
    assert_eq!(reports.len(), 4);
    assert_eq!(trace.len(), 4, "one span per recorded run");

    let mut merged = Telemetry::merge_shards(&shards);
    assert_eq!(merged.counter("sim.runs"), 4);
    assert_eq!(merged.counter("sim.blocks"), 8_000);

    // The no-op recorder produces bit-identical results.
    let (baseline, _) =
        selfish_ethereum::sim::multi::run_many_recorded(&config, 4, 1, &NoopRecorder);
    let revenue = |rs: &[SimReport]| -> Vec<f64> {
        rs.iter()
            .map(|r| r.absolute_pool(Scenario::RegularRate))
            .collect()
    };
    assert_eq!(revenue(&reports), revenue(&baseline));

    // Shards from a DelayCounters run fold into the same summary type.
    let delay_config = DelayConfig::builder()
        .shares(vec![0.3, 0.7])
        .tie_gamma(0.5)
        .delay(2.0)
        .blocks(1_000)
        .seed(11)
        .build()
        .unwrap();
    let report = DelaySimulation::new(delay_config).run();
    let counters: DelayCounters = report.counters;
    let mut shard = TelemetryShard::new(0);
    counters.record_into(&mut shard);
    merged.fold_shard(&shard);
    assert_eq!(merged.counter("delay.mining_events"), 1_000);

    // A stopwatch ticks and the summary renders through the profiler.
    let watch = Stopwatch::start();
    merged.wall_ns = watch.elapsed_ns().max(1);
    let doc = format!(
        "{{\"kind\": \"facade-test\", \"telemetry\": {}}}",
        merged.to_json(0)
    );
    let rendered = selfish_ethereum::obs::render_profile("facade", &doc).unwrap();
    assert!(rendered.contains("facade"));
    assert!(rendered.contains("sim.runs"));
}

#[test]
fn error_types_are_std_errors() {
    fn assert_error<E: std::error::Error + Send + Sync + 'static>() {}
    assert_error::<AnalysisError>();
    assert_error::<selfish_ethereum::chain::ChainError>();
    assert_error::<selfish_ethereum::markov::SolveError>();
    assert_error::<selfish_ethereum::sim::SimError>();
    assert_error::<NetError>();
}

#[test]
fn network_types_flow_through_the_prelude() {
    // Hand-build a topology with a relay and a lossy jittered edge, then
    // drive the delay simulator in graph mode — the downstream workflow.
    let mut b = Topology::builder();
    let m0 = b.miner();
    let m1 = b.miner();
    let hub = b.relay();
    b.link(m0, hub, 1.0);
    b.link(m1, hub, 2.0);
    b.edge_spec(Link {
        from: m0,
        to: m1,
        latency: Latency::Uniform { lo: 0.5, hi: 1.5 },
        loss: 0.1,
        shortcut: false,
    });
    let topology = b.build().expect("valid topology");
    assert_eq!(topology.miner_count(), 2);
    assert_eq!(topology.relay_count(), 1);
    assert_eq!(topology.node_count(), 3);
    assert!(matches!(NodeRole::Miner(0), NodeRole::Miner(_)));

    let p: Propagation = topology.propagate(0, 0);
    assert_eq!(p.arrival[0], 0.0, "the producer holds its own block");
    assert!(p.arrival[1].is_finite(), "the relay path delivers");
    assert!(p.stats.sends > 0);

    // Invalid shapes surface the typed error.
    assert!(matches!(
        Topology::builder().build(),
        Err(NetError::NoMiners)
    ));

    // The propagation model threads through the delay configuration.
    let config = DelayConfig::builder()
        .shares(vec![0.5, 0.5])
        .delay(2.0)
        .blocks(1_000)
        .seed(3)
        .propagation(PropagationModel::Graph(std::sync::Arc::new(
            Topology::complete(2, 2.0).expect("valid"),
        )))
        .build()
        .expect("valid graph config");
    assert!(matches!(config.propagation(), PropagationModel::Graph(_)));
    let r = DelaySimulation::new(config).run();
    assert_eq!(r.report.block_count(), 1_000);
    assert!(r.counters.gossip_sends > 0);
}

#[test]
fn data_types_are_debuggable_and_cloneable() {
    let params = ModelParams::new(0.3, 0.5, RewardSchedule::ethereum()).unwrap();
    let text = format!("{:?}", params.clone());
    assert!(text.contains("0.3"));

    let config = SimConfig::builder().alpha(0.25).build().unwrap();
    let text = format!("{:?}", config.clone());
    assert!(text.contains("0.25"));
}
