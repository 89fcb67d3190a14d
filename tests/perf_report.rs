//! The committed study artifacts must stay renderable by the profiler:
//! `perf_report` (via [`seleth_obs::render_profile`]) walks every study
//! JSON the repo ships, so a format drift in a bin's telemetry emission
//! breaks here before it breaks a user's terminal.

use std::path::Path;

use seleth_bench::STUDIES;

fn render(name: &str) -> String {
    let path = Path::new("results").join(name);
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("committed {}: {e}", path.display()));
    seleth_obs::render_profile(name, &text).unwrap_or_else(|e| panic!("render {name}: {e}"))
}

#[test]
fn every_committed_study_renders_with_telemetry() {
    for name in STUDIES {
        let report = render(name);
        assert!(report.contains(name), "{name}: header names the file");
        assert!(
            report.contains("-- telemetry at telemetry --"),
            "{name}: must carry a top-level telemetry block"
        );
        assert!(
            !report.contains("no telemetry block"),
            "{name}: telemetry block must be recorded"
        );
        assert!(report.contains("wall:"), "{name}: wall clock line");
    }
}

#[test]
fn study_telemetry_carries_the_expected_signals() {
    // Delay-engine counters flow into every delay-driven study.
    for name in [
        "delay_study.json",
        "zoo_study.json",
        "chaos_study.json",
        "topology_study.json",
    ] {
        let report = render(name);
        assert!(
            report.contains("delay.mining_events"),
            "{name}: delay-engine counters present"
        );
        assert!(
            report.contains("study.runs"),
            "{name}: study bookkeeping present"
        );
        assert!(report.contains("workers:"), "{name}: worker table present");
    }
    // Solver instrumentation flows into the solver-driven studies.
    for name in ["BENCH_gates.json", "optimal_sim.json"] {
        let report = render(name);
        assert!(
            report.contains("solver.sweeps"),
            "{name}: Dinkelbach sweep counters present"
        );
        assert!(
            report.contains("solver.warm_start_hit_rate"),
            "{name}: warm-start gauge present"
        );
    }
    // The sim bench records the scheduler's counters and utilization.
    let report = render("BENCH_gates.json");
    assert!(report.contains("sim.runs"));
    assert!(report.contains("bench.noop_overhead_ratio"));
    assert!(report.contains("workers:"));
    // Graph-mode studies and the net bench surface the gossip layer.
    let report = render("topology_study.json");
    assert!(
        report.contains("delay.gossip_sends"),
        "topology study carries gossip counters"
    );
    let report = render("BENCH_gates.json");
    assert!(report.contains("bench.graph_vs_uniform_ratio"));
}

#[test]
fn policy_artifacts_degrade_gracefully() {
    // Pre-telemetry JSON (the policy artifacts) must still render: header
    // plus an explicit note, no error.
    let dir = Path::new("results/policies");
    let mut rendered = 0;
    for entry in std::fs::read_dir(dir).expect("committed policies dir") {
        let path = entry.expect("dir entry").path();
        if path.extension().and_then(|e| e.to_str()) != Some("json") {
            continue;
        }
        let text = std::fs::read_to_string(&path).expect("readable artifact");
        let report = seleth_obs::render_profile("policy", &text).expect("renders");
        assert!(report.contains("no telemetry block"));
        rendered += 1;
    }
    assert!(rendered > 0, "at least one committed policy artifact");
}
