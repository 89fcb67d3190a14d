//! Fig. 7 / Eq. (2): stationary-distribution self-check.
//!
//! Cross-validates three independent computations of the stationary
//! distribution of the 2-D Markov process — the exact numeric solve of
//! the truncated chain, the paper's closed forms, and the empirical state frequencies of
//! a long simulation run — and prints the visit mass of the leading states.

use seleth_core::{stationary, Analysis, ModelParams, State};
use seleth_sim::{SimConfig, Simulation};

fn main() {
    let gamma = 0.5;
    println!("Stationary distribution checks (γ = {gamma})\n");
    println!(
        "{:>6} {:>12} {:>12} {:>12} {:>12}",
        "alpha", "pi00_closed", "pi00_numeric", "pi00_sim", "maxdiff_ij"
    );

    let mut rows = Vec::new();
    for &alpha in &[0.1, 0.2, 0.3, 0.4, 0.45] {
        let params = ModelParams::new(alpha, gamma, seleth_chain::RewardSchedule::ethereum())
            .expect("valid params");
        let analysis = Analysis::new(&params).expect("solve");
        let closed = stationary::pi00(alpha);
        let numeric = analysis.pi(State::new(0, 0));

        // Empirical: frequency of (0,0) over a 200k-block run.
        let config = SimConfig::builder()
            .alpha(alpha)
            .gamma(gamma)
            .blocks(200_000)
            .seed(2024)
            .build()
            .expect("valid config");
        let report = Simulation::new(config).run();
        let empirical = report.state_frequency(0, 0);

        // Worst closed-form vs numeric deviation over a grid of (i, j).
        let mut maxdiff = 0.0f64;
        for i in 2..=15u32 {
            for j in 0..=(i - 2) {
                let s = State::new(i, j);
                let d = (analysis.pi(s) - stationary::pi_closed_form(alpha, gamma, s)).abs();
                maxdiff = maxdiff.max(d);
            }
        }

        println!("{alpha:>6.2} {closed:>12.6} {numeric:>12.6} {empirical:>12.6} {maxdiff:>12.2e}");
        rows.push(seleth_bench::cells(&[
            alpha, closed, numeric, empirical, maxdiff,
        ]));
    }
    let path = seleth_bench::write_csv(
        "stationary_check.csv",
        &[
            "alpha",
            "pi00_closed",
            "pi00_numeric",
            "pi00_sim",
            "max_closed_vs_numeric",
        ],
        &rows,
    );
    println!("\nwrote {}", path.display());
}
