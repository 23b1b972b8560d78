//! # crowdtune-bench
//!
//! The experiment harness of the `crowdtune` reproduction of *"Tuning
//! Crowdsourced Human Computation"* (ICDE 2017). Each binary in `src/bin/`
//! regenerates one table or figure of the paper's evaluation (or, in
//! `ablation_approximation`, checks one design choice), prints it, and
//! writes its CSV under [`RESULTS_DIR`].
//!
//! | module | content |
//! |---|---|
//! | [`synthetic`] | Figure 2 workload builders, strategy line-ups and the 18-panel sweep |
//! | [`output`] | aligned text tables and CSV emission used by every binary |
//! | [`retune_demo`] | the drifting-market scenario behind the online re-tuning example |

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![deny(unsafe_code)]

pub mod output;
pub mod retune_demo;
pub mod synthetic;

pub use output::Table;
pub use retune_demo::{compare_tune_once_vs_retuned, DriftComparison, DriftScenario};
pub use synthetic::{
    run_figure2, run_panel, PanelResult, PanelRow, SyntheticConfig, SyntheticScenario,
};

/// Directory (relative to the workspace root) where binaries drop their CSV
/// output.
pub const RESULTS_DIR: &str = "results";

/// Convenience: formats a `(strategy, latency)` list as `strategy=latency`
/// pairs for compact logging.
pub fn format_latencies(latencies: &[(String, f64)]) -> String {
    latencies
        .iter()
        .map(|(label, latency)| format!("{label}={latency:.3}"))
        .collect::<Vec<_>>()
        .join("  ")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn format_latencies_is_compact() {
        let formatted = format_latencies(&[("opt".to_owned(), 1.23456), ("te".to_owned(), 2.0)]);
        assert_eq!(formatted, "opt=1.235  te=2.000");
        assert_eq!(format_latencies(&[]), "");
    }
}
