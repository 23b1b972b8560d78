//! Crowd-powered sorting (the paper's Motivation Example 1, scaled up).
//!
//! ```bash
//! cargo run --release --example crowd_sort
//! ```
//!
//! Eight photographs must be ranked by visual appeal. The crowd-DB planner
//! decomposes the query into pairwise comparison votes (3 answers each), the
//! tuner allocates the budget, the market simulator measures wall-clock
//! latency, and the noisy crowd oracle provides the votes that are aggregated
//! back into a ranking.

use crowdtune_core::prelude::*;
use crowdtune_crowd_db::executor::{CrowdExecutor, ExecutorConfig};
use crowdtune_crowd_db::item::ItemSet;
use crowdtune_crowd_db::operators::CrowdSort;
use crowdtune_crowd_db::oracle::OracleConfig;
use std::sync::Arc;

fn main() {
    // Items with a latent "appeal" score the crowd observes through noise.
    let items = ItemSet::from_scores(vec![
        ("sunset over the bay", 9.1),
        ("blurry selfie", 1.3),
        ("mountain panorama", 7.8),
        ("cat on a keyboard", 6.2),
        ("empty parking lot", 2.4),
        ("street food market", 5.5),
        ("rainbow after rain", 8.4),
        ("out-of-focus tree", 3.0),
    ]);

    let config = ExecutorConfig {
        oracle: OracleConfig {
            reliability: 2.0,
            seed: 11,
        },
        ..ExecutorConfig::default()
    };
    let executor = CrowdExecutor::new(Arc::new(LinearRate::unit_slope()), config);

    let sort = CrowdSort::new(3).expect("three answers per comparison");
    let budget = Budget::units(400);
    let outcome = executor
        .run_sort(&items, sort, budget)
        .expect("the budget covers the plan");

    println!("strategy           : {}", outcome.strategy);
    println!(
        "budget spent       : {} / {} units",
        outcome.stats.spent_units,
        budget.as_units()
    );
    println!(
        "expected latency   : {:.2} time units",
        outcome.stats.expected_latency
    );
    println!(
        "simulated latency  : {:.2} time units",
        outcome.stats.simulated_latency
    );
    println!("\ncrowd ranking (best first):");
    for (position, id) in outcome.result.iter().enumerate() {
        let item = items.get(*id).expect("known item");
        println!("  {:>2}. {}", position + 1, item.label);
    }

    let agreement = CrowdSort::ranking_agreement(&outcome.result, &items.ground_truth_ranking());
    println!(
        "\nagreement with the latent ground truth: {:.0}% of item pairs ordered correctly",
        agreement * 100.0
    );
}
