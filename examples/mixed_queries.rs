//! Heterogeneous workload tuning (the paper's Motivation Example 2 and
//! Scenario III): a database processes a sorting query and a filtering query
//! at the same time, with different difficulties and repetition requirements,
//! under one shared budget.
//!
//! ```bash
//! cargo run --release --example mixed_queries
//! ```

use crowdtune_core::prelude::*;
use crowdtune_market::{MarketConfig, MarketSimulator};
use std::sync::Arc;

fn main() {
    // Sorting votes: harder (λp = 2.0), 12 tasks × 5 repetitions.
    // Filter votes: easier (λp = 3.0), 20 tasks × 3 repetitions.
    let mut tasks = TaskSet::new();
    let sort_vote = tasks.add_type("sorting vote", 2.0).expect("valid type");
    let filter_vote = tasks.add_type("yes/no vote", 3.0).expect("valid type");
    tasks.add_tasks(sort_vote, 5, 12).expect("valid tasks");
    tasks.add_tasks(filter_vote, 3, 20).expect("valid tasks");

    let market: Arc<dyn RateModel> = Arc::new(LinearRate::moderate()); // λo = 3p + 3
    let budget = Budget::units(600);

    let problem = HTuningProblem::new(tasks, budget, market.clone()).expect("feasible problem");
    println!("scenario detected : {}", problem.scenario());

    let estimator = JobLatencyEstimator::new(problem.task_set(), problem.rate_model());
    let simulator = MarketSimulator::new(MarketConfig::independent(7));

    let strategies: Vec<(&str, Box<dyn TuningStrategy>)> = vec![
        ("HA (optimal)", Box::new(HeterogeneousAlgorithm::new())),
        ("task-even", Box::new(TaskEvenAllocation::new())),
        ("rep-even", Box::new(RepetitionEvenAllocation::new())),
        (
            "per-group uniform",
            Box::new(UniformPerGroupAllocation::new()),
        ),
    ];

    println!(
        "\n{:<18} {:>10} {:>14} {:>16}",
        "strategy", "spent", "E[latency]", "simulated (mean)"
    );
    for (label, strategy) in strategies {
        let result = strategy.tune(&problem).expect("strategy runs");
        let expected = estimator
            .analytic_expected_latency(&result.allocation, PhaseSelection::Both)
            .expect("estimate succeeds");
        let simulated = simulator
            .mean_job_latency(problem.task_set(), &result.allocation, &market, 200)
            .expect("simulation runs");
        println!(
            "{label:<18} {:>10} {expected:>14.3} {simulated:>16.3}",
            result.allocation.total_spent()
        );
    }

    println!(
        "\nThe Heterogeneous Algorithm trades budget between the two query types so that the \
         slow sorting votes do not dominate the job's completion time."
    );
}
