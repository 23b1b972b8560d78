//! Quickstart: tune the budget of a crowdsourcing job and inspect the plan.
//!
//! ```bash
//! cargo run --release --example quickstart
//! ```
//!
//! A requester has 30 pairwise-vote tasks that each need 5 independent
//! answers, a market where the uptake rate grows linearly with the payment,
//! and 600 payment units (cents) to spend. The tuner classifies the job as
//! Scenario I and applies the Even Allocation of Algorithm 1.

use crowdtune_core::prelude::*;
use std::sync::Arc;

fn main() {
    // 1. Describe the job: one task type, 30 atomic tasks, 5 repetitions.
    let mut tasks = TaskSet::new();
    let vote = tasks
        .add_type("pairwise vote", 2.0)
        .expect("processing rate is positive");
    tasks
        .add_tasks(vote, 5, 30)
        .expect("task definitions are valid");

    // 2. Describe the market: λo(c) = 1·c + 1 (the Linearity Hypothesis).
    let market = Arc::new(LinearRate::new(1.0, 1.0).expect("valid rate model"));

    // 3. Tune a budget of 600 units.
    let tuner = Tuner::new(market);
    let plan = tuner
        .plan(tasks.clone(), Budget::units(600))
        .expect("the budget covers one unit per repetition");

    println!("strategy          : {}", plan.result.strategy);
    println!(
        "budget spent      : {} / 600 units",
        plan.result.allocation.total_spent()
    );
    println!(
        "per-repetition pay: {} .. {} units",
        plan.result.allocation.min_payment().unwrap().as_units(),
        plan.result.allocation.max_payment().unwrap().as_units()
    );
    println!(
        "expected latency  : {:.3} time units (both phases)",
        plan.expected_latency
    );
    println!(
        "on-hold only      : {:.3} time units",
        plan.expected_on_hold_latency
    );

    // 4. Compare against a deliberately biased allocation to see the value of
    //    tuning (Theorem 1 says even allocation is optimal here).
    let problem = tuner
        .problem(tasks, Budget::units(600))
        .expect("problem is feasible");
    let biased = BiasedAllocation::bias_2()
        .tune(&problem)
        .expect("baseline runs");
    let estimator = JobLatencyEstimator::new(problem.task_set(), problem.rate_model());
    let biased_latency = estimator
        .analytic_expected_latency(&biased.allocation, PhaseSelection::Both)
        .expect("estimate succeeds");
    println!(
        "biased baseline   : {:.3} time units ({:+.1}% vs tuned)",
        biased_latency,
        100.0 * (biased_latency - plan.expected_latency) / plan.expected_latency
    );
}
