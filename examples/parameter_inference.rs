//! Inferring the HPU running parameters from a probe, then tuning with them
//! (Section 3.3 of the paper end to end).
//!
//! ```bash
//! cargo run --release --example parameter_inference
//! ```
//!
//! A probe campaign publishes trivially-fast tasks at several prices on the
//! simulated market; the acceptance epochs give maximum-likelihood estimates
//! of the on-hold rate per price; a least-squares fit of those estimates
//! recovers the Linearity Hypothesis parameters, which are then used to tune
//! a real job.

use crowdtune_core::prelude::*;
use crowdtune_market::{MarketConfig, MarketSimulator};
use std::sync::Arc;

fn main() {
    // The "true" market the probe is sampling — unknown to the requester.
    let true_market = LinearRate::new(0.8, 1.5).expect("valid model");
    println!("hidden market      : {}", RateModel::describe(&true_market));

    // 1. Probe: at each price publish one task with many sequential
    //    repetitions and no processing phase, so the acceptance epochs form a
    //    Poisson arrival trace at that price's rate.
    let plan = ProbePlan::new(vec![1, 3, 5, 8, 12], 40).expect("valid plan");
    println!(
        "probe plan         : {} prices × {} tasks = {} samples, {} units",
        plan.prices.len(),
        plan.tasks_per_price,
        plan.total_tasks(),
        plan.total_cost()
    );
    let mut observations = Vec::new();
    for (index, &price) in plan.prices.iter().enumerate() {
        let mut probe_tasks = TaskSet::new();
        let ty = probe_tasks.add_type("probe", 1000.0).expect("valid type");
        probe_tasks
            .add_task(ty, plan.tasks_per_price)
            .expect("valid task");
        let allocation =
            Allocation::uniform(&probe_tasks.repetition_counts(), Payment::units(price));
        let simulator = MarketSimulator::new(
            MarketConfig::independent(900 + index as u64).without_processing(),
        );
        let report = simulator
            .run(&probe_tasks, &allocation, &true_market)
            .expect("probe runs");
        observations.push(PriceObservation::new(
            price,
            report.acceptance_epochs(),
            report.processing_latencies(),
        ));
    }

    // 2. Infer the per-price rates and fit the Linearity Hypothesis.
    let campaign = ProbeCampaign::new(observations);
    for point in campaign.price_rate_points().expect("rates estimated") {
        println!(
            "  price {:>4.0} units → λ̂o = {:.3}",
            point.price, point.rate
        );
    }
    let fit = campaign.fit_linearity().expect("fit runs");
    println!(
        "fitted model       : λo(c) = {:.3}·c + {:.3} (R² = {:.3}, hypothesis {})",
        fit.k,
        fit.b,
        fit.r_squared,
        if fit.supports_hypothesis(0.9) {
            "supported"
        } else {
            "rejected"
        }
    );

    // 3. Tune a real job with the fitted model and compare the prediction
    //    against the true market.
    let mut job = TaskSet::new();
    let vote = job.add_type("comparison", 2.0).expect("valid type");
    job.add_tasks(vote, 3, 20).expect("valid tasks");
    job.add_tasks(vote, 5, 20).expect("valid tasks");

    let fitted_model: Arc<dyn RateModel> =
        Arc::new(fit.to_rate_model().expect("fitted model is monotone"));
    let tuner = Tuner::new(fitted_model);
    let plan = tuner.plan(job.clone(), Budget::units(800)).expect("tunes");
    println!(
        "tuned with fit     : strategy {}, predicted latency {:.2}",
        plan.result.strategy, plan.expected_latency
    );

    // Evaluate the chosen allocation under the *true* market.
    let estimator = JobLatencyEstimator::new(&job, &true_market);
    let realized = estimator
        .analytic_expected_latency(&plan.result.allocation, PhaseSelection::Both)
        .expect("estimate succeeds");
    println!(
        "under true market  : {:.2} expected latency ({:+.1}% vs prediction)",
        realized,
        100.0 * (realized - plan.expected_latency) / plan.expected_latency
    );
}
