//! The drifting-market scenario behind `examples/online_retuning.rs`: a job
//! tuned against a flat belief on a market that turns steep mid-flight, run
//! once as tuned and once under an online [`Retuner`].

use crowdtune_core::error::Result;
use crowdtune_core::money::Budget;
use crowdtune_core::problem::HTuningProblem;
use crowdtune_core::rate::{LinearRate, RateModel};
use crowdtune_core::task::TaskSet;
use crowdtune_core::tuner::{StrategyChoice, TunedPlan, Tuner};
use crowdtune_market::control::{NoopController, PiecewiseRate};
use crowdtune_market::{MarketConfig, MarketSimulator};
use crowdtune_serve::{RetunePolicy, Retuner};
use std::sync::Arc;

/// A job on a market that switches regimes mid-flight.
#[derive(Clone)]
pub struct DriftScenario {
    /// The job's task set.
    pub tasks: TaskSet,
    /// Total budget.
    pub budget: Budget,
    /// The requester's probed belief, in force until the switch.
    pub belief: Arc<dyn RateModel>,
    /// The regime the market switches into.
    pub drifted: Arc<dyn RateModel>,
    /// Simulation time of the regime switch.
    pub switch_time: f64,
    /// Re-tuning policy for the re-tuned arm.
    pub policy: RetunePolicy,
}

impl DriftScenario {
    /// The canonical demonstration: a wide group of short task chains
    /// (4 repetitions × 20 tasks) plus two deep 12-repetition chains. The
    /// flat belief makes the tuner park the wide group at the one-unit
    /// minimum and funnel spare budget into the deep chains; when the market
    /// turns steep, the wide group becomes the bottleneck and only
    /// mid-flight re-pricing of its unpublished repetitions can help.
    pub fn wide_and_deep() -> Self {
        let mut tasks = TaskSet::new();
        let vote = tasks.add_type("majority vote", 6.0).expect("valid type");
        tasks.add_tasks(vote, 4, 20).expect("valid tasks");
        tasks.add_tasks(vote, 12, 2).expect("valid tasks");
        DriftScenario {
            tasks,
            budget: Budget::units(254),
            belief: Arc::new(LinearRate::new(0.02, 2.0).expect("valid rate")),
            drifted: Arc::new(LinearRate::new(1.0, 0.02).expect("valid rate")),
            switch_time: 0.4,
            policy: RetunePolicy {
                every_completions: 3,
                min_observations: 6,
                drift_threshold: 0.35,
                ..RetunePolicy::default()
            },
        }
    }

    /// The offline plan a tune-once requester would post.
    pub fn offline_plan(&self) -> Result<TunedPlan> {
        Tuner::new(self.belief.clone()).plan(self.tasks.clone(), self.budget)
    }

    /// The drifting market as simulated for one trial.
    pub fn market(&self) -> PiecewiseRate {
        PiecewiseRate::new(self.belief.clone()).switch_at(self.switch_time, self.drifted.clone())
    }
}

/// Mean simulated job latencies of the two arms.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriftComparison {
    /// Tune once, never look back.
    pub tune_once_mean: f64,
    /// Same initial plan, with a [`Retuner`] subscribed to the events.
    pub retuned_mean: f64,
    /// Average number of re-tunes per job in the re-tuned arm.
    pub retunes_per_job: f64,
}

impl DriftComparison {
    /// Relative latency change of re-tuning, negative = faster.
    pub fn latency_change(&self) -> f64 {
        (self.retuned_mean - self.tune_once_mean) / self.tune_once_mean
    }
}

/// Runs both arms over `trials` seeded simulations of the scenario.
pub fn compare_tune_once_vs_retuned(
    scenario: &DriftScenario,
    trials: u64,
) -> Result<DriftComparison> {
    let plan = scenario.offline_plan()?;
    let problem = HTuningProblem::new(
        scenario.tasks.clone(),
        scenario.budget,
        scenario.belief.clone(),
    )?;
    let mut tune_once_total = 0.0;
    let mut retuned_total = 0.0;
    let mut retunes = 0u32;
    for seed in 0..trials {
        let market = scenario.market();
        let simulator = MarketSimulator::new(MarketConfig::independent(seed));
        tune_once_total += simulator
            .run_controlled(
                &scenario.tasks,
                &plan.result.allocation,
                &market,
                &mut NoopController,
            )?
            .job_latency();
        let mut retuner = Retuner::new(problem.clone(), StrategyChoice::Auto, scenario.policy);
        retuned_total += simulator
            .run_controlled(
                &scenario.tasks,
                &plan.result.allocation,
                &market,
                &mut retuner,
            )?
            .job_latency();
        retunes += retuner.stats().retunes;
    }
    Ok(DriftComparison {
        tune_once_mean: tune_once_total / trials as f64,
        retuned_mean: retuned_total / trials as f64,
        retunes_per_job: f64::from(retunes) / trials as f64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retuned_arm_is_no_slower_under_drift() {
        let comparison = compare_tune_once_vs_retuned(&DriftScenario::wide_and_deep(), 40).unwrap();
        assert!(
            comparison.retuned_mean <= comparison.tune_once_mean * 1.02,
            "re-tuning must not slow the job: {comparison:?}"
        );
        assert!(comparison.retunes_per_job > 0.0, "{comparison:?}");
    }
}
