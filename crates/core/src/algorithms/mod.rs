//! Budget-allocation strategies: the paper's optimal algorithms (EA, RA, HA),
//! the comparison baselines of Section 5, and the shared dynamic-programming
//! machinery.
//!
//! | strategy | paper reference | scenario |
//! |---|---|---|
//! | [`EvenAllocation`] | Algorithm 1 (EA) | I — Homogeneity |
//! | [`RepetitionAlgorithm`] | Algorithm 2 (RA) | II — Repetition |
//! | [`HeterogeneousAlgorithm`] | Algorithm 3 (HA) | III — Heterogeneous |
//! | [`BiasedAllocation`] | `bias_1` / `bias_2` baselines | I |
//! | [`TaskEvenAllocation`] | `task-even` (`te`) baseline | II, III |
//! | [`RepetitionEvenAllocation`] | `rep-even` (`re`) baseline | II, III |
//! | [`UniformPerGroupAllocation`] | Figure 5(c) heuristic | III |
//!
//! All strategies implement [`TuningStrategy`] and can therefore be swapped
//! freely in the experiment harness.

pub mod baselines;
pub mod common;
pub mod dp;
pub mod even_allocation;
pub mod exhaustive;
pub mod heterogeneous;
pub mod repetition;

pub use baselines::{
    BiasedAllocation, RepetitionEvenAllocation, TaskEvenAllocation, UniformPerGroupAllocation,
};
pub use common::{
    allocation_from_group_payments, spread_evenly, GroupLatencyCache, LatencyTableStore,
    SharedLatencyTable, MAX_TABLE_PAYMENT,
};
pub use dp::{
    exhaustive_group_search, marginal_budget_dp, marginal_budget_dp_separable, DpOutcome, DpTable,
    DpTableSnapshot,
};
pub use even_allocation::EvenAllocation;
pub use exhaustive::ExhaustiveSearch;
pub use heterogeneous::{ClosenessNorm, CompromiseReport, HeterogeneousAlgorithm};
pub use repetition::RepetitionAlgorithm;

use crate::problem::{HTuningProblem, Scenario, TuningStrategy};

/// Picks the paper's optimal strategy for the problem's scenario: EA for
/// Scenario I, RA for Scenario II, HA for Scenario III.
pub fn optimal_strategy_for(problem: &HTuningProblem) -> Box<dyn TuningStrategy> {
    match problem.scenario() {
        Scenario::Homogeneous => Box::new(EvenAllocation::new()),
        Scenario::Repetition => Box::new(RepetitionAlgorithm::new()),
        Scenario::Heterogeneous => Box::new(HeterogeneousAlgorithm::new()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::money::Budget;
    use crate::rate::LinearRate;
    use crate::task::TaskSet;
    use std::sync::Arc;

    #[test]
    fn optimal_strategy_dispatches_on_scenario() {
        let model = Arc::new(LinearRate::unit_slope());

        let mut homo = TaskSet::new();
        let ty = homo.add_type("t", 1.0).unwrap();
        homo.add_tasks(ty, 2, 3).unwrap();
        let problem = HTuningProblem::new(homo, Budget::units(30), model.clone()).unwrap();
        assert_eq!(optimal_strategy_for(&problem).name(), "EA");

        let mut repe = TaskSet::new();
        let ty = repe.add_type("t", 1.0).unwrap();
        repe.add_tasks(ty, 2, 2).unwrap();
        repe.add_tasks(ty, 4, 2).unwrap();
        let problem = HTuningProblem::new(repe, Budget::units(40), model.clone()).unwrap();
        assert_eq!(optimal_strategy_for(&problem).name(), "RA");

        let mut heter = TaskSet::new();
        let a = heter.add_type("a", 1.0).unwrap();
        let b = heter.add_type("b", 2.0).unwrap();
        heter.add_tasks(a, 2, 2).unwrap();
        heter.add_tasks(b, 4, 2).unwrap();
        let problem = HTuningProblem::new(heter, Budget::units(40), model).unwrap();
        assert_eq!(optimal_strategy_for(&problem).name(), "HA");
    }

    #[test]
    fn dispatched_strategies_produce_feasible_allocations() {
        let model = Arc::new(LinearRate::moderate());
        let mut set = TaskSet::new();
        let a = set.add_type("a", 1.0).unwrap();
        let b = set.add_type("b", 2.0).unwrap();
        set.add_tasks(a, 3, 2).unwrap();
        set.add_tasks(b, 5, 2).unwrap();
        let problem = HTuningProblem::new(set, Budget::units(100), model).unwrap();
        let strategy = optimal_strategy_for(&problem);
        let result = strategy.tune(&problem).unwrap();
        problem.check_feasible(&result.allocation).unwrap();
    }
}
