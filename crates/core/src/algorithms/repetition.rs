//! Repetition Algorithm (RA) — Algorithm 2, the tuning strategy for
//! Scenario II.
//!
//! Tasks share the same difficulty but require different repetition counts.
//! The closed form of the overall latency is intractable for large task sets,
//! so the paper (Section 4.3.1) groups tasks by repetition count and
//! minimises the **sum of the expected phase-1 latencies of the groups**,
//! which upper-bounds (and tracks) the true expected maximum. The resulting
//! discrete optimisation is solved with the budget-indexed marginal dynamic
//! program of Algorithm 2. The objective is separable across groups
//! (`Σ_i E_i(p_i)`), so RA uses the incremental
//! [`marginal_budget_dp_separable`](crate::algorithms::dp::marginal_budget_dp_separable)
//! path: every DP candidate is scored in O(1) from cached per-group marginal
//! latencies instead of re-evaluating the full sum.

use crate::algorithms::common::{allocation_from_group_payments, GroupLatencyCache};
use crate::algorithms::dp::DpTable;
use crate::error::{CoreError, Result};
use crate::problem::{HTuningProblem, LatencyTarget, TuningResult, TuningStrategy};
use crate::task::TaskGroup;

/// The Repetition Algorithm (Algorithm 2).
#[derive(Debug, Clone, Copy, Default)]
pub struct RepetitionAlgorithm;

/// The strategy name RA stamps on its results.
const NAME: &str = "RA";

/// RA's repetition groups and their unit-increment costs for a problem.
fn groups_and_costs(problem: &HTuningProblem) -> (Vec<TaskGroup>, Vec<u64>) {
    let groups = problem.task_set().group_by_repetitions();
    let unit_costs = groups.iter().map(|g| g.unit_increment_cost()).collect();
    (groups, unit_costs)
}

/// Rejects a [`DpTable`] that was not built for this problem's group
/// structure (the cross-job reuse entry points take tables from callers).
fn check_table_shape(table: &DpTable, unit_costs: &[u64]) -> Result<()> {
    if table.unit_costs() != unit_costs {
        return Err(CoreError::invalid_argument(format!(
            "DP table was built for unit costs {:?}, problem requires {unit_costs:?}",
            table.unit_costs()
        )));
    }
    Ok(())
}

impl RepetitionAlgorithm {
    /// Creates the strategy.
    pub fn new() -> Self {
        RepetitionAlgorithm
    }

    /// Solves the problem and returns the full budget-indexed [`DpTable`]
    /// alongside the result.
    ///
    /// The table is the unit of **cross-job reuse**: its objective does not
    /// depend on the budget, so any job over the same task shape and rate
    /// curve is answered by [`RepetitionAlgorithm::result_from_table`] (for
    /// budgets the table covers) or grown in place by
    /// [`RepetitionAlgorithm::extend_table`] (for larger budgets) — both
    /// bit-identical to a cold solve at that budget, because every table
    /// level is computed once, from deterministic per-group latency terms,
    /// regardless of how far the table eventually extends.
    pub fn tune_with_table(&self, problem: &HTuningProblem) -> Result<(TuningResult, DpTable)> {
        let table = Self::build_table(problem)?;
        let result = Self::result_from_table(problem, &table)?;
        Ok((result, table))
    }

    /// Builds the budget-indexed [`DpTable`] for `problem` up to its
    /// discretionary budget, without reading a plan out of it (the table
    /// half of [`RepetitionAlgorithm::tune_with_table`]).
    pub fn build_table(problem: &HTuningProblem) -> Result<DpTable> {
        let (groups, unit_costs) = groups_and_costs(problem);
        let extra_budget = problem.discretionary_budget();

        // Memoized expected phase-1 group latencies E_i(p), backed by the
        // process-wide interned store.
        let rate_model = problem.rate_model().clone();
        let cache = GroupLatencyCache::new(&rate_model, &groups);

        debug_assert!(LatencyTarget::GroupSumOnHold.is_separable());
        DpTable::build_separable(&unit_costs, extra_budget, |group, payment| {
            cache.phase1(group, payment)
        })
    }

    /// Reads the RA plan for `problem` out of a previously built table: one
    /// `O(B')` decision-chain walk, no objective evaluations. The table must
    /// cover the problem's discretionary budget
    /// ([`RepetitionAlgorithm::extend_table`] grows it first otherwise) and
    /// must have been built over the same objective — same task shape and
    /// same rate curve — as the problem.
    pub fn result_from_table(problem: &HTuningProblem, table: &DpTable) -> Result<TuningResult> {
        let (groups, unit_costs) = groups_and_costs(problem);
        check_table_shape(table, &unit_costs)?;
        let outcome = table.outcome_at(problem.discretionary_budget())?;
        let allocation =
            allocation_from_group_payments(problem.task_set(), &groups, &outcome.payments)?;
        problem.check_feasible(&allocation)?;
        Ok(TuningResult::new(
            NAME,
            allocation,
            Some(outcome.objective),
            LatencyTarget::GroupSumOnHold,
        ))
    }

    /// Warm-starts `table` up to `problem`'s discretionary budget (a no-op
    /// when already covered). The caller guarantees the problem computes the
    /// same objective the table was built with (same task shape, same rate
    /// curve) — see the contract on [`DpTable::extend_to_separable`].
    pub fn extend_table(problem: &HTuningProblem, table: &mut DpTable) -> Result<()> {
        let (groups, unit_costs) = groups_and_costs(problem);
        check_table_shape(table, &unit_costs)?;
        let extra_budget = problem.discretionary_budget();
        if extra_budget <= table.max_budget() {
            return Ok(());
        }
        let rate_model = problem.rate_model().clone();
        let cache = GroupLatencyCache::new(&rate_model, &groups);
        table.extend_to_separable(extra_budget, |group, payment| cache.phase1(group, payment))
    }
}

impl TuningStrategy for RepetitionAlgorithm {
    fn name(&self) -> &str {
        NAME
    }

    fn tune(&self, problem: &HTuningProblem) -> Result<TuningResult> {
        Ok(self.tune_with_table(problem)?.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::dp::exhaustive_group_search;
    use crate::latency::{JobLatencyEstimator, PhaseSelection};
    use crate::money::{Allocation, Budget, Payment};
    use crate::rate::{LinearRate, RateModel};
    use crate::task::TaskSet;
    use std::sync::Arc;

    fn repetition_problem(budget: u64) -> HTuningProblem {
        // The paper's Scenario II setting in miniature: half the tasks need
        // 3 repetitions, the other half 5, identical difficulty.
        let mut set = TaskSet::new();
        let ty = set.add_type("vote", 2.0).unwrap();
        set.add_tasks(ty, 3, 4).unwrap();
        set.add_tasks(ty, 5, 4).unwrap();
        HTuningProblem::new(
            set,
            Budget::units(budget),
            Arc::new(LinearRate::unit_slope()),
        )
        .unwrap()
    }

    #[test]
    fn produces_feasible_allocation_with_objective() {
        let problem = repetition_problem(100);
        let result = RepetitionAlgorithm::new().tune(&problem).unwrap();
        assert_eq!(result.strategy, "RA");
        assert_eq!(result.target, LatencyTarget::GroupSumOnHold);
        problem.check_feasible(&result.allocation).unwrap();
        assert!(result.objective.unwrap() > 0.0);
    }

    #[test]
    fn all_members_of_a_group_share_the_per_repetition_payment() {
        let problem = repetition_problem(200);
        let result = RepetitionAlgorithm::new().tune(&problem).unwrap();
        let alloc = &result.allocation;
        // tasks 0..4 are the 3-repetition group, 4..8 the 5-repetition group
        let p3 = alloc.task_payments(0)[0];
        for task in 0..4 {
            assert!(alloc.task_payments(task).iter().all(|&p| p == p3));
        }
        let p5 = alloc.task_payments(4)[0];
        for task in 4..8 {
            assert!(alloc.task_payments(task).iter().all(|&p| p == p5));
        }
    }

    #[test]
    fn objective_decreases_with_budget() {
        let strategy = RepetitionAlgorithm::new();
        let mut prev = f64::INFINITY;
        for budget in [40u64, 80, 160, 320, 640] {
            let problem = repetition_problem(budget);
            let result = strategy.tune(&problem).unwrap();
            let objective = result.objective.unwrap();
            assert!(
                objective <= prev + 1e-9,
                "objective should not increase with budget ({objective} vs {prev})"
            );
            prev = objective;
        }
    }

    #[test]
    fn matches_exhaustive_search_on_small_instances() {
        for budget in [20u64, 25, 31, 40] {
            let mut set = TaskSet::new();
            let ty = set.add_type("vote", 2.0).unwrap();
            set.add_tasks(ty, 2, 2).unwrap();
            set.add_tasks(ty, 3, 2).unwrap();
            let problem = HTuningProblem::new(
                set,
                Budget::units(budget),
                Arc::new(LinearRate::unit_slope()),
            )
            .unwrap();
            let result = RepetitionAlgorithm::new().tune(&problem).unwrap();

            // Brute-force the same group-sum objective.
            let groups = problem.task_set().group_by_repetitions();
            let unit_costs: Vec<u64> = groups.iter().map(|g| g.unit_increment_cost()).collect();
            let rate_model = problem.rate_model().clone();
            let cache = GroupLatencyCache::new(&rate_model, &groups);
            let brute =
                exhaustive_group_search(&unit_costs, problem.discretionary_budget(), |payments| {
                    let mut sum = 0.0;
                    for (i, &p) in payments.iter().enumerate() {
                        sum += cache.phase1(i, p)?;
                    }
                    Ok(sum)
                })
                .unwrap();
            let dp_objective = result.objective.unwrap();
            assert!(
                (dp_objective - brute.objective).abs() < 1e-9,
                "budget {budget}: DP {dp_objective} vs exhaustive {}",
                brute.objective
            );
        }
    }

    #[test]
    fn beats_task_even_and_rep_even_baselines_in_expected_latency() {
        // Reproduces the qualitative outcome of Figure 2 (repe panels): the
        // optimised allocation yields lower expected phase-1 latency than
        // either baseline at the same budget.
        let problem = repetition_problem(240);
        let result = RepetitionAlgorithm::new().tune(&problem).unwrap();
        let estimator = JobLatencyEstimator::new(problem.task_set(), problem.rate_model());
        let opt_latency = estimator
            .analytic_expected_latency(&result.allocation, PhaseSelection::OnHoldOnly)
            .unwrap();

        // task-even: every task receives the same total budget.
        let per_task = 240 / 8;
        let task_even = Allocation::from_matrix(
            problem
                .task_set()
                .tasks()
                .iter()
                .map(|t| {
                    let per_rep = per_task / u64::from(t.repetitions);
                    vec![Payment::units(per_rep.max(1)); t.repetitions as usize]
                })
                .collect(),
        );
        // rep-even: every repetition receives the same payment.
        let total_reps = problem.task_set().total_repetitions();
        let per_rep = 240 / total_reps;
        let rep_even = Allocation::uniform(
            &problem.task_set().repetition_counts(),
            Payment::units(per_rep),
        );

        let te_latency = estimator
            .analytic_expected_latency(&task_even, PhaseSelection::OnHoldOnly)
            .unwrap();
        let re_latency = estimator
            .analytic_expected_latency(&rep_even, PhaseSelection::OnHoldOnly)
            .unwrap();
        assert!(
            opt_latency <= te_latency + 1e-6,
            "RA {opt_latency} should beat task-even {te_latency}"
        );
        assert!(
            opt_latency <= re_latency + 1e-6,
            "RA {opt_latency} should beat rep-even {re_latency}"
        );
    }

    #[test]
    fn price_insensitive_market_leaves_budget_unspent_without_harm() {
        // With a very flat rate model (λ = 0.1p + 10) extra payment changes
        // little; the DP may leave budget unspent but must stay feasible.
        let mut set = TaskSet::new();
        let ty = set.add_type("vote", 2.0).unwrap();
        set.add_tasks(ty, 3, 2).unwrap();
        set.add_tasks(ty, 5, 2).unwrap();
        let problem =
            HTuningProblem::new(set, Budget::units(300), Arc::new(LinearRate::flat())).unwrap();
        let result = RepetitionAlgorithm::new().tune(&problem).unwrap();
        problem.check_feasible(&result.allocation).unwrap();
        assert!(result.allocation.total_spent() <= 300);
    }

    #[test]
    fn single_group_degenerates_to_even_allocation_shape() {
        // When all tasks share the repetition count RA has a single group and
        // must give every repetition the same payment.
        let mut set = TaskSet::new();
        let ty = set.add_type("vote", 2.0).unwrap();
        set.add_tasks(ty, 4, 3).unwrap();
        let problem =
            HTuningProblem::new(set, Budget::units(60), Arc::new(LinearRate::unit_slope()))
                .unwrap();
        let result = RepetitionAlgorithm::new().tune(&problem).unwrap();
        let payments: Vec<u64> = result
            .allocation
            .iter()
            .map(|(_, _, p)| p.as_units())
            .collect();
        assert!(payments.windows(2).all(|w| w[0] == w[1]));
        assert_eq!(payments[0], 5); // 60 units / 12 repetition slots
    }

    /// The cross-job reuse surface: a table built once answers smaller
    /// budgets by prefix reads and larger budgets after an in-place
    /// extension, bit-identical to cold solves at those budgets.
    #[test]
    fn table_reuse_is_bit_identical_to_cold_solves_across_budgets() {
        let build_problem = repetition_problem(160);
        let (result, mut table) = RepetitionAlgorithm::new()
            .tune_with_table(&build_problem)
            .unwrap();
        let direct = RepetitionAlgorithm::new().tune(&build_problem).unwrap();
        assert_eq!(result.allocation, direct.allocation);
        assert_eq!(
            result.objective.unwrap().to_bits(),
            direct.objective.unwrap().to_bits()
        );

        for budget in [100u64, 120, 160, 200, 320] {
            let problem = repetition_problem(budget);
            RepetitionAlgorithm::extend_table(&problem, &mut table).unwrap();
            let reused = RepetitionAlgorithm::result_from_table(&problem, &table).unwrap();
            let cold = RepetitionAlgorithm::new().tune(&problem).unwrap();
            assert_eq!(reused.allocation, cold.allocation, "budget {budget}");
            assert_eq!(
                reused.objective.unwrap().to_bits(),
                cold.objective.unwrap().to_bits(),
                "budget {budget}"
            );
            assert_eq!(reused.strategy, "RA");
        }
    }

    /// Tables from a different group structure are rejected instead of
    /// silently producing plans for the wrong problem.
    #[test]
    fn table_reuse_rejects_mismatched_group_structure() {
        let (_, table) = RepetitionAlgorithm::new()
            .tune_with_table(&repetition_problem(100))
            .unwrap();
        // Same total slots, different repetition partition → different unit
        // costs.
        let mut set = TaskSet::new();
        let ty = set.add_type("vote", 2.0).unwrap();
        set.add_tasks(ty, 2, 4).unwrap();
        set.add_tasks(ty, 6, 4).unwrap();
        let other =
            HTuningProblem::new(set, Budget::units(100), Arc::new(LinearRate::unit_slope()))
                .unwrap();
        assert!(RepetitionAlgorithm::result_from_table(&other, &table).is_err());
        let mut table = table;
        assert!(RepetitionAlgorithm::extend_table(&other, &mut table).is_err());
    }

    #[test]
    fn works_with_nonlinear_rate_models() {
        let mut set = TaskSet::new();
        let ty = set.add_type("vote", 2.0).unwrap();
        set.add_tasks(ty, 3, 2).unwrap();
        set.add_tasks(ty, 5, 2).unwrap();
        let quad = crate::rate::QuadraticRate::paper();
        let problem = HTuningProblem::new(set.clone(), Budget::units(120), Arc::new(quad)).unwrap();
        let result = RepetitionAlgorithm::new().tune(&problem).unwrap();
        problem.check_feasible(&result.allocation).unwrap();

        let log = crate::rate::LogRate::paper();
        assert!(log.on_hold_rate(1.0) > 0.0);
        let problem = HTuningProblem::new(set, Budget::units(120), Arc::new(log)).unwrap();
        let result = RepetitionAlgorithm::new().tune(&problem).unwrap();
        problem.check_feasible(&result.allocation).unwrap();
    }
}
