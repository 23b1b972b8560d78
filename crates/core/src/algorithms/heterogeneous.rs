//! Heterogeneous Algorithm (HA) — Algorithm 3, the tuning strategy for
//! Scenario III.
//!
//! Tasks differ in both difficulty (processing rate `λp`) and repetition
//! count. Payment still only influences the on-hold phase, but the "most
//! difficult" group can dominate the overall latency through its processing
//! time, so the paper minimises **two objectives simultaneously**:
//!
//! * `O1` — the sum of expected phase-1 latencies of the task groups (the
//!   Scenario II objective);
//! * `O2` — the largest expected phase-1 + phase-2 latency over the groups
//!   (the "most difficult task" penalty).
//!
//! The Compromise strategy first computes the **Utopia Point**
//! `UP = (O1*, O2*)` by optimising each objective independently under the
//! budget, then minimises the **Closeness** `CL = ‖OP − UP‖` (first-order
//! distance) with the same budget-indexed marginal DP.

use crate::algorithms::common::{allocation_from_group_payments, GroupLatencyCache};
use crate::algorithms::dp::{marginal_budget_dp, marginal_budget_dp_separable};
use crate::error::{CoreError, Result};
use crate::latency::group_phase2_expected;
use crate::problem::{HTuningProblem, LatencyTarget, TuningResult, TuningStrategy};
use crate::task::TaskGroup;
use serde::{Deserialize, Serialize};

/// Which norm to use for the Closeness (distance to the utopia point). The
/// paper uses the first-order (L1) distance; L2 is provided for ablation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum ClosenessNorm {
    /// First-order distance `|O1 − O1*| + |O2 − O2*|` (the paper's choice).
    #[default]
    L1,
    /// Euclidean distance.
    L2,
}

impl ClosenessNorm {
    /// Evaluates the distance between the objective point and the utopia
    /// point.
    pub fn distance(self, objective: (f64, f64), utopia: (f64, f64)) -> f64 {
        let d1 = (objective.0 - utopia.0).abs();
        let d2 = (objective.1 - utopia.1).abs();
        match self {
            ClosenessNorm::L1 => d1 + d2,
            ClosenessNorm::L2 => (d1 * d1 + d2 * d2).sqrt(),
        }
    }
}

/// Detailed output of the Heterogeneous Algorithm, including the utopia point
/// and the final objective point.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CompromiseReport {
    /// Optimal value of `O1` alone under the budget.
    pub o1_star: f64,
    /// Optimal value of `O2` alone under the budget.
    pub o2_star: f64,
    /// `O1` at the selected allocation.
    pub o1: f64,
    /// `O2` at the selected allocation.
    pub o2: f64,
    /// Closeness of the selected allocation to the utopia point.
    pub closeness: f64,
    /// Per-group per-repetition payments selected.
    pub group_payments: Vec<u64>,
}

/// The Heterogeneous Algorithm (Algorithm 3).
#[derive(Debug, Clone, Copy, Default)]
pub struct HeterogeneousAlgorithm {
    norm: ClosenessNorm,
}

impl HeterogeneousAlgorithm {
    /// HA with the paper's first-order Closeness.
    pub fn new() -> Self {
        HeterogeneousAlgorithm {
            norm: ClosenessNorm::L1,
        }
    }

    /// HA with an explicit norm choice.
    pub fn with_norm(norm: ClosenessNorm) -> Self {
        HeterogeneousAlgorithm { norm }
    }

    /// Expected phase-2 latency of each group (`E{L2(g_i)} = k_i / λp_i`),
    /// which the payment cannot change.
    fn phase2_constants(problem: &HTuningProblem, groups: &[TaskGroup]) -> Result<Vec<f64>> {
        groups
            .iter()
            .map(|g| {
                let ty = problem
                    .task_set()
                    .type_by_id(g.task_type)
                    .ok_or_else(|| CoreError::invalid_argument("group references unknown type"))?;
                group_phase2_expected(g.repetitions, ty.processing_rate)
            })
            .collect()
    }

    /// Runs the full Compromise procedure and returns both the allocation and
    /// a [`CompromiseReport`] describing the utopia point.
    pub fn tune_detailed(
        &self,
        problem: &HTuningProblem,
    ) -> Result<(TuningResult, CompromiseReport)> {
        let task_set = problem.task_set();
        let groups = task_set.group_by_type_and_repetitions();
        let unit_costs: Vec<u64> = groups.iter().map(|g| g.unit_increment_cost()).collect();
        let extra_budget = problem.discretionary_budget();
        let phase2 = Self::phase2_constants(problem, &groups)?;

        let rate_model = problem.rate_model().clone();
        let cache = GroupLatencyCache::new(&rate_model, &groups);

        // Objective O1: sum of expected phase-1 group latencies. The cache
        // memoizes behind `&self`, so both objectives borrow it as `Fn`
        // closures.
        let o1 = |payments: &[u64]| -> Result<f64> {
            let mut sum = 0.0;
            for (i, &p) in payments.iter().enumerate() {
                sum += cache.phase1(i, p)?;
            }
            Ok(sum)
        };
        // Objective O2: the largest expected phase-1 + phase-2 group latency.
        let o2 = |payments: &[u64]| -> Result<f64> {
            let mut max = f64::MIN;
            for (i, &p) in payments.iter().enumerate() {
                max = max.max(cache.phase1(i, p)? + phase2[i]);
            }
            Ok(max)
        };

        // Utopia point: each objective optimised independently. O1 is
        // separable across groups, so its optimum uses the incremental O(1)
        // candidate evaluation; O2 (a max over groups) and the Closeness
        // below couple the groups and stay on the closure path.
        let o1_star = marginal_budget_dp_separable(&unit_costs, extra_budget, |group, payment| {
            cache.phase1(group, payment)
        })?
        .objective;
        let o2_star = marginal_budget_dp(&unit_costs, extra_budget, o2)?.objective;

        // Compromise: minimise the Closeness to (O1*, O2*). The utopia point
        // depends on the budget, so — unlike RA's budget-agnostic table —
        // this DP cannot be reused across budgets.
        let norm = self.norm;
        let outcome = marginal_budget_dp(&unit_costs, extra_budget, |payments| {
            let value1 = o1(payments)?;
            let value2 = o2(payments)?;
            Ok(norm.distance((value1, value2), (o1_star, o2_star)))
        })?;

        let o1_final = o1(&outcome.payments)?;
        let o2_final = o2(&outcome.payments)?;
        let report = CompromiseReport {
            o1_star,
            o2_star,
            o1: o1_final,
            o2: o2_final,
            closeness: outcome.objective,
            group_payments: outcome.payments.clone(),
        };

        let allocation = allocation_from_group_payments(task_set, &groups, &outcome.payments)?;
        problem.check_feasible(&allocation)?;
        let result = TuningResult::new(
            "HA",
            allocation,
            Some(outcome.objective),
            LatencyTarget::Compromise,
        );
        Ok((result, report))
    }
}

impl TuningStrategy for HeterogeneousAlgorithm {
    fn name(&self) -> &str {
        "HA"
    }

    fn tune(&self, problem: &HTuningProblem) -> Result<TuningResult> {
        Ok(self.tune_detailed(problem)?.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::latency::{JobLatencyEstimator, PhaseSelection};
    use crate::money::Allocation;
    use crate::money::{Budget, Payment};
    use crate::rate::LinearRate;
    use crate::task::TaskSet;
    use std::sync::Arc;

    fn heterogeneous_problem(budget: u64) -> HTuningProblem {
        // Scenario III in miniature: easy tasks (λp = 3) with 3 repetitions
        // and hard tasks (λp = 1) with 5 repetitions.
        let mut set = TaskSet::new();
        let easy = set.add_type("yes/no vote", 3.0).unwrap();
        let hard = set.add_type("sorting vote", 1.0).unwrap();
        set.add_tasks(easy, 3, 3).unwrap();
        set.add_tasks(hard, 5, 3).unwrap();
        HTuningProblem::new(
            set,
            Budget::units(budget),
            Arc::new(LinearRate::unit_slope()),
        )
        .unwrap()
    }

    #[test]
    fn closeness_norms() {
        let op = (3.0, 4.0);
        let up = (1.0, 1.0);
        assert!((ClosenessNorm::L1.distance(op, up) - 5.0).abs() < 1e-12);
        assert!((ClosenessNorm::L2.distance(op, up) - 13.0_f64.sqrt()).abs() < 1e-12);
        assert_eq!(ClosenessNorm::default(), ClosenessNorm::L1);
    }

    #[test]
    fn produces_feasible_allocation() {
        let problem = heterogeneous_problem(120);
        let result = HeterogeneousAlgorithm::new().tune(&problem).unwrap();
        assert_eq!(result.strategy, "HA");
        assert_eq!(result.target, LatencyTarget::Compromise);
        problem.check_feasible(&result.allocation).unwrap();
    }

    #[test]
    fn report_is_internally_consistent() {
        let problem = heterogeneous_problem(150);
        let (_, report) = HeterogeneousAlgorithm::new()
            .tune_detailed(&problem)
            .unwrap();
        // Both objectives are bounded below by their utopia components.
        assert!(report.o1 + 1e-9 >= report.o1_star);
        assert!(report.o2 + 1e-9 >= report.o2_star);
        // Closeness equals the norm distance between OP and UP.
        let recomputed =
            ClosenessNorm::L1.distance((report.o1, report.o2), (report.o1_star, report.o2_star));
        assert!((recomputed - report.closeness).abs() < 1e-9);
        assert_eq!(report.group_payments.len(), 2);
        assert!(report.group_payments.iter().all(|&p| p >= 1));
    }

    #[test]
    fn closeness_shrinks_with_budget() {
        let mut prev = f64::INFINITY;
        for budget in [60u64, 120, 240, 480] {
            let problem = heterogeneous_problem(budget);
            let (_, report) = HeterogeneousAlgorithm::new()
                .tune_detailed(&problem)
                .unwrap();
            // The utopia point itself moves with the budget, so we check a
            // weaker invariant: O1 and O2 both improve as the budget grows.
            let score = report.o1 + report.o2;
            assert!(
                score <= prev + 1e-6,
                "O1+O2 should not grow with budget ({score} vs {prev})"
            );
            prev = score;
        }
    }

    #[test]
    fn hard_group_receives_at_least_the_easy_group_payment() {
        // The hard group has both more repetitions and slower processing; the
        // compromise should never pay it less per repetition than the easy
        // group under a symmetric rate model.
        let problem = heterogeneous_problem(300);
        let (_, report) = HeterogeneousAlgorithm::new()
            .tune_detailed(&problem)
            .unwrap();
        // group 0 = easy (type 0, 3 reps), group 1 = hard (type 1, 5 reps)
        assert!(
            report.group_payments[1] >= report.group_payments[0],
            "hard group payment {:?} should be at least the easy group's",
            report.group_payments
        );
    }

    #[test]
    fn beats_uniform_heuristic_in_expected_overall_latency() {
        // Mirrors Figure 5(c): OPT vs the heuristic that gives every type the
        // same payment. We compare expected overall latency (both phases).
        let problem = heterogeneous_problem(240);
        let result = HeterogeneousAlgorithm::new().tune(&problem).unwrap();
        let estimator = JobLatencyEstimator::new(problem.task_set(), problem.rate_model());
        let opt = estimator
            .analytic_expected_latency(&result.allocation, PhaseSelection::Both)
            .unwrap();

        // Heuristic: every repetition of every task gets the same payment.
        let per_rep = 240 / problem.task_set().total_repetitions();
        let uniform = Allocation::uniform(
            &problem.task_set().repetition_counts(),
            Payment::units(per_rep),
        );
        let heuristic = estimator
            .analytic_expected_latency(&uniform, PhaseSelection::Both)
            .unwrap();
        assert!(
            opt <= heuristic * 1.02,
            "HA ({opt}) should be no worse than the uniform heuristic ({heuristic})"
        );
    }

    #[test]
    fn l2_norm_variant_also_produces_feasible_allocations() {
        let problem = heterogeneous_problem(180);
        let result = HeterogeneousAlgorithm::with_norm(ClosenessNorm::L2)
            .tune(&problem)
            .unwrap();
        problem.check_feasible(&result.allocation).unwrap();
    }

    #[test]
    fn works_when_all_tasks_fall_into_one_group() {
        let mut set = TaskSet::new();
        let ty = set.add_type("vote", 2.0).unwrap();
        set.add_tasks(ty, 2, 4).unwrap();
        let problem =
            HTuningProblem::new(set, Budget::units(40), Arc::new(LinearRate::unit_slope()))
                .unwrap();
        let (result, report) = HeterogeneousAlgorithm::new()
            .tune_detailed(&problem)
            .unwrap();
        problem.check_feasible(&result.allocation).unwrap();
        assert_eq!(report.group_payments.len(), 1);
        // With a single group O1 and O2 are both optimised by spending as
        // much as possible, so the closeness should be ~0.
        assert!(report.closeness.abs() < 1e-9);
    }
}
