//! Expected-latency computation for task groups and whole allocations.
//!
//! Two levels of machinery live here:
//!
//! 1. **Group formulas** used inside the tuning algorithms (Section 4.3.1 of
//!    the paper): expected phase-1 latency of a group of `n` tasks each
//!    requiring `k` repetitions at a common per-repetition payment, and the
//!    expected phase-2 (processing) latency that the payment cannot change.
//!
//! 2. **A job-level estimator** ([`JobLatencyEstimator`]) that evaluates an
//!    arbitrary [`Allocation`] against a [`TaskSet`]: analytically via a
//!    moment-matched Gamma approximation of each task's latency, and exactly
//!    in distribution via Monte Carlo sampling. The two are cross-validated
//!    in the test suite and in the ablation benches.

use crate::error::{CoreError, Result};
use crate::money::Allocation;
use crate::rate::RateModel;
use crate::stats::exponential::Exponential;
use crate::stats::numerical::integrate_to_infinity_gk21;
use crate::stats::order_stats::expected_max_erlang;
use crate::stats::special::GammaDist;
use crate::task::{TaskGroup, TaskSet};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Version of the job-level estimate's numerical rule (today: adaptive
/// 10/21-point Gauss–Kronrod at tolerance 1e-8; see
/// [`JobLatencyEstimator::analytic_expected_latency`]). Bump it whenever the
/// estimate's bits change for the same inputs: stored plans carry it, and a
/// store reloads only plans whose estimates this version computed.
pub const ESTIMATOR_VERSION: u32 = 1;

/// Which latency phases an estimate should include.
///
/// Scenarios I and II tune only the on-hold phase because the payment cannot
/// influence processing time and the processing phase is identical across
/// homogeneous tasks; Scenario III and the end-to-end experiments need both.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum PhaseSelection {
    /// Only the on-hold (acceptance) phase.
    OnHoldOnly,
    /// On-hold plus processing phase.
    #[default]
    Both,
}

impl PhaseSelection {
    /// Whether the processing phase is included.
    pub fn includes_processing(self) -> bool {
        matches!(self, PhaseSelection::Both)
    }
}

/// Expected phase-1 (on-hold) latency of a task group: the expected maximum
/// over `group_size` independent `Erlang(repetitions, on_hold_rate)`
/// latencies. This is the `E{L(g)}` of Section 4.3.1.
pub fn group_phase1_expected(group_size: u64, repetitions: u32, on_hold_rate: f64) -> Result<f64> {
    expected_max_erlang(group_size, repetitions, on_hold_rate)
}

/// Expected phase-2 (processing) latency accumulated by one task of the
/// group: `repetitions / processing_rate`. Independent of payment.
pub fn group_phase2_expected(repetitions: u32, processing_rate: f64) -> Result<f64> {
    if !processing_rate.is_finite() || processing_rate <= 0.0 {
        return Err(CoreError::invalid_distribution(format!(
            "processing rate must be positive and finite, got {processing_rate}"
        )));
    }
    Ok(f64::from(repetitions) / processing_rate)
}

/// Expected phase-1 + phase-2 latency of a task group; the `O2` component of
/// Scenario III (`E{L1(gi)} + E{L2(gi)}`).
pub fn group_total_expected(
    group_size: u64,
    repetitions: u32,
    on_hold_rate: f64,
    processing_rate: f64,
) -> Result<f64> {
    Ok(
        group_phase1_expected(group_size, repetitions, on_hold_rate)?
            + group_phase2_expected(repetitions, processing_rate)?,
    )
}

/// Expected phase-1 latency of a [`TaskGroup`] under a rate model and a
/// per-repetition payment (all repetitions of the group share the payment —
/// Lemma 2 shows the even split is optimal within a task).
pub fn group_phase1_expected_at_payment<M: RateModel + ?Sized>(
    group: &TaskGroup,
    rate_model: &M,
    per_repetition_payment: u64,
) -> Result<f64> {
    let rate = rate_model.on_hold_rate(per_repetition_payment as f64);
    if !rate.is_finite() || rate <= 0.0 {
        return Err(CoreError::InvalidRate {
            payment: per_repetition_payment,
            rate,
        });
    }
    group_phase1_expected(group.size() as u64, group.repetitions, rate)
}

/// Summary of a single task's latency distribution under an allocation:
/// mean and variance of each phase, used by the Gamma moment matching.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub struct TaskLatencyMoments {
    /// Mean of the phase-1 (on-hold) latency summed across repetitions.
    pub phase1_mean: f64,
    /// Variance of the phase-1 latency.
    pub phase1_var: f64,
    /// Mean of the phase-2 (processing) latency summed across repetitions.
    pub phase2_mean: f64,
    /// Variance of the phase-2 latency.
    pub phase2_var: f64,
}

impl TaskLatencyMoments {
    /// Mean of the selected phases.
    pub fn mean(&self, phases: PhaseSelection) -> f64 {
        match phases {
            PhaseSelection::OnHoldOnly => self.phase1_mean,
            PhaseSelection::Both => self.phase1_mean + self.phase2_mean,
        }
    }

    /// Variance of the selected phases (phases are independent).
    pub fn variance(&self, phases: PhaseSelection) -> f64 {
        match phases {
            PhaseSelection::OnHoldOnly => self.phase1_var,
            PhaseSelection::Both => self.phase1_var + self.phase2_var,
        }
    }
}

/// Evaluates the expected overall latency of a job (the expected maximum of
/// the per-task latencies, Section 3.2.1) for an arbitrary allocation.
pub struct JobLatencyEstimator<'a, M: RateModel + ?Sized> {
    task_set: &'a TaskSet,
    rate_model: &'a M,
}

impl<'a, M: RateModel + ?Sized> JobLatencyEstimator<'a, M> {
    /// Creates an estimator for the given task set and on-hold rate model.
    pub fn new(task_set: &'a TaskSet, rate_model: &'a M) -> Self {
        JobLatencyEstimator {
            task_set,
            rate_model,
        }
    }

    /// Per-task latency moments under the allocation.
    pub fn task_moments(&self, allocation: &Allocation) -> Result<Vec<TaskLatencyMoments>> {
        self.task_set.validate()?;
        if allocation.task_count() != self.task_set.len() {
            return Err(CoreError::invalid_argument(format!(
                "allocation covers {} tasks but the task set has {}",
                allocation.task_count(),
                self.task_set.len()
            )));
        }
        let mut out = Vec::with_capacity(self.task_set.len());
        for (index, task) in self.task_set.tasks().iter().enumerate() {
            let payments = allocation.task_payments(index);
            if payments.len() != task.repetitions as usize {
                return Err(CoreError::invalid_argument(format!(
                    "task {index} has {} repetitions but the allocation provides {} payments",
                    task.repetitions,
                    payments.len()
                )));
            }
            let mut phase1_mean = 0.0;
            let mut phase1_var = 0.0;
            for payment in payments {
                let rate = self.rate_model.on_hold_rate(payment.as_f64());
                if !rate.is_finite() || rate <= 0.0 {
                    return Err(CoreError::InvalidRate {
                        payment: payment.as_units(),
                        rate,
                    });
                }
                phase1_mean += 1.0 / rate;
                phase1_var += 1.0 / (rate * rate);
            }
            let task_type = self
                .task_set
                .type_by_id(task.task_type)
                .ok_or_else(|| CoreError::invalid_argument("task references unknown type"))?;
            let lp = task_type.processing_rate;
            let reps = f64::from(task.repetitions);
            out.push(TaskLatencyMoments {
                phase1_mean,
                phase1_var,
                phase2_mean: reps / lp,
                phase2_var: reps / (lp * lp),
            });
        }
        Ok(out)
    }

    /// Analytic estimate of the expected job latency.
    ///
    /// Each task's latency (a sum of exponential phases with possibly
    /// distinct rates) is approximated by a Gamma distribution with matched
    /// mean and variance; the expected maximum is then computed from the
    /// product of the per-task CDFs. For allocations with equal per-repetition
    /// payments the Gamma is exact (it reduces to an Erlang).
    ///
    /// The survival integral `∫_0^∞ (1 − Π_i F_i(t)) dt` is evaluated by
    /// adaptive 10/21-point Gauss–Kronrod on geometric panels at tolerance
    /// 1e-8 (relative to the total once it exceeds 1). The rule's bits are
    /// versioned by [`ESTIMATOR_VERSION`].
    pub fn analytic_expected_latency(
        &self,
        allocation: &Allocation,
        phases: PhaseSelection,
    ) -> Result<f64> {
        let (survival, scale) = self.job_survival(allocation, phases)?;
        integrate_to_infinity_gk21(survival, scale, 1e-8)
    }

    /// The integrand of [`JobLatencyEstimator::analytic_expected_latency`],
    /// `t ↦ 1 − Π_i F_i(t)` over the tasks' moment-matched Gammas, and the
    /// width of its first quadrature panel (the largest task mean plus four
    /// standard deviations).
    fn job_survival(
        &self,
        allocation: &Allocation,
        phases: PhaseSelection,
    ) -> Result<(impl Fn(f64) -> f64, f64)> {
        let moments = self.task_moments(allocation)?;
        // Collapse identical task profiles before integrating: the optimal
        // allocations pay every member of a group the same per-repetition
        // amount, so a job with hundreds of tasks typically has only a
        // handful of distinct `(shape, rate)` pairs. Each quadrature point
        // then costs one frozen-Gamma CDF per *distinct profile* (raised to
        // the multiplicity) instead of one incomplete-gamma evaluation per
        // task — the integrand this saves on used to dominate the whole
        // serve path.
        let mut profiles: Vec<(GammaDist, i32)> = Vec::with_capacity(moments.len().min(16));
        let mut profile_index: HashMap<(u64, u64), usize> = HashMap::new();
        let mut scale = 0.0_f64;
        for m in &moments {
            let mean = m.mean(phases);
            let var = m.variance(phases);
            if mean <= 0.0 || var <= 0.0 {
                return Err(CoreError::invalid_distribution(
                    "task latency moments must be positive".to_owned(),
                ));
            }
            let shape = mean * mean / var;
            let rate = mean / var;
            match profile_index.entry((shape.to_bits(), rate.to_bits())) {
                std::collections::hash_map::Entry::Occupied(entry) => {
                    profiles[*entry.get()].1 += 1;
                }
                std::collections::hash_map::Entry::Vacant(entry) => {
                    entry.insert(profiles.len());
                    profiles.push((GammaDist::new(shape, rate)?, 1));
                }
            }
            scale = scale.max(mean + 4.0 * var.sqrt());
        }
        let survival = move |t| {
            let mut product = 1.0;
            for &(dist, count) in &profiles {
                let c = dist.cdf(t).unwrap_or(0.0);
                product *= if count == 1 { c } else { c.powi(count) };
                if product == 0.0 {
                    break;
                }
            }
            1.0 - product
        };
        Ok((survival, scale))
    }

    /// Monte-Carlo estimate of the expected job latency. Exact in
    /// distribution; the precision improves as `1/sqrt(trials)`.
    pub fn monte_carlo_expected_latency(
        &self,
        allocation: &Allocation,
        phases: PhaseSelection,
        trials: usize,
        seed: u64,
    ) -> Result<f64> {
        if trials == 0 {
            return Err(CoreError::invalid_argument(
                "at least one Monte Carlo trial is required".to_owned(),
            ));
        }
        self.task_set.validate()?;
        if allocation.task_count() != self.task_set.len() {
            return Err(CoreError::invalid_argument(format!(
                "allocation covers {} tasks but the task set has {}",
                allocation.task_count(),
                self.task_set.len()
            )));
        }
        // Pre-build the per-repetition exponential samplers once.
        let mut task_samplers: Vec<(Vec<Exponential>, Exponential, u32)> =
            Vec::with_capacity(self.task_set.len());
        for (index, task) in self.task_set.tasks().iter().enumerate() {
            let payments = allocation.task_payments(index);
            if payments.len() != task.repetitions as usize {
                return Err(CoreError::invalid_argument(format!(
                    "task {index} has {} repetitions but the allocation provides {} payments",
                    task.repetitions,
                    payments.len()
                )));
            }
            let mut on_hold = Vec::with_capacity(payments.len());
            for payment in payments {
                let rate = self.rate_model.on_hold_rate(payment.as_f64());
                if !rate.is_finite() || rate <= 0.0 {
                    return Err(CoreError::InvalidRate {
                        payment: payment.as_units(),
                        rate,
                    });
                }
                on_hold.push(Exponential::new(rate)?);
            }
            let task_type = self
                .task_set
                .type_by_id(task.task_type)
                .ok_or_else(|| CoreError::invalid_argument("task references unknown type"))?;
            let processing = Exponential::new(task_type.processing_rate)?;
            task_samplers.push((on_hold, processing, task.repetitions));
        }

        let mut rng = StdRng::seed_from_u64(seed);
        let mut acc = 0.0;
        for _ in 0..trials {
            let mut job_latency = 0.0_f64;
            for (on_hold, processing, reps) in &task_samplers {
                let mut task_latency = 0.0;
                for sampler in on_hold {
                    task_latency += sampler.sample(&mut rng);
                }
                if phases.includes_processing() {
                    for _ in 0..*reps {
                        task_latency += processing.sample(&mut rng);
                    }
                }
                job_latency = job_latency.max(task_latency);
            }
            acc += job_latency;
        }
        Ok(acc / trials as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::{
        BiasedAllocation, EvenAllocation, HeterogeneousAlgorithm, RepetitionAlgorithm,
        RepetitionEvenAllocation, TaskEvenAllocation,
    };
    use crate::money::{Budget, Payment};
    use crate::problem::{HTuningProblem, TuningStrategy};
    use crate::rate::{LinearRate, LogRate, PaperRateModel};
    use crate::stats::numerical::integrate_to_infinity;
    use crate::stats::order_stats::expected_max_exponential;
    use crate::tuner::Tuner;
    use rand::Rng;
    use std::sync::Arc;

    fn homogeneous_set(tasks: usize, reps: u32, lp: f64) -> TaskSet {
        let mut set = TaskSet::new();
        let ty = set.add_type("vote", lp).unwrap();
        set.add_tasks(ty, reps, tasks).unwrap();
        set
    }

    #[test]
    fn phase_selection_flags() {
        assert!(!PhaseSelection::OnHoldOnly.includes_processing());
        assert!(PhaseSelection::Both.includes_processing());
        assert_eq!(PhaseSelection::default(), PhaseSelection::Both);
    }

    #[test]
    fn group_phase_formulas() {
        // single round, single task: 1/λ
        assert!((group_phase1_expected(1, 1, 2.0).unwrap() - 0.5).abs() < 1e-12);
        // single round, n tasks: H_n / λ
        let v = group_phase1_expected(4, 1, 2.0).unwrap();
        assert!((v - expected_max_exponential(4, 2.0).unwrap()).abs() < 1e-12);
        // phase 2 is reps / λp
        assert!((group_phase2_expected(5, 2.0).unwrap() - 2.5).abs() < 1e-12);
        assert!(group_phase2_expected(5, 0.0).is_err());
        // total is the sum
        let total = group_total_expected(4, 1, 2.0, 2.0).unwrap();
        assert!((total - (v + 0.5)).abs() < 1e-12);
    }

    #[test]
    fn group_phase1_at_payment_uses_rate_model() {
        let set = homogeneous_set(3, 2, 2.0);
        let groups = set.group_by_repetitions();
        let model = LinearRate::unit_slope();
        let low = group_phase1_expected_at_payment(&groups[0], &model, 1).unwrap();
        let high = group_phase1_expected_at_payment(&groups[0], &model, 10).unwrap();
        assert!(high < low, "more payment must not slow the group down");
    }

    #[test]
    fn task_moments_match_hand_computation() {
        let set = homogeneous_set(1, 2, 4.0);
        let model = LinearRate::unit_slope(); // λo(p) = p + 1
        let estimator = JobLatencyEstimator::new(&set, &model);
        let alloc = Allocation::from_matrix(vec![vec![Payment::units(1), Payment::units(3)]]);
        let moments = estimator.task_moments(&alloc).unwrap();
        assert_eq!(moments.len(), 1);
        let m = moments[0];
        assert!((m.phase1_mean - (0.5 + 0.25)).abs() < 1e-12);
        assert!((m.phase1_var - (0.25 + 0.0625)).abs() < 1e-12);
        assert!((m.phase2_mean - 0.5).abs() < 1e-12);
        assert!((m.phase2_var - 0.125).abs() < 1e-12);
        assert!((m.mean(PhaseSelection::Both) - 1.25).abs() < 1e-12);
        assert!((m.variance(PhaseSelection::OnHoldOnly) - 0.3125).abs() < 1e-12);
    }

    #[test]
    fn estimator_rejects_mismatched_allocation() {
        let set = homogeneous_set(2, 2, 1.0);
        let model = LinearRate::unit_slope();
        let estimator = JobLatencyEstimator::new(&set, &model);
        // wrong number of tasks
        let alloc = Allocation::uniform(&[2], Payment::units(1));
        assert!(estimator.task_moments(&alloc).is_err());
        // wrong number of repetitions in one task
        let alloc = Allocation::from_matrix(vec![
            vec![Payment::units(1)],
            vec![Payment::units(1), Payment::units(1)],
        ]);
        assert!(estimator.task_moments(&alloc).is_err());
        assert!(estimator
            .monte_carlo_expected_latency(&alloc, PhaseSelection::Both, 10, 1)
            .is_err());
    }

    #[test]
    fn analytic_matches_closed_form_for_single_round_homogeneous_tasks() {
        // n identical single-round tasks with equal payments: expected max is
        // H_n / λ exactly, and the Gamma approximation is exact there.
        let set = homogeneous_set(6, 1, 10.0);
        let model = LinearRate::new(1.0, 0.0).unwrap(); // λ = p
        let estimator = JobLatencyEstimator::new(&set, &model);
        let alloc = Allocation::uniform(&set.repetition_counts(), Payment::units(4));
        let analytic = estimator
            .analytic_expected_latency(&alloc, PhaseSelection::OnHoldOnly)
            .unwrap();
        let exact = expected_max_exponential(6, 4.0).unwrap();
        assert!(
            (analytic - exact).abs() < 1e-4,
            "analytic {analytic} vs exact {exact}"
        );
    }

    #[test]
    fn analytic_matches_monte_carlo_for_mixed_allocation() {
        let mut set = TaskSet::new();
        let easy = set.add_type("easy", 3.0).unwrap();
        let hard = set.add_type("hard", 1.0).unwrap();
        set.add_tasks(easy, 2, 3).unwrap();
        set.add_tasks(hard, 4, 2).unwrap();
        let model = LinearRate::moderate();
        let estimator = JobLatencyEstimator::new(&set, &model);
        let alloc = Allocation::from_matrix(vec![
            vec![Payment::units(2), Payment::units(2)],
            vec![Payment::units(1), Payment::units(3)],
            vec![Payment::units(2), Payment::units(2)],
            vec![Payment::units(5); 4],
            vec![Payment::units(1); 4],
        ]);
        let analytic = estimator
            .analytic_expected_latency(&alloc, PhaseSelection::Both)
            .unwrap();
        let mc = estimator
            .monte_carlo_expected_latency(&alloc, PhaseSelection::Both, 60_000, 99)
            .unwrap();
        assert!(
            (analytic - mc).abs() / mc < 0.05,
            "analytic {analytic} vs monte carlo {mc}"
        );
    }

    #[test]
    fn monte_carlo_is_deterministic_per_seed() {
        let set = homogeneous_set(4, 2, 2.0);
        let model = LinearRate::unit_slope();
        let estimator = JobLatencyEstimator::new(&set, &model);
        let alloc = Allocation::uniform(&set.repetition_counts(), Payment::units(3));
        let a = estimator
            .monte_carlo_expected_latency(&alloc, PhaseSelection::Both, 5_000, 7)
            .unwrap();
        let b = estimator
            .monte_carlo_expected_latency(&alloc, PhaseSelection::Both, 5_000, 7)
            .unwrap();
        assert_eq!(a, b);
        let c = estimator
            .monte_carlo_expected_latency(&alloc, PhaseSelection::Both, 5_000, 8)
            .unwrap();
        assert_ne!(a, c);
        assert!(estimator
            .monte_carlo_expected_latency(&alloc, PhaseSelection::Both, 0, 7)
            .is_err());
    }

    #[test]
    fn more_budget_reduces_expected_latency() {
        let set = homogeneous_set(10, 3, 2.0);
        let model = LinearRate::unit_slope();
        let estimator = JobLatencyEstimator::new(&set, &model);
        let cheap = Allocation::uniform(&set.repetition_counts(), Payment::units(1));
        let rich = Allocation::uniform(&set.repetition_counts(), Payment::units(10));
        let cheap_latency = estimator
            .analytic_expected_latency(&cheap, PhaseSelection::OnHoldOnly)
            .unwrap();
        let rich_latency = estimator
            .analytic_expected_latency(&rich, PhaseSelection::OnHoldOnly)
            .unwrap();
        assert!(rich_latency < cheap_latency);
    }

    #[test]
    fn processing_phase_adds_latency() {
        let set = homogeneous_set(5, 2, 1.0);
        let model = LinearRate::unit_slope();
        let estimator = JobLatencyEstimator::new(&set, &model);
        let alloc = Allocation::uniform(&set.repetition_counts(), Payment::units(4));
        let phase1 = estimator
            .analytic_expected_latency(&alloc, PhaseSelection::OnHoldOnly)
            .unwrap();
        let both = estimator
            .analytic_expected_latency(&alloc, PhaseSelection::Both)
            .unwrap();
        assert!(both > phase1);
    }

    /// Asserts both estimates of `allocation` lie within 1e-9 relative of
    /// a tight reference: adaptive Simpson at tolerance 1e-12 on the
    /// estimate's own integrand.
    fn assert_estimates_meet_reference(
        problem: &HTuningProblem,
        allocation: &Allocation,
        what: &str,
    ) {
        let estimator = JobLatencyEstimator::new(problem.task_set(), problem.rate_model());
        for phases in [PhaseSelection::Both, PhaseSelection::OnHoldOnly] {
            let estimate = estimator
                .analytic_expected_latency(allocation, phases)
                .unwrap();
            let (survival, scale) = estimator.job_survival(allocation, phases).unwrap();
            let reference = integrate_to_infinity(survival, scale, 1e-12).unwrap();
            assert!(
                (estimate - reference).abs() <= 1e-9 * reference,
                "{what} {phases:?}: estimate {estimate} vs reference {reference}"
            );
        }
    }

    #[test]
    fn ea_on_hold_estimate_meets_its_tolerance() {
        // A job on which adaptive Simpson stopped early on a chance
        // agreement and missed the 1e-8 tolerance by 6.4e-6.
        let mut set = TaskSet::new();
        let ty = set.add_type("filter", 2.609056506227904).unwrap();
        set.add_tasks(ty, 2, 4).unwrap();
        let model = LinearRate::new(1.5681304240410818, 0.48420669513395237).unwrap();
        let plan = Tuner::new(Arc::new(model))
            .plan(set, Budget::units(46))
            .unwrap();
        let expected = Allocation::from_matrix(
            [[6, 6], [6, 6], [6, 5], [6, 5]]
                .iter()
                .map(|task| task.iter().map(|&p| Payment::units(p)).collect())
                .collect(),
        );
        assert_eq!(plan.result.strategy, "EA");
        assert_eq!(plan.result.allocation, expected);
        let on_hold = plan.expected_on_hold_latency;
        assert_eq!(plan.result.objective, Some(on_hold));
        assert!(
            (on_hold - 0.376360145547).abs() <= 1e-9 * 0.376360145547,
            "on-hold estimate {on_hold}"
        );
    }

    #[test]
    fn single_round_both_phase_estimate_meets_its_tolerance() {
        // A single-round job whose both-phase estimate Simpson left 1.6e-6
        // short.
        let mut set = TaskSet::new();
        let ty = set.add_type("filter", 2.434224599652634).unwrap();
        set.add_tasks(ty, 1, 16).unwrap();
        let model = LinearRate::new(1.397732089479133, 0.5263475064761685).unwrap();
        let plan = Tuner::new(Arc::new(model))
            .plan(set, Budget::units(34))
            .unwrap();
        let both = plan.expected_latency;
        assert!(
            (both - 1.836762123772).abs() <= 1e-9 * 1.836762123772,
            "both-phase estimate {both}"
        );
    }

    /// `base` scaled by a factor uniform in `[0.9, 1.1)`.
    fn jitter(rng: &mut StdRng, base: f64) -> f64 {
        base * (0.9 + 0.2 * rng.gen::<f64>())
    }

    #[test]
    fn estimates_match_a_tight_simpson_reference_on_serving_shaped_jobs() {
        // EA, RA and HA jobs shaped like the benchmark's strata: one task
        // type with uniform repetitions, one type with two or three
        // repetition levels, an easy and a hard type; jittered rates, a
        // logarithmic curve every eighth stratum, budgets of 2–4× the slots.
        let mut rng = StdRng::seed_from_u64(0x6b21);
        for i in 0..200usize {
            let stratum = i / 3;
            let mut set = TaskSet::new();
            match i % 3 {
                0 => {
                    let ty = set.add_type("filter", jitter(&mut rng, 2.5)).unwrap();
                    let reps = 1 + (stratum / 7 % 5) as u32;
                    set.add_tasks(ty, reps, 4 + 2 * (stratum % 7)).unwrap();
                }
                1 => {
                    let ty = set.add_type("vote", jitter(&mut rng, 2.0)).unwrap();
                    let levels: &[u32] = if stratum % 2 == 0 {
                        &[3, 5]
                    } else {
                        &[2, 4, 6]
                    };
                    for (g, &reps) in levels.iter().enumerate() {
                        set.add_tasks(ty, reps, 3 + (stratum + g) % 4).unwrap();
                    }
                }
                _ => {
                    let easy = set.add_type("easy", jitter(&mut rng, 3.0)).unwrap();
                    let hard = set.add_type("hard", jitter(&mut rng, 1.0)).unwrap();
                    set.add_tasks(easy, 3 + (stratum % 3) as u32, 3 + stratum % 4)
                        .unwrap();
                    set.add_tasks(hard, 4 + (stratum % 2) as u32, 3 + stratum / 4 % 3)
                        .unwrap();
                }
            }
            let model: Arc<dyn RateModel> = if stratum % 8 == 7 {
                Arc::new(LogRate::new(jitter(&mut rng, 2.0)).unwrap())
            } else {
                Arc::new(LinearRate::new(jitter(&mut rng, 1.5), jitter(&mut rng, 0.5)).unwrap())
            };
            let slots: u64 = set.repetition_counts().iter().map(|&k| u64::from(k)).sum();
            let budget = slots * (2 + (i % 3) as u64) + rng.gen_range(0..slots);
            let tuner = Tuner::new(model);
            let problem = tuner.problem(set, Budget::units(budget)).unwrap();
            let result = tuner.tune_problem(&problem).unwrap();
            assert_estimates_meet_reference(&problem, &result.allocation, &format!("job {i}"));
        }
    }

    #[test]
    fn estimates_match_a_tight_simpson_reference_on_figure_2_task_sets() {
        // The three Figure 2 task sets at 20 tasks (homogeneous, repetition,
        // heterogeneous), each with its optimal strategy and two baselines,
        // over every paper rate model.
        let mut homogeneous = TaskSet::new();
        let ty = homogeneous.add_type("vote", 2.0).unwrap();
        homogeneous.add_tasks(ty, 5, 20).unwrap();
        let mut repetition = TaskSet::new();
        let ty = repetition.add_type("vote", 2.0).unwrap();
        repetition.add_tasks(ty, 3, 10).unwrap();
        repetition.add_tasks(ty, 5, 10).unwrap();
        let mut heterogeneous = TaskSet::new();
        let easy = heterogeneous.add_type("easy vote", 2.0).unwrap();
        let hard = heterogeneous.add_type("hard vote", 3.0).unwrap();
        heterogeneous.add_tasks(easy, 3, 10).unwrap();
        heterogeneous.add_tasks(hard, 5, 10).unwrap();
        let panels: [(TaskSet, Vec<Box<dyn TuningStrategy>>); 3] = [
            (
                homogeneous,
                vec![
                    Box::new(EvenAllocation::new()),
                    Box::new(BiasedAllocation::bias_1()),
                    Box::new(BiasedAllocation::bias_2()),
                ],
            ),
            (
                repetition,
                vec![
                    Box::new(RepetitionAlgorithm::new()),
                    Box::new(TaskEvenAllocation::new()),
                    Box::new(RepetitionEvenAllocation::new()),
                ],
            ),
            (
                heterogeneous,
                vec![
                    Box::new(HeterogeneousAlgorithm::new()),
                    Box::new(TaskEvenAllocation::new()),
                    Box::new(RepetitionEvenAllocation::new()),
                ],
            ),
        ];
        for (set, strategies) in &panels {
            for model in PaperRateModel::ALL {
                let rate_model: Arc<dyn RateModel> = model.build().into();
                for budget in [200, 400, 800] {
                    let problem =
                        HTuningProblem::new(set.clone(), Budget::units(budget), rate_model.clone())
                            .unwrap();
                    for strategy in strategies {
                        let result = strategy.tune(&problem).unwrap();
                        let what = format!("{} {model:?} B={budget}", strategy.name());
                        assert_estimates_meet_reference(&problem, &result.allocation, &what);
                    }
                }
            }
        }
    }
}
