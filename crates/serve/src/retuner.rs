//! Online mid-flight re-tuning.
//!
//! The paper's pipeline tunes once, posts the job and waits — but the rate
//! parameters it tunes against are probe estimates (§3.3) that drift with
//! market conditions. The [`Retuner`] closes the loop: it subscribes to the
//! market's event stream (as a [`MarketController`]), re-estimates the
//! on-hold rate curve from the *observed* acceptance delays of the job's own
//! repetitions (in a [`DriftWindow`], the registry's sliding-window censored
//! MLE, kept per job), and when the observations have drifted away from the
//! current belief it re-solves the H-Tuning problem for the
//! **remaining** repetitions and **remaining** budget
//! (via [`HTuningProblem::remaining_after`]) and re-allocates the unspent
//! budget. Payments already committed to published repetitions are never
//! touched.
//!
//! Re-tuning matters most in the sequential-repetition regime (the paper's
//! default), where later repetitions publish after earlier ones return and
//! can therefore still be re-priced.

use crowdtune_core::inference::{fit_linearity, PriceRatePoint};
use crowdtune_core::market::MarketId;
use crowdtune_core::problem::HTuningProblem;
use crowdtune_core::rate::{FnRate, RateModel};
use crowdtune_core::tuner::{StrategyChoice, Tuner};
use crowdtune_market::control::{ControlAction, MarketController, MarketView};
use crowdtune_market::events::{Event, RepetitionId};
use crowdtune_market::time::SimTime;
use crowdtune_market::{DriftWindow, MarketRegistry};
use std::collections::BTreeMap;
use std::sync::Arc;

/// When and how aggressively to re-tune.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetunePolicy {
    /// Re-evaluate the market after this many completed repetitions.
    pub every_completions: u32,
    /// Minimum acceptance observations before any estimate is trusted.
    pub min_observations: usize,
    /// Declare drift when the observed rates deviate from the belief by more
    /// than this relative amount (observation-weighted). Re-tuning below the
    /// threshold is suppressed, which makes no-drift re-tuning a no-op.
    pub drift_threshold: f64,
    /// Maximum completed observations retained **per price point** (oldest
    /// evicted first). The window used to grow without bound between
    /// re-tunes, so on a long steady stretch followed by a regime switch the
    /// stale pre-switch mass dominated the censored MLE and drift stayed
    /// statistically invisible for hundreds of events; a sliding window
    /// turns over within `observation_window` acceptances and lets the
    /// switch un-mix.
    pub observation_window: usize,
}

impl Default for RetunePolicy {
    fn default() -> Self {
        RetunePolicy {
            every_completions: 5,
            min_observations: 8,
            drift_threshold: 0.25,
            observation_window: 64,
        }
    }
}

/// Counters describing what the re-tuner did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RetuneStats {
    /// Times the drift check ran.
    pub evaluations: u32,
    /// Times drift was detected and the remaining job re-tuned.
    pub retunes: u32,
    /// Times a detected drift could not be acted on (e.g. remaining budget
    /// infeasible) and the current plan was kept.
    pub skipped: u32,
}

/// An online re-tuner for one job; plug into
/// [`MarketSimulator::run_controlled`](crowdtune_market::simulator::MarketSimulator::run_controlled).
pub struct Retuner {
    problem: HTuningProblem,
    strategy: StrategyChoice,
    policy: RetunePolicy,
    /// Current market belief; starts at the problem's rate model and is
    /// replaced whenever drift is confirmed.
    belief: Arc<dyn RateModel>,
    /// Published-but-not-yet-accepted repetitions and the start of their
    /// current exposure window. Their waiting-so-far counts as censored
    /// exposure; ignoring it would condition on early acceptance and bias
    /// the rate estimates upward (only the quick acceptances are seen).
    pending: BTreeMap<RepetitionId, (SimTime, u64)>,
    /// Completed on-hold durations per payment, the most recent
    /// [`RetunePolicy::observation_window`] of each.
    observations: DriftWindow,
    completions_since_check: u32,
    stats: RetuneStats,
    /// When set, every acceptance observation is also forwarded into the
    /// registry's drift detector for `market` (see
    /// [`Retuner::with_evidence_sink`]).
    evidence_sink: Option<(Arc<MarketRegistry>, MarketId)>,
}

impl Retuner {
    /// Creates a re-tuner for a job tuned as `problem` (the *original* full
    /// problem, whose rate model is the initial market belief).
    pub fn new(problem: HTuningProblem, strategy: StrategyChoice, policy: RetunePolicy) -> Self {
        let belief = problem.rate_model().clone();
        Retuner {
            problem,
            strategy,
            policy,
            belief,
            pending: BTreeMap::new(),
            observations: DriftWindow::default(),
            completions_since_check: 0,
            stats: RetuneStats::default(),
            evidence_sink: None,
        }
    }

    /// Forwards every acceptance observation (payment, on-hold delay) into
    /// `registry`'s drift detector for `market` as it arrives, so the
    /// evidence this re-tuner collects for its own job also accumulates
    /// toward registry-level confirmed drift
    /// ([`MarketRegistry::confirmed_drift`]) — previously callers had to
    /// replay the same observations into the registry by hand. A `market`
    /// the registry does not know makes the forwarding a silent no-op (the
    /// re-tuner itself is unaffected).
    pub fn with_evidence_sink(mut self, registry: Arc<MarketRegistry>, market: MarketId) -> Self {
        self.evidence_sink = Some((registry, market));
        self
    }

    /// What the re-tuner has done so far.
    pub fn stats(&self) -> RetuneStats {
        self.stats
    }

    /// The current market belief.
    pub fn belief(&self) -> &Arc<dyn RateModel> {
        &self.belief
    }

    /// How many standard errors away from the estimate the belief must lie
    /// before a price point counts as drifted. Guards against re-tuning on
    /// MLE sampling noise, which oscillates the plan and *hurts* latency.
    const SIGNIFICANCE_Z: f64 = 3.0;

    /// Observed `(price, rate, weight)` triples, prices ascending, for every
    /// price with at least two acceptances: the window's censored
    /// exponential MLE `λ̂ = events / (Σ completed durations + Σ pending
    /// exposure)`, which is unbiased under right-censoring where the naive
    /// completed-only estimator is badly optimistic early in a window. The
    /// pending exposure at each observed price is first set to the open
    /// repetitions' waiting time as of `now`.
    fn observed_rates(&mut self, now: SimTime) -> Vec<(f64, f64, f64)> {
        let mut exposure_by_price: BTreeMap<u64, f64> = BTreeMap::new();
        for &(since, payment) in self.pending.values() {
            *exposure_by_price.entry(payment).or_default() += now.since(since);
        }
        let prices = self.observations.observed_prices();
        for &price in &prices {
            let exposure = exposure_by_price.get(&price).copied().unwrap_or(0.0);
            self.observations.set_pending(price, exposure);
        }
        prices
            .into_iter()
            .filter_map(|price| {
                let (rate, events) = self.observations.estimate(price)?;
                (events >= 2).then_some((price as f64, rate, events as f64))
            })
            .collect()
    }

    /// Observation-weighted relative deviation of the observed rates from
    /// the current belief, counting only price points where the deviation is
    /// statistically significant (the belief lies outside `λ̂ ± z·SE`).
    fn drift_against_belief(&self, observed: &[(f64, f64, f64)]) -> f64 {
        let mut weighted = 0.0;
        let mut weight_total = 0.0;
        for &(price, rate, weight) in observed {
            let believed = self.belief.on_hold_rate(price);
            if !(believed > 0.0 && believed.is_finite()) {
                continue;
            }
            weight_total += weight;
            let standard_error = rate / weight.sqrt();
            if (rate - believed).abs() > Self::SIGNIFICANCE_Z * standard_error {
                weighted += weight * ((rate - believed).abs() / believed);
            }
        }
        if weight_total == 0.0 {
            0.0
        } else {
            weighted / weight_total
        }
    }

    /// Builds the re-estimated rate model from the observations: a least
    /// squares Linearity-Hypothesis fit when two or more price points are
    /// available, otherwise the belief curve rescaled to match the single
    /// observed price.
    fn reestimate(&self, observed: &[(f64, f64, f64)]) -> Option<Arc<dyn RateModel>> {
        if observed.len() >= 2 {
            let points: Vec<PriceRatePoint> = observed
                .iter()
                .map(|&(price, rate, _)| PriceRatePoint::new(price, rate))
                .collect();
            if let Ok(fit) = fit_linearity(&points) {
                if let Ok(model) = fit.to_rate_model() {
                    return Some(Arc::new(model));
                }
            }
        }
        // Single price point (or degenerate fit): scale the belief curve.
        let &(price, rate, _) = observed.first()?;
        let believed = self.belief.on_hold_rate(price);
        if !(believed.is_finite() && believed > 0.0 && rate.is_finite() && rate > 0.0) {
            return None;
        }
        let ratio = rate / believed;
        let base = self.belief.clone();
        Some(Arc::new(FnRate::new(
            format!("rescaled belief ×{ratio:.3}"),
            move |c| base.on_hold_rate(c) * ratio,
        )))
    }

    /// Runs the drift check; returns a re-allocation when drift was detected
    /// and the remaining job could be re-tuned.
    fn evaluate(&mut self, now: SimTime, view: &MarketView<'_>) -> ControlAction {
        self.stats.evaluations += 1;
        if self.observations.observations() < self.policy.min_observations {
            return ControlAction::Continue;
        }
        let observed = self.observed_rates(now);
        if observed.is_empty() {
            return ControlAction::Continue;
        }
        if self.drift_against_belief(&observed) <= self.policy.drift_threshold {
            // No meaningful drift: re-tuning now would re-derive the same
            // plan, so keep it (the no-drift no-op guarantee).
            return ControlAction::Continue;
        }
        let Some(new_belief) = self.reestimate(&observed) else {
            return ControlAction::Continue;
        };

        // Re-solve the remaining problem: unpublished repetitions only,
        // unspent budget only, under the re-estimated market.
        let shifted = self.problem.with_rate_model(new_belief.clone());
        let remaining = match shifted.remaining_after(view.published, view.committed_units) {
            Ok(Some(remaining)) => remaining,
            Ok(None) => return ControlAction::Continue,
            Err(_) => {
                // Typically: the unspent budget can no longer cover the
                // outstanding repetitions at one unit each. Keep the plan.
                self.stats.skipped += 1;
                return ControlAction::Continue;
            }
        };
        let tuner = Tuner::new(new_belief.clone()).with_strategy(self.strategy);
        let result = match tuner.tune_problem(&remaining.problem) {
            Ok(result) => result,
            Err(_) => {
                self.stats.skipped += 1;
                return ControlAction::Continue;
            }
        };

        // Graft the re-tuned payments onto the unpublished repetition slots.
        let mut next = view.allocation.clone();
        for (reduced_index, &original_index) in remaining.task_indices.iter().enumerate() {
            let new_payments = result.allocation.task_payments(reduced_index);
            let already_published = view.published[original_index] as usize;
            let payments = next.task_payments_mut(original_index);
            for (slot, &payment) in payments
                .iter_mut()
                .skip(already_published)
                .zip(new_payments)
            {
                *slot = payment;
            }
        }

        self.belief = new_belief;
        self.stats.retunes += 1;
        // The samples that proved the drift were drawn while the old belief
        // (and old prices) were in force; keeping them would keep re-judging
        // the new belief on stale evidence. Start a fresh window: drop the
        // completed observations and restart the pending exposure clocks
        // (valid for exponential waiting times, which are memoryless).
        self.observations.clear();
        for (since, _) in self.pending.values_mut() {
            *since = now;
        }
        ControlAction::Reallocate(next)
    }
}

impl MarketController for Retuner {
    fn on_event(&mut self, time: SimTime, event: &Event, view: &MarketView<'_>) -> ControlAction {
        match *event {
            Event::Publish(rep) => {
                let payment =
                    view.allocation.task_payments(rep.task)[rep.repetition as usize].as_units();
                self.pending.insert(rep, (time, payment));
                ControlAction::Continue
            }
            Event::Accept { repetition, .. } => {
                if let Some((since, payment)) = self.pending.remove(&repetition) {
                    if let Some((registry, market)) = &self.evidence_sink {
                        let _ = registry.observe_acceptance(*market, payment, time.since(since));
                    }
                    self.observations.push(
                        payment,
                        time.since(since),
                        self.policy.observation_window,
                    );
                }
                ControlAction::Continue
            }
            Event::Submit { .. } => {
                self.completions_since_check += 1;
                if self.completions_since_check >= self.policy.every_completions {
                    self.completions_since_check = 0;
                    self.evaluate(time, view)
                } else {
                    ControlAction::Continue
                }
            }
            Event::WorkerArrival => ControlAction::Continue,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crowdtune_core::money::{Allocation, Budget, Payment};
    use crowdtune_core::rate::LinearRate;
    use crowdtune_core::task::TaskSet;

    fn problem(tasks: usize, reps: u32, budget: u64) -> HTuningProblem {
        let mut set = TaskSet::new();
        let ty = set.add_type("vote", 2.0).unwrap();
        set.add_tasks(ty, reps, tasks).unwrap();
        HTuningProblem::new(
            set,
            Budget::units(budget),
            Arc::new(LinearRate::new(1.0, 0.0).unwrap()),
        )
        .unwrap()
    }

    /// The window and estimator the re-tuner kept before it read a
    /// [`DriftWindow`]: completed delays per payment, the oldest evicted
    /// past `window`, and the censored MLE over them with the open
    /// repetitions' waiting time as exposure.
    fn reference_push(window: &mut BTreeMap<u64, Vec<f64>>, payment: u64, delay: f64, cap: usize) {
        let durations = window.entry(payment).or_default();
        durations.push(delay);
        let overflow = durations.len().saturating_sub(cap.max(1));
        durations.drain(..overflow);
    }

    fn reference_rates(
        window: &BTreeMap<u64, Vec<f64>>,
        pending: &BTreeMap<RepetitionId, (SimTime, u64)>,
        now: SimTime,
    ) -> Vec<(f64, f64, f64)> {
        let mut exposure_by_price: BTreeMap<u64, f64> = BTreeMap::new();
        for &(since, payment) in pending.values() {
            *exposure_by_price.entry(payment).or_default() += now.since(since);
        }
        window
            .iter()
            .filter(|(_, durations)| durations.len() >= 2)
            .filter_map(|(&payment, durations)| {
                let events = durations.len() as f64;
                let exposure: f64 = durations.iter().sum::<f64>()
                    + exposure_by_price.get(&payment).copied().unwrap_or(0.0);
                (exposure > 0.0).then(|| (payment as f64, events / exposure, events))
            })
            .collect()
    }

    /// `observed_rates` over the shared [`DriftWindow`] returns the
    /// reference estimator's triples bit for bit, on seeded random streams
    /// over five prices that keep repetitions open at every check.
    #[test]
    fn observed_rates_match_the_reference_estimator_bit_for_bit() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        const TASKS: usize = 5;
        const REPS: usize = 400;
        // Payments cycle through 1..=5 along every task's repetitions.
        let allocation = Allocation::from_matrix(
            (0..TASKS)
                .map(|task| {
                    (0..REPS)
                        .map(|rep| Payment::units(1 + ((task + rep) % 5) as u64))
                        .collect()
                })
                .collect(),
        );
        let counts = vec![0u32; TASKS];
        let view = MarketView {
            completed: &counts,
            published: &counts,
            committed_units: 0,
            allocation: &allocation,
        };
        let bits = |rates: &[(f64, f64, f64)]| -> Vec<[u64; 3]> {
            rates
                .iter()
                .map(|&(price, rate, weight)| [price.to_bits(), rate.to_bits(), weight.to_bits()])
                .collect()
        };
        let mut widest = 0;
        for cap in [4, 64] {
            for seed in 0..50 {
                let mut rng = StdRng::seed_from_u64(seed);
                let policy = RetunePolicy {
                    observation_window: cap,
                    ..RetunePolicy::default()
                };
                let mut retuner = Retuner::new(problem(1, 1, 10), StrategyChoice::Auto, policy);
                let mut reference = BTreeMap::new();
                let mut next_rep = [0u32; TASKS];
                let mut open: Vec<RepetitionId> = Vec::new();
                let mut now = 0.0;
                for _ in 0..400 {
                    now += rng.gen::<f64>();
                    let time = SimTime::new(now);
                    if open.len() < 3 || rng.gen_bool(0.5) {
                        let task = rng.gen_range(0..TASKS);
                        let rep = RepetitionId::new(task, next_rep[task]);
                        next_rep[task] += 1;
                        open.push(rep);
                        retuner.on_event(time, &Event::Publish(rep), &view);
                    } else {
                        let rep = open.swap_remove(rng.gen_range(0..open.len()));
                        let (since, payment) = retuner.pending[&rep];
                        reference_push(&mut reference, payment, time.since(since), cap);
                        let accept = Event::Accept {
                            repetition: rep,
                            worker: None,
                        };
                        retuner.on_event(time, &accept, &view);
                    }
                    if rng.gen_bool(0.2) {
                        assert!(!retuner.pending.is_empty());
                        let expected = reference_rates(&reference, &retuner.pending, time);
                        let observed = retuner.observed_rates(time);
                        assert_eq!(
                            bits(&observed),
                            bits(&expected),
                            "seed {seed}, window {cap}"
                        );
                        let held: usize = reference.values().map(Vec::len).sum();
                        assert_eq!(retuner.observations.observations(), held);
                        widest = widest.max(observed.len());
                    }
                }
            }
        }
        assert!(widest >= 3, "streams must estimate at three or more prices");
    }

    /// Feeds the retuner a synthetic event stream whose acceptance delays are
    /// *exactly* the belief's expectation (durations `1/λ(p)` make the MLE
    /// reproduce `λ(p)` bit-exactly), then triggers an evaluation.
    #[test]
    fn no_drift_evaluation_is_a_noop() {
        let problem = problem(4, 2, 40);
        let mut retuner = Retuner::new(
            problem.clone(),
            StrategyChoice::Auto,
            RetunePolicy {
                every_completions: 1,
                min_observations: 4,
                drift_threshold: 0.05,
                ..RetunePolicy::default()
            },
        );
        let allocation = Allocation::uniform(&[2, 2, 2, 2], Payment::units(4));
        let mut completed = vec![0u32; 4];
        let mut published = vec![0u32; 4];
        let mut committed = 0u64;
        let rate = 4.0; // belief: λ = payment = 4
        let mut now = 0.0;
        for task in 0..4usize {
            let rep = RepetitionId::new(task, 0);
            published[task] = 1;
            committed += 4;
            let view_alloc = allocation.clone();
            // Publish.
            let view = MarketView {
                completed: &completed,
                published: &published,
                committed_units: committed,
                allocation: &view_alloc,
            };
            let action = retuner.on_event(SimTime::new(now), &Event::Publish(rep), &view);
            assert!(matches!(action, ControlAction::Continue));
            // Accept exactly 1/λ later.
            now += 1.0 / rate;
            let action = retuner.on_event(
                SimTime::new(now),
                &Event::Accept {
                    repetition: rep,
                    worker: None,
                },
                &view,
            );
            assert!(matches!(action, ControlAction::Continue));
            // Submit.
            completed[task] = 1;
            let view = MarketView {
                completed: &completed,
                published: &published,
                committed_units: committed,
                allocation: &view_alloc,
            };
            let action = retuner.on_event(
                SimTime::new(now),
                &Event::Submit {
                    repetition: rep,
                    worker: None,
                },
                &view,
            );
            assert!(
                matches!(action, ControlAction::Continue),
                "no-drift re-tuning must keep the allocation"
            );
        }
        assert_eq!(retuner.stats().retunes, 0);
        assert!(retuner.stats().evaluations >= 1);
    }

    /// Replays one regime-switch trace — a long on-belief stretch, then the
    /// market speeds up 20× — through two retuners differing only in window
    /// bound. Returns the number of re-tunes. 64 on-belief acceptances
    /// (delay exactly `1/λ(4)`) are followed by 16 post-switch acceptances
    /// at `1/(20·λ(4))`; with an effectively unbounded window the stale mass
    /// keeps the mixed MLE at ≈4.9 (insignificant against a belief of 4),
    /// while a 16-deep window turns over and estimates ≈80.
    fn regime_switch_retunes(observation_window: usize) -> u32 {
        let problem = problem(1, 96, 500);
        let mut retuner = Retuner::new(
            problem,
            StrategyChoice::Auto,
            RetunePolicy {
                every_completions: 1,
                min_observations: 8,
                drift_threshold: 0.25,
                observation_window,
            },
        );
        let allocation = Allocation::uniform(&[96], Payment::units(4));
        let mut now = 0.0;
        let mut published = vec![0u32];
        let mut completed = vec![0u32];
        let mut committed = 0u64;
        for i in 0..80u32 {
            let rep = RepetitionId::new(0, i);
            published[0] = i + 1;
            committed += 4;
            let view = MarketView {
                completed: &completed,
                published: &published,
                committed_units: committed,
                allocation: &allocation,
            };
            retuner.on_event(SimTime::new(now), &Event::Publish(rep), &view);
            // Pre-switch delays match the belief exactly; post-switch the
            // market accepts 20× faster.
            now += if i < 64 { 0.25 } else { 0.0125 };
            retuner.on_event(
                SimTime::new(now),
                &Event::Accept {
                    repetition: rep,
                    worker: None,
                },
                &view,
            );
            completed[0] = i + 1;
            let view = MarketView {
                completed: &completed,
                published: &published,
                committed_units: committed,
                allocation: &allocation,
            };
            retuner.on_event(
                SimTime::new(now),
                &Event::Submit {
                    repetition: rep,
                    worker: None,
                },
                &view,
            );
        }
        retuner.stats().retunes
    }

    /// Regression test for the unbounded observation window: on a
    /// regime-switch trace the stale pre-switch observations used to bias
    /// the censored MLE so heavily that the switch went undetected; the
    /// bounded sliding window un-mixes it.
    #[test]
    fn sliding_window_unmixes_a_regime_switch() {
        assert_eq!(
            regime_switch_retunes(usize::MAX),
            0,
            "unbounded window: stale mass must mask the switch (the old, buggy behaviour)"
        );
        assert!(
            regime_switch_retunes(16) >= 1,
            "a bounded window must detect the switch within one window turnover"
        );
    }

    /// The evidence sink: acceptance observations flowing through the
    /// re-tuner must land in the registry's drift window — enough slow
    /// acceptances confirm drift at the registry with no manual
    /// `observe_acceptance` wiring.
    #[test]
    fn evidence_sink_feeds_registry_drift_detection() {
        let registry = Arc::new(MarketRegistry::single(Arc::new(
            LinearRate::new(1.0, 0.0).unwrap(),
        )));
        let problem = problem(1, 16, 200);
        let mut retuner = Retuner::new(problem, StrategyChoice::Auto, RetunePolicy::default())
            .with_evidence_sink(registry.clone(), MarketId::DEFAULT);
        let allocation = Allocation::uniform(&[16], Payment::units(4));
        let published = vec![16u32];
        let completed = vec![0u32];
        let view = MarketView {
            completed: &completed,
            published: &published,
            committed_units: 64,
            allocation: &allocation,
        };
        // Belief: λ(4) = 4 (expected delay 0.25). Observed: 5.0 — a 20×
        // collapse, repeated past the registry's min-observations floor.
        let mut now = 0.0;
        for i in 0..12u32 {
            let rep = RepetitionId::new(0, i);
            retuner.on_event(SimTime::new(now), &Event::Publish(rep), &view);
            now += 5.0;
            retuner.on_event(
                SimTime::new(now),
                &Event::Accept {
                    repetition: rep,
                    worker: None,
                },
                &view,
            );
        }
        let evidence = registry
            .confirmed_drift(MarketId::DEFAULT)
            .expect("market exists");
        assert!(
            !evidence.is_empty(),
            "12 observations of a 20x collapse must confirm drift at the registry"
        );
        assert_eq!(evidence[0].price, 4);
        assert!(evidence[0].observed < 1.0, "observed ≈ 0.2");
    }

    /// A collapsed market (observed delays 20× the belief) must trigger a
    /// re-tune that re-prices only unpublished repetitions.
    #[test]
    fn drift_triggers_retune_of_unpublished_slots_only() {
        let problem = problem(2, 3, 120);
        let mut retuner = Retuner::new(
            problem,
            StrategyChoice::Auto,
            RetunePolicy {
                every_completions: 1,
                min_observations: 2,
                drift_threshold: 0.25,
                ..RetunePolicy::default()
            },
        );
        let allocation = Allocation::uniform(&[3, 3], Payment::units(4));
        // Both tasks' first repetitions published at t=0 and accepted 20×
        // slower than believed (λ̂ = payment/20 instead of payment).
        let published = vec![1u32, 1];
        let completed_mid = vec![0u32, 0];
        let committed = 8u64;
        let mut view = MarketView {
            completed: &completed_mid,
            published: &published,
            committed_units: committed,
            allocation: &allocation,
        };
        for task in 0..2usize {
            let rep = RepetitionId::new(task, 0);
            retuner.on_event(SimTime::new(0.0), &Event::Publish(rep), &view);
        }
        let slow_delay = 20.0 / 4.0; // 1 / (payment/20)
        for task in 0..2usize {
            let rep = RepetitionId::new(task, 0);
            retuner.on_event(
                SimTime::new(slow_delay),
                &Event::Accept {
                    repetition: rep,
                    worker: None,
                },
                &view,
            );
        }
        let completed = vec![1u32, 0];
        view.completed = &completed;
        let action = retuner.on_event(
            SimTime::new(slow_delay),
            &Event::Submit {
                repetition: RepetitionId::new(0, 0),
                worker: None,
            },
            &view,
        );
        let ControlAction::Reallocate(next) = action else {
            panic!("a 20× rate collapse must trigger re-tuning");
        };
        assert_eq!(retuner.stats().retunes, 1);
        // Published first repetitions keep their payment.
        assert_eq!(next.task_payments(0)[0], Payment::units(4));
        assert_eq!(next.task_payments(1)[0], Payment::units(4));
        // The re-tuned tail stays within the unspent budget.
        let tail: u64 = (0..2)
            .flat_map(|task| next.task_payments(task)[1..].iter())
            .map(|p| p.as_units())
            .sum();
        assert!(tail <= 120 - committed);
        assert!(next.all_positive());
        // The belief was replaced.
        let new_rate = retuner.belief().on_hold_rate(4.0);
        assert!(
            (new_rate - 0.2).abs() < 0.05,
            "belief should track the observed collapse, got λ(4) = {new_rate}"
        );
    }
}
