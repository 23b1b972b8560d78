//! Cross-market job routing: split a job's task groups across markets.
//!
//! With several markets registered (each with its own belief about the
//! payment → acceptance-rate curve), a job made of independent task groups
//! need not run wholly on one market. The separable Scenario II objective
//! (`GroupSumOnHold`) decomposes group-wise, so the router can:
//!
//! 1. solve each group's budget-indexed DP against **every** market's curve
//!    (these are plan-family tables — resident families answer the whole
//!    frontier with prefix reads, no re-solve);
//! 2. take the per-group lower envelope over markets;
//! 3. convolve the envelopes across groups (one knapsack pass over the
//!    discretionary budget) and backtrack into a per-group
//!    `(market, budget)` assignment.
//!
//! The routed objective can never be worse than the best single-market tune
//! — the all-on-one-market assignment is a feasible point of the same
//! optimisation — and is strictly better whenever the market curves cross
//! (one market is cheap for low-paid groups, another for high-paid ones).
//! When nothing beats the best single market the router falls back to plain
//! single-market tuning there, so callers always get a servable plan.
//!
//! On warm family tables a quote is pure table reads plus the `O(G·B²)`
//! convolution — no DP solve, no estimate attach — which is what makes
//! per-request routing affordable on the serve path.

use crate::family::PlanFamilies;
use crate::fingerprint::FamilyFingerprint;
use crowdtune_core::error::{CoreError, Result};
use crowdtune_core::market::MarketId;
use crowdtune_core::money::Budget;
use crowdtune_core::problem::HTuningProblem;
use crowdtune_core::rate::RateModel;
use crowdtune_core::task::{TaskGroupSpec, TaskSet};
use crowdtune_core::tuner::{StrategyChoice, TunedPlan};
use crowdtune_market::MarketRegistry;
use crowdtune_obs::{Counter, Registry};
use std::sync::Arc;

/// Minimum relative improvement of the routed frontier over the best
/// single-market tune before the router commits to a split. Guards against
/// splits justified only by floating-point noise in the convolution.
const SPLIT_IMPROVEMENT_EPS: f64 = 1e-9;

/// One task group's routing decision: which market runs it and with how much
/// of the job's budget.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupAssignment {
    /// The group, in wire form (name, rate, task count, repetitions).
    pub spec: TaskGroupSpec,
    /// The market the group is tuned against.
    pub market: MarketId,
    /// Budget units assigned to the group (its mandatory minimum plus the
    /// discretionary share the convolution awarded it).
    pub budget_units: u64,
}

/// The outcome of [`MarketRouter::quote`]: a per-group assignment and the
/// objective it achieves, next to what the best single market would score.
#[derive(Debug, Clone, PartialEq)]
pub struct RouteQuote {
    /// Per-group assignments; budgets sum to the job budget exactly.
    pub assignments: Vec<GroupAssignment>,
    /// Objective value (expected group-sum on-hold latency) of the routed
    /// assignment.
    pub objective: f64,
    /// The single market that scores best when the whole job runs there.
    pub best_single: MarketId,
    /// That market's objective for the whole job.
    pub best_single_objective: f64,
    /// Whether the routed assignment strictly beats the best single-market
    /// tune (when `false`, every group is assigned to `best_single`).
    pub split: bool,
}

/// The outcome of [`MarketRouter::route`]: the quote plus actual plans.
#[derive(Debug)]
pub enum RoutedPlan {
    /// The cross-market split beat every single-market tune; one plan per
    /// assignment (same order).
    Split {
        /// Per-group assignments and their tuned plans.
        groups: Vec<(GroupAssignment, TunedPlan)>,
        /// Routed objective (sum of per-group objectives).
        objective: f64,
        /// What the best single-market tune would have scored.
        single_objective: f64,
    },
    /// No split beat single-market tuning; the whole job runs on one market.
    Single {
        /// The winning market.
        market: MarketId,
        /// Its objective for the whole job.
        objective: f64,
        /// The full-job plan tuned against that market's belief.
        plan: TunedPlan,
    },
}

impl RoutedPlan {
    /// The objective the returned plan(s) achieve.
    pub fn objective(&self) -> f64 {
        match self {
            RoutedPlan::Split { objective, .. } => *objective,
            RoutedPlan::Single { objective, .. } => *objective,
        }
    }

    /// Whether the job was split across markets.
    pub fn is_split(&self) -> bool {
        matches!(self, RoutedPlan::Split { .. })
    }
}

/// Routes jobs across the markets of a [`MarketRegistry`], reusing the
/// serve layer's [`PlanFamilies`] tables for every per-group frontier.
pub struct MarketRouter {
    markets: Arc<MarketRegistry>,
    families: Arc<PlanFamilies>,
    splits: Counter,
}

impl MarketRouter {
    /// A router over the registry's markets, reading and seeding frontiers
    /// in the given family store.
    pub fn new(markets: Arc<MarketRegistry>, families: Arc<PlanFamilies>) -> Self {
        MarketRouter {
            markets,
            families,
            splits: Counter::new(),
        }
    }

    /// Registers the router's counters
    /// (`crowdtune_router_split_total`).
    pub fn register_metrics(&self, registry: &Registry) {
        registry.register_counter(
            "crowdtune_router_split_total",
            "Jobs the router split across markets (routed frontier beat every single-market tune).",
            &[],
            self.splits.clone(),
        );
    }

    /// Jobs split across markets so far.
    pub fn splits(&self) -> u64 {
        self.splits.get()
    }

    /// Quotes the best per-group market assignment for a job without
    /// producing plans. Warm family tables make this pure table reads plus
    /// the convolution.
    pub fn quote(&self, task_set: &TaskSet, budget: Budget) -> Result<RouteQuote> {
        let parts = self.decompose(task_set, budget)?;
        Ok(self.assemble(parts))
    }

    /// Routes a job: quotes the assignment, then serves one plan per group
    /// (split) or one full-job plan on the best market (no split). Every
    /// plan comes from the family layer, so budgets already covered by a
    /// resident table are prefix reads.
    pub fn route(&self, task_set: &TaskSet, budget: Budget) -> Result<RoutedPlan> {
        let quote = self.quote(task_set, budget)?;
        if quote.split {
            let mut groups = Vec::with_capacity(quote.assignments.len());
            for assignment in &quote.assignments {
                let belief = self.markets.belief(assignment.market)?;
                let set = TaskSet::from_group_specs(std::slice::from_ref(&assignment.spec))?;
                let problem =
                    HTuningProblem::new(set, Budget::units(assignment.budget_units), belief)?;
                let key = FamilyFingerprint::of_market(
                    &problem,
                    StrategyChoice::RepetitionAlgorithm,
                    assignment.market,
                );
                let (plan, _, _) = self.families.serve(key, &problem)?;
                groups.push((assignment.clone(), plan));
            }
            self.splits.inc();
            Ok(RoutedPlan::Split {
                groups,
                objective: quote.objective,
                single_objective: quote.best_single_objective,
            })
        } else {
            let belief = self.markets.belief(quote.best_single)?;
            let problem = HTuningProblem::new(task_set.clone(), budget, belief)?;
            let key = FamilyFingerprint::of_market(
                &problem,
                StrategyChoice::RepetitionAlgorithm,
                quote.best_single,
            );
            let (plan, _, _) = self.families.serve(key, &problem)?;
            Ok(RoutedPlan::Single {
                market: quote.best_single,
                objective: quote.best_single_objective,
                plan,
            })
        }
    }

    /// Solves every `(group, market)` frontier and returns the raw parts the
    /// convolution assembles.
    fn decompose(&self, task_set: &TaskSet, budget: Budget) -> Result<RouteParts> {
        let specs = merged_group_specs(task_set);
        if specs.is_empty() {
            return Err(CoreError::invalid_argument(
                "cannot route an empty task set",
            ));
        }
        let minimum: u64 = specs
            .iter()
            .map(|s| s.tasks * u64::from(s.repetitions))
            .sum();
        let discretionary = budget.as_units().checked_sub(minimum).ok_or_else(|| {
            CoreError::invalid_argument(format!(
                "budget {} cannot cover the {minimum} mandatory repetition units",
                budget.as_units()
            ))
        })?;
        let markets = self.markets.markets();
        let beliefs: Vec<Arc<dyn RateModel>> = markets
            .iter()
            .map(|&m| self.markets.belief(m))
            .collect::<Result<_>>()?;
        // frontiers[g][m][x] = group g's objective on market m with x extra
        // budget units, for x in 0..=discretionary.
        let mut frontiers: Vec<Vec<Vec<f64>>> = Vec::with_capacity(specs.len());
        for spec in &specs {
            let group_minimum = spec.tasks * u64::from(spec.repetitions);
            let mut per_market = Vec::with_capacity(markets.len());
            for (belief, &market) in beliefs.iter().zip(&markets) {
                let set = TaskSet::from_group_specs(std::slice::from_ref(spec))?;
                let problem = HTuningProblem::new(
                    set,
                    Budget::units(group_minimum + discretionary),
                    belief.clone(),
                )?;
                let key = FamilyFingerprint::of_market(
                    &problem,
                    StrategyChoice::RepetitionAlgorithm,
                    market,
                );
                let (frontier, _) = self.families.objective_frontier(key, &problem)?;
                debug_assert_eq!(frontier.len() as u64, discretionary + 1);
                per_market.push(frontier);
            }
            frontiers.push(per_market);
        }
        Ok(RouteParts {
            specs,
            markets,
            frontiers,
            discretionary,
        })
    }

    /// Lower-envelopes the per-group frontiers over markets, convolves them
    /// across groups, backtracks the budget split, and compares against
    /// every single-market total.
    fn assemble(&self, parts: RouteParts) -> RouteQuote {
        let RouteParts {
            specs,
            markets,
            frontiers,
            discretionary,
        } = parts;
        let width = discretionary as usize + 1;
        // Per-group lower envelope over markets.
        let envelopes: Vec<Vec<f64>> = frontiers
            .iter()
            .map(|per_market| {
                (0..width)
                    .map(|x| {
                        per_market
                            .iter()
                            .map(|f| f[x])
                            .fold(f64::INFINITY, f64::min)
                    })
                    .collect()
            })
            .collect();
        // Knapsack convolution over groups; `choice[g][x]` is the extra
        // budget group g takes when x units are available to groups 0..=g.
        let mut acc = envelopes[0].clone();
        let mut choice: Vec<Vec<u32>> = vec![(0..width as u32).collect()];
        for envelope in &envelopes[1..] {
            let mut next = vec![f64::INFINITY; width];
            let mut picked = vec![0u32; width];
            for x in 0..width {
                for e in 0..=x {
                    let total = acc[x - e] + envelope[e];
                    if total < next[x] {
                        next[x] = total;
                        picked[x] = e as u32;
                    }
                }
            }
            acc = next;
            choice.push(picked);
        }
        let objective = acc[width - 1];
        // Backtrack the discretionary split.
        let mut extras = vec![0u64; specs.len()];
        let mut remaining = width - 1;
        for g in (0..specs.len()).rev() {
            let e = choice[g][remaining] as usize;
            extras[g] = e as u64;
            remaining -= e;
        }
        // Single-market totals: convolve each market's own frontiers.
        let (best_single_idx, best_single_objective) = (0..markets.len())
            .map(|m| {
                let mut acc: Vec<f64> = frontiers[0][m].clone();
                for group in &frontiers[1..] {
                    let mut next = vec![f64::INFINITY; width];
                    for x in 0..width {
                        for e in 0..=x {
                            let total = acc[x - e] + group[m][e];
                            if total < next[x] {
                                next[x] = total;
                            }
                        }
                    }
                    acc = next;
                }
                acc[width - 1]
            })
            .enumerate()
            .min_by(|(_, a), (_, b)| a.partial_cmp(b).expect("objectives are finite"))
            .expect("at least one market is registered");
        let best_single = markets[best_single_idx];
        let split = objective < best_single_objective * (1.0 - SPLIT_IMPROVEMENT_EPS);
        let assignments = specs
            .into_iter()
            .enumerate()
            .map(|(g, spec)| {
                let group_minimum = spec.tasks * u64::from(spec.repetitions);
                let (extra, market) = if split {
                    // Which market achieved the envelope at this extra.
                    let extra = extras[g];
                    let market = markets
                        .iter()
                        .zip(&frontiers[g])
                        .min_by(|(_, a), (_, b)| {
                            a[extra as usize]
                                .partial_cmp(&b[extra as usize])
                                .expect("objectives are finite")
                        })
                        .map(|(&m, _)| m)
                        .expect("at least one market is registered");
                    (extra, market)
                } else {
                    // All groups stay on the best single market. The caller
                    // serves the whole job in one piece there, so these
                    // per-group budgets are informational (the envelope's
                    // split, which is within epsilon of that market's own).
                    (extras[g], best_single)
                };
                GroupAssignment {
                    spec,
                    market,
                    budget_units: group_minimum + extra,
                }
            })
            .collect();
        RouteQuote {
            assignments,
            objective,
            best_single,
            best_single_objective,
            split,
        }
    }
}

/// The raw per-`(group, market)` frontiers a quote is assembled from.
struct RouteParts {
    specs: Vec<TaskGroupSpec>,
    markets: Vec<MarketId>,
    frontiers: Vec<Vec<Vec<f64>>>,
    discretionary: u64,
}

/// The job's wire-form groups with equal `(name, rate, repetitions)` runs
/// merged, so interleaved submissions route as one group per class.
fn merged_group_specs(task_set: &TaskSet) -> Vec<TaskGroupSpec> {
    let mut merged: Vec<TaskGroupSpec> = Vec::new();
    for spec in task_set.to_group_specs() {
        match merged.iter_mut().find(|s| {
            s.name == spec.name
                && s.processing_rate.to_bits() == spec.processing_rate.to_bits()
                && s.repetitions == spec.repetitions
        }) {
            Some(existing) => existing.tasks += spec.tasks,
            None => merged.push(spec),
        }
    }
    merged
}

#[cfg(test)]
mod tests {
    use super::*;
    use crowdtune_core::rate::LinearRate;
    use crowdtune_core::tuner::Tuner;

    /// Two markets with crossing curves: "steep" is fast at high payments,
    /// "flat" barely cares about payment but starts faster.
    fn crossing_registry() -> Arc<MarketRegistry> {
        let steep: Arc<dyn RateModel> = Arc::new(LinearRate::new(5.0, 0.5).unwrap());
        let flat: Arc<dyn RateModel> = Arc::new(LinearRate::new(0.5, 9.0).unwrap());
        Arc::new(
            MarketRegistry::new(vec![
                (MarketId::DEFAULT, "steep".to_string(), steep),
                (MarketId(1), "flat".to_string(), flat),
            ])
            .unwrap(),
        )
    }

    /// Two repetition classes: a small high-repetition group (wants the
    /// steep market's payment leverage) and a large low-repetition group
    /// (better off on the flat market's high base rate).
    fn mixed_set() -> TaskSet {
        let mut set = TaskSet::new();
        let ty = set.add_type("vote", 2.0).unwrap();
        set.add_tasks(ty, 5, 2).unwrap();
        set.add_tasks(ty, 2, 8).unwrap();
        set
    }

    #[test]
    fn split_beats_every_single_market_tune() {
        let registry = crossing_registry();
        let families = Arc::new(PlanFamilies::new(4));
        let router = MarketRouter::new(registry.clone(), families);
        let budget = Budget::units(60);
        let quote = router.quote(&mixed_set(), budget).unwrap();
        assert!(
            quote.split,
            "crossing curves must make the split profitable: {quote:?}"
        );
        assert!(quote.objective < quote.best_single_objective);
        // The quoted objective must also beat *each* market's true
        // full-problem tune, not just the convolution's own estimate.
        for market in registry.markets() {
            let reference = Tuner::new(registry.belief(market).unwrap())
                .with_strategy(StrategyChoice::RepetitionAlgorithm)
                .plan(mixed_set(), budget)
                .unwrap();
            let single = reference
                .result
                .objective
                .expect("RA reports its objective");
            assert!(
                quote.objective < single,
                "routed {} must beat market {market} at {single}",
                quote.objective
            );
        }
        // The two groups went to different markets and budgets add up.
        let assigned: Vec<MarketId> = quote.assignments.iter().map(|a| a.market).collect();
        assert_eq!(assigned.len(), 2);
        assert_ne!(assigned[0], assigned[1], "split must actually split");
        let total: u64 = quote.assignments.iter().map(|a| a.budget_units).sum();
        assert_eq!(total, budget.as_units());
    }

    #[test]
    fn routed_plans_match_the_quote() {
        let registry = crossing_registry();
        let families = Arc::new(PlanFamilies::new(4));
        let router = MarketRouter::new(registry, families);
        let routed = router.route(&mixed_set(), Budget::units(60)).unwrap();
        let RoutedPlan::Split {
            groups,
            objective,
            single_objective,
        } = routed
        else {
            panic!("expected a split");
        };
        assert!(objective < single_objective);
        // Each group plan's own objective sums to the routed objective.
        let summed: f64 = groups
            .iter()
            .map(|(_, plan)| plan.result.objective.expect("RA reports its objective"))
            .sum();
        assert!(
            (summed - objective).abs() <= 1e-9 * objective.abs().max(1.0),
            "per-group plans ({summed}) must realise the quoted objective ({objective})"
        );
        assert_eq!(groups.len(), 2);
    }

    #[test]
    fn single_market_fallback_when_one_market_dominates() {
        // One market dominates at every payment: no split can help.
        let fast: Arc<dyn RateModel> = Arc::new(LinearRate::new(4.0, 2.0).unwrap());
        let slow: Arc<dyn RateModel> = Arc::new(LinearRate::new(1.0, 0.5).unwrap());
        let registry = Arc::new(
            MarketRegistry::new(vec![
                (MarketId::DEFAULT, "fast".to_string(), fast),
                (MarketId(1), "slow".to_string(), slow),
            ])
            .unwrap(),
        );
        let families = Arc::new(PlanFamilies::new(4));
        let router = MarketRouter::new(registry, families);
        let routed = router.route(&mixed_set(), Budget::units(60)).unwrap();
        let RoutedPlan::Single { market, plan, .. } = routed else {
            panic!("a dominated market must not attract a split");
        };
        assert_eq!(market, MarketId::DEFAULT);
        assert_eq!(plan.result.allocation.task_count(), 10);
        assert_eq!(router.splits(), 0);
    }

    #[test]
    fn warm_quotes_are_pure_table_reads() {
        let registry = crossing_registry();
        let families = Arc::new(PlanFamilies::new(4));
        let router = MarketRouter::new(registry, families.clone());
        let set = mixed_set();
        let first = router.quote(&set, Budget::units(60)).unwrap();
        let builds_after_first = families.stats().builds;
        assert!(builds_after_first > 0, "cold quote seeds the families");
        // Same job again, and a smaller budget: zero new builds, zero
        // extensions — every frontier is a prefix read.
        let second = router.quote(&set, Budget::units(60)).unwrap();
        assert_eq!(first, second);
        let smaller = router.quote(&set, Budget::units(44)).unwrap();
        assert!(smaller.objective >= first.objective);
        let stats = families.stats();
        assert_eq!(stats.builds, builds_after_first);
        assert_eq!(stats.extensions, 0);
    }

    #[test]
    fn single_market_registry_routes_everything_there() {
        let registry = Arc::new(MarketRegistry::single(Arc::new(
            LinearRate::new(1.0, 1.0).unwrap(),
        )));
        let families = Arc::new(PlanFamilies::new(4));
        let router = MarketRouter::new(registry, families);
        let quote = router.quote(&mixed_set(), Budget::units(60)).unwrap();
        assert!(!quote.split);
        assert_eq!(quote.best_single, MarketId::DEFAULT);
        assert_eq!(
            quote.objective.to_bits(),
            quote.best_single_objective.to_bits(),
            "with one market the envelope is that market"
        );
    }

    #[test]
    fn infeasible_budgets_are_rejected() {
        let registry = crossing_registry();
        let families = Arc::new(PlanFamilies::new(4));
        let router = MarketRouter::new(registry, families);
        // 2×5 + 8×2 = 26 mandatory units; 20 cannot cover them.
        assert!(router.quote(&mixed_set(), Budget::units(20)).is_err());
        assert!(router.quote(&TaskSet::new(), Budget::units(20)).is_err());
    }
}
