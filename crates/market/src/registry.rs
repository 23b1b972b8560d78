//! The market registry: one rate belief and one drift estimator per
//! federated marketplace.
//!
//! The paper tunes every job against a single marketplace whose price →
//! on-hold-rate curve `λo(c)` is estimated once (§3.3) and drifts over time.
//! A federated deployment straddles several marketplaces with *independent*
//! regimes: AMT may speed up while an internal workforce slows down. The
//! [`MarketRegistry`] owns the per-market state the serving layer needs:
//!
//! * a **rate belief** — the `Arc<dyn RateModel>` jobs on that market are
//!   tuned against (swappable at runtime when drift is confirmed);
//! * a **drift estimator** — a *sliding-window* censored exponential MLE
//!   ([`DriftWindow`]). Unlike an unbounded accumulator, a bounded window
//!   lets a regime switch *un-mix*: once pre-switch observations age out,
//!   the estimate converges on the new regime instead of averaging both
//!   forever. The same window backs a job's online re-tuner;
//! * a **probe planner** — §3.3.1's active probing: after confirmed drift
//!   the registry proposes off-plan probe HITs ([`ProbePlan`]) spanning the
//!   observed price range, and [`MarketRegistry::relearn`] refits the
//!   linearity hypothesis from the campaign results and installs the new
//!   belief.
//!
//! The set of markets is fixed at construction. That keeps every downstream
//! label set bounded (telemetry exports one histogram family per market) and
//! lets the serving layer reject jobs naming unknown markets at admission.

use crowdtune_core::inference::{ProbeCampaign, ProbePlan};
use crowdtune_core::rate::{LinearRate, RateModel};
use crowdtune_core::{CoreError, MarketId, Result};
use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

/// Tuning knobs of the sliding-window drift detector.
#[derive(Debug, Clone, Copy)]
pub struct DriftConfig {
    /// Maximum acceptance observations retained *per price point*. Oldest
    /// observations are evicted first, so after a regime switch the window
    /// fully turns over within `window` acceptances at that price.
    pub window: usize,
    /// Minimum observations at a price before its estimate participates in
    /// drift detection.
    pub min_observations: usize,
    /// How many standard errors the observed rate must sit away from the
    /// belief before drift is confirmed (the MLE's asymptotic standard error
    /// is `λ̂/√n`).
    pub significance_z: f64,
    /// Minimum relative discrepancy `|observed − believed| / believed` —
    /// guards against statistically-significant-but-tiny drift on large
    /// windows.
    pub relative_threshold: f64,
}

impl Default for DriftConfig {
    fn default() -> Self {
        DriftConfig {
            window: 64,
            min_observations: 8,
            significance_z: 3.0,
            relative_threshold: 0.25,
        }
    }
}

/// Sliding-window censored exponential MLE of the on-hold rate, one window
/// per observed price point.
///
/// The estimator is the standard censored-exponential MLE (Appendix A of the
/// paper): `λ̂ = events / (Σ accepted delays + Σ pending exposures)`. Both
/// the accepted delays and the pending exposures are bounded per price: the
/// window keeps the most recent [`DriftConfig::window`] acceptances, and
/// pending exposure is *replaced* (not accumulated) on every report, since
/// it describes the currently-open repetitions.
#[derive(Debug, Default)]
pub struct DriftWindow {
    /// Per price: most recent accepted on-hold delays, oldest first.
    accepted: Vec<(u64, VecDeque<f64>)>,
    /// Per price: current censored exposure (open repetitions' elapsed
    /// waiting time). Replaced wholesale by [`DriftWindow::set_pending`].
    pending: Vec<(u64, f64)>,
}

impl DriftWindow {
    /// Records one accepted repetition: on-hold delay `delay` at `price`.
    pub fn push(&mut self, price: u64, delay: f64, window: usize) {
        if !(delay.is_finite() && delay >= 0.0) {
            return;
        }
        let deque = match self.accepted.iter_mut().find(|(p, _)| *p == price) {
            Some((_, deque)) => deque,
            None => {
                self.accepted.push((price, VecDeque::new()));
                &mut self.accepted.last_mut().expect("just pushed").1
            }
        };
        deque.push_back(delay);
        while deque.len() > window.max(1) {
            deque.pop_front();
        }
    }

    /// Replaces the censored exposure at `price`: total elapsed waiting time
    /// of repetitions published at that price and not yet accepted.
    pub fn set_pending(&mut self, price: u64, exposure: f64) {
        if !(exposure.is_finite() && exposure >= 0.0) {
            return;
        }
        match self.pending.iter_mut().find(|(p, _)| *p == price) {
            Some((_, e)) => *e = exposure,
            None => self.pending.push((price, exposure)),
        }
    }

    /// The censored MLE at `price` over the current window, with the event
    /// count backing it: `(rate, events)`. `None` until at least one
    /// acceptance was observed and the total exposure is positive.
    pub fn estimate(&self, price: u64) -> Option<(f64, usize)> {
        let accepted = self
            .accepted
            .iter()
            .find(|(p, _)| *p == price)
            .map(|(_, d)| d)?;
        let events = accepted.len();
        let exposure: f64 = accepted.iter().sum::<f64>()
            + self
                .pending
                .iter()
                .find(|(p, _)| *p == price)
                .map(|(_, e)| *e)
                .unwrap_or(0.0);
        if events == 0 || exposure <= 0.0 {
            return None;
        }
        Some((events as f64 / exposure, events))
    }

    /// Accepted delays held, summed over every price.
    pub fn observations(&self) -> usize {
        self.accepted.iter().map(|(_, deque)| deque.len()).sum()
    }

    /// Prices with at least one accepted observation, ascending.
    pub fn observed_prices(&self) -> Vec<u64> {
        let mut prices: Vec<u64> = self.accepted.iter().map(|(p, _)| *p).collect();
        prices.sort_unstable();
        prices
    }

    /// Drops every observation — called after a probe campaign installs a
    /// fresh belief, so the next drift check starts from the new regime.
    pub fn clear(&mut self) {
        self.accepted.clear();
        self.pending.clear();
    }
}

/// One price point where the window's estimate contradicts the belief.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriftEvidence {
    /// The payment in budget units.
    pub price: u64,
    /// Windowed censored-MLE estimate of the on-hold rate at that price.
    pub observed: f64,
    /// What the current belief predicts at that price.
    pub believed: f64,
    /// Number of acceptances backing the estimate.
    pub events: usize,
}

/// Everything the registry tracks for one marketplace.
struct MarketEntry {
    id: MarketId,
    name: String,
    belief: Mutex<Arc<dyn RateModel>>,
    drift: Mutex<DriftWindow>,
}

/// The static set of federated marketplaces and their per-market state.
///
/// Construction fixes the member markets; everything else (beliefs and
/// drift windows) is interior-mutable behind per-market locks, so the
/// registry is shared as an `Arc<MarketRegistry>` across the serving layer,
/// the router and simulations.
pub struct MarketRegistry {
    entries: Vec<MarketEntry>,
    config: DriftConfig,
}

impl std::fmt::Debug for MarketRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MarketRegistry")
            .field(
                "markets",
                &self
                    .entries
                    .iter()
                    .map(|e| (e.id, e.name.as_str()))
                    .collect::<Vec<_>>(),
            )
            .finish()
    }
}

impl MarketRegistry {
    /// A registry over the given `(id, name, initial belief)` triples.
    /// Ids and names must be unique and non-empty.
    pub fn new(markets: Vec<(MarketId, String, Arc<dyn RateModel>)>) -> Result<Self> {
        Self::with_config(markets, DriftConfig::default())
    }

    /// [`MarketRegistry::new`] with explicit drift-detector knobs.
    pub fn with_config(
        markets: Vec<(MarketId, String, Arc<dyn RateModel>)>,
        config: DriftConfig,
    ) -> Result<Self> {
        if markets.is_empty() {
            return Err(CoreError::invalid_argument(
                "a market registry needs at least one market",
            ));
        }
        let mut entries = Vec::with_capacity(markets.len());
        for (id, name, belief) in markets {
            if name.is_empty() {
                return Err(CoreError::invalid_argument(
                    "market names must be non-empty",
                ));
            }
            let clash = entries
                .iter()
                .any(|e: &MarketEntry| e.id == id || e.name == name);
            if clash {
                return Err(CoreError::invalid_argument(format!(
                    "duplicate market id or name: {id} / {name}"
                )));
            }
            entries.push(MarketEntry {
                id,
                name,
                belief: Mutex::new(belief),
                drift: Mutex::new(DriftWindow::default()),
            });
        }
        Ok(MarketRegistry { entries, config })
    }

    /// The single-market registry every pre-federation deployment maps onto:
    /// one default market named `"default"` with the given belief.
    pub fn single(belief: Arc<dyn RateModel>) -> Self {
        Self::new(vec![(MarketId::DEFAULT, "default".to_string(), belief)])
            .expect("a one-market registry is always valid")
    }

    /// The drift-detector configuration in force.
    pub fn config(&self) -> DriftConfig {
        self.config
    }

    /// Number of member markets.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the registry has no markets (never true post-construction).
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Member market ids, in registration order.
    pub fn markets(&self) -> Vec<MarketId> {
        self.entries.iter().map(|e| e.id).collect()
    }

    /// Whether `id` names a member market.
    pub fn contains(&self, id: MarketId) -> bool {
        self.entries.iter().any(|e| e.id == id)
    }

    /// Registration-order index of `id`, if a member. Telemetry uses this to
    /// index bounded per-market label arrays.
    pub fn index_of(&self, id: MarketId) -> Option<usize> {
        self.entries.iter().position(|e| e.id == id)
    }

    /// Human-readable market name (telemetry label value), if a member.
    pub fn name_of(&self, id: MarketId) -> Option<&str> {
        self.entries
            .iter()
            .find(|e| e.id == id)
            .map(|e| e.name.as_str())
    }

    /// Member market names, in registration order.
    pub fn names(&self) -> Vec<&str> {
        self.entries.iter().map(|e| e.name.as_str()).collect()
    }

    fn entry(&self, id: MarketId) -> Result<&MarketEntry> {
        self.entries
            .iter()
            .find(|e| e.id == id)
            .ok_or_else(|| CoreError::invalid_argument(format!("unknown market {id}")))
    }

    /// The current rate belief for `id`.
    pub fn belief(&self, id: MarketId) -> Result<Arc<dyn RateModel>> {
        Ok(self.entry(id)?.belief.lock().expect("belief lock").clone())
    }

    /// Replaces the rate belief for `id` and resets its drift window (the
    /// window measured the *old* belief's residuals).
    pub fn set_belief(&self, id: MarketId, belief: Arc<dyn RateModel>) -> Result<()> {
        let entry = self.entry(id)?;
        *entry.belief.lock().expect("belief lock") = belief;
        entry.drift.lock().expect("drift lock").clear();
        Ok(())
    }

    /// Feeds one accepted repetition (on-hold delay `delay` at `price`) into
    /// `id`'s sliding drift window.
    pub fn observe_acceptance(&self, id: MarketId, price: u64, delay: f64) -> Result<()> {
        self.entry(id)?
            .drift
            .lock()
            .expect("drift lock")
            .push(price, delay, self.config.window);
        Ok(())
    }

    /// Replaces the censored exposure at `price` for `id` — the elapsed
    /// waiting time of currently-open repetitions at that price.
    pub fn observe_pending(&self, id: MarketId, price: u64, exposure: f64) -> Result<()> {
        self.entry(id)?
            .drift
            .lock()
            .expect("drift lock")
            .set_pending(price, exposure);
        Ok(())
    }

    /// Checks `id`'s window against its belief. Returns the price points
    /// whose windowed estimate is both statistically significant
    /// (`significance_z` standard errors) and practically large
    /// (`relative_threshold`) — empty means no confirmed drift.
    pub fn confirmed_drift(&self, id: MarketId) -> Result<Vec<DriftEvidence>> {
        let entry = self.entry(id)?;
        let belief = entry.belief.lock().expect("belief lock").clone();
        let window = entry.drift.lock().expect("drift lock");
        let mut evidence = Vec::new();
        for price in window.observed_prices() {
            let Some((observed, events)) = window.estimate(price) else {
                continue;
            };
            if events < self.config.min_observations {
                continue;
            }
            let believed = belief.on_hold_rate(price as f64);
            if !(believed.is_finite() && believed > 0.0) {
                continue;
            }
            let relative = (observed - believed).abs() / believed;
            // Asymptotic standard error of the exponential-rate MLE.
            let standard_error = observed / (events as f64).sqrt();
            let z = (observed - believed).abs() / standard_error;
            if relative >= self.config.relative_threshold && z >= self.config.significance_z {
                evidence.push(DriftEvidence {
                    price,
                    observed,
                    believed,
                    events,
                });
            }
        }
        Ok(evidence)
    }

    /// Proposes the §3.3.1 active-probe campaign for `id` after confirmed
    /// drift: off-plan probe HITs at a ladder of prices spanning the window's
    /// observed range (padded by one unit at each end to re-learn the curve
    /// *shape*, not just re-level the observed points), `tasks_per_price`
    /// repetitions each.
    pub fn probe_plan(&self, id: MarketId, tasks_per_price: u32) -> Result<ProbePlan> {
        let entry = self.entry(id)?;
        let observed = entry.drift.lock().expect("drift lock").observed_prices();
        let (lo, hi) = match (observed.first(), observed.last()) {
            (Some(&lo), Some(&hi)) => (lo.saturating_sub(1).max(1), hi + 1),
            _ => (1, 5),
        };
        let mut prices: Vec<u64> = observed;
        if !prices.contains(&lo) {
            prices.insert(0, lo);
        }
        if !prices.contains(&hi) {
            prices.push(hi);
        }
        ProbePlan::new(prices, tasks_per_price)
    }

    /// Refits the linearity hypothesis (§3.3.2) from a completed probe
    /// campaign, installs the fitted curve as `id`'s new belief, clears the
    /// drift window and returns the new belief.
    pub fn relearn(&self, id: MarketId, campaign: &ProbeCampaign) -> Result<Arc<dyn RateModel>> {
        let fitted: Arc<LinearRate> = Arc::new(campaign.fit_linearity()?.to_rate_model()?);
        let belief: Arc<dyn RateModel> = fitted;
        self.set_belief(id, belief.clone())?;
        Ok(belief)
    }
}

impl Default for MarketRegistry {
    /// A single default market believing the paper's unit-slope linear curve.
    fn default() -> Self {
        Self::single(Arc::new(LinearRate::unit_slope()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crowdtune_core::inference::PriceObservation;

    fn two_markets() -> MarketRegistry {
        MarketRegistry::new(vec![
            (
                MarketId::DEFAULT,
                "amt".to_string(),
                Arc::new(LinearRate::unit_slope()),
            ),
            (
                MarketId(1),
                "prolific".to_string(),
                Arc::new(LinearRate::flat()),
            ),
        ])
        .unwrap()
    }

    #[test]
    fn construction_rejects_duplicates_and_empty() {
        assert!(MarketRegistry::new(vec![]).is_err());
        let dup_id = MarketRegistry::new(vec![
            (
                MarketId(0),
                "a".to_string(),
                Arc::new(LinearRate::unit_slope()) as Arc<dyn RateModel>,
            ),
            (MarketId(0), "b".to_string(), Arc::new(LinearRate::flat())),
        ]);
        assert!(dup_id.is_err());
        let dup_name = MarketRegistry::new(vec![
            (
                MarketId(0),
                "a".to_string(),
                Arc::new(LinearRate::unit_slope()) as Arc<dyn RateModel>,
            ),
            (MarketId(1), "a".to_string(), Arc::new(LinearRate::flat())),
        ]);
        assert!(dup_name.is_err());
    }

    #[test]
    fn membership_and_lookup() {
        let registry = two_markets();
        assert_eq!(registry.len(), 2);
        assert_eq!(registry.markets(), vec![MarketId(0), MarketId(1)]);
        assert_eq!(registry.names(), vec!["amt", "prolific"]);
        assert_eq!(registry.name_of(MarketId(1)), Some("prolific"));
        assert_eq!(registry.index_of(MarketId(1)), Some(1));
        assert!(registry.contains(MarketId::DEFAULT));
        assert!(!registry.contains(MarketId(9)));
        assert!(registry.belief(MarketId(9)).is_err());
    }

    #[test]
    fn beliefs_swap_per_market() {
        let registry = two_markets();
        registry
            .set_belief(MarketId(1), Arc::new(LinearRate::steep()))
            .unwrap();
        let steep = registry.belief(MarketId(1)).unwrap();
        assert_eq!(
            steep.on_hold_rate(2.0),
            LinearRate::steep().on_hold_rate(2.0)
        );
        // The other market is untouched.
        let default = registry.belief(MarketId::DEFAULT).unwrap();
        assert_eq!(
            default.on_hold_rate(2.0),
            LinearRate::unit_slope().on_hold_rate(2.0)
        );
    }

    #[test]
    fn sliding_window_unmixes_a_regime_switch() {
        // Belief: unit slope, so rate 3.0 at price 2. The market switches to
        // a regime 4× faster (delays 1/12 at price 2). An unbounded
        // accumulator fed 64 pre-switch observations would need hundreds of
        // post-switch samples before the mixed estimate crosses the drift
        // threshold; the sliding window turns over after `window`
        // post-switch acceptances and must flag confirmed drift.
        let config = DriftConfig {
            window: 16,
            ..DriftConfig::default()
        };
        let registry = MarketRegistry::with_config(
            vec![(
                MarketId::DEFAULT,
                "amt".to_string(),
                Arc::new(LinearRate::unit_slope()),
            )],
            config,
        )
        .unwrap();
        let id = MarketId::DEFAULT;
        // Pre-switch: delays consistent with the belief (rate 3 ⇒ mean 1/3).
        for _ in 0..64 {
            registry.observe_acceptance(id, 2, 1.0 / 3.0).unwrap();
        }
        assert!(
            registry.confirmed_drift(id).unwrap().is_empty(),
            "on-belief observations must not flag drift"
        );
        // Post-switch: the market now accepts 4× faster.
        for _ in 0..16 {
            registry.observe_acceptance(id, 2, 1.0 / 12.0).unwrap();
        }
        let evidence = registry.confirmed_drift(id).unwrap();
        assert_eq!(evidence.len(), 1, "window must have fully turned over");
        assert_eq!(evidence[0].price, 2);
        assert!((evidence[0].observed - 12.0).abs() < 1e-9);
        assert!((evidence[0].believed - 3.0).abs() < 1e-12);
    }

    #[test]
    fn censored_exposure_tempers_the_estimate() {
        let registry = two_markets();
        let id = MarketId::DEFAULT;
        for _ in 0..64 {
            registry.observe_acceptance(id, 2, 0.1).unwrap();
        }
        // 64 events over 6.4s of accepted exposure alone: rate 10. Adding
        // 25.6s of pending (censored) exposure drops the MLE to
        // 64 / (6.4 + 25.6) = 2.0, which the drift check reports against the
        // belief of 3.0 (|2−3|/3 ≈ 0.33 relative, z = 4).
        registry.observe_pending(id, 2, 25.6).unwrap();
        let evidence = registry.confirmed_drift(id).unwrap();
        assert_eq!(evidence.len(), 1);
        assert!((evidence[0].observed - 2.0).abs() < 1e-9);
    }

    #[test]
    fn probe_relearn_updates_the_belief() {
        let registry = two_markets();
        let id = MarketId(1);
        for _ in 0..8 {
            registry.observe_acceptance(id, 2, 0.05).unwrap();
            registry.observe_acceptance(id, 4, 0.02).unwrap();
        }
        let plan = registry.probe_plan(id, 3).unwrap();
        // Ladder spans the observed range padded by one unit.
        assert_eq!(plan.prices, vec![1, 2, 4, 5]);
        // A campaign whose observations follow λo(c) = 2c + 1 exactly:
        // n acceptance epochs over total time n/λ ⇒ MLE = λ.
        let observations = plan
            .prices
            .iter()
            .map(|&price| {
                let rate = 2.0 * price as f64 + 1.0;
                let epochs: Vec<f64> = (1..=20).map(|i| i as f64 / rate).collect();
                PriceObservation::new(price, epochs, vec![0.5; 20])
            })
            .collect();
        let campaign = ProbeCampaign::new(observations);
        let belief = registry.relearn(id, &campaign).unwrap();
        assert!((belief.on_hold_rate(3.0) - 7.0).abs() < 0.5);
        // Relearning cleared the window: no residual drift evidence.
        assert!(registry.confirmed_drift(id).unwrap().is_empty());
    }
}
