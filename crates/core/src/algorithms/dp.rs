//! The budget-indexed marginal dynamic program shared by Algorithms 2 and 3.
//!
//! Both the Repetition Algorithm (RA) and the Heterogeneous Algorithm (HA)
//! follow the same skeleton (Algorithms 2 and 3 in the paper): start from the
//! minimum feasible payment (one unit per repetition of every group), then
//! walk the remaining budget `B'` one unit at a time; at budget level `x`
//! either keep the best plan for `x − 1` or take the best plan for `x − u_i`
//! and raise group `i`'s per-repetition payment by one unit (which costs
//! `u_i = n_i · k_i` budget units).
//!
//! The objective differs per scenario, and so does the cost of evaluating a
//! candidate:
//!
//! * **separable objectives** — RA's sum of expected group latencies and
//!   HA's `O1` decompose as `Σ_i f_i(p_i)`, so raising group `i`'s payment by
//!   one unit changes exactly one term. [`marginal_budget_dp_separable`]
//!   exploits this: the per-group marginal values `f_i(p)` are tabulated as
//!   the scan reaches them (only payments best plans actually attain, each
//!   evaluated at most once per scan) and every one of the `O(n·B')` DP
//!   candidates is then scored in amortised **O(1)** —
//!   `value(x−u_i) − f_i(p_i) + f_i(p_i+1)` — instead of re-evaluating the
//!   full `O(n)` objective;
//! * **non-separable objectives** — HA's Closeness couples the groups through
//!   the utopia-point distance, so [`marginal_budget_dp`] keeps the generic
//!   closure-based path (`O(n)` per candidate).
//!
//! Either way the table stores one *decision* per budget level (carry the
//! previous level, or increment one group) rather than a full payment vector,
//! so memory is `O(B')` instead of `O(n·B')`; payment vectors are
//! reconstructed on demand by walking the decision chain.

use crate::error::{CoreError, Result};
use serde::{Deserialize, Serialize};

/// Result of the marginal DP: the per-group per-repetition payments (in
/// units, each at least 1) and the value of the objective at that plan.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DpOutcome {
    /// Per-group per-repetition payments.
    pub payments: Vec<u64>,
    /// Objective value at `payments`.
    pub objective: f64,
    /// Total extra budget actually consumed (some of `B'` may be left over
    /// when no group increment is affordable with the remaining units).
    pub extra_spent: u64,
}

/// Runs the budget-indexed marginal DP with a generic (possibly
/// non-separable) objective.
///
/// * `unit_costs[i]` — cost in budget units of raising group `i`'s
///   per-repetition payment by one unit (`u_i = n_i · k_i`);
/// * `extra_budget` — the discretionary budget `B'` after paying one unit per
///   repetition of every group;
/// * `objective` — evaluates a candidate per-group payment vector; the DP
///   minimises this value. The closure may memoize internally (behind `&self`
///   interior mutability); it is called `O(n · B')` times. For objectives of
///   the form `Σ_i f_i(p_i)` use [`marginal_budget_dp_separable`], which is
///   `O(1)` per candidate.
pub fn marginal_budget_dp<F>(
    unit_costs: &[u64],
    extra_budget: u64,
    objective: F,
) -> Result<DpOutcome>
where
    F: Fn(&[u64]) -> Result<f64>,
{
    let table = DpTable::build(unit_costs, extra_budget, objective)?;
    table.outcome_at(extra_budget)
}

/// Runs the budget-indexed marginal DP for a **separable** objective
/// `Σ_i term(i, p_i)`.
///
/// `term(i, p)` is the contribution of group `i` at per-repetition payment
/// `p` (e.g. the expected phase-1 latency `E_i(p)` for RA). Marginal values
/// are tabulated lazily — only payments the scan actually reaches, each
/// evaluated at most once — and every DP candidate is scored in amortised
/// `O(1)` from the cached values. Plans are identical to
/// [`marginal_budget_dp`] run on the equivalent summing closure (the
/// property tests pin this bit-for-bit).
pub fn marginal_budget_dp_separable<F>(
    unit_costs: &[u64],
    extra_budget: u64,
    term: F,
) -> Result<DpOutcome>
where
    F: FnMut(usize, u64) -> Result<f64>,
{
    let table = DpTable::build_separable(unit_costs, extra_budget, term)?;
    table.outcome_at(extra_budget)
}

/// Decision marker: the level was formed by carrying the previous level
/// unchanged (any other value is the index of the incremented group).
const CARRY: u32 = u32::MAX;

/// Per-level DP state: how the level's best plan was formed, its objective
/// value and its actual spend. One of these per budget level is all the
/// table keeps — payment vectors are reconstructed by walking the decision
/// chain.
#[derive(Debug, Clone, Copy)]
struct Level {
    /// [`CARRY`] (the level copies its predecessor) or the index of the
    /// group incremented on top of level `x − u_i`. Unused for level 0.
    decision: u32,
    /// Objective value of the best state at this level.
    objective: f64,
    /// Extra budget actually consumed by the best state at this level.
    spent: u64,
}

/// The full state table of the budget-indexed marginal DP.
///
/// The recursion of Algorithms 2 and 3 is a prefix computation: the best plan
/// for every budget level `x ≤ B'` is produced on the way to `B'`. Keeping
/// the whole table around therefore gives two cheap operations that the
/// online re-tuner exploits:
///
/// * [`DpTable::outcome_at`] answers *any smaller* discretionary budget —
///   re-tuning a job whose remaining budget shrank (but whose group
///   structure and rate estimates are unchanged) costs a single `O(x)`
///   decision-chain walk, no objective evaluations;
/// * [`DpTable::extend_to`] warm-starts from the last computed level instead
///   of restarting at zero when the budget *grew* (e.g. a topped-up job).
///
/// Internally the table stores one decision, objective value and spent
/// counter per level (`O(B')` memory) plus a flat ring buffer of full payment
/// vectors covering the last `max(u_i)` levels — exactly the levels the next
/// DP step can reference — so no `O(n·B')` payment matrix is ever
/// materialised and the scan's inner loop performs no allocation. The ring
/// is sized to a power of two so locating a level's payments is a mask and a
/// multiply, not a division.
#[derive(Debug, Clone)]
pub struct DpTable {
    unit_costs: Vec<u64>,
    /// One [`Level`] per covered budget level `0..=B'`.
    levels: Vec<Level>,
    /// Ring buffer of the payment vectors of the most recent levels: level
    /// `x` occupies `n` entries starting at `(x & (ring_rows - 1)) * n`.
    /// Holds at least `min(max(u_i), B') + 1` rows — every level the next DP
    /// step can reference plus the one being written.
    ring: Vec<u64>,
    /// Number of rows in `ring`; always a power of two.
    ring_rows: usize,
}

impl DpTable {
    /// Builds the table up to `extra_budget` with a generic objective
    /// closure. See [`marginal_budget_dp`].
    pub fn build<F>(unit_costs: &[u64], extra_budget: u64, objective: F) -> Result<Self>
    where
        F: Fn(&[u64]) -> Result<f64>,
    {
        let mut table = Self::with_base(unit_costs, |base| objective(base))?;
        table.extend_to(extra_budget, objective)?;
        Ok(table)
    }

    /// Builds the table up to `extra_budget` for a separable objective
    /// `Σ_i term(i, p_i)`. See [`marginal_budget_dp_separable`].
    pub fn build_separable<F>(unit_costs: &[u64], extra_budget: u64, mut term: F) -> Result<Self>
    where
        F: FnMut(usize, u64) -> Result<f64>,
    {
        let mut table = Self::with_base(unit_costs, |base| {
            let mut sum = 0.0;
            for (i, &p) in base.iter().enumerate() {
                sum += term(i, p)?;
            }
            Ok(sum)
        })?;
        table.extend_to_separable(extra_budget, term)?;
        Ok(table)
    }

    /// Validates the inputs and creates the level-0 state (one unit per
    /// repetition of every group).
    fn with_base<F>(unit_costs: &[u64], base_objective: F) -> Result<Self>
    where
        F: FnOnce(&[u64]) -> Result<f64>,
    {
        if unit_costs.is_empty() {
            return Err(CoreError::EmptyTaskSet);
        }
        if unit_costs.contains(&0) {
            return Err(CoreError::invalid_argument(
                "group unit-increment costs must be positive".to_owned(),
            ));
        }
        let base = vec![1u64; unit_costs.len()];
        let value = base_objective(&base)?;
        Ok(DpTable {
            unit_costs: unit_costs.to_vec(),
            levels: vec![Level {
                decision: CARRY,
                objective: value,
                spent: 0,
            }],
            ring: base, // level 0 in a single-row ring
            ring_rows: 1,
        })
    }

    /// Number of trailing levels whose payment vectors the next DP step can
    /// reference: offsets `1..=max(u_i)` behind the level being computed.
    fn window(&self) -> u64 {
        self.unit_costs
            .iter()
            .max()
            .copied()
            .expect("unit costs are non-empty")
    }

    /// Grows the ring buffer (power-of-two rows) so it can serve a scan up
    /// to `target_budget`, re-materialising the payments of the still-live
    /// levels from the decision chain. A no-op when the ring is already
    /// large enough — in particular on every warm-start extension after a
    /// full-size build.
    fn ensure_ring(&mut self, target_budget: u64) {
        let rows_needed = (self.window().min(target_budget) + 1).next_power_of_two() as usize;
        if self.ring_rows >= rows_needed {
            return;
        }
        let n = self.unit_costs.len();
        let mut ring = vec![0u64; rows_needed * n];
        let top = self.max_budget();
        let low = top.saturating_sub(self.window());
        for level in low..=top {
            let row = (level as usize & (rows_needed - 1)) * n;
            self.reconstruct_payments(level, &mut ring[row..row + n]);
        }
        self.ring = ring;
        self.ring_rows = rows_needed;
    }

    /// Fills `out` with the payment vector of `level` by walking the
    /// decision chain back to level 0. `O(level)` time, no objective
    /// evaluations.
    fn reconstruct_payments(&self, level: u64, out: &mut [u64]) {
        out.fill(1);
        let mut cur = level;
        while cur > 0 {
            match self.levels[cur as usize].decision {
                CARRY => cur -= 1,
                group => {
                    out[group as usize] += 1;
                    cur -= self.unit_costs[group as usize];
                }
            }
        }
    }

    /// Extends the table to cover budgets up to `extra_budget` with the
    /// generic closure path, reusing every already-computed level (the
    /// warm-start path). A no-op when the table already covers the requested
    /// budget.
    ///
    /// # Contract
    ///
    /// `objective` **must** compute the same function of the payment vector
    /// as the one the table was built with (and as every previous
    /// `extend_to` call): warm-started levels are *not* re-evaluated, so a
    /// different objective would silently mix values of two different
    /// functions and corrupt every level from the extension point on. Debug
    /// builds re-evaluate the base state and panic when the value does not
    /// match the one recorded at build time.
    pub fn extend_to<F>(&mut self, extra_budget: u64, objective: F) -> Result<()>
    where
        F: Fn(&[u64]) -> Result<f64>,
    {
        #[cfg(debug_assertions)]
        {
            let base = vec![1u64; self.unit_costs.len()];
            let value = objective(&base)?;
            assert!(
                value.to_bits() == self.levels[0].objective.to_bits(),
                "DpTable::extend_to called with a different objective than at build time: \
                 base state evaluates to {value}, table recorded {}",
                self.levels[0].objective
            );
        }
        let start = self.levels.len() as u64;
        if start > extra_budget {
            return Ok(());
        }
        self.ensure_ring(extra_budget);
        self.levels
            .reserve(extra_budget as usize + 1 - self.levels.len());
        let n = self.unit_costs.len();
        let mask = self.ring_rows - 1;
        let mut scratch = vec![0u64; n];
        for x in start..=extra_budget {
            // Candidate 1: do not spend the x-th unit (carry the previous
            // state).
            let carry = self.levels[(x - 1) as usize];
            let mut best_value = carry.objective;
            let mut best_spent = carry.spent;
            let mut best_decision = CARRY;
            // Candidate 2..n+1: give one more unit-increment to group i,
            // built on the best state with x − u_i extra budget.
            for (i, &u) in self.unit_costs.iter().enumerate() {
                if u <= x {
                    let prev = (x - u) as usize;
                    let row = (prev & mask) * n;
                    scratch.copy_from_slice(&self.ring[row..row + n]);
                    scratch[i] += 1;
                    let value = objective(&scratch)?;
                    let spent = self.levels[prev].spent + u;
                    if wins(value, spent, best_value, best_spent) {
                        best_value = value;
                        best_spent = spent;
                        best_decision = i as u32;
                    }
                }
            }
            self.push_level(x, best_decision, best_value, best_spent);
        }
        Ok(())
    }

    /// Extends the table to cover budgets up to `extra_budget` for a
    /// separable objective `Σ_i term(i, p_i)`, evaluating each candidate in
    /// amortised `O(1)` from lazily tabulated per-group marginal values.
    ///
    /// # Contract
    ///
    /// Same as [`DpTable::extend_to`]: `term` must compute the same function
    /// as the objective the table was built with. Debug builds re-evaluate
    /// the base state and panic on a mismatch. Mixing `extend_to` and
    /// `extend_to_separable` on one table is fine as long as the closure sums
    /// exactly the same terms.
    pub fn extend_to_separable<F>(&mut self, extra_budget: u64, mut term: F) -> Result<()>
    where
        F: FnMut(usize, u64) -> Result<f64>,
    {
        #[cfg(debug_assertions)]
        {
            let mut value = 0.0;
            for i in 0..self.unit_costs.len() {
                value += term(i, 1)?;
            }
            assert!(
                value.to_bits() == self.levels[0].objective.to_bits(),
                "DpTable::extend_to_separable called with a different objective than at build \
                 time: base state evaluates to {value}, table recorded {}",
                self.levels[0].objective
            );
        }
        let start = self.levels.len() as u64;
        if start > extra_budget {
            return Ok(());
        }
        self.ensure_ring(extra_budget);
        self.levels
            .reserve(extra_budget as usize + 1 - self.levels.len());
        // Marginal tables `terms[i][p] = f_i(p)`, grown lazily and
        // contiguously as the scan reaches new payments. Only payments that
        // best plans actually reach (plus the one-unit increments the scan
        // probes) are ever evaluated — the same working set the closure
        // path's memoizing objectives see, not the `1 + B'/u_i` worst case
        // of a group absorbing the whole budget alone.
        let n = self.unit_costs.len();
        let mask = self.ring_rows - 1;
        // `max_p[i]` — the largest payment group i attains in any level the
        // scan can still reference; each table upholds the invariant "filled
        // through max_p[i] + 1" (the one-unit increment the next candidate
        // probes), so the hot loop below reads the tables immutably with no
        // fill checks. Seeded from the live window so warm-start extensions
        // read valid values for payments inherited from earlier calls (a
        // non-memoizing `term` closure pays that seed again per call;
        // memoize upstream if evaluation is expensive — RA's
        // `GroupLatencyCache` does).
        let mut terms: Vec<Vec<f64>> = vec![vec![f64::NAN]; n]; // index 0 unused
        let mut max_p = vec![1u64; n];
        {
            let low = (start - 1).saturating_sub(self.window());
            for level in low..start {
                let row = (level as usize & mask) * n;
                for (max, &p) in max_p.iter_mut().zip(&self.ring[row..row + n]) {
                    *max = (*max).max(p);
                }
            }
            for (i, (table, &max)) in terms.iter_mut().zip(&max_p).enumerate() {
                // Groups the budget can never increment only ever contribute
                // their current term to the fresh per-level sums — skip the
                // speculative `max + 1` entry for those.
                let fill_to = if self.unit_costs[i] <= extra_budget {
                    max + 1
                } else {
                    max
                };
                for p in 1..=fill_to {
                    table.push(term(i, p)?);
                }
            }
        }
        // Split borrows so the hot loop reads unit costs / levels and
        // writes the ring without re-borrowing `self` per access.
        let DpTable {
            unit_costs,
            levels,
            ring,
            ..
        } = self;
        for x in start..=extra_budget {
            let xi = x as usize;
            let carry = levels[xi - 1];
            let mut best_value = carry.objective;
            let mut best_spent = carry.spent;
            let mut best_decision = CARRY;
            for (i, (&u, table)) in unit_costs.iter().zip(&terms).enumerate() {
                if u <= x {
                    let prev = (x - u) as usize;
                    // Raising group i's payment by one unit changes exactly
                    // one term of the sum: O(1) per candidate (fills happen
                    // below, only when a group's maximum payment grows).
                    let prev_state = levels[prev];
                    let p = ring[(prev & mask) * n + i] as usize;
                    let value = prev_state.objective - table[p] + table[p + 1];
                    let candidate_spent = prev_state.spent + u;
                    if wins(value, candidate_spent, best_value, best_spent) {
                        best_value = value;
                        best_spent = candidate_spent;
                        best_decision = i as u32;
                    }
                }
            }
            // Write the winner's payment vector into its ring row, then
            // re-anchor the stored value with a fresh left-to-right sum over
            // those payments. This keeps every stored level bit-equal to
            // what the closure path computes (same values, same summation
            // order) and stops incremental rounding error from accumulating
            // across levels — the O(n) cost is per *level*, not per
            // candidate, and touches only the cached table.
            let parent = if best_decision == CARRY {
                xi - 1
            } else {
                xi - unit_costs[best_decision as usize] as usize
            };
            let src = (parent & mask) * n;
            let dst = (xi & mask) * n;
            ring.copy_within(src..src + n, dst);
            if best_decision != CARRY {
                let i = best_decision as usize;
                ring[dst + i] += 1;
                // Maintain the fill invariant: when the incremented group
                // attains a new maximum payment, tabulate the next marginal
                // value so future candidates can read it without checks.
                // Amortised O(1): this fires at most once per distinct
                // (group, payment) pair a best plan reaches.
                let p_new = ring[dst + i];
                if p_new > max_p[i] {
                    max_p[i] = p_new;
                    let table = &mut terms[i];
                    while (table.len() as u64) <= p_new + 1 {
                        let payment = table.len() as u64;
                        table.push(term(i, payment)?);
                    }
                }
            }
            let mut fresh = 0.0;
            for (table, &p) in terms.iter().zip(&ring[dst..dst + n]) {
                fresh += table[p as usize];
            }
            levels.push(Level {
                decision: best_decision,
                objective: fresh,
                spent: best_spent,
            });
        }
        Ok(())
    }

    /// Appends level `x` with its winning decision, building the level's
    /// payment vector in its ring row from the parent's.
    fn push_level(&mut self, x: u64, decision: u32, value: f64, spent: u64) {
        let n = self.unit_costs.len();
        let mask = self.ring_rows - 1;
        let xi = x as usize;
        let parent = if decision == CARRY {
            xi - 1
        } else {
            xi - self.unit_costs[decision as usize] as usize
        };
        let src = (parent & mask) * n;
        let dst = (xi & mask) * n;
        self.ring.copy_within(src..src + n, dst);
        if decision != CARRY {
            self.ring[dst + decision as usize] += 1;
        }
        self.levels.push(Level {
            decision,
            objective: value,
            spent,
        });
    }

    /// Serializes the table into its compact durable image: the unit costs
    /// plus one `(decision, objective bits, spent)` record per level. The
    /// payment ring is deliberately excluded — it is a cache of the decision
    /// chain and [`DpTable::from_snapshot`] rebuilds it.
    pub fn snapshot(&self) -> DpTableSnapshot {
        DpTableSnapshot {
            unit_costs: self.unit_costs.clone(),
            levels: self
                .levels
                .iter()
                .map(|level| (level.decision, level.objective.to_bits(), level.spent))
                .collect(),
        }
    }

    /// Rebuilds a table from its durable image, re-validating every level:
    /// unit costs must be positive, decisions must reference affordable
    /// groups, the spent chain must be internally consistent and objectives
    /// must be finite. A snapshot that fails any check is rejected whole —
    /// a corrupt record degrades to a cold solve, never to a wrong plan.
    ///
    /// Round trip is exact: `DpTable::from_snapshot(&table.snapshot())`
    /// answers every [`DpTable::outcome_at`] query bit-identically to the
    /// original table, and warm-start extensions behave as if the table had
    /// never left memory.
    pub fn from_snapshot(snapshot: &DpTableSnapshot) -> Result<Self> {
        let n = snapshot.unit_costs.len();
        if n == 0 {
            return Err(CoreError::EmptyTaskSet);
        }
        if snapshot.unit_costs.contains(&0) {
            return Err(CoreError::invalid_argument(
                "snapshot unit costs must be positive".to_owned(),
            ));
        }
        if snapshot.levels.is_empty() {
            return Err(CoreError::invalid_argument(
                "snapshot holds no DP levels".to_owned(),
            ));
        }
        let mut levels = Vec::with_capacity(snapshot.levels.len());
        for (x, &(decision, objective_bits, spent)) in snapshot.levels.iter().enumerate() {
            let objective = f64::from_bits(objective_bits);
            if !objective.is_finite() {
                return Err(CoreError::invalid_argument(format!(
                    "snapshot level {x} has a non-finite objective"
                )));
            }
            let expected_spent = if x == 0 {
                if decision != CARRY {
                    return Err(CoreError::invalid_argument(
                        "snapshot level 0 must be the base state".to_owned(),
                    ));
                }
                0
            } else if decision == CARRY {
                snapshot.levels[x - 1].2
            } else {
                let group = decision as usize;
                if group >= n {
                    return Err(CoreError::invalid_argument(format!(
                        "snapshot level {x} increments unknown group {group}"
                    )));
                }
                let u = snapshot.unit_costs[group];
                if u > x as u64 {
                    return Err(CoreError::invalid_argument(format!(
                        "snapshot level {x} increments group {group} costing {u} units"
                    )));
                }
                snapshot.levels[x - u as usize].2 + u
            };
            if spent != expected_spent {
                return Err(CoreError::invalid_argument(format!(
                    "snapshot level {x} records spend {spent}, chain implies {expected_spent}"
                )));
            }
            levels.push(Level {
                decision,
                objective,
                spent,
            });
        }
        let mut table = DpTable {
            unit_costs: snapshot.unit_costs.clone(),
            levels,
            ring: vec![1; n], // level-0 base payments in a single-row ring
            ring_rows: 1,
        };
        table.ensure_ring(table.max_budget());
        Ok(table)
    }

    /// The largest discretionary budget the table covers.
    pub fn max_budget(&self) -> u64 {
        self.levels.len() as u64 - 1
    }

    /// The group unit-increment costs the table was built for.
    pub fn unit_costs(&self) -> &[u64] {
        &self.unit_costs
    }

    /// Reads the best plan for any budget level the table covers. Costs one
    /// `O(extra_budget)` walk of the decision chain (no objective
    /// evaluations) to reconstruct the payment vector.
    pub fn outcome_at(&self, extra_budget: u64) -> Result<DpOutcome> {
        let state = self.levels.get(extra_budget as usize).ok_or_else(|| {
            CoreError::invalid_argument(format!(
                "DP table covers budgets up to {}, requested {extra_budget}",
                self.max_budget()
            ))
        })?;
        let mut payments = vec![1u64; self.unit_costs.len()];
        self.reconstruct_payments(extra_budget, &mut payments);
        Ok(DpOutcome {
            payments,
            objective: state.objective,
            extra_spent: state.spent,
        })
    }

    /// Reads just the objective value at a budget level — `O(1)`, no
    /// decision-chain walk. The cross-market router assembles per-group
    /// objective frontiers out of thousands of these reads, so skipping the
    /// payment reconstruction that [`DpTable::outcome_at`] performs matters.
    pub fn objective_at(&self, extra_budget: u64) -> Result<f64> {
        self.levels
            .get(extra_budget as usize)
            .map(|level| level.objective)
            .ok_or_else(|| {
                CoreError::invalid_argument(format!(
                    "DP table covers budgets up to {}, requested {extra_budget}",
                    self.max_budget()
                ))
            })
    }
}

/// The compact durable image of a [`DpTable`] — what the serving layer's
/// write-behind store persists per plan family (ROADMAP "Persistence hook
/// for family tables").
///
/// A level is `(decision, objective bits, spent)`: the objective is stored
/// as its IEEE-754 bit pattern so the load path can assert **bit** equality
/// with freshly computed values (shortest-round-trip decimal would also be
/// exact for finite values, but bits make the contract unmissable). The
/// payment ring is not stored; [`DpTable::from_snapshot`] re-derives it from
/// the decision chain.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DpTableSnapshot {
    /// The group unit-increment costs the table was built for.
    pub unit_costs: Vec<u64>,
    /// Per budget level `0..=B'`: `(decision, objective bits, spent)`.
    pub levels: Vec<(u32, u64, u64)>,
}

impl DpTableSnapshot {
    /// The largest discretionary budget the snapshot covers.
    pub fn max_budget(&self) -> u64 {
        self.levels.len().saturating_sub(1) as u64
    }

    /// The base-state (level 0) objective bits, compared against a fresh
    /// evaluation on load — the persisted form of the debug base-state check
    /// of [`DpTable::extend_to`].
    pub fn base_objective_bits(&self) -> Option<u64> {
        self.levels.first().map(|&(_, bits, _)| bits)
    }
}

/// The DP's candidate comparison: strict improvements always win; on
/// plateaus (the objective is unchanged by the increment, e.g. a rate model
/// that is flat at low payments) prefer the plan that spends more, so the DP
/// can walk through the flat region instead of stalling at the base
/// allocation.
#[inline]
fn wins(value: f64, spent: u64, best_value: f64, best_spent: u64) -> bool {
    let epsilon = 1e-12 * value.abs().max(1.0);
    value < best_value - epsilon || (value <= best_value + epsilon && spent > best_spent)
}

/// Exhaustively enumerates every per-group payment vector affordable within
/// `extra_budget` and returns the one minimising the objective. Exponential —
/// only used to validate the DP on tiny instances (tests and ablations).
pub fn exhaustive_group_search<F>(
    unit_costs: &[u64],
    extra_budget: u64,
    mut objective: F,
) -> Result<DpOutcome>
where
    F: FnMut(&[u64]) -> Result<f64>,
{
    if unit_costs.is_empty() {
        return Err(CoreError::EmptyTaskSet);
    }
    let n = unit_costs.len();
    let mut best: Option<DpOutcome> = None;
    let mut current = vec![1u64; n];

    fn recurse<F>(
        unit_costs: &[u64],
        remaining: u64,
        index: usize,
        current: &mut Vec<u64>,
        objective: &mut F,
        best: &mut Option<DpOutcome>,
        extra_spent: u64,
    ) -> Result<()>
    where
        F: FnMut(&[u64]) -> Result<f64>,
    {
        if index == unit_costs.len() {
            let value = objective(current)?;
            let better = match best {
                None => true,
                Some(b) => value < b.objective,
            };
            if better {
                *best = Some(DpOutcome {
                    payments: current.clone(),
                    objective: value,
                    extra_spent,
                });
            }
            return Ok(());
        }
        let max_increments = remaining / unit_costs[index];
        for extra in 0..=max_increments {
            current[index] = 1 + extra;
            recurse(
                unit_costs,
                remaining - extra * unit_costs[index],
                index + 1,
                current,
                objective,
                best,
                extra_spent + extra * unit_costs[index],
            )?;
        }
        current[index] = 1;
        Ok(())
    }

    recurse(
        unit_costs,
        extra_budget,
        0,
        &mut current,
        &mut objective,
        &mut best,
        0,
    )?;
    best.ok_or_else(|| CoreError::invalid_argument("no feasible payment vector".to_owned()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    /// A simple strictly convex separable objective: sum of `c_i / p_i`.
    fn harmonic_objective(coeffs: &'static [f64]) -> impl Fn(&[u64]) -> Result<f64> {
        move |payments: &[u64]| {
            Ok(payments
                .iter()
                .zip(coeffs)
                .map(|(&p, &c)| c / p as f64)
                .sum())
        }
    }

    /// The same objective expressed as per-group terms for the separable
    /// path.
    fn harmonic_term(coeffs: &'static [f64]) -> impl FnMut(usize, u64) -> Result<f64> {
        move |group: usize, payment: u64| Ok(coeffs[group] / payment as f64)
    }

    #[test]
    fn dp_rejects_bad_input() {
        assert!(marginal_budget_dp(&[], 10, |_| Ok(0.0)).is_err());
        assert!(marginal_budget_dp(&[0, 1], 10, |_| Ok(0.0)).is_err());
        assert!(marginal_budget_dp_separable(&[], 10, |_, _| Ok(0.0)).is_err());
        assert!(marginal_budget_dp_separable(&[0, 1], 10, |_, _| Ok(0.0)).is_err());
        assert!(exhaustive_group_search(&[], 10, |_| Ok(0.0)).is_err());
    }

    #[test]
    fn dp_with_zero_extra_budget_returns_base_plan() {
        let out = marginal_budget_dp(&[2, 3], 0, harmonic_objective(&[1.0, 1.0])).unwrap();
        assert_eq!(out.payments, vec![1, 1]);
        assert_eq!(out.extra_spent, 0);
        assert!((out.objective - 2.0).abs() < 1e-12);
    }

    #[test]
    fn dp_spends_budget_on_the_most_valuable_group() {
        // Group 0 has a much larger coefficient, so extra budget should go
        // there first.
        let out = marginal_budget_dp(&[1, 1], 3, harmonic_objective(&[10.0, 0.1])).unwrap();
        assert!(out.payments[0] > out.payments[1]);
        assert!(out.extra_spent <= 3);
    }

    #[test]
    fn dp_matches_exhaustive_search_on_small_instances() {
        let cases: Vec<(&[u64], u64, &'static [f64])> = vec![
            (&[1, 1], 6, &[1.0, 1.0]),
            (&[2, 3], 12, &[4.0, 9.0]),
            (&[3, 5], 20, &[2.0, 7.0]),
            (&[1, 2, 3], 10, &[1.0, 5.0, 2.0]),
        ];
        for (costs, budget, coeffs) in cases {
            let dp = marginal_budget_dp(costs, budget, harmonic_objective(coeffs)).unwrap();
            let brute = exhaustive_group_search(costs, budget, harmonic_objective(coeffs)).unwrap();
            assert!(
                (dp.objective - brute.objective).abs() < 1e-9,
                "costs {costs:?} budget {budget}: dp {} vs brute {}",
                dp.objective,
                brute.objective
            );
        }
    }

    #[test]
    fn separable_dp_matches_closure_dp_bit_for_bit() {
        let cases: Vec<(&[u64], u64, &'static [f64])> = vec![
            (&[1, 1], 6, &[1.0, 1.0]),
            (&[2, 3], 12, &[4.0, 9.0]),
            (&[3, 5], 20, &[2.0, 7.0]),
            (&[1, 2, 3], 30, &[1.0, 5.0, 2.0]),
            (&[7, 2, 5, 3], 60, &[3.0, 0.5, 8.0, 2.5]),
        ];
        for (costs, budget, coeffs) in cases {
            let closure = marginal_budget_dp(costs, budget, harmonic_objective(coeffs)).unwrap();
            let separable =
                marginal_budget_dp_separable(costs, budget, harmonic_term(coeffs)).unwrap();
            assert_eq!(closure.payments, separable.payments, "costs {costs:?}");
            assert_eq!(
                closure.objective.to_bits(),
                separable.objective.to_bits(),
                "costs {costs:?}: {} vs {}",
                closure.objective,
                separable.objective
            );
            assert_eq!(closure.extra_spent, separable.extra_spent);
        }
    }

    #[test]
    fn dp_objective_is_monotone_in_budget() {
        let mut prev = f64::INFINITY;
        for budget in 0..20u64 {
            let out = marginal_budget_dp(&[2, 3], budget, harmonic_objective(&[4.0, 9.0])).unwrap();
            assert!(
                out.objective <= prev + 1e-12,
                "objective must not increase with budget"
            );
            prev = out.objective;
        }
    }

    #[test]
    fn dp_never_overspends() {
        for budget in 0..30u64 {
            let out = marginal_budget_dp(&[3, 4], budget, harmonic_objective(&[1.0, 1.0])).unwrap();
            let spent: u64 = out
                .payments
                .iter()
                .zip([3u64, 4u64])
                .map(|(&p, u)| (p - 1) * u)
                .sum();
            assert!(spent <= budget);
            assert_eq!(spent, out.extra_spent);
        }
    }

    #[test]
    fn exhaustive_explores_all_combinations() {
        // With unit costs [2, 2] and 4 extra units the affordable payment
        // vectors are (1,1),(2,1),(1,2),(3,1),(2,2),(1,3) — the objective
        // below is minimised uniquely at (2,2).
        let objective =
            |p: &[u64]| Ok(((p[0] as f64) - 2.0).powi(2) + ((p[1] as f64) - 2.0).powi(2));
        let out = exhaustive_group_search(&[2, 2], 4, objective).unwrap();
        assert_eq!(out.payments, vec![2, 2]);
        assert_eq!(out.extra_spent, 4);
        assert!(out.objective.abs() < 1e-12);
    }

    #[test]
    fn dp_table_prefix_reads_match_fresh_solves() {
        let table = DpTable::build(&[2, 3], 20, harmonic_objective(&[4.0, 9.0])).unwrap();
        assert_eq!(table.max_budget(), 20);
        assert_eq!(table.unit_costs(), &[2, 3]);
        for budget in 0..=20u64 {
            let fresh =
                marginal_budget_dp(&[2, 3], budget, harmonic_objective(&[4.0, 9.0])).unwrap();
            let cached = table.outcome_at(budget).unwrap();
            assert_eq!(cached, fresh, "budget {budget}");
        }
        assert!(table.outcome_at(21).is_err());
    }

    #[test]
    fn dp_table_objective_reads_match_full_outcomes() {
        let table = DpTable::build(&[2, 3], 20, harmonic_objective(&[4.0, 9.0])).unwrap();
        for budget in 0..=20u64 {
            assert_eq!(
                table.objective_at(budget).unwrap().to_bits(),
                table.outcome_at(budget).unwrap().objective.to_bits(),
                "budget {budget}"
            );
        }
        assert!(table.objective_at(21).is_err());
    }

    #[test]
    fn dp_table_warm_start_extension_matches_cold_build() {
        let mut warm = DpTable::build(&[1, 2], 5, harmonic_objective(&[1.0, 5.0])).unwrap();
        warm.extend_to(15, harmonic_objective(&[1.0, 5.0])).unwrap();
        let cold = DpTable::build(&[1, 2], 15, harmonic_objective(&[1.0, 5.0])).unwrap();
        for budget in 0..=15u64 {
            assert_eq!(
                warm.outcome_at(budget).unwrap(),
                cold.outcome_at(budget).unwrap(),
                "budget {budget}"
            );
        }
        // Extending backwards is a no-op.
        warm.extend_to(3, harmonic_objective(&[1.0, 5.0])).unwrap();
        assert_eq!(warm.max_budget(), 15);
    }

    #[test]
    fn separable_warm_start_extension_matches_cold_build() {
        let mut warm =
            DpTable::build_separable(&[2, 3, 4], 7, harmonic_term(&[1.0, 5.0, 2.0])).unwrap();
        warm.extend_to_separable(40, harmonic_term(&[1.0, 5.0, 2.0]))
            .unwrap();
        let cold =
            DpTable::build_separable(&[2, 3, 4], 40, harmonic_term(&[1.0, 5.0, 2.0])).unwrap();
        for budget in 0..=40u64 {
            let w = warm.outcome_at(budget).unwrap();
            let c = cold.outcome_at(budget).unwrap();
            assert_eq!(w.payments, c.payments, "budget {budget}");
            assert_eq!(w.objective.to_bits(), c.objective.to_bits());
            assert_eq!(w.extra_spent, c.extra_spent);
        }
        // Extending backwards is a no-op.
        warm.extend_to_separable(3, harmonic_term(&[1.0, 5.0, 2.0]))
            .unwrap();
        assert_eq!(warm.max_budget(), 40);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "different objective")]
    fn extend_to_rejects_a_different_objective_in_debug_builds() {
        let mut table = DpTable::build(&[1, 2], 5, harmonic_objective(&[1.0, 5.0])).unwrap();
        // A different objective silently corrupts warm-started levels, so
        // debug builds re-evaluate the base state and panic on mismatch.
        table
            .extend_to(10, harmonic_objective(&[2.0, 5.0]))
            .unwrap();
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "different objective")]
    fn extend_to_separable_rejects_a_different_objective_in_debug_builds() {
        let mut table = DpTable::build_separable(&[1, 2], 5, harmonic_term(&[1.0, 5.0])).unwrap();
        table
            .extend_to_separable(10, harmonic_term(&[1.0, 4.0]))
            .unwrap();
    }

    #[test]
    fn mixed_closure_and_separable_extension_agree() {
        // The contract allows mixing the two extension paths as long as they
        // compute the same objective.
        let mut mixed = DpTable::build_separable(&[1, 2], 5, harmonic_term(&[1.0, 5.0])).unwrap();
        mixed
            .extend_to(15, harmonic_objective(&[1.0, 5.0]))
            .unwrap();
        let cold = DpTable::build(&[1, 2], 15, harmonic_objective(&[1.0, 5.0])).unwrap();
        for budget in 0..=15u64 {
            assert_eq!(
                mixed.outcome_at(budget).unwrap(),
                cold.outcome_at(budget).unwrap(),
                "budget {budget}"
            );
        }
    }

    #[test]
    fn dp_propagates_objective_errors() {
        let result = marginal_budget_dp(&[1], 2, |p| {
            if p[0] > 1 {
                Err(CoreError::invalid_argument("boom".to_owned()))
            } else {
                Ok(1.0)
            }
        });
        assert!(result.is_err());
        let result = marginal_budget_dp_separable(&[1], 2, |_, p| {
            if p > 1 {
                Err(CoreError::invalid_argument("boom".to_owned()))
            } else {
                Ok(1.0)
            }
        });
        assert!(result.is_err());
    }

    /// Many groups with mixed unit costs: the closure path must stay
    /// bit-identical to the separable path (which is pinned to the
    /// reference), down to the objective bits.
    #[test]
    fn closure_scan_is_bit_identical_to_separable_with_many_groups() {
        let n = 40;
        let unit_costs: Vec<u64> = (0..n).map(|i| 1 + (i as u64 % 5)).collect();
        let coeffs: Vec<f64> = (0..n).map(|i| 0.3 + 0.7 * (i as f64)).collect();
        let budget = 120u64;
        let objective = |payments: &[u64]| -> Result<f64> {
            Ok(payments
                .iter()
                .zip(&coeffs)
                .map(|(&p, &c)| c / p as f64)
                .sum())
        };
        let closure = marginal_budget_dp(&unit_costs, budget, objective).unwrap();
        let separable =
            marginal_budget_dp_separable(&unit_costs, budget, |g, p| Ok(coeffs[g] / p as f64))
                .unwrap();
        assert_eq!(closure.payments, separable.payments);
        assert_eq!(closure.extra_spent, separable.extra_spent);
        // The closure path sums left-to-right exactly like the separable
        // path's re-anchoring, so even the objective bits agree.
        assert_eq!(closure.objective.to_bits(), separable.objective.to_bits());
    }

    /// The persistence surface: a snapshot round trip reproduces every
    /// outcome bit-for-bit, including after a warm-start extension of the
    /// rebuilt table.
    #[test]
    fn snapshot_round_trip_is_bit_exact_and_extendable() {
        let costs: &[u64] = &[2, 3, 5];
        let objective = harmonic_objective(&[4.0, 9.0, 1.5]);
        let table = DpTable::build(costs, 25, &objective).unwrap();
        let snapshot = table.snapshot();
        assert_eq!(snapshot.max_budget(), 25);
        assert_eq!(
            snapshot.base_objective_bits().unwrap(),
            table.outcome_at(0).unwrap().objective.to_bits()
        );
        // Serde round trip through the JSON shim preserves the image.
        let text = serde_json::to_string(&snapshot).unwrap();
        let parsed: DpTableSnapshot = serde_json::from_str(&text).unwrap();
        assert_eq!(parsed, snapshot);

        let mut restored = DpTable::from_snapshot(&parsed).unwrap();
        for budget in 0..=25u64 {
            let a = table.outcome_at(budget).unwrap();
            let b = restored.outcome_at(budget).unwrap();
            assert_eq!(a.payments, b.payments, "budget {budget}");
            assert_eq!(a.objective.to_bits(), b.objective.to_bits());
            assert_eq!(a.extra_spent, b.extra_spent);
        }
        // A restored table extends exactly like one that never left memory.
        restored.extend_to(60, &objective).unwrap();
        let cold = DpTable::build(costs, 60, &objective).unwrap();
        for budget in 0..=60u64 {
            assert_eq!(
                restored.outcome_at(budget).unwrap(),
                cold.outcome_at(budget).unwrap(),
                "budget {budget}"
            );
        }
    }

    /// Corrupt snapshots are rejected whole instead of rebuilding a table
    /// that would serve wrong plans.
    #[test]
    fn corrupt_snapshots_are_rejected() {
        let table = DpTable::build(&[2, 3], 12, harmonic_objective(&[4.0, 9.0])).unwrap();
        let good = table.snapshot();
        assert!(DpTable::from_snapshot(&good).is_ok());

        let mut no_costs = good.clone();
        no_costs.unit_costs.clear();
        assert!(DpTable::from_snapshot(&no_costs).is_err());

        let mut zero_cost = good.clone();
        zero_cost.unit_costs[0] = 0;
        assert!(DpTable::from_snapshot(&zero_cost).is_err());

        let mut no_levels = good.clone();
        no_levels.levels.clear();
        assert!(DpTable::from_snapshot(&no_levels).is_err());

        let mut bad_decision = good.clone();
        bad_decision.levels[5].0 = 7; // only groups 0 and 1 exist
        assert!(DpTable::from_snapshot(&bad_decision).is_err());

        let mut unaffordable = good.clone();
        unaffordable.levels[1].0 = 1; // group 1 costs 3 units at level 1
        assert!(DpTable::from_snapshot(&unaffordable).is_err());

        let mut broken_chain = good.clone();
        broken_chain.levels[6].2 = broken_chain.levels[6].2.wrapping_add(1);
        assert!(DpTable::from_snapshot(&broken_chain).is_err());

        let mut non_finite = good.clone();
        non_finite.levels[3].1 = f64::NAN.to_bits();
        assert!(DpTable::from_snapshot(&non_finite).is_err());
    }

    /// Candidates a scan over levels `from..=to` scores: one per level and
    /// group whose unit cost fits under the level.
    fn candidates(unit_costs: &[u64], from: u64, to: u64) -> u64 {
        unit_costs
            .iter()
            .map(|&u| (to + 1).saturating_sub(from.max(u)))
            .sum()
    }

    /// Asserts that one separable call over levels `from..=to` evaluated
    /// each `term(i, p)` at most once for `p ≥ 2` and at most `payment_one`
    /// times for `p = 1`, and that its evaluations stay two orders of
    /// magnitude below the candidates it scored.
    fn assert_scan_cost(
        counts: &HashMap<(usize, u64), u32>,
        payment_one: u32,
        unit_costs: &[u64],
        from: u64,
        to: u64,
    ) {
        for (&(group, payment), &calls) in counts {
            let bound = if payment == 1 { payment_one } else { 1 };
            assert!(
                calls <= bound,
                "term({group}, {payment}) evaluated {calls} times (at most {bound})"
            );
        }
        let evaluated: u64 = counts.values().map(|&calls| u64::from(calls)).sum();
        let scored = candidates(unit_costs, from, to);
        assert!(
            evaluated * 100 <= scored,
            "unit costs {unit_costs:?}: {evaluated} term calls for {scored} candidates"
        );
    }

    /// The separable scan scores every candidate from tabulated group terms:
    /// `term(i, p)` runs once per (group, payment ≥ 2) a call tabulates, and
    /// payment 1 runs for the base state, the seed and (debug builds) the
    /// base check. So the evaluations stay two orders of magnitude below the
    /// candidates scored, where the closure path evaluates its objective
    /// once per candidate. A count, not a timing: it reads no clock.
    #[test]
    fn separable_scan_evaluates_each_group_term_once() {
        use crate::algorithms::common::GroupLatencyCache;
        use crate::rate::LinearRate;
        use crate::task::TaskSet;
        use std::cell::{Cell, RefCell};

        let base_check = u32::from(cfg!(debug_assertions));
        let rate = LinearRate::unit_slope();
        // The paper's Figure 2 RA shape (unit costs 150 and 250) and 20
        // groups of one to twenty repetitions, as (repetitions, tasks).
        let fig2 = [(3, 50), (5, 50)];
        let wide: Vec<(u32, usize)> = (1..=20).map(|k| (k, 5)).collect();
        for (shape, extra_budget) in [(&fig2[..], 4600u64), (&wide[..], 5000)] {
            let mut set = TaskSet::new();
            let ty = set.add_type("vote", 2.0).unwrap();
            for &(repetitions, tasks) in shape {
                set.add_tasks(ty, repetitions, tasks).unwrap();
            }
            let groups = set.group_by_repetitions();
            let unit_costs: Vec<u64> = groups.iter().map(|g| g.unit_increment_cost()).collect();
            let cache = GroupLatencyCache::new(&rate, &groups);
            let counts = RefCell::new(HashMap::new());
            let term = |i: usize, p: u64| {
                *counts.borrow_mut().entry((i, p)).or_insert(0) += 1;
                cache.phase1(i, p)
            };
            let quarter = extra_budget / 4;

            // A cold build to B'/4, its warm-start extension to B', and a
            // cold build straight to B'.
            let mut table = DpTable::build_separable(&unit_costs, quarter, &term).unwrap();
            assert_scan_cost(&counts.take(), 2 + base_check, &unit_costs, 1, quarter);
            table.extend_to_separable(extra_budget, &term).unwrap();
            let (from, to) = (quarter + 1, extra_budget);
            assert_scan_cost(&counts.take(), 1 + base_check, &unit_costs, from, to);
            DpTable::build_separable(&unit_costs, extra_budget, &term).unwrap();
            assert_scan_cost(&counts.take(), 2 + base_check, &unit_costs, 1, extra_budget);

            // The closure path: one objective call per candidate, plus the
            // base state and the base check.
            let calls = Cell::new(0u64);
            DpTable::build(&unit_costs, extra_budget, |payments: &[u64]| {
                calls.set(calls.get() + 1);
                payments
                    .iter()
                    .enumerate()
                    .map(|(i, &p)| cache.phase1(i, p))
                    .sum()
            })
            .unwrap();
            let scored = candidates(&unit_costs, 1, extra_budget);
            assert_eq!(calls.get(), scored + 1 + u64::from(base_check));
        }
    }

    #[test]
    fn plateau_objectives_still_walk_the_flat_region() {
        // A completely flat objective: every increment is a plateau, so the
        // tie-break must keep spending rather than stall at the base plan.
        let closure = marginal_budget_dp(&[2, 3], 13, |_| Ok(1.0)).unwrap();
        let separable = marginal_budget_dp_separable(&[2, 3], 13, |_, _| Ok(0.5)).unwrap();
        assert_eq!(closure.payments, separable.payments);
        assert_eq!(closure.extra_spent, separable.extra_spent);
        assert!(closure.extra_spent >= 12, "flat plateau must be walked");
    }
}
