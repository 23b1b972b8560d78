//! Shared helpers for the tuning algorithms: even spreading of units over
//! slots, conversion of per-group payments into full [`Allocation`]s and a
//! memoizing cache for expected group latencies whose tables are interned
//! **process-wide** — concurrent tuner workers and distinct jobs over the
//! same rate curve and group shape fill each `(group, payment)` entry at
//! most once ([`LatencyTableStore`]).

use crate::error::{CoreError, Result};
use crate::latency::group_phase1_expected;
use crate::money::{Allocation, Payment};
use crate::rate::RateModel;
use crate::task::{TaskGroup, TaskSet};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Cap on the per-repetition payments the shared latency tables are sized
/// for. Payments beyond the cap still work — the cache falls back to a
/// private lazy map — the cap only bounds each table's memory.
pub const MAX_TABLE_PAYMENT: u64 = 4096;

/// Distributes `total` indivisible units over `slots` slots as evenly as
/// possible: every slot gets `total / slots`, and the first `total % slots`
/// slots get one extra unit. Requires `total >= slots` so every slot receives
/// at least one unit.
pub fn spread_evenly(total: u64, slots: usize) -> Result<Vec<u64>> {
    if slots == 0 {
        return Err(CoreError::invalid_argument(
            "cannot spread a budget over zero slots".to_owned(),
        ));
    }
    let slots_u = slots as u64;
    if total < slots_u {
        return Err(CoreError::InsufficientBudget {
            provided: total,
            required: slots_u,
        });
    }
    let base = total / slots_u;
    let remainder = (total % slots_u) as usize;
    let mut out = vec![base; slots];
    for slot in out.iter_mut().take(remainder) {
        *slot += 1;
    }
    Ok(out)
}

/// Builds a full allocation from a per-group, per-repetition payment: every
/// repetition of every member task of group `i` receives
/// `per_repetition[i]` units. Tasks not covered by any group are rejected.
pub fn allocation_from_group_payments(
    task_set: &TaskSet,
    groups: &[TaskGroup],
    per_repetition: &[u64],
) -> Result<Allocation> {
    if groups.len() != per_repetition.len() {
        return Err(CoreError::invalid_argument(format!(
            "{} groups but {} payments",
            groups.len(),
            per_repetition.len()
        )));
    }
    // Map task id -> payment units per repetition.
    let mut per_task: Vec<Option<u64>> = vec![None; task_set.len()];
    for (group, &units) in groups.iter().zip(per_repetition) {
        if units == 0 {
            return Err(CoreError::invalid_argument(
                "per-repetition payment must be at least one unit".to_owned(),
            ));
        }
        for member in &group.members {
            let idx = member.0 as usize;
            if idx >= per_task.len() {
                return Err(CoreError::invalid_argument(format!(
                    "group references unknown task {member}"
                )));
            }
            per_task[idx] = Some(units);
        }
    }
    let mut allocation = Allocation::with_capacity(task_set.len());
    for (idx, task) in task_set.tasks().iter().enumerate() {
        let units = per_task[idx].ok_or_else(|| {
            CoreError::invalid_argument(format!("task {idx} is not covered by any group"))
        })?;
        allocation.push_task(vec![Payment::units(units); task.repetitions as usize]);
    }
    Ok(allocation)
}

/// Bound on the number of interned latency tables the process keeps alive at
/// once (≈32 KiB each). When the store is full, tables no longer referenced
/// by any live cache are dropped first; if every table is in use, new keys
/// are served un-interned (still correct, just not shared).
const MAX_INTERNED_TABLES: usize = 1024;

/// One shared marginal latency table: `E_i(p)` for payments
/// `0..=MAX_TABLE_PAYMENT` of one `(rate curve, group shape)` pair.
///
/// Entries are lock-free `AtomicU64`s holding the `f64` bit pattern; the
/// all-zero pattern (+0.0, impossible for a strictly positive expected
/// latency) marks "not yet computed". Fills are idempotent: the value is a
/// deterministic function of the key, so concurrent writers racing on the
/// same entry store identical bits and readers can never observe a torn or
/// divergent value.
#[derive(Debug)]
pub struct SharedLatencyTable {
    values: Box<[AtomicU64]>,
}

impl SharedLatencyTable {
    fn new() -> Self {
        SharedLatencyTable {
            values: (0..=MAX_TABLE_PAYMENT).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// The memoized value at `payment`, if already computed.
    fn get(&self, payment: u64) -> Option<f64> {
        let bits = self.values[payment as usize].load(Ordering::Relaxed);
        (bits != 0).then(|| f64::from_bits(bits))
    }

    fn store(&self, payment: u64, value: f64) {
        self.values[payment as usize].store(value.to_bits(), Ordering::Relaxed);
    }

    /// Number of entries already filled (used by tests and diagnostics).
    pub fn filled(&self) -> usize {
        self.values
            .iter()
            .filter(|v| v.load(Ordering::Relaxed) != 0)
            .count()
    }
}

/// Identity of a shared latency table: the rate curve (via
/// [`RateModel::curve_fingerprint`]) and the group shape. Two jobs with equal
/// keys compute bit-identical tables, so sharing is exact, not approximate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct TableKey {
    curve: u64,
    group_size: u64,
    repetitions: u32,
}

/// An interned table plus the generation stamp of its most recent lookup.
#[derive(Debug)]
struct InternedTable {
    table: Arc<SharedLatencyTable>,
    /// Value of the store's generation counter at the last `intern` of this
    /// key — the recency signal the eviction policy ages entries by.
    last_used: u64,
}

/// The interner's lock-guarded state: the table map plus a monotone
/// generation counter bumped on every lookup.
#[derive(Debug, Default)]
struct StoreInner {
    tables: HashMap<TableKey, InternedTable>,
    generation: u64,
}

/// Process-wide interner of [`SharedLatencyTable`]s.
///
/// The expected-latency integrations behind `E_i(p)` dominate cold solves;
/// they depend only on `(rate curve, group size, repetitions, payment)` — not
/// on the job, tenant or budget — so distinct jobs over the same curves used
/// to redo identical quadratures. The store hands every
/// [`GroupLatencyCache`] an `Arc` to the one table for its key, letting the
/// whole fleet fill each entry at most once.
///
/// Eviction at capacity is generation-stamped: every `intern` refreshes the
/// entry's stamp, and when room is needed the *stalest* currently
/// unreferenced table goes first. (A plain "drop everything unreferenced"
/// sweep would evict the hottest tables in the fleet — caches are transient
/// per solve, so between solves even a table hit thousands of times per
/// second holds no outside reference.) If every table is referenced, the new
/// key is served un-interned: correct, merely unshared.
#[derive(Debug, Default)]
pub struct LatencyTableStore {
    inner: Mutex<StoreInner>,
}

impl LatencyTableStore {
    /// The process-wide store.
    pub fn global() -> &'static LatencyTableStore {
        static STORE: OnceLock<LatencyTableStore> = OnceLock::new();
        STORE.get_or_init(LatencyTableStore::default)
    }

    /// Number of tables currently interned.
    pub fn len(&self) -> usize {
        self.inner
            .lock()
            .expect("latency store poisoned")
            .tables
            .len()
    }

    /// Whether the store holds no tables.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Returns the shared table for `key`, creating it on first use. See the
    /// type docs for the eviction policy.
    fn intern(&self, key: TableKey) -> Arc<SharedLatencyTable> {
        self.intern_with_cap(key, MAX_INTERNED_TABLES)
    }

    /// [`LatencyTableStore::intern`] with an explicit capacity, so tests can
    /// exercise the eviction policy on a small private store.
    fn intern_with_cap(&self, key: TableKey, cap: usize) -> Arc<SharedLatencyTable> {
        let mut inner = self.inner.lock().expect("latency store poisoned");
        inner.generation += 1;
        let generation = inner.generation;
        if let Some(entry) = inner.tables.get_mut(&key) {
            entry.last_used = generation;
            return entry.table.clone();
        }
        while inner.tables.len() >= cap {
            // Oldest-stamp-first among unreferenced entries: hot tables that
            // merely happen to be unreferenced right now carry fresh stamps
            // and survive ahead of stale ones.
            let victim = inner
                .tables
                .iter()
                .filter(|(_, entry)| Arc::strong_count(&entry.table) == 1)
                .min_by_key(|(_, entry)| entry.last_used)
                .map(|(key, _)| *key);
            match victim {
                Some(stalest) => {
                    inner.tables.remove(&stalest);
                }
                None => break, // everything is in use; serve un-interned
            }
        }
        let table = Arc::new(SharedLatencyTable::new());
        if inner.tables.len() < cap {
            inner.tables.insert(
                key,
                InternedTable {
                    table: table.clone(),
                    last_used: generation,
                },
            );
        }
        table
    }
}

/// Memoizing evaluator of expected phase-1 group latencies
/// `E_i(p) = E[max over n_i of Erlang(k_i, λo(p))]`.
///
/// The dynamic programs of Algorithms 2 and 3 evaluate the same
/// `(group, payment)` pairs many times; each evaluation involves numerical
/// integration, so memoization matters. The memo tables for payments up to
/// [`MAX_TABLE_PAYMENT`] live in the process-wide [`LatencyTableStore`], so
/// the integrations are also shared *across* jobs and worker threads;
/// payments beyond the cap fall back to a private lazy map. All methods take
/// `&self`, so objective closures can share one cache.
pub struct GroupLatencyCache<'a, M: RateModel + ?Sized> {
    rate_model: &'a M,
    groups: &'a [TaskGroup],
    /// Interned shared table per group (payments `0..=MAX_TABLE_PAYMENT`).
    tables: Vec<Arc<SharedLatencyTable>>,
    /// Private lazy spill for payments above the cap, one map per group.
    overflow: Vec<Mutex<HashMap<u64, f64>>>,
}

impl<'a, M: RateModel + ?Sized> GroupLatencyCache<'a, M> {
    /// Creates a cache for the given groups, attaching each group to the
    /// process-wide shared table for `(rate curve, group shape)`.
    pub fn new(rate_model: &'a M, groups: &'a [TaskGroup]) -> Self {
        let curve = rate_model.curve_fingerprint();
        let store = LatencyTableStore::global();
        let tables = groups
            .iter()
            .map(|group| {
                store.intern(TableKey {
                    curve,
                    group_size: group.size() as u64,
                    repetitions: group.repetitions,
                })
            })
            .collect();
        let overflow = groups.iter().map(|_| Mutex::new(HashMap::new())).collect();
        GroupLatencyCache {
            rate_model,
            groups,
            tables,
            overflow,
        }
    }

    /// The integration behind one table entry.
    fn compute(&self, group_index: usize, payment: u64) -> Result<f64> {
        let rate = self.rate_model.on_hold_rate(payment as f64);
        if !rate.is_finite() || rate <= 0.0 {
            return Err(CoreError::InvalidRate { payment, rate });
        }
        let group = &self.groups[group_index];
        group_phase1_expected(group.size() as u64, group.repetitions, rate)
    }

    /// Expected phase-1 latency of group `group_index` at per-repetition
    /// payment `payment` units.
    pub fn phase1(&self, group_index: usize, payment: u64) -> Result<f64> {
        if group_index >= self.groups.len() {
            return Err(CoreError::invalid_argument(format!(
                "group index {group_index} out of range"
            )));
        }
        if payment <= MAX_TABLE_PAYMENT {
            let table = &self.tables[group_index];
            if let Some(value) = table.get(payment) {
                return Ok(value);
            }
            let value = self.compute(group_index, payment)?;
            table.store(payment, value);
            return Ok(value);
        }
        // Above the cap: private lazy spill, never interned.
        let mut spill = self.overflow[group_index]
            .lock()
            .expect("latency overflow map poisoned");
        if let Some(&value) = spill.get(&payment) {
            return Ok(value);
        }
        let value = self.compute(group_index, payment)?;
        spill.insert(payment, value);
        Ok(value)
    }

    /// The groups this cache evaluates.
    pub fn groups(&self) -> &[TaskGroup] {
        self.groups
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rate::LinearRate;
    use crate::task::TaskSet;

    fn two_group_set() -> (TaskSet, Vec<TaskGroup>) {
        let mut set = TaskSet::new();
        let ty = set.add_type("vote", 2.0).unwrap();
        set.add_tasks(ty, 3, 2).unwrap();
        set.add_tasks(ty, 5, 3).unwrap();
        let groups = set.group_by_repetitions();
        (set, groups)
    }

    #[test]
    fn spread_evenly_divides_with_remainder() {
        assert_eq!(spread_evenly(10, 5).unwrap(), vec![2, 2, 2, 2, 2]);
        assert_eq!(spread_evenly(11, 5).unwrap(), vec![3, 2, 2, 2, 2]);
        assert_eq!(spread_evenly(14, 5).unwrap(), vec![3, 3, 3, 3, 2]);
        assert_eq!(spread_evenly(5, 5).unwrap(), vec![1; 5]);
    }

    #[test]
    fn spread_evenly_rejects_invalid_input() {
        assert!(spread_evenly(3, 0).is_err());
        assert!(matches!(
            spread_evenly(3, 5).unwrap_err(),
            CoreError::InsufficientBudget {
                provided: 3,
                required: 5
            }
        ));
    }

    #[test]
    fn spread_evenly_total_is_preserved() {
        for total in 7..40u64 {
            for slots in 1..=7usize {
                if total >= slots as u64 {
                    let spread = spread_evenly(total, slots).unwrap();
                    assert_eq!(spread.iter().sum::<u64>(), total);
                    let max = spread.iter().max().unwrap();
                    let min = spread.iter().min().unwrap();
                    assert!(max - min <= 1, "spread must be balanced");
                }
            }
        }
    }

    #[test]
    fn allocation_from_group_payments_builds_full_allocation() {
        let (set, groups) = two_group_set();
        let alloc = allocation_from_group_payments(&set, &groups, &[2, 4]).unwrap();
        assert_eq!(alloc.task_count(), 5);
        // 3-repetition group members get 2 units per repetition
        assert_eq!(alloc.task_total(0), Payment::units(6));
        assert_eq!(alloc.task_total(1), Payment::units(6));
        // 5-repetition group members get 4 units per repetition
        assert_eq!(alloc.task_total(2), Payment::units(20));
        assert_eq!(alloc.total_spent(), 2 * 6 + 3 * 20);
    }

    #[test]
    fn allocation_from_group_payments_validates() {
        let (set, groups) = two_group_set();
        assert!(allocation_from_group_payments(&set, &groups, &[2]).is_err());
        assert!(allocation_from_group_payments(&set, &groups, &[0, 2]).is_err());
        // groups that do not cover every task are rejected
        let partial = vec![groups[0].clone()];
        assert!(allocation_from_group_payments(&set, &partial, &[2]).is_err());
    }

    #[test]
    fn group_latency_cache_is_consistent_and_monotone() {
        let (_, groups) = two_group_set();
        let model = LinearRate::unit_slope();
        let cache = GroupLatencyCache::new(&model, &groups);
        let a1 = cache.phase1(0, 2).unwrap();
        let a2 = cache.phase1(0, 2).unwrap();
        assert_eq!(a1, a2, "memoized value must be identical");
        let cheap = cache.phase1(1, 1).unwrap();
        let rich = cache.phase1(1, 9).unwrap();
        assert!(rich < cheap, "higher payment must not increase latency");
        assert!(cache.phase1(5, 1).is_err());
        assert_eq!(cache.groups().len(), 2);
        // payments beyond the shared-table cap hit the lazy spill
        let beyond = cache.phase1(0, MAX_TABLE_PAYMENT + 50).unwrap();
        assert!(beyond > 0.0);
    }

    /// Two caches over the same curve and group shapes share one interned
    /// table: what the first computed, the second reads back bit-identically
    /// (and the underlying table object is literally the same allocation).
    #[test]
    fn interned_tables_are_shared_across_cache_instances() {
        let (_, groups) = two_group_set();
        // Distinct parameters so this test owns its interned tables.
        let model_a = LinearRate::new(1.25, 0.5).unwrap();
        let model_b = LinearRate::new(1.25, 0.5).unwrap();

        let first = GroupLatencyCache::new(&model_a, &groups);
        let mut expected = Vec::new();
        for payment in 1..=12u64 {
            expected.push(first.phase1(0, payment).unwrap());
        }
        let filled_before = first.tables[0].filled();
        assert!(filled_before >= 12);

        let second = GroupLatencyCache::new(&model_b, &groups);
        assert!(
            Arc::ptr_eq(&first.tables[0], &second.tables[0]),
            "equal curve + shape must intern to the same table"
        );
        for (i, payment) in (1..=12u64).enumerate() {
            let value = second.phase1(0, payment).unwrap();
            assert_eq!(value.to_bits(), expected[i].to_bits());
        }
        // Reading through the second cache computed nothing new.
        assert_eq!(second.tables[0].filled(), filled_before);

        // A different curve must not share tables.
        let other_model = LinearRate::new(1.25, 0.75).unwrap();
        let third = GroupLatencyCache::new(&other_model, &groups);
        assert!(!Arc::ptr_eq(&first.tables[0], &third.tables[0]));
    }

    /// Regression test for the aging-free eviction: the store used to drop
    /// *every* unreferenced table when full, so a table hit on every solve
    /// (but unreferenced between solves, as tables always are) was evicted
    /// ahead of ones untouched for ages. With generation stamps the stalest
    /// unreferenced entry goes first and recently-used tables survive.
    #[test]
    fn eviction_ages_out_stale_tables_before_hot_ones() {
        let store = LatencyTableStore::default();
        let key = |i: u64| TableKey {
            curve: i,
            group_size: 2,
            repetitions: 3,
        };
        let cap = 4;
        let weaks: Vec<_> = (0..4u64)
            .map(|i| Arc::downgrade(&store.intern_with_cap(key(i), cap)))
            .collect();
        // All four tables are now unreferenced (the caches dropped their
        // arcs); key 0 is the oldest, keys 1..3 progressively fresher.
        assert_eq!(store.len(), 4);
        // Touch key 0: it is now the most recently used despite being the
        // first interned.
        drop(store.intern_with_cap(key(0), cap));
        // A fifth key must displace key 1 (stalest stamp), not key 0.
        drop(store.intern_with_cap(key(4), cap));
        assert_eq!(store.len(), 4);
        assert!(
            weaks[0].upgrade().is_some(),
            "recently touched table must survive eviction"
        );
        assert!(
            weaks[1].upgrade().is_none(),
            "the stalest unreferenced table must be the victim"
        );
        assert!(weaks[2].upgrade().is_some());
        assert!(weaks[3].upgrade().is_some());
        // Referenced tables are never victims: with every entry held, a new
        // key is served un-interned.
        let held: Vec<_> = (0..4u64)
            .map(|i| store.intern_with_cap(key(10 + i), cap))
            .collect();
        assert_eq!(store.len(), 4, "held tables evicted the unreferenced ones");
        let overflow = store.intern_with_cap(key(99), cap);
        assert_eq!(store.len(), 4, "no room: overflow key stays un-interned");
        assert!(overflow.filled() == 0);
        drop(held);
    }

    /// Groups with identical shapes intern to the same table even within one
    /// cache; different shapes never do.
    #[test]
    fn table_identity_follows_group_shape() {
        let mut set = TaskSet::new();
        let ty = set.add_type("vote", 2.0).unwrap();
        set.add_tasks(ty, 3, 2).unwrap();
        set.add_tasks(ty, 5, 3).unwrap();
        let groups = set.group_by_repetitions();
        let mut twin_set = TaskSet::new();
        let ty = twin_set.add_type("other name", 1.0).unwrap();
        twin_set.add_tasks(ty, 3, 2).unwrap();
        let twin_groups = twin_set.group_by_repetitions();

        let model = LinearRate::new(0.9, 1.1).unwrap();
        let cache = GroupLatencyCache::new(&model, &groups);
        let twin = GroupLatencyCache::new(&model, &twin_groups);
        // Same (curve, size=2, reps=3) key → same table; the 5-rep group
        // keys differently.
        assert!(Arc::ptr_eq(&cache.tables[0], &twin.tables[0]));
        assert!(!Arc::ptr_eq(&cache.tables[1], &twin.tables[0]));
    }
}
