//! Plan families: cross-budget solve reuse for RA-resolved jobs.
//!
//! The budget-indexed marginal DP (Algorithms 2/3) is monotone in budget: a
//! [`DpTable`] built for discretionary budget `B'` answers every smaller
//! budget with an O(1) prefix read plus an `O(b)` decision-chain walk, and
//! grows to a larger budget in `O(ΔB')` via its warm-start extension. The
//! exact-match [`PlanCache`](crate::cache::PlanCache) cannot exploit this —
//! its key includes the budget — so two tenants submitting the same workload
//! at budgets 3000 and 5000 used to pay two full cold solves.
//!
//! A **family** is the set of jobs whose [`FamilyFingerprint`] agree: same
//! task shape, same rate curve, same resolved algorithm — everything but the
//! budget. [`PlanFamilies`] maps each family to one concurrently shared
//! `DpTable`; a job whose family is resident is answered by
//! `outcome_at(b)` (budget at or below the table's coverage) or by
//! extending the table in place under the per-family lock (budget above it).
//! Served plans are **bit-identical to cold solves by construction**: every
//! table level is computed exactly once, from deterministic per-group
//! latency terms, regardless of the order budgets arrive in — the serve
//! property tests pin this across random problems, budget ladders and
//! concurrent extension order.
//!
//! ## Scope: why only RA
//!
//! Cross-budget reuse requires the DP objective itself to be
//! budget-independent. RA's group-sum objective (and a forced RA on any
//! shape) qualifies. EA (Scenario I) is a closed form with no DP to reuse,
//! and HA's Closeness objective couples to the budget through the utopia
//! point `(O1*, O2*)`, so its final DP genuinely differs per budget — HA
//! jobs still benefit across budgets through the process-wide interned
//! latency tables in `crowdtune-core`, which this layer composes with.
//!
//! ## Consistency under fingerprint collisions
//!
//! Mirroring the exact-match cache, a family is served with the rate model
//! of the job that *created* it: equal fingerprints imply curves that agree
//! bit-exactly on the payment grid the tables cover, and in the (≈2⁻⁶⁴)
//! event of a true collision the incumbent wins, exactly like a colliding
//! `PlanFingerprint`. A collision that changes the *group structure* is
//! detected (`DpTable::unit_costs` mismatch) and the job falls back to a
//! cold solve without touching the family.
//!
//! ## Eviction and durability
//!
//! Resident families are capped per shard with **LRU eviction**: every serve
//! refreshes the family's recency stamp and a new family past the cap
//! displaces the least recently used one, so service memory stays bounded
//! while hot families stay resident. With persistence enabled
//! ([`PlanFamilies::durable`]), every seed and extension snapshots the
//! family — `(fingerprint, rate spec, group shapes, DP levels)` — into the
//! write-behind [`PlanStore`] *and* into an in-memory archive of compact
//! records, so an evicted (or restart-lost) family is **rehydrated** from
//! its snapshot on the next miss instead of paying a cold solve:
//! [`DpTable::from_snapshot`] rebuilds the exact table and every answer
//! stays bit-identical. Without persistence, eviction simply drops the
//! family and the next job re-seeds it (the pre-durability behavior).
//!
//! LRU trades the old policy's churn-immunity for bounded *and recoverable*
//! memory: a tenant streaming distinct rate curves can still displace other
//! tenants' resident families (capacity stays bounded — the only thing at
//! stake is re-seed/rehydrate work, never correctness), where the previous
//! refuse-to-seed policy instead starved *new* families forever once a
//! shard filled. Tenant-aware eviction (per-tenant shares, or protecting
//! most-extended tables) is the tracked ROADMAP follow-up.

use crate::fingerprint::FamilyFingerprint;
use crate::store::{FamilyRecord, LoadedFamily, PlanStore};
use crowdtune_core::algorithms::{DpTable, RepetitionAlgorithm};
use crowdtune_core::error::Result;
use crowdtune_core::problem::{HTuningProblem, TuningStrategy};
use crowdtune_core::rate::RateModel;
use crowdtune_core::tuner::TunedPlan;
use crowdtune_obs::{Counter, Registry};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Counters exposed by the family store. Monotone; read with
/// [`PlanFamilies::stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FamilyStats {
    /// Families currently resident.
    pub families: u64,
    /// Jobs answered from a resident family table.
    pub hits: u64,
    /// Of those hits, how many had to grow the table first (budget above the
    /// resident coverage); the rest were pure prefix reads.
    pub extensions: u64,
    /// Cold solves that seeded a new family.
    pub builds: u64,
    /// Families displaced by the per-shard LRU bound.
    pub evictions: u64,
    /// Families rehydrated from a persisted snapshot (after eviction or a
    /// restart) instead of re-seeding cold.
    pub reloads: u64,
}

/// Wall-clock breakdown of one family serve, reported by
/// [`PlanFamilies::serve_timed`] for per-stage latency histograms.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FamilyTiming {
    /// Nanoseconds blocked acquiring the per-family entry lock (contention
    /// with same-family jobs; distinct families never serialise here).
    pub lock_wait_ns: u64,
    /// Nanoseconds attaching the latency estimates after the table work.
    pub estimate_ns: u64,
}

/// How a family answered a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FamilyServe {
    /// The family was resident (or rehydrated from its snapshot); the job
    /// was answered from its table.
    Hit,
    /// First job of its family: a cold solve that seeded the table.
    Seeded,
}

/// One family's shared solver state, guarded by the entry mutex.
struct FamilyState {
    /// The market belief the family's table was built against (the creating
    /// job's); every answer is canonicalised to it.
    rate_model: Arc<dyn RateModel>,
    /// The budget-indexed DP table, grown monotonically as larger budgets
    /// arrive.
    table: DpTable,
}

/// `None` until the first solve for the family completes; a failed build
/// leaves it `None` so the next job retries.
struct FamilyEntry {
    state: Mutex<Option<FamilyState>>,
}

/// Cap on resident families per shard. Family keys are tenant-influenced
/// (task shapes, rate curves), so an unbounded map would let one tenant grow
/// service memory without limit; past the cap the least recently used family
/// is evicted (and, when persistence is enabled, remains rehydratable from
/// its compact snapshot).
const MAX_FAMILIES_PER_SHARD: usize = 128;

/// Cap on archived family snapshots (compact records, no payment ring).
/// Past the cap the stalest snapshot is dropped — it remains on disk, but
/// only a restart would see it again; log compaction is the ROADMAP
/// follow-up.
const MAX_ARCHIVED_FAMILIES: usize = 4096;

/// An archived family snapshot: the compact durable record plus the rebuilt
/// rate model, ready for rehydration. The record is `Arc`ed so rehydration
/// can take a handle out of the archive lock in O(1) and rebuild the table
/// with no lock held.
struct ArchivedFamily {
    record: Arc<FamilyRecord>,
    rate_model: Arc<dyn RateModel>,
    /// Generation stamp for oldest-first archive eviction; refreshed on
    /// snapshot *and* on rehydration, so a hot repeatedly-reloaded family
    /// ages like a hot repeatedly-extended one.
    stamp: u64,
}

/// The durability side of the family layer: the write-behind store sink and
/// the in-memory archive of compact snapshots.
struct FamilyPersistence {
    store: Arc<PlanStore>,
    archive: Mutex<HashMap<u64, ArchivedFamily>>,
    stamp: AtomicU64,
}

impl FamilyPersistence {
    /// Records a snapshot in the archive (recency-stamped, bounded) and
    /// queues it onto the write-behind store. Runs outside the per-family
    /// entry lock, so two racing extensions may arrive out of order — the
    /// archive keeps whichever snapshot covers the larger budget (the
    /// store's load path independently picks max coverage per fingerprint,
    /// so disk-side ordering never mattered).
    fn snapshot(&self, record: FamilyRecord, rate_model: Arc<dyn RateModel>, blocking: bool) {
        // Serialize onto the write-behind queue before taking the archive
        // lock — JSON encoding is the expensive part and must sit under no
        // lock at all. A stale-coverage write is harmless: the load path
        // picks max coverage per fingerprint. The flush path blocks on a
        // full queue (it must not shed working-set records); the serve path
        // never does.
        if blocking {
            self.store.record_family_blocking(&record);
        } else {
            self.store.record_family(&record);
        }
        let stamp = self.stamp.fetch_add(1, Ordering::Relaxed) + 1;
        let mut archive = self.archive.lock().expect("family archive poisoned");
        if let Some(existing) = archive.get_mut(&record.fingerprint) {
            existing.stamp = stamp;
            if existing.record.table.max_budget() >= record.table.max_budget() {
                // A larger snapshot already landed: keep it.
                return;
            }
        } else if archive.len() >= MAX_ARCHIVED_FAMILIES {
            if let Some(&stalest) = archive
                .iter()
                .min_by_key(|(_, entry)| entry.stamp)
                .map(|(key, _)| key)
            {
                archive.remove(&stalest);
            }
        }
        archive.insert(
            record.fingerprint,
            ArchivedFamily {
                record: Arc::new(record),
                rate_model,
                stamp,
            },
        );
    }

    /// Rebuilds a family's live state from its archived snapshot, if one
    /// exists and still rebuilds cleanly. The O(B') table reconstruction
    /// runs with **no lock held** — only an O(1) handle clone (plus the
    /// recency-stamp refresh) happens under the archive mutex, so
    /// concurrent rehydrations of distinct families never serialise.
    fn rehydrate(&self, key: u64) -> Option<FamilyState> {
        let (record, rate_model) = {
            let mut archive = self.archive.lock().expect("family archive poisoned");
            let entry = archive.get_mut(&key)?;
            entry.stamp = self.stamp.fetch_add(1, Ordering::Relaxed) + 1;
            (entry.record.clone(), entry.rate_model.clone())
        };
        let table = DpTable::from_snapshot(&record.table).ok()?;
        Some(FamilyState { rate_model, table })
    }
}

/// One shard of the resident-family map: entries plus their LRU recency
/// stamps, under a monotone tick.
#[derive(Default)]
struct Shard {
    entries: HashMap<u64, (Arc<FamilyEntry>, u64)>,
    tick: u64,
}

/// Sharded map from [`FamilyFingerprint`] to the family's shared
/// [`DpTable`]. Cheap to share: wrap in an `Arc`.
pub struct PlanFamilies {
    shards: Vec<Mutex<Shard>>,
    persistence: Option<FamilyPersistence>,
    // Obs-backed counters: the same cells the service registry renders.
    hits: Counter,
    extensions: Counter,
    builds: Counter,
    evictions: Counter,
    reloads: Counter,
}

impl PlanFamilies {
    /// Creates a family store with `shards` independently locked shards
    /// (rounded up to a power of two), each holding at most
    /// `MAX_FAMILIES_PER_SHARD` (128) families under LRU eviction. No
    /// persistence: evicted families re-seed cold.
    pub fn new(shards: usize) -> Self {
        Self::build(shards, None)
    }

    /// Creates a family store whose seeds and extensions are snapshotted
    /// into `store` (write-behind) and into the rehydration archive, with
    /// `preloaded` records (validated by the store's load path) seeding the
    /// archive so restart-lost families answer without cold solves.
    pub fn durable(shards: usize, store: Arc<PlanStore>, preloaded: Vec<LoadedFamily>) -> Self {
        let persistence = FamilyPersistence {
            store,
            archive: Mutex::new(HashMap::new()),
            stamp: AtomicU64::new(0),
        };
        {
            let mut archive = persistence.archive.lock().expect("family archive poisoned");
            for (stamp, loaded) in preloaded.into_iter().enumerate() {
                archive.insert(
                    loaded.record.fingerprint,
                    ArchivedFamily {
                        rate_model: loaded.rate_model,
                        record: Arc::new(loaded.record),
                        stamp: stamp as u64,
                    },
                );
            }
            persistence
                .stamp
                .store(archive.len() as u64, Ordering::Relaxed);
        }
        Self::build(shards, Some(persistence))
    }

    fn build(shards: usize, persistence: Option<FamilyPersistence>) -> Self {
        let shard_count = shards.max(1).next_power_of_two();
        PlanFamilies {
            shards: (0..shard_count)
                .map(|_| Mutex::new(Shard::default()))
                .collect(),
            persistence,
            hits: Counter::new(),
            extensions: Counter::new(),
            builds: Counter::new(),
            evictions: Counter::new(),
            reloads: Counter::new(),
        }
    }

    /// Number of families currently rehydratable from the archive (0 without
    /// persistence).
    pub fn archived(&self) -> usize {
        self.persistence
            .as_ref()
            .map(|p| p.archive.lock().expect("family archive poisoned").len())
            .unwrap_or(0)
    }

    /// Gets or creates the entry for a family, refreshing its LRU stamp. At
    /// capacity the least recently used entry of the shard is evicted to
    /// make room (a worker mid-serve on the victim keeps its `Arc` and
    /// finishes normally; the family is simply no longer resident
    /// afterwards). Only the map access holds the shard lock; solving
    /// happens under the entry's own mutex so distinct families never
    /// serialise on each other.
    fn entry(&self, key: FamilyFingerprint) -> Arc<FamilyEntry> {
        let index = (key.0 as usize) & (self.shards.len() - 1);
        let mut shard = self.shards[index].lock().expect("family shard poisoned");
        shard.tick += 1;
        let tick = shard.tick;
        if let Some((entry, last_used)) = shard.entries.get_mut(&key.0) {
            *last_used = tick;
            return entry.clone();
        }
        if shard.entries.len() >= MAX_FAMILIES_PER_SHARD {
            if let Some(&lru) = shard
                .entries
                .iter()
                .min_by_key(|(_, (_, last_used))| *last_used)
                .map(|(key, _)| key)
            {
                shard.entries.remove(&lru);
                self.evictions.inc();
            }
        }
        let entry = Arc::new(FamilyEntry {
            state: Mutex::new(None),
        });
        shard.entries.insert(key.0, (entry.clone(), tick));
        entry
    }

    /// Captures a family's current state as a persistable snapshot (`None`
    /// without persistence, or when the rate model has no serializable
    /// spec). Called under the entry lock — it only clones the compact
    /// table image; the expensive part (JSON encoding, archive/store
    /// hand-off) happens in [`PlanFamilies::commit_snapshot`] *after* the
    /// lock drops, so same-family jobs never queue behind serialization.
    fn capture_snapshot(
        &self,
        key: FamilyFingerprint,
        state: &FamilyState,
        problem: &HTuningProblem,
    ) -> Option<(FamilyRecord, Arc<dyn RateModel>)> {
        self.persistence.as_ref()?;
        let rate = state.rate_model.to_spec()?;
        let groups = problem
            .task_set()
            .group_by_repetitions()
            .iter()
            .map(|group| (group.size() as u64, group.repetitions))
            .collect();
        Some((
            FamilyRecord {
                fingerprint: key.0,
                rate,
                groups,
                table: state.table.snapshot(),
            },
            state.rate_model.clone(),
        ))
    }

    /// Second half of [`PlanFamilies::capture_snapshot`]: runs outside the
    /// entry lock.
    fn commit_snapshot(&self, captured: Option<(FamilyRecord, Arc<dyn RateModel>)>) {
        if let (Some(persistence), Some((record, rate_model))) = (&self.persistence, captured) {
            persistence.snapshot(record, rate_model, false);
        }
    }

    /// Answers an RA-resolved job from its family: a prefix read or in-place
    /// extension when the family is resident (or rehydratable from a
    /// persisted snapshot), a table-seeding cold solve otherwise. The caller
    /// is responsible for only routing jobs that resolve to the Repetition
    /// Algorithm here.
    pub fn serve(
        &self,
        key: FamilyFingerprint,
        problem: &HTuningProblem,
    ) -> Result<(TunedPlan, FamilyServe)> {
        self.serve_timed(key, problem)
            .map(|(plan, how, _)| (plan, how))
    }

    /// [`PlanFamilies::serve`] plus a wall-clock breakdown (entry-lock wait,
    /// estimate attach) for the service's per-stage telemetry.
    pub fn serve_timed(
        &self,
        key: FamilyFingerprint,
        problem: &HTuningProblem,
    ) -> Result<(TunedPlan, FamilyServe, FamilyTiming)> {
        let entry = self.entry(key);
        // The entry lock covers only the table work (read/extension/seed);
        // attaching the latency estimates — the dominant serve cost — runs
        // after it drops, so same-family jobs serialise on the DP alone.
        let lock_started = std::time::Instant::now();
        let mut slot = entry.state.lock().expect("family entry poisoned");
        let lock_wait_ns = lock_started.elapsed().as_nanos() as u64;
        if slot.is_none() {
            // Not resident: a persisted snapshot (evicted earlier, or loaded
            // at recovery) rebuilds the exact table instead of re-seeding.
            if let Some(persistence) = &self.persistence {
                if let Some(state) = persistence.rehydrate(key.0) {
                    *slot = Some(state);
                    self.reloads.inc();
                }
            }
        }
        let mut captured = None;
        let (problem, result, how) = match slot.as_mut() {
            Some(state) => {
                // A 64-bit key collision across *group structures* is
                // detectable: bail to a cold solve of the job as submitted,
                // leaving the incumbent family untouched.
                let same_shape = {
                    let groups = problem.task_set().group_by_repetitions();
                    groups.len() == state.table.unit_costs().len()
                        && groups.iter().map(|g| g.unit_increment_cost()).eq(state
                            .table
                            .unit_costs()
                            .iter()
                            .copied())
                };
                if !same_shape {
                    drop(slot);
                    let result = RepetitionAlgorithm::new().tune(problem)?;
                    let (plan, estimate_ns) = TunedPlan::from_result_timed(problem, result)?;
                    return Ok((
                        plan,
                        FamilyServe::Seeded,
                        FamilyTiming {
                            lock_wait_ns,
                            estimate_ns,
                        },
                    ));
                }
                // Canonicalise to the family's belief (see module docs).
                let problem = problem.with_rate_model(state.rate_model.clone());
                if problem.discretionary_budget() > state.table.max_budget() {
                    RepetitionAlgorithm::extend_table(&problem, &mut state.table)?;
                    self.extensions.inc();
                    captured = self.capture_snapshot(key, state, &problem);
                }
                let result = RepetitionAlgorithm::result_from_table(&problem, &state.table)?;
                self.hits.inc();
                (problem, result, FamilyServe::Hit)
            }
            None => {
                let (result, table) = RepetitionAlgorithm::new().tune_with_table(problem)?;
                let state = FamilyState {
                    rate_model: problem.rate_model().clone(),
                    table,
                };
                captured = self.capture_snapshot(key, &state, problem);
                *slot = Some(state);
                self.builds.inc();
                (problem.clone(), result, FamilyServe::Seeded)
            }
        };
        drop(slot);
        self.commit_snapshot(captured);
        let (plan, estimate_ns) = TunedPlan::from_result_timed(&problem, result)?;
        Ok((
            plan,
            how,
            FamilyTiming {
                lock_wait_ns,
                estimate_ns,
            },
        ))
    }

    /// Reads the family's **objective frontier** for a problem: the DP
    /// objective at every discretionary budget `0..=B'`, in order. This is
    /// the primitive the cross-market router consumes — element `x` answers
    /// "what objective does this workload reach on this market with `x`
    /// extra units" — and on a resident (or rehydratable) family it costs
    /// `B'+1` O(1) level reads, no payment reconstruction and no latency
    /// estimation. A cold family is seeded exactly as a served job would
    /// seed it (the table is kept, so the subsequent real serve is a hit).
    ///
    /// Fails (instead of falling back to a detached solve) when a key
    /// collision across group structures is detected; callers treat a failed
    /// frontier as "this market can't quote" and fall back to single-market
    /// tuning.
    pub fn objective_frontier(
        &self,
        key: FamilyFingerprint,
        problem: &HTuningProblem,
    ) -> Result<(Vec<f64>, FamilyServe)> {
        let entry = self.entry(key);
        let mut slot = entry.state.lock().expect("family entry poisoned");
        if slot.is_none() {
            if let Some(persistence) = &self.persistence {
                if let Some(state) = persistence.rehydrate(key.0) {
                    *slot = Some(state);
                    self.reloads.inc();
                }
            }
        }
        let mut captured = None;
        let (frontier, how) = match slot.as_mut() {
            Some(state) => {
                let same_shape = {
                    let groups = problem.task_set().group_by_repetitions();
                    groups.len() == state.table.unit_costs().len()
                        && groups.iter().map(|g| g.unit_increment_cost()).eq(state
                            .table
                            .unit_costs()
                            .iter()
                            .copied())
                };
                if !same_shape {
                    return Err(crowdtune_core::CoreError::invalid_argument(
                        "family fingerprint collision across group structures",
                    ));
                }
                let problem = problem.with_rate_model(state.rate_model.clone());
                if problem.discretionary_budget() > state.table.max_budget() {
                    RepetitionAlgorithm::extend_table(&problem, &mut state.table)?;
                    self.extensions.inc();
                    captured = self.capture_snapshot(key, state, &problem);
                }
                let frontier = read_frontier(&state.table, problem.discretionary_budget())?;
                self.hits.inc();
                (frontier, FamilyServe::Hit)
            }
            None => {
                let (_, table) = RepetitionAlgorithm::new().tune_with_table(problem)?;
                let state = FamilyState {
                    rate_model: problem.rate_model().clone(),
                    table,
                };
                captured = self.capture_snapshot(key, &state, problem);
                let frontier = read_frontier(&state.table, problem.discretionary_budget())?;
                *slot = Some(state);
                self.builds.inc();
                (frontier, FamilyServe::Seeded)
            }
        };
        drop(slot);
        self.commit_snapshot(captured);
        Ok((frontier, how))
    }

    /// Snapshots every resident family into the store (catch-up for records
    /// the bounded write-behind queue may have dropped under load). Called
    /// by planned shutdowns; a no-op without persistence.
    pub fn flush_resident(&self) {
        if self.persistence.is_none() {
            return;
        }
        for shard in &self.shards {
            let entries: Vec<(u64, Arc<FamilyEntry>)> = {
                let shard = shard.lock().expect("family shard poisoned");
                shard
                    .entries
                    .iter()
                    .map(|(&key, (entry, _))| (key, entry.clone()))
                    .collect()
            };
            for (key, entry) in entries {
                let slot = entry.state.lock().expect("family entry poisoned");
                if let Some(state) = slot.as_ref() {
                    self.persist_raw(key, state);
                }
            }
        }
    }

    /// [`PlanFamilies::capture_snapshot`] without a problem at hand:
    /// derives the group shapes from the table's unit costs and the
    /// archived record (used by the flush path, where no job is being
    /// served).
    fn persist_raw(&self, key: u64, state: &FamilyState) {
        let Some(persistence) = &self.persistence else {
            return;
        };
        let Some(rate) = state.rate_model.to_spec() else {
            return;
        };
        // Group shapes are not recoverable from unit costs alone
        // (`u = n · k` has many factorisations); reuse the shapes from the
        // archived snapshot of the same family, which every persisted family
        // has (persist runs on seed and on every extension).
        let archive = persistence.archive.lock().expect("family archive poisoned");
        let Some(archived) = archive.get(&key) else {
            return;
        };
        let groups = archived.record.groups.clone();
        drop(archive);
        let record = FamilyRecord {
            fingerprint: key,
            rate,
            groups,
            table: state.table.snapshot(),
        };
        persistence.snapshot(record, state.rate_model.clone(), true);
    }

    /// Current counters.
    pub fn stats(&self) -> FamilyStats {
        let families = self
            .shards
            .iter()
            .map(|s| s.lock().expect("family shard poisoned").entries.len() as u64)
            .sum();
        FamilyStats {
            families,
            hits: self.hits.get(),
            extensions: self.extensions.get(),
            builds: self.builds.get(),
            evictions: self.evictions.get(),
            reloads: self.reloads.get(),
        }
    }

    /// Registers the family layer's counters into `registry` under the
    /// `crowdtune_family_*` names, backed by the same cells
    /// [`PlanFamilies::stats`] reads.
    pub fn register_metrics(&self, registry: &Registry) {
        registry.register_counter(
            "crowdtune_family_hits_total",
            "Jobs answered from a resident plan-family table.",
            &[],
            self.hits.clone(),
        );
        registry.register_counter(
            "crowdtune_family_extensions_total",
            "Family hits that first grew the table to a larger budget.",
            &[],
            self.extensions.clone(),
        );
        registry.register_counter(
            "crowdtune_family_builds_total",
            "Cold solves that seeded a new plan family.",
            &[],
            self.builds.clone(),
        );
        registry.register_counter(
            "crowdtune_family_evictions_total",
            "Families displaced by the per-shard LRU bound.",
            &[],
            self.evictions.clone(),
        );
        registry.register_counter(
            "crowdtune_family_reloads_total",
            "Families rehydrated from a persisted snapshot.",
            &[],
            self.reloads.clone(),
        );
    }
}

/// Reads levels `0..=extra` of a table's objective column.
fn read_frontier(table: &DpTable, extra: u64) -> Result<Vec<f64>> {
    (0..=extra).map(|x| table.objective_at(x)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crowdtune_core::money::Budget;
    use crowdtune_core::rate::LinearRate;
    use crowdtune_core::task::TaskSet;
    use crowdtune_core::tuner::{StrategyChoice, Tuner};

    fn ra_problem(budget: u64, slope: f64) -> HTuningProblem {
        let mut set = TaskSet::new();
        let ty = set.add_type("vote", 2.0).unwrap();
        set.add_tasks(ty, 3, 4).unwrap();
        set.add_tasks(ty, 5, 4).unwrap();
        HTuningProblem::new(
            set,
            Budget::units(budget),
            Arc::new(LinearRate::new(slope, 1.0).unwrap()),
        )
        .unwrap()
    }

    fn key(problem: &HTuningProblem) -> FamilyFingerprint {
        FamilyFingerprint::of(problem, StrategyChoice::RepetitionAlgorithm)
    }

    #[test]
    fn first_job_seeds_then_budget_ladder_hits() {
        let families = PlanFamilies::new(4);
        let seed_problem = ra_problem(120, 1.0);
        let (_, how) = families.serve(key(&seed_problem), &seed_problem).unwrap();
        assert_eq!(how, FamilyServe::Seeded);

        // Lower budgets are prefix reads, higher budgets extend in place;
        // every answer matches a cold solve bit-for-bit.
        for budget in [60u64, 80, 120, 200, 400] {
            let problem = ra_problem(budget, 1.0);
            let (plan, how) = families.serve(key(&problem), &problem).unwrap();
            assert_eq!(how, FamilyServe::Hit, "budget {budget}");
            let cold = Tuner::new(problem.rate_model().clone())
                .with_strategy(StrategyChoice::RepetitionAlgorithm)
                .plan(problem.task_set().clone(), problem.budget())
                .unwrap();
            assert_eq!(plan.result.allocation, cold.result.allocation);
            assert_eq!(
                plan.result.objective.unwrap().to_bits(),
                cold.result.objective.unwrap().to_bits()
            );
            assert_eq!(
                plan.expected_latency.to_bits(),
                cold.expected_latency.to_bits()
            );
        }
        let stats = families.stats();
        assert_eq!(stats.builds, 1);
        assert_eq!(stats.hits, 5);
        assert_eq!(stats.extensions, 2, "budgets 200 and 400 grow the table");
        assert_eq!(stats.families, 1);
        assert_eq!(stats.evictions, 0);
        assert_eq!(stats.reloads, 0);
    }

    #[test]
    fn distinct_curves_get_distinct_families() {
        let families = PlanFamilies::new(4);
        let a = ra_problem(100, 1.0);
        let b = ra_problem(100, 2.0);
        assert_ne!(key(&a), key(&b));
        families.serve(key(&a), &a).unwrap();
        let (_, how) = families.serve(key(&b), &b).unwrap();
        assert_eq!(how, FamilyServe::Seeded);
        assert_eq!(families.stats().families, 2);
    }

    /// The objective frontier must agree, level by level, with full serves
    /// at every discretionary budget — and its first read seeds the family
    /// so the later real serve is a hit.
    #[test]
    fn objective_frontier_matches_per_budget_serves() {
        let families = PlanFamilies::new(4);
        let problem = ra_problem(120, 1.0);
        let (frontier, how) = families
            .objective_frontier(key(&problem), &problem)
            .unwrap();
        assert_eq!(how, FamilyServe::Seeded);
        assert_eq!(frontier.len() as u64, problem.discretionary_budget() + 1);
        let minimum = problem.minimum_budget();
        for (extra, objective) in frontier.iter().enumerate() {
            let at_budget = ra_problem(minimum + extra as u64, 1.0);
            let (plan, _) = families.serve(key(&at_budget), &at_budget).unwrap();
            assert_eq!(
                objective.to_bits(),
                plan.result.objective.unwrap().to_bits(),
                "extra {extra}"
            );
        }
        // The frontier seeded the family: the serves above were all hits.
        assert_eq!(families.stats().builds, 1);
        // A warm frontier is a pure prefix read.
        let (_, how) = families
            .objective_frontier(key(&problem), &problem)
            .unwrap();
        assert_eq!(how, FamilyServe::Hit);
    }

    /// LRU eviction at the per-shard cap: a stream of one-shot families
    /// displaces the stalest resident, while a family touched throughout
    /// stays resident. One shard makes the arithmetic deterministic.
    #[test]
    fn lru_evicts_the_stalest_family_at_the_cap() {
        let families = PlanFamilies::new(1);
        // Seed the hot family and the cap-1 fillers.
        let hot = ra_problem(80, 1.0);
        families.serve(key(&hot), &hot).unwrap();
        for i in 0..(MAX_FAMILIES_PER_SHARD - 1) as u64 {
            let p = ra_problem(80, 2.0 + i as f64);
            families.serve(key(&p), &p).unwrap();
        }
        assert_eq!(
            families.stats().families,
            MAX_FAMILIES_PER_SHARD as u64,
            "at capacity"
        );
        assert_eq!(families.stats().evictions, 0);
        // Touch the hot family so it is no longer the LRU.
        let (_, how) = families.serve(key(&hot), &hot).unwrap();
        assert_eq!(how, FamilyServe::Hit);
        // A new family displaces the stalest filler, not the hot one.
        let newcomer = ra_problem(80, 1000.0);
        let (_, how) = families.serve(key(&newcomer), &newcomer).unwrap();
        assert_eq!(how, FamilyServe::Seeded);
        let stats = families.stats();
        assert_eq!(stats.families, MAX_FAMILIES_PER_SHARD as u64);
        assert_eq!(stats.evictions, 1);
        // The hot family is still resident: serving it again is a hit, not a
        // re-seed.
        let (_, how) = families.serve(key(&hot), &hot).unwrap();
        assert_eq!(how, FamilyServe::Hit);
        assert_eq!(families.stats().builds, MAX_FAMILIES_PER_SHARD as u64 + 1);
    }
}
