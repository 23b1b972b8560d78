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
//! `DpTable` and reads it two ways: [`PlanFamilies::serve`] reads one
//! budget's plan for a job, [`PlanFamilies::objective_frontier`] reads the
//! objective at every budget for the cross-market router. Both run one
//! protocol under the per-family lock: rehydrate the family if it is not
//! resident, check the job's group structure against the table,
//! canonicalise the job to the family's belief, then extend the table in
//! place (budget above its coverage) or seed it with a cold solve (no
//! family yet), and read. Served plans are **bit-identical to cold solves by
//! construction**: every table level is computed exactly once, from
//! deterministic per-group latency terms, regardless of the order budgets
//! arrive in — the serve property tests pin this across random problems,
//! budget ladders and concurrent extension order.
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
//! detected (`DpTable::unit_costs` mismatch) and leaves the family
//! untouched: `serve` cold-solves the job as submitted, and
//! `objective_frontier` fails.
//!
//! ## Eviction and durability
//!
//! Resident families are capped per shard with **LRU eviction**: every serve
//! refreshes the family's recency stamp and a new family past the cap
//! displaces the least recently used one, so service memory stays bounded
//! while hot families stay resident. With persistence enabled
//! ([`PlanFamilies::durable`]), every seed and extension snapshots the
//! family — `(fingerprint, rate spec, group shapes, DP levels)`, built from
//! the family's own state — into the write-behind [`PlanStore`] *and* into
//! an in-memory archive of compact records, so an evicted (or restart-lost)
//! family is **rehydrated** from its snapshot on the next miss instead of
//! paying a cold solve: [`DpTable::from_snapshot`] rebuilds the exact table
//! and every answer stays bit-identical. If the write path lost a record, a
//! planned shutdown re-records every resident family the same way
//! ([`PlanFamilies::flush_resident`]), whether or not its archive entry is
//! still there. Without persistence, eviction simply drops the family and
//! the next job re-seeds it.
//!
//! LRU trades the old policy's churn-immunity for bounded *and recoverable*
//! memory: a tenant streaming distinct rate curves can still displace other
//! tenants' resident families (capacity stays bounded — the only thing at
//! stake is re-seed/rehydrate work, never correctness), where the previous
//! refuse-to-seed policy instead starved *new* families forever once a
//! shard filled. Tenant-aware eviction (per-tenant shares, or protecting
//! most-extended tables) is the tracked ROADMAP follow-up.

use crate::fingerprint::FamilyFingerprint;
use crate::store::{FamilyRecord, LoadedFamily, PlanStore, WhenFull};
use crowdtune_core::algorithms::{DpTable, RepetitionAlgorithm};
use crowdtune_core::error::Result;
use crowdtune_core::problem::{HTuningProblem, TuningStrategy};
use crowdtune_core::rate::RateModel;
use crowdtune_core::tuner::TunedPlan;
use crowdtune_obs::{Counter, Registry};
use std::borrow::Cow;
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
/// [`PlanFamilies::serve`] for per-stage latency histograms.
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
    /// A cold solve: the first job of its family, which seeded the table
    /// (or a job whose key collides with a family of another group
    /// structure, solved without touching that family).
    Seeded,
}

/// One family's shared solver state, guarded by the entry mutex.
struct FamilyState {
    /// The market belief the family's table was built against (the creating
    /// job's); every answer is canonicalised to it.
    rate_model: Arc<dyn RateModel>,
    /// Per repetition group, in group order: `(member count, repetitions)`.
    /// The durable record carries these; the table's unit costs alone do
    /// not determine them (`u = n · k` has many factorisations).
    groups: Vec<(u64, u32)>,
    /// The budget-indexed DP table, grown monotonically as larger budgets
    /// arrive.
    table: DpTable,
}

impl FamilyState {
    /// The family's durable record, paired with its rate model for the
    /// archive; `None` when the model has no serializable spec. It only
    /// clones the compact table image, so it runs under the entry lock;
    /// the encoding happens in [`FamilyPersistence::snapshot`], after the
    /// lock drops.
    fn record(&self, key: u64) -> Option<(FamilyRecord, Arc<dyn RateModel>)> {
        let record = FamilyRecord {
            fingerprint: key,
            rate: self.rate_model.to_spec()?,
            groups: self.groups.clone(),
            table: self.table.snapshot(),
        };
        Some((record, self.rate_model.clone()))
    }
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
    fn snapshot(
        &self,
        (record, rate_model): (FamilyRecord, Arc<dyn RateModel>),
        when_full: WhenFull,
    ) {
        // Serialize onto the write-behind queue before taking the archive
        // lock — JSON encoding is the expensive part and must sit under no
        // lock at all. A stale-coverage write is harmless: the load path
        // picks max coverage per fingerprint.
        self.store.record_family(&record, when_full);
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
        Some(FamilyState {
            rate_model,
            groups: record.groups.clone(),
            table,
        })
    }
}

/// One shard of the resident-family map: entries plus their LRU recency
/// stamps, under a monotone tick.
#[derive(Default)]
struct Shard {
    entries: HashMap<u64, (Arc<FamilyEntry>, u64)>,
    tick: u64,
}

/// What one read of a family's table returns: the caller's read, how the
/// family answered, and the job as it was read (canonicalised to the
/// family's belief on a hit).
type FamilyRead<'p, T> = (T, FamilyServe, Cow<'p, HTuningProblem>);

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

    /// The protocol [`PlanFamilies::serve`] and
    /// [`PlanFamilies::objective_frontier`] share. Under the family's entry
    /// lock it rehydrates a family that is not resident from its persisted
    /// snapshot, checks the job's group structure against the table,
    /// canonicalises the job to the family's belief (see module docs), grows
    /// the table to the job's budget or seeds it with a cold solve, and runs
    /// `read` on it. A hit is counted only once `read` succeeds. Returns
    /// `None` in place of the read when the job's group structure differs
    /// from the table's (a key collision; the family is left untouched),
    /// and beside it the nanoseconds spent waiting for the entry lock. The
    /// record of a grown or seeded table is handed to the store after the
    /// lock drops, so same-family jobs never queue behind its encoding.
    fn read_family<'p, T>(
        &self,
        key: FamilyFingerprint,
        problem: &'p HTuningProblem,
        read: impl FnOnce(&HTuningProblem, &DpTable) -> Result<T>,
    ) -> Result<(Option<FamilyRead<'p, T>>, u64)> {
        let entry = self.entry(key);
        let lock_started = std::time::Instant::now();
        let mut slot = entry.state.lock().expect("family entry poisoned");
        let lock_wait_ns = lock_started.elapsed().as_nanos() as u64;
        if slot.is_none() {
            // Not resident: a persisted snapshot (evicted earlier, or loaded
            // at recovery) rebuilds the exact table instead of re-seeding.
            *slot = self.persistence.as_ref().and_then(|p| p.rehydrate(key.0));
            if slot.is_some() {
                self.reloads.inc();
            }
        }
        let capture =
            |state: &FamilyState| self.persistence.as_ref().and_then(|_| state.record(key.0));
        let mut record = None;
        let read = match slot.as_mut() {
            Some(state) => {
                let groups = problem.task_set().group_by_repetitions();
                if !groups
                    .iter()
                    .map(|group| group.unit_increment_cost())
                    .eq(state.table.unit_costs().iter().copied())
                {
                    return Ok((None, lock_wait_ns));
                }
                let problem = problem.with_rate_model(state.rate_model.clone());
                if problem.discretionary_budget() > state.table.max_budget() {
                    RepetitionAlgorithm::extend_table(&problem, &mut state.table)?;
                    self.extensions.inc();
                    record = capture(state);
                }
                let value = read(&problem, &state.table)?;
                self.hits.inc();
                (value, FamilyServe::Hit, Cow::Owned(problem))
            }
            None => {
                let state = FamilyState {
                    rate_model: problem.rate_model().clone(),
                    groups: problem
                        .task_set()
                        .group_by_repetitions()
                        .iter()
                        .map(|group| (group.size() as u64, group.repetitions))
                        .collect(),
                    table: RepetitionAlgorithm::build_table(problem)?,
                };
                let value = read(problem, &state.table)?;
                record = capture(&state);
                *slot = Some(state);
                self.builds.inc();
                (value, FamilyServe::Seeded, Cow::Borrowed(problem))
            }
        };
        drop(slot);
        if let (Some(persistence), Some(record)) = (&self.persistence, record) {
            persistence.snapshot(record, WhenFull::DropOldest);
        }
        Ok((Some(read), lock_wait_ns))
    }

    /// Answers an RA-resolved job from its family: a prefix read or in-place
    /// extension when the family is resident (or rehydratable from a
    /// persisted snapshot), a table-seeding cold solve otherwise, plus a
    /// wall-clock breakdown (entry-lock wait, estimate attach) for the
    /// service's per-stage telemetry. A job whose key collides with a
    /// family of another group structure is cold-solved as submitted and
    /// reported `Seeded`, leaving that family untouched. The caller is
    /// responsible for only routing jobs that resolve to the Repetition
    /// Algorithm here.
    pub fn serve(
        &self,
        key: FamilyFingerprint,
        problem: &HTuningProblem,
    ) -> Result<(TunedPlan, FamilyServe, FamilyTiming)> {
        let (read, lock_wait_ns) =
            self.read_family(key, problem, RepetitionAlgorithm::result_from_table)?;
        let (result, how, problem) = match read {
            Some(read) => read,
            None => (
                RepetitionAlgorithm::new().tune(problem)?,
                FamilyServe::Seeded,
                Cow::Borrowed(problem),
            ),
        };
        // Attaching the latency estimates — the dominant serve cost — runs
        // with no lock held, so same-family jobs serialise on the DP alone.
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
        let levels = |problem: &HTuningProblem, table: &DpTable| {
            (0..=problem.discretionary_budget())
                .map(|extra| table.objective_at(extra))
                .collect::<Result<Vec<f64>>>()
        };
        match self.read_family(key, problem, levels)?.0 {
            Some((frontier, how, _)) => Ok((frontier, how)),
            None => Err(crowdtune_core::CoreError::invalid_argument(
                "family fingerprint collision across group structures",
            )),
        }
    }

    /// Snapshots every resident family into the store, waiting for room on
    /// a full queue: the catch-up a planned shutdown runs once the write
    /// path has lost a record (a drop-oldest shed or a failed write). A
    /// no-op without persistence.
    pub fn flush_resident(&self) {
        let Some(persistence) = &self.persistence else {
            return;
        };
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
                let state = entry.state.lock().expect("family entry poisoned");
                let record = state.as_ref().and_then(|state| state.record(key));
                drop(state); // The encoding below runs with no lock held.
                if let Some(record) = record {
                    persistence.snapshot(record, WhenFull::Wait);
                }
            }
        }
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

    /// `ra_problem`'s 32 repetition slots split 8 + 24 instead of 12 + 20:
    /// another group structure, so other unit costs.
    fn other_groups_problem(budget: u64) -> HTuningProblem {
        let mut set = TaskSet::new();
        let ty = set.add_type("vote", 2.0).unwrap();
        set.add_tasks(ty, 2, 4).unwrap();
        set.add_tasks(ty, 6, 4).unwrap();
        HTuningProblem::new(
            set,
            Budget::units(budget),
            Arc::new(LinearRate::new(1.0, 1.0).unwrap()),
        )
        .unwrap()
    }

    fn key(problem: &HTuningProblem) -> FamilyFingerprint {
        FamilyFingerprint::of(problem, StrategyChoice::RepetitionAlgorithm)
    }

    /// A process-unique scratch directory (no tempfile crate offline).
    fn scratch_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "crowdtune-family-test-{}-{tag}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn first_job_seeds_then_budget_ladder_hits() {
        let families = PlanFamilies::new(4);
        let seed_problem = ra_problem(120, 1.0);
        let (_, how, _) = families.serve(key(&seed_problem), &seed_problem).unwrap();
        assert_eq!(how, FamilyServe::Seeded);

        // Lower budgets are prefix reads, higher budgets extend in place;
        // every answer matches a cold solve bit-for-bit.
        for budget in [60u64, 80, 120, 200, 400] {
            let problem = ra_problem(budget, 1.0);
            let (plan, how, _) = families.serve(key(&problem), &problem).unwrap();
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
        let (_, how, _) = families.serve(key(&b), &b).unwrap();
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
            let (plan, _, _) = families.serve(key(&at_budget), &at_budget).unwrap();
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

    /// A job whose key names a family of another group structure is
    /// cold-solved as submitted: RA's answer on the job, labelled `Seeded`,
    /// with no counter moved and the incumbent family still answering.
    #[test]
    fn serve_cold_solves_a_collision_across_group_structures() {
        let families = PlanFamilies::new(4);
        let incumbent = ra_problem(120, 1.0);
        families.serve(key(&incumbent), &incumbent).unwrap();
        let before = families.stats();

        let intruder = other_groups_problem(120);
        let (plan, how, _) = families.serve(key(&incumbent), &intruder).unwrap();
        assert_eq!(how, FamilyServe::Seeded);
        let cold = RepetitionAlgorithm::new().tune(&intruder).unwrap();
        assert_eq!(plan, TunedPlan::from_result(&intruder, cold).unwrap());
        assert_eq!(families.stats(), before);

        let (_, how, _) = families.serve(key(&incumbent), &incumbent).unwrap();
        assert_eq!(how, FamilyServe::Hit);
    }

    /// The router's read has no detached fallback: a frontier under a key
    /// whose table has another group structure fails, and no counter moves.
    #[test]
    fn objective_frontier_errs_on_a_collision_across_group_structures() {
        let families = PlanFamilies::new(4);
        let incumbent = ra_problem(120, 1.0);
        families.serve(key(&incumbent), &incumbent).unwrap();
        let before = families.stats();
        let intruder = other_groups_problem(120);
        assert!(families
            .objective_frontier(key(&incumbent), &intruder)
            .is_err());
        assert_eq!(families.stats(), before);
    }

    /// A durable family that is not resident (here: after a restart) is
    /// rehydrated by a frontier read: one reload, answered as a hit with the
    /// seeded frontier's bits, and no seed.
    #[test]
    fn objective_frontier_rehydrates_a_durable_family() {
        let dir = scratch_dir("frontier-reload");
        let problem = ra_problem(120, 1.0);
        let seeded = {
            let (store, _) = PlanStore::open(&dir).unwrap();
            let families = PlanFamilies::durable(4, store.clone(), Vec::new());
            let (frontier, how) = families
                .objective_frontier(key(&problem), &problem)
                .unwrap();
            assert_eq!(how, FamilyServe::Seeded);
            store.flush();
            frontier
        };
        let (store, snapshot) = PlanStore::open(&dir).unwrap();
        assert_eq!(snapshot.families.len(), 1);
        let families = PlanFamilies::durable(4, store, snapshot.families);
        let (frontier, how) = families
            .objective_frontier(key(&problem), &problem)
            .unwrap();
        assert_eq!(how, FamilyServe::Hit);
        let bits = |levels: &[f64]| levels.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&frontier), bits(&seeded));
        let stats = families.stats();
        assert_eq!((stats.reloads, stats.hits, stats.builds), (1, 1, 0));
        drop(families);
        std::fs::remove_dir_all(&dir).unwrap();
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
        let (_, how, _) = families.serve(key(&hot), &hot).unwrap();
        assert_eq!(how, FamilyServe::Hit);
        // A new family displaces the stalest filler, not the hot one.
        let newcomer = ra_problem(80, 1000.0);
        let (_, how, _) = families.serve(key(&newcomer), &newcomer).unwrap();
        assert_eq!(how, FamilyServe::Seeded);
        let stats = families.stats();
        assert_eq!(stats.families, MAX_FAMILIES_PER_SHARD as u64);
        assert_eq!(stats.evictions, 1);
        // The hot family is still resident: serving it again is a hit, not a
        // re-seed.
        let (_, how, _) = families.serve(key(&hot), &hot).unwrap();
        assert_eq!(how, FamilyServe::Hit);
        assert_eq!(families.stats().builds, MAX_FAMILIES_PER_SHARD as u64 + 1);
    }

    /// The shutdown flush records every resident family from its own state,
    /// including a hot family whose archive entry aged out: prefix reads
    /// keep it resident without re-recording it while a full archive's
    /// worth of other families is seeded.
    #[test]
    fn flush_records_every_resident_family() {
        let dir = scratch_dir("flush-resident");
        let (store, _) = PlanStore::open(&dir).unwrap();
        let families = PlanFamilies::durable(1, store.clone(), Vec::new());
        let hot = ra_problem(80, 1.0);
        families.objective_frontier(key(&hot), &hot).unwrap();
        // Fillers at the minimum budget seed one-level tables: cheap.
        let minimum = hot.minimum_budget();
        for i in 0..MAX_ARCHIVED_FAMILIES {
            let filler = ra_problem(minimum, 2.0 + i as f64);
            families.objective_frontier(key(&filler), &filler).unwrap();
            let (_, how) = families.objective_frontier(key(&hot), &hot).unwrap();
            assert_eq!(how, FamilyServe::Hit);
        }
        let stats = families.stats();
        assert_eq!(stats.families, MAX_FAMILIES_PER_SHARD as u64);
        assert_eq!(stats.extensions, 0, "the hot family was never re-recorded");
        let before = store.stats().enqueued;
        families.flush_resident();
        assert_eq!(store.stats().enqueued - before, stats.families);
        drop(families);
        drop(store);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
