//! Durable plan store: write-behind persistence for the serving layer.
//!
//! The tuning algorithms are deterministic given a fingerprinted workload,
//! which makes solved state durable by nature: a
//! [`DpTableSnapshot`] is a compact, budget-agnostic artifact that can answer
//! whole budget ladders after a restart without a single latency
//! integration. This module persists three append-only record streams under
//! one directory:
//!
//! | file           | stream  | record                                        |
//! |----------------|---------|-----------------------------------------------|
//! | `plans.log`    | plans   | [`PlanRecord`] — exact-match cache snapshots  |
//! | `families.log` | families| [`FamilyRecord`] — family DP-table snapshots  |
//! | `journal.log`  | journal | [`JournalRecord`] — submit/complete journal   |
//!
//! ## Write-behind semantics
//!
//! Recording is fire-and-forget: the producer calls
//! ([`PlanStore::record_plan`], [`PlanStore::record_family`],
//! [`PlanStore::record_journal`]) serialize their record and enqueue it onto
//! one bounded in-memory queue, and a single background writer thread
//! appends the records to disk in order. On a full queue a serve-path record
//! ([`WhenFull::DropOldest`]) evicts the **oldest** pending record (counted
//! in [`StoreStats::dropped`]) rather than stalling the serve path — losing
//! a persistence record only costs a cold solve after the next restart,
//! never a wrong plan — while a flush-path record ([`WhenFull::Wait`]) waits
//! for room. A plan record may carry a [`RetireHook`], which the writer calls
//! once the record is written or has exhausted its retries: the service
//! times its write-behind lag and traces the persist stage through it.
//! [`PlanStore::flush`] drains the queue for planned shutdowns and tests.
//!
//! ## On-disk format and corruption handling
//!
//! Every file starts with a one-line header (`crowdtune-store v1 <stream>`);
//! a header from a different version marks the whole file unreadable — it is
//! **sidelined** to `<stream>.log.unreadable` (not destroyed: after a binary
//! rollback those bytes may be a newer format) and the stream starts cold
//! ([`LoadReport::corrupt_streams`]). Each
//! record is one line, `<fnv1a-64 hex of payload>\t<payload json>`. Replay
//! stops at the first line whose checksum or JSON fails — a truncated or
//! bit-flipped tail drops the suffix ([`LoadReport::corrupt_tails`]) and the
//! file is truncated back to the last good byte before appending resumes.
//! Family records additionally re-validate semantically on load (rate-model
//! rebuild, unit-cost/group-shape consistency, DP-chain integrity via
//! [`DpTable::from_snapshot`], and the base-state objective check — the
//! persisted form of the `DpTable::extend_to` debug assertion); failures
//! drop the record ([`LoadReport::invalid_records`]). Plan records carry the
//! [`ESTIMATOR_VERSION`] that computed their latency estimates; one from
//! another version (or written before plans carried one) is dropped the same
//! way, so a restarted service never serves an old rule's estimate beside
//! its own cold solves. Every degradation path ends in a cold solve, never
//! in serving a wrong plan.
//!
//! ## Open-time rewrites
//!
//! Two streams are rewritten at open when they hold records that can never
//! matter again: the journal's matched `Submitted`/`Completed` pairs, and
//! plan records of an older estimator version (or none), which would
//! otherwise be decoded and counted invalid at every open. A plan record of
//! a newer version, or one that fails to decode for another reason, stays
//! on disk. Both rewrites go through one temp file + fsync + rename path,
//! and an open that finds nothing to drop writes nothing.

use crowdtune_core::algorithms::{DpTable, DpTableSnapshot};
use crowdtune_core::hash::Fnv1a;
use crowdtune_core::latency::{group_phase1_expected, ESTIMATOR_VERSION};
use crowdtune_core::market::MarketId;
use crowdtune_core::rate::{RateModel, RateSpec};
use crowdtune_core::task::TaskSet;
use crowdtune_core::tuner::{StrategyChoice, TunedPlan};
use crowdtune_obs::{Counter, Registry};
use serde::{Deserialize, Serialize};
use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet, VecDeque};
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// Store format magic + version, the first token of every stream header. A
/// mismatch (future format, corrupted header) marks the file unreadable and
/// recovery starts that stream cold.
const STORE_HEADER: &str = "crowdtune-store v1";

/// A persisted exact-match cache entry: the canonical
/// [`PlanFingerprint`](crate::fingerprint::PlanFingerprint) and the tuned
/// plan served under it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlanRecord {
    /// The plan's canonical fingerprint (`PlanFingerprint.0`).
    pub fingerprint: u64,
    /// The [`ESTIMATOR_VERSION`] whose rule computed the plan's latency
    /// estimates. A load keeps only records of this binary's version;
    /// the others (and records without the field) count as invalid and
    /// their jobs re-solve to the same allocation.
    pub estimator: u32,
    /// The served plan, bit-exact through the JSON round trip (integer
    /// payments verbatim; finite `f64`s via shortest-round-trip decimals).
    /// The cache's own `Arc`: recording a plan copies none, and an `Arc`
    /// encodes as its contents.
    pub plan: Arc<TunedPlan>,
}

/// A persisted plan family: everything needed to re-serve the family's whole
/// budget ladder after a restart without a single latency integration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FamilyRecord {
    /// The family's budget-agnostic fingerprint
    /// ([`FamilyFingerprint`](crate::fingerprint::FamilyFingerprint)`.0`).
    pub fingerprint: u64,
    /// The market belief the family's table was built against (the creating
    /// job's model). Round-trips bit-exactly, so the reloaded family
    /// canonicalises jobs to the very same curve.
    pub rate: RateSpec,
    /// Per repetition group, in group order: `(member count, repetitions)`.
    /// Redundant with the table's unit costs (`u_i = n_i · k_i`) — the load
    /// path cross-checks the two and recomputes the base-state objective
    /// from these shapes.
    pub groups: Vec<(u64, u32)>,
    /// The budget-indexed DP table.
    pub table: DpTableSnapshot,
}

/// One entry of the crash-recovery job journal.
///
/// `Deserialize` is hand-written (versioned decode): journals written before
/// markets existed carry no `market` field on `Submitted` records, and those
/// records must recover cleanly onto [`MarketId::DEFAULT`] — not count as
/// invalid; journals written before fault tolerance carry no `attempts`
/// field (⇒ 0) and no `Failed` variant. Every field added to this format
/// later must follow the same absent-tolerant pattern.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub enum JournalRecord {
    /// A job was accepted into the queue. Exact cache hits, answered at
    /// submit, are never journaled. Jobs whose rate model has no
    /// [`RateSpec`] of its own are journaled with a sampled tabulated
    /// fallback (see the service's submit path).
    Submitted {
        /// Service-assigned job id (unique across restarts — recovery
        /// resumes the id counter past the largest journaled id).
        job_id: u64,
        /// Submitting tenant.
        tenant: String,
        /// The market the job is tuned against. Absent in pre-market
        /// journals ⇒ decodes to the default market.
        market: MarketId,
        /// The job's task set.
        task_set: TaskSet,
        /// Total budget in units.
        budget: u64,
        /// The tenant's market belief.
        rate: RateSpec,
        /// Strategy override.
        strategy: StrategyChoice,
        /// How many times recovery has already replayed this job (0 on first
        /// submit; recovery re-journals with a bumped count before each
        /// replay and quarantines past the cap — see the service's boot
        /// path). Absent in pre-fault-tolerance journals ⇒ 0. The *latest*
        /// `Submitted` record per id wins during reduction.
        attempts: u32,
    },
    /// The job with this id was answered (successfully or with a reported
    /// solve error — either way it needs no replay).
    Completed {
        /// Service-assigned job id.
        job_id: u64,
    },
    /// Terminal failure: the job's solve panicked (poison job) or it
    /// exhausted its replay attempts. Like [`JournalRecord::Completed`] it
    /// retires the pending submit — recovery must never replay it again.
    Failed {
        /// Service-assigned job id.
        job_id: u64,
    },
}

impl Deserialize for JournalRecord {
    fn deserialize_value(value: &serde::Value) -> Result<Self, serde::DeError> {
        let serde::Value::Obj(pairs) = value else {
            return Err(serde::DeError::new(format!(
                "expected externally-tagged journal record, found {}",
                value.kind()
            )));
        };
        let [(tag, body)] = pairs.as_slice() else {
            return Err(serde::DeError::new(
                "expected single-variant journal record object",
            ));
        };
        match tag.as_str() {
            "Submitted" => Ok(JournalRecord::Submitted {
                job_id: Deserialize::deserialize_value(body.field("job_id")?)?,
                tenant: Deserialize::deserialize_value(body.field("tenant")?)?,
                // Absent in pre-market journals: recover onto the default
                // market instead of rejecting the record.
                market: match body.opt_field("market")? {
                    Some(market) => Deserialize::deserialize_value(market)?,
                    None => MarketId::DEFAULT,
                },
                task_set: Deserialize::deserialize_value(body.field("task_set")?)?,
                budget: Deserialize::deserialize_value(body.field("budget")?)?,
                rate: Deserialize::deserialize_value(body.field("rate")?)?,
                strategy: Deserialize::deserialize_value(body.field("strategy")?)?,
                // Absent in pre-fault-tolerance journals: a job never
                // replayed has 0 attempts.
                attempts: match body.opt_field("attempts")? {
                    Some(attempts) => Deserialize::deserialize_value(attempts)?,
                    None => 0,
                },
            }),
            "Completed" => Ok(JournalRecord::Completed {
                job_id: Deserialize::deserialize_value(body.field("job_id")?)?,
            }),
            "Failed" => Ok(JournalRecord::Failed {
                job_id: Deserialize::deserialize_value(body.field("job_id")?)?,
            }),
            other => Err(serde::DeError::new(format!(
                "unknown journal record variant `{other}`"
            ))),
        }
    }
}

/// A journaled job that was submitted but never completed — in flight when
/// the process died. Recovery re-enqueues these under their original ids.
#[derive(Debug, Clone)]
pub struct PendingJob {
    /// The job's original service-assigned id.
    pub job_id: u64,
    /// Submitting tenant.
    pub tenant: String,
    /// The market the job is tuned against (default for pre-market records).
    pub market: MarketId,
    /// The job's task set.
    pub task_set: TaskSet,
    /// Total budget in units.
    pub budget: u64,
    /// The tenant's market belief.
    pub rate: RateSpec,
    /// Strategy override.
    pub strategy: StrategyChoice,
    /// How many times recovery has already replayed this job (latest
    /// journaled `Submitted` record wins). The service quarantines jobs
    /// past its replay cap instead of re-enqueueing them.
    pub attempts: u32,
}

/// A family record that survived every load-time validation, paired with its
/// rebuilt rate model. The table itself is rehydrated lazily (first serve of
/// the family) from the retained compact record.
pub struct LoadedFamily {
    /// The validated record.
    pub record: FamilyRecord,
    /// The rate model rebuilt from [`FamilyRecord::rate`].
    pub rate_model: Arc<dyn RateModel>,
}

impl fmt::Debug for LoadedFamily {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LoadedFamily")
            .field("fingerprint", &self.record.fingerprint)
            .field("coverage", &self.record.table.max_budget())
            .finish()
    }
}

/// What a [`PlanStore::open`] found on disk, after deduplication and
/// validation.
#[derive(Debug, Default)]
pub struct StoreSnapshot {
    /// Plan records, first-writer-wins per fingerprint (mirroring the cache's
    /// incumbent semantics).
    pub plans: Vec<PlanRecord>,
    /// Validated families, largest table coverage wins per fingerprint.
    pub families: Vec<LoadedFamily>,
    /// Journaled jobs submitted but never completed, in submit order.
    pub pending_jobs: Vec<PendingJob>,
    /// Largest job id seen anywhere in the journal (0 when empty); recovery
    /// resumes the id counter past it.
    pub max_job_id: u64,
    /// Journal records retired by the open-time rewrite (matched
    /// `Submitted`/`Completed` pairs and orphan completions collapsed into
    /// the id watermark). 0 when the journal was already minimal.
    pub retired_journal_records: u64,
    /// Per-stream damage accounting.
    pub report: LoadReport,
}

/// Damage accounting of a store load. All counters are "events survived":
/// every one of them degrades to cold solves, never to wrong plans.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LoadReport {
    /// Streams whose header was missing-but-non-empty or from an unknown
    /// version; the whole file was ignored and truncated.
    pub corrupt_streams: u64,
    /// Streams whose record suffix failed a checksum or parse (truncated
    /// tail, bit flip); the suffix was dropped and truncated away.
    pub corrupt_tails: u64,
    /// Checksummed-valid records that failed to decode or failed semantic
    /// re-validation (family base-state mismatch, broken DP chain, invalid
    /// rate spec, a plan record from another estimator version or with no
    /// version, ...).
    pub invalid_records: u64,
}

impl LoadReport {
    /// Whether the load saw any damage at all.
    pub fn clean(&self) -> bool {
        *self == LoadReport::default()
    }
}

/// Write-behind counters. Monotone; read with [`PlanStore::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Records accepted onto the write-behind queue.
    pub enqueued: u64,
    /// Records the writer has retired (written, or dropped/failed — see the
    /// other counters). `enqueued - retired` is the current queue depth.
    pub retired: u64,
    /// Records dropped under backpressure (queue full, oldest evicted).
    pub dropped: u64,
    /// Records whose disk write failed (counted retired; the writer keeps
    /// going so the serve path never blocks on a sick disk). A record is
    /// counted here only after its retry budget is exhausted.
    pub write_errors: u64,
    /// `fsync` calls issued by the writer (one per stream file per sync
    /// point; always 0 under [`FsyncPolicy::Off`]).
    pub fsyncs: u64,
    /// Failed append attempts the writer retried (with backoff). Each lost
    /// record contributes up to `MAX_RETRIES` (4) of these.
    pub retries: u64,
    /// Times the writer dropped a stream's file handle and re-opened it from
    /// the path (truncating to the last durable prefix) after `REOPEN_AFTER`
    /// (2) consecutive failures.
    pub reopens: u64,
}

/// When the background writer calls `fsync` on the stream files. The writer
/// always flushes userspace buffers per batch; without an fsync a *power
/// loss* (as opposed to a process crash) can still lose the OS page-cache
/// tail. Stronger policies trade write throughput for that tail.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// Never fsync (the default): durability against process crashes only.
    #[default]
    Off,
    /// fsync every touched stream after each write batch: at most one
    /// serve-path record batch can be lost to a power cut.
    PerBatch,
    /// fsync all streams dirtied since the last sync once the given interval
    /// has elapsed (checked after each batch, and once more on close), so
    /// the power-loss window is bounded without paying a sync per batch.
    Interval(std::time::Duration),
}

/// An injectable fault layer on the store's write path, consulted by the
/// background writer immediately before every stream append. Returning an
/// error makes the append fail exactly as a real disk error would (retry,
/// backoff, reopen, degraded health); sleeping inside `before_write`
/// emulates slow I/O. Production stores leave this `None`; the chaos
/// harness (`crowdtune-chaos`) installs an armable implementation.
pub trait WriteFault: Send + Sync {
    /// Called with the target stream's label (`"plans"`, `"families"`,
    /// `"journal"`) and the exact line about to be appended. `Err` aborts
    /// the append before any byte reaches the file.
    fn before_write(&self, stream: &str, bytes: &[u8]) -> std::io::Result<()>;
}

/// Injectable sleep used by the writer's retry backoff, so backoff timing is
/// unit-testable without real clock waits.
pub trait Sleeper: Send + Sync {
    /// Sleeps for (at least) `duration`.
    fn sleep(&self, duration: std::time::Duration);
}

/// The default [`Sleeper`]: `std::thread::sleep`. Only ever called on the
/// background writer thread — the serve path never sleeps.
#[derive(Debug, Default, Clone, Copy)]
pub struct ThreadSleeper;

impl Sleeper for ThreadSleeper {
    fn sleep(&self, duration: std::time::Duration) {
        std::thread::sleep(duration);
    }
}

/// Retry attempts per failed append after the first failure; then the
/// record is counted in [`StoreStats::write_errors`] and dropped.
const MAX_RETRIES: u32 = 4;
/// Backoff before the first retry; doubles per attempt.
const BASE_DELAY: std::time::Duration = std::time::Duration::from_millis(1);
/// Cap on the exponential backoff (before jitter).
const MAX_DELAY: std::time::Duration = std::time::Duration::from_millis(100);
/// Consecutive failures after which the writer drops the stream's file
/// handle and re-opens it from the path, truncating to the last durable
/// prefix — the same cut recovery would make — so a poisoned descriptor or
/// a partially-written record can never corrupt the stream.
const REOPEN_AFTER: u32 = 2;

/// The backoff before retry `attempt` (1-based): `BASE_DELAY · 2^(attempt-1)`
/// capped at `MAX_DELAY`, plus deterministic jitter in `[0, delay/2)` drawn
/// from `seed` — jitter de-synchronises retry storms across streams without
/// needing an entropy source. Pure, so backoff timing is unit-testable.
fn backoff_delay(attempt: u32, seed: u64) -> std::time::Duration {
    let exponent = attempt.saturating_sub(1).min(20);
    let scaled = BASE_DELAY
        .saturating_mul(1u32.checked_shl(exponent).unwrap_or(u32::MAX))
        .min(MAX_DELAY);
    // splitmix64 on (seed, attempt): cheap, stateless, well-mixed.
    let mut z = seed
        .wrapping_add(u64::from(attempt))
        .wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^= z >> 31;
    let jitter_ns = (scaled.as_nanos() as u64 / 2).checked_rem(u64::MAX);
    let jitter = match jitter_ns {
        Some(half) if half > 0 => std::time::Duration::from_nanos(z % half),
        _ => std::time::Duration::ZERO,
    };
    scaled + jitter
}

/// Tunables of [`PlanStore::open_with`]. `..Default::default()` keeps the
/// standing defaults (bounded queue, no fsync, no injected faults).
#[derive(Clone)]
pub struct StoreOptions {
    /// Bound on the write-behind queue ([`DEFAULT_QUEUE_CAPACITY`]).
    pub queue_capacity: usize,
    /// When the writer fsyncs the stream files ([`FsyncPolicy::Off`]).
    pub fsync: FsyncPolicy,
    /// Injectable write-path fault layer (`None` in production).
    pub write_fault: Option<Arc<dyn WriteFault>>,
    /// Injectable backoff sleep ([`ThreadSleeper`] by default).
    pub sleeper: Arc<dyn Sleeper>,
}

impl fmt::Debug for StoreOptions {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("StoreOptions")
            .field("queue_capacity", &self.queue_capacity)
            .field("fsync", &self.fsync)
            .field("write_fault", &self.write_fault.is_some())
            .finish()
    }
}

impl Default for StoreOptions {
    fn default() -> Self {
        StoreOptions {
            queue_capacity: DEFAULT_QUEUE_CAPACITY,
            fsync: FsyncPolicy::Off,
            write_fault: None,
            sleeper: Arc::new(ThreadSleeper),
        }
    }
}

/// Errors opening a store. Runtime write failures are *not* errors — they are
/// counted in [`StoreStats::write_errors`] and degrade durability, not
/// service.
#[derive(Debug)]
pub struct StoreError {
    context: String,
    source: std::io::Error,
}

impl StoreError {
    fn new(context: impl Into<String>, source: std::io::Error) -> Self {
        StoreError {
            context: context.into(),
            source,
        }
    }
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.context, self.source)
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.source)
    }
}

/// The three streams, used to route queued records to their appender.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Stream {
    Plans,
    Families,
    Journal,
}

impl Stream {
    const ALL: [Stream; 3] = [Stream::Plans, Stream::Families, Stream::Journal];

    fn file_name(self) -> &'static str {
        match self {
            Stream::Plans => "plans.log",
            Stream::Families => "families.log",
            Stream::Journal => "journal.log",
        }
    }

    fn label(self) -> &'static str {
        match self {
            Stream::Plans => "plans",
            Stream::Families => "families",
            Stream::Journal => "journal",
        }
    }

    fn header(self) -> String {
        format!("{STORE_HEADER} {}", self.label())
    }
}

/// A queued write: the target stream, the already-serialized payload and
/// the producer's retire hook, stamped with its enqueue instant.
struct QueuedRecord {
    stream: Stream,
    payload: String,
    on_retire: Option<(std::time::Instant, RetireHook)>,
}

/// Called once on the writer thread when a queued record retires: with
/// whether it was written (`false` once it has exhausted its retries) and
/// how long it spent between enqueue and retire. A record shed by
/// drop-oldest, or queued after close, is dropped without calling its hook.
/// The hook runs between appends, so it must be cheap.
pub type RetireHook = Box<dyn FnOnce(bool, std::time::Duration) + Send>;

/// What a producer does when the write-behind queue is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WhenFull {
    /// Evict the oldest queued record (the serve path: persistence lags,
    /// serving never blocks on the writer).
    DropOldest,
    /// Wait for the writer to make room (flush paths, which have no latency
    /// constraint and must not shed working-set records).
    Wait,
}

/// Queue state guarded by the store mutex.
struct QueueState {
    records: VecDeque<QueuedRecord>,
    closed: bool,
}

struct StoreShared {
    queue: Mutex<QueueState>,
    /// Signals the writer that records (or close) arrived.
    work_ready: Condvar,
    /// Signals flushers that the writer retired more records.
    drained: Condvar,
    // Obs-backed counters (registry-renderable). `enqueued_total` and
    // `retired_total` change only under the queue lock, so `stats()` and
    // `flush()` read them there: the depth `enqueued - retired` is never
    // torn, while scrapes read the same monotone cells without the lock.
    enqueued_total: Counter,
    retired_total: Counter,
    dropped: Counter,
    write_errors: Counter,
    fsyncs: Counter,
    retries: Counter,
    reopens: Counter,
    /// Set while the write path is losing records (a record exhausted its
    /// retry budget), cleared by the next successful append. Feeds the
    /// service's `Degraded { reasons }` health state.
    impaired: AtomicBool,
    capacity: usize,
    fsync: FsyncPolicy,
    write_fault: Option<Arc<dyn WriteFault>>,
    sleeper: Arc<dyn Sleeper>,
}

/// The durable plan store: three append-only streams behind one background
/// writer. Cheap to share: wrap in an `Arc` (the service and the family
/// layer both hold one).
pub struct PlanStore {
    shared: Arc<StoreShared>,
    dir: PathBuf,
    writer: Option<JoinHandle<()>>,
}

impl fmt::Debug for PlanStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PlanStore")
            .field("dir", &self.dir)
            .field("stats", &self.stats())
            .finish()
    }
}

/// Default bound on the write-behind queue. Each record is one serialized
/// line; at the default the queue tops out around a few MB of pending JSON
/// before drop-oldest kicks in.
pub const DEFAULT_QUEUE_CAPACITY: usize = 4096;

impl PlanStore {
    /// Opens (creating if absent) the store directory, replays all three
    /// streams, truncates any corrupt tails, and starts the background
    /// writer. Returns the store handle plus everything that was loaded.
    ///
    /// One store directory must be owned by one process at a time; the store
    /// performs no cross-process locking.
    pub fn open(dir: impl AsRef<Path>) -> Result<(Arc<PlanStore>, StoreSnapshot), StoreError> {
        Self::open_with(dir, StoreOptions::default())
    }

    /// [`PlanStore::open`] with explicit [`StoreOptions`] (queue bound,
    /// fsync policy).
    pub fn open_with(
        dir: impl AsRef<Path>,
        options: StoreOptions,
    ) -> Result<(Arc<PlanStore>, StoreSnapshot), StoreError> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)
            .map_err(|e| StoreError::new(format!("creating store dir {}", dir.display()), e))?;

        let mut report = LoadReport::default();
        let mut replayed: Vec<(Stream, ReplayedStream)> = Vec::new();
        for stream in Stream::ALL {
            let path = dir.join(stream.file_name());
            let stream_replay = replay_stream(&path, stream, &mut report)?;
            if stream_replay.sideline {
                // Preserve the unreadable bytes (newer format after a
                // rollback?) instead of destroying them; a previously
                // sidelined file of the same stream is replaced.
                let parked = dir.join(format!("{}.unreadable", stream.file_name()));
                std::fs::rename(&path, &parked)
                    .map_err(|e| StoreError::new(format!("sidelining {}", path.display()), e))?;
            }
            replayed.push((stream, stream_replay));
        }

        let mut snapshot = StoreSnapshot {
            report,
            ..StoreSnapshot::default()
        };
        for (stream, stream_replay) in &mut replayed {
            match stream {
                Stream::Plans => {
                    // Stale plan records never load again: rewrite them out
                    // of the file so later opens neither decode nor count
                    // them. A store without any is left untouched.
                    if reduce_plans(&mut stream_replay.payloads, &mut snapshot) {
                        stream_replay.good_prefix =
                            rewrite_stream(&dir, Stream::Plans, &stream_replay.payloads)?;
                    }
                }
                Stream::Families => reduce_families(&stream_replay.payloads, &mut snapshot),
                Stream::Journal => {
                    reduce_journal(&stream_replay.payloads, &mut snapshot);
                    // Journal retirement: matched `Submitted`/`Completed`
                    // pairs carry no recovery information — rewrite the
                    // journal as its reduction (pending submits + an id
                    // watermark) whenever that strictly shrinks it, so the
                    // journal's size tracks in-flight work instead of
                    // service lifetime.
                    snapshot.retired_journal_records =
                        rewrite_journal_if_smaller(&dir, stream_replay, &snapshot)?;
                }
            }
        }

        let mut appenders = Vec::new();
        for (stream, stream_replay) in &replayed {
            let path = dir.join(stream.file_name());
            let (file, durable_len) = open_stream(&path, *stream, stream_replay.good_prefix)?;
            appenders.push(StreamAppender {
                stream: *stream,
                path,
                file: Some(file),
                durable_len,
                dirty: false,
                needs_sync: false,
                consecutive_failures: 0,
            });
        }

        let shared = Arc::new(StoreShared {
            queue: Mutex::new(QueueState {
                records: VecDeque::new(),
                closed: false,
            }),
            work_ready: Condvar::new(),
            drained: Condvar::new(),
            enqueued_total: Counter::new(),
            retired_total: Counter::new(),
            dropped: Counter::new(),
            write_errors: Counter::new(),
            fsyncs: Counter::new(),
            retries: Counter::new(),
            reopens: Counter::new(),
            impaired: AtomicBool::new(false),
            capacity: options.queue_capacity.max(1),
            fsync: options.fsync,
            write_fault: options.write_fault,
            sleeper: options.sleeper,
        });
        let writer = {
            let shared = shared.clone();
            std::thread::Builder::new()
                .name("store-writer".to_owned())
                .spawn(move || writer_loop(&shared, appenders))
                .map_err(|e| StoreError::new("spawning store writer", e))?
        };
        Ok((
            Arc::new(PlanStore {
                shared,
                dir,
                writer: Some(writer),
            }),
            snapshot,
        ))
    }

    /// The directory backing this store.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Queues a plan snapshot for the exact-match stream, with the
    /// producer's [`RetireHook`], if any.
    pub fn record_plan(
        &self,
        fingerprint: u64,
        plan: &Arc<TunedPlan>,
        when_full: WhenFull,
        on_retire: Option<RetireHook>,
    ) {
        let record = PlanRecord {
            fingerprint,
            estimator: ESTIMATOR_VERSION,
            plan: plan.clone(),
        };
        self.enqueue(Stream::Plans, &record, when_full, on_retire);
    }

    /// Queues a family snapshot. Callers re-record a family whenever its
    /// table grows; on load the record with the largest coverage wins.
    pub fn record_family(&self, record: &FamilyRecord, when_full: WhenFull) {
        self.enqueue(Stream::Families, record, when_full, None);
    }

    /// Queues a journal entry.
    pub fn record_journal(&self, record: &JournalRecord) {
        self.enqueue(Stream::Journal, record, WhenFull::DropOldest, None);
    }

    /// Blocks until every record enqueued before this call has been retired
    /// by the writer (written, or counted as a write error). Used by planned
    /// shutdowns and tests; crash durability is whatever the writer had
    /// already retired.
    pub fn flush(&self) {
        let mut queue = self.shared.queue.lock().expect("store queue poisoned");
        let target = self.shared.enqueued_total.get();
        while self.shared.retired_total.get() < target && !queue.closed {
            queue = self
                .shared
                .drained
                .wait(queue)
                .expect("store queue poisoned");
        }
    }

    /// Current write-behind counters.
    pub fn stats(&self) -> StoreStats {
        let (enqueued, retired) = {
            let _queue = self.shared.queue.lock().expect("store queue poisoned");
            (
                self.shared.enqueued_total.get(),
                self.shared.retired_total.get(),
            )
        };
        StoreStats {
            enqueued,
            retired,
            dropped: self.shared.dropped.get(),
            write_errors: self.shared.write_errors.get(),
            fsyncs: self.shared.fsyncs.get(),
            retries: self.shared.retries.get(),
            reopens: self.shared.reopens.get(),
        }
    }

    /// Whether the write path is currently losing records: set when a record
    /// exhausts its retry budget, cleared automatically by the next
    /// successful append. While `true` the service reports
    /// `Degraded { store-writes-failing }` — serving continues (plans are
    /// answered from memory), only durability is impaired.
    pub fn write_path_impaired(&self) -> bool {
        self.shared.impaired.load(Ordering::Acquire)
    }

    /// Registers the store's write-behind counters into `registry` under the
    /// `crowdtune_store_*` names, backed by the same cells
    /// [`PlanStore::stats`] reports.
    pub fn register_metrics(&self, registry: &Registry) {
        // Retired before enqueued: a scrape must never observe
        // retired > enqueued (records retire only after being enqueued).
        registry.register_counter(
            "crowdtune_store_retired_total",
            "Write-behind records retired by the writer (written or failed).",
            &[],
            self.shared.retired_total.clone(),
        );
        registry.register_counter(
            "crowdtune_store_enqueued_total",
            "Records accepted onto the write-behind queue.",
            &[],
            self.shared.enqueued_total.clone(),
        );
        registry.register_counter(
            "crowdtune_store_dropped_total",
            "Records dropped under backpressure (queue full, oldest evicted).",
            &[],
            self.shared.dropped.clone(),
        );
        registry.register_counter(
            "crowdtune_store_write_errors_total",
            "Records or syncs whose disk operation failed.",
            &[],
            self.shared.write_errors.clone(),
        );
        registry.register_counter(
            "crowdtune_store_fsyncs_total",
            "fsync calls issued by the background writer.",
            &[],
            self.shared.fsyncs.clone(),
        );
        registry.register_counter(
            "crowdtune_store_write_retries_total",
            "Failed append attempts the writer retried with backoff.",
            &[],
            self.shared.retries.clone(),
        );
        registry.register_counter(
            "crowdtune_store_reopens_total",
            "Stream file handles re-opened after consecutive write failures.",
            &[],
            self.shared.reopens.clone(),
        );
    }

    /// The one way into the queue: serializes `record` on the caller's
    /// thread, so a record captured now is immune to later mutation of the
    /// live object, then queues it for `stream` (see [`WhenFull`]).
    fn enqueue<T: Serialize>(
        &self,
        stream: Stream,
        record: &T,
        when_full: WhenFull,
        on_retire: Option<RetireHook>,
    ) {
        let payload = match serde_json::to_string(record) {
            Ok(payload) => payload,
            Err(_) => {
                // The shim serializer is infallible for these types; treat a
                // failure like a write error rather than panicking the
                // serve path.
                self.shared.write_errors.inc();
                return;
            }
        };
        let mut queue = self.shared.queue.lock().expect("store queue poisoned");
        if when_full == WhenFull::Wait {
            while queue.records.len() >= self.shared.capacity && !queue.closed {
                queue = self
                    .shared
                    .drained
                    .wait(queue)
                    .expect("store queue poisoned");
            }
        }
        if queue.closed {
            return;
        }
        if queue.records.len() >= self.shared.capacity {
            // Drop-oldest backpressure: persistence lags, serving does not.
            queue.records.pop_front();
            self.shared.retired_total.inc();
            self.shared.dropped.inc();
        }
        queue.records.push_back(QueuedRecord {
            stream,
            payload,
            on_retire: on_retire.map(|hook| (std::time::Instant::now(), hook)),
        });
        self.shared.enqueued_total.inc();
        drop(queue);
        self.shared.work_ready.notify_one();
    }
}

impl Drop for PlanStore {
    fn drop(&mut self) {
        {
            let mut queue = self.shared.queue.lock().expect("store queue poisoned");
            queue.closed = true;
        }
        self.shared.work_ready.notify_all();
        self.shared.drained.notify_all();
        if let Some(writer) = self.writer.take() {
            let _ = writer.join();
        }
    }
}

/// Renders one durable record line: `<fnv1a-64 hex of payload>\t<payload>\n`.
fn record_line(payload: &str) -> String {
    let mut hash = Fnv1a::new();
    hash.write_bytes(payload.as_bytes());
    format!("{:016x}\t{}\n", hash.finish(), payload)
}

/// One stream's append state inside the background writer. Writes go
/// straight to the [`File`] (one `write_all` per record line — no userspace
/// buffer, so a failed attempt can only ever leave *file* bytes behind,
/// which the dirty-cut below removes deterministically).
struct StreamAppender {
    stream: Stream,
    path: PathBuf,
    /// `None` after the self-healing path dropped a poisoned handle; the
    /// next append re-opens from `path`.
    file: Option<File>,
    /// Bytes known fully written: header + every successfully appended
    /// record. The truncation point of every retry and reopen.
    durable_len: u64,
    /// A failed attempt may have left partial bytes past `durable_len`; cut
    /// them before the next write touches the file.
    dirty: bool,
    /// Appended since the last fsync (only tracked when the policy syncs).
    needs_sync: bool,
    consecutive_failures: u32,
}

impl StreamAppender {
    /// Appends one record line with the full retry/self-healing treatment:
    /// bounded retries with exponential backoff + jitter, and a file-handle
    /// reopen (truncating to the durable prefix) after `REOPEN_AFTER`
    /// consecutive failures. Returns whether the record made it to the file.
    fn append(&mut self, line: &[u8], shared: &StoreShared, seed: u64) -> bool {
        let mut attempt = 0u32;
        loop {
            match self.try_append(line, shared.write_fault.as_deref()) {
                Ok(()) => {
                    self.durable_len += line.len() as u64;
                    self.consecutive_failures = 0;
                    self.needs_sync = !matches!(shared.fsync, FsyncPolicy::Off);
                    return true;
                }
                Err(_) => {
                    self.dirty = true;
                    self.consecutive_failures += 1;
                    if self.consecutive_failures >= REOPEN_AFTER && self.file.is_some() {
                        // The handle itself may be the problem (revoked
                        // descriptor, stale network-filesystem handle):
                        // drop it and re-open from the path next attempt.
                        self.file = None;
                        shared.reopens.inc();
                    }
                    attempt += 1;
                    if attempt > MAX_RETRIES {
                        return false;
                    }
                    shared.retries.inc();
                    shared.sleeper.sleep(backoff_delay(attempt, seed));
                }
            }
        }
    }

    /// One write attempt: (re-)open the file if needed, cut any partial
    /// bytes from a previous failed attempt back to the durable prefix —
    /// the same cut recovery makes — then append the line.
    fn try_append(&mut self, line: &[u8], fault: Option<&dyn WriteFault>) -> std::io::Result<()> {
        if self.file.is_none() {
            let (file, durable_len) = open_stream(&self.path, self.stream, self.durable_len)
                .map_err(|error| error.source)?;
            self.durable_len = durable_len;
            self.dirty = false;
            self.file = Some(file);
        }
        let file = self.file.as_mut().expect("stream file just opened");
        if self.dirty {
            file.set_len(self.durable_len)?;
            file.seek(SeekFrom::Start(self.durable_len))?;
            self.dirty = false;
        }
        if let Some(fault) = fault {
            fault.before_write(self.stream.label(), line)?;
        }
        file.write_all(line)
    }
}

/// The background writer: drains the queue in batches, appends each record
/// to its stream (with retry/backoff/reopen self-healing, see
/// [`StreamAppender::append`]) and calls its retire hook, then fsyncs per
/// the configured [`FsyncPolicy`]. On close it drains whatever is left
/// before exiting, so a graceful drop loses nothing.
fn writer_loop(shared: &StoreShared, mut appenders: Vec<StreamAppender>) {
    fn sync_dirty(shared: &StoreShared, appenders: &mut [StreamAppender]) {
        for appender in appenders.iter_mut().filter(|a| a.needs_sync) {
            appender.needs_sync = false;
            match appender.file.as_ref().map(File::sync_data) {
                Some(Ok(())) => shared.fsyncs.inc(),
                Some(Err(_)) => shared.write_errors.inc(),
                None => {}
            }
        }
    }
    let mut last_sync = std::time::Instant::now();
    // Jitter seed, advanced per record: deterministic (no entropy source)
    // but well-spread through the splitmix64 mix in `backoff_delay`.
    let mut seed = 0x5851_f42d_4c95_7f2d_u64;
    loop {
        let batch: Vec<QueuedRecord> = {
            let mut queue = shared.queue.lock().expect("store queue poisoned");
            loop {
                if !queue.records.is_empty() || queue.closed {
                    break;
                }
                // An interval policy must keep its bounded-window promise
                // even when the store goes idle: with dirty streams, sleep
                // only until the interval elapses (then fall through with an
                // empty batch to the sync below) instead of waiting
                // indefinitely for records that may never come.
                let unsynced = appenders.iter().any(|a| a.needs_sync);
                match (shared.fsync, unsynced) {
                    (FsyncPolicy::Interval(interval), true) => {
                        let elapsed = last_sync.elapsed();
                        if elapsed >= interval {
                            break;
                        }
                        let (reacquired, _timeout) = shared
                            .work_ready
                            .wait_timeout(queue, interval - elapsed)
                            .expect("store queue poisoned");
                        queue = reacquired;
                    }
                    _ => {
                        queue = shared.work_ready.wait(queue).expect("store queue poisoned");
                    }
                }
            }
            if queue.records.is_empty() && queue.closed {
                // Closed and drained: bound the power-loss window of an
                // interval policy by syncing whatever is still dirty.
                if !matches!(shared.fsync, FsyncPolicy::Off) {
                    sync_dirty(shared, &mut appenders);
                }
                return;
            }
            queue.records.drain(..).collect()
        };
        let count = batch.len() as u64;
        for record in batch {
            let appender = appenders
                .iter_mut()
                .find(|a| a.stream == record.stream)
                .expect("appender per stream");
            let line = record_line(&record.payload);
            seed = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let written = appender.append(line.as_bytes(), shared, seed);
            if written {
                // Writes succeed again: durability is restored, the health
                // state flips back on its own.
                shared.impaired.store(false, Ordering::Release);
            } else {
                shared.write_errors.inc();
                shared.impaired.store(true, Ordering::Release);
            }
            if let Some((enqueued_at, on_retire)) = record.on_retire {
                on_retire(written, enqueued_at.elapsed());
            }
        }
        match shared.fsync {
            FsyncPolicy::Off => {}
            FsyncPolicy::PerBatch => sync_dirty(shared, &mut appenders),
            FsyncPolicy::Interval(interval) => {
                if last_sync.elapsed() >= interval {
                    sync_dirty(shared, &mut appenders);
                    last_sync = std::time::Instant::now();
                }
            }
        }
        // Under the lock, where `flush` and `stats` read the counters.
        let queue = shared.queue.lock().expect("store queue poisoned");
        shared.retired_total.add(count);
        drop(queue);
        shared.drained.notify_all();
    }
}

/// Open-time journal retirement: when the replayed journal holds more
/// records than its reduction — pending `Submitted`s plus (when needed) one
/// `Completed` id watermark — the file is rewritten as that reduction and
/// the number of retired records is returned. The watermark preserves
/// [`StoreSnapshot::max_job_id`] across the rewrite, so recovered services
/// keep assigning fresh ids; it is itself an orphan completion, which the
/// *next* open's reduction recognises and rewrites, keeping the journal at
/// fixed size across restarts.
fn rewrite_journal_if_smaller(
    dir: &Path,
    journal: &mut ReplayedStream,
    snapshot: &StoreSnapshot,
) -> Result<u64, StoreError> {
    let max_pending_id = snapshot.pending_jobs.iter().map(|job| job.job_id).max();
    let watermark = match max_pending_id {
        _ if snapshot.max_job_id == 0 => None,
        Some(max_pending) if max_pending >= snapshot.max_job_id => None,
        _ => Some(JournalRecord::Completed {
            job_id: snapshot.max_job_id,
        }),
    };
    let kept = snapshot.pending_jobs.len() + usize::from(watermark.is_some());
    if journal.payloads.len() <= kept {
        return Ok(0);
    }
    let payloads = snapshot
        .pending_jobs
        .iter()
        .map(|job| JournalRecord::Submitted {
            job_id: job.job_id,
            tenant: job.tenant.clone(),
            market: job.market,
            task_set: job.task_set.clone(),
            budget: job.budget,
            rate: job.rate.clone(),
            strategy: job.strategy,
            attempts: job.attempts,
        })
        .chain(watermark)
        .map(|record| {
            serde_json::to_string(&record)
                .map_err(|e| StoreError::new("re-serializing journal", std::io::Error::other(e)))
        })
        .collect::<Result<Vec<_>, _>>()?;
    journal.good_prefix = rewrite_stream(dir, Stream::Journal, &payloads)?;
    Ok((journal.payloads.len() - kept) as u64)
}

/// Replaces a stream's file with its header and `payloads`, one record line
/// each, and returns the new file length. Write-then-rename, never
/// truncate-in-place: the records being kept are already durable, and a
/// crash mid-rewrite must not be the one thing that loses them. The temp
/// file is synced before the rename so the replacement is complete before it
/// becomes visible, and the directory entry is synced (best-effort) so the
/// rename itself survives a power cut.
fn rewrite_stream(dir: &Path, stream: Stream, payloads: &[String]) -> Result<u64, StoreError> {
    let mut content = format!("{}\n", stream.header());
    for payload in payloads {
        content.push_str(&record_line(payload));
    }
    let path = dir.join(stream.file_name());
    let tmp = dir.join(format!("{}.rewrite", stream.file_name()));
    {
        let mut file = File::create(&tmp)
            .map_err(|e| StoreError::new(format!("creating {}", tmp.display()), e))?;
        file.write_all(content.as_bytes())
            .map_err(|e| StoreError::new(format!("writing {}", tmp.display()), e))?;
        file.sync_data()
            .map_err(|e| StoreError::new(format!("syncing {}", tmp.display()), e))?;
    }
    std::fs::rename(&tmp, &path)
        .map_err(|e| StoreError::new(format!("renaming over {}", path.display()), e))?;
    if let Ok(dir_handle) = File::open(dir) {
        let _ = dir_handle.sync_all();
    }
    Ok(content.len() as u64)
}

/// The outcome of replaying one stream: the checksummed-valid record
/// payloads, plus what the appender must do before writing resumes.
struct ReplayedStream {
    payloads: Vec<String>,
    /// Byte length of the good prefix; anything after it is corrupt and is
    /// truncated away before appending resumes.
    good_prefix: u64,
    /// The whole file is unreadable (unknown header version): it must be
    /// **sidelined, not truncated** — the data may belong to a newer store
    /// format, and a binary rollback must not destroy it.
    sideline: bool,
}

impl ReplayedStream {
    fn empty() -> Self {
        ReplayedStream {
            payloads: Vec::new(),
            good_prefix: 0,
            sideline: false,
        }
    }
}

/// Reads one stream; see [`ReplayedStream`] for what the caller must do with
/// the result.
fn replay_stream(
    path: &Path,
    stream: Stream,
    report: &mut LoadReport,
) -> Result<ReplayedStream, StoreError> {
    let mut bytes = Vec::new();
    match File::open(path) {
        Ok(mut file) => {
            file.read_to_end(&mut bytes)
                .map_err(|e| StoreError::new(format!("reading {}", path.display()), e))?;
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(ReplayedStream::empty()),
        Err(e) => return Err(StoreError::new(format!("opening {}", path.display()), e)),
    }
    if bytes.is_empty() {
        return Ok(ReplayedStream::empty());
    }

    let header = stream.header();
    let mut offset = match bytes.iter().position(|&b| b == b'\n') {
        Some(end) if bytes[..end] == *header.as_bytes() => end + 1,
        _ => {
            // Unknown version or mangled header: the whole file is
            // unreadable here. Start the stream cold, but keep the bytes
            // (sidelined) — they may be a newer format after a rollback.
            report.corrupt_streams += 1;
            return Ok(ReplayedStream {
                payloads: Vec::new(),
                good_prefix: 0,
                sideline: true,
            });
        }
    };

    let mut payloads = Vec::new();
    while offset < bytes.len() {
        let line_end = bytes[offset..]
            .iter()
            .position(|&b| b == b'\n')
            .map(|i| offset + i);
        let Some(line_end) = line_end else {
            // Unterminated final line: even if its checksum happens to pass
            // (a crash can land exactly at the end of a payload, before the
            // newline), accepting it would leave `good_prefix` without a
            // terminator and the next append would merge onto this line —
            // corrupting *both* records at the following recovery. Drop it.
            report.corrupt_tails += 1;
            break;
        };
        match parse_record_line(&bytes[offset..line_end]) {
            Some(payload) => {
                payloads.push(payload);
                offset = line_end + 1;
            }
            None => {
                // Truncated tail or bit flip: drop this line and everything
                // after it.
                report.corrupt_tails += 1;
                break;
            }
        }
    }
    Ok(ReplayedStream {
        payloads,
        good_prefix: offset as u64,
        sideline: false,
    })
}

/// Checks one `<checksum>\t<payload>` line, returning the payload when the
/// checksum matches and the payload is valid UTF-8.
fn parse_record_line(line: &[u8]) -> Option<String> {
    let tab = line.iter().position(|&b| b == b'\t')?;
    let (checksum_hex, payload) = (&line[..tab], &line[tab + 1..]);
    let checksum_hex = std::str::from_utf8(checksum_hex).ok()?;
    let expected = u64::from_str_radix(checksum_hex, 16).ok()?;
    let mut hash = Fnv1a::new();
    hash.write_bytes(payload);
    if hash.finish() != expected {
        return None;
    }
    String::from_utf8(payload.to_vec()).ok()
}

/// Opens a stream for appending after its good prefix, truncating any
/// corrupt (or partially-written) tail away and writing the header into
/// fresh/unreadable files. Returns the file positioned at the end plus the
/// resulting durable length (`good_prefix`, or the header length on a fresh
/// file). Used at store open and by the writer's self-healing reopen.
fn open_stream(path: &Path, stream: Stream, good_prefix: u64) -> Result<(File, u64), StoreError> {
    let mut file = OpenOptions::new()
        .write(true)
        .create(true)
        .truncate(false)
        .open(path)
        .map_err(|e| StoreError::new(format!("opening {} for append", path.display()), e))?;
    file.set_len(good_prefix)
        .map_err(|e| StoreError::new(format!("truncating {}", path.display()), e))?;
    file.seek(SeekFrom::End(0))
        .map_err(|e| StoreError::new(format!("seeking {}", path.display()), e))?;
    let mut durable_len = good_prefix;
    if good_prefix == 0 {
        let header = format!("{}\n", stream.header());
        file.write_all(header.as_bytes())
            .map_err(|e| StoreError::new(format!("writing header to {}", path.display()), e))?;
        durable_len = header.len() as u64;
    }
    Ok((file, durable_len))
}

/// Whether a plan payload that did not load is stale: a plan record of an
/// older estimator version, or from before records carried one. It never
/// loads again, so the open rewrites it out of the file. Anything else — a
/// newer version (this binary may be a rollback) or a payload that does not
/// decode — keeps its bytes on disk, as an unreadable stream does.
fn is_stale_plan(payload: &str) -> bool {
    let Ok(value) = serde_json::parse_value_str(payload) else {
        return false;
    };
    let older = match value.opt_field("estimator") {
        Ok(None) => true,
        Ok(Some(version)) => u32::deserialize_value(version).is_ok_and(|v| v < ESTIMATOR_VERSION),
        Err(_) => false,
    };
    older && value.field("fingerprint").is_ok() && value.field("plan").is_ok()
}

/// Parses and deduplicates plan records: first writer wins per fingerprint,
/// mirroring the cache's incumbent semantics (equal fingerprints imply
/// bit-identical plans anyway). A record from another estimator version is
/// dropped before it can claim its fingerprint, so a later re-solve's record
/// wins. Stale records ([`is_stale_plan`]) are also removed from `payloads`;
/// returns whether there were any.
fn reduce_plans(payloads: &mut Vec<String>, snapshot: &mut StoreSnapshot) -> bool {
    let mut seen: HashSet<u64> = HashSet::new();
    let before = payloads.len();
    payloads.retain(
        |payload| match serde_json::from_str::<PlanRecord>(payload) {
            Ok(record) if record.estimator == ESTIMATOR_VERSION => {
                if seen.insert(record.fingerprint) {
                    snapshot.plans.push(record);
                }
                true
            }
            _ => {
                snapshot.report.invalid_records += 1;
                !is_stale_plan(payload)
            }
        },
    );
    payloads.len() < before
}

/// Parses, deduplicates (largest table coverage wins) and semantically
/// re-validates family records.
fn reduce_families(payloads: &[String], snapshot: &mut StoreSnapshot) {
    let mut best: HashMap<u64, FamilyRecord> = HashMap::new();
    for payload in payloads {
        let Ok(record) = serde_json::from_str::<FamilyRecord>(payload) else {
            snapshot.report.invalid_records += 1;
            continue;
        };
        match best.entry(record.fingerprint) {
            Entry::Vacant(slot) => {
                slot.insert(record);
            }
            Entry::Occupied(mut slot) => {
                if record.table.max_budget() > slot.get().table.max_budget() {
                    slot.insert(record);
                }
            }
        }
    }
    let mut families: Vec<FamilyRecord> = best.into_values().collect();
    families.sort_by_key(|record| record.fingerprint);
    for record in families {
        match validate_family(record) {
            Some(loaded) => snapshot.families.push(loaded),
            None => snapshot.report.invalid_records += 1,
        }
    }
}

/// The load-time family validation described in the module docs. `None`
/// means "discard the record and let the family re-seed cold".
fn validate_family(record: FamilyRecord) -> Option<LoadedFamily> {
    let rate_model = record.rate.build().ok()?;
    // Unit costs must be exactly the group shapes' `n_i · k_i`.
    if record.table.unit_costs.len() != record.groups.len() {
        return None;
    }
    for (&cost, &(size, repetitions)) in record.table.unit_costs.iter().zip(&record.groups) {
        if size == 0 || repetitions == 0 || cost != size * u64::from(repetitions) {
            return None;
        }
    }
    // Full DP-chain validation (decisions affordable, spend chain
    // consistent, objectives finite). The rebuilt table is discarded —
    // rehydration is lazy — but a record that cannot rebuild must not reach
    // the archive.
    DpTable::from_snapshot(&record.table).ok()?;
    // The base-state objective check of `DpTable::extend_to`, run eagerly:
    // re-evaluate the level-0 objective (one unit per repetition of every
    // group) against the reloaded curve and require bit equality. This is
    // what catches a rate spec that no longer matches the table — wrong
    // tables are discarded, never extended.
    let rate = rate_model.on_hold_rate(1.0);
    if !rate.is_finite() || rate <= 0.0 {
        return None;
    }
    let mut base = 0.0;
    for &(size, repetitions) in &record.groups {
        base += group_phase1_expected(size, repetitions, rate).ok()?;
    }
    if Some(base.to_bits()) != record.table.base_objective_bits() {
        return None;
    }
    Some(LoadedFamily { record, rate_model })
}

/// Replays the journal: submits without a matching terminal record
/// (`Completed` or `Failed`) become [`PendingJob`]s, in submit order.
/// Duplicate `Submitted` records per id (recovery re-journals with a bumped
/// `attempts` before each replay) collapse to the **latest** record, keeping
/// the position of the first.
fn reduce_journal(payloads: &[String], snapshot: &mut StoreSnapshot) {
    let mut pending: Vec<PendingJob> = Vec::new();
    // Maps ids to `pending` slots so a re-submit overwrites in place.
    // HashMap/HashSet, not Vec: the journal is append-only and uncompacted,
    // so after N served jobs a linear `contains` would make recovery O(N²).
    let mut slot_of: HashMap<u64, usize> = HashMap::new();
    let mut terminal: HashSet<u64> = HashSet::new();
    for payload in payloads {
        let Ok(record) = serde_json::from_str::<JournalRecord>(payload) else {
            snapshot.report.invalid_records += 1;
            continue;
        };
        match record {
            JournalRecord::Submitted {
                job_id,
                tenant,
                market,
                task_set,
                budget,
                rate,
                strategy,
                attempts,
            } => {
                snapshot.max_job_id = snapshot.max_job_id.max(job_id);
                let job = PendingJob {
                    job_id,
                    tenant,
                    market,
                    task_set,
                    budget,
                    rate,
                    strategy,
                    attempts,
                };
                match slot_of.entry(job_id) {
                    Entry::Vacant(slot) => {
                        slot.insert(pending.len());
                        pending.push(job);
                    }
                    Entry::Occupied(slot) => pending[*slot.get()] = job,
                }
            }
            JournalRecord::Completed { job_id } | JournalRecord::Failed { job_id } => {
                snapshot.max_job_id = snapshot.max_job_id.max(job_id);
                terminal.insert(job_id);
            }
        }
    }
    pending.retain(|job| !terminal.contains(&job.job_id));
    snapshot.pending_jobs = pending;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crowdtune_core::money::{Allocation, Payment};
    use crowdtune_core::problem::{LatencyTarget, TuningResult};
    use crowdtune_core::rate::LinearRate;
    use std::sync::atomic::{AtomicU32, Ordering};

    /// A process-unique scratch directory (no tempfile crate offline).
    fn scratch_dir(tag: &str) -> PathBuf {
        static NEXT: AtomicU32 = AtomicU32::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!(
            "crowdtune-store-test-{}-{tag}-{n}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn plan(tag: u64) -> Arc<TunedPlan> {
        Arc::new(TunedPlan {
            result: TuningResult::new(
                "RA",
                Allocation::uniform(&[2, 3], Payment::units(tag)),
                Some(tag as f64 * 0.37),
                LatencyTarget::GroupSumOnHold,
            ),
            expected_latency: tag as f64 * 1.21,
            expected_on_hold_latency: tag as f64 * 0.5,
        })
    }

    #[test]
    fn fresh_store_is_empty_and_round_trips_records() {
        let dir = scratch_dir("roundtrip");
        {
            let (store, snapshot) = PlanStore::open(&dir).unwrap();
            assert!(snapshot.report.clean());
            assert!(snapshot.plans.is_empty());
            store.record_plan(7, &plan(1), WhenFull::DropOldest, None);
            store.record_plan(9, &plan(2), WhenFull::DropOldest, None);
            store.record_plan(7, &plan(3), WhenFull::DropOldest, None); // duplicate key: incumbent wins on load
            store.record_journal(&JournalRecord::Submitted {
                job_id: 4,
                tenant: "acme".to_owned(),
                market: MarketId::DEFAULT,
                task_set: {
                    let mut set = TaskSet::new();
                    let ty = set.add_type("vote", 2.0).unwrap();
                    set.add_tasks(ty, 3, 2).unwrap();
                    set
                },
                budget: 40,
                rate: RateSpec::Linear(LinearRate::unit_slope()),
                strategy: StrategyChoice::Auto,
                attempts: 0,
            });
            store.record_journal(&JournalRecord::Submitted {
                job_id: 5,
                tenant: "acme".to_owned(),
                market: MarketId::DEFAULT,
                task_set: {
                    let mut set = TaskSet::new();
                    let ty = set.add_type("vote", 2.0).unwrap();
                    set.add_tasks(ty, 3, 2).unwrap();
                    set
                },
                budget: 60,
                rate: RateSpec::Linear(LinearRate::unit_slope()),
                strategy: StrategyChoice::Auto,
                attempts: 0,
            });
            store.record_journal(&JournalRecord::Completed { job_id: 4 });
            store.flush();
            let stats = store.stats();
            assert_eq!(stats.enqueued, 6);
            assert_eq!(stats.retired, 6);
            assert_eq!(stats.dropped, 0);
            assert_eq!(stats.write_errors, 0);
        }
        let (_store, snapshot) = PlanStore::open(&dir).unwrap();
        assert!(snapshot.report.clean());
        assert_eq!(snapshot.plans.len(), 2);
        let by_key: HashMap<u64, &Arc<TunedPlan>> = snapshot
            .plans
            .iter()
            .map(|r| (r.fingerprint, &r.plan))
            .collect();
        assert_eq!(by_key[&7], &plan(1), "first writer wins");
        assert_eq!(
            by_key[&7].expected_latency.to_bits(),
            plan(1).expected_latency.to_bits()
        );
        assert_eq!(by_key[&9], &plan(2));
        // Job 4 completed; job 5 is pending, and the id counter resumes past
        // the largest journaled id.
        assert_eq!(snapshot.pending_jobs.len(), 1);
        assert_eq!(snapshot.pending_jobs[0].job_id, 5);
        assert_eq!(snapshot.pending_jobs[0].budget, 60);
        assert_eq!(snapshot.max_job_id, 5);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bounded_queue_drops_oldest_under_backpressure() {
        let dir = scratch_dir("backpressure");
        // Enqueue far more than the tiny capacity in a tight loop: whenever
        // the producer outruns the writer the queue drops its oldest entry
        // instead of blocking the (serve-path) producer.
        let (store, _) = PlanStore::open_with(
            &dir,
            StoreOptions {
                queue_capacity: 2,
                ..StoreOptions::default()
            },
        )
        .unwrap();
        for i in 0..64u64 {
            store.record_plan(i, &plan(i), WhenFull::DropOldest, None);
        }
        store.flush();
        let stats = store.stats();
        assert_eq!(stats.enqueued, 64);
        assert_eq!(stats.retired, 64);
        // With capacity 2 and a racing writer some records persist and some
        // drop; the invariant is accounting consistency, not a drop count.
        assert_eq!(stats.write_errors, 0);
        drop(store);
        let (_store, snapshot) = PlanStore::open(&dir).unwrap();
        assert!(snapshot.report.clean());
        assert!(!snapshot.plans.is_empty(), "some records persisted");
        assert!(snapshot.plans.len() <= 64);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    fn journal_submit(job_id: u64, budget: u64) -> JournalRecord {
        JournalRecord::Submitted {
            job_id,
            tenant: "acme".to_owned(),
            market: MarketId::DEFAULT,
            task_set: {
                let mut set = TaskSet::new();
                let ty = set.add_type("vote", 2.0).unwrap();
                set.add_tasks(ty, 3, 2).unwrap();
                set
            },
            budget,
            rate: RateSpec::Linear(LinearRate::unit_slope()),
            strategy: StrategyChoice::Auto,
            attempts: 0,
        }
    }

    /// Version back-compat: a journal written before markets existed (no
    /// `market` field on `Submitted` records) must recover **cleanly** —
    /// zero corrupt streams, zero corrupt tails, zero invalid records — with
    /// every pending job assigned the default market.
    #[test]
    fn pre_market_journal_recovers_onto_the_default_market() {
        let dir = scratch_dir("premarket");
        std::fs::create_dir_all(&dir).unwrap();
        // Produce fixture bytes identical to the pre-market format by
        // serializing current records and stripping the `market` key from
        // the Submitted body before writing the checksummed line.
        let mut content = format!("{}\n", Stream::Journal.header());
        for record in [journal_submit(3, 44), journal_submit(7, 61)] {
            let mut value = record.serialize_value();
            let serde::Value::Obj(variants) = &mut value else {
                panic!("journal records serialize as externally-tagged objects");
            };
            let serde::Value::Obj(body) = &mut variants[0].1 else {
                panic!("the Submitted body serializes as an object");
            };
            let fields = body.len();
            body.retain(|(key, _)| key != "market");
            assert_eq!(body.len(), fields - 1, "fixture must strip the field");
            content.push_str(&record_line(&serde_json::to_string(&value).unwrap()));
        }
        let completed = serde_json::to_string(&JournalRecord::Completed { job_id: 3 }).unwrap();
        content.push_str(&record_line(&completed));
        std::fs::write(dir.join(Stream::Journal.file_name()), content).unwrap();

        let (_store, snapshot) = PlanStore::open(&dir).unwrap();
        assert!(snapshot.report.clean(), "{:?}", snapshot.report);
        assert_eq!(snapshot.report.invalid_records, 0);
        assert_eq!(snapshot.pending_jobs.len(), 1);
        let job = &snapshot.pending_jobs[0];
        assert_eq!(job.job_id, 7);
        assert_eq!(job.budget, 61);
        assert_eq!(
            job.market,
            MarketId::DEFAULT,
            "pre-market records recover onto the default market"
        );
        assert_eq!(snapshot.max_job_id, 7);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The fsync knob: `PerBatch` syncs every touched stream (observable in
    /// the new counter), `Off` — the default — never does, and neither mode
    /// changes what a reload sees.
    #[test]
    fn fsync_policy_per_batch_syncs_and_off_does_not() {
        let dir = scratch_dir("fsync");
        {
            let (store, _) = PlanStore::open_with(
                &dir,
                StoreOptions {
                    fsync: FsyncPolicy::PerBatch,
                    ..StoreOptions::default()
                },
            )
            .unwrap();
            store.record_plan(1, &plan(1), WhenFull::DropOldest, None);
            store.record_plan(2, &plan(2), WhenFull::DropOldest, None);
            store.flush();
            let stats = store.stats();
            assert!(stats.fsyncs >= 1, "per-batch policy must fsync: {stats:?}");
            assert_eq!(stats.write_errors, 0);
        }
        {
            // An interval of zero degenerates to per-batch: every batch
            // crosses the (elapsed) interval.
            let (store, snapshot) = PlanStore::open_with(
                &dir,
                StoreOptions {
                    fsync: FsyncPolicy::Interval(std::time::Duration::ZERO),
                    ..StoreOptions::default()
                },
            )
            .unwrap();
            assert_eq!(snapshot.plans.len(), 2);
            store.record_plan(3, &plan(3), WhenFull::DropOldest, None);
            store.flush();
            assert!(store.stats().fsyncs >= 1);
        }
        let (store, snapshot) = PlanStore::open(&dir).unwrap();
        assert_eq!(snapshot.plans.len(), 3, "all policies persist identically");
        store.record_plan(4, &plan(4), WhenFull::DropOldest, None);
        store.flush();
        assert_eq!(store.stats().fsyncs, 0, "default policy never fsyncs");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The interval promise holds for an *idle* store too: a batch written
    /// just before the workload stops must still be synced once the
    /// interval elapses, without waiting for further records (the writer
    /// sleeps with a timeout while streams are dirty).
    #[test]
    fn fsync_interval_syncs_an_idle_store() {
        let dir = scratch_dir("fsync-idle");
        let (store, _) = PlanStore::open_with(
            &dir,
            StoreOptions {
                fsync: FsyncPolicy::Interval(std::time::Duration::from_millis(20)),
                ..StoreOptions::default()
            },
        )
        .unwrap();
        store.record_plan(1, &plan(1), WhenFull::DropOldest, None);
        store.flush();
        // No more records arrive. The dirty stream must be synced within
        // the interval (generous deadline for slow CI).
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        while store.stats().fsyncs == 0 && std::time::Instant::now() < deadline {
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        assert!(
            store.stats().fsyncs >= 1,
            "idle store must still sync on the interval: {:?}",
            store.stats()
        );
        drop(store);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A long-interval policy holds its syncs until close: the final drain
    /// bounds the power-loss window even when the interval never elapsed.
    #[test]
    fn fsync_interval_syncs_dirty_streams_on_close() {
        let dir = scratch_dir("fsync-close");
        let (store, _) = PlanStore::open_with(
            &dir,
            StoreOptions {
                fsync: FsyncPolicy::Interval(std::time::Duration::from_secs(3600)),
                ..StoreOptions::default()
            },
        )
        .unwrap();
        store.record_plan(1, &plan(1), WhenFull::DropOldest, None);
        store.flush();
        drop(store);
        let (store, snapshot) = PlanStore::open(&dir).unwrap();
        assert_eq!(snapshot.plans.len(), 1);
        drop(store);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Open-time journal retirement: matched `Submitted`/`Completed` pairs
    /// are rewritten away, the journal file shrinks across restarts (down to
    /// the pending records plus one id watermark), and neither the pending
    /// set nor the id counter changes.
    #[test]
    fn journal_retires_matched_pairs_at_open() {
        let dir = scratch_dir("journal-retire");
        {
            let (store, _) = PlanStore::open(&dir).unwrap();
            for id in 0..32u64 {
                store.record_journal(&journal_submit(id, 40 + id));
                // Jobs 0..30 complete; job 31 stays in flight.
                if id != 31 {
                    store.record_journal(&JournalRecord::Completed { job_id: id });
                }
            }
            store.flush();
        }
        let grown = std::fs::metadata(dir.join("journal.log")).unwrap().len();
        let (_store, snapshot) = PlanStore::open(&dir).unwrap();
        assert_eq!(snapshot.retired_journal_records, 62, "31 matched pairs");
        assert_eq!(snapshot.pending_jobs.len(), 1);
        assert_eq!(snapshot.pending_jobs[0].job_id, 31);
        assert_eq!(snapshot.max_job_id, 31);
        let shrunk = std::fs::metadata(dir.join("journal.log")).unwrap().len();
        assert!(
            shrunk < grown / 8,
            "journal must shrink substantially ({grown} -> {shrunk})"
        );
        // A second restart is already minimal: nothing further retires and
        // the recovery view is unchanged.
        let (_store, snapshot) = PlanStore::open(&dir).unwrap();
        assert_eq!(snapshot.retired_journal_records, 0);
        assert_eq!(snapshot.pending_jobs.len(), 1);
        assert_eq!(snapshot.max_job_id, 31);
        assert_eq!(
            std::fs::metadata(dir.join("journal.log")).unwrap().len(),
            shrunk
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// When every journaled job completed, the rewrite leaves only the id
    /// watermark — and the watermark keeps the id counter monotone across
    /// restarts (ids are never reused while any record could reference them).
    #[test]
    fn journal_watermark_preserves_the_id_counter() {
        let dir = scratch_dir("journal-watermark");
        {
            let (store, _) = PlanStore::open(&dir).unwrap();
            for id in 0..8u64 {
                store.record_journal(&journal_submit(id, 40));
                store.record_journal(&JournalRecord::Completed { job_id: id });
            }
            store.flush();
        }
        let (_store, snapshot) = PlanStore::open(&dir).unwrap();
        assert_eq!(snapshot.retired_journal_records, 15, "16 records -> 1");
        assert!(snapshot.pending_jobs.is_empty());
        assert_eq!(snapshot.max_job_id, 8 - 1, "watermark keeps the max id");
        // Stable from here on: the watermark survives restarts unchanged.
        let (_store, snapshot) = PlanStore::open(&dir).unwrap();
        assert_eq!(snapshot.retired_journal_records, 0);
        assert_eq!(snapshot.max_job_id, 7);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Stale plan records (an older estimator version, or none) are
    /// rewritten out of `plans.log` at open, so the next open neither loads
    /// nor counts them. A newer version's record (this binary may be a
    /// rollback) and a payload that does not decode stay on disk byte for
    /// byte and count as invalid at every open; an open that finds no stale
    /// record leaves the file byte-identical.
    #[test]
    fn stale_plan_records_are_rewritten_away_at_open() {
        let dir = scratch_dir("stale-plans");
        std::fs::create_dir_all(&dir).unwrap();
        let versioned = |fingerprint: u64, estimator: u32| {
            let record = PlanRecord {
                fingerprint,
                estimator,
                plan: plan(fingerprint),
            };
            serde_json::to_string(&record).unwrap()
        };
        let unversioned = versioned(3, ESTIMATOR_VERSION).replacen(
            &format!(",\"estimator\":{ESTIMATOR_VERSION}"),
            "",
            1,
        );
        let header = format!("{}\n", Stream::Plans.header());
        let kept = [
            record_line(&versioned(1, ESTIMATOR_VERSION)),
            record_line(&versioned(4, ESTIMATOR_VERSION + 1)),
            record_line("{\"fingerprint\":5}"),
            record_line(&versioned(6, ESTIMATOR_VERSION)),
        ];
        let stale = [
            record_line(&versioned(2, ESTIMATOR_VERSION - 1)),
            record_line(&unversioned),
        ];
        let path = dir.join("plans.log");
        let written = [
            &header, &kept[0], &stale[0], &kept[1], &stale[1], &kept[2], &kept[3],
        ];
        std::fs::write(&path, written.map(String::as_str).concat()).unwrap();

        let (store, snapshot) = PlanStore::open(&dir).unwrap();
        assert_eq!(snapshot.report.invalid_records, 4, "{:?}", snapshot.report);
        let loaded: Vec<u64> = snapshot.plans.iter().map(|r| r.fingerprint).collect();
        assert_eq!(loaded, [1, 6]);
        drop(store);
        let rewritten = std::fs::read_to_string(&path).unwrap();
        assert_eq!(rewritten, header.clone() + &kept.concat());

        let (store, snapshot) = PlanStore::open(&dir).unwrap();
        assert_eq!(snapshot.report.invalid_records, 2, "{:?}", snapshot.report);
        assert_eq!(snapshot.plans.len(), 2);
        drop(store);
        assert_eq!(std::fs::read_to_string(&path).unwrap(), rewritten);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncated_tail_drops_only_the_suffix() {
        let dir = scratch_dir("truncate");
        {
            let (store, _) = PlanStore::open(&dir).unwrap();
            for i in 0..4u64 {
                store.record_plan(i, &plan(i), WhenFull::DropOldest, None);
            }
            store.flush();
        }
        let path = dir.join("plans.log");
        let bytes = std::fs::read(&path).unwrap();
        // Cut mid-way through the last record (simulating a crash mid-write).
        std::fs::write(&path, &bytes[..bytes.len() - 7]).unwrap();
        let (store, snapshot) = PlanStore::open(&dir).unwrap();
        assert_eq!(snapshot.report.corrupt_tails, 1);
        assert_eq!(snapshot.plans.len(), 3, "good prefix survives");
        // Appending after recovery lands cleanly after the truncated point.
        store.record_plan(99, &plan(99), WhenFull::DropOldest, None);
        store.flush();
        drop(store);
        let (_store, snapshot) = PlanStore::open(&dir).unwrap();
        assert!(snapshot.report.clean());
        assert_eq!(snapshot.plans.len(), 4);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bit_flip_invalidates_the_record_and_its_suffix() {
        let dir = scratch_dir("bitflip");
        {
            let (store, _) = PlanStore::open(&dir).unwrap();
            for i in 0..5u64 {
                store.record_plan(i, &plan(i), WhenFull::DropOldest, None);
            }
            store.flush();
        }
        let path = dir.join("plans.log");
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip one bit inside the third record's payload.
        let mut newlines = 0usize;
        let mut target = None;
        for (i, &b) in bytes.iter().enumerate() {
            if b == b'\n' {
                newlines += 1;
                if newlines == 3 {
                    target = Some(i + 24);
                    break;
                }
            }
        }
        let target = target.unwrap();
        bytes[target] ^= 0x10;
        std::fs::write(&path, &bytes).unwrap();
        let (_store, snapshot) = PlanStore::open(&dir).unwrap();
        assert_eq!(snapshot.report.corrupt_tails, 1);
        assert_eq!(
            snapshot.plans.len(),
            2,
            "records before the flipped one survive; the rest are dropped"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn version_mismatch_starts_the_stream_cold() {
        let dir = scratch_dir("version");
        {
            let (store, _) = PlanStore::open(&dir).unwrap();
            store.record_plan(1, &plan(1), WhenFull::DropOldest, None);
            store.flush();
        }
        let path = dir.join("plans.log");
        let text = std::fs::read_to_string(&path).unwrap();
        let bumped = text.replace("crowdtune-store v1", "crowdtune-store v2");
        assert_ne!(text, bumped);
        std::fs::write(&path, bumped).unwrap();
        let (store, snapshot) = PlanStore::open(&dir).unwrap();
        assert_eq!(snapshot.report.corrupt_streams, 1);
        assert!(snapshot.plans.is_empty(), "unknown version loads nothing");
        // The unreadable bytes are sidelined, not destroyed: a rolled-back
        // binary must never wipe a newer format's durable state.
        let parked = std::fs::read_to_string(dir.join("plans.log.unreadable")).unwrap();
        assert!(parked.starts_with("crowdtune-store v2"));
        // The stream restarts under the current header and works again.
        store.record_plan(2, &plan(2), WhenFull::DropOldest, None);
        store.flush();
        drop(store);
        let (_store, snapshot) = PlanStore::open(&dir).unwrap();
        assert!(snapshot.report.clean());
        assert_eq!(snapshot.plans.len(), 1);
        assert_eq!(snapshot.plans[0].fingerprint, 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A crash can cut a stream exactly at the end of a payload, before its
    /// newline: the checksum of that line passes, but accepting it would
    /// make the next append merge onto it and corrupt both records at the
    /// following recovery. The unterminated line must be dropped instead.
    #[test]
    fn unterminated_final_line_is_dropped_even_with_a_valid_checksum() {
        let dir = scratch_dir("no-newline");
        {
            let (store, _) = PlanStore::open(&dir).unwrap();
            for i in 0..3u64 {
                store.record_plan(i, &plan(i), WhenFull::DropOldest, None);
            }
            store.flush();
        }
        let path = dir.join("plans.log");
        let bytes = std::fs::read(&path).unwrap();
        assert_eq!(bytes.last(), Some(&b'\n'));
        std::fs::write(&path, &bytes[..bytes.len() - 1]).unwrap();
        // First recovery: the final record is checksum-valid but
        // unterminated — dropped and truncated away.
        let (store, snapshot) = PlanStore::open(&dir).unwrap();
        assert_eq!(snapshot.report.corrupt_tails, 1);
        assert_eq!(snapshot.plans.len(), 2);
        // Appends land on a clean prefix: the next recovery sees every
        // surviving record plus the new one, with no merged-line damage.
        store.record_plan(9, &plan(9), WhenFull::DropOldest, None);
        store.flush();
        drop(store);
        let (_store, snapshot) = PlanStore::open(&dir).unwrap();
        assert!(snapshot.report.clean());
        assert_eq!(snapshot.plans.len(), 3);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Backoff is pure and bounded: doubling from `BASE_DELAY`, capped at
    /// `MAX_DELAY`, jitter strictly inside `[0, delay/2)`, and the same
    /// `(attempt, seed)` always yields the same delay — so retry timing is
    /// testable without a clock.
    #[test]
    fn backoff_delay_doubles_caps_and_jitters_deterministically() {
        for seed in [0u64, 1, 0xdead_beef_cafe] {
            for attempt in 1..=10u32 {
                let scaled = (BASE_DELAY * (1 << (attempt - 1).min(20))).min(MAX_DELAY);
                let delay = backoff_delay(attempt, seed);
                assert!(
                    delay >= scaled,
                    "attempt {attempt}: {delay:?} below the exponential floor"
                );
                assert!(
                    delay < scaled * 3 / 2,
                    "attempt {attempt}: {delay:?} exceeds floor + 50% jitter"
                );
                assert_eq!(
                    delay,
                    backoff_delay(attempt, seed),
                    "same (attempt, seed) must be deterministic"
                );
            }
        }
        // The jitter actually draws from the seed: two seeds disagree
        // somewhere in the ladder.
        assert!(
            (1..=10).any(|a| backoff_delay(a, 1) != backoff_delay(a, 2)),
            "jitter ignores the seed"
        );
    }

    /// Chaos-style injectable fault: fails the next `failures_left` appends,
    /// then succeeds forever (until re-armed).
    #[derive(Debug, Default)]
    struct FlakyFault {
        failures_left: Mutex<u32>,
    }

    impl FlakyFault {
        fn arm(self: &Arc<Self>, failures: u32) {
            *self.failures_left.lock().unwrap() = failures;
        }
    }

    impl WriteFault for FlakyFault {
        fn before_write(&self, _stream: &str, _bytes: &[u8]) -> std::io::Result<()> {
            let mut left = self.failures_left.lock().unwrap();
            if *left > 0 {
                *left = left.saturating_sub(1);
                return Err(std::io::Error::other("injected write failure"));
            }
            Ok(())
        }
    }

    /// Injected clock for the writer's backoff: records every requested
    /// delay instead of sleeping, so retry timing is asserted exactly.
    #[derive(Debug, Default)]
    struct RecordingSleeper {
        slept: Mutex<Vec<std::time::Duration>>,
    }

    impl Sleeper for RecordingSleeper {
        fn sleep(&self, duration: std::time::Duration) {
            self.slept.lock().unwrap().push(duration);
        }
    }

    fn faulted_options(fault: &Arc<FlakyFault>, sleeper: &Arc<RecordingSleeper>) -> StoreOptions {
        StoreOptions {
            write_fault: Some(fault.clone() as Arc<dyn WriteFault>),
            sleeper: sleeper.clone(),
            ..StoreOptions::default()
        }
    }

    /// Transient write failures are absorbed by the retry path: the record
    /// still persists, the backoff ladder ran (observable through the
    /// injected sleeper), the handle was re-opened after the consecutive-
    /// failure threshold, and the write path never reports impairment.
    #[test]
    fn transient_write_failures_retry_reopen_and_persist() {
        let dir = scratch_dir("retry");
        let fault = Arc::new(FlakyFault::default());
        let sleeper = Arc::new(RecordingSleeper::default());
        {
            let (store, _) = PlanStore::open_with(&dir, faulted_options(&fault, &sleeper)).unwrap();
            fault.arm(2); // REOPEN_AFTER = 2, MAX_RETRIES = 4
            store.record_plan(1, &plan(1), WhenFull::DropOldest, None);
            store.flush();
            let stats = store.stats();
            assert_eq!(stats.retries, 2, "{stats:?}");
            assert_eq!(stats.reopens, 1, "two consecutive failures re-open");
            assert_eq!(stats.write_errors, 0, "the record survived retries");
            assert!(!store.write_path_impaired());
            let slept = sleeper.slept.lock().unwrap().clone();
            assert_eq!(slept.len(), 2, "one backoff per retry");
            // Exponential ladder with jitter < 50%: 1ms then 2ms bases.
            assert!(slept[0] >= std::time::Duration::from_millis(1));
            assert!(slept[0] < std::time::Duration::from_micros(1500));
            assert!(slept[1] >= std::time::Duration::from_millis(2));
            assert!(slept[1] < std::time::Duration::from_millis(3));
        }
        let (_store, snapshot) = PlanStore::open(&dir).unwrap();
        assert!(snapshot.report.clean(), "{:?}", snapshot.report);
        assert_eq!(snapshot.plans.len(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A record that exhausts its retry budget is dropped and flips the
    /// write path to impaired (the health surface's store signal); the next
    /// successful append heals it automatically, and the stream stays
    /// byte-clean throughout — failed attempts never leave partial bytes.
    #[test]
    fn exhausted_retries_impair_and_the_next_success_heals() {
        let dir = scratch_dir("impair");
        let fault = Arc::new(FlakyFault::default());
        let sleeper = Arc::new(RecordingSleeper::default());
        {
            let (store, _) = PlanStore::open_with(&dir, faulted_options(&fault, &sleeper)).unwrap();
            fault.arm(u32::MAX); // persistent outage
            store.record_plan(1, &plan(1), WhenFull::DropOldest, None);
            store.flush();
            let stats = store.stats();
            assert_eq!(stats.write_errors, 1, "{stats:?}");
            assert_eq!(stats.retries, 4, "full retry budget spent");
            assert!(store.write_path_impaired(), "outage must impair");
            fault.arm(0); // the disk comes back
            store.record_plan(2, &plan(2), WhenFull::DropOldest, None);
            store.flush();
            assert!(
                !store.write_path_impaired(),
                "first successful append heals the write path"
            );
            assert_eq!(store.stats().write_errors, 1);
        }
        let (_store, snapshot) = PlanStore::open(&dir).unwrap();
        assert!(snapshot.report.clean(), "{:?}", snapshot.report);
        assert_eq!(snapshot.plans.len(), 1, "only the healed record persisted");
        assert_eq!(snapshot.plans[0].fingerprint, 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Holds the writer inside every append until the test releases it;
    /// dropping the release sender lets every later append through.
    struct GateFault {
        entered: Mutex<std::sync::mpsc::Sender<()>>,
        release: Mutex<std::sync::mpsc::Receiver<()>>,
    }

    impl WriteFault for GateFault {
        fn before_write(&self, _stream: &str, _bytes: &[u8]) -> std::io::Result<()> {
            let _ = self.entered.lock().unwrap().send(());
            let _ = self.release.lock().unwrap().recv();
            Ok(())
        }
    }

    /// A store whose writer stops inside each append: the first channel
    /// yields once per append reached, the second lets one through.
    fn gated_store(
        dir: &Path,
        queue_capacity: usize,
    ) -> (
        Arc<PlanStore>,
        std::sync::mpsc::Receiver<()>,
        std::sync::mpsc::Sender<()>,
    ) {
        let (entered_tx, entered) = std::sync::mpsc::channel();
        let (release, release_rx) = std::sync::mpsc::channel();
        let fault = GateFault {
            entered: Mutex::new(entered_tx),
            release: Mutex::new(release_rx),
        };
        let options = StoreOptions {
            queue_capacity,
            write_fault: Some(Arc::new(fault)),
            ..StoreOptions::default()
        };
        let (store, _) = PlanStore::open_with(dir, options).unwrap();
        (store, entered, release)
    }

    /// Every retire-hook call: the record's fingerprint, whether it was
    /// written, and its queue time.
    type RetireLog = Arc<Mutex<Vec<(u64, bool, std::time::Duration)>>>;

    fn logged(log: &RetireLog, fingerprint: u64) -> Option<RetireHook> {
        let log = log.clone();
        Some(Box::new(move |written, queued| {
            log.lock().unwrap().push((fingerprint, written, queued));
        }))
    }

    /// The retire-hook contract: a written record calls its hook once, with
    /// `true` and its queue time; a record that exhausts its retries calls
    /// it once, with `false`; a record shed by drop-oldest never calls it,
    /// and the shed drops the hook with whatever it holds.
    #[test]
    fn retire_hooks_run_once_per_retired_record_and_never_for_a_shed_one() {
        let log = RetireLog::default();
        let held_for = std::time::Duration::from_millis(5);
        let written_dir = scratch_dir("hook-written");
        {
            let (store, entered, release) = gated_store(&written_dir, 16);
            let started = std::time::Instant::now();
            store.record_plan(1, &plan(1), WhenFull::DropOldest, logged(&log, 1));
            entered.recv().unwrap();
            std::thread::sleep(held_for);
            release.send(()).unwrap();
            store.flush();
            let elapsed = started.elapsed();
            let calls = log.lock().unwrap().clone();
            assert_eq!(calls.len(), 1, "{calls:?}");
            let (fingerprint, written, queued) = calls[0];
            assert_eq!((fingerprint, written), (1, true));
            assert!(
                queued >= held_for && queued <= elapsed,
                "queue time {queued:?} must cover the held append ({held_for:?}) \
                 and fit in the call ({elapsed:?})"
            );
        }

        let failed_dir = scratch_dir("hook-failed");
        let fault = Arc::new(FlakyFault::default());
        let sleeper = Arc::new(RecordingSleeper::default());
        {
            let (store, _) =
                PlanStore::open_with(&failed_dir, faulted_options(&fault, &sleeper)).unwrap();
            fault.arm(u32::MAX);
            store.record_plan(2, &plan(2), WhenFull::DropOldest, logged(&log, 2));
            store.flush();
            assert_eq!(store.stats().write_errors, 1);
        }

        let shed_dir = scratch_dir("hook-shed");
        {
            let (store, entered, release) = gated_store(&shed_dir, 1);
            store.record_plan(3, &plan(3), WhenFull::DropOldest, None);
            // The writer holds record 3 inside its append; the queue is empty.
            entered.recv().unwrap();
            let held = Arc::new(());
            let shed_hook: RetireHook = {
                let (held, log) = (held.clone(), log.clone());
                Box::new(move |written, queued| {
                    drop(held);
                    log.lock().unwrap().push((4, written, queued));
                })
            };
            store.record_plan(4, &plan(4), WhenFull::DropOldest, Some(shed_hook));
            store.record_plan(5, &plan(5), WhenFull::DropOldest, logged(&log, 5));
            assert_eq!(store.stats().dropped, 1, "record 4 is shed for record 5");
            assert_eq!(Arc::strong_count(&held), 1, "the shed dropped its hook");
            drop(release);
            store.flush();
        }
        let calls: Vec<(u64, bool)> = log
            .lock()
            .unwrap()
            .iter()
            .map(|&(fingerprint, written, _)| (fingerprint, written))
            .collect();
        assert_eq!(calls, [(1, true), (2, false), (5, true)]);
        for dir in [written_dir, failed_dir, shed_dir] {
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    /// Version back-compat for the fault-tolerance journal extensions: a
    /// journal written before `attempts` existed decodes with `attempts: 0`,
    /// and the new terminal `Failed` record retires a pending job exactly
    /// like `Completed` does.
    #[test]
    fn pre_attempts_journal_decodes_and_failed_is_terminal() {
        let dir = scratch_dir("attempts-compat");
        std::fs::create_dir_all(&dir).unwrap();
        let mut content = format!("{}\n", Stream::Journal.header());
        for record in [journal_submit(3, 44), journal_submit(7, 61)] {
            let mut value = record.serialize_value();
            let serde::Value::Obj(variants) = &mut value else {
                panic!("journal records serialize as externally-tagged objects");
            };
            let serde::Value::Obj(body) = &mut variants[0].1 else {
                panic!("the Submitted body serializes as an object");
            };
            let fields = body.len();
            body.retain(|(key, _)| key != "attempts");
            assert_eq!(body.len(), fields - 1, "fixture must strip the field");
            content.push_str(&record_line(&serde_json::to_string(&value).unwrap()));
        }
        let failed = serde_json::to_string(&JournalRecord::Failed { job_id: 3 }).unwrap();
        content.push_str(&record_line(&failed));
        std::fs::write(dir.join(Stream::Journal.file_name()), content).unwrap();

        let (_store, snapshot) = PlanStore::open(&dir).unwrap();
        assert!(snapshot.report.clean(), "{:?}", snapshot.report);
        assert_eq!(snapshot.report.invalid_records, 0);
        assert_eq!(
            snapshot.pending_jobs.len(),
            1,
            "`Failed` retires job 3 terminally"
        );
        let job = &snapshot.pending_jobs[0];
        assert_eq!(job.job_id, 7);
        assert_eq!(job.attempts, 0, "pre-attempts records decode as attempt 0");
        assert_eq!(
            snapshot.max_job_id, 7,
            "failed ids still advance the id counter"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Replay re-journaling relies on last-Submitted-wins: a job re-recorded
    /// with a bumped attempt count reduces to one pending entry carrying the
    /// latest count, in first-submission order.
    #[test]
    fn latest_submitted_record_wins_with_stable_order() {
        let dir = scratch_dir("attempts-dedupe");
        {
            let (store, _) = PlanStore::open(&dir).unwrap();
            store.record_journal(&journal_submit(1, 10));
            store.record_journal(&journal_submit(2, 20));
            // The replay bump: job 1 re-submitted with two attempts burned.
            let bumped = match journal_submit(1, 10) {
                JournalRecord::Submitted {
                    job_id,
                    tenant,
                    market,
                    task_set,
                    budget,
                    rate,
                    strategy,
                    ..
                } => JournalRecord::Submitted {
                    job_id,
                    tenant,
                    market,
                    task_set,
                    budget,
                    rate,
                    strategy,
                    attempts: 2,
                },
                _ => unreachable!(),
            };
            store.record_journal(&bumped);
            store.flush();
        }
        let (_store, snapshot) = PlanStore::open(&dir).unwrap();
        assert!(snapshot.report.clean());
        assert_eq!(snapshot.pending_jobs.len(), 2, "no duplicate pending entry");
        assert_eq!(
            snapshot.pending_jobs[0].job_id, 1,
            "first-submission order survives the overwrite"
        );
        assert_eq!(snapshot.pending_jobs[0].attempts, 2, "latest record wins");
        assert_eq!(snapshot.pending_jobs[1].job_id, 2);
        assert_eq!(snapshot.pending_jobs[1].attempts, 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
