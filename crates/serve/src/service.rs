//! The tuning service: a pool of tuner workers draining the multi-tenant
//! [`JobQueue`], with two reuse layers in front of the solver — the
//! exact-match sharded [`PlanCache`] and the cross-budget
//! [`PlanFamilies`] store.
//!
//! Submissions return a [`JobHandle`] immediately. An exact cache hit is
//! answered on the submitting thread: the handle already holds the plan, and
//! the job writes no journal record, takes no queue slot and never reaches
//! a worker. Every other job is journaled (with a durable store), queued,
//! and delivered through the handle when a worker finishes. The service is
//! deliberately transport-agnostic — an HTTP/gRPC front-end is a thin layer
//! over [`TuningService::submit_observed`] (see ROADMAP).

use crate::cache::{CacheStats, PlanCache};
use crate::family::{FamilyServe, FamilyStats, PlanFamilies};
use crate::fingerprint::{FamilyFingerprint, PlanFingerprint};
use crate::health::{HealthSignals, HealthState};
use crate::queue::{AdmissionError, AdmissionPolicy, JobQueue};
use crate::retuner::{RetunePolicy, Retuner};
use crate::router::{MarketRouter, RoutedPlan};
use crate::store::{JournalRecord, PlanStore, StoreError, StoreOptions, StoreSnapshot, StoreStats};
use crowdtune_core::algorithms::MAX_TABLE_PAYMENT;
use crowdtune_core::error::CoreError;
use crowdtune_core::market::MarketId;
use crowdtune_core::money::Budget;
use crowdtune_core::problem::{HTuningProblem, Scenario};
use crowdtune_core::rate::{LinearRate, RateModel, TabulatedRate};
use crowdtune_core::task::TaskSet;
use crowdtune_core::tuner::{StrategyChoice, TunedPlan, Tuner};
use crowdtune_market::MarketRegistry;
use crowdtune_obs::{
    ActiveTrace, Counter, Gauge, Histogram, JobTrace, LogLevel, Logger, LoggerConfig, Registry,
    SlowestRing, TraceStart, Tracer, TracerConfig,
};
use std::any::Any;
use std::cell::{Cell, RefCell};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// One tuning job as submitted by a tenant.
#[derive(Clone)]
pub struct JobRequest {
    /// Tenant identifier; fairness and per-tenant admission are keyed on it.
    pub tenant: String,
    /// The market the job is tuned against. Jobs naming a market the
    /// service does not know are rejected at the door; services started
    /// without an explicit registry run one default market, so
    /// [`MarketId::DEFAULT`] always exists.
    pub market: MarketId,
    /// The job's atomic tasks.
    pub task_set: TaskSet,
    /// Total budget.
    pub budget: Budget,
    /// The tenant's current market belief.
    pub rate_model: Arc<dyn RateModel>,
    /// Strategy override; `Auto` picks EA/RA/HA per scenario.
    pub strategy: StrategyChoice,
}

impl fmt::Debug for JobRequest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("JobRequest")
            .field("tenant", &self.tenant)
            .field("market", &self.market)
            .field("tasks", &self.task_set.len())
            .field("budget", &self.budget)
            .finish()
    }
}

/// Which reuse layer (if any) answered a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PlanSource {
    /// Exact-match hit in the [`PlanCache`]: same workload, same budget.
    CacheHit,
    /// Answered from a resident plan family: same workload, different
    /// budget — a prefix read or in-place extension of the family's shared
    /// DP table.
    FamilyHit,
    /// A full cold solve (which seeds the family for eligible jobs).
    ColdSolve,
}

/// A completed tuning job.
#[derive(Debug, Clone)]
pub struct ServedPlan {
    /// Service-assigned job id.
    pub job_id: u64,
    /// The tuned plan. Cache hits share the same `Arc` as the original cold
    /// solve, and family hits are bit-identical to a cold solve at the job's
    /// budget by construction.
    pub plan: Arc<TunedPlan>,
    /// Which reuse layer answered the job.
    pub source: PlanSource,
}

impl ServedPlan {
    /// Whether the plan was reused (exact-match or family) rather than
    /// solved cold.
    pub fn reused(&self) -> bool {
        self.source != PlanSource::ColdSolve
    }
}

/// Errors a submission can surface.
#[derive(Debug)]
pub enum ServeError {
    /// Refused at the door by admission control.
    Admission(AdmissionError),
    /// The solver rejected the problem (e.g. insufficient budget).
    Tuning(CoreError),
    /// The worker processing the job disappeared (service shut down).
    WorkerGone,
    /// The job's solve panicked inside the worker (a hostile objective or
    /// rate model). The worker caught it and keeps serving — only this job
    /// failed, and its journal record is retired with a terminal `Failed`
    /// entry so recovery never replays the poison job.
    WorkerPanic {
        /// The panic payload rendered to text (when it carried one).
        detail: String,
    },
    /// The worker thread serving the job died mid-job (e.g. a chaos-injected
    /// [`WorkerDeath`]). The supervisor respawns the worker; this job fails
    /// with its journal record retired.
    WorkerLost,
    /// The durable store could not be opened (I/O failure). Runtime write
    /// failures never surface here — they only degrade durability (see
    /// [`StoreStats::write_errors`]).
    Store(StoreError),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Admission(e) => write!(f, "admission: {e}"),
            ServeError::Tuning(e) => write!(f, "tuning: {e}"),
            ServeError::WorkerGone => f.write_str("service shut down before the job completed"),
            ServeError::WorkerPanic { detail } => {
                write!(f, "the job's solve panicked in the worker: {detail}")
            }
            ServeError::WorkerLost => {
                f.write_str("the worker thread serving the job died (respawned)")
            }
            ServeError::Store(e) => write!(f, "store: {e}"),
        }
    }
}

/// Panic payload that instructs a worker thread to die instead of surviving
/// the panic: `std::panic::panic_any(WorkerDeath)` inside a solve kills the
/// worker (the supervisor respawns it, the job fails with
/// [`ServeError::WorkerLost`]), where any other panic payload is contained
/// to the job. Exists for the chaos harness — production code never throws
/// it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerDeath;

impl std::error::Error for ServeError {}

impl From<AdmissionError> for ServeError {
    fn from(e: AdmissionError) -> Self {
        ServeError::Admission(e)
    }
}

impl From<StoreError> for ServeError {
    fn from(e: StoreError) -> Self {
        ServeError::Store(e)
    }
}

/// Handle to a submitted job; resolves to the plan.
#[derive(Debug)]
pub struct JobHandle {
    /// Service-assigned job id.
    pub job_id: u64,
    delivery: Delivery,
    /// Set once [`JobHandle::try_result`] has handed out the outcome, so
    /// later polls answer `WorkerGone` without consulting the channel — the
    /// worker may still hold its sender (completion hook, telemetry fold)
    /// for a while after the send.
    delivered: Cell<bool>,
}

/// Where a [`JobHandle`]'s outcome comes from.
#[derive(Debug)]
enum Delivery {
    /// Answered at submit (an exact cache hit): the plan is held in place
    /// until [`JobHandle::try_result`] or [`JobHandle::wait`] takes it.
    Answered(RefCell<Option<ServedPlan>>),
    /// Queued: the worker sends the outcome.
    Queued(mpsc::Receiver<Result<ServedPlan, ServeError>>),
}

/// A completion hook for event-driven front-ends: invoked with the job id
/// exactly once, after the outcome is deliverable via
/// [`JobHandle::try_result`]. A job answered at submit never invokes it —
/// check [`JobHandle::answered_at_submit`] — and neither does a refused
/// submit. See [`TuningService::submit_observed`].
pub type CompletionNotify = Arc<dyn Fn(u64) + Send + Sync>;

/// Fires the completion hook exactly once — normally right after the worker
/// delivers the outcome, but also on drop, so a job discarded while still
/// queued (service drain, queue teardown) still wakes its observer instead
/// of leaving an event loop parked on a notification that never comes (the
/// observer then reads [`ServeError::WorkerGone`] from the dropped channel).
/// A job the queue refuses is disarmed before it drops: its submitter gets
/// the error instead.
struct NotifyOnce {
    job_id: u64,
    hook: Option<CompletionNotify>,
}

impl NotifyOnce {
    fn fire(&mut self) {
        if let Some(hook) = self.hook.take() {
            hook(self.job_id);
        }
    }
}

impl Drop for NotifyOnce {
    fn drop(&mut self) {
        self.fire();
    }
}

impl JobHandle {
    fn new(job_id: u64, delivery: Delivery) -> JobHandle {
        JobHandle {
            job_id,
            delivery,
            delivered: Cell::new(false),
        }
    }

    /// Whether the job was answered at submit (an exact cache hit): its
    /// outcome is readable right away and its completion hook never fires.
    pub fn answered_at_submit(&self) -> bool {
        matches!(self.delivery, Delivery::Answered(_))
    }

    /// Blocks until the job completes.
    pub fn wait(self) -> Result<ServedPlan, ServeError> {
        match self.delivery {
            Delivery::Answered(plan) => plan.into_inner().ok_or(ServeError::WorkerGone),
            Delivery::Queued(receiver) => receiver.recv().unwrap_or(Err(ServeError::WorkerGone)),
        }
    }

    /// Non-blocking poll: `None` while the job is still in flight, the
    /// outcome once it is delivered. The outcome is delivered **once** — a
    /// transport front-end polling on behalf of a client must retain it; a
    /// later call reports [`ServeError::WorkerGone`].
    pub fn try_result(&self) -> Option<Result<ServedPlan, ServeError>> {
        if self.delivered.get() {
            return Some(Err(ServeError::WorkerGone));
        }
        let outcome = match &self.delivery {
            Delivery::Answered(plan) => plan.take().ok_or(ServeError::WorkerGone),
            Delivery::Queued(receiver) => match receiver.try_recv() {
                Ok(outcome) => outcome,
                Err(mpsc::TryRecvError::Empty) => return None,
                Err(mpsc::TryRecvError::Disconnected) => return Some(Err(ServeError::WorkerGone)),
            },
        };
        self.delivered.set(true);
        Some(outcome)
    }
}

/// How much the service records per job. Counters, gauges and the logger
/// stay live at every level: they are the same cells the stats snapshots
/// read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ObsLevel {
    /// No per-job recording: no stage stamps, stage histograms,
    /// slowest-trace ring or spans (the instrumentation-overhead guard's
    /// baseline).
    Off,
    /// Stage stamps, per-stage histograms and the slowest-trace ring, but
    /// no span trees.
    Metrics,
    /// Everything [`ObsLevel::Metrics`] records, plus causal span trees:
    /// every job accumulates spans into an [`ActiveTrace`], and the
    /// [`Tracer`] built from this policy (head-sample rate, slow threshold,
    /// span-store ring size) decides at completion whether the tree is kept
    /// (see [`TuningService::tracer`]).
    Traces(TracerConfig),
}

impl Default for ObsLevel {
    fn default() -> Self {
        ObsLevel::Traces(TracerConfig::default())
    }
}

/// Sizing of the service.
#[derive(Debug, Clone, Copy)]
pub struct ServiceConfig {
    /// Number of tuner worker threads.
    pub workers: usize,
    /// Queue depth limits.
    pub admission: AdmissionPolicy,
    /// Number of plan-cache shards.
    pub cache_shards: usize,
    /// Plans retained per shard.
    pub cache_capacity_per_shard: usize,
    /// Number of plan-family shards (each LRU-bounded; with a durable store
    /// attached, evicted families remain rehydratable from their persisted
    /// snapshots).
    pub family_shards: usize,
    /// How much is recorded per job; full traces by default.
    pub obs: ObsLevel,
    /// Level, rate-limit and ring policy of the structured logger. The
    /// logger is always live (its counters are part of the exposition
    /// contract); the level floor and rate limit bound its cost.
    pub logging: LoggerConfig,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(2),
            admission: AdmissionPolicy::default(),
            cache_shards: 8,
            cache_capacity_per_shard: 512,
            family_shards: 8,
            obs: ObsLevel::default(),
            logging: LoggerConfig::default(),
        }
    }
}

/// Service-level counters (monotone), backed by registry-shared cells: the
/// Prometheus scrape and [`TuningService::metrics`] read the same atomics.
#[derive(Debug, Default)]
pub struct ServiceMetrics {
    submitted: Counter,
    rejected: Counter,
    cache_hits: Counter,
    family_hits: Counter,
    cold_solves: Counter,
    solve_errors: Counter,
    worker_panics: Counter,
    worker_restarts: Counter,
}

impl ServiceMetrics {
    /// Registers the counter cells. Order is the scrape contract: the
    /// per-source "parts" (and failures) come before the `submitted`
    /// "whole", and every part increment strictly follows the matching
    /// `submitted` increment, so a concurrent scrape can never observe
    /// `cache + family + cold + failed > submitted`.
    fn register(&self, registry: &Registry) {
        for (source, cell) in [
            ("cache", &self.cache_hits),
            ("family", &self.family_hits),
            ("cold", &self.cold_solves),
        ] {
            registry.register_counter(
                "crowdtune_jobs_answered_total",
                "Jobs answered, by the reuse layer that produced the plan.",
                &[("source", source)],
                cell.clone(),
            );
        }
        registry.register_counter(
            "crowdtune_jobs_failed_total",
            "Jobs whose solve failed.",
            &[],
            self.solve_errors.clone(),
        );
        registry.register_counter(
            "crowdtune_jobs_submitted_total",
            "Jobs accepted: answered from the plan cache at submit, or queued.",
            &[],
            self.submitted.clone(),
        );
        registry.register_counter(
            "crowdtune_jobs_rejected_total",
            "Jobs refused by admission control (or shed while draining).",
            &[],
            self.rejected.clone(),
        );
        registry.register_counter(
            "crowdtune_worker_panics_total",
            "Job solves that panicked inside a worker (caught and contained).",
            &[],
            self.worker_panics.clone(),
        );
        registry.register_counter(
            "crowdtune_worker_restarts_total",
            "Dead worker threads respawned by the supervisor.",
            &[],
            self.worker_restarts.clone(),
        );
    }
}

/// Completed traces retained by the slowest-trace ring
/// (see [`TuningService::slowest_traces`]).
const SLOWEST_CAPACITY: usize = 32;

/// Scenario label values, indexed by [`scenario_index`].
const SCENARIO_LABELS: [&str; 3] = ["EA", "RA", "HA"];
/// Plan-source label values, indexed by [`source_index`].
const SOURCE_LABELS: [&str; 3] = ["cache", "family", "cold"];

fn scenario_index(scenario: Scenario) -> usize {
    match scenario {
        Scenario::Homogeneous => 0,
        Scenario::Repetition => 1,
        Scenario::Heterogeneous => 2,
    }
}

fn source_index(source: PlanSource) -> usize {
    match source {
        PlanSource::CacheHit => 0,
        PlanSource::FamilyHit => 1,
        PlanSource::ColdSolve => 2,
    }
}

/// Per-stage latency histograms, indexed `[market][scenario][source]`. The
/// market axis is bounded by the registry's static market set, so the label
/// cardinality is fixed at boot.
struct StageHists {
    queue_wait: Vec<[[Histogram; 3]; 3]>,
    solve: Vec<[[Histogram; 3]; 3]>,
    estimate: Vec<[[Histogram; 3]; 3]>,
    total: Vec<[[Histogram; 3]; 3]>,
    lock_wait: Vec<[[Histogram; 3]; 3]>,
    persist_lag: Vec<[[Histogram; 3]; 3]>,
}

/// One `{market, scenario, source}`-labelled family of nanosecond
/// histograms, exposed in seconds (scale `1e9`).
fn stage_family(
    registry: &Registry,
    name: &str,
    help: &str,
    markets: &[String],
) -> Vec<[[Histogram; 3]; 3]> {
    markets
        .iter()
        .map(|market| {
            std::array::from_fn(|si| {
                std::array::from_fn(|pi| {
                    registry.histogram(
                        name,
                        help,
                        &[
                            ("market", market.as_str()),
                            ("scenario", SCENARIO_LABELS[si]),
                            ("source", SOURCE_LABELS[pi]),
                        ],
                        1e9,
                    )
                })
            })
        })
        .collect()
}

/// The service's telemetry spine: the registry every layer publishes into,
/// the per-stage histograms, and the slowest-trace ring. With `enabled ==
/// false` ([`ObsLevel::Off`]) every stamp helper returns 0 and per-job
/// recording is skipped — the hot path pays one branch.
struct Telemetry {
    enabled: bool,
    /// Epoch for every [`JobTrace`] stamp taken by this service.
    epoch: Instant,
    registry: Arc<Registry>,
    /// Market names in registry order; the market axis of every stage
    /// histogram family is indexed by position in this list.
    market_names: Vec<String>,
    stage: StageHists,
    slowest: SlowestRing,
    /// The causal-tracing engine; `None` below [`ObsLevel::Traces`] — the
    /// hot path then pays exactly what it paid before spans existed.
    tracer: Option<Arc<Tracer>>,
    /// The structured logger (always live; level floor and rate
    /// limit bound its cost).
    logger: Arc<Logger>,
    pending_gauge: Gauge,
    draining_gauge: Gauge,
    cache_entries_gauge: Gauge,
    families_resident_gauge: Gauge,
    store_depth_gauge: Gauge,
    health_gauge: Gauge,
    workers_live_gauge: Gauge,
}

impl Telemetry {
    fn new(
        config: &ServiceConfig,
        registry: Arc<Registry>,
        market_names: Vec<String>,
    ) -> Telemetry {
        let stage = StageHists {
            queue_wait: stage_family(
                &registry,
                "crowdtune_job_queue_wait_seconds",
                "Time from tenant-lane visibility to worker pickup.",
                &market_names,
            ),
            solve: stage_family(
                &registry,
                "crowdtune_job_solve_seconds",
                "Time producing the plan (family-lock wait included).",
                &market_names,
            ),
            estimate: stage_family(
                &registry,
                "crowdtune_job_estimate_seconds",
                "Time attaching the analytic latency estimates to the plan.",
                &market_names,
            ),
            total: stage_family(
                &registry,
                "crowdtune_job_total_seconds",
                "End-to-end time from admission to response.",
                &market_names,
            ),
            lock_wait: stage_family(
                &registry,
                "crowdtune_job_family_lock_wait_seconds",
                "Time blocked on the plan-family entry lock.",
                &market_names,
            ),
            persist_lag: stage_family(
                &registry,
                "crowdtune_job_persist_lag_seconds",
                "Write-behind lag from plan enqueue to durable write.",
                &market_names,
            ),
        };
        let pending_gauge = registry.gauge(
            "crowdtune_jobs_pending",
            "Jobs currently waiting in the queue.",
            &[],
        );
        let draining_gauge = registry.gauge(
            "crowdtune_service_draining",
            "1 once a graceful drain has begun, else 0.",
            &[],
        );
        let cache_entries_gauge = registry.gauge(
            "crowdtune_cache_entries",
            "Plans resident in the exact-match cache.",
            &[],
        );
        let families_resident_gauge = registry.gauge(
            "crowdtune_families_resident",
            "Plan families resident in memory.",
            &[],
        );
        let store_depth_gauge = registry.gauge(
            "crowdtune_store_queue_depth",
            "Write-behind records waiting for the store writer.",
            &[],
        );
        let health_gauge = registry.gauge(
            "crowdtune_health_state",
            "Service health: 0 healthy, 1 degraded, 2 draining.",
            &[],
        );
        let workers_live_gauge = registry.gauge(
            "crowdtune_workers_live",
            "Tuner worker threads currently alive.",
            &[],
        );
        let tracer = match config.obs {
            ObsLevel::Traces(policy) => Some(Tracer::new(&registry, policy)),
            ObsLevel::Off | ObsLevel::Metrics => None,
        };
        let logger = Logger::new(&registry, config.logging);
        Telemetry {
            enabled: config.obs != ObsLevel::Off,
            epoch: Instant::now(),
            market_names,
            stage,
            slowest: SlowestRing::new(SLOWEST_CAPACITY),
            tracer,
            logger,
            pending_gauge,
            draining_gauge,
            cache_entries_gauge,
            families_resident_gauge,
            store_depth_gauge,
            health_gauge,
            workers_live_gauge,
            registry,
        }
    }

    /// Nanoseconds since the service epoch — 0 when telemetry is off (a
    /// zero stamp marks "not recorded" in a [`JobTrace`]). With tracing on,
    /// the tracer's epoch is the service epoch, so stage stamps and span
    /// boundaries live on one clock and [`JobTrace::record_spans`] can reuse
    /// the stamps verbatim.
    fn now_ns(&self) -> u64 {
        if !self.enabled {
            return 0;
        }
        match &self.tracer {
            Some(tracer) => tracer.now_ns(),
            None => self.epoch.elapsed().as_nanos() as u64,
        }
    }

    /// Histogram indices for a labelled trace; `None` when telemetry was
    /// off, the job never produced a plan (labels unset), or the trace
    /// names a market this service does not track (e.g. a replay from a
    /// registry that shrank across a restart).
    fn market_scenario_source(&self, trace: &JobTrace) -> Option<(usize, usize, usize)> {
        let mi = self
            .market_names
            .iter()
            .position(|name| *name == trace.market)?;
        let si = SCENARIO_LABELS.iter().position(|&s| s == trace.scenario)?;
        let pi = SOURCE_LABELS.iter().position(|&s| s == trace.source)?;
        Some((mi, si, pi))
    }

    /// Folds a completed trace into the per-stage histograms and offers it
    /// to the slowest ring.
    fn record_job(&self, trace: &JobTrace) {
        if let Some((mi, si, pi)) = self.market_scenario_source(trace) {
            self.stage.queue_wait[mi][si][pi].record(trace.queue_wait_ns());
            self.stage.solve[mi][si][pi].record(trace.solve_ns());
            self.stage.estimate[mi][si][pi].record(trace.estimate_ns());
            self.stage.total[mi][si][pi].record(trace.total_ns());
            if trace.family_lock_wait_ns > 0 {
                self.stage.lock_wait[mi][si][pi].record(trace.family_lock_wait_ns);
            }
        }
        // Failed/panicked jobs never set scenario/source labels, so they
        // skip the per-stage histograms above — but the slowest ring must
        // still see them: the worst outcomes are exactly what
        // `/v1/debug/slowest` exists to surface. They carry a non-`"ok"`
        // [`JobTrace::status`].
        self.slowest.offer(trace);
    }

    /// Folds a finished job's trace on the thread that answered it — the
    /// worker after responding, or the submitter for a hit answered at
    /// submit: [`Telemetry::record_job`], then the job's spans into its
    /// causal trace.
    fn finish_job(&self, trace: JobTrace, span: Option<&ActiveTrace>) {
        self.record_job(&trace);
        if let Some(active) = span {
            trace.record_spans(active);
        }
    }

    /// The persist-lag histogram matching the trace's labels, if any.
    fn persist_hist(&self, trace: &JobTrace) -> Option<&Histogram> {
        self.market_scenario_source(trace)
            .map(|(mi, si, pi)| &self.stage.persist_lag[mi][si][pi])
    }
}

/// A point-in-time snapshot of [`ServiceMetrics`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Jobs accepted: exact cache hits answered at submit plus jobs
    /// admitted into the queue.
    pub submitted: u64,
    /// Jobs refused by admission control.
    pub rejected: u64,
    /// Jobs answered by an exact-match plan-cache hit.
    pub cache_hits: u64,
    /// Jobs answered from a resident plan family (cross-budget reuse).
    pub family_hits: u64,
    /// Jobs answered by a full cold solve.
    pub cold_solves: u64,
    /// Jobs whose solve failed.
    pub solve_errors: u64,
    /// Job solves that panicked inside a worker (contained; counted in
    /// `solve_errors` too).
    pub worker_panics: u64,
    /// Dead worker threads respawned by the supervisor.
    pub worker_restarts: u64,
}

impl MetricsSnapshot {
    /// Jobs answered, however they were served:
    /// `cache_hits + family_hits + cold_solves`.
    pub fn completed(&self) -> u64 {
        self.cache_hits + self.family_hits + self.cold_solves
    }
}

struct QueuedJob {
    id: u64,
    request: JobRequest,
    /// Whether a `Submitted` journal record exists for this job (fresh
    /// journaled submits and recovery replays). Jobs without one must not
    /// journal a completion either — orphan `Completed` records would grow
    /// the uncompacted journal forever.
    journaled: bool,
    respond: mpsc::Sender<Result<ServedPlan, ServeError>>,
    /// Completion hook fired once the outcome is deliverable (or on drop,
    /// if the job is discarded unserved).
    notify: NotifyOnce,
    /// Stage stamps accumulated as the job moves through the pipeline
    /// (all zero when telemetry is off).
    trace: JobTrace,
    /// The live causal trace the job's spans join (`None` when tracing is
    /// off). Either minted at submit (in-process callers) or handed in by
    /// the transport front-end so the job span tree lands in the request's
    /// own trace.
    span: Option<ActiveTrace>,
    /// What the submit-time cache probe learned about the job.
    probed: Probed,
}

/// The causal trace a submitted job joins (tracing on).
enum JobSpan<'a> {
    /// The transport front-end's live request trace.
    Live(ActiveTrace),
    /// The job's own trace, begun at submit: it goes live when the job is
    /// queued, or when sampling would keep a cache hit's trace.
    Begun(TraceStart<'a>),
}

impl JobSpan<'_> {
    fn live(self) -> ActiveTrace {
        match self {
            JobSpan::Live(active) => active,
            JobSpan::Begun(start) => start.activate(),
        }
    }
}

/// What the submit-time cache probe hands a queued job's worker.
enum Probed {
    /// Nothing: a journal replay, or a problem that failed validation. The
    /// worker starts from the request.
    Nothing,
    /// The validated problem and its fingerprint: the cache missed at
    /// submit, so the worker looks again without fingerprinting again.
    Missed(HTuningProblem, PlanFingerprint),
    /// The tenant's model panicked in the probe. The worker re-raises the
    /// payload inside its own `catch_unwind`, so the job fails exactly as a
    /// panicking solve does — `WorkerDeath` included.
    Panicked(Box<dyn Any + Send>),
}

/// What [`TuningService::recover`] found and replayed. Read with
/// [`TuningService::recovery_stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Plans loaded into the exact-match cache.
    pub loaded_plans: u64,
    /// Validated family snapshots loaded into the rehydration archive.
    pub loaded_families: u64,
    /// Journaled in-flight jobs re-enqueued under their original ids.
    pub replayed_jobs: u64,
    /// Replayed jobs refused by admission control (they stay journaled and
    /// are retried on the next recovery, with their replay-attempt count
    /// bumped).
    pub dropped_replays: u64,
    /// Journaled jobs quarantined at recovery: their replay-attempt count
    /// exceeded the cap (a poison job that keeps killing the process, or a
    /// replay that keeps being refused), so a terminal `Failed` record was
    /// journaled instead of re-enqueueing them.
    pub quarantined: u64,
    /// Streams skipped whole for an unknown/mangled header.
    pub corrupt_streams: u64,
    /// Truncated or bit-flipped record suffixes dropped during replay.
    pub corrupt_tails: u64,
    /// Checksummed-valid records that failed semantic re-validation.
    pub invalid_records: u64,
}

/// One coherent observability snapshot of the whole service — the shape a
/// transport front-end (e.g. the `crowdtune-gateway` metrics endpoint)
/// reports. Read with [`TuningService::status`].
#[derive(Debug, Clone, Copy)]
pub struct ServiceStatus {
    /// Service-level counters.
    pub metrics: MetricsSnapshot,
    /// Exact-match plan-cache counters.
    pub cache: CacheStats,
    /// Plan-family counters.
    pub families: FamilyStats,
    /// Write-behind store counters (`None` without a store). Includes the
    /// backpressure loss counter [`StoreStats::dropped`], so operators can
    /// see write-behind records shed under load.
    pub store: Option<StoreStats>,
    /// What recovery loaded (`None` without a store).
    pub recovery: Option<RecoveryStats>,
    /// Jobs currently waiting in the queue.
    pub pending: usize,
    /// Whether [`TuningService::begin_drain`] was called.
    pub draining: bool,
}

/// Replay-attempt cap: a journaled job that recovery has already replayed
/// this many times (it keeps killing the process, or keeps being refused
/// by admission) is quarantined — a terminal `Failed` record retires it and
/// [`RecoveryStats::quarantined`] counts it — instead of being replayed
/// forever.
pub const REPLAY_ATTEMPT_LIMIT: u32 = 3;

/// Root span name of a job's own trace: the service begins one under this
/// name when a submit brings no trace, and an in-process caller starts one
/// under it to join the job to its own context.
pub const JOB_ROOT: &str = "job.submit";

/// Everything a worker thread reads, `Arc`-shared with the supervisor so a
/// dead worker can be respawned with identical wiring.
struct WorkerContext {
    queue: Arc<JobQueue<QueuedJob>>,
    cache: Arc<PlanCache>,
    families: Arc<PlanFamilies>,
    metrics: Arc<ServiceMetrics>,
    store: Option<Arc<PlanStore>>,
    telemetry: Arc<Telemetry>,
    /// Worker threads currently alive (maintained by a drop guard inside
    /// each worker, so chaos-killed threads are counted out immediately).
    live_workers: Arc<AtomicUsize>,
}

fn spawn_worker(ctx: &Arc<WorkerContext>, index: usize) -> JoinHandle<()> {
    // Count the worker in before its thread runs: a health probe racing the
    // spawn must not see a transient hole in the pool.
    ctx.live_workers.fetch_add(1, Ordering::AcqRel);
    let ctx = Arc::clone(ctx);
    std::thread::Builder::new()
        .name(format!("tuner-worker-{index}"))
        .spawn(move || {
            struct LiveGuard(Arc<AtomicUsize>);
            impl Drop for LiveGuard {
                fn drop(&mut self) {
                    self.0.fetch_sub(1, Ordering::AcqRel);
                }
            }
            // Decrements on *any* exit — normal drain or an injected death.
            let _guard = LiveGuard(ctx.live_workers.clone());
            worker_loop(&ctx);
        })
        .expect("spawn tuner worker")
}

/// How often the supervisor scans the pool for dead workers. Bounds the
/// respawn latency; shutdown unparks the supervisor so it never waits a
/// full tick.
const SUPERVISOR_TICK: Duration = Duration::from_millis(20);

/// The worker supervisor: owns the pool's join handles, respawns any worker
/// that exited while the service is live, and joins the pool on stop. A
/// worker that drained a *closed* queue is an orderly exit, not a death —
/// respawning there would spin the pool forever on a drained service.
fn supervisor_loop(
    ctx: Arc<WorkerContext>,
    mut workers: Vec<JoinHandle<()>>,
    stop: Arc<AtomicBool>,
    restarts: Counter,
) {
    while !stop.load(Ordering::Acquire) {
        for (index, slot) in workers.iter_mut().enumerate() {
            if slot.is_finished() && !stop.load(Ordering::Acquire) && !ctx.queue.is_closed() {
                let dead = std::mem::replace(slot, spawn_worker(&ctx, index));
                let _ = dead.join();
                restarts.inc();
            }
        }
        std::thread::park_timeout(SUPERVISOR_TICK);
    }
    for worker in workers {
        let _ = worker.join();
    }
}

/// The multi-tenant tuning service.
pub struct TuningService {
    queue: Arc<JobQueue<QueuedJob>>,
    cache: Arc<PlanCache>,
    families: Arc<PlanFamilies>,
    markets: Arc<MarketRegistry>,
    router: Arc<MarketRouter>,
    metrics: Arc<ServiceMetrics>,
    telemetry: Arc<Telemetry>,
    store: Option<Arc<PlanStore>>,
    recovery: Option<RecoveryStats>,
    /// The supervisor thread owning the worker pool's join handles.
    supervisor: Option<JoinHandle<()>>,
    supervisor_stop: Arc<AtomicBool>,
    live_workers: Arc<AtomicUsize>,
    worker_target: usize,
    admission: AdmissionPolicy,
    next_job_id: AtomicU64,
    draining: AtomicBool,
}

impl TuningService {
    /// Starts the worker pool with in-memory state only (no durability —
    /// restarts re-solve the working set) on a single default market.
    pub fn start(config: ServiceConfig) -> Self {
        Self::boot(config, None, Self::default_markets())
    }

    /// [`TuningService::start`] against an explicit market registry: every
    /// job names one of its markets, fingerprints and journal records carry
    /// the market id, and the cross-market [`MarketRouter`] solves against
    /// each market's belief.
    pub fn start_with_markets(config: ServiceConfig, markets: Arc<MarketRegistry>) -> Self {
        Self::boot(config, None, markets)
    }

    /// The registry a service runs when none is supplied: one default
    /// market. Its placeholder belief is never consulted on the serve path
    /// (jobs carry their own rate model); it only matters to the router,
    /// where a single market degenerates to plain tuning anyway.
    fn default_markets() -> Arc<MarketRegistry> {
        Arc::new(MarketRegistry::single(Arc::new(LinearRate::unit_slope())))
    }

    /// Starts the worker pool against a durable store directory, recovering
    /// whatever a previous process left there: persisted plans warm the
    /// exact-match cache, validated family snapshots arm the rehydration
    /// archive, and journaled in-flight jobs are re-enqueued under their
    /// original ids. An empty or absent directory is a fresh durable start.
    ///
    /// Every corruption mode (truncated tail, bit flip, version-mismatch
    /// header, semantically invalid record) degrades to cold solves —
    /// recovery never serves a wrong plan. Damage counts are reported via
    /// [`TuningService::recovery_stats`].
    pub fn recover(config: ServiceConfig, path: impl AsRef<Path>) -> Result<Self, ServeError> {
        Self::recover_with(config, path, StoreOptions::default())
    }

    /// [`TuningService::recover`] with explicit [`StoreOptions`] (write-behind
    /// queue bound, fsync policy).
    pub fn recover_with(
        config: ServiceConfig,
        path: impl AsRef<Path>,
        options: StoreOptions,
    ) -> Result<Self, ServeError> {
        let durable = PlanStore::open_with(path, options)?;
        Ok(Self::boot(config, Some(durable), Self::default_markets()))
    }

    fn boot(
        config: ServiceConfig,
        durable: Option<(Arc<PlanStore>, StoreSnapshot)>,
        markets: Arc<MarketRegistry>,
    ) -> Self {
        let queue = Arc::new(JobQueue::new(config.admission));
        let cache = Arc::new(PlanCache::new(
            config.cache_shards,
            config.cache_capacity_per_shard,
        ));
        let mut next_job_id = 0;
        let mut recovery = None;
        let mut pending_jobs = Vec::new();
        let (families, store) = match durable {
            Some((store, snapshot)) => {
                let mut stats = RecoveryStats {
                    loaded_plans: snapshot.plans.len() as u64,
                    loaded_families: snapshot.families.len() as u64,
                    corrupt_streams: snapshot.report.corrupt_streams,
                    corrupt_tails: snapshot.report.corrupt_tails,
                    invalid_records: snapshot.report.invalid_records,
                    ..RecoveryStats::default()
                };
                for record in snapshot.plans {
                    cache.insert(PlanFingerprint(record.fingerprint), Arc::new(record.plan));
                }
                let families = Arc::new(PlanFamilies::durable(
                    config.family_shards,
                    store.clone(),
                    snapshot.families,
                ));
                // Rebuild the journaled in-flight jobs; enqueueing happens
                // after the workers are up. Invalid rate specs were already
                // filtered by the store's load path, but `build` re-validates
                // so a corrupt-but-checksummed spec only loses that job. The
                // original `PendingJob` rides along: the replay path
                // re-journals it with a bumped attempt count.
                for job in snapshot.pending_jobs {
                    match job.rate.build() {
                        Ok(rate_model) => {
                            let request = JobRequest {
                                tenant: job.tenant.clone(),
                                market: job.market,
                                task_set: job.task_set.clone(),
                                budget: Budget::units(job.budget),
                                rate_model,
                                strategy: job.strategy,
                            };
                            pending_jobs.push((job, request));
                        }
                        Err(_) => stats.invalid_records += 1,
                    }
                }
                next_job_id = snapshot.max_job_id + 1;
                recovery = Some(stats);
                (families, Some(store))
            }
            None => (Arc::new(PlanFamilies::new(config.family_shards)), None),
        };
        let metrics = Arc::new(ServiceMetrics::default());
        // One registry for the whole process; every layer registers the
        // cells its legacy stats snapshot reads, so a scrape and a snapshot
        // can never disagree. Registration order is the scrape contract —
        // "parts" before their "whole" (see `ServiceMetrics::register` and
        // `PlanStore::register_metrics`).
        let registry = Arc::new(Registry::new());
        metrics.register(&registry);
        cache.register_metrics(&registry);
        families.register_metrics(&registry);
        if let Some(store) = &store {
            store.register_metrics(&registry);
        }
        let router = Arc::new(MarketRouter::new(markets.clone(), families.clone()));
        router.register_metrics(&registry);
        let market_names = markets
            .names()
            .into_iter()
            .map(str::to_owned)
            .collect::<Vec<_>>();
        let telemetry = Arc::new(Telemetry::new(&config, registry, market_names));
        let worker_target = config.workers.max(1);
        let live_workers = Arc::new(AtomicUsize::new(0));
        let ctx = Arc::new(WorkerContext {
            queue: queue.clone(),
            cache: cache.clone(),
            families: families.clone(),
            metrics: metrics.clone(),
            store: store.clone(),
            telemetry: telemetry.clone(),
            live_workers: live_workers.clone(),
        });
        let workers: Vec<JoinHandle<()>> = (0..worker_target)
            .map(|index| spawn_worker(&ctx, index))
            .collect();
        let supervisor_stop = Arc::new(AtomicBool::new(false));
        let supervisor = {
            let stop = supervisor_stop.clone();
            let restarts = metrics.worker_restarts.clone();
            std::thread::Builder::new()
                .name("tuner-supervisor".to_owned())
                .spawn(move || supervisor_loop(ctx, workers, stop, restarts))
                .expect("spawn worker supervisor")
        };
        let mut service = TuningService {
            queue,
            cache,
            families,
            markets,
            router,
            metrics,
            telemetry,
            store,
            recovery,
            supervisor: Some(supervisor),
            supervisor_stop,
            live_workers,
            worker_target,
            admission: config.admission,
            next_job_id: AtomicU64::new(next_job_id),
            draining: AtomicBool::new(false),
        };
        // Replay in-flight work under the original ids. The handles are
        // dropped (whoever submitted the jobs is gone); the answers warm the
        // cache. Each replay first re-journals its `Submitted` record with a
        // bumped attempt count — durably, *before* the enqueue — so a job
        // that keeps killing the process runs out of attempts and is
        // quarantined with a terminal `Failed` record instead of replaying
        // forever.
        let mut replayed = 0;
        let mut dropped = 0;
        let mut quarantined = 0;
        for (job, request) in pending_jobs {
            let store = service
                .store
                .as_ref()
                .expect("pending jobs only exist with a store");
            if job.attempts >= REPLAY_ATTEMPT_LIMIT {
                store.record_journal(&JournalRecord::Failed { job_id: job.job_id });
                quarantined += 1;
                continue;
            }
            store.record_journal(&JournalRecord::Submitted {
                job_id: job.job_id,
                tenant: job.tenant,
                market: job.market,
                task_set: job.task_set,
                budget: job.budget,
                rate: job.rate,
                strategy: job.strategy,
                attempts: job.attempts + 1,
            });
            // `journaled: true` — completion (or terminal failure) must
            // retire the on-disk record.
            let (respond, receiver) = mpsc::channel();
            let replay = QueuedJob {
                id: job.job_id,
                trace: service.label_trace(
                    job.job_id,
                    &request,
                    JobTrace {
                        admitted_ns: service.telemetry.now_ns(),
                        ..JobTrace::default()
                    },
                ),
                request,
                journaled: true,
                respond,
                notify: NotifyOnce {
                    job_id: job.job_id,
                    hook: None,
                },
                span: service.begin_job_trace().map(JobSpan::live),
                probed: Probed::Nothing,
            };
            match service.enqueue_job(replay, receiver) {
                Ok(_handle) => replayed += 1,
                Err(_) => dropped += 1,
            }
        }
        if let Some(stats) = service.recovery.as_mut() {
            stats.replayed_jobs = replayed;
            stats.dropped_replays = dropped;
            stats.quarantined = quarantined;
        }
        service
    }

    /// Submits a job; returns immediately with a handle (or an admission
    /// error under back-pressure). An exact cache hit is answered before the
    /// queue: its handle already holds the plan, it takes no queue slot (so
    /// the depth bounds of [`AdmissionPolicy`] never refuse it) and it is
    /// not journaled. A draining service refuses hits too. With a durable
    /// store attached, other accepted jobs whose rate model is serializable
    /// are journaled for crash recovery.
    pub fn submit(&self, request: JobRequest) -> Result<JobHandle, ServeError> {
        self.submit_observed(request, None, None)
    }

    /// [`TuningService::submit`] with an optional completion hook and an
    /// optional **live** trace.
    ///
    /// `notify` is invoked with the job id exactly once, *after* the outcome
    /// becomes readable via [`JobHandle::try_result`]. This is the
    /// non-blocking integration point for event-driven front-ends (the
    /// gateway's reactor): instead of parking a thread in [`JobHandle::wait`]
    /// per pending job, the front-end polls `try_result` only when the hook
    /// fires. The hook also fires if the job is discarded unserved (drain,
    /// teardown) — `try_result` then reports [`ServeError::WorkerGone`] — so
    /// an event loop is never left waiting on a notification that cannot
    /// come. The hook runs on a worker (or teardown) thread: it must be
    /// cheap and must not block. It never fires for:
    ///
    /// * a job answered at submit — an exact cache hit, reported by
    ///   [`JobHandle::answered_at_submit`]: its outcome is readable as soon
    ///   as this returns, so the front-end answers it without parking;
    /// * a refused submit: the caller gets the error and no handle.
    ///
    /// `trace` is a live trace the job's spans — queue wait, solve, store
    /// persist — join instead of a service-minted one. The gateway passes
    /// its `http.request` root. An in-process caller joins its own trace by
    /// starting one under its context:
    /// `service.tracer().map(|t| t.start_trace(JOB_ROOT, Some(context)))`
    /// (see [`JOB_ROOT`]). Such a trace is live from the start, so an
    /// unsampled cache hit under it renders its spans before dropping
    /// them; only a trace the service begins itself defers that work.
    pub fn submit_observed(
        &self,
        request: JobRequest,
        notify: Option<CompletionNotify>,
        trace: Option<ActiveTrace>,
    ) -> Result<JobHandle, ServeError> {
        let span = match trace {
            Some(active) => Some(JobSpan::Live(active)),
            None => self.begin_job_trace(),
        };
        // A draining service sheds at the door — before journaling, so the
        // refusal costs neither a journal record nor its retirement.
        if self.is_draining() {
            self.metrics.rejected.inc();
            return Err(ServeError::Admission(AdmissionError::Closed));
        }
        // Unknown markets are refused before any id, journal record or
        // queue slot is spent on them — the market set is static, so this
        // is a malformed submission, not a transient condition.
        if !self.markets.contains(request.market) {
            self.metrics.rejected.inc();
            return Err(ServeError::Tuning(CoreError::invalid_argument(format!(
                "unknown {}; registered markets: {}",
                request.market,
                self.markets.names().join(", ")
            ))));
        }
        // A trace the service began stamped the submit already (on the
        // same clock).
        let admitted_ns = match &span {
            Some(JobSpan::Begun(start)) => start.start_ns(),
            _ => self.telemetry.now_ns(),
        };
        let mut stamps = JobTrace {
            admitted_ns,
            ..JobTrace::default()
        };
        // Exact cache hits are answered here, before any id, journal record
        // or queue slot is spent. The probe runs tenant code (the
        // fingerprint samples the rate model), so it runs under
        // `catch_unwind`; anything but a clean hit — a miss, an invalid
        // problem, a panic — is queued exactly as before and fails or
        // succeeds on the worker.
        let probed = match catch_unwind(AssertUnwindSafe(|| self.probe(&request, &mut stamps))) {
            Ok(Ok(plan)) => return Ok(self.answer_hit(&request, plan, stamps, span)),
            Ok(Err(probed)) => probed,
            Err(payload) => Probed::Panicked(payload),
        };
        let id = self.next_job_id.fetch_add(1, Ordering::Relaxed);
        // Journal *before* enqueueing so an accepted job can never be lost
        // between the queue and the journal; a rejected submission retires
        // its record immediately. (The journal and the completion share one
        // ordered writer queue, so `Submitted` always lands first.)
        let journaled = if let Some(store) = &self.store {
            // Models without a native spec (ad-hoc closures) are journaled
            // through a sampled tabulated stand-in so the job still
            // survives a crash. The exact-knot interpolation of
            // `TabulatedRate` makes the rebuilt model bit-identical to the
            // original at every on-grid payment, and the grid covers every
            // payment this job can award (capped at the shared-table bound
            // the solver samples anyway).
            let rate = request.rate_model.to_spec().or_else(|| {
                let grid = request.budget.as_units().min(MAX_TABLE_PAYMENT);
                TabulatedRate::sampled_from(request.rate_model.as_ref(), grid)
                    .ok()
                    .and_then(|table| table.to_spec())
            });
            match rate {
                Some(rate) => {
                    store.record_journal(&JournalRecord::Submitted {
                        job_id: id,
                        tenant: request.tenant.clone(),
                        market: request.market,
                        task_set: request.task_set.clone(),
                        budget: request.budget.as_units(),
                        rate,
                        strategy: request.strategy,
                        attempts: 0,
                    });
                    true
                }
                None => false,
            }
        } else {
            false
        };
        let (respond, receiver) = mpsc::channel();
        let job = QueuedJob {
            id,
            trace: self.label_trace(id, &request, stamps),
            request,
            journaled,
            respond,
            notify: NotifyOnce {
                job_id: id,
                hook: notify,
            },
            span: span.map(JobSpan::live),
            probed,
        };
        match self.enqueue_job(job, receiver) {
            Ok(handle) => Ok(handle),
            Err(e) => {
                if journaled {
                    if let Some(store) = &self.store {
                        store.record_journal(&JournalRecord::Completed { job_id: id });
                    }
                }
                Err(e)
            }
        }
    }

    /// Begins the job's own trace when tracing is on, taking the every-Nth
    /// head-sampling decision.
    fn begin_job_trace(&self) -> Option<JobSpan<'_>> {
        self.telemetry
            .tracer
            .as_ref()
            .map(|tracer| JobSpan::Begun(tracer.begin_trace(JOB_ROOT, None)))
    }

    /// The submit-time cache probe: `Ok` with the plan on an exact hit,
    /// otherwise what the worker starts from. Counts only a hit — on a miss
    /// the worker's own lookup counts (and catches a plan solved meanwhile
    /// by an identical job queued ahead). Runs tenant code, so the caller
    /// wraps it in `catch_unwind`.
    fn probe(&self, request: &JobRequest, stamps: &mut JobTrace) -> Result<Arc<TunedPlan>, Probed> {
        let Ok((problem, fingerprint)) = problem_key(request) else {
            return Err(Probed::Nothing);
        };
        cached_plan(
            &self.cache,
            PlanCache::probe,
            &problem,
            request.strategy,
            fingerprint,
            &self.telemetry,
            stamps,
        )
        .ok_or(Probed::Missed(problem, fingerprint))
    }

    /// Answers an exact cache hit on the submitting thread: the handle holds
    /// the plan, the completion hook is dropped unfired, and the job's trace
    /// is folded here. `submitted` counts before `cache_hits`, as on the
    /// queued path.
    fn answer_hit(
        &self,
        request: &JobRequest,
        plan: Arc<TunedPlan>,
        stamps: JobTrace,
        span: Option<JobSpan<'_>>,
    ) -> JobHandle {
        let id = self.next_job_id.fetch_add(1, Ordering::Relaxed);
        self.metrics.submitted.inc();
        self.metrics.cache_hits.inc();
        if self.telemetry.enabled {
            // No queue: a zero-length wait at admission, then the lookup,
            // whose end completes the job.
            let trace = JobTrace {
                enqueued_ns: stamps.admitted_ns,
                dequeued_ns: stamps.admitted_ns,
                completed_ns: stamps.estimate_end_ns,
                status: "ok",
                ..self.label_trace(id, request, stamps)
            };
            // A trace the service began goes live only if sampling would
            // keep it; otherwise its spans are accounted, not built.
            let span = match span {
                Some(JobSpan::Begun(start)) if !start.would_keep(trace.completed_ns) => {
                    start.discard(1 + trace.span_count());
                    None
                }
                span => span.map(JobSpan::live),
            };
            self.telemetry.finish_job(trace, span.as_ref());
        }
        let served = ServedPlan {
            job_id: id,
            plan,
            source: PlanSource::CacheHit,
        };
        JobHandle::new(id, Delivery::Answered(RefCell::new(Some(served))))
    }

    /// Labels a job's stamps with its id, tenant and market. Empty when
    /// telemetry is off.
    fn label_trace(&self, id: u64, request: &JobRequest, stamps: JobTrace) -> JobTrace {
        if !self.telemetry.enabled {
            return JobTrace::default();
        }
        JobTrace {
            job_id: id,
            tenant: request.tenant.clone(),
            market: self
                .markets
                .name_of(request.market)
                .unwrap_or_default()
                .to_owned(),
            ..stamps
        }
    }

    /// Queue insertion shared by [`TuningService::submit_observed`] and
    /// journal replay: stamps the enqueue, then counts `submitted` under the
    /// queue lock, before a worker can see the job, so no worker's answer is
    /// ever counted first. A refused job is dropped with its hook disarmed.
    fn enqueue_job(
        &self,
        mut job: QueuedJob,
        receiver: mpsc::Receiver<Result<ServedPlan, ServeError>>,
    ) -> Result<JobHandle, ServeError> {
        if self.telemetry.enabled {
            job.trace.enqueued_ns = self.telemetry.now_ns();
        }
        let id = job.id;
        let tenant = job.request.tenant.clone();
        match self
            .queue
            .submit(&tenant, job, || self.metrics.submitted.inc())
        {
            Ok(()) => Ok(JobHandle::new(id, Delivery::Queued(receiver))),
            Err((e, mut refused)) => {
                refused.notify.hook = None;
                self.metrics.rejected.inc();
                Err(e.into())
            }
        }
    }

    /// Convenience: submit and wait.
    pub fn tune(&self, request: JobRequest) -> Result<ServedPlan, ServeError> {
        self.submit(request)?.wait()
    }

    /// The market registry this service runs against.
    pub fn markets(&self) -> Arc<MarketRegistry> {
        self.markets.clone()
    }

    /// The cross-market router sharing this service's family tables.
    pub fn router(&self) -> Arc<MarketRouter> {
        self.router.clone()
    }

    /// Routes a job across markets (see [`MarketRouter::route`]): splits
    /// its task groups over the registered markets when the assembled
    /// frontier beats every single-market tune, and falls back to plain
    /// single-market tuning otherwise. When tracing is on, the decision is
    /// recorded as a `router.split` span under a `router.route` trace.
    pub fn route(&self, task_set: &TaskSet, budget: Budget) -> Result<RoutedPlan, ServeError> {
        let trace = self
            .tracer()
            .map(|tracer| tracer.start_trace("router.route", None));
        let start_ns = trace.as_ref().map(|active| active.now_ns());
        let routed = self.router.route(task_set, budget);
        if let (Some(active), Some(start_ns)) = (&trace, start_ns) {
            let (status, attrs) = match &routed {
                Ok(plan) => {
                    let markets = match plan {
                        RoutedPlan::Split { groups, .. } => groups.len() as u64,
                        RoutedPlan::Single { .. } => 1,
                    };
                    (
                        crowdtune_obs::SpanStatus::Ok,
                        vec![
                            ("is_split", crowdtune_obs::AttrValue::Bool(plan.is_split())),
                            ("markets", crowdtune_obs::AttrValue::U64(markets)),
                        ],
                    )
                }
                Err(_) => (crowdtune_obs::SpanStatus::Error, Vec::new()),
            };
            if routed.is_err() {
                active.mark_error();
            }
            active.span_with(
                "router.split",
                None,
                start_ns,
                active.now_ns(),
                status,
                attrs,
            );
        }
        routed.map_err(ServeError::Tuning)
    }

    /// Plan-cache counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Plan-family counters.
    pub fn family_stats(&self) -> FamilyStats {
        self.families.stats()
    }

    /// Service counters. Reads the per-source "parts" before the
    /// `submitted` "whole" (mirroring the registration order), so even a
    /// snapshot taken mid-flood satisfies `completed() <= submitted`.
    pub fn metrics(&self) -> MetricsSnapshot {
        let cache_hits = self.metrics.cache_hits.get();
        let family_hits = self.metrics.family_hits.get();
        let cold_solves = self.metrics.cold_solves.get();
        let solve_errors = self.metrics.solve_errors.get();
        let worker_panics = self.metrics.worker_panics.get();
        let worker_restarts = self.metrics.worker_restarts.get();
        let rejected = self.metrics.rejected.get();
        let submitted = self.metrics.submitted.get();
        MetricsSnapshot {
            submitted,
            rejected,
            cache_hits,
            family_hits,
            cold_solves,
            solve_errors,
            worker_panics,
            worker_restarts,
        }
    }

    /// The metric registry every layer publishes into. A transport
    /// front-end registers its own metrics here so one scrape covers the
    /// whole process.
    pub fn registry(&self) -> Arc<Registry> {
        self.telemetry.registry.clone()
    }

    /// Whether the per-job telemetry spine is recording: any
    /// [`ServiceConfig::obs`] level but [`ObsLevel::Off`].
    pub fn telemetry_enabled(&self) -> bool {
        self.telemetry.enabled
    }

    /// Renders the registry as Prometheus text exposition format v0.0.4,
    /// refreshing the point-in-time gauges first.
    pub fn render_prometheus(&self) -> String {
        self.refresh_gauges();
        self.telemetry.registry.render_prometheus()
    }

    fn refresh_gauges(&self) {
        let tel = &*self.telemetry;
        tel.pending_gauge.set(self.pending() as i64);
        tel.draining_gauge.set(self.is_draining() as i64);
        tel.cache_entries_gauge
            .set(self.cache_stats().entries as i64);
        tel.families_resident_gauge
            .set(self.family_stats().families as i64);
        if let Some(store) = self.store_stats() {
            tel.store_depth_gauge
                .set(store.enqueued.saturating_sub(store.retired) as i64);
        }
        tel.health_gauge.set(i64::from(self.health().code()));
        tel.workers_live_gauge
            .set(self.live_workers.load(Ordering::Acquire) as i64);
    }

    /// The slowest completed traces, slowest first — the payload of the
    /// gateway's `GET /v1/debug/slowest`. Includes failed and panicked jobs
    /// (their [`JobTrace::status`] is non-`"ok"`). Empty when telemetry is
    /// off.
    pub fn slowest_traces(&self) -> Vec<JobTrace> {
        self.telemetry.slowest.snapshot()
    }

    /// The causal-tracing engine, when tracing is on: the span clock, the
    /// sampling policy and the ring of kept traces behind
    /// `GET /v1/debug/traces`. A transport front-end starts its request
    /// roots here and hands the live handles to
    /// [`TuningService::submit_observed`].
    pub fn tracer(&self) -> Option<Arc<Tracer>> {
        self.telemetry.tracer.clone()
    }

    /// The structured logger (always live), behind
    /// `GET /v1/debug/logs`. Records emitted while a traced job solves are
    /// stamped with its trace/span ids.
    pub fn logger(&self) -> Arc<Logger> {
        self.telemetry.logger.clone()
    }

    /// Builds an online [`Retuner`] for a job served against `market`. The
    /// re-tuner's acceptance observations are forwarded into this service's
    /// [`MarketRegistry`] drift detector as they arrive — the evidence that
    /// re-tunes the job also accumulates toward registry-level confirmed
    /// drift, with no manual `observe_acceptance` wiring.
    pub fn retuner(
        &self,
        problem: HTuningProblem,
        strategy: StrategyChoice,
        policy: RetunePolicy,
        market: MarketId,
    ) -> Retuner {
        Retuner::new(problem, strategy, policy).with_evidence_sink(self.markets.clone(), market)
    }

    /// Jobs waiting in the queue.
    pub fn pending(&self) -> usize {
        self.queue.pending()
    }

    /// Write-behind counters of the attached store, if any.
    pub fn store_stats(&self) -> Option<StoreStats> {
        self.store.as_ref().map(|store| store.stats())
    }

    /// What [`TuningService::recover`] loaded and replayed (`None` for a
    /// service started without a store).
    pub fn recovery_stats(&self) -> Option<RecoveryStats> {
        self.recovery
    }

    /// One coherent snapshot of every counter surface, for transport
    /// front-ends reporting service health in a single response.
    pub fn status(&self) -> ServiceStatus {
        ServiceStatus {
            metrics: self.metrics(),
            cache: self.cache_stats(),
            families: self.family_stats(),
            store: self.store_stats(),
            recovery: self.recovery_stats(),
            pending: self.pending(),
            draining: self.is_draining(),
        }
    }

    /// Evaluates the service-wide health state from the live fault signals:
    /// store write-path impairment, worker-pool attrition, and queue
    /// saturation (see [`HealthState::evaluate`] for the exact rules). The
    /// state is recomputed on every call — there is no latching, so a store
    /// whose writes recover flips the service back to `Healthy`
    /// automatically.
    pub fn health(&self) -> HealthState {
        HealthState::evaluate(&HealthSignals {
            draining: self.is_draining(),
            store_impaired: self
                .store
                .as_ref()
                .is_some_and(|store| store.write_path_impaired()),
            live_workers: self.live_workers.load(Ordering::Acquire),
            target_workers: self.worker_target,
            pending: self.pending(),
            max_pending: self.admission.max_pending,
        })
    }

    /// Starts a graceful drain: subsequent submissions are refused with
    /// [`AdmissionError::Closed`] (a transport front-end maps this to HTTP
    /// 503) while already-queued jobs keep being served; their handles
    /// resolve normally. Unlike [`TuningService::shutdown`] this does not
    /// block — poll [`TuningService::pending`] (or just call `shutdown`) to
    /// observe the drain completing. Idempotent.
    pub fn begin_drain(&self) {
        self.draining
            .store(true, std::sync::atomic::Ordering::Release);
        self.queue.close();
    }

    /// Whether [`TuningService::begin_drain`] was called.
    pub fn is_draining(&self) -> bool {
        self.draining.load(std::sync::atomic::Ordering::Acquire)
    }

    /// Flushes the full working set to the durable store: every resident
    /// plan and family is re-recorded (catching up anything the bounded
    /// write-behind queue dropped under load), then the queue is drained.
    /// After this returns, a `recover` of the same directory warm-starts the
    /// entire current working set. A no-op without a store.
    pub fn flush_store(&self) {
        let Some(store) = &self.store else {
            return;
        };
        // Blocking enqueues: a flush has no latency constraint, and letting
        // the drop-oldest backpressure shed records here would break the
        // "a clean stop restarts fully warm" guarantee whenever the working
        // set outruns the writer (the default cache capacity alone equals
        // the default queue capacity).
        self.cache
            .for_each_entry(|key, plan| store.record_plan_blocking(key.0, plan));
        self.families.flush_resident();
        store.flush();
    }

    /// Stops supervision and the pool: the supervisor must see the stop
    /// flag *before* the queue closes (otherwise it would respawn workers
    /// into a closing pool), then joining it joins every worker it owns.
    fn stop_workers(&mut self) {
        self.supervisor_stop.store(true, Ordering::Release);
        self.queue.close();
        if let Some(supervisor) = self.supervisor.take() {
            supervisor.thread().unpark();
            let _ = supervisor.join();
        }
    }

    /// Drains the queue and stops the workers; with a store attached, the
    /// working set is flushed first so the next [`TuningService::recover`]
    /// starts fully warm.
    pub fn shutdown(mut self) {
        self.stop_workers();
        self.flush_store();
        // Hand the store to its own Drop (queue drain) now; the service's
        // Drop must not flush the working set a second time.
        self.store = None;
    }
}

impl Drop for TuningService {
    fn drop(&mut self) {
        self.stop_workers();
        // Dropping the service is the planned-exit path (a crash never runs
        // this); make it durable. The store's own Drop then drains its queue.
        self.flush_store();
    }
}

/// Renders a panic payload for [`ServeError::WorkerPanic`]: the `&str` /
/// `String` payloads `panic!` produces are quoted verbatim, anything else is
/// opaque.
fn panic_detail(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(message) = payload.downcast_ref::<&str>() {
        (*message).to_owned()
    } else if let Some(message) = payload.downcast_ref::<String>() {
        message.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

fn worker_loop(ctx: &WorkerContext) {
    let WorkerContext {
        queue,
        cache,
        families,
        metrics,
        store,
        telemetry,
        ..
    } = ctx;
    let store = store.as_deref();
    while let Some(job) = queue.pop() {
        let QueuedJob {
            id,
            request,
            journaled,
            respond,
            mut notify,
            mut trace,
            span,
            probed,
        } = job;
        trace.dequeued_ns = telemetry.now_ns();
        // Log records emitted while this job solves are stamped with its
        // trace/root-span ids (see `obs::log`).
        let _log_scope = span.as_ref().map(|active| {
            crowdtune_obs::span::enter_span(active.trace_id(), active.root_span_id())
        });
        // Panic isolation: a panicking objective or rate model fails *this
        // job* (typed `WorkerPanic`), not the thread. The solve takes no
        // lock before it can panic (family-table locks are acquired after
        // the model is validated inside `serve_timed`), so unwinding here
        // cannot poison shared state — hence the `AssertUnwindSafe`.
        let solved = catch_unwind(AssertUnwindSafe(|| {
            serve_one(cache, families, &request, probed, telemetry, &mut trace)
        }));
        let (outcome, fatal) = match solved {
            Ok(outcome) => (outcome, false),
            Err(payload) => {
                metrics.worker_panics.inc();
                if payload.downcast_ref::<WorkerDeath>().is_some() {
                    // The one payload that *is* fatal: the injected
                    // worker-death marker. The observer gets a typed error,
                    // the supervisor respawns the thread.
                    (Err(ServeError::WorkerLost), true)
                } else {
                    (
                        Err(ServeError::WorkerPanic {
                            detail: panic_detail(payload.as_ref()),
                        }),
                        false,
                    )
                }
            }
        };
        match &outcome {
            Ok((_, PlanSource::CacheHit, _)) => metrics.cache_hits.inc(),
            Ok((_, PlanSource::FamilyHit, _)) => metrics.family_hits.inc(),
            Ok((_, PlanSource::ColdSolve, _)) => metrics.cold_solves.inc(),
            Err(_) => metrics.solve_errors.inc(),
        };
        // How the job ended, in the vocabulary of [`JobTrace::status`].
        let status = match &outcome {
            Ok(_) => "ok",
            Err(ServeError::WorkerLost) => "lost",
            Err(ServeError::WorkerPanic { .. }) => "panicked",
            Err(_) => "failed",
        };
        match &outcome {
            Err(ServeError::WorkerPanic { detail }) => telemetry.logger.log_with(
                LogLevel::Error,
                "serve::worker",
                "job solve panicked (contained)",
                vec![("job_id", id.to_string()), ("detail", detail.clone())],
            ),
            Err(ServeError::WorkerLost) => telemetry.logger.log_with(
                LogLevel::Error,
                "serve::worker",
                "worker thread died mid-job",
                vec![("job_id", id.to_string())],
            ),
            Err(error) => telemetry.logger.log_with(
                LogLevel::Warn,
                "serve::worker",
                "job solve failed",
                vec![("job_id", id.to_string()), ("error", error.to_string())],
            ),
            Ok(_) => {}
        }
        if let Some(store) = store {
            // Write-behind persistence: newly solved plans (cache hits are
            // already on disk) and, for journaled jobs, the terminal record.
            // Errors — panics included — retire the journal entry too: a
            // panicking job journals `Failed`, so recovery never replays a
            // poison job, while ordinary errors keep journaling `Completed`
            // as before. Unjournaled jobs (ad-hoc rate models) skip it: an
            // orphan terminal record per job would grow the uncompacted
            // journal for nothing.
            if let Ok((plan, source, fingerprint)) = &outcome {
                if *source != PlanSource::CacheHit {
                    // With telemetry on, the record carries the per-label
                    // persist-lag probe (the writer thread stamps the
                    // enqueue-to-durable-write interval into it) and, with
                    // tracing on, a clone of the job's trace handle — the
                    // writer records the `store.persist` span at retire,
                    // extending the trace past the response.
                    let lag_into = telemetry.persist_hist(&trace);
                    let persist_span = span
                        .as_ref()
                        .map(|active| (active.clone(), active.now_ns()));
                    if lag_into.is_none() && persist_span.is_none() {
                        store.record_plan(fingerprint.0, plan);
                    } else {
                        store.record_plan_observed(fingerprint.0, plan, lag_into, persist_span);
                    }
                }
            }
            if journaled {
                let record = match &outcome {
                    Err(ServeError::WorkerPanic { .. } | ServeError::WorkerLost) => {
                        JournalRecord::Failed { job_id: id }
                    }
                    _ => JournalRecord::Completed { job_id: id },
                };
                store.record_journal(&record);
            }
        }
        // The submitter may have dropped the handle; that is not an error.
        let _ = respond.send(outcome.map(|(plan, source, _)| ServedPlan {
            job_id: id,
            plan,
            source,
        }));
        // Completion hook *after* the send: by the time an event loop is
        // woken, `try_result` is guaranteed to yield the outcome.
        notify.fire();
        // Fold the trace in *after* responding — the histograms, the
        // slowest ring and the span render are off the submitter's latency
        // path. Failed and panicked jobs are folded too: they carry their
        // status into the slowest ring and mark their span tree errored
        // (which tail-samples the trace).
        if telemetry.enabled {
            trace.status = status;
            trace.completed_ns = telemetry.now_ns();
            telemetry.finish_job(trace, span.as_ref());
        }
        // Dropping `span` here may complete the trace (unless the store
        // writer still holds the persist-probe clone).
        drop(span);
        if fatal {
            return;
        }
    }
}

/// Whether the job resolves to the Repetition Algorithm, the one strategy
/// whose DP is budget-agnostic and therefore family-reusable (see the
/// `family` module docs for why EA and HA are excluded).
fn resolves_to_ra(problem: &HTuningProblem, strategy: StrategyChoice) -> bool {
    match strategy {
        StrategyChoice::RepetitionAlgorithm => true,
        StrategyChoice::Auto => problem.scenario() == Scenario::Repetition,
        StrategyChoice::EvenAllocation | StrategyChoice::HeterogeneousAlgorithm => false,
    }
}

/// The scenario whose algorithm served the job: the classified scenario
/// under `Auto`, otherwise the scenario the forced strategy belongs to
/// (telemetry labels report the algorithm that actually ran).
fn resolved_scenario(problem: &HTuningProblem, strategy: StrategyChoice) -> Scenario {
    match strategy {
        StrategyChoice::Auto => problem.scenario(),
        StrategyChoice::EvenAllocation => Scenario::Homogeneous,
        StrategyChoice::RepetitionAlgorithm => Scenario::Repetition,
        StrategyChoice::HeterogeneousAlgorithm => Scenario::Heterogeneous,
    }
}

/// Stamps the post-solve stages on `trace`: the estimate-attach boundary is
/// reconstructed from the reported `estimate_ns` so one clock read covers
/// both the solve-end and estimate-end stamps.
fn stamp_solved(
    trace: &mut JobTrace,
    telemetry: &Telemetry,
    scenario: Scenario,
    source: PlanSource,
    estimate_ns: u64,
) {
    trace.estimate_end_ns = telemetry.now_ns();
    trace.solve_end_ns = trace.estimate_end_ns.saturating_sub(estimate_ns);
    trace.scenario = SCENARIO_LABELS[scenario_index(scenario)];
    trace.source = SOURCE_LABELS[source_index(source)];
}

/// Validates the job's problem and computes its exact-match cache key.
/// Fingerprints fold the market in (default-market keys hash exactly as the
/// pre-market scheme), so plans and families solved against market A can
/// never answer market B. Samples the tenant's rate model.
fn problem_key(request: &JobRequest) -> Result<(HTuningProblem, PlanFingerprint), CoreError> {
    let problem = HTuningProblem::new(
        request.task_set.clone(),
        request.budget,
        request.rate_model.clone(),
    )?;
    let fingerprint = PlanFingerprint::of_market(&problem, request.strategy, request.market);
    Ok((problem, fingerprint))
}

/// The exact-match lookup shared by the submit-time probe
/// (`lookup` = [`PlanCache::probe`]) and the worker ([`PlanCache::get`]):
/// stamps the solve window and the labels of a hit on `trace`.
fn cached_plan(
    cache: &PlanCache,
    lookup: fn(&PlanCache, PlanFingerprint) -> Option<Arc<TunedPlan>>,
    problem: &HTuningProblem,
    strategy: StrategyChoice,
    fingerprint: PlanFingerprint,
    telemetry: &Telemetry,
    trace: &mut JobTrace,
) -> Option<Arc<TunedPlan>> {
    trace.solve_start_ns = telemetry.now_ns();
    let plan = lookup(cache, fingerprint)?;
    if telemetry.enabled {
        // No estimate step runs on a cache hit: estimate-end == solve-end.
        stamp_solved(
            trace,
            telemetry,
            resolved_scenario(problem, strategy),
            PlanSource::CacheHit,
            0,
        );
    }
    Some(plan)
}

fn serve_one(
    cache: &PlanCache,
    families: &PlanFamilies,
    request: &JobRequest,
    probed: Probed,
    telemetry: &Telemetry,
    trace: &mut JobTrace,
) -> Result<(Arc<TunedPlan>, PlanSource, PlanFingerprint), ServeError> {
    let (problem, fingerprint) = match probed {
        Probed::Missed(problem, fingerprint) => (problem, fingerprint),
        Probed::Panicked(payload) => std::panic::resume_unwind(payload),
        Probed::Nothing => problem_key(request).map_err(ServeError::Tuning)?,
    };
    // A miss at submit is looked up again: an identical job queued ahead
    // may have solved it since.
    if let Some(plan) = cached_plan(
        cache,
        PlanCache::get,
        &problem,
        request.strategy,
        fingerprint,
        telemetry,
        trace,
    ) {
        return Ok((plan, PlanSource::CacheHit, fingerprint));
    }
    // RA-resolved jobs route through the family layer: a resident family
    // answers any budget from its shared table; a miss seeds the family with
    // this job's cold solve. Either way the plan lands in the exact-match
    // cache, so the PR 1 fast path above is unchanged.
    if resolves_to_ra(&problem, request.strategy) {
        let family = FamilyFingerprint::of_market(
            &problem,
            StrategyChoice::RepetitionAlgorithm,
            request.market,
        );
        let (plan, how, timing) = families
            .serve_timed(family, &problem)
            .map_err(ServeError::Tuning)?;
        let source = match how {
            FamilyServe::Hit => PlanSource::FamilyHit,
            FamilyServe::Seeded => PlanSource::ColdSolve,
        };
        if telemetry.enabled {
            stamp_solved(
                trace,
                telemetry,
                Scenario::Repetition,
                source,
                timing.estimate_ns,
            );
            trace.family_lock_wait_ns = timing.lock_wait_ns;
        }
        let plan = cache.insert(fingerprint, Arc::new(plan));
        return Ok((plan, source, fingerprint));
    }
    let tuner = Tuner::new(request.rate_model.clone()).with_strategy(request.strategy);
    let (plan, timing) = tuner
        .plan_timed(request.task_set.clone(), request.budget)
        .map_err(ServeError::Tuning)?;
    if telemetry.enabled {
        stamp_solved(
            trace,
            telemetry,
            resolved_scenario(&problem, request.strategy),
            PlanSource::ColdSolve,
            timing.estimate_ns,
        );
    }
    let plan = cache.insert(fingerprint, Arc::new(plan));
    Ok((plan, PlanSource::ColdSolve, fingerprint))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crowdtune_core::rate::LinearRate;
    use crowdtune_obs::TraceContext;

    fn request(tenant: &str, tasks: usize, budget: u64) -> JobRequest {
        let mut set = TaskSet::new();
        let ty = set.add_type("vote", 2.0).unwrap();
        set.add_tasks(ty, 3, tasks).unwrap();
        JobRequest {
            tenant: tenant.to_owned(),
            market: MarketId::DEFAULT,
            task_set: set,
            budget: Budget::units(budget),
            rate_model: Arc::new(LinearRate::unit_slope()),
            strategy: StrategyChoice::Auto,
        }
    }

    #[test]
    fn serves_jobs_and_caches_repeats() {
        let service = TuningService::start(ServiceConfig {
            workers: 2,
            ..ServiceConfig::default()
        });
        let first = service.tune(request("acme", 5, 60)).unwrap();
        assert_eq!(first.source, PlanSource::ColdSolve);
        assert!(!first.reused());
        let second = service.tune(request("acme", 5, 60)).unwrap();
        assert_eq!(
            second.source,
            PlanSource::CacheHit,
            "identical job must hit the plan cache"
        );
        assert!(
            Arc::ptr_eq(&first.plan, &second.plan),
            "cache hit returns the very same plan object"
        );
        // A different tenant with the same workload also hits.
        let third = service.tune(request("globex", 5, 60)).unwrap();
        assert_eq!(third.source, PlanSource::CacheHit);
        assert!(third.reused());

        let stats = service.cache_stats();
        assert_eq!(stats.hits, 2);
        assert_eq!(stats.misses, 1);
        let metrics = service.metrics();
        assert_eq!(metrics.submitted, 3);
        assert_eq!(metrics.completed(), 3);
        service.shutdown();
    }

    /// The reuse layers are separately observable: an RA workload served at
    /// three budgets splits into one cold solve, one family hit (new budget,
    /// resident family) and one exact cache hit (repeated budget) — and
    /// `completed()` is exactly their sum.
    #[test]
    fn metrics_split_cold_family_and_cache_answers() {
        let service = TuningService::start(ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        });
        // Scenario II shape (two repetition classes) so Auto resolves to RA.
        let ra_request = |budget: u64| {
            let mut set = TaskSet::new();
            let ty = set.add_type("vote", 2.0).unwrap();
            set.add_tasks(ty, 3, 4).unwrap();
            set.add_tasks(ty, 5, 4).unwrap();
            JobRequest {
                tenant: "acme".to_owned(),
                market: MarketId::DEFAULT,
                task_set: set,
                budget: Budget::units(budget),
                rate_model: Arc::new(LinearRate::new(0.75, 1.0).unwrap()),
                strategy: StrategyChoice::Auto,
            }
        };
        let cold = service.tune(ra_request(120)).unwrap();
        assert_eq!(cold.source, PlanSource::ColdSolve);
        let family = service.tune(ra_request(90)).unwrap();
        assert_eq!(family.source, PlanSource::FamilyHit);
        let extended = service.tune(ra_request(240)).unwrap();
        assert_eq!(extended.source, PlanSource::FamilyHit);
        let repeat = service.tune(ra_request(120)).unwrap();
        assert_eq!(repeat.source, PlanSource::CacheHit);

        let metrics = service.metrics();
        assert_eq!(metrics.cold_solves, 1);
        assert_eq!(metrics.family_hits, 2);
        assert_eq!(metrics.cache_hits, 1);
        assert_eq!(metrics.solve_errors, 0);
        assert_eq!(metrics.completed(), 4);

        let families = service.family_stats();
        assert_eq!(families.families, 1);
        assert_eq!(families.builds, 1);
        assert_eq!(families.hits, 2);
        assert_eq!(families.extensions, 1, "only budget 240 grows the table");
        service.shutdown();
    }

    /// Family answers must be bit-identical to cold solves of the same
    /// problem, and repeats of a family-served budget must hit the exact
    /// cache (the family layer feeds the PR 1 fast path, not replaces it).
    #[test]
    fn family_hits_match_cold_solves_and_feed_the_exact_cache() {
        let service = TuningService::start(ServiceConfig {
            workers: 2,
            ..ServiceConfig::default()
        });
        let ra_request = |budget: u64| {
            let mut set = TaskSet::new();
            let ty = set.add_type("vote", 2.0).unwrap();
            set.add_tasks(ty, 2, 3).unwrap();
            set.add_tasks(ty, 4, 3).unwrap();
            JobRequest {
                tenant: "acme".to_owned(),
                market: MarketId::DEFAULT,
                task_set: set,
                budget: Budget::units(budget),
                rate_model: Arc::new(LinearRate::new(1.5, 0.5).unwrap()),
                strategy: StrategyChoice::Auto,
            }
        };
        service.tune(ra_request(100)).unwrap();
        let served = service.tune(ra_request(64)).unwrap();
        assert_eq!(served.source, PlanSource::FamilyHit);
        let reference = Tuner::new(Arc::new(LinearRate::new(1.5, 0.5).unwrap()))
            .plan(ra_request(64).task_set, Budget::units(64))
            .unwrap();
        assert_eq!(served.plan.result.allocation, reference.result.allocation);
        assert_eq!(
            served.plan.expected_latency.to_bits(),
            reference.expected_latency.to_bits()
        );
        let repeat = service.tune(ra_request(64)).unwrap();
        assert_eq!(repeat.source, PlanSource::CacheHit);
        assert!(Arc::ptr_eq(&served.plan, &repeat.plan));
        service.shutdown();
    }

    /// The non-blocking poll a transport front-end uses: `None` while in
    /// flight, the outcome exactly once, `WorkerGone` afterwards.
    #[test]
    fn try_result_polls_without_blocking() {
        let service = TuningService::start(ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        });
        let handle = service.submit(request("acme", 5, 60)).unwrap();
        let outcome = loop {
            match handle.try_result() {
                Some(outcome) => break outcome,
                None => std::thread::yield_now(),
            }
        };
        assert_eq!(outcome.unwrap().job_id, handle.job_id);
        assert!(
            matches!(handle.try_result(), Some(Err(ServeError::WorkerGone))),
            "the outcome is delivered once"
        );
        service.shutdown();
    }

    /// The once-then-`WorkerGone` contract must not depend on when the
    /// worker drops its sender: a completion hook that blocks keeps the
    /// sender alive while the handle is polled twice.
    #[test]
    fn try_result_reports_worker_gone_while_the_worker_still_holds_the_sender() {
        let service = TuningService::start(ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        });
        let (fired_tx, fired_rx) = mpsc::channel::<u64>();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let release_rx = std::sync::Mutex::new(release_rx);
        let handle = service
            .submit_observed(
                request("acme", 5, 60),
                Some(Arc::new(move |job_id| {
                    let _ = fired_tx.send(job_id);
                    let _ = release_rx.lock().unwrap().recv();
                })),
                None,
            )
            .unwrap();
        fired_rx
            .recv_timeout(std::time::Duration::from_secs(10))
            .expect("completion hook fires");
        let first = handle.try_result();
        let second = handle.try_result();
        // Release the worker before asserting, so a failure cannot wedge
        // shutdown.
        release_tx.send(()).unwrap();
        assert_eq!(first.unwrap().unwrap().job_id, handle.job_id);
        assert!(
            matches!(second, Some(Err(ServeError::WorkerGone))),
            "second poll must report WorkerGone, got {second:?}"
        );
        service.shutdown();
    }

    /// The event-driven integration contract: the completion hook fires
    /// exactly once, with the job id, and only after `try_result` can see
    /// the outcome — no polling loop required.
    #[test]
    fn completion_hook_fires_after_the_outcome_is_readable() {
        let service = TuningService::start(ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        });
        let (tx, rx) = mpsc::channel::<u64>();
        let handle = service
            .submit_observed(
                request("acme", 5, 60),
                Some(Arc::new(move |job_id| {
                    let _ = tx.send(job_id);
                })),
                None,
            )
            .unwrap();
        let notified = rx
            .recv_timeout(std::time::Duration::from_secs(10))
            .expect("completion hook fires");
        assert_eq!(notified, handle.job_id);
        let outcome = handle
            .try_result()
            .expect("outcome is readable once the hook has fired");
        assert_eq!(outcome.unwrap().job_id, notified);
        assert!(
            rx.try_recv().is_err(),
            "the hook fires exactly once per job"
        );
        service.shutdown();
    }

    /// An exact repeat is answered on the submitting thread: the handle
    /// already holds the very plan the cold solve produced, no queue slot
    /// is taken, the counters move by exactly one job and one hit, and the
    /// completion hook is released unfired — no thread holds it afterwards.
    #[test]
    fn cache_hits_are_answered_at_submit_without_hook_or_queue() {
        let service = TuningService::start(ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        });
        let first = service.tune(request("acme", 5, 60)).unwrap();
        assert_eq!(first.source, PlanSource::ColdSolve);
        let metrics = service.metrics();
        let cache = service.cache_stats();

        let fired = Arc::new(AtomicUsize::new(0));
        let hook_fired = fired.clone();
        let handle = service
            .submit_observed(
                request("globex", 5, 60),
                Some(Arc::new(move |_| {
                    hook_fired.fetch_add(1, Ordering::SeqCst);
                })),
                None,
            )
            .unwrap();
        assert!(handle.answered_at_submit());
        let served = handle
            .try_result()
            .expect("a hit is readable as soon as submit returns")
            .unwrap();
        assert_eq!(served.job_id, handle.job_id);
        assert_eq!(served.source, PlanSource::CacheHit);
        assert!(Arc::ptr_eq(&served.plan, &first.plan));
        assert!(matches!(
            handle.try_result(),
            Some(Err(ServeError::WorkerGone))
        ));
        assert_eq!(service.pending(), 0);
        assert_eq!(
            fired.load(Ordering::SeqCst),
            0,
            "a hit never fires its hook"
        );
        assert_eq!(Arc::strong_count(&fired), 1, "and no thread keeps it");

        let after = service.metrics();
        assert_eq!(after.submitted, metrics.submitted + 1);
        assert_eq!(after.cache_hits, metrics.cache_hits + 1);
        assert_eq!(after.completed(), metrics.completed() + 1);
        let cache_after = service.cache_stats();
        assert_eq!(cache_after.hits, cache.hits + 1);
        assert_eq!(cache_after.misses, cache.misses, "one lookup per job");
        service.shutdown();
    }

    /// Queued jobs keep the hook contract — it fires exactly once, after
    /// the outcome is readable — while a hit in between never fires its own.
    #[test]
    fn only_queued_jobs_fire_their_completion_hook() {
        let service = TuningService::start(ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        });
        let (tx, rx) = mpsc::channel::<u64>();
        let hook = move || -> CompletionNotify {
            let tx = std::sync::Mutex::new(tx.clone());
            Arc::new(move |job_id| {
                let _ = tx.lock().unwrap().send(job_id);
            })
        };
        let wait_for_hook = || {
            rx.recv_timeout(Duration::from_secs(10))
                .expect("a queued job's hook fires")
        };
        let cold = service
            .submit_observed(request("acme", 5, 60), Some(hook()), None)
            .unwrap();
        assert!(!cold.answered_at_submit());
        assert_eq!(wait_for_hook(), cold.job_id);
        assert!(cold.try_result().unwrap().is_ok());

        let hit = service
            .submit_observed(request("acme", 5, 60), Some(hook()), None)
            .unwrap();
        assert!(hit.answered_at_submit());

        let other = service
            .submit_observed(request("acme", 6, 60), Some(hook()), None)
            .unwrap();
        assert!(!other.answered_at_submit());
        assert_eq!(wait_for_hook(), other.job_id, "the hit fired no hook");
        assert_eq!(other.try_result().unwrap().unwrap().job_id, other.job_id);
        service.shutdown();
        assert!(rx.try_recv().is_err(), "each hook fires exactly once");
        assert_eq!(hit.wait().unwrap().source, PlanSource::CacheHit);
    }

    /// A submit the queue refuses never fires its completion hook: the
    /// caller gets the admission error and no handle, and no thread keeps
    /// the hook.
    #[test]
    fn refused_submits_never_fire_their_completion_hook() {
        let service = TuningService::start(ServiceConfig {
            workers: 1,
            admission: AdmissionPolicy {
                max_pending: 16,
                max_pending_per_tenant: 0,
            },
            ..ServiceConfig::default()
        });
        let fired = Arc::new(AtomicUsize::new(0));
        let hook_fired = fired.clone();
        let refused = service.submit_observed(
            request("acme", 5, 60),
            Some(Arc::new(move |_| {
                hook_fired.fetch_add(1, Ordering::SeqCst);
            })),
            None,
        );
        assert!(
            matches!(
                refused,
                Err(ServeError::Admission(AdmissionError::TenantOverLimit {
                    limit: 0
                }))
            ),
            "{refused:?}"
        );
        assert_eq!(
            fired.load(Ordering::SeqCst),
            0,
            "a refused submit never fires its hook"
        );
        assert_eq!(Arc::strong_count(&fired), 1, "and no thread keeps it");
        assert_eq!(service.metrics().rejected, 1);
        service.shutdown();
    }

    /// Hits write nothing durable: on a durable service, repeats of a solved
    /// job enqueue no store record — no journal pair, no plan.
    #[test]
    fn cache_hits_enqueue_no_store_records() {
        let dir =
            std::env::temp_dir().join(format!("crowdtune-service-hits-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let service = TuningService::recover(
            ServiceConfig {
                workers: 1,
                ..ServiceConfig::default()
            },
            &dir,
        )
        .unwrap();
        service.tune(request("acme", 5, 60)).unwrap();
        // The worker enqueues the plan and the journal's `Completed` record
        // before it responds.
        let enqueued = service.store_stats().unwrap().enqueued;
        for _ in 0..1000 {
            let served = service.tune(request("acme", 5, 60)).unwrap();
            assert_eq!(served.source, PlanSource::CacheHit);
        }
        assert_eq!(service.store_stats().unwrap().enqueued, enqueued);
        assert_eq!(service.metrics().cache_hits, 1000);
        service.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// `begin_drain` refuses new work with `Closed` (no journal churn) while
    /// already-accepted jobs still resolve.
    #[test]
    fn drain_refuses_new_submissions_but_serves_queued_work() {
        let service = TuningService::start(ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        });
        assert!(!service.is_draining());
        let accepted = service.submit(request("acme", 5, 60)).unwrap();
        service.begin_drain();
        assert!(service.is_draining());
        assert!(service.status().draining);
        let err = service.submit(request("acme", 5, 60)).unwrap_err();
        assert!(
            matches!(err, ServeError::Admission(AdmissionError::Closed)),
            "{err}"
        );
        assert!(accepted.wait().is_ok(), "in-flight work still completes");
        assert_eq!(service.metrics().rejected, 1);
        service.shutdown();
    }

    /// `status()` is one coherent view over every counter surface.
    #[test]
    fn status_snapshot_agrees_with_individual_surfaces() {
        let service = TuningService::start(ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        });
        service.tune(request("acme", 5, 60)).unwrap();
        service.tune(request("acme", 5, 60)).unwrap();
        let status = service.status();
        assert_eq!(status.metrics, service.metrics());
        assert_eq!(status.cache, service.cache_stats());
        assert_eq!(status.families, service.family_stats());
        assert!(status.store.is_none() && status.recovery.is_none());
        assert!(!status.draining);
        assert_eq!(status.metrics.completed(), 2);
        service.shutdown();
    }

    #[test]
    fn solver_errors_are_reported_not_fatal() {
        let service = TuningService::start(ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        });
        // 5 tasks × 3 reps = 15 slots; budget 10 is insufficient.
        let err = service.tune(request("acme", 5, 10)).unwrap_err();
        assert!(matches!(err, ServeError::Tuning(_)), "{err}");
        // The worker survives and keeps serving.
        assert!(service.tune(request("acme", 5, 60)).is_ok());
        assert_eq!(service.metrics().solve_errors, 1);
        service.shutdown();
    }

    #[test]
    fn admission_rejection_is_immediate() {
        let service = TuningService::start(ServiceConfig {
            workers: 1,
            admission: AdmissionPolicy {
                max_pending: 1,
                max_pending_per_tenant: 1,
            },
            ..ServiceConfig::default()
        });
        // Flood faster than one worker can drain; eventually a submission
        // must bounce. (With a single worker and depth 1 the third rapid
        // submission is practically guaranteed to find the queue full.)
        // Distinct budgets: a repeat would be a cache hit, answered at
        // submit without a queue slot.
        let mut handles = Vec::new();
        let mut rejected = false;
        for i in 0..64 {
            match service.submit(request("acme", 40, 400 + i)) {
                Ok(h) => handles.push(h),
                Err(ServeError::Admission(_)) => {
                    rejected = true;
                    break;
                }
                Err(other) => panic!("unexpected error {other}"),
            }
        }
        assert!(rejected, "back-pressure must reject under flood");
        for h in handles {
            let _ = h.wait();
        }
        assert!(service.metrics().rejected >= 1);
        service.shutdown();
    }

    #[test]
    fn concurrent_tenants_all_get_served() {
        let service = Arc::new(TuningService::start(ServiceConfig {
            workers: 4,
            ..ServiceConfig::default()
        }));
        let mut joins = Vec::new();
        for tenant in 0..8 {
            let service = service.clone();
            joins.push(std::thread::spawn(move || {
                let mut hits = 0;
                for round in 0..10 {
                    let served = service
                        .tune(request(&format!("tenant-{tenant}"), 4 + round % 3, 80))
                        .unwrap();
                    if served.source == PlanSource::CacheHit {
                        hits += 1;
                    }
                }
                hits
            }));
        }
        let total_hits: u32 = joins.into_iter().map(|j| j.join().unwrap()).sum();
        // 8 tenants × 10 jobs over 3 distinct workloads: nearly everything
        // after the first three solves is a hit.
        assert!(
            total_hits >= 70,
            "expected heavy cache reuse, got {total_hits}"
        );
        assert_eq!(service.metrics().completed(), 80);
    }

    fn two_market_registry() -> Arc<MarketRegistry> {
        Arc::new(
            MarketRegistry::new(vec![
                (
                    MarketId::DEFAULT,
                    "amt".to_owned(),
                    Arc::new(LinearRate::unit_slope()) as Arc<dyn RateModel>,
                ),
                (
                    MarketId(1),
                    "prolific".to_owned(),
                    Arc::new(LinearRate::new(2.0, 0.5).unwrap()) as Arc<dyn RateModel>,
                ),
            ])
            .unwrap(),
        )
    }

    /// Identical workloads on different markets must not share plans: the
    /// market id is part of the cache and family keys.
    #[test]
    fn markets_never_share_cached_plans() {
        let service =
            TuningService::start_with_markets(ServiceConfig::default(), two_market_registry());
        let on_market = |market: MarketId| JobRequest {
            market,
            ..request("acme", 5, 60)
        };
        let first = service.tune(on_market(MarketId::DEFAULT)).unwrap();
        assert_eq!(first.source, PlanSource::ColdSolve);
        let other = service.tune(on_market(MarketId(1))).unwrap();
        assert_eq!(
            other.source,
            PlanSource::ColdSolve,
            "market B must never be answered by market A's plan"
        );
        let repeat = service.tune(on_market(MarketId::DEFAULT)).unwrap();
        assert_eq!(repeat.source, PlanSource::CacheHit);
        assert!(Arc::ptr_eq(&first.plan, &repeat.plan));
        service.shutdown();
    }

    /// Submissions naming an unregistered market are refused at the door
    /// (counted as rejected, no queue slot spent).
    #[test]
    fn unknown_markets_are_rejected_at_the_door() {
        let service =
            TuningService::start_with_markets(ServiceConfig::default(), two_market_registry());
        let err = service
            .tune(JobRequest {
                market: MarketId(9),
                ..request("acme", 5, 60)
            })
            .unwrap_err();
        assert!(matches!(err, ServeError::Tuning(_)), "{err}");
        assert!(err.to_string().contains("market-9"), "{err}");
        assert_eq!(service.metrics().rejected, 1);
        assert_eq!(service.metrics().submitted, 0);
        service.shutdown();
    }

    /// The per-market telemetry axis: jobs on different markets land in
    /// differently-labelled stage histograms, and the router's split
    /// counter rides the same scrape.
    #[test]
    fn stage_histograms_carry_the_market_label() {
        let service =
            TuningService::start_with_markets(ServiceConfig::default(), two_market_registry());
        service
            .tune(JobRequest {
                market: MarketId(1),
                ..request("acme", 5, 60)
            })
            .unwrap();
        // The trace folds into telemetry after the response is sent (off
        // the submitter's latency path), so wait for it to land.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        let slowest = loop {
            let slowest = service.slowest_traces();
            if !slowest.is_empty() {
                break slowest;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "trace fold-in never settled"
            );
            std::thread::yield_now();
        };
        assert_eq!(slowest.len(), 1);
        assert_eq!(slowest[0].market, "prolific");
        let exposition = service.render_prometheus();
        assert!(
            exposition.contains(r#"market="prolific",scenario="EA",source="cold""#),
            "expected a prolific-labelled stage sample:\n{exposition}"
        );
        assert!(exposition.contains("crowdtune_router_split_total 0"));
        service.shutdown();
    }

    /// Hostile model whose panic must be contained to its own job.
    #[derive(Debug)]
    struct PanickingRate;

    impl RateModel for PanickingRate {
        fn on_hold_rate(&self, _payment_units: f64) -> f64 {
            panic!("hostile rate model")
        }
        fn describe(&self) -> String {
            "panicking rate".to_owned()
        }
        fn curve_fingerprint(&self) -> u64 {
            0xbad0_bad0
        }
    }

    /// Chaos model that kills the worker thread outright (the one payload
    /// `catch_unwind` treats as fatal).
    #[derive(Debug)]
    struct MurderousRate;

    impl RateModel for MurderousRate {
        fn on_hold_rate(&self, _payment_units: f64) -> f64 {
            std::panic::panic_any(WorkerDeath)
        }
        fn describe(&self) -> String {
            "worker-killing rate".to_owned()
        }
        fn curve_fingerprint(&self) -> u64 {
            0xdead_0001
        }
    }

    /// A panicking rate model fails *its* job with the typed `WorkerPanic`
    /// (payload text preserved) while the worker thread survives — no
    /// restart, and the very next job on the same single-worker pool serves
    /// normally.
    #[test]
    fn panicking_model_fails_the_job_not_the_worker() {
        let service = TuningService::start(ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        });
        let hostile = JobRequest {
            rate_model: Arc::new(PanickingRate),
            ..request("acme", 5, 60)
        };
        let err = service.tune(hostile).unwrap_err();
        match &err {
            ServeError::WorkerPanic { detail } => {
                assert!(detail.contains("hostile rate model"), "{detail}");
            }
            other => panic!("expected WorkerPanic, got {other}"),
        }
        // The same worker keeps serving.
        assert!(service.tune(request("acme", 5, 60)).is_ok());
        let metrics = service.metrics();
        assert_eq!(metrics.worker_panics, 1);
        assert_eq!(metrics.worker_restarts, 0, "the thread never died");
        assert_eq!(metrics.solve_errors, 1, "panics count as solve errors");
        assert_eq!(service.health(), HealthState::Healthy);
        service.shutdown();
    }

    /// An injected worker death resolves the observer with the typed
    /// `WorkerLost`, the supervisor respawns the thread (restart counter,
    /// live-worker gauge), and health returns to `Healthy` once the pool is
    /// whole again.
    #[test]
    fn dead_workers_are_respawned_and_observers_get_worker_lost() {
        let service = TuningService::start(ServiceConfig {
            workers: 2,
            ..ServiceConfig::default()
        });
        let lethal = JobRequest {
            rate_model: Arc::new(MurderousRate),
            ..request("acme", 5, 60)
        };
        let err = service.tune(lethal).unwrap_err();
        assert!(matches!(err, ServeError::WorkerLost), "{err}");
        let deadline = Instant::now() + Duration::from_secs(10);
        while service.metrics().worker_restarts == 0 {
            assert!(Instant::now() < deadline, "supervisor never respawned");
            std::thread::sleep(Duration::from_millis(5));
        }
        while service.health() != HealthState::Healthy {
            assert!(Instant::now() < deadline, "pool never became whole again");
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(service.tune(request("acme", 5, 60)).is_ok());
        let metrics = service.metrics();
        assert_eq!(metrics.worker_panics, 1);
        assert!(metrics.worker_restarts >= 1);
        service.shutdown();
    }

    /// Draining outranks every other health signal and maps to the 503 side
    /// of `/healthz`.
    #[test]
    fn health_reports_drain() {
        let service = TuningService::start(ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        });
        assert_eq!(service.health(), HealthState::Healthy);
        service.begin_drain();
        assert_eq!(service.health(), HealthState::Draining);
        service.shutdown();
    }

    /// Waits (bounded) for a condition driven by the post-response trace
    /// fold-in, which runs on the worker thread after `respond.send`.
    fn poll_until<T>(mut probe: impl FnMut() -> Option<T>, what: &str) -> T {
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            if let Some(value) = probe() {
                return value;
            }
            assert!(Instant::now() < deadline, "{what} never settled");
            std::thread::yield_now();
        }
    }

    /// Satellite regression: a job that *fails* must still reach the
    /// slowest ring (carrying its status) and — because failures are
    /// errors — must be tail-sampled into the span store even when head
    /// sampling is off and the job was fast.
    #[test]
    fn failed_jobs_reach_the_ring_and_are_tail_sampled() {
        let service = TuningService::start(ServiceConfig {
            workers: 1,
            obs: ObsLevel::Traces(TracerConfig {
                head_sample_every: 0,
                slow_threshold_ns: u64::MAX,
                capacity: 16,
            }),
            ..ServiceConfig::default()
        });
        let trace_id = crowdtune_obs::TraceId(0xabc);
        let context = TraceContext {
            trace_id,
            parent: crowdtune_obs::SpanId(1),
            sampled: false,
        };
        let hostile = JobRequest {
            rate_model: Arc::new(PanickingRate),
            ..request("acme", 5, 60)
        };
        let trace = service
            .tracer()
            .map(|t| t.start_trace(JOB_ROOT, Some(context)));
        let handle = service.submit_observed(hostile, None, trace).unwrap();
        let err = handle.wait().unwrap_err();
        assert!(matches!(err, ServeError::WorkerPanic { .. }), "{err}");
        let slowest = poll_until(
            || {
                let slowest = service.slowest_traces();
                (!slowest.is_empty()).then_some(slowest)
            },
            "failed job's ring entry",
        );
        assert_eq!(slowest[0].status_str(), "panicked");
        assert!(!slowest[0].is_ok());
        let tracer = service.tracer().expect("tracing on");
        let stored = poll_until(|| tracer.store().get(trace_id), "error tail sample");
        assert_eq!(stored.reason, crowdtune_obs::SampleReason::TailError);
        assert_eq!(stored.status, crowdtune_obs::SpanStatus::Error);
        assert_eq!(stored.tenant, "acme");
        service.shutdown();
    }

    /// With a 1 ns slow threshold every job is "slow": even unsampled
    /// traces must land in the store with the `TailSlow` reason.
    #[test]
    fn slow_jobs_are_tail_sampled() {
        let service = TuningService::start(ServiceConfig {
            workers: 1,
            obs: ObsLevel::Traces(TracerConfig {
                head_sample_every: 0,
                slow_threshold_ns: 1,
                capacity: 16,
            }),
            ..ServiceConfig::default()
        });
        service.tune(request("acme", 5, 60)).unwrap();
        let tracer = service.tracer().expect("tracing on");
        let stored = poll_until(
            || tracer.store().snapshot().into_iter().next(),
            "slow-job tail sample",
        );
        assert_eq!(stored.reason, crowdtune_obs::SampleReason::TailSlow);
        assert_eq!(stored.status, crowdtune_obs::SpanStatus::Ok);
        service.shutdown();
    }

    /// The full-fidelity path: a caller-supplied sampled context yields a
    /// queryable span tree under the caller's trace id covering admission →
    /// queue wait → solve, and the tree reconstructs the stamp view.
    #[test]
    fn sampled_jobs_yield_a_span_tree_under_the_callers_trace_id() {
        let service = TuningService::start(ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        });
        let trace_id = crowdtune_obs::TraceId(0xfeed_beef);
        let context = TraceContext {
            trace_id,
            parent: crowdtune_obs::SpanId(7),
            sampled: true,
        };
        let trace = service
            .tracer()
            .map(|t| t.start_trace(JOB_ROOT, Some(context)));
        service
            .submit_observed(request("acme", 5, 60), None, trace)
            .unwrap()
            .wait()
            .unwrap();
        let tracer = service.tracer().expect("tracing on");
        let stored = poll_until(|| tracer.store().get(trace_id), "sampled span tree");
        assert_eq!(stored.reason, crowdtune_obs::SampleReason::Head);
        let names: Vec<&str> = stored.spans.iter().map(|s| s.name).collect();
        for expected in ["job.submit", "job", "queue.wait", "solve"] {
            assert!(names.contains(&expected), "missing {expected} in {names:?}");
        }
        // Every span carries the caller's trace id, and the root continues
        // the caller's parent span.
        for span in &stored.spans {
            assert_eq!(span.trace_id, trace_id);
        }
        let root = stored
            .spans
            .iter()
            .find(|s| s.name == "job.submit")
            .unwrap();
        assert_eq!(root.parent, Some(crowdtune_obs::SpanId(7)));
        let view = JobTrace::from_spans(&stored.spans).expect("job span present");
        assert_eq!(view.tenant, "acme");
        assert_eq!(view.status_str(), "ok");
        assert!(view.solve_end_ns >= view.solve_start_ns);
        service.shutdown();
    }

    /// `ObsLevel::Metrics` (like `ObsLevel::Off`) keeps the tracer out of
    /// the pipeline: no tracer handle, and jobs still serve.
    #[test]
    fn tracing_can_be_disabled_independently() {
        let service = TuningService::start(ServiceConfig {
            workers: 1,
            obs: ObsLevel::Metrics,
            ..ServiceConfig::default()
        });
        assert!(service.tracer().is_none());
        service.tune(request("acme", 5, 60)).unwrap();
        // The stamp-based debug surface still works without spans.
        let deadline = Instant::now() + Duration::from_secs(10);
        while service.slowest_traces().is_empty() {
            assert!(Instant::now() < deadline, "ring entry never settled");
            std::thread::yield_now();
        }
        service.shutdown();
    }
}
