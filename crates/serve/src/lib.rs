//! # crowdtune-serve
//!
//! A multi-tenant tuning **service** over the offline H-Tuning machinery of
//! `crowdtune-core`: the piece that turns the paper's one-shot pipeline into
//! something that can serve heavy tuning traffic and react to market drift.
//!
//! ## Architecture
//!
//! ```text
//!  tenants ──submit──▶ PlanCache probe ──exact hit──▶ answered at submit
//!                      (sharded LRU, keyed by         (no queue slot,
//!                       PlanFingerprint)               journal or worker)
//!                        │ miss
//!                        ▼
//!                      JobQueue ──round-robin──▶ tuner worker pool
//!                        │  (admission control)        │
//!                        ▼                             ▼
//!                   back-pressure              PlanCache again (a job
//!                                              queued ahead may have
//!                                              solved it meanwhile)
//!                                                      │ miss
//!                             cache hit ◀──────────────┤
//!                                                      ▼
//!                                              PlanFamilies (budget-agnostic
//!                                              FamilyFingerprint → shared
//!                                              DpTable; prefix read or
//!                                              in-place extension)
//!                                                      │ miss → cold solve
//!                                                      ▼  (seeds family)
//!                                              interned latency tables
//!                                              (crowdtune-core, process-wide)
//!
//!  running job ──events──▶ Retuner ──(drift?)──▶ remaining_after + re-solve
//!                                                      │
//!                             ControlAction::Reallocate┘  (unpublished
//!                                                          repetitions only)
//! ```
//!
//! * [`queue::JobQueue`] — one FIFO lane per tenant, served round-robin, with
//!   depth-based admission control (global + per-tenant bounds).
//! * [`service::TuningService`] — each submitted job is fingerprinted
//!   ([`fingerprint::PlanFingerprint`]) and, when an equivalent job was
//!   already solved, answered on the submitting thread from the sharded LRU
//!   [`cache::PlanCache`] — repeated workloads skip the queue and the
//!   `O(n·B')` DP entirely, and cache hits are bit-identical to the cold
//!   solve. Every other job is queued for a pool of worker threads.
//! * [`family::PlanFamilies`] — cross-**budget** reuse: jobs that resolve to
//!   the Repetition Algorithm and differ only in budget share one
//!   budget-indexed DP table per family
//!   ([`fingerprint::FamilyFingerprint`]), answered by a prefix read (budget
//!   covered) or an in-place warm-start extension (budget above coverage),
//!   bit-identical to cold solves by construction.
//! * [`router::MarketRouter`] — **cross-market routing**: with several
//!   markets registered ([`crowdtune_market::MarketRegistry`]), a job's task
//!   groups are split across markets by solving the separable DP against
//!   each market's belief and assembling the per-group frontier (warm
//!   family tables make a routed quote pure prefix reads), falling back to
//!   single-market tuning whenever the split does not strictly win.
//! * [`store::PlanStore`] — **write-behind durability**: plans, family DP
//!   tables and a crash-recovery job journal persisted as checksummed
//!   append-only streams by a background writer (bounded queue, drop-oldest
//!   backpressure). [`service::TuningService::recover`] warm-starts a new
//!   process from the store — previously served plans come back bit-identical
//!   without a single cold solve, corrupt state degrades to cold solves.
//! * [`retuner::Retuner`] — subscribes to a running job's market events,
//!   re-estimates the on-hold rate curve from observed acceptance delays
//!   (`core::inference`), and on confirmed drift re-solves the H-Tuning
//!   problem for the remaining repetitions and budget
//!   ([`HTuningProblem::remaining_after`](crowdtune_core::problem::HTuningProblem::remaining_after)),
//!   re-pricing only repetitions that are not yet published.
//!
//! The service is synchronous-threaded by design: the solver is CPU-bound,
//! so a thread-per-worker pool with a blocking queue is the honest shape; an
//! async transport front-end can wrap
//! [`service::TuningService::submit_observed`] without touching this crate.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![deny(unsafe_code)]

pub mod cache;
pub mod family;
pub mod fingerprint;
pub mod health;
pub mod queue;
pub mod retuner;
pub mod router;
pub mod service;
pub mod store;

pub use cache::{CacheStats, PlanCache};
pub use crowdtune_core::market::MarketId;
pub use crowdtune_market::MarketRegistry;
pub use crowdtune_obs::{JobTrace, Registry};
pub use family::{FamilyServe, FamilyStats, FamilyTiming, PlanFamilies};
pub use fingerprint::{FamilyFingerprint, PlanFingerprint};
pub use health::{HealthReason, HealthSignals, HealthState};
pub use queue::{AdmissionError, AdmissionPolicy, JobQueue};
pub use retuner::{RetunePolicy, RetuneStats, Retuner};
pub use router::{GroupAssignment, MarketRouter, RouteQuote, RoutedPlan};
pub use service::{
    CompletionNotify, JobHandle, JobRequest, MetricsSnapshot, ObsLevel, PlanSource, RecoveryStats,
    ServeError, ServedPlan, ServiceConfig, ServiceStatus, TuningService, WorkerDeath, JOB_ROOT,
    REPLAY_ATTEMPT_LIMIT,
};
pub use store::{
    backoff_delay, FamilyRecord, FsyncPolicy, JournalRecord, LoadReport, PlanRecord, PlanStore,
    RetryPolicy, Sleeper, StoreError, StoreOptions, StoreSnapshot, StoreStats, ThreadSleeper,
    WriteFault,
};
