//! The gateway's JSON wire forms: the job-submission schema clients POST,
//! the response bodies the server renders, and the conversion into the
//! serve layer's [`JobRequest`].
//!
//! A [`JobRequestWire`] is deliberately *self-contained and declarative*: it
//! carries the tenant, the task-group shapes ([`TaskGroupSpec`]), the budget,
//! the serializable market belief ([`RateSpec`]) and the strategy/scenario
//! override ([`StrategyChoice`]) — exactly the durable description the
//! store's crash journal already persists, so anything expressible over the
//! wire is also journal-able. Conversion re-runs every constructor
//! validation, so a hostile body can produce a structured 4xx but never a
//! panicking solve.

use crowdtune_core::market::MarketId;
use crowdtune_core::money::Budget;
use crowdtune_core::rate::RateSpec;
use crowdtune_core::task::{TaskGroupSpec, TaskSet};
use crowdtune_core::tuner::StrategyChoice;
use crowdtune_serve::{JobRequest, JobTrace, PlanSource, ServedPlan};
use serde::{Deserialize, Serialize};
use std::fmt;

/// A job submission as it travels over the wire (`POST /v1/jobs`).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct JobRequestWire {
    /// Submitting tenant; fairness and per-tenant admission key on it.
    /// Optional on the wire: authenticated submits derive the tenant from
    /// the API key and may omit (or empty) this field entirely — when
    /// present alongside a key it must *agree* with the key's tenant (403
    /// otherwise). Unauthenticated submits in legacy body-tenant mode still
    /// require it non-empty.
    pub tenant: String,
    /// Target market; absent (or `null`) means the default market, so every
    /// pre-federation client body keeps working unchanged. Unknown ids are
    /// rejected by the service, not the wire layer — the gateway cannot know
    /// which markets the service registered.
    pub market: Option<MarketId>,
    /// The job's task groups (converted via [`TaskSet::from_group_specs`]).
    pub groups: Vec<TaskGroupSpec>,
    /// Total budget in units.
    pub budget: u64,
    /// The tenant's market belief.
    pub rate: RateSpec,
    /// Strategy override; `Auto` picks EA/RA/HA per scenario.
    pub strategy: StrategyChoice,
}

// Hand-written so `market` and `tenant` can be *absent* from client JSON:
// the derived impl treats every field as mandatory, which would break
// existing clients (and authenticated bodies need no tenant at all).
impl Deserialize for JobRequestWire {
    fn deserialize_value(value: &serde::Value) -> Result<Self, serde::DeError> {
        Ok(JobRequestWire {
            tenant: match value.opt_field("tenant")? {
                Some(tenant) => Deserialize::deserialize_value(tenant)?,
                None => String::new(),
            },
            market: match value.opt_field("market")? {
                Some(market) => Deserialize::deserialize_value(market)?,
                None => None,
            },
            groups: Deserialize::deserialize_value(value.field("groups")?)?,
            budget: Deserialize::deserialize_value(value.field("budget")?)?,
            rate: Deserialize::deserialize_value(value.field("rate")?)?,
            strategy: Deserialize::deserialize_value(value.field("strategy")?)?,
        })
    }
}

/// A semantically invalid (but well-formed) submission → HTTP 422.
#[derive(Debug)]
pub struct InvalidJob {
    detail: String,
}

impl fmt::Display for InvalidJob {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.detail)
    }
}

impl std::error::Error for InvalidJob {}

impl JobRequestWire {
    /// Converts the wire form into a validated [`JobRequest`].
    ///
    /// `max_slots` bounds the job's total repetition slots (Σ tasks·reps),
    /// checked **before** the task set materialises so a tiny JSON body
    /// declaring an enormous job is refused without allocating it.
    pub fn to_request(&self, max_slots: u64) -> Result<JobRequest, InvalidJob> {
        let invalid = |detail: String| InvalidJob { detail };
        if self.tenant.is_empty() {
            return Err(invalid("tenant must be non-empty".to_owned()));
        }
        if self.groups.is_empty() {
            return Err(invalid("a job needs at least one task group".to_owned()));
        }
        let slots = self
            .groups
            .iter()
            .map(|g| g.tasks.saturating_mul(u64::from(g.repetitions)))
            .fold(0u64, u64::saturating_add);
        if slots > max_slots {
            return Err(invalid(format!(
                "job declares {slots} repetition slots, above the {max_slots} cap"
            )));
        }
        let task_set = TaskSet::from_group_specs(&self.groups)
            .map_err(|e| invalid(format!("invalid task groups: {e}")))?;
        let rate_model = self
            .rate
            .build()
            .map_err(|e| invalid(format!("invalid rate spec: {e}")))?;
        Ok(JobRequest {
            tenant: self.tenant.clone(),
            market: self.market.unwrap_or(MarketId::DEFAULT),
            task_set,
            budget: Budget::units(self.budget),
            rate_model,
            strategy: self.strategy,
        })
    }
}

/// The wire spelling of a [`PlanSource`], so clients can observe which reuse
/// layer answered (`"cache"`, `"family"`, `"cold"`).
pub fn plan_source_label(source: PlanSource) -> &'static str {
    match source {
        PlanSource::CacheHit => "cache",
        PlanSource::FamilyHit => "family",
        PlanSource::ColdSolve => "cold",
    }
}

/// The structured error body every non-2xx response carries.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ErrorBody {
    /// Stable machine-readable code (`bad_request`, `invalid_job`,
    /// `tenant_over_limit`, `queue_full`, `draining`, `tuning_failed`,
    /// `not_found`, `method_not_allowed`, ...).
    pub error: String,
    /// Human-readable detail.
    pub detail: String,
}

impl ErrorBody {
    /// Builds an error body.
    pub fn new(error: &str, detail: impl Into<String>) -> Self {
        ErrorBody {
            error: error.to_owned(),
            detail: detail.into(),
        }
    }
}

/// Response to an asynchronous submission (`202 Accepted`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SubmittedBody {
    /// Service-assigned job id, for `GET /v1/jobs/{id}`.
    pub job_id: u64,
    /// Always `"pending"`.
    pub status: String,
}

/// Response describing a job (`GET /v1/jobs/{id}`, and `POST ?wait=1`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobBody {
    /// Service-assigned job id.
    pub job_id: u64,
    /// `"pending"`, `"done"` or `"failed"`.
    pub status: String,
    /// Which reuse layer answered (`"cache"`/`"family"`/`"cold"`); only on
    /// `"done"`.
    pub source: Option<String>,
    /// The tuned plan; only on `"done"`. Bit-identical to an in-process
    /// solve of the same request by construction. `Arc`ed so the body
    /// shares the served plan (possibly the cache's own copy) instead of
    /// deep-cloning payment vectors on every response.
    pub plan: Option<std::sync::Arc<crowdtune_core::tuner::TunedPlan>>,
    /// Why the job failed; only on `"failed"`.
    pub error: Option<ErrorBody>,
}

impl JobBody {
    /// A still-pending job.
    pub fn pending(job_id: u64) -> Self {
        JobBody {
            job_id,
            status: "pending".to_owned(),
            source: None,
            plan: None,
            error: None,
        }
    }

    /// A completed job.
    pub fn done(served: &ServedPlan) -> Self {
        JobBody {
            job_id: served.job_id,
            status: "done".to_owned(),
            source: Some(plan_source_label(served.source).to_owned()),
            plan: Some(served.plan.clone()),
            error: None,
        }
    }

    /// A failed job.
    pub fn failed(job_id: u64, error: ErrorBody) -> Self {
        JobBody {
            job_id,
            status: "failed".to_owned(),
            source: None,
            plan: None,
            error: Some(error),
        }
    }
}

/// Response of `GET /v1/debug/slowest`: the slowest job traces the span
/// store kept, slowest first (see
/// [`TuningService::slowest_traces`](crowdtune_serve::TuningService::slowest_traces)).
/// Empty when tracing is off.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SlowestBody {
    /// Traces ordered by descending total time.
    pub traces: Vec<TraceBody>,
}

/// One kept job's stage timeline, read back from its span tree and
/// flattened to per-stage durations in seconds (the stamps themselves are
/// process-relative and meaningless over the wire).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceBody {
    /// Service-assigned job id.
    pub job_id: u64,
    /// Submitting tenant.
    pub tenant: String,
    /// Scenario the solver actually ran (`"EA"`/`"RA"`/`"HA"`).
    pub scenario: String,
    /// Which reuse layer answered (`"cache"`/`"family"`/`"cold"`).
    pub source: String,
    /// How the job ended: `"ok"`, `"failed"`, `"panicked"` or `"lost"` —
    /// tail sampling keeps failed jobs alongside slow ones, so the status
    /// is part of the wire shape.
    pub status: String,
    /// Admission (or enqueue) to worker pickup.
    pub queue_wait_seconds: f64,
    /// Fingerprint to plan-in-hand (cache lookup, family serve or DP solve).
    pub solve_seconds: f64,
    /// Quality/cost estimation of the chosen plan.
    pub estimate_seconds: f64,
    /// Time blocked on a plan family's table lock (zero off the family path).
    pub family_lock_wait_seconds: f64,
    /// Admission to response delivered.
    pub total_seconds: f64,
}

impl TraceBody {
    /// Flattens a [`JobTrace`] into the wire shape.
    pub fn from_trace(trace: &JobTrace) -> Self {
        let seconds = |ns: u64| ns as f64 / 1e9;
        TraceBody {
            job_id: trace.job_id,
            tenant: trace.tenant.clone(),
            scenario: trace.scenario.to_owned(),
            source: trace.source.to_owned(),
            status: trace.status_str().to_owned(),
            queue_wait_seconds: seconds(trace.queue_wait_ns()),
            solve_seconds: seconds(trace.solve_ns()),
            estimate_seconds: seconds(trace.estimate_ns()),
            family_lock_wait_seconds: seconds(trace.family_lock_wait_ns),
            total_seconds: seconds(trace.total_ns()),
        }
    }
}

/// Response of `GET /v1/debug/traces`: the span store's sampled traces,
/// newest first, after any query filters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TracesBody {
    /// One summary per sampled trace.
    pub traces: Vec<TraceSummaryBody>,
}

/// One sampled trace in the `GET /v1/debug/traces` listing.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceSummaryBody {
    /// The 32-hex-digit W3C trace id; fetch the tree at
    /// `GET /v1/debug/traces/{trace_id}`.
    pub trace_id: String,
    /// Root operation name (`"http.request"`, `"job.submit"`, ...).
    pub name: String,
    /// Submitting tenant (empty when the request failed before one was
    /// resolved).
    pub tenant: String,
    /// Market the job tuned against (empty off the job path).
    pub market: String,
    /// Paper scenario (`"EA"`/`"RA"`/`"HA"`, empty off the solve path).
    pub scenario: String,
    /// Root status: `"ok"` or `"error"`.
    pub status: String,
    /// Why the trace was kept: `"head"`, `"tail_slow"` or `"tail_error"`.
    pub sampled: String,
    /// Wall-clock length of the root span, in seconds.
    pub duration_seconds: f64,
    /// Number of spans in the tree.
    pub spans: u64,
}

impl TraceSummaryBody {
    /// Flattens a stored trace into the listing shape.
    pub fn from_stored(trace: &crowdtune_obs::StoredTrace) -> Self {
        TraceSummaryBody {
            trace_id: trace.trace_id.to_hex(),
            name: trace.name.to_owned(),
            tenant: trace.tenant.clone(),
            market: trace.market.clone(),
            scenario: trace.scenario.to_owned(),
            status: trace.status.as_str().to_owned(),
            sampled: trace.reason.as_str().to_owned(),
            duration_seconds: trace.duration_ns as f64 / 1e9,
            spans: trace.spans.len() as u64,
        }
    }
}

/// Response of `GET /v1/debug/traces/{trace_id}`: one sampled trace with
/// its full span tree.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceTreeBody {
    /// The trace's summary line.
    pub trace: TraceSummaryBody,
    /// Every span of the tree, parents before children.
    pub spans: Vec<SpanBody>,
}

impl TraceTreeBody {
    /// Renders a stored trace and its spans.
    pub fn from_stored(trace: &crowdtune_obs::StoredTrace) -> Self {
        TraceTreeBody {
            trace: TraceSummaryBody::from_stored(trace),
            spans: trace.spans.iter().map(SpanBody::from_span).collect(),
        }
    }
}

/// One span inside a [`TraceTreeBody`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpanBody {
    /// The span's 16-hex-digit id.
    pub span_id: String,
    /// The parent span's id; `null` only on the root.
    pub parent: Option<String>,
    /// Operation name (`"gateway.auth"`, `"queue.wait"`, `"solve"`, ...).
    pub name: String,
    /// Start offset from the tracer epoch, in nanoseconds.
    pub start_ns: u64,
    /// Span length in nanoseconds.
    pub duration_ns: u64,
    /// `"ok"` or `"error"`.
    pub status: String,
    /// Typed attributes, rendered as strings.
    pub attrs: Vec<SpanAttrBody>,
}

impl SpanBody {
    /// Flattens one span (attribute values render via their JSON forms).
    pub fn from_span(span: &crowdtune_obs::Span) -> Self {
        SpanBody {
            span_id: span.span_id.to_hex(),
            parent: span.parent.map(|p| p.to_hex()),
            name: span.name.to_owned(),
            start_ns: span.start_ns,
            duration_ns: span.duration_ns,
            status: span.status.as_str().to_owned(),
            attrs: span
                .attrs
                .iter()
                .map(|(key, value)| SpanAttrBody {
                    key: (*key).to_owned(),
                    value: value.render(),
                })
                .collect(),
        }
    }
}

/// One `key = value` span attribute.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpanAttrBody {
    /// Attribute key.
    pub key: String,
    /// Attribute value, rendered as text.
    pub value: String,
}

/// Response of `GET /v1/debug/logs`: the structured log ring, oldest
/// surviving record first, after the level filter.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LogsBody {
    /// The retained records.
    pub records: Vec<LogRecordBody>,
}

/// One structured log record.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LogRecordBody {
    /// Unix timestamp of the record, in nanoseconds.
    pub ts_unix_ns: u64,
    /// `"debug"`, `"info"`, `"warn"` or `"error"`.
    pub level: String,
    /// Emitting subsystem (`"gateway"`, `"serve::worker"`, ...).
    pub target: String,
    /// The message text.
    pub message: String,
    /// 32-hex trace id active at emission; `null` outside any trace.
    pub trace_id: Option<String>,
    /// 16-hex span id active at emission; `null` outside any span.
    pub span_id: Option<String>,
    /// Structured fields, rendered as strings.
    pub fields: Vec<SpanAttrBody>,
}

impl LogRecordBody {
    /// Flattens a log record into the wire shape.
    pub fn from_record(record: &crowdtune_obs::LogRecord) -> Self {
        LogRecordBody {
            ts_unix_ns: record.ts_unix_ns,
            level: record.level.as_str().to_owned(),
            target: record.target.to_owned(),
            message: record.message.clone(),
            trace_id: record.trace_id.map(|id| id.to_hex()),
            span_id: record.span_id.map(|id| id.to_hex()),
            fields: record
                .fields
                .iter()
                .map(|(key, value)| SpanAttrBody {
                    key: (*key).to_owned(),
                    value: value.clone(),
                })
                .collect(),
        }
    }
}

/// Response of `GET /healthz`: the health state machine's wire form.
/// `healthy`/`degraded` ride a 200, `draining` a 503.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HealthBody {
    /// `"healthy"`, `"degraded"` or `"draining"`
    /// (see [`crowdtune_serve::HealthState::label`]).
    pub status: String,
    /// Machine-readable degradation reasons
    /// ([`crowdtune_serve::HealthReason::as_str`]); empty unless degraded.
    pub reasons: Vec<String>,
    /// Whether the gateway/service pair is draining.
    pub draining: bool,
}

/// Response of `GET /v1/metrics`: every service counter surface in one
/// snapshot.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricsBody {
    /// Jobs accepted: exact cache hits answered at submit plus queued jobs.
    pub submitted: u64,
    /// Jobs refused by admission control.
    pub rejected: u64,
    /// Exact-match plan-cache answers.
    pub cache_hits: u64,
    /// Cross-budget family answers.
    pub family_hits: u64,
    /// Full cold solves.
    pub cold_solves: u64,
    /// Jobs whose solve failed.
    pub solve_errors: u64,
    /// Jobs currently queued.
    pub pending: u64,
    /// Whether the service is draining.
    pub draining: bool,
    /// Plan-cache counters.
    pub cache: CacheBody,
    /// Plan-family counters.
    pub families: FamiliesBody,
    /// Durable-store write-behind counters (`null` without a store).
    pub store: Option<StoreBody>,
}

/// Plan-cache counters within [`MetricsBody`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CacheBody {
    /// Lookups that found a live entry.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Entries evicted by the LRU policy.
    pub evictions: u64,
    /// Entries currently resident.
    pub entries: u64,
}

/// Plan-family counters within [`MetricsBody`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FamiliesBody {
    /// Families currently resident.
    pub families: u64,
    /// Jobs answered from a resident family table.
    pub hits: u64,
    /// Hits that first grew the table.
    pub extensions: u64,
    /// Cold solves that seeded a family.
    pub builds: u64,
    /// Families displaced by the LRU bound.
    pub evictions: u64,
    /// Families rehydrated from a persisted snapshot.
    pub reloads: u64,
}

/// Durable-store counters within [`MetricsBody`]. `dropped` is the
/// write-behind backpressure loss — records shed because the bounded queue
/// was full — previously visible only in logs/tests.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StoreBody {
    /// Records accepted onto the write-behind queue.
    pub enqueued: u64,
    /// Records the writer retired.
    pub retired: u64,
    /// Records dropped under backpressure (queue full, oldest evicted).
    pub dropped: u64,
    /// Records whose disk write failed.
    pub write_errors: u64,
    /// `fsync` calls issued under the configured policy.
    pub fsyncs: u64,
}

impl MetricsBody {
    /// Flattens a [`ServiceStatus`](crowdtune_serve::ServiceStatus) into the
    /// wire shape.
    pub fn from_status(status: &crowdtune_serve::ServiceStatus) -> Self {
        MetricsBody {
            submitted: status.metrics.submitted,
            rejected: status.metrics.rejected,
            cache_hits: status.metrics.cache_hits,
            family_hits: status.metrics.family_hits,
            cold_solves: status.metrics.cold_solves,
            solve_errors: status.metrics.solve_errors,
            pending: status.pending as u64,
            draining: status.draining,
            cache: CacheBody {
                hits: status.cache.hits,
                misses: status.cache.misses,
                evictions: status.cache.evictions,
                entries: status.cache.entries,
            },
            families: FamiliesBody {
                families: status.families.families,
                hits: status.families.hits,
                extensions: status.families.extensions,
                builds: status.families.builds,
                evictions: status.families.evictions,
                reloads: status.families.reloads,
            },
            store: status.store.map(|store| StoreBody {
                enqueued: store.enqueued,
                retired: store.retired,
                dropped: store.dropped,
                write_errors: store.write_errors,
                fsyncs: store.fsyncs,
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crowdtune_core::rate::LinearRate;

    fn wire(budget: u64) -> JobRequestWire {
        JobRequestWire {
            tenant: "acme".to_owned(),
            market: None,
            groups: vec![
                TaskGroupSpec {
                    name: "vote".to_owned(),
                    processing_rate: 2.0,
                    tasks: 3,
                    repetitions: 3,
                },
                TaskGroupSpec {
                    name: "vote".to_owned(),
                    processing_rate: 2.0,
                    tasks: 4,
                    repetitions: 5,
                },
            ],
            budget,
            rate: RateSpec::Linear(LinearRate::unit_slope()),
            strategy: StrategyChoice::Auto,
        }
    }

    #[test]
    fn wire_round_trips_and_converts() {
        let wire = wire(120);
        let text = serde_json::to_string(&wire).unwrap();
        let back: JobRequestWire = serde_json::from_str(&text).unwrap();
        assert_eq!(back, wire);
        let request = wire.to_request(10_000).unwrap();
        assert_eq!(request.tenant, "acme");
        assert_eq!(request.task_set.len(), 7);
        assert_eq!(request.budget.as_units(), 120);
        // The conversion reuses the core group-spec path, so the set is
        // identical to a hand-built one (Scenario II shape here).
        assert!(request.task_set.is_homogeneous_type());
    }

    #[test]
    fn conversion_rejects_invalid_jobs_without_allocating() {
        let mut empty_tenant = wire(120);
        empty_tenant.tenant.clear();
        assert!(empty_tenant.to_request(10_000).is_err());

        let mut no_groups = wire(120);
        no_groups.groups.clear();
        assert!(no_groups.to_request(10_000).is_err());

        // An absurd declared size trips the slot cap before any task set is
        // built (u64 arithmetic saturates instead of overflowing).
        let mut huge = wire(120);
        huge.groups[0].tasks = u64::MAX;
        assert!(huge.to_request(10_000).is_err());

        let mut bad_rate = wire(120);
        bad_rate.rate = RateSpec::Linear(LinearRate { k: -1.0, b: 0.0 });
        assert!(bad_rate.to_request(10_000).is_err());

        let mut zero_reps = wire(120);
        zero_reps.groups[0].repetitions = 0;
        assert!(zero_reps.to_request(10_000).is_err());
    }

    /// Wire back-compat: pre-federation client bodies carry no `market`
    /// key at all — they must keep parsing and land on the default market.
    #[test]
    fn bodies_without_a_market_key_land_on_the_default_market() {
        let text = r#"{
            "tenant": "acme",
            "groups": [{"name": "vote", "processing_rate": 2.0, "tasks": 3, "repetitions": 3}],
            "budget": 60,
            "rate": {"Linear": {"k": 1.0, "b": 1.0}},
            "strategy": "Auto"
        }"#;
        let wire: JobRequestWire = serde_json::from_str(text).unwrap();
        assert_eq!(wire.market, None);
        let request = wire.to_request(10_000).unwrap();
        assert_eq!(request.market, MarketId::DEFAULT);
    }

    #[test]
    fn explicit_market_ids_travel_over_the_wire() {
        let mut with_market = wire(120);
        with_market.market = Some(MarketId(3));
        let text = serde_json::to_string(&with_market).unwrap();
        assert!(text.contains("\"market\":3"), "{text}");
        let back: JobRequestWire = serde_json::from_str(&text).unwrap();
        assert_eq!(back, with_market);
        assert_eq!(back.to_request(10_000).unwrap().market, MarketId(3));
    }

    #[test]
    fn plan_sources_have_stable_labels() {
        assert_eq!(plan_source_label(PlanSource::CacheHit), "cache");
        assert_eq!(plan_source_label(PlanSource::FamilyHit), "family");
        assert_eq!(plan_source_label(PlanSource::ColdSolve), "cold");
    }
}
