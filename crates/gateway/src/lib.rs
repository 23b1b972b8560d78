//! # crowdtune-gateway
//!
//! A **std-only HTTP/1.1 + JSON front-end** for the transport-agnostic
//! [`TuningService`](crowdtune_serve::TuningService): the first network
//! boundary of the crowdtune stack. No async runtime, no HTTP crate — an
//! **event-driven reactor** over non-blocking sockets ([`server`], readiness
//! from an epoll-backed poller) drives every connection as a
//! small state machine, a hand-rolled bounded parser ([`http`]) reads each
//! request straight from its connection's buffer as bytes arrive, and
//! self-contained JSON wire forms ([`wire`]) are
//! built on the same `RateSpec`/`TaskGroupSpec` catalogue the durable store
//! persists — anything a client can submit is journal-able, and every plan
//! served over the wire is **bit-identical** to an in-process `submit` of
//! the same job (the e2e test `sync_submission_serves_bit_identical_plans`
//! asserts this over real sockets).
//!
//! ```text
//!  clients ──HTTP/1.1──▶ reactor thread (epoll readiness loop)
//!                           │ accept / shed 503 at the connection cap
//!                           ▼
//!                   connection state machines          TuningService
//!                   idle ─ reading ─ dispatched ──────▶ tuner pool
//!                     ▲                │ completion        │
//!                     └── writing ◀────┘ notify (waker)  solver work
//!                                                     ▼
//!                                    POST   /v1/jobs (202 + id, or ?wait=1)
//!                                    GET    /v1/jobs/{id}    status / plan
//!                                    DELETE /v1/jobs/{id}    release result
//!                                    GET    /v1/metrics      counters (JSON)
//!                                      …?format=prometheus   text exposition
//!                                    GET    /v1/debug/slowest slowest kept jobs
//!                                    GET    /v1/debug/traces  sampled span trees
//!                                    GET    /v1/debug/traces/{trace_id}
//!                                    GET    /v1/debug/logs    structured log ring
//!                                    GET    /healthz         liveness + drain
//! ```
//!
//! One reactor thread holds tens of thousands of keep-alive connections:
//! parked clients cost a registered fd and a timer entry, never a thread.
//! Synchronous submits (`?wait=1`) park the *connection*, not a thread — the
//! tuner pool signals completion through the reactor's waker and the
//! response is written on the next readiness turn.
//! Request deadlines, idle keep-alive timeouts, write-stall bounds, and
//! graceful drain all ride one timer heap.
//!
//! The v1 API is authenticated and metered: API keys
//! (`Authorization: Bearer` or `X-Api-Key`) resolve the tenant a submit
//! runs under ([`AuthConfig`]; the legacy self-declared body tenant remains
//! available behind a flag). Configured keys are held in memory only as
//! salted iterated digests with constant-time comparison ([`auth`]) — the
//! plaintext map is consumed at startup. Per-tenant token buckets answer `429` with
//! `Retry-After` when a tenant outruns its quota ([`QuotaConfig`]), and
//! completed results live until a TTL, a FIFO cap, or an idempotent
//! `DELETE /v1/jobs/{id}` releases them.
//!
//! Admission control surfaces as HTTP semantics: quota and per-tenant depth
//! rejections are `429`, global queue-full and draining are `503`,
//! unauthenticated submits are `401`, key/tenant contradictions are `403`,
//! malformed requests are `400` with structured error bodies, and every
//! response carrying a plan reports its
//! [`PlanSource`](crowdtune_serve::PlanSource) (`cache` / `family` /
//! `cold`) so clients can observe the reuse layers at work.
//!
//! The gateway is itself instrumented into the service's metric registry
//! (connections accepted/shed/timed-out, parse rejects by class, request
//! counts and latency histograms per endpoint × status class, bytes in/out),
//! so one scrape of `/v1/metrics?format=prometheus` covers transport and
//! solver alike; `GET /v1/debug/slowest` lists the slowest job traces the
//! span store kept ([`SlowestBody`]) stage by stage.
//!
//! Causal request tracing rides the same socket: a `traceparent` request
//! header (W3C Trace Context) joins the submit to the caller's trace, the
//! job's whole span tree — gateway parse/auth/quota/dispatch, queue wait,
//! solve, store persist — lands in the service's span store under the
//! caller's trace id, the response echoes `traceparent` so clients learn
//! minted ids, and `GET /v1/debug/traces[/{trace_id}]` serves the sampled
//! trees ([`TracesBody`], [`TraceTreeBody`]). `GET /v1/debug/logs` exposes
//! the structured log ring ([`LogsBody`]), each record stamped with the
//! trace/span that was active when it was emitted.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![deny(unsafe_code)]

pub mod auth;
pub mod http;
mod metrics;
mod reactor;
pub mod server;
pub mod wire;

pub use auth::HashedKeys;
pub use http::{Limits, Request, RequestError, Response};
pub use server::{AuthConfig, Gateway, GatewayConfig, QuotaConfig};
pub use wire::{
    CacheBody, ErrorBody, FamiliesBody, HealthBody, JobBody, JobRequestWire, LogRecordBody,
    LogsBody, MetricsBody, SlowestBody, SpanBody, StoreBody, SubmittedBody, TraceBody,
    TraceSummaryBody, TraceTreeBody, TracesBody,
};
