//! # crowdtune-obs
//!
//! Std-only telemetry primitives for the crowdtune stack: the pieces every
//! layer (queue, service, family store, durable store, HTTP gateway) uses to
//! expose *where time goes* without perturbing the paths being measured.
//!
//! * [`Histogram`] — lock-free fixed-bucket log-linear histogram over the
//!   full `u64` range: relaxed atomic adds on the record path, mergeable,
//!   quantile estimates with a documented ≤ 12.5% relative error bound
//!   (see [`hist`]).
//! * [`Counter`] / [`Gauge`] — `Arc`-shared atomic scalars, designed to
//!   *back* existing stats structs so a legacy snapshot and a Prometheus
//!   scrape read the same cells.
//! * [`Registry`] — named metric families rendered as Prometheus text
//!   exposition v0.0.4, in registration order (which is the mechanism for
//!   cross-counter scrape invariants; see [`registry`]).
//! * [`JobTrace`] — per-job stage timelines (admitted → queued → dequeued
//!   → solve → estimate → completed), stored as spans and read back from
//!   them; `GET /v1/debug/slowest` lists the slowest kept ones.
//! * [`span`] — causal request tracing: W3C `traceparent` propagation
//!   ([`TraceContext`]), per-request span trees ([`ActiveTrace`]) with head
//!   plus tail (slow/error) sampling, and the bounded [`SpanStore`] behind
//!   `GET /v1/debug/traces`.
//! * [`log`] — a leveled, rate-limited ring of structured records stamped
//!   with the active trace/span, behind `GET /v1/debug/logs`.
//!
//! The crate is dependency-free by design: it renders its own exposition
//! text, so it can sit below every other crate in the workspace.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![deny(unsafe_code)]

pub mod hist;
pub mod log;
pub mod metric;
pub mod registry;
pub mod span;
pub mod trace;

pub use hist::{Histogram, HistogramSnapshot, BUCKET_COUNT, SUB_BUCKET_BITS};
pub use log::{LogLevel, LogRecord, Logger, LoggerConfig, TokenBucket};
pub use metric::{Counter, Gauge};
pub use registry::Registry;
pub use span::{
    ActiveTrace, AttrValue, SampleReason, Span, SpanId, SpanStatus, SpanStore, StoredTrace,
    TraceContext, TraceId, TraceStart, Tracer, TracerConfig,
};
pub use trace::JobTrace;
