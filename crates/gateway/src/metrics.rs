//! Gateway-side instrumentation: connection accounting, parse rejects by
//! class, per-endpoint × status-class request counters and latency
//! histograms, and byte totals in both directions.
//!
//! All cells live in the **service's** registry (the gateway has no registry
//! of its own), so one scrape of `/v1/metrics?format=prometheus` covers the
//! whole process: solver stage timings and transport health side by side.
//! Handles are fetched with the registry's get-or-create calls, so two
//! gateways wrapping the same service share cells instead of double
//! registering.

use crate::http::RequestError;
use crowdtune_obs::{Counter, Gauge, Histogram, Registry};

/// The `endpoint` label values, one per route plus a catch-all for requests
/// that never matched a route (404s, unparseable job ids).
pub(crate) const ENDPOINT_LABELS: [&str; 9] = [
    "post_jobs",
    "get_job",
    "delete_job",
    "get_metrics",
    "get_healthz",
    "get_debug_slowest",
    "get_debug_traces",
    "get_debug_logs",
    "other",
];

/// The `class` label values for [`GatewayMetrics::observe`]. The gateway
/// never emits 1xx/3xx, so anything outside 2xx/4xx folds into `5xx`.
const CLASS_LABELS: [&str; 3] = ["2xx", "4xx", "5xx"];

/// The `class` label values for parse rejects, one per [`RequestError`]
/// variant.
const REJECT_LABELS: [&str; 4] = [
    "malformed",
    "headers_too_large",
    "body_too_large",
    "unsupported",
];

/// The `reason` label values for auth rejects.
const AUTH_REJECT_LABELS: [&str; 2] = ["unauthenticated", "tenant_mismatch"];

/// Which route a request resolved to, for the `endpoint` label.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Endpoint {
    /// `POST /v1/jobs`.
    PostJobs = 0,
    /// `GET /v1/jobs/{id}`.
    GetJob = 1,
    /// `DELETE /v1/jobs/{id}`.
    DeleteJob = 2,
    /// `GET /v1/metrics`.
    GetMetrics = 3,
    /// `GET /healthz`.
    GetHealthz = 4,
    /// `GET /v1/debug/slowest`.
    GetDebugSlowest = 5,
    /// `GET /v1/debug/traces` and `GET /v1/debug/traces/{trace_id}`.
    GetDebugTraces = 6,
    /// `GET /v1/debug/logs`.
    GetDebugLogs = 7,
    /// No route matched (404) or the method was wrong (405).
    Other = 8,
}

/// Why an authenticated-principal check refused a submit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum AuthReject {
    /// No usable credential (missing or unknown key) → 401.
    Unauthenticated = 0,
    /// Valid key, but the body named a different tenant → 403.
    TenantMismatch = 1,
}

/// Every gateway-owned metric handle. Cheap to clone counters are held
/// directly; the per-endpoint families are pre-created arrays so the
/// request path never takes the registry lock.
pub(crate) struct GatewayMetrics {
    /// Connections the reactor took on (shed ones not included).
    pub connections_accepted: Counter,
    /// Connections shed with `503` because the connection cap was reached.
    pub connections_shed: Counter,
    /// Connections closed by the keep-alive timeout or request deadline.
    pub connections_timed_out: Counter,
    /// Connections currently registered with a reactor.
    pub connections_open: Gauge,
    /// Bytes read off sockets (request heads and bodies).
    pub bytes_in: Counter,
    /// Bytes written to sockets (response heads and bodies).
    pub bytes_out: Counter,
    /// Submits refused by the authenticated-principal check, by reason.
    auth_rejects: [Counter; 2],
    /// Submits refused by the per-tenant token-bucket quota (429 +
    /// `Retry-After`), distinct from queue-depth admission 429s.
    pub quota_rejects: Counter,
    /// Completed job outcomes currently retained for polling.
    pub jobs_retained: Gauge,
    /// Retained outcomes dropped by TTL expiry.
    pub jobs_expired: Counter,
    /// Jobs removed by `DELETE /v1/jobs/{id}`.
    pub jobs_deleted: Counter,
    /// Submits whose `traceparent` header failed W3C Trace Context
    /// validation (the header is ignored and a fresh trace minted).
    pub traceparent_invalid: Counter,
    /// Parse rejects by [`RequestError`] class, [`REJECT_LABELS`] order.
    parse_rejects: [Counter; 4],
    /// Requests by endpoint × status class.
    requests: [[Counter; 3]; 9],
    /// Request service time (route dispatch through handler return) by
    /// endpoint, recorded in nanoseconds, exposed in seconds.
    latency: [Histogram; 9],
}

impl GatewayMetrics {
    /// Fetches (creating on first use) every gateway cell from `registry`.
    pub fn new(registry: &Registry) -> Self {
        let conn = |state: &str, help: &str| {
            registry.counter(
                &format!("crowdtune_gateway_connections_{state}_total"),
                help,
                &[],
            )
        };
        GatewayMetrics {
            connections_accepted: conn("accepted", "Connections taken on by a reactor."),
            connections_shed: conn(
                "shed",
                "Connections answered 503 at the door (connection cap reached).",
            ),
            connections_timed_out: conn(
                "timed_out",
                "Connections closed by the keep-alive timeout or request deadline.",
            ),
            connections_open: registry.gauge(
                "crowdtune_gateway_connections_open",
                "Connections currently registered with a reactor.",
                &[],
            ),
            auth_rejects: std::array::from_fn(|i| {
                registry.counter(
                    "crowdtune_gateway_auth_rejects_total",
                    "Submits refused by the authenticated-principal check, by reason.",
                    &[("reason", AUTH_REJECT_LABELS[i])],
                )
            }),
            quota_rejects: registry.counter(
                "crowdtune_gateway_quota_rejects_total",
                "Submits refused by the per-tenant request quota (429 + Retry-After).",
                &[],
            ),
            jobs_retained: registry.gauge(
                "crowdtune_gateway_jobs_retained",
                "Completed job outcomes currently retained for polling.",
                &[],
            ),
            jobs_expired: registry.counter(
                "crowdtune_gateway_jobs_expired_total",
                "Retained job outcomes dropped by TTL expiry.",
                &[],
            ),
            jobs_deleted: registry.counter(
                "crowdtune_gateway_jobs_deleted_total",
                "Jobs removed by DELETE /v1/jobs/{id}.",
                &[],
            ),
            bytes_in: registry.counter(
                "crowdtune_gateway_bytes_in_total",
                "Bytes read from client sockets.",
                &[],
            ),
            bytes_out: registry.counter(
                "crowdtune_gateway_bytes_out_total",
                "Bytes written to client sockets.",
                &[],
            ),
            traceparent_invalid: registry.counter(
                "crowdtune_gateway_traceparent_invalid_total",
                "Submits carrying a traceparent header that failed W3C validation.",
                &[],
            ),
            parse_rejects: std::array::from_fn(|i| {
                registry.counter(
                    "crowdtune_gateway_parse_rejects_total",
                    "Requests refused before routing, by parse-failure class.",
                    &[("class", REJECT_LABELS[i])],
                )
            }),
            requests: std::array::from_fn(|e| {
                std::array::from_fn(|c| {
                    registry.counter(
                        "crowdtune_gateway_requests_total",
                        "Routed requests by endpoint and status class.",
                        &[("endpoint", ENDPOINT_LABELS[e]), ("class", CLASS_LABELS[c])],
                    )
                })
            }),
            latency: std::array::from_fn(|e| {
                registry.histogram(
                    "crowdtune_gateway_request_seconds",
                    "Request service time (dispatch to handler return) by endpoint.",
                    &[("endpoint", ENDPOINT_LABELS[e])],
                    1e9,
                )
            }),
        }
    }

    /// Records one routed request: its endpoint, response status, and
    /// service time in nanoseconds.
    pub fn observe(&self, endpoint: Endpoint, status: u16, nanos: u64) {
        let class = match status / 100 {
            2 => 0,
            4 => 1,
            _ => 2,
        };
        self.requests[endpoint as usize][class].inc();
        self.latency[endpoint as usize].record(nanos);
    }

    /// Counts a submit refused by the authenticated-principal check.
    pub fn auth_rejected(&self, reason: AuthReject) {
        self.auth_rejects[reason as usize].inc();
    }

    /// Counts a request refused by the parser, by class. (Timeouts are
    /// counted where the reactor's timers fire; a peer that closes
    /// mid-request is not an error class worth a series.)
    pub fn request_failed(&self, error: &RequestError) {
        match error {
            RequestError::Malformed(_) => self.parse_rejects[0].inc(),
            RequestError::HeadersTooLarge => self.parse_rejects[1].inc(),
            RequestError::BodyTooLarge { .. } => self.parse_rejects[2].inc(),
            RequestError::Unsupported(_) => self.parse_rejects[3].inc(),
        }
    }
}
