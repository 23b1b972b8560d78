//! The gateway server: an event-driven reactor over non-blocking sockets
//! exposing the [`TuningService`] as a JSON API.
//!
//! ## Endpoints
//!
//! | method & path           | meaning                                       |
//! |-------------------------|-----------------------------------------------|
//! | `POST /v1/jobs`         | submit a [`JobRequestWire`]; `202` + job id. With `?wait=1`, the response is held until the plan is ready (`200`) — without parking a thread. |
//! | `GET /v1/jobs/{id}`     | job status: `pending`, `done` (plan + source) or `failed` |
//! | `DELETE /v1/jobs/{id}`  | drop a retained/pending result: `204` once, `404` after |
//! | `GET /v1/metrics`       | [`MetricsBody`] JSON by default; the full Prometheus text exposition with `?format=prometheus` or `Accept: text/plain` |
//! | `GET /v1/debug/slowest` | [`SlowestBody`]: the 32 slowest job traces the span store kept, stage by stage |
//! | `GET /v1/debug/traces`  | [`TracesBody`]: sampled span trees, newest first; filters `tenant`, `market`, `scenario`, `status`, `sampled`, `min_duration_ms` |
//! | `GET /v1/debug/traces/{trace_id}` | [`TraceTreeBody`]: one trace's full span tree by 32-hex trace id |
//! | `GET /v1/debug/logs`    | [`LogsBody`]: the structured log ring; filters `level`, `limit` |
//! | `GET /healthz`          | liveness + drain flag                         |
//!
//! ## Causal tracing
//!
//! `POST /v1/jobs` participates in W3C Trace Context: a valid `traceparent`
//! request header joins the submit to the caller's trace (invalid headers
//! are counted and ignored), and every submit response echoes `traceparent`
//! so clients learn minted ids. The gateway records `gateway.parse`,
//! `gateway.auth`, `gateway.quota` and `gateway.dispatch` spans under the
//! request root; the serve layer appends queue wait, solve and store
//! persist. Gateway-refused submits (4xx/5xx) mark the trace errored so the
//! tail sampler always keeps them.
//!
//! ## Error mapping
//!
//! | condition                               | status |
//! |-----------------------------------------|--------|
//! | malformed HTTP or JSON                  | 400    |
//! | missing or unknown API key              | 401    |
//! | body tenant contradicts the key's       | 403    |
//! | unknown path / job id                   | 404    |
//! | known path, wrong method                | 405    |
//! | body over the configured bound          | 413    |
//! | well-formed but invalid job / no plan   | 422    |
//! | per-tenant admission or request quota   | 429    |
//! | oversized request head                  | 431    |
//! | unsupported HTTP feature                | 501    |
//! | queue full, connection cap, draining    | 503    |
//!
//! Quota 429s carry a `Retry-After` header and the code `quota_exceeded`,
//! distinct from the queue-depth `tenant_over_limit` 429.
//!
//! ## The reactor
//!
//! One reactor thread owns a readiness poller (the `reactor` module), the
//! listener, every connection it accepted, and all the state the handlers
//! touch: the job registry, the quota buckets, the configuration and the
//! metric handles. It runs each request to completion, so none of that is
//! locked and the connection cap reads the connection map's size. Only
//! `ReactorShared` crosses threads: the completion queue and waker that
//! tuner-pool hooks use, and the drain flag the [`Gateway`] handle raises.
//!
//! A connection is a small state machine — reading (accumulate bytes, parse
//! the buffer), dispatched (job handed to the tuner pool), then writing from
//! a buffer — driven entirely by readiness events and a timer heap, so
//! **idle keep-alive connections cost a registration, not a thread**: tens
//! of thousands of idle clients are held by the reactor thread and the
//! tuner pool.
//!
//! On keyless traffic the one reactor is plenty below ~50k req/s — the
//! tuner pool does the real work. On keyed traffic the reactor does it: it
//! derives one digest per configured key for every keyed request
//! ([`HashedKeys::tenant_for`]), so with four keys it tops out near 3,000
//! keyed req/s on a 2-core x86-64 box.
//!
//! `?wait=1` submits never park the reactor. An exact plan-cache hit is
//! answered by the service at submit, so the reactor renders its response in
//! the same turn that parsed the request — no hook, no waker, no second
//! turn. Any other job goes to the tuner pool with a completion hook
//! ([`TuningService::submit_observed`]) that wakes the reactor
//! when the outcome is readable, and the response is rendered then.
//! Pipelined requests behind a dispatched one wait in the read buffer so
//! responses keep request order.
//!
//! Request deadlines are wall-clock timers armed at the first byte of every
//! request (a trickling client cannot pin anything); the same timer wheel
//! bounds idle keep-alive lifetimes and stalled response writes. Graceful
//! drain stops accepting, closes idle connections, lets in-flight requests
//! (including dispatched jobs) finish with `Connection: close`, and bounds
//! the whole farewell by the configured deadlines.

use crate::auth::HashedKeys;
use crate::http::{
    parse_buffered, render_response, Limits, ParsedRequest, Request, RequestError, Response,
};
use crate::metrics::{AuthReject, Endpoint, GatewayMetrics};
use crate::reactor::{waker, Interest, PollEvent, Poller, WakeReceiver, Waker};
use crate::wire::{
    ErrorBody, HealthBody, JobBody, JobRequestWire, LogRecordBody, LogsBody, MetricsBody,
    SlowestBody, SubmittedBody, TraceBody, TraceSummaryBody, TraceTreeBody, TracesBody,
};
use crowdtune_obs::span::enter_span;
use crowdtune_obs::{
    ActiveTrace, AttrValue, LogLevel, SpanStatus, StoredTrace, TokenBucket, TraceContext, TraceId,
};
use crowdtune_serve::{
    AdmissionError, HealthState, JobHandle, ServeError, ServedPlan, TuningService,
};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The authenticated-principal policy: how `POST /v1/jobs` resolves the
/// tenant a job is billed and admission-controlled under.
///
/// With a key configured, clients authenticate with `Authorization: Bearer
/// <key>` or `X-Api-Key: <key>` and the tenant comes from this map — the
/// body's `tenant` field may be omitted, and if present it must agree (403
/// otherwise). Requests with an unknown key are refused 401 regardless of
/// mode. Requests with *no* key fall back to the legacy self-declared body
/// tenant only while [`AuthConfig::allow_body_tenant`] is set.
#[derive(Debug, Clone)]
pub struct AuthConfig {
    /// API key → tenant. Empty map + `allow_body_tenant` = the pre-auth
    /// contract, unchanged. The plaintext map is **consumed at startup**:
    /// [`Gateway::start`] folds it into salted iterated digests
    /// ([`crate::auth::HashedKeys`]) and clears this field, so a running
    /// gateway can verify keys but never reveal them. It refuses to start
    /// with an empty or whitespace-padded key, which no request could
    /// present.
    pub keys: HashMap<String, String>,
    /// Accept keyless submits that self-declare a body tenant (legacy
    /// wire contract). Defaults to `true` for back-compat; production
    /// deployments and perfbench's `auth_http` workload turn it off.
    pub allow_body_tenant: bool,
}

impl Default for AuthConfig {
    fn default() -> Self {
        AuthConfig {
            keys: HashMap::new(),
            allow_body_tenant: true,
        }
    }
}

/// Per-tenant request quota: a token bucket refilled continuously at
/// [`QuotaConfig::requests_per_sec`] up to [`QuotaConfig::burst`]. Each
/// `POST /v1/jobs` spends one token; an empty bucket answers 429
/// `quota_exceeded` with a `Retry-After` header. This prices *request
/// arrival rate* at the door, upstream of (and distinct from) the queue's
/// depth-based `tenant_over_limit` admission control.
#[derive(Debug, Clone, Copy)]
pub struct QuotaConfig {
    /// Sustained submits per second per tenant.
    pub requests_per_sec: f64,
    /// Bucket capacity: the burst a quiet tenant may spend at once.
    pub burst: f64,
}

/// Sizing and bounds of the gateway.
#[derive(Debug, Clone)]
pub struct GatewayConfig {
    /// Connections held concurrently; the door sheds `503` above it
    /// (mirrors the service's own admission control).
    pub max_connections: usize,
    /// HTTP parse bounds (request line, headers, body).
    pub limits: Limits,
    /// How long an idle keep-alive connection stays registered, and the
    /// bound on a stalled response write.
    pub keep_alive_timeout: Duration,
    /// Total wall-clock bound on receiving one request (head **and**
    /// body), armed at its first byte — a client trickling one byte per
    /// interval is closed at the deadline.
    pub request_deadline: Duration,
    /// Completed jobs retained for `GET /v1/jobs/{id}` (oldest evicted).
    /// Also bounds never-polled async submissions: past the cap the oldest
    /// pending entry is resolved into the retained set if its worker has
    /// answered, or dropped (its id then answers 404) if not.
    pub max_completed_jobs: usize,
    /// Retention TTL for completed outcomes: expired results answer 404
    /// and count `jobs_expired_total`. `None` retains until the FIFO cap
    /// or an explicit `DELETE` evicts.
    pub result_ttl: Option<Duration>,
    /// Largest job accepted over the wire, in total repetition slots.
    pub max_job_slots: u64,
    /// Tenant resolution for submits.
    pub auth: AuthConfig,
    /// Per-tenant submit quota; `None` disables the bucket entirely.
    pub quota: Option<QuotaConfig>,
}

impl Default for GatewayConfig {
    fn default() -> Self {
        GatewayConfig {
            max_connections: 8192,
            limits: Limits::default(),
            keep_alive_timeout: Duration::from_secs(5),
            request_deadline: Duration::from_secs(30),
            max_completed_jobs: 4096,
            result_ttl: None,
            max_job_slots: 1_000_000,
            auth: AuthConfig::default(),
            quota: None,
        }
    }
}

/// One tracked job: still in flight, or its retained rendered outcome.
enum JobSlot {
    Pending(JobHandle),
    Done {
        body: Arc<JobBody>,
        done_at: Instant,
    },
}

/// Jobs submitted over the wire, keyed by service job id. Completed
/// outcomes are retained (bounded FIFO, optional TTL, explicit `DELETE`) so
/// clients can poll after completion. Pending entries are bounded too:
/// clients that fire and forget must not grow the registry, so past the cap
/// the oldest pending entry is reaped — resolved into the retained set if
/// its worker already answered, dropped (404 from then on) if not.
struct JobRegistry {
    slots: HashMap<u64, JobSlot>,
    /// Done ids in completion order (== expiry order under a fixed TTL).
    /// May hold stale ids whose slot was deleted; sweeps skip those.
    completed_order: VecDeque<u64>,
    /// Pending ids in insertion order. May contain stale ids whose slot has
    /// since transitioned to `Done` (or been evicted); reaping skips those.
    pending_order: VecDeque<u64>,
    max_completed: usize,
    result_ttl: Option<Duration>,
    /// Live `Done` slots, mirrored into the `jobs_retained` gauge.
    done_count: usize,
    retained_gauge: crowdtune_obs::Gauge,
    expired_total: crowdtune_obs::Counter,
}

impl JobRegistry {
    /// Drops every retained outcome whose TTL has lapsed. `completed_order`
    /// is in completion order and the TTL is constant, so expiry stops at
    /// the first still-fresh entry.
    fn expire_stale(&mut self, now: Instant) {
        let Some(ttl) = self.result_ttl else { return };
        while let Some(&oldest) = self.completed_order.front() {
            match self.slots.get(&oldest) {
                Some(JobSlot::Done { done_at, .. }) => {
                    if now.duration_since(*done_at) < ttl {
                        break;
                    }
                    self.slots.remove(&oldest);
                    self.completed_order.pop_front();
                    self.done_count -= 1;
                    self.expired_total.inc();
                }
                // Deleted (or long since evicted) id: drop the stale entry.
                _ => {
                    self.completed_order.pop_front();
                }
            }
        }
        self.retained_gauge.set(self.done_count as i64);
    }

    fn store_done(&mut self, job_id: u64, body: JobBody) -> Arc<JobBody> {
        let now = Instant::now();
        self.expire_stale(now);
        let body = Arc::new(body);
        let was_done = matches!(self.slots.get(&job_id), Some(JobSlot::Done { .. }));
        self.slots.insert(
            job_id,
            JobSlot::Done {
                body: body.clone(),
                done_at: now,
            },
        );
        if !was_done {
            self.completed_order.push_back(job_id);
            self.done_count += 1;
        }
        while self.completed_order.len() > self.max_completed {
            if let Some(evicted) = self.completed_order.pop_front() {
                if self.slots.remove(&evicted).is_some() {
                    self.done_count -= 1;
                }
            }
        }
        self.retained_gauge.set(self.done_count as i64);
        body
    }

    fn store_pending(&mut self, job_id: u64, handle: JobHandle) {
        self.slots.insert(job_id, JobSlot::Pending(handle));
        self.pending_order.push_back(job_id);
        // Reap never-polled submissions past the cap (stale ids — already
        // polled to completion — just pop off).
        while self.pending_order.len() > self.max_completed {
            let Some(oldest) = self.pending_order.pop_front() else {
                break;
            };
            if !matches!(self.slots.get(&oldest), Some(JobSlot::Pending(_))) {
                continue; // stale: resolved via GET earlier
            }
            let Some(JobSlot::Pending(handle)) = self.slots.remove(&oldest) else {
                continue;
            };
            if let Some(outcome) = handle.try_result() {
                self.store_done(oldest, outcome_body(oldest, outcome));
            }
            // Still in flight: the handle is dropped and the id answers 404
            // from now on — the bound wins over fire-and-forget clients.
        }
    }

    /// `DELETE /v1/jobs/{id}`: drops the slot whatever its state. Returns
    /// whether anything was there (the 204-vs-404 decision). Stale ids left
    /// in the order queues are skipped by the sweeps.
    fn delete(&mut self, job_id: u64) -> bool {
        self.expire_stale(Instant::now());
        match self.slots.remove(&job_id) {
            Some(JobSlot::Done { .. }) => {
                self.done_count -= 1;
                self.retained_gauge.set(self.done_count as i64);
                true
            }
            Some(JobSlot::Pending(_)) => true,
            None => false,
        }
    }
}

/// What the request handlers read and write. The reactor thread owns it
/// outright and runs every request to completion, so nothing in it is
/// locked.
struct GatewayState {
    service: Arc<TuningService>,
    jobs: JobRegistry,
    /// Configured API keys as salted iterated digests (the plaintext map in
    /// `config.auth` is consumed and cleared at startup).
    auth_keys: HashedKeys,
    /// `None` when `config.quota` is.
    quotas: Option<Quotas>,
    config: GatewayConfig,
    metrics: GatewayMetrics,
}

/// The bucket count below which [`Quotas`] never sweeps: a deployment with
/// a handful of tenants keeps every bucket.
const QUOTA_SWEEP_FLOOR: usize = 64;

/// Per-tenant token buckets, created on a tenant's first submit. A bucket
/// that has refilled to `burst` answers every later submit as a fresh one
/// would, so a sweep drops it and no decision changes. A sweep runs when the
/// map reaches twice the size the last one left (and at least
/// [`QUOTA_SWEEP_FLOOR`]): amortised O(1) per submit, and the map stays
/// near the number of tenants that submitted within `burst / rate` seconds
/// rather than every tenant string ever seen.
struct Quotas {
    buckets: HashMap<String, TokenBucket>,
    rate: f64,
    burst: f64,
    /// The map size at which the next sweep runs.
    sweep_at: usize,
}

impl Quotas {
    fn new(quota: QuotaConfig) -> Quotas {
        Quotas {
            buckets: HashMap::new(),
            rate: quota.requests_per_sec.max(1e-9),
            burst: quota.burst.max(1.0),
            sweep_at: QUOTA_SWEEP_FLOOR,
        }
    }

    /// Spends one token from `tenant`'s bucket, or reports how many whole
    /// seconds until one accrues (the `Retry-After` value, at least 1).
    fn try_take(&mut self, tenant: &str, now: Instant) -> Result<(), u64> {
        let (rate, burst) = (self.rate, self.burst);
        if self.buckets.len() >= self.sweep_at {
            self.buckets
                .retain(|_, bucket| bucket.available(now, rate, burst) < burst);
            self.sweep_at = QUOTA_SWEEP_FLOOR.max(2 * self.buckets.len());
        }
        self.buckets
            .entry(tenant.to_owned())
            .or_insert(TokenBucket {
                tokens: burst,
                refilled_at: now,
            })
            .try_take(now, rate, burst)
            .map_err(|deficit| (deficit / rate).ceil().max(1.0) as u64)
    }
}

/// The running gateway. Dropping it (or calling [`Gateway::shutdown`])
/// drains connections and joins the reactor; the wrapped service is left
/// running and untouched.
pub struct Gateway {
    addr: SocketAddr,
    shared: Arc<ReactorShared>,
    /// `None` once drained and joined.
    reactor: Option<JoinHandle<()>>,
}

impl Gateway {
    /// Binds `addr` (use port 0 for an ephemeral port — read it back with
    /// [`Gateway::local_addr`]) and starts the reactor thread.
    ///
    /// Refuses with [`std::io::ErrorKind::InvalidInput`] a configured API
    /// key that is empty or has leading or trailing whitespace: presented
    /// credentials are trimmed and an empty one matches nothing, so such a
    /// key could never authenticate. The error names the key's tenant,
    /// never the key.
    pub fn start(
        service: Arc<TuningService>,
        addr: impl ToSocketAddrs,
        mut config: GatewayConfig,
    ) -> std::io::Result<Gateway> {
        check_keys(&config.auth.keys)?;
        // Fold the configured keys into salted digests and drop the
        // plaintext: from here on the process can verify credentials but
        // not reveal them.
        let auth_keys = HashedKeys::build(&config.auth.keys);
        config.auth.keys.clear();
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        // Gateway cells live in the service's registry: one scrape covers
        // the whole process, and a second gateway on the same service
        // shares cells via the registry's get-or-create semantics.
        let metrics = GatewayMetrics::new(&service.registry());
        let jobs = JobRegistry {
            slots: HashMap::new(),
            completed_order: VecDeque::new(),
            pending_order: VecDeque::new(),
            max_completed: config.max_completed_jobs.max(1),
            result_ttl: config.result_ttl,
            done_count: 0,
            retained_gauge: metrics.jobs_retained.clone(),
            expired_total: metrics.jobs_expired.clone(),
        };
        let state = GatewayState {
            service,
            jobs,
            auth_keys,
            quotas: config.quota.map(Quotas::new),
            config,
            metrics,
        };
        let (waker, wake_rx) = waker()?;
        let shared = Arc::new(ReactorShared {
            completions: Mutex::new(Vec::new()),
            waker,
            draining: AtomicBool::new(false),
        });
        let mut reactor = Reactor::new(state, listener, shared.clone(), wake_rx)?;
        // perfbench's `procfs.rs` groups thread CPU time by the
        // `gateway-reactor` name prefix.
        let reactor = std::thread::Builder::new()
            .name("gateway-reactor-0".to_owned())
            .spawn(move || reactor.run())
            .expect("spawn gateway reactor");
        Ok(Gateway {
            addr,
            shared,
            reactor: Some(reactor),
        })
    }

    /// The bound address (resolves an ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Whether the gateway has begun draining.
    pub fn is_draining(&self) -> bool {
        self.shared.draining()
    }

    /// Graceful drain: stop accepting, close idle keep-alive connections,
    /// finish in-flight requests and dispatched jobs (responses carry
    /// `Connection: close`) and join the reactor, all bounded by the
    /// configured deadlines. The wrapped [`TuningService`] keeps running —
    /// drain it separately via [`TuningService::begin_drain`]/`shutdown`
    /// when the whole process is going away.
    pub fn shutdown(mut self) {
        self.drain_and_join();
    }

    fn drain_and_join(&mut self) {
        self.shared.draining.store(true, Ordering::Release);
        self.shared.waker.wake();
        if let Some(reactor) = self.reactor.take() {
            let _ = reactor.join();
        }
    }
}

impl Drop for Gateway {
    fn drop(&mut self) {
        if self.reactor.is_some() {
            self.drain_and_join();
        }
    }
}

/// The one part of the gateway another thread touches. Tuner-pool
/// completion hooks push the token of the connection whose job finished and
/// wake the poller; the [`Gateway`] handle raises the drain flag and wakes
/// it. Everything else — listener, connections, timers, job registry, quota
/// buckets — belongs to the reactor thread alone.
struct ReactorShared {
    completions: Mutex<Vec<u64>>,
    waker: Waker,
    draining: AtomicBool,
}

impl ReactorShared {
    fn draining(&self) -> bool {
        self.draining.load(Ordering::Acquire)
    }

    /// The completion hook of the job connection `token` dispatched.
    fn hook(self: &Arc<Self>, token: u64) -> crowdtune_serve::CompletionNotify {
        let shared = self.clone();
        Arc::new(move |_job_id| {
            shared
                .completions
                .lock()
                .expect("completion queue poisoned")
                .push(token);
            shared.waker.wake();
        })
    }
}

const WAKER_TOKEN: u64 = 0;
const LISTENER_TOKEN: u64 = 1;
const FIRST_CONN_TOKEN: u64 = 2;

/// Connection lifecycle. Writing is orthogonal (a non-empty write buffer),
/// so it is not a phase: a connection can be parsing request N+1 while
/// response N drains.
enum Phase {
    /// Between requests; the idle keep-alive deadline is armed.
    Idle,
    /// A request prefix sits in the read buffer; its deadline is armed.
    Reading,
    /// A `?wait=1` submit is with the tuner pool; parsing is paused so
    /// pipelined responses keep request order.
    Dispatched {
        handle: JobHandle,
        started: Instant,
        keep_alive: bool,
        /// Rendered `traceparent` to echo on the eventual response (the
        /// trace handle itself rides with the job through the serve layer).
        traceparent: Option<String>,
    },
}

struct Conn {
    stream: TcpStream,
    token: u64,
    deadline: Deadline,
    phase: Phase,
    read_buf: Vec<u8>,
    write_buf: Vec<u8>,
    written: usize,
    /// Registered readiness, to skip no-op `modify` syscalls.
    interest: Interest,
    /// Close once the write buffer drains (draining, `Connection: close`,
    /// or a parse error that poisoned framing).
    close_after_write: bool,
    /// Stop reading (peer half-closed or framing poisoned).
    reads_done: bool,
}

impl Conn {
    fn pending_write(&self) -> bool {
        self.written < self.write_buf.len()
    }

    fn wanted_interest(&self) -> Interest {
        Interest {
            read: !self.reads_done && !matches!(self.phase, Phase::Dispatched { .. }),
            write: self.pending_write(),
        }
    }
}

/// A connection's armed deadline and the `when` of its live timer-heap
/// entry.
#[derive(Default)]
struct Deadline {
    /// When the connection expires; `None` while nothing is armed.
    at: Option<Instant>,
    /// The `when` of the connection's one live heap entry, if one is queued.
    /// Its other entries are stale and skipped on pop.
    queued: Option<Instant>,
}

/// The reactor's `(when, token)` min-heap, holding at most one live entry
/// per connection: arming pushes only when the new deadline is earlier than
/// the live entry (or none is queued), and a live entry that pops before
/// its connection's deadline is queued again at that deadline. The heap
/// grows with connections, not with requests.
#[derive(Default)]
struct Timers {
    heap: BinaryHeap<Reverse<(Instant, u64)>>,
}

impl Timers {
    fn arm(&mut self, token: u64, deadline: &mut Deadline, when: Instant) {
        deadline.at = Some(when);
        if deadline.queued.is_none_or(|queued| when < queued) {
            deadline.queued = Some(when);
            self.heap.push(Reverse((when, token)));
        }
    }

    fn next(&self) -> Option<Instant> {
        self.heap.peek().map(|Reverse((when, _))| *when)
    }

    /// Pops the earliest entry due at `now`.
    fn pop_due(&mut self, now: Instant) -> Option<(Instant, u64)> {
        let &Reverse((when, token)) = self.heap.peek()?;
        if when > now {
            return None;
        }
        self.heap.pop();
        Some((when, token))
    }

    /// Settles an entry [`Timers::pop_due`] returned against its
    /// connection's deadline: true when the connection has expired. A stale
    /// entry is skipped; a live one that popped early is queued again.
    fn expired(
        &mut self,
        token: u64,
        deadline: &mut Deadline,
        when: Instant,
        now: Instant,
    ) -> bool {
        if deadline.queued != Some(when) {
            return false;
        }
        deadline.queued = None;
        match deadline.at {
            Some(at) if at <= now => true,
            Some(at) => {
                self.arm(token, deadline, at);
                false
            }
            None => false,
        }
    }
}

struct Reactor {
    state: GatewayState,
    poller: Poller,
    listener: TcpListener,
    wake_rx: WakeReceiver,
    shared: Arc<ReactorShared>,
    conns: HashMap<u64, Conn>,
    timers: Timers,
    next_token: u64,
    /// Still registered for accept readiness (false once draining).
    accepting: bool,
    /// Hard bound on the whole drain, armed when draining is observed.
    drain_deadline: Option<Instant>,
    scratch: Vec<u8>,
}

impl Reactor {
    fn new(
        state: GatewayState,
        listener: TcpListener,
        shared: Arc<ReactorShared>,
        wake_rx: WakeReceiver,
    ) -> std::io::Result<Reactor> {
        let mut poller = Poller::new()?;
        poller.register(wake_rx.as_raw_fd(), WAKER_TOKEN, Interest::READ)?;
        poller.register(listener.as_raw_fd(), LISTENER_TOKEN, Interest::READ)?;
        Ok(Reactor {
            state,
            poller,
            listener,
            wake_rx,
            shared,
            conns: HashMap::new(),
            timers: Timers::default(),
            next_token: FIRST_CONN_TOKEN,
            accepting: true,
            drain_deadline: None,
            scratch: vec![0; 16 * 1024],
        })
    }

    fn run(&mut self) {
        let mut events: Vec<PollEvent> = Vec::new();
        loop {
            let timeout = self.next_timeout();
            events.clear();
            if self.poller.wait(&mut events, timeout).is_err() {
                // A failing poller cannot drive anything; bail rather than
                // spin. Connections close with the process.
                return;
            }
            let mut woken = false;
            for event in &events {
                match event.token {
                    WAKER_TOKEN => woken = true,
                    LISTENER_TOKEN => self.accept_ready(),
                    token => self.conn_event(token, *event),
                }
            }
            if woken {
                self.wake_rx.drain();
            }
            self.complete_dispatches();
            self.fire_timers(Instant::now());
            if self.drain_tick() {
                return;
            }
        }
    }

    /// The poll timeout: the nearest timer (or drain bound), or park
    /// indefinitely when nothing is scheduled.
    fn next_timeout(&self) -> Option<Duration> {
        let mut next = self.timers.next();
        if let Some(bound) = self.drain_deadline {
            next = Some(next.map_or(bound, |n| n.min(bound)));
        }
        next.map(|when| when.saturating_duration_since(Instant::now()))
    }

    /// Handles drain progression; returns true when the reactor is done.
    fn drain_tick(&mut self) -> bool {
        if !self.shared.draining() {
            return false;
        }
        if self.accepting {
            // Drain just became visible: stop accepting and close every
            // connection with nothing in flight. In-flight phases (partial
            // request, dispatched job, undrained response) finish under
            // their own deadlines.
            self.accepting = false;
            let _ = self.poller.deregister(self.listener.as_raw_fd());
            self.drain_deadline = Some(
                Instant::now()
                    + self.state.config.keep_alive_timeout
                    + self.state.config.request_deadline,
            );
            let idle: Vec<u64> = self
                .conns
                .iter()
                .filter(|(_, c)| {
                    matches!(c.phase, Phase::Idle) && !c.pending_write() && c.read_buf.is_empty()
                })
                .map(|(&t, _)| t)
                .collect();
            for token in idle {
                self.close_conn(token);
            }
        }
        if self.conns.is_empty() {
            return true;
        }
        if self.drain_deadline.is_some_and(|d| Instant::now() >= d) {
            // Farewell bound hit: force-close stragglers.
            let remaining: Vec<u64> = self.conns.keys().copied().collect();
            for token in remaining {
                self.close_conn(token);
            }
            return true;
        }
        false
    }

    fn accept_ready(&mut self) {
        if !self.accepting {
            return;
        }
        loop {
            match self.listener.accept() {
                Ok((stream, _peer)) => self.take_connection(stream),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                // Transient accept failures (aborted handshakes, fd
                // pressure) are not fatal to the listener.
                Err(_) => return,
            }
        }
    }

    fn take_connection(&mut self, stream: TcpStream) {
        if self.shared.draining() {
            return; // raced a drain; the listener is about to deregister
        }
        let state = &self.state;
        if self.conns.len() >= state.config.max_connections.max(1) {
            // Shed at the door like the service's admission control does.
            // The accepted socket is still blocking; bound the farewell
            // write so a non-reading client cannot stall the reactor.
            let mut stream = stream;
            state.metrics.connections_shed.inc();
            let _ = stream.set_write_timeout(Some(Duration::from_secs(1)));
            let body = error_response(
                503,
                ErrorBody::new("overloaded", "gateway is at its connection cap"),
            );
            let bytes = render_response(&body, false);
            if stream.write_all(&bytes).is_ok() {
                state.metrics.bytes_out.add(bytes.len() as u64);
            }
            return;
        }
        if stream.set_nonblocking(true).is_err() {
            return;
        }
        let _ = stream.set_nodelay(true);
        let token = self.next_token;
        self.next_token += 1;
        if self
            .poller
            .register(stream.as_raw_fd(), token, Interest::READ)
            .is_err()
        {
            return;
        }
        state.metrics.connections_open.add(1);
        state.metrics.connections_accepted.inc();
        let mut conn = Conn {
            stream,
            token,
            deadline: Deadline::default(),
            phase: Phase::Idle,
            read_buf: Vec::new(),
            write_buf: Vec::new(),
            written: 0,
            interest: Interest::READ,
            close_after_write: false,
            reads_done: false,
        };
        self.arm_deadline(&mut conn, Instant::now() + state.config.keep_alive_timeout);
        self.conns.insert(token, conn);
    }

    fn arm_deadline(&mut self, conn: &mut Conn, when: Instant) {
        self.timers.arm(conn.token, &mut conn.deadline, when);
    }

    fn clear_deadline(conn: &mut Conn) {
        conn.deadline.at = None;
    }

    fn fire_timers(&mut self, now: Instant) {
        while let Some((when, token)) = self.timers.pop_due(now) {
            let timers = &mut self.timers;
            let expired = self
                .conns
                .get_mut(&token)
                .is_some_and(|conn| timers.expired(token, &mut conn.deadline, when, now));
            if expired {
                // Whatever was armed — idle keep-alive, request deadline,
                // stalled write — expiry closes the connection.
                self.state.metrics.connections_timed_out.inc();
                self.close_conn(token);
            }
        }
    }

    /// Jobs whose completion hooks fired since the last pass: render their
    /// responses and resume pipelining.
    fn complete_dispatches(&mut self) {
        let tokens = std::mem::take(
            &mut *self
                .shared
                .completions
                .lock()
                .expect("completion queue poisoned"),
        );
        for token in tokens {
            let Some(mut conn) = self.conns.remove(&token) else {
                continue; // connection closed while the job ran
            };
            let phase = std::mem::replace(&mut conn.phase, Phase::Idle);
            let Phase::Dispatched {
                handle,
                started,
                keep_alive,
                traceparent,
            } = phase
            else {
                conn.phase = phase; // spurious token; not dispatched
                self.conns.insert(token, conn);
                continue;
            };
            // The hook fires after the worker's send, so the outcome is
            // readable now.
            let response = settle(&mut self.state, handle);
            let response = match traceparent {
                Some(value) => response.with_header("traceparent", value),
                None => response,
            };
            let nanos = started.elapsed().as_nanos() as u64;
            self.state
                .metrics
                .observe(Endpoint::PostJobs, response.status, nanos);
            let keep_alive = keep_alive && !self.shared.draining();
            self.queue_response(&mut conn, response, keep_alive);
            // Pipelined requests read before the dispatch are sitting in
            // the buffer with no readiness event to reparse them — resume
            // here.
            let mut alive = true;
            if !conn.close_after_write {
                alive = self.process_buffer(&mut conn);
            }
            let alive = alive && self.after_work(&mut conn);
            self.finish_event(token, conn, alive);
        }
    }

    fn conn_event(&mut self, token: u64, event: PollEvent) {
        let Some(mut conn) = self.conns.remove(&token) else {
            return; // stale event for a just-closed connection
        };
        let mut alive = true;
        if event.writable && alive {
            alive = self.flush(&mut conn);
        }
        if event.readable && alive {
            alive = self.readable(&mut conn);
        }
        if event.closed && alive && !event.readable {
            // Pure error/hangup with nothing to read: the connection is
            // gone.
            alive = false;
        }
        if alive {
            alive = self.after_work(&mut conn);
        }
        self.finish_event(token, conn, alive);
    }

    /// Post-processing common to socket events and job completions:
    /// close-after-write resolution. Returns whether the connection stays.
    fn after_work(&mut self, conn: &mut Conn) -> bool {
        if !conn.pending_write() && conn.close_after_write {
            return false;
        }
        if !conn.pending_write() && conn.reads_done && matches!(conn.phase, Phase::Idle) {
            // Peer half-closed and nothing left to say.
            return false;
        }
        true
    }

    /// Reinserts a live connection (refreshing poller interest) or finishes
    /// closing it.
    fn finish_event(&mut self, token: u64, mut conn: Conn, alive: bool) {
        if !alive {
            self.release_conn(conn);
            return;
        }
        let wanted = conn.wanted_interest();
        if wanted != conn.interest {
            if self
                .poller
                .modify(conn.stream.as_raw_fd(), token, wanted)
                .is_err()
            {
                self.release_conn(conn);
                return;
            }
            conn.interest = wanted;
        }
        self.conns.insert(token, conn);
    }

    /// Closes a connection still present in the map.
    fn close_conn(&mut self, token: u64) {
        if let Some(conn) = self.conns.remove(&token) {
            self.release_conn(conn);
        }
    }

    /// Deregisters and accounts a connection on its way out. A dispatched
    /// job's handle moves to the registry so the outcome is retained for
    /// polling even though the submitting connection died.
    fn release_conn(&mut self, conn: Conn) {
        let _ = self.poller.deregister(conn.stream.as_raw_fd());
        self.state.metrics.connections_open.add(-1);
        if let Phase::Dispatched { handle, .. } = conn.phase {
            self.state.jobs.store_pending(handle.job_id, handle);
        }
    }

    /// Drains readable bytes into the buffer and advances parsing. Returns
    /// whether the connection survives.
    fn readable(&mut self, conn: &mut Conn) -> bool {
        if conn.reads_done {
            return true;
        }
        loop {
            match conn.stream.read(&mut self.scratch) {
                Ok(0) => {
                    conn.reads_done = true;
                    if !conn.read_buf.is_empty() || matches!(conn.phase, Phase::Reading) {
                        // Peer quit mid-request: framing is torn. No
                        // response can be framed; just close (flushing any
                        // queued earlier responses first).
                        conn.read_buf.clear();
                        conn.close_after_write = true;
                    }
                    break;
                }
                Ok(n) => {
                    self.state.metrics.bytes_in.add(n as u64);
                    conn.read_buf.extend_from_slice(&self.scratch[..n]);
                    if conn.read_buf.len() > 4 * 1024 * 1024 {
                        // Backstop: the parser bounds any *single* request
                        // well below this, so a buffer this deep means a
                        // pipelining flood behind a dispatched job. Stop
                        // reading until it drains (level-triggered
                        // readiness re-fires later).
                        break;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => return false, // torn transport
            }
        }
        self.process_buffer(conn)
    }

    /// Parses and serves as many complete pipelined requests as the buffer
    /// holds, stopping at a dispatch (ordering) or an incomplete tail.
    fn process_buffer(&mut self, conn: &mut Conn) -> bool {
        loop {
            if matches!(conn.phase, Phase::Dispatched { .. }) {
                return true; // resume once the job completes
            }
            if conn.read_buf.is_empty() {
                conn.phase = Phase::Idle;
                if conn.deadline.at.is_none() {
                    // Nothing armed (a request just completed): the idle
                    // keep-alive clock starts. A pending write's stall
                    // deadline, if armed, already covers the connection.
                    self.arm_deadline(conn, Instant::now() + self.state.config.keep_alive_timeout);
                }
                return true;
            }
            if matches!(conn.phase, Phase::Idle) {
                // First byte of a new request: arm its wall-clock deadline.
                conn.phase = Phase::Reading;
                self.arm_deadline(conn, Instant::now() + self.state.config.request_deadline);
            }
            match parse_buffered(&conn.read_buf, &self.state.config.limits) {
                Ok(ParsedRequest::Incomplete) => return true, // need more bytes
                Ok(ParsedRequest::Complete { request, consumed }) => {
                    conn.read_buf.drain(..consumed);
                    // The request is fully received: its receive deadline is
                    // done. Handler deadlines are the dispatch path's job.
                    Self::clear_deadline(conn);
                    conn.phase = Phase::Idle;
                    self.serve_request(conn, request);
                    if conn.close_after_write {
                        // `Connection: close` (or draining): later pipelined
                        // bytes get no responses.
                        conn.read_buf.clear();
                        conn.reads_done = true;
                        return true;
                    }
                }
                Err(error) => {
                    // Malformed/oversized input: answer the mapped 4xx/5xx
                    // and close — framing can no longer be trusted.
                    self.state.metrics.request_failed(&error);
                    conn.read_buf.clear();
                    conn.reads_done = true;
                    Self::clear_deadline(conn);
                    conn.phase = Phase::Idle;
                    let body = error_response(error.status(), request_error_body(&error));
                    self.queue_response(conn, body, false);
                    return true;
                }
            }
        }
    }

    /// Routes one parsed request: everything but a queued `?wait=1` submit
    /// is answered inline (a cache hit included); a waiting submit the
    /// service queued parks the *connection* (never a thread) in
    /// `Dispatched` until the tuner pool's completion hook fires.
    fn serve_request(&mut self, conn: &mut Conn, request: Request) {
        let started = Instant::now();
        let keep_alive = request.keep_alive && !self.shared.draining();
        let (endpoint, outcome) = self.route(conn.token, &request);
        match outcome {
            Outcome::Respond(response) => {
                let nanos = started.elapsed().as_nanos() as u64;
                self.state.metrics.observe(endpoint, response.status, nanos);
                self.queue_response(conn, response, keep_alive);
            }
            Outcome::Dispatched {
                handle,
                traceparent,
            } => {
                Self::clear_deadline(conn);
                conn.phase = Phase::Dispatched {
                    handle,
                    started,
                    keep_alive,
                    traceparent,
                };
            }
        }
    }

    /// The route table: each path or prefix the gateway serves, named once,
    /// with the `endpoint` label and the handler of each method it allows.
    /// A known path under another method answers 405, and a non-numeric job
    /// id or an unknown path 404; all three count under `other`, so the
    /// label set stays bounded whatever clients send. A bad trace id is its
    /// handler's 404 and keeps its route's label.
    fn route(&mut self, token: u64, request: &Request) -> (Endpoint, Outcome) {
        let (state, shared) = (&mut self.state, &self.shared);
        let get = request.method == "GET";
        let answer = |endpoint, response| (endpoint, Outcome::Respond(response));
        let routed = match request.path.as_str() {
            "/v1/jobs" => (request.method == "POST").then(|| {
                (
                    Endpoint::PostJobs,
                    post_job(state, request, || shared.hook(token)),
                )
            }),
            "/v1/metrics" => get.then(|| answer(Endpoint::GetMetrics, get_metrics(state, request))),
            "/v1/debug/slowest" => {
                get.then(|| answer(Endpoint::GetDebugSlowest, get_slowest(state)))
            }
            "/v1/debug/traces" => {
                get.then(|| answer(Endpoint::GetDebugTraces, get_traces(state, request)))
            }
            "/v1/debug/logs" => {
                get.then(|| answer(Endpoint::GetDebugLogs, get_logs(state, request)))
            }
            "/healthz" => {
                get.then(|| answer(Endpoint::GetHealthz, get_health(state, shared.draining())))
            }
            path if let Some(raw) = path.strip_prefix("/v1/debug/traces/") => {
                get.then(|| answer(Endpoint::GetDebugTraces, get_trace(state, raw)))
            }
            path if let Some(raw) = path.strip_prefix("/v1/jobs/") => {
                match (request.method.as_str(), raw.parse::<u64>()) {
                    ("GET", Ok(id)) => Some(answer(Endpoint::GetJob, get_job(state, id))),
                    ("DELETE", Ok(id)) => Some(answer(Endpoint::DeleteJob, delete_job(state, id))),
                    ("GET" | "DELETE", Err(_)) => Some(answer(
                        Endpoint::Other,
                        not_found(format!("not a job id: {raw:?}")),
                    )),
                    _ => None,
                }
            }
            path => Some(answer(
                Endpoint::Other,
                not_found(format!("no route for {path}")),
            )),
        };
        routed.unwrap_or_else(|| {
            let detail = format!("{} is not supported on {}", request.method, request.path);
            answer(
                Endpoint::Other,
                error_response(405, ErrorBody::new("method_not_allowed", detail)),
            )
        })
    }

    /// Renders a response into the write buffer and optimistically flushes.
    fn queue_response(&mut self, conn: &mut Conn, response: Response, keep_alive: bool) {
        let bytes = render_response(&response, keep_alive);
        if conn.written == conn.write_buf.len() {
            conn.write_buf.clear();
            conn.written = 0;
        }
        conn.write_buf.extend_from_slice(&bytes);
        if !keep_alive {
            conn.close_after_write = true;
        }
        if !self.flush(conn) {
            // Transport died mid-write; drop what's left and let the
            // event path close us.
            conn.write_buf.clear();
            conn.written = 0;
            conn.close_after_write = true;
            conn.reads_done = true;
        } else if conn.pending_write() {
            // Kernel buffer full: the stall deadline closes the connection
            // if the peer stops reading.
            self.arm_deadline(conn, Instant::now() + self.state.config.keep_alive_timeout);
        }
    }

    /// Writes as much buffered response as the socket accepts. Returns
    /// whether the transport survives.
    fn flush(&mut self, conn: &mut Conn) -> bool {
        while conn.pending_write() {
            match conn.stream.write(&conn.write_buf[conn.written..]) {
                Ok(0) => return false,
                Ok(n) => {
                    conn.written += n;
                    self.state.metrics.bytes_out.add(n as u64);
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return true,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => return false,
            }
        }
        if conn.write_buf.capacity() > 64 * 1024 {
            conn.write_buf = Vec::new();
        } else {
            conn.write_buf.clear();
        }
        conn.written = 0;
        true
    }
}

fn request_error_body(error: &RequestError) -> ErrorBody {
    let code = match error {
        RequestError::Malformed(_) => "bad_request",
        RequestError::HeadersTooLarge => "headers_too_large",
        RequestError::BodyTooLarge { .. } => "body_too_large",
        RequestError::Unsupported(_) => "unsupported",
    };
    ErrorBody::new(code, error.to_string())
}

fn json_response<T: serde::Serialize>(status: u16, body: &T) -> Response {
    match serde_json::to_string(body) {
        Ok(text) => Response::json(status, text),
        Err(_) => Response::json(
            500,
            "{\"error\":\"render\",\"detail\":\"response serialization failed\"}".to_owned(),
        ),
    }
}

fn error_response(status: u16, body: ErrorBody) -> Response {
    json_response(status, &body)
}

fn not_found(detail: String) -> Response {
    error_response(404, ErrorBody::new("not_found", detail))
}

/// Maps a submission failure to its response. Per-tenant admission is the
/// client's fault (429, back off per tenant); global capacity and drain are
/// the service's state (503, retry elsewhere/later).
fn serve_error_response(error: &ServeError) -> Response {
    match error {
        ServeError::Admission(AdmissionError::TenantOverLimit { limit }) => error_response(
            429,
            ErrorBody::new(
                "tenant_over_limit",
                format!("tenant exceeded its pending-job limit of {limit}"),
            ),
        ),
        ServeError::Admission(AdmissionError::QueueFull { limit }) => error_response(
            503,
            ErrorBody::new(
                "queue_full",
                format!("service queue is full ({limit} jobs pending)"),
            ),
        ),
        ServeError::Admission(AdmissionError::Closed) => error_response(
            503,
            ErrorBody::new("draining", "service is draining; resubmit elsewhere"),
        ),
        ServeError::Tuning(e) => {
            error_response(422, ErrorBody::new("tuning_failed", e.to_string()))
        }
        ServeError::WorkerGone => error_response(
            503,
            ErrorBody::new("shutdown", "service stopped before the job completed"),
        ),
        ServeError::WorkerPanic { .. } => {
            error_response(500, ErrorBody::new("worker_panic", error.to_string()))
        }
        ServeError::WorkerLost => {
            error_response(500, ErrorBody::new("worker_lost", error.to_string()))
        }
        ServeError::Store(e) => error_response(500, ErrorBody::new("store", e.to_string())),
    }
}

/// How a request resolves: an immediate response (a `?wait=1` cache hit
/// included), or a queued `?wait=1` job whose completion hook will wake the
/// reactor.
enum Outcome {
    Respond(Response),
    Dispatched {
        handle: JobHandle,
        /// Rendered `traceparent` to echo once the response exists.
        traceparent: Option<String>,
    },
}

/// Extracts the API key, if any: `Authorization: Bearer <key>` wins,
/// `X-Api-Key: <key>` is the curl-friendly fallback.
fn api_key(request: &Request) -> Option<&str> {
    if let Some(auth) = request.header("authorization") {
        let mut parts = auth.splitn(2, char::is_whitespace);
        let scheme = parts.next().unwrap_or("");
        if scheme.eq_ignore_ascii_case("bearer") {
            return Some(parts.next().unwrap_or("").trim());
        }
        // An Authorization header in a scheme we don't speak is not
        // silently ignored — that would fall through to the legacy path
        // and bill the self-declared tenant.
        return Some("");
    }
    request.header("x-api-key").map(str::trim)
}

/// Refuses configured keys no request can present: [`api_key`] trims every
/// credential it extracts, and [`HashedKeys::tenant_for`] matches no empty
/// one. Names the least such tenant, so the error does not depend on the
/// map's order.
fn check_keys(keys: &HashMap<String, String>) -> std::io::Result<()> {
    let unusable = keys
        .iter()
        .filter(|(key, _)| key.is_empty() || key.trim() != key.as_str())
        .map(|(_, tenant)| tenant)
        .min();
    match unusable {
        Some(tenant) => Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            format!(
                "the API key configured for tenant {tenant:?} is empty or has leading or \
                 trailing whitespace, so no request could present it"
            ),
        )),
        None => Ok(()),
    }
}

/// Resolves the tenant a submit runs under, per [`AuthConfig`]. `Err` is
/// the finished 401/403 response.
fn resolve_tenant(
    state: &GatewayState,
    request: &Request,
    body_tenant: &str,
) -> Result<String, Response> {
    let auth = &state.config.auth;
    match api_key(request) {
        Some(key) => match state.auth_keys.tenant_for(key) {
            Some(tenant) => {
                if !body_tenant.is_empty() && body_tenant != tenant {
                    state.metrics.auth_rejected(AuthReject::TenantMismatch);
                    Err(error_response(
                        403,
                        ErrorBody::new(
                            "tenant_mismatch",
                            format!(
                                "the API key belongs to tenant {tenant:?}, not {body_tenant:?}"
                            ),
                        ),
                    ))
                } else {
                    Ok(tenant.to_owned())
                }
            }
            None => {
                state.metrics.auth_rejected(AuthReject::Unauthenticated);
                Err(error_response(
                    401,
                    ErrorBody::new("unauthenticated", "unknown API key"),
                ))
            }
        },
        None if auth.allow_body_tenant => Ok(body_tenant.to_owned()),
        None => {
            state.metrics.auth_rejected(AuthReject::Unauthenticated);
            Err(error_response(
                401,
                ErrorBody::new(
                    "unauthenticated",
                    "submit requires Authorization: Bearer <key> or X-Api-Key",
                ),
            ))
        }
    }
}

/// Records one gateway-side stage span at the request root (no-op when the
/// request is untraced).
fn gateway_span(trace: &Option<ActiveTrace>, name: &'static str, start_ns: Option<u64>, ok: bool) {
    if let (Some(active), Some(start_ns)) = (trace, start_ns) {
        let status = if ok {
            SpanStatus::Ok
        } else {
            SpanStatus::Error
        };
        active.span_with(name, None, start_ns, active.now_ns(), status, Vec::new());
    }
}

/// Finishes a gateway-answered submit: 4xx/5xx marks the trace errored (so
/// the tail sampler keeps it), and every response echoes `traceparent`.
fn finish_post(trace: &Option<ActiveTrace>, echo: &Option<String>, response: Response) -> Outcome {
    if response.status >= 400 {
        if let Some(active) = trace {
            active.mark_error();
        }
    }
    let response = match echo {
        Some(value) => response.with_header("traceparent", value.clone()),
        None => response,
    };
    Outcome::Respond(response)
}

fn post_job(
    state: &mut GatewayState,
    request: &Request,
    notify: impl FnOnce() -> crowdtune_serve::CompletionNotify,
) -> Outcome {
    // Trace context first: a valid `traceparent` joins the caller's trace;
    // an invalid one is counted and ignored (fresh ids, per W3C guidance).
    let context = request.header("traceparent").and_then(|header| {
        let parsed = TraceContext::parse_traceparent(header);
        if parsed.is_none() {
            state.metrics.traceparent_invalid.inc();
        }
        parsed
    });
    let trace = state
        .service
        .tracer()
        .map(|tracer| tracer.start_trace("http.request", context));
    // Logs emitted while this submit is handled carry the request's ids.
    let _log_scope = trace
        .as_ref()
        .map(|active| enter_span(active.trace_id(), active.root_span_id()));
    // The echoed header names the *root span* as parent, so a client that
    // keeps tracing downstream work parents it correctly.
    let echo = trace
        .as_ref()
        .map(|active| active.context(active.root_span_id()).render_traceparent());

    let parse_start = trace.as_ref().map(|active| active.now_ns());
    if request.body.is_empty() {
        gateway_span(&trace, "gateway.parse", parse_start, false);
        return finish_post(
            &trace,
            &echo,
            error_response(
                400,
                ErrorBody::new("bad_request", "POST /v1/jobs requires a JSON body"),
            ),
        );
    }
    let Ok(text) = std::str::from_utf8(&request.body) else {
        gateway_span(&trace, "gateway.parse", parse_start, false);
        return finish_post(
            &trace,
            &echo,
            error_response(400, ErrorBody::new("bad_request", "body is not UTF-8")),
        );
    };
    let mut wire: JobRequestWire = match serde_json::from_str(text) {
        Ok(wire) => wire,
        Err(e) => {
            gateway_span(&trace, "gateway.parse", parse_start, false);
            return finish_post(
                &trace,
                &echo,
                error_response(
                    400,
                    ErrorBody::new("bad_request", format!("invalid job JSON: {e}")),
                ),
            );
        }
    };
    gateway_span(&trace, "gateway.parse", parse_start, true);
    // Authenticated principal first: nothing downstream (quota, admission,
    // the solve) may see a tenant the credentials don't vouch for.
    let auth_start = trace.as_ref().map(|active| active.now_ns());
    wire.tenant = match resolve_tenant(state, request, &wire.tenant) {
        Ok(tenant) => tenant,
        Err(response) => {
            gateway_span(&trace, "gateway.auth", auth_start, false);
            state.service.logger().log_with(
                LogLevel::Warn,
                "gateway",
                "submit refused by the authenticated-principal check",
                vec![("status", response.status.to_string())],
            );
            return finish_post(&trace, &echo, response);
        }
    };
    gateway_span(&trace, "gateway.auth", auth_start, true);
    if let Some(active) = &trace {
        active.annotate(&wire.tenant, "", "");
    }
    if let Some(quotas) = &mut state.quotas {
        if !wire.tenant.is_empty() {
            let quota_start = trace.as_ref().map(|active| active.now_ns());
            if let Err(retry_after) = quotas.try_take(&wire.tenant, Instant::now()) {
                state.metrics.quota_rejects.inc();
                gateway_span(&trace, "gateway.quota", quota_start, false);
                state.service.logger().log_with(
                    LogLevel::Warn,
                    "gateway",
                    "submit refused by the per-tenant quota",
                    vec![
                        ("tenant", wire.tenant.clone()),
                        ("retry_after_s", retry_after.to_string()),
                    ],
                );
                return finish_post(
                    &trace,
                    &echo,
                    error_response(
                        429,
                        ErrorBody::new(
                            "quota_exceeded",
                            format!(
                                "tenant {:?} is over its request quota; retry in {retry_after}s",
                                wire.tenant
                            ),
                        ),
                    )
                    .with_retry_after(retry_after),
                );
            }
            gateway_span(&trace, "gateway.quota", quota_start, true);
        }
    }
    let job = match wire.to_request(state.config.max_job_slots) {
        Ok(job) => job,
        Err(e) => {
            return finish_post(
                &trace,
                &echo,
                error_response(422, ErrorBody::new("invalid_job", e.to_string())),
            )
        }
    };
    let wait = matches!(request.query_param("wait"), Some("1") | Some("true"));
    // The trace handle is *cloned* into the serve layer: the job's spans
    // (queue wait, solve, store persist) land in this same tree, and the
    // trace flushes when the last handle drops — after persist, off the
    // submitter's latency path. A waiting submit also hands over a
    // completion hook; the reactor renders the response when it fires. The
    // connection parks — no thread does.
    let dispatch_start = trace.as_ref().map(|active| active.now_ns());
    let handle = match state
        .service
        .submit_observed(job, wait.then(notify), trace.clone())
    {
        Ok(handle) => handle,
        Err(e) => {
            gateway_span(&trace, "gateway.dispatch", dispatch_start, false);
            return finish_post(&trace, &echo, serve_error_response(&e));
        }
    };
    let job_id = handle.job_id;
    if let Some(active) = &trace {
        active.span_with(
            "gateway.dispatch",
            None,
            dispatch_start.unwrap_or(0),
            active.now_ns(),
            SpanStatus::Ok,
            vec![("job_id", AttrValue::U64(job_id))],
        );
    }
    if !wait {
        state.jobs.store_pending(job_id, handle);
        let body = SubmittedBody {
            job_id,
            status: "pending".to_owned(),
        };
        return finish_post(&trace, &echo, json_response(202, &body));
    }
    if handle.answered_at_submit() {
        // An exact cache hit: answered in this reactor turn. Its hook never
        // fires, so the connection must not park.
        return finish_post(&trace, &echo, settle(state, handle));
    }
    Outcome::Dispatched {
        handle,
        traceparent: echo,
    }
}

/// Answers a finished `?wait=1` submit: the outcome is retained for
/// `GET /v1/jobs/{id}` and rendered `200`, or mapped to its error status. A
/// handle with nothing to deliver reads as `WorkerGone`.
fn settle(state: &mut GatewayState, handle: JobHandle) -> Response {
    let job_id = handle.job_id;
    let outcome = handle.try_result().unwrap_or(Err(ServeError::WorkerGone));
    let error = outcome.as_ref().err().map(serve_error_response);
    let body = state.jobs.store_done(job_id, outcome_body(job_id, outcome));
    error.unwrap_or_else(|| json_response(200, &*body))
}

/// Renders a job outcome into the body retained for `GET /v1/jobs/{id}`.
/// Failures keep the job-status schema (pollers see `status: "failed"` with
/// the same error codes the synchronous path uses).
fn outcome_body(job_id: u64, outcome: Result<ServedPlan, ServeError>) -> JobBody {
    match outcome {
        Ok(served) => JobBody::done(&served),
        Err(e) => {
            let code = match &e {
                ServeError::Tuning(_) => "tuning_failed",
                ServeError::Admission(_) => "admission",
                ServeError::WorkerGone => "shutdown",
                ServeError::WorkerPanic { .. } => "worker_panic",
                ServeError::WorkerLost => "worker_lost",
                ServeError::Store(_) => "store",
            };
            JobBody::failed(job_id, ErrorBody::new(code, e.to_string()))
        }
    }
}

fn get_job(state: &mut GatewayState, job_id: u64) -> Response {
    let jobs = &mut state.jobs;
    jobs.expire_stale(Instant::now());
    match jobs.slots.get(&job_id) {
        None => not_found(format!("no such job: {job_id}")),
        Some(JobSlot::Done { body, .. }) => json_response(200, &**body),
        Some(JobSlot::Pending(handle)) => match handle.try_result() {
            None => json_response(200, &JobBody::pending(job_id)),
            Some(outcome) => {
                let body = jobs.store_done(job_id, outcome_body(job_id, outcome));
                json_response(200, &*body)
            }
        },
    }
}

/// `DELETE /v1/jobs/{id}`: idempotent removal of a pending or retained job
/// — `204` the time it existed, `404` ever after. Lets fire-and-forget
/// clients release results deterministically instead of leaning on the
/// bounded-FIFO reaping order.
fn delete_job(state: &mut GatewayState, job_id: u64) -> Response {
    if state.jobs.delete(job_id) {
        state.metrics.jobs_deleted.inc();
        Response::json(204, String::new())
    } else {
        not_found(format!("no such job: {job_id}"))
    }
}

/// `GET /v1/metrics`, content-negotiated: the JSON [`MetricsBody`] snapshot
/// by default (wire back-compat), the full Prometheus text exposition when
/// asked for via `?format=prometheus` or `Accept: text/plain`. An explicit
/// `format` query parameter outranks the `Accept` header.
fn get_metrics(state: &GatewayState, request: &Request) -> Response {
    let prometheus = match request.query_param("format") {
        Some(format) => format.eq_ignore_ascii_case("prometheus"),
        None => request
            .header("accept")
            .is_some_and(|accept| accept.contains("text/plain")),
    };
    if prometheus {
        Response::text(
            200,
            "text/plain; version=0.0.4",
            state.service.render_prometheus(),
        )
    } else {
        json_response(200, &MetricsBody::from_status(&state.service.status()))
    }
}

/// `GET /v1/debug/slowest`: the slowest job traces the span store kept,
/// slowest first, with per-stage timings in seconds.
fn get_slowest(state: &GatewayState) -> Response {
    let traces: Vec<TraceBody> = state
        .service
        .slowest_traces()
        .iter()
        .map(TraceBody::from_trace)
        .collect();
    json_response(200, &SlowestBody { traces })
}

/// `GET /v1/debug/traces`: summaries of sampled traces, newest first.
/// Optional query filters: `tenant`, `market`, `scenario`, `status`
/// (`ok`/`error`), `sampled` (`head`/`tail_slow`/`tail_error`), and
/// `min_duration_ms`. With tracing disabled the list is simply empty.
fn get_traces(state: &GatewayState, request: &Request) -> Response {
    let min_duration_ns = match request.query_param("min_duration_ms") {
        Some(raw) => match raw.parse::<u64>() {
            Ok(ms) => ms.saturating_mul(1_000_000),
            Err(_) => {
                return error_response(
                    400,
                    ErrorBody::new(
                        "bad_request",
                        format!("min_duration_ms must be an integer, got {raw:?}"),
                    ),
                )
            }
        },
        None => 0,
    };
    let keep = |trace: &StoredTrace| {
        let field_matches = |param: Option<&str>, value: &str| match param {
            Some(want) => want == value,
            None => true,
        };
        field_matches(request.query_param("tenant"), &trace.tenant)
            && field_matches(request.query_param("market"), &trace.market)
            && field_matches(request.query_param("scenario"), trace.scenario)
            && field_matches(request.query_param("status"), trace.status.as_str())
            && field_matches(request.query_param("sampled"), trace.reason.as_str())
            && trace.duration_ns >= min_duration_ns
    };
    let traces: Vec<TraceSummaryBody> = match state.service.tracer() {
        Some(tracer) => tracer
            .store()
            .snapshot()
            .iter()
            .filter(|trace| keep(trace))
            .map(|trace| TraceSummaryBody::from_stored(trace))
            .collect(),
        None => Vec::new(),
    };
    json_response(200, &TracesBody { traces })
}

/// `GET /v1/debug/traces/{trace_id}`: the full span tree of one sampled
/// trace, by 32-hex-digit W3C trace id. 404 when the id is not hex or the
/// trace was never sampled (or has since been evicted from the ring).
fn get_trace(state: &GatewayState, raw_id: &str) -> Response {
    let Some(trace_id) = TraceId::from_hex(raw_id) else {
        return not_found(format!("not a trace id: {raw_id:?}"));
    };
    let stored = state
        .service
        .tracer()
        .and_then(|tracer| tracer.store().get(trace_id));
    match stored {
        Some(trace) => json_response(200, &TraceTreeBody::from_stored(&trace)),
        None => not_found(format!("trace {raw_id} is not in the sampled ring")),
    }
}

/// `GET /v1/debug/logs`: the structured log ring, newest first, each record
/// stamped with the trace/span active when it was emitted. Optional query
/// filters: `level` (minimum severity) and `limit` (default 256).
fn get_logs(state: &GatewayState, request: &Request) -> Response {
    let min_level = match request.query_param("level") {
        Some(raw) => match LogLevel::parse(raw) {
            Some(level) => Some(level),
            None => {
                return error_response(
                    400,
                    ErrorBody::new(
                        "bad_request",
                        format!("unknown log level {raw:?} (want debug/info/warn/error)"),
                    ),
                )
            }
        },
        None => None,
    };
    let limit = match request.query_param("limit") {
        Some(raw) => match raw.parse::<usize>() {
            Ok(limit) => limit,
            Err(_) => {
                return error_response(
                    400,
                    ErrorBody::new(
                        "bad_request",
                        format!("limit must be an integer, got {raw:?}"),
                    ),
                )
            }
        },
        None => 256,
    };
    let records: Vec<LogRecordBody> = state
        .service
        .logger()
        .snapshot(min_level, limit)
        .iter()
        .map(LogRecordBody::from_record)
        .collect();
    json_response(200, &LogsBody { records })
}

/// `GET /healthz`: the service-wide health state machine. `healthy` and
/// `degraded` answer 200 (a degraded service still serves bit-correct plans
/// — load balancers should keep routing to it), `draining` answers 503 so
/// probes take the instance out of rotation. The gateway's own drain (its
/// listener is closing) outranks whatever the service reports.
fn get_health(state: &GatewayState, draining: bool) -> Response {
    let draining = draining || state.service.is_draining();
    let health = if draining {
        HealthState::Draining
    } else {
        state.service.health()
    };
    let status = match health {
        HealthState::Draining => 503,
        _ => 200,
    };
    json_response(
        status,
        &HealthBody {
            status: health.label().to_owned(),
            reasons: health
                .reasons()
                .iter()
                .map(|reason| reason.as_str().to_owned())
                .collect(),
            draining,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    const TOKEN: u64 = 7;
    const REQUEST_DEADLINE: Duration = Duration::from_secs(30);
    const KEEP_ALIVE: Duration = Duration::from_secs(5);

    /// One reactor timer pass over a single connection, as
    /// `Reactor::fire_timers` runs it: true when the connection expired.
    fn fire(timers: &mut Timers, deadline: &mut Deadline, now: Instant) -> bool {
        let mut expired = false;
        while let Some((when, token)) = timers.pop_due(now) {
            assert_eq!(token, TOKEN);
            expired |= timers.expired(token, deadline, when, now);
        }
        expired
    }

    #[test]
    fn the_timer_heap_holds_one_live_entry_per_connection() {
        let start = Instant::now();
        let mut timers = Timers::default();
        let mut deadline = Deadline::default();
        timers.arm(TOKEN, &mut deadline, start + KEEP_ALIVE);
        // Keep-alive requests handled as the reactor handles one that
        // arrives whole: request deadline at the first byte, cleared once
        // parsed, then the idle keep-alive, then a timer pass. 10,000 of
        // them 100 µs apart (no entry falls due), then 10,000 1 ms apart
        // (live entries pop and re-queue).
        let mut now = start;
        for step in [Duration::from_micros(100), Duration::from_millis(1)] {
            for _ in 0..10_000 {
                now += step;
                timers.arm(TOKEN, &mut deadline, now + REQUEST_DEADLINE);
                deadline.at = None;
                timers.arm(TOKEN, &mut deadline, now + KEEP_ALIVE);
                assert!(
                    !fire(&mut timers, &mut deadline, now),
                    "closed while in use"
                );
            }
            assert!(timers.heap.len() <= 2, "{} heap entries", timers.heap.len());
        }
        // The last keep-alive still closes the idle connection on time.
        let last = now;
        assert!(!fire(
            &mut timers,
            &mut deadline,
            last + KEEP_ALIVE - Duration::from_millis(1)
        ));
        assert!(fire(&mut timers, &mut deadline, last + KEEP_ALIVE));
    }

    #[test]
    fn a_trickled_request_expires_at_its_deadline_not_its_keep_alive() {
        let start = Instant::now();
        let mut timers = Timers::default();
        let mut deadline = Deadline::default();
        timers.arm(TOKEN, &mut deadline, start + KEEP_ALIVE);
        // First byte at 1 s; the rest never completes.
        let first_byte = start + Duration::from_secs(1);
        timers.arm(TOKEN, &mut deadline, first_byte + REQUEST_DEADLINE);
        // The keep-alive entry pops at 5 s and re-queues at the request
        // deadline instead of closing the connection.
        assert!(!fire(&mut timers, &mut deadline, start + KEEP_ALIVE));
        assert_eq!(deadline.queued, Some(first_byte + REQUEST_DEADLINE));
        assert!(!fire(
            &mut timers,
            &mut deadline,
            first_byte + Duration::from_secs(29)
        ));
        assert!(fire(
            &mut timers,
            &mut deadline,
            first_byte + REQUEST_DEADLINE
        ));
    }

    #[test]
    fn an_earlier_deadline_is_queued_ahead_and_a_cleared_one_never_fires() {
        let start = Instant::now();
        let mut timers = Timers::default();
        let mut deadline = Deadline::default();
        timers.arm(TOKEN, &mut deadline, start + REQUEST_DEADLINE);
        // A stalled write's earlier deadline gets its own entry; the later
        // one goes stale and is skipped when it pops.
        timers.arm(TOKEN, &mut deadline, start + KEEP_ALIVE);
        assert_eq!(timers.heap.len(), 2);
        assert!(fire(&mut timers, &mut deadline, start + KEEP_ALIVE));

        let mut timers = Timers::default();
        let mut deadline = Deadline::default();
        timers.arm(TOKEN, &mut deadline, start + KEEP_ALIVE);
        deadline.at = None; // a dispatched job: no receive deadline
        assert!(!fire(&mut timers, &mut deadline, start + REQUEST_DEADLINE));
        assert!(timers.heap.is_empty());
        assert_eq!(deadline.queued, None);
    }

    /// A quota sweep drops only buckets that have refilled to `burst`, and
    /// those answer as fresh ones do: over a seeded schedule of submits by
    /// hot, warm and cold tenants at synthetic instants, every allow and
    /// `Retry-After` equals that of a map that never sweeps. And 100,000
    /// distinct tenants 1 ms apart at 100/s with a burst of 1 keep the map
    /// at the floor instead of one bucket per tenant ever seen.
    #[test]
    fn quota_sweeps_change_no_decision_and_bound_the_map() {
        let start = Instant::now();
        let quota = QuotaConfig {
            requests_per_sec: 0.7,
            burst: 2.0,
        };
        let mut swept = Quotas::new(quota);
        let mut reference = Quotas {
            sweep_at: usize::MAX,
            ..Quotas::new(quota)
        };
        let mut rng = StdRng::seed_from_u64(0x0B0C);
        let mut now = start;
        // Allowed, refused with `Retry-After: 1`, refused with a longer one.
        let mut decisions = [0usize; 3];
        for _ in 0..200_000 {
            now += Duration::from_micros(rng.gen_range(0..5_000));
            let pool = [8u64, 64, 4096][rng.gen_range(0..3usize)];
            let tenant = format!("{pool}-{}", rng.gen_range(0..pool));
            let decision = swept.try_take(&tenant, now);
            assert_eq!(
                decision,
                reference.try_take(&tenant, now),
                "{tenant} at {:?}",
                now - start
            );
            decisions[match decision {
                Ok(()) => 0,
                Err(1) => 1,
                Err(_) => 2,
            }] += 1;
        }
        assert!(decisions.iter().all(|&n| n > 1_000), "{decisions:?}");
        assert!(
            swept.buckets.len() * 4 < reference.buckets.len(),
            "{} buckets swept, {} kept",
            swept.buckets.len(),
            reference.buckets.len()
        );

        let mut swept = Quotas::new(QuotaConfig {
            requests_per_sec: 100.0,
            burst: 1.0,
        });
        for i in 0..100_000 {
            let now = start + Duration::from_millis(i);
            assert_eq!(swept.try_take(&format!("tenant-{i}"), now), Ok(()));
            assert!(
                swept.buckets.len() <= QUOTA_SWEEP_FLOOR,
                "{} buckets after {i} tenants",
                swept.buckets.len()
            );
        }
    }
}
