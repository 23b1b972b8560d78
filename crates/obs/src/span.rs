//! Causal request tracing: W3C trace context, spans, and the sampled
//! span store.
//!
//! A **trace** is the causal story of one request: a tree of [`Span`]s
//! sharing one [`TraceId`], each span naming a stage (`gateway.parse`,
//! `queue.wait`, `solve`, `store.persist`, …) with a monotonic start and
//! duration and typed [`AttrValue`] attributes. Trace identity crosses the
//! process boundary as a W3C `traceparent` header ([`TraceContext`]), so a
//! caller can hand the stack its own trace id and correlate the span tree
//! with its upstream telemetry — or receive the id the gateway minted.
//!
//! The layer is built to cost nothing when it is off and almost nothing
//! when a trace is not kept:
//!
//! * Spans accumulate in a per-trace buffer ([`ActiveTrace`], a cheap
//!   `Arc`); nothing touches shared state until the trace **completes**
//!   (last handle dropped — which may be on the store writer thread, after
//!   the persist span retires).
//! * At completion the [`Tracer`] decides once: keep the whole trace if it
//!   was **head-sampled** (caller's `traceparent` sampled flag, or every
//!   Nth locally-started trace) or qualifies for **tail sampling** (root
//!   duration over the slow threshold, or any span errored — so slow and
//!   failing requests are *always* kept). Kept traces go to the
//!   [`SpanStore`]; dropped ones only bump a counter.
//! * A job's span subtree is rendered only when its trace is kept
//!   ([`JobTrace::record_spans`]), and a trace can begin without going live
//!   ([`Tracer::begin_trace`]), so a request answered without a live trace
//!   — a plan-cache hit — builds nothing for a trace that is not kept.
//! * The [`SpanStore`] is a bounded ring: admission claims a slot with one
//!   atomic `fetch_add` (no admission lock, writers never contend with each
//!   other except on slot reuse) and each slot swap is a short per-slot
//!   mutex hold, so scrapes (`GET /v1/debug/traces`) never block recording
//!   for more than one slot copy.
//!
//! Sampling accounting rides the shared [`Registry`]:
//! `crowdtune_spans_started_total`, `crowdtune_spans_sampled_total`,
//! `crowdtune_spans_dropped_total`.

use crate::metric::Counter;
use crate::registry::Registry;
use crate::trace::JobTrace;
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

// ---------------------------------------------------------------------------
// Identifiers
// ---------------------------------------------------------------------------

/// A 128-bit trace identifier (W3C `trace-id`); never all-zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TraceId(pub u128);

/// A 64-bit span identifier (W3C `parent-id`); never all-zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SpanId(pub u64);

impl TraceId {
    /// Renders the id as 32 lowercase hex characters (the wire form).
    pub fn to_hex(self) -> String {
        format!("{:032x}", self.0)
    }

    /// Parses 32 lowercase hex characters; rejects the all-zero id.
    pub fn from_hex(s: &str) -> Option<TraceId> {
        if s.len() != 32 || !is_lower_hex(s) {
            return None;
        }
        let v = u128::from_str_radix(s, 16).ok()?;
        if v == 0 {
            return None;
        }
        Some(TraceId(v))
    }
}

impl SpanId {
    /// Renders the id as 16 lowercase hex characters (the wire form).
    pub fn to_hex(self) -> String {
        format!("{:016x}", self.0)
    }

    /// Parses 16 lowercase hex characters; rejects the all-zero id.
    pub fn from_hex(s: &str) -> Option<SpanId> {
        if s.len() != 16 || !is_lower_hex(s) {
            return None;
        }
        let v = u64::from_str_radix(s, 16).ok()?;
        if v == 0 {
            return None;
        }
        Some(SpanId(v))
    }
}

fn is_lower_hex(s: &str) -> bool {
    !s.is_empty()
        && s.bytes()
            .all(|b| b.is_ascii_digit() || (b'a'..=b'f').contains(&b))
}

/// Process-wide random seed for id generation. `RandomState` is seeded from
/// the OS per process, which is the only entropy source std exposes; ids
/// must be unpredictable enough to avoid cross-process collisions, not
/// cryptographically strong.
fn process_seed() -> u64 {
    static SEED: OnceLock<u64> = OnceLock::new();
    *SEED.get_or_init(|| {
        use std::hash::{BuildHasher, Hasher};
        let mut hasher = std::collections::hash_map::RandomState::new().build_hasher();
        hasher.write_u64(0x005ca1ab_1ec0ffee);
        hasher.finish() | 1
    })
}

/// SplitMix64 finalizer: a well-mixed 64-bit value per counter step.
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

fn next_id_word() -> u64 {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let step = COUNTER.fetch_add(0x9e3779b97f4a7c15, Ordering::Relaxed);
    mix(process_seed().wrapping_add(step))
}

/// Mints a fresh non-zero trace id.
pub fn random_trace_id() -> TraceId {
    loop {
        let v = ((next_id_word() as u128) << 64) | next_id_word() as u128;
        if v != 0 {
            return TraceId(v);
        }
    }
}

/// Mints a fresh non-zero span id.
pub fn random_span_id() -> SpanId {
    loop {
        let v = next_id_word();
        if v != 0 {
            return SpanId(v);
        }
    }
}

// ---------------------------------------------------------------------------
// W3C trace context (`traceparent`)
// ---------------------------------------------------------------------------

/// Propagated trace identity: the payload of a W3C `traceparent` header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceContext {
    /// The trace every span joins.
    pub trace_id: TraceId,
    /// The caller's span id — the parent of the next span created here.
    pub parent: SpanId,
    /// The caller's sampled flag (`01` bit). An incoming sampled context is
    /// honored as a head-sampling decision: the trace is always kept.
    pub sampled: bool,
}

impl TraceContext {
    /// Parses a W3C `traceparent` header value
    /// (`{version}-{trace-id}-{parent-id}-{flags}`).
    ///
    /// Never panics. Returns `None` for anything malformed: wrong field
    /// count or width, uppercase or non-hex digits, all-zero ids, or the
    /// forbidden version `ff`. Per the spec, versions other than `00` are
    /// accepted as long as the first four fields parse (later fields are
    /// ignored), except that a version-`00` header must have exactly four.
    pub fn parse_traceparent(value: &str) -> Option<TraceContext> {
        let mut parts = value.trim().split('-');
        let version = parts.next()?;
        if version.len() != 2 || !is_lower_hex(version) || version == "ff" {
            return None;
        }
        let trace_id = TraceId::from_hex(parts.next()?)?;
        let parent = SpanId::from_hex(parts.next()?)?;
        let flags = parts.next()?;
        if flags.len() != 2 || !is_lower_hex(flags) {
            return None;
        }
        if version == "00" && parts.next().is_some() {
            return None;
        }
        let flags = u8::from_str_radix(flags, 16).ok()?;
        Some(TraceContext {
            trace_id,
            parent,
            sampled: flags & 0x01 != 0,
        })
    }

    /// Renders the context as a version-`00` `traceparent` header value.
    pub fn render_traceparent(&self) -> String {
        format!(
            "00-{:032x}-{:016x}-{:02x}",
            self.trace_id.0,
            self.parent.0,
            u8::from(self.sampled)
        )
    }
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

/// Terminal status of a span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanStatus {
    /// The stage completed normally.
    Ok,
    /// The stage failed (error response, panic, denied decision).
    Error,
}

impl SpanStatus {
    /// `"ok"` or `"error"` — the wire form.
    pub fn as_str(self) -> &'static str {
        match self {
            SpanStatus::Ok => "ok",
            SpanStatus::Error => "error",
        }
    }
}

/// A typed span attribute value.
#[derive(Debug, Clone, PartialEq)]
pub enum AttrValue {
    /// A string attribute.
    Str(String),
    /// An unsigned integer attribute (counts, ids, nanoseconds).
    U64(u64),
    /// A float attribute (ratios, objectives).
    F64(f64),
    /// A boolean attribute.
    Bool(bool),
}

impl AttrValue {
    /// Renders the value as plain text (the debug-endpoint wire form).
    pub fn render(&self) -> String {
        match self {
            AttrValue::Str(s) => s.clone(),
            AttrValue::U64(v) => v.to_string(),
            AttrValue::F64(v) => format!("{v}"),
            AttrValue::Bool(v) => v.to_string(),
        }
    }
}

/// One completed stage of a trace: a name, a parent link, a monotonic
/// start/duration (nanoseconds from the owning [`Tracer`]'s epoch), a
/// status, and typed attributes.
///
/// Spans are recorded **retroactively**: the emitting layer takes its
/// ordinary clock stamps and materializes the span only when the stage is
/// over, so instrumented code pays clock reads it was already paying, not
/// span bookkeeping.
#[derive(Debug, Clone)]
pub struct Span {
    /// The trace this span belongs to.
    pub trace_id: TraceId,
    /// This span's id.
    pub span_id: SpanId,
    /// Parent span id; `None` only for the root.
    pub parent: Option<SpanId>,
    /// Stage name (see the span taxonomy in the crate docs/README).
    pub name: &'static str,
    /// Start, in nanoseconds from the tracer epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub duration_ns: u64,
    /// Terminal status.
    pub status: SpanStatus,
    /// Typed attributes.
    pub attrs: Vec<(&'static str, AttrValue)>,
}

/// Why a completed trace was kept.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SampleReason {
    /// Head-sampled: the caller's sampled flag, or the every-Nth local
    /// sampling decision made at trace start.
    Head,
    /// Tail-sampled because the root duration exceeded the slow threshold.
    TailSlow,
    /// Tail-sampled because some span (or the whole trace) errored.
    TailError,
}

impl SampleReason {
    /// `"head"`, `"tail_slow"` or `"tail_error"` — the wire form.
    pub fn as_str(self) -> &'static str {
        match self {
            SampleReason::Head => "head",
            SampleReason::TailSlow => "tail_slow",
            SampleReason::TailError => "tail_error",
        }
    }
}

/// A kept trace: the summary row of `GET /v1/debug/traces` plus the full
/// span tree served at `GET /v1/debug/traces/{trace_id}`.
#[derive(Debug)]
pub struct StoredTrace {
    /// The trace id (the caller's, if one was propagated in).
    pub trace_id: TraceId,
    /// Root span name (e.g. `http.request`, `job`).
    pub name: &'static str,
    /// Submitting tenant (empty when unknown).
    pub tenant: String,
    /// Market name (empty when unknown).
    pub market: String,
    /// Paper scenario (`"EA"`/`"RA"`/`"HA"`, empty when unknown).
    pub scenario: &'static str,
    /// Root status: `"ok"` or `"error"`.
    pub status: SpanStatus,
    /// Root start (ns from the tracer epoch).
    pub start_ns: u64,
    /// Root duration (ns).
    pub duration_ns: u64,
    /// Why the trace was kept.
    pub reason: SampleReason,
    /// Every span of the trace, root first, then recording order.
    pub spans: Vec<Span>,
}

// ---------------------------------------------------------------------------
// Span store: lock-free-admission bounded ring of kept traces
// ---------------------------------------------------------------------------

/// A bounded ring of the most recently kept traces.
///
/// Admission claims a slot with a single atomic `fetch_add`; the only lock
/// is per-slot, held for one `Arc` swap (record) or one `Arc` clone
/// (scrape), so concurrent recorders don't serialize and a scrape can never
/// observe a torn trace — slots hold whole `Arc<StoredTrace>`s.
#[derive(Debug)]
pub struct SpanStore {
    slots: Vec<Mutex<Option<Arc<StoredTrace>>>>,
    head: AtomicUsize,
}

impl SpanStore {
    /// A store keeping the `capacity` most recent traces (clamped to ≥ 1).
    pub fn new(capacity: usize) -> Self {
        SpanStore {
            slots: (0..capacity.max(1)).map(|_| Mutex::new(None)).collect(),
            head: AtomicUsize::new(0),
        }
    }

    /// How many traces the ring can hold.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Records a kept trace, evicting the oldest once full.
    pub fn record(&self, trace: Arc<StoredTrace>) {
        let slot = self.head.fetch_add(1, Ordering::Relaxed) % self.slots.len();
        *self.slots[slot].lock().expect("span store slot poisoned") = Some(trace);
    }

    /// Looks a trace up by id (newest wins if an id repeats).
    pub fn get(&self, trace_id: TraceId) -> Option<Arc<StoredTrace>> {
        let mut found: Option<(u64, Arc<StoredTrace>)> = None;
        for slot in &self.slots {
            let held = slot.lock().expect("span store slot poisoned").clone();
            if let Some(trace) = held {
                if trace.trace_id == trace_id {
                    let newer = found
                        .as_ref()
                        .is_none_or(|(start, _)| trace.start_ns >= *start);
                    if newer {
                        found = Some((trace.start_ns, trace));
                    }
                }
            }
        }
        found.map(|(_, trace)| trace)
    }

    /// All held traces, newest (largest root start) first.
    pub fn snapshot(&self) -> Vec<Arc<StoredTrace>> {
        let mut traces: Vec<Arc<StoredTrace>> = self
            .slots
            .iter()
            .filter_map(|slot| slot.lock().expect("span store slot poisoned").clone())
            .collect();
        traces.sort_by_key(|t| std::cmp::Reverse(t.start_ns));
        traces
    }
}

// ---------------------------------------------------------------------------
// Tracer: clock, sampling policy, counters
// ---------------------------------------------------------------------------

/// Sampling and capacity policy for a [`Tracer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TracerConfig {
    /// Keep every Nth locally-started trace regardless of outcome
    /// (0 disables local head sampling; an incoming sampled `traceparent`
    /// is always honored).
    pub head_sample_every: u64,
    /// Always keep traces whose root duration is at least this (tail
    /// sampling for slow requests).
    pub slow_threshold_ns: u64,
    /// Ring capacity of the backing [`SpanStore`].
    pub capacity: usize,
}

impl Default for TracerConfig {
    fn default() -> Self {
        TracerConfig {
            head_sample_every: 64,
            slow_threshold_ns: 25_000_000, // 25ms: ~10x a cold solve
            capacity: 256,
        }
    }
}

/// The per-process tracing engine: one monotonic epoch, the sampling
/// policy, the [`SpanStore`], and the span accounting counters.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    epoch_unix_ns: u64,
    config: TracerConfig,
    store: SpanStore,
    head_counter: AtomicU64,
    started: Counter,
    sampled: Counter,
    dropped: Counter,
}

impl Tracer {
    /// Creates a tracer and registers its counters
    /// (`crowdtune_spans_{started,sampled,dropped}_total`) in `registry`.
    pub fn new(registry: &Registry, config: TracerConfig) -> Arc<Tracer> {
        let started = registry.counter(
            "crowdtune_spans_started_total",
            "Spans recorded into active trace buffers.",
            &[],
        );
        let sampled = registry.counter(
            "crowdtune_spans_sampled_total",
            "Spans of traces kept by head or tail sampling.",
            &[],
        );
        let dropped = registry.counter(
            "crowdtune_spans_dropped_total",
            "Spans of completed traces discarded by sampling.",
            &[],
        );
        Arc::new(Tracer {
            epoch: Instant::now(),
            epoch_unix_ns: std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map(|d| d.as_nanos() as u64)
                .unwrap_or(0),
            config,
            store: SpanStore::new(config.capacity),
            head_counter: AtomicU64::new(0),
            started,
            sampled,
            dropped,
        })
    }

    /// Nanoseconds since the tracer epoch (the span clock).
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Unix time (ns) of the tracer epoch: anchors span stamps to wall
    /// clock for display.
    pub fn epoch_unix_ns(&self) -> u64 {
        self.epoch_unix_ns
    }

    /// The sampling policy in force.
    pub fn config(&self) -> TracerConfig {
        self.config
    }

    /// The ring of kept traces.
    pub fn store(&self) -> &SpanStore {
        &self.store
    }

    /// Starts a trace. With an incoming context the caller's trace id and
    /// parent are adopted (and its sampled flag forces head sampling);
    /// otherwise fresh ids are minted and the every-Nth local head-sampling
    /// decision is taken here, once, for the whole trace.
    pub fn start_trace(
        self: &Arc<Self>,
        name: &'static str,
        context: Option<TraceContext>,
    ) -> ActiveTrace {
        self.begin_trace(name, context).activate()
    }

    /// Begins a trace without making it live: the root's start stamp and
    /// the head-sampling decision are taken as in
    /// [`Tracer::start_trace`], and nothing is allocated (see
    /// [`TraceStart`]).
    pub fn begin_trace(
        self: &Arc<Self>,
        name: &'static str,
        context: Option<TraceContext>,
    ) -> TraceStart<'_> {
        let start_ns = self.now_ns();
        let head_sampled = match context {
            Some(ctx) => ctx.sampled,
            None => {
                let every = self.config.head_sample_every;
                every != 0
                    && self
                        .head_counter
                        .fetch_add(1, Ordering::Relaxed)
                        .is_multiple_of(every)
            }
        };
        TraceStart {
            tracer: self,
            name,
            context,
            start_ns,
            head_sampled,
        }
    }
}

/// A trace whose root has begun but which is not live yet. A caller that
/// may finish its whole request without a live trace — a plan-cache hit —
/// makes it live only when sampling would keep it, and otherwise discards
/// it with the same span accounting a live trace dropped by sampling gets,
/// so an unsampled fast request builds no spans at all.
#[derive(Debug)]
pub struct TraceStart<'a> {
    tracer: &'a Arc<Tracer>,
    name: &'static str,
    context: Option<TraceContext>,
    start_ns: u64,
    head_sampled: bool,
}

impl TraceStart<'_> {
    /// The root's start stamp (tracer clock).
    pub fn start_ns(&self) -> u64 {
        self.start_ns
    }

    /// Whether the trace, ended at `end_ns` (tracer clock) without an
    /// error, would be kept: it was head-sampled, or its root ran at least
    /// the slow threshold.
    pub fn would_keep(&self, end_ns: u64) -> bool {
        self.head_sampled
            || end_ns.saturating_sub(self.start_ns) >= self.tracer.config.slow_threshold_ns
    }

    /// Makes the trace live, its root starting at the stamp taken when it
    /// began.
    pub fn activate(self) -> ActiveTrace {
        let (trace_id, parent) = match self.context {
            Some(ctx) => (ctx.trace_id, Some(ctx.parent)),
            None => (random_trace_id(), None),
        };
        self.tracer.started.inc();
        ActiveTrace {
            inner: Arc::new(TraceShared {
                tracer: self.tracer.clone(),
                trace_id,
                root_span: random_span_id(),
                root_parent: parent,
                name: self.name,
                start_ns: self.start_ns,
                head_sampled: self.head_sampled,
                error: AtomicBool::new(false),
                state: Mutex::new(TraceState {
                    spans: Vec::new(),
                    jobs: Vec::new(),
                    tenant: String::new(),
                    market: String::new(),
                    scenario: "",
                }),
            }),
        }
    }

    /// Ends the trace unkept, accounting `spans` spans (its root included)
    /// as started and dropped, as sampling does for a live trace it drops.
    pub fn discard(self, spans: u64) {
        self.tracer.started.add(spans);
        self.tracer.dropped.add(spans);
    }
}

impl TraceState {
    /// Sets the non-empty summary labels (see [`ActiveTrace::annotate`]).
    fn annotate(&mut self, tenant: &str, market: &str, scenario: &'static str) {
        if !tenant.is_empty() {
            self.tenant.clear();
            self.tenant.push_str(tenant);
        }
        if !market.is_empty() {
            self.market.clear();
            self.market.push_str(market);
        }
        if !scenario.is_empty() {
            self.scenario = scenario;
        }
    }
}

struct TraceState {
    spans: Vec<Span>,
    /// Jobs whose span subtrees render only if the trace is kept, each
    /// with its position among `spans` (see [`JobTrace::record_spans`]).
    jobs: Vec<(usize, JobTrace)>,
    tenant: String,
    market: String,
    scenario: &'static str,
}

struct TraceShared {
    tracer: Arc<Tracer>,
    trace_id: TraceId,
    root_span: SpanId,
    root_parent: Option<SpanId>,
    name: &'static str,
    start_ns: u64,
    head_sampled: bool,
    error: AtomicBool,
    state: Mutex<TraceState>,
}

/// A live trace being accumulated: a cheaply clonable handle shared by
/// every layer that emits spans for the request. The keep/drop sampling
/// decision and the [`SpanStore`] hand-off happen when the **last** handle
/// drops — which is what lets an async stage (the store writer retiring the
/// persist record) extend the trace past the HTTP response.
#[derive(Clone)]
pub struct ActiveTrace {
    inner: Arc<TraceShared>,
}

impl std::fmt::Debug for ActiveTrace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ActiveTrace")
            .field("trace_id", &self.inner.trace_id)
            .field("root_span", &self.inner.root_span)
            .field("head_sampled", &self.inner.head_sampled)
            .finish()
    }
}

impl ActiveTrace {
    /// The trace id every span joins.
    pub fn trace_id(&self) -> TraceId {
        self.inner.trace_id
    }

    /// The root span's id — the default parent for top-level stage spans.
    pub fn root_span_id(&self) -> SpanId {
        self.inner.root_span
    }

    /// Whether the trace was head-sampled at start (callers may use this to
    /// skip expensive attribute rendering; tail sampling can still keep the
    /// trace).
    pub fn head_sampled(&self) -> bool {
        self.inner.head_sampled
    }

    /// The context to propagate downstream (e.g. echo as a response
    /// `traceparent`): this trace, parented at `parent`.
    pub fn context(&self, parent: SpanId) -> TraceContext {
        TraceContext {
            trace_id: self.inner.trace_id,
            parent,
            sampled: self.inner.head_sampled,
        }
    }

    /// The tracer clock (ns since epoch), for stamping span boundaries.
    pub fn now_ns(&self) -> u64 {
        self.inner.tracer.now_ns()
    }

    /// Marks the whole trace errored: it will be tail-sampled regardless of
    /// duration.
    pub fn mark_error(&self) {
        self.inner.error.store(true, Ordering::Relaxed);
    }

    /// Sets the summary labels shown in the trace list.
    pub fn annotate(&self, tenant: &str, market: &str, scenario: &'static str) {
        self.inner
            .state
            .lock()
            .expect("trace state poisoned")
            .annotate(tenant, market, scenario);
    }

    /// Takes a finished job's stamps for [`JobTrace::record_spans`]: its
    /// spans are counted now and rendered at completion, in recording
    /// order, if sampling keeps the trace.
    pub(crate) fn defer_job(&self, job: JobTrace) {
        self.inner.tracer.started.add(job.span_count());
        if !job.is_ok() {
            self.inner.error.store(true, Ordering::Relaxed);
        }
        let mut state = self.inner.state.lock().expect("trace state poisoned");
        let at = state.spans.len();
        state.jobs.push((at, job));
    }

    /// Records a completed `Ok` span with no attributes. Returns its id so
    /// later spans can parent under it.
    pub fn span(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        start_ns: u64,
        end_ns: u64,
    ) -> SpanId {
        self.span_with(name, parent, start_ns, end_ns, SpanStatus::Ok, Vec::new())
    }

    /// Records a completed span with an explicit status and attributes.
    /// `parent` defaults to the root span when `None`.
    pub fn span_with(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        start_ns: u64,
        end_ns: u64,
        status: SpanStatus,
        attrs: Vec<(&'static str, AttrValue)>,
    ) -> SpanId {
        let span_id = random_span_id();
        if status == SpanStatus::Error {
            self.inner.error.store(true, Ordering::Relaxed);
        }
        self.inner.tracer.started.inc();
        let span = Span {
            trace_id: self.inner.trace_id,
            span_id,
            parent: Some(parent.unwrap_or(self.inner.root_span)),
            name,
            start_ns,
            duration_ns: end_ns.saturating_sub(start_ns),
            status,
            attrs,
        };
        self.inner
            .state
            .lock()
            .expect("trace state poisoned")
            .spans
            .push(span);
        span_id
    }
}

impl Drop for TraceShared {
    fn drop(&mut self) {
        let state = self.state.get_mut().expect("trace state poisoned");
        let spans = std::mem::take(&mut state.spans);
        let jobs = std::mem::take(&mut state.jobs);
        let errored = *self.error.get_mut();
        let tracer = &self.tracer;
        // The root runs until its last handle drops (async persist
        // included).
        let duration_ns = tracer.now_ns().saturating_sub(self.start_ns);
        let reason = if errored {
            Some(SampleReason::TailError)
        } else if self.head_sampled {
            Some(SampleReason::Head)
        } else if duration_ns >= tracer.config.slow_threshold_ns {
            Some(SampleReason::TailSlow)
        } else {
            None
        };
        let job_spans: u64 = jobs.iter().map(|(_, job)| job.span_count()).sum();
        let span_count = spans.len() as u64 + job_spans + 1; // + root
        let Some(reason) = reason else {
            tracer.dropped.add(span_count);
            return;
        };
        tracer.sampled.add(span_count);
        let status = if errored {
            SpanStatus::Error
        } else {
            SpanStatus::Ok
        };
        let root = Span {
            trace_id: self.trace_id,
            span_id: self.root_span,
            parent: self.root_parent,
            name: self.name,
            start_ns: self.start_ns,
            duration_ns,
            status,
            attrs: Vec::new(),
        };
        let mut all = Vec::with_capacity(span_count as usize);
        all.push(root);
        let mut eager = spans.into_iter();
        let mut emitted = 0;
        for (at, job) in jobs {
            all.extend(eager.by_ref().take(at - emitted));
            emitted = at;
            state.annotate(&job.tenant, &job.market, job.scenario);
            job.render_spans(self.trace_id, self.root_span, &mut all);
        }
        all.extend(eager);
        tracer.store.record(Arc::new(StoredTrace {
            trace_id: self.trace_id,
            name: self.name,
            tenant: std::mem::take(&mut state.tenant),
            market: std::mem::take(&mut state.market),
            scenario: state.scenario,
            status,
            start_ns: self.start_ns,
            duration_ns,
            reason,
            spans: all,
        }));
    }
}

// ---------------------------------------------------------------------------
// Thread-local current span (log correlation)
// ---------------------------------------------------------------------------

thread_local! {
    static CURRENT_SPAN: Cell<Option<(TraceId, SpanId)>> = const { Cell::new(None) };
}

/// The trace/span active on this thread, if any — what `obs::log` stamps
/// onto records.
pub fn current_span() -> Option<(TraceId, SpanId)> {
    CURRENT_SPAN.with(Cell::get)
}

/// Marks `trace`/`span` current on this thread until the guard drops
/// (restoring whatever was current before — guards nest).
pub fn enter_span(trace: TraceId, span: SpanId) -> SpanGuard {
    let prev = CURRENT_SPAN.with(|cell| cell.replace(Some((trace, span))));
    SpanGuard { prev }
}

/// Restores the previously-current span on drop; see [`enter_span`].
#[derive(Debug)]
pub struct SpanGuard {
    prev: Option<(TraceId, SpanId)>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        CURRENT_SPAN.with(|cell| cell.set(self.prev));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_tracer(config: TracerConfig) -> Arc<Tracer> {
        Tracer::new(&Registry::new(), config)
    }

    #[test]
    fn traceparent_round_trips() {
        let ctx = TraceContext {
            trace_id: TraceId(0x0102030405060708090a0b0c0d0e0f10),
            parent: SpanId(0x1122334455667788),
            sampled: true,
        };
        let rendered = ctx.render_traceparent();
        assert_eq!(
            rendered,
            "00-0102030405060708090a0b0c0d0e0f10-1122334455667788-01"
        );
        assert_eq!(TraceContext::parse_traceparent(&rendered), Some(ctx));
    }

    #[test]
    fn traceparent_rejects_malformed() {
        for bad in [
            "",
            "00",
            "00-",
            "00-00000000000000000000000000000000-1122334455667788-01", // zero trace id
            "00-0102030405060708090a0b0c0d0e0f10-0000000000000000-01", // zero span id
            "00-0102030405060708090A0B0C0D0E0F10-1122334455667788-01", // uppercase
            "ff-0102030405060708090a0b0c0d0e0f10-1122334455667788-01", // forbidden version
            "00-0102030405060708090a0b0c0d0e0f10-1122334455667788-01-extra", // v00 extras
            "00-0102030405060708090a0b0c0d0e0f1-1122334455667788-01",  // short trace id
            "0-0102030405060708090a0b0c0d0e0f10-1122334455667788-01",  // short version
            "00-0102030405060708090a0b0c0d0e0f10-1122334455667788-1",  // short flags
            "zz-0102030405060708090a0b0c0d0e0f10-1122334455667788-01",
        ] {
            assert_eq!(TraceContext::parse_traceparent(bad), None, "{bad:?}");
        }
        // Future versions may carry extra fields.
        assert!(TraceContext::parse_traceparent(
            "01-0102030405060708090a0b0c0d0e0f10-1122334455667788-01-future"
        )
        .is_some());
    }

    #[test]
    fn incoming_sampled_context_is_kept_with_callers_ids() {
        let tracer = test_tracer(TracerConfig {
            head_sample_every: 0,
            ..TracerConfig::default()
        });
        let ctx = TraceContext::parse_traceparent(
            "00-000000000000000000000000000000aa-00000000000000bb-01",
        )
        .unwrap();
        let trace = tracer.start_trace("http.request", Some(ctx));
        let t0 = trace.now_ns();
        trace.span("gateway.parse", None, t0, t0 + 10);
        drop(trace);
        let stored = tracer.store().get(TraceId(0xaa)).expect("kept");
        assert_eq!(stored.reason, SampleReason::Head);
        assert_eq!(stored.spans[0].parent, Some(SpanId(0xbb)));
        assert_eq!(stored.spans.len(), 2);
        assert_eq!(stored.spans[1].name, "gateway.parse");
        assert_eq!(stored.spans[1].parent, Some(stored.spans[0].span_id));
    }

    #[test]
    fn unsampled_fast_ok_trace_is_dropped_and_counted() {
        let registry = Registry::new();
        let tracer = Tracer::new(
            &registry,
            TracerConfig {
                head_sample_every: 0,
                slow_threshold_ns: u64::MAX,
                capacity: 8,
            },
        );
        let trace = tracer.start_trace("job", None);
        trace.span("solve", None, 0, 10);
        let id = trace.trace_id();
        drop(trace);
        assert!(tracer.store().get(id).is_none());
        assert!(registry
            .render_prometheus()
            .contains("crowdtune_spans_dropped_total 2"));
    }

    /// Job spans rendered at completion are counted like eager spans and
    /// land in recording order, and a begun trace discarded unkept counts
    /// exactly what sampling counts for a live trace it drops.
    #[test]
    fn deferred_job_spans_and_discarded_starts_count_like_eager_spans() {
        let job = JobTrace {
            job_id: 7,
            tenant: "acme".to_owned(),
            source: "cache",
            status: "ok",
            admitted_ns: 1,
            enqueued_ns: 1,
            dequeued_ns: 1,
            solve_start_ns: 2,
            solve_end_ns: 3,
            estimate_end_ns: 3,
            completed_ns: 3,
            ..JobTrace::default()
        };
        let registry = Registry::new();
        let tracer = Tracer::new(
            &registry,
            TracerConfig {
                head_sample_every: 1,
                slow_threshold_ns: u64::MAX,
                capacity: 8,
            },
        );
        let trace = tracer.start_trace("http.request", None);
        trace.span("gateway.parse", None, 0, 1);
        job.clone().record_spans(&trace);
        trace.span("gateway.dispatch", None, 3, 4);
        let id = trace.trace_id();
        drop(trace);
        let stored = tracer.store().get(id).expect("head-sampled");
        let names: Vec<&str> = stored.spans.iter().map(|s| s.name).collect();
        let expected = [
            "http.request",
            "gateway.parse",
            "job",
            "queue.wait",
            "solve",
            "gateway.dispatch",
        ];
        assert_eq!(names, expected);
        assert_eq!(stored.tenant, "acme");
        let text = registry.render_prometheus();
        assert!(text.contains("crowdtune_spans_started_total 6"), "{text}");
        assert!(text.contains("crowdtune_spans_sampled_total 6"), "{text}");

        let registry = Registry::new();
        let tracer = Tracer::new(
            &registry,
            TracerConfig {
                head_sample_every: 0,
                slow_threshold_ns: 1_000_000_000,
                capacity: 8,
            },
        );
        let live = tracer.start_trace("job.submit", None);
        job.clone().record_spans(&live);
        drop(live);
        let begun = tracer.begin_trace("job.submit", None);
        assert!(!begun.would_keep(begun.start_ns() + 999_999_999));
        let slow = begun.start_ns() + 1_000_000_000;
        assert!(begun.would_keep(slow), "slow roots are kept");
        begun.discard(1 + job.span_count());
        let text = registry.render_prometheus();
        assert!(text.contains("crowdtune_spans_started_total 8"), "{text}");
        assert!(text.contains("crowdtune_spans_dropped_total 8"), "{text}");
    }

    #[test]
    fn error_and_slow_traces_are_tail_sampled() {
        let tracer = test_tracer(TracerConfig {
            head_sample_every: 0,
            slow_threshold_ns: u64::MAX,
            capacity: 8,
        });
        let trace = tracer.start_trace("job", None);
        trace.span_with("solve", None, 0, 10, SpanStatus::Error, Vec::new());
        let id = trace.trace_id();
        drop(trace);
        let stored = tracer.store().get(id).expect("error trace kept");
        assert_eq!(stored.reason, SampleReason::TailError);
        assert_eq!(stored.status, SpanStatus::Error);

        let tracer = test_tracer(TracerConfig {
            head_sample_every: 0,
            slow_threshold_ns: 1, // everything is "slow"
            capacity: 8,
        });
        let trace = tracer.start_trace("job", None);
        let id = trace.trace_id();
        drop(trace);
        assert_eq!(
            tracer.store().get(id).expect("slow trace kept").reason,
            SampleReason::TailSlow
        );
    }

    #[test]
    fn every_nth_trace_is_head_sampled() {
        let tracer = test_tracer(TracerConfig {
            head_sample_every: 4,
            slow_threshold_ns: u64::MAX,
            capacity: 16,
        });
        let kept: usize = (0..16)
            .map(|_| {
                let trace = tracer.start_trace("job", None);
                let id = trace.trace_id();
                drop(trace);
                usize::from(tracer.store().get(id).is_some())
            })
            .sum();
        assert_eq!(kept, 4);
    }

    #[test]
    fn ring_evicts_oldest() {
        let tracer = test_tracer(TracerConfig {
            head_sample_every: 1, // keep everything
            slow_threshold_ns: u64::MAX,
            capacity: 4,
        });
        let ids: Vec<TraceId> = (0..6)
            .map(|_| {
                let trace = tracer.start_trace("job", None);
                let id = trace.trace_id();
                drop(trace);
                id
            })
            .collect();
        assert!(tracer.store().get(ids[0]).is_none());
        assert!(tracer.store().get(ids[1]).is_none());
        for id in &ids[2..] {
            assert!(tracer.store().get(*id).is_some());
        }
        assert_eq!(tracer.store().snapshot().len(), 4);
    }

    #[test]
    fn trace_flush_waits_for_the_last_handle() {
        let tracer = test_tracer(TracerConfig {
            head_sample_every: 1,
            slow_threshold_ns: u64::MAX,
            capacity: 4,
        });
        let trace = tracer.start_trace("job", None);
        let id = trace.trace_id();
        let held = trace.clone();
        drop(trace);
        assert!(
            tracer.store().get(id).is_none(),
            "must not flush while a handle (async persist) is live"
        );
        held.span("store.persist", None, 5, 9);
        drop(held);
        let stored = tracer.store().get(id).expect("flushed on last drop");
        assert_eq!(stored.spans.len(), 2);
    }

    #[test]
    fn current_span_guards_nest() {
        assert_eq!(current_span(), None);
        let outer = enter_span(TraceId(1), SpanId(2));
        assert_eq!(current_span(), Some((TraceId(1), SpanId(2))));
        {
            let _inner = enter_span(TraceId(3), SpanId(4));
            assert_eq!(current_span(), Some((TraceId(3), SpanId(4))));
        }
        assert_eq!(current_span(), Some((TraceId(1), SpanId(2))));
        drop(outer);
        assert_eq!(current_span(), None);
    }
}
