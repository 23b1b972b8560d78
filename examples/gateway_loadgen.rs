//! Gateway end-to-end smoke + load generator: the whole stack over a real
//! network boundary.
//!
//! 1. Start a `TuningService` behind a `Gateway` on an ephemeral loopback
//!    port, plus an identically configured in-process reference service.
//! 2. **Correctness pass** — replay a mixed EA/RA/HA multi-tenant catalogue
//!    synchronously (`POST /v1/jobs?wait=1`) and assert every HTTP-served
//!    plan is **bit-identical** (as rendered JSON) to an in-process `submit`
//!    of the same `JobRequestWire`; also drive the async submit → poll path
//!    and the `/v1/metrics` + `/healthz` endpoints.
//! 3. **Admission pass** — flood a tiny-admission service and require the
//!    per-tenant rejection to surface as HTTP 429.
//! 4. **Load pass** — multi-threaded keep-alive clients replay the
//!    catalogue over real sockets; medians and throughput go to
//!    `BENCH_gateway.json` (override with `BENCH_GATEWAY_JSON`), including
//!    `inprocess_vs_http_p50_ratio`, the in-run overhead ratio the CI
//!    regression guard watches.
//! 5. **Endpoint pass** — a single keep-alive client measures p50/p90/p99
//!    for each GET surface (`/v1/metrics` in both formats, `/v1/jobs/{id}`,
//!    `/v1/debug/slowest`, `/healthz`); the per-endpoint rows land in the
//!    bench JSON with their in-run `p99_vs_p50_ratio` (tail health, guarded
//!    with a ceiling by the CI regression script).
//! 6. **Overhead pass** — two fresh in-process services, the default
//!    `ObsLevel` vs `ObsLevel::Off`, alternating warm cache-hit submits;
//!    `telemetry_off_vs_on_p50_ratio` (~1.0, guarded with a floor) is the
//!    cost of the per-job tracing and histogram instrumentation on the
//!    hottest path. A second pass repeats the pattern for causal span
//!    recording (the default vs `ObsLevel::Metrics`);
//!    `tracing_off_vs_on_p50_ratio` (~1.0, floor-guarded at 1.20x)
//!    proves the mostly-unsampled span path stays off the hot path. The
//!    correctness pass also submits one job with a W3C `traceparent` header
//!    and asserts the echoed header keeps the caller's trace id and the span
//!    tree is queryable at `GET /v1/debug/traces/{trace_id}`.
//! 7. **Fault-layer pass** — same in-run pattern over two durable services,
//!    chaos write-fault layer absent vs installed-but-disarmed;
//!    `fault_layer_off_vs_on_p50_ratio` (~1.0, guarded with a floor) proves
//!    fault injection support costs nothing on the fault-free hot path.
//! 8. **Idle-herd + open-loop pass** — parks thousands of idle keep-alive
//!    connections on the reactor (sized to the process fd limit), verifies
//!    the `connections_open` gauge reports the crowd, then drives
//!    **open-loop** arrivals (requests fire on a fixed schedule, latency
//!    measured from the scheduled send time — coordinated-omission-safe)
//!    from fresh connections while the herd stays parked. Emits
//!    `concurrent_connections`, `open_loop_http_p50_us`,
//!    `open_loop_http_throughput_rps`, and two in-run guard ratios:
//!    `idle_herd_held_ratio` (herd still registered after the pass, floor)
//!    and `open_loop_p50_vs_closed_p50_ratio` (parked herd must not tax
//!    latency, ceiling).
//!
//! Any plan byte-drift, non-2xx happy-path response, or missing 429 exits
//! non-zero. `CROWDTUNE_BENCH_QUICK=1` shrinks thread/round counts for CI.
//!
//! Run with `cargo run --release --example gateway_loadgen`.

use crowdtune_chaos::ChaosWriteFault;
use crowdtune_core::rate::{LinearRate, LogRate, RateSpec};
use crowdtune_core::task::TaskGroupSpec;
use crowdtune_core::tuner::StrategyChoice;
use crowdtune_gateway::{Gateway, GatewayConfig, JobRequestWire};
use crowdtune_serve::{
    AdmissionPolicy, ObsLevel, ServiceConfig, StoreOptions, TuningService, WriteFault,
};
use serde::Value;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------------
// Minimal HTTP client (std-only, keep-alive)
// ---------------------------------------------------------------------------

struct Client {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

struct HttpResponse {
    status: u16,
    traceparent: Option<String>,
    body: String,
}

impl Client {
    fn connect(addr: SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect to gateway");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .expect("set read timeout");
        stream.set_nodelay(true).expect("set nodelay");
        let reader = BufReader::new(stream.try_clone().expect("clone stream"));
        Client { stream, reader }
    }

    fn request(&mut self, method: &str, target: &str, body: Option<&str>) -> HttpResponse {
        self.request_with(method, target, &[], body)
    }

    fn request_with(
        &mut self,
        method: &str,
        target: &str,
        headers: &[(&str, &str)],
        body: Option<&str>,
    ) -> HttpResponse {
        let mut text = format!("{method} {target} HTTP/1.1\r\nHost: loadgen\r\n");
        for (name, value) in headers {
            text.push_str(&format!("{name}: {value}\r\n"));
        }
        if let Some(body) = body {
            text.push_str(&format!("Content-Length: {}\r\n", body.len()));
        }
        text.push_str("\r\n");
        if let Some(body) = body {
            text.push_str(body);
        }
        self.stream
            .write_all(text.as_bytes())
            .expect("send request");
        self.read_response()
    }

    fn read_response(&mut self) -> HttpResponse {
        let mut status_line = String::new();
        let n = self
            .reader
            .read_line(&mut status_line)
            .expect("status line");
        assert!(n > 0, "connection closed before a response");
        let status: u16 = status_line
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .unwrap_or_else(|| panic!("bad status line {status_line:?}"));
        let mut content_length = 0usize;
        let mut traceparent = None;
        loop {
            let mut line = String::new();
            self.reader.read_line(&mut line).expect("header line");
            let line = line.trim_end();
            if line.is_empty() {
                break;
            }
            if let Some((name, value)) = line.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    content_length = value.trim().parse().expect("content length value");
                } else if name.eq_ignore_ascii_case("traceparent") {
                    traceparent = Some(value.trim().to_owned());
                }
            }
        }
        let mut body = vec![0u8; content_length];
        self.reader.read_exact(&mut body).expect("response body");
        HttpResponse {
            status,
            traceparent,
            body: String::from_utf8(body).expect("utf-8 body"),
        }
    }
}

fn json_field<'v>(value: &'v Value, name: &str) -> &'v Value {
    value.field(name).unwrap_or_else(|e| panic!("{e}"))
}

fn json_str(value: &Value) -> &str {
    match value {
        Value::Str(s) => s.as_str(),
        other => panic!("expected string, got {other:?}"),
    }
}

// ---------------------------------------------------------------------------
// Workload catalogue: mixed EA / RA / HA tenants
// ---------------------------------------------------------------------------

fn group(name: &str, rate: f64, tasks: u64, repetitions: u32) -> TaskGroupSpec {
    TaskGroupSpec {
        name: name.to_owned(),
        processing_rate: rate,
        tasks,
        repetitions,
    }
}

/// The replayed catalogue: per tenant, Scenario I (EA), II (RA budget
/// ladder — exercises family reuse) and III (HA) jobs, plus a non-linear
/// rate model. Deliberately includes exact repeats (cache hits).
fn catalogue() -> Vec<JobRequestWire> {
    let linear = RateSpec::Linear(LinearRate::new(1.5, 0.5).unwrap());
    let steep = RateSpec::Linear(LinearRate::steep());
    let log = RateSpec::Log(LogRate::new(2.0).unwrap());
    let mut jobs = Vec::new();
    // EA tenant: homogeneous type, uniform repetitions (Scenario I).
    jobs.push(JobRequestWire {
        tenant: "ea-tenant".to_owned(),
        market: None,
        groups: vec![group("filter", 2.5, 8, 3)],
        budget: 60,
        rate: linear.clone(),
        strategy: StrategyChoice::Auto,
    });
    // RA tenant: one workload family across a budget ladder (Scenario II).
    for budget in [240u64, 120, 400, 240] {
        jobs.push(JobRequestWire {
            tenant: "ra-tenant".to_owned(),
            market: None,
            groups: vec![group("vote", 2.0, 5, 3), group("vote", 2.0, 5, 5)],
            budget,
            rate: linear.clone(),
            strategy: StrategyChoice::Auto,
        });
    }
    // HA tenant: heterogeneous difficulty (Scenario III).
    jobs.push(JobRequestWire {
        tenant: "ha-tenant".to_owned(),
        market: None,
        groups: vec![group("easy", 3.0, 4, 3), group("hard", 1.0, 4, 5)],
        budget: 160,
        rate: steep,
        strategy: StrategyChoice::Auto,
    });
    // Non-linear belief + forced RA override.
    jobs.push(JobRequestWire {
        tenant: "ra-tenant".to_owned(),
        market: None,
        groups: vec![group("vote", 2.0, 5, 3), group("vote", 2.0, 5, 5)],
        budget: 180,
        rate: log,
        strategy: StrategyChoice::RepetitionAlgorithm,
    });
    // Exact repeat of the EA job from a different tenant: cache hit.
    jobs.push(JobRequestWire {
        tenant: "ea-tenant-2".to_owned(),
        market: None,
        groups: vec![group("filter", 2.5, 8, 3)],
        budget: 60,
        rate: linear,
        strategy: StrategyChoice::Auto,
    });
    jobs
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty());
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx]
}

/// Pulls the value of `name{labels}` out of a Prometheus text exposition.
fn prom_value(text: &str, name: &str) -> Option<f64> {
    text.lines().find_map(|line| {
        let (metric, value) = line.rsplit_once(' ')?;
        (metric == name).then(|| value.parse().ok())?
    })
}

/// This process's soft open-files limit: the binding constraint on the
/// idle-herd size (client and server ends of every held connection live in
/// this one process, so each costs two descriptors).
fn open_files_limit() -> usize {
    std::fs::read_to_string("/proc/self/limits")
        .unwrap_or_default()
        .lines()
        .find(|line| line.starts_with("Max open files"))
        .and_then(|line| line.split_whitespace().nth(3))
        .and_then(|soft| soft.parse().ok())
        .unwrap_or(1024)
}

fn main() {
    let quick = std::env::var("CROWDTUNE_BENCH_QUICK").is_ok_and(|v| v == "1");
    let mut failures = 0u32;

    let service_config = ServiceConfig::default();
    let service = Arc::new(TuningService::start(service_config));
    let reference = TuningService::start(service_config);
    let gateway = Gateway::start(
        service.clone(),
        "127.0.0.1:0",
        GatewayConfig {
            // The idle-herd pass parks connections across several measurement
            // phases; the default 5s idle reaper would cull them mid-pass.
            keep_alive_timeout: Duration::from_secs(120),
            max_connections: 16_384,
            ..GatewayConfig::default()
        },
    )
    .expect("bind gateway");
    let addr = gateway.local_addr();
    println!("gateway_loadgen: serving on {addr} (quick={quick})");

    let jobs = catalogue();

    // -- Correctness pass: sync submits must be bit-identical to in-process.
    let mut client = Client::connect(addr);
    for (index, wire) in jobs.iter().enumerate() {
        let body = serde_json::to_string(wire).expect("serialize wire request");
        let response = client.request("POST", "/v1/jobs?wait=1", Some(&body));
        if response.status != 200 {
            eprintln!(
                "FAIL: job {index} answered {} on the happy path: {}",
                response.status, response.body
            );
            failures += 1;
            continue;
        }
        let json = serde_json::parse_value_str(&response.body).expect("response JSON");
        let source = json_str(json_field(&json, "source")).to_owned();
        let http_plan = serde_json::to_string(json_field(&json, "plan")).expect("render plan");
        let in_process = reference
            .tune(wire.to_request(1_000_000).expect("wire converts"))
            .expect("in-process submit");
        let reference_plan =
            serde_json::to_string(&*in_process.plan).expect("render reference plan");
        if http_plan != reference_plan {
            eprintln!(
                "FAIL: job {index} (tenant {}, budget {}) drifted over HTTP\n  http: {http_plan}\n  ref:  {reference_plan}",
                wire.tenant, wire.budget
            );
            failures += 1;
        } else {
            println!(
                "job {index:>2}: {:<12} budget {:>4} -> {source:<6} bit-identical over HTTP",
                wire.tenant, wire.budget
            );
        }
    }

    // -- Async path: submit, poll to completion, re-poll the retained result.
    let async_wire = &jobs[1];
    let body = serde_json::to_string(async_wire).expect("serialize wire request");
    let submitted = client.request("POST", "/v1/jobs", Some(&body));
    if submitted.status != 202 {
        eprintln!("FAIL: async submit answered {}", submitted.status);
        failures += 1;
    } else {
        let json = serde_json::parse_value_str(&submitted.body).expect("submit JSON");
        let job_id = match json_field(&json, "job_id") {
            Value::I64(v) => *v as u64,
            Value::U64(v) => *v,
            other => panic!("job_id not an integer: {other:?}"),
        };
        let target = format!("/v1/jobs/{job_id}");
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let polled = client.request("GET", &target, None);
            let json = serde_json::parse_value_str(&polled.body).expect("poll JSON");
            match json_str(json_field(&json, "status")) {
                "pending" if Instant::now() < deadline => continue,
                "done" => {
                    println!("async job {job_id}: done via poll");
                    break;
                }
                other => {
                    eprintln!("FAIL: async job {job_id} ended as {other}");
                    failures += 1;
                    break;
                }
            }
        }
    }

    // -- Health + metrics surfaces.
    let health = client.request("GET", "/healthz", None);
    let metrics = client.request("GET", "/v1/metrics", None);
    if health.status != 200 || metrics.status != 200 {
        eprintln!(
            "FAIL: health/metrics answered {}/{}",
            health.status, metrics.status
        );
        failures += 1;
    } else if !metrics.body.contains("cache_hits") {
        eprintln!("FAIL: metrics body lacks counters: {}", metrics.body);
        failures += 1;
    }

    // -- Tracing pass: a sampled W3C traceparent joins the submit to the
    // caller's trace, the response echoes the gateway's root span under the
    // same trace id, and the span tree is queryable by that id.
    let trace_id = "4bf92f3577b34da6a3ce929d0e0e4736";
    let sent_traceparent = format!("00-{trace_id}-00f067aa0ba902b7-01");
    let body = serde_json::to_string(&jobs[0]).expect("serialize wire request");
    let traced = client.request_with(
        "POST",
        "/v1/jobs?wait=1",
        &[("traceparent", sent_traceparent.as_str())],
        Some(&body),
    );
    if traced.status != 200 {
        eprintln!("FAIL: traced submit answered {}", traced.status);
        failures += 1;
    }
    match &traced.traceparent {
        Some(echo) if echo.starts_with(&format!("00-{trace_id}-")) => {
            println!("traceparent echoed under the caller's trace id: {echo}");
        }
        other => {
            eprintln!("FAIL: traced submit echoed {other:?}, want trace id {trace_id}");
            failures += 1;
        }
    }
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let tree = client.request("GET", &format!("/v1/debug/traces/{trace_id}"), None);
        if tree.status == 200 {
            let json = serde_json::parse_value_str(&tree.body).expect("trace tree JSON");
            let spans = match json_field(&json, "spans") {
                Value::Arr(spans) => spans.len(),
                other => panic!("spans is not an array: {other:?}"),
            };
            println!("trace {trace_id}: {spans}-span tree queryable over the socket");
            if spans < 4 {
                eprintln!("FAIL: traced submit produced only {spans} spans");
                failures += 1;
            }
            break;
        }
        if Instant::now() >= deadline {
            eprintln!("FAIL: trace {trace_id} never reached the span store");
            failures += 1;
            break;
        }
        std::thread::yield_now();
    }
    drop(client);

    // -- Admission pass: a tiny-admission service must answer 429.
    {
        let tiny = Arc::new(TuningService::start(ServiceConfig {
            workers: 1,
            admission: AdmissionPolicy {
                max_pending: 64,
                max_pending_per_tenant: 1,
            },
            ..ServiceConfig::default()
        }));
        let tiny_gateway = Gateway::start(tiny, "127.0.0.1:0", GatewayConfig::default())
            .expect("bind tiny gateway");
        let mut client = Client::connect(tiny_gateway.local_addr());
        let mut saw_429 = false;
        for budget in 0..128u64 {
            let wire = JobRequestWire {
                tenant: "flood".to_owned(),
                market: None,
                groups: vec![group("vote", 2.0, 10, 3), group("vote", 2.0, 10, 5)],
                budget: 4000 + budget,
                rate: RateSpec::Linear(LinearRate::unit_slope()),
                strategy: StrategyChoice::Auto,
            };
            let body = serde_json::to_string(&wire).expect("serialize flood job");
            let response = client.request("POST", "/v1/jobs", Some(&body));
            match response.status {
                202 => continue,
                429 => {
                    saw_429 = true;
                    break;
                }
                other => {
                    eprintln!("FAIL: flood answered {other}: {}", response.body);
                    failures += 1;
                    break;
                }
            }
        }
        if saw_429 {
            println!("admission: per-tenant rejection surfaced as 429");
        } else {
            eprintln!("FAIL: flood never observed a 429");
            failures += 1;
        }
        drop(client);
        tiny_gateway.shutdown();
    }

    // -- Load pass: multi-threaded keep-alive clients, wait-mode submits.
    let threads = if quick { 4 } else { 8 };
    let rounds = if quick { 25 } else { 250 };
    let bodies: Arc<Vec<String>> = Arc::new(
        jobs.iter()
            .map(|wire| serde_json::to_string(wire).expect("serialize wire request"))
            .collect(),
    );
    let started = Instant::now();
    let mut latencies: Vec<f64> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let bodies = bodies.clone();
                scope.spawn(move || {
                    let mut client = Client::connect(addr);
                    let mut samples = Vec::with_capacity(rounds * bodies.len());
                    for _ in 0..rounds {
                        for body in bodies.iter() {
                            let sent = Instant::now();
                            let response = client.request("POST", "/v1/jobs?wait=1", Some(body));
                            let micros = sent.elapsed().as_secs_f64() * 1e6;
                            assert_eq!(
                                response.status, 200,
                                "load-pass happy path: {}",
                                response.body
                            );
                            samples.push(micros);
                        }
                    }
                    samples
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread"))
            .collect()
    });
    let elapsed = started.elapsed().as_secs_f64();
    latencies.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    let total_requests = latencies.len();
    let http_p50 = percentile(&latencies, 0.50);
    let http_p90 = percentile(&latencies, 0.90);
    let http_p99 = percentile(&latencies, 0.99);
    let throughput = total_requests as f64 / elapsed;

    // -- Endpoint pass: per-endpoint percentiles over one keep-alive client.
    // Uses the warm post-load service so reads hit realistic state (filled
    // cache, populated registry and slowest ring).
    let ep_rounds = if quick { 60 } else { 300 };
    let mut endpoint_rows: Vec<(String, f64, f64, f64)> =
        vec![("post_jobs_wait".to_owned(), http_p50, http_p90, http_p99)];
    {
        let mut client = Client::connect(addr);
        let submitted = client.request(
            "POST",
            "/v1/jobs",
            Some(&serde_json::to_string(&jobs[0]).expect("serialize wire request")),
        );
        assert_eq!(submitted.status, 202, "endpoint-pass async submit");
        let poll_target = {
            let json = serde_json::parse_value_str(&submitted.body).expect("submit JSON");
            match json_field(&json, "job_id") {
                Value::I64(v) => format!("/v1/jobs/{v}"),
                Value::U64(v) => format!("/v1/jobs/{v}"),
                other => panic!("job_id not an integer: {other:?}"),
            }
        };
        let targets: [(&str, &str); 4] = [
            ("get_job", poll_target.as_str()),
            ("get_metrics_json", "/v1/metrics"),
            ("get_metrics_prometheus", "/v1/metrics?format=prometheus"),
            ("get_debug_slowest", "/v1/debug/slowest"),
        ];
        for (endpoint, target) in targets {
            let mut samples = Vec::with_capacity(ep_rounds);
            for _ in 0..ep_rounds {
                let sent = Instant::now();
                let response = client.request("GET", target, None);
                let micros = sent.elapsed().as_secs_f64() * 1e6;
                assert_eq!(response.status, 200, "endpoint pass {endpoint}");
                samples.push(micros);
            }
            samples.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
            endpoint_rows.push((
                endpoint.to_owned(),
                percentile(&samples, 0.50),
                percentile(&samples, 0.90),
                percentile(&samples, 0.99),
            ));
        }
    }
    for (endpoint, p50, p90, p99) in &endpoint_rows {
        println!("endpoint {endpoint:<22} p50 {p50:>8.1}µs p90 {p90:>8.1}µs p99 {p99:>8.1}µs");
    }

    // -- Idle-herd + open-loop pass: park an fd-limit-sized crowd of idle
    // keep-alive connections on the reactor, then drive open-loop arrivals
    // from fresh connections. Requests fire on a fixed schedule and latency
    // is measured from the *scheduled* send time, so a stalled server can't
    // hide behind coordinated omission.
    let herd_target = if quick { 1200 } else { 6000 };
    let herd_size = herd_target.min(open_files_limit().saturating_sub(512) / 2);
    let mut herd = Vec::with_capacity(herd_size);
    for _ in 0..herd_size {
        herd.push(TcpStream::connect(addr).expect("connect herd member"));
    }
    println!("idle herd: {herd_size} keep-alive connections parked (target {herd_target})");

    let open_loop_rate = if quick { 1000.0 } else { 4000.0 };
    let open_loop_secs = if quick { 2.0 } else { 5.0 };
    let open_loop_threads = if quick { 2 } else { 4 };
    let per_thread = open_loop_rate / open_loop_threads as f64;
    let shots = (per_thread * open_loop_secs) as usize;
    let open_started = Instant::now();
    let mut open_latencies: Vec<f64> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..open_loop_threads)
            .map(|_| {
                let bodies = bodies.clone();
                scope.spawn(move || {
                    let mut client = Client::connect(addr);
                    let interval = Duration::from_secs_f64(1.0 / per_thread);
                    let start = Instant::now();
                    let mut samples = Vec::with_capacity(shots);
                    for shot in 0..shots {
                        let scheduled = start + interval * shot as u32;
                        if let Some(wait) = scheduled.checked_duration_since(Instant::now()) {
                            std::thread::sleep(wait);
                        }
                        let body = &bodies[shot % bodies.len()];
                        let response = client.request("POST", "/v1/jobs?wait=1", Some(body));
                        assert_eq!(
                            response.status, 200,
                            "open-loop happy path: {}",
                            response.body
                        );
                        samples.push(scheduled.elapsed().as_secs_f64() * 1e6);
                    }
                    samples
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("open-loop thread"))
            .collect()
    });
    let open_elapsed = open_started.elapsed().as_secs_f64();
    open_latencies.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    let open_loop_p50 = percentile(&open_latencies, 0.50);
    let open_loop_p99 = percentile(&open_latencies, 0.99);
    let open_loop_throughput = open_latencies.len() as f64 / open_elapsed;

    // The herd must still be registered after the pass: the reactor held
    // every idle connection while serving the open-loop traffic.
    let exposition = Client::connect(addr)
        .request("GET", "/v1/metrics?format=prometheus", None)
        .body;
    let connections_open = prom_value(&exposition, "crowdtune_gateway_connections_open")
        .unwrap_or(0.0)
        .round() as u64;
    let herd_held_ratio = connections_open as f64 / herd_size as f64;
    if herd_held_ratio < 1.0 {
        eprintln!(
            "FAIL: only {connections_open} of {herd_size} idle connections survived the open-loop pass"
        );
        failures += 1;
    }
    println!(
        "open-loop: {} requests at {open_loop_rate:.0}/s target ({open_loop_throughput:.0} achieved) \
         with {connections_open} connections parked | p50 {open_loop_p50:.0}µs p99 {open_loop_p99:.0}µs",
        open_latencies.len()
    );
    drop(herd);

    // -- In-process comparison: the same requests straight into `submit`.
    let mut in_process: Vec<f64> = Vec::with_capacity(rounds.min(50) * jobs.len());
    for _ in 0..rounds.min(50) {
        for wire in &jobs {
            let request = wire.to_request(1_000_000).expect("wire converts");
            let sent = Instant::now();
            service.tune(request).expect("in-process submit");
            in_process.push(sent.elapsed().as_secs_f64() * 1e6);
        }
    }
    in_process.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    let inprocess_p50 = percentile(&in_process, 0.50);
    let ratio = inprocess_p50 / http_p50;
    let open_loop_vs_closed = open_loop_p50 / http_p50;

    println!(
        "load: {total_requests} requests over {threads} connections in {elapsed:.2}s \
         ({throughput:.0} req/s) | http p50 {http_p50:.0}µs p90 {http_p90:.0}µs \
         p99 {http_p99:.0}µs | in-process p50 {inprocess_p50:.0}µs | ratio {ratio:.3}"
    );

    // -- Overhead pass: what does the per-job tracing + histogram recording
    // cost on the hottest path? Two fresh services, the default vs
    // `ObsLevel::Off`, warm caches, alternating submits so scheduler drift
    // hits both sides equally. The off/on p50 ratio sits near 1.0; a drop means the
    // instrumentation got expensive.
    let overhead_rounds = if quick { 150 } else { 600 };
    let telemetry_on = TuningService::start(ServiceConfig::default());
    let telemetry_off = TuningService::start(ServiceConfig {
        obs: ObsLevel::Off,
        ..ServiceConfig::default()
    });
    for wire in &jobs {
        let request = wire.to_request(1_000_000).expect("wire converts");
        telemetry_on.tune(request).expect("warm telemetry-on");
        let request = wire.to_request(1_000_000).expect("wire converts");
        telemetry_off.tune(request).expect("warm telemetry-off");
    }
    let mut on_samples = Vec::with_capacity(overhead_rounds * jobs.len());
    let mut off_samples = Vec::with_capacity(overhead_rounds * jobs.len());
    for _ in 0..overhead_rounds {
        for wire in &jobs {
            let request = wire.to_request(1_000_000).expect("wire converts");
            let sent = Instant::now();
            telemetry_on.tune(request).expect("telemetry-on submit");
            on_samples.push(sent.elapsed().as_secs_f64() * 1e6);
            let request = wire.to_request(1_000_000).expect("wire converts");
            let sent = Instant::now();
            telemetry_off.tune(request).expect("telemetry-off submit");
            off_samples.push(sent.elapsed().as_secs_f64() * 1e6);
        }
    }
    telemetry_on.shutdown();
    telemetry_off.shutdown();
    on_samples.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    off_samples.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    let telemetry_on_p50 = percentile(&on_samples, 0.50);
    let telemetry_off_p50 = percentile(&off_samples, 0.50);
    let overhead_ratio = telemetry_off_p50 / telemetry_on_p50;
    println!(
        "telemetry overhead: on p50 {telemetry_on_p50:.2}µs, off p50 {telemetry_off_p50:.2}µs, \
         off/on ratio {overhead_ratio:.3} (overhead {:.1}%)",
        (telemetry_on_p50 / telemetry_off_p50 - 1.0) * 100.0
    );

    // -- Tracing overhead pass: same in-run pattern, default vs
    // `ObsLevel::Metrics` (span recording on vs off). The unsampled path
    // (head sampling keeps 1-in-64 by default) must stay off the hot path:
    // the off/on p50 ratio sits near 1.0 and is floor-guarded at 1.20x by
    // CI.
    let tracing_on = TuningService::start(ServiceConfig::default());
    let tracing_off = TuningService::start(ServiceConfig {
        obs: ObsLevel::Metrics,
        ..ServiceConfig::default()
    });
    for wire in &jobs {
        let request = wire.to_request(1_000_000).expect("wire converts");
        tracing_on.tune(request).expect("warm tracing-on");
        let request = wire.to_request(1_000_000).expect("wire converts");
        tracing_off.tune(request).expect("warm tracing-off");
    }
    let mut tracing_on_samples = Vec::with_capacity(overhead_rounds * jobs.len());
    let mut tracing_off_samples = Vec::with_capacity(overhead_rounds * jobs.len());
    for _ in 0..overhead_rounds {
        for wire in &jobs {
            let request = wire.to_request(1_000_000).expect("wire converts");
            let sent = Instant::now();
            tracing_on.tune(request).expect("tracing-on submit");
            tracing_on_samples.push(sent.elapsed().as_secs_f64() * 1e6);
            let request = wire.to_request(1_000_000).expect("wire converts");
            let sent = Instant::now();
            tracing_off.tune(request).expect("tracing-off submit");
            tracing_off_samples.push(sent.elapsed().as_secs_f64() * 1e6);
        }
    }
    tracing_on.shutdown();
    tracing_off.shutdown();
    tracing_on_samples.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    tracing_off_samples.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    let tracing_on_p50 = percentile(&tracing_on_samples, 0.50);
    let tracing_off_p50 = percentile(&tracing_off_samples, 0.50);
    let tracing_ratio = tracing_off_p50 / tracing_on_p50;
    println!(
        "tracing overhead: on p50 {tracing_on_p50:.2}µs, off p50 {tracing_off_p50:.2}µs, \
         off/on ratio {tracing_ratio:.3} (overhead {:.1}%)",
        (tracing_on_p50 / tracing_off_p50 - 1.0) * 100.0
    );

    // -- Fault-layer pass: an *installed but disarmed* chaos write-fault must
    // cost nothing on the fault-free hot path. Two fresh durable services,
    // fault layer absent vs installed, warm caches, alternating submits (the
    // same in-run pattern as the telemetry pass). The hook only runs on the
    // background writer thread, so the off/on p50 ratio sits near 1.0.
    let fault_base =
        std::env::temp_dir().join(format!("crowdtune-loadgen-fault-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&fault_base);
    let fault_off = TuningService::recover(ServiceConfig::default(), fault_base.join("off"))
        .expect("open fault-off store");
    let fault_on = TuningService::recover_with(
        ServiceConfig::default(),
        fault_base.join("on"),
        StoreOptions {
            write_fault: Some(Arc::new(ChaosWriteFault::new()) as Arc<dyn WriteFault>),
            ..StoreOptions::default()
        },
    )
    .expect("open fault-on store");
    for wire in &jobs {
        let request = wire.to_request(1_000_000).expect("wire converts");
        fault_off.tune(request).expect("warm fault-off");
        let request = wire.to_request(1_000_000).expect("wire converts");
        fault_on.tune(request).expect("warm fault-on");
    }
    let mut fault_on_samples = Vec::with_capacity(overhead_rounds * jobs.len());
    let mut fault_off_samples = Vec::with_capacity(overhead_rounds * jobs.len());
    for _ in 0..overhead_rounds {
        for wire in &jobs {
            let request = wire.to_request(1_000_000).expect("wire converts");
            let sent = Instant::now();
            fault_on.tune(request).expect("fault-on submit");
            fault_on_samples.push(sent.elapsed().as_secs_f64() * 1e6);
            let request = wire.to_request(1_000_000).expect("wire converts");
            let sent = Instant::now();
            fault_off.tune(request).expect("fault-off submit");
            fault_off_samples.push(sent.elapsed().as_secs_f64() * 1e6);
        }
    }
    fault_off.shutdown();
    fault_on.shutdown();
    let _ = std::fs::remove_dir_all(&fault_base);
    fault_on_samples.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    fault_off_samples.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    let fault_on_p50 = percentile(&fault_on_samples, 0.50);
    let fault_off_p50 = percentile(&fault_off_samples, 0.50);
    let fault_ratio = fault_off_p50 / fault_on_p50;
    println!(
        "fault-layer overhead: installed p50 {fault_on_p50:.2}µs, absent p50 {fault_off_p50:.2}µs, \
         off/on ratio {fault_ratio:.3} (overhead {:.1}%)",
        (fault_on_p50 / fault_off_p50 - 1.0) * 100.0
    );

    let metrics = Client::connect(addr).request("GET", "/v1/metrics", None);
    println!("metrics: {}", metrics.body);
    // The Prometheus exposition after real load, for the CI format checker.
    let exposition = Client::connect(addr)
        .request("GET", "/v1/metrics?format=prometheus", None)
        .body;
    if let Ok(path) = std::env::var("PROM_EXPOSITION_OUT") {
        match std::fs::write(&path, &exposition) {
            Ok(()) => println!("gateway_loadgen: wrote exposition to {path}"),
            Err(err) => {
                eprintln!("FAIL: could not write {path}: {err}");
                failures += 1;
            }
        }
    }

    gateway.shutdown();
    // The gateway held the only other reference; dropping ours stops the
    // service (its Drop drains the queue and joins the workers).
    drop(service);
    reference.shutdown();

    // -- Bench artifact.
    let json_path = std::env::var("BENCH_GATEWAY_JSON")
        .unwrap_or_else(|_| concat!(env!("CARGO_MANIFEST_DIR"), "/BENCH_gateway.json").to_owned());
    let endpoint_json: Vec<String> = endpoint_rows
        .iter()
        .map(|(endpoint, p50, p90, p99)| {
            format!(
                "    {{\"endpoint\": \"{endpoint}\", \"p50_us\": {p50:.1}, \
                 \"p90_us\": {p90:.1}, \"p99_us\": {p99:.1}, \
                 \"p99_vs_p50_ratio\": {:.3}}}",
                p99 / p50
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"gateway_loadgen_mixed_tenants\",\n  \"quick\": {quick},\n  \
         \"threads\": {threads},\n  \"requests\": {total_requests},\n  \
         \"http_p50_us\": {http_p50:.1},\n  \"http_p90_us\": {http_p90:.1},\n  \
         \"http_p99_us\": {http_p99:.1},\n  \
         \"http_throughput_rps\": {throughput:.0},\n  \
         \"concurrent_connections\": {connections_open},\n  \
         \"idle_herd_held_ratio\": {herd_held_ratio:.4},\n  \
         \"open_loop_target_rps\": {open_loop_rate:.0},\n  \
         \"open_loop_http_p50_us\": {open_loop_p50:.1},\n  \
         \"open_loop_http_p99_us\": {open_loop_p99:.1},\n  \
         \"open_loop_http_throughput_rps\": {open_loop_throughput:.0},\n  \
         \"open_loop_p50_vs_closed_p50_ratio\": {open_loop_vs_closed:.4},\n  \
         \"inprocess_p50_us\": {inprocess_p50:.1},\n  \
         \"inprocess_vs_http_p50_ratio\": {ratio:.4},\n  \
         \"telemetry_on_p50_us\": {telemetry_on_p50:.2},\n  \
         \"telemetry_off_p50_us\": {telemetry_off_p50:.2},\n  \
         \"telemetry_off_vs_on_p50_ratio\": {overhead_ratio:.4},\n  \
         \"tracing_on_p50_us\": {tracing_on_p50:.2},\n  \
         \"tracing_off_p50_us\": {tracing_off_p50:.2},\n  \
         \"tracing_off_vs_on_p50_ratio\": {tracing_ratio:.4},\n  \
         \"fault_layer_on_p50_us\": {fault_on_p50:.2},\n  \
         \"fault_layer_off_p50_us\": {fault_off_p50:.2},\n  \
         \"fault_layer_off_vs_on_p50_ratio\": {fault_ratio:.4},\n  \
         \"endpoints\": [\n{}\n  ]\n}}\n",
        endpoint_json.join(",\n")
    );
    match std::fs::write(&json_path, &json) {
        Ok(()) => println!("gateway_loadgen: wrote {json_path}"),
        Err(err) => {
            eprintln!("FAIL: could not write {json_path}: {err}");
            failures += 1;
        }
    }

    if failures > 0 {
        eprintln!("gateway_loadgen: {failures} failure(s)");
        std::process::exit(1);
    }
    println!("gateway_loadgen: all checks passed");
}
