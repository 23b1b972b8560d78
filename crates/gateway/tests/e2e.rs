//! End-to-end tests over real sockets: a `TuningService` behind a
//! `Gateway`, exercised with a minimal raw-TCP HTTP client. Covers the
//! happy paths (sync and async submission, polling, metrics, health), the
//! full error mapping (400/404/405/422/429/503), plan bit-identity against
//! in-process submits over a mixed EA/RA/HA catalogue, the Prometheus text
//! format of the scrape that follows it, keep-alive + pipelining,
//! malformed-input resilience, torn and trickled requests, drain semantics,
//! and the `StoreStats::dropped` metrics exposure under a forced-full
//! write-behind queue.

use crowdtune_core::rate::{LinearRate, LogRate, RateSpec};
use crowdtune_core::task::TaskGroupSpec;
use crowdtune_core::tuner::StrategyChoice;
use crowdtune_gateway::{Gateway, GatewayConfig, JobRequestWire};
use crowdtune_obs::TracerConfig;
use crowdtune_serve::{
    AdmissionPolicy, FsyncPolicy, ObsLevel, PlanSource, ServiceConfig, StoreOptions, TuningService,
};
use serde::Value;
use std::collections::{HashMap, HashSet};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// One parsed HTTP response.
struct HttpResponse {
    status: u16,
    content_type: String,
    body: String,
}

impl HttpResponse {
    fn json(&self) -> Value {
        serde_json::parse_value_str(&self.body)
            .unwrap_or_else(|e| panic!("body is not JSON ({e}): {}", self.body))
    }
}

/// A keep-alive test client over one TCP connection.
struct Client {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect to gateway");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let reader = BufReader::new(stream.try_clone().unwrap());
        Client { stream, reader }
    }

    fn send_raw(&mut self, text: &str) {
        self.stream.write_all(text.as_bytes()).expect("send");
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
        let mut text = format!("{method} {target} HTTP/1.1\r\nHost: test\r\n");
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
        self.send_raw(&text);
        self.read_response().expect("response")
    }

    fn read_response(&mut self) -> Option<HttpResponse> {
        let mut status_line = String::new();
        if self.reader.read_line(&mut status_line).ok()? == 0 {
            return None;
        }
        let status: u16 = status_line
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .unwrap_or_else(|| panic!("bad status line {status_line:?}"));
        let mut content_length = 0usize;
        let mut content_type = String::new();
        loop {
            let mut line = String::new();
            self.reader.read_line(&mut line).expect("header line");
            let line = line.trim_end();
            if line.is_empty() {
                break;
            }
            if let Some((name, value)) = line.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    content_length = value.trim().parse().expect("content length");
                } else if name.eq_ignore_ascii_case("content-type") {
                    content_type = value.trim().to_owned();
                }
            }
        }
        let mut body = vec![0u8; content_length];
        self.reader.read_exact(&mut body).expect("body");
        Some(HttpResponse {
            status,
            content_type,
            body: String::from_utf8(body).expect("utf-8 body"),
        })
    }
}

fn one_shot(addr: SocketAddr, method: &str, target: &str, body: Option<&str>) -> HttpResponse {
    Client::connect(addr).request(method, target, body)
}

fn ra_wire(tenant: &str, budget: u64) -> JobRequestWire {
    job(
        tenant,
        vec![group("vote", 2.0, 4, 3), group("vote", 2.0, 4, 5)],
        budget,
        &RateSpec::Linear(LinearRate::new(1.5, 0.5).unwrap()),
        StrategyChoice::Auto,
    )
}

fn group(name: &str, processing_rate: f64, tasks: u64, repetitions: u32) -> TaskGroupSpec {
    TaskGroupSpec {
        name: name.to_owned(),
        processing_rate,
        tasks,
        repetitions,
    }
}

fn job(
    tenant: &str,
    groups: Vec<TaskGroupSpec>,
    budget: u64,
    rate: &RateSpec,
    strategy: StrategyChoice,
) -> JobRequestWire {
    JobRequestWire {
        tenant: tenant.to_owned(),
        market: None,
        groups,
        budget,
        rate: rate.clone(),
        strategy,
    }
}

/// A mixed multi-tenant catalogue, each job with the `source` it reports
/// when the catalogue is replayed in order on one service: Scenario I (EA),
/// an RA budget ladder over one workload (a cold seed, a family read, a
/// family extension, an exact repeat), Scenario III (HA) under a steep
/// rate, a `LogRate` belief with a forced RA, and the EA job again from
/// another tenant (cache keys ignore the tenant).
fn catalogue() -> Vec<(JobRequestWire, &'static str)> {
    use StrategyChoice::{Auto, RepetitionAlgorithm};
    let linear = RateSpec::Linear(LinearRate::new(1.5, 0.5).unwrap());
    let steep = RateSpec::Linear(LinearRate::steep());
    let log = RateSpec::Log(LogRate::new(2.0).unwrap());
    let ea = || vec![group("filter", 2.5, 8, 3)];
    let ra = || vec![group("vote", 2.0, 5, 3), group("vote", 2.0, 5, 5)];
    let ha = vec![group("easy", 3.0, 4, 3), group("hard", 1.0, 4, 5)];
    vec![
        (job("ea-tenant", ea(), 60, &linear, Auto), "cold"),
        (job("ra-tenant", ra(), 240, &linear, Auto), "cold"),
        (job("ra-tenant", ra(), 120, &linear, Auto), "family"),
        (job("ra-tenant", ra(), 400, &linear, Auto), "family"),
        (job("ra-tenant", ra(), 240, &linear, Auto), "cache"),
        (job("ha-tenant", ha, 160, &steep, Auto), "cold"),
        (
            job("ra-tenant", ra(), 180, &log, RepetitionAlgorithm),
            "cold",
        ),
        (job("ea-tenant-2", ea(), 60, &linear, Auto), "cache"),
    ]
}

fn start_gateway(
    service_config: ServiceConfig,
    config: GatewayConfig,
) -> (Arc<TuningService>, Gateway) {
    let service = Arc::new(TuningService::start(service_config));
    let gateway = Gateway::start(service.clone(), "127.0.0.1:0", config).expect("bind gateway");
    (service, gateway)
}

fn field<'v>(value: &'v Value, name: &str) -> &'v Value {
    value.field(name).unwrap_or_else(|e| panic!("{e}"))
}

fn as_u64(value: &Value) -> u64 {
    match value {
        Value::I64(v) => u64::try_from(*v).expect("non-negative"),
        Value::U64(v) => *v,
        other => panic!("expected integer, got {other:?}"),
    }
}

fn as_str(value: &Value) -> &str {
    match value {
        Value::Str(s) => s.as_str(),
        other => panic!("expected string, got {other:?}"),
    }
}

/// A process-unique scratch directory (no tempfile crate offline).
fn scratch_dir(tag: &str) -> std::path::PathBuf {
    static NEXT: AtomicU32 = AtomicU32::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "crowdtune-gateway-test-{}-{tag}-{n}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Sync submission end to end: the plan served over HTTP is byte-identical
/// (as rendered JSON) to an in-process submit of the same wire request, the
/// `PlanSource` is reported, and a repeat hits the cache. Then every job of
/// `catalogue()`, replayed over one keep-alive socket, reports its expected
/// source and serves the bytes a separate in-process reference service
/// serves, and the Prometheus scrape taken after that traffic passes
/// `exposition_errors` with every family of `REQUIRED_FAMILIES`.
#[test]
fn sync_submission_serves_bit_identical_plans() {
    let service_config = ServiceConfig {
        workers: 2,
        ..ServiceConfig::default()
    };
    let (service, gateway) = start_gateway(service_config, GatewayConfig::default());
    let addr = gateway.local_addr();
    let wire = ra_wire("acme", 120);
    let body = serde_json::to_string(&wire).unwrap();

    let response = one_shot(addr, "POST", "/v1/jobs?wait=1", Some(&body));
    assert_eq!(response.status, 200, "{}", response.body);
    let json = response.json();
    assert_eq!(as_str(field(&json, "status")), "done");
    assert_eq!(as_str(field(&json, "source")), "cold");

    // The in-process reference: same wire request through `submit` directly.
    let reference = service
        .tune(wire.to_request(1_000_000).unwrap())
        .expect("in-process submit");
    assert_eq!(
        reference.source,
        PlanSource::CacheHit,
        "the HTTP submit warmed the exact-match cache"
    );
    let reference_plan = serde_json::to_string(&*reference.plan).unwrap();
    let served_plan = serde_json::to_string(field(&json, "plan")).unwrap();
    assert_eq!(
        served_plan, reference_plan,
        "HTTP-served plan must be bit-identical to the in-process plan"
    );

    // Repeat over HTTP: exact-match cache hit, same bytes.
    let repeat = one_shot(addr, "POST", "/v1/jobs?wait=1", Some(&body));
    assert_eq!(repeat.status, 200);
    let repeat_json = repeat.json();
    assert_eq!(as_str(field(&repeat_json, "source")), "cache");
    assert_eq!(
        serde_json::to_string(field(&repeat_json, "plan")).unwrap(),
        reference_plan
    );

    let reference = TuningService::start(service_config);
    let mut client = Client::connect(addr);
    for (index, (wire, source)) in catalogue().into_iter().enumerate() {
        let body = serde_json::to_string(&wire).unwrap();
        let response = client.request("POST", "/v1/jobs?wait=1", Some(&body));
        assert_eq!(response.status, 200, "job {index}: {}", response.body);
        let json = response.json();
        assert_eq!(as_str(field(&json, "source")), source, "job {index}");
        let reference_plan = reference
            .tune(wire.to_request(1_000_000).unwrap())
            .expect("in-process submit");
        assert_eq!(
            serde_json::to_string(field(&json, "plan")).unwrap(),
            serde_json::to_string(&*reference_plan.plan).unwrap(),
            "job {index} ({} budget {}) drifted over HTTP",
            wire.tenant,
            wire.budget
        );
    }

    let scrape = client.request("GET", "/v1/metrics?format=prometheus", None);
    assert_eq!(scrape.status, 200);
    let errors = exposition_errors(&scrape.body, &REQUIRED_FAMILIES);
    assert!(errors.is_empty(), "{errors:#?}\n{}", scrape.body);
    drop(client);
    gateway.shutdown();
    reference.shutdown();
}

/// Async submission: 202 + id, poll until done, the outcome is retained for
/// later polls, unknown ids are 404.
#[test]
fn async_submission_polls_to_completion() {
    let (_service, gateway) = start_gateway(
        ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        },
        GatewayConfig::default(),
    );
    let addr = gateway.local_addr();
    let body = serde_json::to_string(&ra_wire("acme", 90)).unwrap();
    let mut client = Client::connect(addr);

    let submitted = client.request("POST", "/v1/jobs", Some(&body));
    assert_eq!(submitted.status, 202, "{}", submitted.body);
    let job_id = as_u64(field(&submitted.json(), "job_id"));

    let target = format!("/v1/jobs/{job_id}");
    let done = loop {
        let polled = client.request("GET", &target, None);
        assert_eq!(polled.status, 200);
        let json = polled.json();
        match as_str(field(&json, "status")) {
            "pending" => std::thread::yield_now(),
            "done" => break json,
            other => panic!("unexpected status {other}"),
        }
    };
    assert_eq!(as_str(field(&done, "source")), "cold");
    assert!(!matches!(field(&done, "plan"), Value::Null));

    // The outcome is retained: polling again returns the identical body.
    let again = client.request("GET", &target, None);
    assert_eq!(
        serde_json::to_string(&again.json()).unwrap(),
        serde_json::to_string(&done).unwrap()
    );

    let missing = client.request("GET", "/v1/jobs/999999", None);
    assert_eq!(missing.status, 404);
    let not_an_id = client.request("GET", "/v1/jobs/xyz", None);
    assert_eq!(not_an_id.status, 404);
    drop(client);
    gateway.shutdown();
}

/// The error mapping: malformed JSON → 400, semantic errors → 422,
/// insufficient budget → 422 (tuning), unknown route → 404, wrong method →
/// 405, per-tenant admission → 429, global queue-full → 503.
#[test]
fn error_mapping_over_http() {
    let (_service, gateway) = start_gateway(
        ServiceConfig {
            workers: 1,
            admission: AdmissionPolicy {
                max_pending: 2,
                max_pending_per_tenant: 1,
            },
            ..ServiceConfig::default()
        },
        GatewayConfig::default(),
    );
    let addr = gateway.local_addr();
    let mut client = Client::connect(addr);

    let bad_json = client.request("POST", "/v1/jobs", Some("{not json"));
    assert_eq!(bad_json.status, 400);
    assert_eq!(as_str(field(&bad_json.json(), "error")), "bad_request");

    let no_body = client.request("POST", "/v1/jobs", None);
    assert_eq!(no_body.status, 400);

    let mut zero_reps = ra_wire("acme", 100);
    zero_reps.groups[0].repetitions = 0;
    let invalid = client.request(
        "POST",
        "/v1/jobs",
        Some(&serde_json::to_string(&zero_reps).unwrap()),
    );
    assert_eq!(invalid.status, 422);
    assert_eq!(as_str(field(&invalid.json(), "error")), "invalid_job");

    // Budget below the mandatory slots: the solver rejects → 422 tuning.
    let broke = client.request(
        "POST",
        "/v1/jobs?wait=1",
        Some(&serde_json::to_string(&ra_wire("acme", 5)).unwrap()),
    );
    assert_eq!(broke.status, 422);
    assert_eq!(as_str(field(&broke.json(), "error")), "tuning_failed");

    assert_eq!(client.request("GET", "/nope", None).status, 404);
    assert_eq!(client.request("DELETE", "/v1/jobs", None).status, 405);
    assert_eq!(client.request("POST", "/healthz", Some("{}")).status, 405);
    assert_eq!(
        client.request("GET", "/v1/jobs", None).status,
        405,
        "known path, wrong method — the collection has no GET"
    );
    assert_eq!(
        client.request("DELETE", "/v1/jobs/1", None).status,
        404,
        "DELETE is routed now; an unknown id is 404, not 405"
    );

    // Flood one tenant with async submissions: the per-tenant depth bound
    // (1) must answer 429 once a job is queued behind the busy worker.
    let mut saw_tenant_limit = false;
    for i in 0..64 {
        let body = serde_json::to_string(&ra_wire("flood", 2000 + i)).unwrap();
        let response = client.request("POST", "/v1/jobs", Some(&body));
        match response.status {
            202 => continue,
            429 => {
                assert_eq!(
                    as_str(field(&response.json(), "error")),
                    "tenant_over_limit"
                );
                saw_tenant_limit = true;
                break;
            }
            other => panic!("unexpected status {other}: {}", response.body),
        }
    }
    assert!(saw_tenant_limit, "per-tenant admission must surface as 429");

    // Distinct tenants exhaust the tiny global bound → 503 queue_full.
    let mut saw_queue_full = false;
    for i in 0..64 {
        let body = serde_json::to_string(&ra_wire(&format!("t{i}"), 3000 + i)).unwrap();
        let response = client.request("POST", "/v1/jobs", Some(&body));
        match response.status {
            202 | 429 => continue,
            503 => {
                assert_eq!(as_str(field(&response.json(), "error")), "queue_full");
                saw_queue_full = true;
                break;
            }
            other => panic!("unexpected status {other}: {}", response.body),
        }
    }
    assert!(saw_queue_full, "global queue-full must surface as 503");
    drop(client);
    gateway.shutdown();
}

/// Keep-alive and pipelining at the socket level: several requests written
/// in one burst come back as in-order responses on the same connection.
#[test]
fn keep_alive_pipelining_over_one_socket() {
    let (_service, gateway) = start_gateway(ServiceConfig::default(), GatewayConfig::default());
    let mut client = Client::connect(gateway.local_addr());
    client.send_raw(
        "GET /healthz HTTP/1.1\r\n\r\nGET /v1/metrics HTTP/1.1\r\n\r\nGET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n",
    );
    let first = client.read_response().expect("first");
    assert_eq!(first.status, 200);
    assert_eq!(as_str(field(&first.json(), "status")), "healthy");
    let second = client.read_response().expect("second");
    assert_eq!(second.status, 200);
    assert!(second.body.contains("cache_hits"));
    let third = client.read_response().expect("third");
    assert_eq!(third.status, 200);
    assert!(
        client.read_response().is_none(),
        "Connection: close ends the stream"
    );
    gateway.shutdown();
}

/// Malformed input over a real socket: a 400 comes back, the connection
/// closes, and the server keeps serving fresh connections.
#[test]
fn malformed_requests_answer_400_and_the_server_survives() {
    let (_service, gateway) = start_gateway(ServiceConfig::default(), GatewayConfig::default());
    let addr = gateway.local_addr();
    let mut client = Client::connect(addr);
    client.send_raw("THIS IS NOT HTTP\r\n\r\n");
    let response = client.read_response().expect("error response");
    assert_eq!(response.status, 400);
    assert!(
        client.read_response().is_none(),
        "connection closes after a parse error"
    );
    // Fresh connections still work.
    let health = one_shot(addr, "GET", "/healthz", None);
    assert_eq!(health.status, 200);
    gateway.shutdown();
}

/// Drain semantics: a draining service answers health with `draining:
/// true`, refuses new submissions with 503, and gateway shutdown completes
/// with a client connection open.
#[test]
fn drain_rejects_submissions_and_shutdown_completes() {
    let (service, gateway) = start_gateway(
        ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        },
        GatewayConfig {
            keep_alive_timeout: Duration::from_millis(200),
            ..GatewayConfig::default()
        },
    );
    let addr = gateway.local_addr();
    let mut client = Client::connect(addr);
    let health = client.request("GET", "/healthz", None);
    assert_eq!(health.status, 200);
    assert_eq!(as_str(field(&health.json(), "status")), "healthy");
    assert!(matches!(
        field(&health.json(), "draining"),
        Value::Bool(false)
    ));

    service.begin_drain();
    let health = client.request("GET", "/healthz", None);
    assert_eq!(health.status, 503, "probes take a draining node out");
    assert_eq!(as_str(field(&health.json(), "status")), "draining");
    assert!(matches!(
        field(&health.json(), "draining"),
        Value::Bool(true)
    ));
    let refused = client.request(
        "POST",
        "/v1/jobs",
        Some(&serde_json::to_string(&ra_wire("acme", 90)).unwrap()),
    );
    assert_eq!(refused.status, 503);
    assert_eq!(as_str(field(&refused.json(), "error")), "draining");

    // Shutdown with the keep-alive client still connected: bounded by the
    // idle timeout, not hung.
    gateway.shutdown();
    // The gateway is gone: either the connect is refused or the socket
    // yields no response.
    match TcpStream::connect(addr) {
        Err(_) => {}
        Ok(mut stream) => {
            stream
                .set_read_timeout(Some(Duration::from_millis(500)))
                .unwrap();
            let _ = stream.write_all(b"GET /healthz HTTP/1.1\r\n\r\n");
            let mut buf = [0u8; 1];
            let got = stream.read(&mut buf);
            assert!(
                matches!(got, Ok(0) | Err(_)),
                "no live server behind the address"
            );
        }
    }
}

/// Fire-and-forget async submissions must not grow the job registry
/// without bound: past the retention cap the oldest entries are reaped
/// (resolved if answered, dropped otherwise) while the newest stay
/// pollable.
#[test]
fn unpolled_async_jobs_are_bounded_not_leaked() {
    let (_service, gateway) = start_gateway(
        ServiceConfig {
            workers: 2,
            ..ServiceConfig::default()
        },
        GatewayConfig {
            max_completed_jobs: 4,
            ..GatewayConfig::default()
        },
    );
    let mut client = Client::connect(gateway.local_addr());
    let mut ids = Vec::new();
    for budget in 0..12u64 {
        let body = serde_json::to_string(&ra_wire("acme", 100 + budget)).unwrap();
        let response = client.request("POST", "/v1/jobs", Some(&body));
        assert_eq!(response.status, 202, "{}", response.body);
        ids.push(as_u64(field(&response.json(), "job_id")));
    }
    // The newest 4 submissions fit the cap and are still tracked; polling
    // them to completion fills the bounded retained set...
    for &id in &ids[8..12] {
        loop {
            let polled = client.request("GET", &format!("/v1/jobs/{id}"), None);
            assert_eq!(polled.status, 200, "job {id}: {}", polled.body);
            match as_str(field(&polled.json(), "status")) {
                "pending" => std::thread::yield_now(),
                "done" => break,
                other => panic!("job {id} ended as {other}"),
            }
        }
    }
    // ...which leaves no room for the oldest submission: it was either
    // dropped while still pending at reap time, or resolved early and then
    // FIFO-evicted by the four newer outcomes. Either way the registry
    // stayed bounded and the oldest id no longer resolves.
    let oldest = client.request("GET", &format!("/v1/jobs/{}", ids[0]), None);
    assert_eq!(oldest.status, 404, "oldest unpolled job must be evicted");
    let newest = client.request("GET", &format!("/v1/jobs/{}", ids[11]), None);
    assert_eq!(newest.status, 200, "{}", newest.body);
    drop(client);
    gateway.shutdown();
}

/// A client trickling bytes slower than the request deadline must not hold
/// its connection open forever: the reactor's timer closes it once the
/// whole-request deadline passes, even though each fragment arrives inside
/// the keep-alive timeout, and counts it as a timeout, not a parse reject.
#[test]
fn trickled_requests_hit_the_request_deadline() {
    let (_service, gateway) = start_gateway(
        ServiceConfig::default(),
        GatewayConfig {
            keep_alive_timeout: Duration::from_millis(400),
            request_deadline: Duration::from_millis(600),
            ..GatewayConfig::default()
        },
    );
    let addr = gateway.local_addr();
    let mut trickler = Client::connect(addr);
    let started = std::time::Instant::now();
    // One header fragment per 150 ms, each inside the 400 ms keep-alive
    // timeout: only the 600 ms request deadline, armed at the first byte,
    // can stop this.
    trickler.send_raw("GET /healthz HTTP/1.1\r\n");
    let mut closed = false;
    for fragment in 0..40 {
        std::thread::sleep(Duration::from_millis(150));
        if trickler
            .stream
            .write_all(format!("X-Drip-{fragment}: v\r\n").as_bytes())
            .is_err()
        {
            closed = true;
            break;
        }
        // A closed connection may only surface on the next read.
        let mut buf = [0u8; 256];
        match trickler.stream.read(&mut buf) {
            Ok(0) => {
                closed = true;
                break;
            }
            _ => continue,
        }
    }
    assert!(closed, "trickled request must be cut off");
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "cut-off must come from the deadline, not the 6s of drip"
    );
    // The reactor still serves a well-behaved client, and its timer, not
    // the parser, ended the trickler.
    let mut client = Client::connect(addr);
    let health = client.request("GET", "/healthz", None);
    assert_eq!(health.status, 200);
    let metrics = client.request("GET", "/v1/metrics?format=prometheus", None);
    assert_eq!(metrics.status, 200);
    assert_eq!(
        prom_value(
            &metrics.body,
            "crowdtune_gateway_connections_timed_out_total",
            ""
        ),
        Some(1)
    );
    assert_no_parse_rejects(&metrics.body);
    gateway.shutdown();
}

/// Every `crowdtune_gateway_parse_rejects_total` class reads 0.
fn assert_no_parse_rejects(exposition: &str) {
    for class in [
        "malformed",
        "headers_too_large",
        "body_too_large",
        "unsupported",
    ] {
        assert_eq!(
            prom_value(
                exposition,
                "crowdtune_gateway_parse_rejects_total",
                &format!("class=\"{class}\"")
            ),
            Some(0),
            "parse rejects, class {class}"
        );
    }
}

/// A client that sends part of a request and then shuts down its write
/// half gets no answer: the reactor drops the torn request and closes
/// without writing a byte, counts no parse reject, and keeps serving.
#[test]
fn torn_requests_close_without_an_answer() {
    let (_service, gateway) = start_gateway(ServiceConfig::default(), GatewayConfig::default());
    let addr = gateway.local_addr();
    let mut client = Client::connect(addr);
    client.send_raw("POST /v1/jobs HTTP/1.1\r\nContent-Length: 100\r\n\r\n{");
    client.stream.shutdown(Shutdown::Write).unwrap();
    let mut answer = Vec::new();
    client
        .reader
        .read_to_end(&mut answer)
        .expect("the gateway closes the connection");
    assert!(
        answer.is_empty(),
        "torn request answered: {:?}",
        String::from_utf8_lossy(&answer)
    );
    let metrics = one_shot(addr, "GET", "/v1/metrics?format=prometheus", None);
    assert_eq!(metrics.status, 200);
    assert_no_parse_rejects(&metrics.body);
    gateway.shutdown();
}

/// The families a scrape taken after job traffic must carry: job stages,
/// reuse layers, the router, the gateway's transport, spans and logs.
const REQUIRED_FAMILIES: [&str; 20] = [
    "crowdtune_jobs_submitted_total",
    "crowdtune_jobs_answered_total",
    "crowdtune_job_total_seconds",
    "crowdtune_job_queue_wait_seconds",
    "crowdtune_job_solve_seconds",
    "crowdtune_job_estimate_seconds",
    "crowdtune_router_split_total",
    "crowdtune_family_hits_total",
    "crowdtune_family_builds_total",
    "crowdtune_family_extensions_total",
    "crowdtune_family_reloads_total",
    "crowdtune_gateway_requests_total",
    "crowdtune_gateway_request_seconds",
    "crowdtune_gateway_bytes_in_total",
    "crowdtune_gateway_parse_rejects_total",
    "crowdtune_gateway_connections_timed_out_total",
    "crowdtune_spans_started_total",
    "crowdtune_spans_sampled_total",
    "crowdtune_spans_dropped_total",
    "crowdtune_log_records_total",
];

/// A sample's labels in file order.
type Labels<'a> = Vec<(&'a str, &'a str)>;

/// Parses a sample's `k="v",...` label text (a trailing comma is allowed,
/// `\"` escapes a quote); `None` when it does not parse.
fn parse_labels(mut rest: &str) -> Option<Labels<'_>> {
    let mut labels = Vec::new();
    while !rest.is_empty() {
        let name_end = rest
            .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
            .unwrap_or(rest.len());
        let name = &rest[..name_end];
        if name.is_empty() || name.starts_with(|c: char| c.is_ascii_digit()) {
            return None;
        }
        let quoted = rest[name_end..].strip_prefix("=\"")?;
        let mut escaped = false;
        let value_end = quoted.char_indices().find_map(|(i, c)| {
            let closes = c == '"' && !escaped;
            escaped = c == '\\' && !escaped;
            closes.then_some(i)
        })?;
        labels.push((name, &quoted[..value_end]));
        rest = &quoted[value_end + 1..];
        match rest.strip_prefix(',') {
            Some(after) => rest = after,
            None if rest.is_empty() => {}
            None => return None,
        }
    }
    Some(labels)
}

/// Splits a sample line into name, label text and value; `None` unless it
/// reads `name value` or `name{labels} value`, one space before the value.
fn split_sample(line: &str) -> Option<(&str, &str, &str)> {
    let (series, value) = line.rsplit_once(' ')?;
    let name_end = series
        .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_' || c == ':'))
        .unwrap_or(series.len());
    let (name, braced) = series.split_at(name_end);
    let labels = match braced {
        "" => "",
        _ => braced.strip_prefix('{')?.strip_suffix('}')?,
    };
    let name_ok = name.starts_with(|c: char| !c.is_ascii_digit());
    (name_ok && !value.is_empty()).then_some((name, labels, value))
}

/// Every Prometheus text-format (v0.0.4) violation in `text`, plus each
/// `required` family it lacks; empty when a scraper can trust it. Sample
/// lines parse as `name{labels} value`; each family has one `# TYPE` (a
/// known type) and one `# HELP`, is typed before its first sample, and
/// keeps its samples together; no sample repeats; counters are finite and
/// non-negative; and each histogram child (its labels but `le`) has bucket
/// counts that never fall as `le` grows, a `le="+Inf"` bucket equal to its
/// `_count`, and a `_sum`.
fn exposition_errors(text: &str, required: &[&str]) -> Vec<String> {
    let mut errors = Vec::new();
    let mut types: HashMap<&str, &str> = HashMap::new();
    let mut helps: HashSet<&str> = HashSet::new();
    // Families whose samples ended because another family's began.
    let mut closed: HashSet<&str> = HashSet::new();
    let mut samples: HashMap<(&str, Labels<'_>), f64> = HashMap::new();
    let mut sample_order: Vec<(&str, Labels<'_>)> = Vec::new();
    let mut last_family: Option<&str> = None;
    for (index, line) in text.lines().enumerate() {
        let at = format!("line {}", index + 1);
        if line.trim().is_empty() {
            continue;
        }
        if line.starts_with("# TYPE ") {
            let [_, _, name, kind] = line.split(' ').collect::<Vec<_>>()[..] else {
                errors.push(format!("{at}: malformed TYPE line {line:?}"));
                continue;
            };
            if types.contains_key(name) {
                errors.push(format!("{at}: duplicate TYPE for family {name}"));
            }
            if closed.contains(name) {
                errors.push(format!("{at}: family {name} split across the file"));
            }
            if !["counter", "gauge", "histogram", "summary", "untyped"].contains(&kind) {
                errors.push(format!("{at}: invalid type {kind:?} for {name}"));
            }
            types.insert(name, kind);
            continue;
        }
        if line.starts_with("# HELP ") {
            let [_, _, name, _] = line.splitn(4, ' ').collect::<Vec<_>>()[..] else {
                errors.push(format!("{at}: malformed HELP line {line:?}"));
                continue;
            };
            if !helps.insert(name) {
                errors.push(format!("{at}: duplicate HELP for family {name}"));
            }
            continue;
        }
        if line.starts_with('#') {
            continue;
        }
        let Some((name, labels, value)) = split_sample(line) else {
            errors.push(format!("{at}: unparseable sample line {line:?}"));
            continue;
        };
        let Some(labels) = parse_labels(labels) else {
            errors.push(format!("{at}: unparseable label set {line:?}"));
            continue;
        };
        let Ok(value) = value.parse::<f64>() else {
            errors.push(format!("{at}: non-numeric value {line:?}"));
            continue;
        };
        let family = ["_bucket", "_sum", "_count"]
            .iter()
            .filter_map(|suffix| name.strip_suffix(suffix))
            .find(|stem| types.get(stem) == Some(&"histogram"))
            .unwrap_or(name);
        if !types.contains_key(family) {
            errors.push(format!("{at}: sample {name} has no preceding TYPE line"));
        }
        match last_family.replace(family) {
            Some(last) if last != family => {
                closed.insert(last);
                if closed.contains(family) {
                    errors.push(format!("{at}: family {family} split across the file"));
                }
            }
            _ => {}
        }
        if types.get(family) == Some(&"counter") && (value < 0.0 || !value.is_finite()) {
            errors.push(format!("{at}: counter {name} has invalid value {value}"));
        }
        if samples.insert((name, labels.clone()), value).is_some() {
            errors.push(format!("{at}: duplicate sample {name}{labels:?}"));
        } else {
            sample_order.push((name, labels));
        }
    }

    for (&family, _) in types.iter().filter(|(_, &kind)| kind == "histogram") {
        let bucket = format!("{family}_bucket");
        // Child (every label but `le`) → its (le, count) buckets.
        let mut children: HashMap<Labels<'_>, Vec<(&str, f64)>> = HashMap::new();
        for key @ (_, labels) in sample_order.iter().filter(|(name, _)| *name == bucket) {
            let Some(&(_, le)) = labels.iter().find(|(label, _)| *label == "le") else {
                errors.push(format!("{family}: bucket sample without an le label"));
                continue;
            };
            let child = labels.iter().filter(|(label, _)| *label != "le").copied();
            children
                .entry(child.collect())
                .or_default()
                .push((le, samples[key]));
        }
        for (child, buckets) in children {
            let at = format!("{family}{child:?}");
            let mut bounds: Vec<(f64, f64)> = Vec::new();
            let mut inf = None;
            for (le, count) in buckets {
                if le == "+Inf" {
                    inf = Some(count);
                } else if let Ok(bound) = le.parse::<f64>() {
                    bounds.push((bound, count));
                } else {
                    errors.push(format!("{at}: bad le {le:?}"));
                }
            }
            let Some(inf) = inf else {
                errors.push(format!("{at}: no le=\"+Inf\" bucket"));
                continue;
            };
            bounds.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut last = 0.0;
            for &(bound, count) in &bounds {
                if count < last {
                    errors.push(format!(
                        "{at}: bucket le={bound} count {count} fell from {last}"
                    ));
                }
                last = count;
            }
            if let Some((bound, count)) = bounds.last().filter(|(_, count)| inf < *count) {
                errors.push(format!(
                    "{at}: +Inf bucket {inf} below le={bound} count {count}"
                ));
            }
            let count_name = format!("{family}_count");
            match samples.get(&(count_name.as_str(), child.clone())) {
                None => errors.push(format!("{at}: missing _count")),
                Some(&count) if count != inf => {
                    errors.push(format!("{at}: le=\"+Inf\" bucket {inf} != _count {count}"))
                }
                Some(_) => {}
            }
            let sum_name = format!("{family}_sum");
            if !samples.contains_key(&(sum_name.as_str(), child)) {
                errors.push(format!("{at}: missing _sum"));
            }
        }
    }

    for name in required {
        if !types.contains_key(name) {
            errors.push(format!("required family {name} is absent"));
        }
    }
    errors
}

/// The exposition check rejects each way a hand-broken exposition can
/// mislead a scraper, and accepts the well-formed text they are cut from.
#[test]
fn exposition_check_rejects_broken_expositions() {
    const VALID: &str = "\
# HELP jobs_total Jobs answered.
# TYPE jobs_total counter
jobs_total{source=\"cache\"} 3
jobs_total{source=\"cold\"} 1
# HELP wait_seconds Queue wait.
# TYPE wait_seconds histogram
wait_seconds_bucket{stage=\"queue\",le=\"0.001\"} 1
wait_seconds_bucket{stage=\"queue\",le=\"0.01\"} 3
wait_seconds_bucket{stage=\"queue\",le=\"+Inf\"} 4
wait_seconds_sum{stage=\"queue\"} 0.02
wait_seconds_count{stage=\"queue\"} 4
# HELP open Connections open.
# TYPE open gauge
open 2
";
    const REQUIRED: [&str; 3] = ["jobs_total", "wait_seconds", "open"];
    let errors = exposition_errors(VALID, &REQUIRED);
    assert!(errors.is_empty(), "{errors:#?}");

    // (cut from the valid text, put in its place, the one error it causes)
    let broken = [
        (
            "# TYPE open gauge\n",
            "# TYPE open gauge\n# TYPE open gauge\n",
            "duplicate TYPE for family open",
        ),
        (
            "# TYPE open gauge\nopen 2",
            "open 2\n# TYPE open gauge",
            "sample open has no preceding TYPE",
        ),
        (
            "open 2\n",
            "open 2\njobs_total{source=\"family\"} 1\n",
            "family jobs_total split across the file",
        ),
        (
            "le=\"0.01\"} 3",
            "le=\"0.01\"} 0",
            "bucket le=0.01 count 0 fell from 1",
        ),
        (
            "le=\"+Inf\"} 4",
            "le=\"+Inf\"} 5",
            "le=\"+Inf\" bucket 5 != _count 4",
        ),
        (
            "wait_seconds_sum{stage=\"queue\"} 0.02\n",
            "",
            "missing _sum",
        ),
        (
            "jobs_total{source=\"cold\"} 1",
            "jobs_total{source=\"cold\"} -1",
            "counter jobs_total has invalid value -1",
        ),
        (
            "# HELP open Connections open.\n# TYPE open gauge\nopen 2\n",
            "",
            "required family open is absent",
        ),
    ];
    for (from, to, expected) in broken {
        assert!(VALID.contains(from), "{from:?} is not in the valid text");
        let text = VALID.replacen(from, to, 1);
        let errors = exposition_errors(&text, &REQUIRED);
        assert!(
            errors.len() == 1 && errors[0].contains(expected),
            "want only {expected:?}, got {errors:#?} for\n{text}"
        );
    }
}

/// Pulls the value of `name{labels}` out of a Prometheus text exposition.
fn prom_value(text: &str, name: &str, labels: &str) -> Option<u64> {
    let needle = if labels.is_empty() {
        name.to_owned()
    } else {
        format!("{name}{{{labels}}}")
    };
    text.lines().find_map(|line| {
        let (metric, value) = line.rsplit_once(' ')?;
        (metric == needle).then(|| value.parse().ok())?
    })
}

/// The observability surface over real sockets: `/v1/metrics` negotiates
/// JSON (back-compat default) vs the Prometheus text exposition, the
/// exposition carries the gateway's own transport metrics, and
/// `/v1/debug/slowest` returns the kept job traces stage by stage (every
/// trace is head-sampled here, so all three submits are listed).
#[test]
fn observability_endpoints_over_http() {
    let (_service, gateway) = start_gateway(
        ServiceConfig {
            workers: 2,
            obs: ObsLevel::Traces(TracerConfig {
                head_sample_every: 1,
                ..TracerConfig::default()
            }),
            ..ServiceConfig::default()
        },
        GatewayConfig::default(),
    );
    let addr = gateway.local_addr();
    let mut client = Client::connect(addr);
    for budget in [120, 120, 90] {
        let body = serde_json::to_string(&ra_wire("acme", budget)).unwrap();
        let response = client.request("POST", "/v1/jobs?wait=1", Some(&body));
        assert_eq!(response.status, 200, "{}", response.body);
    }

    // Default: the JSON snapshot, exactly as before the exposition existed.
    let json_metrics = client.request("GET", "/v1/metrics", None);
    assert_eq!(json_metrics.status, 200);
    assert_eq!(json_metrics.content_type, "application/json");
    assert_eq!(as_u64(field(&json_metrics.json(), "submitted")), 3);

    // `?format=prometheus` switches to the text exposition.
    let prom = client.request("GET", "/v1/metrics?format=prometheus", None);
    assert_eq!(prom.status, 200);
    assert_eq!(prom.content_type, "text/plain; version=0.0.4");
    assert!(prom.body.starts_with("# HELP"), "{}", prom.body);
    let text = &prom.body;
    assert_eq!(
        prom_value(text, "crowdtune_jobs_submitted_total", ""),
        Some(3)
    );
    // The gateway's own transport metrics ride the same scrape.
    assert_eq!(
        prom_value(
            text,
            "crowdtune_gateway_requests_total",
            "endpoint=\"post_jobs\",class=\"2xx\""
        ),
        Some(3)
    );
    assert!(
        prom_value(
            text,
            "crowdtune_gateway_request_seconds_count",
            "endpoint=\"post_jobs\""
        ) == Some(3)
    );
    assert!(prom_value(text, "crowdtune_gateway_connections_accepted_total", "") >= Some(1));
    assert!(prom_value(text, "crowdtune_gateway_bytes_in_total", "") > Some(0));
    assert!(prom_value(text, "crowdtune_gateway_bytes_out_total", "") > Some(0));

    // `Accept: text/plain` negotiates the exposition too; an explicit
    // `format` outranks the header.
    let via_accept = client.request_with("GET", "/v1/metrics", &[("Accept", "text/plain")], None);
    assert_eq!(via_accept.content_type, "text/plain; version=0.0.4");
    let forced_json = client.request_with(
        "GET",
        "/v1/metrics?format=json",
        &[("Accept", "text/plain")],
        None,
    );
    assert_eq!(forced_json.content_type, "application/json");

    // Parse rejects are classed: a malformed request (separate socket — the
    // gateway closes it) bumps the malformed counter.
    let mut broken = Client::connect(addr);
    broken.send_raw("THIS IS NOT HTTP\r\n\r\n");
    assert_eq!(broken.read_response().expect("error response").status, 400);
    drop(broken);
    let text = client
        .request("GET", "/v1/metrics?format=prometheus", None)
        .body;
    assert!(
        prom_value(
            &text,
            "crowdtune_gateway_parse_rejects_total",
            "class=\"malformed\""
        ) >= Some(1),
        "{text}"
    );

    // The slowest-trace list: traces fold in after the response is sent,
    // so poll briefly for all three.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    let slowest = loop {
        let response = client.request("GET", "/v1/debug/slowest", None);
        assert_eq!(response.status, 200);
        assert_eq!(response.content_type, "application/json");
        let json = response.json();
        let Value::Arr(traces) = field(&json, "traces") else {
            panic!("traces is not an array: {}", response.body);
        };
        if traces.len() >= 3 {
            break traces.clone();
        }
        assert!(
            std::time::Instant::now() < deadline,
            "slowest list never filled: {}",
            response.body
        );
        std::thread::yield_now();
    };
    let mut last_total = f64::INFINITY;
    for trace in &slowest {
        assert_eq!(as_str(field(trace, "tenant")), "acme");
        assert!(!as_str(field(trace, "scenario")).is_empty());
        assert!(matches!(
            as_str(field(trace, "source")),
            "cache" | "family" | "cold"
        ));
        let total = match field(trace, "total_seconds") {
            Value::F64(v) => *v,
            Value::I64(v) => *v as f64,
            Value::U64(v) => *v as f64,
            other => panic!("total_seconds is {other:?}"),
        };
        assert!(total <= last_total, "slowest list not sorted slowest-first");
        assert!(total >= 0.0);
        last_total = total;
    }

    // The debug route participates in the 405 contract.
    assert_eq!(
        client.request("POST", "/v1/debug/slowest", None).status,
        405
    );
    drop(client);
    gateway.shutdown();
}

/// The metrics endpoint exposes every counter surface — including
/// `store.dropped`, the write-behind backpressure loss, which must
/// increment under a forced-full (capacity-1) writer queue.
#[test]
fn metrics_expose_store_backpressure_drops() {
    let dir = scratch_dir("metrics-dropped");
    let service = Arc::new(
        TuningService::recover_with(
            ServiceConfig {
                workers: 2,
                ..ServiceConfig::default()
            },
            &dir,
            StoreOptions {
                queue_capacity: 1,
                fsync: FsyncPolicy::Off,
                ..StoreOptions::default()
            },
        )
        .expect("open durable service"),
    );
    let gateway = Gateway::start(service.clone(), "127.0.0.1:0", GatewayConfig::default())
        .expect("bind gateway");
    let addr = gateway.local_addr();
    let mut client = Client::connect(addr);

    // Distinct budgets force distinct cold solves; every completion enqueues
    // a plan record plus journal records into the capacity-1 queue, so the
    // producer overruns the writer almost immediately.
    let mut dropped = 0;
    for budget in 0..500u64 {
        let body = serde_json::to_string(&ra_wire("acme", 200 + budget)).unwrap();
        let response = client.request("POST", "/v1/jobs?wait=1", Some(&body));
        assert_eq!(response.status, 200, "{}", response.body);
        dropped = service.store_stats().expect("store attached").dropped;
        if dropped > 0 {
            break;
        }
    }
    assert!(dropped > 0, "capacity-1 queue must shed records");

    let metrics = client.request("GET", "/v1/metrics", None);
    assert_eq!(metrics.status, 200);
    let json = metrics.json();
    let store = field(&json, "store");
    assert!(
        as_u64(field(store, "dropped")) >= dropped,
        "metrics must expose the dropped counter: {}",
        metrics.body
    );
    assert!(as_u64(field(store, "enqueued")) > 0);
    assert!(as_u64(field(&json, "submitted")) > 0);
    assert!(as_u64(field(&json, "cold_solves")) > 0);
    drop(client);
    gateway.shutdown();
    drop(service);
    let _ = std::fs::remove_dir_all(&dir);
}
