//! End-to-end coverage of the v1 API contract added with the event-driven
//! gateway: API-key authentication (401/403 and the legacy body-tenant
//! fallback), per-tenant token-bucket quotas (429 + `Retry-After`, distinct
//! from queue-depth admission), the result lifecycle (idempotent `DELETE`,
//! TTL expiry, retention counters), and the reactor's headline property —
//! thousands of idle keep-alive connections held open without starving a
//! fresh submit.

use crowdtune_core::rate::{LinearRate, RateModel, RateSpec};
use crowdtune_core::task::TaskGroupSpec;
use crowdtune_core::tuner::{StrategyChoice, Tuner};
use crowdtune_gateway::{AuthConfig, Gateway, GatewayConfig, JobRequestWire, QuotaConfig};
use crowdtune_serve::{AdmissionPolicy, JobRequest, ServiceConfig, TuningService};
use serde::Value;
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// One parsed HTTP response, including the `Retry-After` header when the
/// server sent one.
struct HttpResponse {
    status: u16,
    retry_after: Option<u64>,
    traceparent: Option<String>,
    body: String,
}

impl HttpResponse {
    fn json(&self) -> Value {
        serde_json::parse_value_str(&self.body)
            .unwrap_or_else(|e| panic!("body is not JSON ({e}): {}", self.body))
    }

    fn error_code(&self) -> String {
        as_str(field(&self.json(), "error")).to_owned()
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
        let text = request_text(method, target, headers, body);
        self.stream.write_all(text.as_bytes()).expect("send");
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
        let mut retry_after = None;
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
                    content_length = value.trim().parse().expect("content length");
                } else if name.eq_ignore_ascii_case("retry-after") {
                    retry_after = Some(value.trim().parse().expect("retry-after seconds"));
                } else if name.eq_ignore_ascii_case("traceparent") {
                    traceparent = Some(value.trim().to_owned());
                }
            }
        }
        let mut body = vec![0u8; content_length];
        self.reader.read_exact(&mut body).expect("body");
        Some(HttpResponse {
            status,
            retry_after,
            traceparent,
            body: String::from_utf8(body).expect("utf-8 body"),
        })
    }
}

/// The bytes of one HTTP/1.1 request.
fn request_text(
    method: &str,
    target: &str,
    headers: &[(&str, &str)],
    body: Option<&str>,
) -> String {
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
    text
}

fn ra_wire(tenant: &str, budget: u64) -> JobRequestWire {
    JobRequestWire {
        tenant: tenant.to_owned(),
        market: None,
        groups: vec![TaskGroupSpec {
            name: "vote".to_owned(),
            processing_rate: 2.0,
            tasks: 4,
            repetitions: 3,
        }],
        budget,
        rate: RateSpec::Linear(LinearRate::new(1.5, 0.5).unwrap()),
        strategy: StrategyChoice::Auto,
    }
}

fn wire_body(tenant: &str, budget: u64) -> String {
    serde_json::to_string(&ra_wire(tenant, budget)).unwrap()
}

fn start_gateway(config: GatewayConfig) -> (Arc<TuningService>, Gateway) {
    let service = Arc::new(TuningService::start(ServiceConfig {
        workers: 2,
        ..ServiceConfig::default()
    }));
    let gateway = Gateway::start(service.clone(), "127.0.0.1:0", config).expect("bind gateway");
    (service, gateway)
}

fn field<'v>(value: &'v Value, name: &str) -> &'v Value {
    value.field(name).unwrap_or_else(|e| panic!("{e}"))
}

fn as_str(value: &Value) -> &str {
    match value {
        Value::Str(s) => s.as_str(),
        other => panic!("expected string, got {other:?}"),
    }
}

fn as_u64(value: &Value) -> u64 {
    match value {
        Value::I64(v) => u64::try_from(*v).expect("non-negative"),
        Value::U64(v) => *v,
        other => panic!("expected integer, got {other:?}"),
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

fn scrape(client: &mut Client) -> String {
    let response = client.request("GET", "/v1/metrics?format=prometheus", None);
    assert_eq!(response.status, 200);
    response.body
}

/// Polls `GET /v1/jobs/{id}` until the job reports `done`.
fn poll_done(client: &mut Client, job_id: u64) {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let polled = client.request("GET", &format!("/v1/jobs/{job_id}"), None);
        assert_eq!(polled.status, 200, "job {job_id}: {}", polled.body);
        match as_str(field(&polled.json(), "status")) {
            "pending" => {
                assert!(Instant::now() < deadline, "job {job_id} never completed");
                std::thread::yield_now();
            }
            "done" => return,
            other => panic!("job {job_id} ended as {other}"),
        }
    }
}

/// With `allow_body_tenant` off, every submit must present a key the
/// gateway knows: keyless and unknown-key submits are 401, a key vouching
/// for a different tenant than the body names is 403, and the tenant that
/// runs is always the key's — whether the body repeats it or leaves the
/// field empty. Both header spellings work, and the rejects land in the
/// scrape by reason.
#[test]
fn auth_contract_enforced_when_body_tenant_disallowed() {
    let mut keys = HashMap::new();
    keys.insert("sk-acme".to_owned(), "acme".to_owned());
    keys.insert("sk-beta".to_owned(), "beta".to_owned());
    let (_service, gateway) = start_gateway(GatewayConfig {
        auth: AuthConfig {
            keys,
            allow_body_tenant: false,
        },
        ..GatewayConfig::default()
    });
    let mut client = Client::connect(gateway.local_addr());
    let body = wire_body("acme", 40);

    // No credential at all: 401, even though the body names a tenant.
    let keyless = client.request("POST", "/v1/jobs", Some(&body));
    assert_eq!(keyless.status, 401, "{}", keyless.body);
    assert_eq!(keyless.error_code(), "unauthenticated");

    // A key the gateway has never heard of: 401.
    let unknown = client.request_with(
        "POST",
        "/v1/jobs",
        &[("Authorization", "Bearer sk-nope")],
        Some(&body),
    );
    assert_eq!(unknown.status, 401);
    assert_eq!(unknown.error_code(), "unauthenticated");

    // An Authorization scheme we don't speak must not silently fall
    // through to the legacy body-tenant path.
    let basic = client.request_with(
        "POST",
        "/v1/jobs",
        &[("Authorization", "Basic dXNlcjpwdw==")],
        Some(&body),
    );
    assert_eq!(basic.status, 401);

    // A valid key whose tenant contradicts the body: 403.
    let mismatch = client.request_with(
        "POST",
        "/v1/jobs?wait=1",
        &[("Authorization", "Bearer sk-beta")],
        Some(&body),
    );
    assert_eq!(mismatch.status, 403, "{}", mismatch.body);
    assert_eq!(mismatch.error_code(), "tenant_mismatch");

    // The happy paths: Bearer with a matching body tenant, Bearer with an
    // empty body tenant (the key alone names the principal), and the
    // X-Api-Key spelling.
    let matching = client.request_with(
        "POST",
        "/v1/jobs?wait=1",
        &[("Authorization", "Bearer sk-acme")],
        Some(&body),
    );
    assert_eq!(matching.status, 200, "{}", matching.body);

    let tenantless = client.request_with(
        "POST",
        "/v1/jobs?wait=1",
        &[("Authorization", "bearer sk-acme")],
        Some(&wire_body("", 41)),
    );
    assert_eq!(tenantless.status, 200, "{}", tenantless.body);

    let api_key = client.request_with(
        "POST",
        "/v1/jobs?wait=1",
        &[("X-Api-Key", "sk-beta")],
        Some(&wire_body("beta", 42)),
    );
    assert_eq!(api_key.status, 200, "{}", api_key.body);

    // The scrape accounts for every reject, by reason.
    let text = scrape(&mut client);
    assert_eq!(
        prom_value(
            &text,
            "crowdtune_gateway_auth_rejects_total",
            "reason=\"unauthenticated\""
        ),
        Some(3),
        "{text}"
    );
    assert_eq!(
        prom_value(
            &text,
            "crowdtune_gateway_auth_rejects_total",
            "reason=\"tenant_mismatch\""
        ),
        Some(1)
    );
    drop(client);
    gateway.shutdown();
}

/// A configured key no request could present fails start-up: presented
/// credentials are trimmed, so a whitespace-padded key could never match,
/// and an empty key would otherwise vouch for every request in an
/// unrecognized `Authorization` scheme. The error names the tenant, never
/// the key.
#[test]
fn start_refuses_empty_or_whitespace_padded_keys() {
    let service = Arc::new(TuningService::start(ServiceConfig {
        workers: 1,
        ..ServiceConfig::default()
    }));
    for key in ["", " sk-acme "] {
        let config = GatewayConfig {
            auth: AuthConfig {
                keys: HashMap::from([(key.to_owned(), "acme".to_owned())]),
                allow_body_tenant: false,
            },
            ..GatewayConfig::default()
        };
        let error = Gateway::start(service.clone(), "127.0.0.1:0", config)
            .err()
            .unwrap_or_else(|| panic!("started with configured key {key:?}"));
        assert_eq!(error.kind(), std::io::ErrorKind::InvalidInput, "{key:?}");
        let message = error.to_string();
        assert!(message.contains("\"acme\""), "{message}");
        assert!(!message.contains("sk-acme"), "{message}");
    }
}

/// The default config keeps the pre-auth wire contract: keyless submits
/// run under the body's self-declared tenant. But presenting a key still
/// means opting in to authentication — an unknown key is refused, never
/// silently downgraded to the legacy path.
#[test]
fn legacy_body_tenant_works_until_a_key_is_presented() {
    let (_service, gateway) = start_gateway(GatewayConfig::default());
    let mut client = Client::connect(gateway.local_addr());

    let legacy = client.request("POST", "/v1/jobs?wait=1", Some(&wire_body("acme", 50)));
    assert_eq!(legacy.status, 200, "{}", legacy.body);

    let with_key = client.request_with(
        "POST",
        "/v1/jobs?wait=1",
        &[("Authorization", "Bearer sk-unknown")],
        Some(&wire_body("acme", 51)),
    );
    assert_eq!(with_key.status, 401, "{}", with_key.body);
    assert_eq!(with_key.error_code(), "unauthenticated");

    // A keyless submit with no tenant at all is still a 422 (invalid job),
    // exactly as before auth existed.
    let tenantless = client.request("POST", "/v1/jobs", Some(&wire_body("", 52)));
    assert_eq!(tenantless.status, 422, "{}", tenantless.body);
    drop(client);
    gateway.shutdown();
}

/// The token-bucket quota: a tenant may spend its burst, then gets 429
/// `quota_exceeded` with a `Retry-After` header — a different refusal than
/// the queue-depth `tenant_over_limit` — while other tenants are
/// unaffected. Rejects land in the scrape.
#[test]
fn quota_answers_429_with_retry_after() {
    let (_service, gateway) = start_gateway(GatewayConfig {
        quota: Some(QuotaConfig {
            requests_per_sec: 0.2,
            burst: 2.0,
        }),
        ..GatewayConfig::default()
    });
    let mut client = Client::connect(gateway.local_addr());

    // The burst of 2 is spendable immediately...
    for budget in [60, 61] {
        let ok = client.request("POST", "/v1/jobs", Some(&wire_body("metered", budget)));
        assert_eq!(ok.status, 202, "{}", ok.body);
    }
    // ...and the third submit is over quota: at 0.2 tokens/s the next token
    // is ~5s out, and the refusal says so in the header and the body.
    let over = client.request("POST", "/v1/jobs", Some(&wire_body("metered", 62)));
    assert_eq!(over.status, 429, "{}", over.body);
    assert_eq!(over.error_code(), "quota_exceeded");
    let retry_after = over.retry_after.expect("429 carries Retry-After");
    assert!(
        (1..=6).contains(&retry_after),
        "Retry-After {retry_after} should be ~5s"
    );

    // The bucket is per-tenant: someone else still gets through.
    let other = client.request("POST", "/v1/jobs", Some(&wire_body("unmetered", 63)));
    assert_eq!(other.status, 202, "{}", other.body);

    let text = scrape(&mut client);
    assert_eq!(
        prom_value(&text, "crowdtune_gateway_quota_rejects_total", ""),
        Some(1),
        "{text}"
    );
    drop(client);
    gateway.shutdown();
}

/// The result lifecycle: `DELETE /v1/jobs/{id}` releases a retained result
/// (204 the time it existed, 404 ever after, and the id stops resolving),
/// and a configured TTL expires unfetched results on its own. Both paths
/// are visible in the scrape: `jobs_deleted_total`, `jobs_expired_total`,
/// and the `jobs_retained` gauge.
#[test]
fn delete_is_idempotent_and_ttl_expires_results() {
    let (_service, gateway) = start_gateway(GatewayConfig {
        result_ttl: Some(Duration::from_millis(250)),
        ..GatewayConfig::default()
    });
    let mut client = Client::connect(gateway.local_addr());

    // Job one: complete it, then delete it.
    let submitted = client.request("POST", "/v1/jobs", Some(&wire_body("acme", 70)));
    assert_eq!(submitted.status, 202, "{}", submitted.body);
    let job_id = as_u64(field(&submitted.json(), "job_id"));
    poll_done(&mut client, job_id);

    let target = format!("/v1/jobs/{job_id}");
    let deleted = client.request("DELETE", &target, None);
    assert_eq!(deleted.status, 204, "{}", deleted.body);
    let again = client.request("DELETE", &target, None);
    assert_eq!(
        again.status, 404,
        "DELETE is idempotent: second call is 404"
    );
    assert_eq!(client.request("GET", &target, None).status, 404);

    // Job two: complete it, let the TTL lapse, and watch it vanish.
    let submitted = client.request("POST", "/v1/jobs", Some(&wire_body("acme", 71)));
    assert_eq!(submitted.status, 202);
    let expiring_id = as_u64(field(&submitted.json(), "job_id"));
    poll_done(&mut client, expiring_id);
    std::thread::sleep(Duration::from_millis(400));
    let expired = client.request("GET", &format!("/v1/jobs/{expiring_id}"), None);
    assert_eq!(expired.status, 404, "{}", expired.body);

    let text = scrape(&mut client);
    assert_eq!(
        prom_value(&text, "crowdtune_gateway_jobs_deleted_total", ""),
        Some(1),
        "{text}"
    );
    assert!(
        prom_value(&text, "crowdtune_gateway_jobs_expired_total", "") >= Some(1),
        "{text}"
    );
    assert_eq!(
        prom_value(&text, "crowdtune_gateway_jobs_retained", ""),
        Some(0),
        "nothing should remain retained: {text}"
    );
    drop(client);
    gateway.shutdown();
}

/// Reads this process's soft open-files limit, the binding constraint on
/// how many sockets the herd test may hold (each held connection costs two
/// descriptors here — client and server ends live in the same process).
fn open_files_limit() -> usize {
    let limits = std::fs::read_to_string("/proc/self/limits").unwrap_or_default();
    limits
        .lines()
        .find(|line| line.starts_with("Max open files"))
        .and_then(|line| line.split_whitespace().nth(3))
        .and_then(|soft| soft.parse().ok())
        .unwrap_or(1024)
}

/// The reactor's headline property: thousands of idle keep-alive
/// connections parked on the event loop cost no threads and no service
/// capacity — a fresh connection's synchronous submit still completes
/// promptly, the herd stays live, and the `connections_open` gauge reports
/// the crowd.
#[test]
fn idle_keep_alive_herd_does_not_starve_fresh_submits() {
    let (_service, gateway) = start_gateway(GatewayConfig {
        // The herd must outlive the test, not the idle reaper.
        keep_alive_timeout: Duration::from_secs(120),
        max_connections: 16_384,
        ..GatewayConfig::default()
    });
    let addr = gateway.local_addr();

    // Size the herd to the fd budget: two descriptors per held connection,
    // plus slack for the harness itself.
    let herd_size = (open_files_limit().saturating_sub(128) / 2).min(3000);
    assert!(
        herd_size >= 200,
        "fd limit too low to exercise the reactor meaningfully"
    );
    let mut herd = Vec::with_capacity(herd_size);
    for _ in 0..herd_size {
        herd.push(TcpStream::connect(addr).expect("connect herd member"));
    }

    // Every member is accepted and registered: the open-connections gauge
    // reaches the herd (+1 for the scraping client itself).
    let mut observer = Client::connect(addr);
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let text = scrape(&mut observer);
        let open = prom_value(&text, "crowdtune_gateway_connections_open", "").unwrap_or(0);
        if open >= herd_size as u64 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "only {open}/{herd_size} connections registered"
        );
        std::thread::sleep(Duration::from_millis(20));
    }

    // A fresh connection's synchronous submit is not starved by the herd.
    let started = Instant::now();
    let mut fresh = Client::connect(addr);
    let response = fresh.request("POST", "/v1/jobs?wait=1", Some(&wire_body("acme", 80)));
    assert_eq!(response.status, 200, "{}", response.body);
    assert_eq!(as_str(field(&response.json(), "status")), "done");
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "submit took {:?} with {herd_size} idle connections parked",
        started.elapsed()
    );

    // The herd is still live: a member picked from the middle can speak.
    let mid = herd.swap_remove(herd_size / 2);
    mid.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let mut member = Client {
        reader: BufReader::new(mid.try_clone().unwrap()),
        stream: mid,
    };
    let health = member.request("GET", "/healthz", None);
    assert_eq!(health.status, 200, "{}", health.body);

    drop(member);
    drop(fresh);
    drop(observer);
    drop(herd);
    gateway.shutdown();
}

/// The tentpole acceptance path over a real socket: a submit carrying a
/// sampled W3C `traceparent` joins the caller's trace, the response echoes
/// a `traceparent` naming the gateway's root span under the same trace id,
/// and `GET /v1/debug/traces/{trace_id}` serves a span tree covering the
/// gateway stages and the job's whole serve-side life — parse, dispatch,
/// queue wait, solve, store persist. The summary listing filters by tenant,
/// and a malformed `traceparent` is counted and replaced, not trusted.
#[test]
fn traceparent_joins_submit_and_span_tree_is_queryable() {
    // A durable store so the tree includes the persist stage.
    let dir = std::env::temp_dir().join(format!("crowdtune-v1api-trace-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let service = Arc::new(
        TuningService::recover(
            ServiceConfig {
                workers: 2,
                ..ServiceConfig::default()
            },
            dir.join("store"),
        )
        .expect("open durable store"),
    );
    let gateway = Gateway::start(service.clone(), "127.0.0.1:0", GatewayConfig::default())
        .expect("bind gateway");
    let mut client = Client::connect(gateway.local_addr());

    let trace_id = "af7651916cd43dd8448eb211c80319c7";
    let sent = format!("00-{trace_id}-00f067aa0ba902b7-01");
    let response = client.request_with(
        "POST",
        "/v1/jobs?wait=1",
        &[("traceparent", sent.as_str())],
        Some(&wire_body("acme", 80)),
    );
    assert_eq!(response.status, 200, "{}", response.body);
    let echoed = response.traceparent.expect("response echoes traceparent");
    assert!(
        echoed.starts_with(&format!("00-{trace_id}-")),
        "echo keeps the caller's trace id: {echoed}"
    );
    assert!(
        !echoed.contains("00f067aa0ba902b7"),
        "echo names the gateway's root span, not the caller's parent: {echoed}"
    );

    // The trace flushes asynchronously when its last handle drops (after
    // store persist) — poll the tree endpoint briefly.
    let deadline = Instant::now() + Duration::from_secs(10);
    let tree = loop {
        let got = client.request("GET", &format!("/v1/debug/traces/{trace_id}"), None);
        if got.status == 200 {
            break got.json();
        }
        assert!(
            Instant::now() < deadline,
            "trace {trace_id} never reached the span store: {}",
            got.body
        );
        std::thread::yield_now();
    };
    assert_eq!(as_str(field(field(&tree, "trace"), "trace_id")), trace_id);
    assert_eq!(as_str(field(field(&tree, "trace"), "tenant")), "acme");
    assert_eq!(as_str(field(field(&tree, "trace"), "status")), "ok");
    assert_spans(
        &tree,
        &[
            "http.request",
            "gateway.parse",
            "gateway.auth",
            "gateway.dispatch",
            "job",
            "queue.wait",
            "solve",
            "store.persist",
        ],
    );

    // The summary listing finds the trace by tenant and misses on others.
    let listed = client.request("GET", "/v1/debug/traces?tenant=acme", None);
    assert_eq!(listed.status, 200);
    let body = listed.json();
    let traces = match field(&body, "traces") {
        Value::Arr(traces) => traces,
        other => panic!("traces is not an array: {other:?}"),
    };
    assert!(traces
        .iter()
        .any(|t| as_str(field(t, "trace_id")) == trace_id));
    let missed = client.request("GET", "/v1/debug/traces?tenant=nobody", None);
    let missed_body = missed.json();
    match field(&missed_body, "traces") {
        Value::Arr(traces) => assert!(traces.is_empty(), "{:?}", missed.body),
        other => panic!("traces is not an array: {other:?}"),
    }

    // A malformed traceparent is ignored (fresh ids minted) and counted.
    let response = client.request_with(
        "POST",
        "/v1/jobs?wait=1",
        &[("traceparent", "garbage-header")],
        Some(&wire_body("acme", 80)),
    );
    assert_eq!(response.status, 200, "{}", response.body);
    let minted = response.traceparent.expect("fresh traceparent minted");
    assert!(!minted.contains(trace_id), "minted ids are fresh: {minted}");
    let text = scrape(&mut client);
    assert_eq!(
        prom_value(&text, "crowdtune_gateway_traceparent_invalid_total", ""),
        Some(1)
    );

    gateway.shutdown();
    drop(service);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Gateway rejects are visible in the structured log ring: a keyless submit
/// against a key-only gateway answers 401 and leaves a warn-level record at
/// `GET /v1/debug/logs`, while a bad `level` filter is a 400.
#[test]
fn auth_rejects_leave_warn_records_in_the_log_ring() {
    let mut keys = HashMap::new();
    keys.insert("secret-key".to_owned(), "acme".to_owned());
    let (_service, gateway) = start_gateway(GatewayConfig {
        auth: AuthConfig {
            keys,
            allow_body_tenant: false,
        },
        ..GatewayConfig::default()
    });
    let mut client = Client::connect(gateway.local_addr());

    let refused = client.request("POST", "/v1/jobs", Some(&wire_body("acme", 80)));
    assert_eq!(refused.status, 401, "{}", refused.body);

    let logs = client.request("GET", "/v1/debug/logs?level=warn", None);
    assert_eq!(logs.status, 200, "{}", logs.body);
    let body = logs.json();
    let records = match field(&body, "records") {
        Value::Arr(records) => records,
        other => panic!("records is not an array: {other:?}"),
    };
    assert!(
        records.iter().any(|record| {
            as_str(field(record, "target")) == "gateway" && as_str(field(record, "level")) == "warn"
        }),
        "no gateway warn record in {}",
        logs.body
    );

    let bad = client.request("GET", "/v1/debug/logs?level=loud", None);
    assert_eq!(bad.status, 400, "{}", bad.body);
    assert_eq!(bad.error_code(), "bad_request");

    gateway.shutdown();
}

/// Exact cache hits are answered in the reactor turn that parsed them, and
/// pipelining still keeps request order around them: two `?wait=1` submits
/// in one write — a hit then a miss, then a miss then a hit — answer `200`
/// in order, each with the plan an independent solve of its own request
/// gives. A hit's outcome stays pollable at `GET /v1/jobs/{id}` with the
/// same body, and a plain submit of a cached job still answers `202` and
/// then resolves to `done`.
#[test]
fn pipelined_cache_hits_and_misses_answer_in_order() {
    let (_service, gateway) = start_gateway(GatewayConfig::default());
    let mut client = Client::connect(gateway.local_addr());
    let warm = client.request("POST", "/v1/jobs?wait=1", Some(&wire_body("acme", 80)));
    assert_eq!(warm.status, 200, "{}", warm.body);
    assert_eq!(as_str(field(&warm.json(), "source")), "cold");

    let mut hits = Vec::new();
    for pair in [[80, 81], [82, 80]] {
        let write: String = pair
            .iter()
            .map(|&budget| {
                request_text(
                    "POST",
                    "/v1/jobs?wait=1",
                    &[],
                    Some(&wire_body("acme", budget)),
                )
            })
            .collect();
        client.stream.write_all(write.as_bytes()).expect("send");
        for budget in pair {
            let response = client.read_response().expect("pipelined response");
            assert_eq!(response.status, 200, "budget {budget}: {}", response.body);
            let json = response.json();
            let source = as_str(field(&json, "source"));
            assert_eq!(
                source == "cache",
                budget == 80,
                "budget {budget} answered from {source}"
            );
            assert_eq!(
                serde_json::to_string(field(&json, "plan")).unwrap(),
                reference_plan(budget),
                "budget {budget} got another request's plan"
            );
            if budget == 80 {
                hits.push((as_u64(field(&json, "job_id")), response.body));
            }
        }
    }
    for (job_id, body) in hits {
        let polled = client.request("GET", &format!("/v1/jobs/{job_id}"), None);
        assert_eq!(polled.status, 200);
        assert_eq!(polled.body, body, "GET serves the hit's retained body");
    }

    let submitted = client.request("POST", "/v1/jobs", Some(&wire_body("acme", 80)));
    assert_eq!(submitted.status, 202, "{}", submitted.body);
    let job_id = as_u64(field(&submitted.json(), "job_id"));
    poll_done(&mut client, job_id);
    let polled = client.request("GET", &format!("/v1/jobs/{job_id}"), None);
    assert_eq!(as_str(field(&polled.json(), "source")), "cache");
    gateway.shutdown();
}

/// The plan an independent solve of `ra_wire(_, budget)` gives, as JSON.
fn reference_plan(budget: u64) -> String {
    let job = ra_wire("reference", budget).to_request(1_000_000).unwrap();
    let plan = Tuner::new(job.rate_model)
        .with_strategy(job.strategy)
        .plan(job.task_set, job.budget)
        .unwrap();
    serde_json::to_string(&plan).unwrap()
}

/// The spans of a `GET /v1/debug/traces/{id}` body.
fn tree_spans(tree: &Value) -> &[Value] {
    match field(tree, "spans") {
        Value::Arr(spans) => spans,
        other => panic!("spans is not an array: {other:?}"),
    }
}

/// Asserts that a `GET /v1/debug/traces/{id}` body holds a span of each
/// of `expected`'s names.
fn assert_spans(tree: &Value, expected: &[&str]) {
    let names: Vec<&str> = tree_spans(tree)
        .iter()
        .map(|span| as_str(field(span, "name")))
        .collect();
    for name in expected {
        assert!(names.contains(name), "no {name} span in {names:?}");
    }
}

/// The value of attribute `key` on a span of a `GET /v1/debug/traces/{id}`
/// body.
fn span_attr<'v>(span: &'v Value, key: &str) -> Option<&'v str> {
    match field(span, "attrs") {
        Value::Arr(attrs) => attrs
            .iter()
            .find(|attr| as_str(field(attr, "key")) == key)
            .map(|attr| as_str(field(attr, "value"))),
        other => panic!("attrs is not an array: {other:?}"),
    }
}

/// A cache hit under a live request trace. The hit is answered, and its
/// trace completes, in the reactor turn that parsed it: a sampled trace is
/// queryable as soon as the response arrives, with the gateway stages and
/// the job's `job` (source `cache`), `queue.wait` and `solve` spans. An
/// unsampled one is never stored, and all 7 of its spans count as dropped.
#[test]
fn traced_cache_hits_complete_before_their_response() {
    let (_service, gateway) = start_gateway(GatewayConfig::default());
    let mut client = Client::connect(gateway.local_addr());
    let warm = client.request("POST", "/v1/jobs?wait=1", Some(&wire_body("acme", 80)));
    assert_eq!(warm.status, 200, "{}", warm.body);

    let sampled = "4bf92f3577b34da6a3ce929d0e0e4736";
    let traceparent = format!("00-{sampled}-00f067aa0ba902b7-01");
    let hit = client.request_with(
        "POST",
        "/v1/jobs?wait=1",
        &[("traceparent", traceparent.as_str())],
        Some(&wire_body("acme", 80)),
    );
    assert_eq!(hit.status, 200, "{}", hit.body);
    assert_eq!(as_str(field(&hit.json(), "source")), "cache");
    let tree = client.request("GET", &format!("/v1/debug/traces/{sampled}"), None);
    assert_eq!(tree.status, 200, "trace not stored yet: {}", tree.body);
    let tree = tree.json();
    assert_spans(
        &tree,
        &[
            "http.request",
            "gateway.parse",
            "gateway.auth",
            "gateway.dispatch",
            "job",
            "queue.wait",
            "solve",
        ],
    );
    let job = tree_spans(&tree)
        .iter()
        .find(|span| as_str(field(span, "name")) == "job")
        .unwrap();
    assert_eq!(span_attr(job, "source"), Some("cache"));

    let dropped = |client: &mut Client| {
        prom_value(&scrape(client), "crowdtune_spans_dropped_total", "")
            .expect("dropped-span counter exported")
    };
    let dropped_before = dropped(&mut client);
    let unsampled = "0af7651916cd43dd8448eb211c80319c";
    let traceparent = format!("00-{unsampled}-b7ad6b7169203331-00");
    let hit = client.request_with(
        "POST",
        "/v1/jobs?wait=1",
        &[("traceparent", traceparent.as_str())],
        Some(&wire_body("acme", 80)),
    );
    assert_eq!(hit.status, 200, "{}", hit.body);
    assert_eq!(as_str(field(&hit.json(), "source")), "cache");
    let missing = client.request("GET", &format!("/v1/debug/traces/{unsampled}"), None);
    assert_eq!(missing.status, 404, "{}", missing.body);
    assert_eq!(
        dropped(&mut client) - dropped_before,
        7,
        "http.request, gateway.{{parse,auth,dispatch}}, job, queue.wait, solve"
    );
    gateway.shutdown();
}

/// Open/closed gate for [`ParkingRate`].
#[derive(Default)]
struct Gate {
    /// (a worker is parked at the gate, the gate is open)
    state: Mutex<(bool, bool)>,
    changed: Condvar,
}

impl Gate {
    fn wait_parked(&self) {
        let state = self.state.lock().unwrap();
        let (state, timeout) = self
            .changed
            .wait_timeout_while(state, Duration::from_secs(10), |(parked, _)| !*parked)
            .unwrap();
        assert!(state.0 && !timeout.timed_out(), "no worker parked");
    }

    fn open(&self) {
        self.state.lock().unwrap().1 = true;
        self.changed.notify_all();
    }
}

/// Opens its gate when dropped, so a test that panics cannot leave a
/// worker parked and block the service's shutdown.
struct OpenOnDrop(Arc<Gate>);

impl Drop for OpenOnDrop {
    fn drop(&mut self) {
        self.0.open();
    }
}

/// `ra_wire`'s rate model, except that a tuner worker solving with it
/// parks at the gate until the gate opens. Only `tuner-worker-*` threads
/// park: the submit-time cache probe runs on the submitting thread.
struct ParkingRate {
    gate: Arc<Gate>,
    rate: LinearRate,
}

impl RateModel for ParkingRate {
    fn on_hold_rate(&self, payment_units: f64) -> f64 {
        let thread = std::thread::current();
        if thread
            .name()
            .is_some_and(|name| name.starts_with("tuner-worker-"))
        {
            let mut state = self.gate.state.lock().unwrap();
            state.0 = true;
            self.gate.changed.notify_all();
            while !state.1 {
                state = self.gate.changed.wait(state).unwrap();
            }
        }
        self.rate.on_hold_rate(payment_units)
    }

    fn curve_fingerprint(&self) -> u64 {
        0x7061_726b_696e_6721
    }
}

/// A submit the queue refuses must not wake the reactor for the job
/// pipelined behind it. The one worker is parked, tenant `blocked` already
/// has its one queued job, and two `?wait=1` submits arrive in one write:
/// `blocked` answers `429`, and `free` waits for its plan and answers `200`
/// rather than a premature `503 shutdown`.
#[test]
fn refused_submit_leaves_the_pipelined_job_behind_it_pending() {
    let service = Arc::new(TuningService::start(ServiceConfig {
        workers: 1,
        admission: AdmissionPolicy {
            max_pending: 16,
            max_pending_per_tenant: 1,
        },
        ..ServiceConfig::default()
    }));
    let gateway = Gateway::start(service.clone(), "127.0.0.1:0", GatewayConfig::default())
        .expect("bind gateway");
    let gate = Arc::new(Gate::default());
    let _release = OpenOnDrop(gate.clone());
    let parked = service
        .submit(JobRequest {
            rate_model: Arc::new(ParkingRate {
                gate: gate.clone(),
                rate: LinearRate::new(1.5, 0.5).unwrap(),
            }),
            ..ra_wire("parked", 80).to_request(1_000_000).unwrap()
        })
        .expect("parked job admitted");
    gate.wait_parked();
    let queued = service
        .submit(ra_wire("blocked", 81).to_request(1_000_000).unwrap())
        .expect("tenant blocked's one job admitted");

    let mut client = Client::connect(gateway.local_addr());
    let write: String = [("blocked", 82), ("free", 83)]
        .iter()
        .map(|&(tenant, budget)| {
            request_text(
                "POST",
                "/v1/jobs?wait=1",
                &[],
                Some(&wire_body(tenant, budget)),
            )
        })
        .collect();
    client.stream.write_all(write.as_bytes()).expect("send");
    let refused = client.read_response().expect("blocked's response");
    // Release the worker, so `free`'s job runs after the two ahead of it.
    gate.open();
    let answered = client.read_response().expect("free's response");
    assert_eq!(refused.status, 429, "{}", refused.body);
    assert_eq!(refused.error_code(), "tenant_over_limit");
    assert_eq!(answered.status, 200, "{}", answered.body);
    assert_eq!(
        serde_json::to_string(field(&answered.json(), "plan")).unwrap(),
        reference_plan(83)
    );
    assert!(parked.wait().is_ok());
    assert!(queued.wait().is_ok());
    gateway.shutdown();
}

/// Every `crowdtune_gateway_requests_total{endpoint,class}` series of a
/// scrape, by its label set.
fn request_series(text: &str) -> HashMap<String, u64> {
    text.lines()
        .filter_map(|line| {
            let labels = line.strip_prefix("crowdtune_gateway_requests_total{")?;
            let (labels, value) = labels.split_once("} ")?;
            Some((labels.to_owned(), value.parse().ok()?))
        })
        .collect()
}

/// The route table, pinned row by row over a real socket: every route (one
/// with a query string), each known path under a wrong method, non-numeric
/// job ids, a bad trace id and unknown paths. Each row checks the status,
/// the `error` code (`-` for none) and the one
/// `crowdtune_gateway_requests_total` series the request moved. `{id}`
/// stands for a job submitted before the table runs.
#[test]
fn route_table_pins_status_error_code_and_endpoint_label() {
    // method, target, status, `error` code, `endpoint` label
    const ROWS: [&str; 33] = [
        "POST /v1/jobs 202 - post_jobs",
        "POST /v1/jobs?wait=1 200 - post_jobs",
        "GET /v1/jobs/{id} 200 - get_job",
        "GET /v1/metrics 200 - get_metrics",
        "GET /healthz 200 - get_healthz",
        "GET /v1/debug/slowest 200 - get_debug_slowest",
        "GET /v1/debug/traces 200 - get_debug_traces",
        "GET /v1/debug/traces/4bf92f3577b34da6a3ce929d0e0e4736 404 not_found get_debug_traces",
        "GET /v1/debug/logs 200 - get_debug_logs",
        "DELETE /v1/jobs/{id} 204 - delete_job",
        // The deleted job's id still parses: the label is the route's.
        "GET /v1/jobs/{id} 404 not_found get_job",
        "DELETE /v1/jobs/{id} 404 not_found delete_job",
        // Known paths, wrong methods.
        "GET /v1/jobs 405 method_not_allowed other",
        "PUT /v1/jobs 405 method_not_allowed other",
        "POST /v1/jobs/{id} 405 method_not_allowed other",
        "PUT /v1/jobs/zz 405 method_not_allowed other",
        "POST /v1/metrics 405 method_not_allowed other",
        "DELETE /healthz 405 method_not_allowed other",
        "POST /v1/debug/slowest 405 method_not_allowed other",
        "POST /v1/debug/traces 405 method_not_allowed other",
        "DELETE /v1/debug/traces/zz 405 method_not_allowed other",
        "POST /v1/debug/logs 405 method_not_allowed other",
        // Non-numeric job ids: 404 under `other`.
        "GET /v1/jobs/zz 404 not_found other",
        "DELETE /v1/jobs/zz 404 not_found other",
        "GET /v1/jobs/ 404 not_found other",
        "GET /v1/jobs/-1 404 not_found other",
        // A bad trace id stays under its route's label.
        "GET /v1/debug/traces/zz 404 not_found get_debug_traces",
        "GET /v1/debug/traces/ 404 not_found get_debug_traces",
        // Unknown paths, whatever the method.
        "GET /nope 404 not_found other",
        "POST /v1/jobsx 404 not_found other",
        "GET /v1/metrics/ 404 not_found other",
        "GET /healthz/x 404 not_found other",
        "GET /v1/debug 404 not_found other",
    ];
    let (_service, gateway) = start_gateway(GatewayConfig::default());
    let mut client = Client::connect(gateway.local_addr());
    let body = wire_body("acme", 90);
    let submitted = client.request("POST", "/v1/jobs?wait=1", Some(&body));
    assert_eq!(submitted.status, 200, "{}", submitted.body);
    let job_id = as_u64(field(&submitted.json(), "job_id")).to_string();

    let mut before = request_series(&scrape(&mut client));
    for row in ROWS {
        let [method, target, status, error, endpoint] = row.split(' ').collect::<Vec<_>>()[..]
        else {
            panic!("malformed row {row:?}")
        };
        let status: u16 = status.parse().expect("row status");
        let target = target.replace("{id}", &job_id);
        let sent = (method == "POST").then_some(body.as_str());
        let response = client.request(method, &target, sent);
        let row = format!("{method} {target}");
        assert_eq!(response.status, status, "{row}: {}", response.body);
        // A job body carries `"error": null`; a 204 carries no body.
        let code = match response.body.is_empty() {
            true => "-".to_owned(),
            false => match response.json().field("error") {
                Ok(Value::Str(code)) => code.clone(),
                _ => "-".to_owned(),
            },
        };
        assert_eq!(code, error, "{row}: {}", response.body);

        // The scrape that follows sees this request and the previous
        // scrape, which counts under `get_metrics` once it has answered.
        let after = request_series(&scrape(&mut client));
        let mut moved: Vec<(String, u64)> = after
            .iter()
            .map(|(labels, &n)| (labels.clone(), n - before.get(labels).copied().unwrap_or(0)))
            .filter(|&(_, delta)| delta > 0)
            .collect();
        moved.sort();
        let class = format!("{}xx", status / 100);
        let series = format!("endpoint=\"{endpoint}\",class=\"{class}\"");
        let scrape_series = "endpoint=\"get_metrics\",class=\"2xx\"".to_owned();
        let mut expected = vec![(series.clone(), 1), (scrape_series.clone(), 1)];
        if series == scrape_series {
            expected = vec![(series, 2)];
        }
        expected.sort();
        assert_eq!(moved, expected, "{row}");
        before = after;
    }
    gateway.shutdown();
}

/// The connection cap: with `max_connections: 2` and two keep-alive
/// clients held, a third connection is answered `503 overloaded` with
/// `Connection: close` and counted as shed; once a held client leaves, a
/// fresh connection is served again.
#[test]
fn connection_cap_sheds_503_and_frees_a_slot_on_close() {
    let (_service, gateway) = start_gateway(GatewayConfig {
        max_connections: 2,
        ..GatewayConfig::default()
    });
    let addr = gateway.local_addr();
    let mut held = [Client::connect(addr), Client::connect(addr)];
    for client in &mut held {
        let health = client.request("GET", "/healthz", None);
        assert_eq!(health.status, 200, "{}", health.body);
    }

    let mut third = TcpStream::connect(addr).expect("connect third client");
    third
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut shed = String::new();
    third.read_to_string(&mut shed).expect("read until close");
    assert!(shed.starts_with("HTTP/1.1 503 "), "{shed}");
    assert!(shed.contains("\"error\":\"overloaded\""), "{shed}");
    assert!(
        shed.lines()
            .any(|line| line.eq_ignore_ascii_case("connection: close")),
        "{shed}"
    );
    let [first, mut second] = held;
    assert_eq!(
        prom_value(
            &scrape(&mut second),
            "crowdtune_gateway_connections_shed_total",
            ""
        ),
        Some(1)
    );

    // Wait until the gateway has seen the first client leave: only the
    // scraping client is then open.
    drop(first);
    let deadline = Instant::now() + Duration::from_secs(10);
    while prom_value(
        &scrape(&mut second),
        "crowdtune_gateway_connections_open",
        "",
    ) != Some(1)
    {
        assert!(Instant::now() < deadline, "the closed client stayed open");
        std::thread::yield_now();
    }
    let mut fresh = Client::connect(addr);
    let health = fresh.request("GET", "/healthz", None);
    assert_eq!(health.status, 200, "{}", health.body);
    drop(fresh);
    drop(second);
    gateway.shutdown();
}
