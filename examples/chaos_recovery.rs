//! Chaos-recovery smoke: the fault-tolerance layer end to end.
//!
//! A durable `TuningService` (with the chaos write-fault layer installed but
//! disarmed) serves a mixed EA/RA/HA workload while faults are injected one
//! at a time:
//!
//! 1. **Baseline** — every served plan must be bit-identical to a fault-free
//!    reference service, `/healthz` answers 200 `healthy`.
//! 2. **Store outage** (`fail_all`) — jobs keep being served bit-identically
//!    while the write path exhausts its retries; health must transition to
//!    `degraded` with reason `store-writes-failing` (200 at `/healthz`), and
//!    must flip back to `healthy` automatically after `heal`.
//! 3. **Disk full** (`StorageFull` errors) — same degrade/heal cycle.
//! 4. **Worker panic** (armed `ChaosRate`) — the poisoned job fails with the
//!    typed `WorkerPanic`; the worker thread survives (no restart) and the
//!    re-submitted job solves bit-identically. The panicked job runs under
//!    an explicit *unsampled* caller trace context, and its span tree must
//!    be error-tail-sampled and queryable over the gateway socket at
//!    `GET /v1/debug/traces/{trace_id}`.
//! 5. **Worker death** (`WorkerDeath` marker) — the observer gets
//!    `WorkerLost`, the supervisor respawns the thread, health returns to
//!    `healthy` once the pool is whole.
//! 6. **Restart recovery** — after a planned stop, `recover` must re-serve
//!    the whole warm set bit-identically with zero cold solves and zero
//!    replayed jobs (the panicked job was retired by its `Failed` journal
//!    record, not left to replay forever).
//! 7. **Poison-job quarantine** — a crafted journal whose pending job has
//!    exhausted its replay attempts must be quarantined (terminal `Failed`),
//!    and the following recovery must see an empty journal (no unretired
//!    growth).
//! 8. **Drain** — `/healthz` answers 503 `draining`.
//!
//! Exits non-zero on any violation. `CROWDTUNE_BENCH_QUICK=1` trims the
//! workload (CI smoke mode).

use crowdtune_chaos::{ChaosRate, ChaosWriteFault, WriteFault};
use crowdtune_core::money::Budget;
use crowdtune_core::rate::{LinearRate, RateModel, RateSpec};
use crowdtune_core::task::TaskSet;
use crowdtune_core::tuner::StrategyChoice;
use crowdtune_gateway::{Gateway, GatewayConfig};
use crowdtune_obs::{SpanId, TraceContext, TraceId};
use crowdtune_serve::{
    HealthState, JobRequest, JournalRecord, MarketId, PlanSource, PlanStore, ServeError,
    ServiceConfig, StoreOptions, TuningService, JOB_ROOT, REPLAY_ATTEMPT_LIMIT,
};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn quick_mode() -> bool {
    std::env::var("CROWDTUNE_BENCH_QUICK").is_ok_and(|v| v == "1" || v.eq_ignore_ascii_case("true"))
}

fn ra_set() -> TaskSet {
    let mut set = TaskSet::new();
    let ty = set.add_type("vote", 2.0).unwrap();
    set.add_tasks(ty, 3, 10).unwrap();
    set.add_tasks(ty, 5, 10).unwrap();
    set
}

fn ha_set() -> TaskSet {
    let mut set = TaskSet::new();
    let easy = set.add_type("easy", 3.0).unwrap();
    let hard = set.add_type("hard", 1.0).unwrap();
    set.add_tasks(easy, 3, 4).unwrap();
    set.add_tasks(hard, 5, 4).unwrap();
    set
}

fn ea_set() -> TaskSet {
    let mut set = TaskSet::new();
    let ty = set.add_type("filter", 2.5).unwrap();
    set.add_tasks(ty, 3, 8).unwrap();
    set
}

fn request(set: TaskSet, budget: u64, model: Arc<dyn RateModel>) -> JobRequest {
    JobRequest {
        tenant: "chaos".to_owned(),
        market: MarketId::DEFAULT,
        task_set: set,
        budget: Budget::units(budget),
        rate_model: model,
        strategy: StrategyChoice::Auto,
    }
}

fn base_model() -> Arc<dyn RateModel> {
    Arc::new(LinearRate::new(1.5, 0.5).unwrap())
}

/// Inner curve of the panic-armed job — distinct from every other curve so
/// its plan/family keys never collide with healthy jobs.
fn panic_model() -> Arc<dyn RateModel> {
    Arc::new(LinearRate::new(1.25, 0.75).unwrap())
}

/// Inner curve of the worker-death job, distinct for the same reason.
fn death_model() -> Arc<dyn RateModel> {
    Arc::new(LinearRate::new(1.75, 0.25).unwrap())
}

/// The full catalogue of (label, request) pairs the smoke serves. Every one
/// of them is also served on a fault-free reference service first, and every
/// chaos-side answer must match that reference byte for byte.
fn catalogue(quick: bool) -> Vec<(&'static str, JobRequest)> {
    let mut jobs: Vec<(&'static str, JobRequest)> = vec![
        ("baseline ra 240", request(ra_set(), 240, base_model())),
        ("baseline ra 120", request(ra_set(), 120, base_model())),
        ("baseline ha 160", request(ha_set(), 160, base_model())),
        ("baseline ea 90", request(ea_set(), 90, base_model())),
        ("outage ra 300", request(ra_set(), 300, base_model())),
        ("outage ea 120", request(ea_set(), 120, base_model())),
        ("diskfull ra 520", request(ra_set(), 520, base_model())),
        ("heal probe ra 360", request(ra_set(), 360, base_model())),
        ("heal probe ra 440", request(ra_set(), 440, base_model())),
        ("panic retry ra 200", request(ra_set(), 200, panic_model())),
        ("death retry ra 220", request(ra_set(), 220, death_model())),
    ];
    if !quick {
        jobs.push(("baseline ra 400", request(ra_set(), 400, base_model())));
        jobs.push(("outage ra 180", request(ra_set(), 180, base_model())));
        jobs.push(("outage ha 200", request(ha_set(), 200, base_model())));
    }
    jobs
}

fn labelled(jobs: &[(&'static str, JobRequest)], prefix: &str) -> Vec<(String, JobRequest)> {
    jobs.iter()
        .filter(|(label, _)| label.starts_with(prefix))
        .map(|(label, request)| ((*label).to_owned(), request.clone()))
        .collect()
}

fn plan_bytes(plan: &crowdtune_core::tuner::TunedPlan) -> String {
    serde_json::to_string(plan).expect("plans serialize")
}

/// One-shot `GET` against the gateway (fresh connection per probe, the way a
/// load balancer's health check behaves).
fn http_get(addr: SocketAddr, path: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect to gateway");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    stream
        .write_all(
            format!("GET {path} HTTP/1.1\r\nHost: chaos\r\nConnection: close\r\n\r\n").as_bytes(),
        )
        .expect("send request");
    let mut reader = BufReader::new(stream);
    let mut status_line = String::new();
    reader.read_line(&mut status_line).expect("status line");
    let status: u16 = status_line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("bad status line {status_line:?}"));
    let mut content_length = 0usize;
    loop {
        let mut line = String::new();
        reader.read_line(&mut line).expect("header line");
        let line = line.trim_end();
        if line.is_empty() {
            break;
        }
        if let Some((name, value)) = line.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value.trim().parse().expect("content length");
            }
        }
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body).expect("body");
    (status, String::from_utf8(body).expect("utf-8 body"))
}

/// Serves `jobs` on the chaos service and asserts every answer is
/// bit-identical to the recorded fault-free reference.
fn serve_and_check(
    service: &TuningService,
    jobs: &[(String, JobRequest)],
    reference: &HashMap<String, String>,
    phase: &str,
) {
    for (label, job) in jobs {
        let served = service
            .tune(job.clone())
            .unwrap_or_else(|e| panic!("{phase}: {label} failed: {e}"));
        let bytes = plan_bytes(&served.plan);
        assert_eq!(
            &bytes, &reference[label],
            "{phase}: {label} diverged from the fault-free reference"
        );
        println!(
            "{phase:<12} {label:<22} -> bit-identical ({:?})",
            served.source
        );
    }
}

fn wait_for<F: Fn() -> bool>(what: &str, condition: F) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while !condition() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

fn is_degraded_by_store(service: &TuningService) -> bool {
    match service.health() {
        HealthState::Degraded { reasons } => {
            reasons.iter().any(|r| r.as_str() == "store-writes-failing")
        }
        _ => false,
    }
}

/// Arms a store fault, pushes a workload through it, and verifies the
/// degrade → heal health cycle (plans bit-identical throughout).
fn fault_cycle(
    service: &TuningService,
    fault: &ChaosWriteFault,
    arm: impl Fn(&ChaosWriteFault),
    jobs: &[(String, JobRequest)],
    heal_probe: &[(String, JobRequest)],
    reference: &HashMap<String, String>,
    phase: &str,
) {
    // Drain the write-behind queue first so records of *previous* phases
    // cannot be caught by this phase's fault (which would leave a journaled
    // job without its retirement record).
    service.flush_store();
    let injected_before = fault.injected();
    arm(fault);
    serve_and_check(service, jobs, reference, phase);
    wait_for(&format!("{phase}: degraded health"), || {
        is_degraded_by_store(service)
    });
    assert!(
        fault.injected() > injected_before,
        "{phase}: the fault never actually fired"
    );
    println!(
        "{phase:<12} health degraded (store-writes-failing) after {} injected faults",
        fault.injected() - injected_before
    );
    fault.heal();
    // A fresh record must flow through the healed path to flip health back.
    serve_and_check(service, heal_probe, reference, phase);
    wait_for(&format!("{phase}: healthy again"), || {
        service.health() == HealthState::Healthy
    });
    println!("{phase:<12} health back to healthy after heal");
}

fn main() {
    let quick = quick_mode();
    let dir = std::env::temp_dir().join(format!("crowdtune-chaos-smoke-{}", std::process::id()));
    let quarantine_dir = dir.join("quarantine");
    let _ = std::fs::remove_dir_all(&dir);
    let config = ServiceConfig {
        workers: 2,
        ..ServiceConfig::default()
    };
    let jobs = catalogue(quick);

    // ---- Fault-free reference: the answers every chaos phase must match. --
    let reference_service = TuningService::start(config);
    let mut reference: HashMap<String, String> = HashMap::new();
    for (label, job) in &jobs {
        let served = reference_service
            .tune(job.clone())
            .expect("reference serve");
        reference.insert((*label).to_owned(), plan_bytes(&served.plan));
    }
    reference_service.shutdown();
    println!(
        "reference    {} fault-free answers recorded",
        reference.len()
    );

    // ---- The chaos service: durable, fault layer installed (disarmed). ----
    let fault = Arc::new(ChaosWriteFault::new());
    let service = Arc::new(
        TuningService::recover_with(
            config,
            &dir,
            StoreOptions {
                write_fault: Some(fault.clone() as Arc<dyn WriteFault>),
                ..StoreOptions::default()
            },
        )
        .expect("open durable chaos service"),
    );
    let gateway = Gateway::start(service.clone(), "127.0.0.1:0", GatewayConfig::default())
        .expect("bind gateway");
    let addr = gateway.local_addr();

    // ---- Phase 1: baseline (fault installed but disarmed). ----
    serve_and_check(
        &service,
        &labelled(&jobs, "baseline"),
        &reference,
        "baseline",
    );
    assert_eq!(service.health(), HealthState::Healthy);
    let (status, body) = http_get(addr, "/healthz");
    assert_eq!(
        (status, body.contains("\"healthy\"")),
        (200, true),
        "{body}"
    );
    println!("baseline     /healthz 200 healthy");

    // ---- Phase 2: store outage (every append fails until healed). ----
    fault_cycle(
        &service,
        &fault,
        |f| f.fail_all(),
        &labelled(&jobs, "outage"),
        &labelled(&jobs, "heal probe ra 360"),
        &reference,
        "outage",
    );
    // While degraded the gateway keeps answering 200 (the node still serves
    // bit-correct plans) — verified via a second short outage window.
    service.flush_store();
    fault.fail_all();
    service
        .tune(request(ra_set(), 333, base_model()))
        .expect("serve during probe outage");
    wait_for("probe outage: degraded", || is_degraded_by_store(&service));
    let (status, body) = http_get(addr, "/healthz");
    assert_eq!(status, 200, "degraded still routes traffic: {body}");
    assert!(body.contains("\"degraded\""), "{body}");
    assert!(body.contains("store-writes-failing"), "{body}");
    println!("outage       /healthz 200 degraded [store-writes-failing]");
    fault.heal();
    service
        .tune(request(ra_set(), 334, base_model()))
        .expect("serve after heal");
    wait_for("probe outage: healthy", || {
        service.health() == HealthState::Healthy
    });

    // ---- Phase 3: disk full. ----
    fault_cycle(
        &service,
        &fault,
        |f| f.disk_full(),
        &labelled(&jobs, "diskfull"),
        &labelled(&jobs, "heal probe ra 440"),
        &reference,
        "diskfull",
    );

    // ---- Phase 4: worker panic is contained to its job. ----
    // The armed solves below panic *by design*; keep the default hook's
    // backtrace out of the smoke log for exactly those two injections.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let restarts_before = service.metrics().worker_restarts;
    let panic_rate = Arc::new(ChaosRate::new(panic_model()));
    panic_rate.arm_panic();
    // Submit under an explicit *unsampled* caller trace context: only the
    // error-tail sampler can keep this trace, and it must be queryable by
    // the caller's id afterwards.
    let panic_context = TraceContext {
        trace_id: TraceId(0xdead_beef_cafe),
        parent: SpanId(0x51),
        sampled: false,
    };
    let panic_trace = service
        .tracer()
        .map(|t| t.start_trace(JOB_ROOT, Some(panic_context)));
    let err = service
        .submit_observed(
            request(ra_set(), 200, panic_rate.clone()),
            None,
            panic_trace,
        )
        .expect("panic job admitted")
        .wait()
        .expect_err("armed panic must fail the job");
    std::panic::set_hook(default_hook);
    assert!(
        matches!(err, ServeError::WorkerPanic { .. }),
        "expected WorkerPanic, got {err}"
    );
    // The panicked trace flushes asynchronously once the job retires; the
    // span tree must be tail-sampled (reason `tail_error`) and served over
    // the gateway socket by trace id.
    let panic_trace_path = format!("/v1/debug/traces/{}", panic_context.trace_id.to_hex());
    let deadline = Instant::now() + Duration::from_secs(10);
    let tree_body = loop {
        let (status, body) = http_get(addr, &panic_trace_path);
        if status == 200 {
            break body;
        }
        assert!(
            Instant::now() < deadline,
            "panicked trace never reached the span store: {status} {body}"
        );
        std::thread::yield_now();
    };
    assert!(
        tree_body.contains("\"sampled\": \"tail_error\"") || tree_body.contains("\"tail_error\""),
        "panicked trace must be error-tail-sampled: {tree_body}"
    );
    assert!(
        tree_body.contains("\"error\""),
        "panicked trace must carry error status: {tree_body}"
    );
    // A panicked solve never stamps its end, so the tree carries the job
    // and queue.wait spans with the panic recorded on the job span.
    assert!(
        tree_body.contains("queue.wait"),
        "panicked trace must include the queue.wait span: {tree_body}"
    );
    assert!(
        tree_body.contains("panicked"),
        "panicked trace must record the panic outcome: {tree_body}"
    );
    println!(
        "panic        trace {} tail-sampled (error) and queryable over the socket",
        panic_context.trace_id.to_hex()
    );
    assert!(service.metrics().worker_panics >= 1);
    assert_eq!(
        service.metrics().worker_restarts,
        restarts_before,
        "a contained panic must not kill the worker thread"
    );
    // The disarmed wrapper (same fingerprint as its inner curve) now solves
    // bit-identically to the fault-free reference of the inner model.
    serve_and_check(
        &service,
        &labelled(&jobs, "panic retry"),
        &reference,
        "panic",
    );
    println!("panic        contained: job failed typed, worker survived, retry bit-identical");

    // ---- Phase 5: worker death → typed error, supervised respawn. ----
    let death_rate = Arc::new(ChaosRate::new(death_model()));
    death_rate.arm_worker_death();
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let err = service
        .tune(request(ra_set(), 220, death_rate.clone()))
        .expect_err("worker death must fail the job");
    std::panic::set_hook(default_hook);
    assert!(
        matches!(err, ServeError::WorkerLost),
        "expected WorkerLost, got {err}"
    );
    wait_for("supervisor respawn", || {
        service.metrics().worker_restarts > restarts_before
    });
    wait_for("pool whole again", || {
        service.health() == HealthState::Healthy
    });
    serve_and_check(
        &service,
        &labelled(&jobs, "death retry"),
        &reference,
        "death",
    );
    println!(
        "death        worker respawned ({} restarts), retry bit-identical",
        service.metrics().worker_restarts
    );

    // ---- Phase 6: restart recovery after the whole chaos schedule. ----
    drop(gateway);
    let service = Arc::try_unwrap(service).unwrap_or_else(|_| panic!("gateway released"));
    service.shutdown(); // planned stop: flushes everything the faults dropped
    let service = TuningService::recover(config, &dir).expect("recover after chaos");
    let recovery = service.recovery_stats().expect("durable service");
    assert_eq!(
        recovery.replayed_jobs, 0,
        "every journaled job (the panicked one included) must be retired: {recovery:?}"
    );
    assert_eq!(recovery.quarantined, 0);
    assert_eq!(recovery.corrupt_streams, 0, "{recovery:?}");
    for (label, job) in &jobs {
        let served = service.tune(job.clone()).expect("post-restart serve");
        assert_eq!(
            plan_bytes(&served.plan),
            reference[*label],
            "{label}: post-restart answer diverged"
        );
        assert_eq!(
            served.source,
            PlanSource::CacheHit,
            "{label}: warm set must be answered from the recovered cache"
        );
    }
    assert_eq!(
        service.metrics().cold_solves,
        0,
        "no cold solve may occur on the warm set"
    );
    println!(
        "recovery     {} plans recovered, warm set bit-identical, 0 cold solves, 0 replays",
        recovery.loaded_plans
    );

    // ---- Phase 7: poison-job quarantine. ----
    {
        let (store, _) = PlanStore::open(&quarantine_dir).expect("open quarantine store");
        let submit = |job_id: u64, attempts: u32| JournalRecord::Submitted {
            job_id,
            tenant: "chaos".to_owned(),
            market: MarketId::DEFAULT,
            task_set: ea_set(),
            budget: 90,
            rate: RateSpec::Linear(LinearRate::new(1.5, 0.5).unwrap()),
            strategy: StrategyChoice::Auto,
            attempts,
        };
        // Job 1 has exhausted its replay budget (it kept killing the
        // process); job 2 is an ordinary in-flight job.
        store.record_journal(&submit(1, REPLAY_ATTEMPT_LIMIT));
        store.record_journal(&submit(2, 0));
        store.flush();
    }
    let quarantined_service =
        TuningService::recover(config, &quarantine_dir).expect("recover poisoned journal");
    let stats = quarantined_service.recovery_stats().expect("durable");
    assert_eq!(
        stats.quarantined, 1,
        "the poison job must be quarantined: {stats:?}"
    );
    assert_eq!(
        stats.replayed_jobs, 1,
        "the healthy job must replay: {stats:?}"
    );
    wait_for("replayed job completes", || {
        quarantined_service.metrics().completed() >= 1
    });
    quarantined_service.shutdown();
    // The next recovery proves the journal does not grow: the quarantined
    // job was terminally retired, the replayed one completed.
    let clean = TuningService::recover(config, &quarantine_dir).expect("second recovery");
    let stats = clean.recovery_stats().expect("durable");
    assert_eq!(
        (stats.replayed_jobs, stats.quarantined),
        (0, 0),
        "journal must be fully retired after quarantine + replay: {stats:?}"
    );
    clean.shutdown();
    println!("quarantine   poison job retired terminally, journal fully retired on re-recovery");

    // ---- Phase 8: drain surfaces as 503. ----
    let service = Arc::new(service);
    let gateway = Gateway::start(service.clone(), "127.0.0.1:0", GatewayConfig::default())
        .expect("bind drain gateway");
    let addr = gateway.local_addr();
    service.begin_drain();
    let (status, body) = http_get(addr, "/healthz");
    assert_eq!(status, 503, "draining must take the node out: {body}");
    assert!(body.contains("\"draining\""), "{body}");
    println!("drain        /healthz 503 draining");
    gateway.shutdown();
    drop(service);

    let _ = std::fs::remove_dir_all(&dir);
    println!(
        "chaos smoke passed: {} catalogue jobs bit-identical under faults, degrade/heal cycles \
         observed, panic contained, worker respawned, poison job quarantined",
        jobs.len()
    );
}
