//! The traced run's in-process halves: a replay of the timed requests
//! through the calls the gateway chains, and the core solver timed per
//! distinct job. Each runs in a fresh process so the core's process-wide
//! latency tables start as cold as they did for the measured run.

use crate::run::{self, Record};
use crate::spans::{SpanLog, DUMPED_REQUESTS};
use crate::stats;
use crate::workload::{Kind, Workload};
use crowdtune_core::problem::HTuningProblem;
use crowdtune_core::tuner::Tuner;
use crowdtune_gateway::http::{parse_buffered, render_response, Limits, ParsedRequest, Response};
use crowdtune_gateway::{HashedKeys, JobBody, JobRequestWire};
use crowdtune_serve::{PlanCache, PlanFingerprint, PlanSource, ServiceConfig, TuningService};
use std::collections::HashMap;
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Jobs per probe kind after the replay.
const PROBES: usize = 2_000;

/// Layers a replayed request passes through, in the gateway's order.
pub const REPLAY_LAYERS: [&str; 5] = [
    "gateway.http.parse",
    "gateway.wire.decode",
    "gateway.auth.verify",
    "serve.tune",
    "gateway.wire.render",
];

fn bearer(request: &crowdtune_gateway::Request) -> &str {
    request
        .header("authorization")
        .and_then(|value| value.strip_prefix("Bearer "))
        .unwrap_or("")
}

/// Replays every timed request in process — `parse_buffered` → JSON
/// decode + `to_request` → `tenant_for` (keyed workloads) →
/// `TuningService::tune` → `JobBody::done` + encode + `render_response` —
/// on a service prepared as the measured one was, then probes the serve
/// layer's fingerprint and cache lookup per request.
pub fn replay(workload: &Workload, work: &Path, spans_out: &Path) -> Result<Record, String> {
    let requests = run::request_bytes(workload);
    let keys = HashedKeys::build(&workload.keys.iter().cloned().collect());
    let store = run::prepare_store(workload, work, "replay")?;
    let service = match &store {
        Some(dir) => TuningService::recover(ServiceConfig::default(), dir)
            .map_err(|e| format!("recovering the store: {e}"))?,
        None => TuningService::start(ServiceConfig::default()),
    };
    let max_slots = run::gateway_config(workload).max_job_slots;
    // Tunes outside the replay (warm-up, probes), by source, ns: they stand
    // in for a source the replay itself never hits.
    let mut probes: Vec<(PlanSource, f64)> = Vec::new();
    let mut timed_tune = |job: &JobRequestWire| -> Result<crowdtune_serve::ServedPlan, String> {
        let request = job
            .to_request(max_slots)
            .map_err(|e| format!("probe job: {e}"))?;
        let started = Instant::now();
        let served = service.tune(request).map_err(|e| format!("probe: {e}"))?;
        probes.push((served.source, started.elapsed().as_nanos() as f64));
        Ok(served)
    };
    if workload.kind != Kind::DurableCold {
        for j in workload.first_send_order() {
            timed_tune(&workload.jobs[j])?;
        }
    }
    let limits = Limits::default();
    let mut log = SpanLog::new(Instant::now());
    let mut tune_spans: Vec<(usize, PlanSource)> = Vec::with_capacity(workload.schedule.len());
    let mut plans = HashMap::new();
    for (i, &j) in workload.schedule.iter().enumerate() {
        let id = i as u64;
        let root = log.open("replay.request", None, id);
        let parsed = log.time("gateway.http.parse", root, id, || {
            parse_buffered(&requests[j], &limits)
        });
        let Ok(ParsedRequest::Complete { request, .. }) = parsed else {
            return Err(format!("request {i} did not parse"));
        };
        let job = log.time("gateway.wire.decode", root, id, || {
            let wire: JobRequestWire = std::str::from_utf8(&request.body)
                .ok()
                .and_then(|text| serde_json::from_str(text).ok())?;
            wire.to_request(max_slots).ok()
        });
        let job = job.ok_or_else(|| format!("request {i} did not decode"))?;
        // Keyless workloads configure no keys: the lookup has nothing to
        // derive, as in the gateway.
        let tenant = log.time("gateway.auth.verify", root, id, || {
            keys.tenant_for(bearer(&request)).map(str::to_owned)
        });
        if workload.kind == Kind::AuthHttp && tenant.as_deref() != Some(job.tenant.as_str()) {
            return Err(format!("request {i}: key resolved to {tenant:?}"));
        }
        let tune = log.open("serve.tune", Some(root), id);
        let served = service.tune(job).map_err(|e| format!("request {i}: {e}"))?;
        log.close(tune);
        tune_spans.push((tune, served.source));
        let bytes = log.time("gateway.wire.render", root, id, || {
            let body = serde_json::to_string(&JobBody::done(&served)).expect("bodies serialize");
            render_response(&Response::json(200, body), true)
        });
        black_box(bytes);
        log.close(root);
        plans.entry(j).or_insert(served.plan);
    }

    // Serve-layer probes: the fingerprint a worker computes for each job,
    // and a lookup in a plan cache (the service's default sizing) holding
    // the workload's plans.
    let converted: HashMap<usize, crowdtune_serve::JobRequest> = plans
        .keys()
        .map(|&j| {
            (
                j,
                workload.jobs[j]
                    .to_request(max_slots)
                    .expect("decoded above"),
            )
        })
        .collect();
    let config = ServiceConfig::default();
    let cache = PlanCache::new(config.cache_shards, config.cache_capacity_per_shard);
    let fingerprint = |request: &crowdtune_serve::JobRequest| {
        HTuningProblem::new(
            request.task_set.clone(),
            request.budget,
            request.rate_model.clone(),
        )
        .map(|problem| PlanFingerprint::of_market(&problem, request.strategy, request.market))
    };
    for (j, plan) in &plans {
        let key = fingerprint(&converted[j]).map_err(|e| format!("fingerprint: {e}"))?;
        cache.insert(key, Arc::clone(plan));
    }
    for (i, &j) in workload.schedule.iter().enumerate() {
        let id = i as u64;
        let root = log.open("serve.probe", None, id);
        let key = log.time("serve.fingerprint", root, id, || {
            fingerprint(&converted[&j])
        });
        let key = key.map_err(|e| format!("fingerprint: {e}"))?;
        let hit = log.time("serve.cache.get", root, id, || cache.get(key));
        log.close(root);
        black_box(hit);
    }
    // Probes for the sources a workload's replay does not reach: exact
    // repeats of the latest replayed jobs (cache hits), and the latest RA
    // jobs one unit above their budget (family extensions).
    let distinct = workload.first_send_order();
    for &j in distinct.iter().rev().take(PROBES) {
        timed_tune(&workload.jobs[j])?;
    }
    for &j in distinct
        .iter()
        .rev()
        .filter(|j| plans[j].result.strategy == "RA")
        .take(PROBES)
    {
        let mut job = workload.jobs[j].clone();
        job.budget += 1;
        timed_tune(&job)?;
    }
    drop(service);
    if let Some(dir) = store {
        let _ = std::fs::remove_dir_all(dir);
    }

    let selfs = log.self_times_by_name();
    let p50_us = |name: &str| selfs.get(name).map_or(0.0, |ns| p50_of_ns(ns));
    let mut rec = Record::new();
    let mut replay_sum = 0.0;
    for layer in REPLAY_LAYERS {
        replay_sum += p50_us(layer);
        rec.insert(format!("{layer}_us"), p50_us(layer));
    }
    rec.insert("replay.sum_us".into(), replay_sum);
    rec.insert("serve.fingerprint_us".into(), p50_us("serve.fingerprint"));
    rec.insert("serve.cache.get_us".into(), p50_us("serve.cache.get"));
    let spans = log.spans();
    for (source, label) in [
        (PlanSource::CacheHit, "cache"),
        (PlanSource::FamilyHit, "family"),
        (PlanSource::ColdSolve, "cold"),
    ] {
        let mut samples: Vec<f64> = tune_spans
            .iter()
            .filter(|(_, s)| *s == source)
            .map(|&(id, _)| (spans[id].end_ns - spans[id].start_ns) as f64)
            .collect();
        let from_probes = samples.is_empty();
        if from_probes {
            samples = probes
                .iter()
                .filter(|(s, _)| *s == source)
                .map(|&(_, ns)| ns)
                .collect();
        }
        rec.insert(format!("serve.tune_us.{label}"), p50_of_ns(&samples));
        rec.insert(format!("serve.tune_n.{label}"), samples.len() as f64);
        rec.insert(
            format!("serve.tune_probe.{label}"),
            f64::from(u8::from(from_probes)),
        );
    }
    rec.insert("replayed".into(), workload.schedule.len() as f64);

    log.write_jsonl(spans_out, DUMPED_REQUESTS)
        .map_err(|e| format!("writing {}: {e}", spans_out.display()))?;
    Ok(rec)
}

/// Median of nanosecond samples in µs; 0 for none.
fn p50_of_ns(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        stats::percentile(&stats::sorted(samples.to_vec()), 0.5) / 1e3
    }
}

/// `Tuner::plan_timed` on every distinct job the workload solves (the
/// warm catalogue, or the restart's timed jobs), in first-send order:
/// mean solve time per strategy and mean estimate time, µs.
pub fn core(workload: &Workload) -> Result<Record, String> {
    let mut solve: HashMap<String, Vec<f64>> = HashMap::new();
    let mut estimate = Vec::new();
    for j in workload.first_send_order() {
        let request = workload.jobs[j]
            .to_request(u64::MAX)
            .map_err(|e| format!("job {j}: {e}"))?;
        let (plan, timing) = Tuner::new(request.rate_model)
            .with_strategy(request.strategy)
            .plan_timed(request.task_set, request.budget)
            .map_err(|e| format!("job {j}: {e}"))?;
        solve
            .entry(plan.result.strategy.to_lowercase())
            .or_default()
            .push(timing.solve_ns as f64 / 1e3);
        estimate.push(timing.estimate_ns as f64 / 1e3);
    }
    let mut rec = Record::new();
    for strategy in ["ea", "ra", "ha"] {
        let samples = solve.get(strategy).map_or(&[][..], Vec::as_slice);
        rec.insert(format!("core.solve_us.{strategy}"), stats::mean(samples));
        rec.insert(format!("core.solve_n.{strategy}"), samples.len() as f64);
    }
    rec.insert("core.estimate_us".into(), stats::mean(&estimate));
    Ok(rec)
}
