//! Restart-recovery smoke: the durable plan store end to end.
//!
//! 1. Start a durable `TuningService` on a fresh store directory and serve a
//!    small mixed workload (an RA budget ladder, a heterogeneous HA job, a
//!    homogeneous EA job, and exact repeats), recording the exact serialized
//!    bytes of every served plan.
//! 2. Stop the process ("kill"): the write-behind queue is drained, then a
//!    torn half-record is appended to the journal the way a crash mid-write
//!    would leave it.
//! 3. `TuningService::recover` the directory and re-serve the same warm set.
//!
//! The smoke **fails** (non-zero exit) if any re-served plan differs from
//! its pre-restart bytes, if any cold solve occurs on the warm set, or if
//! the torn tail is not contained. It also drives the cross-budget path:
//! budgets never served before the restart must be answered by the
//! rehydrated family table — again without a cold solve.
//!
//! Run with `cargo run --release --example persistence_recovery`
//! (optionally passing a store directory as the first argument).

use crowdtune_core::money::Budget;
use crowdtune_core::rate::LinearRate;
use crowdtune_core::task::TaskSet;
use crowdtune_core::tuner::StrategyChoice;
use crowdtune_serve::{JobRequest, MarketId, PlanSource, ServiceConfig, TuningService};
use std::io::Write;
use std::path::PathBuf;
use std::sync::Arc;

fn ra_ladder_set() -> TaskSet {
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

/// The warm set: every request served (and asserted bit-stable) across the
/// restart. Exact repeats are deliberate — they must hit the cache both
/// before and after.
fn warm_set() -> Vec<(&'static str, JobRequest)> {
    let ra_model = Arc::new(LinearRate::new(1.5, 0.5).unwrap());
    let request = |label: &'static str, set: TaskSet, budget: u64, model: Arc<LinearRate>| {
        (
            label,
            JobRequest {
                tenant: "smoke".to_owned(),
                market: MarketId::DEFAULT,
                task_set: set,
                budget: Budget::units(budget),
                rate_model: model,
                strategy: StrategyChoice::Auto,
            },
        )
    };
    vec![
        request("ra budget 240", ra_ladder_set(), 240, ra_model.clone()),
        request("ra budget 120", ra_ladder_set(), 120, ra_model.clone()),
        request("ra budget 400", ra_ladder_set(), 400, ra_model.clone()),
        request("ra budget 240 (repeat)", ra_ladder_set(), 240, ra_model),
        request(
            "ha budget 160",
            ha_set(),
            160,
            Arc::new(LinearRate::new(1.0, 1.0).unwrap()),
        ),
        request(
            "ea budget 90",
            ea_set(),
            90,
            Arc::new(LinearRate::new(2.0, 0.25).unwrap()),
        ),
    ]
}

fn plan_bytes(plan: &crowdtune_core::tuner::TunedPlan) -> String {
    serde_json::to_string(plan).expect("plans serialize")
}

fn main() {
    let dir = std::env::args()
        .nth(1)
        .map(PathBuf::from)
        .unwrap_or_else(|| {
            std::env::temp_dir().join(format!("crowdtune-recovery-smoke-{}", std::process::id()))
        });
    let _ = std::fs::remove_dir_all(&dir);
    let config = ServiceConfig {
        workers: 2,
        ..ServiceConfig::default()
    };

    // ---- Phase 1: serve the workload durably, record the exact bytes. ----
    let service = TuningService::recover(config, &dir).expect("open fresh store");
    let mut expected: Vec<(&'static str, String)> = Vec::new();
    for (label, request) in warm_set() {
        let served = service.tune(request).expect("pre-restart serve");
        expected.push((label, plan_bytes(&served.plan)));
        println!("pre-restart  {label:<22} -> {:?}", served.source);
    }
    let pre = service.metrics();
    println!(
        "pre-restart  metrics: {} cold, {} family, {} cache",
        pre.cold_solves, pre.family_hits, pre.cache_hits
    );
    service.shutdown(); // planned stop: drains the write-behind queue

    // ---- "Kill": leave a torn half-record, as a crash mid-write would. ----
    let journal = dir.join("journal.log");
    let mut file = std::fs::OpenOptions::new()
        .append(true)
        .open(&journal)
        .expect("journal exists");
    file.write_all(b"deadbeefdeadbeef\t{\"Submitted\":{\"job_id\":99")
        .expect("append torn tail");
    drop(file);

    // ---- Phase 2: recover and verify. ----
    let service = TuningService::recover(config, &dir).expect("recover store");
    let recovery = service.recovery_stats().expect("durable service");
    println!(
        "recovered: {} plans, {} families, {} replayed jobs, {} corrupt tails",
        recovery.loaded_plans,
        recovery.loaded_families,
        recovery.replayed_jobs,
        recovery.corrupt_tails
    );
    assert_eq!(
        recovery.corrupt_tails, 1,
        "the torn journal tail must be detected and contained"
    );
    assert_eq!(recovery.corrupt_streams, 0);
    assert!(recovery.loaded_plans >= 5, "warm set must be on disk");

    for (label, bytes) in &expected {
        // Find the matching request again (same construction → same
        // fingerprint) and re-serve it.
        let (_, request) = warm_set()
            .into_iter()
            .find(|(l, _)| l == label)
            .expect("label");
        let served = service.tune(request).expect("post-restart serve");
        let reserved = plan_bytes(&served.plan);
        assert_eq!(
            &reserved, bytes,
            "{label}: re-served plan differs from its pre-restart bytes"
        );
        assert_eq!(
            served.source,
            PlanSource::CacheHit,
            "{label}: warm-set job must be answered from the recovered cache"
        );
        println!(
            "post-restart {label:<22} -> bit-identical ({:?})",
            served.source
        );
    }
    let metrics = service.metrics();
    assert_eq!(
        metrics.cold_solves, 0,
        "a cold solve occurred on the warm set: {metrics:?}"
    );

    // ---- Cross-budget: new budgets ride the rehydrated family table. ----
    let ra_model = Arc::new(LinearRate::new(1.5, 0.5).unwrap());
    for budget in [180u64, 520] {
        let served = service
            .tune(JobRequest {
                tenant: "smoke".to_owned(),
                market: MarketId::DEFAULT,
                task_set: ra_ladder_set(),
                budget: Budget::units(budget),
                rate_model: ra_model.clone(),
                strategy: StrategyChoice::Auto,
            })
            .expect("family serve");
        assert_eq!(
            served.source,
            PlanSource::FamilyHit,
            "budget {budget} was never served, yet the recovered family must answer it"
        );
        println!("post-restart ra budget {budget:<15} -> {:?}", served.source);
    }
    let metrics = service.metrics();
    assert_eq!(
        metrics.cold_solves, 0,
        "family rehydration must not cold-solve"
    );
    let families = service.family_stats();
    assert!(families.reloads >= 1, "family must have been rehydrated");

    service.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
    println!(
        "recovery smoke passed: {} plans bit-identical across restart, 0 cold solves on the \
         warm set, torn tail contained",
        expected.len()
    );
}
