//! Restart-recovery tests of the durable plan store:
//!
//! * after `TuningService::recover`, every previously served plan comes back
//!   **bit-identical** with zero cold solves on the warm set — property
//!   tested over seeded random workloads;
//! * post-restart family serves at *new* budgets rehydrate the persisted DP
//!   table (no cold solve) and still match cold references bit-for-bit;
//! * journaled in-flight jobs are replayed exactly once, under their
//!   original ids;
//! * every corruption mode — truncated journal tail, bit-flipped plan
//!   snapshot, version-mismatch header — degrades to cold solves (asserted
//!   via `ServiceMetrics` counters), never to wrong plans;
//! * plan records from another estimator version are re-solved, never
//!   served;
//! * a clean stop writes each plan and family record once, and re-records
//!   the working set only after the write path lost a record;
//! * a model that panics when sampled for the journal fails its own job.

use crowdtune_core::hash::Fnv1a;
use crowdtune_core::money::Budget;
use crowdtune_core::rate::{LinearRate, RateModel, RateSpec, TabulatedRate};
use crowdtune_core::task::TaskSet;
use crowdtune_core::tuner::{StrategyChoice, TunedPlan, Tuner};
use crowdtune_serve::{
    JobRequest, JournalRecord, MarketId, PlanSource, PlanStore, ServeError, ServiceConfig, Sleeper,
    StoreOptions, TuningService, WriteFault,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A process-unique scratch directory (no tempfile crate offline).
fn scratch_dir(tag: &str) -> PathBuf {
    static NEXT: AtomicU32 = AtomicU32::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "crowdtune-persist-test-{}-{tag}-{n}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn service_config() -> ServiceConfig {
    ServiceConfig {
        workers: 2,
        ..ServiceConfig::default()
    }
}

fn assert_plans_bit_identical(a: &TunedPlan, b: &TunedPlan, context: &str) {
    assert_eq!(a.result.allocation, b.result.allocation, "{context}");
    assert_eq!(a.result.strategy, b.result.strategy, "{context}");
    let bits = |x: f64| x.to_bits();
    assert_eq!(
        a.result.objective.map(bits),
        b.result.objective.map(bits),
        "{context}"
    );
    assert_eq!(
        bits(a.expected_latency),
        bits(b.expected_latency),
        "{context}"
    );
    assert_eq!(
        bits(a.expected_on_hold_latency),
        bits(b.expected_on_hold_latency),
        "{context}"
    );
}

/// A random workload mixing the three scenarios (EA, RA, HA resolved).
fn arbitrary_request(rng: &mut StdRng, tenant: &str) -> JobRequest {
    let type_count = rng.gen_range(1usize..3);
    let mut set = TaskSet::new();
    for t in 0..type_count {
        let rate = rng.gen_range(0.5f64..4.0);
        let ty = set.add_type(format!("type{t}"), rate).unwrap();
        for _ in 0..rng.gen_range(1usize..3) {
            let reps = rng.gen_range(1u32..5);
            let count = rng.gen_range(1usize..4);
            set.add_tasks(ty, reps, count).unwrap();
        }
    }
    let slots = set.total_repetitions();
    let budget = slots + rng.gen_range(0u64..20) * slots / 2;
    let slope = rng.gen_range(0.2f64..3.0);
    let intercept = rng.gen_range(0.05f64..2.0);
    JobRequest {
        tenant: tenant.to_owned(),
        market: MarketId::DEFAULT,
        task_set: set,
        budget: Budget::units(budget),
        rate_model: Arc::new(LinearRate::new(slope, intercept).unwrap()),
        strategy: StrategyChoice::Auto,
    }
}

/// The headline recovery property: serve a seeded random workload, restart,
/// re-serve — every plan on the warm set is bit-identical to its
/// pre-restart bytes and not a single cold solve happens.
#[test]
fn recovered_plans_are_bit_identical_with_zero_cold_solves() {
    let dir = scratch_dir("property");
    const CASES: u64 = 24;
    let mut before: Vec<(JobRequest, TunedPlan)> = Vec::new();
    {
        let service = TuningService::recover(service_config(), &dir).unwrap();
        assert_eq!(service.recovery_stats().unwrap().loaded_plans, 0);
        for seed in 0..CASES {
            let mut rng = StdRng::seed_from_u64(7000 + seed);
            let request = arbitrary_request(&mut rng, "prop");
            let served = service.tune(request.clone()).unwrap();
            before.push((request, (*served.plan).clone()));
        }
        service.shutdown(); // flushes the working set
    }

    let service = TuningService::recover(service_config(), &dir).unwrap();
    let recovery = service.recovery_stats().unwrap();
    assert!(
        recovery.loaded_plans >= CASES,
        "warm set loaded: {recovery:?}"
    );
    assert_eq!(recovery.corrupt_streams, 0);
    assert_eq!(recovery.corrupt_tails, 0);
    assert_eq!(recovery.invalid_records, 0);
    for (i, (request, expected)) in before.iter().enumerate() {
        let served = service.tune(request.clone()).unwrap();
        assert_eq!(
            served.source,
            PlanSource::CacheHit,
            "case {i}: warm-set job must be served from the recovered cache"
        );
        assert_plans_bit_identical(&served.plan, expected, &format!("case {i}"));
        // The recovered bytes also match an independent cold reference.
        let cold = Tuner::new(request.rate_model.clone())
            .with_strategy(request.strategy)
            .plan(request.task_set.clone(), request.budget)
            .unwrap();
        assert_plans_bit_identical(&served.plan, &cold, &format!("case {i} vs cold"));
    }
    let metrics = service.metrics();
    assert_eq!(metrics.cold_solves, 0, "no cold solve on the warm set");
    assert_eq!(metrics.cache_hits, CASES);
    service.shutdown();
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Families survive restarts as DP-table snapshots: budgets never served
/// before the restart are answered by rehydrating the persisted table — a
/// family hit, not a cold solve — and stay bit-identical to cold references.
#[test]
fn recovered_families_answer_new_budgets_without_cold_solves() {
    let dir = scratch_dir("family");
    let mut set = TaskSet::new();
    let ty = set.add_type("vote", 2.0).unwrap();
    set.add_tasks(ty, 3, 4).unwrap();
    set.add_tasks(ty, 5, 4).unwrap();
    let model = Arc::new(LinearRate::new(1.5, 0.5).unwrap());
    let request = |budget: u64| JobRequest {
        tenant: "acme".to_owned(),
        market: MarketId::DEFAULT,
        task_set: set.clone(),
        budget: Budget::units(budget),
        rate_model: model.clone(),
        strategy: StrategyChoice::Auto,
    };
    {
        let service = TuningService::recover(service_config(), &dir).unwrap();
        // Seed the family and grow its table to budget 300.
        for budget in [120u64, 300] {
            service.tune(request(budget)).unwrap();
        }
        service.shutdown();
    }
    let service = TuningService::recover(service_config(), &dir).unwrap();
    assert_eq!(service.recovery_stats().unwrap().loaded_families, 1);
    // Budgets 90 (prefix read) and 420 (extension) were never served before.
    for budget in [90u64, 420] {
        let served = service.tune(request(budget)).unwrap();
        assert_eq!(
            served.source,
            PlanSource::FamilyHit,
            "budget {budget}: rehydrated family must answer, not a cold solve"
        );
        let cold = Tuner::new(model.clone())
            .plan(set.clone(), Budget::units(budget))
            .unwrap();
        assert_plans_bit_identical(&served.plan, &cold, &format!("budget {budget}"));
    }
    let metrics = service.metrics();
    assert_eq!(metrics.cold_solves, 0);
    assert_eq!(metrics.family_hits, 2);
    let families = service.family_stats();
    assert_eq!(families.reloads, 1, "one snapshot rehydration");
    assert_eq!(families.builds, 0, "never re-seeded");
    service.shutdown();
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A family evicted by the LRU bound is rehydrated from its snapshot on the
/// next miss instead of re-seeding cold (durable services only).
#[test]
fn evicted_families_rehydrate_from_the_archive() {
    let dir = scratch_dir("evict");
    let service = TuningService::recover(
        ServiceConfig {
            workers: 1,
            family_shards: 1,
            ..ServiceConfig::default()
        },
        &dir,
    )
    .unwrap();
    let request = |reps_a: u32, slope_milli: u64, budget: u64| {
        let mut set = TaskSet::new();
        let ty = set.add_type("vote", 2.0).unwrap();
        set.add_tasks(ty, reps_a, 2).unwrap();
        set.add_tasks(ty, reps_a + 1, 2).unwrap();
        JobRequest {
            tenant: "acme".to_owned(),
            market: MarketId::DEFAULT,
            task_set: set,
            budget: Budget::units(budget),
            rate_model: Arc::new(LinearRate::new(1.0 + slope_milli as f64 / 1000.0, 1.0).unwrap()),
            strategy: StrategyChoice::Auto,
        }
    };
    // Seed the hot family, then flood one shard past its 128-family cap with
    // distinct curves so the hot family is evicted.
    let hot = request(2, 0, 40);
    let first = service.tune(hot.clone()).unwrap();
    assert_eq!(first.source, PlanSource::ColdSolve);
    for i in 1..=128u64 {
        service.tune(request(2, i, 40)).unwrap();
    }
    let stats = service.family_stats();
    assert!(stats.evictions >= 1, "cap must have evicted: {stats:?}");
    // A *new budget* of the hot family misses the cache and the resident
    // map, but rehydrates from the archive: family hit, no new build.
    let builds_before = service.family_stats().builds;
    let served = service.tune(hot_with_budget(&hot, 64)).unwrap();
    assert_eq!(
        served.source,
        PlanSource::FamilyHit,
        "evicted-but-persisted family must rehydrate"
    );
    assert_eq!(service.family_stats().builds, builds_before);
    assert!(service.family_stats().reloads >= 1);
    let cold = Tuner::new(hot.rate_model.clone())
        .plan(hot.task_set.clone(), Budget::units(64))
        .unwrap();
    assert_plans_bit_identical(&served.plan, &cold, "rehydrated family");
    service.shutdown();
    std::fs::remove_dir_all(&dir).unwrap();
}

fn hot_with_budget(request: &JobRequest, budget: u64) -> JobRequest {
    JobRequest {
        budget: Budget::units(budget),
        ..request.clone()
    }
}

/// Journaled in-flight jobs (submitted, never completed) are re-enqueued on
/// recovery under their original ids and complete normally; finished jobs
/// are not replayed.
#[test]
fn journal_replays_only_unfinished_jobs() {
    let dir = scratch_dir("journal");
    let mut set = TaskSet::new();
    let ty = set.add_type("vote", 2.0).unwrap();
    set.add_tasks(ty, 3, 2).unwrap();
    {
        // Craft a journal with one finished and one in-flight job, as a
        // crashed process would leave it.
        let (store, _) = PlanStore::open(&dir).unwrap();
        store.record_journal(&JournalRecord::Submitted {
            job_id: 3,
            tenant: "acme".to_owned(),
            market: MarketId::DEFAULT,
            task_set: set.clone(),
            budget: 30,
            rate: RateSpec::Linear(LinearRate::unit_slope()),
            strategy: StrategyChoice::Auto,
            attempts: 0,
        });
        store.record_journal(&JournalRecord::Completed { job_id: 3 });
        store.record_journal(&JournalRecord::Submitted {
            job_id: 7,
            tenant: "acme".to_owned(),
            market: MarketId::DEFAULT,
            task_set: set.clone(),
            budget: 60,
            rate: RateSpec::Linear(LinearRate::unit_slope()),
            strategy: StrategyChoice::Auto,
            attempts: 0,
        });
        store.flush();
    }
    let service = TuningService::recover(service_config(), &dir).unwrap();
    let recovery = service.recovery_stats().unwrap();
    assert_eq!(recovery.replayed_jobs, 1, "only job 7 is in flight");
    assert_eq!(recovery.dropped_replays, 0);
    // The replayed job completes in the background and lands in the cache.
    let deadline = Instant::now() + Duration::from_secs(10);
    while service.metrics().completed() < 1 {
        assert!(Instant::now() < deadline, "replayed job never completed");
        std::thread::sleep(Duration::from_millis(5));
    }
    // Serving the same workload now hits the cache seeded by the replay.
    let served = service
        .tune(JobRequest {
            tenant: "acme".to_owned(),
            market: MarketId::DEFAULT,
            task_set: set,
            budget: Budget::units(60),
            rate_model: Arc::new(LinearRate::unit_slope()),
            strategy: StrategyChoice::Auto,
        })
        .unwrap();
    assert_eq!(served.source, PlanSource::CacheHit);
    // New ids resume past the journaled maximum: no collision with job 7.
    assert!(served.job_id > 7, "id counter must resume past the journal");
    service.shutdown();

    // After the clean shutdown the journal holds a completion for job 7, so
    // a second recovery replays nothing.
    let service = TuningService::recover(service_config(), &dir).unwrap();
    assert_eq!(service.recovery_stats().unwrap().replayed_jobs, 0);
    service.shutdown();
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Runs a small workload, then applies `corrupt` to the store directory and
/// recovers. Returns the recovered service for per-mode assertions.
fn recover_after_corruption(
    tag: &str,
    corrupt: impl FnOnce(&PathBuf),
) -> (TuningService, JobRequest, PathBuf) {
    let dir = scratch_dir(tag);
    // A heterogeneous (HA-resolved) workload: it bypasses the family layer,
    // so serving it after the restart isolates the plan stream — an intact
    // families.log cannot mask a corrupted plans.log (RA workloads would be
    // rehydrated from their family snapshot instead, which is also correct
    // but not what these tests pin down).
    let mut set = TaskSet::new();
    let easy = set.add_type("easy", 3.0).unwrap();
    let hard = set.add_type("hard", 1.0).unwrap();
    set.add_tasks(easy, 3, 2).unwrap();
    set.add_tasks(hard, 5, 2).unwrap();
    let request = JobRequest {
        tenant: "acme".to_owned(),
        market: MarketId::DEFAULT,
        task_set: set,
        budget: Budget::units(100),
        rate_model: Arc::new(LinearRate::new(1.25, 0.75).unwrap()),
        strategy: StrategyChoice::Auto,
    };
    {
        let service = TuningService::recover(service_config(), &dir).unwrap();
        service.tune(request.clone()).unwrap();
        service.shutdown();
    }
    corrupt(&dir);
    let service = TuningService::recover(service_config(), &dir).unwrap();
    (service, request, dir)
}

/// Truncated journal tail: the partial record is dropped, recovery proceeds,
/// and the workload cold-solves again (counted by `ServiceMetrics`).
#[test]
fn truncated_journal_tail_recovers_cold() {
    let (service, request, dir) = recover_after_corruption("trunc-journal", |dir| {
        let path = dir.join("journal.log");
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len().saturating_sub(9)]).unwrap();
    });
    let recovery = service.recovery_stats().unwrap();
    assert_eq!(recovery.corrupt_tails, 1, "{recovery:?}");
    // The torn record was the last journal entry (a completion); at worst
    // its job replays once — it must not wedge recovery. Plans are intact.
    let served = service.tune(request).unwrap();
    assert_eq!(served.source, PlanSource::CacheHit);
    service.shutdown();
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Bit-flipped plan snapshot: the checksum rejects the record (and its
/// suffix), the warm set is gone, and the service cold-solves — asserted via
/// the `cold_solves` counter — instead of serving a wrong plan.
#[test]
fn bit_flipped_plan_snapshot_recovers_cold() {
    let (service, request, dir) = recover_after_corruption("bitflip-plan", |dir| {
        let path = dir.join("plans.log");
        let mut bytes = std::fs::read(&path).unwrap();
        let header_end = bytes.iter().position(|&b| b == b'\n').unwrap();
        bytes[header_end + 40] ^= 0x04; // inside the first record
        std::fs::write(&path, &bytes).unwrap();
    });
    let recovery = service.recovery_stats().unwrap();
    assert_eq!(recovery.loaded_plans, 0, "flipped snapshot must not load");
    assert!(recovery.corrupt_tails >= 1, "{recovery:?}");
    let served = service.tune(request.clone()).unwrap();
    assert_ne!(
        served.source,
        PlanSource::CacheHit,
        "the corrupt snapshot must not be served"
    );
    assert_eq!(service.metrics().cold_solves, 1);
    // Degradation is to a *correct* cold solve.
    let cold = Tuner::new(request.rate_model.clone())
        .plan(request.task_set.clone(), request.budget)
        .unwrap();
    assert_plans_bit_identical(&served.plan, &cold, "post-corruption solve");
    service.shutdown();
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Rewrites the payload of every `plans.log` record with `edit` and
/// recomputes the line's checksum, so the records stay checksum-valid and
/// only their content changes. Returns the number of records.
fn rewrite_plan_payloads(dir: &Path, edit: impl Fn(&str) -> String) -> u64 {
    let path = dir.join("plans.log");
    let text = std::fs::read_to_string(&path).unwrap();
    let mut lines = text.lines();
    let mut out = format!("{}\n", lines.next().unwrap());
    let mut records = 0;
    for line in lines {
        let (_, payload) = line.split_once('\t').unwrap();
        let edited = edit(payload);
        assert_ne!(
            edited, payload,
            "every plan record carries an estimator version"
        );
        let mut hash = Fnv1a::new();
        hash.write_bytes(edited.as_bytes());
        out.push_str(&format!("{:016x}\t{edited}\n", hash.finish()));
        records += 1;
    }
    std::fs::write(&path, out).unwrap();
    records
}

/// Plan records from another estimator version — written before records
/// carried one, or stamped with another — are dropped at load and counted
/// in `invalid_records`. Their jobs cold-solve to the recorded allocations,
/// and the re-solves' records serve the next restart with no cold solve.
#[test]
fn plan_records_from_another_estimator_version_are_re_solved() {
    // What replaces this binary's `,"estimator":1` in every record.
    for (tag, replacement) in [("unversioned", ""), ("version-0", ",\"estimator\":0")] {
        let dir = scratch_dir(tag);
        // EA and HA jobs: the family layer serves RA only, so these can
        // come back from the plan stream or a cold solve, nothing else.
        let mut requests = Vec::new();
        for budget in [60, 80, 100] {
            let mut set = TaskSet::new();
            let easy = set.add_type("easy", 3.0).unwrap();
            let hard = set.add_type("hard", 1.0).unwrap();
            set.add_tasks(easy, 3, 2).unwrap();
            set.add_tasks(hard, 5, 2).unwrap();
            requests.push(JobRequest {
                tenant: "acme".to_owned(),
                market: MarketId::DEFAULT,
                task_set: set,
                budget: Budget::units(budget),
                rate_model: Arc::new(LinearRate::new(1.25, 0.75).unwrap()),
                strategy: StrategyChoice::Auto,
            });
        }
        let mut set = TaskSet::new();
        let ty = set.add_type("filter", 2.5).unwrap();
        set.add_tasks(ty, 2, 4).unwrap();
        requests.push(JobRequest {
            tenant: "acme".to_owned(),
            market: MarketId::DEFAULT,
            task_set: set,
            budget: Budget::units(46),
            rate_model: Arc::new(LinearRate::new(1.5, 0.5).unwrap()),
            strategy: StrategyChoice::Auto,
        });
        let mut recorded = Vec::new();
        {
            let service = TuningService::recover(service_config(), &dir).unwrap();
            for request in &requests {
                recorded.push((*service.tune(request.clone()).unwrap().plan).clone());
            }
            service.shutdown();
        }
        let stale = rewrite_plan_payloads(&dir, |payload| {
            payload.replacen(",\"estimator\":1", replacement, 1)
        });
        assert!(stale >= requests.len() as u64, "{tag}: {stale} records");

        let mut resolved = Vec::new();
        {
            let service = TuningService::recover(service_config(), &dir).unwrap();
            let recovery = service.recovery_stats().unwrap();
            assert_eq!(recovery.loaded_plans, 0, "{tag}: {recovery:?}");
            assert_eq!(recovery.invalid_records, stale, "{tag}: {recovery:?}");
            assert_eq!(recovery.corrupt_tails, 0, "{tag}: {recovery:?}");
            for (i, (request, old)) in requests.iter().zip(&recorded).enumerate() {
                let served = service.tune(request.clone()).unwrap();
                assert_eq!(served.source, PlanSource::ColdSolve, "{tag} job {i}");
                assert_eq!(
                    served.plan.result.allocation, old.result.allocation,
                    "{tag} job {i}: the re-solve keeps the recorded allocation"
                );
                resolved.push((*served.plan).clone());
            }
            assert_eq!(service.metrics().cold_solves, requests.len() as u64);
            service.shutdown();
        }

        // The previous open rewrote the stale records out of `plans.log`.
        let service = TuningService::recover(service_config(), &dir).unwrap();
        let recovery = service.recovery_stats().unwrap();
        assert!(
            recovery.loaded_plans >= requests.len() as u64,
            "{tag}: {recovery:?}"
        );
        assert_eq!(recovery.invalid_records, 0, "{tag}: {recovery:?}");
        for (i, (request, expected)) in requests.iter().zip(&resolved).enumerate() {
            let served = service.tune(request.clone()).unwrap();
            assert_eq!(served.source, PlanSource::CacheHit, "{tag} job {i}");
            assert_plans_bit_identical(&served.plan, expected, &format!("{tag} job {i}"));
        }
        assert_eq!(service.metrics().cold_solves, 0, "{tag}");
        service.shutdown();
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// Ad-hoc rate models (no native `RateSpec`) are journaled through a
/// sampled tabulated stand-in, so closure-backed jobs survive a crash. The
/// exact-knot interpolation of `TabulatedRate` makes a plan solved from the
/// journaled spec bit-identical to one solved from the original model at
/// every on-grid budget.
#[test]
fn adhoc_rate_models_are_journaled_via_sampled_tables() {
    struct AdHoc;
    impl RateModel for AdHoc {
        fn on_hold_rate(&self, payment_units: f64) -> f64 {
            0.4 * payment_units.sqrt() + 0.3
        }
        fn describe(&self) -> String {
            "adhoc sqrt curve".to_owned()
        }
    }
    let dir = scratch_dir("adhoc");
    let mut set = TaskSet::new();
    let ty = set.add_type("vote", 2.0).unwrap();
    set.add_tasks(ty, 3, 2).unwrap();
    let request = JobRequest {
        tenant: "acme".to_owned(),
        market: MarketId::DEFAULT,
        task_set: set.clone(),
        budget: Budget::units(40),
        rate_model: Arc::new(AdHoc),
        strategy: StrategyChoice::Auto,
    };
    let served = {
        let service = TuningService::recover(service_config(), &dir).unwrap();
        let served = service.tune(request).unwrap();
        service.shutdown();
        served
    };
    // The journal holds a Submitted record for the ad-hoc job, with the
    // model persisted as a sampled table (a crash before completion would
    // replay it; before this fallback the job was simply not journaled).
    let journal = std::fs::read_to_string(dir.join("journal.log")).unwrap();
    assert!(
        journal.contains("Submitted") && journal.contains("Tabulated"),
        "ad-hoc submissions must journal a sampled tabulated spec:\n{journal}"
    );
    // Bit-identity on the grid: a replay would rebuild the sampled spec and
    // re-solve — which matches the original closure's plan exactly, because
    // every payment the solver evaluates is an interpolation knot.
    let sampled = TabulatedRate::sampled_from(&AdHoc, 40).unwrap();
    let rebuilt = sampled.to_spec().unwrap().build().unwrap();
    let replayed = Tuner::new(rebuilt).plan(set, Budget::units(40)).unwrap();
    assert_plans_bit_identical(&served.plan, &replayed, "sampled stand-in");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Version-mismatch header: the whole stream is ignored and restarted; the
/// service cold-solves the workload.
#[test]
fn version_mismatch_header_recovers_cold() {
    let (service, request, dir) = recover_after_corruption("version", |dir| {
        for file in ["plans.log", "families.log", "journal.log"] {
            let path = dir.join(file);
            let text = std::fs::read_to_string(&path).unwrap();
            std::fs::write(
                &path,
                text.replace("crowdtune-store v1", "crowdtune-store v9"),
            )
            .unwrap();
        }
    });
    let recovery = service.recovery_stats().unwrap();
    assert_eq!(recovery.corrupt_streams, 3, "{recovery:?}");
    assert_eq!(recovery.loaded_plans, 0);
    assert_eq!(recovery.loaded_families, 0);
    let served = service.tune(request).unwrap();
    assert_eq!(served.source, PlanSource::ColdSolve);
    assert_eq!(service.metrics().cold_solves, 1);
    service.shutdown();
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The record lines of one stream file, its header excluded.
fn record_lines(dir: &Path, file: &str) -> Vec<String> {
    let text = std::fs::read_to_string(dir.join(file)).unwrap();
    text.lines().skip(1).map(str::to_owned).collect()
}

/// A clean stop adds no record the write path already wrote: after
/// `shutdown` the store holds one plan record per served plan and one
/// family record per seed or extension, and the restart answers every job
/// from the recovered cache without a cold solve.
#[test]
fn a_clean_shutdown_leaves_one_record_per_plan_seed_and_extension() {
    let dir = scratch_dir("once");
    let mut requests: Vec<JobRequest> = (0..16)
        .map(|seed| arbitrary_request(&mut StdRng::seed_from_u64(9100 + seed), "once"))
        .collect();
    // An RA budget ladder: a seed, an extension, a prefix read, an extension.
    let mut set = TaskSet::new();
    let ty = set.add_type("vote", 2.0).unwrap();
    set.add_tasks(ty, 3, 4).unwrap();
    set.add_tasks(ty, 5, 4).unwrap();
    let ladder = JobRequest {
        tenant: "once".to_owned(),
        market: MarketId::DEFAULT,
        task_set: set,
        budget: Budget::units(120),
        rate_model: Arc::new(LinearRate::new(1.5, 0.5).unwrap()),
        strategy: StrategyChoice::Auto,
    };
    for budget in [120u64, 300, 90, 420] {
        requests.push(hot_with_budget(&ladder, budget));
    }
    let mut before = Vec::new();
    {
        let service = TuningService::recover(service_config(), &dir).unwrap();
        for request in &requests {
            before.push((*service.tune(request.clone()).unwrap().plan).clone());
        }
        let metrics = service.metrics();
        let families = service.family_stats();
        let plans = service.cache_stats().entries;
        assert_eq!(plans, metrics.cold_solves + metrics.family_hits);
        assert!(families.extensions >= 2, "{families:?}");
        service.shutdown();
        assert_eq!(record_lines(&dir, "plans.log").len() as u64, plans);
        assert_eq!(
            record_lines(&dir, "families.log").len() as u64,
            families.builds + families.extensions,
            "{families:?}"
        );
    }
    let service = TuningService::recover(service_config(), &dir).unwrap();
    for (i, (request, expected)) in requests.iter().zip(&before).enumerate() {
        let served = service.tune(request.clone()).unwrap();
        assert_eq!(served.source, PlanSource::CacheHit, "job {i}");
        assert_plans_bit_identical(&served.plan, expected, &format!("job {i}"));
    }
    assert_eq!(service.metrics().cold_solves, 0);
    service.shutdown();
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Fails every append to the plans stream while armed.
struct PlanOutage(AtomicBool);

impl WriteFault for PlanOutage {
    fn before_write(&self, stream: &str, _bytes: &[u8]) -> std::io::Result<()> {
        if stream == "plans" && self.0.load(Ordering::Acquire) {
            return Err(std::io::Error::other("injected plan outage"));
        }
        Ok(())
    }
}

/// Backoff without waiting.
struct NoSleep;

impl Sleeper for NoSleep {
    fn sleep(&self, _duration: Duration) {}
}

/// When the write path lost a plan record, the shutdown flush re-records
/// the working set: the failed plan is written at the stop and the restart
/// serves it from the recovered cache.
#[test]
fn a_shutdown_after_a_failed_plan_write_re_records_the_plan() {
    let dir = scratch_dir("lost-plan");
    let request = arbitrary_request(&mut StdRng::seed_from_u64(9200), "lost");
    let outage = Arc::new(PlanOutage(AtomicBool::new(true)));
    let served = {
        let options = StoreOptions {
            write_fault: Some(outage.clone()),
            sleeper: Arc::new(NoSleep),
            ..StoreOptions::default()
        };
        let service = TuningService::recover_with(service_config(), &dir, options).unwrap();
        let served = service.tune(request.clone()).unwrap();
        assert_eq!(served.source, PlanSource::ColdSolve);
        let deadline = Instant::now() + Duration::from_secs(10);
        while service.store_stats().unwrap().write_errors == 0 {
            assert!(Instant::now() < deadline, "the plan write never failed");
            std::thread::sleep(Duration::from_millis(1));
        }
        outage.0.store(false, Ordering::Release);
        service.shutdown();
        served
    };
    assert_eq!(record_lines(&dir, "plans.log").len(), 1);
    let service = TuningService::recover(service_config(), &dir).unwrap();
    let again = service.tune(request).unwrap();
    assert_eq!(again.source, PlanSource::CacheHit);
    assert_plans_bit_identical(&again.plan, &served.plan, "re-recorded plan");
    assert_eq!(service.metrics().cold_solves, 0);
    service.shutdown();
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A spec-less model that panics when sampled fails its own job on a
/// durable service, as on an in-memory one: the submit returns a handle,
/// the job ends `WorkerPanic`, and the journal holds no record of it.
#[test]
fn a_panicking_spec_less_model_fails_its_job_not_the_submitter() {
    struct Hostile;
    impl RateModel for Hostile {
        fn on_hold_rate(&self, _payment_units: f64) -> f64 {
            panic!("hostile rate model")
        }
        fn describe(&self) -> String {
            "hostile curve".to_owned()
        }
    }
    let dir = scratch_dir("hostile");
    let mut set = TaskSet::new();
    let ty = set.add_type("vote", 2.0).unwrap();
    set.add_tasks(ty, 3, 2).unwrap();
    let service = TuningService::recover(service_config(), &dir).unwrap();
    let handle = service
        .submit(JobRequest {
            tenant: "acme".to_owned(),
            market: MarketId::DEFAULT,
            task_set: set,
            budget: Budget::units(40),
            rate_model: Arc::new(Hostile),
            strategy: StrategyChoice::Auto,
        })
        .unwrap();
    match handle.wait() {
        Err(ServeError::WorkerPanic { detail }) => {
            assert!(detail.contains("hostile rate model"), "{detail}");
        }
        other => panic!("expected WorkerPanic, got {other:?}"),
    }
    assert_eq!(service.metrics().worker_panics, 1);
    service.shutdown();
    let journal = record_lines(&dir, "journal.log");
    assert!(
        !journal.iter().any(|line| line.contains("Submitted")),
        "the job must not be journaled: {journal:?}"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Holds the writer inside its first append until the release sender is
/// dropped; every later append passes straight through.
struct HeldWriter {
    entered: std::sync::Mutex<std::sync::mpsc::Sender<()>>,
    release: std::sync::Mutex<std::sync::mpsc::Receiver<()>>,
}

impl WriteFault for HeldWriter {
    fn before_write(&self, _stream: &str, _bytes: &[u8]) -> std::io::Result<()> {
        let _ = self.entered.lock().unwrap().send(());
        let _ = self.release.lock().unwrap().recv();
        Ok(())
    }
}

/// When drop-oldest shed a plan record, the shutdown flush re-records the
/// working set: with the writer held and a two-record queue, the second
/// job's plan record is shed by the third job's records, and the restart
/// still serves every job from the recovered cache.
#[test]
fn a_shutdown_after_a_shed_plan_record_re_records_the_plan() {
    let dir = scratch_dir("shed-plan");
    let jobs: Vec<JobRequest> = (0..3)
        .map(|seed| arbitrary_request(&mut StdRng::seed_from_u64(9300 + seed), "shed"))
        .collect();
    let (entered_tx, entered) = std::sync::mpsc::channel();
    let (release, release_rx) = std::sync::mpsc::channel::<()>();
    let options = StoreOptions {
        queue_capacity: 2,
        write_fault: Some(Arc::new(HeldWriter {
            entered: std::sync::Mutex::new(entered_tx),
            release: std::sync::Mutex::new(release_rx),
        })),
        ..StoreOptions::default()
    };
    let mut before = Vec::new();
    {
        let service = TuningService::recover_with(service_config(), &dir, options).unwrap();
        // The first job's first record takes the writer into its held append.
        before.push(service.tune(jobs[0].clone()).unwrap().plan);
        entered.recv().unwrap();
        // Six more records into a two-record queue: at least four are shed,
        // the second job's plan among them.
        for job in &jobs[1..] {
            before.push(service.tune(job.clone()).unwrap().plan);
        }
        assert!(service.store_stats().unwrap().dropped >= 4);
        drop(release);
        service.shutdown();
    }
    let service = TuningService::recover(service_config(), &dir).unwrap();
    for (i, (job, expected)) in jobs.iter().zip(&before).enumerate() {
        let served = service.tune(job.clone()).unwrap();
        assert_eq!(served.source, PlanSource::CacheHit, "job {i}");
        assert_plans_bit_identical(&served.plan, expected, &format!("job {i}"));
    }
    service.shutdown();
    std::fs::remove_dir_all(&dir).unwrap();
}
