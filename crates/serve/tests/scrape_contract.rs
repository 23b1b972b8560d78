//! The scrape contract: counters are monotone across scrapes taken under
//! concurrent load, and cross-counter invariants hold within one scrape —
//! a reader can never observe "torn" totals like
//! `cache_hits + family_hits + cold_solves > submitted`.

use crowdtune_core::money::Budget;
use crowdtune_core::rate::LinearRate;
use crowdtune_core::task::TaskSet;
use crowdtune_core::tuner::StrategyChoice;
use crowdtune_serve::{JobRequest, MarketId, ObsLevel, ServiceConfig, TuningService};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

fn request(tenant: &str, reps: u32, tasks: usize, budget: u64) -> JobRequest {
    let mut set = TaskSet::new();
    let ty = set.add_type("vote", 2.0).unwrap();
    set.add_tasks(ty, reps, tasks).unwrap();
    JobRequest {
        tenant: tenant.to_owned(),
        market: MarketId::DEFAULT,
        task_set: set,
        budget: Budget::units(budget),
        rate_model: Arc::new(LinearRate::unit_slope()),
        strategy: StrategyChoice::Auto,
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

/// Hammers the service from several submitter threads while a scraper
/// thread snapshots metrics as fast as it can; every snapshot must satisfy
/// the monotonicity and parts-before-whole invariants.
#[test]
fn counters_are_monotone_and_untorn_under_concurrent_load() {
    let service = Arc::new(TuningService::start(ServiceConfig {
        workers: 4,
        ..ServiceConfig::default()
    }));
    let stop = Arc::new(AtomicBool::new(false));

    let scraper = {
        let service = Arc::clone(&service);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut scrapes = 0u64;
            let mut last = service.metrics();
            while !stop.load(Ordering::Relaxed) {
                let snap = service.metrics();
                // Per-counter monotonicity across scrapes.
                assert!(snap.submitted >= last.submitted, "submitted went backwards");
                assert!(snap.rejected >= last.rejected, "rejected went backwards");
                assert!(
                    snap.cache_hits >= last.cache_hits,
                    "cache_hits went backwards"
                );
                assert!(
                    snap.family_hits >= last.family_hits,
                    "family_hits went backwards"
                );
                assert!(
                    snap.cold_solves >= last.cold_solves,
                    "cold_solves went backwards"
                );
                // The cross-counter invariant within one scrape: every
                // answered/failed job was submitted first, and the snapshot
                // reads the parts before the whole.
                assert!(
                    snap.completed() + snap.solve_errors <= snap.submitted,
                    "torn scrape: {} answered + {} failed > {} submitted",
                    snap.completed(),
                    snap.solve_errors,
                    snap.submitted,
                );
                last = snap;
                scrapes += 1;
            }
            scrapes
        })
    };

    let submitters: Vec<_> = (0..4)
        .map(|t| {
            let service = Arc::clone(&service);
            std::thread::spawn(move || {
                // Mix of cacheable repeats, RA-family budgets, and cold
                // shapes so every source counter moves.
                for round in 0..40u64 {
                    let budget = 80 + (round % 4) * 20;
                    let _ = service
                        .tune(request(&format!("tenant-{t}"), 3, 4, budget))
                        .unwrap();
                    let mut set = TaskSet::new();
                    let ty = set.add_type("vote", 2.0).unwrap();
                    set.add_tasks(ty, 2, 3).unwrap();
                    set.add_tasks(ty, 4, 3).unwrap();
                    let _ = service
                        .tune(JobRequest {
                            tenant: format!("tenant-{t}"),
                            market: MarketId::DEFAULT,
                            task_set: set,
                            budget: Budget::units(60 + (round % 8) * 10),
                            rate_model: Arc::new(LinearRate::unit_slope()),
                            strategy: StrategyChoice::Auto,
                        })
                        .unwrap();
                }
            })
        })
        .collect();
    for submitter in submitters {
        submitter.join().expect("submitter panicked");
    }
    stop.store(true, Ordering::Relaxed);
    let scrapes = scraper.join().expect("scraper panicked");
    assert!(scrapes > 0, "the scraper never ran");

    // Final totals are exact once the load stops.
    let snap = service.metrics();
    assert_eq!(snap.submitted, 4 * 40 * 2);
    assert_eq!(snap.completed(), snap.submitted);
}

/// The rendered exposition agrees with the stats snapshots, and the stage
/// histograms and the slowest kept traces actually filled.
#[test]
fn rendered_expositions_match_snapshots() {
    let service = TuningService::start(ServiceConfig {
        workers: 2,
        ..ServiceConfig::default()
    });
    for budget in [120, 90, 240, 120] {
        service.tune(request("acme", 3, 4, budget)).unwrap();
    }
    // A second repetition class routes through the family layer.
    for budget in [100, 64, 100] {
        let mut set = TaskSet::new();
        let ty = set.add_type("vote", 2.0).unwrap();
        set.add_tasks(ty, 2, 3).unwrap();
        set.add_tasks(ty, 4, 3).unwrap();
        service
            .tune(JobRequest {
                tenant: "acme".to_owned(),
                market: MarketId::DEFAULT,
                task_set: set,
                budget: Budget::units(budget),
                rate_model: Arc::new(LinearRate::unit_slope()),
                strategy: StrategyChoice::Auto,
            })
            .unwrap();
    }
    let snap = service.metrics();
    let cache = service.cache_stats();
    // Traces fold into the histograms *after* the response is delivered
    // (off the submitter's latency path), so wait for the last one to land:
    // the histogram count may briefly trail the counter, never exceed it.
    let total_samples = |text: &str| -> u64 {
        text.lines()
            .filter(|l| l.starts_with("crowdtune_job_total_seconds_count"))
            .map(|l| l.rsplit_once(' ').unwrap().1.parse::<u64>().unwrap())
            .sum()
    };
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    let text = loop {
        let text = service.render_prometheus();
        let landed = total_samples(&text);
        assert!(
            landed <= snap.completed(),
            "histogram count {landed} exceeds completed {}",
            snap.completed()
        );
        if landed == snap.completed() {
            break text;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "trace fold-in never settled ({landed} of {})",
            snap.completed()
        );
        std::thread::yield_now();
    };

    assert_eq!(
        prom_value(&text, "crowdtune_jobs_submitted_total", ""),
        Some(snap.submitted)
    );
    assert_eq!(
        prom_value(&text, "crowdtune_jobs_answered_total", "source=\"cache\""),
        Some(snap.cache_hits)
    );
    assert_eq!(
        prom_value(&text, "crowdtune_jobs_answered_total", "source=\"family\""),
        Some(snap.family_hits)
    );
    assert_eq!(
        prom_value(&text, "crowdtune_jobs_answered_total", "source=\"cold\""),
        Some(snap.cold_solves)
    );
    assert_eq!(
        prom_value(&text, "crowdtune_cache_hits_total", ""),
        Some(cache.hits)
    );
    assert_eq!(
        prom_value(&text, "crowdtune_cache_entries", ""),
        Some(cache.entries)
    );
    // The slowest kept traces are complete and listed slowest first.
    let slowest = service.slowest_traces();
    assert!(!slowest.is_empty(), "no traces retained");
    let mut last_total = u64::MAX;
    for trace in &slowest {
        assert!(trace.total_ns() <= last_total, "slowest traces not sorted");
        last_total = trace.total_ns();
        assert!(!trace.scenario.is_empty() && !trace.source.is_empty());
        assert!(trace.completed_ns >= trace.solve_start_ns);
        assert!(trace.dequeued_ns >= trace.enqueued_ns);
    }
    service.shutdown();
}

/// With telemetry off, traces stay empty and stage histograms never fill —
/// but the counter surfaces (and the scrape itself) still work.
#[test]
fn telemetry_off_keeps_counters_but_records_no_traces() {
    let service = TuningService::start(ServiceConfig {
        workers: 1,
        obs: ObsLevel::Off,
        ..ServiceConfig::default()
    });
    assert!(!service.telemetry_enabled());
    for _ in 0..3 {
        service.tune(request("acme", 3, 4, 80)).unwrap();
    }
    assert!(service.slowest_traces().is_empty());
    let text = service.render_prometheus();
    assert_eq!(
        prom_value(&text, "crowdtune_jobs_submitted_total", ""),
        Some(3)
    );
    let total_count: u64 = text
        .lines()
        .filter(|l| l.starts_with("crowdtune_job_total_seconds_count"))
        .map(|l| l.rsplit_once(' ').unwrap().1.parse::<u64>().unwrap())
        .sum();
    assert_eq!(total_count, 0, "stage histograms must stay empty");
    service.shutdown();
}

/// Persist-lag histograms fill when a durable store is attached: the lag
/// probe rides the write-behind record and is stamped by the writer.
#[test]
fn persist_lag_is_recorded_with_a_store() {
    let dir = std::env::temp_dir().join(format!("crowdtune-scrape-lag-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let service = TuningService::recover(
        ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        },
        &dir,
    )
    .expect("open store");
    for budget in [80, 100, 120] {
        service.tune(request("acme", 3, 4, budget)).unwrap();
    }
    service.flush_store();
    let text = service.render_prometheus();
    let lag_count: u64 = text
        .lines()
        .filter(|l| l.starts_with("crowdtune_job_persist_lag_seconds_count"))
        .map(|l| l.rsplit_once(' ').unwrap().1.parse::<u64>().unwrap())
        .sum();
    assert!(lag_count >= 1, "no persist-lag samples recorded:\n{text}");
    // Store parts-before-whole: retired never exceeds enqueued in a scrape.
    let retired = prom_value(&text, "crowdtune_store_retired_total", "").unwrap();
    let enqueued = prom_value(&text, "crowdtune_store_enqueued_total", "").unwrap();
    assert!(
        retired <= enqueued,
        "retired {retired} > enqueued {enqueued}"
    );
    service.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
