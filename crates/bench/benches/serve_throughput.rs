//! Service-level benchmark of `crowdtune-serve`: sustained job throughput
//! through the queue + worker pool, the plan-cache hit rate under realistic
//! (repetitive) tenant traffic, and the latency improvement delivered by
//! online re-tuning on a drifting market.
//!
//! Run with: `cargo bench -p crowdtune-bench --bench serve_throughput`.

use crowdtune_bench::{compare_tune_once_vs_retuned, DriftScenario};
use crowdtune_core::money::Budget;
use crowdtune_core::prelude::*;
use crowdtune_serve::{JobRequest, MarketId, ServiceConfig, TuningService};
use std::sync::Arc;
use std::time::Instant;

/// A small catalogue of workload shapes; tenant traffic cycles through it,
/// which is what makes a plan cache worth having.
fn workload(shape: usize) -> (TaskSet, Budget) {
    let mut set = TaskSet::new();
    match shape % 4 {
        0 => {
            let ty = set.add_type("filter vote", 2.0).unwrap();
            set.add_tasks(ty, 3, 30).unwrap();
            (set, Budget::units(270))
        }
        1 => {
            let ty = set.add_type("sort vote", 2.0).unwrap();
            set.add_tasks(ty, 3, 20).unwrap();
            set.add_tasks(ty, 5, 20).unwrap();
            (set, Budget::units(480))
        }
        2 => {
            let easy = set.add_type("easy", 3.0).unwrap();
            let hard = set.add_type("hard", 1.0).unwrap();
            set.add_tasks(easy, 3, 15).unwrap();
            set.add_tasks(hard, 5, 15).unwrap();
            (set, Budget::units(360))
        }
        _ => {
            let ty = set.add_type("max vote", 2.5).unwrap();
            set.add_tasks(ty, 4, 25).unwrap();
            (set, Budget::units(400))
        }
    }
}

fn request(tenant: usize, shape: usize) -> JobRequest {
    let (task_set, budget) = workload(shape);
    JobRequest {
        tenant: format!("tenant-{tenant}"),
        market: MarketId::DEFAULT,
        task_set,
        budget,
        rate_model: Arc::new(LinearRate::unit_slope()),
        strategy: StrategyChoice::Auto,
    }
}

fn bench_throughput() {
    let tenants = 16;
    let jobs_per_tenant = 50;
    let total_jobs = tenants * jobs_per_tenant;

    let service = Arc::new(TuningService::start(ServiceConfig::default()));
    let start = Instant::now();
    let joins: Vec<_> = (0..tenants)
        .map(|tenant| {
            let service = service.clone();
            std::thread::spawn(move || {
                for job in 0..jobs_per_tenant {
                    service
                        .tune(request(tenant, tenant + job))
                        .expect("job must be served");
                }
            })
        })
        .collect();
    for join in joins {
        join.join().unwrap();
    }
    let elapsed = start.elapsed();
    let stats = service.cache_stats();
    let throughput = total_jobs as f64 / elapsed.as_secs_f64();
    println!(
        "service throughput: {total_jobs} jobs from {tenants} tenants in {:.2?} -> {throughput:.0} jobs/s",
        elapsed
    );
    println!(
        "plan cache: {} hits / {} misses (hit rate {:.1}%), {} entries, {} evictions",
        stats.hits,
        stats.misses,
        100.0 * stats.hit_rate(),
        stats.entries,
        stats.evictions
    );
    assert!(
        stats.hit_rate() > 0.0,
        "repetitive traffic must produce cache hits"
    );

    // Same traffic with a cache too small to hold even one shape, as the
    // no-cache baseline.
    let cold = Arc::new(TuningService::start(ServiceConfig {
        cache_shards: 1,
        cache_capacity_per_shard: 1,
        ..ServiceConfig::default()
    }));
    let start = Instant::now();
    let joins: Vec<_> = (0..tenants)
        .map(|tenant| {
            let cold = cold.clone();
            std::thread::spawn(move || {
                for job in 0..jobs_per_tenant {
                    cold.tune(request(tenant, tenant + job)).unwrap();
                }
            })
        })
        .collect();
    for join in joins {
        join.join().unwrap();
    }
    let cold_elapsed = start.elapsed();
    println!(
        "without an effective cache: {:.2?} ({:.1}x slower)",
        cold_elapsed,
        cold_elapsed.as_secs_f64() / elapsed.as_secs_f64()
    );
}

fn bench_retuning_improvement() {
    // The drifting-market scenario shared with examples/online_retuning.rs.
    let scenario = DriftScenario::wide_and_deep();
    let trials = 120;
    let start = Instant::now();
    let comparison = compare_tune_once_vs_retuned(&scenario, trials).unwrap();
    println!(
        "online re-tuning under drift ({trials} trials, {:.2?}): tune-once {:.2}s, \
         re-tuned {:.2}s ({:+.1}% latency)",
        start.elapsed(),
        comparison.tune_once_mean,
        comparison.retuned_mean,
        100.0 * comparison.latency_change()
    );
}

fn main() {
    bench_throughput();
    bench_retuning_improvement();
}
