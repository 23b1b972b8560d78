//! Criterion micro-benchmarks of the tuning algorithms themselves: how long
//! EA, RA and HA take as the budget and the task count grow (the paper's
//! complexity claims: EA is O(1), RA and HA are O(n·B')), plus a
//! before/after comparison of the marginal DP scan itself (`dp_scan`): the
//! clone-based reference DP that shipped first, the current closure path,
//! and the incremental separable path (O(1) per candidate). The `dp_scan`
//! comparison also writes its medians to `BENCH_dp.json` so CI can record
//! the performance trajectory.
//!
//! Set `CROWDTUNE_BENCH_QUICK=1` to run a reduced-iteration smoke version
//! (used by the CI bench-smoke step).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use crowdtune_core::algorithms::{
    marginal_budget_dp, marginal_budget_dp_separable, EvenAllocation, GroupLatencyCache,
    HeterogeneousAlgorithm, RepetitionAlgorithm,
};
use crowdtune_core::error::Result as CoreResult;
use crowdtune_core::money::Budget;
use crowdtune_core::problem::{HTuningProblem, TuningStrategy};
use crowdtune_core::rate::{LinearRate, RateModel};
use crowdtune_core::task::TaskSet;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Reduced-iteration smoke mode for CI: fewer budgets and samples, same
/// code paths.
fn quick_mode() -> bool {
    std::env::var("CROWDTUNE_BENCH_QUICK").is_ok_and(|v| v != "0" && !v.is_empty())
}

fn homogeneous_problem(tasks: usize, budget: u64) -> HTuningProblem {
    let mut set = TaskSet::new();
    let ty = set.add_type("vote", 2.0).unwrap();
    set.add_tasks(ty, 5, tasks).unwrap();
    HTuningProblem::new(
        set,
        Budget::units(budget),
        Arc::new(LinearRate::unit_slope()),
    )
    .unwrap()
}

/// The paper's Figure 2 Scenario-II shape: half the tasks need 3
/// repetitions, half 5, identical difficulty (the paper uses 100 tasks and
/// budgets 1000..5000).
fn repetition_problem(tasks: usize, budget: u64) -> HTuningProblem {
    let mut set = TaskSet::new();
    let ty = set.add_type("vote", 2.0).unwrap();
    set.add_tasks(ty, 3, tasks / 2).unwrap();
    set.add_tasks(ty, 5, tasks - tasks / 2).unwrap();
    HTuningProblem::new(
        set,
        Budget::units(budget),
        Arc::new(LinearRate::unit_slope()),
    )
    .unwrap()
}

fn heterogeneous_problem(tasks: usize, budget: u64) -> HTuningProblem {
    let mut set = TaskSet::new();
    let easy = set.add_type("easy", 2.0).unwrap();
    let hard = set.add_type("hard", 3.0).unwrap();
    set.add_tasks(easy, 3, tasks / 2).unwrap();
    set.add_tasks(hard, 5, tasks - tasks / 2).unwrap();
    HTuningProblem::new(
        set,
        Budget::units(budget),
        Arc::new(LinearRate::unit_slope()),
    )
    .unwrap()
}

fn bench_even_allocation(c: &mut Criterion) {
    let mut group = c.benchmark_group("even_allocation");
    group.sample_size(if quick_mode() { 5 } else { 20 });
    let sizes: &[usize] = if quick_mode() { &[100] } else { &[100, 1000] };
    for &tasks in sizes {
        let problem = homogeneous_problem(tasks, tasks as u64 * 20);
        group.bench_with_input(BenchmarkId::new("tasks", tasks), &problem, |b, problem| {
            let strategy = EvenAllocation::new().without_objective();
            b.iter(|| strategy.tune(problem).unwrap());
        });
    }
    group.finish();
}

fn bench_repetition_algorithm(c: &mut Criterion) {
    let mut group = c.benchmark_group("repetition_algorithm");
    group.sample_size(if quick_mode() { 3 } else { 10 });
    let budgets: &[u64] = if quick_mode() {
        &[1000]
    } else {
        &[1000, 2000, 4000]
    };
    for &budget in budgets {
        let problem = repetition_problem(100, budget);
        group.bench_with_input(
            BenchmarkId::new("budget", budget),
            &problem,
            |b, problem| {
                let strategy = RepetitionAlgorithm::new();
                b.iter(|| strategy.tune(problem).unwrap());
            },
        );
    }
    group.finish();
}

fn bench_heterogeneous_algorithm(c: &mut Criterion) {
    let mut group = c.benchmark_group("heterogeneous_algorithm");
    group.sample_size(if quick_mode() { 3 } else { 10 });
    let budgets: &[u64] = if quick_mode() { &[1000] } else { &[1000, 2000] };
    for &budget in budgets {
        let problem = heterogeneous_problem(100, budget);
        group.bench_with_input(
            BenchmarkId::new("budget", budget),
            &problem,
            |b, problem| {
                let strategy = HeterogeneousAlgorithm::new();
                b.iter(|| strategy.tune(problem).unwrap());
            },
        );
    }
    group.finish();
}

/// Faithful copy of the marginal DP as it first shipped (PR 1): a full
/// `(payments, objective, spent)` state per budget level, with a `Vec`
/// clone and an O(n) objective evaluation per candidate. Kept here — not in
/// the library — purely as the "before" side of the `dp_scan` comparison.
fn reference_dp_pr1<F>(unit_costs: &[u64], extra_budget: u64, mut objective: F) -> CoreResult<f64>
where
    F: FnMut(&[u64]) -> CoreResult<f64>,
{
    let base = vec![1u64; unit_costs.len()];
    let base_objective = objective(&base)?;
    let mut states: Vec<(Vec<u64>, f64, u64)> = Vec::with_capacity(extra_budget as usize + 1);
    states.push((base, base_objective, 0));
    for x in 1..=extra_budget {
        let mut best = states[(x - 1) as usize].clone();
        for (i, &u) in unit_costs.iter().enumerate() {
            if u <= x {
                let prev = &states[(x - u) as usize];
                let mut candidate = prev.0.clone();
                candidate[i] += 1;
                let value = objective(&candidate)?;
                let spent = prev.2 + u;
                let epsilon = 1e-12 * value.abs().max(1.0);
                if value < best.1 - epsilon || (value <= best.1 + epsilon && spent > best.2) {
                    best = (candidate, value, spent);
                }
            }
        }
        states.push(best);
    }
    Ok(states[extra_budget as usize].1)
}

/// RA's group-sum objective (`Σ_i E_i(p_i)`) over the warm latency cache —
/// the closure-path form of what `dp_scan` measures.
fn group_sum<M: RateModel + ?Sized>(
    cache: &GroupLatencyCache<'_, M>,
    payments: &[u64],
) -> CoreResult<f64> {
    let mut sum = 0.0;
    for (i, &p) in payments.iter().enumerate() {
        sum += cache.phase1(i, p)?;
    }
    Ok(sum)
}

/// Median wall-clock nanoseconds of `samples` runs of `f`.
fn median_ns<F: FnMut()>(samples: usize, mut f: F) -> f64 {
    let mut times: Vec<f64> = (0..samples)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_secs_f64() * 1e9
        })
        .collect();
    times.sort_by(|a, b| a.total_cmp(b));
    times[times.len() / 2]
}

/// Before/after comparison of the DP scan on fig2-sized RA problems. The
/// expected-latency tables are fully warmed first, so the numbers isolate
/// the scan itself (the part the separable rework targets) from the
/// numerical integrations. Results are printed and written to
/// `BENCH_dp.json` (override the path with `BENCH_DP_JSON`).
fn bench_dp_scan(_c: &mut Criterion) {
    let quick = quick_mode();
    let budgets: &[u64] = if quick {
        &[1000, 3000]
    } else {
        &[1000, 3000, 5000]
    };
    let samples = if quick { 7 } else { 31 };
    let mut rows = Vec::new();
    for &budget in budgets {
        let problem = repetition_problem(100, budget);
        let groups = problem.task_set().group_by_repetitions();
        let unit_costs: Vec<u64> = groups.iter().map(|g| g.unit_increment_cost()).collect();
        let extra_budget = problem.discretionary_budget();
        let rate_model = problem.rate_model().clone();

        // Warm every (group, payment) pair the scan can reach, so the bench
        // measures the DP itself rather than the integrations.
        let cache = GroupLatencyCache::new(&rate_model, &groups);
        for (i, &u) in unit_costs.iter().enumerate() {
            for payment in 1..=(1 + extra_budget / u) {
                cache.phase1(i, payment).unwrap();
            }
        }

        // Sanity first: the two current paths agree bit-for-bit on the plan
        // (also serves as a warm-up for the timed runs below).
        let closure_outcome =
            marginal_budget_dp(&unit_costs, extra_budget, |p| group_sum(&cache, p)).unwrap();
        let separable_outcome =
            marginal_budget_dp_separable(&unit_costs, extra_budget, |group, payment| {
                cache.phase1(group, payment)
            })
            .unwrap();
        assert_eq!(closure_outcome.payments, separable_outcome.payments);
        assert_eq!(
            closure_outcome.objective.to_bits(),
            separable_outcome.objective.to_bits()
        );

        let reference_ns = median_ns(samples, || {
            let objective =
                reference_dp_pr1(&unit_costs, extra_budget, |p| group_sum(&cache, p)).unwrap();
            black_box(objective);
        });
        let closure_ns = median_ns(samples, || {
            let outcome =
                marginal_budget_dp(&unit_costs, extra_budget, |p| group_sum(&cache, p)).unwrap();
            black_box(outcome);
        });
        let separable_ns = median_ns(samples, || {
            let outcome =
                marginal_budget_dp_separable(&unit_costs, extra_budget, |group, payment| {
                    cache.phase1(group, payment)
                })
                .unwrap();
            black_box(outcome);
        });

        println!(
            "dp_scan/fig2_ra/budget/{budget:<5} reference {:>10.0} ns | closure {:>10.0} ns | \
             separable {:>10.0} ns | speedup vs reference {:>5.1}x, vs closure {:>4.1}x",
            reference_ns,
            closure_ns,
            separable_ns,
            reference_ns / separable_ns,
            closure_ns / separable_ns,
        );
        rows.push((budget, reference_ns, closure_ns, separable_ns));
    }

    // Default to the workspace root regardless of the invocation CWD (cargo
    // runs benches from the package directory).
    let json_path = std::env::var("BENCH_DP_JSON")
        .unwrap_or_else(|_| concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_dp.json").to_owned());
    let mut json = String::from("{\n  \"bench\": \"dp_scan_fig2_ra\",\n");
    json.push_str(&format!("  \"quick\": {quick},\n  \"results\": [\n"));
    for (idx, (budget, reference_ns, closure_ns, separable_ns)) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"budget\": {budget}, \"reference_ns\": {reference_ns:.0}, \
             \"closure_ns\": {closure_ns:.0}, \"separable_ns\": {separable_ns:.0}, \
             \"speedup_vs_reference\": {:.2}, \"speedup_vs_closure\": {:.2}}}{}",
            reference_ns / separable_ns,
            closure_ns / separable_ns,
            if idx + 1 < rows.len() { ",\n" } else { "\n" }
        ));
    }
    json.push_str("  ]\n}\n");
    if let Err(err) = std::fs::write(&json_path, json) {
        eprintln!("dp_scan: could not write {json_path}: {err}");
    } else {
        println!("dp_scan: wrote {json_path}");
    }
}

criterion_group!(
    benches,
    bench_even_allocation,
    bench_repetition_algorithm,
    bench_heterogeneous_algorithm,
    bench_dp_scan
);
criterion_main!(benches);
