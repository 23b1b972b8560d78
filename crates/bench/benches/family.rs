//! Budget-ladder benchmark of cross-job solve reuse (`dp_family`): many
//! tenants submit the *same* fig2-sized RA workload at a *spread of
//! budgets*. Without plan families every job pays a full cold solve; with
//! them the first job seeds a shared budget-indexed `DpTable` and every
//! other budget is a prefix read (budget below the table's coverage) or an
//! in-place warm-start extension (budget above it).
//!
//! Two levels are reported, both as medians over rounds with fresh rate
//! curves (so every "cold" number really is cold — the process-wide
//! interned latency tables are keyed by curve):
//!
//! * **serve level** — `PlanFamilies::serve` vs a cold `Tuner::plan`: what a
//!   job actually costs end to end, latency estimates included;
//! * **solve level** — the table read/extension alone vs the cold RA solve:
//!   the DP work the family layer removes.
//!
//! Results are printed and written to `BENCH_family.json` (override the
//! path with `BENCH_FAMILY_JSON`). Family-served plans are asserted
//! bit-identical to cold solves for every measured budget before any timing
//! is recorded.
//!
//! Set `CROWDTUNE_BENCH_QUICK=1` for the reduced CI smoke version.

use criterion::{criterion_group, criterion_main, Criterion};
use crowdtune_core::algorithms::RepetitionAlgorithm;
use crowdtune_core::money::Budget;
use crowdtune_core::problem::{HTuningProblem, TuningStrategy};
use crowdtune_core::rate::LinearRate;
use crowdtune_core::task::TaskSet;
use crowdtune_core::tuner::{StrategyChoice, TunedPlan, Tuner};
use crowdtune_serve::{FamilyFingerprint, FamilyServe, PlanFamilies};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

fn quick_mode() -> bool {
    std::env::var("CROWDTUNE_BENCH_QUICK").is_ok_and(|v| v != "0" && !v.is_empty())
}

/// The paper's Figure 2 Scenario-II shape: 100 tasks, half needing 3
/// repetitions, half 5, identical difficulty.
fn fig2_task_set() -> TaskSet {
    let mut set = TaskSet::new();
    let ty = set.add_type("vote", 2.0).unwrap();
    set.add_tasks(ty, 3, 50).unwrap();
    set.add_tasks(ty, 5, 50).unwrap();
    set
}

fn problem(set: &TaskSet, budget: u64, model: &Arc<LinearRate>) -> HTuningProblem {
    HTuningProblem::new(set.clone(), Budget::units(budget), model.clone()).unwrap()
}

fn median(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(|a, b| a.total_cmp(b));
    samples[samples.len() / 2]
}

fn assert_bit_identical(served: &TunedPlan, cold: &TunedPlan, context: &str) {
    assert_eq!(
        served.result.allocation, cold.result.allocation,
        "{context}"
    );
    assert_eq!(
        served.result.objective.unwrap().to_bits(),
        cold.result.objective.unwrap().to_bits(),
        "{context}"
    );
    assert_eq!(
        served.expected_latency.to_bits(),
        cold.expected_latency.to_bits(),
        "{context}"
    );
}

struct Row {
    budget: u64,
    kind: &'static str,
    cold_serve_ns: f64,
    family_serve_ns: f64,
    cold_solve_ns: f64,
    /// `None` for the seed row: seeding *is* the cold solve.
    family_solve_ns: Option<f64>,
}

fn bench_family_ladder(_c: &mut Criterion) {
    let quick = quick_mode();
    let rounds = if quick { 3 } else { 9 };
    // Ladder order matters: the first budget seeds the family, budgets below
    // it are prefix reads, budgets above it extend the table in place.
    let ladder: &[(u64, &'static str)] = &[
        (3000, "seed"),
        (1000, "prefix"),
        (2000, "prefix"),
        (4000, "extend"),
        (5000, "extend"),
    ];
    let set = fig2_task_set();
    let strategy = StrategyChoice::RepetitionAlgorithm;

    // Correctness gate before timing: family answers across the whole
    // ladder are bit-identical to cold solves.
    {
        let model = Arc::new(LinearRate::new(1.0, 1.0).unwrap());
        let families = PlanFamilies::new(4);
        for &(budget, _) in ladder {
            let p = problem(&set, budget, &model);
            let (plan, _, _) = families
                .serve(FamilyFingerprint::of(&p, strategy), &p)
                .unwrap();
            let cold = Tuner::new(model.clone())
                .plan(set.clone(), Budget::units(budget))
                .unwrap();
            assert_bit_identical(&plan, &cold, &format!("budget {budget}"));
        }
    }

    // Each measured sample gets a fresh curve (unique slope) so its cold
    // numbers pay the full latency-table integrations, exactly like the
    // first-ever job over that curve.
    let mut next_curve = 0u64;
    let mut fresh_model = move || {
        next_curve += 1;
        Arc::new(LinearRate::new(1.0 + next_curve as f64 * 1e-6, 1.0).unwrap())
    };

    let mut rows: Vec<Row> = Vec::new();
    for (index, &(budget, kind)) in ladder.iter().enumerate() {
        let mut cold_serve = Vec::new();
        let mut family_serve = Vec::new();
        let mut cold_solve = Vec::new();
        let mut family_solve = Vec::new();
        for _ in 0..rounds {
            // Cold baselines: fresh curves per sample so the latency-table
            // integrations are genuinely cold.
            let model = fresh_model();
            let start = Instant::now();
            let plan = Tuner::new(model.clone())
                .with_strategy(strategy)
                .plan(set.clone(), Budget::units(budget))
                .unwrap();
            cold_serve.push(start.elapsed().as_secs_f64() * 1e9);
            black_box(plan);
            let model = fresh_model();
            let p_solve = problem(&set, budget, &model);
            let start = Instant::now();
            let result = RepetitionAlgorithm::new().tune(&p_solve).unwrap();
            cold_solve.push(start.elapsed().as_secs_f64() * 1e9);
            black_box(result);

            if index == 0 {
                // The seed row measures the family build itself (a cold
                // solve plus table retention).
                let model = fresh_model();
                let families = PlanFamilies::new(4);
                let p = problem(&set, budget, &model);
                let key = FamilyFingerprint::of(&p, strategy);
                let start = Instant::now();
                let (plan, how, _) = families.serve(key, &p).unwrap();
                family_serve.push(start.elapsed().as_secs_f64() * 1e9);
                assert_eq!(how, FamilyServe::Seeded);
                black_box(plan);
            } else {
                // Serve level: seed the family at the ladder head with a
                // fresh curve, then time serving this budget from it.
                let model = fresh_model();
                let families = PlanFamilies::new(4);
                let seed_problem = problem(&set, ladder[0].0, &model);
                let key = FamilyFingerprint::of(&seed_problem, strategy);
                let (_, how, _) = families.serve(key, &seed_problem).unwrap();
                assert_eq!(how, FamilyServe::Seeded);
                let p = problem(&set, budget, &model);
                let start = Instant::now();
                let (plan, how, _) = families.serve(key, &p).unwrap();
                family_serve.push(start.elapsed().as_secs_f64() * 1e9);
                assert_eq!(how, FamilyServe::Hit);
                black_box(plan);

                // Solve level: the table read (and, for "extend" rows, the
                // warm-start growth the first job at that budget pays)
                // without the latency estimates — measured on a fresh table
                // so the extension cost is not already paid.
                let model = fresh_model();
                let p0 = problem(&set, ladder[0].0, &model);
                let (_, mut table) = RepetitionAlgorithm::new().tune_with_table(&p0).unwrap();
                let p = problem(&set, budget, &model);
                let start = Instant::now();
                RepetitionAlgorithm::extend_table(&p, &mut table).unwrap();
                let result = RepetitionAlgorithm::result_from_table(&p, &table).unwrap();
                family_solve.push(start.elapsed().as_secs_f64() * 1e9);
                black_box(result);
            }
        }
        rows.push(Row {
            budget,
            kind,
            cold_serve_ns: median(cold_serve),
            family_serve_ns: median(family_serve),
            cold_solve_ns: median(cold_solve),
            family_solve_ns: (!family_solve.is_empty()).then(|| median(family_solve)),
        });
    }

    let mut serve_speedups = Vec::new();
    let mut solve_speedups = Vec::new();
    for row in &rows {
        let serve_speedup = row.cold_serve_ns / row.family_serve_ns;
        println!(
            "dp_family/fig2_ra/budget/{:<5} [{:>6}] cold serve {:>10.0} ns | family serve \
             {:>10.0} ns ({serve_speedup:>5.1}x) | cold solve {:>10.0} ns | family solve \
             {:>10.0} ns",
            row.budget,
            row.kind,
            row.cold_serve_ns,
            row.family_serve_ns,
            row.cold_solve_ns,
            row.family_solve_ns.unwrap_or(f64::NAN),
        );
        if let Some(family_solve_ns) = row.family_solve_ns {
            serve_speedups.push(serve_speedup);
            solve_speedups.push(row.cold_solve_ns / family_solve_ns);
        }
    }
    let median_serve_speedup = median(serve_speedups);
    let median_solve_speedup = median(solve_speedups);
    println!(
        "dp_family: family-hit median speedup vs per-job cold: {median_serve_speedup:.1}x \
         end-to-end (latency estimates included), {median_solve_speedup:.1}x solve-only"
    );

    let json_path = std::env::var("BENCH_FAMILY_JSON").unwrap_or_else(|_| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_family.json").to_owned()
    });
    let mut json = String::from("{\n  \"bench\": \"dp_family_budget_ladder_fig2_ra\",\n");
    json.push_str(&format!("  \"quick\": {quick},\n"));
    json.push_str(&format!(
        "  \"median_family_hit_speedup_end_to_end\": {median_serve_speedup:.2},\n"
    ));
    json.push_str(&format!(
        "  \"median_family_hit_speedup_solve_only\": {median_solve_speedup:.2},\n  \"results\": [\n"
    ));
    for (idx, row) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"budget\": {}, \"kind\": \"{}\", \"cold_serve_ns\": {:.0}, \
             \"family_serve_ns\": {:.0}, \"serve_speedup\": {:.2}, \"cold_solve_ns\": {:.0}, \
             \"family_solve_ns\": {}}}{}",
            row.budget,
            row.kind,
            row.cold_serve_ns,
            row.family_serve_ns,
            row.cold_serve_ns / row.family_serve_ns,
            row.cold_solve_ns,
            row.family_solve_ns
                .map_or_else(|| "null".to_owned(), |ns| format!("{ns:.0}")),
            if idx + 1 < rows.len() { ",\n" } else { "\n" }
        ));
    }
    json.push_str("  ]\n}\n");
    if let Err(err) = std::fs::write(&json_path, json) {
        eprintln!("dp_family: could not write {json_path}: {err}");
    } else {
        println!("dp_family: wrote {json_path}");
    }
}

criterion_group!(benches, bench_family_ladder);
criterion_main!(benches);
