//! Online mid-flight re-tuning on a drifting market.
//!
//! A requester probes the market during a quiet period and tunes a job (a
//! wide group of short task chains plus two long chains) against a *flat*
//! rate curve: payment barely matters under that belief, so the plan parks
//! the wide group at the one-unit minimum and funnels the spare budget into
//! the long chains. Mid-job the market regime switches to a *steep* curve —
//! payment now strongly drives acceptance, the one-unit wide group becomes
//! the bottleneck — and the offline plan has no way to react.
//!
//! Two runs of the same job on the same drifting market:
//!
//! * **tune-once** — the paper's pipeline: solve, post, wait;
//! * **re-tuned** — the same initial plan, but with a
//!   [`Retuner`](crowdtune_serve::Retuner) subscribed to the market's event
//!   stream: it re-estimates the rate curve from observed acceptance delays,
//!   detects the drift, re-solves the H-Tuning problem for the remaining
//!   repetitions and budget, and re-prices everything not yet published.
//!
//! The re-tuned arm must be no slower on average, and in this regime is
//! typically markedly faster.
//!
//! Run with: `cargo run --release --example online_retuning`

use crowdtune_bench::{compare_tune_once_vs_retuned, DriftScenario};

fn main() {
    // The wide-and-deep scenario: a flat probed belief parks the wide group
    // at the one-unit minimum and funnels spare budget into two deep chains;
    // mid-job the market turns steep and the wide group becomes the
    // bottleneck.
    let scenario = DriftScenario::wide_and_deep();
    let plan = scenario.offline_plan().unwrap();
    println!(
        "offline plan ({}): expects {:.2}s under the believed market",
        plan.result.strategy, plan.expected_latency
    );

    let trials = 300;
    let comparison = compare_tune_once_vs_retuned(&scenario, trials).unwrap();
    println!("drifting market, {trials} trials:");
    println!(
        "  tune-once mean job latency: {:8.2}s",
        comparison.tune_once_mean
    );
    println!(
        "  re-tuned  mean job latency: {:8.2}s  ({:+.1}%)",
        comparison.retuned_mean,
        -100.0 * comparison.latency_change()
    );
    println!("  re-tunes per job: {:.2}", comparison.retunes_per_job);

    assert!(
        comparison.retuned_mean <= comparison.tune_once_mean * 1.02,
        "re-tuning must not slow the job down: {comparison:?}"
    );
    println!("OK: re-tuned job is no slower than tune-once under drift");
}
