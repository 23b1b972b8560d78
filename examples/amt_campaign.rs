//! Running a tuned campaign against the AMT-like sandbox.
//!
//! ```bash
//! cargo run --release --example amt_campaign
//! ```
//!
//! The requester funds an account, creates dot-counting image-filter HITs of
//! two difficulty levels with a tuned reward split, executes the campaign on
//! the simulated marketplace, and reviews the assignments (workers are paid
//! only when their answers are correct, as in the paper's experiment).

use crowdtune_platform::dotimage::DotImageGenerator;
use crowdtune_platform::sandbox::{MturkSandbox, ReviewPolicy};
use crowdtune_platform::AmtCalibration;

fn main() {
    let calibration = AmtCalibration::paper();
    let fit = calibration.linearity_fit().expect("calibration fits");
    println!(
        "calibrated market: λo(c) = {:.5}·c + {:.5} (R² = {:.2})",
        fit.k, fit.b, fit.r_squared
    );

    // Fund the account with $20.00 and create two batches of HITs:
    // easy (4 votes) at $0.05 and hard (8 votes) at $0.08 — the higher reward
    // partially compensates the slower uptake of the harder tasks.
    let mut sandbox = MturkSandbox::new(2_000, 77);
    let mut generator = DotImageGenerator::new(3);
    let mut easy_hits = Vec::new();
    let mut hard_hits = Vec::new();
    for _ in 0..6 {
        let spec = generator.filter_hit(4, 12);
        easy_hits.push(sandbox.create_hit(spec, 5, 3).expect("funds reserved"));
    }
    for _ in 0..4 {
        let spec = generator.filter_hit(8, 12);
        hard_hits.push(sandbox.create_hit(spec, 8, 3).expect("funds reserved"));
    }
    println!(
        "created {} HITs; reserved {} cents of a {}-cent balance",
        sandbox.hits().len(),
        sandbox.account().reserved_cents,
        sandbox.account().balance_cents
    );

    // Execute the campaign on the simulated marketplace.
    let latency = sandbox.execute().expect("campaign executes");
    println!(
        "campaign finished after {:.1} simulated minutes ({} assignments collected)",
        latency / 60.0,
        sandbox.all_assignments().len()
    );

    // Per-difficulty latency summary.
    for (label, hits) in [
        ("easy (4 votes)", &easy_hits),
        ("hard (8 votes)", &hard_hits),
    ] {
        let mut on_hold = 0.0;
        let mut processing = 0.0;
        let mut count = 0usize;
        for hit in hits.iter() {
            for a in sandbox.list_assignments(*hit) {
                on_hold += a.on_hold_secs;
                processing += a.processing_secs;
                count += 1;
            }
        }
        println!(
            "{label:<16} mean on-hold {:.1} min, mean processing {:.0} s over {count} assignments",
            on_hold / count as f64 / 60.0,
            processing / count as f64
        );
    }

    // Review: pay only perfectly correct answer sets.
    let (approved, rejected) = sandbox
        .auto_review(ReviewPolicy::AccuracyAtLeast(1.0))
        .expect("review runs");
    println!(
        "review: {approved} approved, {rejected} rejected; paid {} cents, {} cents left",
        sandbox.account().paid_cents,
        sandbox.account().balance_cents
    );
}
