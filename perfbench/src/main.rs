//! End-to-end benchmark of the crowdtune HTTP service.
//!
//! ```text
//! cargo run --offline --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload warm_http --seed 1 --seconds 10 --trace 0
//! ```
//!
//! One invocation measures one workload. It orchestrates fresh child
//! processes of itself — population (`durable_cold`), set-up-only repeats
//! for the set-up median, the measured run, and with `--trace 1` a traced
//! run, an in-process replay and a core-solver pass — and prints, as its
//! last line, `{"correct", "attempted", "failed", "metrics"}`: the
//! end-to-end metrics untraced, the per-layer metrics traced. See
//! `perfbench/README.md` for the workloads and the metric table.

mod client;
mod procfs;
mod replay;
mod run;
mod spans;
mod stats;
mod workload;

use run::Record;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;
use workload::{Kind, Workload};

/// Processes whose set-up time is measured: set-up-only repeats plus the
/// measured run itself.
const SETUP_SAMPLES: usize = 11;

/// Fewest set-ups the `setup_s` median is taken over (the calm ones, see
/// `stats::calm`).
const MIN_CALM_SETUPS: u64 = 5;

/// Fresh-copy opens of the populated store behind `store.open_ms`.
const STORE_OPENS: usize = 3;

struct Args {
    kind: Kind,
    seed: u64,
    seconds: u64,
    trace: bool,
    phase: Option<String>,
    work: Option<PathBuf>,
    out: Option<PathBuf>,
    index: usize,
}

const USAGE: &str = "usage: perfbench --workload <warm_http|auth_http|durable_cold> \
                     --seed <n> --seconds <n> --trace <0|1>";

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut kind, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let (mut phase, mut work, mut out, mut index) = (None, None, None, 0);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {value}"))
        };
        match flag.as_str() {
            "--workload" => {
                kind = Some(Kind::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.clamp(1, 600)),
            "--trace" => trace = Some(number()? != 0),
            "--phase" => phase = Some(value),
            "--work" => work = Some(PathBuf::from(value)),
            "--out" => out = Some(PathBuf::from(value)),
            "--index" => index = number()? as usize,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        phase,
        work,
        out,
        index,
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match &args.phase {
        Some(phase) => child(phase, &args),
        None => match orchestrate(&args) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::FAILURE
            }
        },
    }
}

/// A child process: runs one phase and prints its record as `@ key value`
/// lines for the orchestrator.
fn child(phase: &str, args: &Args) -> ExitCode {
    let workload = Workload::generate(args.kind, args.seed, args.seconds);
    let work = args.work.clone().unwrap_or_default();
    let outcome = match phase {
        "populate" => run::populate(&workload, &work),
        "setup" => run::setup_only(&workload, &work, args.index),
        "measure" => run::measure(&workload, &work, args.out.as_deref()),
        "replay" => match &args.out {
            Some(out) => replay::replay(&workload, &work, out),
            None => Err("replay needs --out".to_owned()),
        },
        "core" => replay::core(&workload),
        other => Err(format!("unknown phase {other}")),
    };
    match outcome {
        Ok(record) => {
            for (key, value) in record {
                println!("@ {key} {value}");
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench ({phase}): {e}");
            ExitCode::FAILURE
        }
    }
}

/// Parses the `@ key value` lines of a child's output.
fn parse_record(stdout: &str) -> Record {
    stdout
        .lines()
        .filter_map(|line| {
            let mut parts = line.strip_prefix("@ ")?.split(' ');
            let key = parts.next()?.to_owned();
            let value = parts.next()?.parse().ok()?;
            Some((key, value))
        })
        .collect()
}

struct Orchestrator<'a> {
    args: &'a Args,
    work: PathBuf,
}

impl Orchestrator<'_> {
    /// Runs one phase in a fresh process of this binary and waits for it.
    fn spawn(&self, phase: &str, extra: &[(&str, String)]) -> Result<Record, String> {
        let exe = std::env::current_exe().map_err(|e| format!("locating this binary: {e}"))?;
        let mut command = Command::new(exe);
        command.args([
            "--workload",
            self.args.kind.name(),
            "--seed",
            &self.args.seed.to_string(),
            "--seconds",
            &self.args.seconds.to_string(),
            "--phase",
            phase,
            "--work",
        ]);
        command.arg(&self.work);
        for (flag, value) in extra {
            command.args([flag, value.as_str()]);
        }
        let output = command
            .stdin(Stdio::null())
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("starting the {phase} phase: {e}"))?;
        if !output.status.success() {
            return Err(format!("the {phase} phase failed ({})", output.status));
        }
        Ok(parse_record(&String::from_utf8_lossy(&output.stdout)))
    }
}

fn get(record: &Record, key: &str) -> f64 {
    record.get(key).copied().unwrap_or(0.0)
}

/// A metric with its unit and the base a reader needs to trust it.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
    base: String,
}

fn metric(name: &str, value: f64, unit: &'static str, base: impl Into<String>) -> Metric {
    Metric {
        name: name.to_owned(),
        value,
        unit,
        base: base.into(),
    }
}

fn print_result(correct: bool, attempted: f64, failed: f64, metrics: &[Metric]) {
    println!(
        "perfbench: {:<34} {:>16} {:<10} base",
        "metric", "value", "unit"
    );
    for m in metrics {
        println!(
            "perfbench: {:<34} {:>16.4} {:<10} {}",
            m.name, m.value, m.unit, m.base
        );
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        attempted as u64,
        failed as u64,
        body.join(", ")
    );
}

/// Per-job CPU in µs of a group's nanoseconds.
fn per_job_us(ns: f64, jobs: f64) -> f64 {
    ns / 1e3 / jobs
}

/// Per-job KB of a byte count.
fn per_job_kb(bytes: f64, jobs: f64) -> f64 {
    bytes / 1024.0 / jobs
}

fn orchestrate(args: &Args) -> Result<bool, String> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let workload = Workload::generate(args.kind, args.seed, args.seconds);
    let connections = run::connections();
    let nproc = procfs::nproc();
    if connections > nproc {
        return Err(format!(
            "refusing {connections} load-generator connections on {nproc} CPUs"
        ));
    }
    println!("perfbench: machine {}", procfs::machine());
    println!(
        "perfbench: workload {} seed {}: {} distinct jobs, {} timed requests (fixed), \
         {connections} keep-alive connections in a closed loop (one thread each), \
         {} API keys, {} population jobs",
        args.kind.name(),
        args.seed,
        workload.jobs.len(),
        workload.schedule.len(),
        workload.keys.len(),
        workload.population.len()
    );
    let work = root.join("work").join(format!(
        "{}-{}-{}",
        args.kind.name(),
        args.seed,
        std::process::id()
    ));
    std::fs::create_dir_all(&work).map_err(|e| format!("creating {}: {e}", work.display()))?;
    let orchestrator = Orchestrator { args, work };
    let outcome = measure_all(&orchestrator, root);
    let _ = std::fs::remove_dir_all(&orchestrator.work);
    outcome
}

fn measure_all(orch: &Orchestrator<'_>, root: &Path) -> Result<bool, String> {
    let args = orch.args;
    if args.kind == Kind::DurableCold {
        let pop = orch.spawn("populate", &[])?;
        println!(
            "perfbench: population: {} jobs solved into a {:.1} KB store by a separate process \
             (plans {:.1} KB, families {:.1} KB, journal {:.1} KB)",
            get(&pop, "population_jobs"),
            get(&pop, "store_bytes") / 1024.0,
            get(&pop, "store_plans_bytes") / 1024.0,
            get(&pop, "store_families_bytes") / 1024.0,
            get(&pop, "store_journal_bytes") / 1024.0,
        );
    }
    let mut setups = Vec::new();
    for index in 1..SETUP_SAMPLES {
        let rec = orch.spawn("setup", &[("--index", index.to_string())])?;
        setups.push((get(&rec, "setup_s"), get(&rec, "setup_steal") as u64));
    }
    let measured = orch.spawn("measure", &[])?;
    setups.push((
        get(&measured, "setup_s"),
        get(&measured, "setup_steal") as u64,
    ));
    let steal: Vec<(u64, u64)> = setups.iter().map(|&(_, steal)| (steal, 1)).collect();
    let calm: Vec<f64> = stats::calm(&steal, MIN_CALM_SETUPS)
        .into_iter()
        .map(|i| setups[i].0)
        .collect();
    let setup_s = stats::median(&calm);
    println!(
        "perfbench: set-ups in fresh processes (s, steal ticks): {setups:?}; \
         median of the {} calm ones {setup_s:.4} s",
        calm.len()
    );

    let jobs = get(&measured, "requests");
    let mut attempted = jobs;
    let mut failed = get(&measured, "failed");
    let mut mix_errors = Vec::new();
    report_run("untraced", args.kind, &measured, &mut mix_errors);

    let metrics = if !args.trace {
        vec![
            metric(
                "setup_s",
                setup_s,
                "s",
                format!("median of {} calm set-ups of {}", calm.len(), setups.len()),
            ),
            metric(
                "job_p50_us",
                get(&measured, "p50_us"),
                "us",
                calm_base(&measured),
            ),
            metric(
                "job_p99_us",
                get(&measured, "p99_us"),
                "us",
                format!(
                    "{}, {} beyond p99",
                    calm_base(&measured),
                    get(&measured, "beyond_p99")
                ),
            ),
            metric(
                "jobs_per_s",
                get(&measured, "calm_completed") / get(&measured, "calm_wall_s"),
                "1/s",
                format!(
                    "{} completions / {:.3} s of calm windows",
                    get(&measured, "calm_completed"),
                    get(&measured, "calm_wall_s")
                ),
            ),
            metric(
                "cpu_us_per_job",
                per_job_us(get(&measured, "cpu_server_ns"), jobs),
                "us",
                format!("server threads / {jobs} jobs"),
            ),
            metric(
                "peak_rss_mb",
                get(&measured, "vm_hwm_kib") / 1024.0,
                "MB",
                "VmHWM at the end of the timed phase",
            ),
            metric(
                "plan_latency",
                get(&measured, "plan_latency"),
                "model-time",
                format!(
                    "mean over {} distinct plans",
                    get(&measured, "distinct_jobs")
                ),
            ),
        ]
    } else {
        let out_dir = root.join("out");
        std::fs::create_dir_all(&out_dir)
            .map_err(|e| format!("creating {}: {e}", out_dir.display()))?;
        let stem = format!("{}-seed{}", args.kind.name(), args.seed);
        let client_spans = out_dir.join(format!("{stem}.client.jsonl"));
        let replay_spans = out_dir.join(format!("{stem}.replay.jsonl"));
        let traced = orch.spawn("measure", &[("--out", client_spans.display().to_string())])?;
        report_run("traced", args.kind, &traced, &mut mix_errors);
        attempted += get(&traced, "requests");
        failed += get(&traced, "failed");
        let replayed = orch.spawn("replay", &[("--out", replay_spans.display().to_string())])?;
        let core = orch.spawn("core", &[])?;
        let open_ms = if args.kind == Kind::DurableCold {
            store_open_ms(&orch.work)?
        } else {
            0.0
        };
        println!(
            "perfbench: spans written to {} and {}",
            client_spans.display(),
            replay_spans.display()
        );
        per_layer(&measured, &traced, &replayed, &core, open_ms)
    };
    if let Some(m) = metrics.iter().find(|m| !m.value.is_finite()) {
        return Err(format!("{} measured {}", m.name, m.value));
    }
    let correct = failed == 0.0 && mix_errors.is_empty();
    for error in &mix_errors {
        eprintln!("perfbench: reuse mix drifted from the workload's design: {error}");
    }
    print_result(correct, attempted, failed, &metrics);
    Ok(correct)
}

/// The base of a calm-window figure.
fn calm_base(rec: &Record) -> String {
    format!(
        "{} of {} requests, in {} calm of {} windows",
        get(rec, "calm_requests"),
        get(rec, "requests"),
        get(rec, "calm_windows"),
        get(rec, "windows")
    )
}

/// Prints a measured run's reuse mix, strategy mix and load shape, and
/// checks the mix against the workload's design.
fn report_run(label: &str, kind: Kind, rec: &Record, mix_errors: &mut Vec<String>) {
    let jobs = get(rec, "requests");
    let throughput = jobs / get(rec, "wall_s");
    println!(
        "perfbench: {label} run: cache {:.4} family {:.4} cold {:.4} | EA {:.4} RA {:.4} HA {:.4} \
         (shares of {jobs} jobs) | whole phase: p50 {:.1} us p99 {:.1} us, {throughput:.0}/s, \
         in flight = {throughput:.0}/s x {:.1} us mean = {:.3} (nproc {}) | hypervisor steal {:.1}% \
         of CPU time; calm: {} | failed {}",
        get(rec, "cache_hits") / jobs,
        get(rec, "family_hits") / jobs,
        get(rec, "cold_solves") / jobs,
        get(rec, "share_ea"),
        get(rec, "share_ra"),
        get(rec, "share_ha"),
        get(rec, "all_p50_us"),
        get(rec, "all_p99_us"),
        get(rec, "all_mean_us"),
        throughput * get(rec, "all_mean_us") / 1e6,
        procfs::nproc(),
        get(rec, "steal_share") * 100.0,
        calm_base(rec),
        get(rec, "failed"),
    );
    if let Err(e) = run::check_mix(kind, rec) {
        mix_errors.push(format!("{label} run: {e}"));
    }
}

/// `PlanStore::open_with` on fresh copies of the populated store, median ms.
fn store_open_ms(work: &Path) -> Result<f64, String> {
    let mut samples = Vec::new();
    for i in 0..STORE_OPENS {
        let dir = work.join(format!("open-{i}"));
        run::copy_store(&work.join("populated"), &dir)?;
        let started = Instant::now();
        let opened = crowdtune_serve::PlanStore::open_with(&dir, Default::default())
            .map_err(|e| format!("opening the store: {e}"))?;
        samples.push(started.elapsed().as_secs_f64() * 1e3);
        drop(opened);
        let _ = std::fs::remove_dir_all(&dir);
    }
    Ok(stats::median(&samples))
}

fn per_layer(
    measured: &Record,
    traced: &Record,
    replayed: &Record,
    core: &Record,
    open_ms: f64,
) -> Vec<Metric> {
    let jobs = get(measured, "requests");
    let replays = format!("p50 of {} replayed requests", get(replayed, "replayed"));
    let per_job = format!("/ {jobs} timed jobs");
    let traced_p50 = get(traced, "p50_us");
    let unattributed = traced_p50 - get(replayed, "replay.sum_us");
    let cache_tunes = get(replayed, "serve.tune_n.cache");
    let handoff = if cache_tunes > 0.0 {
        get(replayed, "serve.tune_us.cache")
            - get(replayed, "serve.fingerprint_us")
            - get(replayed, "serve.cache.get_us")
    } else {
        0.0
    };
    let tune = |label: &str| {
        metric(
            &format!("serve.tune_us.{label}"),
            get(replayed, &format!("serve.tune_us.{label}")),
            "us",
            format!(
                "p50 of {} {label} tunes{}",
                get(replayed, &format!("serve.tune_n.{label}")),
                if get(replayed, &format!("serve.tune_probe.{label}")) > 0.0 {
                    " (probes: the replay has none)"
                } else {
                    " in the replay"
                }
            ),
        )
    };
    let solve = |strategy: &str| {
        metric(
            &format!("core.solve_us.{strategy}"),
            get(core, &format!("core.solve_us.{strategy}")),
            "us",
            format!(
                "mean of {} {} plans, fresh process",
                get(core, &format!("core.solve_n.{strategy}")),
                strategy.to_uppercase()
            ),
        )
    };
    let distinct =
        get(core, "core.solve_n.ea") + get(core, "core.solve_n.ra") + get(core, "core.solve_n.ha");
    vec![
        metric(
            "gateway.http.parse_us",
            get(replayed, "gateway.http.parse_us"),
            "us",
            replays.clone(),
        ),
        metric(
            "gateway.wire.decode_us",
            get(replayed, "gateway.wire.decode_us"),
            "us",
            replays.clone(),
        ),
        metric(
            "gateway.auth.verify_us",
            get(replayed, "gateway.auth.verify_us"),
            "us",
            replays.clone(),
        ),
        metric(
            "gateway.wire.render_us",
            get(replayed, "gateway.wire.render_us"),
            "us",
            replays.clone(),
        ),
        metric(
            "gateway.reactor.cpu_us_per_job",
            per_job_us(get(measured, "cpu_reactor_ns"), jobs),
            "us",
            per_job.clone(),
        ),
        metric(
            "gateway.unattributed_us",
            unattributed,
            "us",
            format!("traced client p50 {traced_p50:.2} us - sum of replay layer p50s"),
        ),
        metric(
            "gateway.unattributed_share",
            unattributed / traced_p50,
            "ratio",
            "of the traced client p50",
        ),
        metric(
            "serve.fingerprint_us",
            get(replayed, "serve.fingerprint_us"),
            "us",
            replays.clone(),
        ),
        metric(
            "serve.cache.get_us",
            get(replayed, "serve.cache.get_us"),
            "us",
            replays.clone(),
        ),
        tune("cache"),
        tune("family"),
        tune("cold"),
        metric(
            "serve.handoff_us",
            handoff,
            "us",
            "serve.tune_us.cache - fingerprint - cache get",
        ),
        metric(
            "serve.cache_share",
            get(measured, "cache_hits") / jobs,
            "ratio",
            per_job.clone(),
        ),
        metric(
            "serve.family_share",
            get(measured, "family_hits") / jobs,
            "ratio",
            per_job.clone(),
        ),
        metric(
            "serve.cold_share",
            get(measured, "cold_solves") / jobs,
            "ratio",
            per_job.clone(),
        ),
        metric(
            "serve.family.reloads",
            get(measured, "family_reloads"),
            "count",
            "timed phase",
        ),
        metric(
            "serve.family.extensions",
            get(measured, "family_extensions"),
            "count",
            "timed phase",
        ),
        metric(
            "serve.worker.cpu_us_per_job",
            per_job_us(get(measured, "cpu_worker_ns"), jobs),
            "us",
            per_job.clone(),
        ),
        metric(
            "serve.cache.entries",
            get(measured, "cache_entries"),
            "count",
            "after the run",
        ),
        metric(
            "serve.family.families",
            get(measured, "families_resident"),
            "count",
            "after the run",
        ),
        solve("ea"),
        solve("ra"),
        solve("ha"),
        metric(
            "core.estimate_us",
            get(core, "core.estimate_us"),
            "us",
            format!("mean of {distinct} plans, fresh process"),
        ),
        metric(
            "store_kb_per_job",
            per_job_kb(get(measured, "store_total_bytes"), jobs),
            "KB",
            per_job.clone(),
        ),
        metric(
            "store.plans_kb_per_job",
            per_job_kb(get(measured, "store_plans_bytes"), jobs),
            "KB",
            per_job.clone(),
        ),
        metric(
            "store.families_kb_per_job",
            per_job_kb(get(measured, "store_families_bytes"), jobs),
            "KB",
            per_job.clone(),
        ),
        metric(
            "store.journal_kb_per_job",
            per_job_kb(get(measured, "store_journal_bytes"), jobs),
            "KB",
            per_job.clone(),
        ),
        metric(
            "store.writer.cpu_us_per_job",
            per_job_us(get(measured, "cpu_store_ns"), jobs),
            "us",
            per_job.clone(),
        ),
        metric(
            "store.drain_ms",
            get(measured, "drain_ms"),
            "ms",
            "flush_store() after the last response",
        ),
        metric(
            "store.dropped",
            get(measured, "store_dropped"),
            "count",
            "timed phase",
        ),
        metric(
            "store.write_errors",
            get(measured, "store_write_errors"),
            "count",
            "timed phase",
        ),
        metric(
            "store.open_ms",
            open_ms,
            "ms",
            format!("median of {STORE_OPENS} fresh-copy opens"),
        ),
        metric(
            "client.cpu_us_per_job",
            per_job_us(get(measured, "cpu_client_ns"), jobs),
            "us",
            per_job.clone(),
        ),
        metric(
            "client.job_p50_us.untraced",
            get(measured, "p50_us"),
            "us",
            calm_base(measured),
        ),
        metric(
            "client.job_p50_us.traced",
            traced_p50,
            "us",
            calm_base(traced),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Result<Args, String> {
        parse_args(line.split_whitespace().map(str::to_owned))
    }

    #[test]
    fn arguments_parse_and_reject() {
        let a = args("--workload auth_http --seed 9 --seconds 3 --trace 1").unwrap();
        assert_eq!(
            (a.kind, a.seed, a.seconds, a.trace),
            (Kind::AuthHttp, 9, 3, true)
        );
        assert!(args("--workload nope --seed 1 --seconds 1 --trace 0").is_err());
        assert!(args("--seed 1 --seconds 1 --trace 0").is_err());
        assert!(args("--workload warm_http --seed x --seconds 1").is_err());
        assert!(args("--workload warm_http --seed 1 --seconds").is_err());
    }

    #[test]
    fn child_records_round_trip() {
        let rec = parse_record("noise\n@ p50_us 12.5\n@ requests 100\n@ bad\n");
        assert_eq!(rec.len(), 2);
        assert_eq!(rec["p50_us"], 12.5);
    }
}
