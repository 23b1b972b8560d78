//! The measured process: a `TuningService` behind a `Gateway` on loopback,
//! driven by keep-alive load-generator threads in a closed loop, with every
//! served plan checked against an independent `Tuner::plan`.

use crate::client::{submit_bytes, Conn};
use crate::procfs::{self, Group};
use crate::spans::SpanLog;
use crate::stats;
use crate::workload::{Kind, Workload};
use crowdtune_core::tuner::{TunedPlan, Tuner};
use crowdtune_gateway::{AuthConfig, Gateway, GatewayConfig, QuotaConfig};
use crowdtune_serve::{ServiceConfig, TuningService};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Named figures a phase reports to the orchestrating process.
pub type Record = BTreeMap<String, f64>;

/// Load-generator connections (one thread each, one request in flight
/// each): never more than the machine's CPUs, so the closed loop cannot
/// queue more requests than there are cores to serve them.
pub const MAX_CONNECTIONS: usize = 2;

/// Connections this machine allows.
pub fn connections() -> usize {
    MAX_CONNECTIONS.min(procfs::nproc())
}

/// Largest job the gateway accepts (its default), used for in-process
/// conversions too.
const MAX_JOB_SLOTS: u64 = 1_000_000;

/// The store stream files, as `PlanStore` names them.
const STREAMS: [&str; 3] = ["plans.log", "families.log", "journal.log"];

/// The gateway configuration of a workload: defaults, plus for
/// `auth_http` one key per tenant, no body-tenant fallback, and a quota no
/// reachable rate exhausts.
pub fn gateway_config(workload: &Workload) -> GatewayConfig {
    match workload.kind {
        Kind::AuthHttp => GatewayConfig {
            auth: AuthConfig {
                keys: workload
                    .keys
                    .iter()
                    .map(|(key, tenant)| (key.clone(), tenant.clone()))
                    .collect(),
                allow_body_tenant: false,
            },
            quota: Some(QuotaConfig {
                requests_per_sec: 1e9,
                burst: 1e9,
            }),
            ..GatewayConfig::default()
        },
        Kind::WarmHttp | Kind::DurableCold => GatewayConfig::default(),
    }
}

/// The wire bytes of each distinct job's submit.
pub fn request_bytes(workload: &Workload) -> Vec<Vec<u8>> {
    workload
        .jobs
        .iter()
        .map(|job| {
            let body = serde_json::to_string(job).expect("wire jobs serialize");
            submit_bytes(&body, workload.key_for(&job.tenant))
        })
        .collect()
}

/// The source label and plan bytes of a `done` job body, which the
/// gateway renders as `{"job_id":..,"status":"done","source":"..","plan":{..},"error":null}`.
pub fn served_plan(body: &[u8]) -> Option<(&[u8], &[u8])> {
    const SOURCE: &[u8] = b",\"status\":\"done\",\"source\":\"";
    const PLAN: &[u8] = b"\",\"plan\":";
    const TAIL: &[u8] = b",\"error\":null}";
    let at = body.windows(SOURCE.len()).position(|w| w == SOURCE)? + SOURCE.len();
    let rest = &body[at..];
    let quote = rest.iter().position(|&b| b == b'"')?;
    let (source, rest) = rest.split_at(quote);
    let plan = rest.strip_prefix(PLAN)?.strip_suffix(TAIL)?;
    Some((source, plan))
}

/// Per-connection record of what the service answered: the first plan
/// bytes seen for each job, later answers compared against them.
#[derive(Clone)]
pub struct Book {
    first: Vec<Option<Vec<u8>>>,
    ok: Vec<u64>,
    /// Requests that failed outright (transport, status, body, or a plan
    /// differing from an earlier answer to the same job).
    pub failed: u64,
}

impl Book {
    /// An empty book over `jobs` distinct jobs.
    pub fn new(jobs: usize) -> Book {
        Book {
            first: vec![None; jobs],
            ok: vec![0; jobs],
            failed: 0,
        }
    }

    /// Files one answer to `job`.
    pub fn file(&mut self, job: usize, status: u16, body: &[u8]) {
        let plan = match (status, served_plan(body)) {
            (200, Some((_, plan))) => plan,
            _ => {
                if self.failed < 5 {
                    eprintln!(
                        "perfbench: job {job} answered {status}: {}",
                        String::from_utf8_lossy(&body[..body.len().min(300)])
                    );
                }
                self.failed += 1;
                return;
            }
        };
        match &self.first[job] {
            None => self.first[job] = Some(plan.to_vec()),
            Some(first) if first.as_slice() != plan => {
                self.failed += 1;
                return;
            }
            Some(_) => {}
        }
        self.ok[job] += 1;
    }

    /// Folds the connections' books: a job whose answers differ between
    /// connections fails every answer after the first connection's.
    pub fn merge(books: Vec<Book>) -> Book {
        let mut books = books.into_iter();
        let mut merged = books.next().expect("at least one connection");
        for book in books {
            merged.failed += book.failed;
            for (job, plan) in book.first.into_iter().enumerate() {
                match (&merged.first[job], plan) {
                    (_, None) => {}
                    (None, Some(plan)) => merged.first[job] = Some(plan),
                    (Some(a), Some(b)) if *a != b => {
                        merged.failed += book.ok[job];
                        continue;
                    }
                    _ => {}
                }
                merged.ok[job] += book.ok[job];
            }
        }
        merged
    }
}

/// A running service, gateway and connected load generator.
pub struct Live {
    /// The service (shared with the gateway).
    pub service: Arc<TuningService>,
    /// The HTTP front end on an ephemeral loopback port.
    pub gateway: Gateway,
    /// Keep-alive connections, one per load-generator thread.
    pub conns: Vec<Conn>,
}

impl Live {
    /// Stops the gateway, then the service (joining every thread).
    pub fn stop(self) {
        self.gateway.shutdown();
        drop(self.conns);
        if let Ok(service) = Arc::try_unwrap(self.service) {
            service.shutdown();
        }
    }
}

/// Runs `f(connection index, connection, book)` on one named
/// load-generator thread per connection and collects the results.
fn on_loadgen_threads<T: Send>(
    conns: &mut [Conn],
    books: &mut [Book],
    f: impl Fn(usize, &mut Conn, &mut Book) -> T + Sync,
) -> Vec<T> {
    std::thread::scope(|scope| {
        let f = &f;
        let handles: Vec<_> = conns
            .iter_mut()
            .zip(books.iter_mut())
            .enumerate()
            .map(|(index, (conn, book))| {
                std::thread::Builder::new()
                    .name(format!("loadgen-{index}"))
                    .spawn_scoped(scope, move || f(index, conn, book))
                    .expect("spawn load-generator thread")
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load-generator thread"))
            .collect()
    })
}

/// From nothing running to ready for the first timed request: start (or
/// recover) the service, start the gateway, connect, and warm up — the
/// warm workloads solve every catalogue job once over HTTP; the restart
/// only checks each connection is served, so its solver state stays cold.
pub fn setup(
    workload: &Workload,
    requests: &[Vec<u8>],
    store: Option<&Path>,
    books: &mut [Book],
) -> Result<Live, String> {
    let service = Arc::new(match store {
        Some(dir) => TuningService::recover(ServiceConfig::default(), dir)
            .map_err(|e| format!("recovering the store: {e}"))?,
        None => TuningService::start(ServiceConfig::default()),
    });
    let gateway = Gateway::start(service.clone(), "127.0.0.1:0", gateway_config(workload))
        .map_err(|e| format!("starting the gateway: {e}"))?;
    let mut conns = (0..books.len())
        .map(|_| Conn::connect(gateway.local_addr()))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("connecting: {e}"))?;
    let n = conns.len();
    let warm = workload.first_send_order();
    let outcomes = on_loadgen_threads(&mut conns, books, |index, conn, book| {
        if workload.kind == Kind::DurableCold {
            let reply = conn
                .round_trip(b"GET /healthz HTTP/1.1\r\nHost: perfbench\r\n\r\n")
                .map_err(|e| format!("health check: {e}"))?;
            return match reply.status {
                200 => Ok(()),
                status => Err(format!("health check answered {status}")),
            };
        }
        for &job in warm.iter().skip(index).step_by(n) {
            let reply = conn
                .round_trip(&requests[job])
                .map_err(|e| format!("warm-up: {e}"))?;
            book.file(job, reply.status, reply.body);
        }
        match book.failed {
            0 => Ok(()),
            failed => Err(format!("{failed} warm-up requests failed")),
        }
    });
    let live = Live {
        service,
        gateway,
        conns,
    };
    if let Some(error) = outcomes.into_iter().find_map(Result::err) {
        live.stop();
        return Err(error);
    }
    Ok(live)
}

/// What the timed phase saw from the client side.
pub struct Timed {
    /// `(request index, sent ns, done ns)` per timed request, stamped
    /// against the phase's epoch, in request order.
    pub samples: Vec<(u64, u64, u64)>,
    /// Wall time of the phase, s.
    pub wall_s: f64,
    /// Requests that hit a transport error (the rest of that connection's
    /// share is counted failed too).
    pub transport_failed: u64,
    /// CPU the load-generator threads spent in the phase, ns.
    pub client_cpu_ns: u64,
    /// `(ns since the epoch, machine steal ticks)` sampled through the
    /// phase.
    pub steal: Vec<(u64, u64)>,
}

impl Timed {
    /// Client-observed latencies, µs, ascending.
    pub fn latencies_us(&self) -> Vec<f64> {
        let all = self
            .samples
            .iter()
            .map(|&(_, sent, done)| (done - sent) as f64 / 1e3);
        stats::sorted(all.collect())
    }

    /// Steal ticks charged to each of `count` windows, as `(stolen in the
    /// window, stolen near it)`. The kernel charges a vCPU's stolen time
    /// when that vCPU runs again, so a rise of `d` ticks seen at time `t` is
    /// spread back over `[t - (d + 1) ticks, t]`; shorter steals accrue
    /// unseen until one crosses a tick, so windows within [`STEAL_MARGIN`]
    /// of that span count as stolen too, though less so.
    fn window_steal(&self, count: usize) -> Vec<(u64, u64)> {
        let window = WINDOW.as_nanos() as u64;
        let margin = STEAL_MARGIN.as_nanos() as u64;
        let tick = 10_000_000;
        let last = count as u64 - 1;
        let mut stolen = vec![(0, 0); count];
        for pair in self.steal.windows(2) {
            let (t, rise) = (pair[1].0, pair[1].1 - pair[0].1);
            if rise == 0 {
                continue;
            }
            let span = t.saturating_sub((rise + 1) * tick) / window..=(t / window).min(last);
            let near = t.saturating_sub((rise + 1) * tick + margin) / window
                ..=((t + margin) / window).min(last);
            for w in near {
                if span.contains(&w) {
                    stolen[w as usize].0 += rise;
                } else {
                    stolen[w as usize].1 += rise;
                }
            }
        }
        stolen
    }

    /// The timed phase as seen in its calm windows: the phase is cut into
    /// [`WINDOW`]s, [`stats::calm`] picks the calm ones (holding at least a
    /// tenth of the requests, and [`MIN_CALM_REQUESTS`]), latency is taken
    /// over the requests whose whole flight lies in calm windows, and
    /// throughput over the completions inside them.
    pub fn calm(&self) -> Calm {
        let window = WINDOW.as_nanos() as u64;
        let end = self.samples.iter().map(|s| s.2).max().unwrap_or(0);
        let count = (end / window + 1) as usize;
        // A window weighs the requests that flew wholly inside it: a lower
        // bound on what the calm latency set will hold.
        let (mut inside, mut done_in) = (vec![0; count], vec![0; count]);
        for &(_, sent, done) in &self.samples {
            if sent / window == done / window {
                inside[(sent / window) as usize] += 1;
            }
            done_in[(done / window) as usize] += 1;
        }
        let items: Vec<((u64, u64), u64)> =
            self.window_steal(count).into_iter().zip(inside).collect();
        let min = (self.samples.len() as u64 / 10).max(MIN_CALM_REQUESTS);
        let mut calm = vec![false; count];
        let (mut completed, mut wall_ns) = (0, 0);
        let chosen = stats::calm(&items, min);
        for &w in &chosen {
            calm[w] = true;
            completed += done_in[w];
            wall_ns += window.min(end - w as u64 * window);
        }
        let latencies = self
            .samples
            .iter()
            .filter(|&&(_, sent, done)| (sent / window..=done / window).all(|w| calm[w as usize]))
            .map(|&(_, sent, done)| (done - sent) as f64 / 1e3)
            .collect();
        let stolen = self.steal.last().map_or(0, |s| s.1) - self.steal.first().map_or(0, |s| s.1);
        Calm {
            latencies_us: stats::sorted(latencies),
            completed,
            wall_s: wall_ns as f64 / 1e9,
            windows: chosen.len(),
            of_windows: count,
            steal_share: stolen as f64 * 0.01 / (self.wall_s * procfs::nproc() as f64),
        }
    }
}

/// Length of the windows the timed phase is judged calm or not in.
pub const WINDOW: Duration = Duration::from_millis(20);

/// How far around a stolen span windows count as stolen too.
const STEAL_MARGIN: Duration = Duration::from_millis(50);

/// Period of the machine-steal sampler.
const STEAL_SAMPLE: Duration = Duration::from_millis(10);

/// Fewest requests the calm windows must hold, so that at least ten lie
/// beyond their p99.
pub const MIN_CALM_REQUESTS: u64 = 1_000;

/// Latency and throughput over the calm windows of a timed phase.
pub struct Calm {
    /// Latencies of the requests that flew entirely in calm windows, µs,
    /// ascending.
    pub latencies_us: Vec<f64>,
    /// Requests completed inside calm windows.
    pub completed: u64,
    /// Summed length of the calm windows, s.
    pub wall_s: f64,
    /// Calm windows.
    pub windows: usize,
    /// All windows.
    pub of_windows: usize,
    /// Share of the machine's CPU time the hypervisor stole over the
    /// whole phase.
    pub steal_share: f64,
}

/// The closed loop: each connection sends its share of the schedule (every
/// `n`-th request), waiting for each answer before the next.
pub fn drive(
    workload: &Workload,
    requests: &[Vec<u8>],
    conns: &mut [Conn],
    books: &mut [Book],
    epoch: Instant,
) -> Timed {
    let n = conns.len();
    let started = Instant::now();
    let stop = std::sync::atomic::AtomicBool::new(false);
    let sampler = || {
        let mut steal = Vec::new();
        while !stop.load(std::sync::atomic::Ordering::Relaxed) {
            steal.push((epoch.elapsed().as_nanos() as u64, procfs::steal_ticks()));
            std::thread::sleep(STEAL_SAMPLE);
        }
        steal.push((epoch.elapsed().as_nanos() as u64, procfs::steal_ticks()));
        steal
    };
    let (per_thread, steal) = std::thread::scope(|scope| {
        let sampler = std::thread::Builder::new()
            .name("steal-sampler".to_owned())
            .spawn_scoped(scope, sampler)
            .expect("spawn steal sampler");
        let per_thread = on_loadgen_threads(conns, books, |index, conn, book| {
            let cpu_start = procfs::this_thread_cpu_ns();
            let mut samples = Vec::with_capacity(workload.schedule.len() / n + 1);
            let mut transport_failed = 0;
            let at = |t: Instant| t.duration_since(epoch).as_nanos() as u64;
            for (i, &job) in workload.schedule.iter().enumerate().skip(index).step_by(n) {
                if transport_failed > 0 {
                    transport_failed += 1;
                    continue;
                }
                let sent = Instant::now();
                let reply = conn.round_trip(&requests[job]);
                let done = Instant::now();
                samples.push((i as u64, at(sent), at(done)));
                match reply {
                    Ok(reply) => book.file(job, reply.status, reply.body),
                    Err(e) => {
                        eprintln!("perfbench: transport error on connection {index}: {e}");
                        transport_failed += 1;
                    }
                }
            }
            let cpu = procfs::this_thread_cpu_ns() - cpu_start;
            (samples, transport_failed, cpu)
        });
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        (per_thread, sampler.join().expect("steal sampler"))
    });
    let wall_s = started.elapsed().as_secs_f64();
    let mut samples = Vec::new();
    let mut transport_failed = 0;
    let mut client_cpu_ns = 0;
    for (s, t, cpu) in per_thread {
        samples.extend(s);
        transport_failed += t;
        client_cpu_ns += cpu;
    }
    samples.sort_unstable();
    Timed {
        samples,
        wall_s,
        transport_failed,
        client_cpu_ns,
        steal,
    }
}

/// Independent reference plans: `Tuner::plan` on each listed job, spread
/// over the machine's CPUs.
pub fn reference_plans(workload: &Workload, jobs: &[usize]) -> Vec<Option<TunedPlan>> {
    let threads = procfs::nproc();
    let mut plans: Vec<Option<TunedPlan>> = vec![None; workload.jobs.len()];
    let solved: Vec<Vec<(usize, TunedPlan)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                scope.spawn(move || {
                    jobs.iter()
                        .skip(t)
                        .step_by(threads)
                        .filter_map(|&j| {
                            let request = workload.jobs[j].to_request(MAX_JOB_SLOTS).ok()?;
                            let plan = Tuner::new(request.rate_model)
                                .with_strategy(request.strategy)
                                .plan(request.task_set, request.budget)
                                .ok()?;
                            Some((j, plan))
                        })
                        .collect()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("reference thread"))
            .collect()
    });
    for (j, plan) in solved.into_iter().flatten() {
        plans[j] = Some(plan);
    }
    plans
}

/// Copies a store directory's files into a fresh directory.
pub fn copy_store(from: &Path, to: &Path) -> Result<(), String> {
    let _ = std::fs::remove_dir_all(to);
    std::fs::create_dir_all(to).map_err(|e| format!("creating {}: {e}", to.display()))?;
    let entries =
        std::fs::read_dir(from).map_err(|e| format!("reading {}: {e}", from.display()))?;
    for entry in entries.flatten() {
        if entry.path().is_file() {
            std::fs::copy(entry.path(), to.join(entry.file_name()))
                .map_err(|e| format!("copying the store: {e}"))?;
        }
    }
    Ok(())
}

/// Bytes of each stream file, then of the whole directory.
fn store_sizes(dir: &Path) -> [u64; 4] {
    let size = |name: &str| std::fs::metadata(dir.join(name)).map_or(0, |m| m.len());
    let total = std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .filter_map(|e| e.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0);
    [size(STREAMS[0]), size(STREAMS[1]), size(STREAMS[2]), total]
}

/// Waits until the store's writer has retired every queued record.
fn wait_written(service: &TuningService) -> Result<(), String> {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let stats = service.store_stats().ok_or("no store attached")?;
        if stats.retired >= stats.enqueued {
            return Ok(());
        }
        if Instant::now() > deadline {
            return Err("the store writer did not drain within 60 s".to_owned());
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Set-up only, for the set-up time median: a fresh process performs the
/// workload's set-up, reports its duration, and stops.
pub fn setup_only(workload: &Workload, work: &Path, index: usize) -> Result<Record, String> {
    let requests = request_bytes(workload);
    let store = prepare_store(workload, work, &format!("setup-{index}"))?;
    let mut books = vec![Book::new(workload.jobs.len()); connections()];
    let steal = procfs::steal_ticks();
    let started = Instant::now();
    let live = setup(workload, &requests, store.as_deref(), &mut books)?;
    let setup_s = started.elapsed().as_secs_f64();
    let setup_steal = procfs::steal_ticks() - steal;
    live.stop();
    if let Some(dir) = store {
        let _ = std::fs::remove_dir_all(dir);
    }
    Ok([
        ("setup_s".to_owned(), setup_s),
        ("setup_steal".to_owned(), setup_steal as f64),
    ]
    .into())
}

/// A fresh copy of the populated store for one process (durable only).
pub fn prepare_store(
    workload: &Workload,
    work: &Path,
    name: &str,
) -> Result<Option<std::path::PathBuf>, String> {
    if workload.kind != Kind::DurableCold {
        return Ok(None);
    }
    let dir = work.join(name);
    copy_store(&work.join("populated"), &dir)?;
    Ok(Some(dir))
}

/// The population phase of `durable_cold`, run in its own process before
/// the restart: solve the population into a fresh store and stop cleanly.
pub fn populate(workload: &Workload, work: &Path) -> Result<Record, String> {
    let dir = work.join("populated");
    let _ = std::fs::remove_dir_all(&dir);
    let service = TuningService::recover(ServiceConfig::default(), &dir)
        .map_err(|e| format!("opening the store: {e}"))?;
    for job in &workload.population {
        let request = job
            .to_request(MAX_JOB_SLOTS)
            .map_err(|e| format!("population job: {e}"))?;
        service
            .tune(request)
            .map_err(|e| format!("population solve: {e}"))?;
    }
    service.shutdown();
    let [plans, families, journal, total] = store_sizes(&dir);
    Ok([
        (
            "population_jobs".to_owned(),
            workload.population.len() as f64,
        ),
        ("store_plans_bytes".to_owned(), plans as f64),
        ("store_families_bytes".to_owned(), families as f64),
        ("store_journal_bytes".to_owned(), journal as f64),
        ("store_bytes".to_owned(), total as f64),
    ]
    .into())
}

/// One measured run: set-up, the timed closed loop, then (after the
/// figures that must not see it) the independent plan check.
pub fn measure(
    workload: &Workload,
    work: &Path,
    spans_out: Option<&Path>,
) -> Result<Record, String> {
    let requests = request_bytes(workload);
    let store = prepare_store(workload, work, "measure")?;
    let mut books = vec![Book::new(workload.jobs.len()); connections()];
    let steal = procfs::steal_ticks();
    let started = Instant::now();
    let mut live = setup(workload, &requests, store.as_deref(), &mut books)?;
    let setup_s = started.elapsed().as_secs_f64();
    let setup_steal = procfs::steal_ticks() - steal;

    let service = live.service.clone();
    let metrics0 = service.metrics();
    let families0 = service.family_stats();
    let store0 = service.store_stats();
    let sizes0 = store.as_deref().map(store_sizes);
    let epoch = Instant::now();
    let cpu0 = procfs::cpu_snapshot();
    let timed = drive(workload, &requests, &mut live.conns, &mut books, epoch);
    let cpu1 = procfs::cpu_snapshot();
    let hwm_kib = procfs::vm_hwm_kib();
    let metrics1 = service.metrics();
    let families1 = service.family_stats();

    // The write path: what the timed jobs left for the store writer, then
    // the cost of a full flush after the last response.
    let mut rec = Record::new();
    if let (Some(dir), Some(sizes0)) = (store.as_deref(), sizes0) {
        wait_written(&service)?;
        let sizes1 = store_sizes(dir);
        let cpu2 = procfs::cpu_snapshot();
        let store1 = service.store_stats().unwrap_or_default();
        let store0 = store0.unwrap_or_default();
        let flush = Instant::now();
        service.flush_store();
        rec.insert("drain_ms".into(), flush.elapsed().as_secs_f64() * 1e3);
        for (k, name) in ["plans", "families", "journal", "total"].iter().enumerate() {
            let grown = sizes1[k].saturating_sub(sizes0[k]);
            rec.insert(format!("store_{name}_bytes"), grown as f64);
        }
        let writer = procfs::cpu_between(&cpu0, &cpu2);
        rec.insert(
            "cpu_store_ns".into(),
            *writer.get(&Group::StoreWriter).unwrap_or(&0) as f64,
        );
        rec.insert(
            "store_dropped".into(),
            (store1.dropped - store0.dropped) as f64,
        );
        rec.insert(
            "store_write_errors".into(),
            (store1.write_errors - store0.write_errors) as f64,
        );
    }
    rec.insert("cache_entries".into(), service.cache_stats().entries as f64);
    rec.insert(
        "families_resident".into(),
        service.family_stats().families as f64,
    );
    drop(service);
    live.stop();
    if let Some(dir) = &store {
        let _ = std::fs::remove_dir_all(dir);
    }

    // Independent check, after the timed figures: the core's latency
    // tables are process-wide, so solving references earlier would warm
    // the timed solves and inflate the peak RSS.
    let mut book = Book::merge(books);
    let distinct = workload.first_send_order();
    let references = reference_plans(workload, &distinct);
    let mut latencies = Vec::new();
    let mut strategies: BTreeMap<String, u64> = BTreeMap::new();
    let mut counts = vec![0u64; workload.jobs.len()];
    for &j in &workload.schedule {
        counts[j] += 1;
    }
    for &j in &distinct {
        let Some(reference) = &references[j] else {
            eprintln!("perfbench: no reference plan for job {j}");
            book.failed += book.ok[j];
            continue;
        };
        let expected = serde_json::to_string(reference).expect("plans serialize");
        if book.first[j].as_deref() != Some(expected.as_bytes()) {
            eprintln!("perfbench: job {j} was served a plan that differs from Tuner::plan");
            book.failed += book.ok[j];
        }
        latencies.push(reference.expected_latency);
        *strategies
            .entry(reference.result.strategy.clone())
            .or_default() += counts[j];
    }

    let jobs = workload.schedule.len() as f64;
    let cpu = procfs::cpu_between(&cpu0, &cpu1);
    let group_ns = |g: Group| *cpu.get(&g).unwrap_or(&0) as f64;
    let server_ns: f64 = cpu
        .iter()
        .filter(|(g, _)| g.is_server())
        .map(|(_, ns)| *ns as f64)
        .sum();
    let all = timed.latencies_us();
    let calm = timed.calm();
    let lat = &calm.latencies_us;
    let mut put = |key: &str, value: f64| {
        rec.insert(key.to_owned(), value);
    };
    put("setup_s", setup_s);
    put("setup_steal", setup_steal as f64);
    put("requests", jobs);
    put("failed", (book.failed + timed.transport_failed) as f64);
    put("distinct_jobs", distinct.len() as f64);
    put("wall_s", timed.wall_s);
    put("p50_us", stats::percentile(lat, 0.50));
    put("p99_us", stats::percentile(lat, 0.99));
    put("beyond_p99", stats::beyond(lat, 0.99) as f64);
    put("calm_requests", lat.len() as f64);
    put("calm_wall_s", calm.wall_s);
    put("calm_completed", calm.completed as f64);
    put("calm_windows", calm.windows as f64);
    put("windows", calm.of_windows as f64);
    put("steal_share", calm.steal_share);
    put("all_p50_us", stats::percentile(&all, 0.50));
    put("all_p99_us", stats::percentile(&all, 0.99));
    put("all_mean_us", stats::mean(&all));
    put("cpu_server_ns", server_ns);
    put("cpu_reactor_ns", group_ns(Group::Reactor));
    put("cpu_worker_ns", group_ns(Group::Worker));
    put("cpu_client_ns", timed.client_cpu_ns as f64);
    put("vm_hwm_kib", hwm_kib as f64);
    put("plan_latency", stats::mean(&latencies));
    put(
        "cache_hits",
        (metrics1.cache_hits - metrics0.cache_hits) as f64,
    );
    put(
        "family_hits",
        (metrics1.family_hits - metrics0.family_hits) as f64,
    );
    put(
        "cold_solves",
        (metrics1.cold_solves - metrics0.cold_solves) as f64,
    );
    put(
        "family_reloads",
        (families1.reloads - families0.reloads) as f64,
    );
    put(
        "family_extensions",
        (families1.extensions - families0.extensions) as f64,
    );
    for strategy in ["EA", "RA", "HA"] {
        let n = strategies.get(strategy).copied().unwrap_or(0);
        put(
            &format!("share_{}", strategy.to_lowercase()),
            n as f64 / jobs,
        );
    }

    if let Some(path) = spans_out {
        let mut log = SpanLog::new(epoch);
        for &(request, start, end) in &timed.samples {
            log.record("client.request", start, end, None, request);
        }
        log.write_jsonl(path, crate::spans::DUMPED_REQUESTS)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
    }
    Ok(rec)
}

/// Checks the reuse mix a workload was designed for; `Err` names the
/// drift.
pub fn check_mix(kind: Kind, rec: &Record) -> Result<(), String> {
    let get = |k: &str| rec.get(k).copied().unwrap_or(0.0);
    let (jobs, cache, family, cold) = (
        get("requests"),
        get("cache_hits"),
        get("family_hits"),
        get("cold_solves"),
    );
    match kind {
        Kind::WarmHttp | Kind::AuthHttp if cache != jobs || family + cold > 0.0 => Err(format!(
            "the timed phase was not all cache hits: {cache} cache, {family} family, {cold} cold of {jobs}"
        )),
        Kind::DurableCold if cache > 0.0 => Err(format!("{cache} exact repeats were served from the cache")),
        Kind::DurableCold if family == 0.0 => Err("no job was answered from a family".to_owned()),
        Kind::DurableCold if cold == 0.0 => Err("no job needed a cold solve".to_owned()),
        _ => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn served_plan_splits_source_and_plan() {
        let body =
            br#"{"job_id":3,"status":"done","source":"cache","plan":{"a":[1,2]},"error":null}"#;
        let (source, plan) = served_plan(body).unwrap();
        assert_eq!(source, b"cache");
        assert_eq!(plan, br#"{"a":[1,2]}"#);
        assert!(served_plan(br#"{"job_id":3,"status":"failed","source":null}"#).is_none());
    }

    #[test]
    fn books_fail_answers_that_disagree() {
        let done = |plan: &str| {
            format!(r#"{{"job_id":1,"status":"done","source":"cold","plan":{plan},"error":null}}"#)
        };
        let mut a = Book::new(2);
        a.file(0, 200, done("1").as_bytes());
        a.file(0, 200, done("1").as_bytes());
        a.file(0, 200, done("2").as_bytes());
        a.file(1, 503, b"{}");
        assert_eq!((a.failed, a.ok[0]), (2, 2));
        let mut b = Book::new(2);
        b.file(0, 200, done("3").as_bytes());
        b.file(1, 200, done("4").as_bytes());
        let merged = Book::merge(vec![a, b]);
        assert_eq!(merged.failed, 3);
        assert_eq!(merged.ok, vec![2, 1]);
    }

    #[test]
    fn calm_drops_the_windows_around_a_steal_tick() {
        // One second of 100 µs requests, one every 200 µs; one tick of steal
        // first seen at 500 ms taints [500 - 20 - 50, 500 + 50] ms, i.e. the
        // 20 ms windows 21..=27.
        let samples = (0..5000u64)
            .map(|i| (i, i * 200_000, i * 200_000 + 100_000))
            .collect();
        let steal = (0..=100u64)
            .map(|k| (k * 10_000_000, u64::from(k >= 50)))
            .collect();
        let timed = Timed {
            samples,
            wall_s: 1.0,
            transport_failed: 0,
            client_cpu_ns: 0,
            steal,
        };
        let calm = timed.calm();
        assert_eq!((calm.windows, calm.of_windows), (43, 50));
        assert_eq!(calm.latencies_us.len(), 4300);
        assert_eq!(calm.completed, 4300);
        assert!((calm.wall_s - 0.8599).abs() < 1e-9, "{}", calm.wall_s);
        assert!(calm.latencies_us.iter().all(|&us| us == 100.0));
    }

    #[test]
    fn mix_guard_rejects_drift() {
        let rec = |cache: f64, family: f64, cold: f64| -> Record {
            [
                ("requests".to_owned(), 10.0),
                ("cache_hits".to_owned(), cache),
                ("family_hits".to_owned(), family),
                ("cold_solves".to_owned(), cold),
            ]
            .into()
        };
        assert!(check_mix(Kind::WarmHttp, &rec(10.0, 0.0, 0.0)).is_ok());
        assert!(check_mix(Kind::AuthHttp, &rec(9.0, 0.0, 1.0)).is_err());
        assert!(check_mix(Kind::DurableCold, &rec(0.0, 6.0, 4.0)).is_ok());
        assert!(check_mix(Kind::DurableCold, &rec(1.0, 5.0, 4.0)).is_err());
        assert!(check_mix(Kind::DurableCold, &rec(0.0, 0.0, 10.0)).is_err());
        assert!(check_mix(Kind::DurableCold, &rec(0.0, 10.0, 0.0)).is_err());
    }
}
