//! Seeded workload generation: the distinct jobs each workload sends, the
//! order it sends them in, its API keys, and (for `durable_cold`) the
//! population an earlier process wrote to the store.
//!
//! Job shapes come from a fixed grid of strata (task counts, repetitions,
//! budget-to-slot ratios); the seed jitters the continuous parameters
//! (processing rates, rate-curve coefficients), budgets, tenants and order.
//! Every job is therefore distinct, while the aggregate cost of a workload
//! barely depends on the seed — a seed changes the inputs, not the size of
//! the work.

use crowdtune_core::rate::{LinearRate, LogRate, RateSpec};
use crowdtune_core::task::TaskGroupSpec;
use crowdtune_core::tuner::StrategyChoice;
use crowdtune_gateway::JobRequestWire;
use std::collections::HashSet;

/// Tenants the catalogue's jobs belong to.
pub const TENANTS: [&str; 4] = ["acme", "globex", "initech", "umbrella"];

/// Distinct jobs in the warm catalogue: a third each EA, RA and HA. It
/// fits well inside the service's plan cache (8 shards × 512 plans).
pub const WARM_CATALOGUE: usize = 192;

/// Timed requests per `--seconds` of run length, per workload. The count
/// is fixed by the arguments, never by how fast the service answers.
pub const WARM_REQUESTS_PER_SECOND: usize = 15_000;
/// See [`WARM_REQUESTS_PER_SECOND`]; keyed requests cost a key derivation
/// per configured key.
pub const AUTH_REQUESTS_PER_SECOND: usize = 700;
/// See [`WARM_REQUESTS_PER_SECOND`]; every request is a new job.
pub const DURABLE_REQUESTS_PER_SECOND: usize = 2_000;

/// Recovered RA families in the durable population, with the budgets the
/// population solved for each.
pub const POPULATION_FAMILIES: usize = 160;
const POPULATION_BUDGETS_PER_FAMILY: usize = 2;
/// EA and HA plans (each) in the durable population.
pub const POPULATION_SINGLES: usize = 240;

/// Which workload a run measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Keyless exact plan-cache hits on an in-memory service.
    WarmHttp,
    /// `WarmHttp`'s traffic with one API key per tenant and quotas on.
    AuthHttp,
    /// A restart: recovered store, only new jobs, write path timed.
    DurableCold,
}

impl Kind {
    /// Parses a `--workload` name.
    pub fn parse(name: &str) -> Option<Kind> {
        match name {
            "warm_http" => Some(Kind::WarmHttp),
            "auth_http" => Some(Kind::AuthHttp),
            "durable_cold" => Some(Kind::DurableCold),
            _ => None,
        }
    }

    /// The `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::WarmHttp => "warm_http",
            Kind::AuthHttp => "auth_http",
            Kind::DurableCold => "durable_cold",
        }
    }
}

/// SplitMix64: a small seeded generator, so inputs depend on the seed only.
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed` on stream `stream` (independent streams for
    /// one seed).
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// `base` scaled by a factor uniform in `[1 - spread, 1 + spread)`.
    pub fn jitter(&mut self, base: f64, spread: f64) -> f64 {
        base * (1.0 - spread + 2.0 * spread * self.unit())
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

/// One workload instance: everything a run sends, fixed by kind, seed and
/// run length.
pub struct Workload {
    /// The workload.
    pub kind: Kind,
    /// Distinct jobs the timed phase sends (warm kinds also solve each once
    /// during setup).
    pub jobs: Vec<JobRequestWire>,
    /// Timed requests, in send order, as indices into `jobs`.
    pub schedule: Vec<usize>,
    /// `(api key, tenant)` pairs; empty for keyless workloads.
    pub keys: Vec<(String, String)>,
    /// Jobs a separate, differently seeded process solved into the store
    /// before the restart (`durable_cold` only).
    pub population: Vec<JobRequestWire>,
}

impl Workload {
    /// Builds the workload for `seed` with `seconds` worth of timed
    /// requests.
    pub fn generate(kind: Kind, seed: u64, seconds: u64) -> Workload {
        let seconds = seconds.max(1) as usize;
        match kind {
            Kind::WarmHttp | Kind::AuthHttp => {
                let per_second = if kind == Kind::WarmHttp {
                    WARM_REQUESTS_PER_SECOND
                } else {
                    AUTH_REQUESTS_PER_SECOND
                };
                let mut rng = Rng::new(seed, 1);
                let mut seen = HashSet::new();
                let jobs: Vec<JobRequestWire> = (0..WARM_CATALOGUE)
                    .map(|i| distinct(&mut seen, &mut rng, |rng| small_job(rng, i)))
                    .collect();
                let schedule = rounds(&mut rng, jobs.len(), per_second * seconds);
                let keys = if kind == Kind::AuthHttp {
                    TENANTS
                        .iter()
                        .map(|tenant| {
                            (
                                format!("pb-{tenant}-{:016x}", rng.next_u64()),
                                tenant.to_string(),
                            )
                        })
                        .collect()
                } else {
                    Vec::new()
                };
                Workload {
                    kind,
                    jobs,
                    schedule,
                    keys,
                    population: Vec::new(),
                }
            }
            Kind::DurableCold => durable(seed, DURABLE_REQUESTS_PER_SECOND * seconds),
        }
    }

    /// The distinct jobs in first-send order.
    pub fn first_send_order(&self) -> Vec<usize> {
        let mut seen = vec![false; self.jobs.len()];
        self.schedule
            .iter()
            .copied()
            .filter(|&j| !std::mem::replace(&mut seen[j], true))
            .collect()
    }

    /// The API key a job's tenant authenticates with, if keyed.
    pub fn key_for(&self, tenant: &str) -> Option<&str> {
        self.keys
            .iter()
            .find(|(_, t)| t == tenant)
            .map(|(key, _)| key.as_str())
    }
}

/// `count` requests cycling through `jobs` indices, each round in a fresh
/// seeded order, so every job is sent equally often.
fn rounds(rng: &mut Rng, jobs: usize, count: usize) -> Vec<usize> {
    let mut schedule = Vec::with_capacity(count);
    let mut round: Vec<usize> = (0..jobs).collect();
    while schedule.len() < count {
        rng.shuffle(&mut round);
        schedule.extend(round.iter().take(count - schedule.len()));
    }
    schedule
}

/// The job's identity as the service sees it: everything but the tenant
/// (tenants share cached plans).
fn identity(job: &JobRequestWire) -> String {
    let mut anonymous = job.clone();
    anonymous.tenant.clear();
    serde_json::to_string(&anonymous).expect("wire jobs serialize")
}

/// Draws from `make` until the job is new to `seen`.
fn distinct(
    seen: &mut HashSet<String>,
    rng: &mut Rng,
    mut make: impl FnMut(&mut Rng) -> JobRequestWire,
) -> JobRequestWire {
    loop {
        let job = make(rng);
        if seen.insert(identity(&job)) {
            return job;
        }
    }
}

fn group(name: &str, processing_rate: f64, tasks: u64, repetitions: u32) -> TaskGroupSpec {
    TaskGroupSpec {
        name: name.to_owned(),
        processing_rate,
        tasks,
        repetitions,
    }
}

/// A jittered rate curve; every eighth stratum is logarithmic.
fn rate(rng: &mut Rng, stratum: usize) -> RateSpec {
    if stratum % 8 == 7 {
        RateSpec::Log(LogRate::new(rng.jitter(2.0, 0.1)).expect("positive log scale"))
    } else {
        RateSpec::Linear(
            LinearRate::new(rng.jitter(1.5, 0.1), rng.jitter(0.5, 0.1)).expect("positive slope"),
        )
    }
}

fn job(rng: &mut Rng, groups: Vec<TaskGroupSpec>, ratio: u64, stratum: usize) -> JobRequestWire {
    let slots: u64 = groups
        .iter()
        .map(|g| g.tasks * u64::from(g.repetitions))
        .sum();
    JobRequestWire {
        tenant: TENANTS[rng.below(TENANTS.len() as u64) as usize].to_owned(),
        market: None,
        budget: slots * ratio + rng.below(slots),
        rate: rate(rng, stratum),
        groups,
        strategy: StrategyChoice::Auto,
    }
}

/// Scenario I: one task type, uniform repetitions (EA).
fn ea_job(rng: &mut Rng, i: usize) -> JobRequestWire {
    let groups = vec![group(
        "filter",
        rng.jitter(2.5, 0.1),
        4 + 2 * (i % 7) as u64,
        1 + (i / 7 % 5) as u32,
    )];
    job(rng, groups, 2 + (i % 4) as u64, i)
}

/// RA shape of stratum `i`: one task type, two or three repetition
/// levels. The budget ratio is set separately so ladders can vary it.
fn ra_groups(rng: &mut Rng, i: usize) -> Vec<TaskGroupSpec> {
    let rate = rng.jitter(2.0, 0.1);
    let levels: &[u32] = if i.is_multiple_of(2) {
        &[3, 5]
    } else {
        &[2, 4, 6]
    };
    levels
        .iter()
        .enumerate()
        .map(|(g, &reps)| group("vote", rate, 3 + ((i + g) % 4) as u64, reps))
        .collect()
}

/// Scenario II: one task type, mixed repetitions (RA).
fn ra_job(rng: &mut Rng, i: usize) -> JobRequestWire {
    let groups = ra_groups(rng, i);
    job(rng, groups, 2 + (i % 3) as u64, i)
}

/// Scenario III: an easy and a hard task type (HA).
fn ha_job(rng: &mut Rng, i: usize) -> JobRequestWire {
    let groups = vec![
        group(
            "easy",
            rng.jitter(3.0, 0.1),
            3 + (i % 4) as u64,
            3 + (i % 3) as u32,
        ),
        group(
            "hard",
            rng.jitter(1.0, 0.1),
            3 + (i / 4 % 3) as u64,
            4 + (i % 2) as u32,
        ),
    ];
    job(rng, groups, 2 + (i % 3) as u64, i)
}

/// Stratum `i` of the small-job mix: EA, RA and HA in turn.
fn small_job(rng: &mut Rng, i: usize) -> JobRequestWire {
    match i % 3 {
        0 => ea_job(rng, i / 3),
        1 => ra_job(rng, i / 3),
        _ => ha_job(rng, i / 3),
    }
}

/// `durable_cold`: a population of RA families plus EA/HA plans (seeded
/// apart from the timed jobs), then `count` timed jobs repeating none of
/// them — half budget ladders over the recovered families, half fresh
/// shapes that need cold solves.
fn durable(seed: u64, count: usize) -> Workload {
    let mut pop_rng = Rng::new(seed, 2);
    let mut seen = HashSet::new();
    let mut population = Vec::new();
    let mut families = Vec::new();
    for f in 0..POPULATION_FAMILIES {
        let base = distinct(&mut seen, &mut pop_rng, |rng| ra_job(rng, f));
        let slots: u64 = base
            .groups
            .iter()
            .map(|g| g.tasks * u64::from(g.repetitions))
            .sum();
        // The population's top budget sets the family table's coverage;
        // the timed ladder reads below it and extends above it.
        let top = slots * 3 + pop_rng.below(slots);
        let mut budgets = vec![top];
        while budgets.len() < POPULATION_BUDGETS_PER_FAMILY {
            let budget = slots + 1 + pop_rng.below(top - slots - 1);
            if !budgets.contains(&budget) {
                budgets.push(budget);
            }
        }
        for budget in budgets {
            let mut job = base.clone();
            job.budget = budget;
            seen.insert(identity(&job));
            population.push(job);
        }
        families.push((base, slots, top));
    }
    for i in 0..POPULATION_SINGLES {
        population.push(distinct(&mut seen, &mut pop_rng, |rng| ea_job(rng, i)));
        population.push(distinct(&mut seen, &mut pop_rng, |rng| ha_job(rng, i)));
    }

    let mut rng = Rng::new(seed, 3);
    let mut jobs = Vec::with_capacity(count);
    let ladder = count / 2;
    for n in 0..ladder {
        let (base, slots, top) = &families[n % families.len()];
        // Alternate reads under the recovered coverage with extensions
        // beyond it (up to twice the population's top budget).
        let mut attempt = 0;
        let job = distinct(&mut seen, &mut rng, |rng| {
            // A long run can use up the budgets under the coverage: after
            // 64 collisions, extend instead, over a widening range.
            let read = n / families.len() % 2 == 0 && attempt < 64;
            let widen = 1 + attempt / 64;
            attempt += 1;
            let mut job = base.clone();
            job.tenant = TENANTS[rng.below(TENANTS.len() as u64) as usize].to_owned();
            job.budget = if read {
                slots + 1 + rng.below(top - slots - 1)
            } else {
                top + 1 + rng.below(top * widen)
            };
            job
        });
        jobs.push(job);
    }
    for n in 0..count - ladder {
        jobs.push(distinct(&mut seen, &mut rng, |rng| small_job(rng, n)));
    }
    let mut schedule: Vec<usize> = (0..jobs.len()).collect();
    rng.shuffle(&mut schedule);
    Workload {
        kind: Kind::DurableCold,
        jobs,
        schedule,
        keys: Vec::new(),
        population,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        for kind in [Kind::WarmHttp, Kind::AuthHttp, Kind::DurableCold] {
            let a = Workload::generate(kind, 7, 1);
            let b = Workload::generate(kind, 7, 1);
            let c = Workload::generate(kind, 8, 1);
            assert_eq!(a.jobs, b.jobs);
            assert_eq!(a.schedule, b.schedule);
            assert_eq!(a.keys, b.keys);
            assert_eq!(a.population, b.population);
            assert_ne!(a.jobs, c.jobs);
        }
    }

    #[test]
    fn warm_schedule_sends_every_job_equally_often() {
        let w = Workload::generate(Kind::WarmHttp, 3, 1);
        assert_eq!(w.jobs.len(), WARM_CATALOGUE);
        assert_eq!(w.schedule.len(), WARM_REQUESTS_PER_SECOND);
        let mut counts = vec![0; w.jobs.len()];
        for &j in &w.schedule {
            counts[j] += 1;
        }
        let (min, max) = (counts.iter().min().unwrap(), counts.iter().max().unwrap());
        assert!(max - min <= 1, "{min}..{max}");
        assert_eq!(w.first_send_order().len(), w.jobs.len());
    }

    #[test]
    fn auth_keys_cover_every_tenant() {
        let w = Workload::generate(Kind::AuthHttp, 3, 1);
        for tenant in TENANTS {
            assert!(w.key_for(tenant).is_some());
        }
        assert!(Workload::generate(Kind::WarmHttp, 3, 1).keys.is_empty());
    }

    #[test]
    fn durable_jobs_repeat_nothing_and_ladders_reuse_population_families() {
        let w = Workload::generate(Kind::DurableCold, 11, 2);
        assert_eq!(w.schedule.len(), 2 * DURABLE_REQUESTS_PER_SECOND);
        let stored: HashSet<String> = w.population.iter().map(identity).collect();
        let timed: HashSet<String> = w.jobs.iter().map(identity).collect();
        assert_eq!(timed.len(), w.jobs.len(), "timed jobs repeat each other");
        assert!(stored.is_disjoint(&timed), "a timed job repeats the store");
        let shape = |job: &JobRequestWire| {
            let mut job = job.clone();
            job.tenant.clear();
            job.budget = 0;
            serde_json::to_string(&job).unwrap()
        };
        let families: HashSet<String> = w.population.iter().map(shape).collect();
        let reused = w
            .jobs
            .iter()
            .filter(|j| families.contains(&shape(j)))
            .count();
        assert_eq!(reused, w.jobs.len() / 2);
    }

    #[test]
    fn long_durable_runs_still_find_new_budgets() {
        let w = Workload::generate(Kind::DurableCold, 1, 40);
        assert_eq!(w.jobs.len(), 40 * DURABLE_REQUESTS_PER_SECOND);
    }

    #[test]
    fn every_job_is_valid() {
        for kind in [Kind::WarmHttp, Kind::DurableCold] {
            let w = Workload::generate(kind, 5, 1);
            for job in w.jobs.iter().chain(&w.population) {
                job.to_request(u64::MAX).expect("valid job");
            }
        }
    }
}
