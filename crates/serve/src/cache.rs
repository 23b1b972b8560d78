//! Sharded LRU cache of tuned plans.
//!
//! Tuning traffic is heavily repetitive — the same crowd workloads (filter
//! votes, sort votes, standard repetition profiles) arrive from many tenants
//! with identical budgets and market beliefs — so repeated solves of the
//! `O(n·B')` dynamic program are pure waste. The cache maps a
//! [`PlanFingerprint`] to the
//! `Arc<TunedPlan>` produced by the first solve; a hit returns the *same*
//! plan object, so cached responses are bit-identical to the cold solve by
//! construction. Jobs that repeat the workload but not the budget miss here
//! and are picked up by the cross-budget
//! [`PlanFamilies`](crate::family::PlanFamilies) layer behind it.
//!
//! Sharding: entries are distributed over `2^k` independently locked shards
//! by the low bits of the fingerprint, so concurrent tuner workers rarely
//! contend. Each shard runs strict LRU via a monotone recency tick.

use crate::fingerprint::PlanFingerprint;
use crowdtune_core::tuner::TunedPlan;
use crowdtune_obs::{Counter, Registry};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// Counters exposed by the cache. Monotone; read with [`PlanCache::stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups that found a live entry.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Entries evicted by the LRU policy.
    pub evictions: u64,
    /// Entries currently resident.
    pub entries: u64,
}

impl CacheStats {
    /// Hit rate in `[0, 1]`; zero when the cache was never queried.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

#[derive(Debug, Default)]
struct Shard {
    entries: HashMap<u64, (Arc<TunedPlan>, u64)>,
    tick: u64,
}

/// Sharded LRU plan cache. Cheap to share: wrap in an `Arc`.
#[derive(Debug)]
pub struct PlanCache {
    shards: Vec<Mutex<Shard>>,
    capacity_per_shard: usize,
    // Obs-backed counters: the same cells the service registry renders, so
    // `stats()` and a Prometheus scrape can never disagree on a counter.
    hits: Counter,
    misses: Counter,
    evictions: Counter,
}

impl PlanCache {
    /// Creates a cache with `shards` independently locked shards (rounded up
    /// to a power of two) holding at most `capacity_per_shard` plans each.
    pub fn new(shards: usize, capacity_per_shard: usize) -> Self {
        let shard_count = shards.max(1).next_power_of_two();
        PlanCache {
            shards: (0..shard_count)
                .map(|_| Mutex::new(Shard::default()))
                .collect(),
            capacity_per_shard: capacity_per_shard.max(1),
            hits: Counter::new(),
            misses: Counter::new(),
            evictions: Counter::new(),
        }
    }

    fn shard_for(&self, key: PlanFingerprint) -> &Mutex<Shard> {
        let index = (key.0 as usize) & (self.shards.len() - 1);
        &self.shards[index]
    }

    /// Looks up a plan, refreshing its recency on a hit.
    pub fn get(&self, key: PlanFingerprint) -> Option<Arc<TunedPlan>> {
        let plan = self.probe(key);
        if plan.is_none() {
            self.misses.inc();
        }
        plan
    }

    /// [`PlanCache::get`] that counts only a hit. For a lookup whose miss is
    /// followed by a counted `get` of the same key — the service's
    /// submit-time probe, which hands a miss to a worker that looks again —
    /// so each job counts one lookup.
    pub fn probe(&self, key: PlanFingerprint) -> Option<Arc<TunedPlan>> {
        let mut shard = self.shard_for(key).lock().expect("cache shard poisoned");
        shard.tick += 1;
        let tick = shard.tick;
        let (plan, last_used) = shard.entries.get_mut(&key.0)?;
        *last_used = tick;
        let plan = plan.clone();
        drop(shard);
        self.hits.inc();
        Some(plan)
    }

    /// Inserts a plan, evicting the least recently used entry of the shard
    /// if it is full. Returns the plan that is now cached under the key
    /// (first writer wins on races, keeping hits bit-stable).
    pub fn insert(&self, key: PlanFingerprint, plan: Arc<TunedPlan>) -> Arc<TunedPlan> {
        let mut shard = self.shard_for(key).lock().expect("cache shard poisoned");
        shard.tick += 1;
        let tick = shard.tick;
        if let Some((existing, last_used)) = shard.entries.get_mut(&key.0) {
            // Another worker solved the same job concurrently; keep the
            // incumbent so every response for this key stays identical.
            *last_used = tick;
            return existing.clone();
        }
        if shard.entries.len() >= self.capacity_per_shard {
            // Eviction is an O(capacity) scan under the shard lock. With the
            // default sizing (≤512 entries) that is a few µs against a
            // multi-ms DP solve, and it only runs on miss-heavy inserts; an
            // intrusive LRU list is the upgrade path if shard capacities
            // grow by orders of magnitude.
            if let Some((&lru_key, _)) = shard
                .entries
                .iter()
                .min_by_key(|(_, (_, last_used))| *last_used)
            {
                shard.entries.remove(&lru_key);
                self.evictions.inc();
            }
        }
        shard.entries.insert(key.0, (plan.clone(), tick));
        plan
    }

    /// Visits every resident entry (shard by shard, cloning the `Arc`s out
    /// before invoking the callback so no shard lock is held while it runs).
    /// This is the cache's flush hook: the durable service dumps the whole
    /// working set through it on planned shutdowns, catching up any plan
    /// whose write-behind record was dropped under backpressure. Recency is
    /// not perturbed.
    pub fn for_each_entry(&self, mut visit: impl FnMut(PlanFingerprint, &Arc<TunedPlan>)) {
        for shard in &self.shards {
            let entries: Vec<(u64, Arc<TunedPlan>)> = {
                let shard = shard.lock().expect("cache shard poisoned");
                shard
                    .entries
                    .iter()
                    .map(|(&key, (plan, _))| (key, plan.clone()))
                    .collect()
            };
            for (key, plan) in entries {
                visit(PlanFingerprint(key), &plan);
            }
        }
    }

    /// Current counters.
    pub fn stats(&self) -> CacheStats {
        let entries = self
            .shards
            .iter()
            .map(|s| s.lock().expect("cache shard poisoned").entries.len() as u64)
            .sum();
        CacheStats {
            hits: self.hits.get(),
            misses: self.misses.get(),
            evictions: self.evictions.get(),
            entries,
        }
    }

    /// Registers the cache's counters into `registry` under the
    /// `crowdtune_cache_*` names. The registry renders the very cells the
    /// cache increments — no copying, no divergence from [`PlanCache::stats`].
    pub fn register_metrics(&self, registry: &Registry) {
        registry.register_counter(
            "crowdtune_cache_hits_total",
            "Plan-cache lookups answered by a live entry.",
            &[],
            self.hits.clone(),
        );
        registry.register_counter(
            "crowdtune_cache_misses_total",
            "Plan-cache lookups that missed.",
            &[],
            self.misses.clone(),
        );
        registry.register_counter(
            "crowdtune_cache_evictions_total",
            "Plan-cache entries displaced by the LRU policy.",
            &[],
            self.evictions.clone(),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crowdtune_core::money::{Allocation, Payment};
    use crowdtune_core::problem::{LatencyTarget, TuningResult};

    fn plan(tag: u64) -> Arc<TunedPlan> {
        Arc::new(TunedPlan {
            result: TuningResult::new(
                "EA",
                Allocation::uniform(&[1], Payment::units(tag)),
                Some(tag as f64),
                LatencyTarget::ExpectedMaxOnHold,
            ),
            expected_latency: tag as f64,
            expected_on_hold_latency: tag as f64 / 2.0,
        })
    }

    #[test]
    fn get_insert_and_stats() {
        let cache = PlanCache::new(4, 8);
        let key = PlanFingerprint(42);
        assert!(cache.get(key).is_none());
        cache.insert(key, plan(1));
        let hit = cache.get(key).unwrap();
        assert_eq!(hit.expected_latency, 1.0);
        let stats = cache.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.entries, 1);
        assert!((stats.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn probe_counts_only_hits() {
        let cache = PlanCache::new(1, 8);
        let key = PlanFingerprint(9);
        assert!(cache.probe(key).is_none());
        assert_eq!(cache.stats().misses, 0, "a miss is left to the get after");
        cache.insert(key, plan(1));
        assert!(cache.probe(key).is_some());
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 0));
    }

    #[test]
    fn first_writer_wins_on_duplicate_insert() {
        let cache = PlanCache::new(1, 8);
        let key = PlanFingerprint(7);
        let first = cache.insert(key, plan(1));
        let second = cache.insert(key, plan(2));
        assert!(Arc::ptr_eq(&first, &second), "incumbent plan must survive");
        assert!(Arc::ptr_eq(&cache.get(key).unwrap(), &first));
    }

    #[test]
    fn lru_evicts_the_coldest_entry() {
        let cache = PlanCache::new(1, 2);
        cache.insert(PlanFingerprint(1), plan(1));
        cache.insert(PlanFingerprint(2), plan(2));
        // Touch 1 so 2 becomes the LRU entry.
        assert!(cache.get(PlanFingerprint(1)).is_some());
        cache.insert(PlanFingerprint(3), plan(3));
        assert!(cache.get(PlanFingerprint(1)).is_some());
        assert!(cache.get(PlanFingerprint(2)).is_none(), "LRU entry evicted");
        assert!(cache.get(PlanFingerprint(3)).is_some());
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn shard_count_rounds_to_power_of_two() {
        let cache = PlanCache::new(3, 1);
        assert_eq!(cache.shards.len(), 4);
        // Keys differing only in high bits land in one shard without panics.
        cache.insert(PlanFingerprint(0b100), plan(1));
        cache.insert(PlanFingerprint(0b1000100), plan(2));
        assert_eq!(cache.stats().entries, 1, "same shard, capacity 1: evicted");
    }
}
