//! The multi-tenant job queue: admission control and round-robin fairness.
//!
//! Heavy tuning traffic from many requesters must not let one chatty tenant
//! starve everyone else. The queue therefore keeps one FIFO lane per tenant
//! and serves lanes round-robin: a tenant with 10 000 queued jobs and a
//! tenant with 1 get alternating service, so per-tenant queueing delay is
//! bounded by the number of *active tenants*, not by total backlog.
//!
//! Admission control is depth-based back-pressure: a global bound and a
//! per-tenant bound, both checked at submit time. Rejected jobs return
//! [`AdmissionError`] immediately — shedding load at the door is cheaper
//! than timing out deep in the queue. Only jobs that need a worker reach the
//! queue: the tuning service answers exact plan-cache hits at submit.

use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::sync::{Condvar, Mutex};

/// Why a submission was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AdmissionError {
    /// The whole service is at capacity.
    QueueFull {
        /// The configured global depth bound.
        limit: usize,
    },
    /// This tenant has too many jobs in flight.
    TenantOverLimit {
        /// The configured per-tenant depth bound.
        limit: usize,
    },
    /// The queue was shut down.
    Closed,
}

impl fmt::Display for AdmissionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AdmissionError::QueueFull { limit } => {
                write!(f, "service queue is full ({limit} jobs pending)")
            }
            AdmissionError::TenantOverLimit { limit } => {
                write!(f, "tenant exceeded its pending-job limit of {limit}")
            }
            AdmissionError::Closed => f.write_str("service is shut down"),
        }
    }
}

impl std::error::Error for AdmissionError {}

/// Queue depth limits. They bound jobs waiting in the queue: the tuning
/// service answers exact plan-cache hits before the queue, so a hit never
/// counts against them or is refused by them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdmissionPolicy {
    /// Maximum jobs pending across all tenants.
    pub max_pending: usize,
    /// Maximum jobs pending for any single tenant.
    pub max_pending_per_tenant: usize,
}

impl Default for AdmissionPolicy {
    fn default() -> Self {
        AdmissionPolicy {
            max_pending: 4096,
            max_pending_per_tenant: 256,
        }
    }
}

struct Lanes<T> {
    /// Per-tenant FIFO lanes.
    lanes: HashMap<String, VecDeque<T>>,
    /// Round-robin ring of tenants with at least one pending job.
    ring: VecDeque<String>,
    pending: usize,
    closed: bool,
}

/// A blocking MPMC queue with per-tenant round-robin fairness.
pub struct JobQueue<T> {
    inner: Mutex<Lanes<T>>,
    ready: Condvar,
    policy: AdmissionPolicy,
}

impl<T> JobQueue<T> {
    /// Creates an empty queue with the given admission policy.
    pub fn new(policy: AdmissionPolicy) -> Self {
        JobQueue {
            inner: Mutex::new(Lanes {
                lanes: HashMap::new(),
                ring: VecDeque::new(),
                pending: 0,
                closed: false,
            }),
            ready: Condvar::new(),
            policy,
        }
    }

    /// Enqueues a job for `tenant`, applying admission control. `admitted`
    /// runs under the queue lock once the job is admitted and before any
    /// worker can see it, so whatever it counts precedes everything a worker
    /// does with the job; a refused job never runs it. A refused job is
    /// handed back with the reason (as [`std::sync::mpsc::SendError`]
    /// returns an unsent value), so the caller decides how it is dropped.
    pub fn submit(
        &self,
        tenant: &str,
        job: T,
        admitted: impl FnOnce(),
    ) -> Result<(), (AdmissionError, T)> {
        let mut inner = self.inner.lock().expect("job queue poisoned");
        if inner.closed {
            return Err((AdmissionError::Closed, job));
        }
        if inner.pending >= self.policy.max_pending {
            let limit = self.policy.max_pending;
            return Err((AdmissionError::QueueFull { limit }, job));
        }
        // Check the per-tenant bound *before* creating the lane: rejected
        // submissions must not leave an empty lane behind, or first-time
        // rejects (any tenant when the per-tenant limit is 0) would grow the
        // map by one entry per attacker-controlled tenant string.
        let depth = inner.lanes.get(tenant).map_or(0, VecDeque::len);
        if depth >= self.policy.max_pending_per_tenant {
            let limit = self.policy.max_pending_per_tenant;
            return Err((AdmissionError::TenantOverLimit { limit }, job));
        }
        admitted();
        let lane = inner.lanes.entry(tenant.to_owned()).or_default();
        lane.push_back(job);
        if lane.len() == 1 {
            inner.ring.push_back(tenant.to_owned());
        }
        inner.pending += 1;
        drop(inner);
        self.ready.notify_one();
        Ok(())
    }

    /// Takes the next job in round-robin tenant order, blocking while the
    /// queue is empty. Returns `None` once the queue is closed *and*
    /// drained.
    pub fn pop(&self) -> Option<T> {
        let mut inner = self.inner.lock().expect("job queue poisoned");
        loop {
            if let Some(tenant) = inner.ring.pop_front() {
                let lane = inner
                    .lanes
                    .get_mut(&tenant)
                    .expect("ring references live lanes");
                let job = lane.pop_front().expect("ring lanes are non-empty");
                if lane.is_empty() {
                    inner.lanes.remove(&tenant);
                } else {
                    inner.ring.push_back(tenant);
                }
                inner.pending -= 1;
                return Some(job);
            }
            if inner.closed {
                return None;
            }
            inner = self.ready.wait(inner).expect("job queue poisoned");
        }
    }

    /// Jobs currently pending.
    pub fn pending(&self) -> usize {
        self.inner.lock().expect("job queue poisoned").pending
    }

    /// Tenants that currently have at least one pending job (the queue keeps
    /// no state for idle tenants, so this is also the size of the lane map —
    /// a useful capacity metric).
    pub fn active_tenants(&self) -> usize {
        self.inner.lock().expect("job queue poisoned").lanes.len()
    }

    /// Closes the queue: further submissions fail, workers drain what is
    /// left and then see `None`.
    pub fn close(&self) {
        self.inner.lock().expect("job queue poisoned").closed = true;
        self.ready.notify_all();
    }

    /// Whether [`JobQueue::close`] was called. A worker exiting against a
    /// closed queue is an orderly drain, not a death — the supervisor
    /// consults this to avoid respawning into a stopping pool.
    pub fn is_closed(&self) -> bool {
        self.inner.lock().expect("job queue poisoned").closed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn queue(max_pending: usize, per_tenant: usize) -> JobQueue<u32> {
        JobQueue::new(AdmissionPolicy {
            max_pending,
            max_pending_per_tenant: per_tenant,
        })
    }

    #[test]
    fn fifo_within_a_tenant() {
        let q = queue(16, 16);
        q.submit("a", 1, || {}).unwrap();
        q.submit("a", 2, || {}).unwrap();
        q.submit("a", 3, || {}).unwrap();
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), Some(3));
    }

    #[test]
    fn round_robin_across_tenants() {
        let q = queue(16, 16);
        // Tenant "hog" floods first; "mouse" arrives later with one job.
        q.submit("hog", 10, || {}).unwrap();
        q.submit("hog", 11, || {}).unwrap();
        q.submit("hog", 12, || {}).unwrap();
        q.submit("mouse", 99, || {}).unwrap();
        assert_eq!(q.pop(), Some(10));
        // Fairness: the mouse is served before the hog's backlog drains.
        assert_eq!(q.pop(), Some(99));
        assert_eq!(q.pop(), Some(11));
        assert_eq!(q.pop(), Some(12));
    }

    #[test]
    fn admission_limits_apply() {
        let q = queue(3, 2);
        q.submit("a", 1, || {}).unwrap();
        q.submit("a", 2, || {}).unwrap();
        assert_eq!(
            q.submit("a", 3, || {}),
            Err((AdmissionError::TenantOverLimit { limit: 2 }, 3))
        );
        q.submit("b", 4, || {}).unwrap();
        assert_eq!(
            q.submit("c", 5, || {}),
            Err((AdmissionError::QueueFull { limit: 3 }, 5))
        );
        assert_eq!(q.pending(), 3);
    }

    /// Regression test: a rejected submission must not leave an empty lane
    /// behind. With `max_pending_per_tenant == 0` every first-time submit is
    /// refused, and before the fix each refusal leaked a lane keyed by the
    /// (attacker-controlled) tenant string.
    #[test]
    fn rejected_submissions_do_not_leak_tenant_lanes() {
        let q = queue(16, 0);
        for i in 0..100u32 {
            assert_eq!(
                q.submit(&format!("tenant-{i}"), i, || {}),
                Err((AdmissionError::TenantOverLimit { limit: 0 }, i))
            );
        }
        assert_eq!(q.active_tenants(), 0, "rejects must not create lanes");
        assert_eq!(q.pending(), 0);

        // A tenant rejected at a non-zero cap keeps exactly its existing
        // lane, and lanes are still reclaimed once drained.
        let q = queue(16, 1);
        q.submit("a", 1, || {}).unwrap();
        assert_eq!(
            q.submit("a", 2, || {}),
            Err((AdmissionError::TenantOverLimit { limit: 1 }, 2))
        );
        assert_eq!(q.active_tenants(), 1);
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.active_tenants(), 0, "drained lanes are removed");
    }

    #[test]
    fn close_rejects_submissions_and_drains() {
        let q = queue(8, 8);
        q.submit("a", 1, || {}).unwrap();
        q.close();
        assert_eq!(q.submit("a", 2, || {}), Err((AdmissionError::Closed, 2)));
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn blocking_pop_wakes_on_submit() {
        let q = Arc::new(queue(8, 8));
        let consumer = {
            let q = q.clone();
            std::thread::spawn(move || q.pop())
        };
        std::thread::sleep(std::time::Duration::from_millis(20));
        q.submit("a", 7, || {}).unwrap();
        assert_eq!(consumer.join().unwrap(), Some(7));
    }

    #[test]
    fn close_wakes_blocked_consumers() {
        let q = Arc::new(queue(8, 8));
        let consumer = {
            let q = q.clone();
            std::thread::spawn(move || q.pop())
        };
        std::thread::sleep(std::time::Duration::from_millis(20));
        q.close();
        assert_eq!(consumer.join().unwrap(), None);
    }

    /// The admit callback runs once per admitted job, while the job is not
    /// yet poppable, and never for a refused one.
    #[test]
    fn admit_callback_runs_before_the_job_is_visible_and_only_on_admission() {
        let q = queue(2, 1);
        let admitted = std::cell::Cell::new(0);
        q.submit("a", 1, || {
            assert!(q.inner.try_lock().is_err(), "runs under the queue lock");
            admitted.set(admitted.get() + 1);
        })
        .unwrap();
        assert!(q
            .submit("a", 2, || admitted.set(admitted.get() + 1))
            .is_err());
        q.submit("b", 3, || admitted.set(admitted.get() + 1))
            .unwrap();
        assert!(q
            .submit("c", 4, || admitted.set(admitted.get() + 1))
            .is_err());
        q.close();
        assert!(q
            .submit("d", 5, || admitted.set(admitted.get() + 1))
            .is_err());
        assert_eq!(admitted.get(), 2, "refused submits must not count");
        assert_eq!(q.pending(), 2);
    }
}
