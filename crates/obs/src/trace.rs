//! Per-job lifecycle traces.
//!
//! A [`JobTrace`] is a set of **monotonic stage stamps** — nanosecond
//! offsets from one fixed epoch (the owning service's boot instant), all
//! taken from the same monotonic clock, so stage durations are simple
//! saturating differences and stamps are comparable across jobs within one
//! process lifetime:
//!
//! ```text
//! admitted → enqueued → dequeued → solve start → solve end → estimate end → completed
//! ```
//!
//! `family_lock_wait_ns` is a duration, not a stamp: time spent blocked on
//! the plan-family entry lock inside the solve window (zero for cache hits
//! and cold non-family solves).
//!
//! The span tree is the stored record: [`JobTrace::record_spans`] hands the
//! stamps to an [`ActiveTrace`], which renders them as spans if sampling
//! keeps the trace, and [`JobTrace::from_spans`] reconstructs the stamp view
//! from a stored span tree. The two agree on every stage duration, so there
//! is one bookkeeping source, viewed two ways: the slowest-jobs list behind
//! `GET /v1/debug/slowest` is this view over the
//! [`SpanStore`](crate::span::SpanStore).

use crate::span::{random_span_id, ActiveTrace, AttrValue, Span, SpanId, SpanStatus, TraceId};

/// Stage stamps (ns offsets from the service epoch) and labels for one
/// served job. A stamp of zero means the stage was not reached (or telemetry
/// was off).
#[derive(Debug, Clone, Default)]
pub struct JobTrace {
    /// Service-assigned job id.
    pub job_id: u64,
    /// Submitting tenant.
    pub tenant: String,
    /// Name of the market the job was tuned against (empty when the owning
    /// service predates markets or telemetry was off).
    pub market: String,
    /// Paper scenario the problem resolved to: `"EA"`, `"RA"` or `"HA"`.
    pub scenario: &'static str,
    /// Where the plan came from: `"cache"`, `"family"` or `"cold"`.
    pub source: &'static str,
    /// How the job ended: `"ok"`, `"failed"`, `"panicked"` or `"lost"`
    /// (empty means `"ok"`, for traces stamped before the field existed).
    pub status: &'static str,
    /// Admission control passed.
    pub admitted_ns: u64,
    /// Job visible in its tenant lane (journal write, if any, included).
    pub enqueued_ns: u64,
    /// A worker picked the job up.
    pub dequeued_ns: u64,
    /// Solve began (fingerprint + cache probe done).
    pub solve_start_ns: u64,
    /// A plan existed (cache read / family read-extend / cold DP solve).
    pub solve_end_ns: u64,
    /// Latency-estimate attach done (equals `solve_end_ns` when no estimate
    /// step ran, e.g. cache hits).
    pub estimate_end_ns: u64,
    /// Response handed to the submitter.
    pub completed_ns: u64,
    /// Time blocked acquiring the plan-family entry lock (duration).
    pub family_lock_wait_ns: u64,
}

impl JobTrace {
    /// Time from lane visibility to worker pickup.
    pub fn queue_wait_ns(&self) -> u64 {
        self.dequeued_ns.saturating_sub(self.enqueued_ns)
    }

    /// Time producing the plan (includes `family_lock_wait_ns`).
    pub fn solve_ns(&self) -> u64 {
        self.solve_end_ns.saturating_sub(self.solve_start_ns)
    }

    /// Time attaching the latency estimate after the plan existed.
    pub fn estimate_ns(&self) -> u64 {
        self.estimate_end_ns.saturating_sub(self.solve_end_ns)
    }

    /// End-to-end time from admission to response.
    pub fn total_ns(&self) -> u64 {
        self.completed_ns.saturating_sub(self.admitted_ns)
    }

    /// The status with the legacy empty default normalized to `"ok"`.
    pub fn status_str(&self) -> &'static str {
        if self.status.is_empty() {
            "ok"
        } else {
            self.status
        }
    }

    /// Whether the job completed successfully.
    pub fn is_ok(&self) -> bool {
        self.status_str() == "ok"
    }

    /// Records the job's span subtree into `trace`: a `job` span (parented
    /// under the trace root) with `queue.wait`, `solve` (plus
    /// `family.lock_wait` when the solve blocked on the family entry lock)
    /// and `estimate` children, and the trace's summary labels. Every stage
    /// span reuses the stamps — no extra clock reads. The spans are counted
    /// now (and a failed job marks the trace errored, so it is
    /// tail-sampled) but rendered only if sampling keeps the trace, so an
    /// unsampled trace pays for none of them.
    pub fn record_spans(self, trace: &ActiveTrace) {
        trace.defer_job(self);
    }

    /// How many spans [`JobTrace::record_spans`] renders for this job.
    pub fn span_count(&self) -> u64 {
        let mut count = 2; // job, queue.wait
        if self.solve_start_ns != 0 {
            count += 1;
            count += u64::from(self.family_lock_wait_ns > 0);
            count += u64::from(self.estimate_end_ns > self.solve_end_ns);
        }
        count
    }

    /// Renders the job's span subtree (see [`JobTrace::record_spans`]) into
    /// `out`, under the root span `root` of trace `trace_id`.
    pub(crate) fn render_spans(self, trace_id: TraceId, root: SpanId, out: &mut Vec<Span>) {
        let span = |name, parent, start_ns: u64, end_ns: u64, status, attrs| Span {
            trace_id,
            span_id: random_span_id(),
            parent: Some(parent),
            name,
            start_ns,
            duration_ns: end_ns.saturating_sub(start_ns),
            status,
            attrs,
        };
        let status = if self.is_ok() {
            SpanStatus::Ok
        } else {
            SpanStatus::Error
        };
        let mut attrs = vec![
            ("job_id", AttrValue::U64(self.job_id)),
            ("tenant", AttrValue::Str(self.tenant.clone())),
            ("status", AttrValue::Str(self.status_str().to_owned())),
        ];
        if !self.market.is_empty() {
            attrs.push(("market", AttrValue::Str(self.market.clone())));
        }
        if !self.scenario.is_empty() {
            attrs.push(("scenario", AttrValue::Str(self.scenario.to_owned())));
        }
        if !self.source.is_empty() {
            attrs.push(("source", AttrValue::Str(self.source.to_owned())));
        }
        let job = span(
            "job",
            root,
            self.admitted_ns,
            self.completed_ns,
            status,
            attrs,
        );
        let job_id = job.span_id;
        out.push(job);
        out.push(span(
            "queue.wait",
            job_id,
            self.enqueued_ns,
            self.dequeued_ns,
            SpanStatus::Ok,
            Vec::new(),
        ));
        if self.solve_start_ns != 0 {
            let mut solve_attrs = Vec::new();
            if !self.source.is_empty() {
                solve_attrs.push(("source", AttrValue::Str(self.source.to_owned())));
            }
            let solve = span(
                "solve",
                job_id,
                self.solve_start_ns,
                self.solve_end_ns,
                status,
                solve_attrs,
            );
            let solve_id = solve.span_id;
            out.push(solve);
            if self.family_lock_wait_ns > 0 {
                // The lock wait is a duration inside the solve window; it is
                // rendered anchored at the solve start (where the family
                // entry lock is taken).
                out.push(span(
                    "family.lock_wait",
                    solve_id,
                    self.solve_start_ns,
                    self.solve_start_ns + self.family_lock_wait_ns,
                    SpanStatus::Ok,
                    Vec::new(),
                ));
            }
            if self.estimate_end_ns > self.solve_end_ns {
                out.push(span(
                    "estimate",
                    job_id,
                    self.solve_end_ns,
                    self.estimate_end_ns,
                    SpanStatus::Ok,
                    Vec::new(),
                ));
            }
        }
    }

    /// Reconstructs the stamp view from a stored span tree (the inverse of
    /// [`JobTrace::record_spans`] for every label and stage duration; a
    /// solve that produced no plan reads back as an empty solve window):
    /// returns `None` when `spans` holds no `job` span.
    pub fn from_spans(spans: &[Span]) -> Option<JobTrace> {
        let job = spans.iter().find(|s| s.name == "job")?;
        let mut trace = JobTrace {
            admitted_ns: job.start_ns,
            completed_ns: job.start_ns + job.duration_ns,
            status: "ok",
            ..JobTrace::default()
        };
        for (key, value) in &job.attrs {
            match (*key, value) {
                ("job_id", AttrValue::U64(v)) => trace.job_id = *v,
                ("tenant", AttrValue::Str(v)) => trace.tenant = v.clone(),
                ("market", AttrValue::Str(v)) => trace.market = v.clone(),
                ("scenario", AttrValue::Str(v)) => {
                    trace.scenario = match v.as_str() {
                        "EA" => "EA",
                        "RA" => "RA",
                        "HA" => "HA",
                        _ => "",
                    }
                }
                ("source", AttrValue::Str(v)) => {
                    trace.source = match v.as_str() {
                        "cache" => "cache",
                        "family" => "family",
                        "cold" => "cold",
                        _ => "",
                    }
                }
                ("status", AttrValue::Str(v)) => {
                    trace.status = match v.as_str() {
                        "failed" => "failed",
                        "panicked" => "panicked",
                        "lost" => "lost",
                        _ => "ok",
                    }
                }
                _ => {}
            }
        }
        let job_id = job.span_id;
        let mut solve_id = None;
        for span in spans {
            if span.parent == Some(job_id) {
                match span.name {
                    "queue.wait" => {
                        trace.enqueued_ns = span.start_ns;
                        trace.dequeued_ns = span.start_ns + span.duration_ns;
                    }
                    "solve" => {
                        trace.solve_start_ns = span.start_ns;
                        trace.solve_end_ns = span.start_ns + span.duration_ns;
                        // No estimate span means the estimate window was
                        // empty (e.g. cache hits).
                        if trace.estimate_end_ns == 0 {
                            trace.estimate_end_ns = trace.solve_end_ns;
                        }
                        solve_id = Some(span.span_id);
                    }
                    "estimate" => trace.estimate_end_ns = span.start_ns + span.duration_ns,
                    _ => {}
                }
            }
        }
        if let Some(solve_id) = solve_id {
            for span in spans {
                if span.parent == Some(solve_id) && span.name == "family.lock_wait" {
                    trace.family_lock_wait_ns = span.duration_ns;
                }
            }
        }
        Some(trace)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn durations_are_saturating_differences() {
        let t = JobTrace {
            enqueued_ns: 10,
            dequeued_ns: 25,
            solve_start_ns: 30,
            solve_end_ns: 90,
            estimate_end_ns: 95,
            admitted_ns: 5,
            completed_ns: 100,
            ..JobTrace::default()
        };
        assert_eq!(t.queue_wait_ns(), 15);
        assert_eq!(t.solve_ns(), 60);
        assert_eq!(t.estimate_ns(), 5);
        assert_eq!(t.total_ns(), 95);
        assert_eq!(JobTrace::default().total_ns(), 0);
    }

    /// What the gateway's `TraceBody` renders of a trace: the labels, the
    /// status, the four stage durations and the total.
    fn rendered(t: &JobTrace) -> (u64, &str, &str, &str, &str, [u64; 5]) {
        let stages = [
            t.queue_wait_ns(),
            t.solve_ns(),
            t.estimate_ns(),
            t.family_lock_wait_ns,
            t.total_ns(),
        ];
        (
            t.job_id,
            &t.tenant,
            t.scenario,
            t.source,
            t.status_str(),
            stages,
        )
    }

    #[test]
    fn spans_round_trip_to_the_stamp_view() {
        use crate::registry::Registry;
        use crate::span::{Tracer, TracerConfig};

        let tracer = Tracer::new(
            &Registry::new(),
            TracerConfig {
                head_sample_every: 1,
                ..TracerConfig::default()
            },
        );
        let family_solve = JobTrace {
            job_id: 42,
            tenant: "acme".to_owned(),
            market: "amt".to_owned(),
            scenario: "RA",
            source: "family",
            status: "ok",
            admitted_ns: 100,
            enqueued_ns: 110,
            dequeued_ns: 150,
            solve_start_ns: 160,
            solve_end_ns: 900,
            estimate_end_ns: 950,
            completed_ns: 1000,
            family_lock_wait_ns: 25,
        };
        // Each stamp shape the service produces, and whether the span tree
        // holds every stamp (`true`) or only every stage duration.
        let shapes = [
            (family_solve.clone(), true),
            // A cache hit answered at submit: no queue wait, no estimate.
            (
                JobTrace {
                    source: "cache",
                    enqueued_ns: 100,
                    dequeued_ns: 100,
                    solve_start_ns: 105,
                    solve_end_ns: 140,
                    estimate_end_ns: 140,
                    completed_ns: 140,
                    family_lock_wait_ns: 0,
                    ..family_solve.clone()
                },
                true,
            ),
            // A failure before the solve (an invalid problem): no labels,
            // no `solve` span.
            (
                JobTrace {
                    scenario: "",
                    source: "",
                    status: "failed",
                    solve_start_ns: 0,
                    solve_end_ns: 0,
                    estimate_end_ns: 0,
                    family_lock_wait_ns: 0,
                    ..family_solve.clone()
                },
                true,
            ),
            // A failure after a cache miss: the solve began but no plan
            // existed, so the empty `solve` span reads back as ending where
            // it started.
            (
                JobTrace {
                    scenario: "",
                    source: "",
                    status: "panicked",
                    solve_end_ns: 0,
                    estimate_end_ns: 0,
                    family_lock_wait_ns: 0,
                    ..family_solve.clone()
                },
                false,
            ),
        ];
        for (original, lossless) in shapes {
            let active = tracer.start_trace("job.submit", None);
            let id = active.trace_id();
            original.clone().record_spans(&active);
            drop(active);
            let stored = tracer.store().get(id).expect("head-sampled");
            let view = JobTrace::from_spans(&stored.spans).expect("job span present");
            assert_eq!(rendered(&view), rendered(&original), "{original:?}");
            if lossless {
                assert_eq!(format!("{view:?}"), format!("{original:?}"));
            }
            assert_eq!(stored.tenant, "acme");
            assert_eq!(stored.market, "amt");
            assert_eq!(stored.scenario, original.scenario);
        }
    }

    #[test]
    fn from_spans_without_job_span_is_none() {
        assert!(JobTrace::from_spans(&[]).is_none());
    }
}
