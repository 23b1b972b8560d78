//! Leveled, rate-limited, trace-correlated structured logging.
//!
//! A [`Logger`] is a bounded in-memory ring of structured [`LogRecord`]s,
//! surfaced as JSON at `GET /v1/debug/logs`. Every record is stamped with
//! the thread's active trace/span ([`crate::span::current_span`]), so a
//! trace found in the span store and the log lines emitted while serving it
//! share ids — the causal join the debug endpoints are built around.
//!
//! Emission is guarded twice:
//!
//! * a **level floor** ([`LoggerConfig::min_level`]) checked before any
//!   formatting cost;
//! * a **token bucket** ([`LoggerConfig::rate_per_sec`] with burst) so a
//!   logging storm (a tight error loop) cannot take down the process —
//!   over-rate records are counted in
//!   `crowdtune_log_records_dropped_total` instead of retained.
//!
//! Accepted records count toward `crowdtune_log_records_total{level}`.

use crate::metric::Counter;
use crate::registry::Registry;
use crate::span::{current_span, SpanId, TraceId};
use std::collections::VecDeque;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Log severity, ordered `Debug < Info < Warn < Error`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum LogLevel {
    /// Diagnostic detail, off by default.
    Debug,
    /// Normal operational events.
    Info,
    /// Unexpected but handled conditions.
    Warn,
    /// Failures.
    Error,
}

impl LogLevel {
    /// All levels, ascending.
    pub const ALL: [LogLevel; 4] = [
        LogLevel::Debug,
        LogLevel::Info,
        LogLevel::Warn,
        LogLevel::Error,
    ];

    /// The wire form: `"debug"`, `"info"`, `"warn"`, `"error"`.
    pub fn as_str(self) -> &'static str {
        match self {
            LogLevel::Debug => "debug",
            LogLevel::Info => "info",
            LogLevel::Warn => "warn",
            LogLevel::Error => "error",
        }
    }

    /// Parses the wire form (case-insensitive).
    pub fn parse(s: &str) -> Option<LogLevel> {
        match s.to_ascii_lowercase().as_str() {
            "debug" => Some(LogLevel::Debug),
            "info" => Some(LogLevel::Info),
            "warn" | "warning" => Some(LogLevel::Warn),
            "error" => Some(LogLevel::Error),
            _ => None,
        }
    }

    fn index(self) -> usize {
        match self {
            LogLevel::Debug => 0,
            LogLevel::Info => 1,
            LogLevel::Warn => 2,
            LogLevel::Error => 3,
        }
    }
}

/// One structured log record.
#[derive(Debug, Clone)]
pub struct LogRecord {
    /// Unix timestamp in nanoseconds.
    pub ts_unix_ns: u64,
    /// Severity.
    pub level: LogLevel,
    /// Emitting component (e.g. `"gateway"`, `"serve.worker"`).
    pub target: &'static str,
    /// Human-readable message.
    pub message: String,
    /// Trace active on the emitting thread, if any.
    pub trace_id: Option<TraceId>,
    /// Span active on the emitting thread, if any.
    pub span_id: Option<SpanId>,
    /// Structured key/value fields.
    pub fields: Vec<(&'static str, String)>,
}

/// Retention and throttling policy for a [`Logger`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoggerConfig {
    /// Ring capacity (records retained for `GET /v1/debug/logs`).
    pub capacity: usize,
    /// Records below this level are discarded before formatting.
    pub min_level: LogLevel,
    /// Sustained admission rate (records/second) of the token bucket.
    pub rate_per_sec: f64,
    /// Burst size of the token bucket.
    pub burst: f64,
}

impl Default for LoggerConfig {
    fn default() -> Self {
        LoggerConfig {
            capacity: 1024,
            min_level: LogLevel::Info,
            rate_per_sec: 500.0,
            burst: 250.0,
        }
    }
}

/// A token bucket: tokens accrue at a caller-given rate up to a burst cap,
/// and each admission spends one. The logger's rate limit and the
/// gateway's per-tenant quotas both use it; each caller passes its own
/// (clamped) rate and burst on every take.
#[derive(Debug, Clone, Copy)]
pub struct TokenBucket {
    /// Tokens available as of `refilled_at`.
    pub tokens: f64,
    /// When `tokens` was last brought up to date.
    pub refilled_at: Instant,
}

impl TokenBucket {
    /// The tokens the bucket holds at `now`: `min(tokens + elapsed · rate,
    /// burst)`. Never less at a later `now`, so a bucket that reads `burst`
    /// reads it until its next take.
    pub fn available(&self, now: Instant, rate: f64, burst: f64) -> f64 {
        let elapsed = now.duration_since(self.refilled_at).as_secs_f64();
        (self.tokens + elapsed * rate).min(burst)
    }

    /// Refills to [`TokenBucket::available`] as of `now`, then spends one
    /// token, or returns the deficit: how far the bucket is short of one
    /// token.
    pub fn try_take(&mut self, now: Instant, rate: f64, burst: f64) -> Result<(), f64> {
        self.tokens = self.available(now, rate, burst);
        self.refilled_at = now;
        if self.tokens >= 1.0 {
            self.tokens -= 1.0;
            Ok(())
        } else {
            Err(1.0 - self.tokens)
        }
    }
}

/// A bounded, rate-limited ring of structured log records.
#[derive(Debug)]
pub struct Logger {
    config: LoggerConfig,
    ring: Mutex<VecDeque<LogRecord>>,
    bucket: Mutex<TokenBucket>,
    records: [Counter; 4],
    dropped: Counter,
}

impl Logger {
    /// Creates a logger and registers `crowdtune_log_records_total{level}`
    /// and `crowdtune_log_records_dropped_total` in `registry`.
    pub fn new(registry: &Registry, config: LoggerConfig) -> Arc<Logger> {
        let records = LogLevel::ALL.map(|level| {
            registry.counter(
                "crowdtune_log_records_total",
                "Structured log records accepted, by level.",
                &[("level", level.as_str())],
            )
        });
        let dropped = registry.counter(
            "crowdtune_log_records_dropped_total",
            "Structured log records discarded by the rate limiter.",
            &[],
        );
        Arc::new(Logger {
            config,
            ring: Mutex::new(VecDeque::with_capacity(config.capacity.max(1))),
            bucket: Mutex::new(TokenBucket {
                tokens: config.burst.max(1.0),
                refilled_at: Instant::now(),
            }),
            records,
            dropped,
        })
    }

    /// The policy in force.
    pub fn config(&self) -> LoggerConfig {
        self.config
    }

    /// Emits a record with no structured fields.
    pub fn log(&self, level: LogLevel, target: &'static str, message: impl Into<String>) {
        self.log_with(level, target, message, Vec::new());
    }

    /// Emits a record with structured fields. Below-floor levels cost one
    /// comparison; over-rate records are dropped (and counted) after the
    /// level check but before ring admission.
    pub fn log_with(
        &self,
        level: LogLevel,
        target: &'static str,
        message: impl Into<String>,
        fields: Vec<(&'static str, String)>,
    ) {
        if level < self.config.min_level {
            return;
        }
        if !self.take_token() {
            self.dropped.inc();
            return;
        }
        self.records[level.index()].inc();
        let (trace_id, span_id) = match current_span() {
            Some((trace, span)) => (Some(trace), Some(span)),
            None => (None, None),
        };
        let record = LogRecord {
            ts_unix_ns: std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map(|d| d.as_nanos() as u64)
                .unwrap_or(0),
            level,
            target,
            message: message.into(),
            trace_id,
            span_id,
            fields,
        };
        let mut ring = self.ring.lock().expect("log ring poisoned");
        if ring.len() >= self.config.capacity.max(1) {
            ring.pop_front();
        }
        ring.push_back(record);
    }

    fn take_token(&self) -> bool {
        let mut bucket = self.bucket.lock().expect("log bucket poisoned");
        let burst = self.config.burst.max(1.0);
        bucket
            .try_take(Instant::now(), self.config.rate_per_sec, burst)
            .is_ok()
    }

    /// The retained records, oldest first, filtered to `min_level` and
    /// truncated to the **newest** `limit`.
    pub fn snapshot(&self, min_level: Option<LogLevel>, limit: usize) -> Vec<LogRecord> {
        let ring = self.ring.lock().expect("log ring poisoned");
        let filtered: Vec<LogRecord> = ring
            .iter()
            .filter(|r| min_level.is_none_or(|floor| r.level >= floor))
            .cloned()
            .collect();
        let skip = filtered.len().saturating_sub(limit.max(1));
        filtered.into_iter().skip(skip).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::enter_span;

    fn logger(config: LoggerConfig) -> Arc<Logger> {
        Logger::new(&Registry::new(), config)
    }

    #[test]
    fn level_floor_filters_before_admission() {
        let log = logger(LoggerConfig {
            min_level: LogLevel::Warn,
            ..LoggerConfig::default()
        });
        log.log(LogLevel::Info, "test", "quiet");
        log.log(LogLevel::Error, "test", "loud");
        let kept = log.snapshot(None, 16);
        assert_eq!(kept.len(), 1);
        assert_eq!(kept[0].message, "loud");
    }

    #[test]
    fn ring_is_bounded_and_keeps_newest() {
        let log = logger(LoggerConfig {
            capacity: 3,
            rate_per_sec: 1e9,
            burst: 1e9,
            ..LoggerConfig::default()
        });
        for i in 0..10 {
            log.log(LogLevel::Info, "test", format!("m{i}"));
        }
        let kept: Vec<String> = log
            .snapshot(None, 16)
            .into_iter()
            .map(|r| r.message)
            .collect();
        assert_eq!(kept, vec!["m7", "m8", "m9"]);
    }

    #[test]
    fn rate_limiter_drops_and_counts_storms() {
        let registry = Registry::new();
        let log = Logger::new(
            &registry,
            LoggerConfig {
                capacity: 1024,
                min_level: LogLevel::Debug,
                rate_per_sec: 0.0,
                burst: 2.0,
            },
        );
        for _ in 0..10 {
            log.log(LogLevel::Error, "test", "storm");
        }
        assert_eq!(log.snapshot(None, 64).len(), 2);
        let text = registry.render_prometheus();
        assert!(
            text.contains("crowdtune_log_records_dropped_total 8"),
            "{text}"
        );
        assert!(
            text.contains("crowdtune_log_records_total{level=\"error\"} 2"),
            "{text}"
        );
    }

    #[test]
    fn records_carry_the_active_span() {
        let log = logger(LoggerConfig::default());
        {
            let _guard = enter_span(TraceId(0xabc), SpanId(0xdef));
            log.log(LogLevel::Info, "test", "traced");
        }
        log.log(LogLevel::Info, "test", "untraced");
        let kept = log.snapshot(None, 16);
        assert_eq!(kept[0].trace_id, Some(TraceId(0xabc)));
        assert_eq!(kept[0].span_id, Some(SpanId(0xdef)));
        assert_eq!(kept[1].trace_id, None);
    }
}
