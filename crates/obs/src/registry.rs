//! The metric [`Registry`]: named families of counters, gauges and
//! histograms, rendered as Prometheus text exposition v0.0.4.
//!
//! ## Naming and rendering contract
//!
//! * Metric names must match `[a-zA-Z_:][a-zA-Z0-9_:]*`, label names
//!   `[a-zA-Z_][a-zA-Z0-9_]*`; violations panic at registration (programmer
//!   error, caught by any test that touches the metric).
//! * Families render in **registration order** and children in creation
//!   order, so a caller can arrange cross-counter invariants (e.g. register
//!   and read "parts" before their "whole" so a concurrent scrape never
//!   shows parts exceeding the whole).
//! * Histogram `_count` is derived from the bucket sums of one snapshot, so
//!   `le="+Inf"` always equals `_count` and cumulative bucket counts are
//!   non-decreasing within a scrape and across scrapes.
//!
//! Histograms carry a `scale` divisor applied at render time: record raw
//! nanoseconds, register with `scale = 1e9`, and the exposition speaks
//! seconds (the Prometheus base-unit convention) without a division on the
//! record path.

use crate::hist::Histogram;
use crate::metric::{Counter, Gauge};
use std::fmt::Write as _;
use std::sync::Mutex;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Counter,
    Gauge,
    Histogram,
}

impl Kind {
    fn as_str(self) -> &'static str {
        match self {
            Kind::Counter => "counter",
            Kind::Gauge => "gauge",
            Kind::Histogram => "histogram",
        }
    }
}

#[derive(Clone)]
enum Handle {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

struct Child {
    labels: Vec<(String, String)>,
    handle: Handle,
}

struct Family {
    name: String,
    help: String,
    kind: Kind,
    /// Render-time divisor for histogram bucket bounds and sums (1.0 for
    /// scalar kinds).
    scale: f64,
    children: Vec<Child>,
}

/// A registry of metric families. Interior-mutexed: `&Registry` is enough to
/// register and render, so it can sit in an `Arc` shared by every layer.
#[derive(Default)]
pub struct Registry {
    families: Mutex<Vec<Family>>,
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let families = self.families.lock().expect("registry poisoned");
        f.debug_struct("Registry")
            .field("families", &families.len())
            .finish()
    }
}

fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

fn valid_label_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_')
}

fn owned_labels(labels: &[(&str, &str)]) -> Vec<(String, String)> {
    labels
        .iter()
        .map(|(k, v)| {
            assert!(valid_label_name(k), "invalid label name `{k}`");
            ((*k).to_owned(), (*v).to_owned())
        })
        .collect()
}

/// Escapes a label value for Prometheus exposition (`\` → `\\`, `"` → `\"`,
/// newline → `\n`).
fn escape_label_value(value: &str, out: &mut String) {
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
}

fn write_label_set(labels: &[(String, String)], extra: Option<(&str, &str)>, out: &mut String) {
    if labels.is_empty() && extra.is_none() {
        return;
    }
    out.push('{');
    let mut first = true;
    for (k, v) in labels {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(k);
        out.push_str("=\"");
        escape_label_value(v, out);
        out.push('"');
    }
    if let Some((k, v)) = extra {
        if !first {
            out.push(',');
        }
        out.push_str(k);
        out.push_str("=\"");
        escape_label_value(v, out);
        out.push('"');
    }
    out.push('}');
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    fn get_or_insert(
        &self,
        name: &str,
        help: &str,
        kind: Kind,
        scale: f64,
        labels: &[(&str, &str)],
        make: impl FnOnce() -> Handle,
    ) -> Handle {
        assert!(valid_metric_name(name), "invalid metric name `{name}`");
        let mut families = self.families.lock().expect("registry poisoned");
        let family = match families.iter_mut().find(|f| f.name == name) {
            Some(existing) => {
                assert!(
                    existing.kind == kind,
                    "metric `{name}` registered as {} and {}",
                    existing.kind.as_str(),
                    kind.as_str()
                );
                assert!(
                    existing.scale == scale,
                    "metric `{name}` registered with scales {} and {scale}",
                    existing.scale
                );
                existing
            }
            None => {
                families.push(Family {
                    name: name.to_owned(),
                    help: help.to_owned(),
                    kind,
                    scale,
                    children: Vec::new(),
                });
                families.last_mut().expect("just pushed")
            }
        };
        let owned = owned_labels(labels);
        if let Some(child) = family.children.iter().find(|c| c.labels == owned) {
            return child.handle.clone();
        }
        let handle = make();
        family.children.push(Child {
            labels: owned,
            handle: handle.clone(),
        });
        handle
    }

    /// Get-or-create a counter child. The first call for a `(name, labels)`
    /// pair creates it; later calls return the same handle.
    pub fn counter(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Counter {
        self.register_counter(name, help, labels, Counter::new())
    }

    /// Registers an **existing** counter handle (so a component's own field
    /// and the registry render the same cell). Returns the previously
    /// registered handle if the `(name, labels)` pair already exists.
    pub fn register_counter(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        counter: Counter,
    ) -> Counter {
        match self.get_or_insert(name, help, Kind::Counter, 1.0, labels, || {
            Handle::Counter(counter)
        }) {
            Handle::Counter(c) => c,
            _ => unreachable!("kind checked in get_or_insert"),
        }
    }

    /// Get-or-create a gauge child.
    pub fn gauge(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Gauge {
        self.register_gauge(name, help, labels, Gauge::new())
    }

    /// Registers an existing gauge handle (see [`Registry::register_counter`]).
    pub fn register_gauge(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        gauge: Gauge,
    ) -> Gauge {
        match self.get_or_insert(name, help, Kind::Gauge, 1.0, labels, || {
            Handle::Gauge(gauge)
        }) {
            Handle::Gauge(g) => g,
            _ => unreachable!("kind checked in get_or_insert"),
        }
    }

    /// Get-or-create a histogram child. `scale` divides bucket bounds and
    /// sums at render time (record ns, pass `1e9`, expose seconds); every
    /// child of one family must use the same scale.
    pub fn histogram(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        scale: f64,
    ) -> Histogram {
        self.register_histogram(name, help, labels, scale, Histogram::new())
    }

    /// Registers an existing histogram handle (see
    /// [`Registry::register_counter`]).
    pub fn register_histogram(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        scale: f64,
        histogram: Histogram,
    ) -> Histogram {
        assert!(
            scale.is_finite() && scale > 0.0,
            "histogram scale must be positive"
        );
        match self.get_or_insert(name, help, Kind::Histogram, scale, labels, || {
            Handle::Histogram(histogram)
        }) {
            Handle::Histogram(h) => h,
            _ => unreachable!("kind checked in get_or_insert"),
        }
    }

    /// Renders Prometheus text exposition format v0.0.4 (the
    /// `text/plain; version=0.0.4` content type).
    pub fn render_prometheus(&self) -> String {
        let families = self.families.lock().expect("registry poisoned");
        let mut out = String::new();
        for family in families.iter() {
            let _ = writeln!(out, "# HELP {} {}", family.name, family.help);
            let _ = writeln!(out, "# TYPE {} {}", family.name, family.kind.as_str());
            for child in &family.children {
                match &child.handle {
                    Handle::Counter(c) => {
                        out.push_str(&family.name);
                        write_label_set(&child.labels, None, &mut out);
                        let _ = writeln!(out, " {}", c.get());
                    }
                    Handle::Gauge(g) => {
                        out.push_str(&family.name);
                        write_label_set(&child.labels, None, &mut out);
                        let _ = writeln!(out, " {}", g.get());
                    }
                    Handle::Histogram(h) => {
                        let snap = h.snapshot();
                        for (upper, cum) in snap.cumulative_nonzero() {
                            let le = (upper as f64 / family.scale).to_string();
                            out.push_str(&family.name);
                            out.push_str("_bucket");
                            write_label_set(&child.labels, Some(("le", le.as_str())), &mut out);
                            let _ = writeln!(out, " {cum}");
                        }
                        out.push_str(&family.name);
                        out.push_str("_bucket");
                        write_label_set(&child.labels, Some(("le", "+Inf")), &mut out);
                        let _ = writeln!(out, " {}", snap.count);
                        out.push_str(&family.name);
                        out.push_str("_sum");
                        write_label_set(&child.labels, None, &mut out);
                        let _ = writeln!(out, " {}", snap.sum as f64 / family.scale);
                        out.push_str(&family.name);
                        out.push_str("_count");
                        write_label_set(&child.labels, None, &mut out);
                        let _ = writeln!(out, " {}", snap.count);
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_or_create_returns_same_cell() {
        let registry = Registry::new();
        let a = registry.counter("jobs_total", "Jobs.", &[("tenant", "t1")]);
        let b = registry.counter("jobs_total", "Jobs.", &[("tenant", "t1")]);
        a.inc();
        assert_eq!(b.get(), 1);
        let other = registry.counter("jobs_total", "Jobs.", &[("tenant", "t2")]);
        assert_eq!(other.get(), 0);
    }

    #[test]
    fn register_existing_handle_is_rendered() {
        let registry = Registry::new();
        let mine = Counter::new();
        mine.add(7);
        registry.register_counter("preexisting_total", "Pre.", &[], mine.clone());
        mine.inc();
        let text = registry.render_prometheus();
        assert!(text.contains("preexisting_total 8"), "{text}");
    }

    #[test]
    fn prometheus_rendering_shape() {
        let registry = Registry::new();
        let c = registry.counter("reqs_total", "Requests.", &[("ep", "jobs")]);
        c.add(3);
        let g = registry.gauge("depth", "Queue depth.", &[]);
        g.set(-2);
        let h = registry.histogram("lat_seconds", "Latency.", &[("ep", "jobs")], 1e9);
        h.record(500); // 5e-7 s
        h.record(1_000_000_000); // 1 s
        let text = registry.render_prometheus();
        assert!(text.contains("# TYPE reqs_total counter"), "{text}");
        assert!(text.contains("reqs_total{ep=\"jobs\"} 3"), "{text}");
        assert!(text.contains("# TYPE depth gauge"), "{text}");
        assert!(text.contains("depth -2"), "{text}");
        assert!(text.contains("# TYPE lat_seconds histogram"), "{text}");
        assert!(
            text.contains("lat_seconds_bucket{ep=\"jobs\",le=\"+Inf\"} 2"),
            "{text}"
        );
        assert!(text.contains("lat_seconds_count{ep=\"jobs\"} 2"), "{text}");
    }

    #[test]
    #[should_panic(expected = "invalid metric name")]
    fn bad_names_panic() {
        Registry::new().counter("bad-name", "x", &[]);
    }

    #[test]
    fn label_values_are_escaped() {
        let registry = Registry::new();
        registry
            .counter("esc_total", "E.", &[("v", "a\"b\\c\nd")])
            .inc();
        let text = registry.render_prometheus();
        assert!(
            text.contains("esc_total{v=\"a\\\"b\\\\c\\nd\"} 1"),
            "{text}"
        );
    }
}
