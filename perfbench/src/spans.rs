//! In-memory spans recorded by the benchmark around its calls into each
//! layer, with self time (a span's duration minus the part its children
//! cover) and a JSON-lines dump written when a run ends.

use std::collections::HashMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Requests whose spans a dump keeps (the statistics use all of them).
pub const DUMPED_REQUESTS: u64 = 10_000;

/// One timed interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer name, e.g. `gateway.http.parse`.
    pub name: &'static str,
    /// Nanoseconds since the log's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the log's epoch; equals `start_ns` while open.
    pub end_ns: u64,
    /// Index of the enclosing span in the same log.
    pub parent: Option<usize>,
    /// The request the span belongs to; spans of one request share it.
    pub request: u64,
}

/// A growing list of spans sharing one clock.
pub struct SpanLog {
    epoch: Instant,
    spans: Vec<Span>,
}

impl SpanLog {
    /// An empty log whose clock starts at `epoch`.
    pub fn new(epoch: Instant) -> SpanLog {
        SpanLog {
            epoch,
            spans: Vec::new(),
        }
    }

    /// Nanoseconds since the epoch.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Records a finished span from explicit stamps; returns its index.
    pub fn record(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<usize>,
        request: u64,
    ) -> usize {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            request,
        });
        self.spans.len() - 1
    }

    /// Opens a span now; close it with [`SpanLog::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, request: u64) -> usize {
        let now = self.now_ns();
        self.record(name, now, now, parent, request)
    }

    /// Closes an open span now.
    pub fn close(&mut self, id: usize) {
        let now = self.now_ns();
        self.spans[id].end_ns = now;
    }

    /// Times `f` as a child span of `parent`.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: usize,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, Some(parent), request);
        let out = f();
        self.close(id);
        out
    }

    /// The recorded spans, in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self-time samples in nanoseconds, grouped by span name.
    pub fn self_times_by_name(&self) -> HashMap<&'static str, Vec<f64>> {
        let mut by_name: HashMap<&'static str, Vec<f64>> = HashMap::new();
        for (span, self_ns) in self.spans.iter().zip(self_times(&self.spans)) {
            by_name.entry(span.name).or_default().push(self_ns as f64);
        }
        by_name
    }

    /// Writes one JSON object per span of the requests numbered below
    /// `requests` (a request's spans share its number, so every written
    /// span's parent is written too), with its self time.
    pub fn write_jsonl(&self, path: &Path, requests: u64) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let selfs = self_times(&self.spans);
        let mut ids = HashMap::new();
        for (index, (span, self_ns)) in self.spans.iter().zip(selfs).enumerate() {
            if span.request >= requests {
                continue;
            }
            let id = ids.len();
            ids.insert(index, id);
            let parent = span
                .parent
                .and_then(|p| ids.get(&p))
                .map_or_else(|| "null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"request\":{},\"parent\":{parent},\
                 \"start_ns\":{},\"end_ns\":{},\"self_ns\":{self_ns}}}",
                span.name, span.request, span.start_ns, span.end_ns
            )?;
        }
        out.flush()
    }
}

/// Each span's duration minus the union of its children's intervals
/// (clipped to the span), so overlapping or escaping children are not
/// subtracted twice.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            children[parent].push((span.start_ns, span.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(span, mut kids)| {
            let duration = span.end_ns.saturating_sub(span.start_ns);
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = span.start_ns;
            for (start, end) in kids {
                let start = start.max(reach);
                let end = end.min(span.end_ns);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            duration - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            request: 0,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 30, Some(0)),
            span("b", 40, 90, Some(0)),
            span("b.inner", 50, 60, Some(2)),
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 40, 10]);
    }

    #[test]
    fn overlapping_and_escaping_children_count_once() {
        let spans = vec![
            span("root", 100, 200, None),
            span("x", 90, 150, Some(0)),  // starts before the parent
            span("y", 120, 170, Some(0)), // overlaps x
            span("z", 190, 260, Some(0)), // ends after the parent
        ];
        // Covered: [100, 170) and [190, 200) = 80 of 100.
        assert_eq!(self_times(&spans)[0], 20);
    }

    #[test]
    fn dump_keeps_the_first_requests_with_their_parents() {
        let mut log = SpanLog::new(Instant::now());
        for request in 0..3 {
            let root = log.record("root", 0, 10, None, request);
            log.record("child", 2, 4, Some(root), request);
        }
        let path = std::env::temp_dir().join(format!("perfbench-spans-{}", std::process::id()));
        log.write_jsonl(&path, 2).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[3].starts_with(r#"{"id":3,"name":"child","request":1,"parent":2,"#));
        assert!(lines[3].ends_with(r#""self_ns":2}"#));
    }

    #[test]
    fn log_records_nested_spans() {
        let mut log = SpanLog::new(Instant::now());
        let root = log.open("root", None, 7);
        let value = log.time("child", root, 7, || 41 + 1);
        log.close(root);
        assert_eq!(value, 42);
        let spans = log.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(root));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        let selfs = log.self_times_by_name();
        assert_eq!(selfs["root"].len(), 1);
        assert_eq!(selfs["child"].len(), 1);
    }
}
