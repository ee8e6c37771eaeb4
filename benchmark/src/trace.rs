//! In-memory spans around the calls the benchmark itself makes. Nothing
//! here reaches into a crate: a span is what the caller saw.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Index of a span in its tracer; the `parent` link of its children.
pub type SpanId = u32;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
    /// Groups the spans of one request or one simulated event.
    pub op: u64,
}

/// Keeps spans in memory until the run ends. A disabled tracer records
/// nothing, so the untraced run pays one branch per boundary.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Records a finished call that began at `start` and took `took`.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        took: Duration,
        parent: Option<SpanId>,
        op: u64,
    ) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        let start_ns = start.duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns + took.as_nanos() as u64,
            parent,
            op,
        });
        Some(self.spans.len() as SpanId - 1)
    }

    /// Opens a span that encloses later ones; close it with [`Self::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>) -> Option<SpanId> {
        self.record(name, Instant::now(), Duration::ZERO, parent, 0)
    }

    pub fn close(&mut self, id: Option<SpanId>) {
        if let Some(id) = id {
            let now = self.origin.elapsed().as_nanos() as u64;
            self.spans[id as usize].end_ns = now;
        }
    }

    /// Durations, in nanoseconds, of every span called `name`.
    pub fn durations_ns(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64)
            .collect()
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// One JSON object per span, in recording order.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 96);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map(i64::from).unwrap_or(-1);
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}",
                s.name, s.start_ns, s.end_ns, s.op
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let root = t.open("root", None);
        assert_eq!(root, None);
        t.record("x", Instant::now(), Duration::from_nanos(5), root, 1);
        t.close(root);
        assert_eq!(t.len(), 0);
        assert_eq!(t.to_jsonl(), "");
    }

    #[test]
    fn spans_link_to_their_parent() {
        let mut t = Tracer::new(true);
        let root = t.open("root", None);
        let child = t.record("step", Instant::now(), Duration::from_nanos(40), root, 7);
        t.close(root);
        assert_eq!(child, Some(1));
        assert_eq!(t.durations_ns("step"), vec![40.0]);
        let jsonl = t.to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[1].contains("\"parent\":0,\"op\":7"), "{}", lines[1]);
        assert!(lines[0].contains("\"parent\":-1"));
    }
}
