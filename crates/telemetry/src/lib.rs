//! # yala-telemetry — the deterministic observability plane
//!
//! Two layers, both deterministic:
//!
//! * [`metrics`] — a registry of counters/gauges/log-bucketed histograms
//!   whose exports (Prometheus text, JSON) are bit-identical across runs
//!   and thread counts; per-worker shards merge in worker-index order.
//! * [`journal`] — a bounded sim-time event journal (arrivals,
//!   placements with margins, rejections, audits, violations with
//!   diagnosed bottleneck, migrations with victim rationale, faults,
//!   evacuations, park/readmit, cache hits/misses, absorb passes),
//!   stamped at logical event time so it is replay-deterministic, and
//!   serialized as JSONL.
//!
//! The [`Telemetry`] handle ties them together and is **zero-cost when
//! disabled**: a disabled handle is a `None` behind one branch, no
//! allocation, no event construction (the journaling API takes
//! closures), and instrumented code paths compute exactly what the
//! uninstrumented ones did. DRST-style non-intrusive observation: the
//! dataplane never changes behavior because someone is watching.
//!
//! [`inspect`] loads a serialized journal back and renders per-epoch
//! timelines, per-tenant lifecycle stories, "why" queries, and
//! metric exports reconstructed from the event stream.

pub mod inspect;
pub mod journal;
pub mod metrics;

pub use inspect::Inspector;
pub use journal::{parse_jsonl, parse_line, Event, Journal, JournalRecord, RawEvent};
pub use metrics::{Histogram, MetricsRegistry};

/// The enabled half of a [`Telemetry`] handle.
#[derive(Debug)]
pub struct TelemetrySink {
    /// The deterministic metrics registry.
    pub metrics: MetricsRegistry,
    /// The deterministic sim-time journal.
    pub journal: Journal,
}

/// The observability handle instrumented code threads along: either a
/// no-op sink (`disabled`) or a live one. Every method is one branch on
/// the `Option` when disabled; event payloads are built lazily via
/// closures so the disabled path never allocates.
#[derive(Debug, Default)]
pub struct Telemetry {
    inner: Option<Box<TelemetrySink>>,
}

impl Telemetry {
    /// The no-op sink: every call is a skipped branch.
    pub fn disabled() -> Self {
        Self { inner: None }
    }

    /// A live sink recording metrics and the sim-time journal.
    pub fn enabled() -> Self {
        Self {
            inner: Some(Box::new(TelemetrySink {
                metrics: MetricsRegistry::new(),
                journal: Journal::new(),
            })),
        }
    }

    /// Whether this handle records anything.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Journals an event at logical time `t_ms`. The closure only runs
    /// when enabled, so building string-bearing events costs nothing on
    /// the disabled path.
    #[inline]
    pub fn rec<F: FnOnce() -> Event>(&mut self, t_ms: u64, build: F) {
        if let Some(s) = self.inner.as_deref_mut() {
            s.journal.push(t_ms, build());
        }
    }

    /// Adds `by` to counter `name`.
    #[inline]
    pub fn inc(&mut self, name: &str, by: u64) {
        if let Some(s) = self.inner.as_deref_mut() {
            s.metrics.inc(name, by);
        }
    }

    /// Sets gauge `name`.
    #[inline]
    pub fn gauge(&mut self, name: &str, v: f64) {
        if let Some(s) = self.inner.as_deref_mut() {
            s.metrics.set_gauge(name, v);
        }
    }

    /// Observes `v` into log2 histogram `name` (spec `(start, buckets)`,
    /// consistent per name).
    #[inline]
    pub fn observe_log2(&mut self, name: &str, start: f64, buckets: usize, v: f64) {
        if let Some(s) = self.inner.as_deref_mut() {
            s.metrics.observe_log2(name, start, buckets, v);
        }
    }

    /// Merges a worker shard into the registry (call in worker-index
    /// order).
    pub fn merge_shard(&mut self, shard: &MetricsRegistry) {
        if let Some(s) = self.inner.as_deref_mut() {
            s.metrics.merge(shard);
        }
    }

    /// The live sink, if enabled (read access to metrics/journal).
    pub fn sink(&self) -> Option<&TelemetrySink> {
        self.inner.as_deref()
    }

    /// Mutable access to the live sink, if enabled.
    pub fn sink_mut(&mut self) -> Option<&mut TelemetrySink> {
        self.inner.as_deref_mut()
    }
}

/// FNV-1a over bytes: a stable, process-independent 64-bit hash for
/// telemetry keys (std's `DefaultHasher` is randomized per process and
/// would break journal determinism across runs).
pub fn stable_hash64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_is_inert() {
        let mut t = Telemetry::disabled();
        assert!(!t.is_enabled());
        t.rec(0, || panic!("must not build events when disabled"));
        t.inc("x", 1);
        t.gauge("g", 1.0);
        t.observe_log2("h", 1.0, 4, 1.0);
        assert!(t.sink().is_none());
    }

    #[test]
    fn enabled_handle_records_into_both_planes() {
        let mut t = Telemetry::enabled();
        t.rec(5, || Event::Depart { id: 1, nic: -1 });
        t.inc("fleet.arrivals", 2);
        let s = t.sink().unwrap();
        assert_eq!(s.journal.len(), 1);
        assert_eq!(s.metrics.counter("fleet.arrivals"), 2);
    }

    #[test]
    fn stable_hash_is_stable() {
        assert_eq!(stable_hash64(b"abc"), stable_hash64(b"abc"));
        assert_ne!(stable_hash64(b"abc"), stable_hash64(b"abd"));
        // Pinned value: must never drift across versions/processes.
        assert_eq!(stable_hash64(b""), 0xcbf2_9ce4_8422_2325);
    }
}
