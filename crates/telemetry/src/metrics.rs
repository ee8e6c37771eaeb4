//! The metrics registry: counters, gauges, and log-bucketed histograms
//! with fixed bucket edges, stored in `BTreeMap`s so every export walks
//! names in one canonical order.
//!
//! Determinism contract: a registry's exports are a pure function of the
//! sequence of `inc`/`set_gauge`/`observe` calls *as multisets per name*
//! — counters and histogram buckets are sums, so per-worker shards that
//! record disjoint slices of the work can be [`merge`]d in worker-index
//! order and the aggregate is bit-identical whatever thread interleaving
//! produced the shards. Gauges are last-write-wins; merging takes the
//! shard's value, so shard gauges should only be set by the final owner.
//!
//! [`merge`]: MetricsRegistry::merge

use std::collections::BTreeMap;

/// A log-bucketed histogram with fixed edges chosen at creation: bucket
/// `i` counts observations `v <= edges[i]` (and above `edges[i-1]`);
/// larger values land in the overflow bucket. Edges are powers of two
/// times the start, so two histograms built with the same
/// `(start, buckets)` always agree bucket-for-bucket and may be merged.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    /// Ascending upper bucket edges (`start * 2^i`).
    edges: Vec<f64>,
    /// Non-cumulative counts per edge, plus one overflow bucket at the
    /// end (`counts.len() == edges.len() + 1`).
    counts: Vec<u64>,
    /// Sum of all observed values (deterministic: observation order is).
    sum: f64,
    /// Total observations.
    count: u64,
}

impl Histogram {
    /// A histogram with `buckets` power-of-two edges starting at `start`
    /// (`start`, `2*start`, `4*start`, ...).
    ///
    /// # Panics
    ///
    /// Panics if `start` is not positive or `buckets` is zero.
    pub fn log2(start: f64, buckets: usize) -> Self {
        assert!(start > 0.0 && buckets > 0, "log2 histogram needs a span");
        let edges: Vec<f64> = (0..buckets).map(|i| start * (1u64 << i) as f64).collect();
        let counts = vec![0u64; buckets + 1];
        Self {
            edges,
            counts,
            sum: 0.0,
            count: 0,
        }
    }

    /// Records one observation.
    pub fn observe(&mut self, v: f64) {
        let slot = self
            .edges
            .iter()
            .position(|&e| v <= e)
            .unwrap_or(self.edges.len());
        self.counts[slot] += 1;
        self.sum += v;
        self.count += 1;
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of observed values.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// `(upper_edge, non_cumulative_count)` pairs, overflow excluded.
    pub fn buckets(&self) -> impl Iterator<Item = (f64, u64)> + '_ {
        self.edges.iter().copied().zip(self.counts.iter().copied())
    }

    /// Adds another histogram's counts into this one.
    ///
    /// # Panics
    ///
    /// Panics if the edges differ — merging histograms with different
    /// specs is a bug, not a runtime condition.
    fn absorb(&mut self, other: &Histogram) {
        assert_eq!(self.edges, other.edges, "histogram specs must match");
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.sum += other.sum;
        self.count += other.count;
    }
}

/// The registry: named counters (`u64`, monotone), gauges (`f64`,
/// last-write-wins), and histograms. Names are dot-separated
/// (`fleet.arrivals`); exports order them lexicographically.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histogram>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `by` to counter `name` (created at zero on first touch).
    pub fn inc(&mut self, name: &str, by: u64) {
        if let Some(c) = self.counters.get_mut(name) {
            *c += by;
        } else {
            self.counters.insert(name.to_string(), by);
        }
    }

    /// Sets gauge `name` to `v`.
    pub fn set_gauge(&mut self, name: &str, v: f64) {
        if let Some(g) = self.gauges.get_mut(name) {
            *g = v;
        } else {
            self.gauges.insert(name.to_string(), v);
        }
    }

    /// Records `v` into histogram `name`, creating it with
    /// [`Histogram::log2`]`(start, buckets)` on first touch. Callers must
    /// pass the same spec for the same name everywhere (merges assert it).
    pub fn observe_log2(&mut self, name: &str, start: f64, buckets: usize, v: f64) {
        if let Some(h) = self.histograms.get_mut(name) {
            h.observe(v);
        } else {
            let mut h = Histogram::log2(start, buckets);
            h.observe(v);
            self.histograms.insert(name.to_string(), h);
        }
    }

    /// Counter value (zero if never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Gauge value, if ever set.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// Histogram by name, if ever touched.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// Folds a worker shard into this registry: counters and histogram
    /// buckets add, gauges take the shard's value. Callers merge shards
    /// in worker-index order; since sums commute, the aggregate is
    /// bit-identical for any actual execution interleaving.
    pub fn merge(&mut self, shard: &MetricsRegistry) {
        for (name, v) in &shard.counters {
            self.inc(name, *v);
        }
        for (name, v) in &shard.gauges {
            self.set_gauge(name, *v);
        }
        for (name, h) in &shard.histograms {
            if let Some(mine) = self.histograms.get_mut(name) {
                mine.absorb(h);
            } else {
                self.histograms.insert(name.clone(), h.clone());
            }
        }
    }

    /// Prometheus text exposition: `# TYPE` lines plus samples, names
    /// sanitized (`.` → `_`), histograms in cumulative `le` form.
    /// Deterministic: canonical name order, fixed float formatting.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        for (name, v) in &self.counters {
            let n = sanitize(name);
            out.push_str(&format!("# TYPE {n} counter\n{n} {v}\n"));
        }
        for (name, v) in &self.gauges {
            let n = sanitize(name);
            out.push_str(&format!("# TYPE {n} gauge\n{n} {v:.6}\n"));
        }
        for (name, h) in &self.histograms {
            let n = sanitize(name);
            out.push_str(&format!("# TYPE {n} histogram\n"));
            let mut cum = 0u64;
            for (edge, c) in h.buckets() {
                cum += c;
                out.push_str(&format!("{n}_bucket{{le=\"{edge}\"}} {cum}\n"));
            }
            out.push_str(&format!(
                "{n}_bucket{{le=\"+Inf\"}} {}\n{n}_sum {:.6}\n{n}_count {}\n",
                h.count(),
                h.sum(),
                h.count()
            ));
        }
        out
    }

    /// Canonical JSON export (hand-rolled; the workspace has no
    /// serde_json): `{"counters": {...}, "gauges": {...},
    /// "histograms": {...}}` in lexicographic name order.
    pub fn to_json(&self) -> String {
        let counters: Vec<String> = self
            .counters
            .iter()
            .map(|(k, v)| format!("\"{k}\": {v}"))
            .collect();
        let gauges: Vec<String> = self
            .gauges
            .iter()
            .map(|(k, v)| format!("\"{k}\": {v:.6}"))
            .collect();
        let hists: Vec<String> = self
            .histograms
            .iter()
            .map(|(k, h)| {
                let buckets: Vec<String> = h
                    .buckets()
                    .map(|(e, c)| format!("[{e}, {c}]"))
                    .collect();
                format!(
                    "\"{k}\": {{\"buckets\": [{}], \"overflow\": {}, \"count\": {}, \"sum\": {:.6}}}",
                    buckets.join(", "),
                    h.count() - h.buckets().map(|(_, c)| c).sum::<u64>(),
                    h.count(),
                    h.sum()
                )
            })
            .collect();
        format!(
            "{{\n\"counters\": {{{}}},\n\"gauges\": {{{}}},\n\"histograms\": {{{}}}\n}}\n",
            counters.join(", "),
            gauges.join(", "),
            hists.join(", ")
        )
    }
}

/// Prometheus metric names admit `[a-zA-Z0-9_:]`; everything else
/// becomes `_`.
fn sanitize(name: &str) -> String {
    name.chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_and_overflow() {
        let mut h = Histogram::log2(1.0, 3); // edges 1, 2, 4
        for v in [0.5, 1.0, 1.5, 3.0, 9.0] {
            h.observe(v);
        }
        let counts: Vec<u64> = h.buckets().map(|(_, c)| c).collect();
        assert_eq!(counts, vec![2, 1, 1]); // 9.0 overflows
        assert_eq!(h.count(), 5);
        assert!((h.sum() - 15.0).abs() < 1e-12);
    }

    #[test]
    fn shard_merge_is_order_independent_for_sums() {
        let shard = |values: &[u64]| {
            let mut s = MetricsRegistry::new();
            for &v in values {
                s.inc("fleet.arrivals", v);
                s.observe_log2("fleet.co_residents", 1.0, 4, v as f64);
            }
            s
        };
        let (a, b) = (shard(&[1, 2]), shard(&[3]));
        let mut ab = MetricsRegistry::new();
        ab.merge(&a);
        ab.merge(&b);
        let mut ba = MetricsRegistry::new();
        ba.merge(&b);
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.counter("fleet.arrivals"), 6);
        assert_eq!(ab.to_json(), ba.to_json());
        assert_eq!(ab.to_prometheus(), ba.to_prometheus());
    }

    #[test]
    fn exports_are_canonical_and_well_formed() {
        let mut r = MetricsRegistry::new();
        r.inc("fleet.arrivals", 7);
        r.set_gauge("fleet.parked", 2.0);
        r.observe_log2("fleet.violation.severity", 1.0, 4, 1.5);
        let prom = r.to_prometheus();
        assert!(prom.contains("# TYPE fleet_arrivals counter\nfleet_arrivals 7\n"));
        assert!(prom.contains("fleet_parked 2.000000"));
        assert!(prom.contains("fleet_violation_severity_bucket{le=\"+Inf\"} 1"));
        let json = r.to_json();
        assert!(json.contains("\"fleet.arrivals\": 7"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        // Determinism: identical recordings, identical bytes.
        assert_eq!(json, r.clone().to_json());
    }

    #[test]
    #[should_panic(expected = "histogram specs must match")]
    fn merging_mismatched_histogram_specs_panics() {
        let mut a = MetricsRegistry::new();
        a.observe_log2("h", 1.0, 3, 1.0);
        let mut b = MetricsRegistry::new();
        b.observe_log2("h", 2.0, 3, 1.0);
        a.merge(&b);
    }
}
