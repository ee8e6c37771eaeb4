//! The metric names and units, in one place. `BENCHMARK.json` lists the
//! same names; `check.sh` fails when the two drift apart.

use std::collections::BTreeMap;

use crate::stats::percentile_or_lower;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// End-to-end only: the share of the baseline's median by which the
    /// metric may get worse before a change counts as a regression.
    pub bound: f64,
    /// Deterministic given the seed: between two run sets of the same
    /// seeds `compare` tolerates no worsening at all.
    pub exact: bool,
}

const fn e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
        exact: false,
    }
}

const fn exact(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
        exact: true,
    }
}

const fn m(name: &'static str, unit: &'static str) -> MetricDef {
    e(name, unit, Better::Lower, 0.0)
}

const fn up(name: &'static str, unit: &'static str) -> MetricDef {
    e(name, unit, Better::Higher, 0.0)
}

/// What a user of the system sees; measured by the untraced run.
pub const END_TO_END: [MetricDef; 12] = [
    e("setup_s", "s", Better::Lower, 0.25),
    e("peak_rss_mb", "MiB", Better::Lower, 0.20),
    e("train_s", "s", Better::Lower, 0.25),
    e("predict_us", "us", Better::Lower, 0.25),
    exact("mape_pct", "%", Better::Lower, 0.20),
    e("events_per_s", "1/s", Better::Higher, 0.25),
    exact("sla_violation_rate", "ratio", Better::Lower, 0.10),
    e("req_per_s", "1/s", Better::Higher, 0.25),
    e("place_p50_us", "us", Better::Lower, 0.25),
    e("place_p99_us", "us", Better::Lower, 0.25),
    e("query_p50_us", "us", Better::Lower, 0.25),
    exact("admit_share", "ratio", Better::Higher, 0.25),
];

/// Single layers, each timed through its public functions; measured by
/// the traced run.
pub const PER_LAYER: [MetricDef; 56] = [
    m("traffic.gen_new_us", "us"),
    m("traffic.fill_ns_per_pkt", "ns"),
    m("nf.workload_us_p50", "us"),
    m("nf.workload_us_p99", "us"),
    up("nf.pkts_per_s", "1/s"),
    up("rxp.scan_mb_per_s", "MB/s"),
    m("rxp.compile_ms", "ms"),
    m("sim.solo_us", "us"),
    m("sim.corun_us_n2", "us"),
    m("sim.corun_us_n4", "us"),
    m("core.adaptive_profile_s", "s"),
    m("core.profile_measurements", "count"),
    m("core.train_cell_s_p50", "s"),
    up("core.train_speedup_t2", "ratio"),
    m("core.model_predict_ns_c1", "ns"),
    m("core.model_predict_ns_c3", "ns"),
    m("core.cache_hit_ns", "ns"),
    m("core.cache_miss_us", "us"),
    m("core.refine_ms", "ms"),
    m("ml.gbr_fit_ms", "ms"),
    m("ml.gbr_predict_ns", "ns"),
    m("placement.sims_for_us", "us"),
    m("placement.measure_entry_us", "us"),
    m("placement.placed_from_entry_ns", "ns"),
    m("placement.predictor_predict_ns_r2", "ns"),
    m("placement.predictor_predict_ns_r4", "ns"),
    m("placement.admission_check_us_r4", "us"),
    m("fleet.trace_gen_s", "s"),
    m("fleet.timeline_build_s", "s"),
    up("fleet.timeline_hit_share", "ratio"),
    m("fleet.step_arrival_us_p50", "us"),
    m("fleet.step_arrival_us_p99", "us"),
    m("fleet.step_arrival_share", "ratio"),
    m("fleet.step_departure_ns_p50", "ns"),
    m("fleet.step_fault_us_p50", "us"),
    m("fleet.step_audit_ms_p50", "ms"),
    m("fleet.events", "count"),
    m("fleet.into_report_ms", "ms"),
    m("telemetry.parse_line_ns", "ns"),
    m("telemetry.journal_push_ns", "ns"),
    m("telemetry.jsonl_ns_per_event", "ns"),
    m("telemetry.enabled_overhead_share", "ratio"),
    m("serve.new_s", "s"),
    m("serve.op_us_p50.place", "us"),
    m("serve.op_us_p50.query", "us"),
    m("serve.op_us_p50.depart", "us"),
    m("serve.op_us_p50.drift", "us"),
    m("serve.op_us_p50.fault", "us"),
    m("serve.op_us_p50.observe", "us"),
    m("serve.op_us_p50.absorb", "us"),
    m("serve.ops", "count"),
    m("serve.failed_ops", "count"),
    m("serve.snapshot_ms", "ms"),
    m("serve.restore_s", "s"),
    up("serve.place_ledger_coverage", "ratio"),
    m("trace.overhead_share", "ratio"),
];

/// A measured value and how many samples stand behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Value {
    pub value: f64,
    pub samples: usize,
}

/// Metric name → measured value.
#[derive(Debug, Default)]
pub struct Values(BTreeMap<&'static str, Value>);

impl Values {
    pub fn set(&mut self, name: &'static str, value: f64, samples: usize) {
        self.0.insert(name, Value { value, samples });
    }

    /// Sets a `_p99` metric to the highest percentile `xs` supports,
    /// saying so when that is lower than p99.
    pub fn set_p99(&mut self, name: &'static str, xs: &[f64]) {
        let (value, q) = percentile_or_lower(xs, 0.99);
        if q < 0.99 {
            println!(
                "note: {} samples back only p{:.0}, reported as {name}",
                xs.len(),
                q * 100.0
            );
        }
        self.set(name, value, xs.len());
    }

    pub fn get(&self, name: &str) -> Option<Value> {
        self.0.get(name).copied()
    }

    /// The defined metrics, in definition order, each with its value.
    ///
    /// # Panics
    ///
    /// Panics when a defined metric was never measured: a hole in the
    /// benchmark, not in the system.
    pub fn in_order<'a>(
        &'a self,
        defs: &'a [MetricDef],
    ) -> impl Iterator<Item = (&'a MetricDef, Value)> + 'a {
        defs.iter().map(|d| {
            let v = self
                .get(d.name)
                .unwrap_or_else(|| panic!("metric {} was never measured", d.name));
            (d, v)
        })
    }

    /// `{"name":{"value":v,"unit":"u"},...}` for the result line.
    pub fn to_json(&self, defs: &[MetricDef]) -> String {
        let parts: Vec<String> = self
            .in_order(defs)
            .map(|(d, v)| {
                format!(
                    "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                    d.name,
                    json_num(v.value),
                    d.unit
                )
            })
            .collect();
        format!("{{{}}}", parts.join(","))
    }
}

/// A float as JSON prints it, all digits kept; non-finite values (which
/// the checks reject anyway) become 0 so the line stays parseable.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// The string value of `key` in a flat one-line JSON object (a result
/// line of this program or a reply of the daemon; neither escapes).
pub fn flat_str(line: &str, key: &str) -> Option<String> {
    let at = line.find(&format!("\"{key}\":\""))? + key.len() + 4;
    let rest = &line[at..];
    Some(rest[..rest.find('"')?].to_string())
}

/// The numeric value of `key` in a flat one-line JSON object.
pub fn flat_num(line: &str, key: &str) -> Option<f64> {
    let at = line.find(&format!("\"{key}\":"))? + key.len() + 3;
    let rest = &line[at..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    rest[..end].trim().parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flat_fields_parse() {
        let l = "{\"workload\":\"serve-unique\",\"seed\":11,\"setup_s\":1.25,\"nic\":-1}";
        assert_eq!(flat_str(l, "workload").as_deref(), Some("serve-unique"));
        assert_eq!(flat_num(l, "seed"), Some(11.0));
        assert_eq!(flat_num(l, "setup_s"), Some(1.25));
        assert_eq!(flat_num(l, "nic"), Some(-1.0));
        assert_eq!(flat_num(l, "missing"), None);
        assert_eq!(flat_str(l, "seed"), None);
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::HashSet::new();
        for d in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(seen.insert(d.name), "duplicate metric {}", d.name);
            assert!(d.name.len() <= 64 && d.unit.len() <= 16, "{}", d.name);
            assert!(d.name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(d
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(d
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(END_TO_END
            .iter()
            .any(|d| d.name == "setup_s" && d.unit == "s"));
    }

    #[test]
    fn result_json_keeps_definition_order() {
        let mut v = Values::default();
        v.set("b", 2.5, 1);
        v.set("a", f64::NAN, 0);
        let defs = [m("b", "s"), up("a", "ms")];
        assert_eq!(
            v.to_json(&defs),
            "{\"b\":{\"value\":2.5,\"unit\":\"s\"},\"a\":{\"value\":0,\"unit\":\"ms\"}}"
        );
    }
}
