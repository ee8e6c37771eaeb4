//! The `.yala-trace` recorded-arrivals file format: a versioned JSONL
//! encoding of a [`FleetTrace`] — config header, one line per NF
//! record, one line per scheduled fault. The same file serves as a CI
//! fixture, a production audit log, and the input to `yalad --replay`:
//! writer and reader round-trip a trace exactly (floats are rendered
//! with Rust's shortest-exact `Display` and re-parsed with
//! `str::parse`, which is lossless by construction), so every consumer
//! of a recorded file sees bit-identical records.
//!
//! The wire grammar is the telemetry journal's flat JSONL subset
//! (string / bool / integer / float scalars, no nesting, no escapes),
//! parsed with [`yala_telemetry::parse_line`] — one parser for
//! journals, traces, snapshots, and the daemon protocol. `u64` values
//! that can exceed `i64::MAX` (the seed) travel as quoted decimal
//! strings.

use crate::trace::{
    FaultEvent, FaultKind, FleetConfig, FleetTrace, NfRecord, TraceError, TrafficModel,
};
use std::fmt::Write as _;
use yala_core::QosClass;
use yala_nf::NfKind;
use yala_sim::NicSpec;
use yala_telemetry::{parse_line, RawEvent};
use yala_traffic::profile::{MAX_FLOW_COUNT, MAX_PACKET_SIZE, MIN_PACKET_SIZE};
use yala_traffic::TrafficProfile;

/// Format version written in the header's `yala_trace` field. Bump on
/// any schema change; readers reject versions they do not understand.
pub const TRACE_VERSION: i64 = 1;

/// Why a `.yala-trace` file failed to load. Every variant carries
/// enough context to point at the offending line.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceIoError {
    /// The first line is missing, unparseable, or not a trace header.
    BadHeader(String),
    /// The header announces a version this reader does not speak.
    UnsupportedVersion(i64),
    /// A body line (1-based, counting the header as line 1) is
    /// malformed.
    BadLine { line: usize, reason: String },
    /// The decoded records failed [`FleetTrace::from_records`]
    /// validation.
    Invalid(TraceError),
}

impl std::fmt::Display for TraceIoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceIoError::BadHeader(why) => write!(f, "bad trace header: {why}"),
            TraceIoError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported trace version {v} (reader speaks {TRACE_VERSION})"
                )
            }
            TraceIoError::BadLine { line, reason } => {
                write!(f, "line {line}: {reason}")
            }
            TraceIoError::Invalid(e) => write!(f, "invalid trace: {e}"),
        }
    }
}

impl std::error::Error for TraceIoError {}

impl From<TraceError> for TraceIoError {
    fn from(e: TraceError) -> Self {
        TraceIoError::Invalid(e)
    }
}

/// Serializes a trace to `.yala-trace` JSONL text.
pub fn write_trace(trace: &FleetTrace) -> String {
    let cfg = &trace.config;
    let mut out = String::new();
    out.push_str(&format!("{{\"yala_trace\":{TRACE_VERSION}"));
    let _ = write!(out, ",\"seed\":\"{}\"", cfg.seed);
    let _ = write!(out, ",\"duration_s\":{}", cfg.duration_s);
    let _ = write!(out, ",\"mean_interarrival_s\":{}", cfg.mean_interarrival_s);
    let _ = write!(out, ",\"mean_lifetime_s\":{}", cfg.mean_lifetime_s);
    let _ = write!(out, ",\"audit_period_s\":{}", cfg.audit_period_s);
    let kinds: Vec<&str> = cfg.kinds.iter().map(|k| k.name()).collect();
    let _ = write!(out, ",\"kinds\":\"{}\"", kinds.join(","));
    let _ = write!(out, ",\"sla_lo\":{}", cfg.sla_drop_range.0);
    let _ = write!(out, ",\"sla_hi\":{}", cfg.sla_drop_range.1);
    let _ = write!(out, ",\"drift\":{}", cfg.drift);
    match cfg.traffic_model {
        TrafficModel::Uniform => {
            out.push_str(",\"traffic\":\"uniform\"");
        }
        TrafficModel::Templates { count, jitter } => {
            let _ = write!(
                out,
                ",\"traffic\":\"templates\",\"templates\":{count},\"jitter\":{jitter}"
            );
        }
    }
    let _ = write!(out, ",\"max_flows\":{}", cfg.max_flows);
    let _ = write!(out, ",\"reprofile_threshold\":{}", cfg.reprofile_threshold);
    let _ = write!(out, ",\"max_migrations\":{}", cfg.max_migrations_per_audit);
    let _ = write!(out, ",\"noise_sigma\":{}", cfg.noise_sigma);
    let _ = write!(out, ",\"guaranteed_fraction\":{}", cfg.guaranteed_fraction);
    let portfolio: Vec<String> = cfg
        .portfolio
        .iter()
        .map(|(s, n)| format!("{}:{n}", s.name))
        .collect();
    let _ = write!(out, ",\"portfolio\":\"{}\"", portfolio.join(","));
    let _ = write!(out, ",\"mtbf_s\":{}", cfg.faults.mtbf_s);
    let _ = write!(out, ",\"mean_repair_s\":{}", cfg.faults.mean_repair_s);
    let _ = write!(out, ",\"drains\":{}", cfg.faults.drains);
    let _ = write!(out, ",\"drain_notice_s\":{}", cfg.faults.drain_notice_s);
    let _ = write!(out, ",\"drain_offline_s\":{}", cfg.faults.drain_offline_s);
    let _ = writeln!(
        out,
        ",\"records\":{},\"faults\":{}}}",
        trace.records.len(),
        trace.faults.len()
    );
    for r in &trace.records {
        let _ = writeln!(
            out,
            "{{\"ev\":\"nf\",\"id\":{},\"kind\":\"{}\",\"qos\":\"{}\",\"arrival_ms\":{},\"departure_ms\":{},\"flows0\":{},\"psize0\":{},\"mtbr0\":{},\"flows1\":{},\"psize1\":{},\"mtbr1\":{},\"sla_drop\":{}}}",
            r.id,
            r.kind.name(),
            r.qos.name(),
            r.arrival_ms,
            r.departure_ms,
            r.start.flow_count,
            r.start.packet_size,
            r.start.mtbr,
            r.end.flow_count,
            r.end.packet_size,
            r.end.mtbr,
            r.sla_drop,
        );
    }
    for f in &trace.faults {
        let _ = writeln!(
            out,
            "{{\"ev\":\"fault\",\"t_ms\":{},\"nic\":{},\"kind\":\"{}\"}}",
            f.t_ms,
            f.nic,
            f.kind.name()
        );
    }
    out
}

/// Resolves a portfolio model name back to its hardware spec. The spec
/// table is code, not data, so only models the simulator implements can
/// appear in a trace file.
fn spec_by_name(name: &str) -> Option<NicSpec> {
    match name {
        "bluefield2" => Some(NicSpec::bluefield2()),
        "pensando" => Some(NicSpec::pensando()),
        _ => None,
    }
}

fn parse_fault_kind(name: &str) -> Option<FaultKind> {
    match name {
        "fail" => Some(FaultKind::Fail),
        "recover" => Some(FaultKind::Recover),
        "drain_start" => Some(FaultKind::DrainStart),
        "drain_end" => Some(FaultKind::DrainEnd),
        _ => None,
    }
}

fn parse_qos(name: &str) -> Option<QosClass> {
    match name {
        "guaranteed" => Some(QosClass::Guaranteed),
        "best_effort" => Some(QosClass::BestEffort),
        _ => None,
    }
}

/// Required string field, with a line-anchored error.
fn need_str<'e>(ev: &'e RawEvent, key: &str, line: usize) -> Result<&'e str, TraceIoError> {
    ev.str(key).ok_or_else(|| TraceIoError::BadLine {
        line,
        reason: format!("missing string field {key}"),
    })
}

fn need_int(ev: &RawEvent, key: &str, line: usize) -> Result<i64, TraceIoError> {
    ev.int(key).ok_or_else(|| TraceIoError::BadLine {
        line,
        reason: format!("missing integer field {key}"),
    })
}

/// Required integer field as a `T`, refused when `T` cannot hold it (an
/// `as` cast would wrap it into some other, valid-looking value).
fn need_int_as<T: TryFrom<i64>>(ev: &RawEvent, key: &str, line: usize) -> Result<T, TraceIoError> {
    let v = need_int(ev, key, line)?;
    T::try_from(v).map_err(|_| TraceIoError::BadLine {
        line,
        reason: format!("field {key} = {v} out of range"),
    })
}

/// Required integer field inside `lo..=hi`: a flow count or packet size
/// outside what a [`TrafficProfile`] holds is refused, not clamped.
fn need_u32_in(
    ev: &RawEvent,
    key: &str,
    line: usize,
    lo: u32,
    hi: u32,
) -> Result<u32, TraceIoError> {
    let v = need_int(ev, key, line)?;
    if !(lo as i64..=hi as i64).contains(&v) {
        return Err(TraceIoError::BadLine {
            line,
            reason: format!("field {key} = {v} outside [{lo},{hi}]"),
        });
    }
    Ok(v as u32)
}

fn need_num(ev: &RawEvent, key: &str, line: usize) -> Result<f64, TraceIoError> {
    ev.num(key).ok_or_else(|| TraceIoError::BadLine {
        line,
        reason: format!("missing numeric field {key}"),
    })
}

/// Parses `.yala-trace` JSONL text back into a [`FleetTrace`]. The
/// recorded fault lines are authoritative: they overwrite the schedule
/// recomputed from the config (for generated traces the two are
/// identical, but the file must stand alone).
pub fn read_trace(text: &str) -> Result<FleetTrace, TraceIoError> {
    let mut lines = text.lines();
    let header_line = lines
        .next()
        .ok_or_else(|| TraceIoError::BadHeader("empty file".to_string()))?;
    let header = parse_line(header_line)
        .ok_or_else(|| TraceIoError::BadHeader("unparseable first line".to_string()))?;
    let version = header
        .int("yala_trace")
        .ok_or_else(|| TraceIoError::BadHeader("missing yala_trace version".to_string()))?;
    if version != TRACE_VERSION {
        return Err(TraceIoError::UnsupportedVersion(version));
    }
    let bad_header = |why: &str| TraceIoError::BadHeader(why.to_string());
    let seed: u64 = header
        .str("seed")
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad_header("missing or non-numeric seed"))?;
    let kinds_raw = header
        .str("kinds")
        .ok_or_else(|| bad_header("missing kinds"))?;
    let mut kinds = Vec::new();
    for name in kinds_raw.split(',').filter(|s| !s.is_empty()) {
        kinds.push(
            NfKind::from_name(name)
                .ok_or_else(|| bad_header(&format!("unknown NF kind {name}")))?,
        );
    }
    let portfolio_raw = header
        .str("portfolio")
        .ok_or_else(|| bad_header("missing portfolio"))?;
    let mut portfolio = Vec::new();
    for entry in portfolio_raw.split(',').filter(|s| !s.is_empty()) {
        let (name, count) = entry
            .split_once(':')
            .ok_or_else(|| bad_header(&format!("portfolio entry {entry} is not model:count")))?;
        let count: usize = count
            .parse()
            .map_err(|_| bad_header(&format!("portfolio count in {entry} is not a number")))?;
        let spec =
            spec_by_name(name).ok_or_else(|| bad_header(&format!("unknown NIC model {name}")))?;
        portfolio.push((spec, count));
    }
    let traffic_model = match header.str("traffic") {
        Some("uniform") | None => TrafficModel::Uniform,
        Some("templates") => TrafficModel::Templates {
            count: header
                .int("templates")
                .ok_or_else(|| bad_header("templates traffic without a template count"))?
                as u32,
            jitter: header
                .num("jitter")
                .ok_or_else(|| bad_header("templates traffic without a jitter"))?,
        },
        Some(other) => return Err(bad_header(&format!("unknown traffic model {other}"))),
    };
    let config = FleetConfig {
        portfolio,
        duration_s: header
            .int("duration_s")
            .ok_or_else(|| bad_header("missing duration_s"))? as u64,
        mean_interarrival_s: header
            .num("mean_interarrival_s")
            .ok_or_else(|| bad_header("missing mean_interarrival_s"))?,
        mean_lifetime_s: header
            .num("mean_lifetime_s")
            .ok_or_else(|| bad_header("missing mean_lifetime_s"))?,
        audit_period_s: header
            .int("audit_period_s")
            .ok_or_else(|| bad_header("missing audit_period_s"))? as u64,
        kinds,
        sla_drop_range: (
            header
                .num("sla_lo")
                .ok_or_else(|| bad_header("missing sla_lo"))?,
            header
                .num("sla_hi")
                .ok_or_else(|| bad_header("missing sla_hi"))?,
        ),
        drift: matches!(
            header.get("drift"),
            Some(yala_telemetry::journal::FieldValue::Bool(true))
        ),
        traffic_model,
        max_flows: header
            .int("max_flows")
            .and_then(|v| u32::try_from(v).ok())
            .ok_or_else(|| bad_header("missing or out-of-range max_flows"))?,
        reprofile_threshold: header
            .num("reprofile_threshold")
            .ok_or_else(|| bad_header("missing reprofile_threshold"))?,
        max_migrations_per_audit: header
            .int("max_migrations")
            .ok_or_else(|| bad_header("missing max_migrations"))?
            as usize,
        noise_sigma: header
            .num("noise_sigma")
            .ok_or_else(|| bad_header("missing noise_sigma"))?,
        guaranteed_fraction: header
            .num("guaranteed_fraction")
            .ok_or_else(|| bad_header("missing guaranteed_fraction"))?,
        faults: crate::trace::FaultPlan {
            mtbf_s: header.num("mtbf_s").unwrap_or(0.0),
            mean_repair_s: header.num("mean_repair_s").unwrap_or(0.0),
            drains: header.int("drains").unwrap_or(0) as u32,
            drain_notice_s: header.int("drain_notice_s").unwrap_or(0) as u64,
            drain_offline_s: header.int("drain_offline_s").unwrap_or(0) as u64,
        },
        seed,
    };
    let expect_records = header.int("records").unwrap_or(-1);
    let expect_faults = header.int("faults").unwrap_or(-1);

    let nics = config.nics();
    let mut records = Vec::new();
    let mut faults = Vec::new();
    for (i, raw) in lines.enumerate() {
        let line_no = i + 2;
        if raw.trim().is_empty() {
            continue;
        }
        let ev = parse_line(raw).ok_or_else(|| TraceIoError::BadLine {
            line: line_no,
            reason: "unparseable line".to_string(),
        })?;
        match need_str(&ev, "ev", line_no)? {
            "nf" => {
                let kind_name = need_str(&ev, "kind", line_no)?;
                let kind = NfKind::from_name(kind_name).ok_or_else(|| TraceIoError::BadLine {
                    line: line_no,
                    reason: format!("unknown NF kind {kind_name}"),
                })?;
                let qos_name = need_str(&ev, "qos", line_no)?;
                let qos = parse_qos(qos_name).ok_or_else(|| TraceIoError::BadLine {
                    line: line_no,
                    reason: format!("unknown QoS class {qos_name}"),
                })?;
                let flows = |key| need_u32_in(&ev, key, line_no, 1, MAX_FLOW_COUNT);
                let psize = |key| need_u32_in(&ev, key, line_no, MIN_PACKET_SIZE, MAX_PACKET_SIZE);
                records.push(NfRecord {
                    id: need_int_as(&ev, "id", line_no)?,
                    kind,
                    arrival_ms: need_int_as(&ev, "arrival_ms", line_no)?,
                    departure_ms: need_int_as(&ev, "departure_ms", line_no)?,
                    start: TrafficProfile::new(
                        flows("flows0")?,
                        psize("psize0")?,
                        need_num(&ev, "mtbr0", line_no)?,
                    ),
                    end: TrafficProfile::new(
                        flows("flows1")?,
                        psize("psize1")?,
                        need_num(&ev, "mtbr1", line_no)?,
                    ),
                    sla_drop: need_num(&ev, "sla_drop", line_no)?,
                    qos,
                });
            }
            "fault" => {
                let kind_name = need_str(&ev, "kind", line_no)?;
                let kind = parse_fault_kind(kind_name).ok_or_else(|| TraceIoError::BadLine {
                    line: line_no,
                    reason: format!("unknown fault kind {kind_name}"),
                })?;
                let nic: usize = need_int_as(&ev, "nic", line_no)?;
                if nic >= nics {
                    return Err(TraceIoError::BadLine {
                        line: line_no,
                        reason: format!("fault NIC {nic} outside a {nics}-NIC fleet"),
                    });
                }
                faults.push(FaultEvent {
                    t_ms: need_int_as(&ev, "t_ms", line_no)?,
                    nic,
                    kind,
                });
            }
            other => {
                return Err(TraceIoError::BadLine {
                    line: line_no,
                    reason: format!("unknown event type {other}"),
                })
            }
        }
    }
    if expect_records >= 0 && records.len() as i64 != expect_records {
        return Err(TraceIoError::BadHeader(format!(
            "header promises {expect_records} records, file has {}",
            records.len()
        )));
    }
    if expect_faults >= 0 && faults.len() as i64 != expect_faults {
        return Err(TraceIoError::BadHeader(format!(
            "header promises {expect_faults} faults, file has {}",
            faults.len()
        )));
    }
    let mut trace = FleetTrace::from_records(config, records)?;
    // The file is authoritative for faults: a recorded production
    // incident log need not match any generator's schedule.
    trace.faults = faults;
    Ok(trace)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::FaultPlan;

    fn faulty_config(seed: u64) -> FleetConfig {
        let mut cfg = FleetConfig::mixed(seed, 10);
        cfg.guaranteed_fraction = 0.7;
        cfg.traffic_model = TrafficModel::Templates {
            count: 4,
            jitter: 0.02,
        };
        cfg.faults = FaultPlan {
            mtbf_s: 2.0 * 3_600.0,
            mean_repair_s: 900.0,
            drains: 2,
            drain_notice_s: 600,
            drain_offline_s: 600,
        };
        cfg
    }

    #[test]
    fn trace_round_trips_exactly() {
        let trace = FleetTrace::diurnal(faulty_config(41));
        assert!(!trace.faults.is_empty());
        let text = write_trace(&trace);
        let back = read_trace(&text).expect("round trip");
        assert_eq!(back.records.len(), trace.records.len());
        assert_eq!(back.faults, trace.faults);
        for (a, b) in trace.records.iter().zip(&back.records) {
            assert_eq!(a.id, b.id);
            assert_eq!(a.kind, b.kind);
            assert_eq!(a.qos, b.qos);
            assert_eq!(a.arrival_ms, b.arrival_ms);
            assert_eq!(a.departure_ms, b.departure_ms);
            assert_eq!(a.start, b.start, "f64 Display must round-trip exactly");
            assert_eq!(a.end, b.end);
            assert_eq!(a.sla_drop, b.sla_drop);
        }
        assert_eq!(back.config.seed, trace.config.seed);
        assert_eq!(back.config.nics(), trace.config.nics());
        assert_eq!(back.config.traffic_model, trace.config.traffic_model);
        // And writing the parsed trace reproduces the file byte-for-byte.
        assert_eq!(write_trace(&back), text);
    }

    #[test]
    fn reader_rejects_bad_inputs() {
        assert!(matches!(read_trace(""), Err(TraceIoError::BadHeader(_))));
        assert!(matches!(
            read_trace("{\"yala_trace\":99,\"seed\":\"0\"}\n"),
            Err(TraceIoError::UnsupportedVersion(99))
        ));
        let trace = FleetTrace::generate(FleetConfig::small(1));
        let text = write_trace(&trace);
        // Corrupt one NF kind.
        let bad = text.replacen("\"kind\":\"", "\"kind\":\"bogus_", 1);
        assert!(matches!(
            read_trace(&bad),
            Err(TraceIoError::BadLine { .. })
        ));
        // Integers a field's type cannot hold, and traffic outside what a
        // profile holds, are refused rather than wrapped or clamped.
        let first_record = text.lines().nth(1).expect("a record");
        let with = |field: &str, value: &str| {
            let start =
                first_record.find(&format!("\"{field}\":")).expect("field") + field.len() + 3;
            let end = start + first_record[start..].find([',', '}']).expect("end");
            let line = format!("{}{value}{}", &first_record[..start], &first_record[end..]);
            text.replacen(first_record, &line, 1)
        };
        for (field, value) in [
            ("flows0", "4294968296"),
            ("flows0", "-1"),
            ("flows0", "0"),
            ("flows1", "500001"),
            ("psize0", "63"),
            ("psize1", "1501"),
            ("psize0", "4294967360"),
            ("id", "4294967296"),
            ("id", "-1"),
            ("arrival_ms", "-1"),
            ("departure_ms", "-3600000"),
        ] {
            assert!(
                matches!(
                    read_trace(&with(field, value)),
                    Err(TraceIoError::BadLine { .. })
                ),
                "{field} = {value} accepted"
            );
        }
        // The bounds themselves are fine.
        for (field, value) in [("flows0", "500000"), ("flows1", "1"), ("psize0", "64")] {
            assert!(read_trace(&with(field, value)).is_ok(), "{field} = {value}");
        }
        let faulty = write_trace(&FleetTrace::diurnal(faulty_config(43)));
        let fault_line = faulty
            .lines()
            .find(|l| l.contains("\"ev\":\"fault\""))
            .expect("a fault");
        for (from, to) in [("\"nic\":", "\"nic\":-1"), ("\"t_ms\":", "\"t_ms\":-1")] {
            let (head, tail) = fault_line.split_once(from).expect("field");
            let tail = &tail[tail.find(',').expect("more fields")..];
            let bad = faulty.replacen(fault_line, &format!("{head}{to}{tail}"), 1);
            assert!(
                matches!(read_trace(&bad), Err(TraceIoError::BadLine { .. })),
                "{to} accepted"
            );
        }
        for max_flows in ["-1", "4294967296"] {
            let bad = text.replacen(
                &format!("\"max_flows\":{}", trace.config.max_flows),
                &format!("\"max_flows\":{max_flows}"),
                1,
            );
            assert!(
                matches!(read_trace(&bad), Err(TraceIoError::BadHeader(_))),
                "max_flows {max_flows} accepted"
            );
        }
        // Drop a record so the header count no longer matches.
        let mut lines: Vec<&str> = text.lines().collect();
        lines.remove(1);
        let truncated = lines.join("\n");
        assert!(matches!(
            read_trace(&truncated),
            Err(TraceIoError::BadHeader(_))
        ));
    }
}
