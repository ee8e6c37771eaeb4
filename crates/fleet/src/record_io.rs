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
    FaultEvent, FaultKind, FleetConfig, FleetTrace, NfRecord, TraceError, TrafficModel, MS_PER_S,
};
use std::fmt::Write as _;
use yala_core::QosClass;
use yala_nf::NfKind;
use yala_sim::NicSpec;
use yala_telemetry::{parse_line, RawEvent};
use yala_traffic::profile::{MAX_FLOW_COUNT, MAX_MTBR, MAX_PACKET_SIZE, MIN_PACKET_SIZE};
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

/// The keys of a record's start and end traffic triples.
const TRAFFIC_KEYS: [[&str; 3]; 2] = [["flows0", "psize0", "mtbr0"], ["flows1", "psize1", "mtbr1"]];

/// The traffic profile a line's `[flows, psize, mtbr]` fields hold: the
/// one rule for traffic from outside, on every daemon op that carries
/// traffic and on both triples of a trace record. A value outside the
/// ranges a [`TrafficProfile`] holds is refused naming its key, never
/// clamped: past this point a zero flow count or packet size panics the
/// packet generator, and a flow count is an allocation size.
pub fn read_traffic(
    ev: &RawEvent,
    [flows, psize, mtbr]: [&str; 3],
) -> Result<TrafficProfile, String> {
    Ok(TrafficProfile::new(
        ev.need_in(flows, 1, MAX_FLOW_COUNT)?,
        ev.need_in(psize, MIN_PACKET_SIZE, MAX_PACKET_SIZE)?,
        ev.need_in(mtbr, 0.0, MAX_MTBR)?,
    ))
}

/// The most seconds a header duration may hold: the sum of two of them,
/// in milliseconds, still fits a `u64` (as does a time inside the
/// horizon plus one of them).
const MAX_HEADER_S: u64 = i64::MAX as u64 / MS_PER_S;

/// The [`FleetConfig`] a trace header holds. An optional field that is
/// absent takes its default; a field that is present is read as its type
/// or refused naming it.
fn read_config(h: &RawEvent) -> Result<FleetConfig, String> {
    let seed = h.need_str("seed")?;
    let seed = seed
        .parse()
        .map_err(|_| format!("field seed = {seed} is not a u64"))?;
    let kinds = h.need_str("kinds")?.split(',').filter(|s| !s.is_empty());
    let kinds = kinds
        .map(|name| NfKind::from_name(name).ok_or_else(|| format!("unknown NF kind {name}")))
        .collect::<Result<_, _>>()?;
    let portfolio = h
        .need_str("portfolio")?
        .split(',')
        .filter(|s| !s.is_empty());
    let portfolio = portfolio
        .map(|entry| {
            let (name, count) = entry
                .split_once(':')
                .ok_or_else(|| format!("portfolio entry {entry} is not model:count"))?;
            let count = count
                .parse()
                .map_err(|_| format!("portfolio count in {entry} is not a number"))?;
            let spec =
                NicSpec::from_name(name).ok_or_else(|| format!("unknown NIC model {name}"))?;
            Ok((spec, count))
        })
        .collect::<Result<_, String>>()?;
    let traffic_model = match h.optional("traffic", RawEvent::need_str)? {
        Some("uniform") | None => TrafficModel::Uniform,
        Some("templates") => TrafficModel::Templates {
            count: h.need_int("templates")?,
            jitter: h.need_num("jitter")?,
        },
        Some(other) => return Err(format!("unknown traffic model {other}")),
    };
    let seconds = |h: &RawEvent, key: &str| h.need_in(key, 0, MAX_HEADER_S);
    Ok(FleetConfig {
        portfolio,
        duration_s: seconds(h, "duration_s")?,
        mean_interarrival_s: h.need_num("mean_interarrival_s")?,
        mean_lifetime_s: h.need_num("mean_lifetime_s")?,
        audit_period_s: seconds(h, "audit_period_s")?,
        kinds,
        sla_drop_range: (h.need_num("sla_lo")?, h.need_num("sla_hi")?),
        drift: h.optional("drift", RawEvent::need_bool)?.unwrap_or(false),
        traffic_model,
        max_flows: h.need_int("max_flows")?,
        reprofile_threshold: h.need_num("reprofile_threshold")?,
        max_migrations_per_audit: h.need_int("max_migrations")?,
        noise_sigma: h.need_num("noise_sigma")?,
        guaranteed_fraction: h.need_num("guaranteed_fraction")?,
        faults: crate::trace::FaultPlan {
            mtbf_s: h.optional("mtbf_s", RawEvent::need_num)?.unwrap_or(0.0),
            mean_repair_s: h
                .optional("mean_repair_s", RawEvent::need_num)?
                .unwrap_or(0.0),
            drains: h.optional("drains", RawEvent::need_int)?.unwrap_or(0),
            drain_notice_s: h.optional("drain_notice_s", seconds)?.unwrap_or(0),
            drain_offline_s: h.optional("drain_offline_s", seconds)?.unwrap_or(0),
        },
        seed,
    })
}

/// Parses `.yala-trace` JSONL text back into a [`FleetTrace`]. The
/// recorded fault lines are the schedule: the header's fault plan is
/// never re-run (for generated traces the two agree, but the file must
/// stand alone, and a recorded incident log need not match any
/// generator). Every field is read through
/// [`RawEvent`]'s required-field accessors, so a value a field cannot
/// hold is refused naming the field and the line, never wrapped, clamped
/// or defaulted.
pub fn read_trace(text: &str) -> Result<FleetTrace, TraceIoError> {
    let mut lines = text.lines();
    let header_line = lines
        .next()
        .ok_or_else(|| TraceIoError::BadHeader("empty file".to_string()))?;
    let header = parse_line(header_line)
        .ok_or_else(|| TraceIoError::BadHeader("unparseable first line".to_string()))?;
    let version = header
        .need_int("yala_trace")
        .map_err(TraceIoError::BadHeader)?;
    if version != TRACE_VERSION {
        return Err(TraceIoError::UnsupportedVersion(version));
    }
    let config = read_config(&header).map_err(TraceIoError::BadHeader)?;
    // An absent count is not checked; a present one must be a count.
    let count = |key| {
        let n = header.optional(key, RawEvent::need_int::<usize>);
        n.map_err(TraceIoError::BadHeader)
    };
    let (expect_records, expect_faults) = (count("records")?, count("faults")?);

    let mut records = Vec::new();
    let mut faults = Vec::new();
    for (i, raw) in lines.enumerate() {
        let line = i + 2;
        if raw.trim().is_empty() {
            continue;
        }
        let bad = |reason| TraceIoError::BadLine { line, reason };
        let ev = parse_line(raw).ok_or_else(|| bad("unparseable line".to_string()))?;
        let tag = ev.need_str("ev").map_err(bad)?;
        let kind_name = ev.need_str("kind").map_err(bad)?;
        match tag {
            "nf" => {
                let unknown = || bad(format!("unknown NF kind {kind_name}"));
                let qos = ev.need_str("qos").map_err(bad)?;
                let traffic = |keys| read_traffic(&ev, keys).map_err(bad);
                records.push(NfRecord {
                    id: ev.need_int("id").map_err(bad)?,
                    kind: NfKind::from_name(kind_name).ok_or_else(unknown)?,
                    arrival_ms: ev.need_int("arrival_ms").map_err(bad)?,
                    departure_ms: ev.need_int("departure_ms").map_err(bad)?,
                    start: traffic(TRAFFIC_KEYS[0])?,
                    end: traffic(TRAFFIC_KEYS[1])?,
                    sla_drop: ev.need_num("sla_drop").map_err(bad)?,
                    qos: QosClass::from_name(qos)
                        .ok_or_else(|| bad(format!("unknown QoS class {qos}")))?,
                });
            }
            "fault" => {
                let unknown = || bad(format!("unknown fault kind {kind_name}"));
                faults.push(FaultEvent {
                    t_ms: ev.need_int("t_ms").map_err(bad)?,
                    nic: ev.need_int("nic").map_err(bad)?,
                    kind: FaultKind::from_name(kind_name).ok_or_else(unknown)?,
                });
            }
            other => return Err(bad(format!("unknown event type {other}"))),
        }
    }
    for (what, promised, found) in [
        ("records", expect_records, records.len()),
        ("faults", expect_faults, faults.len()),
    ] {
        if let Some(n) = promised.filter(|&n| n != found) {
            return Err(TraceIoError::BadHeader(format!(
                "header promises {n} {what}, file has {found}"
            )));
        }
    }
    Ok(FleetTrace::from_records(config, records, faults)?)
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
            ("mtbr0", "-5"),
            ("mtbr0", "1e999"),
            ("mtbr1", "1200.5"),
            ("flows1", "1.5"),
            ("psize1", "\"512\""),
        ] {
            match read_trace(&with(field, value)) {
                Err(TraceIoError::BadLine { line: 2, reason }) => {
                    assert!(reason.contains(&format!("field {field} ")), "{reason}")
                }
                other => panic!("{field} = {value} read as {other:?}"),
            }
        }
        // The bounds themselves are fine.
        for (field, value) in [
            ("flows0", "500000"),
            ("flows1", "1"),
            ("psize0", "64"),
            ("mtbr0", "0"),
            ("mtbr1", "1200"),
        ] {
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
        // So are header integers: negative, too large for the field, or
        // a duration whose milliseconds would overflow — each named.
        let header = text.lines().next().expect("a header");
        let templates = text.replacen(
            "\"traffic\":\"uniform\"",
            "\"traffic\":\"templates\",\"templates\":48,\"jitter\":0.1",
            1,
        );
        assert!(read_trace(&templates).is_ok());
        let with_header = |field: &str, value: &str| {
            let start = header.find(&format!("\"{field}\":")).expect("field") + field.len() + 3;
            let end = start + header[start..].find([',', '}']).expect("end");
            let line = format!("{}{value}{}", &header[..start], &header[end..]);
            text.replacen(header, &line, 1)
        };
        let ceiling = (i64::MAX / 1_000).to_string();
        let over = (i64::MAX / 1_000 + 1).to_string();
        for (field, value) in [
            ("audit_period_s", "-1"),
            ("audit_period_s", over.as_str()),
            ("duration_s", "-1"),
            ("duration_s", over.as_str()),
            ("drain_notice_s", "-1"),
            ("drain_offline_s", "-1"),
            ("drain_offline_s", over.as_str()),
            ("drains", "-1"),
            ("drains", "4294967296"),
            ("max_migrations", "-1"),
            // A negative count used to turn the count check off.
            ("records", "-1"),
            ("faults", "-1"),
            // Present with the wrong type used to read as the default.
            ("drift", "\"yes\""),
            ("traffic", "7"),
            ("mtbf_s", "\"0\""),
            ("mean_repair_s", "\"900\""),
            ("drains", "1.5"),
        ] {
            match read_trace(&with_header(field, value)) {
                Err(TraceIoError::BadHeader(why)) => assert!(why.contains(field), "{why}"),
                other => panic!("{field} = {value} read as {other:?}"),
            }
        }
        for value in ["-1", "4294967296"] {
            match read_trace(&templates.replacen(
                "\"templates\":48",
                &format!("\"templates\":{value}"),
                1,
            )) {
                Err(TraceIoError::BadHeader(why)) => assert!(why.contains("templates"), "{why}"),
                other => panic!("templates = {value} read as {other:?}"),
            }
        }
        // Values the replay would die on: the simulator's noise and the
        // quantizer's threshold.
        for (field, value) in [
            ("noise_sigma", "0.5"),
            ("noise_sigma", "-0.1"),
            ("noise_sigma", "0.3"),
            ("reprofile_threshold", "1.5"),
            ("reprofile_threshold", "0"),
            ("reprofile_threshold", "1"),
        ] {
            match read_trace(&with_header(field, value)) {
                Err(TraceIoError::Invalid(e)) => {
                    assert!(e.to_string().contains(field), "{e}")
                }
                other => panic!("{field} = {value} read as {other:?}"),
            }
        }
        // The ceiling itself is accepted.
        for field in ["drain_notice_s", "drain_offline_s"] {
            let at_ceiling = read_trace(&with_header(field, &ceiling));
            assert!(at_ceiling.is_ok(), "{field} = {ceiling}: {at_ceiling:?}");
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
        // Drop the last record so the header count no longer matches;
        // without the count there is nothing to check.
        let mut lines: Vec<&str> = text.lines().collect();
        lines.remove(trace.records.len());
        let truncated = lines.join("\n");
        assert!(matches!(
            read_trace(&truncated),
            Err(TraceIoError::BadHeader(_))
        ));
        let records = format!(",\"records\":{}", trace.records.len());
        let uncounted = truncated.replacen(&records, "", 1);
        assert_ne!(uncounted, truncated);
        assert!(read_trace(&uncounted).is_ok());
    }

    #[test]
    fn reader_keeps_the_file_faults_without_replanning() {
        // A fault plan whose schedule would hold billions of incidents:
        // the reader must not compute it, only read the fault lines.
        let trace = FleetTrace::diurnal(faulty_config(47));
        let text = write_trace(&trace);
        let header = text.lines().next().expect("a header");
        let huge = header
            .replacen("\"mtbf_s\":7200", "\"mtbf_s\":0.001", 1)
            .replacen(
                &format!("\"duration_s\":{}", trace.config.duration_s),
                "\"duration_s\":100000000000",
                1,
            );
        assert_eq!(huge.matches("0.001").count(), 1);
        assert!(huge.contains("100000000000"));
        let back = read_trace(&text.replacen(header, &huge, 1)).expect("reads");
        assert_eq!(back.config.faults.mtbf_s, 0.001);
        assert!(!trace.faults.is_empty());
        assert_eq!(back.faults, trace.faults);
    }
}
