//! Versioned fleet snapshots: kill → [`restore_fleet`] → continue is
//! bit-identical to the uninterrupted run, because restoring *is* the
//! uninterrupted run.
//!
//! A [`FleetSim`] is a deterministic function of its profiled trace, its
//! freshly trained policy, and the number of events it has consumed. A
//! snapshot therefore stores no state at all: it is one header line
//! naming the run (scenario, profiling bill, policy knobs), the event count,
//! and — because that is how a fault is *detected* — the journal
//! counters and a digest of the state at that point. [`restore_fleet`]
//! builds a fresh simulation, re-steps it that many events into the
//! caller's telemetry, and refuses with [`SnapshotError::Diverged`] if
//! it did not arrive where the snapshot says the original was: a
//! different binary, an edited trace, a differently profiled or
//! differently configured run. The same strategy as the serving
//! daemon's snapshot (header + the inputs that drive the machine);
//! here the input log is the `.yala-trace` itself.
//!
//! Re-stepping is cheap next to what any restore must do first —
//! profile the trace and train the bank (see DESIGN.md, "Serving
//! placement", for the arithmetic).

use crate::sim::FleetSim;
use crate::{FleetPolicy, ProfiledTrace};
use std::fmt::Write as _;
use yala_core::engine::Engine;
use yala_telemetry::journal::FieldValue;
use yala_telemetry::{parse_line, Journal, Telemetry};

/// Format version written in the header's `yala_snapshot` field.
/// Version 1 serialized the simulator's state field by field.
pub const SNAPSHOT_VERSION: i64 = 2;

/// Why a snapshot failed to load.
#[derive(Debug, Clone, PartialEq)]
pub enum SnapshotError {
    /// The header line is missing, unparseable, or lacks a field.
    BadHeader(String),
    /// The header announces a version this reader does not speak.
    UnsupportedVersion(i64),
    /// The snapshot was taken from a different run (label, seed, trace,
    /// profiling mode, or policy configuration) than the one being
    /// restored.
    WrongRun(String),
    /// The replay did not arrive at the state the snapshot recorded.
    Diverged(String),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::BadHeader(why) => write!(f, "bad snapshot header: {why}"),
            SnapshotError::UnsupportedVersion(v) => write!(
                f,
                "unsupported snapshot version {v} (reader speaks {SNAPSHOT_VERSION})"
            ),
            SnapshotError::WrongRun(why) => write!(f, "snapshot is from a different run: {why}"),
            SnapshotError::Diverged(why) => write!(f, "replay diverged from the snapshot: {why}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// `(events, dropped, capacity)` of a journal, as header integers.
fn journal_counters(j: &Journal) -> [i64; 3] {
    [j.len() as i64, j.dropped() as i64, j.capacity() as i64]
}

/// A header value as the wire grammar spells it.
fn render(value: &FieldValue) -> String {
    match value {
        FieldValue::Str(s) => format!("\"{s}\""),
        FieldValue::Int(i) => i.to_string(),
        FieldValue::Num(x) => x.to_string(),
        FieldValue::Bool(b) => b.to_string(),
    }
}

const JOURNAL_KEYS: [&str; 3] = ["journal_events", "journal_dropped", "journal_capacity"];

/// A snapshot's header line (without its newline): the version, the
/// run's identity, the event count, the journal counters if any, and the
/// state digest, in that order.
fn header_line(
    identity: &[(&str, FieldValue)],
    next_event: i64,
    journal: Option<[i64; 3]>,
    digest: u64,
) -> String {
    let mut out = format!("{{\"yala_snapshot\":{SNAPSHOT_VERSION}");
    for (key, value) in identity {
        let _ = write!(out, ",\"{key}\":{}", render(value));
    }
    let _ = write!(out, ",\"next_event\":{next_event}");
    for (key, n) in journal.iter().flat_map(|j| JOURNAL_KEYS.iter().zip(*j)) {
        let _ = write!(out, ",\"{key}\":{n}");
    }
    // Hex string: a bare u64 above i64::MAX would not round-trip
    // through the integer parser.
    let _ = write!(out, ",\"digest\":\"{digest:016x}\"}}");
    out
}

/// Serializes a running simulation — and, optionally, the counters of
/// its telemetry journal — to a one-line versioned snapshot. Meaningful
/// at any event boundary; callers wanting epoch-aligned checkpoints
/// stop on [`Processed::Audit`](crate::Processed).
pub fn snapshot_fleet(sim: &FleetSim<'_>, journal: Option<&Journal>) -> String {
    let (next_event, journal) = (sim.events_consumed() as i64, journal.map(journal_counters));
    header_line(&sim.identity(), next_event, journal, sim.digest()) + "\n"
}

/// Restores a run from snapshot text by replay: builds a fresh
/// [`FleetSim`] over `profiled` and `policy`, re-steps it to the
/// snapshot's event count — journaling into `tel` exactly as the
/// original did, so the caller's journal and metrics end up those of the
/// uninterrupted run — and checks it arrived at the recorded state.
///
/// The caller must supply the same `profiled` trace, an equivalently
/// *freshly trained* `policy`, and the same `label` as the original
/// run. What can be checked up front is ([`SnapshotError::WrongRun`]);
/// the rest surfaces as [`SnapshotError::Diverged`].
pub fn restore_fleet<'a>(
    profiled: &'a ProfiledTrace,
    policy: FleetPolicy<'a>,
    label: &str,
    text: &str,
    engine: &Engine,
    tel: &mut Telemetry,
) -> Result<FleetSim<'a>, SnapshotError> {
    let line = text.lines().next().unwrap_or_default();
    let header = parse_line(line)
        .ok_or_else(|| SnapshotError::BadHeader("empty or unparseable first line".to_string()))?;
    let version = header
        .need_int("yala_snapshot")
        .map_err(SnapshotError::BadHeader)?;
    if version != SNAPSHOT_VERSION {
        return Err(SnapshotError::UnsupportedVersion(version));
    }
    let mut sim = FleetSim::new(profiled, policy, label);
    let identity = sim.identity();
    for (key, ours) in &identity {
        if header.get(key) != Some(ours) {
            return Err(SnapshotError::WrongRun(format!(
                "{key}: snapshot has {}, this run has {}",
                header.get(key).map_or("nothing".to_string(), render),
                render(ours)
            )));
        }
    }
    let bad = SnapshotError::BadHeader;
    // `events` is part of the identity checked above.
    let events = header.need_int("events").map_err(bad)?;
    let next_event = header.need_in("next_event", 0, events).map_err(bad)?;
    let digest = header.need_str("digest").map_err(bad)?;
    let digest = u64::from_str_radix(digest, 16)
        .map_err(|_| bad(format!("field digest = {digest} is not hex")))?;
    let mut journal = None;
    if header.get(JOURNAL_KEYS[0]).is_some() {
        let mut counters = [0; 3];
        for (n, key) in counters.iter_mut().zip(JOURNAL_KEYS) {
            *n = header.need_int(key).map_err(bad)?;
        }
        journal = Some(counters);
    }
    // Only the writer's bytes load: a header whose fields are reordered,
    // repeated or spelled differently (`-0`, `5.0`) is refused.
    if header_line(&identity, next_event, journal, digest) != line {
        return Err(SnapshotError::BadHeader(
            "fields reordered, repeated or respelled".to_string(),
        ));
    }
    for _ in 0..next_event {
        sim.step(engine, tel);
    }
    let ours = sim.digest();
    if ours != digest {
        return Err(SnapshotError::Diverged(format!(
            "state digest {ours:016x} != snapshot's {digest:016x} after {next_event} events"
        )));
    }
    if let (Some(sink), Some(theirs)) = (tel.sink(), journal) {
        let ours = journal_counters(&sink.journal);
        if ours != theirs {
            return Err(SnapshotError::Diverged(format!(
                "journal (events, dropped, capacity) {ours:?} != snapshot's {theirs:?}"
            )));
        }
    }
    Ok(sim)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FleetConfig, FleetTrace, Processed};

    fn profiled(seed: u64) -> ProfiledTrace {
        let mut cfg = FleetConfig::mixed(seed, 8);
        cfg.duration_s = 3_000;
        cfg.mean_interarrival_s = 120.0;
        cfg.mean_lifetime_s = 900.0;
        cfg.audit_period_s = 600;
        cfg.guaranteed_fraction = 0.6;
        cfg.faults = crate::FaultPlan {
            mtbf_s: 3_600.0,
            mean_repair_s: 600.0,
            drains: 1,
            drain_notice_s: 300,
            drain_offline_s: 300,
        };
        ProfiledTrace::build(
            FleetTrace::generate(cfg),
            &Engine::sequential(),
            crate::BuildOpts::default(),
        )
    }

    #[test]
    fn snapshot_mid_run_restores_bit_identically() {
        let engine = Engine::sequential();
        let p = profiled(51);
        // Uninterrupted greedy run with a journal.
        let mut tel = Telemetry::enabled();
        let whole = crate::run_fleet_observed(&p, FleetPolicy::Greedy, "greedy", &engine, &mut tel);
        let whole_journal = tel.sink().expect("enabled").journal.to_jsonl();
        // Interrupted run: stop at the second audit, snapshot, drop
        // everything, restore, finish.
        let mut tel1 = Telemetry::enabled();
        let mut sim = FleetSim::new(&p, FleetPolicy::Greedy, "greedy");
        let mut audits = 0;
        while let Some(ev) = sim.step(&engine, &mut tel1) {
            if matches!(ev, Processed::Audit(_)) {
                audits += 1;
                if audits == 2 {
                    break;
                }
            }
        }
        let text = snapshot_fleet(&sim, Some(&tel1.sink().expect("enabled").journal));
        assert_eq!(text.lines().count(), 1, "a snapshot is one header line");
        drop(sim);
        drop(tel1);
        let mut tel2 = Telemetry::enabled();
        let mut sim2 = restore_fleet(&p, FleetPolicy::Greedy, "greedy", &text, &engine, &mut tel2)
            .expect("restore");
        while sim2.step(&engine, &mut tel2).is_some() {}
        let report2 = sim2.into_report();
        assert_eq!(report2, whole, "restored report must be bit-identical");
        assert_eq!(report2.to_json(), whole.to_json());
        assert_eq!(
            tel2.sink().expect("enabled").journal.to_jsonl(),
            whole_journal,
            "restored journal must be byte-identical"
        );
    }

    #[test]
    fn restore_rejects_mismatched_runs() {
        let engine = Engine::sequential();
        let p = profiled(52);
        let sim = FleetSim::new(&p, FleetPolicy::Greedy, "greedy");
        let text = snapshot_fleet(&sim, None);
        let restore = |p: &ProfiledTrace, label: &str, text: &str| {
            restore_fleet(
                p,
                FleetPolicy::Greedy,
                label,
                text,
                &engine,
                &mut Telemetry::disabled(),
            )
            .map(|_| ())
        };
        assert_eq!(restore(&p, "greedy", &text), Ok(()));
        assert!(matches!(
            restore(&p, "other-label", &text),
            Err(SnapshotError::WrongRun(_))
        ));
        assert!(matches!(
            restore(&profiled(53), "greedy", &text),
            Err(SnapshotError::WrongRun(_))
        ));
        assert!(matches!(
            restore(&p, "greedy", ""),
            Err(SnapshotError::BadHeader(_))
        ));
        let vandalized = text.replacen("\"yala_snapshot\":2", "\"yala_snapshot\":9", 1);
        assert_eq!(
            restore(&p, "greedy", &vandalized),
            Err(SnapshotError::UnsupportedVersion(9))
        );
    }
}
