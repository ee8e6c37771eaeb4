//! Journal replay: reconstructs a [`FleetReport`]'s headline counters
//! from the event journal alone, and checks them against the report the
//! run actually produced.
//!
//! This is the observability plane's self-test. The journal claims to be
//! a complete causal record of the run; if it is, a cold reader that has
//! never seen the simulator state — only the ordered event stream — must
//! be able to re-derive every headline number. The reconstruction uses
//! the same accumulation order as the event loop (per-event class
//! minutes, per-epoch totals, park-set membership at each epoch), so the
//! comparison is exact, not approximate: any drift between journal and
//! report is a bug in one of them.

use crate::report::{ClassStats, FleetReport};
use yala_telemetry::{Event, Journal};

/// Headline counters re-derived from a journal by [`replay_journal`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ReplaySummary {
    /// `Arrival` events (should equal the report's `total_arrivals`).
    pub arrivals: u32,
    /// `Reject` events.
    pub rejected: u32,
    /// `Migrate` events.
    pub migrations: u32,
    /// `Fault` events with kind `fail`.
    pub faults: u32,
    /// `Fault` events with kind `drain_start`.
    pub drains: u32,
    /// Per-epoch `violating × period` integral from `Audit` events.
    pub violation_minutes: f64,
    /// Guaranteed-class degradation accounting.
    pub guaranteed: ClassStats,
    /// Best-effort-class degradation accounting.
    pub best_effort: ClassStats,
}

impl ReplaySummary {
    fn class_mut(&mut self, qos: &str) -> &mut ClassStats {
        if qos == "guaranteed" {
            &mut self.guaranteed
        } else {
            &mut self.best_effort
        }
    }
}

/// Replays a journal into a [`ReplaySummary`], walking the records in
/// insertion order and applying the event loop's own accounting rules:
/// violation minutes accrue per `Violation` (class) and per `Audit`
/// (total), downtime accrues at each `Epoch` for every NF parked at
/// that moment (`Park` adds membership, `Readmit`/`Depart` remove it).
pub fn replay_journal(journal: &Journal, audit_period_s: u64) -> ReplaySummary {
    let period_min = audit_period_s as f64 / 60.0;
    let mut s = ReplaySummary::default();
    // Parked set as `(id, guaranteed?)`, in park order like the sim's.
    let mut parked: Vec<(u32, bool)> = Vec::new();
    for r in journal.records() {
        match &r.event {
            Event::Arrival { .. } => s.arrivals += 1,
            Event::Reject { .. } => s.rejected += 1,
            Event::Migrate { .. } => s.migrations += 1,
            Event::Fault { kind, .. } => match *kind {
                "fail" => s.faults += 1,
                "drain_start" => s.drains += 1,
                _ => {}
            },
            Event::Violation { qos, .. } => {
                s.class_mut(qos).violation_minutes += period_min;
            }
            Event::Evacuate { qos, .. } => s.class_mut(qos).evacuations += 1,
            Event::Park { id, qos, .. } => {
                s.class_mut(qos).shed += 1;
                parked.push((*id, *qos == "guaranteed"));
            }
            Event::Readmit { id, qos, .. } => {
                s.class_mut(qos).readmitted += 1;
                parked.retain(|&(p, _)| p != *id);
            }
            Event::Depart { id, .. } => parked.retain(|&(p, _)| p != *id),
            Event::Audit { violating, .. } => {
                s.violation_minutes += *violating as f64 * period_min;
            }
            Event::Epoch { .. } => {
                for &(_, guaranteed) in &parked {
                    let c = if guaranteed {
                        &mut s.guaranteed
                    } else {
                        &mut s.best_effort
                    };
                    c.downtime_minutes += period_min;
                }
            }
            _ => {}
        }
    }
    s
}

/// Replays `journal` and checks every reconstructed counter against
/// `report`, **exactly** — the accumulation sequences match the event
/// loop's, so even the float fields must be bitwise equal. Returns the
/// summary on success and a list of mismatches otherwise.
pub fn verify_against(report: &FleetReport, journal: &Journal) -> Result<ReplaySummary, String> {
    let s = replay_journal(journal, report.audit_period_s);
    let mut errs: Vec<String> = Vec::new();
    let check_u32 = |errs: &mut Vec<String>, name: &str, got: u32, want: u32| {
        if got != want {
            errs.push(format!("{name}: journal {got} != report {want}"));
        }
    };
    check_u32(&mut errs, "arrivals", s.arrivals, report.total_arrivals);
    check_u32(&mut errs, "rejected", s.rejected, report.rejected);
    check_u32(&mut errs, "migrations", s.migrations, report.migrations);
    check_u32(&mut errs, "faults", s.faults, report.faults);
    check_u32(&mut errs, "drains", s.drains, report.drains);
    for (label, got, want) in [
        ("guaranteed", &s.guaranteed, &report.guaranteed),
        ("best_effort", &s.best_effort, &report.best_effort),
    ] {
        check_u32(
            &mut errs,
            &format!("{label}.evacuations"),
            got.evacuations,
            want.evacuations,
        );
        check_u32(&mut errs, &format!("{label}.shed"), got.shed, want.shed);
        check_u32(
            &mut errs,
            &format!("{label}.readmitted"),
            got.readmitted,
            want.readmitted,
        );
        for (field, g, w) in [
            (
                "violation_minutes",
                got.violation_minutes,
                want.violation_minutes,
            ),
            (
                "downtime_minutes",
                got.downtime_minutes,
                want.downtime_minutes,
            ),
        ] {
            if g != w {
                errs.push(format!("{label}.{field}: journal {g} != report {w}"));
            }
        }
    }
    if s.violation_minutes != report.violation_minutes {
        errs.push(format!(
            "violation_minutes: journal {} != report {}",
            s.violation_minutes, report.violation_minutes
        ));
    }
    if errs.is_empty() {
        Ok(s)
    } else {
        Err(errs.join("; "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::FleetPolicy;
    use crate::sim::run_fleet_observed;
    use crate::timeline::{BuildOpts, ProfiledTrace};
    use crate::trace::{FleetConfig, FleetTrace};
    use yala_core::Engine;
    use yala_telemetry::Telemetry;

    fn observed_run(seed: u64) -> (FleetReport, Journal) {
        let mut cfg = FleetConfig::small(seed);
        cfg.duration_s = 2_400;
        cfg.mean_interarrival_s = 150.0;
        cfg.mean_lifetime_s = 900.0;
        cfg.audit_period_s = 600;
        let engine = Engine::sequential();
        let mut tel = Telemetry::enabled();
        let profiled = ProfiledTrace::build(
            FleetTrace::generate(cfg),
            &engine,
            BuildOpts::default().observed(&mut tel),
        );
        let report =
            run_fleet_observed(&profiled, FleetPolicy::Greedy, "greedy", &engine, &mut tel);
        let journal = tel
            .sink()
            .map(|s| s.journal.clone())
            .expect("enabled telemetry has a sink");
        (report, journal)
    }

    #[test]
    fn replay_reconstructs_the_report() {
        let (report, journal) = observed_run(31);
        let s = verify_against(&report, &journal).expect("journal replays to the report");
        assert_eq!(s.arrivals, report.total_arrivals);
        assert!(s.arrivals > 0, "scenario produced arrivals");
    }

    #[test]
    fn verify_catches_a_corrupted_report() {
        let (mut report, journal) = observed_run(32);
        report.migrations += 1;
        report.guaranteed.violation_minutes += 1.0;
        let err = verify_against(&report, &journal).expect_err("mismatch must be reported");
        assert!(err.contains("migrations"), "err was: {err}");
        assert!(
            err.contains("guaranteed.violation_minutes"),
            "err was: {err}"
        );
    }

    #[test]
    fn empty_journal_replays_to_zero() {
        let s = replay_journal(&Journal::new(), 600);
        assert_eq!(s, ReplaySummary::default());
    }
}
