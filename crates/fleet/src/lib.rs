//! # yala-fleet — event-driven cluster orchestration over simulated hours
//!
//! The paper's scheduling evaluation (§7.5.1) is one-shot: a fixed
//! arrival sequence placed once, violations counted at the end. A real
//! operator fleet is not one-shot — NFs come and go (Poisson arrivals,
//! exponential lifetimes), their traffic *drifts* (flow counts, packet
//! sizes, and match rates move over an NF's lifetime), and yesterday's
//! safe co-location is today's SLA violation. This crate closes that
//! loop: a deterministic discrete-event simulator of a fleet of hundreds
//! of NICs in which the predictor runs *continuously* —
//!
//! * [`trace`] — scenario generation: arrivals, lifetimes, per-NF drift
//!   trajectories (interpolated through [`yala_traffic::TrafficProfile::lerp`]),
//!   all a pure function of one seed.
//! * [`timeline`] — the offline profiling bill, paid once: every drift
//!   re-profile any policy will need, built in parallel on the
//!   [`yala_core::engine::Engine`] and shared across policy runs.
//! * [`policy`] — placement rules (monopolization / greedy /
//!   contention-aware behind any [`yala_placement::PlacementPredictor`])
//!   plus the reactive half: predicted-violation migration with
//!   diagnosis-guided victim selection
//!   ([`yala_core::diagnosis::select_victim`]), and [`NamedPolicy`], a
//!   policy by its `yalad` name.
//! * [`FleetState`] — the one tenant state machine, which the event loop
//!   and the `yalad` daemon both drive, each through its own
//!   [`ProfileSource`] and [`Rules`].
//! * [`sim`] — the event loop: departures, arrivals, and periodic SLA
//!   audits (ground-truth co-runs fanned across engine workers with
//!   per-`(epoch, NIC)` seeding) in a statically ordered event list.
//!   Audits double as free telemetry: an online policy
//!   ([`policy::OnlineRefine`]) harvests every multi-tenant outcome into
//!   an observation buffer and feeds it back into its predictor
//!   ([`yala_placement::PlacementPredictor::absorb`]) between the
//!   ground-truth sample and the migration decisions.
//! * [`report`] — the [`FleetReport`] time series: NICs in use,
//!   SLA-violation minutes, migrations, wasted cores vs. the oracle
//!   packing bound. Same `(config, policy)` ⇒ bit-identical report.
//! * [`replay`] — the observability self-test: reconstructs the
//!   report's headline counters from the [`yala_telemetry`] event
//!   journal alone and checks them exactly (an observed run via
//!   [`run_fleet_observed`] journals every decision the loop makes).
//!
//! ```
//! use yala_core::Engine;
//! use yala_fleet::{run_fleet, BuildOpts, FleetConfig, FleetPolicy, FleetTrace, ProfiledTrace};
//!
//! let mut cfg = FleetConfig::small(7);
//! cfg.duration_s = 1_200; // keep the doctest cheap: two audit epochs
//! cfg.mean_interarrival_s = 240.0;
//! cfg.audit_period_s = 600;
//! let engine = Engine::sequential();
//! let profiled = ProfiledTrace::build(FleetTrace::generate(cfg), &engine, BuildOpts::default());
//! let report = run_fleet(&profiled, FleetPolicy::Greedy, "greedy", &engine);
//! assert_eq!(report.samples.len(), 2);
//! ```

mod index;
pub mod policy;
pub mod record_io;
pub mod replay;
pub mod report;
mod residency;
pub mod sim;
pub mod snapshot;
mod state;
pub mod timeline;
pub mod trace;

pub use policy::{Diagnoser, FleetPolicy, NamedPolicy, OnlineRefine};
pub use record_io::{read_trace, read_traffic, write_trace, TraceIoError, TRACE_VERSION};
pub use replay::{replay_journal, verify_against, ReplaySummary};
pub use report::{ClassStats, FleetReport, FleetSample};
pub use residency::Residency;
pub use sim::{run_fleet, run_fleet_observed, FleetSim, Processed};
pub use snapshot::{restore_fleet, snapshot_fleet, SnapshotError, SNAPSHOT_VERSION};
pub use state::{DaemonRules, FleetState, ProfileSource, Rules};
pub use timeline::{BuildOpts, CacheMode, NfTimeline, ProfileStats, ProfiledTrace};
pub use trace::{
    FaultEvent, FaultKind, FaultPlan, FleetConfig, FleetTrace, NfRecord, TraceError, TrafficModel,
    MS_PER_S,
};

#[cfg(test)]
mod tests {
    use super::*;
    use yala_core::Engine;

    fn tiny_profiled(seed: u64) -> ProfiledTrace {
        let mut cfg = FleetConfig::small(seed);
        cfg.duration_s = 1_800;
        cfg.mean_interarrival_s = 200.0;
        cfg.mean_lifetime_s = 900.0;
        cfg.audit_period_s = 600;
        ProfiledTrace::build(
            FleetTrace::generate(cfg),
            &Engine::sequential(),
            BuildOpts::default(),
        )
    }

    #[test]
    fn monopolization_smoke() {
        let p = tiny_profiled(21);
        let engine = Engine::sequential();
        let r = run_fleet(&p, FleetPolicy::Monopolization, "mono", &engine);
        assert_eq!(r.samples.len(), 3);
        assert_eq!(r.total_arrivals as usize, p.trace.records.len());
        assert_eq!(r.migrations, 0, "monopolization never migrates");
        assert_eq!(
            r.violation_minutes, 0.0,
            "solo NFs cannot violate their own solo-referenced SLA"
        );
        for s in &r.samples {
            assert_eq!(s.active_nfs, s.nics_in_use, "one NF per NIC");
        }
    }

    #[test]
    fn greedy_packs_tighter_than_monopolization() {
        let p = tiny_profiled(22);
        let engine = Engine::sequential();
        let mono = run_fleet(&p, FleetPolicy::Monopolization, "mono", &engine);
        let greedy = run_fleet(&p, FleetPolicy::Greedy, "greedy", &engine);
        assert!(greedy.nic_minutes < mono.nic_minutes);
        assert!(greedy.wasted_core_minutes < mono.wasted_core_minutes);
        assert_eq!(greedy.total_arrivals, mono.total_arrivals);
    }

    #[test]
    fn runs_are_bit_identical() {
        let p1 = tiny_profiled(23);
        let p2 = tiny_profiled(23);
        let engine = Engine::sequential();
        let a = run_fleet(&p1, FleetPolicy::Greedy, "greedy", &engine);
        let b = run_fleet(&p2, FleetPolicy::Greedy, "greedy", &engine);
        assert_eq!(a, b);
        assert_eq!(a.to_json(), b.to_json());
    }

    #[test]
    fn mixed_portfolio_respects_capabilities_end_to_end() {
        use yala_nf::NfKind;
        use yala_sim::NicSpec;
        let mut cfg = FleetConfig::mixed(27, 8);
        cfg.duration_s = 1_800;
        cfg.mean_interarrival_s = 150.0;
        cfg.mean_lifetime_s = 900.0;
        cfg.audit_period_s = 600;
        // A regex NF in the mix: feasible on BlueField-2 only.
        cfg.kinds = vec![NfKind::FlowStats, NfKind::Nids];
        let p = ProfiledTrace::build(
            FleetTrace::generate(cfg),
            &Engine::sequential(),
            BuildOpts::default(),
        );
        // Regex NFs carry a BF-2 baseline but no Pensando baseline.
        let (bf2, pen) = (NicSpec::bluefield2().model(), NicSpec::pensando().model());
        for (rec, tl) in p.trace.records.iter().zip(&p.timelines) {
            let first = &tl.snapshots[0].1;
            assert!(first.supported_on(bf2));
            assert_eq!(first.supported_on(pen), rec.kind != NfKind::Nids);
        }
        // The audit co-runs every occupied NIC on its own hardware: a
        // capability-infeasible placement would panic in the solver, so a
        // completed run is itself the ground-truth feasibility check.
        let r = run_fleet(&p, FleetPolicy::Greedy, "greedy", &Engine::sequential());
        assert_eq!(r.nics, 8);
        assert_eq!(r.total_arrivals as usize, p.trace.records.len());
    }

    #[test]
    fn chunked_audit_fanout_is_thread_invariant_past_one_chunk() {
        // Enough simultaneously occupied NICs that the audit fan-out
        // spans multiple work-stealing chunks (AUDIT_CHUNK = 16): the
        // parallel claim/merge path actually engages and must still
        // produce the sequential report bit for bit.
        let mut cfg = FleetConfig::small(31);
        cfg.portfolio = vec![(yala_sim::NicSpec::bluefield2(), 48)];
        cfg.duration_s = 3_600;
        cfg.mean_interarrival_s = 40.0; // ~90 arrivals over the hour
        cfg.mean_lifetime_s = 3_000.0; // most stay the whole hour
        cfg.audit_period_s = 600;
        cfg.traffic_model = TrafficModel::Templates {
            count: 4,
            jitter: 0.0,
        };
        let p = ProfiledTrace::build_cached(FleetTrace::generate(cfg), &Engine::sequential());
        let seq = run_fleet(
            &p,
            FleetPolicy::Monopolization,
            "mono",
            &Engine::sequential(),
        );
        let par = run_fleet(
            &p,
            FleetPolicy::Monopolization,
            "mono",
            &Engine::with_threads(4),
        );
        assert_eq!(seq, par, "chunked audit fan-out must be thread-invariant");
        assert_eq!(seq.to_json(), par.to_json());
        let peak = seq.samples.iter().map(|s| s.nics_in_use).max().unwrap();
        assert!(
            peak > 16,
            "scenario too small to cross a chunk boundary (peak {peak} occupied NICs)"
        );
    }

    #[test]
    fn empirical_trace_replay_is_deterministic() {
        use crate::trace::NfRecord;
        use yala_nf::NfKind;
        use yala_traffic::TrafficProfile;
        // A non-Poisson flash crowd no exponential generator produces:
        // six NFs in two simultaneous waves with linear drift.
        let mut cfg = FleetConfig::small(77);
        cfg.duration_s = 1_800;
        cfg.audit_period_s = 600;
        let records: Vec<NfRecord> = (0..6)
            .map(|i| NfRecord {
                id: i,
                kind: if i % 2 == 0 {
                    NfKind::FlowStats
                } else {
                    NfKind::Nat
                },
                arrival_ms: if i < 3 { 30_000 } else { 630_000 },
                departure_ms: 1_700_000,
                start: TrafficProfile::new(8_000, 512, 0.0),
                end: TrafficProfile::new(96_000, 1500, 0.0),
                sla_drop: 0.10,
                qos: yala_core::QosClass::Guaranteed,
            })
            .collect();
        let build = || {
            ProfiledTrace::build(
                FleetTrace::from_records(cfg.clone(), records.clone(), Vec::new())
                    .expect("valid records"),
                &Engine::sequential(),
                BuildOpts::default(),
            )
        };
        let a = run_fleet(
            &build(),
            FleetPolicy::Greedy,
            "greedy",
            &Engine::sequential(),
        );
        let b = run_fleet(
            &build(),
            FleetPolicy::Greedy,
            "greedy",
            &Engine::with_threads(4),
        );
        assert_eq!(a, b, "empirical replay must be bit-identical");
        assert_eq!(a.total_arrivals, 6);
        assert!(
            a.profile_snapshots > 6,
            "drifting empirical records re-profile"
        );
        let c = run_fleet(
            &build(),
            FleetPolicy::Monopolization,
            "mono",
            &Engine::sequential(),
        );
        assert_eq!(c.violation_minutes, 0.0);
    }
}
