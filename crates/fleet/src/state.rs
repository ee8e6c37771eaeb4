//! The tenant side of a fleet run: the trace's profiles and the drift
//! cursor that says which is in force per NF, where each NF lives
//! (`location`), the parked set, and the per-class displacement
//! counters — over the NIC side, a [`Residency`].
//!
//! `location` and the cursors must move with the residency; the only
//! code that moves them is [`FleetState::place`], [`FleetState::remove`],
//! [`FleetState::take_all`], and — when a resident's profile changes
//! under it — [`FleetState::drift`]. Everything else — the policy's
//! choosers, evacuation, preemption, migration — decides *what* to move
//! and calls those. The event loop (`sim.rs`) sees the fields it may not
//! touch only through read accessors.

use crate::policy::{Diagnoser, FleetPolicy};
use crate::residency::{MarginSink, Namer, Residency};
use crate::timeline::ProfiledTrace;
use yala_core::contender::{aggregate_counters, total_pressure};
use yala_core::{Observation, ObservationBuffer, QosClass};
use yala_diagnosis::{select_victim, select_victim_qos, victim_pressure};
use yala_placement::{Placed, PlacementPredictor};
use yala_sim::{CoRunReport, ResourceKind};
use yala_telemetry::{Event, Telemetry};

/// The names of a per-class counter, `fleet.<what>.<class>`, indexed by
/// `QosClass as usize`: spelled out, so bumping one with telemetry off
/// formats nothing.
pub(crate) type ClassCounter = [&'static str; 2];

pub(crate) const VIOLATIONS: ClassCounter = [
    "fleet.violations.guaranteed",
    "fleet.violations.best_effort",
];
pub(crate) const READMITTED: ClassCounter = [
    "fleet.readmitted.guaranteed",
    "fleet.readmitted.best_effort",
];
const EVACUATIONS: ClassCounter = [
    "fleet.evacuations.guaranteed",
    "fleet.evacuations.best_effort",
];
const SHED: ClassCounter = ["fleet.shed.guaranteed", "fleet.shed.best_effort"];

/// A shed NF waiting to re-enter the fleet: retried at audit epochs
/// with exponential backoff.
#[derive(Debug)]
pub(crate) struct Parked {
    pub(crate) id: u32,
    /// Earliest time a retry may run (audits at or after this qualify).
    pub(crate) next_retry_ms: u64,
    /// Current backoff, in audit epochs; doubles per failed retry.
    pub(crate) backoff_epochs: u64,
}

impl Parked {
    fn new(id: u32, t_ms: u64) -> Self {
        Self {
            id,
            next_retry_ms: t_ms,
            backoff_epochs: 1,
        }
    }
}

/// The `id -> profile in force` lookup a [`Residency`] is handed, over
/// the two fields it reads so the residency itself can be borrowed
/// mutably beside it.
fn in_force<'a: 's, 's>(
    profiled: &'a ProfiledTrace,
    cursor: &'s [usize],
) -> impl Fn(u32) -> &'a Placed + 's {
    move |id| &profiled.timelines[id as usize].snapshots[cursor[id as usize]].1
}

/// The fleet itself. See the module docs for who may touch what.
pub(crate) struct FleetState<'a> {
    pub(crate) profiled: &'a ProfiledTrace,
    pub(crate) nics: Residency,
    location: Vec<Option<usize>>,
    cursor: Vec<usize>,
    pub(crate) parked: Vec<Parked>,
    // Per-class displacement accounting, indexed by `QosClass as usize`.
    pub(crate) evacuations: [u32; 2],
    pub(crate) shed: [u32; 2],
    pub(crate) readmitted: [u32; 2],
}

impl<'a> FleetState<'a> {
    /// The empty fleet: every NIC `Up`, nobody placed.
    pub(crate) fn new(profiled: &'a ProfiledTrace) -> Self {
        let nfs = profiled.trace.records.len();
        Self {
            profiled,
            nics: Residency::new(&profiled.trace.config),
            location: vec![None; nfs],
            cursor: vec![0; nfs],
            parked: Vec::new(),
            evacuations: [0; 2],
            shed: [0; 2],
            readmitted: [0; 2],
        }
    }

    /// Every NIC's residents, in residency order.
    pub(crate) fn residents(&self) -> &[Vec<u32>] {
        self.nics.residents()
    }

    /// The profile snapshot currently in force for NF `id`.
    pub(crate) fn snapshot(&self, id: u32) -> &'a Placed {
        in_force(self.profiled, &self.cursor)(id)
    }

    /// The profile snapshots currently in force for `nic`'s residents,
    /// in residency order.
    pub(crate) fn snapshots(&self, nic: usize) -> Vec<&'a Placed> {
        self.residents()[nic]
            .iter()
            .map(|&id| self.snapshot(id))
            .collect()
    }

    /// Cores used by `ids` under the current snapshots.
    pub(crate) fn cores_used(&self, ids: &[u32]) -> u32 {
        ids.iter().map(|&id| self.snapshot(id).workload.cores).sum()
    }

    /// Appends everything a replayed run must have reproduced — who is
    /// where under which profile, NIC states, the parked set, the
    /// counters — to a digest buffer. The per-resident solo baseline
    /// ties the digest to the profile *values* in force, not just their
    /// positions.
    pub(crate) fn digest_into(&self, out: &mut String) {
        use std::fmt::Write as _;
        let _ = write!(
            out,
            "{:?}",
            (
                self.residents(),
                self.nics.states(),
                &self.parked,
                self.evacuations,
                self.shed,
                self.readmitted
            )
        );
        for (nic, res) in self.residents().iter().enumerate() {
            for &id in res {
                let solo = self.snapshot(id).solo(self.nics.model(nic)).solo_tput;
                let _ = write!(out, "{}:{:x};", self.cursor[id as usize], solo.to_bits());
            }
        }
    }

    /// Puts NF `id` on `nic` under its snapshot in force; `predictor` is
    /// the policy's ([`FleetPolicy::predictor`]), which names the
    /// newcomer for the NIC's row.
    pub(crate) fn place(&mut self, predictor: Namer<'_, '_>, nic: usize, id: u32) {
        let profile = in_force(self.profiled, &self.cursor);
        self.nics.place(predictor, nic, id, profile);
        self.location[id as usize] = Some(nic);
    }

    /// Takes NF `id` off its NIC, returning where it was (`None` if it
    /// was parked or never placed).
    pub(crate) fn remove(&mut self, id: u32) -> Option<usize> {
        let nic = self.location[id as usize].take()?;
        let profile = in_force(self.profiled, &self.cursor);
        self.nics.remove(nic, id, profile);
        Some(nic)
    }

    /// Bulk-evicts a retired NIC (hard failure or drain deadline),
    /// returning its former residents in residency order.
    pub(crate) fn take_all(&mut self, nic: usize) -> Vec<u32> {
        let evicted = self.nics.take_all(nic);
        for &id in &evicted {
            self.location[id as usize] = None;
        }
        evicted
    }

    /// Points a parked NF at its snapshot in force at `t_ms` (placed NFs
    /// drift with the fleet, in [`FleetState::drift`]).
    pub(crate) fn seek(&mut self, id: u32, t_ms: u64) {
        debug_assert!(self.location[id as usize].is_none());
        self.cursor[id as usize] = self.profiled.timelines[id as usize].index_at(t_ms);
    }

    /// Audit-epoch drift: brings every placed NF to its snapshot in
    /// force at `t_ms` (re-profiles are epoch-aligned) — renaming and
    /// re-pricing it on its NIC when that is another one, since the move
    /// may have changed its core footprint — and lists the occupied NICs
    /// into `occupied`.
    pub(crate) fn drift(
        &mut self,
        mut predictor: Namer<'_, '_>,
        t_ms: u64,
        occupied: &mut Vec<usize>,
    ) {
        for id in 0..self.location.len() {
            let Some(nic) = self.location[id] else {
                continue;
            };
            let at = self.profiled.timelines[id].index_at(t_ms);
            if at == self.cursor[id] {
                continue;
            }
            let old_cores = self.snapshot(id as u32).workload.cores;
            self.cursor[id] = at;
            let profile = in_force(self.profiled, &self.cursor);
            self.nics
                .reprofiled(predictor.as_deref_mut(), nic, id as u32, old_cores, profile);
        }
        occupied.clear();
        occupied.extend((0..self.nics.nics()).filter(|&n| !self.residents()[n].is_empty()));
    }

    /// The policy's placement rule as one function: the NIC the policy
    /// would place `nf` on right now, or `None` if nothing feasible is
    /// admitted. `margin` is the relative SLA slack a contention-aware
    /// prediction must clear (0.0 for normal placements, the readmission
    /// hysteresis for parked retries). Only `Up` NICs are considered.
    pub(crate) fn choose_slot(
        &self,
        policy: &mut FleetPolicy<'_>,
        nf: &Placed,
        exclude: Option<usize>,
        margin: f64,
        mut margins: MarginSink<'_>,
    ) -> Option<usize> {
        match policy {
            FleetPolicy::Monopolization => self.nics.choose_empty(nf, exclude),
            FleetPolicy::Greedy => self
                .nics
                .choose_greedy(nf, exclude)
                .or_else(|| self.nics.choose_empty(nf, exclude)),
            FleetPolicy::ContentionAware { predictor, .. } => {
                let found = self.choose_contention_aware(
                    *predictor,
                    nf,
                    exclude,
                    margin,
                    margins.as_deref_mut(),
                );
                if found.is_some() {
                    return found;
                }
                // Falling back to an empty NIC: the last candidate's
                // partial margins describe a NIC that was *not* chosen.
                if let Some(m) = margins {
                    m.clear();
                }
                self.nics.choose_empty(nf, exclude)
            }
        }
    }

    /// Contention-aware: the first shortlisted NIC where the predictor
    /// foresees no SLA violation for anyone (the candidate NIC including
    /// `nf`, see [`Residency::admits`]).
    fn choose_contention_aware(
        &self,
        predictor: &mut dyn PlacementPredictor,
        nf: &Placed,
        exclude: Option<usize>,
        margin: f64,
        mut margins: MarginSink<'_>,
    ) -> Option<usize> {
        let profile = in_force(self.profiled, &self.cursor);
        let mut who = self.nics.newcomer(predictor, nf, margin);
        self.nics.shortlist(nf, exclude).into_iter().find(|&i| {
            // Margins describe one candidate NIC: the one accepted, or
            // the last one tried.
            let mut sink = margins.as_deref_mut();
            if let Some(m) = sink.as_deref_mut() {
                m.clear();
            }
            self.nics
                .admits(predictor, &mut who, i, &[], sink, &profile)
        })
    }

    /// Re-places NFs displaced by a fault on NIC `src`. `forced` means
    /// the ids were already evicted (hard failure or drain deadline): an
    /// NF that finds no slot — and, for a QoS-aware policy, no
    /// best-effort residents a guaranteed NF could preempt — is parked.
    /// Graceful mode (`!forced`, drain notice) moves what it can and
    /// leaves the rest resident until the deadline. A QoS-aware policy
    /// evacuates guaranteed NFs first, spending the scarce re-placement
    /// slots on the protected class.
    pub(crate) fn evacuate(
        &mut self,
        policy: &mut FleetPolicy<'_>,
        mut ids: Vec<u32>,
        src: usize,
        forced: bool,
        t_ms: u64,
        tel: &mut Telemetry,
    ) {
        if policy.qos_aware() {
            // Stable sort: guaranteed first, original resident order
            // within each class.
            ids.sort_by_key(|&id| self.snapshot(id).qos());
        }
        for id in ids {
            let nf = self.snapshot(id);
            let qos = nf.qos();
            let slot = self
                .choose_slot(policy, nf, Some(src), 0.0, None)
                .or_else(|| self.try_preempt_best_effort(policy, nf, Some(src), 0.0, t_ms, tel));
            match slot {
                Some(dst) => {
                    if !forced {
                        self.remove(id);
                    }
                    self.place(policy.predictor(), dst, id);
                    self.evacuations[qos as usize] += 1;
                    tel.inc(EVACUATIONS[qos as usize], 1);
                    tel.rec(t_ms, || Event::Evacuate {
                        id,
                        from: src as u32,
                        to: dst as u32,
                        qos: qos.name(),
                        forced,
                    });
                }
                None if forced => self.park(id, qos, "no_slot", t_ms, tel),
                // Graceful: the NF stays resident until the drain
                // deadline; later audits (or the deadline itself) will
                // retry.
                None => {}
            }
        }
    }

    /// Adds an already-unplaced NF to the parked set.
    fn park(
        &mut self,
        id: u32,
        qos: QosClass,
        reason: &'static str,
        t_ms: u64,
        tel: &mut Telemetry,
    ) {
        self.parked.push(Parked::new(id, t_ms));
        self.shed[qos as usize] += 1;
        tel.inc(SHED[qos as usize], 1);
        tel.rec(t_ms, || Event::Park {
            id,
            qos: qos.name(),
            reason,
        });
    }

    /// Makes room for a guaranteed NF under a QoS-aware policy by
    /// parking best-effort residents (any other policy or class: `None`,
    /// untouched): scans `Up` NICs supporting `nf`, and on each tries
    /// parking best-effort residents (latest-placed first) until the
    /// remaining set plus `nf` fits and is predicted SLA-safe. Commits on
    /// the first NIC that works and returns it; guaranteed residents are
    /// never touched. All-guaranteed fleets (the default) never get past
    /// the first scan.
    pub(crate) fn try_preempt_best_effort(
        &mut self,
        policy: &mut FleetPolicy<'_>,
        nf: &Placed,
        exclude: Option<usize>,
        margin: f64,
        t_ms: u64,
        tel: &mut Telemetry,
    ) -> Option<usize> {
        let FleetPolicy::ContentionAware {
            predictor,
            qos_aware: true,
            ..
        } = policy
        else {
            return None;
        };
        if !nf.qos().is_guaranteed() {
            return None;
        }
        let mut who = self.nics.newcomer(*predictor, nf, margin);
        for i in 0..self.nics.nics() {
            if Some(i) == exclude || !self.nics.is_up(i) || !nf.supported_on(self.nics.model(i)) {
                continue;
            }
            let nic = &self.residents()[i];
            let be: Vec<u32> = nic
                .iter()
                .copied()
                .filter(|&id| !self.snapshot(id).qos().is_guaranteed())
                .collect();
            if be.is_empty() {
                continue;
            }
            // Even parking every best-effort resident must free the cores.
            let used = self.cores_used(nic);
            if used - self.cores_used(&be) + nf.workload.cores > self.nics.cores(i) {
                continue;
            }
            let mut parked_here: Vec<u32> = Vec::new();
            let mut found = false;
            for &id in be.iter().rev() {
                parked_here.push(id);
                if used - self.cores_used(&parked_here) + nf.workload.cores > self.nics.cores(i) {
                    continue;
                }
                let profile = in_force(self.profiled, &self.cursor);
                found = self
                    .nics
                    .admits(*predictor, &mut who, i, &parked_here, None, profile);
                if found {
                    break;
                }
            }
            if !found {
                continue;
            }
            for id in parked_here {
                self.remove(id);
                self.park(id, QosClass::BestEffort, "preempted", t_ms, tel);
            }
            return Some(i);
        }
        None
    }

    /// Harvests one audit epoch's ground truth into `out`: for every
    /// resident of every multi-tenant NIC, the prediction context (NIC
    /// model, NF kind, live traffic, the co-residents' aggregate counters
    /// and accelerator pressure as the diagnoser's worldview describes
    /// them, the per-model solo baseline) paired with the measured co-run
    /// outcome. Solo NICs are skipped — an uncontended outcome carries no
    /// contention signal the solo baseline doesn't already. Iteration
    /// order is (NIC index, resident index): deterministic, so the
    /// refinement stream is a pure function of the scenario.
    pub(crate) fn harvest_observations(
        &self,
        occupied: &[usize],
        reports: &[CoRunReport],
        diagnoser: &Diagnoser<'_>,
        out: &mut ObservationBuffer,
    ) {
        for (&nic, report) in occupied.iter().zip(reports) {
            if self.residents()[nic].len() < 2 {
                continue;
            }
            let model = self.nics.model(nic);
            let placed = self.snapshots(nic);
            for (target, outcome) in report.outcomes.iter().enumerate() {
                let snap = placed[target];
                let co = diagnoser.contenders(model, &placed, target);
                let accel_pressure: Vec<(ResourceKind, f64)> =
                    [ResourceKind::Regex, ResourceKind::Compression]
                        .into_iter()
                        .filter_map(|k| {
                            let p = total_pressure(&co, k);
                            (p > 0.0).then_some((k, p))
                        })
                        .collect();
                out.push(Observation {
                    model,
                    kind: snap.arrival.kind,
                    traffic: snap.arrival.traffic,
                    competitors: aggregate_counters(&co),
                    accel_pressure,
                    solo_tput: snap.solo(model).solo_tput,
                    measured_tput: outcome.throughput_pps,
                });
            }
        }
    }

    /// One audit epoch's reactive migrations (contention-aware policies
    /// only): for each NIC with a predicted violator, drain the
    /// diagnosis-selected victim and re-place it under the predictor (or
    /// onto an empty NIC). Every per-NIC judgement — the re-evaluation,
    /// the bottleneck diagnosis, the victim's contender slate — uses the
    /// model of the NIC under audit; the destination may be a NIC of a
    /// *different* model, where the victim's feasibility and SLA floor
    /// are judged against its solo baseline on that hardware. Returns
    /// migrations executed; stops at the config's per-audit budget.
    pub(crate) fn migrate(
        &mut self,
        policy: &mut FleetPolicy<'_>,
        t_ms: u64,
        tel: &mut Telemetry,
    ) -> u32 {
        let FleetPolicy::ContentionAware {
            predictor,
            diagnoser,
            qos_aware,
            ..
        } = policy
        else {
            return 0;
        };
        let budget = self.profiled.trace.config.max_migrations_per_audit;
        let mut moved = 0u32;
        for nic in 0..self.nics.nics() {
            if moved as usize >= budget {
                break;
            }
            if self.residents()[nic].len() < 2 {
                continue;
            }
            let model = self.nics.model(nic);
            let placed = self.snapshots(nic);
            let classes = self.nics.classes(nic);
            let Some(&violator) = predictor.reevaluate(model, classes, &placed).first() else {
                continue;
            };
            // Diagnose the violator's bottleneck and pick the co-resident
            // pressing hardest on it — under a QoS-aware policy, only
            // from the lowest-precedence class present (a guaranteed NF
            // is never drained while a best-effort co-resident remains).
            let co = diagnoser.contenders(model, &placed, violator);
            let bottleneck = diagnoser.bottleneck(model, &placed, violator, &co);
            let co_positions: Vec<usize> = (0..placed.len()).filter(|&i| i != violator).collect();
            let selected = if *qos_aware {
                let classes: Vec<QosClass> =
                    co_positions.iter().map(|&i| placed[i].qos()).collect();
                select_victim_qos(bottleneck, &co, &classes)
            } else {
                select_victim(bottleneck, &co)
            };
            let sel = selected.expect("≥1 co-resident");
            let victim_pos = co_positions[sel];
            let victim_id = self.residents()[nic][victim_pos];
            let violator_id = self.residents()[nic][violator];
            let victim = placed[victim_pos];
            // Drain-and-replace: a safe occupied NIC first, else power on
            // an empty one; if the fleet is exhausted the victim stays
            // put.
            let dst = self
                .choose_contention_aware(*predictor, victim, Some(nic), 0.0, None)
                .or_else(|| self.nics.choose_empty(victim, Some(nic)));
            if let Some(dst) = dst {
                self.remove(victim_id);
                self.place(Some(&mut **predictor), dst, victim_id);
                moved += 1;
                tel.inc("fleet.migrations", 1);
                tel.rec(t_ms, || Event::Migrate {
                    victim: victim_id,
                    from: nic as u32,
                    to: dst as u32,
                    violator: violator_id,
                    bottleneck: bottleneck.to_string(),
                    qos: victim.qos().name(),
                    pressure: victim_pressure(bottleneck, &co[sel]),
                });
            }
        }
        moved
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_counters_are_named_after_their_class() {
        for qos in [QosClass::Guaranteed, QosClass::BestEffort] {
            for (what, table) in [
                ("violations", &VIOLATIONS),
                ("readmitted", &READMITTED),
                ("evacuations", &EVACUATIONS),
                ("shed", &SHED),
            ] {
                assert_eq!(table[qos as usize], format!("fleet.{what}.{}", qos.name()));
            }
        }
    }
}
