//! The one tenant state machine, for the event loop (`sim.rs`) and the
//! daemon (`yala-serve`) alike: where each NF lives, the parked set and
//! the displacement counters, over the NIC side, a [`Residency`]. The
//! caller supplies two seams, and nothing here asks who it is:
//!
//! * a [`ProfileSource`]: trace timelines at drift cursors
//!   ([`Timelines`]), or the daemon's measured profiles by wire id;
//! * the [`Rules`]: the simulator's indexed choosers and residency-order
//!   evacuation ([`SimRules`]), or the daemon's most-free-cores walk and
//!   ascending-id evacuation ([`DaemonRules`]).
//!
//! The residency, `location` and the profiles in force move together,
//! only in [`FleetState::place`], [`FleetState::remove`],
//! [`FleetState::reprofile`] and [`FleetState::evacuate`]; everything
//! else decides *what* to move and calls those.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};

use crate::policy::{Diagnoser, FleetPolicy};
use crate::residency::{MarginSink, Namer, NicState, Residency};
use crate::timeline::ProfiledTrace;
use crate::trace::FleetConfig;
use yala_core::contender::{aggregate_counters, total_pressure};
use yala_core::diagnosis::{select_victim, select_victim_qos, victim_pressure};
use yala_core::{Observation, ObservationBuffer, QosClass};
use yala_placement::Placed;
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

/// The profile in force for each NF id. Only [`FleetState`] changes it.
pub trait ProfileSource {
    /// What puts a new profile in force for one NF.
    type Profile;
    /// The profile in force for NF `id`.
    fn profile(&self, id: u32) -> &Placed;
    /// Puts `to` in force for NF `id`.
    fn set_profile(&mut self, id: u32, to: Self::Profile);
    /// Drops what is kept for a departed NF (by default, nothing).
    fn forget(&mut self, _id: u32) {}
}

/// The simulator's tenants: every NF of a profiled trace at a drift
/// cursor into its timeline (a profile is a snapshot index).
pub(crate) struct Timelines<'a> {
    pub(crate) profiled: &'a ProfiledTrace,
    pub(crate) cursor: Vec<usize>,
}

impl ProfileSource for Timelines<'_> {
    type Profile = usize;

    fn profile(&self, id: u32) -> &Placed {
        &self.profiled.timelines[id as usize].snapshots[self.cursor[id as usize]].1
    }

    fn set_profile(&mut self, id: u32, at: usize) {
        self.cursor[id as usize] = at;
    }
}

/// The daemon's tenants: each wire id's measured profile, from its first
/// to its departure.
impl ProfileSource for BTreeMap<u32, Placed> {
    type Profile = Placed;

    fn profile(&self, id: u32) -> &Placed {
        &self[&id]
    }

    fn set_profile(&mut self, id: u32, to: Placed) {
        self.insert(id, to);
    }

    fn forget(&mut self, id: u32) {
        self.remove(&id);
    }
}

/// Where a placement may go, and in which order evacuees leave.
pub trait Rules {
    /// The `Up` NICs but `exclude` that `policy` may put `nf` on, best
    /// first (see [`FleetState::choose_slot`]).
    fn candidates<'a>(
        &'a self,
        nics: &'a Residency,
        policy: &FleetPolicy<'_>,
        nf: &'a Placed,
        exclude: Option<usize>,
    ) -> impl Iterator<Item = usize> + 'a;

    /// An evacuee's rank: evacuees leave in ascending rank, in residency
    /// order among equals.
    fn evacuation_rank(&self, policy: &FleetPolicy<'_>, qos: QosClass, id: u32) -> u32;
}

/// The simulator's rules, from the candidate index: the fitting
/// occupied NICs by index (greedy: the one with most free cores), then
/// the first empty one; evacuees guaranteed first if the policy is
/// QoS-aware.
pub(crate) struct SimRules;

impl Rules for SimRules {
    fn candidates<'a>(
        &'a self,
        nics: &'a Residency,
        policy: &FleetPolicy<'_>,
        nf: &'a Placed,
        exclude: Option<usize>,
    ) -> impl Iterator<Item = usize> + 'a {
        let occupied = match policy {
            FleetPolicy::Monopolization => Vec::new(),
            FleetPolicy::Greedy => nics.choose_greedy(nf, exclude).into_iter().collect(),
            FleetPolicy::ContentionAware { .. } => nics.shortlist(nf, exclude),
        };
        // The empty NIC is looked up only once the occupied ones are
        // exhausted.
        let empty = std::iter::once_with(move || nics.choose_empty(nf, exclude));
        occupied.into_iter().chain(empty.flatten())
    }

    fn evacuation_rank(&self, policy: &FleetPolicy<'_>, qos: QosClass, _: u32) -> u32 {
        if policy.qos_aware() {
            qos as u32
        } else {
            0
        }
    }
}

/// The daemon's rules: the NICs that support and fit the NF (empty ones
/// for monopolization), most free cores first, ties to the lowest index;
/// evacuees in ascending id order.
pub struct DaemonRules;

impl Rules for DaemonRules {
    fn candidates<'a>(
        &'a self,
        nics: &'a Residency,
        policy: &FleetPolicy<'_>,
        nf: &'a Placed,
        exclude: Option<usize>,
    ) -> impl Iterator<Item = usize> + 'a {
        let spare = |n: usize| nics.cores(n).checked_sub(nics.used(n) + nf.workload.cores);
        let mono = matches!(policy, FleetPolicy::Monopolization);
        // Popped as `(cores to spare, descending; index)`: the order
        // above, ordered only as far as it is walked.
        let mut order: BinaryHeap<(u32, Reverse<usize>)> = (0..nics.nics())
            .filter(|&n| Some(n) != exclude && nics.is_up(n) && nf.supported_on(nics.model(n)))
            .filter(|&n| !mono || nics.residents()[n].is_empty())
            .filter_map(|n| Some((spare(n)?, Reverse(n))))
            .collect();
        std::iter::from_fn(move || order.pop().map(|(_, Reverse(n))| n))
    }

    fn evacuation_rank(&self, _: &FleetPolicy<'_>, _: QosClass, id: u32) -> u32 {
        id
    }
}

/// The fleet itself. See the module docs for who may touch what.
pub struct FleetState<S, R> {
    pub(crate) tenants: S,
    /// The NIC of every placed NF.
    location: BTreeMap<u32, usize>,
    pub(crate) nics: Residency,
    rules: R,
    pub(crate) parked: Vec<Parked>,
    // Per-class displacement accounting, indexed by `QosClass as usize`.
    pub(crate) evacuations: [u32; 2],
    pub(crate) shed: [u32; 2],
    pub(crate) readmitted: [u32; 2],
}

impl<S: ProfileSource, R: Rules> FleetState<S, R> {
    /// The empty fleet of `cfg`'s portfolio: every NIC `Up`.
    pub fn new(cfg: &FleetConfig, tenants: S, rules: R) -> Self {
        Self {
            tenants,
            location: BTreeMap::new(),
            nics: Residency::new(cfg),
            rules,
            parked: Vec::new(),
            evacuations: [0; 2],
            shed: [0; 2],
            readmitted: [0; 2],
        }
    }

    /// The profile source.
    pub fn tenants(&self) -> &S {
        &self.tenants
    }

    /// The NIC side.
    pub fn residency(&self) -> &Residency {
        &self.nics
    }

    /// Every NIC's residents, in residency order.
    pub(crate) fn residents(&self) -> &[Vec<u32>] {
        self.nics.residents()
    }

    /// The profile in force for NF `id`.
    pub(crate) fn profile(&self, id: u32) -> &Placed {
        self.tenants.profile(id)
    }

    /// The profiles in force for `nic`'s residents, in residency order.
    pub(crate) fn profiles(&self, nic: usize) -> Vec<&Placed> {
        self.residents()[nic]
            .iter()
            .map(|&id| self.profile(id))
            .collect()
    }

    /// Cores used by `ids` under their profiles in force.
    fn cores_used(&self, ids: &[u32]) -> u32 {
        ids.iter().map(|&id| self.profile(id).workload.cores).sum()
    }

    /// Puts NF `id` on `nic` under its profile in force; `predictor` is
    /// the policy's ([`FleetPolicy::predictor`]), which names the
    /// newcomer for the NIC's row.
    pub(crate) fn place(&mut self, predictor: Namer<'_, '_>, nic: usize, id: u32) {
        self.nics
            .place(predictor, nic, id, |id| self.tenants.profile(id));
        self.location.insert(id, nic);
    }

    /// Takes NF `id` off its NIC, returning where it was (`None` if it
    /// was parked or never placed).
    pub(crate) fn remove(&mut self, id: u32) -> Option<usize> {
        let nic = self.location.remove(&id)?;
        self.nics.remove(nic, id, |id| self.tenants.profile(id));
        Some(nic)
    }

    /// The one re-profile step: puts `to` in force for NF `id` (a new
    /// tenant's first profile, or its next) and, if `id` is placed,
    /// renames and re-prices it on its NIC. Returns that NIC.
    pub fn reprofile(
        &mut self,
        predictor: Namer<'_, '_>,
        id: u32,
        to: S::Profile,
    ) -> Option<usize> {
        let Some(&nic) = self.location.get(&id) else {
            self.tenants.set_profile(id, to);
            return None;
        };
        let old_cores = self.profile(id).workload.cores;
        self.tenants.set_profile(id, to);
        self.nics
            .reprofiled(predictor, nic, id, old_cores, |id| self.tenants.profile(id));
        Some(nic)
    }

    /// NF `id` leaves the fleet, returning the NIC it was on.
    pub fn depart(&mut self, id: u32) -> Option<usize> {
        let nic = self.remove(id);
        self.parked.retain(|p| p.id != id);
        self.tenants.forget(id);
        nic
    }

    /// Departs every parked NF (the daemon retries none), returning how
    /// many.
    pub fn shed_parked(&mut self) -> usize {
        let ids: Vec<u32> = self.parked.iter().map(|p| p.id).collect();
        for &id in &ids {
            self.depart(id);
        }
        ids.len()
    }

    /// Returns `nic` to service.
    pub fn recover(&mut self, nic: usize) {
        self.nics.set_state(nic, NicState::Up);
    }

    /// Where `policy` would place `nf` now: the first of the rules'
    /// candidates or, if contention-aware, the first that is empty or
    /// where the predictor foresees every resident, `nf` last, at or
    /// above its SLA floor raised by `margin` (the residency's admission
    /// test). `margins` gets the predictions made of the NIC chosen.
    pub fn choose_slot(
        &self,
        policy: &mut FleetPolicy<'_>,
        nf: &Placed,
        exclude: Option<usize>,
        margin: f64,
        mut margins: MarginSink<'_>,
    ) -> Option<usize> {
        let nics = &self.nics;
        let mut candidates = self.rules.candidates(nics, policy, nf, exclude);
        let FleetPolicy::ContentionAware { predictor, .. } = policy else {
            return candidates.next();
        };
        let profile = |id| self.tenants.profile(id);
        let mut who = nics.newcomer(*predictor, nf, margin);
        let found = candidates.find(|&i| {
            let mut sink = margins.as_deref_mut();
            if let Some(m) = sink.as_deref_mut() {
                m.clear();
            }
            nics.residents()[i].is_empty()
                || nics.admits(*predictor, &mut who, i, &[], sink, profile)
        });
        if let (None, Some(m)) = (found, margins) {
            m.clear();
        }
        found
    }

    /// Moves NF `id` where [`FleetState::choose_slot`] says (`"arrival"`)
    /// or, failing that, where parking best-effort residents makes room
    /// for it (`"preempt"`). `None` leaves it where it was.
    #[allow(clippy::too_many_arguments)]
    pub fn admit(
        &mut self,
        policy: &mut FleetPolicy<'_>,
        id: u32,
        exclude: Option<usize>,
        margin: f64,
        margins: MarginSink<'_>,
        t_ms: u64,
        tel: &mut Telemetry,
    ) -> Option<(usize, &'static str)> {
        let nf = self.profile(id);
        let slot = match self.choose_slot(policy, nf, exclude, margin, margins) {
            Some(nic) => (nic, "arrival"),
            None => {
                let (nic, victims) = self.preemption(policy, nf, exclude, margin)?;
                for victim in victims {
                    self.remove(victim);
                    self.park(victim, QosClass::BestEffort, "preempted", t_ms, tel);
                }
                (nic, "preempt")
            }
        };
        self.remove(id);
        self.place(policy.predictor(), slot.0, id);
        Some(slot)
    }

    /// The fault steps, returning how many residents `src` had. Forced (a
    /// failure or drain deadline) takes `src` `Down` and re-places its
    /// residents, parking each that finds no NIC; graceful (a drain
    /// notice) marks it `Draining` and moves what it can now.
    pub fn evacuate(
        &mut self,
        policy: &mut FleetPolicy<'_>,
        src: usize,
        forced: bool,
        t_ms: u64,
        tel: &mut Telemetry,
    ) -> usize {
        let mut ids = if forced {
            self.nics.set_state(src, NicState::Down);
            self.location.retain(|_, &mut nic| nic != src);
            self.nics.take_all(src)
        } else {
            self.nics.set_state(src, NicState::Draining);
            self.residents()[src].clone()
        };
        let rules = &self.rules;
        ids.sort_by_key(|&id| rules.evacuation_rank(policy, self.profile(id).qos(), id));
        for &id in &ids {
            let qos = self.profile(id).qos();
            match self.admit(policy, id, Some(src), 0.0, None, t_ms, tel) {
                Some((dst, _)) => {
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
                None => {}
            }
        }
        ids.len()
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
        self.parked.push(Parked {
            id,
            next_retry_ms: t_ms,
            backoff_epochs: 1,
        });
        self.shed[qos as usize] += 1;
        tel.inc(SHED[qos as usize], 1);
        tel.rec(t_ms, || Event::Park {
            id,
            qos: qos.name(),
            reason,
        });
    }

    /// Where a guaranteed NF could go under a QoS-aware policy by parking
    /// best-effort residents (any other policy or class: `None`): scans
    /// `Up` NICs supporting `nf`, and on each tries parking best-effort
    /// residents (latest-placed first) until the remaining set plus `nf`
    /// fits and is predicted SLA-safe. Returns the first NIC that works
    /// and whom to park there; guaranteed residents are never touched.
    /// All-guaranteed fleets (the default) never get past the first scan.
    fn preemption(
        &self,
        policy: &mut FleetPolicy<'_>,
        nf: &Placed,
        exclude: Option<usize>,
        margin: f64,
    ) -> Option<(usize, Vec<u32>)> {
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
        let (nics, profile) = (&self.nics, |id| self.tenants.profile(id));
        let mut who = nics.newcomer(*predictor, nf, margin);
        let open = |i: usize| Some(i) != exclude && nics.is_up(i);
        for i in (0..nics.nics()).filter(|&i| open(i) && nf.supported_on(nics.model(i))) {
            let nic = &nics.residents()[i];
            let be: Vec<u32> = nic
                .iter()
                .copied()
                .filter(|&id| !self.profile(id).qos().is_guaranteed())
                .collect();
            // Whether `nf` fits once `parked` are parked.
            let fits = |parked: &[u32]| {
                self.cores_used(nic) - self.cores_used(parked) + nf.workload.cores <= nics.cores(i)
            };
            // Even parking every best-effort resident must free the cores.
            if be.is_empty() || !fits(&be) {
                continue;
            }
            let mut parked_here: Vec<u32> = Vec::new();
            for &id in be.iter().rev() {
                parked_here.push(id);
                if fits(&parked_here)
                    && nics.admits(*predictor, &mut who, i, &parked_here, None, profile)
                {
                    return Some((i, parked_here));
                }
            }
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
            let placed = self.profiles(nic);
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
    /// diagnosis-selected victim and re-place it where the rules choose,
    /// skipping its NIC. Every per-NIC judgement — the re-evaluation,
    /// the bottleneck diagnosis, the victim's contender slate — uses the
    /// model of the NIC under audit; the destination may be a NIC of a
    /// *different* model, where the victim's feasibility and SLA floor
    /// are judged against its solo baseline on that hardware. Returns
    /// migrations executed; stops after `budget`.
    pub(crate) fn migrate(
        &mut self,
        policy: &mut FleetPolicy<'_>,
        budget: usize,
        t_ms: u64,
        tel: &mut Telemetry,
    ) -> u32 {
        let mut moved = 0u32;
        for nic in 0..self.nics.nics() {
            if moved as usize >= budget {
                break;
            }
            let FleetPolicy::ContentionAware {
                predictor,
                diagnoser,
                qos_aware,
                ..
            } = &mut *policy
            else {
                return 0;
            };
            if self.residents()[nic].len() < 2 {
                continue;
            }
            let model = self.nics.model(nic);
            let placed = self.profiles(nic);
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
            let qos = victim.qos();
            // Drain-and-replace; if the fleet is exhausted the victim
            // stays put.
            let Some(dst) = self.choose_slot(policy, victim, Some(nic), 0.0, None) else {
                continue;
            };
            self.remove(victim_id);
            self.place(policy.predictor(), dst, victim_id);
            moved += 1;
            tel.inc("fleet.migrations", 1);
            tel.rec(t_ms, || Event::Migrate {
                victim: victim_id,
                from: nic as u32,
                to: dst as u32,
                violator: violator_id,
                bottleneck: bottleneck.to_string(),
                qos: qos.name(),
                pressure: victim_pressure(bottleneck, &co[sel]),
            });
        }
        moved
    }
}

impl FleetState<Timelines<'_>, SimRules> {
    /// [`FleetState::reprofile`]s NF `id` to its snapshot in force at
    /// `t_ms`.
    pub(crate) fn seek(&mut self, predictor: Namer<'_, '_>, id: u32, t_ms: u64) {
        let at = self.tenants.profiled.timelines[id as usize].index_at(t_ms);
        if at != self.tenants.cursor[id as usize] {
            self.reprofile(predictor, id, at);
        }
    }

    /// Audit-epoch drift: seeks every placed NF to `t_ms` and lists the
    /// occupied NICs into `occupied`.
    pub(crate) fn drift(
        &mut self,
        mut predictor: Namer<'_, '_>,
        t_ms: u64,
        occupied: &mut Vec<usize>,
    ) {
        let placed: Vec<u32> = self.location.keys().copied().collect();
        for id in placed {
            self.seek(predictor.as_deref_mut(), id, t_ms);
        }
        occupied.clear();
        occupied.extend((0..self.nics.nics()).filter(|&n| !self.residents()[n].is_empty()));
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
                let solo = self.profile(id).solo(self.nics.model(nic)).solo_tput;
                let _ = write!(
                    out,
                    "{}:{:x};",
                    self.tenants.cursor[id as usize],
                    solo.to_bits()
                );
            }
        }
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
