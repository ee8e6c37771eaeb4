//! The one owner of a fleet run's mutable state: who lives where
//! (`residents` / `location`), the candidate index (`pidx`) and the
//! predictor's view (`rows`) mirroring that, drift cursors, NIC up/down
//! state, the parked set, and the per-class displacement counters.
//!
//! `residents`, `location`, `pidx`, and `rows` must move together; the
//! only code that moves them is [`FleetState::place`],
//! [`FleetState::remove`], [`FleetState::take_all`], and — when a
//! resident's profile changes under it — [`FleetState::drift`].
//! Everything else — the choosers, evacuation, preemption, migration —
//! decides *what* to move and calls those. The event loop (`sim.rs`)
//! sees the fields it may not touch only through read accessors.

use crate::index::PlacementIndex;
use crate::policy::{Diagnoser, FleetPolicy};
use crate::timeline::ProfiledTrace;
use crate::trace::FleetConfig;
use yala_core::contender::{aggregate_counters, total_pressure};
use yala_core::{Observation, ObservationBuffer, QosClass};
use yala_diagnosis::{select_victim, select_victim_qos, victim_pressure};
use yala_placement::{Placed, PlacementPredictor};
use yala_sim::{CoRunReport, NicModelId, ResourceKind};
use yala_telemetry::{Event, Telemetry};

/// Per-resident predicted-vs-floor margins a contention-aware placement
/// gathered on the NIC it accepted: `(slot, predicted, floor_with_margin)`.
/// `None` disables collection entirely (the telemetry-off path).
pub(crate) type MarginSink<'m> = Option<&'m mut Vec<(usize, f64, f64)>>;

/// The policy's predictor ([`FleetPolicy::predictor`]), lent to the code
/// that names residents for the NIC rows. The object's own lifetime is
/// spelled out so a reborrow can be handed on.
pub(crate) type Namer<'r, 'p> = Option<&'r mut (dyn PlacementPredictor + 'p)>;

/// Operational state of a NIC under the fault machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum NicState {
    /// In service: admits placements.
    Up,
    /// Maintenance announced: residents keep running until the deadline
    /// but no new placements are admitted.
    Draining,
    /// Failed or offline for maintenance: empty, admits nothing.
    Down,
}

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

/// Per-NIC hardware facts expanded from the portfolio: the model and
/// core count of every NIC index, plus the portfolio position used to
/// build ground-truth simulators.
pub(crate) struct NicMap {
    pub(crate) model: Vec<NicModelId>,
    pub(crate) cores: Vec<u32>,
    pub(crate) spec_pos: Vec<usize>,
    /// Model of each portfolio position, so feasibility can be decided
    /// once per position instead of once per NIC.
    pos_models: Vec<NicModelId>,
}

impl NicMap {
    /// Expands the portfolio through the config's own NIC→model mapping
    /// ([`FleetConfig::nic_model_pos`]), so the expansion order
    /// invariant lives in exactly one place.
    fn new(cfg: &FleetConfig) -> Self {
        let n = cfg.nics();
        let mut map = Self {
            model: Vec::with_capacity(n),
            cores: Vec::with_capacity(n),
            spec_pos: Vec::with_capacity(n),
            pos_models: cfg.portfolio.iter().map(|(s, _)| s.model()).collect(),
        };
        for nic in 0..n {
            let pos = cfg.nic_model_pos(nic);
            let spec = &cfg.portfolio[pos].0;
            map.model.push(spec.model());
            map.cores.push(spec.cores);
            map.spec_pos.push(pos);
        }
        map
    }

    /// Portfolio positions whose hardware model supports `nf`, ascending.
    fn supported_positions(&self, nf: &Placed) -> Vec<usize> {
        (0..self.pos_models.len())
            .filter(|&p| nf.supported_on(self.pos_models[p]))
            .collect()
    }
}

/// What a contention-aware decision reads of one NIC's residents, in
/// residency order, so that scoring a candidate NIC touches no profile:
/// each resident's [`PlacementPredictor::class_of`] id on this NIC's
/// model (0 under a policy without a predictor) and its SLA floor there.
#[derive(Debug, Clone, Default, PartialEq)]
struct NicRow {
    classes: Vec<u32>,
    floors: Vec<f64>,
}

/// The NF a placement decision is about, as its candidate NICs'
/// questions need it: its class id per portfolio position (0 where the
/// model does not support it), named once per decision, and the class
/// ids of the candidate being judged, kept for their capacity.
struct Newcomer<'a> {
    nf: &'a Placed,
    class_at: Vec<u32>,
    candidate: Vec<u32>,
}

/// The fleet itself. See the module docs for who may touch what.
pub(crate) struct FleetState<'a> {
    pub(crate) profiled: &'a ProfiledTrace,
    pub(crate) nics: NicMap,
    residents: Vec<Vec<u32>>,
    location: Vec<Option<usize>>,
    /// One row per NIC, in lockstep with `residents` and — through
    /// [`FleetState::drift`] — `cursor`.
    rows: Vec<NicRow>,
    /// The placement-candidate index, in lockstep with `residents`,
    /// `state`, and (through [`FleetState::drift`]) `cursor`, so each
    /// decision walks a shortlist instead of the whole fleet.
    pidx: PlacementIndex,
    cursor: Vec<usize>,
    state: Vec<NicState>,
    pub(crate) parked: Vec<Parked>,
    // Per-class displacement accounting, indexed by `QosClass as usize`.
    pub(crate) evacuations: [u32; 2],
    pub(crate) shed: [u32; 2],
    pub(crate) readmitted: [u32; 2],
}

impl<'a> FleetState<'a> {
    /// The empty fleet: every NIC `Up`, nobody placed.
    pub(crate) fn new(profiled: &'a ProfiledTrace) -> Self {
        let nics = NicMap::new(&profiled.trace.config);
        let nic_count = nics.model.len();
        let nfs = profiled.trace.records.len();
        Self {
            profiled,
            pidx: PlacementIndex::new(&nics.spec_pos, &nics.cores, nics.pos_models.len()),
            nics,
            residents: vec![Vec::new(); nic_count],
            location: vec![None; nfs],
            rows: vec![NicRow::default(); nic_count],
            cursor: vec![0; nfs],
            state: vec![NicState::Up; nic_count],
            parked: Vec::new(),
            evacuations: [0; 2],
            shed: [0; 2],
            readmitted: [0; 2],
        }
    }

    /// Every NIC's residents, in residency order.
    pub(crate) fn residents(&self) -> &[Vec<u32>] {
        &self.residents
    }

    /// NICs currently `Down`.
    pub(crate) fn down_nics(&self) -> u32 {
        self.state.iter().filter(|&&s| s == NicState::Down).count() as u32
    }

    /// The profile snapshot currently in force for NF `id`.
    pub(crate) fn snapshot(&self, id: u32) -> &'a Placed {
        &self.profiled.timelines[id as usize].snapshots[self.cursor[id as usize]].1
    }

    /// The profile snapshots currently in force for `nic`'s residents,
    /// in residency order.
    pub(crate) fn snapshots(&self, nic: usize) -> Vec<&'a Placed> {
        self.residents[nic]
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
                &self.residents,
                &self.state,
                &self.parked,
                self.evacuations,
                self.shed,
                self.readmitted
            )
        );
        for (nic, res) in self.residents.iter().enumerate() {
            for &id in res {
                let solo = self.snapshot(id).solo(self.nics.model[nic]).solo_tput;
                let _ = write!(out, "{}:{:x};", self.cursor[id as usize], solo.to_bits());
            }
        }
    }

    /// What `rows[nic]` holds for NF `id` under its snapshot in force.
    fn row_entry(&self, predictor: Namer<'_, '_>, nic: usize, id: u32) -> (u32, f64) {
        let (model, nf) = (self.nics.model[nic], self.snapshot(id));
        let class = predictor.map_or(0, |p| p.class_of(model, nf));
        (class, nf.sla_floor(model))
    }

    /// Debug builds recompute `rows[nic]` from `residents` and the
    /// snapshots in force after every change to either — the oracle
    /// pattern [`linear`] gives the indexed choosers. Without a predictor
    /// at hand only the floors are checked; a floor is a tenant's own
    /// continuous draw, so it alone tells residents apart.
    #[cfg(debug_assertions)]
    fn assert_row(&self, mut predictor: Namer<'_, '_>, nic: usize) {
        let row = &self.rows[nic];
        let ids = &self.residents[nic];
        assert_eq!(
            (row.classes.len(), row.floors.len()),
            (ids.len(), ids.len()),
            "NIC {nic}: row and residents differ in length"
        );
        for (k, &id) in ids.iter().enumerate() {
            let (class, floor) = self.row_entry(predictor.as_deref_mut(), nic, id);
            assert_eq!(
                row.floors[k].to_bits(),
                floor.to_bits(),
                "NIC {nic} slot {k}: stale SLA floor for NF {id}"
            );
            if let Some(p) = predictor.as_deref() {
                // A predictor whose table of descriptions was emptied
                // names a description it sees again with a newer id.
                let renamed = p.memo_stats().is_some_and(|s| s.clears > 0);
                assert!(
                    row.classes[k] == class || (renamed && row.classes[k] < class),
                    "NIC {nic} slot {k}: NF {id} is class {class}, row says {}",
                    row.classes[k]
                );
            }
        }
    }

    /// Puts NF `id` on `nic` under its snapshot in force; `predictor` is
    /// the policy's ([`FleetPolicy::predictor`]), which names the
    /// newcomer for the NIC's row.
    pub(crate) fn place(&mut self, mut predictor: Namer<'_, '_>, nic: usize, id: u32) {
        let (class, floor) = self.row_entry(predictor.as_deref_mut(), nic, id);
        self.residents[nic].push(id);
        self.rows[nic].classes.push(class);
        self.rows[nic].floors.push(floor);
        self.location[id as usize] = Some(nic);
        self.pidx.place(nic, self.snapshot(id).workload.cores);
        #[cfg(debug_assertions)]
        self.assert_row(predictor, nic);
    }

    /// Takes NF `id` off its NIC, returning where it was (`None` if it
    /// was parked or never placed).
    pub(crate) fn remove(&mut self, id: u32) -> Option<usize> {
        let nic = self.location[id as usize].take()?;
        let slot = self.residents[nic]
            .iter()
            .position(|&r| r == id)
            .expect("a located NF is among its NIC's residents");
        self.residents[nic].remove(slot);
        self.rows[nic].classes.remove(slot);
        self.rows[nic].floors.remove(slot);
        self.pidx.remove(nic, self.snapshot(id).workload.cores);
        #[cfg(debug_assertions)]
        self.assert_row(None, nic);
        Some(nic)
    }

    /// Bulk-evicts a retired NIC (hard failure or drain deadline),
    /// returning its former residents in residency order.
    pub(crate) fn take_all(&mut self, nic: usize) -> Vec<u32> {
        let evicted = std::mem::take(&mut self.residents[nic]);
        for &id in &evicted {
            self.location[id as usize] = None;
        }
        self.rows[nic] = NicRow::default();
        self.pidx.clear_retired(nic);
        #[cfg(debug_assertions)]
        self.assert_row(None, nic);
        evicted
    }

    /// Moves `nic` through the fault machine; only `Up` NICs stay in the
    /// candidate index.
    pub(crate) fn set_state(&mut self, nic: usize, state: NicState) {
        self.state[nic] = state;
        if state == NicState::Up {
            self.pidx.restore(nic);
        } else {
            self.pidx.retire(nic);
        }
    }

    /// Points a parked NF at its snapshot in force at `t_ms` (placed NFs
    /// drift with the fleet, in [`FleetState::drift`]).
    pub(crate) fn seek(&mut self, id: u32, t_ms: u64) {
        debug_assert!(self.location[id as usize].is_none());
        self.cursor[id as usize] = self.profiled.timelines[id as usize].index_at(t_ms);
    }

    /// Audit-epoch drift: brings every placed NF to its snapshot in
    /// force at `t_ms` (re-profiles are epoch-aligned) — renaming it in
    /// its NIC's row when that is another one — lists the occupied NICs
    /// into `occupied`, and re-prices each in the index: the cursor moves
    /// may have changed resident core footprints.
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
            self.cursor[id] = at;
            let id = id as u32;
            let slot = self.residents[nic]
                .iter()
                .position(|&r| r == id)
                .expect("a located NF is among its NIC's residents");
            let (class, floor) = self.row_entry(predictor.as_deref_mut(), nic, id);
            self.rows[nic].classes[slot] = class;
            self.rows[nic].floors[slot] = floor;
        }
        occupied.clear();
        for n in 0..self.residents.len() {
            if !self.residents[n].is_empty() {
                occupied.push(n);
                self.pidx.set_used(n, self.cores_used(&self.residents[n]));
                #[cfg(debug_assertions)]
                self.assert_row(predictor.as_deref_mut(), n);
            }
        }
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
            FleetPolicy::Monopolization => self.choose_empty(nf, exclude),
            FleetPolicy::Greedy => self
                .choose_greedy(nf, exclude)
                .or_else(|| self.choose_empty(nf, exclude)),
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
                self.choose_empty(nf, exclude)
            }
        }
    }

    /// First empty `Up` NIC (lowest index) whose model supports `nf`,
    /// skipping `exclude` — answered from the index; debug builds check
    /// the answer against [`linear::choose_empty`] on every call.
    pub(crate) fn choose_empty(&self, nf: &Placed, exclude: Option<usize>) -> Option<usize> {
        let sup = self.nics.supported_positions(nf);
        let found = self.pidx.first_empty(&sup, exclude);
        #[cfg(debug_assertions)]
        assert_eq!(
            found,
            linear::choose_empty(self, nf, exclude),
            "indexed empty-NIC choice diverged from the linear scan"
        );
        found
    }

    /// Greedy: the occupied `Up` NIC with the most available cores among
    /// those where `nf` fits and is feasible (ties break to the lowest
    /// index) — answered from the index's free-core buckets; debug
    /// builds check against [`linear::choose_greedy`] on every call.
    pub(crate) fn choose_greedy(&self, nf: &Placed, exclude: Option<usize>) -> Option<usize> {
        let sup = self.nics.supported_positions(nf);
        let found = self.pidx.most_free(&sup, nf.workload.cores, exclude);
        #[cfg(debug_assertions)]
        assert_eq!(
            found,
            linear::choose_greedy(self, nf, exclude),
            "indexed greedy choice diverged from the linear scan"
        );
        found
    }

    /// The structural shortlist of the contention-aware chooser: `Up`,
    /// occupied, feasible, fitting NICs, ascending — the same NICs the
    /// linear scan would evaluate, in the same order, so the predictor
    /// sees an identical call sequence; debug builds assert it against
    /// [`linear::contention_candidates`].
    pub(crate) fn shortlist(&self, nf: &Placed, exclude: Option<usize>) -> Vec<usize> {
        let sup = self.nics.supported_positions(nf);
        let mut cands = Vec::new();
        self.pidx
            .fitting(&sup, nf.workload.cores, exclude, &mut cands);
        #[cfg(debug_assertions)]
        assert_eq!(
            cands,
            linear::contention_candidates(self, nf, exclude),
            "indexed contention-aware shortlist diverged from the linear scan"
        );
        cands
    }

    /// Names `nf` for one placement decision.
    fn newcomer(&self, predictor: &mut dyn PlacementPredictor, nf: &'a Placed) -> Newcomer<'a> {
        let class = |&m| match nf.supported_on(m) {
            true => predictor.class_of(m, nf),
            false => 0,
        };
        Newcomer {
            nf,
            class_at: self.nics.pos_models.iter().map(class).collect(),
            candidate: Vec::new(),
        }
    }

    /// Whether the predictor — consulted for `nic`'s hardware model —
    /// foresees no SLA violation for anyone when `who` joins the
    /// residents of `nic` other than `left_out`, each floor raised by the
    /// relative `margin`. Scored from the NIC's row: a profile is read
    /// only when the predictor asks for it. Residents are asked about in
    /// residency order, the newcomer last, stopping at the first
    /// violation; `margins` collects `(candidate slot, predicted, floor)`
    /// per question asked.
    fn admits(
        &self,
        predictor: &mut dyn PlacementPredictor,
        who: &mut Newcomer<'a>,
        nic: usize,
        left_out: &[u32],
        margin: f64,
        mut margins: MarginSink<'_>,
    ) -> bool {
        let nf = who.nf;
        let model = self.nics.model[nic];
        let (row, ids) = (&self.rows[nic], &self.residents[nic]);
        let stay = || (0..ids.len()).filter(|&k| !left_out.contains(&ids[k]));
        let classes = &mut who.candidate;
        classes.clear();
        classes.extend(stay().map(|k| row.classes[k]));
        classes.push(who.class_at[self.nics.spec_pos[nic]]);
        // The row slot of the candidate's `t`-th member; `None` for `nf`.
        let slot = |t: usize| stay().nth(t);
        let resident = |t: usize| slot(t).map_or(nf, |k| self.snapshot(ids[k]));
        for t in 0..classes.len() {
            let predicted = predictor.predict_classes(model, t, classes, &resident);
            let floor =
                slot(t).map_or_else(|| nf.sla_floor(model), |k| row.floors[k]) * (1.0 + margin);
            if let Some(m) = margins.as_deref_mut() {
                m.push((t, predicted, floor));
            }
            // `!(>=)`, not `<`: a NaN prediction must stay unsafe.
            #[allow(clippy::neg_cmp_op_on_partial_ord)]
            if !(predicted >= floor) {
                return false;
            }
        }
        true
    }

    /// Contention-aware: the first shortlisted NIC where the predictor
    /// foresees no SLA violation for anyone (the candidate NIC including
    /// `nf`, see [`Self::admits`]).
    fn choose_contention_aware(
        &self,
        predictor: &mut dyn PlacementPredictor,
        nf: &'a Placed,
        exclude: Option<usize>,
        margin: f64,
        mut margins: MarginSink<'_>,
    ) -> Option<usize> {
        let mut who = self.newcomer(predictor, nf);
        self.shortlist(nf, exclude).into_iter().find(|&i| {
            // Margins describe one candidate NIC: the one accepted, or
            // the last one tried.
            if let Some(m) = margins.as_deref_mut() {
                m.clear();
            }
            self.admits(predictor, &mut who, i, &[], margin, margins.as_deref_mut())
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
                    tel.inc(&format!("fleet.evacuations.{}", qos.name()), 1);
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
        tel.inc(&format!("fleet.shed.{}", qos.name()), 1);
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
        let mut who = self.newcomer(*predictor, nf);
        for i in 0..self.residents.len() {
            let model = self.nics.model[i];
            if Some(i) == exclude || self.state[i] != NicState::Up || !nf.supported_on(model) {
                continue;
            }
            let nic = &self.residents[i];
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
            if used - self.cores_used(&be) + nf.workload.cores > self.nics.cores[i] {
                continue;
            }
            let mut parked_here: Vec<u32> = Vec::new();
            let mut found = false;
            for &id in be.iter().rev() {
                parked_here.push(id);
                if used - self.cores_used(&parked_here) + nf.workload.cores > self.nics.cores[i] {
                    continue;
                }
                if self.admits(*predictor, &mut who, i, &parked_here, margin, None) {
                    found = true;
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
            if self.residents[nic].len() < 2 {
                continue;
            }
            let model = self.nics.model[nic];
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
        for nic in 0..self.residents.len() {
            if moved as usize >= budget {
                break;
            }
            if self.residents[nic].len() < 2 {
                continue;
            }
            let model = self.nics.model[nic];
            let placed = self.snapshots(nic);
            let classes = &self.rows[nic].classes;
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
            let victim_id = self.residents[nic][victim_pos];
            let violator_id = self.residents[nic][violator];
            let victim = placed[victim_pos];
            // Drain-and-replace: a safe occupied NIC first, else power on
            // an empty one; if the fleet is exhausted the victim stays
            // put.
            let dst = self
                .choose_contention_aware(*predictor, victim, Some(nic), 0.0, None)
                .or_else(|| self.choose_empty(victim, Some(nic)));
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

/// The pre-index O(NICs) scans, kept as the semantics oracle: debug
/// builds check every indexed decision against them, and the parity test
/// does so explicitly in any profile.
#[cfg(any(test, debug_assertions))]
pub(crate) mod linear {
    use super::{FleetState, NicState, Placed};

    /// `Up` NICs other than `exclude` whose model supports `nf`.
    fn admitting<'s>(
        st: &'s FleetState<'_>,
        nf: &'s Placed,
        exclude: Option<usize>,
    ) -> impl Iterator<Item = (usize, &'s Vec<u32>)> {
        st.residents.iter().enumerate().filter(move |(i, _)| {
            Some(*i) != exclude
                && st.state[*i] == NicState::Up
                && nf.supported_on(st.nics.model[*i])
        })
    }

    /// Occupied admitting NICs where `nf` fits, with their free cores.
    fn fitting<'s>(
        st: &'s FleetState<'_>,
        nf: &'s Placed,
        exclude: Option<usize>,
    ) -> impl Iterator<Item = (usize, u32)> + 's {
        admitting(st, nf, exclude)
            .filter(|(_, res)| !res.is_empty())
            .filter_map(move |(i, res)| {
                let used = st.cores_used(res);
                (used + nf.workload.cores <= st.nics.cores[i]).then(|| (i, st.nics.cores[i] - used))
            })
    }

    pub(crate) fn choose_empty(
        st: &FleetState<'_>,
        nf: &Placed,
        exclude: Option<usize>,
    ) -> Option<usize> {
        admitting(st, nf, exclude)
            .find(|(_, res)| res.is_empty())
            .map(|(i, _)| i)
    }

    pub(crate) fn choose_greedy(
        st: &FleetState<'_>,
        nf: &Placed,
        exclude: Option<usize>,
    ) -> Option<usize> {
        let mut best: Option<(usize, u32)> = None;
        for (i, avail) in fitting(st, nf, exclude) {
            if best.is_none_or(|(_, b)| avail > b) {
                best = Some((i, avail));
            }
        }
        best.map(|(i, _)| i)
    }

    pub(crate) fn contention_candidates(
        st: &FleetState<'_>,
        nf: &Placed,
        exclude: Option<usize>,
    ) -> Vec<usize> {
        fitting(st, nf, exclude).map(|(i, _)| i).collect()
    }
}
