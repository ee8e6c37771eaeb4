//! Who shares which NIC — the NIC side of the one tenant state machine,
//! [`crate::state::FleetState`], whoever drives it (the event loop or the
//! daemon): per NIC its hardware model, operational state, residents in
//! residency order, the predictor's view of them (`rows`) and the
//! candidate index (`pidx`, which also holds the core accounting).
//!
//! Those move together, and only [`Residency::place`], [`Residency::remove`],
//! [`Residency::take_all`], [`Residency::reprofiled`] and
//! [`Residency::set_state`] move them — crate-private, and called from
//! `FleetState` alone; the choosers and the admission test
//! [`Residency::admits`] read them. Profiles come from the caller, as an
//! `id -> &Placed` lookup of those in force. Debug builds recompute a
//! NIC's row and core accounting from it after every change
//! ([`Residency::assert_row`]) and every indexed answer by its linear scan
//! ([`linear`]).

use crate::index::PlacementIndex;
use crate::trace::FleetConfig;
use yala_placement::{Placed, PlacementPredictor};
use yala_sim::NicModelId;

/// Per-resident predicted-vs-floor margins a contention-aware placement
/// gathered on the NIC it accepted: `(slot, predicted, floor_with_margin)`.
/// `None` disables collection entirely (the telemetry-off path).
pub type MarginSink<'m> = Option<&'m mut Vec<(usize, f64, f64)>>;

/// The policy's predictor, lent to the code that names residents for the
/// NIC rows (`None`: prediction-free, every class is 0). The object's own
/// lifetime is spelled out so a reborrow can be handed on.
pub type Namer<'r, 'p> = Option<&'r mut (dyn PlacementPredictor + 'p)>;

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
/// model does not support it), named once per decision, the relative SLA
/// slack the decision demands, and the class ids of the candidate being
/// judged, kept for their capacity.
pub(crate) struct Newcomer<'p> {
    nf: &'p Placed,
    margin: f64,
    class_at: Vec<u32>,
    candidate: Vec<u32>,
}

/// The NIC side of a fleet. See the module docs for who may touch what.
pub struct Residency {
    /// Hardware model of each NIC.
    model: Vec<NicModelId>,
    /// Model of each portfolio position, so feasibility can be decided
    /// once per position instead of once per NIC.
    pos_models: Vec<NicModelId>,
    residents: Vec<Vec<u32>>,
    /// One row per NIC, in lockstep with `residents` and the residents'
    /// profiles in force.
    rows: Vec<NicRow>,
    /// The placement-candidate index, in lockstep with `residents`,
    /// `state` and the residents' core footprints, so each decision walks
    /// a shortlist instead of the whole fleet.
    pidx: PlacementIndex,
    state: Vec<NicState>,
}

impl Residency {
    /// The empty fleet of `cfg`'s portfolio — expanded through the
    /// config's own NIC→model mapping ([`FleetConfig::nic_model_pos`]), so
    /// the order lives in one place: every NIC `Up`, nobody placed.
    pub(crate) fn new(cfg: &FleetConfig) -> Self {
        let n = cfg.nics();
        let spec_pos: Vec<usize> = (0..n).map(|nic| cfg.nic_model_pos(nic)).collect();
        let cores: Vec<u32> = (0..n).map(|nic| cfg.nic_spec(nic).cores).collect();
        Self {
            model: (0..n).map(|nic| cfg.nic_spec(nic).model()).collect(),
            pos_models: cfg.portfolio.iter().map(|(s, _)| s.model()).collect(),
            residents: vec![Vec::new(); n],
            rows: vec![NicRow::default(); n],
            state: vec![NicState::Up; n],
            pidx: PlacementIndex::new(&spec_pos, &cores, cfg.portfolio.len()),
        }
    }

    /// NICs in the fleet.
    pub fn nics(&self) -> usize {
        self.model.len()
    }

    /// Hardware model of `nic`.
    pub(crate) fn model(&self, nic: usize) -> NicModelId {
        self.model[nic]
    }

    /// Total cores of `nic`.
    pub(crate) fn cores(&self, nic: usize) -> u32 {
        self.pidx.cores(nic)
    }

    /// Cores `nic`'s residents use under their profiles in force.
    pub(crate) fn used(&self, nic: usize) -> u32 {
        self.pidx.used(nic)
    }

    /// Every NIC's residents, in residency order.
    pub(crate) fn residents(&self) -> &[Vec<u32>] {
        &self.residents
    }

    /// The [`PlacementPredictor::class_of`] ids of `nic`'s residents.
    pub(crate) fn classes(&self, nic: usize) -> &[u32] {
        &self.rows[nic].classes
    }

    /// Every NIC's state under the fault machine.
    pub(crate) fn states(&self) -> &[NicState] {
        &self.state
    }

    /// Whether `nic` admits placements.
    pub fn is_up(&self, nic: usize) -> bool {
        self.state[nic] == NicState::Up
    }

    /// What `rows[nic]` holds for a resident profiled as `nf`.
    fn row_entry(&self, predictor: Namer<'_, '_>, nic: usize, nf: &Placed) -> (u32, f64) {
        let model = self.model[nic];
        let class = predictor.map_or(0, |p| p.class_of(model, nf));
        (class, nf.sla_floor(model))
    }

    /// The row slot of resident `id` of `nic`.
    fn slot(&self, nic: usize, id: u32) -> usize {
        self.residents[nic]
            .iter()
            .position(|&r| r == id)
            .expect("a located NF is among its NIC's residents")
    }

    /// The oracle of the lockstep rules: recomputes `rows[nic]` and the
    /// index's accounting of `nic` from `residents` and the profiles in
    /// force. Debug builds run it after every change to either. Without a
    /// predictor at hand only the floors are checked; a floor is a
    /// tenant's own continuous draw, so it alone tells residents apart.
    pub(crate) fn assert_row<'p>(
        &self,
        mut predictor: Namer<'_, '_>,
        nic: usize,
        profile: impl Fn(u32) -> &'p Placed,
    ) {
        let row = &self.rows[nic];
        let ids = &self.residents[nic];
        let used: u32 = ids.iter().map(|&id| profile(id).workload.cores).sum();
        let counted = (self.pidx.occupants(nic) as usize, self.pidx.used(nic));
        assert_eq!(
            (row.classes.len(), row.floors.len(), counted),
            (ids.len(), ids.len(), (ids.len(), used)),
            "NIC {nic}: row, residents and the index's count of them and their cores differ"
        );
        for (k, &id) in ids.iter().enumerate() {
            let (class, floor) = self.row_entry(predictor.as_deref_mut(), nic, profile(id));
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

    /// Puts NF `id` on `nic` under its profile in force, `profile(id)`;
    /// `predictor` names it for the NIC's row.
    pub(crate) fn place<'p>(
        &mut self,
        mut predictor: Namer<'_, '_>,
        nic: usize,
        id: u32,
        profile: impl Fn(u32) -> &'p Placed,
    ) {
        let nf = profile(id);
        let (class, floor) = self.row_entry(predictor.as_deref_mut(), nic, nf);
        self.residents[nic].push(id);
        self.rows[nic].classes.push(class);
        self.rows[nic].floors.push(floor);
        self.pidx.place(nic, nf.workload.cores);
        if cfg!(debug_assertions) {
            self.assert_row(predictor, nic, profile);
        }
    }

    /// Takes resident `id` off `nic`.
    pub(crate) fn remove<'p>(&mut self, nic: usize, id: u32, profile: impl Fn(u32) -> &'p Placed) {
        let slot = self.slot(nic, id);
        self.residents[nic].remove(slot);
        self.rows[nic].classes.remove(slot);
        self.rows[nic].floors.remove(slot);
        self.pidx.remove(nic, profile(id).workload.cores);
        if cfg!(debug_assertions) {
            self.assert_row(None, nic, profile);
        }
    }

    /// Bulk-evicts a retired NIC (hard failure or drain deadline),
    /// returning its former residents in residency order.
    pub(crate) fn take_all(&mut self, nic: usize) -> Vec<u32> {
        self.rows[nic] = NicRow::default();
        self.pidx.clear_retired(nic);
        std::mem::take(&mut self.residents[nic])
    }

    /// Resident `id` of `nic` changed profile, to `profile(id)` from one of
    /// `old_cores` cores: renames it in the row, re-prices the NIC.
    pub(crate) fn reprofiled<'p>(
        &mut self,
        mut predictor: Namer<'_, '_>,
        nic: usize,
        id: u32,
        old_cores: u32,
        profile: impl Fn(u32) -> &'p Placed,
    ) {
        let nf = profile(id);
        let (class, floor) = self.row_entry(predictor.as_deref_mut(), nic, nf);
        let slot = self.slot(nic, id);
        self.rows[nic].classes[slot] = class;
        self.rows[nic].floors[slot] = floor;
        let used = self.pidx.used(nic) - old_cores + nf.workload.cores;
        self.pidx.set_used(nic, used);
        if cfg!(debug_assertions) {
            self.assert_row(predictor, nic, profile);
        }
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

    /// Portfolio positions whose hardware model supports `nf`, ascending.
    fn supported_positions(&self, nf: &Placed) -> Vec<usize> {
        (0..self.pos_models.len())
            .filter(|&p| nf.supported_on(self.pos_models[p]))
            .collect()
    }

    /// Debug builds check every indexed answer against its [`linear`] scan.
    fn checked<T: PartialEq + std::fmt::Debug>(found: T, scan: impl FnOnce() -> T) -> T {
        if cfg!(debug_assertions) {
            assert_eq!(
                found,
                scan(),
                "indexed choice diverged from the linear scan"
            );
        }
        found
    }

    /// First empty `Up` NIC (lowest index) whose model supports `nf`,
    /// skipping `exclude` — answered from the index.
    pub(crate) fn choose_empty(&self, nf: &Placed, exclude: Option<usize>) -> Option<usize> {
        let sup = self.supported_positions(nf);
        let found = self.pidx.first_empty(&sup, exclude);
        Self::checked(found, || linear::choose_empty(self, nf, exclude))
    }

    /// Greedy: the occupied `Up` NIC with the most available cores among
    /// those where `nf` fits and is feasible (ties break to the lowest
    /// index) — answered from the index's free-core buckets.
    pub(crate) fn choose_greedy(&self, nf: &Placed, exclude: Option<usize>) -> Option<usize> {
        let sup = self.supported_positions(nf);
        let found = self.pidx.most_free(&sup, nf.workload.cores, exclude);
        Self::checked(found, || linear::choose_greedy(self, nf, exclude))
    }

    /// The structural shortlist of the contention-aware chooser: `Up`,
    /// occupied, feasible, fitting NICs, ascending — the same NICs the
    /// linear scan would evaluate, in the same order, so the predictor
    /// sees an identical call sequence.
    pub(crate) fn shortlist(&self, nf: &Placed, exclude: Option<usize>) -> Vec<usize> {
        let sup = self.supported_positions(nf);
        let mut cands = Vec::new();
        self.pidx
            .fitting(&sup, nf.workload.cores, exclude, &mut cands);
        Self::checked(cands, || linear::contention_candidates(self, nf, exclude))
    }

    /// Names `nf` for one placement decision whose contention-aware
    /// predictions must clear each SLA floor by the relative `margin`
    /// (0.0 for normal placements, the readmission hysteresis for parked
    /// retries).
    pub(crate) fn newcomer<'p>(
        &self,
        predictor: &mut dyn PlacementPredictor,
        nf: &'p Placed,
        margin: f64,
    ) -> Newcomer<'p> {
        let class = |&m| match nf.supported_on(m) {
            true => predictor.class_of(m, nf),
            false => 0,
        };
        Newcomer {
            nf,
            margin,
            class_at: self.pos_models.iter().map(class).collect(),
            candidate: Vec::new(),
        }
    }

    /// THE admission test (§7.5.1): whether the predictor — consulted for
    /// `nic`'s hardware model — foresees no SLA violation for anyone when
    /// `who` joins the residents of `nic` other than `left_out`, each
    /// floor raised by the decision's margin. Scored from the NIC's row:
    /// a profile is read only when the predictor asks for it. Residents
    /// are asked about in residency order, the newcomer last, stopping at
    /// the first violation; `margins` collects `(candidate slot,
    /// predicted, floor)` per question asked.
    pub(crate) fn admits<'p>(
        &self,
        predictor: &mut dyn PlacementPredictor,
        who: &mut Newcomer<'p>,
        nic: usize,
        left_out: &[u32],
        mut margins: MarginSink<'_>,
        profile: impl Fn(u32) -> &'p Placed,
    ) -> bool {
        let nf = who.nf;
        let model = self.model[nic];
        let (row, ids) = (&self.rows[nic], &self.residents[nic]);
        let stay = || (0..ids.len()).filter(|&k| !left_out.contains(&ids[k]));
        let classes = &mut who.candidate;
        classes.clear();
        classes.extend(stay().map(|k| row.classes[k]));
        classes.push(who.class_at[self.pidx.pos(nic)]);
        // The row slot of the candidate's `t`-th member; `None` for `nf`.
        let slot = |t: usize| stay().nth(t);
        let resident = |t: usize| slot(t).map_or(nf, |k| profile(ids[k]));
        for t in 0..classes.len() {
            let predicted = predictor.predict_classes(model, t, classes, &resident);
            let floor =
                slot(t).map_or_else(|| nf.sla_floor(model), |k| row.floors[k]) * (1.0 + who.margin);
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
}

/// The pre-index O(NICs) scans, kept as the semantics oracle: debug
/// builds check every indexed decision against them, and the property
/// test does so explicitly in any profile. They read each NIC's core
/// accounting, which [`Residency::assert_row`] ties to the profiles.
pub(crate) mod linear {
    use super::{Placed, Residency};

    /// Whether `nic` is `Up`, not `exclude`, and of a model `nf` runs on.
    fn admitting(st: &Residency, nf: &Placed, exclude: Option<usize>, nic: usize) -> bool {
        Some(nic) != exclude && st.is_up(nic) && nf.supported_on(st.model[nic])
    }

    /// The free cores of `nic` if it is admitting, occupied, and fits `nf`.
    fn fitting(st: &Residency, nf: &Placed, exclude: Option<usize>, nic: usize) -> Option<u32> {
        let open = admitting(st, nf, exclude, nic) && !st.residents[nic].is_empty();
        let fits = st.used(nic) + nf.workload.cores <= st.cores(nic);
        (open && fits).then(|| st.cores(nic) - st.used(nic))
    }

    pub(crate) fn choose_empty(
        st: &Residency,
        nf: &Placed,
        exclude: Option<usize>,
    ) -> Option<usize> {
        (0..st.nics()).find(|&i| admitting(st, nf, exclude, i) && st.residents[i].is_empty())
    }

    pub(crate) fn choose_greedy(
        st: &Residency,
        nf: &Placed,
        exclude: Option<usize>,
    ) -> Option<usize> {
        let mut best: Option<(usize, u32)> = None;
        for i in 0..st.nics() {
            let avail = fitting(st, nf, exclude, i);
            if avail.is_some_and(|a| best.is_none_or(|(_, b)| a > b)) {
                best = avail.map(|a| (i, a));
            }
        }
        best.map(|(i, _)| i)
    }

    pub(crate) fn contention_candidates(
        st: &Residency,
        nf: &Placed,
        exclude: Option<usize>,
    ) -> Vec<usize> {
        let fits = |&i: &usize| fitting(st, nf, exclude, i).is_some();
        (0..st.nics()).filter(fits).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use yala_nf::NfKind;
    use yala_placement::{measure_entry, placed_from_entry, sims_for, Arrival};
    use yala_traffic::TrafficProfile;

    /// Names a resident by the bits of its SLA floor; is asked nothing.
    struct FloorNamer;

    impl PlacementPredictor for FloorNamer {
        fn predict_refs(&mut self, _: NicModelId, _: usize, _: &[&Placed]) -> f64 {
            unreachable!("maintaining the table asks no question")
        }

        fn class_of(&mut self, model: NicModelId, p: &Placed) -> u32 {
            (p.sla_floor(model).to_bits() >> 16) as u32 | 1
        }
    }

    fn in_force<'p>(pool: &'p [Placed], of: &'p [usize]) -> impl Fn(u32) -> &'p Placed {
        move |id| &pool[of[id as usize]]
    }

    /// 2 400 random place / remove / re-profile / fault-machine steps on a
    /// mixed portfolio: after each, every NIC's row and core accounting
    /// must equal their recomputation from the residents' profiles, and
    /// the three indexed answers their linear scans — in any build
    /// profile (debug builds check the same inside every call).
    #[test]
    fn every_step_leaves_rows_accounting_and_index_as_recomputed() {
        let (nics, tenants) = (40usize, 130usize);
        let cfg = FleetConfig::mixed(5, nics);
        // Two measurements — a memory NF both models run (even pool
        // slots), a regex NF only BlueField-2 does (odd ones) — spread
        // over core footprints and SLA floors.
        let kinds = [NfKind::FlowStats, NfKind::Nids];
        let entries = kinds.map(|kind| {
            let mtbr = if kind == NfKind::Nids { 600.0 } else { 0.0 };
            let mut sims = sims_for(&cfg.specs(), kind, 0.0, 5, 0);
            measure_entry(&mut sims, kind, TrafficProfile::new(400, 256, mtbr), 5)
        });
        let profile = |i: usize| {
            let (entry, sla_drop) = (&entries[i % 2], [0.05, 0.1, 0.2][i / 2 % 3]);
            let arrival = Arrival::new(kinds[i % 2], entry.traffic, sla_drop);
            let mut p = placed_from_entry(entry, arrival, None);
            p.workload.cores = 1 + i as u32 / 6;
            p
        };
        let pool: Vec<Placed> = (0..18).map(profile).collect();
        let mut rng = StdRng::seed_from_u64(11);
        let mut of: Vec<usize> = (0..tenants).map(|_| rng.gen_range(0..pool.len())).collect();
        let mut at: Vec<Option<usize>> = vec![None; tenants];
        let mut r = Residency::new(&cfg);
        let (mut namer, mut evicted, mut overfull) = (FloorNamer, 0, 0);
        for _ in 0..2_400 {
            let (nic, t) = (rng.gen_range(0..nics), rng.gen_range(0..tenants));
            let (id, nf) = (t as u32, &pool[of[t]]);
            match (rng.gen_range(0..6), at[t]) {
                (0..=2, None) => {
                    let fits = r.used(nic) + nf.workload.cores <= r.cores(nic);
                    if fits && nf.supported_on(r.model(nic)) {
                        r.place(Some(&mut namer), nic, id, in_force(&pool, &of));
                        at[t] = Some(nic);
                    }
                }
                (0, Some(n)) => {
                    r.remove(n, id, in_force(&pool, &of));
                    at[t] = None;
                }
                // Another profile of the same kind (so of the same
                // models) comes into force; it may overfill the NIC.
                (1 | 2, Some(n)) => {
                    let old_cores = nf.workload.cores;
                    of[t] = (of[t] + 2 * rng.gen_range(0..9)) % 18;
                    r.reprofiled(Some(&mut namer), n, id, old_cores, in_force(&pool, &of));
                    overfull += (r.used(n) > r.cores(n)) as u32;
                }
                (3, _) => r.set_state(nic, NicState::Up),
                (4, _) => r.set_state(nic, NicState::Draining),
                _ => {
                    r.set_state(nic, NicState::Down);
                    for gone in r.take_all(nic) {
                        at[gone as usize] = None;
                        evicted += 1;
                    }
                }
            }
            let profile = in_force(&pool, &of);
            for n in 0..nics {
                r.assert_row(Some(&mut namer), n, &profile);
                let here = (0..tenants as u32).filter(|&id| at[id as usize] == Some(n));
                assert_eq!(r.residents()[n].len(), here.count());
            }
            let nf = &pool[rng.gen_range(0..pool.len())];
            let exclude = rng.gen_bool(0.5).then(|| rng.gen_range(0..nics));
            let (empty, greedy) = (r.choose_empty(nf, exclude), r.choose_greedy(nf, exclude));
            assert_eq!(empty, linear::choose_empty(&r, nf, exclude));
            assert_eq!(greedy, linear::choose_greedy(&r, nf, exclude));
            let scanned = linear::contention_candidates(&r, nf, exclude);
            assert_eq!(r.shortlist(nf, exclude), scanned);
        }
        assert!(evicted > 100 && overfull > 10, "{evicted} {overfull}");
    }
}
