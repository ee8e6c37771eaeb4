//! The fleet event loop: a deterministic discrete-event simulation of an
//! operator fleet over simulated hours.
//!
//! Events — departures, arrivals, audit epochs — are known up front from
//! the trace, so the "queue" is a statically sorted list with a total
//! order `(time_ms, class, index)`; at equal times departures free
//! capacity before arrivals claim it, and the audit observes the settled
//! state. Ground-truth audits co-run every occupied NIC on private,
//! per-`(epoch, nic)`-seeded simulators dispatched across the engine's
//! workers, so the loop is bit-identical for any thread count.
//!
//! The fleet may be heterogeneous: each NIC carries the hardware model of
//! its portfolio entry, placement only considers NICs whose model the NF
//! was profiled on (capability feasibility), predictors and SLA floors
//! are keyed by the model of the NIC under evaluation, and migration may
//! move an NF *across* models — the victim's SLA floor on the
//! destination hardware is its solo baseline there.

use crate::index::PlacementIndex;
use crate::policy::{Diagnoser, FleetPolicy};
use crate::report::{ClassStats, FleetReport, FleetSample};
use crate::timeline::ProfiledTrace;
use crate::trace::{FaultKind, MS_PER_S};
use yala_core::contender::{aggregate_counters, total_pressure};
use yala_core::engine::{scenario_seed, simulator_for, Engine};
use yala_core::{Observation, ObservationBuffer, QosClass};
use yala_diagnosis::{select_victim, select_victim_qos, victim_pressure};
use yala_placement::{Placed, PlacementPredictor};
use yala_sim::{CoRunReport, NicModelId, ResourceKind, WorkloadSpec};
use yala_telemetry::{Event, Telemetry};

/// Per-resident predicted-vs-floor margins a contention-aware placement
/// gathered on the NIC it accepted: `(slot, predicted, floor_with_margin)`.
/// `None` disables collection entirely (the telemetry-off path).
type MarginSink<'a> = Option<&'a mut Vec<(usize, f64, f64)>>;

/// Salt separating the audit seed stream from the timeline stream.
const AUDIT_SALT: u64 = 0xAD17_0CA5;

/// Work-stealing granularity for the audit co-run fan-out: workers
/// claim runs of this many NICs per atomic increment, so a 10k-NIC
/// epoch costs ~hundreds of claims instead of ~10k. Chunking only
/// shapes scheduling — each co-run is a pure function of
/// `(epoch, occupied position)`, and the merge is by index — so the
/// reports are identical for any chunk size or thread count.
const AUDIT_CHUNK: usize = 16;

/// Event classes, in processing order at equal timestamps. Faults fire
/// after departures (a departing NF is gone before its NIC fails) and
/// before arrivals (a NIC that recovered this millisecond can admit
/// them); fault-free traces have no fault events, so their event order
/// is exactly the pre-fault one.
const CLASS_DEPARTURE: u8 = 0;
const CLASS_FAULT: u8 = 1;
const CLASS_ARRIVAL: u8 = 2;
const CLASS_AUDIT: u8 = 3;

/// Hysteresis margin for re-admitting a parked NF: the predictor must
/// clear the SLA floor by this relative slack, so a readmitted NF does
/// not immediately bounce back out on the next prediction wobble.
const READMIT_MARGIN: f64 = 0.05;

/// Cap on the parked-NF retry backoff, in audit epochs (delays double
/// per failed attempt: 1, 2, 4, 8, 8, ...).
const BACKOFF_CAP_EPOCHS: u64 = 8;

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
pub(crate) struct Parked {
    pub(crate) id: u32,
    /// Earliest time a retry may run (audits at or after this qualify).
    pub(crate) next_retry_ms: u64,
    /// Current backoff, in audit epochs; doubles per failed retry.
    pub(crate) backoff_epochs: u64,
}

/// Per-NIC hardware facts expanded from the portfolio: the model and
/// core count of every NIC index, plus the portfolio position used to
/// build ground-truth simulators.
pub(crate) struct NicMap {
    model: Vec<NicModelId>,
    cores: Vec<u32>,
    spec_pos: Vec<usize>,
    /// Model of each portfolio position, so feasibility can be decided
    /// once per position instead of once per NIC.
    pos_models: Vec<NicModelId>,
}

impl NicMap {
    /// Expands the portfolio through the config's own NIC→model mapping
    /// ([`crate::trace::FleetConfig::nic_model_pos`]), so the expansion
    /// order invariant lives in exactly one place.
    fn new(cfg: &crate::trace::FleetConfig) -> Self {
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
}

/// Portfolio positions whose hardware model supports `nf`, ascending.
fn supported_positions(nics_map: &NicMap, nf: &Placed) -> Vec<usize> {
    (0..nics_map.pos_models.len())
        .filter(|&p| nf.supported_on(nics_map.pos_models[p]))
        .collect()
}

/// Builds a [`PlacementIndex`] mirroring an existing fleet state — the
/// event loop's bootstrap (everything `Up` and empty) and the parity
/// tests' entry point for hand-built states.
fn build_index(
    profiled: &ProfiledTrace,
    cursor: &[usize],
    residents: &[Vec<u32>],
    state: &[NicState],
    nics_map: &NicMap,
) -> PlacementIndex {
    let mut index = PlacementIndex::new(
        &nics_map.spec_pos,
        &nics_map.cores,
        nics_map.pos_models.len(),
    );
    for (nic, res) in residents.iter().enumerate() {
        for &id in res {
            index.place(nic, snapshot(profiled, cursor, id).workload.cores);
        }
    }
    for (nic, &s) in state.iter().enumerate() {
        if s != NicState::Up {
            index.retire(nic);
        }
    }
    index
}

/// Runs one policy over a profiled trace and returns its report.
/// `label` names the run in the report (e.g. `"yala"`); `engine`
/// parallelizes the per-NIC ground-truth audits.
pub fn run_fleet<'a>(
    profiled: &'a ProfiledTrace,
    policy: FleetPolicy<'a>,
    label: &str,
    engine: &Engine,
) -> FleetReport {
    run_fleet_observed(profiled, policy, label, engine, &mut Telemetry::disabled())
}

/// [`run_fleet`] with an observability sink: every decision the loop
/// takes — placements with their predicted-vs-floor margins, rejections,
/// ground-truth violations with a diagnosed bottleneck, migrations with
/// the victim's pressure rationale, fault transitions, evacuations,
/// park/readmit, absorb passes, and a per-epoch fleet snapshot — is
/// journaled at logical event time and tallied into the metrics
/// registry. With a disabled handle this *is* `run_fleet`: the
/// instrumentation adds only skipped branches and pure extra reads, so
/// the report is bit-identical with telemetry on, off, or absent.
pub fn run_fleet_observed<'a>(
    profiled: &'a ProfiledTrace,
    policy: FleetPolicy<'a>,
    label: &str,
    engine: &Engine,
    tel: &mut Telemetry,
) -> FleetReport {
    let mut sim = FleetSim::new(profiled, policy, label);
    while sim.step(engine, tel).is_some() {}
    sim.into_report()
}

/// What one [`FleetSim::step`] consumed, carrying the event's index —
/// the NF id for departures/arrivals, the fault-schedule position for
/// faults, the epoch number for audits. Checkpointing callers watch for
/// `Audit(epoch)`: the state between two audits is mid-decision and not
/// a snapshot boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Processed {
    /// A departure freed its NIC slot.
    Departure(u32),
    /// A fault-machine transition ran.
    Fault(u32),
    /// An arrival was placed or rejected.
    Arrival(u32),
    /// A full audit epoch settled: ground truth, refinement, migration,
    /// readmission, and the epoch sample.
    Audit(u32),
}

/// The fleet event loop as a steppable value: [`FleetSim::new`] builds
/// the static event list and the empty fleet, [`FleetSim::step`]
/// consumes one event, [`FleetSim::into_report`] closes the books.
/// [`run_fleet_observed`] is exactly `new` + `step`-to-exhaustion +
/// `into_report`, so driving the loop one event at a time — as the
/// checkpointing daemon does — is bit-identical to the one-shot run.
///
/// Everything a resumed run cannot re-derive lives in named fields; the
/// absorbed-observation log exists so a restore can replay the online
/// refinement history through a freshly trained predictor instead of
/// serializing model internals (`location` and the placement index are
/// derived from `residents`/`state` and rebuilt on restore).
pub struct FleetSim<'a> {
    pub(crate) profiled: &'a ProfiledTrace,
    pub(crate) policy: FleetPolicy<'a>,
    pub(crate) label: String,
    pub(crate) nics_map: NicMap,
    /// The static event list: (time, class, index). Index is the NF id
    /// for departures/arrivals, the position in the fault schedule for
    /// faults, and the epoch number for audits.
    pub(crate) events: Vec<(u64, u8, u32)>,
    /// Position of the next unconsumed event.
    pub(crate) next_event: usize,
    // Mutable fleet state.
    pub(crate) residents: Vec<Vec<u32>>,
    pub(crate) location: Vec<Option<usize>>,
    pub(crate) cursor: Vec<usize>,
    pub(crate) state: Vec<NicState>,
    pub(crate) parked: Vec<Parked>,
    /// The placement-candidate index, kept in lockstep with `residents`
    /// and `state` at every mutation so each decision walks a shortlist
    /// instead of the whole fleet.
    pub(crate) pidx: PlacementIndex,
    /// Audit ground truth pending absorption (online-refining policies).
    pub(crate) pending: ObservationBuffer,
    /// Every batch already absorbed, in absorb order — the replay script
    /// that rebuilds a predictor's refined state on restore.
    pub(crate) absorb_log: Vec<Vec<Observation>>,
    // Per-epoch scratch, hoisted: reused across epochs instead of
    // reallocated. Never part of a snapshot.
    occupied: Vec<usize>,
    order: Vec<usize>,
    admitted: Vec<u32>,
    margin_buf: Vec<(usize, f64, f64)>,
    // Report accumulators.
    pub(crate) period_min: f64,
    pub(crate) samples: Vec<FleetSample>,
    pub(crate) rejected: u32,
    pub(crate) migrations_total: u32,
    pub(crate) violation_minutes: f64,
    pub(crate) nic_minutes: f64,
    pub(crate) oracle_lb_nic_minutes: f64,
    pub(crate) wasted_core_minutes: f64,
    pub(crate) peak_nics: u32,
    pub(crate) faults_total: u32,
    pub(crate) drains_total: u32,
    // Per-class degradation accounting, indexed by `QosClass as usize`.
    pub(crate) violation_min: [f64; 2],
    pub(crate) downtime_min: [f64; 2],
    pub(crate) evacuations: [u32; 2],
    pub(crate) shed: [u32; 2],
    pub(crate) readmitted: [u32; 2],
    // Per-model packing-bound facts, precomputed in `new`.
    model_cores: Vec<u32>,
    masks: Vec<u32>,
    cache_hit_rate: f64,
}

impl<'a> FleetSim<'a> {
    /// Builds the static event list and the empty fleet for one policy
    /// run. `label` names the run in the final report.
    pub fn new(profiled: &'a ProfiledTrace, policy: FleetPolicy<'a>, label: &str) -> Self {
        let cfg = &profiled.trace.config;
        let records = &profiled.trace.records;
        let nic_count = cfg.nics();
        let nics_map = NicMap::new(cfg);
        let horizon_ms = cfg.duration_s * MS_PER_S;
        let period_ms = cfg.audit_period_s * MS_PER_S;

        let mut events: Vec<(u64, u8, u32)> =
            Vec::with_capacity(2 * records.len() + profiled.trace.faults.len() + 64);
        for r in records {
            events.push((r.arrival_ms, CLASS_ARRIVAL, r.id));
            if r.departure_ms <= horizon_ms {
                events.push((r.departure_ms, CLASS_DEPARTURE, r.id));
            }
        }
        for (i, f) in profiled.trace.faults.iter().enumerate() {
            events.push((f.t_ms, CLASS_FAULT, i as u32));
        }
        for epoch in 1..=cfg.epochs() {
            events.push((epoch * period_ms, CLASS_AUDIT, epoch as u32));
        }
        events.sort_unstable();

        let residents: Vec<Vec<u32>> = vec![Vec::new(); nic_count];
        let location: Vec<Option<usize>> = vec![None; records.len()];
        let cursor: Vec<usize> = vec![0; records.len()];
        let state: Vec<NicState> = vec![NicState::Up; nic_count];
        let pidx = build_index(profiled, &cursor, &residents, &state, &nics_map);

        // Per-model packing-bound facts: each NF's capability mask over
        // portfolio positions, and each model's core count.
        let model_cores: Vec<u32> = cfg.portfolio.iter().map(|(s, _)| s.cores).collect();
        let models: Vec<NicModelId> = cfg.portfolio.iter().map(|(s, _)| s.model()).collect();
        let masks: Vec<u32> = profiled
            .timelines
            .iter()
            .map(|tl| {
                let first = &tl.snapshots[0].1;
                models
                    .iter()
                    .enumerate()
                    .filter(|(_, &m)| first.supported_on(m))
                    .fold(0u32, |acc, (p, _)| acc | (1 << p))
            })
            .collect();
        let cache_hit_rate = if profiled.stats.lookups > 0 {
            profiled.stats.hits as f64 / profiled.stats.lookups as f64
        } else {
            0.0
        };

        Self {
            profiled,
            policy,
            label: label.to_string(),
            nics_map,
            events,
            next_event: 0,
            residents,
            location,
            cursor,
            state,
            parked: Vec::new(),
            pidx,
            pending: ObservationBuffer::new(),
            absorb_log: Vec::new(),
            occupied: Vec::new(),
            order: Vec::new(),
            admitted: Vec::new(),
            margin_buf: Vec::new(),
            period_min: cfg.audit_period_s as f64 / 60.0,
            samples: Vec::with_capacity(cfg.epochs() as usize),
            rejected: 0,
            migrations_total: 0,
            violation_minutes: 0.0,
            nic_minutes: 0.0,
            oracle_lb_nic_minutes: 0.0,
            wasted_core_minutes: 0.0,
            peak_nics: 0,
            faults_total: 0,
            drains_total: 0,
            violation_min: [0.0; 2],
            downtime_min: [0.0; 2],
            evacuations: [0; 2],
            shed: [0; 2],
            readmitted: [0; 2],
            model_cores,
            masks,
            cache_hit_rate,
        }
    }

    /// The run's report label.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Events consumed so far (the snapshot's resume point).
    pub fn events_consumed(&self) -> usize {
        self.next_event
    }

    /// Rebuilds the derived structures — `location` and the placement
    /// index — from `residents`, `cursor`, and `state` after a restore
    /// overwrote the authoritative state.
    pub(crate) fn rebuild_derived(&mut self) {
        self.location = vec![None; self.profiled.trace.records.len()];
        for (nic, res) in self.residents.iter().enumerate() {
            for &id in res {
                self.location[id as usize] = Some(nic);
            }
        }
        self.pidx = build_index(
            self.profiled,
            &self.cursor,
            &self.residents,
            &self.state,
            &self.nics_map,
        );
    }

    /// Replays the absorbed-observation log through the policy's
    /// predictor — the restore path's substitute for serializing refined
    /// model internals. A freshly trained predictor fed the same batches
    /// in the same order reaches bit-identical refined cells.
    pub(crate) fn replay_absorbs(&mut self, engine: &Engine) {
        if let FleetPolicy::ContentionAware { predictor, .. } = &mut self.policy {
            for batch in &self.absorb_log {
                let mut buf = ObservationBuffer::new();
                for o in batch {
                    buf.push(o.clone());
                }
                predictor.absorb(&buf, engine);
            }
        }
    }

    /// Consumes one event; `None` once the run is complete. The engine
    /// parallelizes audit ground-truth co-runs exactly as in
    /// [`run_fleet_observed`]; any stepping pattern produces the same
    /// decisions, report, and journal as the one-shot loop.
    pub fn step(&mut self, engine: &Engine, tel: &mut Telemetry) -> Option<Processed> {
        let &(t_ms, class, index) = self.events.get(self.next_event)?;
        self.next_event += 1;
        let profiled = self.profiled;
        let cfg = &profiled.trace.config;
        let records = &profiled.trace.records;
        let period_ms = cfg.audit_period_s * MS_PER_S;
        let observing = tel.is_enabled();
        tel.wall_tick();
        let processed = match class {
            CLASS_DEPARTURE => {
                let id = index as usize;
                let at = self.location[id].map(|n| n as i64).unwrap_or(-1);
                if let Some(nic) = self.location[id].take() {
                    self.residents[nic].retain(|&r| r != index);
                    self.pidx
                        .remove(nic, snapshot(profiled, &self.cursor, index).workload.cores);
                }
                self.parked.retain(|p| p.id != index);
                tel.rec(t_ms, || Event::Depart { id: index, nic: at });
                Some(Processed::Departure(index))
            }
            CLASS_FAULT => {
                let ev = profiled.trace.faults[index as usize];
                tel.rec(t_ms, || Event::Fault {
                    nic: ev.nic as u32,
                    kind: ev.kind.name(),
                });
                match ev.kind {
                    FaultKind::Fail => {
                        self.faults_total += 1;
                        tel.inc("fleet.faults", 1);
                        self.state[ev.nic] = NicState::Down;
                        self.pidx.retire(ev.nic);
                        let evicted = std::mem::take(&mut self.residents[ev.nic]);
                        for &id in &evicted {
                            self.location[id as usize] = None;
                        }
                        self.pidx.clear_retired(ev.nic);
                        evacuate(
                            profiled,
                            &mut self.residents,
                            &mut self.location,
                            &self.cursor,
                            &self.nics_map,
                            &self.state,
                            &mut self.pidx,
                            &mut self.policy,
                            evicted,
                            ev.nic,
                            true,
                            t_ms,
                            &mut self.parked,
                            &mut self.evacuations,
                            &mut self.shed,
                            tel,
                        );
                    }
                    FaultKind::DrainStart => {
                        self.drains_total += 1;
                        tel.inc("fleet.drains", 1);
                        self.state[ev.nic] = NicState::Draining;
                        self.pidx.retire(ev.nic);
                        let ids = self.residents[ev.nic].clone();
                        evacuate(
                            profiled,
                            &mut self.residents,
                            &mut self.location,
                            &self.cursor,
                            &self.nics_map,
                            &self.state,
                            &mut self.pidx,
                            &mut self.policy,
                            ids,
                            ev.nic,
                            false,
                            t_ms,
                            &mut self.parked,
                            &mut self.evacuations,
                            &mut self.shed,
                            tel,
                        );
                    }
                    FaultKind::DrainEnd => {
                        self.state[ev.nic] = NicState::Down;
                        self.pidx.retire(ev.nic);
                        let evicted = std::mem::take(&mut self.residents[ev.nic]);
                        for &id in &evicted {
                            self.location[id as usize] = None;
                        }
                        self.pidx.clear_retired(ev.nic);
                        evacuate(
                            profiled,
                            &mut self.residents,
                            &mut self.location,
                            &self.cursor,
                            &self.nics_map,
                            &self.state,
                            &mut self.pidx,
                            &mut self.policy,
                            evicted,
                            ev.nic,
                            true,
                            t_ms,
                            &mut self.parked,
                            &mut self.evacuations,
                            &mut self.shed,
                            tel,
                        );
                    }
                    FaultKind::Recover => {
                        self.state[ev.nic] = NicState::Up;
                        self.pidx.restore(ev.nic);
                    }
                }
                Some(Processed::Fault(index))
            }
            CLASS_ARRIVAL => {
                let id = index as usize;
                let nf = profiled.timelines[id].snapshots[0].1.clone();
                tel.inc("fleet.arrivals", 1);
                tel.rec(t_ms, || Event::Arrival {
                    id: index,
                    kind: nf.arrival.kind.name(),
                    qos: nf.qos().name(),
                    sla_drop: nf.arrival.sla_drop,
                });
                let w0 = tel.wall_start();
                self.margin_buf.clear();
                let mut reason = "arrival";
                let slot = choose_slot(
                    profiled,
                    &self.residents,
                    &self.cursor,
                    &self.nics_map,
                    &self.state,
                    &self.pidx,
                    &mut self.policy,
                    &nf,
                    None,
                    0.0,
                    observing.then_some(&mut self.margin_buf),
                )
                .or_else(|| {
                    // A guaranteed arrival that found no safe slot may,
                    // under a QoS-aware policy, park best-effort
                    // residents to make room. All-guaranteed fleets (the
                    // default) never take this path.
                    if let FleetPolicy::ContentionAware {
                        predictor,
                        qos_aware: true,
                        ..
                    } = &mut self.policy
                    {
                        if nf.qos().is_guaranteed() {
                            let r = try_preempt_best_effort(
                                profiled,
                                &mut self.residents,
                                &mut self.location,
                                &self.cursor,
                                &self.nics_map,
                                &self.state,
                                &mut self.pidx,
                                *predictor,
                                &nf,
                                None,
                                0.0,
                                t_ms,
                                &mut self.parked,
                                &mut self.shed,
                                tel,
                            );
                            if r.is_some() {
                                reason = "preempt";
                            }
                            return r;
                        }
                    }
                    None
                });
                tel.wall_decision(w0);
                match slot {
                    Some(nic) => {
                        debug_assert!(nf.supported_on(self.nics_map.model[nic]));
                        tel.rec(t_ms, || Event::Place {
                            id: index,
                            nic: nic as u32,
                            reason,
                        });
                        // The margins refer to the accepted NIC's
                        // candidate vector: its residents *before* this
                        // push, then the arriving NF.
                        for &(slot_idx, predicted, floor) in &self.margin_buf {
                            let mid = self.residents[nic].get(slot_idx).copied().unwrap_or(index);
                            tel.rec(t_ms, || Event::Margin {
                                id: mid,
                                nic: nic as u32,
                                predicted,
                                floor,
                            });
                        }
                        self.residents[nic].push(index);
                        self.location[id] = Some(nic);
                        self.cursor[id] = 0;
                        self.pidx.place(nic, nf.workload.cores);
                    }
                    None => {
                        self.rejected += 1;
                        tel.inc("fleet.rejected", 1);
                        tel.rec(t_ms, || Event::Reject {
                            id: index,
                            kind: nf.arrival.kind.name(),
                            qos: nf.qos().name(),
                        });
                    }
                }
                Some(Processed::Arrival(index))
            }
            CLASS_AUDIT => {
                let epoch = index as u64;
                let w0 = tel.wall_start();
                // 1. Drift: bring every placed NF to its snapshot in
                // force at this epoch (re-profiles are epoch-aligned).
                for (id, loc) in self.location.iter().enumerate() {
                    if loc.is_some() {
                        self.cursor[id] = profiled.timelines[id].index_at(t_ms);
                    }
                }
                // 2. Ground truth: co-run every occupied NIC on a private
                // deterministically seeded simulator — built from the
                // hardware of *that* NIC — across the engine. The
                // occupied list doubles as the index's drift re-pricing
                // pass: the cursor moves above may have changed resident
                // core footprints.
                self.occupied.clear();
                for (n, res) in self.residents.iter().enumerate() {
                    if !res.is_empty() {
                        self.occupied.push(n);
                        self.pidx
                            .set_used(n, cores_used(profiled, &self.cursor, res));
                    }
                }
                let audit_base = scenario_seed(cfg.seed ^ AUDIT_SALT, epoch as usize);
                let occupied = &self.occupied;
                let residents = &self.residents;
                let cursor = &self.cursor;
                let nics_map = &self.nics_map;
                let reports: Vec<CoRunReport> =
                    engine.run_chunked(occupied.len(), AUDIT_CHUNK, |j| {
                        let nic = occupied[j];
                        let spec = &cfg.portfolio[nics_map.spec_pos[nic]].0;
                        let mut sim =
                            simulator_for(spec, cfg.noise_sigma, scenario_seed(audit_base, j));
                        let workloads: Vec<WorkloadSpec> = residents[nic]
                            .iter()
                            .map(|&id| snapshot(profiled, cursor, id).workload.clone())
                            .collect();
                        sim.co_run(&workloads)
                    });
                let mut violating = 0u32;
                for (&nic, report) in self.occupied.iter().zip(&reports) {
                    let model = self.nics_map.model[nic];
                    if observing {
                        tel.observe_log2(
                            "fleet.co_residents",
                            1.0,
                            6,
                            self.residents[nic].len() as f64,
                        );
                    }
                    for (pos, (&id, outcome)) in
                        self.residents[nic].iter().zip(&report.outcomes).enumerate()
                    {
                        let floor = snapshot(profiled, &self.cursor, id).sla_floor(model);
                        if outcome.throughput_pps < floor {
                            violating += 1;
                            let qos = records[id as usize].qos;
                            self.violation_min[qos as usize] += self.period_min;
                            tel.inc(&format!("fleet.violations.{}", qos.name()), 1);
                            if observing {
                                // Diagnose the measured violation for the
                                // journal. The diagnoser is pure (&self),
                                // so the extra call cannot perturb the
                                // run; solo NFs and diagnoser-free
                                // policies record "none".
                                let bottleneck = match (&self.policy, self.residents[nic].len()) {
                                    (FleetPolicy::ContentionAware { diagnoser, .. }, n)
                                        if n >= 2 =>
                                    {
                                        let placed =
                                            snapshots(profiled, &self.cursor, &self.residents[nic]);
                                        let co = diagnoser.contenders(model, &placed, pos);
                                        diagnoser.bottleneck(model, &placed, pos, &co).to_string()
                                    }
                                    _ => "none".to_string(),
                                };
                                tel.rec(t_ms, || Event::Violation {
                                    id,
                                    nic: nic as u32,
                                    qos: qos.name(),
                                    measured: outcome.throughput_pps,
                                    floor,
                                    bottleneck,
                                });
                            }
                        }
                    }
                }
                tel.rec(t_ms, || Event::Audit {
                    epoch: index,
                    occupied: self.occupied.len() as u32,
                    violating,
                });
                // 3. Learn: online-refining policies feed the audit's
                // ground truth straight back into the predictor — the
                // (context, outcome) pairs were measured anyway, so the
                // refit is free telemetry. Runs *before* migration so the
                // refreshed models inform this epoch's decisions. The
                // harvest order (NIC index, resident index) and the
                // batch-size rate limit are deterministic, so an
                // online run is still bit-identical across thread counts.
                if let FleetPolicy::ContentionAware {
                    predictor,
                    diagnoser,
                    online: Some(online),
                    ..
                } = &mut self.policy
                {
                    harvest_observations(
                        profiled,
                        &self.residents,
                        &self.cursor,
                        &self.nics_map,
                        &self.occupied,
                        &reports,
                        diagnoser,
                        &mut self.pending,
                    );
                    if self.pending.len() >= online.min_observations.max(1) {
                        let observations = self.pending.len() as u32;
                        // Log the batch before draining it: a restored
                        // run replays these batches through a freshly
                        // trained predictor to rebuild the refined state.
                        self.absorb_log.push(self.pending.iter().cloned().collect());
                        let refined = predictor.absorb(&self.pending, engine) as u64;
                        tel.inc("fleet.absorb.passes", 1);
                        tel.inc("fleet.absorb.observations", observations as u64);
                        tel.inc("fleet.absorb.refined_cells", refined);
                        tel.rec(t_ms, || Event::Absorb {
                            epoch: index,
                            observations,
                        });
                        self.pending.clear();
                    }
                }
                // 4. React: predicted-violation migration (contention-
                // aware policies only).
                let mut epoch_migrations = 0u32;
                if let FleetPolicy::ContentionAware {
                    predictor,
                    diagnoser,
                    qos_aware,
                    ..
                } = &mut self.policy
                {
                    let aware = *qos_aware;
                    epoch_migrations = migrate(
                        profiled,
                        &mut self.residents,
                        &mut self.location,
                        &self.cursor,
                        &self.nics_map,
                        &self.state,
                        &mut self.pidx,
                        *predictor,
                        diagnoser,
                        aware,
                        cfg.max_migrations_per_audit,
                        t_ms,
                        tel,
                    );
                    self.migrations_total += epoch_migrations;
                }
                // 4b. Readmission: parked NFs whose backoff expired
                // retry admission — guaranteed first under a QoS-aware
                // policy — against a hysteresis margin
                // (`READMIT_MARGIN`), so a readmitted NF must clear its
                // floor with slack rather than re-enter marginally and
                // bounce on the next audit. Failed retries double their
                // backoff (capped at `BACKOFF_CAP_EPOCHS`).
                if !self.parked.is_empty() {
                    let aware = matches!(
                        &self.policy,
                        FleetPolicy::ContentionAware {
                            qos_aware: true,
                            ..
                        }
                    );
                    self.order.clear();
                    self.order.extend(0..self.parked.len());
                    let parked_now = &self.parked;
                    self.order.sort_by_key(|&k| {
                        let q = records[parked_now[k].id as usize].qos as u8;
                        (if aware { q } else { 0 }, parked_now[k].id)
                    });
                    self.admitted.clear();
                    for &k in &self.order {
                        if self.parked[k].next_retry_ms > t_ms {
                            continue;
                        }
                        let id = self.parked[k].id;
                        self.cursor[id as usize] = profiled.timelines[id as usize].index_at(t_ms);
                        let nf = snapshot(profiled, &self.cursor, id).clone();
                        let slot = choose_slot(
                            profiled,
                            &self.residents,
                            &self.cursor,
                            &self.nics_map,
                            &self.state,
                            &self.pidx,
                            &mut self.policy,
                            &nf,
                            None,
                            READMIT_MARGIN,
                            None,
                        )
                        .or_else(|| {
                            // A parked guaranteed NF re-enters by
                            // preempting best-effort residents, exactly
                            // as during evacuation — otherwise one bad
                            // epoch parks it behind a full fleet for
                            // the whole backoff ladder.
                            if let FleetPolicy::ContentionAware {
                                predictor,
                                qos_aware: true,
                                ..
                            } = &mut self.policy
                            {
                                if nf.qos().is_guaranteed() {
                                    return try_preempt_best_effort(
                                        profiled,
                                        &mut self.residents,
                                        &mut self.location,
                                        &self.cursor,
                                        &self.nics_map,
                                        &self.state,
                                        &mut self.pidx,
                                        *predictor,
                                        &nf,
                                        None,
                                        READMIT_MARGIN,
                                        t_ms,
                                        &mut self.parked,
                                        &mut self.shed,
                                        tel,
                                    );
                                }
                            }
                            None
                        });
                        match slot {
                            Some(nic) => {
                                self.residents[nic].push(id);
                                self.location[id as usize] = Some(nic);
                                self.pidx.place(nic, nf.workload.cores);
                                self.readmitted[nf.qos() as usize] += 1;
                                tel.inc(&format!("fleet.readmitted.{}", nf.qos().name()), 1);
                                tel.rec(t_ms, || Event::Readmit {
                                    id,
                                    nic: nic as u32,
                                    qos: nf.qos().name(),
                                });
                                self.admitted.push(id);
                            }
                            None => {
                                let p = &mut self.parked[k];
                                p.next_retry_ms = t_ms + p.backoff_epochs * period_ms;
                                p.backoff_epochs = (p.backoff_epochs * 2).min(BACKOFF_CAP_EPOCHS);
                            }
                        }
                    }
                    let admitted = &self.admitted;
                    self.parked.retain(|p| !admitted.contains(&p.id));
                }
                // 5. Observe.
                let active: u32 = self.residents.iter().map(|r| r.len() as u32).sum();
                let nics_in_use = self.residents.iter().filter(|r| !r.is_empty()).count() as u32;
                let mut wasted_cores = 0u32;
                let mut cores_by_mask = vec![0u32; 1 << self.model_cores.len()];
                for (nic, res) in self.residents.iter().enumerate() {
                    if res.is_empty() {
                        continue;
                    }
                    let mut used = 0u32;
                    for &id in res {
                        let c = snapshot(profiled, &self.cursor, id).workload.cores;
                        used += c;
                        cores_by_mask[self.masks[id as usize] as usize] += c;
                    }
                    wasted_cores += self.nics_map.cores[nic] - used;
                }
                let oracle_lb_nics = oracle_packing_bound(&cores_by_mask, &self.model_cores);
                // Parked NFs are alive but unserved: every parked epoch
                // is a downtime period for its class.
                for p in &self.parked {
                    self.downtime_min[records[p.id as usize].qos as usize] += self.period_min;
                }
                self.peak_nics = self.peak_nics.max(nics_in_use);
                self.violation_minutes += violating as f64 * self.period_min;
                self.nic_minutes += nics_in_use as f64 * self.period_min;
                self.oracle_lb_nic_minutes += oracle_lb_nics as f64 * self.period_min;
                self.wasted_core_minutes += wasted_cores as f64 * self.period_min;
                let down_nics = self.state.iter().filter(|&&s| s == NicState::Down).count() as u32;
                tel.gauge("fleet.active_nfs", active as f64);
                tel.gauge("fleet.nics_in_use", nics_in_use as f64);
                tel.gauge("fleet.parked", self.parked.len() as f64);
                tel.gauge("fleet.down_nics", down_nics as f64);
                tel.gauge("fleet.obs_queue", self.pending.len() as f64);
                tel.gauge("fleet.cache_hit_rate", self.cache_hit_rate);
                tel.rec(t_ms, || Event::Epoch {
                    t_s: t_ms / MS_PER_S,
                    active,
                    nics_in_use,
                    violating,
                    migrations: epoch_migrations,
                    wasted_cores,
                    oracle_lb: oracle_lb_nics,
                    parked: self.parked.len() as u32,
                    down: down_nics,
                    obs_queue: self.pending.len() as u32,
                    cache_hit_rate: self.cache_hit_rate,
                });
                tel.wall_phase("audit", w0);
                self.samples.push(FleetSample {
                    t_s: t_ms / MS_PER_S,
                    active_nfs: active,
                    nics_in_use,
                    violating_nfs: violating,
                    migrations: epoch_migrations,
                    wasted_cores,
                    oracle_lb_nics,
                    parked: self.parked.len() as u32,
                    down_nics,
                });
                Some(Processed::Audit(index))
            }
            _ => unreachable!("unknown event class"),
        };
        if observing && self.next_event == self.events.len() {
            self.mirror_memo_stats(tel);
        }
        processed
    }

    /// Mirrors the predictor's memo accounting onto the `predict.*`
    /// counters once the last event is consumed. Registry only: a
    /// restored run starts with a cold memo, so the numbers may differ
    /// across a kill/restore where the journal may not.
    fn mirror_memo_stats(&self, tel: &mut Telemetry) {
        if let FleetPolicy::ContentionAware { predictor, .. } = &self.policy {
            if let Some(stats) = predictor.memo_stats() {
                tel.inc("predict.calls", stats.lookups);
                tel.inc("predict.memo_hits", stats.hits);
                tel.inc("predict.memo_clears", stats.clears);
            }
        }
    }

    /// Closes the books: the final [`FleetReport`] of the (possibly
    /// resumed) run. Call after [`FleetSim::step`] returns `None`.
    pub fn into_report(self) -> FleetReport {
        let profiled = self.profiled;
        let cfg = &profiled.trace.config;
        let class_stats = |c: QosClass| ClassStats {
            violation_minutes: self.violation_min[c as usize],
            downtime_minutes: self.downtime_min[c as usize],
            evacuations: self.evacuations[c as usize],
            shed: self.shed[c as usize],
            readmitted: self.readmitted[c as usize],
        };
        let guaranteed = class_stats(QosClass::Guaranteed);
        let best_effort = class_stats(QosClass::BestEffort);
        FleetReport {
            policy: self.label,
            seed: cfg.seed,
            nics: cfg.nics(),
            duration_s: cfg.duration_s,
            audit_period_s: cfg.audit_period_s,
            total_arrivals: profiled.trace.records.len() as u32,
            rejected: self.rejected,
            migrations: self.migrations_total,
            profile_snapshots: profiled.snapshot_count() as u32,
            violation_minutes: self.violation_minutes,
            nic_minutes: self.nic_minutes,
            oracle_lb_nic_minutes: self.oracle_lb_nic_minutes,
            wasted_core_minutes: self.wasted_core_minutes,
            peak_nics: self.peak_nics,
            faults: self.faults_total,
            drains: self.drains_total,
            guaranteed,
            best_effort,
            samples: self.samples,
        }
    }
}

/// Bin-packing lower bound on NICs for the active set, aware of
/// per-model capabilities: for every non-empty subset `S` of portfolio
/// models, the NFs feasible *only* within `S` need at least
/// `ceil(their cores / largest core count in S)` NICs — no packer can
/// route them elsewhere or onto a bigger NIC than `S` offers. The bound
/// is the max over subsets. On a homogeneous portfolio the single
/// subset reduces to the classic `ceil(total cores / NIC cores)`; on a
/// mixed portfolio the full-set subset reproduces the old
/// divide-by-largest bound, so the result is never looser.
fn oracle_packing_bound(cores_by_mask: &[u32], model_cores: &[u32]) -> u32 {
    let m = model_cores.len();
    let mut best = 0u32;
    for s in 1u32..(1u32 << m) {
        let cores: u32 = cores_by_mask
            .iter()
            .enumerate()
            .filter(|&(mask, _)| mask as u32 & !s == 0)
            .map(|(_, &c)| c)
            .sum();
        if cores == 0 {
            continue;
        }
        let cap = (0..m)
            .filter(|&p| s & (1 << p) != 0)
            .map(|p| model_cores[p])
            .max()
            .unwrap_or(1);
        best = best.max(cores.div_ceil(cap));
    }
    best
}

/// The policy's placement rule as one function: the NIC the policy
/// would place `nf` on right now, or `None` if nothing feasible is
/// admitted. `margin` is the relative SLA slack a contention-aware
/// prediction must clear (0.0 for normal placements, `READMIT_MARGIN`
/// for parked readmissions). Only `Up` NICs are considered.
#[allow(clippy::too_many_arguments)]
fn choose_slot(
    profiled: &ProfiledTrace,
    residents: &[Vec<u32>],
    cursor: &[usize],
    nics_map: &NicMap,
    state: &[NicState],
    pidx: &PlacementIndex,
    policy: &mut FleetPolicy<'_>,
    nf: &Placed,
    exclude: Option<usize>,
    margin: f64,
    mut margins: MarginSink<'_>,
) -> Option<usize> {
    match policy {
        FleetPolicy::Monopolization => choose_empty(residents, nics_map, state, pidx, nf, exclude),
        FleetPolicy::Greedy => choose_greedy(
            profiled, residents, cursor, nics_map, state, pidx, nf, exclude,
        )
        .or_else(|| choose_empty(residents, nics_map, state, pidx, nf, exclude)),
        FleetPolicy::ContentionAware { predictor, .. } => {
            let found = choose_contention_aware(
                profiled,
                residents,
                cursor,
                nics_map,
                state,
                pidx,
                *predictor,
                nf,
                exclude,
                margin,
                margins.as_deref_mut(),
            );
            if found.is_some() {
                return found;
            }
            // Falling back to an empty NIC: the last candidate's partial
            // margins describe a NIC that was *not* chosen.
            if let Some(m) = margins {
                m.clear();
            }
            choose_empty(residents, nics_map, state, pidx, nf, exclude)
        }
    }
}

/// Re-places NFs displaced by a fault on NIC `src`. `forced` means the
/// ids were already evicted (hard failure or drain deadline): an NF
/// that finds no slot — and, for a QoS-aware policy, no best-effort
/// residents a guaranteed NF could preempt — is parked. Graceful mode
/// (`!forced`, drain notice) moves what it can and leaves the rest
/// resident until the deadline. A QoS-aware policy evacuates guaranteed
/// NFs first, spending the scarce re-placement slots on the protected
/// class.
#[allow(clippy::too_many_arguments)]
fn evacuate(
    profiled: &ProfiledTrace,
    residents: &mut [Vec<u32>],
    location: &mut [Option<usize>],
    cursor: &[usize],
    nics_map: &NicMap,
    state: &[NicState],
    pidx: &mut PlacementIndex,
    policy: &mut FleetPolicy<'_>,
    ids: Vec<u32>,
    src: usize,
    forced: bool,
    t_ms: u64,
    parked: &mut Vec<Parked>,
    evacuations: &mut [u32; 2],
    shed: &mut [u32; 2],
    tel: &mut Telemetry,
) {
    let qos_aware = matches!(
        policy,
        FleetPolicy::ContentionAware {
            qos_aware: true,
            ..
        }
    );
    let mut order = ids;
    if qos_aware {
        // Stable sort: guaranteed first, original resident order within
        // each class.
        order.sort_by_key(|&id| snapshot(profiled, cursor, id).qos());
    }
    for id in order {
        let nf = snapshot(profiled, cursor, id).clone();
        let c = nf.qos() as usize;
        let slot = choose_slot(
            profiled,
            residents,
            cursor,
            nics_map,
            state,
            pidx,
            policy,
            &nf,
            Some(src),
            0.0,
            None,
        )
        .or_else(|| {
            if let FleetPolicy::ContentionAware {
                predictor,
                qos_aware: true,
                ..
            } = policy
            {
                if nf.qos().is_guaranteed() {
                    return try_preempt_best_effort(
                        profiled,
                        residents,
                        location,
                        cursor,
                        nics_map,
                        state,
                        pidx,
                        *predictor,
                        &nf,
                        Some(src),
                        0.0,
                        t_ms,
                        parked,
                        shed,
                        tel,
                    );
                }
            }
            None
        });
        match slot {
            Some(dst) => {
                if !forced {
                    residents[src].retain(|&r| r != id);
                    pidx.remove(src, nf.workload.cores);
                }
                residents[dst].push(id);
                location[id as usize] = Some(dst);
                pidx.place(dst, nf.workload.cores);
                evacuations[c] += 1;
                tel.inc(&format!("fleet.evacuations.{}", nf.qos().name()), 1);
                tel.rec(t_ms, || Event::Evacuate {
                    id,
                    from: src as u32,
                    to: dst as u32,
                    qos: nf.qos().name(),
                    forced,
                });
            }
            None if forced => {
                location[id as usize] = None;
                parked.push(Parked {
                    id,
                    next_retry_ms: t_ms,
                    backoff_epochs: 1,
                });
                shed[c] += 1;
                tel.inc(&format!("fleet.shed.{}", nf.qos().name()), 1);
                tel.rec(t_ms, || Event::Park {
                    id,
                    qos: nf.qos().name(),
                    reason: "no_slot",
                });
            }
            // Graceful: the NF stays resident until the drain deadline;
            // later audits (or the deadline itself) will retry.
            None => {}
        }
    }
}

/// Makes room for a guaranteed NF by parking best-effort residents:
/// scans `Up` NICs supporting `nf`, and on each tries parking
/// best-effort residents (latest-placed first) until the remaining set
/// plus `nf` fits and is predicted SLA-safe. Commits on the first NIC
/// that works and returns it; guaranteed residents are never touched.
#[allow(clippy::too_many_arguments)]
fn try_preempt_best_effort(
    profiled: &ProfiledTrace,
    residents: &mut [Vec<u32>],
    location: &mut [Option<usize>],
    cursor: &[usize],
    nics_map: &NicMap,
    state: &[NicState],
    pidx: &mut PlacementIndex,
    predictor: &mut dyn PlacementPredictor,
    nf: &Placed,
    exclude: Option<usize>,
    margin: f64,
    t_ms: u64,
    parked: &mut Vec<Parked>,
    shed: &mut [u32; 2],
    tel: &mut Telemetry,
) -> Option<usize> {
    for i in 0..residents.len() {
        if Some(i) == exclude || state[i] != NicState::Up || !nf.supported_on(nics_map.model[i]) {
            continue;
        }
        let nic: Vec<u32> = residents[i].clone();
        let be: Vec<u32> = nic
            .iter()
            .copied()
            .filter(|&id| !snapshot(profiled, cursor, id).qos().is_guaranteed())
            .collect();
        if be.is_empty() {
            continue;
        }
        // Even parking every best-effort resident must free the cores.
        let be_cores: u32 = be
            .iter()
            .map(|&id| snapshot(profiled, cursor, id).workload.cores)
            .sum();
        if cores_used(profiled, cursor, &nic) - be_cores + nf.workload.cores > nics_map.cores[i] {
            continue;
        }
        let model = nics_map.model[i];
        let mut parked_here: Vec<u32> = Vec::new();
        let mut found = false;
        for &id in be.iter().rev() {
            parked_here.push(id);
            let candidate: Vec<&Placed> = nic
                .iter()
                .filter(|r| !parked_here.contains(r))
                .map(|&r| snapshot(profiled, cursor, r))
                .chain([nf])
                .collect();
            let cores: u32 = candidate.iter().map(|p| p.workload.cores).sum();
            if cores > nics_map.cores[i] {
                continue;
            }
            if (0..candidate.len()).all(|t| {
                predictor.predict_refs(model, t, &candidate)
                    >= candidate[t].sla_floor(model) * (1.0 + margin)
            }) {
                found = true;
                break;
            }
        }
        if !found {
            continue;
        }
        for id in parked_here {
            residents[i].retain(|&r| r != id);
            pidx.remove(i, snapshot(profiled, cursor, id).workload.cores);
            location[id as usize] = None;
            parked.push(Parked {
                id,
                next_retry_ms: t_ms,
                backoff_epochs: 1,
            });
            shed[QosClass::BestEffort as usize] += 1;
            tel.inc("fleet.shed.best_effort", 1);
            tel.rec(t_ms, || Event::Park {
                id,
                qos: QosClass::BestEffort.name(),
                reason: "preempted",
            });
        }
        return Some(i);
    }
    None
}

/// The profile snapshot currently in force for NF `id`.
fn snapshot<'a>(profiled: &'a ProfiledTrace, cursor: &[usize], id: u32) -> &'a Placed {
    &profiled.timelines[id as usize].snapshots[cursor[id as usize]].1
}

/// The profile snapshots currently in force for a NIC's residents, in
/// residency order.
fn snapshots<'a>(profiled: &'a ProfiledTrace, cursor: &[usize], nic: &[u32]) -> Vec<&'a Placed> {
    nic.iter()
        .map(|&id| snapshot(profiled, cursor, id))
        .collect()
}

/// Harvests one audit epoch's ground truth into `out`: for every resident
/// of every multi-tenant NIC, the prediction context (NIC model, NF kind,
/// live traffic, the co-residents' aggregate counters and accelerator
/// pressure as the diagnoser's worldview describes them, the per-model
/// solo baseline) paired with the measured co-run outcome. Solo NICs are
/// skipped — an uncontended outcome carries no contention signal the solo
/// baseline doesn't already. Iteration order is (NIC index, resident
/// index): deterministic, so the refinement stream is a pure function of
/// the scenario.
#[allow(clippy::too_many_arguments)]
fn harvest_observations(
    profiled: &ProfiledTrace,
    residents: &[Vec<u32>],
    cursor: &[usize],
    nics_map: &NicMap,
    occupied: &[usize],
    reports: &[CoRunReport],
    diagnoser: &Diagnoser<'_>,
    out: &mut ObservationBuffer,
) {
    for (&nic, report) in occupied.iter().zip(reports) {
        if residents[nic].len() < 2 {
            continue;
        }
        let model = nics_map.model[nic];
        let placed = snapshots(profiled, cursor, &residents[nic]);
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

/// Cores used on a NIC under the current snapshots.
fn cores_used(profiled: &ProfiledTrace, cursor: &[usize], nic: &[u32]) -> u32 {
    nic.iter()
        .map(|&id| snapshot(profiled, cursor, id).workload.cores)
        .sum()
}

/// First empty `Up` NIC (lowest index) whose model supports `nf`,
/// skipping `exclude` — answered from the index; debug builds check the
/// answer against [`choose_empty_linear`] on every call.
fn choose_empty(
    residents: &[Vec<u32>],
    nics_map: &NicMap,
    state: &[NicState],
    pidx: &PlacementIndex,
    nf: &Placed,
    exclude: Option<usize>,
) -> Option<usize> {
    let sup = supported_positions(nics_map, nf);
    let found = pidx.first_empty(&sup, exclude);
    if cfg!(debug_assertions) {
        assert_eq!(
            found,
            choose_empty_linear(residents, nics_map, state, nf, exclude),
            "indexed empty-NIC choice diverged from the linear scan"
        );
    }
    found
}

/// The pre-index reference scan for [`choose_empty`]: O(NICs), kept as
/// the semantics oracle for the debug cross-checks and parity tests.
fn choose_empty_linear(
    residents: &[Vec<u32>],
    nics_map: &NicMap,
    state: &[NicState],
    nf: &Placed,
    exclude: Option<usize>,
) -> Option<usize> {
    residents
        .iter()
        .enumerate()
        .filter(|(i, _)| {
            Some(*i) != exclude && state[*i] == NicState::Up && nf.supported_on(nics_map.model[*i])
        })
        .find(|(_, r)| r.is_empty())
        .map(|(i, _)| i)
}

/// Greedy: the occupied `Up` NIC with the most available cores among
/// those where `nf` fits and is feasible (ties break to the lowest
/// index) — answered from the index's free-core buckets; debug builds
/// check against [`choose_greedy_linear`] on every call.
#[allow(clippy::too_many_arguments)]
fn choose_greedy(
    profiled: &ProfiledTrace,
    residents: &[Vec<u32>],
    cursor: &[usize],
    nics_map: &NicMap,
    state: &[NicState],
    pidx: &PlacementIndex,
    nf: &Placed,
    exclude: Option<usize>,
) -> Option<usize> {
    let sup = supported_positions(nics_map, nf);
    let found = pidx.most_free(&sup, nf.workload.cores, exclude);
    if cfg!(debug_assertions) {
        assert_eq!(
            found,
            choose_greedy_linear(profiled, residents, cursor, nics_map, state, nf, exclude),
            "indexed greedy choice diverged from the linear scan"
        );
    }
    found
}

/// The pre-index reference scan for [`choose_greedy`].
#[allow(clippy::too_many_arguments)]
fn choose_greedy_linear(
    profiled: &ProfiledTrace,
    residents: &[Vec<u32>],
    cursor: &[usize],
    nics_map: &NicMap,
    state: &[NicState],
    nf: &Placed,
    exclude: Option<usize>,
) -> Option<usize> {
    let mut best: Option<(usize, u32)> = None;
    for (i, nic) in residents.iter().enumerate() {
        if Some(i) == exclude
            || state[i] != NicState::Up
            || nic.is_empty()
            || !nf.supported_on(nics_map.model[i])
        {
            continue;
        }
        let used = cores_used(profiled, cursor, nic);
        if used + nf.workload.cores > nics_map.cores[i] {
            continue;
        }
        let avail = nics_map.cores[i] - used;
        if best.is_none_or(|(_, b)| avail > b) {
            best = Some((i, avail));
        }
    }
    best.map(|(i, _)| i)
}

/// The structurally eligible candidates of the linear contention-aware
/// scan — `Up`, occupied, feasible, fitting — in its evaluation order.
/// The semantics oracle for [`choose_contention_aware`]'s shortlist.
fn contention_candidates_linear(
    profiled: &ProfiledTrace,
    residents: &[Vec<u32>],
    cursor: &[usize],
    nics_map: &NicMap,
    state: &[NicState],
    nf: &Placed,
    exclude: Option<usize>,
) -> Vec<usize> {
    residents
        .iter()
        .enumerate()
        .filter(|(i, nic)| {
            Some(*i) != exclude
                && state[*i] == NicState::Up
                && !nic.is_empty()
                && nf.supported_on(nics_map.model[*i])
                && cores_used(profiled, cursor, nic) + nf.workload.cores <= nics_map.cores[*i]
        })
        .map(|(i, _)| i)
        .collect()
}

/// Contention-aware: the first occupied `Up` NIC where `nf` is
/// feasible, fits, and the predictor — consulted for that NIC's
/// hardware model — foresees no SLA violation for anyone (the candidate
/// NIC including `nf`), each floor raised by the relative `margin`
/// (0.0 for normal placements; readmissions demand hysteresis slack).
/// The structural filter comes from the index as an ascending shortlist
/// — the same NICs the linear scan would evaluate, in the same order,
/// so the predictor sees an identical call sequence; debug builds
/// assert the shortlist against [`contention_candidates_linear`].
#[allow(clippy::too_many_arguments)]
fn choose_contention_aware(
    profiled: &ProfiledTrace,
    residents: &[Vec<u32>],
    cursor: &[usize],
    nics_map: &NicMap,
    state: &[NicState],
    pidx: &PlacementIndex,
    predictor: &mut dyn PlacementPredictor,
    nf: &Placed,
    exclude: Option<usize>,
    margin: f64,
    mut margins: MarginSink<'_>,
) -> Option<usize> {
    let sup = supported_positions(nics_map, nf);
    let mut cands: Vec<usize> = Vec::new();
    pidx.fitting(&sup, nf.workload.cores, exclude, &mut cands);
    if cfg!(debug_assertions) {
        assert_eq!(
            cands,
            contention_candidates_linear(profiled, residents, cursor, nics_map, state, nf, exclude),
            "indexed contention-aware shortlist diverged from the linear scan"
        );
    }
    let mut candidate: Vec<&Placed> = Vec::new();
    for &i in &cands {
        let model = nics_map.model[i];
        candidate.clear();
        candidate.extend(
            residents[i]
                .iter()
                .map(|&id| snapshot(profiled, cursor, id)),
        );
        candidate.push(nf);
        // Explicit loop with the same short-circuit as the original
        // `all()`, so margin collection sees each prediction the moment
        // it is made without changing which predictions are made.
        if let Some(m) = margins.as_deref_mut() {
            m.clear();
        }
        let mut safe = true;
        for t in 0..candidate.len() {
            let predicted = predictor.predict_refs(model, t, &candidate);
            let floor = candidate[t].sla_floor(model) * (1.0 + margin);
            if let Some(m) = margins.as_deref_mut() {
                m.push((t, predicted, floor));
            }
            // `!(>=)`, not `<`: a NaN prediction must stay unsafe,
            // exactly as it failed the original `all(>=)`.
            #[allow(clippy::neg_cmp_op_on_partial_ord)]
            if !(predicted >= floor) {
                safe = false;
                break;
            }
        }
        if safe {
            return Some(i);
        }
    }
    None
}

/// One audit epoch's reactive migrations: for each NIC with a predicted
/// violator, drain the diagnosis-selected victim and re-place it under
/// the predictor (or onto an empty NIC). Every per-NIC judgement — the
/// re-evaluation, the bottleneck diagnosis, the victim's contender slate
/// — uses the model of the NIC under audit; the destination may be a NIC
/// of a *different* model, where the victim's feasibility and SLA floor
/// are judged against its solo baseline on that hardware. Returns
/// migrations executed; stops at `budget`.
#[allow(clippy::too_many_arguments)]
fn migrate(
    profiled: &ProfiledTrace,
    residents: &mut [Vec<u32>],
    location: &mut [Option<usize>],
    cursor: &[usize],
    nics_map: &NicMap,
    state: &[NicState],
    pidx: &mut PlacementIndex,
    predictor: &mut dyn PlacementPredictor,
    diagnoser: &Diagnoser<'_>,
    qos_aware: bool,
    budget: usize,
    t_ms: u64,
    tel: &mut Telemetry,
) -> u32 {
    let mut moved = 0u32;
    for nic in 0..residents.len() {
        if moved as usize >= budget {
            break;
        }
        if residents[nic].len() < 2 {
            continue;
        }
        let model = nics_map.model[nic];
        let placed = snapshots(profiled, cursor, &residents[nic]);
        let Some(&violator) = predictor.reevaluate(model, &placed).first() else {
            continue;
        };
        // Diagnose the violator's bottleneck and pick the co-resident
        // pressing hardest on it — under a QoS-aware policy, only from
        // the lowest-precedence class present (a guaranteed NF is never
        // drained while a best-effort co-resident remains).
        let co = diagnoser.contenders(model, &placed, violator);
        let bottleneck = diagnoser.bottleneck(model, &placed, violator, &co);
        let co_positions: Vec<usize> = (0..placed.len()).filter(|&i| i != violator).collect();
        let selected = if qos_aware {
            let classes: Vec<QosClass> = co_positions.iter().map(|&i| placed[i].qos()).collect();
            select_victim_qos(bottleneck, &co, &classes)
        } else {
            select_victim(bottleneck, &co)
        };
        let sel = selected.expect("≥1 co-resident");
        let victim_pos = co_positions[sel];
        let victim_id = residents[nic][victim_pos];
        let violator_id = residents[nic][violator];
        let victim = placed[victim_pos];
        // Drain-and-replace: a safe occupied NIC first, else power on an
        // empty one; if the fleet is exhausted the victim stays put.
        let dst = choose_contention_aware(
            profiled,
            residents,
            cursor,
            nics_map,
            state,
            pidx,
            predictor,
            victim,
            Some(nic),
            0.0,
            None,
        )
        .or_else(|| choose_empty(residents, nics_map, state, pidx, victim, Some(nic)));
        if let Some(dst) = dst {
            residents[nic].remove(victim_pos);
            pidx.remove(nic, victim.workload.cores);
            residents[dst].push(victim_id);
            pidx.place(dst, victim.workload.cores);
            location[victim_id as usize] = Some(dst);
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{FaultEvent, FleetConfig, FleetTrace, NfRecord};
    use yala_nf::NfKind;
    use yala_placement::OraclePredictor;
    use yala_traffic::TrafficProfile;

    #[test]
    fn migration_crosses_nic_models_when_the_destination_requires_it() {
        // Portfolio: one BlueField-2 NIC and one Pensando NIC. Two
        // memory-heavy FlowStats instances with a 1% SLA share the BF-2
        // NIC; the oracle predicts a violation, and the only escape NIC
        // in the fleet is the *other hardware model* — the drain must
        // move the victim across models, re-anchoring it to its Pensando
        // solo baseline.
        let mut cfg = FleetConfig::mixed(1, 2);
        cfg.duration_s = 1_200;
        cfg.audit_period_s = 600;
        cfg.kinds = vec![NfKind::FlowStats];
        cfg.noise_sigma = 0.0;
        let heavy = TrafficProfile::new(200_000, 1_500, 0.0);
        let records: Vec<NfRecord> = (0..2)
            .map(|i| NfRecord {
                id: i,
                kind: NfKind::FlowStats,
                arrival_ms: 0,
                departure_ms: 1_100_000,
                start: heavy,
                end: heavy,
                sla_drop: 0.01,
                qos: QosClass::Guaranteed,
            })
            .collect();
        let profiled = crate::timeline::ProfiledTrace::build(
            FleetTrace::from_records(cfg, records).expect("valid records"),
            &Engine::sequential(),
        );
        let cfg = &profiled.trace.config;
        let nics_map = NicMap::new(cfg);
        assert_ne!(nics_map.model[0], nics_map.model[1], "two hardware models");
        // Hand-place both NFs on the BF-2 NIC (a blind packer would).
        let mut residents: Vec<Vec<u32>> = vec![vec![0, 1], Vec::new()];
        let mut location: Vec<Option<usize>> = vec![Some(0), Some(0)];
        let cursor = vec![0usize, 0];
        let state = vec![NicState::Up; 2];
        let mut pidx = build_index(&profiled, &cursor, &residents, &state, &nics_map);
        let mut oracle = OraclePredictor::for_models(&cfg.specs());
        let moved = migrate(
            &profiled,
            &mut residents,
            &mut location,
            &cursor,
            &nics_map,
            &state,
            &mut pidx,
            &mut oracle,
            &Diagnoser::MemoryOnly,
            false,
            8,
            600_000,
            &mut Telemetry::disabled(),
        );
        assert_eq!(moved, 1, "the predicted violation must drain a victim");
        assert_eq!(residents[0].len(), 1);
        assert_eq!(residents[1].len(), 1, "victim landed on the Pensando NIC");
        let victim = residents[1][0] as usize;
        assert_eq!(location[victim], Some(1));
        // The migrated NF is priced against its *destination-model* solo
        // baseline, which differs from its BF-2 one.
        let snap = snapshot(&profiled, &cursor, victim as u32);
        assert!(snap.supported_on(nics_map.model[1]));
        assert_ne!(
            snap.solo(nics_map.model[0]).solo_tput,
            snap.solo(nics_map.model[1]).solo_tput
        );
    }

    /// A record alive well past any test horizon.
    fn rec(id: u32, qos: QosClass, traffic: TrafficProfile, sla: f64) -> NfRecord {
        NfRecord {
            id,
            kind: NfKind::FlowStats,
            arrival_ms: 0,
            departure_ms: 10_000_000,
            start: traffic,
            end: traffic,
            sla_drop: sla,
            qos,
        }
    }

    /// Builds a profiled trace with a hand-written fault schedule (the
    /// generated schedule is random; unit tests pin exact incidents).
    fn profiled_with_faults(
        cfg: FleetConfig,
        records: Vec<NfRecord>,
        faults: Vec<FaultEvent>,
    ) -> ProfiledTrace {
        let mut trace = FleetTrace::from_records(cfg, records).expect("valid records");
        trace.faults = faults;
        ProfiledTrace::build(trace, &Engine::sequential())
    }

    fn two_nic_cfg() -> FleetConfig {
        use yala_sim::NicSpec;
        let mut cfg = FleetConfig::small(1);
        cfg.portfolio = vec![(NicSpec::bluefield2(), 2)];
        cfg.duration_s = 1_200;
        cfg.audit_period_s = 600;
        cfg.kinds = vec![NfKind::FlowStats];
        cfg.noise_sigma = 0.0;
        cfg.drift = false;
        cfg
    }

    #[test]
    fn failure_evicts_and_relocates_residents() {
        let light = TrafficProfile::new(8_000, 512, 0.0);
        let p = profiled_with_faults(
            two_nic_cfg(),
            vec![rec(0, QosClass::Guaranteed, light, 0.10)],
            vec![FaultEvent {
                t_ms: 100_000,
                nic: 0,
                kind: FaultKind::Fail,
            }],
        );
        let r = run_fleet(&p, FleetPolicy::Greedy, "greedy", &Engine::sequential());
        assert_eq!(r.faults, 1);
        assert_eq!(r.drains, 0);
        assert_eq!(r.guaranteed.evacuations, 1, "the NF fled to the spare NIC");
        assert_eq!(r.guaranteed.shed, 0);
        assert_eq!(r.rejected, 0);
        assert_eq!(r.violation_minutes, 0.0, "solo NFs cannot violate");
        for s in &r.samples {
            assert_eq!(s.parked, 0);
            assert_eq!(s.down_nics, 1, "the failed NIC never recovers");
        }
    }

    #[test]
    fn drain_moves_residents_before_the_deadline() {
        let light = TrafficProfile::new(8_000, 512, 0.0);
        let p = profiled_with_faults(
            two_nic_cfg(),
            vec![
                rec(0, QosClass::Guaranteed, light, 0.10),
                rec(1, QosClass::Guaranteed, light, 0.10),
            ],
            vec![
                FaultEvent {
                    t_ms: 100_000,
                    nic: 0,
                    kind: FaultKind::DrainStart,
                },
                FaultEvent {
                    t_ms: 700_000,
                    nic: 0,
                    kind: FaultKind::DrainEnd,
                },
            ],
        );
        let r = run_fleet(&p, FleetPolicy::Greedy, "greedy", &Engine::sequential());
        assert_eq!(r.drains, 1);
        assert_eq!(r.faults, 0);
        assert_eq!(
            r.guaranteed.evacuations, 2,
            "the notice window evacuated both residents gracefully"
        );
        assert_eq!(
            r.guaranteed.shed, 0,
            "nobody was still aboard at the deadline"
        );
    }

    #[test]
    fn failed_fleet_parks_then_readmits_with_backoff() {
        use yala_sim::NicSpec;
        let mut cfg = two_nic_cfg();
        cfg.portfolio = vec![(NicSpec::bluefield2(), 1)];
        cfg.duration_s = 2_400;
        let light = TrafficProfile::new(8_000, 512, 0.0);
        let p = profiled_with_faults(
            cfg,
            vec![rec(0, QosClass::Guaranteed, light, 0.10)],
            vec![
                FaultEvent {
                    t_ms: 650_000,
                    nic: 0,
                    kind: FaultKind::Fail,
                },
                FaultEvent {
                    t_ms: 1_300_000,
                    nic: 0,
                    kind: FaultKind::Recover,
                },
            ],
        );
        let r = run_fleet(&p, FleetPolicy::Greedy, "greedy", &Engine::sequential());
        assert_eq!(r.faults, 1);
        assert_eq!(r.guaranteed.shed, 1, "a one-NIC fleet has nowhere to flee");
        // The epoch-1200 retry finds the NIC still down and backs off to
        // epoch 1800, which lands after the recovery and readmits.
        assert_eq!(r.guaranteed.readmitted, 1);
        assert_eq!(
            r.guaranteed.downtime_minutes, 10.0,
            "parked across exactly one audit period"
        );
        let at = |t: u64| r.samples.iter().find(|s| s.t_s == t).expect("sample");
        assert_eq!(at(1_200).parked, 1);
        assert_eq!(at(1_200).down_nics, 1);
        assert_eq!(at(1_800).parked, 0);
        assert_eq!(at(1_800).down_nics, 0);
    }

    #[test]
    fn qos_aware_evacuation_preempts_best_effort_never_guaranteed() {
        let heavy = TrafficProfile::new(200_000, 1_500, 0.0);
        // One heavy best-effort NF and one heavy tight-SLA guaranteed
        // NF: the oracle forbids co-residence, so they occupy one NIC
        // each; then the guaranteed NF's NIC fails.
        let build = || {
            profiled_with_faults(
                two_nic_cfg(),
                vec![
                    rec(0, QosClass::BestEffort, heavy, 0.10),
                    rec(1, QosClass::Guaranteed, heavy, 0.01),
                ],
                vec![FaultEvent {
                    t_ms: 100_000,
                    nic: 1,
                    kind: FaultKind::Fail,
                }],
            )
        };
        let p = build();
        let specs = p.trace.config.specs();
        let mut oracle = OraclePredictor::for_models(&specs);
        let aware = run_fleet(
            &p,
            FleetPolicy::ContentionAware {
                predictor: &mut oracle,
                diagnoser: Diagnoser::MemoryOnly,
                online: None,
                qos_aware: true,
            },
            "qos",
            &Engine::sequential(),
        );
        assert_eq!(
            aware.guaranteed.shed, 0,
            "the guaranteed NF preempted the best-effort resident instead of parking"
        );
        assert_eq!(aware.guaranteed.evacuations, 1);
        assert_eq!(aware.best_effort.shed, 1);
        assert!(aware.best_effort.downtime_minutes > 0.0);
        // The blind policy treats both classes alike: with no safe slot
        // and no preemption, the guaranteed NF itself is shed.
        let p = build();
        let mut oracle = OraclePredictor::for_models(&specs);
        let blind = run_fleet(
            &p,
            FleetPolicy::ContentionAware {
                predictor: &mut oracle,
                diagnoser: Diagnoser::MemoryOnly,
                online: None,
                qos_aware: false,
            },
            "blind",
            &Engine::sequential(),
        );
        assert_eq!(blind.guaranteed.shed, 1);
        assert_eq!(blind.best_effort.shed, 0);
        assert!(
            blind.guaranteed.bad_minutes() > aware.guaranteed.bad_minutes(),
            "QoS-aware degradation must protect the guaranteed class"
        );
    }

    /// The tentpole's safety net: at 50–200 NICs across seeds, mixed
    /// portfolios, random occupancy, fault states, and exclusions,
    /// every indexed query must answer byte-identically to its
    /// pre-index linear scan — both on a freshly built index and after
    /// a stream of incremental mutations (depart / place / fail /
    /// recover) maintained in lockstep. Debug builds of the live event
    /// loop additionally assert the same parity on every decision it
    /// takes, so the whole test suite doubles as a fleet-shaped
    /// property test.
    #[test]
    fn indexed_placement_matches_linear_scan_across_seeds_and_sizes() {
        use crate::trace::TrafficModel;
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        for &nics in &[50usize, 100, 200] {
            // One profiled trace per fleet size (template traffic keeps
            // the profiling bill at ~a dozen measurements); three
            // placement-RNG streams exercise it.
            let mut cfg = FleetConfig::mixed(7 + nics as u64, nics);
            cfg.duration_s = 600;
            cfg.audit_period_s = 600;
            cfg.mean_interarrival_s = 8.0;
            cfg.mean_lifetime_s = 2_000.0;
            cfg.noise_sigma = 0.0;
            cfg.drift = false;
            cfg.guaranteed_fraction = 0.5;
            cfg.traffic_model = TrafficModel::Templates {
                count: 8,
                jitter: 0.02,
            };
            let profiled =
                ProfiledTrace::build_cached(FleetTrace::generate(cfg), &Engine::sequential());
            let cfg = &profiled.trace.config;
            let records = &profiled.trace.records;
            let nics_map = NicMap::new(cfg);
            assert!(records.len() >= 40, "enough NFs to populate the fleet");

            for seed in [11u64, 12, 13] {
                let mut rng = StdRng::seed_from_u64(seed);
                let cursor = vec![0usize; records.len()];
                let mut residents: Vec<Vec<u32>> = vec![Vec::new(); nics];
                let mut state: Vec<NicState> = (0..nics)
                    .map(|_| match rng.gen_range(0..10) {
                        0 => NicState::Down,
                        1 => NicState::Draining,
                        _ => NicState::Up,
                    })
                    .collect();
                for r in records {
                    let nf = snapshot(&profiled, &cursor, r.id);
                    let nic = rng.gen_range(0..nics);
                    if nf.supported_on(nics_map.model[nic])
                        && cores_used(&profiled, &cursor, &residents[nic]) + nf.workload.cores
                            <= nics_map.cores[nic]
                    {
                        residents[nic].push(r.id);
                    }
                }
                let mut pidx = build_index(&profiled, &cursor, &residents, &state, &nics_map);

                let check = |residents: &[Vec<u32>],
                             state: &[NicState],
                             pidx: &PlacementIndex,
                             rng: &mut StdRng| {
                    for _ in 0..8 {
                        let id = records[rng.gen_range(0..records.len())].id;
                        let nf = snapshot(&profiled, &cursor, id);
                        let exclude = rng.gen_bool(0.5).then(|| rng.gen_range(0..nics));
                        let sup = supported_positions(&nics_map, nf);
                        assert_eq!(
                            pidx.first_empty(&sup, exclude),
                            choose_empty_linear(residents, &nics_map, state, nf, exclude),
                            "empty-NIC parity (nics={nics}, seed={seed})"
                        );
                        assert_eq!(
                            pidx.most_free(&sup, nf.workload.cores, exclude),
                            choose_greedy_linear(
                                &profiled, residents, &cursor, &nics_map, state, nf, exclude
                            ),
                            "greedy parity (nics={nics}, seed={seed})"
                        );
                        let mut got = Vec::new();
                        pidx.fitting(&sup, nf.workload.cores, exclude, &mut got);
                        assert_eq!(
                            got,
                            contention_candidates_linear(
                                &profiled, residents, &cursor, &nics_map, state, nf, exclude
                            ),
                            "contention-aware shortlist parity (nics={nics}, seed={seed})"
                        );
                    }
                };
                check(&residents, &state, &pidx, &mut rng);

                // A stream of incremental transitions — the index is
                // maintained, never rebuilt — then parity again.
                for _ in 0..60 {
                    match rng.gen_range(0..4) {
                        0 => {
                            let nic = rng.gen_range(0..nics);
                            if let Some(&id) = residents[nic].first() {
                                residents[nic].retain(|&r| r != id);
                                pidx.remove(nic, snapshot(&profiled, &cursor, id).workload.cores);
                            }
                        }
                        1 => {
                            let id = records[rng.gen_range(0..records.len())].id;
                            if residents.iter().any(|r| r.contains(&id)) {
                                continue;
                            }
                            let nf = snapshot(&profiled, &cursor, id);
                            let nic = rng.gen_range(0..nics);
                            if nf.supported_on(nics_map.model[nic])
                                && cores_used(&profiled, &cursor, &residents[nic])
                                    + nf.workload.cores
                                    <= nics_map.cores[nic]
                            {
                                residents[nic].push(id);
                                pidx.place(nic, nf.workload.cores);
                            }
                        }
                        2 => {
                            // Hard failure: retire and bulk-evict.
                            let nic = rng.gen_range(0..nics);
                            if state[nic] == NicState::Up {
                                state[nic] = NicState::Down;
                                pidx.retire(nic);
                                residents[nic].clear();
                                pidx.clear_retired(nic);
                            }
                        }
                        _ => {
                            let nic = rng.gen_range(0..nics);
                            if state[nic] == NicState::Down && residents[nic].is_empty() {
                                state[nic] = NicState::Up;
                                pidx.restore(nic);
                            }
                        }
                    }
                }
                check(&residents, &state, &pidx, &mut rng);
            }
        }
    }

    #[test]
    fn packing_bound_is_capability_aware() {
        // Homogeneous: the single subset is the classic bound.
        assert_eq!(oracle_packing_bound(&[0, 21], &[7]), 3);
        assert_eq!(oracle_packing_bound(&[0, 22], &[7]), 4);
        // Mixed portfolio, 8-core model 0 and 4-core model 1: 17 cores
        // of NFs that run only on model 1 need ceil(17/4) = 5 NICs —
        // the old divide-by-largest bound would claim
        // ceil((17 + 2)/8) = 3. The anywhere-feasible 2 cores cannot
        // relax the restricted subset.
        // Masks index the subsets: 0b01 = model 0 only, 0b10 = model 1
        // only, 0b11 = either.
        assert_eq!(oracle_packing_bound(&[0, 0, 17, 2], &[8, 4]), 5);
        // Same shape but the restricted NFs are light: the full-set
        // subset dominates, reproducing the old bound.
        assert_eq!(oracle_packing_bound(&[0, 0, 2, 20], &[8, 4]), 3);
        // Empty fleet.
        assert_eq!(oracle_packing_bound(&[0, 0, 0, 0], &[8, 4]), 0);
    }
}
