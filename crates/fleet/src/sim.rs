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

use crate::policy::FleetPolicy;
use crate::report::{ClassStats, FleetReport, FleetSample};
use crate::residency::NicState;
use crate::state::{FleetState, SimRules, Timelines, READMITTED, VIOLATIONS};
use crate::timeline::ProfiledTrace;
use crate::trace::{FaultKind, MS_PER_S};
use yala_core::engine::{scenario_seed, simulator_for, Engine};
use yala_core::{ObservationBuffer, QosClass};
use yala_sim::{CoRunReport, NicModelId, WorkloadSpec};
use yala_telemetry::journal::FieldValue;
use yala_telemetry::{stable_hash64, Event, Telemetry};

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
/// The machine is a pure function of `(profiled trace, policy, events
/// consumed)`, which is also its checkpoint format: a restore rebuilds
/// it with `new` and re-steps (see [`crate::snapshot`]).
pub struct FleetSim<'a> {
    profiled: &'a ProfiledTrace,
    state: FleetState<Timelines<'a>, SimRules>,
    policy: FleetPolicy<'a>,
    label: String,
    /// The static event list: (time, class, index). Index is the NF id
    /// for departures/arrivals, the position in the fault schedule for
    /// faults, and the epoch number for audits.
    events: Vec<(u64, u8, u32)>,
    /// Position of the next unconsumed event.
    next_event: usize,
    /// Audit ground truth pending absorption (online-refining policies).
    pending: ObservationBuffer,
    // Per-epoch scratch, hoisted: reused across epochs instead of
    // reallocated.
    occupied: Vec<usize>,
    margin_buf: Vec<(usize, f64, f64)>,
    // Report accumulators.
    period_min: f64,
    samples: Vec<FleetSample>,
    rejected: u32,
    migrations_total: u32,
    violation_minutes: f64,
    nic_minutes: f64,
    oracle_lb_nic_minutes: f64,
    wasted_core_minutes: f64,
    peak_nics: u32,
    faults_total: u32,
    drains_total: u32,
    // Per-class degradation accounting, indexed by `QosClass as usize`.
    violation_min: [f64; 2],
    downtime_min: [f64; 2],
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
        let cursor = vec![0; records.len()];
        let cache_hit_rate = if profiled.stats.lookups > 0 {
            profiled.stats.hits as f64 / profiled.stats.lookups as f64
        } else {
            0.0
        };

        Self {
            profiled,
            state: FleetState::new(cfg, Timelines { profiled, cursor }, SimRules),
            policy,
            label: label.to_string(),
            events,
            next_event: 0,
            pending: ObservationBuffer::new(),
            occupied: Vec::new(),
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
            model_cores,
            masks,
            cache_hit_rate,
        }
    }

    /// Events consumed so far (a checkpoint's resume point).
    pub fn events_consumed(&self) -> usize {
        self.next_event
    }

    /// What makes this run *this* run, as snapshot-header fields: the
    /// scenario, plus the parts of its identity a `.yala-trace` does not
    /// carry — how it was profiled and how the policy was configured. A
    /// restore refuses a snapshot whose fields differ from its own.
    pub(crate) fn identity(&self) -> Vec<(&'static str, FieldValue)> {
        let profiled = self.profiled;
        let cfg = &profiled.trace.config;
        let (min_observations, qos_aware) = match &self.policy {
            FleetPolicy::ContentionAware {
                online, qos_aware, ..
            } => (online.map_or(-1, |o| o.min_observations as i64), *qos_aware),
            _ => (-1, false),
        };
        let int = |n: usize| FieldValue::Int(n as i64);
        vec![
            ("label", FieldValue::Str(self.label.clone())),
            ("seed", FieldValue::Str(cfg.seed.to_string())),
            ("trace_len", int(profiled.trace.records.len())),
            ("nics", int(cfg.nics())),
            ("events", int(self.events.len())),
            ("profile_snapshots", int(profiled.snapshot_count())),
            ("min_observations", FieldValue::Int(min_observations)),
            ("qos_aware", FieldValue::Bool(qos_aware)),
        ]
    }

    /// A digest of the run so far — the report accumulators, the epoch
    /// samples, the observation queue depth, and the whole fleet state.
    /// Two runs that agree here have taken the same decisions; a restore
    /// compares it to detect a replay that went somewhere else.
    pub(crate) fn digest(&self) -> u64 {
        let mut text = format!(
            "{:?}{:?}",
            (
                self.next_event,
                self.rejected,
                self.migrations_total,
                self.violation_minutes,
                self.nic_minutes,
                self.oracle_lb_nic_minutes,
                self.wasted_core_minutes,
                self.peak_nics,
                self.faults_total,
                self.drains_total,
                self.violation_min,
                self.downtime_min,
            ),
            (&self.samples, self.pending.len())
        );
        self.state.digest_into(&mut text);
        stable_hash64(text.as_bytes())
    }

    /// Consumes one event; `None` once the run is complete. The engine
    /// parallelizes audit ground-truth co-runs exactly as in
    /// [`run_fleet_observed`]; any stepping pattern produces the same
    /// decisions, report, and journal as the one-shot loop.
    pub fn step(&mut self, engine: &Engine, tel: &mut Telemetry) -> Option<Processed> {
        let &(t_ms, class, index) = self.events.get(self.next_event)?;
        self.next_event += 1;
        let processed = match class {
            CLASS_DEPARTURE => self.on_departure(t_ms, index, tel),
            CLASS_FAULT => self.on_fault(t_ms, index, tel),
            CLASS_ARRIVAL => self.on_arrival(t_ms, index, tel),
            CLASS_AUDIT => self.on_audit(t_ms, index, engine, tel),
            _ => unreachable!("unknown event class"),
        };
        if tel.is_enabled() && self.next_event == self.events.len() {
            self.mirror_memo_stats(tel);
        }
        Some(processed)
    }

    fn on_departure(&mut self, t_ms: u64, id: u32, tel: &mut Telemetry) -> Processed {
        let nic = self.state.depart(id).map_or(-1, |n| n as i64);
        tel.rec(t_ms, || Event::Depart { id, nic });
        Processed::Departure(id)
    }

    fn on_fault(&mut self, t_ms: u64, index: u32, tel: &mut Telemetry) -> Processed {
        let ev = self.profiled.trace.faults[index as usize];
        tel.rec(t_ms, || Event::Fault {
            nic: ev.nic as u32,
            kind: ev.kind.name(),
        });
        let (state, policy) = (&mut self.state, &mut self.policy);
        match ev.kind {
            // A hard failure and a drain deadline both take the NIC down
            // and force its residents out; only the first is a fault.
            FaultKind::Fail | FaultKind::DrainEnd => {
                if ev.kind == FaultKind::Fail {
                    self.faults_total += 1;
                    tel.inc("fleet.faults", 1);
                }
                state.evacuate(policy, ev.nic, true, t_ms, tel);
            }
            FaultKind::DrainStart => {
                self.drains_total += 1;
                tel.inc("fleet.drains", 1);
                state.evacuate(policy, ev.nic, false, t_ms, tel);
            }
            FaultKind::Recover => state.recover(ev.nic),
        }
        Processed::Fault(index)
    }

    fn on_arrival(&mut self, t_ms: u64, id: u32, tel: &mut Telemetry) -> Processed {
        let nf = &self.profiled.timelines[id as usize].snapshots[0].1;
        tel.inc("fleet.arrivals", 1);
        tel.rec(t_ms, || Event::Arrival {
            id,
            kind: nf.arrival.kind.name(),
            qos: nf.qos().name(),
            sla_drop: nf.arrival.sla_drop,
        });
        self.margin_buf.clear();
        let margins = tel.is_enabled().then_some(&mut self.margin_buf);
        let (state, policy) = (&mut self.state, &mut self.policy);
        match state.admit(policy, id, None, 0.0, margins, t_ms, tel) {
            Some((nic, reason)) => {
                debug_assert!(nf.supported_on(self.state.nics.model(nic)));
                tel.rec(t_ms, || Event::Place {
                    id,
                    nic: nic as u32,
                    reason,
                });
                // The margins refer to the accepted NIC's candidate
                // vector: its residents before this placement, then the
                // arriving NF — now the last of them.
                let residents = &self.state.residents()[nic];
                for &(slot_idx, predicted, floor) in &self.margin_buf {
                    tel.rec(t_ms, || Event::Margin {
                        id: residents[slot_idx],
                        nic: nic as u32,
                        predicted,
                        floor,
                    });
                }
            }
            None => {
                self.rejected += 1;
                tel.inc("fleet.rejected", 1);
                tel.rec(t_ms, || Event::Reject {
                    id,
                    kind: nf.arrival.kind.name(),
                    qos: nf.qos().name(),
                });
            }
        }
        Processed::Arrival(id)
    }

    fn on_audit(
        &mut self,
        t_ms: u64,
        epoch: u32,
        engine: &Engine,
        tel: &mut Telemetry,
    ) -> Processed {
        // 1. Drift: bring every placed NF to its snapshot in force at
        // this epoch and re-price the occupied NICs in the index.
        self.state
            .drift(self.policy.predictor(), t_ms, &mut self.occupied);
        // 2. Ground truth.
        let reports = self.co_run_occupied(epoch, engine);
        let violating = self.tally_violations(t_ms, &reports, tel);
        tel.rec(t_ms, || Event::Audit {
            epoch,
            occupied: self.occupied.len() as u32,
            violating,
        });
        // 3. Learn, then 4. react: the refit runs *before* migration so
        // the refreshed models inform this epoch's decisions.
        self.absorb(t_ms, epoch, &reports, engine, tel);
        let budget = self.profiled.trace.config.max_migrations_per_audit;
        let epoch_migrations = self.state.migrate(&mut self.policy, budget, t_ms, tel);
        self.migrations_total += epoch_migrations;
        // 4b. Readmission.
        if !self.state.parked.is_empty() {
            self.readmit_parked(t_ms, tel);
        }
        // 5. Observe.
        self.close_epoch(t_ms, violating, epoch_migrations, tel);
        Processed::Audit(epoch)
    }

    /// Co-runs every occupied NIC on a private deterministically seeded
    /// simulator — built from the hardware of *that* NIC — across the
    /// engine; `reports[j]` belongs to `self.occupied[j]`.
    fn co_run_occupied(&self, epoch: u32, engine: &Engine) -> Vec<CoRunReport> {
        let state = &self.state;
        let occupied = &self.occupied;
        let cfg = &self.profiled.trace.config;
        let audit_base = scenario_seed(cfg.seed ^ AUDIT_SALT, epoch as usize);
        engine.run_chunked(occupied.len(), AUDIT_CHUNK, |j| {
            let nic = occupied[j];
            let spec = cfg.nic_spec(nic);
            let mut sim = simulator_for(spec, cfg.noise_sigma, scenario_seed(audit_base, j));
            let workloads: Vec<&WorkloadSpec> = state.residents()[nic]
                .iter()
                .map(|&id| &state.profile(id).workload)
                .collect();
            sim.co_run(&workloads)
        })
    }

    /// Counts (and journals, with a diagnosed bottleneck) the residents
    /// the audit measured below their SLA floor.
    fn tally_violations(&mut self, t_ms: u64, reports: &[CoRunReport], tel: &mut Telemetry) -> u32 {
        let observing = tel.is_enabled();
        let state = &self.state;
        let records = &self.profiled.trace.records;
        let mut violating = 0u32;
        for (&nic, report) in self.occupied.iter().zip(reports) {
            let model = state.nics.model(nic);
            let residents = &state.residents()[nic];
            if observing {
                tel.observe_log2("fleet.co_residents", 1.0, 6, residents.len() as f64);
            }
            for (pos, (&id, outcome)) in residents.iter().zip(&report.outcomes).enumerate() {
                let floor = state.profile(id).sla_floor(model);
                if outcome.throughput_pps < floor {
                    violating += 1;
                    let qos = records[id as usize].qos;
                    self.violation_min[qos as usize] += self.period_min;
                    tel.inc(VIOLATIONS[qos as usize], 1);
                    if observing {
                        // Diagnose the measured violation for the journal.
                        // The diagnoser is pure (&self), so the extra call
                        // cannot perturb the run; solo NFs and
                        // diagnoser-free policies record "none".
                        let bottleneck = match (&self.policy, residents.len()) {
                            (FleetPolicy::ContentionAware { diagnoser, .. }, n) if n >= 2 => {
                                let placed = state.profiles(nic);
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
        violating
    }

    /// Online-refining policies feed the audit's ground truth straight
    /// back into the predictor — the (context, outcome) pairs were
    /// measured anyway, so the refit is free telemetry. The harvest
    /// order (NIC index, resident index) and the batch-size rate limit
    /// are deterministic, so an online run is still bit-identical across
    /// thread counts.
    fn absorb(
        &mut self,
        t_ms: u64,
        epoch: u32,
        reports: &[CoRunReport],
        engine: &Engine,
        tel: &mut Telemetry,
    ) {
        let FleetPolicy::ContentionAware {
            predictor,
            diagnoser,
            online: Some(online),
            ..
        } = &mut self.policy
        else {
            return;
        };
        self.state
            .harvest_observations(&self.occupied, reports, diagnoser, &mut self.pending);
        if self.pending.len() < online.min_observations.max(1) {
            return;
        }
        let observations = self.pending.len() as u32;
        let refined = predictor.absorb(&self.pending, engine) as u64;
        tel.inc("fleet.absorb.passes", 1);
        tel.inc("fleet.absorb.observations", observations as u64);
        tel.inc("fleet.absorb.refined_cells", refined);
        tel.rec(t_ms, || Event::Absorb {
            epoch,
            observations,
        });
        self.pending.clear();
    }

    /// Parked NFs whose backoff expired retry admission — guaranteed
    /// first under a QoS-aware policy — against a hysteresis margin
    /// (`READMIT_MARGIN`), so a readmitted NF must clear its floor with
    /// slack rather than re-enter marginally and bounce on the next
    /// audit. A parked guaranteed NF may re-enter by preempting
    /// best-effort residents, exactly as during evacuation — otherwise
    /// one bad epoch parks it behind a full fleet for the whole backoff
    /// ladder. Failed retries double their backoff (capped at
    /// `BACKOFF_CAP_EPOCHS`).
    fn readmit_parked(&mut self, t_ms: u64, tel: &mut Telemetry) {
        let (state, policy) = (&mut self.state, &mut self.policy);
        let records = &self.profiled.trace.records;
        let period_ms = self.profiled.trace.config.audit_period_s * MS_PER_S;
        let aware = policy.qos_aware();
        let due = state.parked.iter().filter(|p| p.next_retry_ms <= t_ms);
        let mut due: Vec<u32> = due.map(|p| p.id).collect();
        due.sort_by_key(|&id| (aware && !records[id as usize].qos.is_guaranteed(), id));
        for id in due {
            state.seek(None, id, t_ms);
            let Some((nic, _)) = state.admit(policy, id, None, READMIT_MARGIN, None, t_ms, tel)
            else {
                let p = state.parked.iter_mut().find(|p| p.id == id);
                let p = p.expect("a failed retry stays parked");
                p.next_retry_ms = t_ms + p.backoff_epochs * period_ms;
                p.backoff_epochs = (p.backoff_epochs * 2).min(BACKOFF_CAP_EPOCHS);
                continue;
            };
            state.parked.retain(|p| p.id != id);
            let qos = state.profile(id).qos();
            state.readmitted[qos as usize] += 1;
            tel.inc(READMITTED[qos as usize], 1);
            tel.rec(t_ms, || Event::Readmit {
                id,
                nic: nic as u32,
                qos: qos.name(),
            });
        }
    }

    /// Folds the settled epoch into the report accumulators, gauges, and
    /// the epoch sample.
    fn close_epoch(&mut self, t_ms: u64, violating: u32, migrations: u32, tel: &mut Telemetry) {
        let state = &self.state;
        let records = &self.profiled.trace.records;
        let mut active = 0u32;
        let mut nics_in_use = 0u32;
        let mut wasted_cores = 0u32;
        let mut cores_by_mask = vec![0u32; 1 << self.model_cores.len()];
        for (nic, res) in state.residents().iter().enumerate() {
            if res.is_empty() {
                continue;
            }
            active += res.len() as u32;
            nics_in_use += 1;
            let mut used = 0u32;
            for &id in res {
                let c = state.profile(id).workload.cores;
                used += c;
                cores_by_mask[self.masks[id as usize] as usize] += c;
            }
            wasted_cores += state.nics.cores(nic) - used;
        }
        let oracle_lb_nics = oracle_packing_bound(&cores_by_mask, &self.model_cores);
        // Parked NFs are alive but unserved: every parked epoch is a
        // downtime period for its class.
        for p in &state.parked {
            self.downtime_min[records[p.id as usize].qos as usize] += self.period_min;
        }
        self.peak_nics = self.peak_nics.max(nics_in_use);
        self.violation_minutes += violating as f64 * self.period_min;
        self.nic_minutes += nics_in_use as f64 * self.period_min;
        self.oracle_lb_nic_minutes += oracle_lb_nics as f64 * self.period_min;
        self.wasted_core_minutes += wasted_cores as f64 * self.period_min;
        let parked = state.parked.len() as u32;
        let down = |&&s: &&NicState| s == NicState::Down;
        let down_nics = state.nics.states().iter().filter(down).count() as u32;
        let obs_queue = self.pending.len() as u32;
        tel.gauge("fleet.active_nfs", active as f64);
        tel.gauge("fleet.nics_in_use", nics_in_use as f64);
        tel.gauge("fleet.parked", parked as f64);
        tel.gauge("fleet.down_nics", down_nics as f64);
        tel.gauge("fleet.obs_queue", obs_queue as f64);
        tel.gauge("fleet.cache_hit_rate", self.cache_hit_rate);
        tel.rec(t_ms, || Event::Epoch {
            t_s: t_ms / MS_PER_S,
            active,
            nics_in_use,
            violating,
            migrations,
            wasted_cores,
            oracle_lb: oracle_lb_nics,
            parked,
            down: down_nics,
            obs_queue,
            cache_hit_rate: self.cache_hit_rate,
        });
        self.samples.push(FleetSample {
            t_s: t_ms / MS_PER_S,
            active_nfs: active,
            nics_in_use,
            violating_nfs: violating,
            migrations,
            wasted_cores,
            oracle_lb_nics,
            parked,
            down_nics,
        });
    }

    /// Mirrors the predictor's memo accounting onto the `predict.*`
    /// counters once the last event is consumed.
    fn mirror_memo_stats(&self, tel: &mut Telemetry) {
        if let FleetPolicy::ContentionAware { predictor, .. } = &self.policy {
            if let Some(stats) = predictor.memo_stats() {
                tel.inc("predict.calls", stats.lookups);
                tel.inc("predict.memo_hits", stats.hits);
                tel.inc("predict.memo_clears", stats.clears);
                tel.inc("predict.cell_hits", stats.cell_hits);
                tel.inc("predict.forest_walks", stats.forest_walks);
            }
        }
    }

    /// Closes the books: the final [`FleetReport`] of the run. Call
    /// after [`FleetSim::step`] returns `None`.
    pub fn into_report(self) -> FleetReport {
        let profiled = self.profiled;
        let cfg = &profiled.trace.config;
        let class_stats = |c: QosClass| ClassStats {
            violation_minutes: self.violation_min[c as usize],
            downtime_minutes: self.downtime_min[c as usize],
            evacuations: self.state.evacuations[c as usize],
            shed: self.state.shed[c as usize],
            readmitted: self.state.readmitted[c as usize],
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::Diagnoser;
    use crate::timeline::BuildOpts;
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
        let profiled = ProfiledTrace::build(
            FleetTrace::from_records(cfg, records, Vec::new()).expect("valid records"),
            &Engine::sequential(),
            BuildOpts::default(),
        );
        let (cfg, cursor) = (&profiled.trace.config, vec![0; 2]);
        let tenants = Timelines {
            profiled: &profiled,
            cursor,
        };
        let mut state = FleetState::new(cfg, tenants, SimRules);
        let (bf2, pen) = (state.nics.model(0), state.nics.model(1));
        assert_ne!(bf2, pen, "two hardware models");
        // Hand-place both NFs on the BF-2 NIC (a blind packer would).
        state.place(None, 0, 0);
        state.place(None, 0, 1);
        let mut oracle = OraclePredictor::for_models(&profiled.trace.config.specs());
        let mut policy = FleetPolicy::ContentionAware {
            predictor: &mut oracle,
            diagnoser: Diagnoser::MemoryOnly,
            online: None,
            qos_aware: false,
        };
        let budget = profiled.trace.config.max_migrations_per_audit;
        let moved = state.migrate(&mut policy, budget, 600_000, &mut Telemetry::disabled());
        assert_eq!(moved, 1, "the predicted violation must drain a victim");
        assert_eq!(state.residents()[0].len(), 1);
        assert_eq!(
            state.residents()[1].len(),
            1,
            "victim landed on the Pensando NIC"
        );
        let victim = state.residents()[1][0];
        // The migrated NF is priced against its *destination-model* solo
        // baseline, which differs from its BF-2 one.
        let snap = state.profile(victim);
        assert!(snap.supported_on(pen));
        assert_ne!(snap.solo(bf2).solo_tput, snap.solo(pen).solo_tput);
        assert_eq!(state.remove(victim), Some(1), "location moved with it");
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
        let trace = FleetTrace::from_records(cfg, records, faults).expect("valid records");
        ProfiledTrace::build(trace, &Engine::sequential(), BuildOpts::default())
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
