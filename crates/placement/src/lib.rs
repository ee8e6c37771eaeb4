//! # yala-placement — contention-aware NF scheduling (§7.5.1)
//!
//! The operator places arriving NFs onto a cluster of SmartNICs, maximising
//! utilisation (minimum NICs) while holding each NF's SLA — a maximum
//! allowed throughput drop relative to running solo. The offline problem is
//! bin packing; following the paper we compare *online* strategies:
//!
//! * **Monopolization** — one NF per NIC (zero violations, maximal waste).
//! * **Greedy** — pack onto the NIC with the most available cores
//!   (contention-blind).
//! * **Contention-aware** — place only where the predictor (SLOMO or Yala)
//!   expects no SLA violation for anyone on the NIC.
//! * **Oracle** — contention-aware with ground-truth co-run simulation as
//!   the "predictor": the reference plan for resource-wastage accounting
//!   (the paper's exhaustive-search optimum is infeasible at 500 arrivals;
//!   an oracle-checked first fit measures the same thing — how many NICs a
//!   perfect predictor needs).
//!
//! ## Heterogeneous fleets
//!
//! Clusters mix NIC hardware models (BlueField-2 with an RXP regex engine;
//! Pensando without one), so everything a placement decision consumes is
//! keyed by [`NicModelId`]: a [`Placed`] NF carries one solo baseline
//! *per model* it was profiled on (solo throughput, counters, and hence
//! the SLA floor all differ per hardware), predictors answer for an
//! explicit model, and capability feasibility is a first-class gate — an
//! NF whose workload submits Regex requests is never profiled on (and is
//! rejected by every strategy for) a regex-less NIC.

mod memo;

pub use memo::MemoStats;

use yala_core::baseline::SlomoModel;
use yala_core::contender::aggregate_counters;
use yala_core::engine::{model_seed_base, scenario_seed, simulator_for, Engine};
use yala_core::memory_model::{N_COUNTER_FEATURES, N_TRAFFIC_FEATURES};
use yala_core::profile_cache::{ProfileEntry, SoloProfile};
use yala_core::{CellMemo, Contender, ModelBank, ObservationBuffer, QosClass, YalaModel};
use yala_nf::{NfKind, Profiler};
use yala_sim::{CounterSample, NicModelId, NicSpec, Simulator, WorkloadSpec};
use yala_traffic::TrafficProfile;

/// One arriving NF instance.
#[derive(Debug, Clone)]
pub struct Arrival {
    /// Which NF.
    pub kind: NfKind,
    /// Its traffic profile.
    pub traffic: TrafficProfile,
    /// Maximum tolerated throughput drop vs. solo (e.g. 0.1 = 10%).
    pub sla_drop: f64,
    /// The tenant's service class. Guaranteed tenants keep their SLA
    /// through faults; best-effort tenants shed first under pressure
    /// (defaults to [`QosClass::Guaranteed`], the single-tier fleet).
    pub qos: QosClass,
}

impl Arrival {
    /// A guaranteed-class arrival — the pre-QoS single-tier default.
    pub fn new(kind: NfKind, traffic: TrafficProfile, sla_drop: f64) -> Self {
        Self {
            kind,
            traffic,
            sla_drop,
            qos: QosClass::Guaranteed,
        }
    }
}

/// One NIC model's solo baseline for a placed NF: what the NF achieves
/// alone on that hardware, and how contentious it looks there.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SoloMeasure {
    /// Solo throughput on this model (SLA reference).
    pub solo_tput: f64,
    /// Solo counter vector on this model (contentiousness).
    pub counters: CounterSample,
}

/// An NF instance placed on (or prepared for) a NIC, with one solo
/// baseline per NIC model it is feasible on. The profiled workload (the
/// NF's per-packet demand) is hardware-independent; the solo throughput,
/// counters, and therefore the SLA floor are per-model.
#[derive(Debug, Clone)]
pub struct Placed {
    /// The arrival it satisfies.
    pub arrival: Arrival,
    /// Its profiled workload (packet replay through the real NF —
    /// identical on every model).
    pub workload: WorkloadSpec,
    /// Per-model solo baselines, in portfolio order. Models on which the
    /// NF is capability-infeasible (or outside the profiling matrix) are
    /// absent — absence *is* the placement-time feasibility gate.
    pub solos: Vec<(NicModelId, SoloMeasure)>,
}

impl Placed {
    /// The solo baseline on `model`, if the NF was profiled there.
    pub fn try_solo(&self, model: NicModelId) -> Option<&SoloMeasure> {
        self.solos.iter().find(|(m, _)| *m == model).map(|(_, s)| s)
    }

    /// The solo baseline on `model`.
    ///
    /// # Panics
    ///
    /// Panics if the NF was not profiled on `model` — strategies must
    /// check [`Self::supported_on`] before pricing a co-location.
    pub fn solo(&self, model: NicModelId) -> &SoloMeasure {
        self.try_solo(model).unwrap_or_else(|| {
            panic!(
                "{} has no solo baseline on NIC model {model}",
                self.workload.name
            )
        })
    }

    /// Whether this NF may be placed on NICs of `model` (it was profiled
    /// there, which the profiling matrix only allows when every
    /// accelerator it submits to exists on that hardware).
    pub fn supported_on(&self, model: NicModelId) -> bool {
        self.try_solo(model).is_some()
    }

    /// The lowest throughput this instance may run at on `model` without
    /// violating its SLA. The floor is per-model: the same drop tolerance
    /// anchors to that hardware's solo throughput.
    pub fn sla_floor(&self, model: NicModelId) -> f64 {
        self.solo(model).solo_tput * (1.0 - self.arrival.sla_drop)
    }

    /// The tenant's service class.
    pub fn qos(&self) -> QosClass {
        self.arrival.qos
    }
}

/// A predictor that judges whether a candidate co-location is SLA-safe.
pub trait PlacementPredictor {
    /// Predicted throughput of `residents[target]` when all `residents`
    /// share one NIC of hardware `model`. Residents are borrowed: a
    /// placement loop scores hundreds of candidate NICs per arrival and
    /// must not copy a tenant's profile to ask about it.
    fn predict_refs(&mut self, model: NicModelId, target: usize, residents: &[&Placed]) -> f64;

    /// [`Self::predict_refs`] for a caller that holds the residents by
    /// value.
    fn predict(&mut self, model: NicModelId, target: usize, residents: &[Placed]) -> f64 {
        let refs: Vec<&Placed> = residents.iter().collect();
        self.predict_refs(model, target, &refs)
    }

    /// A name for everything this predictor reads from `p` as a resident
    /// of a NIC of `model`, for [`Self::predict_classes`]: two residents
    /// get the same non-zero id exactly when no prediction can tell them
    /// apart, and an id keeps its meaning for the life of the predictor.
    /// Whoever holds residents asks once per profile that comes into
    /// force and keeps the answer. 0 — the default, for a predictor that
    /// names nothing — means "unnamed".
    fn class_of(&mut self, _model: NicModelId, _p: &Placed) -> u32 {
        0
    }

    /// [`Self::predict_refs`] for a caller that keeps its residents'
    /// [`Self::class_of`] ids: `classes[k]` is the id of `resident(k)`,
    /// which is only called when the ids do not settle the question. The
    /// default ignores the ids.
    fn predict_classes<'p>(
        &mut self,
        model: NicModelId,
        target: usize,
        classes: &[u32],
        resident: &dyn Fn(usize) -> &'p Placed,
    ) -> f64 {
        let residents: Vec<&Placed> = (0..classes.len()).map(resident).collect();
        self.predict_refs(model, target, &residents)
    }

    /// Re-evaluates an already-populated NIC of hardware `model` — e.g.
    /// after traffic drift has shifted some residents' profiles — and
    /// returns the indices of residents predicted to violate their SLA
    /// floor, in ascending order; `classes` are the residents'
    /// [`Self::class_of`] ids. A fleet orchestrator calls this each
    /// audit epoch to decide whether to migrate. The default issues one
    /// [`Self::predict_classes`] per resident; implementations that can
    /// evaluate a whole NIC at once (the oracle's single co-run) may
    /// override it.
    fn reevaluate(
        &mut self,
        model: NicModelId,
        classes: &[u32],
        residents: &[&Placed],
    ) -> Vec<usize> {
        (0..residents.len())
            .filter(|&i| {
                self.predict_classes(model, i, classes, &|k| residents[k])
                    < residents[i].sla_floor(model)
            })
            .collect()
    }

    /// Absorbs audited ground-truth observations into whatever trained
    /// state backs the predictor, re-fitting the affected model cells —
    /// the online-refinement hook a fleet orchestrator calls with the
    /// observations its SLA audits measured anyway. Returns observations
    /// absorbed. The default is a no-op: prediction-free strategies have
    /// nothing to refine, and the *oracle* deliberately stays the fixed
    /// ground-truth reference (refining it would be circular).
    fn absorb(&mut self, _buffer: &ObservationBuffer, _engine: &Engine) -> usize {
        0
    }

    /// Predictions requested so far, how many were answered from a memo
    /// of earlier answers, how many forest walks the rest cost, and how
    /// often the memo was emptied — `None` for a predictor that keeps no
    /// memo. A fleet run exports it as the `predict.*` counters.
    fn memo_stats(&self) -> Option<MemoStats> {
        None
    }
}

/// The placement strategies of Table 6.
pub enum Strategy<'a> {
    /// One NF per NIC.
    Monopolization,
    /// Most-available-cores first, prediction-free.
    Greedy,
    /// Place only if `predictor` foresees no SLA violation on the NIC.
    ContentionAware(&'a mut dyn PlacementPredictor),
}

/// Result of placing one arrival sequence.
#[derive(Debug, Clone)]
pub struct PlacementOutcome {
    /// NICs used, each holding its placed NFs.
    pub nics: Vec<Vec<Placed>>,
    /// Ground-truth SLA violations across all placed NFs.
    pub violations: usize,
    /// Total NFs placed.
    pub placed: usize,
    /// Arrivals rejected as capability-infeasible on the episode's NIC
    /// model (no solo baseline there — e.g. a regex NF on a regex-less
    /// NIC).
    pub rejected: usize,
}

impl PlacementOutcome {
    /// Fraction of placed NFs whose SLA is violated at ground truth.
    pub fn violation_rate(&self) -> f64 {
        if self.placed == 0 {
            0.0
        } else {
            self.violations as f64 / self.placed as f64
        }
    }

    /// Resource wastage vs. a reference plan: `(used - reference) /
    /// reference` (can be negative for plans that over-pack and violate
    /// SLAs, as SLOMO does in the paper).
    pub fn wastage_vs(&self, reference_nics: usize) -> f64 {
        assert!(
            reference_nics > 0,
            "reference plan must use at least one NIC"
        );
        (self.nics.len() as f64 - reference_nics as f64) / reference_nics as f64
    }
}

/// THE single-sourced profile measurement: profiles `kind` at `traffic`
/// (packet replay through the real NF, seeded by `seed`) and
/// solo-measures the workload on every `(model, simulator)` pair, in
/// order. Every profiling entry point — arrival preparation
/// ([`prepare_all`]), the fleet timelines, the daemon, and profile-cache
/// misses ([`yala_core::profile_cache::ProfileCache::get_or_measure`]) —
/// runs this one body, so a cache hit is provably the same bytes as the
/// fresh measurement it replaced. The packet replay goes through the
/// calling thread's profiler ([`NfKind::workload`]).
pub fn measure_entry(
    sims: &mut [(NicModelId, Simulator)],
    kind: NfKind,
    traffic: TrafficProfile,
    seed: u64,
) -> ProfileEntry {
    solo_entry(sims, traffic, seed, kind.workload(traffic, seed))
}

/// [`measure_entry`] with the packet replay through `profiler` instead of
/// the calling thread's: the same bytes, but a caller that measures one
/// seed again and again between other seeds' measurements keeps that
/// seed's prefix family in its own profiler (see [`Profiler`]).
pub fn measure_entry_with(
    profiler: &mut Profiler,
    sims: &mut [(NicModelId, Simulator)],
    kind: NfKind,
    traffic: TrafficProfile,
    seed: u64,
) -> ProfileEntry {
    let workload = kind.workload_with(profiler, traffic, seed);
    solo_entry(sims, traffic, seed, workload)
}

/// The body [`measure_entry`] and [`measure_entry_with`] share: names the
/// profiled `workload` after `seed` and solo-measures it on every
/// simulator.
fn solo_entry(
    sims: &mut [(NicModelId, Simulator)],
    traffic: TrafficProfile,
    seed: u64,
    mut workload: WorkloadSpec,
) -> ProfileEntry {
    // Co-runs require unique names; instances of the same NF type must not
    // collide. Callers rebrand per instance where one entry is shared.
    workload.name = format!("{}-{seed}", workload.name);
    let solos = sims
        .iter_mut()
        .map(|(model, sim)| {
            let outcome = sim.solo(&workload);
            (
                *model,
                SoloProfile {
                    solo_tput: outcome.throughput_pps,
                    counters: outcome.counters,
                },
            )
        })
        .collect();
    ProfileEntry {
        traffic,
        workload,
        solos,
    }
}

/// Materializes a [`Placed`] record from a (possibly cached)
/// [`ProfileEntry`]: the shared measurement bytes are copied verbatim;
/// only the instance identity (`name`, if given) and the arrival
/// metadata differ between instances sharing one entry.
pub fn placed_from_entry(entry: &ProfileEntry, arrival: Arrival, name: Option<&str>) -> Placed {
    let mut workload = entry.workload.clone();
    if let Some(n) = name {
        workload.name = n.to_string();
    }
    Placed {
        arrival,
        workload,
        solos: entry
            .solos
            .iter()
            .map(|(model, s)| {
                (
                    *model,
                    SoloMeasure {
                        solo_tput: s.solo_tput,
                        counters: s.counters,
                    },
                )
            })
            .collect(),
    }
}

/// Prepares a whole arrival sequence against a NIC-model portfolio, one
/// independent scenario per arrival, dispatched across `engine`'s worker
/// pool. Arrival `i` is profiled once (packet replay through the real NF
/// is hardware-independent) and solo-measured per admitted model
/// ([`NfKind::profiled_on`], so `solos` follows `specs`) on private
/// simulators seeded
/// `scenario_seed(model_seed_base(base_seed, m), i)` — model 0's stream
/// is exactly the old single-spec stream, so a one-spec portfolio
/// reproduces the homogeneous preparation bit for bit. The returned
/// sequence — and therefore every placement decision derived from it —
/// is bit-identical whatever the engine's thread count.
pub fn prepare_all(
    specs: &[NicSpec],
    noise_sigma: f64,
    arrivals: &[Arrival],
    base_seed: u64,
    engine: &Engine,
) -> Vec<Placed> {
    engine.run(arrivals.len(), |i| {
        let arrival = arrivals[i].clone();
        let mut sims = sims_for(specs, arrival.kind, noise_sigma, base_seed, i);
        let seed = base_seed.wrapping_add(i as u64);
        let entry = measure_entry(&mut sims, arrival.kind, arrival.traffic, seed);
        placed_from_entry(&entry, arrival, None)
    })
}

/// The per-model simulators for scenario `i` of an arrival of `kind`:
/// one per portfolio spec that admits the kind, seeded per
/// `(model position, scenario index)`. A keyed (cache-shared) miss passes
/// its key's seed at scenario 0, so misses on one key measure alike.
pub fn sims_for(
    specs: &[NicSpec],
    kind: NfKind,
    noise_sigma: f64,
    base_seed: u64,
    scenario: usize,
) -> Vec<(NicModelId, Simulator)> {
    specs
        .iter()
        .enumerate()
        .filter(|(_, spec)| kind.profiled_on(spec))
        .map(|(m, spec)| {
            (
                spec.model(),
                simulator_for(
                    spec,
                    noise_sigma,
                    scenario_seed(model_seed_base(base_seed, m), scenario),
                ),
            )
        })
        .collect()
}

/// Runs one online placement episode on a homogeneous bank of NICs of
/// `sim`'s model: arrivals are placed one by one; capability-infeasible
/// arrivals (no solo baseline on the model) are rejected up front, never
/// silently mispredicted. Ground truth (violations) is evaluated once at
/// the end by co-running every NIC in the simulator.
pub fn place_sequence(
    sim: &mut Simulator,
    arrivals: &[Placed],
    mut strategy: Strategy<'_>,
) -> PlacementOutcome {
    let model = sim.spec().model();
    let max_cores = sim.spec().cores;
    let mut nics: Vec<Vec<Placed>> = Vec::new();
    let mut rejected = 0usize;
    for nf in arrivals {
        if !nf.supported_on(model) {
            rejected += 1;
            continue;
        }
        let slot = match &mut strategy {
            Strategy::Monopolization => None,
            Strategy::Greedy => nics
                .iter()
                .enumerate()
                .filter(|(_, nic)| fits(nic, nf, max_cores))
                .max_by_key(|(_, nic)| {
                    max_cores - nic.iter().map(|p| p.workload.cores).sum::<u32>()
                })
                .map(|(i, _)| i),
            Strategy::ContentionAware(pred) => nics.iter().position(|nic| {
                if !fits(nic, nf, max_cores) {
                    return false;
                }
                let candidate: Vec<&Placed> = nic.iter().chain([nf]).collect();
                (0..candidate.len()).all(|i| {
                    pred.predict_refs(model, i, &candidate) >= candidate[i].sla_floor(model)
                })
            }),
        };
        match slot {
            Some(i) => nics[i].push(nf.clone()),
            None => nics.push(vec![nf.clone()]),
        }
    }
    // Ground-truth evaluation.
    let mut violations = 0usize;
    let mut placed = 0usize;
    for nic in &nics {
        let workloads: Vec<WorkloadSpec> = nic.iter().map(|p| p.workload.clone()).collect();
        let report = sim.co_run(&workloads);
        placed += nic.len();
        for (p, o) in nic.iter().zip(&report.outcomes) {
            if o.throughput_pps < p.sla_floor(model) {
                violations += 1;
            }
        }
    }
    PlacementOutcome {
        nics,
        violations,
        placed,
        rejected,
    }
}

fn fits(nic: &[Placed], nf: &Placed, max_cores: u32) -> bool {
    nic.iter().map(|p| p.workload.cores).sum::<u32>() + nf.workload.cores <= max_cores
}

/// Forest cells a predictor remembers, split evenly over its bank
/// cells' [`CellMemo`]s: 1.5 MiB at the memory model's ten features,
/// which with the 2.35 MiB of answers bounds a predictor's memos below
/// 4 MiB whatever the bank and the fleet.
const CELL_MEMO_CAP: usize = 1 << 15;

/// Yala as a placement predictor: per-NIC-model trained models from a
/// [`ModelBank`]. The predictor *owns* its bank (cloned from the trained
/// reference at construction) so it can refine cells mid-episode from
/// audit observations ([`PlacementPredictor::absorb`]) without mutating
/// the caller's frozen copy — and, since nothing else can change that
/// bank, so it can remember what it has already worked out
/// ([`PlacementPredictor::memo_stats`]): the answers to whole questions
/// (see the `memo` module), and under them, per bank cell, the memory
/// model's answers by forest cell.
pub struct YalaPredictor {
    bank: ModelBank<YalaModel>,
    absorbed: usize,
    refine_passes: usize,
    memo: memo::Memo,
    /// One memo per bank cell, in bank order.
    cells: Vec<CellMemo>,
    /// Each bank cell's place among its NIC model's cells: which of a
    /// competitor's [`memo::Described::counter_words`] it reads.
    slots: Vec<usize>,
    /// Per resident of the evaluation in progress, where its description
    /// is: a tabled slot, or one of `loose` (its class is no longer
    /// tabled). Kept, with the evaluation's contender slate, for their
    /// capacity; so are the class ids of the by-content question in
    /// progress.
    described: Vec<Result<usize, usize>>,
    loose: Vec<memo::Described>,
    slate: Vec<Contender>,
    named: Vec<u32>,
}

impl YalaPredictor {
    /// Clones a trained per-model bank into a refinable working copy.
    pub fn new(bank: &ModelBank<YalaModel>) -> Self {
        Self::with_memo_cap(bank, memo::DEFAULT_CAP)
    }

    /// [`Self::new`] with every memo — answers, tabled resident
    /// descriptions, forest cells per bank cell — sized for `cap` entries
    /// (rounded up to whole sets) instead of its default. Every
    /// prediction is the same at any cap; the tests of that claim need
    /// memos small enough to overflow.
    pub fn with_memo_cap(bank: &ModelBank<YalaModel>, cap: usize) -> Self {
        Self {
            bank: bank.clone(),
            absorbed: 0,
            refine_passes: 0,
            memo: memo::Memo::new(cap),
            cells: vec![CellMemo::new(cap.min(CELL_MEMO_CAP / bank.len().max(1))); bank.len()],
            slots: bank
                .iter()
                .enumerate()
                .map(|(at, (model, _, _))| bank.iter().take(at).filter(|c| c.0 == model).count())
                .collect(),
            described: Vec::new(),
            loose: Vec::new(),
            slate: Vec::new(),
            named: Vec::new(),
        }
    }

    /// The predictor's current (possibly refined) bank.
    pub fn bank(&self) -> &ModelBank<YalaModel> {
        &self.bank
    }

    /// Observations absorbed across all [`PlacementPredictor::absorb`]
    /// calls.
    pub fn absorbed(&self) -> usize {
        self.absorbed
    }

    /// Absorb passes that refined at least one cell.
    pub fn refine_passes(&self) -> usize {
        self.refine_passes
    }

    /// Resident descriptions tabled right now: bounded by the memo cap
    /// however many [`PlacementPredictor::class_of`] calls were served.
    pub fn classes_tabled(&self) -> usize {
        self.memo.classes_tabled()
    }
}

impl PlacementPredictor for YalaPredictor {
    /// Names the residents, then asks by name: one memo, one path.
    fn predict_refs(&mut self, model: NicModelId, target: usize, residents: &[&Placed]) -> f64 {
        let mut classes = std::mem::take(&mut self.named);
        classes.clear();
        classes.extend(residents.iter().map(|p| self.memo.class_of(model, p)));
        let predicted = self.predict_classes(model, target, &classes, &|k| residents[k]);
        self.named = classes;
        predicted
    }

    fn class_of(&mut self, model: NicModelId, p: &Placed) -> u32 {
        self.memo.class_of(model, p)
    }

    fn predict_classes<'p>(
        &mut self,
        model: NicModelId,
        target: usize,
        classes: &[u32],
        resident: &dyn Fn(usize) -> &'p Placed,
    ) -> f64 {
        let key = self.memo.key(target, classes);
        if let Some(known) = self.memo.get(key) {
            return known;
        }
        let Self {
            bank,
            memo,
            cells,
            slots,
            described,
            loose,
            slate,
            ..
        } = self;
        described.clear();
        loose.clear();
        for (k, &class) in classes.iter().enumerate() {
            let describe = || describe(bank, model, resident(k));
            described.push(match memo.slot(class) {
                Some(slot) => {
                    memo.describe(slot, describe);
                    Ok(slot)
                }
                None => {
                    loose.push(describe());
                    Err(loose.len() - 1)
                }
            });
        }
        let of = |k: usize| match described[k] {
            Ok(slot) => memo.described(slot),
            Err(at) => &loose[at],
        };
        let t = of(target);
        let others = (0..classes.len()).filter(|&k| k != target);
        slate.clear();
        slate.extend(others.clone().map(|k| of(k).contender.clone()));
        // The question's forest cell: the competitors' aggregate counters
        // (one competitor's are its own), then the target's traffic.
        let yala = bank.at(t.cell);
        let mut cell = [0; N_COUNTER_FEATURES + N_TRAFFIC_FEATURES];
        cell[..N_COUNTER_FEATURES].copy_from_slice(&match slate.len() {
            1 => of(others.clone().next().expect("one competitor")).counter_words[slots[t.cell]],
            _ => yala.memory.counter_words(&aggregate_counters(slate)),
        });
        cell[N_COUNTER_FEATURES..].copy_from_slice(&t.traffic_words);
        let predicted = yala.predict_cell(
            &mut cells[t.cell],
            &cell[..yala.memory.cell_width()],
            t.solo_tput,
            &t.traffic,
            slate,
        );
        memo.put(key, predicted);
        predicted
    }

    fn absorb(&mut self, buffer: &ObservationBuffer, engine: &Engine) -> usize {
        let refits = |bank: &ModelBank<YalaModel>| -> Vec<u32> {
            bank.iter().map(|(_, _, m)| m.refits()).collect()
        };
        let before = refits(&self.bank);
        let n = self.bank.refine(buffer, engine);
        if n > 0 {
            self.absorbed += n;
            self.refine_passes += 1;
            // The refit cells answer differently from now on, and grew
            // other forests.
            self.memo.clear_answers();
            for (cell, (was, is)) in before.iter().zip(refits(&self.bank)).enumerate() {
                if *was != is {
                    self.cells[cell].clear();
                }
            }
        }
        n
    }

    fn memo_stats(&self) -> Option<MemoStats> {
        Some(MemoStats {
            cell_hits: self.cells.iter().map(CellMemo::hits).sum(),
            forest_walks: self.cells.iter().map(CellMemo::walks).sum(),
            ..self.memo.stats
        })
    }
}

/// What an evaluation on a NIC of `model` reads of resident `p`.
fn describe(bank: &ModelBank<YalaModel>, model: NicModelId, p: &Placed) -> memo::Described {
    let kind = p.arrival.kind;
    let cell = bank
        .position(model, kind)
        .unwrap_or_else(|| panic!("no model trained for {kind} on NIC model {model}"));
    let solo = p.solo(model);
    let traffic = p.arrival.traffic;
    let own = bank.at(cell);
    memo::Described {
        cell,
        solo_tput: solo.solo_tput,
        traffic,
        contender: own.as_contender(solo.counters, traffic.mtbr),
        traffic_words: own.memory.traffic_words(&traffic),
        counter_words: bank
            .iter()
            .filter(|(m, _, _)| *m == model)
            .map(|(_, _, yala)| yala.memory.counter_words(&solo.counters))
            .collect(),
    }
}

/// SLOMO as a placement predictor (memory-only view + extrapolation),
/// with per-NIC-model trained models. Owns a refinable working copy of
/// its bank, like [`YalaPredictor`].
pub struct SlomoPredictor {
    bank: ModelBank<SlomoModel>,
    absorbed: usize,
    refine_passes: usize,
}

impl SlomoPredictor {
    /// Clones a trained per-model bank into a refinable working copy.
    pub fn new(bank: &ModelBank<SlomoModel>) -> Self {
        Self {
            bank: bank.clone(),
            absorbed: 0,
            refine_passes: 0,
        }
    }

    /// The predictor's current (possibly refined) bank.
    pub fn bank(&self) -> &ModelBank<SlomoModel> {
        &self.bank
    }

    /// Observations absorbed across all [`PlacementPredictor::absorb`]
    /// calls.
    pub fn absorbed(&self) -> usize {
        self.absorbed
    }

    /// Absorb passes that refined at least one cell.
    pub fn refine_passes(&self) -> usize {
        self.refine_passes
    }
}

impl PlacementPredictor for SlomoPredictor {
    fn predict_refs(&mut self, model: NicModelId, target: usize, residents: &[&Placed]) -> f64 {
        let t = residents[target];
        let agg = CounterSample::aggregate(
            residents
                .iter()
                .enumerate()
                .filter(|(i, _)| *i != target)
                .map(|(_, p)| &p.solo(model).counters),
        );
        self.bank
            .expect(model, t.arrival.kind)
            .predict_extrapolated(&agg, t.solo(model).solo_tput)
    }

    fn absorb(&mut self, buffer: &ObservationBuffer, engine: &Engine) -> usize {
        let n = self.bank.refine(buffer, engine);
        if n > 0 {
            self.absorbed += n;
            self.refine_passes += 1;
        }
        n
    }
}

/// Ground-truth simulation as the predictor: the oracle/reference plan,
/// with one private noise-free simulator per NIC model it may be asked
/// about. The oracle keeps the default no-op
/// [`PlacementPredictor::absorb`]: it *is* the ground truth the
/// observations were measured against, so it stays the fixed reference
/// online refinement is compared to.
pub struct OraclePredictor {
    sims: Vec<(NicModelId, Simulator)>,
}

impl OraclePredictor {
    /// Builds an oracle around a fresh simulator for one NIC model.
    pub fn new(spec: NicSpec) -> Self {
        Self::for_models(std::slice::from_ref(&spec))
    }

    /// Builds an oracle covering every model of a portfolio.
    pub fn for_models(specs: &[NicSpec]) -> Self {
        Self {
            sims: specs
                .iter()
                .map(|s| (s.model(), Simulator::new(s.clone())))
                .collect(),
        }
    }

    fn sim(&mut self, model: NicModelId) -> &mut Simulator {
        self.sims
            .iter_mut()
            .find(|(m, _)| *m == model)
            .map(|(_, s)| s)
            .unwrap_or_else(|| panic!("oracle has no simulator for NIC model {model}"))
    }
}

impl PlacementPredictor for OraclePredictor {
    fn predict_refs(&mut self, model: NicModelId, target: usize, residents: &[&Placed]) -> f64 {
        let workloads: Vec<WorkloadSpec> = residents.iter().map(|p| p.workload.clone()).collect();
        self.sim(model).co_run(&workloads).outcomes[target].throughput_pps
    }

    /// One co-run yields every resident's ground-truth throughput, so the
    /// oracle audits a whole NIC with a single fixed-point solve instead
    /// of `residents.len()` of them.
    fn reevaluate(
        &mut self,
        model: NicModelId,
        _classes: &[u32],
        residents: &[&Placed],
    ) -> Vec<usize> {
        if residents.is_empty() {
            return Vec::new();
        }
        let workloads: Vec<WorkloadSpec> = residents.iter().map(|p| p.workload.clone()).collect();
        let report = self.sim(model).co_run(&workloads);
        residents
            .iter()
            .zip(&report.outcomes)
            .enumerate()
            .filter(|(_, (p, o))| o.throughput_pps < p.sla_floor(model))
            .map(|(i, _)| i)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn sim() -> Simulator {
        Simulator::new(NicSpec::bluefield2())
    }

    fn bf2() -> NicModelId {
        NicSpec::bluefield2().model()
    }

    /// Profiles `arrival` on a fresh noise-free BlueField-2.
    fn prepare(arrival: Arrival, seed: u64) -> Placed {
        let mut sims = [(bf2(), sim())];
        let entry = measure_entry(&mut sims, arrival.kind, arrival.traffic, seed);
        placed_from_entry(&entry, arrival, None)
    }

    fn arrivals(n: usize) -> Vec<Placed> {
        let kinds = [
            NfKind::FlowStats,
            NfKind::Acl,
            NfKind::IpRouter,
            NfKind::Nat,
        ];
        let mut rng = StdRng::seed_from_u64(3);
        (0..n)
            .map(|i| {
                let arrival = Arrival {
                    kind: kinds[i % kinds.len()],
                    traffic: TrafficProfile::default(),
                    sla_drop: rng.gen_range(0.05..0.20),
                    qos: QosClass::Guaranteed,
                };
                prepare(arrival, i as u64)
            })
            .collect()
    }

    #[test]
    fn monopolization_never_violates() {
        let mut s = sim();
        let a = arrivals(8);
        let out = place_sequence(&mut s, &a, Strategy::Monopolization);
        assert_eq!(out.nics.len(), 8);
        assert_eq!(out.violations, 0);
        assert_eq!(out.rejected, 0);
    }

    #[test]
    fn greedy_uses_fewer_nics_but_may_violate() {
        let mut s = sim();
        let a = arrivals(12);
        let mono = place_sequence(&mut s, &a, Strategy::Monopolization);
        let greedy = place_sequence(&mut s, &a, Strategy::Greedy);
        assert!(greedy.nics.len() < mono.nics.len());
        // 4 NFs of 2 cores fit an 8-core NIC.
        assert_eq!(greedy.nics.len(), 3);
    }

    #[test]
    fn oracle_respects_slas_with_fewer_nics_than_monopolization() {
        let mut s = sim();
        let a = arrivals(12);
        let mut oracle = OraclePredictor::new(NicSpec::bluefield2());
        let out = place_sequence(&mut s, &a, Strategy::ContentionAware(&mut oracle));
        assert_eq!(out.violations, 0, "oracle must not violate");
        assert!(out.nics.len() <= 12);
    }

    #[test]
    fn wastage_accounting() {
        let out = PlacementOutcome {
            nics: vec![vec![], vec![], vec![]],
            violations: 1,
            placed: 10,
            rejected: 0,
        };
        assert!((out.wastage_vs(2) - 0.5).abs() < 1e-12);
        assert!((out.violation_rate() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn prepare_all_parallel_matches_sequential_loop() {
        let specs = [NicSpec::bluefield2()];
        let kinds = [NfKind::FlowStats, NfKind::Acl, NfKind::Nat];
        let arrivals: Vec<Arrival> = (0..6)
            .map(|i| Arrival {
                kind: kinds[i % kinds.len()],
                traffic: TrafficProfile::new(4_000 + 1_000 * i as u32, 512, 0.0),
                sla_drop: 0.1,
                qos: QosClass::Guaranteed,
            })
            .collect();
        let par = prepare_all(&specs, 0.0, &arrivals, 40, &Engine::with_threads(4));
        let seq = prepare_all(&specs, 0.0, &arrivals, 40, &Engine::sequential());
        assert_eq!(par.len(), 6);
        for (p, s) in par.iter().zip(&seq) {
            assert_eq!(p.workload, s.workload);
            assert_eq!(p.solos, s.solos);
        }
        // ...and the placement decisions derived from them are identical.
        let mut sim = sim();
        let g1 = place_sequence(&mut sim, &par, Strategy::Greedy);
        let g2 = place_sequence(&mut sim, &seq, Strategy::Greedy);
        assert_eq!(g1.nics.len(), g2.nics.len());
        assert_eq!(g1.violations, g2.violations);
    }

    #[test]
    fn prepare_all_profiles_per_model_and_skips_infeasible() {
        let specs = [NicSpec::bluefield2(), NicSpec::pensando()];
        let arrivals = vec![
            Arrival {
                kind: NfKind::FlowStats, // memory-only: both models
                traffic: TrafficProfile::default(),
                sla_drop: 0.1,
                qos: QosClass::Guaranteed,
            },
            Arrival {
                kind: NfKind::Nids, // regex: BlueField-2 only
                traffic: TrafficProfile::default(),
                sla_drop: 0.1,
                qos: QosClass::Guaranteed,
            },
        ];
        let placed = prepare_all(&specs, 0.0, &arrivals, 7, &Engine::sequential());
        let (bf2, pen) = (specs[0].model(), specs[1].model());
        assert!(placed[0].supported_on(bf2) && placed[0].supported_on(pen));
        assert!(placed[1].supported_on(bf2) && !placed[1].supported_on(pen));
        // The two hardware models measure different solo baselines.
        assert_ne!(placed[0].solo(bf2).solo_tput, placed[0].solo(pen).solo_tput);
        // Model 0's baseline matches the homogeneous single-spec path.
        let homog = prepare_all(&specs[..1], 0.0, &arrivals, 7, &Engine::sequential());
        assert_eq!(placed[0].solo(bf2), homog[0].solo(bf2));
        assert_eq!(placed[1].solo(bf2), homog[1].solo(bf2));
    }

    #[test]
    fn infeasible_arrivals_are_rejected_not_placed() {
        let mut pen_sim = Simulator::new(NicSpec::pensando());
        let specs = [NicSpec::bluefield2(), NicSpec::pensando()];
        let arrivals: Vec<Arrival> = [NfKind::Nids, NfKind::FlowStats, NfKind::PacketFilter]
            .iter()
            .map(|&kind| Arrival {
                kind,
                traffic: TrafficProfile::default(),
                sla_drop: 0.1,
                qos: QosClass::Guaranteed,
            })
            .collect();
        let placed = prepare_all(&specs, 0.0, &arrivals, 3, &Engine::sequential());
        let out = place_sequence(&mut pen_sim, &placed, Strategy::Greedy);
        assert_eq!(out.rejected, 2, "both regex NFs rejected on Pensando");
        assert_eq!(out.placed, 1);
        for nic in &out.nics {
            for p in nic {
                assert!(p.supported_on(NicSpec::pensando().model()));
            }
        }
    }

    #[test]
    fn oracle_reevaluate_matches_default_hook() {
        // The oracle's single-co-run override must agree with the default
        // per-resident predict() loop (both are ground truth on a
        // noise-free simulator).
        let a = arrivals(6);
        struct DefaultOracle(Simulator);
        impl PlacementPredictor for DefaultOracle {
            fn predict_refs(
                &mut self,
                _model: NicModelId,
                target: usize,
                residents: &[&Placed],
            ) -> f64 {
                let ws: Vec<WorkloadSpec> = residents.iter().map(|p| p.workload.clone()).collect();
                self.0.co_run(&ws).outcomes[target].throughput_pps
            }
        }
        let mut oracle = OraclePredictor::new(NicSpec::bluefield2());
        let mut default_oracle = DefaultOracle(Simulator::new(NicSpec::bluefield2()));
        for chunk in a.chunks(3) {
            let chunk: Vec<&Placed> = chunk.iter().collect();
            // Neither predictor names residents: the ids are all 0.
            let unnamed = vec![0; chunk.len()];
            assert_eq!(
                oracle.reevaluate(bf2(), &unnamed, &chunk),
                default_oracle.reevaluate(bf2(), &unnamed, &chunk)
            );
        }
        assert!(oracle.reevaluate(bf2(), &[], &[]).is_empty());
    }

    #[test]
    fn tight_sla_forces_spreading() {
        let mut s = sim();
        // Memory-hungry NFs with a 1% SLA: the oracle must mostly isolate.
        let mut rng = StdRng::seed_from_u64(9);
        let a: Vec<Placed> = (0..6)
            .map(|i| {
                let _ = rng.gen::<f64>();
                prepare(
                    Arrival {
                        kind: NfKind::FlowStats,
                        traffic: TrafficProfile::new(200_000, 1500, 0.0),
                        sla_drop: 0.01,
                        qos: QosClass::Guaranteed,
                    },
                    i,
                )
            })
            .collect();
        let mut oracle = OraclePredictor::new(NicSpec::bluefield2());
        let strict = place_sequence(&mut s, &a, Strategy::ContentionAware(&mut oracle));
        assert_eq!(strict.violations, 0);
        let greedy = place_sequence(&mut s, &a, Strategy::Greedy);
        assert!(
            strict.nics.len() > greedy.nics.len(),
            "1% SLA should force more NICs than blind packing"
        );
    }
}
