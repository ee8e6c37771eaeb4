//! Per-NIC-model model banks: trained predictors keyed by
//! `(NicModelId, NfKind)`.
//!
//! A heterogeneous fleet mixes NIC hardware models (the paper's primary
//! BlueField-2 testbed plus the §8/Table 9 Pensando generalisation), and a
//! predictor trained against one model's memory subsystem and accelerator
//! service times is wrong on another's. The [`ModelBank`] is the registry
//! every layer above the simulator consults: *which* trained model applies
//! to *this* NF on *this* NIC model. Which `(model, NF)` cells exist is
//! governed by the per-model profiling matrix
//! ([`NfKind::profiled_on`]) — e.g. the Pensando-only Firewall is trained
//! there and nowhere else, and regex NFs are never trained on regex-less
//! hardware.
//!
//! Training seeds are assigned by the cell's position in the flattened
//! model-major matrix, so the first portfolio entry's cells get the exact
//! seeds a homogeneous single-model bank uses — an all-BlueField-2 bank
//! is bit-identical to the pre-heterogeneity models.

use crate::engine::{scenario_seed, simulator_for, Engine};
use crate::observe::{ObservationBuffer, Refinable};
use crate::predictor::{TrainConfig, YalaModel};
use yala_nf::NfKind;
use yala_sim::{NicModelId, NicSpec};

/// Trained models keyed by `(NicModelId, NfKind)`, one value per cell of
/// the per-model profiling matrix. Generic in the model type so the same
/// container serves Yala ([`YalaModel`]) and baseline (SLOMO) banks.
///
/// A bank is *versioned, refinable state*, not a train-once value: cells
/// can absorb in-production audit observations through [`Self::refine`]
/// while untouched cells stay bit-identical.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelBank<M> {
    entries: Vec<(NicModelId, NfKind, M)>,
}

impl<M> Default for ModelBank<M> {
    fn default() -> Self {
        Self::new()
    }
}

impl<M> ModelBank<M> {
    /// An empty bank.
    pub fn new() -> Self {
        Self {
            entries: Vec::new(),
        }
    }

    /// Inserts (or replaces) the model for one `(NIC model, NF)` cell.
    pub fn insert(&mut self, model: NicModelId, kind: NfKind, value: M) {
        if let Some(e) = self
            .entries
            .iter_mut()
            .find(|(m, k, _)| *m == model && *k == kind)
        {
            e.2 = value;
        } else {
            self.entries.push((model, kind, value));
        }
    }

    /// The trained model for `kind` on NICs of `model`, if that cell was
    /// trained.
    pub fn get(&self, model: NicModelId, kind: NfKind) -> Option<&M> {
        self.position(model, kind).map(|at| self.at(at))
    }

    /// Like [`Self::get`] but panics with a diagnostic when the cell is
    /// missing — the placement layers only query cells the profiling
    /// matrix admitted, so a miss is a wiring bug, not a runtime state.
    pub fn expect(&self, model: NicModelId, kind: NfKind) -> &M {
        self.get(model, kind)
            .unwrap_or_else(|| panic!("no model trained for {kind} on NIC model {model}"))
    }

    /// Where the `(model, kind)` cell sits in training order — an index
    /// for [`Self::at`] that stays valid for the life of the bank
    /// ([`Self::refine`] replaces cells in place).
    pub fn position(&self, model: NicModelId, kind: NfKind) -> Option<usize> {
        self.entries
            .iter()
            .position(|(m, k, _)| *m == model && *k == kind)
    }

    /// The model of the cell at `position`.
    ///
    /// # Panics
    ///
    /// Panics if `position` is not below [`Self::len`].
    pub fn at(&self, position: usize) -> &M {
        &self.entries[position].2
    }

    /// Whether the `(model, kind)` cell exists.
    pub fn contains(&self, model: NicModelId, kind: NfKind) -> bool {
        self.get(model, kind).is_some()
    }

    /// All cells, in training (model-major) order.
    pub fn iter(&self) -> impl Iterator<Item = (NicModelId, NfKind, &M)> {
        self.entries.iter().map(|(m, k, v)| (*m, *k, v))
    }

    /// Distinct NIC models present, in first-seen (portfolio) order.
    pub fn models(&self) -> Vec<NicModelId> {
        let mut out: Vec<NicModelId> = Vec::new();
        for (m, _, _) in &self.entries {
            if !out.contains(m) {
                out.push(*m);
            }
        }
        out
    }

    /// The NF kinds trained for `model`, in training order.
    pub fn kinds_for(&self, model: NicModelId) -> Vec<NfKind> {
        self.entries
            .iter()
            .filter(|(m, _, _)| *m == model)
            .map(|(_, k, _)| *k)
            .collect()
    }

    /// Number of trained cells.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the bank holds no cells.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Builds a bank by training every admitted `(spec, kind)` cell of the
    /// profiling matrix, dispatched across `engine`'s workers. Cells are
    /// enumerated model-major (`specs[0]`'s kinds first, in `kinds`
    /// order), and `train` receives the cell's flattened index — the
    /// scenario-seed index — so results are bit-identical across thread
    /// counts, and the first spec's cells reproduce the homogeneous
    /// single-spec training exactly.
    ///
    /// The engine runs one job per NF kind, claimed in the order of the
    /// kind's first cell: the kind's cells on every spec, in index order,
    /// on one worker. An NF's packet replay does not depend on the NIC,
    /// so the worker's `cached_workload` cache and profiler family serve
    /// the kind's later cells from its first cell's measurements. Both
    /// are exact, so each cell is still a pure function of its index.
    ///
    /// # Panics
    ///
    /// Panics if two specs share a model name (the portfolio must list
    /// each hardware model once).
    pub fn train_matrix<F>(specs: &[NicSpec], kinds: &[NfKind], engine: &Engine, train: F) -> Self
    where
        M: Send,
        F: Fn(&NicSpec, NfKind, usize) -> M + Sync,
    {
        let cells = matrix_cells(specs, kinds);
        let mut jobs: Vec<Vec<usize>> = Vec::new();
        for (i, &(_, kind)) in cells.iter().enumerate() {
            match jobs.iter_mut().find(|job| cells[job[0]].1 == kind) {
                Some(job) => job.push(i),
                None => jobs.push(vec![i]),
            }
        }
        let mut trained: Vec<(usize, M)> = engine
            .run(jobs.len(), |j| {
                jobs[j]
                    .iter()
                    .map(|&i| {
                        let (s, kind) = cells[i];
                        (i, train(&specs[s], kind, i))
                    })
                    .collect::<Vec<_>>()
            })
            .into_iter()
            .flatten()
            .collect();
        trained.sort_unstable_by_key(|&(i, _)| i);
        Self {
            entries: cells
                .iter()
                .zip(trained)
                .map(|(&(s, kind), (_, v))| (specs[s].model(), kind, v))
                .collect(),
        }
    }
}

impl<M: Refinable + Clone + Send + Sync> ModelBank<M> {
    /// Absorbs a buffer of audit observations: each *affected* cell —
    /// visited in the bank's model-major training order — re-fits from
    /// its own observations (in buffer append order), dispatched across
    /// `engine`'s workers. Untouched cells are not cloned or re-fitted
    /// and stay bit-identical. Returns total observations absorbed.
    ///
    /// Observations for cells the bank does not hold are *ignored*:
    /// refinement can sharpen a trained model but never resurrect a cell
    /// the profiling matrix excluded (e.g. a regex NF on regex-less
    /// hardware). Cell refits are pure functions of `(cell state,
    /// observation slice)`, so the refined bank is bit-identical across
    /// engine thread counts.
    pub fn refine(&mut self, buffer: &ObservationBuffer, engine: &Engine) -> usize {
        if buffer.is_empty() {
            return 0;
        }
        let affected: Vec<usize> = self
            .entries
            .iter()
            .enumerate()
            .filter(|(_, (m, k, _))| buffer.iter().any(|o| o.model == *m && o.kind == *k))
            .map(|(i, _)| i)
            .collect();
        if affected.is_empty() {
            return 0;
        }
        let refined: Vec<(M, usize)> = engine.run(affected.len(), |j| {
            let (m, k, v) = &self.entries[affected[j]];
            let mut model = v.clone();
            let absorbed = model.refine(&buffer.for_cell(*m, *k));
            (model, absorbed)
        });
        let mut total = 0;
        for (&i, (model, absorbed)) in affected.iter().zip(refined) {
            self.entries[i].2 = model;
            total += absorbed;
        }
        total
    }
}

/// The admitted `(spec index, kind)` cells of the per-model profiling
/// matrix for a portfolio, enumerated model-major (`specs[0]`'s kinds
/// first, in `kinds` order) — the single source of the cell ordering
/// (and the duplicate-model check) behind every bank trainer, so the
/// cell-index seeding contract cannot drift between the Yala and
/// baseline banks.
///
/// # Panics
///
/// Panics if two specs share a model name.
pub fn matrix_cells(specs: &[NicSpec], kinds: &[NfKind]) -> Vec<(usize, NfKind)> {
    let mut seen: Vec<NicModelId> = Vec::new();
    for spec in specs {
        assert!(
            !seen.contains(&spec.model()),
            "duplicate NIC model {} in training portfolio",
            spec.name
        );
        seen.push(spec.model());
    }
    specs
        .iter()
        .enumerate()
        .flat_map(|(s, spec)| {
            kinds
                .iter()
                .copied()
                .filter(|k| k.profiled_on(spec))
                .map(move |k| (s, k))
        })
        .collect()
}

impl ModelBank<YalaModel> {
    /// Trains the Yala bank for a NIC-model portfolio: one [`YalaModel`]
    /// per admitted `(model, kind)` cell, each on a private simulator
    /// seeded `scenario_seed(cfg.seed, cell_index)`, bit-identical across
    /// engine thread counts.
    pub fn train_yala(
        specs: &[NicSpec],
        noise_sigma: f64,
        kinds: &[NfKind],
        cfg: &TrainConfig,
        engine: &Engine,
    ) -> Self {
        Self::train_matrix(specs, kinds, engine, |spec, kind, i| {
            let mut sim = simulator_for(spec, noise_sigma, scenario_seed(cfg.seed, i));
            YalaModel::train(&mut sim, kind, cfg)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_expect_and_iter() {
        let bf2 = NicSpec::bluefield2().model();
        let pen = NicSpec::pensando().model();
        let mut bank: ModelBank<u32> = ModelBank::new();
        assert!(bank.is_empty());
        bank.insert(bf2, NfKind::FlowStats, 1);
        bank.insert(pen, NfKind::FlowStats, 2);
        bank.insert(bf2, NfKind::Nids, 3);
        bank.insert(bf2, NfKind::FlowStats, 10); // replace
        assert_eq!(bank.len(), 3);
        assert_eq!(bank.get(bf2, NfKind::FlowStats), Some(&10));
        assert_eq!(bank.get(pen, NfKind::Nids), None);
        assert_eq!(*bank.expect(pen, NfKind::FlowStats), 2);
        assert_eq!(bank.models(), vec![bf2, pen]);
        assert_eq!(bank.kinds_for(bf2), vec![NfKind::FlowStats, NfKind::Nids]);
        assert!(bank.contains(bf2, NfKind::Nids));
    }

    #[test]
    #[should_panic(expected = "no model trained")]
    fn expect_panics_on_missing_cell() {
        let bank: ModelBank<u32> = ModelBank::new();
        bank.expect(NicSpec::bluefield2().model(), NfKind::Acl);
    }

    const MIXED_KINDS: [NfKind; 3] = [NfKind::FlowStats, NfKind::Nids, NfKind::Firewall];

    /// The `(spec, kind, index)` cells of a BF-2 + Pensando portfolio
    /// over [`MIXED_KINDS`], in entry order.
    fn mixed_cells() -> Vec<(String, NfKind, usize)> {
        // BF-2 trains FlowStats + Nids (no Firewall: Pensando-only NF);
        // Pensando trains FlowStats + Firewall (no Nids: no regex engine).
        vec![
            ("bluefield2".to_string(), NfKind::FlowStats, 0),
            ("bluefield2".to_string(), NfKind::Nids, 1),
            ("pensando".to_string(), NfKind::FlowStats, 2),
            ("pensando".to_string(), NfKind::Firewall, 3),
        ]
    }

    #[test]
    fn matrix_respects_profiling_matrix_and_indexing() {
        let specs = [NicSpec::bluefield2(), NicSpec::pensando()];
        // Record which (spec, kind, index) triples training saw.
        let bank =
            ModelBank::train_matrix(&specs, &MIXED_KINDS, &Engine::sequential(), |s, k, i| {
                (s.name.clone(), k, i)
            });
        let cells: Vec<_> = bank.iter().map(|(_, _, v)| v.clone()).collect();
        assert_eq!(cells, mixed_cells());
        // First spec's cells use indices 0..: the homogeneous seed layout.
        let bf2 = specs[0].model();
        assert_eq!(bank.kinds_for(bf2), vec![NfKind::FlowStats, NfKind::Nids]);
    }

    #[test]
    fn a_kinds_cells_train_in_index_order_on_one_worker() {
        let specs = [NicSpec::bluefield2(), NicSpec::pensando()];
        let calls = std::sync::Mutex::new(Vec::new());
        let bank =
            ModelBank::train_matrix(&specs, &MIXED_KINDS, &Engine::with_threads(3), |s, k, i| {
                // Long enough that three workers each claim work at once.
                std::thread::sleep(std::time::Duration::from_millis(20));
                calls
                    .lock()
                    .unwrap()
                    .push((std::thread::current().id(), k, i));
                (s.name.clone(), k, i)
            });
        let calls = calls.into_inner().unwrap();
        assert_eq!(calls.len(), 4, "every cell trained once");
        for kind in MIXED_KINDS {
            let ran: Vec<_> = calls.iter().filter(|c| c.1 == kind).collect();
            assert!(
                ran.iter().all(|c| c.0 == ran[0].0),
                "{kind}'s cells ran on more than one worker: {calls:?}"
            );
            assert!(
                ran.windows(2).all(|w| w[0].2 < w[1].2),
                "{kind}'s cells ran out of index order: {calls:?}"
            );
        }
        let cells: Vec<_> = bank.iter().map(|(_, _, v)| v.clone()).collect();
        assert_eq!(cells, mixed_cells(), "entry order and indices");
    }

    #[test]
    #[should_panic(expected = "duplicate NIC model")]
    fn duplicate_models_rejected() {
        let specs = [NicSpec::bluefield2(), NicSpec::bluefield2()];
        ModelBank::train_matrix(&specs, &[NfKind::Acl], &Engine::sequential(), |_, _, i| i);
    }

    /// Toy refinable cell: counts absorbed observations and folds their
    /// measured values so refits are order-sensitive and comparable.
    #[derive(Debug, Clone, PartialEq)]
    struct Cell {
        absorbed: usize,
        folded: f64,
    }

    impl Refinable for Cell {
        fn refine(&mut self, observations: &[&crate::observe::Observation]) -> usize {
            for o in observations {
                self.absorbed += 1;
                self.folded = self.folded * 0.5 + o.measured_tput;
            }
            observations.len()
        }
    }

    fn observation(model: NicModelId, kind: NfKind, measured: f64) -> crate::observe::Observation {
        crate::observe::Observation {
            model,
            kind,
            traffic: yala_traffic::TrafficProfile::default(),
            competitors: yala_sim::CounterSample::default(),
            accel_pressure: Vec::new(),
            solo_tput: 1e6,
            measured_tput: measured,
        }
    }

    #[test]
    fn refine_touches_only_affected_cells_and_never_resurrects() {
        let bf2 = NicSpec::bluefield2().model();
        let pen = NicSpec::pensando().model();
        let zero = Cell {
            absorbed: 0,
            folded: 0.0,
        };
        let mut bank: ModelBank<Cell> = ModelBank::new();
        bank.insert(bf2, NfKind::FlowStats, zero.clone());
        bank.insert(bf2, NfKind::Nids, zero.clone());
        bank.insert(pen, NfKind::FlowStats, zero.clone());
        let mut buf = ObservationBuffer::new();
        buf.push(observation(bf2, NfKind::FlowStats, 1.0));
        buf.push(observation(bf2, NfKind::FlowStats, 2.0));
        // Nids is capability-infeasible on Pensando: the bank holds no
        // such cell, and refinement must not create one.
        buf.push(observation(pen, NfKind::Nids, 3.0));
        let absorbed = bank.refine(&buf, &Engine::sequential());
        assert_eq!(absorbed, 2, "only the trained cell's samples count");
        assert_eq!(bank.expect(bf2, NfKind::FlowStats).absorbed, 2);
        assert_eq!(bank.expect(bf2, NfKind::Nids), &zero, "untouched");
        assert_eq!(bank.expect(pen, NfKind::FlowStats), &zero, "untouched");
        assert!(
            !bank.contains(pen, NfKind::Nids),
            "refine must never resurrect an excluded cell"
        );
        assert_eq!(bank.len(), 3);
        // Empty buffer: strict no-op.
        let frozen = bank.clone();
        assert_eq!(bank.refine(&ObservationBuffer::new(), &Engine::auto()), 0);
        assert_eq!(bank, frozen);
    }

    #[test]
    fn refine_is_bit_identical_across_thread_counts() {
        let bf2 = NicSpec::bluefield2().model();
        let pen = NicSpec::pensando().model();
        let mut bank: ModelBank<Cell> = ModelBank::new();
        for (m, k) in [
            (bf2, NfKind::FlowStats),
            (bf2, NfKind::Acl),
            (pen, NfKind::FlowStats),
            (pen, NfKind::Nat),
        ] {
            bank.insert(
                m,
                k,
                Cell {
                    absorbed: 0,
                    folded: 0.1,
                },
            );
        }
        let mut buf = ObservationBuffer::new();
        for i in 0..24 {
            let model = if i % 2 == 0 { bf2 } else { pen };
            let kind = [NfKind::FlowStats, NfKind::Acl, NfKind::Nat][i % 3];
            buf.push(observation(model, kind, 0.3 + i as f64));
        }
        let mut seq = bank.clone();
        let mut par = bank;
        let a = seq.refine(&buf, &Engine::sequential());
        let b = par.refine(&buf, &Engine::with_threads(4));
        assert_eq!(a, b);
        assert_eq!(seq, par, "refined bank must not depend on thread count");
    }

    #[test]
    fn parallel_matrix_training_is_bit_identical() {
        let specs = [NicSpec::bluefield2(), NicSpec::pensando()];
        let kinds = [NfKind::FlowStats, NfKind::Acl, NfKind::Nat];
        let job = |s: &NicSpec, k: NfKind, i: usize| {
            scenario_seed(s.cores as u64, i).wrapping_add(k as u64)
        };
        let seq = ModelBank::train_matrix(&specs, &kinds, &Engine::sequential(), job);
        let par = ModelBank::train_matrix(&specs, &kinds, &Engine::with_threads(4), job);
        let a: Vec<_> = seq.iter().map(|(m, k, v)| (m, k, *v)).collect();
        let b: Vec<_> = par.iter().map(|(m, k, v)| (m, k, *v)).collect();
        assert_eq!(a, b);
    }
}
