//! Fleet policies: how arrivals are placed and how the control loop
//! reacts to (predicted) SLA violations.
//!
//! Placement mirrors the one-shot strategies of §7.5.1 — monopolization,
//! greedy most-available-cores, contention-aware first-fit behind a
//! [`PlacementPredictor`] — adapted to a *fixed* fleet: strategies pack
//! into already-occupied NICs first and power on an empty NIC only when
//! nothing occupied is feasible (otherwise a mostly-empty fleet would
//! turn every strategy into monopolization).
//!
//! The reactive half is new to the fleet: at each audit epoch the
//! contention-aware policies re-evaluate every NIC through the
//! predictor's [`PlacementPredictor::reevaluate`] hook and, on a
//! predicted violation, drain one resident — chosen by diagnosis
//! ([`yala_core::diagnosis::select_victim`]) as the co-resident pressing
//! hardest on the violator's bottleneck resource — and re-place it
//! elsewhere under the same predictor.

use crate::trace::FleetConfig;
use yala_core::diagnosis::diagnose_yala;
use yala_core::{Contender, Engine, ModelBank, YalaModel};
use yala_nf::NfKind;
use yala_placement::{Placed, PlacementPredictor, YalaPredictor};
use yala_sim::{NicModelId, ResourceKind};

/// How the migration loop diagnoses a predicted violator's bottleneck.
/// Every verdict is relative to a NIC *model*: the diagnoser consults
/// the trained models — and the residents' solo baselines — for the
/// hardware of the NIC under audit.
pub enum Diagnoser<'a> {
    /// Yala's per-resource models: the bottleneck is the resource whose
    /// model predicts the lowest throughput, and contenders carry their
    /// fitted accelerator pressure — victim selection can tell a regex
    /// hog from a cache hog.
    Yala(&'a ModelBank<YalaModel>),
    /// A memory-only worldview (SLOMO's): every violation is blamed on
    /// the memory subsystem, so the victim is always the highest-CAR
    /// co-resident — wrong whenever the real bottleneck is an
    /// accelerator.
    MemoryOnly,
}

impl Diagnoser<'_> {
    fn model(&self, nic_model: NicModelId, kind: NfKind) -> Option<&YalaModel> {
        match self {
            Diagnoser::Yala(bank) => Some(bank.expect(nic_model, kind)),
            Diagnoser::MemoryOnly => None,
        }
    }

    /// Contender descriptions for every resident except `exclude`, as
    /// seen on NICs of `nic_model`.
    pub fn contenders(
        &self,
        nic_model: NicModelId,
        residents: &[&Placed],
        exclude: usize,
    ) -> Vec<Contender> {
        residents
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != exclude)
            .map(|(_, p)| {
                let counters = p.solo(nic_model).counters;
                match self.model(nic_model, p.arrival.kind) {
                    Some(m) => m.as_contender(counters, p.arrival.traffic.mtbr),
                    None => Contender::memory_only(p.workload.name.clone(), counters),
                }
            })
            .collect()
    }

    /// The predicted bottleneck of `residents[violator]` on `nic_model`
    /// under this diagnoser's worldview; `co` must be the violator's
    /// contender slate from [`Self::contenders`] (built once by the
    /// caller, which also feeds it to victim selection).
    pub fn bottleneck(
        &self,
        nic_model: NicModelId,
        residents: &[&Placed],
        violator: usize,
        co: &[Contender],
    ) -> ResourceKind {
        match self {
            Diagnoser::MemoryOnly => ResourceKind::CpuMem,
            Diagnoser::Yala(_) => {
                let v = residents[violator];
                let model = self
                    .model(nic_model, v.arrival.kind)
                    .expect("yala diagnoser");
                diagnose_yala(model, v.solo(nic_model).solo_tput, &v.arrival.traffic, co).bottleneck
            }
        }
    }
}

/// Online-refinement knobs for a contention-aware policy: the SLA audits
/// already measure ground-truth co-run outcomes, so a policy may feed
/// them back into its predictor ([`PlacementPredictor::absorb`])
/// mid-episode. Refits are rate-limited by batch size — a refit re-fits
/// whole model cells, so absorbing one sample at a time would burn the
/// control loop's budget for no extra signal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OnlineRefine {
    /// Buffered observations required before an absorb pass runs (the
    /// buffer is drained on absorb). At most one pass per audit epoch.
    pub min_observations: usize,
}

impl Default for OnlineRefine {
    fn default() -> Self {
        Self {
            min_observations: 48,
        }
    }
}

/// A fleet policy: placement rule + (for contention-aware) the reactive
/// migration machinery.
pub enum FleetPolicy<'a> {
    /// One NF per NIC; no migration (nothing to migrate away from).
    Monopolization,
    /// Pack onto the occupied NIC with the most available cores,
    /// prediction-free; no migration.
    Greedy,
    /// Place and migrate only where `predictor` foresees no SLA
    /// violation; diagnose predicted violators with `diagnoser` to pick
    /// migration victims.
    ContentionAware {
        /// Judges candidate and drifted co-locations.
        predictor: &'a mut dyn PlacementPredictor,
        /// Attributes predicted violations to a bottleneck resource.
        diagnoser: Diagnoser<'a>,
        /// `Some` feeds audit ground truth back into the predictor
        /// (online refinement); `None` keeps the predictor frozen at its
        /// offline training (the paper's train-once setup).
        online: Option<OnlineRefine>,
        /// Whether placement, evacuation, and victim selection honor QoS
        /// tiers: guaranteed NFs are evacuated first (best ordering of
        /// scarce re-placement slots), best-effort NFs are shed/parked
        /// first, and no guaranteed NF is ever picked as a migration
        /// victim while a best-effort co-resident remains. With `false`
        /// the policy is QoS-blind — the pre-tier behavior, kept as the
        /// degradation baseline.
        qos_aware: bool,
    },
}

impl<'a> FleetPolicy<'a> {
    /// The predictor behind a contention-aware policy.
    pub fn predictor(&mut self) -> Option<&mut (dyn PlacementPredictor + 'a)> {
        match self {
            FleetPolicy::ContentionAware { predictor, .. } => Some(&mut **predictor),
            _ => None,
        }
    }

    /// Whether this is a contention-aware policy honoring QoS tiers.
    pub(crate) fn qos_aware(&self) -> bool {
        matches!(
            self,
            FleetPolicy::ContentionAware {
                qos_aware: true,
                ..
            }
        )
    }
}

/// A policy by its name — `mono`, `greedy`, `yala` or `yala-online` —
/// owning what it lends as a [`FleetPolicy`]: the yala policies' bank,
/// trained once (their diagnoser's), and the predictor cloned from it.
pub struct NamedPolicy {
    name: &'static str,
    predictor: Option<YalaPredictor>,
    bank: Option<ModelBank<YalaModel>>,
    online: Option<OnlineRefine>,
}

impl NamedPolicy {
    /// Parses `name`; `yala-online` refines on `online`'s terms.
    pub fn new(
        cfg: &FleetConfig,
        name: &str,
        online: OnlineRefine,
        engine: &Engine,
    ) -> Result<Self, String> {
        let name = ["mono", "greedy", "yala", "yala-online"]
            .into_iter()
            .find(|&n| n == name)
            .ok_or_else(|| format!("unknown policy {name}"))?;
        let bank = name.starts_with("yala").then(|| cfg.train_bank(engine));
        Ok(Self {
            name,
            predictor: bank.as_ref().map(YalaPredictor::new),
            bank,
            online: (name == "yala-online").then_some(online),
        })
    }

    /// Drops the trained bank, for a caller that never diagnoses (the
    /// daemon neither audits nor migrates): its policy then diagnoses
    /// memory-only, and the one bank it holds is the predictor's.
    pub fn without_diagnosis(mut self) -> Self {
        self.bank = None;
        self
    }

    /// The policy's name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// The yala policies' predictor.
    pub fn predictor(&mut self) -> Option<&mut YalaPredictor> {
        self.predictor.as_mut()
    }

    /// The policy, lent (`qos_aware` as in [`FleetPolicy`]).
    pub fn lend(&mut self, qos_aware: bool) -> FleetPolicy<'_> {
        match &mut self.predictor {
            Some(predictor) => FleetPolicy::ContentionAware {
                predictor,
                diagnoser: self
                    .bank
                    .as_ref()
                    .map_or(Diagnoser::MemoryOnly, Diagnoser::Yala),
                online: self.online,
                qos_aware,
            },
            None if self.name == "mono" => FleetPolicy::Monopolization,
            None => FleetPolicy::Greedy,
        }
    }
}
