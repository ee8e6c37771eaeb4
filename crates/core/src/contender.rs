//! Descriptions of *competing* workloads as Yala sees them at prediction
//! time: a memory-side contentiousness vector (solo counters) plus, per
//! accelerator, the queue count and per-request service time that enter the
//! round-robin model (Eq. 1).

use std::borrow::Cow;
use yala_sim::{CounterSample, ResourceKind};

/// Accelerators one contender can press on: every [`ResourceKind`] but
/// `CpuMem`.
const MAX_ACCELS: usize = 3;

/// One competitor's presence on one accelerator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AccelContention {
    /// Which accelerator.
    pub kind: ResourceKind,
    /// Request queues the competitor holds open (the paper's `n_j`).
    pub queues: f64,
    /// Its per-request service time `t_j` (for NFs: from its fitted
    /// service-time law at its traffic's MTBR), seconds.
    pub service_s: f64,
}

impl AccelContention {
    /// The competitor's round-time contribution `n_j · t_j` (Eq. 1).
    pub fn pressure_s(&self) -> f64 {
        self.queues * self.service_s
    }
}

/// Everything Yala knows about one competitor when predicting a target's
/// throughput: no source code, only profiled observables. Plain data with
/// no heap behind it (a `'static` name costs nothing to clone), so the
/// placement loop can describe a NIC's residents without allocating.
#[derive(Debug, Clone, PartialEq)]
pub struct Contender {
    /// Display name.
    pub name: Cow<'static, str>,
    /// The competitor's solo counter vector (its memory contentiousness).
    pub counters: CounterSample,
    /// Its accelerator presence, one entry per accelerator it uses, in
    /// the order added.
    accel: [Option<AccelContention>; MAX_ACCELS],
}

impl Contender {
    /// A memory-only contender (e.g. mem-bench or a header-only NF).
    pub fn memory_only(name: impl Into<Cow<'static, str>>, counters: CounterSample) -> Self {
        Self {
            name: name.into(),
            counters,
            accel: [None; MAX_ACCELS],
        }
    }

    /// Adds accelerator presence (builder style).
    ///
    /// # Panics
    ///
    /// Panics on more entries than there are accelerator kinds.
    pub fn with_accel(mut self, accel: AccelContention) -> Self {
        let slot = self
            .accel
            .iter_mut()
            .find(|a| a.is_none())
            .expect("a contender presses on at most three accelerators");
        *slot = Some(accel);
        self
    }

    /// Total round-time pressure this contender puts on accelerator `kind`.
    pub fn pressure_on(&self, kind: ResourceKind) -> f64 {
        self.accel
            .iter()
            .flatten()
            .filter(|a| a.kind == kind)
            .map(|a| a.pressure_s())
            .sum()
    }
}

/// Aggregates competitor solo counters into the memory model's feature view.
pub fn aggregate_counters(contenders: &[Contender]) -> CounterSample {
    CounterSample::aggregate(contenders.iter().map(|c| &c.counters))
}

/// Sums all contenders' pressure on accelerator `kind` (the
/// `Σ_{j≠i} n_j t_j` term of Eq. 1).
pub fn total_pressure(contenders: &[Contender], kind: ResourceKind) -> f64 {
    contenders.iter().map(|c| c.pressure_on(kind)).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pressure_is_queues_times_service() {
        let a = AccelContention {
            kind: ResourceKind::Regex,
            queues: 2.0,
            service_s: 3e-7,
        };
        assert!((a.pressure_s() - 6e-7).abs() < 1e-18);
    }

    #[test]
    fn contender_pressure_filters_by_kind() {
        let c = Contender::memory_only("x", CounterSample::default())
            .with_accel(AccelContention {
                kind: ResourceKind::Regex,
                queues: 1.0,
                service_s: 1e-7,
            })
            .with_accel(AccelContention {
                kind: ResourceKind::Compression,
                queues: 1.0,
                service_s: 5e-7,
            });
        assert!((c.pressure_on(ResourceKind::Regex) - 1e-7).abs() < 1e-18);
        assert!((c.pressure_on(ResourceKind::Compression) - 5e-7).abs() < 1e-18);
        assert_eq!(c.pressure_on(ResourceKind::Crypto), 0.0);
    }

    #[test]
    fn totals_across_contenders() {
        let mk = |s: f64| {
            Contender::memory_only("x", CounterSample::default()).with_accel(AccelContention {
                kind: ResourceKind::Regex,
                queues: 1.0,
                service_s: s,
            })
        };
        let cs = [mk(1e-7), mk(2e-7)];
        assert!((total_pressure(&cs, ResourceKind::Regex) - 3e-7).abs() < 1e-18);
    }

    #[test]
    fn aggregate_counters_sums() {
        let a = CounterSample {
            l2crd: 5.0,
            ..Default::default()
        };
        let b = CounterSample {
            l2crd: 7.0,
            ..Default::default()
        };
        let cs = [
            Contender::memory_only("a", a),
            Contender::memory_only("b", b),
        ];
        assert_eq!(aggregate_counters(&cs).l2crd, 12.0);
    }
}
