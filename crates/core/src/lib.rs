//! # yala-core — the Yala prediction framework (the paper's contribution)
//!
//! Yala predicts the throughput an on-NIC network function will achieve
//! when co-located with other NFs, under **multi-resource contention**
//! (memory subsystem + hardware accelerators) and **varying traffic
//! attributes**. The design follows the paper exactly:
//!
//! * [`accel_model`] — white-box round-robin queueing model of accelerator
//!   contention (Eq. 1) with traffic-aware service times (Eq. 4), fitted by
//!   co-running the NF with a backlogged bench of known parameters.
//! * [`memory_model`] — black-box gradient-boosting model over the
//!   competitors' aggregate Table 11 counters, augmented with the target's
//!   traffic-attribute vector (§5.1.2).
//! * [`composition`] — execution-pattern-based composition: Eq. 2 for
//!   pipelines, Eq. 3 for run-to-completion, plus the sum/min baselines and
//!   the measurement-based pattern detector (§4.2).
//! * [`adaptive`] — adaptive profiling (Algorithm 1): prune insensitive
//!   traffic attributes, then binary-search sampling where solo throughput
//!   moves (§5.2); random/full profiling for cost comparisons.
//! * [`engine`] — the parallel scenario engine: independent simulator
//!   scenarios (training sweeps, fleet profiling, arrival preparation)
//!   dispatched across a std-thread worker pool with deterministic
//!   per-scenario seeding — bit-identical to the sequential path.
//! * [`profiler`] — the offline profiling sweeps driving the simulator with
//!   the synthetic benches (§6).
//! * [`profile_cache`] — the process-wide profile cache: deterministic,
//!   concurrency-safe memoization of `(kind, traffic, seed)` measurements,
//!   with quantized traffic keys so near-identical tenants share one
//!   measurement and a hit is bitwise the fresh result.
//! * [`predictor`] — [`YalaModel`]: train offline, then predict for any
//!   proposed co-location.
//! * [`observe`] — the online-refinement loop: audited in-production
//!   `(context, outcome)` pairs buffered into an [`ObservationBuffer`]
//!   and absorbed back into the trained banks ([`bank::ModelBank::refine`]),
//!   turning train-once values into versioned, refinable state.
//! * [`baseline`] — the SLOMO baseline (§7.1): Yala's fixed-traffic memory
//!   curve plus a solo-throughput ratio, blind to accelerator contention.
//! * [`diagnosis`] — bottleneck diagnosis (§7.5.2) and the diagnosis-guided
//!   victim election behind reactive migration.
//!
//! # Example
//!
//! ```no_run
//! use yala_core::{TrainConfig, YalaModel};
//! use yala_core::profiler::{mem_bench_contender, MemLevel};
//! use yala_nf::NfKind;
//! use yala_sim::{NicSpec, Simulator};
//! use yala_traffic::TrafficProfile;
//!
//! let mut sim = Simulator::with_noise(NicSpec::bluefield2(), 0.01, 7);
//! let model = YalaModel::train(&mut sim, NfKind::FlowMonitor, &TrainConfig::default());
//!
//! let traffic = TrafficProfile::new(64_000, 1024, 800.0);
//! let solo = sim.solo(&NfKind::FlowMonitor.workload(traffic, 1)).throughput_pps;
//! let competitor = mem_bench_contender(&mut sim, MemLevel { car: 1e8, wss: 6e6, cycles: 60.0 });
//! let predicted = model.predict(solo, &traffic, &[competitor]);
//! println!("predicted throughput: {predicted:.0} pps");
//! ```

pub mod accel_model;
pub mod adaptive;
pub mod bank;
pub mod baseline;
pub mod composition;
pub mod contender;
pub mod diagnosis;
pub mod engine;
pub mod memory_model;
pub mod observe;
pub mod predictor;
pub mod profile_cache;
pub mod profiler;
pub mod qos;

pub use accel_model::{AccelServiceModel, InferConfig};
pub use adaptive::{AdaptiveConfig, ProfilingRun, TrafficRanges};
pub use bank::ModelBank;
pub use composition::{compose, compose_min, compose_rtc, compose_sum, detect_pattern};
pub use contender::{AccelContention, Contender};
pub use engine::Engine;
pub use memory_model::MemoryModel;
pub use observe::{Observation, ObservationBuffer, Refinable};
pub use predictor::{Composition, TrainConfig, YalaModel};
pub use profile_cache::{
    profile_seed, CacheStats, ProfileCache, ProfileEntry, ProfileKey, SoloProfile, TrafficKey,
};
pub use qos::QosClass;
pub use yala_ml::{CellMemo, WordMemo};

#[cfg(test)]
mod tests;
