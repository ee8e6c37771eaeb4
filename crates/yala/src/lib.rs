//! # yala — reproduction of *"Performance Prediction of On-NIC Network
//! Functions with Multi-Resource Contention and Traffic Awareness"*
//! (ASPLOS 2025)
//!
//! This facade crate re-exports every sub-crate of the workspace so examples
//! and downstream users can depend on a single `yala` crate:
//!
//! * [`ml`] — from-scratch gradient boosting / linear regression / metrics.
//! * [`rxp`] — regex engine standing in for the BlueField-2 RXP accelerator.
//! * [`traffic`] — traffic profiles, flows, packets, payload synthesis.
//! * [`sim`] — the SoC-SmartNIC simulator (memory subsystem, accelerators,
//!   performance counters, co-run contention solver).
//! * [`nf`] — network functions from Table 1 plus the synthetic bench NFs.
//! * [`core`] — the Yala prediction framework itself.
//! * [`slomo`] — the SLOMO baseline (`core::baseline`).
//! * [`placement`] — the contention-aware scheduling use case (§7.5.1).
//! * [`diagnosis`] — the performance-diagnosis use case (§7.5.2,
//!   `core::diagnosis`).
//! * [`fleet`] — the live-cluster orchestrator: traffic drift, periodic
//!   SLA audits, and reactive migration over simulated hours.
//! * [`telemetry`] — the deterministic observability plane: metrics
//!   registry, sim-time event journal, and the journal inspector behind
//!   the `fleet_inspect` bin.
//!
//! See `README.md` for a quickstart and `DESIGN.md` for the system inventory
//! and hardware-substitution notes.

pub use yala_core as core;
pub use yala_core::baseline as slomo;
pub use yala_core::diagnosis;
pub use yala_fleet as fleet;
pub use yala_ml as ml;
pub use yala_nf as nf;
pub use yala_placement as placement;
pub use yala_rxp as rxp;
pub use yala_sim as sim;
pub use yala_telemetry as telemetry;
pub use yala_traffic as traffic;
