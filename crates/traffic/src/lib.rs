//! # yala-traffic — traffic profiles, flows, packets, and payload synthesis
//!
//! Stands in for the paper's DPDK-Pktgen + exrex toolchain (§7.1). A
//! [`TrafficProfile`] captures the three traffic attributes Yala models
//! (§5.1): **flow count**, **packet size**, and **match-to-byte ratio**
//! (MTBR, in matches per MB of payload). [`PacketGenerator`] synthesises a
//! deterministic packet stream realising a profile: distinct 5-tuple flows
//! drawn uniformly (the paper's uniform flow-size distribution) and payloads
//! with ruleset matches planted at the target MTBR (the exrex substitute).
//!
//! The measurement dataplane is batched and allocation-free:
//! [`PacketGenerator::fill_batch`] writes packets into a reusable
//! [`PacketBatch`] arena (flat payload buffer + per-packet offsets) that NFs
//! consume as borrowed [`PacketView`]s. The owned-[`Packet`] scalar path
//! remains as the reference implementation.
//!
//! A seed's flows form one stream: the flow set of `n` flows is the first
//! `n` of the flow set of any larger count, so a generator re-targeted
//! under the same seed ([`PacketGenerator::reset`]) cuts its flow set
//! (and recovers the RNG) instead of synthesising it again.
//!
//! # Example
//!
//! ```
//! use yala_traffic::{PacketGenerator, TrafficProfile};
//! let profile = TrafficProfile::default(); // 16K flows, 1500 B, 600 matches/MB
//! let mut gen = PacketGenerator::new(profile, 42);
//! let batch = gen.batch(100);
//! assert_eq!(batch.len(), 100);
//! assert!(batch.iter().all(|p| p.wire_len() == 1500));
//! ```

pub mod batch;
pub mod flow;
pub mod packet;
pub mod payload;
pub mod pktgen;
pub mod profile;
pub mod quantize;

pub use batch::{PacketBatch, PacketView};
pub use flow::FiveTuple;
pub use packet::Packet;
pub use payload::PayloadSynthesizer;
pub use pktgen::PacketGenerator;
pub use profile::TrafficProfile;
pub use quantize::{DeltaRekey, QuantizedTraffic, TrafficQuantizer};
