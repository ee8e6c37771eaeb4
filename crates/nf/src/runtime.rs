//! The NF abstraction and the instrumentation harness that turns a real
//! packet-processing run into a [`WorkloadSpec`] for the simulator.
//!
//! NFs implement [`NetworkFunction::process`] over borrowed
//! [`PacketView`]s with genuine logic (hash tables, tries, payload scans)
//! and charge costs to a [`CostTracker`]. The
//! measurement dataplane is batched: a [`Profiler`] streams a traffic
//! profile through [`NetworkFunction::process_batch`] one reusable
//! [`PacketBatch`] arena at a time, folds the measured demand into a
//! [`CostAggregate`], and emits the simulator workload — so traffic
//! attributes shape resource demand through the actual code path (flow
//! count → table footprint, packet size → bytes touched, MTBR → matches
//! reported).
//!
//! Two harness entry points exist:
//!
//! * [`build_workload`] — the batched dataplane (the default everywhere).
//! * [`build_workload_per_packet`] — same packets, processed one view at a
//!   time with a fresh tracker per packet: the parity oracle proving the
//!   batched path changes nothing (`tests/batched_parity.rs`).

use crate::cost::{
    safe_div, CostAggregate, CostTracker, FRAMEWORK_CYCLES, FRAMEWORK_READS, FRAMEWORK_WRITES,
};
use crate::table::{Prefix, TableFamily};
use yala_sim::{ExecutionPattern, StageDemand, WorkloadSpec};
use yala_traffic::{PacketBatch, PacketGenerator, PacketView, TrafficProfile};

/// Default cores per NF (the paper gives every NF two dedicated cores).
pub const DEFAULT_CORES: u32 = 2;
/// Default packets sampled when profiling an NF into a workload.
pub const DEFAULT_SAMPLE_PACKETS: usize = 600;
/// Default packets per arena refill in the batched dataplane.
pub const DEFAULT_BATCH_PACKETS: usize = 64;

/// What an NF decides to do with a packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Forward the packet (possibly rewritten).
    Forward,
    /// Drop the packet.
    Drop,
}

/// A network function: real packet-processing logic plus cost reporting.
pub trait NetworkFunction {
    /// Stable, lowercase display name (e.g. `"flowstats"`).
    fn name(&self) -> &'static str;

    /// The execution pattern the NF's dataplane uses (§4.2).
    fn pattern(&self) -> ExecutionPattern;

    /// Processes one packet, charging costs to `cost`.
    fn process(&mut self, pkt: PacketView<'_>, cost: &mut CostTracker) -> Verdict;

    /// Processes a whole batch, charging all costs to one tracker, and
    /// returns how many packets were forwarded. The default implementation
    /// drives [`Self::process`] per view; NFs may override it with an
    /// equivalent vectorised loop, but must charge *identical* costs — the
    /// parity suite holds every implementation to the per-packet oracle.
    fn process_batch(&mut self, batch: &PacketBatch, cost: &mut CostTracker) -> usize {
        forwarded(batch, |_, pkt| self.process(pkt, cost))
    }

    /// Current working-set footprint of the NF's live data structures.
    fn wss_bytes(&self) -> f64;

    /// Pre-populates per-flow state so steady-state demand is measured
    /// (tables warmed) rather than cold-start insert storms. Called once,
    /// on a freshly built NF: every table is asked of `prefix`
    /// ([`Prefix::table`]) by its initial capacity, entry bytes, key rule
    /// and per-flow value, and replaces the empty one with what inserting
    /// the measurement's flows one by one would leave.
    fn warm(&mut self, prefix: &mut Prefix<'_>) {
        let _ = prefix;
    }
}

/// Runs `verdict` on each packet of `batch` with its index, in arrival
/// order, and returns how many packets it forwarded.
pub(crate) fn forwarded(
    batch: &PacketBatch,
    mut verdict: impl FnMut(usize, PacketView<'_>) -> Verdict,
) -> usize {
    batch
        .iter()
        .enumerate()
        .filter(|&(i, pkt)| verdict(i, pkt) == Verdict::Forward)
        .count()
}

/// The streaming measurement harness. A measurement is O(flows) set-up
/// (synthesise the flow set, warm the NF's tables with it) for a
/// 600-packet sample, so what a long-lived `Profiler` keeps between
/// calls is what set-up would otherwise redo or allocate:
///
/// * **the last seed's family** — the [`PacketGenerator`] keeps the
///   seed's flow sequence and the [`TableFamily`] its tables' growth
///   chains, so a measurement of `n` flows under the seed the profiler
///   measured last is cut from state built for a larger count (the flow
///   set of `n` flows is a prefix of every larger one; see
///   [`crate::table`]), and only flows or inserts past the largest count
///   seen are new work. A new seed starts a new family; its first
///   measurement replays each chain on the chain's own layouts and is a
///   cut like every later one. A caller that comes back to one seed between
///   other seeds' measurements keeps that seed's family in a profiler of
///   its own (the daemon's `query` profiler), since the thread's
///   [`crate::NfKind::workload`] profiler keeps only the last seed's;
/// * **reused** — the generator's flow `Vec` and dedupe scratch, the
///   [`PacketBatch`] arena, the [`CostTracker`] and the
///   [`CostAggregate`]; every warmed flow table is a view of the
///   family's growth chain that holds no probe array;
/// * **not reused** — the NF instance itself and its tables' dense value
///   stores, built per measurement and dropped with the NF (keeping a
///   warmed NF per kind costs more resident memory than it saves time).
///
/// Nothing kept reaches a result: every buffer is overwritten before it
/// is read, and a cut table equals the inserted one bit for bit
/// (`tests/workload_golden.rs` replays 576 points through one profiler in
/// a big-small-big order, and seed by seed, against bits captured before
/// any reuse existed).
#[derive(Debug, Clone)]
pub struct Profiler {
    gen: Option<PacketGenerator>,
    /// The growth chains of `gen`'s seed.
    tables: TableFamily,
    batch: PacketBatch,
    cost: CostTracker,
    agg: CostAggregate,
    batch_packets: usize,
}

impl Default for Profiler {
    fn default() -> Self {
        Self::new()
    }
}

impl Profiler {
    /// A profiler with the default batch size.
    pub fn new() -> Self {
        Self {
            gen: None,
            tables: TableFamily::new(),
            batch: PacketBatch::new(),
            cost: CostTracker::new(),
            agg: CostAggregate::new(),
            batch_packets: DEFAULT_BATCH_PACKETS,
        }
    }

    /// Sets the packets per arena refill.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn with_batch_packets(mut self, n: usize) -> Self {
        assert!(n > 0, "batch size must be positive");
        self.batch_packets = n;
        self
    }

    /// Profiles `nf` under `profile` through the batched dataplane and
    /// produces the equivalent simulator workload.
    ///
    /// Streams `sample_packets` packets from a seeded generator through
    /// [`NetworkFunction::process_batch`] (after warming the NF's tables
    /// with the full flow set), reusing the arena and tracker across
    /// batches, then averages the aggregate demand per packet.
    ///
    /// # Panics
    ///
    /// Panics if `sample_packets` is zero.
    pub fn profile(
        &mut self,
        nf: &mut dyn NetworkFunction,
        profile: TrafficProfile,
        sample_packets: usize,
        seed: u64,
    ) -> WorkloadSpec {
        assert!(sample_packets > 0, "need at least one sample packet");
        let gen = match &mut self.gen {
            Some(gen) => {
                if gen.seed() != seed {
                    self.tables.clear();
                }
                gen.reset(profile, seed);
                gen
            }
            empty => empty.insert(PacketGenerator::new(profile, seed)),
        };
        nf.warm(&mut self.tables.prefix(gen.flows()));
        self.agg.reset();
        let mut remaining = sample_packets;
        while remaining > 0 {
            let n = remaining.min(self.batch_packets);
            gen.fill_batch(&mut self.batch, n);
            self.cost.reset();
            nf.process_batch(&self.batch, &mut self.cost);
            self.agg.absorb(&self.cost, n);
            remaining -= n;
        }
        finish_workload(nf, profile, &self.agg)
    }
}

/// Turns a cost aggregate into the simulator workload for `nf`, the
/// per-packet framework (RX/TX path) overhead included. Every
/// per-request average is computed with a guarded division: an NF that
/// issues zero-byte accelerator requests must produce finite zeros, not
/// NaN.
fn finish_workload(
    nf: &dyn NetworkFunction,
    profile: TrafficProfile,
    agg: &CostAggregate,
) -> WorkloadSpec {
    let n = agg.packets;
    debug_assert!(n > 0.0, "aggregate must cover at least one packet");
    let refs_per_pkt = (agg.reads + agg.writes) / n + FRAMEWORK_READS + FRAMEWORK_WRITES;
    let writes_per_pkt = agg.writes / n + FRAMEWORK_WRITES;
    let mut stages = vec![StageDemand::CpuMem {
        cycles_per_pkt: agg.cycles / n + FRAMEWORK_CYCLES,
        cache_refs_per_pkt: refs_per_pkt,
        write_frac: safe_div(writes_per_pkt, refs_per_pkt),
        wss_bytes: nf.wss_bytes(),
    }];
    for &(kind, reqs, bytes, matches) in &agg.accel {
        stages.push(StageDemand::Accelerator {
            kind,
            queues: 1,
            reqs_per_pkt: reqs / n,
            bytes_per_req: safe_div(bytes, reqs),
            matches_per_req: safe_div(matches, reqs),
        });
    }
    WorkloadSpec::new(nf.name(), DEFAULT_CORES, nf.pattern(), stages)
        .with_packet_bytes(profile.packet_size as f64)
}

/// Profiles `nf` under `profile` and produces the equivalent simulator
/// workload via the batched dataplane (a fresh [`Profiler`] per call;
/// sweeps that profile repeatedly should hold their own `Profiler` and
/// call [`Profiler::profile`] to reuse its buffers).
pub fn build_workload(
    nf: &mut dyn NetworkFunction,
    profile: TrafficProfile,
    sample_packets: usize,
    seed: u64,
) -> WorkloadSpec {
    Profiler::new().profile(nf, profile, sample_packets, seed)
}

/// The per-packet parity oracle: identical packets (same generator, same
/// arena fill), but processed one [`PacketView`] at a time with a fresh
/// [`CostTracker`] per packet — the pre-batching aggregation semantics.
/// Must produce byte-identical [`WorkloadSpec`]s to [`build_workload`];
/// the integration suite asserts this for every NF kind.
pub fn build_workload_per_packet(
    nf: &mut dyn NetworkFunction,
    profile: TrafficProfile,
    sample_packets: usize,
    seed: u64,
) -> WorkloadSpec {
    assert!(sample_packets > 0, "need at least one sample packet");
    let mut gen = PacketGenerator::new(profile, seed);
    nf.warm(&mut TableFamily::new().prefix(gen.flows()));
    let mut agg = CostAggregate::new();
    let mut batch = PacketBatch::new();
    let mut remaining = sample_packets;
    while remaining > 0 {
        let n = remaining.min(DEFAULT_BATCH_PACKETS);
        gen.fill_batch(&mut batch, n);
        for pkt in batch.iter() {
            let mut cost = CostTracker::new();
            nf.process(pkt, &mut cost);
            agg.absorb(&cost, 1);
        }
        remaining -= n;
    }
    finish_workload(nf, profile, &agg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use yala_sim::ResourceKind;

    /// Minimal NF used to validate harness aggregation.
    struct Toy {
        scan: bool,
    }

    impl NetworkFunction for Toy {
        fn name(&self) -> &'static str {
            "toy"
        }
        fn pattern(&self) -> ExecutionPattern {
            ExecutionPattern::RunToCompletion
        }
        fn process(&mut self, pkt: PacketView<'_>, cost: &mut CostTracker) -> Verdict {
            cost.compute(100.0);
            cost.read_lines(2.0);
            cost.write_lines(1.0);
            if self.scan {
                cost.accel_request(ResourceKind::Regex, pkt.payload_len() as f64, 0.5);
            }
            Verdict::Forward
        }
        fn wss_bytes(&self) -> f64 {
            12_345.0
        }
    }

    /// An NF that issues only zero-byte accelerator requests.
    struct ZeroByteScan;

    impl NetworkFunction for ZeroByteScan {
        fn name(&self) -> &'static str {
            "zeroscan"
        }
        fn pattern(&self) -> ExecutionPattern {
            ExecutionPattern::Pipeline
        }
        fn process(&mut self, _pkt: PacketView<'_>, cost: &mut CostTracker) -> Verdict {
            cost.accel_request(ResourceKind::Regex, 0.0, 0.0);
            Verdict::Forward
        }
        fn wss_bytes(&self) -> f64 {
            0.0
        }
    }

    fn cpu_stage(w: &WorkloadSpec) -> (f64, f64, f64, f64) {
        match &w.stages[0] {
            StageDemand::CpuMem {
                cycles_per_pkt,
                cache_refs_per_pkt,
                write_frac,
                wss_bytes,
            } => (
                *cycles_per_pkt,
                *cache_refs_per_pkt,
                *write_frac,
                *wss_bytes,
            ),
            other => panic!("unexpected stage {other:?}"),
        }
    }

    #[test]
    fn harness_averages_and_adds_framework_cost() {
        let mut nf = Toy { scan: false };
        let w = build_workload(&mut nf, TrafficProfile::new(100, 256, 0.0), 50, 1);
        assert_eq!(w.stages.len(), 1);
        let (cycles, refs, _, wss) = cpu_stage(&w);
        assert!((cycles - (100.0 + FRAMEWORK_CYCLES)).abs() < 1e-9);
        assert!((refs - (3.0 + FRAMEWORK_READS + FRAMEWORK_WRITES)).abs() < 1e-9);
        assert_eq!(wss, 12_345.0);
    }

    #[test]
    fn accelerator_requests_become_a_stage() {
        let mut nf = Toy { scan: true };
        let profile = TrafficProfile::new(100, 512, 0.0);
        let w = build_workload(&mut nf, profile, 50, 1);
        assert_eq!(w.stages.len(), 2);
        match &w.stages[1] {
            StageDemand::Accelerator {
                kind,
                reqs_per_pkt,
                bytes_per_req,
                matches_per_req,
                ..
            } => {
                assert_eq!(*kind, ResourceKind::Regex);
                assert!((*reqs_per_pkt - 1.0).abs() < 1e-9);
                assert_eq!(*bytes_per_req, profile.payload_size() as f64);
                assert!((*matches_per_req - 0.5).abs() < 1e-9);
            }
            other => panic!("unexpected stage {other:?}"),
        }
    }

    #[test]
    fn workload_is_deterministic_in_seed() {
        let build = || {
            let mut nf = Toy { scan: true };
            build_workload(&mut nf, TrafficProfile::default(), 30, 9)
        };
        assert_eq!(build(), build());
    }

    #[test]
    fn batched_equals_per_packet_oracle() {
        for scan in [false, true] {
            let batched = build_workload(
                &mut Toy { scan },
                TrafficProfile::new(500, 800, 400.0),
                120,
                3,
            );
            let oracle = build_workload_per_packet(
                &mut Toy { scan },
                TrafficProfile::new(500, 800, 400.0),
                120,
                3,
            );
            assert_eq!(batched, oracle, "scan={scan}");
        }
    }

    #[test]
    fn batch_size_does_not_change_the_workload() {
        let at = |packets_per_batch: usize| {
            Profiler::new()
                .with_batch_packets(packets_per_batch)
                .profile(
                    &mut Toy { scan: true },
                    TrafficProfile::new(300, 700, 500.0),
                    97,
                    11,
                )
        };
        let reference = at(DEFAULT_BATCH_PACKETS);
        for b in [1, 7, 97, 128] {
            assert_eq!(at(b), reference, "batch size {b}");
        }
    }

    #[test]
    fn default_process_batch_reports_forwarded_count() {
        let mut gen = PacketGenerator::new(TrafficProfile::new(10, 128, 0.0), 1);
        let mut batch = PacketBatch::new();
        gen.fill_batch(&mut batch, 25);
        let mut cost = CostTracker::new();
        assert_eq!(Toy { scan: false }.process_batch(&batch, &mut cost), 25);
        assert_eq!(cost.cycles, 25.0 * 100.0);
    }

    #[test]
    fn zero_byte_accel_requests_yield_finite_averages() {
        // Regression: zero-byte requests must not poison the per-request
        // averages with NaN.
        let w = build_workload(&mut ZeroByteScan, TrafficProfile::new(100, 256, 0.0), 40, 1);
        match &w.stages[1] {
            StageDemand::Accelerator {
                reqs_per_pkt,
                bytes_per_req,
                matches_per_req,
                ..
            } => {
                assert!((*reqs_per_pkt - 1.0).abs() < 1e-9);
                assert_eq!(*bytes_per_req, 0.0);
                assert_eq!(*matches_per_req, 0.0);
                assert!(bytes_per_req.is_finite() && matches_per_req.is_finite());
            }
            other => panic!("unexpected stage {other:?}"),
        }
    }
}
