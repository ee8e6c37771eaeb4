//! The packet generator: realises a [`TrafficProfile`] as a deterministic
//! packet stream (DPDK-Pktgen substitute).
//!
//! Two generation paths exist:
//!
//! * [`PacketGenerator::fill_batch`] — the batched dataplane: packets are
//!   written into a reusable [`PacketBatch`] arena (no per-packet
//!   allocation) with pooled payload synthesis (no per-byte RNG draws).
//!   This is what the profiling harness uses.
//! * [`PacketGenerator::next_packet`] / [`PacketGenerator::batch`] — the
//!   scalar path producing owned [`Packet`]s, kept as the reference
//!   implementation.
//!
//! A generator is re-targeted in place with [`PacketGenerator::reset`]:
//! the flow set and the dedupe scratch keep their allocations, so a
//! harness that measures one traffic point after another synthesises
//! flows without touching the allocator.

use crate::batch::PacketBatch;
use crate::flow::{generate_flows_into, FiveTuple};
use crate::packet::Packet;
use crate::payload::PayloadSynthesizer;
use crate::profile::TrafficProfile;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Generates packets for one traffic profile. Flows are pre-synthesised and
/// selected uniformly per packet; payload MTBR follows the profile.
///
/// # Example
///
/// ```
/// use yala_traffic::{PacketGenerator, TrafficProfile};
/// let mut gen = PacketGenerator::new(TrafficProfile::new(100, 256, 0.0), 7);
/// let pkts = gen.batch(10);
/// assert!(pkts.iter().all(|p| p.wire_len() == 256));
/// ```
#[derive(Debug, Clone)]
pub struct PacketGenerator {
    profile: TrafficProfile,
    flows: Vec<FiveTuple>,
    /// Dedupe scratch of flow synthesis, kept for the next [`Self::reset`].
    seen: Vec<u64>,
    synth: PayloadSynthesizer,
    rng: StdRng,
}

impl PacketGenerator {
    /// Creates a generator for `profile`, deterministic in `seed`.
    pub fn new(profile: TrafficProfile, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut flows = Vec::new();
        // A generator that is never re-targeted keeps no scratch: the
        // dedupe set is twice the flow set's size.
        generate_flows_into(&mut rng, profile.flow_count, &mut flows, &mut Vec::new());
        Self {
            profile,
            flows,
            seen: Vec::new(),
            synth: PayloadSynthesizer::new(),
            rng,
        }
    }

    /// Re-targets the generator: afterwards it is indistinguishable from
    /// `PacketGenerator::new(profile, seed)` — same flow set, same packet
    /// stream — but the flow buffer is reused, and so is the dedupe
    /// scratch, which the generator holds from its first `reset` on.
    pub fn reset(&mut self, profile: TrafficProfile, seed: u64) {
        self.profile = profile;
        self.rng = StdRng::seed_from_u64(seed);
        generate_flows_into(
            &mut self.rng,
            profile.flow_count,
            &mut self.flows,
            &mut self.seen,
        );
    }

    /// The profile being generated.
    pub fn profile(&self) -> TrafficProfile {
        self.profile
    }

    /// The synthesised flow set.
    pub fn flows(&self) -> &[FiveTuple] {
        &self.flows
    }

    /// Generates the next packet: uniform flow choice, profile-sized
    /// payload with planted matches.
    pub fn next_packet(&mut self) -> Packet {
        let flow = self.flows[self.rng.gen_range(0..self.flows.len())];
        let payload = self.synth.generate(
            &mut self.rng,
            self.profile.payload_size() as usize,
            self.profile.mtbr,
        );
        Packet::new(flow, payload)
    }

    /// Generates `n` packets.
    pub fn batch(&mut self, n: usize) -> Vec<Packet> {
        (0..n).map(|_| self.next_packet()).collect()
    }

    /// Refills `batch` with `n` packets, reusing its buffers: the
    /// zero-allocation dataplane entry point. Payloads come from the pooled
    /// fast path (one RNG draw per packet instead of one per byte) and are
    /// written straight into the batch's flat arena.
    pub fn fill_batch(&mut self, batch: &mut PacketBatch, n: usize) {
        batch.clear();
        let Self {
            profile,
            flows,
            synth,
            rng,
            ..
        } = self;
        let len = profile.payload_size() as usize;
        for _ in 0..n {
            let flow = flows[rng.gen_range(0..flows.len())];
            batch.push_with(flow, |buf| synth.fill_pooled(rng, buf, len, profile.mtbr));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn batch_sizes_and_lengths() {
        let mut g = PacketGenerator::new(TrafficProfile::new(50, 512, 100.0), 1);
        let pkts = g.batch(200);
        assert_eq!(pkts.len(), 200);
        assert!(pkts.iter().all(|p| p.wire_len() == 512));
    }

    #[test]
    fn packets_only_use_declared_flows() {
        let mut g = PacketGenerator::new(TrafficProfile::new(20, 128, 0.0), 2);
        let declared: HashSet<FiveTuple> = g.flows().iter().copied().collect();
        for p in g.batch(500) {
            assert!(declared.contains(&p.five_tuple));
        }
    }

    #[test]
    fn uniform_flow_usage_touches_most_flows() {
        let mut g = PacketGenerator::new(TrafficProfile::new(100, 128, 0.0), 3);
        let used: HashSet<FiveTuple> = g.batch(2_000).into_iter().map(|p| p.five_tuple).collect();
        assert!(
            used.len() > 90,
            "uniform draw should hit most of 100 flows, hit {}",
            used.len()
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let mut a = PacketGenerator::new(TrafficProfile::default(), 11);
        let mut b = PacketGenerator::new(TrafficProfile::default(), 11);
        assert_eq!(a.batch(20), b.batch(20));
    }

    #[test]
    fn reset_equals_a_fresh_generator() {
        // Big, small, big again: the kept buffers never reach the stream.
        let mut reused = PacketGenerator::new(TrafficProfile::new(9_000, 700, 300.0), 4);
        for (profile, seed) in [
            (TrafficProfile::new(3, 64, 0.0), 5),
            (TrafficProfile::new(20_000, 1500, 600.0), 6),
            (TrafficProfile::new(9_000, 700, 300.0), 4),
        ] {
            reused.reset(profile, seed);
            let mut fresh = PacketGenerator::new(profile, seed);
            assert_eq!(reused.profile(), profile);
            assert_eq!(reused.flows(), fresh.flows());
            assert_eq!(reused.batch(40), fresh.batch(40));
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = PacketGenerator::new(TrafficProfile::default(), 11);
        let mut b = PacketGenerator::new(TrafficProfile::default(), 12);
        assert_ne!(a.batch(5), b.batch(5));
    }

    #[test]
    fn fill_batch_respects_profile() {
        let mut g = PacketGenerator::new(TrafficProfile::new(50, 512, 100.0), 1);
        let mut batch = PacketBatch::new();
        g.fill_batch(&mut batch, 200);
        assert_eq!(batch.len(), 200);
        assert!(batch.iter().all(|p| p.wire_len() == 512));
        let declared: HashSet<FiveTuple> = g.flows().iter().copied().collect();
        assert!(batch.iter().all(|p| declared.contains(&p.five_tuple)));
    }

    #[test]
    fn fill_batch_is_deterministic_and_refill_reuses_buffers() {
        let mut a = PacketGenerator::new(TrafficProfile::default(), 11);
        let mut b = PacketGenerator::new(TrafficProfile::default(), 11);
        let mut ba = PacketBatch::new();
        let mut bb = PacketBatch::new();
        a.fill_batch(&mut ba, 20);
        b.fill_batch(&mut bb, 20);
        let collect = |x: &PacketBatch| {
            x.iter()
                .map(|p| (p.five_tuple, p.payload.to_vec()))
                .collect::<Vec<_>>()
        };
        assert_eq!(collect(&ba), collect(&bb));
        // A refill continues the stream deterministically and reuses the
        // arena in place.
        a.fill_batch(&mut ba, 20);
        b.fill_batch(&mut bb, 20);
        assert_eq!(collect(&ba), collect(&bb));
    }

    #[test]
    fn fill_batch_and_scalar_draw_same_flows() {
        // Both paths must realise the same traffic profile; flows are drawn
        // from the identical declared set with the identical first draw.
        let profile = TrafficProfile::new(100, 256, 0.0);
        let mut scalar = PacketGenerator::new(profile, 5);
        let mut batched = PacketGenerator::new(profile, 5);
        let first_scalar = scalar.next_packet().five_tuple;
        let mut batch = PacketBatch::new();
        batched.fill_batch(&mut batch, 1);
        assert_eq!(first_scalar, batch.get(0).five_tuple);
    }
}
