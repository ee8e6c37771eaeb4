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
//! A generator is re-targeted in place with [`PacketGenerator::reset`].
//! It keeps its seed's flow sequence: re-targeted to the same seed, it
//! reuses the flows already synthesised (the flow set of `n` flows is a
//! prefix of every larger one) and only synthesises past the largest
//! count seen; re-targeted to another seed, it starts a new sequence in
//! the kept buffers, so a harness that measures one traffic point after
//! another synthesises flows without touching the allocator.

use crate::batch::PacketBatch;
use crate::flow::{FiveTuple, FlowSequence};
use crate::packet::Packet;
use crate::payload::PayloadSynthesizer;
use crate::profile::{TrafficProfile, MAX_FLOW_COUNT};
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
    seed: u64,
    /// The seed's flow stream, synthesised to at least
    /// `profile.flow_count` flows; the flow set is its prefix.
    sequence: FlowSequence<StdRng>,
    synth: PayloadSynthesizer,
    rng: StdRng,
}

impl PacketGenerator {
    /// Creates a generator for `profile`, deterministic in `seed`.
    pub fn new(profile: TrafficProfile, seed: u64) -> Self {
        let mut sequence = FlowSequence::new(StdRng::seed_from_u64(seed));
        let n = profile.flow_count as usize;
        sequence.extend_to(n);
        // A generator that is never re-targeted keeps no scratch: the
        // dedupe set is twice the flow set's size.
        sequence.release_scratch();
        Self {
            profile,
            seed,
            rng: sequence.rng_at(n),
            sequence,
            synth: PayloadSynthesizer::new(),
        }
    }

    /// Re-targets the generator: afterwards it is indistinguishable from
    /// `PacketGenerator::new(profile, seed)` — same flow set, same packet
    /// stream. Under the same seed the flow set is cut from the kept
    /// sequence (extended if `profile` asks for more flows than any
    /// earlier target); under a new seed the sequence restarts in the
    /// kept buffers, dedupe scratch included.
    pub fn reset(&mut self, profile: TrafficProfile, seed: u64) {
        if seed != self.seed {
            self.seed = seed;
            self.sequence.restart(StdRng::seed_from_u64(seed));
        }
        let n = profile.flow_count as usize;
        self.sequence.extend_to(n);
        if n == MAX_FLOW_COUNT as usize {
            // No profile asks for more flows: this sequence is never
            // extended again, and its dedupe set is 16 bytes a flow.
            self.sequence.release_scratch();
        }
        self.rng = self.sequence.rng_at(n);
        self.profile = profile;
    }

    /// The profile being generated.
    pub fn profile(&self) -> TrafficProfile {
        self.profile
    }

    /// The seed the flow set and packet stream derive from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The synthesised flow set.
    pub fn flows(&self) -> &[FiveTuple] {
        &self.sequence.flows()[..self.profile.flow_count as usize]
    }

    /// Generates the next packet: uniform flow choice, profile-sized
    /// payload with planted matches.
    pub fn next_packet(&mut self) -> Packet {
        let flows = &self.sequence.flows()[..self.profile.flow_count as usize];
        let flow = flows[self.rng.gen_range(0..flows.len())];
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
            sequence,
            synth,
            rng,
            ..
        } = self;
        let flows = &sequence.flows()[..profile.flow_count as usize];
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
    fn positioned_generator_equals_a_fresh_one() {
        // One generator re-targeted big-small-big across two seeds, with
        // counts on both sides of the flow sequence's kept RNG states
        // (every 512 flows): same flows, same next 64 packets.
        let mut reused = PacketGenerator::new(TrafficProfile::new(4_000, 64, 0.0), 8);
        let mut batch_a = PacketBatch::new();
        let mut batch_b = PacketBatch::new();
        for (flows, seed) in [
            (20_000, 8),
            (1, 8),
            (513, 8),
            (512, 8),
            (511, 8),
            (1_600, 9),
            (1_537, 9),
            (30_000, 9),
            (1_025, 9),
            (30_000, 9),
            (4_000, 8),
            (25_000, 8),
            (2, 8),
        ] {
            let profile = TrafficProfile::new(flows, 900, 400.0);
            reused.reset(profile, seed);
            let mut fresh = PacketGenerator::new(profile, seed);
            assert_eq!(reused.flows(), fresh.flows(), "{flows} flows, seed {seed}");
            reused.fill_batch(&mut batch_a, 64);
            fresh.fill_batch(&mut batch_b, 64);
            let collect = |x: &PacketBatch| {
                x.iter()
                    .map(|p| (p.five_tuple, p.payload.to_vec()))
                    .collect::<Vec<_>>()
            };
            assert_eq!(collect(&batch_a), collect(&batch_b), "{flows} flows");
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
