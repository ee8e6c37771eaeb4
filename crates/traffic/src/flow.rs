//! Flow identities (5-tuples) and deterministic flow-set synthesis.

use rand::Rng;
use serde::{Deserialize, Serialize};

/// A transport 5-tuple identifying a flow.
///
/// # Example
///
/// ```
/// use yala_traffic::FiveTuple;
/// let ft = FiveTuple::new(0x0a000001, 0x0a000002, 1234, 80, 6);
/// assert_eq!(ft.proto, 6);
/// assert_ne!(ft.hash64(), FiveTuple::new(0x0a000001, 0x0a000002, 1234, 81, 6).hash64());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct FiveTuple {
    /// Source IPv4 address.
    pub src_ip: u32,
    /// Destination IPv4 address.
    pub dst_ip: u32,
    /// Source transport port.
    pub src_port: u16,
    /// Destination transport port.
    pub dst_port: u16,
    /// IP protocol number (6 = TCP, 17 = UDP).
    pub proto: u8,
}

impl FiveTuple {
    /// Creates a 5-tuple.
    pub fn new(src_ip: u32, dst_ip: u32, src_port: u16, dst_port: u16, proto: u8) -> Self {
        Self {
            src_ip,
            dst_ip,
            src_port,
            dst_port,
            proto,
        }
    }

    /// A fast 64-bit mix of the tuple — the hash NF flow tables key on.
    /// (FxHash-style multiply-xor; deterministic across runs.)
    pub fn hash64(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for v in [
            self.src_ip as u64,
            self.dst_ip as u64,
            self.src_port as u64,
            self.dst_port as u64,
            self.proto as u64,
        ] {
            h ^= v;
            h = h.wrapping_mul(0x1000_0000_01b3);
            h ^= h >> 33;
        }
        h
    }

    /// The tuple with endpoints swapped (reverse direction), used by NAT.
    pub fn reversed(&self) -> Self {
        Self {
            src_ip: self.dst_ip,
            dst_ip: self.src_ip,
            src_port: self.dst_port,
            dst_port: self.src_port,
            proto: self.proto,
        }
    }
}

/// Well-known server ports a synthesised flow targets.
const SERVER_PORTS: [u16; 6] = [80, 443, 22, 25, 53, 8080];
/// 10.0.0.0/12 clients: the draw fills the low `CLIENT_BITS` of the address.
const CLIENT_NET: u32 = 0x0a00_0000;
const CLIENT_BITS: u32 = 20;
/// 192.168.0.0/20 servers.
const SERVER_NET: u32 = 0xc0a8_0000;
const SERVER_BITS: u32 = 12;
/// Client ports are drawn from `1024..u16::MAX`.
const PORT_BITS: u32 = 16;
/// Index into [`SERVER_PORTS`].
const SERVER_PORT_BITS: u32 = 3;
/// Where each draw sits in the packed dedupe key (the client draw at 0).
const SERVER_SHIFT: u32 = CLIENT_BITS;
const PORT_SHIFT: u32 = SERVER_SHIFT + SERVER_BITS;
const SERVER_PORT_SHIFT: u32 = PORT_SHIFT + PORT_BITS;
const PROTO_SHIFT: u32 = SERVER_PORT_SHIFT + SERVER_PORT_BITS;
/// Attempts drawn ahead of probing.
const BLOCK: usize = 64;

// The dedupe key packs the five *draws* of an attempt — 20 + 12 + 16 + 3
// + 1 bits — and is injective on tuples only while every draw fits its
// field and the network prefixes leave the drawn bits clear.
const _: () = {
    assert!(PROTO_SHIFT + 1 == 52);
    assert!(CLIENT_NET & ((1 << CLIENT_BITS) - 1) == 0);
    assert!(SERVER_NET & ((1 << SERVER_BITS) - 1) == 0);
    assert!(SERVER_PORTS.len() <= 1 << SERVER_PORT_BITS);
};

/// No packed key reaches bit 52, so all-ones marks a free scratch slot.
const FREE: u64 = u64::MAX;

/// Distinct flows between two kept RNG states of a [`FlowSequence`]: a
/// positioned generator replays at most this many flows' attempts (plus
/// one block).
const CHECKPOINT_FLOWS: usize = 512;

/// Generates `count` *distinct* flows with randomised endpoints.
///
/// Traffic is drawn uniformly over these flows, matching the paper's
/// "flow sizes following the uniform distribution" setup (§2.1).
pub fn generate_flows<R: Rng>(rng: &mut R, count: u32) -> Vec<FiveTuple> {
    let mut flows = Vec::new();
    extend_flows(rng, count as usize, &mut flows, &mut Vec::new(), |_, _| {});
    flows
}

/// One attempt's five draws: its packed dedupe key and its flow.
#[inline]
fn attempt<R: Rng>(rng: &mut R) -> (u64, FiveTuple) {
    let client = rng.gen_range(0u32..1 << CLIENT_BITS);
    let server = rng.gen_range(0u32..1 << SERVER_BITS);
    let src_port = rng.gen_range(1024..u16::MAX);
    let server_port = rng.gen_range(0..SERVER_PORTS.len());
    let tcp = rng.gen_bool(0.8);
    let key = client as u64
        | (server as u64) << SERVER_SHIFT
        | (src_port as u64) << PORT_SHIFT
        | (server_port as u64) << SERVER_PORT_SHIFT
        | (tcp as u64) << PROTO_SHIFT;
    let flow = FiveTuple::new(
        CLIENT_NET | client,
        SERVER_NET | server,
        src_port,
        SERVER_PORTS[server_port],
        if tcp { 6 } else { 17 },
    );
    debug_assert_eq!(pack(&flow), key);
    (key, flow)
}

/// The packed dedupe key of a synthesised flow, recovered from the
/// tuple: the inverse of the field mapping in [`attempt`].
fn pack(flow: &FiveTuple) -> u64 {
    let server_port = SERVER_PORTS
        .iter()
        .position(|&p| p == flow.dst_port)
        .expect("a synthesised flow targets a server port");
    (flow.src_ip & ((1 << CLIENT_BITS) - 1)) as u64
        | ((flow.dst_ip & ((1 << SERVER_BITS) - 1)) as u64) << SERVER_SHIFT
        | (flow.src_port as u64) << PORT_SHIFT
        | (server_port as u64) << SERVER_PORT_SHIFT
        | ((flow.proto == 6) as u64) << PROTO_SHIFT
}

/// Where `key` sits in a dedupe set of `mask + 1` slots (a power of two,
/// `shift` = 64 − log2 of it): its slot, or the free slot ending its
/// probe chain.
#[inline]
fn seen_slot(seen: &[u64], shift: u32, mask: usize, key: u64) -> usize {
    let mut at = (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> shift) as usize;
    while seen[at] != FREE && seen[at] != key {
        at = (at + 1) & mask;
    }
    at
}

/// Draws attempts from `rng` until `flows` holds `count` distinct flows,
/// five draws per attempt.
///
/// Distinctness is exact: each attempt's draws are packed injectively
/// into 52 bits (every tuple field is a one-to-one function of its own
/// draw) and deduplicated in an open-addressing `u64` set at ≤ 50 % load.
/// On entry `seen` is either empty or the dedupe set of exactly `flows`
/// (it is rebuilt from `flows` unless already sized for `count`: ≤ 50 %
/// load), and `rng` sits just after the attempt that produced the last
/// flow. `at_block(k, rng)` sees the RNG at every block start, with `k`
/// flows found so far — an attempt boundary.
fn extend_flows<R: Rng>(
    rng: &mut R,
    count: usize,
    flows: &mut Vec<FiveTuple>,
    seen: &mut Vec<u64>,
    mut at_block: impl FnMut(usize, &R),
) {
    if flows.len() >= count {
        return;
    }
    flows.reserve(count - flows.len());
    let slots = (count * 2).next_power_of_two().max(8);
    let (shift, mask) = (64 - slots.trailing_zeros(), slots - 1);
    if seen.len() != slots {
        seen.clear();
        seen.resize(slots, FREE);
        for flow in flows.iter() {
            let key = pack(flow);
            let at = seen_slot(seen, shift, mask, key);
            seen[at] = key;
        }
    }
    let mut attempts = [(0u64, FiveTuple::new(0, 0, 0, 0, 0)); BLOCK];
    while flows.len() < count {
        at_block(flows.len(), rng);
        // Draw a block of attempts, then probe them: the probes of a
        // block are independent loads the core can overlap. A block of at
        // most `count - flows.len()` attempts cannot overshoot — only its
        // last attempt can complete the set — so the draws consumed are
        // those of the one-attempt-at-a-time loop.
        let block = &mut attempts[..(count - flows.len()).min(BLOCK)];
        for drawn in block.iter_mut() {
            *drawn = attempt(rng);
        }
        for &(key, flow) in block.iter() {
            let at = seen_slot(seen, shift, mask, key);
            if seen[at] == FREE {
                seen[at] = key;
                flows.push(flow);
            }
        }
    }
}

/// One seed's stream of distinct flows, synthesised lazily up to the
/// largest count asked for. The first `n` flows of the stream are the
/// flow set `generate_flows(rng, n)` returns — a later flow never
/// displaces an earlier one — so a sequence built to `N` answers every
/// `n ≤ N` with a prefix, and [`Self::rng_at`] recovers the RNG exactly
/// where synthesis of `n` flows leaves it.
///
/// The RNG is recovered without storing one per flow: the sequence keeps
/// a copy every [`CHECKPOINT_FLOWS`] flows (taken at an attempt boundary)
/// and replays attempts from the last copy that had found fewer than `n`
/// flows. Replay needs no dedupe set: the next attempt either repeats an
/// earlier flow or *is* the next flow of the known stream, so an attempt
/// is new exactly when it equals that flow.
#[derive(Debug, Clone)]
pub(crate) struct FlowSequence<R> {
    flows: Vec<FiveTuple>,
    /// Dedupe set of `flows`; empty until the sequence is extended from a
    /// kept state (rebuilt on demand).
    seen: Vec<u64>,
    /// The RNG just after the attempt that produced the last flow.
    frontier: R,
    /// `(flows found, RNG)` at attempt boundaries, ascending, starting
    /// with the seed state at 0.
    checkpoints: Vec<(usize, R)>,
}

impl<R: Rng + Clone> FlowSequence<R> {
    /// An empty sequence drawing from `rng`.
    pub fn new(rng: R) -> Self {
        Self {
            flows: Vec::new(),
            seen: Vec::new(),
            frontier: rng.clone(),
            checkpoints: vec![(0, rng)],
        }
    }

    /// Starts over from `rng`, keeping the buffers' allocations.
    pub fn restart(&mut self, rng: R) {
        self.flows.clear();
        self.seen.clear();
        self.frontier = rng.clone();
        self.checkpoints.clear();
        self.checkpoints.push((0, rng));
    }

    /// The flows synthesised so far, in stream order.
    pub fn flows(&self) -> &[FiveTuple] {
        &self.flows
    }

    /// Synthesises the stream up to at least `count` flows.
    pub fn extend_to(&mut self, count: usize) {
        let Self {
            flows,
            seen,
            frontier,
            checkpoints,
        } = self;
        extend_flows(frontier, count, flows, seen, |found, rng| {
            let last = checkpoints.last().map_or(0, |c| c.0);
            if found >= last + CHECKPOINT_FLOWS {
                checkpoints.push((found, rng.clone()));
            }
        });
    }

    /// Drops the dedupe set (a sequence that is never extended again
    /// need not hold it); [`Self::extend_to`] rebuilds it if needed.
    pub fn release_scratch(&mut self) {
        self.seen = Vec::new();
    }

    /// The RNG exactly where synthesising `n` flows from the start leaves
    /// it.
    ///
    /// # Panics
    ///
    /// Panics if `n` exceeds the flows synthesised so far.
    pub fn rng_at(&self, n: usize) -> R {
        assert!(n <= self.flows.len(), "flow {n} not synthesised yet");
        if n == self.flows.len() {
            return self.frontier.clone();
        }
        if n == 0 {
            return self.checkpoints[0].1.clone();
        }
        // The last copy that had found fewer than `n` flows: a copy taken
        // with exactly `n` found may already be past trailing duplicates.
        let at = self.checkpoints.partition_point(|c| c.0 < n) - 1;
        let (mut found, mut rng) = self.checkpoints[at].clone();
        while found < n {
            if attempt(&mut rng).1 == self.flows[found] {
                found += 1;
            }
        }
        rng
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};
    use std::collections::HashSet;

    #[test]
    fn generated_flows_are_distinct() {
        let mut rng = StdRng::seed_from_u64(1);
        let flows = generate_flows(&mut rng, 5_000);
        let set: HashSet<_> = flows.iter().collect();
        assert_eq!(set.len(), 5_000);
    }

    /// The pre-packing implementation, kept as the oracle: the same five
    /// draws, deduplicated on the tuple itself through a `HashSet`.
    fn generate_flows_oracle<R: Rng>(rng: &mut R, count: u32) -> Vec<FiveTuple> {
        let mut seen: HashSet<FiveTuple> = HashSet::with_capacity(count as usize);
        let mut out = Vec::with_capacity(count as usize);
        while out.len() < count as usize {
            let ft = FiveTuple::new(
                0x0a00_0000 | rng.gen_range(0u32..1 << 20),
                0xc0a8_0000 | rng.gen_range(0u32..1 << 12),
                rng.gen_range(1024..u16::MAX),
                *[80u16, 443, 22, 25, 53, 8080]
                    .get(rng.gen_range(0..6))
                    .expect("in range"),
                if rng.gen_bool(0.8) { 6 } else { 17 },
            );
            if seen.insert(ft) {
                out.push(ft);
            }
        }
        out
    }

    /// A generator whose every draw takes one of `1 << bits` values (in
    /// the top bits, which is where `gen_range` looks), counting draws.
    #[derive(Clone)]
    struct LowEntropy {
        inner: StdRng,
        bits: u32,
        draws: u64,
    }

    impl RngCore for LowEntropy {
        fn next_u64(&mut self) -> u64 {
            self.draws += 1;
            (self.inner.next_u64() >> (64 - self.bits)) << (64 - self.bits)
        }
    }

    #[test]
    fn packed_dedupe_equals_the_hashset_oracle_under_forced_duplicates() {
        // 2 bits per draw leave 4 * 4 * 4 * 4 * 1 = 256 possible tuples
        // (every protocol draw lands below 0.8), 3 bits 8 * 8 * 8 * 6 * 2
        // = 6 144: asking for most of the space makes most attempts
        // duplicates.
        for (bits, count) in [
            (2, 1),
            (2, 200),
            (2, 256),
            (3, 3_000),
            (3, 6_100),
            (64, 5_000),
        ] {
            for seed in 0..4 {
                let script = |draws| LowEntropy {
                    inner: StdRng::seed_from_u64(seed),
                    bits,
                    draws,
                };
                let (mut a, mut b) = (script(0), script(0));
                let got = generate_flows(&mut a, count);
                let want = generate_flows_oracle(&mut b, count);
                assert_eq!(got, want, "bits {bits} count {count} seed {seed}");
                assert_eq!(a.draws, b.draws, "draws consumed");
                assert_eq!(a.draws % 5, 0, "five draws per attempt");
                if bits < 64 && count > 100 {
                    assert!(a.draws > 5 * count as u64 * 3 / 2, "duplicates were forced");
                }
            }
        }
    }

    /// Counts on both sides of checkpoint boundaries, big-small-big.
    fn straddling(top: usize) -> Vec<usize> {
        let c = CHECKPOINT_FLOWS;
        let mut counts = vec![top, 1, top - 1, 2, c + 1, c, c - 1, 3 * c + 63, 3 * c + 64];
        counts.extend([2 * c + 1, top / 2, 7, top, 0, 5 * c, top / 3 + 1]);
        counts.retain(|&n| n <= top);
        counts
    }

    #[test]
    fn sequence_prefix_and_rng_equal_fresh_synthesis_under_forced_duplicates() {
        // The scripted generators of the dedupe test: most attempts are
        // duplicates, so replay from a checkpoint must skip many repeats
        // (and trailing repeats after a copy must not be counted twice).
        for (bits, top) in [(2, 256), (3, 6_100), (64, 9_000)] {
            for seed in 0..3 {
                let script = || LowEntropy {
                    inner: StdRng::seed_from_u64(seed),
                    bits,
                    draws: 0,
                };
                let mut seq = FlowSequence::new(script());
                let mut grown = 0;
                let mut counts = straddling(top);
                // Then the counts the kept copies were taken at, and
                // either side: a copy taken with exactly `n` found may
                // sit past repeats drawn after flow `n`.
                let mut full = FlowSequence::new(script());
                full.extend_to(top);
                for &(found, _) in &full.checkpoints[1..] {
                    counts.extend([found, found - 1, found + 1]);
                }
                counts.retain(|&n| n <= top);
                for n in counts {
                    if n > grown {
                        seq.extend_to(n);
                        grown = n;
                    }
                    let mut fresh = script();
                    let want = generate_flows(&mut fresh, n as u32);
                    assert_eq!(&seq.flows()[..n], &want[..], "bits {bits} n {n}");
                    let mut got = seq.rng_at(n);
                    assert_eq!(got.draws, fresh.draws, "bits {bits} n {n}: draws consumed");
                    assert_eq!(got.next_u64(), fresh.next_u64());
                }
            }
        }
    }

    #[test]
    fn reused_buffers_do_not_reach_the_flow_set() {
        let mut seq = FlowSequence::new(StdRng::seed_from_u64(1));
        for count in [5_000, 3, 40_000, 1] {
            seq.flows = vec![FiveTuple::new(9, 9, 9, 9, 9); 77];
            seq.seen = vec![0x1234u64; 100_003];
            seq.restart(StdRng::seed_from_u64(6));
            seq.extend_to(count);
            let want = generate_flows(&mut StdRng::seed_from_u64(6), count as u32);
            assert_eq!(seq.flows(), &want[..]);
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = generate_flows(&mut StdRng::seed_from_u64(9), 100);
        let b = generate_flows(&mut StdRng::seed_from_u64(9), 100);
        assert_eq!(a, b);
    }

    #[test]
    fn hash64_spreads() {
        let mut rng = StdRng::seed_from_u64(2);
        let flows = generate_flows(&mut rng, 1_000);
        let hashes: HashSet<u64> = flows.iter().map(|f| f.hash64()).collect();
        assert_eq!(hashes.len(), 1_000, "hash collisions over tiny set");
    }

    #[test]
    fn reversed_swaps_endpoints() {
        let ft = FiveTuple::new(1, 2, 3, 4, 6);
        let rev = ft.reversed();
        assert_eq!(rev.src_ip, 2);
        assert_eq!(rev.dst_ip, 1);
        assert_eq!(rev.src_port, 4);
        assert_eq!(rev.dst_port, 3);
        assert_eq!(rev.reversed(), ft);
    }
}
