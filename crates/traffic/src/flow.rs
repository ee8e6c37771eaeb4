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

/// Generates `count` *distinct* flows with randomised endpoints.
///
/// Traffic is drawn uniformly over these flows, matching the paper's
/// "flow sizes following the uniform distribution" setup (§2.1).
pub fn generate_flows<R: Rng>(rng: &mut R, count: u32) -> Vec<FiveTuple> {
    let mut flows = Vec::new();
    generate_flows_into(rng, count, &mut flows, &mut Vec::new());
    flows
}

/// [`generate_flows`] into caller-kept buffers: `flows` is overwritten
/// with the flow set, `seen` is the dedupe scratch (contents irrelevant
/// on entry). Five draws per attempt, stopping at `count` distinct
/// flows, whatever the buffers held — so the flow set and the RNG
/// position afterwards are functions of `(rng, count)` alone.
///
/// Distinctness is exact: each attempt's draws are packed injectively
/// into 52 bits (every tuple field is a one-to-one function of its own
/// draw) and deduplicated in an open-addressing `u64` set at ≤ 50 % load.
pub(crate) fn generate_flows_into<R: Rng>(
    rng: &mut R,
    count: u32,
    flows: &mut Vec<FiveTuple>,
    seen: &mut Vec<u64>,
) {
    let count = count as usize;
    flows.clear();
    flows.reserve(count);
    let slots = (count * 2).next_power_of_two().max(8);
    seen.clear();
    seen.resize(slots, FREE);
    let shift = 64 - slots.trailing_zeros();
    let mut attempts = [(0u64, FiveTuple::new(0, 0, 0, 0, 0)); BLOCK];
    while flows.len() < count {
        // Draw a block of attempts, then probe them: the probes of a
        // block are independent loads the core can overlap. A block of at
        // most `count - flows.len()` attempts cannot overshoot — only its
        // last attempt can complete the set — so the draws consumed are
        // those of the one-attempt-at-a-time loop.
        let block = &mut attempts[..(count - flows.len()).min(BLOCK)];
        for (key, flow) in block.iter_mut() {
            let client = rng.gen_range(0u32..1 << CLIENT_BITS);
            let server = rng.gen_range(0u32..1 << SERVER_BITS);
            let src_port = rng.gen_range(1024..u16::MAX);
            let server_port = rng.gen_range(0..SERVER_PORTS.len());
            let tcp = rng.gen_bool(0.8);
            *key = client as u64
                | (server as u64) << SERVER_SHIFT
                | (src_port as u64) << PORT_SHIFT
                | (server_port as u64) << SERVER_PORT_SHIFT
                | (tcp as u64) << PROTO_SHIFT;
            *flow = FiveTuple::new(
                CLIENT_NET | client,
                SERVER_NET | server,
                src_port,
                SERVER_PORTS[server_port],
                if tcp { 6 } else { 17 },
            );
        }
        for &(key, flow) in block.iter() {
            let mut at = (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> shift) as usize;
            while seen[at] != FREE && seen[at] != key {
                at = (at + 1) & (slots - 1);
            }
            if seen[at] == FREE {
                seen[at] = key;
                flows.push(flow);
            }
        }
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

    #[test]
    fn reused_buffers_do_not_reach_the_flow_set() {
        let mut flows = vec![FiveTuple::new(9, 9, 9, 9, 9); 77];
        let mut seen = vec![0x1234u64; 100_003];
        for count in [5_000, 3, 40_000, 1] {
            generate_flows_into(&mut StdRng::seed_from_u64(6), count, &mut flows, &mut seen);
            assert_eq!(flows, generate_flows(&mut StdRng::seed_from_u64(6), count));
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
