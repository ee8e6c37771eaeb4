//! IPTunnel: IP-in-IP encapsulation (Click). Copies and re-checksums the
//! packet, so its cost scales with *packet size* — the packet-size-
//! sensitive NF of the evaluation (Table 5 shows SLOMO's 62.9% MAPE on it
//! under varying traffic).

use crate::cost::{CostTracker, LINE_BYTES, PARSE_CYCLES, PER_BYTE_CYCLES};
use crate::runtime::{NetworkFunction, Verdict};
use crate::table::{FlowTable, Keys, Prefix, TableSpec};
use yala_sim::ExecutionPattern;
use yala_traffic::FiveTuple;
use yala_traffic::PacketView;

/// The per-flow endpoint cache (a small start): a flow already cached is
/// not inserted again.
const ENDPOINTS: TableSpec = TableSpec {
    capacity: 256,
    entry_bytes: 48.0,
    keys: Keys::NewFlows,
};

/// The IPTunnel NF: wraps packets toward a tunnel endpoint chosen per flow.
#[derive(Debug, Clone)]
pub struct IpTunnel {
    /// Cached per-flow tunnel endpoint assignments.
    endpoints: FlowTable<u32>,
    /// Available tunnel endpoints.
    n_endpoints: u32,
    /// Packets encapsulated so far.
    encapsulated: u64,
}

impl IpTunnel {
    /// Creates a tunnel NF with `n_endpoints` remote endpoints.
    ///
    /// # Panics
    ///
    /// Panics if `n_endpoints` is zero.
    pub fn new(n_endpoints: u32) -> Self {
        assert!(n_endpoints > 0, "need at least one tunnel endpoint");
        Self {
            endpoints: FlowTable::with_entry_bytes(ENDPOINTS.capacity, ENDPOINTS.entry_bytes),
            n_endpoints,
            encapsulated: 0,
        }
    }

    /// Total packets encapsulated.
    pub fn encapsulated(&self) -> u64 {
        self.encapsulated
    }

    /// The endpoint a flow is pinned to, assigning one if new.
    pub fn endpoint_for(&mut self, flow: &FiveTuple) -> u32 {
        let key = flow.hash64();
        if let (Some(ep), _) = self.endpoints.get_mut(key) {
            return *ep;
        }
        let ep = (key % self.n_endpoints as u64) as u32;
        self.endpoints.insert(key, ep);
        ep
    }
}

impl NetworkFunction for IpTunnel {
    fn name(&self) -> &'static str {
        "iptunnel"
    }

    fn pattern(&self) -> ExecutionPattern {
        ExecutionPattern::RunToCompletion
    }

    fn process(&mut self, pkt: PacketView<'_>, cost: &mut CostTracker) -> Verdict {
        cost.compute(PARSE_CYCLES);
        cost.read_lines(1.0);
        // Pick the tunnel endpoint (tiny per-flow cache).
        let key = pkt.five_tuple.hash64();
        let (hit, probes) = self.endpoints.get_mut(key);
        cost.read_lines(probes as f64);
        if hit.is_none() {
            let ep = (key % self.n_endpoints as u64) as u32;
            let p = self.endpoints.insert(key, ep);
            cost.write_lines(p as f64);
        }
        // Encapsulate: prepend outer header and copy payload through.
        let bytes = pkt.payload_len() as f64;
        let lines = (bytes / LINE_BYTES).ceil();
        cost.read_lines(lines);
        cost.write_lines(lines);
        // Outer checksum over the whole packet.
        cost.compute(bytes * PER_BYTE_CYCLES + 80.0);
        cost.write_lines(1.0); // outer header
        self.encapsulated += 1;
        Verdict::Forward
    }

    fn wss_bytes(&self) -> f64 {
        // Endpoint cache plus per-core encap staging buffers.
        self.endpoints.wss_bytes() + 128.0 * 1024.0
    }

    fn warm(&mut self, prefix: &mut Prefix<'_>) {
        let flows = prefix.flows();
        let n = self.n_endpoints as u64;
        self.endpoints = prefix.table(ENDPOINTS, |pos, _| (flows[pos].hash64() % n) as u32);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use yala_traffic::Packet;

    fn pkt(len: usize) -> Packet {
        Packet::new(FiveTuple::new(9, 8, 7, 6, 17), vec![0u8; len])
    }

    #[test]
    fn endpoint_assignment_is_sticky() {
        let mut nf = IpTunnel::new(4);
        let flow = FiveTuple::new(1, 2, 3, 4, 6);
        let ep = nf.endpoint_for(&flow);
        for _ in 0..10 {
            assert_eq!(nf.endpoint_for(&flow), ep);
        }
    }

    #[test]
    fn cost_scales_with_packet_size() {
        let mut nf = IpTunnel::new(4);
        let mut small = CostTracker::new();
        nf.process(pkt(64).view(), &mut small);
        let mut large = CostTracker::new();
        nf.process(pkt(1446).view(), &mut large);
        assert!(
            large.cycles > small.cycles * 3.0,
            "checksum cost must scale"
        );
        assert!(large.refs() > small.refs() * 3.0, "copy refs must scale");
    }

    #[test]
    fn counts_encapsulations() {
        let mut nf = IpTunnel::new(2);
        for _ in 0..5 {
            nf.process(pkt(100).view(), &mut CostTracker::new());
        }
        assert_eq!(nf.encapsulated(), 5);
    }

    #[test]
    #[should_panic(expected = "at least one tunnel endpoint")]
    fn zero_endpoints_panics() {
        IpTunnel::new(0);
    }
}
