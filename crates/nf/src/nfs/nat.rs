//! NAT: source network address and port translation with bidirectional
//! mapping tables (Click/E3-style). Flow-count sensitive through its two
//! mapping tables — the paper's §5.2 calls out "the mapping table in NAT"
//! as the data structure whose growth drives the LLC effect.

use crate::cost::{CostTracker, HASH_CYCLES, PARSE_CYCLES, PROBE_CYCLES, UPDATE_CYCLES};
use crate::runtime::{NetworkFunction, Verdict};
use crate::table::{FlowTable, Keys, Prefix, TableSpec};
use yala_sim::ExecutionPattern;
use yala_traffic::FiveTuple;
use yala_traffic::PacketView;

/// The outbound mapping table, keyed by flow: a flow already bound is not
/// bound again. The return table has the same shape, keyed by port.
const OUT: TableSpec = TableSpec {
    capacity: 1024,
    entry_bytes: 64.0,
    keys: Keys::NewFlows,
};
/// The first external port; the allocator wraps from `u16::MAX` back here.
const FIRST_PORT: u16 = 10_000;
/// External ports before the allocator wraps.
const PORTS: usize = u16::MAX as usize + 1 - FIRST_PORT as usize;

/// The external port of the `i`-th binding.
fn port(i: usize) -> u16 {
    FIRST_PORT + (i % PORTS) as u16
}

/// External address the NAT translates to.
const NAT_IP: u32 = 0xc0a8_0101;

/// One NAT binding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NatBinding {
    /// Translated (external) source port.
    pub external_port: u16,
    /// Original flow identity.
    pub inner: FiveTuple,
}

/// The NAT NF.
#[derive(Debug, Clone)]
pub struct Nat {
    /// inner flow hash → binding (outbound direction).
    out_table: FlowTable<NatBinding>,
    /// external port → binding (return direction).
    in_table: FlowTable<NatBinding>,
    next_port: u16,
}

impl Nat {
    /// Creates an empty NAT.
    pub fn new() -> Self {
        Self {
            out_table: FlowTable::with_entry_bytes(OUT.capacity, OUT.entry_bytes),
            in_table: FlowTable::with_entry_bytes(OUT.capacity, OUT.entry_bytes),
            next_port: FIRST_PORT,
        }
    }

    /// The binding for an inner flow, if established.
    pub fn binding(&mut self, flow: &FiveTuple) -> Option<NatBinding> {
        self.out_table.get_mut(flow.hash64()).0.copied()
    }

    /// Number of active bindings.
    pub fn binding_count(&self) -> usize {
        self.out_table.len()
    }

    /// Binds `flow`, whose hash the caller already holds as `key`.
    fn allocate(&mut self, flow: FiveTuple, key: u64) -> (NatBinding, usize) {
        let port = self.next_port;
        self.next_port = self.next_port.wrapping_add(1).max(FIRST_PORT);
        let binding = NatBinding {
            external_port: port,
            inner: flow,
        };
        let p1 = self.out_table.insert(key, binding);
        let p2 = self.in_table.insert(port as u64, binding);
        (binding, p1 + p2)
    }
}

impl Default for Nat {
    fn default() -> Self {
        Self::new()
    }
}

impl NetworkFunction for Nat {
    fn name(&self) -> &'static str {
        "nat"
    }

    fn pattern(&self) -> ExecutionPattern {
        ExecutionPattern::RunToCompletion
    }

    fn process(&mut self, pkt: PacketView<'_>, cost: &mut CostTracker) -> Verdict {
        cost.compute(PARSE_CYCLES + HASH_CYCLES);
        cost.read_lines(1.0);
        let key = pkt.five_tuple.hash64();
        let (hit, probes) = self.out_table.get_mut(key);
        cost.compute(PROBE_CYCLES * probes as f64);
        cost.read_lines(probes as f64);
        let _binding = match hit {
            Some(b) => *b,
            None => {
                let (b, insert_probes) = self.allocate(pkt.five_tuple, key);
                cost.compute(PROBE_CYCLES * insert_probes as f64 + 2.0 * UPDATE_CYCLES);
                cost.write_lines(insert_probes as f64);
                b
            }
        };
        // Rewrite source ip/port, incrementally update checksums.
        cost.compute(UPDATE_CYCLES + 45.0);
        cost.write_lines(1.0);
        debug_assert_eq!(NAT_IP, 0xc0a8_0101);
        Verdict::Forward
    }

    fn wss_bytes(&self) -> f64 {
        self.out_table.wss_bytes() + self.in_table.wss_bytes()
    }

    fn warm(&mut self, prefix: &mut Prefix<'_>) {
        // What `process` would do for each flow's first packet: a flow
        // whose key is bound already is skipped, every other one gets the
        // next port, bound in both directions.
        let flows = prefix.flows();
        let out = prefix.table(OUT, |pos, binding| NatBinding {
            external_port: port(binding),
            inner: flows[pos],
        });
        let bindings = out.len();
        let ports = Keys::Cyclic {
            start: FIRST_PORT as u64,
            period: PORTS as u64,
            count: bindings,
        };
        let ports = TableSpec { keys: ports, ..OUT };
        self.in_table = prefix.table(ports, |binding, _| out.values()[binding]);
        self.out_table = out;
        self.next_port = port(bindings);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::TableFamily;
    use yala_traffic::Packet;

    fn flow(p: u16) -> FiveTuple {
        FiveTuple::new(0x0a000001, 0x08080808, p, 443, 6)
    }

    #[test]
    fn binding_is_stable_per_flow() {
        let mut nat = Nat::new();
        let pkt = Packet::new(flow(1234), vec![0; 10]);
        nat.process(pkt.view(), &mut CostTracker::new());
        let b1 = nat.binding(&flow(1234)).unwrap();
        nat.process(pkt.view(), &mut CostTracker::new());
        let b2 = nat.binding(&flow(1234)).unwrap();
        assert_eq!(b1, b2);
    }

    #[test]
    fn distinct_flows_get_distinct_ports() {
        let mut nat = Nat::new();
        for p in 0..100u16 {
            nat.process(
                Packet::new(flow(p), vec![0; 10]).view(),
                &mut CostTracker::new(),
            );
        }
        assert_eq!(nat.binding_count(), 100);
        let mut ports: Vec<u16> = (0..100u16)
            .map(|p| nat.binding(&flow(p)).unwrap().external_port)
            .collect();
        ports.sort_unstable();
        ports.dedup();
        assert_eq!(ports.len(), 100, "external ports must be unique");
    }

    #[test]
    fn two_tables_double_footprint() {
        let mut nat = Nat::new();
        let flows: Vec<FiveTuple> = (0..1000u16).map(flow).collect();
        nat.warm(&mut TableFamily::new().prefix(&flows));
        // Two tables, each ≥ 64 KB of entries.
        assert!(nat.wss_bytes() > 2.0 * 1000.0 * 60.0);
    }

    #[test]
    fn miss_is_costlier_than_hit() {
        let mut nat = Nat::new();
        let mut miss = CostTracker::new();
        nat.process(Packet::new(flow(1), vec![0; 10]).view(), &mut miss);
        let mut hit = CostTracker::new();
        nat.process(Packet::new(flow(1), vec![0; 10]).view(), &mut hit);
        assert!(miss.cycles > hit.cycles);
        assert!(miss.writes > hit.writes);
    }
}
