//! FlowStats: per-flow packet/byte counters (Click, header-only).
//!
//! The canonical flow-count-sensitive NF of the paper: its hash table grows
//! with the number of flows, so its working set — and hence its LLC
//! behaviour — is a direct function of the traffic profile (Fig. 6a).

use crate::cost::{CostTracker, HASH_CYCLES, PARSE_CYCLES, PROBE_CYCLES, UPDATE_CYCLES};
use crate::runtime::{NetworkFunction, Verdict};
use crate::table::{FlowTable, Keys, Prefix, TableSpec};
use yala_sim::ExecutionPattern;
use yala_traffic::{FiveTuple, PacketView};

/// The per-flow counter table: one insert per flow.
const TABLE: TableSpec = TableSpec {
    capacity: 1024,
    entry_bytes: 64.0,
    keys: Keys::EveryFlow,
};

/// Per-flow statistics record.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FlowStatsEntry {
    /// Packets seen on this flow.
    pub packets: u64,
    /// Payload bytes seen on this flow.
    pub bytes: u64,
}

/// The FlowStats NF.
///
/// # Example
///
/// ```
/// use yala_nf::nfs::FlowStats;
/// use yala_nf::runtime::NetworkFunction;
/// use yala_nf::cost::CostTracker;
/// use yala_traffic::{FiveTuple, Packet};
///
/// let mut nf = FlowStats::new();
/// let pkt = Packet::new(FiveTuple::new(1, 2, 3, 4, 6), vec![0; 100]);
/// let mut cost = CostTracker::new();
/// nf.process(pkt.view(), &mut cost);
/// assert_eq!(nf.stats(&pkt.five_tuple).unwrap().packets, 1);
/// ```
#[derive(Debug, Clone)]
pub struct FlowStats {
    table: FlowTable<FlowStatsEntry>,
}

impl FlowStats {
    /// Creates an empty FlowStats instance.
    pub fn new() -> Self {
        Self {
            table: FlowTable::with_entry_bytes(TABLE.capacity, TABLE.entry_bytes),
        }
    }

    /// Looks up the statistics recorded for a flow.
    pub fn stats(&mut self, flow: &FiveTuple) -> Option<FlowStatsEntry> {
        self.table.get_mut(flow.hash64()).0.copied()
    }

    /// Number of tracked flows.
    pub fn flow_count(&self) -> usize {
        self.table.len()
    }
}

impl Default for FlowStats {
    fn default() -> Self {
        Self::new()
    }
}

impl NetworkFunction for FlowStats {
    fn name(&self) -> &'static str {
        "flowstats"
    }

    fn pattern(&self) -> ExecutionPattern {
        ExecutionPattern::RunToCompletion
    }

    fn process(&mut self, pkt: PacketView<'_>, cost: &mut CostTracker) -> Verdict {
        cost.compute(PARSE_CYCLES + HASH_CYCLES);
        cost.read_lines(1.0); // header line
        let key = pkt.five_tuple.hash64();
        let payload = pkt.payload_len() as u64;
        let (entry, probes) = self.table.get_mut(key);
        cost.compute(PROBE_CYCLES * probes as f64);
        cost.read_lines(probes as f64);
        match entry {
            Some(e) => {
                e.packets += 1;
                e.bytes += payload;
                cost.compute(UPDATE_CYCLES);
                cost.write_lines(1.0);
            }
            None => {
                let probes = self.table.insert(
                    key,
                    FlowStatsEntry {
                        packets: 1,
                        bytes: payload,
                    },
                );
                cost.compute(PROBE_CYCLES * probes as f64 + UPDATE_CYCLES);
                cost.write_lines(probes as f64);
            }
        }
        Verdict::Forward
    }

    fn wss_bytes(&self) -> f64 {
        self.table.wss_bytes()
    }

    fn warm(&mut self, prefix: &mut Prefix<'_>) {
        self.table = prefix.table(TABLE, |_, _| FlowStatsEntry::default());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::TableFamily;
    use yala_traffic::Packet;

    fn pkt(port: u16, len: usize) -> Packet {
        Packet::new(FiveTuple::new(1, 2, port, 80, 6), vec![0u8; len])
    }

    #[test]
    fn counts_per_flow() {
        let mut nf = FlowStats::new();
        let mut cost = CostTracker::new();
        nf.process(pkt(1, 10).view(), &mut cost);
        nf.process(pkt(1, 20).view(), &mut cost);
        nf.process(pkt(2, 30).view(), &mut cost);
        let a = nf.stats(&pkt(1, 0).five_tuple).unwrap();
        assert_eq!(a.packets, 2);
        assert_eq!(a.bytes, 30);
        let b = nf.stats(&pkt(2, 0).five_tuple).unwrap();
        assert_eq!(b.packets, 1);
        assert_eq!(nf.flow_count(), 2);
    }

    #[test]
    fn charges_costs() {
        let mut nf = FlowStats::new();
        let mut cost = CostTracker::new();
        nf.process(pkt(1, 10).view(), &mut cost);
        assert!(cost.cycles > 0.0);
        assert!(cost.reads >= 2.0);
        assert!(cost.writes >= 1.0);
        assert!(cost.accel.is_empty(), "header-only NF uses no accelerator");
    }

    #[test]
    fn warm_populates_wss() {
        let mut nf = FlowStats::new();
        let flows: Vec<FiveTuple> = (0..10_000u32)
            .map(|i| FiveTuple::new(i, 2, 3, 4, 6))
            .collect();
        nf.warm(&mut TableFamily::new().prefix(&flows));
        assert_eq!(nf.flow_count(), 10_000);
        // 10K flows at 64 B/entry → at least 640 KB footprint.
        assert!(nf.wss_bytes() > 640_000.0);
    }

    #[test]
    fn wss_scales_with_flow_count() {
        let footprint = |n: u32| -> f64 {
            let mut nf = FlowStats::new();
            let flows: Vec<FiveTuple> = (0..n).map(|i| FiveTuple::new(i, 2, 3, 4, 6)).collect();
            nf.warm(&mut TableFamily::new().prefix(&flows));
            nf.wss_bytes()
        };
        assert!(footprint(64_000) > footprint(4_000) * 4.0);
    }
}
