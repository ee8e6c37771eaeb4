//! FlowMonitor: per-flow statistics plus payload inspection on the regex
//! accelerator (Click + RXP). The paper's running example of a
//! *multi-resource* NF — it contends on both the memory subsystem (flow
//! table) and the regex engine (payload scans), which is what breaks
//! single-resource predictors (Fig. 2).

use crate::cost::{CostTracker, HASH_CYCLES, PARSE_CYCLES, PROBE_CYCLES, UPDATE_CYCLES};
use crate::runtime::{NetworkFunction, Verdict};
use crate::table::{FlowTable, Keys, Prefix, TableSpec};
use yala_rxp::{l7_default_ruleset, Ruleset, ScanReport};
use yala_sim::{ExecutionPattern, ResourceKind};
use yala_traffic::FiveTuple;
use yala_traffic::PacketView;

/// The per-flow match table: one insert per flow.
const TABLE: TableSpec = TableSpec {
    capacity: 1024,
    entry_bytes: 64.0,
    keys: Keys::EveryFlow,
};

/// Per-flow monitoring record.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MonitorEntry {
    /// Packets seen.
    pub packets: u64,
    /// Ruleset matches attributed to this flow.
    pub matches: u64,
}

/// The FlowMonitor NF.
#[derive(Debug, Clone)]
pub struct FlowMonitor {
    table: FlowTable<MonitorEntry>,
    rules: Ruleset,
    /// Reusable scan scratch: keeps the per-packet hot loop allocation-free.
    scratch: ScanReport,
}

impl FlowMonitor {
    /// Creates a FlowMonitor scanning with the default L7 ruleset.
    pub fn new() -> Self {
        Self::with_ruleset(l7_default_ruleset())
    }

    /// Creates a FlowMonitor with a custom ruleset.
    pub fn with_ruleset(rules: Ruleset) -> Self {
        Self {
            table: FlowTable::with_entry_bytes(TABLE.capacity, TABLE.entry_bytes),
            scratch: ScanReport::with_rules(rules.len()),
            rules,
        }
    }

    /// The record for a flow.
    pub fn entry(&mut self, flow: &FiveTuple) -> Option<MonitorEntry> {
        self.table.get_mut(flow.hash64()).0.copied()
    }
}

impl Default for FlowMonitor {
    fn default() -> Self {
        Self::new()
    }
}

impl NetworkFunction for FlowMonitor {
    fn name(&self) -> &'static str {
        "flowmonitor"
    }

    fn pattern(&self) -> ExecutionPattern {
        ExecutionPattern::RunToCompletion
    }

    fn process(&mut self, pkt: PacketView<'_>, cost: &mut CostTracker) -> Verdict {
        cost.compute(PARSE_CYCLES + HASH_CYCLES);
        cost.read_lines(1.0);
        // Offload the payload scan to the regex accelerator. The match
        // count is *measured* by really scanning — this is what makes MTBR
        // a causal traffic attribute in the reproduction.
        self.rules.scan_into(pkt.payload, &mut self.scratch);
        let total_matches = self.scratch.total_matches;
        cost.accel_request(
            ResourceKind::Regex,
            pkt.payload_len() as f64,
            total_matches as f64,
        );
        // Submit/poll descriptor cost.
        cost.compute(90.0);
        cost.read_lines(1.0);
        cost.write_lines(1.0);
        // Account the result into the flow table.
        let key = pkt.five_tuple.hash64();
        let (hit, probes) = self.table.get_mut(key);
        cost.compute(PROBE_CYCLES * probes as f64);
        cost.read_lines(probes as f64);
        match hit {
            Some(e) => {
                e.packets += 1;
                e.matches += total_matches as u64;
                cost.compute(UPDATE_CYCLES);
                cost.write_lines(1.0);
            }
            None => {
                let p = self.table.insert(
                    key,
                    MonitorEntry {
                        packets: 1,
                        matches: total_matches as u64,
                    },
                );
                cost.compute(PROBE_CYCLES * p as f64 + UPDATE_CYCLES);
                cost.write_lines(p as f64);
            }
        }
        Verdict::Forward
    }

    fn wss_bytes(&self) -> f64 {
        self.table.wss_bytes()
    }

    fn warm(&mut self, prefix: &mut Prefix<'_>) {
        self.table = prefix.table(TABLE, |_, _| MonitorEntry::default());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use yala_traffic::Packet;

    #[test]
    fn records_matches_per_flow() {
        let mut nf = FlowMonitor::new();
        let flow = FiveTuple::new(1, 2, 3, 4, 6);
        let benign = Packet::new(flow, b"nothing to see here qqqq".to_vec());
        let mut cost = CostTracker::new();
        nf.process(benign.view(), &mut cost);
        assert_eq!(nf.entry(&flow).unwrap().matches, 0);

        let hostile = Packet::new(flow, b"xx ' OR 1=1 -- yy".to_vec());
        nf.process(hostile.view(), &mut CostTracker::new());
        let e = nf.entry(&flow).unwrap();
        assert_eq!(e.packets, 2);
        assert_eq!(e.matches, 1);
    }

    #[test]
    fn issues_one_regex_request_per_packet() {
        let mut nf = FlowMonitor::new();
        let pkt = Packet::new(FiveTuple::new(1, 2, 3, 4, 6), vec![b'q'; 500]);
        let mut cost = CostTracker::new();
        nf.process(pkt.view(), &mut cost);
        assert_eq!(cost.accel.len(), 1);
        assert_eq!(cost.accel[0].kind, ResourceKind::Regex);
        assert_eq!(cost.accel[0].bytes, 500.0);
        assert_eq!(cost.accel[0].matches, 0.0);
    }

    #[test]
    fn match_count_reaches_accel_request() {
        let mut nf = FlowMonitor::new();
        let mut payload = Vec::new();
        for _ in 0..3 {
            payload.extend_from_slice(b"qq filler ' OR 1=1 more filler ");
        }
        let pkt = Packet::new(FiveTuple::new(1, 2, 3, 4, 6), payload);
        let mut cost = CostTracker::new();
        nf.process(pkt.view(), &mut cost);
        assert_eq!(cost.accel[0].matches, 3.0);
    }
}
