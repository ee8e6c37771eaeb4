//! NIDS: network intrusion detection — per-flow connection state plus
//! signature scanning on the regex accelerator, raising alerts on matches
//! (Click + RXP; E3/SLOMO-style NIDS). A pipeline NF: parse/flow-state and
//! scan run as separate stages.

use crate::cost::{CostTracker, HASH_CYCLES, PARSE_CYCLES, PROBE_CYCLES, UPDATE_CYCLES};
use crate::runtime::{forwarded, NetworkFunction, Verdict};
use crate::table::{FlowTable, Keys, Prefix, TableSpec};
use yala_rxp::{l7_default_ruleset, BatchScan, Ruleset};
use yala_sim::{ExecutionPattern, ResourceKind};
use yala_traffic::FiveTuple;
use yala_traffic::{PacketBatch, PacketView};

/// The connection table: one insert per flow.
const TABLE: TableSpec = TableSpec {
    capacity: 1024,
    entry_bytes: 96.0,
    keys: Keys::EveryFlow,
};

/// Per-flow connection record.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ConnState {
    /// Packets inspected on this flow.
    pub packets: u64,
    /// Alerts raised on this flow.
    pub alerts: u64,
}

/// The NIDS NF.
#[derive(Debug, Clone)]
pub struct Nids {
    table: FlowTable<ConnState>,
    rules: Ruleset,
    /// The scan of the batch in hand, reused so a warm dataplane
    /// allocates nothing.
    scan: BatchScan,
    alerts: u64,
}

impl Nids {
    /// Creates a NIDS with the default ruleset.
    pub fn new() -> Self {
        let rules = l7_default_ruleset();
        Self {
            table: FlowTable::with_entry_bytes(TABLE.capacity, TABLE.entry_bytes),
            scan: BatchScan::default(),
            rules,
            alerts: 0,
        }
    }

    /// Total alerts raised.
    pub fn alerts(&self) -> u64 {
        self.alerts
    }

    /// Connection state for a flow.
    pub fn conn(&mut self, flow: &FiveTuple) -> Option<ConnState> {
        self.table.get_mut(flow.hash64()).0.copied()
    }

    /// The packet's logic, given the index of its payload's scan in
    /// `self.scan`.
    fn inspect(&mut self, pkt: PacketView<'_>, scanned: usize, cost: &mut CostTracker) -> Verdict {
        // Stage 1 (CPU): parse + connection tracking.
        cost.compute(PARSE_CYCLES + HASH_CYCLES);
        cost.read_lines(1.0);
        let key = pkt.five_tuple.hash64();
        let (hit, probes) = self.table.get_mut(key);
        cost.compute(PROBE_CYCLES * probes as f64);
        cost.read_lines(probes as f64);
        let is_new = hit.is_none();
        if is_new {
            let p = self.table.insert(key, ConnState::default());
            cost.compute(PROBE_CYCLES * p as f64 + UPDATE_CYCLES);
            cost.write_lines(p as f64);
        }
        // Stage 2 (regex accelerator): signature scan, its matches
        // counted by the scan of the batch.
        let total_matches = self.scan.total_matches(scanned);
        cost.accel_request(
            ResourceKind::Regex,
            pkt.payload_len() as f64,
            total_matches as f64,
        );
        cost.compute(90.0);
        cost.read_lines(1.0);
        cost.write_lines(1.0);
        // Stage 3 (CPU): verdict + state update.
        let (entry, _) = self.table.get_mut(key);
        let entry = entry.expect("inserted above");
        entry.packets += 1;
        cost.compute(UPDATE_CYCLES);
        cost.write_lines(1.0);
        if total_matches > 0 {
            entry.alerts += total_matches as u64;
            self.alerts += total_matches as u64;
            cost.compute(150.0); // alert formatting
            cost.write_lines(1.0);
            return Verdict::Drop;
        }
        Verdict::Forward
    }
}

impl Default for Nids {
    fn default() -> Self {
        Self::new()
    }
}

impl NetworkFunction for Nids {
    fn name(&self) -> &'static str {
        "nids"
    }

    fn pattern(&self) -> ExecutionPattern {
        ExecutionPattern::Pipeline
    }

    fn process(&mut self, pkt: PacketView<'_>, cost: &mut CostTracker) -> Verdict {
        self.rules.scan_batch([pkt.payload], &mut self.scan);
        self.inspect(pkt, 0, cost)
    }

    fn process_batch(&mut self, batch: &PacketBatch, cost: &mut CostTracker) -> usize {
        self.rules
            .scan_batch(batch.iter().map(|p| p.payload), &mut self.scan);
        forwarded(batch, |i, pkt| self.inspect(pkt, i, cost))
    }

    fn wss_bytes(&self) -> f64 {
        self.table.wss_bytes()
    }

    fn warm(&mut self, prefix: &mut Prefix<'_>) {
        self.table = prefix.table(TABLE, |_, _| ConnState::default());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use yala_traffic::Packet;

    #[test]
    fn alerts_and_drops_on_signature() {
        let mut nids = Nids::new();
        let flow = FiveTuple::new(1, 2, 3, 4, 6);
        let attack = Packet::new(flow, b"GET /x<script>alert(1)</script> qq".to_vec());
        let verdict = nids.process(attack.view(), &mut CostTracker::new());
        assert_eq!(verdict, Verdict::Drop);
        assert!(nids.alerts() >= 1);
        assert!(nids.conn(&flow).unwrap().alerts >= 1);
    }

    #[test]
    fn forwards_benign_traffic() {
        let mut nids = Nids::new();
        let flow = FiveTuple::new(1, 2, 3, 4, 6);
        let benign = Packet::new(flow, vec![b'q'; 200]);
        assert_eq!(
            nids.process(benign.view(), &mut CostTracker::new()),
            Verdict::Forward
        );
        assert_eq!(nids.alerts(), 0);
        assert_eq!(nids.conn(&flow).unwrap().packets, 1);
    }

    #[test]
    fn is_pipeline() {
        assert_eq!(Nids::new().pattern(), ExecutionPattern::Pipeline);
    }

    #[test]
    fn alert_path_costs_more() {
        let mut nids = Nids::new();
        let flow = FiveTuple::new(1, 2, 3, 4, 6);
        let mut benign_cost = CostTracker::new();
        nids.process(Packet::new(flow, vec![b'q'; 100]).view(), &mut benign_cost);
        let mut attack_cost = CostTracker::new();
        nids.process(
            Packet::new(flow, b"xxxx ' OR 1=1 -- qqqqqqqqqq".to_vec()).view(),
            &mut attack_cost,
        );
        assert!(attack_cost.cycles > benign_cost.cycles);
    }
}
