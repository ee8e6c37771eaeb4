//! PacketFilter: stateless payload filtering on the regex accelerator
//! (DOCA-style). No flow table — its only traffic sensitivity is MTBR and
//! packet size through the scan itself.

use crate::cost::{CostTracker, PARSE_CYCLES};
use crate::runtime::{forwarded, NetworkFunction, Verdict};
use yala_rxp::{l7_default_ruleset, BatchScan, Ruleset};
use yala_sim::{ExecutionPattern, ResourceKind};
use yala_traffic::{PacketBatch, PacketView};

/// The PacketFilter NF.
#[derive(Debug, Clone)]
pub struct PacketFilter {
    rules: Ruleset,
    /// The scan of the batch in hand, reused so a warm dataplane
    /// allocates nothing.
    scan: BatchScan,
    dropped: u64,
    passed: u64,
}

impl PacketFilter {
    /// Creates a filter with the default ruleset (any match ⇒ drop).
    pub fn new() -> Self {
        let rules = l7_default_ruleset();
        Self {
            scan: BatchScan::default(),
            rules,
            dropped: 0,
            passed: 0,
        }
    }

    /// Packets dropped so far.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Packets passed so far.
    pub fn passed(&self) -> u64 {
        self.passed
    }

    /// The packet's logic, given the index of its payload's scan in
    /// `self.scan`.
    fn inspect(&mut self, pkt: PacketView<'_>, scanned: usize, cost: &mut CostTracker) -> Verdict {
        cost.compute(PARSE_CYCLES);
        cost.read_lines(1.0);
        let total_matches = self.scan.total_matches(scanned);
        cost.accel_request(
            ResourceKind::Regex,
            pkt.payload_len() as f64,
            total_matches as f64,
        );
        cost.compute(70.0);
        cost.read_lines(1.0);
        cost.write_lines(1.0);
        if total_matches > 0 {
            self.dropped += 1;
            Verdict::Drop
        } else {
            self.passed += 1;
            Verdict::Forward
        }
    }
}

impl Default for PacketFilter {
    fn default() -> Self {
        Self::new()
    }
}

impl NetworkFunction for PacketFilter {
    fn name(&self) -> &'static str {
        "packetfilter"
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
        // Stateless: descriptor rings only.
        64.0 * 1024.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use yala_traffic::FiveTuple;
    use yala_traffic::Packet;

    #[test]
    fn drops_matching_payloads() {
        let mut pf = PacketFilter::new();
        let flow = FiveTuple::new(1, 2, 3, 4, 6);
        let v = pf.process(
            Packet::new(flow, b"qq SSH-2.0-OpenSSH_8.9 qq".to_vec()).view(),
            &mut CostTracker::new(),
        );
        assert_eq!(v, Verdict::Drop);
        assert_eq!(pf.dropped(), 1);
    }

    #[test]
    fn passes_clean_payloads() {
        let mut pf = PacketFilter::new();
        let flow = FiveTuple::new(1, 2, 3, 4, 6);
        let v = pf.process(
            Packet::new(flow, vec![b'q'; 64]).view(),
            &mut CostTracker::new(),
        );
        assert_eq!(v, Verdict::Forward);
        assert_eq!(pf.passed(), 1);
    }

    #[test]
    fn wss_is_flow_independent() {
        let pf = PacketFilter::new();
        assert_eq!(pf.wss_bytes(), 64.0 * 1024.0);
    }
}
