//! IPComp Gateway: payload classification on the regex accelerator followed
//! by compression on the compression accelerator (the paper's only NF using
//! *two* accelerators, Table 1). Its bottleneck shifts across three
//! resources with traffic — the diagnosis use case of Table 7.

use crate::cost::{CostTracker, PARSE_CYCLES};
use crate::runtime::{forwarded, NetworkFunction, Verdict};
use yala_rxp::{l7_default_ruleset, BatchScan, Ruleset};
use yala_sim::{ExecutionPattern, ResourceKind};
use yala_traffic::{PacketBatch, PacketView};

/// The IPComp gateway NF.
#[derive(Debug, Clone)]
pub struct IpCompGateway {
    rules: Ruleset,
    /// The scan of the batch in hand, reused so a warm dataplane
    /// allocates nothing.
    scan: BatchScan,
    /// Index of the `tls_hello` rule (hoisted out of the per-packet path).
    tls_idx: usize,
    compressed: u64,
    bypassed: u64,
}

impl IpCompGateway {
    /// Creates the gateway with the default classification ruleset.
    pub fn new() -> Self {
        let rules = l7_default_ruleset();
        let tls_idx = rules
            .rules()
            .iter()
            .position(|r| r.name == "tls_hello")
            .expect("default ruleset has tls_hello");
        Self {
            scan: BatchScan::default(),
            tls_idx,
            rules,
            compressed: 0,
            bypassed: 0,
        }
    }

    /// Packets routed through compression.
    pub fn compressed(&self) -> u64 {
        self.compressed
    }

    /// Packets that bypassed compression (already-compressed protocols).
    pub fn bypassed(&self) -> u64 {
        self.bypassed
    }

    /// The packet's logic, given the index of its payload's scan in
    /// `self.scan`.
    fn inspect(&mut self, pkt: PacketView<'_>, scanned: usize, cost: &mut CostTracker) -> Verdict {
        cost.compute(PARSE_CYCLES);
        cost.read_lines(1.0);
        let bytes = pkt.payload_len() as f64;
        // Classify with the regex engine (protocol detection).
        cost.accel_request(
            ResourceKind::Regex,
            bytes,
            self.scan.total_matches(scanned) as f64,
        );
        cost.compute(90.0);
        cost.read_lines(1.0);
        cost.write_lines(1.0);
        // TLS/compressed protocols bypass; everything else is compressed.
        if self.scan.per_rule(scanned)[self.tls_idx] > 0 {
            self.bypassed += 1;
        } else {
            cost.accel_request(ResourceKind::Compression, bytes, 0.0);
            cost.compute(60.0);
            cost.read_lines(1.0);
            cost.write_lines(1.0);
            self.compressed += 1;
        }
        // IPComp header rewrite.
        cost.compute(40.0);
        cost.write_lines(1.0);
        Verdict::Forward
    }
}

impl Default for IpCompGateway {
    fn default() -> Self {
        Self::new()
    }
}

impl NetworkFunction for IpCompGateway {
    fn name(&self) -> &'static str {
        "ipcomp"
    }

    fn pattern(&self) -> ExecutionPattern {
        ExecutionPattern::RunToCompletion
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
        // Staging buffers for compression input/output.
        256.0 * 1024.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use yala_traffic::FiveTuple;
    use yala_traffic::Packet;

    fn pkt(payload: Vec<u8>) -> Packet {
        Packet::new(FiveTuple::new(1, 2, 3, 4, 6), payload)
    }

    #[test]
    fn compresses_plain_traffic() {
        let mut gw = IpCompGateway::new();
        let mut cost = CostTracker::new();
        gw.process(pkt(vec![b'q'; 800]).view(), &mut cost);
        assert_eq!(gw.compressed(), 1);
        assert_eq!(cost.accel.len(), 2, "regex then compression");
        assert_eq!(cost.accel[0].kind, ResourceKind::Regex);
        assert_eq!(cost.accel[1].kind, ResourceKind::Compression);
    }

    #[test]
    fn bypasses_tls() {
        let mut gw = IpCompGateway::new();
        let mut payload = b"\x16\x03\x01\x02\x00\x01".to_vec();
        payload.extend_from_slice(&[b'q'; 100]);
        let mut cost = CostTracker::new();
        gw.process(pkt(payload).view(), &mut cost);
        assert_eq!(gw.bypassed(), 1);
        assert_eq!(gw.compressed(), 0);
        assert_eq!(cost.accel.len(), 1, "no compression request for TLS");
    }

    #[test]
    fn uses_both_accelerators_across_traffic() {
        let mut gw = IpCompGateway::new();
        gw.process(pkt(vec![b'q'; 100]).view(), &mut CostTracker::new());
        let mut tls = b"\x16\x03\x01\x02\x00\x01".to_vec();
        tls.extend_from_slice(&[b'q'; 50]);
        gw.process(pkt(tls).view(), &mut CostTracker::new());
        assert_eq!(gw.compressed(), 1);
        assert_eq!(gw.bypassed(), 1);
    }
}
