//! FlowClassifier: assigns each flow to a traffic class from header fields
//! and caches the decision per flow (DPDK ip_pipeline flow classification).
//! Flow-count sensitive through its class cache.

use crate::cost::{CostTracker, HASH_CYCLES, PARSE_CYCLES, PROBE_CYCLES, UPDATE_CYCLES};
use crate::runtime::{NetworkFunction, Verdict};
use crate::table::{FlowTable, Keys, Prefix, TableSpec};
use yala_sim::ExecutionPattern;
use yala_traffic::FiveTuple;
use yala_traffic::PacketView;

/// The per-flow class cache: one insert per flow.
const CACHE: TableSpec = TableSpec {
    capacity: 1024,
    entry_bytes: 80.0,
    keys: Keys::EveryFlow,
};

/// Number of traffic classes.
pub const N_CLASSES: u8 = 8;

/// The FlowClassifier NF.
#[derive(Debug, Clone)]
pub struct FlowClassifier {
    cache: FlowTable<u8>,
    class_counts: [u64; N_CLASSES as usize],
}

impl FlowClassifier {
    /// Creates an empty classifier.
    pub fn new() -> Self {
        Self {
            cache: FlowTable::with_entry_bytes(CACHE.capacity, CACHE.entry_bytes),
            class_counts: [0; 8],
        }
    }

    /// The classification rule: protocol and destination port buckets.
    pub fn classify(ft: &FiveTuple) -> u8 {
        let base = match ft.dst_port {
            80 | 8080 => 0u8, // web
            443 => 1,         // tls
            22 => 2,          // ssh
            25 => 3,          // mail
            53 => 4,          // dns
            _ => 5,           // other
        };
        let proto_bump = if ft.proto == 17 { 2u8 } else { 0 };
        (base + proto_bump) % N_CLASSES
    }

    /// Packets seen per class.
    pub fn class_counts(&self) -> &[u64; 8] {
        &self.class_counts
    }

    /// Cached flows.
    pub fn cached_flows(&self) -> usize {
        self.cache.len()
    }
}

impl Default for FlowClassifier {
    fn default() -> Self {
        Self::new()
    }
}

impl NetworkFunction for FlowClassifier {
    fn name(&self) -> &'static str {
        "flowclassifier"
    }

    fn pattern(&self) -> ExecutionPattern {
        ExecutionPattern::RunToCompletion
    }

    fn process(&mut self, pkt: PacketView<'_>, cost: &mut CostTracker) -> Verdict {
        cost.compute(PARSE_CYCLES + HASH_CYCLES);
        cost.read_lines(1.0);
        let key = pkt.five_tuple.hash64();
        let (hit, probes) = self.cache.get_mut(key);
        cost.compute(PROBE_CYCLES * probes as f64);
        cost.read_lines(probes as f64);
        let class = match hit {
            Some(c) => *c,
            None => {
                let c = Self::classify(&pkt.five_tuple);
                cost.compute(60.0); // classification logic
                let p = self.cache.insert(key, c);
                cost.compute(PROBE_CYCLES * p as f64 + UPDATE_CYCLES);
                cost.write_lines(p as f64);
                c
            }
        };
        self.class_counts[class as usize] += 1;
        cost.compute(UPDATE_CYCLES);
        cost.write_lines(1.0);
        Verdict::Forward
    }

    fn wss_bytes(&self) -> f64 {
        self.cache.wss_bytes()
    }

    fn warm(&mut self, prefix: &mut Prefix<'_>) {
        let flows = prefix.flows();
        self.cache = prefix.table(CACHE, |pos, _| Self::classify(&flows[pos]));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::TableFamily;
    use yala_traffic::Packet;

    #[test]
    fn classification_is_deterministic() {
        let web = FiveTuple::new(1, 2, 3, 80, 6);
        assert_eq!(FlowClassifier::classify(&web), 0);
        let dns_udp = FiveTuple::new(1, 2, 3, 53, 17);
        assert_eq!(FlowClassifier::classify(&dns_udp), 6);
    }

    #[test]
    fn caches_per_flow() {
        let mut fc = FlowClassifier::new();
        let pkt = Packet::new(FiveTuple::new(1, 2, 3, 443, 6), vec![]);
        let mut c1 = CostTracker::new();
        fc.process(pkt.view(), &mut c1);
        assert_eq!(fc.cached_flows(), 1);
        let mut c2 = CostTracker::new();
        fc.process(pkt.view(), &mut c2);
        assert_eq!(fc.cached_flows(), 1, "no duplicate cache entry");
        assert!(c2.cycles < c1.cycles, "cache hit must be cheaper");
        assert_eq!(fc.class_counts()[1], 2);
    }

    #[test]
    fn warm_fills_cache() {
        let mut fc = FlowClassifier::new();
        let flows: Vec<FiveTuple> = (0..5000u32)
            .map(|i| FiveTuple::new(i, 2, 3, 80, 6))
            .collect();
        fc.warm(&mut TableFamily::new().prefix(&flows));
        assert_eq!(fc.cached_flows(), 5000);
        assert!(fc.wss_bytes() > 5000.0 * 70.0);
    }
}
