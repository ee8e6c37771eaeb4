//! Firewall: the AMD Pensando generalisation NF of §8/Table 9. It "conducts
//! a flow walk on \[the\] hardware flow table and updates entry metadata upon
//! matching against flows in the input traffic" — a memory-dominated NF
//! with a policy check on the miss path. No accelerators, so it runs on the
//! Pensando preset (which has no regex engine).

use crate::cost::{CostTracker, HASH_CYCLES, PARSE_CYCLES, PROBE_CYCLES, UPDATE_CYCLES};
use crate::nfs::acl::{Acl, AclRule};
use crate::runtime::{NetworkFunction, Verdict};
use crate::table::{FlowTable, Keys, Prefix, TableSpec};
use yala_sim::ExecutionPattern;
use yala_traffic::PacketView;

/// The hardware flow table: one insert per flow.
const TABLE: TableSpec = TableSpec {
    capacity: 1024,
    entry_bytes: 128.0,
    keys: Keys::EveryFlow,
};

/// Per-flow firewall record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FwEntry {
    /// Whether the policy permitted the flow when first seen.
    pub permitted: bool,
    /// Packets matched against the entry.
    pub hits: u64,
}

/// The Pensando-style Firewall NF.
#[derive(Debug, Clone)]
pub struct Firewall {
    flow_table: FlowTable<FwEntry>,
    policy: Acl,
    denied: u64,
}

impl Firewall {
    /// Creates a firewall with `n_policy_rules` random deny rules.
    pub fn new(n_policy_rules: usize, seed: u64) -> Self {
        Self {
            flow_table: FlowTable::with_entry_bytes(TABLE.capacity, TABLE.entry_bytes),
            policy: Acl::new(n_policy_rules, seed),
            denied: 0,
        }
    }

    /// Creates a firewall with an explicit policy.
    pub fn with_policy(rules: Vec<AclRule>) -> Self {
        Self {
            flow_table: FlowTable::with_entry_bytes(TABLE.capacity, TABLE.entry_bytes),
            policy: Acl::from_rules(rules),
            denied: 0,
        }
    }

    /// Packets denied so far.
    pub fn denied(&self) -> u64 {
        self.denied
    }

    /// Active flow-table entries.
    pub fn flow_count(&self) -> usize {
        self.flow_table.len()
    }
}

impl NetworkFunction for Firewall {
    fn name(&self) -> &'static str {
        "firewall"
    }

    fn pattern(&self) -> ExecutionPattern {
        ExecutionPattern::RunToCompletion
    }

    fn process(&mut self, pkt: PacketView<'_>, cost: &mut CostTracker) -> Verdict {
        cost.compute(PARSE_CYCLES + HASH_CYCLES);
        cost.read_lines(1.0);
        let key = pkt.five_tuple.hash64();
        let (hit, probes) = self.flow_table.get_mut(key);
        cost.compute(PROBE_CYCLES * probes as f64);
        cost.read_lines(probes as f64);
        let permitted = match hit {
            Some(e) => {
                // Fast path: flow walk + metadata update (two lines: entry
                // + stats block; 128 B entries span two cache lines).
                e.hits += 1;
                cost.compute(UPDATE_CYCLES);
                cost.read_lines(1.0);
                cost.write_lines(2.0);
                e.permitted
            }
            None => {
                // Slow path: policy evaluation, then install.
                let (permit, inspected) = self.policy.evaluate(&pkt.five_tuple);
                cost.compute(6.0 * inspected as f64);
                cost.read_lines((inspected as f64 / 4.0).ceil());
                let p = self.flow_table.insert(
                    key,
                    FwEntry {
                        permitted: permit,
                        hits: 1,
                    },
                );
                cost.compute(PROBE_CYCLES * p as f64 + UPDATE_CYCLES);
                cost.write_lines(p as f64 * 2.0);
                permit
            }
        };
        if permitted {
            Verdict::Forward
        } else {
            self.denied += 1;
            Verdict::Drop
        }
    }

    fn wss_bytes(&self) -> f64 {
        self.flow_table.wss_bytes() + self.policy.wss_bytes()
    }

    fn warm(&mut self, prefix: &mut Prefix<'_>) {
        let flows = prefix.flows();
        self.flow_table = prefix.table(TABLE, |pos, _| FwEntry {
            permitted: self.policy.evaluate(&flows[pos]).0,
            hits: 0,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::TableFamily;
    use yala_traffic::FiveTuple;
    use yala_traffic::Packet;

    #[test]
    fn policy_decision_is_cached_per_flow() {
        let deny_ssh = AclRule {
            src: (0, 0),
            dst: (0, 0),
            dst_port: Some(22),
            proto: None,
            permit: false,
        };
        let mut fw = Firewall::with_policy(vec![deny_ssh]);
        let bad = Packet::new(FiveTuple::new(1, 2, 3, 22, 6), vec![]);
        assert_eq!(
            fw.process(bad.view(), &mut CostTracker::new()),
            Verdict::Drop
        );
        assert_eq!(
            fw.process(bad.view(), &mut CostTracker::new()),
            Verdict::Drop
        );
        assert_eq!(fw.denied(), 2);
        assert_eq!(fw.flow_count(), 1, "single cached entry");
    }

    #[test]
    fn fast_path_is_cheaper_than_slow_path() {
        let mut fw = Firewall::new(128, 3);
        let pkt = Packet::new(FiveTuple::new(1, 2, 3, 80, 6), vec![]);
        let mut slow = CostTracker::new();
        fw.process(pkt.view(), &mut slow);
        let mut fast = CostTracker::new();
        fw.process(pkt.view(), &mut fast);
        assert!(fast.cycles < slow.cycles);
    }

    #[test]
    fn flow_walk_is_memory_heavy() {
        let mut fw = Firewall::new(64, 1);
        let flows: Vec<FiveTuple> = (0..50_000u32)
            .map(|i| FiveTuple::new(i, 2, 3, 80, 6))
            .collect();
        fw.warm(&mut TableFamily::new().prefix(&flows));
        // 50K × 128 B ≈ 6.4 MB ≥ Pensando LLC pressure territory.
        assert!(fw.wss_bytes() > 6e6);
        let mut cost = CostTracker::new();
        fw.process(Packet::new(flows[17], vec![]).view(), &mut cost);
        assert!(cost.accel.is_empty(), "firewall uses no accelerators");
        assert!(cost.refs() >= 4.0);
    }
}
