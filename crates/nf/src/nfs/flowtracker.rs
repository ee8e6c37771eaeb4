//! FlowTracker: per-flow connection lifecycle tracking (DOCA FlowTracker
//! style): a state machine over packet arrivals with timestamps. Flow-count
//! sensitive via its state table.

use crate::cost::{CostTracker, HASH_CYCLES, PARSE_CYCLES, PROBE_CYCLES, UPDATE_CYCLES};
use crate::runtime::{NetworkFunction, Verdict};
use crate::table::{FlowTable, Keys, Prefix, TableSpec};
use yala_sim::ExecutionPattern;
use yala_traffic::FiveTuple;
use yala_traffic::PacketView;

/// The connection-state table: one insert per flow.
const TABLE: TableSpec = TableSpec {
    capacity: 1024,
    entry_bytes: 96.0,
    keys: Keys::EveryFlow,
};

/// Connection lifecycle states.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrackState {
    /// First packet seen.
    New,
    /// Bidirectional-ish steady state (here: >3 packets).
    Established,
    /// Idle long enough to be aged out on next touch.
    Aging,
}

/// Per-flow tracking record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrackEntry {
    /// Current state.
    pub state: TrackState,
    /// Packets observed.
    pub packets: u64,
    /// Logical timestamp of last packet.
    pub last_seen: u64,
}

/// Packets after which a flow is considered established.
const ESTABLISH_AFTER: u64 = 3;
/// Logical-time gap after which a flow starts aging.
const AGE_AFTER: u64 = 1_000_000;

/// The FlowTracker NF.
#[derive(Debug, Clone)]
pub struct FlowTracker {
    table: FlowTable<TrackEntry>,
    clock: u64,
    established_total: u64,
}

impl FlowTracker {
    /// Creates an empty tracker.
    pub fn new() -> Self {
        Self {
            table: FlowTable::with_entry_bytes(TABLE.capacity, TABLE.entry_bytes),
            clock: 0,
            established_total: 0,
        }
    }

    /// Tracking record for a flow.
    pub fn entry(&mut self, flow: &FiveTuple) -> Option<TrackEntry> {
        self.table.get_mut(flow.hash64()).0.copied()
    }

    /// Flows that ever reached `Established`.
    pub fn established_total(&self) -> u64 {
        self.established_total
    }
}

impl Default for FlowTracker {
    fn default() -> Self {
        Self::new()
    }
}

impl NetworkFunction for FlowTracker {
    fn name(&self) -> &'static str {
        "flowtracker"
    }

    fn pattern(&self) -> ExecutionPattern {
        ExecutionPattern::RunToCompletion
    }

    fn process(&mut self, pkt: PacketView<'_>, cost: &mut CostTracker) -> Verdict {
        self.clock += 1;
        cost.compute(PARSE_CYCLES + HASH_CYCLES);
        cost.read_lines(1.0);
        let key = pkt.five_tuple.hash64();
        let now = self.clock;
        let (hit, probes) = self.table.get_mut(key);
        cost.compute(PROBE_CYCLES * probes as f64);
        cost.read_lines(probes as f64);
        match hit {
            Some(e) => {
                e.packets += 1;
                let idle = now - e.last_seen;
                e.last_seen = now;
                let newly_established = e.state == TrackState::New && e.packets > ESTABLISH_AFTER;
                if idle > AGE_AFTER {
                    e.state = TrackState::Aging;
                } else if newly_established {
                    e.state = TrackState::Established;
                    self.established_total += 1;
                }
                cost.compute(UPDATE_CYCLES + 15.0); // state machine branch
                cost.write_lines(1.0);
            }
            None => {
                let p = self.table.insert(
                    key,
                    TrackEntry {
                        state: TrackState::New,
                        packets: 1,
                        last_seen: now,
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
        self.table = prefix.table(TABLE, |_, _| TrackEntry {
            state: TrackState::New,
            packets: 1,
            last_seen: 0,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use yala_traffic::Packet;

    fn pkt() -> Packet {
        Packet::new(FiveTuple::new(1, 2, 3, 4, 6), vec![0; 10])
    }

    #[test]
    fn establishes_after_enough_packets() {
        let mut ft = FlowTracker::new();
        for _ in 0..3 {
            ft.process(pkt().view(), &mut CostTracker::new());
        }
        assert_eq!(ft.entry(&pkt().five_tuple).unwrap().state, TrackState::New);
        ft.process(pkt().view(), &mut CostTracker::new());
        assert_eq!(
            ft.entry(&pkt().five_tuple).unwrap().state,
            TrackState::Established
        );
        assert_eq!(ft.established_total(), 1);
    }

    #[test]
    fn aging_on_long_idle() {
        let mut ft = FlowTracker::new();
        ft.process(pkt().view(), &mut CostTracker::new());
        ft.clock += AGE_AFTER + 10;
        ft.process(pkt().view(), &mut CostTracker::new());
        assert_eq!(
            ft.entry(&pkt().five_tuple).unwrap().state,
            TrackState::Aging
        );
    }

    #[test]
    fn tracks_packet_counts() {
        let mut ft = FlowTracker::new();
        for _ in 0..7 {
            ft.process(pkt().view(), &mut CostTracker::new());
        }
        assert_eq!(ft.entry(&pkt().five_tuple).unwrap().packets, 7);
    }
}
