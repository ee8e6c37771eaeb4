//! Registry of the paper's NFs (Table 1) with constructors and metadata,
//! plus the convenience path from `(NF kind, traffic profile)` to a
//! simulator [`WorkloadSpec`].

use crate::nfs::{
    Acl, Firewall, FlowClassifier, FlowMonitor, FlowStats, FlowTracker, IpCompGateway, IpRouter,
    IpTunnel, Nat, Nids, PacketFilter,
};
use crate::runtime::{NetworkFunction, Profiler, DEFAULT_SAMPLE_PACKETS};
use std::cell::RefCell;
use yala_sim::{NicSpec, ResourceKind, WorkloadSpec};
use yala_traffic::TrafficProfile;

/// The NFs of Table 1 (plus the Pensando Firewall of §8).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NfKind {
    /// Per-flow packet/byte statistics (Click).
    FlowStats,
    /// LPM forwarding (Click).
    IpRouter,
    /// IP-in-IP encapsulation (Click).
    IpTunnel,
    /// Source NAT (Click).
    Nat,
    /// Flow stats + payload inspection on regex (Click).
    FlowMonitor,
    /// Intrusion detection on regex (Click).
    Nids,
    /// Regex classification + compression gateway (Click).
    IpCompGateway,
    /// Access control list (DPDK).
    Acl,
    /// Flow classification (DPDK).
    FlowClassifier,
    /// Connection lifecycle tracking (DOCA).
    FlowTracker,
    /// Stateless payload filter on regex (DOCA).
    PacketFilter,
    /// Flow-walking firewall (Pensando, §8).
    Firewall,
}

impl NfKind {
    /// The nine NFs evaluated in Fig. 1 / Table 2.
    pub const TABLE2_NINE: [NfKind; 9] = [
        NfKind::Acl,
        NfKind::Nids,
        NfKind::IpTunnel,
        NfKind::IpRouter,
        NfKind::FlowClassifier,
        NfKind::FlowTracker,
        NfKind::FlowStats,
        NfKind::FlowMonitor,
        NfKind::Nat,
    ];

    /// The traffic-sensitive NFs of Table 5.
    pub const TRAFFIC_SENSITIVE: [NfKind; 7] = [
        NfKind::Nids,
        NfKind::FlowClassifier,
        NfKind::Nat,
        NfKind::FlowTracker,
        NfKind::FlowStats,
        NfKind::FlowMonitor,
        NfKind::IpTunnel,
    ];

    /// Every implemented NF.
    pub const ALL: [NfKind; 12] = [
        NfKind::FlowStats,
        NfKind::IpRouter,
        NfKind::IpTunnel,
        NfKind::Nat,
        NfKind::FlowMonitor,
        NfKind::Nids,
        NfKind::IpCompGateway,
        NfKind::Acl,
        NfKind::FlowClassifier,
        NfKind::FlowTracker,
        NfKind::PacketFilter,
        NfKind::Firewall,
    ];

    /// Stable lowercase name (matches [`NetworkFunction::name`]).
    pub fn name(self) -> &'static str {
        match self {
            NfKind::FlowStats => "flowstats",
            NfKind::IpRouter => "iprouter",
            NfKind::IpTunnel => "iptunnel",
            NfKind::Nat => "nat",
            NfKind::FlowMonitor => "flowmonitor",
            NfKind::Nids => "nids",
            NfKind::IpCompGateway => "ipcomp",
            NfKind::Acl => "acl",
            NfKind::FlowClassifier => "flowclassifier",
            NfKind::FlowTracker => "flowtracker",
            NfKind::PacketFilter => "packetfilter",
            NfKind::Firewall => "firewall",
        }
    }

    /// The inverse of [`NfKind::name`]: resolves a stable lowercase
    /// name back to its kind. `None` for unknown names, so trace loaders
    /// can report the bad token instead of panicking.
    pub fn from_name(name: &str) -> Option<NfKind> {
        NfKind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Whether the NF submits work to the regex accelerator (Table 1).
    pub fn uses_regex(self) -> bool {
        matches!(
            self,
            NfKind::FlowMonitor | NfKind::Nids | NfKind::IpCompGateway | NfKind::PacketFilter
        )
    }

    /// Whether the NF submits work to the compression accelerator.
    pub fn uses_compression(self) -> bool {
        matches!(self, NfKind::IpCompGateway)
    }

    /// Capability feasibility: whether every accelerator this NF submits
    /// work to exists on `spec`. An NF whose workload issues Regex
    /// requests is infeasible on a regex-less NIC (e.g. the Pensando
    /// preset) — placement must reject such co-locations up front rather
    /// than let the co-run solver panic at ground truth.
    pub fn feasible_on(self, spec: &NicSpec) -> bool {
        (!self.uses_regex() || spec.has_accel(ResourceKind::Regex))
            && (!self.uses_compression() || spec.has_accel(ResourceKind::Compression))
    }

    /// The per-model profiling matrix: whether this NF is profiled and
    /// trained on NICs of `spec`'s model. Capability-infeasible pairs are
    /// never profiled; on top of that, the Firewall — a Pensando-SSDK NF
    /// the paper only evaluates in the §8/Table 9 sweep — is profiled on
    /// Pensando-model NICs only (this used to be a *global* exclusion in
    /// the registry tests; heterogeneous fleets make it per-model).
    pub fn profiled_on(self, spec: &NicSpec) -> bool {
        if !self.feasible_on(spec) {
            return false;
        }
        match self {
            NfKind::Firewall => spec.name == "pensando",
            _ => true,
        }
    }

    /// The NF kinds profiled/trained for one NIC model: `kinds` filtered
    /// through [`Self::profiled_on`].
    pub fn profiled_kinds(kinds: &[NfKind], spec: &NicSpec) -> Vec<NfKind> {
        kinds
            .iter()
            .copied()
            .filter(|k| k.profiled_on(spec))
            .collect()
    }

    /// The programming framework the paper implements the NF in (Table 1).
    pub fn framework(self) -> &'static str {
        match self {
            NfKind::FlowStats
            | NfKind::IpRouter
            | NfKind::IpTunnel
            | NfKind::Nat
            | NfKind::FlowMonitor
            | NfKind::Nids
            | NfKind::IpCompGateway => "Click",
            NfKind::Acl | NfKind::FlowClassifier => "DPDK",
            NfKind::FlowTracker | NfKind::PacketFilter => "DOCA",
            NfKind::Firewall => "Pensando SSDK",
        }
    }

    /// Builds the NF with its default configuration (deterministic).
    pub fn build(self) -> Box<dyn NetworkFunction> {
        match self {
            NfKind::FlowStats => Box::new(FlowStats::new()),
            NfKind::IpRouter => Box::new(IpRouter::new(1024, 0xA0)),
            NfKind::IpTunnel => Box::new(IpTunnel::new(16)),
            NfKind::Nat => Box::new(Nat::new()),
            NfKind::FlowMonitor => Box::new(FlowMonitor::new()),
            NfKind::Nids => Box::new(Nids::new()),
            NfKind::IpCompGateway => Box::new(IpCompGateway::new()),
            NfKind::Acl => Box::new(Acl::new(256, 0xA1)),
            NfKind::FlowClassifier => Box::new(FlowClassifier::new()),
            NfKind::FlowTracker => Box::new(FlowTracker::new()),
            NfKind::PacketFilter => Box::new(PacketFilter::new()),
            NfKind::Firewall => Box::new(Firewall::new(128, 0xA2)),
        }
    }

    /// Profiles this NF under `profile` into a simulator workload
    /// (builds, warms, streams batches, measures demand) through the
    /// calling thread's long-lived [`Profiler`], so measurement after
    /// measurement — a daemon's `place` stream, a timeline build, a
    /// training sweep — reuses one set of buffers.
    pub fn workload(self, profile: TrafficProfile, seed: u64) -> WorkloadSpec {
        thread_local! {
            static PROFILER: RefCell<Profiler> = RefCell::new(Profiler::new());
        }
        PROFILER.with(|p| self.workload_with(&mut p.borrow_mut(), profile, seed))
    }

    /// Like [`Self::workload`], but through a caller-held [`Profiler`]
    /// (a non-default batch size, or a seed's prefix family kept apart
    /// from the thread's).
    pub fn workload_with(
        self,
        profiler: &mut Profiler,
        profile: TrafficProfile,
        seed: u64,
    ) -> WorkloadSpec {
        let mut nf = self.build();
        profiler.profile(nf.as_mut(), profile, DEFAULT_SAMPLE_PACKETS, seed)
    }
}

impl std::fmt::Display for NfKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use yala_sim::ResourceKind;

    #[test]
    fn names_match_instances() {
        for kind in NfKind::ALL {
            assert_eq!(kind.build().name(), kind.name());
        }
    }

    #[test]
    fn from_name_inverts_name() {
        for kind in NfKind::ALL {
            assert_eq!(NfKind::from_name(kind.name()), Some(kind));
        }
        assert_eq!(NfKind::from_name("teleporter"), None);
    }

    #[test]
    fn regex_metadata_matches_measured_stages() {
        // The profiling matrix replaces the old global Firewall skip: each
        // NIC model profiles exactly the kinds `profiled_on` admits, and
        // every profiled workload's measured stages match the metadata.
        let profile = TrafficProfile::new(2_000, 1024, 600.0);
        for spec in [NicSpec::bluefield2(), NicSpec::pensando()] {
            for kind in NfKind::profiled_kinds(&NfKind::ALL, &spec) {
                let w = kind.workload(profile, 7);
                assert_eq!(
                    w.uses(ResourceKind::Regex),
                    kind.uses_regex(),
                    "{kind} regex usage mismatch on {}",
                    spec.name
                );
                assert_eq!(
                    w.uses(ResourceKind::Compression),
                    kind.uses_compression(),
                    "{kind} compression usage mismatch on {}",
                    spec.name
                );
            }
        }
    }

    #[test]
    fn profiling_matrix_is_capability_and_model_aware() {
        let bf2 = NicSpec::bluefield2();
        let pen = NicSpec::pensando();
        // Regex NFs: feasible (and profiled) only where the engine exists.
        for kind in [
            NfKind::FlowMonitor,
            NfKind::Nids,
            NfKind::IpCompGateway,
            NfKind::PacketFilter,
        ] {
            assert!(kind.feasible_on(&bf2), "{kind} feasible on bf2");
            assert!(!kind.feasible_on(&pen), "{kind} infeasible on pensando");
            assert!(!kind.profiled_on(&pen));
        }
        // The Firewall is the Pensando NF: profiled there, not on BF-2 —
        // even though it is capability-feasible anywhere (CPU/mem only).
        assert!(NfKind::Firewall.feasible_on(&bf2));
        assert!(NfKind::Firewall.profiled_on(&pen));
        assert!(!NfKind::Firewall.profiled_on(&bf2));
        // Memory-only NFs are profiled everywhere.
        assert!(NfKind::FlowStats.profiled_on(&bf2));
        assert!(NfKind::FlowStats.profiled_on(&pen));
        // The matrix filter keeps order and drops the right kinds.
        let on_pen = NfKind::profiled_kinds(&NfKind::ALL, &pen);
        assert!(on_pen.contains(&NfKind::Firewall));
        assert!(!on_pen.contains(&NfKind::Nids));
        let on_bf2 = NfKind::profiled_kinds(&NfKind::ALL, &bf2);
        assert!(on_bf2.contains(&NfKind::Nids));
        assert!(!on_bf2.contains(&NfKind::Firewall));
        assert_eq!(on_bf2.len(), 11);
    }

    #[test]
    fn table2_nine_subset_of_all() {
        for kind in NfKind::TABLE2_NINE {
            assert!(NfKind::ALL.contains(&kind));
        }
    }

    #[test]
    fn flow_sensitive_nfs_grow_wss_with_flows() {
        for kind in [
            NfKind::FlowStats,
            NfKind::Nat,
            NfKind::FlowTracker,
            NfKind::FlowClassifier,
        ] {
            let small = kind.workload(TrafficProfile::new(2_000, 512, 0.0), 1);
            let large = kind.workload(TrafficProfile::new(64_000, 512, 0.0), 1);
            assert!(
                large.wss_bytes() > small.wss_bytes() * 4.0,
                "{kind}: {} vs {}",
                large.wss_bytes(),
                small.wss_bytes()
            );
        }
    }

    #[test]
    fn insensitive_nfs_keep_wss_flat() {
        for kind in [NfKind::IpRouter, NfKind::Acl] {
            let small = kind.workload(TrafficProfile::new(2_000, 512, 0.0), 1);
            let large = kind.workload(TrafficProfile::new(64_000, 512, 0.0), 1);
            let ratio = large.wss_bytes() / small.wss_bytes();
            assert!(ratio < 1.2, "{kind} wss grew {ratio}x with flow count");
        }
    }

    #[test]
    fn mtbr_reaches_regex_stage() {
        let lo = NfKind::FlowMonitor.workload(TrafficProfile::new(2_000, 1500, 100.0), 5);
        let hi = NfKind::FlowMonitor.workload(TrafficProfile::new(2_000, 1500, 1000.0), 5);
        let matches = |w: &WorkloadSpec| -> f64 {
            w.stages
                .iter()
                .find_map(|s| match s {
                    yala_sim::StageDemand::Accelerator {
                        kind,
                        matches_per_req,
                        ..
                    } if *kind == ResourceKind::Regex => Some(*matches_per_req),
                    _ => None,
                })
                .expect("flowmonitor has a regex stage")
        };
        assert!(
            matches(&hi) > matches(&lo) * 3.0,
            "measured matches must track MTBR: {} vs {}",
            matches(&hi),
            matches(&lo)
        );
    }
}
