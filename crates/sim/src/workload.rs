//! Workload descriptions: what the solver needs to know about one
//! co-located NF (or synthetic bench) — its execution pattern, per-packet
//! resource demands, core allocation, and offered load.

use crate::spec::ResourceKind;

/// How an NF schedules its stages (§4.2): a pipeline keeps packets flowing
/// through per-stage execution contexts (throughput = slowest stage), while
/// run-to-completion processes each packet through all stages before taking
/// the next (per-packet stage times add).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExecutionPattern {
    /// Stage-per-context pipelining.
    Pipeline,
    /// One thread carries a packet through every stage.
    RunToCompletion,
}

impl std::fmt::Display for ExecutionPattern {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Pipeline => f.write_str("pipeline"),
            Self::RunToCompletion => f.write_str("run-to-completion"),
        }
    }
}

/// Per-packet demand of one processing stage.
#[derive(Debug, Clone, PartialEq)]
pub enum StageDemand {
    /// A compute + memory stage executed on the NF's cores.
    CpuMem {
        /// Pure compute cycles per packet (excludes memory stalls).
        cycles_per_pkt: f64,
        /// LLC accesses per packet.
        cache_refs_per_pkt: f64,
        /// Fraction of accesses that are writes.
        write_frac: f64,
        /// Working set size in bytes this stage keeps live.
        wss_bytes: f64,
    },
    /// A hardware-accelerator stage reached via request queues.
    Accelerator {
        /// Which accelerator.
        kind: ResourceKind,
        /// Request queues this NF opens on the accelerator.
        queues: u32,
        /// Requests issued per packet.
        reqs_per_pkt: f64,
        /// Payload bytes per request.
        bytes_per_req: f64,
        /// Expected rule matches per request (regex only; drives Eq. 4).
        matches_per_req: f64,
    },
}

impl StageDemand {
    /// The resource this stage occupies.
    pub fn resource(&self) -> ResourceKind {
        match self {
            Self::CpuMem { .. } => ResourceKind::CpuMem,
            Self::Accelerator { kind, .. } => *kind,
        }
    }
}

/// A complete workload description handed to the co-run solver.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadSpec {
    /// Display name (unique within a co-run).
    pub name: String,
    /// Dedicated cores (the paper gives each NF two; core-level isolation
    /// means cores are never shared between co-located NFs).
    pub cores: u32,
    /// Execution pattern used for stage composition.
    pub pattern: ExecutionPattern,
    /// Ordered stages a packet traverses.
    pub stages: Vec<StageDemand>,
    /// Offered packet arrival rate; `None` = open loop (arrival high enough
    /// to reach maximum throughput, the paper's measurement condition).
    pub offered_pps: Option<f64>,
    /// Wire size of this NF's packets in bytes (for port-rate capping).
    pub packet_bytes: f64,
}

impl WorkloadSpec {
    /// Creates an open-loop workload.
    pub fn new(
        name: impl Into<String>,
        cores: u32,
        pattern: ExecutionPattern,
        stages: Vec<StageDemand>,
    ) -> Self {
        assert!(cores > 0, "workload needs at least one core");
        assert!(!stages.is_empty(), "workload needs at least one stage");
        Self {
            name: name.into(),
            cores,
            pattern,
            stages,
            offered_pps: None,
            packet_bytes: 1500.0,
        }
    }

    /// Builder-style: cap the offered arrival rate (rate-limited benches).
    pub fn with_offered_pps(mut self, pps: f64) -> Self {
        assert!(pps > 0.0, "offered rate must be positive");
        self.offered_pps = Some(pps);
        self
    }

    /// Builder-style: set the wire packet size used for port capping.
    pub fn with_packet_bytes(mut self, bytes: f64) -> Self {
        assert!(bytes > 0.0, "packet size must be positive");
        self.packet_bytes = bytes;
        self
    }

    /// Total cache references per packet across CpuMem stages.
    pub fn cache_refs_per_pkt(&self) -> f64 {
        self.stages
            .iter()
            .map(|s| match s {
                StageDemand::CpuMem {
                    cache_refs_per_pkt, ..
                } => *cache_refs_per_pkt,
                _ => 0.0,
            })
            .sum()
    }

    /// Total working set across CpuMem stages.
    pub fn wss_bytes(&self) -> f64 {
        self.stages
            .iter()
            .map(|s| match s {
                StageDemand::CpuMem { wss_bytes, .. } => *wss_bytes,
                _ => 0.0,
            })
            .sum()
    }

    /// Demand-weighted write fraction across CpuMem stages.
    pub fn write_frac(&self) -> f64 {
        let mut refs = 0.0;
        let mut writes = 0.0;
        for s in &self.stages {
            if let StageDemand::CpuMem {
                cache_refs_per_pkt,
                write_frac,
                ..
            } = s
            {
                refs += cache_refs_per_pkt;
                writes += cache_refs_per_pkt * write_frac;
            }
        }
        if refs > 0.0 {
            writes / refs
        } else {
            0.0
        }
    }

    /// Whether any stage uses the given resource.
    pub fn uses(&self, kind: ResourceKind) -> bool {
        self.stages.iter().any(|s| s.resource() == kind)
    }

    /// The distinct resources this workload touches, in stage order.
    pub fn resources(&self) -> Vec<ResourceKind> {
        let mut out = Vec::new();
        for s in &self.stages {
            let r = s.resource();
            if !out.contains(&r) {
                out.push(r);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cpu_stage(cycles: f64, refs: f64, wf: f64, wss: f64) -> StageDemand {
        StageDemand::CpuMem {
            cycles_per_pkt: cycles,
            cache_refs_per_pkt: refs,
            write_frac: wf,
            wss_bytes: wss,
        }
    }

    fn regex_stage() -> StageDemand {
        StageDemand::Accelerator {
            kind: ResourceKind::Regex,
            queues: 1,
            reqs_per_pkt: 1.0,
            bytes_per_req: 1446.0,
            matches_per_req: 0.8,
        }
    }

    #[test]
    fn aggregates_across_stages() {
        let w = WorkloadSpec::new(
            "x",
            2,
            ExecutionPattern::RunToCompletion,
            vec![
                cpu_stage(1000.0, 30.0, 0.5, 1e6),
                regex_stage(),
                cpu_stage(500.0, 10.0, 0.0, 5e5),
            ],
        );
        assert_eq!(w.cache_refs_per_pkt(), 40.0);
        assert_eq!(w.wss_bytes(), 1.5e6);
        // write fraction: (30*0.5 + 10*0.0) / 40
        assert!((w.write_frac() - 0.375).abs() < 1e-12);
        assert!(w.uses(ResourceKind::Regex));
        assert!(!w.uses(ResourceKind::Compression));
        assert_eq!(
            w.resources(),
            vec![ResourceKind::CpuMem, ResourceKind::Regex]
        );
    }

    #[test]
    fn builders_set_fields() {
        let w = WorkloadSpec::new(
            "y",
            1,
            ExecutionPattern::Pipeline,
            vec![cpu_stage(1.0, 1.0, 0.0, 0.0)],
        )
        .with_offered_pps(1e6)
        .with_packet_bytes(64.0);
        assert_eq!(w.offered_pps, Some(1e6));
        assert_eq!(w.packet_bytes, 64.0);
    }

    #[test]
    #[should_panic(expected = "at least one stage")]
    fn empty_stages_panics() {
        WorkloadSpec::new("z", 1, ExecutionPattern::Pipeline, vec![]);
    }

    #[test]
    fn zero_ref_workload_write_frac_is_zero() {
        let w = WorkloadSpec::new("a", 1, ExecutionPattern::Pipeline, vec![regex_stage()]);
        assert_eq!(w.write_frac(), 0.0);
        assert_eq!(w.cache_refs_per_pkt(), 0.0);
    }
}
