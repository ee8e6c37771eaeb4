//! NIC hardware specifications: core complex, memory subsystem, and
//! accelerator service parameters. Presets model the paper's two testbeds
//! (NVIDIA BlueField-2, AMD Pensando).

use std::sync::{Mutex, OnceLock};

/// The kinds of shared resources an on-NIC NF can contend on.
///
/// `CpuMem` covers the core + memory-subsystem path (per-packet compute and
/// cache/DRAM accesses); the remaining variants are hardware accelerators
/// reached through round-robin request queues (§4.1.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ResourceKind {
    /// CPU cycles plus cache/DRAM accesses (the memory subsystem of §4.1.2).
    CpuMem,
    /// The regex-matching accelerator (RXP on BlueField-2).
    Regex,
    /// The (de)compression accelerator.
    Compression,
    /// The public-key/crypto accelerator (paper §4.1.1 "other accelerators").
    Crypto,
}

impl ResourceKind {
    /// All accelerator kinds (everything except `CpuMem`).
    pub const ACCELERATORS: [ResourceKind; 3] = [
        ResourceKind::Regex,
        ResourceKind::Compression,
        ResourceKind::Crypto,
    ];
}

impl std::fmt::Display for ResourceKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Self::CpuMem => "cpu-mem",
            Self::Regex => "regex",
            Self::Compression => "compression",
            Self::Crypto => "crypto",
        };
        f.write_str(s)
    }
}

/// Interned identity of a NIC hardware *model* (e.g. `"bluefield2"`,
/// `"pensando"`): the key every layer above the simulator uses to select
/// per-model trained predictors, solo baselines, and capability checks in
/// a heterogeneous fleet.
///
/// Identity is the model *name*: two [`NicSpec`]s with the same name
/// intern to the same id, so `NicModelId` is `Copy + Eq + Hash + Ord` and
/// cheap to thread through placement and orchestration state. Ordering
/// and `Display` follow the name (not the interning order), so sorted
/// output is deterministic regardless of which model was interned first.
#[derive(Clone, Copy, Eq)]
pub struct NicModelId(u32);

fn intern_table() -> &'static Mutex<Vec<&'static str>> {
    static TABLE: OnceLock<Mutex<Vec<&'static str>>> = OnceLock::new();
    TABLE.get_or_init(|| Mutex::new(Vec::new()))
}

impl NicModelId {
    /// Interns `name` and returns its stable id. Repeated calls with the
    /// same name return the same id for the life of the process.
    pub fn intern(name: &str) -> Self {
        let mut table = intern_table().lock().expect("intern table poisoned");
        if let Some(i) = table.iter().position(|&n| n == name) {
            return Self(i as u32);
        }
        table.push(Box::leak(name.to_string().into_boxed_str()));
        Self(table.len() as u32 - 1)
    }

    /// The interned model name.
    pub fn as_str(self) -> &'static str {
        intern_table().lock().expect("intern table poisoned")[self.0 as usize]
    }
}

impl PartialEq for NicModelId {
    fn eq(&self, other: &Self) -> bool {
        self.0 == other.0
    }
}

impl std::hash::Hash for NicModelId {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.0.hash(state);
    }
}

impl PartialOrd for NicModelId {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for NicModelId {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.as_str().cmp(other.as_str())
    }
}

impl std::fmt::Debug for NicModelId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "NicModelId({:?})", self.as_str())
    }
}

impl std::fmt::Display for NicModelId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Service-time parameters of one accelerator: a request costs
/// `base_s + bytes * per_byte_s + matches * per_match_s` seconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AccelSpec {
    /// Fixed per-request overhead (doorbell + descriptor fetch), seconds.
    pub base_s: f64,
    /// Scan/processing time per payload byte, seconds.
    pub per_byte_s: f64,
    /// Extra time per reported match (regex only; 0 for others), seconds.
    pub per_match_s: f64,
}

impl AccelSpec {
    /// Service time of a request with the given size and match count.
    pub fn service_time(&self, bytes: f64, matches: f64) -> f64 {
        self.base_s + bytes * self.per_byte_s + matches * self.per_match_s
    }
}

/// Full NIC hardware description consumed by the simulator.
#[derive(Debug, Clone, PartialEq)]
pub struct NicSpec {
    /// Human-readable name, e.g. `"bluefield2"`.
    pub name: String,
    /// Number of SoC cores.
    pub cores: u32,
    /// Core frequency in Hz.
    pub freq_hz: f64,
    /// Last-level cache capacity in bytes.
    pub llc_bytes: f64,
    /// LLC hit service time per access, seconds.
    pub llc_hit_s: f64,
    /// DRAM access latency on an LLC miss (unloaded), seconds.
    pub dram_latency_s: f64,
    /// Peak DRAM bandwidth, bytes/second.
    pub dram_bw_bytes: f64,
    /// Cache line size in bytes (miss traffic granularity).
    pub line_bytes: f64,
    /// Floor (compulsory) miss ratio when a working set fully fits.
    pub miss_floor: f64,
    /// Exponent shaping the miss-ratio curve vs. non-resident fraction.
    pub miss_gamma: f64,
    /// Slope of the miss-ratio curve: the miss ratio saturates once
    /// `slope · (1 - resident fraction)` reaches 1 — the LLC-saturation
    /// plateau of Fig. 6a.
    pub miss_slope: f64,
    /// Cache-occupancy pressure exponent (occupancy weight is
    /// `demand * access_rate^alpha`).
    pub occupancy_alpha: f64,
    /// Port line rate in bits/second (both ConnectX-6 ports bonded).
    pub port_bps: f64,
    /// Regex accelerator parameters; `None` if the NIC has no such engine.
    pub regex: Option<AccelSpec>,
    /// Compression accelerator parameters.
    pub compression: Option<AccelSpec>,
    /// Crypto accelerator parameters.
    pub crypto: Option<AccelSpec>,
}

impl NicSpec {
    /// The paper's primary testbed: NVIDIA BlueField-2 — 8 ARMv8 A72 cores
    /// @ 2.5 GHz, 6 MB L3, 16 GB DDR4, 100 GbE, RXP regex + compression
    /// accelerators.
    pub fn bluefield2() -> Self {
        Self {
            name: "bluefield2".to_string(),
            cores: 8,
            freq_hz: 2.5e9,
            llc_bytes: 6.0 * 1024.0 * 1024.0,
            llc_hit_s: 4e-9,
            dram_latency_s: 95e-9,
            dram_bw_bytes: 12.0e9,
            line_bytes: 64.0,
            miss_floor: 0.02,
            miss_gamma: 1.0,
            miss_slope: 1.2,
            occupancy_alpha: 0.5,
            port_bps: 100e9,
            regex: Some(AccelSpec {
                base_s: 5e-9,
                per_byte_s: 0.08e-9,
                per_match_s: 180e-9,
            }),
            compression: Some(AccelSpec {
                base_s: 10e-9,
                per_byte_s: 0.25e-9,
                per_match_s: 0.0,
            }),
            crypto: Some(AccelSpec {
                base_s: 20e-9,
                per_byte_s: 0.10e-9,
                per_match_s: 0.0,
            }),
        }
    }

    /// The generalisation testbed of §8/Table 9: an AMD Pensando DPU — more
    /// cores, larger LLC, higher memory bandwidth, crypto/compression but no
    /// regex engine.
    pub fn pensando() -> Self {
        Self {
            name: "pensando".to_string(),
            cores: 16,
            freq_hz: 2.8e9,
            llc_bytes: 8.0 * 1024.0 * 1024.0,
            llc_hit_s: 3.5e-9,
            dram_latency_s: 85e-9,
            dram_bw_bytes: 20.0e9,
            line_bytes: 64.0,
            miss_floor: 0.02,
            miss_gamma: 1.0,
            miss_slope: 1.2,
            occupancy_alpha: 0.5,
            port_bps: 200e9,
            regex: None,
            compression: Some(AccelSpec {
                base_s: 8e-9,
                per_byte_s: 0.20e-9,
                per_match_s: 0.0,
            }),
            crypto: Some(AccelSpec {
                base_s: 15e-9,
                per_byte_s: 0.08e-9,
                per_match_s: 0.0,
            }),
        }
    }

    /// The known spec named `name` (the inverse of its `name` field):
    /// only models this simulator implements resolve.
    pub fn from_name(name: &str) -> Option<NicSpec> {
        [Self::bluefield2(), Self::pensando()]
            .into_iter()
            .find(|s| s.name == name)
    }

    /// Accelerator spec for a resource kind, if present on this NIC.
    ///
    /// # Panics
    ///
    /// Panics if called with [`ResourceKind::CpuMem`], which is not an
    /// accelerator.
    pub fn accel(&self, kind: ResourceKind) -> Option<&AccelSpec> {
        match kind {
            ResourceKind::Regex => self.regex.as_ref(),
            ResourceKind::Compression => self.compression.as_ref(),
            ResourceKind::Crypto => self.crypto.as_ref(),
            ResourceKind::CpuMem => panic!("CpuMem is not an accelerator"),
        }
    }

    /// This spec's interned model identity (derived from [`Self::name`]).
    pub fn model(&self) -> NicModelId {
        NicModelId::intern(&self.name)
    }

    /// Capability query: whether this NIC can serve work on `kind`.
    /// Every NIC has the CPU/memory path; accelerators are present only
    /// when the spec carries their service parameters.
    pub fn has_accel(&self, kind: ResourceKind) -> bool {
        match kind {
            ResourceKind::CpuMem => true,
            ResourceKind::Regex => self.regex.is_some(),
            ResourceKind::Compression => self.compression.is_some(),
            ResourceKind::Crypto => self.crypto.is_some(),
        }
    }

    /// Whether every resource `workload` touches exists on this NIC — the
    /// feasibility predicate capability-aware placement must uphold (an
    /// NF submitting regex requests is infeasible on a regex-less NIC).
    pub fn supports(&self, workload: &crate::workload::WorkloadSpec) -> bool {
        workload.resources().iter().all(|&r| self.has_accel(r))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bluefield2_matches_paper_headline_numbers() {
        let s = NicSpec::bluefield2();
        assert_eq!(s.cores, 8);
        assert_eq!(s.freq_hz, 2.5e9);
        assert_eq!(s.llc_bytes, 6.0 * 1024.0 * 1024.0);
        assert!(s.regex.is_some());
        assert!(s.compression.is_some());
    }

    #[test]
    fn pensando_has_no_regex() {
        let s = NicSpec::pensando();
        assert!(s.regex.is_none());
        assert!(s.accel(ResourceKind::Regex).is_none());
        assert!(s.accel(ResourceKind::Crypto).is_some());
    }

    #[test]
    fn service_time_is_affine() {
        let a = AccelSpec {
            base_s: 1e-9,
            per_byte_s: 2e-9,
            per_match_s: 3e-9,
        };
        assert!((a.service_time(10.0, 2.0) - (1e-9 + 20e-9 + 6e-9)).abs() < 1e-18);
    }

    #[test]
    #[should_panic(expected = "not an accelerator")]
    fn cpumem_accel_lookup_panics() {
        NicSpec::bluefield2().accel(ResourceKind::CpuMem);
    }

    #[test]
    fn display_names() {
        assert_eq!(ResourceKind::Regex.to_string(), "regex");
        assert_eq!(ResourceKind::CpuMem.to_string(), "cpu-mem");
    }

    #[test]
    fn from_name_inverts_name() {
        for spec in [NicSpec::bluefield2(), NicSpec::pensando()] {
            assert_eq!(NicSpec::from_name(&spec.name), Some(spec));
        }
        assert_eq!(NicSpec::from_name("no-such-nic"), None);
    }

    #[test]
    fn model_ids_intern_by_name() {
        let bf2 = NicSpec::bluefield2();
        let pen = NicSpec::pensando();
        assert_eq!(bf2.model(), NicSpec::bluefield2().model());
        assert_ne!(bf2.model(), pen.model());
        assert_eq!(bf2.model().as_str(), "bluefield2");
        assert_eq!(pen.model().to_string(), "pensando");
        // Identity follows the name, not the struct: a tweaked spec with
        // the same name is the same model.
        let mut tweaked = NicSpec::bluefield2();
        tweaked.cores = 4;
        assert_eq!(tweaked.model(), bf2.model());
    }

    #[test]
    fn model_id_orders_by_name_not_intern_order() {
        // "zeta" interned before "alpha" must still sort after it.
        let z = NicModelId::intern("zeta-test-model");
        let a = NicModelId::intern("alpha-test-model");
        assert!(a < z);
        let mut v = vec![z, a];
        v.sort();
        assert_eq!(v, vec![a, z]);
    }

    #[test]
    fn capability_queries() {
        use crate::workload::{ExecutionPattern, StageDemand, WorkloadSpec};
        let bf2 = NicSpec::bluefield2();
        let pen = NicSpec::pensando();
        assert!(bf2.has_accel(ResourceKind::CpuMem));
        assert!(bf2.has_accel(ResourceKind::Regex));
        assert!(pen.has_accel(ResourceKind::CpuMem));
        assert!(!pen.has_accel(ResourceKind::Regex));
        assert!(pen.has_accel(ResourceKind::Compression));

        let regex_w = WorkloadSpec::new(
            "r",
            1,
            ExecutionPattern::RunToCompletion,
            vec![
                StageDemand::CpuMem {
                    cycles_per_pkt: 100.0,
                    cache_refs_per_pkt: 5.0,
                    write_frac: 0.1,
                    wss_bytes: 1e4,
                },
                StageDemand::Accelerator {
                    kind: ResourceKind::Regex,
                    queues: 1,
                    reqs_per_pkt: 1.0,
                    bytes_per_req: 1446.0,
                    matches_per_req: 0.5,
                },
            ],
        );
        assert!(bf2.supports(&regex_w));
        assert!(!pen.supports(&regex_w));
    }
}
