//! The co-run contention solver: a damped fixed point over every
//! co-located workload's throughput, coupling the memory-subsystem model
//! and the per-accelerator round-robin models through throughput feedback.
//!
//! This is the "ground truth" generator of the reproduction — the stand-in
//! for running real NFs on a BlueField-2 and measuring them. It is richer
//! than anything Yala's models assume: occupancy dynamics, DRAM queueing,
//! cross-resource feedback (an NF slowed on the regex engine issues fewer
//! memory references, relieving cache pressure), port-rate caps, and
//! measurement noise.

use crate::accel::{self, AccelInput};
use crate::counters::CounterSample;
use crate::memory::{self, MemInput, MemOutcome};
use crate::spec::{NicSpec, ResourceKind};
use crate::workload::{ExecutionPattern, StageDemand, WorkloadSpec};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::borrow::Borrow;

/// Maximum fixed-point iterations.
const MAX_ITERS: usize = 600;
/// Relative-change convergence tolerance.
const TOL: f64 = 1e-10;
/// Damping factor for throughput updates.
const DAMPING: f64 = 0.5;
/// Floor on throughput iterates to avoid division blow-ups.
const MIN_PPS: f64 = 1.0;

/// Measured outcome for one workload in a co-run.
#[derive(Debug, Clone, PartialEq)]
pub struct NfOutcome {
    /// Workload name.
    pub name: String,
    /// Achieved throughput, packets/second.
    pub throughput_pps: f64,
    /// Table 11 counters observed for this NF.
    pub counters: CounterSample,
    /// Per-resource time one packet spends on each resource it uses,
    /// seconds (service + contention-induced waiting).
    pub per_resource_time_s: Vec<(ResourceKind, f64)>,
    /// The resource limiting throughput (ground truth for diagnosis).
    pub bottleneck: ResourceKind,
    /// LLC miss ratio at equilibrium.
    pub miss_ratio: f64,
}

impl NfOutcome {
    /// Time per packet spent on `kind`, or 0 if unused.
    pub fn resource_time(&self, kind: ResourceKind) -> f64 {
        self.per_resource_time_s
            .iter()
            .find(|(k, _)| *k == kind)
            .map(|(_, t)| *t)
            .unwrap_or(0.0)
    }
}

/// Result of simulating a set of co-located workloads to equilibrium.
#[derive(Debug, Clone, PartialEq)]
pub struct CoRunReport {
    /// Per-workload outcomes, in input order.
    pub outcomes: Vec<NfOutcome>,
    /// DRAM bandwidth utilisation at equilibrium.
    pub dram_utilization: f64,
    /// Utilisation of each accelerator present on the NIC.
    pub accel_utilization: Vec<(ResourceKind, f64)>,
}

impl CoRunReport {
    /// Outcome for a workload by name.
    ///
    /// # Panics
    ///
    /// Panics if no workload has that name.
    pub fn outcome(&self, name: &str) -> &NfOutcome {
        self.outcomes
            .iter()
            .find(|o| o.name == name)
            .unwrap_or_else(|| panic!("no workload named {name}"))
    }
}

/// The SmartNIC simulator: owns a hardware spec and (optionally) a noise
/// model for measurement realism.
///
/// # Example
///
/// ```
/// use yala_sim::{NicSpec, Simulator, WorkloadSpec, ExecutionPattern, StageDemand};
/// let mut sim = Simulator::new(NicSpec::bluefield2());
/// let nf = WorkloadSpec::new(
///     "toy",
///     2,
///     ExecutionPattern::RunToCompletion,
///     vec![StageDemand::CpuMem {
///         cycles_per_pkt: 2_000.0,
///         cache_refs_per_pkt: 40.0,
///         write_frac: 0.3,
///         wss_bytes: 1e6,
///     }],
/// );
/// let report = sim.co_run(&[nf]);
/// assert!(report.outcomes[0].throughput_pps > 1e6); // ~2 cores of work
/// ```
#[derive(Debug, Clone)]
pub struct Simulator {
    spec: NicSpec,
    noise_sigma: f64,
    rng: StdRng,
    /// The buffers of the last co-run, kept for their capacity.
    scratch: Scratch,
}

impl Simulator {
    /// Noise-free simulator (exact fixed-point outputs).
    pub fn new(spec: NicSpec) -> Self {
        Self {
            spec,
            noise_sigma: 0.0,
            rng: StdRng::seed_from_u64(0),
            scratch: Scratch::default(),
        }
    }

    /// Simulator with multiplicative Gaussian measurement noise of relative
    /// standard deviation `sigma` applied to throughputs and counters.
    pub fn with_noise(spec: NicSpec, sigma: f64, seed: u64) -> Self {
        assert!((0.0..0.3).contains(&sigma), "noise sigma out of sane range");
        Self {
            spec,
            noise_sigma: sigma,
            rng: StdRng::seed_from_u64(seed),
            scratch: Scratch::default(),
        }
    }

    /// The NIC spec in use.
    pub fn spec(&self) -> &NicSpec {
        &self.spec
    }

    /// Runs one workload alone on the NIC.
    pub fn solo(&mut self, w: &WorkloadSpec) -> NfOutcome {
        let mut report = self.co_run(std::slice::from_ref(w));
        report.outcomes.remove(0)
    }

    /// Simulates the co-located `workloads` — owned or borrowed specs —
    /// to equilibrium.
    ///
    /// The fixed point sweeps over buffers the simulator keeps, and a
    /// sweep works out throughputs only: what does not change across
    /// sweeps — each workload's demands and its accelerator service
    /// times — is worked out once per co-run, and the per-resource times,
    /// bottlenecks, utilisations and counters once, from the last sweep.
    ///
    /// # Panics
    ///
    /// Panics if a workload uses an accelerator the NIC doesn't have, or if
    /// two workloads share a name.
    pub fn co_run<W: Borrow<WorkloadSpec>>(&mut self, workloads: &[W]) -> CoRunReport {
        self.validate(workloads);
        let n = workloads.len();
        if n == 0 {
            return CoRunReport {
                outcomes: Vec::new(),
                dram_utilization: 0.0,
                accel_utilization: Vec::new(),
            };
        }
        let mut s = std::mem::take(&mut self.scratch);
        // Initial iterate: uncontended throughput estimates.
        s.load(&self.spec, workloads);
        s.sweep(&self.spec);
        for _ in 0..MAX_ITERS {
            let mut max_delta = 0.0f64;
            for (slot, new) in s.tput.iter_mut().zip(&s.next) {
                let new = new.max(MIN_PPS);
                let old = *slot;
                let next = old * (1.0 - DAMPING) + new * DAMPING;
                max_delta = max_delta.max((next - old).abs() / old.max(MIN_PPS));
                *slot = next;
            }
            s.sweep(&self.spec);
            if max_delta < TOL {
                break;
            }
        }

        // Assemble outcomes from the last sweep (with optional
        // measurement noise, drawn workload by workload: counters first).
        let accel_utilization = ResourceKind::ACCELERATORS
            .iter()
            .zip(&s.accels)
            .filter(|(_, users)| !users.inputs.is_empty())
            .map(|(kind, users)| (*kind, accel::utilization(&users.inputs)))
            .collect();
        let outcomes = workloads
            .iter()
            .enumerate()
            .map(|(i, w)| {
                let t = s.tput[i].max(MIN_PPS);
                let mem = s.mem_out[i];
                let counters = self.counters(&s.demands[i], t, mem);
                let (_, (times, len), bottleneck) = s.compose(i);
                NfOutcome {
                    name: w.borrow().name.clone(),
                    throughput_pps: self.noisy(t),
                    counters,
                    per_resource_time_s: times[..len].to_vec(),
                    bottleneck,
                    miss_ratio: mem.miss_ratio,
                }
            })
            .collect();
        let report = CoRunReport {
            outcomes,
            dram_utilization: s.dram_utilization,
            accel_utilization,
        };
        self.scratch = s;
        report
    }

    fn validate<W: Borrow<WorkloadSpec>>(&self, workloads: &[W]) {
        let mut total_cores = 0u32;
        for (i, w) in workloads.iter().enumerate() {
            let w = w.borrow();
            assert!(
                workloads[..i].iter().all(|o| o.borrow().name != w.name),
                "duplicate workload name {}",
                w.name
            );
            total_cores += w.cores;
            for s in &w.stages {
                if let StageDemand::Accelerator { kind, .. } = s {
                    assert!(
                        self.spec.accel(*kind).is_some(),
                        "{} uses {kind} but {} has none",
                        w.name,
                        self.spec.name
                    );
                }
            }
        }
        assert!(
            total_cores <= self.spec.cores,
            "workloads demand {total_cores} cores, NIC has {}",
            self.spec.cores
        );
    }

    /// Table 11 counters from the equilibrium state of one workload.
    fn counters(&mut self, d: &Demand, tput: f64, mem: MemOutcome) -> CounterSample {
        // Synthetic-but-consistent instruction count: compute instructions
        // plus ~2 per memory access.
        let inst_pp = 1.2 * d.cycles_pp + 2.0 * d.refs_pp;
        let actual_cycles_pp = d.cycles_pp + d.refs_pp * mem.stall_per_ref_s * self.spec.freq_hz;
        let refs_rate = tput * d.refs_pp;
        let miss_rate = refs_rate * mem.miss_ratio;
        let wf = d.write_frac;
        CounterSample {
            ipc: self.noisy(inst_pp / actual_cycles_pp.max(1.0)),
            irt: self.noisy(inst_pp * tput),
            l2crd: self.noisy(refs_rate * (1.0 - wf)),
            l2cwr: self.noisy(refs_rate * wf),
            memrd: self.noisy(miss_rate * (1.0 - wf)),
            memwr: self.noisy(miss_rate * wf),
            wss: self.noisy(d.wss),
        }
    }

    /// Applies multiplicative measurement noise.
    fn noisy(&mut self, value: f64) -> f64 {
        if self.noise_sigma == 0.0 {
            return value;
        }
        let u1: f64 = self.rng.gen_range(f64::MIN_POSITIVE..1.0);
        let u2: f64 = self.rng.gen();
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        (value * (1.0 + self.noise_sigma * z)).max(0.0)
    }
}

/// What the fixed point reads of one workload, worked out once per
/// co-run.
#[derive(Debug, Clone, Copy)]
struct Demand {
    refs_pp: f64,
    wss: f64,
    write_frac: f64,
    /// CPU cycles per packet over every stage (for the counters).
    cycles_pp: f64,
    cores: f64,
    /// A CPU stage's share of the cores when the NF is a pipeline.
    cores_per_stage: f64,
    pattern: ExecutionPattern,
    port_cap: f64,
    offered_pps: Option<f64>,
    /// Where its stages start and end in [`Scratch::stages`].
    stages: (usize, usize),
    /// Per accelerator it uses: the input whose outcome all its stages
    /// there read (its last there), and the requests per packet of its
    /// first stage there, which a pipeline's grant cap divides by.
    accels: [Option<(usize, f64)>; 3],
}

impl Demand {
    /// `t` under the port rate and the offered load, floored.
    fn capped(&self, t: f64) -> f64 {
        let mut out = t.min(self.port_cap);
        if let Some(offered) = self.offered_pps {
            out = out.min(offered);
        }
        out.max(MIN_PPS)
    }
}

/// One stage of a workload, its constants worked out.
#[derive(Debug, Clone, Copy)]
enum Stage {
    Cpu {
        /// Compute seconds per packet.
        cpu_s: f64,
        refs: f64,
    },
    Accel {
        /// The accelerator's index in [`ResourceKind::ACCELERATORS`].
        slot: usize,
        reqs: f64,
    },
}

/// The users of one accelerator, in workload then stage order.
#[derive(Debug, Clone, Default)]
struct AccelUsers {
    inputs: Vec<AccelInput>,
    /// Each input's workload and requests per packet.
    owners: Vec<(usize, f64)>,
    /// Each input's `(capacity, sojourn)` at the last sweep.
    at_capacity: Vec<(f64, f64)>,
}

/// Every buffer of a co-run.
#[derive(Debug, Clone, Default)]
struct Scratch {
    demands: Vec<Demand>,
    stages: Vec<Stage>,
    accels: [AccelUsers; 3],
    mem_in: Vec<MemInput>,
    mem: memory::Scratch,
    mem_out: Vec<MemOutcome>,
    dram_utilization: f64,
    /// The throughput iterate, and what the last sweep made of it.
    tput: Vec<f64>,
    next: Vec<f64>,
}

/// Resources a workload can spend time on.
const RESOURCES: usize = 4;

/// Per-resource packet times in first-use order, on the stack, and how
/// many are set.
type PerResource = ([(ResourceKind, f64); RESOURCES], usize);

impl Scratch {
    /// Works out the constants of `workloads` and the initial iterate:
    /// uncontended throughput estimates.
    fn load<W: Borrow<WorkloadSpec>>(&mut self, spec: &NicSpec, workloads: &[W]) {
        self.demands.clear();
        self.stages.clear();
        self.tput.clear();
        for users in &mut self.accels {
            users.inputs.clear();
            users.owners.clear();
        }
        let stall = spec.llc_hit_s + spec.miss_floor * spec.dram_latency_s;
        for (i, w) in workloads.iter().enumerate() {
            let w = w.borrow();
            let start = self.stages.len();
            let mut accels = [None; 3];
            let mut cpu_time = 0.0f64;
            let mut accel_time = 0.0f64;
            for s in &w.stages {
                match *s {
                    StageDemand::CpuMem {
                        cycles_per_pkt,
                        cache_refs_per_pkt,
                        ..
                    } => {
                        let cpu_s = cycles_per_pkt / spec.freq_hz;
                        cpu_time += cpu_s + cache_refs_per_pkt * stall;
                        self.stages.push(Stage::Cpu {
                            cpu_s,
                            refs: cache_refs_per_pkt,
                        });
                    }
                    StageDemand::Accelerator {
                        kind,
                        queues,
                        reqs_per_pkt,
                        bytes_per_req,
                        matches_per_req,
                    } => {
                        let slot = ResourceKind::ACCELERATORS
                            .iter()
                            .position(|k| *k == kind)
                            .expect("accelerator kind");
                        let service_s = spec
                            .accel(kind)
                            .expect("validated")
                            .service_time(bytes_per_req, matches_per_req);
                        accel_time += reqs_per_pkt * service_s;
                        let users = &mut self.accels[slot];
                        users.inputs.push(AccelInput {
                            queues,
                            service_s,
                            offered_rps: 0.0,
                        });
                        users.owners.push((i, reqs_per_pkt));
                        let first_reqs = accels[slot].map_or(reqs_per_pkt, |(_, first)| first);
                        accels[slot] = Some((users.inputs.len() - 1, first_reqs));
                        self.stages.push(Stage::Accel {
                            slot,
                            reqs: reqs_per_pkt,
                        });
                    }
                }
            }
            let n_cpu_stages = w
                .stages
                .iter()
                .filter(|s| matches!(s, StageDemand::CpuMem { .. }))
                .count()
                .max(1);
            let d = Demand {
                refs_pp: w.cache_refs_per_pkt(),
                wss: w.wss_bytes(),
                write_frac: w.write_frac(),
                cycles_pp: w
                    .stages
                    .iter()
                    .map(|s| match s {
                        StageDemand::CpuMem { cycles_per_pkt, .. } => *cycles_per_pkt,
                        _ => 0.0,
                    })
                    .sum(),
                cores: w.cores as f64,
                cores_per_stage: w.cores as f64 / n_cpu_stages as f64,
                pattern: w.pattern,
                port_cap: spec.port_bps / (w.packet_bytes * 8.0),
                offered_pps: w.offered_pps,
                stages: (start, self.stages.len()),
                accels,
            };
            let total = (cpu_time + accel_time).max(1e-12);
            self.tput.push(d.capped(d.cores / total));
            self.demands.push(d);
        }
    }

    /// One sweep of the contention models at the current iterate: the
    /// throughput each workload would reach, into `next`.
    fn sweep(&mut self, spec: &NicSpec) {
        self.mem_in.clear();
        self.mem_in
            .extend(self.demands.iter().zip(&self.tput).map(|(d, &t)| MemInput {
                refs_per_s: t * d.refs_pp,
                wss_bytes: d.wss,
                write_frac: d.write_frac,
            }));
        self.dram_utilization =
            memory::solve_into(spec, &self.mem_in, &mut self.mem, &mut self.mem_out).0;

        for users in &mut self.accels {
            for (input, &(owner, reqs)) in users.inputs.iter_mut().zip(&users.owners) {
                // Rate-limited workloads (the synthetic benches) submit
                // fire-and-forget at their configured arrival rate;
                // open-loop NFs submit at their achieved throughput.
                let arrival_pps = self.demands[owner].offered_pps.unwrap_or(self.tput[owner]);
                input.offered_rps = arrival_pps * reqs;
            }
            accel::check(&users.inputs);
            users.at_capacity.clear();
            users
                .at_capacity
                .extend((0..users.inputs.len()).map(|j| accel::at_capacity(&users.inputs, j)));
        }

        self.next.clear();
        for i in 0..self.demands.len() {
            let t = self.compose(i).0;
            self.next.push(self.demands[i].capped(t));
        }
    }

    /// Pattern-based composition of workload `i`'s stage times at the
    /// last sweep into end-to-end throughput. Returns `(throughput,
    /// per-resource packet times, bottleneck)`.
    fn compose(&self, i: usize) -> (f64, PerResource, ResourceKind) {
        let d = &self.demands[i];
        let stall_per_ref = self.mem_out[i].stall_per_ref_s;
        let stages = &self.stages[d.stages.0..d.stages.1];
        // A stage's packet time on its resource, and for an accelerator
        // stage its grant cap (requests/s / requests per packet) with its
        // own requests and with its workload's first stage's there.
        let timed = |stage: &Stage| match *stage {
            Stage::Cpu { cpu_s, refs } => {
                (ResourceKind::CpuMem, cpu_s + refs * stall_per_ref, 0.0, 0.0)
            }
            Stage::Accel { slot, reqs } => {
                let (input, first_reqs) = d.accels[slot].expect("loaded with the stage");
                let (capacity, sojourn) = self.accels[slot].at_capacity[input];
                (
                    ResourceKind::ACCELERATORS[slot],
                    reqs * sojourn,
                    capacity / reqs.max(1e-12),
                    capacity / first_reqs.max(1e-12),
                )
            }
        };
        // Merge repeated resources into per-resource totals.
        let mut merged = [(ResourceKind::CpuMem, 0.0); RESOURCES];
        let mut len = 0;
        for stage in stages {
            let (k, t, _, _) = timed(stage);
            match merged[..len].iter_mut().find(|(mk, _)| *mk == k) {
                Some((_, mt)) => *mt += t,
                None => {
                    merged[len] = (k, t);
                    len += 1;
                }
            }
        }

        match d.pattern {
            ExecutionPattern::RunToCompletion => {
                // Times add; the NF's cores process packets in parallel.
                let total: f64 = merged[..len].iter().map(|(_, t)| t).sum();
                let mut t = d.cores / total.max(1e-12);
                // A packet cannot complete faster than its accelerator grants.
                for stage in stages.iter().filter(|s| matches!(s, Stage::Accel { .. })) {
                    t = t.min(timed(stage).2);
                }
                let bottleneck = merged[..len]
                    .iter()
                    .max_by(|a, b| a.1.partial_cmp(&b.1).expect("finite times"))
                    .map(|(k, _)| *k)
                    .unwrap_or(ResourceKind::CpuMem);
                (t, (merged, len), bottleneck)
            }
            ExecutionPattern::Pipeline => {
                // Each CPU stage gets an equal share of the NF's cores; each
                // accelerator stage runs at its granted capacity.
                let mut best: Option<(ResourceKind, f64)> = None; // (resource, rate)
                for stage in stages {
                    let (k, t, _, first_cap) = timed(stage);
                    let rate = match k {
                        ResourceKind::CpuMem => d.cores_per_stage / t.max(1e-12),
                        _ => first_cap,
                    };
                    if best.map(|(_, r)| rate < r).unwrap_or(true) {
                        best = Some((k, rate));
                    }
                }
                let (bn, rate) = best.expect("at least one stage");
                (rate, (merged, len), bn)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cpu_nf(name: &str, cycles: f64, refs: f64, wss: f64) -> WorkloadSpec {
        WorkloadSpec::new(
            name,
            2,
            ExecutionPattern::RunToCompletion,
            vec![StageDemand::CpuMem {
                cycles_per_pkt: cycles,
                cache_refs_per_pkt: refs,
                write_frac: 0.3,
                wss_bytes: wss,
            }],
        )
    }

    fn regex_nf(name: &str, pattern: ExecutionPattern, matches_per_req: f64) -> WorkloadSpec {
        WorkloadSpec::new(
            name,
            2,
            pattern,
            vec![
                StageDemand::CpuMem {
                    cycles_per_pkt: 1_500.0,
                    cache_refs_per_pkt: 30.0,
                    write_frac: 0.3,
                    wss_bytes: 1e6,
                },
                StageDemand::Accelerator {
                    kind: ResourceKind::Regex,
                    queues: 1,
                    reqs_per_pkt: 1.0,
                    bytes_per_req: 1446.0,
                    matches_per_req,
                },
            ],
        )
    }

    fn mem_bench(car: f64, wss: f64) -> WorkloadSpec {
        let refs_per_pkt = 100.0;
        WorkloadSpec::new(
            "mem-bench",
            2,
            ExecutionPattern::RunToCompletion,
            vec![StageDemand::CpuMem {
                cycles_per_pkt: 50.0,
                cache_refs_per_pkt: refs_per_pkt,
                write_frac: 0.5,
                wss_bytes: wss,
            }],
        )
        .with_offered_pps(car / refs_per_pkt)
    }

    #[test]
    fn solo_throughput_is_sane() {
        let mut sim = Simulator::new(NicSpec::bluefield2());
        let o = sim.solo(&cpu_nf("a", 2_000.0, 40.0, 1e6));
        // 2 cores / (0.8us + 40 * ~6ns) ≈ 1.9 Mpps.
        assert!(
            o.throughput_pps > 1.0e6 && o.throughput_pps < 3.0e6,
            "{}",
            o.throughput_pps
        );
        assert_eq!(o.bottleneck, ResourceKind::CpuMem);
    }

    #[test]
    fn co_location_degrades_throughput() {
        let mut sim = Simulator::new(NicSpec::bluefield2());
        let solo = sim.solo(&cpu_nf("a", 2_000.0, 40.0, 4e6)).throughput_pps;
        let report = sim.co_run(&[cpu_nf("a", 2_000.0, 40.0, 4e6), mem_bench(2e8, 8e6)]);
        let contended = report.outcome("a").throughput_pps;
        assert!(
            contended < solo * 0.9,
            "contended {contended} should be well below solo {solo}"
        );
    }

    #[test]
    fn contention_is_monotone_in_competitor_car() {
        let mut sim = Simulator::new(NicSpec::bluefield2());
        let mut last = f64::INFINITY;
        for car in [2e7, 6e7, 1.2e8, 2.0e8, 3.0e8] {
            let report = sim.co_run(&[cpu_nf("a", 2_000.0, 40.0, 4e6), mem_bench(car, 8e6)]);
            let t = report.outcome("a").throughput_pps;
            assert!(
                t <= last * 1.001,
                "tput must fall as CAR rises: {t} after {last}"
            );
            last = t;
        }
    }

    #[test]
    fn regex_equilibrium_matches_eq1() {
        // Two identical regex-backlogged NFs with one queue each must end at
        // the same throughput (paper Fig. 4's equilibrium).
        let mut sim = Simulator::new(NicSpec::bluefield2());
        let a = regex_nf("a", ExecutionPattern::Pipeline, 1.0);
        let b = regex_nf("b", ExecutionPattern::Pipeline, 1.0);
        let report = sim.co_run(&[a, b]);
        let (ta, tb) = (
            report.outcome("a").throughput_pps,
            report.outcome("b").throughput_pps,
        );
        assert!((ta - tb).abs() / ta < 0.01, "{ta} vs {tb}");
    }

    #[test]
    fn pipeline_insensitive_to_memory_when_regex_bound() {
        // Fig. 5 (top): with heavy regex contention, a pipeline NF with a
        // light memory stage barely moves as memory contention rises — until
        // the memory stage would cross below the regex cap (not reached
        // here).
        let mut sim = Simulator::new(NicSpec::bluefield2());
        let p_nf = || {
            WorkloadSpec::new(
                "p",
                2,
                ExecutionPattern::Pipeline,
                vec![
                    StageDemand::CpuMem {
                        cycles_per_pkt: 1_500.0,
                        cache_refs_per_pkt: 10.0,
                        write_frac: 0.3,
                        wss_bytes: 1e6,
                    },
                    StageDemand::Accelerator {
                        kind: ResourceKind::Regex,
                        queues: 1,
                        reqs_per_pkt: 1.0,
                        bytes_per_req: 1446.0,
                        matches_per_req: 1.0,
                    },
                ],
            )
        };
        let regex_hog = WorkloadSpec::new(
            "hog",
            2,
            ExecutionPattern::RunToCompletion,
            vec![StageDemand::Accelerator {
                kind: ResourceKind::Regex,
                queues: 1,
                reqs_per_pkt: 1.0,
                bytes_per_req: 1446.0,
                matches_per_req: 4.0,
            }],
        );
        let t_low_mem = {
            let r = sim.co_run(&[p_nf(), regex_hog.clone()]);
            assert_eq!(r.outcome("p").bottleneck, ResourceKind::Regex);
            r.outcome("p").throughput_pps
        };
        let t_high_mem = {
            let r = sim.co_run(&[p_nf(), regex_hog, mem_bench(1.5e8, 6e6)]);
            r.outcome("p").throughput_pps
        };
        let drop = (t_low_mem - t_high_mem) / t_low_mem;
        assert!(
            drop < 0.05,
            "pipeline regex-bound NF dropped {drop} with memory contention"
        );
    }

    #[test]
    fn rtc_compounds_both_contentions() {
        // Fig. 5 (bottom): RTC throughput falls under memory contention even
        // when regex contention is present.
        let mut sim = Simulator::new(NicSpec::bluefield2());
        let hog = WorkloadSpec::new(
            "hog",
            2,
            ExecutionPattern::RunToCompletion,
            vec![StageDemand::Accelerator {
                kind: ResourceKind::Regex,
                queues: 1,
                reqs_per_pkt: 1.0,
                bytes_per_req: 1446.0,
                matches_per_req: 2.0,
            }],
        );
        let nf = || {
            let mut w = regex_nf("r", ExecutionPattern::RunToCompletion, 1.0);
            // More memory-heavy so the memory share is visible.
            if let StageDemand::CpuMem {
                cache_refs_per_pkt,
                wss_bytes,
                ..
            } = &mut w.stages[0]
            {
                *cache_refs_per_pkt = 80.0;
                *wss_bytes = 4e6;
            }
            w
        };
        let base = sim.co_run(&[nf(), hog.clone()]).outcome("r").throughput_pps;
        let with_mem = sim
            .co_run(&[nf(), hog, mem_bench(1.5e8, 8e6)])
            .outcome("r")
            .throughput_pps;
        assert!(
            with_mem < base * 0.95,
            "RTC should drop further with memory contention: {with_mem} vs {base}"
        );
    }

    #[test]
    fn offered_load_caps_throughput() {
        let mut sim = Simulator::new(NicSpec::bluefield2());
        let w = cpu_nf("a", 1_000.0, 10.0, 1e5).with_offered_pps(50_000.0);
        let o = sim.solo(&w);
        assert!((o.throughput_pps - 50_000.0).abs() < 1.0);
    }

    #[test]
    fn port_rate_caps_throughput() {
        let mut sim = Simulator::new(NicSpec::bluefield2());
        // Nearly free NF: would run at absurd pps without the port cap.
        let w = WorkloadSpec::new(
            "tiny",
            2,
            ExecutionPattern::RunToCompletion,
            vec![StageDemand::CpuMem {
                cycles_per_pkt: 10.0,
                cache_refs_per_pkt: 0.0,
                write_frac: 0.0,
                wss_bytes: 0.0,
            }],
        )
        .with_packet_bytes(1500.0);
        let o = sim.solo(&w);
        let cap = 100e9 / (1500.0 * 8.0);
        assert!(o.throughput_pps <= cap * 1.001);
    }

    #[test]
    fn counters_reflect_contention() {
        let mut sim = Simulator::new(NicSpec::bluefield2());
        let solo = sim.solo(&cpu_nf("a", 2_000.0, 40.0, 4e6));
        let report = sim.co_run(&[cpu_nf("a", 2_000.0, 40.0, 4e6), mem_bench(2.5e8, 8e6)]);
        let contended = report.outcome("a");
        assert!(
            contended.counters.ipc < solo.counters.ipc,
            "IPC falls under contention"
        );
        assert!(contended.miss_ratio > solo.miss_ratio, "miss ratio rises");
        assert!(
            contended.counters.car() < solo.counters.car(),
            "CAR falls with tput"
        );
        assert_eq!(contended.counters.wss, 4e6);
    }

    #[test]
    fn deterministic_without_noise() {
        let mut s1 = Simulator::new(NicSpec::bluefield2());
        let mut s2 = Simulator::new(NicSpec::bluefield2());
        let w = [cpu_nf("a", 2_000.0, 40.0, 2e6), mem_bench(1e8, 4e6)];
        assert_eq!(
            s1.co_run(&w).outcome("a").throughput_pps,
            s2.co_run(&w).outcome("a").throughput_pps
        );
    }

    #[test]
    fn noise_perturbs_but_is_bounded() {
        let mut sim = Simulator::with_noise(NicSpec::bluefield2(), 0.01, 7);
        let w = cpu_nf("a", 2_000.0, 40.0, 2e6);
        let t1 = sim.solo(&w).throughput_pps;
        let t2 = sim.solo(&w).throughput_pps;
        assert_ne!(t1, t2, "noise should differ per measurement");
        assert!((t1 - t2).abs() / t1 < 0.1, "1% noise should stay small");
    }

    #[test]
    #[should_panic(expected = "cores")]
    fn over_allocating_cores_panics() {
        let mut sim = Simulator::new(NicSpec::bluefield2());
        let ws: Vec<WorkloadSpec> = (0..5)
            .map(|i| cpu_nf(&format!("w{i}"), 1000.0, 10.0, 1e5))
            .collect();
        sim.co_run(&ws); // 5 * 2 = 10 > 8 cores
    }

    #[test]
    #[should_panic(expected = "duplicate workload name")]
    fn duplicate_names_panic() {
        let mut sim = Simulator::new(NicSpec::bluefield2());
        sim.co_run(&[cpu_nf("a", 1e3, 1.0, 1e5), cpu_nf("a", 1e3, 1.0, 1e5)]);
    }

    #[test]
    #[should_panic(expected = "has none")]
    fn missing_accelerator_panics() {
        let mut sim = Simulator::new(NicSpec::pensando());
        sim.co_run(&[regex_nf("r", ExecutionPattern::Pipeline, 1.0)]);
    }

    #[test]
    fn report_lookup_by_name() {
        let mut sim = Simulator::new(NicSpec::bluefield2());
        let r = sim.co_run(&[cpu_nf("alpha", 1e3, 10.0, 1e5)]);
        assert_eq!(r.outcome("alpha").name, "alpha");
    }

    #[test]
    fn resource_time_accessor() {
        let mut sim = Simulator::new(NicSpec::bluefield2());
        let o = sim.solo(&regex_nf("r", ExecutionPattern::RunToCompletion, 1.0));
        assert!(o.resource_time(ResourceKind::Regex) > 0.0);
        assert!(o.resource_time(ResourceKind::CpuMem) > 0.0);
        assert_eq!(o.resource_time(ResourceKind::Crypto), 0.0);
    }
}
