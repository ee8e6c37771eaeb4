//! Offline profiling sweeps (§6): drive the simulator — the hardware
//! stand-in — with synthetic bench NFs at controlled contention levels and
//! record `(features, target throughput)` training samples.

use crate::memory_model::traffic_aware_features;
use rand::Rng;
use yala_ml::Dataset;
use yala_nf::bench::{mem_bench_with_cycles, regex_bench};
use yala_nf::NfKind;
use yala_sim::{CounterSample, ResourceKind, Simulator, WorkloadSpec};
use yala_traffic::TrafficProfile;

/// One synthetic memory-contention level: mem-bench's knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemLevel {
    /// Target cache-access rate, refs/s.
    pub car: f64,
    /// Working-set size, bytes.
    pub wss: f64,
    /// Compute intensity (decorrelates IPC/IRT from CAR).
    pub cycles: f64,
}

impl MemLevel {
    /// The zero-contention level.
    pub fn idle() -> Self {
        Self {
            car: 1.0,
            wss: 0.0,
            cycles: 0.0,
        }
    }

    /// The mem-bench workload realising this level.
    pub fn bench(&self) -> WorkloadSpec {
        mem_bench_with_cycles(self.car.max(1.0), self.wss, self.cycles)
    }

    /// Uniformly random level across the training ranges.
    pub fn random<R: Rng>(rng: &mut R) -> Self {
        Self {
            car: rng.gen_range(2.0e7..3.0e8),
            wss: rng.gen_range(0.5e6..24.0e6),
            cycles: *[60.0, 600.0, 2_400.0]
                .get(rng.gen_range(0..3))
                .expect("three variants"),
        }
    }
}

/// The default memory-contention training grid (CAR × WSS × intensity):
/// 8 CAR levels × 5 working-set sizes, for Yala's fixed-traffic memory
/// curve (§4.1.2). SLOMO trains on its own 10×6 grid,
/// [`crate::baseline::default_mem_grid`], so comparing the two models
/// also compares two grids (ROADMAP.md, the ablation ladder's grid
/// confound).
pub fn default_mem_grid() -> Vec<MemLevel> {
    let mut grid = Vec::new();
    for i in 0..8 {
        let car = 2.0e7 + i as f64 * 3.8e7; // 20 M .. 286 M refs/s
        for &wss_mb in &[0.5f64, 2.0, 6.0, 12.0, 24.0] {
            // Rotate intensity variants across the grid.
            let cycles = [60.0, 600.0, 2_400.0][(i as usize + wss_mb as usize) % 3];
            grid.push(MemLevel {
                car,
                wss: wss_mb * 1e6,
                cycles,
            });
        }
    }
    grid
}

/// Measures mem-bench's solo counter vector at a level — the contention
/// features used for that training sample.
pub fn bench_counters(sim: &mut Simulator, level: MemLevel) -> CounterSample {
    if level.wss == 0.0 && level.car <= 1.0 {
        return CounterSample::default();
    }
    sim.solo(&level.bench()).counters
}

/// Builds (or fetches from a per-thread cache) the profiled workload of an
/// NF at a traffic point. Workload construction replays hundreds of packets
/// through the real NF, so repeated measurements at the same traffic point
/// (ubiquitous in profiling sweeps) would otherwise dominate runtime. Cache
/// misses measure through [`NfKind::workload`] — the calling thread's
/// long-lived [`yala_nf::Profiler`] — so even a sweep of all-distinct
/// traffic points reuses one set of measurement buffers.
pub fn cached_workload(kind: NfKind, traffic: TrafficProfile, seed: u64) -> WorkloadSpec {
    use std::cell::RefCell;
    use std::collections::HashMap;
    type Key = (NfKind, u32, u32, u64, u64);
    thread_local! {
        static CACHE: RefCell<HashMap<Key, WorkloadSpec>> = RefCell::new(HashMap::new());
    }
    let key = (
        kind,
        traffic.flow_count,
        traffic.packet_size,
        traffic.mtbr.to_bits(),
        seed,
    );
    CACHE.with(|c| {
        let mut map = c.borrow_mut();
        if map.len() > 8_192 {
            map.clear();
        }
        map.entry(key)
            .or_insert_with(|| kind.workload(traffic, seed))
            .clone()
    })
}

/// One traffic-aware profiling measurement: co-runs the target (profiled at
/// `traffic`) against mem-bench at `level`, returning the 10-dim feature
/// row and the measured throughput.
pub fn measure_traffic_sample(
    sim: &mut Simulator,
    kind: NfKind,
    traffic: TrafficProfile,
    level: MemLevel,
    seed: u64,
) -> ([f64; 10], f64) {
    let target = cached_workload(kind, traffic, seed);
    let features = traffic_aware_features(&bench_counters(sim, level), &traffic);
    let tput = if level.wss == 0.0 && level.car <= 1.0 {
        sim.solo(&target).throughput_pps
    } else {
        sim.co_run(&[target, level.bench()]).outcomes[0].throughput_pps
    };
    (features, tput)
}

/// Fixed-traffic memory profiling (the §4.1.2 model): sweeps `grid` at one
/// traffic profile and returns a 7-feature dataset.
pub fn memory_dataset_fixed(
    sim: &mut Simulator,
    target: &WorkloadSpec,
    grid: &[MemLevel],
) -> Dataset {
    let mut ds = Dataset::new(7);
    ds.push(
        &CounterSample::default().as_features(),
        sim.solo(target).throughput_pps,
    );
    for &level in grid {
        let features = bench_counters(sim, level);
        let tput = sim.co_run(&[target.clone(), level.bench()]).outcomes[0].throughput_pps;
        ds.push(&features.as_features(), tput);
    }
    ds
}

/// The contender description of a mem-bench instance (known to the
/// operator; counters measured solo).
pub fn mem_bench_contender(sim: &mut Simulator, level: MemLevel) -> crate::Contender {
    crate::Contender::memory_only("mem-bench", bench_counters(sim, level))
}

/// The contender description of a regex-bench instance. Its service-time
/// parameters are known (it is the operator's own tool, §4.1.1), so the
/// accelerator pressure is computed from the NIC's service law directly.
pub fn regex_bench_contender(
    sim: &mut Simulator,
    offered_rps: f64,
    bytes: f64,
    mtbr: f64,
) -> crate::Contender {
    let bench = regex_bench(offered_rps, bytes, mtbr);
    let counters = sim.solo(&bench).counters;
    let service = sim
        .spec()
        .accel(ResourceKind::Regex)
        .expect("NIC has a regex engine")
        .service_time(bytes, mtbr * bytes / 1e6);
    crate::Contender::memory_only("regex-bench", counters).with_accel(
        crate::contender::AccelContention {
            kind: ResourceKind::Regex,
            queues: 1.0,
            service_s: service,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use yala_sim::NicSpec;

    fn sim() -> Simulator {
        Simulator::new(NicSpec::bluefield2())
    }

    #[test]
    fn grid_covers_ranges() {
        let grid = default_mem_grid();
        assert_eq!(grid.len(), 40);
        assert!(grid.iter().any(|l| l.wss >= 20e6));
        assert!(grid.iter().any(|l| l.car <= 3e7));
        assert!(grid.iter().any(|l| l.car >= 2.5e8));
        // All three intensity variants present.
        for c in [60.0, 600.0, 2_400.0] {
            assert!(grid.iter().any(|l| l.cycles == c), "missing cycles {c}");
        }
    }

    #[test]
    fn idle_level_yields_zero_features() {
        let mut sim = sim();
        let c = bench_counters(&mut sim, MemLevel::idle());
        assert_eq!(c.as_features(), [0.0; 7]);
    }

    #[test]
    fn fixed_dataset_shape_and_monotonicity() {
        let mut sim = sim();
        let target = NfKind::FlowStats.workload(TrafficProfile::default(), 1);
        let grid = vec![
            MemLevel {
                car: 3e7,
                wss: 4e6,
                cycles: 60.0,
            },
            MemLevel {
                car: 2.5e8,
                wss: 12e6,
                cycles: 60.0,
            },
        ];
        let ds = memory_dataset_fixed(&mut sim, &target, &grid);
        assert_eq!(ds.len(), 3);
        assert_eq!(ds.n_features(), 7);
        // Solo (row 0) >= light (row 1) >= heavy (row 2).
        assert!(ds.target(0) >= ds.target(1));
        assert!(ds.target(1) > ds.target(2));
    }

    #[test]
    fn traffic_sample_embeds_profile() {
        let mut sim = sim();
        let t = TrafficProfile::new(8_000, 512, 300.0);
        let (x, tput) = measure_traffic_sample(
            &mut sim,
            NfKind::FlowStats,
            t,
            MemLevel {
                car: 1e8,
                wss: 6e6,
                cycles: 60.0,
            },
            3,
        );
        assert_eq!(&x[7..], &[8_000.0, 512.0, 300.0]);
        assert!(tput > 0.0);
    }

    #[test]
    fn regex_bench_contender_has_known_pressure() {
        let mut sim = sim();
        let c = regex_bench_contender(&mut sim, 1e6, 1446.0, 600.0);
        let expected = 5e-9 + 1446.0 * 0.08e-9 + 600.0 * 1446.0 / 1e6 * 180e-9;
        assert!((c.pressure_on(ResourceKind::Regex) - expected).abs() / expected < 1e-9);
    }
}
