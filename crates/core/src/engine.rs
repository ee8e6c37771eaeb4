//! The parallel scenario engine: dispatches independent simulator
//! scenarios across a std-thread worker pool (the strata-benchmarks
//! thread-sweep idiom) with deterministic per-scenario seeding, so
//! training N profiles scales with core count while remaining
//! **bit-identical** to the sequential path.
//!
//! The determinism contract: a scenario's result may depend only on its
//! index (and the caller's explicit inputs) — never on which worker ran it
//! or in what order. Every consumer therefore builds a *private*
//! [`Simulator`] per scenario, seeded by [`scenario_seed`], and results
//! are returned in scenario order. [`Engine::sequential`] runs the exact
//! same closures inline; the parity suite asserts
//! `Engine::with_threads(n).run(..) == Engine::sequential().run(..)` for
//! adaptive profiling, the SLOMO sweep, and placement preparation.

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use yala_sim::{NicSpec, Simulator};

/// Derives the seed for scenario `index` from a base seed: a SplitMix64
/// step, so neighbouring scenarios get decorrelated streams while the
/// mapping stays a pure function of `(base, index)` — the property that
/// makes parallel and sequential execution bit-identical.
pub fn scenario_seed(base: u64, index: usize) -> u64 {
    let mut z = base.wrapping_add(
        (index as u64)
            .wrapping_add(1)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15),
    );
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Base seed for the NIC model at `index` in a portfolio's spec list:
/// model 0 keeps `base` unchanged — so an all-first-model (homogeneous)
/// portfolio reproduces the single-spec seed streams bit for bit — while
/// later models get decorrelated streams via a salted SplitMix64 step.
pub fn model_seed_base(base: u64, index: usize) -> u64 {
    if index == 0 {
        base
    } else {
        scenario_seed(base ^ 0x5EED_4A1C_0DE7_713B, index)
    }
}

/// Builds the private simulator for one scenario: noise-free when
/// `noise_sigma` is zero, otherwise seeded measurement noise.
pub fn simulator_for(spec: &NicSpec, noise_sigma: f64, seed: u64) -> Simulator {
    if noise_sigma == 0.0 {
        Simulator::new(spec.clone())
    } else {
        Simulator::with_noise(spec.clone(), noise_sigma, seed)
    }
}

/// A worker pool for independent scenarios.
///
/// # Example
///
/// ```
/// use yala_core::engine::Engine;
/// let squares = Engine::with_threads(4).run(8, |i| i * i);
/// assert_eq!(squares, vec![0, 1, 4, 9, 16, 25, 36, 49]);
/// // Bit-identical to the sequential path by construction:
/// assert_eq!(squares, Engine::sequential().run(8, |i| i * i));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Engine {
    threads: usize,
}

impl Engine {
    /// The sequential engine: scenarios run inline, in index order.
    pub fn sequential() -> Self {
        Self { threads: 1 }
    }

    /// An engine with exactly `threads` workers.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero.
    pub fn with_threads(threads: usize) -> Self {
        assert!(threads > 0, "engine needs at least one thread");
        Self { threads }
    }

    /// An engine sized to the machine's available parallelism.
    pub fn auto() -> Self {
        Self {
            threads: std::thread::available_parallelism()
                .map(NonZeroUsize::get)
                .unwrap_or(1),
        }
    }

    /// Worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs `scenarios` independent jobs and returns their results in
    /// scenario order. `job(i)` must be a pure function of `i` and the
    /// captured environment; workers pull indices from a shared counter,
    /// so *which* thread runs a scenario is unspecified — results are not.
    pub fn run<T, F>(&self, scenarios: usize, job: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        if self.threads == 1 || scenarios <= 1 {
            return (0..scenarios).map(job).collect();
        }
        let next = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<T>>> = (0..scenarios).map(|_| Mutex::new(None)).collect();
        run_workers(self.threads.min(scenarios), || loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= scenarios {
                break;
            }
            let result = job(i);
            *slots[i].lock().expect("scenario slot poisoned") = Some(result);
        });
        slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("scenario slot poisoned")
                    .expect("every scenario index was claimed")
            })
            .collect()
    }

    /// [`Engine::run`] with chunked work-stealing: workers claim runs
    /// of `chunk` consecutive scenario indices per atomic increment and
    /// the per-chunk result vectors merge back in chunk order, so a
    /// 10k-scenario fan-out costs hundreds of claims and slot locks
    /// instead of 10k. The contract is unchanged — `job(i)` pure in
    /// `i`, results in scenario order — so for any chunk size the
    /// output equals `run`'s, and the parity tests assert it.
    pub fn run_chunked<T, F>(&self, scenarios: usize, chunk: usize, job: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        let chunk = chunk.max(1);
        if self.threads == 1 || scenarios <= chunk {
            return (0..scenarios).map(job).collect();
        }
        let chunks = scenarios.div_ceil(chunk);
        let next = AtomicUsize::new(0);
        let slots: Vec<Mutex<Vec<T>>> = (0..chunks).map(|_| Mutex::new(Vec::new())).collect();
        run_workers(self.threads.min(chunks), || loop {
            let c = next.fetch_add(1, Ordering::Relaxed);
            if c >= chunks {
                break;
            }
            let lo = c * chunk;
            let hi = (lo + chunk).min(scenarios);
            let results: Vec<T> = (lo..hi).map(&job).collect();
            *slots[c].lock().expect("chunk slot poisoned") = results;
        });
        let mut out = Vec::with_capacity(scenarios);
        for slot in slots {
            out.extend(slot.into_inner().expect("chunk slot poisoned"));
        }
        debug_assert_eq!(out.len(), scenarios, "every chunk was claimed");
        out
    }
}

/// Runs `worker` on `n` threads and joins them. `std::thread::scope` on
/// its own only waits until the workers' closures have returned; the OS
/// threads may still be exiting when it does. A caller that starts its
/// next run within that window — a fleet loop a few hundred microseconds
/// from audit to audit — finds the exiting workers' allocator arenas
/// still attached, so its new workers are handed fresh ones, and every
/// arena that has once served a training run keeps some 40 MB resident.
/// Joining the OS threads closes the window: two workers, two arenas.
fn run_workers(n: usize, worker: impl Fn() + Sync) {
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..n).map(|_| scope.spawn(&worker)).collect();
        for handle in workers {
            if let Err(panic) = handle.join() {
                std::panic::resume_unwind(panic);
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn results_arrive_in_scenario_order() {
        let engine = Engine::with_threads(8);
        let out = engine.run(100, |i| i * 3);
        assert_eq!(out, (0..100).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_equals_sequential() {
        let job = |i: usize| scenario_seed(42, i).wrapping_mul(i as u64);
        assert_eq!(
            Engine::with_threads(4).run(33, job),
            Engine::sequential().run(33, job)
        );
    }

    #[test]
    fn all_scenarios_run_exactly_once() {
        let counter = AtomicUsize::new(0);
        let out = Engine::with_threads(6).run(250, |i| {
            counter.fetch_add(1, Ordering::Relaxed);
            i
        });
        assert_eq!(counter.load(Ordering::Relaxed), 250);
        assert_eq!(out.iter().copied().collect::<HashSet<_>>().len(), 250);
    }

    #[test]
    fn zero_and_one_scenarios() {
        assert!(Engine::with_threads(4).run(0, |i| i).is_empty());
        assert_eq!(Engine::with_threads(4).run(1, |i| i + 7), vec![7]);
    }

    #[test]
    fn chunked_equals_plain_for_any_chunk_size() {
        let job = |i: usize| scenario_seed(9, i).wrapping_mul(i as u64);
        let want = Engine::sequential().run(103, job);
        for threads in [1, 3, 8] {
            for chunk in [1, 7, 16, 103, 500] {
                assert_eq!(
                    Engine::with_threads(threads).run_chunked(103, chunk, job),
                    want,
                    "threads={threads} chunk={chunk}"
                );
            }
        }
        // Chunk boundaries: exact multiple and a trailing partial chunk.
        assert_eq!(
            Engine::with_threads(4).run_chunked(32, 8, job),
            Engine::sequential().run(32, job)
        );
        assert!(Engine::with_threads(4).run_chunked(0, 8, |i| i).is_empty());
    }

    #[test]
    fn chunked_runs_every_scenario_exactly_once() {
        let counter = AtomicUsize::new(0);
        let out = Engine::with_threads(6).run_chunked(250, 9, |i| {
            counter.fetch_add(1, Ordering::Relaxed);
            i
        });
        assert_eq!(counter.load(Ordering::Relaxed), 250);
        assert_eq!(out, (0..250).collect::<Vec<_>>());
    }

    #[test]
    fn auto_has_at_least_one_thread() {
        assert!(Engine::auto().threads() >= 1);
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn zero_threads_panics() {
        Engine::with_threads(0);
    }

    #[test]
    fn scenario_seeds_are_decorrelated_and_deterministic() {
        let seeds: HashSet<u64> = (0..1_000).map(|i| scenario_seed(7, i)).collect();
        assert_eq!(seeds.len(), 1_000, "seed collisions");
        assert_eq!(scenario_seed(7, 3), scenario_seed(7, 3));
        assert_ne!(scenario_seed(7, 3), scenario_seed(8, 3));
    }

    #[test]
    fn model_seed_base_keeps_model_zero_and_decorrelates_the_rest() {
        assert_eq!(model_seed_base(42, 0), 42, "homogeneous parity");
        let seeds: HashSet<u64> = (0..16).map(|m| model_seed_base(42, m)).collect();
        assert_eq!(seeds.len(), 16, "model streams must not collide");
        assert_eq!(model_seed_base(42, 3), model_seed_base(42, 3));
    }

    #[test]
    fn simulator_for_respects_noise_setting() {
        use yala_sim::{ExecutionPattern, StageDemand, WorkloadSpec};
        let spec = NicSpec::bluefield2();
        let w = WorkloadSpec::new(
            "t",
            2,
            ExecutionPattern::RunToCompletion,
            vec![StageDemand::CpuMem {
                cycles_per_pkt: 1_000.0,
                cache_refs_per_pkt: 10.0,
                write_frac: 0.3,
                wss_bytes: 1e5,
            }],
        );
        let mut a = simulator_for(&spec, 0.0, 1);
        let mut b = simulator_for(&spec, 0.0, 2);
        assert_eq!(a.solo(&w).throughput_pps, b.solo(&w).throughput_pps);
        let mut c = simulator_for(&spec, 0.01, 3);
        assert_ne!(a.solo(&w).throughput_pps, c.solo(&w).throughput_pps);
    }
}
