//! A co-run's heap traffic does not grow with its sweep count: the fixed
//! point runs over buffers the simulator keeps, so what a co-run
//! allocates is its report (one vector, a name and a time table per
//! workload) plus, on a simulator's first co-runs, the growth of those
//! buffers.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use yala_sim::{ExecutionPattern, NicSpec, Simulator, StageDemand, WorkloadSpec};

/// The system allocator, counting allocations and reallocations.
struct Counting;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method hands its arguments unchanged to `System`, which
// upholds `GlobalAlloc`'s contract; the counter is a statistic that
// publishes no other data, so `Relaxed` suffices.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's guarantees for `layout` pass through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` with this `layout`, and the
        // caller's guarantees for `new_size` pass through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn cpu(name: &str, cycles: f64, refs: f64, write_frac: f64, wss: f64) -> WorkloadSpec {
    WorkloadSpec::new(
        name,
        2,
        ExecutionPattern::RunToCompletion,
        vec![StageDemand::CpuMem {
            cycles_per_pkt: cycles,
            cache_refs_per_pkt: refs,
            write_frac,
            wss_bytes: wss,
        }],
    )
}

/// Allocations made by one co-run of `workloads`.
fn allocations(sim: &mut Simulator, workloads: &[WorkloadSpec]) -> usize {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let report = sim.co_run(workloads);
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    assert_eq!(report.outcomes.len(), workloads.len());
    after - before
}

#[test]
fn a_co_run_allocates_its_report_whatever_its_sweep_count() {
    let nf = cpu("nf", 4_456.0, 83.0, 0.072, 4_096.0).with_packet_bytes(1500.0);
    let light = cpu("light", 2_982.0, 23.0, 0.35, 11_136.0);
    // Two mem-benches whose DRAM traffic feeds back on itself: on the
    // Pensando preset this trio runs out the fixed point's 600 sweeps,
    // where the trio with `light` in place of the first bench settles
    // in 25.
    let bench =
        |name, car: f64, wss| cpu(name, 60.0, 100.0, 0.5, wss).with_offered_pps(car / 100.0);
    let slow = [nf.clone(), bench("b1", 1e8, 4e6), bench("b2", 2.5e8, 8e6)];
    let fast = [nf, light, bench("b2", 2.5e8, 8e6)];

    let mut sim = Simulator::new(NicSpec::pensando());
    let first = allocations(&mut sim, &slow);
    let warm_slow = allocations(&mut sim, &slow);
    let warm_fast = allocations(&mut sim, &fast);
    // The report: its outcome vector, and per workload a name and a
    // per-resource time table.
    assert_eq!(
        warm_slow,
        1 + 2 * slow.len(),
        "a warm co-run allocates its report only"
    );
    assert_eq!(warm_fast, warm_slow, "600 sweeps allocate what 25 do");
    // A new simulator also grows its buffers, once each.
    assert!(
        first <= warm_slow + 16,
        "{first} allocations on a new simulator"
    );
    let mut fresh = Simulator::new(NicSpec::pensando());
    assert!(allocations(&mut fresh, &fast) <= first);
}
