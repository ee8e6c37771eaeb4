//! Each thread measures through a profiler of its own; threads measuring
//! at the same time must each get the bytes a lone thread gets.

use std::sync::Barrier;
use yala_nf::NfKind;
use yala_sim::WorkloadSpec;
use yala_traffic::TrafficProfile;

fn points(kind: NfKind) -> Vec<(TrafficProfile, u64)> {
    [40_000u32, 300, 90_000, 7, 20_000, 65_537]
        .into_iter()
        .enumerate()
        .map(|(i, flows)| {
            (
                TrafficProfile::new(flows, 256 + 100 * i as u32, 300.0),
                kind as u64 * 100 + i as u64,
            )
        })
        .collect()
}

fn measure(kind: NfKind) -> Vec<WorkloadSpec> {
    points(kind)
        .into_iter()
        .map(|(profile, seed)| kind.workload(profile, seed))
        .collect()
}

#[test]
fn threads_measuring_different_kinds_equal_the_sequential_results() {
    let kinds = [NfKind::Nat, NfKind::FlowStats, NfKind::FlowTracker];
    let sequential: Vec<Vec<WorkloadSpec>> = kinds.iter().map(|&k| measure(k)).collect();
    for _ in 0..3 {
        let start = Barrier::new(kinds.len());
        let concurrent: Vec<Vec<WorkloadSpec>> = std::thread::scope(|scope| {
            let handles: Vec<_> = kinds
                .iter()
                .map(|&k| {
                    let start = &start;
                    scope.spawn(move || {
                        start.wait();
                        measure(k)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("measuring thread panicked"))
                .collect()
        });
        assert_eq!(concurrent, sequential);
    }
}
