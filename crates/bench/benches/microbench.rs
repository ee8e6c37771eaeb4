//! Criterion microbenchmarks of the performance-critical substrates:
//! one profile measurement, the co-run solver, the
//! accelerator water-filling, regex scanning, and GBR training/prediction.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use yala_ml::{Dataset, GbrParams, GradientBoostingRegressor};
use yala_nf::bench::{mem_bench, regex_bench, synthetic_nf1};
use yala_nf::runtime::Profiler;
use yala_nf::NfKind;
use yala_rxp::l7_default_ruleset;
use yala_sim::{accel, ExecutionPattern, NicSpec, Simulator};
use yala_traffic::TrafficProfile;

/// One profile measurement (`NfKind::workload_with`: synthesise the flow
/// set, warm the NF's tables with all of it, replay 600 packets) through
/// a long-lived [`Profiler`], as every place, query, drift and training
/// point pays it: a one-table NF, the two-table NF and a table-free NF,
/// each at a small and a large flow count. The seed changes every
/// iteration so no iteration re-synthesises the flow set it just had.
fn bench_measurement(c: &mut Criterion) {
    let mut group = c.benchmark_group("profiling");
    group.sample_size(20);
    let mut profiler = Profiler::new();
    let mut seed = 0u64;
    for (kind, label) in [
        (NfKind::FlowStats, "flowstats"),
        (NfKind::Nat, "nat"),
        (NfKind::Acl, "acl"),
    ] {
        for (flows, size) in [(8_000, "8k"), (128_000, "128k")] {
            let profile = TrafficProfile::new(flows, 1024, 0.0);
            group.bench_function(&format!("measure_{label}_{size}"), |b| {
                b.iter(|| {
                    seed += 1;
                    black_box(kind.workload_with(&mut profiler, profile, seed))
                })
            });
        }
    }
    group.finish();
}

fn bench_solver(c: &mut Criterion) {
    let mut group = c.benchmark_group("solver");
    group.sample_size(20);
    group.bench_function("co_run_4way", |b| {
        let mut sim = Simulator::new(NicSpec::bluefield2());
        let workloads = vec![
            synthetic_nf1(ExecutionPattern::RunToCompletion),
            mem_bench(1.2e8, 8e6),
            regex_bench(1e6, 1446.0, 800.0),
        ];
        b.iter(|| black_box(sim.co_run(&workloads)));
    });
    group.finish();
}

fn bench_waterfill(c: &mut Criterion) {
    c.bench_function("accel_waterfill_8users", |b| {
        let inputs: Vec<accel::AccelInput> = (0..8)
            .map(|i| accel::AccelInput {
                queues: 1 + (i % 3) as u32,
                service_s: 1e-7 * (1 + i) as f64,
                offered_rps: 1e5 * (1 + i) as f64,
            })
            .collect();
        b.iter(|| black_box(accel::solve(&inputs)));
    });
}

/// Per-rule baseline (12 DFA passes per payload) vs the fused
/// multi-pattern DFA (one pass) on a representative 1500 B payload with
/// planted matches. The fused path is what every regex NF now runs.
fn bench_regex_scan(c: &mut Criterion) {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use yala_rxp::ScanReport;
    use yala_traffic::PayloadSynthesizer;

    let rules = l7_default_ruleset();
    let synth = PayloadSynthesizer::new();
    let mut rng = StdRng::seed_from_u64(0x5CA9);
    let payload = synth.generate(&mut rng, 1500, 600.0);
    let mut group = c.benchmark_group("ruleset_scan");
    group.bench_function("per_rule_1500B", |b| {
        b.iter(|| black_box(rules.scan_per_rule(&payload)));
    });
    group.bench_function("fused_1500B", |b| {
        let mut report = ScanReport::with_rules(rules.len());
        b.iter(|| {
            rules.scan_into(&payload, &mut report);
            black_box(report.total_matches)
        });
    });
    group.finish();
}

fn bench_gbr(c: &mut Criterion) {
    let mut ds = Dataset::new(10);
    let mut x = 0.37f64;
    for i in 0..200 {
        let mut row = [0.0; 10];
        for slot in row.iter_mut() {
            x = (x * 997.0).fract();
            *slot = x;
        }
        ds.push(&row, (i as f64).sin() + row[0]);
    }
    let mut group = c.benchmark_group("gbr");
    group.sample_size(10);
    group.bench_function("fit_200x10", |b| {
        b.iter(|| {
            black_box(GradientBoostingRegressor::fit(
                &ds,
                &GbrParams::default(),
                1,
            ))
        });
    });
    let model = GradientBoostingRegressor::fit(&ds, &GbrParams::default(), 1);
    group.bench_function("predict", |b| {
        b.iter(|| black_box(model.predict(&[0.5; 10])));
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_measurement,
    bench_solver,
    bench_waterfill,
    bench_regex_scan,
    bench_gbr
);
criterion_main!(benches);
