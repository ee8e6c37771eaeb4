//! Golden bits of the co-run solver: 300 seeded sets of one to eight
//! co-located workloads — every `NfKind` at two traffic shapes, the
//! rate-limited mem/regex/compression benches (`offered_pps`) and the
//! synthetic pipeline and run-to-completion NFs — on both NIC presets,
//! noise-free and at σ = 0.05, with LLC-overcommitted mixes among them.
//! Every `NfOutcome` field and both utilisations are pinned as raw bits,
//! and so is a solo run on the same simulator afterwards (which pins the
//! noise stream's position after the co-run).
//!
//! The solver may get faster, never different. Regenerate (only when a
//! change *means* to move the bits) with
//! `cargo test --release -p yala --test corun_golden -- --ignored`
//! and inspect the diff; CI regenerates and `git diff --exit-code`s the
//! fixture.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt::Write as _;
use yala::nf::bench::{
    compression_bench, mem_bench, mem_bench_with_cycles, regex_bench, regex_nf, synthetic_nf1,
    synthetic_nf2,
};
use yala::nf::runtime::Profiler;
use yala::nf::NfKind;
use yala::sim::{
    CoRunReport, ExecutionPattern, NfOutcome, NicSpec, ResourceKind, Simulator, WorkloadSpec,
};
use yala::traffic::TrafficProfile;

const FIXTURE: &str = "tests/fixtures/corun_golden.jsonl";

const SETS: u64 = 300;

/// Header-only minimum frames with few flows, and full frames with
/// planted matches over a table-straining flow count.
const SHAPES: [(u32, u32, f64); 2] = [(7, 64, 0.0), (12_800, 1500, 600.0)];

/// Every workload a set draws from.
fn pool() -> Vec<WorkloadSpec> {
    let mut profiler = Profiler::new();
    let mut out = Vec::new();
    for kind in NfKind::ALL {
        for (flows, size, mtbr) in SHAPES {
            out.push(kind.workload_with(&mut profiler, TrafficProfile::new(flows, size, mtbr), 1));
        }
    }
    // Rate-limited benches, two of them with working sets past the 6 MB
    // LLC on their own.
    out.push(mem_bench(1e8, 4e6));
    out.push(mem_bench(2.5e8, 8e6));
    out.push(mem_bench_with_cycles(6e7, 12e6, 400.0));
    out.push(regex_bench(2e5, 1446.0, 600.0));
    out.push(regex_bench(1e12, 1446.0, 1_500.0));
    out.push(compression_bench(1e5, 1446.0));
    out.push(compression_bench(1e12, 1446.0));
    out.push(regex_nf("regex-nf", 1446.0, 300.0));
    for pattern in [
        ExecutionPattern::Pipeline,
        ExecutionPattern::RunToCompletion,
    ] {
        out.push(synthetic_nf1(pattern));
        out.push(synthetic_nf2(pattern));
    }
    out
}

/// Set `s`: its NIC, its noise, and which pool entries it co-runs.
fn draw(s: u64, pool: &[WorkloadSpec]) -> (NicSpec, f64, Vec<usize>) {
    let spec = if s.is_multiple_of(2) {
        NicSpec::bluefield2()
    } else {
        NicSpec::pensando()
    };
    let sigma = if s % 4 < 2 { 0.0 } else { 0.05 };
    let n = 1 + (s / 4 % 8) as usize;
    let feasible: Vec<usize> = (0..pool.len())
        .filter(|&i| {
            pool[i]
                .stages
                .iter()
                .all(|st| st.resource() == ResourceKind::CpuMem || spec.has_accel(st.resource()))
        })
        .collect();
    let mut rng = StdRng::seed_from_u64(s);
    let picks = (0..n)
        .map(|_| feasible[rng.gen_range(0..feasible.len())])
        .collect();
    (spec, sigma, picks)
}

/// The workloads of set `s`, renamed apart, their cores cut so the set
/// fits its NIC.
fn set(s: u64, pool: &[WorkloadSpec]) -> (NicSpec, f64, Vec<WorkloadSpec>) {
    let (spec, sigma, picks) = draw(s, pool);
    let cores = (spec.cores / picks.len() as u32).min(2);
    let workloads = picks
        .iter()
        .enumerate()
        .map(|(i, &at)| {
            let mut w = pool[at].clone();
            w.name = format!("w{i}");
            w.cores = cores;
            w
        })
        .collect();
    (spec, sigma, workloads)
}

fn hex(x: f64) -> String {
    format!("{:016x}", x.to_bits())
}

fn encode_outcome(o: &NfOutcome, out: &mut String) {
    let c = &o.counters;
    write!(
        out,
        "{} t={} c={},{},{},{},{},{},{} bn={} miss={} times=",
        o.name,
        hex(o.throughput_pps),
        hex(c.ipc),
        hex(c.irt),
        hex(c.l2crd),
        hex(c.l2cwr),
        hex(c.memrd),
        hex(c.memwr),
        hex(c.wss),
        o.bottleneck,
        hex(o.miss_ratio)
    )
    .expect("writing to a String");
    for (kind, t) in &o.per_resource_time_s {
        write!(out, "{kind}:{};", hex(*t)).expect("writing to a String");
    }
}

fn encode_report(r: &CoRunReport, out: &mut String) {
    write!(out, "dram={} accel=", hex(r.dram_utilization)).expect("writing to a String");
    for (kind, u) in &r.accel_utilization {
        write!(out, "{kind}:{};", hex(*u)).expect("writing to a String");
    }
    for o in &r.outcomes {
        out.push_str(" | ");
        encode_outcome(o, out);
    }
}

fn line(s: u64, pool: &[WorkloadSpec]) -> String {
    let (spec, sigma, workloads) = set(s, pool);
    let mut sim = if sigma == 0.0 {
        Simulator::new(spec)
    } else {
        Simulator::with_noise(spec, sigma, s)
    };
    let mut out = format!(
        "{{\"set\":{s},\"nic\":\"{}\",\"sigma\":{sigma},\"co_run\":\"",
        sim.spec().name
    );
    encode_report(&sim.co_run(&workloads), &mut out);
    out.push_str("\",\"solo\":\"");
    encode_outcome(&sim.solo(&workloads[0]), &mut out);
    out.push_str("\"}");
    out
}

fn lines() -> Vec<String> {
    let pool = pool();
    (0..SETS).map(|s| line(s, &pool)).collect()
}

#[test]
#[ignore = "writes the fixture; see the module docs"]
fn regenerate_corun_golden() {
    let mut out = String::new();
    for line in lines() {
        out.push_str(&line);
        out.push('\n');
    }
    std::fs::write(FIXTURE, out).expect("fixture written");
}

#[test]
fn co_runs_match_golden() {
    let want: Vec<String> = std::fs::read_to_string(FIXTURE)
        .expect("fixture present (see the module docs to regenerate)")
        .lines()
        .map(str::to_string)
        .collect();
    let got = lines();
    assert_eq!(got.len(), want.len(), "line count");
    for (g, w) in got.iter().zip(&want) {
        assert_eq!(g, w, "a co-run moved");
    }
}

#[test]
fn golden_sets_cover_every_shape() {
    let pool = pool();
    let mut drawn = vec![false; pool.len()];
    for s in 0..SETS {
        for at in draw(s, &pool).2 {
            drawn[at] = true;
        }
    }
    assert!(
        drawn.iter().all(|&d| d),
        "every pool entry co-runs somewhere"
    );
    let sets: Vec<_> = (0..SETS).map(|s| set(s, &pool)).collect();
    let count = |pred: &dyn Fn(&NicSpec, &[WorkloadSpec]) -> bool| {
        sets.iter().filter(|(spec, _, ws)| pred(spec, ws)).count()
    };
    let offered = count(&|_, ws| ws.iter().any(|w| w.offered_pps.is_some()));
    let overcommitted =
        count(&|spec, ws| ws.iter().map(WorkloadSpec::wss_bytes).sum::<f64>() > spec.llc_bytes);
    let regex = count(&|_, ws| ws.iter().any(|w| w.uses(ResourceKind::Regex)));
    let compression = count(&|_, ws| ws.iter().any(|w| w.uses(ResourceKind::Compression)));
    assert!(offered >= 50, "{offered} sets hold a rate-limited bench");
    assert!(
        overcommitted >= 50,
        "{overcommitted} sets overcommit the LLC"
    );
    assert!(regex >= 50, "{regex} sets use the regex engine");
    assert!(compression >= 20, "{compression} sets compress");
    for n in 1..=8 {
        assert!(sets.iter().any(|(_, _, ws)| ws.len() == n), "no set of {n}");
    }
}
