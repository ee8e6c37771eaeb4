//! Golden bits of the measurement kernel (flow synthesis → table warm →
//! 600-packet replay), captured on the last commit before the kernel was
//! rebuilt (packed flow dedupe, index + dense-store flow tables, recycled
//! buffers). Every `WorkloadSpec` float is pinned as its `to_bits` hex,
//! and the generator's RNG position after flow synthesis is pinned by a
//! hash of the next 64 packets it produces.
//!
//! Regenerate (only when a change *means* to move the bits) with
//! `cargo test --release -p yala --test workload_golden -- --ignored`
//! and inspect the diff; CI's `serve-smoke` job regenerates and
//! `git diff --exit-code`s the fixture.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::fmt::Write as _;
use yala::nf::runtime::Profiler;
use yala::nf::NfKind;
use yala::sim::{ExecutionPattern, StageDemand, WorkloadSpec};
use yala::traffic::{PacketBatch, PacketGenerator, TrafficProfile};

const FIXTURE: &str = "tests/fixtures/workload_golden.jsonl";

/// One, a handful, mid-size, and the sizes straddling the table
/// doublings (12 800 → 32 k slots at 0.39 load; 65 537 crosses the 16-bit
/// boundary `Nat`'s port allocator wraps at; 500 000 is the sweep
/// ceiling).
const FLOWS: [u32; 8] = [1, 7, 1_000, 12_800, 55_536, 65_537, 128_000, 500_000];
/// `(packet size, MTBR)`: header-only minimum frames, and the paper's
/// default full frames with planted matches.
const SHAPES: [(u32, f64); 2] = [(64, 0.0), (1500, 600.0)];
const SEEDS: [u64; 3] = [1, 4_319, 0x9E37_79B9_7F4A_7C15];

#[derive(Clone, Copy)]
struct Point {
    kind: NfKind,
    profile: TrafficProfile,
    seed: u64,
}

/// Every point, in fixture order.
fn points() -> Vec<Point> {
    let mut out = Vec::new();
    for kind in NfKind::ALL {
        for flows in FLOWS {
            for (size, mtbr) in SHAPES {
                for seed in SEEDS {
                    out.push(Point {
                        kind,
                        profile: TrafficProfile::new(flows, size, mtbr),
                        seed,
                    });
                }
            }
        }
    }
    out
}

fn hex(x: f64) -> String {
    format!("{:016x}", x.to_bits())
}

/// The spec with every float as raw bits: `PartialEq` on `f64` would
/// call `0.0 == -0.0` equal.
fn encode_spec(w: &WorkloadSpec) -> String {
    let pattern = match w.pattern {
        ExecutionPattern::Pipeline => "pipeline",
        ExecutionPattern::RunToCompletion => "rtc",
    };
    let offered = w.offered_pps.map_or("-".to_string(), hex);
    let mut s = format!(
        "{} cores={} {pattern} bytes={} offered={offered}",
        w.name,
        w.cores,
        hex(w.packet_bytes)
    );
    for stage in &w.stages {
        match stage {
            StageDemand::CpuMem {
                cycles_per_pkt,
                cache_refs_per_pkt,
                write_frac,
                wss_bytes,
            } => write!(
                s,
                " cpu:{},{},{},{}",
                hex(*cycles_per_pkt),
                hex(*cache_refs_per_pkt),
                hex(*write_frac),
                hex(*wss_bytes)
            ),
            StageDemand::Accelerator {
                kind,
                queues,
                reqs_per_pkt,
                bytes_per_req,
                matches_per_req,
            } => write!(
                s,
                " {kind}:{queues},{},{},{}",
                hex(*reqs_per_pkt),
                hex(*bytes_per_req),
                hex(*matches_per_req)
            ),
        }
        .expect("writing to a String");
    }
    s
}

fn point_prefix(profile: TrafficProfile, seed: u64) -> String {
    format!(
        "\"flows\":{},\"psize\":{},\"mtbr\":\"{}\",\"seed\":\"{seed}\"",
        profile.flow_count,
        profile.packet_size,
        hex(profile.mtbr)
    )
}

fn workload_line(p: &Point, w: &WorkloadSpec) -> String {
    format!(
        "{{\"kind\":\"{}\",{},\"spec\":\"{}\"}}",
        p.kind,
        point_prefix(p.profile, p.seed),
        encode_spec(w)
    )
}

/// FNV-1a over the five-tuples and payloads of the 64 packets that follow
/// flow synthesis: moves iff the synthesised flow set or the RNG position
/// after it moves.
fn packets_line(profile: TrafficProfile, seed: u64) -> String {
    let mut gen = PacketGenerator::new(profile, seed);
    let mut batch = PacketBatch::new();
    gen.fill_batch(&mut batch, 64);
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for pkt in batch.iter() {
        let ft = pkt.five_tuple;
        eat(&ft.src_ip.to_le_bytes());
        eat(&ft.dst_ip.to_le_bytes());
        eat(&ft.src_port.to_le_bytes());
        eat(&ft.dst_port.to_le_bytes());
        eat(&[ft.proto]);
        eat(&(pkt.payload.len() as u32).to_le_bytes());
        eat(pkt.payload);
    }
    format!(
        "{{\"packets\":64,{},\"hash\":\"{h:016x}\"}}",
        point_prefix(profile, seed)
    )
}

/// The generator lines: one per `(flows, shape, seed)`, kind-independent.
fn all_packets_lines() -> Vec<String> {
    let mut out = Vec::new();
    for flows in FLOWS {
        for (size, mtbr) in SHAPES {
            for seed in SEEDS {
                out.push(packets_line(TrafficProfile::new(flows, size, mtbr), seed));
            }
        }
    }
    out
}

fn golden() -> Vec<String> {
    std::fs::read_to_string(FIXTURE)
        .expect("fixture present (see the module docs to regenerate)")
        .lines()
        .map(str::to_string)
        .collect()
}

fn assert_lines_match(got: &[String], want: &[String], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: line count");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(g, w, "{what}: line {i} moved");
    }
}

#[test]
#[ignore = "writes the fixture; see the module docs"]
fn regenerate_workload_golden() {
    let mut out = String::new();
    for line in all_packets_lines() {
        out.push_str(&line);
        out.push('\n');
    }
    for p in points() {
        let w = p
            .kind
            .workload_with(&mut Profiler::new(), p.profile, p.seed);
        out.push_str(&workload_line(&p, &w));
        out.push('\n');
    }
    std::fs::write(FIXTURE, out).expect("fixture written");
}

#[test]
fn generator_stream_after_flow_synthesis_matches_golden() {
    let packets = all_packets_lines();
    assert_lines_match(&packets, &golden()[..packets.len()], "packets");
}

#[test]
fn fresh_profiler_per_point_matches_golden() {
    let got: Vec<String> = points()
        .iter()
        .map(|p| {
            let w = p
                .kind
                .workload_with(&mut Profiler::new(), p.profile, p.seed);
            workload_line(p, &w)
        })
        .collect();
    let skip = FLOWS.len() * SHAPES.len() * SEEDS.len();
    assert_lines_match(&got, &golden()[skip..], "fresh profiler");
}

/// `indices` reordered to alternate the largest remaining flow count with
/// the smallest (shuffled with `shuffle_seed` within a size first).
fn big_small_big(points: &[Point], mut indices: Vec<usize>, shuffle_seed: u64) -> Vec<usize> {
    indices.shuffle(&mut StdRng::seed_from_u64(shuffle_seed));
    indices.sort_by_key(|&i| points[i].profile.flow_count);
    let mut order = Vec::with_capacity(indices.len());
    let (mut lo, mut hi) = (0, indices.len());
    while lo < hi {
        hi -= 1;
        order.push(indices[hi]);
        if lo < hi {
            order.push(indices[lo]);
            lo += 1;
        }
    }
    order
}

/// Runs `order` through one profiler and checks every line against the
/// fixture.
fn replay_through_one_profiler(points: &[Point], order: &[usize], what: &str) {
    let mut profiler = Profiler::new();
    let mut got = vec![String::new(); points.len()];
    for &i in order {
        let p = &points[i];
        let w = p.kind.workload_with(&mut profiler, p.profile, p.seed);
        got[i] = workload_line(p, &w);
    }
    let skip = FLOWS.len() * SHAPES.len() * SEEDS.len();
    assert_lines_match(&got, &golden()[skip..], what);
}

#[test]
fn long_lived_profiler_in_big_small_big_order_matches_golden() {
    // One profiler visits every point, alternating the largest remaining
    // flow count with the smallest (kinds and seeds shuffled within a
    // size), so every reused buffer is handed from a big measurement to
    // a small one and back.
    let points = points();
    let order = big_small_big(&points, (0..points.len()).collect(), 14);
    replay_through_one_profiler(&points, &order, "long-lived profiler");
}

#[test]
fn long_lived_profiler_seed_by_seed_matches_golden() {
    // One profiler visits every point of one seed before moving to the
    // next, each seed's points (every kind, size and shape) in
    // big-small-big order: consecutive measurements share a seed, as a
    // profiling cell's do, across kinds, across table doublings, and
    // from large flow counts to small ones and back.
    let points = points();
    let mut order = Vec::with_capacity(points.len());
    for (s, seed) in SEEDS.into_iter().enumerate() {
        let of_seed = (0..points.len())
            .filter(|&i| points[i].seed == seed)
            .collect();
        order.extend(big_small_big(&points, of_seed, 31 + s as u64));
    }
    assert_eq!(order.len(), points.len());
    replay_through_one_profiler(&points, &order, "seed-by-seed profiler");
}
