//! Records the fused-ruleset scan speedup to `BENCH_rxp.json` so the perf
//! trajectory of the regex hot path is tracked across PRs.
//!
//! Measures per-rule (12 DFA passes) vs fused (one pass) scans of the
//! default L7 ruleset over traffic-generator payloads at several MTBR
//! levels, plus the one-time fused compile cost. `bench_rxp [--quick]
//! [--check] [--out PATH]`: `--quick` (CI, implied by `--check`) runs
//! fewer iterations; numbers are wall-clock medians of repeated batches,
//! so quick mode stays representative — and the record stays out of
//! `repro`, gated on structure and relative speedup, never on bytes.

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;
use yala_bench::{write_artifact, RegressionCheck};
use yala_rxp::{l7_default_ruleset, Ruleset, ScanReport};
use yala_traffic::PayloadSynthesizer;

/// Payload size for the headline numbers (MTU-ish, as in the paper).
const PAYLOAD_LEN: usize = 1500;

/// The committed record this binary regenerates (and `--check`s against).
const RECORD: &str = "BENCH_rxp.json";

/// Median of per-batch average nanoseconds per scan.
fn median_ns(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// Times `f` over `batches` batches of `iters` calls; returns median ns/call.
fn time_ns(batches: usize, iters: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..batches)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..iters {
                f();
            }
            t0.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    median_ns(samples)
}

/// The flags: `(quick, check, out)`. Anything else exits 2 naming it, so
/// a typo in a CI step fails loudly instead of running the default.
fn parse_args() -> (bool, bool, Option<String>) {
    let (mut quick, mut check, mut out) = (false, false, None);
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--quick" => quick = true,
            "--check" => (quick, check) = (true, true),
            "--out" if args.len() > 0 => out = args.next(),
            _ => {
                let usage = "bench_rxp [--quick] [--check] [--out PATH]";
                eprintln!("bench_rxp: unknown flag {flag} or missing value; usage: {usage}");
                std::process::exit(2);
            }
        }
    }
    (quick, check, out)
}

struct Row {
    mtbr: f64,
    per_rule_ns: f64,
    fused_ns: f64,
}

fn main() {
    let (quick, check, out) = parse_args();
    let (batches, iters, payloads) = if quick { (5, 50, 8) } else { (9, 400, 32) };

    let rules = l7_default_ruleset();
    let synth = PayloadSynthesizer::new();
    println!(
        "bench_rxp: default ruleset, {} rules ({} fused, {} fused states), payload {PAYLOAD_LEN} B{}",
        rules.len(),
        rules.fused_rule_count(),
        rules.fused_state_count(),
        if quick { " [quick]" } else { "" },
    );

    // One-time fused compile cost (cold build, not the cached default).
    let patterns: Vec<(String, String)> = rules
        .rules()
        .iter()
        .map(|r| (r.name.clone(), r.regex.pattern().to_string()))
        .collect();
    let t0 = Instant::now();
    let rebuilt = Ruleset::compile(
        patterns
            .iter()
            .map(|(n, p)| (n.as_str(), p.as_str()))
            .collect::<Vec<_>>(),
    )
    .expect("default patterns compile");
    let compile_ms = t0.elapsed().as_secs_f64() * 1e3;
    assert_eq!(rebuilt.fused_rule_count(), rules.fused_rule_count());

    let mut rows: Vec<Row> = Vec::new();
    for &mtbr in &[0.0f64, 600.0, 2000.0] {
        let mut rng = StdRng::seed_from_u64(0xBE9C + mtbr as u64);
        let corpus: Vec<Vec<u8>> = (0..payloads)
            .map(|_| synth.generate(&mut rng, PAYLOAD_LEN, mtbr))
            .collect();
        let mut i = 0usize;
        let per_rule_ns = time_ns(batches, iters, || {
            let r = rules.scan_per_rule(&corpus[i % payloads]);
            assert!(r.bytes_scanned == PAYLOAD_LEN);
            i += 1;
        });
        let mut report = ScanReport::with_rules(rules.len());
        let mut j = 0usize;
        let fused_ns = time_ns(batches, iters, || {
            rules.scan_into(&corpus[j % payloads], &mut report);
            j += 1;
        });
        println!(
            "  mtbr {mtbr:>6.0}: per-rule {per_rule_ns:>9.0} ns/scan | fused {fused_ns:>7.0} ns/scan | {:.2}x",
            per_rule_ns / fused_ns
        );
        rows.push(Row {
            mtbr,
            per_rule_ns,
            fused_ns,
        });
    }

    let geomean_speedup = (rows
        .iter()
        .map(|r| (r.per_rule_ns / r.fused_ns).ln())
        .sum::<f64>()
        / rows.len() as f64)
        .exp();
    println!(
        "  fused compile: {compile_ms:.1} ms (once per process) | geomean speedup {geomean_speedup:.2}x"
    );

    // Hand-rolled JSON: the offline workspace has no serde_json.
    let row_json: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "    {{\"mtbr\": {}, \"per_rule_ns\": {:.1}, \"fused_ns\": {:.1}, \"speedup\": {:.3}}}",
                r.mtbr,
                r.per_rule_ns,
                r.fused_ns,
                r.per_rule_ns / r.fused_ns
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"ruleset_scan\",\n  \"payload_len\": {PAYLOAD_LEN},\n  \"rules\": {},\n  \"fused_rules\": {},\n  \"fused_states\": {},\n  \"fused_compile_ms\": {compile_ms:.2},\n  \"quick\": {quick},\n  \"geomean_speedup\": {geomean_speedup:.3},\n  \"rows\": [\n{}\n  ]\n}}\n",
        rules.len(),
        rules.fused_rule_count(),
        rules.fused_state_count(),
        row_json.join(",\n")
    );
    // `--check` never overwrites the committed record; `--out` still writes.
    if let Some(path) = out.as_deref().or((!check).then_some(RECORD)) {
        write_artifact(path, &json);
    }

    // Regression gate. Unlike the fleet records this one is wall-clock
    // timing, so the committed absolute ns are machine-specific; what
    // must not regress is the *structure* (every rule still fuses) and
    // the *relative* win (fused vs per-rule speedup). A broken fused path
    // (silent per-rule fallback) collapses the speedup to ~1x and fails.
    if check {
        let mut check = RegressionCheck::against(RECORD);
        check.exact("rules", rules.len() as f64, "", "rules");
        let fused = rules.fused_rule_count() as f64;
        check.at_least("fused_rules", fused, "", "fused_rules", 1.0);
        let speedup = geomean_speedup;
        check.at_least("geomean_speedup", speedup, "", "geomean_speedup", 0.5);
        check.finish();
    }
}
