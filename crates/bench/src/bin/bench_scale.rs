//! Records the fleet scale-out run to `BENCH_scale.json`: a 10k-NIC
//! mixed portfolio over a simulated day with sub-second Poisson
//! arrivals (~576k placements), driven end to end through the indexed
//! placement path and the chunked audit fan-out. `--quick` (CI) keeps
//! the same day on 2k NICs (~115k arrivals).
//!
//! The binary sweeps the engine thread count (powers of two up to
//! 2x the machine's cores, always including 4) over the *same*
//! profiled trace and asserts the scale-out contract from both sides:
//!
//! * **determinism** — every sweep run's `FleetReport` serializes to
//!   byte-identical JSON and its event journal compares equal, whatever
//!   the thread count;
//! * **throughput** — events/sec and reservoir-sampled decision-latency
//!   quantiles come from the wall-clock telemetry layer; the 4-thread
//!   speedup over sequential is gated at 3x when the machine actually
//!   has 4 cores (and only sanity-floored when it does not).
//!
//! The committed record separates the two worlds: a `"deterministic"`
//! block (arrival/rejection/violation counts, journal size — hard
//! `--check` gates) and a `"wall"` block (machine-dependent throughput
//! numbers, recorded for the archaeology but never byte-diffed by CI,
//! like `BENCH_rxp.json`).
//!
//! A second, smaller day — 400 NICs at the same load per NIC — runs
//! under the prediction-driven (`yala`) policy through the same sweep
//! and the same two blocks: a greedy decision is an index lookup, a
//! contention-aware one scores every fitting NIC with the trained bank,
//! so this is the row that shows what a placement decision costs when
//! it is predicted. Its deterministic block also pins how many
//! predictions the day asked for and how many the predictor's memo
//! answered.

use std::num::NonZeroUsize;
use std::time::Instant;
use yala_bench::{json_f64, read_record, BenchArgs, RegressionCheck};
use yala_core::{Engine, ModelBank, TrainConfig};
use yala_fleet::{
    run_fleet_observed, verify_against, Diagnoser, FleetConfig, FleetPolicy, FleetReport,
    FleetTrace, ProfiledTrace, TrafficModel,
};
use yala_placement::{MemoStats, PlacementPredictor, YalaPredictor};
use yala_telemetry::{Journal, Telemetry};

/// The committed record this binary regenerates (and `--check`s against).
const RECORD: &str = "BENCH_scale.json";

/// Canonical traffic templates: a large fleet still runs a catalog of
/// configurations, which is what lets the profile cache collapse the
/// offline bill from ~10^5 tenants to ~10^2 measurements.
const TEMPLATES: u32 = 64;

/// NICs of the prediction-driven day.
const YALA_NICS: usize = 400;

/// One thread-sweep measurement row.
struct SweepRow {
    threads: usize,
    run_s: f64,
    events_per_sec: f64,
    p50_us: f64,
    p95_us: f64,
    p99_us: f64,
}

impl SweepRow {
    fn to_json(&self) -> String {
        format!(
            "{{\"threads\": {}, \"run_s\": {:.2}, \"events_per_sec\": {:.0}, \
             \"decision_p50_us\": {:.1}, \"decision_p95_us\": {:.1}, \
             \"decision_p99_us\": {:.1}}}",
            self.threads, self.run_s, self.events_per_sec, self.p50_us, self.p95_us, self.p99_us
        )
    }
}

/// What a thread sweep of one policy over one profiled day produced: the
/// per-width wall rows, and the sequential run's report, journal and
/// decision count — which every other width was asserted equal to.
struct Sweep {
    rows: Vec<SweepRow>,
    report_json: String,
    journal: Journal,
    decisions: u64,
}

/// The scenario both days share, at `nics` NICs and one arrival every
/// `interarrival` seconds.
fn day_config(nics: usize, interarrival: f64) -> FleetConfig {
    let mut cfg = FleetConfig::mixed(77, nics);
    cfg.duration_s = 24 * 3_600;
    cfg.mean_interarrival_s = interarrival;
    cfg.mean_lifetime_s = 1_800.0;
    cfg.audit_period_s = 1_800;
    cfg.reprofile_threshold = 0.20;
    cfg.max_flows = 200_000;
    cfg.sla_drop_range = (0.05, 0.15);
    // Jitter well inside the quantization bucket: tenants spread around
    // their template but share its profile-cache key.
    cfg.traffic_model = TrafficModel::Templates {
        count: TEMPLATES,
        jitter: 0.02,
    };
    cfg
}

/// Runs `run` once per engine width over the same day and asserts the
/// determinism contract in-binary: report bytes, journal and decision
/// count equal across every thread count.
fn sweep(
    label: &str,
    threads: &[usize],
    journal_cap: usize,
    mut run: impl FnMut(&Engine, &mut Telemetry) -> FleetReport,
) -> Sweep {
    let mut baseline: Option<(String, Journal, u64)> = None;
    let mut rows: Vec<SweepRow> = Vec::new();
    for &threads in threads {
        // A fresh wall clock per run (same seed: the reservoir's slot
        // schedule is identical) and a fresh journal at the same cap, so
        // journals from different thread counts are comparable values.
        let mut run_tel = Telemetry::with_wallclock(77);
        if let Some(sink) = run_tel.sink_mut() {
            sink.journal = Journal::with_capacity(journal_cap);
        }
        let t0 = Instant::now();
        let report = run(&Engine::with_threads(threads), &mut run_tel);
        let run_s = t0.elapsed().as_secs_f64();
        let sink = run_tel.sink().expect("sweep telemetry is live");
        let wall = sink.wall.as_ref().expect("sweep wall clock is live");
        let q = |p: f64| wall.decision_quantile(p).unwrap_or(0.0) / 1_000.0;
        rows.push(SweepRow {
            threads,
            run_s,
            events_per_sec: wall.events_per_sec(),
            p50_us: q(0.50),
            p95_us: q(0.95),
            p99_us: q(0.99),
        });
        println!(
            "  {label} threads {threads:>2}: {run_s:>7.2} s, {:>10.0} events/s, decisions p50 {:.1} / \
             p95 {:.1} / p99 {:.1} us",
            wall.events_per_sec(),
            q(0.50),
            q(0.95),
            q(0.99)
        );

        // Only the sequential baseline is kept alive — later journals
        // drop immediately, so peak memory stays ~2 journals however
        // long the sweep is.
        let json = report.to_json();
        match &baseline {
            None => {
                if sink.journal.dropped() == 0 {
                    let replayed = verify_against(&report, &sink.journal)
                        .unwrap_or_else(|e| panic!("journal replay diverged from the report: {e}"));
                    println!(
                        "  {label} journal: {} events replay to the report ({} arrivals) — OK",
                        sink.journal.len(),
                        replayed.arrivals
                    );
                } else {
                    println!(
                        "  {label} journal: {} events, {} dropped at cap {journal_cap} — replay \
                         self-test skipped (raise --journal-cap for a lossless journal)",
                        sink.journal.len(),
                        sink.journal.dropped()
                    );
                }
                baseline = Some((json, sink.journal.clone(), wall.decisions_seen()));
            }
            Some((base_json, base_journal, base_decisions)) => {
                assert_eq!(
                    &json, base_json,
                    "{label}: FleetReport must serialize byte-identically at {threads} threads"
                );
                assert_eq!(
                    &sink.journal, base_journal,
                    "{label}: event journal must be identical at {threads} threads"
                );
                assert_eq!(
                    wall.decisions_seen(),
                    *base_decisions,
                    "{label}: decision count must be identical at {threads} threads"
                );
            }
        }
    }
    let (report_json, journal, decisions) = baseline.expect("sweep ran at least once");
    Sweep {
        rows,
        report_json,
        journal,
        decisions,
    }
}

fn main() {
    let mut args = BenchArgs::parse();
    let quick = args.quick;
    // A full-scale day journals ~1.3M events — past the journal's 1Mi
    // default bound. Default the cap up so the flagship artifact is
    // lossless; an explicit `--journal-cap` still wins.
    if !quick && args.journal_cap.is_none() {
        args.journal_cap = Some(1 << 22);
    }
    let journal_cap = args.journal_cap.unwrap_or(1 << 20);

    // ~115k quick / ~576k full arrivals.
    let (nics, interarrival) = if quick { (2_000, 0.75) } else { (10_000, 0.15) };
    let cfg = day_config(nics, interarrival);

    let cores = std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1);
    println!(
        "bench_scale: {} NICs, {} h, ~{:.0} arrivals expected, audit every {} s, \
         {} templates, {} core(s){}",
        cfg.nics(),
        cfg.duration_s / 3_600,
        cfg.duration_s as f64 / cfg.mean_interarrival_s,
        cfg.audit_period_s,
        TEMPLATES,
        cores,
        if quick { " [quick]" } else { "" }
    );

    // The flagship telemetry handle observes the profiling build (and,
    // with `--telemetry`, a final flagship run) — the sweep runs below
    // get their own private handles so each measures only itself.
    let mut tel = args.telemetry_handle(77);
    let engine = args.engine();

    let t0 = Instant::now();
    let trace = FleetTrace::generate(cfg);
    let arrivals = trace.records.len();
    let profiled = ProfiledTrace::build_cached_observed(trace, &engine, &mut tel);
    println!(
        "  scenario: {arrivals} arrivals, {} profile snapshots ({} measured, {} cache hits) \
         in {:.1} s",
        profiled.snapshot_count(),
        profiled.stats.misses,
        profiled.stats.hits,
        t0.elapsed().as_secs_f64()
    );

    // Thread sweep: 1, 2, 4, ... up to 2x cores, always including the
    // acceptance point at 4 threads.
    let mut sweep_threads: Vec<usize> = Vec::new();
    let mut n = 1;
    while n <= 2 * cores {
        sweep_threads.push(n);
        n *= 2;
    }
    if !sweep_threads.contains(&4) {
        sweep_threads.push(4);
        sweep_threads.sort_unstable();
    }

    let Sweep {
        rows,
        report_json,
        journal: base_journal,
        decisions,
    } = sweep("greedy", &sweep_threads, journal_cap, |engine, tel| {
        run_fleet_observed(&profiled, FleetPolicy::Greedy, "greedy", engine, tel)
    });

    let eps_at = |t: usize| {
        rows.iter()
            .find(|r| r.threads == t)
            .map(|r| r.events_per_sec)
            .unwrap_or(0.0)
    };
    let speedup_at_4 = eps_at(4) / eps_at(1).max(1e-9);
    let best = rows
        .iter()
        .max_by(|a, b| a.events_per_sec.total_cmp(&b.events_per_sec))
        .expect("nonempty sweep");
    println!(
        "  speedup: {speedup_at_4:.2}x at 4 threads vs sequential (best {:.2}x at {} threads)",
        best.events_per_sec / eps_at(1).max(1e-9),
        best.threads
    );

    // With `--telemetry`, one more observed run on the flag-selected
    // engine fills the flagship journal (which also holds the profiling
    // build's events) and writes the deterministic artifacts, plus the
    // report itself — CI byte-compares all of them across `--threads`.
    if tel.sink().is_some() {
        let flagship =
            run_fleet_observed(&profiled, FleetPolicy::Greedy, "greedy", &engine, &mut tel);
        assert_eq!(
            flagship.to_json(),
            report_json,
            "flagship run must match the sweep baseline byte for byte"
        );
        if let Some(base) = &args.telemetry {
            let path = format!("{base}.report.json");
            match std::fs::write(&path, &report_json) {
                Ok(()) => println!("  wrote {path}"),
                Err(e) => eprintln!("  could not write {path}: {e}"),
            }
        }
        args.write_telemetry(&tel);
    }

    // The prediction-driven day: the same load per NIC on a fleet small
    // enough that scoring every fitting NIC on every arrival fits a CI
    // run, the same sweep, the same contract.
    let yala_cfg = day_config(YALA_NICS, interarrival * nics as f64 / YALA_NICS as f64);
    let t0 = Instant::now();
    let bank = ModelBank::train_yala(
        &yala_cfg.specs(),
        yala_cfg.noise_sigma,
        &yala_cfg.kinds,
        &TrainConfig::default(),
        &engine,
    );
    let yala_profiled = ProfiledTrace::build_cached(FleetTrace::generate(yala_cfg), &engine);
    let yala_arrivals = yala_profiled.trace.records.len();
    println!(
        "  yala scenario: {YALA_NICS} NICs, {yala_arrivals} arrivals, {} trained cells in {:.1} s",
        bank.len(),
        t0.elapsed().as_secs_f64()
    );
    let mut memo: Option<MemoStats> = None;
    let yala = sweep("yala", &sweep_threads, journal_cap, |engine, tel| {
        let mut predictor = YalaPredictor::new(&bank);
        let report = run_fleet_observed(
            &yala_profiled,
            FleetPolicy::ContentionAware {
                predictor: &mut predictor,
                diagnoser: Diagnoser::Yala(&bank),
                online: None,
                qos_aware: true,
            },
            "yala",
            engine,
            tel,
        );
        let stats = predictor.memo_stats().expect("yala keeps a memo");
        assert_eq!(
            *memo.get_or_insert(stats),
            stats,
            "memo accounting must be identical at every thread count"
        );
        report
    });
    let memo = memo.expect("sweep ran at least once");
    println!(
        "  yala: {} predictions, {} answered from the memo ({:.1}%), memo emptied {} time(s)",
        memo.lookups,
        memo.hits,
        100.0 * memo.hits as f64 / memo.lookups.max(1) as f64,
        memo.clears
    );
    let yala_count = |key: &str| json_f64(&yala.report_json, "", key).unwrap_or(-1.0);

    let rows_json: Vec<String> = rows.iter().map(SweepRow::to_json).collect();
    let yala_rows_json: Vec<String> = yala.rows.iter().map(SweepRow::to_json).collect();
    let json = format!(
        "{{\n\"bench\": \"scale\",\n\"quick\": {quick},\n\"nics\": {nics},\n\
         \"arrivals\": {arrivals},\n\"duration_s\": 86400,\n\"audit_period_s\": 1800,\n\
         \"seed\": 77,\n\"templates\": {TEMPLATES},\n\
         \"deterministic\": {{\"decisions\": {decisions}, \"journal_events\": {}, \
         \"journal_dropped\": {}, \"profile_measurements\": {}}},\n\
         \"wall\": {{\"machine_cores\": {cores}, \"speedup_at_4\": {speedup_at_4:.2}, \
         \"sweep\": [\n  {}\n]}},\n\
         \"yala\": {{\"nics\": {YALA_NICS}, \"arrivals\": {yala_arrivals},\n  \
         \"deterministic\": {{\"decisions\": {}, \"journal_events\": {}, \"rejected\": {}, \
         \"migrations\": {}, \"violation_minutes\": {:.3}, \"predictions\": {}, \
         \"memo_hits\": {}}},\n  \"wall\": {{\"sweep\": [\n  {}\n]}}}},\n\
         \"report\": {}\n}}\n",
        base_journal.len(),
        base_journal.dropped(),
        profiled.stats.misses,
        rows_json.join(",\n  "),
        yala.decisions,
        yala.journal.len(),
        yala_count("rejected"),
        yala_count("migrations"),
        yala_count("violation_minutes"),
        memo.lookups,
        memo.hits,
        yala_rows_json.join(",\n  "),
        report_json.trim()
    );
    if let Some(path) = args.record_path(RECORD) {
        match std::fs::write(path, &json) {
            Ok(()) => println!("  wrote {path}"),
            Err(e) => eprintln!("  could not write {path}: {e}"),
        }
    }

    // Regression gate. The deterministic block is exact — a mismatch
    // means the committed record describes a different scenario. The
    // speedup gate is honest about hardware: the 3x acceptance bar only
    // means something on a machine with >= 4 real cores; below that it
    // degrades to a sanity floor (oversubscribed threads must not
    // crater throughput).
    if args.check {
        let committed = read_record(RECORD);
        let mut check = RegressionCheck::new();
        let exact = |check: &mut RegressionCheck, key: &str, got: f64| {
            let want = json_f64(&committed, "\"deterministic\"", key).unwrap_or(-1.0);
            check.exact(key, got, want);
        };
        check.exact(
            "arrivals",
            arrivals as f64,
            json_f64(&committed, "", "arrivals").unwrap_or(-1.0),
        );
        exact(&mut check, "decisions", decisions as f64);
        exact(&mut check, "journal_events", base_journal.len() as f64);
        exact(&mut check, "journal_dropped", base_journal.dropped() as f64);
        check.exact(
            "rejected",
            json_f64(&json, "\"report\"", "rejected").unwrap_or(-1.0),
            json_f64(&committed, "\"report\"", "rejected").unwrap_or(-2.0),
        );
        check.exact(
            "violation_minutes",
            json_f64(&json, "\"report\"", "violation_minutes").unwrap_or(-1.0),
            json_f64(&committed, "\"report\"", "violation_minutes").unwrap_or(-2.0),
        );
        for key in [
            "decisions",
            "journal_events",
            "rejected",
            "migrations",
            "violation_minutes",
            "predictions",
            "memo_hits",
        ] {
            check.exact(
                &format!("yala {key}"),
                json_f64(&json, "\"yala\"", key).unwrap_or(-1.0),
                json_f64(&committed, "\"yala\"", key).unwrap_or(-2.0),
            );
        }
        if cores >= 4 {
            check.at_least("speedup_at_4", speedup_at_4, 3.0);
        } else {
            check.at_least("speedup_at_4 (oversubscribed sanity)", speedup_at_4, 0.4);
        }
        check.finish(RECORD);
    }
}
