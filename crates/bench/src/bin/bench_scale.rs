//! Records the fleet scale-out run to `BENCH_scale.json`: a 10k-NIC
//! mixed portfolio over a simulated day with sub-second Poisson
//! arrivals (~576k placements), driven end to end through the indexed
//! placement path and the chunked audit fan-out. `--quick` (CI) keeps
//! the same day on 2k NICs (~115k arrivals).
//!
//! The binary sweeps the engine thread count (1, 2, 4) over the *same*
//! profiled trace and asserts the scale-out determinism contract
//! in-binary: every sweep run's `FleetReport` serializes to byte-identical
//! JSON and its event journal compares equal, whatever the thread count.
//! Each run prints its events/sec and decision-latency quantiles from the
//! wall-clock telemetry layer, but the committed record holds only what
//! `--check` gates exactly — arrival/rejection/violation counts and the
//! journal size; throughput is measured by `benchmark/`'s `fleet-yala-day`
//! workload, not recorded here.
//!
//! A second, smaller day — 400 NICs at the same load per NIC — runs
//! under the prediction-driven (`yala`) policy through the same sweep: a
//! greedy decision is an index lookup, a contention-aware one scores
//! every fitting NIC with the trained bank. Its block also pins how many
//! predictions the day asked for, how many the predictor's memo
//! answered, and how many forest walks the rest cost.

use yala_bench::record::{fleet_day, verify_journal, yala_policy, Record, RecordRun};
use yala_bench::write_artifact;
use yala_core::{Engine, ModelBank, TrainConfig};
use yala_fleet::{
    run_fleet_observed, BuildOpts, FleetConfig, FleetPolicy, FleetReport, FleetTrace,
    ProfiledTrace, TrafficModel,
};
use yala_placement::{MemoStats, PlacementPredictor, YalaPredictor};
use yala_telemetry::{Journal, Telemetry};

/// Canonical traffic templates: a large fleet still runs a catalog of
/// configurations, which is what lets the profile cache collapse the
/// offline bill from ~10^5 tenants to ~10^2 measurements.
const TEMPLATES: u32 = 64;

/// NICs of the prediction-driven day.
const YALA_NICS: usize = 400;

/// Engine widths of the determinism sweep.
const SWEEP_THREADS: [usize; 3] = [1, 2, 4];

/// What a thread sweep of one policy over one profiled day produced: the
/// sequential run's report, journal and decision count — which every
/// other width was asserted equal to.
struct Sweep {
    report: FleetReport,
    journal: Journal,
    decisions: u64,
}

/// The scenario both days share — the fleet family's quick-cadence day
/// — at `nics` NICs and one arrival every `interarrival` seconds.
fn day_config(nics: usize, interarrival: f64) -> FleetConfig {
    let mixed = FleetConfig::mixed(77, nics);
    let kinds = mixed.kinds.clone();
    let mut cfg = fleet_day(mixed, true, &kinds);
    cfg.mean_interarrival_s = interarrival;
    cfg.mean_lifetime_s = 1_800.0;
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
    journal_cap: usize,
    mut run: impl FnMut(&Engine, &mut Telemetry) -> FleetReport,
) -> Sweep {
    let mut baseline: Option<Sweep> = None;
    for threads in SWEEP_THREADS {
        // A fresh wall clock per run (same seed: the reservoir's slot
        // schedule is identical) and a fresh journal at the same cap, so
        // journals from different thread counts are comparable values.
        let mut run_tel = Telemetry::with_wallclock(77);
        if let Some(sink) = run_tel.sink_mut() {
            sink.journal = Journal::with_capacity(journal_cap);
        }
        let report = run(&Engine::with_threads(threads), &mut run_tel);
        let sink = run_tel.sink().expect("sweep telemetry is live");
        let wall = sink.wall.as_ref().expect("sweep wall clock is live");
        println!("  {label} threads {threads:>2}: {}", wall.summary());

        // Only the sequential baseline is kept alive — later journals
        // drop immediately, so peak memory stays ~2 journals however
        // long the sweep is.
        let Some(base) = &baseline else {
            verify_journal(label, &report, &sink.journal);
            baseline = Some(Sweep {
                report,
                journal: sink.journal.clone(),
                decisions: wall.decisions_seen(),
            });
            continue;
        };
        assert_eq!(
            report.to_json(),
            base.report.to_json(),
            "{label}: FleetReport must serialize byte-identically at {threads} threads"
        );
        assert_eq!(
            sink.journal, base.journal,
            "{label}: event journal must be identical at {threads} threads"
        );
        assert_eq!(
            wall.decisions_seen(),
            base.decisions,
            "{label}: decision count must be identical at {threads} threads"
        );
    }
    baseline.expect("the sweep is nonempty")
}

fn main() {
    let mut run = RecordRun::start("BENCH_scale.json", 77);
    let quick = run.args.quick;
    // A full-scale day journals ~1.3M events — past the journal's 1Mi
    // default bound. Default the cap up so the flagship artifact is
    // lossless; an explicit `--journal-cap` still wins.
    if !quick && run.args.journal_cap.is_none() {
        run.args.journal_cap = Some(1 << 22);
        run.tel = run.args.telemetry_handle(77);
    }
    let journal_cap = run.args.journal_cap.unwrap_or(1 << 20);

    // ~115k quick / ~576k full arrivals.
    let (nics, interarrival) = if quick { (2_000, 0.75) } else { (10_000, 0.15) };
    let cfg = day_config(nics, interarrival);
    let load = format!(
        ", ~{:.0} arrivals expected, {TEMPLATES} templates",
        cfg.duration_s as f64 / cfg.mean_interarrival_s
    );
    run.banner("bench_scale", &cfg, &load);

    // The flagship telemetry handle observes the profiling build (and,
    // with `--telemetry`, a final flagship run) — the sweep runs below
    // get their own private handles so each measures only itself.
    let profiled = run.profile(cfg, BuildOpts::quantized(None));
    let arrivals = profiled.trace.records.len();

    let greedy = sweep("greedy", journal_cap, |engine, tel| {
        run_fleet_observed(&profiled, FleetPolicy::Greedy, "greedy", engine, tel)
    });
    let report_json = greedy.report.to_json();

    // With `--telemetry`, one more observed run on the flag-selected
    // engine fills the flagship journal (which also holds the profiling
    // build's events) and writes the deterministic artifacts, plus the
    // report itself — CI byte-compares all of them across `--threads`.
    if let Some(base) = run.args.telemetry.clone() {
        let flagship = run.flagship(&profiled, FleetPolicy::Greedy, "greedy");
        assert_eq!(
            flagship.to_json(),
            report_json,
            "flagship run must match the sweep baseline byte for byte"
        );
        write_artifact(&format!("{base}.report.json"), &report_json);
    }

    // The prediction-driven day: the same load per NIC on a fleet small
    // enough that scoring every fitting NIC on every arrival fits a CI
    // run, the same sweep, the same contract.
    let yala_cfg = day_config(YALA_NICS, interarrival * nics as f64 / YALA_NICS as f64);
    let bank = ModelBank::train_yala(
        &yala_cfg.specs(),
        yala_cfg.noise_sigma,
        &yala_cfg.kinds,
        &TrainConfig::default(),
        &run.engine,
    );
    let yala_profiled = ProfiledTrace::build_cached(FleetTrace::generate(yala_cfg), &run.engine);
    let yala_arrivals = yala_profiled.trace.records.len();
    println!(
        "  yala scenario: {YALA_NICS} NICs, {yala_arrivals} arrivals, {} trained cells",
        bank.len(),
    );
    let mut memo: Option<MemoStats> = None;
    let yala = sweep("yala", journal_cap, |engine, tel| {
        let mut predictor = YalaPredictor::new(&bank);
        let policy = yala_policy(&mut predictor, &bank, None, true);
        let report = run_fleet_observed(&yala_profiled, policy, "yala", engine, tel);
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
        "  yala: {} predictions, {} answered from the memo ({:.1}%), {} forest walks, memo emptied \
         {} time(s)",
        memo.lookups,
        memo.hits,
        100.0 * memo.hits as f64 / memo.lookups.max(1) as f64,
        memo.forest_walks,
        memo.clears
    );

    // Both blocks are compared exactly by `--check` — a mismatch means the
    // committed record describes a different scenario.
    let count = |key: &str, n: u64| format!("\"{key}\": {n}");
    let greedy_block = [
        count("decisions", greedy.decisions),
        count("journal_events", greedy.journal.len() as u64),
        count("journal_dropped", greedy.journal.dropped()),
        count("profile_measurements", profiled.stats.misses),
    ];
    let yala_block = [
        count("decisions", yala.decisions),
        count("journal_events", yala.journal.len() as u64),
        count("rejected", yala.report.rejected.into()),
        count("migrations", yala.report.migrations.into()),
        format!(
            "\"violation_minutes\": {:.3}",
            yala.report.violation_minutes
        ),
        count("predictions", memo.lookups),
        count("memo_hits", memo.hits),
        count("forest_walks", memo.forest_walks),
    ];
    let render = |block: &[String]| format!("{{{}}}", block.join(", "));
    let record = Record::new("scale", quick)
        .field("nics", nics)
        .field("arrivals", arrivals)
        .scenario(&greedy.report)
        .field("templates", TEMPLATES)
        .field("deterministic", render(&greedy_block))
        .field(
            "yala",
            format!(
                "{{\"nics\": {YALA_NICS}, \"arrivals\": {yala_arrivals},\n  \"deterministic\": {}}}",
                render(&yala_block)
            ),
        )
        .field("report", report_json.trim());
    run.finish(&record);
}
