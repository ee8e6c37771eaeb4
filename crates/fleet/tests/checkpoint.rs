//! Checkpoint round-trip property: killing a fleet run at an *arbitrary*
//! audit epoch, snapshotting, restoring, and finishing must be
//! bit-identical — report, telemetry journal, metrics registry — to the
//! run that never stopped. The epochs are drawn at random per (seed,
//! policy) case, so repeated CI runs sweep the checkpoint point across
//! the horizon rather than blessing one hand-picked epoch. The drawn
//! epoch is printed on failure; the draw itself is seeded, so any
//! failure reproduces.
//!
//! A restore is a replay, so the other half of the contract is that a
//! snapshot restored into a run it was not taken from — profiled
//! differently, configured differently, or edited — is refused, never
//! resumed into a silently different report.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use yala_core::{Engine, ModelBank, YalaModel};
use yala_fleet::{
    restore_fleet, snapshot_fleet, BuildOpts, Diagnoser, FaultPlan, FleetConfig, FleetPolicy,
    FleetReport, FleetSim, FleetTrace, OnlineRefine, Processed, ProfiledTrace, SnapshotError,
    TrafficModel,
};
use yala_nf::NfKind;
use yala_placement::YalaPredictor;
use yala_telemetry::{MetricsRegistry, Telemetry};

fn scenario(seed: u64) -> FleetConfig {
    let mut cfg = FleetConfig::small(seed);
    cfg.portfolio = vec![(yala_sim::NicSpec::bluefield2(), 8)];
    cfg.duration_s = 2_400;
    cfg.mean_interarrival_s = 90.0;
    cfg.mean_lifetime_s = 1_400.0;
    cfg.audit_period_s = 600;
    cfg.kinds = vec![NfKind::FlowStats, NfKind::Nat];
    cfg.traffic_model = TrafficModel::Templates {
        count: 3,
        jitter: 0.0,
    };
    cfg.guaranteed_fraction = 0.7;
    cfg.faults = FaultPlan {
        mtbf_s: 3_600.0,
        mean_repair_s: 600.0,
        drains: 1,
        drain_notice_s: 300,
        drain_offline_s: 600,
    };
    cfg
}

/// Audit epochs in [`scenario`].
const AUDITS: u32 = 4;

/// Everything a finished run leaves behind.
#[derive(Debug, PartialEq)]
struct Outcome {
    report: FleetReport,
    report_json: String,
    journal: String,
    metrics: MetricsRegistry,
}

/// Runs a fresh simulation to its `epoch`-th audit and returns the
/// snapshot — the kill: every live object is dropped on return.
fn checkpoint<'a>(
    profiled: &'a ProfiledTrace,
    policy: FleetPolicy<'a>,
    label: &str,
    engine: &Engine,
    epoch: u32,
) -> String {
    let mut tel = Telemetry::enabled();
    let mut sim = FleetSim::new(profiled, policy, label);
    while let Some(ev) = sim.step(engine, &mut tel) {
        if ev == Processed::Audit(epoch) {
            break;
        }
    }
    snapshot_fleet(&sim, Some(&tel.sink().expect("enabled").journal))
}

/// Runs to completion — from the start, or from `snapshot` bytes.
fn finish<'a>(
    profiled: &'a ProfiledTrace,
    policy: FleetPolicy<'a>,
    label: &str,
    engine: &Engine,
    snapshot: Option<&str>,
) -> Result<Outcome, SnapshotError> {
    let mut tel = Telemetry::enabled();
    let mut sim = match snapshot {
        Some(text) => restore_fleet(profiled, policy, label, text, engine, &mut tel)?,
        None => FleetSim::new(profiled, policy, label),
    };
    while sim.step(engine, &mut tel).is_some() {}
    let report = sim.into_report();
    let sink = tel.sink().expect("enabled");
    Ok(Outcome {
        report_json: report.to_json(),
        report,
        journal: sink.journal.to_jsonl(),
        metrics: sink.metrics.clone(),
    })
}

/// The online-refining policy over a *fresh* predictor (absorbs mutate
/// it, so every run and every restore gets its own).
fn online<'a>(
    bank: &'a ModelBank<YalaModel>,
    predictor: &'a mut YalaPredictor,
    min_observations: usize,
) -> FleetPolicy<'a> {
    FleetPolicy::ContentionAware {
        predictor,
        diagnoser: Diagnoser::Yala(bank),
        online: Some(OnlineRefine { min_observations }),
        qos_aware: true,
    }
}

fn refused(result: Result<Outcome, SnapshotError>) -> bool {
    matches!(
        result,
        Err(SnapshotError::WrongRun(_) | SnapshotError::Diverged(_))
    )
}

#[test]
fn prediction_free_policies_roundtrip_at_random_epochs() {
    let engine = Engine::sequential();
    let mut rng = StdRng::seed_from_u64(0xC8EC_4901);
    for seed in [61, 62] {
        let profiled = ProfiledTrace::build_cached(FleetTrace::generate(scenario(seed)), &engine);
        for label in ["greedy", "mono"] {
            let epoch = rng.gen_range(1..AUDITS);
            let make = || match label {
                "mono" => FleetPolicy::Monopolization,
                _ => FleetPolicy::Greedy,
            };
            let whole = finish(&profiled, make(), label, &engine, None);
            let text = checkpoint(&profiled, make(), label, &engine, epoch);
            let resumed = finish(&profiled, make(), label, &engine, Some(&text));
            assert_eq!(
                resumed, whole,
                "{label}: diverged after kill/restore at audit {epoch}"
            );
        }
    }
}

#[test]
fn online_refining_policy_roundtrips_at_random_epochs() {
    let engine = Engine::sequential();
    let cfg = scenario(63);
    let bank = cfg.train_bank(&engine);
    let profiled = ProfiledTrace::build_cached(FleetTrace::generate(cfg), &engine);
    let mut rng = StdRng::seed_from_u64(0xC8EC_4902);
    // A low absorb threshold makes sure refinement actually fires before
    // the checkpoint: the restore has to replay it into a fresh predictor.
    let run = |epoch: Option<u32>| {
        let (mut p1, mut p2) = (YalaPredictor::new(&bank), YalaPredictor::new(&bank));
        let text =
            epoch.map(|e| checkpoint(&profiled, online(&bank, &mut p1, 4), "yala", &engine, e));
        let policy = online(&bank, &mut p2, 4);
        finish(&profiled, policy, "yala", &engine, text.as_deref()).expect("snapshot restores")
    };
    let whole = run(None);
    assert!(
        whole.journal.contains("\"ev\":\"absorb\""),
        "scenario too tame: online refinement never fired, the test probes nothing"
    );
    assert!(whole.metrics.counter("predict.calls") > 0);
    for _ in 0..2 {
        let epoch = rng.gen_range(1..AUDITS);
        assert_eq!(
            run(Some(epoch)),
            whole,
            "yala-online: diverged after kill/restore at audit {epoch}"
        );
    }
}

#[test]
fn a_snapshot_restored_into_a_different_run_is_refused() {
    let engine = Engine::sequential();
    let cfg = scenario(64);
    let bank = cfg.train_bank(&engine);
    let cached = ProfiledTrace::build_cached(FleetTrace::generate(cfg.clone()), &engine);
    let exact = ProfiledTrace::build(FleetTrace::generate(cfg), &engine, BuildOpts::default());
    // Early — the two runs may not have taken a different decision yet,
    // so only the header's identity fields tell them apart — and late.
    for epoch in [1, AUDITS - 1] {
        let mut p = YalaPredictor::new(&bank);
        let text = checkpoint(&cached, online(&bank, &mut p, 8), "yala", &engine, epoch);
        // Profiled without the cache the snapshot was taken under.
        let mut p = YalaPredictor::new(&bank);
        let policy = online(&bank, &mut p, 8);
        assert!(refused(finish(
            &exact,
            policy,
            "yala",
            &engine,
            Some(&text)
        )));
        // A different absorb threshold.
        let mut p = YalaPredictor::new(&bank);
        let policy = online(&bank, &mut p, 48);
        assert!(refused(finish(
            &cached,
            policy,
            "yala",
            &engine,
            Some(&text)
        )));
        // The run it was taken from still restores.
        let mut p = YalaPredictor::new(&bank);
        let policy = online(&bank, &mut p, 8);
        assert!(finish(&cached, policy, "yala", &engine, Some(&text)).is_ok());
    }
}

#[test]
fn malformed_snapshots_return_their_errors() {
    let engine = Engine::sequential();
    let profiled = ProfiledTrace::build_cached(FleetTrace::generate(scenario(65)), &engine);
    let text = checkpoint(&profiled, FleetPolicy::Greedy, "greedy", &engine, 2);
    assert_eq!(text.lines().count(), 1, "a fleet snapshot is one line");
    let restore = |text: &str| {
        finish(
            &profiled,
            FleetPolicy::Greedy,
            "greedy",
            &engine,
            Some(text),
        )
        .map(|_| ())
    };
    assert_eq!(restore(&text), Ok(()));
    assert!(matches!(restore(""), Err(SnapshotError::BadHeader(_))));
    let v1 = "{\"yala_snapshot\":1,\"label\":\"greedy\",\"seed\":\"65\",\"next_event\":3}\n";
    assert_eq!(restore(v1), Err(SnapshotError::UnsupportedVersion(1)));
    let field = |key: &str| {
        let start = text.find(key).expect("header field") + key.len();
        let end = start + text[start..].find([',', '}']).expect("field end");
        (start, end)
    };
    let (start, end) = field("\"next_event\":");
    let beyond = format!("{}999999{}", &text[..start], &text[end..]);
    assert!(matches!(restore(&beyond), Err(SnapshotError::BadHeader(_))));
    // One digest bit flipped: the replay arrives, but not where the
    // snapshot says the original was.
    let (start, _) = field("\"digest\":\"");
    let flipped = if &text[start..start + 1] == "0" {
        "1"
    } else {
        "0"
    };
    let garbled = format!("{}{flipped}{}", &text[..start], &text[start + 1..]);
    assert!(matches!(restore(&garbled), Err(SnapshotError::Diverged(_))));
    // An earlier resume point under the later digest.
    let (start, end) = field("\"next_event\":");
    let earlier = format!("{}3{}", &text[..start], &text[end..]);
    assert!(matches!(restore(&earlier), Err(SnapshotError::Diverged(_))));
}
