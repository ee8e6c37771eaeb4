//! End-to-end fleet-orchestrator tests: determinism of the event loop
//! (bit-identical reports across runs and engine thread counts), the
//! policy ordering the paper's story predicts — monopolization never
//! violates but wastes the fleet, greedy packs tightest but bleeds
//! SLA-violation minutes, and the contention-aware predictor holds SLAs
//! with far fewer NICs than monopolization — and backward parity: an
//! all-BlueField-2 portfolio must reproduce the pre-heterogeneity
//! homogeneous `FleetReport`s bit for bit (golden fixture captured from
//! the last homogeneous-only commit).

use std::sync::OnceLock;
use yala::core::{Engine, ModelBank, TrainConfig, YalaModel};
use yala::fleet::{
    run_fleet, BuildOpts, Diagnoser, FleetConfig, FleetPolicy, FleetReport, FleetTrace,
    ProfiledTrace,
};
use yala::nf::NfKind;
use yala::placement::YalaPredictor;
use yala::sim::NicSpec;

const KINDS: [NfKind; 3] = [NfKind::FlowStats, NfKind::Acl, NfKind::Nat];
const NOISE: f64 = 0.005;

fn config(seed: u64) -> FleetConfig {
    let mut cfg = FleetConfig::small(seed);
    cfg.portfolio = vec![(NicSpec::bluefield2(), 20)];
    cfg.kinds = KINDS.to_vec();
    // Memory-heavy traffic and tight SLAs: packing blindly must hurt.
    cfg.max_flows = 200_000;
    cfg.sla_drop_range = (0.05, 0.15);
    cfg.noise_sigma = NOISE;
    cfg
}

struct Fixture {
    profiled: ProfiledTrace,
    bank: ModelBank<YalaModel>,
}

fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let engine = Engine::auto();
        let bank = ModelBank::train_yala(
            &[NicSpec::bluefield2()],
            NOISE,
            &KINDS,
            &TrainConfig::default(),
            &engine,
        );
        let profiled = ProfiledTrace::build(
            FleetTrace::generate(config(31)),
            &engine,
            BuildOpts::default(),
        );
        Fixture { profiled, bank }
    })
}

fn run_yala(profiled: &ProfiledTrace, engine: &Engine) -> FleetReport {
    let fx = fixture();
    let mut predictor = YalaPredictor::new(&fx.bank);
    run_fleet(
        profiled,
        FleetPolicy::ContentionAware {
            predictor: &mut predictor,
            diagnoser: Diagnoser::Yala(&fx.bank),
            online: None,
            qos_aware: true,
        },
        "yala",
        engine,
    )
}

#[test]
fn reports_are_bit_identical_across_runs_and_thread_counts() {
    let fx = fixture();
    let seq = Engine::sequential();
    let par = Engine::with_threads(4);
    // Same profiled trace, same policy, different audit engines.
    let a = run_yala(&fx.profiled, &seq);
    let b = run_yala(&fx.profiled, &par);
    assert_eq!(a, b, "audit fan-out must not affect the report");
    // A from-scratch rebuild (trace + profiling) with a parallel engine
    // reproduces the same report bit for bit.
    let rebuilt =
        ProfiledTrace::build(FleetTrace::generate(config(31)), &par, BuildOpts::default());
    let c = run_yala(&rebuilt, &seq);
    assert_eq!(a, c, "profiling fan-out must not affect the report");
    assert_eq!(a.to_json(), c.to_json());
}

#[test]
fn all_bluefield2_portfolio_reproduces_the_pre_refactor_golden_reports() {
    // The golden fixture was captured on the last commit before the
    // heterogeneous-portfolio refactor: the homogeneous 20-NIC
    // BlueField-2 scenario at seed 31 (sequential engine, three
    // policies). The per-model type spine — NicModelId, ModelBank,
    // per-model Placed solos, portfolio timelines, model-keyed audits —
    // must change *nothing* when the portfolio holds a single model.
    let fx = fixture();
    let engine = Engine::sequential();
    let mono = run_fleet(
        &fx.profiled,
        FleetPolicy::Monopolization,
        "monopolization",
        &engine,
    );
    let greedy = run_fleet(&fx.profiled, FleetPolicy::Greedy, "greedy", &engine);
    let yala = run_yala(&fx.profiled, &engine);
    let got = format!(
        "[\n{},\n{},\n{}\n]\n",
        mono.to_json(),
        greedy.to_json(),
        yala.to_json()
    );
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        // Regeneration path for additive report-format changes:
        // `UPDATE_GOLDEN=1 cargo test -p yala --test fleet`. Policy
        // numerics must still be inspected by hand in the diff.
        std::fs::write("tests/fixtures/fleet_bf2_golden.json", &got).unwrap();
        return;
    }
    let golden = include_str!("fixtures/fleet_bf2_golden.json");
    assert_eq!(
        got, golden,
        "all-BlueField-2 portfolio must be bit-identical to the \
         pre-refactor homogeneous FleetReports"
    );
}

#[test]
fn policy_ordering_matches_the_paper_story() {
    let fx = fixture();
    let engine = Engine::auto();
    let mono = run_fleet(&fx.profiled, FleetPolicy::Monopolization, "mono", &engine);
    let greedy = run_fleet(&fx.profiled, FleetPolicy::Greedy, "greedy", &engine);
    let yala = run_yala(&fx.profiled, &engine);

    assert_eq!(mono.violation_minutes, 0.0, "monopolization never violates");
    assert!(
        greedy.violation_minutes > 0.0,
        "blind packing of memory-heavy NFs must violate"
    );
    assert!(
        yala.violation_minutes < greedy.violation_minutes,
        "yala ({}) must beat greedy ({}) on violation minutes",
        yala.violation_minutes,
        greedy.violation_minutes
    );
    assert!(
        yala.nic_minutes < mono.nic_minutes,
        "yala ({}) must use fewer NIC-minutes than monopolization ({})",
        yala.nic_minutes,
        mono.nic_minutes
    );
    assert_eq!(yala.rejected, 0, "the fleet is large enough");
    assert_eq!(mono.migrations, 0);
    assert_eq!(greedy.migrations, 0);
}

#[test]
fn drift_triggers_reprofiles_and_migrations() {
    let fx = fixture();
    // Drift produced at least one re-profile beyond the arrival snapshots.
    assert!(
        fx.profiled.snapshot_count() > fx.profiled.trace.records.len(),
        "drift must trigger re-profiling"
    );
    let yala = run_yala(&fx.profiled, &Engine::auto());
    assert!(
        yala.migrations > 0,
        "drift must trigger at least one reactive migration"
    );
    assert_eq!(
        yala.profile_snapshots as usize,
        fx.profiled.snapshot_count()
    );
}
