//! Records the heterogeneous-fleet comparison to `BENCH_hetero.json`: a
//! mixed 50/50 BlueField-2 + Pensando portfolio over a simulated day with
//! Poisson arrivals, traffic drift, periodic SLA audits, and reactive
//! migration — the ROADMAP's "heterogeneous fleets" scenario. The NF mix
//! spans the capability classes: memory-only NFs run anywhere, regex NFs
//! only on BlueField-2, and the Pensando-SSDK Firewall only on Pensando,
//! so every placement decision is also a capability decision.
//!
//! Policies: monopolization, greedy (capability-aware but
//! contention-blind), and per-model Yala (a `ModelBank` keyed by
//! `(NicModelId, NfKind)` behind the contention-aware policy, with
//! Yala-diagnosed migration that may cross hardware models).

use yala_bench::record::{
    assert_dominates, fleet_day, print_policies, yala_policy, Record, RecordRun,
};
use yala_bench::Zoo;
use yala_fleet::{run_fleet, BuildOpts, FleetConfig, FleetPolicy};
use yala_nf::NfKind;
use yala_placement::YalaPredictor;

fn main() {
    let mut run = RecordRun::start("BENCH_hetero.json", 73);
    let quick = run.args.quick;
    let kinds: Vec<NfKind> = if quick {
        vec![
            NfKind::FlowStats,
            NfKind::Nat,
            NfKind::Nids,
            NfKind::Firewall,
        ]
    } else {
        vec![
            NfKind::FlowStats,
            NfKind::Acl,
            NfKind::Nat,
            NfKind::IpRouter,
            NfKind::Nids,
            NfKind::FlowMonitor,
            NfKind::PacketFilter,
            NfKind::Firewall,
        ]
    };

    let mut cfg = fleet_day(FleetConfig::mixed(73, 120), quick, &kinds);
    cfg.mean_interarrival_s = 240.0; // ~360 arrivals over the day
    cfg.mean_lifetime_s = 9_000.0;
    let specs = cfg.specs();
    let models: Vec<String> = cfg
        .portfolio
        .iter()
        .map(|(s, n)| format!("{n} x {}", s.name))
        .collect();
    run.banner("bench_hetero", &cfg, &format!(" ({})", models.join(" + ")));

    let zoo = Zoo::train_portfolio(&specs, &kinds, 6, &run.engine);
    // With `--telemetry`, migrations in this journal may cross hardware
    // models.
    let profiled = run.profile(cfg, BuildOpts::default());
    let arrivals = profiled.trace.records.len();
    println!("  {} trained cells", zoo.yala_bank().len());

    // Structural capability check: no snapshot carries a baseline on
    // hardware that cannot serve its workload, so placement has nothing
    // infeasible to price. (The audits then enforce the same at ground
    // truth: every occupied NIC is co-run on its own hardware model, and
    // the solver rejects capability-infeasible workloads outright.)
    for tl in &profiled.timelines {
        for (_, snap) in &tl.snapshots {
            for (model, _) in &snap.solos {
                let spec = specs
                    .iter()
                    .find(|s| s.model() == *model)
                    .expect("portfolio model");
                assert!(spec.supports(&snap.workload), "infeasible baseline");
            }
        }
    }

    let mono = run_fleet(
        &profiled,
        FleetPolicy::Monopolization,
        "monopolization",
        &run.engine,
    );
    let greedy = run_fleet(&profiled, FleetPolicy::Greedy, "greedy", &run.engine);
    let mut predictor = YalaPredictor::new(zoo.yala_bank());
    let policy = yala_policy(&mut predictor, zoo.yala_bank(), None, true);
    let yala = run.flagship(&profiled, policy, "yala");
    let reports = [&mono, &greedy, &yala];
    print_policies(&reports);

    // On top of the shared bar: zero arrivals lost to capability
    // mismatches (the mixed fleet always has feasible capacity somewhere).
    assert_dominates(&yala, &greedy, &mono);
    assert_eq!(
        yala.rejected, 0,
        "no arrival should find the fleet exhausted"
    );

    let portfolio_json: Vec<String> = profiled
        .trace
        .config
        .portfolio
        .iter()
        .map(|(s, n)| format!("{{\"model\": \"{}\", \"nics\": {n}}}", s.name))
        .collect();
    let record = Record::new("hetero", quick)
        .field("portfolio", format!("[{}]", portfolio_json.join(", ")))
        .field("nics", mono.nics)
        .field("arrivals", arrivals)
        .scenario(&mono)
        .kinds(&kinds)
        .field("trained_cells", zoo.yala_bank().len())
        .profile(&profiled)
        .policies(&reports);
    run.finish(&record);
}
