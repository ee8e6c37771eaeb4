//! Records the dynamic-cluster comparison to `BENCH_fleet.json`: the
//! §7.5.1 strategies re-fought on a *live* fleet — hundreds of NICs over
//! a simulated day with Poisson NF arrivals/departures, per-NF traffic
//! drift, periodic SLA audits, and reactive (diagnosis-guided) migration
//! for the contention-aware policies. The scenario scale (200 NICs, ~600
//! arrivals, 24 simulated hours) is the same with and without `--quick`.

use yala_bench::record::{
    assert_dominates, fleet_day, print_policies, table2_kinds, yala_policy, Record, RecordRun,
};
use yala_bench::Zoo;
use yala_fleet::{run_fleet, BuildOpts, Diagnoser, FleetConfig, FleetPolicy};
use yala_placement::{SlomoPredictor, YalaPredictor};

fn main() {
    let mut run = RecordRun::start("BENCH_fleet.json", 42);
    let quick = run.args.quick;
    let kinds = table2_kinds(quick);

    let mut cfg = fleet_day(FleetConfig::small(42), quick, &kinds);
    cfg.portfolio = vec![(yala_sim::NicSpec::bluefield2(), 200)];
    cfg.mean_interarrival_s = 144.0; // ~600 arrivals over the day
    cfg.mean_lifetime_s = 9_000.0; // ~60 NFs active at steady state
    run.banner("bench_fleet", &cfg, "");

    let zoo = Zoo::train(&kinds, 6, &run.engine);
    let profiled = run.profile(cfg, BuildOpts::default());
    let arrivals = profiled.trace.records.len();

    let mono = run_fleet(
        &profiled,
        FleetPolicy::Monopolization,
        "monopolization",
        &run.engine,
    );
    let greedy = run_fleet(&profiled, FleetPolicy::Greedy, "greedy", &run.engine);
    let mut slomo_predictor = SlomoPredictor::new(zoo.slomo_bank());
    let slomo = run_fleet(
        &profiled,
        FleetPolicy::ContentionAware {
            predictor: &mut slomo_predictor,
            diagnoser: Diagnoser::MemoryOnly,
            online: None,
            qos_aware: true,
        },
        "slomo",
        &run.engine,
    );
    let mut predictor = YalaPredictor::new(zoo.yala_bank());
    let policy = yala_policy(&mut predictor, zoo.yala_bank(), None, true);
    let yala = run.flagship(&profiled, policy, "yala");
    let reports = [&mono, &greedy, &slomo, &yala];
    print_policies(&reports);

    assert_dominates(&yala, &greedy, &mono);

    let record = Record::new("fleet", quick)
        .field("nics", mono.nics)
        .field("arrivals", arrivals)
        .scenario(&mono)
        .kinds(&kinds)
        .profile(&profiled)
        .policies(&reports);
    run.finish(&record);
}
