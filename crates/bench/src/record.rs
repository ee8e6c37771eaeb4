//! The fleet-family records: seven `repro` experiments, each
//! regenerating one committed `BENCH_<name>.json`. An experiment profiles
//! its scenario, runs its policies, proves the flagship journal replays
//! to its report, asserts its acceptance bar, and returns the record in
//! [`Output::record`] for `repro` to write or `--check`.
//!
//! Every scenario is deterministic — same seed ⇒ bit-identical
//! `FleetReport`s — and records hold counts and reports only (wall time
//! is measured in one place, `benchmark/`), so each committed record
//! regenerates byte-identically on any machine at any `--threads`. The
//! default scale (what the committed records hold, `"quick": true`)
//! trains fewer NF kinds and audits on a coarser cadence than `--full`.

use crate::experiments::Output;
use crate::{json_f64, BenchArgs, Zoo, NOISE_SIGMA};
use std::fmt::Display;
use yala_core::adaptive::TrafficRanges;
use yala_core::profile_cache::ProfileCache;
use yala_core::{Engine, ModelBank, TrainConfig, YalaModel};
use yala_fleet::{
    run_fleet, run_fleet_observed, verify_against, BuildOpts, Diagnoser, FaultKind, FaultPlan,
    FleetConfig, FleetPolicy, FleetReport, FleetTrace, OnlineRefine, ProfiledTrace, TrafficModel,
    MS_PER_S,
};
use yala_nf::NfKind;
use yala_placement::{MemoStats, PlacementPredictor, SlomoPredictor, YalaPredictor};
use yala_serve::ServeLoop;
use yala_sim::NicSpec;
use yala_telemetry::journal::DEFAULT_CAPACITY;
use yala_telemetry::{Journal, Telemetry};
use yala_traffic::TrafficProfile;

/// A `BENCH_*.json` envelope: top-level keys in insertion order, one per
/// line, each value already rendered as JSON.
#[derive(Debug, Clone)]
pub struct Record {
    fields: Vec<(&'static str, String)>,
}

impl Record {
    /// Opens the record of `bench` with its `quick` flag.
    pub fn new(bench: &str, quick: bool) -> Self {
        Self { fields: Vec::new() }
            .field("bench", format!("\"{bench}\""))
            .field("quick", quick)
    }

    /// Appends `"key": value`.
    pub fn field(mut self, key: &'static str, value: impl Display) -> Self {
        self.fields.push((key, value.to_string()));
        self
    }

    /// Appends the scenario constants every report of a run shares.
    pub fn scenario(self, r: &FleetReport) -> Self {
        self.field("duration_s", r.duration_s)
            .field("audit_period_s", r.audit_period_s)
            .field("seed", r.seed)
    }

    /// Appends the trained NF kinds.
    pub fn kinds(self, kinds: &[NfKind]) -> Self {
        let names: Vec<String> = kinds.iter().map(|k| format!("\"{k}\"")).collect();
        self.field("kinds", format!("[{}]", names.join(", ")))
    }

    /// Appends the profiling bill of `profiled`.
    pub fn profile(self, profiled: &ProfiledTrace) -> Self {
        self.field("profile_snapshots", profiled.snapshot_count())
            .field("profile_cache", profiled.stats.to_json())
    }

    /// Appends the per-policy reports, one object per line group.
    pub fn policies(self, reports: &[&FleetReport]) -> Self {
        let json: Vec<String> = reports.iter().map(|r| r.to_json()).collect();
        self.field("policies", format!("[\n{}\n]", json.join(",\n")))
    }

    /// The canonical serialization.
    pub fn to_json(&self) -> String {
        let lines: Vec<String> = self
            .fields
            .iter()
            .map(|(k, v)| format!("\"{k}\": {v}"))
            .collect();
        format!("{{\n{}\n}}\n", lines.join(",\n"))
    }
}

impl Output {
    /// A record experiment's output. Under `--telemetry` it holds a live
    /// sink with a journal of `--journal-cap`, else `default_cap`, events.
    fn observed(ctx: &BenchArgs, default_cap: usize) -> Self {
        let mut out = Self::default();
        if ctx.telemetry.is_some() {
            out.telemetry = Telemetry::enabled();
            let cap = ctx.journal_cap.unwrap_or(default_cap);
            out.telemetry.sink_mut().expect("live sink").journal = Journal::with_capacity(cap);
        }
        out
    }

    /// Finishes a record experiment's output with its record.
    fn with_record(mut self, record: Record) -> Self {
        self.record = Some(record.to_json());
        self
    }

    /// Generates `cfg`'s trace and profiles it under `opts`, journaling
    /// every measurement when telemetry is on.
    fn profile(&mut self, ctx: &BenchArgs, cfg: FleetConfig, opts: BuildOpts<'_>) -> ProfiledTrace {
        let trace = FleetTrace::generate(cfg);
        let opts = opts.observed(&mut self.telemetry);
        let profiled = ProfiledTrace::build(trace, &ctx.engine(), opts);
        println!(
            "  scenario: {} arrivals, {} profile snapshots ({} measured, {} cache hits)",
            profiled.trace.records.len(),
            profiled.snapshot_count(),
            profiled.stats.misses,
            profiled.stats.hits
        );
        profiled
    }

    /// Runs the flagship policy observed and proves the journal replays
    /// to the exact headline counters of the report it narrates.
    fn flagship<'a>(
        &mut self,
        ctx: &BenchArgs,
        profiled: &'a ProfiledTrace,
        policy: FleetPolicy<'a>,
        label: &str,
    ) -> FleetReport {
        let report =
            run_fleet_observed(profiled, policy, label, &ctx.engine(), &mut self.telemetry);
        if let Some(sink) = self.telemetry.sink() {
            verify_journal(label, &report, &sink.journal);
        }
        report
    }
}

/// Prints the run's opening line: the scenario `cfg` describes, plus
/// whatever `extra` the experiment adds.
fn banner(name: &str, cfg: &FleetConfig, extra: &str) {
    println!(
        "{name}: {} NICs, {} h, audit every {} s, {} NF kinds{extra}",
        cfg.nics(),
        cfg.duration_s / 3_600,
        cfg.audit_period_s,
        cfg.kinds.len()
    );
}

/// The observability self-test: `journal` must replay to the exact
/// headline counters of the `report` it narrates. A journal that hit its
/// cap cannot, and says so instead.
fn verify_journal(label: &str, report: &FleetReport, journal: &Journal) {
    let (events, dropped) = (journal.len(), journal.dropped());
    if dropped > 0 {
        println!(
            "  {label} journal: {events} events, {dropped} dropped at the cap — replay \
             self-test skipped (raise --journal-cap for a lossless journal)"
        );
        return;
    }
    verify_against(report, journal)
        .unwrap_or_else(|e| panic!("journal replay diverged from the {label} report: {e}"));
    println!("  {label} journal: {events} events replay to the report — OK");
}

/// The NF kinds a fleet record trains: four at the default scale, the
/// paper's nine under `--full`.
fn table2_kinds(full: bool) -> Vec<NfKind> {
    if full {
        NfKind::TABLE2_NINE.to_vec()
    } else {
        vec![NfKind::FlowStats, NfKind::Acl, NfKind::Nat, NfKind::Nids]
    }
}

/// The simulated day the fleet-family records share: 24 hours, audits
/// every 10 minutes and re-profiling past 10% drift under `--full` (30
/// minutes and 20% at the default scale), up to 200k flows, SLAs allowing
/// a 5–15% drop.
fn fleet_day(mut cfg: FleetConfig, full: bool, kinds: &[NfKind]) -> FleetConfig {
    cfg.duration_s = 24 * 3_600;
    cfg.audit_period_s = if full { 600 } else { 1_800 };
    cfg.reprofile_threshold = if full { 0.10 } else { 0.20 };
    cfg.kinds = kinds.to_vec();
    cfg.max_flows = 200_000;
    cfg.sla_drop_range = (0.05, 0.15);
    cfg
}

/// The contention-aware policy behind every record's Yala rows:
/// `predictor` judges placements, `bank` diagnoses predicted violators.
fn yala_policy<'a>(
    predictor: &'a mut dyn PlacementPredictor,
    bank: &'a ModelBank<YalaModel>,
    online: Option<OnlineRefine>,
    qos_aware: bool,
) -> FleetPolicy<'a> {
    FleetPolicy::ContentionAware {
        predictor,
        diagnoser: Diagnoser::Yala(bank),
        online,
        qos_aware,
    }
}

/// Prints the per-policy comparison table.
fn print_policies(reports: &[&FleetReport]) {
    println!(
        "  {:<16} {:>10} {:>10} {:>10} {:>9} {:>6} {:>9} {:>9}",
        "policy", "mean NICs", "peak", "NIC-min", "viol-min", "migr", "rejected", "waste-vs-LB"
    );
    for r in reports {
        println!(
            "  {:<16} {:>10.1} {:>10} {:>10.0} {:>9.0} {:>6} {:>9} {:>8.0}%",
            r.policy,
            r.mean_nics(),
            r.peak_nics,
            r.nic_minutes,
            r.violation_minutes,
            r.migrations,
            r.rejected,
            r.wastage_vs_oracle() * 100.0
        );
    }
}

/// The acceptance bar of the placement comparisons: the contention-aware
/// predictor strictly dominates greedy on SLA-violation minutes while
/// using fewer NICs than monopolization. The scenarios are deterministic,
/// so this either always holds or never does.
fn assert_dominates(yala: &FleetReport, greedy: &FleetReport, mono: &FleetReport) {
    assert!(
        greedy.violation_minutes > 0.0,
        "blind packing should violate somewhere in a full day"
    );
    assert!(
        yala.violation_minutes < greedy.violation_minutes,
        "yala must strictly beat greedy on violation minutes"
    );
    assert!(
        yala.nic_minutes < mono.nic_minutes,
        "yala must use fewer NIC-minutes than monopolization"
    );
    println!(
        "  dominance: yala {:.0} viol-min vs greedy {:.0}; {:.0} NIC-min vs mono {:.0} — OK",
        yala.violation_minutes, greedy.violation_minutes, yala.nic_minutes, mono.nic_minutes
    );
}

/// `BENCH_fleet.json`: the dynamic-cluster comparison — the §7.5.1
/// strategies re-fought on a *live* fleet: hundreds of NICs over a
/// simulated day with Poisson NF arrivals/departures, per-NF traffic
/// drift, periodic SLA audits, and reactive (diagnosis-guided) migration
/// for the contention-aware policies. The scenario scale (200 NICs, ~600
/// arrivals, 24 simulated hours) is the same at both scales.
pub fn fleet(ctx: &BenchArgs) -> Output {
    let mut out = Output::observed(ctx, DEFAULT_CAPACITY);
    let kinds = table2_kinds(ctx.full);

    let mut cfg = fleet_day(FleetConfig::small(42), ctx.full, &kinds);
    cfg.portfolio = vec![(NicSpec::bluefield2(), 200)];
    cfg.mean_interarrival_s = 144.0; // ~600 arrivals over the day
    cfg.mean_lifetime_s = 9_000.0; // ~60 NFs active at steady state
    banner("fleet", &cfg, "");

    let zoo = Zoo::train(&kinds, 6, &ctx.engine());
    let profiled = out.profile(ctx, cfg, BuildOpts::default());
    let arrivals = profiled.trace.records.len();

    let mono = run_fleet(
        &profiled,
        FleetPolicy::Monopolization,
        "monopolization",
        &ctx.engine(),
    );
    let greedy = run_fleet(&profiled, FleetPolicy::Greedy, "greedy", &ctx.engine());
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
        &ctx.engine(),
    );
    let mut predictor = YalaPredictor::new(zoo.yala_bank());
    let policy = yala_policy(&mut predictor, zoo.yala_bank(), None, true);
    let yala = out.flagship(ctx, &profiled, policy, "yala");
    let reports = [&mono, &greedy, &slomo, &yala];
    print_policies(&reports);

    assert_dominates(&yala, &greedy, &mono);

    let record = Record::new("fleet", !ctx.full)
        .field("nics", mono.nics)
        .field("arrivals", arrivals)
        .scenario(&mono)
        .kinds(&kinds)
        .profile(&profiled)
        .policies(&reports);
    out.with_record(record)
}

/// `BENCH_hetero.json`: the heterogeneous-fleet comparison — a mixed
/// 50/50 BlueField-2 + Pensando portfolio over a simulated day with
/// Poisson arrivals, traffic drift, periodic SLA audits, and reactive
/// migration. The NF mix spans the capability classes: memory-only NFs
/// run anywhere, regex NFs only on BlueField-2, and the Pensando-SSDK
/// Firewall only on Pensando, so every placement decision is also a
/// capability decision.
///
/// Policies: monopolization, greedy (capability-aware but
/// contention-blind), and per-model Yala (a `ModelBank` keyed by
/// `(NicModelId, NfKind)` behind the contention-aware policy, with
/// Yala-diagnosed migration that may cross hardware models).
pub fn hetero(ctx: &BenchArgs) -> Output {
    let mut out = Output::observed(ctx, DEFAULT_CAPACITY);
    use NfKind::*;
    let kinds = if ctx.full {
        vec![
            FlowStats,
            Acl,
            Nat,
            IpRouter,
            Nids,
            FlowMonitor,
            PacketFilter,
            Firewall,
        ]
    } else {
        vec![FlowStats, Nat, Nids, Firewall]
    };

    let mut cfg = fleet_day(FleetConfig::mixed(73, 120), ctx.full, &kinds);
    cfg.mean_interarrival_s = 240.0; // ~360 arrivals over the day
    cfg.mean_lifetime_s = 9_000.0;
    let specs = cfg.specs();
    let models: Vec<String> = cfg
        .portfolio
        .iter()
        .map(|(s, n)| format!("{n} x {}", s.name))
        .collect();
    banner("hetero", &cfg, &format!(" ({})", models.join(" + ")));

    let zoo = Zoo::train_portfolio(&specs, &kinds, 6, &ctx.engine());
    // With `--telemetry`, migrations in this journal may cross hardware
    // models.
    let profiled = out.profile(ctx, cfg, BuildOpts::default());
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
        &ctx.engine(),
    );
    let greedy = run_fleet(&profiled, FleetPolicy::Greedy, "greedy", &ctx.engine());
    let mut predictor = YalaPredictor::new(zoo.yala_bank());
    let policy = yala_policy(&mut predictor, zoo.yala_bank(), None, true);
    let yala = out.flagship(ctx, &profiled, policy, "yala");
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
    let record = Record::new("hetero", !ctx.full)
        .field("portfolio", format!("[{}]", portfolio_json.join(", ")))
        .field("nics", mono.nics)
        .field("arrivals", arrivals)
        .scenario(&mono)
        .kinds(&kinds)
        .field("trained_cells", zoo.yala_bank().len())
        .profile(&profiled)
        .policies(&reports);
    out.with_record(record)
}

/// Largest flow count seen while the `online` record's offline bank was
/// trained; the live fleet drifts to [`DRIFTED_FLOW_CEILING`].
const STALE_FLOW_CEILING: u32 = 48_000;

/// Largest flow count the `online` record's drift-heavy scenario reaches.
const DRIFTED_FLOW_CEILING: u32 = 300_000;

/// `BENCH_online.json`: the online-refinement comparison — *frozen*
/// (train-once) Yala vs *online* Yala, same offline bank, same
/// drift-heavy scenario — where the online policy feeds every SLA audit's
/// ground-truth co-run outcomes back into its predictor
/// ([`yala_placement::PlacementPredictor::absorb`]) and the frozen policy
/// keeps the paper's train-once setup.
///
/// The decay is engineered the way it happens in production: the bank is
/// trained while flow counts live below `STALE_FLOW_CEILING`, then the
/// fleet's traffic drifts far beyond it. The stale memory curve
/// extrapolates flat past its training range, predicts ≈solo throughput
/// for badly contended high-flow co-locations, and the frozen policy
/// packs (and fails to migrate) its way into SLA violations. The online
/// policy absorbs the audited outcomes at the drifted operating points
/// and re-fits the affected cells, so its predictions — and therefore its
/// placements and migrations — recover mid-episode. The refinement
/// stream is as deterministic as the reports, so the record stays
/// byte-reproducible across runs and engine thread counts.
pub fn online(ctx: &BenchArgs) -> Output {
    let mut out = Output::observed(ctx, DEFAULT_CAPACITY);
    let kinds = table2_kinds(ctx.full);

    let mut cfg = fleet_day(FleetConfig::small(97), ctx.full, &kinds);
    cfg.portfolio = vec![(NicSpec::bluefield2(), 200)];
    cfg.mean_interarrival_s = 144.0; // ~600 arrivals over the day
    cfg.mean_lifetime_s = 12_000.0; // long lives: drift has room to bite
    cfg.max_flows = DRIFTED_FLOW_CEILING;
    let online_knobs = OnlineRefine {
        min_observations: 96,
    };
    let drift = format!(
        ", trained at ≤{}k flows / drifting to ≤{}k",
        STALE_FLOW_CEILING / 1_000,
        DRIFTED_FLOW_CEILING / 1_000
    );
    banner("online", &cfg, &drift);

    // The stale offline bank: adaptive profiling confined to the
    // pre-drift flow regime.
    let train_cfg = TrainConfig {
        ranges: TrafficRanges {
            flows: (1_000, STALE_FLOW_CEILING),
            ..TrafficRanges::default()
        },
        seed: 6,
        ..TrainConfig::default()
    };
    let bluefield2 = [NicSpec::bluefield2()];
    let bank = ModelBank::train_yala(&bluefield2, NOISE_SIGMA, &kinds, &train_cfg, &ctx.engine());
    let profiled = out.profile(ctx, cfg, BuildOpts::default());
    let arrivals = profiled.trace.records.len();

    let greedy = run_fleet(&profiled, FleetPolicy::Greedy, "greedy", &ctx.engine());
    let mut frozen_predictor = YalaPredictor::new(&bank);
    let policy = yala_policy(&mut frozen_predictor, &bank, None, true);
    let frozen = run_fleet(&profiled, policy, "yala-frozen", &ctx.engine());
    // The flagship journal is the one with absorb passes in it.
    let mut predictor = YalaPredictor::new(&bank);
    let policy = yala_policy(&mut predictor, &bank, Some(online_knobs), true);
    let online = out.flagship(ctx, &profiled, policy, "yala-online");
    let reports = [&greedy, &frozen, &online];
    print_policies(&reports);
    let (passes, absorbed) = (predictor.refine_passes(), predictor.absorbed());
    println!("  refinement: {passes} absorb passes, {absorbed} observations absorbed");

    // The acceptance bar: the stale frozen model must actually decay
    // (violations appear), refinement must actually run, and online-Yala
    // must end the day with *strictly* fewer SLA-violation minutes than
    // frozen-Yala. Deterministic scenario: holds always or never.
    assert!(
        frozen.violation_minutes > 0.0,
        "the stale frozen bank should decay under drift"
    );
    assert!(
        passes > 0 && absorbed > 0,
        "the online policy must absorb audit observations"
    );
    assert!(
        online.violation_minutes < frozen.violation_minutes,
        "online-Yala ({}) must strictly beat frozen-Yala ({}) on violation minutes",
        online.violation_minutes,
        frozen.violation_minutes
    );
    println!(
        "  dominance: online {:.0} viol-min vs frozen {:.0} ({}x) — OK",
        online.violation_minutes,
        frozen.violation_minutes,
        (frozen.violation_minutes / online.violation_minutes).round()
    );

    let record = Record::new("online", !ctx.full)
        .field("nics", frozen.nics)
        .field("arrivals", arrivals)
        .scenario(&frozen)
        .kinds(&kinds)
        .field("trained_flow_ceiling", STALE_FLOW_CEILING)
        .field("drifted_flow_ceiling", DRIFTED_FLOW_CEILING)
        .field("min_observations", online_knobs.min_observations)
        .field("refine_passes", passes)
        .field("absorbed_observations", absorbed)
        .profile(&profiled)
        .policies(&reports);
    out.with_record(record)
}

/// Canonical traffic templates in the `cache` record's fleet (a realistic
/// configuration catalog: small, not a continuum).
const CACHE_TEMPLATES: u32 = 6;

/// `BENCH_cache.json`: the profile-cache payoff — the same 200-NIC
/// simulated day profiled twice, once in exact mode (one measurement per
/// snapshot, the pre-cache bill) and once in quantized mode (measurements
/// shared across tenants and epochs through one [`ProfileCache`]), under
/// a template-clustered traffic model, the realistic multi-tenant shape
/// where a handful of canonical NF configurations serve the whole fleet.
///
/// The headline metric is the *computed-snapshot reduction*: exact-mode
/// measurements divided by quantized-mode cache misses. It is a pure
/// count ratio — deterministic in the seed, identical across thread
/// counts and machines — so the committed record stays byte-stable; what
/// the reduction buys in wall time is `benchmark/`'s
/// `fleet.timeline_build_s`.
pub fn cache(ctx: &BenchArgs) -> Output {
    let mut out = Output::observed(ctx, DEFAULT_CAPACITY);
    let kinds = [NfKind::FlowStats, NfKind::Acl, NfKind::Nat, NfKind::Nids];

    let mut cfg = fleet_day(FleetConfig::small(5150), ctx.full, &kinds);
    cfg.portfolio = vec![(NicSpec::bluefield2(), 200)];
    cfg.mean_interarrival_s = 144.0; // ~600 arrivals over the day
    cfg.mean_lifetime_s = 9_000.0;
    // Jitter at a quarter of the re-profile threshold: tenants spread
    // around their template but stay inside its quantization bucket.
    let jitter = cfg.reprofile_threshold / 4.0;
    cfg.traffic_model = TrafficModel::Templates {
        count: CACHE_TEMPLATES,
        jitter,
    };
    banner("cache", &cfg, &format!(", {CACHE_TEMPLATES} templates"));

    // The pre-cache bill: every snapshot is measured.
    let trace = FleetTrace::generate(cfg.clone());
    let arrivals = trace.records.len();
    let exact = ProfiledTrace::build(trace.clone(), &ctx.engine(), BuildOpts::default());

    // The cached bill: one measurement per distinct quantized key. With
    // `--telemetry` this build is the observed one — its journal shows
    // tenants landing on shared keys (delta/full triggers, hit tagging).
    let cache = ProfileCache::new();
    let cached = out.profile(ctx, cfg, BuildOpts::quantized(Some(&cache)));

    // A warm rebuild of the same scenario: pure cache hits, no simulator
    // runs at all — the steady-state cost of re-deriving timelines.
    let rebuilt = ProfiledTrace::build(trace, &ctx.engine(), BuildOpts::quantized(Some(&cache)));

    let reduction = exact.stats.misses as f64 / cached.stats.misses.max(1) as f64;
    println!("  exact:   {} measurements", exact.stats.misses);
    println!(
        "  cached:  {} measurements ({} hits, {} delta / {} full re-keys)",
        cached.stats.misses,
        cached.stats.hits,
        cached.stats.delta_reprofiles,
        cached.stats.full_reprofiles
    );
    println!(
        "  rebuild: {} measurements ({} hits)",
        rebuilt.stats.misses, rebuilt.stats.hits
    );
    println!("  computed-snapshot reduction: {reduction:.2}x");

    assert!(
        reduction >= 5.0,
        "profile cache must cut computed snapshots at least 5x (got {reduction:.2}x)"
    );
    assert_eq!(rebuilt.stats.misses, 0, "warm rebuild must be all hits");

    // The cached timelines drive policy runs exactly like exact ones; the
    // greedy report documents the scenario's scale either way.
    let greedy_exact = run_fleet(&exact, FleetPolicy::Greedy, "greedy-exact", &ctx.engine());
    let greedy_cached = run_fleet(&cached, FleetPolicy::Greedy, "greedy-cached", &ctx.engine());

    let record = Record::new("cache", !ctx.full)
        .field("nics", greedy_exact.nics)
        .field("arrivals", arrivals)
        .scenario(&greedy_exact)
        .kinds(&kinds)
        .field("templates", CACHE_TEMPLATES)
        .field("jitter", format!("{jitter:.3}"))
        .field("exact_snapshots", exact.snapshot_count())
        .field("exact_cache", exact.stats.to_json())
        .field("cached_snapshots", cached.snapshot_count())
        .field("cached_cache", cached.stats.to_json())
        .field("rebuild_cache", rebuilt.stats.to_json())
        .field("computed_reduction", format!("{reduction:.2}"))
        .policies(&[&greedy_exact, &greedy_cached]);
    out.with_record(record)
}

/// The acceptance bar on the `faults` record's QoS shield ratio (blind /
/// aware guaranteed bad minutes).
const SHIELD_BAR: f64 = 5.0;

/// `BENCH_faults.json`: the fault-injection comparison — a failure-heavy
/// simulated day (hard NIC failures on a per-NIC renewal process,
/// announced maintenance drains, a 50/50 guaranteed/best-effort tenant
/// mix) replayed under three policies: the QoS-aware contention-aware
/// policy (`yala-qos`), the same predictor with QoS tiers ignored
/// (`yala-blind`, the degradation baseline), and greedy packing for
/// context.
///
/// The headline metric is the *QoS shield ratio*: the blind baseline's
/// guaranteed-class bad minutes (SLA violation while placed + downtime
/// while parked) divided by the aware policy's. The acceptance bar is
/// ≥ 5×: under identical fault schedules, tiered degradation must
/// concentrate at least that much of the damage on the best-effort
/// class. The scenario scale (20 NICs, ~24 simulated hours, every NIC
/// failing about three times) is the same at both scales.
pub fn faults(ctx: &BenchArgs) -> Output {
    let mut out = Output::observed(ctx, DEFAULT_CAPACITY);
    let kinds = table2_kinds(ctx.full);

    let mut cfg = fleet_day(FleetConfig::small(97), ctx.full, &kinds);
    cfg.portfolio = vec![(NicSpec::bluefield2(), 20)];
    cfg.mean_interarrival_s = 240.0; // ~360 arrivals over the day
    cfg.mean_lifetime_s = 7_200.0; // ~30 NFs active at steady state
    cfg.guaranteed_fraction = 0.5;
    // A deliberately undersized fleet under a rough day: every NIC fails
    // about three times, repairs take about an hour and a half, and six
    // hour-long maintenance drains land on top — so evacuations
    // regularly find the fleet too full and degradation policy decides
    // who eats the shortfall.
    cfg.faults = FaultPlan {
        mtbf_s: 6.0 * 3_600.0,
        mean_repair_s: 7_200.0,
        drains: 8,
        drain_notice_s: 1_800,
        drain_offline_s: 3_600,
    };
    let mix = format!(", guaranteed fraction {:.2}", cfg.guaranteed_fraction);
    banner("faults", &cfg, &mix);

    let zoo = Zoo::train(&kinds, 6, &ctx.engine());
    // With `--telemetry` the fault-injected journal is the richest one
    // the records produce (faults, evacuations, parks, readmissions).
    let profiled = out.profile(ctx, cfg, BuildOpts::default());
    let trace = &profiled.trace;
    let arrivals = trace.records.len();
    let guaranteed_nfs = trace
        .records
        .iter()
        .filter(|r| r.qos.is_guaranteed())
        .count();
    let count_faults = |kind| trace.faults.iter().filter(|f| f.kind == kind).count();
    let fail_events = count_faults(FaultKind::Fail);
    let drain_events = count_faults(FaultKind::DrainStart);
    println!("  {guaranteed_nfs} guaranteed NFs, {fail_events} failures + {drain_events} drains");

    let mut predictor = YalaPredictor::new(zoo.yala_bank());
    let policy = yala_policy(&mut predictor, zoo.yala_bank(), None, true);
    let aware = out.flagship(ctx, &profiled, policy, "yala-qos");
    let mut predictor = YalaPredictor::new(zoo.yala_bank());
    let policy = yala_policy(&mut predictor, zoo.yala_bank(), None, false);
    let blind = run_fleet(&profiled, policy, "yala-blind", &ctx.engine());
    let greedy = run_fleet(&profiled, FleetPolicy::Greedy, "greedy", &ctx.engine());

    println!("  policy       faults drains | G bad-min    G down Gshed Gevac  Gredo | B bad-min    B down Bshed Bredo");
    let reports = [&aware, &blind, &greedy];
    for r in reports {
        println!(
            "  {:<12} {:>6} {:>6} | {:>9.0} {:>9.0} {:>5} {:>5} {:>6} | {:>9.0} {:>9.0} {:>5} {:>5}",
            r.policy,
            r.faults,
            r.drains,
            r.guaranteed.bad_minutes(),
            r.guaranteed.downtime_minutes,
            r.guaranteed.shed,
            r.guaranteed.evacuations,
            r.guaranteed.readmitted,
            r.best_effort.bad_minutes(),
            r.best_effort.downtime_minutes,
            r.best_effort.shed,
            r.best_effort.readmitted
        );
    }

    // The fault schedule is part of the trace: every policy sees the
    // same failures and drains.
    assert_eq!(aware.faults, blind.faults);
    assert_eq!(aware.drains, blind.drains);
    assert_eq!(aware.faults as usize, fail_events);
    assert!(aware.faults > 0, "a fault record needs faults");

    // The acceptance bar: under identical faults, the QoS-blind baseline
    // must hurt the guaranteed class at least SHIELD_BAR times more than
    // the QoS-aware policy. Deterministic scenario, so this either
    // always holds or never does.
    // Capped so the record stays finite JSON even when the aware policy
    // keeps the guaranteed class perfectly clean.
    let shield_ratio = shield(&blind, &aware).min(1_000.0);
    assert!(
        blind.guaranteed.bad_minutes() > 0.0,
        "the blind baseline must damage the guaranteed class somewhere \
         in a failure-heavy day"
    );
    assert!(
        shield_ratio >= SHIELD_BAR,
        "QoS-aware degradation must hold guaranteed bad minutes \
         {SHIELD_BAR}x below the blind baseline (got {shield_ratio:.1}x: \
         aware {:.0} vs blind {:.0})",
        aware.guaranteed.bad_minutes(),
        blind.guaranteed.bad_minutes()
    );
    println!(
        "  shield: aware {:.0} guaranteed bad-min vs blind {:.0} — {:.1}x (bar {SHIELD_BAR}x) OK",
        aware.guaranteed.bad_minutes(),
        blind.guaranteed.bad_minutes(),
        shield_ratio
    );

    let record = Record::new("faults", !ctx.full)
        .field("nics", aware.nics)
        .field("arrivals", arrivals)
        .field("guaranteed_nfs", guaranteed_nfs)
        .field("fail_events", fail_events)
        .field("drain_events", drain_events)
        .scenario(&aware)
        .kinds(&kinds)
        .field("shield_ratio", format!("{shield_ratio:.3}"))
        .policies(&reports);
    out.with_record(record)
}

/// Blind-over-aware guaranteed bad minutes; an aware policy that keeps
/// the class perfectly clean scores infinity.
fn shield(blind: &FleetReport, aware: &FleetReport) -> f64 {
    let a = aware.guaranteed.bad_minutes();
    let b = blind.guaranteed.bad_minutes();
    if a == 0.0 {
        if b > 0.0 {
            f64::INFINITY
        } else {
            1.0
        }
    } else {
        b / a
    }
}

/// Canonical traffic templates of the `scale` days: a large fleet still
/// runs a catalog of configurations, which is what lets the profile cache
/// collapse the offline bill from ~10^5 tenants to ~10^2 measurements.
const SCALE_TEMPLATES: u32 = 64;

/// NICs of the `scale` record's prediction-driven day.
const YALA_NICS: usize = 400;

/// Engine widths of the `scale` record's determinism sweep.
const SWEEP_THREADS: [usize; 3] = [1, 2, 4];

/// What a thread sweep of one policy over one profiled day produced: the
/// sequential run's report, journal and decision count — which every
/// other width was asserted equal to.
struct Sweep {
    report: FleetReport,
    journal: Journal,
    decisions: u64,
}

/// The scenario both `scale` days share — the fleet family's
/// default-cadence day — at `nics` NICs and one arrival every
/// `interarrival` seconds.
fn day_config(nics: usize, interarrival: f64) -> FleetConfig {
    let mixed = FleetConfig::mixed(77, nics);
    let kinds = mixed.kinds.clone();
    let mut cfg = fleet_day(mixed, false, &kinds);
    cfg.mean_interarrival_s = interarrival;
    cfg.mean_lifetime_s = 1_800.0;
    // Jitter well inside the quantization bucket: tenants spread around
    // their template but share its profile-cache key.
    cfg.traffic_model = TrafficModel::Templates {
        count: SCALE_TEMPLATES,
        jitter: 0.02,
    };
    cfg
}

/// Runs `run` once per engine width over the same day and asserts the
/// determinism contract in-process: report bytes, journal and decision
/// count equal across every thread count. The decision count is the
/// sink's `fleet.arrivals` counter: one per arrival decided.
fn sweep(
    label: &str,
    journal_cap: usize,
    mut run: impl FnMut(&Engine, &mut Telemetry) -> FleetReport,
) -> Sweep {
    let mut baseline: Option<Sweep> = None;
    for threads in SWEEP_THREADS {
        // A fresh sink per run with a journal at the same cap, so
        // journals from different thread counts are comparable values.
        let mut run_tel = Telemetry::enabled();
        if let Some(sink) = run_tel.sink_mut() {
            sink.journal = Journal::with_capacity(journal_cap);
        }
        let report = run(&Engine::with_threads(threads), &mut run_tel);
        let sink = run_tel.sink().expect("sweep telemetry is live");
        let decisions = sink.metrics.counter("fleet.arrivals");

        // Only the sequential baseline is kept alive — later journals
        // drop immediately, so peak memory stays ~2 journals however
        // long the sweep is.
        let Some(base) = &baseline else {
            verify_journal(label, &report, &sink.journal);
            baseline = Some(Sweep {
                report,
                journal: sink.journal.clone(),
                decisions,
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
            decisions, base.decisions,
            "{label}: decision count must be identical at {threads} threads"
        );
    }
    baseline.expect("the sweep is nonempty")
}

/// `BENCH_scale.json`: the fleet scale-out run — a 2k-NIC mixed portfolio
/// over a simulated day with sub-second Poisson arrivals (~115k
/// placements), driven end to end through the indexed placement path and
/// the chunked audit fan-out; `--full` runs the same day on 10k NICs
/// (~576k arrivals).
///
/// The experiment sweeps the engine thread count (1, 2, 4) over the
/// *same* profiled trace and asserts the scale-out determinism contract
/// in-process: every sweep run's `FleetReport` serializes to
/// byte-identical JSON and its event journal compares equal, whatever the
/// thread count. The committed record holds only what `--check` gates
/// exactly — arrival/rejection/violation counts and the journal size;
/// throughput is measured by `benchmark/`'s `fleet-yala-day` workload,
/// not recorded here.
///
/// A second, smaller day — 400 NICs at the same load per NIC — runs
/// under the prediction-driven (`yala`) policy through the same sweep: a
/// greedy decision is an index lookup, a contention-aware one scores
/// every fitting NIC with the trained bank. Its block also pins how many
/// predictions the day asked for, how many the predictor's memo
/// answered, and how many forest walks the rest cost.
pub fn scale(ctx: &BenchArgs) -> Output {
    // A full-scale day journals ~1.3M events — past the journal's 1Mi
    // default bound. Default the cap up so the flagship artifact is
    // lossless; an explicit `--journal-cap` still wins.
    let default_cap = ctx.pick(DEFAULT_CAPACITY, 1 << 22);
    let journal_cap = ctx.journal_cap.unwrap_or(default_cap);
    let mut out = Output::observed(ctx, default_cap);

    // ~115k default / ~576k full arrivals.
    let nics = ctx.pick(2_000, 10_000);
    let interarrival = if ctx.full { 0.15 } else { 0.75 };
    let cfg = day_config(nics, interarrival);
    let load = format!(
        ", ~{:.0} arrivals expected, {SCALE_TEMPLATES} templates",
        cfg.duration_s as f64 / cfg.mean_interarrival_s
    );
    banner("scale", &cfg, &load);

    // The flagship telemetry handle observes the profiling build (and,
    // with `--telemetry`, a final flagship run) — the sweep runs below
    // get their own private handles so each measures only itself.
    let profiled = out.profile(ctx, cfg, BuildOpts::quantized(None));
    let arrivals = profiled.trace.records.len();

    let greedy = sweep("greedy", journal_cap, |engine, tel| {
        run_fleet_observed(&profiled, FleetPolicy::Greedy, "greedy", engine, tel)
    });
    let report_json = greedy.report.to_json();

    // With `--telemetry`, one more observed run on the flag-selected
    // engine fills the flagship journal (which also holds the profiling
    // build's events), and the report itself is written beside it — CI
    // byte-compares all of them across `--threads`.
    if out.telemetry.is_enabled() {
        let flagship = out.flagship(ctx, &profiled, FleetPolicy::Greedy, "greedy");
        assert_eq!(
            flagship.to_json(),
            report_json,
            "flagship run must match the sweep baseline byte for byte"
        );
        out.artifacts.push(("report.json", report_json.clone()));
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
        &ctx.engine(),
    );
    let yala_profiled = ProfiledTrace::build_cached(FleetTrace::generate(yala_cfg), &ctx.engine());
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
    let record = Record::new("scale", !ctx.full)
        .field("nics", nics)
        .field("arrivals", arrivals)
        .scenario(&greedy.report)
        .field("templates", SCALE_TEMPLATES)
        .field("deterministic", render(&greedy_block))
        .field(
            "yala",
            format!(
                "{{\"nics\": {YALA_NICS}, \"arrivals\": {yala_arrivals},\n  \"deterministic\": {}}}",
                render(&yala_block)
            ),
        )
        .field("report", report_json.trim());
    out.with_record(record)
}

/// The counters of the `serve` record's `deterministic` block, all
/// exact-gated.
const COUNTERS: [&str; 6] = [
    "admissions",
    "rejections",
    "departures",
    "queries",
    "observations",
    "absorb_passes",
];

/// `BENCH_serve.json`: the serving path — a [`yala_serve::ServeLoop`]
/// daemon driven in-process at production request rates with the message
/// stream a diurnal fleet day generates: placements, departures, drift
/// re-profiles, NIC failovers, audit observations, and online absorb
/// passes.
///
/// The committed record holds the request and decision counters — exact
/// `--check` gates: the daemon is a pure function of seed + message order,
/// so these either match bit-for-bit or the serving path changed. What
/// the operator pays in wall time (requests per second, placement
/// latency) is `benchmark/`'s `serve-unique` / `serve-catalog` workloads.
/// The daemon journals nothing, so this experiment writes no telemetry.
pub fn serve(ctx: &BenchArgs) -> Output {
    let engine = &ctx.engine();

    // The scenario: a diurnal day of arrivals on a small fleet, replayed
    // as wire messages. The default scale trims the horizon, not the
    // shape.
    let mut cfg = FleetConfig::small(42);
    cfg.portfolio = vec![(NicSpec::bluefield2(), 12)];
    cfg.duration_s = if ctx.full { 24 * 3_600 } else { 6 * 3_600 };
    cfg.mean_interarrival_s = 120.0;
    cfg.mean_lifetime_s = 4_800.0;
    cfg.kinds = vec![NfKind::FlowStats, NfKind::Acl, NfKind::Nat];
    let trace = FleetTrace::diurnal(cfg.clone());

    // Arrival/departure messages from the recorded trace, plus one
    // placement query per record (the "would this fit" operator probe)
    // and an absorb sweep each simulated hour: `(due time, wire line)`.
    let mut msgs: Vec<(u64, String)> = Vec::new();
    let traffic = |t: TrafficProfile| {
        let (flows, psize, mtbr) = (t.flow_count, t.packet_size, t.mtbr);
        format!("\"flows\":{flows},\"psize\":{psize},\"mtbr\":{mtbr}")
    };
    for r in &trace.records {
        let (id, kind, qos, sla) = (r.id, r.kind.name(), r.qos.name(), r.sla_drop);
        let at = traffic(r.start);
        msgs.push((
            r.arrival_ms,
            format!(
                "{{\"op\":\"place\",\"id\":{id},\"kind\":\"{kind}\",\"qos\":\"{qos}\",{at},\
                 \"sla_drop\":{sla}}}"
            ),
        ));
        let query = format!("{{\"op\":\"query\",\"kind\":\"{kind}\",{at},\"sla_drop\":{sla}}}");
        msgs.push((r.arrival_ms, query));
        msgs.push((r.departure_ms, format!("{{\"op\":\"depart\",\"id\":{id}}}")));
        // A synthetic audit observation an hour into the record's life
        // (if it lives that long), echoing its own traffic with a
        // deterministic measured-throughput dent — enough signal for the
        // online bank to absorb, all a pure function of the trace.
        let t_ms = r.arrival_ms + 3_600 * MS_PER_S;
        if t_ms < r.departure_ms {
            let solo = 1.0e7;
            let measured = solo * (1.0 - 0.3 * (id % 4) as f64 / 4.0);
            let at = traffic(r.traffic_at(t_ms));
            msgs.push((
                t_ms,
                format!(
                    "{{\"op\":\"observe\",\"model\":\"bluefield2\",\"kind\":\"{kind}\",{at},\
                     \"ipc\":1.1,\"irt\":9.0e8,\"l2crd\":1.0e7,\"l2cwr\":2.0e6,\"memrd\":3.0e6,\
                     \"memwr\":1.0e6,\"wss\":5.0e7,\"press\":\"\",\"solo\":{solo},\
                     \"measured\":{measured}}}"
                ),
            ));
        }
    }
    for hour in 1..cfg.duration_s / 3_600 {
        msgs.push((hour * 3_600 * MS_PER_S, "{\"op\":\"absorb\"}".to_string()));
    }
    // Stable schedule order: time, then each record's place < query <
    // depart < observe by push order (stable sort).
    msgs.sort_by_key(|(t_ms, _)| *t_ms);

    println!(
        "serve: {} NICs, {} records -> {} requests, {} h diurnal day",
        cfg.nics(),
        trace.records.len(),
        msgs.len(),
        cfg.duration_s / 3_600
    );

    let mut daemon = ServeLoop::new(&cfg, "yala-online", engine).expect("serve loop builds");

    // The drive loop. Departures for never-admitted (rejected) instances
    // come back `ok:false` — that is the protocol working, not a record
    // failure; everything else must succeed.
    let (mut admissions, mut rejections, mut errors) = (0u64, 0u64, 0u64);
    for (_, line) in &msgs {
        let resp = daemon.handle_line(line, engine);
        if line.starts_with("{\"op\":\"place\"") {
            if resp.contains("\"nic\":-1") {
                rejections += 1;
            } else if resp.starts_with("{\"ok\":true") {
                admissions += 1;
            }
        }
        if resp.starts_with("{\"ok\":false") {
            assert!(
                line.starts_with("{\"op\":\"depart\""),
                "unexpected error for {line}: {resp}"
            );
            errors += 1;
        }
    }
    let stats = daemon.handle_line("{\"op\":\"stats\"}", engine);
    println!("  final {stats}");

    let stat = |key: &str| {
        json_f64(&stats, "", key).unwrap_or_else(|| panic!("stats response lacks {key}")) as u64
    };
    assert_eq!(stat("admissions"), admissions, "counter drift");
    assert_eq!(stat("rejections"), rejections, "counter drift");

    let mut counters = vec![("requests", msgs.len() as u64)];
    counters.extend(COUNTERS.map(|key| (key, stat(key))));
    counters.push(("unadmitted_departs", errors));
    let block: Vec<String> = counters
        .iter()
        .map(|(key, n)| format!("\"{key}\": {n}"))
        .collect();
    let record = Record::new("serve", !ctx.full)
        .field("seed", cfg.seed)
        .field("nics", cfg.nics())
        .field("policy", "\"yala-online\"")
        .field("duration_s", cfg.duration_s)
        .field("records", trace.records.len())
        .field("deterministic", format!("{{{}}}", block.join(", ")));
    Output::default().with_record(record)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_envelope_is_balanced_and_key_ordered() {
        let json = Record::new("demo", true)
            .field("nics", 12)
            .kinds(&[NfKind::Nat, NfKind::Acl])
            .field("deterministic", "{\"requests\": 655, \"rows\": [1, 2]}")
            .field("policies", "[\n{\"policy\": \"greedy\"}\n]")
            .to_json();
        for (open, close) in [('{', '}'), ('[', ']')] {
            assert_eq!(json.matches(open).count(), json.matches(close).count());
        }
        assert!(json.starts_with("{\n\"bench\": \"demo\",\n\"quick\": true,\n\"nics\": 12,\n"));
        assert!(json.ends_with("\n}\n"));
        // Keys appear once each, in insertion order, one per line.
        let keys = [
            "bench",
            "quick",
            "nics",
            "kinds",
            "deterministic",
            "policies",
        ];
        let at: Vec<usize> = keys
            .iter()
            .map(|k| {
                json.find(&format!("\n\"{k}\": "))
                    .expect("key on its own line")
            })
            .collect();
        assert!(at.windows(2).all(|w| w[0] < w[1]), "{json}");
        assert!(json.contains("\"kinds\": [\"nat\", \"acl\"],\n"));
    }
}
