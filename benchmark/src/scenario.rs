//! The four workloads. Each is one scenario for the same pipeline —
//! train a bank, check its accuracy, simulate a fleet day, serve a day of
//! requests — differing in the input properties the stack's cost depends
//! on: how many (NIC model, NF) cells the bank holds, how large the fleet
//! is, and whether tenants' traffic repeats.

use yala::fleet::{FaultPlan, FleetConfig, TrafficModel};
use yala::nf::NfKind;
use yala::sim::NicSpec;

/// Seed of everything that configures the program under test rather than
/// feeding it: the bank's training seed, the daemon's config seed, and
/// the fleet phase's reference day. `--seed` drives the request stream
/// and the prediction scenarios only. The fleet day is held fixed because
/// its SLA-violation rate is a count of rare, clustered incidents: across
/// trace seeds its quartiles sit 45 % of the median apart at every size
/// that fits a run, so seeding it would leave the one deterministic
/// placement-quality gate permanently unresolved (see README, "Seeds").
pub const REFERENCE_SEED: u64 = 77;

pub struct Scenario {
    pub name: &'static str,
    pub why: &'static str,
    /// The reference day of the fleet phase; its portfolio and kinds are
    /// also the bank the train phase builds.
    pub fleet: FleetConfig,
    /// The daemon's config. The day's request stream is a diurnal trace
    /// of this config re-seeded with `--seed`.
    pub serve: FleetConfig,
    pub serve_policy: &'static str,
    /// Competitor draws per (target NF, evaluation profile).
    pub predict_draws: usize,
    /// `mape_pct` may not exceed this; frozen at the first baseline
    /// (README, "Baseline") with ~50 % headroom over the worst seed seen.
    pub mape_ceiling_pct: f64,
}

pub const NAMES: [&str; 4] = [
    "zoo-train-predict",
    "fleet-yala-day",
    "serve-unique",
    "serve-catalog",
];

fn bf2(n: usize) -> Vec<(NicSpec, usize)> {
    vec![(NicSpec::bluefield2(), n)]
}

fn mixed(n: usize) -> Vec<(NicSpec, usize)> {
    FleetConfig::mixed(REFERENCE_SEED, n).portfolio
}

/// A `hours`-long day on `portfolio` at `load` arrivals per NIC per mean
/// lifetime; everything else as `FleetConfig::small`.
fn day(
    portfolio: Vec<(NicSpec, usize)>,
    kinds: &[NfKind],
    hours: u64,
    lifetime_s: f64,
    load: f64,
) -> FleetConfig {
    let mut cfg = FleetConfig::small(REFERENCE_SEED);
    cfg.portfolio = portfolio;
    cfg.kinds = kinds.to_vec();
    cfg.duration_s = hours * 3_600;
    cfg.mean_lifetime_s = lifetime_s;
    cfg.mean_interarrival_s = lifetime_s / (load * cfg.nics() as f64);
    cfg.audit_period_s = 1_800;
    cfg.reprofile_threshold = 0.20;
    cfg
}

fn templates(count: u32, jitter: f64) -> TrafficModel {
    TrafficModel::Templates { count, jitter }
}

/// The NFs the daemon workloads serve (the fleet default plus a regex NF).
const SERVE_KINDS: [NfKind; 4] = [NfKind::FlowStats, NfKind::Acl, NfKind::Nat, NfKind::Nids];
/// `FleetConfig::small`'s kinds.
const FLEET_KINDS: [NfKind; 3] = [NfKind::FlowStats, NfKind::Acl, NfKind::Nat];

impl Scenario {
    pub fn by_name(name: &str) -> Option<Scenario> {
        Some(match name {
            "zoo-train-predict" => {
                let mut fleet = day(mixed(48), &NfKind::TABLE2_NINE, 24, 1_800.0, 1.2);
                fleet.traffic_model = templates(32, 0.02);
                fleet.max_flows = 64_000;
                let mut serve = day(mixed(16), &NfKind::TABLE2_NINE, 16, 4_800.0, 5.8);
                serve.max_flows = 32_000;
                serve.faults = hard_failures(96.0);
                Scenario {
                    name: NAMES[0],
                    why: "widest bank (9 NFs x 2 NIC models) and 810 prediction scenarios: \
                          traffic/nf/rxp/sim/core::adaptive/ml do the work; placement, fleet and \
                          serve the least (prediction-free greedy daemon)",
                    fleet,
                    serve,
                    serve_policy: "greedy",
                    predict_draws: 10,
                    mape_ceiling_pct: 25.0,
                }
            }
            "fleet-yala-day" => {
                let mut fleet = day(mixed(128), &FLEET_KINDS, 24, 1_800.0, 1.2);
                fleet.traffic_model = templates(64, 0.02);
                fleet.max_flows = 200_000;
                fleet.sla_drop_range = (0.05, 0.15);
                fleet.guaranteed_fraction = 0.5;
                fleet.faults = FaultPlan {
                    mtbf_s: 48.0 * 3_600.0,
                    mean_repair_s: 2.0 * 3_600.0,
                    drains: 8,
                    drain_notice_s: 1_800,
                    drain_offline_s: 3_600,
                };
                let mut serve = day(mixed(32), &FLEET_KINDS, 16, 4_800.0, 2.9);
                serve.traffic_model = templates(64, 0.02);
                serve.max_flows = 48_000;
                serve.guaranteed_fraction = 0.5;
                serve.faults = hard_failures(96.0);
                Scenario {
                    name: NAMES[1],
                    why: "prediction-driven placement at fleet scale with faults and QoS tiers: \
                          placement + fleet::index + core::predictor dominate; profiling is paid \
                          in set-up (catalog traffic, timeline lookups mostly hit)",
                    fleet,
                    serve,
                    serve_policy: "yala",
                    predict_draws: 10,
                    mape_ceiling_pct: 15.0,
                }
            }
            "serve-unique" => {
                let mut fleet = day(bf2(64), &SERVE_KINDS, 24, 1_800.0, 1.2);
                fleet.traffic_model = templates(24, 0.02);
                fleet.max_flows = 64_000;
                let mut serve = day(bf2(24), &SERVE_KINDS, 18, 4_800.0, 3.45);
                serve.traffic_model = TrafficModel::Uniform;
                serve.drift = true;
                serve.max_flows = 48_000;
                serve.faults = hard_failures(96.0);
                Scenario {
                    name: NAMES[2],
                    why: "every tenant has its own drifting traffic, so every place, query and \
                          drift must measure (cache miss -> nf/traffic/sim): control for cache \
                          work, target for dataplane work, the only online-absorb path",
                    fleet,
                    serve,
                    serve_policy: "yala-online",
                    predict_draws: 10,
                    mape_ceiling_pct: 25.0,
                }
            }
            "serve-catalog" => {
                let mut fleet = day(bf2(64), &SERVE_KINDS, 24, 1_800.0, 1.2);
                fleet.traffic_model = templates(16, 0.02);
                fleet.max_flows = 64_000;
                let mut serve = day(bf2(256), &SERVE_KINDS, 12, 4_800.0, 0.49);
                serve.traffic_model = templates(48, 0.0);
                serve.drift = false;
                serve.faults = hard_failures(96.0);
                Scenario {
                    name: NAMES[3],
                    why:
                        "48 traffic templates repeat across tenants: query hits the profile cache, \
                          place still misses (key = seed + id), one layer used two ways; 256 NICs, \
                          so choosing is a scan, never a prediction",
                    fleet,
                    serve,
                    serve_policy: "yala",
                    predict_draws: 10,
                    mape_ceiling_pct: 25.0,
                }
            }
            _ => return None,
        })
    }

    /// The same scenario cut to a few seconds: two NF kinds, eight NICs,
    /// two-hour days, one competitor draw. For `check.sh` and CI, not
    /// for numbers.
    pub fn smoke(mut self) -> Scenario {
        for cfg in [&mut self.fleet, &mut self.serve] {
            let models = cfg.portfolio.len();
            for (_, count) in &mut cfg.portfolio {
                *count = 8 / models;
            }
            cfg.kinds.truncate(2);
            cfg.duration_s = 2 * 3_600;
            cfg.mean_lifetime_s = 1_200.0;
            cfg.mean_interarrival_s = 100.0;
            cfg.max_flows = cfg.max_flows.min(32_000);
            if !cfg.faults.is_none() {
                cfg.faults = hard_failures(4.0);
            }
        }
        self.predict_draws = 1;
        self
    }
}

/// Hard failures only (the daemon has no drain state), one per NIC every
/// `mtbf_h` hours on average, repaired in about an hour.
fn hard_failures(mtbf_h: f64) -> FaultPlan {
    FaultPlan {
        mtbf_s: mtbf_h * 3_600.0,
        mean_repair_s: 3_600.0,
        ..FaultPlan::none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_name_resolves_and_nothing_else() {
        for name in NAMES {
            let sc = Scenario::by_name(name).expect("known workload");
            assert_eq!(sc.name, name);
            assert!(sc.why.len() <= 200, "{name}: why is {} chars", sc.why.len());
            assert!(!sc.why.contains('\n'));
            assert_eq!(sc.fleet.seed, REFERENCE_SEED);
            let smoke = sc.smoke();
            assert_eq!(smoke.fleet.kinds.len(), 2);
            assert!(smoke.serve.nics() <= 8);
        }
        assert!(Scenario::by_name("serve").is_none());
    }
}
