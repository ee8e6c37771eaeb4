//! Heterogeneous-fleet property tests: across seeds, no placement
//! strategy — one-shot or fleet, blind or contention-aware — ever puts a
//! Regex- or Compression-submitting workload on a NIC whose hardware
//! model lacks that accelerator. The feasibility gate is structural (an
//! NF is never solo-profiled on hardware it cannot run on, so placement
//! has nothing to price there) and enforced at ground truth (the co-run
//! solver panics on any workload whose accelerator the NIC lacks, and
//! every audit co-runs every occupied NIC on its own hardware model).

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use yala::core::{Engine, QosClass};
use yala::fleet::{
    run_fleet, BuildOpts, Diagnoser, FleetConfig, FleetPolicy, FleetTrace, ProfiledTrace,
};
use yala::nf::NfKind;
use yala::placement::{place_sequence, prepare_all, Arrival, OraclePredictor, Strategy};
use yala::sim::{NicSpec, Simulator};
use yala::traffic::TrafficProfile;

/// NF mix exercising every capability class: memory-only (feasible
/// everywhere), regex, and regex+compression (BlueField-2 only).
const MIXED_KINDS: [NfKind; 6] = [
    NfKind::FlowStats,
    NfKind::Nat,
    NfKind::Acl,
    NfKind::Nids,
    NfKind::PacketFilter,
    NfKind::IpCompGateway,
];

fn mixed_cfg(seed: u64) -> FleetConfig {
    let mut cfg = FleetConfig::mixed(seed, 10);
    cfg.duration_s = 1_800;
    cfg.mean_interarrival_s = 100.0;
    cfg.mean_lifetime_s = 900.0;
    cfg.audit_period_s = 600;
    cfg.kinds = MIXED_KINDS.to_vec();
    cfg
}

#[test]
fn fleet_strategies_never_place_accelerator_nfs_on_incapable_nics() {
    let engine = Engine::auto();
    for seed in [3u64, 11, 29] {
        let cfg = mixed_cfg(seed);
        let specs = cfg.specs();
        let profiled =
            ProfiledTrace::build(FleetTrace::generate(cfg), &engine, BuildOpts::default());
        // Structural: the profiling matrix never hands placement a solo
        // baseline on hardware that cannot serve the workload — on every
        // snapshot, every per-model baseline's hardware supports every
        // resource the workload touches.
        for tl in &profiled.timelines {
            for (_, snap) in &tl.snapshots {
                for (model, _) in &snap.solos {
                    let spec = specs
                        .iter()
                        .find(|s| s.model() == *model)
                        .expect("baseline model comes from the portfolio");
                    assert!(
                        spec.supports(&snap.workload),
                        "{} profiled on incapable model {model} (seed {seed})",
                        snap.workload.name
                    );
                }
            }
        }
        // Behavioral: every strategy completes its full run. The audit
        // epochs co-run every occupied NIC on a simulator of *that NIC's*
        // hardware, and the solver panics on a capability-infeasible
        // workload — so completion is a ground-truth assertion that no
        // strategy ever made an infeasible placement. The oracle-backed
        // contention-aware policy additionally ground-truth-co-runs every
        // candidate NIC it considers at placement and migration time.
        let mono = run_fleet(&profiled, FleetPolicy::Monopolization, "mono", &engine);
        let greedy = run_fleet(&profiled, FleetPolicy::Greedy, "greedy", &engine);
        let mut oracle = OraclePredictor::for_models(&specs);
        let aware = run_fleet(
            &profiled,
            FleetPolicy::ContentionAware {
                predictor: &mut oracle,
                diagnoser: Diagnoser::MemoryOnly,
                online: None,
                qos_aware: true,
            },
            "oracle",
            &engine,
        );
        assert_eq!(mono.total_arrivals, greedy.total_arrivals);
        assert_eq!(greedy.total_arrivals, aware.total_arrivals);
        assert!(
            mono.nic_minutes >= greedy.nic_minutes,
            "monopolization cannot pack tighter than greedy (seed {seed})"
        );
    }
}

#[test]
fn one_shot_strategies_reject_infeasible_arrivals_across_seeds() {
    let engine = Engine::sequential();
    let pen = NicSpec::pensando();
    let pen_model = pen.model();
    for seed in [5u64, 17, 41, 97] {
        let mut rng = StdRng::seed_from_u64(seed);
        let arrivals: Vec<Arrival> = (0..10)
            .map(|_| Arrival {
                kind: *MIXED_KINDS.choose(&mut rng).expect("nonempty"),
                traffic: TrafficProfile::random(&mut rng, 64_000),
                sla_drop: rng.gen_range(0.05..0.25),
                qos: QosClass::Guaranteed,
            })
            .collect();
        let infeasible = arrivals
            .iter()
            .filter(|a| !a.kind.feasible_on(&pen))
            .count();
        let placed = prepare_all(
            &[NicSpec::bluefield2(), pen.clone()],
            0.0,
            &arrivals,
            seed,
            &engine,
        );
        // An all-Pensando episode: every strategy must reject exactly the
        // accelerator-submitting arrivals and place the rest.
        let mut sim = Simulator::new(pen.clone());
        let mut oracle = OraclePredictor::new(pen.clone());
        for (name, strategy) in [
            ("monopolization", Strategy::Monopolization),
            ("greedy", Strategy::Greedy),
            ("oracle", Strategy::ContentionAware(&mut oracle)),
        ] {
            let out = place_sequence(&mut sim, &placed, strategy);
            assert_eq!(
                out.rejected, infeasible,
                "{name} must reject the {infeasible} infeasible arrivals (seed {seed})"
            );
            assert_eq!(out.placed + out.rejected, arrivals.len());
            for nic in &out.nics {
                for p in nic {
                    assert!(
                        p.supported_on(pen_model),
                        "{name} placed {} on incapable hardware (seed {seed})",
                        p.workload.name
                    );
                }
            }
        }
    }
}
