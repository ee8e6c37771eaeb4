//! The prediction memo in `YalaPredictor` may change how long an answer
//! takes and nothing else. Three angles: every prediction of a fleet day
//! (online refinement on, so the bank changes mid-run) equals the bank
//! evaluated by hand; after an absorb a warm predictor answers like a
//! fresh one built on the refined bank; and a memo of six slots leaves
//! the report and the journal of the day byte-identical.

use std::sync::OnceLock;
use yala::core::adaptive::{AdaptiveConfig, TrafficRanges};
use yala::core::{
    Contender, Engine, ModelBank, Observation, ObservationBuffer, TrainConfig, YalaModel,
};
use yala::fleet::{
    run_fleet_observed, Diagnoser, FleetConfig, FleetPolicy, FleetTrace, OnlineRefine,
    ProfiledTrace, TrafficModel,
};
use yala::ml::GbrParams;
use yala::nf::NfKind;
use yala::placement::{Placed, PlacementPredictor, YalaPredictor};
use yala::sim::{NicModelId, NicSpec};
use yala::telemetry::Telemetry;

const KINDS: [NfKind; 2] = [NfKind::FlowStats, NfKind::Nat];
const NOISE: f64 = 0.005;

struct Fixture {
    profiled: ProfiledTrace,
    bank: ModelBank<YalaModel>,
}

/// A small bank and a catalog-traffic day on a fleet too small for it
/// (cached timelines): few templates on few NICs, so the placement loop
/// keeps asking about the same co-locations.
fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let engine = Engine::auto();
        let train = TrainConfig {
            ranges: TrafficRanges::default(),
            adaptive: AdaptiveConfig {
                quota: 120,
                ..AdaptiveConfig::default()
            },
            gbr: GbrParams {
                n_estimators: 120,
                learning_rate: 0.1,
                ..GbrParams::default()
            },
            seed: 11,
            ..TrainConfig::default()
        };
        let bank = ModelBank::train_yala(&[NicSpec::bluefield2()], NOISE, &KINDS, &train, &engine);
        let mut cfg = FleetConfig::small(43);
        cfg.portfolio = vec![(NicSpec::bluefield2(), 10)];
        cfg.duration_s = 3 * 3_600;
        cfg.mean_interarrival_s = 60.0;
        cfg.mean_lifetime_s = 2_400.0;
        cfg.audit_period_s = 600;
        cfg.kinds = KINDS.to_vec();
        cfg.max_flows = 60_000;
        cfg.sla_drop_range = (0.10, 0.30);
        cfg.noise_sigma = NOISE;
        cfg.guaranteed_fraction = 0.5;
        cfg.traffic_model = TrafficModel::Templates {
            count: 12,
            jitter: 0.02,
        };
        let profiled = ProfiledTrace::build_cached(FleetTrace::generate(cfg), &engine);
        Fixture { profiled, bank }
    })
}

fn bf2() -> NicModelId {
    NicSpec::bluefield2().model()
}

/// The bank evaluated by hand, as `YalaPredictor` did before it had a
/// memo: describe every other resident as a contender, ask the target's
/// model.
fn by_hand(
    bank: &ModelBank<YalaModel>,
    model: NicModelId,
    target: usize,
    residents: &[&Placed],
) -> f64 {
    let contenders: Vec<Contender> = residents
        .iter()
        .enumerate()
        .filter(|(i, _)| *i != target)
        .map(|(_, p)| {
            bank.expect(model, p.arrival.kind)
                .as_contender(p.solo(model).counters, p.arrival.traffic.mtbr)
        })
        .collect();
    let t = residents[target];
    bank.expect(model, t.arrival.kind).predict(
        t.solo(model).solo_tput,
        &t.arrival.traffic,
        &contenders,
    )
}

/// A `YalaPredictor` that checks each of its answers against [`by_hand`].
struct Checked {
    inner: YalaPredictor,
    checked: u64,
}

impl PlacementPredictor for Checked {
    fn predict_refs(&mut self, model: NicModelId, target: usize, residents: &[&Placed]) -> f64 {
        let got = self.inner.predict_refs(model, target, residents);
        let want = by_hand(self.inner.bank(), model, target, residents);
        assert_eq!(
            got.to_bits(),
            want.to_bits(),
            "prediction {} of the day: memo {got} vs direct {want}",
            self.checked
        );
        self.checked += 1;
        got
    }

    fn absorb(&mut self, buffer: &ObservationBuffer, engine: &Engine) -> usize {
        self.inner.absorb(buffer, engine)
    }
}

#[test]
fn every_prediction_of_a_fleet_day_equals_direct_evaluation() {
    let fx = fixture();
    let mut predictor = Checked {
        inner: YalaPredictor::new(&fx.bank),
        checked: 0,
    };
    run_fleet_observed(
        &fx.profiled,
        FleetPolicy::ContentionAware {
            predictor: &mut predictor,
            diagnoser: Diagnoser::Yala(&fx.bank),
            online: Some(OnlineRefine {
                min_observations: 24,
            }),
            qos_aware: true,
        },
        "checked",
        &Engine::sequential(),
        &mut Telemetry::disabled(),
    );
    let stats = predictor.inner.memo_stats().expect("yala keeps a memo");
    assert_eq!(stats.lookups, predictor.checked);
    assert!(predictor.checked > 1_000, "the day must exercise the loop");
    assert!(
        stats.hits > 100,
        "catalog traffic on a full fleet repeats its questions: {stats:?}"
    );
    let refits = predictor.inner.refine_passes();
    assert!(
        refits > 0 && stats.clears as usize >= refits,
        "every refit must empty the memo: {refits} refits, {stats:?}"
    );
}

/// Groups of co-resident candidates drawn from the day's profiled
/// tenants, each group asked about every member.
fn questions(fx: &Fixture) -> Vec<(usize, Vec<&Placed>)> {
    let tenants: Vec<&Placed> = fx
        .profiled
        .timelines
        .iter()
        .map(|t| &t.snapshots[0].1)
        .take(48)
        .collect();
    let mut out = Vec::new();
    for size in 2..=4 {
        for group in tenants.chunks_exact(size) {
            for target in 0..size {
                out.push((target, group.to_vec()));
            }
        }
    }
    out
}

#[test]
fn after_an_absorb_a_warm_predictor_answers_like_a_fresh_one() {
    let fx = fixture();
    let model = bf2();
    let qs = questions(fx);
    let mut warm = YalaPredictor::new(&fx.bank);
    let before: Vec<f64> = qs
        .iter()
        .map(|(t, group)| warm.predict_refs(model, *t, group))
        .collect();
    // Ask again: the second pass is answered from the memo.
    for ((t, group), want) in qs.iter().zip(&before) {
        assert_eq!(
            warm.predict_refs(model, *t, group).to_bits(),
            want.to_bits()
        );
    }
    let stats = warm.memo_stats().expect("yala keeps a memo");
    assert!(stats.hits >= qs.len() as u64, "{stats:?}");

    // Production evidence that the FlowStats curve is far too optimistic.
    let mut buffer = ObservationBuffer::new();
    for (t, group) in qs
        .iter()
        .filter(|(t, g)| g[*t].arrival.kind == NfKind::FlowStats)
    {
        let target = group[*t];
        let co: Vec<&Placed> = group
            .iter()
            .enumerate()
            .filter(|(i, _)| i != t)
            .map(|(_, p)| *p)
            .collect();
        buffer.push(Observation {
            model,
            kind: target.arrival.kind,
            traffic: target.arrival.traffic,
            competitors: yala::sim::CounterSample::aggregate(
                co.iter().map(|p| &p.solo(model).counters),
            ),
            accel_pressure: Vec::new(),
            solo_tput: target.solo(model).solo_tput,
            measured_tput: target.solo(model).solo_tput * 0.4,
        });
    }
    assert!(warm.absorb(&buffer, &Engine::sequential()) > 0);
    assert_eq!(
        warm.memo_stats().expect("memo").clears,
        stats.clears + 1,
        "a refit empties the memo"
    );

    let mut fresh = YalaPredictor::new(warm.bank());
    let mut moved = 0;
    for ((t, group), old) in qs.iter().zip(&before) {
        let a = warm.predict_refs(model, *t, group);
        let b = fresh.predict_refs(model, *t, group);
        assert_eq!(a.to_bits(), b.to_bits(), "stale answer survived the absorb");
        moved += (a.to_bits() != old.to_bits()) as usize;
    }
    assert!(moved > 0, "the refit must have changed some answer");
}

/// One observed day under `predictor`: the report and the journal, as
/// text, and the predictor's memo accounting.
fn observed_day(mut predictor: YalaPredictor) -> (String, String, yala::placement::MemoStats) {
    let fx = fixture();
    let mut tel = Telemetry::enabled();
    let report = run_fleet_observed(
        &fx.profiled,
        FleetPolicy::ContentionAware {
            predictor: &mut predictor,
            diagnoser: Diagnoser::Yala(&fx.bank),
            online: Some(OnlineRefine {
                min_observations: 24,
            }),
            qos_aware: true,
        },
        "yala",
        &Engine::sequential(),
        &mut tel,
    );
    let journal = tel.sink().expect("enabled").journal.to_jsonl();
    let stats = predictor.memo_stats().expect("yala keeps a memo");
    // The registry carries the same accounting.
    let metrics = &tel.sink().expect("enabled").metrics;
    assert_eq!(metrics.counter("predict.calls"), stats.lookups);
    assert_eq!(metrics.counter("predict.memo_hits"), stats.hits);
    (report.to_json(), journal, stats)
}

#[test]
fn a_tiny_memo_cap_changes_no_output() {
    let fx = fixture();
    let (report, journal, stats) = observed_day(YalaPredictor::new(&fx.bank));
    let (tiny_report, tiny_journal, tiny) = observed_day(YalaPredictor::with_memo_cap(&fx.bank, 6));
    assert_eq!(report, tiny_report);
    assert_eq!(journal, tiny_journal);
    assert_eq!(stats.lookups, tiny.lookups);
    assert!(
        tiny.clears > stats.clears + 10 && tiny.hits < stats.hits,
        "the tiny cap must actually be reached: default {stats:?}, tiny {tiny:?}"
    );
}
