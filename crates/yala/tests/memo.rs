//! The memos in `YalaPredictor` — answers by question, forest cells by
//! bank cell — may change how long an answer takes and nothing else.
//! Five angles: every prediction of a fleet day (online refinement on, so
//! the bank changes mid-run), asked by class id as the fleet asks,
//! equals the bank evaluated by hand — on memory-only traffic-aware
//! cells, and again on a bank with an accelerator NF and a fixed-traffic
//! cell under memos of six entries; after an absorb a warm predictor
//! answers like a fresh one built on the refined bank; memos of six
//! entries leave the report and the journal of the day byte-identical;
//! and two profiles share a class id exactly when every bit a prediction
//! reads from them is equal.

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
use yala::sim::{CounterSample, NicModelId, NicSpec, Simulator};
use yala::telemetry::Telemetry;
use yala::traffic::TrafficProfile;

const KINDS: [NfKind; 2] = [NfKind::FlowStats, NfKind::Nat];
const NOISE: f64 = 0.005;

struct Fixture {
    profiled: ProfiledTrace,
    bank: ModelBank<YalaModel>,
}

fn train_config() -> TrainConfig {
    TrainConfig {
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
    }
}

/// A catalog-traffic day of `kinds` on a fleet too small for it (cached
/// timelines): few templates on few NICs, so the placement loop keeps
/// asking about the same co-locations.
fn day(kinds: &[NfKind], engine: &Engine) -> ProfiledTrace {
    let mut cfg = FleetConfig::small(43);
    cfg.portfolio = vec![(NicSpec::bluefield2(), 10)];
    cfg.duration_s = 3 * 3_600;
    cfg.mean_interarrival_s = 60.0;
    cfg.mean_lifetime_s = 2_400.0;
    cfg.audit_period_s = 600;
    cfg.kinds = kinds.to_vec();
    cfg.max_flows = 60_000;
    cfg.sla_drop_range = (0.10, 0.30);
    cfg.noise_sigma = NOISE;
    cfg.guaranteed_fraction = 0.5;
    cfg.traffic_model = TrafficModel::Templates {
        count: 12,
        jitter: 0.02,
    };
    ProfiledTrace::build_cached(FleetTrace::generate(cfg), engine)
}

/// A small bank of memory-only, traffic-aware cells and a day of them.
fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let engine = Engine::auto();
        let bank = ModelBank::train_yala(
            &[NicSpec::bluefield2()],
            NOISE,
            &KINDS,
            &train_config(),
            &engine,
        );
        Fixture {
            profiled: day(&KINDS, &engine),
            bank,
        }
    })
}

/// The kinds of [`shaped_fixture`]: NIDS submits to the regex engine.
const SHAPED_KINDS: [NfKind; 3] = [NfKind::FlowStats, NfKind::Nat, NfKind::Nids];

/// A bank of every cell shape an evaluation assembles — traffic-aware
/// memory-only (FlowStats), fixed-traffic with seven-feature cells (Nat),
/// traffic-aware with an accelerator model (NIDS) — and a day of them.
fn shaped_fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let engine = Engine::auto();
        let train = train_config();
        let spec = NicSpec::bluefield2();
        let mut bank = ModelBank::train_yala(
            std::slice::from_ref(&spec),
            NOISE,
            &SHAPED_KINDS,
            &train,
            &engine,
        );
        let mut sim = Simulator::with_noise(spec.clone(), NOISE, 5);
        let fixed =
            YalaModel::train_fixed(&mut sim, NfKind::Nat, TrafficProfile::default(), &train);
        assert!(!fixed.memory.is_traffic_aware());
        bank.insert(spec.model(), NfKind::Nat, fixed);
        assert!(!bank.expect(spec.model(), NfKind::Nids).accels.is_empty());
        Fixture {
            profiled: day(&SHAPED_KINDS, &engine),
            bank,
        }
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

/// A `YalaPredictor` that checks each of its answers against [`by_hand`],
/// whichever entrance the question came through.
struct Checked {
    inner: YalaPredictor,
    checked: u64,
    by_class: u64,
    /// How often each kind was the target, and how often it was one of
    /// several competitors.
    targets: Vec<(NfKind, u64)>,
    crowded: u64,
    /// Whether to check every id against its resident's.
    check_ids: bool,
}

impl Checked {
    fn new(inner: YalaPredictor) -> Self {
        Self {
            inner,
            checked: 0,
            by_class: 0,
            targets: Vec::new(),
            crowded: 0,
            check_ids: true,
        }
    }

    fn asked(&self, kind: NfKind) -> u64 {
        self.targets
            .iter()
            .find(|(k, _)| *k == kind)
            .map_or(0, |(_, n)| *n)
    }

    fn check(&mut self, got: f64, model: NicModelId, target: usize, residents: &[&Placed]) {
        let kind = residents[target].arrival.kind;
        match self.targets.iter_mut().find(|(k, _)| *k == kind) {
            Some((_, n)) => *n += 1,
            None => self.targets.push((kind, 1)),
        }
        self.crowded += u64::from(residents.len() > 2);
        let want = by_hand(self.inner.bank(), model, target, residents);
        assert_eq!(
            got.to_bits(),
            want.to_bits(),
            "prediction {} of the day: memo {got} vs direct {want}",
            self.checked
        );
        self.checked += 1;
    }
}

impl PlacementPredictor for Checked {
    fn predict_refs(&mut self, model: NicModelId, target: usize, residents: &[&Placed]) -> f64 {
        let got = self.inner.predict_refs(model, target, residents);
        self.check(got, model, target, residents);
        got
    }

    fn class_of(&mut self, model: NicModelId, p: &Placed) -> u32 {
        self.inner.class_of(model, p)
    }

    fn predict_classes<'p>(
        &mut self,
        model: NicModelId,
        target: usize,
        classes: &[u32],
        resident: &dyn Fn(usize) -> &'p Placed,
    ) -> f64 {
        let got = self.inner.predict_classes(model, target, classes, resident);
        // The ids must name exactly the residents the caller would hand
        // over: an id kept past its profile would show here.
        let residents: Vec<&Placed> = (0..classes.len()).map(resident).collect();
        // (Asking again would itself re-issue ids under a cap small
        // enough to empty the table.)
        for (class, p) in classes.iter().zip(&residents).filter(|_| self.check_ids) {
            assert_eq!(*class, self.inner.class_of(model, p), "stale class id");
        }
        self.check(got, model, target, &residents);
        self.by_class += 1;
        got
    }

    fn absorb(&mut self, buffer: &ObservationBuffer, engine: &Engine) -> usize {
        self.inner.absorb(buffer, engine)
    }

    fn memo_stats(&self) -> Option<yala::placement::MemoStats> {
        self.inner.memo_stats()
    }
}

#[test]
fn every_prediction_of_a_fleet_day_equals_direct_evaluation() {
    let fx = fixture();
    let mut predictor = Checked::new(YalaPredictor::new(&fx.bank));
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
    assert_eq!(
        predictor.by_class, predictor.checked,
        "the fleet asks by class id only"
    );
    assert!(predictor.checked > 1_000, "the day must exercise the loop");
    assert!(
        stats.hits > 100,
        "catalog traffic on a full fleet repeats its questions: {stats:?}"
    );
    assert_eq!(
        stats.cell_hits + stats.forest_walks,
        stats.lookups - stats.hits,
        "every evaluation asks the memory model once: {stats:?}"
    );
    assert!(
        stats.cell_hits > 100,
        "new questions land in forest cells already answered: {stats:?}"
    );
    let refits = predictor.inner.refine_passes();
    assert!(
        refits > 0 && stats.clears as usize >= refits,
        "every refit must empty the memo: {refits} refits, {stats:?}"
    );
}

#[test]
fn every_cell_shape_equals_direct_evaluation_under_a_tiny_cap_and_a_refit() {
    let fx = shaped_fixture();
    let mut predictor = Checked {
        check_ids: false,
        ..Checked::new(YalaPredictor::with_memo_cap(&fx.bank, 6))
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
    for kind in SHAPED_KINDS {
        assert!(
            predictor.asked(kind) > 100,
            "{kind} must be asked about as a target: {:?}",
            predictor.targets
        );
    }
    assert!(
        predictor.crowded > 100,
        "competitors must also be summed: {}",
        predictor.crowded
    );
    // Six classes tabled at a time: ids are re-issued all day long, and
    // descriptions are dropped with them.
    assert!(stats.clears > 50, "the tiny cap must be reached: {stats:?}");
    assert!(
        predictor.inner.refine_passes() > 0,
        "the bank must be refitted mid-day"
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
            competitors: CounterSample::aggregate(co.iter().map(|p| &p.solo(model).counters)),
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
    assert_eq!(metrics.counter("predict.cell_hits"), stats.cell_hits);
    assert_eq!(metrics.counter("predict.forest_walks"), stats.forest_walks);
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
    // Every memo must actually overflow: the table of descriptions is
    // emptied, answers are lost, and so are forest cells.
    assert!(
        tiny.clears > stats.clears + 10
            && tiny.hits < stats.hits
            && tiny.forest_walks > stats.forest_walks,
        "the tiny cap must actually be reached: default {stats:?}, tiny {tiny:?}"
    );
}

#[test]
fn two_profiles_share_a_class_exactly_when_no_prediction_can_tell_them_apart() {
    let fx = fixture();
    let model = bf2();
    let mut predictor = YalaPredictor::new(&fx.bank);
    let base = fx.profiled.timelines[0].snapshots[0].1.clone();
    let class = predictor.class_of(model, &base);
    assert_ne!(class, 0, "a named description");
    assert_eq!(predictor.class_of(model, &base), class, "names are stable");

    // What no prediction reads: who the tenant is, what it was promised.
    let mut same = base.clone();
    same.workload.name = "someone-else".to_string();
    same.arrival.sla_drop = 0.5 * base.arrival.sla_drop;
    same.arrival.qos = yala::core::QosClass::BestEffort;
    assert_eq!(predictor.class_of(model, &same), class);

    // Every bit a prediction does read, flipped one field at a time.
    let mut others: Vec<Placed> = Vec::new();
    let mut vary = |edit: &dyn Fn(&mut Placed)| {
        let mut p = base.clone();
        edit(&mut p);
        others.push(p);
    };
    vary(&|p| {
        p.arrival.kind = *KINDS
            .iter()
            .find(|k| **k != p.arrival.kind)
            .expect("another kind");
    });
    vary(&|p| p.arrival.traffic.flow_count += 1);
    vary(&|p| p.arrival.traffic.packet_size += 1);
    vary(&|p| p.arrival.traffic.mtbr = f64::from_bits(p.arrival.traffic.mtbr.to_bits() + 1));
    vary(&|p| p.solos[0].1.solo_tput = f64::from_bits(p.solos[0].1.solo_tput.to_bits() + 1));
    let counters: [fn(&mut CounterSample) -> &mut f64; 7] = [
        |c| &mut c.ipc,
        |c| &mut c.irt,
        |c| &mut c.l2crd,
        |c| &mut c.l2cwr,
        |c| &mut c.memrd,
        |c| &mut c.memwr,
        |c| &mut c.wss,
    ];
    for counter in counters {
        vary(&|p| {
            let v = counter(&mut p.solos[0].1.counters);
            *v = f64::from_bits(v.to_bits() + 1);
        });
    }
    let mut seen = vec![class];
    for p in &others {
        let c = predictor.class_of(model, p);
        assert!(
            !seen.contains(&c),
            "a description differing in a bit shares class {c}"
        );
        seen.push(c);
    }
    // Asking by class and asking by content are the same question.
    let pair = [&base, &others[1]];
    let by_content = predictor.predict_refs(model, 0, &pair);
    let by_class = predictor.predict_classes(model, 0, &[class, seen[2]], &|k| pair[k]);
    assert_eq!(by_content.to_bits(), by_class.to_bits());
    let stats = predictor.memo_stats().expect("yala keeps a memo");
    assert_eq!((stats.lookups, stats.hits), (2, 1), "one memo behind both");
}
