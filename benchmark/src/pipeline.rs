//! One workload, outside in: set up the inputs, then inside the measured
//! window serve the day of requests once and repeat train → predict →
//! fleet day until the window closes. Every call into the system goes
//! through a public function and is wrapped in a boundary span.

use std::hint::black_box;
use std::time::Instant;

use yala::core::{Contender, Engine, ModelBank, TrainConfig, YalaModel};
use yala::fleet::{
    Diagnoser, FleetConfig, FleetPolicy, FleetSim, FleetTrace, Processed, ProfiledTrace,
    TrafficModel,
};
use yala::nf::NfKind;
use yala::placement::YalaPredictor;
use yala::sim::{CounterSample, Simulator};
use yala::telemetry::Telemetry;
use yala::traffic::TrafficProfile;
use yala_serve::ServeLoop;

use crate::messages::{self, Classifier, Msg, Op, Outcome};
use crate::metrics::flat_num;
use crate::scenario::{Scenario, REFERENCE_SEED};
use crate::stats::{fastest, Digest, SplitMix64};
use crate::trace::{SpanId, Tracer};

/// Timed passes over the prediction scenarios per round.
const PREDICT_PASSES: usize = 20;
/// Rounds every run makes whatever `--seconds` says: two, so each
/// deterministic output has a repetition to be compared with.
const MIN_ROUNDS: usize = 2;
/// Set-up is repeated while the repeats fit in this many seconds (at
/// most [`MAX_SETUPS`] times): a short set-up is noisy and cheap to
/// repeat, a long one is neither.
pub const SETUP_BUDGET_S: f64 = 7.0;
const MAX_SETUPS: usize = 5;

/// One co-location the bank is asked to predict, with its ground truth.
pub struct Case {
    pub target: NfKind,
    pub traffic: TrafficProfile,
    pub solo_tput: f64,
    /// Competitors: kind, solo counters, MTBR.
    pub rivals: Vec<(NfKind, CounterSample, f64)>,
    pub truth: f64,
}

/// Everything the measured window consumes.
pub struct Inputs {
    pub profiled: ProfiledTrace,
    /// The day whose arrivals, drifts and faults `msgs` spell out.
    pub stream: FleetTrace,
    pub msgs: Vec<Msg>,
    pub cases: Vec<Case>,
    pub daemon: ServeLoop,
    /// Seconds each part of this set-up pass took, for the run's log.
    pub parts: [(&'static str, f64); 5],
}

pub fn train_config() -> TrainConfig {
    TrainConfig {
        seed: REFERENCE_SEED,
        ..TrainConfig::default()
    }
}

fn timed<T>(
    tr: &mut Tracer,
    name: &'static str,
    parent: Option<SpanId>,
    f: impl FnOnce() -> T,
) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    let took = t0.elapsed();
    tr.record(name, t0, took, parent, 0);
    (out, took.as_secs_f64())
}

/// The prediction scenarios: every NF of the bank's first NIC model at
/// each evaluation profile against `draws` random sets of 1–3 other NFs
/// (Table 2's protocol), with solo profiles and co-run ground truth from
/// a simulator seeded by the run.
fn predict_cases(fleet: &FleetConfig, draws: usize, seed: u64) -> Vec<Case> {
    let spec = fleet.portfolio[0].0.clone();
    let kinds = NfKind::profiled_kinds(&fleet.kinds, &spec);
    let grid = TrafficProfile::evaluation_grid();
    let mut sim = Simulator::with_noise(spec, fleet.noise_sigma, seed);
    let mut rng = SplitMix64::new(seed);
    // Uncached on purpose: `cached_workload` would make every set-up
    // after the first a different, cheaper piece of work.
    let solos: Vec<Vec<_>> = kinds
        .iter()
        .map(|&k| {
            grid.iter()
                .map(|&p| {
                    let w = k.workload(p, k as u64);
                    let o = sim.solo(&w);
                    (w, o.counters, o.throughput_pps)
                })
                .collect()
        })
        .collect();
    let mut cases = Vec::with_capacity(kinds.len() * grid.len() * draws);
    for (ti, &target) in kinds.iter().enumerate() {
        let mut others: Vec<usize> = (0..kinds.len()).filter(|&i| i != ti).collect();
        for (pi, &traffic) in grid.iter().enumerate() {
            for _ in 0..draws {
                let n = (1 + rng.below(3)).min(others.len());
                for i in 0..n {
                    let j = i + rng.below(others.len() - i);
                    others.swap(i, j);
                }
                let (tw, _, solo_tput) = &solos[ti][pi];
                let mut workloads = vec![tw.clone()];
                let mut rivals = Vec::with_capacity(n);
                for (slot, &oi) in others[..n].iter().enumerate() {
                    let (w, counters, _) = &solos[oi][pi];
                    let mut w = w.clone();
                    w.name = format!("{}-{slot}", w.name);
                    workloads.push(w);
                    rivals.push((kinds[oi], *counters, traffic.mtbr));
                }
                let truth = sim.co_run(&workloads).outcomes[0].throughput_pps;
                cases.push(Case {
                    target,
                    traffic,
                    solo_tput: *solo_tput,
                    rivals,
                    truth,
                });
            }
        }
    }
    cases
}

/// The day of tenants behind the request stream: a diurnal trace of the
/// daemon's config re-seeded with the run's seed. When the config names a
/// template catalog, the catalog itself is configuration and stays the
/// reference one — a seed-drawn catalog of 16 shapes moves the median
/// place cost by tens of percent — and the seed decides which tenant
/// runs which entry (and, with drift on, which entry it drifts to).
fn request_day(serve: &FleetConfig, seed: u64) -> FleetTrace {
    let catalog = serve.traffic_templates();
    let mut cfg = serve.clone();
    cfg.seed = seed;
    cfg.traffic_model = TrafficModel::Uniform;
    let mut day = FleetTrace::diurnal(cfg);
    if !catalog.is_empty() {
        let mut rng = SplitMix64::new(seed ^ 0x0CA7_A106);
        for r in &mut day.records {
            r.start = catalog[rng.below(catalog.len())];
            r.end = if serve.drift {
                catalog[rng.below(catalog.len())]
            } else {
                r.start
            };
        }
    }
    day
}

/// One set-up pass: the reference fleet day generated and profiled, the
/// day's request stream, the prediction scenarios, and the daemon built.
pub fn set_up(
    sc: &Scenario,
    seed: u64,
    engine: &Engine,
    tr: &mut Tracer,
    parent: Option<SpanId>,
) -> Inputs {
    let (trace, t_gen) = timed(tr, "fleet.trace_gen", parent, || {
        FleetTrace::generate(sc.fleet.clone())
    });
    let (profiled, t_build) = timed(tr, "fleet.timeline_build", parent, || {
        ProfiledTrace::build_cached(trace, engine)
    });
    let ((stream, msgs), t_stream) = timed(tr, "bench.stream_gen", parent, || {
        let stream = request_day(&sc.serve, seed);
        let msgs = messages::generate(&stream);
        (stream, msgs)
    });
    let (cases, t_cases) = timed(tr, "bench.predict_cases", parent, || {
        predict_cases(&sc.fleet, sc.predict_draws, seed)
    });
    let (daemon, t_new) = timed(tr, "serve.new", parent, || {
        ServeLoop::new(&sc.serve, sc.serve_policy, engine).expect("daemon builds")
    });
    Inputs {
        profiled,
        stream,
        msgs,
        cases,
        daemon,
        parts: [
            ("FleetTrace::generate", t_gen),
            ("ProfiledTrace::build_cached", t_build),
            ("request stream", t_stream),
            ("prediction scenarios", t_cases),
            ("ServeLoop::new", t_new),
        ],
    }
}

/// Set-up repeated as `budget_s` allows; the inputs of the last pass and
/// every pass's wall time.
pub fn set_up_repeated(
    sc: &Scenario,
    seed: u64,
    engine: &Engine,
    budget_s: f64,
    tr: &mut Tracer,
) -> (Inputs, Vec<f64>) {
    let mut walls = Vec::new();
    let mut spent = 0.0;
    loop {
        let root = tr.open("setup", None);
        let t0 = Instant::now();
        let inputs = set_up(sc, seed, engine, tr, root);
        let wall = t0.elapsed().as_secs_f64();
        tr.close(root);
        walls.push(wall);
        spent += wall;
        if walls.len() >= MAX_SETUPS || spent + wall > budget_s {
            return (inputs, walls);
        }
    }
}

pub struct ServeResult {
    pub wall_s: f64,
    /// Per-request latency in µs, indexed by `Op as usize`.
    pub latency_us: [Vec<f64>; 7],
    pub requests: u64,
    pub failed: u64,
    pub admissions: u64,
    pub refusals: u64,
    pub expected_refusals: u64,
    pub digest: Digest,
    pub stats_line: String,
}

/// Drives the day's requests through the daemon, closed loop, one client.
pub fn serve_pass(
    daemon: &mut ServeLoop,
    msgs: &[Msg],
    engine: &Engine,
    tr: &mut Tracer,
) -> ServeResult {
    let root = tr.open("serve.pass", None);
    let mut latency_us: [Vec<f64>; 7] = Default::default();
    let mut classifier = Classifier::default();
    let mut digest = Digest::default();
    let (mut failed, mut expected_refusals) = (0u64, 0u64);
    let t0 = Instant::now();
    for (i, m) in msgs.iter().enumerate() {
        let t1 = Instant::now();
        let reply = daemon.handle_line(&m.line, engine);
        let took = t1.elapsed();
        latency_us[m.op as usize].push(took.as_secs_f64() * 1e6);
        tr.record(m.op.span(), t1, took, root, i as u64);
        match classifier.classify(m, &reply) {
            Outcome::Ok => {}
            Outcome::ExpectedRefusal => expected_refusals += 1,
            Outcome::Failed => {
                failed += 1;
                eprintln!("FAILED request {i}: {} => {reply}", m.line);
            }
        }
        digest.update(reply.as_bytes());
        digest.update(b"\n");
    }
    let wall_s = t0.elapsed().as_secs_f64();
    tr.close(root);
    let stats_line = daemon.handle_line("{\"op\":\"stats\"}", engine);
    digest.update(stats_line.as_bytes());
    ServeResult {
        wall_s,
        latency_us,
        requests: msgs.len() as u64,
        failed,
        admissions: classifier.admissions,
        refusals: classifier.refusals,
        expected_refusals,
        digest,
        stats_line,
    }
}

pub fn train_bank(sc: &Scenario, engine: &Engine) -> ModelBank<YalaModel> {
    ModelBank::train_yala(
        &sc.fleet.specs(),
        sc.fleet.noise_sigma,
        &sc.fleet.kinds,
        &train_config(),
        engine,
    )
}

pub struct PredictResult {
    /// Mean µs per `YalaModel::predict`, one value per pass.
    pub per_predict_us: Vec<f64>,
    pub mape_pct: f64,
    pub predictions: u64,
    pub digest: Digest,
}

/// The contender slates of every case, as the bank describes them.
pub fn contender_slates(
    bank: &ModelBank<YalaModel>,
    sc: &Scenario,
    cases: &[Case],
) -> Vec<Vec<Contender>> {
    let model = sc.fleet.portfolio[0].0.model();
    cases
        .iter()
        .map(|c| {
            c.rivals
                .iter()
                .map(|&(k, counters, mtbr)| bank.expect(model, k).as_contender(counters, mtbr))
                .collect()
        })
        .collect()
}

pub fn predict_phase(
    bank: &ModelBank<YalaModel>,
    sc: &Scenario,
    cases: &[Case],
    tr: &mut Tracer,
    parent: Option<SpanId>,
) -> PredictResult {
    // Predict on a clone, as every consumer does (`YalaPredictor::new`
    // clones its bank): the trained bank's trees sit wherever the engine
    // worker that trained each cell allocated them, which makes the same
    // traversal 40 % slower in some processes than in others.
    let bank = &bank.clone();
    let model = sc.fleet.portfolio[0].0.model();
    let slates = contender_slates(bank, sc, cases);
    let targets: Vec<&YalaModel> = cases.iter().map(|c| bank.expect(model, c.target)).collect();
    let mut preds = vec![0.0f64; cases.len()];
    let mut per_predict_us = Vec::with_capacity(PREDICT_PASSES);
    for pass in 0..PREDICT_PASSES {
        let t0 = Instant::now();
        for (i, c) in cases.iter().enumerate() {
            preds[i] = black_box(targets[i].predict(
                black_box(c.solo_tput),
                &c.traffic,
                black_box(&slates[i]),
            ));
        }
        let took = t0.elapsed();
        tr.record("core.predict_pass", t0, took, parent, pass as u64);
        per_predict_us.push(took.as_secs_f64() * 1e6 / cases.len() as f64);
    }
    let truths: Vec<f64> = cases.iter().map(|c| c.truth).collect();
    let mut digest = Digest::default();
    for p in &preds {
        digest.update(&p.to_bits().to_le_bytes());
    }
    PredictResult {
        per_predict_us,
        mape_pct: yala::ml::metrics::mape(&truths, &preds),
        predictions: (cases.len() * PREDICT_PASSES) as u64,
        digest,
    }
}

pub struct FleetResult {
    pub wall_s: f64,
    pub events: u64,
    pub violation_rate: f64,
    pub arrivals: u32,
    pub digest: Digest,
}

/// One fleet day under the Yala policy, stepped event by event. With
/// `spans` every step gets a span named after the event class it
/// consumed; `tel` is the telemetry handle the day runs under.
pub fn fleet_day(
    bank: &ModelBank<YalaModel>,
    profiled: &ProfiledTrace,
    engine: &Engine,
    tel: &mut Telemetry,
    tr: &mut Tracer,
    parent: Option<SpanId>,
    spans: bool,
) -> FleetResult {
    let t0 = Instant::now();
    let mut predictor = YalaPredictor::new(bank);
    let mut sim = FleetSim::new(
        profiled,
        FleetPolicy::ContentionAware {
            predictor: &mut predictor,
            diagnoser: Diagnoser::Yala(bank),
            online: None,
            qos_aware: true,
        },
        "yala",
    );
    if spans {
        let root = tr.open("fleet.day", parent);
        loop {
            let t1 = Instant::now();
            let Some(step) = sim.step(engine, tel) else {
                break;
            };
            let took = t1.elapsed();
            let (name, op) = match step {
                Processed::Departure(i) => ("fleet.step.departure", i),
                Processed::Fault(i) => ("fleet.step.fault", i),
                Processed::Arrival(i) => ("fleet.step.arrival", i),
                Processed::Audit(i) => ("fleet.step.audit", i),
            };
            tr.record(name, t1, took, root, op as u64);
        }
        tr.close(root);
    } else {
        while sim.step(engine, tel).is_some() {}
    }
    let events = sim.events_consumed() as u64;
    let (report, _) = timed(tr, "fleet.into_report", parent, || sim.into_report());
    let wall_s = t0.elapsed().as_secs_f64();
    FleetResult {
        wall_s,
        events,
        violation_rate: report.violation_rate(),
        arrivals: report.total_arrivals,
        digest: Digest::of(report.to_json().as_bytes()),
    }
}

/// What the measured window produced.
pub struct Window {
    pub wall_s: f64,
    pub serve: ServeResult,
    pub train_s: Vec<f64>,
    pub predict: Vec<PredictResult>,
    /// Fleet days without per-step spans — the ones `events_per_s` uses.
    pub fleet: Vec<FleetResult>,
    /// Fleet days with per-step spans (traced runs only).
    pub fleet_spanned: Vec<FleetResult>,
    /// The last round's bank (every round trains the same one).
    pub bank: ModelBank<YalaModel>,
}

/// The measured window: the serve pass, then rounds of train → predict →
/// fleet day until `seconds` have passed (at least [`MIN_ROUNDS`]). A
/// traced run adds a second, spanned fleet day to every round, so the
/// span-free days stay comparable with the untraced run and the pair
/// measures what the spans cost.
pub fn measure(
    sc: &Scenario,
    inputs: &mut Inputs,
    engine: &Engine,
    seconds: f64,
    tr: &mut Tracer,
) -> Window {
    let t0 = Instant::now();
    let serve = serve_pass(&mut inputs.daemon, &inputs.msgs, engine, tr);
    let mut train_s = Vec::new();
    let mut predict = Vec::new();
    let mut fleet = Vec::new();
    let mut fleet_spanned = Vec::new();
    let mut last_bank = None;
    while train_s.len() < MIN_ROUNDS || t0.elapsed().as_secs_f64() < seconds {
        let round = tr.open("round", None);
        let (bank, wall) = timed(tr, "core.train_yala", round, || train_bank(sc, engine));
        train_s.push(wall);
        predict.push(predict_phase(&bank, sc, &inputs.cases, tr, round));
        let mut tel = Telemetry::disabled();
        fleet.push(fleet_day(
            &bank,
            &inputs.profiled,
            engine,
            &mut tel,
            tr,
            round,
            false,
        ));
        if tr.enabled() {
            fleet_spanned.push(fleet_day(
                &bank,
                &inputs.profiled,
                engine,
                &mut tel,
                tr,
                round,
                true,
            ));
        }
        tr.close(round);
        last_bank = Some(bank);
    }
    let bank = last_bank.expect("at least one round");
    Window {
        wall_s: t0.elapsed().as_secs_f64(),
        serve,
        train_s,
        predict,
        fleet,
        fleet_spanned,
        bank,
    }
}

/// Checks of the window's outputs beyond "no request failed"; each
/// failed check is one line.
pub fn check(sc: &Scenario, inputs: &Inputs, w: &Window, smoke: bool) -> Vec<String> {
    let mut bad = Vec::new();
    let s = &w.serve;
    for (key, want) in [("admissions", s.admissions), ("rejections", s.refusals)] {
        let got = flat_num(&s.stats_line, key);
        if got != Some(want as f64) {
            bad.push(format!(
                "daemon stats {key} = {got:?}, replies counted {want}"
            ));
        }
    }
    let places = s.latency_us[Op::Place as usize].len();
    if !smoke && places < 1_000 {
        bad.push(format!("{places} place ops cannot back a p99 (need 1000)"));
    }
    let first = &w.predict[0];
    if w.predict.iter().any(|p| p.digest != first.digest) {
        bad.push("bank predictions differ between repetitions".to_string());
    }
    // The ceiling is frozen for the full scenario; a smoke bank of two
    // NFs scored on nine scenarios each is only required to be finite.
    let ceiling = if smoke {
        f64::INFINITY
    } else {
        sc.mape_ceiling_pct
    };
    if !first.mape_pct.is_finite() || first.mape_pct > ceiling {
        bad.push(format!(
            "mape_pct {} above the frozen ceiling {}",
            first.mape_pct, sc.mape_ceiling_pct
        ));
    }
    let days = || w.fleet.iter().chain(&w.fleet_spanned);
    let day = &w.fleet[0];
    if days().any(|d| d.digest != day.digest) {
        bad.push("fleet reports differ between repetitions".to_string());
    }
    if day.arrivals as usize != inputs.profiled.trace.records.len() {
        bad.push(format!(
            "fleet day saw {} arrivals, trace holds {}",
            day.arrivals,
            inputs.profiled.trace.records.len()
        ));
    }
    bad
}

/// The digest of everything deterministic the window produced.
pub fn output_digest(w: &Window) -> Digest {
    let mut d = Digest::default();
    for part in [&w.predict[0].digest, &w.fleet[0].digest, &w.serve.digest] {
        d.update(part.hex().as_bytes());
    }
    d
}

/// Wall of the fastest of `days`.
pub fn fleet_wall_s(days: &[FleetResult]) -> f64 {
    fastest(&days.iter().map(|d| d.wall_s).collect::<Vec<_>>())
}
