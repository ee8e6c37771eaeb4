//! The per-layer ledger of a traced run. Boundary metrics are read off
//! the spans the measured window recorded; layer probes then replay an
//! every-k-th sample of the workload's own inputs through each layer's
//! public functions in isolation — private cache, cloned bank, own
//! simulators — so the program state under test is never touched.

use std::hint::black_box;
use std::time::Instant;

use yala::core::adaptive::adaptive_profile;
use yala::core::bank::matrix_cells;
use yala::core::engine::{scenario_seed, simulator_for};
use yala::core::{
    AdaptiveConfig, Contender, Engine, Observation, ObservationBuffer, ProfileCache, ProfileKey,
    TrafficKey, TrafficRanges, YalaModel,
};
use yala::fleet::NfRecord;
use yala::ml::gbr::GradientBoostingRegressor;
use yala::nf::runtime::{Profiler, DEFAULT_SAMPLE_PACKETS};
use yala::placement::{
    measure_entry, placed_from_entry, sims_for, Arrival, Placed, PlacementPredictor, YalaPredictor,
};
use yala::rxp::{l7_default_ruleset, Ruleset, ScanReport};
use yala::sim::Simulator;
use yala::telemetry::journal::{parse_line, Event, Journal};
use yala::telemetry::Telemetry;
use yala::traffic::{PacketBatch, PacketGenerator};
use yala_serve::ServeLoop;

use crate::messages::Op;
use crate::metrics::Values;
use crate::pipeline::{self, train_config, Inputs, Window};
use crate::scenario::{Scenario, REFERENCE_SEED};
use crate::stats::median;
use crate::trace::{SpanId, Tracer};

/// Inputs sampled per probe: enough for a stable median of a
/// millisecond-scale call without doubling the run.
const SAMPLES: usize = 128;
/// Calls per timed loop for nanosecond-scale functions, where a clock
/// read per call would cost as much as the call.
const LOOP_CALLS: usize = 20_000;

struct Probe<'a> {
    tr: &'a mut Tracer,
    root: Option<SpanId>,
}

impl Probe<'_> {
    /// Times each `f(i)` for `i in 0..n` on its own; nanoseconds each.
    fn each(&mut self, name: &'static str, n: usize, mut f: impl FnMut(usize)) -> Vec<f64> {
        (0..n)
            .map(|i| {
                let t0 = Instant::now();
                f(i);
                let took = t0.elapsed();
                self.tr.record(name, t0, took, self.root, i as u64);
                took.as_nanos() as f64
            })
            .collect()
    }

    /// Times one loop of `calls` calls; nanoseconds per call.
    fn looped(&mut self, name: &'static str, calls: usize, mut f: impl FnMut(usize)) -> f64 {
        let t0 = Instant::now();
        for i in 0..calls {
            f(i);
        }
        let took = t0.elapsed();
        self.tr.record(name, t0, took, self.root, calls as u64);
        took.as_nanos() as f64 / calls as f64
    }
}

fn med_or_zero(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        median(xs)
    }
}

/// Every `len/SAMPLES`-th record of the day's request stream.
fn sample_records(records: &[NfRecord]) -> Vec<&NfRecord> {
    let step = (records.len() / SAMPLES).max(1);
    records.iter().step_by(step).take(SAMPLES).collect()
}

pub fn run(
    sc: &Scenario,
    inputs: &Inputs,
    w: &Window,
    engine: &Engine,
    tr: &mut Tracer,
    v: &mut Values,
    problems: &mut Vec<String>,
) {
    boundary(inputs, w, tr, v);
    let root = tr.open("probe", None);
    let mut p = Probe { tr, root };
    let specs = sc.fleet.specs();
    let spec0 = specs[0].clone();
    let model0 = spec0.model();
    let sigma = sc.fleet.noise_sigma;
    let recs = sample_records(&inputs.stream.records);
    let stream_specs = sc.serve.specs();
    let seed_of = |r: &NfRecord| REFERENCE_SEED.wrapping_add(r.id as u64);

    // traffic: generator construction (flow-set synthesis) and batch fill.
    let mut gens: Vec<PacketGenerator> = Vec::with_capacity(recs.len());
    let new_ns = p.each("traffic.generator_new", recs.len(), |i| {
        gens.push(PacketGenerator::new(recs[i].start, seed_of(recs[i])));
    });
    v.set("traffic.gen_new_us", median(&new_ns) / 1e3, new_ns.len());
    let mut batch = PacketBatch::new();
    let fill_ns = p.each("traffic.fill_batch", gens.len(), |i| {
        for _ in 0..4 {
            gens[i].fill_batch(&mut batch, 64);
        }
    });
    v.set(
        "traffic.fill_ns_per_pkt",
        median(&fill_ns) / 256.0,
        fill_ns.len(),
    );

    // nf: packet replay through the real NF at the tenants' own traffic.
    let mut profiler = Profiler::new();
    let nf_ns = p.each("nf.workload_with", recs.len(), |i| {
        black_box(
            recs[i]
                .kind
                .workload_with(&mut profiler, recs[i].start, seed_of(recs[i])),
        );
    });
    let nf_us: Vec<f64> = nf_ns.iter().map(|ns| ns / 1e3).collect();
    v.set("nf.workload_us_p50", median(&nf_us), nf_us.len());
    v.set_p99("nf.workload_us_p99", &nf_us);
    v.set(
        "nf.pkts_per_s",
        (DEFAULT_SAMPLE_PACKETS * nf_ns.len()) as f64 / (nf_ns.iter().sum::<f64>() / 1e9),
        nf_ns.len(),
    );

    // rxp: fused scan over payloads at the regex tenants' traffic (every
    // sampled tenant when the workload has no regex NF), and a compile.
    let rules = l7_default_ruleset();
    let mut report = ScanReport::with_rules(rules.len());
    let regex_gens: Vec<usize> = (0..recs.len())
        .filter(|&i| recs[i].kind.uses_regex())
        .collect();
    let scan_over: Vec<usize> = if regex_gens.is_empty() {
        (0..recs.len()).collect()
    } else {
        regex_gens
    };
    let payloads: Vec<PacketBatch> = scan_over
        .iter()
        .map(|&i| {
            let mut b = PacketBatch::new();
            gens[i].fill_batch(&mut b, 64);
            b
        })
        .collect();
    let scan_ns = p.each("rxp.scan_into", payloads.len(), |j| {
        for pkt in payloads[j].iter() {
            rules.scan_into(pkt.payload, &mut report);
        }
        black_box(&report);
    });
    let scanned_bytes: usize = payloads.iter().map(PacketBatch::payload_bytes).sum();
    v.set(
        "rxp.scan_mb_per_s",
        scanned_bytes as f64 / 1e6 / (scan_ns.iter().sum::<f64>() / 1e9),
        scan_over.len(),
    );
    let patterns: Vec<(String, String)> = rules
        .rules()
        .iter()
        .map(|r| (r.name.clone(), r.regex.pattern().to_string()))
        .collect();
    let compile_ns = p.each("rxp.compile", 3, |_| {
        let compiled = Ruleset::compile(patterns.iter().map(|(n, p)| (n.as_str(), p.as_str())));
        black_box(compiled.expect("the default patterns compile"));
    });
    v.set(
        "rxp.compile_ms",
        median(&compile_ns) / 1e6,
        compile_ns.len(),
    );

    // sim: the solver on the reference day's profiled tenants.
    let tenants: Vec<&Placed> = inputs
        .profiled
        .timelines
        .iter()
        .map(|t| &t.snapshots[0].1)
        .filter(|pl| pl.supported_on(model0))
        .collect();
    let step = (tenants.len() / SAMPLES).max(1);
    let tenants: Vec<&Placed> = tenants.into_iter().step_by(step).take(SAMPLES).collect();
    let mut sim = Simulator::with_noise(spec0.clone(), sigma, REFERENCE_SEED);
    let solo_ns = p.each("sim.solo", tenants.len(), |i| {
        black_box(sim.solo(&tenants[i].workload));
    });
    v.set("sim.solo_us", median(&solo_ns) / 1e3, solo_ns.len());
    for (name, metric, n) in [
        ("sim.co_run.n2", "sim.corun_us_n2", 2usize),
        ("sim.co_run.n4", "sim.corun_us_n4", 4),
    ] {
        let groups: Vec<Vec<_>> = tenants
            .chunks_exact(n)
            .map(|g| g.iter().map(|pl| pl.workload.clone()).collect())
            .collect();
        let ns = p.each(name, groups.len(), |i| {
            black_box(sim.co_run(&groups[i]));
        });
        v.set(metric, med_or_zero(&ns) / 1e3, ns.len());
    }

    // core + ml: one adaptive profiling run, its GBR fit, every cell
    // trained alone, and the bank at one engine thread.
    let kind0 = sc.fleet.kinds[0];
    let cfg = train_config();
    let mut run = None;
    let adaptive_ns = p.each("core.adaptive_profile", 1, |_| {
        let mut s = simulator_for(&spec0, sigma, scenario_seed(cfg.seed, 0));
        run = Some(adaptive_profile(
            &mut s,
            kind0,
            TrafficRanges::default(),
            &AdaptiveConfig::default(),
        ));
    });
    let run = run.expect("the probe ran once");
    v.set("core.adaptive_profile_s", adaptive_ns[0] / 1e9, 1);
    v.set("core.profile_measurements", run.measurements as f64, 1);
    let mut gbr = None;
    let fit_ns = p.each("ml.gbr_fit", 3, |_| {
        gbr = Some(GradientBoostingRegressor::fit(
            &run.dataset,
            &cfg.gbr,
            cfg.seed,
        ));
    });
    v.set("ml.gbr_fit_ms", median(&fit_ns) / 1e6, fit_ns.len());
    let gbr = gbr.expect("fitted");
    let rows = run.dataset.len();
    let predict_ns = p.looped("ml.gbr_predict", LOOP_CALLS, |i| {
        black_box(gbr.predict(run.dataset.row(i % rows)));
    });
    v.set("ml.gbr_predict_ns", predict_ns, LOOP_CALLS);
    let cells = matrix_cells(&specs, &sc.fleet.kinds);
    let cell_ns = p.each("core.yala_model_train", cells.len(), |i| {
        let (s, kind) = cells[i];
        let mut sim = simulator_for(&specs[s], sigma, scenario_seed(cfg.seed, i));
        black_box(YalaModel::train(&mut sim, kind, &cfg));
    });
    v.set(
        "core.train_cell_s_p50",
        median(&cell_ns) / 1e9,
        cell_ns.len(),
    );
    let other = if engine.threads() == 1 { 2 } else { 1 };
    // On its own thread: a one-thread engine runs cells inline, and this
    // thread's `cached_workload` cache is warm from the cells above.
    let other_ns = p.each("core.train_yala.other_width", 1, |_| {
        std::thread::scope(|s| {
            s.spawn(|| black_box(pipeline::train_bank(sc, &Engine::with_threads(other))))
                .join()
                .expect("training thread")
        });
    });
    let (t1, t2) = if other == 1 {
        (other_ns[0] / 1e9, median(&w.train_s))
    } else {
        (median(&w.train_s), other_ns[0] / 1e9)
    };
    v.set("core.train_speedup_t2", t1 / t2, 1);

    // core::predictor: one model's predict at 1 and 3 contenders.
    let slates = pipeline::contender_slates(&w.bank, sc, &inputs.cases);
    for (name, metric, n) in [
        ("core.predict.c1", "core.model_predict_ns_c1", 1usize),
        ("core.predict.c3", "core.model_predict_ns_c3", 3),
    ] {
        // A workload with fewer than four NFs has no three-rival case;
        // its slates are cycled up to three contenders.
        let sized: Vec<(usize, Vec<Contender>)> = slates
            .iter()
            .enumerate()
            .filter(|(_, s)| !s.is_empty())
            .map(|(i, s)| (i, s.iter().cycle().take(n).cloned().collect()))
            .take(256)
            .collect();
        let ns = p.looped(name, LOOP_CALLS, |i| {
            let (ci, slate) = &sized[i % sized.len()];
            let c = &inputs.cases[*ci];
            black_box(w.bank.expect(model0, c.target).predict(
                c.solo_tput,
                &c.traffic,
                black_box(slate),
            ));
        });
        v.set(metric, ns, LOOP_CALLS);
    }

    // placement + core::profile_cache: the place path's pieces on the
    // stream's own (kind, traffic) pairs, then the same work through a
    // private cache, missing and hitting.
    let mut sims_built = Vec::with_capacity(recs.len());
    let sims_ns = p.each("placement.sims_for", recs.len(), |i| {
        sims_built.push(sims_for(
            &stream_specs,
            recs[i].kind,
            sc.serve.noise_sigma,
            REFERENCE_SEED,
            recs[i].id as usize,
        ));
    });
    v.set(
        "placement.sims_for_us",
        median(&sims_ns) / 1e3,
        sims_ns.len(),
    );
    let mut entries = Vec::with_capacity(recs.len());
    let measure_ns = p.each("placement.measure_entry", recs.len(), |i| {
        entries.push(measure_entry(
            &mut sims_built[i],
            recs[i].kind,
            recs[i].start,
            seed_of(recs[i]),
        ));
    });
    v.set(
        "placement.measure_entry_us",
        median(&measure_ns) / 1e3,
        measure_ns.len(),
    );
    let arrivals: Vec<Arrival> = recs
        .iter()
        .map(|r| Arrival {
            kind: r.kind,
            traffic: r.start,
            sla_drop: r.sla_drop,
            qos: r.qos,
        })
        .collect();
    let from_entry_ns = p.looped("placement.placed_from_entry", LOOP_CALLS, |i| {
        let j = i % entries.len();
        black_box(placed_from_entry(
            &entries[j],
            arrivals[j].clone(),
            Some("nf0"),
        ));
    });
    v.set("placement.placed_from_entry_ns", from_entry_ns, LOOP_CALLS);
    let cache = ProfileCache::new();
    let keys: Vec<ProfileKey> = recs
        .iter()
        .map(|r| ProfileKey {
            kind: r.kind,
            traffic: TrafficKey::exact(&r.start),
            seed: seed_of(r),
        })
        .collect();
    let miss_ns = p.each("core.cache_miss", recs.len(), |i| {
        black_box(cache.get_or_measure(&keys[i], || {
            let mut sims = sims_for(
                &stream_specs,
                recs[i].kind,
                sc.serve.noise_sigma,
                REFERENCE_SEED,
                recs[i].id as usize,
            );
            measure_entry(&mut sims, recs[i].kind, recs[i].start, seed_of(recs[i]))
        }));
    });
    v.set("core.cache_miss_us", median(&miss_ns) / 1e3, miss_ns.len());
    let hit_ns = p.looped("core.cache_hit", LOOP_CALLS, |i| {
        black_box(cache.get_or_measure(&keys[i % keys.len()], || {
            unreachable!("every key was measured by the miss probe")
        }));
    });
    v.set("core.cache_hit_ns", hit_ns, LOOP_CALLS);

    // placement::YalaPredictor on 2- and 4-resident NICs, and the
    // daemon's admission test (clone the residents, predict them all).
    let mut predictor = YalaPredictor::new(&w.bank);
    let residents = |n: usize| -> Vec<Vec<Placed>> {
        tenants
            .chunks_exact(n)
            .map(|g| g.iter().map(|&pl| pl.clone()).collect())
            .collect()
    };
    for (name, metric, n) in [
        (
            "placement.predict.r2",
            "placement.predictor_predict_ns_r2",
            2usize,
        ),
        (
            "placement.predict.r4",
            "placement.predictor_predict_ns_r4",
            4,
        ),
    ] {
        let nics = residents(n);
        let ns = p.looped(name, LOOP_CALLS, |i| {
            let nic = &nics[i % nics.len()];
            black_box(predictor.predict(model0, i % n, nic));
        });
        v.set(metric, ns, LOOP_CALLS);
    }
    let nics = residents(4);
    let admit_ns = p.each("placement.admission_check", nics.len() * 8, |i| {
        let nic = &nics[i % nics.len()];
        let mut cand: Vec<Placed> = nic[..3].to_vec();
        cand.push(nic[3].clone());
        black_box((0..4).all(|t| predictor.predict(model0, t, &cand) >= cand[t].sla_floor(model0)));
    });
    v.set(
        "placement.admission_check_us_r4",
        median(&admit_ns) / 1e3,
        admit_ns.len(),
    );

    // core::bank refine: one absorb batch into a cloned bank.
    let mut buffer = ObservationBuffer::new();
    for (i, pl) in tenants.iter().take(48).enumerate() {
        let solo = pl.solo(model0).solo_tput;
        buffer.push(Observation {
            model: model0,
            kind: pl.arrival.kind,
            traffic: pl.arrival.traffic,
            competitors: tenants[(i + 1) % tenants.len()].solo(model0).counters,
            accel_pressure: Vec::new(),
            solo_tput: solo,
            measured_tput: solo * (1.0 - 0.3 * (i % 4) as f64 / 4.0),
        });
    }
    let mut banks: Vec<_> = (0..3).map(|_| w.bank.clone()).collect();
    let refine_ns = p.each("core.bank_refine", banks.len(), |i| {
        black_box(banks[i].refine(&buffer, engine));
    });
    v.set("core.refine_ms", median(&refine_ns) / 1e6, refine_ns.len());

    // telemetry: the wire parser on the day's lines, the journal, and the
    // fleet day again with telemetry enabled.
    let parse_ns = p.looped("telemetry.parse_line", LOOP_CALLS, |i| {
        black_box(parse_line(&inputs.msgs[i % inputs.msgs.len()].line));
    });
    v.set("telemetry.parse_line_ns", parse_ns, LOOP_CALLS);
    let mut journal = Journal::with_capacity(LOOP_CALLS);
    let push_ns = p.looped("telemetry.journal_push", LOOP_CALLS, |i| {
        journal.push(
            i as u64,
            Event::Place {
                id: i as u32,
                nic: (i % 64) as u32,
                reason: "probe",
            },
        );
    });
    v.set("telemetry.journal_push_ns", push_ns, LOOP_CALLS);
    let jsonl_ns = p.each("telemetry.to_jsonl", 3, |_| {
        black_box(journal.to_jsonl());
    });
    v.set(
        "telemetry.jsonl_ns_per_event",
        median(&jsonl_ns) / journal.len() as f64,
        jsonl_ns.len(),
    );
    let observed: Vec<_> = (0..w.fleet.len().min(3))
        .map(|_| {
            let mut tel = Telemetry::enabled();
            pipeline::fleet_day(
                &w.bank,
                &inputs.profiled,
                engine,
                &mut tel,
                p.tr,
                root,
                false,
            )
        })
        .collect();
    if observed.iter().any(|d| d.digest != w.fleet[0].digest) {
        problems.push("fleet report differs with telemetry enabled".to_string());
    }
    v.set(
        "telemetry.enabled_overhead_share",
        pipeline::fleet_wall_s(&observed) / pipeline::fleet_wall_s(&w.fleet) - 1.0,
        observed.len(),
    );

    // serve: the end-of-day daemon snapshotted and restored by replay.
    let mut snap = String::new();
    let snap_ns = p.each("serve.snapshot", 3, |_| {
        snap = inputs.daemon.snapshot();
    });
    v.set("serve.snapshot_ms", median(&snap_ns) / 1e6, snap_ns.len());
    let mut restored = None;
    let restore_ns = p.each("serve.restore", 1, |_| {
        restored = Some(ServeLoop::restore(
            &sc.serve,
            sc.serve_policy,
            engine,
            &snap,
        ));
    });
    v.set("serve.restore_s", restore_ns[0] / 1e9, 1);
    match restored.expect("the probe ran once") {
        Ok(mut daemon) => {
            let stats = daemon.handle_line("{\"op\":\"stats\"}", engine);
            if stats != w.serve.stats_line {
                problems.push(format!(
                    "restored daemon reports {stats}, the original {}",
                    w.serve.stats_line
                ));
            }
        }
        Err(e) => problems.push(format!("restore of the end-of-day snapshot failed: {e}")),
    }

    // The place ledger, from outside: what the probes say one place costs
    // against what a place took end to end. A contention-aware daemon
    // runs at least one admission test per shared-NIC candidate; a
    // prediction-free one runs none.
    let admission = if sc.serve_policy == "greedy" {
        0.0
    } else {
        median(&admit_ns) / 1e3
    };
    let ledger_us = parse_ns / 1e3
        + median(&sims_ns) / 1e3
        + median(&measure_ns) / 1e3
        + from_entry_ns / 1e3
        + admission;
    let place_p50 = median(&w.serve.latency_us[Op::Place as usize]);
    let coverage = ledger_us / place_p50;
    v.set("serve.place_ledger_coverage", coverage, 1);
    if !(0.8..=1.2).contains(&coverage) {
        println!(
            "FLAG: serve.place_ledger_coverage {coverage:.3} is outside 0.8-1.2: the probed \
             layers account for {ledger_us:.1} us of a {place_p50:.1} us place"
        );
    }
    p.tr.close(root);
}

/// Per-layer metrics that are sums and medians over boundary spans.
fn boundary(inputs: &Inputs, w: &Window, tr: &Tracer, v: &mut Values) {
    let med_ns = |name: &str| {
        let d = tr.durations_ns(name);
        (med_or_zero(&d), d.len())
    };
    let (gen, n) = med_ns("fleet.trace_gen");
    v.set("fleet.trace_gen_s", gen / 1e9, n);
    let (build, n) = med_ns("fleet.timeline_build");
    v.set("fleet.timeline_build_s", build / 1e9, n);
    let st = inputs.profiled.stats;
    v.set(
        "fleet.timeline_hit_share",
        st.hits as f64 / st.lookups.max(1) as f64,
        st.lookups as usize,
    );
    let (new, n) = med_ns("serve.new");
    v.set("serve.new_s", new / 1e9, n);

    let arrival = tr.durations_ns("fleet.step.arrival");
    let departure = tr.durations_ns("fleet.step.departure");
    let fault = tr.durations_ns("fleet.step.fault");
    let audit = tr.durations_ns("fleet.step.audit");
    let total: f64 = [&arrival, &departure, &fault, &audit]
        .iter()
        .map(|d| d.iter().sum::<f64>())
        .sum();
    v.set(
        "fleet.step_arrival_us_p50",
        med_or_zero(&arrival) / 1e3,
        arrival.len(),
    );
    let arrival_us: Vec<f64> = arrival.iter().map(|ns| ns / 1e3).collect();
    v.set_p99("fleet.step_arrival_us_p99", &arrival_us);
    v.set(
        "fleet.step_arrival_share",
        arrival.iter().sum::<f64>() / total.max(1.0),
        arrival.len(),
    );
    v.set(
        "fleet.step_departure_ns_p50",
        med_or_zero(&departure),
        departure.len(),
    );
    v.set(
        "fleet.step_fault_us_p50",
        med_or_zero(&fault) / 1e3,
        fault.len(),
    );
    v.set(
        "fleet.step_audit_ms_p50",
        med_or_zero(&audit) / 1e6,
        audit.len(),
    );
    v.set("fleet.events", w.fleet[0].events as f64, 1);
    let (report, n) = med_ns("fleet.into_report");
    v.set("fleet.into_report_ms", report / 1e6, n);

    for op in Op::ALL {
        let lat = &w.serve.latency_us[op as usize];
        v.set(op.metric(), med_or_zero(lat), lat.len());
    }
    v.set("serve.ops", w.serve.requests as f64, 1);
    v.set("serve.failed_ops", w.serve.failed as f64, 1);

    // What the spans cost: each round ran the same fleet day with and
    // without a span per event. (The serve pass reads the clock per
    // request traced or not, so its spans add one Vec push each.)
    v.set(
        "trace.overhead_share",
        pipeline::fleet_wall_s(&w.fleet_spanned) / pipeline::fleet_wall_s(&w.fleet) - 1.0,
        w.fleet_spanned.len(),
    );
}
