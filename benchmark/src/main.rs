//! `yala-benchmark`: the one benchmark every speed or simplicity claim on
//! this repository is measured with. See `README.md` in this directory.

mod compare;
mod messages;
mod metrics;
mod pipeline;
mod probes;
mod scenario;
mod stats;
mod trace;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Instant;

use metrics::{Values, END_TO_END, PER_LAYER};
use scenario::Scenario;
use stats::{fastest, median};
use trace::Tracer;
use yala::core::Engine;

const USAGE: &str = "usage:
  yala-benchmark run [--workload W] [--seed N] [--seconds N] [--trace [0|1]]
                     [--threads N] [--smoke] [--runs N] [--out DIR]
  yala-benchmark compare A.jsonl B.jsonl
  yala-benchmark describe

run with --workload measures one workload in this process and prints one
JSON result object as the last line. Without it, every workload runs in
its own child process (untraced --runs times, then at --threads 1, then
traced if --trace is on), outputs are cross-checked, and every untraced
run is appended to DIR/results.jsonl for `compare`.
compare judges run set B against run set A, one row per workload and
end-to-end metric, and exits non-zero on a `worse` row.
describe prints BENCHMARK.json as the code defines it.
workloads: zoo-train-predict fleet-yala-day serve-unique serve-catalog";

/// How long one run measures; `BENCHMARK.json`'s `run_seconds` and the
/// default of `--seconds`.
const RUN_SECONDS: u32 = 20;

#[derive(Debug, Clone)]
struct Opts {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    traced: bool,
    threads: usize,
    smoke: bool,
    runs: usize,
    out: PathBuf,
}

impl Opts {
    fn parse(args: &[String]) -> Result<Self, String> {
        let mut o = Opts {
            workload: None,
            seed: 11,
            seconds: RUN_SECONDS as f64,
            traced: false,
            // The engine width is pinned, never `Engine::auto()`: two
            // workers is what the reference sandbox has cores for, and a
            // result is only comparable with one at the same width.
            threads: 2,
            smoke: false,
            runs: 1,
            out: PathBuf::from(".bench_out"),
        };
        let mut it = args.iter().peekable();
        while let Some(a) = it.next() {
            let mut value = |name: &str| {
                it.next()
                    .cloned()
                    .ok_or_else(|| format!("{name} needs a value"))
            };
            match a.as_str() {
                "--workload" => o.workload = Some(value("--workload")?),
                "--seed" => o.seed = num(&value("--seed")?)?,
                "--seconds" => o.seconds = num(&value("--seconds")?)?,
                "--threads" => o.threads = num(&value("--threads")?)?,
                "--runs" => o.runs = num(&value("--runs")?)?,
                "--out" => o.out = PathBuf::from(value("--out")?),
                "--smoke" => o.smoke = true,
                "--trace" => {
                    o.traced = match it.peek().map(|s| s.as_str()) {
                        Some("0") => {
                            it.next();
                            false
                        }
                        Some("1") => {
                            it.next();
                            true
                        }
                        _ => true,
                    }
                }
                other => return Err(format!("unknown argument {other}")),
            }
        }
        if o.threads == 0 || o.runs == 0 || o.seconds.is_nan() || o.seconds < 0.0 {
            return Err("--threads and --runs must be positive, --seconds non-negative".into());
        }
        if o.smoke {
            o.seconds = o.seconds.min(1.0);
        }
        Ok(o)
    }
}

fn num<T: std::str::FromStr>(s: &str) -> Result<T, String> {
    s.parse().map_err(|_| format!("not a number: {s}"))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.split_first() {
        Some((cmd, rest)) if cmd == "run" => Opts::parse(rest).and_then(|o| match &o.workload {
            Some(_) => run_one(&o),
            None => run_all(&o),
        }),
        Some((cmd, rest)) if cmd == "compare" && rest.len() == 2 => {
            compare::compare_files(Path::new(&rest[0]), Path::new(&rest[1]))
        }
        Some((cmd, [])) if cmd == "describe" => {
            print!("{}", describe());
            Ok(true)
        }
        _ => Err(USAGE.to_string()),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::from(2)
        }
    }
}

/// `BENCHMARK.json`, generated so the contract file cannot drift from the
/// names, units and bounds the runner uses.
fn describe() -> String {
    let workloads: Vec<String> = scenario::NAMES
        .iter()
        .map(|n| {
            let sc = Scenario::by_name(n).expect("listed workload");
            format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", sc.name, sc.why)
        })
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|d| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                d.name,
                d.unit,
                d.better.name(),
                d.bound
            )
        })
        .collect();
    let per_layer: Vec<String> = PER_LAYER
        .iter()
        .map(|d| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                d.name,
                d.unit,
                d.better.name()
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\", \"run\"],\n  \
         \"paths\": [\"benchmark\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \
         \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \
         \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n")
    )
}

/// Peak resident set of this process in MiB (`VmHWM`).
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// The end-to-end metrics of a run, all but `peak_rss_mb`.
fn end_to_end(setup_walls: &[f64], inputs: &pipeline::Inputs, w: &pipeline::Window) -> Values {
    let mut v = Values::default();
    let serve = &w.serve;
    let place = &serve.latency_us[messages::Op::Place as usize];
    let query = &serve.latency_us[messages::Op::Query as usize];
    let day = &w.fleet[0];
    let passes: Vec<f64> = w
        .predict
        .iter()
        .flat_map(|p| p.per_predict_us.iter().copied())
        .collect();
    v.set("setup_s", median(setup_walls), setup_walls.len());
    v.set("train_s", fastest(&w.train_s), w.train_s.len());
    v.set("predict_us", fastest(&passes), passes.len());
    v.set("mape_pct", w.predict[0].mape_pct, inputs.cases.len());
    let events_per_s = day.events as f64 / pipeline::fleet_wall_s(&w.fleet);
    v.set("events_per_s", events_per_s, w.fleet.len());
    v.set(
        "sla_violation_rate",
        day.violation_rate,
        day.events as usize,
    );
    let req_per_s = serve.requests as f64 / serve.wall_s;
    v.set("req_per_s", req_per_s, serve.requests as usize);
    v.set("place_p50_us", median(place), place.len());
    v.set_p99("place_p99_us", place);
    v.set("query_p50_us", median(query), query.len());
    let admit_share = serve.admissions as f64 / place.len() as f64;
    v.set("admit_share", admit_share, place.len());
    v
}

/// Measures one workload in this process. `Ok(true)` when every check
/// passed.
fn run_one(o: &Opts) -> Result<bool, String> {
    let name = o.workload.as_deref().expect("caller checked");
    let mut sc =
        Scenario::by_name(name).ok_or_else(|| format!("unknown workload {name}\n{USAGE}"))?;
    if o.smoke {
        sc = sc.smoke();
    }
    let engine = Engine::with_threads(o.threads);
    let mut tr = Tracer::new(o.traced);
    println!(
        "workload {name}  seed {}  engine threads {} (machine has {})  closed loop, 1 client{}{}",
        o.seed,
        o.threads,
        std::thread::available_parallelism().map_or(0, usize::from),
        if o.traced { "  [traced]" } else { "" },
        if o.smoke { "  [smoke]" } else { "" },
    );

    let budget_s = if o.smoke {
        1.0
    } else {
        pipeline::SETUP_BUDGET_S
    };
    let (mut inputs, setup_walls) =
        pipeline::set_up_repeated(&sc, o.seed, &engine, budget_s, &mut tr);
    let w = pipeline::measure(&sc, &mut inputs, &engine, o.seconds, &mut tr);
    let mut problems = pipeline::check(&sc, &inputs, &w, o.smoke);

    let mut v = end_to_end(&setup_walls, &inputs, &w);
    let serve = &w.serve;
    if o.traced {
        probes::run(&sc, &inputs, &w, &engine, &mut tr, &mut v, &mut problems);
        std::fs::create_dir_all(&o.out).map_err(|e| format!("{}: {e}", o.out.display()))?;
        let path = o.out.join(format!("trace-{name}.jsonl"));
        std::fs::write(&path, tr.to_jsonl()).map_err(|e| format!("{}: {e}", path.display()))?;
        println!("wrote {} spans to {}", tr.len(), path.display());
    }
    // Last, so it covers everything the run allocated.
    v.set("peak_rss_mb", peak_rss_mib(), 1);

    let attempted = serve.requests
        + w.fleet
            .iter()
            .chain(&w.fleet_spanned)
            .map(|d| d.events)
            .sum::<u64>()
        + w.predict.iter().map(|p| p.predictions).sum::<u64>()
        + (w.bank.len() * w.train_s.len()) as u64;
    let failed = serve.failed + problems.len() as u64;
    let correct = serve.failed == 0 && problems.is_empty();
    let digest = pipeline::output_digest(&w).hex();

    println!(
        "window {:.2} s: serve pass {:.2} s ({} requests, {} expected refusals), {} rounds of train/predict/fleet; set-up x{}",
        w.wall_s, serve.wall_s, serve.requests, serve.expected_refusals, w.train_s.len(), setup_walls.len()
    );
    let list = |xs: &[f64]| {
        let v: Vec<String> = xs.iter().map(|x| format!("{x:.3}")).collect();
        v.join(" ")
    };
    println!("set-up passes (s): {}", list(&setup_walls));
    println!("train_yala (s): {}", list(&w.train_s));
    let day_walls: Vec<f64> = w.fleet.iter().map(|d| d.wall_s).collect();
    println!("fleet days (s): {}", list(&day_walls));
    let parts: Vec<String> = inputs
        .parts
        .iter()
        .map(|(what, s)| format!("{what} {s:.3} s"))
        .collect();
    println!("last set-up: {}", parts.join(", "));
    let defs: &[metrics::MetricDef] = if o.traced { &PER_LAYER } else { &END_TO_END };
    for (d, val) in v.in_order(defs) {
        println!(
            "  {:<38} {:>16.6} {:<6} n={}",
            d.name, val.value, d.unit, val.samples
        );
    }
    println!("ops attempted {attempted}, failed {failed}; output digest {digest}");
    for p in &problems {
        println!("CHECK FAILED: {p}");
    }
    // One flat line for `run`-all to collect and `compare` to read.
    let mut flat = format!(
        "{{\"workload\":\"{name}\",\"seed\":{},\"threads\":{},\"trace\":{},\"correct\":{correct},\"digest\":\"{digest}\"",
        o.seed, o.threads, o.traced as u8
    );
    for (d, val) in v.in_order(&END_TO_END) {
        flat.push_str(&format!(",\"{}\":{}", d.name, metrics::json_num(val.value)));
    }
    println!("flat {flat}}}");
    println!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{}}}",
        v.to_json(defs)
    );
    Ok(correct)
}

/// Runs this executable again with `args`; its stdout, echoed through.
fn child(args: &[String]) -> Result<(bool, String), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args(args)
        .output()
        .map_err(|e| format!("spawn: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    print!("{stdout}");
    eprint!("{}", String::from_utf8_lossy(&out.stderr));
    Ok((out.status.success(), stdout))
}

fn flat_line(stdout: &str) -> Option<&str> {
    stdout.lines().find_map(|l| l.strip_prefix("flat "))
}

/// Every workload, one process each, with the cross-run output checks.
fn run_all(o: &Opts) -> Result<bool, String> {
    let t0 = Instant::now();
    std::fs::create_dir_all(&o.out).map_err(|e| format!("{}: {e}", o.out.display()))?;
    let results = o.out.join("results.jsonl");
    let mut all_ok = true;
    let mut lines = String::new();
    for name in scenario::NAMES {
        let base = |threads: usize, traced: bool| {
            let mut a: Vec<String> = [
                "run",
                "--workload",
                name,
                "--seed",
                &o.seed.to_string(),
                "--seconds",
                &o.seconds.to_string(),
                "--threads",
                &threads.to_string(),
                "--trace",
                if traced { "1" } else { "0" },
                "--out",
            ]
            .map(String::from)
            .to_vec();
            a.push(o.out.display().to_string());
            if o.smoke {
                a.push("--smoke".into());
            }
            a
        };
        let mut digests: Vec<(String, String)> = Vec::new();
        let mut run = |label: String, args: Vec<String>, keep: bool| -> Result<(), String> {
            println!("\n=== {name}: {label}");
            let (ok, stdout) = child(&args)?;
            all_ok &= ok;
            let flat =
                flat_line(&stdout).ok_or_else(|| format!("{name} ({label}) printed no result"))?;
            if keep {
                lines.push_str(flat);
                lines.push('\n');
            }
            let digest = metrics::flat_str(flat, "digest").unwrap_or_default();
            digests.push((label, digest));
            Ok(())
        };
        for i in 0..o.runs {
            run(
                format!("untraced run {}/{}", i + 1, o.runs),
                base(o.threads, false),
                true,
            )?;
        }
        let other = if o.threads == 1 { 2 } else { 1 };
        run(format!("engine threads {other}"), base(other, false), false)?;
        if o.traced {
            run("traced".to_string(), base(o.threads, true), false)?;
        }
        let first = digests[0].1.clone();
        for (label, d) in &digests {
            if *d != first {
                all_ok = false;
                println!(
                    "CHECK FAILED: {name}: output digest of {label} is {d}, first run gave {first}"
                );
            }
        }
        if digests.iter().all(|(_, d)| *d == first) {
            println!(
                "{name}: output digest {first} equal across {} runs",
                digests.len()
            );
        }
    }
    std::fs::write(&results, lines).map_err(|e| format!("{}: {e}", results.display()))?;
    println!(
        "\nwrote {} ({:.0} s total){}",
        results.display(),
        t0.elapsed().as_secs_f64(),
        if all_ok { "" } else { "  — CHECKS FAILED" }
    );
    Ok(all_ok)
}
