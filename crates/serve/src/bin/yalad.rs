//! `yalad` — the yala placement daemon and trace tool.
//!
//! Three modes, one determinism contract (same inputs ⇒ byte-identical
//! outputs):
//!
//! * `yalad gen-trace --shape diurnal --seed 42 --out day.yala-trace`
//!   writes a recorded-arrivals `.yala-trace` file (header + NF records +
//!   fault events). The same file is a CI fixture and a production audit
//!   log: whatever wrote it, `--replay` re-drives it identically.
//! * `yalad replay day.yala-trace --policy greedy --out-report r.json
//!   --out-journal j.jsonl` profiles the trace, runs the fleet event loop
//!   to completion, and writes the final report and telemetry journal.
//!   `--checkpoint-at-audit K --snapshot s.snap` stops at the K-th audit,
//!   snapshots, and exits (a deliberate mid-stream kill); a second
//!   invocation with `--restore s.snap` re-steps to that point and
//!   finishes the run — report and journal byte-identical to the
//!   uninterrupted ones (CI's `serve-smoke` job asserts exactly this).
//! * `yalad serve --config day.yala-trace --policy greedy` answers the
//!   JSONL request protocol on stdin/stdout (see `yala-serve`); the
//!   `checkpoint` op writes the serve snapshot to `--snapshot`.
//!
//! All wire and snapshot formats are versioned; see DESIGN.md, "Serving
//! placement".

use std::io::{BufRead, Write};
use std::process::exit;

use yala_core::Engine;
use yala_fleet::{
    read_trace, restore_fleet, snapshot_fleet, write_trace, BuildOpts, FaultPlan, FleetConfig,
    FleetSim, FleetTrace, NamedPolicy, OnlineRefine, Processed, ProfiledTrace,
};
use yala_serve::ServeLoop;
use yala_telemetry::Telemetry;

const USAGE: &str = "\
yalad — yala placement daemon / trace tool

USAGE:
  yalad gen-trace --shape <poisson|diurnal|flash> --seed <N> --out <FILE>
        [--nics <N>] [--mixed] [--duration-s <N>] [--interarrival-s <X>]
        [--lifetime-s <X>] [--audit-period-s <N>] [--faults]
        [--guaranteed-fraction <X>]
  yalad replay <FILE.yala-trace> --policy <mono|greedy|yala|yala-online>
        [--cached] [--threads <N>] [--min-observations <N>]
        [--out-report <FILE>] [--out-journal <FILE>]
        [--checkpoint-at-audit <K> --snapshot <FILE>] [--restore <FILE>]
  yalad serve --config <FILE.yala-trace> --policy <mono|greedy|yala|yala-online>
        [--threads <N>] [--snapshot <FILE>] [--restore <FILE>]
";

fn die(msg: &str) -> ! {
    eprintln!("yalad: {msg}");
    eprintln!("{USAGE}");
    exit(2);
}

/// Tiny deterministic flag parser: `--key value` pairs plus bare flags.
struct Flags {
    args: Vec<String>,
}

impl Flags {
    fn new(args: Vec<String>) -> Self {
        Self { args }
    }

    fn take_flag(&mut self, name: &str) -> bool {
        if let Some(i) = self.args.iter().position(|a| a == name) {
            self.args.remove(i);
            true
        } else {
            false
        }
    }

    fn take_value(&mut self, name: &str) -> Option<String> {
        let i = self.args.iter().position(|a| a == name)?;
        if i + 1 >= self.args.len() {
            die(&format!("{name} needs a value"));
        }
        let v = self.args.remove(i + 1);
        self.args.remove(i);
        Some(v)
    }

    fn take_parsed<T: std::str::FromStr>(&mut self, name: &str) -> Option<T> {
        self.take_value(name).map(|v| {
            v.parse()
                .unwrap_or_else(|_| die(&format!("{name} got invalid value {v:?}")))
        })
    }

    fn finish(self) -> Vec<String> {
        for a in &self.args {
            if a.starts_with("--") {
                die(&format!("unknown flag {a}"));
            }
        }
        self.args
    }
}

fn read_file(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| die(&format!("reading {path}: {e}")))
}

fn write_file(path: &str, text: &str) {
    std::fs::write(path, text).unwrap_or_else(|e| die(&format!("writing {path}: {e}")))
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        die("missing mode");
    }
    let mode = args.remove(0);
    let flags = Flags::new(args);
    match mode.as_str() {
        "gen-trace" => gen_trace(flags),
        "replay" => replay(flags),
        "serve" => serve(flags),
        "--help" | "-h" | "help" => println!("{USAGE}"),
        other => die(&format!("unknown mode {other}")),
    }
}

fn gen_trace(mut f: Flags) {
    let shape = f
        .take_value("--shape")
        .unwrap_or_else(|| die("gen-trace needs --shape"));
    let seed: u64 = f
        .take_parsed("--seed")
        .unwrap_or_else(|| die("gen-trace needs --seed"));
    let out = f
        .take_value("--out")
        .unwrap_or_else(|| die("gen-trace needs --out"));
    let nics: usize = f.take_parsed("--nics").unwrap_or(16);
    let mixed = f.take_flag("--mixed");
    let mut cfg = if mixed {
        FleetConfig::mixed(seed, nics)
    } else {
        let mut c = FleetConfig::small(seed);
        c.portfolio = vec![(yala_sim::NicSpec::bluefield2(), nics)];
        c
    };
    if let Some(d) = f.take_parsed("--duration-s") {
        cfg.duration_s = d;
    }
    if let Some(x) = f.take_parsed("--interarrival-s") {
        cfg.mean_interarrival_s = x;
    }
    if let Some(x) = f.take_parsed("--lifetime-s") {
        cfg.mean_lifetime_s = x;
    }
    if let Some(p) = f.take_parsed("--audit-period-s") {
        cfg.audit_period_s = p;
    }
    if let Some(g) = f.take_parsed("--guaranteed-fraction") {
        cfg.guaranteed_fraction = g;
    }
    if f.take_flag("--faults") {
        // A modest preset: a couple of hard failures plus two announced
        // drains over a simulated day, scaled by the horizon.
        cfg.faults = FaultPlan {
            mtbf_s: 6.0 * 3_600.0,
            mean_repair_s: 900.0,
            drains: 2,
            drain_notice_s: 600,
            drain_offline_s: 900,
        };
    }
    if !f.finish().is_empty() {
        die("gen-trace takes no positional arguments");
    }
    let trace = match shape.as_str() {
        "poisson" => FleetTrace::generate(cfg),
        "diurnal" => FleetTrace::diurnal(cfg),
        "flash" => FleetTrace::flash_crowd(cfg),
        other => die(&format!("unknown shape {other}")),
    };
    let text = write_trace(&trace);
    write_file(&out, &text);
    println!(
        "wrote {out}: {} records, {} faults, shape {shape}, seed {seed}",
        trace.records.len(),
        trace.faults.len()
    );
}

fn replay(mut f: Flags) {
    let policy_name = f
        .take_value("--policy")
        .unwrap_or_else(|| die("replay needs --policy"));
    let cached = f.take_flag("--cached");
    let threads: usize = f.take_parsed("--threads").unwrap_or(0);
    let min_observations: usize = f.take_parsed("--min-observations").unwrap_or(48);
    let out_report = f.take_value("--out-report");
    let out_journal = f.take_value("--out-journal");
    let checkpoint_at: Option<u32> = f.take_parsed("--checkpoint-at-audit");
    let snapshot_path = f.take_value("--snapshot");
    let restore_path = f.take_value("--restore");
    let positional = f.finish();
    let [trace_path] = positional.as_slice() else {
        die("replay needs exactly one trace file");
    };
    if checkpoint_at.is_some() && snapshot_path.is_none() {
        die("--checkpoint-at-audit needs --snapshot");
    }
    let engine = Engine::with_threads(threads.max(1));
    let trace = read_trace(&read_file(trace_path))
        .unwrap_or_else(|e| die(&format!("parsing {trace_path}: {e}")));
    // The policy's bank is trained before the trace is profiled, and
    // outlives the simulator that borrows it.
    let online = OnlineRefine { min_observations };
    let mut policy =
        NamedPolicy::new(&trace.config, &policy_name, online, &engine).unwrap_or_else(|e| die(&e));
    let profiled = if cached {
        ProfiledTrace::build_cached(trace, &engine)
    } else {
        ProfiledTrace::build(trace, &engine, BuildOpts::default())
    };
    // The journal is part of the determinism surface: always on, sim-time.
    let mut tel = Telemetry::enabled();
    let mut sim = match &restore_path {
        Some(p) => restore_fleet(
            &profiled,
            policy.lend(true),
            &policy_name,
            &read_file(p),
            &engine,
            &mut tel,
        )
        .unwrap_or_else(|e| die(&format!("restoring {p}: {e}"))),
        None => FleetSim::new(&profiled, policy.lend(true), &policy_name),
    };
    let mut audits = 0u32;
    while let Some(ev) = sim.step(&engine, &mut tel) {
        if let Processed::Audit(_) = ev {
            audits += 1;
            if Some(audits) == checkpoint_at {
                let text = snapshot_fleet(&sim, Some(&tel.sink().expect("enabled").journal));
                let path = snapshot_path.as_deref().expect("checked above");
                write_file(path, &text);
                println!(
                    "checkpointed to {path} at audit {audits} \
                     ({} events consumed); exiting",
                    sim.events_consumed()
                );
                return;
            }
        }
    }
    let journal_text = tel.sink().expect("enabled").journal.to_jsonl();
    let report = sim.into_report();
    match &out_report {
        Some(p) => write_file(p, &report.to_json()),
        None => println!("{}", report.to_json()),
    }
    if let Some(p) = &out_journal {
        write_file(p, &journal_text);
    }
    eprintln!(
        "replay done: policy {policy_name}, {} arrivals, {} rejected, {} migrations",
        report.total_arrivals, report.rejected, report.migrations
    );
}

fn serve(mut f: Flags) {
    let config_path = f
        .take_value("--config")
        .unwrap_or_else(|| die("serve needs --config"));
    let policy_name = f
        .take_value("--policy")
        .unwrap_or_else(|| die("serve needs --policy"));
    let threads: usize = f.take_parsed("--threads").unwrap_or(0);
    let snapshot_path = f.take_value("--snapshot");
    let restore_path = f.take_value("--restore");
    if !f.finish().is_empty() {
        die("serve takes no positional arguments");
    }
    let engine = Engine::with_threads(threads.max(1));
    // The trace header doubles as the daemon's config file; its records
    // (if any) are ignored here — clients drive arrivals over the wire.
    let cfg = read_trace(&read_file(&config_path))
        .unwrap_or_else(|e| die(&format!("parsing {config_path}: {e}")))
        .config;
    let mut loop_ = match &restore_path {
        Some(p) => ServeLoop::restore(&cfg, &policy_name, &engine, &read_file(p))
            .unwrap_or_else(|e| die(&format!("restoring {p}: {e}"))),
        None => ServeLoop::new(&cfg, &policy_name, &engine).unwrap_or_else(|e| die(&e)),
    };
    let stdin = std::io::stdin();
    let mut stdout = std::io::stdout();
    let mut print = |line: &str| {
        writeln!(stdout, "{line}").and_then(|_| stdout.flush()).ok();
    };
    print(&loop_.hello());
    for line in stdin.lock().lines() {
        let line = line.unwrap_or_else(|e| die(&format!("reading stdin: {e}")));
        if line.trim().is_empty() {
            continue;
        }
        // `checkpoint` is served by the binary, not the loop: it owns
        // the filesystem.
        let is_checkpoint = yala_telemetry::parse_line(&line)
            .and_then(|ev| ev.str("op").map(|o| o == "checkpoint"))
            .unwrap_or(false);
        if is_checkpoint {
            match &snapshot_path {
                Some(p) => {
                    let snap = loop_.snapshot();
                    write_file(p, &snap);
                    print(&format!(
                        "{{\"ok\":true,\"op\":\"checkpoint\",\"lines\":{}}}",
                        snap.lines().count()
                    ));
                }
                None => print("{\"ok\":false,\"error\":\"no --snapshot path configured\"}"),
            }
            continue;
        }
        let resp = loop_.handle_line(&line, &engine);
        print(&resp);
        if loop_.is_shutdown() {
            break;
        }
    }
}
