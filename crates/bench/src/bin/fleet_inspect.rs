//! `fleet_inspect` — the explainability CLI over a fleet event journal.
//!
//! Takes a `.jsonl` journal — `DIR/<name>.jsonl`, written by
//! `repro <record> --telemetry DIR`, or a `yalad replay --out-journal` —
//! and answers questions a `FleetReport`'s end-of-day aggregates cannot:
//!
//! ```text
//! fleet_inspect <journal.jsonl> summary            # headline tallies
//! fleet_inspect <journal.jsonl> timeline           # per-epoch fleet state
//! fleet_inspect <journal.jsonl> tenant <id>        # one NF's life story
//! fleet_inspect <journal.jsonl> why <id>           # violated/parked/migrated — and why
//! fleet_inspect <journal.jsonl> prom               # metrics reconstructed from events
//! fleet_inspect <journal.jsonl> json               # same, as canonical JSON
//! ```
//!
//! Everything is derived from the journal alone — the binary never loads
//! simulator state — so it works on any journal from any run, including
//! one produced on another machine. One line of `summary` is the
//! exception: the predictor's memo accounting lives in the metrics
//! registry (see [`Inspector::predictor_summary`]), so it is printed when
//! the run's `<name>.prom` sits next to `<name>.jsonl`. An unreadable
//! journal exits 1 with one line; a malformed command line exits 2.

use yala_telemetry::Inspector;

fn usage() -> ! {
    eprintln!(
        "usage: fleet_inspect <journal.jsonl> <command>\n\
         commands:\n\
           summary        headline event tallies\n\
           timeline       per-epoch fleet state with event deltas\n\
           tenant <id>    chronological lifecycle story of one NF\n\
           why <id>       explain the NF's violations/parks/migrations\n\
           prom           Prometheus text metrics reconstructed from events\n\
           json           the same metrics as canonical JSON"
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (path, cmd) = match (args.first(), args.get(1)) {
        (Some(p), Some(c)) => (p.clone(), c.clone()),
        _ => usage(),
    };
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        eprintln!("fleet_inspect: could not read journal {path}: {e}");
        std::process::exit(1);
    });
    let inspector = Inspector::from_jsonl(&text);
    if inspector.is_empty() {
        eprintln!("warning: {path} parsed to zero events");
    }
    let id_arg = || -> i64 {
        args.get(2)
            .unwrap_or_else(|| usage())
            .parse()
            .unwrap_or_else(|_| usage())
    };
    let out = match cmd.as_str() {
        "summary" => {
            let prom = path
                .strip_suffix(".jsonl")
                .map(|base| format!("{base}.prom"));
            let predictor = prom
                .and_then(|p| std::fs::read_to_string(p).ok())
                .and_then(|text| Inspector::predictor_summary(&text));
            inspector.summary() + predictor.as_deref().unwrap_or("")
        }
        "timeline" => inspector.timeline(),
        "tenant" => inspector.tenant(id_arg()),
        "why" => inspector.why(id_arg()),
        "prom" => inspector.reconstruct_metrics().to_prometheus(),
        "json" => inspector.reconstruct_metrics().to_json(),
        _ => usage(),
    };
    print!("{out}");
}
