//! The spine the `bench_*` record binaries share: parse args → engine →
//! (train) → generate + profile, observed → run policies → journal-replay
//! self-test → write telemetry → print table → write the record envelope
//! → `--check` (regenerate, compare with the committed bytes). Each
//! binary keeps only its scenario and its dominance asserts.
//!
//! Every scenario is deterministic — same seed ⇒ bit-identical
//! `FleetReport`s — and records hold counts and reports only (wall time
//! is measured in one place, `benchmark/`), so each committed record
//! regenerates byte-identically on any machine at any `--threads`.
//! `--quick` (CI, and what the committed records hold) trains fewer NF
//! kinds and audits on a coarser cadence.

use crate::{write_artifact, BenchArgs, RegressionCheck};
use std::fmt::Display;
use yala_core::{Engine, ModelBank, YalaModel};
use yala_fleet::{
    run_fleet_observed, verify_against, BuildOpts, Diagnoser, FleetConfig, FleetPolicy,
    FleetReport, FleetTrace, OnlineRefine, ProfiledTrace,
};
use yala_nf::NfKind;
use yala_placement::PlacementPredictor;
use yala_telemetry::{Journal, Telemetry};

/// A `BENCH_*.json` envelope: top-level keys in insertion order, one per
/// line, each value already rendered as JSON.
#[derive(Debug, Clone)]
pub struct Record {
    fields: Vec<(&'static str, String)>,
}

impl Record {
    /// Opens the record of `bench` with its `quick` flag.
    pub fn new(bench: &str, quick: bool) -> Self {
        let fields = Vec::new();
        Self { fields }
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

/// One record binary's run: its flags and what they select.
pub struct RecordRun {
    /// The parsed common flags.
    pub args: BenchArgs,
    /// The scenario engine `--threads` selects.
    pub engine: Engine,
    /// The observability handle `--telemetry` selects (a no-op without
    /// the flag, so the record bytes never depend on it).
    pub tel: Telemetry,
    record: &'static str,
}

impl RecordRun {
    /// Parses the process arguments for the binary maintaining `record`;
    /// `seed` seeds the telemetry handle's reservoirs.
    pub fn start(record: &'static str, seed: u64) -> Self {
        let args = BenchArgs::parse();
        Self {
            engine: args.engine(),
            tel: args.telemetry_handle(seed),
            args,
            record,
        }
    }

    /// Prints the run's opening line: the scenario `cfg` describes, plus
    /// whatever `extra` the binary adds.
    pub fn banner(&self, bin: &str, cfg: &FleetConfig, extra: &str) {
        println!(
            "{bin}: {} NICs, {} h, audit every {} s, {} NF kinds{extra}{}",
            cfg.nics(),
            cfg.duration_s / 3_600,
            cfg.audit_period_s,
            cfg.kinds.len(),
            if self.args.quick { " [quick]" } else { "" }
        );
    }

    /// Generates `cfg`'s trace and profiles it under `opts`, journaling
    /// every measurement when telemetry is on.
    pub fn profile(&mut self, cfg: FleetConfig, opts: BuildOpts<'_>) -> ProfiledTrace {
        let trace = FleetTrace::generate(cfg);
        let profiled = ProfiledTrace::build(trace, &self.engine, opts.observed(&mut self.tel));
        println!(
            "  scenario: {} arrivals, {} profile snapshots ({} measured, {} cache hits)",
            profiled.trace.records.len(),
            profiled.snapshot_count(),
            profiled.stats.misses,
            profiled.stats.hits
        );
        profiled
    }

    /// Runs the flagship policy observed, proves the journal replays to
    /// the exact headline counters of the report it narrates, and writes
    /// the telemetry artifacts.
    pub fn flagship<'a>(
        &mut self,
        profiled: &'a ProfiledTrace,
        policy: FleetPolicy<'a>,
        label: &str,
    ) -> FleetReport {
        let report = run_fleet_observed(profiled, policy, label, &self.engine, &mut self.tel);
        if let Some(sink) = self.tel.sink() {
            verify_journal(label, &report, &sink.journal);
        }
        self.args.write_telemetry(&self.tel);
        report
    }

    /// Writes `record` where the flags say, then — under `--check` —
    /// compares it with the committed copy byte for byte (the records are
    /// deterministic) and exits nonzero naming the first line that differs.
    pub fn finish(self, record: &Record) {
        let json = record.to_json();
        if let Some(path) = self.args.record_path(self.record) {
            write_artifact(path, &json);
        }
        if self.args.check {
            let mut check = RegressionCheck::against(self.record);
            let committed = check.committed();
            if committed != json {
                let same = |(c, g): &(&str, &str)| c == g;
                let n = committed.lines().zip(json.lines()).take_while(same).count();
                let line = |text: &str| text.lines().nth(n).unwrap_or("<end>").to_string();
                let (was, is, n) = (line(committed), line(&json), n + 1);
                let sides = format!("committed:   {was}\n    regenerated: {is}");
                check.fail(format!("line {n} differs\n    {sides}"));
            }
            check.finish();
        }
    }
}

/// The observability self-test: `journal` must replay to the exact
/// headline counters of the `report` it narrates. A journal that hit its
/// cap cannot, and says so instead.
pub fn verify_journal(label: &str, report: &FleetReport, journal: &Journal) {
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

/// The NF kinds a fleet record trains: four under `--quick`, else the
/// paper's nine.
pub fn table2_kinds(quick: bool) -> Vec<NfKind> {
    if quick {
        vec![NfKind::FlowStats, NfKind::Acl, NfKind::Nat, NfKind::Nids]
    } else {
        NfKind::TABLE2_NINE.to_vec()
    }
}

/// The simulated day the fleet-family records share: 24 hours, audits
/// every 10 minutes and re-profiling past 10% drift (30 minutes and 20%
/// under `--quick`), up to 200k flows, SLAs allowing a 5–15% drop.
pub fn fleet_day(mut cfg: FleetConfig, quick: bool, kinds: &[NfKind]) -> FleetConfig {
    cfg.duration_s = 24 * 3_600;
    cfg.audit_period_s = if quick { 1_800 } else { 600 };
    cfg.reprofile_threshold = if quick { 0.20 } else { 0.10 };
    cfg.kinds = kinds.to_vec();
    cfg.max_flows = 200_000;
    cfg.sla_drop_range = (0.05, 0.15);
    cfg
}

/// The contention-aware policy behind every record's Yala rows:
/// `predictor` judges placements, `bank` diagnoses predicted violators.
pub fn yala_policy<'a>(
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
pub fn print_policies(reports: &[&FleetReport]) {
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
pub fn assert_dominates(yala: &FleetReport, greedy: &FleetReport, mono: &FleetReport) {
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
