//! # yala-bench — the experiment harness
//!
//! Shared infrastructure for the binaries under `src/bin/`. `repro` is
//! the one harness: the paper's tables and figures ([`experiments`],
//! indexed in `DESIGN.md`) with their claims gated by
//! `BENCH_accuracy.json`, and the fleet-family records ([`record`]), so
//! `repro all --check` gates every deterministic record. `bench_rxp`
//! keeps the wall-clock scan record; `fleet_inspect` reads journals.
//!
//! The central type is [`Zoo`]: it trains Yala and SLOMO models for a set
//! of NFs against one simulated SmartNIC, caches per-(NF, profile)
//! contentiousness profiles, and evaluates prediction scenarios against
//! ground-truth co-runs.

pub mod experiments;
pub mod record;

use std::collections::HashMap;
use yala_core::profiler::cached_workload;
use yala_core::{Contender, Engine, ModelBank, TrainConfig, YalaModel};
use yala_ml::metrics;
use yala_nf::NfKind;
use yala_sim::{CounterSample, NicModelId, NicSpec, Simulator, WorkloadSpec};
use yala_slomo::{default_mem_grid, train_slomo_bank, SlomoModel};
use yala_traffic::TrafficProfile;

/// Measurement noise used across experiments (≈ real counter jitter).
pub const NOISE_SIGMA: f64 = 0.005;

/// A prediction scenario's outcome.
#[derive(Debug, Clone, Copy)]
pub struct Eval {
    /// Ground-truth throughput of the target in the co-run.
    pub truth: f64,
    /// Yala's prediction.
    pub yala: f64,
    /// SLOMO's prediction (with sensitivity extrapolation).
    pub slomo: f64,
}

/// Accuracy summary of a batch of evaluations (one paper table row).
#[derive(Debug, Clone, Copy)]
pub struct Accuracy {
    /// Mean absolute percentage error.
    pub mape: f64,
    /// Fraction of predictions within ±5%.
    pub acc5: f64,
    /// Fraction within ±10%.
    pub acc10: f64,
}

/// Summarises predictions against truths.
pub fn accuracy(truth: &[f64], pred: &[f64]) -> Accuracy {
    Accuracy {
        mape: metrics::mape(truth, pred),
        acc5: metrics::bounded_accuracy(truth, pred, 5.0),
        acc10: metrics::bounded_accuracy(truth, pred, 10.0),
    }
}

/// Solo-profile cache entry: `(workload, solo counters, solo throughput)`.
type SoloEntry = (WorkloadSpec, CounterSample, f64);

/// Trained model banks and caches for a NIC portfolio. The primary
/// simulator/accessors answer for the *first* portfolio model (the
/// homogeneous experiments' testbed); the banks cover every model.
pub struct Zoo {
    /// The simulator standing in for the (first-model) testbed.
    pub sim: Simulator,
    /// The first portfolio model — the homogeneous experiments' hardware.
    model: NicModelId,
    yala: ModelBank<YalaModel>,
    slomo: ModelBank<SlomoModel>,
    /// Cache: (kind, profile) → (workload, solo counters, solo tput).
    solo_cache: HashMap<(NfKind, u32, u32, u64), SoloEntry>,
}

impl Zoo {
    /// Trains Yala + SLOMO models for `kinds` on a noisy BlueField-2.
    pub fn train(kinds: &[NfKind], seed: u64, engine: &Engine) -> Self {
        Self::train_portfolio(&[NicSpec::bluefield2()], kinds, seed, engine)
    }

    /// Trains per-model Yala and SLOMO banks for a NIC-model portfolio.
    /// Each admitted `(model, NF)` cell is one independent scenario on a
    /// private deterministically seeded simulator, so the trained zoo is
    /// bit-identical whatever the engine's thread count — and a
    /// single-spec portfolio reproduces the old homogeneous zoo exactly.
    pub fn train_portfolio(
        specs: &[NicSpec],
        kinds: &[NfKind],
        seed: u64,
        engine: &Engine,
    ) -> Self {
        eprintln!(
            "  training model pairs for {} NF kinds x {} NIC model(s) across {} worker(s) ...",
            kinds.len(),
            specs.len(),
            engine.threads()
        );
        let cfg = TrainConfig {
            seed,
            ..TrainConfig::default()
        };
        let yala = ModelBank::train_yala(specs, NOISE_SIGMA, kinds, &cfg, engine);
        // SLOMO's (CAR, WSS) sweep parallelises *within* each target: every
        // grid level is an independent scenario, so even a single NF's
        // training scales with cores.
        let slomo = train_slomo_bank(specs, NOISE_SIGMA, kinds, &default_mem_grid(), seed, engine);
        let model = specs[0].model();
        let sim = Simulator::with_noise(specs[0].clone(), NOISE_SIGMA, seed);
        Self {
            sim,
            model,
            yala,
            slomo,
            solo_cache: HashMap::new(),
        }
    }

    /// The trained Yala model for `kind` on the first portfolio model.
    pub fn yala(&self, kind: NfKind) -> &YalaModel {
        self.yala.expect(self.model, kind)
    }

    /// The trained SLOMO model for `kind` on the first portfolio model.
    pub fn slomo(&self, kind: NfKind) -> &SlomoModel {
        self.slomo.expect(self.model, kind)
    }

    /// The per-model Yala bank (for placement predictors and diagnosers).
    pub fn yala_bank(&self) -> &ModelBank<YalaModel> {
        &self.yala
    }

    /// The per-model SLOMO bank.
    pub fn slomo_bank(&self) -> &ModelBank<SlomoModel> {
        &self.slomo
    }

    /// Workload + solo counters + solo throughput of an NF at a profile
    /// (cached; this is the offline per-NF contentiousness profiling).
    pub fn solo(&mut self, kind: NfKind, profile: TrafficProfile) -> SoloEntry {
        let key = (
            kind,
            profile.flow_count,
            profile.packet_size,
            profile.mtbr.to_bits(),
        );
        if let Some(hit) = self.solo_cache.get(&key) {
            return hit.clone();
        }
        let w = cached_workload(kind, profile, kind as usize as u64);
        let o = self.sim.solo(&w);
        let entry = (w, o.counters, o.throughput_pps);
        self.solo_cache.insert(key, entry.clone());
        entry
    }

    /// Evaluates one co-location scenario: `target` (at `profile`) with
    /// `competitors` (each at its own profile). Returns ground truth and
    /// both frameworks' predictions.
    pub fn evaluate(
        &mut self,
        target: NfKind,
        profile: TrafficProfile,
        competitors: &[(NfKind, TrafficProfile)],
    ) -> Eval {
        let (tw, _, t_solo) = self.solo(target, profile);
        let mut workloads = vec![tw];
        let mut contenders: Vec<Contender> = Vec::new();
        let mut counters: Vec<CounterSample> = Vec::new();
        for (i, &(kind, cprofile)) in competitors.iter().enumerate() {
            let (mut w, c, _) = self.solo(kind, cprofile);
            w.name = format!("{}-{}", w.name, i); // unique co-run names
            workloads.push(w);
            contenders.push(self.yala(kind).as_contender(c, cprofile.mtbr));
            counters.push(c);
        }
        let truth = self.sim.co_run(&workloads).outcomes[0].throughput_pps;
        let yala = self.yala(target).predict(t_solo, &profile, &contenders);
        let agg = CounterSample::aggregate(counters.iter());
        let slomo = self.slomo(target).predict_extrapolated(&agg, t_solo);
        Eval { truth, yala, slomo }
    }
}

/// Ground truths with both frameworks' predictions — one accuracy-table
/// row in the making.
#[derive(Debug, Clone, Default)]
pub struct Scores {
    truth: Vec<f64>,
    slomo: Vec<f64>,
    yala: Vec<f64>,
}

impl Scores {
    /// Adds one evaluated scenario.
    pub fn push(&mut self, e: Eval) {
        self.truth.push(e.truth);
        self.slomo.push(e.slomo);
        self.yala.push(e.yala);
    }

    /// Pools another row's scenarios into this one.
    pub fn extend(&mut self, other: &Scores) {
        self.truth.extend_from_slice(&other.truth);
        self.slomo.extend_from_slice(&other.slomo);
        self.yala.extend_from_slice(&other.yala);
    }

    /// Summarises the scenarios as the row `name`.
    pub fn row(&self, name: &str) -> AccRow {
        AccRow {
            name: name.to_string(),
            slomo: accuracy(&self.truth, &self.slomo),
            yala: accuracy(&self.truth, &self.yala),
        }
    }
}

/// One SLOMO-vs-Yala row of a paper accuracy table.
#[derive(Debug, Clone)]
pub struct AccRow {
    /// Row label (an NF name, `AVERAGE`, `pooled`).
    pub name: String,
    /// SLOMO's accuracy on the row's scenarios.
    pub slomo: Accuracy,
    /// Yala's accuracy on the same scenarios.
    pub yala: Accuracy,
}

impl AccRow {
    /// CSV header matching [`Self::csv`].
    pub const CSV_HEADER: &'static str =
        "nf,slomo_mape,slomo_acc5,slomo_acc10,yala_mape,yala_acc5,yala_acc10";

    /// Column header matching [`Self::line`], with its rule.
    pub fn header() -> String {
        let columns = "NF               | S-MAPE   S-5%  S-10% | Y-MAPE   Y-5%  Y-10%";
        format!("{columns}\n{}", "-".repeat(64))
    }

    /// The paper-style table line.
    pub fn line(&self) -> String {
        let (s, y) = (self.slomo, self.yala);
        format!(
            "{:<16} | {:>6.1} {:>6.1} {:>6.1} | {:>6.1} {:>6.1} {:>6.1}",
            self.name, s.mape, s.acc5, s.acc10, y.mape, y.acc5, y.acc10
        )
    }

    /// The CSV row, labelled `name` (tables lower-case their aggregate).
    pub fn csv(&self, name: &str) -> String {
        let (s, y) = (self.slomo, self.yala);
        format!(
            "{name},{:.2},{:.1},{:.1},{:.2},{:.1},{:.1}",
            s.mape, s.acc5, s.acc10, y.mape, y.acc5, y.acc10
        )
    }
}

/// Writes a CSV file under `results/` (best effort; ignores IO errors so
/// experiments can run in read-only checkouts).
pub fn write_csv(name: &str, header: &str, rows: &[String]) {
    let _ = std::fs::create_dir_all("results");
    let body = format!("{header}\n{}\n", rows.join("\n"));
    let _ = std::fs::write(format!("results/{name}.csv"), body);
}

/// Writes a run artifact (creating its directory), reporting the
/// outcome either way: a read-only checkout loses the file, not the run.
pub fn write_artifact(path: &str, body: &str) {
    if let Some(dir) = std::path::Path::new(path).parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    match std::fs::write(path, body) {
        Ok(()) => eprintln!("  wrote {path}"),
        Err(e) => eprintln!("  could not write {path}: {e}"),
    }
}

/// The flags of `repro` after its experiment name: what every experiment
/// runs with.
#[derive(Debug, Clone, Default)]
pub struct BenchArgs {
    /// `--full` — paper-sized sweeps and the records' full-scale days
    /// instead of the default scale the committed records hold.
    pub full: bool,
    /// `--check` — regression gate: compare what the run produced with
    /// the *committed* records and exit nonzero on a difference instead
    /// of overwriting anything.
    pub check: bool,
    /// `--threads N` — pin the scenario engine to `N` workers instead of
    /// auto-sizing; every output is bit-identical either way, which the
    /// CI determinism gate enforces by diffing a default-engine run
    /// against a pinned-engine one.
    pub threads: Option<usize>,
    /// `--out DIR` — write the records into `DIR` instead of the working
    /// directory (used by CI to compare runs in temp directories).
    pub out: Option<String>,
    /// `--telemetry DIR` — observe each record experiment's flagship run
    /// and write its journal and metrics as `DIR/<name>.{jsonl,
    /// metrics.json,prom}`, bit-identical across runs and `--threads`.
    /// Without it every instrumented path runs with the no-op handle.
    pub telemetry: Option<String>,
    /// `--journal-cap N` — size the telemetry journal's event bound to
    /// `N` (default [`yala_telemetry::Journal`]'s 1Mi). A capped journal
    /// drops newest-first and `fleet_inspect` flags the truncation; raise
    /// the cap for million-arrival days where every event matters.
    pub journal_cap: Option<usize>,
}

impl BenchArgs {
    /// Parses the flags. Every rejection (unknown flag, missing or
    /// invalid value) names the flag and the offense, so a typo in a CI
    /// step fails loudly instead of silently running the default
    /// configuration — and fails with a usable message, not a panic.
    pub fn try_parse_from(args: impl IntoIterator<Item = String>) -> Result<Self, String> {
        let mut out = Self::default();
        let mut args = args.into_iter();
        while let Some(a) = args.next() {
            let flag = a.as_str();
            let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
            // A positive count: `--journal-cap 0` would drop every event,
            // `--threads 0` has no engine.
            let mut count = || -> Result<Option<usize>, String> {
                let v = value()?;
                match v.parse() {
                    Ok(0) => Err(format!("{flag} must be at least 1")),
                    Ok(n) => Ok(Some(n)),
                    Err(_) => Err(format!("{flag} got {v:?}, expected an integer")),
                }
            };
            match flag {
                "--full" => out.full = true,
                "--check" => out.check = true,
                "--threads" => out.threads = count()?,
                "--out" => out.out = Some(value()?),
                "--telemetry" => out.telemetry = Some(value()?),
                "--journal-cap" => out.journal_cap = count()?,
                other => {
                    return Err(format!(
                        "unknown flag {other} (known: --full --check --threads \
                         --out --telemetry --journal-cap)"
                    ))
                }
            }
        }
        Ok(out)
    }

    /// `n` at the default scale, `n_full` under `--full`.
    pub fn pick(&self, n: usize, n_full: usize) -> usize {
        if self.full {
            n_full
        } else {
            n
        }
    }

    /// The scenario engine the flags select.
    pub fn engine(&self) -> Engine {
        match self.threads {
            Some(n) => Engine::with_threads(n),
            None => Engine::auto(),
        }
    }

    /// Where the record `file` goes: into `--out DIR` if given, else the
    /// working directory. In `--check` mode the committed copy is never
    /// overwritten — the record is written only when `--out` is explicit.
    pub fn record_path(&self, file: &str) -> Option<String> {
        match (&self.out, self.check) {
            (Some(dir), _) => Some(format!("{dir}/{file}")),
            (None, true) => None,
            (None, false) => Some(file.to_string()),
        }
    }
}

/// Extracts the first JSON number for `"key":` after the first occurrence
/// of `anchor` in `text` (pass `""` to search from the start). Good
/// enough for the workspace's own canonical, hand-rolled records — this
/// is not a general JSON parser.
pub fn json_f64(text: &str, anchor: &str, key: &str) -> Option<f64> {
    let from = text.find(anchor)? + anchor.len();
    let needle = format!("\"{key}\":");
    let at = text[from..].find(&needle)? + from + needle.len();
    let tail = text[at..].trim_start();
    let end = tail
        .find(|c: char| !(c.is_ascii_digit() || ".+-eE".contains(c)))
        .unwrap_or(tail.len());
    tail[..end].parse().ok()
}

/// Collects `--check` verdicts against one committed record: each probe
/// looks its committed value up itself — a record that lacks the key is a
/// named failure, never a sentinel that happens to pass — prints the
/// comparison, and failures accumulate for one final exit decision.
#[derive(Debug)]
pub struct RegressionCheck {
    record: String,
    committed: String,
    failures: Vec<String>,
}

impl RegressionCheck {
    /// A check against the committed record at `path`.
    ///
    /// # Panics
    ///
    /// Panics if the record cannot be read: `--check` without a committed
    /// record is a broken checkout, not a regression.
    pub fn against(path: &str) -> Self {
        let committed = std::fs::read_to_string(path)
            .unwrap_or_else(|e| panic!("--check needs the committed {path}: {e}"));
        Self::from_text(path, committed)
    }

    /// A check against record text already in memory.
    pub fn from_text(record: &str, committed: String) -> Self {
        Self {
            record: record.to_string(),
            committed,
            failures: Vec::new(),
        }
    }

    /// The committed record's text.
    pub fn committed(&self) -> &str {
        &self.committed
    }

    fn verdict(&mut self, ok: bool, line: String) {
        println!("  check {line} {}", if ok { "OK" } else { "REGRESSED" });
        if !ok {
            self.failures.push(line);
        }
    }

    /// The committed number for `key` after `anchor` (see [`json_f64`]);
    /// a missing key fails the check under `label`.
    fn lookup(&mut self, label: &str, anchor: &str, key: &str) -> Option<f64> {
        let found = json_f64(&self.committed, anchor, key);
        if found.is_none() {
            self.fail(format!("{label}: record lacks \"{key}\" after {anchor:?}"));
        }
        found
    }

    /// Fails unless `regenerated` is the committed text byte for byte (a
    /// deterministic record), naming the first line that differs.
    pub fn identical(&mut self, regenerated: &str) {
        if self.committed == regenerated {
            return;
        }
        let same = |(c, g): &(&str, &str)| c == g;
        let lines = self.committed.lines().zip(regenerated.lines());
        let n = lines.take_while(same).count();
        let line = |text: &str| text.lines().nth(n).unwrap_or("<end>").to_string();
        let (was, is, n) = (line(&self.committed), line(regenerated), n + 1);
        self.fail(format!(
            "line {n} differs\n    committed:   {was}\n    regenerated: {is}"
        ));
    }

    /// Records a failure found outside the numeric probes.
    pub fn fail(&mut self, failure: String) {
        self.verdict(false, failure);
    }

    /// Asserts a higher-is-better metric stayed at or above `factor` of
    /// its committed value.
    pub fn at_least(&mut self, label: &str, got: f64, anchor: &str, key: &str, factor: f64) {
        if let Some(committed) = self.lookup(label, anchor, key) {
            let floor = committed * factor;
            self.verdict(
                got >= floor,
                format!("{label}: {got:.3} vs floor {floor:.3}"),
            );
        }
    }

    /// Asserts an exact scenario invariant (e.g. arrival counts): a
    /// mismatch means the committed record describes a *different*
    /// scenario and must be regenerated, not tolerated.
    pub fn exact(&mut self, label: &str, got: f64, anchor: &str, key: &str) {
        if let Some(committed) = self.lookup(label, anchor, key) {
            self.verdict(
                got == committed,
                format!("{label}: {got} vs committed {committed}"),
            );
        }
    }

    /// The failures so far, one line each.
    pub fn failures(&self) -> &[String] {
        &self.failures
    }

    /// Exits nonzero (after printing the verdict) if any probe failed.
    pub fn finish(self) {
        let record = &self.record;
        if self.failures.is_empty() {
            println!("  --check: no regressions vs {record}");
        } else {
            eprintln!(
                "  --check FAILED vs {record}:\n    {}\n  (intentional change? regenerate the record and commit it)",
                self.failures.join("\n    ")
            );
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accuracy_summary() {
        let truth = [100.0, 100.0];
        let pred = [104.0, 120.0];
        let a = accuracy(&truth, &pred);
        assert!((a.mape - 12.0).abs() < 1e-9);
        assert_eq!(a.acc5, 50.0);
        assert_eq!(a.acc10, 50.0);
    }

    #[test]
    fn json_f64_extracts_anchored_numbers() {
        let text = r#"{
            "arrivals": 579,
            "policies": [
                {"policy": "greedy", "violation_minutes": 58230.000},
                {"policy": "yala", "violation_minutes": 270.000, "mean_nics": 56.25}
            ]
        }"#;
        assert_eq!(json_f64(text, "", "arrivals"), Some(579.0));
        assert_eq!(
            json_f64(text, "\"policy\": \"yala\"", "violation_minutes"),
            Some(270.0)
        );
        assert_eq!(
            json_f64(text, "\"policy\": \"greedy\"", "violation_minutes"),
            Some(58230.0)
        );
        assert_eq!(json_f64(text, "\"policy\": \"oracle\"", "anything"), None);
        assert_eq!(json_f64(text, "", "missing_key"), None);
    }

    #[test]
    fn record_path_respects_check_and_out() {
        let plain = BenchArgs::default();
        let path = plain.record_path("BENCH_x.json");
        assert_eq!(path.as_deref(), Some("BENCH_x.json"));
        let check = BenchArgs {
            check: true,
            ..BenchArgs::default()
        };
        assert_eq!(
            check.record_path("BENCH_x.json"),
            None,
            "--check must not clobber the committed record"
        );
        let out = BenchArgs {
            check: true,
            out: Some("/tmp/a".into()),
            ..BenchArgs::default()
        };
        let path = out.record_path("BENCH_x.json");
        assert_eq!(path.as_deref(), Some("/tmp/a/BENCH_x.json"));
    }

    #[test]
    fn args_parse_accepts_valid_flags() {
        let to_args =
            |s: &str| -> Vec<String> { s.split_whitespace().map(str::to_string).collect() };
        let a = BenchArgs::try_parse_from(to_args(
            "--full --check --threads 4 --out /tmp/a --telemetry /tmp/t --journal-cap 1024",
        ))
        .expect("valid flags");
        assert!(a.full && a.check);
        assert_eq!(a.threads, Some(4));
        assert_eq!(a.out.as_deref(), Some("/tmp/a"));
        assert_eq!(a.telemetry.as_deref(), Some("/tmp/t"));
        assert_eq!(a.journal_cap, Some(1024));
        let none = BenchArgs::try_parse_from(std::iter::empty()).expect("no flags");
        assert_eq!(none.threads, None);
        assert!(!none.full && !none.check);
    }

    #[test]
    fn args_parse_rejects_invalid_flags_with_clear_errors() {
        let to_args =
            |s: &str| -> Vec<String> { s.split_whitespace().map(str::to_string).collect() };
        for (argv, expect) in [
            ("--journal-cap 0", "at least 1"),
            ("--journal-cap many", "expected an integer"),
            ("--threads zero", "expected an integer"),
            ("--threads 0", "at least 1"),
            ("--threads", "needs a value"),
            ("--out", "needs a value"),
            ("--frobnicate", "unknown flag --frobnicate"),
            // The default scale is the committed one; there is no quick mode.
            ("--quick", "unknown flag --quick"),
        ] {
            let err = BenchArgs::try_parse_from(to_args(argv))
                .expect_err(&format!("{argv:?} must be rejected"));
            assert!(err.contains(expect), "{argv:?} => {err:?}");
        }
    }

    #[test]
    fn identical_names_the_first_differing_line() {
        let diff = |committed: &str, regenerated: &str| {
            let mut check = RegressionCheck::from_text("BENCH_x.json", committed.into());
            check.identical(regenerated);
            check.failures().join("\n")
        };
        let text = "{\n\"a\": 1,\n\"b\": 2\n}\n";
        assert_eq!(diff(text, text), "");
        let mid = "line 3 differs\n    committed:   \"b\": 2\n    regenerated: \"b\": 3";
        assert_eq!(diff(text, &text.replace('2', "3")), mid);
        // Either side ending early shows `<end>` on that side.
        let short = "{\n\"a\": 1,\n";
        assert!(diff(short, text).ends_with("committed:   <end>\n    regenerated: \"b\": 2"));
        assert!(diff(text, short).ends_with("committed:   \"b\": 2\n    regenerated: <end>"));
    }

    #[test]
    fn regression_check_accumulates_failures() {
        let record = r#"{"speedup": 5.0, "arrivals": 579}"#;
        let mut ok = RegressionCheck::from_text("BENCH_x.json", record.to_string());
        ok.at_least("speedup", 9.9, "", "speedup", 1.0);
        ok.exact("arrivals", 579.0, "", "arrivals");
        assert!(ok.failures().is_empty());
        let mut bad = RegressionCheck::from_text("BENCH_x.json", record.to_string());
        bad.at_least("speedup", 2.0, "", "speedup", 1.0);
        bad.exact("arrivals", 600.0, "", "arrivals");
        assert_eq!(bad.failures().len(), 2);
    }

    #[test]
    fn regression_check_names_a_missing_key() {
        // A record that lost (or renamed) a gated key must fail every
        // kind of probe by name — `at_least` against a -1 sentinel used
        // to pass silently.
        let mut check = RegressionCheck::from_text("BENCH_x.json", r#"{"arrivals": 579}"#.into());
        check.at_least("shield_ratio_vs_committed", 10.0, "", "shield_ratio", 0.95);
        check.exact("fail_events", 74.0, "", "fail_events");
        check.exact("arrivals", 579.0, "", "arrivals");
        let failures = check.failures();
        assert_eq!(failures.len(), 2, "{failures:?}");
        assert!(failures[0].starts_with("shield_ratio_vs_committed: record lacks \"shield_ratio\""));
        assert!(failures[1].starts_with("fail_events: record lacks \"fail_events\""));
    }
}
