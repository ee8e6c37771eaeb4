//! # yala-serve — the placement daemon behind `yalad`
//!
//! Everything else in this workspace *simulates* an operator fleet; this
//! crate *is* the operator-facing service. [`ServeLoop`] is a persistent,
//! single-threaded-deterministic request loop: NF arrivals, departures,
//! traffic drift, NIC faults, and audit observations arrive as
//! length-delimited JSONL messages (one object per line, the same flat
//! grammar as the [`yala_telemetry`] journal), placement queries are
//! answered from the shared [`yala_core::ProfileCache`] plus the trained
//! predictor, and audit ground truth is absorbed online through the
//! refinable banks — the paper's prediction pipeline kept warm at
//! production request rates instead of replayed offline.
//!
//! Determinism is the contract. The loop owns no clock and no I/O; every
//! response is a pure function of the construction seed and the message
//! sequence so far. Checkpointing exploits that: a [`ServeLoop::snapshot`]
//! is the counters plus the verbatim log of mutating messages, and
//! [`ServeLoop::restore`] re-drives the log through a freshly built loop —
//! kill → restore → continue is bit-identical to never having stopped
//! (asserted in this crate's tests and in CI's `serve-smoke` job). The
//! fleet-simulation replay path (`yalad replay`) checkpoints the same
//! way — [`yala_fleet::snapshot_fleet`] is a header, and its input log is
//! the `.yala-trace` itself; both headers are versioned.
//!
//! The tenants are the fleet's one state machine,
//! [`yala_fleet::FleetState`], over the daemon's two seams: profiles
//! measured per wire id, and [`yala_fleet::DaemonRules`]. A request is
//! parsed, turned into a call of it, and its outcome rendered. Beyond that
//! state the loop keeps two caches that reach no reply or snapshot: the
//! profile cache of `query` measurements and the profiler they go through
//! (see [`ServeLoop`]).
//!
//! ## Wire format (version [`SERVE_WIRE_VERSION`])
//!
//! Requests: `{"op":"place","id":7,"kind":"nat","qos":"guaranteed",`
//! `"flows":50000,"psize":512,"mtbr":0.0,"sla_drop":0.1}` and friends
//! (`depart`, `drift`, `fault`, `observe`, `absorb`, `query`, `stats`,
//! `hello`, `shutdown`). Responses always carry `"ok"` and echo `"op"`.
//! See DESIGN.md, "Serving placement", for the full field tables.

use std::collections::BTreeMap;

use yala_core::{
    Engine, Observation, ObservationBuffer, ProfileCache, ProfileKey, QosClass, TrafficKey,
};
use yala_fleet::{
    read_traffic, DaemonRules, FleetConfig, FleetPolicy, FleetState, NamedPolicy, OnlineRefine,
};
use yala_nf::{NfKind, Profiler};
use yala_placement::{
    measure_entry, measure_entry_with, placed_from_entry, sims_for, Arrival, Placed,
};
use yala_sim::{CounterSample, NicModelId, ResourceKind, Simulator};
use yala_telemetry::journal::{parse_line, RawEvent};
use yala_telemetry::Telemetry;

/// Version stamp of the request/response line protocol and of the serve
/// snapshot header. Bumped on any incompatible change.
pub const SERVE_WIRE_VERSION: i64 = 1;

/// Salt decorrelating the daemon's profiling simulators from every other
/// stream derived from the scenario seed (cf. `TIMELINE_SALT` in
/// `yala-fleet`): the serve path must not replay the offline timeline's
/// measurement noise byte-for-byte, or cache collisions would silently
/// alias the two.
const SERVE_SALT: u64 = 0x5E12_E5A1;

/// The ops that change daemon state — exactly the lines `handle_line`
/// logs, and the only lines a snapshot body may hold.
const MUTATING_OPS: [&str; 6] = ["place", "depart", "drift", "fault", "observe", "absorb"];

/// The pseudo-instance id every `query` is profiled under.
const QUERY_INSTANCE: u32 = u32::MAX;

/// The largest id a request may name: every other is free for instances.
const MAX_ID: u32 = QUERY_INSTANCE - 1;

/// The keys of the traffic triple on every op that carries one.
const TRAFFIC_KEYS: [&str; 3] = ["flows", "psize", "mtbr"];

/// Monotonic request counters, reported by `stats` and carried verbatim
/// through snapshots (queries are not logged, so replay alone cannot
/// reconstruct them).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
struct Counters {
    admissions: u64,
    rejections: u64,
    departures: u64,
    queries: u64,
    observations: u64,
    absorb_passes: u64,
    absorbed: u64,
    evictions: u64,
    sheds: u64,
}

impl Counters {
    /// Every counter by its wire name, in the order `stats` replies and
    /// snapshot headers carry them.
    fn named(&mut self) -> [(&'static str, &mut u64); 9] {
        [
            ("admissions", &mut self.admissions),
            ("rejections", &mut self.rejections),
            ("departures", &mut self.departures),
            ("queries", &mut self.queries),
            ("observations", &mut self.observations),
            ("absorb_passes", &mut self.absorb_passes),
            ("absorbed", &mut self.absorbed),
            ("evictions", &mut self.evictions),
            ("sheds", &mut self.sheds),
        ]
    }

    /// The counters as comma-separated `"name":value` fields.
    fn fields(mut self) -> String {
        self.named()
            .map(|(key, n)| format!("\"{key}\":{n}"))
            .join(",")
    }
}

/// The daemon: a line codec around the fleet's tenant state machine.
/// See the crate docs for the contract; see [`ServeLoop::handle_line`]
/// for the dispatch table.
pub struct ServeLoop {
    cfg: FleetConfig,
    /// The tenants: each wire id's measured profile, placed by the
    /// daemon's rules.
    state: FleetState<BTreeMap<u32, Placed>, DaemonRules>,
    /// Lent QoS-blind to every step: the daemon preempts no one.
    policy: NamedPolicy,
    cache: ProfileCache,
    /// The profiler `query` measures through, and nothing else. Every
    /// query measures under one seed, so the prefix family this keeps
    /// (that seed's flow sequence and table growth chains) lives as long
    /// as the daemon; `place` and `drift`, each under its instance's
    /// seed, measure through the thread's profiler and never evict it.
    /// A cache, not state: a measurement cut from it equals a fresh one
    /// bit for bit, it stays out of the snapshot, and a restored daemon
    /// starts it cold.
    query_profiler: Profiler,
    pending: ObservationBuffer,
    counters: Counters,
    /// Verbatim mutating request lines, in arrival order — the replay
    /// half of a snapshot.
    log: Vec<String>,
    shutdown: bool,
}

impl ServeLoop {
    /// Builds a daemon for `cfg`'s portfolio serving with `policy_name`
    /// (`mono` | `greedy` | `yala` | `yala-online`). The yala policies
    /// train their bank here, once, from `cfg.kinds` — construction cost,
    /// not request-path cost.
    pub fn new(cfg: &FleetConfig, policy_name: &str, engine: &Engine) -> Result<Self, String> {
        if cfg.nics() == 0 {
            return Err("empty NIC portfolio".to_string());
        }
        // The daemon absorbs when asked: the batch size goes unread.
        let policy = NamedPolicy::new(cfg, policy_name, OnlineRefine::default(), engine)?;
        let policy = policy.without_diagnosis();
        Ok(Self {
            cfg: cfg.clone(),
            state: FleetState::new(cfg, BTreeMap::new(), DaemonRules),
            policy,
            cache: ProfileCache::new(),
            query_profiler: Profiler::new(),
            pending: ObservationBuffer::new(),
            counters: Counters::default(),
            log: Vec::new(),
            shutdown: false,
        })
    }

    /// Profile measurements the daemon holds in its cache: one per
    /// distinct `(kind, traffic)` queried so far.
    pub fn cached_profiles(&self) -> usize {
        self.cache.len()
    }

    /// Whether a `shutdown` request has been served. The driving loop
    /// exits when this turns true.
    pub fn is_shutdown(&self) -> bool {
        self.shutdown
    }

    /// The greeting the daemon prints on startup — also the first line a
    /// replaying client should expect.
    pub fn hello(&self) -> String {
        format!(
            "{{\"ok\":true,\"op\":\"hello\",\"yala_serve\":{SERVE_WIRE_VERSION},\
             \"policy\":\"{}\",\"nics\":{},\"seed\":\"{}\"}}",
            self.policy.name(),
            self.cfg.nics(),
            self.cfg.seed
        )
    }

    /// Serves one request line and returns the one response line. Never
    /// panics on wire input: malformed lines get `{"ok":false,...}`.
    pub fn handle_line(&mut self, line: &str, engine: &Engine) -> String {
        let Some(ev) = parse_line(line) else {
            return err_line("unparseable request line");
        };
        let Some(op) = ev.str("op").map(str::to_string) else {
            return err_line("missing op field");
        };
        let result = match op.as_str() {
            "hello" => Ok(self.hello()),
            "place" => self.op_place(&ev),
            "depart" => self.op_depart(&ev),
            "drift" => self.op_drift(&ev),
            "fault" => self.op_fault(&ev),
            "observe" => self.op_observe(&ev),
            "absorb" => self.op_absorb(engine),
            "query" => self.op_query(&ev),
            "stats" => Ok(self.op_stats()),
            "shutdown" => {
                self.shutdown = true;
                Ok("{\"ok\":true,\"op\":\"shutdown\"}".to_string())
            }
            other => Err(format!("unknown op {other}")),
        };
        if result.is_ok() && MUTATING_OPS.contains(&op.as_str()) {
            self.log.push(line.to_string());
        }
        result.unwrap_or_else(|e| err_line(&e))
    }

    fn arrival_from(&self, ev: &RawEvent) -> Result<Arrival, String> {
        let kind = self.cfg.served_kind(ev.need_str("kind")?)?;
        let qos = match ev.optional("qos", RawEvent::need_str)? {
            None => QosClass::Guaranteed,
            Some(name) => {
                QosClass::from_name(name).ok_or_else(|| format!("unknown qos class {name}"))?
            }
        };
        let sla_drop = ev.need_num("sla_drop")?;
        if !(0.0..1.0).contains(&sla_drop) {
            return Err(format!("sla_drop {sla_drop} outside [0,1)"));
        }
        Ok(Arrival {
            kind,
            traffic: read_traffic(ev, TRAFFIC_KEYS)?,
            sla_drop,
            qos,
        })
    }

    /// Measures `arrival` for instance `id` into its placement record —
    /// salted simulator stream, and every workload stream seeded by the
    /// timeline convention, scenario seed plus instance id — past the
    /// cache. Its key would be `(kind, traffic, seed + id)`: `place` asks
    /// for it once and a `drift` moves on to another, so caching it kept
    /// one entry nothing could hit for every request a long-running
    /// daemon served.
    fn profile(&self, id: u32, arrival: Arrival) -> Placed {
        let sims = &mut sims(&self.cfg, arrival.kind, id);
        let seed = self.cfg.seed.wrapping_add(id as u64);
        let entry = measure_entry(sims, arrival.kind, arrival.traffic, seed);
        placed_from_entry(&entry, arrival, Some(&format!("nf{id}")))
    }

    fn op_place(&mut self, ev: &RawEvent) -> Result<String, String> {
        let id = ev.need_in("id", 0, MAX_ID)?;
        if self.state.tenants().get(&id).is_some() {
            return Err(format!("instance {id} already exists"));
        }
        let placed = self.profile(id, self.arrival_from(ev)?);
        self.state.reprofile(None, id, placed);
        let (policy, tel) = (&mut self.policy.lend(false), &mut Telemetry::disabled());
        let n = match self.state.admit(policy, id, None, 0.0, None, 0, tel) {
            Some((nic, _)) => {
                self.counters.admissions += 1;
                nic as i64
            }
            None => {
                self.state.depart(id);
                self.counters.rejections += 1;
                -1
            }
        };
        Ok(format!(
            "{{\"ok\":true,\"op\":\"place\",\"id\":{id},\"nic\":{n}}}"
        ))
    }

    fn op_query(&mut self, ev: &RawEvent) -> Result<String, String> {
        let arrival = self.arrival_from(ev)?;
        // Queries share the cache under a reserved pseudo-instance id so
        // repeated queries are cheap and, crucially, never perturb any
        // real instance's measurement stream. A hit is the bytes a fresh
        // measurement of the key would be; a miss is measured as
        // `profile` would, through the query profiler.
        let key = ProfileKey {
            kind: arrival.kind,
            traffic: TrafficKey::exact(&arrival.traffic),
            seed: self.cfg.seed.wrapping_add(QUERY_INSTANCE as u64),
        };
        let (cfg, profiler) = (&self.cfg, &mut self.query_profiler);
        let entry = self.cache.get_or_measure(&key, || {
            let sims = &mut sims(cfg, arrival.kind, QUERY_INSTANCE);
            measure_entry_with(profiler, sims, arrival.kind, arrival.traffic, key.seed)
        });
        let name = format!("nf{QUERY_INSTANCE}");
        let placed = placed_from_entry(&entry, arrival, Some(&name));
        let policy = &mut self.policy.lend(false);
        let nic = self.state.choose_slot(policy, &placed, None, 0.0, None);
        self.counters.queries += 1;
        let n = nic.map_or(-1, |n| n as i64);
        Ok(format!("{{\"ok\":true,\"op\":\"query\",\"nic\":{n}}}"))
    }

    fn op_depart(&mut self, ev: &RawEvent) -> Result<String, String> {
        let id = ev.need_in("id", 0, MAX_ID)?;
        // Every tenant is placed: one that is not is unknown.
        let nic = self.state.depart(id).ok_or(format!("no instance {id}"))?;
        self.counters.departures += 1;
        Ok(format!(
            "{{\"ok\":true,\"op\":\"depart\",\"id\":{id},\"nic\":{nic}}}"
        ))
    }

    fn op_drift(&mut self, ev: &RawEvent) -> Result<String, String> {
        let id = ev.need_in("id", 0, MAX_ID)?;
        let old = self.state.tenants().get(&id);
        let old = old.ok_or_else(|| format!("no instance {id}"))?;
        let arrival = Arrival {
            traffic: read_traffic(ev, TRAFFIC_KEYS)?,
            ..old.arrival
        };
        // Drift re-profiles in place: the instance keeps its NIC (the
        // serve loop has no migration budget of its own — an operator
        // departs and re-places to move one), only the accounting moves.
        let fresh = self.profile(id, arrival);
        let mut policy = self.policy.lend(false);
        let nic = self.state.reprofile(policy.predictor(), id, fresh);
        let nic = nic.expect("every tenant is placed");
        Ok(format!(
            "{{\"ok\":true,\"op\":\"drift\",\"id\":{id},\"nic\":{nic}}}"
        ))
    }

    fn op_fault(&mut self, ev: &RawEvent) -> Result<String, String> {
        let nic: usize = ev.need_int("nic")?;
        if nic >= self.cfg.nics() {
            return Err(format!("nic {nic} out of range"));
        }
        match ev.need_str("kind")? {
            "recover" => {
                self.state.recover(nic);
                Ok(format!(
                    "{{\"ok\":true,\"op\":\"fault\",\"nic\":{nic},\"kind\":\"recover\"}}"
                ))
            }
            "fail" => {
                // The simulator's fail step; the daemon retries no
                // admission, so whoever found no NIC is shed.
                let (policy, tel) = (&mut self.policy.lend(false), &mut Telemetry::disabled());
                let evicted = self.state.evacuate(policy, nic, true, 0, tel) as u64;
                let shed = self.state.shed_parked() as u64;
                let replaced = evicted - shed;
                self.counters.evictions += evicted;
                self.counters.sheds += shed;
                Ok(format!(
                    "{{\"ok\":true,\"op\":\"fault\",\"nic\":{nic},\"kind\":\"fail\",\
                     \"evicted\":{evicted},\"replaced\":{replaced},\"shed\":{shed}}}"
                ))
            }
            other => Err(format!("unknown fault kind {other}")),
        }
    }

    fn op_observe(&mut self, ev: &RawEvent) -> Result<String, String> {
        let obs = read_observation(ev, &self.cfg).map_err(|e| format!("bad observation: {e}"))?;
        self.pending.push(obs);
        self.counters.observations += 1;
        Ok(format!(
            "{{\"ok\":true,\"op\":\"observe\",\"pending\":{}}}",
            self.pending.len()
        ))
    }

    fn op_absorb(&mut self, engine: &Engine) -> Result<String, String> {
        let absorbed = match self.policy.lend(false) {
            FleetPolicy::ContentionAware {
                predictor,
                online: Some(_),
                ..
            } if !self.pending.is_empty() => {
                let n = predictor.absorb(&self.pending, engine) as u64;
                self.pending.clear();
                n
            }
            _ => 0,
        };
        if absorbed > 0 {
            self.counters.absorb_passes += 1;
            self.counters.absorbed += absorbed;
        }
        Ok(format!(
            "{{\"ok\":true,\"op\":\"absorb\",\"absorbed\":{absorbed},\"passes\":{}}}",
            self.counters.absorb_passes
        ))
    }

    fn op_stats(&mut self) -> String {
        let active = self.state.tenants().len();
        let nics = self.state.residency();
        let nics_up = (0..nics.nics()).filter(|&n| nics.is_up(n)).count();
        format!(
            "{{\"ok\":true,\"op\":\"stats\",{},\"active\":{active},\"nics_up\":{nics_up},\
             \"pending\":{}}}",
            self.counters.fields(),
            self.pending.len()
        )
    }

    /// The snapshot header line (without its newline) of this daemon
    /// holding `counters` and a log of `log` lines.
    fn snapshot_header(&self, counters: Counters, log: usize) -> String {
        format!(
            "{{\"yala_serve_snapshot\":{SERVE_WIRE_VERSION},\"seed\":\"{}\",\
             \"policy\":\"{}\",\"nics\":{},{},\"log\":{log}}}",
            self.cfg.seed,
            self.policy.name(),
            self.cfg.nics(),
            counters.fields()
        )
    }

    /// Serializes the loop to a versioned snapshot: one header line
    /// carrying the identity (seed, policy, portfolio width) and every
    /// counter, then the verbatim log of mutating request lines. Restoring
    /// re-drives the log — the same restore-by-replay strategy the fleet
    /// snapshot uses for refined predictor state, applied to the whole
    /// daemon.
    pub fn snapshot(&self) -> String {
        let mut out = self.snapshot_header(self.counters, self.log.len()) + "\n";
        for line in &self.log {
            out.push_str(line);
            out.push('\n');
        }
        out
    }

    /// Rebuilds a daemon from [`ServeLoop::snapshot`] text. `cfg` and
    /// `policy_name` must match the snapshotting daemon's — the header is
    /// cross-checked and a mismatch is an error, not a silent divergence.
    pub fn restore(
        cfg: &FleetConfig,
        policy_name: &str,
        engine: &Engine,
        text: &str,
    ) -> Result<Self, String> {
        let mut lines = text.lines();
        let header_line = lines.next().ok_or("empty snapshot")?;
        let header = parse_line(header_line).ok_or("unparseable snapshot header")?;
        let version = header.need_int::<i64>("yala_serve_snapshot")?;
        if version != SERVE_WIRE_VERSION {
            return Err(format!("unsupported snapshot version {version}"));
        }
        if header.str("seed") != Some(&cfg.seed.to_string()) {
            return Err("snapshot seed does not match config".to_string());
        }
        if header.str("policy") != Some(policy_name) {
            return Err(format!(
                "snapshot policy {:?} != {policy_name:?}",
                header.str("policy").unwrap_or("<missing>")
            ));
        }
        let mut loop_ = ServeLoop::new(cfg, policy_name, engine)?;
        if header.int("nics") != Some(cfg.nics() as i64) {
            return Err("snapshot NIC count does not match config".to_string());
        }
        // Queries are unlogged; every counter comes from the header, so
        // post-restore `stats` is bit-identical to the uninterrupted run.
        let mut counters = Counters::default();
        for (key, n) in counters.named() {
            *n = header.need_int(key)?;
        }
        let promised = header.need_int("log")?;
        // Only the writer's bytes load: fields reordered, repeated or
        // respelled (`-0`, `5.0`) are refused before anything replays.
        if loop_.snapshot_header(counters, promised) != header_line {
            return Err("snapshot header is not in the form this daemon writes".to_string());
        }
        let mut replayed = 0usize;
        for line in lines {
            // The log holds only what `handle_line` logs; anything else
            // (a `shutdown`, a `query`) was put there by someone else.
            let op = parse_line(line).and_then(|ev| ev.str("op").map(str::to_string));
            if !op.is_some_and(|op| MUTATING_OPS.contains(&op.as_str())) {
                return Err(format!("snapshot log holds a non-mutating line: {line}"));
            }
            let resp = loop_.handle_line(line, engine);
            if !resp.starts_with("{\"ok\":true") {
                return Err(format!("snapshot log replay failed: {resp}"));
            }
            replayed += 1;
        }
        if replayed != promised {
            return Err(format!(
                "snapshot log promised {promised} lines, found {replayed}"
            ));
        }
        loop_.counters = counters;
        Ok(loop_)
    }
}

/// The simulators instance `id`'s measurement solo-runs on: one per
/// portfolio model that profiles `kind`, on the salted serve stream.
fn sims(cfg: &FleetConfig, kind: NfKind, id: u32) -> Vec<(NicModelId, Simulator)> {
    let base = cfg.seed ^ SERVE_SALT;
    sims_for(&cfg.specs(), kind, cfg.noise_sigma, base, id as usize)
}

fn err_line(msg: &str) -> String {
    // The wire grammar has no escapes; keep error text quote-free.
    let clean: String = msg.chars().filter(|&c| c != '"' && c != '\\').collect();
    format!("{{\"ok\":false,\"error\":\"{clean}\"}}")
}

/// Serializes one audit observation as an `observe` request line.
pub fn write_observation(out: &mut String, o: &Observation) {
    use std::fmt::Write as _;
    let (model, kind, t) = (o.model.as_str(), o.kind.name(), &o.traffic);
    let (flows, psize, mtbr) = (t.flow_count, t.packet_size, t.mtbr);
    let CounterSample {
        ipc,
        irt,
        l2crd,
        l2cwr,
        memrd,
        memwr,
        wss,
    } = o.competitors;
    // Accelerator pressure flattens to one "resource:value" list (the
    // wire grammar has no arrays).
    let press: Vec<String> = o
        .accel_pressure
        .iter()
        .map(|(k, v)| format!("{k}:{v}"))
        .collect();
    let (press, solo, measured) = (press.join(","), o.solo_tput, o.measured_tput);
    let _ = writeln!(
        out,
        "{{\"op\":\"observe\",\"model\":\"{model}\",\"kind\":\"{kind}\",\"flows\":{flows},\
         \"psize\":{psize},\"mtbr\":{mtbr},\"ipc\":{ipc},\"irt\":{irt},\"l2crd\":{l2crd},\
         \"l2cwr\":{l2cwr},\"memrd\":{memrd},\"memwr\":{memwr},\"wss\":{wss},\
         \"press\":\"{press}\",\"solo\":{solo},\"measured\":{measured}}}"
    );
}

/// Decodes an `observe` line — the inverse of [`write_observation`] —
/// for a daemon serving `cfg`. The observation lands in the buffer an
/// online bank refits on, so everything is checked here: the model must
/// be one of the portfolio's (matched by [`yala_sim::NicSpec::name`]
/// *before* anything is interned — the intern table is process-wide and
/// never shrinks), the kind one of `cfg.kinds`, the traffic in range,
/// and every number of the right sign and below a physical cap.
pub fn read_observation(ev: &RawEvent, cfg: &FleetConfig) -> Result<Observation, String> {
    let model_name = ev.need_str("model")?;
    let (spec, _) = cfg
        .portfolio
        .iter()
        .find(|(s, _)| s.name == model_name)
        .ok_or_else(|| format!("model {model_name} is not in the portfolio"))?;
    let kind = cfg.served_kind(ev.need_str("kind")?)?;
    let mut accel_pressure = Vec::new();
    for entry in ev.need_str("press")?.split(',').filter(|s| !s.is_empty()) {
        let parsed = entry.split_once(':').and_then(|(k, v)| {
            let k = ResourceKind::ACCELERATORS
                .into_iter()
                .find(|r| r.to_string() == k)?;
            let v: f64 = v
                .parse()
                .ok()
                .filter(|v: &f64| v.is_finite() && *v >= 0.0)?;
            Some((k, v))
        });
        let parsed =
            parsed.ok_or_else(|| format!("pressure entry {entry} is not accelerator:value"));
        accel_pressure.push(parsed?);
    }
    let bounded = |key: &str, cap: f64| ev.need_in(key, 0.0, cap);
    let counter = |key: &str| bounded(key, MAX_OBSERVED_COUNTER);
    let solo_tput = bounded("solo", MAX_OBSERVED_PPS)?;
    if solo_tput == 0.0 {
        return Err("field solo must be positive".to_string());
    }
    Ok(Observation {
        model: spec.model(),
        kind,
        traffic: read_traffic(ev, TRAFFIC_KEYS)?,
        competitors: CounterSample {
            ipc: counter("ipc")?,
            irt: counter("irt")?,
            l2crd: counter("l2crd")?,
            l2cwr: counter("l2cwr")?,
            memrd: counter("memrd")?,
            memwr: counter("memwr")?,
            wss: counter("wss")?,
        },
        accel_pressure,
        solo_tput,
        measured_tput: bounded("measured", MAX_OBSERVED_PPS)?,
    })
}

/// The largest throughput an `observe` line may report, in packets/s:
/// some fifteen times a 400 Gb/s port's 64-byte line rate. The bank
/// refits on these numbers, and a larger one — however finite — can
/// overflow the sums of a fit.
const MAX_OBSERVED_PPS: f64 = 1e10;

/// The largest competitor counter an `observe` line may report: far
/// above any rate (per second) or working set (bytes) a NIC's
/// co-residents can sum to.
const MAX_OBSERVED_COUNTER: f64 = 1e15;

#[cfg(test)]
mod tests {
    use super::*;
    use yala_placement::{PlacementPredictor, YalaPredictor};
    use yala_traffic::TrafficProfile;

    fn cfg(seed: u64) -> FleetConfig {
        let mut c = FleetConfig::small(seed);
        c.portfolio = vec![(yala_sim::NicSpec::bluefield2(), 4)];
        c.kinds = vec![NfKind::FlowStats, NfKind::Nat];
        c
    }

    fn place(id: u32, kind: &str, flows: u32) -> String {
        format!(
            "{{\"op\":\"place\",\"id\":{id},\"kind\":\"{kind}\",\"qos\":\"guaranteed\",\
             \"flows\":{flows},\"psize\":512,\"mtbr\":0.0,\"sla_drop\":0.1}}"
        )
    }

    #[test]
    fn greedy_serves_and_is_deterministic() {
        let engine = Engine::sequential();
        let c = cfg(7);
        let msgs: Vec<String> = vec![
            place(1, "nat", 20_000),
            place(2, "flowstats", 40_000),
            "{\"op\":\"query\",\"kind\":\"nat\",\"flows\":8000,\"psize\":256,\
             \"mtbr\":0.0,\"sla_drop\":0.1}"
                .to_string(),
            place(3, "nat", 60_000),
            "{\"op\":\"depart\",\"id\":2}".to_string(),
            "{\"op\":\"fault\",\"nic\":0,\"kind\":\"fail\"}".to_string(),
            "{\"op\":\"fault\",\"nic\":0,\"kind\":\"recover\"}".to_string(),
            "{\"op\":\"stats\"}".to_string(),
        ];
        let drive = || {
            let mut s = ServeLoop::new(&c, "greedy", &engine).expect("build");
            msgs.iter()
                .map(|m| s.handle_line(m, &engine))
                .collect::<Vec<_>>()
        };
        let a = drive();
        let b = drive();
        assert_eq!(a, b, "same messages must produce identical responses");
        assert!(a.iter().all(|r| r.starts_with("{\"ok\":true")), "{a:?}");
        // Three placements, one departure, one failover: stats add up.
        let stats = a.last().expect("stats response");
        assert!(stats.contains("\"admissions\":3"), "{stats}");
        assert!(stats.contains("\"departures\":1"), "{stats}");
        assert!(stats.contains("\"queries\":1"), "{stats}");
        assert!(stats.contains("\"nics_up\":4"), "{stats}");
    }

    #[test]
    fn profile_cache_stays_bounded_over_a_long_request_stream() {
        // Regression: every `place` and `drift` used to leave behind a
        // cache entry keyed by its instance id, which nothing could hit
        // again and nothing evicted — ~300 B per request, forever.
        let engine = Engine::sequential();
        let query = |flows: u32| {
            format!(
                "{{\"op\":\"query\",\"kind\":\"flowstats\",\"flows\":{flows},\
                 \"psize\":256,\"mtbr\":0.0,\"sla_drop\":0.1}}"
            )
        };
        // 4 000 instances come, some drift, and go, six alive at a time
        // on the four NICs so a predicting policy has residents to ask
        // about.
        let drive = |s: &mut ServeLoop| -> Vec<String> {
            let mut replies = Vec::new();
            let depart = |id: u32| format!("{{\"op\":\"depart\",\"id\":{id}}}");
            for id in 0..4_000u32 {
                replies.push(s.handle_line(&place(id, "flowstats", 40 + id % 7), &engine));
                if id % 100 == 0 {
                    replies.push(s.handle_line(&query(50 + id % 300), &engine));
                    let drift = format!(
                        "{{\"op\":\"drift\",\"id\":{id},\"flows\":90,\"psize\":512,\"mtbr\":0.0}}"
                    );
                    replies.push(s.handle_line(&drift, &engine));
                }
                if id >= 6 {
                    replies.push(s.handle_line(&depart(id - 6), &engine));
                }
            }
            for id in 3_994..4_000 {
                replies.push(s.handle_line(&depart(id), &engine));
            }
            replies
        };
        let mut s = ServeLoop::new(&cfg(5), "greedy", &engine).expect("build");
        let replies = drive(&mut s);
        assert!(replies.iter().all(|r| r.starts_with("{\"ok\":true")));
        // Three distinct queries were asked (flows 50, 150, 250); no
        // instance is live.
        assert_eq!(s.cached_profiles(), 3);
        assert!(s.policy.predictor().is_none(), "greedy names nothing");
        // A repeated query still hits.
        s.handle_line(&query(150), &engine);
        assert_eq!(s.cached_profiles(), 3);

        // Under the predicting policy every instance that comes or drifts
        // is a description the predictor has never seen. Its table of
        // them must not grow with the requests served: a daemon whose
        // predictor keeps 64 of anything answers exactly like the default
        // one, and ends the day with at most 64 tabled.
        let mut roomy = ServeLoop::new(&cfg(5), "yala", &engine).expect("build");
        let mut tight = ServeLoop::new(&cfg(5), "yala", &engine).expect("build");
        // Resident descriptions the predictor has tabled right now.
        let tabled = |s: &mut ServeLoop| s.policy.predictor().expect("yala").classes_tabled();
        let predictor = tight.policy.predictor().expect("built as yala");
        *predictor = YalaPredictor::with_memo_cap(predictor.bank(), 64);
        // (A refused instance's `depart` is an error; the replies need
        // not all be ok, they need to be the same.)
        assert_eq!(drive(&mut roomy), drive(&mut tight));
        assert!(
            tabled(&mut roomy) > 4_000,
            "each instance was named: {}",
            tabled(&mut roomy)
        );
        assert!(tabled(&mut tight) <= 64, "{}", tabled(&mut tight));
        let asked = |s: &mut ServeLoop| {
            let predictor = s.policy.predictor().expect("built as yala");
            predictor.memo_stats().expect("memo").lookups
        };
        assert!(asked(&mut roomy) > 4_000, "{}", asked(&mut roomy));
        assert_eq!(asked(&mut roomy), asked(&mut tight));
    }

    #[test]
    fn mono_refuses_to_share_and_rejects_when_full() {
        let engine = Engine::sequential();
        let mut c = cfg(9);
        c.portfolio = vec![(yala_sim::NicSpec::bluefield2(), 2)];
        let mut s = ServeLoop::new(&c, "mono", &engine).expect("build");
        let r1 = s.handle_line(&place(1, "nat", 10_000), &engine);
        let r2 = s.handle_line(&place(2, "nat", 10_000), &engine);
        let r3 = s.handle_line(&place(3, "nat", 10_000), &engine);
        assert!(r1.contains("\"nic\":0"), "{r1}");
        assert!(r2.contains("\"nic\":1"), "{r2}");
        assert!(
            r3.contains("\"nic\":-1"),
            "full mono fleet must reject: {r3}"
        );
    }

    #[test]
    fn malformed_requests_get_errors_not_panics() {
        let engine = Engine::sequential();
        let mut s = ServeLoop::new(&cfg(11), "greedy", &engine).expect("build");
        for bad in [
            "not json at all",
            "{\"nop\":1}",
            "{\"op\":\"warp\"}",
            "{\"op\":\"place\",\"id\":1,\"kind\":\"timetravel\",\"flows\":1,\
             \"psize\":64,\"mtbr\":0.0,\"sla_drop\":0.1}",
            "{\"op\":\"place\",\"id\":-4,\"kind\":\"nat\",\"flows\":1,\"psize\":64,\
             \"mtbr\":0.0,\"sla_drop\":0.1}",
            "{\"op\":\"depart\",\"id\":99}",
            "{\"op\":\"fault\",\"nic\":99,\"kind\":\"fail\"}",
            "{\"op\":\"place\",\"id\":5,\"kind\":\"nat\",\"flows\":1,\"psize\":64,\
             \"mtbr\":0.0,\"sla_drop\":1.5}",
        ] {
            let r = s.handle_line(bad, &engine);
            assert!(r.starts_with("{\"ok\":false"), "{bad} => {r}");
        }
        // Traffic outside the supported ranges is refused on every op
        // that carries it: zero flows and zero-byte packets used to panic
        // the packet generator, four billion flows to allocate for them.
        assert!(s
            .handle_line(&place(9, "nat", 5_000), &engine)
            .starts_with("{\"ok\":true"));
        let mut observe = String::new();
        write_observation(&mut observe, &sample_observation());
        let sent = "\"flows\":12345,\"psize\":512,\"mtbr\":733.25";
        assert!(observe.contains(sent), "{observe}");
        for (flows, psize, mtbr, field) in [
            ("0", "512", "0.0", "flows"),
            ("4000000000", "512", "0.0", "flows"),
            ("4294967297", "512", "0.0", "flows"),
            ("5000.5", "512", "0.0", "flows"),
            ("5000", "0", "0.0", "psize"),
            ("5000", "9000", "0.0", "psize"),
            ("5000", "\"512\"", "0.0", "psize"),
            ("5000", "512", "-1.0", "mtbr"),
            ("5000", "512", "1e9", "mtbr"),
            ("5000", "512", "1e999", "mtbr"),
        ] {
            let traffic = format!("\"flows\":{flows},\"psize\":{psize},\"mtbr\":{mtbr}");
            for line in [
                format!(
                    "{{\"op\":\"place\",\"id\":7,\"kind\":\"nat\",{traffic},\"sla_drop\":0.1}}"
                ),
                format!("{{\"op\":\"query\",\"kind\":\"nat\",{traffic},\"sla_drop\":0.1}}"),
                format!("{{\"op\":\"drift\",\"id\":9,{traffic}}}"),
                observe.trim_end().replacen(sent, &traffic, 1),
            ] {
                let r = s.handle_line(&line, &engine);
                assert!(
                    r.starts_with("{\"ok\":false") && r.contains(&format!("field {field} ")),
                    "{line} => {r}"
                );
            }
        }
        // The refusals changed nothing: the instance is still there.
        let again = s.handle_line(&place(9, "nat", 5_000), &engine);
        assert!(again.contains("already exists"), "{again}");
        // Duplicate id is an error; the original instance survives.
        let ok = s.handle_line(&place(8, "nat", 5_000), &engine);
        assert!(ok.starts_with("{\"ok\":true"), "{ok}");
        let dup = s.handle_line(&place(8, "nat", 5_000), &engine);
        assert!(dup.starts_with("{\"ok\":false"), "{dup}");

        // A kind the config does not list has no trained model: a
        // predicting daemon with a resident to ask about refuses it by
        // name, as `observe` does, and serves on.
        let mut yala = ServeLoop::new(&cfg(11), "yala", &engine).expect("build");
        let r = yala.handle_line(&place(1, "nat", 5_000), &engine);
        assert!(r.contains("\"nic\":0"), "{r}");
        let query = "{\"op\":\"query\",\"kind\":\"acl\",\"flows\":5000,\"psize\":512,\
                     \"mtbr\":0.0,\"sla_drop\":0.1}";
        for line in [place(2, "acl", 5_000), query.to_string()] {
            let r = yala.handle_line(&line, &engine);
            assert!(
                r.starts_with("{\"ok\":false") && r.contains("NF kind acl is not served"),
                "{line} => {r}"
            );
        }
        let r = yala.handle_line(&place(2, "nat", 5_000), &engine);
        assert!(r.starts_with("{\"ok\":true"), "{r}");
    }

    #[test]
    fn snapshot_restore_continues_bit_identically() {
        let engine = Engine::sequential();
        let c = cfg(13);
        let first: Vec<String> = vec![
            place(1, "nat", 20_000),
            place(2, "flowstats", 40_000),
            "{\"op\":\"query\",\"kind\":\"nat\",\"flows\":8000,\"psize\":256,\
             \"mtbr\":0.0,\"sla_drop\":0.1}"
                .to_string(),
            place(3, "nat", 60_000),
            "{\"op\":\"fault\",\"nic\":0,\"kind\":\"fail\"}".to_string(),
        ];
        // After the restore, queries: a traffic larger than any queried
        // before, then one repeating the pre-checkpoint query. The
        // restored daemon's query profiler starts cold; the uninterrupted
        // one's holds the query seed's family (and its cache the repeat).
        let query = |flows: u32, psize: u32| {
            format!(
                "{{\"op\":\"query\",\"kind\":\"nat\",\"flows\":{flows},\"psize\":{psize},\
                 \"mtbr\":0.0,\"sla_drop\":0.1}}"
            )
        };
        let second: Vec<String> = vec![
            query(120_000, 512),
            query(8_000, 256),
            "{\"op\":\"fault\",\"nic\":0,\"kind\":\"recover\"}".to_string(),
            place(4, "flowstats", 90_000),
            "{\"op\":\"depart\",\"id\":1}".to_string(),
            place(5, "nat", 15_000),
            "{\"op\":\"stats\"}".to_string(),
        ];
        // Uninterrupted run.
        let mut whole = ServeLoop::new(&c, "greedy", &engine).expect("build");
        let mut whole_resp = Vec::new();
        for m in first.iter().chain(&second) {
            whole_resp.push(whole.handle_line(m, &engine));
        }
        // Interrupted run: drive half, snapshot, drop, restore, finish.
        let mut half = ServeLoop::new(&c, "greedy", &engine).expect("build");
        for m in &first {
            half.handle_line(m, &engine);
        }
        let snap = half.snapshot();
        drop(half);
        let mut restored = ServeLoop::restore(&c, "greedy", &engine, &snap).expect("restore");
        let tail: Vec<String> = second
            .iter()
            .map(|m| restored.handle_line(m, &engine))
            .collect();
        assert_eq!(
            tail,
            whole_resp[first.len()..],
            "responses after restore must be bit-identical"
        );
        assert_eq!(
            restored.snapshot(),
            whole.snapshot(),
            "final snapshots must be byte-identical"
        );
        // Cold or warm, each query measured the same bytes.
        for (flows, psize) in [(120_000, 512), (8_000, 256)] {
            let key = ProfileKey {
                kind: NfKind::Nat,
                traffic: TrafficKey::exact(&TrafficProfile::new(flows, psize, 0.0)),
                seed: c.seed.wrapping_add(QUERY_INSTANCE as u64),
            };
            let entry = |s: &ServeLoop| format!("{:?}", s.cache.get(&key).expect("measured"));
            assert_eq!(entry(&restored), entry(&whole), "{flows} flows");
        }
    }

    #[test]
    fn restore_rejects_mismatches() {
        let engine = Engine::sequential();
        let c = cfg(17);
        let mut s = ServeLoop::new(&c, "greedy", &engine).expect("build");
        s.handle_line(&place(1, "nat", 9_000), &engine);
        let snap = s.snapshot();
        assert!(ServeLoop::restore(&c, "mono", &engine, &snap).is_err());
        assert!(ServeLoop::restore(&cfg(18), "greedy", &engine, &snap).is_err());
        assert!(ServeLoop::restore(&c, "greedy", &engine, "").is_err());
        let vandalized = snap.replacen("\"yala_serve_snapshot\":1", "\"yala_serve_snapshot\":7", 1);
        assert!(ServeLoop::restore(&c, "greedy", &engine, &vandalized).is_err());
        let truncated: String = snap.lines().take(1).map(|l| format!("{l}\n")).collect();
        assert!(ServeLoop::restore(&c, "greedy", &engine, &truncated).is_err());
        assert!(ServeLoop::restore(&c, "greedy", &engine, &snap).is_ok());
        // The body may hold only the ops `handle_line` logs: a smuggled
        // `shutdown` would restore a daemon that is already down.
        for smuggled in ["shutdown", "stats", "hello"] {
            let body =
                format!("{snap}{{\"op\":\"{smuggled}\"}}\n").replacen("\"log\":1", "\"log\":2", 1);
            let err = ServeLoop::restore(&c, "greedy", &engine, &body).err();
            assert!(
                err.is_some_and(|e| e.contains("non-mutating")),
                "{smuggled}"
            );
        }
        let negative = snap.replacen("\"admissions\":1", "\"admissions\":-1", 1);
        assert_ne!(negative, snap);
        assert!(ServeLoop::restore(&c, "greedy", &engine, &negative).is_err());
    }

    fn sample_observation() -> Observation {
        Observation {
            model: yala_sim::NicSpec::bluefield2().model(),
            kind: NfKind::Nat,
            traffic: TrafficProfile::new(12_345, 512, 733.25),
            competitors: CounterSample {
                ipc: 1.25,
                irt: 9.5e8,
                l2crd: 1.5e7,
                l2cwr: 2.5e6,
                memrd: 3.75e6,
                memwr: 1.125e6,
                wss: 6.5e7,
            },
            accel_pressure: vec![(ResourceKind::Regex, 0.375)],
            solo_tput: 1.0e7,
            measured_tput: 8.25e6,
        }
    }

    #[test]
    fn observations_round_trip_through_the_observe_codec() {
        let o = sample_observation();
        let mut line = String::new();
        write_observation(&mut line, &o);
        let ev = parse_line(&line).expect("parseable");
        assert_eq!(read_observation(&ev, &cfg(1)), Ok(o));
    }

    #[test]
    fn observe_refuses_what_the_bank_must_not_refit_on() {
        let engine = Engine::sequential();
        let mut s = ServeLoop::new(&cfg(23), "greedy", &engine).expect("build");
        let mut good = String::new();
        write_observation(&mut good, &sample_observation());
        let good = good.trim_end();
        let r = s.handle_line(good, &engine);
        assert!(r.contains("\"pending\":1"), "{r}");
        for (key, sent, bad) in [
            ("model", "\"bluefield2\"", "\"never-seen-nic\""),
            ("kind", "\"nat\"", "\"nids\""),
            ("kind", "\"nat\"", "\"timetravel\""),
            ("flows", "12345", "-7"),
            ("flows", "12345", "0"),
            ("psize", "512", "9000"),
            ("mtbr", "733.25", "-1.0"),
            ("ipc", "1.25", "-1.25"),
            ("wss", "65000000", "1e999"),
            ("wss", "65000000", "1.7e308"),
            ("press", "\"regex:0.375\"", "\"regex:inf\""),
            ("press", "\"regex:0.375\"", "\"warp:1\""),
            ("solo", "10000000", "0"),
            ("solo", "10000000", "1e999"),
            ("solo", "10000000", "1.7e308"),
            ("measured", "8250000", "-1"),
            ("measured", "8250000", "1.7e308"),
        ] {
            let line = good.replacen(&format!("\"{key}\":{sent}"), &format!("\"{key}\":{bad}"), 1);
            assert_ne!(line, good, "{key}:{sent} not found in {good}");
            let r = s.handle_line(&line, &engine);
            assert!(
                r.starts_with("{\"ok\":false") && r.contains(key),
                "{line} => {r}"
            );
        }
        let r = s.handle_line("{\"op\":\"stats\"}", &engine);
        assert!(
            r.contains("\"pending\":1") && r.contains("\"observations\":1"),
            "{r}"
        );
        assert_eq!(
            s.snapshot().lines().count(),
            2,
            "refused lines are not logged"
        );
    }

    /// One seeded stream — every mutating op plus `query`, on a mixed
    /// two-model portfolio with a regex NF only one model runs — hashed
    /// as the daemon answered it before it shared `Residency`: every
    /// reply, the final `stats`, the snapshot. The daemon's bytes are
    /// committed nowhere else; a constant that moves is a changed decision.
    #[test]
    fn pinned_stream_is_answered_as_before_the_shared_residency() {
        let engine = Engine::sequential();
        let mut c = FleetConfig::mixed(29, 6);
        c.kinds = vec![NfKind::FlowStats, NfKind::Nat, NfKind::Nids];
        // splitmix64: the stream is a pure function of this seed.
        let mut x = 29u64;
        let mut rnd = move |n: u64| {
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let z = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            let z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (z ^ (z >> 31)) % n
        };
        let mut observe = String::new();
        write_observation(&mut observe, &sample_observation());
        let mut lines: Vec<String> = Vec::new();
        for id in 0..260u64 {
            let kind = ["flowstats", "nat", "nids"][rnd(3) as usize];
            let qos = ["guaranteed", "best_effort"][rnd(2) as usize];
            let mtbr = if kind == "nids" { 600.0 } else { 0.0 };
            let traffic = |rnd: &mut dyn FnMut(u64) -> u64| {
                let flows = [300, 3_000, 20_000, 90_000][rnd(4) as usize];
                let psize = [64, 512, 1_500][rnd(3) as usize];
                format!("\"flows\":{flows},\"psize\":{psize},\"mtbr\":{mtbr}")
            };
            let sla = [0.02, 0.05, 0.1, 0.2][rnd(4) as usize];
            let at = traffic(&mut rnd);
            lines.push(format!(
                "{{\"op\":\"place\",\"id\":{id},\"kind\":\"{kind}\",\"qos\":\"{qos}\",{at},\
                 \"sla_drop\":{sla}}}"
            ));
            let earlier = rnd(id + 1);
            match rnd(8) {
                0 | 1 => lines.push(format!("{{\"op\":\"depart\",\"id\":{earlier}}}")),
                2 => {
                    let at = traffic(&mut rnd);
                    lines.push(format!("{{\"op\":\"drift\",\"id\":{earlier},{at}}}"));
                }
                3 => lines.push(format!(
                    "{{\"op\":\"query\",\"kind\":\"{kind}\",{at},\"sla_drop\":{sla}}}"
                )),
                4 => {
                    let (kind, nic) = (["fail", "recover", "recover"][rnd(3) as usize], rnd(6));
                    lines.push(format!(
                        "{{\"op\":\"fault\",\"nic\":{nic},\"kind\":\"{kind}\"}}"
                    ));
                }
                5 => lines.push(observe.trim_end().to_string()),
                _ => {}
            }
            // Old tenants leave, so the six NICs stay contended, not full.
            if id >= 14 {
                lines.push(format!("{{\"op\":\"depart\",\"id\":{}}}", id - 14));
            }
            if id % 85 == 84 {
                lines.push("{\"op\":\"absorb\"}".to_string());
            }
        }
        lines.push("{\"op\":\"stats\"}".to_string());
        assert!(lines.len() >= 600, "{}", lines.len());
        for op in MUTATING_OPS.iter().chain(&["query"]) {
            let tag = format!("{{\"op\":\"{op}\"");
            assert!(lines.iter().any(|l| l.starts_with(&tag)), "no {op}");
        }
        for (policy, pinned) in [
            ("mono", 0xb984_59d6_fe99_5a5a_u64),
            ("greedy", 0x5ccf_6582_1298_3f38),
            ("yala", 0xd9c0_0256_abb2_d4fb),
            ("yala-online", 0x92b8_15ec_0239_007c),
        ] {
            let mut s = ServeLoop::new(&c, policy, &engine).expect("build");
            let mut bytes = String::new();
            for line in &lines {
                bytes.push_str(&s.handle_line(line, &engine));
                bytes.push('\n');
            }
            assert!(bytes.contains("\"nic\":-1") && bytes.contains("\"replaced\":"));
            bytes.push_str(&s.snapshot());
            let digest = yala_telemetry::stable_hash64(bytes.as_bytes());
            assert_eq!(digest, pinned, "{policy}: {digest:#018x}");
        }
    }

    /// Queries interleaved with the places, drifts and departs that
    /// measure under per-instance seeds, on a mixed portfolio, every
    /// served kind, flow counts big-small-big (Nat's past its port wrap):
    /// the replies are pinned, and every entry a query measured equals
    /// `measure_entry` on a fresh thread — through a fresh profiler —
    /// bit for bit.
    #[test]
    fn interleaved_queries_measure_as_a_fresh_profiler_would() {
        let engine = Engine::sequential();
        let mut c = FleetConfig::mixed(31, 6);
        c.kinds = vec![
            NfKind::FlowStats,
            NfKind::Nat,
            NfKind::Nids,
            NfKind::IpTunnel,
        ];
        let flows = [60_000u32, 2_000, 30_000, 300, 90_000];
        let traffic = |kind: NfKind, at: usize| {
            let mtbr = if kind.uses_regex() { 600.0 } else { 0.0 };
            let (flows, psize) = (flows[at % flows.len()], [64, 512, 1_500][at % 3]);
            format!("\"flows\":{flows},\"psize\":{psize},\"mtbr\":{mtbr}")
        };
        let mut lines: Vec<(Option<NfKind>, String)> = Vec::new();
        let mut id = 0u32;
        for step in 0..flows.len() {
            for &kind in &c.kinds {
                let query = |at| {
                    let line = format!(
                        "{{\"op\":\"query\",\"kind\":\"{kind}\",{},\"sla_drop\":0.1}}",
                        traffic(kind, at)
                    );
                    (Some(kind), line)
                };
                lines.push((
                    None,
                    format!(
                        "{{\"op\":\"place\",\"id\":{id},\"kind\":\"{kind}\",\
                         \"qos\":\"guaranteed\",{},\"sla_drop\":0.1}}",
                        traffic(kind, step + 1)
                    ),
                ));
                lines.push(query(step));
                if id >= 2 {
                    let at = traffic(c.kinds[(id as usize - 2) % c.kinds.len()], step + 3);
                    let drift = format!("{{\"op\":\"drift\",\"id\":{},{at}}}", id - 2);
                    lines.push((None, drift));
                }
                // A repeat of an earlier query (a hit) or a new one.
                lines.push(query(step + 2));
                if id >= 5 {
                    lines.push((None, format!("{{\"op\":\"depart\",\"id\":{}}}", id - 5)));
                }
                id += 1;
            }
        }
        lines.push((None, "{\"op\":\"stats\"}".to_string()));
        let mut s = ServeLoop::new(&c, "yala", &engine).expect("build");
        let mut bytes = String::new();
        let mut measured = 0;
        for (query_kind, line) in &lines {
            let before = s.cached_profiles();
            let reply = s.handle_line(line, &engine);
            bytes.push_str(&reply);
            bytes.push('\n');
            let Some(kind) = *query_kind else { continue };
            assert!(reply.starts_with("{\"ok\":true"), "{line} => {reply}");
            if s.cached_profiles() == before {
                continue;
            }
            let ev = parse_line(line).expect("a request");
            let traffic = read_traffic(&ev, TRAFFIC_KEYS).expect("traffic");
            let key = ProfileKey {
                kind,
                traffic: TrafficKey::exact(&traffic),
                seed: c.seed.wrapping_add(QUERY_INSTANCE as u64),
            };
            let cached = s.cache.get(&key).expect("the query measured its key");
            let (specs, sigma, seed) = (c.specs(), c.noise_sigma, key.seed);
            let base = c.seed ^ SERVE_SALT;
            let fresh = std::thread::spawn(move || {
                let mut sims = sims_for(&specs, kind, sigma, base, QUERY_INSTANCE as usize);
                measure_entry(&mut sims, kind, traffic, seed)
            })
            .join()
            .expect("fresh measurement");
            assert_eq!(format!("{cached:?}"), format!("{fresh:?}"), "{line}");
            measured += 1;
        }
        assert!(measured >= 15, "{measured} query misses");
        assert!(
            bytes.contains("\"op\":\"drift\",\"id\""),
            "a drift was served"
        );
        bytes.push_str(&s.snapshot());
        let digest = yala_telemetry::stable_hash64(bytes.as_bytes());
        assert_eq!(digest, 0x6884_7095_3c2a_58fa, "{digest:#018x}");
    }

    #[test]
    fn yala_online_absorbs_observations() {
        let engine = Engine::sequential();
        let c = cfg(19);
        let mut s = ServeLoop::new(&c, "yala-online", &engine).expect("build");
        let r = s.handle_line(&place(1, "nat", 20_000), &engine);
        assert!(r.contains("\"nic\":0"), "{r}");
        // Feed synthetic audit observations through the wire format.
        let mut obs_line = String::new();
        write_observation(&mut obs_line, &sample_observation());
        for _ in 0..3 {
            let r = s.handle_line(&obs_line, &engine);
            assert!(r.starts_with("{\"ok\":true"), "{r}");
        }
        let r = s.handle_line("{\"op\":\"absorb\"}", &engine);
        assert!(r.contains("\"absorbed\":3"), "{r}");
        assert!(r.contains("\"passes\":1"), "{r}");
        // A frozen yala daemon ignores observations on absorb.
        let mut frozen = ServeLoop::new(&c, "yala", &engine).expect("build");
        frozen.handle_line(&obs_line, &engine);
        let r = frozen.handle_line("{\"op\":\"absorb\"}", &engine);
        assert!(r.contains("\"absorbed\":0"), "{r}");
    }

    /// Finite but absurd throughputs once reached the refit, whose target
    /// mean overflowed and killed the daemon; now the lines are refused
    /// and the daemon keeps answering.
    #[test]
    fn absurd_throughputs_never_reach_a_refit() {
        let engine = Engine::sequential();
        let mut s = ServeLoop::new(&cfg(19), "yala-online", &engine).expect("build");
        let mut line = String::new();
        write_observation(&mut line, &sample_observation());
        let line = line
            .replacen("\"solo\":10000000", "\"solo\":1.7e308", 1)
            .replacen("\"measured\":8250000", "\"measured\":1.7e308", 1);
        assert!(
            line.contains("\"solo\":1.7e308,\"measured\":1.7e308"),
            "{line}"
        );
        for _ in 0..3 {
            let r = s.handle_line(line.trim_end(), &engine);
            assert!(r.starts_with("{\"ok\":false") && r.contains("solo"), "{r}");
        }
        let r = s.handle_line("{\"op\":\"absorb\"}", &engine);
        assert!(r.contains("\"absorbed\":0"), "{r}");
        let r = s.handle_line("{\"op\":\"stats\"}", &engine);
        assert!(
            r.starts_with("{\"ok\":true") && r.contains("\"observations\":0"),
            "{r}"
        );
    }
}
