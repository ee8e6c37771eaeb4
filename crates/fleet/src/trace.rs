//! Scenario traces: Poisson NF arrivals, exponential lifetimes, and
//! per-NF traffic-drift trajectories. Everything the event loop will
//! consume is generated up front as a pure function of the config seed,
//! so a trace — and every report derived from it — is reproducible
//! bit-for-bit.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use yala_core::{Engine, ModelBank, QosClass, TrainConfig, YalaModel};
use yala_nf::NfKind;
use yala_sim::NicSpec;
use yala_traffic::{TrafficProfile, TrafficQuantizer};

/// Milliseconds per second: fleet time is integer milliseconds so event
/// ordering is exact (no float-comparison ties).
pub const MS_PER_S: u64 = 1_000;

/// Salt decorrelating the template table's stream from the per-record
/// generation stream.
const TEMPLATE_SALT: u64 = 0x7E3A_917E;

/// Salt decorrelating the per-record QoS-class stream from the arrival
/// stream, so turning tiers on (or changing the guaranteed fraction)
/// never perturbs arrival times, lifetimes, kinds, or traffic draws.
const QOS_SALT: u64 = 0x9057_1E25;

/// Salt decorrelating the fault schedule from every other stream: a
/// fault-free config generates byte-identical records to the pre-fault
/// trace generator.
const FAULT_SALT: u64 = 0xFA17_5EED;

/// Salt for the shaped-arrival candidate stream used by
/// [`FleetTrace::diurnal`] and [`FleetTrace::flash_crowd`]: arrival
/// *times* come from their own stream so the per-record attribute draws
/// (lifetime, kind, traffic, SLA) see an identical stream under every
/// arrival shape — record `i` is the same NF in a diurnal trace and a
/// flash crowd, only its arrival time moves.
const SHAPE_SALT: u64 = 0x5EA5_0A1D;

/// How per-NF traffic profiles are drawn at trace generation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TrafficModel {
    /// Every profile drawn independently and uniformly at random — the
    /// original fleet behavior, maximal traffic diversity.
    Uniform,
    /// Tenants cluster around `count` canonical traffic templates, each
    /// drawn profile a template plus per-attribute relative jitter
    /// uniform in `[-jitter, +jitter]`. This is the realistic
    /// multi-tenant shape — fleets run a handful of NF configurations,
    /// not a continuum — and what makes quantized profile caching pay:
    /// with `jitter` below half the re-profile threshold, every tenant
    /// of a template lands in the template's quantization bucket.
    Templates {
        /// Number of canonical templates.
        count: u32,
        /// Per-attribute relative jitter half-width.
        jitter: f64,
    },
}

/// What happened to a NIC, as scheduled by the fault plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Hard failure: the NIC drops out instantly, every resident NF is
    /// evicted with no notice.
    Fail,
    /// The NIC returns to service (after a failure's repair time or a
    /// drain's offline window), empty.
    Recover,
    /// A maintenance drain is announced: the NIC stops admitting NFs and
    /// the orchestrator has the notice window to evacuate residents
    /// gracefully.
    DrainStart,
    /// The drain notice expires: any NF still resident is force-evicted
    /// and the NIC goes offline for maintenance.
    DrainEnd,
}

impl FaultKind {
    /// Same-millisecond processing rank: capacity-returning events fire
    /// before capacity-removing ones, so an evacuation triggered at time
    /// `t` can use a NIC that recovered at `t`.
    pub fn rank(self) -> u8 {
        match self {
            FaultKind::Recover => 0,
            FaultKind::DrainEnd => 1,
            FaultKind::DrainStart => 2,
            FaultKind::Fail => 3,
        }
    }

    /// Stable lowercase name (used in logs and reports).
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::Fail => "fail",
            FaultKind::Recover => "recover",
            FaultKind::DrainStart => "drain_start",
            FaultKind::DrainEnd => "drain_end",
        }
    }

    /// The inverse of [`FaultKind::name`]; `None` for unknown names.
    pub fn from_name(name: &str) -> Option<FaultKind> {
        use FaultKind::*;
        [Fail, Recover, DrainStart, DrainEnd]
            .into_iter()
            .find(|k| k.name() == name)
    }
}

/// One scheduled fault event. The whole schedule is a pure function of
/// the config (seed, portfolio, plan), generated up front like the NF
/// records, so fault-injected runs stay bit-identical across runs and
/// engine thread counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// When the event fires, milliseconds.
    pub t_ms: u64,
    /// Which NIC (fleet index).
    pub nic: usize,
    /// What happens.
    pub kind: FaultKind,
}

/// The fault-injection plan: how often NICs fail, how long repairs
/// take, and how many maintenance drains the horizon sees.
/// [`FaultPlan::none`] (the default) schedules nothing, leaving every
/// pre-fault trace byte-identical.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Per-NIC mean time between hard failures, seconds. `0.0` disables
    /// failures.
    pub mtbf_s: f64,
    /// Mean repair time after a hard failure, seconds (exponential,
    /// floored at one minute).
    pub mean_repair_s: f64,
    /// Number of maintenance drains to attempt over the horizon (drains
    /// that would overlap another incident on the same NIC are skipped
    /// deterministically).
    pub drains: u32,
    /// Advance notice between a drain's announcement and its deadline —
    /// the graceful-evacuation window, seconds.
    pub drain_notice_s: u64,
    /// How long a drained NIC stays offline for maintenance after the
    /// deadline, seconds.
    pub drain_offline_s: u64,
}

impl FaultPlan {
    /// No failures, no drains: the fault-free plan every existing
    /// scenario uses.
    pub fn none() -> Self {
        Self {
            mtbf_s: 0.0,
            mean_repair_s: 0.0,
            drains: 0,
            drain_notice_s: 0,
            drain_offline_s: 0,
        }
    }

    /// Whether the plan can schedule any event at all.
    pub fn is_none(&self) -> bool {
        self.mtbf_s <= 0.0 && self.drains == 0
    }
}

impl Default for FaultPlan {
    fn default() -> Self {
        Self::none()
    }
}

/// Parameters of one fleet scenario.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// The NIC hardware portfolio: `(model spec, NIC count)` per hardware
    /// model, expanded in order to NIC indices — NICs `0..count₀` are the
    /// first model, the next `count₁` the second, and so on. A
    /// single-entry portfolio is the old homogeneous fleet; model names
    /// must be distinct.
    pub portfolio: Vec<(NicSpec, usize)>,
    /// Simulated duration in seconds.
    pub duration_s: u64,
    /// Mean inter-arrival time of the Poisson NF arrival process, seconds.
    pub mean_interarrival_s: f64,
    /// Mean NF lifetime (exponential), seconds.
    pub mean_lifetime_s: f64,
    /// SLA audit period, seconds. Audits are the fleet's control-loop
    /// tick: ground truth is sampled, drifted NFs are re-profiled, and
    /// migration policies react.
    pub audit_period_s: u64,
    /// NF kinds arriving (uniformly chosen).
    pub kinds: Vec<NfKind>,
    /// SLA drop tolerance range (uniform), e.g. `(0.05, 0.20)`.
    pub sla_drop_range: (f64, f64),
    /// Whether per-NF traffic drifts over the NF's lifetime (start and end
    /// profiles are drawn independently and interpolated); with drift off,
    /// traffic is constant at the start profile.
    pub drift: bool,
    /// How traffic profiles are drawn ([`TrafficModel`]).
    pub traffic_model: TrafficModel,
    /// Largest flow count drawn for a traffic profile.
    pub max_flows: u32,
    /// Relative change in any traffic attribute (flows, packet size,
    /// MTBR) that triggers a re-profile at the next audit epoch.
    pub reprofile_threshold: f64,
    /// Migration budget per audit epoch (drains are operationally
    /// expensive; a real operator rate-limits them).
    pub max_migrations_per_audit: usize,
    /// Measurement noise sigma for profiling and ground-truth audits.
    pub noise_sigma: f64,
    /// Fraction of arriving NFs drawn as [`QosClass::Guaranteed`]; the
    /// rest are best-effort. Drawn from a stream decorrelated from the
    /// arrival process, so `1.0` (the default) reproduces the pre-tier
    /// traces byte-for-byte.
    pub guaranteed_fraction: f64,
    /// The fault-injection plan ([`FaultPlan::none`] by default).
    pub faults: FaultPlan,
    /// Master seed: every random stream in the scenario derives from it.
    pub seed: u64,
}

impl FleetConfig {
    /// A small smoke-test scenario: a couple of simulated hours on a
    /// 16-NIC fleet. Benchmarks override the fields they sweep.
    pub fn small(seed: u64) -> Self {
        Self {
            portfolio: vec![(NicSpec::bluefield2(), 16)],
            duration_s: 2 * 3_600,
            mean_interarrival_s: 180.0,
            mean_lifetime_s: 1_200.0,
            audit_period_s: 600,
            kinds: vec![NfKind::FlowStats, NfKind::Acl, NfKind::Nat],
            sla_drop_range: (0.05, 0.20),
            drift: true,
            traffic_model: TrafficModel::Uniform,
            max_flows: 128_000,
            reprofile_threshold: 0.10,
            max_migrations_per_audit: 8,
            noise_sigma: 0.005,
            guaranteed_fraction: 1.0,
            faults: FaultPlan::none(),
            seed,
        }
    }

    /// A mixed 50/50 BlueField-2 + Pensando portfolio of `nics` total
    /// NICs (BlueField-2 gets the odd one), otherwise the
    /// [`Self::small`] defaults — the heterogeneous smoke scenario.
    pub fn mixed(seed: u64, nics: usize) -> Self {
        let mut cfg = Self::small(seed);
        cfg.portfolio = vec![
            (NicSpec::bluefield2(), nics - nics / 2),
            (NicSpec::pensando(), nics / 2),
        ];
        cfg
    }

    /// Total NICs across the portfolio.
    pub fn nics(&self) -> usize {
        self.portfolio.iter().map(|(_, n)| n).sum()
    }

    /// The portfolio's model specs, in portfolio order.
    pub fn specs(&self) -> Vec<NicSpec> {
        self.portfolio.iter().map(|(s, _)| s.clone()).collect()
    }

    /// The portfolio position (model index) of NIC `nic`.
    ///
    /// # Panics
    ///
    /// Panics if `nic` is outside the fleet.
    pub fn nic_model_pos(&self, nic: usize) -> usize {
        let mut base = 0usize;
        for (m, (_, count)) in self.portfolio.iter().enumerate() {
            if nic < base + count {
                return m;
            }
            base += count;
        }
        panic!("NIC {nic} outside a {}-NIC fleet", self.nics());
    }

    /// The hardware spec of NIC `nic`.
    pub fn nic_spec(&self, nic: usize) -> &NicSpec {
        &self.portfolio[self.nic_model_pos(nic)].0
    }

    /// The NF kind `name` names, if `kinds` (what a bank is trained for)
    /// lists it: the rule for a daemon request, as
    /// [`TraceError::UnservedKind`] is for a trace record.
    pub fn served_kind(&self, name: &str) -> Result<NfKind, String> {
        NfKind::from_name(name)
            .filter(|k| self.kinds.contains(k))
            .ok_or_else(|| format!("NF kind {name} is not served here"))
    }

    /// The Yala bank of this config: one model per `(portfolio model,
    /// kind)` cell, trained from the scenario seed. The daemon, `yalad
    /// replay`, and every restore of either derive their predictor from
    /// this one call — restore-by-replay is only sound while the
    /// snapshotting and the restoring process agree on it.
    pub fn train_bank(&self, engine: &Engine) -> ModelBank<YalaModel> {
        let train = TrainConfig {
            seed: self.seed,
            ..TrainConfig::default()
        };
        ModelBank::train_yala(&self.specs(), self.noise_sigma, &self.kinds, &train, engine)
    }

    /// Number of audit epochs in the scenario.
    pub fn epochs(&self) -> u64 {
        self.duration_s / self.audit_period_s
    }

    /// The canonical template table for [`TrafficModel::Templates`]:
    /// `count` profiles from a stream decorrelated from the per-record
    /// generation stream, canonicalized to quantization-bucket
    /// representatives at the config's re-profile threshold — so an
    /// unjittered tenant keys exactly onto its template's bucket. Empty
    /// under [`TrafficModel::Uniform`].
    pub fn traffic_templates(&self) -> Vec<TrafficProfile> {
        match self.traffic_model {
            TrafficModel::Uniform => Vec::new(),
            TrafficModel::Templates { count, .. } => {
                let quantizer = TrafficQuantizer::new(self.reprofile_threshold);
                let mut rng = StdRng::seed_from_u64(self.seed ^ TEMPLATE_SALT);
                (0..count)
                    .map(|_| {
                        quantizer
                            .canonicalize(&TrafficProfile::random(&mut rng, self.max_flows))
                            .1
                    })
                    .collect()
            }
        }
    }

    /// The scenario's fault schedule: a pure function of the seed,
    /// portfolio size, and fault plan, sorted by
    /// `(t_ms, kind rank, nic)` — the total order the event loop
    /// replays. Failures are per-NIC renewal processes (exponential
    /// time-to-failure, exponential repair floored at one minute);
    /// drains pick a NIC and a start time uniformly, retrying a bounded
    /// number of times and then skipping deterministically if the window
    /// would overlap another incident on the same NIC. Empty under
    /// [`FaultPlan::none`].
    pub fn fault_schedule(&self) -> Vec<FaultEvent> {
        let plan = &self.faults;
        if plan.is_none() {
            return Vec::new();
        }
        let horizon_ms = self.duration_s * MS_PER_S;
        let nics = self.nics();
        let mut rng = StdRng::seed_from_u64(self.seed ^ FAULT_SALT);
        let mut events = Vec::new();
        // Per-NIC incident windows `[start, end)` already claimed, used
        // to keep drains from overlapping failures or other drains.
        let mut busy: Vec<Vec<(u64, u64)>> = vec![Vec::new(); nics];
        if plan.mtbf_s > 0.0 {
            for (nic, busy_nic) in busy.iter_mut().enumerate() {
                let mut t = 0.0f64;
                loop {
                    t += exponential_ms(&mut rng, plan.mtbf_s);
                    let fail_ms = (t as u64).max(1);
                    if fail_ms >= horizon_ms {
                        break;
                    }
                    let repair_ms = exponential_ms(&mut rng, plan.mean_repair_s).max(60_000.0);
                    let recover_ms = fail_ms + repair_ms as u64;
                    events.push(FaultEvent {
                        t_ms: fail_ms,
                        nic,
                        kind: FaultKind::Fail,
                    });
                    if recover_ms < horizon_ms {
                        events.push(FaultEvent {
                            t_ms: recover_ms,
                            nic,
                            kind: FaultKind::Recover,
                        });
                    }
                    busy_nic.push((fail_ms, recover_ms));
                    t = recover_ms as f64;
                }
            }
        }
        let drain_span_ms = (plan.drain_notice_s + plan.drain_offline_s) * MS_PER_S;
        if plan.drains > 0 && drain_span_ms > 0 && drain_span_ms < horizon_ms {
            for _ in 0..plan.drains {
                // Bounded retries keep the draw deterministic even when
                // a candidate window collides with an existing incident.
                for _attempt in 0..8 {
                    let nic = rng.gen_range(0..nics);
                    let start = rng.gen_range(1..horizon_ms - drain_span_ms);
                    let end = start + drain_span_ms;
                    if busy[nic].iter().any(|&(s, e)| start < e && s < end) {
                        continue;
                    }
                    let deadline = start + plan.drain_notice_s * MS_PER_S;
                    events.push(FaultEvent {
                        t_ms: start,
                        nic,
                        kind: FaultKind::DrainStart,
                    });
                    events.push(FaultEvent {
                        t_ms: deadline,
                        nic,
                        kind: FaultKind::DrainEnd,
                    });
                    if end < horizon_ms {
                        events.push(FaultEvent {
                            t_ms: end,
                            nic,
                            kind: FaultKind::Recover,
                        });
                    }
                    busy[nic].push((start, end));
                    break;
                }
            }
        }
        events.sort_by_key(|e| (e.t_ms, e.kind.rank(), e.nic));
        events
    }
}

/// One NF's life in the scenario: when it arrives and departs, what it
/// is, how its traffic drifts, and how tight its SLA is.
#[derive(Debug, Clone)]
pub struct NfRecord {
    /// Dense instance id (index into the trace).
    pub id: u32,
    /// Which NF.
    pub kind: NfKind,
    /// Arrival time, milliseconds.
    pub arrival_ms: u64,
    /// Departure time, milliseconds (may exceed the scenario horizon;
    /// such NFs simply never depart on-trace).
    pub departure_ms: u64,
    /// Traffic profile at arrival.
    pub start: TrafficProfile,
    /// Traffic profile reached at departure (equals `start` when drift is
    /// disabled).
    pub end: TrafficProfile,
    /// Maximum tolerated throughput drop vs. solo.
    pub sla_drop: f64,
    /// Service tier: guaranteed NFs are protected during degradation;
    /// best-effort NFs are shed/parked first.
    pub qos: QosClass,
}

impl NfRecord {
    /// The instantaneous traffic profile at time `t_ms`: linear
    /// interpolation along the drift trajectory, clamped to the lifetime.
    pub fn traffic_at(&self, t_ms: u64) -> TrafficProfile {
        let span = self.departure_ms.saturating_sub(self.arrival_ms).max(1);
        let frac = t_ms.saturating_sub(self.arrival_ms) as f64 / span as f64;
        self.start.lerp(&self.end, frac)
    }
}

/// Why [`FleetTrace::from_records`] rejected its inputs. Each variant
/// names the offending record (or config field) so empirical-trace
/// loaders can report actionable errors instead of panicking mid-load.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceError {
    /// The config names no NF kinds.
    NoKinds,
    /// The audit period is zero (the control loop would never tick).
    ZeroAuditPeriod,
    /// A template traffic model with zero templates.
    ZeroTemplates,
    /// Template jitter outside `[0, 1)`.
    BadTemplateJitter(f64),
    /// The NIC portfolio is empty.
    EmptyPortfolio,
    /// Two portfolio entries share a model name.
    DuplicateModel(String),
    /// `guaranteed_fraction` outside `[0, 1]` or non-finite.
    BadGuaranteedFraction(f64),
    /// A fault-plan rate or duration is negative or non-finite.
    BadFaultPlan(&'static str),
    /// Measurement `noise_sigma` outside `[0, 0.3)`.
    BadNoiseSigma(f64),
    /// `reprofile_threshold` outside `(0, 1)`.
    BadReprofileThreshold(f64),
    /// Fault `index` names a NIC outside the fleet.
    FaultNicOutOfRange { index: usize, nic: usize },
    /// `records[index].id` is not `index` (ids must be dense `0..n`).
    SparseIds { index: usize, id: u32 },
    /// Record `index` arrives before its predecessor.
    OutOfOrderArrival { index: usize },
    /// Record `index` arrives at or after the horizon.
    OffHorizonArrival { index: usize },
    /// Record `index` departs at or before its arrival. The event loop
    /// orders same-timestamp departures before arrivals, so a
    /// zero-lifetime NF would fire its no-op departure first and then
    /// squat on a NIC until the horizon.
    ZeroLifetime { index: usize },
    /// Record `index` carries a non-finite traffic attribute.
    NonFiniteTraffic { index: usize },
    /// Record `index` has a non-finite or out-of-range SLA drop.
    BadSla { index: usize, sla_drop: f64 },
    /// Record `index` is of a kind `kinds` does not list.
    UnservedKind { index: usize, kind: NfKind },
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceError::NoKinds => write!(f, "config names no NF kinds"),
            TraceError::ZeroAuditPeriod => write!(f, "audit period must be positive"),
            TraceError::ZeroTemplates => write!(f, "template count must be positive"),
            TraceError::BadTemplateJitter(j) => {
                write!(f, "template jitter {j} outside [0, 1)")
            }
            TraceError::EmptyPortfolio => write!(f, "empty NIC portfolio"),
            TraceError::DuplicateModel(name) => {
                write!(f, "duplicate NIC model {name} in portfolio")
            }
            TraceError::BadGuaranteedFraction(g) => {
                write!(f, "guaranteed fraction {g} outside [0, 1]")
            }
            TraceError::BadFaultPlan(field) => {
                write!(f, "fault plan {field} must be finite and non-negative")
            }
            TraceError::BadNoiseSigma(s) => write!(f, "noise_sigma {s} outside [0, 0.3)"),
            TraceError::BadReprofileThreshold(t) => {
                write!(f, "reprofile_threshold {t} outside (0, 1)")
            }
            TraceError::FaultNicOutOfRange { index, nic } => {
                write!(f, "fault {index} names NIC {nic}, outside the fleet")
            }
            TraceError::SparseIds { index, id } => {
                write!(f, "record {index} has id {id}: ids must be dense (0..n)")
            }
            TraceError::OutOfOrderArrival { index } => {
                write!(f, "arrivals must ascend (record {index})")
            }
            TraceError::OffHorizonArrival { index } => {
                write!(f, "record {index} arrives after the horizon")
            }
            TraceError::ZeroLifetime { index } => {
                write!(f, "record {index} must depart strictly after it arrives")
            }
            TraceError::NonFiniteTraffic { index } => {
                write!(f, "record {index} has a non-finite traffic attribute")
            }
            TraceError::BadSla { index, sla_drop } => {
                write!(f, "record {index} has SLA drop {sla_drop} outside [0, 1)")
            }
            TraceError::UnservedKind { index, kind } => {
                write!(
                    f,
                    "record {index} has NF kind {kind}, which kinds does not list"
                )
            }
        }
    }
}

impl std::error::Error for TraceError {}

/// A fully materialized scenario: config plus every NF's record, in
/// arrival order, plus the fault schedule the event loop will replay.
#[derive(Debug, Clone)]
pub struct FleetTrace {
    /// The generating config.
    pub config: FleetConfig,
    /// NF records in arrival order; `records[i].id == i`.
    pub records: Vec<NfRecord>,
    /// Scheduled NIC faults, sorted by `(t_ms, kind rank, nic)` — see
    /// [`FleetConfig::fault_schedule`]. Empty for fault-free configs.
    pub faults: Vec<FaultEvent>,
}

impl FleetTrace {
    /// Builds a trace from explicit records — the entry point for
    /// *empirical* arrival traces (diurnal load, flash crowds, recorded
    /// production arrivals) that no Poisson generator reproduces. The
    /// event loop consumes arbitrary records; this constructor only
    /// validates the invariants it relies on:
    ///
    /// * `records[i].id == i` (dense ids, used as indices),
    /// * arrivals ascend and fall inside the scenario horizon,
    /// * every departure is strictly after its arrival,
    /// * traffic attributes and SLA drops are finite (a NaN profile
    ///   would poison every prediction touching the NIC),
    /// * the config names at least one NF kind and a positive audit
    ///   period, every portfolio model name is distinct, and the
    ///   guaranteed fraction, fault plan, noise and re-profile threshold
    ///   are well-formed,
    /// * every fault names a NIC of the fleet.
    ///
    /// `faults` is the schedule the event loop replays, kept as given:
    /// generators pass [`FleetConfig::fault_schedule`], a recorded file
    /// its own fault lines.
    ///
    /// Returns a descriptive [`TraceError`] naming the offending record
    /// instead of panicking, so callers loading external traces can
    /// surface actionable diagnostics.
    pub fn from_records(
        config: FleetConfig,
        records: Vec<NfRecord>,
        faults: Vec<FaultEvent>,
    ) -> Result<Self, TraceError> {
        if config.kinds.is_empty() {
            return Err(TraceError::NoKinds);
        }
        if config.audit_period_s == 0 {
            return Err(TraceError::ZeroAuditPeriod);
        }
        if let TrafficModel::Templates { count, jitter } = config.traffic_model {
            if count == 0 {
                return Err(TraceError::ZeroTemplates);
            }
            if !(0.0..1.0).contains(&jitter) {
                return Err(TraceError::BadTemplateJitter(jitter));
            }
        }
        if config.portfolio.is_empty() {
            return Err(TraceError::EmptyPortfolio);
        }
        for (i, (spec, _)) in config.portfolio.iter().enumerate() {
            if config.portfolio[..i]
                .iter()
                .any(|(s, _)| s.name == spec.name)
            {
                return Err(TraceError::DuplicateModel(spec.name.to_string()));
            }
        }
        if !(0.0..=1.0).contains(&config.guaranteed_fraction) {
            return Err(TraceError::BadGuaranteedFraction(
                config.guaranteed_fraction,
            ));
        }
        let plan = &config.faults;
        if !plan.mtbf_s.is_finite() || plan.mtbf_s < 0.0 {
            return Err(TraceError::BadFaultPlan("mtbf_s"));
        }
        if !plan.mean_repair_s.is_finite() || plan.mean_repair_s < 0.0 {
            return Err(TraceError::BadFaultPlan("mean_repair_s"));
        }
        if !(0.0..0.3).contains(&config.noise_sigma) {
            return Err(TraceError::BadNoiseSigma(config.noise_sigma));
        }
        if !(config.reprofile_threshold > 0.0 && config.reprofile_threshold < 1.0) {
            return Err(TraceError::BadReprofileThreshold(
                config.reprofile_threshold,
            ));
        }
        let nics = config.nics();
        if let Some((index, f)) = faults.iter().enumerate().find(|(_, f)| f.nic >= nics) {
            return Err(TraceError::FaultNicOutOfRange { index, nic: f.nic });
        }
        let horizon_ms = config.duration_s * MS_PER_S;
        let mut last_arrival = 0u64;
        for (i, r) in records.iter().enumerate() {
            if r.id as usize != i {
                return Err(TraceError::SparseIds { index: i, id: r.id });
            }
            if r.arrival_ms < last_arrival {
                return Err(TraceError::OutOfOrderArrival { index: i });
            }
            if r.arrival_ms >= horizon_ms {
                return Err(TraceError::OffHorizonArrival { index: i });
            }
            if r.departure_ms <= r.arrival_ms {
                return Err(TraceError::ZeroLifetime { index: i });
            }
            if !r.start.mtbr.is_finite() || !r.end.mtbr.is_finite() {
                return Err(TraceError::NonFiniteTraffic { index: i });
            }
            if !r.sla_drop.is_finite() || !(0.0..1.0).contains(&r.sla_drop) {
                return Err(TraceError::BadSla {
                    index: i,
                    sla_drop: r.sla_drop,
                });
            }
            if !config.kinds.contains(&r.kind) {
                return Err(TraceError::UnservedKind {
                    index: i,
                    kind: r.kind,
                });
            }
            last_arrival = r.arrival_ms;
        }
        Ok(Self {
            config,
            records,
            faults,
        })
    }

    /// Generates the scenario from `config.seed`: Poisson arrivals over
    /// the horizon, exponential lifetimes (floored at one minute so every
    /// NF survives at least a fraction of an audit period), uniform NF
    /// kinds, random start/end traffic, uniform SLA tightness, and QoS
    /// classes Bernoulli(`guaranteed_fraction`) from their own stream.
    pub fn generate(config: FleetConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut qos_rng = StdRng::seed_from_u64(config.seed ^ QOS_SALT);
        let horizon_ms = config.duration_s * MS_PER_S;
        let templates = config.traffic_templates();
        let mut records = Vec::new();
        let mut t_ms = 0.0f64;
        loop {
            t_ms += exponential_ms(&mut rng, config.mean_interarrival_s);
            let arrival_ms = t_ms as u64;
            if arrival_ms >= horizon_ms {
                break;
            }
            records.push(draw_record(
                &config,
                &templates,
                records.len() as u32,
                arrival_ms,
                &mut rng,
                &mut qos_rng,
            ));
        }
        let faults = config.fault_schedule();
        Self::from_records(config, records, faults)
            .expect("generated records satisfy trace invariants")
    }

    /// A trace with a diurnal arrival pattern: the Poisson rate is
    /// modulated by `0.2 + 1.6·sin²(π·t/T)` over the horizon — a 0.2×
    /// overnight trough rising to a 1.8× midday peak, averaging the
    /// config's base rate. Arrival times come from a thinned
    /// non-homogeneous Poisson process on a salted stream; every other
    /// per-NF attribute is drawn exactly as [`FleetTrace::generate`]
    /// draws it, so shaping the load never changes what the NFs *are*.
    pub fn diurnal(config: FleetConfig) -> Self {
        Self::generate_shaped(config, 1.8, |frac| {
            let s = (std::f64::consts::PI * frac).sin();
            0.2 + 1.6 * s * s
        })
    }

    /// A trace with a flash crowd: the base Poisson rate with a 6× burst
    /// over the window `[0.40, 0.50)` of the horizon — the
    /// capacity-pressure regime where admission, parking, and
    /// readmission policies actually separate. Same thinning scheme and
    /// attribute streams as [`FleetTrace::diurnal`].
    pub fn flash_crowd(config: FleetConfig) -> Self {
        Self::generate_shaped(config, 6.0, |frac| {
            if (0.40..0.50).contains(&frac) {
                6.0
            } else {
                1.0
            }
        })
    }

    /// Shared non-homogeneous Poisson generator: candidate arrivals at
    /// `peak` times the base rate on the [`SHAPE_SALT`] stream, thinned
    /// by `intensity(frac)/peak` where `frac` is the fraction of the
    /// horizon elapsed. `intensity` must never exceed `peak` (thinning
    /// would silently clip the rate).
    fn generate_shaped(config: FleetConfig, peak: f64, intensity: impl Fn(f64) -> f64) -> Self {
        let mut arrival_rng = StdRng::seed_from_u64(config.seed ^ SHAPE_SALT);
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut qos_rng = StdRng::seed_from_u64(config.seed ^ QOS_SALT);
        let horizon_ms = config.duration_s * MS_PER_S;
        let templates = config.traffic_templates();
        let mut records = Vec::new();
        let mean_candidate_s = config.mean_interarrival_s / peak;
        let mut t_ms = 0.0f64;
        loop {
            t_ms += exponential_ms(&mut arrival_rng, mean_candidate_s);
            let arrival_ms = t_ms as u64;
            if arrival_ms >= horizon_ms {
                break;
            }
            let keep: f64 = arrival_rng.gen();
            if keep * peak >= intensity(t_ms / horizon_ms as f64) {
                continue;
            }
            records.push(draw_record(
                &config,
                &templates,
                records.len() as u32,
                arrival_ms,
                &mut rng,
                &mut qos_rng,
            ));
        }
        let faults = config.fault_schedule();
        Self::from_records(config, records, faults)
            .expect("generated records satisfy trace invariants")
    }
}

/// Draws one NF's attributes — lifetime, kind, traffic trajectory, SLA,
/// QoS — in the exact order [`FleetTrace::generate`] has always drawn
/// them. Factored out so shaped generators reuse the streams verbatim;
/// committed bench records pin the uniform-mode byte stream, so the
/// draw order here must never change.
fn draw_record(
    config: &FleetConfig,
    templates: &[TrafficProfile],
    id: u32,
    arrival_ms: u64,
    rng: &mut StdRng,
    qos_rng: &mut StdRng,
) -> NfRecord {
    let lifetime_ms = exponential_ms(rng, config.mean_lifetime_s).max(60_000.0);
    let kind = *config.kinds.choose(rng).expect("nonempty kinds");
    // Uniform mode must keep the pre-template draw order exactly:
    // committed bench records pin traces byte-for-byte.
    let (start, end) = match config.traffic_model {
        TrafficModel::Uniform => {
            let start = TrafficProfile::random(rng, config.max_flows);
            let end = if config.drift {
                TrafficProfile::random(rng, config.max_flows)
            } else {
                start
            };
            (start, end)
        }
        TrafficModel::Templates { jitter, .. } => {
            let start = jittered(
                templates.choose(rng).expect("nonempty template table"),
                jitter,
                rng,
            );
            let end = if config.drift {
                jittered(
                    templates.choose(rng).expect("nonempty template table"),
                    jitter,
                    rng,
                )
            } else {
                start
            };
            (start, end)
        }
    };
    let sla_drop = rng.gen_range(config.sla_drop_range.0..config.sla_drop_range.1);
    // The QoS draw lives on its own stream: `guaranteed_fraction = 1.0`
    // (the default) consumes the draw but always yields Guaranteed, so
    // pre-tier traces are reproduced exactly.
    let qos = if qos_rng.gen::<f64>() < config.guaranteed_fraction {
        QosClass::Guaranteed
    } else {
        QosClass::BestEffort
    };
    NfRecord {
        id,
        kind,
        arrival_ms,
        departure_ms: arrival_ms + lifetime_ms as u64,
        start,
        end,
        sla_drop,
        qos,
    }
}

/// An exponential draw with the given mean, in milliseconds. Uses the
/// inverse CDF over `1 - u` so `u = 0` is safe.
fn exponential_ms<R: Rng>(rng: &mut R, mean_s: f64) -> f64 {
    let u: f64 = rng.gen();
    -(1.0 - u).ln() * mean_s * MS_PER_S as f64
}

/// A template profile with per-attribute relative jitter: each attribute
/// moves by a uniform fraction of itself (floored at 1, matching the
/// drift metric's denominator), so `jitter` composes directly with
/// [`TrafficProfile::relative_change`] and the quantizer's bucket radius.
fn jittered<R: Rng>(template: &TrafficProfile, jitter: f64, rng: &mut R) -> TrafficProfile {
    let mut wiggle = |v: f64| v + rng.gen_range(-jitter..=jitter) * v.abs().max(1.0);
    TrafficProfile::new(
        wiggle(template.flow_count as f64).round() as u32,
        wiggle(template.packet_size as f64).round() as u32,
        wiggle(template.mtbr),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let a = FleetTrace::generate(FleetConfig::small(5));
        let b = FleetTrace::generate(FleetConfig::small(5));
        assert_eq!(a.records.len(), b.records.len());
        for (x, y) in a.records.iter().zip(&b.records) {
            assert_eq!(x.arrival_ms, y.arrival_ms);
            assert_eq!(x.departure_ms, y.departure_ms);
            assert_eq!(x.kind, y.kind);
            assert_eq!(x.start, y.start);
            assert_eq!(x.end, y.end);
            assert_eq!(x.sla_drop, y.sla_drop);
        }
        let c = FleetTrace::generate(FleetConfig::small(6));
        let identical = a.records.len() == c.records.len()
            && a.records
                .iter()
                .zip(&c.records)
                .all(|(x, y)| x.arrival_ms == y.arrival_ms);
        assert!(!identical, "different seeds must differ");
    }

    #[test]
    fn arrival_counts_track_the_poisson_mean() {
        let mut cfg = FleetConfig::small(11);
        cfg.duration_s = 24 * 3_600;
        cfg.mean_interarrival_s = 144.0;
        let trace = FleetTrace::generate(cfg);
        let expected = 24.0 * 3_600.0 / 144.0; // 600
        let n = trace.records.len() as f64;
        assert!(
            (n - expected).abs() < 5.0 * expected.sqrt(),
            "got {n} arrivals, expected ~{expected}"
        );
    }

    #[test]
    fn records_are_ordered_and_well_formed() {
        let trace = FleetTrace::generate(FleetConfig::small(3));
        let horizon = trace.config.duration_s * MS_PER_S;
        let mut last = 0;
        for (i, r) in trace.records.iter().enumerate() {
            assert_eq!(r.id as usize, i);
            assert!(r.arrival_ms >= last);
            assert!(r.arrival_ms < horizon);
            assert!(r.departure_ms >= r.arrival_ms + 60_000);
            assert!(r.sla_drop >= 0.05 && r.sla_drop < 0.20);
            last = r.arrival_ms;
        }
    }

    #[test]
    fn traffic_drifts_from_start_to_end() {
        let trace = FleetTrace::generate(FleetConfig::small(9));
        let r = trace
            .records
            .iter()
            .find(|r| r.start != r.end)
            .expect("drift enabled: some record must have distinct start/end profiles");
        assert_eq!(r.traffic_at(r.arrival_ms), r.start);
        assert_eq!(r.traffic_at(r.departure_ms), r.end);
        assert_eq!(r.traffic_at(r.departure_ms + 999), r.end, "clamped");
        let mid = r.traffic_at((r.arrival_ms + r.departure_ms) / 2);
        assert!(mid != r.start || mid != r.end);
    }

    /// A well-formed single record for error-path tests; callers break
    /// one field at a time.
    fn ok_record() -> NfRecord {
        NfRecord {
            id: 0,
            kind: NfKind::Acl,
            arrival_ms: 5_000,
            departure_ms: 65_000,
            start: TrafficProfile::default(),
            end: TrafficProfile::default(),
            sla_drop: 0.1,
            qos: QosClass::Guaranteed,
        }
    }

    #[test]
    fn from_records_accepts_generated_and_empirical_records() {
        let gen = FleetTrace::generate(FleetConfig::small(17));
        let rebuilt =
            FleetTrace::from_records(gen.config.clone(), gen.records.clone(), gen.faults.clone())
                .expect("generated records round-trip");
        assert_eq!(rebuilt.records.len(), gen.records.len());
        // A non-Poisson flash crowd: five NFs arriving in the same
        // millisecond, constant traffic, staggered departures.
        let cfg = FleetConfig::small(0);
        let records: Vec<NfRecord> = (0..5)
            .map(|i| NfRecord {
                id: i,
                arrival_ms: 60_000,
                departure_ms: 60_000 + (i as u64 + 1) * 600_000,
                ..ok_record()
            })
            .collect();
        let trace =
            FleetTrace::from_records(cfg, records, Vec::new()).expect("flash crowd is valid");
        assert_eq!(trace.records.len(), 5);
    }

    #[test]
    fn from_records_rejects_sparse_ids() {
        let cfg = FleetConfig::small(0);
        let r = NfRecord {
            id: 3,
            ..ok_record()
        };
        assert_eq!(
            FleetTrace::from_records(cfg, vec![r], Vec::new()).unwrap_err(),
            TraceError::SparseIds { index: 0, id: 3 }
        );
    }

    #[test]
    fn from_records_rejects_zero_lifetime_records() {
        // The event loop orders same-timestamp departures before
        // arrivals, so a zero-lifetime NF would be placed after its
        // no-op departure and squat on a NIC until the horizon.
        let cfg = FleetConfig::small(0);
        let r = NfRecord {
            departure_ms: 5_000,
            ..ok_record()
        };
        assert_eq!(
            FleetTrace::from_records(cfg, vec![r], Vec::new()).unwrap_err(),
            TraceError::ZeroLifetime { index: 0 }
        );
    }

    #[test]
    fn from_records_rejects_off_horizon_arrivals() {
        let cfg = FleetConfig::small(0);
        let r = NfRecord {
            arrival_ms: cfg.duration_s * MS_PER_S,
            departure_ms: cfg.duration_s * MS_PER_S + 1,
            ..ok_record()
        };
        assert_eq!(
            FleetTrace::from_records(cfg, vec![r], Vec::new()).unwrap_err(),
            TraceError::OffHorizonArrival { index: 0 }
        );
    }

    #[test]
    fn from_records_rejects_out_of_order_arrivals() {
        let cfg = FleetConfig::small(0);
        let records = vec![
            NfRecord {
                arrival_ms: 10_000,
                departure_ms: 80_000,
                ..ok_record()
            },
            NfRecord {
                id: 1,
                arrival_ms: 9_000,
                departure_ms: 70_000,
                ..ok_record()
            },
        ];
        assert_eq!(
            FleetTrace::from_records(cfg, records, Vec::new()).unwrap_err(),
            TraceError::OutOfOrderArrival { index: 1 }
        );
    }

    #[test]
    fn from_records_rejects_non_finite_traffic_and_bad_sla() {
        let cfg = FleetConfig::small(0);
        let r = NfRecord {
            start: TrafficProfile::new(100, 512, f64::NAN),
            ..ok_record()
        };
        assert_eq!(
            FleetTrace::from_records(cfg.clone(), vec![r], Vec::new()).unwrap_err(),
            TraceError::NonFiniteTraffic { index: 0 }
        );
        let r = NfRecord {
            sla_drop: 1.5,
            ..ok_record()
        };
        assert!(matches!(
            FleetTrace::from_records(cfg, vec![r], Vec::new()).unwrap_err(),
            TraceError::BadSla { index: 0, .. }
        ));
    }

    #[test]
    fn from_records_rejects_a_kind_the_header_does_not_list() {
        let mut cfg = FleetConfig::small(0);
        cfg.kinds = vec![NfKind::FlowStats, NfKind::Nat];
        let records = vec![
            NfRecord {
                kind: NfKind::Nat,
                ..ok_record()
            },
            NfRecord {
                id: 1,
                ..ok_record()
            },
        ];
        let err = FleetTrace::from_records(cfg, records, Vec::new()).unwrap_err();
        assert_eq!(
            err,
            TraceError::UnservedKind {
                index: 1,
                kind: NfKind::Acl
            }
        );
        assert_eq!(
            err.to_string(),
            "record 1 has NF kind acl, which kinds does not list"
        );
    }

    #[test]
    fn from_records_rejects_bad_config() {
        let mut cfg = FleetConfig::small(0);
        cfg.guaranteed_fraction = 1.5;
        assert_eq!(
            FleetTrace::from_records(cfg, Vec::new(), Vec::new()).unwrap_err(),
            TraceError::BadGuaranteedFraction(1.5)
        );
        let mut cfg = FleetConfig::small(0);
        cfg.faults.mtbf_s = f64::NAN;
        assert_eq!(
            FleetTrace::from_records(cfg, Vec::new(), Vec::new()).unwrap_err(),
            TraceError::BadFaultPlan("mtbf_s")
        );
        let mut cfg = FleetConfig::small(0);
        cfg.kinds.clear();
        assert_eq!(
            FleetTrace::from_records(cfg, Vec::new(), Vec::new()).unwrap_err(),
            TraceError::NoKinds
        );
        let fault = FaultEvent {
            t_ms: 1,
            nic: FleetConfig::small(0).nics(),
            kind: FaultKind::Fail,
        };
        assert_eq!(
            FleetTrace::from_records(FleetConfig::small(0), Vec::new(), vec![fault]).unwrap_err(),
            TraceError::FaultNicOutOfRange {
                index: 0,
                nic: fault.nic
            }
        );
    }

    #[test]
    fn duplicate_portfolio_models_rejected() {
        let mut cfg = FleetConfig::small(0);
        cfg.portfolio = vec![(NicSpec::bluefield2(), 4), (NicSpec::bluefield2(), 4)];
        assert_eq!(
            FleetTrace::from_records(cfg, Vec::new(), Vec::new()).unwrap_err(),
            TraceError::DuplicateModel("bluefield2".to_string())
        );
    }

    #[test]
    fn default_config_draws_all_guaranteed_and_no_faults() {
        let trace = FleetTrace::generate(FleetConfig::small(5));
        assert!(trace.records.iter().all(|r| r.qos.is_guaranteed()));
        assert!(trace.faults.is_empty());
    }

    #[test]
    fn qos_draw_does_not_perturb_the_arrival_stream() {
        let all_guaranteed = FleetTrace::generate(FleetConfig::small(5));
        let mut cfg = FleetConfig::small(5);
        cfg.guaranteed_fraction = 0.5;
        let mixed = FleetTrace::generate(cfg);
        assert_eq!(all_guaranteed.records.len(), mixed.records.len());
        for (a, b) in all_guaranteed.records.iter().zip(&mixed.records) {
            assert_eq!(a.arrival_ms, b.arrival_ms);
            assert_eq!(a.departure_ms, b.departure_ms);
            assert_eq!(a.kind, b.kind);
            assert_eq!(a.start, b.start);
            assert_eq!(a.sla_drop, b.sla_drop);
        }
        let best_effort = mixed
            .records
            .iter()
            .filter(|r| !r.qos.is_guaranteed())
            .count();
        let n = mixed.records.len();
        assert!(
            best_effort > n / 5 && best_effort < 4 * n / 5,
            "Bernoulli(0.5) draw badly skewed: {best_effort}/{n} best-effort"
        );
    }

    #[test]
    fn fault_schedule_is_deterministic_and_well_formed() {
        let mut cfg = FleetConfig::small(13);
        cfg.faults = FaultPlan {
            mtbf_s: 4.0 * 3_600.0,
            mean_repair_s: 900.0,
            drains: 3,
            drain_notice_s: 600,
            drain_offline_s: 600,
        };
        let a = cfg.fault_schedule();
        let b = cfg.fault_schedule();
        assert_eq!(a, b, "fault schedule must be a pure function of the config");
        assert!(!a.is_empty(), "a failure-heavy plan schedules events");
        let horizon_ms = cfg.duration_s * MS_PER_S;
        for w in a.windows(2) {
            assert!(
                (w[0].t_ms, w[0].kind.rank(), w[0].nic) <= (w[1].t_ms, w[1].kind.rank(), w[1].nic),
                "schedule must be sorted by (time, rank, nic)"
            );
        }
        for e in &a {
            assert!(e.t_ms < horizon_ms);
            assert!(e.nic < cfg.nics());
        }
        // Every DrainStart has a matching DrainEnd exactly the notice
        // window later on the same NIC.
        for e in a.iter().filter(|e| e.kind == FaultKind::DrainStart) {
            let deadline = e.t_ms + cfg.faults.drain_notice_s * MS_PER_S;
            assert!(
                a.iter()
                    .any(|d| d.kind == FaultKind::DrainEnd && d.nic == e.nic && d.t_ms == deadline),
                "drain on NIC {} lacks its deadline",
                e.nic
            );
        }
        // Incidents never overlap on one NIC: replay the schedule as a
        // per-NIC state machine and require legal transitions only.
        #[derive(PartialEq, Clone, Copy)]
        enum S {
            Up,
            Draining,
            Down,
        }
        let mut state = vec![S::Up; cfg.nics()];
        for e in &a {
            let s = &mut state[e.nic];
            match e.kind {
                FaultKind::Fail => {
                    assert!(*s == S::Up, "failure on a non-Up NIC");
                    *s = S::Down;
                }
                FaultKind::DrainStart => {
                    assert!(*s == S::Up, "drain announced on a non-Up NIC");
                    *s = S::Draining;
                }
                FaultKind::DrainEnd => {
                    assert!(*s == S::Draining, "deadline without a drain");
                    *s = S::Down;
                }
                FaultKind::Recover => {
                    assert!(*s == S::Down, "recovery of a non-Down NIC");
                    *s = S::Up;
                }
            }
        }
    }

    #[test]
    fn fault_free_plan_schedules_nothing() {
        assert!(FleetConfig::small(7).fault_schedule().is_empty());
        assert!(FaultPlan::none().is_none());
    }

    #[test]
    fn portfolio_expansion_maps_nics_to_models() {
        let cfg = FleetConfig::mixed(1, 7);
        assert_eq!(cfg.nics(), 7);
        assert_eq!(cfg.portfolio[0].1, 4, "BF-2 gets the odd NIC");
        for nic in 0..4 {
            assert_eq!(cfg.nic_model_pos(nic), 0);
            assert_eq!(cfg.nic_spec(nic).name, "bluefield2");
        }
        for nic in 4..7 {
            assert_eq!(cfg.nic_model_pos(nic), 1);
            assert_eq!(cfg.nic_spec(nic).name, "pensando");
        }
        let specs = cfg.specs();
        assert_eq!(specs.len(), 2);
        assert_eq!(specs[1].name, "pensando");
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn nic_beyond_fleet_panics() {
        FleetConfig::small(0).nic_model_pos(16);
    }

    #[test]
    fn template_traffic_clusters_on_bucket_representatives() {
        let mut cfg = FleetConfig::small(21);
        cfg.traffic_model = TrafficModel::Templates {
            count: 4,
            jitter: cfg.reprofile_threshold / 4.0,
        };
        let templates = cfg.traffic_templates();
        assert_eq!(templates.len(), 4);
        let quantizer = TrafficQuantizer::new(cfg.reprofile_threshold);
        // Templates are bucket representatives: canonicalization is a
        // no-op on them.
        for t in &templates {
            assert_eq!(quantizer.canonicalize(t).1, *t);
        }
        let template_keys: Vec<_> = templates.iter().map(|t| quantizer.key(t)).collect();
        let trace = FleetTrace::generate(cfg);
        assert!(!trace.records.is_empty());
        // Jitter at threshold/4 stays within the safe same-key radius:
        // every tenant's start profile keys onto some template's bucket.
        for r in &trace.records {
            let k = quantizer.key(&r.start);
            assert!(
                template_keys.contains(&k),
                "start {:?} escaped its template bucket",
                r.start
            );
        }
        // And the draw is deterministic in the seed.
        let mut cfg2 = FleetConfig::small(21);
        cfg2.traffic_model = TrafficModel::Templates {
            count: 4,
            jitter: cfg2.reprofile_threshold / 4.0,
        };
        let again = FleetTrace::generate(cfg2);
        assert_eq!(trace.records.len(), again.records.len());
        for (a, b) in trace.records.iter().zip(&again.records) {
            assert_eq!(a.start, b.start);
            assert_eq!(a.end, b.end);
        }
    }

    #[test]
    fn diurnal_trace_is_deterministic_and_shaped() {
        let mut cfg = FleetConfig::small(31);
        cfg.duration_s = 24 * 3_600;
        let a = FleetTrace::diurnal(cfg.clone());
        let b = FleetTrace::diurnal(cfg.clone());
        assert_eq!(a.records.len(), b.records.len());
        for (x, y) in a.records.iter().zip(&b.records) {
            assert_eq!(x.arrival_ms, y.arrival_ms);
            assert_eq!(x.start, y.start);
            assert_eq!(x.sla_drop, y.sla_drop);
        }
        // The midday peak (middle third) must out-arrive the overnight
        // trough (outer thirds combined carry 0.2–1.0× rate vs 1.2–1.8×
        // in the middle).
        let horizon = cfg.duration_s * MS_PER_S;
        let third = horizon / 3;
        let outer = a
            .records
            .iter()
            .filter(|r| r.arrival_ms < third || r.arrival_ms >= 2 * third)
            .count();
        let middle = a.records.len() - outer;
        assert!(
            middle > outer,
            "diurnal peak must dominate: middle {middle} vs outer {outer}"
        );
        // Mean rate ≈ the base Poisson rate.
        let expected = cfg.duration_s as f64 / cfg.mean_interarrival_s;
        let n = a.records.len() as f64;
        assert!(
            (n - expected).abs() < 6.0 * expected.sqrt(),
            "got {n} arrivals, expected ~{expected}"
        );
    }

    #[test]
    fn flash_crowd_bursts_in_its_window() {
        let mut cfg = FleetConfig::small(33);
        cfg.duration_s = 24 * 3_600;
        let trace = FleetTrace::flash_crowd(cfg.clone());
        let horizon = cfg.duration_s * MS_PER_S;
        let (lo, hi) = (horizon * 40 / 100, horizon * 50 / 100);
        let burst = trace
            .records
            .iter()
            .filter(|r| (lo..hi).contains(&r.arrival_ms))
            .count() as f64;
        let calm = (trace.records.len() as f64 - burst).max(1.0);
        // The 10% window at 6× rate should hold ~40% of all arrivals;
        // require its *density* (per unit time) to be clearly elevated.
        let density_ratio = (burst / 0.10) / (calm / 0.90);
        assert!(
            density_ratio > 3.0,
            "burst density only {density_ratio:.2}× the calm density"
        );
    }

    #[test]
    fn shaped_generators_draw_the_same_attribute_streams() {
        // Same seed, same record index → same lifetime/kind/traffic/SLA
        // regardless of the arrival *shape*: shaping only moves when NFs
        // arrive, never what they are, because arrival times live on the
        // salted candidate stream and attributes on their own stream.
        let cfg = FleetConfig::small(35);
        let flash = FleetTrace::flash_crowd(cfg.clone());
        let diurnal = FleetTrace::diurnal(cfg);
        let n = flash.records.len().min(diurnal.records.len());
        assert!(n > 0);
        for i in 0..n {
            let (p, d) = (&flash.records[i], &diurnal.records[i]);
            assert_eq!(p.kind, d.kind);
            assert_eq!(p.start, d.start);
            assert_eq!(p.end, d.end);
            assert_eq!(p.sla_drop, d.sla_drop);
            assert_eq!(p.qos, d.qos);
            assert_eq!(p.departure_ms - p.arrival_ms, d.departure_ms - d.arrival_ms);
        }
    }

    #[test]
    fn drift_disabled_freezes_traffic() {
        let mut cfg = FleetConfig::small(4);
        cfg.drift = false;
        let trace = FleetTrace::generate(cfg);
        for r in &trace.records {
            assert_eq!(r.start, r.end);
            assert_eq!(r.traffic_at((r.arrival_ms + r.departure_ms) / 2), r.start);
        }
    }
}
