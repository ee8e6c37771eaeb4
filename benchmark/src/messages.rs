//! The one wire-message generator every workload's serve phase uses, and
//! the classifier that tells an admission outcome from a failure.

use std::collections::HashSet;
use yala::fleet::{FaultKind, FleetTrace, MS_PER_S};
use yala::nf::NfKind;
use yala::sim::NicSpec;

use crate::metrics::flat_num;

/// The request classes the daemon serves, in the order the per-layer
/// `serve.op_us_p50.<op>` metrics list them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Op {
    Place,
    Query,
    Depart,
    Drift,
    Fault,
    Observe,
    Absorb,
}

impl Op {
    /// The boundary span around a request of this class.
    pub fn span(self) -> &'static str {
        match self {
            Op::Place => "serve.handle_line.place",
            Op::Query => "serve.handle_line.query",
            Op::Depart => "serve.handle_line.depart",
            Op::Drift => "serve.handle_line.drift",
            Op::Fault => "serve.handle_line.fault",
            Op::Observe => "serve.handle_line.observe",
            Op::Absorb => "serve.handle_line.absorb",
        }
    }

    /// The per-layer metric holding this class's median latency.
    pub fn metric(self) -> &'static str {
        match self {
            Op::Place => "serve.op_us_p50.place",
            Op::Query => "serve.op_us_p50.query",
            Op::Depart => "serve.op_us_p50.depart",
            Op::Drift => "serve.op_us_p50.drift",
            Op::Fault => "serve.op_us_p50.fault",
            Op::Observe => "serve.op_us_p50.observe",
            Op::Absorb => "serve.op_us_p50.absorb",
        }
    }

    pub const ALL: [Op; 7] = [
        Op::Place,
        Op::Query,
        Op::Depart,
        Op::Drift,
        Op::Fault,
        Op::Observe,
        Op::Absorb,
    ];
}

/// One request line, schedule-ordered.
#[derive(Debug, Clone, PartialEq)]
pub struct Msg {
    pub t_ms: u64,
    pub op: Op,
    /// The instance the request names (`place` / `depart` / `drift`).
    pub id: Option<u32>,
    pub line: String,
}

fn observe_model(specs: &[NicSpec], kind: NfKind) -> &str {
    specs
        .iter()
        .find(|s| kind.profiled_on(s))
        .map(|s| s.name.as_str())
        .expect("every traced kind is profiled on some portfolio model")
}

/// Turns a trace into the day's request stream: per record a `query`
/// then a `place` at arrival, a `drift` at mid-life when the record's
/// traffic moves, an `observe` one hour in, and a `depart` inside the
/// horizon; an `absorb` every simulated hour; a `fault` line per
/// scheduled hard failure and recovery. A pure function of the trace.
pub fn generate(trace: &FleetTrace) -> Vec<Msg> {
    let cfg = &trace.config;
    let specs = cfg.specs();
    let horizon_ms = cfg.duration_s * MS_PER_S;
    let mut msgs = Vec::with_capacity(trace.records.len() * 5);
    for r in &trace.records {
        let t = r.start;
        let shape = format!(
            "\"kind\":\"{}\",\"flows\":{},\"psize\":{},\"mtbr\":{},\"sla_drop\":{}",
            r.kind.name(),
            t.flow_count,
            t.packet_size,
            t.mtbr,
            r.sla_drop
        );
        msgs.push(Msg {
            t_ms: r.arrival_ms,
            op: Op::Query,
            id: None,
            line: format!("{{\"op\":\"query\",{shape}}}"),
        });
        msgs.push(Msg {
            t_ms: r.arrival_ms,
            op: Op::Place,
            id: Some(r.id),
            line: format!(
                "{{\"op\":\"place\",\"id\":{},\"qos\":\"{}\",{shape}}}",
                r.id,
                r.qos.name()
            ),
        });
        let mid_ms = r.arrival_ms + (r.departure_ms - r.arrival_ms) / 2;
        if r.start != r.end && mid_ms < horizon_ms {
            let m = r.traffic_at(mid_ms);
            msgs.push(Msg {
                t_ms: mid_ms,
                op: Op::Drift,
                id: Some(r.id),
                line: format!(
                    "{{\"op\":\"drift\",\"id\":{},\"flows\":{},\"psize\":{},\"mtbr\":{}}}",
                    r.id, m.flow_count, m.packet_size, m.mtbr
                ),
            });
        }
        // A synthetic audit observation: the record's own traffic with a
        // deterministic dent in measured throughput, enough signal for an
        // online bank to absorb.
        let obs_ms = r.arrival_ms + 3_600 * MS_PER_S;
        if obs_ms < r.departure_ms && obs_ms < horizon_ms {
            let o = r.traffic_at(obs_ms);
            let solo = 1.0e7;
            let measured = solo * (1.0 - 0.3 * (r.id % 4) as f64 / 4.0);
            msgs.push(Msg {
                t_ms: obs_ms,
                op: Op::Observe,
                id: None,
                line: format!(
                    "{{\"op\":\"observe\",\"model\":\"{}\",\"kind\":\"{}\",\"flows\":{},\
                     \"psize\":{},\"mtbr\":{},\"ipc\":1.1,\"irt\":9.0e8,\"l2crd\":1.0e7,\
                     \"l2cwr\":2.0e6,\"memrd\":3.0e6,\"memwr\":1.0e6,\"wss\":5.0e7,\
                     \"press\":\"\",\"solo\":{solo},\"measured\":{measured}}}",
                    observe_model(&specs, r.kind),
                    r.kind.name(),
                    o.flow_count,
                    o.packet_size,
                    o.mtbr
                ),
            });
        }
        if r.departure_ms < horizon_ms {
            msgs.push(Msg {
                t_ms: r.departure_ms,
                op: Op::Depart,
                id: Some(r.id),
                line: format!("{{\"op\":\"depart\",\"id\":{}}}", r.id),
            });
        }
    }
    for hour in 1..cfg.duration_s / 3_600 {
        msgs.push(Msg {
            t_ms: hour * 3_600 * MS_PER_S,
            op: Op::Absorb,
            id: None,
            line: "{\"op\":\"absorb\"}".to_string(),
        });
    }
    for f in &trace.faults {
        let kind = match f.kind {
            FaultKind::Fail => "fail",
            FaultKind::Recover => "recover",
            // The daemon has no drain state; the workloads plan none.
            FaultKind::DrainStart | FaultKind::DrainEnd => continue,
        };
        msgs.push(Msg {
            t_ms: f.t_ms,
            op: Op::Fault,
            id: None,
            line: format!("{{\"op\":\"fault\",\"nic\":{},\"kind\":\"{kind}\"}}", f.nic),
        });
    }
    // Stable: same-millisecond requests keep their push order (query
    // before place, records before sweeps before faults).
    msgs.sort_by_key(|m| m.t_ms);
    msgs
}

/// What one reply meant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// `ok:true` (an admission refusal, `nic:-1`, is an outcome too).
    Ok,
    /// An `ok:false` the generator foresaw: a `depart` or `drift` naming
    /// an instance the daemon never admitted or shed in a failover.
    ExpectedRefusal,
    /// Any other `ok:false`.
    Failed,
}

/// Tracks which instances the daemon holds, from replies alone, so the
/// only refusals excused are the ones the protocol implies.
#[derive(Debug, Default)]
pub struct Classifier {
    live: HashSet<u32>,
    gone: HashSet<u32>,
    /// Instances a failover shed without naming them; each excuses one
    /// live instance turning out to be gone.
    unnamed_sheds: u64,
    pub admissions: u64,
    pub refusals: u64,
}

impl Classifier {
    pub fn classify(&mut self, msg: &Msg, reply: &str) -> Outcome {
        let ok = reply.starts_with("{\"ok\":true");
        match (msg.op, msg.id) {
            (Op::Place, Some(id)) if ok => {
                if flat_num(reply, "nic").is_some_and(|n| n >= 0.0) {
                    self.admissions += 1;
                    self.live.insert(id);
                } else {
                    self.refusals += 1;
                    self.gone.insert(id);
                }
                Outcome::Ok
            }
            (Op::Depart, Some(id)) if ok => {
                self.live.remove(&id);
                self.gone.insert(id);
                Outcome::Ok
            }
            (Op::Fault, _) if ok => {
                self.unnamed_sheds += flat_num(reply, "shed").unwrap_or(0.0) as u64;
                Outcome::Ok
            }
            (Op::Depart | Op::Drift, Some(id)) if !ok => {
                if self.gone.contains(&id) {
                    Outcome::ExpectedRefusal
                } else if self.live.contains(&id) && self.unnamed_sheds > 0 {
                    self.unnamed_sheds -= 1;
                    self.live.remove(&id);
                    self.gone.insert(id);
                    Outcome::ExpectedRefusal
                } else {
                    Outcome::Failed
                }
            }
            _ if ok => Outcome::Ok,
            _ => Outcome::Failed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use yala::fleet::{FaultPlan, FleetConfig};

    fn day(seed: u64) -> FleetTrace {
        let mut cfg = FleetConfig::small(seed);
        cfg.duration_s = 3 * 3_600;
        cfg.faults = FaultPlan {
            mtbf_s: 6.0 * 3_600.0,
            mean_repair_s: 1_800.0,
            ..FaultPlan::none()
        };
        FleetTrace::diurnal(cfg)
    }

    #[test]
    fn stream_is_a_pure_function_of_the_seed() {
        let a = generate(&day(11));
        assert_eq!(a, generate(&day(11)));
        assert_ne!(a, generate(&day(12)));
        assert!(a.windows(2).all(|w| w[0].t_ms <= w[1].t_ms));
        for op in Op::ALL {
            assert!(a.iter().any(|m| m.op == op), "no {op:?} in the day");
        }
        // Each arrival asks before it places.
        let first_place = a.iter().position(|m| m.op == Op::Place).expect("a place");
        assert_eq!(a[first_place - 1].op, Op::Query);
    }

    fn msg(op: Op, id: Option<u32>) -> Msg {
        Msg {
            t_ms: 0,
            op,
            id,
            line: String::new(),
        }
    }

    #[test]
    fn classifier_excuses_only_implied_refusals() {
        let mut c = Classifier::default();
        let ok = |nic: i64| format!("{{\"ok\":true,\"op\":\"place\",\"id\":1,\"nic\":{nic}}}");
        let no = "{\"ok\":false,\"error\":\"no instance\"}";
        assert_eq!(c.classify(&msg(Op::Place, Some(1)), &ok(3)), Outcome::Ok);
        assert_eq!(c.classify(&msg(Op::Place, Some(2)), &ok(-1)), Outcome::Ok);
        assert_eq!((c.admissions, c.refusals), (1, 1));
        // Never admitted: drift and depart refusals are the protocol working.
        assert_eq!(
            c.classify(&msg(Op::Drift, Some(2)), no),
            Outcome::ExpectedRefusal
        );
        assert_eq!(
            c.classify(&msg(Op::Depart, Some(2)), no),
            Outcome::ExpectedRefusal
        );
        // Admitted and never shed: a refusal is a failure.
        assert_eq!(c.classify(&msg(Op::Depart, Some(1)), no), Outcome::Failed);
        // One unnamed shed excuses one live instance, once.
        let shed = "{\"ok\":true,\"op\":\"fault\",\"nic\":0,\"kind\":\"fail\",\
                    \"evicted\":1,\"replaced\":0,\"shed\":1}";
        assert_eq!(c.classify(&msg(Op::Fault, None), shed), Outcome::Ok);
        assert_eq!(
            c.classify(&msg(Op::Drift, Some(1)), no),
            Outcome::ExpectedRefusal
        );
        assert_eq!(
            c.classify(&msg(Op::Depart, Some(1)), no),
            Outcome::ExpectedRefusal
        );
        // Anything else refused is a failure, as is an unknown instance.
        assert_eq!(c.classify(&msg(Op::Query, None), no), Outcome::Failed);
        assert_eq!(c.classify(&msg(Op::Depart, Some(9)), no), Outcome::Failed);
    }
}
