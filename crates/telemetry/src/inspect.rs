//! Journal inspection: loads a serialized journal back and answers the
//! questions an operator actually asks — what happened each epoch, what
//! happened to tenant #k, and *why* was #k violated / parked /
//! migrated — plus metric exports reconstructed purely from the event
//! stream. Everything renders from [`RawEvent`]s, so the inspector works
//! on any journal file without the producing binary.

use crate::journal::{parse_jsonl, RawEvent};
use crate::metrics::MetricsRegistry;

/// A loaded journal plus query/rendering methods over it.
#[derive(Debug)]
pub struct Inspector {
    events: Vec<RawEvent>,
}

/// Formats logical milliseconds as `HH:MM:SS` of simulated time.
fn fmt_t(ms: i64) -> String {
    let s = ms / 1000;
    format!("{:02}:{:02}:{:02}", s / 3600, (s / 60) % 60, s % 60)
}

/// Whether `e` concerns NF `id` (as subject, victim, or violator).
fn involves(e: &RawEvent, id: i64) -> bool {
    e.int("id") == Some(id) || e.int("victim") == Some(id) || e.int("violator") == Some(id)
}

impl Inspector {
    /// Parses a JSONL journal text (unparseable lines are skipped, so a
    /// truncated file still loads).
    pub fn from_jsonl(text: &str) -> Self {
        Self {
            events: parse_jsonl(text),
        }
    }

    /// Parsed events, in journal order.
    pub fn events(&self) -> &[RawEvent] {
        &self.events
    }

    /// Loaded event count.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True if the journal held no parseable events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    fn count(&self, tag: &str) -> usize {
        self.events.iter().filter(|e| e.tag() == tag).count()
    }

    fn count_by(&self, tag: &str, key: &str, value: &str) -> usize {
        self.events
            .iter()
            .filter(|e| e.tag() == tag && e.str(key) == Some(value))
            .count()
    }

    /// Headline summary: span, event counts, outcome tallies.
    pub fn summary(&self) -> String {
        if self.events.is_empty() {
            return "empty journal\n".to_string();
        }
        let span_ms = self
            .events
            .iter()
            .filter_map(|e| e.int("t_ms"))
            .max()
            .unwrap_or(0);
        let mut out = format!(
            "journal: {} events over {} simulated\n",
            self.events.len(),
            fmt_t(span_ms)
        );
        // A capacity-truncated journal undercounts everything below;
        // say so before any number, not in a footnote.
        let dropped: i64 = self
            .events
            .iter()
            .filter(|e| e.tag() == "truncated")
            .filter_map(|e| e.int("dropped"))
            .sum();
        if dropped > 0 {
            out.push_str(&format!(
                "  !! TRUNCATED: {dropped} events dropped at the journal capacity bound — \
                 every tally below undercounts (raise the cap, e.g. --journal-cap)\n"
            ));
        }
        out.push_str(&format!(
            "  arrivals {}  placed {}  rejected {}  departed {}\n",
            self.count("arrival"),
            self.count("place"),
            self.count("reject"),
            self.count("depart")
        ));
        out.push_str(&format!(
            "  violations {} (guaranteed {}, best_effort {})  migrations {}\n",
            self.count("violation"),
            self.count_by("violation", "qos", "guaranteed"),
            self.count_by("violation", "qos", "best_effort"),
            self.count("migrate")
        ));
        out.push_str(&format!(
            "  faults {}  drains {} (ended {})  recoveries {}  evacuations {}  parked {}  \
             readmitted {}\n",
            self.count_by("fault", "kind", "fail"),
            self.count_by("fault", "kind", "drain_start"),
            self.count_by("fault", "kind", "drain_end"),
            self.count_by("fault", "kind", "recover"),
            self.count("evacuate"),
            self.count("park"),
            self.count("readmit")
        ));
        let profiles = self.count("profile");
        if profiles > 0 {
            out.push_str(&format!(
                "  profile measurements {} (miss {}, hit {})  absorb passes {}\n",
                profiles,
                self.count_by("profile", "cache", "miss"),
                self.count_by("profile", "cache", "hit"),
                self.count("absorb")
            ));
        }
        out
    }

    /// The predictor line of `fleet_inspect summary`, from the run's
    /// Prometheus export (`BASE.prom`, written next to the journal): how
    /// many predictions the placement loop asked for, how many its
    /// predictor answered from memory, and how many forest walks the
    /// rest cost — in all and per arrival decided. The journal cannot
    /// carry this — a restored run's memo starts cold, and the journal
    /// must not differ across a kill/restore — so it comes from the
    /// metrics registry. `None` when the run exported no `predict.*`
    /// counters.
    pub fn predictor_summary(prom: &str) -> Option<String> {
        let counter = |name: &str| -> Option<u64> {
            prom.lines()
                .find_map(|l| l.strip_prefix(name)?.strip_prefix(' ')?.parse().ok())
        };
        let calls = counter("predict_calls")?;
        let hits = counter("predict_memo_hits").unwrap_or(0);
        let clears = counter("predict_memo_clears").unwrap_or(0);
        let walks = counter("predict_forest_walks").unwrap_or(0);
        let decisions = counter("fleet_arrivals").unwrap_or(0);
        Some(format!(
            "  predictions {calls} (memo hits {hits} = {:.1}%, forest walks {walks} = {:.2} per \
             decision, memo emptied {clears} time(s))\n",
            100.0 * hits as f64 / calls.max(1) as f64,
            walks as f64 / decisions.max(1) as f64
        ))
    }

    /// Per-epoch timeline: each `epoch` snapshot line, annotated with the
    /// tally of fleet events since the previous snapshot.
    pub fn timeline(&self) -> String {
        let mut out = String::new();
        let mut pending: Vec<(&'static str, usize)> = Vec::new();
        for e in &self.events {
            match e.tag() {
                "epoch" => {
                    let t = fmt_t(e.int("t_ms").unwrap_or(0));
                    let delta = if pending.is_empty() {
                        String::new()
                    } else {
                        let parts: Vec<String> = pending
                            .iter()
                            .map(|(tag, n)| format!("{n} {tag}"))
                            .collect();
                        format!("   (+{})", parts.join(", "))
                    };
                    out.push_str(&format!(
                        "[{t}] active={} nics={} violating={} migrations={} parked={} down={} obs_queue={} cache_hit={:.4}{delta}\n",
                        e.int("active").unwrap_or(0),
                        e.int("nics").unwrap_or(0),
                        e.int("violating").unwrap_or(0),
                        e.int("migrations").unwrap_or(0),
                        e.int("parked").unwrap_or(0),
                        e.int("down").unwrap_or(0),
                        e.int("obs_queue").unwrap_or(0),
                        e.num("cache_hit_rate").unwrap_or(0.0),
                    ));
                    pending.clear();
                }
                // Margin/audit/profile lines are too chatty for the
                // timeline view, and the truncation trailer is a meta
                // line, not a fleet event; everything else tallies into
                // the delta.
                "margin" | "audit" | "profile" | "truncated" | "" => {}
                tag => {
                    let tag: &'static str = match tag {
                        "arrival" => "arrival",
                        "place" => "place",
                        "reject" => "reject",
                        "depart" => "depart",
                        "fault" => "fault",
                        "evacuate" => "evacuate",
                        "park" => "park",
                        "readmit" => "readmit",
                        "violation" => "violation",
                        "migrate" => "migrate",
                        "absorb" => "absorb",
                        _ => "other",
                    };
                    if let Some(p) = pending.iter_mut().find(|(t, _)| *t == tag) {
                        p.1 += 1;
                    } else {
                        pending.push((tag, 1));
                    }
                }
            }
        }
        if out.is_empty() {
            out.push_str("no epoch snapshots in journal\n");
        }
        out
    }

    /// The lifecycle story of one tenant: every journaled event that
    /// concerns NF `id`, rendered chronologically as prose lines.
    pub fn tenant(&self, id: i64) -> String {
        let mut out = String::new();
        // Profile events are journaled post-merge (after the parallel
        // build), so a stable sort on sim time re-interleaves them with
        // the fleet events they precede chronologically.
        let mut story: Vec<&RawEvent> = self.events.iter().filter(|e| involves(e, id)).collect();
        story.sort_by_key(|e| e.int("t_ms").unwrap_or(0));
        for e in story {
            let t = fmt_t(e.int("t_ms").unwrap_or(0));
            let line = match e.tag() {
                "profile" => format!(
                    "profiled ({}, trigger={}, cache {})",
                    e.str("kind").unwrap_or("?"),
                    e.str("trigger").unwrap_or("?"),
                    e.str("cache").unwrap_or("?")
                ),
                "arrival" => format!(
                    "arrived: kind={} qos={} sla_drop={:.3}",
                    e.str("kind").unwrap_or("?"),
                    e.str("qos").unwrap_or("?"),
                    e.num("sla_drop").unwrap_or(0.0)
                ),
                "place" => format!(
                    "placed on NIC {} ({})",
                    e.int("nic").unwrap_or(-1),
                    e.str("reason").unwrap_or("?")
                ),
                "margin" => format!(
                    "margin on NIC {}: predicted {:.0} vs floor {:.0}",
                    e.int("nic").unwrap_or(-1),
                    e.num("predicted").unwrap_or(0.0),
                    e.num("floor").unwrap_or(0.0)
                ),
                "reject" => "REJECTED at admission: no feasible NIC".to_string(),
                "violation" => format!(
                    "VIOLATION on NIC {}: measured {:.0} below floor {:.0} (bottleneck: {})",
                    e.int("nic").unwrap_or(-1),
                    e.num("measured").unwrap_or(0.0),
                    e.num("floor").unwrap_or(0.0),
                    e.str("bottleneck").unwrap_or("none")
                ),
                "migrate" if e.int("victim") == Some(id) => format!(
                    "migrated NIC {} -> {} as victim relieving NF {} (bottleneck {}, pressure {:.3})",
                    e.int("from").unwrap_or(-1),
                    e.int("to").unwrap_or(-1),
                    e.int("violator").unwrap_or(-1),
                    e.str("bottleneck").unwrap_or("none"),
                    e.num("pressure").unwrap_or(0.0)
                ),
                "migrate" => format!(
                    "relieved: NF {} migrated off NIC {} (bottleneck {})",
                    e.int("victim").unwrap_or(-1),
                    e.int("from").unwrap_or(-1),
                    e.str("bottleneck").unwrap_or("none")
                ),
                "evacuate" => format!(
                    "evacuated NIC {} -> {}{}",
                    e.int("from").unwrap_or(-1),
                    e.int("to").unwrap_or(-1),
                    if e.get("forced").map(|v| v == &crate::journal::FieldValue::Bool(true))
                        == Some(true)
                    {
                        " (forced: its NIC was already out of service)"
                    } else {
                        ""
                    }
                ),
                "park" => format!("PARKED ({})", e.str("reason").unwrap_or("?")),
                "readmit" => format!("readmitted onto NIC {}", e.int("nic").unwrap_or(-1)),
                "depart" => match e.int("nic") {
                    Some(n) if n >= 0 => format!("departed from NIC {n}"),
                    _ => "departed while parked/unplaced".to_string(),
                },
                other => format!("{other} event"),
            };
            out.push_str(&format!("[{t}] NF {id}: {line}\n"));
        }
        if out.is_empty() {
            out.push_str(&format!("no journaled events for NF {id}\n"));
        }
        out
    }

    /// Answers "why was NF `id` violated / parked / migrated /
    /// rejected?": one prose paragraph per adverse event class, built
    /// from the journal's own diagnoses.
    pub fn why(&self, id: i64) -> String {
        let mine: Vec<&RawEvent> = self.events.iter().filter(|e| involves(e, id)).collect();
        if mine.is_empty() {
            return format!("no journaled events for NF {id}\n");
        }
        let mut out = String::new();

        let violations: Vec<&&RawEvent> = mine.iter().filter(|e| e.tag() == "violation").collect();
        if let Some(last) = violations.last() {
            out.push_str(&format!(
                "violated: {} time(s); last at {} on NIC {}: measured {:.0} pps against an SLA floor of {:.0} (diagnosed bottleneck: {}).\n",
                violations.len(),
                fmt_t(last.int("t_ms").unwrap_or(0)),
                last.int("nic").unwrap_or(-1),
                last.num("measured").unwrap_or(0.0),
                last.num("floor").unwrap_or(0.0),
                last.str("bottleneck").unwrap_or("none")
            ));
            if let Some(m) = mine
                .iter()
                .rfind(|e| e.tag() == "migrate" && e.int("violator") == Some(id))
            {
                out.push_str(&format!(
                    "  response: NF {} was migrated off NIC {} at {} because it pressed hardest on the {} bottleneck (pressure {:.3}).\n",
                    m.int("victim").unwrap_or(-1),
                    m.int("from").unwrap_or(-1),
                    fmt_t(m.int("t_ms").unwrap_or(0)),
                    m.str("bottleneck").unwrap_or("none"),
                    m.num("pressure").unwrap_or(0.0)
                ));
            }
        }

        if let Some(m) = mine
            .iter()
            .rfind(|e| e.tag() == "migrate" && e.int("victim") == Some(id))
        {
            out.push_str(&format!(
                "migrated (as victim): at {} from NIC {} to {} to relieve NF {} — among NF {}'s co-residents it pressed hardest on the diagnosed {} bottleneck (pressure {:.3}).\n",
                fmt_t(m.int("t_ms").unwrap_or(0)),
                m.int("from").unwrap_or(-1),
                m.int("to").unwrap_or(-1),
                m.int("violator").unwrap_or(-1),
                m.int("violator").unwrap_or(-1),
                m.str("bottleneck").unwrap_or("none"),
                m.num("pressure").unwrap_or(0.0)
            ));
        }

        let parks: Vec<&&RawEvent> = mine.iter().filter(|e| e.tag() == "park").collect();
        if let Some(last) = parks.last() {
            let reason = match last.str("reason") {
                Some("preempted") => {
                    "displaced from its NIC to make room for a guaranteed-class NF".to_string()
                }
                Some("no_slot") => {
                    "its NIC went away and no other NIC could take it without breaking an SLA"
                        .to_string()
                }
                Some(r) => r.to_string(),
                None => "unknown".to_string(),
            };
            out.push_str(&format!(
                "parked: {} time(s); last at {} because {}.\n",
                parks.len(),
                fmt_t(last.int("t_ms").unwrap_or(0)),
                reason
            ));
            if let Some(r) = mine.iter().rfind(|e| e.tag() == "readmit") {
                out.push_str(&format!(
                    "  readmitted onto NIC {} at {}.\n",
                    r.int("nic").unwrap_or(-1),
                    fmt_t(r.int("t_ms").unwrap_or(0))
                ));
            }
        }

        if mine.iter().any(|e| e.tag() == "reject") {
            out.push_str(&format!(
                "rejected: NF {id} was turned away at admission — no NIC had a feasible slot under the predictor's floors.\n"
            ));
        }

        if out.is_empty() {
            out.push_str(&format!(
                "NF {id} had no adverse events: {} journaled event(s), all routine (arrival/placement/departure).\n",
                mine.len()
            ));
        }
        out
    }

    /// Reconstructs a metrics registry from the event stream alone —
    /// counters tallied per event class, gauges from the last epoch
    /// snapshot. Useful to export Prometheus text from a bare journal
    /// file, and to cross-check a live registry against its journal.
    pub fn reconstruct_metrics(&self) -> MetricsRegistry {
        let mut m = MetricsRegistry::new();
        for e in &self.events {
            match e.tag() {
                "arrival" => m.inc("fleet.arrivals", 1),
                "place" => m.inc("fleet.placements", 1),
                "reject" => m.inc("fleet.rejected", 1),
                "depart" => m.inc("fleet.departures", 1),
                "migrate" => m.inc("fleet.migrations", 1),
                "violation" => {
                    m.inc(
                        &format!("fleet.violations.{}", e.str("qos").unwrap_or("unknown")),
                        1,
                    );
                }
                "fault" => match e.str("kind") {
                    Some("fail") => m.inc("fleet.faults", 1),
                    Some("drain_start") => m.inc("fleet.drains", 1),
                    _ => {}
                },
                "evacuate" => {
                    m.inc(
                        &format!("fleet.evacuations.{}", e.str("qos").unwrap_or("unknown")),
                        1,
                    );
                }
                "park" => {
                    m.inc(
                        &format!("fleet.shed.{}", e.str("qos").unwrap_or("unknown")),
                        1,
                    );
                }
                "readmit" => {
                    m.inc(
                        &format!("fleet.readmitted.{}", e.str("qos").unwrap_or("unknown")),
                        1,
                    );
                }
                "absorb" => {
                    m.inc("fleet.absorb.passes", 1);
                    m.inc(
                        "fleet.absorb.observations",
                        e.int("observations").unwrap_or(0).max(0) as u64,
                    );
                }
                "profile" => {
                    m.inc("profile.lookups", 1);
                    match e.str("cache") {
                        Some("hit") => m.inc("profile.hits", 1),
                        Some("miss") => m.inc("profile.misses", 1),
                        _ => {}
                    }
                }
                "epoch" => {
                    m.set_gauge("fleet.active_nfs", e.num("active").unwrap_or(0.0));
                    m.set_gauge("fleet.nics_in_use", e.num("nics").unwrap_or(0.0));
                    m.set_gauge("fleet.parked", e.num("parked").unwrap_or(0.0));
                    m.set_gauge("fleet.down_nics", e.num("down").unwrap_or(0.0));
                    m.set_gauge(
                        "fleet.cache_hit_rate",
                        e.num("cache_hit_rate").unwrap_or(0.0),
                    );
                }
                _ => {}
            }
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::{Event, Journal};

    fn sample() -> String {
        let mut j = Journal::new();
        j.push(
            0,
            Event::Arrival {
                id: 1,
                kind: "flowstats",
                qos: "guaranteed",
                sla_drop: 0.1,
            },
        );
        j.push(
            0,
            Event::Place {
                id: 1,
                nic: 4,
                reason: "arrival",
            },
        );
        j.push(
            600_000,
            Event::Violation {
                id: 1,
                nic: 4,
                qos: "guaranteed",
                measured: 80_000.0,
                floor: 90_000.0,
                bottleneck: "regex".to_string(),
            },
        );
        j.push(
            600_000,
            Event::Migrate {
                victim: 2,
                from: 4,
                to: 6,
                violator: 1,
                bottleneck: "regex".to_string(),
                qos: "best_effort",
                pressure: 0.42,
            },
        );
        j.push(
            1_200_000,
            Event::Park {
                id: 2,
                qos: "best_effort",
                reason: "preempted",
            },
        );
        j.push(
            1_200_000,
            Event::Epoch {
                t_s: 1_200,
                active: 2,
                nics_in_use: 2,
                violating: 0,
                migrations: 1,
                wasted_cores: 0,
                oracle_lb: 1,
                parked: 1,
                down: 0,
                obs_queue: 3,
                cache_hit_rate: 0.75,
            },
        );
        j.to_jsonl()
    }

    #[test]
    fn summary_and_timeline_render() {
        let i = Inspector::from_jsonl(&sample());
        assert_eq!(i.len(), 6);
        let s = i.summary();
        assert!(s.contains("arrivals 1"));
        assert!(s.contains("violations 1 (guaranteed 1, best_effort 0)"));
        assert!(!s.contains("TRUNCATED"), "untruncated journals stay quiet");
        let t = i.timeline();
        assert!(t.contains("[00:20:00]"));
        assert!(t.contains("parked=1"));
        assert!(t.contains("1 migrate"));
    }

    #[test]
    fn summary_counts_failures_as_faults_and_names_the_other_kinds() {
        let mut j = Journal::new();
        for (t_ms, kind) in (0..).zip(["fail", "recover", "drain_start", "drain_end"]) {
            j.push(t_ms, Event::Fault { nic: 3, kind });
        }
        let i = Inspector::from_jsonl(&j.to_jsonl());
        // The report's `faults` and `fleet.faults` count failures only.
        assert_eq!(i.reconstruct_metrics().counter("fleet.faults"), 1);
        let s = i.summary();
        assert!(
            s.contains("  faults 1  drains 1 (ended 1)  recoveries 1  "),
            "{s}"
        );
    }

    #[test]
    fn predictor_summary_reads_the_prometheus_export() {
        let mut m = crate::MetricsRegistry::new();
        m.inc("predict.calls", 400);
        m.inc("predict.memo_hits", 300);
        m.inc("predict.memo_clears", 2);
        m.inc("predict.forest_walks", 30);
        m.inc("predict.calls_elsewhere", 9);
        m.inc("fleet.arrivals", 20);
        let line = Inspector::predictor_summary(&m.to_prometheus()).expect("counters present");
        assert_eq!(
            line,
            "  predictions 400 (memo hits 300 = 75.0%, forest walks 30 = 1.50 per decision, \
             memo emptied 2 time(s))\n"
        );
        assert_eq!(
            Inspector::predictor_summary("# TYPE x counter\nx 1\n"),
            None
        );
    }

    #[test]
    fn summary_surfaces_journal_truncation_prominently() {
        let mut text = sample();
        text.push_str("{\"seq\":6,\"t_ms\":1200000,\"ev\":\"truncated\",\"dropped\":12345}\n");
        let i = Inspector::from_jsonl(&text);
        let s = i.summary();
        let warn = s.lines().nth(1).expect("warning directly under headline");
        assert!(warn.contains("TRUNCATED"));
        assert!(warn.contains("12345"));
        assert!(warn.contains("--journal-cap"));
        // The meta line is not a fleet event: the timeline must not
        // tally it as "other".
        assert!(!i.timeline().contains("truncated"));
        assert!(!i.timeline().contains("other"));
    }

    #[test]
    fn tenant_story_covers_both_roles() {
        let i = Inspector::from_jsonl(&sample());
        let violator = i.tenant(1);
        assert!(violator.contains("VIOLATION on NIC 4"));
        assert!(violator.contains("relieved: NF 2 migrated off NIC 4"));
        let victim = i.tenant(2);
        assert!(victim.contains("as victim relieving NF 1"));
        assert!(victim.contains("PARKED (preempted)"));
        assert!(i.tenant(99).contains("no journaled events"));
    }

    #[test]
    fn why_explains_violation_and_parking() {
        let i = Inspector::from_jsonl(&sample());
        let w1 = i.why(1);
        assert!(w1.contains("violated: 1 time(s)"));
        assert!(w1.contains("bottleneck: regex"));
        assert!(w1.contains("response: NF 2 was migrated off NIC 4"));
        let w2 = i.why(2);
        assert!(w2.contains("migrated (as victim)"));
        assert!(w2.contains("parked: 1 time(s)"));
        assert!(w2.contains("guaranteed-class NF"));
    }

    #[test]
    fn metrics_reconstruct_from_events() {
        let i = Inspector::from_jsonl(&sample());
        let m = i.reconstruct_metrics();
        assert_eq!(m.counter("fleet.arrivals"), 1);
        assert_eq!(m.counter("fleet.violations.guaranteed"), 1);
        assert_eq!(m.counter("fleet.migrations"), 1);
        assert_eq!(m.counter("fleet.shed.best_effort"), 1);
        assert_eq!(m.gauge("fleet.parked"), Some(1.0));
        assert_eq!(m.gauge("fleet.cache_hit_rate"), Some(0.75));
    }
}
