//! The sim-time event journal: a bounded vector of structured records
//! stamped with *logical* event time, so the journal of a deterministic
//! run is itself deterministic — bit-identical across runs and engine
//! thread counts — and can be diffed, replayed, and queried after the
//! fact.
//!
//! Serialization is flat JSONL (one object per line, fixed field order
//! per event kind, fixed float formatting), hand-rolled like every other
//! canonical byte stream in the workspace. [`parse_line`] reads the
//! writer's own output back; it is not a general JSON parser.

/// One structured journal event. String fields are controlled
/// identifiers (NF kind names, QoS class names, resource names) — never
/// free text — so the writer does not escape them.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// A profile measurement consumed during the timeline build.
    /// `cache` is `"miss"` for the first event bearing `key` within the
    /// build, `"hit"` after — tagged post-merge in record order, so the
    /// attribution is deterministic even though the parallel build races
    /// threads over the shared cache.
    Profile {
        id: u32,
        kind: &'static str,
        trigger: &'static str,
        key: u64,
        cache: &'static str,
    },
    /// An NF arrival entering placement.
    Arrival {
        id: u32,
        kind: &'static str,
        qos: &'static str,
        sla_drop: f64,
    },
    /// A placement decision that admitted `id` onto `nic`.
    Place {
        id: u32,
        nic: u32,
        reason: &'static str,
    },
    /// One resident's predicted-vs-floor margin on the NIC a
    /// contention-aware placement just accepted (floor includes the
    /// hysteresis margin in force for that decision).
    Margin {
        id: u32,
        nic: u32,
        predicted: f64,
        floor: f64,
    },
    /// An arrival that found no feasible NIC.
    Reject {
        id: u32,
        kind: &'static str,
        qos: &'static str,
    },
    /// An NF leaving the fleet; `nic` is `-1` if it was parked or never
    /// placed.
    Depart { id: u32, nic: i64 },
    /// A fault-machine transition on a NIC (`fail`, `recover`,
    /// `drain_start`, `drain_end`).
    Fault { nic: u32, kind: &'static str },
    /// A resident relocated off a failing/draining NIC.
    Evacuate {
        id: u32,
        from: u32,
        to: u32,
        qos: &'static str,
        forced: bool,
    },
    /// An NF shed into the parked set (`no_slot`: nowhere to evacuate;
    /// `preempted`: displaced to make room for a guaranteed NF).
    Park {
        id: u32,
        qos: &'static str,
        reason: &'static str,
    },
    /// A parked NF re-placed at an audit retry.
    Readmit {
        id: u32,
        nic: u32,
        qos: &'static str,
    },
    /// A ground-truth SLA violation observed at an audit, with the
    /// diagnosed bottleneck (`none` when the policy has no diagnoser or
    /// the NF ran solo).
    Violation {
        id: u32,
        nic: u32,
        qos: &'static str,
        measured: f64,
        floor: f64,
        bottleneck: String,
    },
    /// A reactive migration: `victim` drained from `from` to relieve
    /// `violator`, chosen because it pressed hardest (`pressure`) on the
    /// diagnosed `bottleneck`.
    Migrate {
        victim: u32,
        from: u32,
        to: u32,
        violator: u32,
        bottleneck: String,
        qos: &'static str,
        pressure: f64,
    },
    /// An online-refinement absorb pass over `observations` buffered
    /// ground-truth samples.
    Absorb { epoch: u32, observations: u32 },
    /// An audit epoch's ground-truth summary.
    Audit {
        epoch: u32,
        occupied: u32,
        violating: u32,
    },
    /// The per-epoch fleet snapshot, aligned with `FleetSample` plus the
    /// observation-queue depth and the build's profile-cache hit rate.
    Epoch {
        t_s: u64,
        active: u32,
        nics_in_use: u32,
        violating: u32,
        migrations: u32,
        wasted_cores: u32,
        oracle_lb: u32,
        parked: u32,
        down: u32,
        obs_queue: u32,
        cache_hit_rate: f64,
    },
}

impl Event {
    /// The event's `ev` tag in the JSONL form.
    pub fn tag(&self) -> &'static str {
        match self {
            Event::Profile { .. } => "profile",
            Event::Arrival { .. } => "arrival",
            Event::Place { .. } => "place",
            Event::Margin { .. } => "margin",
            Event::Reject { .. } => "reject",
            Event::Depart { .. } => "depart",
            Event::Fault { .. } => "fault",
            Event::Evacuate { .. } => "evacuate",
            Event::Park { .. } => "park",
            Event::Readmit { .. } => "readmit",
            Event::Violation { .. } => "violation",
            Event::Migrate { .. } => "migrate",
            Event::Absorb { .. } => "absorb",
            Event::Audit { .. } => "audit",
            Event::Epoch { .. } => "epoch",
        }
    }
}

/// One journal entry: logical time, insertion sequence, event.
#[derive(Debug, Clone, PartialEq)]
pub struct JournalRecord {
    /// Logical (simulated) time of the event, milliseconds.
    pub t_ms: u64,
    /// Insertion sequence, the journal-wide total order.
    pub seq: u64,
    /// The structured event.
    pub event: Event,
}

/// Default bound on journal length — far above any current scenario
/// (a 24 h 200-NIC day journals a few tens of thousands of events).
pub const DEFAULT_CAPACITY: usize = 1 << 20;

/// The bounded journal. Events past the capacity are counted and
/// dropped (newest-dropped, deterministically), never reallocated into.
#[derive(Debug, Clone, PartialEq)]
pub struct Journal {
    records: Vec<JournalRecord>,
    capacity: usize,
    dropped: u64,
}

impl Default for Journal {
    fn default() -> Self {
        Self::with_capacity(DEFAULT_CAPACITY)
    }
}

impl Journal {
    /// An empty journal with the default bound.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty journal bounded at `capacity` events.
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            records: Vec::new(),
            capacity,
            dropped: 0,
        }
    }

    /// Appends one event at logical time `t_ms`.
    pub fn push(&mut self, t_ms: u64, event: Event) {
        if self.records.len() >= self.capacity {
            self.dropped += 1;
            return;
        }
        let seq = self.records.len() as u64;
        self.records.push(JournalRecord { t_ms, seq, event });
    }

    /// All retained records, in insertion order.
    pub fn records(&self) -> &[JournalRecord] {
        &self.records
    }

    /// Events dropped at the capacity bound.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Retained event count.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True if nothing was journaled.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The capacity bound this journal was constructed with.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Serializes the journal as JSONL: one flat object per line, fixed
    /// field order, floats at fixed precision — identical journals
    /// produce identical bytes. A journal that hit its capacity bound
    /// appends one trailing `"ev":"truncated"` meta line carrying the
    /// dropped-event count, so the loss is visible in the artifact
    /// itself; journals that dropped nothing serialize exactly as
    /// before.
    pub fn to_jsonl(&self) -> String {
        use std::fmt::Write;
        let mut out = String::with_capacity(self.records.len() * 96);
        for r in &self.records {
            render_line(&mut out, r);
        }
        if self.dropped > 0 {
            let t_ms = self.records.last().map(|r| r.t_ms).unwrap_or(0);
            let _ = writeln!(
                out,
                "{{\"seq\":{},\"t_ms\":{},\"ev\":\"truncated\",\"dropped\":{}}}",
                self.records.len(),
                t_ms,
                self.dropped
            );
        }
        out
    }
}

/// Writes one record's JSONL line (with trailing newline) into `out`.
fn render_line(out: &mut String, r: &JournalRecord) {
    use std::fmt::Write;
    let head = format!(
        "{{\"seq\":{},\"t_ms\":{},\"ev\":\"{}\"",
        r.seq,
        r.t_ms,
        r.event.tag()
    );
    out.push_str(&head);
    let _ = match &r.event {
        Event::Profile {
            id,
            kind,
            trigger,
            key,
            cache,
        } => write!(
            out,
            // The key hash renders as a hex *string*: a bare u64 above
            // i64::MAX would not round-trip through the integer parser.
            ",\"id\":{id},\"kind\":\"{kind}\",\"trigger\":\"{trigger}\",\"key\":\"{key:016x}\",\"cache\":\"{cache}\""
        ),
        Event::Arrival {
            id,
            kind,
            qos,
            sla_drop,
        } => write!(
            out,
            ",\"id\":{id},\"kind\":\"{kind}\",\"qos\":\"{qos}\",\"sla_drop\":{sla_drop:.3}"
        ),
        Event::Place { id, nic, reason } => {
            write!(out, ",\"id\":{id},\"nic\":{nic},\"reason\":\"{reason}\"")
        }
        Event::Margin {
            id,
            nic,
            predicted,
            floor,
        } => write!(
            out,
            ",\"id\":{id},\"nic\":{nic},\"predicted\":{predicted:.3},\"floor\":{floor:.3}"
        ),
        Event::Reject { id, kind, qos } => {
            write!(out, ",\"id\":{id},\"kind\":\"{kind}\",\"qos\":\"{qos}\"")
        }
        Event::Depart { id, nic } => write!(out, ",\"id\":{id},\"nic\":{nic}"),
        Event::Fault { nic, kind } => write!(out, ",\"nic\":{nic},\"kind\":\"{kind}\""),
        Event::Evacuate {
            id,
            from,
            to,
            qos,
            forced,
        } => write!(
            out,
            ",\"id\":{id},\"from\":{from},\"to\":{to},\"qos\":\"{qos}\",\"forced\":{forced}"
        ),
        Event::Park { id, qos, reason } => {
            write!(out, ",\"id\":{id},\"qos\":\"{qos}\",\"reason\":\"{reason}\"")
        }
        Event::Readmit { id, nic, qos } => {
            write!(out, ",\"id\":{id},\"nic\":{nic},\"qos\":\"{qos}\"")
        }
        Event::Violation {
            id,
            nic,
            qos,
            measured,
            floor,
            bottleneck,
        } => write!(
            out,
            ",\"id\":{id},\"nic\":{nic},\"qos\":\"{qos}\",\"measured\":{measured:.3},\"floor\":{floor:.3},\"bottleneck\":\"{bottleneck}\""
        ),
        Event::Migrate {
            victim,
            from,
            to,
            violator,
            bottleneck,
            qos,
            pressure,
        } => write!(
            out,
            ",\"victim\":{victim},\"from\":{from},\"to\":{to},\"violator\":{violator},\"bottleneck\":\"{bottleneck}\",\"qos\":\"{qos}\",\"pressure\":{pressure:.3}"
        ),
        Event::Absorb {
            epoch,
            observations,
        } => write!(out, ",\"epoch\":{epoch},\"observations\":{observations}"),
        Event::Audit {
            epoch,
            occupied,
            violating,
        } => write!(
            out,
            ",\"epoch\":{epoch},\"occupied\":{occupied},\"violating\":{violating}"
        ),
        Event::Epoch {
            t_s,
            active,
            nics_in_use,
            violating,
            migrations,
            wasted_cores,
            oracle_lb,
            parked,
            down,
            obs_queue,
            cache_hit_rate,
        } => write!(
            out,
            ",\"t_s\":{t_s},\"active\":{active},\"nics\":{nics_in_use},\"violating\":{violating},\"migrations\":{migrations},\"wasted_cores\":{wasted_cores},\"oracle_lb\":{oracle_lb},\"parked\":{parked},\"down\":{down},\"obs_queue\":{obs_queue},\"cache_hit_rate\":{cache_hit_rate:.4}"
        ),
    };
    out.push_str("}\n");
}

/// A field value in a parsed journal line.
#[derive(Debug, Clone, PartialEq)]
pub enum FieldValue {
    /// An integer field (ids, counts, times).
    Int(i64),
    /// A float field (rates, throughputs).
    Num(f64),
    /// A string field (tags, names).
    Str(String),
    /// A boolean field.
    Bool(bool),
}

/// One parsed journal line: `(key, value)` pairs in line order.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RawEvent {
    /// The line's fields, in serialization order.
    pub fields: Vec<(String, FieldValue)>,
}

impl RawEvent {
    /// The value for `key`, if present.
    pub fn get(&self, key: &str) -> Option<&FieldValue> {
        self.fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// String field accessor.
    pub fn str(&self, key: &str) -> Option<&str> {
        match self.get(key)? {
            FieldValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Integer field accessor. Accepts a float only if it is integral
    /// and within ±2^53 (where every integer is exactly representable);
    /// the writer never emits a float for an integer field.
    pub fn int(&self, key: &str) -> Option<i64> {
        self.get(key).and_then(int_of)
    }

    /// Float field accessor (integers widen).
    pub fn num(&self, key: &str) -> Option<f64> {
        match self.get(key)? {
            FieldValue::Num(f) => Some(*f),
            FieldValue::Int(i) => Some(*i as f64),
            _ => None,
        }
    }

    /// The `ev` tag of the line.
    pub fn tag(&self) -> &str {
        self.str("ev").unwrap_or("")
    }

    /// `read(key)` of a field that must be there: the error names `key`,
    /// and says whether it is missing or present as something else.
    fn need<'a, T>(
        &'a self,
        key: &str,
        what: &str,
        read: impl FnOnce(&'a FieldValue) -> Option<T>,
    ) -> Result<T, String> {
        let value = self
            .get(key)
            .ok_or_else(|| format!("missing field {key}"))?;
        read(value).ok_or_else(|| format!("field {key} is not {what}"))
    }

    /// Required string field.
    pub fn need_str(&self, key: &str) -> Result<&str, String> {
        self.need(key, "a string", |v| match v {
            FieldValue::Str(s) => Some(s.as_str()),
            _ => None,
        })
    }

    /// Required boolean field.
    pub fn need_bool(&self, key: &str) -> Result<bool, String> {
        self.need(key, "a boolean", |v| match v {
            FieldValue::Bool(b) => Some(*b),
            _ => None,
        })
    }

    /// Required number: finite, and an integer only within ±2^53, where
    /// `f64` holds every integer and prints it back as the same digits
    /// (`1e999` and `9223372036854775807` would be read as some other
    /// number than the one sent).
    pub fn need_num(&self, key: &str) -> Result<f64, String> {
        self.need(key, "a finite number", |v| match *v {
            FieldValue::Num(f) => Some(f).filter(|f| f.is_finite()),
            FieldValue::Int(i) => Some(i as f64).filter(|f| f.abs() <= EXACT),
            _ => None,
        })
    }

    /// Required integer as a `T`, refused when `T` cannot hold it (an
    /// `as` cast would wrap it into some other, valid-looking value).
    pub fn need_int<T: TryFrom<i64>>(&self, key: &str) -> Result<T, String> {
        let v = self.need(key, "an integer", int_of)?;
        T::try_from(v).map_err(|_| format!("field {key} = {v} out of range"))
    }

    /// Required number inside `lo..=hi`, refused (not clamped) outside.
    pub fn need_in<T: Scalar>(&self, key: &str, lo: T, hi: T) -> Result<T, String> {
        let v = T::need(self, key)?;
        if (lo..=hi).contains(&v) {
            Ok(v)
        } else {
            Err(format!("field {key} = {v} outside [{lo},{hi}]"))
        }
    }

    /// `read(self, key)` if the line has `key`, `None` if it has not: an
    /// absent optional field may default, a malformed one is still refused.
    pub fn optional<'a, T>(
        &'a self,
        key: &str,
        read: impl FnOnce(&'a Self, &str) -> Result<T, String>,
    ) -> Result<Option<T>, String> {
        self.get(key).map(|_| read(self, key)).transpose()
    }
}

/// The largest magnitude below which `f64` holds every integer.
const EXACT: f64 = (1u64 << 53) as f64;

/// `value` as an integer: see [`RawEvent::int`].
fn int_of(value: &FieldValue) -> Option<i64> {
    match *value {
        FieldValue::Int(i) => Some(i),
        FieldValue::Num(f) if f.fract() == 0.0 && f.abs() <= EXACT => Some(f as i64),
        _ => None,
    }
}

/// A number a required field reads as with [`RawEvent::need_in`]:
/// integers through [`RawEvent::need_int`], `f64` through
/// [`RawEvent::need_num`].
pub trait Scalar: Copy + PartialOrd + std::fmt::Display {
    /// Required field `key` of `ev` as `Self`.
    fn need(ev: &RawEvent, key: &str) -> Result<Self, String>;
}

impl Scalar for f64 {
    fn need(ev: &RawEvent, key: &str) -> Result<Self, String> {
        ev.need_num(key)
    }
}

macro_rules! integer_scalar {
    ($($t:ty),*) => {$(
        impl Scalar for $t {
            fn need(ev: &RawEvent, key: &str) -> Result<Self, String> {
                ev.need_int(key)
            }
        }
    )*};
}

integer_scalar!(i64, u32, u64, usize);

/// Parses one line of the journal's own JSONL output. Returns `None` on
/// anything the writer would not have produced (blank lines included).
pub fn parse_line(line: &str) -> Option<RawEvent> {
    let body = line.trim().strip_prefix('{')?.strip_suffix('}')?;
    let mut out = RawEvent::default();
    let mut rest = body;
    while !rest.is_empty() {
        rest = rest.strip_prefix(',').unwrap_or(rest);
        let (key, after) = take_string(rest)?;
        rest = after.strip_prefix(':')?;
        if let Some(stripped) = rest.strip_prefix('"') {
            let end = stripped.find('"')?;
            out.fields
                .push((key, FieldValue::Str(stripped[..end].to_string())));
            rest = &stripped[end + 1..];
        } else if let Some(stripped) = rest.strip_prefix("true") {
            out.fields.push((key, FieldValue::Bool(true)));
            rest = stripped;
        } else if let Some(stripped) = rest.strip_prefix("false") {
            out.fields.push((key, FieldValue::Bool(false)));
            rest = stripped;
        } else {
            let end = rest
                .find(|c: char| !(c.is_ascii_digit() || "+-.eE".contains(c)))
                .unwrap_or(rest.len());
            let tok = &rest[..end];
            let v = if tok.contains('.') || tok.contains('e') || tok.contains('E') {
                FieldValue::Num(tok.parse().ok()?)
            } else {
                FieldValue::Int(tok.parse().ok()?)
            };
            out.fields.push((key, v));
            rest = &rest[end..];
        }
    }
    Some(out)
}

/// Reads a leading `"quoted"` token, returning `(contents, rest)`.
fn take_string(s: &str) -> Option<(String, &str)> {
    let s = s.strip_prefix('"')?;
    let end = s.find('"')?;
    Some((s[..end].to_string(), &s[end + 1..]))
}

/// Parses a whole JSONL journal text into raw events, skipping
/// unparseable lines.
pub fn parse_jsonl(text: &str) -> Vec<RawEvent> {
    text.lines().filter_map(parse_line).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_journal() -> Journal {
        let mut j = Journal::new();
        j.push(
            0,
            // A key above i64::MAX: must survive the round trip (it is
            // serialized as a hex string, not a bare integer).
            Event::Profile {
                id: 3,
                kind: "flowstats",
                trigger: "arrival",
                key: u64::MAX - 1,
                cache: "miss",
            },
        );
        j.push(
            0,
            Event::Arrival {
                id: 3,
                kind: "flowstats",
                qos: "guaranteed",
                sla_drop: 0.1,
            },
        );
        j.push(
            0,
            Event::Place {
                id: 3,
                nic: 7,
                reason: "arrival",
            },
        );
        j.push(
            600_000,
            Event::Violation {
                id: 3,
                nic: 7,
                qos: "guaranteed",
                measured: 81234.5,
                floor: 90_000.0,
                bottleneck: "regex".to_string(),
            },
        );
        j.push(600_000, Event::Depart { id: 3, nic: -1 });
        j
    }

    #[test]
    fn jsonl_round_trips_through_the_parser() {
        let j = sample_journal();
        let text = j.to_jsonl();
        assert_eq!(text.lines().count(), 5);
        let parsed = parse_jsonl(&text);
        assert_eq!(parsed.len(), 5, "every line must round-trip");
        assert_eq!(parsed[0].tag(), "profile");
        assert_eq!(parsed[0].str("key"), Some("fffffffffffffffe"));
        assert_eq!(parsed[0].str("cache"), Some("miss"));
        assert_eq!(parsed[1].tag(), "arrival");
        assert_eq!(parsed[1].int("id"), Some(3));
        assert_eq!(parsed[1].str("qos"), Some("guaranteed"));
        assert_eq!(parsed[1].num("sla_drop"), Some(0.1));
        assert_eq!(parsed[3].num("measured"), Some(81234.5));
        assert_eq!(parsed[3].str("bottleneck"), Some("regex"));
        assert_eq!(parsed[4].int("nic"), Some(-1));
        assert_eq!(parsed[2].int("seq"), Some(2));
    }

    #[test]
    fn serialization_is_stable() {
        assert_eq!(sample_journal().to_jsonl(), sample_journal().to_jsonl());
    }

    #[test]
    fn capacity_bound_drops_and_counts() {
        let mut j = Journal::with_capacity(2);
        for i in 0..5 {
            j.push(
                i,
                Event::Depart {
                    id: i as u32,
                    nic: -1,
                },
            );
        }
        assert_eq!(j.len(), 2);
        assert_eq!(j.dropped(), 3);
        // The loss is visible in the serialized artifact: one trailing
        // meta line with the dropped count, parseable like any other.
        let text = j.to_jsonl();
        assert_eq!(text.lines().count(), 3);
        let parsed = parse_jsonl(&text);
        assert_eq!(parsed[2].tag(), "truncated");
        assert_eq!(parsed[2].int("dropped"), Some(3));
        assert_eq!(parsed[2].int("seq"), Some(2));
        // An unfilled journal serializes without the trailer.
        assert!(!sample_journal().to_jsonl().contains("truncated"));
    }

    #[test]
    fn int_accepts_only_exactly_integral_floats() {
        let ev = parse_line(
            "{\"a\":7,\"b\":7.0,\"c\":-3e2,\"d\":1.9,\"e\":1e300,\"f\":-0.5,\"g\":1e999}",
        )
        .expect("parseable");
        assert_eq!(ev.int("a"), Some(7));
        assert_eq!(ev.int("b"), Some(7));
        assert_eq!(ev.int("c"), Some(-300));
        // Not integers: truncating 1.9 to 1 or saturating 1e300 would
        // quietly act on a value nobody sent.
        for key in ["d", "e", "f", "g"] {
            assert_eq!(ev.int(key), None, "{key}");
            assert!(ev.num(key).is_some(), "{key} is still a number");
        }
    }

    #[test]
    fn required_fields_name_the_key_and_refuse_what_the_type_cannot_hold() {
        let ev = parse_line(
            "{\"s\":\"x\",\"n\":-0.5,\"i\":300,\"neg\":-1,\"big\":9223372036854775807,\
             \"inf\":1e999,\"b\":true}",
        )
        .expect("parseable");
        assert_eq!(ev.need_str("s"), Ok("x"));
        assert_eq!(ev.need_num("n"), Ok(-0.5));
        assert_eq!(ev.need_num("i"), Ok(300.0));
        assert_eq!(ev.need_int::<u32>("i"), Ok(300));
        assert_eq!(ev.need_in("i", 1u32, 300), Ok(300));
        assert_eq!(ev.need_in("n", -1.0, 0.0), Ok(-0.5));
        assert_eq!(ev.optional("s", RawEvent::need_str), Ok(Some("x")));
        assert_eq!(ev.optional("absent", RawEvent::need_str), Ok(None));
        assert_eq!(ev.need_bool("b"), Ok(true));
        for (err, key) in [
            (ev.need_str("absent").map(drop), "absent"),
            (ev.need_str("i").map(drop), "i"),
            (ev.need_num("b").map(drop), "b"),
            (ev.need_bool("i").map(drop), "i"),
            (ev.need_num("inf").map(drop), "inf"),
            (ev.need_num("big").map(drop), "big"),
            (ev.need_int::<i64>("n").map(drop), "n"),
            (ev.need_int::<u8>("i").map(drop), "i"),
            (ev.need_int::<u64>("neg").map(drop), "neg"),
            (ev.need_in("i", 1u32, 299).map(drop), "i"),
            (ev.need_in("inf", 0.0, f64::MAX).map(drop), "inf"),
            (ev.optional("b", RawEvent::need_str).map(drop), "b"),
        ] {
            let why = err.expect_err(key);
            assert!(why.contains(&format!("field {key}")), "{why}");
        }
    }

    #[test]
    fn parser_rejects_noise() {
        assert!(parse_line("").is_none());
        assert!(parse_line("not json").is_none());
        assert!(parse_line("{\"unterminated\":\"").is_none());
    }
}
