//! Multi-pattern rulesets: the software analogue of a compiled RXP ruleset.
//!
//! The paper's regex NFs all use the same L7-filter rule set (\[5\] in the
//! paper). [`l7_default_ruleset`] ships a representative subset of
//! application-protocol signatures in the style of L7-filter, chosen so the
//! traffic generator can plant matches at a controlled MTBR.

use crate::dfa::MAX_DFA_STATES;
use crate::fused::{FusedScanner, RuleNfa, LANES};
use crate::regex::{compile_parts, CompileRegexError, Regex};
use std::sync::Arc;

/// One named rule of a ruleset.
#[derive(Debug, Clone)]
pub struct Rule {
    /// Protocol/attack name, e.g. `"http"`.
    pub name: String,
    /// Compiled pattern.
    pub regex: Regex,
}

/// A compiled multi-pattern ruleset.
///
/// Scanning runs on a *fused* multi-pattern DFA (see [`crate::fused`]):
/// all rules whose fusion fits the state budget share one automaton and
/// one O(len) pass; the rest transparently scan with their standalone
/// per-rule DFAs. [`Ruleset::scan`], [`Ruleset::scan_into`] and
/// [`Ruleset::scan_batch`] behave identically whichever strategy was
/// chosen.
///
/// The compiled form is immutable and internally reference-counted, so
/// cloning a `Ruleset` (every regex NF holds one) is O(1) and shares the
/// fused tables.
///
/// # Example
///
/// ```
/// use yala_rxp::l7_default_ruleset;
/// let rules = l7_default_ruleset();
/// let report = rules.scan(b"GET /index.html HTTP/1.1\r\nHost: a\r\n");
/// assert!(report.total_matches >= 1);
/// ```
#[derive(Debug, Clone)]
pub struct Ruleset {
    inner: Arc<RulesetInner>,
}

#[derive(Debug)]
struct RulesetInner {
    rules: Vec<Rule>,
    fused: FusedScanner,
}

/// Result of scanning one payload against a [`Ruleset`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ScanReport {
    /// Match count per rule, in ruleset order.
    pub per_rule: Vec<usize>,
    /// Sum of all per-rule counts.
    pub total_matches: usize,
    /// Payload length scanned.
    pub bytes_scanned: usize,
}

impl ScanReport {
    /// An empty report sized for `n_rules` rules — the reusable scratch
    /// for [`Ruleset::scan_into`].
    pub fn with_rules(n_rules: usize) -> Self {
        Self {
            per_rule: vec![0; n_rules],
            total_matches: 0,
            bytes_scanned: 0,
        }
    }

    /// Clears the report and resizes it for `n_rules` rules, reusing the
    /// allocation.
    pub fn reset(&mut self, n_rules: usize) {
        self.per_rule.clear();
        self.per_rule.resize(n_rules, 0);
        self.total_matches = 0;
        self.bytes_scanned = 0;
    }

    /// Match-to-byte ratio of this payload in matches per megabyte — the
    /// traffic attribute of §5.1.1 (paper reports matches/MB).
    pub fn mtbr_per_mb(&self) -> f64 {
        if self.bytes_scanned == 0 {
            return 0.0;
        }
        self.total_matches as f64 / self.bytes_scanned as f64 * 1_000_000.0
    }
}

/// Results of scanning a batch of payloads against a [`Ruleset`]: the
/// reusable scratch for [`Ruleset::scan_batch`], allocation-free once it
/// has held a batch of the same size.
#[derive(Debug, Clone, Default)]
pub struct BatchScan {
    n_rules: usize,
    /// Payload `i`'s per-rule counts at `i * n_rules..(i + 1) * n_rules`.
    per_rule: Vec<usize>,
    totals: Vec<usize>,
    /// The per-payload report each result is checked against under debug
    /// assertions.
    check: ScanReport,
}

impl BatchScan {
    /// Payloads scanned.
    pub fn len(&self) -> usize {
        self.totals.len()
    }

    /// Whether no payload was scanned.
    pub fn is_empty(&self) -> bool {
        self.totals.is_empty()
    }

    /// Payload `i`'s match count summed over rules.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    pub fn total_matches(&self, i: usize) -> usize {
        self.totals[i]
    }

    /// Payload `i`'s match count per rule, in ruleset order.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    pub fn per_rule(&self, i: usize) -> &[usize] {
        assert!(i < self.len(), "payload {i} of {}", self.len());
        &self.per_rule[i * self.n_rules..(i + 1) * self.n_rules]
    }
}

impl Ruleset {
    /// Compiles `(name, pattern)` pairs into a ruleset.
    ///
    /// # Errors
    ///
    /// Returns the first pattern's [`CompileRegexError`] with its name.
    pub fn compile<'a, I>(patterns: I) -> Result<Self, (String, CompileRegexError)>
    where
        I: IntoIterator<Item = (&'a str, &'a str)>,
    {
        Self::compile_with_budget(patterns, MAX_DFA_STATES)
    }

    /// Compiles with an explicit fused-automaton state budget (exposed for
    /// tests and tuning; [`Ruleset::compile`] uses
    /// [`MAX_DFA_STATES`], and budgets are
    /// honoured up to [`MAX_FUSED_BUDGET`](crate::fused::MAX_FUSED_BUDGET)).
    /// Rules that cannot fuse within the budget transparently fall back to
    /// per-rule scanning.
    ///
    /// # Errors
    ///
    /// Returns the first pattern's [`CompileRegexError`] with its name.
    pub fn compile_with_budget<'a, I>(
        patterns: I,
        budget: usize,
    ) -> Result<Self, (String, CompileRegexError)>
    where
        I: IntoIterator<Item = (&'a str, &'a str)>,
    {
        let mut rules = Vec::new();
        let mut nfas = Vec::new();
        for (name, pattern) in patterns {
            let parts = compile_parts(pattern).map_err(|e| (name.to_string(), e))?;
            rules.push(Rule {
                name: name.to_string(),
                regex: parts.regex,
            });
            nfas.push(RuleNfa {
                nfa: parts.nfa,
                anchored_start: parts.anchored_start,
                anchored_end: parts.anchored_end,
            });
        }
        let fused = FusedScanner::build_with_budget(&nfas, budget);
        Ok(Self {
            inner: Arc::new(RulesetInner { rules, fused }),
        })
    }

    /// Scans `payload` against every rule, counting matches.
    ///
    /// Allocates a fresh [`ScanReport`]; hot paths should reuse a scratch
    /// report via [`Ruleset::scan_into`].
    pub fn scan(&self, payload: &[u8]) -> ScanReport {
        let mut report = ScanReport::with_rules(self.len());
        self.scan_into(payload, &mut report);
        report
    }

    /// Scans `payload` into a caller-owned report, allocation-free once
    /// the report has capacity. One fused pass per group plus per-rule
    /// passes for any fallback rules.
    pub fn scan_into(&self, payload: &[u8], report: &mut ScanReport) {
        report.reset(self.len());
        for group in self.inner.fused.groups() {
            group.scan_into(payload, &mut report.per_rule);
        }
        for &ri in self.inner.fused.fallback_rules() {
            report.per_rule[ri as usize] =
                self.inner.rules[ri as usize].regex.count_matches(payload);
        }
        report.total_matches = report.per_rule.iter().sum();
        report.bytes_scanned = payload.len();
    }

    /// Scans every payload of `payloads` into `out`, replacing what it
    /// held: payload `i`'s counts are `out.per_rule(i)` and
    /// `out.total_matches(i)`, equal to what [`Ruleset::scan_into`] reports
    /// for it.
    ///
    /// Payloads are taken [`LANES`] at a time and each fused group steps
    /// them in lockstep ([`crate::FusedDfa::scan_lanes`]); fallback rules
    /// scan per payload. Under debug assertions every payload is scanned
    /// again through [`Ruleset::scan_into`] and compared.
    pub fn scan_batch<'p, I>(&self, payloads: I, out: &mut BatchScan)
    where
        I: IntoIterator<Item = &'p [u8]>,
    {
        let n_rules = self.len();
        out.n_rules = n_rules;
        out.per_rule.clear();
        out.totals.clear();
        let mut payloads = payloads.into_iter().fuse();
        let mut lanes: [&[u8]; LANES] = [&[]; LANES];
        loop {
            let mut k = 0;
            for (lane, p) in lanes.iter_mut().zip(&mut payloads) {
                *lane = p;
                k += 1;
            }
            if k == 0 {
                break;
            }
            let lanes = &lanes[..k];
            let first = out.totals.len();
            out.per_rule.resize((first + k) * n_rules, 0);
            let rows = &mut out.per_rule[first * n_rules..];
            for group in self.inner.fused.groups() {
                group.scan_lanes(lanes, rows, n_rules);
            }
            for (i, lane) in lanes.iter().enumerate() {
                let row = &mut rows[i * n_rules..(i + 1) * n_rules];
                for &ri in self.inner.fused.fallback_rules() {
                    row[ri as usize] = self.inner.rules[ri as usize].regex.count_matches(lane);
                }
                let total = row.iter().sum();
                out.totals.push(total);
                if cfg!(debug_assertions) {
                    self.scan_into(lane, &mut out.check);
                    assert_eq!(
                        (&*row, total),
                        (&out.check.per_rule[..], out.check.total_matches),
                        "payload {} of the batch: lane scan diverged from scan_into",
                        first + i
                    );
                }
            }
        }
    }

    /// Reference scan that runs every rule's standalone DFA — one pass per
    /// rule. This is the oracle the fused-parity suite and the
    /// `ruleset_scan` benches compare against; it is *not* the hot path.
    pub fn scan_per_rule(&self, payload: &[u8]) -> ScanReport {
        let per_rule: Vec<usize> = self
            .inner
            .rules
            .iter()
            .map(|r| r.regex.count_matches(payload))
            .collect();
        let total_matches = per_rule.iter().sum();
        ScanReport {
            per_rule,
            total_matches,
            bytes_scanned: payload.len(),
        }
    }

    /// The rules in order.
    pub fn rules(&self) -> &[Rule] {
        &self.inner.rules
    }

    /// Number of rules.
    pub fn len(&self) -> usize {
        self.inner.rules.len()
    }

    /// Whether the ruleset has no rules.
    pub fn is_empty(&self) -> bool {
        self.inner.rules.is_empty()
    }

    /// Total DFA states across per-rule automata — proxy for accelerator
    /// rule memory.
    pub fn total_states(&self) -> usize {
        self.inner.rules.iter().map(|r| r.regex.state_count()).sum()
    }

    /// Number of rules covered by fused automata (the rest scan per-rule).
    pub fn fused_rule_count(&self) -> usize {
        self.inner.fused.fused_rule_count()
    }

    /// Total product states across the fused automata.
    pub fn fused_state_count(&self) -> usize {
        self.inner.fused.state_count()
    }
}

/// Seed strings that trigger exactly one match of the corresponding default
/// rule when embedded in an otherwise non-matching payload. Used by the
/// traffic generator to plant matches at a target MTBR.
pub fn match_seeds() -> Vec<(&'static str, &'static [u8])> {
    vec![
        ("http", b"GET /idx.html HTTP/1.1"),
        ("ssh", b"SSH-2.0-OpenSSH_8.9"),
        ("smtp", b"220 mail ESMTP ready"),
        ("ftp", b"230 Login successful"),
        ("sip", b"INVITE sip:bob@example SIP/2.0"),
        ("bittorrent", b"\x13BitTorrent protocol"),
        ("dns_mdns", b"_services._dns-sd._udp"),
        ("tls_hello", b"\x16\x03\x01\x02\x00\x01"),
        ("sqli", b"' OR 1=1 --"),
        ("xss", b"<script>alert(1)</script>"),
        ("shell", b"/bin/sh -i 2>&1"),
        ("rtsp", b"RTSP/1.0 200 OK"),
    ]
}

/// A representative L7-filter-style ruleset: application-protocol
/// signatures plus a few intrusion patterns.
///
/// Compiled once per process (the fused automaton build is not free) and
/// returned as an O(1) clone sharing the compiled tables.
///
/// # Panics
///
/// Panics only if the built-in patterns fail to compile (covered by tests).
pub fn l7_default_ruleset() -> Ruleset {
    static DEFAULT: std::sync::OnceLock<Ruleset> = std::sync::OnceLock::new();
    DEFAULT.get_or_init(build_l7_default_ruleset).clone()
}

fn build_l7_default_ruleset() -> Ruleset {
    Ruleset::compile(vec![
        // Protocol signatures (L7-filter style).
        (
            "http",
            r"(?i)(get|post|head|put|delete) /[!-~]* http/1\.[01]",
        ),
        ("ssh", r"(?i)ssh-[12]\.[0-9]"),
        ("smtp", r"(?i)220 [!-~]+ e?smtp"),
        ("ftp", r"(?i)2(20|30) [ -~]*(ftp|login)"),
        ("sip", r"(?i)(invite|register) sip:[!-~]+ sip/2\.0"),
        ("bittorrent", r"(?i)\x13bittorrent protocol"),
        ("dns_mdns", r"_[a-z-]+\._(udp|tcp)"),
        ("tls_hello", r"\x16\x03[\x00-\x03].[\x00-\xff]\x01"),
        // Intrusion patterns (NIDS style).
        ("sqli", r"(?i)' or 1=1"),
        ("xss", r"(?i)<script>[ -~]*</script>"),
        ("shell", r"/bin/(sh|bash) -i"),
        ("rtsp", r"(?i)rtsp/1\.0 [0-9]{3}"),
    ])
    .expect("built-in ruleset must compile")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_ruleset_compiles() {
        let rs = l7_default_ruleset();
        assert_eq!(rs.len(), 12);
        assert!(rs.total_states() > 0);
    }

    #[test]
    fn every_seed_triggers_its_rule_exactly_once() {
        let rs = l7_default_ruleset();
        for (name, seed) in match_seeds() {
            let report = rs.scan(seed);
            let idx = rs
                .rules()
                .iter()
                .position(|r| r.name == name)
                .unwrap_or_else(|| panic!("seed references unknown rule {name}"));
            assert_eq!(
                report.per_rule[idx], 1,
                "seed for {name} should match once, got {report:?}"
            );
        }
    }

    #[test]
    fn seeds_do_not_cross_fire_excessively() {
        // A seed may legitimately trip at most its own rule plus one other
        // (e.g. protocol banners overlap), but never many.
        let rs = l7_default_ruleset();
        for (name, seed) in match_seeds() {
            let report = rs.scan(seed);
            assert!(
                report.total_matches <= 2,
                "seed {name} fired {} rules",
                report.total_matches
            );
        }
    }

    #[test]
    fn random_bytes_rarely_match() {
        let rs = l7_default_ruleset();
        // Deterministic pseudo-random filler, printable-range biased like
        // the traffic generator's filler.
        let mut x = 0x12345678u32;
        let payload: Vec<u8> = (0..4096)
            .map(|_| {
                x = x.wrapping_mul(1664525).wrapping_add(1013904223);
                (x >> 24) as u8
            })
            .collect();
        let report = rs.scan(&payload);
        assert_eq!(
            report.total_matches, 0,
            "noise should not match: {report:?}"
        );
    }

    #[test]
    fn mtbr_computation() {
        let report = ScanReport {
            per_rule: vec![2, 1],
            total_matches: 3,
            bytes_scanned: 1500,
        };
        assert!((report.mtbr_per_mb() - 2000.0).abs() < 1e-9);
        let empty = ScanReport {
            per_rule: vec![],
            total_matches: 0,
            bytes_scanned: 0,
        };
        assert_eq!(empty.mtbr_per_mb(), 0.0);
    }

    #[test]
    fn planting_seeds_scales_matches_linearly() {
        let rs = l7_default_ruleset();
        let seed = b"' OR 1=1 --";
        let mut payload = Vec::new();
        for i in 0..5 {
            payload.extend_from_slice(format!("fill{i}ernoise____").as_bytes());
            payload.extend_from_slice(seed);
        }
        let report = rs.scan(&payload);
        let idx = rs.rules().iter().position(|r| r.name == "sqli").unwrap();
        assert_eq!(report.per_rule[idx], 5);
    }

    #[test]
    fn compile_error_carries_rule_name() {
        let err = Ruleset::compile(vec![("bad", "(unclosed")]).unwrap_err();
        assert_eq!(err.0, "bad");
    }
}
