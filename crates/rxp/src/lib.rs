//! # yala-rxp — a from-scratch regex engine standing in for the BlueField-2
//! RXP regex accelerator
//!
//! The paper's regex-based NFs (FlowMonitor, NIDS, PacketFilter,
//! IPComp Gateway) submit packet payloads to the on-NIC RXP accelerator,
//! which scans them against a compiled L7-filter ruleset and reports
//! matches. The *number of matches per payload byte* (MTBR,
//! match-to-byte ratio) is the traffic attribute driving accelerator
//! service time (paper §4.1.1 / Eq. 4).
//!
//! This crate reproduces that code path in software:
//!
//! * [`parse`](parser::parse) — a regex parser supporting literals, `.`,
//!   character classes, escapes, alternation, grouping, `* + ?` and bounded
//!   `{n,m}` repetition, leading `^` / trailing `$` anchors, and a global
//!   `(?i)` case-insensitivity flag (the subset L7-filter patterns use).
//! * [`nfa`] — Thompson construction, plus the rule-tagged
//!   [`MergedNfa`](nfa::MergedNfa) union feeding multi-pattern fusion.
//! * [`dfa`] — subset construction over byte classes into a *scanning DFA*
//!   that counts non-overlapping, leftmost-shortest matches in a single
//!   O(len) pass — the same streaming behaviour as a hardware scan engine.
//! * [`fused`] — the fused multi-pattern DFA: the whole ruleset compiled
//!   into one automaton (as real RXP hardware does), emitting per-rule
//!   match counts in a single pass, with transparent per-rule fallback
//!   under the state budget; a batch's payloads step through it four at
//!   a time in lockstep.
//! * [`Regex`] — the compiled form; [`Ruleset`] — a multi-pattern set with
//!   per-rule match counting and an L7-filter-style default set.
//!
//! # Example
//!
//! ```
//! use yala_rxp::Regex;
//! let re = Regex::compile(r"GET /[a-z]+ HTTP/1\.[01]").unwrap();
//! let payload = b"GET /index HTTP/1.1 ... GET /img HTTP/1.0";
//! assert_eq!(re.count_matches(payload), 2);
//! ```

pub mod classes;
pub mod dfa;
pub mod fused;
pub mod nfa;
pub mod parser;
pub mod regex;
pub mod ruleset;

pub use crate::regex::{CompileRegexError, Regex};
pub use classes::ClassSet;
pub use fused::{FusedDfa, FusedScanner};
pub use ruleset::{l7_default_ruleset, BatchScan, Rule, Ruleset, ScanReport};
