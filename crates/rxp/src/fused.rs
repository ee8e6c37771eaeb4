//! Fused multi-pattern scanning: one subset-constructed product DFA over
//! the union of all rule NFAs, emitting *per-rule* match counts in a
//! single O(len) pass.
//!
//! Real RXP hardware compiles the whole ruleset into one automaton; the
//! per-rule [`ScanDfa`](crate::dfa::ScanDfa) path re-scans every payload
//! once per rule. This module restores the hardware shape: the merged NFA
//! keeps rule-tagged accept states, the fused DFA's transitions carry a
//! bitmask of rules that complete on that byte, and each completing rule's
//! NFA states are reset exactly as its standalone machine would reset —
//! so per-rule leftmost-shortest, non-overlapping counting is preserved
//! byte-for-byte (the parity suite asserts this against the per-rule
//! oracle).
//!
//! Per-rule semantics inside the product automaton:
//!
//! * **Unanchored** — the rule's start closure is re-injected after every
//!   byte; when its accept state appears in the stepped subset, the rule's
//!   counter bumps and its non-start states are stripped before the subset
//!   is interned (mirroring the standalone machine's reset-to-start).
//! * **`^…`** — never re-injected; on a match *all* its states are
//!   stripped (a start-anchored scan stops after its single match).
//! * **`…$` / `^…$`** — never counted mid-stream; a per-state EOF mask
//!   records which end-anchored rules accept if the payload ends there.
//!
//! The state budget is [`MAX_DFA_STATES`]; a [`FusedScanner`] groups rules
//! into fused automata of at most [`MAX_FUSED_GROUP`] rules and falls back
//! to per-rule scanning for any rule whose fusion would blow the budget,
//! so [`Ruleset::scan`](crate::Ruleset::scan) behaves identically whatever
//! strategy was chosen.

use crate::dfa::{byte_classes, DfaTooComplexError, StampSet, MAX_DFA_STATES};
use crate::nfa::{MergedNfa, Nfa};
use std::collections::HashMap;

/// Maximum rules fused into one automaton: the per-transition match mask
/// packs into the low half of a `u64` table entry alongside the target.
pub const MAX_FUSED_GROUP: usize = 32;

/// Hard ceiling on any caller-supplied fused state budget: premultiplied
/// targets (`state_id * n_classes`, `n_classes ≤ 257`) must fit the high
/// 32 bits of a packed table entry. `(1 << 22) * 257 < u32::MAX` with
/// room to spare.
pub const MAX_FUSED_BUDGET: usize = 1 << 22;

/// Payloads [`FusedDfa::scan_lanes`] steps in lockstep.
pub const LANES: usize = 4;

/// A fused scanning DFA over up to [`MAX_FUSED_GROUP`] rules.
///
/// The transition table packs, per `(state, byte-class)` entry, the
/// *premultiplied* target state id (high 32 bits) and the bitmask of rules
/// whose match completes on that transition (low 32 bits) — one load per
/// payload byte.
#[derive(Debug, Clone)]
pub struct FusedDfa {
    /// Byte → equivalence-class index over the merged alphabet (an array,
    /// so a byte indexes it unchecked).
    class_of: Box<[u16; 256]>,
    n_classes: usize,
    /// `table[state_id * n_classes + class]` = `target_premultiplied << 32
    /// | match_mask`. Targets are premultiplied by `n_classes` so the scan
    /// loop is a single add + load per byte. Zero-padded to a power-of-two
    /// length (see `FusedDfa::entry`); the padding is never reached.
    table: Vec<u64>,
    /// Premultiplied start state id.
    start: u32,
    /// Per-state (unscaled id) bitmask of end-anchored rules accepting at
    /// end-of-payload.
    eof_mask: Vec<u32>,
    /// Bit index → rule index in the owning ruleset.
    rule_ids: Vec<u16>,
}

impl FusedDfa {
    /// Runs subset construction over the merged NFA.
    ///
    /// `rule_ids[i]` is the ruleset index reported for merged rule `i`.
    /// The caller's `budget` is honoured as given (so tuning above
    /// [`MAX_DFA_STATES`] works), up to the packing-imposed
    /// [`MAX_FUSED_BUDGET`] ceiling.
    ///
    /// # Errors
    ///
    /// Returns [`DfaTooComplexError`] if more than `budget` product states
    /// materialise.
    ///
    /// # Panics
    ///
    /// Panics if the group exceeds [`MAX_FUSED_GROUP`] rules or `rule_ids`
    /// is mis-sized (internal callers never do).
    pub fn build(
        merged: &MergedNfa,
        rule_ids: &[u16],
        budget: usize,
    ) -> Result<Self, DfaTooComplexError> {
        assert!(merged.rules.len() <= MAX_FUSED_GROUP, "group too large");
        assert_eq!(merged.rules.len(), rule_ids.len(), "mis-sized rule ids");
        let budget = budget.min(MAX_FUSED_BUDGET);
        let (class_of, n_classes, class_reps) = byte_classes(&merged.states);

        let mut subset_ids: HashMap<Vec<usize>, u32> = HashMap::new();
        let mut subsets: Vec<Vec<usize>> = Vec::new();
        let mut targets: Vec<u32> = Vec::new();
        let mut masks: Vec<u32> = Vec::new();
        let mut eof_mask: Vec<u32> = Vec::new();
        let mut worklist: Vec<u32> = Vec::new();

        let eof_bits = |subset: &[usize]| -> u32 {
            let mut m = 0u32;
            for (i, r) in merged.rules.iter().enumerate() {
                if r.anchored_end && subset.binary_search(&r.accept).is_ok() {
                    m |= 1 << i;
                }
            }
            m
        };

        let intern = |subset: Vec<usize>,
                      subsets: &mut Vec<Vec<usize>>,
                      targets: &mut Vec<u32>,
                      masks: &mut Vec<u32>,
                      eof_mask: &mut Vec<u32>,
                      worklist: &mut Vec<u32>,
                      subset_ids: &mut HashMap<Vec<usize>, u32>|
         -> Result<u32, DfaTooComplexError> {
            if let Some(&id) = subset_ids.get(&subset) {
                return Ok(id);
            }
            if subsets.len() >= budget {
                return Err(DfaTooComplexError);
            }
            let id = subsets.len() as u32;
            subset_ids.insert(subset.clone(), id);
            eof_mask.push(eof_bits(&subset));
            subsets.push(subset);
            targets.extend(std::iter::repeat_n(0, n_classes));
            masks.extend(std::iter::repeat_n(0, n_classes));
            worklist.push(id);
            Ok(id)
        };

        let start = intern(
            merged.init.clone(),
            &mut subsets,
            &mut targets,
            &mut masks,
            &mut eof_mask,
            &mut worklist,
            &mut subset_ids,
        )?;

        let mut seen = StampSet::new(merged.len());
        let mut stack: Vec<usize> = Vec::new();
        let mut out: Vec<usize> = Vec::new();
        while let Some(id) = worklist.pop() {
            let subset = subsets[id as usize].clone();
            for class in 0..n_classes {
                let rep = class_reps[class];
                // Byte step + epsilon closure (stamp-deduped DFS).
                seen.begin();
                stack.clear();
                out.clear();
                for &s in &subset {
                    for (cls, t) in &merged.states[s].on_byte {
                        if cls.contains(rep) && seen.insert(*t) {
                            stack.push(*t);
                        }
                    }
                }
                while let Some(s) = stack.pop() {
                    out.push(s);
                    for &t in &merged.states[s].eps {
                        if seen.insert(t) {
                            stack.push(t);
                        }
                    }
                }
                // Which rules complete on this byte? (Accept reachability is
                // decided before re-injection; start closures cannot contain
                // accepts because empty-matching patterns are rejected.)
                let mut match_mask = 0u32;
                for (i, r) in merged.rules.iter().enumerate() {
                    if !r.anchored_end && seen.contains(r.accept) {
                        match_mask |= 1 << i;
                    }
                }
                // Re-inject unanchored rules' start closures so their next
                // match may begin at the following byte.
                for &s in &merged.reinject {
                    if seen.insert(s) {
                        out.push(s);
                    }
                }
                // Per-rule reset, mirroring the standalone machines: a
                // matched unanchored rule keeps only its start closure; a
                // matched start-anchored rule is done and loses every state.
                if match_mask != 0 {
                    out.retain(|&s| {
                        let r = merged.rule_of[s] as usize;
                        if match_mask & (1 << r) == 0 {
                            return true;
                        }
                        !merged.rules[r].anchored_start && merged.in_start_closure[s]
                    });
                }
                out.sort_unstable();
                let target = intern(
                    out.clone(),
                    &mut subsets,
                    &mut targets,
                    &mut masks,
                    &mut eof_mask,
                    &mut worklist,
                    &mut subset_ids,
                )?;
                targets[id as usize * n_classes + class] = target;
                masks[id as usize * n_classes + class] = match_mask;
            }
        }

        // Pack premultiplied targets + match masks into one u64 per entry.
        let nc = n_classes as u64;
        let mut table = vec![0u64; targets.len().next_power_of_two()];
        for (entry, (&t, &m)) in table.iter_mut().zip(targets.iter().zip(&masks)) {
            *entry = ((t as u64 * nc) << 32) | m as u64;
        }
        Ok(Self {
            class_of: class_of
                .into_boxed_slice()
                .try_into()
                .expect("one class per byte"),
            n_classes,
            table,
            start: start * n_classes as u32,
            eof_mask,
            rule_ids: rule_ids.to_vec(),
        })
    }

    /// Scans `payload` once, accumulating match counts into `per_rule`
    /// (indexed by ruleset rule id; entries for other groups untouched).
    ///
    /// This is the one-lane remainder of [`FusedDfa::scan_lanes`].
    pub fn scan_into(&self, payload: &[u8], per_rule: &mut [usize]) {
        let end = self.step(self.start as usize, payload, per_rule);
        self.count(self.eof_mask[end / self.n_classes], per_rule);
    }

    /// Scans up to [`LANES`] payloads, accumulating lane `k`'s counts into
    /// `rows[k * n_rules..(k + 1) * n_rules]` (indexed by ruleset rule
    /// id, like [`FusedDfa::scan_into`]'s `per_rule`).
    ///
    /// Four payloads step in lockstep over their common length, so four
    /// independent state chains overlap where one chain would wait on
    /// each table load; the four match masks are tested once per step
    /// and counted only when one is set. Each lane then finishes its own
    /// tail and end-of-payload mask one lane at a time. Fewer than four
    /// payloads scan one lane at a time. The counts equal
    /// [`FusedDfa::scan_into`]'s on each payload.
    ///
    /// # Panics
    ///
    /// Panics if `lanes` holds more than [`LANES`] payloads or `rows` is
    /// shorter than `lanes.len() * n_rules`.
    pub fn scan_lanes(&self, lanes: &[&[u8]], rows: &mut [usize], n_rules: usize) {
        assert!(lanes.len() <= LANES, "at most {LANES} lanes");
        let mut ends = [self.start as usize; LANES];
        let mut stepped = 0;
        if let [p0, p1, p2, p3] = *lanes {
            stepped = p0.len().min(p1.len()).min(p2.len()).min(p3.len());
            let (p0, p1, p2, p3) = (
                &p0[..stepped],
                &p1[..stepped],
                &p2[..stepped],
                &p3[..stepped],
            );
            let [mut c0, mut c1, mut c2, mut c3] = ends;
            for i in 0..stepped {
                let e0 = self.entry(c0, p0[i]);
                let e1 = self.entry(c1, p1[i]);
                let e2 = self.entry(c2, p2[i]);
                let e3 = self.entry(c3, p3[i]);
                c0 = (e0 >> 32) as usize;
                c1 = (e1 >> 32) as usize;
                c2 = (e2 >> 32) as usize;
                c3 = (e3 >> 32) as usize;
                if (e0 | e1 | e2 | e3) as u32 != 0 {
                    self.count_lanes([e0, e1, e2, e3].map(|e| e as u32), rows, n_rules);
                }
            }
            ends = [c0, c1, c2, c3];
        }
        for (k, (lane, end)) in lanes.iter().zip(&mut ends).enumerate() {
            let row = &mut rows[k * n_rules..(k + 1) * n_rules];
            *end = self.step(*end, &lane[stepped..], row);
            self.count(self.eof_mask[*end / self.n_classes], row);
        }
    }

    /// Steps one lane from premultiplied state `cur` over `bytes`,
    /// counting the rules that complete into `per_rule`; returns the
    /// state reached. One chain waits on each load, so the index is
    /// bounds-checked beside the chain rather than masked on it (as
    /// [`FusedDfa::entry`] does for the lanes).
    fn step(&self, mut cur: usize, bytes: &[u8], per_rule: &mut [usize]) -> usize {
        for &b in bytes {
            let e = self.table[cur + self.class_of[b as usize] as usize];
            cur = (e >> 32) as usize;
            self.count(e as u32, per_rule);
        }
        cur
    }

    /// The entry stepping premultiplied state `cur` on `byte`. The table's
    /// length is a power of two, so masking the index (a no-op on every
    /// index the automaton forms) bounds it without a check: four lanes
    /// are bound by instructions issued, not by one chain's latency.
    #[inline(always)]
    fn entry(&self, cur: usize, byte: u8) -> u64 {
        self.table[(cur + self.class_of[byte as usize] as usize) & (self.table.len() - 1)]
    }

    /// Counts lane `k`'s match mask `masks[k]` into its row of `rows`. Out
    /// of line and cold, so the lockstep loop keeps its registers.
    #[cold]
    #[inline(never)]
    fn count_lanes(&self, masks: [u32; LANES], rows: &mut [usize], n_rules: usize) {
        for (mask, row) in masks.into_iter().zip(rows.chunks_mut(n_rules)) {
            self.count(mask, row);
        }
    }

    /// Bumps the counter of each rule whose bit is set in `mask`.
    fn count(&self, mut mask: u32, per_rule: &mut [usize]) {
        while mask != 0 {
            per_rule[self.rule_ids[mask.trailing_zeros() as usize] as usize] += 1;
            mask &= mask - 1;
        }
    }

    /// Number of materialised product states.
    pub fn state_count(&self) -> usize {
        self.eof_mask.len()
    }

    /// Number of byte equivalence classes over the merged alphabet.
    pub fn class_count(&self) -> usize {
        self.n_classes
    }

    /// Number of rules fused into this automaton.
    pub fn rule_count(&self) -> usize {
        self.rule_ids.len()
    }
}

/// One rule's compiled NFA + anchors, input to [`FusedScanner::build`].
#[derive(Debug, Clone)]
pub struct RuleNfa {
    /// Thompson NFA of the rule body.
    pub nfa: Nfa,
    /// Rule pattern began with `^`.
    pub anchored_start: bool,
    /// Rule pattern ended with `$`.
    pub anchored_end: bool,
}

/// The fused scanning strategy for a whole ruleset: fused groups plus a
/// per-rule fallback list for rules whose fusion would blow the budget.
#[derive(Debug, Clone, Default)]
pub struct FusedScanner {
    groups: Vec<FusedDfa>,
    /// Ruleset indices scanned with their standalone per-rule DFAs.
    fallback: Vec<u16>,
}

impl FusedScanner {
    /// Builds the scanner with the default [`MAX_DFA_STATES`] budget.
    pub fn build(rules: &[RuleNfa]) -> Self {
        Self::build_with_budget(rules, MAX_DFA_STATES)
    }

    /// Builds the scanner with an explicit per-automaton state `budget`
    /// (exposed for tests and tuning, honoured up to [`MAX_FUSED_BUDGET`];
    /// rules that cannot fuse within it are transparently moved to the
    /// per-rule fallback list).
    ///
    /// Never fails: in the worst case every rule falls back.
    ///
    /// Compile cost: a chunk that fuses cleanly costs one subset
    /// construction. A chunk that trips the budget pays the greedy repair
    /// — one rebuild per re-added rule, so up to [`MAX_FUSED_GROUP`]
    /// constructions, the later ones near budget size. That is accepted
    /// here because compilation happens once per ruleset (the default set
    /// is additionally cached process-wide) and never on a scan path.
    pub fn build_with_budget(rules: &[RuleNfa], budget: usize) -> Self {
        // Rule ids are u16 throughout the scanner; a larger ruleset would
        // silently wrap `0..rules.len() as u16` below and never scan the
        // truncated rules.
        assert!(
            rules.len() <= u16::MAX as usize,
            "ruleset too large: {} rules exceeds the {} supported per scanner",
            rules.len(),
            u16::MAX
        );
        let mut groups = Vec::new();
        let mut fallback: Vec<u16> = Vec::new();
        let try_group = |ids: &[u16]| -> Result<FusedDfa, DfaTooComplexError> {
            let parts: Vec<(&Nfa, bool, bool)> = ids
                .iter()
                .map(|&i| {
                    let r = &rules[i as usize];
                    (&r.nfa, r.anchored_start, r.anchored_end)
                })
                .collect();
            FusedDfa::build(&MergedNfa::merge(&parts), ids, budget)
        };
        for chunk in (0..rules.len() as u16)
            .collect::<Vec<u16>>()
            .chunks(MAX_FUSED_GROUP)
        {
            match try_group(chunk) {
                Ok(dfa) => groups.push(dfa),
                Err(_) => {
                    // Greedy repair: re-add rules one at a time; any rule
                    // whose addition blows the budget scans per-rule.
                    let mut accepted: Vec<u16> = Vec::new();
                    let mut built: Option<FusedDfa> = None;
                    for &id in chunk {
                        accepted.push(id);
                        match try_group(&accepted) {
                            Ok(dfa) => built = Some(dfa),
                            Err(_) => {
                                accepted.pop();
                                fallback.push(id);
                            }
                        }
                    }
                    if let Some(dfa) = built {
                        groups.push(dfa);
                    }
                }
            }
        }
        Self { groups, fallback }
    }

    /// The fused automata.
    pub fn groups(&self) -> &[FusedDfa] {
        &self.groups
    }

    /// Ruleset indices that scan with their standalone per-rule DFAs.
    pub fn fallback_rules(&self) -> &[u16] {
        &self.fallback
    }

    /// Number of rules covered by fused automata.
    pub fn fused_rule_count(&self) -> usize {
        self.groups.iter().map(FusedDfa::rule_count).sum()
    }

    /// Total product states across fused groups.
    pub fn state_count(&self) -> usize {
        self.groups.iter().map(FusedDfa::state_count).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn rule_nfa(pattern: &str) -> RuleNfa {
        let parsed = parse(pattern).unwrap();
        RuleNfa {
            nfa: Nfa::from_ast(&parsed.ast),
            anchored_start: parsed.anchored_start,
            anchored_end: parsed.anchored_end,
        }
    }

    fn scan(scanner: &FusedScanner, payload: &[u8], n_rules: usize) -> Vec<usize> {
        let mut per_rule = vec![0usize; n_rules];
        for g in scanner.groups() {
            g.scan_into(payload, &mut per_rule);
        }
        per_rule
    }

    #[test]
    fn two_rules_one_pass() {
        let rules = [rule_nfa("cat"), rule_nfa("dog")];
        let s = FusedScanner::build(&rules);
        assert_eq!(s.fused_rule_count(), 2);
        assert!(s.fallback_rules().is_empty());
        assert_eq!(scan(&s, b"cat dog cat", 2), vec![2, 1]);
    }

    #[test]
    fn overlapping_rules_count_independently() {
        // "ab" completes both rules at the same byte; each counts its own.
        let rules = [rule_nfa("ab"), rule_nfa("b")];
        let s = FusedScanner::build(&rules);
        assert_eq!(scan(&s, b"ab", 2), vec![1, 1]);
        // After rule-1 matches on the leading 'b', its reset must not
        // disturb rule-0's in-flight partial.
        assert_eq!(scan(&s, b"bab", 2), vec![1, 2]);
    }

    #[test]
    fn non_overlapping_reset_is_per_rule() {
        let rules = [rule_nfa("aa"), rule_nfa("aaa")];
        let s = FusedScanner::build(&rules);
        // Rule "aa" resets after each match (positions 2, 4); rule "aaa"
        // independently counts its own non-overlapping matches.
        assert_eq!(scan(&s, b"aaaa", 2), vec![2, 1]);
        assert_eq!(scan(&s, b"aaaaaa", 2), vec![3, 2]);
    }

    #[test]
    fn anchors_all_flavours() {
        let rules = [
            rule_nfa("^hdr"),
            rule_nfa("tail$"),
            rule_nfa("^only$"),
            rule_nfa("mid"),
        ];
        let s = FusedScanner::build(&rules);
        assert_eq!(scan(&s, b"hdr mid tail", 4), vec![1, 1, 0, 1]);
        assert_eq!(scan(&s, b"x hdr tail x", 4), vec![0, 0, 0, 0]);
        assert_eq!(scan(&s, b"only", 4), vec![0, 0, 1, 0]);
        assert_eq!(scan(&s, b"", 4), vec![0, 0, 0, 0]);
    }

    #[test]
    fn all_start_anchored_rules_can_die() {
        let rules = [rule_nfa("^aa"), rule_nfa("^bb")];
        let s = FusedScanner::build(&rules);
        assert_eq!(scan(&s, b"zz aa bb", 2), vec![0, 0]);
        assert_eq!(scan(&s, b"aa bb aa", 2), vec![1, 0]);
    }

    #[test]
    fn tiny_budget_falls_back() {
        let rules = [rule_nfa("cat"), rule_nfa("dog")];
        let s = FusedScanner::build_with_budget(&rules, 1);
        assert_eq!(s.fused_rule_count(), 0);
        assert_eq!(s.fallback_rules(), &[0, 1]);
    }

    #[test]
    fn partial_budget_keeps_what_fits() {
        let rules = [rule_nfa("ab"), rule_nfa("[0-9]{2,8}[a-z]{2,8}q")];
        let full = FusedScanner::build(&rules);
        let budget = full.groups()[0].state_count();
        // A budget big enough for the small rule alone but not both.
        let s = FusedScanner::build_with_budget(&rules, budget.saturating_sub(2).max(5));
        assert!(s.fused_rule_count() < 2, "expected a fallback split");
        assert_eq!(
            s.fused_rule_count() + s.fallback_rules().len(),
            2,
            "every rule must be covered by exactly one strategy"
        );
    }
}
