//! An exact memo of [`crate::YalaPredictor`] predictions.
//!
//! A fleet asks the same question again and again: a day of catalog
//! traffic keeps pairing the same profiled tenants on the same saturated
//! NICs. A Yala prediction is a pure function of the bank and of what it
//! reads from the residents — per resident the NIC model, the NF kind,
//! the traffic profile, and the solo throughput and counters on that
//! model — so a repeated question can be answered from a table.
//!
//! Each distinct resident description is given a *class id*, a `u32`, by
//! comparing every bit it holds. Ids are handed out in increasing order
//! and never reused, so an id names one description for the life of the
//! predictor: whoever holds a resident (a fleet's NIC rows, a daemon's
//! instances) asks for its id once, when the profile comes into force,
//! and keeps it. A question is then the target's id followed by the
//! contenders' ids in order — at most 32 bytes copied, nothing hashed —
//! and its answer lives in a [`WordMemo`]. Equal keys mean equal inputs
//! bit for bit, so a hit returns exactly what the evaluation would;
//! losing an entry — to newer questions in its set, to a refit of the
//! bank — can change how long an answer takes and nothing else. When the
//! table of descriptions fills up it is emptied (the ids already handed
//! out stay valid; a description seen again gets a new one and its old
//! answers are simply not found).
//!
//! Beside each tabled id the table keeps what an evaluation reads of that
//! resident, worked out the first time an evaluation needs it
//! ([`Described`]), so a question the answers do not hold is priced by
//! its arithmetic: a pair's forest cell is two residents' words laid side
//! by side. A refit of the bank drops these with the answers.

use crate::Placed;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use yala_core::memory_model::{N_COUNTER_FEATURES, N_TRAFFIC_FEATURES};
use yala_core::{Contender, WordMemo};
use yala_nf::NfKind;
use yala_sim::NicModelId;
use yala_traffic::TrafficProfile;

/// The most resident descriptions tabled at once, and the unit the
/// answer tables are sized in ([`ANSWER_TABLES`]).
pub(crate) const DEFAULT_CAP: usize = 1 << 16;

/// Ids in a key: the target and up to seven contenders. A NIC with more
/// residents is evaluated every time.
const KEY_IDS: usize = 8;

/// The answer tables as `(ids per key, answers kept per 16 of cap)`. A
/// question is kept in the narrowest table that fits it, so that the
/// pairs a busy fleet mostly asks about (one resident and the newcomer:
/// 85 % of `fleet-yala-day`'s questions) cost 16 bytes each rather than
/// a full key's 40. At the default cap: 81 920 + 40 960 + 4 096 answers
/// in 1.25 + 0.94 + 0.16 = 2.35 MiB, whatever the fleet size.
const ANSWER_TABLES: [(usize, usize); 3] = [(2, 20), (4, 10), (KEY_IDS, 1)];

/// A question: how many class ids it holds, and the ids, target first,
/// zero-padded.
pub(crate) type Key = (usize, [u32; KEY_IDS]);

/// Everything a Yala prediction reads from one resident on one NIC model,
/// floats as their bits.
#[derive(Clone, Copy, PartialEq, Eq)]
struct ResidentBits {
    model: NicModelId,
    kind: NfKind,
    flow_count: u32,
    packet_size: u32,
    mtbr: u64,
    solo_tput: u64,
    counters: [u64; 7],
}

impl ResidentBits {
    fn of(model: NicModelId, p: &Placed) -> Self {
        let solo = p.solo(model);
        let traffic = &p.arrival.traffic;
        Self {
            model,
            kind: p.arrival.kind,
            flow_count: traffic.flow_count,
            packet_size: traffic.packet_size,
            mtbr: traffic.mtbr.to_bits(),
            solo_tput: solo.solo_tput.to_bits(),
            counters: solo.counters.as_features().map(f64::to_bits),
        }
    }
}

/// Equality is on every field; the hash skips the counters. They are
/// measured together with the solo throughput, so two residents that
/// agree on everything hashed here and differ in a counter all but never
/// occur, and hashing those 56 bytes too cost `fleet-yala-day` a tenth of
/// its events per second (32 k against 36 k).
impl Hash for ResidentBits {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.model.hash(state);
        self.kind.hash(state);
        state.write_u32(self.flow_count);
        state.write_u32(self.packet_size);
        state.write_u64(self.mtbr);
        state.write_u64(self.solo_tput);
    }
}

/// How often the predictor was asked, what answered, and how often it
/// forgot. Deterministic for a given call sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MemoStats {
    /// Predictions requested.
    pub lookups: u64,
    /// Of those, answered from the memo of answers.
    pub hits: u64,
    /// Times the answers (the bank refitted) or the table of resident
    /// descriptions (full) were emptied.
    pub clears: u64,
    /// Of the predictions evaluated, those whose memory model found its
    /// forest cell already answered.
    pub cell_hits: u64,
    /// Evaluations that walked a memory model's forest.
    pub forest_walks: u64,
}

/// What an evaluation reads of one resident on one NIC model.
pub(crate) struct Described {
    /// The bank cell of its NF on the model.
    pub(crate) cell: usize,
    pub(crate) solo_tput: f64,
    pub(crate) traffic: TrafficProfile,
    /// It as a competitor.
    pub(crate) contender: Contender,
    /// Its traffic's words in its own cell's forest.
    pub(crate) traffic_words: [u32; N_TRAFFIC_FEATURES],
    /// Its solo counters' words as a lone competitor in the forest of
    /// each bank cell of the model, in bank order.
    pub(crate) counter_words: Vec<[u32; N_COUNTER_FEATURES]>,
}

pub(crate) struct Memo {
    cap: usize,
    classes: HashMap<ResidentBits, u32>,
    /// The next class id; `u32::MAX` once they are used up.
    next_class: u32,
    /// The description of every tabled id from `first` on, in id order:
    /// `None` until an evaluation needs it, so an id none needs costs a
    /// word.
    described: Vec<Option<Box<Described>>>,
    first: u32,
    /// One table per entry of [`ANSWER_TABLES`].
    answers: [WordMemo; 3],
    pub(crate) stats: MemoStats,
}

impl Memo {
    pub(crate) fn new(cap: usize) -> Self {
        Self {
            cap: cap.max(1),
            classes: HashMap::new(),
            next_class: 1,
            described: Vec::new(),
            first: 1,
            answers: ANSWER_TABLES.map(|(ids, share)| WordMemo::new(ids, cap * share / 16)),
            stats: MemoStats::default(),
        }
    }

    /// Resident descriptions tabled right now.
    pub(crate) fn classes_tabled(&self) -> usize {
        self.classes.len()
    }

    /// The class id of `p` as a resident of a NIC of `model`; 0, which
    /// names nothing, once all ids are used up.
    pub(crate) fn class_of(&mut self, model: NicModelId, p: &Placed) -> u32 {
        let bits = ResidentBits::of(model, p);
        if let Some(&class) = self.classes.get(&bits) {
            return class;
        }
        if self.next_class == u32::MAX {
            return 0;
        }
        if self.classes.len() >= self.cap {
            self.classes.clear();
            self.described.clear();
            self.first = self.next_class;
            self.stats.clears += 1;
        }
        let class = self.next_class;
        self.next_class += 1;
        self.classes.insert(bits, class);
        self.described.push(None);
        class
    }

    /// The slot of `class`'s description, if the class is tabled.
    pub(crate) fn slot(&self, class: u32) -> Option<usize> {
        let slot = class.checked_sub(self.first)? as usize;
        (slot < self.described.len()).then_some(slot)
    }

    /// The description in `slot`, worked out by `describe` if it is not
    /// yet.
    pub(crate) fn describe(&mut self, slot: usize, describe: impl FnOnce() -> Described) {
        self.described[slot].get_or_insert_with(|| Box::new(describe()));
    }

    /// The description in `slot`, once [`Self::describe`] has filled it.
    pub(crate) fn described(&self, slot: usize) -> &Described {
        self.described[slot].as_ref().expect("described before use")
    }

    /// Forgets every answer and description: the bank they were computed
    /// from changed.
    pub(crate) fn clear_answers(&mut self) {
        self.described.iter_mut().for_each(|d| *d = None);
        if self.answers.iter().any(|table| !table.is_empty()) {
            self.answers.iter_mut().for_each(WordMemo::clear);
            self.stats.clears += 1;
        }
    }

    /// Counts one requested prediction and names its question — `target`
    /// among the residents of `classes` — or `None` when the NIC holds
    /// too many residents for a key or one of them has no class.
    pub(crate) fn key(&mut self, target: usize, classes: &[u32]) -> Option<Key> {
        self.stats.lookups += 1;
        if classes.len() > KEY_IDS || classes.contains(&0) {
            return None;
        }
        let mut key = [0; KEY_IDS];
        key[0] = classes[target];
        let others = classes[..target].iter().chain(&classes[target + 1..]);
        for (slot, &class) in key[1..].iter_mut().zip(others) {
            *slot = class;
        }
        Some((classes.len(), key))
    }

    /// The table that keeps questions of `ids` class ids.
    fn table_for(&mut self, ids: usize) -> &mut WordMemo {
        self.answers
            .iter_mut()
            .find(|table| ids <= table.width())
            .expect("the last table holds a full key")
    }

    /// The remembered answer to `key`.
    pub(crate) fn get(&mut self, key: Option<Key>) -> Option<f64> {
        let (ids, words) = key?;
        let table = self.table_for(ids);
        let answer = table.get(&words[..table.width()])?;
        self.stats.hits += 1;
        Some(answer)
    }

    /// Remembers the answer to `key`.
    pub(crate) fn put(&mut self, key: Option<Key>, answer: f64) {
        if let Some((ids, words)) = key {
            let table = self.table_for(ids);
            table.put(&words[..table.width()], answer);
        }
    }
}
