//! An exact memo of [`crate::YalaPredictor`] predictions.
//!
//! A fleet asks the same question again and again: a day of catalog
//! traffic keeps pairing the same profiled tenants on the same saturated
//! NICs. A Yala prediction is a pure function of the bank and of what it
//! reads from the residents — per resident the NIC model, the NF kind,
//! the traffic profile, and the solo throughput and counters on that
//! model — so a repeated question can be answered from a table.
//!
//! Each distinct resident description is interned to a `u32` by comparing
//! every bit it holds; a question is then the target's id followed by
//! the contenders' ids in order, 32 bytes. Answers live in a fixed array
//! of slots: a question owns the slot its ids fold to, a new answer
//! overwrites whatever was there, and a lookup is a hit only when the
//! slot holds the same 32 bytes. Equal keys mean equal inputs bit for
//! bit, so a hit returns exactly what the evaluation would; losing an
//! entry — to a newer question in its slot, to a refit of the bank, to
//! the id table filling up — can change how long an answer takes and
//! nothing else.

use crate::Placed;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use yala_nf::NfKind;
use yala_sim::NicModelId;

/// Answer slots, and the most resident descriptions interned at once:
/// 2.5 MiB of answers whatever the fleet size.
pub(crate) const DEFAULT_CAP: usize = 1 << 16;

/// Ids in a key: the target and up to seven contenders. A NIC with more
/// residents is evaluated every time.
const KEY_IDS: usize = 8;

/// A question: interned resident ids (from 1), target first, zero-padded.
type Key = [u32; KEY_IDS];

/// The slot of `key` among `slots`. A fixed multiply-and-rotate fold
/// rather than the standard library's hasher: which questions share a
/// slot decides the hit count, and the hit count is a committed,
/// exactly-gated number (`BENCH_scale.json`), so it must not move with
/// the toolchain. The ids are this module's own, not outside input.
fn slot_of(key: &Key, slots: usize) -> usize {
    let folded = key.iter().fold(0u64, |h, &id| {
        (h.rotate_left(5) ^ u64::from(id)).wrapping_mul(0x9E37_79B9_7F4A_7C15)
    });
    // The high half is the well-mixed one.
    (folded >> 32) as usize % slots
}

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

/// How often the memo was asked, answered, and emptied. Deterministic
/// for a given call sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MemoStats {
    /// Predictions requested.
    pub lookups: u64,
    /// Of those, answered from the memo.
    pub hits: u64,
    /// Times the memo was emptied (the bank refitted, or the id table
    /// full).
    pub clears: u64,
}

pub(crate) struct Memo {
    cap: usize,
    ids: HashMap<ResidentBits, u32>,
    /// `cap` slots once the first answer is stored; an empty slot holds
    /// the all-zero key, which no question has.
    answers: Vec<(Key, f64)>,
    stats: MemoStats,
}

impl Memo {
    pub(crate) fn new(cap: usize) -> Self {
        Self {
            cap: cap.max(1),
            ids: HashMap::new(),
            answers: Vec::new(),
            stats: MemoStats::default(),
        }
    }

    pub(crate) fn stats(&self) -> MemoStats {
        self.stats
    }

    /// Forgets everything: ids and answers go together, since answers are
    /// keyed by ids.
    pub(crate) fn clear(&mut self) {
        if !self.ids.is_empty() {
            self.ids.clear();
            self.answers = Vec::new();
            self.stats.clears += 1;
        }
    }

    /// Counts one requested prediction and names its question, or `None`
    /// when the NIC holds too many residents for a key.
    pub(crate) fn key(
        &mut self,
        model: NicModelId,
        target: usize,
        residents: &[&Placed],
    ) -> Option<Key> {
        self.stats.lookups += 1;
        if residents.len() > KEY_IDS {
            return None;
        }
        // Make room before interning, so no id of this key is dropped
        // while the key is being built.
        if self.ids.len() + residents.len() > self.cap {
            self.clear();
        }
        let mut key = [0; KEY_IDS];
        let order = std::iter::once(target).chain((0..residents.len()).filter(|&i| i != target));
        for (slot, i) in key.iter_mut().zip(order) {
            let next = self.ids.len() as u32 + 1;
            *slot = *self
                .ids
                .entry(ResidentBits::of(model, residents[i]))
                .or_insert(next);
        }
        Some(key)
    }

    /// The remembered answer to `key`, if it still holds its slot.
    pub(crate) fn get(&mut self, key: Option<Key>) -> Option<f64> {
        let key = key?;
        let (held, answer) = *self.answers.get(slot_of(&key, self.cap))?;
        (held == key).then(|| {
            self.stats.hits += 1;
            answer
        })
    }

    /// Remembers the answer to `key`, in place of its slot's last one.
    pub(crate) fn put(&mut self, key: Option<Key>, answer: f64) {
        let Some(key) = key else { return };
        if self.answers.is_empty() {
            self.answers = vec![([0; KEY_IDS], 0.0); self.cap];
        }
        self.answers[slot_of(&key, self.cap)] = (key, answer);
    }
}
