//! Bounded exact memos: a table of answers to questions that are named by
//! a few `u32` words, and on top of it the memo of a boosted ensemble's
//! predictions by grid cell.
//!
//! Neither can change an answer. A [`WordMemo`] hit requires the stored
//! key to equal the asked key word for word; a [`CellMemo`] key is the
//! cell of the ensemble's own threshold grid, on which its prediction is
//! constant bit for bit (see `forest.rs`). Losing an entry — to newer
//! questions in its set, to a `clear` — costs the evaluation again and
//! nothing else.

/// Answers per set, most recently used first: a hit moves to way 0, a
/// new answer enters there, and either pushes the ones before it back one
/// way — the new answer dropping the least recently used of the set.
const WAYS: usize = 4;

/// Words an entry may take: a key and an answer's two halves.
const MAX_STRIDE: usize = 16;

/// A fixed-capacity table from keys of `width` words to `f64` answers.
///
/// The first word of a key must be non-zero: an all-zero key marks an
/// empty way. Which keys share a set is a fixed multiply-and-rotate fold
/// rather than the standard library's hasher, so hit counts — committed,
/// exactly-gated numbers in `BENCH_scale.json` — do not move with the
/// toolchain. Keys are the caller's own ids, not outside input.
#[derive(Debug, Clone)]
pub struct WordMemo {
    width: usize,
    sets: usize,
    /// `sets * WAYS` entries once the first answer is stored, empty until
    /// then. An entry is its key followed by the two halves of its
    /// answer's bits, so a lookup reads one run of memory.
    entries: Vec<u32>,
}

impl WordMemo {
    /// A table for keys of `width` words holding about `cap` answers
    /// (`cap` rounded up to whole sets). Allocates on the first
    /// [`Self::put`].
    pub fn new(width: usize, cap: usize) -> Self {
        assert!(width > 0, "a key needs at least one word");
        assert!(
            width + 2 <= MAX_STRIDE,
            "a key of at most {} words",
            MAX_STRIDE - 2
        );
        Self {
            width,
            sets: cap.div_ceil(WAYS).max(1),
            entries: Vec::new(),
        }
    }

    /// Words per key.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Whether nothing has been stored since construction or the last
    /// [`Self::clear`].
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Forgets every answer and releases the storage.
    pub fn clear(&mut self) {
        self.entries = Vec::new();
    }

    /// Words per entry.
    fn stride(&self) -> usize {
        self.width + 2
    }

    /// The set `key` folds to: where its first entry starts.
    fn set_of(&self, key: &[u32]) -> usize {
        let folded = key.iter().fold(0u64, |h, &w| {
            (h.rotate_left(5) ^ u64::from(w)).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        });
        // The high half is the well-mixed one.
        ((folded >> 32) as usize % self.sets) * WAYS * self.stride()
    }

    /// The answer stored under `key`, if it still holds a way of its set.
    pub fn get(&mut self, key: &[u32]) -> Option<f64> {
        debug_assert_eq!(key.len(), self.width);
        if self.entries.is_empty() {
            return None;
        }
        let (stride, width) = (self.stride(), self.width);
        let set = self.set_of(key);
        let set = &mut self.entries[set..set + WAYS * stride];
        let way = (0..WAYS).find(|&way| {
            let held = &set[way * stride..][..width];
            held.iter().zip(key).all(|(a, b)| a == b)
        })?;
        let answer = f64::from_bits(
            u64::from(set[way * stride + width]) | u64::from(set[way * stride + width + 1]) << 32,
        );
        if way > 0 {
            // The hit moves to way 0, the ways before it back one.
            let mut hit = [0u32; MAX_STRIDE];
            hit[..stride].copy_from_slice(&set[way * stride..][..stride]);
            set.copy_within(..way * stride, stride);
            set[..stride].copy_from_slice(&hit[..stride]);
        }
        Some(answer)
    }

    /// Stores `answer` under `key`, in place of the least recently used
    /// answer of its set.
    pub fn put(&mut self, key: &[u32], answer: f64) {
        debug_assert_eq!(key.len(), self.width);
        debug_assert_ne!(key[0], 0, "an all-zero key marks an empty way");
        let (stride, width) = (self.stride(), self.width);
        if self.entries.is_empty() {
            self.entries = vec![0; self.sets * WAYS * stride];
        }
        let set = self.set_of(key);
        let set = &mut self.entries[set..set + WAYS * stride];
        set.copy_within(..(WAYS - 1) * stride, stride);
        set[..width].copy_from_slice(key);
        let bits = answer.to_bits();
        set[width] = bits as u32;
        set[width + 1] = (bits >> 32) as u32;
    }
}

/// A caller-owned memo of one fitted ensemble's predictions, by grid cell
/// ([`crate::GradientBoostingRegressor::predict_cell`]).
///
/// It belongs to the fit that filled it: whoever re-fits the model must
/// [`Self::clear`] the memo (or start a new one) before asking again —
/// the cells of one forest mean nothing to another. The counts survive a
/// `clear`.
#[derive(Debug, Clone)]
pub struct CellMemo {
    cap: usize,
    /// Sized on first use, when the feature width is known.
    table: Option<WordMemo>,
    hits: u64,
    walks: u64,
}

impl CellMemo {
    /// A memo of about `cap` cells.
    pub fn new(cap: usize) -> Self {
        Self {
            cap,
            table: None,
            hits: 0,
            walks: 0,
        }
    }

    /// Forgets every cell (the model was re-fitted); keeps the counts.
    pub fn clear(&mut self) {
        self.table = None;
    }

    /// Predictions answered from a remembered cell.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Predictions that walked the forest.
    pub fn walks(&self) -> u64 {
        self.walks
    }

    /// The remembered answer of `cell` (first word non-zero), or
    /// `walk()`'s, remembered from now on.
    pub(crate) fn answer(&mut self, cell: &[u32], walk: impl FnOnce() -> f64) -> f64 {
        // Another width is another model's grid.
        if self.table.as_ref().is_some_and(|t| t.width() != cell.len()) {
            self.table = None;
        }
        let cap = self.cap;
        let table = self
            .table
            .get_or_insert_with(|| WordMemo::new(cell.len(), cap));
        if let Some(known) = table.get(cell) {
            self.hits += 1;
            return known;
        }
        let answer = walk();
        self.walks += 1;
        table.put(cell, answer);
        answer
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_set_drops_its_least_recently_used_answer() {
        // One set: every key collides.
        let mut memo = WordMemo::new(2, WAYS);
        assert!(memo.is_empty());
        assert_eq!(memo.get(&[1, 1]), None);
        for i in 1..=WAYS as u32 {
            memo.put(&[i, i], f64::from(i));
        }
        // Using the oldest answer saves it from the next newcomer, which
        // takes the place of the second oldest instead.
        assert_eq!(memo.get(&[1, 1]), Some(1.0));
        memo.put(&[9, 9], 9.0);
        assert_eq!(
            memo.get(&[2, 2]),
            None,
            "the least recently used is dropped"
        );
        assert_eq!(memo.get(&[1, 1]), Some(1.0));
        for i in 3..=WAYS as u32 {
            assert_eq!(memo.get(&[i, i]), Some(f64::from(i)));
        }
        assert_eq!(memo.get(&[9, 9]), Some(9.0));
        // A key differing in any word is a different question.
        assert_eq!(memo.get(&[9, 8]), None);
        // Answers come back bit for bit.
        for answer in [f64::NAN, -0.0, f64::MIN_POSITIVE, 1e300] {
            memo.put(&[7, 7], answer);
            assert_eq!(memo.get(&[7, 7]).map(f64::to_bits), Some(answer.to_bits()));
        }
        memo.clear();
        assert!(memo.is_empty());
        assert_eq!(memo.get(&[9, 9]), None);
    }

    #[test]
    fn answers_survive_while_the_table_has_room() {
        let mut memo = WordMemo::new(3, 4096);
        for i in 1..=1_000u32 {
            memo.put(&[i, i ^ 7, 0], f64::from(i));
        }
        let kept = (1..=1_000u32)
            .filter(|&i| memo.get(&[i, i ^ 7, 0]) == Some(f64::from(i)))
            .count();
        // 1 000 keys over 1 024 sets of four: an ideal fold loses ~5 to
        // sets drawn five times (4 096 one-answer slots would lose ~110).
        assert!(kept >= 980, "{kept} of 1000 kept");
    }

    #[test]
    fn cell_memo_counts_and_survives_a_width_change() {
        let mut memo = CellMemo::new(8);
        let ask = |memo: &mut CellMemo, cell: &[u32], value: f64| memo.answer(cell, || value);
        assert_eq!(ask(&mut memo, &[1, 5], 10.0), 10.0);
        // The walk is not consulted on a hit.
        assert_eq!(ask(&mut memo, &[1, 5], f64::NAN), 10.0);
        assert_eq!((memo.hits(), memo.walks()), (1, 1));
        // Another width is another model's grid: nothing carries over.
        assert_eq!(ask(&mut memo, &[1, 5, 1], 20.0), 20.0);
        assert_eq!(ask(&mut memo, &[1, 5], 30.0), 30.0);
        memo.clear();
        assert_eq!(ask(&mut memo, &[1, 5], 40.0), 40.0);
        assert_eq!((memo.hits(), memo.walks()), (1, 4));
    }
}
