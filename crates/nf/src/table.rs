//! Open-addressing flow table used by the stateful NFs.
//!
//! The table is a real data structure (linear probing, power-of-two
//! capacity, resize at 75% load) whose probe counts feed the cost model and
//! whose footprint drives the working-set size — this is exactly the
//! mechanism the paper identifies behind flow-count sensitivity: *"traffic
//! attributes usually affect performance by changing the size of key data
//! structures in the NF processing logic"* (§5.2).
//!
//! # Layout
//!
//! The probe array holds 16-byte `(key, dense index)` slots and nothing
//! else; values live in an append-only `Vec<V>` in insertion order. A
//! growth therefore re-places index entries, not payloads, and the probe
//! array is the same type for every `V` — which is what lets emptied
//! probe arrays be recycled through one small process-wide pool (at
//! most `POOL_ARRAYS` of them) instead of being page-faulted in afresh
//! by every measurement. Which slot a key lands in, when the table grows,
//! and the order entries are re-placed in (old-slot order) are those of
//! the textbook one-array table — `tests/table_oracle.rs` holds the two
//! to equal probe counts, step for step.
//!
//! # Warming: cut from a growth chain
//!
//! An NF's warm-up inserts one key per flow of the measurement, and a
//! profiling sweep measures many flow counts of one seed — every flow set
//! a prefix of the seed's one flow stream (see `yala_traffic`'s
//! `PacketGenerator::reset`). Within one capacity epoch linear probing
//! never moves a placed key, and the growth points depend only on the
//! insert count; so the table after `n` inserts is the final layout of
//! `n`'s epoch with the slots of later inserts freed. A [`TableFamily`]
//! keeps, per (key rule, initial capacity), one growth chain: each
//! epoch's final layout as one `u32` dense index per slot, replayed once
//! up to the largest flow count asked for. [`Prefix::table`] cuts a table
//! from it in one sequential pass into a pooled probe array (the key of a
//! slot is recomputed from the flow that inserted it). A family's first
//! measurement keeps nothing and hands its inserts' final array over as
//! the table, so a seed measured once pays only the inserts.
//! `tests/table_oracle.rs` holds cut tables to the one-array table after
//! the same inserts: at every count of a small chain, around every growth
//! of the larger ones.

use std::sync::Mutex;
use yala_traffic::FiveTuple;

/// One probe-array slot. `index == FREE` marks an empty slot; any key,
/// including 0 and `u64::MAX`, is a valid key.
#[derive(Debug, Clone, Copy)]
struct Slot {
    key: u64,
    index: u32,
}

const FREE: u32 = u32::MAX;

const EMPTY_SLOT: Slot = Slot {
    key: 0,
    index: FREE,
};

/// Probe arrays the pool keeps at most. A measurement holds one probe
/// array per table (two for `Nat`) plus the one a growth is filling, and
/// the engine measures on two to four threads: eight covers that, and
/// bounds what an idle process retains to eight arrays of the largest
/// size seen. (Per-thread pools and pooled NF instances were measured at
/// +27 % to +60 % peak RSS; see DESIGN.md, "What a profile measurement
/// costs".)
const POOL_ARRAYS: usize = 8;

/// The process-wide stock of emptied probe arrays.
struct ProbePool {
    arrays: Mutex<Vec<Vec<Slot>>>,
}

static POOL: ProbePool = ProbePool {
    arrays: Mutex::new(Vec::new()),
};

impl ProbePool {
    /// An all-free probe array of exactly `slots` slots: the smallest
    /// pooled allocation that holds them, else a new one. Whatever the
    /// array held before is overwritten here, so pool history cannot
    /// reach a table.
    fn take(&self, slots: usize) -> Vec<Slot> {
        let mut array = self.take_cleared(slots);
        array.resize(slots, EMPTY_SLOT);
        array
    }

    /// An empty array with room for `slots` slots, for a caller that
    /// pushes every slot itself.
    fn take_cleared(&self, slots: usize) -> Vec<Slot> {
        let recycled = {
            let mut arrays = self.lock();
            let best = (0..arrays.len())
                .filter(|&i| arrays[i].capacity() >= slots)
                .min_by_key(|&i| arrays[i].capacity());
            best.map(|i| arrays.swap_remove(i))
        };
        let mut array = recycled.unwrap_or_else(|| Vec::with_capacity(slots));
        array.clear();
        array
    }

    /// Returns a probe array. A full pool keeps its largest arrays: those
    /// are the ones a fresh allocation pays the most page faults for.
    fn give(&self, array: Vec<Slot>) {
        if array.capacity() == 0 {
            return;
        }
        let mut arrays = self.lock();
        if arrays.len() < POOL_ARRAYS {
            arrays.push(array);
            return;
        }
        let smallest = arrays.iter_mut().min_by_key(|a| a.capacity());
        if let Some(smallest) = smallest.filter(|a| a.capacity() < array.capacity()) {
            *smallest = array;
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Vec<Slot>>> {
        // Every update leaves the pool a valid list of arrays, so a
        // panicking holder poisons nothing worth refusing (and `give`
        // runs in `Drop`, which must not panic).
        self.arrays
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

/// An open-addressing hash table keyed by 64-bit flow hashes.
///
/// # Example
///
/// ```
/// use yala_nf::table::FlowTable;
/// let mut t: FlowTable<u32> = FlowTable::new(64);
/// let probes = t.insert(42, 7);
/// assert!(probes >= 1);
/// let (v, _probes) = t.get_mut(42);
/// assert_eq!(v.copied(), Some(7));
/// ```
#[derive(Debug)]
pub struct FlowTable<V> {
    slots: Vec<Slot>,
    /// Values in insertion order; `slots[..].index` points in here.
    values: Vec<V>,
    /// Modelled bytes one entry occupies on the NIC (key + value + metadata).
    entry_bytes: f64,
}

impl<V: Clone> Clone for FlowTable<V> {
    fn clone(&self) -> Self {
        Self {
            slots: self.slots.clone(),
            values: self.values.clone(),
            entry_bytes: self.entry_bytes,
        }
    }
}

impl<V> Drop for FlowTable<V> {
    fn drop(&mut self) {
        POOL.give(std::mem::take(&mut self.slots));
    }
}

impl<V> FlowTable<V> {
    /// Default modelled entry footprint (one cache line).
    pub const DEFAULT_ENTRY_BYTES: f64 = 64.0;

    /// Creates a table with capacity for at least `capacity` entries.
    pub fn new(capacity: usize) -> Self {
        Self::with_entry_bytes(capacity, Self::DEFAULT_ENTRY_BYTES)
    }

    /// Creates a table whose entries model `entry_bytes` of footprint each.
    ///
    /// # Panics
    ///
    /// Panics if `entry_bytes` is not positive.
    pub fn with_entry_bytes(capacity: usize, entry_bytes: f64) -> Self {
        assert!(entry_bytes > 0.0, "entry bytes must be positive");
        Self {
            slots: POOL.take(capacity.max(8).next_power_of_two()),
            values: Vec::new(),
            entry_bytes,
        }
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Current slot capacity.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Modelled working-set footprint: live entries plus the slot array's
    /// occupancy metadata.
    pub fn wss_bytes(&self) -> f64 {
        self.len() as f64 * self.entry_bytes + self.slots.len() as f64 * 8.0
    }

    /// The values, in insertion order.
    pub(crate) fn values(&self) -> &[V] {
        &self.values
    }

    /// Looks up `key`, returning the value (if present) and the number of
    /// slots probed — each probe is one cache-line touch.
    pub fn get_mut(&mut self, key: u64) -> (Option<&mut V>, usize) {
        let (at, probes) = probe(&self.slots, key);
        match self.slots[at].index {
            FREE => (None, probes),
            index => (Some(&mut self.values[index as usize]), probes),
        }
    }

    /// Inserts or overwrites `key`, returning the number of probes.
    /// Resizes (rehash) at 75% load.
    ///
    /// # Panics
    ///
    /// Panics if the table would hold `u32::MAX` entries.
    pub fn insert(&mut self, key: u64, value: V) -> usize {
        if must_grow(self.len(), self.slots.len()) {
            self.grow();
        }
        let (at, probes) = probe(&self.slots, key);
        match self.slots[at].index {
            FREE => {
                assert!(self.len() < FREE as usize, "flow table is full");
                let index = self.len() as u32;
                self.slots[at] = Slot { key, index };
                self.values.push(value);
            }
            index => self.values[index as usize] = value,
        }
        probes
    }

    /// Doubles the probe array, re-placing entries in old-slot order.
    fn grow(&mut self) {
        let old = std::mem::take(&mut self.slots);
        self.slots = doubled(&old);
        POOL.give(old);
    }
}

/// Whether inserting one more entry into a table of `len` entries and
/// `slots` slots first doubles it: past 75 % load. Checked before every
/// insert, an overwrite included.
#[inline]
fn must_grow(len: usize, slots: usize) -> bool {
    (len + 1) * 4 > slots * 3
}

/// Probes for `key` from its home slot: the slot holding it or the free
/// slot ending its chain, and the slots touched getting there.
#[inline]
fn probe(slots: &[Slot], key: u64) -> (usize, usize) {
    let mask = slots.len() - 1;
    let mut at = (key as usize) & mask;
    let mut probes = 1usize;
    loop {
        let slot = slots[at];
        if slot.index == FREE || slot.key == key {
            return (at, probes);
        }
        at = (at + 1) & mask;
        probes += 1;
        debug_assert!(probes <= slots.len(), "table full during probe");
    }
}

/// A pooled probe array twice the size of `old` holding its entries,
/// re-placed in old-slot order (the order decides which key ends up
/// displaced, hence every later probe count).
fn doubled(old: &[Slot]) -> Vec<Slot> {
    let mut slots = POOL.take(old.len() * 2);
    let mask = slots.len() - 1;
    for slot in old.iter().filter(|s| s.index != FREE) {
        let mut at = (slot.key as usize) & mask;
        while slots[at].index != FREE {
            at = (at + 1) & mask;
        }
        slots[at] = *slot;
    }
    slots
}

/// How a warmed table's insert calls are keyed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Keys {
    /// One insert per flow, keyed `flow.hash64()`: a repeated key
    /// overwrites its value (the growth check still runs first).
    EveryFlow,
    /// One insert per flow whose `hash64` is not in the table yet: a
    /// repeat is skipped — no insert, no growth check.
    NewFlows,
    /// `count` inserts, the `i`-th keyed `start + i % period`: a wrapping
    /// sequential allocator's ids. A repeat overwrites.
    Cyclic {
        /// The first key.
        start: u64,
        /// Keys before the allocator wraps back to `start`.
        period: u64,
        /// Inserts made.
        count: usize,
    },
}

impl Keys {
    /// Whether a repeated key skips its insert.
    fn skips_repeats(self) -> bool {
        self == Keys::NewFlows
    }

    /// The same key rule, whatever the insert count: what a growth chain
    /// is shared under.
    fn rule(self) -> Keys {
        match self {
            Keys::Cyclic { start, period, .. } => Keys::Cyclic {
                start,
                period,
                count: 0,
            },
            rule => rule,
        }
    }
}

/// A table to warm: its initial capacity, the modelled bytes of an entry,
/// and how the measurement's flows become insert calls.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TableSpec {
    /// Initial capacity, as passed to [`FlowTable::with_entry_bytes`].
    pub capacity: usize,
    /// Modelled bytes per entry.
    pub entry_bytes: f64,
    /// The insert calls.
    pub keys: Keys,
}

/// One growth chain: the insert calls of one key rule from one initial
/// capacity, replayed once and kept as layouts.
///
/// Inside one capacity epoch linear probing never moves a placed key, and
/// a slot once taken stays taken; the growth points depend only on the
/// insert count. So the table after `n` calls is the final layout of the
/// epoch call `n` falls in, with the slots of later calls' keys freed —
/// and since dense indices are handed out in first-insert order, those
/// are exactly the slots whose index is `len(n)` or more.
#[derive(Debug, Clone)]
struct Chain {
    /// Initial slot count (a power of two).
    capacity: usize,
    /// The key rule ([`Keys::rule`]).
    rule: Keys,
    /// Key positions (flows, or cyclic ids) replayed so far.
    positions: usize,
    /// Positions whose key was already present: an overwrite, or a
    /// skipped insert under [`Keys::NewFlows`].
    repeats: Repeats,
    /// Per epoch: the position whose insert grew the table into it (0 for
    /// the first), and its layout — the dense index in each slot, `FREE`
    /// if empty — as of `positions`.
    epochs: Vec<(usize, Vec<u32>)>,
}

impl Chain {
    fn new(capacity: usize, rule: Keys) -> Self {
        Self {
            capacity,
            rule,
            positions: 0,
            repeats: Repeats::default(),
            epochs: vec![(0, Vec::new())],
        }
    }

    /// Entries after `n` positions.
    fn len_at(&self, n: usize) -> usize {
        n - self.repeats.before(n)
    }

    /// The probe array after `n ≤ positions` positions (`key(pos)` keys
    /// position `pos`), in one sequential pass over the layout of the
    /// epoch `n` falls in.
    fn restrict(&self, n: usize, key: impl Fn(usize) -> u64) -> Vec<Slot> {
        debug_assert!(n <= self.positions);
        let epoch = self.epochs.partition_point(|e| e.0 < n).max(1) - 1;
        let layout = &self.epochs[epoch].1;
        let len = self.len_at(n);
        let mut slots = POOL.take_cleared(layout.len());
        slots.extend(layout.iter().map(|&index| {
            if (index as usize) < len {
                Slot {
                    key: key(self.repeats.new_position(index as usize)),
                    index,
                }
            } else {
                EMPTY_SLOT
            }
        }));
        debug_assert_eq!(
            slots.iter().filter(|s| s.index != FREE).count(),
            len,
            "kept slots are the entries at {n}"
        );
        debug_assert_eq!(slots.len(), self.capacity << epoch, "the chain's capacity");
        slots
    }

    /// Replays positions up to `n` (`key(pos)` keys position `pos`) and
    /// returns the probe array after `n`; `inserted(pos, repeat)` sees
    /// every insert made, `repeat` the dense index an overwrite hits.
    /// With `keep`, every epoch's final layout is recorded (the last one
    /// as of `n`); without, the chain cannot be cut or extended again.
    fn extend(
        &mut self,
        n: usize,
        key: impl Fn(usize) -> u64,
        keep: bool,
        mut inserted: impl FnMut(usize, Option<u32>),
    ) -> Vec<Slot> {
        let mut slots = if self.positions == 0 {
            POOL.take(self.capacity)
        } else {
            self.restrict(self.positions, &key)
        };
        let skip_repeats = self.rule.skips_repeats();
        let mut len = self.len_at(self.positions);
        for pos in self.positions..n {
            let key = key(pos);
            if skip_repeats {
                let (at, _) = probe(&slots, key);
                if slots[at].index != FREE {
                    self.repeats.push(pos, slots[at].index);
                    continue;
                }
            }
            if must_grow(len, slots.len()) {
                if keep {
                    snapshot(&slots, &mut self.epochs.last_mut().expect("an epoch").1);
                    self.epochs.push((pos, Vec::new()));
                }
                let bigger = doubled(&slots);
                POOL.give(std::mem::replace(&mut slots, bigger));
            }
            let (at, _) = probe(&slots, key);
            match slots[at].index {
                FREE => {
                    assert!(len < FREE as usize, "flow table is full");
                    slots[at] = Slot {
                        key,
                        index: len as u32,
                    };
                    len += 1;
                    inserted(pos, None);
                }
                index => {
                    self.repeats.push(pos, index);
                    inserted(pos, Some(index));
                }
            }
        }
        self.positions = n;
        if keep {
            snapshot(&slots, &mut self.epochs.last_mut().expect("an epoch").1);
        }
        slots
    }

    /// The dense value store after `n` positions: `value(pos, dense)` for
    /// every insert, in position order, an overwrite replacing the value
    /// at its key's dense index.
    fn values<V>(&self, n: usize, mut value: impl FnMut(usize, usize) -> V) -> Vec<V> {
        let skip_repeats = self.rule.skips_repeats();
        let mut values = Vec::with_capacity(self.len_at(n));
        let mut pos = 0;
        for run in &self.repeats.runs {
            let start = (run.pos as usize).min(n);
            for pos in pos..start {
                let dense = values.len();
                values.push(value(pos, dense));
            }
            let end = (run.pos as usize + run.len as usize).min(n);
            if !skip_repeats {
                for pos in start..end {
                    let dense = run.dense as usize + (pos - run.pos as usize);
                    values[dense] = value(pos, dense);
                }
            }
            pos = end;
        }
        for pos in pos..n {
            let dense = values.len();
            values.push(value(pos, dense));
        }
        values
    }
}

/// A chain's repeated positions, run-length encoded: a run is `len`
/// consecutive positions from `pos` whose keys hold the consecutive
/// dense indices from `dense`. A repeated flow is a run of one; a
/// wrapped cyclic allocator repeats in one run per lap.
#[derive(Debug, Clone, Default)]
struct Repeats {
    runs: Vec<Run>,
}

#[derive(Debug, Clone, Copy)]
struct Run {
    pos: u32,
    dense: u32,
    len: u32,
    /// Repeats in earlier runs.
    before: u32,
}

impl Repeats {
    /// Records that position `pos` (past every recorded one) repeats the
    /// key of dense index `dense`.
    fn push(&mut self, pos: usize, dense: u32) {
        let pos = pos as u32;
        if let Some(last) = self.runs.last_mut() {
            if last.pos + last.len == pos && last.dense + last.len == dense {
                last.len += 1;
                return;
            }
        }
        let before = self.runs.last().map_or(0, |r| r.before + r.len);
        self.runs.push(Run {
            pos,
            dense,
            len: 1,
            before,
        });
    }

    /// Repeats among positions `0..n`.
    fn before(&self, n: usize) -> usize {
        let i = self.runs.partition_point(|r| (r.pos as usize) < n);
        match i.checked_sub(1).map(|i| self.runs[i]) {
            Some(r) => (r.before + r.len.min(n as u32 - r.pos)) as usize,
            None => 0,
        }
    }

    /// The `dense`-th position that is not a repeat: the one that first
    /// inserted the key of dense index `dense`. A run has `pos - before`
    /// new positions ahead of it; every run with at most `dense` of them
    /// lies wholly before that position.
    #[inline]
    fn new_position(&self, dense: usize) -> usize {
        let i = self
            .runs
            .partition_point(|r| (r.pos - r.before) as usize <= dense);
        match i.checked_sub(1).map(|i| self.runs[i]) {
            Some(r) => dense + (r.before + r.len) as usize,
            None => dense,
        }
    }
}

/// Writes the layout of `slots` (the dense index in each) into `layout`.
fn snapshot(slots: &[Slot], layout: &mut Vec<u32>) {
    layout.clear();
    layout.extend(slots.iter().map(|s| s.index));
}

/// The growth chains of one flow sequence (one seed): what the warmed
/// tables of every measurement cut from that sequence share.
///
/// A family's first measurement keeps nothing: its tables are built by
/// plain inserts and handed over as they are. From the second on, each
/// table asked for is cut from its growth chain, which is replayed —
/// once — as far as the largest flow count asked for.
/// [`Self::clear`] starts the next family (a new seed: new keys).
#[derive(Debug, Clone, Default)]
pub struct TableFamily {
    chains: Vec<Chain>,
    /// Whether a measurement has drawn on the family yet.
    measured: bool,
}

impl TableFamily {
    /// An empty family.
    pub fn new() -> Self {
        Self::default()
    }

    /// Forgets every chain: the next measurement belongs to a new flow
    /// sequence.
    pub fn clear(&mut self) {
        self.chains.clear();
        self.measured = false;
    }

    /// The warm-up of one measurement whose flows are `flows` — a prefix
    /// of this family's flow sequence.
    pub fn prefix<'a>(&'a mut self, flows: &'a [FiveTuple]) -> Prefix<'a> {
        let keep = std::mem::replace(&mut self.measured, true);
        Prefix {
            flows,
            family: self,
            keep,
        }
    }
}

/// What [`crate::NetworkFunction::warm`] is given: the measurement's
/// flows and the tables they warm.
#[derive(Debug)]
pub struct Prefix<'a> {
    flows: &'a [FiveTuple],
    family: &'a mut TableFamily,
    keep: bool,
}

impl<'a> Prefix<'a> {
    /// The measurement's flow set.
    pub fn flows(&self) -> &'a [FiveTuple] {
        self.flows
    }

    /// The table `spec`'s insert calls leave, the value of each insert
    /// being `value(position, dense index)` — the position of its flow
    /// (or its id under [`Keys::Cyclic`]). Equal, probe for probe, to a
    /// [`FlowTable::with_entry_bytes`] given those inserts one by one.
    pub fn table<V>(
        &mut self,
        spec: TableSpec,
        value: impl FnMut(usize, usize) -> V,
    ) -> FlowTable<V> {
        let flows = self.flows;
        match spec.keys {
            Keys::EveryFlow | Keys::NewFlows => {
                self.build(spec, flows.len(), |pos| flows[pos].hash64(), value)
            }
            Keys::Cyclic {
                start,
                period,
                count,
            } => self.build(spec, count, |i| start + i as u64 % period, value),
        }
    }

    /// [`Self::table`] for `n` key positions, position `pos` keyed
    /// `key(pos)`.
    fn build<V>(
        &mut self,
        spec: TableSpec,
        n: usize,
        key: impl Fn(usize) -> u64,
        value: impl FnMut(usize, usize) -> V,
    ) -> FlowTable<V> {
        assert!(spec.entry_bytes > 0.0, "entry bytes must be positive");
        let capacity = spec.capacity.max(8).next_power_of_two();
        let rule = spec.keys.rule();
        let (slots, values) = if self.keep {
            let chains = &mut self.family.chains;
            let at = chains
                .iter()
                .position(|c| c.capacity == capacity && c.rule == rule)
                .unwrap_or_else(|| {
                    chains.push(Chain::new(capacity, rule));
                    chains.len() - 1
                });
            let chain = &mut chains[at];
            let slots = if n <= chain.positions && chain.positions > 0 {
                chain.restrict(n, key)
            } else {
                chain.extend(n, key, true, |_, _| {})
            };
            (slots, chain.values(n, value))
        } else {
            // Nothing kept: the values are written as the inserts go.
            let mut value = value;
            let mut values = Vec::with_capacity(n);
            let chain = &mut Chain::new(capacity, rule);
            let slots = chain.extend(n, key, false, |pos, repeat| match repeat {
                None => {
                    let dense = values.len();
                    values.push(value(pos, dense));
                }
                Some(dense) => values[dense as usize] = value(pos, dense as usize),
            });
            (slots, values)
        };
        FlowTable {
            slots,
            values,
            entry_bytes: spec.entry_bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_roundtrip() {
        let mut t: FlowTable<u64> = FlowTable::new(16);
        for k in 0..100u64 {
            t.insert(k.wrapping_mul(0x9E3779B97F4A7C15), k);
        }
        assert_eq!(t.len(), 100);
        for k in 0..100u64 {
            let (v, _) = t.get_mut(k.wrapping_mul(0x9E3779B97F4A7C15));
            assert_eq!(v.copied(), Some(k));
        }
    }

    #[test]
    fn missing_keys_return_none() {
        let mut t: FlowTable<u8> = FlowTable::new(8);
        t.insert(1, 1);
        let (v, probes) = t.get_mut(2);
        assert!(v.is_none());
        assert!(probes >= 1);
    }

    #[test]
    fn overwrite_does_not_grow_len() {
        let mut t: FlowTable<u8> = FlowTable::new(8);
        t.insert(5, 1);
        t.insert(5, 2);
        assert_eq!(t.len(), 1);
        assert_eq!(t.get_mut(5).0.copied(), Some(2));
    }

    #[test]
    fn wss_grows_with_entries() {
        let mut t: FlowTable<u32> = FlowTable::with_entry_bytes(1024, 64.0);
        let w0 = t.wss_bytes();
        for k in 0..512u64 {
            t.insert(k * 7919, 0);
        }
        assert!(t.wss_bytes() > w0 + 512.0 * 60.0);
    }

    #[test]
    fn probes_increase_with_load() {
        // Average probes on a nearly-full region exceed those on a sparse one.
        let mut sparse: FlowTable<u8> = FlowTable::new(4096);
        let mut dense: FlowTable<u8> = FlowTable::new(8);
        let mut sparse_probes = 0usize;
        let mut dense_probes = 0usize;
        for k in 0..1000u64 {
            let key = k.wrapping_mul(0x9E3779B97F4A7C15);
            sparse_probes += sparse.insert(key, 0);
            dense_probes += dense.insert(key, 0);
        }
        // dense resized along the way but operated at 75% load.
        assert!(dense_probes >= sparse_probes);
    }

    /// Inserts and looks up a fixed key stream, returning every probe
    /// count, the final shape, and every value read back.
    fn trace(initial: usize) -> (Vec<usize>, usize, usize, Vec<Option<u64>>) {
        let mut t: FlowTable<u64> = FlowTable::new(initial);
        let mut probes = Vec::new();
        let key = |k: u64| k.wrapping_mul(0x100_0000_01b3) >> 7;
        for k in 0..5_000u64 {
            probes.push(t.insert(key(k), k));
            probes.push(t.get_mut(key(k / 2 + 9_000)).1);
        }
        let read = (0..10_000).map(|k| t.get_mut(key(k)).0.copied()).collect();
        (probes, t.len(), t.capacity(), read)
    }

    #[test]
    fn poisoned_pool_arrays_never_reach_a_table() {
        let clean = trace(8);
        // Stock the pool to its bound with arrays of odd capacities whose
        // every slot claims to be occupied, then run the same stream.
        let garbage = Slot {
            key: 0xDEAD_BEEF_DEAD_BEEF,
            index: 7,
        };
        for capacity in [9, 1_000, 3_001, 8_193, 70_001, 16, 12_345, 65_537] {
            POOL.give(vec![garbage; capacity]);
        }
        assert_eq!(trace(8), clean);
        assert_eq!(trace(100), trace(128), "same power-of-two start");
        let mut t: FlowTable<u8> = FlowTable::new(8);
        assert_eq!(t.get_mut(0xDEAD_BEEF_DEAD_BEEF), (None, 1));
    }

    #[test]
    fn pool_is_bounded_and_keeps_its_largest_arrays() {
        let pool = ProbePool {
            arrays: Mutex::new(Vec::new()),
        };
        for capacity in 1..=3 * POOL_ARRAYS {
            pool.give(Vec::with_capacity(capacity));
        }
        let mut held: Vec<usize> = pool.lock().iter().map(Vec::capacity).collect();
        held.sort_unstable();
        let want: Vec<usize> = (2 * POOL_ARRAYS + 1..=3 * POOL_ARRAYS).collect();
        assert_eq!(held, want);
        // The smallest array that fits is the one handed out.
        let array = pool.take(2 * POOL_ARRAYS + 2);
        assert_eq!(array.len(), 2 * POOL_ARRAYS + 2);
        assert!(array.iter().all(|s| s.index == FREE));
        assert_eq!(array.capacity(), 2 * POOL_ARRAYS + 2);
        assert_eq!(pool.lock().len(), POOL_ARRAYS - 1);
    }

    #[test]
    fn growth_preserves_contents() {
        let mut t: FlowTable<usize> = FlowTable::new(8);
        for k in 0..10_000u64 {
            t.insert(k.wrapping_mul(0x9E3779B97F4A7C15), k as usize);
        }
        assert_eq!(t.len(), 10_000);
        assert!(t.capacity() >= 10_000);
        let (v, _) = t.get_mut(9_999u64.wrapping_mul(0x9E3779B97F4A7C15));
        assert_eq!(v.copied(), Some(9_999));
    }
}
