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
//! growth therefore re-places index entries, not payloads. Which slot a
//! key lands in, when the table grows, and the order entries are
//! re-placed in (old-slot order) are those of the textbook one-array
//! table — `tests/table_oracle.rs` holds the two to equal probe counts,
//! step for step.
//!
//! A warmed table owns no probe array: it is a read-only *view* that
//! computes each slot on demand (below). One linear-probe
//! loop reads all three backings through a slot accessor, so probes,
//! `len`, `capacity` and `wss_bytes` do not depend on the backing; the
//! first `insert` into a view materializes it into an owned array.
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
//! keeps the `hash64` of every flow replayed so far and, per flow-keyed
//! rule and initial capacity, one growth chain: each epoch's layout as
//! one `u32` dense index per slot, replayed once up to the largest flow
//! count asked for. The replay works on those layouts directly: the last
//! epoch's layout is the probe array, a slot's key is the kept hash of
//! the flow that first inserted its dense index, and a growth doubles
//! into a fresh layout and leaves the old one as its epoch's final
//! layout. Every warm, a family's first included, is cut from its chain:
//! [`Prefix::table`] returns a view of the layout of `n`'s epoch, where a
//! slot is live iff its dense index is below the table's length, and no
//! warm writes a 16-byte probe array. A view still holding the last
//! layout when its chain is extended keeps it as it was: the replay
//! writes to a copy. `tests/table_oracle.rs` holds cut tables to the
//! one-array table after the same inserts: at every count of a small
//! chain, around every growth of the larger ones, after more inserts
//! into each, and while the chain is extended under them.
//!
//! # Cyclic keys: a closed-form view
//!
//! A [`Keys::Cyclic`] table (`Nat`'s port-keyed return table) needs no
//! chain. Its keys are consecutive integers, `start + i % period`, and a
//! table never holds more keys than slots; so the live keys' home slots
//! (`key & (capacity - 1)`) are distinct in every epoch, every insert
//! lands at its key's home, and a growth re-places each key at its new
//! home — whatever the growth history, each key sits at its home and one
//! probe finds it. The table after `count` inserts is the capacity the
//! growth checks reach at the peak entry count, the live ids as one
//! cyclic block of slots at their homes (no array: a slot is live iff its
//! offset from `start`'s home is below the id count), and each key's
//! value that of its last insert (later laps overwrite). A miss walks to
//! the first free slot after the block, as on the array.
//! `tests/table_oracle.rs` holds it to the one-array table at `Nat`'s
//! real shape, around every growth up to 200 k inserts and around the
//! 55 536-port wrap.
//!
//! Under debug assertions every view is materialized once when it is
//! made, and every lookup it answers is compared with that array.

use std::sync::Arc;
use yala_traffic::FiveTuple;

/// One probe-array slot. `index == FREE` marks an empty slot; any key,
/// including 0 and `u64::MAX`, is a valid key.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Slot {
    key: u64,
    index: u32,
}

const FREE: u32 = u32::MAX;

const EMPTY_SLOT: Slot = Slot {
    key: 0,
    index: FREE,
};

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
#[derive(Debug, Clone)]
pub struct FlowTable<V> {
    slots: Slots,
    /// Values in insertion order; a slot's dense index points in here.
    values: Vec<V>,
    /// Modelled bytes one entry occupies on the NIC (key + value + metadata).
    entry_bytes: f64,
}

/// Where a table's slots come from.
#[derive(Debug, Clone)]
enum Slots {
    /// A probe array of the table's own.
    Owned(Vec<Slot>),
    /// A view of a growth chain's epoch layout.
    Cut(Checked<Cut>),
    /// A closed-form view of [`Keys::Cyclic`] ids at their homes.
    Cyclic(Checked<Block>),
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
            slots: Slots::Owned(vec![EMPTY_SLOT; capacity.max(8).next_power_of_two()]),
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
        match &self.slots {
            Slots::Owned(slots) => slots.len(),
            Slots::Cut(cut) => cut.view.capacity(),
            Slots::Cyclic(block) => block.view.capacity(),
        }
    }

    /// Modelled working-set footprint: live entries plus the slot array's
    /// occupancy metadata.
    pub fn wss_bytes(&self) -> f64 {
        self.len() as f64 * self.entry_bytes + self.capacity() as f64 * 8.0
    }

    /// The values, in insertion order.
    pub(crate) fn values(&self) -> &[V] {
        &self.values
    }

    /// Looks up `key`, returning the value (if present) and the number of
    /// slots probed — each probe is one cache-line touch.
    pub fn get_mut(&mut self, key: u64) -> (Option<&mut V>, usize) {
        let (_, probes, index) = match &self.slots {
            Slots::Owned(slots) => probe(slots.as_slice(), key),
            Slots::Cut(cut) => cut.probe(key),
            Slots::Cyclic(block) => block.probe(key),
        };
        match index {
            FREE => (None, probes),
            index => (Some(&mut self.values[index as usize]), probes),
        }
    }

    /// Inserts or overwrites `key`, returning the number of probes.
    /// Resizes (rehash) at 75% load. A view is materialized first.
    ///
    /// # Panics
    ///
    /// Panics if the table would hold `u32::MAX` entries.
    pub fn insert(&mut self, key: u64, value: V) -> usize {
        let len = self.len();
        let slots = self.owned();
        if must_grow(len, slots.len()) {
            *slots = doubled(slots.as_slice(), EMPTY_SLOT, |slot| slot);
        }
        let (at, probes, index) = probe(slots.as_slice(), key);
        match index {
            FREE => {
                assert!(len < FREE as usize, "flow table is full");
                slots[at] = Slot {
                    key,
                    index: len as u32,
                };
                self.values.push(value);
            }
            index => self.values[index as usize] = value,
        }
        probes
    }

    /// The table's own probe array, materializing a view into one.
    fn owned(&mut self) -> &mut Vec<Slot> {
        let array = match &self.slots {
            Slots::Owned(_) => None,
            Slots::Cut(cut) => Some(cut.view.materialize()),
            Slots::Cyclic(block) => Some(block.view.materialize()),
        };
        if let Some(array) = array {
            self.slots = Slots::Owned(array);
        }
        match &mut self.slots {
            Slots::Owned(slots) => slots,
            _ => unreachable!("materialized above"),
        }
    }
}

/// Whether inserting one more entry into a table of `len` entries and
/// `slots` slots first doubles it: past 75 % load. Checked before every
/// insert, an overwrite included.
#[inline]
fn must_grow(len: usize, slots: usize) -> bool {
    (len + 1) * 4 > slots * 3
}

/// Read access to a probe array's slots, however they are kept.
trait SlotRead {
    /// Slot count (a power of two).
    fn capacity(&self) -> usize;
    /// The slot at `at < capacity`.
    fn slot(&self, at: usize) -> Slot;
}

impl SlotRead for [Slot] {
    #[inline]
    fn capacity(&self) -> usize {
        self.len()
    }

    #[inline]
    fn slot(&self, at: usize) -> Slot {
        self[at]
    }
}

/// Probes for `key` from its home slot: the slot holding it or the free
/// slot ending its chain, the slots touched getting there, and the dense
/// index found (`FREE` for a miss).
#[inline]
fn probe(slots: &(impl SlotRead + ?Sized), key: u64) -> (usize, usize, u32) {
    let mask = slots.capacity() - 1;
    let mut at = (key as usize) & mask;
    let mut probes = 1usize;
    loop {
        let slot = slots.slot(at);
        if slot.index == FREE || slot.key == key {
            return (at, probes, slot.index);
        }
        at = (at + 1) & mask;
        probes += 1;
        debug_assert!(probes <= mask + 1, "table full during probe");
    }
}

/// `old`'s entries in twice its slots, each written as `entry(slot)`
/// and re-placed in old-slot order (the order decides which key ends up
/// displaced, hence every later probe count); `free` marks an empty slot.
fn doubled<T: Copy + PartialEq>(
    old: &(impl SlotRead + ?Sized),
    free: T,
    entry: impl Fn(Slot) -> T,
) -> Vec<T> {
    let mut slots = vec![free; old.capacity() * 2];
    let mask = slots.len() - 1;
    for slot in (0..old.capacity()).map(|at| old.slot(at)) {
        if slot.index == FREE {
            continue;
        }
        let mut at = (slot.key as usize) & mask;
        while slots[at] != free {
            at = (at + 1) & mask;
        }
        slots[at] = entry(slot);
    }
    slots
}

/// A table's slots computed on demand instead of stored.
trait View: SlotRead {
    /// The probe array the view stands for.
    fn materialize(&self) -> Vec<Slot>;
}

/// A view and, under debug assertions, the array it stands for,
/// materialized once when the view is made: every lookup the view
/// answers is compared with it.
#[derive(Debug, Clone)]
struct Checked<L> {
    view: L,
    #[cfg(debug_assertions)]
    array: Vec<Slot>,
}

impl<L: View> Checked<L> {
    fn new(view: L) -> Self {
        Self {
            #[cfg(debug_assertions)]
            array: view.materialize(),
            view,
        }
    }

    #[inline]
    fn probe(&self, key: u64) -> (usize, usize, u32) {
        let found = probe(&self.view, key);
        #[cfg(debug_assertions)]
        assert_eq!(
            found,
            probe(self.array.as_slice(), key),
            "a view's lookup of {key:#x} differs from its array's"
        );
        found
    }
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
    /// sequential allocator's ids. A repeat overwrites. Laid out in closed
    /// form, not replayed (see the module docs).
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
    /// The key rule: [`Keys::EveryFlow`] or [`Keys::NewFlows`].
    rule: Keys,
    /// Flows replayed so far.
    positions: usize,
    /// Positions whose key was already present: an overwrite, or a
    /// skipped insert under [`Keys::NewFlows`]. Shared with the cuts.
    repeats: Arc<Repeats>,
    /// Per epoch: the position whose insert grew the table into it (0 for
    /// the first), and its layout — the dense index in each slot, `FREE`
    /// if empty — as of `positions`. The last one is the replay's probe
    /// array. Shared with the cuts.
    epochs: Vec<(usize, Arc<Vec<u32>>)>,
}

impl Chain {
    fn new(capacity: usize, rule: Keys) -> Self {
        Self {
            capacity,
            rule,
            positions: 0,
            repeats: Arc::default(),
            epochs: vec![(0, Arc::new(vec![FREE; capacity]))],
        }
    }

    /// Entries after `n` positions.
    fn len_at(&self, n: usize) -> usize {
        n - self.repeats.before(n)
    }

    /// The table after `n ≤ positions` positions, as a view of the
    /// layout of the epoch `n` falls in; `keys[pos]` keys position `pos`.
    fn cut(&self, n: usize, keys: &Arc<Vec<u64>>) -> Cut {
        debug_assert!(n <= self.positions && self.positions <= keys.len());
        let epoch = self.epochs.partition_point(|e| e.0 < n).max(1) - 1;
        let layout = Arc::clone(&self.epochs[epoch].1);
        debug_assert_eq!(layout.len(), self.capacity << epoch, "the chain's capacity");
        Cut {
            layout,
            keys: Arc::clone(keys),
            repeats: Arc::clone(&self.repeats),
            len: self.len_at(n),
        }
    }

    /// Replays positions up to `n` on the last epoch's layout, `keys[pos]`
    /// keying position `pos`. A growth doubles into a fresh layout and
    /// leaves the old one as its epoch's final layout. A cut holding the
    /// last layout keeps it unchanged: `Arc::make_mut` copies it first.
    fn extend(&mut self, n: usize, keys: &[u64]) {
        let skip_repeats = self.rule.skips_repeats();
        let mut len = self.len_at(self.positions);
        let repeats = Arc::make_mut(&mut self.repeats);
        let last = &mut self.epochs.last_mut().expect("an epoch").1;
        let mut layout = std::mem::take(Arc::make_mut(last));
        for pos in self.positions..n {
            let key = keys[pos];
            // Under `NewFlows` the repeat check's probe is the insert's,
            // unless a growth moves the slots in between.
            let mut found = None;
            if skip_repeats {
                let (at, probes, index) = probe(&Layout::new(&layout, keys, repeats, len), key);
                if index != FREE {
                    repeats.push(pos, index);
                    continue;
                }
                found = Some((at, probes, index));
            }
            if must_grow(len, layout.len()) {
                let old = Layout::new(&layout, keys, repeats, len);
                let bigger = doubled(&old, FREE, |slot| slot.index);
                let full = std::mem::replace(&mut layout, bigger);
                self.epochs.last_mut().expect("an epoch").1 = Arc::new(full);
                self.epochs.push((pos, Arc::default()));
                found = None;
            }
            let (at, _, index) =
                found.unwrap_or_else(|| probe(&Layout::new(&layout, keys, repeats, len), key));
            match index {
                FREE => {
                    assert!(len < FREE as usize, "flow table is full");
                    layout[at] = len as u32;
                    len += 1;
                }
                index => repeats.push(pos, index),
            }
        }
        self.positions = n;
        self.epochs.last_mut().expect("an epoch").1 = Arc::new(layout);
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

/// A layout read as a probe array: slot `at` holds dense index
/// `layout[at]` if that is below `len` and is free otherwise, and a live
/// slot's key is that of the position that first inserted it.
struct Layout<'a> {
    layout: &'a [u32],
    keys: &'a [u64],
    repeats: &'a Repeats,
    len: usize,
}

impl<'a> Layout<'a> {
    #[inline]
    fn new(layout: &'a [u32], keys: &'a [u64], repeats: &'a Repeats, len: usize) -> Self {
        Self {
            layout,
            keys,
            repeats,
            len,
        }
    }
}

impl SlotRead for Layout<'_> {
    #[inline]
    fn capacity(&self) -> usize {
        self.layout.len()
    }

    #[inline]
    fn slot(&self, at: usize) -> Slot {
        let index = self.layout[at];
        if (index as usize) < self.len {
            Slot {
                key: self.keys[self.repeats.new_position(index as usize)],
                index,
            }
        } else {
            EMPTY_SLOT
        }
    }
}

/// A table cut from a growth chain, read in place as a [`Layout`].
#[derive(Debug, Clone)]
struct Cut {
    /// The layout of the cut's epoch, as of the chain's last replay.
    layout: Arc<Vec<u32>>,
    /// The family's key of every replayed position.
    keys: Arc<Vec<u64>>,
    /// The chain's repeated positions.
    repeats: Arc<Repeats>,
    /// Entries at the cut.
    len: usize,
}

impl Cut {
    #[inline]
    fn slots(&self) -> Layout<'_> {
        Layout::new(&self.layout, &self.keys, &self.repeats, self.len)
    }
}

impl SlotRead for Cut {
    #[inline]
    fn capacity(&self) -> usize {
        self.layout.len()
    }

    #[inline]
    fn slot(&self, at: usize) -> Slot {
        self.slots().slot(at)
    }
}

impl View for Cut {
    /// The cut's probe array, in one sequential pass over the layout.
    fn materialize(&self) -> Vec<Slot> {
        let slots: Vec<Slot> = (0..self.capacity()).map(|at| self.slot(at)).collect();
        debug_assert_eq!(
            slots.iter().filter(|s| s.index != FREE).count(),
            self.len,
            "kept slots are the entries at the cut"
        );
        slots
    }
}

/// A chain's repeated positions, run-length encoded: a run is `len`
/// consecutive positions from `pos` whose keys hold the consecutive
/// dense indices from `dense` (a flow sequence that repeats a run of
/// earlier flows in order).
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

/// The growth chains of one flow sequence (one seed): what the warmed
/// tables of every measurement cut from that sequence share.
///
/// Each flow-keyed table asked for is cut from its growth chain, which
/// is replayed — once — as far as the largest flow count asked for, and
/// the `hash64` of every flow replayed is kept for the chains and cuts to
/// read. A [`Keys::Cyclic`] table has no chain: it is a closed-form view
/// every time. [`Self::clear`] starts the next family (a new seed: new
/// keys).
#[derive(Debug, Clone, Default)]
pub struct TableFamily {
    chains: Vec<Chain>,
    /// `hash64` of each flow position replayed by any chain.
    keys: Arc<Vec<u64>>,
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
        self.keys = Arc::default();
    }

    /// The warm-up of one measurement whose flows are `flows` — a prefix
    /// of this family's flow sequence.
    pub fn prefix<'a>(&'a mut self, flows: &'a [FiveTuple]) -> Prefix<'a> {
        Prefix {
            flows,
            family: self,
        }
    }
}

/// What [`crate::NetworkFunction::warm`] is given: the measurement's
/// flows and the tables they warm.
#[derive(Debug)]
pub struct Prefix<'a> {
    flows: &'a [FiveTuple],
    family: &'a mut TableFamily,
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
        assert!(spec.entry_bytes > 0.0, "entry bytes must be positive");
        match spec.keys {
            Keys::EveryFlow | Keys::NewFlows => self.cut(spec, value),
            Keys::Cyclic {
                start,
                period,
                count,
            } => cyclic(spec, start, period, count, value),
        }
    }

    /// [`Self::table`] for a flow-keyed rule, cut from its chain after
    /// replaying it as far as this measurement's flows.
    fn cut<V>(&mut self, spec: TableSpec, value: impl FnMut(usize, usize) -> V) -> FlowTable<V> {
        let n = self.flows.len();
        let capacity = spec.capacity.max(8).next_power_of_two();
        let TableFamily { chains, keys } = &mut *self.family;
        let at = chains
            .iter()
            .position(|c| c.capacity == capacity && c.rule == spec.keys)
            .unwrap_or_else(|| {
                chains.push(Chain::new(capacity, spec.keys));
                chains.len() - 1
            });
        let chain = &mut chains[at];
        if n > chain.positions {
            if keys.len() < n {
                let keys = Arc::make_mut(keys);
                keys.extend(self.flows[keys.len()..].iter().map(FiveTuple::hash64));
            }
            chain.extend(n, keys);
        }
        FlowTable {
            slots: Slots::Cut(Checked::new(chain.cut(n, keys))),
            values: chain.values(n, value),
            entry_bytes: spec.entry_bytes,
        }
    }
}

/// The table [`Keys::Cyclic`]'s `count` inserts leave, in closed form
/// (see the module docs): the capacity the growth checks reach, each live
/// id at its home slot as a [`Block`] view, and each id's value that of
/// its last insert.
///
/// # Panics
///
/// Panics if `period` is zero.
fn cyclic<V>(
    spec: TableSpec,
    start: u64,
    period: u64,
    count: usize,
    mut value: impl FnMut(usize, usize) -> V,
) -> FlowTable<V> {
    assert!(period > 0, "a cyclic allocator has at least one id");
    let period = usize::try_from(period).unwrap_or(usize::MAX);
    let len = count.min(period);
    assert!(len < FREE as usize, "flow table is full");
    // The growth check runs before every insert, an overwrite included,
    // and the entry count never falls: the last insert's check sees the
    // peak, and each check doubles at most once.
    let mut capacity = spec.capacity.max(8).next_power_of_two();
    if let Some(last) = count.checked_sub(1) {
        while must_grow(last.min(period), capacity) {
            capacity *= 2;
        }
    }
    let block = Block {
        start,
        len,
        mask: capacity - 1,
    };
    // Id `dense` was last inserted whole laps after its first insert.
    let last = |dense: usize| dense + (count - 1 - dense) / period * period;
    let values = (0..len).map(|dense| value(last(dense), dense)).collect();
    FlowTable {
        slots: Slots::Cyclic(Checked::new(block)),
        values,
        entry_bytes: spec.entry_bytes,
    }
}

/// The ids `start + dense` for `dense < len`, each at its home slot: one
/// cyclic block of slots from `start`'s home, the rest free.
#[derive(Debug, Clone)]
struct Block {
    start: u64,
    len: usize,
    /// Slot count minus one.
    mask: usize,
}

impl SlotRead for Block {
    #[inline]
    fn capacity(&self) -> usize {
        self.mask + 1
    }

    #[inline]
    fn slot(&self, at: usize) -> Slot {
        // The id whose home `at` is, if it is live.
        let dense = at.wrapping_sub(self.start as usize) & self.mask;
        if dense < self.len {
            Slot {
                key: self.start + dense as u64,
                index: dense as u32,
            }
        } else {
            EMPTY_SLOT
        }
    }
}

impl View for Block {
    /// The block's probe array, written one home slot per id.
    fn materialize(&self) -> Vec<Slot> {
        let mut slots = vec![EMPTY_SLOT; self.capacity()];
        for dense in 0..self.len {
            let key = self.start + dense as u64;
            let home = &mut slots[key as usize & self.mask];
            debug_assert_eq!(home.index, FREE, "id {key}'s home slot is taken");
            *home = Slot {
                key,
                index: dense as u32,
            };
        }
        slots
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
