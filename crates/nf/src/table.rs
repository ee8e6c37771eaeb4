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

use std::sync::Mutex;

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
        let recycled = {
            let mut arrays = self.lock();
            let best = (0..arrays.len())
                .filter(|&i| arrays[i].capacity() >= slots)
                .min_by_key(|&i| arrays[i].capacity());
            best.map(|i| arrays.swap_remove(i))
        };
        let mut array = recycled.unwrap_or_else(|| Vec::with_capacity(slots));
        array.clear();
        array.resize(slots, EMPTY_SLOT);
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

    /// Probes for `key` from its home slot: the slot holding it or the
    /// free slot ending its chain, and the slots touched getting there.
    #[inline]
    fn probe(&self, key: u64) -> (usize, usize) {
        let mask = self.slots.len() - 1;
        let mut at = (key as usize) & mask;
        let mut probes = 1usize;
        loop {
            let slot = self.slots[at];
            if slot.index == FREE || slot.key == key {
                return (at, probes);
            }
            at = (at + 1) & mask;
            probes += 1;
            debug_assert!(probes <= self.slots.len(), "table full during probe");
        }
    }

    /// Looks up `key`, returning the value (if present) and the number of
    /// slots probed — each probe is one cache-line touch.
    pub fn get_mut(&mut self, key: u64) -> (Option<&mut V>, usize) {
        let (at, probes) = self.probe(key);
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
        if (self.len() + 1) * 4 > self.slots.len() * 3 {
            self.grow();
        }
        let (at, probes) = self.probe(key);
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
        let bigger = POOL.take(self.slots.len() * 2);
        let old = std::mem::replace(&mut self.slots, bigger);
        let mask = self.slots.len() - 1;
        for slot in old.iter().filter(|s| s.index != FREE) {
            let mut at = (slot.key as usize) & mask;
            while self.slots[at].index != FREE {
                at = (at + 1) & mask;
            }
            self.slots[at] = *slot;
        }
        POOL.give(old);
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
