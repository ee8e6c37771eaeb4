//! `FlowTable` against its reference model: the one-array
//! `Vec<Option<(u64, V)>>` table the NFs used before the probe index and
//! the dense value store were split. Probe counts feed the cost model
//! and `capacity` feeds the working-set size, so the two must agree on
//! every observable at every step, not just on contents at the end.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use yala_nf::table::FlowTable;

/// The reference model (linear probing, power-of-two capacity, growth
/// at 75 % load re-placing entries in old-slot order).
struct OracleTable<V> {
    slots: Vec<Option<(u64, V)>>,
    len: usize,
    entry_bytes: f64,
}

impl<V> OracleTable<V> {
    fn with_entry_bytes(capacity: usize, entry_bytes: f64) -> Self {
        let cap = capacity.max(8).next_power_of_two();
        let mut slots = Vec::with_capacity(cap);
        slots.resize_with(cap, || None);
        Self {
            slots,
            len: 0,
            entry_bytes,
        }
    }

    fn capacity(&self) -> usize {
        self.slots.len()
    }

    fn wss_bytes(&self) -> f64 {
        self.len as f64 * self.entry_bytes + self.slots.len() as f64 * 8.0
    }

    fn get_mut(&mut self, key: u64) -> (Option<&mut V>, usize) {
        let mask = self.slots.len() - 1;
        let mut idx = (key as usize) & mask;
        let mut probes = 1usize;
        loop {
            match &self.slots[idx] {
                Some((k, _)) if *k == key => {
                    let slot = self.slots[idx].as_mut().expect("checked above");
                    return (Some(&mut slot.1), probes);
                }
                Some(_) => {
                    idx = (idx + 1) & mask;
                    probes += 1;
                }
                None => return (None, probes),
            }
        }
    }

    fn insert(&mut self, key: u64, value: V) -> usize {
        if (self.len + 1) * 4 > self.slots.len() * 3 {
            self.grow();
        }
        let mask = self.slots.len() - 1;
        let mut idx = (key as usize) & mask;
        let mut probes = 1usize;
        loop {
            match &mut self.slots[idx] {
                Some((k, v)) if *k == key => {
                    *v = value;
                    return probes;
                }
                Some(_) => {
                    idx = (idx + 1) & mask;
                    probes += 1;
                }
                slot @ None => {
                    *slot = Some((key, value));
                    self.len += 1;
                    return probes;
                }
            }
        }
    }

    fn grow(&mut self) {
        let new_cap = self.slots.len() * 2;
        let mut new_slots: Vec<Option<(u64, V)>> = Vec::with_capacity(new_cap);
        new_slots.resize_with(new_cap, || None);
        let old = std::mem::replace(&mut self.slots, new_slots);
        let mask = self.slots.len() - 1;
        for (k, v) in old.into_iter().flatten() {
            let mut idx = (k as usize) & mask;
            while self.slots[idx].is_some() {
                idx = (idx + 1) & mask;
            }
            self.slots[idx] = Some((k, v));
        }
    }
}

/// Key families that stress linear probing: all keys sharing their low
/// bits (one home slot until the table outgrows the shared bits), the
/// two extreme keys, dense sequential keys as `Nat`'s port-keyed return
/// table sees, and well-mixed hashes.
fn key_from(rng: &mut StdRng, family: u32, step: u64) -> u64 {
    match family {
        0 => rng.gen_range(0u64..1 << 16) << 20 | 0x5,
        1 => [0, u64::MAX, 1, u64::MAX - 1, 1 << 63][rng.gen_range(0..5)],
        2 => 10_000 + step % 3_000,
        3 => rng.gen_range(0u64..4_096),
        _ => rng.gen::<u64>(),
    }
}

#[test]
fn index_and_dense_store_equal_the_one_array_table_step_for_step() {
    for (case, initial) in [8usize, 9, 64, 100, 256, 1_024].into_iter().enumerate() {
        for seed in 0..3u64 {
            let mut rng = StdRng::seed_from_u64(seed * 31 + case as u64);
            let entry_bytes = [48.0, 64.0, 96.0, 128.0][rng.gen_range(0..4)];
            let mut table: FlowTable<(u64, u32)> =
                FlowTable::with_entry_bytes(initial, entry_bytes);
            let mut oracle: OracleTable<(u64, u32)> =
                OracleTable::with_entry_bytes(initial, entry_bytes);
            assert_eq!(table.capacity(), oracle.capacity());
            let start = oracle.capacity();
            let mut keys: Vec<u64> = Vec::new();
            // Enough distinct keys for at least four doublings.
            let steps = start * 16 * 2;
            for step in 0..steps as u64 {
                let family = if step % 97 < 60 { 4 } else { (step % 5) as u32 };
                let key = if !keys.is_empty() && rng.gen_bool(0.25) {
                    keys[rng.gen_range(0..keys.len())]
                } else {
                    key_from(&mut rng, family, step)
                };
                if rng.gen_bool(0.7) {
                    let value = (step, rng.gen::<u32>());
                    let grew_at = oracle.capacity();
                    assert_eq!(
                        table.insert(key, value),
                        oracle.insert(key, value),
                        "insert probes, initial {initial} seed {seed} step {step}"
                    );
                    keys.push(key);
                    if oracle.capacity() != grew_at {
                        // Every entry survived the growth, at equal cost.
                        for &k in &keys {
                            let (got, want) = (table.get_mut(k), oracle.get_mut(k));
                            assert_eq!(got.1, want.1, "probes after growth");
                            assert_eq!(got.0, want.0, "value after growth");
                        }
                    }
                } else {
                    let (got, got_probes) = table.get_mut(key);
                    let (want, want_probes) = oracle.get_mut(key);
                    assert_eq!(got_probes, want_probes, "get_mut probes at step {step}");
                    assert_eq!(got.as_deref(), want.as_deref(), "get_mut value");
                    // Writes through the returned reference land in both.
                    if let (Some(g), Some(w)) = (got, want) {
                        g.1 = g.1.wrapping_add(1);
                        w.1 = w.1.wrapping_add(1);
                    }
                }
                assert_eq!(table.len(), oracle.len, "len at step {step}");
                assert_eq!(table.capacity(), oracle.capacity(), "capacity");
                assert_eq!(table.wss_bytes().to_bits(), oracle.wss_bytes().to_bits());
                assert_eq!(table.is_empty(), oracle.len == 0);
            }
            assert!(
                oracle.capacity() >= start << 4,
                "initial {initial}: only grew {start} -> {}",
                oracle.capacity()
            );
            for &k in &keys {
                assert_eq!(table.get_mut(k).0, oracle.get_mut(k).0);
            }
        }
    }
}

#[test]
fn a_clone_is_independent_and_equal() {
    let mut a: FlowTable<u64> = FlowTable::new(8);
    for k in 0..500u64 {
        a.insert(k.wrapping_mul(0x9E37_79B9_7F4A_7C15), k);
    }
    let mut b = a.clone();
    b.insert(7, 7);
    assert_eq!((a.len(), b.len()), (500, 501));
    assert!(a.get_mut(7).0.is_none());
    for k in 0..500u64 {
        let key = k.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        assert_eq!(a.get_mut(key), b.get_mut(key));
    }
}
