//! `FlowTable` against its reference model: the one-array
//! `Vec<Option<(u64, V)>>` table the NFs used before the probe index and
//! the dense value store were split. Probe counts feed the cost model
//! and `capacity` feeds the working-set size, so the two must agree on
//! every observable at every step, not just on contents at the end.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use yala_nf::table::{FlowTable, Keys, TableFamily, TableSpec};
use yala_traffic::FiveTuple;

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

/// The value an insert writes: its position and its key, so an overwrite
/// is visible in the value read back.
fn value_of(pos: usize, key: u64) -> (u64, u32) {
    (pos as u64, key as u32)
}

/// How a chain's key rule replays through the oracle, one insert call
/// at a time.
fn oracle_step(oracle: &mut OracleTable<(u64, u32)>, keys: Keys, pos: usize, key: u64) {
    if keys == Keys::NewFlows && oracle.get_mut(key).0.is_some() {
        return;
    }
    oracle.insert(key, value_of(pos, key));
}

/// `table` and `oracle` agree on every observable: len, capacity,
/// `wss_bytes` bits, and for every key given the probes and value of a
/// lookup (present or not).
fn assert_same(
    table: &mut FlowTable<(u64, u32)>,
    oracle: &mut OracleTable<(u64, u32)>,
    keys: &[u64],
    what: &str,
) {
    assert_eq!(table.len(), oracle.len, "{what}: len");
    assert_eq!(table.capacity(), oracle.capacity(), "{what}: capacity");
    assert_eq!(
        table.wss_bytes().to_bits(),
        oracle.wss_bytes().to_bits(),
        "{what}: wss"
    );
    for &k in keys {
        let (got, got_probes) = table.get_mut(k);
        let (want, want_probes) = oracle.get_mut(k);
        assert_eq!(got_probes, want_probes, "{what}: probes of {k:#x}");
        assert_eq!(got.as_deref(), want.as_deref(), "{what}: value of {k:#x}");
    }
}

/// A flow sequence in which about one flow in eight repeats an earlier
/// one, so its `hash64` repeats.
fn flows_with_repeats(rng: &mut StdRng, count: usize) -> Vec<FiveTuple> {
    let mut flows: Vec<FiveTuple> = Vec::with_capacity(count);
    for _ in 0..count {
        if !flows.is_empty() && rng.gen_bool(0.125) {
            flows.push(flows[rng.gen_range(0..flows.len())]);
        } else {
            let ports = rng.gen::<u32>();
            flows.push(FiveTuple::new(
                rng.gen(),
                rng.gen(),
                ports as u16,
                (ports >> 16) as u16,
                6,
            ));
        }
    }
    flows
}

/// The counts to cut a chain of `total` positions at: every one for
/// small chains; for large ones, every count within three of a growth
/// (where the capacity changes) and about a hundred more, evenly spread.
fn cut_points(total: usize, initial: usize) -> Vec<usize> {
    if total <= 2_000 {
        return (0..=total).collect();
    }
    let stride = total / 100;
    let mut slots = initial;
    let mut growths = Vec::new();
    for n in 0..total {
        if (n + 1) * 4 > slots * 3 {
            growths.push(n);
            slots *= 2;
        }
    }
    (0..=total)
        .filter(|&n| n % stride == 0 || n == total || growths.iter().any(|&g| n.abs_diff(g) <= 3))
        .collect()
}

#[test]
fn tables_cut_from_a_growth_chain_equal_the_one_array_table_at_every_count() {
    for (case, initial) in [8usize, 256, 1_024, 4_096].into_iter().enumerate() {
        let mut rng = StdRng::seed_from_u64(77 + case as u64);
        // Enough positions for four doublings (past 12 initial tables'
        // worth of entries) with one in eight repeated.
        let total = initial * 16 + 5;
        let flows = flows_with_repeats(&mut rng, total);
        // Sequential ids wrapping after 14 initial tables' worth: the
        // shape of `Nat`'s port-keyed return table, repeats overwriting.
        let cyclic = |count| Keys::Cyclic {
            start: 10_000,
            period: (initial * 14) as u64,
            count,
        };
        for rule in [Keys::EveryFlow, Keys::NewFlows, cyclic(0)] {
            let key = |pos: usize| match rule {
                Keys::Cyclic { start, period, .. } => start + pos as u64 % period,
                _ => flows[pos].hash64(),
            };
            let spec = |n| TableSpec {
                capacity: initial,
                entry_bytes: 96.0,
                keys: match rule {
                    Keys::Cyclic { .. } => cyclic(n),
                    other => other,
                },
            };
            let cut = |family: &mut TableFamily, n: usize| {
                family
                    .prefix(&flows[..n])
                    .table(spec(n), |pos, _| value_of(pos, key(pos)))
            };
            // Big first: the family's first measurement keeps nothing,
            // the second replays the whole chain, every cut after that
            // restricts it. Ascending: every cut extends the chain.
            let mut big_first = TableFamily::new();
            cut(&mut big_first, total);
            cut(&mut big_first, total);
            let mut ascending = TableFamily::new();
            cut(&mut ascending, 0);
            let lookups: Vec<u64> = (0..total).map(key).chain([0, u64::MAX, 7]).collect();
            let full_every = (total / 20).max(13);
            let mut oracle = OracleTable::with_entry_bytes(initial, 96.0);
            let mut done = 0;
            for n in cut_points(total, initial) {
                while done < n {
                    oracle_step(&mut oracle, rule, done, key(done));
                    done += 1;
                }
                // Every key's lookup now and then (the whole layout, free
                // slots included); otherwise the keys around the cut.
                let sample: Vec<u64> = if n % full_every == 0 || n == total {
                    lookups.clone()
                } else {
                    let around = lookups.iter().skip(n.saturating_sub(4)).take(8);
                    around.chain(&lookups[total..]).copied().collect()
                };
                let what = format!("initial {initial}, {rule:?}, cut at {n}");
                for family in [&mut big_first, &mut ascending] {
                    assert_same(&mut cut(family, n), &mut oracle, &sample, &what);
                }
            }
            assert!(oracle.capacity() >= initial << 4, "four doublings");
        }
    }
}
