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
#[derive(Clone)]
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

/// Inserts into `table` and `oracle` alike until the oracle has grown
/// once more, and eight inserts past that, comparing the probes of each
/// (`next(i)` keys insert `i`). Then compares both on `lookups` and every
/// key inserted. A table that is a view materializes at its first insert.
fn insert_past_a_growth(
    table: &mut FlowTable<(u64, u32)>,
    oracle: &mut OracleTable<(u64, u32)>,
    mut next: impl FnMut(usize) -> u64,
    lookups: &[u64],
    what: &str,
) {
    let start = oracle.capacity();
    let mut keys = lookups.to_vec();
    let mut past = 0;
    for i in 0.. {
        if oracle.capacity() != start {
            past += 1;
            if past > 8 {
                break;
            }
        }
        let key = next(i);
        let value = value_of(1 << 40 | i, key);
        assert_eq!(
            table.insert(key, value),
            oracle.insert(key, value),
            "{what}: probes of insert {i} after the cut"
        );
        keys.push(key);
    }
    assert_same(table, oracle, &keys, &format!("{what}, grown past the cut"));
}

/// Keys absent from a table holding the ids `start..start + len` at
/// their homes in `capacity` slots, whose homes lie inside that block of
/// slots (at its first, middle and last id), just past its end, and, if
/// the block wraps past the last slot, at the first slot, the last
/// wrapped one and the first free one after it.
fn cyclic_misses(start: u64, len: usize, capacity: usize) -> Vec<u64> {
    let lap = capacity as u64;
    let mut homes: Vec<u64> = [0, len / 2, len.saturating_sub(1), len]
        .into_iter()
        .map(|d| start + d as u64)
        .collect();
    let first = start as usize & (capacity - 1);
    if let Some(wrapped) = (first + len).checked_sub(capacity) {
        homes.extend([0, wrapped.saturating_sub(1), wrapped].map(|at| at as u64));
    }
    // A key one or more whole laps past a home shares it; none of these
    // is a live id, since every id lies within one lap of `start`.
    homes
        .into_iter()
        .flat_map(|home| [home + lap * (start / lap + 3), home | 1 << 40])
        .collect()
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
            // Big first: the first cut replays the whole chain, every cut
            // after that restricts it. Ascending: every cut extends the
            // chain.
            let mut big_first = TableFamily::new();
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
                let mut sample = sample;
                if let Keys::Cyclic { start, .. } = rule {
                    let len = n.min(initial * 14);
                    sample.extend(cyclic_misses(start, len, oracle.capacity()));
                }
                let what = format!("initial {initial}, {rule:?}, cut at {n}");
                for family in [&mut big_first, &mut ascending] {
                    let mut table = cut(family, n);
                    assert_same(&mut table, &mut oracle, &sample, &what);
                    // Ids go on from the live block (a random key would
                    // walk it end to end); flows alternate earlier flows
                    // (overwrites or skips) with new hashes.
                    let next = |i: usize| match rule {
                        Keys::Cyclic { start, period, .. } => {
                            start + (n as u64).min(period) + i as u64
                        }
                        _ if i.is_multiple_of(2) => key((n + i / 2) % total),
                        _ => rng.gen(),
                    };
                    let mut grown = oracle.clone();
                    insert_past_a_growth(&mut table, &mut grown, next, &sample, &what);
                }
            }
            assert!(oracle.capacity() >= initial << 4, "four doublings");
        }
    }
}

/// A cut held alive while its chain is extended past one or more growths
/// still equals the one-array table at its count: the replay writes the
/// layout it shares with the cut into a copy. The extended chain's cuts at
/// the held counts, and at the count it was extended to, equal it too.
#[test]
fn a_cut_held_while_its_chain_extends_keeps_its_table() {
    const INITIAL: usize = 64;
    let mut rng = StdRng::seed_from_u64(5);
    let total = INITIAL * 16;
    let flows = flows_with_repeats(&mut rng, total);
    let key = |pos: usize| flows[pos].hash64();
    let lookups: Vec<u64> = (0..total).map(key).chain([0, u64::MAX, 7]).collect();
    for rule in [Keys::EveryFlow, Keys::NewFlows] {
        let spec = TableSpec {
            capacity: INITIAL,
            entry_bytes: 64.0,
            keys: rule,
        };
        let oracle_at = |n: usize| {
            let mut oracle = OracleTable::with_entry_bytes(INITIAL, 64.0);
            (0..n).for_each(|pos| oracle_step(&mut oracle, rule, pos, key(pos)));
            oracle
        };
        let mut family = TableFamily::new();
        let mut cut = |n: usize| {
            family
                .prefix(&flows[..n])
                .table(spec, |pos, _| value_of(pos, key(pos)))
        };
        // Within the first epoch, on either side of its growth, within a
        // later epoch, and past several growths at once.
        let mut held = Vec::new();
        for n in [0, 30, 47, 50, 52, 130, 140, total] {
            held.push((n, cut(n)));
            for (m, table) in &mut held {
                let what = format!("{rule:?}: cut at {m} held, chain at {n}");
                assert_same(table, &mut oracle_at(*m), &lookups, &what);
                let what = format!("{rule:?}: cut at {m} from the chain at {n}");
                assert_same(&mut cut(*m), &mut oracle_at(*m), &lookups, &what);
            }
        }
        assert!(oracle_at(total).capacity() >= INITIAL << 3, "three growths");
    }
}

/// Nat's port-keyed return table as it really is — ids from 10 000,
/// wrapping after 55 536 — laid out in closed form, against the one-array
/// table after the same inserts: at every count within three of each
/// growth up to 200 k inserts and of the wrap, absent ids whose homes lie
/// in and around the block of live ids included, and again after more
/// inserts past one growth. (Under debug assertions the closed form also
/// checks that every home slot it writes was free.)
#[test]
fn nat_port_tables_equal_the_one_array_table_around_every_growth_and_the_wrap() {
    const START: u64 = 10_000;
    const PERIOD: u64 = 55_536;
    const TOTAL: usize = 200_000;
    let key = |i: usize| START + i as u64 % PERIOD;
    let spec = |count| TableSpec {
        capacity: 1_024,
        entry_bytes: 64.0,
        keys: Keys::Cyclic {
            start: START,
            period: PERIOD,
            count,
        },
    };
    // The growths: the inserts that find the table past 75 % load.
    let mut oracle = OracleTable::with_entry_bytes(1_024, 64.0);
    let mut marks = vec![0, TOTAL, PERIOD as usize];
    for i in 0..TOTAL {
        let slots = oracle.capacity();
        oracle.insert(key(i), value_of(i, key(i)));
        if oracle.capacity() != slots {
            marks.push(i);
        }
    }
    assert!(marks.len() >= 10, "seven growths: {marks:?}");
    let mut counts: Vec<usize> = marks
        .iter()
        .flat_map(|&m| m.saturating_sub(3)..=m + 3)
        .filter(|&n| n <= TOTAL)
        .collect();
    counts.sort_unstable();
    counts.dedup();
    // Every id and the keys on either side of them at the wrap and at
    // the end; elsewhere the ids around the cut, both ends, and every
    // 97th.
    let all: Vec<u64> = (START - 2..START + PERIOD + 2)
        .chain([0, u64::MAX])
        .collect();
    let sample = |n: usize| -> Vec<u64> {
        let around = (n.saturating_sub(4)..n + 4).map(key);
        let ends = all[..4].iter().chain(&all[all.len() - 6..]).copied();
        around
            .chain(ends)
            .chain(all.iter().step_by(97).copied())
            .collect()
    };
    let mut oracle = OracleTable::with_entry_bytes(1_024, 64.0);
    let mut done = 0;
    for n in counts {
        while done < n {
            oracle.insert(key(done), value_of(done, key(done)));
            done += 1;
        }
        let mut table = TableFamily::new()
            .prefix(&[])
            .table(spec(n), |pos, _| value_of(pos, key(pos)));
        let what = format!("{n} ports");
        let mut lookups = if n == TOTAL || n == PERIOD as usize {
            all.clone()
        } else {
            sample(n)
        };
        let live = n.min(PERIOD as usize);
        lookups.extend(cyclic_misses(START, live, oracle.capacity()));
        assert_same(&mut table, &mut oracle, &lookups, &what);
        // New ids after the live block, as a wider allocator would hand out.
        let next = |i: usize| START + (live + i) as u64;
        insert_past_a_growth(&mut table, &mut oracle.clone(), next, &lookups, &what);
    }
}
