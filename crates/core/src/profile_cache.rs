//! The profile cache: deterministic, concurrency-safe
//! memoization of profile measurements keyed by
//! `(NfKind, traffic key, seed)` — with the NIC model folded into each
//! entry's per-model solo list, this is the
//! `(NicModelId, NfKind, traffic, workload seed)` keying the fleet
//! needs. Profiling (packet replay through the real NF plus a solo
//! measurement per NIC model) costs milliseconds per traffic point; a
//! production fleet has massive reuse across tenants running the same
//! NF kinds under near-identical traffic, so repeated keys should pay
//! the measurement once and hit thereafter.
//!
//! # Determinism
//!
//! Two properties make a cache admissible in a bit-reproducible
//! pipeline:
//!
//! * **Hit/fresh parity** — a hit must return exactly the bytes a fresh
//!   measurement would have produced. That holds iff the measurement is
//!   a pure function of the key, which is why the key carries a `seed`:
//!   callers derive every random stream of the measurement (workload
//!   profiling *and* simulator noise) from it, never from ambient
//!   state. [`profile_seed`] is the canonical key-to-seed fold.
//! * **Thread-count-invariant statistics** — under a parallel engine,
//!   which thread first requests a key is scheduling-dependent, but
//!   *how many distinct keys exist* is not. The cache therefore counts
//!   a miss per created entry slot and a hit for every other lookup:
//!   misses = distinct keys, hits = lookups − misses, both identical
//!   across runs and thread counts. Losers of a publication race block
//!   on the winner's [`OnceLock`] instead of re-measuring, so the entry
//!   bytes are single-sourced too.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use yala_nf::NfKind;
use yala_sim::{CounterSample, NicModelId, WorkloadSpec};
use yala_traffic::{QuantizedTraffic, TrafficProfile};

/// The traffic component of a [`ProfileKey`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TrafficKey {
    /// The exact traffic bits. Exact keys make the cache a pure
    /// pass-through when every measurement is unique (the byte-stable
    /// legacy path) while still deduplicating true repeats — e.g. the
    /// same trace profiled again for another policy sweep.
    Exact {
        /// Flow count.
        flows: u32,
        /// Packet size.
        size: u32,
        /// MTBR as raw bits (profiles with the same MTBR value share
        /// the same bits; no NaN traffic exists).
        mtbr_bits: u64,
    },
    /// A quantized bucket ([`yala_traffic::TrafficQuantizer`]): every
    /// profile in the bucket shares the key, so sub-threshold drift and
    /// near-identical tenants hit.
    Bucketed(QuantizedTraffic),
}

impl TrafficKey {
    /// The exact-bits key of `profile`.
    pub fn exact(profile: &TrafficProfile) -> Self {
        TrafficKey::Exact {
            flows: profile.flow_count,
            size: profile.packet_size,
            mtbr_bits: profile.mtbr.to_bits(),
        }
    }
}

/// A profile-cache key. The measurement behind a key must be a pure
/// function of it: `kind` and the traffic determine *what* is measured,
/// `seed` determines every random stream used while measuring.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ProfileKey {
    /// Which NF.
    pub kind: NfKind,
    /// At what traffic.
    pub traffic: TrafficKey,
    /// The seed of every random stream in the measurement (workload
    /// profiling and simulator noise).
    pub seed: u64,
}

/// One NIC model's solo measurement inside a [`ProfileEntry`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SoloProfile {
    /// Solo throughput on this model (the SLA reference).
    pub solo_tput: f64,
    /// Solo counter vector on this model (contentiousness).
    pub counters: CounterSample,
}

/// A cached measurement: the profiled workload (hardware-independent
/// packet replay) plus one solo baseline per NIC model the NF is
/// feasible on, in portfolio order.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileEntry {
    /// The traffic actually measured (for bucketed keys, the bucket
    /// representative).
    pub traffic: TrafficProfile,
    /// The profiled workload; its name embeds the key seed, and callers
    /// rebrand per instance.
    pub workload: WorkloadSpec,
    /// Per-model solo baselines, in portfolio order.
    pub solos: Vec<(NicModelId, SoloProfile)>,
}

/// A snapshot of a cache's counters. All fields are deterministic in
/// the *set* of lookups performed, independent of thread interleaving
/// (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Total lookups.
    pub lookups: u64,
    /// Lookups that found (or waited for) an existing entry.
    pub hits: u64,
    /// Lookups that created the entry — the measurements actually paid
    /// for.
    pub misses: u64,
    /// Entries resident (== inserts, entries are never evicted).
    pub entries: u64,
}

type Slot = Arc<OnceLock<Arc<ProfileEntry>>>;

/// The cache. Cheap to construct; share one per scope you want
/// accounted together (a record run, a fleet build, a daemon).
#[derive(Debug, Default)]
pub struct ProfileCache {
    map: Mutex<HashMap<ProfileKey, Slot>>,
    lookups: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl ProfileCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Looks `key` up, running `measure` only if this is the first
    /// lookup of the key (concurrent requesters of the same key block
    /// until the winner publishes). The returned entry is shared — a
    /// hit is the same `Arc` (hence bitwise the same bytes) the miss
    /// produced.
    pub fn get_or_measure(
        &self,
        key: &ProfileKey,
        measure: impl FnOnce() -> ProfileEntry,
    ) -> Arc<ProfileEntry> {
        let (slot, created) = {
            let mut map = self.map.lock().expect("profile cache poisoned");
            match map.entry(*key) {
                Entry::Occupied(e) => (e.get().clone(), false),
                Entry::Vacant(v) => (v.insert(Slot::default()).clone(), true),
            }
        };
        self.lookups.fetch_add(1, Ordering::Relaxed);
        if created {
            self.misses.fetch_add(1, Ordering::Relaxed);
        } else {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        slot.get_or_init(|| Arc::new(measure())).clone()
    }

    /// The entry for `key`, if already measured and published.
    pub fn get(&self, key: &ProfileKey) -> Option<Arc<ProfileEntry>> {
        let slot = self
            .map
            .lock()
            .expect("profile cache poisoned")
            .get(key)
            .cloned()?;
        slot.get().cloned()
    }

    /// Entries resident.
    pub fn len(&self) -> usize {
        self.map.lock().expect("profile cache poisoned").len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A consistent snapshot of the counters. (Taken after quiescence —
    /// e.g. after an `Engine::run` barrier — the totals are exact and
    /// thread-count-invariant.)
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            lookups: self.lookups.load(Ordering::Relaxed),
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: self.len() as u64,
        }
    }
}

/// One SplitMix64 scramble step.
fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Folds a base seed and a profile key's identity into the measurement
/// seed — the canonical way to make a measurement a pure function of
/// its cache key. Distinct `(kind, traffic)` pairs get decorrelated
/// streams; the same pair always gets the same stream, which is exactly
/// what lets a cache hit reproduce the fresh measurement bit for bit.
pub fn profile_seed(base: u64, kind: NfKind, traffic: &TrafficKey) -> u64 {
    let mut z = splitmix(base ^ 0xCAC8_E5EE_D15C_0FEE);
    z = splitmix(z ^ kind as u64);
    match traffic {
        TrafficKey::Exact {
            flows,
            size,
            mtbr_bits,
        } => {
            z = splitmix(z ^ 1);
            z = splitmix(z ^ *flows as u64);
            z = splitmix(z ^ *size as u64);
            z = splitmix(z ^ *mtbr_bits);
        }
        TrafficKey::Bucketed(q) => {
            z = splitmix(z ^ 2);
            z = splitmix(z ^ q.flows as u64);
            z = splitmix(z ^ q.size as u64);
            z = splitmix(z ^ q.mtbr as u64);
            z = splitmix(z ^ q.scale as u64);
        }
    }
    z
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use yala_sim::{ExecutionPattern, NicSpec, StageDemand};

    fn entry(tag: f64) -> ProfileEntry {
        ProfileEntry {
            traffic: TrafficProfile::default(),
            workload: WorkloadSpec::new(
                "w",
                2,
                ExecutionPattern::RunToCompletion,
                vec![StageDemand::CpuMem {
                    cycles_per_pkt: 1_000.0,
                    cache_refs_per_pkt: 10.0,
                    write_frac: 0.3,
                    wss_bytes: 1e5,
                }],
            ),
            solos: vec![(
                NicSpec::bluefield2().model(),
                SoloProfile {
                    solo_tput: tag,
                    counters: CounterSample::default(),
                },
            )],
        }
    }

    fn key(seed: u64) -> ProfileKey {
        ProfileKey {
            kind: NfKind::FlowStats,
            traffic: TrafficKey::exact(&TrafficProfile::default()),
            seed,
        }
    }

    #[test]
    fn first_lookup_measures_later_lookups_hit() {
        let cache = ProfileCache::new();
        let calls = AtomicUsize::new(0);
        for _ in 0..5 {
            let e = cache.get_or_measure(&key(1), || {
                calls.fetch_add(1, Ordering::SeqCst);
                entry(42.0)
            });
            assert_eq!(e.solos[0].1.solo_tput, 42.0);
        }
        assert_eq!(calls.load(Ordering::SeqCst), 1, "measured exactly once");
        let s = cache.stats();
        assert_eq!((s.lookups, s.hits, s.misses, s.entries), (5, 4, 1, 1));
        assert!(cache.get(&key(1)).is_some());
        assert!(cache.get(&key(2)).is_none());
    }

    #[test]
    fn distinct_keys_measure_independently() {
        let cache = ProfileCache::new();
        let a = cache.get_or_measure(&key(1), || entry(1.0));
        let b = cache.get_or_measure(&key(2), || entry(2.0));
        assert_ne!(a.solos[0].1.solo_tput, b.solos[0].1.solo_tput);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn hits_return_the_shared_entry() {
        let cache = ProfileCache::new();
        let a = cache.get_or_measure(&key(1), || entry(7.0));
        let b = cache.get_or_measure(&key(1), || unreachable!("must hit"));
        assert!(Arc::ptr_eq(&a, &b), "a hit is the winner's bytes");
    }

    #[test]
    fn concurrent_requesters_of_one_key_measure_once() {
        let cache = ProfileCache::new();
        let calls = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    cache.get_or_measure(&key(9), || {
                        calls.fetch_add(1, Ordering::SeqCst);
                        // Widen the race window: losers must block, not
                        // re-measure.
                        std::thread::sleep(std::time::Duration::from_millis(10));
                        entry(9.0)
                    })
                });
            }
        });
        assert_eq!(calls.load(Ordering::SeqCst), 1);
        let s = cache.stats();
        assert_eq!((s.lookups, s.misses, s.hits), (8, 1, 7));
    }

    #[test]
    fn miss_count_is_thread_count_invariant() {
        // Hammer K keys from N threads in scrambled orders: misses must
        // equal K regardless of interleaving.
        let cache = ProfileCache::new();
        let cache = &cache;
        std::thread::scope(|scope| {
            for t in 0..6u64 {
                scope.spawn(move || {
                    for i in 0..40 {
                        let k = (i * 7 + t * 13) % 10;
                        cache.get_or_measure(&key(k), || entry(k as f64));
                    }
                });
            }
        });
        let s = cache.stats();
        assert_eq!(s.misses, 10);
        assert_eq!(s.entries, 10);
        assert_eq!(s.lookups, 6 * 40);
        assert_eq!(s.hits, s.lookups - s.misses);
    }

    #[test]
    fn exact_and_bucketed_keys_never_collide() {
        let p = TrafficProfile::default();
        let q = yala_traffic::TrafficQuantizer::new(0.10);
        let a = ProfileKey {
            kind: NfKind::Acl,
            traffic: TrafficKey::exact(&p),
            seed: 3,
        };
        let b = ProfileKey {
            kind: NfKind::Acl,
            traffic: TrafficKey::Bucketed(q.key(&p)),
            seed: 3,
        };
        assert_ne!(a, b);
        assert_ne!(
            profile_seed(7, a.kind, &a.traffic),
            profile_seed(7, b.kind, &b.traffic)
        );
    }

    #[test]
    fn profile_seed_is_pure_and_decorrelated() {
        let t = TrafficKey::exact(&TrafficProfile::default());
        assert_eq!(
            profile_seed(5, NfKind::Nat, &t),
            profile_seed(5, NfKind::Nat, &t)
        );
        assert_ne!(
            profile_seed(5, NfKind::Nat, &t),
            profile_seed(6, NfKind::Nat, &t)
        );
        assert_ne!(
            profile_seed(5, NfKind::Nat, &t),
            profile_seed(5, NfKind::Acl, &t)
        );
        let u = TrafficKey::exact(&TrafficProfile::new(20_000, 512, 1.0));
        assert_ne!(
            profile_seed(5, NfKind::Nat, &t),
            profile_seed(5, NfKind::Nat, &u)
        );
    }
}
