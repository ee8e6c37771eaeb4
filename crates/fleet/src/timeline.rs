//! Pre-computed profiling timelines: every `(NF, epoch)` profile snapshot
//! the event loop will ever need, built once per scenario and shared by
//! all policy runs.
//!
//! Profiling — packet replay through the real NF plus a solo measurement
//! — is the fleet's dominant cost (milliseconds per traffic point, vs.
//! tens of microseconds for a ground-truth co-run). It is also a pure
//! function of `(kind, traffic, seed)`: placement never affects it. So
//! the drift trajectory of each NF is discretized to audit epochs here,
//! re-profiling only when traffic has moved beyond the config threshold,
//! and the policies replay the same snapshots — any difference between
//! two policies' reports is then attributable to their decisions alone.
//!
//! Every measurement routes through a [`ProfileCache`] in one of two
//! [`CacheMode`]s:
//!
//! * **Exact**: keys carry the exact traffic attributes and the
//!   per-instance workload seed, so within one trace every measurement
//!   is a distinct key and the build is a pure pass-through —
//!   bit-identical to the pre-cache profiler. Rebuilding the same trace
//!   against a shared cache hits on every key and returns the same bytes
//!   without touching a simulator.
//! * **Quantized** ([`ProfiledTrace::build_cached`]): traffic is
//!   quantized to drift-threshold-sized buckets and the key's seed is
//!   derived from the key itself, so near-identical tenants — and the
//!   same tenant drifting under the re-profile threshold — share one
//!   measurement. A drift trigger delta-re-keys only the attributes
//!   that moved, so a one-attribute drift lands on a neighboring key
//!   that is often already measured.

use crate::trace::{FleetTrace, MS_PER_S};
use yala_core::engine::Engine;
use yala_core::profile_cache::{profile_seed, ProfileCache, ProfileKey, TrafficKey};
use yala_placement::{measure_entry, placed_from_entry, sims_for, sims_for_key, Arrival, Placed};
use yala_telemetry::{stable_hash64, Event, MetricsRegistry, Telemetry};
use yala_traffic::{QuantizedTraffic, TrafficProfile, TrafficQuantizer};

/// One measurement consumed during an observed build, for the journal:
/// `(logical time, trigger, stable key hash)`.
type ProfileTap = Vec<(u64, &'static str, u64)>;

/// Stable 64-bit identity of a profile-cache key, for journal lines.
fn key_hash(key: &ProfileKey) -> u64 {
    stable_hash64(format!("{key:?}").as_bytes())
}

/// Salt separating the timeline's seed stream from the audit stream.
const TIMELINE_SALT: u64 = 0xF1EE_7717;

/// One NF's profile snapshots over its lifetime, ascending in time. The
/// first entry is the arrival profile; later entries are re-profiles at
/// audit epochs where drift crossed the threshold.
#[derive(Debug, Clone)]
pub struct NfTimeline {
    /// `(time_ms, profile)` pairs, ascending and starting at arrival.
    pub snapshots: Vec<(u64, Placed)>,
}

impl NfTimeline {
    /// The snapshot in force at `t_ms` (the last one taken at or before
    /// `t_ms`).
    ///
    /// # Panics
    ///
    /// Panics if `t_ms` precedes the arrival snapshot.
    pub fn at(&self, t_ms: u64) -> &Placed {
        self.snapshots
            .iter()
            .rev()
            .find(|(ts, _)| *ts <= t_ms)
            .map(|(_, p)| p)
            .expect("queried before arrival")
    }

    /// Index of the snapshot in force at `t_ms`, for cursor-style replay.
    pub fn index_at(&self, t_ms: u64) -> usize {
        self.snapshots
            .iter()
            .rposition(|(ts, _)| *ts <= t_ms)
            .expect("queried before arrival")
    }
}

/// Profiling-cost accounting for one [`ProfiledTrace`] build: how the
/// cache behaved (lookups/hits/misses/inserts) and how drift triggers
/// split between delta re-keys (some traffic attributes kept their
/// bucket) and full re-profiles (every attribute moved, or exact mode
/// where no bucket sharing applies). All counts are deterministic in
/// `(trace, cache-state-before)` — independent of engine thread count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ProfileStats {
    /// Cache lookups issued by this build.
    pub lookups: u64,
    /// Lookups served from an already-measured entry.
    pub hits: u64,
    /// Lookups that had to run the measurement.
    pub misses: u64,
    /// New entries inserted by this build (== `misses` against a cache
    /// that never evicts).
    pub inserts: u64,
    /// Drift triggers where only a strict subset of traffic attributes
    /// moved past threshold — the re-key reuses the unmoved buckets.
    pub delta_reprofiles: u64,
    /// Drift triggers that re-keyed every attribute (and, in exact mode,
    /// every re-profile: exact keys share nothing).
    pub full_reprofiles: u64,
}

impl ProfileStats {
    /// Total re-profiles (drift triggers that produced a snapshot).
    pub fn reprofiles(&self) -> u64 {
        self.delta_reprofiles + self.full_reprofiles
    }

    /// Renders the stats as a flat JSON object, for bench records.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"lookups\": {}, \"hits\": {}, \"misses\": {}, \"inserts\": {}, \"delta_reprofiles\": {}, \"full_reprofiles\": {}}}",
            self.lookups, self.hits, self.misses, self.inserts, self.delta_reprofiles, self.full_reprofiles
        )
    }
}

/// A scenario trace plus its profile timelines: everything a policy run
/// needs, fully deterministic in `(config, engine-thread-count)` — the
/// per-NF builds are dispatched across the engine but seeded per scenario
/// index (exact mode) or per cache key (quantized mode), so any thread
/// count yields bit-identical timelines.
#[derive(Debug, Clone)]
pub struct ProfiledTrace {
    /// The generating trace.
    pub trace: FleetTrace,
    /// One timeline per trace record, same order.
    pub timelines: Vec<NfTimeline>,
    /// Profiling-cost accounting for the build that produced this value.
    pub stats: ProfileStats,
}

/// How [`ProfiledTrace::build`] keys its measurements (see the module
/// docs), and the cache the keys resolve against (`None`: a fresh one).
#[derive(Debug, Clone, Copy)]
pub enum CacheMode<'a> {
    /// `(kind, exact traffic, per-instance workload seed)` keys, measured
    /// on the NF's own per-NIC-model simulators ([`sims_for`]; the first
    /// portfolio model's seed stream is the old homogeneous one). The
    /// per-instance seed keeps unrelated traces sharing a cache from
    /// colliding.
    Exact(Option<&'a ProfileCache>),
    /// [`TrafficQuantizer`] bucket keys, measured at the bucket's
    /// representative profile on fresh simulators seeded from the key
    /// ([`profile_seed`], [`sims_for_key`]) — a pure function of the key,
    /// so any two lookups of it, from any tenant, epoch, build, or
    /// thread, return bitwise-identical measurements and one cache may
    /// serve any number of builds. Drift is
    /// compared per attribute against the last *measured* profile and
    /// only attributes past the threshold re-bucket
    /// ([`TrafficQuantizer::delta_rekey`]); snapshots carry the
    /// representative traffic, so SLA floors track what was measured.
    Quantized(Option<&'a ProfileCache>),
}

impl Default for CacheMode<'_> {
    fn default() -> Self {
        Self::Exact(None)
    }
}

/// Options of [`ProfiledTrace::build`]. The default is an unobserved
/// exact-mode build against a fresh cache.
#[derive(Debug, Default)]
pub struct BuildOpts<'a> {
    /// Key derivation and the cache behind it.
    pub cache: CacheMode<'a>,
    /// Observability sink: every measurement is journaled as an
    /// [`Event::Profile`] (stable key hash, deterministic hit/miss
    /// attribution; triggers `arrival`/`drift` exact, `arrival`/`delta`/
    /// `full` quantized), per-scenario metric shards are merged in
    /// scenario order, and the build's [`ProfileStats`] are mirrored onto
    /// `profile.*` counters. `None` — or a disabled handle — observes
    /// nothing and changes no byte of the result.
    pub telemetry: Option<&'a mut Telemetry>,
}

impl<'a> BuildOpts<'a> {
    /// Quantized keys resolved against `cache` (`None`: a fresh one).
    pub fn quantized(cache: Option<&'a ProfileCache>) -> Self {
        Self {
            cache: CacheMode::Quantized(cache),
            telemetry: None,
        }
    }

    /// The same build, observed by `tel`.
    pub fn observed(self, tel: &'a mut Telemetry) -> Self {
        Self {
            telemetry: Some(tel),
            ..self
        }
    }
}

/// What the walk's last measurement was keyed on.
#[derive(Clone, Copy)]
enum Keying {
    Exact,
    Bucket(QuantizedTraffic),
}

impl ProfiledTrace {
    /// Profiles the whole trace: one independent scenario per NF (its
    /// arrival profile plus a re-profile at every audit epoch where
    /// drift crossed the threshold), dispatched across `engine`'s
    /// workers. Every snapshot carries a solo baseline per portfolio
    /// model that admits the NF's kind ([`yala_nf::NfKind::profiled_on`]).
    pub fn build(trace: FleetTrace, engine: &Engine, opts: BuildOpts<'_>) -> Self {
        let (quantized, shared) = match opts.cache {
            CacheMode::Exact(cache) => (false, cache),
            CacheMode::Quantized(cache) => (true, cache),
        };
        let (fresh, mut unobserved) = (ProfileCache::new(), Telemetry::disabled());
        let cache = shared.unwrap_or(&fresh);
        let tel = opts.telemetry.unwrap_or(&mut unobserved);
        let cfg = trace.config.clone();
        let specs = cfg.specs();
        let horizon_ms = cfg.duration_s * MS_PER_S;
        let period_ms = cfg.audit_period_s * MS_PER_S;
        let quantizer = TrafficQuantizer::new(cfg.reprofile_threshold);
        let observe = tel.is_enabled();
        let before = cache.stats();
        type Built = (NfTimeline, u64, u64, ProfileTap, Option<MetricsRegistry>);
        let built: Vec<Built> = engine.run(trace.records.len(), |i| {
            let rec = &trace.records[i];
            let workload_seed = cfg.seed.wrapping_add(rec.id as u64);
            let base_seed = cfg.seed ^ TIMELINE_SALT;
            // An exact key is measured on the record's own simulators: on
            // a miss they advance exactly as the uncached profiler's
            // would, on a hit they stay put. A bucket key is measured on
            // fresh simulators seeded from the key.
            let mut own_sims =
                (!quantized).then(|| sims_for(&specs, rec.kind, cfg.noise_sigma, base_seed, i));
            let mut tap: ProfileTap = Vec::new();
            let mut measure = |keying, traffic: TrafficProfile, t_ms, trigger| {
                let (traffic_key, seed) = match keying {
                    Keying::Exact => (TrafficKey::exact(&traffic), workload_seed),
                    Keying::Bucket(bucket) => {
                        let key = TrafficKey::Bucketed(bucket);
                        (key, profile_seed(base_seed, rec.kind, &key))
                    }
                };
                let key = ProfileKey {
                    kind: rec.kind,
                    traffic: traffic_key,
                    seed,
                };
                if observe {
                    tap.push((t_ms, trigger, key_hash(&key)));
                }
                cache.get_or_measure(&key, || match own_sims.as_mut() {
                    Some(sims) => measure_entry(sims, rec.kind, traffic, seed),
                    None => {
                        let mut sims = sims_for_key(&specs, rec.kind, cfg.noise_sigma, seed);
                        measure_entry(&mut sims, rec.kind, traffic, seed)
                    }
                })
            };
            // `last` is the traffic drift is measured against: the last
            // exact profile, or the last bucket's representative.
            let arrival_traffic = rec.traffic_at(rec.arrival_ms);
            let (mut keying, mut last, measured) = if quantized {
                let (bucket, rep) = quantizer.canonicalize(&arrival_traffic);
                (Keying::Bucket(bucket), rep, rep)
            } else {
                (Keying::Exact, rec.start, arrival_traffic)
            };
            let first = measure(keying, measured, rec.arrival_ms, "arrival");
            // Instance identity `<kind>-<workload seed>`, unique per
            // record and stable across re-profiles.
            let name = match keying {
                Keying::Exact => first.workload.name.clone(),
                Keying::Bucket(_) => format!("{}-{workload_seed}", rec.kind.name()),
            };
            let arrival = Arrival {
                kind: rec.kind,
                traffic: measured,
                sla_drop: rec.sla_drop,
                qos: rec.qos,
            };
            let mut snapshots = vec![(
                rec.arrival_ms,
                placed_from_entry(&first, arrival, Some(&name)),
            )];
            let (mut delta, mut full) = (0u64, 0u64);
            // Walk the audit epochs inside the NF's on-trace lifetime.
            let mut epoch_ms = (rec.arrival_ms / period_ms + 1) * period_ms;
            while epoch_ms < rec.departure_ms && epoch_ms <= horizon_ms {
                let now = rec.traffic_at(epoch_ms);
                let moved = match keying {
                    Keying::Exact => (last.relative_change(&now) > cfg.reprofile_threshold)
                        .then_some((Keying::Exact, now, "drift")),
                    // Re-profile only when drift past threshold actually
                    // lands in a different bucket; at clamped range edges
                    // a nominal trigger can re-quantize to the same key.
                    Keying::Bucket(bucket) => {
                        let rk = quantizer.delta_rekey(&bucket, &last, &now);
                        (rk.moved_count() > 0 && rk.key != bucket).then(|| {
                            let trigger = if rk.is_full() { "full" } else { "delta" };
                            (
                                Keying::Bucket(rk.key),
                                quantizer.representative(&rk.key),
                                trigger,
                            )
                        })
                    }
                };
                if let Some((next, traffic, trigger)) = moved {
                    // Exact keys share nothing, so every exact re-profile
                    // counts as full.
                    if trigger == "delta" {
                        delta += 1;
                    } else {
                        full += 1;
                    }
                    let mut arr = snapshots
                        .last()
                        .expect("arrival snapshot")
                        .1
                        .arrival
                        .clone();
                    arr.traffic = traffic;
                    let entry = measure(next, traffic, epoch_ms, trigger);
                    snapshots.push((epoch_ms, placed_from_entry(&entry, arr, Some(&name))));
                    (keying, last) = (next, traffic);
                }
                epoch_ms += period_ms;
            }
            let shard = observe.then(|| {
                let mut s = MetricsRegistry::new();
                for &(_, trigger, _) in &tap {
                    s.inc(&format!("profile.measurements.{trigger}"), 1);
                }
                s.observe_log2("profile.snapshots_per_nf", 1.0, 6, snapshots.len() as f64);
                s
            });
            (NfTimeline { snapshots }, delta, full, tap, shard)
        });
        // Merge sequentially, in record order: journal lines tag a
        // measurement `miss` on the first occurrence of its key hash and
        // `hit` after, whichever thread actually paid for it.
        let mut timelines = Vec::with_capacity(built.len());
        let (mut delta_reprofiles, mut full_reprofiles) = (0u64, 0u64);
        let mut seen_keys = std::collections::HashSet::new();
        for (rec, (tl, d, f, tap, shard)) in trace.records.iter().zip(built) {
            timelines.push(tl);
            delta_reprofiles += d;
            full_reprofiles += f;
            if let Some(shard) = shard {
                tel.merge_shard(&shard);
            }
            for (t_ms, trigger, key) in tap {
                let cache = if seen_keys.insert(key) { "miss" } else { "hit" };
                tel.rec(t_ms, || Event::Profile {
                    id: rec.id,
                    kind: rec.kind.name(),
                    trigger,
                    key,
                    cache,
                });
            }
        }
        // The cache-counter delta is thread-count invariant: the key set
        // is trace-determined, misses count stub creations (one per
        // distinct new key, whichever thread gets there), and hits are
        // the remaining lookups.
        let after = cache.stats();
        let stats = ProfileStats {
            lookups: after.lookups - before.lookups,
            hits: after.hits - before.hits,
            misses: after.misses - before.misses,
            inserts: after.entries - before.entries,
            delta_reprofiles,
            full_reprofiles,
        };
        // Mirrored onto the registry, so it carries the same accounting
        // the bench records print.
        if observe {
            tel.inc("profile.lookups", stats.lookups);
            tel.inc("profile.hits", stats.hits);
            tel.inc("profile.misses", stats.misses);
            tel.inc("profile.inserts", stats.inserts);
            tel.inc("profile.delta_reprofiles", stats.delta_reprofiles);
            tel.inc("profile.full_reprofiles", stats.full_reprofiles);
        }
        Self {
            trace,
            timelines,
            stats,
        }
    }

    /// [`build`](Self::build) in quantized mode against a fresh cache:
    /// one measurement per distinct bucket key, not per snapshot.
    pub fn build_cached(trace: FleetTrace, engine: &Engine) -> Self {
        Self::build(trace, engine, BuildOpts::quantized(None))
    }

    /// Total profile snapshots across all NFs (arrivals + re-profiles):
    /// the scenario's offline profiling bill *before* cache sharing.
    /// The bill actually paid is `stats.misses`.
    pub fn snapshot_count(&self) -> usize {
        self.timelines.iter().map(|t| t.snapshots.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::FleetConfig;

    fn small_profiled(seed: u64) -> ProfiledTrace {
        let mut cfg = FleetConfig::small(seed);
        // Keep the unit test cheap: a short horizon and few arrivals.
        cfg.duration_s = 1_800;
        cfg.mean_interarrival_s = 120.0;
        cfg.mean_lifetime_s = 900.0;
        cfg.audit_period_s = 300;
        ProfiledTrace::build(
            FleetTrace::generate(cfg),
            &Engine::sequential(),
            BuildOpts::default(),
        )
    }

    #[test]
    fn timelines_start_at_arrival_and_stay_ordered() {
        let p = small_profiled(2);
        assert_eq!(p.timelines.len(), p.trace.records.len());
        for (rec, tl) in p.trace.records.iter().zip(&p.timelines) {
            assert_eq!(tl.snapshots[0].0, rec.arrival_ms);
            assert_eq!(tl.snapshots[0].1.arrival.kind, rec.kind);
            for w in tl.snapshots.windows(2) {
                assert!(w[0].0 < w[1].0, "snapshots ascend");
            }
            // Identity (workload name) is stable across re-profiles.
            for (_, s) in &tl.snapshots {
                assert_eq!(s.workload.name, tl.snapshots[0].1.workload.name);
            }
        }
        // Instance names are unique fleet-wide (needed for co-runs).
        let mut names: Vec<&str> = p
            .timelines
            .iter()
            .map(|t| t.snapshots[0].1.workload.name.as_str())
            .collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), p.timelines.len());
    }

    #[test]
    fn at_returns_last_snapshot_in_force() {
        let p = small_profiled(8);
        let tl = p
            .timelines
            .iter()
            .find(|t| t.snapshots.len() >= 2)
            .expect("drift produces at least one re-profile");
        let (t1, _) = tl.snapshots[1];
        assert_eq!(
            tl.at(t1 - 1).arrival.traffic,
            tl.snapshots[0].1.arrival.traffic
        );
        assert_eq!(tl.at(t1).arrival.traffic, tl.snapshots[1].1.arrival.traffic);
        assert_eq!(tl.index_at(t1), 1);
    }

    #[test]
    fn build_is_thread_count_invariant() {
        let cfg = {
            let mut c = FleetConfig::small(13);
            c.duration_s = 1_200;
            c.mean_interarrival_s = 150.0;
            c.audit_period_s = 300;
            c
        };
        let seq = ProfiledTrace::build(
            FleetTrace::generate(cfg.clone()),
            &Engine::sequential(),
            BuildOpts::default(),
        );
        let par = ProfiledTrace::build(
            FleetTrace::generate(cfg),
            &Engine::with_threads(4),
            BuildOpts::default(),
        );
        assert_eq!(seq.snapshot_count(), par.snapshot_count());
        assert_eq!(seq.stats, par.stats);
        for (a, b) in seq.timelines.iter().zip(&par.timelines) {
            assert_eq!(a.snapshots.len(), b.snapshots.len());
            for ((ta, pa), (tb, pb)) in a.snapshots.iter().zip(&b.snapshots) {
                assert_eq!(ta, tb);
                assert_eq!(pa.solos, pb.solos);
                assert_eq!(pa.workload, pb.workload);
            }
        }
    }

    #[test]
    fn exact_mode_is_a_pass_through_that_hits_on_rebuild() {
        let mut cfg = FleetConfig::small(5);
        cfg.duration_s = 1_800;
        cfg.mean_interarrival_s = 150.0;
        cfg.audit_period_s = 300;
        let cache = ProfileCache::new();
        let engine = Engine::sequential();
        let exact_in = || BuildOpts {
            cache: CacheMode::Exact(Some(&cache)),
            telemetry: None,
        };
        let a = ProfiledTrace::build(FleetTrace::generate(cfg.clone()), &engine, exact_in());
        // Fresh cache: every snapshot was a distinct key, nothing hit.
        assert_eq!(a.stats.hits, 0);
        assert_eq!(a.stats.misses, a.snapshot_count() as u64);
        assert_eq!(a.stats.inserts, a.stats.misses);
        // Same trace, same cache: everything hits, bytes are identical.
        let b = ProfiledTrace::build(FleetTrace::generate(cfg), &engine, exact_in());
        assert_eq!(b.stats.misses, 0);
        assert_eq!(b.stats.hits, b.stats.lookups);
        for (ta, tb) in a.timelines.iter().zip(&b.timelines) {
            for ((sa, pa), (sb, pb)) in ta.snapshots.iter().zip(&tb.snapshots) {
                assert_eq!(sa, sb);
                assert_eq!(pa.workload, pb.workload);
                assert_eq!(pa.solos, pb.solos);
            }
        }
    }

    #[test]
    fn quantized_mode_shares_profiles_and_stays_deterministic() {
        let mut cfg = FleetConfig::small(9);
        cfg.duration_s = 1_800;
        cfg.mean_interarrival_s = 100.0;
        cfg.audit_period_s = 300;
        let seq =
            ProfiledTrace::build_cached(FleetTrace::generate(cfg.clone()), &Engine::sequential());
        let par = ProfiledTrace::build_cached(FleetTrace::generate(cfg), &Engine::with_threads(4));
        assert_eq!(seq.stats, par.stats);
        assert_eq!(
            seq.stats.delta_reprofiles + seq.stats.full_reprofiles + seq.timelines.len() as u64,
            seq.stats.lookups
        );
        for (a, b) in seq.timelines.iter().zip(&par.timelines) {
            assert_eq!(a.snapshots.len(), b.snapshots.len());
            for ((ta, pa), (tb, pb)) in a.snapshots.iter().zip(&b.snapshots) {
                assert_eq!(ta, tb);
                assert_eq!(pa.workload, pb.workload);
                assert_eq!(pa.solos, pb.solos);
            }
        }
    }
}
