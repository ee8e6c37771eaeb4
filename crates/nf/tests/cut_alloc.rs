//! Every flow-keyed warm is a cut of its growth chain, read in place: a
//! measurement allocates its tables' dense value stores, not a probe
//! array of 16 bytes per slot, and Nat's port-keyed return table is a
//! closed-form view in every measurement. Under debug assertions every
//! view is also materialized once to check its lookups against; that
//! array is allowed for here, and the peak-heap bound gates only a
//! release build.
//!
//! Growing a family replays its chain on the chain's own `u32` layouts,
//! so the heap a large profiling point peaks at is the layouts, the kept
//! keys and the values, not a 16-byte probe array beside them.
//!
//! A regex NF scans each batch into scratch it keeps, so once warm its
//! cut allocates nothing that grows with the number of batches.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};
use yala_nf::nfs::flowstats::FlowStatsEntry;
use yala_nf::nfs::nat::NatBinding;
use yala_nf::runtime::{NetworkFunction, DEFAULT_SAMPLE_PACKETS};
use yala_nf::{NfKind, Profiler};
use yala_traffic::TrafficProfile;

/// The system allocator, counting the bytes it hands out, the bytes live
/// and the most that were live at once.
struct Counting;

static BYTES: AtomicUsize = AtomicUsize::new(0);
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn allocated(bytes: usize) {
    BYTES.fetch_add(bytes, Ordering::Relaxed);
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

fn freed(bytes: usize) {
    LIVE.fetch_sub(bytes, Ordering::Relaxed);
}

// SAFETY: every method hands its arguments unchanged to `System`, which
// upholds `GlobalAlloc`'s contract; the counters are statistics that
// publish no other data, so `Relaxed` suffices.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's guarantees for `layout` pass through.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            allocated(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        freed(layout.size());
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr` came from `System` with this `layout`, and the
        // caller's guarantees for `new_size` pass through.
        let moved = unsafe { System.realloc(ptr, layout, new_size) };
        if !moved.is_null() {
            freed(layout.size());
            allocated(new_size);
        }
        moved
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const SEED: u64 = 7;
/// The flow count the family is grown to, as the daemon's query profiler
/// grows its own.
const GROWN: u32 = 48_000;
const CUT: u32 = 40_000;
/// Slots of a table holding `CUT` entries.
const CUT_SLOTS: usize = 65_536;
/// What a measurement allocates besides its warmed tables: the NF with
/// its empty tables, the workload it returns.
const MARGIN: usize = 64 << 10;
/// What two measurements of one cut may differ by in bytes allocated
/// (one batch's scan rows are 6 KiB).
const PER_RUN_SLACK: usize = 1 << 10;

fn traffic(flows: u32) -> TrafficProfile {
    TrafficProfile::new(flows, 512, 300.0)
}

/// Held by each test: the tests read process-wide byte counters, which
/// no other test may move meanwhile.
static SERIAL: Mutex<()> = Mutex::new(());

/// Bytes allocated by measuring `nf` at `flows` over `packets` packets.
fn measured_bytes(
    profiler: &mut Profiler,
    nf: &mut dyn NetworkFunction,
    flows: u32,
    packets: usize,
) -> usize {
    let before = BYTES.load(Ordering::Relaxed);
    profiler.profile(nf, traffic(flows), packets, SEED);
    BYTES.load(Ordering::Relaxed) - before
}

#[test]
fn a_cut_allocates_its_values_and_no_probe_array() {
    let _serial = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    // Per kind: the value bytes of one flow, and its tables.
    let kinds = [
        (NfKind::FlowStats, std::mem::size_of::<FlowStatsEntry>(), 1),
        (NfKind::Nat, 2 * std::mem::size_of::<NatBinding>(), 2),
    ];
    for (kind, value_bytes, tables) in kinds {
        let mut profiler = Profiler::new();
        measured_bytes(
            &mut profiler,
            kind.build().as_mut(),
            GROWN,
            DEFAULT_SAMPLE_PACKETS,
        );
        let mut nf = kind.build();
        let bytes = measured_bytes(&mut profiler, nf.as_mut(), CUT, DEFAULT_SAMPLE_PACKETS);
        let cross_check = if cfg!(debug_assertions) {
            tables * CUT_SLOTS * 16
        } else {
            0
        };
        let bound = CUT as usize * value_bytes + MARGIN + cross_check;
        assert!(
            bytes < bound,
            "{kind}: a cut at {CUT} flows allocated {bytes} bytes, bound {bound}"
        );
    }
}

/// Streaming four times the packets, so four times the batches, through a
/// warm regex NF's cut allocates no more than the default sample does.
#[test]
fn a_regex_cut_allocates_nothing_per_batch() {
    let _serial = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    for kind in [NfKind::Nids, NfKind::FlowMonitor] {
        let mut profiler = Profiler::new();
        let mut measure =
            |flows, packets| measured_bytes(&mut profiler, kind.build().as_mut(), flows, packets);
        measure(GROWN, DEFAULT_SAMPLE_PACKETS);
        let sample = measure(CUT, DEFAULT_SAMPLE_PACKETS);
        let longer = measure(CUT, 4 * DEFAULT_SAMPLE_PACKETS);
        assert!(
            longer <= sample + PER_RUN_SLACK,
            "{kind}: a cut of {} packets allocated {longer} bytes, of {} packets {sample}",
            4 * DEFAULT_SAMPLE_PACKETS,
            DEFAULT_SAMPLE_PACKETS
        );
    }
}

/// The most heap a FlowStats family grown to 500 000 flows, then cut at
/// 1 000 and at 499 999 flows, holds live at once above what was live
/// before it (release build). Its chain replayed on its own `u32`
/// layouts peaks at 27.2 MiB: the layouts (8 MiB over all epochs), the
/// keys (4 MiB), the values and the flow sequence. Replayed on a 16-byte
/// probe array that was copied into a layout at every growth, with the
/// family's first measurement building its table by plain inserts, it
/// peaked at 59.1 MiB.
const FAMILY_PEAK: usize = 40 << 20;

#[test]
#[cfg_attr(debug_assertions, ignore = "debug assertions materialize every view")]
fn a_grown_family_peaks_at_its_layouts_keys_and_values() {
    let _serial = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    let mut profiler = Profiler::new();
    let start = LIVE.load(Ordering::Relaxed);
    PEAK.store(start, Ordering::Relaxed);
    for flows in [500_000, 1_000, 499_999] {
        measured_bytes(
            &mut profiler,
            NfKind::FlowStats.build().as_mut(),
            flows,
            DEFAULT_SAMPLE_PACKETS,
        );
    }
    let peak = PEAK.load(Ordering::Relaxed) - start;
    assert!(
        peak < FAMILY_PEAK,
        "the family peaked at {:.1} MiB live, bound {} MiB",
        peak as f64 / f64::from(1 << 20),
        FAMILY_PEAK >> 20
    );
}
