//! A table cut from a kept growth chain reads the chain in place: a cut
//! measurement allocates its tables' dense value stores, not a probe
//! array of 16 bytes per slot, and Nat's port-keyed return table is a
//! closed-form view in every measurement.
//!
//! The measured NFs are held alive, so the process-wide probe-array pool
//! holds no array of the cuts' capacity to hand out for free: a probe
//! array built for a cut would show as fresh bytes. Under debug
//! assertions every view is also materialized once to check its lookups
//! against; that array is allowed for here, so the bound gates only a
//! release build.
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

/// The system allocator, counting the bytes it hands out.
struct Counting;

static BYTES: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method hands its arguments unchanged to `System`, which
// upholds `GlobalAlloc`'s contract; the counter is a statistic that
// publishes no other data, so `Relaxed` suffices.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        BYTES.fetch_add(layout.size(), Ordering::Relaxed);
        // SAFETY: the caller's guarantees for `layout` pass through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        BYTES.fetch_add(new_size, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` with this `layout`, and the
        // caller's guarantees for `new_size` pass through.
        unsafe { System.realloc(ptr, layout, new_size) }
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
/// What a measurement allocates besides its tables: the NF, the
/// workload it returns.
const MARGIN: usize = 64 << 10;
/// What two measurements of one cut may differ by in bytes allocated
/// (one batch's scan rows are 6 KiB).
const PER_RUN_SLACK: usize = 1 << 10;

fn traffic(flows: u32) -> TrafficProfile {
    TrafficProfile::new(flows, 512, 300.0)
}

/// Held by each test: the tests read one process-wide byte counter, and
/// no other test's tables may pass through the pool meanwhile.
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
    let mut held = Vec::new();
    for (kind, value_bytes, tables) in kinds {
        let mut profiler = Profiler::new();
        // The family's first measurement keeps nothing; the second
        // replays the chain with layouts.
        for _ in 0..2 {
            let mut nf = kind.build();
            measured_bytes(&mut profiler, nf.as_mut(), GROWN, DEFAULT_SAMPLE_PACKETS);
            held.push(nf);
        }
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
        held.push(nf);
    }
}

/// Streaming four times the packets, so four times the batches, through a
/// warm regex NF's cut allocates no more than the default sample does.
#[test]
fn a_regex_cut_allocates_nothing_per_batch() {
    let _serial = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    let mut held = Vec::new();
    for kind in [NfKind::Nids, NfKind::FlowMonitor] {
        let mut profiler = Profiler::new();
        let mut measure = |flows, packets| {
            let mut nf = kind.build();
            let bytes = measured_bytes(&mut profiler, nf.as_mut(), flows, packets);
            held.push(nf);
            bytes
        };
        for _ in 0..2 {
            measure(GROWN, DEFAULT_SAMPLE_PACKETS);
        }
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
