//! An incrementally maintained placement-candidate index: free-core
//! buckets keyed by `(portfolio position, cores free)` plus a
//! per-position set of empty NICs, so each placement decision walks a
//! deterministically ordered shortlist instead of scanning every NIC in
//! the fleet. This is what keeps per-arrival cost sublinear in fleet
//! size on 10k-NIC days.
//!
//! ## Invariants
//!
//! - A NIC appears in `empty[pos]` or in exactly one `buckets[pos][f]`
//!   iff it is *admitting* (state `Up`); `Draining`/`Down` NICs are
//!   unlinked but their `used`/`occupants` accounting keeps ticking so
//!   a later restore re-links them correctly.
//! - `used[nic]` equals the sum of the residents' core footprints under
//!   the profile snapshots currently in force; audit-epoch drift may
//!   change a resident's footprint, so the event loop re-prices every
//!   occupied NIC via [`PlacementIndex::set_used`] right after it moves
//!   the snapshot cursors.
//! - `f` is the NIC's free-core count, so a query for an NF needing `c`
//!   cores reads exactly the buckets `f >= c`.
//! - All sets iterate in ascending NIC index, which is the tie-break
//!   order of the pre-index linear scans; every query below reproduces
//!   the corresponding linear scan's answer byte-for-byte (the debug
//!   builds of the choosers in `residency.rs` assert this on every
//!   decision).

use std::collections::BTreeSet;

/// The index. One instance lives for the duration of a fleet run and is
/// updated on place/evict/fault/drain/migrate/readmit transitions.
pub(crate) struct PlacementIndex {
    /// Portfolio position of each NIC (same-model NICs share one).
    pos: Vec<usize>,
    /// Total cores of each NIC.
    cores: Vec<u32>,
    /// Cores used by residents under the snapshots in force.
    used: Vec<u32>,
    /// Resident count (emptiness is resident-count, not core, based).
    occupants: Vec<u32>,
    /// Whether the NIC admits placements (state `Up`).
    active: Vec<bool>,
    /// Per position: empty admitting NICs, ascending.
    empty: Vec<BTreeSet<usize>>,
    /// Per position: occupied admitting NICs bucketed by free cores.
    buckets: Vec<Vec<BTreeSet<usize>>>,
}

impl PlacementIndex {
    /// A fresh index over an all-`Up`, all-empty fleet. `spec_pos[nic]`
    /// is the NIC's portfolio position, `nic_cores[nic]` its core
    /// count, `positions` the portfolio length.
    pub(crate) fn new(spec_pos: &[usize], nic_cores: &[u32], positions: usize) -> Self {
        let n = spec_pos.len();
        let mut empty: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); positions];
        let mut pos_cores = vec![0u32; positions];
        for nic in 0..n {
            empty[spec_pos[nic]].insert(nic);
            pos_cores[spec_pos[nic]] = nic_cores[nic];
        }
        let buckets = pos_cores
            .iter()
            .map(|&c| vec![BTreeSet::new(); c as usize + 1])
            .collect();
        Self {
            pos: spec_pos.to_vec(),
            cores: nic_cores.to_vec(),
            used: vec![0; n],
            occupants: vec![0; n],
            active: vec![true; n],
            empty,
            buckets,
        }
    }

    /// Portfolio position of `nic`.
    pub(crate) fn pos(&self, nic: usize) -> usize {
        self.pos[nic]
    }

    /// Total cores of `nic`.
    pub(crate) fn cores(&self, nic: usize) -> u32 {
        self.cores[nic]
    }

    /// Cores `nic`'s residents use under the snapshots in force.
    pub(crate) fn used(&self, nic: usize) -> u32 {
        self.used[nic]
    }

    /// Residents on `nic`.
    pub(crate) fn occupants(&self, nic: usize) -> u32 {
        self.occupants[nic]
    }

    /// Free cores, saturating so a transiently overfull NIC (snapshot
    /// drift can grow footprints before anyone reacts) reads as zero —
    /// which excludes it from every `need >= 1` query, exactly as the
    /// linear scans' `used + need > cores` test does.
    fn free(&self, nic: usize) -> usize {
        self.cores[nic].saturating_sub(self.used[nic]) as usize
    }

    fn unlink(&mut self, nic: usize) {
        let p = self.pos[nic];
        if self.occupants[nic] == 0 {
            self.empty[p].remove(&nic);
        } else {
            let f = self.free(nic);
            self.buckets[p][f].remove(&nic);
        }
    }

    fn link(&mut self, nic: usize) {
        let p = self.pos[nic];
        if self.occupants[nic] == 0 {
            self.empty[p].insert(nic);
        } else {
            let f = self.free(nic);
            self.buckets[p][f].insert(nic);
        }
    }

    /// Accounts one NF of `nf_cores` cores placed on `nic`.
    pub(crate) fn place(&mut self, nic: usize, nf_cores: u32) {
        if self.active[nic] {
            self.unlink(nic);
        }
        self.occupants[nic] += 1;
        self.used[nic] += nf_cores;
        debug_assert!(
            self.used[nic] <= self.cores[nic],
            "placement overfilled NIC {nic}"
        );
        if self.active[nic] {
            self.link(nic);
        }
    }

    /// Accounts one NF of `nf_cores` cores leaving `nic` (departure,
    /// eviction, preemption, or migration source).
    pub(crate) fn remove(&mut self, nic: usize, nf_cores: u32) {
        if self.active[nic] {
            self.unlink(nic);
        }
        self.occupants[nic] -= 1;
        self.used[nic] -= nf_cores;
        if self.active[nic] {
            self.link(nic);
        }
    }

    /// Takes `nic` out of the candidate sets (`Draining`/`Down`).
    /// Idempotent: a `DrainEnd` after a `DrainStart` is a no-op here.
    pub(crate) fn retire(&mut self, nic: usize) {
        if self.active[nic] {
            self.unlink(nic);
            self.active[nic] = false;
        }
    }

    /// Returns a recovered `nic` to the candidate sets. Idempotent.
    pub(crate) fn restore(&mut self, nic: usize) {
        if !self.active[nic] {
            self.active[nic] = true;
            self.link(nic);
        }
    }

    /// Zeroes a retired NIC's accounting after a bulk eviction — `Fail`
    /// and `DrainEnd` take the whole resident list in one move rather
    /// than removing NFs one by one.
    pub(crate) fn clear_retired(&mut self, nic: usize) {
        debug_assert!(!self.active[nic], "bulk clear is only for retired NICs");
        self.occupants[nic] = 0;
        self.used[nic] = 0;
    }

    /// Re-prices `nic` after snapshot drift may have changed its
    /// residents' aggregate core footprint.
    pub(crate) fn set_used(&mut self, nic: usize, used: u32) {
        if used == self.used[nic] {
            return;
        }
        if self.active[nic] {
            self.unlink(nic);
        }
        self.used[nic] = used;
        if self.active[nic] {
            self.link(nic);
        }
    }

    /// Lowest-index empty admitting NIC over the supported positions
    /// `sup`, skipping `exclude` — the linear `choose_empty` answer.
    pub(crate) fn first_empty(&self, sup: &[usize], exclude: Option<usize>) -> Option<usize> {
        sup.iter()
            .filter_map(|&p| self.empty[p].iter().copied().find(|&n| Some(n) != exclude))
            .min()
    }

    /// Occupied admitting NIC with the most free cores among those with
    /// at least `need` free, ties to the lowest index — the linear
    /// greedy answer. Walks free-core values from the largest bucket
    /// down, so the cost is bounded by the portfolio's core counts, not
    /// the fleet size.
    pub(crate) fn most_free(
        &self,
        sup: &[usize],
        need: u32,
        exclude: Option<usize>,
    ) -> Option<usize> {
        let top = sup
            .iter()
            .map(|&p| self.buckets[p].len())
            .max()?
            .checked_sub(1)?;
        let need = need as usize;
        for f in (need..=top).rev() {
            let hit = sup
                .iter()
                .filter_map(|&p| self.buckets[p].get(f))
                .filter_map(|b| b.iter().copied().find(|&n| Some(n) != exclude))
                .min();
            if hit.is_some() {
                return hit;
            }
        }
        None
    }

    /// All occupied admitting NICs with at least `need` free cores over
    /// the supported positions, ascending by NIC index, into `out` — the
    /// exact set and order the linear contention-aware scan evaluates.
    pub(crate) fn fitting(
        &self,
        sup: &[usize],
        need: u32,
        exclude: Option<usize>,
        out: &mut Vec<usize>,
    ) {
        out.clear();
        for &p in sup {
            for b in self.buckets[p].iter().skip(need as usize) {
                out.extend(b.iter().copied().filter(|&n| Some(n) != exclude));
            }
        }
        // A NIC lives in exactly one bucket of one position, so the
        // concatenation has no duplicates; one sort restores the
        // ascending-index evaluation order of the linear scan.
        out.sort_unstable();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two positions: pos 0 has 8-core NICs {0, 2}, pos 1 a 4-core {1}.
    fn mixed() -> PlacementIndex {
        PlacementIndex::new(&[0, 1, 0], &[8, 4, 8], 2)
    }

    #[test]
    fn place_remove_moves_between_empty_and_buckets() {
        let mut ix = mixed();
        assert_eq!(ix.first_empty(&[0], None), Some(0));
        assert_eq!(ix.most_free(&[0, 1], 1, None), None, "nothing occupied yet");
        ix.place(0, 3);
        assert_eq!(ix.first_empty(&[0], None), Some(2));
        assert_eq!(ix.most_free(&[0, 1], 1, None), Some(0));
        assert_eq!(ix.most_free(&[0, 1], 6, None), None, "only 5 cores free");
        ix.place(1, 1);
        // NIC 0 has 5 free, NIC 1 has 3: most-free prefers NIC 0.
        assert_eq!(ix.most_free(&[0, 1], 1, None), Some(0));
        assert_eq!(ix.most_free(&[0, 1], 1, Some(0)), Some(1));
        let mut out = Vec::new();
        ix.fitting(&[0, 1], 1, None, &mut out);
        assert_eq!(out, vec![0, 1]);
        ix.remove(0, 3);
        assert_eq!(ix.first_empty(&[0], None), Some(0));
        ix.fitting(&[0, 1], 1, None, &mut out);
        assert_eq!(out, vec![1]);
    }

    #[test]
    fn ties_break_to_the_lowest_index_across_positions() {
        let mut ix = mixed();
        ix.place(1, 1);
        ix.place(2, 5);
        // Both occupied NICs have 3 free cores; the tie goes to NIC 1.
        assert_eq!(ix.most_free(&[0, 1], 1, None), Some(1));
        let mut out = Vec::new();
        ix.fitting(&[0, 1], 3, None, &mut out);
        assert_eq!(out, vec![1, 2], "merged ascending across positions");
    }

    #[test]
    fn retire_restore_and_bulk_clear() {
        let mut ix = mixed();
        ix.place(0, 2);
        ix.retire(0);
        assert_eq!(ix.most_free(&[0], 1, None), None);
        // Accounting keeps ticking while retired (graceful drain moves
        // residents off one at a time).
        ix.remove(0, 2);
        ix.place(0, 4);
        ix.restore(0);
        assert_eq!(ix.most_free(&[0], 4, None), Some(0));
        ix.retire(0);
        ix.clear_retired(0);
        ix.restore(0);
        assert_eq!(
            ix.first_empty(&[0], None),
            Some(0),
            "cleared NIC is empty again"
        );
    }

    #[test]
    fn set_used_reprices_occupied_nics() {
        let mut ix = mixed();
        ix.place(0, 2);
        assert_eq!(ix.most_free(&[0], 6, None), Some(0));
        ix.set_used(0, 7);
        assert_eq!(ix.most_free(&[0], 6, None), None);
        assert_eq!(ix.most_free(&[0], 1, None), Some(0));
    }
}
