//! Online mutation: logical-id keyed insert/update/delete with tombstones,
//! deterministic compaction, and cycle-count wear leveling.
//!
//! A stock [`FerexArray`](crate::array::FerexArray) treats every content
//! change as a whole-array transition: mutators invalidate the physical
//! state and the next [`program`](crate::array::FerexArray::program)
//! rewrites every row. That is correct but ruinous for serving — one
//! changed vector blocks the array and burns a write cycle on every
//! crossbar row, against a hard FeFET endurance budget
//! ([`ferex_fefet::EnduranceModel`]).
//!
//! Enabling mutation (`enable_mutation`) switches the array to a
//! *slot-table* discipline with a fixed physical capacity:
//!
//! * every physical row is a [`SlotState`]: `Free` (never written or
//!   reclaimed), `Live(id)` (serving logical id `id`), or `Dead`
//!   (tombstoned — excluded from every kernel, on every backend, exactly
//!   like a quarantined row);
//! * `insert`/`update` program **only the delta row**, through the same
//!   write-verify machinery as
//!   [`program_verified`](crate::array::FerexArray::program_verified)
//!   (bounded retry, trim commits, quarantine-and-remap on failure);
//! * `delete` writes a tombstone — a purely logical transition, no
//!   physical erase, no wasted cycle;
//! * compaction reclaims tombstones back to `Free` deterministically at a
//!   tombstone-fraction threshold (per-mille, virtual op clock — never a
//!   wall clock), and `maintenance` additionally rotates the hottest live
//!   slot onto the coldest free slot when wear leveling is on.
//!
//! Wear is tracked per physical slot as the count of mutation-path write
//! attempts ([`WearSummary`]); the bulk `program()` pass is *not* counted,
//! so the counters isolate exactly the differential wear that online
//! churn adds. Leveling reads only those cycle counts, never the
//! endurance model. Slot choices are pure functions of `(slots, cycles)`
//! — never of the repair row map — so two arrays (the replicas of a
//! [`ReplicaSet`](crate::replica::ReplicaSet)) fed the same mutation
//! sequence always converge to the same layout.

use crate::error::FerexError;
use std::collections::{BTreeMap, BTreeSet};

/// Knobs of the online-mutation subsystem. Construct via
/// [`MutationPolicy::with_capacity`] and adjust fields as needed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MutationPolicy {
    /// Fixed physical slot count. The array pre-expands to this many rows
    /// when mutation is enabled, so the physical geometry (and therefore
    /// every variation-sample and fault-map draw) never changes under
    /// churn.
    pub capacity: usize,
    /// `true` routes inserts and out-of-place updates to the coldest free
    /// slot and lets [`maintenance`](crate::array::FerexArray::maintenance)
    /// rotate hot rows; `false` always picks the lowest-index free slot
    /// and updates rows in place.
    pub wear_leveling: bool,
    /// Tombstone fraction (in per-mille of capacity) at which a mutation
    /// auto-triggers compaction; `0` disables the automatic trigger
    /// (explicit [`compact`](crate::array::FerexArray::compact) still
    /// works).
    pub compact_tombstone_milli: u64,
}

impl MutationPolicy {
    /// The default policy for `capacity` slots: wear leveling on,
    /// auto-compaction at 25% tombstones.
    pub fn with_capacity(capacity: usize) -> Self {
        MutationPolicy { capacity, wear_leveling: true, compact_tombstone_milli: 250 }
    }

    /// Validates every knob.
    ///
    /// # Errors
    ///
    /// [`FerexError::InvalidPolicy`] naming the offending knob.
    pub fn validate(&self) -> Result<(), FerexError> {
        if self.capacity == 0 {
            return Err(FerexError::InvalidPolicy { what: "mutation capacity must be at least 1" });
        }
        if self.compact_tombstone_milli > 1000 {
            return Err(FerexError::InvalidPolicy {
                what: "compaction tombstone threshold exceeds 1000 per-mille",
            });
        }
        Ok(())
    }
}

/// Occupancy of one physical slot of a mutation-enabled array.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlotState {
    /// Never written (or reclaimed by compaction); excluded from search.
    Free,
    /// Serving the stored vector of this logical id.
    Live(u64),
    /// Tombstoned: the previous occupant was deleted or moved; excluded
    /// from search until compaction reclaims the slot.
    Dead,
}

/// What one compaction / maintenance pass did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CompactionReport {
    /// Tombstoned slots reclaimed to `Free`.
    pub reclaimed: usize,
    /// Live rows rotated onto colder slots by wear leveling.
    pub rotated: usize,
}

/// Point-in-time wear distribution across the physical slots.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WearSummary {
    /// Write attempts on the most-cycled slot.
    pub max_cycles: u64,
    /// Mean write attempts per slot, in per-mille (mean × 1000) so the
    /// ratio gates of the conformance soak need no floating point.
    pub mean_milli: u64,
    /// Median slot write count (nearest-rank).
    pub p50_cycles: u64,
    /// 90th-percentile slot write count (nearest-rank).
    pub p90_cycles: u64,
    /// Total mutation-path write attempts across the array's lifetime.
    pub total_writes: u64,
    /// Compaction passes run.
    pub compactions: u64,
}

impl WearSummary {
    /// `max / mean` in per-mille: `2000` means the hottest slot has seen
    /// twice the mean wear. `0` when nothing was written yet.
    pub fn imbalance_milli(&self) -> u64 {
        if self.mean_milli == 0 {
            return 0;
        }
        self.max_cycles.saturating_mul(1_000_000) / self.mean_milli
    }
}

/// Book-keeping state of a mutation-enabled array. Crate-internal: the
/// array owns one and exposes typed accessors.
///
/// Every change to a slot's state or cycle count goes through
/// [`MutationState::set_slot`] or [`MutationState::bump_cycles`], which keep
/// two indexes in step with the slot table: the free slots, ordered by the
/// insert rule, and the tombstone count. An insert's slot choice and the
/// auto-compaction check then read an index instead of scanning every
/// slot.
#[derive(Debug, Clone)]
pub(crate) struct MutationState {
    policy: MutationPolicy,
    /// One entry per physical slot (row) — `slots.len() == capacity`.
    slots: Vec<SlotState>,
    /// Logical id → slot index. A `BTreeMap` so iteration order is the id
    /// order — deterministic, per the serving-crate lint rules.
    pub(crate) id_to_slot: BTreeMap<u64, usize>,
    /// Mutation-path write attempts per physical slot.
    row_cycles: Vec<u64>,
    /// Every `Free` slot as `(key, slot)`: the key is the slot's cycle
    /// count under wear leveling and 0 without it, so the first entry is
    /// the insert rule's choice, ties to the lowest index.
    free: BTreeSet<(u64, usize)>,
    /// Count of `Dead` slots.
    dead: usize,
    /// Compaction passes run.
    compactions: u64,
    /// Lifetime mutation-path write attempts.
    writes: u64,
}

impl MutationState {
    pub(crate) fn new(policy: MutationPolicy, initial_live: usize) -> Self {
        let mut slots = vec![SlotState::Free; policy.capacity];
        let mut id_to_slot = BTreeMap::new();
        for (r, slot) in slots.iter_mut().enumerate().take(initial_live) {
            *slot = SlotState::Live(r as u64);
            id_to_slot.insert(r as u64, r);
        }
        let capacity = policy.capacity;
        MutationState {
            policy,
            slots,
            id_to_slot,
            row_cycles: vec![0; capacity],
            free: (initial_live.min(capacity)..capacity).map(|r| (0, r)).collect(),
            dead: 0,
            compactions: 0,
            writes: 0,
        }
    }

    pub(crate) fn policy(&self) -> &MutationPolicy {
        &self.policy
    }

    /// Occupancy of slot `slot`; `None` out of range.
    pub(crate) fn slot(&self, slot: usize) -> Option<SlotState> {
        self.slots.get(slot).copied()
    }

    fn cycles(&self, slot: usize) -> u64 {
        self.row_cycles.get(slot).copied().unwrap_or(0)
    }

    /// Slot `slot`'s entry in the free-slot index.
    fn free_key(&self, slot: usize) -> (u64, usize) {
        (if self.policy.wear_leveling { self.cycles(slot) } else { 0 }, slot)
    }

    /// Sets slot `slot`'s occupancy (a no-op out of range), keeping the
    /// free-slot index and the tombstone count in step.
    pub(crate) fn set_slot(&mut self, slot: usize, state: SlotState) {
        let key = self.free_key(slot);
        let Some(s) = self.slots.get_mut(slot) else { return };
        match std::mem::replace(s, state) {
            SlotState::Free => {
                self.free.remove(&key);
            }
            SlotState::Dead => self.dead -= 1,
            SlotState::Live(_) => {}
        }
        match state {
            SlotState::Free => {
                self.free.insert(key);
            }
            SlotState::Dead => self.dead += 1,
            SlotState::Live(_) => {}
        }
    }

    /// Counts one mutation-path write attempt on `slot`: one more lifetime
    /// write and one more cycle on the slot, re-keying it in the free-slot
    /// index when it is free.
    pub(crate) fn bump_cycles(&mut self, slot: usize) {
        self.writes += 1;
        let old = self.free_key(slot);
        if let Some(c) = self.row_cycles.get_mut(slot) {
            *c += 1;
        }
        if self.free.remove(&old) {
            self.free.insert(self.free_key(slot));
        }
    }

    pub(crate) fn live_len(&self) -> usize {
        self.id_to_slot.len()
    }

    pub(crate) fn tombstones(&self) -> usize {
        self.dead
    }

    pub(crate) fn is_live(&self, slot: usize) -> bool {
        matches!(self.slot(slot), Some(SlotState::Live(_)))
    }

    /// The slot an insert (or out-of-place update) should write: with wear
    /// leveling the coldest free slot (ties to the lowest index), without
    /// it the lowest-index free slot. Depends only on `(slots, cycles)` —
    /// never on repair-map state — so replicas fed the same operations
    /// choose identically.
    pub(crate) fn choose_insert_slot(&self) -> Option<usize> {
        self.free.first().map(|&(_, slot)| slot)
    }

    /// Reclaims every tombstoned slot to `Free` and counts one compaction
    /// pass; returns the reclaimed slots, ascending.
    pub(crate) fn reclaim_tombstones(&mut self) -> Vec<usize> {
        self.compactions += 1;
        if self.dead == 0 {
            return Vec::new();
        }
        let reclaimed: Vec<usize> = self
            .slots
            .iter()
            .enumerate()
            .filter(|(_, s)| matches!(s, SlotState::Dead))
            .map(|(i, _)| i)
            .collect();
        for &i in &reclaimed {
            self.set_slot(i, SlotState::Free);
        }
        reclaimed
    }

    /// The hottest live slot (max cycles, ties to the lowest index) — the
    /// rotation source of [`maintenance`](crate::array::FerexArray::maintenance).
    pub(crate) fn hottest_live_slot(&self) -> Option<usize> {
        self.slots
            .iter()
            .enumerate()
            .filter(|(_, s)| matches!(s, SlotState::Live(_)))
            .map(|(i, _)| i)
            .max_by_key(|&i| (self.cycles(i), usize::MAX - i))
    }

    /// The coldest live slot (min cycles, ties to the lowest index) — the
    /// source of the *static* wear-leveling move: its data is parked on a
    /// barely-worn slot, and moving it recruits that slot into the write
    /// pool.
    pub(crate) fn coldest_live_slot(&self) -> Option<usize> {
        self.slots
            .iter()
            .enumerate()
            .filter(|(_, s)| matches!(s, SlotState::Live(_)))
            .map(|(i, _)| i)
            .min_by_key(|&i| (self.cycles(i), i))
    }

    /// The hottest free slot (max cycles, ties to the lowest index) — the
    /// destination of the static wear-leveling move: parking cold data
    /// there retires it from the write pool.
    pub(crate) fn hottest_free_slot(&self) -> Option<usize> {
        self.slots
            .iter()
            .enumerate()
            .filter(|(_, s)| matches!(s, SlotState::Free))
            .map(|(i, _)| i)
            .max_by_key(|&i| (self.cycles(i), usize::MAX - i))
    }

    /// The wear-leveling rotation worth doing now, as `(src, dst)`: either
    /// the hottest live row onto the coldest free slot (dynamic leveling —
    /// a hot id stops grinding its home row) or the coldest live row onto
    /// the hottest free slot (static leveling — a worn slot retires under
    /// cold data and the barely-worn slot it vacates joins the write
    /// pool). Picks whichever closes the larger cycle gap; gaps of one
    /// cycle are noise. `None` when leveling is off or no move helps.
    /// A pure function of `(slots, cycles)`, so replicas agree.
    pub(crate) fn rotation_candidate(&self) -> Option<(usize, usize)> {
        if !self.policy.wear_leveling {
            return None;
        }
        let dynamic = match (self.hottest_live_slot(), self.choose_insert_slot()) {
            (Some(src), Some(dst)) => {
                let gap = self.cycles(src).saturating_sub(self.cycles(dst));
                (gap > 1).then_some((src, dst, gap))
            }
            _ => None,
        };
        let stat = match (self.coldest_live_slot(), self.hottest_free_slot()) {
            (Some(src), Some(dst)) => {
                let gap = self.cycles(dst).saturating_sub(self.cycles(src));
                (gap > 1).then_some((src, dst, gap))
            }
            _ => None,
        };
        [dynamic, stat]
            .into_iter()
            .flatten()
            .max_by_key(|&(src, dst, gap)| (gap, usize::MAX - src, usize::MAX - dst))
            .map(|(src, dst, _)| (src, dst))
    }

    /// `true` when the tombstone fraction has reached the auto-compaction
    /// threshold.
    pub(crate) fn should_auto_compact(&self) -> bool {
        let threshold = self.policy.compact_tombstone_milli;
        threshold > 0
            && (self.tombstones() as u64).saturating_mul(1000)
                >= threshold.saturating_mul(self.policy.capacity as u64)
    }

    pub(crate) fn wear(&self) -> WearSummary {
        let n = self.row_cycles.len();
        if n == 0 {
            return WearSummary::default();
        }
        let mut sorted = self.row_cycles.clone();
        sorted.sort_unstable();
        let total: u64 = sorted.iter().sum();
        WearSummary {
            max_cycles: sorted.last().copied().unwrap_or(0),
            mean_milli: total.saturating_mul(1000) / n as u64,
            p50_cycles: crate::stats::percentile(&sorted, 50, 100),
            p90_cycles: crate::stats::percentile(&sorted, 90, 100),
            total_writes: self.writes,
            compactions: self.compactions,
        }
    }
}

#[cfg(test)]
impl MutationState {
    /// Switches wear leveling and re-keys the free-slot index. Tests
    /// only: a policy is fixed once mutation is enabled.
    pub(crate) fn set_wear_leveling(&mut self, on: bool) {
        self.policy.wear_leveling = on;
        self.free = self.free.iter().map(|&(_, slot)| self.free_key(slot)).collect();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// A state whose slot `i` took `cycles[i]` writes, then became
    /// `slots[i]`.
    fn state(policy: MutationPolicy, slots: &[SlotState], cycles: &[u64]) -> MutationState {
        let mut st = MutationState::new(policy, 0);
        for (i, (&s, &c)) in slots.iter().zip(cycles).enumerate() {
            for _ in 0..c {
                st.bump_cycles(i);
            }
            st.set_slot(i, s);
        }
        st
    }

    /// The insert rule as a scan of every slot: the indexed
    /// [`MutationState::choose_insert_slot`] must answer the same.
    fn scanned_insert_slot(st: &MutationState) -> Option<usize> {
        let free = st
            .slots
            .iter()
            .enumerate()
            .filter(|(_, s)| matches!(s, SlotState::Free))
            .map(|(i, _)| i);
        if st.policy.wear_leveling {
            free.min_by_key(|&i| (st.row_cycles.get(i).copied().unwrap_or(0), i))
        } else {
            free.min_by_key(|&i| i)
        }
    }

    /// The tombstones as a scan of every slot.
    fn scanned_tombstones(st: &MutationState) -> usize {
        st.slots.iter().filter(|s| matches!(s, SlotState::Dead)).count()
    }

    #[test]
    fn policy_validation_names_the_knob() {
        assert!(MutationPolicy::with_capacity(8).validate().is_ok());
        let e = MutationPolicy::with_capacity(0).validate().unwrap_err();
        assert!(matches!(e, FerexError::InvalidPolicy { what } if what.contains("capacity")));
        let mut p = MutationPolicy::with_capacity(8);
        p.compact_tombstone_milli = 1001;
        assert!(p.validate().is_err());
    }

    #[test]
    fn new_state_marks_initial_rows_live_with_row_ids() {
        let st = MutationState::new(MutationPolicy::with_capacity(6), 4);
        assert_eq!(
            st.slots[..4],
            vec![SlotState::Live(0), SlotState::Live(1), SlotState::Live(2), SlotState::Live(3)][..]
        );
        assert_eq!(st.slots[4..], vec![SlotState::Free, SlotState::Free][..]);
        assert_eq!(st.live_len(), 4);
        assert_eq!(st.tombstones(), 0);
        assert_eq!(st.choose_insert_slot(), Some(4));
    }

    #[test]
    fn slot_choice_is_coldest_free_under_leveling_lowest_index_otherwise() {
        let live = SlotState::Live(0);
        let slots = [live, live, SlotState::Free, SlotState::Free, SlotState::Free];
        let cycles = [9, 9, 3, 1, 2];
        let mut policy = MutationPolicy::with_capacity(5);
        let mut st = state(policy, &slots, &cycles);
        assert_eq!(st.choose_insert_slot(), Some(3), "coldest free slot wins");
        policy.wear_leveling = false;
        assert_eq!(state(policy, &slots, &cycles).choose_insert_slot(), Some(2));
        st.set_wear_leveling(false);
        assert_eq!(st.choose_insert_slot(), Some(2), "lowest free index wins");
        for i in 2..5 {
            st.set_slot(i, live);
        }
        assert_eq!(st.choose_insert_slot(), None);
    }

    #[test]
    fn hottest_live_slot_breaks_ties_to_the_lowest_index() {
        let policy = MutationPolicy::with_capacity(4);
        let live = [SlotState::Live(0), SlotState::Live(1), SlotState::Live(2), SlotState::Free];
        assert_eq!(state(policy, &live, &[5, 5, 2, 0]).hottest_live_slot(), Some(0));
        assert_eq!(state(policy, &live, &[1, 5, 2, 0]).hottest_live_slot(), Some(1));
    }

    #[test]
    fn auto_compaction_threshold_is_a_per_mille_fraction() {
        let mut st = MutationState::new(MutationPolicy::with_capacity(8), 8);
        assert!(!st.should_auto_compact());
        st.set_slot(0, SlotState::Dead);
        assert!(!st.should_auto_compact(), "1/8 = 125 milli < 250");
        st.set_slot(1, SlotState::Dead);
        assert!(st.should_auto_compact(), "2/8 = 250 milli hits the threshold");
        let mut off = MutationPolicy::with_capacity(8);
        off.compact_tombstone_milli = 0;
        let dead = [SlotState::Dead; 8];
        assert!(!state(off, &dead, &[0; 8]).should_auto_compact(), "0 disables the trigger");
    }

    #[test]
    fn wear_summary_percentiles_and_imbalance() {
        let live = [SlotState::Live(0); 4];
        let w = state(MutationPolicy::with_capacity(4), &live, &[1, 1, 2, 8]).wear();
        assert_eq!(w.max_cycles, 8);
        assert_eq!(w.mean_milli, 3000);
        assert_eq!(w.p50_cycles, 1);
        assert_eq!(w.p90_cycles, 8);
        assert_eq!(w.total_writes, 12);
        // 8 / 3.0 = 2.666… → 2666 milli.
        assert_eq!(w.imbalance_milli(), 2666);
        assert_eq!(WearSummary::default().imbalance_milli(), 0);
    }

    proptest! {
        /// The free-slot index and the tombstone count answer exactly as
        /// scans of the slot table do, through arbitrary sequences of
        /// slot-state writes (in and out of range), write cycles,
        /// compactions and leveling switches.
        #[test]
        fn indexes_answer_as_the_slot_table_scans(
            capacity in 1usize..10,
            initial in 0usize..12,
            leveling in any::<bool>(),
            ops in prop::collection::vec((0u8..6, 0usize..12, 0u64..4), 0..64),
        ) {
            let mut policy = MutationPolicy::with_capacity(capacity);
            policy.wear_leveling = leveling;
            let mut st = MutationState::new(policy, initial);
            for &(kind, slot, id) in &ops {
                match kind {
                    0 | 1 => st.bump_cycles(slot),
                    2 => st.set_slot(slot, SlotState::Free),
                    3 => st.set_slot(slot, SlotState::Dead),
                    4 => st.set_slot(slot, SlotState::Live(id)),
                    _ if id == 0 => {
                        let flipped = !st.policy.wear_leveling;
                        st.set_wear_leveling(flipped);
                    }
                    _ => {
                        let dead: Vec<usize> = (0..capacity)
                            .filter(|&i| st.slots[i] == SlotState::Dead)
                            .collect();
                        prop_assert_eq!(st.reclaim_tombstones(), dead);
                    }
                }
                prop_assert_eq!(st.choose_insert_slot(), scanned_insert_slot(&st));
                prop_assert_eq!(st.tombstones(), scanned_tombstones(&st));
                let free = st.slots.iter().filter(|s| matches!(s, SlotState::Free)).count();
                prop_assert_eq!(st.free.len(), free);
            }
        }
    }
}
