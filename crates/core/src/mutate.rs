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
//! — never of the repair row map — so two arrays (or the per-dimension
//! tiles of a [`TiledArray`](crate::tile::TiledArray)) fed the same
//! mutation sequence always converge to the same layout.

use crate::error::FerexError;
use std::collections::BTreeMap;

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
/// arrays own one and expose typed accessors.
#[derive(Debug, Clone)]
pub(crate) struct MutationState {
    pub(crate) policy: MutationPolicy,
    /// One entry per physical slot (row) — `slots.len() == capacity`.
    pub(crate) slots: Vec<SlotState>,
    /// Logical id → slot index. A `BTreeMap` so iteration order is the id
    /// order — deterministic, per the serving-crate lint rules.
    pub(crate) id_to_slot: BTreeMap<u64, usize>,
    /// Mutation-path write attempts per physical slot.
    pub(crate) row_cycles: Vec<u64>,
    /// Compaction passes run.
    pub(crate) compactions: u64,
    /// Lifetime mutation-path write attempts.
    pub(crate) writes: u64,
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
            compactions: 0,
            writes: 0,
        }
    }

    pub(crate) fn live_len(&self) -> usize {
        self.id_to_slot.len()
    }

    pub(crate) fn tombstones(&self) -> usize {
        self.slots.iter().filter(|s| matches!(s, SlotState::Dead)).count()
    }

    pub(crate) fn is_live(&self, slot: usize) -> bool {
        matches!(self.slots.get(slot), Some(SlotState::Live(_)))
    }

    /// The slot an insert (or out-of-place update) should write: with wear
    /// leveling the coldest free slot (ties to the lowest index), without
    /// it the lowest-index free slot. Depends only on `(slots, cycles)` —
    /// never on repair-map state — so independent tiles and replicas fed
    /// the same operations choose identically.
    pub(crate) fn choose_insert_slot(&self) -> Option<usize> {
        let free = self
            .slots
            .iter()
            .enumerate()
            .filter(|(_, s)| matches!(s, SlotState::Free))
            .map(|(i, _)| i);
        if self.policy.wear_leveling {
            free.min_by_key(|&i| (self.row_cycles.get(i).copied().unwrap_or(0), i))
        } else {
            free.min_by_key(|&i| i)
        }
    }

    /// The hottest live slot (max cycles, ties to the lowest index) — the
    /// rotation source of [`maintenance`](crate::array::FerexArray::maintenance).
    pub(crate) fn hottest_live_slot(&self) -> Option<usize> {
        self.slots
            .iter()
            .enumerate()
            .filter(|(_, s)| matches!(s, SlotState::Live(_)))
            .map(|(i, _)| i)
            .max_by_key(|&i| (self.row_cycles.get(i).copied().unwrap_or(0), usize::MAX - i))
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
            .min_by_key(|&i| (self.row_cycles.get(i).copied().unwrap_or(0), i))
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
            .max_by_key(|&i| (self.row_cycles.get(i).copied().unwrap_or(0), usize::MAX - i))
    }

    /// The wear-leveling rotation worth doing now, as `(src, dst)`: either
    /// the hottest live row onto the coldest free slot (dynamic leveling —
    /// a hot id stops grinding its home row) or the coldest live row onto
    /// the hottest free slot (static leveling — a worn slot retires under
    /// cold data and the barely-worn slot it vacates joins the write
    /// pool). Picks whichever closes the larger cycle gap; gaps of one
    /// cycle are noise. `None` when leveling is off or no move helps.
    /// A pure function of `(slots, cycles)`, so tiles and replicas agree.
    pub(crate) fn rotation_candidate(&self) -> Option<(usize, usize)> {
        if !self.policy.wear_leveling {
            return None;
        }
        let cycles = |s: usize| self.row_cycles.get(s).copied().unwrap_or(0);
        let dynamic = match (self.hottest_live_slot(), self.choose_insert_slot()) {
            (Some(src), Some(dst)) => {
                let gap = cycles(src).saturating_sub(cycles(dst));
                (gap > 1).then_some((src, dst, gap))
            }
            _ => None,
        };
        let stat = match (self.coldest_live_slot(), self.hottest_free_slot()) {
            (Some(src), Some(dst)) => {
                let gap = cycles(dst).saturating_sub(cycles(src));
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
        let rank = |p: usize| {
            // Nearest-rank percentile over the sorted cycle counts.
            let idx = (p * n).div_ceil(100).clamp(1, n) - 1;
            sorted.get(idx).copied().unwrap_or(0)
        };
        WearSummary {
            max_cycles: sorted.last().copied().unwrap_or(0),
            mean_milli: total.saturating_mul(1000) / n as u64,
            p50_cycles: rank(50),
            p90_cycles: rank(90),
            total_writes: self.writes,
            compactions: self.compactions,
        }
    }
}

/// The mutation API shared by [`FerexArray`](crate::array::FerexArray),
/// [`TiledArray`](crate::tile::TiledArray) and (through forwarding)
/// [`ReplicaSet`](crate::replica::ReplicaSet): logical-id keyed
/// insert/update/delete, compaction, and the wear surface.
pub trait MutableNode {
    /// Inserts a new `(id, vector)` pair, programming exactly one row.
    ///
    /// # Errors
    ///
    /// [`FerexError::DuplicateId`] when `id` is live;
    /// [`FerexError::CapacityExhausted`] when no slot can be freed;
    /// validation and (strict-mode) write-verify errors.
    fn insert(&mut self, id: u64, vector: Vec<u32>) -> Result<(), FerexError>;
    /// Replaces the vector of a live `id` — out of place (onto the coldest
    /// free slot, tombstoning the old one) under wear leveling, in place
    /// otherwise.
    ///
    /// # Errors
    ///
    /// [`FerexError::UnknownId`]; validation and write-verify errors.
    fn update(&mut self, id: u64, vector: Vec<u32>) -> Result<(), FerexError>;
    /// Tombstones a live `id`. Purely logical — no physical write.
    ///
    /// # Errors
    ///
    /// [`FerexError::UnknownId`].
    fn delete(&mut self, id: u64) -> Result<(), FerexError>;
    /// Reclaims every tombstoned slot to `Free`. Deterministic and purely
    /// logical, so it cannot fail or diverge across tiles/replicas.
    fn compact(&mut self) -> CompactionReport;
    /// One background maintenance step: auto-compaction at the policy
    /// threshold plus (under wear leveling) at most one hot→cold row
    /// rotation. Meant to run on the scrub cadence.
    fn maintenance(&mut self) -> CompactionReport;
    /// The slot currently serving `id`, if live.
    fn slot_of(&self, id: u64) -> Option<usize>;
    /// The stored vector of a live `id` (owned — tiled nodes reassemble
    /// it across per-dimension chunks).
    fn vector_of(&self, id: u64) -> Option<Vec<u32>>;
    /// Live logical ids, ascending.
    fn live_ids(&self) -> Vec<u64>;
    /// Count of live ids.
    fn live_len(&self) -> usize;
    /// Count of tombstoned slots awaiting compaction.
    fn tombstones(&self) -> usize;
    /// The wear distribution across physical slots.
    fn wear(&self) -> WearSummary;
}

#[cfg(test)]
mod tests {
    use super::*;

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
    }

    #[test]
    fn slot_choice_is_coldest_free_under_leveling_lowest_index_otherwise() {
        let mut st = MutationState::new(MutationPolicy::with_capacity(5), 2);
        st.row_cycles = vec![9, 9, 3, 1, 2];
        assert_eq!(st.choose_insert_slot(), Some(3), "coldest free slot wins");
        st.policy.wear_leveling = false;
        assert_eq!(st.choose_insert_slot(), Some(2), "lowest free index wins");
        st.slots = vec![SlotState::Live(0); 5];
        assert_eq!(st.choose_insert_slot(), None);
    }

    #[test]
    fn hottest_live_slot_breaks_ties_to_the_lowest_index() {
        let mut st = MutationState::new(MutationPolicy::with_capacity(4), 3);
        st.row_cycles = vec![5, 5, 2, 0];
        assert_eq!(st.hottest_live_slot(), Some(0));
        st.row_cycles = vec![1, 5, 2, 0];
        assert_eq!(st.hottest_live_slot(), Some(1));
    }

    #[test]
    fn auto_compaction_threshold_is_a_per_mille_fraction() {
        let mut st = MutationState::new(MutationPolicy::with_capacity(8), 8);
        assert!(!st.should_auto_compact());
        st.slots[0] = SlotState::Dead;
        assert!(!st.should_auto_compact(), "1/8 = 125 milli < 250");
        st.slots[1] = SlotState::Dead;
        assert!(st.should_auto_compact(), "2/8 = 250 milli hits the threshold");
        st.policy.compact_tombstone_milli = 0;
        assert!(!st.should_auto_compact(), "0 disables the trigger");
    }

    #[test]
    fn wear_summary_percentiles_and_imbalance() {
        let mut st = MutationState::new(MutationPolicy::with_capacity(4), 4);
        st.row_cycles = vec![1, 1, 2, 8];
        st.writes = 12;
        let w = st.wear();
        assert_eq!(w.max_cycles, 8);
        assert_eq!(w.mean_milli, 3000);
        assert_eq!(w.p50_cycles, 1);
        assert_eq!(w.p90_cycles, 8);
        assert_eq!(w.total_writes, 12);
        // 8 / 3.0 = 2.666… → 2666 milli.
        assert_eq!(w.imbalance_milli(), 2666);
        assert_eq!(WearSummary::default().imbalance_milli(), 0);
    }
}
