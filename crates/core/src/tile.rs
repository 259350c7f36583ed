//! Tiled arrays: vectors wider than one physical crossbar.
//!
//! A practical FeReX macro is bounded to a few hundred physical columns by
//! ScL settling and IR drop, but application vectors (HDC hypervectors,
//! image features) span thousands of symbols. The standard CiM answer is
//! tiling: the vector is split across several arrays operating in parallel;
//! each tile senses its partial row currents, a per-tile ADC digitizes
//! them, and a digital accumulator sums partial distances before the final
//! argmin. This module implements that organization on top of
//! [`FerexArray`], preserving the per-tile analog error behavior of
//! whichever backend the tiles use.

use crate::array::{Backend, FerexArray, SearchOutcome};
use crate::distance::DistanceMetric;
use crate::dm::DistanceMatrix;
use crate::encoding::CellEncoding;
use crate::engine::sizing_for;
use crate::error::FerexError;
use crate::health::{HealthSnapshot, ProgramReport, RepairPolicy, RowHealth, ScrubReport};
use crate::mutate::{CompactionReport, MutableNode, MutationPolicy, SlotState, WearSummary};
use crate::sizing::find_minimal_cell;
use ferex_fefet::math::splitmix64;
use ferex_fefet::Technology;

/// Derives the variation seed for tile `t` from a base seed.
///
/// Both inputs pass through the SplitMix64 avalanche mix before combining,
/// so the derived seeds for *any* two `(seed, tile)` pairs are
/// decorrelated. The previous affine derivation
/// (`(seed + t) · 0x9E37_79B9`) made base seed `s` with tile `t+1` collide
/// with base seed `s+1` at tile `t` — Monte-Carlo sweeps over consecutive
/// seeds silently shared most of their per-tile variation draws.
pub fn derive_tile_seed(seed: u64, t: usize) -> u64 {
    splitmix64(seed ^ splitmix64(t as u64))
}

/// A logical array built from several physical tiles.
///
/// Vectors of `dim` symbols are split into `ceil(dim / tile_dim)` tiles;
/// the last tile is zero-padded (symbol 0 against symbol 0 contributes zero
/// distance under any metric-like DM, so padding is free).
///
/// # Examples
///
/// ```
/// use ferex_core::tile::TiledArray;
/// use ferex_core::sizing::{find_minimal_cell, SizingOptions};
/// use ferex_core::{Backend, DistanceMatrix, DistanceMetric};
/// use ferex_fefet::Technology;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let dm = DistanceMatrix::from_metric(DistanceMetric::Hamming, 2);
/// let enc = find_minimal_cell(&dm, &SizingOptions::default())?.encoding;
/// let mut tiled = TiledArray::new(Technology::default(), enc, 10, 4, Backend::Ideal);
/// tiled.store(vec![0, 1, 2, 3, 0, 1, 2, 3, 0, 1])?;
/// tiled.program();
/// let out = tiled.search(&[0, 1, 2, 3, 0, 1, 2, 3, 0, 1])?;
/// assert_eq!(out.distances[0], 0.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct TiledArray {
    tiles: Vec<FerexArray>,
    dim: usize,
    tile_dim: usize,
}

impl TiledArray {
    /// Creates an empty tiled array.
    ///
    /// Each tile gets its own backend instance; for stochastic backends the
    /// per-tile seed is derived from the base seed with an avalanche mix
    /// (see [`derive_tile_seed`]) so tiles carry independent variation and
    /// adjacent *base* seeds cannot produce overlapping per-tile streams.
    /// Fault maps ([`ferex_fefet::FaultPlan`]) key off the same derived
    /// seed, so a non-benign plan in the config faults independent cell
    /// sets per tile with no extra plumbing.
    ///
    /// # Panics
    ///
    /// Panics if `dim == 0` or `tile_dim == 0`.
    pub fn new(
        tech: Technology,
        encoding: CellEncoding,
        dim: usize,
        tile_dim: usize,
        backend: Backend,
    ) -> Self {
        assert!(dim > 0, "vector dimension must be positive");
        assert!(tile_dim > 0, "tile dimension must be positive");
        let n_tiles = dim.div_ceil(tile_dim);
        let tiles = (0..n_tiles)
            .map(|t| {
                let tile_backend = match &backend {
                    Backend::Ideal => Backend::Ideal,
                    Backend::Circuit(c) => {
                        let mut c = c.clone();
                        c.seed = derive_tile_seed(c.seed, t);
                        Backend::Circuit(c)
                    }
                    Backend::Noisy(c) => {
                        let mut c = c.clone();
                        c.seed = derive_tile_seed(c.seed, t);
                        Backend::Noisy(c)
                    }
                };
                FerexArray::new(tech.clone(), encoding.clone(), tile_dim, tile_backend)
            })
            .collect();
        TiledArray { tiles, dim, tile_dim }
    }

    /// Convenience constructor: runs the CSP sizing pipeline for `metric`
    /// over `bits`-bit symbols and builds the tiled array from the derived
    /// encoding.
    ///
    /// # Errors
    ///
    /// Encoding-pipeline failures.
    pub fn for_metric(
        metric: DistanceMetric,
        bits: u32,
        dim: usize,
        tile_dim: usize,
        backend: Backend,
        tech: Technology,
    ) -> Result<Self, FerexError> {
        let dm = DistanceMatrix::from_metric(metric, bits);
        let report = find_minimal_cell(&dm, &sizing_for(&tech))?;
        Ok(TiledArray::new(tech, report.encoding, dim, tile_dim, backend))
    }

    /// Reconfigures every tile to a new encoding (metric switch), keeping
    /// stored data.
    ///
    /// # Errors
    ///
    /// Validation errors if stored symbols exceed the new encoding's range.
    /// No rollback is attempted: the first failing tile aborts the loop and
    /// earlier tiles keep the new encoding. In practice the operation is
    /// still all-or-nothing, because every tile holds the same symbol
    /// alphabet — if any tile rejects the encoding, the first one already
    /// did, before anything changed.
    pub fn reconfigure(&mut self, encoding: CellEncoding) -> Result<(), FerexError> {
        for tile in &mut self.tiles {
            tile.reconfigure(encoding.clone())?;
        }
        Ok(())
    }

    /// Total logical dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Symbols per tile.
    pub fn tile_dim(&self) -> usize {
        self.tile_dim
    }

    /// Number of physical tiles.
    pub fn n_tiles(&self) -> usize {
        self.tiles.len()
    }

    /// Number of stored vectors.
    pub fn len(&self) -> usize {
        self.tiles.first().map_or(0, FerexArray::len)
    }

    /// `true` if nothing is stored.
    pub fn is_empty(&self) -> bool {
        self.tiles.first().is_none_or(FerexArray::is_empty)
    }

    /// Read-only access to the tiles (for cost accounting).
    pub fn tiles(&self) -> &[FerexArray] {
        &self.tiles
    }

    fn split(&self, vector: &[u32]) -> Vec<Vec<u32>> {
        (0..self.tiles.len()).map(|t| self.chunk(vector, t)).collect()
    }

    /// Tile `t`'s slice of `vector`, zero-padded to `tile_dim` (only the
    /// last tile is ever short).
    fn chunk(&self, vector: &[u32], t: usize) -> Vec<u32> {
        let start = t * self.tile_dim;
        let end = (start + self.tile_dim).min(vector.len());
        let mut chunk = vector.get(start..end).unwrap_or_default().to_vec();
        chunk.resize(self.tile_dim, 0);
        chunk
    }

    /// Stores one vector, one slice per tile. All-or-nothing: every chunk
    /// is validated against its tile before any tile is mutated, so a
    /// failed store leaves the whole array (and the tiles' row alignment)
    /// untouched.
    ///
    /// # Errors
    ///
    /// Dimension/symbol validation errors.
    pub fn store(&mut self, vector: Vec<u32>) -> Result<(), FerexError> {
        if vector.len() != self.dim {
            return Err(FerexError::DimensionMismatch { expected: self.dim, got: vector.len() });
        }
        let chunks = self.split(&vector);
        for (tile, chunk) in self.tiles.iter().zip(&chunks) {
            tile.validate(chunk)?;
        }
        for (tile, chunk) in self.tiles.iter_mut().zip(chunks) {
            // Every chunk passed validate() above, so these stores cannot
            // fail; propagating keeps the path panic-free regardless.
            tile.store(chunk)?;
        }
        Ok(())
    }

    /// Programs every tile (crossbar cells or variation samples) for the
    /// current contents. Idempotent, like [`FerexArray::program`]; required
    /// after mutation before the `&self` read path will serve stochastic
    /// backends.
    pub fn program(&mut self) {
        for tile in &mut self.tiles {
            tile.program();
        }
    }

    /// `true` when every tile's physical state matches its contents.
    pub fn is_programmed(&self) -> bool {
        self.tiles.iter().all(FerexArray::is_programmed)
    }

    /// Per-row total distances: per-tile sensed partials, digitally
    /// accumulated — [`TiledArray::distances_batch`] on a batch of one.
    ///
    /// # Errors
    ///
    /// As [`FerexArray::distances`] (including
    /// [`FerexError::NotProgrammed`] for stale stochastic tiles).
    pub fn distances(&self, query: &[u32]) -> Result<Vec<f64>, FerexError> {
        let mut batch = self.distances_batch(&[query.to_vec()])?;
        batch.pop().ok_or(FerexError::Empty)
    }

    /// Accumulated distances for every query of a batch, served through
    /// each tile's [`FerexArray::distances_batch`] — so every tile
    /// independently dispatches to its kernel (bit-plane popcount,
    /// contiguous LUT, the Noisy first-ON kernel, or the per-query Circuit
    /// solve; see [`FerexArray::batch_kernel`]). Partials accumulate in tile order per
    /// row, so a query's totals do not depend on the batch it rides in.
    ///
    /// # Errors
    ///
    /// As [`FerexArray::distances_batch`], after a dimension check against
    /// the full vector width.
    pub fn distances_batch(&self, queries: &[Vec<u32>]) -> Result<Vec<Vec<f64>>, FerexError> {
        // An empty batch asks for nothing: answer it before any state
        // checks, matching [`FerexArray::distances_batch`].
        if queries.is_empty() {
            return Ok(Vec::new());
        }
        for q in queries {
            if q.len() != self.dim {
                return Err(FerexError::DimensionMismatch { expected: self.dim, got: q.len() });
            }
        }
        if self.is_empty() {
            return Err(FerexError::Empty);
        }
        let mut totals = vec![vec![0.0f64; self.len()]; queries.len()];
        for (t, tile) in self.tiles.iter().enumerate() {
            let tile_queries: Vec<Vec<u32>> = queries.iter().map(|q| self.chunk(q, t)).collect();
            let partials = tile.distances_batch(&tile_queries)?;
            for (query_totals, partial) in totals.iter_mut().zip(partials) {
                for (total, p) in query_totals.iter_mut().zip(partial) {
                    *total += p;
                }
            }
        }
        Ok(totals)
    }

    fn digital_argmin(distances: Vec<f64>) -> Result<SearchOutcome, FerexError> {
        // A row quarantined in any tile accumulates an infinite total and
        // can never win; with every row quarantined there is no neighbor.
        if !distances.iter().any(|d| d.is_finite()) {
            return Err(FerexError::Empty);
        }
        let nearest = distances
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| a.total_cmp(b))
            .map(|(i, _)| i)
            .ok_or(FerexError::Empty)?;
        Ok(SearchOutcome { distances, nearest })
    }

    /// One search: accumulated distances plus a digital argmin (after the
    /// per-tile ADCs, the final comparison is digital and exact; analog
    /// error lives in the per-tile partials).
    ///
    /// # Errors
    ///
    /// As [`TiledArray::distances`].
    pub fn search(&self, query: &[u32]) -> Result<SearchOutcome, FerexError> {
        Self::digital_argmin(self.distances(query)?)
    }

    /// Searches a whole batch; equivalent to a loop of
    /// [`TiledArray::search`] calls (the cross-tile argmin is digital and
    /// deterministic), with distances served through the per-tile batched
    /// fast path.
    ///
    /// # Errors
    ///
    /// As [`TiledArray::distances_batch`].
    pub fn search_batch(&self, queries: &[Vec<u32>]) -> Result<Vec<SearchOutcome>, FerexError> {
        let distances = self.distances_batch(queries)?;
        distances.into_iter().map(Self::digital_argmin).collect()
    }

    fn rank_k(distances: &[f64], k: usize) -> Result<Vec<usize>, FerexError> {
        let active = distances.iter().filter(|d| d.is_finite()).count();
        if k == 0 || k > active {
            return Err(FerexError::InvalidK { k, rows: active });
        }
        let mut order: Vec<(usize, f64)> = distances.iter().copied().enumerate().collect();
        order.sort_by(|(a, da), (b, db)| da.total_cmp(db).then(a.cmp(b)));
        Ok(order.into_iter().take(k).map(|(row, _)| row).collect())
    }

    /// The `k` nearest rows by accumulated distance.
    ///
    /// # Errors
    ///
    /// As [`TiledArray::search`]; [`FerexError::InvalidK`] if `k` is zero
    /// or exceeds the stored count.
    pub fn search_k(&self, query: &[u32], k: usize) -> Result<Vec<usize>, FerexError> {
        let distances = self.distances(query)?;
        Self::rank_k(&distances, k)
    }

    /// The `k` nearest rows for every query of a batch.
    ///
    /// # Errors
    ///
    /// As [`TiledArray::distances_batch`] and [`TiledArray::search_k`].
    pub fn search_k_batch(
        &self,
        queries: &[Vec<u32>],
        k: usize,
    ) -> Result<Vec<Vec<usize>>, FerexError> {
        let distances = self.distances_batch(queries)?;
        distances.iter().map(|d| Self::rank_k(d, k)).collect()
    }

    /// Installs the same repair policy on every tile: each tile reserves
    /// its own spare and sentinel rows and heals independently (a logical
    /// row is served only while every tile serves its slice).
    ///
    /// # Errors
    ///
    /// [`FerexError::InvalidPolicy`] if any knob is out of range; no tile
    /// is changed (the policy is validated before installation starts).
    pub fn set_repair_policy(&mut self, policy: RepairPolicy) -> Result<(), FerexError> {
        policy.validate()?;
        for tile in &mut self.tiles {
            tile.set_repair_policy(policy.clone())?;
        }
        Ok(())
    }

    /// Programs and write-verifies every tile; returns one
    /// [`ProgramReport`] per tile (tile order).
    ///
    /// # Errors
    ///
    /// As [`FerexArray::program_verified`] — the first failing tile aborts
    /// the loop (only meaningful under a strict policy).
    pub fn program_verified(&mut self) -> Result<Vec<ProgramReport>, FerexError> {
        self.tiles.iter_mut().map(FerexArray::program_verified).collect()
    }

    /// Runs one scrub pass on every tile; returns one [`ScrubReport`] per
    /// tile (tile order).
    ///
    /// # Errors
    ///
    /// As [`FerexArray::scrub`].
    pub fn scrub(&mut self) -> Result<Vec<ScrubReport>, FerexError> {
        self.tiles.iter_mut().map(FerexArray::scrub).collect()
    }

    /// Quarantines one logical row in every tile, remapping each tile's
    /// slice onto that tile's spare pool. Returns the spare physical index
    /// chosen per tile.
    ///
    /// # Errors
    ///
    /// [`FerexError::SparesExhausted`] if any tile ran out of spares — the
    /// remaining tiles are still processed first, and the row ends up
    /// excluded from search (an infinite partial in one tile makes the
    /// accumulated total infinite).
    pub fn quarantine_row(&mut self, row: usize) -> Result<Vec<usize>, FerexError> {
        let mut spares = Vec::with_capacity(self.tiles.len());
        let mut first_err = None;
        for tile in &mut self.tiles {
            match tile.quarantine_row(row) {
                Ok(spare) => spares.push(spare),
                Err(e) => first_err = first_err.or(Some(e)),
            }
        }
        match first_err {
            Some(e) => Err(e),
            None => Ok(spares),
        }
    }

    /// Aggregated health across tiles: counters and spare occupancy are
    /// summed; a logical row counts as active only while no tile has it
    /// quarantined.
    pub fn health(&self) -> HealthSnapshot {
        let mut agg = HealthSnapshot::default();
        for tile in &self.tiles {
            let h = tile.health();
            agg.counters.rows_quarantined += h.counters.rows_quarantined;
            agg.counters.repairs_attempted += h.counters.repairs_attempted;
            agg.counters.repairs_succeeded += h.counters.repairs_succeeded;
            agg.counters.cells_given_up += h.counters.cells_given_up;
            agg.counters.scrubs_completed += h.counters.scrubs_completed;
            agg.counters.last_scrub_seconds =
                agg.counters.last_scrub_seconds.max(h.counters.last_scrub_seconds);
            agg.spare_rows += h.spare_rows;
            agg.spares_in_use += h.spares_in_use;
            agg.spares_burned += h.spares_burned;
        }
        for row in 0..self.len() {
            match self.row_health(row) {
                RowHealth::Quarantined => agg.rows_quarantined_now += 1,
                RowHealth::Remapped { .. } => {
                    agg.rows_active += 1;
                    agg.rows_remapped_now += 1;
                }
                RowHealth::Healthy => agg.rows_active += 1,
            }
        }
        agg
    }

    // ------------------------------------------------------------------
    // Online mutation: tiles advance in lockstep.
    //
    // Every slot decision (insert target, rotation candidate, compaction
    // trigger) is a pure function of the slot table and the per-slot
    // cycle counts, and both are kept bit-identical across tiles: every
    // physical write is *attempted on every tile* before any tile commits
    // a logical change (so cycle counters advance together even when a
    // write fails), and logical commits are infallible. A failed
    // delta-program on one tile therefore rolls the whole mutation back —
    // no sibling tile is left mutated (the PR 1/PR 2 store-atomicity
    // guarantee, extended to incremental mutation).
    // ------------------------------------------------------------------

    /// Switches every tile to online-mutation mode with the same policy
    /// and slot capacity (see [`FerexArray::enable_mutation`]).
    /// All-or-nothing: validated before any tile changes.
    ///
    /// # Errors
    ///
    /// As [`FerexArray::enable_mutation`].
    pub fn enable_mutation(&mut self, policy: MutationPolicy) -> Result<(), FerexError> {
        policy.validate()?;
        if self.tiles.iter().any(FerexArray::mutation_enabled) {
            return Err(FerexError::InvalidPolicy { what: "mutation is already enabled" });
        }
        if self.len() > policy.capacity {
            return Err(FerexError::InvalidPolicy {
                what: "mutation capacity below the stored row count",
            });
        }
        for tile in &mut self.tiles {
            tile.enable_mutation(policy)?;
        }
        Ok(())
    }

    /// `true` once [`TiledArray::enable_mutation`] succeeded.
    pub fn mutation_enabled(&self) -> bool {
        self.tiles.iter().all(FerexArray::mutation_enabled)
    }

    /// The logical id slot `slot` serves, when live (identical on every
    /// tile).
    pub fn id_at(&self, slot: usize) -> Option<u64> {
        self.tiles.first().and_then(|t| t.id_at(slot))
    }

    /// Occupancy of physical slot `slot` (identical on every tile).
    pub fn slot_state(&self, slot: usize) -> Option<SlotState> {
        self.tiles.first().and_then(|t| t.slot_state(slot))
    }

    /// The stored full-width vector of a live logical id, re-assembled
    /// from the per-tile slices (trailing zero padding trimmed).
    pub fn vector_of(&self, id: u64) -> Option<Vec<u32>> {
        self.row_vector(self.tiles.first()?.slot_of(id)?)
    }

    /// Row `row`'s full-width contents, re-assembled from the per-tile
    /// slices (trailing zero padding trimmed); `None` past the last row.
    pub(crate) fn row_vector(&self, row: usize) -> Option<Vec<u32>> {
        let mut out = Vec::with_capacity(self.dim);
        for tile in &self.tiles {
            out.extend(tile.row_vector(row)?);
        }
        out.truncate(self.dim);
        Some(out)
    }

    fn mutation_required(&self) -> Result<&FerexArray, FerexError> {
        match self.tiles.first() {
            Some(t) if t.mutation_enabled() => Ok(t),
            _ => Err(FerexError::InvalidPolicy { what: "mutation is not enabled on this array" }),
        }
    }

    /// Phase one of a coordinated mutation: write `chunks` into `slot` on
    /// *every* tile — never aborting early, so the per-slot cycle counters
    /// advance in lockstep across tiles — then roll every tile back if any
    /// write failed. Returns the first error; on error no tile has a
    /// logical change and the prepared slot holds zeros everywhere.
    fn prepare_slot_on_all_tiles(
        &mut self,
        slot: usize,
        chunks: &[Vec<u32>],
    ) -> Result<(), FerexError> {
        let mut first_err = None;
        for (tile, chunk) in self.tiles.iter_mut().zip(chunks) {
            tile.mutation_set_contents(slot, chunk);
            if let Err(e) = tile.mutation_write_slot(slot) {
                first_err = first_err.or(Some(e));
            }
        }
        if let Some(e) = first_err {
            let zeros = vec![0; self.tile_dim];
            for tile in &mut self.tiles {
                tile.mutation_set_contents(slot, &zeros);
            }
            return Err(e);
        }
        Ok(())
    }

    fn maybe_auto_compact_all(&mut self) {
        if self
            .tiles
            .first()
            .and_then(FerexArray::mutation_state)
            .is_some_and(crate::mutate::MutationState::should_auto_compact)
        {
            self.compact();
        }
    }

    /// Inserts a new `(id, vector)` pair across every tile, atomically:
    /// the slot choice comes from the (tile-identical) slot table, every
    /// tile prepares its slice through the write-verify path, and only
    /// when all tiles settle does the slot flip live.
    ///
    /// # Errors
    ///
    /// As [`FerexArray::insert`]; on error no tile is mutated.
    pub fn insert(&mut self, id: u64, vector: Vec<u32>) -> Result<(), FerexError> {
        if vector.len() != self.dim {
            return Err(FerexError::DimensionMismatch { expected: self.dim, got: vector.len() });
        }
        let chunks = self.split(&vector);
        for (tile, chunk) in self.tiles.iter().zip(&chunks) {
            tile.validate(chunk)?;
        }
        let m = self
            .mutation_required()?
            .mutation_state()
            .ok_or(FerexError::InvalidPolicy { what: "mutation is not enabled on this array" })?;
        if m.id_to_slot.contains_key(&id) {
            return Err(FerexError::DuplicateId { id });
        }
        let capacity = m.policy.capacity;
        let slot = match m.choose_insert_slot() {
            Some(s) => s,
            None if m.tombstones() > 0 => {
                self.compact();
                self.mutation_required()?
                    .mutation_state()
                    .and_then(crate::mutate::MutationState::choose_insert_slot)
                    .ok_or(FerexError::CapacityExhausted { capacity })?
            }
            None => return Err(FerexError::CapacityExhausted { capacity }),
        };
        self.prepare_slot_on_all_tiles(slot, &chunks)?;
        for tile in &mut self.tiles {
            tile.mutation_commit_live(id, slot);
        }
        Ok(())
    }

    /// Replaces the vector of live id `id` on every tile — out of place
    /// under wear leveling, in place (with rollback on failure) otherwise.
    ///
    /// # Errors
    ///
    /// As [`FerexArray::update_id`]; on error no tile is left mutated.
    pub fn update_id(&mut self, id: u64, vector: Vec<u32>) -> Result<(), FerexError> {
        if vector.len() != self.dim {
            return Err(FerexError::DimensionMismatch { expected: self.dim, got: vector.len() });
        }
        let chunks = self.split(&vector);
        for (tile, chunk) in self.tiles.iter().zip(&chunks) {
            tile.validate(chunk)?;
        }
        let m = self
            .mutation_required()?
            .mutation_state()
            .ok_or(FerexError::InvalidPolicy { what: "mutation is not enabled on this array" })?;
        let Some(&old) = m.id_to_slot.get(&id) else {
            return Err(FerexError::UnknownId { id });
        };
        let target = if m.policy.wear_leveling { m.choose_insert_slot() } else { None };
        match target {
            Some(new) if new != old => {
                self.prepare_slot_on_all_tiles(new, &chunks)?;
                for tile in &mut self.tiles {
                    tile.mutation_commit_move(id, old, new);
                }
                self.maybe_auto_compact_all();
                Ok(())
            }
            _ => {
                let previous: Vec<Vec<u32>> =
                    self.tiles.iter().map(|t| t.row_vector(old).unwrap_or_default()).collect();
                match self.prepare_slot_on_all_tiles(old, &chunks) {
                    Ok(()) => Ok(()),
                    Err(e) => {
                        // Roll the row back to its old contents on every
                        // tile (attempted everywhere: cycles stay lockstep).
                        for (tile, prev) in self.tiles.iter_mut().zip(previous) {
                            tile.mutation_set_contents(old, &prev);
                            let _ = tile.mutation_write_slot(old);
                        }
                        Err(e)
                    }
                }
            }
        }
    }

    /// Tombstones live id `id` on every tile — purely logical, infallible
    /// once the id resolves, so the tiles cannot diverge.
    ///
    /// # Errors
    ///
    /// [`FerexError::UnknownId`].
    pub fn delete(&mut self, id: u64) -> Result<(), FerexError> {
        self.mutation_required()?;
        let mut first_err = None;
        for tile in &mut self.tiles {
            if let Err(e) = tile.delete(id) {
                first_err = first_err.or(Some(e));
            }
        }
        match first_err {
            // The id resolves identically on every tile: an UnknownId on
            // one is an UnknownId on all, so nothing was tombstoned.
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// Compacts every tile (identical slot tables make this deterministic
    /// and tile-consistent); returns the first tile's report.
    pub fn compact(&mut self) -> CompactionReport {
        let mut report = CompactionReport::default();
        for (t, tile) in self.tiles.iter_mut().enumerate() {
            let r = tile.compact();
            if t == 0 {
                report = r;
            }
        }
        report
    }

    /// One background maintenance step, coordinated across tiles: compacts
    /// at the policy threshold, then performs at most one wear rotation —
    /// prepared on every tile before any tile commits, and abandoned with
    /// no logical change if any tile's delta write fails.
    pub fn maintenance(&mut self) -> CompactionReport {
        let mut report = CompactionReport::default();
        let Some(m) = self.tiles.first().and_then(FerexArray::mutation_state) else {
            return report;
        };
        if m.should_auto_compact() {
            report = self.compact();
        }
        let Some(m) = self.tiles.first().and_then(FerexArray::mutation_state) else {
            return report;
        };
        let Some((src, dst)) = m.rotation_candidate() else {
            return report;
        };
        let Some(SlotState::Live(id)) = m.slots.get(src).copied() else {
            return report;
        };
        let chunks: Vec<Vec<u32>> =
            self.tiles.iter().map(|t| t.row_vector(src).unwrap_or_default()).collect();
        if self.prepare_slot_on_all_tiles(dst, &chunks).is_err() {
            return report;
        }
        for tile in &mut self.tiles {
            tile.mutation_commit_move(id, src, dst);
        }
        report.rotated += 1;
        report
    }

    /// Global health of one logical row: quarantined if *any* tile dropped
    /// it, remapped if any tile serves it from a spare, healthy otherwise.
    /// (For a remapped row the reported spare index is the first remapping
    /// tile's — per-tile detail lives on [`TiledArray::tiles`].)
    pub fn row_health(&self, row: usize) -> RowHealth {
        let mut remapped = None;
        for tile in &self.tiles {
            match tile.row_health(row) {
                RowHealth::Quarantined => return RowHealth::Quarantined,
                RowHealth::Remapped { spare } => remapped = remapped.or(Some(spare)),
                RowHealth::Healthy => {}
            }
        }
        match remapped {
            Some(spare) => RowHealth::Remapped { spare },
            None => RowHealth::Healthy,
        }
    }
}

impl MutableNode for TiledArray {
    fn insert(&mut self, id: u64, vector: Vec<u32>) -> Result<(), FerexError> {
        TiledArray::insert(self, id, vector)
    }

    fn update(&mut self, id: u64, vector: Vec<u32>) -> Result<(), FerexError> {
        TiledArray::update_id(self, id, vector)
    }

    fn delete(&mut self, id: u64) -> Result<(), FerexError> {
        TiledArray::delete(self, id)
    }

    fn compact(&mut self) -> CompactionReport {
        TiledArray::compact(self)
    }

    fn maintenance(&mut self) -> CompactionReport {
        TiledArray::maintenance(self)
    }

    fn slot_of(&self, id: u64) -> Option<usize> {
        self.tiles.first().and_then(|t| t.slot_of(id))
    }

    fn vector_of(&self, id: u64) -> Option<Vec<u32>> {
        TiledArray::vector_of(self, id)
    }

    fn live_ids(&self) -> Vec<u64> {
        self.tiles.first().map(FerexArray::live_ids).unwrap_or_default()
    }

    fn live_len(&self) -> usize {
        self.tiles.first().map_or(0, FerexArray::live_len)
    }

    fn tombstones(&self) -> usize {
        self.tiles.first().map_or(0, FerexArray::tombstones)
    }

    fn wear(&self) -> WearSummary {
        // Lockstep tiles wear identically; the first tile speaks for all.
        self.tiles.first().map(FerexArray::wear).unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::array::CircuitConfig;
    use crate::distance::DistanceMetric;
    use crate::dm::DistanceMatrix;
    use crate::sizing::{find_minimal_cell, SizingOptions};

    fn encoding() -> CellEncoding {
        let dm = DistanceMatrix::from_metric(DistanceMetric::Hamming, 2);
        find_minimal_cell(&dm, &SizingOptions::default()).expect("sizes").encoding
    }

    fn data(dim: usize) -> Vec<Vec<u32>> {
        (0..4).map(|r| (0..dim).map(|d| ((r + d) % 4) as u32).collect()).collect()
    }

    #[test]
    fn tiled_ideal_matches_monolithic() {
        let dim = 13; // deliberately not a multiple of the tile size
        let enc = encoding();
        let mut mono = FerexArray::new(Technology::default(), enc.clone(), dim, Backend::Ideal);
        let mut tiled = TiledArray::new(Technology::default(), enc, dim, 4, Backend::Ideal);
        for v in data(dim) {
            mono.store(v.clone()).unwrap();
            tiled.store(v).unwrap();
        }
        let q: Vec<u32> = (0..dim).map(|d| (d % 3) as u32).collect();
        let dm = mono.search(&q).unwrap();
        let dt = tiled.search(&q).unwrap();
        assert_eq!(dm.distances, dt.distances);
        assert_eq!(dm.nearest, dt.nearest);
    }

    #[test]
    fn tile_count_and_padding() {
        let enc = encoding();
        let tiled = TiledArray::new(Technology::default(), enc, 10, 4, Backend::Ideal);
        assert_eq!(tiled.n_tiles(), 3);
        assert_eq!(tiled.dim(), 10);
        assert_eq!(tiled.tile_dim(), 4);
    }

    #[test]
    fn search_k_is_distance_ordered() {
        let dim = 8;
        let enc = encoding();
        let mut tiled = TiledArray::new(Technology::default(), enc, dim, 3, Backend::Ideal);
        tiled.store(vec![0; 8]).unwrap();
        tiled.store(vec![1; 8]).unwrap();
        tiled.store(vec![3; 8]).unwrap();
        let top = tiled.search_k(&[1; 8], 3).unwrap();
        assert_eq!(top[0], 1);
        // Hamming: d(1,0) = 1 per symbol (8 total), d(1,3) = 1 per symbol
        // (8 total) — tie breaks to the lower row.
        assert_eq!(top[1], 0);
        assert_eq!(top[2], 2);
    }

    #[test]
    fn noisy_tiles_carry_independent_variation() {
        let dim = 12;
        let enc = encoding();
        let cfg = CircuitConfig::default();
        let mut tiled =
            TiledArray::new(Technology::default(), enc, dim, 4, Backend::Noisy(Box::new(cfg)));
        tiled.store(vec![0; 12]).unwrap();
        tiled.program();
        // Query that turns every cell on: per-tile partials should differ
        // slightly (independent variation draws), never exactly match.
        let d = tiled.distances(&[3; 12]).unwrap();
        assert!(d[0] > 0.0);
        // Aggregate stays close to the ideal total (resistor clamp).
        let ideal = 12.0 * 2.0; // d(3,0) = 2 per symbol under 2-bit Hamming
        assert!((d[0] - ideal).abs() / ideal < 0.1, "total {d:?} vs ideal {ideal}");
    }

    #[test]
    fn for_metric_and_reconfigure() {
        let mut tiled = TiledArray::for_metric(
            DistanceMetric::Hamming,
            2,
            9,
            4,
            Backend::Ideal,
            Technology::default(),
        )
        .expect("sizes");
        tiled.store(vec![0, 1, 2, 3, 0, 1, 2, 3, 0]).unwrap();
        tiled.store(vec![3, 2, 1, 0, 3, 2, 1, 0, 3]).unwrap();
        let q = vec![0u32, 1, 2, 3, 0, 1, 2, 3, 1];
        let hd = tiled.search(&q).unwrap();
        assert_eq!(hd.nearest, 0);
        // Switch to Manhattan in place.
        let dm = DistanceMatrix::from_metric(DistanceMetric::Manhattan, 2);
        let enc = find_minimal_cell(&dm, &crate::SizingOptions::default()).unwrap().encoding;
        tiled.reconfigure(enc).unwrap();
        let l1 = tiled.search(&q).unwrap();
        assert_eq!(l1.nearest, 0);
        // Manhattan distances differ from Hamming on this data.
        assert_ne!(hd.distances, l1.distances);
        // And both match the software metric exactly (ideal backend).
        let m = DistanceMetric::Manhattan;
        let expected: Vec<f64> =
            [vec![0u32, 1, 2, 3, 0, 1, 2, 3, 0], vec![3, 2, 1, 0, 3, 2, 1, 0, 3]]
                .iter()
                .map(|s| m.vector_distance(&q, s) as f64)
                .collect();
        assert_eq!(l1.distances, expected);
    }

    #[test]
    fn dimension_validation() {
        let enc = encoding();
        let mut tiled = TiledArray::new(Technology::default(), enc, 10, 4, Backend::Ideal);
        assert!(matches!(
            tiled.store(vec![0; 9]),
            Err(FerexError::DimensionMismatch { expected: 10, got: 9 })
        ));
        assert!(matches!(tiled.search(&[0; 10]), Err(FerexError::Empty)));
    }

    #[test]
    fn failed_store_leaves_no_partial_rows() {
        // Regression: an out-of-range symbol in the SECOND tile's chunk
        // used to leave the first tile with an extra row, permanently
        // desynchronizing the tiles' row maps.
        let enc = encoding();
        let mut tiled = TiledArray::new(Technology::default(), enc, 8, 4, Backend::Ideal);
        tiled.store(vec![0; 8]).unwrap();
        let mut bad = vec![0u32; 8];
        bad[5] = 9; // valid first chunk, invalid symbol in tile 1
        assert!(matches!(tiled.store(bad), Err(FerexError::SymbolOutOfRange { value: 9, .. })));
        assert_eq!(tiled.len(), 1);
        for tile in tiled.tiles() {
            assert_eq!(tile.len(), 1, "a tile kept a chunk of the rejected vector");
        }
        // The array still works after the rejected store.
        let out = tiled.search(&[0; 8]).unwrap();
        assert_eq!(out.nearest, 0);
    }

    #[test]
    fn invalid_k_reports_dedicated_error() {
        let enc = encoding();
        let mut tiled = TiledArray::new(Technology::default(), enc, 8, 4, Backend::Ideal);
        tiled.store(vec![0; 8]).unwrap();
        tiled.store(vec![1; 8]).unwrap();
        assert_eq!(tiled.search_k(&[0; 8], 0), Err(FerexError::InvalidK { k: 0, rows: 2 }));
        assert_eq!(tiled.search_k(&[0; 8], 5), Err(FerexError::InvalidK { k: 5, rows: 2 }));
    }

    #[test]
    fn adjacent_base_seeds_derive_disjoint_tile_seeds() {
        // Regression: (seed + t) · C collides for (seed, t+1) vs
        // (seed + 1, t) — consecutive Monte-Carlo seeds shared per-tile
        // variation streams. The mixed derivation must keep every
        // (base seed, tile) pair distinct.
        let mut derived = std::collections::HashSet::new();
        for seed in 0..16u64 {
            for t in 0..8usize {
                assert!(
                    derived.insert(derive_tile_seed(seed, t)),
                    "collision at seed {seed}, tile {t}"
                );
            }
        }
        // And the old derivation really did collide (guards the rationale).
        let old = |seed: u64, t: usize| seed.wrapping_add(t as u64).wrapping_mul(0x9E37_79B9);
        assert_eq!(old(3, 1), old(4, 0));
    }

    #[test]
    fn tiles_fault_independent_cell_sets() {
        use ferex_fefet::FaultPlan;
        let enc = encoding();
        let cfg = CircuitConfig {
            faults: FaultPlan { sa1_rate: 0.5, ..Default::default() },
            seed: 9,
            ..Default::default()
        };
        let mut tiled =
            TiledArray::new(Technology::default(), enc, 12, 4, Backend::Noisy(Box::new(cfg)));
        tiled.store(vec![0; 12]).unwrap();
        tiled.program();
        // Each tile's fault map derives from its own mixed seed: the maps
        // must exist, and at 50% incidence two 8-cell maps matching exactly
        // would be a seed-derivation collision.
        let maps: Vec<_> = tiled.tiles().iter().map(|t| t.fault_map().unwrap()).collect();
        assert_eq!(maps.len(), 3);
        assert!(maps.windows(2).any(|w| w[0] != w[1]), "tiles drew identical fault maps");
        // And the tile seeds really are the derived ones.
        for (t, tile) in tiled.tiles().iter().enumerate() {
            let plan = FaultPlan { sa1_rate: 0.5, ..Default::default() };
            let expected =
                plan.fault_map(derive_tile_seed(9, t), tile.len() * tile.physical_cols());
            assert_eq!(tile.fault_map().unwrap(), &expected[..], "tile {t}");
        }
    }

    #[test]
    fn stale_tiles_are_rejected_until_programmed() {
        let enc = encoding();
        let cfg = CircuitConfig::default();
        let mut tiled =
            TiledArray::new(Technology::default(), enc, 8, 4, Backend::Noisy(Box::new(cfg)));
        tiled.store(vec![0; 8]).unwrap();
        assert!(!tiled.is_programmed());
        assert_eq!(tiled.search(&[0; 8]), Err(FerexError::NotProgrammed));
        tiled.program();
        assert!(tiled.is_programmed());
        assert!(tiled.search(&[0; 8]).is_ok());
    }

    #[test]
    fn batch_search_matches_sequential() {
        let enc = encoding();
        let cfg = CircuitConfig { seed: 21, ..Default::default() };
        let mut tiled =
            TiledArray::new(Technology::default(), enc, 10, 4, Backend::Noisy(Box::new(cfg)));
        for v in data(10) {
            tiled.store(v).unwrap();
        }
        tiled.program();
        let queries: Vec<Vec<u32>> =
            (0..6).map(|q| (0..10).map(|d| ((q + 2 * d) % 4) as u32).collect()).collect();
        let batched = tiled.search_batch(&queries).unwrap();
        for (i, q) in queries.iter().enumerate() {
            assert_eq!(batched[i], tiled.search(q).unwrap(), "query {i}");
        }
        let k_batched = tiled.search_k_batch(&queries, 2).unwrap();
        for (i, q) in queries.iter().enumerate() {
            assert_eq!(k_batched[i], tiled.search_k(q, 2).unwrap(), "query {i}");
        }
    }

    #[test]
    fn tiled_batch_runs_the_popcount_kernel_bit_identically() {
        // Ideal + realized Hamming: every tile dispatches the batch to the
        // bit-plane popcount kernel, and the accumulated totals must equal
        // the per-query reads and the exact software metric bit for bit.
        let enc = encoding();
        let mut tiled = TiledArray::new(Technology::default(), enc, 10, 4, Backend::Ideal);
        for v in data(10) {
            tiled.store(v).unwrap();
        }
        for tile in &tiled.tiles {
            assert_eq!(tile.batch_kernel(6), "bitplane-popcount");
        }
        let queries: Vec<Vec<u32>> =
            (0..6).map(|q| (0..10).map(|d| ((3 * q + d) % 4) as u32).collect()).collect();
        let batched = tiled.distances_batch(&queries).unwrap();
        for (i, q) in queries.iter().enumerate() {
            assert_eq!(batched[i], tiled.distances(q).unwrap(), "query {i}");
            let exact: Vec<f64> = data(10)
                .iter()
                .map(|s| DistanceMetric::Hamming.vector_distance(q, s) as f64)
                .collect();
            assert_eq!(batched[i], exact, "query {i}");
        }
    }

    #[test]
    fn tiled_self_heal_spans_every_tile() {
        use crate::health::RepairPolicy;
        use ferex_analog::LtaParams;
        use ferex_fefet::VariationModel;
        let enc = encoding();
        let cfg = CircuitConfig {
            variation: VariationModel::none(),
            lta: LtaParams::ideal(),
            seed: 5,
            ..Default::default()
        };
        let mut tiled =
            TiledArray::new(Technology::default(), enc, 10, 4, Backend::Noisy(Box::new(cfg)));
        tiled.set_repair_policy(RepairPolicy { spare_rows: 1, ..Default::default() }).unwrap();
        for v in data(10) {
            tiled.store(v).unwrap();
        }
        let reports = tiled.program_verified().unwrap();
        assert_eq!(reports.len(), 3, "one report per tile");
        assert!(reports.iter().all(|r| r.rows_quarantined.is_empty()));
        // Fault-free scrub stays silent on every tile.
        let scrubs = tiled.scrub().unwrap();
        assert!(scrubs.iter().all(|s| s.findings.is_empty()));
        // Quarantine row 1 everywhere: each tile remaps onto its spare.
        let spares = tiled.quarantine_row(1).unwrap();
        assert_eq!(spares.len(), 3);
        assert!(matches!(tiled.row_health(1), RowHealth::Remapped { .. }));
        let q: Vec<u32> = (0..10).map(|d| ((1 + d) % 4) as u32).collect();
        let out = tiled.search(&q).unwrap();
        assert_eq!(out.nearest, 1, "remapped row keeps its logical id");
        assert_eq!(out.distances[1], 0.0);
        // The pool (one spare per tile) is now dry: the next quarantine
        // excludes the row globally.
        assert!(matches!(tiled.quarantine_row(2), Err(FerexError::SparesExhausted { row: 2, .. })));
        assert_eq!(tiled.row_health(2), RowHealth::Quarantined);
        let out = tiled.search(&q).unwrap();
        assert!(out.distances[2].is_infinite());
        assert_eq!(
            tiled.search_k(&q, 4),
            Err(FerexError::InvalidK { k: 4, rows: 3 }),
            "only three rows stay active"
        );
        let h = tiled.health();
        assert_eq!(h.rows_active, 3);
        assert_eq!(h.rows_quarantined_now, 1);
        assert_eq!(h.rows_remapped_now, 1);
        assert_eq!(h.spare_rows, 3);
        assert_eq!(h.spares_in_use, 3);
    }

    // ------------------------------------------------------------------
    // Online mutation across tiles.
    // ------------------------------------------------------------------

    #[test]
    fn tiled_mutation_matches_monolithic() {
        let dim = 6;
        let enc = encoding();
        let mut mono = FerexArray::new(Technology::default(), enc.clone(), dim, Backend::Ideal);
        let mut tiled = TiledArray::new(Technology::default(), enc, dim, 4, Backend::Ideal);
        mono.enable_mutation(MutationPolicy::with_capacity(8)).unwrap();
        tiled.enable_mutation(MutationPolicy::with_capacity(8)).unwrap();
        let ops: [(&str, u64); 9] = [
            ("ins", 1),
            ("ins", 2),
            ("ins", 3),
            ("ins", 4),
            ("upd", 2),
            ("del", 3),
            ("ins", 9),
            ("upd", 1),
            ("del", 4),
        ];
        for (i, (op, id)) in ops.iter().enumerate() {
            let v: Vec<u32> = (0..dim).map(|d| ((i + d + *id as usize) % 4) as u32).collect();
            match *op {
                "ins" => {
                    mono.insert(*id, v.clone()).unwrap();
                    tiled.insert(*id, v).unwrap();
                }
                "upd" => {
                    mono.update_id(*id, v.clone()).unwrap();
                    tiled.update_id(*id, v).unwrap();
                }
                _ => {
                    mono.delete(*id).unwrap();
                    tiled.delete(*id).unwrap();
                }
            }
            mono.maintenance();
            tiled.maintenance();
        }
        assert_eq!(mono.live_ids(), tiled.live_ids());
        let q: Vec<u32> = (0..dim).map(|d| (d % 4) as u32).collect();
        let dm = mono.search(&q).unwrap();
        let dt = tiled.search(&q).unwrap();
        for id in mono.live_ids() {
            let a = dm.distances[mono.slot_of(id).unwrap()];
            let b = dt.distances[tiled.slot_of(id).unwrap()];
            assert_eq!(a.to_bits(), b.to_bits(), "id {id}");
        }
        // The slot machinery itself converges (pure function of the op
        // sequence), so ids live on the same physical slots.
        for id in mono.live_ids() {
            assert_eq!(mono.slot_of(id), tiled.slot_of(id), "id {id}");
        }
        // Wear surfaces agree tile-to-tile and with the monolithic array.
        let w = tiled.wear();
        assert_eq!(w, mono.wear());
        for tile in tiled.tiles() {
            assert_eq!(tile.wear(), w, "tiles must wear in lockstep");
        }
    }

    #[test]
    fn failed_delta_program_on_one_tile_leaves_no_sibling_mutated() {
        use ferex_fefet::VerifyPolicy;
        // Regression (store-atomicity, extended to incremental mutation):
        // under a strict verify policy a delta write can fail on one tile
        // and pass on another (independent per-tile variation); the failed
        // insert must roll back every tile, not just the failing one.
        let enc = encoding();
        let build = |seed: u64| {
            let cfg = CircuitConfig { seed, ..Default::default() };
            let mut tiled = TiledArray::new(
                Technology::default(),
                enc.clone(),
                8,
                4,
                Backend::Noisy(Box::new(cfg)),
            );
            tiled
                .set_repair_policy(RepairPolicy {
                    strict: true,
                    max_bad_cells_per_row: 0,
                    spare_rows: 0,
                    sentinel_rows: 0,
                    // ~1.9σ of the 54 mV V_th variation with no retries:
                    // each 12-cell tile row fails verify with probability
                    // ≈ 0.5, so mixed per-tile outcomes are common.
                    verify: VerifyPolicy {
                        tolerance: ferex_fefet::units::Volt(0.105),
                        max_retries: 0,
                        ..Default::default()
                    },
                    ..Default::default()
                })
                .unwrap();
            tiled.enable_mutation(MutationPolicy::with_capacity(4)).unwrap();
            tiled.program();
            tiled
        };
        let v: Vec<u32> = vec![1, 2, 3, 0, 1, 2, 3, 0];
        // Find a seed where exactly the mixed-outcome hazard arises: the
        // write-verify of the insert's slot passes on one tile and fails
        // on the other.
        let mut found = None;
        for seed in 0..400u64 {
            let tiled = build(seed);
            let chunks = tiled.split(&v);
            let outcomes: Vec<bool> = tiled
                .tiles
                .iter()
                .zip(&chunks)
                .map(|(t, c)| {
                    let mut probe = t.clone();
                    probe.mutation_set_contents(0, c);
                    probe.mutation_write_slot(0).is_ok()
                })
                .collect();
            if outcomes.iter().any(|&b| b) && outcomes.iter().any(|&b| !b) {
                found = Some(seed);
                break;
            }
        }
        let seed = found.expect("no seed produced a single-tile verify failure in 400 tries");
        let mut tiled = build(seed);
        let err = tiled.insert(7, v).unwrap_err();
        assert!(matches!(err, FerexError::VerifyFailed { .. }), "unexpected error {err:?}");
        // No tile committed anything: the id is live nowhere and the slot
        // tables are still in lockstep.
        assert_eq!(tiled.live_len(), 0);
        for tile in tiled.tiles() {
            assert_eq!(tile.live_len(), 0, "a sibling tile kept the failed insert");
            assert!(tile.slot_of(7).is_none());
        }
        // Cycle counters advanced identically (the write was attempted on
        // every tile), so later slot decisions cannot diverge.
        let w0 = tiled.tiles()[0].wear();
        for tile in tiled.tiles() {
            assert_eq!(tile.wear().total_writes, w0.total_writes);
        }
        assert_eq!(tiled.search(&[0; 8]), Err(FerexError::Empty), "no live rows to serve");
    }

    #[test]
    fn tiled_delete_and_compact_stay_tile_consistent() {
        let enc = encoding();
        let mut tiled = TiledArray::new(Technology::default(), enc, 8, 4, Backend::Ideal);
        let mut policy = MutationPolicy::with_capacity(8);
        policy.compact_tombstone_milli = 0;
        tiled.enable_mutation(policy).unwrap();
        for id in 0..4u64 {
            tiled.insert(id, vec![(id % 4) as u32; 8]).unwrap();
        }
        tiled.delete(1).unwrap();
        tiled.delete(3).unwrap();
        assert_eq!(tiled.tombstones(), 2);
        assert!(matches!(tiled.delete(1), Err(FerexError::UnknownId { id: 1 })));
        let out = tiled.search(&[1; 8]).unwrap();
        // ids 0..4 landed on slots 0..4 in order; id 1's slot is dead.
        assert!(out.distances[1].is_infinite());
        let report = tiled.compact();
        assert_eq!(report.reclaimed, 2);
        for tile in tiled.tiles() {
            assert_eq!(tile.tombstones(), 0);
            assert_eq!(tile.live_ids(), vec![0, 2]);
        }
        assert_eq!(tiled.live_ids(), vec![0, 2]);
    }
}
