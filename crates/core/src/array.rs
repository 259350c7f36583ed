//! The FeReX associative-memory array: stored symbol vectors, searched in
//! one shot, nearest row reported by the LTA.
//!
//! A *logical* vector of `dim` b-bit symbols occupies one array row of
//! `dim × K` physical FeFET columns (K FeFETs per AM cell, from the sizing
//! step). Three backends expose the same API:
//!
//! * [`Backend::Ideal`] — noiseless functional model: cell currents are the
//!   encoding's exact integer units and the LTA is an exact argmin. This is
//!   the "software-based implementation" the paper compares accuracy
//!   against.
//! * [`Backend::Circuit`] — device-level model: a [`Crossbar`] of
//!   [`ferex_fefet::Cell`]s with device-to-device variation, IR drop and an
//!   offset-afflicted LTA. This is the Monte-Carlo subject of Fig. 7.
//! * [`Backend::Noisy`] — statistical variation model with the same error
//!   mechanisms but no per-cell device objects; tractable at
//!   application scale (HDC/KNN) and cross-validated against `Circuit`.
//!
//! # Lifecycle: program, then search
//!
//! Mutation and sensing are separate phases, mirroring the hardware. Writes
//! ([`FerexArray::store`], [`FerexArray::update`], …) mark the physical
//! state stale; [`FerexArray::program`] is the explicit, idempotent
//! transition that instantiates it (crossbar cells or variation samples).
//! Every read — [`FerexArray::distances`], [`FerexArray::search`],
//! [`FerexArray::search_batch`] — then takes `&self`, so a programmed array
//! can serve queries from many threads concurrently. Searching a stochastic
//! backend whose state is stale returns [`FerexError::NotProgrammed`]; the
//! ideal backend has no physical state and never needs programming.
//!
//! Sensing noise (the LTA offset) is drawn from a generator derived per
//! query: [`FerexArray::search_at`] seeds it from the backend seed and the
//! caller's query id, [`FerexArray::search`] assigns ids from an internal
//! counter, and [`FerexArray::search_batch`] uses the batch index — so on a
//! freshly programmed array, a loop of single searches and one batched call
//! produce bit-identical outcomes.

use crate::encoding::CellEncoding;
use crate::error::FerexError;
use crate::health::{
    FaultAttribution, HealthCounters, HealthSnapshot, ProgramReport, RepairPolicy, RowHealth,
    ScrubFinding, ScrubReport, SpareState,
};
use crate::mutate::{
    CompactionReport, MutableNode, MutationPolicy, MutationState, SlotState, WearSummary,
};
use crate::soa::{self, SoaCodes};
use ferex_analog::crossbar::{ArrayOptions, ColumnDrive, Crossbar};
use ferex_analog::delay::DelayModel;
use ferex_analog::lta::LtaParams;
use ferex_analog::parasitics::WireParams;
use ferex_fefet::faults::EffectiveCell;
use ferex_fefet::math::splitmix64;
use ferex_fefet::units::{Amp, Volt};
use ferex_fefet::{CellFault, CellReadback, CellVerify, FaultPlan, Technology, VariationModel};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rayon::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};

/// Domain-separation salt for per-query sensing streams, keeping them
/// disjoint from the per-tile seed derivation that feeds the same mixer.
const QUERY_STREAM_SALT: u64 = 0x51E0_D9AD_35B6_9E21;

/// Largest `Noisy` batch served by the per-query row loop instead of the
/// dense per-batch contribution table. Building the table evaluates every
/// stored cell against *all* `n_search` drive symbols — about `n_search`
/// row-loop query passes of work — so batches of one or two queries finish
/// sooner on the row loop they are bit-identical to anyway.
const NOISY_LUT_CROSSOVER: usize = 2;

/// Resistance scale applied to a [`CellFault::ResistorOpen`] cell in the
/// device-level backend: large enough that the residual current is far
/// below the sensing floor, small enough to keep the bisection solve
/// well-conditioned.
const OPEN_RESISTANCE_SCALE: f64 = 1.0e9;

/// Circuit-backend configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct CircuitConfig {
    /// Device-to-device variation model.
    pub variation: VariationModel,
    /// LTA comparator parameters.
    pub lta: LtaParams,
    /// Array electrical options (IR drop, exact solve, ScL bias).
    pub options: ArrayOptions,
    /// Wire parasitics.
    pub wire: WireParams,
    /// Fault-injection and aging campaign. The default plan is benign (no
    /// hard faults, no aging), so existing configurations are unaffected.
    /// Per-cell fault maps derive from this config's `seed`, so the Noisy
    /// and Circuit backends built from the same config fault the same
    /// cells — the basis of the differential conformance checks.
    pub faults: FaultPlan,
    /// Seed for variation sampling, fault maps and LTA offset noise.
    pub seed: u64,
}

impl Default for CircuitConfig {
    fn default() -> Self {
        CircuitConfig {
            variation: VariationModel::default(),
            lta: LtaParams::default(),
            options: ArrayOptions::default(),
            wire: WireParams::default(),
            faults: FaultPlan::none(),
            seed: 0xFE12EC5,
        }
    }
}

/// Which physical fidelity the array simulates at.
#[derive(Debug, Clone, PartialEq)]
pub enum Backend {
    /// Exact integer currents, exact argmin.
    Ideal,
    /// Device-level crossbar with variation and sensing offset: every cell
    /// is a full FeFET (Preisach ensemble + transistor + resistor). Highest
    /// fidelity, heavy — use for arrays up to a few thousand cells.
    Circuit(Box<CircuitConfig>),
    /// Statistical variation model without device objects: per-cell
    /// threshold shifts flip marginal ON/OFF decisions and per-cell resistor
    /// deviations scale ON currents, with the same LTA offset model.
    /// Memory-light — use for application-scale arrays (HDC, KNN). Validated
    /// against `Circuit` in the Fig. 7 cross-check.
    Noisy(Box<CircuitConfig>),
}

/// Result of one search operation.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchOutcome {
    /// Sensed row distances in `I_unit` multiples (circuit backends include
    /// analog error).
    pub distances: Vec<f64>,
    /// Row index the LTA reported as nearest.
    pub nearest: usize,
}

/// A FeReX associative-memory array.
///
/// # Examples
///
/// ```
/// use ferex_core::array::{Backend, FerexArray};
/// use ferex_core::sizing::{find_minimal_cell, SizingOptions};
/// use ferex_core::{DistanceMatrix, DistanceMetric};
/// use ferex_fefet::Technology;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let dm = DistanceMatrix::from_metric(DistanceMetric::Hamming, 2);
/// let report = find_minimal_cell(&dm, &SizingOptions::default())?;
/// let mut array = FerexArray::new(Technology::default(), report.encoding, 4, Backend::Ideal);
/// array.store(vec![0, 1, 2, 3])?;
/// array.store(vec![3, 2, 1, 0])?;
/// array.program(); // explicit write→search transition (no-op for Ideal)
/// let out = array.search(&[0, 1, 2, 2])?;
/// assert_eq!(out.nearest, 0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct FerexArray {
    tech: Technology,
    encoding: CellEncoding,
    dim: usize,
    backend: Backend,
    /// The stored vectors — the array's only copy of them: one `u8` code
    /// per symbol in one contiguous `rows × dim` buffer, written by every
    /// mutator and read by every kernel, plus the bit-planes the popcount
    /// kernel packs on first use and the mutators keep in sync.
    codes: SoaCodes,
    crossbar: Option<Crossbar>,
    /// Per-cell variation samples of the `Noisy` backend (row-major).
    noisy_samples: Option<Vec<ferex_fefet::DeviceSample>>,
    /// Per-cell hard-fault map (row-major physical cells), materialized by
    /// [`FerexArray::program`] when the backend's fault plan is non-benign.
    fault_map: Option<Vec<CellFault>>,
    /// Aged per-level thresholds (index = stored level), materialized
    /// alongside `fault_map`; `None` means fresh nominal levels.
    aged_vth: Option<Vec<Volt>>,
    /// Backend seed, cached for per-query stream derivation.
    seed: u64,
    /// Generator consumed by [`FerexArray::program`] (variation sampling).
    program_rng: StdRng,
    /// Monotone query-id source for [`FerexArray::search`] /
    /// [`FerexArray::search_k`]; atomic so issuing searches needs only
    /// `&self`.
    query_counter: AtomicU64,
    /// Self-healing policy; `None` keeps the array byte-identical to the
    /// policy-free behavior (no spares, no sentinels, no verification).
    repair: Option<RepairPolicy>,
    /// Logical-row → health map; empty means identity (no policy active).
    row_map: Vec<RowHealth>,
    /// Allocation state of the spare physical rows.
    spare_state: Vec<SpareState>,
    /// Lifetime health counters (survive re-programming).
    counters: HealthCounters,
    /// Cached report of the last [`FerexArray::program_verified`] pass,
    /// dropped whenever the physical state is invalidated.
    program_report: Option<ProgramReport>,
    /// Online-mutation state (`None` keeps the legacy positional-mutator
    /// behavior byte-identical); see [`FerexArray::enable_mutation`].
    mutation: Option<MutationState>,
}

impl Clone for FerexArray {
    fn clone(&self) -> Self {
        FerexArray {
            tech: self.tech.clone(),
            encoding: self.encoding.clone(),
            dim: self.dim,
            backend: self.backend.clone(),
            codes: self.codes.clone(),
            crossbar: self.crossbar.clone(),
            noisy_samples: self.noisy_samples.clone(),
            fault_map: self.fault_map.clone(),
            aged_vth: self.aged_vth.clone(),
            seed: self.seed,
            program_rng: self.program_rng.clone(),
            query_counter: AtomicU64::new(self.query_counter.load(Ordering::Relaxed)),
            repair: self.repair.clone(),
            row_map: self.row_map.clone(),
            spare_state: self.spare_state.clone(),
            counters: self.counters,
            program_report: self.program_report.clone(),
            mutation: self.mutation.clone(),
        }
    }
}

impl FerexArray {
    /// Creates an empty array for vectors of `dim` symbols.
    ///
    /// # Panics
    ///
    /// Panics if `dim == 0`.
    pub fn new(tech: Technology, encoding: CellEncoding, dim: usize, backend: Backend) -> Self {
        assert!(dim > 0, "vector dimension must be positive");
        let seed = match &backend {
            Backend::Ideal => 0,
            Backend::Circuit(c) | Backend::Noisy(c) => c.seed,
        };
        let plane_bits = soa::plane_bits(&encoding);
        FerexArray {
            tech,
            encoding,
            dim,
            backend,
            codes: SoaCodes::new(dim, plane_bits),
            crossbar: None,
            noisy_samples: None,
            fault_map: None,
            aged_vth: None,
            seed,
            program_rng: StdRng::seed_from_u64(seed),
            query_counter: AtomicU64::new(0),
            repair: None,
            row_map: Vec::new(),
            spare_state: Vec::new(),
            counters: HealthCounters::default(),
            program_report: None,
            mutation: None,
        }
    }

    /// Number of stored vectors (array rows in use).
    pub fn len(&self) -> usize {
        self.codes.rows()
    }

    /// `true` if no vectors are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Symbols per stored vector.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Physical FeFET columns per row (`dim × K`).
    pub fn physical_cols(&self) -> usize {
        self.dim * self.encoding.k
    }

    /// The cell encoding this array is programmed with.
    pub fn encoding(&self) -> &CellEncoding {
        &self.encoding
    }

    /// The simulation backend driving this array.
    pub fn backend(&self) -> &Backend {
        &self.backend
    }

    /// Row `row`'s stored vector, widened back from its one-byte codes;
    /// `None` past the last row. In mutation mode this reads any slot,
    /// live or not (free slots hold zeros).
    pub fn row_vector(&self, row: usize) -> Option<Vec<u32>> {
        self.codes.row(row).map(|codes| codes.iter().map(|&c| u32::from(c)).collect())
    }

    /// The kernel-facing code buffer and its cached bit-planes.
    #[cfg(test)]
    pub(crate) fn soa_codes(&self) -> &SoaCodes {
        &self.codes
    }

    /// Swaps in a new encoding (reconfiguration to another distance
    /// function). Stored data is kept; the physical array will be
    /// re-programmed on the next search.
    pub fn reconfigure(&mut self, encoding: CellEncoding) -> Result<(), FerexError> {
        let n_values = encoding.n_stored();
        if let Some(&c) = self.codes.as_slice().iter().find(|&&c| usize::from(c) >= n_values) {
            return Err(FerexError::SymbolOutOfRange { value: u32::from(c), n_values });
        }
        self.codes.set_plane_bits(soa::plane_bits(&encoding));
        self.encoding = encoding;
        self.invalidate_physical_state();
        Ok(())
    }

    /// Drops all materialized physical state (crossbar cells, variation
    /// samples, fault maps, row health): any mutation re-stales the array
    /// until the next [`FerexArray::program`]. The lifetime health
    /// counters survive.
    fn invalidate_physical_state(&mut self) {
        self.crossbar = None;
        self.noisy_samples = None;
        self.fault_map = None;
        self.aged_vth = None;
        self.row_map.clear();
        self.spare_state.clear();
        self.program_report = None;
    }

    /// Spare physical rows reserved by the repair policy.
    fn spares(&self) -> usize {
        self.repair.as_ref().map_or(0, |p| p.spare_rows)
    }

    /// Sentinel physical rows reserved by the repair policy.
    fn sentinels(&self) -> usize {
        self.repair.as_ref().map_or(0, |p| p.sentinel_rows)
    }

    /// Physical rows the backends materialize: logical rows first (so their
    /// variation draws and fault-map entries stay exactly where the
    /// policy-free array puts them), then spares, then sentinels.
    fn physical_rows(&self) -> usize {
        self.len() + self.spares() + self.sentinels()
    }

    /// Physical index of spare slot `j`.
    fn spare_phys(&self, j: usize) -> usize {
        self.len() + j
    }

    /// Physical index of sentinel `j`.
    fn sentinel_phys(&self, j: usize) -> usize {
        self.len() + self.spares() + j
    }

    /// The physical row currently serving logical row `r`, or `None` when
    /// the row is excluded from search — quarantined without a spare, or
    /// (in mutation mode) a free/tombstoned slot. Every distance kernel,
    /// on every backend, routes exclusions through here, so tombstones are
    /// skipped bit-identically everywhere.
    fn physical_row(&self, r: usize) -> Option<usize> {
        if let Some(m) = &self.mutation {
            if !m.is_live(r) {
                return None;
            }
        }
        self.phys_for_slot(r)
    }

    /// The physical row backing slot `r` through the repair map alone,
    /// ignoring slot liveness — the write target of mutation-path delta
    /// programs (which fill slots that are not live *yet*).
    fn phys_for_slot(&self, r: usize) -> Option<usize> {
        match self.row_map.get(r).copied().unwrap_or(RowHealth::Healthy) {
            RowHealth::Healthy => Some(r),
            RowHealth::Remapped { spare } => Some(spare),
            RowHealth::Quarantined => None,
        }
    }

    /// Symbol values a stored vector may hold: the encoding's alphabet,
    /// capped at what a one-byte code represents.
    fn n_codes(&self) -> usize {
        self.encoding.n_stored().min(soa::CODE_LEVELS)
    }

    /// The known codeword sentinel `j` is programmed with: a rotating ramp
    /// over the stored alphabet, so every level appears and adjacent
    /// sentinels differ.
    fn sentinel_codeword(&self, j: usize) -> Vec<u8> {
        let n = self.n_codes();
        (0..self.dim).map(|d| ((d + j) % n) as u8).collect() // lint:allow(cast-truncation/narrowing, reason = "value < n_codes() <= 256, which fits u8")
    }

    /// `true` when every logical row is quarantined (or, in mutation mode,
    /// no slot is live) — nothing left to serve.
    fn all_excluded(&self) -> bool {
        if let Some(m) = &self.mutation {
            if m.live_len() == 0 {
                return true;
            }
        }
        !self.row_map.is_empty() && self.row_map.iter().all(|h| matches!(h, RowHealth::Quarantined))
    }

    /// Checks that a vector has this array's dimension and that every
    /// symbol is representable under the current encoding, without storing
    /// anything (used by callers that need all-or-nothing store semantics,
    /// e.g. [`crate::tile::TiledArray::store`]). Symbols must also be below
    /// 256, whatever the encoding's alphabet: the array stores one byte per
    /// symbol, so this cap is what makes that store lossless (the CSP
    /// encoder never exceeds 64 levels).
    ///
    /// # Errors
    ///
    /// Dimension or symbol-range violations; `n_values` in the range error
    /// is the encoding's alphabet size, capped at 256.
    pub fn validate(&self, vector: &[u32]) -> Result<(), FerexError> {
        if vector.len() != self.dim {
            return Err(FerexError::DimensionMismatch { expected: self.dim, got: vector.len() });
        }
        let n_values = self.n_codes();
        match vector.iter().find(|&&s| s as usize >= n_values) {
            Some(&value) => Err(FerexError::SymbolOutOfRange { value, n_values }),
            None => Ok(()),
        }
    }

    /// Stores one vector into the next free row.
    ///
    /// # Errors
    ///
    /// Dimension or symbol-range violations;
    /// [`FerexError::InvalidPolicy`] on a mutation-enabled array (the slot
    /// table owns row assignment — use [`FerexArray::insert`]).
    pub fn store(&mut self, vector: Vec<u32>) -> Result<(), FerexError> {
        if self.mutation.is_some() {
            return Err(FerexError::InvalidPolicy {
                what: "positional store on a mutation-enabled array; use insert(id, vector)",
            });
        }
        self.validate(&vector)?;
        self.codes.push_row(&vector);
        self.invalidate_physical_state(); // re-program lazily
        Ok(())
    }

    /// Stores many vectors.
    pub fn store_all<I: IntoIterator<Item = Vec<u32>>>(
        &mut self,
        vectors: I,
    ) -> Result<(), FerexError> {
        for v in vectors {
            self.store(v)?;
        }
        Ok(())
    }

    /// Clears all stored vectors. On a mutation-enabled array this also
    /// drops the slot table and wear counters — the array reverts to the
    /// positional-mutator lifecycle.
    pub fn clear(&mut self) {
        self.codes.clear();
        self.mutation = None;
        self.invalidate_physical_state();
    }

    /// Removes the vector at `row` (later rows shift up — the physical
    /// analogue is erasing the row and compacting the row map). Returns the
    /// removed vector.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of range, or on a mutation-enabled array
    /// (row indices shift here, which would corrupt the slot table — use
    /// [`FerexArray::delete`]).
    pub fn remove(&mut self, row: usize) -> Vec<u32> {
        assert!(
            self.mutation.is_none(),
            "positional remove on a mutation-enabled array; use delete(id)"
        );
        assert!(row < self.len(), "row {row} out of range");
        let removed = self.row_vector(row).unwrap_or_default();
        self.codes.remove_row(row);
        self.invalidate_physical_state();
        removed
    }

    /// Replaces the vector at `row` in place (a row re-program).
    ///
    /// # Errors
    ///
    /// Validation errors; [`FerexError::InvalidPolicy`] on a
    /// mutation-enabled array (use [`FerexArray::update_id`]). The array
    /// is unchanged on error.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of range.
    pub fn update(&mut self, row: usize, vector: Vec<u32>) -> Result<(), FerexError> {
        if self.mutation.is_some() {
            return Err(FerexError::InvalidPolicy {
                what: "positional update on a mutation-enabled array; use update_id(id, vector)",
            });
        }
        assert!(row < self.len(), "row {row} out of range");
        self.validate(&vector)?;
        self.codes.set_row(row, &vector);
        self.invalidate_physical_state();
        Ok(())
    }

    /// Builds the column drives for a query (shared by search and the cost
    /// models).
    pub fn drives_for(&self, query: &[u32]) -> Result<Vec<ColumnDrive>, FerexError> {
        self.validate(query)?;
        let k = self.encoding.k;
        let mut drives = Vec::with_capacity(self.dim * k);
        // lint:allow(panic-safety/index, reason = "query symbols are validated against the encoding above; f < k and every encoding carries exactly k levels")
        for &q in query {
            let se = &self.encoding.search[q as usize];
            for f in 0..k {
                let v_gate = self.tech.search_voltage(se.vgs_levels[f]);
                let m = se.vds_multiples[f];
                let v_dl = if m == 0 { Volt(0.0) } else { self.tech.vds_for_multiple(m as usize) };
                drives.push(ColumnDrive { v_gate, v_dl });
            }
        }
        Ok(drives)
    }

    /// Programs the physical state for the current contents: the crossbar
    /// cells (`Circuit`) or the per-cell variation samples (`Noisy`). The
    /// explicit write→search phase transition: idempotent — re-invoking on
    /// an already-programmed array is a no-op — and required after any
    /// mutation before the `&self` read path will serve a stochastic
    /// backend. The ideal backend has no physical state; for it this is
    /// always a no-op.
    pub fn program(&mut self) {
        // A repair policy reserves spare and sentinel rows *after* the
        // logical rows, so the logical rows' variation draws and fault-map
        // entries are byte-identical to the policy-free layout.
        if self.repair.is_some() && self.row_map.len() != self.len() {
            self.row_map = vec![RowHealth::Healthy; self.len()];
            self.spare_state = vec![SpareState::Free; self.spares()];
        }
        match &self.backend {
            Backend::Ideal => {}
            Backend::Circuit(cfg) => {
                if self.crossbar.is_some() || self.is_empty() {
                    return;
                }
                let rows = self.physical_rows();
                let cols = self.physical_cols();
                let plan = cfg.faults;
                let mut xb = Crossbar::with_variation(
                    self.tech.clone(),
                    cfg.wire,
                    rows,
                    cols,
                    &cfg.variation,
                    &mut self.program_rng,
                );
                let fault_map = (!plan.is_benign()).then(|| plan.fault_map(self.seed, rows * cols));
                let aged = plan.has_aging().then(|| plan.aged_vth_table(&self.tech));
                for (r, codes) in self.codes.as_slice().chunks(self.dim).enumerate() {
                    program_crossbar_row(
                        &mut xb,
                        &self.tech,
                        &self.encoding,
                        &plan,
                        fault_map.as_deref(),
                        aged.as_deref(),
                        r,
                        codes,
                    );
                }
                // Sentinels carry known codewords; spares stay erased until
                // a remap re-stores a logical vector onto them.
                for j in 0..self.sentinels() {
                    let codeword = self.sentinel_codeword(j);
                    program_crossbar_row(
                        &mut xb,
                        &self.tech,
                        &self.encoding,
                        &plan,
                        fault_map.as_deref(),
                        aged.as_deref(),
                        self.sentinel_phys(j),
                        &codeword,
                    );
                }
                self.crossbar = Some(xb);
                self.fault_map = fault_map;
                self.aged_vth = aged;
            }
            Backend::Noisy(cfg) => {
                if self.noisy_samples.is_some() || self.is_empty() {
                    return;
                }
                let n = self.physical_rows() * self.physical_cols();
                let variation = cfg.variation;
                let plan = cfg.faults;
                let samples = (0..n)
                    .map(|_| {
                        if variation.is_nominal() {
                            ferex_fefet::DeviceSample::NOMINAL
                        } else {
                            variation.sample(&mut self.program_rng)
                        }
                    })
                    .collect();
                self.noisy_samples = Some(samples);
                if !plan.is_benign() {
                    self.fault_map = Some(plan.fault_map(self.seed, n));
                    self.aged_vth = Some(plan.aged_vth_table(&self.tech));
                }
            }
        }
    }

    /// The per-cell fault map materialized by the last
    /// [`FerexArray::program`] (row-major physical cells), or `None` when
    /// the fault plan is benign, the array unprogrammed, or the backend
    /// ideal.
    pub fn fault_map(&self) -> Option<&[CellFault]> {
        self.fault_map.as_deref()
    }

    /// `true` when the physical state matches the stored contents — i.e.
    /// the `&self` read path will serve. Always `true` for the ideal
    /// backend and for an empty array.
    pub fn is_programmed(&self) -> bool {
        match &self.backend {
            Backend::Ideal => true,
            Backend::Circuit(_) => self.is_empty() || self.crossbar.is_some(),
            Backend::Noisy(_) => self.is_empty() || self.noisy_samples.is_some(),
        }
    }

    fn require_programmed(&self) -> Result<(), FerexError> {
        if self.is_programmed() {
            Ok(())
        } else {
            Err(FerexError::NotProgrammed)
        }
    }

    /// The sensing-noise generator for query id `qid`: derived from the
    /// backend seed by avalanche mixing, so streams for distinct ids (and
    /// for adjacent base seeds) are decorrelated, and a given `(seed, qid)`
    /// pair always reproduces the same draw.
    fn rng_for_query(&self, qid: u64) -> StdRng {
        StdRng::seed_from_u64(splitmix64(self.seed ^ splitmix64(qid ^ QUERY_STREAM_SALT)))
    }

    fn lta(&self) -> LtaParams {
        match &self.backend {
            Backend::Ideal => LtaParams::ideal(),
            Backend::Circuit(cfg) | Backend::Noisy(cfg) => cfg.lta,
        }
    }

    fn to_currents(&self, distances: &[f64]) -> Vec<Amp> {
        let i_unit = self.tech.i_unit().value();
        distances.iter().map(|&d| Amp(d * i_unit)).collect()
    }

    /// Raw sensed row distances (in `I_unit` multiples) for a query,
    /// without the LTA decision: [`FerexArray::distances_batch`] on a batch
    /// of one, so a single read takes the same kernel as any batch.
    ///
    /// # Errors
    ///
    /// [`FerexError::Empty`] if nothing is stored; validation errors for a
    /// malformed query; [`FerexError::NotProgrammed`] if a stochastic
    /// backend's state is stale (call [`FerexArray::program`] after
    /// mutating).
    /// Quarantined rows (no spare left) sense as `f64::INFINITY`: they
    /// still occupy their logical index — so every other row keeps its id —
    /// but can never win the LTA.
    pub fn distances(&self, query: &[u32]) -> Result<Vec<f64>, FerexError> {
        let mut batch = self.distances_batch(&[query.to_vec()])?;
        batch.pop().ok_or(FerexError::Empty)
    }

    /// Row distances for every query of a batch — the one read path every
    /// search, single or batched, goes through. It matches on the backend
    /// once:
    ///
    /// * `Ideal` runs the structure-of-arrays kernels over the code
    ///   buffer: a Hamming-exact encoding runs word-parallel XOR + popcount
    ///   over the stored rows' bit-planes (packed by the first such call,
    ///   then kept in sync by every mutator, so only the queries are packed
    ///   per call), every other encoding runs per-query current LUTs laid
    ///   out contiguously, both cache-blocked rows-outer / queries-inner
    ///   over balanced query chunks.
    /// * `Noisy` batches of up to two queries run a per-query row loop;
    ///   larger batches precompute one table of (stored cell × query
    ///   symbol) current contributions — built row-parallel — turning the
    ///   per-query inner loop into pure lookups. The table costs `n_search`
    ///   row-loop passes to build, and the two paths are bit-identical.
    /// * `Circuit` solves the crossbar once per query, fanned out over
    ///   threads.
    ///
    /// Every backend reports rows excluded from search (quarantined, or
    /// free/tombstoned slots in mutation mode) as `f64::INFINITY`.
    ///
    /// # Errors
    ///
    /// As [`FerexArray::distances`]; the whole batch is validated before
    /// any work happens.
    pub fn distances_batch(&self, queries: &[Vec<u32>]) -> Result<Vec<Vec<f64>>, FerexError> {
        // An empty batch asks for nothing: answer it before any state
        // checks, so it cannot trip over an empty or stale array.
        if queries.is_empty() {
            return Ok(Vec::new());
        }
        for q in queries {
            self.validate(q)?;
        }
        if self.is_empty() {
            return Err(FerexError::Empty);
        }
        self.require_programmed()?;
        if self.all_excluded() {
            return Err(FerexError::Empty);
        }
        match &self.backend {
            Backend::Ideal => Ok(self.ideal_distances_batch_soa(queries)),
            Backend::Noisy(_) if queries.len() <= NOISY_LUT_CROSSOVER => {
                queries.iter().map(|q| self.noisy_distances(q)).collect()
            }
            Backend::Noisy(_) => self.noisy_distances_batch(queries),
            Backend::Circuit(cfg) => {
                queries.par_iter().map(|q| self.circuit_distances(cfg, q)).collect()
            }
        }
    }

    /// Names the kernel [`FerexArray::distances_batch`] would dispatch a
    /// batch of `batch` queries to, mirroring its dispatch exactly:
    /// `"bitplane-popcount"` (Ideal + realized XOR-popcount encoding),
    /// `"lut"` (Ideal per-query current LUTs), `"contrib-table"` (Noisy
    /// dense contribution table), or `"scalar"` (the Noisy per-query row
    /// loop for tiny batches, and the per-query Circuit crossbar solve).
    /// Purely informational — used by benchmarks and reports to label
    /// measurements.
    pub fn batch_kernel(&self, batch: usize) -> &'static str {
        match &self.backend {
            Backend::Ideal if soa::is_xor_popcount(&self.encoding) => "bitplane-popcount",
            Backend::Ideal => "lut",
            Backend::Noisy(_) if batch > NOISY_LUT_CROSSOVER => "contrib-table",
            Backend::Noisy(_) | Backend::Circuit(_) => "scalar",
        }
    }

    /// One query's `Circuit` read: one crossbar solve, then every logical
    /// row reads its physical row's current (itself or its spare), or
    /// `INFINITY` when excluded from search.
    fn circuit_distances(
        &self,
        cfg: &CircuitConfig,
        query: &[u32],
    ) -> Result<Vec<f64>, FerexError> {
        let drives = self.drives_for(query)?;
        let xb = self.crossbar.as_ref().ok_or(FerexError::NotProgrammed)?;
        let i_unit = self.tech.i_unit().value();
        let currents = xb.search(&drives, &cfg.options);
        Ok((0..self.len())
            .map(|r| {
                self.physical_row(r)
                    .and_then(|p| currents.get(p))
                    .map_or(f64::INFINITY, |i| i.value() / i_unit)
            })
            .collect())
    }

    /// One query's `Noisy` read through the per-row cell loop
    /// ([`FerexArray::noisy_row_units`]); excluded rows read `INFINITY`.
    fn noisy_distances(&self, query: &[u32]) -> Result<Vec<f64>, FerexError> {
        let (Some(samples), Backend::Noisy(cfg)) = (self.noisy_samples.as_deref(), &self.backend)
        else {
            return Err(FerexError::NotProgrammed);
        };
        Ok((0..self.len())
            .map(|r| match (self.physical_row(r), self.codes.row(r)) {
                (Some(phys), Some(codes)) => {
                    self.noisy_row_units(samples, &cfg.faults, phys, codes, query)
                }
                _ => f64::INFINITY,
            })
            .collect())
    }

    /// The current (in `I_unit` multiples) physical row `phys`, holding
    /// `codes`, sinks under `query`'s drives on the `Noisy` backend: cell
    /// contributions summed in d-major, FeFET-minor order — the order the
    /// contribution table reproduces. Shared by the per-query read and the
    /// scrub probe.
    fn noisy_row_units(
        &self,
        samples: &[ferex_fefet::DeviceSample],
        plan: &FaultPlan,
        phys: usize,
        codes: &[u8],
        query: &[u32],
    ) -> f64 {
        let k = self.encoding.k;
        let cols = self.physical_cols();
        let mut units = 0.0f64;
        // lint:allow(panic-safety/index, reason = "stored/query symbols are validated at store and search time; f < k, and index < rows x cols by construction from the same dims the sample table was sized with")
        for (d, (&s, &q)) in codes.iter().zip(query).enumerate() {
            let st = &self.encoding.stored[usize::from(s)];
            let se = &self.encoding.search[q as usize];
            for f in 0..k {
                let m = se.vds_multiples[f];
                if m == 0 {
                    continue;
                }
                let index = phys * cols + d * k + f;
                let v_gate = self.tech.search_voltage(se.vgs_levels[f]);
                // lint:allow(float-order/accumulation, reason = "bounded per-cell units in fixed d-major order shared with the contribution table")
                units += self.noisy_cell_units(
                    plan,
                    index,
                    st.vth_levels[f],
                    &samples[index],
                    v_gate,
                    m,
                );
            }
        }
        units
    }

    /// The `Ideal` batched kernels over the structure-of-arrays code
    /// buffer. Dispatches to XOR-popcount over packed bit-planes when the
    /// realized encoding is exactly bitwise Hamming, and to per-query
    /// current LUTs otherwise. Both kernels accumulate exact integer
    /// currents in `u64` and convert once per row — exactly the `f64` sum
    /// of the cell currents, because every partial sum is an integer below
    /// 2⁵³ (see `soa` module docs).
    fn ideal_distances_batch_soa(&self, queries: &[Vec<u32>]) -> Vec<Vec<f64>> {
        let rows = self.len();
        let dim = self.dim;
        let ranges = soa::balanced_ranges(queries.len(), rayon::current_num_threads());

        if soa::is_xor_popcount(&self.encoding) {
            // Bit-plane path: the stored rows' planes are cached beside the
            // codes (row-major, planes contiguous per row); pack each
            // chunk's queries the same way and reduce every (row, query)
            // pair to XOR + popcount over `bits × ceil(dim/64)` words.
            let (bits, words) = self.codes.plane_shape();
            debug_assert_eq!(bits, soa::plane_bits(&self.encoding), "plane width out of sync");
            let stride = bits as usize * words;
            let row_planes = self.codes.bit_planes();
            // lint:allow(panic-safety/index, reason = "hot kernel: chunk ranges come from balanced_ranges(queries.len()), plane strides and row indices are sized in this function; checked indexing would defeat the batch win")
            let per_chunk: Vec<Vec<Vec<f64>>> = ranges
                .par_iter()
                .map(|range| {
                    let qs = &queries[range.clone()];
                    let mut q_planes = vec![0u64; qs.len() * stride];
                    let mut q_codes = vec![0u8; dim];
                    for (qi, q) in qs.iter().enumerate() {
                        for (c, &s) in q_codes.iter_mut().zip(q.iter()) {
                            *c = (s & 0xff) as u8; // lint:allow(cast-truncation/narrowing, reason = "masked to the low 8 bits first; validate() caps symbols below 256")
                        }
                        soa::pack_bit_planes(
                            &q_codes,
                            bits,
                            words,
                            &mut q_planes[qi * stride..(qi + 1) * stride],
                        );
                    }
                    let mut out = vec![vec![0.0f64; rows]; qs.len()];
                    for r in 0..rows {
                        if self.physical_row(r).is_none() {
                            for row_out in &mut out {
                                row_out[r] = f64::INFINITY;
                            }
                            continue;
                        }
                        let rp = &row_planes[r * stride..(r + 1) * stride];
                        for (qi, row_out) in out.iter_mut().enumerate() {
                            let qp = &q_planes[qi * stride..(qi + 1) * stride];
                            row_out[r] = soa::popcount_distance(rp, qp) as f64;
                        }
                    }
                    out
                })
                .collect();
            return per_chunk.into_iter().flatten().collect();
        }

        // LUT path: one contiguous current LUT per query in the chunk
        // (`dim` rows of `n_stored` entries each), then rows-outer /
        // queries-inner so each row's code slice stays cache-hot across
        // the whole chunk.
        let n_stored = self.encoding.n_stored();
        let lut_stride = dim * n_stored;
        // lint:allow(panic-safety/index, reason = "hot kernel: chunk ranges come from balanced_ranges(queries.len()), LUT strides and row indices are sized in this function; checked indexing would defeat the batch win")
        let per_chunk: Vec<Vec<Vec<f64>>> = ranges
            .par_iter()
            .map(|range| {
                let qs = &queries[range.clone()];
                let mut luts = Vec::with_capacity(qs.len() * lut_stride);
                for q in qs {
                    luts.extend(soa::query_lut(&self.encoding, q));
                }
                let mut out = vec![vec![0.0f64; rows]; qs.len()];
                for r in 0..rows {
                    if self.physical_row(r).is_none() {
                        for row_out in &mut out {
                            row_out[r] = f64::INFINITY;
                        }
                        continue;
                    }
                    let codes = self.codes.row(r).unwrap_or_default();
                    for (qi, row_out) in out.iter_mut().enumerate() {
                        let lut = &luts[qi * lut_stride..(qi + 1) * lut_stride];
                        row_out[r] = soa::lut_distance(lut, n_stored, codes) as f64;
                    }
                }
                out
            })
            .collect();
        per_chunk.into_iter().flatten().collect()
    }

    /// One `Noisy`-backend cell's current contribution in `I_unit`
    /// multiples — the single definition shared by the row loop
    /// ([`FerexArray::noisy_row_units`]) and the contribution table
    /// ([`FerexArray::noisy_distances_batch`]), so the two stay
    /// bit-identical under any fault plan. With no fault state materialized
    /// this reduces to the nominal resistor-clamp expression
    /// `I = m / r_factor` gated on `V_gate > V_th + ΔV_th`.
    #[inline]
    fn noisy_cell_units(
        &self,
        plan: &FaultPlan,
        index: usize,
        level: usize,
        sample: &ferex_fefet::DeviceSample,
        v_gate: Volt,
        m: u32,
    ) -> f64 {
        if let (Some(map), Some(aged)) = (&self.fault_map, &self.aged_vth) {
            let fault = map.get(index).copied().unwrap_or(CellFault::None);
            let eff: EffectiveCell = plan.effective_cell(&self.tech, fault, aged, level, sample);
            match eff.vth {
                Some(vth) if v_gate > vth => m as f64 / eff.r_factor,
                _ => 0.0,
            }
        } else {
            let vth = self.tech.vth_level(level) + sample.dvth;
            if v_gate > vth {
                // Resistor clamp: I = V_ds / (R·r_factor).
                m as f64 / sample.r_factor
            } else {
                0.0
            }
        }
    }

    /// The `Noisy` fast path: one contribution table per batch.
    ///
    /// `contrib[((r·dim + d)·n_search + q)·k + f]` holds the current (in
    /// `I_unit` multiples) cell `(r, d, f)` adds when driven with query
    /// symbol `q` — zero for OFF cells. Summation order over `(d, f)`
    /// matches the row loop exactly, and adding the 0.0 entries the row
    /// loop skips is exact for these non-negative terms, so batch distances
    /// are bit-identical to [`FerexArray::noisy_distances`].
    fn noisy_distances_batch(&self, queries: &[Vec<u32>]) -> Result<Vec<Vec<f64>>, FerexError> {
        let (Some(samples), Backend::Noisy(cfg)) = (self.noisy_samples.as_ref(), &self.backend)
        else {
            return Err(FerexError::NotProgrammed);
        };
        let plan = &cfg.faults;
        let k = self.encoding.k;
        let dim = self.dim;
        let cols = self.physical_cols();
        let n_search = self.encoding.search.len();
        let rows = self.len();
        let row_stride = dim * n_search * k;

        // Each logical row reads through its current physical row (itself,
        // or the spare it was remapped to); excluded rows keep a zeroed LUT
        // slice and are forced to INFINITY after accumulation, matching the
        // row loop bit for bit.
        let phys_of: Vec<Option<usize>> = (0..rows).map(|r| self.physical_row(r)).collect();
        // Build the table row-parallel: each worker owns one row's
        // contiguous `row_stride` slice, so there is no sharing and the
        // table contents are independent of the thread count.
        let mut contrib = vec![0.0f64; rows * row_stride];
        // lint:allow(panic-safety/index, reason = "hot kernel: each worker owns one row_stride slice of the table it indexes with offsets sized from the same dims; stored/encoding indices are validated at store time")
        contrib.par_chunks_mut(row_stride).enumerate().for_each(|(r, row_lut)| {
            let (Some(phys), Some(codes)) = (phys_of[r], self.codes.row(r)) else { return };
            for (d, &s) in codes.iter().enumerate() {
                let st = &self.encoding.stored[usize::from(s)];
                let cell_base = d * n_search * k;
                for (q, se) in self.encoding.search.iter().enumerate() {
                    for f in 0..k {
                        let m = se.vds_multiples[f];
                        if m == 0 {
                            continue;
                        }
                        let index = phys * cols + d * k + f;
                        let v_gate = self.tech.search_voltage(se.vgs_levels[f]);
                        row_lut[cell_base + q * k + f] = self.noisy_cell_units(
                            plan,
                            index,
                            st.vth_levels[f],
                            &samples[index],
                            v_gate,
                            m,
                        );
                    }
                }
            }
        });

        // Fan queries out in balanced contiguous chunks — every worker gets
        // a chunk, sizes differing by at most one (the old `div_ceil`
        // chunking could idle workers on non-divisible batches). Within a
        // chunk iterate rows outer / queries inner so one row's table slice
        // stays cache-hot across the whole chunk.
        let ranges = soa::balanced_ranges(queries.len(), rayon::current_num_threads());
        // lint:allow(panic-safety/index, reason = "hot kernel: chunk ranges come from balanced_ranges(queries.len()), table offsets are sized from the same dims the table was built with; query symbols are validated before dispatch")
        let per_chunk: Vec<Vec<Vec<f64>>> = ranges
            .par_iter()
            .map(|range| {
                let qs = &queries[range.clone()];
                let mut out = vec![vec![0.0f64; rows]; qs.len()];
                for r in 0..rows {
                    let row_lut = &contrib[r * row_stride..(r + 1) * row_stride];
                    for (qi, query) in qs.iter().enumerate() {
                        let mut units = 0.0f64;
                        for (d, &q) in query.iter().enumerate() {
                            let base = (d * n_search + q as usize) * k;
                            for c in &row_lut[base..base + k] {
                                units += c; // lint:allow(float-order/accumulation, reason = "bounded per-cell units in fixed d-major LUT order shared with the row loop")
                            }
                        }
                        out[qi][r] = if phys_of[r].is_some() { units } else { f64::INFINITY };
                    }
                }
                out
            })
            .collect();
        Ok(per_chunk.into_iter().flatten().collect())
    }

    /// One associative search with an explicit query id: senses all rows
    /// and reports the LTA's nearest row, drawing sensing noise from the
    /// stream derived for `qid`. The deterministic building block —
    /// `search_at(q, i)` always reproduces the same outcome on the same
    /// programmed array, from any thread.
    ///
    /// # Errors
    ///
    /// As [`FerexArray::distances`].
    pub fn search_at(&self, query: &[u32], qid: u64) -> Result<SearchOutcome, FerexError> {
        let distances = self.distances(query)?;
        Ok(self.sense_nearest(distances, qid))
    }

    fn sense_nearest(&self, distances: Vec<f64>, qid: u64) -> SearchOutcome {
        let currents = self.to_currents(&distances);
        let decision = self.lta().sense(&currents, &mut self.rng_for_query(qid));
        SearchOutcome { distances, nearest: decision.loser }
    }

    /// One associative search: [`FerexArray::search_at`] with the next id
    /// from the array's internal query counter (fresh sensing noise per
    /// call, no `&mut` needed).
    ///
    /// # Errors
    ///
    /// As [`FerexArray::distances`].
    pub fn search(&self, query: &[u32]) -> Result<SearchOutcome, FerexError> {
        let qid = self.query_counter.fetch_add(1, Ordering::Relaxed);
        self.search_at(query, qid)
    }

    /// Searches a whole batch, assigning query ids `0..queries.len()`:
    /// equivalent to `queries.iter().enumerate().map(|(i, q)|
    /// self.search_at(q, i as u64))`, with distances served through the
    /// batched fast path of [`FerexArray::distances_batch`]. Pure in
    /// `&self` — concurrent batches over a shared array return identical
    /// results.
    ///
    /// # Errors
    ///
    /// As [`FerexArray::distances_batch`].
    pub fn search_batch(&self, queries: &[Vec<u32>]) -> Result<Vec<SearchOutcome>, FerexError> {
        let distances = self.distances_batch(queries)?;
        Ok(distances
            .into_iter()
            .enumerate()
            .map(|(i, d)| self.sense_nearest(d, i as u64))
            .collect())
    }

    /// Searches a whole batch with an explicit query id per entry:
    /// equivalent to `queries.iter().zip(qids).map(|(q, &id)|
    /// self.search_at(q, id))`, with distances served through the batched
    /// fast path. Because sensing noise is keyed purely on the query id,
    /// outcomes are bit-identical to the individual searches regardless of
    /// how requests were grouped into batches — the property the serving
    /// loop's batch former relies on.
    ///
    /// # Errors
    ///
    /// [`FerexError::DimensionMismatch`] when `qids` and `queries` differ
    /// in length; otherwise as [`FerexArray::distances_batch`].
    pub fn search_batch_at(
        &self,
        queries: &[Vec<u32>],
        qids: &[u64],
    ) -> Result<Vec<SearchOutcome>, FerexError> {
        if qids.len() != queries.len() {
            return Err(FerexError::DimensionMismatch { expected: queries.len(), got: qids.len() });
        }
        let distances = self.distances_batch(queries)?;
        Ok(distances.into_iter().zip(qids).map(|(d, &qid)| self.sense_nearest(d, qid)).collect())
    }

    /// Digital distance readout: senses all rows and digitizes the row
    /// currents with the given ADC (full scale auto-ranged to the encoding
    /// maximum if `adc.full_scale` is zero). Returns per-row distance
    /// *codes* plus the conversion cost — the readout mode used when the
    /// application needs distance values rather than just the argmin
    /// (e.g. cross-tile accumulation or confidence scores).
    ///
    /// # Errors
    ///
    /// As [`FerexArray::distances`].
    pub fn read_digital(
        &self,
        query: &[u32],
        adc: &ferex_analog::adc::AdcParams,
        parallelism: usize,
    ) -> Result<ferex_analog::adc::AdcReadout, FerexError> {
        let distances = self.distances(query)?;
        let i_unit = self.tech.i_unit().value();
        let currents = self.to_currents(&distances);
        let adc = if adc.full_scale.value() > 0.0 {
            *adc
        } else {
            // Auto-range: the worst-case row distance is max-DM-entry per
            // symbol across the whole vector.
            let max_units =
                (self.encoding.max_vds_multiple as usize * self.encoding.k * self.dim) as f64;
            ferex_analog::adc::AdcParams { full_scale: Amp(max_units * i_unit), ..*adc }
        };
        Ok(adc.read_out(&currents, parallelism))
    }

    fn sense_k(&self, distances: &[f64], k: usize, qid: u64) -> Result<Vec<usize>, FerexError> {
        // Quarantined rows sense as INFINITY: they stay in the current
        // vector (so RNG draws and logical ids line up with the healthy
        // case) but can never be reported, so k is bounded by the rows
        // actually served.
        let active = distances.iter().filter(|d| d.is_finite()).count();
        if k == 0 || k > active {
            return Err(FerexError::InvalidK { k, rows: active });
        }
        let currents = self.to_currents(distances);
        Ok(self.lta().sense_k(&currents, k, &mut self.rng_for_query(qid)))
    }

    /// k-nearest search via iterative LTA masking, with an explicit query
    /// id (see [`FerexArray::search_at`]).
    ///
    /// # Errors
    ///
    /// As [`FerexArray::distances`]; [`FerexError::InvalidK`] when `k` is
    /// zero or exceeds the number of stored vectors.
    pub fn search_k_at(&self, query: &[u32], k: usize, qid: u64) -> Result<Vec<usize>, FerexError> {
        let distances = self.distances(query)?;
        self.sense_k(&distances, k, qid)
    }

    /// k-nearest search via iterative LTA masking, drawing the query id
    /// from the internal counter.
    ///
    /// # Errors
    ///
    /// As [`FerexArray::search_k_at`].
    pub fn search_k(&self, query: &[u32], k: usize) -> Result<Vec<usize>, FerexError> {
        let qid = self.query_counter.fetch_add(1, Ordering::Relaxed);
        self.search_k_at(query, k, qid)
    }

    /// k-nearest search for a whole batch, assigning query ids
    /// `0..queries.len()`; distances come through the batched fast path.
    ///
    /// # Errors
    ///
    /// As [`FerexArray::distances_batch`] and [`FerexArray::search_k_at`].
    pub fn search_k_batch(
        &self,
        queries: &[Vec<u32>],
        k: usize,
    ) -> Result<Vec<Vec<usize>>, FerexError> {
        let distances = self.distances_batch(queries)?;
        distances.into_iter().enumerate().map(|(i, d)| self.sense_k(&d, k, i as u64)).collect()
    }

    // ------------------------------------------------------------------
    // Self-healing: write-verify, scrub, row sparing, health surface.
    // ------------------------------------------------------------------

    /// Installs a repair policy. Any physical state is invalidated (the
    /// layout gains spare and sentinel rows), so the array must be
    /// re-programmed.
    ///
    /// # Errors
    ///
    /// [`FerexError::InvalidPolicy`] if any knob is out of range; the
    /// array is left unchanged.
    pub fn set_repair_policy(&mut self, policy: RepairPolicy) -> Result<(), FerexError> {
        policy.validate()?;
        self.repair = Some(policy);
        self.invalidate_physical_state();
        Ok(())
    }

    /// The installed repair policy, if any.
    pub fn repair_policy(&self) -> Option<&RepairPolicy> {
        self.repair.as_ref()
    }

    /// Health of one logical row ([`RowHealth::Healthy`] before any policy
    /// has acted).
    pub fn row_health(&self, row: usize) -> RowHealth {
        self.row_map.get(row).copied().unwrap_or(RowHealth::Healthy)
    }

    /// The report of the last [`FerexArray::program_verified`] pass, if the
    /// physical state is still current.
    pub fn program_report(&self) -> Option<&ProgramReport> {
        self.program_report.as_ref()
    }

    /// Point-in-time health view: lifetime counters plus the current spare
    /// and row-map occupancy.
    pub fn health(&self) -> HealthSnapshot {
        let spares_in_use =
            self.spare_state.iter().filter(|s| matches!(s, SpareState::Assigned(_))).count();
        let spares_burned =
            self.spare_state.iter().filter(|s| matches!(s, SpareState::Burned)).count();
        let quarantined =
            self.row_map.iter().filter(|h| matches!(h, RowHealth::Quarantined)).count();
        let remapped =
            self.row_map.iter().filter(|h| matches!(h, RowHealth::Remapped { .. })).count();
        HealthSnapshot {
            counters: self.counters,
            spare_rows: if self.row_map.is_empty() {
                self.spares()
            } else {
                self.spare_state.len()
            },
            spares_in_use,
            spares_burned,
            rows_active: self.len() - quarantined,
            rows_quarantined_now: quarantined,
            rows_remapped_now: remapped,
        }
    }

    /// The fault plan behind the backend (benign for the ideal backend).
    fn plan(&self) -> FaultPlan {
        match &self.backend {
            Backend::Ideal => FaultPlan::none(),
            Backend::Circuit(cfg) | Backend::Noisy(cfg) => cfg.faults,
        }
    }

    /// Post-program readback of the cell at (`phys`, `col`), programmed to
    /// threshold `level`: the signal the write-verify loop judges.
    ///
    /// # Errors
    ///
    /// [`FerexError::NotProgrammed`] when the physical state backing the
    /// cell is missing (e.g. a mutation landed mid-repair) — the serving
    /// process must survive that, not abort.
    fn readback_cell(
        &self,
        phys: usize,
        col: usize,
        level: usize,
    ) -> Result<CellReadback, FerexError> {
        let index = phys * self.physical_cols() + col;
        let fault =
            self.fault_map.as_ref().and_then(|m| m.get(index)).copied().unwrap_or(CellFault::None);
        let target = self
            .aged_vth
            .as_ref()
            .and_then(|a| a.get(level))
            .copied()
            .unwrap_or_else(|| self.tech.vth_level(level));
        Ok(match &self.backend {
            Backend::Ideal => CellReadback {
                residual: Volt(0.0),
                r_deviation: 0.0,
                conducts: true,
                repairable: true,
            },
            Backend::Noisy(cfg) => {
                let samples = self.noisy_samples.as_ref().ok_or(FerexError::NotProgrammed)?;
                // A cell outside the sample table was never programmed.
                let sample = samples.get(index).ok_or(FerexError::NotProgrammed)?;
                let r_dev = (sample.r_factor - 1.0).abs();
                match fault {
                    CellFault::None => CellReadback {
                        residual: sample.dvth,
                        r_deviation: r_dev,
                        conducts: true,
                        repairable: true,
                    },
                    CellFault::StuckAtLowVth => CellReadback {
                        residual: self.tech.vth_level(0) + sample.dvth - target,
                        r_deviation: r_dev,
                        conducts: true,
                        repairable: false,
                    },
                    CellFault::StuckAtHighVth | CellFault::ResistorOpen => CellReadback {
                        residual: Volt(0.0),
                        r_deviation: f64::INFINITY,
                        conducts: false,
                        repairable: false,
                    },
                    CellFault::ResistorShort => CellReadback {
                        residual: sample.dvth,
                        r_deviation: (sample.r_factor * cfg.faults.short_residual_r - 1.0).abs(),
                        conducts: true,
                        repairable: false,
                    },
                }
            }
            Backend::Circuit(_) => {
                let cell = self.crossbar.as_ref().ok_or(FerexError::NotProgrammed)?.cell(phys, col);
                let (conducts, repairable) = match fault {
                    CellFault::None => (true, true),
                    CellFault::StuckAtLowVth | CellFault::ResistorShort => (true, false),
                    CellFault::StuckAtHighVth | CellFault::ResistorOpen => (false, false),
                };
                CellReadback {
                    residual: cell.fefet().vth(&self.tech) - target,
                    r_deviation: cell.r_deviation(&self.tech),
                    conducts,
                    repairable,
                }
            }
        })
    }

    /// Commits a trim of `delta` volts onto the cell's threshold (the net
    /// effect of the retry pulses the verify loop spent).
    ///
    /// # Errors
    ///
    /// [`FerexError::NotProgrammed`] when there is no physical state to
    /// trim.
    fn apply_trim(&mut self, phys: usize, col: usize, delta: Volt) -> Result<(), FerexError> {
        let index = phys * self.physical_cols() + col;
        match &self.backend {
            Backend::Ideal => {}
            Backend::Noisy(_) => {
                let samples = self.noisy_samples.as_mut().ok_or(FerexError::NotProgrammed)?;
                if let Some(s) = samples.get_mut(index) {
                    s.dvth += delta;
                }
            }
            Backend::Circuit(_) => {
                let tech = self.tech.clone();
                let fe = self
                    .crossbar
                    .as_mut()
                    .ok_or(FerexError::NotProgrammed)?
                    .cell_mut(phys, col)
                    .fefet_mut()
                    .ferroelectric_mut();
                let base = tech.vth_from_polarization(fe.polarization());
                fe.set_polarization(tech.polarization_for_vth(base + delta));
            }
        }
        Ok(())
    }

    /// Write-verifies every cell of the physical row holding `codes`,
    /// committing trims for repaired cells; returns the per-row tally.
    ///
    /// # Errors
    ///
    /// [`FerexError::NotProgrammed`] when the physical state vanished
    /// underneath the verify loop.
    fn verify_row(
        &mut self,
        phys: usize,
        codes: &[u8],
        policy: &RepairPolicy,
    ) -> Result<RowVerify, FerexError> {
        let k = self.encoding.k;
        let mut rv = RowVerify::default();
        for (d, &s) in codes.iter().enumerate() {
            let levels = self.encoding.stored[usize::from(s)].vth_levels.clone(); // lint:allow(panic-safety/index, reason = "symbols validated at store time")
            for (f, &level) in levels.iter().enumerate().take(k) {
                let col = d * k + f;
                let rb = self.readback_cell(phys, col, level)?;
                match policy.verify.verify(&rb) {
                    CellVerify::Clean => rv.clean += 1,
                    CellVerify::Repaired { retries, residual } => {
                        rv.repaired += 1;
                        rv.retries += retries;
                        self.counters.repairs_attempted += 1;
                        self.counters.repairs_succeeded += 1;
                        self.apply_trim(phys, col, residual - rb.residual)?;
                    }
                    CellVerify::Failed { retries } => {
                        rv.failed += 1;
                        rv.retries += retries;
                        self.counters.repairs_attempted += 1;
                        self.counters.cells_given_up += 1;
                        rv.bad.push(col);
                    }
                }
            }
        }
        Ok(rv)
    }

    /// Quarantines a logical row and tries to bring up a spare for it:
    /// each free spare is programmed with the row's vector and
    /// write-verified; a spare that fails verify itself is burned and the
    /// next one is tried. With no spare left the row is excluded.
    ///
    /// # Errors
    ///
    /// [`FerexError::NotProgrammed`] when the physical state is missing
    /// mid-quarantine; the row stays quarantined, nothing is served stale.
    fn quarantine_internal(
        &mut self,
        row: usize,
        policy: &RepairPolicy,
    ) -> Result<RemapResult, FerexError> {
        self.counters.rows_quarantined += 1;
        // Re-quarantining a remapped row retires the spare that just
        // misbehaved.
        // lint:allow(panic-safety/index, reason = "row_map is sized to stored at program time and row comes from a bounds-checked caller; j < spare_state.len() by the loop bound")
        if let RowHealth::Remapped { spare } = self.row_map[row] {
            for j in 0..self.spare_state.len() {
                if self.spare_phys(j) == spare {
                    self.spare_state[j] = SpareState::Burned;
                }
            }
        }
        let mut result = RemapResult::default();
        let codes = self.codes.row(row).unwrap_or_default().to_vec();
        // lint:allow(panic-safety/index, reason = "j < spare_state.len() by the loop bound; row_map is sized to stored at program time")
        for j in 0..self.spare_state.len() {
            if self.spare_state[j] != SpareState::Free {
                continue;
            }
            let phys = self.spare_phys(j);
            if matches!(self.backend, Backend::Circuit(_)) {
                // Re-store the logical vector onto the spare's cells (they
                // were left erased by program()).
                let plan = self.plan();
                let mut xb = match self.crossbar.take() {
                    Some(xb) => xb,
                    None => {
                        self.row_map[row] = RowHealth::Quarantined;
                        return Err(FerexError::NotProgrammed);
                    }
                };
                program_crossbar_row(
                    &mut xb,
                    &self.tech,
                    &self.encoding,
                    &plan,
                    self.fault_map.as_deref(),
                    self.aged_vth.as_deref(),
                    phys,
                    &codes,
                );
                self.crossbar = Some(xb);
            }
            let rv = self.verify_row(phys, &codes, policy)?;
            result.retries += rv.retries;
            if rv.bad.len() <= policy.max_bad_cells_per_row {
                self.spare_state[j] = SpareState::Assigned(row);
                self.row_map[row] = RowHealth::Remapped { spare: phys };
                result.spare = Some(phys);
                return Ok(result);
            }
            self.spare_state[j] = SpareState::Burned;
            result.burned += 1;
        }
        self.row_map[row] = RowHealth::Quarantined;
        Ok(result)
    }

    /// Programs the array and write-verifies every cell: in-tolerance cells
    /// pass, out-of-tolerance repairable cells are re-pulsed with the
    /// policy's bounded exponential backoff, and rows with more failed
    /// cells than the policy tolerates are quarantined and remapped onto
    /// spares (excluded when the pool runs dry). Installs
    /// [`RepairPolicy::default`] if no policy is set.
    ///
    /// Idempotent like [`FerexArray::program`]: on an already-verified
    /// array the cached report is returned unchanged. Deterministic under a
    /// fixed seed — two identically built arrays produce identical reports.
    ///
    /// # Errors
    ///
    /// [`FerexError::VerifyFailed`] in strict mode when a row cannot be
    /// verified (the array is left partially trimmed and should be
    /// re-programmed); [`FerexError::InvalidPolicy`] if the installed
    /// policy's knobs are out of range.
    pub fn program_verified(&mut self) -> Result<ProgramReport, FerexError> {
        let policy = match &self.repair {
            Some(p) => p.clone(),
            None => {
                let p = RepairPolicy::default();
                self.repair = Some(p.clone());
                self.invalidate_physical_state();
                p
            }
        };
        policy.validate()?;
        if self.is_programmed() {
            if let Some(report) = &self.program_report {
                return Ok(report.clone());
            }
        }
        self.program();
        let cols = self.physical_cols();
        let mut report =
            ProgramReport { rows: self.len(), cells: self.len() * cols, ..Default::default() };
        if matches!(self.backend, Backend::Ideal) || self.is_empty() {
            // No physical state to verify: everything is trivially clean.
            report.cells_clean = report.cells;
            self.program_report = Some(report.clone());
            return Ok(report);
        }
        for r in 0..self.len() {
            // Mutation mode: free and tombstoned slots are excluded from
            // search and may hold reclaimed (stale) physical content —
            // there is nothing to verify, they count as trivially clean.
            if let Some(m) = &self.mutation {
                if !m.is_live(r) {
                    report.cells_clean += cols;
                    continue;
                }
            }
            let codes = self.codes.row(r).unwrap_or_default().to_vec();
            let rv = self.verify_row(r, &codes, &policy)?;
            report.cells_clean += rv.clean;
            report.cells_repaired += rv.repaired;
            report.cells_failed += rv.failed;
            report.retries += rv.retries;
            if rv.bad.len() > policy.max_bad_cells_per_row {
                if policy.strict {
                    let cell = rv.bad.first().copied().unwrap_or(0);
                    return Err(FerexError::VerifyFailed { row: r, cell });
                }
                report.rows_quarantined.push(r);
                let res = self.quarantine_internal(r, &policy)?;
                report.retries += res.retries;
                report.spares_burned += res.burned;
                match res.spare {
                    Some(phys) => report.rows_remapped.push((r, phys)),
                    None => report.rows_excluded.push(r),
                }
            }
        }
        for j in 0..self.sentinels() {
            let codeword = self.sentinel_codeword(j);
            let rv = self.verify_row(self.sentinel_phys(j), &codeword, &policy)?;
            report.retries += rv.retries;
            report.sentinel_cells_failed += rv.failed;
        }
        self.program_report = Some(report.clone());
        Ok(report)
    }

    /// Probes physical row `phys`, holding `codes`, with every uniform
    /// codeword and compares each readback against the exact expected
    /// current; returns a finding when any probe diverges beyond the
    /// policy's tolerances. The Ideal backend has no physical state, so
    /// it reads back exactly the expectation.
    ///
    /// # Errors
    ///
    /// [`FerexError::NotProgrammed`] when the backend's physical state is
    /// missing; probe-validation errors from the drive encoding.
    fn scrub_row(
        &self,
        phys: usize,
        row_id: usize,
        codes: &[u8],
        policy: &RepairPolicy,
    ) -> Result<Option<ScrubFinding>, FerexError> {
        let i_unit = self.tech.i_unit().value();
        let mut worst: Option<(f64, f64)> = None;
        let mut saw_pos = false;
        let mut saw_neg = false;
        for q in 0..self.encoding.n_stored() {
            let probe = vec![q as u32; self.dim]; // lint:allow(cast-truncation/narrowing, reason = "q < n_stored, which fits u32 by construction")
            let expected: f64 = codes
                .iter()
                .map(|&s| f64::from(self.encoding.cell_current(q, usize::from(s))))
                .sum(); // lint:allow(float-order/accumulation, reason = "integer I_unit multiples bounded by dim * k * max_vds << 2^53; d-major order matches the probe path")
            let measured = match &self.backend {
                Backend::Ideal => expected,
                Backend::Circuit(cfg) => {
                    let drives = self.drives_for(&probe)?;
                    let xb = self.crossbar.as_ref().ok_or(FerexError::NotProgrammed)?;
                    xb.row_current(phys, &drives, &cfg.options).value() / i_unit
                }
                Backend::Noisy(cfg) => {
                    let samples = self.noisy_samples.as_deref().ok_or(FerexError::NotProgrammed)?;
                    self.noisy_row_units(samples, &cfg.faults, phys, codes, &probe)
                }
            };
            let div = measured - expected;
            let tol = policy.scrub_abs_tolerance.max(policy.scrub_rel_tolerance * expected);
            if div.abs() > tol {
                if div > 0.0 {
                    saw_pos = true;
                } else {
                    saw_neg = true;
                }
                if worst.is_none_or(|(w, _)| div.abs() > w.abs()) {
                    worst = Some((div, expected));
                }
            }
        }
        Ok(worst.map(|(divergence, expected)| ScrubFinding {
            row: row_id,
            divergence,
            expected,
            attribution: match (saw_pos, saw_neg) {
                (true, true) => FaultAttribution::Mixed,
                (true, false) => FaultAttribution::ExcessCurrent,
                _ => FaultAttribution::MissingCurrent,
            },
        }))
    }

    /// Modeled duration of one scrub probe (a single-row read) under the
    /// backend's LTA and wire parameters, in seconds. Pure arithmetic from
    /// the analog delay model — the scrub path never reads a wall clock,
    /// so scrub reports are bit-reproducible across runs and machines.
    fn probe_delay_seconds(&self) -> f64 {
        let (lta, wire) = match &self.backend {
            Backend::Ideal => (LtaParams::ideal(), WireParams::default()),
            Backend::Circuit(cfg) | Backend::Noisy(cfg) => (cfg.lta, cfg.wire),
        };
        let model = DelayModel { lta, wire, ..DelayModel::default() };
        model.search_delay(1, self.physical_cols().max(1)).total().value()
    }

    /// One online self-check pass: every active logical row and every
    /// sentinel is probed with the full stored alphabet and its readback
    /// compared against the exact expectation. Diverging rows are
    /// attributed to the fault taxonomy and quarantined (remapped onto
    /// spares where possible) — unless the divergence is array-wide, which
    /// is attributed to global drift and left for a re-program. Run it
    /// between batches or on a maintenance schedule.
    ///
    /// # Errors
    ///
    /// [`FerexError::NotProgrammed`] on a stale array,
    /// [`FerexError::Empty`] when nothing is stored.
    pub fn scrub(&mut self) -> Result<ScrubReport, FerexError> {
        self.require_programmed()?;
        if self.is_empty() {
            return Err(FerexError::Empty);
        }
        let policy = self.repair.clone().unwrap_or(RepairPolicy {
            spare_rows: 0,
            sentinel_rows: 0,
            ..Default::default()
        });
        policy.validate()?;
        if self.row_map.is_empty() {
            self.row_map = vec![RowHealth::Healthy; self.len()];
        }
        let mut findings: Vec<ScrubFinding> = Vec::new();
        let mut checked_logical = 0usize;
        for r in 0..self.len() {
            let (Some(phys), Some(codes)) = (self.physical_row(r), self.codes.row(r)) else {
                continue;
            };
            checked_logical += 1;
            if let Some(f) = self.scrub_row(phys, r, codes, &policy)? {
                findings.push(f);
            }
        }
        let mut sentinel_findings = 0usize;
        for j in 0..self.sentinels() {
            let codeword = self.sentinel_codeword(j);
            let finding =
                self.scrub_row(self.sentinel_phys(j), self.len() + j, &codeword, &policy)?;
            if let Some(f) = finding {
                sentinel_findings += 1;
                findings.push(f);
            }
        }
        let logical_flagged = findings.len() - sentinel_findings;
        let global_drift = logical_flagged >= 2
            && logical_flagged as f64 >= policy.drift_fraction * checked_logical as f64;
        let mut rows_remapped = Vec::new();
        let mut rows_excluded = Vec::new();
        if global_drift {
            for f in &mut findings {
                f.attribution = FaultAttribution::Drift;
            }
        } else {
            let flagged: Vec<usize> =
                findings.iter().map(|f| f.row).filter(|&r| r < self.len()).collect();
            for r in flagged {
                let res = self.quarantine_internal(r, &policy)?;
                match res.spare {
                    Some(phys) => rows_remapped.push((r, phys)),
                    None => rows_excluded.push(r),
                }
            }
        }
        // Modeled latency, not wall clock: probes issued times the analog
        // per-probe search delay — deterministic for a given geometry, so
        // two identical scrubs report identical latencies.
        let probes = (checked_logical + self.sentinels()) * self.encoding.n_stored();
        let elapsed = probes as f64 * self.probe_delay_seconds();
        self.counters.scrubs_completed += 1;
        self.counters.last_scrub_seconds = elapsed;
        Ok(ScrubReport {
            rows_checked: checked_logical + self.sentinels(),
            probes_per_row: self.encoding.n_stored(),
            findings,
            rows_remapped,
            rows_excluded,
            sentinel_findings,
            global_drift,
            latency_seconds: elapsed,
        })
    }

    /// Explicitly quarantines a logical row (e.g. on an external fault
    /// report) and remaps it onto a spare. Returns the spare's physical
    /// index on success.
    ///
    /// # Errors
    ///
    /// [`FerexError::NotProgrammed`] on a stale array;
    /// [`FerexError::SparesExhausted`] when no usable spare is left — the
    /// row is then *excluded* from search (graceful degradation), so the
    /// error reports the state change, it does not roll it back.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of range.
    pub fn quarantine_row(&mut self, row: usize) -> Result<usize, FerexError> {
        assert!(row < self.len(), "row {row} out of range");
        self.require_programmed()?;
        let policy = self.repair.clone().unwrap_or(RepairPolicy {
            spare_rows: 0,
            sentinel_rows: 0,
            ..Default::default()
        });
        if self.row_map.is_empty() {
            self.row_map = vec![RowHealth::Healthy; self.len()];
        }
        let res = self.quarantine_internal(row, &policy)?;
        match res.spare {
            Some(phys) => Ok(phys),
            None => Err(FerexError::SparesExhausted { row, spares: self.spare_state.len() }),
        }
    }
}

// ----------------------------------------------------------------------
// Online mutation: slot table, delta programming, wear leveling. See the
// `mutate` module docs for the state machine.
// ----------------------------------------------------------------------
impl FerexArray {
    /// Switches the array to online-mutation mode with a fixed physical
    /// capacity: the currently stored rows become live slots carrying
    /// their row index as logical id, the remaining slots up to
    /// `policy.capacity` are pre-expanded with zero vectors and marked
    /// free. Fixing the geometry up front means churn never changes the
    /// physical row count — variation-sample and fault-map draws stay
    /// exactly where a from-scratch `program()` puts them, which is what
    /// makes mutated arrays byte-comparable to freshly built ones.
    ///
    /// Any physical state is invalidated (the layout may have grown);
    /// re-program before searching a stochastic backend.
    ///
    /// # Errors
    ///
    /// [`FerexError::InvalidPolicy`] when the policy is out of range,
    /// mutation is already enabled, or more rows are stored than
    /// `policy.capacity`.
    pub fn enable_mutation(&mut self, policy: MutationPolicy) -> Result<(), FerexError> {
        policy.validate()?;
        if self.mutation.is_some() {
            return Err(FerexError::InvalidPolicy { what: "mutation is already enabled" });
        }
        if self.len() > policy.capacity {
            return Err(FerexError::InvalidPolicy {
                what: "mutation capacity below the stored row count",
            });
        }
        let state = MutationState::new(policy, self.len());
        let zeros = vec![0u32; self.dim];
        while self.len() < policy.capacity {
            self.codes.push_row(&zeros);
        }
        self.mutation = Some(state);
        self.invalidate_physical_state();
        Ok(())
    }

    /// `true` once [`FerexArray::enable_mutation`] succeeded.
    pub fn mutation_enabled(&self) -> bool {
        self.mutation.is_some()
    }

    /// The installed mutation policy, if mutation is enabled.
    pub fn mutation_policy(&self) -> Option<&MutationPolicy> {
        self.mutation.as_ref().map(|m| &m.policy)
    }

    /// Occupancy of physical slot `slot` (`None` out of range or when
    /// mutation is disabled).
    pub fn slot_state(&self, slot: usize) -> Option<SlotState> {
        self.mutation.as_ref().and_then(|m| m.slots.get(slot).copied())
    }

    /// The logical id slot `slot` serves, when live.
    pub fn id_at(&self, slot: usize) -> Option<u64> {
        match self.slot_state(slot) {
            Some(SlotState::Live(id)) => Some(id),
            _ => None,
        }
    }

    /// The slot currently serving logical id `id`.
    pub fn slot_of(&self, id: u64) -> Option<usize> {
        self.mutation.as_ref().and_then(|m| m.id_to_slot.get(&id).copied())
    }

    /// The stored vector of a live logical id.
    pub fn vector_of(&self, id: u64) -> Option<Vec<u32>> {
        self.row_vector(self.slot_of(id)?)
    }

    /// Live logical ids, ascending.
    pub fn live_ids(&self) -> Vec<u64> {
        self.mutation.as_ref().map(|m| m.id_to_slot.keys().copied().collect()).unwrap_or_default()
    }

    /// Count of live logical ids.
    pub fn live_len(&self) -> usize {
        self.mutation.as_ref().map_or(0, |m| m.live_len())
    }

    /// Count of tombstoned slots awaiting compaction.
    pub fn tombstones(&self) -> usize {
        self.mutation.as_ref().map_or(0, |m| m.tombstones())
    }

    /// The wear distribution across physical slots (all zero when
    /// mutation is disabled — bulk programming is not counted).
    pub fn wear(&self) -> WearSummary {
        self.mutation.as_ref().map(|m| m.wear()).unwrap_or_default()
    }

    /// `true` when slot `r` is serving a live id (always `true` when
    /// mutation is disabled — every row of a legacy array is live).
    pub fn slot_live(&self, r: usize) -> bool {
        self.mutation.as_ref().is_none_or(|m| m.is_live(r))
    }

    fn mutation_required(&self) -> Result<&MutationState, FerexError> {
        self.mutation
            .as_ref()
            .ok_or(FerexError::InvalidPolicy { what: "mutation is not enabled on this array" })
    }

    /// Delta-programs physical slot `slot` with the contents already
    /// committed to its code row, through the same write-verify path as
    /// [`FerexArray::program_verified`]: program the row, verify every
    /// cell with bounded retry and trim commits, quarantine-and-remap on
    /// unrepairable rows (or fail typed in strict mode). Counts one wear
    /// cycle for the attempt — succeeded or not, the pulse was spent.
    ///
    /// On an unprogrammed array this is a pure accounting step: the
    /// pending bulk `program()` will write the row.
    ///
    /// # Errors
    ///
    /// [`FerexError::VerifyFailed`] under a strict repair policy;
    /// [`FerexError::NotProgrammed`] when the physical state vanished
    /// mid-write.
    pub(crate) fn mutation_write_slot(&mut self, slot: usize) -> Result<(), FerexError> {
        let Some(m) = self.mutation.as_mut() else {
            return Err(FerexError::InvalidPolicy {
                what: "mutation is not enabled on this array",
            });
        };
        m.writes += 1;
        if let Some(c) = m.row_cycles.get_mut(slot) {
            *c += 1;
        }
        // Whatever verify report was cached describes the pre-mutation
        // contents.
        self.program_report = None;
        if !self.is_programmed() {
            return Ok(());
        }
        // The Ideal backend has no physical state, and the Noisy backend
        // reads the stored codes against persistent per-cell samples: for
        // both, the committed code row *is* the write.
        if matches!(self.backend, Backend::Ideal) {
            return Ok(());
        }
        let Some(phys) = self.phys_for_slot(slot) else {
            // The slot's home row is quarantined with no spare: there is
            // no physical target and the row stays excluded from search.
            return Ok(());
        };
        if let Backend::Circuit(_) = &self.backend {
            let plan = self.plan();
            let mut xb = self.crossbar.take().ok_or(FerexError::NotProgrammed)?;
            program_crossbar_row(
                &mut xb,
                &self.tech,
                &self.encoding,
                &plan,
                self.fault_map.as_deref(),
                self.aged_vth.as_deref(),
                phys,
                self.codes.row(slot).unwrap_or_default(),
            );
            self.crossbar = Some(xb);
        }
        if let Some(policy) = self.repair.clone() {
            if self.row_map.is_empty() {
                self.row_map = vec![RowHealth::Healthy; self.len()];
                self.spare_state = vec![SpareState::Free; self.spares()];
            }
            let codes = self.codes.row(slot).unwrap_or_default().to_vec();
            let rv = self.verify_row(phys, &codes, &policy)?;
            if rv.bad.len() > policy.max_bad_cells_per_row {
                if policy.strict {
                    let cell = rv.bad.first().copied().unwrap_or(0);
                    return Err(FerexError::VerifyFailed { row: slot, cell });
                }
                self.quarantine_internal(slot, &policy)?;
            }
        }
        Ok(())
    }

    /// Inserts a new `(id, vector)` pair: the slot choice is the coldest
    /// free slot under wear leveling (lowest index otherwise), the write
    /// goes through the delta write-verify path, and the slot flips live
    /// only after the write settles — a failed write touches nothing that
    /// search can see.
    ///
    /// # Errors
    ///
    /// [`FerexError::DuplicateId`] when `id` is already live;
    /// [`FerexError::CapacityExhausted`] when no slot is free even after
    /// compaction; validation errors; strict-mode write-verify errors.
    pub fn insert(&mut self, id: u64, vector: Vec<u32>) -> Result<(), FerexError> {
        self.validate(&vector)?;
        let m = self.mutation_required()?;
        if m.id_to_slot.contains_key(&id) {
            return Err(FerexError::DuplicateId { id });
        }
        let capacity = m.policy.capacity;
        let slot = match m.choose_insert_slot() {
            Some(s) => s,
            None if m.tombstones() > 0 => {
                // Every free slot is spoken for but tombstones can be
                // reclaimed: compact, then retry the choice.
                self.compact();
                self.mutation_required()?
                    .choose_insert_slot()
                    .ok_or(FerexError::CapacityExhausted { capacity })?
            }
            None => return Err(FerexError::CapacityExhausted { capacity }),
        };
        self.codes.set_row(slot, &vector);
        if let Err(e) = self.mutation_write_slot(slot) {
            // Never made live: zero the logical contents back out.
            self.codes.zero_row(slot);
            return Err(e);
        }
        self.mutation_commit_live(id, slot);
        Ok(())
    }

    /// Replaces the vector of live id `id`. Under wear leveling the write
    /// lands out of place on the coldest free slot and the old slot is
    /// tombstoned (so repeated updates of a hot id spread across the
    /// array); without leveling — or with no free slot left — the row is
    /// re-programmed in place, restoring the old contents logically and
    /// physically if the write fails.
    ///
    /// # Errors
    ///
    /// [`FerexError::UnknownId`]; validation errors; strict-mode
    /// write-verify errors.
    pub fn update_id(&mut self, id: u64, vector: Vec<u32>) -> Result<(), FerexError> {
        self.validate(&vector)?;
        let m = self.mutation_required()?;
        let Some(&old) = m.id_to_slot.get(&id) else {
            return Err(FerexError::UnknownId { id });
        };
        let target = if m.policy.wear_leveling { m.choose_insert_slot() } else { None };
        match target {
            Some(new) if new != old => {
                self.codes.set_row(new, &vector);
                if let Err(e) = self.mutation_write_slot(new) {
                    self.codes.zero_row(new);
                    return Err(e);
                }
                self.mutation_commit_move(id, old, new);
                self.maybe_auto_compact();
                Ok(())
            }
            _ => {
                let previous = self.row_vector(old).unwrap_or_default();
                self.codes.set_row(old, &vector);
                match self.mutation_write_slot(old) {
                    Ok(()) => Ok(()),
                    Err(e) => {
                        // Crash consistency: roll the row back to its old
                        // contents, logically and (best-effort) physically.
                        self.codes.set_row(old, &previous);
                        let _ = self.mutation_write_slot(old);
                        Err(e)
                    }
                }
            }
        }
    }

    /// Tombstones live id `id`: a purely logical transition (the kernels
    /// skip the slot like a quarantined row), no erase pulse, no wear.
    /// Auto-compacts when the tombstone fraction reaches the policy
    /// threshold.
    ///
    /// # Errors
    ///
    /// [`FerexError::UnknownId`].
    pub fn delete(&mut self, id: u64) -> Result<(), FerexError> {
        let Some(m) = self.mutation.as_mut() else {
            return Err(FerexError::InvalidPolicy {
                what: "mutation is not enabled on this array",
            });
        };
        let Some(slot) = m.id_to_slot.remove(&id) else {
            return Err(FerexError::UnknownId { id });
        };
        if let Some(s) = m.slots.get_mut(slot) {
            *s = SlotState::Dead;
        }
        // The cached verify report counted this row live.
        self.program_report = None;
        self.maybe_auto_compact();
        Ok(())
    }

    /// Reclaims every tombstoned slot back to free, zeroing its logical
    /// contents. Deterministic and purely logical — stale physical
    /// content on a reclaimed slot is unreachable (excluded from search,
    /// skipped by verify and scrub) until an insert re-programs it, so no
    /// erase pulses are spent. Logical ids never move: compaction
    /// reclaims *slots*, the id → slot map is untouched.
    pub fn compact(&mut self) -> CompactionReport {
        let Some(m) = self.mutation.as_mut() else {
            return CompactionReport::default();
        };
        m.compactions += 1;
        let mut reclaimed = Vec::new();
        for (i, s) in m.slots.iter_mut().enumerate() {
            if matches!(s, SlotState::Dead) {
                *s = SlotState::Free;
                reclaimed.push(i);
            }
        }
        let report = CompactionReport { reclaimed: reclaimed.len(), rotated: 0 };
        for i in reclaimed {
            self.codes.zero_row(i);
        }
        if report.reclaimed > 0 {
            self.program_report = None;
        }
        report
    }

    fn maybe_auto_compact(&mut self) {
        if self.mutation.as_ref().is_some_and(|m| m.should_auto_compact()) {
            self.compact();
        }
    }

    /// One background maintenance step, meant to run on the scrub
    /// cadence: compacts when the tombstone fraction has reached the
    /// policy threshold, then (under wear leveling) re-encodes the
    /// hottest live row onto the coldest free slot when its wear exceeds
    /// the target's by more than one cycle. The rotation is abandoned —
    /// with no logical change — if the delta write fails, so maintenance
    /// itself never errors.
    pub fn maintenance(&mut self) -> CompactionReport {
        let mut report = CompactionReport::default();
        let Some(m) = self.mutation.as_ref() else {
            return report;
        };
        if m.should_auto_compact() {
            report = self.compact();
        }
        let Some(m) = self.mutation.as_ref() else {
            return report;
        };
        let Some((src, dst)) = m.rotation_candidate() else {
            return report;
        };
        let Some(SlotState::Live(id)) = m.slots.get(src).copied() else {
            return report;
        };
        let vector = self.row_vector(src).unwrap_or_default();
        self.codes.set_row(dst, &vector);
        if self.mutation_write_slot(dst).is_err() {
            // Abandon the rotation: the destination stays free (its stale
            // physical content is excluded from search), no logical change.
            self.codes.zero_row(dst);
            return report;
        }
        self.mutation_commit_move(id, src, dst);
        report.rotated += 1;
        report
    }

    /// Crate-internal: the mutation book-keeping, for the tiled array's
    /// two-phase coordination.
    pub(crate) fn mutation_state(&self) -> Option<&MutationState> {
        self.mutation.as_ref()
    }

    /// Crate-internal: replaces slot contents without touching slot state
    /// (phase one of a coordinated mutation, or its rollback).
    pub(crate) fn mutation_set_contents(&mut self, slot: usize, vector: &[u32]) {
        self.codes.set_row(slot, vector);
    }

    /// Crate-internal: marks a prepared slot live for `id` (phase two of a
    /// coordinated insert). Infallible and purely logical.
    pub(crate) fn mutation_commit_live(&mut self, id: u64, slot: usize) {
        if let Some(m) = self.mutation.as_mut() {
            if let Some(s) = m.slots.get_mut(slot) {
                *s = SlotState::Live(id);
            }
            m.id_to_slot.insert(id, slot);
        }
    }

    /// Crate-internal: commits a move of `id` from `src` to the prepared
    /// slot `dst`, tombstoning `src` (phase two of a coordinated
    /// out-of-place update or wear rotation). Infallible and purely
    /// logical.
    pub(crate) fn mutation_commit_move(&mut self, id: u64, src: usize, dst: usize) {
        if let Some(m) = self.mutation.as_mut() {
            if let Some(s) = m.slots.get_mut(dst) {
                *s = SlotState::Live(id);
            }
            if let Some(s) = m.slots.get_mut(src) {
                *s = SlotState::Dead;
            }
            m.id_to_slot.insert(id, dst);
        }
    }
}

impl MutableNode for FerexArray {
    fn insert(&mut self, id: u64, vector: Vec<u32>) -> Result<(), FerexError> {
        FerexArray::insert(self, id, vector)
    }

    fn update(&mut self, id: u64, vector: Vec<u32>) -> Result<(), FerexError> {
        FerexArray::update_id(self, id, vector)
    }

    fn delete(&mut self, id: u64) -> Result<(), FerexError> {
        FerexArray::delete(self, id)
    }

    fn compact(&mut self) -> CompactionReport {
        FerexArray::compact(self)
    }

    fn maintenance(&mut self) -> CompactionReport {
        FerexArray::maintenance(self)
    }

    fn slot_of(&self, id: u64) -> Option<usize> {
        FerexArray::slot_of(self, id)
    }

    fn vector_of(&self, id: u64) -> Option<Vec<u32>> {
        FerexArray::vector_of(self, id)
    }

    fn live_ids(&self) -> Vec<u64> {
        FerexArray::live_ids(self)
    }

    fn live_len(&self) -> usize {
        FerexArray::live_len(self)
    }

    fn tombstones(&self) -> usize {
        FerexArray::tombstones(self)
    }

    fn wear(&self) -> WearSummary {
        FerexArray::wear(self)
    }
}

/// Per-row tally of one write-verify pass.
#[derive(Debug, Default)]
struct RowVerify {
    clean: usize,
    repaired: usize,
    failed: usize,
    retries: usize,
    /// Columns whose cells failed verify.
    bad: Vec<usize>,
}

/// Result of trying to remap a quarantined row onto the spare pool.
#[derive(Debug, Default)]
struct RemapResult {
    /// Physical index of the spare now serving the row, or `None` when the
    /// pool ran dry and the row was excluded.
    spare: Option<usize>,
    /// Spares burned while trying.
    burned: usize,
    /// Retry pulses spent bringing spares up.
    retries: usize,
}

/// Programs one physical crossbar row with the encoding of `codes`,
/// applying the row's fault-map entries and aging — the single definition
/// used for logical rows, sentinels, and spare bring-up, so all three see
/// identical device behavior.
#[allow(clippy::too_many_arguments)]
fn program_crossbar_row(
    xb: &mut Crossbar,
    tech: &Technology,
    encoding: &CellEncoding,
    plan: &FaultPlan,
    fault_map: Option<&[CellFault]>,
    aged: Option<&[Volt]>,
    phys_row: usize,
    codes: &[u8],
) {
    let k = encoding.k;
    let cols = codes.len() * k;
    // lint:allow(panic-safety/index, reason = "codes are validated against the encoding before programming; f < k and stored encodings carry exactly k levels")
    for (d, &s) in codes.iter().enumerate() {
        let st = &encoding.stored[usize::from(s)];
        for f in 0..k {
            let col = d * k + f;
            let level = st.vth_levels[f];
            let fault = fault_map
                .and_then(|m| m.get(phys_row * cols + col))
                .copied()
                .unwrap_or(CellFault::None);
            match fault {
                CellFault::None | CellFault::ResistorShort => {
                    xb.program(phys_row, col, level);
                    if let Some(aged) = aged {
                        // Aging moves the written polarization; the
                        // device's own ΔVth stays intact.
                        let vth = aged.get(level).copied().unwrap_or_else(|| tech.vth_level(level));
                        let p = tech.polarization_for_vth(vth);
                        xb.cell_mut(phys_row, col)
                            .fefet_mut()
                            .ferroelectric_mut()
                            .set_polarization(p);
                    }
                    if fault == CellFault::ResistorShort {
                        xb.cell_mut(phys_row, col).scale_resistance(plan.short_residual_r);
                    }
                }
                // Stuck fully set: conducts as the lowest level.
                CellFault::StuckAtLowVth => xb.program(phys_row, col, 0),
                // Stuck fully reset: the erased state sits above every
                // search level, so leave the fresh cell.
                CellFault::StuckAtHighVth => {}
                CellFault::ResistorOpen => {
                    xb.program(phys_row, col, level);
                    xb.cell_mut(phys_row, col).scale_resistance(OPEN_RESISTANCE_SCALE);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::DistanceMetric;
    use crate::dm::DistanceMatrix;
    use crate::sizing::{find_minimal_cell, SizingOptions};

    fn hamming_array(dim: usize, backend: Backend) -> FerexArray {
        let dm = DistanceMatrix::from_metric(DistanceMetric::Hamming, 2);
        let report = find_minimal_cell(&dm, &SizingOptions::default()).expect("sizes");
        FerexArray::new(Technology::default(), report.encoding, dim, backend)
    }

    /// Every stored row, in row order.
    fn rows(a: &FerexArray) -> Vec<Vec<u32>> {
        (0..a.len()).filter_map(|r| a.row_vector(r)).collect()
    }

    #[test]
    fn ideal_search_matches_metric() {
        let mut a = hamming_array(4, Backend::Ideal);
        a.store(vec![0, 1, 2, 3]).unwrap();
        a.store(vec![3, 2, 1, 0]).unwrap();
        a.store(vec![0, 0, 0, 0]).unwrap();
        let q = [0, 1, 2, 0];
        let out = a.search(&q).unwrap();
        let m = DistanceMetric::Hamming;
        for (r, stored) in rows(&a).iter().enumerate() {
            let expected = m.vector_distance(&q, stored) as f64;
            assert_eq!(out.distances[r], expected, "row {r}");
        }
        assert_eq!(out.nearest, 0);
    }

    #[test]
    fn circuit_search_agrees_with_ideal_when_nominal() {
        let cfg = CircuitConfig {
            variation: VariationModel::none(),
            lta: LtaParams::ideal(),
            ..Default::default()
        };
        let mut ideal = hamming_array(6, Backend::Ideal);
        let mut circuit = hamming_array(6, Backend::Circuit(Box::new(cfg)));
        let vectors = [vec![0, 1, 2, 3, 0, 1], vec![3, 3, 3, 3, 3, 3], vec![0, 0, 1, 1, 2, 2]];
        for v in &vectors {
            ideal.store(v.clone()).unwrap();
            circuit.store(v.clone()).unwrap();
        }
        let q = [0, 1, 2, 3, 1, 1];
        circuit.program();
        let oi = ideal.search(&q).unwrap();
        let oc = circuit.search(&q).unwrap();
        assert_eq!(oi.nearest, oc.nearest);
        for (a, b) in oi.distances.iter().zip(&oc.distances) {
            assert!((a - b).abs() < 0.1, "ideal {a} vs circuit {b}");
        }
    }

    #[test]
    fn search_k_orders_by_distance() {
        let mut a = hamming_array(4, Backend::Ideal);
        a.store(vec![0, 0, 0, 0]).unwrap(); // d = 4 from q
        a.store(vec![1, 1, 1, 1]).unwrap(); // d = 0
        a.store(vec![1, 1, 0, 0]).unwrap(); // d = 2
        let top = a.search_k(&[1, 1, 1, 1], 3).unwrap();
        assert_eq!(top, vec![1, 2, 0]);
    }

    #[test]
    fn reconfigure_keeps_stored_data() {
        let mut a = hamming_array(3, Backend::Ideal);
        a.store(vec![0, 3, 1]).unwrap();
        a.store(vec![2, 2, 2]).unwrap();
        let dm = DistanceMatrix::from_metric(DistanceMetric::Manhattan, 2);
        let enc = find_minimal_cell(&dm, &SizingOptions::default()).unwrap().encoding;
        a.reconfigure(enc).unwrap();
        let q = [0, 3, 0];
        let out = a.search(&q).unwrap();
        let m = DistanceMetric::Manhattan;
        for (r, stored) in rows(&a).iter().enumerate() {
            assert_eq!(out.distances[r], m.vector_distance(&q, stored) as f64);
        }
    }

    #[test]
    fn validation_errors() {
        let mut a = hamming_array(3, Backend::Ideal);
        assert!(matches!(
            a.store(vec![0, 1]),
            Err(FerexError::DimensionMismatch { expected: 3, got: 2 })
        ));
        assert!(matches!(
            a.store(vec![0, 1, 4]),
            Err(FerexError::SymbolOutOfRange { value: 4, .. })
        ));
        assert!(matches!(a.search(&[0, 0, 0]), Err(FerexError::Empty)));
    }

    #[test]
    fn symbols_beyond_one_byte_are_rejected_whatever_the_alphabet() {
        // A hand-built 300-level encoding (the CSP encoder never exceeds
        // 64): the array stores one byte per symbol, so validation caps
        // symbols at 256 and reports that cap as the alphabet.
        let mut enc = hamming_array(1, Backend::Ideal).encoding().clone();
        let level = enc.stored[0].clone();
        enc.stored = vec![level; 300];
        let mut a = FerexArray::new(Technology::default(), enc, 4, Backend::Ideal);
        assert_eq!(
            a.store(vec![299, 0, 0, 0]),
            Err(FerexError::SymbolOutOfRange { value: 299, n_values: 256 })
        );
        assert_eq!(
            a.store(vec![0, 256, 0, 0]),
            Err(FerexError::SymbolOutOfRange { value: 256, n_values: 256 })
        );
        a.store(vec![255, 0, 1, 2]).unwrap();
        assert_eq!(a.row_vector(0), Some(vec![255, 0, 1, 2]), "255 survives the byte store");
    }

    #[test]
    fn noisy_backend_matches_ideal_when_nominal() {
        let cfg = CircuitConfig {
            variation: VariationModel::none(),
            lta: LtaParams::ideal(),
            ..Default::default()
        };
        let mut ideal = hamming_array(8, Backend::Ideal);
        let mut noisy = hamming_array(8, Backend::Noisy(Box::new(cfg)));
        for v in [vec![0u32; 8], vec![3; 8], vec![0, 1, 2, 3, 0, 1, 2, 3]] {
            ideal.store(v.clone()).unwrap();
            noisy.store(v).unwrap();
        }
        let q = [0, 1, 2, 3, 3, 2, 1, 0];
        noisy.program();
        let oi = ideal.search(&q).unwrap();
        let on = noisy.search(&q).unwrap();
        assert_eq!(oi.distances, on.distances);
        assert_eq!(oi.nearest, on.nearest);
    }

    #[test]
    fn noisy_and_circuit_statistics_agree() {
        // The fast statistical backend must reproduce the device-level
        // backend's current statistics on the same workload: identical ON
        // counts in the nominal part, comparable spread under variation.
        let stored = vec![vec![0u32; 12], vec![1; 12]];
        let q = vec![3u32; 12]; // every cell conducts per the ladder
        let run = |backend: Backend| -> Vec<f64> {
            let mut a = hamming_array(12, backend);
            a.store_all(stored.clone()).unwrap();
            a.program();
            a.distances(&q).unwrap()
        };
        let mut noisy_spread = Vec::new();
        let mut circuit_spread = Vec::new();
        for seed in 0..6 {
            let cfg = CircuitConfig { seed, ..Default::default() };
            let n = run(Backend::Noisy(Box::new(cfg.clone())));
            let c = run(Backend::Circuit(Box::new(cfg)));
            for (dn, dc) in n.iter().zip(&c) {
                noisy_spread.push(*dn);
                circuit_spread.push(*dc);
                // Same workload, same error mechanisms: within a few
                // percent of each other on aggregate row current.
                assert!((dn - dc).abs() / dc < 0.15, "noisy {dn} vs circuit {dc} diverge");
            }
        }
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        assert!((mean(&noisy_spread) - mean(&circuit_spread)).abs() < 1.0);
    }

    #[test]
    fn digital_readout_codes_track_distances() {
        use ferex_analog::adc::AdcParams;
        let mut a = hamming_array(8, Backend::Ideal);
        a.store(vec![0; 8]).unwrap();
        a.store(vec![1; 8]).unwrap();
        a.store(vec![3; 8]).unwrap();
        let q = vec![0u32; 8];
        // 10-bit ADC auto-ranged: integer distances must come back as
        // proportional codes preserving the ordering.
        let adc =
            AdcParams { bits: 10, full_scale: ferex_fefet::units::Amp(0.0), ..Default::default() };
        let readout = a.read_digital(&q, &adc, 1).unwrap();
        assert_eq!(readout.codes.len(), 3);
        assert!(readout.codes[0] < readout.codes[1]);
        assert!(readout.codes[1] < readout.codes[2]);
        assert!(readout.time.value() > 0.0);
        assert!(readout.energy.value() > 0.0);
    }

    #[test]
    fn remove_and_update_rows() {
        let mut a = hamming_array(2, Backend::Ideal);
        a.store(vec![0, 0]).unwrap();
        a.store(vec![1, 1]).unwrap();
        a.store(vec![2, 2]).unwrap();
        let removed = a.remove(1);
        assert_eq!(removed, vec![1, 1]);
        assert_eq!(a.len(), 2);
        assert_eq!(a.row_vector(1), Some(vec![2, 2]));
        a.update(0, vec![3, 3]).unwrap();
        let out = a.search(&[3, 3]).unwrap();
        assert_eq!(out.nearest, 0);
        assert_eq!(out.distances[0], 0.0);
        // Invalid update leaves the array unchanged.
        assert!(a.update(0, vec![9, 9]).is_err());
        assert_eq!(a.row_vector(0), Some(vec![3, 3]));
        assert_eq!(a.row_vector(2), None);
    }

    #[test]
    fn circuit_with_variation_is_deterministic_per_seed() {
        let mk = || {
            let cfg = CircuitConfig { seed: 42, ..Default::default() };
            let mut a = hamming_array(8, Backend::Circuit(Box::new(cfg)));
            a.store(vec![0; 8]).unwrap();
            a.store(vec![1; 8]).unwrap();
            a.program();
            a.search(&[0, 0, 0, 0, 1, 1, 1, 1]).unwrap()
        };
        assert_eq!(mk(), mk());
    }

    fn noisy_cfg(seed: u64) -> Backend {
        Backend::Noisy(Box::new(CircuitConfig { seed, ..Default::default() }))
    }

    #[test]
    fn stale_stochastic_state_is_rejected_until_programmed() {
        let mut a = hamming_array(4, noisy_cfg(11));
        a.store(vec![0, 1, 2, 3]).unwrap();
        assert_eq!(a.search(&[0, 1, 2, 3]), Err(FerexError::NotProgrammed));
        assert!(!a.is_programmed());
        a.program();
        assert!(a.is_programmed());
        assert!(a.search(&[0, 1, 2, 3]).is_ok());
        // Any mutation re-stales the state…
        a.store(vec![3, 3, 3, 3]).unwrap();
        assert_eq!(a.distances(&[0; 4]), Err(FerexError::NotProgrammed));
        // …and program() is idempotent once re-run.
        a.program();
        a.program();
        assert!(a.search_k(&[0; 4], 2).is_ok());
    }

    #[test]
    fn program_is_idempotent_for_variation_samples() {
        let mut a = hamming_array(6, noisy_cfg(5));
        a.store(vec![0; 6]).unwrap();
        a.program();
        let before = a.distances(&[3; 6]).unwrap();
        a.program(); // no-op: must not redraw the variation samples
        assert_eq!(before, a.distances(&[3; 6]).unwrap());
    }

    #[test]
    fn invalid_k_reports_dedicated_error() {
        let mut a = hamming_array(2, Backend::Ideal);
        a.store(vec![0, 0]).unwrap();
        a.store(vec![1, 1]).unwrap();
        assert_eq!(a.search_k(&[0, 0], 0), Err(FerexError::InvalidK { k: 0, rows: 2 }));
        assert_eq!(a.search_k(&[0, 0], 3), Err(FerexError::InvalidK { k: 3, rows: 2 }));
        // An empty array still reports Empty, not InvalidK.
        let empty = hamming_array(2, Backend::Ideal);
        assert_eq!(empty.search_k(&[0, 0], 1), Err(FerexError::Empty));
    }

    fn batch_fixture(backend: Backend) -> (FerexArray, Vec<Vec<u32>>) {
        let mut a = hamming_array(8, backend);
        for r in 0..12u32 {
            a.store((0..8).map(|d| (r + d) % 4).collect()).unwrap();
        }
        a.program();
        let queries: Vec<Vec<u32>> =
            (0..9u32).map(|q| (0..8).map(|d| (q * 3 + d) % 4).collect()).collect();
        (a, queries)
    }

    #[test]
    fn batch_search_is_bit_identical_to_sequential() {
        for backend in [
            Backend::Ideal,
            Backend::Circuit(Box::new(CircuitConfig { seed: 77, ..Default::default() })),
            Backend::Noisy(Box::new(CircuitConfig { seed: 77, ..Default::default() })),
        ] {
            let (a, queries) = batch_fixture(backend.clone());
            let batched = a.search_batch(&queries).unwrap();
            let sequential: Vec<SearchOutcome> = queries
                .iter()
                .enumerate()
                .map(|(i, q)| a.search_at(q, i as u64).unwrap())
                .collect();
            assert_eq!(batched, sequential, "backend {backend:?}");
            // On a fresh array the counter starts at 0, so plain search()
            // in a loop reproduces the batch too.
            let counted: Vec<SearchOutcome> =
                queries.iter().map(|q| a.search(q).unwrap()).collect();
            assert_eq!(batched, counted, "counter path, backend {backend:?}");
        }
    }

    #[test]
    fn batch_search_k_is_bit_identical_to_sequential() {
        let (a, queries) = batch_fixture(noisy_cfg(13));
        let batched = a.search_k_batch(&queries, 3).unwrap();
        for (i, q) in queries.iter().enumerate() {
            assert_eq!(batched[i], a.search_k_at(q, 3, i as u64).unwrap());
        }
    }

    #[test]
    fn batch_validates_every_query_before_serving() {
        let (a, mut queries) = batch_fixture(Backend::Ideal);
        queries.last_mut().unwrap()[0] = 9; // out of range, last query
        assert!(matches!(
            a.search_batch(&queries),
            Err(FerexError::SymbolOutOfRange { value: 9, .. })
        ));
        assert_eq!(a.search_batch(&[]).unwrap(), Vec::<SearchOutcome>::new());
    }

    /// Deterministic fault-study corner: no variation, ideal LTA, so every
    /// difference from the benign run is attributable to the plan.
    fn faulty_cfg(plan: FaultPlan, seed: u64) -> CircuitConfig {
        CircuitConfig {
            variation: VariationModel::none(),
            lta: LtaParams::ideal(),
            faults: plan,
            seed,
            ..Default::default()
        }
    }

    #[test]
    fn benign_plan_materializes_no_fault_state() {
        let mut a = hamming_array(4, Backend::Noisy(Box::new(faulty_cfg(FaultPlan::none(), 3))));
        a.store(vec![0, 1, 2, 3]).unwrap();
        a.program();
        assert!(a.fault_map().is_none());
        assert!(a.is_programmed());
    }

    #[test]
    fn dead_cells_never_conduct() {
        for plan in [
            FaultPlan { sa1_rate: 1.0, ..Default::default() },
            FaultPlan { open_rate: 1.0, ..Default::default() },
        ] {
            let mut a = hamming_array(4, Backend::Noisy(Box::new(faulty_cfg(plan, 1))));
            a.store(vec![0, 1, 2, 3]).unwrap();
            a.program();
            assert_eq!(a.distances(&[3, 2, 1, 0]).unwrap(), vec![0.0], "{plan:?}");
        }
    }

    #[test]
    fn sa0_cells_conduct_as_level_zero() {
        let plan = FaultPlan { sa0_rate: 1.0, ..Default::default() };
        let mut a = hamming_array(4, Backend::Noisy(Box::new(faulty_cfg(plan, 1))));
        a.store(vec![0, 1, 2, 3]).unwrap();
        a.program();
        let q = [2u32, 2, 2, 2];
        // Every cell behaves as stored level 0, so the row current is the
        // query's total drive over fets whose search level turns level 0 on.
        let enc = a.encoding().clone();
        let expected: f64 = q
            .iter()
            .map(|&qq| {
                let se = &enc.search[qq as usize];
                (0..enc.k)
                    .map(|f| if se.vgs_levels[f] > 0 { se.vds_multiples[f] as f64 } else { 0.0 })
                    .sum::<f64>()
            })
            .sum();
        assert_eq!(a.distances(&q).unwrap(), vec![expected]);
    }

    #[test]
    fn shorted_cells_scale_contributions_exactly() {
        let short = FaultPlan { short_rate: 1.0, short_residual_r: 0.5, ..Default::default() };
        let run = |plan: FaultPlan| {
            let mut a = hamming_array(4, Backend::Noisy(Box::new(faulty_cfg(plan, 1))));
            a.store(vec![0, 1, 2, 3]).unwrap();
            a.program();
            a.distances(&[2, 2, 2, 2]).unwrap()
        };
        let benign = run(FaultPlan::none());
        let shorted = run(short);
        assert!(benign[0] > 0.0);
        for (b, s) in benign.iter().zip(&shorted) {
            assert_eq!(*s, b * 2.0, "residual 0.5 must exactly double the clamp current");
        }
    }

    #[test]
    fn aging_alters_distances_deterministically() {
        // Deep fatigue contracts the window far enough that search levels
        // stop resolving adjacent stored levels.
        let plan = FaultPlan { endurance_cycles: 1.0e9, ..Default::default() };
        let run = |plan: FaultPlan| {
            let mut a = hamming_array(6, Backend::Noisy(Box::new(faulty_cfg(plan, 2))));
            a.store(vec![0, 1, 2, 3, 0, 1]).unwrap();
            a.store(vec![3, 2, 1, 0, 3, 2]).unwrap();
            a.program();
            a.distances(&[0, 1, 2, 3, 3, 3]).unwrap()
        };
        let aged = run(plan);
        assert_eq!(aged, run(plan), "aging must be deterministic");
        assert_ne!(aged, run(FaultPlan::none()), "deep fatigue must move the distances");
    }

    #[test]
    fn faulted_batch_distances_match_scalar_exactly() {
        let plan = FaultPlan {
            sa0_rate: 0.1,
            sa1_rate: 0.1,
            open_rate: 0.1,
            short_rate: 0.1,
            retention_seconds: 1.0e7,
            endurance_cycles: 1.0e8,
            ..Default::default()
        };
        // Full variation on top of the faults: the scalar and batched reads
        // must still agree bit-for-bit.
        let cfg = CircuitConfig { faults: plan, seed: 21, ..Default::default() };
        let (a, queries) = batch_fixture(Backend::Noisy(Box::new(cfg)));
        let batched = a.distances_batch(&queries).unwrap();
        for (i, q) in queries.iter().enumerate() {
            assert_eq!(batched[i], a.distances(q).unwrap(), "query {i}");
        }
    }

    #[test]
    fn noisy_and_circuit_fault_the_same_cells() {
        let plan = FaultPlan { sa1_rate: 0.25, open_rate: 0.25, ..Default::default() };
        let mk = |backend: Backend| {
            let mut a = hamming_array(12, backend);
            a.store(vec![0; 12]).unwrap();
            a.store(vec![1; 12]).unwrap();
            a.program();
            a
        };
        let noisy = mk(Backend::Noisy(Box::new(faulty_cfg(plan, 17))));
        let circuit = mk(Backend::Circuit(Box::new(faulty_cfg(plan, 17))));
        // Same config seed → identical fault maps across backends.
        assert_eq!(noisy.fault_map().unwrap(), circuit.fault_map().unwrap());
        let q = vec![3u32; 12]; // drives every healthy cell on
        let dn = noisy.distances(&q).unwrap();
        let dc = circuit.distances(&q).unwrap();
        for (n, c) in dn.iter().zip(&dc) {
            assert!((n - c).abs() < 0.1 * n.max(1.0), "noisy {n} vs circuit {c}");
        }
    }

    #[test]
    fn fault_state_invalidated_on_mutation() {
        let plan = FaultPlan { sa0_rate: 0.5, ..Default::default() };
        let mut a = hamming_array(4, Backend::Noisy(Box::new(faulty_cfg(plan, 4))));
        a.store(vec![0, 1, 2, 3]).unwrap();
        a.program();
        assert!(a.fault_map().is_some());
        a.store(vec![3, 3, 3, 3]).unwrap();
        assert!(a.fault_map().is_none(), "mutation must drop the stale fault map");
        a.program();
        let map = a.fault_map().unwrap().to_vec();
        // Per-index hashing: the original prefix survives the re-program.
        assert_eq!(&map[..a.physical_cols()], &plan.fault_map(4, a.physical_cols())[..]);
    }

    #[test]
    fn query_ids_draw_decorrelated_sensing_noise() {
        // Two rows at identical distance: the LTA coin-flip is decided
        // purely by the per-query offset stream, so over many ids both
        // outcomes must appear (a correlated stream would pin one).
        let cfg = CircuitConfig { variation: VariationModel::none(), ..Default::default() };
        let mut a = hamming_array(2, Backend::Noisy(Box::new(cfg)));
        a.store(vec![0, 1]).unwrap();
        a.store(vec![1, 0]).unwrap();
        a.program();
        let wins: Vec<usize> =
            (0..64).map(|qid| a.search_at(&[0, 0], qid).unwrap().nearest).collect();
        assert!(wins.contains(&0) && wins.contains(&1), "offsets look frozen: {wins:?}");
    }

    // ------------------------------------------------------------------
    // Self-healing: write-verify, sparing, scrub.
    // ------------------------------------------------------------------

    fn stored_rows(dim: usize) -> Vec<Vec<u32>> {
        (0..6).map(|r| (0..dim).map(|d| ((r + d) % 4) as u32).collect()).collect()
    }

    #[test]
    fn no_repair_policy_keeps_legacy_layout_and_health() {
        let mut a = hamming_array(4, noisy_cfg(11));
        for v in stored_rows(4) {
            a.store(v).unwrap();
        }
        a.program();
        let h = a.health();
        assert_eq!(h.spare_rows, 0);
        assert_eq!(h.rows_active, 6);
        assert_eq!(h.rows_quarantined_now, 0);
        assert_eq!(a.row_health(0), RowHealth::Healthy);
        assert!(a.program_report().is_none());
    }

    #[test]
    fn program_verified_report_is_deterministic_and_cached() {
        let plan = FaultPlan { sa1_rate: 0.15, ..Default::default() };
        let mk = || {
            let mut a = hamming_array(4, Backend::Noisy(Box::new(faulty_cfg(plan, 9))));
            a.set_repair_policy(RepairPolicy { spare_rows: 8, ..Default::default() }).unwrap();
            for v in stored_rows(4) {
                a.store(v).unwrap();
            }
            let report = a.program_verified().unwrap();
            (a, report)
        };
        let (mut a, first) = mk();
        let (_, second) = mk();
        assert_eq!(first, second, "same seed must give the same report");
        // Re-verifying an already-verified array replays the cached report
        // without double-counting.
        let counters = a.health().counters;
        let replay = a.program_verified().unwrap();
        assert_eq!(replay, first);
        assert_eq!(a.health().counters, counters);
    }

    #[test]
    fn program_verified_trims_default_variation_to_ideal() {
        let cfg = CircuitConfig { lta: LtaParams::ideal(), ..Default::default() };
        let mut a = hamming_array(4, Backend::Noisy(Box::new(cfg)));
        a.set_repair_policy(RepairPolicy::default()).unwrap();
        for v in stored_rows(4) {
            a.store(v).unwrap();
        }
        let report = a.program_verified().unwrap();
        assert_eq!(report.cells_failed, 0, "default variation must be repairable");
        assert!(report.cells_repaired > 0, "σ_Vth = 54 mV must need some trims");
        assert!(report.rows_quarantined.is_empty());
        // After trimming, every |ΔVth| is within tolerance (30 mV), far from
        // the 200 mV decision margin: each cell's ON/OFF decision is exact
        // and only the ±8 % resistor spread remains on the magnitude.
        let q = [0, 1, 2, 3];
        let out = a.search(&q).unwrap();
        for (r, stored) in rows(&a).iter().enumerate() {
            let expected = DistanceMetric::Hamming.vector_distance(&q, stored) as f64;
            assert!(
                (out.distances[r] - expected).abs() < 0.2 * expected.max(1.0),
                "row {r}: read {} expected {expected}",
                out.distances[r]
            );
        }
    }

    #[test]
    fn quarantine_and_remap_preserve_logical_row_ids() {
        let plan = FaultPlan { sa1_rate: 0.05, ..Default::default() };
        for backend in [
            Backend::Noisy(Box::new(faulty_cfg(plan, 21))),
            Backend::Circuit(Box::new(faulty_cfg(plan, 21))),
        ] {
            let mut a = hamming_array(4, backend);
            a.set_repair_policy(RepairPolicy { spare_rows: 16, ..Default::default() }).unwrap();
            for v in stored_rows(4) {
                a.store(v).unwrap();
            }
            let report = a.program_verified().unwrap();
            assert!(!report.rows_remapped.is_empty(), "seed must fault at least one row");
            let q = [0, 1, 2, 3];
            let out = a.search(&q).unwrap();
            assert_eq!(out.distances.len(), 6, "results stay keyed by logical row id");
            for (r, stored) in rows(&a).iter().enumerate() {
                let expected = DistanceMetric::Hamming.vector_distance(&q, stored) as f64;
                match a.row_health(r) {
                    RowHealth::Quarantined => assert!(out.distances[r].is_infinite()),
                    // Healthy rows passed verify, remapped rows sit on
                    // verified spares: both read back the metric (up to the
                    // circuit solver's numerical tolerance).
                    _ => assert!(
                        (out.distances[r] - expected).abs() < 0.1,
                        "row {r}: read {} expected {expected}",
                        out.distances[r]
                    ),
                }
            }
        }
    }

    #[test]
    fn exhausted_spares_degrade_to_row_exclusion() {
        let mut a = hamming_array(4, Backend::Noisy(Box::new(faulty_cfg(FaultPlan::none(), 5))));
        a.set_repair_policy(RepairPolicy { spare_rows: 1, ..Default::default() }).unwrap();
        for v in stored_rows(4) {
            a.store(v).unwrap();
        }
        a.program_verified().unwrap();
        let spare = a.quarantine_row(0).unwrap();
        assert_eq!(a.row_health(0), RowHealth::Remapped { spare });
        assert_eq!(a.quarantine_row(1), Err(FerexError::SparesExhausted { row: 1, spares: 1 }));
        assert_eq!(a.row_health(1), RowHealth::Quarantined);
        let out = a.search(&[0, 1, 2, 3]).unwrap();
        assert!(out.distances[1].is_infinite(), "excluded row reads ∞");
        assert_eq!(out.distances[0], 0.0, "remapped row still serves its vector");
        // k-nearest sees 5 active rows, not 6.
        assert_eq!(a.search_k(&[0, 1, 2, 3], 5).unwrap().len(), 5);
        assert_eq!(a.search_k(&[0, 1, 2, 3], 6), Err(FerexError::InvalidK { k: 6, rows: 5 }));
        let h = a.health();
        assert_eq!((h.spares_in_use, h.rows_quarantined_now, h.rows_active), (1, 1, 5));
    }

    #[test]
    fn strict_policy_rejects_unverifiable_rows() {
        let plan = FaultPlan { sa1_rate: 1.0, ..Default::default() };
        let mut a = hamming_array(4, Backend::Noisy(Box::new(faulty_cfg(plan, 1))));
        a.set_repair_policy(RepairPolicy { strict: true, ..Default::default() }).unwrap();
        a.store(vec![0, 1, 2, 3]).unwrap();
        match a.program_verified() {
            Err(FerexError::VerifyFailed { row: 0, .. }) => {}
            other => panic!("expected VerifyFailed on row 0, got {other:?}"),
        }
    }

    #[test]
    fn scrub_is_clean_on_healthy_arrays() {
        for backend in [
            Backend::Noisy(Box::new(faulty_cfg(FaultPlan::none(), 7))),
            Backend::Circuit(Box::new(faulty_cfg(FaultPlan::none(), 7))),
        ] {
            let mut a = hamming_array(4, backend);
            a.set_repair_policy(RepairPolicy::default()).unwrap();
            for v in stored_rows(4) {
                a.store(v).unwrap();
            }
            a.program_verified().unwrap();
            let report = a.scrub().unwrap();
            assert!(report.findings.is_empty(), "healthy array flagged: {:?}", report.findings);
            assert!(!report.global_drift);
            assert_eq!(report.rows_checked, 6 + 1, "six logical rows plus one sentinel");
            assert_eq!(a.health().counters.scrubs_completed, 1);
        }
    }

    #[test]
    fn scrub_attributes_and_quarantines_stuck_rows() {
        let plan = FaultPlan { sa0_rate: 1.0, ..Default::default() };
        let mut a = hamming_array(4, Backend::Noisy(Box::new(faulty_cfg(plan, 1))));
        // Disable drift attribution so per-row quarantine is exercised, and
        // drop sparing: the spares are as stuck as the rows.
        a.set_repair_policy(RepairPolicy {
            spare_rows: 0,
            drift_fraction: 2.0,
            ..Default::default()
        })
        .unwrap();
        for v in stored_rows(4) {
            a.store(v).unwrap();
        }
        a.program();
        let report = a.scrub().unwrap();
        assert_eq!(report.findings.len() - report.sentinel_findings, 6, "every row is stuck");
        for f in &report.findings {
            assert_eq!(f.attribution, FaultAttribution::ExcessCurrent, "SA0 conducts too much");
            assert!(f.divergence > 0.0);
        }
        assert_eq!(report.rows_excluded.len(), 6);
        // Graceful floor: with every row excluded there is no neighbor left.
        assert_eq!(a.search(&[0, 1, 2, 3]), Err(FerexError::Empty));
    }

    #[test]
    fn scrub_attributes_array_wide_divergence_to_drift() {
        let plan = FaultPlan { sa0_rate: 1.0, ..Default::default() };
        let mut a = hamming_array(4, Backend::Noisy(Box::new(faulty_cfg(plan, 1))));
        a.set_repair_policy(RepairPolicy { drift_fraction: 0.5, ..Default::default() }).unwrap();
        for v in stored_rows(4) {
            a.store(v).unwrap();
        }
        a.program();
        let report = a.scrub().unwrap();
        assert!(report.global_drift, "all rows moved together");
        assert!(report.rows_remapped.is_empty() && report.rows_excluded.is_empty());
        assert!(report.findings.iter().all(|f| f.attribution == FaultAttribution::Drift));
        // No quarantine: the array still serves every row.
        assert_eq!(a.health().rows_active, 6);
    }

    #[test]
    fn invalid_repair_policy_returns_typed_error_instead_of_panicking() {
        // Regression: these inputs used to panic inside assert_valid();
        // every serve-path entry point now rejects them with
        // FerexError::InvalidPolicy.
        let mut a = hamming_array(4, Backend::Ideal);
        let bad_tolerance = RepairPolicy { scrub_abs_tolerance: 0.0, ..Default::default() };
        assert!(matches!(
            a.set_repair_policy(bad_tolerance.clone()),
            Err(FerexError::InvalidPolicy { .. })
        ));
        let bad_backoff = RepairPolicy {
            verify: ferex_fefet::VerifyPolicy { backoff: 1.5, ..Default::default() },
            ..Default::default()
        };
        assert!(matches!(
            a.set_repair_policy(bad_backoff),
            Err(FerexError::InvalidPolicy { what }) if what.contains("backoff")
        ));
        // A rejected policy leaves the array unchanged and serving.
        assert!(a.repair_policy().is_none());
        for v in stored_rows(4) {
            a.store(v).unwrap();
        }
        // A policy smuggled past installation is still caught by the
        // verified-program and scrub paths instead of panicking there.
        a.repair = Some(bad_tolerance);
        assert!(matches!(a.program_verified(), Err(FerexError::InvalidPolicy { .. })));
        a.program();
        assert!(matches!(a.scrub(), Err(FerexError::InvalidPolicy { .. })));
    }

    #[test]
    fn scrub_latency_is_modeled_and_deterministic() {
        let build = || {
            let mut a = hamming_array(4, Backend::Noisy(Box::default()));
            a.set_repair_policy(RepairPolicy::default()).unwrap();
            for v in stored_rows(4) {
                a.store(v).unwrap();
            }
            a.program();
            a
        };
        let mut a = build();
        let mut b = build();
        let ra = a.scrub().unwrap();
        let rb = b.scrub().unwrap();
        assert!(ra.latency_seconds > 0.0, "modeled latency must be positive");
        assert_eq!(
            ra.latency_seconds, rb.latency_seconds,
            "identical arrays must report bit-identical scrub latency"
        );
        // Repeating the scrub on the same array reproduces the same value —
        // no wall clock leaks into the report.
        let ra2 = a.scrub().unwrap();
        assert_eq!(ra.latency_seconds, ra2.latency_seconds);
        assert_eq!(a.health().counters.last_scrub_seconds, ra2.latency_seconds);
    }

    // ------------------------------------------------------------------
    // Online mutation.
    // ------------------------------------------------------------------

    fn mutable_ideal(capacity: usize) -> FerexArray {
        let mut a = hamming_array(4, Backend::Ideal);
        a.enable_mutation(MutationPolicy::with_capacity(capacity)).unwrap();
        a
    }

    #[test]
    fn insert_then_search_finds_the_vector() {
        let mut a = mutable_ideal(4);
        a.insert(10, vec![0, 1, 2, 3]).unwrap();
        a.insert(20, vec![3, 2, 1, 0]).unwrap();
        let out = a.search(&[0, 1, 2, 3]).unwrap();
        let nearest_id = a.id_at(out.nearest).unwrap();
        assert_eq!(nearest_id, 10);
        assert_eq!(a.live_len(), 2);
        // Free slots are excluded, not served as zero vectors.
        let zero_out = a.search(&[0, 0, 0, 0]).unwrap();
        assert!(a.id_at(zero_out.nearest).is_some(), "free slot won the search");
    }

    #[test]
    fn delete_tombstones_the_slot_bit_identically() {
        // Capacity 8 keeps one tombstone below the 250-per-mille
        // auto-compaction threshold, so the Dead state is observable.
        let mut a = mutable_ideal(8);
        a.insert(1, vec![0, 0, 0, 0]).unwrap();
        a.insert(2, vec![3, 3, 3, 3]).unwrap();
        a.delete(1).unwrap();
        let out = a.search(&[0, 0, 0, 0]).unwrap();
        assert_eq!(a.id_at(out.nearest), Some(2), "tombstoned row must not serve");
        let slot = 0; // id 1 lived in slot 0
        assert!(out.distances[slot].is_infinite());
        assert_eq!(a.tombstones(), 1);
        assert!(matches!(a.delete(1), Err(FerexError::UnknownId { id: 1 })));
    }

    #[test]
    fn mutation_misuse_is_typed_not_a_panic() {
        let mut a = mutable_ideal(2);
        a.insert(7, vec![0; 4]).unwrap();
        assert!(matches!(a.insert(7, vec![1; 4]), Err(FerexError::DuplicateId { id: 7 })));
        assert!(matches!(a.update_id(9, vec![1; 4]), Err(FerexError::UnknownId { id: 9 })));
        a.insert(8, vec![1; 4]).unwrap();
        assert!(matches!(
            a.insert(9, vec![2; 4]),
            Err(FerexError::CapacityExhausted { capacity: 2 })
        ));
        // Positional mutation is rejected in mutation mode.
        assert!(matches!(a.store(vec![0; 4]), Err(FerexError::InvalidPolicy { .. })));
        assert!(matches!(a.update(0, vec![0; 4]), Err(FerexError::InvalidPolicy { .. })));
    }

    #[test]
    fn insert_reclaims_tombstones_by_compaction() {
        let mut a = mutable_ideal(2);
        // Disable auto-compaction so the insert itself must reclaim.
        let mut policy = MutationPolicy::with_capacity(2);
        policy.compact_tombstone_milli = 0;
        let mut a2 = hamming_array(4, Backend::Ideal);
        a2.enable_mutation(policy).unwrap();
        std::mem::swap(&mut a, &mut a2);
        a.insert(1, vec![0; 4]).unwrap();
        a.insert(2, vec![1; 4]).unwrap();
        a.delete(1).unwrap();
        assert_eq!(a.tombstones(), 1);
        a.insert(3, vec![2; 4]).unwrap();
        assert_eq!(a.live_len(), 2);
        assert_eq!(a.tombstones(), 0, "insert must compact to find the slot");
    }

    #[test]
    fn update_moves_out_of_place_under_leveling_and_in_place_without() {
        let mut leveled = mutable_ideal(4);
        leveled.insert(1, vec![0; 4]).unwrap();
        let before = leveled.slot_of(1).unwrap();
        leveled.update_id(1, vec![1; 4]).unwrap();
        let after = leveled.slot_of(1).unwrap();
        assert_ne!(before, after, "leveling must move the write to a cold slot");
        assert_eq!(leveled.vector_of(1), Some(vec![1, 1, 1, 1]));

        let mut policy = MutationPolicy::with_capacity(4);
        policy.wear_leveling = false;
        let mut flat = hamming_array(4, Backend::Ideal);
        flat.enable_mutation(policy).unwrap();
        flat.insert(1, vec![0; 4]).unwrap();
        let before = flat.slot_of(1).unwrap();
        flat.update_id(1, vec![1; 4]).unwrap();
        assert_eq!(flat.slot_of(1).unwrap(), before, "no leveling: update stays in place");
    }

    #[test]
    fn maintenance_rotates_hot_rows_onto_cold_slots() {
        let mut a = mutable_ideal(8);
        let mut policy = MutationPolicy::with_capacity(8);
        policy.wear_leveling = false; // make slot 0 hot without moves
        let mut hot = hamming_array(4, Backend::Ideal);
        hot.enable_mutation(policy).unwrap();
        hot.insert(1, vec![0; 4]).unwrap();
        for i in 0..10 {
            hot.update_id(1, vec![(i % 4) as u32; 4]).unwrap();
        }
        std::mem::swap(&mut a, &mut hot);
        assert_eq!(a.slot_of(1), Some(0));
        // Re-enable leveling for the maintenance step.
        if let Some(m) = a.mutation.as_mut() {
            m.policy.wear_leveling = true;
        }
        let report = a.maintenance();
        assert_eq!(report.rotated, 1);
        assert_ne!(a.slot_of(1), Some(0), "hot row must move off its worn slot");
        let out = a.search(&[0; 4]).unwrap();
        assert_eq!(a.id_at(out.nearest), Some(1));
    }

    #[test]
    fn churn_wear_leveling_bounds_the_imbalance() {
        let run = |leveling: bool| {
            let mut policy = MutationPolicy::with_capacity(16);
            policy.wear_leveling = leveling;
            let mut a = hamming_array(4, Backend::Ideal);
            a.enable_mutation(policy).unwrap();
            for id in 0..12u64 {
                a.insert(id, vec![(id % 4) as u32; 4]).unwrap();
            }
            for round in 0..200u64 {
                // Hot set: ids 0 and 1 absorb all updates.
                let id = round % 2;
                a.update_id(id, vec![(round % 4) as u32; 4]).unwrap();
                if round % 8 == 0 {
                    a.maintenance();
                }
            }
            a.wear()
        };
        let leveled = run(true);
        let flat = run(false);
        assert!(
            leveled.imbalance_milli() <= 2000,
            "leveled max/mean {} per-mille",
            leveled.imbalance_milli()
        );
        assert!(
            flat.imbalance_milli() >= 5000,
            "unleveled max/mean {} per-mille",
            flat.imbalance_milli()
        );
    }

    #[test]
    fn mutated_array_matches_from_scratch_rebuild() {
        // Interleaved schedule on a mutated array vs a fresh array holding
        // the same logical contents: logical-id-keyed distances byte-match.
        let mut a = mutable_ideal(8);
        for id in 0..6u64 {
            a.insert(id, vec![(id % 4) as u32, 0, 1, 2]).unwrap();
        }
        a.delete(2).unwrap();
        a.update_id(4, vec![3, 3, 3, 3]).unwrap();
        a.compact();
        a.insert(9, vec![1, 1, 1, 1]).unwrap();

        let mut fresh = mutable_ideal(8);
        for id in a.live_ids() {
            fresh.insert(id, a.vector_of(id).unwrap()).unwrap();
        }
        let q = [1, 2, 3, 0];
        let got = a.search(&q).unwrap();
        let want = fresh.search(&q).unwrap();
        for id in a.live_ids() {
            let da = got.distances[a.slot_of(id).unwrap()];
            let db = want.distances[fresh.slot_of(id).unwrap()];
            assert_eq!(da.to_bits(), db.to_bits(), "id {id}");
        }
    }

    #[test]
    fn mutation_delta_writes_circuit_backend() {
        let cfg = CircuitConfig {
            variation: VariationModel::none(),
            lta: LtaParams::ideal(),
            ..Default::default()
        };
        let mut a = hamming_array(4, Backend::Circuit(Box::new(cfg)));
        a.enable_mutation(MutationPolicy::with_capacity(4)).unwrap();
        a.insert(1, vec![0, 1, 2, 3]).unwrap();
        a.insert(2, vec![3, 2, 1, 0]).unwrap();
        a.program();
        // Delta write against live physical state: no full re-program.
        a.insert(3, vec![0, 0, 3, 3]).unwrap();
        assert!(a.is_programmed(), "delta write must not invalidate the crossbar");
        let out = a.search(&[0, 0, 3, 3]).unwrap();
        assert_eq!(a.id_at(out.nearest), Some(3));
        a.delete(1).unwrap();
        let out = a.search(&[0, 1, 2, 3]).unwrap();
        assert_ne!(a.id_at(out.nearest), Some(1));
    }

    #[test]
    fn deleted_and_free_slots_never_serve_on_physical_backends() {
        // Regression: without a repair policy the Circuit read used to
        // return the raw crossbar currents, so tombstoned and free slots
        // kept serving (a deleted vector won at distance 0 and free slots
        // read ~4 instead of +inf). Both physical backends must exclude
        // them exactly like the Ideal kernels.
        for backend in [
            Backend::Circuit(Box::new(faulty_cfg(FaultPlan::none(), 3))),
            Backend::Noisy(Box::new(faulty_cfg(FaultPlan::none(), 3))),
        ] {
            let mut a = hamming_array(4, backend.clone());
            a.enable_mutation(MutationPolicy::with_capacity(4)).unwrap();
            a.insert(1, vec![0, 1, 2, 3]).unwrap();
            a.insert(2, vec![3, 3, 3, 3]).unwrap();
            a.program();
            a.delete(1).unwrap();
            let out = a.search_at(&[0, 1, 2, 3], 0).unwrap();
            assert_eq!(a.id_at(out.nearest), Some(2), "{backend:?}");
            let slot2 = a.slot_of(2).unwrap();
            for (slot, d) in out.distances.iter().enumerate() {
                if slot == slot2 {
                    assert!((d - 4.0).abs() < 0.1, "{backend:?}: live slot read {d}");
                } else {
                    assert!(d.is_infinite(), "{backend:?}: slot {slot} read {d}");
                }
            }
        }
    }

    #[test]
    fn mutation_reports_wear() {
        let mut a = mutable_ideal(4);
        a.insert(1, vec![0; 4]).unwrap();
        a.insert(2, vec![1; 4]).unwrap();
        a.update_id(1, vec![2; 4]).unwrap();
        let w = a.wear();
        assert_eq!(w.max_cycles, 1, "each slot absorbed at most one write");
        assert_eq!(w.total_writes, 3);
        // A non-mutating array reports zero wear.
        assert_eq!(hamming_array(4, Backend::Ideal).wear(), WearSummary::default());
    }
}
