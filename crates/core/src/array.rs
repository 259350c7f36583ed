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
//!   Programming draws each cell's variation sample and derives the first
//!   gate level that turns the cell on, one byte per cell; every Noisy
//!   read, at any batch size, and the scrub probe run one row-block
//!   kernel over those levels.
//!
//! # Lifecycle: program, then search
//!
//! Mutation and sensing are separate phases, mirroring the hardware. Writes
//! ([`FerexArray::store`], [`FerexArray::insert`], …) mark the physical
//! state stale; [`FerexArray::program`] is the explicit, idempotent
//! transition that instantiates it (crossbar cells, or variation samples
//! and first-ON levels).
//! Every read — [`FerexArray::distances_batch`],
//! [`FerexArray::search_batch_at`], [`FerexArray::search_k_batch_at`] and
//! [`FerexArray::read_digital`] — then takes `&self` and changes no state,
//! so a programmed array can serve queries from many threads concurrently.
//! Searching a stochastic backend whose state is stale returns
//! [`FerexError::NotProgrammed`]; the ideal backend has no physical state
//! and never needs programming.
//!
//! Sensing noise (the LTA offset) is drawn from a generator derived from
//! the backend seed and the caller's query id, so a search depends only on
//! its `(query, qid)` pairs: one batched call and a loop of batches of one
//! with the same ids produce bit-identical outcomes.

use crate::encoding::CellEncoding;
use crate::error::FerexError;
use crate::health::{
    FaultAttribution, HealthCounters, HealthSnapshot, ProgramReport, RepairPolicy, RowHealth,
    ScrubFinding, ScrubReport, SpareState,
};
use crate::mutate::{CompactionReport, MutationPolicy, MutationState, SlotState, WearSummary};
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

/// Domain-separation salt for per-query sensing streams, keeping them
/// disjoint from the other seed derivations that feed the same mixer.
const QUERY_STREAM_SALT: u64 = 0x51E0_D9AD_35B6_9E21;

/// The first-ON level of a `Noisy` cell that no gate level turns on: a
/// stuck-high or open cell, or a threshold above the whole search ladder.
/// Every gate level is below it, because a technology has fewer than 255
/// threshold levels (the sizing step never uses more than 64).
const NEVER_ON: u8 = u8::MAX;

/// Rows per block of the `Noisy` kernel: the block's contributions stay
/// cache-resident while every query of the batch is summed over them, and
/// one query's sums over a block fit in registers.
const NOISY_BLOCK_ROWS: usize = 16;

/// Resistance scale applied to a [`CellFault::ResistorOpen`] cell in the
/// device-level backend: large enough that the residual current is far
/// below the sensing floor, small enough to keep the bisection solve
/// well-conditioned.
const OPEN_RESISTANCE_SCALE: f64 = 1.0e9;

/// A batch read: every query's row distances, and each query's nearest
/// row when the kernel sensed it.
type BatchRead = (Vec<Vec<f64>>, Option<Vec<usize>>);

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
    /// Row index the LTA reported as nearest (on `Ideal`, the kernel's
    /// first least distance, which is the same row).
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
/// let out = array.search_batch_at(&[vec![0, 1, 2, 2]], &[0])?;
/// assert_eq!(out[0].nearest, 0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
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
    /// The `Noisy` backend's programmed responses, one byte per physical
    /// cell (row-major, beside `noisy_samples`): the first gate-ladder
    /// level that turns the cell on, or [`NEVER_ON`]. Derived by
    /// [`FerexArray::program`] and kept in step with every later change
    /// to a programmed cell by [`FerexArray::sync_first_on`].
    first_on: Option<Vec<u8>>,
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
            first_on: None,
            fault_map: None,
            aged_vth: None,
            seed,
            program_rng: StdRng::seed_from_u64(seed),
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
    ///
    /// # Errors
    ///
    /// [`FerexError::SymbolOutOfRange`] for the first stored code the new
    /// alphabet cannot hold; the array is left unchanged. Only a smaller
    /// alphabet is checked: every stored code is already below
    /// the current one, checked when it was stored or last reconfigured.
    pub fn reconfigure(&mut self, encoding: CellEncoding) -> Result<(), FerexError> {
        let n_values = encoding.n_stored();
        if n_values < self.n_codes() {
            if let Some(c) = soa::first_out_of_range(self.codes.as_slice(), n_values) {
                return Err(FerexError::SymbolOutOfRange { value: u32::from(c), n_values });
            }
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
        self.first_on = None;
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

    /// `false` when [`FerexArray::physical_row`] serves every row: there
    /// is no slot table and no repair map, so no row can be excluded.
    fn excludes_rows(&self) -> bool {
        self.mutation.is_some() || !self.row_map.is_empty()
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
    /// anything (used by callers that must refuse bad input before any
    /// state changes, e.g. [`crate::replica::ReplicaSet::check_query`]).
    /// Symbols must also be below 256, whatever the encoding's alphabet:
    /// the array stores one byte per symbol, so this cap is what makes that
    /// store lossless (the CSP encoder never exceeds 64 levels).
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
        match soa::first_out_of_range(vector, n_values) {
            Some(value) => Err(FerexError::SymbolOutOfRange { value, n_values }),
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

    /// Replaces the stored rows with a copy of `source`'s, code buffer to
    /// code buffer (the bit-planes come along when `source` has built them
    /// at this array's width): how a replica is built, with no row widened
    /// to `u32` and re-narrowed. The codes are checked against this array's
    /// alphabet in one pass over the bytes.
    ///
    /// # Errors
    ///
    /// [`FerexError::DimensionMismatch`] or [`FerexError::SymbolOutOfRange`]
    /// when `source` holds rows this array cannot;
    /// [`FerexError::InvalidPolicy`] on a mutation-enabled array. The array
    /// is unchanged on error.
    pub(crate) fn copy_rows_from(&mut self, source: &FerexArray) -> Result<(), FerexError> {
        if self.mutation.is_some() {
            return Err(FerexError::InvalidPolicy {
                what: "positional store on a mutation-enabled array; use insert(id, vector)",
            });
        }
        if source.dim != self.dim {
            return Err(FerexError::DimensionMismatch { expected: self.dim, got: source.dim });
        }
        let n_values = self.n_codes();
        if let Some(c) = soa::first_out_of_range(source.codes.as_slice(), n_values) {
            return Err(FerexError::SymbolOutOfRange { value: u32::from(c), n_values });
        }
        self.codes = source.codes.clone();
        self.codes.set_plane_bits(soa::plane_bits(&self.encoding));
        self.invalidate_physical_state();
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
    /// cells (`Circuit`) or the per-cell variation samples and first-ON
    /// gate levels (`Noisy`). The explicit write→search phase transition:
    /// idempotent — re-invoking on an already-programmed array is a no-op —
    /// and required after any mutation before the `&self` read path will
    /// serve a stochastic backend. The ideal backend has no physical state;
    /// for it this is always a no-op.
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
                let cols = self.physical_cols();
                let n = self.physical_rows() * cols;
                let variation = cfg.variation;
                let plan = cfg.faults;
                if !plan.is_benign() {
                    self.fault_map = Some(plan.fault_map(self.seed, n));
                    self.aged_vth = Some(plan.aged_vth_table(&self.tech));
                }
                // One pass draws each physical row's samples (in cell
                // order, so the stream is the same as ever) and derives the
                // row's first-ON levels while they are hot; a second pass
                // over the samples would add to every set-up. Spare rows
                // stay NEVER_ON until a remap stores a vector onto them.
                let ladder = self.ladder();
                let mut samples = Vec::with_capacity(n);
                let mut first_on = vec![NEVER_ON; n];
                for (phys, levels) in first_on.chunks_mut(cols.max(1)).enumerate() {
                    let start = samples.len();
                    samples.extend((0..cols).map(|_| {
                        if variation.is_nominal() {
                            ferex_fefet::DeviceSample::NOMINAL
                        } else {
                            variation.sample(&mut self.program_rng)
                        }
                    }));
                    let sentinel = phys.checked_sub(self.sentinel_phys(0));
                    let codeword = sentinel.map(|j| self.sentinel_codeword(j));
                    if let Some(codes) = codeword.as_deref().or_else(|| self.codes.row(phys)) {
                        let row_samples = samples.get(start..).unwrap_or_default();
                        self.derive_first_on(&ladder, row_samples, phys, codes, levels);
                    }
                }
                self.noisy_samples = Some(samples);
                self.first_on = Some(first_on);
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

    /// The LTA a search senses with, checked before any work: an offset
    /// σ that is negative or not finite is no standard deviation (a
    /// negative or NaN one would panic the draws).
    fn search_lta(&self) -> Result<LtaParams, FerexError> {
        let lta = match &self.backend {
            Backend::Ideal => LtaParams::ideal(),
            Backend::Circuit(cfg) | Backend::Noisy(cfg) => cfg.lta,
        };
        let sigma = lta.offset_sigma.value();
        if sigma.is_finite() && sigma >= 0.0 {
            Ok(lta)
        } else {
            Err(FerexError::InvalidPolicy {
                what: "LTA offset sigma must be finite and non-negative",
            })
        }
    }

    /// One query's row currents, `d · I_unit` per row, computed as the
    /// caller reads them: the LTA walks them without a copy.
    fn currents<'a>(&self, distances: &'a [f64]) -> impl Iterator<Item = Amp> + Clone + 'a {
        let i_unit = self.tech.i_unit().value();
        distances.iter().map(move |&d| Amp(d * i_unit))
    }

    /// Row distances for every query of a batch — the read every search,
    /// single or batched, makes. It matches on the backend once:
    ///
    /// * `Ideal` runs the structure-of-arrays kernels over the stored
    ///   rows' bit-planes (packed by the first Ideal read, then kept in
    ///   sync by every mutator): a Hamming-exact encoding scans the
    ///   planes once per query with word-parallel XOR + popcount, every
    ///   other encoding runs the bit-sliced current kernel (one-hot
    ///   symbol masks per row, shared by a chunk's queries, against
    ///   current bit slices per query), rows-outer / queries-inner. Both
    ///   keep each query's nearest row as they go, which
    ///   [`FerexArray::search_batch_at`] reports and this read drops.
    /// * `Noisy` runs one kernel at every batch size, over the first-ON
    ///   gate levels [`FerexArray::program`] derived: it builds the
    ///   contributions of one cache-sized row block at a time, for the
    ///   query symbols the batch drives, and sums every query over each
    ///   block before the next, row blocks fanned out over threads.
    /// * `Circuit` solves the crossbar once per query, fanned out over
    ///   threads.
    ///
    /// Every backend reports rows excluded from search (quarantined, or
    /// free/tombstoned slots in mutation mode) as `f64::INFINITY`: they
    /// keep their index, so every other row keeps its id, but can never
    /// win the LTA.
    ///
    /// # Errors
    ///
    /// [`FerexError::Empty`] if nothing is stored (or every row is
    /// excluded); validation errors for a malformed query;
    /// [`FerexError::NotProgrammed`] if a stochastic backend's state is
    /// stale (call [`FerexArray::program`] after mutating). The whole
    /// batch is validated before any work happens.
    pub fn distances_batch(&self, queries: &[Vec<u32>]) -> Result<Vec<Vec<f64>>, FerexError> {
        Ok(self.read_batch(queries)?.0)
    }

    /// [`FerexArray::distances_batch`]'s read, with each query's nearest
    /// row when the kernel sensed it (`Ideal`); `None` leaves sensing to
    /// the LTA.
    fn read_batch(&self, queries: &[Vec<u32>]) -> Result<BatchRead, FerexError> {
        // An empty batch asks for nothing: answer it before any state
        // checks, so it cannot trip over an empty or stale array.
        if queries.is_empty() {
            return Ok((Vec::new(), None));
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
            Backend::Ideal => {
                let (distances, nearest) = self.ideal_reads(queries);
                Ok((distances, Some(nearest)))
            }
            Backend::Noisy(_) => {
                let rows = |r| Some((self.physical_row(r)?, self.codes.row(r)?));
                Ok((self.noisy_units(self.len(), rows, queries)?, None))
            }
            Backend::Circuit(cfg) => {
                let distances: Result<_, _> =
                    queries.par_iter().map(|q| self.circuit_distances(cfg, q)).collect();
                Ok((distances?, None))
            }
        }
    }

    /// Names the kernel [`FerexArray::distances_batch`] dispatches a batch
    /// to, mirroring its dispatch exactly: `"bitplane-popcount"` (Ideal +
    /// realized XOR-popcount encoding), `"bitplane-sliced"` (Ideal, the
    /// bit-sliced currents of any other encoding over the same planes),
    /// `"first-on"` (the Noisy block kernel over programmed first-ON
    /// levels), or `"scalar"` (the per-query Circuit crossbar solve). No
    /// backend switches kernels with the batch size any more; the
    /// parameter stays so callers that label a batch keep compiling.
    /// Purely informational — used by benchmarks and reports to label
    /// measurements.
    pub fn batch_kernel(&self, _batch: usize) -> &'static str {
        match &self.backend {
            Backend::Ideal if soa::is_xor_popcount(&self.encoding) => "bitplane-popcount",
            Backend::Ideal => "bitplane-sliced",
            Backend::Noisy(_) => "first-on",
            Backend::Circuit(_) => "scalar",
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

    /// The `Ideal` batched kernels over the stored rows' packed
    /// bit-planes, the one buffer every Ideal read scans: each query's row
    /// distances, and its nearest row. Dispatches to XOR-popcount when
    /// the realized encoding is exactly bitwise Hamming, and to the
    /// bit-sliced current kernel otherwise. Both accumulate exact integer
    /// currents in `u64` and convert once per row — exactly the `f64` sum
    /// of the cell currents, because every partial sum is an integer
    /// below 2⁵³ (see `soa` module docs).
    ///
    /// Both keep each query's first least distance as they write it,
    /// which is the zero-offset LTA's loser bit for bit (DESIGN §12), so
    /// an Ideal search never runs the LTA.
    fn ideal_reads(&self, queries: &[Vec<u32>]) -> (Vec<Vec<f64>>, Vec<usize>) {
        let rows = self.len();
        let dim = self.dim;
        let ranges = soa::balanced_ranges(queries.len(), rayon::current_num_threads());
        let (bits, words) = self.codes.plane_shape();
        debug_assert_eq!(bits, soa::plane_bits(&self.encoding), "plane width out of sync");
        let stride = bits as usize * words;
        let row_planes = self.codes.bit_planes();

        if soa::is_xor_popcount(&self.encoding) {
            // XOR-popcount: one scan of the planes per query, packed the
            // same way as a row. The scan's minimum is the answer unless
            // the array can exclude rows; then a second pass writes their
            // `+∞` and takes the minimum again.
            let excludes = self.excludes_rows();
            let per_chunk: Vec<Vec<(Vec<f64>, usize)>> = ranges
                .par_iter()
                .map(|range| {
                    let mut q_codes = vec![0u8; dim];
                    let mut q_planes = vec![0u64; stride];
                    let qs = queries.get(range.clone()).unwrap_or_default();
                    qs.iter()
                        .map(|q| {
                            for (c, &s) in q_codes.iter_mut().zip(q) {
                                *c = (s & 0xff) as u8; // lint:allow(cast-truncation/narrowing, reason = "masked to the low 8 bits first; validate() caps symbols below 256")
                            }
                            soa::pack_bit_planes(&q_codes, bits, words, &mut q_planes);
                            let mut distances = vec![0.0f64; rows];
                            let mut nearest =
                                soa::xor_popcount_scan(row_planes, &q_planes, &mut distances);
                            if excludes {
                                nearest = self.exclude_rows(&mut distances);
                            }
                            (distances, nearest)
                        })
                        .collect()
                })
                .collect();
            return per_chunk.into_iter().flatten().unzip();
        }

        // Bit-sliced path: each chunk's queries become current slices;
        // rows-outer / queries-inner, each row's one-hot masks are built
        // once from its planes and shared by the whole chunk, and each
        // query keeps its first least distance, `+∞` for excluded rows.
        let sliced = soa::SlicedCurrents::new(&self.encoding, dim);
        let (q_len, e_len) = (sliced.query_len(), sliced.one_hot_len());
        let per_chunk: Vec<Vec<(Vec<f64>, usize)>> = ranges
            .par_iter()
            .map(|range| {
                let qs = queries.get(range.clone()).unwrap_or_default();
                let mut slices = vec![0u64; qs.len() * q_len];
                for (q, out) in qs.iter().zip(slices.chunks_exact_mut(q_len.max(1))) {
                    sliced.pack_query(q, out);
                }
                let mut one_hot = vec![0u64; e_len];
                let mut out = vec![vec![0.0f64; rows]; qs.len()];
                let mut best = vec![(0, f64::INFINITY); qs.len()];
                for r in 0..rows {
                    let planes = self
                        .physical_row(r)
                        .and_then(|_| row_planes.get(r * stride..(r + 1) * stride));
                    if let Some(planes) = planes {
                        sliced.one_hot(planes, &mut one_hot);
                    }
                    for (qi, (row_out, best)) in out.iter_mut().zip(&mut best).enumerate() {
                        let t = slices.get(qi * q_len..(qi + 1) * q_len).unwrap_or_default();
                        let d =
                            planes.map_or(f64::INFINITY, |_| sliced.distance(&one_hot, t) as f64);
                        if let Some(slot) = row_out.get_mut(r) {
                            *slot = d;
                        }
                        if d < best.1 {
                            *best = (r, d);
                        }
                    }
                }
                out.into_iter()
                    .zip(best)
                    .map(|(distances, (nearest, _))| (distances, nearest))
                    .collect()
            })
            .collect();
        per_chunk.into_iter().flatten().unzip()
    }

    /// The `Ideal` exclusion pass over one query's distances: writes `+∞`
    /// over every row excluded from search and returns the first row with
    /// the least distance, row 0 when every row is excluded, as the
    /// zero-offset LTA gives.
    fn exclude_rows(&self, distances: &mut [f64]) -> usize {
        let mut best = (0, f64::INFINITY);
        for (r, d) in distances.iter_mut().enumerate() {
            if self.physical_row(r).is_none() {
                *d = f64::INFINITY;
            }
            if *d < best.1 {
                best = (r, *d);
            }
        }
        best.0
    }

    /// The voltages a first-ON derivation compares.
    fn ladder(&self) -> Ladder {
        debug_assert!(self.tech.n_vth_levels < usize::from(NEVER_ON), "first-ON levels are bytes");
        Ladder {
            gates: (0..=self.tech.n_vth_levels).map(|j| self.tech.search_voltage(j)).collect(),
            fresh: (0..self.tech.n_vth_levels).map(|i| self.tech.vth_level(i)).collect(),
        }
    }

    /// One programmed `Noisy` cell's electrical state: its threshold
    /// (`None`: it never conducts) and its resistor factor. With fault
    /// state materialized this is [`FaultPlan::effective_cell`] of the
    /// cell's fault, aged level and sample; without, `vth_level(level) +
    /// ΔV_th` and the sample's own `r_factor`. Neither reads the gate, so
    /// once programmed, a cell's response to every drive is fixed.
    fn noisy_cell(
        &self,
        index: usize,
        level: usize,
        sample: &ferex_fefet::DeviceSample,
    ) -> EffectiveCell {
        match (&self.fault_map, &self.aged_vth, &self.backend) {
            (Some(map), Some(aged), Backend::Noisy(cfg)) => {
                let fault = map.get(index).copied().unwrap_or(CellFault::None);
                cfg.faults.effective_cell(&self.tech, fault, aged, level, sample)
            }
            _ => EffectiveCell {
                vth: Some(self.tech.vth_level(level) + sample.dvth),
                r_factor: sample.r_factor,
            },
        }
    }

    /// Derives the first-ON level of every cell of physical row `phys`,
    /// programmed with `codes`, into `out` (one byte per cell), from the
    /// row's variation `samples`: the smallest `j` with `ladder[j] > V_th`,
    /// or [`NEVER_ON`].
    ///
    /// Exact, because the ladder rises with `j`: the gates at or below
    /// `V_th` are a prefix of it, so their count is that smallest `j` (see
    /// [`Ladder::first_on`]), and for every gate level `g`, `g ≥ first_on`
    /// holds exactly when `search_voltage(g) > V_th`, the float comparison
    /// that defines the cell's conduction.
    fn derive_first_on(
        &self,
        ladder: &Ladder,
        samples: &[ferex_fefet::DeviceSample],
        phys: usize,
        codes: &[u8],
        out: &mut [u8],
    ) {
        let k = self.encoding.k;
        let row_base = phys * self.physical_cols();
        let faulted = self.fault_map.is_some() && self.aged_vth.is_some();
        let cells = samples.chunks(k).zip(out.chunks_mut(k)).zip(codes);
        for (d, ((cell_samples, cell_out), &s)) in cells.enumerate() {
            let Some(st) = self.encoding.stored.get(usize::from(s)) else { continue };
            let fets = st.vth_levels.iter().zip(cell_samples).zip(cell_out);
            for (f, ((&level, sample), first_on)) in fets.enumerate() {
                *first_on = if faulted {
                    let vth = self.noisy_cell(row_base + d * k + f, level, sample).vth;
                    vth.map_or(NEVER_ON, |vth| ladder.first_on(vth, level))
                } else {
                    // `noisy_cell`'s `vth_level(level) + ΔV_th`, from the
                    // cached levels.
                    match ladder.fresh.get(level) {
                        Some(&fresh) => ladder.first_on(fresh + sample.dvth, level),
                        None => NEVER_ON,
                    }
                };
            }
        }
    }

    /// Re-derives the first-ON levels of physical row `phys` from the
    /// codes it now holds: the one patch point for every change to a
    /// programmed `Noisy` row after [`FerexArray::program`] — a trim, a
    /// spare brought up, a code write. A no-op without `Noisy` state.
    fn sync_first_on(&mut self, phys: usize, codes: &[u8]) {
        let Some(mut first_on) = self.first_on.take() else { return };
        let cols = self.physical_cols();
        let ladder = self.ladder();
        let row = phys * cols..(phys + 1) * cols;
        let samples = self.noisy_samples.as_deref().and_then(|s| s.get(row.clone()));
        if let (Some(samples), Some(out)) = (samples, first_on.get_mut(row)) {
            self.derive_first_on(&ladder, samples, phys, codes, out);
        }
        self.first_on = Some(first_on);
    }

    /// Writes `vector` into slot `slot`'s codes (zeroes them when `None`)
    /// and keeps the first-ON levels of the physical row serving the slot
    /// in step.
    fn write_slot(&mut self, slot: usize, vector: Option<&[u32]>) {
        match vector {
            Some(v) => self.codes.set_row(slot, v),
            None => self.codes.zero_row(slot),
        }
        if self.first_on.is_none() {
            return;
        }
        if let (Some(phys), Some(codes)) = (self.phys_for_slot(slot), self.codes.row(slot)) {
            let codes = codes.to_vec();
            self.sync_first_on(phys, &codes);
        }
    }

    /// The `Noisy` read kernel, behind every Noisy read at any batch size
    /// and the scrub probe: the current (in `I_unit` multiples) each of
    /// `queries` sinks from each of `rows` rows, query-major. `row_at(i)`
    /// names row `i`'s physical row and stored codes, or `None` for a row
    /// excluded from search, which reads `INFINITY`.
    ///
    /// Rows go in blocks of [`NOISY_BLOCK_ROWS`], fanned out over threads.
    /// For each block the kernel builds, from the first-ON levels, the
    /// contribution of every cell under every query symbol the batch
    /// drives it with: `m / r_factor` when the gate level reaches the
    /// cell's first-ON level, `0.0` otherwise (`m` is the drain multiple,
    /// `r_factor` the sample's, or [`FaultPlan::effective_cell`]'s for a
    /// faulted cell). It then sums every query over the block, each block
    /// row one accumulator lane, so the sums vectorize across rows while
    /// each row adds its terms in d-major, FeFET-minor order. Undriven
    /// (`m = 0`) terms are skipped: a sum starts at `+0.0` and never
    /// becomes `-0.0`, so `x + 0.0 == x` and skipping a zero changes no
    /// bit.
    ///
    /// # Errors
    ///
    /// [`FerexError::NotProgrammed`] without programmed `Noisy` state;
    /// [`FerexError::SymbolOutOfRange`] for a query symbol past the search
    /// alphabet.
    fn noisy_units<'c>(
        &self,
        rows: usize,
        row_at: impl Fn(usize) -> Option<(usize, &'c [u8])> + Sync,
        queries: &[Vec<u32>],
    ) -> Result<Vec<Vec<f64>>, FerexError> {
        let (Some(samples), Some(first_on)) =
            (self.noisy_samples.as_deref(), self.first_on.as_deref())
        else {
            return Err(FerexError::NotProgrammed);
        };
        let k = self.encoding.k;
        let cols = self.physical_cols();
        let n_search = self.encoding.n_search();
        // Each search symbol's drive per FeFET: (gate level, drain multiple).
        let drives: Vec<(usize, u32)> = self
            .encoding
            .search
            .iter()
            .flat_map(|se| se.vgs_levels.iter().copied().zip(se.vds_multiples.iter().copied()))
            .collect();
        // The (dimension, symbol) pairs the batch drives, d-major: only
        // they get contributions built.
        let mut pair_of = vec![usize::MAX; self.dim * n_search];
        for q in queries {
            for (d, &s) in q.iter().enumerate() {
                if s as usize >= n_search {
                    return Err(FerexError::SymbolOutOfRange { value: s, n_values: n_search });
                }
                if let Some(p) = pair_of.get_mut(d * n_search + s as usize) {
                    *p = 0;
                }
            }
        }
        let mut pairs: Vec<(usize, usize)> = Vec::new();
        for (i, p) in pair_of.iter_mut().enumerate() {
            if *p != usize::MAX {
                *p = pairs.len();
                pairs.push((i / n_search, i % n_search));
            }
        }
        // Each query's terms: the table entry of every driven (d, f), in
        // d-major, FeFET-minor order.
        // lint:allow(panic-safety/index, reason = "symbols were checked below n_search above, d < dim sizes pair_of, and f < k indexes the k drives of each symbol")
        let terms: Vec<Vec<usize>> = queries
            .iter()
            .map(|q| {
                let mut terms = Vec::with_capacity(self.dim * k);
                for (d, &s) in q.iter().enumerate() {
                    let p = pair_of[d * n_search + s as usize];
                    for f in 0..k {
                        if drives[s as usize * k + f].1 != 0 {
                            terms.push(p * k + f);
                        }
                    }
                }
                terms
            })
            .collect();

        // Contiguous runs of blocks, one per worker, each writing its own
        // rows of every query's output.
        let n_blocks = rows.div_ceil(NOISY_BLOCK_ROWS);
        let ranges = soa::balanced_ranges(n_blocks, rayon::current_num_threads());
        let mut out: Vec<Vec<f64>> = queries.iter().map(|_| vec![0.0f64; rows]).collect();
        let mut shares: Vec<Vec<&mut [f64]>> =
            ranges.iter().map(|_| Vec::with_capacity(queries.len())).collect();
        for query_out in &mut out {
            let mut rest = query_out.as_mut_slice();
            for (blocks, share) in ranges.iter().zip(&mut shares) {
                let span =
                    rows.min(blocks.end * NOISY_BLOCK_ROWS) - blocks.start * NOISY_BLOCK_ROWS;
                let (mine, later) = std::mem::take(&mut rest).split_at_mut(span);
                share.push(mine);
                rest = later;
            }
        }
        // lint:allow(panic-safety/index, reason = "hot kernel: lanes < NOISY_BLOCK_ROWS, table entries p * k + f < pairs * k, cell indices < physical rows x cols by construction from the dims the programmed state was sized with; codes are validated at store time")
        shares.par_chunks_mut(1).enumerate().for_each(|(i, share)| {
            let (Some(blocks), Some(share)) = (ranges.get(i), share.first_mut()) else { return };
            let first = blocks.start * NOISY_BLOCK_ROWS;
            let end = rows.min(blocks.end * NOISY_BLOCK_ROWS);
            let mut table = vec![[0.0f64; NOISY_BLOCK_ROWS]; pairs.len() * k];
            // The block's cells, lane-major: each cell's first-ON level (as
            // f64, so the gate comparison vectorizes) and resistor factor.
            // A lane without a row reads as never ON.
            let mut cell_on = vec![[0.0f64; NOISY_BLOCK_ROWS]; self.dim * k];
            let mut cell_r = vec![[1.0f64; NOISY_BLOCK_ROWS]; self.dim * k];
            for lo in (first..end).step_by(NOISY_BLOCK_ROWS) {
                let n = NOISY_BLOCK_ROWS.min(end - lo);
                let lanes: [Option<(usize, &[u8])>; NOISY_BLOCK_ROWS] =
                    std::array::from_fn(|lane| (lane < n).then(|| row_at(lo + lane)).flatten());
                for (d, (cell_on, cell_r)) in
                    cell_on.chunks_mut(k).zip(cell_r.chunks_mut(k)).enumerate()
                {
                    for (f, (on, r)) in cell_on.iter_mut().zip(cell_r.iter_mut()).enumerate() {
                        for (lane, row) in lanes.iter().enumerate() {
                            let Some((phys, codes)) = *row else {
                                on[lane] = f64::from(NEVER_ON);
                                continue;
                            };
                            let index = phys * cols + d * k + f;
                            on[lane] = f64::from(first_on[index]);
                            r[lane] = match self.fault_map.as_ref().map(|m| m[index]) {
                                None | Some(CellFault::None) => samples[index].r_factor,
                                Some(_) => {
                                    let level =
                                        self.encoding.stored[usize::from(codes[d])].vth_levels[f];
                                    self.noisy_cell(index, level, &samples[index]).r_factor
                                }
                            };
                        }
                    }
                }
                for (p, &(d, s)) in pairs.iter().enumerate() {
                    for f in 0..k {
                        let (gate, m) = drives[s * k + f];
                        if m != 0 {
                            let (on, r) = (&cell_on[d * k + f], &cell_r[d * k + f]);
                            lane_units(&mut table[p * k + f], gate as f64, f64::from(m), on, r);
                        }
                    }
                }
                for (terms, query_out) in terms.iter().zip(share.iter_mut()) {
                    let sums = lane_sums(&table, terms);
                    let query_out = &mut query_out[lo - first..lo - first + n];
                    for ((out, &units), row) in query_out.iter_mut().zip(&sums).zip(&lanes) {
                        *out = if row.is_some() { units } else { f64::INFINITY };
                    }
                }
            }
        });
        Ok(out)
    }

    /// Runs `sense(distances[i], qids[i])` for every query of a batch, in
    /// order: the LTA's nearest row on Noisy and Circuit (an Ideal
    /// kernel senses its own reads), and the k-nearest rows on every
    /// backend. When `lta` draws offsets the queries sense in parallel:
    /// each draws only from its own `qid` stream, so the split changes no
    /// draw. A zero-offset LTA draws nothing, too cheap to fan out.
    fn sense_each<T: Send>(
        &self,
        lta: &LtaParams,
        distances: &[Vec<f64>],
        qids: &[u64],
        sense: impl Fn(&[f64], u64) -> T + Sync,
    ) -> Vec<T> {
        let batch: Vec<(&Vec<f64>, u64)> = distances.iter().zip(qids.iter().copied()).collect();
        let one = |&(d, qid): &(&Vec<f64>, u64)| sense(d, qid);
        if lta.offset_sigma.value() > 0.0 {
            batch.par_iter().map(one).collect()
        } else {
            batch.iter().map(one).collect()
        }
    }

    /// Associative search of a batch, query `i` sensed with id `qids[i]`:
    /// the read of [`FerexArray::distances_batch`], and each query's
    /// nearest row. On Noisy and Circuit the LTA reports it, with sensing
    /// noise drawn from the stream of the query's id. On Ideal the LTA
    /// draws nothing and is an exact argmin, so the kernel keeps that
    /// argmin as it writes the distances and the LTA never runs. The
    /// outcome depends only on the `(query, qid)` pairs, never on how
    /// requests were grouped into batches or on earlier reads — the
    /// property the serving loop's batch former relies on.
    ///
    /// # Errors
    ///
    /// [`FerexError::DimensionMismatch`] when `qids` and `queries` differ
    /// in length; [`FerexError::InvalidPolicy`] when the backend's LTA
    /// offset σ is negative or not finite; otherwise as
    /// [`FerexArray::distances_batch`].
    pub fn search_batch_at(
        &self,
        queries: &[Vec<u32>],
        qids: &[u64],
    ) -> Result<Vec<SearchOutcome>, FerexError> {
        if qids.len() != queries.len() {
            return Err(FerexError::DimensionMismatch { expected: queries.len(), got: qids.len() });
        }
        let lta = self.search_lta()?;
        let (distances, sensed) = self.read_batch(queries)?;
        let nearest = sensed.unwrap_or_else(|| {
            self.sense_each(&lta, &distances, qids, |d, qid| {
                lta.sense(self.currents(d), &mut self.rng_for_query(qid))
            })
        });
        Ok(distances
            .into_iter()
            .zip(nearest)
            .map(|(distances, nearest)| SearchOutcome { distances, nearest })
            .collect())
    }

    /// k-nearest search of a batch via iterative LTA masking, query `i`
    /// sensed with id `qids[i]` (see [`FerexArray::search_batch_at`]).
    ///
    /// # Errors
    ///
    /// As [`FerexArray::search_batch_at`]; [`FerexError::InvalidK`] when
    /// `k` is zero or exceeds the number of rows served.
    pub fn search_k_batch_at(
        &self,
        queries: &[Vec<u32>],
        k: usize,
        qids: &[u64],
    ) -> Result<Vec<Vec<usize>>, FerexError> {
        if qids.len() != queries.len() {
            return Err(FerexError::DimensionMismatch { expected: queries.len(), got: qids.len() });
        }
        let lta = self.search_lta()?;
        let distances = self.distances_batch(queries)?;
        self.sense_each(&lta, &distances, qids, |d, qid| self.sense_k(&lta, d, k, qid))
            .into_iter()
            .collect()
    }

    fn sense_k(
        &self,
        lta: &LtaParams,
        distances: &[f64],
        k: usize,
        qid: u64,
    ) -> Result<Vec<usize>, FerexError> {
        // Excluded rows sense as INFINITY: they stay in the current vector
        // (so RNG draws and logical ids line up with the healthy case) but
        // can never be reported, so k is bounded by the rows actually
        // served.
        let active = distances.iter().filter(|d| d.is_finite()).count();
        if k == 0 || k > active {
            return Err(FerexError::InvalidK { k, rows: active });
        }
        Ok(lta.sense_k(self.currents(distances), k, &mut self.rng_for_query(qid)))
    }

    /// Digital distance readout: senses all rows and digitizes the row
    /// currents with the given ADC (full scale auto-ranged to the encoding
    /// maximum if `adc.full_scale` is zero), `parallelism` converters
    /// working concurrently. Returns per-row distance *codes* plus the
    /// conversion cost — the readout mode used when the application needs
    /// distance values rather than just the argmin (e.g. confidence
    /// scores). A row excluded from search senses `+∞` and reads as the
    /// top code.
    ///
    /// # Errors
    ///
    /// [`FerexError::InvalidPolicy`] when `parallelism` is zero; otherwise
    /// as [`FerexArray::distances_batch`].
    pub fn read_digital(
        &self,
        query: &[u32],
        adc: &ferex_analog::adc::AdcParams,
        parallelism: usize,
    ) -> Result<ferex_analog::adc::AdcReadout, FerexError> {
        if parallelism == 0 {
            return Err(FerexError::InvalidPolicy {
                what: "ADC readout needs at least one converter",
            });
        }
        let distances = self.distances_batch(&[query.to_vec()])?;
        let currents: Vec<Amp> =
            self.currents(distances.first().ok_or(FerexError::Empty)?).collect();
        let adc = if adc.full_scale.value() > 0.0 {
            *adc
        } else {
            // Auto-range: the worst-case row distance is max-DM-entry per
            // symbol across the whole vector.
            let max_units =
                (self.encoding.max_vds_multiple as usize * self.encoding.k * self.dim) as f64;
            let i_unit = self.tech.i_unit().value();
            ferex_analog::adc::AdcParams { full_scale: Amp(max_units * i_unit), ..*adc }
        };
        Ok(adc.read_out(&currents, parallelism))
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
                let xb = self.crossbar.as_ref().ok_or(FerexError::NotProgrammed)?;
                let cell = xb.cell(phys, col).ok_or(FerexError::NotProgrammed)?;
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
                    .ok_or(FerexError::NotProgrammed)?
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
        if rv.repaired > 0 {
            // A trim moved some thresholds: their first-ON levels follow.
            self.sync_first_on(phys, codes);
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
            // A Noisy spare's cells keep their samples; their first-ON
            // levels follow the vector the spare now holds.
            self.sync_first_on(phys, &codes);
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

    /// Every probe's readback of the probed rows: `readback[q][i]` is the
    /// current (in `I_unit` multiples) probed row `i` — a physical row and
    /// the codes it holds — sinks under the uniform codeword `q`, one
    /// probe per stored symbol. `None` on the Ideal backend, which has no
    /// physical state and reads back exactly the expectation.
    ///
    /// # Errors
    ///
    /// [`FerexError::NotProgrammed`] when the backend's physical state is
    /// missing; probe-validation errors from the drive encoding.
    fn scrub_readback(
        &self,
        probed: &[(usize, &[u8])],
    ) -> Result<Option<Vec<Vec<f64>>>, FerexError> {
        // lint:allow(cast-truncation/narrowing, reason = "q < n_stored, which fits u32 by construction")
        let probes: Vec<Vec<u32>> =
            (0..self.encoding.n_stored()).map(|q| vec![q as u32; self.dim]).collect();
        match &self.backend {
            Backend::Ideal => Ok(None),
            Backend::Noisy(_) => {
                self.noisy_units(probed.len(), |i| probed.get(i).copied(), &probes).map(Some)
            }
            Backend::Circuit(cfg) => {
                let i_unit = self.tech.i_unit().value();
                let xb = self.crossbar.as_ref().ok_or(FerexError::NotProgrammed)?;
                let readback = probes.iter().map(|probe| {
                    let drives = self.drives_for(probe)?;
                    Ok(probed
                        .iter()
                        .map(|&(phys, _)| {
                            xb.row_current(phys, &drives, &cfg.options).value() / i_unit
                        })
                        .collect())
                });
                readback.collect::<Result<Vec<Vec<f64>>, FerexError>>().map(Some)
            }
        }
    }

    /// Compares logical or sentinel row `row_id`, holding `codes`, against
    /// the exact expected current under every probe; `measured(q)` is its
    /// readback under probe `q` (`None`: the expectation itself). Returns a
    /// finding when any probe diverges beyond the policy's tolerances.
    fn scrub_row(
        &self,
        row_id: usize,
        codes: &[u8],
        measured: impl Fn(usize) -> Option<f64>,
        policy: &RepairPolicy,
    ) -> Option<ScrubFinding> {
        let mut worst: Option<(f64, f64)> = None;
        let mut saw_pos = false;
        let mut saw_neg = false;
        for q in 0..self.encoding.n_stored() {
            let expected: f64 = codes
                .iter()
                .map(|&s| f64::from(self.encoding.cell_current(q, usize::from(s))))
                .sum(); // lint:allow(float-order/accumulation, reason = "integer I_unit multiples bounded by dim * k * max_vds << 2^53; d-major order matches the probe path")
            let div = measured(q).unwrap_or(expected) - expected;
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
        worst.map(|(divergence, expected)| ScrubFinding {
            row: row_id,
            divergence,
            expected,
            attribution: match (saw_pos, saw_neg) {
                (true, true) => FaultAttribution::Mixed,
                (true, false) => FaultAttribution::ExcessCurrent,
                _ => FaultAttribution::MissingCurrent,
            },
        })
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
        // Every active logical row, then every sentinel, read back in one
        // probe pass.
        let sentinel_codes: Vec<Vec<u8>> =
            (0..self.sentinels()).map(|j| self.sentinel_codeword(j)).collect();
        let mut probed: Vec<(usize, usize, &[u8])> = (0..self.len())
            .filter_map(|r| Some((self.physical_row(r)?, r, self.codes.row(r)?)))
            .collect();
        let checked_logical = probed.len();
        probed.extend(
            sentinel_codes
                .iter()
                .enumerate()
                .map(|(j, c)| (self.sentinel_phys(j), self.len() + j, c.as_slice())),
        );
        let rows: Vec<(usize, &[u8])> = probed.iter().map(|&(phys, _, c)| (phys, c)).collect();
        let readback = self.scrub_readback(&rows)?;
        let mut findings: Vec<ScrubFinding> = Vec::new();
        let mut sentinel_findings = 0usize;
        for (i, &(_, row_id, codes)) in probed.iter().enumerate() {
            let measured = |q: usize| readback.as_ref().and_then(|rb| rb.get(q)?.get(i).copied());
            if let Some(f) = self.scrub_row(row_id, codes, measured, &policy) {
                sentinel_findings += usize::from(i >= checked_logical);
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
    /// [`FerexError::InvalidPolicy`] when `row` is out of range;
    /// [`FerexError::NotProgrammed`] on a stale array;
    /// [`FerexError::SparesExhausted`] when no usable spare is left — the
    /// row is then *excluded* from search (graceful degradation), so the
    /// error reports the state change, it does not roll it back.
    pub fn quarantine_row(&mut self, row: usize) -> Result<usize, FerexError> {
        if row >= self.len() {
            return Err(FerexError::InvalidPolicy { what: "quarantined row is out of range" });
        }
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
        self.mutation.as_ref().map(MutationState::policy)
    }

    /// Occupancy of physical slot `slot` (`None` out of range or when
    /// mutation is disabled).
    pub fn slot_state(&self, slot: usize) -> Option<SlotState> {
        self.mutation.as_ref().and_then(|m| m.slot(slot))
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
    fn mutation_write_slot(&mut self, slot: usize) -> Result<(), FerexError> {
        let Some(m) = self.mutation.as_mut() else {
            return Err(FerexError::InvalidPolicy {
                what: "mutation is not enabled on this array",
            });
        };
        m.bump_cycles(slot);
        // Whatever verify report was cached describes the pre-mutation
        // contents.
        self.program_report = None;
        if !self.is_programmed() {
            return Ok(());
        }
        // The Ideal backend has no physical state, and the Noisy backend
        // reads the stored codes against persistent per-cell samples: for
        // both, the committed code row (with the first-ON levels
        // `write_slot` re-derived from it) *is* the write.
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
        let capacity = m.policy().capacity;
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
        self.write_slot(slot, Some(&vector));
        if let Err(e) = self.mutation_write_slot(slot) {
            // Never made live: zero the logical contents back out.
            self.write_slot(slot, None);
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
        let target = if m.policy().wear_leveling { m.choose_insert_slot() } else { None };
        match target {
            Some(new) if new != old => {
                self.write_slot(new, Some(&vector));
                if let Err(e) = self.mutation_write_slot(new) {
                    self.write_slot(new, None);
                    return Err(e);
                }
                self.mutation_commit_move(id, old, new);
                self.maybe_auto_compact();
                Ok(())
            }
            _ => {
                let previous = self.row_vector(old).unwrap_or_default();
                self.write_slot(old, Some(&vector));
                match self.mutation_write_slot(old) {
                    Ok(()) => Ok(()),
                    Err(e) => {
                        // Crash consistency: roll the row back to its old
                        // contents, logically and (best-effort) physically.
                        self.write_slot(old, Some(&previous));
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
        m.set_slot(slot, SlotState::Dead);
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
        let reclaimed = m.reclaim_tombstones();
        let report = CompactionReport { reclaimed: reclaimed.len(), rotated: 0 };
        for i in reclaimed {
            self.write_slot(i, None);
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
        let Some(SlotState::Live(id)) = m.slot(src) else {
            return report;
        };
        let vector = self.row_vector(src).unwrap_or_default();
        self.write_slot(dst, Some(&vector));
        if self.mutation_write_slot(dst).is_err() {
            // Abandon the rotation: the destination stays free (its stale
            // physical content is excluded from search), no logical change.
            self.write_slot(dst, None);
            return report;
        }
        self.mutation_commit_move(id, src, dst);
        report.rotated += 1;
        report
    }

    /// Marks a written slot live for `id` (the commit of an insert).
    /// Infallible and purely logical.
    fn mutation_commit_live(&mut self, id: u64, slot: usize) {
        if let Some(m) = self.mutation.as_mut() {
            m.set_slot(slot, SlotState::Live(id));
            m.id_to_slot.insert(id, slot);
        }
    }

    /// Commits a move of `id` from `src` to the written slot `dst`,
    /// tombstoning `src` (the commit of an out-of-place update or a wear
    /// rotation). Infallible and purely logical.
    fn mutation_commit_move(&mut self, id: u64, src: usize, dst: usize) {
        if let Some(m) = self.mutation.as_mut() {
            m.set_slot(dst, SlotState::Live(id));
            m.set_slot(src, SlotState::Dead);
            m.id_to_slot.insert(id, dst);
        }
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

/// The voltages a `Noisy` first-ON derivation compares.
struct Ladder {
    /// The search ladder: `search_voltage(j)` for `j ∈ 0..=n_vth_levels`,
    /// rising in `j`.
    gates: Vec<Volt>,
    /// Each stored level's fresh threshold, `vth_level(i)`.
    fresh: Vec<Volt>,
}

impl Ladder {
    /// The first-ON level of a cell with threshold `vth` stored at
    /// `level`: the count of gates at or below `vth` (a prefix, as the
    /// ladder rises), or [`NEVER_ON`] when every gate is. A threshold that
    /// still sits between gates `level` and `level + 1`, where the ladder
    /// places it, has the count `level + 1` without counting.
    #[inline]
    fn first_on(&self, vth: Volt, level: usize) -> u8 {
        let gates = &self.gates;
        let below = match (gates.get(level), gates.get(level + 1)) {
            (Some(&lo), Some(&hi)) if lo <= vth && vth < hi => level + 1,
            _ => gates.iter().filter(|&&v| v <= vth).count(),
        };
        if below < gates.len() {
            u8::try_from(below).unwrap_or(NEVER_ON)
        } else {
            NEVER_ON
        }
    }
}

/// One `Noisy` contribution entry across a row block's lanes: `m / r`
/// where the gate level reaches the lane's first-ON level, `0.0`
/// elsewhere. Out of line on purpose: as a function's own arguments, the
/// lanes are known not to alias, which lets the compiler divide two lanes
/// per instruction with no branch per lane (a branch on the data-dependent
/// ON test mispredicts).
#[inline(never)]
fn lane_units(
    entry: &mut [f64; NOISY_BLOCK_ROWS],
    gate: f64,
    m: f64,
    on: &[f64; NOISY_BLOCK_ROWS],
    r: &[f64; NOISY_BLOCK_ROWS],
) {
    for ((entry, &on), &r) in entry.iter_mut().zip(on).zip(r) {
        *entry = if gate >= on { m / r } else { 0.0 };
    }
}

/// One query's sums over a row block: each lane adds the `terms` entries
/// of its row in order. Out of line on purpose: on its own, the compiler
/// keeps the lanes' sums in registers, two per instruction, where inside
/// the kernel it shuffled and spilled them and ran half as fast.
#[inline(never)]
fn lane_sums(table: &[[f64; NOISY_BLOCK_ROWS]], terms: &[usize]) -> [f64; NOISY_BLOCK_ROWS] {
    let mut sums = [0.0f64; NOISY_BLOCK_ROWS];
    for entry in terms.iter().filter_map(|&e| table.get(e)) {
        for (sum, &units) in sums.iter_mut().zip(entry) {
            *sum += units; // lint:allow(float-order/accumulation, reason = "each lane adds one row's non-negative terms in the fixed d-major, FeFET-minor order")
        }
    }
    sums
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
                        if let Some(cell) = xb.cell_mut(phys_row, col) {
                            cell.fefet_mut().ferroelectric_mut().set_polarization(p);
                        }
                    }
                    if fault == CellFault::ResistorShort {
                        if let Some(cell) = xb.cell_mut(phys_row, col) {
                            cell.scale_resistance(plan.short_residual_r);
                        }
                    }
                }
                // Stuck fully set: conducts as the lowest level.
                CellFault::StuckAtLowVth => xb.program(phys_row, col, 0),
                // Stuck fully reset: the erased state sits above every
                // search level, so leave the fresh cell.
                CellFault::StuckAtHighVth => {}
                CellFault::ResistorOpen => {
                    xb.program(phys_row, col, level);
                    if let Some(cell) = xb.cell_mut(phys_row, col) {
                        cell.scale_resistance(OPEN_RESISTANCE_SCALE);
                    }
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
        let out = a.search_batch_at(&[q.to_vec()], &[0]).unwrap().remove(0);
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
        let oi = ideal.search_batch_at(&[q.to_vec()], &[0]).unwrap().remove(0);
        let oc = circuit.search_batch_at(&[q.to_vec()], &[0]).unwrap().remove(0);
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
        let top = a.search_k_batch_at(&[vec![1, 1, 1, 1]], 3, &[0]).unwrap().remove(0);
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
        let out = a.search_batch_at(&[q.to_vec()], &[0]).unwrap().remove(0);
        let m = DistanceMetric::Manhattan;
        for (r, stored) in rows(&a).iter().enumerate() {
            assert_eq!(out.distances[r], m.vector_distance(&q, stored) as f64);
        }
    }

    #[test]
    fn a_narrower_alphabet_is_refused_at_the_first_offending_code() {
        let mut a = hamming_array(70, Backend::Ideal);
        a.store(vec![1; 70]).unwrap();
        let mut offending = vec![0; 70];
        offending[5] = 2;
        offending[9] = 3;
        a.store(offending).unwrap();
        a.distances_batch(&[vec![0; 70]]).unwrap();
        let encoding = a.encoding().clone();
        let codes = a.soa_codes().as_slice().to_vec();
        let planes = a.soa_codes().cached_planes().map(<[u64]>::to_vec);
        assert!(planes.is_some(), "the read built the planes");
        let dm = DistanceMatrix::from_metric(DistanceMetric::Hamming, 1);
        let binary = find_minimal_cell(&dm, &SizingOptions::default()).unwrap().encoding;
        assert!(matches!(
            a.reconfigure(binary),
            Err(FerexError::SymbolOutOfRange { value: 2, n_values: 2 })
        ));
        assert_eq!(a.encoding(), &encoding);
        assert_eq!(a.soa_codes().as_slice(), codes.as_slice());
        assert_eq!(a.soa_codes().cached_planes().map(<[u64]>::to_vec), planes);
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
        assert!(matches!(a.search_batch_at(&[vec![0, 0, 0]], &[0]), Err(FerexError::Empty)));
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
    fn copied_rows_equal_stored_rows() {
        let mut source = hamming_array(3, Backend::Ideal);
        source.store_all([vec![0, 3, 1], vec![2, 2, 2]]).unwrap();
        source.distances_batch(&[vec![0, 0, 0]]).unwrap(); // builds the bit-planes
        let mut copy = hamming_array(3, noisy_cfg(1));
        copy.copy_rows_from(&source).unwrap();
        assert_eq!(rows(&copy), rows(&source));
        assert_eq!(copy.soa_codes().cached_planes(), source.soa_codes().cached_planes());
        assert!(!copy.is_programmed(), "a copy re-stales the physical state");
        // The copy checks the rows against its own shape and alphabet.
        let mut narrow = hamming_array(2, Backend::Ideal);
        assert_eq!(
            narrow.copy_rows_from(&source),
            Err(FerexError::DimensionMismatch { expected: 2, got: 3 })
        );
        let dm = DistanceMatrix::from_metric(DistanceMetric::Hamming, 1);
        let one_bit = find_minimal_cell(&dm, &SizingOptions::default()).unwrap().encoding;
        let mut binary = FerexArray::new(Technology::default(), one_bit, 3, Backend::Ideal);
        assert_eq!(
            binary.copy_rows_from(&source),
            Err(FerexError::SymbolOutOfRange { value: 3, n_values: 2 })
        );
        assert!(binary.is_empty(), "a refused copy changes nothing");
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
        let oi = ideal.search_batch_at(&[q.to_vec()], &[0]).unwrap().remove(0);
        let on = noisy.search_batch_at(&[q.to_vec()], &[0]).unwrap().remove(0);
        assert_eq!(oi.distances, on.distances);
        assert_eq!(oi.nearest, on.nearest);
    }

    #[test]
    fn noisy_and_circuit_statistics_agree() {
        // The fast statistical backend must reproduce the device-level
        // backend's current statistics on the same workload: identical ON
        // counts in the nominal part, comparable spread under variation.
        let stored = vec![vec![0u32; 12], vec![1; 12]];
        let q = [vec![3u32; 12]]; // every cell conducts per the ladder
        let run = |backend: Backend| -> Vec<f64> {
            let mut a = hamming_array(12, backend);
            a.store_all(stored.clone()).unwrap();
            a.program();
            a.distances_batch(&q).unwrap().remove(0)
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
    fn digital_readout_with_no_converter_is_a_typed_error() {
        let mut a = hamming_array(2, Backend::Ideal);
        a.store(vec![0, 1]).unwrap();
        let adc = ferex_analog::adc::AdcParams::default();
        assert!(matches!(a.read_digital(&[0, 1], &adc, 0), Err(FerexError::InvalidPolicy { .. })));
    }

    #[test]
    fn bad_lta_offset_is_a_typed_error_before_any_read() {
        fn invalid<T>(r: Result<T, FerexError>) -> bool {
            matches!(r, Err(FerexError::InvalidPolicy { .. }))
        }
        for sigma in [-25e-9, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let cfg = Box::new(CircuitConfig {
                lta: LtaParams { offset_sigma: Amp(sigma), ..LtaParams::default() },
                ..Default::default()
            });
            for backend in [Backend::Noisy(cfg.clone()), Backend::Circuit(cfg.clone())] {
                let mut a = hamming_array(4, backend);
                a.store(vec![0, 1, 2, 3]).unwrap();
                a.store(vec![3, 2, 1, 0]).unwrap();
                a.program();
                let q = vec![vec![0, 1, 2, 0]];
                assert!(invalid(a.search_batch_at(&q, &[0])), "sigma {sigma}");
                assert!(invalid(a.search_k_batch_at(&q, 1, &[0])), "sigma {sigma}");
                // The distance readouts never sense, so they still serve.
                assert!(a.distances_batch(&q).is_ok());
            }
        }
    }

    #[test]
    fn digital_readout_reads_excluded_rows_as_the_top_code() {
        // Three free slots sense +inf: they saturate at the top code
        // instead of tripping the converter.
        let mut a = mutable_ideal(4);
        a.insert(1, vec![0, 1, 2, 3]).unwrap();
        let adc = ferex_analog::adc::AdcParams::default();
        let readout = a.read_digital(&[0, 1, 2, 3], &adc, 2).unwrap();
        assert_eq!(readout.codes, vec![0, 63, 63, 63]);
    }

    #[test]
    fn circuit_with_variation_is_deterministic_per_seed() {
        let mk = || {
            let cfg = CircuitConfig { seed: 42, ..Default::default() };
            let mut a = hamming_array(8, Backend::Circuit(Box::new(cfg)));
            a.store(vec![0; 8]).unwrap();
            a.store(vec![1; 8]).unwrap();
            a.program();
            a.search_batch_at(&[vec![0, 0, 0, 0, 1, 1, 1, 1]], &[0]).unwrap().remove(0)
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
        assert_eq!(a.search_batch_at(&[vec![0, 1, 2, 3]], &[0]), Err(FerexError::NotProgrammed));
        assert!(!a.is_programmed());
        a.program();
        assert!(a.is_programmed());
        assert!(a.search_batch_at(&[vec![0, 1, 2, 3]], &[0]).is_ok());
        // Any mutation re-stales the state…
        a.store(vec![3, 3, 3, 3]).unwrap();
        assert_eq!(a.distances_batch(&[vec![0; 4]]), Err(FerexError::NotProgrammed));
        // …and program() is idempotent once re-run.
        a.program();
        a.program();
        assert!(a.search_k_batch_at(&[vec![0; 4]], 2, &[0]).is_ok());
    }

    #[test]
    fn program_is_idempotent_for_variation_samples() {
        let mut a = hamming_array(6, noisy_cfg(5));
        a.store(vec![0; 6]).unwrap();
        a.program();
        let before = a.distances_batch(&[vec![3; 6]]).unwrap().remove(0);
        a.program(); // no-op: must not redraw the variation samples
        assert_eq!(before, a.distances_batch(&[vec![3; 6]]).unwrap().remove(0));
    }

    #[test]
    fn invalid_k_reports_dedicated_error() {
        let mut a = hamming_array(2, Backend::Ideal);
        a.store(vec![0, 0]).unwrap();
        a.store(vec![1, 1]).unwrap();
        assert_eq!(
            a.search_k_batch_at(&[vec![0, 0]], 0, &[0]),
            Err(FerexError::InvalidK { k: 0, rows: 2 })
        );
        assert_eq!(
            a.search_k_batch_at(&[vec![0, 0]], 3, &[0]),
            Err(FerexError::InvalidK { k: 3, rows: 2 })
        );
        // An empty array still reports Empty, not InvalidK.
        let empty = hamming_array(2, Backend::Ideal);
        assert_eq!(empty.search_k_batch_at(&[vec![0, 0]], 1, &[0]), Err(FerexError::Empty));
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
            let qids: Vec<u64> = (100..100 + queries.len() as u64).collect();
            let batched = a.search_batch_at(&queries, &qids).unwrap();
            let sequential: Vec<SearchOutcome> = queries
                .iter()
                .zip(&qids)
                .map(|(q, &qid)| {
                    a.search_batch_at(std::slice::from_ref(q), &[qid]).unwrap().remove(0)
                })
                .collect();
            assert_eq!(batched, sequential, "backend {backend:?}");
        }
    }

    #[test]
    fn batch_search_k_is_bit_identical_to_sequential() {
        let (a, queries) = batch_fixture(noisy_cfg(13));
        let qids: Vec<u64> = (0..queries.len() as u64).collect();
        let batched = a.search_k_batch_at(&queries, 3, &qids).unwrap();
        for (i, q) in queries.iter().enumerate() {
            let alone = a.search_k_batch_at(std::slice::from_ref(q), 3, &[qids[i]]).unwrap();
            assert_eq!(vec![batched[i].clone()], alone);
        }
    }

    #[test]
    fn batch_validates_every_query_before_serving() {
        let (a, mut queries) = batch_fixture(Backend::Ideal);
        queries.last_mut().unwrap()[0] = 9; // out of range, last query
        let qids: Vec<u64> = (0..queries.len() as u64).collect();
        assert!(matches!(
            a.search_batch_at(&queries, &qids),
            Err(FerexError::SymbolOutOfRange { value: 9, .. })
        ));
        assert_eq!(
            a.search_batch_at(&queries, &qids[1..]),
            Err(FerexError::DimensionMismatch { expected: queries.len(), got: qids.len() - 1 })
        );
        assert_eq!(a.search_batch_at(&[], &[]).unwrap(), Vec::<SearchOutcome>::new());
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
            assert_eq!(
                a.distances_batch(&[vec![3, 2, 1, 0]]).unwrap().remove(0),
                vec![0.0],
                "{plan:?}"
            );
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
        assert_eq!(a.distances_batch(&[q.to_vec()]).unwrap().remove(0), vec![expected]);
    }

    #[test]
    fn shorted_cells_scale_contributions_exactly() {
        let short = FaultPlan { short_rate: 1.0, short_residual_r: 0.5, ..Default::default() };
        let run = |plan: FaultPlan| {
            let mut a = hamming_array(4, Backend::Noisy(Box::new(faulty_cfg(plan, 1))));
            a.store(vec![0, 1, 2, 3]).unwrap();
            a.program();
            a.distances_batch(&[vec![2, 2, 2, 2]]).unwrap().remove(0)
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
            a.distances_batch(&[vec![0, 1, 2, 3, 3, 3]]).unwrap().remove(0)
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
        // Full variation on top of the faults: batched and single reads
        // must both equal the row-loop reference bit for bit.
        let cfg = CircuitConfig { faults: plan, seed: 21, ..Default::default() };
        let (a, queries) = batch_fixture(Backend::Noisy(Box::new(cfg)));
        let batched = a.distances_batch(&queries).unwrap();
        for (i, q) in queries.iter().enumerate() {
            let want = noisy_reference::reference(&a, q);
            assert_eq!(batched[i], want, "query {i}");
            assert_eq!(
                a.distances_batch(std::slice::from_ref(q)).unwrap().remove(0),
                want,
                "query {i}, read alone"
            );
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
        let q = [vec![3u32; 12]]; // drives every healthy cell on
        let dn = noisy.distances_batch(&q).unwrap().remove(0);
        let dc = circuit.distances_batch(&q).unwrap().remove(0);
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
        let qids: Vec<u64> = (0..64).collect();
        let outcomes = a.search_batch_at(&vec![vec![0, 0]; 64], &qids).unwrap();
        let wins: Vec<usize> = outcomes.iter().map(|o| o.nearest).collect();
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
        let out = a.search_batch_at(&[q.to_vec()], &[0]).unwrap().remove(0);
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
            let out = a.search_batch_at(&[q.to_vec()], &[0]).unwrap().remove(0);
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
        let out = a.search_batch_at(&[vec![0, 1, 2, 3]], &[0]).unwrap().remove(0);
        assert!(out.distances[1].is_infinite(), "excluded row reads ∞");
        assert_eq!(out.distances[0], 0.0, "remapped row still serves its vector");
        // k-nearest sees 5 active rows, not 6.
        assert_eq!(a.search_k_batch_at(&[vec![0, 1, 2, 3]], 5, &[0]).unwrap().remove(0).len(), 5);
        assert_eq!(
            a.search_k_batch_at(&[vec![0, 1, 2, 3]], 6, &[0]),
            Err(FerexError::InvalidK { k: 6, rows: 5 })
        );
        let h = a.health();
        assert_eq!((h.spares_in_use, h.rows_quarantined_now, h.rows_active), (1, 1, 5));
    }

    #[test]
    fn quarantining_a_row_past_the_array_is_refused() {
        let mut a = hamming_array(4, Backend::Noisy(Box::new(faulty_cfg(FaultPlan::none(), 5))));
        a.set_repair_policy(RepairPolicy { spare_rows: 1, ..Default::default() }).unwrap();
        for v in stored_rows(4) {
            a.store(v).unwrap();
        }
        let refused = Err(FerexError::InvalidPolicy { what: "quarantined row is out of range" });
        // Range is checked first: a stale array refuses the row the same way.
        assert_eq!(a.quarantine_row(6), refused);
        a.program_verified().unwrap();
        let before = a.health();
        assert_eq!(a.quarantine_row(6), refused);
        assert_eq!(a.quarantine_row(usize::MAX), refused);
        assert_eq!(a.health(), before, "a refused quarantine changes nothing");
        assert!((0..6).all(|r| a.row_health(r) == RowHealth::Healthy));
        // The last row is in range.
        assert!(a.quarantine_row(5).is_ok());
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
        assert_eq!(a.search_batch_at(&[vec![0, 1, 2, 3]], &[0]), Err(FerexError::Empty));
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
        let out = a.search_batch_at(&[vec![0, 1, 2, 3]], &[0]).unwrap().remove(0);
        let nearest_id = a.id_at(out.nearest).unwrap();
        assert_eq!(nearest_id, 10);
        assert_eq!(a.live_len(), 2);
        // Free slots are excluded, not served as zero vectors.
        let zero_out = a.search_batch_at(&[vec![0, 0, 0, 0]], &[0]).unwrap().remove(0);
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
        let out = a.search_batch_at(&[vec![0, 0, 0, 0]], &[0]).unwrap().remove(0);
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
            m.set_wear_leveling(true);
        }
        let report = a.maintenance();
        assert_eq!(report.rotated, 1);
        assert_ne!(a.slot_of(1), Some(0), "hot row must move off its worn slot");
        let out = a.search_batch_at(&[vec![0; 4]], &[0]).unwrap().remove(0);
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
        let got = a.search_batch_at(&[q.to_vec()], &[0]).unwrap().remove(0);
        let want = fresh.search_batch_at(&[q.to_vec()], &[0]).unwrap().remove(0);
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
        let out = a.search_batch_at(&[vec![0, 0, 3, 3]], &[0]).unwrap().remove(0);
        assert_eq!(a.id_at(out.nearest), Some(3));
        a.delete(1).unwrap();
        let out = a.search_batch_at(&[vec![0, 1, 2, 3]], &[0]).unwrap().remove(0);
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
            let out = a.search_batch_at(&[vec![0, 1, 2, 3]], &[0]).unwrap().remove(0);
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

    // ------------------------------------------------------------------
    // The Noisy kernel against an independent reference.
    // ------------------------------------------------------------------

    mod noisy_reference {
        use super::*;
        use ferex_fefet::math::splitmix64;
        use proptest::prelude::*;

        /// Symbols per stored vector: small, so a case stays cheap.
        const DIM: usize = 5;

        /// The per-query row loop the Noisy reads once ran, kept as the
        /// reference: every driven cell of physical row `phys` (holding
        /// `codes`) is judged from its sample and fault state with the
        /// float gate comparison `V_gate > V_th`, and the ON cells' `m /
        /// r_factor` currents are summed d-major, FeFET-minor.
        fn reference_row(a: &FerexArray, phys: usize, codes: &[u8], query: &[u32]) -> f64 {
            let k = a.encoding.k;
            let cols = a.physical_cols();
            let mut units = 0.0f64;
            for (d, (&s, &q)) in codes.iter().zip(query).enumerate() {
                let st = &a.encoding.stored[usize::from(s)];
                let se = &a.encoding.search[q as usize];
                for f in 0..k {
                    let m = se.vds_multiples[f];
                    if m == 0 {
                        continue;
                    }
                    let cell = reference_cell(a, phys * cols + d * k + f, st.vth_levels[f]);
                    let v_gate = a.tech.search_voltage(se.vgs_levels[f]);
                    if cell.vth.is_some_and(|vth| v_gate > vth) {
                        units += m as f64 / cell.r_factor;
                    }
                }
            }
            units
        }

        /// Cell `index`'s threshold and resistor factor, programmed to
        /// `level`, straight from its sample and fault state.
        fn reference_cell(a: &FerexArray, index: usize, level: usize) -> EffectiveCell {
            let (Some(samples), Backend::Noisy(cfg)) = (a.noisy_samples.as_deref(), &a.backend)
            else {
                panic!("the reference reads a programmed Noisy array");
            };
            let sample = &samples[index];
            match (&a.fault_map, &a.aged_vth) {
                (Some(map), Some(aged)) => {
                    cfg.faults.effective_cell(&a.tech, map[index], aged, level, sample)
                }
                _ => EffectiveCell {
                    vth: Some(a.tech.vth_level(level) + sample.dvth),
                    r_factor: sample.r_factor,
                },
            }
        }

        /// Every row a read or a scrub reaches — each slot's serving
        /// physical row, with the slot's codes, then each sentinel, with
        /// its codeword.
        fn reachable_rows(a: &FerexArray) -> Vec<(usize, Vec<u8>)> {
            let mut rows: Vec<(usize, Vec<u8>)> = (0..a.len())
                .filter_map(|r| Some((a.phys_for_slot(r)?, a.codes.row(r)?.to_vec())))
                .collect();
            rows.extend((0..a.sentinels()).map(|j| (a.sentinel_phys(j), a.sentinel_codeword(j))));
            rows
        }

        /// The stored first-ON levels of every reachable row equal a fresh
        /// derivation: the first ladder level whose gate voltage exceeds the
        /// cell's threshold.
        fn assert_levels_fresh(a: &FerexArray) {
            let levels = a.first_on.as_deref().expect("a programmed Noisy array keeps levels");
            let ladder: Vec<Volt> =
                (0..=a.tech.n_vth_levels).map(|j| a.tech.search_voltage(j)).collect();
            let (k, cols) = (a.encoding.k, a.physical_cols());
            for (phys, codes) in reachable_rows(a) {
                for (d, &s) in codes.iter().enumerate() {
                    for f in 0..k {
                        let index = phys * cols + d * k + f;
                        let level = a.encoding.stored[usize::from(s)].vth_levels[f];
                        let want = reference_cell(a, index, level)
                            .vth
                            .and_then(|vth| ladder.iter().position(|&v| v > vth))
                            .map_or(NEVER_ON, |j| j as u8);
                        assert_eq!(
                            levels[index], want,
                            "stale first-ON level at row {phys}, cell {d}.{f}"
                        );
                    }
                }
            }
        }

        /// The scrub probe reads every reachable row like the reference.
        fn assert_probe_matches(a: &FerexArray) {
            let rows = reachable_rows(a);
            let probed: Vec<(usize, &[u8])> =
                rows.iter().map(|(p, c)| (*p, c.as_slice())).collect();
            let readback =
                a.scrub_readback(&probed).expect("programmed").expect("Noisy reads back");
            for (q, units) in readback.iter().enumerate() {
                let probe = vec![q as u32; DIM];
                for (&(phys, codes), &got) in probed.iter().zip(units) {
                    let want = reference_row(a, phys, codes, &probe);
                    assert_eq!(got.to_bits(), want.to_bits(), "probe {q} of row {phys}");
                }
            }
        }

        /// The reference for one query over every logical row; rows
        /// excluded from search read `INFINITY`.
        pub(super) fn reference(a: &FerexArray, q: &[u32]) -> Vec<f64> {
            (0..a.len())
                .map(|r| match (a.physical_row(r), a.codes.row(r)) {
                    (Some(phys), Some(codes)) => reference_row(a, phys, codes, q),
                    _ => f64::INFINITY,
                })
                .collect()
        }

        fn bits(v: &[f64]) -> Vec<u64> {
            v.iter().map(|d| d.to_bits()).collect()
        }

        fn vector(seed: u64, n: usize) -> Vec<u32> {
            (0..DIM as u64).map(|d| (splitmix64(seed ^ (d << 40)) % n as u64) as u32).collect()
        }

        /// Every Noisy read equals the reference bit for bit — batches of
        /// one, two and three queries and larger ones, and the scrub
        /// probe — and the stored first-ON levels are fresh.
        fn assert_reads_match(a: &FerexArray, seed: u64) {
            let n = a.encoding.n_search();
            for batch in [1usize, 2, 3, 9, 20] {
                let qs: Vec<Vec<u32>> =
                    (0..batch as u64).map(|i| vector(splitmix64(seed ^ i), n)).collect();
                let want: Vec<Vec<f64>> = qs.iter().map(|q| reference(a, q)).collect();
                match a.distances_batch(&qs) {
                    Ok(got) => {
                        for (g, w) in got.iter().zip(&want) {
                            assert_eq!(bits(g), bits(w), "batch of {batch} left the reference");
                        }
                    }
                    Err(e) => {
                        assert_eq!(e, FerexError::Empty, "batch of {batch}");
                        assert!(
                            want.iter().flatten().all(|d| d.is_infinite()),
                            "refused a servable array"
                        );
                    }
                }
            }
            assert_levels_fresh(a);
            assert_probe_matches(a);
        }

        fn plan(idx: usize) -> FaultPlan {
            match idx {
                0 => FaultPlan::none(),
                1 => FaultPlan { sa0_rate: 0.08, sa1_rate: 0.08, ..Default::default() },
                2 => FaultPlan {
                    open_rate: 0.08,
                    short_rate: 0.1,
                    short_residual_r: 0.4,
                    ..Default::default()
                },
                3 => FaultPlan {
                    endurance_cycles: 1.0e9,
                    retention_seconds: 1.0e7,
                    ..Default::default()
                },
                _ => FaultPlan {
                    sa0_rate: 0.05,
                    sa1_rate: 0.05,
                    open_rate: 0.05,
                    short_rate: 0.05,
                    retention_seconds: 1.0e7,
                    endurance_cycles: 1.0e8,
                    ..Default::default()
                },
            }
        }

        proptest! {
            /// Every Noisy read, at every batch size, equals the row-loop
            /// reference after every step of an arbitrary schedule: each
            /// fault plan (aging and shorts included), with and without
            /// variation, write-verify trims, remaps onto spares,
            /// exclusions, sentinel scrubs, and the slot-table mutators.
            /// The stored first-ON levels equal a fresh derivation after
            /// every step.
            #[test]
            fn noisy_reads_match_the_row_loop_reference(
                rows in 1usize..40,
                metric_idx in 0usize..3,
                plan_idx in 0usize..5,
                mode in 0usize..3,
                nominal in any::<bool>(),
                ops in prop::collection::vec((0u8..8, any::<u64>()), 0..10),
                seed in 0u64..1_000,
            ) {
                let metric = DistanceMetric::ALL[metric_idx];
                let dm = DistanceMatrix::from_metric(metric, 2);
                let enc = find_minimal_cell(&dm, &SizingOptions::default()).expect("sizes").encoding;
                let n = enc.n_stored();
                // Without variation write-verify trims nothing, so a spare
                // brought up gets its levels from the remap alone.
                let variation = if nominal { VariationModel::none() } else { VariationModel::default() };
                let cfg = CircuitConfig { variation, faults: plan(plan_idx), seed, ..Default::default() };
                let mut a = FerexArray::new(Technology::default(), enc, DIM, Backend::Noisy(Box::new(cfg)));
                // Mode 0: plain program. Mode 1: write-verify with spares
                // and sentinels. Mode 2: the slot table, verified too.
                if mode >= 1 {
                    a.set_repair_policy(RepairPolicy { spare_rows: 3, sentinel_rows: 2, ..Default::default() })
                        .expect("valid policy");
                }
                if mode == 2 {
                    a.enable_mutation(MutationPolicy::with_capacity(rows + 4)).expect("valid policy");
                    for id in 0..rows as u64 {
                        a.insert(id, vector(seed ^ (id << 8), n)).expect("capacity");
                    }
                } else {
                    a.store_all((0..rows as u64).map(|r| vector(seed ^ (r << 8), n))).expect("valid");
                }
                if mode >= 1 {
                    let _ = a.program_verified();
                }
                a.program();
                assert_reads_match(&a, seed);
                let mut next_id = 1_000u64;
                for &(op, e) in &ops {
                    let ids = a.live_ids();
                    let id = ids.get((e >> 8) as usize % ids.len().max(1)).copied().unwrap_or(0);
                    match op {
                        0 if a.mutation_enabled() => {
                            let _ = a.insert(next_id, vector(e, n));
                            next_id += 1;
                        }
                        1 if a.mutation_enabled() => { let _ = a.update_id(id, vector(e, n)); }
                        2 if a.mutation_enabled() => { let _ = a.delete(id); }
                        3 => { a.compact(); }
                        4 => { a.maintenance(); }
                        5 => { let _ = a.scrub(); }
                        _ => { let _ = a.quarantine_row((e >> 8) as usize % a.len()); }
                    }
                    assert_reads_match(&a, e);
                }
            }
        }
    }
}
