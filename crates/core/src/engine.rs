//! The high-level FeReX engine: configure a metric, store vectors, search.
//!
//! [`Ferex`] ties the whole pipeline together: distance-matrix construction
//! → CSP sizing/encoding → array programming → search, plus the Fig. 6
//! energy/delay cost reporting and live reconfiguration between distance
//! functions — the capability that distinguishes FeReX from fixed-function
//! AMs (paper Table I).

use crate::array::{Backend, FerexArray, SearchOutcome};
use crate::distance::DistanceMetric;
use crate::dm::DistanceMatrix;
use crate::encoding::{CellEncoding, EncodingLimits};
use crate::error::FerexError;
use crate::health::{HealthSnapshot, ProgramReport, RepairPolicy, ScrubReport};
use crate::mutate::{CompactionReport, MutationPolicy, WearSummary};
use crate::replica::{replicate_backend, ReplicaPolicy, ReplicaSet};
use crate::sizing::{find_minimal_cell, SizingOptions, SizingReport};
use ferex_analog::delay::{DelayBreakdown, DelayModel};
use ferex_analog::energy::{EnergyBreakdown, EnergyModel};
use ferex_fefet::units::Amp;
use ferex_fefet::Technology;

/// Builder for a [`Ferex`] engine.
///
/// # Examples
///
/// ```
/// use ferex_core::{DistanceMetric, Ferex};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut ferex = Ferex::builder()
///     .metric(DistanceMetric::Hamming)
///     .bits(2)
///     .dim(8)
///     .build()?;
/// ferex.store(vec![0, 1, 2, 3, 3, 2, 1, 0])?;
/// let result = ferex.search(&[0, 1, 2, 3, 3, 2, 1, 0])?;
/// assert_eq!(result.nearest, 0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct FerexBuilder {
    metric: DistanceMetric,
    bits: u32,
    dim: usize,
    tech: Technology,
    backend: Backend,
    sizing: Option<SizingOptions>,
    repair: Option<RepairPolicy>,
}

impl Default for FerexBuilder {
    fn default() -> Self {
        FerexBuilder {
            metric: DistanceMetric::Hamming,
            bits: 2,
            dim: 16,
            tech: Technology::default(),
            backend: Backend::Ideal,
            sizing: None,
            repair: None,
        }
    }
}

impl FerexBuilder {
    /// Sets the distance metric (default: Hamming).
    pub fn metric(mut self, metric: DistanceMetric) -> Self {
        self.metric = metric;
        self
    }

    /// Sets the per-symbol bit width (default: 2).
    pub fn bits(mut self, bits: u32) -> Self {
        self.bits = bits;
        self
    }

    /// Sets the vector dimension in symbols (default: 16).
    pub fn dim(mut self, dim: usize) -> Self {
        self.dim = dim;
        self
    }

    /// Sets the technology card (default: [`Technology::default`]).
    pub fn technology(mut self, tech: Technology) -> Self {
        self.tech = tech;
        self
    }

    /// Sets the simulation backend (default: ideal).
    pub fn backend(mut self, backend: Backend) -> Self {
        self.backend = backend;
        self
    }

    /// Overrides the sizing options (default: derived from the technology).
    pub fn sizing(mut self, sizing: SizingOptions) -> Self {
        self.sizing = Some(sizing);
        self
    }

    /// Installs a self-healing policy on the array (default: none — the
    /// engine serves unverified writes, as before).
    pub fn repair_policy(mut self, policy: RepairPolicy) -> Self {
        self.repair = Some(policy);
        self
    }

    /// Runs the encoding pipeline and constructs the engine.
    ///
    /// # Errors
    ///
    /// Encoding failures ([`crate::error::EncodeError`]) wrapped in
    /// [`FerexError`].
    pub fn build(self) -> Result<Ferex, FerexError> {
        let sizing = self.sizing.unwrap_or_else(|| sizing_for(&self.tech));
        let dm = DistanceMatrix::from_metric(self.metric, self.bits);
        let report = find_minimal_cell(&dm, &sizing)?;
        let mut array =
            FerexArray::new(self.tech.clone(), report.encoding.clone(), self.dim, self.backend);
        if let Some(policy) = self.repair {
            array.set_repair_policy(policy)?;
        }
        Ok(Ferex {
            tech: self.tech,
            metric: self.metric,
            bits: self.bits,
            dm,
            sizing,
            report,
            array,
        })
    }
}

/// Sizing options consistent with a technology card.
pub fn sizing_for(tech: &Technology) -> SizingOptions {
    SizingOptions {
        limits: EncodingLimits {
            max_vth_levels: tech.n_vth_levels,
            max_search_levels: tech.n_vth_levels + 1,
            max_vds_multiple: tech.max_vds_multiple as u32, // lint:allow(cast-truncation/narrowing, reason = "the drive ladder has a handful of multiples, far below u32::MAX")
        },
        ..Default::default()
    }
}

/// Per-search cost report (the Fig. 6 quantities).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostReport {
    /// Delay breakdown of the search.
    pub delay: DelayBreakdown,
    /// Energy breakdown of the search.
    pub energy: EnergyBreakdown,
}

/// The reconfigurable in-memory search engine.
#[derive(Debug, Clone)]
pub struct Ferex {
    tech: Technology,
    metric: DistanceMetric,
    bits: u32,
    dm: DistanceMatrix,
    sizing: SizingOptions,
    report: SizingReport,
    array: FerexArray,
}

impl Ferex {
    /// Starts building an engine.
    pub fn builder() -> FerexBuilder {
        FerexBuilder::default()
    }

    /// The currently configured metric.
    pub fn metric(&self) -> DistanceMetric {
        self.metric
    }

    /// Per-symbol bit width.
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// The active distance matrix.
    pub fn distance_matrix(&self) -> &DistanceMatrix {
        &self.dm
    }

    /// The sizing report (attempt trail + encoding) of the current metric.
    pub fn sizing_report(&self) -> &SizingReport {
        &self.report
    }

    /// The active cell encoding.
    pub fn encoding(&self) -> &CellEncoding {
        &self.report.encoding
    }

    /// The underlying array.
    pub fn array(&self) -> &FerexArray {
        &self.array
    }

    /// Mutable access to the underlying array (e.g. to clear it).
    pub fn array_mut(&mut self) -> &mut FerexArray {
        &mut self.array
    }

    /// Stores one vector.
    ///
    /// # Errors
    ///
    /// Validation errors from the array.
    pub fn store(&mut self, vector: Vec<u32>) -> Result<(), FerexError> {
        self.array.store(vector)
    }

    /// Stores many vectors.
    pub fn store_all<I: IntoIterator<Item = Vec<u32>>>(
        &mut self,
        vectors: I,
    ) -> Result<(), FerexError> {
        self.array.store_all(vectors)
    }

    /// Programs the array's physical state for the current contents
    /// (idempotent; see [`FerexArray::program`]). The engine's search
    /// methods call this themselves — it is exposed so callers can move
    /// the programming cost out of a timed or concurrent section and then
    /// serve queries through [`Ferex::array`]'s `&self` read path.
    pub fn program(&mut self) {
        self.array.program();
    }

    /// Brings the physical state up to date: a plain program without a
    /// repair policy, a verified (write-verify + sparing) program with one.
    /// Idempotent; public so callers holding `&mut` can pay the programming
    /// cost once and then serve through the `&self` batch read paths
    /// ([`Ferex::search_batch`] / [`Ferex::search_k_batch`]) from any
    /// number of threads.
    ///
    /// # Errors
    ///
    /// Verify errors under a strict repair policy.
    pub fn ensure_programmed(&mut self) -> Result<(), FerexError> {
        if self.array.repair_policy().is_some() {
            self.array.program_verified()?;
        } else {
            self.array.program();
        }
        Ok(())
    }

    /// One associative search. Programs the array first if its physical
    /// state is stale (write-verifying it when a repair policy is
    /// installed).
    ///
    /// # Errors
    ///
    /// [`FerexError::Empty`] if nothing is stored; validation errors;
    /// verify errors under a strict repair policy.
    pub fn search(&mut self, query: &[u32]) -> Result<SearchOutcome, FerexError> {
        self.ensure_programmed()?;
        self.array.search(query)
    }

    /// k-nearest rows by iterative LTA masking. Programs the array first
    /// if its physical state is stale.
    ///
    /// # Errors
    ///
    /// As [`Ferex::search`]; [`FerexError::InvalidK`] for an unservable
    /// `k`.
    pub fn search_k(&mut self, query: &[u32], k: usize) -> Result<Vec<usize>, FerexError> {
        self.ensure_programmed()?;
        self.array.search_k(query, k)
    }

    /// Searches a whole batch through the array's batched fast path (see
    /// [`FerexArray::search_batch`]).
    ///
    /// Pure in `&self` — the PR 1 read-path contract: a programmed engine
    /// can serve concurrent batches from many threads sharing one
    /// reference. Unlike [`Ferex::search`], this does *not* lazily program
    /// a stale stochastic backend (that would need `&mut`); callers that
    /// mutate must call [`Ferex::ensure_programmed`] (or
    /// [`Ferex::program`]) first. The ideal backend never needs
    /// programming.
    ///
    /// # Errors
    ///
    /// As [`FerexArray::search_batch`]; in particular
    /// [`FerexError::NotProgrammed`] when a stochastic backend's physical
    /// state is stale.
    pub fn search_batch(&self, queries: &[Vec<u32>]) -> Result<Vec<SearchOutcome>, FerexError> {
        // An empty batch is a no-op: answered before any array state
        // checks, so it never requires programming.
        if queries.is_empty() {
            return Ok(Vec::new());
        }
        self.array.search_batch(queries)
    }

    /// k-nearest rows for a whole batch (see
    /// [`FerexArray::search_k_batch`]). Pure in `&self`, with the same
    /// programmed-array requirement as [`Ferex::search_batch`].
    ///
    /// # Errors
    ///
    /// As [`FerexArray::search_k_batch`].
    pub fn search_k_batch(
        &self,
        queries: &[Vec<u32>],
        k: usize,
    ) -> Result<Vec<Vec<usize>>, FerexError> {
        if queries.is_empty() {
            return Ok(Vec::new());
        }
        self.array.search_k_batch(queries, k)
    }

    /// Installs a self-healing policy on the array (see
    /// [`FerexArray::set_repair_policy`]); the physical state is
    /// invalidated and rebuilt verified on the next search.
    ///
    /// # Errors
    ///
    /// As [`FerexArray::set_repair_policy`].
    pub fn set_repair_policy(&mut self, policy: RepairPolicy) -> Result<(), FerexError> {
        self.array.set_repair_policy(policy)
    }

    /// Programs and write-verifies the array (see
    /// [`FerexArray::program_verified`]).
    ///
    /// # Errors
    ///
    /// As [`FerexArray::program_verified`].
    pub fn program_verified(&mut self) -> Result<ProgramReport, FerexError> {
        self.array.program_verified()
    }

    /// Runs one online self-check pass (see [`FerexArray::scrub`]).
    ///
    /// # Errors
    ///
    /// As [`FerexArray::scrub`].
    pub fn scrub(&mut self) -> Result<ScrubReport, FerexError> {
        self.array.scrub()
    }

    /// Point-in-time health view of the array (see [`FerexArray::health`]).
    pub fn health(&self) -> HealthSnapshot {
        self.array.health()
    }

    /// Switches the array to the online-mutation slot-table discipline
    /// (see [`FerexArray::enable_mutation`]). After this, content changes
    /// go through [`Ferex::insert`] / [`Ferex::update`] /
    /// [`Ferex::delete`] and program only their delta rows.
    ///
    /// # Errors
    ///
    /// As [`FerexArray::enable_mutation`].
    pub fn enable_mutation(&mut self, policy: MutationPolicy) -> Result<(), FerexError> {
        self.array.enable_mutation(policy)
    }

    /// Inserts `(id, vector)`, programming exactly one row (see
    /// [`FerexArray::insert`]).
    ///
    /// # Errors
    ///
    /// As [`FerexArray::insert`].
    pub fn insert(&mut self, id: u64, vector: Vec<u32>) -> Result<(), FerexError> {
        self.array.insert(id, vector)
    }

    /// Replaces the vector of a live `id` (see [`FerexArray::update_id`]).
    ///
    /// # Errors
    ///
    /// As [`FerexArray::update_id`].
    pub fn update(&mut self, id: u64, vector: Vec<u32>) -> Result<(), FerexError> {
        self.array.update_id(id, vector)
    }

    /// Tombstones a live `id` (see [`FerexArray::delete`]).
    ///
    /// # Errors
    ///
    /// As [`FerexArray::delete`].
    pub fn delete(&mut self, id: u64) -> Result<(), FerexError> {
        self.array.delete(id)
    }

    /// Reclaims every tombstoned slot (see [`FerexArray::compact`]).
    pub fn compact(&mut self) -> CompactionReport {
        self.array.compact()
    }

    /// One background maintenance step: auto-compaction plus at most one
    /// wear-leveling rotation (see [`FerexArray::maintenance`]).
    pub fn maintenance(&mut self) -> CompactionReport {
        self.array.maintenance()
    }

    /// The wear distribution across physical slots (see
    /// [`FerexArray::wear`]).
    pub fn wear(&self) -> WearSummary {
        self.array.wear()
    }

    /// Builds a [`ReplicaSet`] of `n` independently seeded copies of this
    /// engine's array, each programmed with the current contents. Replica 0
    /// keeps the engine's backend seed verbatim, so an `n = 1` set with the
    /// default 1/1 quorum serves bit-identically to the engine itself; the
    /// engine's repair policy (if any) is installed and write-verified on
    /// every replica.
    ///
    /// # Errors
    ///
    /// Store-validation or write-verify failures while building a replica;
    /// as [`ReplicaSet::new`] (empty set, invalid policy).
    pub fn replica_set(
        &self,
        n: usize,
        policy: ReplicaPolicy,
    ) -> Result<ReplicaSet<FerexArray>, FerexError> {
        let mut replicas = Vec::with_capacity(n);
        for i in 0..n as u64 {
            let backend = replicate_backend(self.array.backend(), i);
            let mut a = FerexArray::new(
                self.tech.clone(),
                self.report.encoding.clone(),
                self.array.dim(),
                backend,
            );
            if let Some(p) = self.array.repair_policy() {
                a.set_repair_policy(p.clone())?;
            }
            if let Some(mp) = self.array.mutation_policy().copied() {
                // Mutation-enabled engine: rebuild each replica by
                // replaying the live ids in ascending order. Slot choices
                // are pure functions of the op sequence, so every replica
                // converges to the same slot table (not necessarily the
                // engine's own, which reflects its full mutation history —
                // the set is internally consistent, which is what the
                // quorum and the digital fallback over replica 0 need).
                a.enable_mutation(mp)?;
                for id in self.array.live_ids() {
                    let v = self.array.vector_of(id).ok_or(FerexError::UnknownId { id })?;
                    a.insert(id, v)?;
                }
            } else {
                a.copy_rows_from(&self.array)?;
            }
            if self.array.repair_policy().is_some() {
                a.program_verified()?;
            } else {
                a.program();
            }
            replicas.push(a);
        }
        ReplicaSet::new(replicas, self.metric, policy)
    }

    /// Reconfigures the engine to a different distance metric, keeping all
    /// stored vectors. This re-runs the CSP encoding pipeline and marks the
    /// array for re-programming — the paper's headline capability.
    ///
    /// # Errors
    ///
    /// Encoding failures for the new metric; the engine is left unchanged
    /// on error.
    pub fn reconfigure(&mut self, metric: DistanceMetric) -> Result<(), FerexError> {
        let dm = DistanceMatrix::from_metric(metric, self.bits);
        let report = find_minimal_cell(&dm, &self.sizing)?;
        self.array.reconfigure(report.encoding.clone())?;
        self.metric = metric;
        self.dm = dm;
        self.report = report;
        Ok(())
    }

    /// Computes the delay and energy of searching `query` against the
    /// current contents, using the analog cost models on the actual drive
    /// pattern and sensed currents.
    ///
    /// # Errors
    ///
    /// As [`Ferex::search`].
    pub fn cost_report(&mut self, query: &[u32]) -> Result<CostReport, FerexError> {
        self.array.program();
        let distances = self.array.distances(query)?;
        let drives = self.array.drives_for(query)?;
        let rows = self.array.len();
        let i_unit = self.tech.i_unit().value();
        let currents: Vec<Amp> = distances.iter().map(|&d| Amp(d * i_unit)).collect();
        let delay_model = DelayModel::default();
        let energy_model = EnergyModel { delay: delay_model.clone(), ..Default::default() };
        Ok(CostReport {
            delay: delay_model.search_delay(rows, drives.len()),
            energy: energy_model.search_energy(rows, &drives, &currents),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::array::CircuitConfig;

    #[test]
    fn builder_defaults_produce_working_engine() {
        let mut ferex = Ferex::builder().dim(4).build().expect("builds");
        assert_eq!(ferex.metric(), DistanceMetric::Hamming);
        assert_eq!(ferex.bits(), 2);
        assert_eq!(ferex.encoding().k, 3);
        ferex.store(vec![0, 1, 2, 3]).unwrap();
        let r = ferex.search(&[0, 1, 2, 3]).unwrap();
        assert_eq!(r.nearest, 0);
        assert_eq!(r.distances[0], 0.0);
    }

    #[test]
    fn reconfiguration_changes_distance_semantics() {
        let mut ferex = Ferex::builder().dim(2).build().expect("builds");
        ferex.store(vec![0, 0]).unwrap(); // A
        ferex.store(vec![3, 0]).unwrap(); // B
                                          // Query (1, 0): Hamming d(1,0)=1, d(1,3)=1 → tie; Manhattan
                                          // d=1 vs d=2 → A; Euclidean² d=1 vs 4 → A. Use query 2:
                                          // Hamming: d(2,0)=1, d(2,3)=1 (10 vs 11 → 1 bit) tie again.
                                          // Choose query (1,0): check distances directly per metric.
        let q = [1, 0];
        let r = ferex.search(&q).unwrap();
        assert_eq!(r.distances, vec![1.0, 1.0]); // Hamming tie

        ferex.reconfigure(DistanceMetric::Manhattan).unwrap();
        let r = ferex.search(&q).unwrap();
        assert_eq!(r.distances, vec![1.0, 2.0]);
        assert_eq!(r.nearest, 0);

        ferex.reconfigure(DistanceMetric::EuclideanSquared).unwrap();
        let r = ferex.search(&q).unwrap();
        assert_eq!(r.distances, vec![1.0, 4.0]);
        assert_eq!(r.nearest, 0);
    }

    #[test]
    fn reconfigure_failure_leaves_engine_unchanged() {
        let mut ferex = Ferex::builder()
            .dim(2)
            .sizing(SizingOptions { max_k: 3, ..sizing_for(&Technology::default()) })
            .build()
            .expect("hamming fits in k=3");
        ferex.store(vec![0, 3]).unwrap();
        // Euclidean² at 2 bits needs k > 3 — reconfiguration must fail…
        let before_metric = ferex.metric();
        let err = ferex.reconfigure(DistanceMetric::EuclideanSquared);
        assert!(err.is_err());
        // …and the engine still answers Hamming queries.
        assert_eq!(ferex.metric(), before_metric);
        let r = ferex.search(&[0, 3]).unwrap();
        assert_eq!(r.distances[0], 0.0);
    }

    #[test]
    fn cost_report_is_positive_and_consistent() {
        let mut ferex = Ferex::builder().dim(8).build().expect("builds");
        for i in 0..16 {
            ferex.store(vec![i % 4; 8]).unwrap();
        }
        let cost = ferex.cost_report(&[0; 8]).unwrap();
        assert!(cost.delay.total().value() > 0.0);
        assert!(cost.energy.total().value() > 0.0);
        let frac = cost.delay.scl_fraction();
        assert!((0.3..0.9).contains(&frac));
    }

    #[test]
    fn engine_self_heals_with_repair_policy() {
        use ferex_analog::LtaParams;
        use ferex_fefet::{FaultPlan, VariationModel};
        let cfg = CircuitConfig {
            variation: VariationModel::none(),
            lta: LtaParams::ideal(),
            faults: FaultPlan { sa1_rate: 0.05, ..Default::default() },
            seed: 21,
            ..Default::default()
        };
        let mut ferex = Ferex::builder()
            .dim(4)
            .backend(Backend::Noisy(Box::new(cfg)))
            .repair_policy(RepairPolicy { spare_rows: 16, ..Default::default() })
            .build()
            .expect("builds");
        for r in 0..6u32 {
            ferex.store((0..4).map(|d| (r + d) % 4).collect()).unwrap();
        }
        // Searching heals transparently: the verified program runs first.
        let out = ferex.search(&[0, 1, 2, 3]).unwrap();
        assert_eq!(out.nearest, 0);
        let report = ferex.array().program_report().expect("search verified the write");
        assert!(!report.rows_remapped.is_empty(), "seed 21 faults rows");
        let h = ferex.health();
        assert_eq!(h.spares_in_use, report.rows_remapped.len());
        assert!(h.counters.rows_quarantined > 0);
        // A scrub on the healed array stays silent.
        let scrub = ferex.scrub().unwrap();
        assert!(scrub.findings.is_empty(), "healed array flagged: {:?}", scrub.findings);
    }

    #[test]
    fn empty_batches_answer_without_programming() {
        // A stochastic backend, so `is_programmed` can observe staleness
        // (the Ideal backend has no physical state to program).
        let mut ferex = Ferex::builder()
            .dim(4)
            .backend(Backend::Noisy(Box::default()))
            .build()
            .expect("builds");
        ferex.store(vec![0, 1, 2, 3]).unwrap();
        // A zero-query batch is a no-op: Ok(vec![]) without touching the
        // physical state (no program, no LUT build).
        assert_eq!(ferex.search_batch(&[]).unwrap(), Vec::new());
        assert_eq!(ferex.search_k_batch(&[], 1).unwrap(), Vec::<Vec<usize>>::new());
        assert!(!ferex.array().is_programmed(), "empty batch must not program the array");
        // Same contract on a completely empty engine.
        let blank = Ferex::builder().dim(4).build().expect("builds");
        assert_eq!(blank.search_batch(&[]).unwrap(), Vec::new());
    }

    #[test]
    fn circuit_backend_through_engine() {
        let cfg = CircuitConfig::default();
        let mut ferex = Ferex::builder()
            .dim(16)
            .backend(Backend::Circuit(Box::new(cfg)))
            .build()
            .expect("builds");
        ferex.store(vec![0; 16]).unwrap();
        ferex.store(vec![3; 16]).unwrap();
        // Query matching row 0 exactly: variation cannot flip a 32-unit gap.
        let r = ferex.search(&[0; 16]).unwrap();
        assert_eq!(r.nearest, 0);
    }
}
