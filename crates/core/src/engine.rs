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
use crate::health::RepairPolicy;
use crate::mutate::MutationPolicy;
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
/// ferex.array_mut().store(vec![0, 1, 2, 3, 3, 2, 1, 0])?;
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
    /// [`FerexError::InvalidPolicy`] when `bits` is outside `1..=6` or
    /// `dim` is zero; encoding failures ([`crate::error::EncodeError`])
    /// wrapped in [`FerexError`].
    pub fn build(self) -> Result<Ferex, FerexError> {
        if !(1..=6).contains(&self.bits) {
            return Err(FerexError::InvalidPolicy { what: "bits must be in 1..=6" });
        }
        if self.dim == 0 {
            return Err(FerexError::InvalidPolicy { what: "vector dimension must be positive" });
        }
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
            next_qid: 0,
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
    /// The query id [`Ferex::search`] or [`Ferex::search_k`] senses with
    /// next: each call takes one, in call order, even when its read fails.
    next_qid: u64,
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

    /// Mutable access to the underlying array: storing, programming,
    /// repair, scrubbing and mutation are the array's own operations.
    pub fn array_mut(&mut self) -> &mut FerexArray {
        &mut self.array
    }

    /// Stores many vectors ([`FerexArray::store_all`]). Like
    /// [`Ferex::enable_mutation`] and [`Ferex::insert`], this forwarder
    /// stays only because the `serve_e2e` benchmark calls it.
    pub fn store_all<I: IntoIterator<Item = Vec<u32>>>(
        &mut self,
        vectors: I,
    ) -> Result<(), FerexError> {
        self.array.store_all(vectors)
    }

    /// Brings the physical state up to date: a plain program without a
    /// repair policy, a verified (write-verify + sparing) program with one.
    /// Idempotent; public so callers holding `&mut` can pay the programming
    /// cost once and then serve through the array's `&self` batch reads
    /// ([`FerexArray::search_batch_at`] / [`FerexArray::search_k_batch_at`])
    /// from any number of threads.
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
    /// installed), then senses with the engine's next query id.
    ///
    /// # Errors
    ///
    /// [`FerexError::Empty`] if nothing is stored; validation errors;
    /// verify errors under a strict repair policy.
    pub fn search(&mut self, query: &[u32]) -> Result<SearchOutcome, FerexError> {
        self.ensure_programmed()?;
        let qid = self.next_qid;
        self.next_qid = qid.wrapping_add(1);
        self.array.search_batch_at(&[query.to_vec()], &[qid])?.pop().ok_or(FerexError::Empty)
    }

    /// k-nearest rows by iterative LTA masking. Programs the array first
    /// if its physical state is stale, then senses with the engine's next
    /// query id.
    ///
    /// # Errors
    ///
    /// As [`Ferex::search`]; [`FerexError::InvalidK`] for an unservable
    /// `k`.
    pub fn search_k(&mut self, query: &[u32], k: usize) -> Result<Vec<usize>, FerexError> {
        self.ensure_programmed()?;
        let qid = self.next_qid;
        self.next_qid = qid.wrapping_add(1);
        self.array.search_k_batch_at(&[query.to_vec()], k, &[qid])?.pop().ok_or(FerexError::Empty)
    }

    /// Switches the array to the online-mutation slot-table discipline
    /// ([`FerexArray::enable_mutation`]); kept for the `serve_e2e`
    /// benchmark, as [`Ferex::store_all`] is.
    ///
    /// # Errors
    ///
    /// As [`FerexArray::enable_mutation`].
    pub fn enable_mutation(&mut self, policy: MutationPolicy) -> Result<(), FerexError> {
        self.array.enable_mutation(policy)
    }

    /// Inserts `(id, vector)`, programming exactly one row
    /// ([`FerexArray::insert`]); kept for the `serve_e2e` benchmark, as
    /// [`Ferex::store_all`] is.
    ///
    /// # Errors
    ///
    /// As [`FerexArray::insert`].
    pub fn insert(&mut self, id: u64, vector: Vec<u32>) -> Result<(), FerexError> {
        self.array.insert(id, vector)
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
    pub fn replica_set(&self, n: usize, policy: ReplicaPolicy) -> Result<ReplicaSet, FerexError> {
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
        let distances = self.array.distances_batch(&[query.to_vec()])?;
        let drives = self.array.drives_for(query)?;
        let rows = self.array.len();
        let i_unit = self.tech.i_unit().value();
        let currents: Vec<Amp> = distances.iter().flatten().map(|&d| Amp(d * i_unit)).collect();
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
        ferex.array_mut().store(vec![0, 1, 2, 3]).unwrap();
        let r = ferex.search(&[0, 1, 2, 3]).unwrap();
        assert_eq!(r.nearest, 0);
        assert_eq!(r.distances[0], 0.0);
    }

    #[test]
    fn out_of_range_bits_and_zero_dim_are_typed_build_errors() {
        let invalid = |what| Err(FerexError::InvalidPolicy { what });
        let build = |b: FerexBuilder| b.build().map(|_| ());
        assert_eq!(build(Ferex::builder().bits(0)), invalid("bits must be in 1..=6"));
        assert_eq!(build(Ferex::builder().bits(7)), invalid("bits must be in 1..=6"));
        assert_eq!(build(Ferex::builder().dim(0)), invalid("vector dimension must be positive"));
    }

    #[test]
    fn reconfiguration_changes_distance_semantics() {
        let mut ferex = Ferex::builder().dim(2).build().expect("builds");
        ferex.array_mut().store(vec![0, 0]).unwrap(); // A
        ferex.array_mut().store(vec![3, 0]).unwrap(); // B
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
        ferex.array_mut().store(vec![0, 3]).unwrap();
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
            ferex.array_mut().store(vec![i % 4; 8]).unwrap();
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
            ferex.array_mut().store((0..4).map(|d| (r + d) % 4).collect()).unwrap();
        }
        // Searching heals transparently: the verified program runs first.
        let out = ferex.search(&[0, 1, 2, 3]).unwrap();
        assert_eq!(out.nearest, 0);
        let report = ferex.array().program_report().expect("search verified the write");
        assert!(!report.rows_remapped.is_empty(), "seed 21 faults rows");
        let h = ferex.array().health();
        assert_eq!(h.spares_in_use, report.rows_remapped.len());
        assert!(h.counters.rows_quarantined > 0);
        // A scrub on the healed array stays silent.
        let scrub = ferex.array_mut().scrub().unwrap();
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
        ferex.array_mut().store(vec![0, 1, 2, 3]).unwrap();
        // A zero-query batch is a no-op: Ok(vec![]) without touching the
        // physical state (no program, no LUT build).
        assert_eq!(ferex.array().search_batch_at(&[], &[]).unwrap(), Vec::new());
        assert_eq!(ferex.array().search_k_batch_at(&[], 1, &[]).unwrap(), Vec::<Vec<usize>>::new());
        assert!(!ferex.array().is_programmed(), "empty batch must not program the array");
        // Same contract on a completely empty engine.
        let blank = Ferex::builder().dim(4).build().expect("builds");
        assert_eq!(blank.array().search_batch_at(&[], &[]).unwrap(), Vec::new());
    }

    #[test]
    fn engine_searches_take_query_ids_in_call_order() {
        // Noisy with the default LTA offset and two rows tied at distance
        // 1, so the answer depends on the id the query is sensed with.
        let mut ferex = Ferex::builder()
            .dim(4)
            .backend(Backend::Noisy(Box::default()))
            .build()
            .expect("builds");
        ferex.store_all([vec![0, 1, 1, 1], vec![0, 0, 1, 0], vec![1, 1, 0, 0]]).unwrap();
        let q = vec![0, 1, 1, 0];
        // Calls in order, one id each: search (id 0), search_k (1), search
        // (2), a failing search_k (3, still used up), then searches and one
        // more search_k (6).
        let mut top1 = vec![ferex.search(&q).unwrap()];
        let mut topk = vec![ferex.search_k(&q, 2).unwrap()];
        top1.push(ferex.search(&q).unwrap());
        assert_eq!(ferex.search_k(&q, 9), Err(FerexError::InvalidK { k: 9, rows: 3 }));
        top1.extend((0..2).map(|_| ferex.search(&q).unwrap()));
        topk.push(ferex.search_k(&q, 2).unwrap());
        top1.extend((0..3).map(|_| ferex.search(&q).unwrap()));
        let array = ferex.array();
        let ids = [0, 2, 4, 5, 7, 8, 9];
        assert_eq!(top1, array.search_batch_at(&vec![q.clone(); ids.len()], &ids).unwrap());
        assert_eq!(topk, array.search_k_batch_at(&vec![q.clone(); 2], 2, &[1, 6]).unwrap());
        let by_id = array.search_batch_at(&vec![q; 64], &(0..64).collect::<Vec<u64>>()).unwrap();
        assert!(by_id.iter().any(|o| o.nearest != by_id[0].nearest), "the id must matter");
    }

    #[test]
    fn circuit_backend_through_engine() {
        let cfg = CircuitConfig::default();
        let mut ferex = Ferex::builder()
            .dim(16)
            .backend(Backend::Circuit(Box::new(cfg)))
            .build()
            .expect("builds");
        ferex.array_mut().store(vec![0; 16]).unwrap();
        ferex.array_mut().store(vec![3; 16]).unwrap();
        // Query matching row 0 exactly: variation cannot flip a 32-unit gap.
        let r = ferex.search(&[0; 16]).unwrap();
        assert_eq!(r.nearest, 0);
    }
}
