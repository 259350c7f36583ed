//! Sweep generators: data, arrays, and recall-degradation campaigns.
//!
//! Everything here is seed-deterministic: the stored matrix, the query set,
//! each trial's backend configuration, and the fault maps all derive from
//! one base seed through domain-separated SplitMix64 mixes, so a report
//! regenerated from the same seed is byte-identical.
//!
//! Degradation sweeps run at the *fault-isolation corner* — zero
//! device-to-device variation and an ideal LTA — so recall@1 is exactly 1.0
//! at rate 0 and every drop below it is attributable to the injected
//! faults alone.

use crate::oracle::Oracle;
use crate::report::{
    ConformanceReport, CurvePoint, DegradationCurve, RecoveryCurve, RecoveryPoint, RecoveryReport,
};
use ferex_analog::lta::LtaParams;
use ferex_core::{
    find_minimal_cell, sizing_for, Backend, CellEncoding, CircuitConfig, DistanceMetric,
    FerexArray, FerexError, RepairPolicy,
};
use ferex_fefet::math::splitmix64;
use ferex_fefet::{FaultPlan, Technology, VariationModel};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Domain-separation salt for conformance data/trial seed derivation.
const CONFORMANCE_STREAM_SALT: u64 = 0xC0F0_44CE_5EED_7A11;

/// Which simulation backend a sweep exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendKind {
    /// Exact functional model.
    Ideal,
    /// Statistical per-cell model.
    Noisy,
    /// Device-level crossbar model.
    Circuit,
}

impl BackendKind {
    /// The two stochastic backends fault sweeps cover.
    pub const STOCHASTIC: [BackendKind; 2] = [BackendKind::Noisy, BackendKind::Circuit];

    /// Report label.
    pub fn label(&self) -> &'static str {
        match self {
            BackendKind::Ideal => "ideal",
            BackendKind::Noisy => "noisy",
            BackendKind::Circuit => "circuit",
        }
    }

    /// Materializes the backend from a circuit configuration (ignored for
    /// `Ideal`).
    pub fn backend(&self, cfg: CircuitConfig) -> Backend {
        match self {
            BackendKind::Ideal => Backend::Ideal,
            BackendKind::Noisy => Backend::Noisy(Box::new(cfg)),
            BackendKind::Circuit => Backend::Circuit(Box::new(cfg)),
        }
    }

    /// An empty array of this backend at the fault-isolation corner: zero
    /// device-to-device variation and an ideal LTA, so recall is exact
    /// without `faults` and any loss is the faults' (or the serving
    /// ladder's) doing.
    pub(crate) fn corner_array(
        &self,
        encoding: &CellEncoding,
        dim: usize,
        faults: FaultPlan,
        seed: u64,
    ) -> FerexArray {
        let cfg = CircuitConfig {
            variation: VariationModel::none(),
            lta: LtaParams::ideal(),
            faults,
            seed,
            ..Default::default()
        };
        FerexArray::new(Technology::default(), encoding.clone(), dim, self.backend(cfg))
    }
}

/// Which single fault class a sweep scales the rate of.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Stuck-at-lowest-threshold cells.
    Sa0,
    /// Stuck-at-highest-threshold (erased) cells.
    Sa1,
    /// Open series resistors.
    Open,
    /// Shorted series resistors.
    Short,
}

impl FaultKind {
    /// Every hard-fault class, in report order.
    pub const ALL: [FaultKind; 4] =
        [FaultKind::Sa0, FaultKind::Sa1, FaultKind::Open, FaultKind::Short];

    /// Report label (matches [`ferex_fefet::CellFault::label`]).
    pub fn label(&self) -> &'static str {
        match self {
            FaultKind::Sa0 => "sa0",
            FaultKind::Sa1 => "sa1",
            FaultKind::Open => "open",
            FaultKind::Short => "short",
        }
    }

    /// A plan injecting only this fault class at `rate`.
    pub fn plan(&self, rate: f64) -> FaultPlan {
        let mut plan = FaultPlan::none();
        match self {
            FaultKind::Sa0 => plan.sa0_rate = rate,
            FaultKind::Sa1 => plan.sa1_rate = rate,
            FaultKind::Open => plan.open_rate = rate,
            FaultKind::Short => plan.short_rate = rate,
        }
        plan
    }
}

/// Metric label used in reports.
pub fn metric_label(metric: DistanceMetric) -> &'static str {
    match metric {
        DistanceMetric::Hamming => "hamming",
        DistanceMetric::Manhattan => "manhattan",
        DistanceMetric::EuclideanSquared => "euclidean2",
    }
}

/// Runs the CSP sizing pipeline for `(metric, bits)` under the default
/// technology and returns the derived encoding.
///
/// # Errors
///
/// Encoding-pipeline failures.
pub fn encoding_for(metric: DistanceMetric, bits: u32) -> Result<CellEncoding, FerexError> {
    let dm = ferex_core::DistanceMatrix::from_metric(metric, bits);
    let tech = Technology::default();
    Ok(find_minimal_cell(&dm, &sizing_for(&tech))?.encoding)
}

/// Deterministic symbol matrix: `n` vectors of `dim` uniform `bits`-bit
/// symbols.
pub fn gen_vectors(n: usize, dim: usize, bits: u32, rng: &mut StdRng) -> Vec<Vec<u32>> {
    let n_symbols = 1u32 << bits;
    (0..n).map(|_| (0..dim).map(|_| rng.gen_range(0..n_symbols)).collect()).collect()
}

/// Deterministic query set whose fault-free oracle nearest is *uniquely*
/// minimal (rejection sampling). Integer distances make the runner-up gap
/// at least one full current unit, so neither the device solver's small
/// analog error nor the tie policy can blur the fault-free anchor point of
/// a degradation curve — any recall loss is the injected faults' doing.
pub fn gen_unambiguous_queries(
    oracle: &Oracle,
    n: usize,
    dim: usize,
    bits: u32,
    rng: &mut StdRng,
) -> Vec<Vec<u32>> {
    let mut out = Vec::with_capacity(n);
    let mut budget = 10_000usize;
    while out.len() < n {
        assert!(budget > 0, "query rejection sampling exhausted — matrix too degenerate");
        budget -= 1;
        let Some(q) = gen_vectors(1, dim, bits, rng).pop() else { continue };
        let d = oracle.distances(&q);
        if d.iter().min().is_some_and(|min| d.iter().filter(|&x| x == min).count() == 1) {
            out.push(q);
        }
    }
    out
}

/// One cell of the sweep matrix: a (metric × backend × fault) recall curve
/// over rising fault rates.
#[derive(Debug, Clone)]
pub struct SweepSpec {
    /// Distance metric under test.
    pub metric: DistanceMetric,
    /// Stochastic backend under test.
    pub backend: BackendKind,
    /// Fault class whose rate is swept.
    pub fault: FaultKind,
    /// Symbol bit width.
    pub bits: u32,
    /// Symbols per vector.
    pub dim: usize,
    /// Stored rows per trial array.
    pub rows: usize,
    /// Queries per trial.
    pub n_queries: usize,
    /// Independent arrays (distinct seeds and fault maps) per rate point.
    pub trials: u64,
    /// The `k` of recall@k.
    pub k: usize,
    /// Fault rates, ascending; should start at 0.0 for the fault-free
    /// anchor point.
    pub rates: Vec<f64>,
    /// Base seed everything derives from.
    pub seed: u64,
}

/// A sweep's seeded inputs: the sized encoding, the stored rows, the
/// unambiguous queries and each query's fault-free oracle nearest row.
pub(crate) struct SweepData {
    encoding: CellEncoding,
    stored: Vec<Vec<u32>>,
    pub(crate) queries: Vec<Vec<u32>>,
    pub(crate) expected: Vec<usize>,
}

impl SweepSpec {
    /// Mixes the spec's coordinates into a sub-seed for `purpose`-indexed
    /// streams, keeping data, trials and faults decorrelated.
    pub(crate) fn derived_seed(&self, purpose: u64) -> u64 {
        let mut s = splitmix64(self.seed ^ CONFORMANCE_STREAM_SALT);
        for word in
            [self.metric as u64, self.backend as u64, self.fault as u64, self.bits as u64, purpose]
        {
            s = splitmix64(s ^ splitmix64(word));
        }
        s
    }

    /// Derives the spec's data from purpose 0 of its seed stream: every
    /// trial, recovery leg and chaos replica serves these rows and queries.
    ///
    /// # Errors
    ///
    /// Encoding-pipeline failures.
    ///
    /// # Panics
    ///
    /// Panics on malformed specs (no rates, no queries, no trials, `k` out
    /// of range): without queries or trials every recall would be 0/0.
    pub(crate) fn data(&self) -> Result<SweepData, FerexError> {
        assert!(!self.rates.is_empty(), "sweep needs at least one rate");
        assert!(self.n_queries >= 1, "sweep needs at least one query");
        assert!(self.trials >= 1, "sweep needs at least one trial");
        assert!(self.k >= 1 && self.k <= self.rows, "k = {} out of range", self.k);
        let encoding = encoding_for(self.metric, self.bits)?;
        let mut data_rng = StdRng::seed_from_u64(self.derived_seed(0));
        let stored = gen_vectors(self.rows, self.dim, self.bits, &mut data_rng);
        let oracle = Oracle::new(self.metric, stored.clone());
        let queries =
            gen_unambiguous_queries(&oracle, self.n_queries, self.dim, self.bits, &mut data_rng);
        let expected = queries.iter().map(|q| oracle.nearest(q)).collect();
        Ok(SweepData { encoding, stored, queries, expected })
    }

    /// One trial array: the spec's backend at the fault-isolation corner
    /// with `faults` and `seed`, holding the data's rows, not programmed.
    pub(crate) fn trial_array(
        &self,
        data: &SweepData,
        faults: FaultPlan,
        seed: u64,
    ) -> Result<FerexArray, FerexError> {
        let mut array = self.backend.corner_array(&data.encoding, self.dim, faults, seed);
        array.store_all(data.stored.iter().cloned())?;
        Ok(array)
    }

    /// Trial `trial` at `rate`: its array, programmed without repair, and
    /// its recall hits.
    fn trial(&self, data: &SweepData, rate: f64, trial: u64) -> Result<(usize, usize), FerexError> {
        let mut array =
            self.trial_array(data, self.fault.plan(rate), self.derived_seed(1 + trial))?;
        array.program();
        recall_hits(&array, data, self.k)
    }
}

/// A programmed array's recall hits over the data's queries: `(hits@1,
/// hits@k)`, the queries whose oracle nearest row is the served nearest
/// row and those whose oracle nearest row is among the `k` served rows.
/// Reads an array cannot serve score misses: all of them with no active
/// row, and every recall@k read with fewer than `k` (a repaired array past
/// its spares).
fn recall_hits(
    array: &FerexArray,
    data: &SweepData,
    k: usize,
) -> Result<(usize, usize), FerexError> {
    let active = array.health().rows_active;
    let qids: Vec<u64> = (0..data.queries.len() as u64).collect();
    let top1 = if active >= 1 { array.search_batch_at(&data.queries, &qids)? } else { Vec::new() };
    let topk =
        if active >= k { array.search_k_batch_at(&data.queries, k, &qids)? } else { Vec::new() };
    Ok((
        top1.iter().zip(&data.expected).filter(|(o, want)| o.nearest == **want).count(),
        topk.iter().zip(&data.expected).filter(|(top, want)| top.contains(want)).count(),
    ))
}

/// Runs one degradation sweep: for each rate, average recall@1 / recall@k
/// over `trials` independently seeded arrays serving the same stored data
/// and query set through the real batched device paths.
///
/// # Panics
///
/// Panics on malformed specs (no rates, no queries, no trials, `k` out of
/// range) and on any backend error — conformance data is generated
/// in-range by construction, so an error here is itself a conformance
/// failure. Without queries or trials every recall would be 0/0.
pub fn run_sweep(spec: &SweepSpec) -> DegradationCurve {
    let data = spec.data().expect("sizing must succeed");
    let n = (spec.trials as usize * spec.n_queries) as f64;
    let points = spec
        .rates
        .iter()
        .map(|&rate| {
            let (mut hit1, mut hitk) = (0, 0);
            for trial in 0..spec.trials {
                let (h1, hk) = spec.trial(&data, rate, trial).expect("in-range by construction");
                (hit1, hitk) = (hit1 + h1, hitk + hk);
            }
            CurvePoint { rate, recall_at_1: hit1 as f64 / n, recall_at_k: hitk as f64 / n }
        })
        .collect();
    DegradationCurve {
        metric: metric_label(spec.metric).to_string(),
        backend: spec.backend.label().to_string(),
        fault: spec.fault.label().to_string(),
        rows: spec.rows,
        dim: spec.dim,
        n_queries: spec.n_queries,
        trials: spec.trials,
        k: spec.k,
        points,
    }
}

/// One standard sweep cell, `k` = 3 at 2 bits: the `Noisy` backend runs at
/// application-ish scale; the device-level `Circuit` backend runs a
/// reduced but structurally identical cell (every cell is a full
/// bisection-solved device, so its arrays are kept small).
fn standard_cell(
    metric: DistanceMetric,
    backend: BackendKind,
    fault: FaultKind,
    rates: Vec<f64>,
    seed: u64,
) -> SweepSpec {
    let (dim, rows, n_queries, trials) =
        if backend == BackendKind::Circuit { (6, 8, 10, 2) } else { (12, 16, 24, 3) };
    SweepSpec { metric, backend, fault, bits: 2, dim, rows, n_queries, trials, k: 3, rates, seed }
}

/// The fixed sweep matrix behind the standard report: every metric × both
/// stochastic backends × all four hard-fault classes. The `Noisy` cells run
/// at application-ish scale; the device-level `Circuit` cells are reduced
/// but structurally identical.
pub fn standard_specs(seed: u64) -> Vec<SweepSpec> {
    let mut specs = Vec::new();
    for metric in DistanceMetric::ALL {
        for backend in BackendKind::STOCHASTIC {
            let rates = match backend {
                BackendKind::Circuit => vec![0.0, 0.05, 0.15, 0.3],
                _ => vec![0.0, 0.02, 0.05, 0.1, 0.2, 0.4],
            };
            for fault in FaultKind::ALL {
                specs.push(standard_cell(metric, backend, fault, rates.clone(), seed));
            }
        }
    }
    specs
}

/// Generates the standard machine-readable conformance report from one
/// seed. Deterministic: same seed, byte-identical report.
pub fn standard_report(seed: u64) -> ConformanceReport {
    ConformanceReport {
        seed,
        bits: 2,
        curves: standard_specs(seed).iter().map(run_sweep).collect(),
    }
}

/// Runs one recall-recovery sweep: at every rate, each trial is measured
/// twice — once as the [`run_sweep`] trial itself (repair disabled, so the
/// faulted leg reproduces the degradation baseline byte-for-byte), and
/// once on an array of the same data and fault map with `policy`
/// installed, so write-verify, quarantine and row sparing run before
/// serving.
///
/// # Panics
///
/// Panics on malformed specs (no rates, no queries, no trials, `k` out of
/// range) and on any backend error, like [`run_sweep`].
pub fn run_recovery(spec: &SweepSpec, policy: &RepairPolicy) -> RecoveryCurve {
    let data = spec.data().expect("sizing must succeed");
    let n = (spec.trials as usize * spec.n_queries) as f64;
    let mut points = Vec::with_capacity(spec.rates.len());
    for &rate in &spec.rates {
        let (mut faulted, mut healed) = ((0, 0), (0, 0));
        let (mut quarantined, mut remapped, mut excluded) = (0, 0, 0);
        for trial in 0..spec.trials {
            let legs = || -> Result<_, FerexError> {
                let faulted = spec.trial(&data, rate, trial)?;
                let mut array =
                    spec.trial_array(&data, spec.fault.plan(rate), spec.derived_seed(1 + trial))?;
                array.set_repair_policy(policy.clone())?;
                let report = array.program_verified()?;
                Ok((faulted, recall_hits(&array, &data, spec.k)?, report))
            };
            let (f, h, report) = legs().expect("in-range data, valid policy, bounded verify");
            faulted = (faulted.0 + f.0, faulted.1 + f.1);
            healed = (healed.0 + h.0, healed.1 + h.1);
            quarantined += report.rows_quarantined.len();
            remapped += report.rows_remapped.len();
            excluded += report.rows_excluded.len();
        }
        points.push(RecoveryPoint {
            rate,
            recall_faulted_1: faulted.0 as f64 / n,
            recall_faulted_k: faulted.1 as f64 / n,
            recall_healed_1: healed.0 as f64 / n,
            recall_healed_k: healed.1 as f64 / n,
            rows_quarantined: quarantined,
            rows_remapped: remapped,
            rows_excluded: excluded,
        });
    }
    RecoveryCurve {
        metric: metric_label(spec.metric).to_string(),
        backend: spec.backend.label().to_string(),
        fault: spec.fault.label().to_string(),
        rows: spec.rows,
        spare_rows: policy.spare_rows,
        dim: spec.dim,
        n_queries: spec.n_queries,
        trials: spec.trials,
        k: spec.k,
        points,
    }
}

/// The sweep matrix behind the standard recovery report: the standard
/// report's cells for the stuck-at fault classes, at low rates where a
/// 2×-rows spare pool is expected to absorb every quarantined row.
pub fn standard_recovery_specs(seed: u64) -> Vec<(SweepSpec, RepairPolicy)> {
    let mut specs = Vec::new();
    for metric in DistanceMetric::ALL {
        for backend in BackendKind::STOCHASTIC {
            for fault in [FaultKind::Sa0, FaultKind::Sa1] {
                let spec = standard_cell(metric, backend, fault, vec![0.01, 0.02, 0.05], seed);
                let spare_rows = 2 * spec.rows;
                specs.push((
                    spec,
                    RepairPolicy { spare_rows, sentinel_rows: 1, ..Default::default() },
                ));
            }
        }
    }
    specs
}

/// Generates the standard machine-readable recall-recovery report from one
/// seed. Deterministic: same seed, byte-identical report.
pub fn standard_recovery_report(seed: u64) -> RecoveryReport {
    RecoveryReport {
        seed,
        bits: 2,
        curves: standard_recovery_specs(seed).iter().map(|(s, p)| run_recovery(s, p)).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_vectors_are_in_range_and_deterministic() {
        let mut rng = StdRng::seed_from_u64(7);
        let v = gen_vectors(20, 9, 3, &mut rng);
        assert_eq!(v.len(), 20);
        assert!(v.iter().all(|r| r.len() == 9 && r.iter().all(|&s| s < 8)));
        let mut rng2 = StdRng::seed_from_u64(7);
        assert_eq!(v, gen_vectors(20, 9, 3, &mut rng2));
    }

    #[test]
    fn fault_kind_plans_scale_exactly_one_rate() {
        for fault in FaultKind::ALL {
            let plan = fault.plan(0.25);
            assert!(plan.has_hard_faults());
            let total = plan.sa0_rate + plan.sa1_rate + plan.open_rate + plan.short_rate;
            assert_eq!(total, 0.25, "{fault:?} must set exactly one rate");
            assert!(fault.plan(0.0).is_benign());
        }
    }

    #[test]
    fn standard_matrix_covers_metrics_backends_and_faults() {
        let specs = standard_specs(1);
        assert_eq!(specs.len(), 3 * 2 * 4);
        for metric in DistanceMetric::ALL {
            for backend in BackendKind::STOCHASTIC {
                let n = specs.iter().filter(|s| s.metric == metric && s.backend == backend).count();
                assert_eq!(n, FaultKind::ALL.len(), "{metric} × {backend:?}");
            }
        }
        // Every sweep anchors at the fault-free point.
        assert!(specs.iter().all(|s| s.rates[0] == 0.0));
    }

    fn small_spec() -> SweepSpec {
        SweepSpec {
            metric: DistanceMetric::Hamming,
            backend: BackendKind::Noisy,
            fault: FaultKind::Sa0,
            bits: 2,
            dim: 8,
            rows: 10,
            n_queries: 12,
            trials: 2,
            k: 2,
            rates: vec![0.05, 0.2],
            seed: 17,
        }
    }

    #[test]
    fn recovery_baseline_leg_matches_degradation_sweep() {
        // The no-repair leg of run_recovery must reproduce run_sweep's
        // recall numbers exactly: same data, same trial seeds, same fault
        // maps, same batched serving paths.
        let spec = small_spec();
        let policy = RepairPolicy { spare_rows: 20, sentinel_rows: 1, ..Default::default() };
        let degradation = run_sweep(&spec);
        let recovery = run_recovery(&spec, &policy);
        assert_eq!(recovery.spare_rows, 20);
        for (d, r) in degradation.points.iter().zip(&recovery.points) {
            assert_eq!(d.rate, r.rate);
            assert_eq!(d.recall_at_1, r.recall_faulted_1, "baseline recall@1 diverged");
            assert_eq!(d.recall_at_k, r.recall_faulted_k, "baseline recall@k diverged");
            assert_eq!(r.rows_quarantined, r.rows_remapped + r.rows_excluded);
        }
        // Determinism: a second run is identical.
        assert_eq!(recovery, run_recovery(&spec, &policy));
    }

    #[test]
    fn standard_recovery_matrix_is_stuck_at_only_and_low_rate() {
        let specs = standard_recovery_specs(3);
        assert_eq!(specs.len(), 3 * 2 * 2);
        for (spec, policy) in &specs {
            assert!(matches!(spec.fault, FaultKind::Sa0 | FaultKind::Sa1));
            assert!(spec.rates.iter().all(|&r| r > 0.0 && r <= 0.05));
            assert_eq!(policy.spare_rows, 2 * spec.rows);
            assert_eq!(policy.sentinel_rows, 1);
        }
    }

    #[test]
    fn zero_rate_sweep_has_perfect_recall() {
        // At the fault-isolation corner with a benign plan, the stochastic
        // backends are exact — recall must be 1.0, the oracle anchor.
        let spec = SweepSpec {
            metric: DistanceMetric::Manhattan,
            backend: BackendKind::Noisy,
            fault: FaultKind::Sa1,
            bits: 2,
            dim: 8,
            rows: 10,
            n_queries: 12,
            trials: 2,
            k: 2,
            rates: vec![0.0],
            seed: 11,
        };
        let curve = run_sweep(&spec);
        assert_eq!(curve.points[0].recall_at_1, 1.0);
        assert_eq!(curve.points[0].recall_at_k, 1.0);
    }

    // An empty sweep would report recall 0/0 = NaN, and the report writer
    // would then panic far from the cause.
    #[test]
    #[should_panic(expected = "sweep needs at least one query")]
    fn sweep_without_queries_is_malformed() {
        run_sweep(&SweepSpec { n_queries: 0, ..small_spec() });
    }

    #[test]
    #[should_panic(expected = "sweep needs at least one trial")]
    fn sweep_without_trials_is_malformed() {
        run_sweep(&SweepSpec { trials: 0, ..small_spec() });
    }

    #[test]
    #[should_panic(expected = "sweep needs at least one query")]
    fn recovery_without_queries_is_malformed() {
        run_recovery(&SweepSpec { n_queries: 0, ..small_spec() }, &RepairPolicy::default());
    }

    #[test]
    #[should_panic(expected = "sweep needs at least one trial")]
    fn recovery_without_trials_is_malformed() {
        run_recovery(&SweepSpec { trials: 0, ..small_spec() }, &RepairPolicy::default());
    }
}
