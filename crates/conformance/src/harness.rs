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
        let q = gen_vectors(1, dim, bits, rng).pop().expect("one vector");
        let d = oracle.distances(&q);
        let min = *d.iter().min().expect("non-empty");
        if d.iter().filter(|&&x| x == min).count() == 1 {
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
    assert!(!spec.rates.is_empty(), "sweep needs at least one rate");
    assert!(spec.n_queries >= 1, "sweep needs at least one query");
    assert!(spec.trials >= 1, "sweep needs at least one trial");
    assert!(spec.k >= 1 && spec.k <= spec.rows, "k = {} out of range", spec.k);
    let encoding = encoding_for(spec.metric, spec.bits).expect("sizing must succeed");
    let mut data_rng = StdRng::seed_from_u64(spec.derived_seed(0));
    let stored = gen_vectors(spec.rows, spec.dim, spec.bits, &mut data_rng);
    let oracle = Oracle::new(spec.metric, stored.clone());
    let queries =
        gen_unambiguous_queries(&oracle, spec.n_queries, spec.dim, spec.bits, &mut data_rng);
    let expected: Vec<usize> = queries.iter().map(|q| oracle.nearest(q)).collect();

    let mut points = Vec::with_capacity(spec.rates.len());
    for &rate in &spec.rates {
        let mut hit1 = 0usize;
        let mut hitk = 0usize;
        for trial in 0..spec.trials {
            let cfg = CircuitConfig {
                variation: VariationModel::none(),
                lta: LtaParams::ideal(),
                faults: spec.fault.plan(rate),
                seed: spec.derived_seed(1 + trial),
                ..Default::default()
            };
            let mut array = FerexArray::new(
                Technology::default(),
                encoding.clone(),
                spec.dim,
                spec.backend.backend(cfg),
            );
            array.store_all(stored.iter().cloned()).expect("in-range by construction");
            array.program();
            let top1 = array.search_batch(&queries).expect("programmed");
            let topk = array.search_k_batch(&queries, spec.k).expect("programmed");
            for (i, want) in expected.iter().enumerate() {
                hit1 += usize::from(top1[i].nearest == *want);
                hitk += usize::from(topk[i].contains(want));
            }
        }
        let n = (spec.trials as usize * spec.n_queries) as f64;
        points.push(CurvePoint {
            rate,
            recall_at_1: hit1 as f64 / n,
            recall_at_k: hitk as f64 / n,
        });
    }
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

/// The fixed sweep matrix behind the standard report: every metric × both
/// stochastic backends × all four hard-fault classes. The `Noisy` backend
/// runs at application-ish scale; the device-level `Circuit` backend runs a
/// reduced but structurally identical sweep (every cell is a full
/// bisection-solved device, so its arrays are kept small).
pub fn standard_specs(seed: u64) -> Vec<SweepSpec> {
    let mut specs = Vec::new();
    for metric in DistanceMetric::ALL {
        for backend in BackendKind::STOCHASTIC {
            for fault in FaultKind::ALL {
                let spec = match backend {
                    BackendKind::Noisy => SweepSpec {
                        metric,
                        backend,
                        fault,
                        bits: 2,
                        dim: 12,
                        rows: 16,
                        n_queries: 24,
                        trials: 3,
                        k: 3,
                        rates: vec![0.0, 0.02, 0.05, 0.1, 0.2, 0.4],
                        seed,
                    },
                    BackendKind::Circuit => SweepSpec {
                        metric,
                        backend,
                        fault,
                        bits: 2,
                        dim: 6,
                        rows: 8,
                        n_queries: 10,
                        trials: 2,
                        k: 3,
                        rates: vec![0.0, 0.05, 0.15, 0.3],
                        seed,
                    },
                    // `STOCHASTIC` never yields `Ideal`; skipping is the
                    // panic-free form of that guard.
                    BackendKind::Ideal => continue,
                };
                specs.push(spec);
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

/// Runs one recall-recovery sweep: at every rate, each trial array is
/// measured twice — once exactly as [`run_sweep`] does (repair disabled,
/// so the faulted leg reproduces the PR 2 degradation baseline
/// byte-for-byte), and once with `policy` installed so write-verify,
/// quarantine and row sparing run before serving.
///
/// # Panics
///
/// Panics on malformed specs (no rates, no queries, no trials, `k` out of
/// range) and on any backend error, like [`run_sweep`].
pub fn run_recovery(spec: &SweepSpec, policy: &RepairPolicy) -> RecoveryCurve {
    assert!(!spec.rates.is_empty(), "sweep needs at least one rate");
    assert!(spec.n_queries >= 1, "sweep needs at least one query");
    assert!(spec.trials >= 1, "sweep needs at least one trial");
    assert!(spec.k >= 1 && spec.k <= spec.rows, "k = {} out of range", spec.k);
    let encoding = encoding_for(spec.metric, spec.bits).expect("sizing must succeed");
    let mut data_rng = StdRng::seed_from_u64(spec.derived_seed(0));
    let stored = gen_vectors(spec.rows, spec.dim, spec.bits, &mut data_rng);
    let oracle = Oracle::new(spec.metric, stored.clone());
    let queries =
        gen_unambiguous_queries(&oracle, spec.n_queries, spec.dim, spec.bits, &mut data_rng);
    let expected: Vec<usize> = queries.iter().map(|q| oracle.nearest(q)).collect();

    let mut points = Vec::with_capacity(spec.rates.len());
    for &rate in &spec.rates {
        let mut faulted1 = 0usize;
        let mut faultedk = 0usize;
        let mut healed1 = 0usize;
        let mut healedk = 0usize;
        let mut quarantined = 0usize;
        let mut remapped = 0usize;
        let mut excluded = 0usize;
        for trial in 0..spec.trials {
            let cfg = CircuitConfig {
                variation: VariationModel::none(),
                lta: LtaParams::ideal(),
                faults: spec.fault.plan(rate),
                seed: spec.derived_seed(1 + trial),
                ..Default::default()
            };
            // No-repair leg: identical to run_sweep, preserving the PR 2
            // degradation baseline for this (spec, rate, trial).
            let mut array = FerexArray::new(
                Technology::default(),
                encoding.clone(),
                spec.dim,
                spec.backend.backend(cfg.clone()),
            );
            array.store_all(stored.iter().cloned()).expect("in-range by construction");
            array.program();
            let top1 = array.search_batch(&queries).expect("programmed");
            let topk = array.search_k_batch(&queries, spec.k).expect("programmed");
            for (i, want) in expected.iter().enumerate() {
                faulted1 += usize::from(top1[i].nearest == *want);
                faultedk += usize::from(topk[i].contains(want));
            }
            // Healed leg: same data, same fault map, repair pipeline on.
            let mut healed = FerexArray::new(
                Technology::default(),
                encoding.clone(),
                spec.dim,
                spec.backend.backend(cfg),
            );
            healed.store_all(stored.iter().cloned()).expect("in-range by construction");
            // lint:allow(panic-safety/expect, reason = "standard recovery spec builds a valid policy")
            healed.set_repair_policy(policy.clone()).expect("valid policy");
            let report = healed.program_verified().expect("verify budget is bounded");
            quarantined += report.rows_quarantined.len();
            remapped += report.rows_remapped.len();
            excluded += report.rows_excluded.len();
            // A fully quarantined array with no spares left serves nothing:
            // count every query as a miss instead of panicking, so recovery
            // curves can show the collapse past the spare pool's capacity.
            let active = healed.health().rows_active;
            if active >= spec.k {
                let top1 = healed.search_batch(&queries).expect("programmed");
                let topk = healed.search_k_batch(&queries, spec.k).expect("programmed");
                for (i, want) in expected.iter().enumerate() {
                    healed1 += usize::from(top1[i].nearest == *want);
                    healedk += usize::from(topk[i].contains(want));
                }
            } else if active >= 1 {
                let top1 = healed.search_batch(&queries).expect("programmed");
                for (i, want) in expected.iter().enumerate() {
                    healed1 += usize::from(top1[i].nearest == *want);
                }
            }
        }
        let n = (spec.trials as usize * spec.n_queries) as f64;
        points.push(RecoveryPoint {
            rate,
            recall_faulted_1: faulted1 as f64 / n,
            recall_faulted_k: faultedk as f64 / n,
            recall_healed_1: healed1 as f64 / n,
            recall_healed_k: healedk as f64 / n,
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

/// The sweep matrix behind the standard recovery report: every metric ×
/// both stochastic backends × the stuck-at fault classes, at low rates
/// where a 2×-rows spare pool is expected to absorb every quarantined row.
pub fn standard_recovery_specs(seed: u64) -> Vec<(SweepSpec, RepairPolicy)> {
    let mut specs = Vec::new();
    for metric in DistanceMetric::ALL {
        for backend in BackendKind::STOCHASTIC {
            for fault in [FaultKind::Sa0, FaultKind::Sa1] {
                let mut spec = match backend {
                    BackendKind::Noisy => SweepSpec {
                        metric,
                        backend,
                        fault,
                        bits: 2,
                        dim: 12,
                        rows: 16,
                        n_queries: 24,
                        trials: 3,
                        k: 3,
                        rates: vec![0.01, 0.02, 0.05],
                        seed,
                    },
                    BackendKind::Circuit => SweepSpec {
                        metric,
                        backend,
                        fault,
                        bits: 2,
                        dim: 6,
                        rows: 8,
                        n_queries: 10,
                        trials: 2,
                        k: 3,
                        rates: vec![0.01, 0.02, 0.05],
                        seed,
                    },
                    // `STOCHASTIC` never yields `Ideal`; skipping is the
                    // panic-free form of that guard.
                    BackendKind::Ideal => continue,
                };
                spec.rates.retain(|&r| r > 0.0);
                let policy = RepairPolicy {
                    spare_rows: 2 * spec.rows,
                    sentinel_rows: 1,
                    ..Default::default()
                };
                specs.push((spec, policy));
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
