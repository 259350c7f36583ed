//! Chaos-soak conformance: replicated degraded-mode serving.
//!
//! Four contracts on top of the self-healing suite in `selfheal.rs`:
//!
//! * **Availability** — the acceptance scenario (three replicas, 2-of-2
//!   quorum, the PR 2 standard 1 % stuck-at rate on one replica, a second
//!   replica killed mid-stream) keeps recall@1 at or above 0.99 for the
//!   whole stream.
//! * **Bit-reproducibility** — regenerating the standard chaos report from
//!   the same seed yields a byte-identical JSON document.
//! * **Zero drift when disabled** — a one-replica, 1/1-quorum, no-kill,
//!   no-repair soak reproduces the PR 2/PR 3 degradation baseline recall
//!   exactly: the supervisor must add nothing when its features are off.
//! * **Fallback exactness** — when quorum cannot be met, the digital
//!   fallback serves precisely the conformance oracle's answer.

use ferex_analog::lta::LtaParams;
use ferex_conformance::harness::{encoding_for, gen_unambiguous_queries, gen_vectors};
use ferex_conformance::{
    run_chaos, run_sweep, standard_chaos_report, BackendKind, ChaosSpec, FaultKind, Oracle,
    SweepSpec,
};
use ferex_core::{
    Backend, CircuitConfig, DistanceMetric, FerexArray, QuorumPolicy, ReplicaPolicy, ReplicaSet,
    ServeSource,
};
use ferex_fefet::{FaultPlan, Technology, VariationModel};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The two fixed seeds the chaos gates are pinned on (same pair as the
/// scrub-soundness contract).
const CHAOS_SEEDS: [u64; 2] = [42, 1337];

#[test]
fn acceptance_soak_keeps_recall_through_fault_and_kill() {
    // The acceptance scenario verbatim: 3 replicas, quorum 2/2, 1 % SA1 on
    // replica 0, replica 1 killed at mid-stream. With two healthy replicas
    // before the kill and the oracle fallback arbitrating disagreements
    // after it, recall@1 must hold at ≥ 0.99 across the whole stream.
    let spec = ChaosSpec {
        metric: DistanceMetric::Hamming,
        backend: BackendKind::Noisy,
        fault: FaultKind::Sa1,
        bits: 2,
        dim: 12,
        rows: 16,
        n_queries: 60,
        rates: vec![0.01],
        replicas: 3,
        reads: 2,
        agree: 2,
        faulted_replica: 0,
        kill_replica: Some(1),
        kill_at_query: 30,
        scrub_period: 16,
        spare_rows: 2,
        seed: 42,
    };
    let curve = run_chaos(&spec);
    assert!(curve.meets_recall_floor(0.99), "availability gate breached: {:?}", curve.points);
    let p = &curve.points[0];
    assert_eq!(p.replicas_alive, 2, "the scheduled kill must have landed");
    assert!(p.scheduled_scrubs > 0, "the scrub schedule never fired");
}

#[test]
fn standard_chaos_report_is_byte_reproducible() {
    for seed in CHAOS_SEEDS {
        let a = standard_chaos_report(seed);
        let b = standard_chaos_report(seed);
        assert_eq!(a.to_json(), b.to_json(), "seed {seed}: chaos report drifted between runs");
        // Every standard soak must hold the availability gate.
        for curve in &a.curves {
            assert!(
                curve.meets_recall_floor(0.99),
                "seed {seed}, {}/{}: availability gate breached: {:?}",
                curve.metric,
                curve.fault,
                curve.points
            );
        }
    }
}

#[test]
fn disabled_supervisor_reproduces_the_degradation_baseline() {
    // One replica, 1/1 quorum, no kill, no scrubs, no repair policy: the
    // soak's recall must equal run_sweep's single-trial recall exactly —
    // same derived data, same trial seed, same query-id stream.
    for (metric, fault) in
        [(DistanceMetric::Hamming, FaultKind::Sa0), (DistanceMetric::Manhattan, FaultKind::Sa1)]
    {
        let chaos = ChaosSpec {
            metric,
            backend: BackendKind::Noisy,
            fault,
            bits: 2,
            dim: 12,
            rows: 16,
            n_queries: 24,
            rates: vec![0.0, 0.02, 0.05],
            replicas: 1,
            reads: 1,
            agree: 1,
            faulted_replica: 0,
            kill_replica: None,
            kill_at_query: 0,
            scrub_period: 0,
            spare_rows: 0,
            seed: 42,
        };
        let sweep = SweepSpec { k: 1, ..chaos.sweep_spec() };
        let baseline = run_sweep(&sweep);
        let soak = run_chaos(&chaos);
        assert_eq!(soak.points.len(), baseline.points.len());
        for (c, d) in soak.points.iter().zip(&baseline.points) {
            assert_eq!(c.rate, d.rate);
            assert_eq!(
                c.recall_at_1, d.recall_at_1,
                "{metric} {fault:?} rate {}: supervisor drifted off the baseline",
                c.rate
            );
        }
    }
}

#[test]
fn quorum_fallback_serves_the_oracle_answer_exactly() {
    // Two replicas with a 2/2 quorum, one killed: a single eligible
    // replica can never meet the quorum, so every query is served by the
    // digital fallback — which must match the conformance oracle bit for
    // bit, tie policy included.
    let (rows, dim) = (10, 8);
    let metric = DistanceMetric::EuclideanSquared;
    let enc = encoding_for(metric, 2).expect("sizing succeeds at 2 bits");
    let mut rng = StdRng::seed_from_u64(1337);
    let stored = gen_vectors(rows, dim, 2, &mut rng);
    let oracle = Oracle::new(metric, stored.clone());
    let queries = gen_unambiguous_queries(&oracle, 12, dim, 2, &mut rng);
    let mut replicas = Vec::new();
    for i in 0..2u64 {
        let cfg = CircuitConfig {
            variation: VariationModel::none(),
            lta: LtaParams::ideal(),
            faults: FaultPlan::none(),
            seed: ferex_core::derive_replica_seed(1337, i),
            ..Default::default()
        };
        let mut a =
            FerexArray::new(Technology::default(), enc.clone(), dim, Backend::Noisy(Box::new(cfg)));
        a.store_all(stored.iter().cloned()).unwrap();
        a.program();
        replicas.push(a);
    }
    let policy =
        ReplicaPolicy { quorum: QuorumPolicy { reads: 2, agree: 2 }, ..Default::default() };
    let mut set = ReplicaSet::new(replicas, metric, policy).unwrap();
    set.kill(1);
    let qids: Vec<u64> = (0..queries.len() as u64).collect();
    let (served, _) = set.serve_batch_read(&queries, &qids).unwrap();
    for (q, served) in queries.iter().zip(&served) {
        assert_eq!(served.source, ServeSource::OracleFallback);
        assert_eq!(served.outcome.nearest, oracle.nearest(q));
    }
    assert_eq!(set.stats().oracle_fallbacks, queries.len() as u64);
}
