//! Property tests and a pinned regression for hedged serving under
//! slow-replica latency models.
//!
//! Two contracts from the hedging design:
//!
//! * **Bit-identity** — hedging, brownout demotion, and per-replica
//!   latency models only move *when* batches complete, never *what* they
//!   answer: every hedged completion reproduces the bare array's
//!   `search_batch_at` outcome for the same stable query id, across
//!   metrics and backends, and the serving counters still balance exactly.
//! * **Pinned schedule** — a 3-replica set with replica 1 at a
//!   deterministic 8x slowdown serves a 48-request burst on an exact,
//!   hand-checked batch/hedge schedule: one hedge fired and won by the
//!   spare replica, the slow replica demoted after a single observation,
//!   and the recovered tail within 2x the all-healthy schedule while the
//!   unhedged leg sits at 8x.

use ferex::analog::lta::LtaParams;
use ferex::core::array::{Backend, CircuitConfig};
use ferex::core::latency::{HedgePolicy, LatencyModel};
use ferex::core::replica::{BreakerState, BrownoutPolicy, QuorumPolicy, ReplicaPolicy};
use ferex::core::serve::{CostModel, Request, ServeLoop, ServePolicy};
use ferex::core::{DistanceMetric, Ferex, FerexArray};
use ferex::fefet::{FaultPlan, VariationModel};
use proptest::prelude::*;

const DIM: usize = 6;
const ROWS: usize = 8;
const NOISY_SEED: u64 = 21;

fn corner_cfg(seed: u64) -> CircuitConfig {
    CircuitConfig {
        variation: VariationModel::none(),
        lta: LtaParams::ideal(),
        faults: FaultPlan::none(),
        seed,
        ..Default::default()
    }
}

fn stored_rows() -> Vec<Vec<u32>> {
    (0..ROWS as u32).map(|r| (0..DIM as u32).map(|d| (r * 2 + d) % 4).collect()).collect()
}

fn backend_of(kind: u8) -> Backend {
    match kind {
        0 => Backend::Ideal,
        _ => Backend::Noisy(Box::new(corner_cfg(NOISY_SEED))),
    }
}

fn engine_with(metric: DistanceMetric, backend: Backend) -> Ferex {
    let mut engine =
        Ferex::builder().metric(metric).dim(DIM).backend(backend).build().expect("builds");
    engine.store_all(stored_rows()).expect("in-range rows");
    engine
}

/// A hedging serving loop: 3 replicas, 2 reads, per-replica latency
/// models (replica 1 slowed by `slow_milli`), hedge + brownout armed.
fn hedged_loop(
    metric: DistanceMetric,
    backend_kind: u8,
    slow_milli: u64,
    hedge: HedgePolicy,
) -> ServeLoop<FerexArray> {
    let policy = ReplicaPolicy {
        quorum: QuorumPolicy { reads: 2, agree: 1 },
        brownout: Some(BrownoutPolicy::default()),
        ..Default::default()
    };
    let mut set =
        engine_with(metric, backend_of(backend_kind)).replica_set(3, policy).expect("replicates");
    let cost = CostModel::noisy_10k();
    for i in 0..3 {
        let model = if i == 1 {
            LatencyModel::slowed(cost, slow_milli, 1000 + i as u64)
        } else {
            LatencyModel::healthy(cost, 1000 + i as u64)
        };
        set.set_latency_model(i, model).expect("in-range replica");
    }
    let serve_policy = ServePolicy {
        target_batch: 8,
        queue_capacity: 0,
        quantum: 1,
        cost,
        max_wait_ticks: 0,
        hedge: Some(hedge),
    };
    ServeLoop::new(set, 2, serve_policy).expect("valid policy")
}

/// One generated request: (tenant, priority, arrival gap, query).
fn request_strategy() -> impl Strategy<Value = (usize, u32, u64, Vec<u32>)> {
    (0usize..2, 0u32..8, 0u64..30, prop::collection::vec(0u32..4, DIM..=DIM))
}

proptest! {
    /// Hedged serving across metrics and backends: every completion is
    /// bit-identical to the bare array's `search_batch_at` oracle, and the
    /// counters balance with hedges in play.
    #[test]
    fn hedged_answers_are_bit_identical_to_the_bare_array(
        reqs in prop::collection::vec(request_strategy(), 1..32),
        metric_pick in 0u8..3,
        backend_kind in 0u8..2,
        slow_milli in 1000u64..20_000,
        quantile_milli in 50u64..1000,
        budget_milli in 1u64..1001,
    ) {
        let metric = match metric_pick {
            0 => DistanceMetric::Hamming,
            1 => DistanceMetric::Manhattan,
            _ => DistanceMetric::EuclideanSquared,
        };
        let hedge = HedgePolicy { quantile_milli, budget_milli };
        let mut lp = hedged_loop(metric, backend_kind, slow_milli, hedge);
        let mut arrivals = Vec::with_capacity(reqs.len());
        let mut t = 0u64;
        for (_, _, gap, _) in &reqs {
            t += gap;
            arrivals.push(t);
        }
        let mut by_qid: Vec<Vec<u32>> = Vec::with_capacity(reqs.len());
        let mut completions = Vec::new();
        let mut next = 0usize;
        for tick in 0..=t {
            while next < reqs.len() && arrivals[next] == tick {
                let (tenant, priority, _, query) = reqs[next].clone();
                by_qid.push(query.clone());
                lp.submit(Request {
                    tenant,
                    priority,
                    arrival_tick: tick,
                    deadline_ticks: 1_000_000,
                    query,
                }).expect("valid request");
                next += 1;
            }
            let (done, _) = lp.poll(tick).expect("monotone ticks");
            completions.extend(done);
        }
        let (done, _) = lp.drain(10_000_000).expect("drains");
        completions.extend(done);
        let stats = lp.stats();
        prop_assert_eq!(
            stats.submitted,
            stats.served + stats.shed_capacity + stats.shed_deadline,
            "counters drifted with hedges in play"
        );
        prop_assert_eq!(stats.served as usize, reqs.len(), "generous deadlines shed nothing");
        let bare = engine_with(metric, backend_of(backend_kind));
        let bare = {
            let mut b = bare;
            b.program();
            b
        };
        let queries: Vec<Vec<u32>> =
            completions.iter().map(|c| by_qid[c.qid as usize].clone()).collect();
        let qids: Vec<u64> = completions.iter().map(|c| c.qid).collect();
        let wants = bare.array().search_batch_at(&queries, &qids).expect("searches");
        for (c, want) in completions.iter().zip(&wants) {
            prop_assert_eq!(
                &c.outcome.outcome, want,
                "qid {} answer drifted under hedging", c.qid
            );
        }
    }
}

/// The pinned 8x regression: 48 requests burst at tick 0 into a 3-replica
/// set with replica 1 at an exact 8x slowdown (deterministic latency
/// models, target batch 16). The hand-checked schedule:
///
/// * batch 0 reads replicas {0, 1}: services (212, 1696), hedge deadline
///   337, hedge fires to replica 2 and wins (337 + 212 = 549 < 1696), so
///   the batch completes at tick 549;
/// * replica 1's single observation moves its EWMA to 2750 per-mille —
///   past the 2500 brownout threshold — so it is demoted with a 1750
///   demerit and batches 1/2 read {0, 2} at the healthy 212 ticks,
///   completing at 761 and 973;
/// * the same burst unhedged (no hedge, no brownout) keeps reading
///   {0, 1} and completes at 1696 / 3392 / 5088; all-healthy it would
///   complete at 212 / 424 / 636 — so the hedged tail (973) holds the
///   2x SLO against all-healthy (636) while unhedged blows past 5x.
#[test]
fn pinned_8x_slow_replica_hedge_schedule() {
    let cost = CostModel::noisy_10k();
    let run = |slow_factor: u64, hedged: bool| -> (Vec<u64>, ServeLoop<FerexArray>) {
        let policy = ReplicaPolicy {
            quorum: QuorumPolicy { reads: 2, agree: 1 },
            brownout: hedged.then_some(BrownoutPolicy {
                demote_threshold_milli: 2500,
                reprobe_ticks: 2048,
                ewma_shift: 2,
            }),
            ..Default::default()
        };
        let mut set = engine_with(DistanceMetric::Hamming, backend_of(1))
            .replica_set(3, policy)
            .expect("replicates");
        for i in 0..3 {
            let factor = if i == 1 { slow_factor } else { 1000 };
            set.set_latency_model(i, LatencyModel::exact(cost, factor, i as u64))
                .expect("in-range replica");
        }
        let serve_policy = ServePolicy {
            target_batch: 16,
            queue_capacity: 0,
            quantum: 1,
            cost,
            max_wait_ticks: 0,
            hedge: hedged.then_some(HedgePolicy { quantile_milli: 950, budget_milli: 500 }),
        };
        let mut lp = ServeLoop::new(set, 1, serve_policy).expect("valid policy");
        for i in 0..48 {
            lp.submit(Request {
                tenant: 0,
                priority: 0,
                arrival_tick: 0,
                deadline_ticks: 1_000_000,
                query: vec![(i % 4) as u32; DIM],
            })
            .expect("valid request");
        }
        let mut completions = Vec::new();
        for tick in 0..=1000 {
            let (done, shed) = lp.poll(tick).expect("monotone ticks");
            completions.extend(done);
            assert!(shed.is_empty(), "nothing sheds under these deadlines");
        }
        let (done, _) = lp.drain(100_000).expect("drains");
        completions.extend(done);
        let mut ticks: Vec<u64> = completions.iter().map(|c| c.completion_tick).collect();
        ticks.sort_unstable();
        ticks.dedup();
        (ticks, lp)
    };

    let (hedged_ticks, lp) = run(8000, true);
    assert_eq!(hedged_ticks, vec![549, 761, 973], "hedged batch schedule moved");
    let stats = lp.stats();
    assert_eq!(stats.batches, 3);
    assert_eq!(stats.hedges_issued, 1, "exactly batch 0 hedges");
    assert_eq!(stats.hedge_wins, 1);
    assert_eq!(stats.brownout_demotions, 1);
    assert_eq!(lp.hedged_against(), &[0, 1, 0], "the 8x replica held the slow slot");
    assert_eq!(lp.hedge_wins_by(), &[0, 0, 1], "the spare replica won the duplicate");
    assert_eq!(lp.replica_samples(1), &[1696], "one observation before demotion");
    let slow = lp.set().status(1);
    assert_eq!(slow.latency_ewma_milli, 2750, "EWMA after the single 8x observation");
    assert_eq!(slow.latency_demerit_milli, 1750, "demerit = ewma - 1000");
    assert!(
        matches!(slow.brownout, BreakerState::Open { .. }),
        "slow replica stays demoted through the burst"
    );

    let (unhedged_ticks, _) = run(8000, false);
    assert_eq!(unhedged_ticks, vec![1696, 3392, 5088], "unhedged schedule moved");

    let (healthy_ticks, _) = run(1000, true);
    assert_eq!(healthy_ticks, vec![212, 424, 636], "all-healthy schedule moved");

    // The SLO ratios the conformance gate enforces on the full simulator,
    // reproduced here on the pinned schedule.
    let hedged_tail = *hedged_ticks.last().unwrap();
    let unhedged_tail = *unhedged_ticks.last().unwrap();
    let healthy_tail = *healthy_ticks.last().unwrap();
    assert!(hedged_tail <= 2 * healthy_tail, "hedged tail {hedged_tail} vs healthy {healthy_tail}");
    assert!(unhedged_tail >= 5 * healthy_tail, "unhedged meltdown too mild to gate on");
}
