//! Property tests and regressions for the deterministic serving loop.
//!
//! Three contracts from the serving-loop design:
//!
//! * **Batch former bounds** — no formed batch ever exceeds the policy's
//!   target size, and no served request ever completes past its deadline
//!   (requests that cannot make it are shed, never served late).
//! * **Bit-identity** — serving through the loop (whatever batches the
//!   former happens to close) reproduces, query for query, the outcome of
//!   searching a bare array with the same stable query ids: batch grouping
//!   is invisible to the answers, even on the seeded stochastic backend.
//! * **Deficit-round-robin fairness** — equally loaded tenants saturating
//!   the loop end up with served counts within one batch of each other,
//!   and a hot tenant cannot starve cold ones (pinned schedule below).

use ferex::analog::lta::LtaParams;
use ferex::core::array::{Backend, CircuitConfig};
use ferex::core::replica::ReplicaPolicy;
use ferex::core::serve::{CostModel, Request, ServeLoop, ServePolicy};
use ferex::core::{Ferex, FerexArray};
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

/// A serving loop over one Noisy replica at the fault-isolation corner.
fn serving_loop(tenants: usize, policy: ServePolicy) -> ServeLoop<FerexArray> {
    let mut engine = Ferex::builder()
        .dim(DIM)
        .backend(Backend::Noisy(Box::new(corner_cfg(NOISY_SEED))))
        .build()
        .expect("builds");
    engine.store_all(stored_rows()).expect("in-range rows");
    let set = engine.replica_set(1, ReplicaPolicy::default()).expect("replicates");
    ServeLoop::new(set, tenants, policy).expect("valid policy")
}

/// A bare array with the same backend seed, for the bit-identity oracle.
fn bare_engine() -> Ferex {
    let mut engine = Ferex::builder()
        .dim(DIM)
        .backend(Backend::Noisy(Box::new(corner_cfg(NOISY_SEED))))
        .build()
        .expect("builds");
    engine.store_all(stored_rows()).expect("in-range rows");
    engine.program();
    engine
}

fn cheap() -> CostModel {
    CostModel { batch_setup_ticks: 4, per_query_ticks: 1 }
}

/// One generated request: (tenant, priority, arrival gap, deadline, query).
fn request_strategy() -> impl Strategy<Value = (usize, u32, u64, u64, Vec<u32>)> {
    (0usize..3, 0u32..8, 0u64..30, 10u64..400, prop::collection::vec(0u32..4, DIM..=DIM))
}

proptest! {
    /// Driving the loop with an arbitrary request stream: every formed
    /// batch stays at or under the target size, every served request
    /// completes within its deadline, and every answer is bit-identical
    /// to searching the bare array with the same stable query id.
    #[test]
    fn batches_bounded_deadlines_met_and_answers_bit_identical(
        reqs in prop::collection::vec(request_strategy(), 1..40),
        target_batch in 1usize..6,
    ) {
        let policy = ServePolicy {
            target_batch,
            queue_capacity: 0,
            quantum: 1,
            cost: cheap(),
            ..Default::default()
        };
        let mut lp = serving_loop(3, policy);
        // Absolute arrival ticks from the generated gaps.
        let mut arrivals = Vec::with_capacity(reqs.len());
        let mut t = 0u64;
        for (_, _, gap, _, _) in &reqs {
            t += gap;
            arrivals.push(t);
        }
        let mut by_qid: Vec<Vec<u32>> = Vec::with_capacity(reqs.len());
        let mut completions = Vec::new();
        let mut next = 0usize;
        for tick in 0..=t {
            while next < reqs.len() && arrivals[next] == tick {
                let (tenant, priority, _, deadline_ticks, query) = reqs[next].clone();
                by_qid.push(query.clone());
                lp.submit(Request {
                    tenant,
                    priority,
                    arrival_tick: tick,
                    deadline_ticks,
                    query,
                }).expect("valid request");
                next += 1;
            }
            let (done, _) = lp.poll(tick).expect("monotone ticks");
            completions.extend(done);
        }
        let (done, _) = lp.drain(100_000).expect("drains");
        completions.extend(done);
        prop_assert_eq!(lp.queue_depth(), 0, "drain left requests behind");
        let stats = lp.stats();
        prop_assert_eq!(
            stats.submitted,
            stats.served + stats.shed_capacity + stats.shed_deadline
        );
        prop_assert!(stats.max_batch <= target_batch as u64, "batch former overshot");
        // Per-batch sizes, from the completions themselves.
        let n_batches = completions.iter().map(|c| c.batch + 1).max().unwrap_or(0);
        for b in 0..n_batches {
            let size = completions.iter().filter(|c| c.batch == b).count();
            prop_assert!(size <= target_batch, "batch {} held {} requests", b, size);
        }
        let bare = bare_engine();
        let queries: Vec<Vec<u32>> =
            completions.iter().map(|c| by_qid[c.qid as usize].clone()).collect();
        let qids: Vec<u64> = completions.iter().map(|c| c.qid).collect();
        let wants = bare.array().search_batch_at(&queries, &qids).expect("searches");
        for (c, want) in completions.iter().zip(&wants) {
            prop_assert!(
                c.latency() <= reqs[c.qid as usize].3,
                "qid {} served past its deadline ({} > {})",
                c.qid, c.latency(), reqs[c.qid as usize].3
            );
            prop_assert_eq!(&c.outcome.outcome, want, "qid {} answer drifted", c.qid);
        }
    }

    /// Equally loaded tenants saturating the loop: deficit round robin
    /// keeps the served counts within one batch of each other at every
    /// quantum, and nothing is shed.
    #[test]
    fn drr_shares_service_equally_between_equal_tenants(
        tenants in 2usize..5,
        per_tenant in 4usize..16,
        target_batch in 2usize..9,
        quantum in 1u32..4,
    ) {
        let policy = ServePolicy {
            target_batch,
            queue_capacity: 0,
            quantum,
            cost: cheap(),
            ..Default::default()
        };
        let mut lp = serving_loop(tenants, policy);
        // Everyone's full demand is queued up front: perfect saturation.
        for i in 0..per_tenant {
            for tenant in 0..tenants {
                lp.submit(Request {
                    tenant,
                    priority: 0,
                    arrival_tick: 0,
                    deadline_ticks: 1_000_000,
                    query: vec![(i % 4) as u32; DIM],
                }).expect("valid request");
            }
        }
        lp.drain(10_000_000).expect("drains");
        let stats = lp.stats();
        prop_assert_eq!(stats.shed_capacity + stats.shed_deadline, 0, "saturated run shed");
        prop_assert_eq!(stats.served, (tenants * per_tenant) as u64);
        let served = lp.served_per_tenant();
        let max = served.iter().max().copied().unwrap_or(0);
        let min = served.iter().min().copied().unwrap_or(0);
        prop_assert!(
            max - min <= target_batch as u64,
            "tenant shares drifted past one batch: {:?}",
            served
        );
    }
}

/// Starvation regression with a pinned schedule: one hot tenant floods 100
/// requests while three cold tenants bring 10 each, all at tick 0, target
/// batch 8, quantum 1. DRR must interleave two requests per tenant into
/// each of the first five batches (draining the cold tenants completely)
/// before the hot tenant gets the array to itself — the hot tenant never
/// starves the cold ones, and everything is eventually served.
#[test]
fn hot_tenant_cannot_starve_cold_tenants() {
    let policy = ServePolicy {
        target_batch: 8,
        queue_capacity: 0,
        quantum: 1,
        cost: cheap(),
        ..Default::default()
    };
    let mut lp = serving_loop(4, policy);
    let submit = |lp: &mut ServeLoop<FerexArray>, tenant: usize| {
        lp.submit(Request {
            tenant,
            priority: 0,
            arrival_tick: 0,
            deadline_ticks: 1_000_000,
            query: vec![0, 1, 2, 3, 0, 1],
        })
        .expect("valid request");
    };
    for _ in 0..100 {
        submit(&mut lp, 0);
    }
    for tenant in 1..4 {
        for _ in 0..10 {
            submit(&mut lp, tenant);
        }
    }
    let (completions, sheds) = lp.drain(10_000_000).expect("drains");
    assert!(sheds.is_empty(), "nothing may shed in this schedule");
    assert_eq!(lp.served_per_tenant(), &[100, 10, 10, 10]);
    // The exact pinned schedule: 17 batches; the first five split 2/2/2/2
    // across the tenants, the rest belong to the drained-out hot tenant.
    let stats = lp.stats();
    assert_eq!(stats.batches, 17);
    assert_eq!(stats.max_batch, 8);
    for b in 0..17u64 {
        let batch: Vec<_> = completions.iter().filter(|c| c.batch == b).collect();
        if b < 5 {
            assert_eq!(batch.len(), 8, "batch {b} size");
            for tenant in 0..4 {
                assert_eq!(
                    batch.iter().filter(|c| c.tenant == tenant).count(),
                    2,
                    "batch {b} must carry two requests of tenant {tenant}"
                );
            }
        } else {
            assert!(batch.iter().all(|c| c.tenant == 0), "batch {b} should be hot-tenant only");
            assert_eq!(batch.len(), if b < 16 { 8 } else { 2 }, "batch {b} size");
        }
    }
    // Every cold request is done by the end of batch 4: the worst cold
    // completion precedes the first hot-only batch.
    let last_cold =
        completions.iter().filter(|c| c.tenant > 0).map(|c| c.completion_tick).max().unwrap();
    let first_hot_only =
        completions.iter().filter(|c| c.batch == 5).map(|c| c.completion_tick).min().unwrap();
    assert!(last_cold <= first_hot_only, "a cold tenant outlived the hot-only phase");
}
