//! Deterministic load simulator for the serving loop: seeded arrival
//! generators, chaos schedules, and exact virtual-latency distributions.
//!
//! A load scenario drives a [`ServeLoop`] on its virtual tick clock with
//! seeded arrivals — **open loop** (a Poisson-like process sampled by
//! SplitMix64 Bernoulli sub-slots, optionally with a burst window) or
//! **closed loop** (a fixed number of outstanding requests per tenant,
//! each completion immediately respawning the next) — while the PR 4
//! chaos vocabulary (kill / revive mid-stream) degrades the replica set
//! underneath. Because the clock is virtual and every random draw is a
//! domain-separated SplitMix64 stream, a scenario replays
//! bit-reproducibly: p50/p99/p999 latency are exact integers and the
//! whole [`LoadReport`] is byte-identical
//! across runs with the same seed.
//!
//! The Poisson approximation deliberately avoids `f64::ln` (libm varies
//! across platforms): each tick is split into `SUBSLOTS` Bernoulli
//! trials whose success threshold is an integer comparison
//! `draw < rate · 2^64 / (1000 · SUBSLOTS)`, i.e. a binomial thinning of
//! the tick that converges on Poisson arrivals for the small per-slot
//! probabilities used here.

use crate::harness::{gen_vectors, metric_label, BackendKind};
use crate::oracle::Oracle;
use crate::report::{LoadReport, LoadScenario, LoadV2Replica, LoadV2Report, LoadV2Scenario};
use ferex_analog::lta::LtaParams;
use ferex_core::serve::{CostModel, Request, ServeLoop, ServeLoopStats, ServePolicy};
use ferex_core::{
    derive_replica_seed, BrownoutPolicy, CircuitConfig, DistanceMetric, FerexArray, HedgePolicy,
    LatencyModel, QuorumPolicy, ReplicaPolicy, ReplicaSet,
};
use ferex_fefet::math::splitmix64;
use ferex_fefet::{FaultPlan, Technology, VariationModel};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::VecDeque;

/// Domain-separation salt for load-simulator seed derivation, disjoint
/// from the conformance, replica, and query streams.
const LOAD_STREAM_SALT: u64 = 0x10AD_5EED_F00D_7105;

/// Bernoulli sub-slots per virtual tick of the open-loop arrival process.
const SUBSLOTS: u64 = 8;

/// Distinct query payloads a scenario cycles through.
const QUERY_POOL: usize = 32;

/// How requests arrive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArrivalModel {
    /// Open loop: seeded Poisson-like arrivals at `rate_milli` expected
    /// requests per 1000 ticks, independent of service progress.
    OpenLoop {
        /// Expected arrivals per 1000 ticks.
        rate_milli: u64,
    },
    /// Closed loop: `outstanding` requests per tenant are kept in flight;
    /// every completion immediately submits the tenant's next request at
    /// its completion tick.
    ClosedLoop {
        /// In-flight requests per tenant.
        outstanding: usize,
    },
}

impl ArrivalModel {
    /// Report label, e.g. `open@64` or `closed@2`.
    pub fn label(&self) -> String {
        match self {
            ArrivalModel::OpenLoop { rate_milli } => format!("open@{rate_milli}"),
            ArrivalModel::ClosedLoop { outstanding } => format!("closed@{outstanding}"),
        }
    }
}

/// A rate multiplier applied to the open-loop process inside a tick
/// window — the burst scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BurstWindow {
    /// First tick of the burst (inclusive).
    pub from_tick: u64,
    /// End of the burst (exclusive).
    pub until_tick: u64,
    /// Rate multiplier inside the window.
    pub mult: u64,
}

/// One load scenario: array + replica-set shape, serving-loop policy,
/// arrival process, and chaos schedule.
#[derive(Debug, Clone)]
pub struct LoadSpec {
    /// Scenario name (report key).
    pub name: &'static str,
    /// Distance metric.
    pub metric: DistanceMetric,
    /// Stochastic backend of the replicas.
    pub backend: BackendKind,
    /// Symbol bit width.
    pub bits: u32,
    /// Symbols per vector.
    pub dim: usize,
    /// Stored rows per replica.
    pub rows: usize,
    /// Tenant count.
    pub tenants: usize,
    /// Arrival process.
    pub arrivals: ArrivalModel,
    /// Open-loop burst window, if any.
    pub burst: Option<BurstWindow>,
    /// Tenant receiving half of all open-loop arrivals (the hot-tenant
    /// scenario); the rest spread uniformly.
    pub hot_tenant: Option<usize>,
    /// Requests submitted before the stream ends.
    pub n_requests: usize,
    /// Batch former's target size.
    pub target_batch: usize,
    /// Per-request deadline in ticks after arrival.
    pub deadline_ticks: u64,
    /// Serving-loop queue capacity (0 = unbounded).
    pub queue_capacity: usize,
    /// DRR quantum.
    pub quantum: u32,
    /// Virtual service-cost model.
    pub cost: CostModel,
    /// Replica count.
    pub replicas: usize,
    /// Quorum reads per query.
    pub reads: usize,
    /// Quorum agreement threshold.
    pub agree: usize,
    /// Replica killed mid-stream at `(replica, tick)`, if any.
    pub kill: Option<(usize, u64)>,
    /// Replica revived at `(replica, tick)` — paired with `kill`, this is
    /// the slow-replica brownout window.
    pub revive: Option<(usize, u64)>,
    /// Attach a seeded [`LatencyModel`] to every replica (`false`
    /// reproduces the v1 uniform-cost charge byte for byte).
    pub latency_models: bool,
    /// Per-replica constant slowdown overrides, `(replica,
    /// slow_factor_milli)` — the one-slow-replica scenario family.
    pub slow_replicas: Vec<(usize, u64)>,
    /// One replica aging at `(replica, milli_per_kilotick)` — the
    /// degrading-replica scenario family.
    pub degrade: Option<(usize, u64)>,
    /// Jitter amplitude of the attached models, 0..=1000 per-mille.
    pub jitter_milli: u64,
    /// Hedged-request policy of the serving loop, if any.
    pub hedge: Option<HedgePolicy>,
    /// Brownout demotion policy of the replica set, if any.
    pub brownout: Option<BrownoutPolicy>,
    /// Batch former's wait cap (0 = off).
    pub max_wait_ticks: u64,
    /// Hard tick ceiling; the run must finish (drain) before it.
    pub max_ticks: u64,
    /// Base seed everything derives from.
    pub seed: u64,
}

impl LoadSpec {
    /// Derives a purpose-separated sub-seed of this scenario's stream.
    fn derived_seed(&self, purpose: u64) -> u64 {
        splitmix64(self.seed ^ splitmix64(purpose ^ LOAD_STREAM_SALT))
    }
}

/// Nearest-rank percentile, shared with the core stats utility (one
/// implementation serves the v1 and v2 load reports and the CLI).
pub use ferex_core::stats::percentile;

/// One pending future arrival of the driver (closed-loop respawns).
#[derive(Debug, Clone, Copy)]
struct FutureArrival {
    tick: u64,
    tenant: usize,
}

/// Per-replica latency telemetry of one load run, alongside the
/// [`LoadScenario`] row — the raw material of the v2 report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoadDetail {
    /// Final serving-loop counters (hedges, wins, demotions, re-probes).
    pub stats: ServeLoopStats,
    /// Sampled modeled service ticks per replica, in charge order.
    pub samples: Vec<Vec<u64>>,
    /// Final per-replica latency EWMA, per-mille of the expected cost.
    pub ewma_milli: Vec<u64>,
    /// Hedges issued against each replica.
    pub hedged_against: Vec<u64>,
    /// Hedge wins credited to each replica.
    pub hedge_wins_by: Vec<u64>,
    /// Final per-replica brownout routing demerit, per-mille.
    pub demerit_milli: Vec<u64>,
}

/// Runs one load scenario to completion (stream end + queue drain) and
/// returns its report row.
///
/// # Panics
///
/// As [`run_load_detailed`].
pub fn run_load(spec: &LoadSpec) -> LoadScenario {
    run_load_detailed(spec).0
}

/// [`run_load`] plus the per-replica latency telemetry the v2 report is
/// built from.
///
/// # Panics
///
/// Panics on malformed specs (zero tenants, out-of-range chaos or
/// latency-model indices, invalid quorum or hedging knobs), on encoding
/// failure, and when the run fails to drain within `max_ticks` — all
/// deterministic spec bugs, not data-dependent conditions.
pub fn run_load_detailed(spec: &LoadSpec) -> (LoadScenario, LoadDetail) {
    assert!(spec.tenants >= 1, "load scenario needs at least one tenant");
    assert!(spec.n_requests >= 1, "load scenario needs at least one request");
    if let Some((r, _)) = spec.kill {
        assert!(r < spec.replicas, "killed replica out of range");
    }
    if let Some((r, _)) = spec.revive {
        assert!(r < spec.replicas, "revived replica out of range");
    }
    if let Some(h) = spec.hot_tenant {
        assert!(h < spec.tenants, "hot tenant out of range");
    }
    for &(r, f) in &spec.slow_replicas {
        assert!(r < spec.replicas, "slow replica out of range");
        assert!(f >= 1000, "slow factor below 1x");
    }
    if let Some((r, _)) = spec.degrade {
        assert!(r < spec.replicas, "degrading replica out of range");
    }
    let encoding = crate::harness::encoding_for(spec.metric, spec.bits)
        // lint:allow(panic-safety/expect, reason = "standard specs use sizable (metric, bits) cells")
        .expect("sizing must succeed");
    let mut data_rng = StdRng::seed_from_u64(spec.derived_seed(0));
    let stored = gen_vectors(spec.rows, spec.dim, spec.bits, &mut data_rng);
    let oracle = Oracle::new(spec.metric, stored.clone());
    let pool = gen_vectors(QUERY_POOL, spec.dim, spec.bits, &mut data_rng);
    let expected: Vec<usize> = pool.iter().map(|q| oracle.nearest(q)).collect();
    let base_seed = spec.derived_seed(1);

    // Replicas at the fault-isolation corner: any recall loss would be the
    // serving ladder's doing, not the devices'.
    let mut replicas = Vec::with_capacity(spec.replicas);
    for i in 0..spec.replicas {
        let cfg = CircuitConfig {
            variation: VariationModel::none(),
            lta: LtaParams::ideal(),
            faults: FaultPlan::none(),
            seed: derive_replica_seed(base_seed, i as u64),
            ..Default::default()
        };
        let mut array = FerexArray::new(
            Technology::default(),
            encoding.clone(),
            spec.dim,
            spec.backend.backend(cfg),
        );
        // lint:allow(panic-safety/expect, reason = "generated symbols are in range by construction")
        array.store_all(stored.iter().cloned()).expect("in-range by construction");
        array.program();
        replicas.push(array);
    }
    let quorum = QuorumPolicy { reads: spec.reads, agree: spec.agree };
    let replica_policy = ReplicaPolicy { quorum, brownout: spec.brownout, ..Default::default() };
    // lint:allow(panic-safety/expect, reason = "standard specs build a valid quorum over equal replicas")
    let set = ReplicaSet::new(replicas, spec.metric, replica_policy).expect("valid replica set");
    let policy = ServePolicy {
        target_batch: spec.target_batch,
        queue_capacity: spec.queue_capacity,
        quantum: spec.quantum,
        cost: spec.cost,
        max_wait_ticks: spec.max_wait_ticks,
        hedge: spec.hedge,
    };
    // lint:allow(panic-safety/expect, reason = "spec knobs validated above; store is non-empty")
    let mut sim = ServeLoop::new(set, spec.tenants, policy).expect("valid serving policy");

    if spec.latency_models {
        let latency_seed = spec.derived_seed(6);
        for i in 0..spec.replicas {
            let mut model =
                LatencyModel::healthy(spec.cost, derive_replica_seed(latency_seed, i as u64));
            model.jitter_milli = spec.jitter_milli.min(1000);
            if let Some(&(_, f)) = spec.slow_replicas.iter().find(|&&(r, _)| r == i) {
                model.slow_factor_milli = f;
            }
            if spec.degrade.is_some_and(|(r, _)| r == i) {
                model.degrade_milli_per_kilotick = spec.degrade.map_or(0, |(_, d)| d);
            }
            // lint:allow(panic-safety/expect, reason = "indices and knobs validated above")
            sim.set_mut().set_latency_model(i, model).expect("validated latency model");
        }
    }

    // Domain-separated attribute streams, all keyed on the submission
    // counter so open- and closed-loop runs share one vocabulary.
    let arrival_seed = spec.derived_seed(2);
    let tenant_seed = spec.derived_seed(3);
    let prio_seed = spec.derived_seed(4);
    let query_seed = spec.derived_seed(5);

    let mut submitted = 0usize;
    let mut pool_of_qid: Vec<usize> = Vec::with_capacity(spec.n_requests);
    let mut latencies: Vec<u64> = Vec::new();
    let mut hits = 0u64;
    let mut respawns: VecDeque<FutureArrival> = VecDeque::new();
    let mut end_tick = 0u64;
    let mut tick = 0u64;

    // Seed the closed loop: `outstanding` requests per tenant at tick 0.
    if let ArrivalModel::ClosedLoop { outstanding } = spec.arrivals {
        assert!(outstanding >= 1, "closed loop needs at least one outstanding request");
        for tenant in 0..spec.tenants {
            for _ in 0..outstanding {
                respawns.push_back(FutureArrival { tick: 0, tenant });
            }
        }
    }

    let submit = |sim: &mut ServeLoop<FerexArray>,
                  pool_of_qid: &mut Vec<usize>,
                  n: usize,
                  tick: u64,
                  tenant: usize| {
        let pi = (splitmix64(query_seed ^ splitmix64(n as u64)) % QUERY_POOL as u64) as usize;
        let priority = (splitmix64(prio_seed ^ splitmix64(n as u64)) % 8) as u32; // lint:allow(cast-truncation/narrowing, reason = "value < 8 by the modulo")
        let query = pool.get(pi).cloned().unwrap_or_default();
        pool_of_qid.push(pi);
        let req = Request {
            tenant,
            priority,
            arrival_tick: tick,
            deadline_ticks: spec.deadline_ticks,
            query,
        };
        // lint:allow(panic-safety/expect, reason = "tenant and payload are in range by construction")
        sim.submit(req).expect("valid request");
    };

    loop {
        assert!(tick < spec.max_ticks, "load scenario failed to drain within max_ticks");
        // Chaos schedule first: the tick's arrivals see the degraded set.
        if let Some((r, at)) = spec.kill {
            if at == tick {
                sim.set_mut().kill(r);
            }
        }
        if let Some((r, at)) = spec.revive {
            if at == tick {
                sim.set_mut().revive(r);
            }
        }
        // Arrivals due this tick.
        match spec.arrivals {
            ArrivalModel::OpenLoop { rate_milli } => {
                let mult = match spec.burst {
                    Some(b) if tick >= b.from_tick && tick < b.until_tick => b.mult,
                    _ => 1,
                };
                let threshold = bernoulli_threshold(rate_milli.saturating_mul(mult));
                for slot in 0..SUBSLOTS {
                    if submitted >= spec.n_requests {
                        break;
                    }
                    let draw = splitmix64(arrival_seed ^ splitmix64(tick * SUBSLOTS + slot));
                    if draw < threshold {
                        let t_draw = splitmix64(tenant_seed ^ splitmix64(submitted as u64));
                        let tenant = pick_tenant(t_draw, spec.tenants, spec.hot_tenant);
                        submit(&mut sim, &mut pool_of_qid, submitted, tick, tenant);
                        submitted += 1;
                    }
                }
            }
            ArrivalModel::ClosedLoop { .. } => {
                while respawns.front().is_some_and(|f| f.tick <= tick) {
                    let Some(f) = respawns.pop_front() else { break };
                    if submitted >= spec.n_requests {
                        continue;
                    }
                    submit(&mut sim, &mut pool_of_qid, submitted, tick, f.tenant);
                    submitted += 1;
                }
            }
        }
        // Serve.
        // lint:allow(panic-safety/expect, reason = "ticks are monotone and queries pre-validated")
        let (completions, _sheds) = sim.poll(tick).expect("monotone ticks");
        for c in &completions {
            latencies.push(c.latency());
            end_tick = end_tick.max(c.completion_tick);
            let want = pool_of_qid.get(c.qid as usize).and_then(|&pi| expected.get(pi));
            hits += u64::from(want == Some(&c.outcome.outcome.nearest));
            if matches!(spec.arrivals, ArrivalModel::ClosedLoop { .. }) {
                respawns.push_back(FutureArrival { tick: c.completion_tick, tenant: c.tenant });
            }
        }
        if submitted >= spec.n_requests && sim.queue_depth() == 0 && tick >= end_tick {
            break;
        }
        tick += 1;
    }

    let stats = sim.stats();
    let served = stats.served;
    let ticks = end_tick.max(1);
    latencies.sort_unstable();
    let goodput_milli = served.saturating_mul(1000) / ticks;
    let recall_at_1 = if served == 0 { 1.0 } else { hits as f64 / served as f64 };
    let detail = LoadDetail {
        stats,
        samples: (0..spec.replicas).map(|i| sim.replica_samples(i).to_vec()).collect(),
        ewma_milli: (0..spec.replicas).map(|i| sim.set().status(i).latency_ewma_milli).collect(),
        hedged_against: sim.hedged_against().to_vec(),
        hedge_wins_by: sim.hedge_wins_by().to_vec(),
        demerit_milli: (0..spec.replicas)
            .map(|i| sim.set().status(i).latency_demerit_milli)
            .collect(),
    };
    let scenario = LoadScenario {
        name: spec.name.to_string(),
        metric: metric_label(spec.metric).to_string(),
        backend: spec.backend.label().to_string(),
        rows: spec.rows,
        dim: spec.dim,
        tenants: spec.tenants,
        arrivals: spec.arrivals.label(),
        burst: match spec.burst {
            Some(b) => format!("{}..{}x{}", b.from_tick, b.until_tick, b.mult),
            None => "none".to_string(),
        },
        hot_tenant: spec.hot_tenant,
        n_requests: spec.n_requests,
        target_batch: spec.target_batch,
        deadline_ticks: spec.deadline_ticks,
        queue_capacity: spec.queue_capacity,
        quantum: spec.quantum,
        setup_ticks: spec.cost.batch_setup_ticks,
        per_query_ticks: spec.cost.per_query_ticks,
        replicas: spec.replicas,
        reads: spec.reads,
        agree: spec.agree,
        kill: chaos_label(spec.kill),
        revive: chaos_label(spec.revive),
        submitted: stats.submitted,
        served,
        shed_capacity: stats.shed_capacity,
        shed_deadline: stats.shed_deadline,
        batches: stats.batches,
        max_batch: stats.max_batch,
        busy_ticks: stats.busy_ticks,
        ticks,
        p50: percentile(&latencies, 50, 100),
        p99: percentile(&latencies, 99, 100),
        p999: percentile(&latencies, 999, 1000),
        max_latency: latencies.last().copied().unwrap_or(0),
        goodput_milli,
        recall_at_1,
        oracle_fallbacks: sim.set().stats().oracle_fallbacks,
        tenant_served: sim.served_per_tenant().to_vec(),
        tenant_shed: sim.shed_per_tenant().to_vec(),
    };
    (scenario, detail)
}

/// Integer Bernoulli threshold for one sub-slot: `p = rate_milli / (1000 ·
/// SUBSLOTS)` mapped onto the full `u64` range.
fn bernoulli_threshold(rate_milli: u64) -> u64 {
    let num = (rate_milli as u128) << 64;
    let den = 1000u128 * SUBSLOTS as u128;
    (num / den).min(u64::MAX as u128) as u64
}

/// Tenant of one arrival: the hot tenant absorbs every other arrival,
/// the rest spread uniformly.
fn pick_tenant(draw: u64, tenants: usize, hot: Option<usize>) -> usize {
    match hot {
        Some(h) if draw.is_multiple_of(2) => h,
        _ => ((draw >> 1) % tenants as u64) as usize,
    }
}

fn chaos_label(event: Option<(usize, u64)>) -> String {
    match event {
        Some((r, at)) => format!("r{r}@{at}"),
        None => "none".to_string(),
    }
}

/// The fixed scenario matrix behind the standard load report. All cells
/// run the Noisy backend at the fault-isolation corner with the
/// [`CostModel::noisy_10k`] service costs — the 64-query-equivalent Noisy
/// 10k-row configuration measured by the PR 6 kernel bench (62 ticks per
/// lone query, ~10.8 amortized at batch 64).
///
/// The two `goodput-*` cells feed the acceptance gate: offered load is 64
/// requests per 1000 ticks ≈ 4x the single-query service capacity
/// (1/62 per tick), and the adaptive cell must clear 3x the goodput of
/// the batch-size-1 cell with p999 under the 512-tick deadline.
pub fn standard_load_specs(seed: u64) -> Vec<LoadSpec> {
    let base = LoadSpec {
        name: "",
        metric: DistanceMetric::Hamming,
        backend: BackendKind::Noisy,
        bits: 2,
        dim: 8,
        rows: 16,
        tenants: 2,
        arrivals: ArrivalModel::OpenLoop { rate_milli: 40 },
        burst: None,
        hot_tenant: None,
        n_requests: 240,
        target_batch: 16,
        deadline_ticks: 512,
        queue_capacity: 64,
        quantum: 1,
        cost: CostModel::noisy_10k(),
        replicas: 2,
        reads: 1,
        agree: 1,
        kill: None,
        revive: None,
        latency_models: false,
        slow_replicas: Vec::new(),
        degrade: None,
        jitter_milli: 0,
        hedge: None,
        brownout: None,
        max_wait_ticks: 0,
        max_ticks: 100_000,
        seed,
    };
    vec![
        LoadSpec { name: "steady-open-4t", tenants: 4, ..base.clone() },
        LoadSpec {
            name: "hot-tenant",
            tenants: 4,
            hot_tenant: Some(0),
            arrivals: ArrivalModel::OpenLoop { rate_milli: 48 },
            queue_capacity: 48,
            ..base.clone()
        },
        LoadSpec {
            name: "burst",
            arrivals: ArrivalModel::OpenLoop { rate_milli: 30 },
            burst: Some(BurstWindow { from_tick: 600, until_tick: 1800, mult: 4 }),
            n_requests: 300,
            queue_capacity: 48,
            ..base.clone()
        },
        LoadSpec {
            name: "closed-loop-4t",
            tenants: 4,
            arrivals: ArrivalModel::ClosedLoop { outstanding: 2 },
            n_requests: 200,
            target_batch: 8,
            queue_capacity: 0,
            ..base.clone()
        },
        LoadSpec {
            name: "brownout",
            metric: DistanceMetric::Manhattan,
            replicas: 3,
            reads: 2,
            agree: 1,
            kill: Some((0, 500)),
            revive: Some((0, 1500)),
            ..base.clone()
        },
        LoadSpec {
            name: "kill-mid-stream",
            replicas: 2,
            reads: 2,
            agree: 2,
            kill: Some((1, 600)),
            ..base.clone()
        },
        LoadSpec {
            name: "goodput-batch1",
            tenants: 1,
            arrivals: ArrivalModel::OpenLoop { rate_milli: 64 },
            n_requests: 300,
            target_batch: 1,
            queue_capacity: 32,
            ..base.clone()
        },
        LoadSpec {
            name: "goodput-adaptive",
            tenants: 1,
            arrivals: ArrivalModel::OpenLoop { rate_milli: 64 },
            n_requests: 300,
            target_batch: 16,
            queue_capacity: 64,
            ..base.clone()
        },
        LoadSpec { name: "latency-tb1", target_batch: 1, n_requests: 200, ..latency_base(&base) },
        LoadSpec { name: "latency-tb4", target_batch: 4, n_requests: 200, ..latency_base(&base) },
        LoadSpec { name: "latency-tb8", target_batch: 8, n_requests: 200, ..latency_base(&base) },
        LoadSpec { name: "latency-tb16", target_batch: 16, n_requests: 200, ..latency_base(&base) },
        LoadSpec { name: "latency-tb32", target_batch: 32, n_requests: 200, ..latency_base(&base) },
    ]
}

/// Shared shape of the `latency-tb*` sweep: fixed offered load of 48
/// requests per 1000 ticks, only the target batch size varies.
fn latency_base(base: &LoadSpec) -> LoadSpec {
    LoadSpec {
        arrivals: ArrivalModel::OpenLoop { rate_milli: 48 },
        deadline_ticks: 768,
        queue_capacity: 64,
        ..base.clone()
    }
}

/// Generates the standard machine-readable load report from one seed.
/// Deterministic: same seed, byte-identical report.
pub fn standard_load_report(seed: u64) -> LoadReport {
    LoadReport { seed, scenarios: standard_load_specs(seed).iter().map(run_load).collect() }
}

/// The v2 (latency-heterogeneity) scenario family: every cell runs
/// seeded per-replica latency models on a 3-replica / 2-read set with
/// hedging and brownout demotion armed, against an all-healthy baseline,
/// three one-slow-replica severities, and a degrading replica.
///
/// The `v2-one-slow-8x` cell feeds the tail-latency SLO gate: with
/// replica 1 at 8x, the hedged p999 must stay within 2x the all-healthy
/// p999 while the unhedged leg of the same cell blows past 5x it.
pub fn standard_load_v2_specs(seed: u64) -> Vec<LoadSpec> {
    let base = LoadSpec {
        name: "",
        metric: DistanceMetric::Hamming,
        backend: BackendKind::Noisy,
        bits: 2,
        dim: 8,
        rows: 16,
        tenants: 2,
        arrivals: ArrivalModel::OpenLoop { rate_milli: 40 },
        burst: None,
        hot_tenant: None,
        n_requests: 240,
        target_batch: 16,
        deadline_ticks: 4096,
        queue_capacity: 64,
        quantum: 1,
        cost: CostModel::noisy_10k(),
        replicas: 3,
        reads: 2,
        agree: 1,
        kill: None,
        revive: None,
        latency_models: true,
        slow_replicas: Vec::new(),
        degrade: None,
        jitter_milli: 1000,
        hedge: Some(HedgePolicy { quantile_milli: 950, budget_milli: 500 }),
        brownout: Some(BrownoutPolicy {
            demote_threshold_milli: 2500,
            reprobe_ticks: 2048,
            ewma_shift: 2,
        }),
        max_wait_ticks: 256,
        max_ticks: 200_000,
        seed,
    };
    vec![
        LoadSpec { name: "v2-all-healthy", ..base.clone() },
        LoadSpec { name: "v2-one-slow-2x", slow_replicas: vec![(1, 2000)], ..base.clone() },
        LoadSpec { name: "v2-one-slow-4x", slow_replicas: vec![(1, 4000)], ..base.clone() },
        LoadSpec { name: "v2-one-slow-8x", slow_replicas: vec![(1, 8000)], ..base.clone() },
        LoadSpec { name: "v2-degrading", degrade: Some((1, 1500)), ..base.clone() },
    ]
}

/// Runs one v2 scenario twice — the spec as given (hedging and brownout
/// armed) and an unhedged leg with both disarmed but identical latency
/// models — and folds both legs plus the per-replica telemetry into one
/// report row.
///
/// # Panics
///
/// As [`run_load_detailed`].
pub fn run_load_v2(spec: &LoadSpec) -> LoadV2Scenario {
    let (hedged, detail) = run_load_detailed(spec);
    let unhedged_spec = LoadSpec { hedge: None, brownout: None, ..spec.clone() };
    let (unhedged, _) = run_load_detailed(&unhedged_spec);
    let per_replica = (0..spec.replicas)
        .map(|i| {
            let mut sorted = detail.samples.get(i).cloned().unwrap_or_default();
            sorted.sort_unstable();
            LoadV2Replica {
                replica: i,
                model: replica_model_label(spec, i),
                reads: sorted.len() as u64,
                p50_ticks: percentile(&sorted, 50, 100),
                p99_ticks: percentile(&sorted, 99, 100),
                max_ticks: sorted.last().copied().unwrap_or(0),
                ewma_milli: detail.ewma_milli.get(i).copied().unwrap_or(1000),
                hedged_against: detail.hedged_against.get(i).copied().unwrap_or(0),
                hedge_wins: detail.hedge_wins_by.get(i).copied().unwrap_or(0),
                demerit_milli: detail.demerit_milli.get(i).copied().unwrap_or(0),
            }
        })
        .collect();
    LoadV2Scenario {
        name: spec.name.to_string(),
        metric: metric_label(spec.metric).to_string(),
        backend: spec.backend.label().to_string(),
        arrivals: spec.arrivals.label(),
        n_requests: spec.n_requests,
        target_batch: spec.target_batch,
        deadline_ticks: spec.deadline_ticks,
        max_wait_ticks: spec.max_wait_ticks,
        replicas: spec.replicas,
        reads: spec.reads,
        agree: spec.agree,
        slow: slow_label(&spec.slow_replicas),
        degrade: match spec.degrade {
            Some((r, d)) => format!("r{r}@{d}"),
            None => "none".to_string(),
        },
        hedge: match spec.hedge {
            Some(h) => format!("q={},b={}", h.quantile_milli, h.budget_milli),
            None => "none".to_string(),
        },
        brownout: match spec.brownout {
            Some(b) => format!("t={},rp={}", b.demote_threshold_milli, b.reprobe_ticks),
            None => "none".to_string(),
        },
        submitted: hedged.submitted,
        served: hedged.served,
        shed_capacity: hedged.shed_capacity,
        shed_deadline: hedged.shed_deadline,
        batches: hedged.batches,
        hedges_issued: detail.stats.hedges_issued,
        hedge_wins: detail.stats.hedge_wins,
        brownout_demotions: detail.stats.brownout_demotions,
        reprobes: detail.stats.reprobes,
        p50: hedged.p50,
        p99: hedged.p99,
        p999: hedged.p999,
        max_latency: hedged.max_latency,
        goodput_milli: hedged.goodput_milli,
        recall_at_1: hedged.recall_at_1,
        unhedged_served: unhedged.served,
        unhedged_p50: unhedged.p50,
        unhedged_p99: unhedged.p99,
        unhedged_p999: unhedged.p999,
        unhedged_goodput_milli: unhedged.goodput_milli,
        per_replica,
    }
}

/// Label of one replica's attached latency model, e.g. `slow@8000`.
fn replica_model_label(spec: &LoadSpec, i: usize) -> String {
    if !spec.latency_models {
        return "none".to_string();
    }
    if let Some(&(_, f)) = spec.slow_replicas.iter().find(|&&(r, _)| r == i) {
        return format!("slow@{f}");
    }
    if let Some((r, d)) = spec.degrade {
        if r == i {
            return format!("degrading@{d}");
        }
    }
    "healthy".to_string()
}

fn slow_label(slow: &[(usize, u64)]) -> String {
    if slow.is_empty() {
        return "none".to_string();
    }
    slow.iter().map(|(r, f)| format!("r{r}@{f}")).collect::<Vec<_>>().join(",")
}

/// Generates the v2 latency/hedging load report from one seed.
/// Deterministic: same seed, byte-identical report.
pub fn standard_load_v2_report(seed: u64) -> LoadV2Report {
    LoadV2Report { seed, scenarios: standard_load_v2_specs(seed).iter().map(run_load_v2).collect() }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bernoulli_threshold_is_proportional() {
        assert_eq!(bernoulli_threshold(0), 0);
        let t1 = bernoulli_threshold(10);
        let t2 = bernoulli_threshold(20);
        // Proportional up to the floor of the integer division.
        assert!(t2 >= t1 * 2 && t2 - t1 * 2 <= 1, "t1 = {t1}, t2 = {t2}");
        // 8000 milli = one arrival per sub-slot: the full range.
        assert_eq!(bernoulli_threshold(8000), u64::MAX);
    }

    #[test]
    fn hot_tenant_takes_half_the_arrivals() {
        let n = 10_000u64;
        let hot = (0..n).filter(|&d| pick_tenant(splitmix64(d), 4, Some(0)) == 0).count();
        // Half by the hot path plus ~1/8 of the uniform remainder.
        let share = hot as f64 / n as f64;
        assert!((0.55..0.70).contains(&share), "hot share {share}");
    }

    #[test]
    fn standard_matrix_covers_the_required_scenarios() {
        let specs = standard_load_specs(11);
        let names: Vec<&str> = specs.iter().map(|s| s.name).collect();
        for required in [
            "steady-open-4t",
            "hot-tenant",
            "burst",
            "closed-loop-4t",
            "brownout",
            "kill-mid-stream",
            "goodput-batch1",
            "goodput-adaptive",
        ] {
            assert!(names.contains(&required), "missing scenario {required}");
        }
        // The goodput pair differs only in serving-loop shape, not load.
        let b1 = specs.iter().find(|s| s.name == "goodput-batch1").unwrap();
        let ad = specs.iter().find(|s| s.name == "goodput-adaptive").unwrap();
        assert_eq!(b1.arrivals, ad.arrivals);
        assert_eq!(b1.n_requests, ad.n_requests);
        assert_eq!(b1.deadline_ticks, ad.deadline_ticks);
        assert_eq!(b1.target_batch, 1);
        assert!(ad.target_batch > 1);
        // Offered load clears 2x the single-query service rate.
        let service_one = b1.cost.service_ticks(1);
        if let ArrivalModel::OpenLoop { rate_milli } = b1.arrivals {
            assert!(rate_milli * service_one >= 2 * 1000, "offered load below the 2x gate floor");
        } else {
            panic!("goodput cells must be open loop");
        }
    }

    #[test]
    fn small_open_loop_scenario_is_deterministic() {
        let spec =
            LoadSpec { n_requests: 40, max_ticks: 20_000, ..standard_load_specs(3).remove(0) };
        let a = run_load(&spec);
        let b = run_load(&spec);
        assert_eq!(a, b);
        assert_eq!(a.submitted, 40);
        assert_eq!(a.submitted, a.served + a.shed_capacity + a.shed_deadline);
        assert!(a.p50 <= a.p99 && a.p99 <= a.p999);
        assert!(a.max_latency <= a.deadline_ticks, "admitted requests never miss deadlines");
    }
}
