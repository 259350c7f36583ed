//! Machine-readable degradation report.
//!
//! Serialized as JSON through [`crate::json`], so each `to_json` only lists
//! its members. The schema is versioned by the `schema` field; consumers
//! are `ferex-bench`'s `robustness` binary and the CI conformance job,
//! which archives the file as a build artifact.

use crate::json::{self, Object};

/// One sampled point of a degradation curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CurvePoint {
    /// Injected per-cell fault rate.
    pub rate: f64,
    /// Fraction of queries whose device top-1 equals the oracle top-1.
    pub recall_at_1: f64,
    /// Fraction of queries whose device top-k contains the oracle top-1.
    pub recall_at_k: f64,
}

/// Recall-vs-fault-rate curve for one (metric, backend, fault) cell of the
/// sweep matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct DegradationCurve {
    /// Metric label (`hamming`, `manhattan`, `euclidean2`).
    pub metric: String,
    /// Backend label (`noisy`, `circuit`).
    pub backend: String,
    /// Fault-type label (`sa0`, `sa1`, `open`, `short`).
    pub fault: String,
    /// Stored rows per trial array.
    pub rows: usize,
    /// Symbols per vector.
    pub dim: usize,
    /// Queries per trial.
    pub n_queries: usize,
    /// Independent arrays averaged per rate point.
    pub trials: u64,
    /// The `k` of `recall_at_k`.
    pub k: usize,
    /// Sampled points, in ascending rate order.
    pub points: Vec<CurvePoint>,
}

impl DegradationCurve {
    /// `true` if recall@1 never rises by more than `slack` between
    /// consecutive rate points — the monotone-degradation contract with a
    /// finite-sample allowance.
    pub fn is_monotone_within(&self, slack: f64) -> bool {
        self.points.windows(2).all(|w| w[1].recall_at_1 <= w[0].recall_at_1 + slack)
    }

    /// Total recall@1 drop from the first to the last rate point.
    pub fn total_drop(&self) -> f64 {
        match (self.points.first(), self.points.last()) {
            (Some(a), Some(b)) => a.recall_at_1 - b.recall_at_1,
            _ => 0.0,
        }
    }
}

/// The full conformance degradation report.
#[derive(Debug, Clone, PartialEq)]
pub struct ConformanceReport {
    /// Base seed the whole sweep derives from.
    pub seed: u64,
    /// Symbol bit width of the sweep.
    pub bits: u32,
    /// Curves for every (metric, backend, fault) combination swept.
    pub curves: Vec<DegradationCurve>,
}

impl ConformanceReport {
    /// Schema tag embedded in every serialized report.
    pub const SCHEMA: &'static str = "ferex-conformance-degradation-v1";

    /// Serializes the report as pretty-printed JSON.
    pub fn to_json(&self) -> String {
        json::document(|o| {
            o.str("schema", Self::SCHEMA).num("seed", self.seed).num("bits", self.bits);
            o.objects("curves", &self.curves, false, |o, c| {
                o.str("metric", &c.metric)
                    .str("backend", &c.backend)
                    .str("fault", &c.fault)
                    .num("rows", c.rows)
                    .num("dim", c.dim)
                    .num("n_queries", c.n_queries)
                    .num("trials", c.trials)
                    .num("k", c.k)
                    .objects("points", &c.points, true, |o, p| {
                        o.float("rate", p.rate)
                            .float("recall_at_1", p.recall_at_1)
                            .float("recall_at_k", p.recall_at_k);
                    });
            });
        })
    }
}

/// One sampled point of a recall-recovery curve: the same faulted array
/// measured without and with the self-healing repair pipeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecoveryPoint {
    /// Injected per-cell fault rate.
    pub rate: f64,
    /// recall@1 of the faulted array with repair disabled (PR 2 baseline).
    pub recall_faulted_1: f64,
    /// recall@k of the faulted array with repair disabled.
    pub recall_faulted_k: f64,
    /// recall@1 after write-verify + row sparing.
    pub recall_healed_1: f64,
    /// recall@k after write-verify + row sparing.
    pub recall_healed_k: f64,
    /// Logical rows quarantined across all trials at this rate.
    pub rows_quarantined: usize,
    /// Quarantined rows successfully remapped onto spares, summed over
    /// trials.
    pub rows_remapped: usize,
    /// Quarantined rows excluded because the spare pool ran dry, summed
    /// over trials.
    pub rows_excluded: usize,
}

/// Recovery curve for one (metric, backend, fault) cell of the sweep
/// matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryCurve {
    /// Metric label (`hamming`, `manhattan`, `euclidean2`).
    pub metric: String,
    /// Backend label (`noisy`, `circuit`).
    pub backend: String,
    /// Fault-type label (`sa0`, `sa1`, `open`, `short`).
    pub fault: String,
    /// Stored rows per trial array.
    pub rows: usize,
    /// Spare rows granted to the repair policy.
    pub spare_rows: usize,
    /// Symbols per vector.
    pub dim: usize,
    /// Queries per trial.
    pub n_queries: usize,
    /// Independent arrays averaged per rate point.
    pub trials: u64,
    /// The `k` of recall@k.
    pub k: usize,
    /// Sampled points, in ascending rate order.
    pub points: Vec<RecoveryPoint>,
}

impl RecoveryCurve {
    /// `true` if self-healing never lowers recall@1 below the no-repair
    /// baseline by more than `slack` at any rate point.
    pub fn never_regresses_within(&self, slack: f64) -> bool {
        self.points.iter().all(|p| p.recall_healed_1 >= p.recall_faulted_1 - slack)
    }
}

/// The full self-healing recall-recovery report.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryReport {
    /// Base seed the whole sweep derives from.
    pub seed: u64,
    /// Symbol bit width of the sweep.
    pub bits: u32,
    /// Curves for every (metric, backend, fault) combination swept.
    pub curves: Vec<RecoveryCurve>,
}

impl RecoveryReport {
    /// Schema tag embedded in every serialized recovery report.
    pub const SCHEMA: &'static str = "ferex-conformance-recovery-v1";

    /// Serializes the report as pretty-printed JSON.
    pub fn to_json(&self) -> String {
        json::document(|o| {
            o.str("schema", Self::SCHEMA).num("seed", self.seed).num("bits", self.bits);
            o.objects("curves", &self.curves, false, |o, c| {
                o.str("metric", &c.metric)
                    .str("backend", &c.backend)
                    .str("fault", &c.fault)
                    .num("rows", c.rows)
                    .num("spare_rows", c.spare_rows)
                    .num("dim", c.dim)
                    .num("n_queries", c.n_queries)
                    .num("trials", c.trials)
                    .num("k", c.k)
                    .objects("points", &c.points, true, |o, p| {
                        o.float("rate", p.rate)
                            .float("recall_faulted_1", p.recall_faulted_1)
                            .float("recall_faulted_k", p.recall_faulted_k)
                            .float("recall_healed_1", p.recall_healed_1)
                            .float("recall_healed_k", p.recall_healed_k)
                            .num("rows_quarantined", p.rows_quarantined)
                            .num("rows_remapped", p.rows_remapped)
                            .num("rows_excluded", p.rows_excluded);
                    });
            });
        })
    }
}

/// One sampled point of a chaos-soak availability curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChaosPoint {
    /// Fault rate injected into the faulted replica.
    pub rate: f64,
    /// Fraction of the stream whose served answer equals the oracle top-1.
    pub recall_at_1: f64,
    /// Queries answered by the digital fallback.
    pub oracle_fallbacks: u64,
    /// Queries on which at least one read replica dissented.
    pub disagreements: u64,
    /// Targeted scrubs escalated from dissents.
    pub scrubs_escalated: u64,
    /// Maintenance scrubs fired by the schedule.
    pub scheduled_scrubs: u64,
    /// Circuit-breaker trips across the soak.
    pub breaker_trips: u64,
    /// Replicas still alive at the end of the stream.
    pub replicas_alive: usize,
}

/// Availability curve of one chaos soak cell.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosCurve {
    /// Metric label (`hamming`, `manhattan`, `euclidean2`).
    pub metric: String,
    /// Backend label (`noisy`, `circuit`).
    pub backend: String,
    /// Fault-type label (`sa0`, `sa1`, `open`, `short`).
    pub fault: String,
    /// Stored rows per replica.
    pub rows: usize,
    /// Symbols per vector.
    pub dim: usize,
    /// Length of the served query stream.
    pub n_queries: usize,
    /// Replica count.
    pub replicas: usize,
    /// Quorum reads per query.
    pub reads: usize,
    /// Quorum agreement threshold.
    pub agree: usize,
    /// Spare rows of each replica's repair policy (0 = no repair).
    pub spare_rows: usize,
    /// Replica carrying the fault plan.
    pub faulted_replica: usize,
    /// Replica killed mid-stream, if any.
    pub kill_replica: Option<usize>,
    /// Query index of the kill.
    pub kill_at_query: usize,
    /// Maintenance scrub period in queries (0 = disabled).
    pub scrub_period: usize,
    /// Sampled points, in ascending rate order.
    pub points: Vec<ChaosPoint>,
}

impl ChaosCurve {
    /// `true` if recall@1 stays at or above `floor` at every rate point —
    /// the availability gate of the chaos soak.
    pub fn meets_recall_floor(&self, floor: f64) -> bool {
        self.points.iter().all(|p| p.recall_at_1 >= floor)
    }
}

/// The full chaos-soak availability report.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosReport {
    /// Base seed the whole soak derives from.
    pub seed: u64,
    /// Symbol bit width of the soak.
    pub bits: u32,
    /// Curves for every chaos cell soaked.
    pub curves: Vec<ChaosCurve>,
}

impl ChaosReport {
    /// Schema tag embedded in every serialized chaos report.
    pub const SCHEMA: &'static str = "ferex-conformance-chaos-v1";

    /// Serializes the report as pretty-printed JSON.
    pub fn to_json(&self) -> String {
        json::document(|o| {
            o.str("schema", Self::SCHEMA).num("seed", self.seed).num("bits", self.bits);
            o.objects("curves", &self.curves, false, |o, c| {
                o.str("metric", &c.metric)
                    .str("backend", &c.backend)
                    .str("fault", &c.fault)
                    .num("rows", c.rows)
                    .num("dim", c.dim)
                    .num("n_queries", c.n_queries)
                    .num("replicas", c.replicas)
                    .num("reads", c.reads)
                    .num("agree", c.agree)
                    .num("spare_rows", c.spare_rows)
                    .num("faulted_replica", c.faulted_replica)
                    .opt("kill_replica", c.kill_replica)
                    .num("kill_at_query", c.kill_at_query)
                    .num("scrub_period", c.scrub_period)
                    .objects("points", &c.points, true, |o, p| {
                        o.float("rate", p.rate)
                            .float("recall_at_1", p.recall_at_1)
                            .num("oracle_fallbacks", p.oracle_fallbacks)
                            .num("disagreements", p.disagreements)
                            .num("scrubs_escalated", p.scrubs_escalated)
                            .num("scheduled_scrubs", p.scheduled_scrubs)
                            .num("breaker_trips", p.breaker_trips)
                            .num("replicas_alive", p.replicas_alive);
                    });
            });
        })
    }
}

/// One row of per-slot wear telemetry, the serialized form of
/// [`ferex_core::WearSummary`] plus the maintenance rotation count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WearRow {
    /// Hottest slot's program/erase cycle count.
    pub max_cycles: u64,
    /// Mean cycles across all slots, in 1/1000 cycles.
    pub mean_milli: u64,
    /// `max / mean` per-mille — the wear-leveling figure of merit.
    pub imbalance_milli: u64,
    /// Median slot cycles (nearest-rank).
    pub p50_cycles: u64,
    /// 90th-percentile slot cycles (nearest-rank).
    pub p90_cycles: u64,
    /// Total write attempts absorbed by the array.
    pub total_writes: u64,
    /// Compaction passes run.
    pub compactions: u64,
    /// Wear rotations applied by maintenance.
    pub rotated: u64,
}

impl WearRow {
    /// Flattens a core wear summary plus the soak's rotation counter.
    pub fn from_summary(w: &ferex_core::WearSummary, rotated: u64) -> Self {
        WearRow {
            max_cycles: w.max_cycles,
            mean_milli: w.mean_milli,
            imbalance_milli: w.imbalance_milli(),
            p50_cycles: w.p50_cycles,
            p90_cycles: w.p90_cycles,
            total_writes: w.total_writes,
            compactions: w.compactions,
            rotated,
        }
    }

    /// Writes the row's members, the one layout of every wear object.
    fn members(&self, o: &mut Object<'_>) {
        o.num("max_cycles", self.max_cycles)
            .num("mean_milli", self.mean_milli)
            .num("imbalance_milli", self.imbalance_milli)
            .num("p50_cycles", self.p50_cycles)
            .num("p90_cycles", self.p90_cycles)
            .num("total_writes", self.total_writes)
            .num("compactions", self.compactions)
            .num("rotated", self.rotated);
    }
}

/// One cell of the mutation soak: op counters, rebuild-equivalence
/// checkpoints, churn-serving recall, and final wear telemetry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MutationScenario {
    /// Scenario label, `<metric>-<backend>`.
    pub name: String,
    /// Metric label (`hamming`, `manhattan`, `euclidean2`).
    pub metric: String,
    /// Backend label (`ideal`, `noisy`, `circuit`).
    pub backend: String,
    /// Symbols per vector.
    pub dim: usize,
    /// Physical slot capacity.
    pub capacity: usize,
    /// Live ids seeded before the churn.
    pub initial: usize,
    /// Ops in the interleaved schedule.
    pub ops: usize,
    /// Replica count the churn was served through.
    pub replicas: usize,
    /// Insert ops applied.
    pub inserts: u64,
    /// Update ops applied.
    pub updates: u64,
    /// Delete ops applied.
    pub deletes: u64,
    /// Rebuild-equivalence checkpoints taken.
    pub checkpoints: usize,
    /// Checkpoints whose id-keyed distances byte-matched the rebuild.
    pub checkpoints_matched: usize,
    /// Quorum searches served during the churn.
    pub searches: usize,
    /// recall@1 against the digital mirror, per-mille.
    pub recall_milli: u64,
    /// Digital-oracle fallbacks taken by the supervisor.
    pub oracle_fallbacks: u64,
    /// Quorum disagreements observed.
    pub disagreements: u64,
    /// Live ids at the end of the schedule.
    pub live_rows: usize,
    /// Final wear telemetry of replica 0.
    pub wear: WearRow,
}

/// The endurance soak: one hot-id churn with wear leveling and one
/// without, identical op streams otherwise.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChurnSoak {
    /// Physical slot capacity.
    pub capacity: usize,
    /// Live ids held through the soak.
    pub live: usize,
    /// Update rounds.
    pub rounds: usize,
    /// Hot ids absorbing every update.
    pub hot_ids: usize,
    /// Maintenance cadence, in rounds.
    pub maintenance_period: usize,
    /// Wear with the rotation policy on.
    pub leveled: WearRow,
    /// Wear with the rotation policy off.
    pub unleveled: WearRow,
}

/// The archived online-mutation report: every standard cell plus the
/// endurance soak, with the three gates as methods.
#[derive(Debug, Clone, PartialEq)]
pub struct MutationReport {
    /// Base seed the whole soak derives from.
    pub seed: u64,
    /// Symbol bit width of the soak.
    pub bits: u32,
    /// One row per mutation cell.
    pub scenarios: Vec<MutationScenario>,
    /// The leveled-vs-unleveled endurance soak.
    pub churn: ChurnSoak,
}

impl MutationReport {
    /// Schema tag embedded in every serialized mutation report.
    pub const SCHEMA: &'static str = "ferex-mutation-v1";

    /// Gate (a): every checkpoint in every cell byte-matched its
    /// from-scratch rebuild (and at least one checkpoint ran).
    pub fn rebuild_equivalence_holds(&self) -> bool {
        !self.scenarios.is_empty()
            && self
                .scenarios
                .iter()
                .all(|s| s.checkpoints > 0 && s.checkpoints_matched == s.checkpoints)
    }

    /// Gate (b): churn-serving recall@1 stays at or above the floor in
    /// every cell (and every cell actually served searches).
    pub fn meets_recall_floor(&self, floor_milli: u64) -> bool {
        !self.scenarios.is_empty()
            && self.scenarios.iter().all(|s| s.searches > 0 && s.recall_milli >= floor_milli)
    }

    /// Gate (c): leveled wear imbalance stays within 2x the mean while
    /// the unleveled leg exceeds 5x.
    pub fn wear_gates_hold(&self) -> bool {
        self.churn.leveled.imbalance_milli <= 2000 && self.churn.unleveled.imbalance_milli >= 5000
    }

    /// All three gates at the acceptance floor (perfect recall).
    pub fn passes(&self) -> bool {
        self.rebuild_equivalence_holds() && self.meets_recall_floor(1000) && self.wear_gates_hold()
    }

    /// Serializes the report as pretty-printed JSON.
    pub fn to_json(&self) -> String {
        json::document(|o| {
            o.str("schema", Self::SCHEMA).num("seed", self.seed).num("bits", self.bits);
            o.objects("scenarios", &self.scenarios, false, |o, s| {
                o.str("name", &s.name)
                    .str("metric", &s.metric)
                    .str("backend", &s.backend)
                    .num("dim", s.dim)
                    .num("capacity", s.capacity)
                    .num("initial", s.initial)
                    .num("ops", s.ops)
                    .num("replicas", s.replicas)
                    .num("inserts", s.inserts)
                    .num("updates", s.updates)
                    .num("deletes", s.deletes)
                    .num("checkpoints", s.checkpoints)
                    .num("checkpoints_matched", s.checkpoints_matched)
                    .num("searches", s.searches)
                    .num("recall_milli", s.recall_milli)
                    .num("oracle_fallbacks", s.oracle_fallbacks)
                    .num("disagreements", s.disagreements)
                    .num("live_rows", s.live_rows)
                    .object("wear", true, |o| s.wear.members(o));
            });
            let c = &self.churn;
            o.object("churn", false, |o| {
                o.num("capacity", c.capacity)
                    .num("live", c.live)
                    .num("rounds", c.rounds)
                    .num("hot_ids", c.hot_ids)
                    .num("maintenance_period", c.maintenance_period)
                    .object("leveled", true, |o| c.leveled.members(o))
                    .object("unleveled", true, |o| c.unleveled.members(o));
            });
        })
    }
}

/// One scenario row of the serving-loop load report: scenario shape,
/// serving counters, and the exact virtual-latency distribution.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadScenario {
    /// Scenario name (`steady-open-4t`, `goodput-adaptive`, ...).
    pub name: String,
    /// Metric label (`hamming`, `manhattan`, `euclidean2`).
    pub metric: String,
    /// Backend label (`noisy`, `circuit`).
    pub backend: String,
    /// Stored rows per replica.
    pub rows: usize,
    /// Symbols per vector.
    pub dim: usize,
    /// Tenant count.
    pub tenants: usize,
    /// Arrival-model label (`open@64`, `closed@2`).
    pub arrivals: String,
    /// Burst-window label (`600..1800x4`, or `none`).
    pub burst: String,
    /// Tenant receiving half of all arrivals, if any.
    pub hot_tenant: Option<usize>,
    /// Requests in the stream.
    pub n_requests: usize,
    /// Batch former's target size.
    pub target_batch: usize,
    /// Per-request deadline in ticks.
    pub deadline_ticks: u64,
    /// Serving-queue capacity (0 = unbounded).
    pub queue_capacity: usize,
    /// DRR quantum.
    pub quantum: u32,
    /// Cost model: fixed ticks per batch activation.
    pub setup_ticks: u64,
    /// Cost model: ticks per query within a batch.
    pub per_query_ticks: u64,
    /// Replica count.
    pub replicas: usize,
    /// Quorum reads per query.
    pub reads: usize,
    /// Quorum agreement threshold.
    pub agree: usize,
    /// Kill-schedule label (`r1@600`, or `none`).
    pub kill: String,
    /// Revive-schedule label (`r0@1500`, or `none`).
    pub revive: String,
    /// Requests submitted.
    pub submitted: u64,
    /// Requests served to completion.
    pub served: u64,
    /// Requests shed by queue backpressure.
    pub shed_capacity: u64,
    /// Requests shed because their deadline became unmeetable.
    pub shed_deadline: u64,
    /// Batches served.
    pub batches: u64,
    /// Largest batch served.
    pub max_batch: u64,
    /// Virtual ticks the array spent serving.
    pub busy_ticks: u64,
    /// Virtual ticks from first arrival to last completion.
    pub ticks: u64,
    /// Median virtual latency (exact integer, nearest rank).
    pub p50: u64,
    /// 99th-percentile virtual latency.
    pub p99: u64,
    /// 99.9th-percentile virtual latency.
    pub p999: u64,
    /// Largest served latency.
    pub max_latency: u64,
    /// Served requests per 1000 virtual ticks.
    pub goodput_milli: u64,
    /// Fraction of served answers equal to the oracle top-1.
    pub recall_at_1: f64,
    /// Queries answered by the digital fallback.
    pub oracle_fallbacks: u64,
    /// Requests served per tenant.
    pub tenant_served: Vec<u64>,
    /// Requests shed per tenant.
    pub tenant_shed: Vec<u64>,
}

impl LoadScenario {
    /// `true` when no served request finished past its deadline — the
    /// latency-distribution gate (`p999 <= deadline` follows a fortiori).
    pub fn meets_deadline(&self) -> bool {
        self.max_latency <= self.deadline_ticks
    }

    /// `true` when the serving counters balance:
    /// `submitted == served + shed_capacity + shed_deadline`.
    pub fn counters_balance(&self) -> bool {
        self.submitted == self.served + self.shed_capacity + self.shed_deadline
    }
}

/// The full serving-loop load report.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadReport {
    /// Base seed every scenario derives from.
    pub seed: u64,
    /// One row per scenario of the standard matrix.
    pub scenarios: Vec<LoadScenario>,
}

impl LoadReport {
    /// Schema tag embedded in every serialized load report.
    pub const SCHEMA: &'static str = "ferex-load-v1";

    /// Finds a scenario row by name.
    pub fn scenario(&self, name: &str) -> Option<&LoadScenario> {
        self.scenarios.iter().find(|s| s.name == name)
    }

    /// Serializes the report as pretty-printed JSON.
    pub fn to_json(&self) -> String {
        json::document(|o| {
            o.str("schema", Self::SCHEMA).num("seed", self.seed);
            o.objects("scenarios", &self.scenarios, false, |o, s| {
                o.str("name", &s.name)
                    .str("metric", &s.metric)
                    .str("backend", &s.backend)
                    .num("rows", s.rows)
                    .num("dim", s.dim)
                    .num("tenants", s.tenants)
                    .str("arrivals", &s.arrivals)
                    .str("burst", &s.burst)
                    .opt("hot_tenant", s.hot_tenant)
                    .num("n_requests", s.n_requests)
                    .num("target_batch", s.target_batch)
                    .num("deadline_ticks", s.deadline_ticks)
                    .num("queue_capacity", s.queue_capacity)
                    .num("quantum", s.quantum)
                    .num("setup_ticks", s.setup_ticks)
                    .num("per_query_ticks", s.per_query_ticks)
                    .num("replicas", s.replicas)
                    .num("reads", s.reads)
                    .num("agree", s.agree)
                    .str("kill", &s.kill)
                    .str("revive", &s.revive)
                    .num("submitted", s.submitted)
                    .num("served", s.served)
                    .num("shed_capacity", s.shed_capacity)
                    .num("shed_deadline", s.shed_deadline)
                    .num("batches", s.batches)
                    .num("max_batch", s.max_batch)
                    .num("busy_ticks", s.busy_ticks)
                    .num("ticks", s.ticks)
                    .num("p50", s.p50)
                    .num("p99", s.p99)
                    .num("p999", s.p999)
                    .num("max_latency", s.max_latency)
                    .num("goodput_milli", s.goodput_milli)
                    .float("recall_at_1", s.recall_at_1)
                    .num("oracle_fallbacks", s.oracle_fallbacks)
                    .nums("tenant_served", &s.tenant_served)
                    .nums("tenant_shed", &s.tenant_shed);
            });
        })
    }
}

/// Per-replica latency telemetry of one v2 scenario: the sampled
/// service-tick distribution seen by the scheduler, the EWMA it steered
/// by, and the hedge/brownout counters attributed to this replica.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadV2Replica {
    /// Replica index.
    pub replica: usize,
    /// Latency-model label (`healthy`, `slow@8000`, `degrading@1500`,
    /// `none`).
    pub model: String,
    /// Batch reads sampled against this replica (hedge duplicates
    /// included).
    pub reads: u64,
    /// Median sampled service ticks (nearest rank; 0 if never read).
    pub p50_ticks: u64,
    /// 99th-percentile sampled service ticks.
    pub p99_ticks: u64,
    /// Largest sampled service ticks.
    pub max_ticks: u64,
    /// Final EWMA slowdown estimate, per-mille of the expected cost.
    pub ewma_milli: u64,
    /// Hedges issued because this replica held the slow slot.
    pub hedged_against: u64,
    /// Hedges this replica won as the duplicate read.
    pub hedge_wins: u64,
    /// Final routing demerit, per-mille (0 when not browned out).
    pub demerit_milli: u64,
}

/// One scenario row of the v2 (latency-heterogeneity) load report:
/// scenario shape, the hedged serving leg, the unhedged leg of the same
/// spec, and per-replica latency telemetry.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadV2Scenario {
    /// Scenario name (`v2-one-slow-8x`, ...).
    pub name: String,
    /// Metric label (`hamming`, `manhattan`, `euclidean2`).
    pub metric: String,
    /// Backend label (`noisy`, `circuit`).
    pub backend: String,
    /// Arrival-model label (`open@40`, `closed@2`).
    pub arrivals: String,
    /// Requests in the stream.
    pub n_requests: usize,
    /// Batch former's target size.
    pub target_batch: usize,
    /// Per-request deadline in ticks.
    pub deadline_ticks: u64,
    /// Partial-batch flush age in ticks (0 = disabled).
    pub max_wait_ticks: u64,
    /// Replica count.
    pub replicas: usize,
    /// Quorum reads per query.
    pub reads: usize,
    /// Quorum agreement threshold.
    pub agree: usize,
    /// Slow-replica plan label (`r1@8000`, or `none`).
    pub slow: String,
    /// Degrading-replica plan label (`r1@1500`, or `none`).
    pub degrade: String,
    /// Hedge-policy label (`q=950,b=500`, or `none`).
    pub hedge: String,
    /// Brownout-policy label (`t=2500,rp=2048`, or `none`).
    pub brownout: String,
    /// Requests submitted (hedged leg).
    pub submitted: u64,
    /// Requests served to completion (hedged leg).
    pub served: u64,
    /// Requests shed by queue backpressure (hedged leg).
    pub shed_capacity: u64,
    /// Requests shed because their deadline became unmeetable (hedged
    /// leg).
    pub shed_deadline: u64,
    /// Batches served (hedged leg).
    pub batches: u64,
    /// Hedge duplicates issued.
    pub hedges_issued: u64,
    /// Hedges whose duplicate beat the slow primary.
    pub hedge_wins: u64,
    /// Brownout demotions.
    pub brownout_demotions: u64,
    /// Half-open re-probes of demoted replicas.
    pub reprobes: u64,
    /// Median virtual latency of the hedged leg.
    pub p50: u64,
    /// 99th-percentile virtual latency of the hedged leg.
    pub p99: u64,
    /// 99.9th-percentile virtual latency of the hedged leg.
    pub p999: u64,
    /// Largest served latency of the hedged leg.
    pub max_latency: u64,
    /// Served requests per 1000 virtual ticks, hedged leg.
    pub goodput_milli: u64,
    /// Fraction of served answers equal to the oracle top-1 (hedged leg).
    pub recall_at_1: f64,
    /// Requests served by the unhedged leg.
    pub unhedged_served: u64,
    /// Median virtual latency of the unhedged leg.
    pub unhedged_p50: u64,
    /// 99th-percentile virtual latency of the unhedged leg.
    pub unhedged_p99: u64,
    /// 99.9th-percentile virtual latency of the unhedged leg.
    pub unhedged_p999: u64,
    /// Served requests per 1000 virtual ticks, unhedged leg.
    pub unhedged_goodput_milli: u64,
    /// Per-replica latency telemetry of the hedged leg.
    pub per_replica: Vec<LoadV2Replica>,
}

impl LoadV2Scenario {
    /// `true` when the hedged leg's serving counters balance:
    /// `submitted == served + shed_capacity + shed_deadline`.
    pub fn counters_balance(&self) -> bool {
        self.submitted == self.served + self.shed_capacity + self.shed_deadline
    }
}

/// The full v2 (latency-heterogeneity) load report.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadV2Report {
    /// Base seed every scenario derives from.
    pub seed: u64,
    /// One row per scenario of the v2 matrix.
    pub scenarios: Vec<LoadV2Scenario>,
}

impl LoadV2Report {
    /// Schema tag embedded in every serialized v2 load report.
    pub const SCHEMA: &'static str = "ferex-load-v2";

    /// Finds a scenario row by name.
    pub fn scenario(&self, name: &str) -> Option<&LoadV2Scenario> {
        self.scenarios.iter().find(|s| s.name == name)
    }

    /// Serializes the report as pretty-printed JSON.
    pub fn to_json(&self) -> String {
        json::document(|o| {
            o.str("schema", Self::SCHEMA).num("seed", self.seed);
            o.objects("scenarios", &self.scenarios, false, |o, s| {
                o.str("name", &s.name)
                    .str("metric", &s.metric)
                    .str("backend", &s.backend)
                    .str("arrivals", &s.arrivals)
                    .num("n_requests", s.n_requests)
                    .num("target_batch", s.target_batch)
                    .num("deadline_ticks", s.deadline_ticks)
                    .num("max_wait_ticks", s.max_wait_ticks)
                    .num("replicas", s.replicas)
                    .num("reads", s.reads)
                    .num("agree", s.agree)
                    .str("slow", &s.slow)
                    .str("degrade", &s.degrade)
                    .str("hedge", &s.hedge)
                    .str("brownout", &s.brownout)
                    .num("submitted", s.submitted)
                    .num("served", s.served)
                    .num("shed_capacity", s.shed_capacity)
                    .num("shed_deadline", s.shed_deadline)
                    .num("batches", s.batches)
                    .num("hedges_issued", s.hedges_issued)
                    .num("hedge_wins", s.hedge_wins)
                    .num("brownout_demotions", s.brownout_demotions)
                    .num("reprobes", s.reprobes)
                    .num("p50", s.p50)
                    .num("p99", s.p99)
                    .num("p999", s.p999)
                    .num("max_latency", s.max_latency)
                    .num("goodput_milli", s.goodput_milli)
                    .float("recall_at_1", s.recall_at_1)
                    .num("unhedged_served", s.unhedged_served)
                    .num("unhedged_p50", s.unhedged_p50)
                    .num("unhedged_p99", s.unhedged_p99)
                    .num("unhedged_p999", s.unhedged_p999)
                    .num("unhedged_goodput_milli", s.unhedged_goodput_milli)
                    .objects("per_replica", &s.per_replica, true, |o, r| {
                        o.num("replica", r.replica)
                            .str("model", &r.model)
                            .num("reads", r.reads)
                            .num("p50_ticks", r.p50_ticks)
                            .num("p99_ticks", r.p99_ticks)
                            .num("max_ticks", r.max_ticks)
                            .num("ewma_milli", r.ewma_milli)
                            .num("hedged_against", r.hedged_against)
                            .num("hedge_wins", r.hedge_wins)
                            .num("demerit_milli", r.demerit_milli);
                    });
            });
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ConformanceReport {
        ConformanceReport {
            seed: 42,
            bits: 2,
            curves: vec![DegradationCurve {
                metric: "hamming".into(),
                backend: "noisy".into(),
                fault: "sa1".into(),
                rows: 8,
                dim: 6,
                n_queries: 16,
                trials: 2,
                k: 3,
                points: vec![
                    CurvePoint { rate: 0.0, recall_at_1: 1.0, recall_at_k: 1.0 },
                    CurvePoint { rate: 0.25, recall_at_1: 0.5, recall_at_k: 0.75 },
                ],
            }],
        }
    }

    #[test]
    fn json_has_schema_and_all_points() {
        let json = sample().to_json();
        assert!(json.contains("\"schema\": \"ferex-conformance-degradation-v1\""));
        assert!(json.contains("\"metric\": \"hamming\""));
        assert!(json.contains("{\"rate\": 0, \"recall_at_1\": 1, \"recall_at_k\": 1}"));
        assert!(json.contains("{\"rate\": 0.25, \"recall_at_1\": 0.5, \"recall_at_k\": 0.75}"));
        // Structurally balanced.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn monotonicity_and_drop_helpers() {
        let report = sample();
        let curve = &report.curves[0];
        assert!(curve.is_monotone_within(0.0));
        assert!((curve.total_drop() - 0.5).abs() < 1e-12);
        let mut rising = curve.clone();
        rising.points.reverse();
        assert!(!rising.is_monotone_within(0.1));
        assert!(rising.is_monotone_within(0.6));
    }

    #[test]
    fn recovery_json_has_schema_and_balanced_structure() {
        let report = RecoveryReport {
            seed: 42,
            bits: 2,
            curves: vec![RecoveryCurve {
                metric: "hamming".into(),
                backend: "noisy".into(),
                fault: "sa0".into(),
                rows: 16,
                spare_rows: 32,
                dim: 12,
                n_queries: 24,
                trials: 3,
                k: 3,
                points: vec![RecoveryPoint {
                    rate: 0.01,
                    recall_faulted_1: 0.9,
                    recall_faulted_k: 0.95,
                    recall_healed_1: 1.0,
                    recall_healed_k: 1.0,
                    rows_quarantined: 4,
                    rows_remapped: 4,
                    rows_excluded: 0,
                }],
            }],
        };
        let json = report.to_json();
        assert!(json.contains("\"schema\": \"ferex-conformance-recovery-v1\""));
        assert!(json.contains("\"spare_rows\": 32"));
        assert!(json.contains("\"recall_healed_1\": 1"));
        assert!(json.contains("\"rows_remapped\": 4"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        assert!(report.curves[0].never_regresses_within(0.0));
        let mut regressing = report.clone();
        regressing.curves[0].points[0].recall_healed_1 = 0.5;
        assert!(!regressing.curves[0].never_regresses_within(0.1));
    }

    #[test]
    fn chaos_json_has_schema_and_balanced_structure() {
        let report = ChaosReport {
            seed: 42,
            bits: 2,
            curves: vec![ChaosCurve {
                metric: "hamming".into(),
                backend: "noisy".into(),
                fault: "sa1".into(),
                rows: 16,
                dim: 12,
                n_queries: 60,
                replicas: 3,
                reads: 2,
                agree: 2,
                spare_rows: 2,
                faulted_replica: 0,
                kill_replica: Some(1),
                kill_at_query: 30,
                scrub_period: 16,
                points: vec![ChaosPoint {
                    rate: 0.01,
                    recall_at_1: 1.0,
                    oracle_fallbacks: 3,
                    disagreements: 3,
                    scrubs_escalated: 1,
                    scheduled_scrubs: 6,
                    breaker_trips: 0,
                    replicas_alive: 2,
                }],
            }],
        };
        let json = report.to_json();
        assert!(json.contains("\"schema\": \"ferex-conformance-chaos-v1\""));
        assert!(json.contains("\"replicas\": 3"));
        assert!(json.contains("\"kill_replica\": 1"));
        assert!(json.contains("\"recall_at_1\": 1, \"oracle_fallbacks\": 3"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        assert!(report.curves[0].meets_recall_floor(0.99));
        let mut degraded = report.clone();
        degraded.curves[0].points[0].recall_at_1 = 0.9;
        assert!(!degraded.curves[0].meets_recall_floor(0.99));
        // A no-kill curve serializes the kill as an explicit null.
        let mut no_kill = report;
        no_kill.curves[0].kill_replica = None;
        assert!(no_kill.to_json().contains("\"kill_replica\": null"));
    }

    #[test]
    fn load_json_has_schema_and_balanced_structure() {
        let report = LoadReport {
            seed: 42,
            scenarios: vec![LoadScenario {
                name: "steady-open-4t".into(),
                metric: "hamming".into(),
                backend: "noisy".into(),
                rows: 16,
                dim: 8,
                tenants: 4,
                arrivals: "open@40".into(),
                burst: "none".into(),
                hot_tenant: None,
                n_requests: 240,
                target_batch: 16,
                deadline_ticks: 512,
                queue_capacity: 64,
                quantum: 1,
                setup_ticks: 52,
                per_query_ticks: 10,
                replicas: 2,
                reads: 1,
                agree: 1,
                kill: "none".into(),
                revive: "none".into(),
                submitted: 240,
                served: 230,
                shed_capacity: 6,
                shed_deadline: 4,
                batches: 20,
                max_batch: 16,
                busy_ticks: 3340,
                ticks: 6200,
                p50: 210,
                p99: 480,
                p999: 505,
                max_latency: 505,
                goodput_milli: 37,
                recall_at_1: 1.0,
                oracle_fallbacks: 0,
                tenant_served: vec![58, 57, 58, 57],
                tenant_shed: vec![3, 2, 3, 2],
            }],
        };
        let json = report.to_json();
        assert!(json.contains("\"schema\": \"ferex-load-v1\""));
        assert!(json.contains("\"arrivals\": \"open@40\""));
        assert!(json.contains("\"hot_tenant\": null"));
        assert!(json.contains("\"tenant_served\": [58, 57, 58, 57]"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        let row = report.scenario("steady-open-4t").unwrap();
        assert!(row.meets_deadline());
        assert!(row.counters_balance());
        assert!(report.scenario("nope").is_none());
        let mut late = report.clone();
        late.scenarios[0].max_latency = 600;
        assert!(!late.scenarios[0].meets_deadline());
        let mut hot = report;
        hot.scenarios[0].hot_tenant = Some(0);
        assert!(hot.to_json().contains("\"hot_tenant\": 0"));
    }

    #[test]
    fn load_v2_json_has_schema_and_balanced_structure() {
        let report = LoadV2Report {
            seed: 42,
            scenarios: vec![LoadV2Scenario {
                name: "v2-one-slow-8x".into(),
                metric: "hamming".into(),
                backend: "noisy".into(),
                arrivals: "open@40".into(),
                n_requests: 240,
                target_batch: 16,
                deadline_ticks: 4096,
                max_wait_ticks: 256,
                replicas: 3,
                reads: 2,
                agree: 1,
                slow: "r1@8000".into(),
                degrade: "none".into(),
                hedge: "q=950,b=500".into(),
                brownout: "t=2500,rp=2048".into(),
                submitted: 240,
                served: 238,
                shed_capacity: 2,
                shed_deadline: 0,
                batches: 16,
                hedges_issued: 2,
                hedge_wins: 2,
                brownout_demotions: 1,
                reprobes: 0,
                p50: 280,
                p99: 540,
                p999: 560,
                max_latency: 560,
                goodput_milli: 37,
                recall_at_1: 1.0,
                unhedged_served: 238,
                unhedged_p50: 300,
                unhedged_p99: 2900,
                unhedged_p999: 3400,
                unhedged_goodput_milli: 9,
                per_replica: vec![
                    LoadV2Replica {
                        replica: 0,
                        model: "healthy".into(),
                        reads: 16,
                        p50_ticks: 212,
                        p99_ticks: 330,
                        max_ticks: 337,
                        ewma_milli: 1020,
                        hedged_against: 0,
                        hedge_wins: 0,
                        demerit_milli: 0,
                    },
                    LoadV2Replica {
                        replica: 1,
                        model: "slow@8000".into(),
                        reads: 1,
                        p50_ticks: 1696,
                        p99_ticks: 1696,
                        max_ticks: 1696,
                        ewma_milli: 2750,
                        hedged_against: 2,
                        hedge_wins: 0,
                        demerit_milli: 1750,
                    },
                ],
            }],
        };
        let json = report.to_json();
        assert!(json.contains("\"schema\": \"ferex-load-v2\""));
        assert!(json.contains("\"slow\": \"r1@8000\""));
        assert!(json.contains("\"hedge\": \"q=950,b=500\""));
        assert!(json.contains("\"unhedged_p999\": 3400"));
        assert!(json.contains("\"model\": \"slow@8000\""));
        assert!(json.contains("\"demerit_milli\": 1750"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        let row = report.scenario("v2-one-slow-8x").unwrap();
        assert!(row.counters_balance());
        assert!(report.scenario("nope").is_none());
        let mut unbalanced = report.clone();
        unbalanced.scenarios[0].served = 1;
        assert!(!unbalanced.scenarios[0].counters_balance());
    }
}
