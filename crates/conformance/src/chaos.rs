//! Deterministic chaos soak: replicated serving under faults, kills, and
//! scheduled scrubs.
//!
//! A chaos run drives a [`ReplicaSet`] through a long query stream while a
//! seeded schedule injects adversity — one replica carries a hard-fault
//! plan, another is killed mid-stream, and maintenance scrubs fire on a
//! fixed period ([`serve_stream`], which `ferex serve-sim` runs too).
//! Recall@1 against the digital oracle is measured over the whole stream;
//! the serving contract under test is that the quorum + fallback ladder
//! keeps recall at the oracle level for as long as a healthy replica (or
//! the digital fallback) can answer.
//!
//! Everything is derived from one seed through the same domain-separated
//! streams as [`run_sweep`](crate::harness::run_sweep): the stored matrix
//! and query set are byte-identical to a degradation sweep with the same
//! (metric, backend, fault, bits) coordinates, and replica `i`'s backend
//! seed is [`derive_replica_seed`] of the sweep's trial-0 seed. A chaos
//! soak with one replica, a 1/1 quorum, no kills and no repair policy
//! therefore reproduces the PR 2/PR 3 degradation baseline exactly — the
//! supervisor adds zero drift when its features are disabled. Virtual tick
//! clocks (no wall time) make the whole report byte-reproducible.

use crate::harness::{BackendKind, FaultKind, SweepSpec};
use crate::report::{ChaosCurve, ChaosPoint, ChaosReport};
use ferex_core::{
    derive_replica_seed, DistanceMetric, FerexError, QuorumPolicy, RepairPolicy, ReplicaPolicy,
    ReplicaSet, ServedOutcome,
};
use ferex_fefet::FaultPlan;

/// One cell of the chaos matrix: a replicated serving soak over rising
/// fault rates on the faulted replica.
#[derive(Debug, Clone)]
pub struct ChaosSpec {
    /// Distance metric under test.
    pub metric: DistanceMetric,
    /// Stochastic backend under test.
    pub backend: BackendKind,
    /// Fault class injected into the faulted replica.
    pub fault: FaultKind,
    /// Symbol bit width.
    pub bits: u32,
    /// Symbols per vector.
    pub dim: usize,
    /// Stored rows per replica.
    pub rows: usize,
    /// Length of the served query stream.
    pub n_queries: usize,
    /// Fault rates applied to the faulted replica, ascending; 0.0 anchors
    /// the fault-free availability point.
    pub rates: Vec<f64>,
    /// Replica count.
    pub replicas: usize,
    /// Quorum reads per query.
    pub reads: usize,
    /// Quorum agreement threshold.
    pub agree: usize,
    /// Which replica carries the fault plan (the others stay clean).
    pub faulted_replica: usize,
    /// Replica killed mid-stream, if any.
    pub kill_replica: Option<usize>,
    /// Query index at which the kill fires.
    pub kill_at_query: usize,
    /// Scheduled maintenance scrub period in queries; 0 disables.
    pub scrub_period: usize,
    /// Spare rows granted to every replica's repair policy; 0 runs without
    /// a repair policy (plain programming, the PR 2 baseline posture).
    pub spare_rows: usize,
    /// Base seed everything derives from.
    pub seed: u64,
}

impl ChaosSpec {
    /// The degradation-sweep spec this chaos run shares its data and trial
    /// seeds with: same (metric, backend, fault, bits) coordinates, one
    /// trial, recall@1 only.
    pub fn sweep_spec(&self) -> SweepSpec {
        SweepSpec {
            metric: self.metric,
            backend: self.backend,
            fault: self.fault,
            bits: self.bits,
            dim: self.dim,
            rows: self.rows,
            n_queries: self.n_queries,
            trials: 1,
            k: 1,
            rates: self.rates.clone(),
            seed: self.seed,
        }
    }
}

/// One step of [`serve_stream`], in stream order.
#[derive(Debug, Clone, PartialEq)]
pub enum StreamEvent {
    /// The scheduled replica was killed.
    Killed(usize),
    /// Every live replica was scrubbed; the findings summed over them.
    Scrubbed(usize),
    /// A query was served: its index in the stream (also its id) and its
    /// outcome.
    Served(usize, ServedOutcome),
}

/// Serves `queries` in order through `set`, one read per query with the
/// query's index as its id. `kill = Some((replica, at))` kills the replica
/// just before query `at`; a nonzero `scrub_period` scrubs every live
/// replica before each query whose index is a positive multiple of it.
///
/// # Errors
///
/// The first read error ([`ReplicaSet::serve_batch_read`]).
pub fn serve_stream(
    set: &mut ReplicaSet,
    queries: &[Vec<u32>],
    kill: Option<(usize, usize)>,
    scrub_period: usize,
) -> Result<Vec<StreamEvent>, FerexError> {
    let mut events = Vec::with_capacity(queries.len());
    for (qi, query) in queries.iter().enumerate() {
        if let Some((replica, _)) = kill.filter(|&(_, at)| at == qi) {
            set.kill(replica);
            events.push(StreamEvent::Killed(replica));
        }
        if scrub_period > 0 && qi > 0 && qi % scrub_period == 0 {
            events.push(StreamEvent::Scrubbed(set.scrub_all()));
        }
        let (served, _) = set.serve_batch_read(std::slice::from_ref(query), &[qi as u64])?;
        events.extend(served.into_iter().map(|s| StreamEvent::Served(qi, s)));
    }
    Ok(events)
}

/// Runs one chaos soak: for each rate, build the replica set (faulted
/// replica carrying `fault.plan(rate)`), serve the query stream
/// sequentially with the seeded kill and scrub schedule, and measure
/// recall@1 plus the supervisor's resilience counters.
///
/// # Panics
///
/// Panics on malformed specs (no rates, no queries, indices out of range,
/// invalid quorum) and on any backend error, like
/// [`run_sweep`](crate::harness::run_sweep).
pub fn run_chaos(spec: &ChaosSpec) -> ChaosCurve {
    assert!(!spec.rates.is_empty(), "chaos soak needs at least one rate");
    assert!(spec.n_queries >= 1, "chaos soak needs at least one query");
    assert!(spec.replicas >= 1, "chaos soak needs at least one replica");
    assert!(spec.faulted_replica < spec.replicas, "faulted replica out of range");
    if let Some(k) = spec.kill_replica {
        assert!(k < spec.replicas, "killed replica out of range");
    }
    let sweep = spec.sweep_spec();
    let data = sweep.data().expect("sizing must succeed");
    // Replica seeds branch off the sweep's trial-0 seed, so replica 0 of a
    // 1-replica soak is byte-identical to run_sweep's trial-0 array.
    let base_seed = sweep.derived_seed(1);
    let soak = |rate: f64| -> Result<ChaosPoint, FerexError> {
        let mut replicas = Vec::with_capacity(spec.replicas);
        for i in 0..spec.replicas {
            let faults =
                if i == spec.faulted_replica { spec.fault.plan(rate) } else { FaultPlan::none() };
            let seed = derive_replica_seed(base_seed, i as u64);
            let mut array = sweep.trial_array(&data, faults, seed)?;
            if spec.spare_rows > 0 {
                let repair = RepairPolicy {
                    spare_rows: spec.spare_rows,
                    sentinel_rows: 1,
                    ..Default::default()
                };
                array.set_repair_policy(repair)?;
                array.program_verified()?;
            } else {
                array.program();
            }
            replicas.push(array);
        }
        let quorum = QuorumPolicy { reads: spec.reads, agree: spec.agree };
        let mut set =
            ReplicaSet::new(replicas, spec.metric, ReplicaPolicy { quorum, ..Default::default() })?;
        let kill = spec.kill_replica.map(|k| (k, spec.kill_at_query));
        let events = serve_stream(&mut set, &data.queries, kill, spec.scrub_period)?;
        let hits = events
            .iter()
            .filter(|e| match e {
                StreamEvent::Served(qi, s) => data.expected.get(*qi) == Some(&s.outcome.nearest),
                _ => false,
            })
            .count();
        let stats = set.stats();
        Ok(ChaosPoint {
            rate,
            recall_at_1: hits as f64 / spec.n_queries as f64,
            oracle_fallbacks: stats.oracle_fallbacks,
            disagreements: stats.disagreements,
            scrubs_escalated: stats.scrubs_escalated,
            scheduled_scrubs: stats.scheduled_scrubs,
            breaker_trips: stats.breaker_trips,
            replicas_alive: set.alive(),
        })
    };
    let points = spec
        .rates
        .iter()
        .map(|&rate| soak(rate).expect("in-range data, valid policy and quorum"))
        .collect();
    ChaosCurve {
        metric: crate::harness::metric_label(spec.metric).to_string(),
        backend: spec.backend.label().to_string(),
        fault: spec.fault.label().to_string(),
        rows: spec.rows,
        dim: spec.dim,
        n_queries: spec.n_queries,
        replicas: spec.replicas,
        reads: spec.reads,
        agree: spec.agree,
        spare_rows: spec.spare_rows,
        faulted_replica: spec.faulted_replica,
        kill_replica: spec.kill_replica,
        kill_at_query: spec.kill_at_query,
        scrub_period: spec.scrub_period,
        points,
    }
}

/// The fixed matrix behind the standard chaos report: every metric × the
/// stuck-at fault classes on the `Noisy` backend, three replicas with a
/// 2-of-2 quorum, replica 0 faulted, replica 1 killed mid-stream, scrubs
/// every 16 queries, and a 2-row spare pool so health-gated routing sees
/// real quarantine traffic.
pub fn standard_chaos_specs(seed: u64) -> Vec<ChaosSpec> {
    let mut specs = Vec::new();
    for metric in DistanceMetric::ALL {
        for fault in [FaultKind::Sa0, FaultKind::Sa1] {
            specs.push(ChaosSpec {
                metric,
                backend: BackendKind::Noisy,
                fault,
                bits: 2,
                dim: 12,
                rows: 16,
                n_queries: 60,
                rates: vec![0.0, 0.01, 0.02, 0.05],
                replicas: 3,
                reads: 2,
                agree: 2,
                faulted_replica: 0,
                kill_replica: Some(1),
                kill_at_query: 30,
                scrub_period: 16,
                spare_rows: 2,
                seed,
            });
        }
    }
    specs
}

/// Generates the standard machine-readable chaos report from one seed.
/// Deterministic: same seed, byte-identical report.
pub fn standard_chaos_report(seed: u64) -> ChaosReport {
    ChaosReport {
        seed,
        bits: 2,
        curves: standard_chaos_specs(seed).iter().map(run_chaos).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_matrix_is_stuck_at_over_all_metrics() {
        let specs = standard_chaos_specs(5);
        assert_eq!(specs.len(), 3 * 2);
        for spec in &specs {
            assert!(matches!(spec.fault, FaultKind::Sa0 | FaultKind::Sa1));
            assert_eq!(spec.replicas, 3);
            assert_eq!((spec.reads, spec.agree), (2, 2));
            assert_eq!(spec.rates[0], 0.0, "every soak anchors at the fault-free point");
            assert!(spec.kill_at_query < spec.n_queries, "the kill must land inside the stream");
            assert_ne!(
                Some(spec.faulted_replica),
                spec.kill_replica,
                "killing the faulted replica would leave nothing degraded to route around"
            );
        }
    }

    #[test]
    fn sweep_spec_adapter_preserves_data_coordinates() {
        let spec = standard_chaos_specs(9).remove(0);
        let sweep = spec.sweep_spec();
        assert_eq!(sweep.metric, spec.metric);
        assert_eq!(sweep.fault, spec.fault);
        assert_eq!(sweep.bits, spec.bits);
        assert_eq!(sweep.seed, spec.seed);
        assert_eq!(sweep.trials, 1);
        assert_eq!(sweep.k, 1);
    }

    #[test]
    #[should_panic(expected = "chaos soak needs at least one query")]
    fn soak_without_queries_is_malformed() {
        run_chaos(&ChaosSpec { n_queries: 0, ..standard_chaos_specs(9).remove(0) });
    }

    #[test]
    fn stream_kills_before_its_query_and_scrubs_on_the_period() {
        let spec = ChaosSpec { n_queries: 5, ..standard_chaos_specs(9).remove(0) };
        let sweep = spec.sweep_spec();
        let data = sweep.data().unwrap();
        let replicas = (0..3)
            .map(|i| {
                let mut array = sweep.trial_array(&data, FaultPlan::none(), i).unwrap();
                array.program();
                array
            })
            .collect();
        let mut set = ReplicaSet::new(replicas, spec.metric, ReplicaPolicy::default()).unwrap();
        let events = serve_stream(&mut set, &data.queries, Some((1, 2)), 2).unwrap();
        let steps: Vec<String> = events
            .iter()
            .map(|e| match e {
                StreamEvent::Killed(r) => format!("kill {r}"),
                StreamEvent::Scrubbed(_) => "scrub".to_string(),
                StreamEvent::Served(qi, s) => {
                    assert_eq!(s.outcome.nearest, data.expected[*qi], "query {qi}");
                    format!("query {qi}")
                }
            })
            .collect();
        let want =
            ["query 0", "query 1", "kill 1", "scrub", "query 2", "query 3", "scrub", "query 4"];
        assert_eq!(steps, want);
        assert_eq!(set.alive(), 2);
        // Both scrubs skip the killed replica.
        assert_eq!(set.stats().scheduled_scrubs, 2 * 2);
    }
}
