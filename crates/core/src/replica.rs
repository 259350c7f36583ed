//! Replicated degraded-mode serving: a supervisor over N independently
//! seeded copies of the same stored vectors.
//!
//! A single FeReX array inevitably degrades — cells drift, rows get
//! quarantined, spares burn out (see [`crate::health`]). The
//! [`ReplicaSet`] keeps answering queries correctly *through* that
//! degradation:
//!
//! 1. **Health-gated routing** — every query is routed to the healthiest
//!    eligible replicas, scored from each replica's
//!    [`HealthSnapshot`] and its most recent scrub findings.
//! 2. **Quorum reads** — a [`QuorumPolicy`] reads up to `reads` replicas
//!    per query and requires `agree` of them to report the same nearest
//!    row. Dissenting replicas are escalated into targeted scrubs; when
//!    quorum cannot be met, the query falls back to an exact digital
//!    recompute over replica 0's logical rows (the same (distance, index)
//!    tie policy as the conformance oracle); the supervisor keeps no copy
//!    of the stored vectors.
//! 3. **Circuit breaker + retry budget** — per-replica closed/open/
//!    half-open breaker with bounded exponential backoff measured on a
//!    *virtual tick clock* (one tick per served query — no wall clock, so
//!    runs are bit-reproducible). A failed replica read pulls in the next
//!    eligible replica, up to the policy's retry budget.
//! 4. **Admission control** — batches beyond the configured capacity shed
//!    their lowest-priority queries with [`FerexError::Overloaded`]
//!    instead of degrading everyone.
//!
//! With one replica and a 1/1 quorum the supervisor is transparent:
//! replica 0 keeps the base backend seed and the supervisor assigns query
//! ids exactly like a bare [`FerexArray`] (a private counter for
//! sequential searches, `0..len` for batches), so outcomes are
//! bit-identical to serving without it.

use crate::array::{Backend, FerexArray, SearchOutcome};
use crate::distance::DistanceMetric;
use crate::error::FerexError;
use crate::health::HealthSnapshot;
use crate::latency::LatencyModel;
use crate::mutate::{CompactionReport, MutableNode, WearSummary};
use crate::tile::TiledArray;
use ferex_fefet::math::splitmix64;
use ferex_fefet::Technology;

/// Domain-separation salt for replica seed derivation, so replica streams
/// can never collide with the query, fault, or conformance streams.
const REPLICA_STREAM_SALT: u64 = 0x7E61_CA5E_0B5E_55ED;

/// Derives replica `replica`'s backend seed from the set's base seed.
///
/// Replica 0 keeps the base seed untouched, so a one-replica set
/// byte-matches an unreplicated array; higher replicas get avalanche-mixed
/// independent streams.
pub fn derive_replica_seed(seed: u64, replica: u64) -> u64 {
    if replica == 0 {
        seed
    } else {
        splitmix64(seed ^ splitmix64(replica ^ REPLICA_STREAM_SALT))
    }
}

/// Clones a backend for replica `replica`, reseeding stochastic configs
/// with [`derive_replica_seed`] (fault maps key off the same seed, so a
/// non-benign fault plan faults independent cell sets per replica).
pub fn replicate_backend(backend: &Backend, replica: u64) -> Backend {
    match backend {
        Backend::Ideal => Backend::Ideal,
        Backend::Circuit(c) => {
            let mut c = c.clone();
            c.seed = derive_replica_seed(c.seed, replica);
            Backend::Circuit(c)
        }
        Backend::Noisy(c) => {
            let mut c = c.clone();
            c.seed = derive_replica_seed(c.seed, replica);
            Backend::Noisy(c)
        }
    }
}

/// How many replicas to read per query and how many must agree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QuorumPolicy {
    /// Replicas read per query (before retries).
    pub reads: usize,
    /// Replicas that must report the same nearest row for the answer to be
    /// served from the device; otherwise the query falls back to the
    /// digital recompute.
    pub agree: usize,
}

impl Default for QuorumPolicy {
    fn default() -> Self {
        QuorumPolicy { reads: 1, agree: 1 }
    }
}

impl QuorumPolicy {
    /// Validates the quorum against a replica count.
    ///
    /// # Panics
    ///
    /// Panics when `reads` or `agree` is zero, `agree > reads`, or
    /// `reads > replicas` — all of which make the quorum unservable.
    pub fn assert_valid(&self, replicas: usize) {
        assert!(self.reads >= 1, "quorum reads must be at least 1");
        assert!(self.agree >= 1, "quorum agree must be at least 1");
        assert!(
            self.agree <= self.reads,
            "quorum agree ({}) exceeds reads ({})",
            self.agree,
            self.reads
        );
        assert!(
            self.reads <= replicas,
            "quorum reads ({}) exceeds replica count ({replicas})",
            self.reads
        );
    }
}

/// Per-replica circuit-breaker knobs. All times are in virtual ticks (one
/// tick per query the set serves), never wall clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BreakerPolicy {
    /// Consecutive failures (search errors or quorum dissents) that trip
    /// the breaker open.
    pub failure_threshold: u32,
    /// Backoff after the first trip, in ticks; doubles per consecutive
    /// trip.
    pub base_backoff_ticks: u64,
    /// Ceiling of the exponential backoff, in ticks.
    pub max_backoff_ticks: u64,
}

impl Default for BreakerPolicy {
    fn default() -> Self {
        BreakerPolicy { failure_threshold: 3, base_backoff_ticks: 8, max_backoff_ticks: 256 }
    }
}

impl BreakerPolicy {
    /// Validates the breaker knobs.
    ///
    /// # Panics
    ///
    /// Panics on a zero threshold, zero base backoff, or a ceiling below
    /// the base.
    pub fn assert_valid(&self) {
        assert!(self.failure_threshold >= 1, "breaker failure threshold must be at least 1");
        assert!(self.base_backoff_ticks >= 1, "breaker base backoff must be at least 1 tick");
        assert!(
            self.max_backoff_ticks >= self.base_backoff_ticks,
            "breaker backoff ceiling ({}) below the base ({})",
            self.max_backoff_ticks,
            self.base_backoff_ticks
        );
    }
}

/// Circuit-breaker state of one replica.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BreakerState {
    /// Serving normally.
    #[default]
    Closed,
    /// Tripped: the replica is skipped until the tick clock reaches
    /// `until_tick`.
    Open {
        /// Tick at which the breaker transitions to half-open.
        until_tick: u64,
    },
    /// Probing: the replica serves again; one more failure re-opens the
    /// breaker with doubled backoff, one success closes it.
    HalfOpen,
}

/// Full serving policy of a [`ReplicaSet`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplicaPolicy {
    /// Quorum-read configuration.
    pub quorum: QuorumPolicy,
    /// Per-replica circuit-breaker configuration.
    pub breaker: BreakerPolicy,
    /// Extra replicas a query may pull in when a chosen replica fails
    /// mid-read.
    pub retry_budget: usize,
    /// Admission capacity in queries per batch; `0` disables shedding.
    pub max_batch_queries: usize,
    /// Minimum ticks between two escalated scrubs of the same replica.
    pub scrub_cooldown_ticks: u64,
}

impl Default for ReplicaPolicy {
    fn default() -> Self {
        ReplicaPolicy {
            quorum: QuorumPolicy::default(),
            breaker: BreakerPolicy::default(),
            retry_budget: 1,
            max_batch_queries: 0,
            scrub_cooldown_ticks: 16,
        }
    }
}

impl ReplicaPolicy {
    /// Validates every knob against a replica count.
    ///
    /// # Panics
    ///
    /// As [`QuorumPolicy::assert_valid`] and
    /// [`BreakerPolicy::assert_valid`].
    pub fn assert_valid(&self, replicas: usize) {
        self.quorum.assert_valid(replicas);
        self.breaker.assert_valid();
    }
}

/// Anything the supervisor can replicate: one store of vectors with a
/// deterministic search path, a scrub pass, and a health surface.
///
/// Implemented for [`FerexArray`] (sensing noise keyed on the query id)
/// and [`TiledArray`] (digital cross-tile argmin; the query id is unused).
pub trait ReplicaNode {
    /// Stored vector count (logical rows).
    fn rows(&self) -> usize;
    /// Validates a query against the node's dimension and symbol alphabet.
    ///
    /// # Errors
    ///
    /// Dimension or symbol-range violations.
    fn check_query(&self, query: &[u32]) -> Result<(), FerexError>;
    /// One search with an explicit query id.
    ///
    /// # Errors
    ///
    /// As the node's search path.
    fn search_at(&self, query: &[u32], qid: u64) -> Result<SearchOutcome, FerexError>;
    /// Batched search with query ids `0..queries.len()`.
    ///
    /// # Errors
    ///
    /// As the node's batched search path.
    fn search_batch(&self, queries: &[Vec<u32>]) -> Result<Vec<SearchOutcome>, FerexError>;
    /// Batched search with one explicit query id per entry; bit-identical
    /// to calling [`ReplicaNode::search_at`] per `(query, qid)` pair.
    ///
    /// # Errors
    ///
    /// As the node's batched search path, plus a
    /// [`FerexError::DimensionMismatch`] when `qids` and `queries` differ
    /// in length.
    fn search_batch_at(
        &self,
        queries: &[Vec<u32>],
        qids: &[u64],
    ) -> Result<Vec<SearchOutcome>, FerexError>;
    /// One targeted scrub pass; returns the number of findings.
    ///
    /// # Errors
    ///
    /// As the node's scrub path (e.g. stale physical state).
    fn scrub_now(&mut self) -> Result<usize, FerexError>;
    /// Point-in-time health view.
    fn health(&self) -> HealthSnapshot;
    /// `true` when row `r` serves a live vector. Always `true` for
    /// immutable nodes; mutation-enabled nodes report their slot table, so
    /// the supervisor's digital fallback skips free and tombstoned slots
    /// exactly like the device kernels do.
    fn row_live(&self, _r: usize) -> bool {
        true
    }
    /// Row `r`'s logical contents (the vector the digital fallback scores),
    /// or `None` past the last row.
    fn logical_row(&self, r: usize) -> Option<Vec<u32>>;
}

impl ReplicaNode for FerexArray {
    fn rows(&self) -> usize {
        self.len()
    }

    fn check_query(&self, query: &[u32]) -> Result<(), FerexError> {
        self.validate(query)
    }

    fn search_at(&self, query: &[u32], qid: u64) -> Result<SearchOutcome, FerexError> {
        FerexArray::search_at(self, query, qid)
    }

    fn search_batch(&self, queries: &[Vec<u32>]) -> Result<Vec<SearchOutcome>, FerexError> {
        FerexArray::search_batch(self, queries)
    }

    fn search_batch_at(
        &self,
        queries: &[Vec<u32>],
        qids: &[u64],
    ) -> Result<Vec<SearchOutcome>, FerexError> {
        FerexArray::search_batch_at(self, queries, qids)
    }

    fn scrub_now(&mut self) -> Result<usize, FerexError> {
        self.scrub().map(|r| r.findings.len())
    }

    fn health(&self) -> HealthSnapshot {
        FerexArray::health(self)
    }

    fn row_live(&self, r: usize) -> bool {
        self.slot_live(r)
    }

    fn logical_row(&self, r: usize) -> Option<Vec<u32>> {
        self.row_vector(r)
    }
}

impl ReplicaNode for TiledArray {
    fn rows(&self) -> usize {
        self.len()
    }

    fn check_query(&self, query: &[u32]) -> Result<(), FerexError> {
        if query.len() != self.dim() {
            return Err(FerexError::DimensionMismatch { expected: self.dim(), got: query.len() });
        }
        let n = self.tiles().first().map(|t| t.encoding().n_stored()).unwrap_or(0);
        for &s in query {
            if s as usize >= n {
                return Err(FerexError::SymbolOutOfRange { value: s, n_values: n });
            }
        }
        Ok(())
    }

    fn search_at(&self, query: &[u32], _qid: u64) -> Result<SearchOutcome, FerexError> {
        // The cross-tile argmin is digital and deterministic — there is no
        // per-query sensing stream to key.
        TiledArray::search(self, query)
    }

    fn search_batch(&self, queries: &[Vec<u32>]) -> Result<Vec<SearchOutcome>, FerexError> {
        TiledArray::search_batch(self, queries)
    }

    fn search_batch_at(
        &self,
        queries: &[Vec<u32>],
        qids: &[u64],
    ) -> Result<Vec<SearchOutcome>, FerexError> {
        // Digital cross-tile argmin: query ids key no noise stream, so the
        // batch path is already id-independent.
        if qids.len() != queries.len() {
            return Err(FerexError::DimensionMismatch { expected: queries.len(), got: qids.len() });
        }
        TiledArray::search_batch(self, queries)
    }

    fn scrub_now(&mut self) -> Result<usize, FerexError> {
        Ok(self.scrub()?.iter().map(|r| r.findings.len()).sum())
    }

    fn health(&self) -> HealthSnapshot {
        TiledArray::health(self)
    }

    fn row_live(&self, r: usize) -> bool {
        // Lockstep tiles share one slot table; tile 0 speaks for all.
        self.tiles().first().is_none_or(|t| t.slot_live(r))
    }

    fn logical_row(&self, r: usize) -> Option<Vec<u32>> {
        self.row_vector(r)
    }
}

/// Where a served answer came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeSource {
    /// The quorum agreed; the outcome is the best-ranked agreeing
    /// replica's.
    Replica(usize),
    /// Quorum could not be met (or no replica was eligible); the outcome
    /// is the exact digital recompute.
    OracleFallback,
}

/// One served query: the outcome plus its provenance.
#[derive(Debug, Clone, PartialEq)]
pub struct ServedOutcome {
    /// The answer served to the caller.
    pub outcome: SearchOutcome,
    /// Which path produced it.
    pub source: ServeSource,
}

/// Lifetime counters of a [`ReplicaSet`].
///
/// Accounting invariant: every query accepted into a serving path counts
/// into `queries_submitted` exactly once and then lands in *either*
/// `queries_served` or `queries_shed`, so on every successful return
/// `queries_served + queries_shed == queries_submitted`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ReplicaSetStats {
    /// Queries validated and accepted into a serving path (served + shed).
    pub queries_submitted: u64,
    /// Queries answered (sequential + batched, shed queries excluded).
    pub queries_served: u64,
    /// Successful replica reads that entered a vote.
    pub replica_reads: u64,
    /// Queries on which at least one read replica dissented.
    pub disagreements: u64,
    /// Queries answered by the digital recompute.
    pub oracle_fallbacks: u64,
    /// Targeted scrubs escalated from dissents.
    pub scrubs_escalated: u64,
    /// Scrubs run through [`ReplicaSet::scrub_all`].
    pub scheduled_scrubs: u64,
    /// Queries shed by admission control.
    pub queries_shed: u64,
    /// Circuit-breaker trips across all replicas.
    pub breaker_trips: u64,
}

/// Public point-in-time view of one replica's serving state.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReplicaStatus {
    /// Circuit-breaker state.
    pub breaker: BreakerState,
    /// `true` after [`ReplicaSet::kill`].
    pub dead: bool,
    /// Failures since the last success (resets on trip).
    pub consecutive_failures: u32,
    /// Lifetime breaker trips.
    pub trips: u64,
    /// Queries this replica's outcome answered.
    pub served: u64,
    /// Votes that lost against the quorum (or the oracle).
    pub dissents: u64,
    /// Findings of the replica's most recent scrub.
    pub last_scrub_findings: usize,
    /// Routing demerit pushed by the serving loop's brownout detector,
    /// in per-mille of a routing point (0 = not demoted).
    pub latency_demerit_milli: u64,
    /// Current routing score (higher routes first).
    pub score: f64,
}

#[derive(Debug, Clone, Default)]
struct ReplicaState {
    breaker: BreakerState,
    dead: bool,
    consecutive_failures: u32,
    /// Exponent of the backoff ladder; resets when a half-open probe
    /// succeeds.
    backoff_level: u32,
    trips: u64,
    served: u64,
    dissents: u64,
    last_scrub_findings: usize,
    last_scrub_tick: Option<u64>,
    /// Brownout routing demerit in per-mille of a routing point; pushed
    /// by the serving loop's latency tracker, 0 when not demoted.
    latency_demerit_milli: u64,
}

/// The replicated serving supervisor. See the module docs for the state
/// machine; construct via [`ReplicaSet::new`],
/// [`crate::Ferex::replica_set`], or [`ReplicaSet::tiled`].
#[derive(Debug, Clone)]
pub struct ReplicaSet<A: ReplicaNode> {
    replicas: Vec<A>,
    states: Vec<ReplicaState>,
    /// Optional per-replica service-latency models; `None` everywhere by
    /// default, in which case the serving loop charges its uniform
    /// [`CostModel`](crate::serve::CostModel) exactly as before.
    latency: Vec<Option<LatencyModel>>,
    metric: DistanceMetric,
    policy: ReplicaPolicy,
    /// Virtual clock: total queries this set has served (or attempted).
    tick: u64,
    /// Query-id counter for sequential searches — mirrors
    /// [`FerexArray::search`]'s internal counter, so a 1-replica set is
    /// bit-identical to the bare array.
    seq_counter: u64,
    stats: ReplicaSetStats,
}

impl<A: ReplicaNode> ReplicaSet<A> {
    /// Builds a supervisor over pre-constructed replicas. Every replica
    /// must already store the same vectors, row-aligned: replica 0's
    /// logical rows are the truth the digital fallback recomputes against
    /// (see [`ReplicaNode::logical_row`]).
    ///
    /// # Panics
    ///
    /// Panics when `replicas` is empty, a replica's row count differs from
    /// replica 0's, or the policy is invalid for the replica count (see
    /// [`ReplicaPolicy::assert_valid`]).
    pub fn new(replicas: Vec<A>, metric: DistanceMetric, policy: ReplicaPolicy) -> Self {
        assert!(!replicas.is_empty(), "a replica set needs at least one replica");
        policy.assert_valid(replicas.len());
        let rows = replicas.first().map_or(0, ReplicaNode::rows);
        for (i, r) in replicas.iter().enumerate() {
            assert_eq!(
                r.rows(),
                rows,
                "replica {i} stores {} rows, replica 0 stores {rows}",
                r.rows()
            );
        }
        let states = vec![ReplicaState::default(); replicas.len()];
        let latency = vec![None; replicas.len()];
        ReplicaSet {
            replicas,
            states,
            latency,
            metric,
            policy,
            tick: 0,
            seq_counter: 0,
            stats: ReplicaSetStats::default(),
        }
    }

    /// Number of replicas (dead ones included).
    pub fn n_replicas(&self) -> usize {
        self.replicas.len()
    }

    /// Rows of the supervised store (replica 0's row count, which every
    /// replica shares).
    pub fn rows(&self) -> usize {
        self.replicas.first().map_or(0, ReplicaNode::rows)
    }

    /// Replicas not killed.
    pub fn alive(&self) -> usize {
        self.states.iter().filter(|s| !s.dead).count()
    }

    /// The serving policy.
    pub fn policy(&self) -> &ReplicaPolicy {
        &self.policy
    }

    /// The virtual tick clock (total queries served or attempted).
    pub fn tick(&self) -> u64 {
        self.tick
    }

    /// Lifetime counters.
    pub fn stats(&self) -> ReplicaSetStats {
        self.stats
    }

    /// Read access to one replica.
    ///
    /// # Panics
    ///
    /// Panics when `i` is at or past [`ReplicaSet::n_replicas`].
    pub fn replica(&self, i: usize) -> &A {
        // lint:allow(panic-safety/index, reason = "documented panicking accessor; callers pass i < n_replicas()")
        &self.replicas[i]
    }

    /// Mutable access to one replica (fault injection, manual repair).
    ///
    /// # Panics
    ///
    /// Panics when `i` is at or past [`ReplicaSet::n_replicas`].
    pub fn replica_mut(&mut self, i: usize) -> &mut A {
        // lint:allow(panic-safety/index, reason = "documented panicking accessor; callers pass i < n_replicas()")
        &mut self.replicas[i]
    }

    /// Attaches a service-latency model to replica `i`. The serving loop
    /// samples it per batch instead of the uniform cost-model charge.
    ///
    /// # Errors
    ///
    /// [`FerexError::ReplicaOutOfRange`] on a bad index;
    /// [`FerexError::InvalidPolicy`] on a degenerate model (see
    /// [`LatencyModel::validate`]).
    pub fn set_latency_model(&mut self, i: usize, model: LatencyModel) -> Result<(), FerexError> {
        model.validate()?;
        let replicas = self.latency.len();
        let Some(slot) = self.latency.get_mut(i) else {
            return Err(FerexError::ReplicaOutOfRange { replica: i, replicas });
        };
        *slot = Some(model);
        Ok(())
    }

    /// The latency model attached to replica `i`, if any.
    pub fn latency_model(&self, i: usize) -> Option<&LatencyModel> {
        self.latency.get(i).and_then(|m| m.as_ref())
    }

    /// Samples the modeled service ticks of a batch of `batch` queries on
    /// replica `i`: draw `draw` (a batch sequence number), with `queued`
    /// requests waiting behind the batch, at the caller's virtual tick
    /// `tick` (drives the degrade slope). The health and scrub inflation
    /// terms are read off the replica's live state: its
    /// [`HealthSnapshot::degraded_milli`] and whether an escalated or
    /// scheduled scrub ran within the model's window on the set's own
    /// tick clock. `None` when no model is attached (or `i` is out of
    /// range) — the caller falls back to its uniform cost.
    pub fn latency_ticks(
        &self,
        i: usize,
        batch: usize,
        queued: usize,
        tick: u64,
        draw: u64,
    ) -> Option<u64> {
        let model = self.latency.get(i)?.as_ref()?;
        let replica = self.replicas.get(i)?;
        let st = self.states.get(i)?;
        let h = replica.health();
        let mut inflation = model.health_milli.saturating_mul(h.degraded_milli()) / 1000;
        inflation =
            inflation.saturating_add(model.load_milli_per_queued.saturating_mul(queued as u64));
        if let Some(last) = st.last_scrub_tick {
            if self.tick.saturating_sub(last) < model.scrub_window_ticks {
                inflation = inflation.saturating_add(model.scrub_penalty_milli);
            }
        }
        Some(model.service_ticks(batch, tick, draw, inflation))
    }

    /// Sets replica `i`'s brownout routing demerit (per-mille of a
    /// routing point; 0 lifts the demotion). Pushed by the serving loop's
    /// latency tracker; out-of-range indices are ignored.
    pub fn set_latency_demerit(&mut self, i: usize, demerit_milli: u64) {
        if let Some(st) = self.states.get_mut(i) {
            st.latency_demerit_milli = demerit_milli;
        }
    }

    /// The routing order a batch read would use right now: live replicas
    /// with admitting breakers, healthiest first (ties to the lowest
    /// index). Open breakers past their backoff transition to half-open,
    /// exactly as a serve would.
    pub fn route_order(&mut self) -> Vec<usize> {
        self.ranked_eligible()
    }

    /// Validates a query against the replicas' dimension and symbol
    /// alphabet without serving it — the serving loop's admission check.
    ///
    /// # Errors
    ///
    /// Dimension or symbol-range violations; [`FerexError::Empty`] when
    /// the set has no replicas to validate against (unreachable through
    /// [`ReplicaSet::new`], which rejects empty sets).
    pub fn check_query(&self, query: &[u32]) -> Result<(), FerexError> {
        self.replicas.first().ok_or(FerexError::Empty)?.check_query(query)
    }

    /// Point-in-time view of one replica's serving state. Out-of-range
    /// indices read as a default (dead-free, never-served) status with a
    /// floor routing score.
    pub fn status(&self, i: usize) -> ReplicaStatus {
        let Some(st) = self.states.get(i) else {
            return ReplicaStatus {
                breaker: BreakerState::Closed,
                dead: false,
                consecutive_failures: 0,
                trips: 0,
                served: 0,
                dissents: 0,
                last_scrub_findings: 0,
                latency_demerit_milli: 0,
                score: f64::MIN,
            };
        };
        ReplicaStatus {
            breaker: st.breaker,
            dead: st.dead,
            consecutive_failures: st.consecutive_failures,
            trips: st.trips,
            served: st.served,
            dissents: st.dissents,
            last_scrub_findings: st.last_scrub_findings,
            latency_demerit_milli: st.latency_demerit_milli,
            score: self.routing_score(i),
        }
    }

    /// Marks a replica dead: it is never routed to again until
    /// [`ReplicaSet::revive`]. Out-of-range indices are ignored.
    pub fn kill(&mut self, i: usize) {
        if let Some(st) = self.states.get_mut(i) {
            st.dead = true;
        }
    }

    /// Brings a killed replica back with a closed breaker. Out-of-range
    /// indices are ignored.
    pub fn revive(&mut self, i: usize) {
        let Some(st) = self.states.get_mut(i) else { return };
        st.dead = false;
        st.breaker = BreakerState::Closed;
        st.consecutive_failures = 0;
    }

    /// Runs a maintenance scrub on every live replica (the chaos harness's
    /// scheduled scrub cycle); returns how many replicas were scrubbed.
    pub fn scrub_all(&mut self) -> usize {
        let tick = self.tick;
        let mut n = 0;
        for (st, replica) in self.states.iter_mut().zip(&mut self.replicas) {
            if st.dead {
                continue;
            }
            if let Ok(findings) = replica.scrub_now() {
                st.last_scrub_findings = findings;
                st.last_scrub_tick = Some(tick);
                self.stats.scheduled_scrubs += 1;
                n += 1;
            }
        }
        n
    }

    /// Routing score of one replica: fraction of rows still served
    /// dominates, remapped rows and recent scrub findings penalize, spare
    /// headroom breaks near-ties. Healthy fault-free replicas all score
    /// identically, and routing resolves score ties by lowest index — so a
    /// clean set always routes to replica 0 first.
    fn routing_score(&self, i: usize) -> f64 {
        let (Some(replica), Some(st)) = (self.replicas.get(i), self.states.get(i)) else {
            return f64::MIN;
        };
        let h = replica.health();
        let rows = self.rows().max(1) as f64;
        let active = h.rows_active as f64 / rows;
        let remapped = h.rows_remapped_now as f64 / rows;
        let headroom = if h.spare_rows > 0 {
            (h.spare_rows - h.spares_in_use - h.spares_burned) as f64 / h.spare_rows as f64
        } else {
            0.0
        };
        let findings = st.last_scrub_findings as f64 / rows;
        let demerit = st.latency_demerit_milli as f64 / 1000.0;
        4.0 * active - 0.5 * remapped + 0.25 * headroom - findings - demerit
    }

    /// Live replicas whose breaker admits traffic at the current tick
    /// (open breakers past their backoff transition to half-open here),
    /// ranked healthiest-first with index as the deterministic tiebreak.
    fn ranked_eligible(&mut self) -> Vec<usize> {
        let tick = self.tick;
        for st in &mut self.states {
            if let BreakerState::Open { until_tick } = st.breaker {
                if !st.dead && tick >= until_tick {
                    st.breaker = BreakerState::HalfOpen;
                }
            }
        }
        let mut eligible: Vec<(usize, f64)> = self
            .states
            .iter()
            .enumerate()
            .filter(|(_, st)| !st.dead && !matches!(st.breaker, BreakerState::Open { .. }))
            .map(|(i, _)| (i, self.routing_score(i)))
            .collect();
        eligible.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        eligible.into_iter().map(|(i, _)| i).collect()
    }

    fn note_success(&mut self, i: usize) {
        let Some(st) = self.states.get_mut(i) else { return };
        st.consecutive_failures = 0;
        if st.breaker == BreakerState::HalfOpen {
            st.breaker = BreakerState::Closed;
            st.backoff_level = 0;
        }
    }

    /// Records a lost vote and counts it against the replica's breaker.
    fn note_dissent(&mut self, i: usize) {
        if let Some(st) = self.states.get_mut(i) {
            st.dissents += 1;
        }
        self.note_failure(i);
    }

    fn note_failure(&mut self, i: usize) {
        let tick = self.tick;
        let p = self.policy.breaker;
        let Some(st) = self.states.get_mut(i) else { return };
        st.consecutive_failures += 1;
        let trip = match st.breaker {
            // A failed half-open probe re-opens immediately with doubled
            // backoff; a closed breaker waits for the threshold.
            BreakerState::HalfOpen => true,
            BreakerState::Closed => st.consecutive_failures >= p.failure_threshold,
            BreakerState::Open { .. } => false,
        };
        if trip {
            st.backoff_level = (st.backoff_level + 1).min(63);
            st.trips += 1;
            let backoff = p
                .base_backoff_ticks
                .saturating_mul(1u64 << (st.backoff_level - 1).min(62))
                .min(p.max_backoff_ticks);
            st.breaker = BreakerState::Open { until_tick: tick.saturating_add(backoff) };
            st.consecutive_failures = 0;
            self.stats.breaker_trips += 1;
        }
    }

    /// `true` for errors that indict the query, not the replica — they
    /// propagate to the caller instead of counting against the breaker.
    fn is_query_error(e: &FerexError) -> bool {
        matches!(
            e,
            FerexError::DimensionMismatch { .. }
                | FerexError::SymbolOutOfRange { .. }
                | FerexError::InvalidK { .. }
        )
    }

    /// Exact digital recompute over replica 0's logical rows — the bottom
    /// rung of the quorum fallback ladder. Ties break to the lowest index,
    /// matching the conformance oracle.
    ///
    /// # Errors
    ///
    /// [`FerexError::Empty`] when replica 0 stores no rows.
    fn digital_fallback(&self, query: &[u32]) -> Result<SearchOutcome, FerexError> {
        let first = self.replicas.first().ok_or(FerexError::Empty)?;
        // Non-live slots (free or tombstoned under online mutation) read as
        // +inf, exactly like the device kernels' exclusion of those rows.
        let distances: Vec<f64> = (0..first.rows())
            .map(|r| {
                let row = if first.row_live(r) { first.logical_row(r) } else { None };
                row.map_or(f64::INFINITY, |s| self.metric.vector_distance(query, &s) as f64)
            })
            .collect();
        let nearest = distances
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| a.total_cmp(b))
            .map(|(i, _)| i)
            .ok_or(FerexError::Empty)?;
        Ok(SearchOutcome { distances, nearest })
    }

    /// Votes over successful replica reads (rank order); returns the
    /// served outcome plus the dissenting replicas to scrub.
    ///
    /// # Errors
    ///
    /// [`FerexError::Empty`] when the oracle fallback is reached with no
    /// rows to recompute against.
    fn vote(
        &mut self,
        query: &[u32],
        outcomes: Vec<(usize, SearchOutcome)>,
    ) -> Result<(ServedOutcome, Vec<usize>), FerexError> {
        self.stats.replica_reads += outcomes.len() as u64;
        if outcomes.is_empty() {
            self.stats.oracle_fallbacks += 1;
            let outcome = self.digital_fallback(query)?;
            return Ok((
                ServedOutcome { outcome, source: ServeSource::OracleFallback },
                Vec::new(),
            ));
        }
        // Tally votes on `nearest`; the post-pass keeps the earliest (i.e.
        // best-ranked first voter) among tied counts.
        let mut tally: Vec<(usize, usize)> = Vec::new();
        for (_, o) in &outcomes {
            match tally.iter_mut().find(|(n, _)| *n == o.nearest) {
                Some((_, c)) => *c += 1,
                None => tally.push((o.nearest, 1)),
            }
        }
        let mut win_nearest = 0usize;
        let mut win_count = 0usize;
        for &(n, c) in &tally {
            if c > win_count {
                win_nearest = n;
                win_count = c;
            }
        }
        let mut dissenters = Vec::new();
        if win_count >= self.policy.quorum.agree {
            let mut winner: Option<(usize, SearchOutcome)> = None;
            for (i, o) in outcomes {
                if o.nearest == win_nearest {
                    self.note_success(i);
                    if winner.is_none() {
                        winner = Some((i, o));
                    }
                } else {
                    self.note_dissent(i);
                    dissenters.push(i);
                }
            }
            if !dissenters.is_empty() {
                self.stats.disagreements += 1;
            }
            if let Some((src, outcome)) = winner {
                if let Some(st) = self.states.get_mut(src) {
                    st.served += 1;
                }
                return Ok((
                    ServedOutcome { outcome, source: ServeSource::Replica(src) },
                    dissenters,
                ));
            }
            // The winning vote came from these very outcomes, so a missing
            // winner is unreachable; degrade to the oracle instead of
            // panicking if the invariant is ever broken.
            self.stats.oracle_fallbacks += 1;
            let outcome = self.digital_fallback(query)?;
            Ok((ServedOutcome { outcome, source: ServeSource::OracleFallback }, dissenters))
        } else {
            // Quorum unmet: the oracle arbitrates. Replicas matching its
            // answer are vindicated, the rest dissented.
            self.stats.disagreements += 1;
            self.stats.oracle_fallbacks += 1;
            let fallback = self.digital_fallback(query)?;
            for (i, o) in outcomes {
                if o.nearest == fallback.nearest {
                    self.note_success(i);
                } else {
                    self.note_dissent(i);
                    dissenters.push(i);
                }
            }
            Ok((
                ServedOutcome { outcome: fallback, source: ServeSource::OracleFallback },
                dissenters,
            ))
        }
    }

    /// Escalates a targeted scrub on a dissenting replica, rate-limited by
    /// the policy's cooldown.
    fn escalate_scrub(&mut self, i: usize) {
        let tick = self.tick;
        let cooldown = self.policy.scrub_cooldown_ticks;
        let Some(st) = self.states.get_mut(i) else { return };
        if st.dead {
            return;
        }
        if let Some(last) = st.last_scrub_tick {
            if tick.saturating_sub(last) < cooldown {
                return;
            }
        }
        st.last_scrub_tick = Some(tick);
        let Some(replica) = self.replicas.get_mut(i) else { return };
        match replica.scrub_now() {
            Ok(findings) => {
                if let Some(st) = self.states.get_mut(i) {
                    st.last_scrub_findings = findings;
                }
                self.stats.scrubs_escalated += 1;
            }
            Err(_) => self.note_failure(i),
        }
    }

    /// Collects up to `reads` successful outcomes from the ranked eligible
    /// replicas for one query id, spending the retry budget on failures.
    fn collect(
        &mut self,
        query: &[u32],
        qid: u64,
    ) -> Result<Vec<(usize, SearchOutcome)>, FerexError> {
        let ranked = self.ranked_eligible();
        let reads = self.policy.quorum.reads;
        let budget = reads + self.policy.retry_budget;
        let mut outcomes = Vec::new();
        for (attempts, &i) in ranked.iter().enumerate() {
            if outcomes.len() == reads || attempts == budget {
                break;
            }
            let Some(replica) = self.replicas.get(i) else { continue };
            match replica.search_at(query, qid) {
                Ok(o) => outcomes.push((i, o)),
                Err(e) if Self::is_query_error(&e) => return Err(e),
                Err(_) => self.note_failure(i),
            }
        }
        Ok(outcomes)
    }

    /// Serves one query through the full ladder (routing → quorum →
    /// breaker bookkeeping → fallback), reporting provenance.
    ///
    /// # Errors
    ///
    /// Query validation errors; [`FerexError::Empty`] when nothing is
    /// stored. Replica-health errors never surface here — they divert to
    /// healthier replicas or the digital fallback.
    pub fn serve(&mut self, query: &[u32]) -> Result<ServedOutcome, FerexError> {
        self.check_query(query)?;
        if self.rows() == 0 {
            return Err(FerexError::Empty);
        }
        self.stats.queries_submitted += 1;
        let qid = self.seq_counter;
        self.seq_counter += 1;
        let outcomes = self.collect(query, qid)?;
        let (served, dissenters) = self.vote(query, outcomes)?;
        self.tick += 1;
        for d in dissenters {
            self.escalate_scrub(d);
        }
        self.stats.queries_served += 1;
        Ok(served)
    }

    /// One search through the supervisor; like [`ReplicaSet::serve`]
    /// without the provenance.
    ///
    /// # Errors
    ///
    /// As [`ReplicaSet::serve`].
    pub fn search(&mut self, query: &[u32]) -> Result<SearchOutcome, FerexError> {
        self.serve(query).map(|s| s.outcome)
    }

    /// Serves a whole batch (query ids `0..queries.len()`, matching
    /// [`FerexArray::search_batch`]) through each chosen replica's batched
    /// fast path, voting per query.
    ///
    /// # Errors
    ///
    /// As [`ReplicaSet::serve`]; [`FerexError::Overloaded`] when the batch
    /// exceeds the admission capacity (use
    /// [`ReplicaSet::search_batch_prioritized`] to shed per-query
    /// instead).
    pub fn serve_batch(&mut self, queries: &[Vec<u32>]) -> Result<Vec<ServedOutcome>, FerexError> {
        if queries.is_empty() {
            return Ok(Vec::new());
        }
        self.validate_batch(queries)?;
        self.stats.queries_submitted += queries.len() as u64;
        let cap = self.policy.max_batch_queries;
        if cap != 0 && queries.len() > cap {
            self.stats.queries_shed += queries.len() as u64;
            return Err(FerexError::Overloaded { admitted: 0, capacity: cap });
        }
        let qids: Vec<u64> = (0..queries.len() as u64).collect();
        self.serve_batch_core(queries, &qids).map(|(served, _)| served)
    }

    /// Serves a batch with one explicit query id per entry — the serving
    /// loop's entry point. Because per-query sensing noise is keyed purely
    /// on the id, the outcomes are bit-identical to serving each request
    /// individually via [`ReplicaNode::search_at`] with the same id, no
    /// matter how the batch former grouped the requests. Admission control
    /// (`max_batch_queries`) is *not* applied here: the loop sheds at its
    /// own queue, before requests reach the replicas.
    ///
    /// # Errors
    ///
    /// A `qids` slice of the wrong length is a
    /// [`FerexError::DimensionMismatch`]; otherwise as
    /// [`ReplicaSet::serve`].
    pub fn serve_batch_at(
        &mut self,
        queries: &[Vec<u32>],
        qids: &[u64],
    ) -> Result<Vec<ServedOutcome>, FerexError> {
        self.serve_batch_read(queries, qids).map(|(served, _)| served)
    }

    /// [`ReplicaSet::serve_batch_at`] plus read provenance: the second
    /// element lists the replica indices whose batched reads fed the vote,
    /// in routing order. The serving loop's latency model charges each of
    /// those reads its own modeled service time.
    ///
    /// # Errors
    ///
    /// As [`ReplicaSet::serve_batch_at`].
    pub fn serve_batch_read(
        &mut self,
        queries: &[Vec<u32>],
        qids: &[u64],
    ) -> Result<(Vec<ServedOutcome>, Vec<usize>), FerexError> {
        if qids.len() != queries.len() {
            return Err(FerexError::DimensionMismatch { expected: queries.len(), got: qids.len() });
        }
        if queries.is_empty() {
            return Ok((Vec::new(), Vec::new()));
        }
        self.validate_batch(queries)?;
        self.stats.queries_submitted += queries.len() as u64;
        self.serve_batch_core(queries, qids)
    }

    /// Batched search without provenance; see [`ReplicaSet::serve_batch`].
    ///
    /// # Errors
    ///
    /// As [`ReplicaSet::serve_batch`].
    pub fn search_batch(&mut self, queries: &[Vec<u32>]) -> Result<Vec<SearchOutcome>, FerexError> {
        Ok(self.serve_batch(queries)?.into_iter().map(|s| s.outcome).collect())
    }

    /// Admission-controlled batch: when the batch exceeds the policy's
    /// capacity, the lowest-priority queries (ties shed from the back) get
    /// [`FerexError::Overloaded`] and the rest are served as one batch in
    /// their original order.
    ///
    /// # Errors
    ///
    /// A priority slice of the wrong length is a
    /// [`FerexError::DimensionMismatch`]; otherwise as
    /// [`ReplicaSet::serve_batch`], with per-query shed errors inside the
    /// returned vector.
    pub fn search_batch_prioritized(
        &mut self,
        queries: &[Vec<u32>],
        priorities: &[u32],
    ) -> Result<Vec<Result<ServedOutcome, FerexError>>, FerexError> {
        if priorities.len() != queries.len() {
            return Err(FerexError::DimensionMismatch {
                expected: queries.len(),
                got: priorities.len(),
            });
        }
        if queries.is_empty() {
            return Ok(Vec::new());
        }
        // The whole submission is validated (and counted) up front, shed
        // queries included — shedding is a capacity decision, not a
        // validation bypass.
        self.validate_batch(queries)?;
        self.stats.queries_submitted += queries.len() as u64;
        let cap = if self.policy.max_batch_queries == 0 {
            queries.len()
        } else {
            self.policy.max_batch_queries
        };
        let mut order: Vec<usize> = (0..queries.len()).collect();
        order.sort_by(|&a, &b| {
            let pa = priorities.get(a).copied().unwrap_or(0);
            let pb = priorities.get(b).copied().unwrap_or(0);
            pb.cmp(&pa).then(a.cmp(&b))
        });
        let mut admitted: Vec<usize> = order.iter().copied().take(cap).collect();
        admitted.sort_unstable(); // serve in original batch order
        let admitted_queries: Vec<Vec<u32>> =
            admitted.iter().filter_map(|&i| queries.get(i).cloned()).collect();
        let shed = queries.len() - admitted.len();
        self.stats.queries_shed += shed as u64;
        let qids: Vec<u64> = (0..admitted_queries.len() as u64).collect();
        let (served, _) = self.serve_batch_core(&admitted_queries, &qids)?;
        let mut results: Vec<Result<ServedOutcome, FerexError>> = (0..queries.len())
            .map(|_| Err(FerexError::Overloaded { admitted: admitted.len(), capacity: cap }))
            .collect();
        for (slot, outcome) in admitted.into_iter().zip(served) {
            if let Some(r) = results.get_mut(slot) {
                *r = Ok(outcome);
            }
        }
        Ok(results)
    }

    /// Validates every query of a submission against the replicas and
    /// rejects an empty store — shared front door of the batch paths.
    fn validate_batch(&self, queries: &[Vec<u32>]) -> Result<(), FerexError> {
        for q in queries {
            self.check_query(q)?;
        }
        if self.rows() == 0 {
            return Err(FerexError::Empty);
        }
        Ok(())
    }

    /// Serves a pre-validated, pre-counted batch through each chosen
    /// replica's batched fast path with explicit query ids, voting per
    /// query. Callers must have run [`ReplicaSet::validate_batch`] and
    /// counted `queries_submitted`.
    fn serve_batch_core(
        &mut self,
        queries: &[Vec<u32>],
        qids: &[u64],
    ) -> Result<(Vec<ServedOutcome>, Vec<usize>), FerexError> {
        if queries.is_empty() {
            return Ok((Vec::new(), Vec::new()));
        }
        let ranked = self.ranked_eligible();
        let reads = self.policy.quorum.reads;
        let budget = reads + self.policy.retry_budget;
        // Each replica's outcomes are consumed in query order, one per
        // query, and moved into that query's vote.
        let mut per_replica: Vec<(usize, std::vec::IntoIter<SearchOutcome>)> = Vec::new();
        for (attempts, &i) in ranked.iter().enumerate() {
            if per_replica.len() == reads || attempts == budget {
                break;
            }
            let Some(replica) = self.replicas.get(i) else { continue };
            match replica.search_batch_at(queries, qids) {
                Ok(outs) => per_replica.push((i, outs.into_iter())),
                Err(e) if Self::is_query_error(&e) => return Err(e),
                Err(_) => self.note_failure(i),
            }
        }
        let reads_used: Vec<usize> = per_replica.iter().map(|(i, _)| *i).collect();
        let mut served = Vec::with_capacity(queries.len());
        let mut to_scrub: Vec<usize> = Vec::new();
        for query in queries {
            let outcomes: Vec<(usize, SearchOutcome)> = per_replica
                .iter_mut()
                .filter_map(|(i, outs)| outs.next().map(|o| (*i, o)))
                .collect();
            let (s, dissenters) = self.vote(query, outcomes)?;
            for d in dissenters {
                if !to_scrub.contains(&d) {
                    to_scrub.push(d);
                }
            }
            served.push(s);
        }
        self.tick += queries.len() as u64;
        self.stats.queries_served += queries.len() as u64;
        for d in to_scrub {
            self.escalate_scrub(d);
        }
        Ok((served, reads_used))
    }
}

impl<A: ReplicaNode + MutableNode> ReplicaSet<A> {
    /// Applies one mutation to every replica; the digital fallback reads
    /// replica 0's rows, so nothing else needs updating. Replicas fed the
    /// same operation sequence make identical slot decisions (the mutation
    /// state machine is a pure function of the op history), so the set
    /// stays in lockstep — provided mutation failures are deterministic
    /// too. Strict write-verify policies break that (per-replica noise
    /// streams can fail one replica's delta write but not another's);
    /// combine replica mutation with the default lenient
    /// quarantine-and-remap repair instead, under which mutations only
    /// fail on validation errors that hit every replica alike.
    fn apply_mutation<T>(
        &mut self,
        op: impl Fn(&mut A) -> Result<T, FerexError>,
    ) -> Result<T, FerexError> {
        let mut first_ok: Option<T> = None;
        let mut first_err: Option<FerexError> = None;
        for replica in &mut self.replicas {
            match op(replica) {
                Ok(v) => {
                    if first_ok.is_none() {
                        first_ok = Some(v);
                    }
                }
                Err(e) => {
                    if first_err.is_none() {
                        first_err = Some(e);
                    }
                }
            }
        }
        match first_err {
            Some(e) => Err(e),
            None => first_ok.ok_or(FerexError::Empty),
        }
    }

    /// Inserts `(id, vector)` into every replica (lockstep slot choice).
    ///
    /// # Errors
    ///
    /// As [`MutableNode::insert`].
    pub fn insert(&mut self, id: u64, vector: Vec<u32>) -> Result<(), FerexError> {
        self.apply_mutation(|r| r.insert(id, vector.clone()))
    }

    /// Replaces `id`'s vector on every replica.
    ///
    /// # Errors
    ///
    /// As [`MutableNode::update`].
    pub fn update(&mut self, id: u64, vector: Vec<u32>) -> Result<(), FerexError> {
        self.apply_mutation(|r| r.update(id, vector.clone()))
    }

    /// Tombstones `id` on every replica.
    ///
    /// # Errors
    ///
    /// As [`MutableNode::delete`].
    pub fn delete(&mut self, id: u64) -> Result<(), FerexError> {
        self.apply_mutation(|r| r.delete(id))
    }

    /// Compacts every replica (infallible, purely logical); returns
    /// replica 0's report.
    pub fn compact(&mut self) -> CompactionReport {
        self.apply_mutation(|r| Ok(r.compact())).unwrap_or_default()
    }

    /// One maintenance step (auto-compaction + wear-leveling rotation) on
    /// every replica; returns replica 0's report.
    pub fn maintenance(&mut self) -> CompactionReport {
        self.apply_mutation(|r| Ok(r.maintenance())).unwrap_or_default()
    }

    /// Live logical ids, ascending (replica 0's view — lockstep).
    pub fn live_ids(&self) -> Vec<u64> {
        self.replicas.first().map(|r| r.live_ids()).unwrap_or_default()
    }

    /// The wear distribution of replica 0 (lockstep slot decisions keep
    /// the per-replica write counters identical).
    pub fn wear(&self) -> WearSummary {
        self.replicas.first().map(|r| r.wear()).unwrap_or_default()
    }
}

impl ReplicaSet<TiledArray> {
    /// Builds a supervisor over `n` independently seeded [`TiledArray`]
    /// replicas of `vectors`, each running the full CSP sizing pipeline
    /// for `metric`.
    ///
    /// # Errors
    ///
    /// Encoding-pipeline or store-validation failures.
    ///
    /// # Panics
    ///
    /// As [`ReplicaSet::new`].
    #[allow(clippy::too_many_arguments)]
    pub fn tiled(
        metric: DistanceMetric,
        bits: u32,
        dim: usize,
        tile_dim: usize,
        backend: &Backend,
        tech: Technology,
        vectors: Vec<Vec<u32>>,
        n: usize,
        policy: ReplicaPolicy,
    ) -> Result<Self, FerexError> {
        let mut replicas = Vec::with_capacity(n);
        for i in 0..n as u64 {
            let mut t = TiledArray::for_metric(
                metric,
                bits,
                dim,
                tile_dim,
                replicate_backend(backend, i),
                tech.clone(),
            )?;
            for v in &vectors {
                t.store(v.clone())?;
            }
            t.program();
            replicas.push(t);
        }
        Ok(ReplicaSet::new(replicas, metric, policy))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::array::CircuitConfig;
    use crate::Ferex;
    use ferex_analog::LtaParams;
    use ferex_fefet::{FaultPlan, VariationModel};

    fn corner_cfg(faults: FaultPlan, seed: u64) -> CircuitConfig {
        CircuitConfig {
            variation: VariationModel::none(),
            lta: LtaParams::ideal(),
            faults,
            seed,
            ..Default::default()
        }
    }

    fn vectors(rows: usize, dim: usize) -> Vec<Vec<u32>> {
        (0..rows as u32).map(|r| (0..dim as u32).map(|d| (r + d) % 4).collect()).collect()
    }

    #[test]
    fn replica_zero_keeps_the_base_seed() {
        assert_eq!(derive_replica_seed(0xFE12EC5, 0), 0xFE12EC5);
        let a = derive_replica_seed(0xFE12EC5, 1);
        let b = derive_replica_seed(0xFE12EC5, 2);
        assert_ne!(a, 0xFE12EC5);
        assert_ne!(a, b);
    }

    #[test]
    #[should_panic(expected = "agree (3) exceeds reads (2)")]
    fn quorum_rejects_agree_above_reads() {
        QuorumPolicy { reads: 2, agree: 3 }.assert_valid(3);
    }

    #[test]
    #[should_panic(expected = "reads (4) exceeds replica count (3)")]
    fn quorum_rejects_reads_above_replicas() {
        QuorumPolicy { reads: 4, agree: 2 }.assert_valid(3);
    }

    #[test]
    fn single_replica_set_is_transparent() {
        // Sequential and batched outcomes through a 1-replica, 1/1-quorum
        // set are bit-identical to a bare array with the same seed.
        let build = || {
            let mut f = Ferex::builder()
                .dim(6)
                .backend(Backend::Noisy(Box::new(corner_cfg(FaultPlan::none(), 9))))
                .build()
                .expect("builds");
            f.store_all(vectors(8, 6)).unwrap();
            f
        };
        let mut bare = build();
        bare.program();
        let mut set = build().replica_set(1, ReplicaPolicy::default()).expect("replicates");
        let queries = vectors(8, 6);
        for q in &queries {
            let lone = bare.array().search(q).unwrap();
            let served = set.serve(q).unwrap();
            assert_eq!(served.outcome, lone);
            assert_eq!(served.source, ServeSource::Replica(0));
        }
        let lone = bare.array().search_batch(&queries).unwrap();
        assert_eq!(set.search_batch(&queries).unwrap(), lone);
    }

    #[test]
    fn quorum_outvotes_a_poisoned_replica_and_escalates_scrubs() {
        let dim = 6;
        let rows = 8;
        let vs = vectors(rows, dim);
        let engine = Ferex::builder().dim(dim).build().expect("builds");
        let enc = engine.encoding().clone();
        let tech = ferex_fefet::Technology::default();
        let mut replicas = Vec::new();
        for i in 0..3u64 {
            // Replica 0 carries a heavy stuck-at plan (SA0 cells conduct
            // unconditionally, inflating matched rows past their
            // duplicates); 1 and 2 are clean.
            let faults = if i == 0 {
                FaultPlan { sa0_rate: 0.1, ..Default::default() }
            } else {
                FaultPlan::none()
            };
            let backend = Backend::Noisy(Box::new(corner_cfg(faults, derive_replica_seed(7, i))));
            let mut a = FerexArray::new(tech.clone(), enc.clone(), dim, backend);
            a.store_all(vs.iter().cloned()).unwrap();
            a.program();
            replicas.push(a);
        }
        let policy =
            ReplicaPolicy { quorum: QuorumPolicy { reads: 3, agree: 2 }, ..Default::default() };
        let mut set = ReplicaSet::new(replicas, DistanceMetric::Hamming, policy);
        for q in &vs {
            // At the fault-isolation corner the two clean replicas are
            // exact, so the quorum answer is always the true nearest.
            let served = set.serve(q).unwrap();
            let truth = set.digital_fallback(q).unwrap().nearest;
            assert_eq!(served.outcome.nearest, truth);
        }
        let st = set.status(0);
        assert!(st.dissents > 0, "the poisoned replica never dissented");
        assert!(set.stats().disagreements > 0);
        assert!(set.stats().scrubs_escalated >= 1, "dissent should trigger a targeted scrub");
    }

    #[test]
    fn breaker_opens_after_threshold_and_probes_half_open() {
        let dim = 4;
        let vs = vectors(4, dim);
        let mut engine = Ferex::builder().dim(dim).build().expect("builds");
        engine.store_all(vs.clone()).unwrap();
        engine.program();
        let policy = ReplicaPolicy {
            quorum: QuorumPolicy { reads: 2, agree: 1 },
            breaker: BreakerPolicy {
                failure_threshold: 2,
                base_backoff_ticks: 3,
                max_backoff_ticks: 12,
            },
            retry_budget: 0,
            ..Default::default()
        };
        let mut set = engine.replica_set(2, policy).expect("replicates");
        // Exclude every row of replica 1: its searches now fail Empty.
        for r in 0..vs.len() {
            let _ = set.replica_mut(1).quarantine_row(r);
        }
        let q = &vs[0];
        set.serve(q).unwrap();
        assert_eq!(set.status(1).consecutive_failures, 1);
        set.serve(q).unwrap();
        let opened = set.status(1).breaker;
        assert_eq!(opened, BreakerState::Open { until_tick: 1 + 3 }, "threshold 2 trips at tick 1");
        assert_eq!(set.stats().breaker_trips, 1);
        // While open the replica is skipped — no failure accrues.
        set.serve(q).unwrap();
        assert_eq!(set.status(1).breaker, opened);
        // Past the backoff the breaker half-opens, the probe fails, and it
        // re-opens with doubled backoff.
        set.serve(q).unwrap(); // tick 3
        set.serve(q).unwrap(); // tick 4: eligible as half-open, probe fails
        assert!(matches!(set.status(1).breaker, BreakerState::Open { .. }));
        assert_eq!(set.stats().breaker_trips, 2);
        // Every query was still answered by the healthy replica.
        assert_eq!(set.stats().queries_served, 5);
        assert_eq!(set.stats().oracle_fallbacks, 0);
    }

    #[test]
    fn admission_control_sheds_lowest_priority_queries() {
        let dim = 4;
        let vs = vectors(6, dim);
        let mut engine = Ferex::builder().dim(dim).build().expect("builds");
        engine.store_all(vs.clone()).unwrap();
        let policy = ReplicaPolicy { max_batch_queries: 2, ..Default::default() };
        let mut set = engine.replica_set(1, policy).expect("replicates");
        let batch: Vec<Vec<u32>> = vs[0..4].to_vec();
        // Whole-batch path rejects outright…
        let err = set.search_batch(&batch).unwrap_err();
        assert_eq!(err, FerexError::Overloaded { admitted: 0, capacity: 2 });
        // …the prioritized path sheds exactly the two lowest priorities.
        let results = set.search_batch_prioritized(&batch, &[1, 9, 0, 9]).unwrap();
        assert!(results[1].is_ok() && results[3].is_ok());
        assert_eq!(
            results[0].as_ref().unwrap_err(),
            &FerexError::Overloaded { admitted: 2, capacity: 2 }
        );
        assert!(results[2].is_err());
        assert_eq!(set.stats().queries_shed, 4 + 2);
        assert_eq!(set.stats().queries_served, 2);
    }

    #[test]
    fn stats_balance_served_plus_shed_equals_submitted() {
        let dim = 4;
        let vs = vectors(6, dim);
        let mut engine = Ferex::builder().dim(dim).build().expect("builds");
        engine.store_all(vs.clone()).unwrap();
        let policy = ReplicaPolicy { max_batch_queries: 2, ..Default::default() };
        let mut set = engine.replica_set(1, policy).expect("replicates");
        let balanced =
            |s: ReplicaSetStats| s.queries_served + s.queries_shed == s.queries_submitted;

        set.serve(&vs[0]).unwrap();
        assert!(balanced(set.stats()));
        // Whole-batch rejection (the `admitted: 0` path): the submission is
        // validated, counted, and shed in full — previously it was shed
        // without ever being counted as submitted.
        let batch: Vec<Vec<u32>> = vs[0..4].to_vec();
        let err = set.serve_batch(&batch).unwrap_err();
        assert_eq!(err, FerexError::Overloaded { admitted: 0, capacity: 2 });
        assert!(balanced(set.stats()));
        assert_eq!(set.stats().queries_submitted, 1 + 4);
        // Prioritized partial shed.
        set.search_batch_prioritized(&batch, &[1, 9, 0, 9]).unwrap();
        assert!(balanced(set.stats()));
        assert_eq!(set.stats().queries_submitted, 1 + 4 + 4);
        assert_eq!(set.stats().queries_served, 1 + 2);
        assert_eq!(set.stats().queries_shed, 4 + 2);
        // In-capacity batch and explicit-id batch shed nothing.
        set.serve_batch(&batch[0..2]).unwrap();
        set.serve_batch_at(&batch[0..2], &[40, 41]).unwrap();
        assert!(balanced(set.stats()));
        assert_eq!(set.stats().queries_submitted, 13);
        assert_eq!(set.stats().queries_served, 7);
    }

    #[test]
    fn serve_batch_at_is_bit_identical_to_individual_serving() {
        // With explicit query ids the batch grouping is invisible: any
        // split of the same (query, qid) pairs reproduces the outcomes of
        // serving each pair alone.
        let build = || {
            let mut f = Ferex::builder()
                .dim(6)
                .backend(Backend::Noisy(Box::new(corner_cfg(FaultPlan::none(), 21))))
                .build()
                .expect("builds");
            f.store_all(vectors(8, 6)).unwrap();
            f.replica_set(1, ReplicaPolicy::default()).expect("replicates")
        };
        let queries = vectors(8, 6);
        let qids: Vec<u64> = (0..queries.len() as u64).map(|i| i * 3 + 5).collect();
        let mut whole = build();
        let all = whole.serve_batch_at(&queries, &qids).unwrap();
        let mut split = build();
        let mut chunked = Vec::new();
        for (qchunk, idchunk) in queries.chunks(3).zip(qids.chunks(3)) {
            chunked.extend(split.serve_batch_at(qchunk, idchunk).unwrap());
        }
        assert_eq!(all, chunked);
        // And both match individual searches on a bare array with the same
        // seed and ids.
        let mut bare = Ferex::builder()
            .dim(6)
            .backend(Backend::Noisy(Box::new(corner_cfg(FaultPlan::none(), 21))))
            .build()
            .expect("builds");
        bare.store_all(vectors(8, 6)).unwrap();
        bare.program();
        for ((q, &qid), served) in queries.iter().zip(&qids).zip(&all) {
            assert_eq!(served.outcome, bare.array().search_at(q, qid).unwrap());
        }
    }

    #[test]
    fn killed_replicas_are_never_routed_and_quorum_falls_back() {
        let dim = 4;
        let vs = vectors(4, dim);
        let mut engine = Ferex::builder().dim(dim).build().expect("builds");
        engine.store_all(vs.clone()).unwrap();
        let policy =
            ReplicaPolicy { quorum: QuorumPolicy { reads: 2, agree: 2 }, ..Default::default() };
        let mut set = engine.replica_set(2, policy).expect("replicates");
        set.kill(1);
        assert_eq!(set.alive(), 1);
        // One eligible replica cannot meet agree = 2: the oracle serves.
        let served = set.serve(&vs[2]).unwrap();
        assert_eq!(served.source, ServeSource::OracleFallback);
        assert_eq!(served.outcome.nearest, 2);
        set.revive(1);
        let served = set.serve(&vs[2]).unwrap();
        assert_eq!(served.source, ServeSource::Replica(0));
    }

    #[test]
    fn replica_set_mutates_in_lockstep_and_serves_through_churn() {
        use crate::mutate::MutationPolicy;
        let mut engine = Ferex::builder().dim(6).build().expect("builds");
        engine.enable_mutation(MutationPolicy::with_capacity(8)).unwrap();
        for (id, v) in vectors(4, 6).into_iter().enumerate() {
            engine.insert(id as u64, v).unwrap();
        }
        let policy =
            ReplicaPolicy { quorum: QuorumPolicy { reads: 2, agree: 2 }, ..Default::default() };
        let mut set = engine.replica_set(2, policy).expect("replicates");
        // Mutate through the supervisor: every replica applies the same
        // ops, and the digital fallback reads replica 0's rows.
        set.delete(1).unwrap();
        set.insert(9, vec![3; 6]).unwrap();
        set.update(2, vec![1; 6]).unwrap();
        assert_eq!(set.live_ids(), vec![0, 2, 3, 9]);
        for i in 0..set.n_replicas() {
            assert_eq!(set.replica(i).live_ids(), vec![0, 2, 3, 9], "replica {i} diverged");
            assert_eq!(set.replica(i).wear(), set.wear(), "replica {i} wear diverged");
        }
        // The device quorum and the digital oracle agree on the new
        // contents (Ideal backend: both are exact).
        let slot9 = set.replica(0).slot_of(9).expect("id 9 is live");
        let served = set.serve(&[3; 6]).unwrap();
        assert_eq!(served.outcome.nearest, slot9);
        assert_eq!(served.source, ServeSource::Replica(0));
        assert_eq!(set.digital_fallback(&[3; 6]).unwrap().nearest, slot9);
        // Deleted and never-written slots read +inf on both paths.
        let dead_or_free: Vec<usize> =
            (0..set.rows()).filter(|&r| !set.replica(0).slot_live(r)).collect();
        assert!(!dead_or_free.is_empty());
        let oracle = set.digital_fallback(&[0; 6]).unwrap();
        for r in dead_or_free {
            assert!(served.outcome.distances[r].is_infinite(), "device served slot {r}");
            assert!(oracle.distances[r].is_infinite(), "oracle scored slot {r}");
        }
    }

    #[test]
    fn tiled_replica_set_serves_through_the_trait() {
        // Four rows only: the `vectors` helper repeats mod 4, and duplicate
        // rows would legitimately steal self-query argmins.
        let vs = vectors(4, 8);
        let mut set = ReplicaSet::tiled(
            DistanceMetric::Manhattan,
            2,
            8,
            4,
            &Backend::Ideal,
            ferex_fefet::Technology::default(),
            vs.clone(),
            2,
            ReplicaPolicy { quorum: QuorumPolicy { reads: 2, agree: 2 }, ..Default::default() },
        )
        .expect("builds");
        for (r, q) in vs.iter().enumerate() {
            let served = set.serve(q).unwrap();
            assert_eq!(served.outcome.nearest, r);
            assert_eq!(served.source, ServeSource::Replica(0));
        }
        assert_eq!(set.stats().oracle_fallbacks, 0);
    }
}
