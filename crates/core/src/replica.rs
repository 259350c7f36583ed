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
//!    [`HealthSnapshot`](crate::health::HealthSnapshot) and its most
//!    recent scrub findings.
//! 2. **Quorum reads** — a [`QuorumPolicy`] reads up to `reads` replicas
//!    per query and requires `agree` of them to report the same nearest
//!    row. Dissenting replicas are escalated into targeted scrubs; when
//!    quorum cannot be met, the query falls back to an exact digital
//!    recompute over replica 0's logical rows (the same (distance, index)
//!    tie policy as the conformance oracle); the supervisor keeps no copy
//!    of the stored vectors.
//! 3. **Replica health: one backoff ladder, two instances** — each
//!    replica carries two closed → open → half-open ladders with bounded
//!    exponential backoff, on two virtual clocks (no wall clock, so runs
//!    are bit-reproducible). The *breaker* is fed read errors and quorum
//!    dissents on the set's query tick (one tick per served query); open,
//!    it takes the replica out of routing, and a failed read pulls in the
//!    next eligible replica, up to the policy's retry budget. The
//!    *brownout* is fed a latency EWMA of the sampled reads the
//!    [`ServeLoop`](crate::serve::ServeLoop) reports on its own tick;
//!    open, it keeps the replica routable behind a demerit.
//!
//! Every query takes one path: [`ReplicaSet::serve_batch_read`] routes,
//! reads, votes and scrubs a batch with the caller's query ids. Admission
//! control lives one layer up, in the
//! [`ServeLoop`](crate::serve::ServeLoop)'s queue.
//!
//! With one replica and a 1/1 quorum the supervisor is transparent:
//! replica 0 keeps the base backend seed and reads with the caller's ids,
//! exactly like a bare [`FerexArray`], so outcomes are bit-identical to
//! serving without it.

use crate::array::{Backend, FerexArray, SearchOutcome};
use crate::distance::DistanceMetric;
use crate::error::FerexError;
use crate::latency::LatencyModel;
use crate::mutate::{CompactionReport, WearSummary};
use ferex_fefet::math::splitmix64;

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
    /// # Errors
    ///
    /// [`FerexError::InvalidPolicy`] when `reads` or `agree` is zero,
    /// `agree > reads`, or `reads > replicas` — all of which make the
    /// quorum unservable.
    pub fn validate(&self, replicas: usize) -> Result<(), FerexError> {
        if self.reads == 0 {
            return Err(FerexError::InvalidPolicy { what: "quorum reads must be at least 1" });
        }
        if self.agree == 0 {
            return Err(FerexError::InvalidPolicy { what: "quorum agree must be at least 1" });
        }
        if self.agree > self.reads {
            return Err(FerexError::InvalidPolicy { what: "quorum agree exceeds reads" });
        }
        if self.reads > replicas {
            return Err(FerexError::InvalidPolicy {
                what: "quorum reads exceed the replica count",
            });
        }
        Ok(())
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
    /// # Errors
    ///
    /// [`FerexError::InvalidPolicy`] on a zero threshold, zero base
    /// backoff, or a ceiling below the base.
    pub fn validate(&self) -> Result<(), FerexError> {
        if self.failure_threshold == 0 {
            return Err(FerexError::InvalidPolicy {
                what: "breaker failure threshold must be at least 1",
            });
        }
        if self.base_backoff_ticks == 0 {
            return Err(FerexError::InvalidPolicy {
                what: "breaker base backoff must be at least 1 tick",
            });
        }
        if self.max_backoff_ticks < self.base_backoff_ticks {
            return Err(FerexError::InvalidPolicy {
                what: "breaker backoff ceiling below the base",
            });
        }
        Ok(())
    }
}

/// Brownout demotion of slow-but-alive replicas.
///
/// The set tracks a per-replica EWMA of the observed service multiplier
/// (per-mille of the expected cost-model charge) that the serving loop
/// reports on its virtual tick clock. A replica whose EWMA crosses the
/// threshold is *demoted*: a routing demerit pushes it below every
/// healthy replica (it stays eligible — a brownout, not the breaker's
/// hard Open). After the re-probe backoff the demerit lifts and the next
/// read is a half-open probe: a probe within the threshold rehabilitates
/// the replica, a slow probe re-demotes it with doubled backoff.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BrownoutPolicy {
    /// EWMA multiplier (per-mille of the expected charge) above which a
    /// replica is demoted; must be above 1000 (1x).
    pub demote_threshold_milli: u64,
    /// Ticks a demoted replica sits out before its first re-probe;
    /// doubles per failed probe (capped at 64x).
    pub reprobe_ticks: u64,
    /// EWMA smoothing shift: alpha = 1 / 2^ewma_shift; 0..=16.
    pub ewma_shift: u32,
}

impl Default for BrownoutPolicy {
    fn default() -> Self {
        BrownoutPolicy { demote_threshold_milli: 2500, reprobe_ticks: 2048, ewma_shift: 2 }
    }
}

impl BrownoutPolicy {
    /// Validates the policy knobs.
    ///
    /// # Errors
    ///
    /// [`FerexError::InvalidPolicy`] on a threshold at or below 1000
    /// milli, a zero re-probe backoff, or an EWMA shift above 16.
    pub fn validate(&self) -> Result<(), FerexError> {
        if self.demote_threshold_milli <= 1000 {
            return Err(FerexError::InvalidPolicy {
                what: "brownout demotion threshold must be above 1000 milli",
            });
        }
        if self.reprobe_ticks == 0 {
            return Err(FerexError::InvalidPolicy {
                what: "brownout re-probe backoff must be at least 1 tick",
            });
        }
        if self.ewma_shift > 16 {
            return Err(FerexError::InvalidPolicy {
                what: "brownout EWMA shift must be at most 16",
            });
        }
        Ok(())
    }
}

/// State of one replica's backoff ladder: its circuit breaker or its
/// brownout demotion.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BreakerState {
    /// Serving normally.
    #[default]
    Closed,
    /// Tripped until the ladder's clock reaches `until_tick`: an open
    /// breaker takes the replica out of routing, an open brownout demotes
    /// it behind a routing demerit.
    Open {
        /// Tick at which the ladder transitions to half-open.
        until_tick: u64,
    },
    /// Probing: the replica is routed normally again; one more failure
    /// re-opens the ladder with doubled backoff, one success closes it.
    HalfOpen,
}

/// Full serving policy of a [`ReplicaSet`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplicaPolicy {
    /// Quorum-read configuration.
    pub quorum: QuorumPolicy,
    /// Per-replica circuit-breaker configuration.
    pub breaker: BreakerPolicy,
    /// Per-replica brownout demotion, fed by the serving loop's sampled
    /// read latencies. `None` disables it.
    pub brownout: Option<BrownoutPolicy>,
    /// Extra replicas a query may pull in when a chosen replica fails
    /// mid-read.
    pub retry_budget: usize,
    /// Minimum ticks between two escalated scrubs of the same replica.
    pub scrub_cooldown_ticks: u64,
}

impl Default for ReplicaPolicy {
    fn default() -> Self {
        ReplicaPolicy {
            quorum: QuorumPolicy::default(),
            breaker: BreakerPolicy::default(),
            brownout: None,
            retry_budget: 1,
            scrub_cooldown_ticks: 16,
        }
    }
}

impl ReplicaPolicy {
    /// Validates every knob against a replica count.
    ///
    /// # Errors
    ///
    /// As [`QuorumPolicy::validate`], [`BreakerPolicy::validate`] and
    /// [`BrownoutPolicy::validate`].
    pub fn validate(&self, replicas: usize) -> Result<(), FerexError> {
        self.quorum.validate(replicas)?;
        self.breaker.validate()?;
        if let Some(b) = &self.brownout {
            b.validate()?;
        }
        Ok(())
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
/// Accounting invariant: every query accepted into a read counts
/// into `queries_submitted` exactly once and then lands in
/// `queries_served`, so on every successful return `queries_served ==
/// queries_submitted`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ReplicaSetStats {
    /// Queries validated and accepted into a read.
    pub queries_submitted: u64,
    /// Queries answered.
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
    /// Always 0: the set sheds nothing. Admission control is the
    /// [`ServeLoop`](crate::serve::ServeLoop)'s queue, which counts its
    /// own sheds.
    pub queries_shed: u64,
    /// Circuit-breaker trips across all replicas.
    pub breaker_trips: u64,
}

/// Public point-in-time view of one replica's serving state.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReplicaStatus {
    /// Circuit-breaker state, on the set's query tick.
    pub breaker: BreakerState,
    /// Brownout state, on the serving loop's virtual tick: open while the
    /// replica is demoted.
    pub brownout: BreakerState,
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
    /// EWMA of the replica's sampled service time, in per-mille of the
    /// cost model's expectation (1000 = nominal; only reads charged
    /// through a latency model move it).
    pub latency_ewma_milli: u64,
    /// Brownout routing demerit, in per-mille of a routing point: the
    /// EWMA's excess over nominal when the replica was last demoted
    /// (0 = not demoted).
    pub latency_demerit_milli: u64,
    /// Current routing score (higher routes first).
    pub score: f64,
}

/// One exponential-backoff ladder: closed → open → half-open → closed.
/// Each replica has two, on separate clocks: the breaker and the brownout.
#[derive(Debug, Clone, Copy, Default)]
struct Backoff {
    state: BreakerState,
    /// Trips since the ladder last closed; the exponent of the backoff.
    level: u32,
}

impl Backoff {
    /// Raises the level and opens for `base · 2^(level−1)` ticks,
    /// saturating and capped at `max`.
    fn trip(&mut self, now: u64, base: u64, max: u64) {
        self.level = (self.level + 1).min(63);
        let ticks = base.saturating_mul(1 << (self.level - 1)).min(max);
        self.state = BreakerState::Open { until_tick: now.saturating_add(ticks) };
    }

    /// Turns an open ladder whose backoff expired by `now` into half-open;
    /// `true` when it did.
    fn release(&mut self, now: u64) -> bool {
        match self.state {
            BreakerState::Open { until_tick } if now >= until_tick => {
                self.state = BreakerState::HalfOpen;
                true
            }
            _ => false,
        }
    }

    /// Closes the ladder and resets its level.
    fn close(&mut self) {
        *self = Backoff::default();
    }
}

#[derive(Debug, Clone, Default)]
struct ReplicaState {
    /// Fed read errors and dissents, on the set's query tick.
    breaker: Backoff,
    /// Fed the latency EWMA, on the serving loop's virtual tick.
    brownout: Backoff,
    dead: bool,
    consecutive_failures: u32,
    trips: u64,
    served: u64,
    dissents: u64,
    last_scrub_findings: usize,
    last_scrub_tick: Option<u64>,
    latency_ewma_milli: u64,
    latency_demerit_milli: u64,
}

/// The replicated serving supervisor. See the module docs for the state
/// machine; construct via [`ReplicaSet::new`] or
/// [`crate::Ferex::replica_set`].
///
/// `A` is always [`FerexArray`]; the `serve_e2e` benchmark still spells it.
#[derive(Debug, Clone)]
pub struct ReplicaSet<A = FerexArray> {
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
    stats: ReplicaSetStats,
}

impl ReplicaSet {
    /// Builds a supervisor over pre-constructed replicas. Every replica
    /// must already store the same vectors, row-aligned: replica 0's
    /// logical rows ([`FerexArray::row_vector`]) are the truth the digital
    /// fallback recomputes against.
    ///
    /// # Errors
    ///
    /// [`FerexError::InvalidPolicy`] when `replicas` is empty, a replica's
    /// row count differs from replica 0's, or the policy is invalid for
    /// the replica count (see [`ReplicaPolicy::validate`]).
    pub fn new(
        replicas: Vec<FerexArray>,
        metric: DistanceMetric,
        policy: ReplicaPolicy,
    ) -> Result<Self, FerexError> {
        let Some(rows) = replicas.first().map(FerexArray::len) else {
            return Err(FerexError::InvalidPolicy {
                what: "a replica set needs at least one replica",
            });
        };
        policy.validate(replicas.len())?;
        if replicas.iter().any(|r| r.len() != rows) {
            return Err(FerexError::InvalidPolicy {
                what: "every replica must store replica 0's row count",
            });
        }
        let states =
            vec![ReplicaState { latency_ewma_milli: 1000, ..Default::default() }; replicas.len()];
        let latency = vec![None; replicas.len()];
        Ok(ReplicaSet {
            replicas,
            states,
            latency,
            metric,
            policy,
            tick: 0,
            stats: ReplicaSetStats::default(),
        })
    }

    /// Number of replicas (dead ones included).
    pub fn n_replicas(&self) -> usize {
        self.replicas.len()
    }

    /// Rows of the supervised store (replica 0's row count, which every
    /// replica shares).
    pub fn rows(&self) -> usize {
        self.replicas.first().map_or(0, FerexArray::len)
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
    pub fn replica(&self, i: usize) -> &FerexArray {
        // lint:allow(panic-safety/index, reason = "documented panicking accessor; callers pass i < n_replicas()")
        &self.replicas[i]
    }

    /// Mutable access to one replica (fault injection, manual repair).
    ///
    /// # Panics
    ///
    /// Panics when `i` is at or past [`ReplicaSet::n_replicas`].
    pub fn replica_mut(&mut self, i: usize) -> &mut FerexArray {
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
    /// [`HealthSnapshot::degraded_milli`](crate::health::HealthSnapshot::degraded_milli)
    /// and whether an escalated or scheduled scrub ran within the model's
    /// window on the set's own tick clock. `None` when no model is attached
    /// (or `i` is out of range) — the caller falls back to its uniform cost.
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

    /// Feeds one read's sampled duration on replica `r` into its latency
    /// EWMA (in per-mille of the `expected` charge), then steps its
    /// brownout ladder at the serving loop's tick `now`. An EWMA over the
    /// threshold demotes a closed ladder; a probe is judged on its own
    /// observation, recovering (EWMA reseeded to the probe) or re-demoting
    /// at the next backoff level. Returns `true` when this read demoted the
    /// replica.
    pub(crate) fn observe_latency(
        &mut self,
        r: usize,
        sampled: u64,
        expected: u64,
        now: u64,
    ) -> bool {
        let brownout = self.policy.brownout;
        let Some(st) = self.states.get_mut(r) else { return false };
        let obs = (sampled.saturating_mul(1000) / expected.max(1)).min(1_000_000);
        let shift = brownout.map_or(2, |b| b.ewma_shift);
        let cur = st.latency_ewma_milli as i64;
        st.latency_ewma_milli = (cur + ((obs as i64 - cur) >> shift)).max(1) as u64;
        let Some(b) = brownout else { return false };
        let demote = match st.brownout.state {
            BreakerState::Closed => st.latency_ewma_milli > b.demote_threshold_milli,
            BreakerState::HalfOpen if obs <= b.demote_threshold_milli => {
                st.brownout.close();
                st.latency_ewma_milli = obs.max(1);
                st.latency_demerit_milli = 0;
                false
            }
            BreakerState::HalfOpen => true,
            BreakerState::Open { .. } => false,
        };
        if demote {
            st.brownout.trip(now, b.reprobe_ticks, b.reprobe_ticks.saturating_mul(64));
            st.latency_demerit_milli = st.latency_ewma_milli.saturating_sub(1000);
        }
        demote
    }

    /// Lifts every expired demotion into a half-open probe at the serving
    /// loop's tick `now`: the demerit clears, so routing picks the replica
    /// up for one judged batch. Returns how many replicas were released.
    pub(crate) fn release_brownouts(&mut self, now: u64) -> u64 {
        let mut released = 0;
        for st in &mut self.states {
            // Dead replicas keep both ladders open until revived, as no
            // batch could read their probe.
            if !st.dead && st.brownout.release(now) {
                st.latency_demerit_milli = 0;
                released += 1;
            }
        }
        released
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
        self.replicas.first().ok_or(FerexError::Empty)?.validate(query)
    }

    /// Point-in-time view of one replica's serving state. Out-of-range
    /// indices read as a default (dead-free, never-served) status with a
    /// floor routing score.
    pub fn status(&self, i: usize) -> ReplicaStatus {
        let Some(st) = self.states.get(i) else {
            return ReplicaStatus {
                breaker: BreakerState::Closed,
                brownout: BreakerState::Closed,
                dead: false,
                consecutive_failures: 0,
                trips: 0,
                served: 0,
                dissents: 0,
                last_scrub_findings: 0,
                latency_ewma_milli: 1000,
                latency_demerit_milli: 0,
                score: f64::MIN,
            };
        };
        ReplicaStatus {
            breaker: st.breaker.state,
            brownout: st.brownout.state,
            dead: st.dead,
            consecutive_failures: st.consecutive_failures,
            trips: st.trips,
            served: st.served,
            dissents: st.dissents,
            last_scrub_findings: st.last_scrub_findings,
            latency_ewma_milli: st.latency_ewma_milli,
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

    /// Brings a killed replica back with a closed breaker (its backoff
    /// level kept, so a replica that keeps failing still backs off
    /// further). The brownout ladder is left as it was: an expired
    /// demotion lifts at the serving loop's next closing poll.
    /// Out-of-range indices are ignored.
    pub fn revive(&mut self, i: usize) {
        let Some(st) = self.states.get_mut(i) else { return };
        st.dead = false;
        st.breaker.state = BreakerState::Closed;
        st.consecutive_failures = 0;
    }

    /// Runs a maintenance scrub on every live replica (the chaos harness's
    /// scheduled scrub cycle); returns the findings summed over the
    /// replicas scrubbed. [`ReplicaSetStats::scheduled_scrubs`] counts the
    /// scrubs.
    pub fn scrub_all(&mut self) -> usize {
        let tick = self.tick;
        let mut total = 0;
        for (st, replica) in self.states.iter_mut().zip(&mut self.replicas) {
            if st.dead {
                continue;
            }
            if let Ok(report) = replica.scrub() {
                st.last_scrub_findings = report.findings.len();
                st.last_scrub_tick = Some(tick);
                self.stats.scheduled_scrubs += 1;
                total += report.findings.len();
            }
        }
        total
    }

    /// Routing score of one replica: fraction of rows still served
    /// dominates, remapped rows, recent scrub findings and a brownout
    /// demerit penalize, spare headroom breaks near-ties. Healthy
    /// fault-free replicas all score identically, and routing resolves
    /// score ties by lowest index — so a clean set always routes to
    /// replica 0 first.
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
            // Dead replicas stay open until revived, as in
            // `release_brownouts`.
            if !st.dead {
                st.breaker.release(tick);
            }
        }
        let mut eligible: Vec<(usize, f64)> = self
            .states
            .iter()
            .enumerate()
            .filter(|(_, st)| !st.dead && !matches!(st.breaker.state, BreakerState::Open { .. }))
            .map(|(i, _)| (i, self.routing_score(i)))
            .collect();
        eligible.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        eligible.into_iter().map(|(i, _)| i).collect()
    }

    fn note_success(&mut self, i: usize) {
        let Some(st) = self.states.get_mut(i) else { return };
        st.consecutive_failures = 0;
        if st.breaker.state == BreakerState::HalfOpen {
            st.breaker.close();
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
        let trip = match st.breaker.state {
            // A failed half-open probe re-opens immediately with doubled
            // backoff; a closed breaker waits for the threshold.
            BreakerState::HalfOpen => true,
            BreakerState::Closed => st.consecutive_failures >= p.failure_threshold,
            BreakerState::Open { .. } => false,
        };
        if trip {
            st.breaker.trip(tick, p.base_backoff_ticks, p.max_backoff_ticks);
            st.trips += 1;
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
        let distances: Vec<f64> = (0..first.len())
            .map(|r| {
                let row = if first.slot_live(r) { first.row_vector(r) } else { None };
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
        match replica.scrub() {
            Ok(report) => {
                if let Some(st) = self.states.get_mut(i) {
                    st.last_scrub_findings = report.findings.len();
                }
                self.stats.scrubs_escalated += 1;
            }
            Err(_) => self.note_failure(i),
        }
    }

    /// Serves a batch through the full ladder (routing → quorum → breaker
    /// bookkeeping → fallback) with one explicit query id per entry — the
    /// set's one read. Because per-query sensing noise is keyed purely on
    /// the id, the outcomes are bit-identical to serving each request
    /// alone with the same id, no matter how the caller grouped the
    /// requests. The second element lists the replica indices whose
    /// batched reads fed the vote, in routing order; the serving loop's
    /// latency model charges each of those reads its own modeled service
    /// time.
    ///
    /// # Errors
    ///
    /// A `qids` slice of the wrong length is a
    /// [`FerexError::DimensionMismatch`]; query validation errors;
    /// [`FerexError::Empty`] when nothing is stored. Replica-health errors
    /// never surface here — they divert to healthier replicas or the
    /// digital fallback.
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
        for q in queries {
            self.check_query(q)?;
        }
        if self.rows() == 0 {
            return Err(FerexError::Empty);
        }
        self.stats.queries_submitted += queries.len() as u64;
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
        op: impl Fn(&mut FerexArray) -> Result<T, FerexError>,
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
    /// As [`FerexArray::insert`].
    pub fn insert(&mut self, id: u64, vector: Vec<u32>) -> Result<(), FerexError> {
        self.apply_mutation(|r| r.insert(id, vector.clone()))
    }

    /// Replaces `id`'s vector on every replica.
    ///
    /// # Errors
    ///
    /// As [`FerexArray::update_id`].
    pub fn update(&mut self, id: u64, vector: Vec<u32>) -> Result<(), FerexError> {
        self.apply_mutation(|r| r.update_id(id, vector.clone()))
    }

    /// Tombstones `id` on every replica.
    ///
    /// # Errors
    ///
    /// As [`FerexArray::delete`].
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

    /// One query through the set's batch read, sensed with id `qid`.
    fn serve_one(set: &mut ReplicaSet, q: &[u32], qid: u64) -> Result<ServedOutcome, FerexError> {
        let (mut served, _) = set.serve_batch_read(&[q.to_vec()], &[qid])?;
        served.pop().ok_or(FerexError::Empty)
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
    fn invalid_policies_and_replica_sets_are_typed_errors() {
        let invalid = |what| Err(FerexError::InvalidPolicy { what });
        assert_eq!(
            QuorumPolicy { reads: 2, agree: 3 }.validate(3),
            invalid("quorum agree exceeds reads")
        );
        assert_eq!(
            QuorumPolicy { reads: 4, agree: 2 }.validate(3),
            invalid("quorum reads exceed the replica count")
        );
        assert_eq!(QuorumPolicy { reads: 3, agree: 2 }.validate(3), Ok(()));
        let breaker = BreakerPolicy { max_backoff_ticks: 4, ..Default::default() };
        assert_eq!(breaker.validate(), invalid("breaker backoff ceiling below the base"));
        let b = BrownoutPolicy::default();
        assert_eq!(b.validate(), Ok(()));
        let brownout = |b| ReplicaPolicy { brownout: Some(b), ..Default::default() }.validate(1);
        assert_eq!(
            brownout(BrownoutPolicy { demote_threshold_milli: 1000, ..b }),
            invalid("brownout demotion threshold must be above 1000 milli")
        );
        assert_eq!(
            brownout(BrownoutPolicy { reprobe_ticks: 0, ..b }),
            invalid("brownout re-probe backoff must be at least 1 tick")
        );
        assert_eq!(
            brownout(BrownoutPolicy { ewma_shift: 17, ..b }),
            invalid("brownout EWMA shift must be at most 16")
        );
        let build = |rows: usize| {
            let mut f = Ferex::builder().dim(4).build().expect("builds");
            f.store_all(vectors(rows, 4)).unwrap();
            f.array().clone()
        };
        let new = |replicas: Vec<FerexArray>, policy| {
            ReplicaSet::new(replicas, DistanceMetric::Hamming, policy).map(|_| ())
        };
        assert_eq!(
            new(Vec::new(), ReplicaPolicy::default()),
            invalid("a replica set needs at least one replica")
        );
        assert_eq!(
            new(vec![build(4), build(3)], ReplicaPolicy::default()),
            invalid("every replica must store replica 0's row count")
        );
        let quorum =
            ReplicaPolicy { quorum: QuorumPolicy { reads: 2, agree: 3 }, ..Default::default() };
        assert_eq!(new(vec![build(4), build(4)], quorum), invalid("quorum agree exceeds reads"));
        assert_eq!(new(vec![build(4), build(4)], ReplicaPolicy::default()), Ok(()));
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
        bare.array_mut().program();
        let mut set = build().replica_set(1, ReplicaPolicy::default()).expect("replicates");
        let queries = vectors(8, 6);
        let qids: Vec<u64> = (0..queries.len() as u64).collect();
        let lone = bare.array().search_batch_at(&queries, &qids).unwrap();
        for ((q, &qid), lone) in queries.iter().zip(&qids).zip(&lone) {
            let served = serve_one(&mut set, q, qid).unwrap();
            assert_eq!(&served.outcome, lone);
            assert_eq!(served.source, ServeSource::Replica(0));
        }
        let (served, reads) = set.serve_batch_read(&queries, &qids).unwrap();
        assert_eq!(served.into_iter().map(|s| s.outcome).collect::<Vec<_>>(), lone);
        assert_eq!(reads, vec![0]);
    }

    /// Three Noisy replicas of `vs` at the fault-isolation corner, quorum
    /// 2 of 3: replica 0 carries a heavy stuck-at plan (SA0 cells conduct
    /// unconditionally, inflating matched rows past their duplicates); 1
    /// and 2 are clean.
    fn poisoned_set(vs: &[Vec<u32>], dim: usize) -> ReplicaSet {
        let engine = Ferex::builder().dim(dim).build().expect("builds");
        let enc = engine.encoding().clone();
        let tech = ferex_fefet::Technology::default();
        let mut replicas = Vec::new();
        for i in 0..3u64 {
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
        ReplicaSet::new(replicas, DistanceMetric::Hamming, policy).expect("valid")
    }

    #[test]
    fn quorum_outvotes_a_poisoned_replica_and_escalates_scrubs() {
        let vs = vectors(8, 6);
        let mut set = poisoned_set(&vs, 6);
        for (qid, q) in (0..).zip(&vs) {
            // At the fault-isolation corner the two clean replicas are
            // exact, so the quorum answer is always the true nearest.
            let served = serve_one(&mut set, q, qid).unwrap();
            let truth = set.digital_fallback(q).unwrap().nearest;
            assert_eq!(served.outcome.nearest, truth);
        }
        let st = set.status(0);
        assert!(st.dissents > 0, "the poisoned replica never dissented");
        assert!(set.stats().disagreements > 0);
        assert!(set.stats().scrubs_escalated >= 1, "dissent should trigger a targeted scrub");
    }

    #[test]
    fn scrub_all_returns_summed_findings_and_stats_count_the_scrubs() {
        let vs = vectors(8, 6);
        let mut engine = Ferex::builder().dim(6).build().expect("builds");
        engine.store_all(vs.clone()).unwrap();
        let mut clean = engine.replica_set(3, ReplicaPolicy::default()).expect("replicates");
        assert_eq!(clean.scrub_all(), 0, "clean replicas have nothing to find");
        assert_eq!(clean.stats().scheduled_scrubs, 3);
        let mut poisoned = poisoned_set(&vs, 6);
        let findings = poisoned.scrub_all();
        assert!(findings > 0, "the stuck replica's scrub finds nothing");
        assert_eq!(findings, (0..3).map(|i| poisoned.status(i).last_scrub_findings).sum());
        assert_eq!(poisoned.stats().scheduled_scrubs, 3);
    }

    #[test]
    fn bad_lta_offset_serves_through_the_oracle_fallback() {
        // Every replica's reads fail with a typed error (a negative LTA
        // offset), so the set serves each query from the digital oracle
        // instead of panicking.
        let dim = 6;
        let vs = vectors(8, dim);
        let engine = Ferex::builder().dim(dim).build().expect("builds");
        let mut cfg = corner_cfg(FaultPlan::none(), 7);
        cfg.lta.offset_sigma = ferex_fefet::units::Amp(-25e-9);
        let mut replicas = Vec::new();
        for _ in 0..2 {
            let backend = Backend::Noisy(Box::new(cfg.clone()));
            let mut a = FerexArray::new(
                ferex_fefet::Technology::default(),
                engine.encoding().clone(),
                dim,
                backend,
            );
            a.store_all(vs.iter().cloned()).unwrap();
            a.program();
            replicas.push(a);
        }
        let policy =
            ReplicaPolicy { quorum: QuorumPolicy { reads: 2, agree: 2 }, ..Default::default() };
        let mut set = ReplicaSet::new(replicas, DistanceMetric::Hamming, policy).expect("valid");
        let qids: Vec<u64> = (0..vs.len() as u64).collect();
        let (served, reads) = set.serve_batch_read(&vs, &qids).expect("served");
        assert!(reads.is_empty(), "no replica read succeeded: {reads:?}");
        for (q, s) in vs.iter().zip(&served) {
            assert_eq!(s.source, ServeSource::OracleFallback);
            assert_eq!(s.outcome.nearest, set.digital_fallback(q).unwrap().nearest);
        }
        assert_eq!(set.stats().oracle_fallbacks, vs.len() as u64);
    }

    #[test]
    fn breaker_opens_after_threshold_and_probes_half_open() {
        let dim = 4;
        let vs = vectors(4, dim);
        let mut engine = Ferex::builder().dim(dim).build().expect("builds");
        engine.store_all(vs.clone()).unwrap();
        engine.array_mut().program();
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
        serve_one(&mut set, q, 0).unwrap();
        assert_eq!(set.status(1).consecutive_failures, 1);
        serve_one(&mut set, q, 1).unwrap();
        let opened = set.status(1).breaker;
        assert_eq!(opened, BreakerState::Open { until_tick: 1 + 3 }, "threshold 2 trips at tick 1");
        assert_eq!(set.stats().breaker_trips, 1);
        // While open the replica is skipped — no failure accrues.
        serve_one(&mut set, q, 2).unwrap();
        assert_eq!(set.status(1).breaker, opened);
        // Past the backoff the breaker half-opens, the probe fails, and it
        // re-opens with doubled backoff.
        serve_one(&mut set, q, 3).unwrap(); // tick 3
        serve_one(&mut set, q, 4).unwrap(); // tick 4: eligible as half-open, probe fails
        assert_eq!(set.status(1).breaker, BreakerState::Open { until_tick: 4 + 6 });
        assert_eq!(set.stats().breaker_trips, 2);
        // Every query was still answered by the healthy replica.
        assert_eq!(set.stats().queries_served, 5);
        assert_eq!(set.stats().oracle_fallbacks, 0);
        // Each further failed probe doubles the backoff up to the ceiling.
        let mut backoffs = vec![3, 6];
        while backoffs.len() < 4 && set.tick() < 100 {
            let (trips, at) = (set.stats().breaker_trips, set.tick());
            serve_one(&mut set, q, at).unwrap();
            if set.stats().breaker_trips > trips {
                let BreakerState::Open { until_tick } = set.status(1).breaker else {
                    panic!("a trip must open the breaker");
                };
                backoffs.push(until_tick - at);
            }
        }
        assert_eq!(backoffs, [3, 6, 12, 12]);
    }

    #[test]
    fn stats_count_every_served_query_once() {
        let dim = 4;
        let vs = vectors(6, dim);
        let mut engine = Ferex::builder().dim(dim).build().expect("builds");
        engine.store_all(vs.clone()).unwrap();
        let mut set = engine.replica_set(1, ReplicaPolicy::default()).expect("replicates");
        let balanced =
            |s: ReplicaSetStats| s.queries_served == s.queries_submitted && s.queries_shed == 0;

        serve_one(&mut set, &vs[0], 0).unwrap();
        assert!(balanced(set.stats()));
        set.serve_batch_read(&vs[0..4], &[40, 41, 42, 43]).unwrap();
        assert!(balanced(set.stats()));
        assert_eq!(set.stats().queries_submitted, 5);
        // Rejected submissions count nothing: a bad query, mismatched ids.
        assert!(serve_one(&mut set, &[9; 4], 1).is_err());
        assert!(set.serve_batch_read(&vs[0..2], &[1]).is_err());
        assert!(balanced(set.stats()));
        assert_eq!(set.stats().queries_served, 5);
        assert_eq!(set.tick(), 5);
    }

    #[test]
    fn serve_batch_read_is_bit_identical_to_individual_serving() {
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
        let (all, _) = whole.serve_batch_read(&queries, &qids).unwrap();
        let mut split = build();
        let mut chunked = Vec::new();
        for (qchunk, idchunk) in queries.chunks(3).zip(qids.chunks(3)) {
            chunked.extend(split.serve_batch_read(qchunk, idchunk).unwrap().0);
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
        bare.array_mut().program();
        let lone = bare.array().search_batch_at(&queries, &qids).unwrap();
        assert_eq!(all.into_iter().map(|s| s.outcome).collect::<Vec<_>>(), lone);
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
        let served = serve_one(&mut set, &vs[2], 0).unwrap();
        assert_eq!(served.source, ServeSource::OracleFallback);
        assert_eq!(served.outcome.nearest, 2);
        set.revive(1);
        let served = serve_one(&mut set, &vs[2], 1).unwrap();
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
        let served = serve_one(&mut set, &[3; 6], 0).unwrap();
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
}
