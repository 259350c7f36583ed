//! Deterministic async serving loop: adaptive batch forming with
//! per-tenant fairness on a virtual tick clock.
//!
//! PR 6 made the batched kernels fast; this module actually *forms* the
//! batches. A [`ServeLoop`] wraps a [`ReplicaSet`] behind a request queue
//! where every request carries `(tenant, priority, arrival_tick,
//! deadline_ticks)`:
//!
//! 1. **Adaptive batch former** — a batch closes when it reaches the
//!    policy's target size *or* when the most urgent queued request's
//!    deadline slack runs out (state machine: open → filling → closing;
//!    see DESIGN.md §13). Requests whose deadline can no longer be met
//!    are shed *before* the batch forms, so every admitted (served)
//!    request completes within its deadline by construction.
//! 2. **Deficit round robin** — batch slots are granted tenant-by-tenant
//!    with per-tenant deficit counters, so one hot tenant cannot starve
//!    the rest: with equally loaded tenants the served counts stay within
//!    one batch of each other.
//! 3. **Backpressure** — when the queue exceeds its capacity the
//!    lowest-priority request (ties shed from the back: the latest
//!    arrival loses) is shed with [`ShedReason::Capacity`]. This queue is
//!    the stack's only admission control; the [`ReplicaSet`] below it
//!    serves whatever batch it is handed.
//! 4. **Virtual time** — the clock is a plain `u64` advanced by the
//!    caller; service cost comes from a [`CostModel`] calibrated against
//!    the measured batch kernels. Latency percentiles are exact integers
//!    and every run is bit-reproducible.
//!
//! Each admitted request gets a stable query id at submission, and formed
//! batches are served through [`ReplicaSet::serve_batch_read`] — so the
//! answers are bit-identical to serving every request individually,
//! no matter how the former grouped them.
//!
//! The loop keeps no per-replica health state. It reports each read's
//! sampled latency to the set, whose brownout ladder (beside the error
//! breaker, see [`crate::replica`]) runs on the loop's virtual tick.

use crate::error::FerexError;
use crate::latency::{qln_quantile_milli, HedgePolicy};
use crate::mutate::{CompactionReport, MutableNode};
use crate::replica::{ReplicaNode, ReplicaSet, ServedOutcome};
use std::collections::VecDeque;

/// Virtual-tick service-cost model of one batch activation.
///
/// A batch of `B` queries occupies the array for
/// `batch_setup_ticks + per_query_ticks * B` ticks: the setup term
/// (precharge, LUT build, dispatch) amortizes across the batch, which is
/// exactly the effect measured by the PR 6 kernel bench.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CostModel {
    /// Fixed ticks per batch activation, amortized across the batch.
    pub batch_setup_ticks: u64,
    /// Ticks per query within a batch.
    pub per_query_ticks: u64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel::noisy_10k()
    }
}

impl CostModel {
    /// Cost model calibrated against `BENCH_core_kernels.json`'s Noisy
    /// 64-query × 10k-row measurement: the batched kernel ran 5.7x faster
    /// per query than the sequential path, which `(52 + 10·B)/B` ticks
    /// reproduces at `B = 64` (62 ticks alone vs ~10.8 amortized).
    pub fn noisy_10k() -> Self {
        CostModel { batch_setup_ticks: 52, per_query_ticks: 10 }
    }

    /// Ticks a batch of `batch` queries occupies the array.
    pub fn service_ticks(&self, batch: usize) -> u64 {
        self.batch_setup_ticks.saturating_add(self.per_query_ticks.saturating_mul(batch as u64))
    }
}

/// Serving-loop policy: batch forming, fairness, and backpressure knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServePolicy {
    /// Batch size at which the former closes immediately.
    pub target_batch: usize,
    /// Queue capacity across all tenants; `0` disables capacity shedding.
    pub queue_capacity: usize,
    /// Deficit-round-robin quantum: batch slots granted per tenant visit.
    pub quantum: u32,
    /// Virtual service-cost model.
    pub cost: CostModel,
    /// Close a partial batch once its oldest queued request has waited
    /// this many ticks, even with deadline slack left; `0` disables the
    /// wait cap (batches then linger until target size or deadline
    /// pressure, exactly the PR 7 behavior).
    pub max_wait_ticks: u64,
    /// Hedged-request policy. `None` disables hedging.
    pub hedge: Option<HedgePolicy>,
}

impl Default for ServePolicy {
    fn default() -> Self {
        ServePolicy {
            target_batch: 16,
            queue_capacity: 0,
            quantum: 1,
            cost: CostModel::default(),
            max_wait_ticks: 0,
            hedge: None,
        }
    }
}

impl ServePolicy {
    /// Validates the policy knobs.
    ///
    /// # Errors
    ///
    /// [`FerexError::InvalidPolicy`] on a zero target batch, zero quantum,
    /// or a cost model where a single query takes zero ticks.
    pub fn validate(&self) -> Result<(), FerexError> {
        if self.target_batch == 0 {
            return Err(FerexError::InvalidPolicy { what: "target batch size must be at least 1" });
        }
        if self.quantum == 0 {
            return Err(FerexError::InvalidPolicy { what: "DRR quantum must be at least 1" });
        }
        if self.cost.service_ticks(1) == 0 {
            return Err(FerexError::InvalidPolicy {
                what: "cost model must charge at least one tick per batch",
            });
        }
        if let Some(h) = &self.hedge {
            h.validate()?;
        }
        Ok(())
    }
}

/// One queued search request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Tenant the request bills to; must be below the loop's tenant count.
    pub tenant: usize,
    /// Admission priority — higher survives capacity shedding longer.
    pub priority: u32,
    /// Virtual tick the request arrived at.
    pub arrival_tick: u64,
    /// Ticks after arrival by which the answer must complete; requests
    /// that cannot meet it are shed, never served late.
    pub deadline_ticks: u64,
    /// The query payload.
    pub query: Vec<u32>,
}

impl Request {
    /// Latest completion tick this request tolerates.
    fn deadline_at(&self) -> u64 {
        self.arrival_tick.saturating_add(self.deadline_ticks)
    }
}

/// Why a request was shed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedReason {
    /// The queue exceeded its capacity and this request ranked lowest.
    Capacity,
    /// The deadline could no longer be met at batch-forming time.
    Deadline,
}

/// One shed request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShedEvent {
    /// Tenant the request billed to.
    pub tenant: usize,
    /// Query id assigned at submission.
    pub qid: u64,
    /// Arrival tick of the shed request.
    pub arrival_tick: u64,
    /// Virtual tick of the shed decision.
    pub tick: u64,
    /// What shed it.
    pub reason: ShedReason,
}

/// Outcome of one [`ServeLoop::submit`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Admission {
    /// The request is queued under the returned query id.
    Queued {
        /// Query id assigned to the request.
        qid: u64,
    },
    /// The request is queued; a lower-priority queued request was evicted
    /// to make room.
    QueuedEvicting {
        /// Query id assigned to the request.
        qid: u64,
        /// The evicted request.
        shed: ShedEvent,
    },
    /// The request itself was shed: everything queued outranks it.
    Shed(ShedEvent),
}

/// One completed request: identity, timing, and the served answer.
#[derive(Debug, Clone, PartialEq)]
pub struct Completion {
    /// Tenant the request billed to.
    pub tenant: usize,
    /// Query id assigned at submission.
    pub qid: u64,
    /// Batch sequence number the request was served in.
    pub batch: u64,
    /// Arrival tick of the request.
    pub arrival_tick: u64,
    /// Virtual tick the answer completed at (close tick + service cost).
    pub completion_tick: u64,
    /// The served answer with provenance.
    pub outcome: ServedOutcome,
}

impl Completion {
    /// Virtual latency: completion minus arrival.
    pub fn latency(&self) -> u64 {
        self.completion_tick.saturating_sub(self.arrival_tick)
    }
}

/// Lifetime counters of a [`ServeLoop`].
///
/// Invariant: `submitted == served + shed_capacity + shed_deadline +
/// queued` at every quiescent point.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServeLoopStats {
    /// Requests accepted by [`ServeLoop::submit`] (including ones later
    /// shed).
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
    /// Total virtual ticks the array was busy serving batches.
    pub busy_ticks: u64,
    /// Hedge reads issued (at most one per batch, budget permitting).
    pub hedges_issued: u64,
    /// Hedges whose duplicate read beat the slow primary read.
    pub hedge_wins: u64,
    /// Brownout demotions (including re-demotions after a failed probe).
    pub brownout_demotions: u64,
    /// Half-open re-probes of a demoted replica.
    pub reprobes: u64,
    /// Mutations (inserts + updates + deletes) applied through the loop
    /// while it kept serving.
    pub mutations: u64,
}

#[derive(Debug, Clone)]
struct Pending {
    req: Request,
    qid: u64,
}

/// The deterministic serving loop. See the module docs for the state
/// machine; drive it by calling [`ServeLoop::submit`] for arrivals and
/// [`ServeLoop::poll`] once per virtual tick (both with non-decreasing
/// ticks).
#[derive(Debug, Clone)]
pub struct ServeLoop<A: ReplicaNode> {
    set: ReplicaSet<A>,
    policy: ServePolicy,
    /// Per-tenant FIFO queues; tenant ids are dense `0..tenants`.
    queues: Vec<VecDeque<Pending>>,
    /// DRR deficit counters, one per tenant.
    deficits: Vec<u64>,
    /// Next tenant the DRR scan visits.
    next_tenant: usize,
    /// Requests currently queued across all tenants.
    queued: usize,
    /// The loop's virtual clock (max of all submit/poll ticks seen).
    now: u64,
    /// The array is busy serving a batch until this tick.
    busy_until: u64,
    /// Query-id counter; every submitted request gets the next id.
    next_qid: u64,
    /// Batch sequence counter.
    next_batch: u64,
    stats: ServeLoopStats,
    served_per_tenant: Vec<u64>,
    shed_per_tenant: Vec<u64>,
    /// Per-replica sampled service ticks, one entry per read charged
    /// through that replica's latency model (reports read these).
    samples: Vec<Vec<u64>>,
    /// Hedges issued against each replica (it was the slow read).
    hedged_against: Vec<u64>,
    /// Hedge wins credited to each replica (its duplicate read won).
    hedge_wins_by: Vec<u64>,
    /// Deadline sheds of a poll whose read failed; the next successful
    /// poll reports them.
    held_sheds: Vec<ShedEvent>,
}

impl<A: ReplicaNode> ServeLoop<A> {
    /// Builds a serving loop over a replica set for `tenants` tenants.
    ///
    /// # Errors
    ///
    /// [`FerexError::InvalidPolicy`] on zero tenants or an invalid
    /// [`ServePolicy`]; [`FerexError::Empty`] when the set stores nothing
    /// (an empty store can never serve).
    pub fn new(
        set: ReplicaSet<A>,
        tenants: usize,
        policy: ServePolicy,
    ) -> Result<Self, FerexError> {
        policy.validate()?;
        if tenants == 0 {
            return Err(FerexError::InvalidPolicy { what: "tenant count must be at least 1" });
        }
        if set.rows() == 0 {
            return Err(FerexError::Empty);
        }
        let replicas = set.n_replicas();
        Ok(ServeLoop {
            set,
            policy,
            queues: (0..tenants).map(|_| VecDeque::new()).collect(),
            deficits: vec![0; tenants],
            next_tenant: 0,
            queued: 0,
            now: 0,
            busy_until: 0,
            next_qid: 0,
            next_batch: 0,
            stats: ServeLoopStats::default(),
            served_per_tenant: vec![0; tenants],
            shed_per_tenant: vec![0; tenants],
            samples: vec![Vec::new(); replicas],
            hedged_against: vec![0; replicas],
            hedge_wins_by: vec![0; replicas],
            held_sheds: Vec::new(),
        })
    }

    /// The wrapped replica set.
    pub fn set(&self) -> &ReplicaSet<A> {
        &self.set
    }

    /// Mutable access to the replica set (chaos injection: kill, revive,
    /// scrub).
    pub fn set_mut(&mut self) -> &mut ReplicaSet<A> {
        &mut self.set
    }

    /// Number of tenants.
    pub fn tenants(&self) -> usize {
        self.queues.len()
    }

    /// The loop's virtual clock.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Requests currently queued.
    pub fn queue_depth(&self) -> usize {
        self.queued
    }

    /// `true` when no batch is in flight at `tick`.
    pub fn idle_at(&self, tick: u64) -> bool {
        tick >= self.busy_until
    }

    /// Lifetime counters.
    pub fn stats(&self) -> ServeLoopStats {
        self.stats
    }

    /// Requests served to completion, per tenant.
    pub fn served_per_tenant(&self) -> &[u64] {
        &self.served_per_tenant
    }

    /// Requests shed (capacity + deadline), per tenant.
    pub fn shed_per_tenant(&self) -> &[u64] {
        &self.shed_per_tenant
    }

    /// Sampled service ticks of replica `i`'s modeled reads, in charge
    /// order (empty without a latency model).
    pub fn replica_samples(&self, i: usize) -> &[u64] {
        self.samples.get(i).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Hedges issued against each replica (it was the slow read).
    pub fn hedged_against(&self) -> &[u64] {
        &self.hedged_against
    }

    /// Hedge wins credited to each replica (its duplicate read won).
    pub fn hedge_wins_by(&self) -> &[u64] {
        &self.hedge_wins_by
    }

    /// Submits one request at `req.arrival_tick`, assigning it the next
    /// query id. When the queue is at capacity the lowest-priority request
    /// across the queue *and* the newcomer is shed (ties shed from the
    /// back: the latest-arrived loses).
    ///
    /// # Errors
    ///
    /// [`FerexError::InvalidPolicy`] on an unknown tenant or an arrival
    /// tick behind the loop's clock; query validation errors as
    /// [`ReplicaSet::check_query`]. Nothing is counted on error.
    pub fn submit(&mut self, req: Request) -> Result<Admission, FerexError> {
        if req.tenant >= self.queues.len() {
            return Err(FerexError::InvalidPolicy {
                what: "request tenant outside the configured tenant set",
            });
        }
        if req.arrival_tick < self.now {
            return Err(FerexError::InvalidPolicy {
                what: "request arrival tick is behind the serving loop's clock",
            });
        }
        self.set.check_query(&req.query)?;
        self.now = req.arrival_tick;
        let qid = self.next_qid;
        self.next_qid += 1;
        self.stats.submitted += 1;
        let cap = self.policy.queue_capacity;
        let evict =
            if cap != 0 && self.queued >= cap { self.eviction_victim(&req, qid) } else { None };
        let pending = Pending { req, qid };
        match evict {
            Some((tenant, victim_qid)) if victim_qid == qid => {
                // The newcomer itself is the lowest-ranked: shed it.
                let shed =
                    self.record_shed(tenant, qid, pending.req.arrival_tick, ShedReason::Capacity);
                Ok(Admission::Shed(shed))
            }
            Some((tenant, victim_qid)) => {
                let arrival = self.remove_queued(tenant, victim_qid);
                let shed = self.record_shed(tenant, victim_qid, arrival, ShedReason::Capacity);
                self.enqueue(pending);
                Ok(Admission::QueuedEvicting { qid, shed })
            }
            None => {
                self.enqueue(pending);
                Ok(Admission::Queued { qid })
            }
        }
    }

    /// Advances the clock to `tick` and, when the array is idle and the
    /// batch former decides to close, serves one batch. Returns the
    /// completions of that batch (stamped with their future completion
    /// tick) and the requests shed because their deadlines became
    /// unmeetable.
    ///
    /// Call once per virtual tick with non-decreasing ticks.
    ///
    /// # Errors
    ///
    /// [`FerexError::InvalidPolicy`] when `tick` is behind the clock;
    /// serving errors as [`ReplicaSet::serve_batch_read`] (queries are
    /// pre-validated at submission, so these indicate replica-set
    /// exhaustion, not bad requests). A failed read puts the batch back:
    /// its requests return to the front of their tenant queues in order,
    /// with the DRR deficits and cursor as they were, so a later poll
    /// serves them under the same query ids. Deadline sheds made before
    /// the read failed stay shed and are returned by the next successful
    /// poll.
    pub fn poll(&mut self, tick: u64) -> Result<(Vec<Completion>, Vec<ShedEvent>), FerexError> {
        if tick < self.now {
            return Err(FerexError::InvalidPolicy {
                what: "poll tick is behind the serving loop's clock",
            });
        }
        self.now = tick;
        let mut sheds = std::mem::take(&mut self.held_sheds);
        if tick < self.busy_until || self.queued == 0 {
            return Ok((Vec::new(), sheds));
        }
        sheds.extend(self.shed_expired(tick));
        if self.queued == 0 {
            return Ok((Vec::new(), sheds));
        }
        if !self.should_close(tick) {
            return Ok((Vec::new(), sheds));
        }
        self.stats.reprobes += self.set.release_brownouts(tick);
        let (deficits, next_tenant) = (self.deficits.clone(), self.next_tenant);
        let picked = self.form_batch();
        let queries: Vec<Vec<u32>> = picked.iter().map(|p| p.req.query.clone()).collect();
        let qids: Vec<u64> = picked.iter().map(|p| p.qid).collect();
        let (outcomes, reads) = match self.set.serve_batch_read(&queries, &qids) {
            Ok(read) => read,
            Err(e) => {
                self.requeue(picked);
                self.deficits = deficits;
                self.next_tenant = next_tenant;
                self.held_sheds = sheds;
                return Err(e);
            }
        };
        let batch = self.next_batch;
        self.next_batch += 1;
        let service = self.charge(picked.len(), &reads, batch, tick);
        let completion_tick = tick.saturating_add(service);
        self.busy_until = completion_tick;
        self.stats.batches += 1;
        self.stats.max_batch = self.stats.max_batch.max(picked.len() as u64);
        self.stats.busy_ticks += service;
        self.stats.served += picked.len() as u64;
        let mut completions = Vec::with_capacity(picked.len());
        for (p, outcome) in picked.into_iter().zip(outcomes) {
            if let Some(n) = self.served_per_tenant.get_mut(p.req.tenant) {
                *n += 1;
            }
            completions.push(Completion {
                tenant: p.req.tenant,
                qid: p.qid,
                batch,
                arrival_tick: p.req.arrival_tick,
                completion_tick,
                outcome,
            });
        }
        Ok((completions, sheds))
    }

    /// Drives the loop tick-by-tick with no new arrivals until the queue
    /// drains (or `horizon` ticks pass), collecting everything that
    /// completes or sheds. The end-of-stream flush.
    ///
    /// # Errors
    ///
    /// As [`ServeLoop::poll`]. The failing poll keeps its batch and sheds
    /// as `poll` describes; what earlier polls of this drain returned is
    /// dropped with the error.
    pub fn drain(&mut self, horizon: u64) -> Result<(Vec<Completion>, Vec<ShedEvent>), FerexError> {
        let mut completions = Vec::new();
        let mut sheds = Vec::new();
        let mut tick = self.now;
        let end = self.now.saturating_add(horizon);
        while self.queued > 0 && tick < end {
            let (c, s) = self.poll(tick)?;
            completions.extend(c);
            sheds.extend(s);
            tick = tick.saturating_add(1);
        }
        Ok((completions, sheds))
    }

    /// The batch-former close decision at `tick` (the array is idle and
    /// the queue non-empty): close at target size, when the oldest queued
    /// request has waited past the policy's wait cap, or when the most
    /// urgent queued request's deadline slack has run out for a batch of
    /// everything currently queued.
    fn should_close(&self, tick: u64) -> bool {
        if self.queued >= self.policy.target_batch {
            return true;
        }
        if self.policy.max_wait_ticks > 0 {
            let oldest = self.queues.iter().flatten().map(|p| p.req.arrival_tick).min();
            if oldest.is_some_and(|a| tick.saturating_sub(a) >= self.policy.max_wait_ticks) {
                return true;
            }
        }
        let service = self.policy.cost.service_ticks(self.queued);
        self.earliest_deadline().is_some_and(|d| tick.saturating_add(service) >= d)
    }

    /// Charges one served batch its virtual service time. Without latency
    /// models on the read replicas this is exactly the uniform
    /// [`CostModel`] charge (the PR 7 arithmetic, bit for bit). With
    /// models, each read samples its own modeled duration, the batch
    /// completes at the slowest read, and the hedging and brownout
    /// machinery run on the sampled durations: a hedge duplicates the
    /// batch to a spare replica once the slow read blows past the
    /// p-quantile deadline, and every sampled read is reported to the
    /// set, whose brownout ladder demotes slow replicas in routing.
    fn charge(&mut self, batch_len: usize, reads: &[usize], batch: u64, tick: u64) -> u64 {
        let expected = self.policy.cost.service_ticks(batch_len);
        if !reads.iter().any(|&r| self.set.latency_model(r).is_some()) {
            return expected;
        }
        let queued = self.queued;
        // (replica, true sampled ticks) per read; hedge duplicate appended.
        let mut observed: Vec<(usize, u64)> = Vec::with_capacity(reads.len() + 1);
        let mut slow: Option<(usize, u64)> = None; // (slot in `observed`, ticks)
        for &r in reads {
            let s = self.set.latency_ticks(r, batch_len, queued, tick, batch).unwrap_or(expected);
            if let Some(v) = self.samples.get_mut(r) {
                v.push(s);
            }
            if slow.is_none_or(|(_, t)| s > t) {
                slow = Some((observed.len(), s));
            }
            observed.push((r, s));
        }
        // Completion charge per read; the slow slot is capped when a hedge
        // wins (the batch answer arrives via the duplicate read).
        let mut capped: Vec<u64> = observed.iter().map(|&(_, s)| s).collect();
        if let (Some(h), Some((slot, slow_s))) = (self.policy.hedge, slow) {
            let deadline = self.hedge_deadline(batch_len, reads);
            let within_budget = self.stats.hedges_issued.saturating_mul(1000)
                < (self.stats.batches + 1).saturating_mul(h.budget_milli);
            if slow_s > deadline && within_budget {
                if let Some(c) = self.hedge_candidate(reads) {
                    let dup = self
                        .set
                        .latency_ticks(c, batch_len, queued, tick, batch)
                        .unwrap_or(expected);
                    if let Some(v) = self.samples.get_mut(c) {
                        v.push(dup);
                    }
                    // The duplicate is issued at the deadline, so its
                    // answer lands at deadline + its own service time.
                    let via_hedge = deadline.saturating_add(dup);
                    self.stats.hedges_issued += 1;
                    if let Some(&(r_slow, _)) = observed.get(slot) {
                        if let Some(n) = self.hedged_against.get_mut(r_slow) {
                            *n += 1;
                        }
                    }
                    if via_hedge < slow_s {
                        self.stats.hedge_wins += 1;
                        if let Some(n) = self.hedge_wins_by.get_mut(c) {
                            *n += 1;
                        }
                        if let Some(v) = capped.get_mut(slot) {
                            *v = via_hedge;
                        }
                    }
                    observed.push((c, dup));
                }
            }
        }
        let service = capped.iter().copied().max().unwrap_or(expected).max(1);
        // The EWMA sees every read's TRUE duration, cancelled or not: a
        // hedged-past read still runs to completion replica-side and
        // reports how long it took — only its answer is discarded. That
        // keeps brownout detection fast even when hedging caps the
        // batch's completion charge.
        for (r, s) in observed {
            if self.set.observe_latency(r, s, expected, tick) {
                self.stats.brownout_demotions += 1;
            }
        }
        service
    }

    /// The hedge deadline of a batch: the cost model's expectation scaled
    /// by the healthiest read's EWMA and the policy quantile of the
    /// latency sampler's distribution.
    fn hedge_deadline(&self, batch_len: usize, reads: &[usize]) -> u64 {
        let Some(h) = self.policy.hedge else { return u64::MAX };
        let expected = self.policy.cost.service_ticks(batch_len);
        let min_ewma =
            reads.iter().map(|&r| self.set.status(r).latency_ewma_milli).min().unwrap_or(1000);
        let q = qln_quantile_milli(h.quantile_milli);
        let d = (expected as u128 * min_ewma as u128 * q as u128) / 1_000_000;
        u64::try_from(d).unwrap_or(u64::MAX)
    }

    /// The replica a hedge duplicates to: the best-routed replica not
    /// already reading this batch.
    fn hedge_candidate(&mut self, reads: &[usize]) -> Option<usize> {
        self.set.route_order().into_iter().find(|i| !reads.contains(i))
    }

    /// Earliest completion deadline across all queued requests.
    fn earliest_deadline(&self) -> Option<u64> {
        self.queues.iter().flatten().map(|p| p.req.deadline_at()).min()
    }

    /// Sheds every queued request whose deadline can no longer be met by
    /// the batch it would join, iterating to a fixpoint as sheds shrink
    /// the prospective batch (and with it the service time).
    fn shed_expired(&mut self, tick: u64) -> Vec<ShedEvent> {
        let mut sheds = Vec::new();
        loop {
            let batch = self.queued.min(self.policy.target_batch);
            let completion = tick.saturating_add(self.policy.cost.service_ticks(batch));
            let mut victim: Option<(usize, u64, u64)> = None;
            'scan: for (tenant, queue) in self.queues.iter().enumerate() {
                for p in queue {
                    if p.req.deadline_at() < completion {
                        victim = Some((tenant, p.qid, p.req.arrival_tick));
                        break 'scan;
                    }
                }
            }
            let Some((tenant, qid, arrival)) = victim else { break };
            self.remove_queued(tenant, qid);
            sheds.push(self.record_shed(tenant, qid, arrival, ShedReason::Deadline));
        }
        sheds
    }

    /// Picks the next batch by deficit round robin: visit tenants in
    /// rotation, credit each visited tenant `quantum` slots, and dequeue
    /// up to its deficit in FIFO order. A tenant whose queue empties
    /// forfeits its remaining deficit (classic DRR — no credit hoarding).
    fn form_batch(&mut self) -> Vec<Pending> {
        let tenants = self.queues.len();
        let target = self.policy.target_batch;
        let quantum = u64::from(self.policy.quantum);
        let mut picked = Vec::new();
        let mut t = self.next_tenant;
        while picked.len() < target && self.queued > 0 {
            let (Some(queue), Some(deficit)) = (self.queues.get_mut(t), self.deficits.get_mut(t))
            else {
                t = (t + 1) % tenants;
                continue;
            };
            if queue.is_empty() {
                *deficit = 0;
            } else {
                *deficit = deficit.saturating_add(quantum);
                while *deficit > 0 && picked.len() < target {
                    let Some(p) = queue.pop_front() else {
                        *deficit = 0;
                        break;
                    };
                    self.queued -= 1;
                    *deficit -= 1;
                    picked.push(p);
                }
            }
            t = (t + 1) % tenants;
        }
        self.next_tenant = t;
        picked
    }

    /// Undoes [`ServeLoop::form_batch`]'s dequeues: every picked request
    /// returns to the front of its tenant queue, in its original order.
    fn requeue(&mut self, picked: Vec<Pending>) {
        for p in picked.into_iter().rev() {
            if let Some(queue) = self.queues.get_mut(p.req.tenant) {
                queue.push_front(p);
                self.queued += 1;
            }
        }
    }

    /// The queued-or-incoming request that capacity shedding would evict:
    /// lowest priority first, ties resolved against the latest arrival
    /// (highest qid). Returns `(tenant, qid)`.
    fn eviction_victim(&self, incoming: &Request, incoming_qid: u64) -> Option<(usize, u64)> {
        let mut worst = (incoming.priority, incoming_qid, incoming.tenant);
        for (tenant, queue) in self.queues.iter().enumerate() {
            for p in queue {
                let cand = (p.req.priority, p.qid, tenant);
                // Lower priority loses; on equal priority the higher qid
                // (the later arrival) loses.
                if cand.0 < worst.0 || (cand.0 == worst.0 && cand.1 > worst.1) {
                    worst = cand;
                }
            }
        }
        Some((worst.2, worst.1))
    }

    /// Removes a queued request by `(tenant, qid)`, returning its arrival
    /// tick (0 when absent — callers only pass live ids).
    fn remove_queued(&mut self, tenant: usize, qid: u64) -> u64 {
        let Some(queue) = self.queues.get_mut(tenant) else { return 0 };
        let Some(pos) = queue.iter().position(|p| p.qid == qid) else { return 0 };
        let arrival = queue.remove(pos).map(|p| p.req.arrival_tick).unwrap_or(0);
        self.queued -= 1;
        arrival
    }

    fn enqueue(&mut self, pending: Pending) {
        let tenant = pending.req.tenant;
        if let Some(queue) = self.queues.get_mut(tenant) {
            queue.push_back(pending);
            self.queued += 1;
        }
    }

    fn record_shed(
        &mut self,
        tenant: usize,
        qid: u64,
        arrival_tick: u64,
        reason: ShedReason,
    ) -> ShedEvent {
        match reason {
            ShedReason::Capacity => self.stats.shed_capacity += 1,
            ShedReason::Deadline => self.stats.shed_deadline += 1,
        }
        if let Some(n) = self.shed_per_tenant.get_mut(tenant) {
            *n += 1;
        }
        ShedEvent { tenant, qid, arrival_tick, tick: self.now, reason }
    }
}

impl<A: ReplicaNode + MutableNode> ServeLoop<A> {
    /// Inserts `(id, vector)` into the wrapped replica set between
    /// batches. Mutations are instantaneous on the virtual clock — the
    /// loop's queue, clock, and in-flight batch are untouched, so serving
    /// continues bit-identically around the mutation (queries already
    /// submitted race it exactly as their poll order dictates).
    ///
    /// # Errors
    ///
    /// As [`ReplicaSet::insert`].
    pub fn insert(&mut self, id: u64, vector: Vec<u32>) -> Result<(), FerexError> {
        self.set.insert(id, vector)?;
        self.stats.mutations += 1;
        Ok(())
    }

    /// Replaces `id`'s vector across the replica set; see
    /// [`ServeLoop::insert`] for the serving semantics.
    ///
    /// # Errors
    ///
    /// As [`ReplicaSet::update`].
    pub fn update(&mut self, id: u64, vector: Vec<u32>) -> Result<(), FerexError> {
        self.set.update(id, vector)?;
        self.stats.mutations += 1;
        Ok(())
    }

    /// Tombstones `id` across the replica set; see [`ServeLoop::insert`]
    /// for the serving semantics.
    ///
    /// # Errors
    ///
    /// As [`ReplicaSet::delete`].
    pub fn delete(&mut self, id: u64) -> Result<(), FerexError> {
        self.set.delete(id)?;
        self.stats.mutations += 1;
        Ok(())
    }

    /// One maintenance step (auto-compaction + wear-leveling rotation) on
    /// every replica, between batches.
    pub fn maintenance(&mut self) -> CompactionReport {
        self.set.maintenance()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replica::{BreakerState, BrownoutPolicy, ReplicaPolicy};
    use crate::Ferex;

    fn vectors(rows: usize, dim: usize) -> Vec<Vec<u32>> {
        (0..rows as u32).map(|r| (0..dim as u32).map(|d| (r + d) % 4).collect()).collect()
    }

    fn loop_with(tenants: usize, policy: ServePolicy) -> ServeLoop<crate::FerexArray> {
        let mut engine = Ferex::builder().dim(4).build().expect("builds");
        engine.store_all(vectors(6, 4)).unwrap();
        let set = engine.replica_set(1, ReplicaPolicy::default()).expect("replicates");
        ServeLoop::new(set, tenants, policy).expect("valid policy")
    }

    fn loop_with_replicas(
        n: usize,
        reads: usize,
        policy: ServePolicy,
        brownout: Option<BrownoutPolicy>,
    ) -> ServeLoop<crate::FerexArray> {
        let mut engine = Ferex::builder().dim(4).build().expect("builds");
        engine.store_all(vectors(6, 4)).unwrap();
        let rp = ReplicaPolicy {
            quorum: crate::replica::QuorumPolicy { reads, agree: 1 },
            brownout,
            ..Default::default()
        };
        let set = engine.replica_set(n, rp).expect("replicates");
        ServeLoop::new(set, 1, policy).expect("valid policy")
    }

    fn req(tenant: usize, priority: u32, arrival: u64, deadline: u64) -> Request {
        Request {
            tenant,
            priority,
            arrival_tick: arrival,
            deadline_ticks: deadline,
            query: vec![0, 1, 2, 3],
        }
    }

    fn cheap() -> CostModel {
        CostModel { batch_setup_ticks: 4, per_query_ticks: 1 }
    }

    #[test]
    fn policy_validation_rejects_degenerate_knobs() {
        let set = |p: ServePolicy| p.validate();
        assert!(set(ServePolicy::default()).is_ok());
        assert!(set(ServePolicy { target_batch: 0, ..Default::default() }).is_err());
        assert!(set(ServePolicy { quantum: 0, ..Default::default() }).is_err());
        let zero = CostModel { batch_setup_ticks: 0, per_query_ticks: 0 };
        assert!(set(ServePolicy { cost: zero, ..Default::default() }).is_err());
        let mut engine = Ferex::builder().dim(4).build().expect("builds");
        engine.store_all(vectors(4, 4)).unwrap();
        let set = engine.replica_set(1, ReplicaPolicy::default()).expect("replicates");
        assert_eq!(
            ServeLoop::new(set, 0, ServePolicy::default()).err(),
            Some(FerexError::InvalidPolicy { what: "tenant count must be at least 1" })
        );
    }

    #[test]
    fn closes_at_target_size_and_charges_the_cost_model() {
        let policy = ServePolicy { target_batch: 3, cost: cheap(), ..Default::default() };
        let mut lp = loop_with(1, policy);
        for _ in 0..2 {
            lp.submit(req(0, 0, 0, 100)).unwrap();
        }
        let (done, shed) = lp.poll(0).unwrap();
        assert!(done.is_empty() && shed.is_empty(), "below target with slack: stays open");
        lp.submit(req(0, 0, 1, 100)).unwrap();
        let (done, _) = lp.poll(1).unwrap();
        assert_eq!(done.len(), 3, "target size closes the batch");
        // service = 4 + 3·1 = 7, closed at tick 1.
        assert!(done.iter().all(|c| c.completion_tick == 8));
        assert_eq!(lp.stats().busy_ticks, 7);
        assert_eq!(lp.stats().batches, 1);
        // The array is busy until tick 8: nothing serves before that.
        lp.submit(req(0, 0, 2, 100)).unwrap();
        let (done, _) = lp.poll(7).unwrap();
        assert!(done.is_empty());
        let (done, _) = lp.poll(8).unwrap();
        assert!(done.is_empty(), "single request with slack keeps filling");
        let (done, _) = lp.poll(97).unwrap();
        assert_eq!(done.len(), 1, "deadline slack closes the partial batch");
        assert!(done.iter().all(|c| c.completion_tick <= 102));
    }

    #[test]
    fn expired_requests_shed_instead_of_serving_late() {
        let policy = ServePolicy { target_batch: 4, cost: cheap(), ..Default::default() };
        let mut lp = loop_with(1, policy);
        lp.submit(req(0, 0, 0, 3)).unwrap(); // service_ticks(1) = 5 > 3: hopeless
        let (done, shed) = lp.poll(0).unwrap();
        assert!(done.is_empty());
        assert_eq!(shed.len(), 1);
        assert_eq!(shed.first().map(|s| s.reason), Some(ShedReason::Deadline));
        assert_eq!(lp.stats().shed_deadline, 1);
        let s = lp.stats();
        assert_eq!(s.submitted, s.served + s.shed_capacity + s.shed_deadline);
    }

    #[test]
    fn capacity_shedding_evicts_lowest_priority_latest_arrival() {
        let policy =
            ServePolicy { target_batch: 8, queue_capacity: 2, cost: cheap(), ..Default::default() };
        let mut lp = loop_with(2, policy);
        assert!(matches!(lp.submit(req(0, 5, 0, 100)).unwrap(), Admission::Queued { .. }));
        assert!(matches!(lp.submit(req(1, 1, 0, 100)).unwrap(), Admission::Queued { .. }));
        // Higher-priority newcomer evicts the priority-1 request.
        match lp.submit(req(0, 3, 0, 100)).unwrap() {
            Admission::QueuedEvicting { shed, .. } => {
                assert_eq!(shed.tenant, 1);
                assert_eq!(shed.reason, ShedReason::Capacity);
            }
            other => panic!("expected eviction, got {other:?}"),
        }
        // An equal-priority newcomer loses the tie (shed from the back).
        match lp.submit(req(1, 3, 0, 100)).unwrap() {
            Admission::Shed(shed) => assert_eq!(shed.tenant, 1),
            other => panic!("expected the newcomer shed, got {other:?}"),
        }
        assert_eq!(lp.stats().shed_capacity, 2);
        assert_eq!(lp.queue_depth(), 2);
    }

    #[test]
    fn drr_interleaves_tenants_within_a_batch() {
        let policy = ServePolicy { target_batch: 4, cost: cheap(), ..Default::default() };
        let mut lp = loop_with(2, policy);
        // Tenant 0 floods; tenant 1 trickles.
        for _ in 0..6 {
            lp.submit(req(0, 0, 0, 1000)).unwrap();
        }
        lp.submit(req(1, 0, 0, 1000)).unwrap();
        lp.submit(req(1, 0, 0, 1000)).unwrap();
        let (done, _) = lp.poll(0).unwrap();
        assert_eq!(done.len(), 4);
        let t0 = done.iter().filter(|c| c.tenant == 0).count();
        let t1 = done.iter().filter(|c| c.tenant == 1).count();
        assert_eq!((t0, t1), (2, 2), "DRR splits the batch across tenants");
    }

    #[test]
    fn submit_rejects_unknown_tenants_and_clock_regressions() {
        let mut lp = loop_with(1, ServePolicy { cost: cheap(), ..Default::default() });
        assert!(lp.submit(req(1, 0, 0, 10)).is_err());
        lp.submit(req(0, 0, 5, 10)).unwrap();
        assert!(lp.submit(req(0, 0, 4, 10)).is_err(), "arrival behind the clock");
        assert!(lp.poll(4).is_err(), "poll behind the clock");
    }

    #[test]
    fn policy_validation_covers_hedge_knobs() {
        let bad_hedge = HedgePolicy { quantile_milli: 10, budget_milli: 100 };
        assert!(ServePolicy { hedge: Some(bad_hedge), ..Default::default() }.validate().is_err());
        let ok = ServePolicy { hedge: Some(HedgePolicy::default()), ..Default::default() };
        assert!(ok.validate().is_ok());
    }

    #[test]
    fn max_wait_closes_a_partial_batch() {
        let policy = ServePolicy {
            target_batch: 8,
            cost: cheap(),
            max_wait_ticks: 10,
            ..Default::default()
        };
        let mut lp = loop_with(1, policy);
        lp.submit(req(0, 0, 0, 1000)).unwrap();
        let (done, _) = lp.poll(9).unwrap();
        assert!(done.is_empty(), "wait cap not yet reached");
        let (done, _) = lp.poll(10).unwrap();
        assert_eq!(done.len(), 1, "oldest request waited to the cap");
    }

    #[test]
    fn latency_model_charges_sampled_ticks_and_moves_the_ewma() {
        let policy = ServePolicy { target_batch: 2, cost: cheap(), ..Default::default() };
        let mut lp = loop_with(1, policy);
        lp.set_mut()
            .set_latency_model(0, crate::latency::LatencyModel::exact(cheap(), 8000, 7))
            .unwrap();
        lp.submit(req(0, 0, 0, 1000)).unwrap();
        lp.submit(req(0, 0, 0, 1000)).unwrap();
        let (done, _) = lp.poll(0).unwrap();
        assert_eq!(done.len(), 2);
        // expected = 4 + 2·1 = 6; exact 8x model charges 48.
        assert!(done.iter().all(|c| c.completion_tick == 48));
        assert_eq!(lp.replica_samples(0), &[48]);
        // obs = 8000 per-mille, ewma = 1000 + (8000 - 1000) >> 2.
        assert_eq!(lp.set().status(0).latency_ewma_milli, 2750);
        assert_eq!(lp.stats().busy_ticks, 48);
    }

    #[test]
    fn hedging_caps_the_slow_read_and_keeps_answers_bit_identical() {
        let base = ServePolicy { target_batch: 2, cost: cheap(), ..Default::default() };
        let hedged_policy = ServePolicy {
            hedge: Some(HedgePolicy { quantile_milli: 950, budget_milli: 1000 }),
            ..base
        };
        let mut hedged = loop_with_replicas(3, 2, hedged_policy, None);
        let mut plain = loop_with_replicas(3, 2, base, None);
        for (i, lp) in [&mut hedged, &mut plain].into_iter().enumerate() {
            lp.set_mut()
                .set_latency_model(1, crate::latency::LatencyModel::exact(cheap(), 8000, 7))
                .unwrap();
            for _ in 0..2 {
                lp.submit(req(0, 0, 0, 1000)).unwrap();
            }
            let _ = i;
        }
        let (done_h, _) = hedged.poll(0).unwrap();
        let (done_p, _) = plain.poll(0).unwrap();
        // expected 6, slow read 48, deadline = 6·1593/1000 = 9, duplicate
        // lands at 9 + 6 = 15 — the hedge wins and caps the charge.
        assert!(done_h.iter().all(|c| c.completion_tick == 15));
        assert!(done_p.iter().all(|c| c.completion_tick == 48), "unhedged waits out the slow read");
        assert_eq!(hedged.stats().hedges_issued, 1);
        assert_eq!(hedged.stats().hedge_wins, 1);
        assert_eq!(hedged.hedged_against(), &[0, 1, 0]);
        assert_eq!(hedged.hedge_wins_by(), &[0, 0, 1]);
        // Hedging is a timing overlay: the served answers are the same.
        let payloads_h: Vec<_> = done_h.iter().map(|c| (c.qid, c.outcome.clone())).collect();
        let payloads_p: Vec<_> = done_p.iter().map(|c| (c.qid, c.outcome.clone())).collect();
        assert_eq!(payloads_h, payloads_p);
    }

    #[test]
    fn brownout_demotes_reroutes_and_reprobes_half_open() {
        let policy = ServePolicy { target_batch: 1, cost: cheap(), ..Default::default() };
        let brownout =
            BrownoutPolicy { demote_threshold_milli: 2500, reprobe_ticks: 2048, ewma_shift: 2 };
        let mut lp = loop_with_replicas(3, 2, policy, Some(brownout));
        let demoted =
            |lp: &ServeLoop<_>| matches!(lp.set().status(1).brownout, BreakerState::Open { .. });
        lp.set_mut()
            .set_latency_model(1, crate::latency::LatencyModel::exact(cheap(), 8000, 7))
            .unwrap();
        // Batch 0 reads {0, 1}: replica 1's 8x read pushes its EWMA to
        // 2750, past the threshold — demoted with demerit 1750.
        lp.submit(req(0, 0, 0, 10_000)).unwrap();
        lp.poll(0).unwrap();
        assert!(demoted(&lp));
        assert_eq!(lp.stats().brownout_demotions, 1);
        assert_eq!(lp.set().status(1).latency_demerit_milli, 1750);
        // While demoted, reads route around it: {0, 2}. Neither of those
        // replicas carries a latency model, so the batch takes the
        // uniform charge and records no new samples.
        lp.submit(req(0, 0, 40, 10_000)).unwrap();
        let (done, _) = lp.poll(40).unwrap();
        assert_eq!(done.first().map(|c| c.completion_tick), Some(45), "no slow read in the batch");
        assert_eq!(lp.replica_samples(1).len(), 1);
        assert!(lp.replica_samples(2).is_empty());
        // Past the backoff the demotion lifts into a half-open probe; the
        // probe read is still 8x, so the replica re-demotes at level 1.
        lp.submit(req(0, 0, 3000, 10_000)).unwrap();
        lp.poll(3000).unwrap();
        assert_eq!(lp.stats().reprobes, 1);
        assert_eq!(lp.stats().brownout_demotions, 2);
        assert!(demoted(&lp));
        assert_eq!(lp.replica_samples(1).len(), 2, "the probe batch read replica 1 again");
    }

    /// Three replicas read two at a time with replica 1 at an exact 8x
    /// slowdown, serving batches of one on a one-tick cost model: a healthy
    /// batch frees the array for the next tick's poll, so a re-probe runs
    /// at the first tick its backoff allows.
    fn slow_replica_loop(brownout: BrownoutPolicy) -> ServeLoop<crate::FerexArray> {
        let policy = ServePolicy { target_batch: 1, cost: one_tick(), ..Default::default() };
        let mut lp = loop_with_replicas(3, 2, policy, Some(brownout));
        set_slowdown(&mut lp, 8000);
        lp
    }

    fn one_tick() -> CostModel {
        CostModel { batch_setup_ticks: 0, per_query_ticks: 1 }
    }

    /// Replaces replica 1's latency model with an exact `factor_milli`
    /// slowdown of the one-tick cost.
    fn set_slowdown(lp: &mut ServeLoop<crate::FerexArray>, factor_milli: u64) {
        let model = crate::latency::LatencyModel::exact(one_tick(), factor_milli, 7);
        lp.set_mut().set_latency_model(1, model).unwrap();
    }

    #[test]
    fn brownout_reprobe_backoff_doubles_to_its_cap() {
        let mut lp = slow_replica_loop(BrownoutPolicy { reprobe_ticks: 8, ..Default::default() });
        // Serves one request per tick until `n` more re-probes ran, and
        // returns each re-probe's distance from the demotion it lifted.
        let (mut tick, mut demoted_at) = (0, 0);
        let mut reprobe_intervals = |lp: &mut ServeLoop<_>, n: usize| {
            let mut intervals = Vec::new();
            while intervals.len() < n && tick < 8192 {
                lp.submit(req(0, 0, tick, 1_000_000)).unwrap();
                let before = lp.stats();
                lp.poll(tick).unwrap();
                if lp.stats().reprobes > before.reprobes {
                    intervals.push(tick - demoted_at);
                }
                if lp.stats().brownout_demotions > before.brownout_demotions {
                    demoted_at = tick;
                }
                tick += 1;
            }
            intervals
        };
        // Every probe of the 8x replica fails, so each re-demotion doubles
        // the backoff: 8·2^L ticks for L = 0..6, then flat at 64x.
        assert_eq!(reprobe_intervals(&mut lp, 9), [8, 16, 32, 64, 128, 256, 512, 512, 512]);
        // A probe that passes closes the ladder, so once the replica turns
        // slow again its backoff restarts at the base.
        set_slowdown(&mut lp, 1000);
        assert_eq!(reprobe_intervals(&mut lp, 1), [512]);
        assert_eq!(lp.set().status(1).brownout, BreakerState::Closed);
        set_slowdown(&mut lp, 8000);
        assert_eq!(reprobe_intervals(&mut lp, 1), [8]);
    }

    #[test]
    fn brownout_backoff_saturates_instead_of_wrapping() {
        // A 2^63-tick first backoff doubles past u64::MAX on the failed
        // probe: it must saturate, not wrap to a zero-tick backoff that
        // re-probes at the next poll.
        let late = 1u64 << 63;
        let mut lp =
            slow_replica_loop(BrownoutPolicy { reprobe_ticks: late, ..Default::default() });
        lp.submit(req(0, 0, 0, 1000)).unwrap();
        lp.poll(0).unwrap();
        lp.submit(req(0, 0, late, 1000)).unwrap();
        lp.poll(late).unwrap();
        assert_eq!((lp.stats().reprobes, lp.stats().brownout_demotions), (1, 2));
        assert_eq!(lp.set().status(1).brownout, BreakerState::Open { until_tick: u64::MAX });
        lp.submit(req(0, 0, late + 100, 1000)).unwrap();
        lp.poll(late + 100).unwrap();
        assert_eq!(lp.stats().reprobes, 1, "the failed probe re-probed at once");
    }

    #[test]
    fn dead_replicas_keep_their_brownout_until_revived() {
        let mut lp = slow_replica_loop(BrownoutPolicy { reprobe_ticks: 8, ..Default::default() });
        lp.submit(req(0, 0, 0, 1000)).unwrap();
        lp.poll(0).unwrap();
        assert_eq!(lp.stats().brownout_demotions, 1);
        // Killed while demoted: no batch can read it, so its expired
        // demotion must not turn into a probe.
        lp.set_mut().kill(1);
        for tick in 8..20 {
            lp.submit(req(0, 0, tick, 1000)).unwrap();
            lp.poll(tick).unwrap();
        }
        assert_eq!(lp.stats().reprobes, 0, "a dead replica was re-probed");
        assert_eq!(lp.set().status(1).brownout, BreakerState::Open { until_tick: 8 });
        // The demotion lifts at the first closing poll after the revive.
        lp.set_mut().revive(1);
        lp.submit(req(0, 0, 20, 1000)).unwrap();
        lp.poll(20).unwrap();
        assert_eq!(lp.stats().reprobes, 1);
    }

    #[test]
    fn serving_continues_through_online_mutation() {
        let mut engine = Ferex::builder().dim(4).build().expect("builds");
        engine.enable_mutation(crate::MutationPolicy::with_capacity(8)).unwrap();
        for (id, v) in vectors(4, 4).into_iter().enumerate() {
            engine.insert(id as u64, v).unwrap();
        }
        let set = engine.replica_set(1, ReplicaPolicy::default()).expect("replicates");
        let policy = ServePolicy { target_batch: 2, cost: cheap(), ..Default::default() };
        let mut lp = ServeLoop::new(set, 1, policy).expect("valid policy");
        let ask = |arrival: u64, query: Vec<u32>| Request {
            tenant: 0,
            priority: 0,
            arrival_tick: arrival,
            deadline_ticks: 1000,
            query,
        };
        lp.submit(ask(0, vec![0, 1, 2, 3])).unwrap();
        lp.submit(ask(0, vec![1, 2, 3, 0])).unwrap();
        let (done, _) = lp.poll(0).unwrap();
        assert_eq!(done.len(), 2);
        assert_eq!(done[0].outcome.outcome.nearest, 0, "id 0's self-query answers its slot");
        // Mutate between batches: the loop keeps its queue, clock, and
        // query-id stream — only the contents change.
        lp.update(0, vec![3, 3, 3, 3]).unwrap();
        lp.delete(1).unwrap();
        assert_eq!(lp.stats().mutations, 2);
        lp.submit(ask(100, vec![3, 3, 3, 3])).unwrap();
        lp.submit(ask(100, vec![1, 2, 3, 0])).unwrap();
        let (done, _) = lp.poll(100).unwrap();
        assert_eq!(done.len(), 2);
        let slot0 = lp.set().replica(0).slot_of(0).expect("id 0 is live");
        assert_eq!(done[0].outcome.outcome.nearest, slot0, "the update moved id 0's row");
        assert!(
            done[1].outcome.outcome.distances[1].is_infinite(),
            "deleted id 1's old slot still serves"
        );
        assert_eq!(lp.stats().served, 4);
    }

    #[test]
    fn failed_read_puts_the_batch_back_unchanged() {
        // Three tenants so the DRR cursor moves: the batch takes tenant 0's
        // two requests and leaves the cursor on tenant 1.
        let policy =
            ServePolicy { target_batch: 2, quantum: 3, cost: cheap(), ..Default::default() };
        let mut lp = loop_with(3, policy);
        for tenant in [0, 1, 0] {
            lp.submit(req(tenant, 0, 0, 1000)).unwrap();
        }
        let stored = lp.set().replica(0).clone();
        lp.set_mut().replica_mut(0).clear();
        let before = format!("{lp:?}");
        assert_eq!(lp.poll(0), Err(FerexError::Empty));
        // Queue order, DRR deficits and cursor are exactly as before the
        // poll, and the accounting invariant still holds.
        assert_eq!(format!("{lp:?}"), before);
        assert_eq!(lp.queue_depth(), 3);
        let s = lp.stats();
        assert_eq!(s.submitted, s.served + s.shed_capacity + s.shed_deadline + 3);
        // A request whose deadline expires at the next failing poll is
        // shed there, and its event is not lost with the failed read.
        lp.submit(req(2, 0, 0, 1)).unwrap();
        assert_eq!(lp.poll(0), Err(FerexError::Empty));
        assert_eq!(lp.queue_depth(), 3);
        let s = lp.stats();
        assert_eq!(s.shed_deadline, 1);
        assert_eq!(s.submitted, s.served + s.shed_capacity + s.shed_deadline + 3);
        // Once the replica is restored the same requests serve in order,
        // and the held shed event is reported.
        *lp.set_mut().replica_mut(0) = stored;
        let (done, sheds) = lp.poll(0).unwrap();
        assert_eq!(done.iter().map(|c| (c.tenant, c.qid)).collect::<Vec<_>>(), [(0, 0), (0, 2)]);
        let doomed =
            ShedEvent { tenant: 2, qid: 3, arrival_tick: 0, tick: 0, reason: ShedReason::Deadline };
        assert_eq!(sheds, [doomed]);
        assert_eq!(lp.stats().served, 2);
    }

    #[test]
    fn drain_flushes_the_queue() {
        let policy = ServePolicy { target_batch: 4, cost: cheap(), ..Default::default() };
        let mut lp = loop_with(1, policy);
        for i in 0..6 {
            lp.submit(req(0, 0, i, 500)).unwrap();
        }
        let (done, shed) = lp.drain(10_000).unwrap();
        assert_eq!(done.len() + shed.len(), 6);
        assert_eq!(lp.queue_depth(), 0);
        let s = lp.stats();
        assert_eq!(s.submitted, s.served + s.shed_capacity + s.shed_deadline);
    }
}
