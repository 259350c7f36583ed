//! The four workloads and the closed-loop runner that measures them.
//!
//! Every workload is a closed loop: each client sends its next request
//! only after its previous one completed. One *round* is every client
//! submitting one request to the [`ServeLoop`] followed by the `poll` that
//! serves them as one batch, plus the workload's own side operations
//! (mutations, a metric switch). Deadlines are infinite and the queue is
//! unbounded, so nothing is shed by design.
//!
//! Only host wall time is measured, around calls into public functions.
//! Input generation, answer checks and the traced run's twin replay run
//! outside the timed regions. A run performs a fixed number of warm-up
//! rounds, excluded from every metric, then a fixed number of measured
//! rounds, so two commits always run the same operations.

use crate::inputs::{self, LiveSet, Mutation, QueryStream, Stream};
use crate::trace::Trace;
use ferex_conformance::Oracle;
use ferex_core::{
    Admission, Backend, CircuitConfig, Completion, DistanceMetric, Ferex, FerexArray,
    MutationPolicy, QuorumPolicy, ReplicaPolicy, ReplicaSet, ReplicaSetStats, Request, ServeLoop,
    ServePolicy, ServeSource, ServedOutcome,
};
use ferex_fefet::math::splitmix64;
use std::hint::black_box;
use std::time::Instant;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Batch-of-one Ideal Hamming reads on 10k rows: per-call fixed costs.
    PointIdeal,
    /// 64-query batches on a 3-replica Noisy set with 2-of-2 quorum reads.
    BatchNoisyQuorum,
    /// Ideal reads interleaved with online updates, deletes and inserts.
    ChurnIdeal,
    /// Metric switches through Manhattan, squared Euclidean and Hamming.
    ReconfigureLut,
}

/// Size of a run: the benchmark's, or the smoke size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Length {
    /// 256 rows and a few measured rounds; checksums are comparable.
    Smoke,
    /// Full size, with the measured round count scaled to this many
    /// seconds ([`NOMINAL_SECONDS`] runs each workload's base count).
    Seconds(u64),
}

/// `--seconds` value that runs each workload's base measured round count.
/// The counts are sized to take 10–14 s untraced on a 2-vCPU 2.1 GHz Xeon
/// guest.
pub const NOMINAL_SECONDS: u64 = 10;

/// One run's settings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Config {
    /// Seed every input derives from.
    pub seed: u64,
    /// Run size.
    pub length: Length,
    /// Replay every call on twins to split time across layers.
    pub trace: bool,
}

/// Set-up repetitions of a timed run; `setup_s` is their median and the
/// last set-up is the one served.
const SETUP_REPS: usize = 11;

/// Shape of one workload at one size.
#[derive(Debug, Clone, Copy)]
struct Shape {
    /// Physical rows (the slot capacity, for churn).
    rows: usize,
    /// Ids live at set-up (churn only; otherwise `rows`).
    live: usize,
    replicas: usize,
    quorum: QuorumPolicy,
    /// Closed-loop clients; each is its own tenant, and the target batch
    /// equals the client count so every round is one batch.
    clients: usize,
    warmup: u64,
    /// Measured rounds: all of them at smoke size, those of
    /// [`NOMINAL_SECONDS`] at full size.
    rounds: u64,
    /// Churn: rounds between `ServeLoop::maintenance` calls.
    maintenance_every: u64,
}

impl Workload {
    /// Every workload, in run order.
    pub const ALL: [Workload; 4] = [
        Workload::PointIdeal,
        Workload::BatchNoisyQuorum,
        Workload::ChurnIdeal,
        Workload::ReconfigureLut,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PointIdeal => "point-ideal",
            Workload::BatchNoisyQuorum => "batch-noisy-quorum",
            Workload::ChurnIdeal => "churn-ideal",
            Workload::ReconfigureLut => "reconfigure-lut",
        }
    }

    /// The workload named `name`.
    pub fn from_name(name: &str) -> Option<Self> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// `true` on the Ideal backend, where every answer must be exact.
    pub fn ideal(self) -> bool {
        self != Workload::BatchNoisyQuorum
    }

    fn shape(self, smoke: bool) -> Shape {
        let one = QuorumPolicy { reads: 1, agree: 1 };
        let base = Shape {
            rows: if smoke { 256 } else { 10_000 },
            live: if smoke { 256 } else { 10_000 },
            replicas: 1,
            quorum: one,
            clients: 1,
            warmup: if smoke { 5 } else { 50 },
            rounds: if smoke { 40 } else { 1_600 },
            maintenance_every: 0,
        };
        match self {
            Workload::PointIdeal => base,
            Workload::BatchNoisyQuorum => Shape {
                rows: if smoke { 256 } else { 4_096 },
                live: if smoke { 256 } else { 4_096 },
                replicas: 3,
                quorum: QuorumPolicy { reads: 2, agree: 2 },
                clients: 64,
                warmup: if smoke { 1 } else { 4 },
                rounds: if smoke { 4 } else { 100 },
                ..base
            },
            Workload::ChurnIdeal => Shape {
                rows: if smoke { 320 } else { 10_000 },
                live: if smoke { 256 } else { 8_000 },
                clients: 8,
                warmup: if smoke { 2 } else { 20 },
                rounds: if smoke { 40 } else { 540 },
                maintenance_every: if smoke { 8 } else { 32 },
                ..base
            },
            Workload::ReconfigureLut => Shape {
                clients: 16,
                warmup: if smoke { 3 } else { 15 },
                rounds: if smoke { 12 } else { 480 },
                ..base
            },
        }
    }
}

/// What one run measured and checked.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// The workload run.
    pub workload: Workload,
    /// The settings it ran with.
    pub config: Config,
    /// Operations attempted (requests, mutations, maintenance steps and
    /// switches), warm-up included.
    pub attempted: u64,
    /// Operations that errored, were shed or failed a check.
    pub failed: u64,
    /// Answers checked against the oracle.
    pub answers: u64,
    /// Answers that were exact-oracle minima.
    pub exact: u64,
    /// Traced runs: twin outcomes that differed from the real ones.
    pub twin_mismatches: u64,
    /// Fold of `(qid, nearest, source, distance bits)` over every answer.
    pub checksum: u64,
    /// Wall time of every set-up, engine build to ready `ServeLoop`.
    pub setup_ns: Vec<u64>,
    /// Timed host time of the measured phase.
    pub measured_ns: u64,
    /// Requests completed in the measured phase.
    pub requests: u64,
    /// Batches served in the measured phase.
    pub batches: u64,
    /// Per-request latency: start of `submit` to return of its `poll`.
    pub latency_ns: Vec<u64>,
    /// Every `poll` that served a batch.
    pub poll_ns: Vec<u64>,
    /// Every `ServeLoop` insert, update and delete.
    pub mutation_ns: Vec<u64>,
    /// Every metric switch, `reconfigure` to ready `ServeLoop`.
    pub switch_ns: Vec<u64>,
    /// Replica-set counters accumulated over the measured phase.
    pub replica: ReplicaSetStats,
    /// Compactions on replica 0 during the measured phase.
    pub compactions: u64,
    /// Wear-leveling rotations reported by maintenance.
    pub rotations: u64,
    /// Traced runs: rows × queries scanned by the replayed kernel calls.
    pub rows_scanned: u64,
    /// Batch kernels the served arrays dispatched to.
    pub kernels: Vec<&'static str>,
    /// Traced runs: the span trace of set-up and the measured phase.
    pub trace: Option<Trace>,
}

impl RunResult {
    /// Share of checked answers that were exact-oracle minima.
    pub fn recall_at_1(&self) -> f64 {
        self.exact as f64 / self.answers.max(1) as f64
    }

    /// `failed / attempted`.
    pub fn error_rate(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// Least recall a correct run may show: Ideal answers must all be
    /// exact; Noisy sensing may miss a few.
    pub fn recall_floor(&self) -> f64 {
        if self.workload.ideal() {
            1.0
        } else {
            0.95
        }
    }

    /// `true` when nothing failed and recall reached its floor.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.answers > 0 && self.recall_at_1() >= self.recall_floor()
    }
}

/// Runs `f`, returning its value and the instants around it.
fn clock<T>(f: impl FnOnce() -> T) -> (T, (Instant, Instant)) {
    let start = Instant::now();
    let v = f();
    (v, (start, Instant::now()))
}

fn ns((start, end): (Instant, Instant)) -> u64 {
    u64::try_from(end.saturating_duration_since(start).as_nanos()).unwrap_or(u64::MAX)
}

fn fold(h: u64, v: u64) -> u64 {
    splitmix64(h ^ v)
}

fn source_code(s: ServeSource) -> u64 {
    match s {
        ServeSource::Replica(i) => i as u64,
        ServeSource::OracleFallback => u64::MAX,
    }
}

/// Bit-for-bit equality of two served answers.
fn same_bits(a: &ServedOutcome, b: &ServedOutcome) -> bool {
    a.source == b.source
        && a.outcome.nearest == b.outcome.nearest
        && a.outcome.distances.len() == b.outcome.distances.len()
        && a.outcome
            .distances
            .iter()
            .zip(&b.outcome.distances)
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

fn add_stats(acc: &mut ReplicaSetStats, before: ReplicaSetStats, after: ReplicaSetStats) {
    acc.queries_submitted += after.queries_submitted - before.queries_submitted;
    acc.queries_served += after.queries_served - before.queries_served;
    acc.replica_reads += after.replica_reads - before.replica_reads;
    acc.disagreements += after.disagreements - before.disagreements;
    acc.oracle_fallbacks += after.oracle_fallbacks - before.oracle_fallbacks;
    acc.scrubs_escalated += after.scrubs_escalated - before.scrubs_escalated;
    acc.scheduled_scrubs += after.scheduled_scrubs - before.scheduled_scrubs;
    acc.queries_shed += after.queries_shed - before.queries_shed;
    acc.breaker_trips += after.breaker_trips - before.breaker_trips;
}

/// What an answer is checked against.
enum Truth<'a> {
    /// A fixed store: the answer's slot is the oracle row.
    Rows(&'a Oracle),
    /// A churning store: the oracle holds the live vectors in ascending
    /// id order (`ids`), and the answer's slot maps to its id through the
    /// served replica's slot table.
    Live { oracle: &'a Oracle, ids: &'a [u64] },
}

/// A serving loop, its virtual clock and, in traced runs, its twin.
struct Serving {
    lp: ServeLoop<FerexArray>,
    tick: u64,
    /// A clone of the loop's replica set that receives the same
    /// operations, replayed to time each layer.
    twin: Option<ReplicaSet<FerexArray>>,
    /// Churn: a clone of replica 0 receiving the same mutations.
    twin_array: Option<FerexArray>,
}

impl Serving {
    fn new(lp: ServeLoop<FerexArray>, trace: bool, mutable: bool) -> Self {
        let twin = trace.then(|| lp.set().clone());
        let twin_array = (trace && mutable).then(|| lp.set().replica(0).clone());
        Serving { lp, tick: 0, twin, twin_array }
    }
}

/// The closed-loop runner: phase bookkeeping, timing and checks.
struct Runner {
    workload: Workload,
    config: Config,
    shape: Shape,
    /// Rounds started so far, warm-up included.
    round: u64,
    /// Rounds of the run, warm-up included.
    total_rounds: u64,
    /// Past warm-up: only now are measurements taken.
    measuring: bool,
    /// Spans recorded before the measured phase that are kept (set-up).
    setup_spans: usize,
    res: RunResult,
}

impl Runner {
    fn new(workload: Workload, config: Config) -> Self {
        let shape = workload.shape(config.length == Length::Smoke);
        let measured = match config.length {
            Length::Smoke => shape.rounds,
            Length::Seconds(s) => (shape.rounds * s / NOMINAL_SECONDS).max(1),
        };
        let origin = Instant::now();
        Runner {
            workload,
            config,
            shape,
            round: 0,
            total_rounds: shape.warmup + measured,
            measuring: false,
            setup_spans: 0,
            res: RunResult {
                workload,
                config,
                attempted: 0,
                failed: 0,
                answers: 0,
                exact: 0,
                twin_mismatches: 0,
                checksum: 0,
                setup_ns: Vec::new(),
                measured_ns: 0,
                requests: 0,
                batches: 0,
                latency_ns: Vec::new(),
                poll_ns: Vec::new(),
                mutation_ns: Vec::new(),
                switch_ns: Vec::new(),
                replica: ReplicaSetStats::default(),
                compactions: 0,
                rotations: 0,
                rows_scanned: 0,
                kernels: Vec::new(),
                trace: config.trace.then(|| Trace::new(origin)),
            },
        }
    }

    fn name(&self) -> &'static str {
        self.workload.name()
    }

    fn setup_reps(&self) -> usize {
        if self.config.length == Length::Smoke {
            1
        } else {
            SETUP_REPS
        }
    }

    fn span(
        &mut self,
        parent: Option<usize>,
        name: &'static str,
        at: (Instant, Instant),
        items: u64,
    ) -> Option<usize> {
        let op = self.round;
        self.res.trace.as_mut().map(|t| t.record(parent, name, op, at, items))
    }

    fn replayed(
        &mut self,
        parent: Option<usize>,
        name: &'static str,
        dur: u64,
        items: u64,
    ) -> Option<usize> {
        let (t, p) = (self.res.trace.as_mut()?, parent?);
        Some(t.record_replayed(p, name, dur, items))
    }

    /// Accounts one timed region of the measured phase.
    fn timed(&mut self, at: (Instant, Instant)) {
        if self.measuring {
            self.res.measured_ns += ns(at);
        }
    }

    fn note_kernel(&mut self, set: &ReplicaSet<FerexArray>) {
        let k = set.replica(0).batch_kernel(self.shape.clients);
        if !self.res.kernels.contains(&k) {
            self.res.kernels.push(k);
        }
    }

    /// Records one set-up or metric switch (`root`) that started at
    /// `start`; `steps` name its steps and the instants they ended at.
    fn record_setup(
        &mut self,
        root: &'static str,
        start: Instant,
        steps: &[(&'static str, Instant)],
    ) {
        let end = steps.last().map_or(start, |s| s.1);
        if root == "setup" {
            self.res.setup_ns.push(ns((start, end)));
        } else if self.measuring {
            self.res.switch_ns.push(ns((start, end)));
            self.timed((start, end));
        }
        let parent = self.span(None, root, (start, end), 0);
        let mut from = start;
        for &(name, at) in steps {
            self.span(parent, name, (from, at), 0);
            from = at;
        }
    }

    /// Marks the end of set-up: spans so far are kept.
    fn setup_done(&mut self) {
        self.setup_spans = self.res.trace.as_ref().map_or(0, |t| t.spans().len());
    }

    /// Starts the next round; `false` once the run is over. Crossing from
    /// warm-up into the measured phase drops the warm-up spans; every
    /// other measurement is only taken while measuring.
    fn more(&mut self) -> bool {
        if !self.measuring && self.round >= self.shape.warmup {
            self.measuring = true;
            let keep = self.setup_spans;
            if let Some(t) = self.res.trace.as_mut() {
                t.truncate(keep);
            }
        }
        let go = self.round < self.total_rounds;
        if go {
            self.round += 1;
        }
        go
    }

    /// One closed-loop read round: every client submits one query, one
    /// `poll` serves them as a batch. Answers are checked against `truth`
    /// and, in traced runs, the poll is replayed on the twin.
    fn read_round(
        &mut self,
        s: &mut Serving,
        queries: Vec<Vec<u32>>,
        truth: &Truth,
    ) -> Result<(), String> {
        let name = self.name();
        let mut sent: Vec<(u64, Instant, Vec<u32>)> = Vec::with_capacity(queries.len());
        for (tenant, query) in queries.into_iter().enumerate() {
            let req = Request {
                tenant,
                priority: 0,
                arrival_tick: s.tick,
                deadline_ticks: u64::MAX,
                query: query.clone(),
            };
            let (admission, at) = clock(|| s.lp.submit(req));
            self.timed(at);
            self.span(None, "serve.submit", at, 1);
            self.res.attempted += 1;
            match admission {
                Ok(Admission::Queued { qid }) => sent.push((qid, at.0, query)),
                _ => self.res.failed += 1,
            }
        }
        let before = s.lp.set().stats();
        let (polled, at) = clock(|| s.lp.poll(s.tick));
        self.timed(at);
        let (done, _) = polled.map_err(|e| format!("{name}: poll failed: {e}"))?;
        if done.len() != sent.len() {
            return Err(format!("{name}: {} requests queued, {} served", sent.len(), done.len()));
        }
        let poll = self.span(None, "serve.poll", at, done.len() as u64);
        if self.measuring {
            add_stats(&mut self.res.replica, before, s.lp.set().stats());
            self.res.requests += done.len() as u64;
            self.res.batches += 1;
            self.res.poll_ns.push(ns(at));
        }
        let mut batch: Vec<(Vec<u32>, u64)> = Vec::with_capacity(done.len());
        for c in &done {
            let Some(i) = sent.iter().position(|(qid, _, _)| *qid == c.qid) else {
                return Err(format!("{name}: completion for unknown qid {}", c.qid));
            };
            let (qid, start, query) = sent.swap_remove(i);
            if self.measuring {
                self.res.latency_ns.push(ns((start, at.1)));
            }
            self.check(&s.lp, truth, &query, c);
            batch.push((query, qid));
        }
        s.tick = done.first().map_or(s.tick, |c| c.completion_tick);
        if let Some(twin) = s.twin.as_mut() {
            let (queries, qids): (Vec<Vec<u32>>, Vec<u64>) = batch.into_iter().unzip();
            self.replay_poll(twin, poll, &queries, &qids, &done);
        }
        Ok(())
    }

    /// Checks one answer and folds it into the checksum.
    fn check(&mut self, lp: &ServeLoop<FerexArray>, truth: &Truth, query: &[u32], c: &Completion) {
        let served = &c.outcome;
        let nearest = served.outcome.nearest;
        let distance = served.outcome.distances.get(nearest).copied().unwrap_or(f64::NAN);
        let r = &mut self.res;
        r.checksum = [c.qid, nearest as u64, source_code(served.source), distance.to_bits()]
            .into_iter()
            .fold(r.checksum, fold);
        let (oracle, row) = match truth {
            Truth::Rows(o) => (o, Some(nearest)),
            Truth::Live { oracle, ids } => (
                oracle,
                lp.set().replica(0).id_at(nearest).and_then(|id| ids.binary_search(&id).ok()),
            ),
        };
        let d = oracle.distances(query);
        let min = d.iter().copied().min();
        let exact = row.and_then(|i| d.get(i)).is_some_and(|&x| Some(x) == min);
        // Ideal sensing is exact, so the sensed distance must be the
        // oracle's too; the digital fallback must be exact on any backend.
        let sensed_ok = !self.workload.ideal() || min.is_some_and(|m| m as f64 == distance);
        let must_be_exact = self.workload.ideal() || served.source == ServeSource::OracleFallback;
        r.answers += 1;
        r.exact += u64::from(exact);
        if row.is_none() || !sensed_ok || (must_be_exact && !exact) {
            r.failed += 1;
        }
    }

    /// Replays one served batch on the twin, timing
    /// `ReplicaSet::serve_batch_read` and, on every replica it read,
    /// `FerexArray::search_batch_at` and `FerexArray::distances_batch`.
    fn replay_poll(
        &mut self,
        twin: &mut ReplicaSet<FerexArray>,
        poll: Option<usize>,
        queries: &[Vec<u32>],
        qids: &[u64],
        real: &[Completion],
    ) {
        let n = queries.len() as u64;
        let (read, at) = clock(|| twin.serve_batch_read(queries, qids));
        let read_span = self.replayed(poll, "replica.serve_batch_read", ns(at), n);
        let Ok((outcomes, reads)) = read else {
            self.res.twin_mismatches += 1;
            self.res.failed += 1;
            return;
        };
        let same = outcomes.len() == real.len()
            && outcomes.iter().zip(real).all(|(t, c)| same_bits(t, &c.outcome));
        if !same {
            self.res.twin_mismatches += 1;
            self.res.failed += 1;
        }
        for r in reads {
            let array = twin.replica(r);
            let (out, at) = clock(|| array.search_batch_at(queries, qids));
            black_box(out.is_ok());
            let search_span = self.replayed(read_span, "array.search_batch_at", ns(at), n);
            let (out, at) = clock(|| array.distances_batch(queries));
            black_box(out.is_ok());
            self.replayed(search_span, "kernel.distances_batch", ns(at), n);
            if self.measuring {
                self.res.rows_scanned += array.len() as u64 * n;
            }
        }
    }

    /// One online mutation through the serving loop, replayed on the twin
    /// set and the twin array in traced runs.
    fn mutate(&mut self, s: &mut Serving, m: &Mutation) {
        let (id, vector, [serve_name, replica_name, mutate_name]) = match m {
            Mutation::Insert(id, v) => {
                (*id, Some(v), ["serve.insert", "replica.insert", "mutate.insert"])
            }
            Mutation::Update(id, v) => {
                (*id, Some(v), ["serve.update", "replica.update", "mutate.update"])
            }
            Mutation::Delete(id) => {
                (*id, None, ["serve.delete", "replica.delete", "mutate.delete"])
            }
        };
        let v = vector.cloned().unwrap_or_default();
        let (res, at) = clock(|| match m {
            Mutation::Insert(..) => s.lp.insert(id, v),
            Mutation::Update(..) => s.lp.update(id, v),
            Mutation::Delete(_) => s.lp.delete(id),
        });
        self.timed(at);
        self.res.attempted += 1;
        self.res.failed += u64::from(res.is_err());
        if self.measuring {
            self.res.mutation_ns.push(ns(at));
        }
        let root = self.span(None, serve_name, at, 0);
        let (Some(twin), Some(array)) = (s.twin.as_mut(), s.twin_array.as_mut()) else { return };
        let v = vector.cloned().unwrap_or_default();
        let (twin_res, at) = clock(|| match m {
            Mutation::Insert(..) => twin.insert(id, v),
            Mutation::Update(..) => twin.update(id, v),
            Mutation::Delete(_) => twin.delete(id),
        });
        let replica_span = self.replayed(root, replica_name, ns(at), 0);
        let v = vector.cloned().unwrap_or_default();
        let (array_res, at) = clock(|| match m {
            Mutation::Insert(..) => array.insert(id, v),
            Mutation::Update(..) => array.update_id(id, v),
            Mutation::Delete(_) => array.delete(id),
        });
        self.replayed(replica_span, mutate_name, ns(at), 0);
        let slot = s.lp.set().replica(0).slot_of(id);
        let same = res.is_ok() == twin_res.is_ok()
            && res.is_ok() == array_res.is_ok()
            && twin.replica(0).slot_of(id) == slot
            && array.slot_of(id) == slot;
        if !same {
            self.res.twin_mismatches += 1;
            self.res.failed += 1;
        }
    }

    /// One `ServeLoop::maintenance` step (compaction and wear leveling).
    fn maintain(&mut self, s: &mut Serving) {
        let (report, at) = clock(|| s.lp.maintenance());
        self.timed(at);
        self.res.attempted += 1;
        if self.measuring {
            self.res.rotations += report.rotated as u64;
        }
        let root = self.span(None, "serve.maintenance", at, 0);
        let (Some(twin), Some(array)) = (s.twin.as_mut(), s.twin_array.as_mut()) else { return };
        let (twin_report, at) = clock(|| twin.maintenance());
        let replica_span = self.replayed(root, "replica.maintenance", ns(at), 0);
        let (array_report, at) = clock(|| array.maintenance());
        self.replayed(replica_span, "mutate.maintenance", ns(at), 0);
        if twin_report != report || array_report != report {
            self.res.twin_mismatches += 1;
            self.res.failed += 1;
        }
    }
}

fn replica_policy(shape: &Shape) -> ReplicaPolicy {
    ReplicaPolicy { quorum: shape.quorum, ..Default::default() }
}

fn serve_policy(shape: &Shape) -> ServePolicy {
    ServePolicy { target_batch: shape.clients, ..Default::default() }
}

/// Builds the workload's engine and serving loop `setup_reps` times,
/// timing each from engine build to ready loop; returns the last.
fn set_up(d: &mut Runner, rows: &[Vec<u32>]) -> Result<(Ferex, Serving), String> {
    let name = d.name();
    let err = |e: ferex_core::FerexError| format!("{name}: set-up failed: {e}");
    let shape = d.shape;
    let backend = if d.workload.ideal() {
        Backend::Ideal
    } else {
        let seed = inputs::stream_seed(d.config.seed, name, Stream::Device);
        Backend::Noisy(Box::new(CircuitConfig { seed, ..Default::default() }))
    };
    let mut built = None;
    for _ in 0..d.setup_reps() {
        drop(built.take());
        let rows = rows.to_vec();
        let start = Instant::now();
        let mut engine = Ferex::builder()
            .metric(DistanceMetric::Hamming)
            .bits(inputs::BITS)
            .dim(inputs::DIM)
            .backend(backend.clone())
            .build()
            .map_err(err)?;
        let sized = Instant::now();
        if d.workload == Workload::ChurnIdeal {
            engine.enable_mutation(MutationPolicy::with_capacity(shape.rows)).map_err(err)?;
            for (id, v) in rows.into_iter().enumerate() {
                engine.insert(id as u64, v).map_err(err)?;
            }
        } else {
            engine.store_all(rows).map_err(err)?;
        }
        let stored = Instant::now();
        let set = engine.replica_set(shape.replicas, replica_policy(&shape)).map_err(err)?;
        let replicated = Instant::now();
        let lp = ServeLoop::new(set, shape.clients, serve_policy(&shape)).map_err(err)?;
        let ready = Instant::now();
        d.record_setup(
            "setup",
            start,
            &[
                ("sizing.build", sized),
                ("array.store", stored),
                ("replica.build", replicated),
                ("serve.new", ready),
            ],
        );
        built = Some((engine, lp));
    }
    let (engine, lp) = built.ok_or_else(|| format!("{name}: no set-up ran"))?;
    d.note_kernel(lp.set());
    d.setup_done();
    Ok((engine, Serving::new(lp, d.config.trace, d.workload == Workload::ChurnIdeal)))
}

/// Runs one workload.
///
/// # Errors
///
/// Set-up failures and serving-protocol violations (a failed `poll`, a
/// request that was queued but not served); per-request errors and wrong
/// answers are counted in [`RunResult::failed`] instead.
pub fn run(workload: Workload, config: Config) -> Result<RunResult, String> {
    let mut d = Runner::new(workload, config);
    let (name, seed, shape) = (d.name(), config.seed, d.shape);
    let mut queries = QueryStream::new(seed, name);
    match workload {
        Workload::PointIdeal | Workload::BatchNoisyQuorum => {
            let rows = inputs::rows(shape.rows, seed, name);
            let oracle = Oracle::new(DistanceMetric::Hamming, rows.clone());
            let (_engine, mut s) = set_up(&mut d, &rows)?;
            while d.more() {
                let batch = (0..shape.clients).map(|_| queries.next(rows.len(), |i| &rows[i]));
                d.read_round(&mut s, batch.collect(), &Truth::Rows(&oracle))?;
            }
        }
        Workload::ChurnIdeal => {
            let rows = inputs::rows(shape.live, seed, name);
            let (_engine, mut s) = set_up(&mut d, &rows)?;
            let mut live = LiveSet::new(rows, seed, name);
            while d.more() {
                let ids: Vec<u64> = live.vectors().keys().copied().collect();
                let oracle = Oracle::new(
                    DistanceMetric::Hamming,
                    live.vectors().values().cloned().collect(),
                );
                let batch = (0..shape.clients).map(|_| live.query(&mut queries)).collect();
                d.read_round(&mut s, batch, &Truth::Live { oracle: &oracle, ids: &ids })?;
                let compactions = s.lp.set().replica(0).wear().compactions;
                for m in live.round() {
                    d.mutate(&mut s, &m);
                }
                if d.round.is_multiple_of(shape.maintenance_every) {
                    d.maintain(&mut s);
                }
                if d.measuring {
                    d.res.compactions += s.lp.set().replica(0).wear().compactions - compactions;
                }
            }
        }
        Workload::ReconfigureLut => {
            let rows = inputs::rows(shape.rows, seed, name);
            // Every round switches first, so the set-up loop is never served.
            let (mut engine, _) = set_up(&mut d, &rows)?;
            let cycle = [
                DistanceMetric::Manhattan,
                DistanceMetric::EuclideanSquared,
                DistanceMetric::Hamming,
            ];
            let oracles: Vec<Oracle> =
                cycle.iter().map(|&m| Oracle::new(m, rows.clone())).collect();
            while d.more() {
                let i = (d.round as usize - 1) % cycle.len();
                let mut s = switch(&mut d, &mut engine, cycle[i])?;
                let batch = (0..shape.clients).map(|_| queries.next(rows.len(), |i| &rows[i]));
                d.read_round(&mut s, batch.collect(), &Truth::Rows(&oracles[i]))?;
            }
        }
    }
    Ok(d.res)
}

/// One metric switch: `Ferex::reconfigure`, `ensure_programmed`, a fresh
/// one-replica set and a new `ServeLoop`.
fn switch(d: &mut Runner, engine: &mut Ferex, metric: DistanceMetric) -> Result<Serving, String> {
    let name = d.name();
    let err = |e: ferex_core::FerexError| format!("{name}: switch to {metric} failed: {e}");
    let shape = d.shape;
    d.res.attempted += 1;
    let start = Instant::now();
    engine.reconfigure(metric).map_err(err)?;
    let sized = Instant::now();
    engine.ensure_programmed().map_err(err)?;
    let programmed = Instant::now();
    let set = engine.replica_set(1, replica_policy(&shape)).map_err(err)?;
    let replicated = Instant::now();
    let lp = ServeLoop::new(set, shape.clients, serve_policy(&shape)).map_err(err)?;
    let ready = Instant::now();
    d.record_setup(
        "switch",
        start,
        &[
            ("sizing.reconfigure", sized),
            ("array.program", programmed),
            ("replica.build", replicated),
            ("serve.new", ready),
        ],
    );
    d.note_kernel(lp.set());
    Ok(Serving::new(lp, d.config.trace, false))
}
