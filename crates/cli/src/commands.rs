//! Command execution: each subcommand renders its output to a `String`
//! (testable) which `main` prints.

use crate::args::{BackendKind, Command, LoadMode};
use ferex_analog::montecarlo::MonteCarlo;
use ferex_core::{
    cosimulate, derive_replica_seed, find_minimal_cell, percentile, sizing_for, Backend,
    BrownoutPolicy, CircuitConfig, CostModel, DistanceMatrix, DistanceMetric, Ferex, FerexArray,
    FerexError, HedgePolicy, LatencyModel, MutationPolicy, QuorumPolicy, RepairPolicy,
    ReplicaPolicy, ReplicaSet, Request, ServeLoop, ServePolicy, ServeSource, ShedReason,
};
use ferex_datasets::synth::flip_symbol_bits;
use ferex_fefet::math::splitmix64;
use ferex_fefet::{FaultPlan, Technology};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::error::Error;
use std::fmt;
use std::fmt::Write as _;

/// Command-execution failure (already user-facing).
#[derive(Debug)]
pub struct CommandError(pub String);

impl fmt::Display for CommandError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl Error for CommandError {}

impl From<FerexError> for CommandError {
    fn from(e: FerexError) -> Self {
        CommandError(e.to_string())
    }
}

fn backend_of(kind: BackendKind, seed: u64, faults: FaultPlan) -> Backend {
    let cfg = || Box::new(CircuitConfig { seed, faults, ..Default::default() });
    match kind {
        BackendKind::Ideal => Backend::Ideal,
        BackendKind::Noisy => Backend::Noisy(cfg()),
        BackendKind::Circuit => Backend::Circuit(cfg()),
    }
}

/// Executes a parsed command and returns its rendered output.
///
/// # Errors
///
/// [`CommandError`] with a user-facing message.
pub fn run(command: &Command) -> Result<String, CommandError> {
    match command {
        Command::Help => Ok(crate::args::USAGE.to_string()),
        Command::Info => Ok(render_info(&Technology::default())),
        Command::Encode { metric, bits } => render_encode(*metric, *bits),
        Command::Search { metric, bits, stored, query, backend, seed, faults, spares } => {
            render_search(*metric, *bits, stored, query, *backend, *seed, *faults, *spares)
        }
        Command::MonteCarlo { runs, near, far, backend, faults } => {
            render_montecarlo(*runs, *near, *far, *backend, *faults)
        }
        Command::Verify { metric, bits } => render_verify(*metric, *bits),
        Command::BenchKernels { metric, bits, rows, dim, batch, backend, seed } => {
            render_bench_kernels(*metric, *bits, *rows, *dim, *batch, *backend, *seed)
        }
        Command::ServeSim {
            metric,
            bits,
            stored,
            queries,
            backend,
            seed,
            faults,
            spares,
            replicas,
            reads,
            agree,
            kill,
            scrub_every,
            load,
            tenants,
            target_batch,
            deadline,
            slow_replicas,
            hedge,
            churn,
        } => render_serve_sim(
            *metric,
            *bits,
            stored,
            queries,
            *backend,
            *seed,
            *faults,
            *spares,
            *replicas,
            (*reads, *agree),
            *kill,
            *scrub_every,
            *load,
            (*tenants, *target_batch, *deadline),
            slow_replicas,
            *hedge,
            *churn,
        ),
    }
}

fn render_verify(metric: DistanceMetric, bits: u32) -> Result<String, CommandError> {
    if !(1..=6).contains(&bits) {
        return Err(CommandError("--bits must be in 1..=6".into()));
    }
    let tech = Technology::default();
    let dm = DistanceMatrix::from_metric(metric, bits);
    let report = find_minimal_cell(&dm, &sizing_for(&tech))
        .map_err(|e| CommandError(format!("encoding failed: {e}")))?;
    let cosim = cosimulate(&report.encoding, &dm, &tech, 0.15);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{bits}-bit {metric}: {}FeFET{}R encoding, {} (search,stored) pairs co-simulated",
        report.encoding.k,
        report.encoding.k,
        cosim.measurements.len()
    );
    let _ = writeln!(out, "worst deviation: {:.3} I_unit", cosim.max_error());
    if cosim.passed() {
        let _ = writeln!(out, "PASS: device-level array reproduces the distance matrix");
    } else {
        let _ = writeln!(out, "FAIL: {} pairs out of tolerance", cosim.failures().len());
        for m in cosim.failures().iter().take(8) {
            let _ = writeln!(
                out,
                "  search {} / stored {}: sensed {:.2}, expected {}",
                m.search, m.stored, m.sensed, m.expected
            );
        }
    }
    Ok(out)
}

/// Adaptive mean wall time of `f` in nanoseconds: one pilot run, then
/// enough repeats to accumulate ~50 ms (slow configurations keep the
/// single pilot measurement instead of stalling the command).
fn mean_ns<F: FnMut()>(mut f: F) -> f64 {
    let pilot = std::time::Instant::now();
    f();
    let first = pilot.elapsed().as_secs_f64();
    if first >= 0.2 {
        return first * 1e9;
    }
    let iters = ((0.05 / first.max(1e-9)).ceil() as usize).clamp(1, 200);
    let start = std::time::Instant::now();
    for _ in 0..iters {
        f();
    }
    start.elapsed().as_secs_f64() / iters as f64 * 1e9
}

fn render_bench_kernels(
    metric: DistanceMetric,
    bits: u32,
    rows: usize,
    dim: usize,
    batch: usize,
    backend: BackendKind,
    seed: u64,
) -> Result<String, CommandError> {
    if !(1..=6).contains(&bits) {
        return Err(CommandError("--bits must be in 1..=6".into()));
    }
    let mut engine = Ferex::builder()
        .metric(metric)
        .bits(bits)
        .dim(dim)
        .backend(backend_of(backend, seed, FaultPlan::none()))
        .build()?;
    let top = 1u32 << bits;
    let mut rng = StdRng::seed_from_u64(seed);
    for _ in 0..rows {
        engine.store((0..dim).map(|_| rng.gen_range(0..top)).collect())?;
    }
    engine.ensure_programmed()?;
    let queries: Vec<Vec<u32>> =
        (0..batch).map(|_| (0..dim).map(|_| rng.gen_range(0..top)).collect()).collect();
    let array = engine.array();
    let batched = array.distances_batch(&queries)?;
    for (i, q) in queries.iter().take(4).enumerate() {
        if array.distances(q)? != batched[i] {
            return Err(CommandError(format!(
                "batch kernel diverged from the scalar path on query {i} — this is a bug"
            )));
        }
    }
    let batch_ns = mean_ns(|| {
        std::hint::black_box(array.distances_batch(&queries).expect("repeat of a served batch"));
    }) / batch as f64;
    let scalar_ns = mean_ns(|| {
        for q in &queries {
            std::hint::black_box(array.distances(q).expect("repeat of a served query"));
        }
    }) / batch as f64;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{bits}-bit {metric}, {rows} rows x {dim} symbols, batch of {batch} (seed {seed})"
    );
    let _ = writeln!(out, "  batch kernel     : {}", array.batch_kernel(batch));
    let _ = writeln!(out, "  batch ns/query   : {batch_ns:.0}");
    let _ = writeln!(out, "  scalar ns/query  : {scalar_ns:.0}");
    let _ = writeln!(out, "  speedup          : {:.2}x", scalar_ns / batch_ns.max(1e-9));
    let _ = writeln!(out, "  bit-identity     : PASS (batch == scalar on sampled queries)");
    Ok(out)
}

fn render_info(tech: &Technology) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "technology card (45nm-class defaults):");
    let _ = writeln!(
        out,
        "  stored V_th levels : {} ({})",
        tech.n_vth_levels,
        (0..tech.n_vth_levels)
            .map(|i| format!("{:.1} V", tech.vth_level(i).value()))
            .collect::<Vec<_>>()
            .join(", ")
    );
    let _ = writeln!(
        out,
        "  search V_gs levels : {} ({})",
        tech.n_vth_levels + 1,
        (0..=tech.n_vth_levels)
            .map(|j| format!("{:.1} V", tech.search_voltage(j).value()))
            .collect::<Vec<_>>()
            .join(", ")
    );
    let _ = writeln!(out, "  cell resistor      : {:.1} MΩ", tech.r_cell.value() / 1e6);
    let _ = writeln!(
        out,
        "  V_ds unit / I_unit : {:.2} V / {:.0} nA (up to {}x)",
        tech.vds_unit.value(),
        tech.i_unit().value() * 1e9,
        tech.max_vds_multiple
    );
    let _ = writeln!(out, "  ON/OFF margin      : {:.0} mV", tech.on_off_margin().value() * 1e3);
    out
}

fn render_encode(metric: DistanceMetric, bits: u32) -> Result<String, CommandError> {
    if !(1..=6).contains(&bits) {
        return Err(CommandError("--bits must be in 1..=6".into()));
    }
    let tech = Technology::default();
    let dm = DistanceMatrix::from_metric(metric, bits);
    let mut out = String::new();
    let _ = writeln!(out, "{bits}-bit {metric} distance matrix:");
    let _ = write!(out, "{dm}");
    let report = find_minimal_cell(&dm, &sizing_for(&tech))
        .map_err(|e| CommandError(format!("encoding failed: {e}")))?;
    let _ = writeln!(out);
    for a in &report.attempts {
        let _ =
            writeln!(out, "K = {}: {}", a.k, if a.feasible { "feasible" } else { "infeasible" });
    }
    let _ = write!(out, "{}", report.encoding);
    match report.encoding.verify(&dm) {
        Ok(()) => {
            let _ = writeln!(out, "verification: OK (encoding reproduces the DM exactly)");
        }
        Err(e) => {
            return Err(CommandError(format!("internal verification failure: {e}")));
        }
    }
    Ok(out)
}

#[allow(clippy::too_many_arguments)]
fn render_search(
    metric: DistanceMetric,
    bits: u32,
    stored: &[Vec<u32>],
    query: &[u32],
    backend: BackendKind,
    seed: u64,
    faults: FaultPlan,
    spares: usize,
) -> Result<String, CommandError> {
    if stored.is_empty() {
        return Err(CommandError("--store must contain at least one vector".into()));
    }
    let dim = query.len();
    if dim == 0 {
        return Err(CommandError("--query must not be empty".into()));
    }
    let mut builder = Ferex::builder()
        .metric(metric)
        .bits(bits)
        .dim(dim)
        .backend(backend_of(backend, seed, faults));
    if spares > 0 {
        builder = builder.repair_policy(RepairPolicy { spare_rows: spares, ..Default::default() });
    }
    let mut engine = builder.build().map_err(|e| CommandError(e.to_string()))?;
    for v in stored {
        engine.store(v.clone())?;
    }
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{metric} search over {} stored vectors ({} symbols, {} backend):",
        stored.len(),
        dim,
        match backend {
            BackendKind::Ideal => "ideal",
            BackendKind::Noisy => "noisy",
            BackendKind::Circuit => "circuit",
        }
    );
    match engine.search(query) {
        Ok(result) => {
            for (r, d) in result.distances.iter().enumerate() {
                let marker = if r == result.nearest { "  <-- nearest" } else { "" };
                if d.is_infinite() {
                    let _ = writeln!(out, "  row {r}: quarantined (no spare left)");
                } else {
                    let _ = writeln!(out, "  row {r}: distance {d:.2}{marker}");
                }
            }
        }
        // With self-healing on, a fully quarantined array is a served
        // (degraded) outcome worth reporting, not a usage error.
        Err(FerexError::Empty) if spares > 0 && engine.array().program_report().is_some() => {
            let _ = writeln!(out, "  every row quarantined — no servable neighbor");
        }
        Err(e) => return Err(e.into()),
    }
    if spares > 0 {
        let report = engine.array().program_report().expect("search write-verified");
        let h = engine.health();
        let _ = writeln!(
            out,
            "self-heal: {} cells verified ({} clean, {} repaired in {} retries, {} failed)",
            report.cells,
            report.cells_clean,
            report.cells_repaired,
            report.retries,
            report.cells_failed
        );
        let _ = writeln!(
            out,
            "           {} rows quarantined, {} remapped onto spares, {} excluded \
             ({}/{} spares in use)",
            report.rows_quarantined.len(),
            report.rows_remapped.len(),
            report.rows_excluded.len(),
            h.spares_in_use,
            h.spare_rows
        );
    }
    Ok(out)
}

#[allow(clippy::too_many_arguments)]
fn render_serve_sim(
    metric: DistanceMetric,
    bits: u32,
    stored: &[Vec<u32>],
    queries: &[Vec<u32>],
    backend: BackendKind,
    seed: u64,
    faults: FaultPlan,
    spares: usize,
    replicas: usize,
    (reads, agree): (usize, usize),
    kill: Option<(usize, usize)>,
    scrub_every: usize,
    load: Option<LoadMode>,
    (tenants, target_batch, deadline): (usize, usize, u64),
    slow_replicas: &[(usize, u64)],
    hedge: Option<(u64, u64)>,
    churn: u64,
) -> Result<String, CommandError> {
    if !(1..=6).contains(&bits) {
        return Err(CommandError("--bits must be in 1..=6".into()));
    }
    if stored.is_empty() {
        return Err(CommandError("--store must contain at least one vector".into()));
    }
    if queries.is_empty() {
        return Err(CommandError("--queries must contain at least one vector".into()));
    }
    let dim = stored[0].len();
    let tech = Technology::default();
    let dm = DistanceMatrix::from_metric(metric, bits);
    let encoding = find_minimal_cell(&dm, &sizing_for(&tech))
        .map_err(|e| CommandError(format!("encoding failed: {e}")))?
        .encoding;
    let mut pool = Vec::with_capacity(replicas);
    for i in 0..replicas {
        // Replica 0 carries the injected fault plan; the rest stay clean so
        // quorum reads have healthy peers to outvote it with.
        let plan = if i == 0 { faults } else { FaultPlan::none() };
        let b = backend_of(backend, derive_replica_seed(seed, i as u64), plan);
        let mut array = FerexArray::new(tech.clone(), encoding.clone(), dim, b);
        if spares > 0 {
            array.set_repair_policy(RepairPolicy { spare_rows: spares, ..Default::default() })?;
        }
        if churn > 0 {
            // Online churn needs the mutation slot table; double capacity
            // leaves free slots for tombstones and wear rotation.
            array.enable_mutation(MutationPolicy::with_capacity(stored.len() * 2))?;
            for (id, v) in stored.iter().enumerate() {
                array.insert(id as u64, v.clone())?;
            }
        } else {
            array.store_all(stored.iter().cloned())?;
        }
        if spares > 0 {
            array.program_verified()?;
        } else {
            array.program();
        }
        pool.push(array);
    }
    // Either latency flag arms seeded per-replica latency models (healthy
    // unless slowed) plus brownout demotion, mirroring the conformance v2
    // scenario family.
    let latency_armed = !slow_replicas.is_empty() || hedge.is_some();
    let policy = ReplicaPolicy {
        quorum: QuorumPolicy { reads, agree },
        brownout: latency_armed.then(BrownoutPolicy::default),
        ..Default::default()
    };
    let mut set = ReplicaSet::new(pool, metric, policy)?;
    if let Some(mode) = load {
        return render_serve_loop(
            metric,
            set,
            queries,
            seed,
            mode,
            (tenants, target_batch, deadline),
            kill,
            scrub_every,
            slow_replicas,
            hedge,
            churn,
        );
    }
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{metric} replicated serving: {replicas} replicas, quorum {agree}-of-{reads}, \
         {} stored vectors ({} symbols)",
        stored.len(),
        dim
    );
    for (qi, query) in queries.iter().enumerate() {
        if let Some((k, at)) = kill {
            if qi == at {
                set.kill(k);
                let _ = writeln!(out, "  -- chaos: replica {k} killed");
            }
        }
        if scrub_every > 0 && qi > 0 && qi % scrub_every == 0 {
            let findings = set.scrub_all();
            let _ = writeln!(out, "  -- maintenance scrub: {findings} findings");
        }
        let served = set.serve(query)?;
        let nearest = served.outcome.nearest;
        let via = match served.source {
            ServeSource::Replica(i) => format!("replica {i}"),
            ServeSource::OracleFallback => "oracle fallback".to_string(),
        };
        let _ = writeln!(
            out,
            "  query {qi}: nearest row {nearest} (distance {:.2}) via {via}",
            served.outcome.distances[nearest]
        );
    }
    let s = set.stats();
    let _ = writeln!(
        out,
        "served {} queries: {} replica reads, {} disagreements, {} oracle fallbacks",
        s.queries_served, s.replica_reads, s.disagreements, s.oracle_fallbacks
    );
    let _ = writeln!(
        out,
        "resilience: {} scrubs escalated, {} scheduled scrubs, {} breaker trips, \
         {}/{replicas} replicas alive",
        s.scrubs_escalated,
        s.scheduled_scrubs,
        s.breaker_trips,
        set.alive()
    );
    Ok(out)
}

/// Drives the deterministic serving loop over the query list with seeded
/// open- or closed-loop arrivals on a virtual tick clock.
#[allow(clippy::too_many_arguments)]
fn render_serve_loop(
    metric: DistanceMetric,
    mut set: ReplicaSet<FerexArray>,
    queries: &[Vec<u32>],
    seed: u64,
    mode: LoadMode,
    (tenants, target_batch, deadline): (usize, usize, u64),
    kill: Option<(usize, usize)>,
    scrub_every: usize,
    slow_replicas: &[(usize, u64)],
    hedge: Option<(u64, u64)>,
    churn: u64,
) -> Result<String, CommandError> {
    /// Bernoulli sub-slots per tick of the open-loop arrival process
    /// (matches the conformance load simulator).
    const SUBSLOTS: u64 = 8;
    const MAX_TICKS: u64 = 1_000_000;
    let cost = CostModel::noisy_10k();
    // `render_serve_sim` arms the brownout exactly when a latency flag is
    // set.
    let latency_armed = set.policy().brownout.is_some();
    if latency_armed {
        let latency_seed = splitmix64(seed ^ 0x510E_11FE);
        let n_replicas = set.n_replicas();
        for i in 0..n_replicas {
            let mut model =
                LatencyModel::healthy(cost, derive_replica_seed(latency_seed, i as u64));
            if let Some(&(_, factor)) = slow_replicas.iter().find(|&&(r, _)| r == i) {
                model.slow_factor_milli = factor;
            }
            set.set_latency_model(i, model)?;
        }
    }
    let policy = ServePolicy {
        target_batch,
        queue_capacity: 0,
        quantum: 1,
        cost,
        max_wait_ticks: 0,
        hedge: hedge
            .map(|(quantile_milli, budget_milli)| HedgePolicy { quantile_milli, budget_milli }),
    };
    let mut lp = ServeLoop::new(set, tenants, policy)?;
    let n = queries.len();
    let mut out = String::new();
    let mode_label = match mode {
        LoadMode::Open { rate_milli } => format!("open loop, {rate_milli} req/kilotick"),
        LoadMode::Closed { outstanding } => format!("closed loop, {outstanding} in flight"),
    };
    let _ = writeln!(
        out,
        "{metric} serving loop ({mode_label}): {n} requests over {tenants} tenant(s), \
         target batch {target_batch}, deadline {deadline} ticks (seed {seed})"
    );
    let arrival_seed = splitmix64(seed ^ 0x10AD_11FE);
    let threshold = match mode {
        LoadMode::Open { rate_milli } => {
            (((rate_milli as u128) << 64) / (1000 * SUBSLOTS as u128)).min(u64::MAX as u128) as u64
        }
        LoadMode::Closed { .. } => 0,
    };
    // Churn events draw from their own seeded Bernoulli stream on the same
    // sub-slot clock, so arrivals and mutations stay independent.
    let churn_seed = splitmix64(seed ^ 0xC400_11FE);
    let churn_threshold =
        (((churn as u128) << 64) / (1000 * SUBSLOTS as u128)).min(u64::MAX as u128) as u64;
    let live_ids: Vec<u64> = lp.set().live_ids();
    let mut mutations_failed = 0u64;
    let mut submitted = 0usize;
    let mut completions = Vec::new();
    let mut sheds = Vec::new();
    // Closed-loop respawn ticks (always popped in order: completion ticks
    // are monotone across batches).
    let mut respawns: std::collections::VecDeque<u64> = std::collections::VecDeque::new();
    if let LoadMode::Closed { outstanding } = mode {
        for _ in 0..outstanding.min(n) {
            respawns.push_back(0);
        }
    }
    let mut scrubs = 0u64;
    let mut scrub_findings = 0usize;
    let mut end_tick = 0u64;
    let mut tick = 0u64;
    loop {
        if tick >= MAX_TICKS {
            return Err(CommandError(format!(
                "serving loop failed to drain within {MAX_TICKS} virtual ticks"
            )));
        }
        if let Some((k, at)) = kill {
            if tick == at as u64 {
                lp.set_mut().kill(k);
                let _ = writeln!(out, "  -- chaos: replica {k} killed at tick {at}");
            }
        }
        if scrub_every > 0 && tick > 0 && tick.is_multiple_of(scrub_every as u64) {
            scrubs += 1;
            scrub_findings += lp.set_mut().scrub_all();
        }
        if churn > 0 && !live_ids.is_empty() {
            for slot in 0..SUBSLOTS {
                let draw = splitmix64(churn_seed ^ splitmix64(tick * SUBSLOTS + slot));
                if draw >= churn_threshold {
                    continue;
                }
                // In-place id update: the mutated vector is drawn from the
                // query list, so churn stays within the validated alphabet.
                let id = live_ids.get((draw % live_ids.len() as u64) as usize).copied();
                let q = queries.get((splitmix64(draw) % queries.len().max(1) as u64) as usize);
                if let (Some(id), Some(v)) = (id, q) {
                    if lp.update(id, v.clone()).is_err() {
                        mutations_failed += 1;
                    }
                }
            }
            // Periodic wear-rotation maintenance rides the virtual clock.
            if tick > 0 && tick.is_multiple_of(256) {
                lp.maintenance();
            }
        }
        let submit = |lp: &mut ServeLoop<FerexArray>, i: usize, tick: u64| {
            lp.submit(Request {
                tenant: i % tenants,
                priority: 0,
                arrival_tick: tick,
                deadline_ticks: deadline,
                query: queries[i].clone(),
            })
            .map(|_| ())
        };
        match mode {
            LoadMode::Open { .. } => {
                for slot in 0..SUBSLOTS {
                    if submitted >= n {
                        break;
                    }
                    let draw = splitmix64(arrival_seed ^ splitmix64(tick * SUBSLOTS + slot));
                    if draw < threshold {
                        submit(&mut lp, submitted, tick)?;
                        submitted += 1;
                    }
                }
            }
            LoadMode::Closed { .. } => {
                while respawns.front().is_some_and(|&t| t <= tick) {
                    respawns.pop_front();
                    if submitted < n {
                        submit(&mut lp, submitted, tick)?;
                        submitted += 1;
                    }
                }
            }
        }
        let (done, shed) = lp.poll(tick)?;
        for c in &done {
            end_tick = end_tick.max(c.completion_tick);
            if matches!(mode, LoadMode::Closed { .. }) {
                respawns.push_back(c.completion_tick);
            }
        }
        completions.extend(done);
        sheds.extend(shed);
        if submitted >= n && lp.queue_depth() == 0 && tick >= end_tick {
            break;
        }
        tick += 1;
    }
    // One line per request, in submission (qid) order.
    let mut lines: Vec<(u64, String)> = Vec::with_capacity(n);
    for c in &completions {
        let via = match c.outcome.source {
            ServeSource::Replica(i) => format!("replica {i}"),
            ServeSource::OracleFallback => "oracle fallback".to_string(),
        };
        lines.push((
            c.qid,
            format!(
                "  req {} (tenant {}): nearest row {} via {via}, batch {}, latency {} ticks",
                c.qid,
                c.tenant,
                c.outcome.outcome.nearest,
                c.batch,
                c.latency()
            ),
        ));
    }
    for s in &sheds {
        let reason = match s.reason {
            ShedReason::Capacity => "capacity",
            ShedReason::Deadline => "deadline",
        };
        lines.push((
            s.qid,
            format!("  req {} (tenant {}): shed ({reason}) at tick {}", s.qid, s.tenant, s.tick),
        ));
    }
    lines.sort_by_key(|(qid, _)| *qid);
    for (_, line) in &lines {
        let _ = writeln!(out, "{line}");
    }
    let stats = lp.stats();
    let mut lat: Vec<u64> = completions.iter().map(|c| c.latency()).collect();
    lat.sort_unstable();
    let _ = writeln!(
        out,
        "served {}/{} in {} batches (max batch {}), shed {} capacity / {} deadline",
        stats.served,
        stats.submitted,
        stats.batches,
        stats.max_batch,
        stats.shed_capacity,
        stats.shed_deadline
    );
    let _ = writeln!(
        out,
        "virtual time: {} ticks end-to-end, {} busy serving",
        end_tick, stats.busy_ticks
    );
    let _ = writeln!(
        out,
        "latency ticks: p50 {}, p99 {}, p999 {}, max {} (deadline {deadline})",
        percentile(&lat, 50, 100),
        percentile(&lat, 99, 100),
        percentile(&lat, 999, 1000),
        lat.last().copied().unwrap_or(0)
    );
    let _ = writeln!(
        out,
        "goodput: {} served per 1000 ticks; served per tenant {:?}",
        stats.served.saturating_mul(1000) / end_tick.max(1),
        lp.served_per_tenant()
    );
    if scrub_every > 0 {
        let _ = writeln!(out, "maintenance: {scrubs} scheduled scrubs, {scrub_findings} findings");
    }
    if churn > 0 {
        let wear = lp.set().wear();
        let _ = writeln!(
            out,
            "churn: {} mutations applied ({} rejected), wear max {} cycles, \
             imbalance {} per-mille, {} compactions",
            stats.mutations,
            mutations_failed,
            wear.max_cycles,
            wear.imbalance_milli(),
            wear.compactions
        );
    }
    if latency_armed {
        let _ = writeln!(
            out,
            "hedging: {} issued, {} won; brownouts: {} demotions, {} re-probes",
            stats.hedges_issued, stats.hedge_wins, stats.brownout_demotions, stats.reprobes
        );
        for i in 0..lp.set().n_replicas() {
            let mut samples = lp.replica_samples(i).to_vec();
            samples.sort_unstable();
            let label = match slow_replicas.iter().find(|&&(r, _)| r == i) {
                Some(&(_, f)) => format!("slow@{f}"),
                None => "healthy".to_string(),
            };
            let _ = writeln!(
                out,
                "  replica {i} ({label}): {} reads, service p50 {} / max {} ticks, \
                 ewma {} milli, hedged against {}, hedge wins {}, demerit {} milli",
                samples.len(),
                percentile(&samples, 50, 100),
                samples.last().copied().unwrap_or(0),
                lp.set().status(i).latency_ewma_milli,
                lp.hedged_against().get(i).copied().unwrap_or(0),
                lp.hedge_wins_by().get(i).copied().unwrap_or(0),
                lp.set().status(i).latency_demerit_milli,
            );
        }
    }
    Ok(out)
}

fn render_montecarlo(
    runs: usize,
    near: usize,
    far: usize,
    backend: BackendKind,
    faults: FaultPlan,
) -> Result<String, CommandError> {
    const DIM: usize = 48;
    let mc = MonteCarlo { runs, seed: 0xC11 };
    let mut k = 0u64;
    let result = mc.run(|_| {
        k += 1;
        let mut rng = StdRng::seed_from_u64(k);
        const BITS: u32 = 2;
        let query: Vec<u32> = (0..DIM).map(|_| rng.gen_range(0..1u32 << BITS)).collect();
        let mut engine = Ferex::builder()
            .metric(DistanceMetric::Hamming)
            .bits(BITS)
            .dim(DIM)
            .backend(backend_of(backend, k, faults))
            .build()
            .expect("2-bit Hamming encodes");
        engine.store(flip_symbol_bits(&query, BITS, near, &mut rng)).expect("stores");
        for _ in 0..8 {
            engine.store(flip_symbol_bits(&query, BITS, far, &mut rng)).expect("stores");
        }
        engine.search(&query).expect("searches").nearest == 0
    });
    let (lo, hi) = result.wilson_95();
    Ok(format!(
        "worst-case search accuracy (HD {near} vs {far}, {runs} runs): {:.1}% \
         (95% CI {:.1}-{:.1}%)\n",
        result.accuracy() * 100.0,
        lo * 100.0,
        hi * 100.0
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::parse;

    fn run_line(line: &str) -> Result<String, CommandError> {
        let argv: Vec<String> = line.split_whitespace().map(String::from).collect();
        run(&parse(&argv).expect("parses"))
    }

    #[test]
    fn bench_kernels_labels_its_kernel_and_passes_identity() {
        let out = run_line("bench-kernels --metric hamming --rows 40 --dim 16 --batch 4").unwrap();
        assert!(out.contains("batch kernel     : bitplane-popcount"), "{out}");
        assert!(out.contains("bit-identity     : PASS"), "{out}");
        let out = run_line(
            "bench-kernels --metric l1 --rows 30 --dim 8 --batch 4 --backend noisy --seed 5",
        )
        .unwrap();
        assert!(out.contains("batch kernel     : contrib-table"), "{out}");
        assert!(out.contains("speedup"), "{out}");
    }

    #[test]
    fn info_renders_technology() {
        let out = run_line("info").unwrap();
        assert!(out.contains("stored V_th levels"));
        assert!(out.contains("1.0 MΩ"));
    }

    #[test]
    fn encode_hamming_prints_table_and_verifies() {
        let out = run_line("encode --metric hamming").unwrap();
        assert!(out.contains("3FeFET3R"));
        assert!(out.contains("K = 1: infeasible"));
        assert!(out.contains("verification: OK"));
    }

    #[test]
    fn encode_pins_the_one_and_two_bit_encodings() {
        // The sized encodings themselves, not only K and the level budgets,
        // are pinned byte for byte across builds.
        let mut out = String::new();
        for metric in ["hamming", "manhattan", "euclidean"] {
            for bits in [1, 2] {
                out += &run_line(&format!("encode --metric {metric} --bits {bits}")).unwrap();
            }
        }
        assert_eq!(out, include_str!("../fixtures/encode_b1_b2.txt"));
    }

    #[test]
    fn search_reports_nearest() {
        let out = run_line("search --metric manhattan --store 0,0;3,3 --query 1,0").unwrap();
        assert!(out.contains("row 0: distance 1.00  <-- nearest"), "{out}");
        assert!(out.contains("row 1: distance 5.00"));
    }

    #[test]
    fn search_on_noisy_backend_runs() {
        let out = run_line(
            "search --metric hamming --store 0,0,0,0;3,3,3,3 --query 0,0,0,0 --backend noisy",
        )
        .unwrap();
        assert!(out.contains("<-- nearest"));
    }

    #[test]
    fn montecarlo_reports_accuracy() {
        let out = run_line("montecarlo --runs 10 --near 5 --far 9").unwrap();
        assert!(out.contains("worst-case search accuracy"));
        assert!(out.contains("10 runs"));
    }

    #[test]
    fn faulted_search_diverges_from_benign() {
        let benign =
            "search --metric hamming --store 0,0,0,0;3,3,3,3 --query 0,0,0,0 --backend noisy \
             --seed 9";
        let faulted = format!("{benign} --faults sa1=1.0");
        let clean = run_line(benign).unwrap();
        let dead = run_line(&faulted).unwrap();
        assert!(clean.contains("row 0: distance 0.00"), "{clean}");
        assert!(!clean.contains("row 1: distance 0.00"), "{clean}");
        // Every cell stuck depolarized: no mismatch current flows anywhere,
        // so the far row's sensed distance collapses to zero too.
        assert_ne!(clean, dead);
        assert!(dead.contains("row 1: distance 0.00"), "{dead}");
        // Deterministic: same spec, same output.
        assert_eq!(run_line(&faulted).unwrap(), dead);
    }

    #[test]
    fn faulted_montecarlo_degrades_accuracy() {
        let clean = run_line("montecarlo --runs 12 --near 2 --far 20").unwrap();
        let dead =
            run_line("montecarlo --runs 12 --near 2 --far 20 --faults sa0=0.5,open=0.3").unwrap();
        assert!(clean.contains("accuracy"), "{clean}");
        assert_ne!(clean, dead, "heavy faults must perturb the campaign");
    }

    #[test]
    fn spared_search_reports_self_healing() {
        // Every cell SA1-dead: without spares the far row collapses to
        // distance zero; with spares the report shows the quarantine.
        let line = "search --metric hamming --store 0,0,0,0;3,3,3,3 --query 0,0,0,0 \
                    --backend noisy --seed 9 --faults sa1=1.0 --spares 2";
        let out = run_line(line).unwrap();
        assert!(out.contains("self-heal:"), "{out}");
        assert!(out.contains("2 rows quarantined"), "{out}");
        assert!(out.contains("every row quarantined"), "{out}");
        // Deterministic under a fixed seed.
        assert_eq!(run_line(line).unwrap(), out);
        // A mild fault rate heals back to a served array.
        let healed = run_line(
            "search --metric hamming --store 0,1,2,3;3,3,3,3 --query 0,1,2,3 \
             --backend noisy --seed 3 --faults sa1=0.05 --spares 8",
        )
        .unwrap();
        assert!(healed.contains("self-heal:"), "{healed}");
        assert!(healed.contains("row 0: distance 0.00  <-- nearest"), "{healed}");
    }

    #[test]
    fn serve_sim_reports_sources_and_counters() {
        let line = "serve-sim --metric hamming --store 0,0,0,0;3,3,3,3 \
                    --queries 0,0,0,0;3,3,3,3;0,0,0,0 --replicas 3 --quorum 2/2 --seed 5";
        let out = run_line(line).unwrap();
        assert!(out.contains("3 replicas, quorum 2-of-2"), "{out}");
        assert!(out.contains("query 0: nearest row 0"), "{out}");
        assert!(out.contains("query 1: nearest row 1"), "{out}");
        assert!(out.contains("served 3 queries"), "{out}");
        assert!(out.contains("3/3 replicas alive"), "{out}");
        // Deterministic under a fixed seed.
        assert_eq!(run_line(line).unwrap(), out);
    }

    #[test]
    fn serve_sim_chaos_kill_forces_the_oracle_fallback() {
        // Two replicas with a 2/2 quorum; killing one mid-stream makes the
        // quorum unreachable, so the remaining queries fall back to the
        // digital oracle — and still serve the right answer.
        let out = run_line(
            "serve-sim --metric hamming --store 0,0,0,0;3,3,3,3 \
             --queries 0,0,0,0;3,3,3,3;0,0,0,0 --replicas 2 --quorum 2/2 \
             --chaos kill=1@1,scrub=2 --seed 5",
        )
        .unwrap();
        assert!(out.contains("chaos: replica 1 killed"), "{out}");
        assert!(out.contains("maintenance scrub:"), "{out}");
        assert!(
            out.contains("query 1: nearest row 1 (distance 0.00) via oracle fallback"),
            "{out}"
        );
        assert!(out.contains("1/2 replicas alive"), "{out}");
    }

    #[test]
    fn serve_sim_quorum_outvotes_a_dead_replica() {
        // Replica 0 fully SA0-stuck conducts everywhere, so its matched
        // rows read as far; the two clean replicas outvote it and the
        // dissent escalates a targeted scrub.
        let out = run_line(
            "serve-sim --metric hamming --store 0,0,0,0;3,3,3,3 \
             --queries 0,0,0,0;3,3,3,3 --replicas 3 --quorum 3/2 \
             --faults sa0=1.0 --seed 9",
        )
        .unwrap();
        assert!(out.contains("query 0: nearest row 0"), "{out}");
        assert!(out.contains("query 1: nearest row 1"), "{out}");
        assert!(out.contains("0 oracle fallbacks"), "{out}");
    }

    #[test]
    fn serve_sim_open_loop_is_deterministic_and_reports_latency() {
        let line = "serve-sim --metric hamming --store 0,0,0,0;3,3,3,3 \
                    --queries 0,0,0,0;3,3,3,3;0,0,0,0 --replicas 2 --quorum 1/1 \
                    --open-loop 64 --tenants 2 --target-batch 4 --seed 5";
        let out = run_line(line).unwrap();
        assert!(out.contains("serving loop (open loop, 64 req/kilotick)"), "{out}");
        assert!(out.contains("3 requests over 2 tenant(s)"), "{out}");
        assert!(out.contains("req 0 (tenant 0): nearest row 0 via replica"), "{out}");
        assert!(out.contains("req 1 (tenant 1): nearest row 1 via replica"), "{out}");
        assert!(out.contains("served 3/3"), "{out}");
        assert!(out.contains("latency ticks: p50"), "{out}");
        assert!(out.contains("goodput:"), "{out}");
        // Byte-identical on replay: the virtual clock and the seeded
        // arrival stream leave nothing to wall time.
        assert_eq!(run_line(line).unwrap(), out);
    }

    #[test]
    fn serve_sim_churn_mutates_while_serving() {
        // A high churn rate against a long closed-loop stream guarantees
        // mutation events land mid-serve; the loop must keep serving and
        // report the wear summary.
        let line = "serve-sim --metric hamming --store 0,0,0,0;3,3,3,3 \
                    --queries 0,0,0,0;3,3,3,3;0,0,0,0;3,3,3,3;0,0,0,0;3,3,3,3 \
                    --replicas 2 --quorum 1/1 --closed-loop 1 --target-batch 1 \
                    --churn 1000 --seed 5";
        let out = run_line(line).unwrap();
        assert!(out.contains("served 6/6"), "{out}");
        assert!(out.contains("churn: "), "{out}");
        assert!(out.contains("mutations applied (0 rejected)"), "{out}");
        assert!(!out.contains("churn: 0 mutations"), "churn stream never fired: {out}");
        // Byte-identical on replay: churn draws ride the same virtual
        // clock and seeded streams as arrivals.
        assert_eq!(run_line(line).unwrap(), out);
    }

    #[test]
    fn serve_sim_closed_loop_respects_the_window() {
        let out = run_line(
            "serve-sim --metric manhattan --store 0,0;3,3;1,2 \
             --queries 0,0;3,3;1,2;0,1 --closed-loop 2 --target-batch 2 \
             --deadline 100 --seed 7",
        )
        .unwrap();
        assert!(out.contains("serving loop (closed loop, 2 in flight)"), "{out}");
        assert!(out.contains("served 4/4"), "{out}");
        // A window of 2 can never fill a batch past 2 requests.
        assert!(!out.contains("max batch 3"), "{out}");
        assert!(!out.contains("max batch 4"), "{out}");
    }

    #[test]
    fn serve_sim_load_mode_kill_forces_the_oracle_fallback() {
        let out = run_line(
            "serve-sim --metric hamming --store 0,0,0,0;3,3,3,3 \
             --queries 0,0,0,0;3,3,3,3;0,0,0,0 --replicas 2 --quorum 2/2 \
             --open-loop 64 --target-batch 4 --chaos kill=1@1 --seed 5",
        )
        .unwrap();
        assert!(out.contains("-- chaos: replica 1 killed at tick 1"), "{out}");
        // With one of two replicas dead, a 2-of-2 quorum is unreachable:
        // every request lands on the digital oracle, and still answers.
        assert!(out.contains("via oracle fallback"), "{out}");
        assert!(out.contains("nearest row 0"), "{out}");
        assert!(out.contains("nearest row 1"), "{out}");
        assert!(out.contains("served 3/3"), "{out}");
    }

    #[test]
    fn serve_sim_slow_replica_and_hedge_report_latency_telemetry() {
        let line = "serve-sim --metric hamming --store 0,0,0,0;3,3,3,3 \
                    --queries 0,0,0,0;3,3,3,3;0,0,0,0;3,3,3,3 --replicas 3 --quorum 2/1 \
                    --open-loop 64 --target-batch 4 --deadline 4096 --seed 5 \
                    --slow-replica 1@8000 --hedge quantile=950,budget=500";
        let out = run_line(line).unwrap();
        assert!(out.contains("served 4/4"), "{out}");
        assert!(out.contains("hedging:"), "{out}");
        assert!(out.contains("brownouts:"), "{out}");
        assert!(out.contains("replica 0 (healthy):"), "{out}");
        assert!(out.contains("replica 1 (slow@8000):"), "{out}");
        assert!(out.contains("replica 2 (healthy):"), "{out}");
        // The latency telemetry (EWMA, demerit, demotion and re-probe
        // lines included) is pinned byte for byte across builds.
        assert_eq!(out, include_str!("../fixtures/serve_sim_latency_telemetry.txt"));
        // Answers are bit-identical to the unhedged path: same nearest
        // rows with or without the latency machinery armed.
        let plain = run_line(
            "serve-sim --metric hamming --store 0,0,0,0;3,3,3,3 \
             --queries 0,0,0,0;3,3,3,3;0,0,0,0;3,3,3,3 --replicas 3 --quorum 2/1 \
             --open-loop 64 --target-batch 4 --deadline 4096 --seed 5",
        )
        .unwrap();
        let nearest = |s: &str| -> Vec<String> {
            s.lines()
                .filter(|l| l.contains("nearest row"))
                .map(|l| {
                    l.split("nearest row").nth(1).unwrap().split(' ').nth(1).unwrap().to_string()
                })
                .collect()
        };
        assert_eq!(nearest(&out), nearest(&plain), "hedging moved an answer:\n{out}\n{plain}");
    }

    #[test]
    fn errors_are_user_facing() {
        let err = run_line("encode --metric hamming --bits 9").unwrap_err();
        assert!(err.to_string().contains("--bits"));
        let err = run_line("search --metric hamming --store 0,4 --query 0,0").unwrap_err();
        assert!(err.to_string().contains("symbol"), "{err}");
    }
}
