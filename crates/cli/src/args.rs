//! Minimal dependency-free argument parsing for the `ferex` binary.

use ferex_core::DistanceMetric;
use ferex_fefet::FaultPlan;
use std::error::Error;
use std::fmt;

/// Which array backend a command simulates on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendKind {
    /// Exact functional model.
    Ideal,
    /// Statistical variation model.
    Noisy,
    /// Device-level model.
    Circuit,
}

/// How the serving-loop load mode generates arrivals.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoadMode {
    /// Open loop: seeded arrivals at the given expected rate per 1000
    /// virtual ticks, independent of service progress.
    Open {
        /// Expected arrivals per 1000 ticks.
        rate_milli: u64,
    },
    /// Closed loop: the given number of requests is kept in flight; each
    /// completion immediately submits the next one.
    Closed {
        /// Requests kept in flight.
        outstanding: usize,
    },
}

/// A parsed CLI invocation.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Run the encoding pipeline and print the result.
    Encode {
        /// Target metric.
        metric: DistanceMetric,
        /// Symbol bit width.
        bits: u32,
    },
    /// One associative search.
    Search {
        /// Target metric.
        metric: DistanceMetric,
        /// Symbol bit width.
        bits: u32,
        /// Stored vectors.
        stored: Vec<Vec<u32>>,
        /// Query vector.
        query: Vec<u32>,
        /// Simulation backend.
        backend: BackendKind,
        /// RNG seed for stochastic backends.
        seed: u64,
        /// Fault-injection plan for stochastic backends.
        faults: FaultPlan,
        /// Spare rows for self-healing (`0` disables write-verify/repair).
        spares: usize,
    },
    /// Fig. 7-style Monte-Carlo campaign.
    MonteCarlo {
        /// Number of runs.
        runs: usize,
        /// Distance of the true nearest vector.
        near: usize,
        /// Distance of the competitors.
        far: usize,
        /// Simulation backend.
        backend: BackendKind,
        /// Fault-injection plan for stochastic backends.
        faults: FaultPlan,
    },
    /// Replicated degraded-mode serving soak over a query stream.
    ServeSim {
        /// Target metric.
        metric: DistanceMetric,
        /// Symbol bit width.
        bits: u32,
        /// Stored vectors (shared by every replica).
        stored: Vec<Vec<u32>>,
        /// Query stream, served in order.
        queries: Vec<Vec<u32>>,
        /// Simulation backend.
        backend: BackendKind,
        /// RNG seed; replica seeds derive from it.
        seed: u64,
        /// Fault plan injected into replica 0 (the others stay clean).
        faults: FaultPlan,
        /// Spare rows per replica (`0` disables write-verify/repair).
        spares: usize,
        /// Replica count.
        replicas: usize,
        /// Quorum reads per query.
        reads: usize,
        /// Quorum agreement threshold.
        agree: usize,
        /// Chaos kill schedule: `(replica, query index)` — or `(replica,
        /// virtual tick)` when a load mode is active.
        kill: Option<(usize, usize)>,
        /// Scheduled scrub period in queries (ticks under a load mode);
        /// 0 disables.
        scrub_every: usize,
        /// Serving-loop load mode; `None` serves the stream sequentially.
        load: Option<LoadMode>,
        /// Tenant count of the serving loop (load mode only).
        tenants: usize,
        /// Batch former's target size (load mode only).
        target_batch: usize,
        /// Per-request deadline in virtual ticks (load mode only).
        deadline: u64,
        /// Per-replica slowdown plan `(replica, factor_milli)`; arms
        /// seeded latency models on every replica (load mode only).
        slow_replicas: Vec<(usize, u64)>,
        /// Hedge policy `(quantile_milli, budget_milli)`; `None` leaves
        /// hedging off (load mode only).
        hedge: Option<(u64, u64)>,
        /// Online-churn rate in mutations per 1000 ticks (load mode
        /// only); each seeded churn event updates one stored id through
        /// the serving loop mid-stream. 0 disables.
        churn: u64,
    },
    /// One-point kernel micro-benchmark: one batched distance read against
    /// a loop of one-query reads it must reproduce bit-identically.
    BenchKernels {
        /// Target metric.
        metric: DistanceMetric,
        /// Symbol bit width.
        bits: u32,
        /// Stored rows (random, seeded).
        rows: usize,
        /// Symbols per row.
        dim: usize,
        /// Queries per batch.
        batch: usize,
        /// Simulation backend.
        backend: BackendKind,
        /// RNG seed for fixtures and stochastic backends.
        seed: u64,
    },
    /// Co-simulate an encoding on the device-level array.
    Verify {
        /// Target metric.
        metric: DistanceMetric,
        /// Symbol bit width.
        bits: u32,
    },
    /// Print the technology card.
    Info,
    /// Print usage.
    Help,
}

/// Argument-parsing failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseArgsError(pub String);

impl fmt::Display for ParseArgsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl Error for ParseArgsError {}

fn err(msg: impl Into<String>) -> ParseArgsError {
    ParseArgsError(msg.into())
}

fn parse_metric(s: &str) -> Result<DistanceMetric, ParseArgsError> {
    match s.to_ascii_lowercase().as_str() {
        "hamming" | "hd" => Ok(DistanceMetric::Hamming),
        "manhattan" | "l1" => Ok(DistanceMetric::Manhattan),
        "euclidean" | "l2" | "euclidean2" => Ok(DistanceMetric::EuclideanSquared),
        other => Err(err(format!("unknown metric '{other}' (hamming|manhattan|euclidean)"))),
    }
}

fn parse_backend(s: &str) -> Result<BackendKind, ParseArgsError> {
    match s.to_ascii_lowercase().as_str() {
        "ideal" => Ok(BackendKind::Ideal),
        "noisy" => Ok(BackendKind::Noisy),
        "circuit" => Ok(BackendKind::Circuit),
        other => Err(err(format!("unknown backend '{other}' (ideal|noisy|circuit)"))),
    }
}

/// Parses one vector given as comma-separated symbol values.
fn parse_vector(s: &str) -> Result<Vec<u32>, ParseArgsError> {
    s.split(',')
        .map(|tok| {
            tok.trim()
                .parse::<u32>()
                .map_err(|_| err(format!("invalid symbol '{tok}' in vector '{s}'")))
        })
        .collect()
}

/// Parses semicolon-separated vectors.
fn parse_vectors(s: &str) -> Result<Vec<Vec<u32>>, ParseArgsError> {
    s.split(';').map(parse_vector).collect()
}

/// Parses a fault-plan spec: comma-separated `key=value` pairs over
/// `sa0|sa1|open|short` (per-cell rates in \[0,1\]), `short_r` (residual
/// resistance fraction), `retention_s` (seconds) and `cycles` (program
/// cycles). Unmentioned knobs keep their benign defaults, so `--faults
/// "sa1=0.05"` injects exactly one fault class.
fn parse_fault_plan(s: &str) -> Result<FaultPlan, ParseArgsError> {
    let mut plan = FaultPlan::none();
    let mut seen: Vec<&str> = Vec::new();
    for pair in s.split(',').map(str::trim).filter(|p| !p.is_empty()) {
        let (key, value) = pair
            .split_once('=')
            .ok_or_else(|| err(format!("fault spec '{pair}' is not key=value")))?;
        let key = key.trim();
        if seen.contains(&key) {
            return Err(err(format!(
                "duplicate fault knob '{key}' — each knob may appear at most once"
            )));
        }
        let v: f64 = value
            .trim()
            .parse()
            .map_err(|_| err(format!("invalid fault value '{value}' for '{key}'")))?;
        if !v.is_finite() || v < 0.0 {
            return Err(err(format!("fault value for '{key}' must be finite and >= 0")));
        }
        let rate = |v: f64| -> Result<f64, ParseArgsError> {
            if v <= 1.0 {
                Ok(v)
            } else {
                Err(err(format!("fault rate '{key}' must be within [0,1]")))
            }
        };
        match key {
            "sa0" => plan.sa0_rate = rate(v)?,
            "sa1" => plan.sa1_rate = rate(v)?,
            "open" => plan.open_rate = rate(v)?,
            "short" => plan.short_rate = rate(v)?,
            "short_r" => plan.short_residual_r = v,
            "retention_s" => plan.retention_seconds = v,
            "cycles" => plan.endurance_cycles = v,
            other => {
                return Err(err(format!(
                    "unknown fault knob '{other}' \
                     (sa0|sa1|open|short|short_r|retention_s|cycles)"
                )))
            }
        }
        seen.push(key);
    }
    Ok(plan)
}

/// Parses a quorum spec `READS/AGREE`, e.g. `2/2`. Structural only; the
/// replica-count cross-check happens once `--replicas` is known.
fn parse_quorum(s: &str) -> Result<(usize, usize), ParseArgsError> {
    let (reads, agree) = s
        .split_once('/')
        .ok_or_else(|| err(format!("quorum spec '{s}' is not READS/AGREE (e.g. 2/2)")))?;
    let reads: usize = reads
        .trim()
        .parse()
        .map_err(|_| err(format!("invalid quorum reads '{reads}' in '{s}'")))?;
    let agree: usize = agree
        .trim()
        .parse()
        .map_err(|_| err(format!("invalid quorum agreement '{agree}' in '{s}'")))?;
    if reads == 0 || agree == 0 {
        return Err(err(format!("quorum '{s}' must have reads and agreement >= 1")));
    }
    if agree > reads {
        return Err(err(format!("quorum agree ({agree}) exceeds reads ({reads})")));
    }
    Ok((reads, agree))
}

/// Parses a chaos schedule: comma-separated `key=value` pairs over
/// `kill` (`REPLICA@QUERY`, fire once mid-stream) and `scrub` (period in
/// queries). Unmentioned knobs stay off, mirroring the fault-spec grammar.
fn parse_chaos_plan(s: &str) -> Result<(Option<(usize, usize)>, usize), ParseArgsError> {
    let mut kill = None;
    let mut scrub_every = 0usize;
    let mut seen: Vec<&str> = Vec::new();
    for pair in s.split(',').map(str::trim).filter(|p| !p.is_empty()) {
        let (key, value) = pair
            .split_once('=')
            .ok_or_else(|| err(format!("chaos spec '{pair}' is not key=value")))?;
        let key = key.trim();
        if seen.contains(&key) {
            return Err(err(format!(
                "duplicate chaos knob '{key}' — each knob may appear at most once"
            )));
        }
        let value = value.trim();
        match key {
            "kill" => {
                let (replica, at) = value.split_once('@').ok_or_else(|| {
                    err(format!("chaos kill '{value}' is not REPLICA@QUERY (e.g. 1@8)"))
                })?;
                let replica: usize = replica
                    .trim()
                    .parse()
                    .map_err(|_| err(format!("invalid kill replica '{replica}' in '{value}'")))?;
                let at: usize = at
                    .trim()
                    .parse()
                    .map_err(|_| err(format!("invalid kill query index '{at}' in '{value}'")))?;
                kill = Some((replica, at));
            }
            "scrub" => {
                scrub_every =
                    value.parse().map_err(|_| err(format!("invalid scrub period '{value}'")))?;
            }
            other => return Err(err(format!("unknown chaos knob '{other}' (kill|scrub)"))),
        }
        seen.push(key);
    }
    Ok((kill, scrub_every))
}

/// Parses a slow-replica plan: comma-separated `REPLICA@FACTOR` entries
/// where `FACTOR` is a per-mille slowdown multiplier (`8000` = 8x). A
/// replica may appear at most once; factors below 1000 (1x) would model a
/// speed-up and are rejected. Range-checking against the replica count
/// happens at the command level, where `--replicas` is known.
fn parse_slow_replicas(s: &str) -> Result<Vec<(usize, u64)>, ParseArgsError> {
    let mut plan: Vec<(usize, u64)> = Vec::new();
    for entry in s.split(',').map(str::trim).filter(|p| !p.is_empty()) {
        let (replica, factor) = entry.split_once('@').ok_or_else(|| {
            err(format!("slow-replica spec '{entry}' is not REPLICA@FACTOR (e.g. 1@8000)"))
        })?;
        let replica: usize = replica
            .trim()
            .parse()
            .map_err(|_| err(format!("invalid slow replica '{replica}' in '{entry}'")))?;
        let factor: u64 = factor
            .trim()
            .parse()
            .map_err(|_| err(format!("invalid slowdown factor '{factor}' in '{entry}'")))?;
        if factor < 1000 {
            return Err(err(format!(
                "slowdown factor {factor} is below 1000 (1x) — slow replicas only slow down"
            )));
        }
        if plan.iter().any(|&(r, _)| r == replica) {
            return Err(err(format!(
                "duplicate slow replica {replica} — each replica may appear at most once"
            )));
        }
        plan.push((replica, factor));
    }
    if plan.is_empty() {
        return Err(err("slow-replica plan is empty (expected REPLICA@FACTOR, e.g. 1@8000)"));
    }
    Ok(plan)
}

/// Parses a hedge policy: comma-separated `key=value` pairs over
/// `quantile` (per-mille deadline quantile, 50..=999) and `budget`
/// (per-mille hedges per served batch, 1..=1000). Unmentioned knobs take
/// the serving-loop defaults (quantile 950, budget 250).
fn parse_hedge(s: &str) -> Result<(u64, u64), ParseArgsError> {
    let mut quantile = 950u64;
    let mut budget = 250u64;
    let mut seen: Vec<&str> = Vec::new();
    for pair in s.split(',').map(str::trim).filter(|p| !p.is_empty()) {
        let (key, value) = pair
            .split_once('=')
            .ok_or_else(|| err(format!("hedge spec '{pair}' is not key=value")))?;
        let key = key.trim();
        if seen.contains(&key) {
            return Err(err(format!(
                "duplicate hedge knob '{key}' — each knob may appear at most once"
            )));
        }
        let value = value.trim();
        match key {
            "quantile" => {
                quantile =
                    value.parse().map_err(|_| err(format!("invalid hedge quantile '{value}'")))?;
                if !(50..=999).contains(&quantile) {
                    return Err(err(format!(
                        "hedge quantile {quantile} outside 50..=999 per-mille"
                    )));
                }
            }
            "budget" => {
                budget =
                    value.parse().map_err(|_| err(format!("invalid hedge budget '{value}'")))?;
                if !(1..=1000).contains(&budget) {
                    return Err(err(format!("hedge budget {budget} outside 1..=1000 per-mille")));
                }
            }
            other => return Err(err(format!("unknown hedge knob '{other}' (quantile|budget)"))),
        }
        seen.push(key);
    }
    Ok((quantile, budget))
}

struct Flags<'a> {
    pairs: Vec<(&'a str, &'a str)>,
}

impl<'a> Flags<'a> {
    fn new(args: &'a [String]) -> Result<Self, ParseArgsError> {
        let mut pairs = Vec::new();
        let mut i = 0;
        while i < args.len() {
            let flag = args[i].as_str();
            if !flag.starts_with("--") {
                return Err(err(format!("expected a --flag, found '{flag}'")));
            }
            let value = args
                .get(i + 1)
                .ok_or_else(|| err(format!("flag '{flag}' is missing its value")))?;
            pairs.push((&flag[2..], value.as_str()));
            i += 2;
        }
        Ok(Flags { pairs })
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.pairs.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }

    fn require(&self, name: &str) -> Result<&str, ParseArgsError> {
        self.get(name).ok_or_else(|| err(format!("missing required flag --{name}")))
    }

    fn ensure_known(&self, known: &[&str]) -> Result<(), ParseArgsError> {
        for (name, _) in &self.pairs {
            if !known.contains(name) {
                return Err(err(format!("unknown flag --{name}")));
            }
        }
        Ok(())
    }
}

/// Parses a full argument list (excluding the program name).
///
/// # Errors
///
/// [`ParseArgsError`] with a user-facing message on any malformed input.
pub fn parse(args: &[String]) -> Result<Command, ParseArgsError> {
    let Some(sub) = args.first() else {
        return Ok(Command::Help);
    };
    let rest = &args[1..];
    match sub.as_str() {
        "help" | "--help" | "-h" => Ok(Command::Help),
        "info" => {
            if rest.is_empty() {
                Ok(Command::Info)
            } else {
                Err(err("'info' takes no arguments"))
            }
        }
        "verify" => {
            let flags = Flags::new(rest)?;
            flags.ensure_known(&["metric", "bits"])?;
            let metric = parse_metric(flags.require("metric")?)?;
            let bits = flags
                .get("bits")
                .map(|b| b.parse::<u32>().map_err(|_| err("invalid --bits")))
                .transpose()?
                .unwrap_or(2);
            Ok(Command::Verify { metric, bits })
        }
        "encode" => {
            let flags = Flags::new(rest)?;
            flags.ensure_known(&["metric", "bits"])?;
            let metric = parse_metric(flags.require("metric")?)?;
            let bits = flags
                .get("bits")
                .map(|b| b.parse::<u32>().map_err(|_| err("invalid --bits")))
                .transpose()?
                .unwrap_or(2);
            Ok(Command::Encode { metric, bits })
        }
        "search" => {
            let flags = Flags::new(rest)?;
            flags.ensure_known(&[
                "metric", "bits", "store", "query", "backend", "seed", "faults", "spares",
            ])?;
            let metric = parse_metric(flags.require("metric")?)?;
            let bits = flags
                .get("bits")
                .map(|b| b.parse::<u32>().map_err(|_| err("invalid --bits")))
                .transpose()?
                .unwrap_or(2);
            let stored = parse_vectors(flags.require("store")?)?;
            let query = parse_vector(flags.require("query")?)?;
            let backend =
                flags.get("backend").map(parse_backend).transpose()?.unwrap_or(BackendKind::Ideal);
            let seed = flags
                .get("seed")
                .map(|s| s.parse::<u64>().map_err(|_| err("invalid --seed")))
                .transpose()?
                .unwrap_or(0);
            let faults =
                flags.get("faults").map(parse_fault_plan).transpose()?.unwrap_or(FaultPlan::none());
            let spares = flags
                .get("spares")
                .map(|s| s.parse::<usize>().map_err(|_| err("invalid --spares")))
                .transpose()?
                .unwrap_or(0);
            Ok(Command::Search { metric, bits, stored, query, backend, seed, faults, spares })
        }
        "serve-sim" => {
            let flags = Flags::new(rest)?;
            flags.ensure_known(&[
                "metric",
                "bits",
                "store",
                "queries",
                "backend",
                "seed",
                "faults",
                "spares",
                "replicas",
                "quorum",
                "chaos",
                "open-loop",
                "closed-loop",
                "tenants",
                "target-batch",
                "deadline",
                "slow-replica",
                "hedge",
                "churn",
            ])?;
            let metric = parse_metric(flags.require("metric")?)?;
            let bits = flags
                .get("bits")
                .map(|b| b.parse::<u32>().map_err(|_| err("invalid --bits")))
                .transpose()?
                .unwrap_or(2);
            let stored = parse_vectors(flags.require("store")?)?;
            let queries = parse_vectors(flags.require("queries")?)?;
            let backend =
                flags.get("backend").map(parse_backend).transpose()?.unwrap_or(BackendKind::Noisy);
            let seed = flags
                .get("seed")
                .map(|s| s.parse::<u64>().map_err(|_| err("invalid --seed")))
                .transpose()?
                .unwrap_or(0);
            let faults =
                flags.get("faults").map(parse_fault_plan).transpose()?.unwrap_or(FaultPlan::none());
            let spares = flags
                .get("spares")
                .map(|s| s.parse::<usize>().map_err(|_| err("invalid --spares")))
                .transpose()?
                .unwrap_or(0);
            let replicas = flags
                .get("replicas")
                .map(|s| s.parse::<usize>().map_err(|_| err("invalid --replicas")))
                .transpose()?
                .unwrap_or(3);
            if replicas == 0 {
                return Err(err("--replicas must be >= 1"));
            }
            let (reads, agree) =
                flags.get("quorum").map(parse_quorum).transpose()?.unwrap_or((1, 1));
            if reads > replicas {
                return Err(err(format!(
                    "quorum reads ({reads}) exceeds replica count ({replicas})"
                )));
            }
            let (kill, scrub_every) =
                flags.get("chaos").map(parse_chaos_plan).transpose()?.unwrap_or((None, 0));
            if let Some((k, _)) = kill {
                if k >= replicas {
                    return Err(err(format!(
                        "chaos kill replica ({k}) is out of range for {replicas} replicas"
                    )));
                }
            }
            let open = flags
                .get("open-loop")
                .map(|s| s.parse::<u64>().map_err(|_| err("invalid --open-loop rate")))
                .transpose()?;
            let closed = flags
                .get("closed-loop")
                .map(|s| s.parse::<usize>().map_err(|_| err("invalid --closed-loop window")))
                .transpose()?;
            let load = match (open, closed) {
                (Some(_), Some(_)) => {
                    return Err(err("--open-loop and --closed-loop are mutually exclusive"));
                }
                (Some(0), None) => return Err(err("--open-loop rate must be >= 1")),
                (None, Some(0)) => return Err(err("--closed-loop window must be >= 1")),
                (Some(rate_milli), None) => Some(LoadMode::Open { rate_milli }),
                (None, Some(outstanding)) => Some(LoadMode::Closed { outstanding }),
                (None, None) => None,
            };
            let load_knob = |name: &str, default: u64| -> Result<u64, ParseArgsError> {
                let Some(v) = flags.get(name) else { return Ok(default) };
                if load.is_none() {
                    return Err(err(format!(
                        "--{name} requires a load mode (--open-loop or --closed-loop)"
                    )));
                }
                let v = v.parse::<u64>().map_err(|_| err(format!("invalid --{name}")))?;
                if v == 0 {
                    return Err(err(format!("--{name} must be >= 1")));
                }
                Ok(v)
            };
            let tenants = load_knob("tenants", 1)? as usize;
            let target_batch = load_knob("target-batch", 16)? as usize;
            let deadline = load_knob("deadline", 512)?;
            let require_load = |name: &str| -> Result<(), ParseArgsError> {
                if load.is_none() {
                    return Err(err(format!(
                        "--{name} requires a load mode (--open-loop or --closed-loop)"
                    )));
                }
                Ok(())
            };
            let slow_replicas = match flags.get("slow-replica") {
                Some(s) => {
                    require_load("slow-replica")?;
                    let plan = parse_slow_replicas(s)?;
                    if let Some(&(r, _)) = plan.iter().find(|&&(r, _)| r >= replicas) {
                        return Err(err(format!(
                            "slow replica ({r}) is out of range for {replicas} replicas"
                        )));
                    }
                    plan
                }
                None => Vec::new(),
            };
            let hedge = match flags.get("hedge") {
                Some(s) => {
                    require_load("hedge")?;
                    Some(parse_hedge(s)?)
                }
                None => None,
            };
            let churn = match flags.get("churn") {
                Some(s) => {
                    require_load("churn")?;
                    let v = s.parse::<u64>().map_err(|_| err("invalid --churn rate"))?;
                    if v == 0 || v > 1000 {
                        return Err(err("--churn rate must be in 1..=1000 per 1000 ticks"));
                    }
                    v
                }
                None => 0,
            };
            Ok(Command::ServeSim {
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
            })
        }
        "bench-kernels" => {
            let flags = Flags::new(rest)?;
            flags.ensure_known(&["metric", "bits", "rows", "dim", "batch", "backend", "seed"])?;
            let metric = flags
                .get("metric")
                .map(parse_metric)
                .transpose()?
                .unwrap_or(DistanceMetric::Hamming);
            let bits = flags
                .get("bits")
                .map(|b| b.parse::<u32>().map_err(|_| err("invalid --bits")))
                .transpose()?
                .unwrap_or(2);
            let parse_usize = |name: &str, default: usize| -> Result<usize, ParseArgsError> {
                flags
                    .get(name)
                    .map(|v| v.parse::<usize>().map_err(|_| err(format!("invalid --{name}"))))
                    .transpose()
                    .map(|o| o.unwrap_or(default))
            };
            let rows = parse_usize("rows", 1_000)?;
            let dim = parse_usize("dim", 64)?;
            let batch = parse_usize("batch", 64)?;
            if rows == 0 || dim == 0 || batch == 0 {
                return Err(err("--rows, --dim and --batch must be >= 1"));
            }
            let backend =
                flags.get("backend").map(parse_backend).transpose()?.unwrap_or(BackendKind::Ideal);
            let seed = flags
                .get("seed")
                .map(|s| s.parse::<u64>().map_err(|_| err("invalid --seed")))
                .transpose()?
                .unwrap_or(42);
            Ok(Command::BenchKernels { metric, bits, rows, dim, batch, backend, seed })
        }
        "montecarlo" | "mc" => {
            let flags = Flags::new(rest)?;
            flags.ensure_known(&["runs", "near", "far", "backend", "faults"])?;
            let parse_usize = |name: &str, default: usize| -> Result<usize, ParseArgsError> {
                flags
                    .get(name)
                    .map(|v| v.parse::<usize>().map_err(|_| err(format!("invalid --{name}"))))
                    .transpose()
                    .map(|o| o.unwrap_or(default))
            };
            let runs = parse_usize("runs", 100)?;
            let near = parse_usize("near", 5)?;
            let far = parse_usize("far", 6)?;
            let backend =
                flags.get("backend").map(parse_backend).transpose()?.unwrap_or(BackendKind::Noisy);
            if near >= far {
                return Err(err("--near must be smaller than --far"));
            }
            let faults =
                flags.get("faults").map(parse_fault_plan).transpose()?.unwrap_or(FaultPlan::none());
            Ok(Command::MonteCarlo { runs, near, far, backend, faults })
        }
        other => Err(err(format!("unknown subcommand '{other}' (try 'ferex help')"))),
    }
}

/// The usage text printed by `ferex help`.
pub const USAGE: &str = "\
ferex — reconfigurable ferroelectric compute-in-memory simulator

USAGE:
  ferex encode --metric <hamming|manhattan|euclidean> [--bits N]
  ferex search --metric <m> --store \"0,1,2;3,2,1\" --query \"0,1,2\"
               [--bits N] [--backend ideal|noisy|circuit] [--seed N]
               [--faults SPEC] [--spares N]
  ferex serve-sim --metric <m> --store \"0,1;3,2\" --queries \"0,1;3,2\"
               [--bits N] [--backend noisy|circuit] [--seed N]
               [--replicas N] [--quorum R/A] [--faults SPEC] [--spares N]
               [--chaos \"kill=REPLICA@QUERY,scrub=PERIOD\"]
               [--open-loop RATE | --closed-loop W] [--tenants N]
               [--target-batch N] [--deadline TICKS] [--churn RATE]
  ferex verify --metric <m> [--bits N]
  ferex montecarlo [--runs N] [--near D] [--far D]
               [--backend noisy|circuit] [--faults SPEC]
  ferex bench-kernels [--metric <m>] [--bits N] [--rows N] [--dim N]
               [--batch N] [--backend ideal|noisy|circuit] [--seed N]
  ferex info
  ferex help

FAULT SPEC (stochastic backends; unmentioned knobs stay benign):
  comma-separated key=value over sa0|sa1|open|short (per-cell rates),
  short_r (residual resistance fraction), retention_s (seconds),
  cycles (program/erase cycles), e.g. \"sa1=0.02,open=0.01,cycles=1e7\"
  Each knob may appear at most once; rates must lie in [0,1].

SELF-HEALING (--spares N, stochastic backends):
  reserves N spare rows, write-verifies every cell after programming,
  re-pulses stragglers with bounded retries, and remaps rows that fail
  verify onto spares; prints the repair report next to the result.

REPLICATED SERVING (serve-sim):
  builds N replicas (replica 0 carries --faults, the rest stay clean),
  serves the --queries stream through quorum reads (--quorum R/A needs
  A of R sampled replicas to agree; disagreement escalates a targeted
  scrub and unmet quorum falls back to the digital oracle), and prints
  one line per query plus the supervisor's counters. --chaos schedules
  a mid-stream replica kill (kill=REPLICA@QUERY) and periodic
  maintenance scrubs (scrub=PERIOD).

SERVING LOOP (serve-sim with --open-loop RATE or --closed-loop W):
  instead of serving the stream sequentially, drives the deterministic
  async serving loop on a virtual tick clock: --open-loop submits the
  --queries list at an expected RATE requests per 1000 ticks (seeded,
  replayable), --closed-loop keeps W requests in flight. Requests spread
  round-robin across --tenants (deficit-round-robin fairness), batches
  close at --target-batch or when the oldest deadline's slack runs out,
  and requests that cannot meet --deadline ticks are shed, never served
  late. Under a load mode the chaos kill fires at a virtual TICK instead
  of a query index, and scrub=PERIOD runs every PERIOD ticks. Prints one
  line per completion plus exact p50/p99/p999 latency and goodput.
  --slow-replica R@FACTOR arms seeded per-replica latency models with
  replica R slowed FACTOR per-mille (8000 = 8x; comma-separate for more,
  each replica at most once). --hedge quantile=P,budget=B issues a
  duplicate read when the slow read slot exceeds the P per-mille latency
  quantile, spending at most B per-mille hedges per batch; hedged answers
  stay bit-identical to the unhedged path. Both need a load mode, and a
  per-replica latency/hedge summary joins the printout.
  --churn RATE applies seeded online mutations (in-place updates of
  stored ids) at an expected RATE per 1000 ticks through the serving
  loop while it keeps serving; mutated replicas stay in lockstep and
  the summary reports the mutation count and final wear imbalance.

KERNEL BENCH (bench-kernels):
  fills a seeded random array, serves one query batch in one read and
  as one-query reads (the \"1-query\" line), checks them bit-identical,
  and prints both timings with the kernel the batch dispatched to. The
  \"search\" line times the sensed read of the batch, query ids 0..N: on
  ideal the kernel senses, and its nearest rows are checked against the
  first least distances; noisy and circuit sense through the LTA.
  Each timing is the median of about 50 ms of individually timed repeats.
  Circuit re-solves the crossbar per query, so keep --rows small on
  that backend.

EXAMPLES:
  ferex encode --metric hamming
  ferex search --metric manhattan --store \"0,0;3,3\" --query \"1,0\"
  ferex search --metric hd --store \"0,0;3,3\" --query \"1,0\" \\
               --backend noisy --faults \"sa1=0.05,short=0.01\"
  ferex montecarlo --runs 200 --backend circuit --faults \"open=0.02\"
  ferex serve-sim --metric hd --store \"0,0;3,3\" --queries \"0,0;3,3;0,0\" \\
               --replicas 3 --quorum 2/2 --faults \"sa0=0.1\" \\
               --chaos \"kill=1@1,scrub=2\"
  ferex serve-sim --metric hd --store \"0,0;3,3\" --queries \"0,0;3,3;0,0\" \\
               --open-loop 64 --tenants 2 --target-batch 4 --deadline 512
  ferex serve-sim --metric hd --store \"0,0;3,3\" --queries \"0,0;3,3;0,0\" \\
               --open-loop 64 --replicas 3 --quorum 2/1 \\
               --slow-replica 1@8000 --hedge quantile=950,budget=500
";

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_encode() {
        let cmd = parse(&argv("encode --metric hamming --bits 2")).unwrap();
        assert_eq!(cmd, Command::Encode { metric: DistanceMetric::Hamming, bits: 2 });
        // Default bits.
        let cmd = parse(&argv("encode --metric l1")).unwrap();
        assert_eq!(cmd, Command::Encode { metric: DistanceMetric::Manhattan, bits: 2 });
    }

    #[test]
    fn parses_search_with_vectors() {
        let cmd = parse(&argv(
            "search --metric euclidean --store 0,1;2,3 --query 1,1 --backend noisy --seed 7",
        ))
        .unwrap();
        match cmd {
            Command::Search { metric, stored, query, backend, seed, bits, faults, spares } => {
                assert_eq!(metric, DistanceMetric::EuclideanSquared);
                assert_eq!(stored, vec![vec![0, 1], vec![2, 3]]);
                assert_eq!(query, vec![1, 1]);
                assert_eq!(backend, BackendKind::Noisy);
                assert_eq!(seed, 7);
                assert_eq!(bits, 2);
                assert!(faults.is_benign());
                assert_eq!(spares, 0, "self-healing is opt-in");
            }
            other => panic!("wrong command {other:?}"),
        }
    }

    #[test]
    fn parses_spares_flag() {
        let cmd =
            parse(&argv("search --metric hd --store 0,1 --query 0,1 --backend noisy --spares 4"))
                .unwrap();
        let Command::Search { spares, .. } = cmd else { panic!("wrong command") };
        assert_eq!(spares, 4);
        assert!(parse(&argv("search --metric hd --store 0,1 --query 0,1 --spares x")).is_err());
    }

    #[test]
    fn parses_montecarlo_defaults() {
        let cmd = parse(&argv("montecarlo")).unwrap();
        assert_eq!(
            cmd,
            Command::MonteCarlo {
                runs: 100,
                near: 5,
                far: 6,
                backend: BackendKind::Noisy,
                faults: FaultPlan::none()
            }
        );
        let cmd = parse(&argv("mc --runs 10 --near 3 --far 9 --backend circuit")).unwrap();
        assert_eq!(
            cmd,
            Command::MonteCarlo {
                runs: 10,
                near: 3,
                far: 9,
                backend: BackendKind::Circuit,
                faults: FaultPlan::none()
            }
        );
    }

    #[test]
    fn parses_bench_kernels() {
        let cmd = parse(&argv("bench-kernels")).unwrap();
        assert_eq!(
            cmd,
            Command::BenchKernels {
                metric: DistanceMetric::Hamming,
                bits: 2,
                rows: 1_000,
                dim: 64,
                batch: 64,
                backend: BackendKind::Ideal,
                seed: 42,
            }
        );
        let cmd = parse(&argv(
            "bench-kernels --metric l1 --rows 200 --dim 16 --batch 8 --backend noisy --seed 7",
        ))
        .unwrap();
        assert_eq!(
            cmd,
            Command::BenchKernels {
                metric: DistanceMetric::Manhattan,
                bits: 2,
                rows: 200,
                dim: 16,
                batch: 8,
                backend: BackendKind::Noisy,
                seed: 7,
            }
        );
        assert!(parse(&argv("bench-kernels --rows 0")).is_err());
        assert!(parse(&argv("bench-kernels --bogus 1")).is_err());
    }

    #[test]
    fn parses_fault_specs() {
        let cmd = parse(&argv(
            "search --metric hd --store 0,1 --query 0,1 --backend noisy \
             --faults sa0=0.01,sa1=0.02,open=0.005,short=0.03,short_r=0.2,retention_s=1e7,cycles=1e6",
        ))
        .unwrap();
        let Command::Search { faults, .. } = cmd else { panic!("wrong command") };
        assert_eq!(faults.sa0_rate, 0.01);
        assert_eq!(faults.sa1_rate, 0.02);
        assert_eq!(faults.open_rate, 0.005);
        assert_eq!(faults.short_rate, 0.03);
        assert_eq!(faults.short_residual_r, 0.2);
        assert_eq!(faults.retention_seconds, 1e7);
        assert_eq!(faults.endurance_cycles, 1e6);
        // Partial specs leave the rest benign.
        let cmd = parse(&argv("mc --faults sa1=0.05")).unwrap();
        let Command::MonteCarlo { faults, .. } = cmd else { panic!("wrong command") };
        assert_eq!(faults.sa1_rate, 0.05);
        assert_eq!(faults.sa0_rate, 0.0);
        assert!(faults.has_hard_faults());
    }

    #[test]
    fn rejects_malformed_fault_specs() {
        for spec in [
            "sa1",
            "sa1=x",
            "sa1=1.5",
            "sa1=-0.1",
            "bogus=0.1",
            "sa1=inf",
            "sa1=0.1,sa1=0.2",
            "short_r=0.5,short_r=0.5",
        ] {
            let line = format!("mc --faults {spec}");
            assert!(parse(&argv(&line)).is_err(), "spec '{spec}' should be rejected");
        }
        // A duplicate knob names itself instead of silently overwriting.
        let e = parse(&argv("mc --faults sa1=0.1,sa1=0.2")).unwrap_err();
        assert!(e.to_string().contains("duplicate fault knob 'sa1'"), "got: {e}");
    }

    #[test]
    fn help_and_info() {
        assert_eq!(parse(&[]).unwrap(), Command::Help);
        assert_eq!(parse(&argv("help")).unwrap(), Command::Help);
        assert_eq!(parse(&argv("info")).unwrap(), Command::Info);
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(parse(&argv("bogus")).is_err());
        assert!(parse(&argv("encode")).is_err()); // missing --metric
        assert!(parse(&argv("encode --metric fancy")).is_err());
        assert!(parse(&argv("search --metric hd --store 0,x --query 0")).is_err());
        assert!(parse(&argv("montecarlo --near 6 --far 6")).is_err());
        assert!(parse(&argv("encode --metric")).is_err()); // dangling flag
        assert!(parse(&argv("encode --metric hd --bogus 1")).is_err());
        assert!(parse(&argv("info extra")).is_err());
    }

    #[test]
    fn usage_mentions_every_subcommand() {
        for sub in [
            "encode",
            "search",
            "serve-sim",
            "verify",
            "montecarlo",
            "bench-kernels",
            "info",
            "help",
        ] {
            assert!(USAGE.contains(sub), "usage missing {sub}");
        }
    }

    #[test]
    fn parses_serve_sim_with_quorum_and_chaos() {
        let cmd = parse(&argv(
            "serve-sim --metric hd --store 0,0;3,3 --queries 0,0;3,3 --replicas 3 \
             --quorum 2/2 --faults sa0=0.1 --chaos kill=1@1,scrub=2 --seed 7 --spares 2",
        ))
        .unwrap();
        match cmd {
            Command::ServeSim {
                metric,
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
                ..
            } => {
                assert_eq!(metric, DistanceMetric::Hamming);
                assert_eq!(stored, vec![vec![0, 0], vec![3, 3]]);
                assert_eq!(queries.len(), 2);
                assert_eq!(backend, BackendKind::Noisy, "stochastic default");
                assert_eq!(seed, 7);
                assert_eq!(faults.sa0_rate, 0.1);
                assert_eq!(spares, 2);
                assert_eq!((replicas, reads, agree), (3, 2, 2));
                assert_eq!(kill, Some((1, 1)));
                assert_eq!(scrub_every, 2);
            }
            other => panic!("wrong command {other:?}"),
        }
    }

    #[test]
    fn serve_sim_defaults_are_single_read_no_chaos() {
        let cmd = parse(&argv("serve-sim --metric l1 --store 0,1 --queries 0,1")).unwrap();
        let Command::ServeSim { replicas, reads, agree, kill, scrub_every, .. } = cmd else {
            panic!("wrong command")
        };
        assert_eq!((replicas, reads, agree), (3, 1, 1));
        assert_eq!(kill, None);
        assert_eq!(scrub_every, 0);
    }

    #[test]
    fn parses_serve_sim_load_modes() {
        let cmd = parse(&argv(
            "serve-sim --metric hd --store 0,0;3,3 --queries 0,0;3,3 \
             --open-loop 64 --tenants 4 --target-batch 8 --deadline 256",
        ))
        .unwrap();
        let Command::ServeSim { load, tenants, target_batch, deadline, .. } = cmd else {
            panic!("wrong command")
        };
        assert_eq!(load, Some(LoadMode::Open { rate_milli: 64 }));
        assert_eq!((tenants, target_batch, deadline), (4, 8, 256));
        let cmd =
            parse(&argv("serve-sim --metric hd --store 0,0;3,3 --queries 0,0;3,3 --closed-loop 2"))
                .unwrap();
        let Command::ServeSim { load, tenants, target_batch, deadline, .. } = cmd else {
            panic!("wrong command")
        };
        assert_eq!(load, Some(LoadMode::Closed { outstanding: 2 }));
        assert_eq!((tenants, target_batch, deadline), (1, 16, 512), "load-mode defaults");
        // No load mode: the sequential path, with inert loop knobs.
        let cmd = parse(&argv("serve-sim --metric hd --store 0,0 --queries 0,0")).unwrap();
        let Command::ServeSim { load, .. } = cmd else { panic!("wrong command") };
        assert_eq!(load, None);
    }

    #[test]
    fn serve_sim_rejects_conflicting_or_dangling_load_flags() {
        let base = "serve-sim --metric hd --store 0,0 --queries 0,0";
        let e = parse(&argv(&format!("{base} --open-loop 64 --closed-loop 2"))).unwrap_err();
        assert!(e.to_string().contains("mutually exclusive"), "got: {e}");
        // Loop knobs without a load mode name the missing flag.
        for knob in ["tenants 2", "target-batch 8", "deadline 100"] {
            let e = parse(&argv(&format!("{base} --{knob}"))).unwrap_err();
            assert!(e.to_string().contains("requires a load mode"), "--{knob}: {e}");
        }
        // Degenerate values are rejected.
        assert!(parse(&argv(&format!("{base} --open-loop 0"))).is_err());
        assert!(parse(&argv(&format!("{base} --closed-loop 0"))).is_err());
        assert!(parse(&argv(&format!("{base} --open-loop x"))).is_err());
        assert!(parse(&argv(&format!("{base} --open-loop 64 --tenants 0"))).is_err());
        assert!(parse(&argv(&format!("{base} --open-loop 64 --deadline 0"))).is_err());
    }

    #[test]
    fn serve_sim_rejects_invalid_quorum_geometry() {
        let base = "serve-sim --metric hd --store 0,1 --queries 0,1";
        // agree > reads is structurally impossible.
        let e = parse(&argv(&format!("{base} --quorum 2/3"))).unwrap_err();
        assert!(e.to_string().contains("quorum agree (3) exceeds reads (2)"), "got: {e}");
        // reads > replicas cannot be satisfied.
        let e = parse(&argv(&format!("{base} --replicas 2 --quorum 3/1"))).unwrap_err();
        assert!(e.to_string().contains("quorum reads (3) exceeds replica count (2)"), "got: {e}");
        // Degenerate quorums and replica counts name themselves.
        assert!(parse(&argv(&format!("{base} --quorum 0/0"))).is_err());
        assert!(parse(&argv(&format!("{base} --quorum 2"))).is_err());
        assert!(parse(&argv(&format!("{base} --quorum x/1"))).is_err());
        assert!(parse(&argv(&format!("{base} --replicas 0"))).is_err());
    }

    #[test]
    fn serve_sim_rejects_malformed_chaos_specs() {
        let base = "serve-sim --metric hd --store 0,1 --queries 0,1 --replicas 2";
        for spec in ["kill", "kill=1", "kill=x@1", "kill=1@x", "bogus=1", "scrub=x"] {
            let line = format!("{base} --chaos {spec}");
            assert!(parse(&argv(&line)).is_err(), "spec '{spec}' should be rejected");
        }
        // Duplicate knobs name themselves, like fault specs.
        let e = parse(&argv(&format!("{base} --chaos scrub=2,scrub=3"))).unwrap_err();
        assert!(e.to_string().contains("duplicate chaos knob 'scrub'"), "got: {e}");
        // A kill aimed past the replica pool is a spec error, not a no-op.
        let e = parse(&argv(&format!("{base} --chaos kill=2@1"))).unwrap_err();
        assert!(e.to_string().contains("out of range for 2 replicas"), "got: {e}");
    }

    #[test]
    fn parses_serve_sim_slow_replica_and_hedge() {
        let cmd = parse(&argv(
            "serve-sim --metric hd --store 0,0;3,3 --queries 0,0;3,3 --open-loop 64 \
             --replicas 3 --quorum 2/1 --slow-replica 1@8000,2@2000 \
             --hedge quantile=900,budget=500",
        ))
        .unwrap();
        let Command::ServeSim { slow_replicas, hedge, .. } = cmd else { panic!("wrong command") };
        assert_eq!(slow_replicas, vec![(1, 8000), (2, 2000)]);
        assert_eq!(hedge, Some((900, 500)));
        // Unmentioned hedge knobs take the serving-loop defaults.
        let cmd = parse(&argv(
            "serve-sim --metric hd --store 0,0 --queries 0,0 --open-loop 64 --hedge budget=100",
        ))
        .unwrap();
        let Command::ServeSim { slow_replicas, hedge, .. } = cmd else { panic!("wrong command") };
        assert!(slow_replicas.is_empty());
        assert_eq!(hedge, Some((950, 100)));
    }

    #[test]
    fn parses_serve_sim_churn() {
        let cmd = parse(&argv(
            "serve-sim --metric hd --store 0,0;3,3 --queries 0,0;3,3 --open-loop 64 --churn 50",
        ))
        .unwrap();
        let Command::ServeSim { churn, .. } = cmd else { panic!("wrong command") };
        assert_eq!(churn, 50);
        // Absent flag leaves churn off.
        let cmd =
            parse(&argv("serve-sim --metric hd --store 0,0 --queries 0,0 --open-loop 64")).unwrap();
        let Command::ServeSim { churn, .. } = cmd else { panic!("wrong command") };
        assert_eq!(churn, 0);
    }

    #[test]
    fn serve_sim_rejects_bad_churn() {
        let base = "serve-sim --metric hd --store 0,1 --queries 0,1";
        // Churn needs a load mode's tick clock.
        let e = parse(&argv(&format!("{base} --churn 50"))).unwrap_err();
        assert!(e.to_string().contains("requires a load mode"), "got: {e}");
        // Degenerate and out-of-range rates name themselves.
        for rate in ["0", "1001", "x"] {
            let line = format!("{base} --open-loop 64 --churn {rate}");
            assert!(parse(&argv(&line)).is_err(), "rate '{rate}' should be rejected");
        }
    }

    #[test]
    fn serve_sim_rejects_malformed_slow_replica_and_hedge_specs() {
        let base = "serve-sim --metric hd --store 0,1 --queries 0,1 --open-loop 64 --replicas 3";
        // Out-of-range replica index.
        let e = parse(&argv(&format!("{base} --slow-replica 3@8000"))).unwrap_err();
        assert!(e.to_string().contains("out of range for 3 replicas"), "got: {e}");
        // A factor below 1x is a speed-up, not a slowdown.
        let e = parse(&argv(&format!("{base} --slow-replica 1@999"))).unwrap_err();
        assert!(e.to_string().contains("below 1000"), "got: {e}");
        // Duplicate replicas name themselves.
        let e = parse(&argv(&format!("{base} --slow-replica 1@2000,1@4000"))).unwrap_err();
        assert!(e.to_string().contains("duplicate slow replica 1"), "got: {e}");
        // Malformed entries are spec errors.
        for spec in ["1", "1@", "@8000", "x@8000", "1@x", ""] {
            let line = format!("{base} --slow-replica {spec}");
            assert!(parse(&argv(&line)).is_err(), "spec '{spec}' should be rejected");
        }
        // Hedge quantile outside [50, 999] per-mille, budget outside [1, 1000].
        for spec in ["quantile=49", "quantile=1000", "budget=0", "budget=1001"] {
            let line = format!("{base} --hedge {spec}");
            assert!(parse(&argv(&line)).is_err(), "spec '{spec}' should be rejected");
        }
        let e = parse(&argv(&format!("{base} --hedge quantile=900,quantile=950"))).unwrap_err();
        assert!(e.to_string().contains("duplicate hedge knob 'quantile'"), "got: {e}");
        assert!(parse(&argv(&format!("{base} --hedge bogus=1"))).is_err());
        // Both flags require a load mode.
        let seq = "serve-sim --metric hd --store 0,1 --queries 0,1 --replicas 3";
        for flag in ["--slow-replica 1@8000", "--hedge quantile=900"] {
            let e = parse(&argv(&format!("{seq} {flag}"))).unwrap_err();
            assert!(e.to_string().contains("requires a load mode"), "{flag}: {e}");
        }
    }
}
