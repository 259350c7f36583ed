#![forbid(unsafe_code)]
//! Robustness sweeps: HDC's claimed resilience to input and hardware noise
//! ("due to its holographicness, it has been reported to be robust against
//! hardware noise", paper Sec. IV-B), plus the conformance fault-degradation
//! and self-healing recall-recovery reports.
//!
//! Four sweeps:
//! 1. **Input robustness** — accuracy vs Gaussian perturbation of the test
//!    features (distribution shift).
//! 2. **Hardware robustness** — accuracy vs scaled device variation
//!    (0×, 1×, 2×, 4× the nominal σ_Vth/σ_R) at fixed inputs.
//! 3. **Fault degradation** — the `ferex-conformance` standard report:
//!    recall@1/recall@k vs per-cell fault rate across every metric, both
//!    stochastic backends and all four hard-fault classes, regenerated
//!    deterministically from `--seed` (or `FEREX_CONFORMANCE_SEED`).
//! 4. **Self-healing recovery** — the standard recall-recovery report:
//!    the same faulted arrays served with write-verify + row sparing on,
//!    against their own no-repair baselines.
//! 5. **Chaos soak** — the standard replicated-serving availability report:
//!    three replicas with a 2-of-2 quorum, one replica faulted, another
//!    killed mid-stream, scheduled scrubs — recall@1 must hold at ≥ 0.99
//!    and the report must be byte-reproducible from its seed.
//! 6. **Load simulation** — the standard serving-loop load report: the
//!    adaptive batch former driven by seeded open- and closed-loop
//!    arrivals (bursts, hot tenants, kill/revive brownouts) on a virtual
//!    tick clock — deadlines must bound every served latency, adaptive
//!    batching must clear 3x the batch-1 goodput under overload, recall@1
//!    must hold at exactly 1.0, and the report must replay byte-identically.
//! 7. **Slow-replica latency** — the v2 load report: per-replica seeded
//!    latency models with one replica slowed or degrading, hedged requests
//!    and brownout demotion armed against an unhedged leg of the same
//!    stream — with one replica at 8x, hedged p999 must stay within 2x the
//!    all-healthy p999 while the unhedged leg blows past 5x it.
//! 8. **Mutation soak** — the standard online-mutation report: seeded
//!    insert/update/delete/search/compact schedules byte-match from-scratch
//!    rebuilds at every checkpoint, quorum serving keeps recall@1 at 1.0
//!    through the churn, and the wear-leveled endurance leg holds
//!    max-row-cycles within 2x the mean while the unleveled leg exceeds 5x.
//!
//! The process exits non-zero when a sweep violates its oracle gate: a
//! fault-free degradation anchor below 1.0, a healed recall@1 below 0.99
//! at the 1 % stuck-at rate, a recovery report in which self-healing
//! never beats the faulted baseline, a chaos soak whose availability
//! dips below the floor or whose report is not bit-reproducible, or a
//! load run that misses a deadline, the goodput bar, or its replay bytes.
//!
//! Run with: `cargo run --release -p ferex-bench --bin robustness`
//! Flags: `--seed N` (conformance base seed, default 42), `--report PATH`
//! (write the degradation JSON report), `--recovery-report PATH` (write the
//! recovery JSON report), `--chaos-report PATH` (write the chaos JSON
//! report), `--load-report PATH` (write the load JSON report),
//! `--load-v2-report PATH` (write the v2 slow-replica load JSON report),
//! `--mutation-report PATH` (write the mutation JSON report), and
//! `--only LEG` to run one leg alone, as each CI job does: `conformance`
//! (the degradation sweep), `self-heal` (the recovery sweep), `chaos` (the
//! chaos soak), `load` (both load simulations) or `mutation` (the
//! mutation soak). An unknown leg, or a second `--only`, is an error.

use ferex_conformance::{
    standard_chaos_report, standard_load_report, standard_load_v2_report, standard_mutation_report,
    standard_recovery_report, standard_report,
};
use ferex_core::{Backend, CircuitConfig, DistanceMetric};
use ferex_datasets::spec::UCIHAR;
use ferex_datasets::synth::{generate, perturb, SynthOptions};
use ferex_fefet::units::Volt;
use ferex_fefet::VariationModel;
use ferex_hdc::am::{AmClassifier, AmConfig};
use ferex_hdc::encoder::ProjectionEncoder;
use ferex_hdc::model::HdcModel;

struct Args {
    seed: u64,
    report_path: Option<String>,
    recovery_report_path: Option<String>,
    chaos_report_path: Option<String>,
    load_report_path: Option<String>,
    load_v2_report_path: Option<String>,
    mutation_report_path: Option<String>,
    only: Option<Leg>,
}

/// A leg `--only` runs alone.
#[derive(Clone, Copy)]
enum Leg {
    Conformance,
    SelfHeal,
    Chaos,
    Load,
    Mutation,
}

impl Leg {
    fn parse(name: &str) -> Result<Leg, String> {
        match name {
            "conformance" => Ok(Leg::Conformance),
            "self-heal" => Ok(Leg::SelfHeal),
            "chaos" => Ok(Leg::Chaos),
            "load" => Ok(Leg::Load),
            "mutation" => Ok(Leg::Mutation),
            other => Err(format!("unknown leg {other}")),
        }
    }
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        seed: std::env::var("FEREX_CONFORMANCE_SEED")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(42),
        report_path: None,
        recovery_report_path: None,
        chaos_report_path: None,
        load_report_path: None,
        load_v2_report_path: None,
        mutation_report_path: None,
        only: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--seed" => {
                let v = it.next().ok_or("--seed needs a value")?;
                args.seed = v.parse().map_err(|_| format!("invalid --seed {v}"))?;
            }
            "--report" => args.report_path = Some(it.next().ok_or("--report needs a path")?),
            "--recovery-report" => {
                args.recovery_report_path =
                    Some(it.next().ok_or("--recovery-report needs a path")?);
            }
            "--chaos-report" => {
                args.chaos_report_path = Some(it.next().ok_or("--chaos-report needs a path")?);
            }
            "--load-report" => {
                args.load_report_path = Some(it.next().ok_or("--load-report needs a path")?);
            }
            "--load-v2-report" => {
                args.load_v2_report_path = Some(it.next().ok_or("--load-v2-report needs a path")?);
            }
            "--mutation-report" => {
                args.mutation_report_path =
                    Some(it.next().ok_or("--mutation-report needs a path")?);
            }
            "--only" if args.only.is_some() => return Err("--only given twice".into()),
            "--only" => args.only = Some(Leg::parse(&it.next().ok_or("--only needs a leg")?)?),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(args)
}

fn conformance_sweep(args: &Args) -> Result<(), Box<dyn std::error::Error>> {
    println!("# sweep 3: fault-rate degradation (conformance standard report, seed {})", args.seed);
    let report = standard_report(args.seed);
    println!(
        "{:>11} | {:>8} | {:>6} | {:>6} | recall@1 by rising rate",
        "metric", "backend", "fault", "drop@1"
    );
    for curve in &report.curves {
        let recalls: Vec<String> =
            curve.points.iter().map(|p| format!("{:.2}@{}", p.recall_at_1, p.rate)).collect();
        println!(
            "{:>11} | {:>8} | {:>6} | {:>6.2} | {}",
            curve.metric,
            curve.backend,
            curve.fault,
            curve.total_drop(),
            recalls.join("  ")
        );
    }
    let monotone = report.curves.iter().filter(|c| c.is_monotone_within(0.15)).count();
    println!("\n# {}/{} curves monotone within 0.15 sampling slack", monotone, report.curves.len());
    if let Some(path) = &args.report_path {
        std::fs::write(path, report.to_json())?;
        println!("# machine-readable report written to {path}");
    }
    // Oracle gate: at the fault-isolation corner with a zero rate, every
    // backend must agree with the digital oracle exactly. Anything else is
    // a conformance failure, not noise — fail the process.
    let broken: Vec<String> = report
        .curves
        .iter()
        .filter(|c| c.points.first().is_some_and(|p| p.recall_at_1 < 1.0 || p.recall_at_k < 1.0))
        .map(|c| format!("{}/{}/{}", c.metric, c.backend, c.fault))
        .collect();
    if !broken.is_empty() {
        return Err(format!("oracle mismatch at rate 0 in: {}", broken.join(", ")).into());
    }
    Ok(())
}

fn recovery_sweep(args: &Args) -> Result<(), Box<dyn std::error::Error>> {
    println!("# sweep 4: self-healing recall recovery (seed {})", args.seed);
    let report = standard_recovery_report(args.seed);
    println!(
        "{:>11} | {:>8} | {:>5} | faulted@1 -> healed@1 by rising rate",
        "metric", "backend", "fault"
    );
    for curve in &report.curves {
        let legs: Vec<String> = curve
            .points
            .iter()
            .map(|p| format!("{:.2}->{:.2}@{}", p.recall_faulted_1, p.recall_healed_1, p.rate))
            .collect();
        println!(
            "{:>11} | {:>8} | {:>5} | {}",
            curve.metric,
            curve.backend,
            curve.fault,
            legs.join("  ")
        );
    }
    if let Some(path) = &args.recovery_report_path {
        std::fs::write(path, report.to_json())?;
        println!("# machine-readable recovery report written to {path}");
    }
    // Gate 1: the headline acceptance bar — at the 1 % stuck-at rate,
    // write-verify + a 2×-rows spare pool must restore recall@1 to within
    // 1 % of the fault-free anchor (1.0 at the corner), on every curve.
    let unhealed: Vec<String> = report
        .curves
        .iter()
        .filter_map(|c| {
            let p = c.points.iter().find(|p| p.rate == 0.01)?;
            (p.recall_healed_1 < 0.99).then(|| {
                format!("{}/{}/{} healed@1 {:.3}", c.metric, c.backend, c.fault, p.recall_healed_1)
            })
        })
        .collect();
    if !unhealed.is_empty() {
        return Err(format!("recovery gate failed at rate 0.01: {}", unhealed.join(", ")).into());
    }
    // Gate 2: self-healing must never regress a curve below its no-repair
    // baseline while the spare pool still absorbs every quarantined row.
    let regressed: Vec<String> = report
        .curves
        .iter()
        .flat_map(|c| {
            c.points
                .iter()
                .filter(|p| p.rows_excluded == 0 && p.recall_healed_1 < p.recall_faulted_1)
                .map(move |p| {
                    format!(
                        "{}/{}/{} @{}: {:.3} < {:.3}",
                        c.metric, c.backend, c.fault, p.rate, p.recall_healed_1, p.recall_faulted_1
                    )
                })
        })
        .collect();
    if !regressed.is_empty() {
        return Err(
            format!("self-healing regressed below baseline: {}", regressed.join(", ")).into()
        );
    }
    println!("# all recovery gates passed");
    Ok(())
}

fn chaos_sweep(args: &Args) -> Result<(), Box<dyn std::error::Error>> {
    println!("# sweep 5: replicated-serving chaos soak (seed {})", args.seed);
    let report = standard_chaos_report(args.seed);
    println!(
        "{:>11} | {:>5} | {:>7} | {:>5} | recall@1 (fallbacks/trips) by rising rate",
        "metric", "fault", "quorum", "alive"
    );
    for curve in &report.curves {
        let legs: Vec<String> = curve
            .points
            .iter()
            .map(|p| {
                format!(
                    "{:.2}({}/{})@{}",
                    p.recall_at_1, p.oracle_fallbacks, p.breaker_trips, p.rate
                )
            })
            .collect();
        let alive = curve.points.last().map_or(0, |p| p.replicas_alive);
        println!(
            "{:>11} | {:>5} | {:>4}/{} | {:>2}/{} | {}",
            curve.metric,
            curve.fault,
            curve.agree,
            curve.reads,
            alive,
            curve.replicas,
            legs.join("  ")
        );
    }
    if let Some(path) = &args.chaos_report_path {
        std::fs::write(path, report.to_json())?;
        println!("# machine-readable chaos report written to {path}");
    }
    // Gate 1: availability — recall@1 must hold the 0.99 floor at every
    // rate point of every soak, kills and faults notwithstanding.
    let breached: Vec<String> = report
        .curves
        .iter()
        .filter(|c| !c.meets_recall_floor(0.99))
        .map(|c| {
            let worst = c.points.iter().map(|p| p.recall_at_1).fold(f64::INFINITY, f64::min);
            format!("{}/{}/{} worst recall@1 {:.3}", c.metric, c.backend, c.fault, worst)
        })
        .collect();
    if !breached.is_empty() {
        return Err(format!("chaos availability gate breached: {}", breached.join(", ")).into());
    }
    // Gate 2: determinism — a chaos report regenerated from the same seed
    // must serialize byte-identically (virtual tick clocks, no wall time).
    if standard_chaos_report(args.seed).to_json() != report.to_json() {
        return Err("chaos report is not byte-reproducible from its seed".into());
    }
    println!("# all chaos gates passed");
    Ok(())
}

fn load_sweep(args: &Args) -> Result<(), Box<dyn std::error::Error>> {
    println!("# sweep 6: serving-loop load simulation (seed {})", args.seed);
    let report = standard_load_report(args.seed);
    println!(
        "{:>16} | {:>8} | {:>5} | {:>4}/{:>4}/{:>4} | {:>7} | {:>4}",
        "scenario", "arrivals", "batch", "p50", "p99", "p999", "goodput", "shed"
    );
    for s in &report.scenarios {
        println!(
            "{:>16} | {:>8} | {:>5} | {:>4}/{:>4}/{:>4} | {:>7} | {:>4}",
            s.name,
            s.arrivals,
            s.target_batch,
            s.p50,
            s.p99,
            s.p999,
            s.goodput_milli,
            s.shed_capacity + s.shed_deadline
        );
    }
    if let Some(path) = &args.load_report_path {
        std::fs::write(path, report.to_json())?;
        println!("# machine-readable load report written to {path}");
    }
    // Gate 1: latency discipline — every scenario balances its counters
    // and never serves a request past its deadline (p999 and max bounded).
    let late: Vec<String> = report
        .scenarios
        .iter()
        .filter(|s| !s.meets_deadline() || !s.counters_balance())
        .map(|s| format!("{} (max {} vs deadline {})", s.name, s.max_latency, s.deadline_ticks))
        .collect();
    if !late.is_empty() {
        return Err(format!("load latency gate breached: {}", late.join(", ")).into());
    }
    // Gate 2: goodput — at ~4x the single-query service capacity, the
    // adaptive batch former must clear 3x the goodput of a batch-1 loop.
    let b1 = report.scenario("goodput-batch1").ok_or("goodput-batch1 cell missing")?;
    let ad = report.scenario("goodput-adaptive").ok_or("goodput-adaptive cell missing")?;
    if ad.goodput_milli < 3 * b1.goodput_milli {
        return Err(format!(
            "load goodput gate breached: adaptive {} < 3x batch-1 {}",
            ad.goodput_milli, b1.goodput_milli
        )
        .into());
    }
    // Gate 3: exactness under chaos — recall@1 holds at exactly 1.0 in
    // every scenario (corner-config replicas), kill-mid-stream included.
    let drifted: Vec<String> = report
        .scenarios
        .iter()
        .filter(|s| s.recall_at_1 < 1.0)
        .map(|s| format!("{} recall@1 {:.3}", s.name, s.recall_at_1))
        .collect();
    if !drifted.is_empty() {
        return Err(format!("load recall gate breached: {}", drifted.join(", ")).into());
    }
    // Gate 4: determinism — the replay contract the CI load-sim job pins:
    // regenerating from the same seed must serialize byte-identically.
    if standard_load_report(args.seed).to_json() != report.to_json() {
        return Err("load report is not byte-reproducible from its seed".into());
    }
    println!("# all load gates passed");
    Ok(())
}

fn load_v2_sweep(args: &Args) -> Result<(), Box<dyn std::error::Error>> {
    println!("# sweep 7: slow-replica latency, hedging & brownouts (seed {})", args.seed);
    let report = standard_load_v2_report(args.seed);
    println!(
        "{:>15} | {:>4}/{:>4}/{:>5} | {:>5}/{:>5}/{:>6} | {:>5} | {:>4} | {:>7}",
        "scenario", "p50", "p99", "p999", "u-p50", "u-p99", "u-p999", "hedge", "demo", "goodput"
    );
    for s in &report.scenarios {
        println!(
            "{:>15} | {:>4}/{:>4}/{:>5} | {:>5}/{:>5}/{:>6} | {:>2}/{:>2} | {:>4} | {:>3}/{:>3}",
            s.name,
            s.p50,
            s.p99,
            s.p999,
            s.unhedged_p50,
            s.unhedged_p99,
            s.unhedged_p999,
            s.hedge_wins,
            s.hedges_issued,
            s.brownout_demotions,
            s.goodput_milli,
            s.unhedged_goodput_milli,
        );
    }
    if let Some(path) = &args.load_v2_report_path {
        std::fs::write(path, report.to_json())?;
        println!("# machine-readable v2 load report written to {path}");
    }
    // Gate 1: bookkeeping — every cell balances its counters and keeps
    // recall@1 at exactly 1.0 (hedged answers are bit-identical to the
    // unhedged serve path, so brownouts and hedges cannot move recall).
    let broken: Vec<String> = report
        .scenarios
        .iter()
        .filter(|s| !s.counters_balance() || s.recall_at_1 < 1.0)
        .map(|s| format!("{} recall@1 {:.3}", s.name, s.recall_at_1))
        .collect();
    if !broken.is_empty() {
        return Err(format!("v2 bookkeeping gate breached: {}", broken.join(", ")).into());
    }
    // Gate 2: the tail-latency SLO — with one replica at 8x, hedging plus
    // brownout demotion must hold p999 within 2x the all-healthy p999,
    // while the unhedged leg of the same cell blows past 5x it (i.e. the
    // slowdown is severe enough that the recovery is attributable to the
    // hedging machinery, not to a mild scenario).
    let healthy = report.scenario("v2-all-healthy").ok_or("v2-all-healthy cell missing")?;
    let slow = report.scenario("v2-one-slow-8x").ok_or("v2-one-slow-8x cell missing")?;
    if slow.p999 > 2 * healthy.p999 {
        return Err(format!(
            "v2 SLO gate breached: hedged p999 {} > 2x all-healthy p999 {}",
            slow.p999, healthy.p999
        )
        .into());
    }
    if slow.unhedged_p999 < 5 * healthy.p999 {
        return Err(format!(
            "v2 SLO gate vacuous: unhedged p999 {} < 5x all-healthy p999 {}",
            slow.unhedged_p999, healthy.p999
        )
        .into());
    }
    if slow.brownout_demotions == 0 || slow.hedge_wins == 0 {
        return Err(format!(
            "v2 SLO gate unattributable: {} demotions, {} hedge wins",
            slow.brownout_demotions, slow.hedge_wins
        )
        .into());
    }
    // Gate 3: determinism — the replay contract the CI load-sim job pins:
    // regenerating from the same seed must serialize byte-identically.
    if standard_load_v2_report(args.seed).to_json() != report.to_json() {
        return Err("v2 load report is not byte-reproducible from its seed".into());
    }
    println!("# all v2 load gates passed");
    Ok(())
}

fn mutation_sweep(args: &Args) -> Result<(), Box<dyn std::error::Error>> {
    println!("# sweep 8: online-mutation soak (seed {})", args.seed);
    let report = standard_mutation_report(args.seed);
    println!(
        "{:>18} | {:>3}i/{:>3}u/{:>3}d | {:>5} | {:>6} | {:>4} | wear max/mean(milli)",
        "cell", "", "", "", "match", "recall", "live"
    );
    for s in &report.scenarios {
        println!(
            "{:>18} | {:>3}i/{:>3}u/{:>3}d | {:>2}/{:>2} | {:>6} | {:>4} | {}/{}",
            s.name,
            s.inserts,
            s.updates,
            s.deletes,
            s.checkpoints_matched,
            s.checkpoints,
            s.recall_milli,
            s.live_rows,
            s.wear.max_cycles,
            s.wear.mean_milli,
        );
    }
    println!(
        "# churn soak: leveled imbalance {} per-mille ({} rotations), unleveled {} per-mille",
        report.churn.leveled.imbalance_milli,
        report.churn.leveled.rotated,
        report.churn.unleveled.imbalance_milli
    );
    if let Some(path) = &args.mutation_report_path {
        std::fs::write(path, report.to_json())?;
        println!("# machine-readable mutation report written to {path}");
    }
    // Gate 1: rebuild equivalence — every checkpoint of every cell must
    // byte-match a from-scratch rebuild of the same logical contents.
    let diverged: Vec<String> = report
        .scenarios
        .iter()
        .filter(|s| s.checkpoints == 0 || s.checkpoints_matched != s.checkpoints)
        .map(|s| format!("{} matched {}/{}", s.name, s.checkpoints_matched, s.checkpoints))
        .collect();
    if !diverged.is_empty() {
        return Err(format!("mutation rebuild gate breached: {}", diverged.join(", ")).into());
    }
    // Gate 2: serving through churn — recall@1 against the digital mirror
    // holds at exactly 1.0 in every cell while mutations land.
    if !report.meets_recall_floor(1000) {
        let drifted: Vec<String> = report
            .scenarios
            .iter()
            .filter(|s| s.searches == 0 || s.recall_milli < 1000)
            .map(|s| format!("{} recall {} per-mille", s.name, s.recall_milli))
            .collect();
        return Err(format!("mutation recall gate breached: {}", drifted.join(", ")).into());
    }
    // Gate 3: endurance — wear leveling holds max-row-cycles within 2x the
    // mean while the unleveled leg exceeds 5x (so the separation is
    // attributable to the rotation policy, not a mild schedule).
    if !report.wear_gates_hold() {
        return Err(format!(
            "mutation wear gate breached: leveled {} per-mille, unleveled {} per-mille",
            report.churn.leveled.imbalance_milli, report.churn.unleveled.imbalance_milli
        )
        .into());
    }
    // Gate 4: determinism — the replay contract the CI mutation-soak job
    // pins: regenerating from the same seed must serialize byte-identically.
    if standard_mutation_report(args.seed).to_json() != report.to_json() {
        return Err("mutation report is not byte-reproducible from its seed".into());
    }
    println!("# all mutation gates passed");
    Ok(())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args = parse_args().map_err(|e| {
        format!(
            "{e} (flags: --seed N --report PATH --recovery-report PATH --chaos-report PATH \
             --load-report PATH --load-v2-report PATH --mutation-report PATH \
             --only conformance|self-heal|chaos|load|mutation)"
        )
    })?;
    if let Some(leg) = args.only {
        return match leg {
            Leg::Conformance => conformance_sweep(&args),
            Leg::SelfHeal => recovery_sweep(&args),
            Leg::Chaos => chaos_sweep(&args),
            Leg::Load => {
                load_sweep(&args)?;
                println!();
                load_v2_sweep(&args)
            }
            Leg::Mutation => mutation_sweep(&args),
        };
    }
    let spec = UCIHAR.scaled(0.05);
    let data = generate(&spec, &SynthOptions { noise: 4.0, ..Default::default() });
    let encoder = ProjectionEncoder::new(spec.n_features, 2048, 21);
    let mut model = HdcModel::train_single_pass(encoder, &data.train, spec.n_classes);
    model.retrain(&data.train, 3);
    println!(
        "# trained on {} ({} train / {} test), software accuracy {:.1}%\n",
        spec.name,
        data.train.len(),
        data.test.len(),
        model.accuracy(&data.test) * 100.0
    );

    println!("# sweep 1: input perturbation (software vs FeReX AM, L1 metric)");
    println!("{:>12} | {:>9} | {:>9}", "input sigma", "software", "FeReX AM");
    let mut am = AmClassifier::from_model(
        &model,
        &AmConfig { metric: DistanceMetric::Manhattan, ..Default::default() },
    )?;
    for sigma in [0.0, 1.0, 2.0, 4.0, 8.0] {
        let shifted = perturb(&data.test, sigma, 77);
        let sw = model.accuracy(&shifted);
        let hw = am.accuracy(&model, &shifted)?;
        println!("{sigma:>12.1} | {:>8.1}% | {:>8.1}%", sw * 100.0, hw * 100.0);
    }

    println!("\n# sweep 2: hardware variation scaling (nominal inputs)");
    println!("{:>12} | {:>9}", "variation", "FeReX AM");
    for scale in [0.0, 1.0, 2.0, 4.0] {
        let variation =
            VariationModel { sigma_vth: Volt(0.054 * scale), sigma_r_rel: 0.08 * scale };
        let cfg = AmConfig {
            metric: DistanceMetric::Manhattan,
            backend: Backend::Noisy(Box::new(CircuitConfig {
                variation,
                seed: 5,
                ..Default::default()
            })),
            ..Default::default()
        };
        let mut am = AmClassifier::from_model(&model, &cfg)?;
        let hw = am.accuracy(&model, &data.test)?;
        println!("{:>11.0}x | {:>8.1}%", scale, hw * 100.0);
    }
    println!("\n(graceful degradation on both axes is the HDC holographic-");
    println!(" redundancy claim; a brittle representation would cliff)\n");
    conformance_sweep(&args)?;
    println!();
    recovery_sweep(&args)?;
    println!();
    chaos_sweep(&args)?;
    println!();
    load_sweep(&args)?;
    println!();
    load_v2_sweep(&args)?;
    println!();
    mutation_sweep(&args)
}
