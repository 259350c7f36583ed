#![forbid(unsafe_code)]
//! Core-kernel benchmark: the seeded {metric × bits × backend × rows ×
//! batch} grid behind `BENCH_core_kernels.json`.
//!
//! Every grid point computes a batch of row distances through
//! [`ferex_core::FerexArray::distances_batch`], checks a sample of them
//! (against the exact digital oracle on Ideal, bit for bit against
//! one-query reads on Noisy), folds the exact bit pattern of every
//! distance into a deterministic checksum, and (on timed runs) measures
//! the batch and the per-query loop. The committed report is therefore
//! two things at once: a perf trajectory (timings, informational) and a
//! determinism fixture (checksums, gated).
//!
//! Run with: `cargo run --release -p ferex-bench --bin kernels`
//! Flags: `--seed N` (fixture base seed, default 42 or
//! `FEREX_BENCH_SEED`), `--report PATH` (write the timed JSON report),
//! `--check PATH` (recompute checksums without timing and fail on schema
//! or checksum drift against a previous report), `--gate-speedup X` (fail
//! unless the worst Noisy 64-query × 10k-row point beats the per-query loop
//! by ≥ X — used when regenerating the committed baseline, not in CI,
//! where runner speed is not a contract).

use ferex_bench::kernels::{drift, run_grid, standard_grid, KernelsReport, PointResult};

struct Args {
    seed: u64,
    report_path: Option<String>,
    check_path: Option<String>,
    gate_speedup: Option<f64>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        seed: std::env::var("FEREX_BENCH_SEED").ok().and_then(|s| s.parse().ok()).unwrap_or(42),
        report_path: None,
        check_path: None,
        gate_speedup: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--seed" => {
                let v = it.next().ok_or("--seed needs a value")?;
                args.seed = v.parse().map_err(|_| format!("invalid --seed {v}"))?;
            }
            "--report" => args.report_path = Some(it.next().ok_or("--report needs a path")?),
            "--check" => args.check_path = Some(it.next().ok_or("--check needs a path")?),
            "--gate-speedup" => {
                let v = it.next().ok_or("--gate-speedup needs a value")?;
                args.gate_speedup =
                    Some(v.parse().map_err(|_| format!("invalid --gate-speedup {v}"))?);
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(args)
}

fn print_point(p: &PointResult) {
    match (p.batch_ns_per_query, p.scalar_ns_per_query, p.speedup()) {
        (Some(b), Some(s), Some(x)) => println!(
            "{:>34} | {:>17} | {:>11.0} | {:>12.0} | {:>6.2}x",
            p.point.id(),
            p.kernel,
            b,
            s,
            x
        ),
        _ => println!("{:>34} | {:>17} | checksum {:016x}", p.point.id(), p.kernel, p.checksum),
    }
}

fn check(args: &Args, path: &str) -> Result<(), Box<dyn std::error::Error>> {
    println!("# determinism check against {path} (seed {}, untimed)", args.seed);
    let baseline = std::fs::read_to_string(path)?;
    let fresh = run_grid(&standard_grid(), args.seed, false, |_| {})?;
    let drifts = drift(&baseline, &fresh)?;
    if drifts.is_empty() {
        println!("# {} grid points, every checksum matches the baseline", fresh.len());
        return Ok(());
    }
    for d in &drifts {
        eprintln!("DRIFT: {d}");
    }
    Err(format!("{} grid point(s) drifted from {path}", drifts.len()).into())
}

fn bench(args: &Args) -> Result<(), Box<dyn std::error::Error>> {
    println!("# core kernel grid (seed {}): batched vs scalar distance path", args.seed);
    println!(
        "{:>34} | {:>17} | {:>11} | {:>12} | {:>7}",
        "point", "kernel", "batch ns/q", "scalar ns/q", "speedup"
    );
    let results = run_grid(&standard_grid(), args.seed, true, print_point)?;
    let report = KernelsReport { seed: args.seed, timed: true, points: results };
    let accept = report.acceptance_speedup();
    match accept {
        Some(x) => println!("\n# worst Noisy 64q x 10k-row speedup: {x:.2}x"),
        None => println!("\n# grid has no timed Noisy 64q x 10k-row point"),
    }
    if let Some(path) = &args.report_path {
        std::fs::write(path, report.to_json())?;
        println!("# machine-readable report written to {path}");
    }
    if let Some(floor) = args.gate_speedup {
        let x = accept.ok_or("speedup gate requires the timed acceptance points")?;
        if x < floor {
            return Err(format!(
                "acceptance gate failed: worst Noisy 64q x 10k-row speedup {x:.2}x < {floor}x"
            )
            .into());
        }
        println!("# acceptance gate passed: {x:.2}x >= {floor}x");
    }
    Ok(())
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: kernels [--seed N] [--report PATH] [--check PATH] [--gate-speedup X]"
            );
            std::process::exit(2);
        }
    };
    let outcome = match &args.check_path {
        Some(path) => check(&args, path),
        None => bench(&args),
    };
    if let Err(e) = outcome {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}
