#![forbid(unsafe_code)]
//! `serve_e2e`: end-to-end and per-layer wall-clock benchmark of FeReX
//! serving through `ServeLoop`.
//!
//! ```text
//! cargo run --release --manifest-path serve_e2e/Cargo.toml -- [FLAGS]
//! ```
//!
//! With `--workload NAME` it runs one workload in this process, prints one
//! `workload=… trace=… metric=… value=… unit=…` line per metric and, last,
//! one JSON result line. Without it, it runs every workload untraced and
//! traced, each in a child process of its own (so `peak_rss_mb` is per
//! workload), and reports the tracing overhead. Exits non-zero on any
//! failed check.

use ferex_serve_e2e::report::{self, Entry};
use ferex_serve_e2e::workload::{self, Config, Length, Workload};
use std::process::{Command, ExitCode, Stdio};

const USAGE: &str = "usage: serve_e2e [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] \
[--smoke] [--report PATH] [--spans PATH] | --check FILE
  --workload  point-ideal | batch-noisy-quorum | churn-ideal | reconfigure-lut
              (default: all four, untraced and traced, in child processes)
  --seed      input seed (default 42)
  --seconds   scales the fixed measured round counts; 10 (the default)
              runs each workload's base count, about 10 s untraced
  --trace 1   replay every call on twins and report per-layer metrics
  --smoke     256-row fixed-count runs whose checksums are comparable
  --report    write the versioned JSON report
  --spans     traced runs: write the spans as JSONL (all-workloads mode
              appends .NAME.jsonl)
  --check     recompute the smoke-size checksums of a fixture file, untimed";

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
    smoke: bool,
    report: Option<String>,
    spans: Option<String>,
    check: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 42,
        seconds: workload::NOMINAL_SECONDS,
        trace: false,
        smoke: false,
        report: None,
        spans: None,
        check: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                args.workload =
                    Some(Workload::from_name(&v).ok_or(format!("unknown workload {v}"))?);
            }
            "--seed" => {
                let v = value()?;
                args.seed = v.parse().map_err(|_| format!("invalid --seed {v}"))?;
            }
            "--seconds" => {
                let v = value()?;
                args.seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &u64| *s > 0)
                    .ok_or(format!("invalid --seconds {v}"))?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("invalid --trace {v} (0 or 1)")),
                };
            }
            "--smoke" => args.smoke = true,
            "--report" => args.report = Some(value()?),
            "--spans" => args.spans = Some(value()?),
            "--check" => args.check = Some(value()?),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(args)
}

fn length(args: &Args) -> Length {
    if args.smoke {
        Length::Smoke
    } else {
        Length::Seconds(args.seconds)
    }
}

fn write(path: &str, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("cannot write {path}: {e}"))
}

/// Runs one workload in this process.
fn run_one(w: Workload, args: &Args) -> Result<bool, String> {
    let config = Config { seed: args.seed, length: length(args), trace: args.trace };
    let r = workload::run(w, config)?;
    let entries = report::entries(&r, report::peak_rss_kb());
    for e in &entries {
        println!("{}", e.line(w.name(), args.trace));
    }
    if let (Some(path), Some(trace)) = (&args.spans, &r.trace) {
        write(path, &trace.to_jsonl(w.name()))?;
    }
    if let Some(path) = &args.report {
        let seconds = (!args.smoke).then_some(args.seconds);
        write(
            path,
            &report::to_json(args.seed, seconds, &[(w.name().into(), args.trace, entries.clone())]),
        )?;
    }
    let split = entries.iter().find(|e| e.name() == "trace.self_sum_ratio").and_then(Entry::value);
    if let Some(ratio) = split.filter(|v| *v > 1.0 + report::SELF_SUM_TOLERANCE) {
        eprintln!("warning: {}: floored layer self times sum to {ratio:.3}x the polls", w.name());
    }
    let passed = report::passed(&r, &entries);
    println!("{}", report::result_line(&r, &entries, passed));
    Ok(passed)
}

/// Runs `w` in a child process; returns whether it passed and its entries.
fn run_child(w: Workload, trace: bool, args: &Args) -> Result<(bool, Vec<Entry>), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", w.name(), "--seed", &args.seed.to_string()]).args([
        "--seconds",
        &args.seconds.to_string(),
        "--trace",
        if trace { "1" } else { "0" },
    ]);
    if args.smoke {
        cmd.arg("--smoke");
    }
    if let (Some(spans), true) = (&args.spans, trace) {
        cmd.args(["--spans", &format!("{spans}.{}.jsonl", w.name())]);
    }
    let out = cmd
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot run the {} child: {e}", w.name()))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let entries: Vec<Entry> = stdout.lines().filter_map(Entry::parse).map(|(_, _, e)| e).collect();
    for e in &entries {
        println!("{}", e.line(w.name(), trace));
    }
    Ok((out.status.success(), entries))
}

/// Runs every workload untraced and traced, one child process each.
fn run_all(args: &Args) -> Result<bool, String> {
    let mut runs = Vec::new();
    let mut all_passed = true;
    for w in Workload::ALL {
        let (plain_ok, plain) = run_child(w, false, args)?;
        let (traced_ok, mut traced) = run_child(w, true, args)?;
        let poll_p50 = |entries: &[Entry]| {
            entries.iter().find(|e| e.name() == "poll_p50_us").and_then(Entry::value)
        };
        if let (Some(a), Some(b)) = (poll_p50(&plain), poll_p50(&traced)) {
            let overhead = Entry::Metric {
                name: "trace.overhead_us".into(),
                value: Some(b - a),
                unit: "us".into(),
                samples: None,
            };
            println!("{}", overhead.line(w.name(), true));
            traced.push(overhead);
        }
        for (ok, trace) in [(plain_ok, false), (traced_ok, true)] {
            if !ok {
                eprintln!("error: {} (trace={}) failed a check", w.name(), u8::from(trace));
            }
            all_passed &= ok;
        }
        runs.push((w.name().to_string(), false, plain));
        runs.push((w.name().to_string(), true, traced));
    }
    if let Some(path) = &args.report {
        write(path, &report::to_json(args.seed, (!args.smoke).then_some(args.seconds), &runs))?;
    }
    Ok(all_passed)
}

/// Recomputes the smoke-size checksums of a fixture, untimed.
fn check(path: &str) -> Result<bool, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let (seed, want) = report::parse_checksums(&text)?;
    let mut fresh = Vec::new();
    let mut clean = true;
    for w in Workload::ALL {
        let r = workload::run(w, Config { seed, length: Length::Smoke, trace: false })?;
        let got = format!("{:016x}", r.checksum);
        match want.iter().find(|(have, _)| *have == w) {
            Some((_, sum)) if *sum == got && r.correct() => {
                println!("{}: checksum {got} ok", w.name())
            }
            Some((_, sum)) => {
                clean = false;
                println!("{}: checksum {got}, fixture {sum}, correct {}", w.name(), r.correct());
            }
            None => {
                clean = false;
                println!("{}: missing from the fixture", w.name());
            }
        }
        fresh.push((w, r.checksum));
    }
    if !clean {
        println!("fresh fixture:\n{}", report::checksum_fixture(seed, &fresh));
    }
    Ok(clean)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match (&args.check, args.workload) {
        (Some(path), _) => check(path),
        (None, Some(w)) => run_one(w, &args),
        (None, None) => run_all(&args),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
