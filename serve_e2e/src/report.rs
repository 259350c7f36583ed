//! Metrics of a run, and the three ways they are written out: one
//! `workload=… metric=… value=… unit=…` line per metric, the final JSON
//! result line, and the versioned JSON report (schema [`SCHEMA`]).
//!
//! The lines are also how the all-workloads mode collects the results of
//! its child processes, so an [`Entry`] round-trips through
//! [`Entry::line`] and [`Entry::parse`].

use crate::trace::{percentile, Span};
use crate::workload::{Length, RunResult, Workload};
use std::fmt::Write as _;

/// Schema tag of the JSON report; bump on breaking changes.
pub const SCHEMA: &str = "ferex-serve-e2e-v1";

/// The end-to-end metrics of an untraced run's result line, in order:
/// the ones every workload has and that repeat across runs closely enough
/// to gate a change on. The latency percentiles, the workload-specific
/// mutation and switch latencies and the error rate are printed as lines
/// only (README.md gives the reasons).
pub const END_TO_END: [&str; 4] = ["setup_s", "qps", "peak_rss_mb", "recall_at_1"];

/// The per-layer metrics of a traced run's result line, in order. Every
/// workload reports each of them; the mutation-path layer times, which
/// only `churn-ideal` has, are printed as lines only, and so are the batch
/// and row counts that the fixed round counts pin.
pub const PER_LAYER: [&str; 16] = [
    "serve.submit_us",
    "serve.poll_self_us",
    "replica.self_us",
    "replica.reads_per_query",
    "replica.fallback_ratio",
    "replica.disagreement_ratio",
    "replica.scrubs_escalated",
    "replica.breaker_trips",
    "replica.build_ms",
    "array.sense_us",
    "array.store_ms",
    "kernel.us_per_query",
    "kernel.ns_per_row_query",
    "mutate.compactions",
    "mutate.rotations",
    "sizing.encode_ms",
];

/// Largest share of the summed poll spans by which the replayed layers
/// may outlast the polls they explain before a traced run warns (see
/// [`self_sum_ratio`]).
pub const SELF_SUM_TOLERANCE: f64 = 0.05;

/// One reported value: a metric with its unit, or a label.
#[derive(Debug, Clone, PartialEq)]
pub enum Entry {
    /// A number. `value` is `None` for a percentile refused for lack of
    /// samples; `samples` is the sample count a percentile was taken over.
    Metric { name: String, value: Option<f64>, unit: String, samples: Option<usize> },
    /// A string-valued fact about the run (kernel names, checksum, …).
    Label { name: String, value: String },
}

impl Entry {
    fn metric(name: &str, value: f64, unit: &str) -> Entry {
        Entry::Metric { name: name.into(), value: Some(value), unit: unit.into(), samples: None }
    }

    fn label(name: &str, value: impl ToString) -> Entry {
        Entry::Label { name: name.into(), value: value.to_string() }
    }

    /// The entry's name.
    pub fn name(&self) -> &str {
        match self {
            Entry::Metric { name, .. } | Entry::Label { name, .. } => name,
        }
    }

    /// The metric's value, when it is a reported metric.
    pub fn value(&self) -> Option<f64> {
        match self {
            Entry::Metric { value, .. } => *value,
            Entry::Label { .. } => None,
        }
    }

    /// The printed line, e.g.
    /// `workload=point-ideal trace=0 metric=qps value=98.2 unit=1/s`.
    pub fn line(&self, workload: &str, trace: bool) -> String {
        let head = format!("workload={workload} trace={}", u8::from(trace));
        match self {
            Entry::Metric { name, value, unit, samples } => {
                let value = value.map_or_else(|| "none".to_string(), |v| v.to_string());
                let samples = samples.map_or_else(String::new, |n| format!(" samples={n}"));
                format!("{head} metric={name} value={value} unit={unit}{samples}")
            }
            Entry::Label { name, value } => format!("{head} label={name} value={value}"),
        }
    }

    /// Parses a [`Entry::line`] back into `(workload, trace, entry)`;
    /// `None` for any other line.
    pub fn parse(line: &str) -> Option<(String, bool, Entry)> {
        let mut fields = std::collections::BTreeMap::new();
        for token in line.split_whitespace() {
            let (k, v) = token.split_once('=')?;
            fields.insert(k, v);
        }
        let workload = fields.get("workload")?.to_string();
        let trace = *fields.get("trace")? == "1";
        let value = fields.get("value")?;
        let entry = if let Some(name) = fields.get("metric") {
            Entry::Metric {
                name: name.to_string(),
                value: value.parse().ok(),
                unit: fields.get("unit")?.to_string(),
                samples: fields.get("samples").and_then(|n| n.parse().ok()),
            }
        } else {
            Entry::label(fields.get("label")?, value)
        };
        Some((workload, trace, entry))
    }
}

fn mean(values: impl IntoIterator<Item = u64>) -> f64 {
    let (sum, n) = values.into_iter().fold((0u128, 0u64), |(s, n), v| (s + u128::from(v), n + 1));
    if n == 0 {
        0.0
    } else {
        sum as f64 / n as f64
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    num as f64 / den.max(1) as f64
}

/// A guarded nearest-rank percentile of `ns`, scaled by `scale` ns per
/// unit.
fn pct(name: &str, ns: &[u64], q: u64, scale: f64, unit: &str) -> Entry {
    let mut sorted = ns.to_vec();
    sorted.sort_unstable();
    Entry::Metric {
        name: name.into(),
        value: percentile(&sorted, q, 100).map(|v| v as f64 / scale),
        unit: unit.into(),
        samples: Some(sorted.len()),
    }
}

/// Peak resident set size of this process (`VmHWM`), in KiB.
pub fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// The end-to-end metrics of an untraced run: the [`END_TO_END`] set
/// followed by the ones that are printed only.
pub fn end_to_end(r: &RunResult, peak_rss_kb: Option<u64>) -> Vec<Entry> {
    let mut setup = r.setup_ns.clone();
    setup.sort_unstable();
    let mut out = vec![
        // The median of the set-up repetitions (the middle one of an odd
        // count).
        Entry::Metric {
            name: "setup_s".into(),
            value: setup.get(setup.len() / 2).map(|&ns| ns as f64 / 1e9),
            unit: "s".into(),
            samples: Some(setup.len()),
        },
        Entry::metric("qps", r.requests as f64 / (r.measured_ns.max(1) as f64 / 1e9), "1/s"),
        Entry::Metric {
            name: "peak_rss_mb".into(),
            value: peak_rss_kb.map(|kb| kb as f64 / 1024.0),
            unit: "MB".into(),
            samples: None,
        },
        Entry::metric("recall_at_1", r.recall_at_1(), "ratio"),
        pct("latency_p50_us", &r.latency_ns, 50, 1e3, "us"),
        pct("latency_p99_us", &r.latency_ns, 99, 1e3, "us"),
    ];
    if r.workload == Workload::ChurnIdeal {
        out.push(pct("mutation_p50_us", &r.mutation_ns, 50, 1e3, "us"));
        out.push(pct("mutation_p99_us", &r.mutation_ns, 99, 1e3, "us"));
    }
    if r.workload == Workload::ReconfigureLut {
        out.push(pct("switch_p50_ms", &r.switch_ns, 50, 1e6, "ms"));
        out.push(pct("switch_p95_ms", &r.switch_ns, 95, 1e6, "ms"));
    }
    out.push(Entry::metric("error_rate", r.error_rate(), "ratio"));
    out.push(pct("poll_p50_us", &r.poll_ns, 50, 1e3, "us"));
    out
}

/// The spans a served batch splits into, one per layer: the real poll,
/// then the replayed replica-set read, array search and kernel.
const POLL_LAYERS: [&str; 4] =
    ["serve.poll", "replica.serve_batch_read", "array.search_batch_at", "kernel.distances_batch"];

/// Signed self time of the spans named in `names`, summed over the run.
fn self_ns(spans: &[Span], own: &[i64], names: &[&str]) -> i64 {
    spans.iter().zip(own).filter(|(s, _)| names.contains(&s.name)).map(|(_, &o)| o).sum()
}

/// The poll layers' self times, each floored at zero, over the summed
/// poll spans. Signed self times telescope to exactly the poll spans, so
/// this exceeds 1.0 by the share by which some layer's replays outlast
/// the real calls they explain: the error of the layer split.
pub fn self_sum_ratio(spans: &[Span], own: &[i64]) -> f64 {
    let layers: i64 = POLL_LAYERS.iter().map(|name| self_ns(spans, own, &[name]).max(0)).sum();
    let polls: u64 = spans.iter().filter(|s| s.name == "serve.poll").map(Span::dur_ns).sum();
    ratio(layers.unsigned_abs(), polls)
}

/// The per-layer metrics of a traced run: the [`PER_LAYER`] set followed
/// by the ones that are printed only. Empty for untraced runs.
pub fn per_layer(r: &RunResult) -> Vec<Entry> {
    let Some(trace) = r.trace.as_ref() else { return Vec::new() };
    let spans = trace.spans();
    let own = trace.self_times();
    let count = |names: &[&str]| spans.iter().filter(|s| names.contains(&s.name)).count();
    let mean_us = |names: &[&str]| {
        mean(spans.iter().filter(|s| names.contains(&s.name)).map(Span::dur_ns)) / 1e3
    };
    // Signed mean self time per span of `per`, in µs.
    let self_us = |names: &[&str], per: &[&str]| {
        self_ns(spans, &own, names) as f64 / count(per).max(1) as f64 / 1e3
    };
    let poll = ["serve.poll"];
    let kernel = spans.iter().filter(|s| s.name == "kernel.distances_batch");
    let kernel_ns: u64 = kernel.clone().map(Span::dur_ns).sum();
    let kernel_queries: u64 = kernel.map(|s| s.items).sum();
    let st = &r.replica;
    let writes = ["replica.insert", "replica.update", "replica.delete"];
    let mut out = vec![
        Entry::metric("serve.submit_us", mean_us(&["serve.submit"]), "us"),
        Entry::metric("serve.poll_self_us", self_us(&poll, &poll), "us"),
        Entry::metric("serve.batches", r.batches as f64, "count"),
        Entry::metric("serve.batch_size_mean", ratio(r.requests, r.batches), "queries"),
        Entry::metric("replica.self_us", self_us(&["replica.serve_batch_read"], &poll), "us"),
        Entry::metric(
            "replica.reads_per_query",
            ratio(st.replica_reads, st.queries_served),
            "reads/query",
        ),
        Entry::metric(
            "replica.fallback_ratio",
            ratio(st.oracle_fallbacks, st.queries_served),
            "ratio",
        ),
        Entry::metric(
            "replica.disagreement_ratio",
            ratio(st.disagreements, st.queries_served),
            "ratio",
        ),
        Entry::metric("replica.scrubs_escalated", st.scrubs_escalated as f64, "count"),
        Entry::metric("replica.breaker_trips", st.breaker_trips as f64, "count"),
        Entry::metric("replica.build_ms", mean_us(&["replica.build"]) / 1e3, "ms"),
        Entry::metric("array.sense_us", self_us(&["array.search_batch_at"], &poll), "us"),
        Entry::metric("array.store_ms", mean_us(&["array.store"]) / 1e3, "ms"),
        Entry::metric("kernel.us_per_query", ratio(kernel_ns, kernel_queries) / 1e3, "us"),
        Entry::metric("kernel.ns_per_row_query", ratio(kernel_ns, r.rows_scanned), "ns"),
        Entry::metric("kernel.rows_scanned", r.rows_scanned as f64, "count"),
        Entry::metric("mutate.compactions", r.compactions as f64, "count"),
        Entry::metric("mutate.rotations", r.rotations as f64, "count"),
        Entry::metric(
            "sizing.encode_ms",
            mean_us(&["sizing.build", "sizing.reconfigure"]) / 1e3,
            "ms",
        ),
    ];
    if r.workload == Workload::ChurnIdeal {
        out.extend([
            Entry::metric("replica.mutation_self_us", self_us(&writes, &writes), "us"),
            Entry::metric("mutate.insert_us", mean_us(&["mutate.insert"]), "us"),
            Entry::metric("mutate.update_us", mean_us(&["mutate.update"]), "us"),
            Entry::metric("mutate.delete_us", mean_us(&["mutate.delete"]), "us"),
            Entry::metric("mutate.maintenance_us", mean_us(&["mutate.maintenance"]), "us"),
        ]);
    }
    out.push(Entry::metric("trace.self_sum_ratio", self_sum_ratio(spans, &own), "ratio"));
    out.push(pct("poll_p50_us", &r.poll_ns, 50, 1e3, "us"));
    out
}

/// The metrics of the run's result line.
fn required(r: &RunResult) -> &'static [&'static str] {
    if r.config.trace {
        &PER_LAYER
    } else {
        &END_TO_END
    }
}

/// Every entry of a run: its metrics, then labels for the checks.
pub fn entries(r: &RunResult, peak_rss_kb: Option<u64>) -> Vec<Entry> {
    let mut out = if r.config.trace { per_layer(r) } else { end_to_end(r, peak_rss_kb) };
    out.push(Entry::label("kernel.name", r.kernels.join("+")));
    out.push(Entry::label("checksum", format!("{:016x}", r.checksum)));
    out.push(Entry::label("twin_mismatches", r.twin_mismatches));
    out.push(Entry::label("attempted", r.attempted));
    out.push(Entry::label("failed", r.failed));
    out.push(Entry::label(
        "threads",
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
    ));
    out
}

/// `true` when every answer passed its check and, unless it is a smoke
/// run (too short for every percentile), every metric of the result line
/// has a value.
pub fn passed(r: &RunResult, entries: &[Entry]) -> bool {
    let complete = r.config.length == Length::Smoke
        || required(r)
            .iter()
            .all(|name| entries.iter().any(|e| e.name() == *name && e.value().is_some()));
    r.correct() && complete
}

/// The final result line: the required metrics of the run as one JSON
/// object.
pub fn result_line(r: &RunResult, entries: &[Entry], passed: bool) -> String {
    let metrics: Vec<String> = required(r)
        .iter()
        .filter_map(|name| entries.iter().find(|e| e.name() == *name))
        .filter_map(|e| match e {
            Entry::Metric { name, value: Some(v), unit, .. } => {
                Some(format!("\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}", json_num(*v)))
            }
            _ => None,
        })
        .collect();
    format!(
        "{{\"correct\": {passed}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.attempted,
        r.failed,
        metrics.join(", ")
    )
}

/// A finite float as a JSON number with every digit; non-finite as null.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

/// The versioned JSON report over `runs`: `(workload, trace, entries)`.
pub fn to_json(seed: u64, seconds: Option<u64>, runs: &[(String, bool, Vec<Entry>)]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"schema\": \"{SCHEMA}\",");
    let _ = writeln!(out, "  \"seed\": {seed},");
    let _ = writeln!(out, "  \"seconds\": {},", seconds.map_or("null".into(), |s| s.to_string()));
    out.push_str("  \"runs\": [\n");
    for (i, (workload, trace, entries)) in runs.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {{\"workload\": \"{workload}\", \"trace\": {trace}, \"entries\": {{"
        );
        for (j, e) in entries.iter().enumerate() {
            let comma = if j + 1 == entries.len() { "" } else { "," };
            let _ = match e {
                Entry::Metric { name, value, unit, samples } => writeln!(
                    out,
                    "      \"{name}\": {{\"value\": {}, \"unit\": \"{unit}\", \"samples\": {}}}{comma}",
                    value.map_or("null".into(), json_num),
                    samples.map_or("null".into(), |n| n.to_string()),
                ),
                Entry::Label { name, value } => {
                    writeln!(out, "      \"{name}\": \"{value}\"{comma}")
                }
            };
        }
        out.push_str(if i + 1 == runs.len() { "    }}\n" } else { "    }},\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

/// Parses a checksum fixture: a `seed N` line and `workload checksum`
/// lines; `#` starts a comment.
///
/// # Errors
///
/// A missing seed, an unknown workload or a malformed line.
pub fn parse_checksums(text: &str) -> Result<(u64, Vec<(Workload, String)>), String> {
    let mut seed = None;
    let mut sums = Vec::new();
    for line in text.lines().map(|l| l.split('#').next().unwrap_or("").trim()) {
        let mut words = line.split_whitespace();
        match (words.next(), words.next(), words.next()) {
            (None, _, _) => {}
            (Some("seed"), Some(n), None) => {
                seed = Some(n.parse().map_err(|_| format!("bad seed line: {line}"))?);
            }
            (Some(name), Some(sum), None) => {
                let w = Workload::from_name(name).ok_or(format!("unknown workload: {name}"))?;
                sums.push((w, sum.to_string()));
            }
            _ => return Err(format!("malformed fixture line: {line}")),
        }
    }
    Ok((seed.ok_or("fixture has no seed line")?, sums))
}

/// A checksum fixture for `seed` and `sums`, in [`parse_checksums`] form.
pub fn checksum_fixture(seed: u64, sums: &[(Workload, u64)]) -> String {
    let mut out = String::from(
        "# serve_e2e smoke-size answer checksums; verify with `serve_e2e --check FILE`.\n",
    );
    let _ = writeln!(out, "seed {seed}");
    for (w, sum) in sums {
        let _ = writeln!(out, "{} {sum:016x}", w.name());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entries_round_trip_through_their_lines() {
        let entries = [
            Entry::Metric {
                name: "qps".into(),
                value: Some(98.25),
                unit: "1/s".into(),
                samples: None,
            },
            Entry::Metric {
                name: "latency_p99_us".into(),
                value: None,
                unit: "us".into(),
                samples: Some(12),
            },
            Entry::label("kernel.name", "lut+bitplane-popcount"),
        ];
        for e in entries {
            let line = e.line("point-ideal", true);
            assert_eq!(Entry::parse(&line), Some(("point-ideal".to_string(), true, e)), "{line}");
        }
        assert_eq!(Entry::parse("{\"correct\": true}"), None);
    }

    #[test]
    fn fixtures_round_trip_and_reject_unknown_workloads() {
        let text =
            checksum_fixture(42, &[(Workload::PointIdeal, 0xabc), (Workload::ChurnIdeal, 7)]);
        let (seed, sums) = parse_checksums(&text).expect("parses");
        assert_eq!(seed, 42);
        assert_eq!(
            sums,
            vec![
                (Workload::PointIdeal, "0000000000000abc".to_string()),
                (Workload::ChurnIdeal, "0000000000000007".to_string())
            ]
        );
        assert!(parse_checksums("seed 1\nnope 00").is_err());
        assert!(parse_checksums("point-ideal 00").is_err());
    }
}
