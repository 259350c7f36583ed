//! In-memory span recorder, self-time accounting and the percentile guard.
//!
//! Spans are recorded around calls into each layer's public functions,
//! kept in memory and written out as JSONL when the run ends. A span's
//! *self time* is its duration minus the part of its interval that its
//! child spans cover.
//!
//! Replayed spans — the twin's `serve_batch_read`, `search_batch_at` and
//! `distances_batch` calls that split a real `poll` into layers — run
//! after the call they explain, so they are re-based: a replayed child is
//! laid out from its parent's start, siblings back to back. Only their
//! durations carry information. A replay may outlast the call it explains
//! (timing jitter, or a replay that is not representative); its interval
//! is then not clipped, and the parent's self time goes negative. Signed
//! self times sum exactly to the root spans, so per-layer totals are not
//! biased by jitter, and a layer total below zero shows a replay that
//! does not represent the real call.

use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Index of the span in its trace.
    pub id: usize,
    /// The span that caused this one.
    pub parent: Option<usize>,
    /// `layer.function`, e.g. `serve.poll` or `kernel.distances_batch`.
    pub name: &'static str,
    /// Sequence number of the operation (request round, mutation, switch)
    /// the span belongs to; spans of one operation share it.
    pub op: u64,
    /// Start, in ns since the trace origin.
    pub start_ns: u64,
    /// End, in ns since the trace origin.
    pub end_ns: u64,
    /// Queries the call handled (0 where it handles none).
    pub items: u64,
}

impl Span {
    /// Duration in ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Length of the union of `children` from `start` on (children are not
/// clipped at the parent's end; see the module docs).
fn covered_ns(start: u64, children: &mut [(u64, u64)]) -> u64 {
    children.sort_unstable();
    let mut covered = 0;
    let mut reach = start;
    for &(s, e) in children.iter() {
        let s = s.max(reach);
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    covered
}

/// The spans of one run.
#[derive(Debug, Clone)]
pub struct Trace {
    origin: Instant,
    spans: Vec<Span>,
}

impl Trace {
    /// An empty trace whose timestamps count from `origin`.
    pub fn new(origin: Instant) -> Self {
        Trace { origin, spans: Vec::new() }
    }

    /// Every span, in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn ns(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    fn push(
        &mut self,
        parent: Option<usize>,
        name: &'static str,
        op: u64,
        start_ns: u64,
        end_ns: u64,
        items: u64,
    ) -> usize {
        let id = self.spans.len();
        self.spans.push(Span { id, parent, name, op, start_ns, end_ns, items });
        id
    }

    /// Records a span measured in place between `start` and `end`.
    pub fn record(
        &mut self,
        parent: Option<usize>,
        name: &'static str,
        op: u64,
        (start, end): (Instant, Instant),
        items: u64,
    ) -> usize {
        let (s, e) = (self.ns(start), self.ns(end));
        self.push(parent, name, op, s, e, items)
    }

    /// Records a replayed span of `dur_ns` under `parent`, laid out after
    /// the parent's start and its previously recorded children.
    pub fn record_replayed(
        &mut self,
        parent: usize,
        name: &'static str,
        dur_ns: u64,
        items: u64,
    ) -> usize {
        let (op, parent_start) = self.spans.get(parent).map_or((0, 0), |p| (p.op, p.start_ns));
        // Children are recorded after their parent, so only the tail is
        // scanned.
        let start = self
            .spans
            .get(parent + 1..)
            .unwrap_or_default()
            .iter()
            .filter(|s| s.parent == Some(parent))
            .map(|s| s.end_ns)
            .max()
            .unwrap_or(parent_start);
        self.push(Some(parent), name, op, start, start.saturating_add(dur_ns), items)
    }

    /// Drops every span recorded after the first `len` (warm-up spans).
    pub fn truncate(&mut self, len: usize) {
        self.spans.truncate(len);
    }

    /// Signed self time of every span in ns, indexed like
    /// [`Trace::spans`]: its duration minus the union of its children's
    /// intervals.
    pub fn self_times(&self) -> Vec<i64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(c) = s.parent.and_then(|p| children.get_mut(p)) {
                c.push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(&mut children)
            .map(|(s, c)| s.dur_ns() as i64 - covered_ns(s.start_ns, c) as i64)
            .collect()
    }

    /// The spans as JSONL, one object per line, tagged with `workload`.
    pub fn to_jsonl(&self, workload: &str) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let parent = s.parent.map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\": {}, \"parent\": {parent}, \"name\": \"{}\", \"workload\": \"{workload}\", \
                 \"op\": {}, \"start_ns\": {}, \"end_ns\": {}, \"items\": {}}}",
                s.id, s.name, s.op, s.start_ns, s.end_ns, s.items
            );
        }
        out
    }
}

/// Fewest samples a reported percentile must have beyond it.
pub const MIN_BEYOND: u64 = 10;

/// Samples needed before the `q_num/q_den` percentile may be reported.
pub fn samples_needed(q_num: u64, q_den: u64) -> usize {
    (1..=1 << 32)
        .find(|&n: &u64| n.saturating_sub((n * q_num).div_ceil(q_den)) >= MIN_BEYOND)
        .map_or(usize::MAX, |n| n as usize)
}

/// Nearest-rank `q_num/q_den` percentile of `sorted`, or `None` when fewer
/// than [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(sorted: &[u64], q_num: u64, q_den: u64) -> Option<u64> {
    (sorted.len() >= samples_needed(q_num, q_den))
        .then(|| ferex_core::stats::percentile(sorted, q_num, q_den))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span { id, parent, name: "x.y", op: 0, start_ns, end_ns, items: 0 }
    }

    #[test]
    fn self_time_subtracts_the_union_of_child_intervals() {
        let trace = Trace {
            origin: Instant::now(),
            spans: vec![
                span(0, None, 0, 100),
                // Overlapping children cover [10, 50): counted once.
                span(1, Some(0), 10, 40),
                span(2, Some(0), 30, 50),
                // A child running past its parent's end counts in full.
                span(3, Some(0), 90, 120),
                // A grandchild only reduces its own parent.
                span(4, Some(1), 10, 15),
                span(5, None, 200, 210),
            ],
        };
        assert_eq!(trace.self_times(), vec![30, 25, 20, 30, 5, 10]);
    }

    #[test]
    fn replayed_children_are_laid_out_back_to_back_from_the_parent_start() {
        let origin = Instant::now();
        let mut trace = Trace::new(origin);
        let poll = trace.record(None, "serve.poll", 7, (origin, origin), 1);
        if let Some(p) = trace.spans.get_mut(poll) {
            (p.start_ns, p.end_ns) = (1_000, 2_000);
        }
        let read = trace.record_replayed(poll, "replica.serve_batch_read", 800, 1);
        let a = trace.record_replayed(read, "array.search_batch_at", 300, 1);
        let b = trace.record_replayed(read, "array.search_batch_at", 300, 1);
        let spans = trace.spans();
        assert_eq!((spans[read].start_ns, spans[read].end_ns), (1_000, 1_800));
        assert_eq!((spans[a].start_ns, spans[b].start_ns), (1_000, 1_300));
        assert!(spans.iter().all(|s| s.op == 7));
        assert_eq!(trace.self_times(), vec![200, 200, 300, 300]);
        // A replay that outlasts the call it explains makes the parent's
        // self time negative; the self times still sum to the root span.
        let slow = trace.record_replayed(b, "kernel.distances_batch", 500, 1);
        let self_ns = trace.self_times();
        assert_eq!(self_ns[b], -200);
        assert_eq!(self_ns[slow], 500);
        assert_eq!(self_ns.iter().sum::<i64>(), 1_000);
    }

    #[test]
    fn percentiles_need_ten_samples_beyond_them() {
        assert_eq!(samples_needed(50, 100), 20);
        assert_eq!(samples_needed(99, 100), 1000);
        assert_eq!(samples_needed(95, 100), 200);
        let sorted: Vec<u64> = (1..=999).collect();
        assert_eq!(percentile(&sorted, 99, 100), None);
        assert_eq!(percentile(&sorted, 50, 100), Some(500));
        let sorted: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile(&sorted, 99, 100), Some(990));
        assert_eq!(percentile(&[], 50, 100), None);
    }

    #[test]
    fn spans_serialize_one_json_object_per_line() {
        let trace = Trace {
            origin: Instant::now(),
            spans: vec![span(0, None, 1, 2), span(1, Some(0), 1, 2)],
        };
        let jsonl = trace.to_jsonl("point-ideal");
        assert_eq!(jsonl.lines().count(), 2);
        assert!(jsonl.starts_with(
            "{\"id\": 0, \"parent\": null, \"name\": \"x.y\", \"workload\": \"point-ideal\""
        ));
        assert!(jsonl.contains("\"parent\": 0,"));
    }
}
