//! Seeded core-kernel benchmark grid behind `BENCH_core_kernels.json`.
//!
//! Measures the batched distance kernels of
//! [`ferex_core::FerexArray::distances_batch`] against a per-query loop of
//! [`ferex_core::FerexArray::distances`] calls (each a batch of one), over
//! the {metric × bits × backend × rows × batch} grid. Ideal answers are
//! checked against the exact digital oracle ([`ferex_conformance::Oracle`]),
//! Noisy batches against the per-query row loop they must reproduce
//! bit-identically. Every grid point carries
//! a deterministic checksum folded from the exact bit pattern of every
//! distance the batch kernel returns, so the committed report doubles as a
//! determinism fixture: `--check` recomputes the checksums (no timing) and
//! fails on schema or checksum drift. Timings are environment-dependent
//! and are never part of the check — they are the perf *trajectory*, not
//! the gate.
//!
//! The grid covers the Ideal and Noisy backends. Circuit is deliberately
//! excluded: it re-solves the crossbar per query, so its batch path is a
//! per-query fan-out by construction and a 10k-row grid point would
//! dominate the whole suite's runtime without exercising any batch kernel.
//!
//! The `scalar_ns_per_query` key keeps its name for schema stability. On
//! Noisy points it times the per-query row loop; on Ideal points, where no
//! scalar path is left, it times the per-query loop through the same SoA
//! kernel, so it shows what batching saves over one-at-a-time serving.
//!
//! The report is written through [`ferex_conformance::json`], the writer
//! every conformance report shares.

use ferex_conformance::{json, Oracle};
use ferex_core::{Backend, CircuitConfig, DistanceMetric, Ferex};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// Schema tag of the machine-readable report; bump on breaking changes.
pub const SCHEMA: &str = "ferex-bench-kernels-v1";

/// Symbol dimension shared by every grid point.
pub const DIM: usize = 64;

/// One cell of the benchmark grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GridPoint {
    /// Distance metric the array is configured for.
    pub metric: DistanceMetric,
    /// Symbol bit width.
    pub bits: u32,
    /// `true` for the Noisy statistical backend, `false` for Ideal.
    pub noisy: bool,
    /// Stored rows.
    pub rows: usize,
    /// Symbols per row.
    pub dim: usize,
    /// Queries per batch.
    pub batch: usize,
}

impl GridPoint {
    /// Stable identifier used to pair checksums across report generations.
    pub fn id(&self) -> String {
        format!(
            "{}-b{}/{}/r{}xd{}/q{}",
            metric_slug(self.metric),
            self.bits,
            self.backend_name(),
            self.rows,
            self.dim,
            self.batch
        )
    }

    /// `"noisy"` or `"ideal"`.
    pub fn backend_name(&self) -> &'static str {
        if self.noisy {
            "noisy"
        } else {
            "ideal"
        }
    }
}

/// Lower-case metric tag used in point ids and JSON.
pub fn metric_slug(metric: DistanceMetric) -> &'static str {
    match metric {
        DistanceMetric::Hamming => "hamming",
        DistanceMetric::Manhattan => "manhattan",
        DistanceMetric::EuclideanSquared => "euclidean2",
    }
}

/// The standard grid: 4 metric/width combinations × {Ideal, Noisy} ×
/// {1k, 10k} rows × {1, 8, 64} queries — 48 points, including the
/// acceptance point (Noisy, 64 queries × 10k rows).
///
/// The width axis covers the paper's 1- and 2-bit operating points; the
/// default encoding pipeline's feasibility search cannot realize ≥ 3-bit
/// symbol alphabets within its resource limits, so wider widths would
/// abort the grid rather than measure anything.
pub fn standard_grid() -> Vec<GridPoint> {
    let combos: [(DistanceMetric, u32); 4] = [
        (DistanceMetric::Hamming, 2),
        (DistanceMetric::Hamming, 1),
        (DistanceMetric::Manhattan, 2),
        (DistanceMetric::EuclideanSquared, 2),
    ];
    let mut grid = Vec::new();
    for &(metric, bits) in &combos {
        for &noisy in &[false, true] {
            for &rows in &[1_000usize, 10_000] {
                for &batch in &[1usize, 8, 64] {
                    grid.push(GridPoint { metric, bits, noisy, rows, dim: DIM, batch });
                }
            }
        }
    }
    grid
}

/// 64-bit avalanche mix (the final mixer of MurmurHash3/SplitMix64):
/// deterministic, order-sensitive folding for checksums and sub-seeds.
fn mix(mut h: u64, v: u64) -> u64 {
    h ^= v;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^ (h >> 33)
}

/// Folds a batch of distance vectors into one order-sensitive checksum
/// over the exact `f64` bit patterns — two runs agree iff every distance
/// is bit-identical.
pub fn checksum(distances: &[Vec<f64>]) -> u64 {
    let mut h = 0x9e37_79b9_7f4a_7c15;
    for row in distances {
        h = mix(h, row.len() as u64);
        for &d in row {
            h = mix(h, d.to_bits());
        }
    }
    h
}

/// Per-fixture sub-seed: distinct engines and query sets across grid
/// coordinates, reproducible from the one base seed.
fn sub_seed(base: u64, point: &GridPoint, salt: u64) -> u64 {
    let mut h = mix(base, salt);
    h = mix(h, point.metric as u64);
    h = mix(h, u64::from(point.bits));
    h = mix(h, u64::from(point.noisy));
    h = mix(h, point.rows as u64);
    h = mix(h, point.dim as u64);
    h
}

/// Builds and programs the engine a grid point is measured on: `rows`
/// random `bits`-bit vectors under the point's metric and backend.
///
/// # Errors
///
/// Encoding-pipeline failures.
pub fn grid_engine(point: &GridPoint, seed: u64) -> Result<Ferex, ferex_core::FerexError> {
    let backend = if point.noisy {
        Backend::Noisy(Box::new(CircuitConfig {
            seed: sub_seed(seed, point, 0xb0),
            ..Default::default()
        }))
    } else {
        Backend::Ideal
    };
    let mut engine = Ferex::builder()
        .metric(point.metric)
        .bits(point.bits)
        .dim(point.dim)
        .backend(backend)
        .build()?;
    let top = 1u32 << point.bits;
    let mut rng = StdRng::seed_from_u64(sub_seed(seed, point, 0xda));
    for _ in 0..point.rows {
        engine.store((0..point.dim).map(|_| rng.gen_range(0..top)).collect())?;
    }
    engine.ensure_programmed()?;
    Ok(engine)
}

/// The point's deterministic query batch.
pub fn grid_queries(point: &GridPoint, seed: u64) -> Vec<Vec<u32>> {
    let top = 1u32 << point.bits;
    let mut rng = StdRng::seed_from_u64(sub_seed(seed, point, 0x9e));
    (0..point.batch).map(|_| (0..point.dim).map(|_| rng.gen_range(0..top)).collect()).collect()
}

/// One measured grid point.
#[derive(Debug, Clone)]
pub struct PointResult {
    /// The grid coordinates.
    pub point: GridPoint,
    /// Kernel the batch dispatched to (from
    /// [`ferex_core::FerexArray::batch_kernel`]).
    pub kernel: &'static str,
    /// Order-sensitive fold of every distance's bit pattern.
    pub checksum: u64,
    /// Mean wall time per query through `distances_batch`, or `None` on an
    /// untimed (check) run.
    pub batch_ns_per_query: Option<f64>,
    /// Mean wall time per query through a loop of single `distances`
    /// calls (the Noisy row loop; on Ideal, the same kernel one query at a
    /// time).
    pub scalar_ns_per_query: Option<f64>,
}

impl PointResult {
    /// Per-query-loop time over batch time (> 1 means batching wins).
    pub fn speedup(&self) -> Option<f64> {
        match (self.scalar_ns_per_query, self.batch_ns_per_query) {
            (Some(s), Some(b)) if b > 0.0 => Some(s / b),
            _ => None,
        }
    }
}

/// Adaptive mean wall time of `f` in nanoseconds: one warm-up/pilot run,
/// then enough repeats to accumulate ≥ 50 ms (capped at 200), so fast
/// points average over many runs and slow points do not stall the grid.
fn time_ns<F: FnMut()>(mut f: F) -> f64 {
    let pilot = Instant::now();
    f();
    let first = pilot.elapsed().as_secs_f64();
    if first >= 0.2 {
        return first * 1e9;
    }
    let iters = ((0.05 / first.max(1e-9)).ceil() as usize).clamp(1, 200);
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    start.elapsed().as_secs_f64() / iters as f64 * 1e9
}

/// Measures one grid point on a prepared engine: computes the batch
/// distances, checks them on a sample of queries (all of them up to 4 —
/// the full-grid proof lives in the core property tests and the
/// conformance sweep) against the exact digital oracle on Ideal and bit
/// for bit against the per-query row loop on Noisy, folds the checksum,
/// and (when `timed`) measures the batch and the per-query loop.
///
/// # Errors
///
/// Search errors, or a mismatch (which is a kernel bug).
pub fn measure_point(
    engine: &Ferex,
    point: &GridPoint,
    seed: u64,
    timed: bool,
) -> Result<PointResult, String> {
    let queries = grid_queries(point, seed);
    let array = engine.array();
    let batch = array.distances_batch(&queries).map_err(|e| format!("{}: {e}", point.id()))?;
    let oracle = (!point.noisy).then(|| {
        Oracle::new(point.metric, (0..array.len()).filter_map(|r| array.row_vector(r)).collect())
    });
    for (qi, (q, got)) in queries.iter().zip(&batch).take(4).enumerate() {
        let (want, reference) = match &oracle {
            Some(o) => (o.distances(q).into_iter().map(|d| d as f64).collect(), "digital oracle"),
            None => {
                (array.distances(q).map_err(|e| format!("{}: {e}", point.id()))?, "per-query path")
            }
        };
        if *got != want {
            return Err(format!(
                "{}: batch kernel diverged from the {reference} on query {qi}",
                point.id()
            ));
        }
    }
    let sum = checksum(&batch);
    let (batch_ns, scalar_ns) = if timed {
        let b = time_ns(|| {
            let out = array.distances_batch(&queries).expect("measured batch repeats");
            std::hint::black_box(out);
        }) / point.batch as f64;
        let s = time_ns(|| {
            for q in &queries {
                let out = array.distances(q).expect("measured scalar repeats");
                std::hint::black_box(out);
            }
        }) / point.batch as f64;
        (Some(b), Some(s))
    } else {
        (None, None)
    };
    Ok(PointResult {
        point: *point,
        kernel: array.batch_kernel(point.batch),
        checksum: sum,
        batch_ns_per_query: batch_ns,
        scalar_ns_per_query: scalar_ns,
    })
}

/// Runs the whole grid, reusing one engine per (metric, bits, backend,
/// rows) fixture across its batch sizes. `progress` receives each finished
/// point (for console tables).
///
/// # Errors
///
/// Engine-construction or measurement failures.
pub fn run_grid(
    grid: &[GridPoint],
    seed: u64,
    timed: bool,
    mut progress: impl FnMut(&PointResult),
) -> Result<Vec<PointResult>, String> {
    let mut results = Vec::with_capacity(grid.len());
    let mut engine: Option<(GridPoint, Ferex)> = None;
    for point in grid {
        let fixture = GridPoint { batch: 0, ..*point };
        let reuse = matches!(&engine, Some((have, _)) if *have == fixture);
        if !reuse {
            let built = grid_engine(point, seed).map_err(|e| format!("{}: {e}", point.id()))?;
            engine = Some((fixture, built));
        }
        let (_, eng) = engine.as_ref().expect("engine just built");
        let result = measure_point(eng, point, seed, timed)?;
        progress(&result);
        results.push(result);
    }
    Ok(results)
}

/// The machine-readable kernel report.
#[derive(Debug, Clone)]
pub struct KernelsReport {
    /// Base seed every fixture derives from.
    pub seed: u64,
    /// Whether timings were measured (false for check runs).
    pub timed: bool,
    /// One entry per grid point, in grid order.
    pub points: Vec<PointResult>,
}

impl KernelsReport {
    /// Smallest batch-vs-scalar speedup over the acceptance grid points
    /// (Noisy backend, 64-query batches on 10k rows). `None` on untimed
    /// runs or if the grid lacks those points.
    pub fn acceptance_speedup(&self) -> Option<f64> {
        self.points
            .iter()
            .filter(|p| p.point.noisy && p.point.rows == 10_000 && p.point.batch == 64)
            .map(|p| p.speedup())
            .try_fold(f64::INFINITY, |acc, s| s.map(|s| acc.min(s)))
            .filter(|m| m.is_finite())
    }

    /// Serializes to the versioned JSON schema. Checksums are emitted as
    /// fixed-width hex strings so the file round-trips exactly; timings
    /// are numbers with one decimal (one `"timings": null` on untimed runs)
    /// and carry no determinism contract.
    pub fn to_json(&self) -> String {
        json::document(|o| {
            o.str("schema", SCHEMA).num("seed", self.seed).num("dim", DIM).num("timed", self.timed);
            o.objects("points", &self.points, false, |o, p| {
                o.str("id", &p.point.id())
                    .str("metric", metric_slug(p.point.metric))
                    .num("bits", p.point.bits)
                    .str("backend", p.point.backend_name())
                    .num("rows", p.point.rows)
                    .num("dim", p.point.dim)
                    .num("batch", p.point.batch)
                    .str("kernel", p.kernel)
                    .str("checksum", &format!("{:016x}", p.checksum));
                match (p.batch_ns_per_query, p.scalar_ns_per_query, p.speedup()) {
                    (Some(b), Some(s), Some(x)) => {
                        o.fixed("batch_ns_per_query", b, 1)
                            .fixed("scalar_ns_per_query", s, 1)
                            .fixed("speedup", x, 1);
                    }
                    _ => {
                        o.null("timings");
                    }
                }
            });
        })
    }
}

/// Extracts `(schema, [(id, checksum-hex)])` from a previously written
/// report, pairing each point's `"id"` with the `"checksum"` that follows
/// it. A hand-rolled scan — the schema is ours and line-oriented — so the
/// check needs no JSON dependency.
///
/// # Errors
///
/// Malformed reports: missing schema, or a checksum without a preceding id.
pub fn parse_point_checksums(json: &str) -> Result<(String, Vec<(String, String)>), String> {
    fn quoted_value<'a>(line: &'a str, key: &str) -> Option<&'a str> {
        let rest = line.trim().strip_prefix(&format!("\"{key}\": \""))?;
        rest.split('"').next()
    }
    let mut schema = None;
    let mut pending_id: Option<String> = None;
    let mut points = Vec::new();
    for line in json.lines() {
        if let Some(v) = quoted_value(line, "schema") {
            schema = Some(v.to_string());
        } else if let Some(v) = quoted_value(line, "id") {
            pending_id = Some(v.to_string());
        } else if let Some(v) = quoted_value(line, "checksum") {
            let id = pending_id.take().ok_or("checksum without a preceding id")?;
            points.push((id, v.to_string()));
        }
    }
    Ok((schema.ok_or("report has no schema field")?, points))
}

/// Compares freshly computed results against a previously written report:
/// schema must match, every baseline point must be present with an
/// identical checksum, and no baseline point may have vanished. Returns
/// the list of human-readable drift descriptions (empty = clean).
pub fn drift(baseline_json: &str, fresh: &[PointResult]) -> Result<Vec<String>, String> {
    let (schema, baseline) = parse_point_checksums(baseline_json)?;
    let mut drifts = Vec::new();
    if schema != SCHEMA {
        drifts.push(format!("schema drift: baseline \"{schema}\", binary \"{SCHEMA}\""));
    }
    for (id, want) in &baseline {
        match fresh.iter().find(|p| p.point.id() == *id) {
            None => drifts.push(format!("{id}: present in baseline, not produced by this grid")),
            Some(p) => {
                let got = format!("{:016x}", p.checksum);
                if got != *want {
                    drifts.push(format!("{id}: checksum drift (baseline {want}, got {got})"));
                }
            }
        }
    }
    for p in fresh {
        let id = p.point.id();
        if !baseline.iter().any(|(have, _)| *have == id) {
            drifts.push(format!("{id}: produced by this grid, missing from baseline"));
        }
    }
    Ok(drifts)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(noisy: bool, metric: DistanceMetric, batch: usize) -> GridPoint {
        GridPoint { metric, bits: 2, noisy, rows: 40, dim: 16, batch }
    }

    #[test]
    fn standard_grid_contains_the_acceptance_point_with_unique_ids() {
        let grid = standard_grid();
        assert_eq!(grid.len(), 48);
        let mut ids: Vec<String> = grid.iter().map(GridPoint::id).collect();
        assert!(ids.contains(&"hamming-b2/noisy/r10000xd64/q64".to_string()));
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), 48, "grid ids must be unique");
    }

    #[test]
    fn checksum_is_deterministic_and_order_sensitive() {
        let a = vec![vec![1.0, 2.0], vec![3.0]];
        let b = vec![vec![2.0, 1.0], vec![3.0]];
        assert_eq!(checksum(&a), checksum(&a));
        assert_ne!(checksum(&a), checksum(&b));
        assert_ne!(checksum(&a), checksum(&a[..1]));
    }

    #[test]
    fn measured_points_are_bit_identical_and_label_their_kernel() {
        for (noisy, metric, batch, kernel) in [
            (false, DistanceMetric::Hamming, 5, "bitplane-popcount"),
            (false, DistanceMetric::Manhattan, 5, "lut"),
            (true, DistanceMetric::Hamming, 1, "scalar"),
            (true, DistanceMetric::EuclideanSquared, 5, "contrib-table"),
        ] {
            let point = tiny(noisy, metric, batch);
            let engine = grid_engine(&point, 7).expect("fixture builds");
            let result = measure_point(&engine, &point, 7, false).expect("bit-identical");
            assert_eq!(result.kernel, kernel, "{}", point.id());
            assert!(result.batch_ns_per_query.is_none(), "untimed run carries no timings");
            // Same seed, same checksum — the determinism contract --check
            // relies on.
            let again = measure_point(&engine, &point, 7, false).expect("repeats");
            assert_eq!(result.checksum, again.checksum);
        }
    }

    #[test]
    fn report_roundtrips_through_the_check_parser() {
        let point = tiny(false, DistanceMetric::Hamming, 3);
        let engine = grid_engine(&point, 11).expect("fixture builds");
        let result = measure_point(&engine, &point, 11, false).expect("measures");
        let report = KernelsReport { seed: 11, timed: false, points: vec![result.clone()] };
        let json = report.to_json();
        let (schema, points) = parse_point_checksums(&json).expect("parses");
        assert_eq!(schema, SCHEMA);
        assert_eq!(points, vec![(point.id(), format!("{:016x}", result.checksum))]);
        // A clean baseline reports no drift; a tampered checksum does.
        assert_eq!(
            drift(&json, std::slice::from_ref(&result)).expect("compares"),
            Vec::<String>::new()
        );
        let tampered = json.replacen(&format!("{:016x}", result.checksum), "deadbeef00000000", 1);
        let drifts = drift(&tampered, &[result]).expect("compares");
        assert_eq!(drifts.len(), 1);
        assert!(drifts[0].contains("checksum drift"), "{drifts:?}");
    }

    #[test]
    fn report_layout_is_pinned() {
        // `--check` reads only the id and checksum lines, so the rest of the
        // layout is pinned here: an untimed report, then a timed one.
        let points = |timed: bool| {
            [
                (DistanceMetric::Hamming, false, 8, "bitplane-popcount", 0x43fc_b8ca_85d6_2088),
                (DistanceMetric::Manhattan, false, 1, "lut", 0x00ab_cdef_0123_4567),
                (DistanceMetric::EuclideanSquared, true, 64, "contrib-table", 9),
            ]
            .into_iter()
            .zip([(33_606.25, 988_987.6), (1_250.05, 1_249.95), (90.0, 7_123.4)])
            .map(|((metric, noisy, batch, kernel, checksum), (b, s))| PointResult {
                point: GridPoint { metric, bits: 2, noisy, rows: 1_000, dim: DIM, batch },
                kernel,
                checksum,
                batch_ns_per_query: timed.then_some(b),
                scalar_ns_per_query: timed.then_some(s),
            })
            .collect()
        };
        let untimed = KernelsReport { seed: 42, timed: false, points: points(false) };
        let timed = KernelsReport { seed: 7, timed: true, points: points(true) };
        assert_eq!(
            untimed.to_json() + &timed.to_json(),
            include_str!("../fixtures/kernels_report_layout.json")
        );
    }

    #[test]
    fn acceptance_speedup_takes_the_worst_noisy_batch64_point() {
        let mk = |noisy, rows, batch, b: f64, s: f64| PointResult {
            point: GridPoint {
                metric: DistanceMetric::Hamming,
                bits: 2,
                noisy,
                rows,
                dim: DIM,
                batch,
            },
            kernel: "contrib-table",
            checksum: 0,
            batch_ns_per_query: Some(b),
            scalar_ns_per_query: Some(s),
        };
        let report = KernelsReport {
            seed: 0,
            timed: true,
            points: vec![
                mk(true, 10_000, 64, 10.0, 80.0),  // 8x
                mk(true, 10_000, 64, 10.0, 35.0),  // 3.5x — the minimum
                mk(true, 10_000, 8, 10.0, 10.0),   // not an acceptance point
                mk(false, 10_000, 64, 10.0, 10.0), // not noisy
            ],
        };
        let min = report.acceptance_speedup().expect("timed points exist");
        assert!((min - 3.5).abs() < 1e-9, "{min}");
        let untimed = KernelsReport { seed: 0, timed: false, points: Vec::new() };
        assert_eq!(untimed.acceptance_speedup(), None);
    }
}
