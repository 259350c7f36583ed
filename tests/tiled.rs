//! Integration tests: tiled arrays and digital readout across crates.

use ferex::analog::adc::AdcParams;
use ferex::core::array::{Backend, CircuitConfig, FerexArray};
use ferex::core::tile::TiledArray;
use ferex::core::{find_minimal_cell, sizing_for, DistanceMatrix, DistanceMetric};
use ferex::fefet::units::Amp;
use ferex::fefet::Technology;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn random_vectors(n: usize, dim: usize, seed: u64) -> Vec<Vec<u32>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n).map(|_| (0..dim).map(|_| rng.gen_range(0..4u32)).collect()).collect()
}

/// A HDC-scale vector split over realistic 64-symbol tiles matches the
/// monolithic ideal array exactly and agrees with software distances.
#[test]
fn hdc_scale_tiling_is_exact_on_ideal_backend() {
    let dim = 500; // not a multiple of the tile width
    let tile_dim = 64;
    let tech = Technology::default();
    let dm = DistanceMatrix::from_metric(DistanceMetric::Manhattan, 2);
    let enc = find_minimal_cell(&dm, &sizing_for(&tech)).expect("sizes").encoding;

    let mut mono = FerexArray::new(tech.clone(), enc.clone(), dim, Backend::Ideal);
    let mut tiled = TiledArray::new(tech, enc, dim, tile_dim, Backend::Ideal);
    let stored = random_vectors(8, dim, 1);
    for v in &stored {
        mono.store(v.clone()).unwrap();
        tiled.store(v.clone()).unwrap();
    }
    let query = random_vectors(1, dim, 2).remove(0);
    let a = mono.search(&query).unwrap();
    let b = tiled.search(&query).unwrap();
    assert_eq!(a.distances, b.distances);
    assert_eq!(a.nearest, b.nearest);
    let m = DistanceMetric::Manhattan;
    for (r, s) in stored.iter().enumerate() {
        assert_eq!(b.distances[r], m.vector_distance(&query, s) as f64);
    }
}

/// Tiled search under device variation stays close to the true distances
/// (the per-tile errors average out rather than accumulate).
#[test]
fn tiled_noisy_errors_average_out() {
    let dim = 256;
    let tech = Technology::default();
    let dm = DistanceMatrix::from_metric(DistanceMetric::Hamming, 2);
    let enc = find_minimal_cell(&dm, &sizing_for(&tech)).expect("sizes").encoding;
    let cfg = CircuitConfig { seed: 9, ..Default::default() };
    let mut tiled = TiledArray::new(tech, enc, dim, 64, Backend::Noisy(Box::new(cfg)));
    let stored = random_vectors(4, dim, 3);
    for v in &stored {
        tiled.store(v.clone()).unwrap();
    }
    tiled.program(); // explicit write→search transition for the noisy tiles
    let query = random_vectors(1, dim, 4).remove(0);
    let out = tiled.search(&query).unwrap();
    let m = DistanceMetric::Hamming;
    for (r, s) in stored.iter().enumerate() {
        let want = m.vector_distance(&query, s) as f64;
        let got = out.distances[r];
        // Hundreds of independent per-cell deviations: the aggregate error
        // stays within a few percent of the true distance.
        assert!((got - want).abs() / want.max(1.0) < 0.05, "row {r}: sensed {got}, true {want}");
    }
}

/// Digital readout through the auto-ranged ADC preserves the LTA's nearest
/// decision and yields codes proportional to distance.
#[test]
fn adc_readout_agrees_with_analog_decision() {
    let tech = Technology::default();
    let dm = DistanceMatrix::from_metric(DistanceMetric::Hamming, 2);
    let enc = find_minimal_cell(&dm, &sizing_for(&tech)).expect("sizes").encoding;
    let mut array = FerexArray::new(tech, enc, 32, Backend::Ideal);
    let stored = random_vectors(6, 32, 5);
    for v in &stored {
        array.store(v.clone()).unwrap();
    }
    let query = random_vectors(1, 32, 6).remove(0);
    let analog = array.search(&query).unwrap();
    let adc = AdcParams { bits: 12, full_scale: Amp(0.0), ..Default::default() };
    let readout = array.read_digital(&query, &adc, 4).unwrap();
    let digital_nearest =
        readout.codes.iter().enumerate().min_by_key(|(_, &c)| c).map(|(i, _)| i).unwrap();
    assert_eq!(digital_nearest, analog.nearest);
    // Codes preserve the full distance ordering at 12-bit resolution.
    let mut by_distance: Vec<usize> = (0..stored.len()).collect();
    by_distance.sort_by(|&a, &b| analog.distances[a].total_cmp(&analog.distances[b]));
    let mut by_code: Vec<usize> = (0..stored.len()).collect();
    by_code.sort_by_key(|&i| (readout.codes[i], i));
    // Orderings agree whenever distances are distinct.
    for (da, ca) in by_distance.iter().zip(&by_code) {
        if analog.distances[*da] != analog.distances[*ca] {
            panic!("orderings diverge: distance-ranked {da} vs code-ranked {ca}");
        }
    }
}

/// k-nearest through tiles matches the brute-force ranking.
#[test]
fn tiled_search_k_matches_brute_force() {
    let tech = Technology::default();
    let dm = DistanceMatrix::from_metric(DistanceMetric::EuclideanSquared, 2);
    let enc = find_minimal_cell(&dm, &sizing_for(&tech)).expect("sizes").encoding;
    let mut tiled = TiledArray::new(tech, enc, 20, 6, Backend::Ideal);
    let stored = random_vectors(10, 20, 7);
    for v in &stored {
        tiled.store(v.clone()).unwrap();
    }
    let query = random_vectors(1, 20, 8).remove(0);
    let top = tiled.search_k(&query, 5).unwrap();
    let m = DistanceMetric::EuclideanSquared;
    let mut expect: Vec<usize> = (0..stored.len()).collect();
    expect.sort_by_key(|&i| (m.vector_distance(&query, &stored[i]), i));
    assert_eq!(top, expect[..5].to_vec());
}

/// A failed `store` is atomic: every tile's contents, programming state and
/// search results are byte-identical to the pre-call state — even when the
/// invalid chunk lands in the *last* tile, after every earlier tile has
/// already validated its own chunk.
#[test]
fn failed_store_leaves_every_tile_untouched() {
    let (dim, tile_dim) = (20, 6); // ragged split: tiles of 6, 6, 6, 2
    let tech = Technology::default();
    let dm = DistanceMatrix::from_metric(DistanceMetric::Manhattan, 2);
    let enc = find_minimal_cell(&dm, &sizing_for(&tech)).expect("sizes").encoding;
    let mut tiled = TiledArray::new(
        tech,
        enc,
        dim,
        tile_dim,
        Backend::Noisy(Box::new(CircuitConfig { seed: 31, ..Default::default() })),
    );
    for v in random_vectors(5, dim, 30) {
        tiled.store(v).unwrap();
    }
    tiled.program();
    let query = random_vectors(1, dim, 32).remove(0);
    let rows = |t: &FerexArray| (0..t.len()).filter_map(|r| t.row_vector(r)).collect::<Vec<_>>();
    let snapshot: Vec<Vec<Vec<u32>>> = tiled.tiles().iter().map(rows).collect();
    let baseline = tiled.search(&query).unwrap();

    // Out-of-range symbol in the final chunk: earlier tiles validate clean.
    let mut bad = random_vectors(1, dim, 33).remove(0);
    bad[dim - 1] = 99;
    assert!(tiled.store(bad).is_err(), "out-of-range symbol must be rejected");
    // Wrong dimension fails before any splitting at all.
    assert!(tiled.store(vec![0; dim + 1]).is_err(), "dimension mismatch must be rejected");

    for (tile, before) in tiled.tiles().iter().zip(&snapshot) {
        assert_eq!(&rows(tile), before, "tile contents changed by a failed store");
        assert!(tile.is_programmed(), "failed store must not invalidate physical state");
    }
    let after = tiled.search(&query).unwrap();
    assert_eq!(after.distances, baseline.distances);
    assert_eq!(after.nearest, baseline.nearest);
}
