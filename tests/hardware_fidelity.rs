//! Hardware-fidelity integration tests: the statistical backend tracks the
//! device-level backend, the Fig. 7 Monte-Carlo behavior reproduces at
//! test scale, and the ADC readout agrees with the analog decision.

use ferex::analog::adc::AdcParams;
use ferex::analog::montecarlo::MonteCarlo;
use ferex::core::{
    find_minimal_cell, sizing_for, Backend, CircuitConfig, DistanceMatrix, DistanceMetric, Ferex,
    FerexArray,
};
use ferex::datasets::synth::flip_symbol_bits;
use ferex::fefet::units::Amp;
use ferex::fefet::Technology;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const BITS: u32 = 2;

fn worst_case_trial(backend: Backend, seed: u64, d_near: usize, d_far: usize) -> bool {
    let dim = 32;
    let mut rng = StdRng::seed_from_u64(seed);
    let query: Vec<u32> = (0..dim).map(|_| rng.gen_range(0..1u32 << BITS)).collect();
    let mut engine = Ferex::builder()
        .metric(DistanceMetric::Hamming)
        .bits(BITS)
        .dim(dim)
        .backend(backend)
        .build()
        .expect("encodes");
    engine.array_mut().store(flip_symbol_bits(&query, BITS, d_near, &mut rng)).expect("stores");
    for _ in 0..6 {
        engine.array_mut().store(flip_symbol_bits(&query, BITS, d_far, &mut rng)).expect("stores");
    }
    engine.search(&query).expect("searches").nearest == 0
}

/// Monte-Carlo accuracy at the Fig. 7 margin is high but below 100 %, and
/// recovers to ~100 % with a wider margin — on both hardware backends.
#[test]
fn fig7_margin_behavior_reproduces() {
    let mc = MonteCarlo { runs: 60, seed: 0x77 };
    let mut k = 0u64;
    let noisy_hard = mc.run(|_| {
        k += 1;
        worst_case_trial(
            Backend::Noisy(Box::new(CircuitConfig { seed: k, ..Default::default() })),
            k,
            5,
            6,
        )
    });
    k = 0;
    let noisy_easy = mc.run(|_| {
        k += 1;
        worst_case_trial(
            Backend::Noisy(Box::new(CircuitConfig { seed: k, ..Default::default() })),
            k,
            5,
            9,
        )
    });
    assert!(
        noisy_hard.accuracy() >= 0.75,
        "hard-case accuracy collapsed: {}",
        noisy_hard.accuracy()
    );
    assert!(noisy_easy.accuracy() > noisy_hard.accuracy() - 0.05, "wider margin must not hurt");
    assert!(noisy_easy.accuracy() >= 0.95, "easy case should be near-perfect");
}

/// Device-level and statistical backends agree on the worst-case accuracy
/// within Monte-Carlo uncertainty.
#[test]
fn circuit_and_noisy_mc_agree() {
    let runs = 40;
    let mc = MonteCarlo { runs, seed: 0xCC };
    let mut k = 0u64;
    let circuit = mc.run(|_| {
        k += 1;
        worst_case_trial(
            Backend::Circuit(Box::new(CircuitConfig { seed: k, ..Default::default() })),
            k,
            5,
            6,
        )
    });
    k = 0;
    let noisy = mc.run(|_| {
        k += 1;
        worst_case_trial(
            Backend::Noisy(Box::new(CircuitConfig { seed: k, ..Default::default() })),
            k,
            5,
            6,
        )
    });
    let diff = (circuit.accuracy() - noisy.accuracy()).abs();
    assert!(
        diff < 0.2,
        "backends diverge: circuit {} vs noisy {}",
        circuit.accuracy(),
        noisy.accuracy()
    );
}

/// Ideal backend never errs regardless of seed (sanity anchor for the MC).
#[test]
fn ideal_backend_is_perfect() {
    for seed in 0..20 {
        assert!(worst_case_trial(Backend::Ideal, seed, 5, 6));
    }
}

fn random_vectors(n: usize, dim: usize, seed: u64) -> Vec<Vec<u32>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n).map(|_| (0..dim).map(|_| rng.gen_range(0..4u32)).collect()).collect()
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
    let analog = array.search_batch_at(std::slice::from_ref(&query), &[0]).unwrap().remove(0);
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
