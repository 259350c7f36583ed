#![forbid(unsafe_code)]
//! # ferex-bench — experiment harness
//!
//! One binary per table/figure of the paper's evaluation (see DESIGN.md §5
//! for the experiment index) plus Criterion micro-benchmarks. Shared
//! helpers for workload construction live here.

pub mod kernels;

use ferex_core::{Backend, CircuitConfig, DistanceMetric, Ferex, FerexError};
use ferex_datasets::dataset::Dataset;
use ferex_datasets::spec::DatasetSpec;
use ferex_datasets::synth::{generate, SynthOptions};
use ferex_hdc::encoder::ProjectionEncoder;
use ferex_hdc::model::HdcModel;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Builds a Hamming-configured engine pre-loaded with `rows` random 2-bit
/// vectors of `dim` symbols — the generic array workload of Fig. 6.
///
/// # Errors
///
/// Encoding-pipeline failures.
pub fn random_filled_engine(
    rows: usize,
    dim: usize,
    backend: Backend,
    seed: u64,
) -> Result<Ferex, FerexError> {
    let mut engine = Ferex::builder()
        .metric(DistanceMetric::Hamming)
        .bits(2)
        .dim(dim)
        .backend(backend)
        .build()?;
    let mut rng = StdRng::seed_from_u64(seed);
    for _ in 0..rows {
        engine.array_mut().store((0..dim).map(|_| rng.gen_range(0..4u32)).collect())?;
    }
    Ok(engine)
}

/// A random 2-bit query of `dim` symbols.
pub fn random_query(dim: usize, seed: u64) -> Vec<u32> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..dim).map(|_| rng.gen_range(0..4u32)).collect()
}

/// Generates a scaled Table III dataset with the experiment-suite defaults.
pub fn experiment_dataset(spec: &DatasetSpec, fraction: f64) -> Dataset {
    generate(&spec.scaled(fraction), &SynthOptions::default())
}

/// Trains an HDC model on a dataset with the experiment-suite defaults
/// (single pass + 3 retraining epochs).
pub fn train_hdc(data: &Dataset, dim: usize, seed: u64) -> HdcModel {
    let encoder = ProjectionEncoder::new(data.n_features(), dim, seed);
    let mut model = HdcModel::train_single_pass(encoder, &data.train, data.n_classes());
    model.retrain(&data.train, 3);
    model
}

/// The Noisy backend with a given seed — the standard hardware-accuracy
/// configuration of the experiment suite.
pub fn noisy_backend(seed: u64) -> Backend {
    Backend::Noisy(Box::new(CircuitConfig { seed, ..Default::default() }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ferex_datasets::spec::UCIHAR;

    #[test]
    fn random_engine_builds_and_searches() {
        let mut e = random_filled_engine(8, 16, Backend::Ideal, 1).expect("builds");
        let q = random_query(16, 2);
        assert!(e.search(&q).is_ok());
    }

    #[test]
    fn experiment_dataset_validates() {
        let d = experiment_dataset(&UCIHAR, 0.01);
        assert!(d.validate().is_ok());
    }

    #[test]
    fn hdc_training_helper_produces_usable_model() {
        let d = experiment_dataset(&UCIHAR, 0.02);
        let m = train_hdc(&d, 1024, 3);
        assert!(m.accuracy(&d.test) > 0.8);
    }
}
