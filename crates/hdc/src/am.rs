//! HDC inference through the FeReX associative memory.
//!
//! The paper's application flow (Sec. IV-B): class hypervectors are
//! quantized to multi-bit symbols and programmed into the FeReX array (one
//! row per class); at inference the encoded query is quantized with the
//! same ranges and a single associative search returns the class whose
//! vector has minimal distance under the *configured* metric. Swapping the
//! metric re-encodes the same array — the Fig. 8(a) experiment.

use crate::encoder::FeatureEncoder;
use crate::hypervector::Hypervector;
use crate::model::HdcModel;
use ferex_core::{Backend, DistanceMetric, Ferex, FerexError};
use ferex_datasets::dataset::Sample;
use ferex_fefet::Technology;

/// Configuration of the AM inference stage.
#[derive(Debug, Clone)]
pub struct AmConfig {
    /// Distance metric the array is configured for.
    pub metric: DistanceMetric,
    /// Symbol bit width the class vectors are quantized to.
    pub bits: u32,
    /// Array simulation backend.
    pub backend: Backend,
    /// Technology card.
    pub tech: Technology,
}

impl Default for AmConfig {
    fn default() -> Self {
        AmConfig {
            metric: DistanceMetric::Hamming,
            bits: 2,
            backend: Backend::Ideal,
            tech: Technology::default(),
        }
    }
}

/// An HDC classifier whose similarity search runs on a FeReX array.
#[derive(Debug, Clone)]
pub struct AmClassifier {
    ferex: Ferex,
    /// Per-dimension symmetric quantization scale for class sums.
    scale: Vec<f64>,
    bits: u32,
}

impl AmClassifier {
    /// Quantizes the trained model's class vectors and programs them into a
    /// freshly configured FeReX array.
    ///
    /// Class accumulator sums are quantized per dimension, symmetrically
    /// around zero (so the bipolar query maps onto the symbol extremes
    /// consistently).
    ///
    /// # Errors
    ///
    /// Encoding-pipeline failures for the requested metric/bits.
    pub fn from_model<E: FeatureEncoder>(
        model: &HdcModel<E>,
        config: &AmConfig,
    ) -> Result<Self, FerexError> {
        let mut ferex = Ferex::builder()
            .metric(config.metric)
            .bits(config.bits)
            .dim(model.dim())
            .technology(config.tech.clone())
            .backend(config.backend.clone())
            .build()?;
        let sums = model.class_sums();
        // Symmetric per-dimension scale: the largest |sum| over classes.
        let dim = model.dim();
        let mut scale = vec![1.0f64; dim];
        for (d, s) in scale.iter_mut().enumerate() {
            let max_abs = sums.iter().map(|c| c[d].unsigned_abs()).max().unwrap_or(1).max(1);
            *s = max_abs as f64;
        }
        let top = ((1u32 << config.bits) - 1) as f64;
        for class in &sums {
            let symbols: Vec<u32> = class
                .iter()
                .zip(&scale)
                .map(|(&v, &s)| {
                    let t = ((v as f64 / s) + 1.0) / 2.0; // [-1,1] → [0,1]
                    (t.clamp(0.0, 1.0) * top).round() as u32
                })
                .collect();
            ferex.store(symbols)?;
        }
        Ok(AmClassifier { ferex, scale, bits: config.bits })
    }

    /// The underlying engine (for cost reporting or inspection).
    pub fn ferex(&self) -> &Ferex {
        &self.ferex
    }

    /// Mutable engine access.
    pub fn ferex_mut(&mut self) -> &mut Ferex {
        &mut self.ferex
    }

    /// Reconfigures the array to a different metric without retraining —
    /// the headline reconfigurability experiment.
    ///
    /// # Errors
    ///
    /// Encoding failures for the new metric.
    pub fn reconfigure(&mut self, metric: DistanceMetric) -> Result<(), FerexError> {
        self.ferex.reconfigure(metric)
    }

    /// Quantizes a query hypervector onto the symbol grid: −1 → 0,
    /// +1 → top symbol (the bipolar extremes of the symmetric range).
    pub fn quantize_query(&self, hv: &Hypervector) -> Vec<u32> {
        let top = (1u32 << self.bits) - 1;
        hv.components().iter().map(|&c| if c > 0 { top } else { 0 }).collect()
    }

    /// Classifies an encoded query through one associative search.
    ///
    /// # Errors
    ///
    /// Search errors from the array.
    pub fn classify_hv(&mut self, hv: &Hypervector) -> Result<usize, FerexError> {
        let symbols = self.quantize_query(hv);
        Ok(self.ferex.search(&symbols)?.nearest)
    }

    /// Classifies a batch of encoded queries through the batched serving
    /// path ([`ferex_core::FerexArray::search_batch_at`], query ids
    /// `0..n`): the array is programmed once and one kernel pass serves
    /// every query.
    ///
    /// # Errors
    ///
    /// Search errors from the array.
    pub fn classify_batch(&mut self, hvs: &[Hypervector]) -> Result<Vec<usize>, FerexError> {
        // The array's batch read takes `&self` and never programs; bring a
        // stale stochastic backend up to date before serving.
        self.ferex.ensure_programmed()?;
        let queries: Vec<Vec<u32>> = hvs.iter().map(|hv| self.quantize_query(hv)).collect();
        let qids: Vec<u64> = (0..queries.len() as u64).collect();
        let outcomes = self.ferex.array().search_batch_at(&queries, &qids)?;
        Ok(outcomes.into_iter().map(|o| o.nearest).collect())
    }

    /// Classifies with a confidence margin: the relative distance gap
    /// between the winning class and the runner-up
    /// (`(d₂ − d₁)/max(d₂, ε)` ∈ [0, 1]). A tiny margin flags an ambiguous
    /// decision — the quantity a system would thresh to fall back to a
    /// high-precision path.
    ///
    /// # Errors
    ///
    /// Search errors; requires at least two classes.
    pub fn classify_with_margin(&mut self, hv: &Hypervector) -> Result<(usize, f64), FerexError> {
        let symbols = self.quantize_query(hv);
        let ranked = self.ferex.search_k(&symbols, 2)?;
        let distances = self.ferex.array().distances_batch(&[symbols])?.concat();
        let d1 = distances[ranked[0]];
        let d2 = distances[ranked[1]];
        let margin = ((d2 - d1) / d2.max(1e-12)).clamp(0.0, 1.0);
        Ok((ranked[0], margin))
    }

    /// Encodes (with the model's encoder) and classifies a raw sample
    /// stream; returns accuracy.
    ///
    /// The whole stream is served through one [`AmClassifier::classify_batch`]
    /// call, so the array is programmed once for the entire evaluation.
    ///
    /// # Errors
    ///
    /// Search errors from the array.
    pub fn accuracy<E: FeatureEncoder>(
        &mut self,
        model: &HdcModel<E>,
        samples: &[Sample],
    ) -> Result<f64, FerexError> {
        if samples.is_empty() {
            return Ok(0.0);
        }
        let hvs: Vec<Hypervector> =
            samples.iter().map(|s| model.encoder().encode(&s.features)).collect();
        let predicted = self.classify_batch(&hvs)?;
        let correct = predicted.iter().zip(samples).filter(|(p, s)| **p == s.label).count();
        Ok(correct as f64 / samples.len() as f64)
    }

    /// The per-dimension quantization scales (exposed for analysis).
    pub fn scales(&self) -> &[f64] {
        &self.scale
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoder::ProjectionEncoder;
    use ferex_datasets::spec::UCIHAR;
    use ferex_datasets::synth::{generate, SynthOptions};

    fn trained() -> (ferex_datasets::Dataset, HdcModel) {
        let spec = UCIHAR.scaled(0.02);
        let data = generate(&spec, &SynthOptions::default());
        let encoder = ProjectionEncoder::new(spec.n_features, 1024, 5);
        let mut model = HdcModel::train_single_pass(encoder, &data.train, spec.n_classes);
        model.retrain(&data.train, 3);
        (data, model)
    }

    #[test]
    fn am_inference_tracks_software_accuracy() {
        let (data, model) = trained();
        let software = model.accuracy(&data.test);
        let mut am = AmClassifier::from_model(&model, &AmConfig::default()).expect("builds");
        let hw = am.accuracy(&model, &data.test).expect("searches");
        assert!(
            hw > software - 0.10,
            "AM accuracy {hw} fell more than 10 points below software {software}"
        );
    }

    #[test]
    fn metric_reconfiguration_works_in_place() {
        let (data, model) = trained();
        let mut am = AmClassifier::from_model(&model, &AmConfig::default()).expect("builds");
        let mut accs = Vec::new();
        for metric in
            [DistanceMetric::Hamming, DistanceMetric::Manhattan, DistanceMetric::EuclideanSquared]
        {
            am.reconfigure(metric).expect("reconfigures");
            let n = data.test.len().min(100);
            let acc = am.accuracy(&model, &data.test[..n]).expect("searches");
            accs.push(acc);
        }
        // Every metric must be usable (well above chance = 1/12).
        for (m, acc) in DistanceMetric::ALL.iter().zip(&accs) {
            assert!(*acc > 0.5, "{m} accuracy {acc}");
        }
    }

    #[test]
    fn margin_is_high_for_confident_decisions() {
        let (data, model) = trained();
        let mut am = AmClassifier::from_model(&model, &AmConfig::default()).expect("builds");
        let mut margins = Vec::new();
        for s in data.test.iter().take(20) {
            let hv = model.encoder().encode(&s.features);
            let (pred, margin) = am.classify_with_margin(&hv).expect("searches");
            assert!((0.0..=1.0).contains(&margin));
            // The margin-returning path must agree with the plain path.
            assert_eq!(pred, am.classify_hv(&hv).expect("searches"));
            margins.push(margin);
        }
        // On well-separated data most decisions carry a real margin.
        let mean: f64 = margins.iter().sum::<f64>() / margins.len() as f64;
        assert!(mean > 0.05, "mean margin {mean} suspiciously low");
    }

    #[test]
    fn batch_classification_matches_scalar_on_ideal_backend() {
        let (data, model) = trained();
        let mut am = AmClassifier::from_model(&model, &AmConfig::default()).expect("builds");
        let hvs: Vec<_> =
            data.test.iter().take(16).map(|s| model.encoder().encode(&s.features)).collect();
        let expected: Vec<usize> =
            hvs.iter().map(|hv| am.classify_hv(hv).expect("searches")).collect();
        assert_eq!(am.classify_batch(&hvs).expect("searches"), expected);
    }

    #[test]
    fn query_quantization_maps_to_extremes() {
        let (_, model) = trained();
        let am = AmClassifier::from_model(&model, &AmConfig::default()).expect("builds");
        let hv = model.encoder().encode(&vec![0.3; model.encoder().n_features()]);
        let q = am.quantize_query(&hv);
        assert!(q.iter().all(|&s| s == 0 || s == 3));
    }
}
