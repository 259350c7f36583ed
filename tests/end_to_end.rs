//! Cross-crate integration tests: the full FeReX pipeline from distance
//! matrix to device-backed application inference.

use ferex::core::{
    find_minimal_cell, sizing_for, Backend, CircuitConfig, DistanceMatrix, DistanceMetric, Ferex,
};
use ferex::datasets::quantize::Quantizer;
use ferex::datasets::spec::UCIHAR;
use ferex::datasets::synth::{generate, SynthOptions};
use ferex::fefet::Technology;
use ferex::hdc::am::{AmClassifier, AmConfig};
use ferex::hdc::encoder::ProjectionEncoder;
use ferex::hdc::model::HdcModel;
use ferex::knn::am::AmKnn;
use ferex::knn::eval::{am_accuracy, exact_accuracy, quantize_set};
use ferex::knn::exact::ExactKnn;

/// The headline pipeline: metric → CSP encoding → array → search, across
/// every supported metric, verified against software distances.
#[test]
fn every_metric_full_pipeline() {
    for metric in DistanceMetric::ALL {
        let mut engine = Ferex::builder()
            .metric(metric)
            .bits(2)
            .dim(16)
            .build()
            .unwrap_or_else(|e| panic!("{metric}: {e}"));
        let stored =
            [vec![0u32; 16], vec![3u32; 16], (0..16).map(|i| i as u32 % 4).collect::<Vec<_>>()];
        for v in &stored {
            engine.array_mut().store(v.clone()).expect("stores");
        }
        let query: Vec<u32> = (0..16).map(|i| (i as u32 + 1) % 4).collect();
        let out = engine.search(&query).expect("searches");
        for (r, s) in stored.iter().enumerate() {
            assert_eq!(
                out.distances[r],
                metric.vector_distance(&query, s) as f64,
                "{metric} row {r}"
            );
        }
    }
}

/// Reconfiguration round-trip: Hamming → Manhattan → Euclidean² → Hamming
/// leaves the engine exactly where it started.
#[test]
fn reconfiguration_round_trip() {
    let mut engine = Ferex::builder().dim(8).build().expect("builds");
    engine.array_mut().store(vec![0, 1, 2, 3, 0, 1, 2, 3]).expect("stores");
    engine.array_mut().store(vec![3, 3, 0, 0, 3, 3, 0, 0]).expect("stores");
    let query = [1u32, 1, 2, 2, 0, 0, 3, 3];
    let before = engine.search(&query).expect("searches");
    for metric in
        [DistanceMetric::Manhattan, DistanceMetric::EuclideanSquared, DistanceMetric::Hamming]
    {
        engine.reconfigure(metric).expect("reconfigures");
    }
    let after = engine.search(&query).expect("searches");
    assert_eq!(before.distances, after.distances);
    assert_eq!(before.nearest, after.nearest);
}

/// The device-level circuit backend agrees with software on every metric
/// when variation is disabled.
#[test]
fn nominal_circuit_matches_software_for_all_metrics() {
    use ferex::analog::lta::LtaParams;
    use ferex::fefet::VariationModel;
    for metric in DistanceMetric::ALL {
        let cfg = CircuitConfig {
            variation: VariationModel::none(),
            lta: LtaParams::ideal(),
            ..Default::default()
        };
        let mut engine = Ferex::builder()
            .metric(metric)
            .bits(2)
            .dim(6)
            .backend(Backend::Circuit(Box::new(cfg)))
            .build()
            .unwrap_or_else(|e| panic!("{metric}: {e}"));
        let stored = [vec![0u32, 1, 2, 3, 2, 1], vec![3u32, 2, 1, 0, 1, 2]];
        for v in &stored {
            engine.array_mut().store(v.clone()).expect("stores");
        }
        let query = [0u32, 1, 2, 3, 1, 1];
        let out = engine.search(&query).expect("searches");
        for (r, s) in stored.iter().enumerate() {
            let want = metric.vector_distance(&query, s) as f64;
            assert!(
                (out.distances[r] - want).abs() < 0.2,
                "{metric} row {r}: sensed {} want {want}",
                out.distances[r]
            );
        }
    }
}

/// KNN: the AM-backed classifier agrees with exact software KNN on a real
/// (synthetic) dataset with the ideal backend, and stays close with
/// variation enabled.
#[test]
fn knn_agreement_across_backends() {
    let data = generate(&UCIHAR.scaled(0.015), &SynthOptions::default());
    let bits = 2;
    let quantizer = Quantizer::fit_samples(bits, &data.train);
    let train = quantize_set(&quantizer, &data.train);
    let test = quantize_set(&quantizer, &data.test);

    let metric = DistanceMetric::Manhattan;
    let mut exact = ExactKnn::new(metric, 3);
    for (v, l) in &train {
        exact.insert(v.clone(), *l);
    }
    let sw = exact_accuracy(&exact, &test);

    let mut ideal =
        AmKnn::new(metric, bits, data.n_features(), 3, Backend::Ideal, Technology::default())
            .expect("builds");
    let mut noisy = AmKnn::new(
        metric,
        bits,
        data.n_features(),
        3,
        Backend::Noisy(Box::default()),
        Technology::default(),
    )
    .expect("builds");
    for (v, l) in &train {
        ideal.insert(v.clone(), *l).expect("inserts");
        noisy.insert(v.clone(), *l).expect("inserts");
    }
    let hw_ideal = am_accuracy(&mut ideal, &test).expect("searches");
    let hw_noisy = am_accuracy(&mut noisy, &test).expect("searches");
    assert!((sw - hw_ideal).abs() < 0.05, "software {sw} vs ideal AM {hw_ideal}");
    assert!(hw_noisy > sw - 0.10, "variation cost too high: {sw} → {hw_noisy}");
}

/// HDC: train once, infer through the AM under all three metrics — the
/// Fig. 8(a) flow end to end.
#[test]
fn hdc_full_flow_all_metrics() {
    let data = generate(&UCIHAR.scaled(0.015), &SynthOptions::default());
    let encoder = ProjectionEncoder::new(data.n_features(), 1024, 13);
    let mut model = HdcModel::train_single_pass(encoder, &data.train, data.n_classes());
    model.retrain(&data.train, 2);
    let software = model.accuracy(&data.test);
    assert!(software > 0.8, "software HDC accuracy only {software}");

    let mut am = AmClassifier::from_model(&model, &AmConfig::default()).expect("builds");
    for metric in DistanceMetric::ALL {
        am.reconfigure(metric).expect("reconfigures");
        let acc = am.accuracy(&model, &data.test).expect("searches");
        assert!(
            acc > software - 0.15,
            "{metric}: AM accuracy {acc} too far below software {software}"
        );
    }
}

/// The sizing pipeline discovers the paper's Table II headline result.
#[test]
fn table_ii_minimal_cell_discovery() {
    let tech = Technology::default();
    let dm = DistanceMatrix::from_metric(DistanceMetric::Hamming, 2);
    let report = find_minimal_cell(&dm, &sizing_for(&tech)).expect("encodable");
    assert_eq!(report.encoding.k, 3, "2-bit Hamming must size to 3FeFET3R");
    assert!(report.encoding.vth_levels_used <= 3);
    assert!(report.encoding.max_vds_multiple <= 2);
    report.encoding.verify(&dm).expect("verifies");
}
