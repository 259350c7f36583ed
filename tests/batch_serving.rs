//! Integration tests: the batched, shared-reference query-serving path.
//!
//! After an explicit `program()` call the whole search path takes `&self`,
//! so a programmed array can serve queries from several threads at once.
//! These tests pin down the two guarantees that make that safe and useful:
//! results are bit-identical to sequential serving, and concurrent callers
//! sharing one `&FerexArray` all see those same results.

use ferex::core::array::{Backend, CircuitConfig, FerexArray};
use ferex::core::{find_minimal_cell, sizing_for, DistanceMatrix, DistanceMetric};
use ferex::fefet::Technology;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::thread;

fn random_vectors(n: usize, dim: usize, seed: u64) -> Vec<Vec<u32>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n).map(|_| (0..dim).map(|_| rng.gen_range(0..4u32)).collect()).collect()
}

fn backends() -> Vec<Backend> {
    let cfg = CircuitConfig { seed: 11, ..Default::default() };
    vec![Backend::Ideal, Backend::Circuit(Box::new(cfg.clone())), Backend::Noisy(Box::new(cfg))]
}

fn programmed_metric_array(
    metric: DistanceMetric,
    backend: Backend,
    dim: usize,
    rows: usize,
) -> FerexArray {
    let tech = Technology::default();
    let dm = DistanceMatrix::from_metric(metric, 2);
    let enc = find_minimal_cell(&dm, &sizing_for(&tech)).expect("sizes").encoding;
    let mut array = FerexArray::new(tech, enc, dim, backend);
    for v in random_vectors(rows, dim, 21) {
        array.store(v).unwrap();
    }
    array.program();
    array
}

fn programmed_array(backend: Backend, dim: usize, rows: usize) -> FerexArray {
    programmed_metric_array(DistanceMetric::Manhattan, backend, dim, rows)
}

/// Several threads serving the same batch over one shared `&FerexArray`
/// all get results identical to a sequential call, on every backend.
#[test]
fn concurrent_batches_match_sequential_on_all_backends() {
    for backend in backends() {
        let array = programmed_array(backend.clone(), 16, 12);
        let queries = random_vectors(8, 16, 22);
        let qids: Vec<u64> = (0..queries.len() as u64).collect();
        let sequential = array.search_batch_at(&queries, &qids).unwrap();

        let shared = &array;
        let concurrent: Vec<_> = thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|_| scope.spawn(|| shared.search_batch_at(&queries, &qids).unwrap()))
                .collect();
            handles.into_iter().map(|h| h.join().expect("no panic")).collect()
        });

        for outcomes in &concurrent {
            assert_eq!(outcomes.len(), sequential.len());
            for (got, want) in outcomes.iter().zip(&sequential) {
                assert_eq!(got.nearest, want.nearest, "backend {backend:?}");
                assert_eq!(got.distances, want.distances, "backend {backend:?}");
            }
        }
    }
}

/// `search_k_batch_at` is bit-identical to a loop of batches of one with
/// the same query ids, for every metric and every backend: each query's
/// noise stream is keyed on its id alone.
#[test]
fn search_k_batch_equals_sequential_loop_on_every_metric_and_backend() {
    for metric in DistanceMetric::ALL {
        for backend in backends() {
            let array = programmed_metric_array(metric, backend.clone(), 10, 9);
            let queries = random_vectors(7, 10, 24);
            let qids: Vec<u64> = (0..queries.len() as u64).map(|i| 3 * i + 1).collect();
            let k = 3;
            let batched = array.search_k_batch_at(&queries, k, &qids).unwrap();

            let explicit: Vec<_> = queries
                .iter()
                .zip(&qids)
                .flat_map(|(q, &qid)| {
                    array.search_k_batch_at(std::slice::from_ref(q), k, &[qid]).unwrap()
                })
                .collect();
            assert_eq!(batched, explicit, "{metric} {backend:?}: explicit query ids");
        }
    }
}

/// Concurrent k-nearest batches agree with sequential serving too.
#[test]
fn concurrent_search_k_batches_match_sequential() {
    for backend in backends() {
        let array = programmed_array(backend.clone(), 12, 10);
        let queries = random_vectors(6, 12, 23);
        let qids: Vec<u64> = (0..queries.len() as u64).collect();
        let sequential = array.search_k_batch_at(&queries, 3, &qids).unwrap();

        let shared = &array;
        thread::scope(|scope| {
            let handles: Vec<_> = (0..3)
                .map(|_| scope.spawn(|| shared.search_k_batch_at(&queries, 3, &qids).unwrap()))
                .collect();
            for h in handles {
                assert_eq!(h.join().expect("no panic"), sequential, "backend {backend:?}");
            }
        });
    }
}

/// The engine-level read-path contract: after `ensure_programmed()`, the
/// array's batch reads are pure `&self` reads, so one engine can serve
/// concurrent batches from threads sharing a plain reference — no
/// locking, bit-identical results.
#[test]
fn concurrent_engine_batches_share_one_engine() {
    use ferex::core::Ferex;

    for backend in backends() {
        let mut engine = Ferex::builder()
            .metric(DistanceMetric::Manhattan)
            .bits(2)
            .dim(12)
            .backend(backend.clone())
            .build()
            .expect("builds");
        for v in random_vectors(10, 12, 31) {
            engine.array_mut().store(v).unwrap();
        }
        // One `&mut` programming step, then `&self` serving only.
        engine.ensure_programmed().unwrap();
        let queries = random_vectors(6, 12, 32);
        let qids: Vec<u64> = (0..queries.len() as u64).collect();
        let sequential = engine.array().search_batch_at(&queries, &qids).unwrap();
        let ranked = engine.array().search_k_batch_at(&queries, 3, &qids).unwrap();

        let shared = &engine;
        thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    scope.spawn(|| {
                        (
                            shared.array().search_batch_at(&queries, &qids).unwrap(),
                            shared.array().search_k_batch_at(&queries, 3, &qids).unwrap(),
                        )
                    })
                })
                .collect();
            for h in handles {
                let (outcomes, ks) = h.join().expect("no panic");
                assert_eq!(ks, ranked, "backend {backend:?}");
                assert_eq!(outcomes.len(), sequential.len());
                for (got, want) in outcomes.iter().zip(&sequential) {
                    assert_eq!(got.nearest, want.nearest, "backend {backend:?}");
                    assert_eq!(got.distances, want.distances, "backend {backend:?}");
                }
            }
        });
    }
}

/// A stale stochastic engine refuses the `&self` batch read path instead
/// of silently serving old state: mutating after programming returns
/// `NotProgrammed` until the caller re-programs.
#[test]
fn stale_engine_batch_requires_reprogramming() {
    use ferex::core::{Ferex, FerexError};

    let cfg = CircuitConfig { seed: 11, ..Default::default() };
    let mut engine = Ferex::builder()
        .metric(DistanceMetric::Hamming)
        .bits(2)
        .dim(8)
        .backend(Backend::Noisy(Box::new(cfg)))
        .build()
        .expect("builds");
    for v in random_vectors(4, 8, 41) {
        engine.array_mut().store(v).unwrap();
    }
    let queries = random_vectors(3, 8, 42);
    let qids = [0, 1, 2];
    // Never programmed: the pure read path must refuse.
    let read = |e: &Ferex| e.array().search_batch_at(&queries, &qids);
    assert!(matches!(read(&engine), Err(FerexError::NotProgrammed)));
    engine.ensure_programmed().unwrap();
    assert!(read(&engine).is_ok());
    // Mutation re-stales the physical state.
    engine.array_mut().store(random_vectors(1, 8, 43).remove(0)).unwrap();
    let read_k = |e: &Ferex| e.array().search_k_batch_at(&queries, 2, &qids);
    assert!(matches!(read_k(&engine), Err(FerexError::NotProgrammed)));
    engine.ensure_programmed().unwrap();
    assert!(read_k(&engine).is_ok());
}
