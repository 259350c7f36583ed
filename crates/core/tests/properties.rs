//! Property tests for the encoding pipeline invariants.

use ferex_analog::lta::LtaParams;
use ferex_core::decompose::{count_decompositions, decompose};
use ferex_core::feasibility::{
    chain_compatible, detect_feasibility, enumerate_row_configs, FeasibilityConfig,
};
use ferex_core::{
    find_minimal_cell, sizing_for, Backend, CellEncoding, CircuitConfig, DistanceMatrix,
    DistanceMetric, EncodingLimits, FerexArray, MutationPolicy, QuorumPolicy, RepairPolicy,
    ReplicaPolicy, ReplicaSet, RowHealth, ServeSource, SizingOptions,
};
use ferex_fefet::{Technology, VariationModel};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// Symbols per vector of the churn fallback property.
const CHURN_DIM: usize = 6;
/// Six slots under an eight-id pool: inserts hit a full table, and the
/// few free slots heat up enough for maintenance to rotate.
const CHURN_CAPACITY: usize = 6;
/// Ids live before the schedule starts.
const CHURN_INITIAL: u64 = 4;

/// Decodes a 12-bit payload into `CHURN_DIM` 2-bit symbols.
fn churn_vector(payload: u32) -> Vec<u32> {
    (0..CHURN_DIM).map(|j| (payload >> (2 * j)) & 3).collect()
}

/// The vector initial id `id` is inserted with.
fn churn_initial(id: u64) -> Vec<u32> {
    churn_vector(id as u32 * 37)
}

/// A 2-replica, 2/2-quorum set with replica 1 killed, so every serve is
/// the oracle fallback over replica 0's rows.
fn fallback_only_set(replicas: Vec<FerexArray>, metric: DistanceMetric) -> ReplicaSet {
    let policy =
        ReplicaPolicy { quorum: QuorumPolicy { reads: 2, agree: 2 }, ..Default::default() };
    let mut set = ReplicaSet::new(replicas, metric, policy).expect("2/2 quorum over 2 replicas");
    set.kill(1);
    set
}

/// Drives `ops` (kind 0 insert, 1 update, 2 delete, 3 compact, 4
/// maintenance; then one probe query) through `set` and checks every
/// served answer against brute force over a `BTreeMap` live-set model:
/// each live slot reads its id's exact distance, every other slot reads
/// +inf, and the nearest slot holds a live id at the minimum distance.
fn check_fallback_through_churn(
    mut set: ReplicaSet,
    metric: DistanceMetric,
    ops: &[(u8, u64, u32, u32)],
) {
    let mut model: BTreeMap<u64, Vec<u32>> =
        (0..CHURN_INITIAL).map(|id| (id, churn_initial(id))).collect();
    for &(kind, id, payload, probe) in ops {
        let v = churn_vector(payload);
        let expected = match kind {
            0 => !model.contains_key(&id) && model.len() < CHURN_CAPACITY,
            1 | 2 => model.contains_key(&id),
            _ => true,
        };
        let accepted = match kind {
            0 => set.insert(id, v.clone()).is_ok(),
            1 => set.update(id, v.clone()).is_ok(),
            2 => set.delete(id).is_ok(),
            3 => {
                set.compact();
                true
            }
            _ => {
                set.maintenance();
                true
            }
        };
        prop_assert_eq!(accepted, expected, "op {} on id {}", kind, id);
        if accepted && kind < 2 {
            model.insert(id, v);
        } else if accepted && kind == 2 {
            model.remove(&id);
        }

        let q = churn_vector(probe);
        let served = set
            .serve_batch_read(std::slice::from_ref(&q), &[set.tick()])
            .expect("a capacity-sized store always serves")
            .0
            .remove(0);
        prop_assert_eq!(served.source, ServeSource::OracleFallback);
        let first = set.replica(0);
        let slot_ids: BTreeMap<usize, u64> =
            model.keys().filter_map(|&id| first.slot_of(id).map(|slot| (slot, id))).collect();
        prop_assert_eq!(slot_ids.len(), model.len());
        prop_assert_eq!(served.outcome.distances.len(), CHURN_CAPACITY);
        for (slot, &d) in served.outcome.distances.iter().enumerate() {
            match slot_ids.get(&slot) {
                Some(id) => prop_assert_eq!(d, metric.vector_distance(&q, &model[id]) as f64),
                None => prop_assert!(d == f64::INFINITY, "non-live slot {} read {}", slot, d),
            }
        }
        if let Some(best) = model.values().map(|v| metric.vector_distance(&q, v)).min() {
            let id = slot_ids.get(&served.outcome.nearest).expect("nearest slot is live");
            prop_assert_eq!(metric.vector_distance(&q, &model[id]), best);
        }
    }
}

proptest! {
    /// Every decomposition sums to the target, has the right arity, and
    /// draws only from {0} ∪ levels.
    #[test]
    fn decompositions_are_valid(k in 1usize..5, target in 0u32..10) {
        let levels = [1u32, 2, 3];
        for t in decompose(k, target, &levels) {
            prop_assert_eq!(t.len(), k);
            prop_assert_eq!(t.iter().sum::<u32>(), target);
            for &v in &t {
                prop_assert!(v == 0 || levels.contains(&v));
            }
        }
    }

    /// The counting DP matches materialized enumeration for arbitrary level
    /// sets.
    #[test]
    fn count_equals_enumeration(k in 0usize..5, target in 0u32..9, mask in 1u8..16) {
        let levels: Vec<u32> = (1..=4u32).filter(|&l| mask >> (l - 1) & 1 == 1).collect();
        prop_assert_eq!(
            count_decompositions(k, target, &levels),
            decompose(k, target, &levels).len() as u64
        );
    }

    /// Chain compatibility is symmetric and reflexive.
    #[test]
    fn chain_compat_symmetric(
        masks_a in prop::collection::vec(0u64..16, 1..4),
        masks_b in prop::collection::vec(0u64..16, 1..4),
    ) {
        use ferex_core::{FetRow, RowConfig};
        let n = masks_a.len().min(masks_b.len());
        let a = RowConfig {
            fets: masks_a[..n].iter().map(|&m| FetRow { level: 1, on_mask: m }).collect(),
        };
        let b = RowConfig {
            fets: masks_b[..n].iter().map(|&m| FetRow { level: 1, on_mask: m }).collect(),
        };
        prop_assert_eq!(chain_compatible(&a, &b), chain_compatible(&b, &a));
        prop_assert!(chain_compatible(&a, &a));
    }

    /// Every enumerated row configuration reproduces its DM row exactly —
    /// for random small DM rows.
    #[test]
    fn row_configs_reproduce_rows(row in prop::collection::vec(0u32..5, 2..5)) {
        let levels = [1u32, 2, 3, 4];
        let configs = enumerate_row_configs(&row, 3, &levels, 50_000, false)
            .expect("cap large enough");
        for c in &configs {
            for (j, &target) in row.iter().enumerate() {
                prop_assert_eq!(c.current_for(j), target);
            }
        }
    }

    /// If a DM is feasible at K it stays feasible at K+1 (monotonicity of
    /// cell sizing — a FeFET can always be left permanently off).
    #[test]
    #[allow(clippy::needless_range_loop)] // symmetric matrix fill is clearest with indices
    fn feasibility_is_monotone_in_k(seed in 0u64..50) {
        // Small random symmetric DMs with zero diagonal.
        let n = 3usize;
        let mut vals = [[0u32; 3]; 3];
        let mut s = seed;
        for i in 0..n {
            for j in (i + 1)..n {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let v = (s >> 33) % 4;
                vals[i][j] = v as u32;
                vals[j][i] = v as u32;
            }
        }
        let dm = DistanceMatrix::from_table(vals.iter().map(|r| r.to_vec()).collect());
        let levels = [1u32, 2, 3];
        let cfg = FeasibilityConfig::default();
        for k in 1..4usize {
            let fk = detect_feasibility(&dm, k, &levels, &cfg).expect("caps");
            if fk.is_feasible() {
                let fk1 = detect_feasibility(&dm, k + 1, &levels, &cfg).expect("caps");
                prop_assert!(fk1.is_feasible(), "feasible at {} but not {}", k, k + 1);
            }
        }
    }

    /// Ideal-array distances always equal the metric's vector distance, for
    /// random stored/query data.
    #[test]
    fn ideal_array_is_metric_exact(
        data in prop::collection::vec(prop::collection::vec(0u32..4, 6), 1..6),
        query in prop::collection::vec(0u32..4, 6),
    ) {
        let dm = DistanceMatrix::from_metric(DistanceMetric::Hamming, 2);
        let enc = find_minimal_cell(&dm, &SizingOptions::default()).unwrap().encoding;
        let mut array = FerexArray::new(Technology::default(), enc, 6, Backend::Ideal);
        for v in &data {
            array.store(v.clone()).unwrap();
        }
        let out = array.search_batch_at(std::slice::from_ref(&query), &[0]).unwrap().remove(0);
        let m = DistanceMetric::Hamming;
        for (r, stored) in data.iter().enumerate() {
            prop_assert_eq!(out.distances[r], m.vector_distance(&query, stored) as f64);
        }
        // The reported nearest is a true argmin.
        let min = out.distances.iter().cloned().fold(f64::MAX, f64::min);
        prop_assert_eq!(out.distances[out.nearest], min);
    }

    /// Satisfiable DMs round-trip through the whole CSP pipeline: AC-3 keeps
    /// the backtracking witness inside the feasible region, every witness row
    /// reproduces its DM row's currents exactly, the witness is mutually
    /// chain-compatible, and the decoded cell encoding verifies against the
    /// DM bit for bit.
    #[test]
    fn feasible_dms_round_trip_through_encoding(
        table in prop::collection::vec(prop::collection::vec(0u32..5, 3), 2..5),
        k in 1usize..4,
    ) {
        let dm = DistanceMatrix::from_table(table);
        let levels = [1u32, 2, 3, 4];
        let outcome = detect_feasibility(&dm, k, &levels, &FeasibilityConfig::default())
            .expect("caps are ample for 3-stored DMs");
        let Some(region) = outcome.region else {
            // Infeasible at this K: nothing to round-trip. Monotonicity of
            // feasibility in K is covered separately above.
            return;
        };
        prop_assert_eq!(region.solution.len(), dm.n_search());
        for (i, row) in region.solution.iter().enumerate() {
            prop_assert!(
                region.domains[i].contains(row),
                "backtracking witness escaped the AC-3 region on line {}", i
            );
            for j in 0..dm.n_stored() {
                prop_assert_eq!(row.current_for(j), dm.get(i, j));
            }
        }
        for i in 0..region.solution.len() {
            for j in (i + 1)..region.solution.len() {
                prop_assert!(chain_compatible(&region.solution[i], &region.solution[j]));
            }
        }
        // Decode to device levels with limits generous enough to never bind;
        // the decoded encoding must reproduce the DM exactly.
        let limits =
            EncodingLimits { max_vth_levels: 8, max_search_levels: 9, max_vds_multiple: 8 };
        let enc = CellEncoding::from_solution(&region.solution, dm.n_stored(), &limits)
            .expect("generous limits cannot bind");
        prop_assert!(enc.verify(&dm).is_ok(), "decoded currents diverged from the DM");
    }

    /// Sized encodings verify against their DM for every metric and small
    /// bit width (exhaustive over the supported configuration space).
    #[test]
    fn sized_encodings_always_verify(metric_idx in 0usize..3, bits in 1u32..3) {
        let metric = DistanceMetric::ALL[metric_idx];
        let dm = DistanceMatrix::from_metric(metric, bits);
        let report = find_minimal_cell(&dm, &sizing_for(&Technology::default()))
            .expect("paper metrics must be encodable at 1-2 bits");
        prop_assert!(report.encoding.verify(&dm).is_ok());
    }

    /// Row sparing is invisible to the serving contract: after an arbitrary
    /// quarantine sequence (including spare exhaustion), every still-served
    /// row answers under its *original logical id* with its exact metric
    /// distance, quarantined rows read as infinite, the reported nearest is
    /// the argmin over served rows, and the batched path stays bit-identical
    /// to sequential serving.
    #[test]
    fn remapped_arrays_preserve_logical_row_ids(
        data in prop::collection::vec(prop::collection::vec(0u32..4, 6), 3..8),
        query in prop::collection::vec(0u32..4, 6),
        hits in prop::collection::vec(0usize..8, 0..6),
        seed in 0u64..32,
    ) {
        let dm = DistanceMatrix::from_metric(DistanceMetric::Hamming, 2);
        let enc = find_minimal_cell(&dm, &SizingOptions::default()).unwrap().encoding;
        // Fault-isolation corner: readback is exact, so every spare accepts
        // its remap and distances carry no noise term.
        let cfg = CircuitConfig {
            variation: VariationModel::none(),
            lta: LtaParams::ideal(),
            seed,
            ..Default::default()
        };
        let mut array =
            FerexArray::new(Technology::default(), enc, 6, Backend::Noisy(Box::new(cfg)));
        array.store_all(data.iter().cloned()).unwrap();
        array.set_repair_policy(RepairPolicy { spare_rows: 2, ..Default::default() }).unwrap();
        array.program_verified().expect("fault-free corner verifies clean");

        // Arbitrary quarantine sequence; exhaustion errors still exclude
        // the row, which is exactly the degradation contract under test.
        for &h in &hits {
            let row = h % data.len();
            let _ = array.quarantine_row(row);
        }

        let served: Vec<usize> = (0..data.len())
            .filter(|&r| array.row_health(r) != RowHealth::Quarantined)
            .collect();
        let distances = array.distances_batch(std::slice::from_ref(&query)).unwrap().remove(0);
        let m = DistanceMetric::Hamming;
        for r in 0..data.len() {
            if served.contains(&r) {
                prop_assert_eq!(
                    distances[r],
                    m.vector_distance(&query, &data[r]) as f64,
                    "served row {} must answer with its own data", r
                );
            } else {
                prop_assert!(
                    distances[r].is_infinite(),
                    "quarantined row {} must never win a search", r
                );
            }
        }

        if served.is_empty() {
            prop_assert!(array.search_batch_at(&[query], &[0]).is_err(), "nothing left to serve");
            return;
        }
        // Batched serving is bit-identical to sequential, spares and all.
        let queries = vec![query.clone(), data[served[0]].clone()];
        let qids = [0, 1];
        let batched = array.search_batch_at(&queries, &qids).unwrap();
        let nearest = batched[0].nearest;
        let want = *served
            .iter()
            .min_by(|&&a, &&b| distances[a].partial_cmp(&distances[b]).unwrap())
            .unwrap();
        prop_assert_eq!(nearest, want, "nearest must be the argmin over served rows");
        for (i, q) in queries.iter().enumerate() {
            let alone = array.search_batch_at(std::slice::from_ref(q), &qids[i..=i]).unwrap();
            prop_assert_eq!(&batched[i..=i], &alone[..]);
        }
        if served.len() >= 2 {
            let kb = array.search_k_batch_at(&queries, 2, &qids).unwrap();
            for (i, q) in queries.iter().enumerate() {
                let alone = array.search_k_batch_at(std::slice::from_ref(q), 2, &qids[i..=i]);
                prop_assert_eq!(&kb[i..=i], &alone.unwrap()[..]);
            }
        }
    }

    /// The batched SoA/bit-sliced kernels are exact and batch-independent
    /// — for every metric (Hamming exercises the packed bit-plane popcount
    /// kernel, Manhattan/Euclidean² the per-query LUT kernel), every
    /// backend, under hard-fault/aging plans, and with quarantined
    /// (excluded) or spared (remapped) rows in the mix. `distances_batch`
    /// must reproduce a loop of batches of one exactly, INFINITY
    /// sentinels included; on Ideal every row must also equal the
    /// independent f64 reference `Σ cell_current(q, s)` over its stored
    /// vector (the Noisy kernel's independent reference, the row loop it
    /// replaced, is the `noisy_reference` property test in `array.rs`);
    /// and the full search path on top of it must reproduce batches of one.
    #[test]
    fn batched_kernels_are_bit_identical_to_scalar_path(
        data in prop::collection::vec(prop::collection::vec(0u32..4, 6), 2..7),
        queries in prop::collection::vec(prop::collection::vec(0u32..4, 6), 1..7),
        metric_idx in 0usize..3,
        backend_idx in 0usize..3,
        plan_idx in 0usize..4,
        hits in prop::collection::vec(0usize..8, 0..3),
        seed in 0u64..32,
    ) {
        use ferex_fefet::FaultPlan;
        let metric = DistanceMetric::ALL[metric_idx];
        let dm = DistanceMatrix::from_metric(metric, 2);
        let enc = find_minimal_cell(&dm, &sizing_for(&Technology::default()))
            .expect("paper metrics encode at 2 bits")
            .encoding;
        let plan = match plan_idx {
            0 => FaultPlan::none(),
            1 => FaultPlan { sa0_rate: 0.05, sa1_rate: 0.05, ..Default::default() },
            2 => FaultPlan {
                open_rate: 0.08,
                short_rate: 0.05,
                short_residual_r: 0.4,
                ..Default::default()
            },
            _ => FaultPlan {
                endurance_cycles: 1.0e9,
                retention_seconds: 1.0e7,
                ..Default::default()
            },
        };
        // Remap coverage needs exact readback (so spares accept their
        // vectors); exclusion coverage works with variation on.
        let exercise_remap = backend_idx == 2 && !hits.is_empty();
        let cfg = CircuitConfig {
            variation: if exercise_remap {
                VariationModel::none()
            } else {
                VariationModel::default()
            },
            lta: LtaParams::ideal(),
            faults: if exercise_remap { FaultPlan::none() } else { plan },
            seed,
            ..Default::default()
        };
        let backend = match backend_idx {
            0 => Backend::Ideal,
            1 => Backend::Circuit(Box::new(cfg)),
            _ => Backend::Noisy(Box::new(cfg)),
        };
        let mut array = FerexArray::new(Technology::default(), enc, 6, backend);
        array.store_all(data.iter().cloned()).unwrap();
        if exercise_remap {
            array
                .set_repair_policy(RepairPolicy { spare_rows: 1, ..Default::default() })
                .unwrap();
            array.program_verified().expect("fault-free exact corner verifies");
        } else {
            array.program();
        }
        // Quarantine a few rows: the first may land on the spare
        // (remapped), the rest are excluded. Exhaustion errors are part of
        // the contract under test, not failures.
        for &h in &hits {
            let _ = array.quarantine_row(h % data.len());
        }
        if (0..data.len()).all(|r| array.row_health(r) == RowHealth::Quarantined) {
            prop_assert!(array.distances_batch(&queries).is_err(), "nothing left to serve");
            return;
        }

        let batched = array.distances_batch(&queries).unwrap();
        for (q, got) in queries.iter().zip(&batched) {
            let want = array.distances_batch(std::slice::from_ref(q)).unwrap();
            prop_assert_eq!(vec![got.clone()], want, "kernel diverged from the per-query path");
            if backend_idx == 0 {
                let enc = array.encoding();
                let reference: Vec<f64> = (0..array.len())
                    .map(|r| match array.row_health(r) {
                        RowHealth::Quarantined => f64::INFINITY,
                        _ => array
                            .row_vector(r)
                            .unwrap()
                            .iter()
                            .zip(q)
                            .map(|(&s, &q)| f64::from(enc.cell_current(q as usize, s as usize)))
                            .sum(),
                    })
                    .collect();
                let bits = |v: &[f64]| v.iter().map(|d| d.to_bits()).collect::<Vec<_>>();
                prop_assert_eq!(bits(got), bits(&reference), "kernel diverged from the f64 reference");
            }
        }
        let qids: Vec<u64> = (0..queries.len() as u64).collect();
        let outcomes = array.search_batch_at(&queries, &qids).unwrap();
        for (i, q) in queries.iter().enumerate() {
            let alone = array.search_batch_at(std::slice::from_ref(q), &qids[i..=i]).unwrap();
            prop_assert_eq!(&outcomes[i..=i], &alone[..]);
        }
    }

    /// A fault-free replica set is transparent: for every metric, any
    /// replica count, and any valid quorum (reads ≤ N, agree ≤ reads), the
    /// supervisor's answers — sequential and batched — are bit-identical to
    /// a single array with the same base seed, and no query ever falls back
    /// to the digital oracle.
    #[test]
    fn fault_free_replica_set_is_bit_identical_to_single_array(
        data in prop::collection::vec(prop::collection::vec(0u32..4, 6), 1..6),
        queries in prop::collection::vec(prop::collection::vec(0u32..4, 6), 1..5),
        metric_idx in 0usize..3,
        n_replicas in 1usize..4,
        quorum_pick in 0usize..16,
        seed in 0u64..32,
    ) {
        use ferex_core::{QuorumPolicy, ReplicaPolicy, ReplicaSet, ServeSource};
        let metric = DistanceMetric::ALL[metric_idx];
        let dm = DistanceMatrix::from_metric(metric, 2);
        let enc = find_minimal_cell(&dm, &sizing_for(&Technology::default()))
            .expect("paper metrics encode at 2 bits")
            .encoding;
        let cfg = CircuitConfig {
            variation: VariationModel::none(),
            lta: LtaParams::ideal(),
            seed,
            ..Default::default()
        };
        let backend = Backend::Noisy(Box::new(cfg));
        // Any quorum valid for this replica count.
        let reads = 1 + quorum_pick % n_replicas;
        let agree = 1 + (quorum_pick / n_replicas) % reads;
        let build = |b: Backend| {
            let mut a = FerexArray::new(Technology::default(), enc.clone(), 6, b);
            a.store_all(data.iter().cloned()).unwrap();
            a.program();
            a
        };
        let bare = build(backend.clone());
        let replicas: Vec<FerexArray> = (0..n_replicas as u64)
            .map(|i| build(ferex_core::replicate_backend(&backend, i)))
            .collect();
        let policy = ReplicaPolicy {
            quorum: QuorumPolicy { reads, agree },
            ..Default::default()
        };
        let mut set = ReplicaSet::new(replicas, metric, policy).unwrap();

        // Serving one query at a time mirrors the bare array read with
        // query ids 0..len, and so does one batch with the same ids.
        let qids: Vec<u64> = (0..queries.len() as u64).collect();
        let want = bare.search_batch_at(&queries, &qids).unwrap();
        for ((q, &qid), want) in queries.iter().zip(&qids).zip(&want) {
            let served = set.serve_batch_read(std::slice::from_ref(q), &[qid]).unwrap().0.remove(0);
            prop_assert!(matches!(served.source, ServeSource::Replica(_)));
            prop_assert_eq!(&served.outcome, want);
        }
        let (served, _) = set.serve_batch_read(&queries, &qids).unwrap();
        prop_assert_eq!(served.into_iter().map(|s| s.outcome).collect::<Vec<_>>(), want);
        prop_assert_eq!(set.stats().oracle_fallbacks, 0);
        prop_assert_eq!(set.stats().disagreements, 0);
    }

    /// The oracle fallback reads replica 0's logical rows, so it tracks
    /// every supervisor mutation: arbitrary insert, update, delete,
    /// compact and wear-leveling maintenance schedules leave a
    /// fallback-only set exact against the live-set model.
    #[test]
    fn oracle_fallback_is_exact_through_churn(
        ops in prop::collection::vec((0u8..5, 0u64..8, 0u32..4096, 0u32..4096), 1..48),
        metric_idx in 0usize..3,
    ) {
        let metric = DistanceMetric::ALL[metric_idx];
        let policy = MutationPolicy::with_capacity(CHURN_CAPACITY);
        prop_assert!(policy.wear_leveling);
        let dm = DistanceMatrix::from_metric(metric, 2);
        let enc = find_minimal_cell(&dm, &sizing_for(&Technology::default()))
            .expect("paper metrics encode at 2 bits")
            .encoding;
        let replicas: Vec<FerexArray> = (0..2)
            .map(|_| {
                let mut a =
                    FerexArray::new(Technology::default(), enc.clone(), CHURN_DIM, Backend::Ideal);
                a.enable_mutation(policy).unwrap();
                for id in 0..CHURN_INITIAL {
                    a.insert(id, churn_initial(id)).unwrap();
                }
                a.program();
                a
            })
            .collect();
        check_fallback_through_churn(fallback_only_set(replicas, metric), metric, &ops);
    }
}
