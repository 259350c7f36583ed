//! Online-mutation conformance: the three-legged gate of the mutability
//! subsystem.
//!
//! * **Rebuild equivalence** — a seeded interleaved schedule of
//!   insert/update/delete/search/compact ops runs against a replicated
//!   mutation-enabled engine; at every checkpoint the logical-id-keyed
//!   distances of replica 0 must *byte-match* (`f64::to_bits`) a
//!   from-scratch array rebuilt from the same logical contents. Slot
//!   layouts are free to differ — tombstones, compaction and wear rotation
//!   permute physical rows — but per-id analog readout may not.
//! * **Serving through churn** — every search op in the schedule is served
//!   through the [`ReplicaSet`] quorum path *while* mutations land, and
//!   recall@1 against the exact digital mirror must stay perfect
//!   (tie-safe: the served id's integer distance equals the mirror
//!   minimum).
//! * **Endurance soak** — a hot-id churn runs once with wear leveling and
//!   once without; the leveled max-cycles/mean imbalance must stay within
//!   2x while the unleveled leg exceeds 5x, proving the rotation policy
//!   earns its keep.
//!
//! Everything derives from one base seed through purpose-salted
//! `splitmix64` streams, so the standard report is byte-reproducible.

use std::collections::BTreeMap;

use rand::rngs::StdRng;
use rand::SeedableRng;

use ferex_analog::lta::LtaParams;
use ferex_core::{
    derive_replica_seed, CellEncoding, CircuitConfig, DistanceMetric, FerexArray, FerexError,
    MutationPolicy, QuorumPolicy, ReplicaPolicy, ReplicaSet,
};
use ferex_fefet::math::splitmix64;
use ferex_fefet::{Technology, VariationModel};

use crate::harness::{gen_vectors, BackendKind};
use crate::report::{ChurnSoak, MutationReport, MutationScenario, WearRow};

/// Purpose-separation salt of the mutation leg's seed streams.
const MUTATION_STREAM_SALT: u64 = 0x4D75_7A5E_EDC0_FFEE;

/// One cell of the mutation soak: data shape, op budget, checkpoint
/// cadence and the replica/quorum geometry the churn is served through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MutationSpec {
    /// Distance metric under mutation.
    pub metric: DistanceMetric,
    /// Backend kind (`Ideal` exact, or the corner-`Noisy`/`Circuit`
    /// device models with variation and sensing noise zeroed).
    pub backend: BackendKind,
    /// Symbol bit width.
    pub bits: u32,
    /// Symbols per vector.
    pub dim: usize,
    /// Physical slot capacity of the mutation table.
    pub capacity: usize,
    /// Live ids seeded before the churn starts.
    pub initial: usize,
    /// Interleaved mutation/search ops in the schedule.
    pub n_ops: usize,
    /// Rebuild-equivalence checkpoint cadence, in ops.
    pub checkpoint_every: usize,
    /// Wear-rotation maintenance cadence, in ops.
    pub maintenance_every: usize,
    /// Replica count the churn is served through.
    pub replicas: usize,
    /// Quorum reads per query.
    pub reads: usize,
    /// Quorum agreement threshold.
    pub agree: usize,
    /// Base seed everything derives from.
    pub seed: u64,
}

impl MutationSpec {
    /// Derives a purpose-separated sub-seed of this scenario's stream.
    fn derived_seed(&self, purpose: u64) -> u64 {
        splitmix64(self.seed ^ splitmix64(purpose ^ MUTATION_STREAM_SALT))
    }

    /// Scenario label, `<metric>-<backend>`.
    fn name(&self) -> String {
        format!("{}-{}", crate::harness::metric_label(self.metric), self.backend.label())
    }
}

/// Builds one mutation-enabled replica: corner circuit config (variation
/// and sensing noise off, faults off), the spec's backend, the shared
/// mutation policy, and the current logical contents replayed in
/// ascending-id order before bulk programming.
fn build_replica(
    spec: &MutationSpec,
    encoding: &CellEncoding,
    policy: MutationPolicy,
    seed: u64,
    live: &BTreeMap<u64, Vec<u32>>,
) -> Result<FerexArray, FerexError> {
    let cfg = CircuitConfig {
        variation: VariationModel::none(),
        lta: LtaParams::ideal(),
        seed,
        ..Default::default()
    };
    let mut array = FerexArray::new(
        Technology::default(),
        encoding.clone(),
        spec.dim,
        spec.backend.backend(cfg),
    );
    array.enable_mutation(policy)?;
    for (id, v) in live {
        array.insert(*id, v.clone())?;
    }
    array.program();
    Ok(array)
}

/// `true` when replica-0 distances keyed by logical id byte-match the
/// rebuilt array on every probe, and both agree with the mirror on the
/// live-id set. Slot layouts may differ; per-id bits may not.
fn checkpoint_matches(
    live: &FerexArray,
    rebuilt: &FerexArray,
    mirror: &BTreeMap<u64, Vec<u32>>,
    probes: &[Vec<u32>],
) -> bool {
    let ids = live.live_ids();
    let mirror_ids: Vec<u64> = mirror.keys().copied().collect();
    if ids != rebuilt.live_ids() || ids != mirror_ids {
        return false;
    }
    // Fixed query ids keep the sensing-noise stream (a no-op under the
    // corner config) identical on both sides.
    let qids: Vec<u64> = (0..probes.len() as u64).collect();
    let (Ok(live_out), Ok(rebuilt_out)) =
        (live.search_batch_at(probes, &qids), rebuilt.search_batch_at(probes, &qids))
    else {
        return false;
    };
    for (a, b) in live_out.iter().zip(&rebuilt_out) {
        for &id in &ids {
            let (Some(sa), Some(sb)) = (live.slot_of(id), rebuilt.slot_of(id)) else {
                return false;
            };
            let (Some(da), Some(db)) = (a.distances.get(sa), b.distances.get(sb)) else {
                return false;
            };
            if da.to_bits() != db.to_bits() {
                return false;
            }
        }
    }
    true
}

/// Runs one mutation cell. See the module docs for the three contracts;
/// this covers the first two (rebuild equivalence + serving through
/// churn); [`run_churn_soak`] covers the endurance leg.
///
/// # Panics
///
/// Panics on malformed specs (zero replicas, initial set exceeding
/// capacity, invalid quorum) and on any backend error, like
/// [`run_sweep`](crate::harness::run_sweep).
pub fn run_mutation(spec: &MutationSpec) -> MutationScenario {
    assert!(spec.replicas >= 1, "mutation soak needs at least one replica");
    assert!(spec.initial >= 2, "mutation soak needs at least two initial ids");
    assert!(spec.initial + 2 <= spec.capacity, "initial set must leave slot headroom");
    assert!(spec.checkpoint_every > 0 && spec.maintenance_every > 0, "cadences must be nonzero");
    // lint:allow(panic-safety/expect, reason = "spec bounds asserted above; an error past them is a harness bug")
    run_mutation_inner(spec).expect("mutation schedule must stay within spec bounds")
}

fn run_mutation_inner(spec: &MutationSpec) -> Result<MutationScenario, FerexError> {
    let encoding = crate::harness::encoding_for(spec.metric, spec.bits)?;
    let mut data_rng = StdRng::seed_from_u64(spec.derived_seed(0));
    let initial = gen_vectors(spec.initial, spec.dim, spec.bits, &mut data_rng);
    let probes = gen_vectors(4, spec.dim, spec.bits, &mut data_rng);
    let mut mirror: BTreeMap<u64, Vec<u32>> =
        initial.into_iter().enumerate().map(|(i, v)| (i as u64, v)).collect();

    let policy = MutationPolicy::with_capacity(spec.capacity);
    let base_seed = spec.derived_seed(1);
    let mut replicas = Vec::with_capacity(spec.replicas);
    for i in 0..spec.replicas {
        replicas.push(build_replica(
            spec,
            &encoding,
            policy,
            derive_replica_seed(base_seed, i as u64),
            &mirror,
        )?);
    }
    let rp = ReplicaPolicy {
        quorum: QuorumPolicy { reads: spec.reads, agree: spec.agree },
        ..Default::default()
    };
    let mut set = ReplicaSet::new(replicas, spec.metric, rp)?;

    let op_seed = spec.derived_seed(2);
    let mut next_id = spec.initial as u64;
    let (mut inserts, mut updates, mut deletes) = (0u64, 0u64, 0u64);
    let (mut searches, mut hits) = (0usize, 0usize);
    let (mut checkpoints, mut matched) = (0usize, 0usize);
    let mut rotated = 0u64;

    for op in 0..spec.n_ops {
        let draw = splitmix64(op_seed ^ splitmix64(op as u64));
        let ids: Vec<u64> = mirror.keys().copied().collect();
        let pick = |salt: u64| -> Option<u64> {
            if ids.is_empty() {
                return None;
            }
            ids.get((splitmix64(draw ^ splitmix64(salt)) % ids.len() as u64) as usize).copied()
        };
        let kind = draw % 4;
        if kind == 0 && mirror.len() + 2 <= spec.capacity {
            // Insert a fresh id; keep headroom so wear rotation always has
            // free slots to move onto.
            let v = gen_vectors(1, spec.dim, spec.bits, &mut data_rng)
                .pop()
                .ok_or(FerexError::Empty)?;
            set.insert(next_id, v.clone())?;
            mirror.insert(next_id, v);
            next_id += 1;
            inserts += 1;
        } else if kind == 3 {
            // Serve through the quorum path while the churn is live. The
            // query is a live vector, so the mirror minimum is zero and
            // any id at that distance is a tie-safe hit.
            let id = pick(11).ok_or(FerexError::Empty)?;
            let q = mirror.get(&id).cloned().ok_or(FerexError::UnknownId { id })?;
            let served = set.serve(&q)?;
            let best =
                mirror.values().map(|v| spec.metric.vector_distance(&q, v)).min().unwrap_or(0);
            let got = set
                .replica(0)
                .id_at(served.outcome.nearest)
                .and_then(|gid| mirror.get(&gid))
                .map(|v| spec.metric.vector_distance(&q, v));
            hits += usize::from(got == Some(best));
            searches += 1;
        } else if kind == 2 && mirror.len() > 2 {
            let id = pick(7).ok_or(FerexError::Empty)?;
            set.delete(id)?;
            mirror.remove(&id);
            deletes += 1;
        } else {
            let id = pick(3).ok_or(FerexError::Empty)?;
            let v = gen_vectors(1, spec.dim, spec.bits, &mut data_rng)
                .pop()
                .ok_or(FerexError::Empty)?;
            set.update(id, v.clone())?;
            mirror.insert(id, v);
            updates += 1;
        }
        if (op + 1) % spec.maintenance_every == 0 {
            rotated += set.maintenance().rotated as u64;
        }
        if (op + 1) % spec.checkpoint_every == 0 {
            // From-scratch rebuild of the current logical contents, same
            // backend stream as replica 0.
            let rebuilt =
                build_replica(spec, &encoding, policy, derive_replica_seed(base_seed, 0), &mirror)?;
            checkpoints += 1;
            matched += usize::from(checkpoint_matches(set.replica(0), &rebuilt, &mirror, &probes));
        }
    }

    let stats = set.stats();
    Ok(MutationScenario {
        name: spec.name(),
        metric: crate::harness::metric_label(spec.metric).to_string(),
        backend: spec.backend.label().to_string(),
        dim: spec.dim,
        capacity: spec.capacity,
        initial: spec.initial,
        ops: spec.n_ops,
        replicas: spec.replicas,
        inserts,
        updates,
        deletes,
        checkpoints,
        checkpoints_matched: matched,
        searches,
        recall_milli: (hits * 1000).checked_div(searches).unwrap_or(0) as u64,
        oracle_fallbacks: stats.oracle_fallbacks,
        disagreements: stats.disagreements,
        live_rows: mirror.len(),
        wear: WearRow::from_summary(&set.wear(), rotated),
    })
}

/// Runs the endurance soak: a hot-id churn (two ids absorb every update)
/// against a single Ideal-backend array, once with wear leveling and once
/// without, identical op streams otherwise.
///
/// # Panics
///
/// Panics on backend errors; the schedule itself is statically in-bounds.
pub fn run_churn_soak(seed: u64) -> ChurnSoak {
    // lint:allow(panic-safety/expect, reason = "fixed schedule stays within the fixed capacity; an error is a harness bug")
    run_churn_soak_inner(seed).expect("churn soak must stay within its fixed bounds")
}

const CHURN_CAPACITY: usize = 32;
const CHURN_LIVE: usize = 24;
const CHURN_ROUNDS: usize = 400;
const CHURN_HOT_IDS: usize = 2;
const CHURN_MAINTENANCE: usize = 8;

fn run_churn_soak_inner(seed: u64) -> Result<ChurnSoak, FerexError> {
    let encoding = crate::harness::encoding_for(DistanceMetric::Hamming, 2)?;
    let leg = |leveling: bool| -> Result<WearRow, FerexError> {
        let mut policy = MutationPolicy::with_capacity(CHURN_CAPACITY);
        policy.wear_leveling = leveling;
        let cfg = CircuitConfig { seed, ..Default::default() };
        let mut a = FerexArray::new(
            Technology::default(),
            encoding.clone(),
            4,
            BackendKind::Ideal.backend(cfg),
        );
        a.enable_mutation(policy)?;
        for id in 0..CHURN_LIVE as u64 {
            a.insert(id, vec![(id % 4) as u32; 4])?; // lint:allow(cast-truncation/narrowing, reason = "value < 4 by the modulo")
        }
        a.program();
        let mut rotated = 0u64;
        for round in 0..CHURN_ROUNDS as u64 {
            let id = round % CHURN_HOT_IDS as u64;
            a.update_id(id, vec![(round % 4) as u32; 4])?; // lint:allow(cast-truncation/narrowing, reason = "value < 4 by the modulo")
            if (round + 1) % CHURN_MAINTENANCE as u64 == 0 {
                rotated += a.maintenance().rotated as u64;
            }
        }
        Ok(WearRow::from_summary(&a.wear(), rotated))
    };
    Ok(ChurnSoak {
        capacity: CHURN_CAPACITY,
        live: CHURN_LIVE,
        rounds: CHURN_ROUNDS,
        hot_ids: CHURN_HOT_IDS,
        maintenance_period: CHURN_MAINTENANCE,
        leveled: leg(true)?,
        unleveled: leg(false)?,
    })
}

/// The standard mutation cells: every metric on the bit-exact Ideal
/// backend, plus a corner-`Noisy` and a corner-`Circuit` Hamming cell
/// proving the delta-program path byte-matches rebuilds on the device
/// models too.
pub fn standard_mutation_specs(seed: u64) -> Vec<MutationSpec> {
    let cell = |metric, backend| MutationSpec {
        metric,
        backend,
        bits: 2,
        dim: 6,
        capacity: 24,
        initial: 12,
        n_ops: 96,
        checkpoint_every: 24,
        maintenance_every: 16,
        replicas: 2,
        reads: 2,
        agree: 2,
        seed,
    };
    let mut specs: Vec<MutationSpec> =
        DistanceMetric::ALL.into_iter().map(|m| cell(m, BackendKind::Ideal)).collect();
    specs.push(cell(DistanceMetric::Hamming, BackendKind::Noisy));
    specs.push(cell(DistanceMetric::Hamming, BackendKind::Circuit));
    specs
}

/// Runs the standard cells plus the endurance soak into the archived
/// `ferex-mutation-v1` report.
pub fn standard_mutation_report(seed: u64) -> MutationReport {
    MutationReport {
        seed,
        bits: 2,
        scenarios: standard_mutation_specs(seed).iter().map(run_mutation).collect(),
        churn: run_churn_soak(seed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_specs_cover_all_metrics_and_device_corners() {
        let specs = standard_mutation_specs(42);
        assert_eq!(specs.len(), 5);
        assert_eq!(specs.iter().filter(|s| s.backend == BackendKind::Ideal).count(), 3);
        assert!(specs.iter().any(|s| s.backend == BackendKind::Noisy));
        assert!(specs.iter().any(|s| s.backend == BackendKind::Circuit));
        for s in &specs {
            assert!(s.initial + 2 <= s.capacity);
            assert_eq!(s.seed, 42);
        }
    }

    #[test]
    fn ideal_cell_matches_rebuilds_and_serves_perfectly() {
        let spec = MutationSpec {
            metric: DistanceMetric::Hamming,
            backend: BackendKind::Ideal,
            bits: 2,
            dim: 4,
            capacity: 16,
            initial: 6,
            n_ops: 48,
            checkpoint_every: 12,
            maintenance_every: 8,
            replicas: 1,
            reads: 1,
            agree: 1,
            seed: 7,
        };
        let s = run_mutation(&spec);
        assert_eq!(s.checkpoints, 4);
        assert_eq!(s.checkpoints_matched, s.checkpoints, "rebuild equivalence must hold");
        assert!(s.searches > 0, "schedule must exercise the serving path");
        assert_eq!(s.recall_milli, 1000, "churn must not cost recall");
        assert_eq!(s.inserts + s.updates + s.deletes + s.searches as u64, s.ops as u64);
        assert!(s.wear.total_writes > 0);
    }

    #[test]
    fn corner_circuit_cell_byte_matches_rebuilds() {
        let mut spec = standard_mutation_specs(42)
            .into_iter()
            .find(|s| s.backend == BackendKind::Circuit)
            .unwrap();
        spec.n_ops = 24;
        spec.checkpoint_every = 12;
        let s = run_mutation(&spec);
        assert!(s.checkpoints >= 2);
        assert_eq!(s.checkpoints_matched, s.checkpoints);
        assert_eq!(s.recall_milli, 1000);
    }

    #[test]
    fn churn_soak_separates_leveled_from_unleveled_wear() {
        let churn = run_churn_soak(42);
        assert!(
            churn.leveled.imbalance_milli <= 2000,
            "leveled max/mean {} per-mille",
            churn.leveled.imbalance_milli
        );
        assert!(
            churn.unleveled.imbalance_milli >= 5000,
            "unleveled max/mille {} per-mille",
            churn.unleveled.imbalance_milli
        );
        assert!(churn.leveled.rotated > 0, "leveling must actually rotate rows");
        assert_eq!(churn.unleveled.rotated, 0, "unleveled leg must not rotate");
    }

    #[test]
    fn mutation_runs_are_byte_reproducible() {
        let a = standard_mutation_report(42).to_json();
        let b = standard_mutation_report(42).to_json();
        assert_eq!(a, b);
        let other = standard_mutation_report(1337).to_json();
        assert_eq!(a.lines().count(), other.lines().count(), "same shape for any seed");
    }
}
