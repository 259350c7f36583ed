//! Seeded inputs: stored rows, perturbed queries and the mutation stream.
//!
//! Everything the system under test receives is generated here from the
//! run's `--seed` and the workload name alone, through domain-separated
//! splitmix streams, so the same seed always yields the same inputs and
//! two workloads never share a stream.
//!
//! Rows are uniform 2-bit codes of dimension 64. A query is a stored row
//! with [`FLIPS`] of its bits flipped, which gives every query the clear
//! nearest neighbour that kNN and HDC queries have.

use ferex_datasets::synth::flip_symbol_bits;
use ferex_fefet::math::splitmix64;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

/// Symbols per stored vector.
pub const DIM: usize = 64;
/// Bits per symbol.
pub const BITS: u32 = 2;
/// Bits flipped to turn a stored row into a query.
pub const FLIPS: usize = 4;

/// The independent random streams of one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stream {
    /// Initially stored rows.
    Rows = 1,
    /// Query row choice and bit flips.
    Queries = 2,
    /// Mutation targets and new vectors.
    Mutations = 3,
    /// The Noisy backend's device seed.
    Device = 4,
}

/// Seed of `stream` for `workload` under the run seed `seed`.
pub fn stream_seed(seed: u64, workload: &str, stream: Stream) -> u64 {
    // FNV-1a over the name, then avalanche-mixed with the seed and stream.
    let name = workload
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325u64, |h, b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3));
    splitmix64(splitmix64(seed ^ name) ^ stream as u64)
}

fn random_row(rng: &mut StdRng) -> Vec<u32> {
    (0..DIM).map(|_| rng.gen_range(0..1u32 << BITS)).collect()
}

/// `n` uniform random rows for `workload`.
pub fn rows(n: usize, seed: u64, workload: &str) -> Vec<Vec<u32>> {
    let mut rng = StdRng::seed_from_u64(stream_seed(seed, workload, Stream::Rows));
    (0..n).map(|_| random_row(&mut rng)).collect()
}

/// The query stream: each query perturbs a uniformly chosen candidate row.
#[derive(Debug, Clone)]
pub struct QueryStream(StdRng);

impl QueryStream {
    /// The query stream of `workload` under `seed`.
    pub fn new(seed: u64, workload: &str) -> Self {
        QueryStream(StdRng::seed_from_u64(stream_seed(seed, workload, Stream::Queries)))
    }

    /// A query near one of `candidates` rows, where `row(i)` is candidate
    /// `i`.
    pub fn next<'a>(&mut self, candidates: usize, row: impl Fn(usize) -> &'a [u32]) -> Vec<u32> {
        let pick = self.0.gen_range(0..candidates);
        flip_symbol_bits(row(pick), BITS, FLIPS, &mut self.0)
    }
}

/// One online mutation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Mutation {
    /// Store a new id.
    Insert(u64, Vec<u32>),
    /// Replace a live id's vector.
    Update(u64, Vec<u32>),
    /// Remove a live id.
    Delete(u64),
}

/// The live-set model of a churning store: which ids are live and what
/// they hold. It generates the mutation stream and is the reference the
/// churn workload's answers are checked against.
#[derive(Debug, Clone)]
pub struct LiveSet {
    vectors: BTreeMap<u64, Vec<u32>>,
    /// Live ids in an order that supports uniform picks.
    ids: Vec<u64>,
    next_id: u64,
    rng: StdRng,
}

impl LiveSet {
    /// A model holding `initial` under ids `0..initial.len()`.
    pub fn new(initial: Vec<Vec<u32>>, seed: u64, workload: &str) -> Self {
        let next_id = initial.len() as u64;
        LiveSet {
            ids: (0..next_id).collect(),
            vectors: (0..next_id).zip(initial).collect(),
            next_id,
            rng: StdRng::seed_from_u64(stream_seed(seed, workload, Stream::Mutations)),
        }
    }

    /// Live ids and their vectors, ascending by id.
    pub fn vectors(&self) -> &BTreeMap<u64, Vec<u32>> {
        &self.vectors
    }

    /// A query near a uniformly chosen live row.
    pub fn query(&self, queries: &mut QueryStream) -> Vec<u32> {
        queries.next(self.ids.len(), |i| {
            self.ids.get(i).and_then(|id| self.vectors.get(id)).map_or(&[], Vec::as_slice)
        })
    }

    fn pick(&mut self) -> u64 {
        let i = self.rng.gen_range(0..self.ids.len());
        self.ids.get(i).copied().unwrap_or(0)
    }

    /// The next round of mutations — two updates, one delete, one insert,
    /// in that order — applied to the model as they are generated, so the
    /// live-id count stays constant.
    pub fn round(&mut self) -> Vec<Mutation> {
        let mut out = Vec::with_capacity(4);
        for _ in 0..2 {
            let id = self.pick();
            let v = random_row(&mut self.rng);
            self.vectors.insert(id, v.clone());
            out.push(Mutation::Update(id, v));
        }
        let victim = self.pick();
        self.vectors.remove(&victim);
        self.ids.retain(|&id| id != victim);
        out.push(Mutation::Delete(victim));
        let id = self.next_id;
        self.next_id += 1;
        let v = random_row(&mut self.rng);
        self.vectors.insert(id, v.clone());
        self.ids.push(id);
        out.push(Mutation::Insert(id, v));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inputs(seed: u64) -> (Vec<Vec<u32>>, Vec<Vec<u32>>, Vec<Mutation>) {
        let stored = rows(50, seed, "churn-ideal");
        let mut live = LiveSet::new(stored.clone(), seed, "churn-ideal");
        let mut queries = QueryStream::new(seed, "churn-ideal");
        let mut qs = Vec::new();
        let mut muts = Vec::new();
        for _ in 0..5 {
            qs.push(live.query(&mut queries));
            muts.extend(live.round());
        }
        (stored, qs, muts)
    }

    #[test]
    fn the_same_seed_gives_identical_inputs() {
        assert_eq!(inputs(42), inputs(42));
    }

    #[test]
    fn another_seed_or_workload_gives_different_inputs() {
        let (rows_a, queries_a, muts_a) = inputs(42);
        let (rows_b, queries_b, muts_b) = inputs(43);
        assert_ne!(rows_a, rows_b);
        assert_ne!(queries_a, queries_b);
        assert_ne!(muts_a, muts_b);
        assert_ne!(rows(50, 42, "point-ideal"), rows(50, 42, "churn-ideal"));
    }

    #[test]
    fn queries_stay_near_a_stored_row_and_churn_keeps_the_live_count() {
        let stored = rows(20, 7, "w");
        let mut qs = QueryStream::new(7, "w");
        for _ in 0..20 {
            let q = qs.next(stored.len(), |i| &stored[i]);
            let nearest = stored
                .iter()
                .map(|r| r.iter().zip(&q).map(|(a, b)| (a ^ b).count_ones()).sum::<u32>())
                .min();
            assert!(nearest.is_some_and(|d| d <= FLIPS as u32));
        }
        let mut live = LiveSet::new(stored, 7, "w");
        for _ in 0..30 {
            live.round();
        }
        assert_eq!(live.vectors().len(), 20);
        assert_eq!(live.ids.len(), 20);
    }
}
