//! Structure-of-arrays layout for the hot distance kernels.
//!
//! The array API stores logical vectors as `Vec<Vec<u32>>` — convenient
//! for callers, hostile to the inner loops: every row is a separate heap
//! allocation and every symbol burns 4 bytes for a value that is at most
//! 63 (the encoder caps stored alphabets at 64 levels). This module owns
//! the kernel-facing mirror of that data:
//!
//! * [`SoaCodes`] — all stored symbols quantized to `u8` in one contiguous
//!   `rows × dim` buffer, maintained eagerly by the array's mutators so
//!   the read path never rebuilds it, plus the stored rows' packed
//!   bit-planes. The planes are packed lazily, on the first bit-plane
//!   kernel call; from then on each mutator re-packs only the rows it
//!   touches. A bit-plane query therefore pays for the rows it scans and
//!   nothing else, and an array that never takes that kernel (Noisy,
//!   Circuit, a LUT encoding) never allocates planes at all.
//! * [`balanced_ranges`] — query-batch partitioning that hands every
//!   worker a chunk (sizes differ by at most one), instead of the
//!   `div_ceil`-sized chunks that left workers idle on non-divisible
//!   batches.
//! * Bit-plane packing ([`pack_bit_planes`]) and the XOR-popcount
//!   detector ([`is_xor_popcount`]) behind the Hamming fast path: when
//!   the programmed encoding's cell currents are exactly
//!   `popcount(q XOR s)`, a row distance collapses to word-parallel
//!   `XOR` + `count_ones` over packed planes.
//! * The per-query current LUT ([`query_lut`]) for every other encoding:
//!   `lut[d · n_stored + s]` is the exact integer current of stored
//!   symbol `s` against query symbol `d`'s drive, laid out so one query's
//!   rows are contiguous.
//!
//! An Ideal read then senses with a zero-offset LTA, which
//! (`LtaParams::sense`) is a plain argmin that draws no noise, so a batch
//! of one costs one kernel pass over the rows plus one argmin.
//!
//! # Bit-identity
//!
//! Both kernels accumulate in `u64` and convert once at the end, while
//! the scalar reference path ([`crate::array::FerexArray::distances`])
//! sums the same integers in `f64`. These agree bit for bit because every
//! partial sum is a non-negative integer far below 2⁵³ (the worst case,
//! `max_vds_multiple × k × dim`, is ≤ 63 × 6 × dim): integer-valued `f64`
//! addition is exact in that range, so the scalar `f64` running sum *is*
//! the integer sum, and `sum as f64` reproduces it exactly.

use crate::encoding::CellEncoding;
use rayon::prelude::*;
use std::ops::Range;
use std::sync::OnceLock;

/// Contiguous `rows × dim` buffer of stored symbol codes, one byte per
/// symbol, and the bit-planes packed from it.
///
/// Codes are written as `symbol & 0xff`. This is lossless whenever the
/// *current* encoding has at most 256 stored levels: every mutator
/// validates symbols against `n_stored` before they reach this buffer,
/// and a reconfiguration to a ≤ 256-level encoding re-validates every
/// stored symbol — so in the only regime where the kernels read this
/// buffer (`n_stored ≤ 256`, checked at dispatch), the truncation is the
/// identity.
///
/// Once built, the planes always equal a fresh [`pack_bit_planes`] of
/// every row at the current width: each mutator re-packs the rows it
/// changes, and a width change ([`SoaCodes::set_plane_bits`]) drops them.
#[derive(Debug, Clone, Default)]
pub(crate) struct SoaCodes {
    codes: Vec<u8>,
    dim: usize,
    /// Bits per symbol in the planes ([`plane_bits`] of the encoding).
    bits: u32,
    /// Row-major packed planes, `bits × ⌈dim/64⌉` words per row. A
    /// `OnceLock` so the `&self` read path can build them on first use.
    planes: OnceLock<Vec<u64>>,
}

impl SoaCodes {
    /// An empty buffer for `dim`-symbol rows whose planes hold `bits`
    /// bits per symbol.
    pub(crate) fn new(dim: usize, bits: u32) -> Self {
        SoaCodes { codes: Vec::new(), dim, bits, planes: OnceLock::new() }
    }

    /// Appends one row.
    pub(crate) fn push_row(&mut self, row: &[u32]) {
        debug_assert_eq!(row.len(), self.dim);
        self.codes.extend(row.iter().map(|&s| (s & 0xff) as u8)); // lint:allow(cast-truncation/narrowing, reason = "masked to the low 8 bits; SoA symbols are validated < 256")
        let stride = self.plane_stride();
        if let Some(planes) = self.planes.get_mut() {
            planes.resize(planes.len() + stride, 0);
        }
        self.repack_row(self.rows().saturating_sub(1));
    }

    /// Overwrites row `r` in place.
    pub(crate) fn set_row(&mut self, r: usize, row: &[u32]) {
        debug_assert_eq!(row.len(), self.dim);
        let base = r * self.dim;
        // lint:allow(panic-safety/index, reason = "callers pass a row index below rows(); the buffer is rows x dim by construction")
        for (dst, &s) in self.codes[base..base + self.dim].iter_mut().zip(row) {
            *dst = (s & 0xff) as u8; // lint:allow(cast-truncation/narrowing, reason = "masked to the low 8 bits; SoA symbols are validated < 256")
        }
        self.repack_row(r);
    }

    /// Zeroes row `r` in place — the reclaim path of tombstone
    /// compaction and the rollback path of a failed delta write, with no
    /// scratch allocation.
    pub(crate) fn zero_row(&mut self, r: usize) {
        let base = r * self.dim;
        if let Some(row) = self.codes.get_mut(base..base + self.dim) {
            row.fill(0);
        }
        self.repack_row(r);
    }

    /// Removes row `r`, shifting later rows up (mirrors
    /// [`crate::array::FerexArray::remove`]).
    pub(crate) fn remove_row(&mut self, r: usize) {
        let base = r * self.dim;
        self.codes.drain(base..base + self.dim);
        let stride = self.plane_stride();
        if let Some(planes) = self.planes.get_mut() {
            planes.drain(r * stride..(r + 1) * stride);
        }
    }

    /// Drops every row, and the planes with them.
    pub(crate) fn clear(&mut self) {
        self.codes.clear();
        self.planes = OnceLock::new();
    }

    /// Sets the planes' bits per symbol, dropping built planes when the
    /// width changes (a reconfiguration to another alphabet size). The
    /// codes themselves do not depend on the width.
    pub(crate) fn set_plane_bits(&mut self, bits: u32) {
        if bits != self.bits {
            self.bits = bits;
            self.planes = OnceLock::new();
        }
    }

    /// Bits per symbol and 64-symbol words per plane: one row's planes
    /// are `bits × words` words.
    pub(crate) fn plane_shape(&self) -> (u32, usize) {
        (self.bits, self.dim.div_ceil(64))
    }

    fn plane_stride(&self) -> usize {
        let (bits, words) = self.plane_shape();
        bits as usize * words
    }

    /// The packed bit-planes of every row, row-major with
    /// [`SoaCodes::plane_shape`] words per row. The first call packs all
    /// rows, row-parallel; the mutators keep them in sync after that.
    pub(crate) fn bit_planes(&self) -> &[u64] {
        self.planes.get_or_init(|| {
            let (bits, words) = self.plane_shape();
            let stride = self.plane_stride();
            let mut planes = vec![0u64; self.rows() * stride];
            if stride > 0 {
                planes.par_chunks_mut(stride).enumerate().for_each(|(r, out)| {
                    pack_bit_planes(self.row(r), bits, words, out);
                });
            }
            planes
        })
    }

    /// Re-packs row `r`'s planes from its codes; nothing to do until the
    /// planes are built.
    fn repack_row(&mut self, r: usize) {
        let (bits, words) = self.plane_shape();
        let stride = self.plane_stride();
        let Some(planes) = self.planes.get_mut() else { return };
        let codes = self.codes.get(r * self.dim..(r + 1) * self.dim);
        if let (Some(codes), Some(out)) = (codes, planes.get_mut(r * stride..(r + 1) * stride)) {
            out.fill(0);
            pack_bit_planes(codes, bits, words, out);
        }
    }

    /// The whole buffer, row-major.
    #[cfg(test)]
    pub(crate) fn as_slice(&self) -> &[u8] {
        &self.codes
    }

    /// The planes, if built.
    #[cfg(test)]
    pub(crate) fn cached_planes(&self) -> Option<&[u64]> {
        self.planes.get().map(Vec::as_slice)
    }

    /// Row `r`'s codes.
    pub(crate) fn row(&self, r: usize) -> &[u8] {
        // lint:allow(panic-safety/index, reason = "callers pass a row index below rows(); the buffer is rows x dim by construction")
        &self.codes[r * self.dim..(r + 1) * self.dim]
    }

    /// Number of complete rows held.
    pub(crate) fn rows(&self) -> usize {
        self.codes.len().checked_div(self.dim).unwrap_or(0)
    }
}

/// Splits `0..len` into at most `parts` contiguous ranges whose lengths
/// differ by at most one — every range non-empty, every worker busy.
///
/// The old batch chunking used `par_chunks(len.div_ceil(threads))`,
/// which over-fills early chunks and can leave a large fraction of the
/// pool idle (9 queries over 8 workers became 5 chunks of 2 with 3
/// workers doing nothing). Chunk boundaries never affect results — each
/// query's distances depend only on that query — so rebalancing is free.
pub(crate) fn balanced_ranges(len: usize, parts: usize) -> Vec<Range<usize>> {
    let n = parts.max(1).min(len);
    let base = len.checked_div(n).unwrap_or(0);
    let rem = len.checked_rem(n).unwrap_or(0);
    let mut out = Vec::with_capacity(n);
    let mut start = 0;
    for i in 0..n {
        let size = base + usize::from(i < rem);
        out.push(start..start + size);
        start += size;
    }
    debug_assert_eq!(start, len);
    out
}

/// `true` when the encoding's programmed cell currents are *exactly* the
/// bitwise Hamming distance — `cell_current(q, s) == popcount(q XOR s)`
/// for every (query, stored) pair over a square, power-of-two alphabet.
///
/// Detected from the realized current table rather than the requested
/// metric, so the popcount fast path can never be enabled for an
/// encoding (custom DM, future metric) whose currents merely resemble
/// Hamming.
pub(crate) fn is_xor_popcount(encoding: &CellEncoding) -> bool {
    let n = encoding.n_stored();
    if n != encoding.n_search() || !n.is_power_of_two() || n > 256 {
        return false;
    }
    for q in 0..n {
        for s in 0..n {
            // lint:allow(cast-truncation/narrowing, reason = "q and s are below the symbol count n <= 64")
            if encoding.cell_current(q, s) != ((q ^ s) as u32).count_ones() {
                return false;
            }
        }
    }
    true
}

/// Bits per symbol of an encoding's bit-planes: `⌈log2 n_stored⌉`, enough
/// to hold every stored symbol (exactly `log2` for the power-of-two
/// alphabets the bit-plane kernel serves).
pub(crate) fn plane_bits(encoding: &CellEncoding) -> u32 {
    encoding.n_stored().next_power_of_two().trailing_zeros()
}

/// Packs one row of symbol codes into `bits` bit-planes of `words`
/// 64-symbol words each: bit `d % 64` of plane `b`'s word `d / 64` is
/// bit `b` of symbol `d`. Tail bits beyond `dim` stay zero, so they
/// cancel in any XOR between two packed rows.
///
/// `out` must hold exactly `bits × words` words and start zeroed.
pub(crate) fn pack_bit_planes(codes: &[u8], bits: u32, words: usize, out: &mut [u64]) {
    debug_assert_eq!(out.len(), bits as usize * words);
    // lint:allow(panic-safety/index, reason = "hot kernel: out is bits x words and d / 64 < words because words = ceil(dim / 64) and d < dim")
    for (d, &c) in codes.iter().enumerate() {
        let word = d / 64;
        let bit = (d % 64) as u64;
        for b in 0..bits {
            if (c >> b) & 1 == 1 {
                out[b as usize * words + word] |= 1u64 << bit;
            }
        }
    }
}

/// Hamming distance between two packed bit-plane rows: XOR each pair of
/// words and popcount. Exactly `Σ_d popcount(q_d XOR s_d)` because each
/// symbol's bits land in disjoint (plane, bit) slots.
#[inline]
pub(crate) fn popcount_distance(a: &[u64], b: &[u64]) -> u64 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(&x, &y)| u64::from((x ^ y).count_ones())).sum()
}

/// Builds one query's current LUT: `lut[d · n_stored + s]` is the exact
/// integer current stored symbol `s` contributes under query symbol
/// `query[d]`'s column drive. One query's `dim` LUT rows are contiguous,
/// so the row-distance loop walks two dense buffers in step.
pub(crate) fn query_lut(encoding: &CellEncoding, query: &[u32]) -> Vec<u64> {
    let n_stored = encoding.n_stored();
    let mut lut = Vec::with_capacity(query.len() * n_stored);
    for &q in query {
        for s in 0..n_stored {
            lut.push(u64::from(encoding.cell_current(q as usize, s)));
        }
    }
    lut
}

/// Row distance through a per-query LUT: `Σ_d lut[d · n_stored + codes[d]]`.
#[inline]
pub(crate) fn lut_distance(lut: &[u64], n_stored: usize, codes: &[u8]) -> u64 {
    // lint:allow(panic-safety/index, reason = "hot kernel: lut is dim x n_stored for the same dim as codes, and every code is below n_stored (validated at store time)")
    codes.iter().enumerate().map(|(d, &c)| lut[d * n_stored + c as usize]).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn soa_codes_mirror_row_mutations() {
        let mut soa = SoaCodes::new(3, 4);
        soa.push_row(&[0, 1, 2]);
        soa.push_row(&[3, 4, 5]);
        soa.push_row(&[6, 7, 8]);
        assert_eq!(soa.rows(), 3);
        assert_eq!(soa.row(1), &[3, 4, 5]);
        soa.set_row(1, &[9, 9, 9]);
        assert_eq!(soa.row(1), &[9, 9, 9]);
        soa.remove_row(0);
        assert_eq!(soa.rows(), 2);
        assert_eq!(soa.as_slice(), &[9, 9, 9, 6, 7, 8]);
        soa.clear();
        assert!(soa.as_slice().is_empty());
        assert_eq!(soa.rows(), 0);
    }

    #[test]
    fn zero_row_clears_in_place_and_ignores_out_of_range() {
        let mut soa = SoaCodes::new(3, 3);
        soa.push_row(&[1, 2, 3]);
        soa.push_row(&[4, 5, 6]);
        soa.zero_row(0);
        assert_eq!(soa.as_slice(), &[0, 0, 0, 4, 5, 6]);
        soa.zero_row(7);
        assert_eq!(soa.as_slice(), &[0, 0, 0, 4, 5, 6]);
        assert_eq!(soa.rows(), 2);
    }

    #[test]
    fn balanced_ranges_cover_everything_with_near_equal_sizes() {
        for len in 0..40usize {
            for parts in 1..12usize {
                let ranges = balanced_ranges(len, parts);
                assert_eq!(ranges.len(), parts.min(len));
                let mut expect = 0;
                let mut sizes = Vec::new();
                for r in &ranges {
                    assert_eq!(r.start, expect, "gap at len={len} parts={parts}");
                    assert!(!r.is_empty(), "empty chunk at len={len} parts={parts}");
                    sizes.push(r.len());
                    expect = r.end;
                }
                assert_eq!(expect, len, "ranges must cover 0..{len}");
                if let (Some(&max), Some(&min)) = (sizes.iter().max(), sizes.iter().min()) {
                    assert!(max - min <= 1, "imbalance at len={len} parts={parts}: {sizes:?}");
                }
            }
        }
    }

    #[test]
    fn balanced_ranges_fix_the_nine_over_eight_case() {
        // The motivating bug: 9 queries over 8 workers previously produced
        // 5 chunks of div_ceil(9, 8) = 2, idling 3 workers.
        let ranges = balanced_ranges(9, 8);
        assert_eq!(ranges.len(), 8);
        let sizes: Vec<usize> = ranges.iter().map(Range::len).collect();
        assert_eq!(sizes, vec![2, 1, 1, 1, 1, 1, 1, 1]);
    }

    #[test]
    fn bit_planes_reproduce_hamming_distance() {
        let dim = 70usize; // spills into a second word
        let bits = 3u32;
        let words = dim.div_ceil(64);
        let a: Vec<u8> = (0..dim).map(|d| (d % 8) as u8).collect();
        let b: Vec<u8> = (0..dim).map(|d| ((d * 3 + 1) % 8) as u8).collect();
        let mut pa = vec![0u64; bits as usize * words];
        let mut pb = vec![0u64; bits as usize * words];
        pack_bit_planes(&a, bits, words, &mut pa);
        pack_bit_planes(&b, bits, words, &mut pb);
        let expect: u64 = a.iter().zip(&b).map(|(&x, &y)| u64::from((x ^ y).count_ones())).sum();
        assert_eq!(popcount_distance(&pa, &pb), expect);
        // Distance to itself is zero.
        assert_eq!(popcount_distance(&pa, &pa), 0);
    }

    mod cached_planes {
        use super::super::{pack_bit_planes, SoaCodes};
        use crate::array::{Backend, FerexArray};
        use crate::distance::DistanceMetric;
        use crate::dm::DistanceMatrix;
        use crate::encoding::CellEncoding;
        use crate::error::FerexError;
        use crate::mutate::MutationPolicy;
        use crate::sizing::{find_minimal_cell, SizingOptions};
        use crate::tile::TiledArray;
        use ferex_fefet::math::splitmix64;
        use ferex_fefet::Technology;
        use proptest::prelude::*;

        /// Two plane words per bit.
        const DIM: usize = 70;

        /// Hamming 2-bit (bit-plane kernel), Manhattan 2-bit (LUT kernel,
        /// same plane width, so built planes stay and must stay in sync
        /// unread) and Hamming 1-bit (a width change drops them).
        fn encodings() -> Vec<CellEncoding> {
            [
                (DistanceMetric::Hamming, 2),
                (DistanceMetric::Manhattan, 2),
                (DistanceMetric::Hamming, 1),
            ]
            .iter()
            .map(|&(m, bits)| {
                let dm = DistanceMatrix::from_metric(m, bits);
                find_minimal_cell(&dm, &SizingOptions::default()).expect("sizes").encoding
            })
            .collect()
        }

        /// A vector of symbols below `n`; three seeds in four stay binary so
        /// a later switch to the 1-bit encoding can succeed.
        fn vector(seed: u64, n: usize) -> Vec<u32> {
            let n = if seed.is_multiple_of(4) { n } else { n.min(2) } as u64;
            (0..DIM as u64).map(|d| (splitmix64(seed ^ (d << 32)) % n) as u32).collect()
        }

        /// Built planes equal a fresh per-row pack of the codes.
        fn assert_planes_fresh(codes: &SoaCodes) {
            let Some(cached) = codes.cached_planes() else { return };
            let (bits, words) = codes.plane_shape();
            let stride = bits as usize * words;
            let mut fresh = vec![0u64; codes.rows() * stride];
            for (r, out) in fresh.chunks_mut(stride).enumerate() {
                pack_bit_planes(codes.row(r), bits, words, out);
            }
            assert_eq!(cached, fresh.as_slice(), "cached bit-planes went stale");
        }

        /// The batch kernels equal the scalar path f64 bit for bit,
        /// excluded rows (`INFINITY`) included, or both refuse.
        fn assert_batch_is_scalar(
            batch: Result<Vec<Vec<f64>>, FerexError>,
            scalar: impl Fn(&[u32]) -> Result<Vec<f64>, FerexError>,
            queries: &[Vec<u32>],
        ) {
            let Ok(batch) = batch else {
                assert!(scalar(&queries[0]).is_err(), "batch refused what the scalar path serves");
                return;
            };
            let bits = |v: &[f64]| v.iter().map(|d| d.to_bits()).collect::<Vec<_>>();
            for (q, got) in queries.iter().zip(&batch) {
                let want = scalar(q).expect("the scalar path serves what the batch served");
                assert_eq!(bits(got), bits(&want), "batch kernel diverged from the scalar path");
            }
        }

        fn queries(seed: u64, n: usize) -> Vec<Vec<u32>> {
            (0..3).map(|i| vector(seed.wrapping_add(i), n)).collect()
        }

        proptest! {
            /// Planes built by one `distances_batch` call stay equal to a
            /// fresh pack through arbitrary positional, slot-table,
            /// quarantine and reconfiguration sequences, and the kernels
            /// stay bit-identical to the scalar path after every step.
            #[test]
            fn planes_track_every_array_mutator(
                ops in prop::collection::vec((0u8..10, any::<u64>()), 1..32),
            ) {
                let encs = encodings();
                let mut a = FerexArray::new(Technology::default(), encs[0].clone(), DIM, Backend::Ideal);
                for s in 1..5 {
                    a.store(vector(s, 4)).expect("valid");
                }
                assert_batch_is_scalar(a.distances_batch(&queries(0, 4)), |q| a.distances(q), &queries(0, 4));
                prop_assert!(a.soa_codes().cached_planes().is_some(), "the first call builds the planes");
                let mut next_id = 1_000;
                for &(op, e) in &ops {
                    let n = a.encoding().n_stored();
                    let pick = |len: usize| (e >> 8) as usize % len.max(1);
                    let len = a.len();
                    if a.mutation_enabled() {
                        let ids = a.live_ids();
                        let id = ids.get(pick(ids.len())).copied().unwrap_or(0);
                        match op {
                            0 | 1 => {
                                let _ = a.insert(next_id, vector(e, n));
                                next_id += 1;
                            }
                            2 => { let _ = a.update_id(id, vector(e, n)); }
                            3 => { let _ = a.delete(id); }
                            4 => { a.compact(); }
                            5 => { a.maintenance(); }
                            6 => { let _ = a.reconfigure(encs[e as usize % 3].clone()); }
                            7 | 8 => { let _ = a.quarantine_row(pick(len)); }
                            _ => a.clear(),
                        }
                    } else {
                        match op {
                            0 | 1 => a.store(vector(e, n)).expect("valid"),
                            2 if len > 0 => a.update(pick(len), vector(e, n)).expect("valid"),
                            3 if len > 0 => { a.remove(pick(len)); }
                            4 => a.clear(),
                            5 => { let _ = a.reconfigure(encs[e as usize % 3].clone()); }
                            6 if len > 0 => { let _ = a.quarantine_row(pick(len)); }
                            7 | 8 => a
                                .enable_mutation(MutationPolicy::with_capacity(len + 4))
                                .expect("capacity covers the stored rows"),
                            _ => {}
                        }
                    }
                    assert_planes_fresh(a.soa_codes());
                    let qs = queries(e, a.encoding().n_stored());
                    assert_batch_is_scalar(a.distances_batch(&qs), |q| a.distances(q), &qs);
                    assert_planes_fresh(a.soa_codes());
                }
            }

            /// The same invariant on every tile of a tiled array driven
            /// through its coordinated mutators.
            #[test]
            fn planes_track_every_tiled_mutator(
                ops in prop::collection::vec((0u8..8, any::<u64>()), 1..24),
            ) {
                let encs = encodings();
                let mut t =
                    TiledArray::new(Technology::default(), encs[0].clone(), DIM, 32, Backend::Ideal);
                for s in 1..4 {
                    t.store(vector(s, 4)).expect("valid");
                }
                let mut next_id = 1_000;
                for &(op, e) in &ops {
                    let n = t.tiles()[0].encoding().n_stored();
                    let ids = t.tiles()[0].live_ids();
                    let id = ids.get((e >> 8) as usize % ids.len().max(1)).copied().unwrap_or(0);
                    match op {
                        0 | 1 if t.mutation_enabled() => {
                            let _ = t.insert(next_id, vector(e, n));
                            next_id += 1;
                        }
                        0 | 1 => t.store(vector(e, n)).expect("valid"),
                        2 => { let _ = t.update_id(id, vector(e, n)); }
                        3 => { let _ = t.delete(id); }
                        4 => {
                            t.compact();
                            t.maintenance();
                        }
                        5 => { let _ = t.reconfigure(encs[e as usize % 3].clone()); }
                        6 if !t.mutation_enabled() => t
                            .enable_mutation(MutationPolicy::with_capacity(t.len() + 4))
                            .expect("capacity covers the stored rows"),
                        _ => { let _ = t.quarantine_row((e >> 8) as usize % t.len()); }
                    }
                    for tile in t.tiles() {
                        assert_planes_fresh(tile.soa_codes());
                    }
                    let qs = queries(e, t.tiles()[0].encoding().n_stored());
                    assert_batch_is_scalar(t.distances_batch(&qs), |q| t.distances(q), &qs);
                    for tile in t.tiles() {
                        assert_planes_fresh(tile.soa_codes());
                    }
                }
            }
        }
    }
}
