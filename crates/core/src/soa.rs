//! Structure-of-arrays layout for the hot distance kernels.
//!
//! [`SoaCodes`] is the array's only store of its vectors: every stored
//! symbol is one byte in a contiguous `rows × dim` buffer, the software
//! counterpart of one multi-bit symbol per FeFET cell. The public API
//! still speaks `Vec<u32>` (queries, `row_vector`), but nothing keeps a
//! second, row-per-allocation copy. This module owns:
//!
//! * [`first_out_of_range`] — the one symbol-range check, behind every
//!   store, query and reconfiguration.
//! * [`SoaCodes`] — the `u8` code buffer, written by the array's mutators
//!   and read by every kernel, plus the stored rows' packed bit-planes,
//!   the one buffer every Ideal read scans. The planes are packed lazily,
//!   on the first Ideal read; from then on each mutator re-packs only the
//!   rows it touches. An array shares its buffer, planes included, with
//!   its clones and replicas until one of them writes (the writer copies
//!   it first), so the first Ideal read through any holder packs the
//!   planes for all of them. Storing and programming rows never packs,
//!   so building an array or a replica set costs nothing here, and an
//!   array that is never read on the Ideal backend (Noisy, Circuit) never
//!   allocates planes at all.
//! * [`balanced_ranges`] — query-batch partitioning that hands every
//!   worker a chunk (sizes differ by at most one), instead of the
//!   `div_ceil`-sized chunks that left workers idle on non-divisible
//!   batches.
//! * Bit-plane packing ([`pack_bit_planes`], branch-free: one multiply
//!   gathers one bit of 8 codes) and the two Ideal kernels over the
//!   planes:
//!   - XOR-popcount ([`is_xor_popcount`], [`xor_popcount_scan`]): when
//!     the programmed encoding's cell currents are exactly
//!     `popcount(q XOR s)`, a row distance is word-parallel `XOR` +
//!     `count_ones` over the row's and the query's planes, one scan of
//!     every row per query.
//!   - Bit-sliced currents ([`SlicedCurrents`]) for every other encoding:
//!     each row's planes become one-hot symbol masks `E[s]`, each query's
//!     currents become masks `T[j][s]` (the dims whose current against
//!     stored symbol `s` has bit `j` set), and a row distance is
//!     `Σ_j 2^j · popcount(OR_s(E[s] AND T[j][s]))`.
//!
//! An Ideal read senses with a zero-offset LTA, which draws no noise and
//! returns the first least distance. Both kernels keep that row as they
//! write each query's distances, so a batch of one costs one pass over
//! the rows (two when the array can exclude rows: the second writes
//! their `+∞` and takes the minimum again).
//!
//! # Exactness
//!
//! Both kernels accumulate in `u64` and convert once at the end, so a row
//! distance is exactly `Σ_d cell_current(q_d, s_d)` as an `f64`: every
//! partial sum is a non-negative integer far below 2⁵³ (the worst case,
//! `max_vds_multiple × k × dim`, is ≤ 63 × 6 × dim), where the conversion
//! is lossless. The bit-sliced sum is that same integer: every dim holds
//! exactly one stored symbol, so the `E[s]` are disjoint and the OR over
//! `s` counts, for each `j`, the dims whose own current has bit `j` set
//! (and, being disjoint, it may be split into groups of symbols whose
//! popcounts add up to the same count).
//! The f64 reference that checks this lives in the tests
//! (`assert_reads_are_exact` below and the core property test
//! `batched_kernels_are_bit_identical_to_scalar_path`).

use crate::encoding::CellEncoding;
use rayon::prelude::*;
use std::ops::Range;
use std::sync::OnceLock;

/// Symbol values a one-byte code can hold. `FerexArray::validate` caps
/// stored symbols (and queries) below this, whatever the encoding's
/// alphabet, so the `u8` codes are lossless by construction; the CSP
/// encoder never produces more than 64 levels anyway.
pub(crate) const CODE_LEVELS: usize = 256;

/// The first of `symbols` at or above `n_values`, if any. A branch-free
/// max over the slice comes first because it vectorizes, so a valid
/// slice costs a few instructions per vector of symbols wherever the loop
/// lands in the binary (a one-symbol-at-a-time search ran up to 2x slower
/// when its loop straddled a 32-byte boundary); only a refused slice is
/// searched.
pub(crate) fn first_out_of_range<T>(symbols: &[T], n_values: usize) -> Option<T>
where
    T: Copy + Ord + Default + Into<u32>,
{
    let max = symbols.iter().fold(T::default(), |m, &s| m.max(s));
    if (max.into() as usize) < n_values {
        return None;
    }
    symbols.iter().copied().find(|&s| s.into() as usize >= n_values)
}

/// Contiguous `rows × dim` buffer of stored symbol codes, one byte per
/// symbol, and the bit-planes packed from it.
///
/// Codes are written as `symbol & 0xff`, the identity on the validated
/// symbols (< [`CODE_LEVELS`]) every mutator passes in.
///
/// Once built, the planes always equal a fresh [`pack_bit_planes`] of
/// every row at the current width: each mutator re-packs the rows it
/// changes, and a width change ([`SoaCodes::set_plane_bits`]) drops them.
#[derive(Debug, Clone)]
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

    /// Overwrites row `r` in place; a row past the end is ignored.
    pub(crate) fn set_row(&mut self, r: usize, row: &[u32]) {
        debug_assert_eq!(row.len(), self.dim);
        let base = r * self.dim;
        if let Some(codes) = self.codes.get_mut(base..base + self.dim) {
            for (dst, &s) in codes.iter_mut().zip(row) {
                *dst = (s & 0xff) as u8; // lint:allow(cast-truncation/narrowing, reason = "masked to the low 8 bits; SoA symbols are validated < 256")
            }
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

    /// Sets the planes' bits per symbol and drops built planes (a
    /// reconfiguration to another alphabet size). The codes themselves do
    /// not depend on the width.
    pub(crate) fn set_plane_bits(&mut self, bits: u32) {
        self.bits = bits;
        self.planes = OnceLock::new();
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
                    if let Some(codes) = self.row(r) {
                        pack_bit_planes(codes, bits, words, out);
                    }
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
            pack_bit_planes(codes, bits, words, out);
        }
    }

    /// The whole buffer, row-major.
    pub(crate) fn as_slice(&self) -> &[u8] {
        &self.codes
    }

    /// The planes, if built.
    #[cfg(test)]
    pub(crate) fn cached_planes(&self) -> Option<&[u64]> {
        self.planes.get().map(Vec::as_slice)
    }

    /// Row `r`'s codes; `None` past the last row.
    pub(crate) fn row(&self, r: usize) -> Option<&[u8]> {
        self.codes.get(r * self.dim..(r + 1) * self.dim)
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

/// Bits per symbol of an encoding's bit-planes: `⌈log2 n⌉` for the `n`
/// symbols a stored code can hold (the alphabet, capped at
/// [`CODE_LEVELS`]), so at most 8, the bits of a code.
pub(crate) fn plane_bits(encoding: &CellEncoding) -> u32 {
    encoding.n_stored().min(CODE_LEVELS).next_power_of_two().trailing_zeros()
}

/// Bit `b` of each byte of a little-endian 8-code lane, moved to bit 0.
const LANE_LOW_BITS: u64 = 0x0101_0101_0101_0101;

/// Multiplier that gathers the eight 0/1 bytes of a masked lane into the
/// top byte, byte `i`'s bit at bit `56 + i`: each byte meets exactly one
/// power of two that lands it there, and no two partial products share
/// a bit, so the product carries nothing.
const LANE_GATHER: u64 = 0x0102_0408_1020_4080;

/// Packs one row of symbol codes into `bits` bit-planes of `words`
/// 64-symbol words each: bit `d % 64` of plane `b`'s word `d / 64` is
/// bit `b` of symbol `d`. Tail bits beyond the last code are zero, so
/// they cancel in any XOR between two packed rows.
///
/// Branch-free: each word loads its 64 codes as eight 8-code lanes, and
/// one multiply per (lane, plane) gathers that plane's bit of 8 codes.
/// `out` must hold exactly `bits × words` words, with `bits ≤ 8` and
/// `words = ⌈codes.len() / 64⌉`; every word is overwritten.
pub(crate) fn pack_bit_planes(codes: &[u8], bits: u32, words: usize, out: &mut [u64]) {
    debug_assert!(bits <= 8, "codes are bytes");
    debug_assert_eq!(out.len(), bits as usize * words);
    for (w, word_codes) in codes.chunks(64).enumerate() {
        let mut lanes = [0u64; 8];
        for (lane, chunk) in lanes.iter_mut().zip(word_codes.chunks(8)) {
            let mut bytes = [0u8; 8];
            for (byte, &c) in bytes.iter_mut().zip(chunk) {
                *byte = c;
            }
            *lane = u64::from_le_bytes(bytes);
        }
        for (b, plane) in out.chunks_exact_mut(words.max(1)).enumerate() {
            let word = lanes.iter().enumerate().fold(0u64, |acc, (i, &lane)| {
                let gathered = ((lane >> b) & LANE_LOW_BITS).wrapping_mul(LANE_GATHER) >> 56;
                acc | gathered << (8 * i)
            });
            if let Some(slot) = plane.get_mut(w) {
                *slot = word;
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

/// One query's XOR-popcount read: writes the distance from `query` (one
/// packed row) to every row of `planes` (rows of `query.len()` words)
/// into `out`, one slot per row, and returns the first row with the
/// least distance, the zero-offset LTA's loser (row 0 if there is none).
///
/// The row stride is a compile-time constant for 1 and 2 words, the
/// planes of 1- and 2-bit codes of up to 64 symbols, so those scans are
/// fixed XOR-popcounts per row; a stride known only at run time ran
/// about 2.7x slower per row. Every other stride runs a slice loop,
/// whose longer rows amortize it. With no row words (a zero stride),
/// `out` is left as it is.
pub(crate) fn xor_popcount_scan(planes: &[u64], query: &[u64], out: &mut [f64]) -> usize {
    let ones = |x: u64| u64::from(x.count_ones());
    match *query {
        [q] => first_least(planes.iter().map(|&r| ones(r ^ q)), out),
        [q0, q1] => {
            let (rows, _) = planes.as_chunks::<2>();
            first_least(rows.iter().map(|&[r0, r1]| ones(r0 ^ q0) + ones(r1 ^ q1)), out)
        }
        _ => first_least(
            planes.chunks_exact(query.len().max(1)).map(|row| popcount_distance(row, query)),
            out,
        ),
    }
}

/// Writes each distance into `out` as an `f64` and returns the index of
/// the first least one, kept with a strict `<` as the rows go by.
#[inline(always)]
fn first_least(distances: impl Iterator<Item = u64>, out: &mut [f64]) -> usize {
    let mut best = (0, u64::MAX);
    for (r, (d, slot)) in distances.zip(out).enumerate() {
        *slot = d as f64;
        if d < best.1 {
            best = (r, d);
        }
    }
    best.0
}

/// Symbol lanes the bit-sliced kernel ORs in one step: the masks of 4
/// symbols, so the usual 2-bit alphabet is one unrolled step per word.
const SLICE_LANES: usize = 4;

/// An encoding's cell currents, bit-sliced for the kernel that reads
/// every encoding but XOR-popcount from the stored rows' value planes.
///
/// Masks cover `lanes` symbols per word (the plane alphabet `2^bits`, at
/// least [`SLICE_LANES`]) in groups of [`SLICE_LANES`]: a row's one-hot
/// masks sit at word `w · lanes + s`, that is group `g = w · lanes / 4 +
/// s / 4`, lane `s % 4`; a query's current slices sit at `(g ·
/// current_bits + j) · 4 + s % 4`, so each group's slices for every
/// current bit are contiguous. Lanes past the alphabet carry zero
/// slices.
#[derive(Debug, Clone)]
pub(crate) struct SlicedCurrents {
    /// Symbols a stored code can hold: the alphabet, capped at
    /// [`CODE_LEVELS`].
    n: usize,
    /// Bits per symbol of the value planes ([`plane_bits`]).
    bits: u32,
    /// Mask slots per word, a multiple of [`SLICE_LANES`].
    lanes: usize,
    /// 64-symbol words per plane.
    words: usize,
    /// Bits of the largest cell current.
    current_bits: u32,
    /// `cell_current(q, s)` at `q · n + s`, for every search symbol `q`.
    currents: Vec<u32>,
}

impl SlicedCurrents {
    /// Slices `encoding`'s currents for `dim`-symbol rows.
    pub(crate) fn new(encoding: &CellEncoding, dim: usize) -> Self {
        let n = encoding.n_stored().min(CODE_LEVELS);
        let bits = plane_bits(encoding);
        let currents: Vec<u32> = (0..encoding.n_search())
            .flat_map(|q| (0..n).map(move |s| encoding.cell_current(q, s)))
            .collect();
        let max = currents.iter().copied().max().unwrap_or(0);
        SlicedCurrents {
            n,
            bits,
            lanes: (1usize << bits).max(SLICE_LANES),
            words: dim.div_ceil(64),
            current_bits: u32::BITS - max.leading_zeros(),
            currents,
        }
    }

    /// Words of one query's current slices.
    pub(crate) fn query_len(&self) -> usize {
        self.current_bits as usize * self.one_hot_len()
    }

    /// Words of one row's one-hot masks.
    pub(crate) fn one_hot_len(&self) -> usize {
        self.words * self.lanes
    }

    /// Packs one query's current slices into `out` (`query_len` words,
    /// zeroed): `T[j][s]` has bit `d` set iff bit `j` of
    /// `cell_current(query[d], s)` is set. Tail bits past the last dim
    /// stay zero, which is what clears the one-hot tails in
    /// [`SlicedCurrents::distance`]. A search symbol the encoding does
    /// not cover adds nothing; validated queries hold none.
    pub(crate) fn pack_query(&self, query: &[u32], out: &mut [u64]) {
        let n = self.n;
        for (d, &q) in query.iter().enumerate() {
            let (w, bit) = (d / 64, d % 64);
            let q = q as usize;
            let currents = self.currents.get(q * n..(q + 1) * n).unwrap_or_default();
            for (s, &c) in currents.iter().enumerate() {
                let group = (w * self.lanes + s) / SLICE_LANES;
                for j in 0..self.current_bits {
                    let at = (group * self.current_bits as usize + j as usize) * SLICE_LANES;
                    if let Some(t) = out.get_mut(at + s % SLICE_LANES) {
                        *t |= u64::from((c >> j) & 1) << bit;
                    }
                }
            }
        }
    }

    /// Builds one row's one-hot masks from its value planes (`bits ×
    /// words` words, plane-major): `E[s]` has bit `d` set iff the row's
    /// code at `d` is `s`. Each plane splits every mask built so far in
    /// two, the dims with that bit clear and set, so `bits` planes write
    /// all `2^bits` masks; lanes past them are never written, and their
    /// slices are zero. The complements set the tail bits past the last
    /// dim in `E[0]`; the zero tails of every `T` clear them.
    ///
    /// Every slice is cut by multiplying out its offset: a `chunks_exact`
    /// of a runtime width divides, which cost more than the masks here.
    pub(crate) fn one_hot(&self, planes: &[u64], out: &mut [u64]) {
        let (words, lanes) = (self.words, self.lanes);
        for w in 0..words {
            let Some(masks) = out.get_mut(w * lanes..(w + 1) * lanes) else { return };
            if let Some(all) = masks.first_mut() {
                *all = !0;
            }
            for b in 0..self.bits as usize {
                let p = planes.get(b * words + w).copied().unwrap_or(0);
                if let Some((clear, set)) = masks.split_at_mut_checked(1 << b) {
                    for (c, s) in clear.iter_mut().zip(set) {
                        *s = *c & p;
                        *c &= !p;
                    }
                }
            }
        }
    }

    /// One row's distance to one query: `Σ_j 2^j · popcount(OR_s(E[s]
    /// AND T[j][s]))` over the row's one-hot masks and the query's
    /// current slices, an exact integer (see the module docs). The `E[s]`
    /// are disjoint, so the popcount of the OR over all symbols is the
    /// sum of the popcounts of the OR over each group of 4: each group is
    /// one unrolled step, with no state carried between groups.
    #[inline]
    pub(crate) fn distance(&self, one_hot: &[u64], slices: &[u64]) -> u64 {
        let bits = self.current_bits as usize;
        let (e, _) = one_hot.as_chunks::<SLICE_LANES>();
        let (t, _) = slices.as_chunks::<SLICE_LANES>();
        e.iter()
            .enumerate()
            .map(|(g, [e0, e1, e2, e3])| {
                let t = t.get(g * bits..(g + 1) * bits).unwrap_or_default();
                t.iter()
                    .enumerate()
                    .map(|(j, [t0, t1, t2, t3])| {
                        let or = (e0 & t0) | (e1 & t1) | (e2 & t2) | (e3 & t3);
                        u64::from(or.count_ones()) << j
                    })
                    .sum::<u64>()
            })
            .sum()
    }
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
        assert_eq!(soa.row(1), Some(&[3, 4, 5][..]));
        soa.set_row(1, &[9, 9, 9]);
        assert_eq!(soa.row(1), Some(&[9, 9, 9][..]));
        assert_eq!(soa.row(3), None);
        assert_eq!(soa.as_slice(), &[0, 1, 2, 9, 9, 9, 6, 7, 8]);
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
    fn range_check_reports_the_first_symbol_out_of_range_not_the_largest() {
        assert_eq!(first_out_of_range(&[0u32, 5, 1, 9, 2], 4), Some(5));
        assert_eq!(first_out_of_range(&[3u8, 0, 255, 7], 4), Some(255));
        assert_eq!(first_out_of_range(&[3u8, 0, 1], 4), None);
        assert_eq!(first_out_of_range::<u32>(&[], 0), None);
        assert_eq!(first_out_of_range(&[0u8], 0), Some(0));
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

    /// The packer the branch-free one replaced, kept as its reference:
    /// one branch per (symbol, bit) pair, into zeroed planes.
    fn pack_reference(codes: &[u8], bits: u32, words: usize, out: &mut [u64]) {
        for (d, &c) in codes.iter().enumerate() {
            for b in 0..bits {
                if (c >> b) & 1 == 1 {
                    out[b as usize * words + d / 64] |= 1u64 << (d % 64);
                }
            }
        }
    }

    proptest::proptest! {
        /// Every width a byte code has, over dims on and off the 8-code
        /// lanes and the 64-symbol words, with codes whose bits above the
        /// width are set too; the output starts dirty, as a re-packed row
        /// does.
        #[test]
        fn branch_free_packing_equals_the_per_bit_loop(
            bits in 1u32..=8,
            dim in 1usize..=200,
            seed in proptest::prelude::any::<u64>(),
        ) {
            let codes: Vec<u8> =
                (0..dim as u64).map(|d| ferex_fefet::math::splitmix64(seed ^ d) as u8).collect();
            let words = dim.div_ceil(64);
            let mut want = vec![0u64; bits as usize * words];
            pack_reference(&codes, bits, words, &mut want);
            let mut got = vec![!0u64; want.len()];
            pack_bit_planes(&codes, bits, words, &mut got);
            proptest::prop_assert_eq!(got, want);
        }
    }

    mod cached_planes {
        use super::super::{pack_bit_planes, SoaCodes};
        use crate::array::{Backend, FerexArray};
        use crate::distance::DistanceMetric;
        use crate::dm::DistanceMatrix;
        use crate::encoding::{CellEncoding, SearchEncoding, StoredEncoding};
        use crate::health::RowHealth;
        use crate::mutate::MutationPolicy;
        use crate::sizing::{find_minimal_cell, SizingOptions};
        use ferex_analog::lta::LtaParams;
        use ferex_fefet::math::splitmix64;
        use ferex_fefet::units::Amp;
        use ferex_fefet::Technology;
        use proptest::prelude::*;
        use rand::rngs::StdRng;
        use rand::SeedableRng;

        /// Two plane words (the last one partial), one symbol, exactly
        /// one word, and three words (the last one partial).
        const DIMS: [usize; 4] = [70, 1, 64, 130];

        /// A 3-symbol alphabet (not a power of two) whose currents need 4
        /// output bits (up to 13), built by hand: `cell_current(q, s) =
        /// Σ_f [vth_f(s) < vgs_f(q)] · vds_f(q)`, rows q = 0, 1, 2 read
        /// (13, 4, 0), (8, 8, 3) and (7, 7, 7).
        fn three_symbols() -> CellEncoding {
            let stored = |vth_levels: Vec<usize>| StoredEncoding { vth_levels };
            let search = |vgs_levels: Vec<usize>, vds_multiples: Vec<u32>| SearchEncoding {
                vgs_levels,
                vds_multiples,
            };
            CellEncoding {
                k: 2,
                stored: vec![stored(vec![0, 0]), stored(vec![1, 0]), stored(vec![2, 1])],
                search: vec![
                    search(vec![1, 1], vec![9, 4]),
                    search(vec![2, 2], vec![5, 3]),
                    search(vec![3, 0], vec![7, 0]),
                ],
                vth_levels_used: 3,
                search_levels_used: 4,
                max_vds_multiple: 9,
            }
        }

        /// A 6-symbol alphabet: 3 planes, so the one-hot masks span two
        /// groups of 4 symbols, and currents up to 19 need 5 bits. Two
        /// FeFETs split a symbol into `s % 3` and `s / 3`; search symbol
        /// `q` drives them to gate levels `q % 3 + 1` and `q / 3 + 1` with
        /// drain multiples `q + 1` and `2q + 3`.
        fn six_symbols() -> CellEncoding {
            CellEncoding {
                k: 2,
                stored: (0..6).map(|s| StoredEncoding { vth_levels: vec![s % 3, s / 3] }).collect(),
                search: (0..6u32)
                    .map(|q| SearchEncoding {
                        vgs_levels: vec![q as usize % 3 + 1, q as usize / 3 + 1],
                        vds_multiples: vec![q + 1, 2 * q + 3],
                    })
                    .collect(),
                vth_levels_used: 3,
                search_levels_used: 4,
                max_vds_multiple: 13,
            }
        }

        /// Hamming 2-bit (XOR-popcount), Manhattan and squared Euclidean
        /// 2-bit (bit-sliced, same plane width, so built planes stay and
        /// must stay in sync), Hamming 1-bit (a width change drops them)
        /// and the hand-built 3- and 6-symbol alphabets (bit-sliced, 2 and
        /// 3 planes).
        fn encodings() -> Vec<CellEncoding> {
            let mut encs: Vec<CellEncoding> = [
                (DistanceMetric::Hamming, 2),
                (DistanceMetric::Manhattan, 2),
                (DistanceMetric::Hamming, 1),
                (DistanceMetric::EuclideanSquared, 2),
            ]
            .iter()
            .map(|&(m, bits)| {
                let dm = DistanceMatrix::from_metric(m, bits);
                find_minimal_cell(&dm, &SizingOptions::default()).expect("sizes").encoding
            })
            .collect();
            encs.push(three_symbols());
            encs.push(six_symbols());
            encs
        }

        /// A `dim`-symbol vector below `n`; three seeds in four stay
        /// binary so a later switch to the 1-bit encoding can succeed.
        fn vector(seed: u64, n: usize, dim: usize) -> Vec<u32> {
            let n = if seed.is_multiple_of(4) { n } else { n.min(2) } as u64;
            (0..dim as u64).map(|d| (splitmix64(seed ^ (d << 32)) % n) as u32).collect()
        }

        /// Built planes equal a fresh per-row pack of the codes.
        fn assert_planes_fresh(codes: &SoaCodes) {
            let Some(cached) = codes.cached_planes() else { return };
            let (bits, words) = codes.plane_shape();
            let stride = bits as usize * words;
            let mut fresh = vec![0u64; codes.rows() * stride];
            for (r, out) in fresh.chunks_mut(stride).enumerate() {
                pack_bit_planes(codes.row(r).expect("row in range"), bits, words, out);
            }
            assert_eq!(cached, fresh.as_slice(), "cached bit-planes went stale");
        }

        /// The f64 reference the kernels must reproduce on an Ideal array:
        /// `Σ_d cell_current(q_d, s_d)` over each row's stored vector,
        /// `INFINITY` for a row excluded from search (free, tombstoned or
        /// quarantined).
        fn ideal_reference(a: &FerexArray, q: &[u32]) -> Vec<f64> {
            let enc = a.encoding();
            (0..a.len())
                .map(|r| match a.row_vector(r) {
                    Some(v) if a.slot_live(r) && a.row_health(r) != RowHealth::Quarantined => v
                        .iter()
                        .zip(q)
                        .map(|(&s, &q)| f64::from(enc.cell_current(q as usize, s as usize)))
                        .sum(),
                    _ => f64::INFINITY,
                })
                .collect()
        }

        /// Both Ideal reads equal the f64 reference bit for bit, excluded
        /// rows (`INFINITY`) included, and `search_batch_at` reports the
        /// row the zero-offset LTA senses over the reference currents; a
        /// refused read means the reference has no row to serve either.
        fn assert_reads_are_exact(a: &FerexArray, queries: &[Vec<u32>]) {
            let ids: Vec<u64> = (0..queries.len() as u64).collect();
            let reads = a
                .distances_batch(queries)
                .and_then(|batch| Ok((batch, a.search_batch_at(queries, &ids)?)));
            let Ok((batch, outcomes)) = reads else {
                let want = ideal_reference(a, &queries[0]);
                assert!(want.iter().all(|d| d.is_infinite()), "a read refused a servable array");
                return;
            };
            let bits = |v: &[f64]| v.iter().map(|d| d.to_bits()).collect::<Vec<_>>();
            let i_unit = Technology::default().i_unit().value();
            for ((q, got), outcome) in queries.iter().zip(&batch).zip(&outcomes) {
                let want = ideal_reference(a, q);
                assert_eq!(bits(got), bits(&want), "batch kernel diverged from the reference");
                assert_eq!(
                    bits(&outcome.distances),
                    bits(&want),
                    "search read diverged from the reference"
                );
                let currents = want.iter().map(|&d| Amp(d * i_unit));
                let lta = LtaParams::ideal().sense(currents, &mut StdRng::seed_from_u64(0));
                assert_eq!(outcome.nearest, lta, "the kernel's nearest row is not the LTA's");
            }
        }

        fn queries(seed: u64, n: usize, dim: usize) -> Vec<Vec<u32>> {
            (0..3).map(|i| vector(seed.wrapping_add(i), n, dim)).collect()
        }

        /// A mutation-enabled array whose every live slot is quarantined,
        /// with a free slot that is not: `all_excluded` lets the read
        /// through, every row reads `+∞`, and the nearest row is row 0, as
        /// the LTA gives, on both kernels.
        #[test]
        fn every_live_slot_quarantined_senses_row_zero() {
            for enc in encodings() {
                let n = enc.n_stored();
                let mut a = FerexArray::new(Technology::default(), enc, 70, Backend::Ideal);
                a.enable_mutation(MutationPolicy::with_capacity(4)).expect("empty array");
                for id in 0..3 {
                    a.insert(id, vector(id + 1, n, 70)).expect("a free slot");
                }
                for id in 0..3 {
                    let slot = a.slot_of(id).expect("a live id");
                    let _ = a.quarantine_row(slot);
                }
                let qs = queries(7, n, 70);
                let outcomes = a.search_batch_at(&qs, &[0, 1, 2]).expect("a free slot is healthy");
                for outcome in &outcomes {
                    assert!(outcome.distances.iter().all(|d| *d == f64::INFINITY));
                    assert_eq!(outcome.nearest, 0);
                }
                assert_reads_are_exact(&a, &qs);
            }
        }

        proptest! {
            /// Planes built by one `distances_batch` call stay equal to a
            /// fresh pack through arbitrary positional, slot-table,
            /// quarantine and reconfiguration sequences, and both Ideal
            /// reads stay bit-identical to the f64 reference, with the
            /// LTA's nearest row, after every step.
            #[test]
            fn planes_track_every_array_mutator(
                dim_pick in 0usize..DIMS.len(),
                first in 0usize..6,
                ops in prop::collection::vec((0u8..10, any::<u64>()), 1..32),
            ) {
                let dim = DIMS[dim_pick];
                let encs = encodings();
                let enc = encs[first].clone();
                let n0 = enc.n_stored();
                let mut a = FerexArray::new(Technology::default(), enc, dim, Backend::Ideal);
                for s in 1..5 {
                    a.store(vector(s, n0, dim)).expect("valid");
                }
                let qs = queries(0, n0, dim);
                assert_reads_are_exact(&a, &qs);
                prop_assert!(a.soa_codes().cached_planes().is_some(), "the first call builds the planes");
                let mut next_id = 1_000;
                for &(op, e) in &ops {
                    let n = a.encoding().n_stored();
                    let pick = |len: usize| (e >> 8) as usize % len.max(1);
                    let len = a.len();
                    let switch = encs[e as usize % encs.len()].clone();
                    if a.mutation_enabled() {
                        let ids = a.live_ids();
                        let id = ids.get(pick(ids.len())).copied().unwrap_or(0);
                        match op {
                            0 | 1 => {
                                let _ = a.insert(next_id, vector(e, n, dim));
                                next_id += 1;
                            }
                            2 => { let _ = a.update_id(id, vector(e, n, dim)); }
                            3 => { let _ = a.delete(id); }
                            4 => { a.compact(); }
                            5 => { a.maintenance(); }
                            6 => { let _ = a.reconfigure(switch); }
                            7 | 8 => { let _ = a.quarantine_row(pick(len)); }
                            _ => a.clear(),
                        }
                    } else {
                        match op {
                            0..=3 => a.store(vector(e, n, dim)).expect("valid"),
                            4 => a.clear(),
                            5 => { let _ = a.reconfigure(switch); }
                            6 if len > 0 => { let _ = a.quarantine_row(pick(len)); }
                            7 | 8 => a
                                .enable_mutation(MutationPolicy::with_capacity(len + 4))
                                .expect("capacity covers the stored rows"),
                            _ => {}
                        }
                    }
                    assert_planes_fresh(a.soa_codes());
                    let qs = queries(e, a.encoding().n_stored(), dim);
                    assert_reads_are_exact(&a, &qs);
                    assert_planes_fresh(a.soa_codes());
                }
            }
        }
    }
}
