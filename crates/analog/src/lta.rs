//! Loser-take-all (LTA) current comparator.
//!
//! FeReX senses *minimum* row current — the row whose stored vector has the
//! smallest distance to the query — with a current-domain LTA, the mirror
//! image of the winner-take-all used in CoSiMe (Liu et al., ICCAD 2022). We
//! model it behaviorally: each row input sees an input-referred current
//! offset/noise sample, and the comparator reports the argmin of the
//! perturbed currents. Delay grows weakly (logarithmically) with the number
//! of competing rows, and its power is dominated by a fixed bias component —
//! exactly the property the paper exploits to amortize LTA cost over many
//! rows (Fig. 6(a)).

use ferex_fefet::math::{box_muller, uniform_pair, BOX_MULLER_BOUND};
use ferex_fefet::units::{Amp, Second, Watt};
use rand::Rng;
use std::borrow::Borrow;

/// Behavioral LTA parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LtaParams {
    /// Input-referred current offset per row (1σ). Mismatch between the
    /// comparator legs; the dominant sensing-accuracy limit.
    pub offset_sigma: Amp,
    /// Fixed delay component (bias setup, output latching).
    pub delay_base: Second,
    /// Delay growth per doubling of the row count.
    pub delay_per_doubling: Second,
    /// Fixed bias power of the comparator core.
    pub power_base: Watt,
    /// Incremental power per attached row.
    pub power_per_row: Watt,
}

impl Default for LtaParams {
    fn default() -> Self {
        LtaParams {
            // ≈0.25 current units (I_unit = 100 nA) of input-referred offset:
            // calibrated so the Fig. 7 worst case (ΔHD = 1 against several
            // competitors) lands near the paper's 90 % accuracy.
            offset_sigma: Amp(25.0e-9),
            delay_base: Second(2.0e-9),
            delay_per_doubling: Second(0.35e-9),
            // The comparator core is a fixed-cost block: its bias power
            // dwarfs the per-row increment, which is what makes energy/bit
            // fall as rows are added (Fig. 6(a)).
            power_base: Watt(250.0e-6),
            power_per_row: Watt(0.2e-6),
        }
    }
}

impl LtaParams {
    /// An ideal LTA with no offset (used by the ideal backend and as the
    /// software reference).
    pub fn ideal() -> Self {
        LtaParams { offset_sigma: Amp(0.0), ..Default::default() }
    }

    /// Comparison delay for `rows` competing inputs.
    pub fn delay(&self, rows: usize) -> Second {
        let doublings = (rows.max(1) as f64).log2();
        self.delay_base + self.delay_per_doubling * doublings
    }

    /// Power while comparing `rows` inputs.
    pub fn power(&self, rows: usize) -> Watt {
        self.power_base + self.power_per_row * rows as f64
    }

    /// Returns the index of the row with minimal current after applying one
    /// fresh offset sample per row — the LTA's only output. Distance values
    /// come from a separate ADC readout. `currents` is walked twice, so a
    /// caller can pass a slice or compute each current as it is read.
    ///
    /// Ties break toward the lower index, matching a deterministic
    /// comparator tree.
    ///
    /// Every row consumes its two generator words ([`uniform_pair`]), in
    /// row order, whatever the offset. The Box–Muller transform and the
    /// comparison run only for a row that can still lose, so the cost is
    /// one transform per such row: a row at current `c` is skipped when
    /// `c − R > min(best, m + R)`, where `m` is the least current, `best`
    /// the least perturbed value so far and `R = σ · BOX_MULLER_BOUND`
    /// bounds every offset. Such a row's perturbed value exceeds the
    /// loser's, so it could neither win nor tie: the loser, and the
    /// generator's position afterwards, are the ones a transform of every
    /// row gives (DESIGN §12).
    ///
    /// With zero offset (`offset_sigma == 0`, the ideal comparator) no
    /// sample is drawn and `rng` is left untouched: `i + 0·z == i` for
    /// every finite `z` and every non-negative or infinite current `i`,
    /// so drawing would pick the same row.
    ///
    /// # Panics
    ///
    /// Panics if `currents` is empty or `offset_sigma` is negative or NaN.
    pub fn sense<I, R>(&self, currents: I, rng: &mut R) -> usize
    where
        I: IntoIterator,
        I::Item: Borrow<Amp>,
        I::IntoIter: Clone,
        R: Rng + ?Sized,
    {
        let currents = currents.into_iter().map(|c| c.borrow().value());
        assert!(currents.clone().next().is_some(), "LTA needs at least one row");
        let sigma = self.checked_sigma();
        if sigma == 0.0 {
            return argmin(currents);
        }
        let loser = pruned_pass(sigma, currents.enumerate(), rng, |v, b| v.total_cmp(&b).is_lt());
        loser.map_or(0, |(i, _)| i)
    }

    /// Iteratively extracts the `k` smallest rows: after each decision the
    /// winner (loser-take-all "loser") is masked out and the comparison
    /// repeats — the standard way an LTA-based AM serves k-NN with k > 1.
    /// Fresh offset samples are drawn per round, two words per unmasked
    /// row, and a round keeps the first row whose perturbed value is
    /// strictly below every earlier one.
    ///
    /// Each round transforms only the rows that can still lose, as
    /// [`LtaParams::sense`] does, with `m` the least unmasked current, so
    /// the cost is one transform per such row and round. For currents
    /// that are not NaN the rows, and the generator's position afterwards,
    /// are the ones a transform of every unmasked row gives.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`, `k` exceeds the number of rows, or
    /// `offset_sigma` is negative or NaN.
    pub fn sense_k<I, R>(&self, currents: I, k: usize, rng: &mut R) -> Vec<usize>
    where
        I: IntoIterator,
        I::Item: Borrow<Amp>,
        I::IntoIter: Clone,
        R: Rng + ?Sized,
    {
        let currents = currents.into_iter().map(|c| c.borrow().value());
        let mut masked = vec![false; currents.clone().count()];
        assert!(k > 0 && k <= masked.len(), "invalid k for sense_k");
        let sigma = self.checked_sigma();
        let mut out = Vec::with_capacity(k);
        for _ in 0..k {
            let unmasked = currents
                .clone()
                .zip(masked.iter())
                .enumerate()
                .filter_map(|(i, (c, &m))| (!m).then_some((i, c)));
            // `k` at most the row count (asserted) leaves an unmasked row
            // every round; stop early instead of panicking if not.
            let Some((idx, _)) = pruned_pass(sigma, unmasked, rng, |v, b| v < b) else { break };
            if let Some(slot) = masked.get_mut(idx) {
                *slot = true;
            }
            out.push(idx);
        }
        out
    }

    /// The offset σ, which a sample scales, checked as `normal` checks a
    /// standard deviation.
    fn checked_sigma(&self) -> f64 {
        let sigma = self.offset_sigma.value();
        assert!(sigma >= 0.0, "standard deviation must be non-negative");
        sigma
    }
}

/// One comparison over `rows` (index, current) with offset σ: every row
/// draws its two words in order, only a row that can still lose is
/// transformed (see [`LtaParams::sense`]), and the first row that `less`
/// ranks below every earlier transformed one is kept, with its value.
fn pruned_pass<R: Rng + ?Sized>(
    sigma: f64,
    rows: impl Iterator<Item = (usize, f64)> + Clone,
    rng: &mut R,
    less: impl Fn(f64, f64) -> bool,
) -> Option<(usize, f64)> {
    let reach = sigma * BOX_MULLER_BOUND;
    // `min(best, m + R)`, kept as `best` falls: no row more than `R`
    // above it can lose.
    let mut threshold = least(rows.clone().map(|(_, c)| c)) + reach;
    let mut best: Option<(usize, f64)> = None;
    for (i, c) in rows {
        let (u1, u2) = uniform_pair(rng);
        if c - reach > threshold {
            continue;
        }
        let v = c + sigma * box_muller(u1, u2);
        if best.is_none_or(|(_, b)| less(v, b)) {
            best = Some((i, v));
            threshold = threshold.min(v);
        }
    }
    best
}

/// The first index of the least value under `total_cmp`; row 0 for an
/// empty walk (callers assert non-emptiness). A plain loop: `min_by`
/// over a mapped iterator ran about 25% slower per row.
fn argmin(values: impl Iterator<Item = f64>) -> usize {
    let mut best: Option<(usize, f64)> = None;
    for (i, v) in values.enumerate() {
        if best.is_none_or(|(_, b)| v.total_cmp(&b).is_lt()) {
            best = Some((i, v));
        }
    }
    best.map_or(0, |(i, _)| i)
}

/// The least of `values`, ignoring NaN; `+∞` for an empty walk.
fn least(values: impl Iterator<Item = f64>) -> f64 {
    values.fold(f64::INFINITY, f64::min) // lint:allow(float-order/accumulation, reason = "min rounds nothing, so every order gives the same least value")
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn ideal_lta_returns_exact_argmin() {
        let lta = LtaParams::ideal();
        let mut rng = StdRng::seed_from_u64(0);
        let currents = vec![Amp(5e-7), Amp(2e-7), Amp(9e-7), Amp(3e-7)];
        assert_eq!(lta.sense(&currents, &mut rng), 1);
    }

    #[test]
    fn ties_break_to_lower_index() {
        let lta = LtaParams::ideal();
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(lta.sense([Amp(1e-7), Amp(1e-7)], &mut rng), 0);
    }

    #[test]
    fn offset_causes_errors_only_near_margins() {
        let lta = LtaParams::default();
        let mut rng = StdRng::seed_from_u64(7);
        // Rows separated by 10 I_unit: essentially never confused.
        let far = vec![Amp(1e-7), Amp(11e-7)];
        let mut errors = 0;
        for _ in 0..1000 {
            if lta.sense(&far, &mut rng) != 0 {
                errors += 1;
            }
        }
        assert_eq!(errors, 0, "10-unit margin must never flip");
        // Rows separated by 0.2 I_unit: frequently confused.
        let near = vec![Amp(1.00e-7), Amp(1.02e-7)];
        let mut flips = 0;
        for _ in 0..1000 {
            if lta.sense(&near, &mut rng) != 0 {
                flips += 1;
            }
        }
        assert!(flips > 200, "0.2-unit margin should flip often, got {flips}");
    }

    #[test]
    fn delay_grows_gradually_with_rows() {
        let lta = LtaParams::default();
        let d32 = lta.delay(32).value();
        let d256 = lta.delay(256).value();
        assert!(d256 > d32);
        // "Gradually": 8× the rows costs well under 2× the delay.
        assert!(d256 < 1.5 * d32, "LTA delay scaling too steep: {d32} → {d256}");
    }

    #[test]
    fn power_amortizes_over_rows() {
        let lta = LtaParams::default();
        let per_row_16 = lta.power(16).value() / 16.0;
        let per_row_256 = lta.power(256).value() / 256.0;
        assert!(per_row_256 < 0.5 * per_row_16, "LTA power/row must drop with rows");
    }

    #[test]
    fn sense_k_returns_distinct_sorted_by_rank() {
        let lta = LtaParams::ideal();
        let mut rng = StdRng::seed_from_u64(1);
        let currents = vec![Amp(4e-7), Amp(1e-7), Amp(3e-7), Amp(2e-7)];
        let k = lta.sense_k(&currents, 3, &mut rng);
        assert_eq!(k, vec![1, 3, 2]);
    }

    #[test]
    #[should_panic(expected = "at least one row")]
    fn empty_rows_rejected() {
        let lta = LtaParams::ideal();
        let mut rng = StdRng::seed_from_u64(0);
        let _ = lta.sense(std::iter::empty::<Amp>(), &mut rng);
    }

    #[test]
    #[should_panic(expected = "invalid k")]
    fn oversized_k_rejected() {
        let lta = LtaParams::ideal();
        let mut rng = StdRng::seed_from_u64(0);
        let _ = lta.sense_k([Amp(1e-7)], 2, &mut rng);
    }
}
