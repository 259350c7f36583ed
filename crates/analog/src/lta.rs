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

use ferex_fefet::math::normal;
use ferex_fefet::units::{Amp, Second, Watt};
use rand::Rng;

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
    /// come from a separate ADC readout.
    ///
    /// Ties break toward the lower index, matching a deterministic
    /// comparator tree.
    ///
    /// With zero offset (`offset_sigma == 0`, the ideal comparator) no
    /// sample is drawn and `rng` is left untouched: `i + 0·z == i` for
    /// every finite `z` and every non-negative or infinite current `i`,
    /// so drawing would pick the same row.
    ///
    /// # Panics
    ///
    /// Panics if `currents` is empty.
    pub fn sense<R: Rng + ?Sized>(&self, currents: &[Amp], rng: &mut R) -> usize {
        assert!(!currents.is_empty(), "LTA needs at least one row");
        if self.offset_sigma.value() == 0.0 {
            return argmin(currents);
        }
        let perturbed: Vec<Amp> = currents
            .iter()
            .map(|i| Amp(normal(rng, i.value(), self.offset_sigma.value())))
            .collect();
        argmin(&perturbed)
    }

    /// Iteratively extracts the `k` smallest rows: after each decision the
    /// winner (loser-take-all "loser") is masked out and the comparison
    /// repeats — the standard way an LTA-based AM serves k-NN with k > 1.
    /// Fresh offset samples are drawn per round.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` or `k > currents.len()`.
    pub fn sense_k<R: Rng + ?Sized>(&self, currents: &[Amp], k: usize, rng: &mut R) -> Vec<usize> {
        assert!(k > 0 && k <= currents.len(), "invalid k for sense_k");
        let mut masked: Vec<Option<Amp>> = currents.iter().copied().map(Some).collect();
        let mut out = Vec::with_capacity(k);
        for _ in 0..k {
            let mut best: Option<(usize, f64)> = None;
            for (i, c) in masked.iter().enumerate() {
                if let Some(c) = c {
                    let v = normal(rng, c.value(), self.offset_sigma.value());
                    if best.is_none_or(|(_, b)| v < b) {
                        best = Some((i, v));
                    }
                }
            }
            // `k <= currents.len()` (asserted) leaves an unmasked row
            // every round; stop early instead of panicking if not.
            let Some((idx, _)) = best else { break };
            if let Some(slot) = masked.get_mut(idx) {
                *slot = None;
            }
            out.push(idx);
        }
        out
    }
}

fn argmin(values: &[Amp]) -> usize {
    // Callers assert non-emptiness; row 0 is the panic-free fallback.
    values
        .iter()
        .enumerate()
        .min_by(|(_, a), (_, b)| a.value().total_cmp(&b.value()))
        .map(|(i, _)| i)
        .unwrap_or(0)
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
        assert_eq!(lta.sense(&[Amp(1e-7), Amp(1e-7)], &mut rng), 0);
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
        let _ = lta.sense(&[], &mut rng);
    }

    #[test]
    #[should_panic(expected = "invalid k")]
    fn oversized_k_rejected() {
        let lta = LtaParams::ideal();
        let mut rng = StdRng::seed_from_u64(0);
        let _ = lta.sense_k(&[Amp(1e-7)], 2, &mut rng);
    }
}
