//! Property tests for the circuit substrate.

use ferex_analog::crossbar::{ArrayOptions, ColumnDrive, Crossbar};
use ferex_analog::lta::LtaParams;
use ferex_analog::montecarlo::MonteCarlo;
use ferex_analog::{DelayModel, EnergyModel, WireParams};
use ferex_fefet::math::normal;
use ferex_fefet::units::{Amp, Volt};
use ferex_fefet::Technology;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// Row currents that stress offset pruning. Each `(kind, u)` makes one
/// row: near the minimum (`base` plus up to 4σ), far above it (1–11 µA
/// up), an exact copy of an earlier row, or `+∞`. `all_infinite` makes
/// every row `+∞`.
fn mixed_currents(rows: &[(u8, f64)], base: f64, sigma: f64, all_infinite: bool) -> Vec<Amp> {
    let mut out: Vec<Amp> = Vec::with_capacity(rows.len());
    for &(kind, u) in rows {
        let c = match kind {
            _ if all_infinite => f64::INFINITY,
            0 => base + u * 4.0 * sigma,
            1 => base + 1e-6 + u * 1e-5,
            2 => out.get((u * out.len() as f64) as usize).map_or(base, |c| c.value()),
            _ => f64::INFINITY,
        };
        out.push(Amp(c));
    }
    out
}

/// The LTA read as its model states it: one `normal(rng, c, σ)` draw per
/// row, loser by `total_cmp`, the lower index on ties.
fn reference_sense(currents: &[Amp], sigma: f64, rng: &mut StdRng) -> usize {
    let drawn: Vec<f64> = currents.iter().map(|c| normal(rng, c.value(), sigma)).collect();
    let loser = drawn.iter().enumerate().min_by(|(_, a), (_, b)| a.total_cmp(b));
    loser.map(|(i, _)| i).expect("at least one row")
}

/// k rounds of [`reference_sense`]'s draws over the unmasked rows, each
/// round keeping the first row strictly below every earlier one.
fn reference_sense_k(currents: &[Amp], k: usize, sigma: f64, rng: &mut StdRng) -> Vec<usize> {
    let mut masked = vec![false; currents.len()];
    let mut out = Vec::new();
    for _ in 0..k {
        let mut best: Option<(usize, f64)> = None;
        for (i, c) in currents.iter().enumerate() {
            if masked[i] {
                continue;
            }
            let v = normal(rng, c.value(), sigma);
            if best.is_none_or(|(_, b)| v < b) {
                best = Some((i, v));
            }
        }
        let (idx, _) = best.expect("k rows to sense");
        masked[idx] = true;
        out.push(idx);
    }
    out
}

/// An offset σ from 1 pA to 10 µA: tiny against the far rows' 1 µA gap at
/// the low end, wider than every row's spread at the top.
fn offset_sigma() -> impl Strategy<Value = f64> {
    (-12.0f64..-5.0).prop_map(|e| 10f64.powf(e))
}

proptest! {
    /// An ideal LTA always returns the true argmin for arbitrary current
    /// vectors.
    #[test]
    fn ideal_lta_is_exact(currents in prop::collection::vec(0.0f64..1e-5, 1..20)) {
        let amps: Vec<Amp> = currents.iter().map(|&c| Amp(c)).collect();
        let mut rng = StdRng::seed_from_u64(0);
        let got = LtaParams::ideal().sense(&amps, &mut rng);
        let want = currents
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| a.total_cmp(b))
            .map(|(i, _)| i)
            .unwrap();
        prop_assert_eq!(got, want);
    }

    /// With zero offset `sense` skips the noise draws without changing its
    /// answer: for non-negative currents, exact ties and `INFINITY` rows
    /// included, it returns the loser that drawing `normal(rng, c, 0.0)`
    /// for every row gives.
    #[test]
    fn zero_offset_sense_equals_the_drawing_path(
        levels in prop::collection::vec(0u32..8, 1..24),
        inf_mask in any::<u32>(),
        seed in any::<u64>(),
    ) {
        let amps: Vec<Amp> = levels
            .iter()
            .enumerate()
            .map(|(i, &l)| {
                if inf_mask >> (i % 32) & 1 == 1 { Amp(f64::INFINITY) } else { Amp(f64::from(l) * 1e-7) }
            })
            .collect();
        let mut rng = StdRng::seed_from_u64(seed);
        let drawn: Vec<f64> = amps.iter().map(|c| normal(&mut rng, c.value(), 0.0)).collect();
        let want = drawn
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| a.total_cmp(b))
            .map(|(i, _)| i)
            .unwrap();
        let got = LtaParams::ideal().sense(&amps, &mut StdRng::seed_from_u64(seed));
        prop_assert_eq!(got, want);
    }

    /// With an offset, `sense` transforms only the rows that can still
    /// lose, yet returns the loser, and leaves the generator where a
    /// transform of every row leaves it — over three calls on one stream,
    /// then once more through a mapped iterator.
    #[test]
    fn offset_sense_equals_drawing_every_row(
        rows in prop::collection::vec((0u8..4, 0.0f64..1.0), 1..40),
        base in 0.0f64..1e-6,
        sigma in offset_sigma(),
        all_infinite in (0u8..10).prop_map(|x| x == 0),
        seed in any::<u64>(),
    ) {
        let currents = mixed_currents(&rows, base, sigma, all_infinite);
        let lta = LtaParams { offset_sigma: Amp(sigma), ..LtaParams::default() };
        let mut rng = StdRng::seed_from_u64(seed);
        let mut want_rng = StdRng::seed_from_u64(seed);
        for _ in 0..3 {
            let got = lta.sense(&currents, &mut rng);
            prop_assert_eq!(got, reference_sense(&currents, sigma, &mut want_rng));
            prop_assert_eq!(rng.clone().next_u64(), want_rng.clone().next_u64());
        }
        let streamed = lta.sense(currents.iter().map(|c| Amp(c.value())), &mut rng);
        prop_assert_eq!(streamed, reference_sense(&currents, sigma, &mut want_rng));
    }

    /// `sense_k` prunes each round the same way and keeps its strict `<`
    /// rule: the rows, and the generator's next word, match every
    /// unmasked row drawing in every round.
    #[test]
    fn offset_sense_k_equals_drawing_every_row(
        rows in prop::collection::vec((0u8..4, 0.0f64..1.0), 1..40),
        base in 0.0f64..1e-6,
        sigma in offset_sigma(),
        all_infinite in (0u8..10).prop_map(|x| x == 0),
        k_pick in any::<usize>(),
        seed in any::<u64>(),
    ) {
        let currents = mixed_currents(&rows, base, sigma, all_infinite);
        let k = 1 + k_pick % currents.len();
        let lta = LtaParams { offset_sigma: Amp(sigma), ..LtaParams::default() };
        let mut rng = StdRng::seed_from_u64(seed);
        let mut want_rng = StdRng::seed_from_u64(seed);
        for _ in 0..2 {
            let got = lta.sense_k(&currents, k, &mut rng);
            prop_assert_eq!(got, reference_sense_k(&currents, k, sigma, &mut want_rng));
            prop_assert_eq!(rng.clone().next_u64(), want_rng.clone().next_u64());
        }
    }

    /// sense_k with an ideal LTA returns indices sorted by ascending current
    /// and never repeats an index.
    #[test]
    fn ideal_sense_k_ranks(currents in prop::collection::vec(0.0f64..1e-5, 2..12), seed in any::<u64>()) {
        let amps: Vec<Amp> = currents.iter().map(|&c| Amp(c)).collect();
        let k = 1 + seed as usize % amps.len();
        let mut rng = StdRng::seed_from_u64(seed);
        let got = LtaParams::ideal().sense_k(&amps, k, &mut rng);
        prop_assert_eq!(got.len(), k);
        for w in got.windows(2) {
            prop_assert!(amps[w[0]].value() <= amps[w[1]].value());
            prop_assert_ne!(w[0], w[1]);
        }
    }

    /// Row current is monotone in the number of ON cells.
    #[test]
    fn row_current_monotone_in_on_cells(on_a in 0usize..8, on_b in 0usize..8) {
        let tech = Technology::default();
        let mut xb = Crossbar::new(tech.clone(), WireParams::default(), 2, 8);
        for c in 0..8 {
            xb.program(0, c, if c < on_a { 0 } else { 2 });
            xb.program(1, c, if c < on_b { 0 } else { 2 });
        }
        let drive = ColumnDrive { v_gate: tech.search_voltage(1), v_dl: tech.vds_for_multiple(1) };
        let currents = xb.search(&[drive; 8], &ArrayOptions::default());
        if on_a < on_b {
            prop_assert!(currents[0] < currents[1]);
        } else if on_a > on_b {
            prop_assert!(currents[0] > currents[1]);
        }
    }

    /// Search delay is monotone non-decreasing in both dimensions.
    #[test]
    fn delay_monotone(r1 in 1usize..512, r2 in 1usize..512, c in 1usize..512) {
        let m = DelayModel::default();
        let (lo, hi) = if r1 <= r2 { (r1, r2) } else { (r2, r1) };
        prop_assert!(m.search_delay(lo, c).total() <= m.search_delay(hi, c).total());
        prop_assert!(m.search_delay(lo, c).total() <= m.search_delay(lo, c + 1).total());
    }

    /// Energy is strictly positive and finite for any sane geometry.
    #[test]
    fn energy_positive(rows in 1usize..256, cols in 1usize..128, units in 0.0f64..16.0) {
        let m = EnergyModel::default();
        let drives = vec![
            ColumnDrive { v_gate: Volt(0.5), v_dl: Volt(0.1) };
            cols
        ];
        let currents = vec![Amp(units * 1e-7); rows];
        let e = m.search_energy(rows, &drives, &currents);
        prop_assert!(e.total().value() > 0.0);
        prop_assert!(e.total().is_finite());
        prop_assert!(e.per_bit(rows, cols).value() > 0.0);
    }

    /// Monte-Carlo accuracy of a fixed-bias coin lands inside its own Wilson
    /// interval.
    #[test]
    fn mc_accuracy_within_wilson(bias in 0.05f64..0.95, seed in any::<u64>()) {
        let mc = MonteCarlo { runs: 400, seed };
        let r = mc.run(|rng| rng.gen::<f64>() < bias);
        let (lo, hi) = r.wilson_95();
        prop_assert!(lo <= r.accuracy() && r.accuracy() <= hi);
    }
}

/// Noisy and Circuit sensing (σ > 0) still draw one offset per row from
/// the caller's stream, so a seeded decision sequence stays pinned.
#[test]
fn seeded_offset_sense_is_pinned() {
    let lta = LtaParams::default();
    let mut rng = StdRng::seed_from_u64(42);
    let currents = [Amp(1.00e-7), Amp(1.02e-7), Amp(1.01e-7), Amp(f64::INFINITY)];
    let losers: Vec<usize> = (0..17).map(|_| lta.sense(currents, &mut rng)).collect();
    assert_eq!(losers, [1, 2, 0, 2, 1, 2, 2, 0, 1, 2, 1, 1, 1, 1, 1, 2, 1]);
}
