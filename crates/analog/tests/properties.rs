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
use rand::{Rng, SeedableRng};

proptest! {
    /// An ideal LTA always returns the true argmin for arbitrary current
    /// vectors.
    #[test]
    fn ideal_lta_is_exact(currents in prop::collection::vec(0.0f64..1e-5, 1..20)) {
        let amps: Vec<Amp> = currents.iter().map(|&c| Amp(c)).collect();
        let mut rng = StdRng::seed_from_u64(0);
        let got = LtaParams::ideal().sense(&amps, &mut rng).loser;
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
    /// included, it returns the loser and the current bit patterns that
    /// drawing `normal(rng, c, 0.0)` for every row gives.
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
        prop_assert_eq!(got.loser, want);
        let got_bits: Vec<u64> = got.perturbed.iter().map(|a| a.value().to_bits()).collect();
        let want_bits: Vec<u64> = drawn.iter().map(|d| d.to_bits()).collect();
        prop_assert_eq!(got_bits, want_bits);
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
    let losers: Vec<usize> = (0..16).map(|_| lta.sense(&currents, &mut rng).loser).collect();
    let last = lta.sense(&currents, &mut rng);
    let bits: Vec<u64> = last.perturbed.iter().map(|a| a.value().to_bits()).collect();
    assert_eq!(losers, [1, 2, 0, 2, 1, 2, 2, 0, 1, 2, 1, 1, 1, 1, 1, 2]);
    assert_eq!(last.loser, 1);
    assert_eq!(
        bits,
        [4501589757210473227, 4499274273980697222, 4503985298123727242, f64::INFINITY.to_bits()]
    );
}
