//! Current-mode SAR ADC readout.
//!
//! The LTA answers *which row is nearest*; some applications (k-NN voting
//! across tiles, distance thresholds, confidence scores) need the *distance
//! value* itself. CiM macros provide that with a per-row (or column-muxed)
//! successive-approximation ADC digitizing the ScL current. This module is
//! the behavioral model: quantization to `bits` of resolution over a
//! programmable full-scale current, conversion delay of one bit-cycle per
//! bit, and `C·V²`-class conversion energy — NeuroSim-style accounting.

use ferex_fefet::units::{Amp, Joule, Second};

/// SAR ADC behavioral parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdcParams {
    /// Resolution in bits.
    pub bits: u32,
    /// Full-scale input current (codes saturate above this).
    pub full_scale: Amp,
    /// Time per SAR bit cycle.
    pub bit_cycle: Second,
    /// Energy per conversion.
    pub energy_per_conversion: Joule,
}

impl Default for AdcParams {
    /// 6-bit SAR, 6.4 µA full scale (64 current units), 200 ps/bit, 50 fJ
    /// per conversion — 45nm-class numbers.
    fn default() -> Self {
        AdcParams {
            bits: 6,
            full_scale: Amp(6.4e-6),
            bit_cycle: Second(200.0e-12),
            energy_per_conversion: Joule(50.0e-15),
        }
    }
}

impl AdcParams {
    /// Number of output codes (`2^bits`).
    pub fn n_codes(&self) -> u32 {
        1 << self.bits
    }

    /// The current represented by one LSB.
    pub fn lsb(&self) -> Amp {
        self.full_scale / (self.n_codes() - 1) as f64
    }

    /// Converts a current to its digital code (clamped to the code range):
    /// any current above full scale, `+∞` included, saturates at the top
    /// code. A row excluded from search senses `+∞`, so it reads as the
    /// farthest distance.
    ///
    /// # Panics
    ///
    /// Panics if the input is negative or NaN.
    pub fn convert(&self, input: Amp) -> u32 {
        assert!(input.value() >= 0.0, "invalid ADC input");
        let t = input.value() / self.full_scale.value();
        let code = (t * (self.n_codes() - 1) as f64).round();
        (code as u32).min(self.n_codes() - 1) // lint:allow(cast-truncation/narrowing, reason = "float-to-int `as` saturates and the code is clamped to n_codes - 1")
    }

    /// The analog value a code maps back to (mid-rise reconstruction).
    pub fn reconstruct(&self, code: u32) -> Amp {
        self.lsb() * code.min(self.n_codes() - 1) as f64
    }

    /// Conversion time: one cycle per bit (SAR).
    pub fn conversion_time(&self) -> Second {
        self.bit_cycle * self.bits as f64
    }

    /// Digitizes a whole row-current vector, returning codes plus the total
    /// readout time/energy assuming `parallelism` converters working
    /// concurrently.
    ///
    /// # Panics
    ///
    /// Panics if `parallelism == 0`.
    pub fn read_out(&self, currents: &[Amp], parallelism: usize) -> AdcReadout {
        assert!(parallelism > 0, "need at least one converter");
        let codes = currents.iter().map(|&i| self.convert(i)).collect();
        let rounds = currents.len().div_ceil(parallelism);
        AdcReadout {
            codes,
            time: self.conversion_time() * rounds as f64,
            energy: self.energy_per_conversion * currents.len() as f64,
        }
    }
}

/// Result of digitizing a current vector.
#[derive(Debug, Clone, PartialEq)]
pub struct AdcReadout {
    /// One code per input current.
    pub codes: Vec<u32>,
    /// Total readout time.
    pub time: Second,
    /// Total conversion energy.
    pub energy: Joule,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_cover_the_range() {
        let adc = AdcParams::default();
        assert_eq!(adc.convert(Amp(0.0)), 0);
        assert_eq!(adc.convert(adc.full_scale), adc.n_codes() - 1);
        // Above full scale clamps, infinity included.
        assert_eq!(adc.convert(adc.full_scale * 2.0), adc.n_codes() - 1);
        assert_eq!(adc.convert(Amp(f64::INFINITY)), adc.n_codes() - 1);
    }

    #[test]
    fn quantization_error_within_half_lsb() {
        let adc = AdcParams::default();
        for k in 0..100 {
            let i = Amp(adc.full_scale.value() * k as f64 / 99.0);
            let rec = adc.reconstruct(adc.convert(i));
            assert!(
                (rec.value() - i.value()).abs() <= 0.5 * adc.lsb().value() + 1e-18,
                "error beyond half LSB at {i:?}"
            );
        }
    }

    #[test]
    fn conversion_is_monotone() {
        let adc = AdcParams::default();
        let mut last = 0;
        for k in 0..=200 {
            let code = adc.convert(Amp(adc.full_scale.value() * k as f64 / 200.0));
            assert!(code >= last);
            last = code;
        }
    }

    #[test]
    fn distances_in_units_are_exact_codes() {
        // With full scale = 63 I_unit and 6 bits, integer unit currents map
        // to exact codes — the digital distance-readout use case.
        let i_unit = 1.0e-7;
        let adc = AdcParams { full_scale: Amp(63.0 * i_unit), ..Default::default() };
        for units in 0..=63u32 {
            let code = adc.convert(Amp(units as f64 * i_unit));
            assert_eq!(code, units, "unit current {units} mis-coded");
        }
    }

    #[test]
    fn readout_time_scales_with_rounds() {
        let adc = AdcParams::default();
        let currents = vec![Amp(1e-6); 64];
        let serial = adc.read_out(&currents, 1);
        let parallel = adc.read_out(&currents, 64);
        assert_eq!(serial.codes, parallel.codes);
        assert!((serial.time.value() / parallel.time.value() - 64.0).abs() < 1e-9);
        assert_eq!(serial.energy, parallel.energy);
    }

    #[test]
    #[should_panic(expected = "invalid ADC input")]
    fn negative_input_rejected() {
        let _ = AdcParams::default().convert(Amp(-1.0e-9));
    }
}
