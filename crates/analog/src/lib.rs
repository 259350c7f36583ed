#![forbid(unsafe_code)]
//! # ferex-analog — circuit substrate
//!
//! Behavioral circuit layer of the FeReX reproduction, standing in for the
//! paper's Cadence Virtuoso testbench:
//!
//! * [`crossbar`] — the 1FeFET1R array with per-column SL/DL drive, per-row
//!   ScL current summation, optional IR-drop, and inhibited row writes.
//! * [`opamp`] — the per-row ScL clamp (slew + linear settling).
//! * [`lta`] — loser-take-all current comparison with input-referred offset.
//! * [`driver`] — DAC / level-shifter energies.
//! * [`parasitics`] — DESTINY-style 45nm wire RC.
//! * [`delay`], [`energy`] — the Fig. 6 timing and energy models.
//! * [`montecarlo`] — the Fig. 7 variation campaign harness.
//! * [`adc`] — SAR readout for digital distance values.
//!
//! # Quick example
//!
//! ```
//! use ferex_analog::crossbar::{ArrayOptions, ColumnDrive, Crossbar};
//! use ferex_analog::lta::LtaParams;
//! use ferex_fefet::Technology;
//! use rand::SeedableRng;
//!
//! let tech = Technology::default();
//! let mut xb = Crossbar::new(tech.clone(), Default::default(), 2, 2);
//! // Row 0 stores a better match (fewer conducting cells) than row 1.
//! xb.program(0, 0, 2); xb.program(0, 1, 2);
//! xb.program(1, 0, 0); xb.program(1, 1, 0);
//! let drive = ColumnDrive { v_gate: tech.search_voltage(1), v_dl: tech.vds_for_multiple(1) };
//! let currents = xb.search(&vec![drive; 2], &ArrayOptions::default());
//! let mut rng = rand::rngs::StdRng::seed_from_u64(0);
//! let nearest = LtaParams::ideal().sense(&currents, &mut rng);
//! assert_eq!(nearest, 0);
//! ```

pub mod adc;
pub mod crossbar;
pub mod delay;
pub mod driver;
pub mod energy;
pub mod lta;
pub mod montecarlo;
pub mod noise;
pub mod opamp;
pub mod parasitics;
pub mod transient;

pub use adc::{AdcParams, AdcReadout};
pub use crossbar::{ArrayOptions, ColumnDrive, Crossbar};
pub use delay::{DelayBreakdown, DelayModel};
pub use driver::DriverParams;
pub use energy::{EnergyBreakdown, EnergyModel};
pub use lta::LtaParams;
pub use montecarlo::{McResult, MonteCarlo};
pub use noise::NoiseModel;
pub use opamp::OpAmpParams;
pub use parasitics::WireParams;
pub use transient::{simulate_settle, TransientConfig, TransientResult};
