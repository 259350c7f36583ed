//! Deterministic fault injection: seeded per-cell fault maps plus global
//! aging transforms.
//!
//! The Fig. 7 Monte-Carlo study covers *parametric* variation (σ_Vth, σ_R);
//! real MCAM deployments additionally suffer *hard* faults — cells whose
//! polarization is stuck, resistors blown open or shorted by BEOL defects —
//! and *aging*: retention drift of every stored threshold toward the window
//! center and endurance-cycling collapse of the whole memory window. This
//! module models all of them behind one [`FaultPlan`]:
//!
//! * per-cell hard faults ([`CellFault`]) drawn from a seeded, per-index
//!   hash stream, so the fault map of a given `(array seed, plan seed)`
//!   pair is reproducible and independent of iteration order;
//! * global aging ([`FaultPlan::aged_vth`]) composing the
//!   [`crate::endurance`] window collapse with the [`crate::retention`]
//!   log-time drift.
//!
//! The array backends consume the plan at `program()` time, so scalar and
//! batched search paths observe identical faulted state.

use crate::endurance::EnduranceModel;
use crate::math::splitmix64;
use crate::params::Technology;
use crate::retention::RetentionModel;
use crate::units::Volt;
use crate::variation::DeviceSample;

/// Domain-separation salt for the per-cell fault streams, keeping them
/// disjoint from the variation-sampling and per-query sensing streams that
/// feed the same SplitMix64 mixer.
pub const FAULT_STREAM_SALT: u64 = 0xFA17_1A8E_D0C5_EEDB;

/// Hard-fault class of one physical cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CellFault {
    /// Healthy cell.
    #[default]
    None,
    /// SA0: the ferroelectric is stuck fully *set* — the threshold is
    /// pinned at the lowest programmable level, so the FeFET conducts under
    /// every search level that turns level 0 on, regardless of the data.
    StuckAtLowVth,
    /// SA1: the ferroelectric is stuck fully *reset* (the erased state,
    /// above every level of the ladder) — the FeFET never conducts.
    StuckAtHighVth,
    /// The series resistor is blown open: no current path at all.
    ResistorOpen,
    /// The series resistor is shorted to a residual fraction of its
    /// nominal value: the ON-current clamp is lost and the cell injects a
    /// multiple of its intended current.
    ResistorShort,
}

impl CellFault {
    /// Short machine-readable label (used in reports and CLI output).
    pub fn label(&self) -> &'static str {
        match self {
            CellFault::None => "none",
            CellFault::StuckAtLowVth => "sa0",
            CellFault::StuckAtHighVth => "sa1",
            CellFault::ResistorOpen => "open",
            CellFault::ResistorShort => "short",
        }
    }
}

/// Effective electrical state of one cell after hard faults and aging.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EffectiveCell {
    /// Effective threshold voltage (aging + variation shift applied), or
    /// `None` when the cell can never conduct (SA1 / open).
    pub vth: Option<Volt>,
    /// Effective resistor factor relative to nominal: the conducting cell
    /// contributes `m / r_factor` current units.
    pub r_factor: f64,
}

/// A deterministic fault/aging campaign for one array.
///
/// Hard-fault rates are per-cell probabilities; the four classes are
/// mutually exclusive per cell (their sum must not exceed 1). Aging knobs
/// are global: `retention_seconds` is the storage age at search time and
/// `endurance_cycles` the number of program/erase cycles endured. The
/// default plan is benign — no faults, no aging — so threading it through
/// configuration structs changes nothing until a sweep turns a knob.
///
/// # Examples
///
/// ```
/// use ferex_fefet::faults::{CellFault, FaultPlan};
///
/// let plan = FaultPlan { sa0_rate: 0.5, ..Default::default() };
/// let map = plan.fault_map(7, 1000);
/// let n_sa0 = map.iter().filter(|f| **f == CellFault::StuckAtLowVth).count();
/// assert!((400..600).contains(&n_sa0));
/// // Same seeds, same map.
/// assert_eq!(map, plan.fault_map(7, 1000));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// Probability of a stuck-at-lowest-V_th (SA0) cell.
    pub sa0_rate: f64,
    /// Probability of a stuck-at-highest-V_th (SA1) cell.
    pub sa1_rate: f64,
    /// Probability of an open series resistor.
    pub open_rate: f64,
    /// Probability of a shorted series resistor.
    pub short_rate: f64,
    /// Residual resistance fraction of a shorted cell (ON current scales
    /// by its inverse). Must be in `(0, 1]`.
    pub short_residual_r: f64,
    /// Storage age at search time, in seconds; 0 disables retention drift.
    pub retention_seconds: f64,
    /// Retention model applied over `retention_seconds`.
    pub retention: RetentionModel,
    /// Program/erase cycles endured; 0 disables window collapse.
    pub endurance_cycles: f64,
    /// Endurance model applied over `endurance_cycles`.
    pub endurance: EnduranceModel,
    /// Extra seed mixed into the per-cell fault stream, so sweeps can
    /// redraw fault maps without touching the backend's variation seed.
    pub seed: u64,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            sa0_rate: 0.0,
            sa1_rate: 0.0,
            open_rate: 0.0,
            short_rate: 0.0,
            short_residual_r: 0.1,
            retention_seconds: 0.0,
            retention: RetentionModel::default(),
            endurance_cycles: 0.0,
            endurance: EnduranceModel::default(),
            seed: 0,
        }
    }
}

impl FaultPlan {
    /// The benign plan: no hard faults, no aging.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// `true` if this plan changes nothing — every rate zero and both
    /// aging knobs off. Benign plans must be behavioral no-ops in every
    /// backend.
    pub fn is_benign(&self) -> bool {
        !self.has_hard_faults() && !self.has_aging()
    }

    /// `true` if any per-cell hard-fault rate is non-zero.
    pub fn has_hard_faults(&self) -> bool {
        self.sa0_rate > 0.0 || self.sa1_rate > 0.0 || self.open_rate > 0.0 || self.short_rate > 0.0
    }

    /// `true` if retention or endurance aging is enabled.
    pub fn has_aging(&self) -> bool {
        self.retention_seconds > 0.0 || self.endurance_cycles > 0.0
    }

    fn assert_valid(&self) {
        for (name, rate) in [
            ("sa0_rate", self.sa0_rate),
            ("sa1_rate", self.sa1_rate),
            ("open_rate", self.open_rate),
            ("short_rate", self.short_rate),
        ] {
            assert!((0.0..=1.0).contains(&rate), "{name} must be in [0, 1], got {rate}");
        }
        let total = self.sa0_rate + self.sa1_rate + self.open_rate + self.short_rate;
        assert!(total <= 1.0, "fault rates must sum to at most 1, got {total}");
        assert!(
            self.short_residual_r > 0.0 && self.short_residual_r <= 1.0,
            "short_residual_r must be in (0, 1]"
        );
        assert!(self.retention_seconds >= 0.0, "retention_seconds must be non-negative");
        assert!(self.endurance_cycles >= 0.0, "endurance_cycles must be non-negative");
    }

    /// The hard fault (if any) of cell `index` in an array seeded with
    /// `array_seed`. Pure per-index hashing — no sequential RNG — so the
    /// draw for a given cell is independent of how many other cells exist
    /// or in which order they are queried.
    ///
    /// # Panics
    ///
    /// Panics if any rate is outside `[0, 1]`, the rates sum beyond 1, or
    /// `short_residual_r` is outside `(0, 1]`.
    pub fn fault_for_cell(&self, array_seed: u64, index: u64) -> CellFault {
        self.assert_valid();
        if !self.has_hard_faults() {
            return CellFault::None;
        }
        let word =
            splitmix64(splitmix64(array_seed ^ FAULT_STREAM_SALT) ^ splitmix64(index ^ self.seed));
        // 53 uniform mantissa bits → u in [0, 1).
        let u = (word >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        let mut edge = self.sa0_rate;
        if u < edge {
            return CellFault::StuckAtLowVth;
        }
        edge += self.sa1_rate;
        if u < edge {
            return CellFault::StuckAtHighVth;
        }
        edge += self.open_rate;
        if u < edge {
            return CellFault::ResistorOpen;
        }
        edge += self.short_rate;
        if u < edge {
            return CellFault::ResistorShort;
        }
        CellFault::None
    }

    /// The full fault map for `n_cells` cells (row-major cell index order).
    ///
    /// # Panics
    ///
    /// As [`FaultPlan::fault_for_cell`].
    pub fn fault_map(&self, array_seed: u64, n_cells: usize) -> Vec<CellFault> {
        (0..n_cells).map(|i| self.fault_for_cell(array_seed, i as u64)).collect()
    }

    /// The threshold a cell programmed to `level` presents at search time:
    /// endurance window collapse first (the window the write ever reached),
    /// then retention drift over the storage age.
    ///
    /// # Panics
    ///
    /// As [`FaultPlan::fault_for_cell`]; also if `level` exceeds the
    /// technology's level count.
    pub fn aged_vth(&self, tech: &Technology, level: usize) -> Volt {
        self.assert_valid();
        let mut vth = tech.vth_level(level);
        if self.endurance_cycles > 0.0 {
            vth = self.endurance.collapsed_vth(tech, vth, self.endurance_cycles);
        }
        if self.retention_seconds > 0.0 {
            vth = self.retention.drifted_vth(tech, vth, self.retention_seconds);
        }
        vth
    }

    /// Aged thresholds for every programmable level (index = level).
    pub fn aged_vth_table(&self, tech: &Technology) -> Vec<Volt> {
        (0..tech.n_vth_levels).map(|l| self.aged_vth(tech, l)).collect()
    }

    /// The effective electrical state of one cell: stored `level`, aged
    /// thresholds `aged` (from [`FaultPlan::aged_vth_table`]), per-device
    /// variation `sample`, hard fault `fault`.
    ///
    /// Benign identity: with `CellFault::None` and no aging, this returns
    /// exactly `vth_level(level) + dvth` and the sample's own `r_factor`.
    /// A `level` past the aged table has no threshold (`vth: None`), so
    /// the cell never conducts.
    pub fn effective_cell(
        &self,
        tech: &Technology,
        fault: CellFault,
        aged: &[Volt],
        level: usize,
        sample: &DeviceSample,
    ) -> EffectiveCell {
        match fault {
            CellFault::None => EffectiveCell {
                vth: aged.get(level).map(|&v| v + sample.dvth),
                r_factor: sample.r_factor,
            },
            CellFault::StuckAtLowVth => EffectiveCell {
                // Pinned polarization does not age; variation (a transistor
                // property) still shifts the read threshold.
                vth: Some(tech.vth_level(0) + sample.dvth),
                r_factor: sample.r_factor,
            },
            CellFault::StuckAtHighVth | CellFault::ResistorOpen => {
                EffectiveCell { vth: None, r_factor: f64::INFINITY }
            }
            CellFault::ResistorShort => EffectiveCell {
                vth: aged.get(level).map(|&v| v + sample.dvth),
                r_factor: sample.scaled_r(self.short_residual_r).r_factor,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::retention::TEN_YEARS;

    #[test]
    fn default_plan_is_benign() {
        let plan = FaultPlan::default();
        assert!(plan.is_benign());
        assert!(!plan.has_hard_faults());
        assert!(!plan.has_aging());
        assert_eq!(plan.fault_for_cell(3, 17), CellFault::None);
        let tech = Technology::default();
        for l in 0..tech.n_vth_levels {
            assert_eq!(plan.aged_vth(&tech, l), tech.vth_level(l));
        }
    }

    #[test]
    fn fault_map_is_deterministic_and_order_free() {
        let plan = FaultPlan { sa0_rate: 0.1, open_rate: 0.1, ..Default::default() };
        let map = plan.fault_map(42, 256);
        assert_eq!(map, plan.fault_map(42, 256));
        // Per-index hashing: the first 128 cells of a 256-cell map equal a
        // 128-cell map outright.
        assert_eq!(map[..128], plan.fault_map(42, 128));
        // Different array seeds give different maps.
        assert_ne!(map, plan.fault_map(43, 256));
        // And so does the plan's own seed knob.
        assert_ne!(map, FaultPlan { seed: 1, ..plan }.fault_map(42, 256));
    }

    #[test]
    fn fault_frequencies_match_rates() {
        let plan = FaultPlan {
            sa0_rate: 0.05,
            sa1_rate: 0.10,
            open_rate: 0.15,
            short_rate: 0.20,
            ..Default::default()
        };
        let n = 40_000;
        let map = plan.fault_map(9, n);
        let freq = |kind: CellFault| map.iter().filter(|f| **f == kind).count() as f64 / n as f64;
        assert!((freq(CellFault::StuckAtLowVth) - 0.05).abs() < 0.01);
        assert!((freq(CellFault::StuckAtHighVth) - 0.10).abs() < 0.01);
        assert!((freq(CellFault::ResistorOpen) - 0.15).abs() < 0.01);
        assert!((freq(CellFault::ResistorShort) - 0.20).abs() < 0.01);
        assert!((freq(CellFault::None) - 0.50).abs() < 0.02);
    }

    #[test]
    fn aging_composes_endurance_then_retention() {
        let tech = Technology::default();
        let plan = FaultPlan {
            retention_seconds: TEN_YEARS,
            endurance_cycles: 1.0e8,
            ..Default::default()
        };
        let vth0 = tech.vth_level(0);
        let collapsed = plan.endurance.collapsed_vth(&tech, vth0, 1.0e8);
        let expected = plan.retention.drifted_vth(&tech, collapsed, TEN_YEARS);
        assert_eq!(plan.aged_vth(&tech, 0), expected);
        // Both stages pull the extreme level toward the window center.
        assert!(collapsed > vth0);
        assert!(plan.aged_vth(&tech, 0) > collapsed);
        // The table covers every level.
        assert_eq!(plan.aged_vth_table(&tech).len(), tech.n_vth_levels);
    }

    #[test]
    fn effective_cell_covers_every_fault_class() {
        let tech = Technology::default();
        let plan = FaultPlan { short_rate: 0.1, short_residual_r: 0.2, ..Default::default() };
        let aged = plan.aged_vth_table(&tech);
        let sample = DeviceSample { dvth: Volt(0.01), r_factor: 1.1 };

        let healthy = plan.effective_cell(&tech, CellFault::None, &aged, 2, &sample);
        assert_eq!(healthy.vth, Some(tech.vth_level(2) + Volt(0.01)));
        assert_eq!(healthy.r_factor, 1.1);

        let sa0 = plan.effective_cell(&tech, CellFault::StuckAtLowVth, &aged, 2, &sample);
        assert_eq!(sa0.vth, Some(tech.vth_level(0) + Volt(0.01)));

        for dead in [CellFault::StuckAtHighVth, CellFault::ResistorOpen] {
            let cell = plan.effective_cell(&tech, dead, &aged, 2, &sample);
            assert_eq!(cell.vth, None);
        }

        let short = plan.effective_cell(&tech, CellFault::ResistorShort, &aged, 2, &sample);
        assert_eq!(short.vth, healthy.vth);
        assert!((short.r_factor - 1.1 * 0.2).abs() < 1e-12);
    }

    #[test]
    fn a_level_past_the_aged_table_never_conducts() {
        let tech = Technology::default();
        let plan = FaultPlan { short_rate: 0.1, short_residual_r: 0.2, ..Default::default() };
        let aged = plan.aged_vth_table(&tech);
        let sample = DeviceSample { dvth: Volt(0.01), r_factor: 1.1 };
        let past = aged.len();
        let cell = plan.effective_cell(&tech, CellFault::None, &aged, past, &sample);
        assert_eq!(cell.vth, None);
        assert_eq!(cell.r_factor, 1.1);
        let short = plan.effective_cell(&tech, CellFault::ResistorShort, &aged, past, &sample);
        assert_eq!(short.vth, None);
        assert!((short.r_factor - 1.1 * 0.2).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "sum to at most 1")]
    fn oversubscribed_rates_are_rejected() {
        let plan = FaultPlan { sa0_rate: 0.6, sa1_rate: 0.6, ..Default::default() };
        let _ = plan.fault_for_cell(0, 0);
    }

    #[test]
    #[should_panic(expected = "short_residual_r")]
    fn zero_residual_resistance_is_rejected() {
        let plan = FaultPlan { short_rate: 0.1, short_residual_r: 0.0, ..Default::default() };
        let _ = plan.fault_for_cell(0, 0);
    }
}
