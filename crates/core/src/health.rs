//! Self-healing policy, reports and health counters.
//!
//! Real FeFET deployments do not serve a freshly written array blind: the
//! write path verifies every cell and re-pulses stragglers (Ni et al. write
//! study), rows that cannot be trimmed are remapped onto spares, and an
//! online scrub walks the array between batches to catch retention drift and
//! latent hard faults before they surface as wrong nearest neighbors. This
//! module holds the knobs ([`RepairPolicy`]) and the structured results
//! ([`ProgramReport`], [`ScrubReport`], [`HealthSnapshot`]) of
//! [`FerexArray`](crate::array::FerexArray).

use ferex_fefet::VerifyPolicy;

/// Knobs of the self-healing layer: write-verify, row sparing, sentinels
/// and the scrub tolerances.
///
/// Installed with
/// [`FerexArray::set_repair_policy`](crate::array::FerexArray::set_repair_policy);
/// without a policy the array behaves exactly as before (no spares, no
/// sentinels, no verification).
#[derive(Debug, Clone, PartialEq)]
pub struct RepairPolicy {
    /// Per-cell write-verify retry loop.
    pub verify: VerifyPolicy,
    /// Spare physical rows reserved per array (appended after the logical
    /// rows so the logical rows' variation draws stay put).
    pub spare_rows: usize,
    /// Sentinel rows programmed with known codewords, checked by `scrub()`.
    pub sentinel_rows: usize,
    /// How many verify-failed cells a row tolerates before it is
    /// quarantined and remapped.
    pub max_bad_cells_per_row: usize,
    /// Scrub: absolute per-probe divergence tolerance, in `I_unit`s.
    pub scrub_abs_tolerance: f64,
    /// Scrub: relative per-probe divergence tolerance (fraction of the
    /// expected readback).
    pub scrub_rel_tolerance: f64,
    /// If at least this fraction of checked rows (and at least two rows)
    /// diverge in the same scrub pass, the divergence is attributed to
    /// global drift instead of per-row faults and no row is quarantined.
    /// Set above `1.0` to disable drift attribution.
    pub drift_fraction: f64,
    /// When `true`, `program_verified()` returns
    /// [`FerexError::VerifyFailed`](crate::error::FerexError::VerifyFailed)
    /// instead of quarantining rows that fail verify.
    pub strict: bool,
}

impl Default for RepairPolicy {
    fn default() -> Self {
        RepairPolicy {
            verify: VerifyPolicy::default(),
            spare_rows: 2,
            sentinel_rows: 1,
            max_bad_cells_per_row: 0,
            scrub_abs_tolerance: 2.0,
            scrub_rel_tolerance: 0.35,
            drift_fraction: 0.5,
            strict: false,
        }
    }
}

impl RepairPolicy {
    /// Checks every knob (including the nested [`VerifyPolicy`]), returning
    /// [`FerexError::InvalidPolicy`](crate::error::FerexError::InvalidPolicy)
    /// for the first one out of range.
    ///
    /// # Errors
    ///
    /// [`FerexError::InvalidPolicy`](crate::error::FerexError::InvalidPolicy)
    /// naming the offending knob.
    pub fn validate(&self) -> Result<(), crate::error::FerexError> {
        use crate::error::FerexError;
        self.verify.validate().map_err(|what| FerexError::InvalidPolicy { what })?;
        if self.scrub_abs_tolerance <= 0.0 {
            return Err(FerexError::InvalidPolicy {
                what: "scrub absolute tolerance must be positive",
            });
        }
        if self.scrub_rel_tolerance < 0.0 {
            return Err(FerexError::InvalidPolicy {
                what: "scrub relative tolerance must be >= 0",
            });
        }
        if self.drift_fraction <= 0.0 {
            return Err(FerexError::InvalidPolicy { what: "drift fraction must be positive" });
        }
        Ok(())
    }
}

/// Health status of one logical row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RowHealth {
    /// Served from its own physical row.
    Healthy,
    /// Quarantined and re-stored on a spare physical row.
    Remapped {
        /// Physical index of the spare now serving this row.
        spare: usize,
    },
    /// Quarantined with no spare available — excluded from search.
    Quarantined,
}

/// Allocation state of one spare physical row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpareState {
    /// Available for remapping.
    Free,
    /// Serving the given logical row.
    Assigned(usize),
    /// The spare itself failed verify and was retired.
    Burned,
}

/// What a scrub divergence looks like, mapped onto the fault taxonomy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAttribution {
    /// Readback above expectation on every diverging probe — consistent
    /// with stuck-at-low-V_th (SA0) cells or shorted resistors conducting
    /// when they should not.
    ExcessCurrent,
    /// Readback below expectation on every diverging probe — consistent
    /// with stuck-at-high-V_th (SA1) cells or open resistors never
    /// conducting.
    MissingCurrent,
    /// Both directions within one row — multiple fault classes.
    Mixed,
    /// The whole array moved together — retention drift or endurance
    /// collapse, not a per-row defect.
    Drift,
}

impl FaultAttribution {
    /// Short human-readable label.
    pub fn label(self) -> &'static str {
        match self {
            FaultAttribution::ExcessCurrent => "excess-current (sa0/short)",
            FaultAttribution::MissingCurrent => "missing-current (sa1/open)",
            FaultAttribution::Mixed => "mixed",
            FaultAttribution::Drift => "drift (retention/endurance)",
        }
    }
}

/// Aggregate result of a verified program pass over the whole array.
///
/// Deliberately free of wall-clock fields: under a fixed seed the report is
/// bit-identical across runs (the determinism contract of the write-verify
/// loop).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ProgramReport {
    /// Logical rows programmed.
    pub rows: usize,
    /// Cells verified (logical rows × physical columns).
    pub cells: usize,
    /// Cells in tolerance on the first verify.
    pub cells_clean: usize,
    /// Cells pulled into tolerance by retry pulses.
    pub cells_repaired: usize,
    /// Cells given up on after the retry budget.
    pub cells_failed: usize,
    /// Total retry pulses spent.
    pub retries: usize,
    /// Logical rows quarantined by this pass.
    pub rows_quarantined: Vec<usize>,
    /// `(logical row, spare physical row)` remappings performed.
    pub rows_remapped: Vec<(usize, usize)>,
    /// Logical rows excluded from search (no spare left).
    pub rows_excluded: Vec<usize>,
    /// Spares that themselves failed verify and were retired.
    pub spares_burned: usize,
    /// Sentinel cells that failed verify (counted, never remapped).
    pub sentinel_cells_failed: usize,
}

/// One row flagged by a scrub pass.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScrubFinding {
    /// Logical row index (or sentinel index offset past the logical rows).
    pub row: usize,
    /// Worst signed divergence observed across the probe set, in `I_unit`s.
    pub divergence: f64,
    /// Expected readback at the worst probe, in `I_unit`s.
    pub expected: f64,
    /// Which fault class the divergence pattern points at.
    pub attribution: FaultAttribution,
}

/// Result of one scrub pass.
#[derive(Debug, Clone, PartialEq)]
pub struct ScrubReport {
    /// Rows checked (active logical rows plus sentinels).
    pub rows_checked: usize,
    /// Known-codeword probes applied per row.
    pub probes_per_row: usize,
    /// Rows whose readback diverged beyond tolerance.
    pub findings: Vec<ScrubFinding>,
    /// `(logical row, spare physical row)` remappings performed.
    pub rows_remapped: Vec<(usize, usize)>,
    /// Logical rows excluded from search (no spare left).
    pub rows_excluded: Vec<usize>,
    /// Sentinel rows among the findings.
    pub sentinel_findings: usize,
    /// `true` if the divergence was attributed to global drift (no row was
    /// quarantined).
    pub global_drift: bool,
    /// Modeled duration of the pass, in seconds: probes issued times the
    /// analog per-probe search delay
    /// ([`ferex_analog::delay::DelayModel`]). Deterministic — two identical
    /// arrays report identical latencies; never read from a wall clock.
    pub latency_seconds: f64,
}

/// Monotone counters accumulated across the array's lifetime (they survive
/// re-programming; a [`Clone`] of the array keeps its history).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct HealthCounters {
    /// Rows quarantined (by verify or scrub).
    pub rows_quarantined: u64,
    /// Cell repair attempts (retry loops entered).
    pub repairs_attempted: u64,
    /// Cell repairs that converged.
    pub repairs_succeeded: u64,
    /// Cells given up on.
    pub cells_given_up: u64,
    /// Scrub passes completed.
    pub scrubs_completed: u64,
    /// Modeled latency of the most recent scrub pass, in seconds (see
    /// [`ScrubReport::latency_seconds`] — deterministic, not wall clock).
    pub last_scrub_seconds: f64,
}

/// Point-in-time health view of an array: row and spare health only,
/// cheap enough for the replica router to read on every batch. Wear
/// under online mutation is a separate surface,
/// [`FerexArray::wear`](crate::array::FerexArray::wear).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct HealthSnapshot {
    /// Lifetime counters.
    pub counters: HealthCounters,
    /// Configured spare pool size.
    pub spare_rows: usize,
    /// Spares currently serving remapped rows.
    pub spares_in_use: usize,
    /// Spares retired after failing verify themselves.
    pub spares_burned: usize,
    /// Logical rows currently served (healthy + remapped).
    pub rows_active: usize,
    /// Logical rows currently excluded from search.
    pub rows_quarantined_now: usize,
    /// Logical rows currently served from a spare.
    pub rows_remapped_now: usize,
}

impl HealthSnapshot {
    /// Per-mille of logical rows not served from their home physical row
    /// (remapped through the spare mux or quarantined outright) — the
    /// degradation basis of the latency model's health-coupled inflation
    /// ([`LatencyModel::health_milli`](crate::latency::LatencyModel::health_milli)).
    /// 0 for a pristine array, 1000 when every row is displaced.
    pub fn degraded_milli(&self) -> u64 {
        let rows = self.rows_active + self.rows_quarantined_now;
        if rows == 0 {
            return 0;
        }
        ((self.rows_remapped_now + self.rows_quarantined_now) as u64).saturating_mul(1000)
            / rows as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::FerexError;

    #[test]
    fn default_policy_is_valid() {
        assert_eq!(RepairPolicy::default().validate(), Ok(()));
    }

    #[test]
    fn invalid_scrub_tolerance_rejected() {
        let e = RepairPolicy { scrub_abs_tolerance: 0.0, ..Default::default() }.validate();
        assert_eq!(
            e,
            Err(FerexError::InvalidPolicy { what: "scrub absolute tolerance must be positive" })
        );
    }

    #[test]
    fn degraded_milli_tracks_displaced_rows() {
        let mut h = HealthSnapshot::default();
        assert_eq!(h.degraded_milli(), 0, "empty snapshot is not degraded");
        h.rows_active = 16;
        assert_eq!(h.degraded_milli(), 0);
        h.rows_remapped_now = 4;
        assert_eq!(h.degraded_milli(), 250);
        h.rows_quarantined_now = 4;
        h.rows_active = 12;
        assert_eq!(h.degraded_milli(), 500);
    }

    #[test]
    fn attribution_labels_name_the_taxonomy() {
        assert!(FaultAttribution::ExcessCurrent.label().contains("sa0"));
        assert!(FaultAttribution::MissingCurrent.label().contains("sa1"));
        assert!(FaultAttribution::Drift.label().contains("retention"));
    }
}
