//! Cell sizing: the smallest K that realizes a distance matrix.
//!
//! "FeReX iteratively increases the number of FeFETs within a cell, and
//! determines that a 3FeFET3R cell structure is the optimal solution for the
//! DM of 2-bit Hamming Distance" (paper Sec. III-B). This module runs that
//! loop: K = 1, 2, 3, … until [`detect_feasibility`] succeeds, then scores a
//! batch of feasible solutions and keeps the one using the fewest voltage
//! levels — which is how the compact Table II encoding is obtained rather
//! than an arbitrary witness.

use crate::dm::DistanceMatrix;
use crate::encoding::{CellEncoding, EncodingLimits};
use crate::error::EncodeError;
use crate::feasibility::{
    detect_feasibility, enumerate_solutions, FeasibilityConfig, FetRow, RowConfig,
};

/// Options of the sizing loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SizingOptions {
    /// Largest cell size to try.
    pub max_k: usize,
    /// Resource limits of each feasibility run.
    pub feasibility: FeasibilityConfig,
    /// Hardware budget the final encoding must fit.
    pub limits: EncodingLimits,
}

/// How many feasible solutions are scored per K when picking the most
/// compact encoding.
const SOLUTION_CANDIDATES: usize = 512;

impl Default for SizingOptions {
    fn default() -> Self {
        SizingOptions {
            max_k: 8,
            feasibility: FeasibilityConfig::default(),
            limits: EncodingLimits { max_vth_levels: 4, max_search_levels: 5, max_vds_multiple: 9 },
        }
    }
}

/// One K tried by the sizing loop.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SizingAttempt {
    /// The cell size tried.
    pub k: usize,
    /// Whether a chain-consistent solution existed at this K.
    pub feasible: bool,
    /// Candidate configurations per search line before AC-3.
    pub row_domain_sizes: Vec<usize>,
}

/// Result of the sizing loop.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SizingReport {
    /// The most compact encoding found at the minimal feasible K.
    pub encoding: CellEncoding,
    /// The trail of attempts (K = 1 up to the success).
    pub attempts: Vec<SizingAttempt>,
    /// How many solutions were scored at the final K.
    pub candidates_scored: usize,
}

/// The allowed current range for a DM under a driver budget: every integer
/// multiple from 1 up to the smaller of the DM's maximum entry and the
/// driver's maximum `V_ds` multiple.
pub fn current_range(dm: &DistanceMatrix, max_vds_multiple: u32) -> Vec<u32> {
    (1..=dm.max_value().min(max_vds_multiple)).collect()
}

/// Finds the minimal-K cell for `dm` and derives its most compact voltage
/// encoding.
///
/// # Errors
///
/// * [`EncodeError::NoFeasibleCell`] if no K up to `options.max_k` works;
/// * level-budget errors if solutions exist but none fits the hardware
///   limits at any K;
/// * [`EncodeError::Resource`] if an enumeration cap is hit.
pub fn find_minimal_cell(
    dm: &DistanceMatrix,
    options: &SizingOptions,
) -> Result<SizingReport, EncodeError> {
    // Degenerate all-zero DM: one permanently-off FeFET suffices.
    if dm.max_value() == 0 {
        let solution: Vec<RowConfig> =
            (0..dm.n_search()).map(|_| RowConfig { fets: vec![FetRow::OFF] }).collect();
        let encoding = CellEncoding::from_solution(&solution, dm.n_stored(), &options.limits)?;
        return Ok(SizingReport {
            encoding,
            attempts: vec![SizingAttempt { k: 1, feasible: true, row_domain_sizes: vec![] }],
            candidates_scored: 1,
        });
    }
    let levels = current_range(dm, options.limits.max_vds_multiple);
    let mut attempts = Vec::new();
    let mut best_level_error: Option<EncodeError> = None;
    for k in 1..=options.max_k {
        let outcome = detect_feasibility(dm, k, &levels, &options.feasibility)?;
        attempts.push(SizingAttempt {
            k,
            feasible: outcome.is_feasible(),
            row_domain_sizes: outcome.row_domain_sizes,
        });
        let Some(region) = outcome.region else {
            continue;
        };
        let solutions = enumerate_solutions(&region, &options.feasibility, SOLUTION_CANDIDATES)?;
        let scored = solutions.len();
        let mut best: Option<CellEncoding> = None;
        for sol in &solutions {
            match CellEncoding::from_solution(sol, dm.n_stored(), &options.limits) {
                Ok(enc) => {
                    let better = best.as_ref().is_none_or(|b| {
                        (enc.vth_levels_used, enc.search_levels_used, enc.max_vds_multiple)
                            < (b.vth_levels_used, b.search_levels_used, b.max_vds_multiple)
                    });
                    if better {
                        best = Some(enc);
                    }
                }
                Err(e) => {
                    best_level_error.get_or_insert(e);
                }
            }
        }
        if let Some(encoding) = best {
            // Defensive: the chosen encoding must reproduce the DM.
            debug_assert!(encoding.verify(dm).is_ok());
            return Ok(SizingReport { encoding, attempts, candidates_scored: scored });
        }
        // Feasible but nothing fits the level budget; a larger K will not
        // use fewer levels for the same chain structure, but give it a
        // chance in case a different decomposition helps.
    }
    Err(best_level_error.unwrap_or(EncodeError::NoFeasibleCell { max_k: options.max_k }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::DistanceMetric;

    fn size(metric: DistanceMetric, bits: u32) -> SizingReport {
        let dm = DistanceMatrix::from_metric(metric, bits);
        find_minimal_cell(&dm, &SizingOptions::default())
            .unwrap_or_else(|e| panic!("{metric} {bits}-bit: {e}"))
    }

    #[test]
    fn two_bit_hamming_sizes_to_three_fefets() {
        // The Table II headline: K = 3 is minimal for 2-bit Hamming.
        let report = size(DistanceMetric::Hamming, 2);
        assert_eq!(report.encoding.k, 3);
        assert_eq!(report.attempts.len(), 3);
        assert!(!report.attempts[0].feasible);
        assert!(!report.attempts[1].feasible);
        assert!(report.attempts[2].feasible);
    }

    #[test]
    fn two_bit_hamming_compact_encoding_matches_table_ii_budget() {
        // Table II uses three stored levels (Vt0..Vt2), search levels up to
        // Vs2, and V_ds multiples up to 2.
        let report = size(DistanceMetric::Hamming, 2);
        let enc = &report.encoding;
        assert!(enc.vth_levels_used <= 3, "needed {}", enc.vth_levels_used);
        assert!(enc.max_vds_multiple <= 2);
        assert!(report.candidates_scored > 1);
        enc.verify(&DistanceMatrix::from_metric(DistanceMetric::Hamming, 2)).unwrap();
    }

    #[test]
    fn one_bit_metrics_size_to_two_fefets() {
        for metric in DistanceMetric::ALL {
            let report = size(metric, 1);
            assert_eq!(report.encoding.k, 2, "{metric}");
        }
    }

    #[test]
    fn manhattan_and_euclidean_two_bit_are_encodable() {
        for metric in [DistanceMetric::Manhattan, DistanceMetric::EuclideanSquared] {
            let report = size(metric, 2);
            let dm = DistanceMatrix::from_metric(metric, 2);
            report.encoding.verify(&dm).expect("must reproduce the DM");
            assert!(report.encoding.k <= 6, "{metric} needed k = {}", report.encoding.k);
        }
    }

    #[test]
    fn all_zero_dm_is_trivial() {
        let dm = DistanceMatrix::from_table(vec![vec![0, 0], vec![0, 0]]);
        let report = find_minimal_cell(&dm, &SizingOptions::default()).expect("trivial");
        assert_eq!(report.encoding.k, 1);
        report.encoding.verify(&dm).unwrap();
    }

    #[test]
    fn custom_asymmetric_table_is_encodable() {
        // A deliberately asymmetric "similarity cost" table.
        let dm = DistanceMatrix::from_table(vec![vec![0, 2], vec![1, 0]]);
        let report = find_minimal_cell(&dm, &SizingOptions::default()).expect("encodable");
        report.encoding.verify(&dm).unwrap();
    }

    #[test]
    fn impossible_budget_reports_no_feasible_cell() {
        let dm = DistanceMatrix::from_metric(DistanceMetric::Hamming, 2);
        let err = find_minimal_cell(
            &dm,
            &SizingOptions {
                max_k: 2, // K = 3 is required
                ..Default::default()
            },
        )
        .unwrap_err();
        assert_eq!(err, EncodeError::NoFeasibleCell { max_k: 2 });
    }

    #[test]
    fn current_range_is_clipped_by_driver() {
        let dm = DistanceMatrix::from_metric(DistanceMetric::EuclideanSquared, 2);
        assert_eq!(current_range(&dm, 9), (1..=9).collect::<Vec<_>>());
        assert_eq!(current_range(&dm, 4), vec![1, 2, 3, 4]);
    }
}
