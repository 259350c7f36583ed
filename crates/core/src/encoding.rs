//! Voltage-encoding post-processing (paper Fig. 5 and Table II).
//!
//! A feasible-region solution fixes, for every search line, which FeFETs
//! conduct for which stored values and at what current. This module turns
//! that combinatorial object into physical voltages:
//!
//! * **Stored encoding** — per FeFET, stored values are ranked by how often
//!   the FeFET conducts for them across all search lines; more conduction ⇒
//!   lower `V_th` (Fig. 5 left).
//! * **Search encoding** — per FeFET, each search line's gate level is the
//!   number of threshold groups its ON-set covers; bigger ON-set ⇒ higher
//!   `V_gs` (Fig. 5 right). The `V_ds` multiple is the FeFET's current level
//!   on that line.
//!
//! [`CellEncoding::verify`] closes the loop: it re-evaluates the ladder rule
//! `V_th < V_gs` per FeFET and checks that the reconstructed currents equal
//! the target distance matrix exactly.

use crate::dm::DistanceMatrix;
use crate::error::EncodeError;
use crate::feasibility::RowConfig;
use std::fmt;

/// Stored-side encoding of one symbol value: the threshold level of each of
/// the cell's K FeFETs.
#[derive(Debug, Clone, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct StoredEncoding {
    /// Threshold level index per FeFET (0 = lowest `V_th`).
    pub vth_levels: Vec<usize>,
}

/// Search-side encoding of one symbol value.
#[derive(Debug, Clone, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct SearchEncoding {
    /// Gate-voltage level index per FeFET (0 turns nothing on).
    pub vgs_levels: Vec<usize>,
    /// Drain-voltage multiple per FeFET (0 = drain line grounded).
    pub vds_multiples: Vec<u32>,
}

/// The complete voltage encoding of one AM cell for one distance matrix.
#[derive(Debug, Clone, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct CellEncoding {
    /// FeFETs per cell.
    pub k: usize,
    /// Stored encodings, indexed by stored symbol value.
    pub stored: Vec<StoredEncoding>,
    /// Search encodings, indexed by search symbol value.
    pub search: Vec<SearchEncoding>,
    /// Most distinct threshold levels any FeFET uses.
    pub vth_levels_used: usize,
    /// Most distinct gate levels any FeFET uses (counting level 0).
    pub search_levels_used: usize,
    /// Largest drain multiple any search line uses.
    pub max_vds_multiple: u32,
}

/// Hardware budget the encoding must fit in (from the technology card).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EncodingLimits {
    /// Programmable threshold levels per FeFET.
    pub max_vth_levels: usize,
    /// Available gate-voltage ladder levels (a level-`n_vth` gate voltage —
    /// above every threshold — is always available, so this equals
    /// `max_vth_levels + 1` counting level 0).
    pub max_search_levels: usize,
    /// Largest drain-voltage multiple the column driver produces.
    pub max_vds_multiple: u32,
}

impl CellEncoding {
    /// Derives the voltage encoding from a feasible solution (one
    /// [`RowConfig`] per search value).
    ///
    /// # Errors
    ///
    /// Returns an [`EncodeError`] if the solution needs more threshold
    /// levels, gate levels or drain range than `limits` allows.
    ///
    /// # Panics
    ///
    /// Panics if `solution` is empty, ragged in K, or not chain-consistent
    /// (i.e. not actually a solution of the feasibility CSP).
    pub fn from_solution(
        solution: &[RowConfig],
        n_stored: usize,
        limits: &EncodingLimits,
    ) -> Result<Self, EncodeError> {
        assert!(!solution.is_empty(), "solution must cover at least one search line");
        let k = solution[0].fets.len(); // lint:allow(panic-safety/index, reason = "solution asserted non-empty above")
        assert!(solution.iter().all(|r| r.fets.len() == k), "solution rows disagree on cell size");
        let n_search = solution.len();

        let mut stored = vec![StoredEncoding { vth_levels: Vec::with_capacity(k) }; n_stored];
        let mut search = vec![
            SearchEncoding {
                vgs_levels: Vec::with_capacity(k),
                vds_multiples: Vec::with_capacity(k),
            };
            n_search
        ];
        let mut vth_levels_used = 0usize;
        let mut search_levels_used = 0usize;
        let mut max_vds = 0u32;

        // lint:allow(panic-safety/index, reason = "solution is asserted non-ragged with k fets per row; counts and search are sized to n_stored and n_search above")
        for f in 0..k {
            // Conduction counts per stored value (Fig. 5: sort-by-ON-count).
            let counts: Vec<usize> = (0..n_stored)
                .map(|j| solution.iter().filter(|row| row.fets[f].on_mask >> j & 1 == 1).count())
                .collect();
            // Distinct counts, descending: highest count ⇒ rank 0 ⇒ lowest
            // V_th. Equal counts ⇒ identical chain membership ⇒ same level.
            let mut distinct: Vec<usize> = counts.clone();
            distinct.sort_unstable_by(|a, b| b.cmp(a));
            distinct.dedup();
            let rank_of = |count: usize| -> usize {
                // lint:allow(panic-safety/expect, reason = "distinct is built from the same counts list queried here")
                distinct.iter().position(|&c| c == count).expect("count present")
            };
            let n_groups = distinct.len();
            vth_levels_used = vth_levels_used.max(n_groups);

            for (j, enc) in stored.iter_mut().enumerate() {
                enc.vth_levels.push(rank_of(counts[j]));
            }

            for (i, row) in solution.iter().enumerate() {
                let on = row.fets[f].on_mask;
                // The ON-set must be a prefix of the rank order: ranks
                // 0..m-1 ON, the rest OFF. m is the gate level.
                let m = (0..n_stored).filter(|&j| on >> j & 1 == 1).count();
                let mut level = 0usize;
                for g in 0..n_groups {
                    let group: Vec<usize> =
                        (0..n_stored).filter(|&j| rank_of(counts[j]) == g).collect();
                    if group.iter().all(|&j| on >> j & 1 == 1) {
                        level = g + 1;
                    } else {
                        break;
                    }
                }
                // Chain-consistency sanity: the prefix must cover exactly
                // the ON columns.
                let covered: usize = (0..n_stored).filter(|&j| rank_of(counts[j]) < level).count();
                assert_eq!(
                    covered, m,
                    "solution is not chain-consistent for FeFET {f}, search line {i}"
                );
                search_levels_used = search_levels_used.max(level + 1);
                search[i].vgs_levels.push(level);
                search[i].vds_multiples.push(row.fets[f].level);
                max_vds = max_vds.max(row.fets[f].level);
            }
        }

        if vth_levels_used > limits.max_vth_levels {
            return Err(EncodeError::VthLevelsExceeded {
                needed: vth_levels_used,
                available: limits.max_vth_levels,
            });
        }
        if search_levels_used > limits.max_search_levels {
            return Err(EncodeError::SearchLevelsExceeded {
                needed: search_levels_used,
                available: limits.max_search_levels,
            });
        }
        if max_vds > limits.max_vds_multiple {
            return Err(EncodeError::VdsRangeExceeded {
                needed: max_vds,
                available: limits.max_vds_multiple,
            });
        }

        Ok(CellEncoding {
            k,
            stored,
            search,
            vth_levels_used,
            search_levels_used,
            max_vds_multiple: max_vds,
        })
    }

    /// Number of stored symbol values this encoding covers.
    pub fn n_stored(&self) -> usize {
        self.stored.len()
    }

    /// Number of search symbol values this encoding covers.
    pub fn n_search(&self) -> usize {
        self.search.len()
    }

    /// The cell current (in `I_unit` multiples) the encoding produces for a
    /// (search, stored) value pair under the ladder rule `V_th < V_gs`.
    ///
    /// # Panics
    ///
    /// Panics if either value is out of range.
    pub fn cell_current(&self, search: usize, stored: usize) -> u32 {
        let se = &self.search[search]; // lint:allow(panic-safety/index, reason = "documented panics-on-out-of-range contract")
        let st = &self.stored[stored]; // lint:allow(panic-safety/index, reason = "documented panics-on-out-of-range contract")
                                       // lint:allow(panic-safety/index, reason = "f < k and every encoding carries exactly k levels")
        (0..self.k)
            .map(|f| if st.vth_levels[f] < se.vgs_levels[f] { se.vds_multiples[f] } else { 0 })
            .sum()
    }

    /// Verifies the encoding reproduces `dm` exactly — the software half of
    /// the paper's "device-circuit co-simulations validate" claim.
    ///
    /// # Errors
    ///
    /// [`FerexError::EncodingMismatch`](crate::error::FerexError::EncodingMismatch)
    /// for the first diverging `(search, stored)` cell.
    pub fn verify(&self, dm: &DistanceMatrix) -> Result<(), crate::error::FerexError> {
        for i in 0..dm.n_search() {
            for j in 0..dm.n_stored() {
                let got = self.cell_current(i, j);
                let expected = dm.get(i, j);
                if got != expected {
                    return Err(crate::error::FerexError::EncodingMismatch {
                        search: i,
                        stored: j,
                        expected,
                        got,
                    });
                }
            }
        }
        Ok(())
    }
}

impl fmt::Display for CellEncoding {
    /// Renders the encoding in the shape of the paper's Table II.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}FeFET{}R cell encoding", self.k, self.k)?;
        write!(f, "value |")?;
        for fet in 0..self.k {
            write!(f, " Vth,F{} |", fet + 1)?;
        }
        for fet in 0..self.k {
            write!(f, " Vg,F{}  |", fet + 1)?;
        }
        for fet in 0..self.k {
            write!(f, " Vds,F{} |", fet + 1)?;
        }
        writeln!(f)?;
        let bits = (usize::BITS - (self.n_stored() - 1).leading_zeros()).max(1) as usize;
        // lint:allow(panic-safety/index, reason = "v is bounds-checked against n_stored / n_search before each access; fet < k")
        for v in 0..self.n_stored().max(self.n_search()) {
            let label = format!("{v:0bits$b}");
            write!(f, "{label:>5} |")?;
            for fet in 0..self.k {
                if v < self.n_stored() {
                    write!(f, "   Vt{}   |", self.stored[v].vth_levels[fet])?;
                } else {
                    write!(f, "    -    |")?;
                }
            }
            for fet in 0..self.k {
                if v < self.n_search() {
                    write!(f, "   Vs{}  |", self.search[v].vgs_levels[fet])?;
                } else {
                    write!(f, "    -   |")?;
                }
            }
            for fet in 0..self.k {
                if v < self.n_search() {
                    let m = self.search[v].vds_multiples[fet];
                    if m == 0 {
                        write!(f, "    0   |")?;
                    } else {
                        write!(f, "   {m}V   |")?;
                    }
                } else {
                    write!(f, "    -   |")?;
                }
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::DistanceMetric;
    use crate::feasibility::{detect_feasibility, FeasibilityConfig};

    fn limits() -> EncodingLimits {
        EncodingLimits { max_vth_levels: 4, max_search_levels: 5, max_vds_multiple: 9 }
    }

    fn encode_metric(metric: DistanceMetric, bits: u32, k: usize) -> CellEncoding {
        let dm = DistanceMatrix::from_metric(metric, bits);
        let levels: Vec<u32> = (1..=dm.max_value().min(9)).collect();
        let outcome = detect_feasibility(&dm, k, &levels, &FeasibilityConfig::default())
            .expect("within caps");
        let region =
            outcome.region.unwrap_or_else(|| panic!("{metric} {bits}-bit k={k} infeasible"));
        let enc = CellEncoding::from_solution(&region.solution, dm.n_stored(), &limits())
            .expect("encodable");
        enc.verify(&dm).expect("encoding must reproduce the DM");
        enc
    }

    #[test]
    fn two_bit_hamming_encoding_verifies() {
        let enc = encode_metric(DistanceMetric::Hamming, 2, 3);
        assert_eq!(enc.k, 3);
        // This is *a* valid encoding; the level-minimizing selection that
        // reproduces Table II's exact budget lives in `sizing`.
        assert!(enc.vth_levels_used <= 4);
        assert!(enc.max_vds_multiple <= 2, "2-bit HD needs at most 2V_ds,unit");
    }

    #[test]
    fn cell_current_matches_dm_by_construction() {
        let dm = DistanceMatrix::from_metric(DistanceMetric::Hamming, 2);
        let enc = encode_metric(DistanceMetric::Hamming, 2, 3);
        for i in 0..4 {
            for j in 0..4 {
                assert_eq!(enc.cell_current(i, j), dm.get(i, j));
            }
        }
    }

    #[test]
    fn verify_detects_corruption() {
        let dm = DistanceMatrix::from_metric(DistanceMetric::Hamming, 2);
        let mut enc = encode_metric(DistanceMetric::Hamming, 2, 3);
        // Corrupt one stored threshold.
        enc.stored[0].vth_levels[0] = enc.stored[0].vth_levels[0].wrapping_add(1) % 4;
        assert!(enc.verify(&dm).is_err());
    }

    #[test]
    fn level_budget_is_enforced() {
        let dm = DistanceMatrix::from_metric(DistanceMetric::Hamming, 2);
        let outcome =
            detect_feasibility(&dm, 3, &[1, 2], &FeasibilityConfig::default()).expect("caps");
        let region = outcome.region.expect("feasible");
        let tight = EncodingLimits { max_vth_levels: 1, max_search_levels: 5, max_vds_multiple: 9 };
        let err = CellEncoding::from_solution(&region.solution, 4, &tight).unwrap_err();
        assert!(matches!(err, EncodeError::VthLevelsExceeded { .. }), "{err}");
    }

    #[test]
    fn vds_budget_is_enforced() {
        let dm = DistanceMatrix::from_metric(DistanceMetric::Hamming, 2);
        let outcome =
            detect_feasibility(&dm, 3, &[1, 2], &FeasibilityConfig::default()).expect("caps");
        let region = outcome.region.expect("feasible");
        let tight = EncodingLimits { max_vth_levels: 4, max_search_levels: 5, max_vds_multiple: 1 };
        // Some solutions use level 2 — but not necessarily this witness, so
        // only assert that a returned error (if any) has the right shape.
        match CellEncoding::from_solution(&region.solution, 4, &tight) {
            Ok(enc) => assert!(enc.max_vds_multiple <= 1),
            Err(e) => assert!(matches!(e, EncodeError::VdsRangeExceeded { .. }), "{e}"),
        }
    }

    #[test]
    fn display_renders_table_ii_shape() {
        let enc = encode_metric(DistanceMetric::Hamming, 2, 3);
        let s = enc.to_string();
        assert!(s.contains("3FeFET3R"));
        assert!(s.contains("Vth,F1"));
        assert!(s.contains("Vg,F3"));
        assert!(s.lines().count() >= 6, "{s}");
    }
}
