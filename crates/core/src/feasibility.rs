//! Algorithm 1 — FeReX feasibility detection.
//!
//! Given a distance matrix, a cell size K and the allowed FeFET current
//! range, decide whether a search/stored voltage configuration exists, and
//! produce the *feasible region* of per-search-line configurations:
//!
//! 1. **Constraint 1 (decomposition)** — every DM entry must split into K
//!    per-FeFET currents from `{0} ∪ CR` ([`crate::decompose`]).
//! 2. **Constraint 2 (intra-row consistency)** — within one search line,
//!    each FeFET either conducts one fixed current or is OFF, because its
//!    `V_gs`/`V_ds` are set once per search value. Enforced by per-row
//!    backtracking over the stored columns ([`enumerate_row_configs`]).
//! 3. **Constraint 3 (threshold ordering)** — across search lines, each
//!    FeFET's ON-sets must be realizable by a fixed stored-V_th order, i.e.
//!    form a chain under inclusion ([`chain_compatible`]). Enforced by AC-3
//!    over the search-line variables of [`chain_problem`], then an explicit
//!    backtracking solve to extract a witness configuration.

use crate::dm::DistanceMatrix;
use ferex_csp::{ac3, Ac3Outcome, Ac3Stats, Problem, SolveStats, Solver};
use std::collections::BTreeSet;
use std::error::Error;
use std::fmt;

/// Usage of one FeFET within one search line: its ON current level (in
/// `I_unit` multiples; 0 = never conducts on this line) and the set of
/// stored values under which it conducts, as a column bitmask.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct FetRow {
    /// Current level in `I_unit` multiples (equals the `V_ds` multiple).
    pub level: u32,
    /// Bit `j` set ⇔ the FeFET conducts when stored value `j` is present.
    pub on_mask: u64,
}

impl FetRow {
    /// A FeFET that never conducts on this search line.
    pub const OFF: FetRow = FetRow { level: 0, on_mask: 0 };
}

/// One candidate configuration of a search line: per-FeFET usage.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct RowConfig {
    /// Per-FeFET usage, index-aligned with the cell's physical FeFETs.
    pub fets: Vec<FetRow>,
}

impl RowConfig {
    /// The current this configuration produces for stored value `j`.
    pub fn current_for(&self, j: usize) -> u32 {
        self.fets.iter().map(|f| if f.on_mask >> j & 1 == 1 { f.level } else { 0 }).sum()
    }
}

/// Resource limits for the enumeration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FeasibilityConfig {
    /// Maximum candidate configurations per search line.
    pub row_cap: usize,
    /// Node limit for the final CSP solve.
    pub node_limit: Option<usize>,
}

impl Default for FeasibilityConfig {
    fn default() -> Self {
        FeasibilityConfig { row_cap: 200_000, node_limit: Some(5_000_000) }
    }
}

/// Resource-exhaustion errors (distinct from plain infeasibility).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FeasibilityError {
    /// A search line produced more candidate configurations than the cap.
    RowCapExceeded {
        /// The search-line index that blew the cap.
        row: usize,
        /// The configured cap.
        cap: usize,
    },
    /// The CSP solve hit its node limit before deciding.
    SearchAborted,
}

impl fmt::Display for FeasibilityError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FeasibilityError::RowCapExceeded { row, cap } => {
                write!(f, "search line {row} exceeded the {cap}-configuration cap")
            }
            FeasibilityError::SearchAborted => {
                write!(f, "feasibility search aborted at its node limit")
            }
        }
    }
}

impl Error for FeasibilityError {}

/// The feasible region: per-search-line domains surviving AC-3, plus one
/// witness solution.
#[derive(Debug, Clone, PartialEq)]
pub struct FeasibleRegion {
    /// Surviving configurations per search line (AC-3-consistent).
    pub domains: Vec<Vec<RowConfig>>,
    /// One chain-consistent configuration per search line.
    pub solution: Vec<RowConfig>,
}

/// Full outcome of the feasibility detection.
#[derive(Debug, Clone, PartialEq)]
pub struct FeasibilityOutcome {
    /// Cell size the detection ran at.
    pub k: usize,
    /// Candidate configurations per search line before AC-3.
    pub row_domain_sizes: Vec<usize>,
    /// The feasible region, or `None` if the DM is infeasible at this K.
    pub region: Option<FeasibleRegion>,
    /// AC-3 statistics (revisions, removals).
    pub ac3_stats: Ac3Stats,
    /// Backtracking statistics of the witness solve.
    pub solve_stats: SolveStats,
}

impl FeasibilityOutcome {
    /// `true` if a configuration exists.
    pub fn is_feasible(&self) -> bool {
        self.region.is_some()
    }
}

/// Chain-compatibility of two search-line configurations (constraint 3):
/// for every FeFET, one line's ON-set must contain the other's.
pub fn chain_compatible(a: &RowConfig, b: &RowConfig) -> bool {
    a.fets.iter().zip(&b.fets).all(|(x, y)| {
        let meet = x.on_mask & y.on_mask;
        meet == x.on_mask || meet == y.on_mask
    })
}

/// Enumerates every configuration of one search line that satisfies
/// constraints 1 and 2: per-FeFET levels fixed once, column current sums
/// matching the DM row.
///
/// `symmetry_break` keeps only configurations whose per-FeFET usage is in
/// canonical (sorted) order; sound for exactly one search line per problem
/// because the cell's FeFETs are globally interchangeable.
///
/// # Errors
///
/// [`FeasibilityError::RowCapExceeded`] if more than `cap` configurations
/// exist.
pub fn enumerate_row_configs(
    row: &[u32],
    k: usize,
    levels: &[u32],
    cap: usize,
    symmetry_break: bool,
) -> Result<Vec<RowConfig>, FeasibilityError> {
    assert!(row.len() <= 64, "at most 64 stored values supported");
    let mut state = RowSearch {
        row,
        k,
        levels,
        max_level: levels.iter().copied().max().unwrap_or(0),
        fet_levels: vec![0; k],
        on_masks: vec![0; k],
        out: BTreeSet::new(),
        cap,
        symmetry_break,
    };
    state.column(0)?;
    Ok(state.out.into_iter().map(|fets| RowConfig { fets }).collect())
}

struct RowSearch<'a> {
    row: &'a [u32],
    k: usize,
    levels: &'a [u32],
    max_level: u32,
    /// 0 = level not yet fixed for this FeFET.
    fet_levels: Vec<u32>,
    on_masks: Vec<u64>,
    out: BTreeSet<Vec<FetRow>>,
    cap: usize,
    symmetry_break: bool,
}

impl RowSearch<'_> {
    fn column(&mut self, col: usize) -> Result<(), FeasibilityError> {
        if col == self.row.len() {
            // Normalize: a FeFET that never conducts carries no level.
            let fets: Vec<FetRow> = (0..self.k)
                .map(|f| {
                    if self.on_masks[f] == 0 {
                        FetRow::OFF
                    } else {
                        FetRow { level: self.fet_levels[f], on_mask: self.on_masks[f] }
                    }
                })
                .collect();
            if self.symmetry_break {
                let mut sorted = fets.clone();
                sorted.sort_unstable();
                if sorted != fets {
                    return Ok(());
                }
            }
            self.out.insert(fets);
            if self.out.len() > self.cap {
                return Err(FeasibilityError::RowCapExceeded {
                    row: usize::MAX, // patched by the caller
                    cap: self.cap,
                });
            }
            return Ok(());
        }
        self.fet(col, 0, self.row[col])
    }

    fn fet(&mut self, col: usize, f: usize, remaining: u32) -> Result<(), FeasibilityError> {
        if f == self.k {
            if remaining == 0 {
                return self.column(col + 1);
            }
            return Ok(());
        }
        // Prune: remaining FeFETs cannot cover the remaining sum.
        // lint:allow(cast-truncation/narrowing, reason = "k - f <= the cell size k, far below u32::MAX")
        if remaining > self.max_level * (self.k - f) as u32 {
            return Ok(());
        }
        // This FeFET OFF at this column.
        self.fet(col, f + 1, remaining)?;
        // This FeFET ON: use its fixed level, or fix a fresh one.
        if self.fet_levels[f] != 0 {
            let l = self.fet_levels[f];
            if l <= remaining {
                self.on_masks[f] |= 1 << col;
                self.fet(col, f + 1, remaining - l)?;
                self.on_masks[f] &= !(1 << col);
            }
        } else {
            for i in 0..self.levels.len() {
                let l = self.levels[i];
                if l <= remaining {
                    self.fet_levels[f] = l;
                    self.on_masks[f] |= 1 << col;
                    self.fet(col, f + 1, remaining - l)?;
                    self.on_masks[f] &= !(1 << col);
                    self.fet_levels[f] = 0;
                }
            }
        }
        Ok(())
    }
}

/// The constraint-3 CSP over per-search-line domains: one variable per
/// search line, and a chain-compatibility constraint between every pair.
pub fn chain_problem(domains: &[Vec<RowConfig>]) -> Problem<RowConfig> {
    let mut problem = Problem::new();
    let vars: Vec<_> = domains
        .iter()
        .enumerate()
        .map(|(i, d)| problem.add_variable(format!("searchline{i}"), d.clone()))
        .collect();
    for (i, &a) in vars.iter().enumerate() {
        for &b in vars.iter().skip(i + 1) {
            problem.add_binary(a, b, "chain", chain_compatible);
        }
    }
    problem
}

/// Enumerates up to `limit` complete chain-consistent solutions over a
/// feasible region that [`detect_feasibility`] returned (the paper notes
/// that replacing AC-3 with exhaustive backtracking yields *all* feasible
/// current sets; this is that mode, bounded).
///
/// # Errors
///
/// [`FeasibilityError::SearchAborted`] if the node limit is hit before any
/// solution is found.
pub fn enumerate_solutions(
    region: &FeasibleRegion,
    config: &FeasibilityConfig,
    limit: usize,
) -> Result<Vec<Vec<RowConfig>>, FeasibilityError> {
    let solver = Solver { node_limit: config.node_limit, ..Solver::new() };
    let (solutions, stats) = solver.enumerate(&chain_problem(&region.domains), limit);
    if stats.aborted && solutions.is_empty() {
        return Err(FeasibilityError::SearchAborted);
    }
    Ok(solutions)
}

/// Runs Algorithm 1: enumerate per-line candidates, prune with AC-3, and
/// extract a witness with backtracking.
///
/// `levels` is the allowed current range CR in `I_unit` multiples
/// (typically `1..=max_vds_multiple` clipped to the DM's maximum).
///
/// # Errors
///
/// Returns a [`FeasibilityError`] if an enumeration or search resource cap
/// is hit; plain infeasibility is reported through
/// [`FeasibilityOutcome::region`] being `None`.
pub fn detect_feasibility(
    dm: &DistanceMatrix,
    k: usize,
    levels: &[u32],
    config: &FeasibilityConfig,
) -> Result<FeasibilityOutcome, FeasibilityError> {
    assert!(k > 0, "cell must contain at least one FeFET");
    let mut domains = Vec::with_capacity(dm.n_search());
    for i in 0..dm.n_search() {
        let configs = enumerate_row_configs(dm.row(i), k, levels, config.row_cap, i == 0).map_err(
            |e| match e {
                FeasibilityError::RowCapExceeded { cap, .. } => {
                    FeasibilityError::RowCapExceeded { row: i, cap }
                }
                other => other,
            },
        )?;
        domains.push(configs);
    }
    let row_domain_sizes: Vec<usize> = domains.iter().map(Vec::len).collect();
    if domains.iter().any(Vec::is_empty) {
        return Ok(FeasibilityOutcome {
            k,
            row_domain_sizes,
            region: None,
            ac3_stats: Ac3Stats::default(),
            solve_stats: SolveStats::default(),
        });
    }
    // AC-3 cost is quadratic in domain size per arc; refuse problems whose
    // propagation would be intractable rather than hanging (large bit
    // widths hit this; the paper's demonstrated encodings are ≤ 2-bit).
    let mut pairwise_cost: u128 = 0;
    for i in 0..row_domain_sizes.len() {
        for j in (i + 1)..row_domain_sizes.len() {
            pairwise_cost += row_domain_sizes[i] as u128 * row_domain_sizes[j] as u128;
        }
    }
    if pairwise_cost > 500_000_000 {
        return Err(FeasibilityError::SearchAborted);
    }

    let problem = chain_problem(&domains);

    // AC-3 pass: the paper's feasibility filter.
    let mut pruned = problem.domains();
    let ac3_outcome = ac3(&problem, &mut pruned);
    let ac3_stats = ac3_outcome.stats();
    if let Ac3Outcome::WipedOut(..) = ac3_outcome {
        return Ok(FeasibilityOutcome {
            k,
            row_domain_sizes,
            region: None,
            ac3_stats,
            solve_stats: SolveStats::default(),
        });
    }

    // Witness extraction with backtracking over the pruned domains, which
    // are already arc-consistent: skip the redundant AC-3 pass.
    let solver = Solver { node_limit: config.node_limit, preprocess_ac3: false, ..Solver::new() };
    let outcome = solver.solve(&chain_problem(&pruned));
    if outcome.stats.aborted {
        return Err(FeasibilityError::SearchAborted);
    }
    let region = outcome.solution.map(|solution| FeasibleRegion { domains: pruned, solution });
    Ok(FeasibilityOutcome { k, row_domain_sizes, region, ac3_stats, solve_stats: outcome.stats })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::DistanceMetric;

    fn hamming2() -> DistanceMatrix {
        DistanceMatrix::from_metric(DistanceMetric::Hamming, 2)
    }

    #[test]
    fn row_config_current_for() {
        let cfg = RowConfig {
            fets: vec![
                FetRow { level: 1, on_mask: 0b0110 },
                FetRow { level: 2, on_mask: 0b0100 },
                FetRow::OFF,
            ],
        };
        assert_eq!(cfg.current_for(0), 0);
        assert_eq!(cfg.current_for(1), 1);
        assert_eq!(cfg.current_for(2), 3);
        assert_eq!(cfg.current_for(3), 0);
    }

    #[test]
    fn enumerated_configs_reproduce_the_row() {
        let dm = hamming2();
        for i in 0..4 {
            let configs =
                enumerate_row_configs(dm.row(i), 3, &[1, 2], 100_000, false).expect("within cap");
            assert!(!configs.is_empty(), "row {i} has no configs");
            for c in &configs {
                for j in 0..4 {
                    assert_eq!(c.current_for(j), dm.get(i, j), "row {i} col {j}");
                }
            }
        }
    }

    #[test]
    fn symmetry_breaking_shrinks_row_zero() {
        let dm = hamming2();
        let all = enumerate_row_configs(dm.row(3), 3, &[1, 2], 100_000, false).unwrap();
        let broken = enumerate_row_configs(dm.row(3), 3, &[1, 2], 100_000, true).unwrap();
        assert!(broken.len() < all.len());
        assert!(!broken.is_empty());
    }

    #[test]
    fn chain_compatibility_examples() {
        let a = RowConfig { fets: vec![FetRow { level: 1, on_mask: 0b0011 }] };
        let b = RowConfig { fets: vec![FetRow { level: 1, on_mask: 0b0111 }] };
        let c = RowConfig { fets: vec![FetRow { level: 1, on_mask: 0b0100 }] };
        assert!(chain_compatible(&a, &b)); // nested
        assert!(chain_compatible(&b, &c)); // nested
        assert!(!chain_compatible(&a, &c)); // disjoint non-empty: conflict
    }

    #[test]
    fn two_bit_hamming_feasible_with_three_fefets() {
        // The paper's Table II result: 3FeFET3R realizes 2-bit Hamming.
        let outcome = detect_feasibility(&hamming2(), 3, &[1, 2], &FeasibilityConfig::default())
            .expect("within caps");
        assert!(outcome.is_feasible(), "2-bit HD must be feasible at K = 3");
        let region = outcome.region.unwrap();
        assert_eq!(region.solution.len(), 4);
        // The witness reproduces the DM and is chain-consistent.
        let dm = hamming2();
        for (i, cfg) in region.solution.iter().enumerate() {
            for j in 0..4 {
                assert_eq!(cfg.current_for(j), dm.get(i, j));
            }
        }
        for i in 0..4 {
            for j in (i + 1)..4 {
                assert!(chain_compatible(&region.solution[i], &region.solution[j]));
            }
        }
    }

    #[test]
    fn two_bit_hamming_infeasible_with_one_fefet() {
        let outcome = detect_feasibility(&hamming2(), 1, &[1, 2], &FeasibilityConfig::default())
            .expect("within caps");
        assert!(!outcome.is_feasible(), "one FeFET cannot realize 2-bit HD");
    }

    #[test]
    fn one_bit_hamming_needs_two_fefets() {
        // A single FeFET cannot realize even 1-bit Hamming: the ON-set under
        // search 0 is {1} and under search 1 is {0}, which violates the
        // threshold-ordering chain — the same reason hardware Hamming CAMs
        // use two devices per cell.
        let dm = DistanceMatrix::from_metric(DistanceMetric::Hamming, 1);
        let k1 =
            detect_feasibility(&dm, 1, &[1], &FeasibilityConfig::default()).expect("within caps");
        assert!(!k1.is_feasible());
        let k2 =
            detect_feasibility(&dm, 2, &[1], &FeasibilityConfig::default()).expect("within caps");
        assert!(k2.is_feasible(), "the classic 2-device cell realizes 1-bit HD");
    }

    #[test]
    fn row_cap_is_reported_with_row_index() {
        let dm = hamming2();
        let err = detect_feasibility(
            &dm,
            3,
            &[1, 2],
            &FeasibilityConfig { row_cap: 2, node_limit: None },
        )
        .unwrap_err();
        match err {
            FeasibilityError::RowCapExceeded { row, cap } => {
                assert_eq!(cap, 2);
                assert!(row < 4);
            }
            other => panic!("unexpected error {other}"),
        }
    }

    #[test]
    fn feasible_region_domains_are_all_chain_supported() {
        let outcome = detect_feasibility(&hamming2(), 3, &[1, 2], &FeasibilityConfig::default())
            .expect("within caps");
        let region = outcome.region.expect("feasible");
        // Every surviving config has a chain-compatible partner in every
        // other row's domain (that is what AC-3 guarantees).
        for (i, dom) in region.domains.iter().enumerate() {
            assert!(!dom.is_empty());
            for cfg in dom {
                for (j, other) in region.domains.iter().enumerate() {
                    if i == j {
                        continue;
                    }
                    assert!(
                        other.iter().any(|o| chain_compatible(cfg, o)),
                        "row {i} config lacks support in row {j}"
                    );
                }
            }
        }
    }
}
