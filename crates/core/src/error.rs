//! Error types of the FeReX core.

use crate::feasibility::FeasibilityError;
use std::error::Error;
use std::fmt;

/// Errors of the encoding pipeline (feasibility → voltage encoding →
/// cell sizing).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EncodeError {
    /// No chain-consistent configuration exists up to the sizing limit.
    NoFeasibleCell {
        /// Largest cell size tried.
        max_k: usize,
    },
    /// A FeFET of the solution needs more distinct threshold levels than the
    /// technology provides.
    VthLevelsExceeded {
        /// Levels the solution requires.
        needed: usize,
        /// Levels the technology offers.
        available: usize,
    },
    /// A search line needs more gate-voltage levels than the ladder offers.
    SearchLevelsExceeded {
        /// Levels the solution requires.
        needed: usize,
        /// Levels the ladder offers.
        available: usize,
    },
    /// A configuration requires a drain-voltage multiple beyond the driver.
    VdsRangeExceeded {
        /// Multiple the solution requires.
        needed: u32,
        /// Largest multiple the driver produces.
        available: u32,
    },
    /// A resource cap was hit before feasibility could be decided.
    Resource(FeasibilityError),
}

impl fmt::Display for EncodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EncodeError::NoFeasibleCell { max_k } => {
                write!(f, "no feasible cell configuration up to {max_k} FeFETs per cell")
            }
            EncodeError::VthLevelsExceeded { needed, available } => {
                write!(f, "encoding needs {needed} threshold levels, technology has {available}")
            }
            EncodeError::SearchLevelsExceeded { needed, available } => {
                write!(f, "encoding needs {needed} search levels, ladder has {available}")
            }
            EncodeError::VdsRangeExceeded { needed, available } => {
                write!(f, "encoding needs V_ds multiple {needed}, driver maxes at {available}")
            }
            EncodeError::Resource(e) => write!(f, "resource limit: {e}"),
        }
    }
}

impl Error for EncodeError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            EncodeError::Resource(e) => Some(e),
            _ => None,
        }
    }
}

impl From<FeasibilityError> for EncodeError {
    fn from(e: FeasibilityError) -> Self {
        EncodeError::Resource(e)
    }
}

/// Errors of the array / engine layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FerexError {
    /// Encoding pipeline failure.
    Encode(EncodeError),
    /// A stored or query vector has the wrong dimensionality.
    DimensionMismatch {
        /// Expected symbol count.
        expected: usize,
        /// Provided symbol count.
        got: usize,
    },
    /// A symbol value does not fit in the configured bit width.
    SymbolOutOfRange {
        /// The offending value.
        value: u32,
        /// Number of representable values.
        n_values: usize,
    },
    /// The array holds no vectors, so there is no nearest neighbor.
    Empty,
    /// A k-nearest search asked for zero rows or for more rows than are
    /// stored.
    InvalidK {
        /// The requested neighbor count.
        k: usize,
        /// Rows currently stored.
        rows: usize,
    },
    /// A stochastic backend's physical state is stale: the contents changed
    /// since the last [`program`](crate::array::FerexArray::program) call,
    /// so there are no variation samples to search against.
    NotProgrammed,
    /// Write-verify gave up on a cell and strict repair mode refused to
    /// serve the row.
    VerifyFailed {
        /// Logical row that failed verify.
        row: usize,
        /// First physical cell (column) within the row that could not be
        /// pulled into tolerance.
        cell: usize,
    },
    /// A row needed a spare but the spare pool is exhausted; the row has
    /// been excluded from search instead of remapped.
    SparesExhausted {
        /// Logical row left without a spare.
        row: usize,
        /// Size of the configured spare pool (all in use or burned).
        spares: usize,
    },
    /// The programmed encoding does not reproduce the target distance
    /// matrix at one `(search, stored)` cell — the co-simulation
    /// validation of paper Fig. 5 failed.
    EncodingMismatch {
        /// Search codeword index.
        search: usize,
        /// Stored codeword index.
        stored: usize,
        /// Distance the DM requires, in `I_unit` multiples.
        expected: u32,
        /// Distance the encoding produces.
        got: u32,
    },
    /// A self-healing or serving policy knob is out of range — the policy
    /// was rejected before it could be installed or acted on.
    InvalidPolicy {
        /// Which knob failed validation.
        what: &'static str,
    },
    /// A per-replica operation named a replica index outside the set —
    /// e.g. attaching a [`LatencyModel`](crate::latency::LatencyModel)
    /// to a replica that does not exist.
    ReplicaOutOfRange {
        /// The offending replica index.
        replica: usize,
        /// Replicas in the set.
        replicas: usize,
    },
    /// A mutation named a logical id the array does not hold.
    UnknownId {
        /// The offending logical id.
        id: u64,
    },
    /// An insert named a logical id the array already holds.
    DuplicateId {
        /// The offending logical id.
        id: u64,
    },
    /// An insert found no free slot: every physical slot is live (or the
    /// array is not in mutation mode and has no capacity to grow).
    CapacityExhausted {
        /// Fixed slot capacity of the mutation-enabled array.
        capacity: usize,
    },
}

impl fmt::Display for FerexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FerexError::Encode(e) => write!(f, "{e}"),
            FerexError::DimensionMismatch { expected, got } => {
                write!(f, "vector has {got} symbols, array is configured for {expected}")
            }
            FerexError::SymbolOutOfRange { value, n_values } => {
                write!(f, "symbol value {value} outside the {n_values} representable values")
            }
            FerexError::Empty => write!(f, "the array holds no stored vectors"),
            FerexError::InvalidK { k, rows } => {
                write!(f, "k-nearest search with k = {k} against {rows} stored rows")
            }
            FerexError::NotProgrammed => {
                write!(f, "array contents changed since the last program() call")
            }
            FerexError::VerifyFailed { row, cell } => {
                write!(f, "write-verify gave up on row {row}, cell {cell}")
            }
            FerexError::SparesExhausted { row, spares } => {
                write!(f, "row {row} needs a spare but all {spares} spare rows are in use")
            }
            FerexError::EncodingMismatch { search, stored, expected, got } => {
                write!(
                    f,
                    "encoding fails to reproduce the DM at ({search},{stored}): \
                     expected {expected} I_unit, got {got}"
                )
            }
            FerexError::InvalidPolicy { what } => {
                write!(f, "invalid policy: {what}")
            }
            FerexError::ReplicaOutOfRange { replica, replicas } => {
                write!(f, "replica {replica} outside the {replicas}-replica set")
            }
            FerexError::UnknownId { id } => {
                write!(f, "no stored vector carries logical id {id}")
            }
            FerexError::DuplicateId { id } => {
                write!(f, "logical id {id} is already stored; use update() to replace it")
            }
            FerexError::CapacityExhausted { capacity } => {
                write!(f, "all {capacity} slots are live; delete or compact before inserting")
            }
        }
    }
}

impl Error for FerexError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            FerexError::Encode(e) => Some(e),
            _ => None,
        }
    }
}

impl From<EncodeError> for FerexError {
    fn from(e: EncodeError) -> Self {
        FerexError::Encode(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_lowercase_and_informative() {
        let e = EncodeError::VthLevelsExceeded { needed: 5, available: 4 };
        assert_eq!(e.to_string(), "encoding needs 5 threshold levels, technology has 4");
        let e = FerexError::DimensionMismatch { expected: 8, got: 7 };
        assert!(e.to_string().contains("7 symbols"));
        let e = FerexError::InvalidK { k: 5, rows: 3 };
        assert!(e.to_string().contains("k = 5"));
        assert!(e.to_string().contains("3 stored rows"));
        assert!(FerexError::NotProgrammed.to_string().contains("program()"));
        let e = FerexError::VerifyFailed { row: 4, cell: 17 };
        assert_eq!(e.to_string(), "write-verify gave up on row 4, cell 17");
        let e = FerexError::SparesExhausted { row: 9, spares: 2 };
        assert!(e.to_string().contains("row 9"));
        assert!(e.to_string().contains("2 spare rows"));
        let e = FerexError::InvalidPolicy { what: "drift fraction must be positive" };
        assert_eq!(e.to_string(), "invalid policy: drift fraction must be positive");
        let e = FerexError::EncodingMismatch { search: 1, stored: 2, expected: 3, got: 4 };
        assert_eq!(
            e.to_string(),
            "encoding fails to reproduce the DM at (1,2): expected 3 I_unit, got 4"
        );
        let e = FerexError::ReplicaOutOfRange { replica: 5, replicas: 3 };
        assert_eq!(e.to_string(), "replica 5 outside the 3-replica set");
        let e = FerexError::UnknownId { id: 17 };
        assert_eq!(e.to_string(), "no stored vector carries logical id 17");
        let e = FerexError::DuplicateId { id: 17 };
        assert!(e.to_string().contains("logical id 17"));
        assert!(e.to_string().contains("update()"));
        let e = FerexError::CapacityExhausted { capacity: 8 };
        assert!(e.to_string().contains("8 slots"));
    }

    #[test]
    fn error_sources_chain() {
        let inner = FeasibilityError::SearchAborted;
        let e = EncodeError::Resource(inner);
        assert!(e.source().is_some());
        let f = FerexError::Encode(e);
        assert!(f.source().is_some());
    }
}
