#![forbid(unsafe_code)]
//! # ferex-core — the reconfigurable in-memory search engine
//!
//! Reproduction of the primary contribution of *FeReX: A Reconfigurable
//! Design of Multi-bit Ferroelectric Compute-in-Memory for Nearest Neighbor
//! Search* (Xu et al., DATE 2024): a single FeFET associative-memory array
//! that is re-programmed — not re-designed — to compute Hamming, Manhattan,
//! or squared-Euclidean distances.
//!
//! The pipeline, module by module:
//!
//! 1. [`distance`], [`dm`] — build the target [`DistanceMatrix`] for a
//!    metric over b-bit symbols (paper Fig. 4(a)).
//! 2. [`decompose`] — split DM entries into per-FeFET currents
//!    (constraint 1, Fig. 4(c)).
//! 3. [`feasibility`] — Algorithm 1: per-search-line backtracking
//!    (constraint 2) plus AC-3 across lines (constraint 3), yielding the
//!    *feasible region*.
//! 4. [`encoding`] — rank-and-sort post-processing into stored `V_th`,
//!    search `V_gs` and `V_ds` assignments (Fig. 5), with exact
//!    verification against the DM.
//! 5. [`sizing`] — the minimal-K loop that discovers e.g. the 3FeFET3R cell
//!    of Table II.
//! 6. [`array`](mod@array), [`engine`] — the associative array (ideal and
//!    device-level circuit backends) and the user-facing [`Ferex`] engine
//!    with live metric reconfiguration and Fig. 6 cost reporting.
//!
//! # Quickstart
//!
//! ```
//! use ferex_core::{DistanceMetric, Ferex};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut engine = Ferex::builder()
//!     .metric(DistanceMetric::Hamming)
//!     .bits(2)
//!     .dim(4)
//!     .build()?;
//! engine.store(vec![0, 1, 2, 3])?;
//! engine.store(vec![3, 2, 1, 0])?;
//!
//! let result = engine.search(&[0, 1, 2, 2])?;
//! assert_eq!(result.nearest, 0);
//!
//! // Same array, different distance function:
//! engine.reconfigure(DistanceMetric::Manhattan)?;
//! let result = engine.search(&[0, 1, 2, 2])?;
//! assert_eq!(result.nearest, 0);
//! # Ok(())
//! # }
//! ```

pub mod array;
pub mod decompose;
pub mod distance;
pub mod dm;
pub mod encoding;
pub mod engine;
pub mod error;
pub mod feasibility;
pub mod health;
pub mod latency;
pub mod mutate;
pub mod replica;
pub mod serve;
pub mod sizing;
mod soa;
pub mod stats;
pub mod tile;
pub mod verify;

pub use array::{Backend, CircuitConfig, FerexArray, SearchOutcome};
pub use distance::DistanceMetric;
pub use dm::DistanceMatrix;
pub use encoding::{CellEncoding, EncodingLimits, SearchEncoding, StoredEncoding};
pub use engine::{sizing_for, CostReport, Ferex, FerexBuilder};
pub use error::{EncodeError, FerexError};
pub use health::{
    FaultAttribution, HealthCounters, HealthSnapshot, ProgramReport, RepairPolicy, RowHealth,
    ScrubFinding, ScrubReport,
};
pub use latency::{qln_quantile_milli, HedgePolicy, LatencyModel};
pub use mutate::{CompactionReport, MutableNode, MutationPolicy, SlotState, WearSummary};
pub use replica::{
    derive_replica_seed, replicate_backend, BreakerPolicy, BreakerState, BrownoutPolicy,
    QuorumPolicy, ReplicaNode, ReplicaPolicy, ReplicaSet, ReplicaSetStats, ReplicaStatus,
    ServeSource, ServedOutcome,
};
pub use serve::{
    Admission, Completion, CostModel, Request, ServeLoop, ServeLoopStats, ServePolicy, ShedEvent,
    ShedReason,
};
pub use stats::percentile;

pub use feasibility::{
    chain_compatible, chain_problem, detect_feasibility, enumerate_solutions, FeasibilityConfig,
    FeasibilityError, FeasibilityOutcome, FeasibleRegion, FetRow, RowConfig,
};
pub use sizing::{current_range, find_minimal_cell, SizingOptions, SizingReport};
pub use tile::TiledArray;
pub use verify::{cosimulate, CosimReport, PairMeasurement};
