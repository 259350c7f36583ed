#![forbid(unsafe_code)]
//! # ferex-conformance — golden-model differential conformance harness
//!
//! The correctness backbone of the stack: every backend, fault regime and
//! serving path is checked against a pure-digital reference before any
//! scaling work trusts it. Three layers:
//!
//! 1. [`oracle`] — an exact digital nearest-neighbor reference over any
//!    stored matrix, with the same deterministic tie policy as the analog
//!    sensing chain (lowest row index wins).
//! 2. [`harness`] — generators sweeping {metric × bits × backend ×
//!    batch-vs-sequential × fault plan}: bit-exact Ideal agreement,
//!    statistical-vs-device divergence tolerances, and recall degradation
//!    curves under rising fault rates.
//! 3. [`report`] — the machine-readable reports, serialized through the one
//!    JSON writer [`json`] (the vendored `serde` is an inert stub), consumed
//!    by `ferex-bench`'s `robustness` binary and archived by CI.
//! 4. [`chaos`] and [`load`] — deterministic serving soaks: replicated
//!    serving under faults/kills/scrubs, and the virtual-time load
//!    simulator driving the adaptive batch-forming loop with seeded
//!    open/closed-loop arrivals and exact latency distributions.
//!
//! The contract every sweep asserts:
//!
//! * **(a)** the Ideal backend is *bit-exact* against the oracle for every
//!   metric, bit width, and serving path;
//! * **(b)** the statistical (`Noisy`) and device-level (`Circuit`)
//!   backends agree with each other within stated tolerances on identical
//!   fault maps;
//! * **(c)** accuracy (recall@1 / recall@k) degrades monotonically — within
//!   a stated sampling slack — as fault rates rise, reproducibly from a
//!   seed.

pub mod chaos;
pub mod harness;
pub mod json;
pub mod load;
pub mod mutation;
pub mod oracle;
pub mod report;

pub use chaos::{run_chaos, standard_chaos_report, standard_chaos_specs, ChaosSpec};
pub use harness::{
    run_recovery, run_sweep, standard_recovery_report, standard_recovery_specs, standard_report,
    standard_specs, BackendKind, FaultKind, SweepSpec,
};
pub use load::{
    percentile, run_load, run_load_detailed, run_load_v2, standard_load_report,
    standard_load_specs, standard_load_v2_report, standard_load_v2_specs, ArrivalModel,
    BurstWindow, LoadDetail, LoadSpec,
};
pub use mutation::{
    run_churn_soak, run_mutation, standard_mutation_report, standard_mutation_specs, MutationSpec,
};
pub use oracle::Oracle;
pub use report::{
    ChaosCurve, ChaosPoint, ChaosReport, ChurnSoak, ConformanceReport, CurvePoint,
    DegradationCurve, LoadReport, LoadScenario, LoadV2Replica, LoadV2Report, LoadV2Scenario,
    MutationReport, MutationScenario, RecoveryCurve, RecoveryPoint, RecoveryReport, WearRow,
};
