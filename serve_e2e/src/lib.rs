#![forbid(unsafe_code)]
//! # ferex-serve-e2e — end-to-end and per-layer serving benchmark
//!
//! Drives seeded closed-loop workloads through the public
//! `ServeLoop` → `ReplicaSet` → `FerexArray` stack and measures host wall
//! time: end to end (from `submit` to the `poll` that completes a
//! request) in untraced runs, and split across layers in traced runs,
//! where every poll and mutation is replayed on twin clones. Every Ideal
//! answer is checked against the exact digital oracle. See `README.md`
//! for the workloads, metrics and method.

pub mod inputs;
pub mod report;
pub mod trace;
pub mod workload;
