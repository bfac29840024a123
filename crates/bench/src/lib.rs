//! Shared helpers for the benchmark harness.
//!
//! The actual benchmark targets live in `benches/`; this library holds the
//! parallel [`sweep::SweepEngine`] plus the workload construction helpers
//! shared between the benches and the report examples at the workspace
//! root:
//!
//! - [`sweep`] — the cartesian sweep plan/engine with semantic per-cell
//!   seeding and the versioned `BENCH_planner.json` schema, byte-identical
//!   across worker counts;
//! - [`throughput`] — the DES kernel throughput harness (ring flood and
//!   bounded election runs, in events per wall-clock second);
//! - [`workloads`] — shared scenario construction for benches and
//!   examples.
//!
//! Everything the sweep writes is part of the byte-identity surface, so
//! this crate is linted by `sb-analyze` like the sim-state crates are.

#![forbid(unsafe_code)]

pub mod sweep;
pub mod throughput;
pub mod workloads;

pub use sweep::{
    parallel_map, Family, FamilyPlan, NetworkSpec, SweepEngine, SweepPlan, SweepReport,
};
pub use throughput::{measure_election, measure_ring, run_ring, ThroughputPoint};
pub use workloads::*;
