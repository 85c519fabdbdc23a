//! The wadc benchmark: four paper-shaped workloads, end-to-end metrics
//! from an untraced pass and per-layer metrics from a traced one.
//!
//! It drives the library only through its public API, timing calls into
//! each crate from outside; see `README.md` next to this crate for the
//! workloads, the metrics and how to compare two commits.

pub mod compare;
pub mod e2e;
pub mod pins;
pub mod provenance;
pub mod reference;
pub mod replay;
pub mod report;
pub mod spans;
pub mod spec;
pub mod stats;
pub mod traced;
pub mod workload;
