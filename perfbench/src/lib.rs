//! End-to-end and per-layer benchmark of the battery-aware scheduling
//! workspace. The binary (`src/main.rs`) drives the workspace crates only
//! through their public functions; see `README.md` for the metrics and
//! workloads.

pub mod client;
pub mod common;
pub mod offline;
pub mod probe;
pub mod report;
pub mod serve_mix;
pub mod spans;
pub mod stats;
