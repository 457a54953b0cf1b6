//! # bas-workload — workloads at scale
//!
//! The paper's evaluation uses small TGFF-style graphs (5–15 nodes). This
//! crate grows the workload side of the workspace in two directions:
//!
//! * [`wfcommons`] — import **real scientific workflows** in the
//!   [WfCommons](https://wfcommons.org) JSON instance format (the lingua
//!   franca of Pegasus/Makeflow/Nextflow execution traces). Task runtimes
//!   become WCET cycles via a configurable reference speed; file payloads
//!   shared between producer and consumer become DAG edge weights in bytes,
//!   which the simulator charges as inter-PE transfer time when the
//!   endpoints map to different processing elements.
//! * [`generate`] — **big synthetic DAGs** (10³–10⁴ nodes) from three
//!   deterministic seeded families (layered, fork-join, random growth),
//!   sized far beyond the paper's sweep to exercise the engine's O(n)
//!   scheduling paths and the mapper's load balancing at scale.
//!
//! Both produce plain [`bas_taskgraph::TaskGraph`]s, so everything
//! downstream — mapping, DVS policies, battery models, the CLI — works
//! unchanged. The JSON machinery is hand-rolled ([`json`]) to keep the
//! workspace dependency-free; it is the workspace's one JSON parser, which
//! the serve daemon also uses for scenario submissions.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod generate;
pub mod json;
pub mod wfcommons;

pub use error::WorkloadError;
pub use generate::{BigDagConfig, Family, ParseFamilyError};
pub use wfcommons::{ImportConfig, WorkflowImport};
