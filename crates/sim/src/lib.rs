//! # bas-sim — discrete-event simulator for DVS scheduling of periodic task graphs
//!
//! This crate is the execution substrate of the reproduction: it plays the
//! role of the authors' C simulator (§5). It advances a set of periodic task
//! graphs through time on a platform of one or more DVS processing
//! elements (the paper's uniprocessor is the 1-PE instantiation), driven
//! per element by two pluggable pieces
//! exactly mirroring the paper's two-level methodology:
//!
//! * a [`FrequencyGovernor`] — computes the reference frequency `fref` at
//!   every scheduling point (release or node completion). Implementations
//!   live in `bas-dvs` (ccEDF, laEDF, no-DVS).
//! * a [`TaskPolicy`] — picks which ready node runs next. Implementations
//!   live in `bas-core` (Random, LTF, STF, pUBS; BAS-1/BAS-2 ready lists with
//!   the feasibility check).
//!
//! The engine ([`Simulation`]) is event-driven: the only scheduling points
//! are instance releases and node completions (plus battery death in
//! co-simulation). Between points it runs the chosen node at the governor's
//! `fref`, realized on the discrete operating points per `bas-cpu` (the
//! two-adjacent-frequencies scheme). Unlike its run-to-completion
//! predecessor it is a *lifecycle*: [`Simulation::step`] /
//! [`Simulation::run_until`] advance it incrementally, every transition is
//! narrated as a typed [`SimEvent`] to attached [`SimObserver`]s, and
//! [`Simulation::finish`] moves the results out. Trace recording
//! ([`TraceRecorder`]), metrics accounting ([`MetricsCollector`]) and the
//! O(1)-memory `bas-events/v2` JSONL export ([`JsonlWriter`]) are all just
//! observers of that stream; an in-memory [`trace::Trace`]'s battery-facing
//! reduction is a [`bas_battery::LoadProfile`].
//!
//! A mounted battery ([`Simulation::mount_battery`]) lives *inside* the
//! engine: it absorbs every emitted slice, can end the run, and its
//! scheduler-visible [`BatteryView`] is kept fresh on [`SimState`] — the
//! hook battery-aware governors and policies react to.
//!
//! Per the paper's workload model (§5), each node's *actual* computation is
//! sampled per instance — uniformly in 20 %–100 % of its WCET by default
//! ([`workload::UniformFraction`]) — and schedulers only learn a node's
//! actual demand when it completes (slack reclamation).
//!
//! Deadline handling: the model has deadline = period, so at most one
//! instance of a graph is ever active. If an instance is incomplete at its
//! deadline the simulator records a miss and (configurably) panics or drops
//! the stale instance. Every scheduler shipped in this workspace is proven
//! miss-free by property tests.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod calendar;
pub mod engine;
pub mod error;
pub mod event;
pub mod jsonl;
pub mod metrics;
pub mod observer;
pub mod policy;
pub mod state;
pub mod time;
pub mod trace;
pub mod traits;
pub mod types;
pub mod workload;

pub use calendar::{Calendar, CalendarEvent};
pub use engine::{DeadlineMode, SimConfig, SimOutcome, Simulation, Step};
pub use error::SimError;
pub use event::{SimEvent, SliceInfo};
pub use jsonl::{JsonlWriter, EVENTS_SCHEMA};
pub use metrics::Metrics;
pub use observer::{MetricsCollector, SimObserver, TraceRecorder};
pub use state::{BatteryView, SimState};
pub use traits::{FrequencyGovernor, MaxSpeed, TaskPolicy};
pub use types::TaskRef;
pub use workload::{
    ActualSampler, FixedFraction, FractionTable, PersistentFraction, UniformFraction, WorstCase,
};
