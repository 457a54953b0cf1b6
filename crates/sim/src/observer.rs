//! Observers — the composable consumers of a simulation's event stream.
//!
//! The engine ([`crate::Simulation`]) does not buffer anything itself: trace
//! recording, metrics accounting, streaming export and any custom analysis
//! are all [`SimObserver`]s attached to the run. The two built-ins here are
//! the reference implementations:
//!
//! * [`TraceRecorder`] — accumulates the in-memory [`Trace`] (what
//!   `SimConfig::record_trace` mounts for you);
//! * [`MetricsCollector`] — folds the stream into [`Metrics`], reproducing
//!   the engine's accounting bit-for-bit (see the contract in
//!   [`crate::event`]).
//!
//! A streaming exporter lives in [`crate::jsonl`]. Writing your own observer
//! is the intended extension point — implement either hook and attach with
//! [`crate::Simulation::attach`]:
//!
//! ```
//! use bas_sim::{SimEvent, SimObserver, SimState};
//!
//! /// Counts completions per graph without retaining anything else.
//! #[derive(Default)]
//! struct CompletionCounter {
//!     completions: Vec<u64>,
//! }
//!
//! impl SimObserver for CompletionCounter {
//!     fn on_event(&mut self, _state: &SimState, event: &SimEvent) {
//!         if let SimEvent::Complete { task, .. } = event {
//!             let ix = task.graph.index();
//!             if self.completions.len() <= ix {
//!                 self.completions.resize(ix + 1, 0);
//!             }
//!             self.completions[ix] += 1;
//!         }
//!     }
//! }
//! ```

use crate::event::{SimEvent, SliceInfo};
use crate::metrics::Metrics;
use crate::state::SimState;
use crate::time;
use crate::trace::Trace;

/// A consumer of the simulation's event/slice stream.
///
/// Both hooks default to no-ops; implement the ones you need. Hooks are
/// called synchronously from the engine, in simulation order, with a state
/// view reflecting the world at the event. Observers must not assume they
/// are the only consumer — the stream is fanned out to every attachment.
pub trait SimObserver {
    /// A discrete engine transition occurred.
    fn on_event(&mut self, state: &SimState, event: &SimEvent) {
        let _ = (state, event);
    }

    /// One constant-current stretch of processor behaviour elapsed. Slices
    /// below the time resolution are delivered too (they carry accounting
    /// weight); presentation-oriented observers should skip them like
    /// [`TraceRecorder`] does.
    fn on_slice(&mut self, state: &SimState, slice: &SliceInfo) {
        let _ = (state, slice);
    }
}

impl<O: SimObserver + ?Sized> SimObserver for &mut O {
    fn on_event(&mut self, state: &SimState, event: &SimEvent) {
        (**self).on_event(state, event);
    }

    fn on_slice(&mut self, state: &SimState, slice: &SliceInfo) {
        (**self).on_slice(state, slice);
    }
}

/// Records the in-memory [`Trace`] from the slice stream — the observer
/// behind `SimConfig::record_trace`, attachable externally as well.
#[derive(Debug, Clone, Default)]
pub struct TraceRecorder {
    trace: Trace,
}

impl TraceRecorder {
    /// A recorder with an empty trace.
    pub fn new() -> Self {
        TraceRecorder { trace: Trace::new() }
    }

    /// A recorder whose trace has `pes` lanes pre-allocated (the engine
    /// sizes this from the platform so recording never grows the lane
    /// vector mid-run).
    pub fn with_lanes(pes: usize) -> Self {
        TraceRecorder { trace: Trace::with_lanes(pes) }
    }

    /// The trace recorded so far.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Take the recorded trace out. Lanes that never received a slice are
    /// trimmed from the tail, so pre-allocated and lazily-grown recorders
    /// report the same [`Trace::lane_count`].
    pub fn into_trace(mut self) -> Trace {
        self.trace.trim_trailing_empty_lanes();
        self.trace
    }
}

impl SimObserver for TraceRecorder {
    fn on_slice(&mut self, _state: &SimState, slice: &SliceInfo) {
        if !time::negligible(slice.duration) {
            self.trace.push(slice.pe, slice.to_trace_slice());
        }
    }
}

/// Folds the event/slice stream into [`Metrics`].
///
/// This is the engine's own accounting: [`crate::Simulation`] runs one
/// internally and [`crate::SimOutcome::metrics`] is its result, so an
/// externally attached collector reconstructs the outcome's metrics exactly
/// (the equivalence the observer property tests pin down).
#[derive(Debug, Clone)]
pub struct MetricsCollector {
    vbat: f64,
    metrics: Metrics,
    /// Per-graph release time of the currently active instance (indexed by
    /// `GraphId::index`), feeding the makespan accounting: a `Complete` with
    /// `instance_done` closes the span opened by the graph's `Release`.
    release_t: Vec<f64>,
}

impl MetricsCollector {
    /// A collector for a platform with battery voltage `vbat` (volts) —
    /// needed to integrate energy from the current-only slice stream.
    pub fn new(vbat: f64) -> Self {
        MetricsCollector { vbat, metrics: Metrics::default(), release_t: Vec::new() }
    }

    /// The metrics accumulated so far.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Take the accumulated metrics out.
    pub fn into_metrics(self) -> Metrics {
        self.metrics
    }
}

impl SimObserver for MetricsCollector {
    fn on_event(&mut self, _state: &SimState, event: &SimEvent) {
        match *event {
            SimEvent::Release { t, graph, .. } => {
                self.metrics.instances_released += 1;
                let ix = graph.index();
                if self.release_t.len() <= ix {
                    self.release_t.resize(ix + 1, f64::NAN);
                }
                self.release_t[ix] = t;
            }
            SimEvent::Decision { .. } => self.metrics.decisions += 1,
            SimEvent::Preempt { .. } => self.metrics.preemptions += 1,
            SimEvent::Progress { cycles, busy, .. } => {
                self.metrics.busy_time += busy;
                self.metrics.cycles_executed += cycles;
            }
            SimEvent::Complete { t, task, instance_done, .. } => {
                self.metrics.nodes_completed += 1;
                if instance_done {
                    self.metrics.instances_completed += 1;
                    if let Some(release) = self.release_t.get(task.graph.index()) {
                        if release.is_finite() {
                            self.metrics.makespan = self.metrics.makespan.max(t - release);
                        }
                    }
                }
            }
            SimEvent::DeadlineMiss { .. } => self.metrics.deadline_misses += 1,
            SimEvent::Idle { duration, .. } => self.metrics.idle_time += duration,
            SimEvent::FreqChange { .. } | SimEvent::Start { .. } | SimEvent::BatteryStep { .. } => {
            }
        }
    }

    fn on_slice(&mut self, _state: &SimState, slice: &SliceInfo) {
        // Every PE emits a slice covering each executed stretch, so wall
        // clock is counted once (PE 0's lane); charge and energy sum over
        // all PEs — the shared battery sees the summed current.
        if slice.pe == 0 {
            self.metrics.sim_time += slice.duration;
        }
        self.metrics.charge += slice.current * slice.duration;
        self.metrics.energy += slice.current * slice.duration * self.vbat;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::SliceKind;
    use crate::types::TaskRef;
    use bas_taskgraph::{GraphId, NodeId, TaskSet};

    fn task() -> TaskRef {
        TaskRef::new(GraphId::from_index(0), NodeId::from_index(0))
    }

    #[test]
    fn collector_folds_events_into_counters() {
        let state = SimState::new(TaskSet::new());
        let mut c = MetricsCollector::new(2.0);
        c.on_event(
            &state,
            &SimEvent::Release {
                t: 0.0,
                graph: GraphId::from_index(0),
                instance: 0,
                deadline: 5.0,
            },
        );
        c.on_event(&state, &SimEvent::Decision { t: 0.0, pe: 0, fref: 1.0, picked: Some(task()) });
        c.on_event(
            &state,
            &SimEvent::Progress { t: 0.0, pe: 0, task: task(), cycles: 4.0, busy: 4.0 },
        );
        c.on_event(
            &state,
            &SimEvent::Complete { t: 4.0, pe: 0, task: task(), actual: 4.0, instance_done: true },
        );
        c.on_event(&state, &SimEvent::Idle { t: 4.0, pe: 0, duration: 1.0 });
        let m = c.metrics();
        assert_eq!(m.instances_released, 1);
        assert_eq!(m.decisions, 1);
        assert_eq!(m.nodes_completed, 1);
        assert_eq!(m.instances_completed, 1);
        assert_eq!(m.busy_time, 4.0);
        assert_eq!(m.cycles_executed, 4.0);
        assert_eq!(m.idle_time, 1.0);
        assert_eq!(m.makespan, 4.0, "release at 0, instance done at 4");
    }

    #[test]
    fn makespan_is_the_worst_release_to_completion_span() {
        let state = SimState::new(TaskSet::new());
        let mut c = MetricsCollector::new(2.0);
        let g0 = GraphId::from_index(0);
        let g1 = GraphId::from_index(1);
        let t0 = TaskRef::new(g0, NodeId::from_index(0));
        let t1 = TaskRef::new(g1, NodeId::from_index(0));
        // Instance 0 of g0: span 3. An intermediate node completion
        // (instance_done: false) must not close a span.
        c.on_event(&state, &SimEvent::Release { t: 0.0, graph: g0, instance: 0, deadline: 10.0 });
        c.on_event(
            &state,
            &SimEvent::Complete { t: 2.0, pe: 0, task: t0, actual: 2.0, instance_done: false },
        );
        c.on_event(
            &state,
            &SimEvent::Complete { t: 3.0, pe: 0, task: t0, actual: 1.0, instance_done: true },
        );
        assert_eq!(c.metrics().makespan, 3.0);
        // g1 released later, finishing 5 after its own release: worst span 5,
        // measured from the *graph's* release, not g0's.
        c.on_event(&state, &SimEvent::Release { t: 10.0, graph: g1, instance: 0, deadline: 20.0 });
        c.on_event(
            &state,
            &SimEvent::Complete { t: 15.0, pe: 0, task: t1, actual: 5.0, instance_done: true },
        );
        assert_eq!(c.metrics().makespan, 5.0);
        // A later, tighter instance does not shrink the recorded worst case.
        c.on_event(&state, &SimEvent::Release { t: 20.0, graph: g0, instance: 1, deadline: 30.0 });
        c.on_event(
            &state,
            &SimEvent::Complete { t: 21.0, pe: 0, task: t0, actual: 1.0, instance_done: true },
        );
        assert_eq!(c.metrics().makespan, 5.0);
    }

    #[test]
    fn collector_integrates_slices_with_vbat() {
        let state = SimState::new(TaskSet::new());
        let mut c = MetricsCollector::new(2.0);
        c.on_slice(
            &state,
            &SliceInfo { pe: 0, start: 0.0, duration: 3.0, current: 0.5, kind: SliceKind::Idle },
        );
        let m = c.into_metrics();
        assert_eq!(m.sim_time, 3.0);
        assert_eq!(m.charge, 1.5);
        assert_eq!(m.energy, 3.0);
    }

    #[test]
    fn recorder_skips_negligible_slices_and_merges_like_the_trace() {
        let state = SimState::new(TaskSet::new());
        let mut r = TraceRecorder::new();
        r.on_slice(
            &state,
            &SliceInfo { pe: 0, start: 0.0, duration: 1.0, current: 0.5, kind: SliceKind::Idle },
        );
        // Sub-resolution slice: accounted elsewhere, not recorded.
        r.on_slice(
            &state,
            &SliceInfo { pe: 0, start: 1.0, duration: 1e-12, current: 0.5, kind: SliceKind::Idle },
        );
        r.on_slice(
            &state,
            &SliceInfo { pe: 0, start: 1.0, duration: 1.0, current: 0.5, kind: SliceKind::Idle },
        );
        let trace = r.into_trace();
        assert_eq!(trace.len(), 1, "identical neighbours merge");
        assert_eq!(trace.slices()[0].end, 2.0);
    }
}
