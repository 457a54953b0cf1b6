//! The traced run's layer probe: public calls into each layer, timed in
//! spans, on the workload's own probe scenarios. It measures what the
//! timed phase cannot separate (the mapper inside `Experiment::run`, each
//! governor, each battery model, JSONL encoding against a plain run) and
//! gives every layer a number on every workload.

use crate::common::CountingSink;
use crate::spans::Tracer;
use bas_battery::{run_profile, RunOptions};
use bas_core::{MapperKind, Report, Scenario, SchedulerSpec, Sweep};
use bas_cpu::Platform;
use bas_sim::{SimEvent, SimObserver, SimState};
use bas_taskgraph::{Mapping, TaskSet};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// The governors every set is run under, by metric name and spec label.
pub const DVS_SPECS: [(&str, &str); 7] = [
    ("dvs.edf", "EDF"),
    ("dvs.ccedf", "ccEDF"),
    ("dvs.laedf", "laEDF"),
    ("dvs.bas-1", "BAS-1"),
    ("dvs.bas-2", "BAS-2"),
    ("dvs.bas-soc", "BAS-soc"),
    ("dvs.bas-kv", "BAS-kv"),
];

/// The battery models, by span name and registry name.
pub const BATTERY_MODELS: [(&str, &str); 5] = [
    ("battery.ideal", "ideal"),
    ("battery.kibam", "kibam"),
    ("battery.stochastic", "stochastic"),
    ("battery.peukert", "peukert"),
    ("battery.diffusion", "diffusion"),
];

/// The ten `SimEvent` kinds, in declaration order.
pub const EVENT_KINDS: [&str; 10] = [
    "release",
    "freq_change",
    "decision",
    "start",
    "preempt",
    "progress",
    "complete",
    "deadline_miss",
    "idle",
    "battery_step",
];

/// Counts events by kind and keeps nothing else.
#[derive(Default)]
struct EventCounter([u64; 10]);

impl SimObserver for EventCounter {
    fn on_event(&mut self, _state: &SimState, event: &SimEvent) {
        let k = match event {
            SimEvent::Release { .. } => 0,
            SimEvent::FreqChange { .. } => 1,
            SimEvent::Decision { .. } => 2,
            SimEvent::Start { .. } => 3,
            SimEvent::Preempt { .. } => 4,
            SimEvent::Progress { .. } => 5,
            SimEvent::Complete { .. } => 6,
            SimEvent::DeadlineMiss { .. } => 7,
            SimEvent::Idle { .. } => 8,
            SimEvent::BatteryStep { .. } => 9,
        };
        self.0[k] += 1;
    }
}

/// Named counts the probe (and the workloads) add up; the per-layer report
/// divides span times by them.
#[derive(Debug, Default)]
pub struct Counters(pub BTreeMap<String, f64>);

impl Counters {
    /// Add `v` to counter `name`.
    pub fn add(&mut self, name: &str, v: f64) {
        *self.0.entry(name.to_string()).or_insert(0.0) += v;
    }

    /// Counter `name` (0 when never added to).
    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

fn ns(t: Instant) -> f64 {
    t.elapsed().as_nanos() as f64
}

/// Nodes in a task set.
pub fn nodes(set: &TaskSet) -> u64 {
    set.iter().map(|(_, g)| g.graph().node_count() as u64).sum()
}

/// The probe scenario's trial 0, ready to run under any spec.
struct Trial<'a> {
    sc: &'a Scenario,
    set: &'a TaskSet,
    platform: &'a Platform,
    seed: u64,
}

impl Trial<'_> {
    /// One run of `spec`, with an optional battery by registry name, an
    /// optional observer, and the in-memory trace when `trace` is set.
    fn run(
        &self,
        spec: SchedulerSpec,
        battery: Option<&str>,
        observer: Option<&mut dyn SimObserver>,
        trace: bool,
    ) -> Result<bas_sim::SimOutcome, String> {
        let salted = self.seed ^ bas_core::scenario::BATTERY_SEED_SALT;
        let mut cell = battery.and_then(|name| bas_battery::registry::by_name(name, salted));
        let mut experiment =
            self.sc.trial_experiment(self.set, spec, self.seed, self.platform).trace(trace);
        if let Some(cell) = cell.as_mut() {
            experiment = experiment.battery(cell.as_mut());
        }
        if let Some(observer) = observer {
            experiment = experiment.observer(observer);
        }
        experiment.run().map_err(|e| format!("{} {spec}: {e}", self.sc.name))
    }
}

/// Specs of the probe scenario's lineup the probe runs (all seven
/// governors run regardless); keeps the JSONL and report probes short.
const PROBE_SPECS: usize = 2;

/// Probe every layer below the daemon on `sc` (trial 0 under its own
/// seed, one thread, the first [`PROBE_SPECS`] specs of its lineup).
pub fn probe_scenario(sc: &Scenario, tracer: &Tracer, c: &mut Counters) -> Result<(), String> {
    let mut sc = sc.clone();
    sc.specs.truncate(PROBE_SPECS);
    sc.threads = 1;
    let sc = &sc;
    let text = sc.to_toml();
    let parsed = tracer
        .span("scenario.parse", 0, None, |_| {
            Scenario::from_toml(&text).and_then(|s| s.validate().map(|()| s))
        })
        .map_err(|e| e.to_string())?;
    tracer.span("scenario.digest", 0, None, |_| parsed.digest());

    let seed = Sweep::seed_for(sc.seed, 0);
    let set =
        tracer.span("workload.gen", 0, None, |_| sc.trial_set(seed)).map_err(|e| e.to_string())?;
    c.add("workload.nodes", nodes(&set) as f64);
    let platform = sc.build_platform().map_err(|e| e.to_string())?;

    tracer.span("mapping.map", 0, None, |_| match sc.mapper_kind() {
        MapperKind::Hetero => {
            let (latency, bps) = platform
                .interconnect()
                .map_or((0.0, f64::INFINITY), |ic| (ic.latency, ic.bytes_per_sec));
            Mapping::list_schedule_hetero(&set, &platform.fmax_per_pe(), latency, bps)
        }
        MapperKind::Weighted => Mapping::list_schedule_weighted(&set, &platform.fmax_per_pe()),
    });

    let trial = Trial { sc, set: &set, platform: &platform, seed };
    let specs = sc.parsed_specs().map_err(|e| e.to_string())?;
    let own_battery = (sc.battery != "none").then_some(sc.battery.as_str());
    let mut plain_ns = 0.0;
    let mut cell_ns = 0.0;
    for (_, spec) in &specs {
        // The engine alone: no cell, no observer.
        let t = Instant::now();
        let out = tracer.span("engine.plain", 0, None, |_| trial.run(*spec, None, None, false))?;
        plain_ns += ns(t);
        c.add("engine.plain_ns", ns(t));
        c.add("engine.runs", 1.0);
        c.add("engine.steps", out.metrics.decisions as f64);
        // Every event kind, counted, with the scenario's own cell.
        let mut counter = EventCounter::default();
        tracer.span("engine.counted", 0, None, |_| {
            trial.run(*spec, own_battery, Some(&mut counter), false)
        })?;
        for (kind, n) in EVENT_KINDS.iter().zip(counter.0) {
            c.add(&format!("engine.events.{kind}"), n as f64);
        }
        // The same run with a cell (the scenario's, else the stochastic
        // one): the battery's share of a co-simulated run.
        let t = Instant::now();
        tracer.span("engine.cell_run", 0, None, |_| {
            trial.run(*spec, Some(own_battery.unwrap_or("stochastic")), None, false)
        })?;
        cell_ns += ns(t);
    }
    c.add("battery.plain_ns", plain_ns);
    c.add("battery.cell_ns", cell_ns);

    // Every governor on the same set.
    for (name, label) in DVS_SPECS {
        let spec: SchedulerSpec = label.parse().map_err(|e| format!("{label}: {e}"))?;
        let t = Instant::now();
        let out = tracer.span(name, 0, None, |_| trial.run(spec, None, None, false))?;
        c.add(&format!("{name}.ns"), ns(t));
        c.add(&format!("{name}.steps"), out.metrics.decisions as f64);
    }

    // Every battery model on the load profile of the first spec's run.
    let traced = trial.run(specs[0].1, None, None, true)?;
    let profile = traced.trace.ok_or("traced run kept no trace")?.to_load_profile();
    c.add("battery.legs", profile.len() as f64);
    let once = RunOptions { repeat: false, ..RunOptions::default() };
    for (name, model) in BATTERY_MODELS {
        let mut cell =
            bas_battery::registry::by_name(model, seed).ok_or("unknown battery model")?;
        let t = Instant::now();
        tracer.span(name, 0, None, |_| run_profile(cell.as_mut(), &profile, once));
        c.add(&format!("{name}.ns"), ns(t));
        c.add(&format!("{name}.legs"), profile.len() as f64);
    }

    // JSONL: the trial's event stream against the same cells run plain.
    let t = Instant::now();
    let sink = tracer
        .span("jsonl.stream_events", 0, None, |_| sc.stream_events(CountingSink::default()))
        .map_err(|e| e.to_string())?;
    let stream_ns = ns(t);
    let t = Instant::now();
    for (_, spec) in &specs {
        tracer.span("engine.plain", 0, None, |_| trial.run(*spec, own_battery, None, false))?;
    }
    let same_ns = ns(t);
    c.add("jsonl.lines", sink.lines as f64);
    c.add("jsonl.bytes", sink.bytes as f64);
    c.add("jsonl.stream_ns", stream_ns);
    c.add("jsonl.plain_ns", same_ns);

    // Report: the sweep's JSON.
    let sweep = sc.run_sweep().map_err(|e| e.to_string())?;
    let json = tracer
        .span("report.json", 0, None, |_| Report::from_sweep(&sc.name, "sweep", &sweep).to_json());
    c.add("report.bytes", json.len() as f64);

    // The CLI's runner on the same scenario, no HTTP.
    tracer.span("cli.run", 0, None, |_| bas_cli::run_scenario(sc)).map_err(|e| e.to_string())?;
    Ok(())
}

/// The store layer: reopen the daemon's state directory after shutdown,
/// then replay `payloads` through a scratch store (commit each, load each).
pub fn probe_store(
    state_dir: &Path,
    scratch: &Path,
    payloads: &[(String, bas_serve::store::BlobKind, Vec<u8>)],
    tracer: &Tracer,
) -> Result<(), String> {
    use bas_serve::store::Store;
    let max = bas_serve::ServeConfig::default().state_max_bytes;
    tracer
        .span("store.open", 0, None, |_| Store::open(state_dir, max, true))
        .map_err(|e| format!("store open: {e}"))?;
    let _ = std::fs::remove_dir_all(scratch);
    let mut store = Store::open(scratch, max, true).map_err(|e| format!("scratch store: {e}"))?;
    for (digest, kind, bytes) in payloads {
        tracer
            .span("store.commit", 0, None, |_| store.commit(digest, *kind, bytes))
            .map_err(|e| format!("store commit: {e}"))?;
    }
    for (digest, kind, bytes) in payloads {
        let loaded = tracer.span("store.load", 0, None, |_| store.load(digest, *kind));
        if loaded.as_deref() != Some(bytes.as_slice()) {
            return Err(format!("store load of {digest} returned other bytes"));
        }
    }
    drop(store);
    let _ = std::fs::remove_dir_all(scratch);
    Ok(())
}
