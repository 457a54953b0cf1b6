//! The three offline workloads: `paper-sweep`, `big-dag` and `cells-trace`.
//!
//! Set-up builds a fixed pool of ops from the seed; the timed phase runs the
//! pool round-robin on one thread until the time is up. Every op is a
//! request a library caller makes: parse, validate and digest the op's
//! scenario text (the part that does not run the engine), then run it.
//! Ops repeat across rounds, so every repeat must reproduce the op's first
//! result bit for bit.

use crate::common::{derive_seed, load_scenario, metrics_bits, CountingSink, Fnv};
use crate::spans::{SpanId, Tracer};
use bas_core::{Scenario, SchedulerSpec, Sweep};
use bas_cpu::Platform;
use bas_sim::SimOutcome;
use bas_taskgraph::TaskSet;
use std::time::{Duration, Instant};

/// Which offline workload a pool is built for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Offline {
    /// The paper's lineups: `sweep.toml` and `biglittle.toml` cells.
    PaperSweep,
    /// EDF and BAS-2 on 10k-node generated DAGs at 1 and 4 unit PEs.
    BigDag,
    /// `battery-aware.toml` trials streamed as JSONL, then re-run on the
    /// diffusion cell.
    CellsTrace,
}

/// What one op does after its scenario is parsed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum OpKind {
    /// One `Experiment::run` cell with the scenario's own battery.
    Run,
    /// `stream_events` of the trial into a counting sink, then every spec
    /// of the trial re-run on the diffusion cell with no observer.
    StreamAndDiffusion,
}

/// One op of the pool.
struct Op {
    label: String,
    text: String,
    digest: String,
    set: usize,
    platform: usize,
    trial_seed: u64,
    kind: OpKind,
}

/// Everything set-up produced for an offline workload.
pub struct Pool {
    ops: Vec<Op>,
    sets: Vec<TaskSet>,
    platforms: Vec<Platform>,
    /// The first trial's scenario, which the layer probe runs.
    pub probe: Vec<Scenario>,
}

/// Trial seeds per lineup of `paper-sweep`: 240 ops.
const SWEEP_TRIALS: u64 = 24;
/// Hits asked back to back after each op.
const HITS_PER_OP: usize = 3;
/// Simulated seconds of one `paper-sweep` op. Short enough that a pool
/// round takes about half a second, so each op repeats often enough in a
/// run to meet one of the host's fast stretches.
const SWEEP_HORIZON: f64 = 250.0;
/// Trial seeds per generator family of `big-dag`.
const BIG_DAG_TRIALS: u64 = 3;
/// Simulated seconds of one `big-dag` op.
const BIG_DAG_HORIZON: f64 = 400_000.0;
/// Trial seeds of `cells-trace`.
const CELLS_TRIALS: u64 = 32;
/// Simulated seconds of one `cells-trace` op.
const CELLS_HORIZON: f64 = 150.0;

impl Offline {
    /// Set-up warms up on every this-many-th op of the pool, besides the
    /// first op of each kind. `paper-sweep` warms up on every op: its ops
    /// are a few milliseconds each and differ in size from seed to seed,
    /// so a sample of them made `setup_s` follow the seed (IQR/median 0.50
    /// over five seeds with every eighth op). `big-dag` and `cells-trace`
    /// ops take tens of milliseconds or more, so they sample.
    fn warm_up_stride(self) -> usize {
        match self {
            Offline::PaperSweep => 1,
            Offline::BigDag | Offline::CellsTrace => 8,
        }
    }
}

impl Pool {
    /// Build the pool of `workload` from `seed`: parse the scenario files,
    /// derive one scenario per op, generate every task set and build every
    /// platform.
    pub fn build(workload: Offline, seed: u64, tracer: &Tracer) -> Result<Pool, String> {
        let mut pool =
            Pool { ops: Vec::new(), sets: Vec::new(), platforms: Vec::new(), probe: Vec::new() };
        match workload {
            Offline::PaperSweep => {
                let lineups = [load_scenario("sweep")?, load_scenario("biglittle")?];
                for trial in 0..SWEEP_TRIALS {
                    for (l, base) in lineups.iter().enumerate() {
                        let mut sc = base.clone();
                        sc.seed = derive_seed(seed, (l as u64) << 32 | trial);
                        sc.horizon = SWEEP_HORIZON;
                        let pes = sc.pes;
                        pool.add_trial(sc, OpKind::Run, &[pes], tracer)?;
                    }
                }
            }
            Offline::BigDag => {
                let base = load_scenario("big-dag")?;
                for trial in 0..BIG_DAG_TRIALS {
                    for (f, family) in ["layered", "fork-join", "random"].into_iter().enumerate() {
                        let mut sc = base.clone();
                        sc.generator = family.to_string();
                        sc.seed = derive_seed(seed, (f as u64) << 32 | trial);
                        sc.horizon = BIG_DAG_HORIZON;
                        pool.add_trial(sc, OpKind::Run, &[1, 4], tracer)?;
                    }
                }
            }
            Offline::CellsTrace => {
                let base = load_scenario("battery-aware")?;
                for trial in 0..CELLS_TRIALS {
                    let mut sc = base.clone();
                    sc.seed = derive_seed(seed, trial);
                    sc.horizon = CELLS_HORIZON;
                    let pes = sc.pes;
                    pool.add_trial(sc, OpKind::StreamAndDiffusion, &[pes], tracer)?;
                }
            }
        }
        Ok(pool)
    }

    /// Add one trial of `sc` (its trial 0 under its own seed) on each
    /// platform width in `widths`: the task set, generated once, each
    /// platform, and the ops — one per spec for [`OpKind::Run`], one for the
    /// whole lineup otherwise. The set is shared across widths because a
    /// trial's set depends only on the seed and the fastest PE, which all
    /// widths of one processor preset share.
    fn add_trial(
        &mut self,
        mut sc: Scenario,
        kind: OpKind,
        widths: &[usize],
        tracer: &Tracer,
    ) -> Result<(), String> {
        sc.trials = 1;
        sc.threads = 1;
        let trial_seed = Sweep::seed_for(sc.seed, 0);
        let set = tracer
            .span("workload.gen", 0, None, |_| sc.trial_set(trial_seed))
            .map_err(|e| format!("{}: {e}", sc.name))?;
        self.sets.push(set);
        let set = self.sets.len() - 1;
        for &pes in widths {
            sc.pes = pes;
            sc.validate().map_err(|e| format!("{}: {e}", sc.name))?;
            let platform = sc.build_platform().map_err(|e| format!("{}: {e}", sc.name))?;
            self.platforms.push(platform);
            let platform = self.platforms.len() - 1;
            let lineups: Vec<Vec<String>> = match kind {
                OpKind::Run => sc.specs.iter().map(|label| vec![label.clone()]).collect(),
                OpKind::StreamAndDiffusion => vec![sc.specs.clone()],
            };
            for lineup in lineups {
                let mut op_sc = sc.clone();
                op_sc.specs = lineup;
                self.ops.push(Op {
                    label: format!("{}[{}pe]/{}", sc.name, pes, op_sc.specs.join("+")),
                    digest: op_sc.digest(),
                    text: op_sc.to_toml(),
                    set,
                    platform,
                    trial_seed,
                    kind,
                });
            }
            if self.probe.is_empty() {
                self.probe.push(sc.clone());
            }
        }
        Ok(())
    }

    /// Ops in the pool.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the pool is empty.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Nodes over every generated task set.
    pub fn nodes(&self) -> u64 {
        self.sets.iter().map(crate::probe::nodes).sum()
    }
}

/// What one op produced.
#[derive(Debug, Clone, PartialEq)]
pub struct OpResult {
    /// Scheduling decisions the op completed.
    pub decisions: u64,
    /// Fingerprint of everything the op output (metrics bits, stream hash).
    pub fingerprint: u64,
    /// The sweep-visible record of each run, for the `run_sweep` check.
    pub records: Vec<[u64; 8]>,
    /// Deadline misses over the op's runs.
    pub misses: u64,
    /// Event-stream lines and bytes written (cells-trace only).
    pub lines: u64,
    /// Event-stream bytes written (cells-trace only).
    pub bytes: u64,
}

/// The fields a sweep's `TrialRecord` keeps of one run, as bits.
fn record_bits(out: &SimOutcome) -> [u64; 8] {
    let m = &out.metrics;
    let b = out.battery.as_ref();
    [
        m.energy.to_bits(),
        m.charge.to_bits(),
        m.deadline_misses,
        m.instances_completed,
        m.makespan.to_bits(),
        b.map_or(u64::MAX, |b| b.lifetime.to_bits()),
        b.map_or(u64::MAX, |b| b.delivered_mah().to_bits()),
        b.map_or(u64::MAX, |b| u64::from(b.died)),
    ]
}

/// The same fields of a sweep's per-trial record.
fn trial_record_bits(t: &bas_core::TrialRecord) -> [u64; 8] {
    [
        t.energy.to_bits(),
        t.charge.to_bits(),
        t.deadline_misses,
        t.instances_completed,
        t.makespan.to_bits(),
        t.lifetime.map_or(u64::MAX, f64::to_bits),
        t.delivered_mah.map_or(u64::MAX, f64::to_bits),
        t.battery_died.map_or(u64::MAX, u64::from),
    ]
}

/// One scenario's cells run on the pool's set and platform, with the
/// scenario's own battery, optionally with an observer.
fn run_cell(
    sc: &Scenario,
    spec: SchedulerSpec,
    set: &TaskSet,
    platform: &Platform,
    trial_seed: u64,
) -> Result<SimOutcome, String> {
    let mut cell = sc.build_battery(trial_seed);
    let mut experiment = sc.trial_experiment(set, spec, trial_seed, platform);
    if let Some(cell) = cell.as_mut() {
        experiment = experiment.battery(cell.as_mut());
    }
    experiment.run().map_err(|e| e.to_string())
}

/// Results and timings of one timed phase, on the wall clock.
#[derive(Debug, Default)]
pub struct Phase {
    /// Requests attempted: ops and hits.
    pub attempted: u64,
    /// Requests that failed or failed a check.
    pub failed: u64,
    /// Wall time of every passing run of each op, by pool index.
    pub op_wall: Vec<Vec<Duration>>,
    /// Wall time of every answered hit on each op, by pool index.
    pub hit_wall: Vec<Vec<Duration>>,
}

impl Phase {
    /// Add the runs of `other`, a later phase of the same pool.
    pub fn merge(&mut self, other: Phase) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for (mine, theirs) in self
            .op_wall
            .iter_mut()
            .zip(other.op_wall)
            .chain(self.hit_wall.iter_mut().zip(other.hit_wall))
        {
            mine.extend(theirs);
        }
    }
}

/// A timed phase reduced to one pool round in which every op takes its
/// fastest time over the phase. The host slows for stretches of seconds
/// to a minute, by as much as 1.8×; a stretch longer than one pool round
/// lands on every repeat of an op, so medians follow it, while each op's
/// fastest repeat comes from the fastest stretch of the run. Hits are not
/// part of the round: they only give the hit latency.
#[derive(Debug, Default)]
pub struct Round {
    /// Decisions of the ops that ran.
    pub decisions: u64,
    /// Ops that ran.
    pub ops: u64,
    /// Length of the round (the ops' fastest times), seconds.
    pub seconds: f64,
    /// Fastest time of each op that ran, ms.
    pub job_ms: Vec<f64>,
    /// Fastest time of a hit on each op that was asked again, ms.
    pub hit_ms: Vec<f64>,
}

fn fastest_ms(samples: &[Duration]) -> Option<f64> {
    samples.iter().min().map(|d| d.as_secs_f64() * 1e3)
}

/// Owns the pool, runs it, and remembers each op's first result.
pub struct Runner {
    pool: Pool,
    cursor: usize,
    first: Vec<Option<OpResult>>,
}

impl Runner {
    /// Set up `kind` from `seed`: build the pool, then warm up on it.
    pub fn set_up(kind: Offline, seed: u64, tracer: &Tracer) -> Result<Runner, String> {
        let pool = Pool::build(kind, seed, tracer)?;
        let first = vec![None; pool.ops.len()];
        let mut runner = Runner { pool, cursor: 0, first };
        runner.warm_up(kind.warm_up_stride(), tracer)?;
        Ok(runner)
    }

    /// The pool.
    pub fn pool(&self) -> &Pool {
        &self.pool
    }

    /// Set-up's warm-up, outside any timing: the first op of each kind
    /// (platform width × op kind) and every `stride`-th op,
    /// checked like any other op. One op's time depends on its task set,
    /// so a warm-up of one op per kind would make set-up time follow the
    /// seed; the stride spreads it over several task sets.
    fn warm_up(&mut self, stride: usize, tracer: &Tracer) -> Result<(), String> {
        let mut kinds = Vec::new();
        for i in 0..self.pool.ops.len() {
            let op = &self.pool.ops[i];
            let kind = (self.pool.platforms[op.platform].len(), op.kind);
            let first_of_kind = !kinds.contains(&kind);
            if first_of_kind {
                kinds.push(kind);
            }
            if first_of_kind || i % stride == 0 {
                let sc = self.front_half(i, tracer, None)?;
                let result = self.run_op(i, sc, tracer, None)?;
                self.accept(i, result)?;
            }
        }
        Ok(())
    }

    /// Start the next timed phase from the first op again, so two phases
    /// of equal length run the same ops.
    pub fn rewind(&mut self) {
        self.cursor = 0;
    }

    /// Run ops round-robin for `budget`, each followed by [`HITS_PER_OP`]
    /// hits on the op half a pool back. The phase runs at least one full
    /// round, so every op has a time.
    pub fn timed(&mut self, budget: Duration, tracer: &Tracer) -> Result<Phase, String> {
        let n = self.pool.ops.len();
        let mut phase = Phase {
            op_wall: vec![Vec::new(); n],
            hit_wall: vec![Vec::new(); n],
            ..Phase::default()
        };
        let start = Instant::now();
        let first_round_ends = self.cursor + n;
        while start.elapsed() < budget || self.cursor < first_round_ends {
            let i = self.cursor % n;
            self.cursor += 1;
            phase.attempted += 1;
            let t0 = Instant::now();
            let outcome = tracer.span("op.offline", self.cursor as u64, None, |parent| {
                let sc = self.front_half(i, tracer, parent)?;
                self.run_op(i, sc, tracer, parent)
            });
            let job = t0.elapsed();
            match outcome.and_then(|result| self.accept(i, result)) {
                Ok(()) => phase.op_wall[i].push(job),
                Err(e) => {
                    eprintln!("op {} failed: {e}", self.pool.ops[i].label);
                    phase.failed += 1;
                }
            }
            for _ in 0..HITS_PER_OP {
                self.hit((i + n / 2) % n, tracer, &mut phase);
            }
        }
        Ok(phase)
    }

    /// `phase` as one round at fastest times; see [`Round`].
    pub fn round(&self, phase: &Phase) -> Round {
        let mut round = Round::default();
        for (i, first) in self.first.iter().enumerate() {
            let (Some(first), Some(job)) = (first, fastest_ms(&phase.op_wall[i])) else { continue };
            round.decisions += first.decisions;
            round.ops += 1;
            round.seconds += job / 1e3;
            round.job_ms.push(job);
            if let Some(hit) = fastest_ms(&phase.hit_wall[i]) {
                round.hit_ms.push(hit);
            }
        }
        round
    }

    /// A hit on op `i`, once it has a result: ask for the op again and
    /// answer from the result already held — parse, validate and digest its
    /// scenario and find its first result.
    fn hit(&self, i: usize, tracer: &Tracer, phase: &mut Phase) {
        if self.first[i].is_none() {
            return;
        }
        let t0 = Instant::now();
        let answered = self.front_half(i, tracer, None).is_ok();
        let took = t0.elapsed();
        phase.attempted += 1;
        if answered {
            phase.hit_wall[i].push(took);
        } else {
            eprintln!("hit on op {} was not answered", self.pool.ops[i].label);
            phase.failed += 1;
        }
    }

    /// Parse, validate and digest op `i`'s scenario: the part of an op
    /// that does not run the engine.
    fn front_half(
        &self,
        i: usize,
        tracer: &Tracer,
        parent: Option<SpanId>,
    ) -> Result<Scenario, String> {
        let op = &self.pool.ops[i];
        let sc = tracer.span("scenario.parse", 0, parent, |_| {
            Scenario::from_toml(&op.text).and_then(|sc| sc.validate().map(|()| sc))
        });
        let sc = sc.map_err(|e| format!("{}: {e}", op.label))?;
        let digest = tracer.span("scenario.digest", 0, parent, |_| sc.digest());
        if digest != op.digest {
            return Err(format!("{}: digest {digest} != {}", op.label, op.digest));
        }
        Ok(sc)
    }

    /// Run op `i` on its parsed scenario and return its result.
    fn run_op(
        &self,
        i: usize,
        sc: Scenario,
        tracer: &Tracer,
        parent: Option<SpanId>,
    ) -> Result<OpResult, String> {
        let op = &self.pool.ops[i];
        let set = &self.pool.sets[op.set];
        let platform = &self.pool.platforms[op.platform];
        let specs = sc.parsed_specs().map_err(|e| e.to_string())?;
        let mut fp = Fnv::default();
        let mut result = OpResult {
            decisions: 0,
            fingerprint: 0,
            records: Vec::new(),
            misses: 0,
            lines: 0,
            bytes: 0,
        };
        let mut run_sc = sc;
        if op.kind == OpKind::StreamAndDiffusion {
            let sink = tracer
                .span("jsonl.stream_events", 0, parent, |_| {
                    run_sc.stream_events(CountingSink::default())
                })
                .map_err(|e| format!("{}: {e}", op.label))?;
            result.decisions += sink.decisions;
            result.lines = sink.lines;
            result.bytes = sink.bytes;
            fp.word(sink.hash.0);
            fp.word(sink.lines);
            run_sc.battery = "diffusion".to_string();
        }
        for (label, spec) in specs {
            let out = tracer
                .span("engine.run", 0, parent, |_| {
                    run_cell(&run_sc, spec, set, platform, op.trial_seed)
                })
                .map_err(|e| format!("{} {label}: {e}", op.label))?;
            result.decisions += out.metrics.decisions;
            result.misses += out.metrics.deadline_misses;
            for w in metrics_bits(&out.metrics) {
                fp.word(w);
            }
            result.records.push(record_bits(&out));
        }
        result.fingerprint = fp.0;
        Ok(result)
    }

    /// Check `result` against op `i`'s first result (or make it the first).
    fn accept(&mut self, i: usize, result: OpResult) -> Result<(), String> {
        let op = &self.pool.ops[i];
        if result.misses != 0 {
            return Err(format!(
                "{}: {} deadline misses in a miss-free configuration",
                op.label, result.misses
            ));
        }
        match &self.first[i] {
            Some(first) if *first != result => {
                Err(format!("{}: result differs from the op's first run", op.label))
            }
            Some(_) => Ok(()),
            None => {
                self.first[i] = Some(result);
                Ok(())
            }
        }
    }

    /// The output checks that need more than one run: for a sample of
    /// ops, `Scenario::run_sweep` on one thread must reproduce the op's
    /// records bit for bit. `corrupt` flips one bit of the first sampled
    /// record first (the self-test). Returns the ops that failed.
    pub fn verify(&mut self, sample: usize, corrupt: bool) -> u64 {
        let mut failed = 0;
        let mut corrupt = corrupt;
        let step = (self.pool.ops.len() / sample.max(1)).max(1);
        for i in (0..self.pool.ops.len()).step_by(step).take(sample) {
            let op = &self.pool.ops[i];
            let Some(first) = self.first[i].as_mut() else { continue };
            if corrupt {
                first.records[0][0] ^= 1;
                corrupt = false;
            }
            let check = || -> Result<(), String> {
                let mut sc = Scenario::from_toml(&op.text).map_err(|e| e.to_string())?;
                if op.kind == OpKind::StreamAndDiffusion {
                    sc.battery = "diffusion".to_string();
                }
                let sweep = sc.run_sweep().map_err(|e| e.to_string())?;
                let swept: Vec<[u64; 8]> =
                    sweep.specs.iter().map(|s| trial_record_bits(&s.trials[0])).collect();
                if swept != first.records {
                    return Err(format!("{}: run_sweep disagrees with the op's result", op.label));
                }
                Ok(())
            };
            if let Err(e) = check() {
                eprintln!("check failed: {e}");
                failed += 1;
            }
        }
        failed
    }

    /// Digest of every op's first result, in pool order: the same for a
    /// seed on any machine, whatever the timing.
    pub fn output_digest(&self) -> u64 {
        let mut h = Fnv::default();
        for r in self.first.iter().flatten() {
            h.word(r.fingerprint);
        }
        h.0
    }

    /// Event-stream lines and bytes of the first results (cells-trace).
    pub fn stream_totals(&self) -> (u64, u64) {
        self.first.iter().flatten().fold((0, 0), |(l, b), r| (l + r.lines, b + r.bytes))
    }
}
