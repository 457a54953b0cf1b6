//! `perfbench --workload NAME --seed N --seconds S --trace 0|1 [--corrupt]`
//!
//! Runs one workload and prints, as its last stdout line, one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`. With `--trace 0`
//! the metrics are the end-to-end ones; with `--trace 1` the per-layer
//! ones. `--corrupt` alters one output before it is checked, so the checks
//! must fail (the self-test). See `README.md`.

use bas_serve::store::BlobKind;
use perfbench::common::peak_rss_mb;
use perfbench::offline::{Offline, Runner};
use perfbench::probe::{probe_scenario, probe_store, Counters};
use perfbench::report::{layer_metrics, EndToEnd, Metrics, ServeSide};
use perfbench::serve_mix::{self, Daemon, Log, Script};
use perfbench::spans::{layer_self_ms, Span, Tracer};
use perfbench::stats::median;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// `serve-mix` sets up in a row before the timed phase, at least this many
/// times and for at least [`SETUP_MIN`]; `setup_s` is the median.
const SETUP_ROUNDS: usize = 5;
/// See [`SETUP_ROUNDS`].
const SETUP_MIN: Duration = Duration::from_secs(2);
/// Offline set-up rounds: one before the timed phase, whose runner the run
/// uses, and the rest spread evenly through the phase and dropped at once;
/// `setup_s` is their median. The host slows for stretches of seconds to a
/// minute, so rounds in a row measured whichever stretch the run began in:
/// on `paper-sweep` the median of ten runs moved by +33% between two sets
/// whose `steps_per_s` moved by −2%.
const OFFLINE_SETUP_ROUNDS: usize = 9;
/// Offline ops re-checked against `Scenario::run_sweep` per run.
const SWEEP_CHECKS: usize = 4;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    corrupt: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args =
        Args { workload: String::new(), seed: 1, seconds: 10.0, trace: false, corrupt: false };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if args.seconds.is_nan() || args.seconds <= 0.0 {
                    return Err("--seconds must be positive".to_string());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--corrupt" => args.corrupt = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

/// What every workload hands back to `main`.
struct Outcome {
    metrics: Metrics,
    notes: Vec<String>,
    attempted: u64,
    failed: u64,
    digest: u64,
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload paper-sweep|big-dag|cells-trace|serve-mix --seed N --seconds S --trace 0|1 [--corrupt]");
            std::process::exit(2);
        }
    };
    let traced = Tracer::new(args.trace);
    let result = match args.workload.as_str() {
        "paper-sweep" => run_offline(Offline::PaperSweep, &args, &traced),
        "big-dag" => run_offline(Offline::BigDag, &args, &traced),
        "cells-trace" => run_offline(Offline::CellsTrace, &args, &traced),
        "serve-mix" => run_serve(&args, &traced),
        other => Err(format!("unknown workload {other:?}")),
    };
    let _ = std::fs::remove_dir_all(serve_mix::state_root());
    match result {
        Ok(out) => {
            for note in &out.notes {
                println!("{note}");
            }
            println!("output digest ({}, seed {}): {:016x}", args.workload, args.seed, out.digest);
            if args.trace {
                let path = std::path::PathBuf::from(format!(
                    "perfbench/out/spans-{}-seed{}.jsonl",
                    args.workload, args.seed
                ));
                match traced.write_jsonl(&path) {
                    Ok(n) => println!("{n} spans written to {}", path.display()),
                    Err(e) => eprintln!("perfbench: writing {}: {e}", path.display()),
                }
            }
            let correct = out.failed == 0;
            println!("{}", out.metrics.result_json(correct, out.attempted, out.failed));
            if !correct {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

/// The end-to-end metrics every workload reports besides throughput and
/// latency.
fn common_metrics(out: &mut Metrics, setup: &[f64], attempted: u64, failed: u64) {
    out.push("setup_s", median(setup), "s");
    out.push("peak_rss_mb", peak_rss_mb(), "MB");
    out.push(
        "ok_ratio",
        (attempted - failed.min(attempted)) as f64 / attempted.max(1) as f64,
        "ratio",
    );
}

/// The tracing overhead: the traced half's end-to-end metrics against the
/// untraced half's, one note per metric plus `trace.overhead_pct` on the
/// workload's throughput metric.
fn overhead(
    plain: &Metrics,
    traced: &Metrics,
    primary: &str,
    out: &mut Metrics,
    notes: &mut Vec<String>,
) {
    for (name, v, unit) in &plain.0 {
        if let Some(t) = traced.get(name) {
            notes.push(format!(
                "tracing overhead: {name} untraced {v:.4} {unit}, traced {t:.4} {unit} ({:+.2}%)",
                100.0 * (t - v) / v
            ));
        }
    }
    let (p, t) = (plain.get(primary).unwrap_or(f64::NAN), traced.get(primary).unwrap_or(f64::NAN));
    out.push("trace.overhead_pct", 100.0 * (p - t) / p, "%");
}

/// Self time per layer of the traced timed phase, one note per layer.
fn self_time_notes(spans: &[Span], notes: &mut Vec<String>) {
    let total: f64 = layer_self_ms(spans).values().sum();
    for (layer, ms) in layer_self_ms(spans) {
        notes.push(format!("self time {layer}: {ms:.2} ms ({:.1}%)", 100.0 * ms / total));
    }
}

/// Set up with `set_up` again and again (see [`SETUP_ROUNDS`]), handing
/// all but the last result to `retire` outside the timing. Returns the
/// last result and the wall time of every round.
fn set_up_rounds<T>(
    mut set_up: impl FnMut(usize) -> Result<T, String>,
    mut retire: impl FnMut(T) -> Result<(), String>,
) -> Result<(T, Vec<f64>), String> {
    let start = Instant::now();
    let mut rounds = Vec::new();
    loop {
        let t0 = Instant::now();
        let made = set_up(rounds.len())?;
        rounds.push(t0.elapsed().as_secs_f64());
        if rounds.len() >= SETUP_ROUNDS && start.elapsed() >= SETUP_MIN {
            return Ok((made, rounds));
        }
        retire(made)?;
    }
}

/// One line on the set-up rounds.
fn setup_note(rounds: &[f64]) -> String {
    let (lo, hi) = rounds.iter().fold((f64::INFINITY, 0.0f64), |(l, h), &r| (l.min(r), h.max(r)));
    format!(
        "set-up: {} rounds, median {:.4} s, range {lo:.4}..{hi:.4} s",
        rounds.len(),
        median(rounds)
    )
}

fn run_offline(kind: Offline, args: &Args, traced: &Tracer) -> Result<Outcome, String> {
    let off = Tracer::new(false);
    // Only the first round is traced, so the layer counts describe one
    // set-up. A later round builds its pool while the run's pool is alive,
    // so peak memory holds two pools.
    let t0 = Instant::now();
    let mut runner = Runner::set_up(kind, args.seed, traced)?;
    let mut setup = vec![t0.elapsed().as_secs_f64()];

    let budget =
        Duration::from_secs_f64(if args.trace { args.seconds / 2.0 } else { args.seconds });
    let slices = OFFLINE_SETUP_ROUNDS as u32;
    let mut phase = runner.timed(budget / slices, &off)?;
    for _ in 1..slices {
        let t0 = Instant::now();
        drop(Runner::set_up(kind, args.seed, &off)?);
        setup.push(t0.elapsed().as_secs_f64());
        phase.merge(runner.timed(budget / slices, &off)?);
    }
    let mut notes = vec![
        setup_note(&setup),
        format!(
            "{} ops in the pool, each run {}..{} times",
            runner.pool().len(),
            phase.op_wall.iter().map(Vec::len).min().unwrap_or(0),
            phase.op_wall.iter().map(Vec::len).max().unwrap_or(0),
        ),
    ];
    let e2e = |round: perfbench::offline::Round, notes: &mut Vec<String>| {
        let mut m = Metrics::default();
        EndToEnd {
            decisions: round.decisions,
            completed: round.ops,
            seconds: round.seconds,
            hit_ms: &round.hit_ms,
            job_ms: &round.job_ms,
        }
        .metrics(&mut m, notes);
        m
    };
    let mut metrics = e2e(runner.round(&phase), &mut notes);
    let (mut attempted, mut failed) = (phase.attempted, phase.failed);

    let mut out = Metrics::default();
    if args.trace {
        runner.rewind();
        let traced_phase = runner.timed(budget, traced)?;
        attempted += traced_phase.attempted;
        failed += traced_phase.failed;
        let traced_metrics = e2e(runner.round(&traced_phase), &mut Vec::new());
        overhead(&metrics, &traced_metrics, "steps_per_s", &mut out, &mut notes);
        self_time_notes(&traced.spans(), &mut notes);
    }
    failed += runner.verify(SWEEP_CHECKS, args.corrupt);
    let (lines, bytes) = runner.stream_totals();
    if lines > 0 {
        notes.push(format!("event stream of the pool: {lines} lines, {bytes} bytes"));
    }

    if args.trace {
        let mut counters = Counters::default();
        counters.add("workload.nodes", runner.pool().nodes() as f64);
        for sc in &runner.pool().probe {
            probe_scenario(sc, traced, &mut counters)?;
        }
        let session = serve_session(args.seed, traced)?;
        let mut layer = Metrics::default();
        layer_metrics(&traced.spans(), &counters, &session.side(), &mut layer);
        layer.0.extend(out.0);
        metrics = layer;
    } else {
        common_metrics(&mut metrics, &setup, attempted, failed);
    }
    Ok(Outcome { metrics, notes, attempted, failed, digest: runner.output_digest() })
}

/// The daemon-side measurements of a traced run.
struct Session {
    log: Log,
    stats: bas_serve::ServeStats,
    queued: Vec<f64>,
    store: [f64; 3],
}

impl Session {
    fn side(&self) -> ServeSide<'_> {
        ServeSide { log: &self.log, stats: self.stats, queued: &self.queued, store: self.store }
    }
}

/// `store` bytes, entries and hydrations from the daemon's `/v1/healthz`.
fn store_fields(addr: std::net::SocketAddr) -> Result<[f64; 3], String> {
    let resp = perfbench::client::request(addr, "GET", "/v1/healthz", b"")?;
    let text = resp.text();
    let field = |k: &str| {
        perfbench::client::json_field(&text, k)
            .and_then(|v| v.parse::<f64>().ok())
            .ok_or_else(|| format!("healthz has no store {k}: {text}"))
    };
    Ok([field("bytes")?, field("entries")?, field("hydrations")?])
}

/// Sample the daemon's queue length every millisecond until `stop`.
fn sample_queue(handle: &bas_serve::ServerHandle, stop: &AtomicBool) -> Vec<f64> {
    let mut samples = Vec::new();
    while !stop.load(Ordering::Relaxed) {
        samples.push(handle.stats().queued as f64);
        std::thread::sleep(Duration::from_millis(1));
    }
    samples
}

/// The offline workloads' daemon layers: a short session (one cold job,
/// one hit sequence, one replay, one health check) against a fresh daemon,
/// then the store probe on its state.
fn serve_session(seed: u64, tracer: &Tracer) -> Result<Session, String> {
    let bodies = Arc::new(serve_mix::bodies(seed, 4)?);
    let dir = serve_mix::state_root().join("session");
    let daemon = Daemon::start(dir.clone())?;
    let script = Script::new(bodies, daemon.addr);
    let stop = AtomicBool::new(false);
    let (log, queued) = std::thread::scope(|scope| {
        let sampler = scope.spawn(|| sample_queue(&daemon.handle, &stop));
        let log = script.each_once(1, tracer);
        stop.store(true, Ordering::Relaxed);
        (log, sampler.join().expect("sampler panicked"))
    });
    let store = store_fields(daemon.addr)?;
    let stats = daemon.stop()?;
    let served = script.take_served();
    store_probe(&dir, &served, tracer)?;
    Ok(Session { log, stats, queued, store })
}

/// Reopen `dir` and replay the served payloads through a scratch store.
fn store_probe(
    dir: &std::path::Path,
    served: &serve_mix::Served,
    tracer: &Tracer,
) -> Result<(), String> {
    let mut payloads: Vec<(String, BlobKind, Vec<u8>)> = served
        .report_payloads
        .iter()
        .map(|(d, b)| (d.clone(), BlobKind::Report, b.clone()))
        .collect();
    if let Some((d, b)) = &served.events_payload {
        payloads.push((d.clone(), BlobKind::Events, b.clone()));
    }
    probe_store(dir, &dir.with_extension("scratch"), &payloads, tracer)
}

fn run_serve(args: &Args, traced: &Tracer) -> Result<Outcome, String> {
    let off = Tracer::new(false);
    let ((daemon, script), setup) = set_up_rounds(
        |round| {
            let bodies = Arc::new(serve_mix::bodies(args.seed, serve_mix::cold_bodies())?);
            let daemon = Daemon::start(serve_mix::state_root().join(format!("round{round}")))?;
            // Warm-up: one request sequence of each kind.
            let script = Script::new(bodies, daemon.addr);
            if script.each_once(0, &off).tally.failed > 0 {
                return Err("set-up warm-up requests failed".to_string());
            }
            Ok((daemon, script))
        },
        |(daemon, _)| {
            let dir = daemon.dir.clone();
            daemon.stop()?;
            let _ = std::fs::remove_dir_all(dir);
            Ok(())
        },
    )?;
    let mut notes = vec![
        setup_note(&setup),
        format!(
            "closed loop: {} clients, one connection per request, status polled every {} ms, {} CPUs available",
            serve_mix::CLIENTS,
            serve_mix::POLL_INTERVAL.as_millis(),
            std::thread::available_parallelism().map_or(0, usize::from),
        ),
    ];

    let budget =
        Duration::from_secs_f64(if args.trace { args.seconds / 2.0 } else { args.seconds });
    let (log, elapsed) = script.closed_loop(args.seed, budget, &off);
    let mut traced_run = None;
    if args.trace {
        let stop = AtomicBool::new(false);
        let ((tlog, telapsed), queued) = std::thread::scope(|scope| {
            let sampler = scope.spawn(|| sample_queue(&daemon.handle, &stop));
            let r = script.closed_loop(args.seed, budget, traced);
            stop.store(true, Ordering::Relaxed);
            (r, sampler.join().expect("sampler panicked"))
        });
        traced_run = Some((tlog, telapsed, queued));
    }
    let store = store_fields(daemon.addr)?;
    let dir = daemon.dir.clone();
    let stats = daemon.stop()?;
    let served = script.take_served();
    let (bad, decisions) = serve_mix::verify(&script.bodies, &served, args.corrupt);
    let steps_of = |log: &Log| {
        log.cold_done.iter().map(|i| decisions.get(i).copied().unwrap_or(0)).sum::<u64>()
    };
    let e2e = |log: &Log, elapsed: Duration, notes: &mut Vec<String>| {
        let mut m = Metrics::default();
        EndToEnd {
            decisions: steps_of(log),
            completed: log.tally.attempted - log.tally.failed,
            seconds: elapsed.as_secs_f64(),
            hit_ms: &log.hit_ms,
            job_ms: &log.job_ms,
        }
        .metrics(&mut m, notes);
        m
    };
    let mut metrics = e2e(&log, elapsed, &mut notes);
    notes.push(format!(
        "requests: {} counted, {} status polls of unfinished jobs not counted, {} jobs run, {} of them resubmissions run again after the store collected them",
        log.tally.attempted,
        log.tally.polls,
        log.cold_done.len(),
        log.reruns
    ));
    let mut attempted = log.tally.attempted;
    let mut failed = log.tally.failed + bad;

    if let Some((tlog, telapsed, queued)) = traced_run {
        attempted += tlog.tally.attempted;
        failed += tlog.tally.failed;
        let mut out = Metrics::default();
        let traced_metrics = e2e(&tlog, telapsed, &mut Vec::new());
        overhead(&metrics, &traced_metrics, "req_per_s", &mut out, &mut notes);
        self_time_notes(&traced.spans(), &mut notes);
        store_probe(&dir, &served, traced)?;
        let mut counters = Counters::default();
        probe_scenario(&script.bodies[0].scenario, traced, &mut counters)?;
        let session = Session { log: tlog, stats, queued, store };
        let mut layer = Metrics::default();
        layer_metrics(&traced.spans(), &counters, &session.side(), &mut layer);
        layer.0.extend(out.0);
        metrics = layer;
    } else {
        common_metrics(&mut metrics, &setup, attempted, failed);
    }
    let _ = std::fs::remove_dir_all(&dir);
    Ok(Outcome { metrics, notes, attempted, failed, digest: serve_mix::output_digest(&served, 8) })
}
