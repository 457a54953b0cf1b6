//! The `serve-mix` workload: an in-process `bas serve` daemon with the full
//! CLI backend and a store in a scratch state directory, driven over real
//! TCP by a closed loop of client threads that each wait for every reply.

use crate::client::{json_field, request, Response};
use crate::common::{derive_seed, load_scenario, CountingSink, Fnv};
use crate::spans::{SpanId, Tracer};
use bas_core::{Scenario, Sweep};
use bas_serve::{ServeConfig, ServeStats, Server, ServerHandle};
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Client threads of the closed loop. Two: with one, the hit latency tail
/// was set by the rare late wake-ups of the daemon's accept loop and
/// swung with the host (IQR/median 0.41 over ten 50 s runs); with two,
/// requests that meet in one accept tick set it, which they do often.
pub const CLIENTS: usize = 2;
/// Wait between status polls of a cold job.
pub const POLL_INTERVAL: Duration = Duration::from_millis(5);
/// Resubmissions draw from the most recently finished jobs, this many
/// times as many as the daemon's default result cache holds, so some are
/// read back from its store. The store's default byte budget holds about
/// as many jobs as the cache, so some others have been collected and run
/// again.
const WORKING_SET_PER_CACHE: f64 = 1.5;
/// Distinct cold scenarios prepared per run; more than a run can submit.
const COLD_BODIES: usize = 1000;
/// Simulated seconds of every cold scenario. Kept to a minute and a half:
/// at a few hundred seconds the store's fsync of each 3–5 MB event blob
/// dominated a cold job and varied ±20% from run to run. One horizon for
/// all, so the job latency tail is not set by which sizes overlapped.
const HORIZON: f64 = 90.0;
/// Trials per cold scenario.
const TRIALS: usize = 3;

/// One prepared cold submission.
pub struct Body {
    /// The scenario it encodes.
    pub scenario: Scenario,
    /// The TOML sent as the request body.
    pub text: String,
    /// `Scenario::digest` of it.
    pub digest: String,
}

/// Seeded variants of `battery-aware.toml` at [`HORIZON`] simulated
/// seconds.
pub fn bodies(seed: u64, count: usize) -> Result<Vec<Body>, String> {
    let base = load_scenario("battery-aware")?;
    (0..count)
        .map(|i| {
            let mut sc = base.clone();
            sc.seed = derive_seed(seed, 1 << 40 | i as u64);
            sc.horizon = HORIZON;
            sc.trials = TRIALS;
            sc.validate().map_err(|e| e.to_string())?;
            Ok(Body { text: sc.to_toml(), digest: sc.digest(), scenario: sc })
        })
        .collect()
}

/// A running in-process daemon.
pub struct Daemon {
    /// Its bound address.
    pub addr: SocketAddr,
    /// Its remote control.
    pub handle: ServerHandle,
    /// Its state directory.
    pub dir: PathBuf,
    thread: std::thread::JoinHandle<std::io::Result<()>>,
}

impl Daemon {
    /// Start a daemon with the default settings on an ephemeral port, with
    /// a fresh store in `dir` and no access log.
    pub fn start(dir: PathBuf) -> Result<Daemon, String> {
        let _ = std::fs::remove_dir_all(&dir);
        let config = ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            state_dir: Some(dir.clone()),
            quiet: true,
            ..ServeConfig::default()
        };
        let server = Server::bind(config, Arc::new(bas_cli::serve::CliService))
            .map_err(|e| format!("bind: {e}"))?;
        let addr = server.local_addr().map_err(|e| e.to_string())?;
        let handle = server.handle();
        let thread = std::thread::spawn(move || server.run());
        Ok(Daemon { addr, handle, dir, thread })
    }

    /// Drain and stop the daemon; returns its final counters.
    pub fn stop(self) -> Result<ServeStats, String> {
        self.handle.shutdown();
        self.thread
            .join()
            .map_err(|_| "daemon thread panicked".to_string())?
            .map_err(|e| format!("daemon: {e}"))?;
        Ok(self.handle.stats())
    }
}

/// A scripted request, as the throughput count sees it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Req {
    /// `POST /v1/jobs`.
    Submit,
    /// `GET /v1/jobs/<id>`; `finished` says whether the job was done.
    Status {
        /// The job had finished when the status was read.
        finished: bool,
    },
    /// `GET /v1/jobs/<id>/report`.
    Report,
    /// `GET /v1/jobs/<id>/events`.
    Events,
    /// `GET /v1/healthz`.
    Healthz,
}

impl Req {
    /// Whether the request counts toward `req_per_s`. Polls of unfinished
    /// jobs do not: a slower job would otherwise raise the rate.
    pub fn counts(self) -> bool {
        !matches!(self, Req::Status { finished: false })
    }

    fn route(self) -> &'static str {
        match self {
            Req::Submit => "submit",
            Req::Status { .. } => "status",
            Req::Report => "report",
            Req::Events => "events",
            Req::Healthz => "healthz",
        }
    }

    fn span(self) -> &'static str {
        match self {
            Req::Submit => "http.submit",
            Req::Status { .. } => "http.status",
            Req::Report => "http.report",
            Req::Events => "http.events",
            Req::Healthz => "http.healthz",
        }
    }
}

/// Counted requests of a phase: what `req_per_s` and `ok_ratio` read.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    /// Counted requests attempted.
    pub attempted: u64,
    /// Counted requests that failed or failed a check.
    pub failed: u64,
    /// Polls of unfinished jobs (not counted).
    pub polls: u64,
}

impl Tally {
    /// Record one request and whether it succeeded.
    pub fn record(&mut self, req: Req, ok: bool) {
        if !req.counts() {
            self.polls += 1;
            if !ok {
                self.failed += 1;
                self.attempted += 1;
            }
            return;
        }
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Counted requests completed per second of `elapsed`.
    pub fn per_second(&self, elapsed: Duration) -> f64 {
        (self.attempted - self.failed) as f64 / elapsed.as_secs_f64()
    }

    fn merge(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.polls += other.polls;
    }
}

/// What one client (or all clients of a phase) measured.
#[derive(Debug, Default, Clone)]
pub struct Log {
    /// Requests counted toward throughput.
    pub tally: Tally,
    /// Latency of requests answered without running the engine, ms.
    pub hit_ms: Vec<f64>,
    /// Cold submission until report bytes, ms.
    pub job_ms: Vec<f64>,
    /// Cold submission until the first `running` status, ms.
    pub job_wait_ms: Vec<f64>,
    /// Per-route request latency, ms.
    pub route_ms: BTreeMap<&'static str, Vec<f64>>,
    /// `connect` time of every request, µs.
    pub connect_us: Vec<f64>,
    /// Responses outside 2xx.
    pub non2xx: u64,
    /// Body indices of jobs the daemon ran to the end in this phase: cold
    /// jobs, and resubmissions it ran again.
    pub cold_done: Vec<usize>,
    /// Resubmissions the daemon ran again because its store had collected
    /// their result to stay within its byte budget.
    pub reruns: u64,
}

impl Log {
    fn merge(&mut self, other: Log) {
        self.tally.merge(&other.tally);
        self.hit_ms.extend(other.hit_ms);
        self.job_ms.extend(other.job_ms);
        self.job_wait_ms.extend(other.job_wait_ms);
        for (route, v) in other.route_ms {
            self.route_ms.entry(route).or_default().extend(v);
        }
        self.connect_us.extend(other.connect_us);
        self.non2xx += other.non2xx;
        self.cold_done.extend(other.cold_done);
        self.reruns += other.reruns;
    }
}

/// Served bytes the output checks compare against local runs.
#[derive(Default)]
pub struct Served {
    /// Body index → (FNV, length) of its served report.
    pub reports: BTreeMap<usize, (u64, usize)>,
    /// Body index → (FNV, length) of its served event replay.
    pub events: BTreeMap<usize, (u64, usize)>,
    /// Raw payloads of the first few reports, for the store probe.
    pub report_payloads: Vec<(String, Vec<u8>)>,
    /// Raw payload of the first event replay, for the store probe.
    pub events_payload: Option<(String, Vec<u8>)>,
    /// Served-bytes mismatches found while the run measured.
    pub mismatches: u64,
}

/// State the client threads share; it outlives a phase, so later phases
/// resubmit jobs finished in earlier ones.
pub struct Script {
    /// The prepared cold submissions.
    pub bodies: Arc<Vec<Body>>,
    addr: SocketAddr,
    next_cold: AtomicUsize,
    done: Mutex<Vec<usize>>,
    served: Mutex<Served>,
}

/// What a client does next.
#[derive(Debug, Clone, Copy)]
enum Action {
    Cold,
    Hit,
    Replay,
    Health,
}

/// Each client steps through these actions in turn. Nothing records how
/// callers use the daemon, so the mix is uniform over the actions (an
/// assumption). A fixed order, rather than a random draw, keeps the number
/// of cold jobs in a run from moving with the seed.
const ACTIONS: [Action; 4] = [Action::Cold, Action::Hit, Action::Replay, Action::Health];

impl Script {
    /// A script over `bodies` against the daemon at `addr`.
    pub fn new(bodies: Arc<Vec<Body>>, addr: SocketAddr) -> Script {
        Script {
            bodies,
            addr,
            next_cold: AtomicUsize::new(0),
            done: Mutex::new(Vec::new()),
            served: Mutex::new(Served::default()),
        }
    }

    /// Run the closed loop for `budget` with [`CLIENTS`] threads, each
    /// seeded from `seed`. Returns the merged log and the phase's length.
    pub fn closed_loop(&self, seed: u64, budget: Duration, tracer: &Tracer) -> (Log, Duration) {
        let start = Instant::now();
        let deadline = start + budget;
        let logs: Vec<Log> = std::thread::scope(|scope| {
            let clients: Vec<_> = (0..CLIENTS)
                .map(|c| {
                    scope.spawn(move || {
                        let mut rng = derive_seed(seed, 7 << 40 | c as u64);
                        let mut log = Log::default();
                        let mut op = (c as u64) << 48;
                        // Client c starts half a turn after client c - 1, so
                        // their cold jobs do not start together.
                        let mut step = c * ACTIONS.len() / 2;
                        while Instant::now() < deadline {
                            op += 1;
                            let action = ACTIONS[step % ACTIONS.len()];
                            step += 1;
                            self.act(tracer, action, &mut rng, op, &mut log);
                        }
                        log
                    })
                })
                .collect();
            clients.into_iter().map(|c| c.join().expect("client thread panicked")).collect()
        });
        let elapsed = start.elapsed();
        let mut log = Log::default();
        for l in logs {
            log.merge(l);
        }
        (log, elapsed)
    }

    /// One cold job, one hit sequence, one replay and one health check,
    /// run once each on the calling thread (set-up's warm-up and the layer
    /// probe's session).
    pub fn each_once(&self, op: u64, tracer: &Tracer) -> Log {
        let mut log = Log::default();
        let mut rng = op;
        for action in ACTIONS {
            self.act(tracer, action, &mut rng, op, &mut log);
        }
        log
    }

    fn act(&self, tracer: &Tracer, action: Action, rng: &mut u64, op: u64, log: &mut Log) {
        let finished: Option<usize> = {
            let done = self.done.lock().expect("done list poisoned");
            (!done.is_empty()).then(|| {
                *rng = derive_seed(*rng, 1);
                let cache = ServeConfig::default().cache_capacity as f64;
                let window = done.len().min((cache * WORKING_SET_PER_CACHE) as usize);
                done[done.len() - 1 - (*rng as usize % window)]
            })
        };
        let t = tracer;
        match (action, finished) {
            (Action::Cold, _) => {
                t.span("op.cold_job", op, None, |p| self.cold_job(t, p, op, log));
            }
            (Action::Hit, Some(j)) => t.span("op.hit", op, None, |p| self.hit(t, j, p, op, log)),
            (Action::Replay, Some(j)) => {
                t.span("op.replay", op, None, |p| self.replay(t, j, p, op, log))
            }
            (Action::Health, _) | (Action::Hit | Action::Replay, None) => {
                t.span("op.health", op, None, |p| {
                    let (ok, ms, _) =
                        self.send(t, Req::Healthz, "GET", "/v1/healthz", b"", p, op, log);
                    if ok {
                        log.hit_ms.push(ms);
                    }
                })
            }
        }
    }

    /// Send one request, record it in `log`, and return (ok, ms, response).
    #[allow(clippy::too_many_arguments)]
    fn send(
        &self,
        tracer: &Tracer,
        req: Req,
        method: &str,
        path: &str,
        body: &[u8],
        parent: Option<SpanId>,
        op: u64,
        log: &mut Log,
    ) -> (bool, f64, Option<Response>) {
        let t0 = Instant::now();
        let result =
            tracer.span(req.span(), op, parent, |_| request(self.addr, method, path, body));
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        match result {
            Ok(resp) => {
                let ok = (200..300).contains(&resp.status);
                if !ok {
                    log.non2xx += 1;
                    eprintln!("{method} {path} -> {}: {}", resp.status, resp.text().trim());
                }
                log.route_ms.entry(req.route()).or_default().push(ms);
                log.connect_us.push(resp.connect_us);
                let req = match req {
                    Req::Status { .. } => Req::Status {
                        finished: json_field(&resp.text(), "status")
                            .is_some_and(|s| s == "done" || s == "failed"),
                    },
                    other => other,
                };
                log.tally.record(req, ok);
                (ok, ms, Some(resp))
            }
            Err(e) => {
                eprintln!("{e}");
                log.tally.record(req, false);
                (false, ms, None)
            }
        }
    }

    /// Mark a counted request that passed its status but failed a check.
    fn fail_check(log: &mut Log, what: &str) {
        eprintln!("check failed: {what}");
        log.tally.failed += 1;
    }

    fn job_id(resp: &Response) -> Option<u64> {
        json_field(&resp.text(), "job").and_then(|id| id.parse().ok())
    }

    /// Submit the next unused cold body and wait for its report.
    fn cold_job(&self, t: &Tracer, parent: Option<SpanId>, op: u64, log: &mut Log) {
        let i = self.next_cold.fetch_add(1, Ordering::Relaxed);
        let Some(body) = self.bodies.get(i) else {
            Self::fail_check(log, "ran out of cold scenarios");
            return;
        };
        let t0 = Instant::now();
        let (ok, _, resp) =
            self.send(t, Req::Submit, "POST", "/v1/jobs", body.text.as_bytes(), parent, op, log);
        let Some(id) = resp.filter(|_| ok).as_ref().and_then(Self::job_id) else { return };
        let Some(report) = self.await_job(t, parent, op, log, id, i, t0) else { return };
        {
            let mut served = self.served.lock().expect("served map poisoned");
            served.reports.insert(i, (Fnv::of(&report), report.len()));
            if served.report_payloads.len() < 8 {
                served.report_payloads.push((body.digest.clone(), report));
            }
        }
        self.done.lock().expect("done list poisoned").push(i);
    }

    /// Poll job `id` (body `i`, submitted at `t0`) every [`POLL_INTERVAL`]
    /// until it is done, then fetch its report. Records the job's latency
    /// and returns the report bytes.
    #[allow(clippy::too_many_arguments)]
    fn await_job(
        &self,
        t: &Tracer,
        parent: Option<SpanId>,
        op: u64,
        log: &mut Log,
        id: u64,
        i: usize,
        t0: Instant,
    ) -> Option<Vec<u8>> {
        let status_path = format!("/v1/jobs/{id}");
        let mut waited = false;
        loop {
            std::thread::sleep(POLL_INTERVAL);
            let (ok, _, resp) = self.send(
                t,
                Req::Status { finished: false },
                "GET",
                &status_path,
                b"",
                parent,
                op,
                log,
            );
            let resp = resp.filter(|_| ok)?;
            let text = resp.text();
            match json_field(&text, "status") {
                Some("done") => break,
                Some("running") if !waited => {
                    waited = true;
                    log.job_wait_ms.push(t0.elapsed().as_secs_f64() * 1e3);
                }
                Some("queued" | "running") => {}
                other => {
                    Self::fail_check(log, &format!("job {id} status {other:?}"));
                    return None;
                }
            }
        }
        if !waited {
            log.job_wait_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        }
        let (ok, _, resp) = self.send(
            t,
            Req::Report,
            "GET",
            &format!("{status_path}/report"),
            b"",
            parent,
            op,
            log,
        );
        let resp = resp.filter(|_| ok)?;
        log.job_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        log.cold_done.push(i);
        Some(resp.body)
    }

    /// Resubmit finished job `j` (a cache or store hit), then read its
    /// status and report; the report must be the bytes served cold.
    fn hit(&self, t: &Tracer, j: usize, parent: Option<SpanId>, op: u64, log: &mut Log) {
        let Some(id) = self.resubmit(t, j, parent, op, log) else { return };
        let path = format!("/v1/jobs/{id}");
        let (ok, ms, resp) =
            self.send(t, Req::Status { finished: false }, "GET", &path, b"", parent, op, log);
        match resp.filter(|_| ok) {
            Some(resp) if json_field(&resp.text(), "status") == Some("done") => log.hit_ms.push(ms),
            Some(_) => return Self::fail_check(log, &format!("job {id} of a hit is not done")),
            None => return,
        }
        let (ok, ms, resp) =
            self.send(t, Req::Report, "GET", &format!("{path}/report"), b"", parent, op, log);
        let Some(resp) = resp.filter(|_| ok) else { return };
        log.hit_ms.push(ms);
        let mut served = self.served.lock().expect("served map poisoned");
        if served.reports.get(&j) != Some(&(Fnv::of(&resp.body), resp.body.len())) {
            served.mismatches += 1;
            drop(served);
            Self::fail_check(log, &format!("report of job {id} differs from its cold report"));
        }
    }

    /// Resubmit finished job `j` and return its job id. The daemon answers
    /// from its cache or its store; if the store has collected the result,
    /// the daemon runs the job again, and the resubmission waits for it as
    /// a cold job does and checks the report against the first one.
    fn resubmit(
        &self,
        t: &Tracer,
        j: usize,
        parent: Option<SpanId>,
        op: u64,
        log: &mut Log,
    ) -> Option<u64> {
        let body = &self.bodies[j];
        let t0 = Instant::now();
        let (ok, ms, resp) =
            self.send(t, Req::Submit, "POST", "/v1/jobs", body.text.as_bytes(), parent, op, log);
        let resp = resp.filter(|_| ok)?;
        let text = resp.text();
        let id = Self::job_id(&resp);
        let (Some(id), true) = (id, json_field(&text, "digest") == Some(body.digest.as_str()))
        else {
            Self::fail_check(
                log,
                &format!("resubmission answered for another job: {}", text.trim()),
            );
            return None;
        };
        if json_field(&text, "cached") == Some("true") {
            log.hit_ms.push(ms);
            return Some(id);
        }
        log.reruns += 1;
        let report = self.await_job(t, parent, op, log, id, j, t0)?;
        let mut served = self.served.lock().expect("served map poisoned");
        if served.reports.get(&j) != Some(&(Fnv::of(&report), report.len())) {
            served.mismatches += 1;
            drop(served);
            Self::fail_check(
                log,
                &format!("report of re-run job {id} differs from its cold report"),
            );
            return None;
        }
        Some(id)
    }

    /// Resubmit finished job `j` and replay its event stream.
    fn replay(&self, t: &Tracer, j: usize, parent: Option<SpanId>, op: u64, log: &mut Log) {
        let Some(id) = self.resubmit(t, j, parent, op, log) else { return };
        let (ok, _, resp) = self.send(
            t,
            Req::Events,
            "GET",
            &format!("/v1/jobs/{id}/events"),
            b"",
            parent,
            op,
            log,
        );
        let Some(resp) = resp.filter(|_| ok) else { return };
        let got = (Fnv::of(&resp.body), resp.body.len());
        let mut served = self.served.lock().expect("served map poisoned");
        if *served.events.entry(j).or_insert(got) != got {
            served.mismatches += 1;
            drop(served);
            return Self::fail_check(log, &format!("events of job {id} differ between replays"));
        }
        if served.events_payload.is_none() {
            served.events_payload = Some((self.bodies[j].digest.clone(), resp.body));
        }
    }

    /// Take the served bytes recorded so far.
    pub fn take_served(&self) -> Served {
        std::mem::take(&mut *self.served.lock().expect("served map poisoned"))
    }
}

/// Local reference runs of the served jobs: every served report must be
/// byte-identical to `bas_cli::run_scenario`, every replay to a local
/// `stream_events`. Also counts the decisions each checked job ran, for
/// `steps_per_s`. `corrupt` alters one served report first (the
/// self-test). Returns (mismatches, decisions by body index).
pub fn verify(bodies: &[Body], served: &Served, corrupt: bool) -> (u64, BTreeMap<usize, u64>) {
    let mut reports: Vec<(usize, (u64, usize))> =
        served.reports.iter().map(|(&i, &v)| (i, v)).collect();
    if corrupt {
        if let Some(first) = reports.first_mut() {
            first.1 .0 ^= 1;
        }
    }
    let events: Vec<(usize, (u64, usize))> = served.events.iter().map(|(&i, &v)| (i, v)).collect();
    let next = AtomicUsize::new(0);
    let results: Vec<(u64, Vec<(usize, u64)>)> = std::thread::scope(|scope| {
        let threads = std::thread::available_parallelism().map_or(1, usize::from);
        let workers: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut bad = 0u64;
                    let mut steps = Vec::new();
                    loop {
                        let k = next.fetch_add(1, Ordering::Relaxed);
                        if let Some(&(i, want)) = reports.get(k) {
                            let sc = &bodies[i].scenario;
                            match bas_cli::run_scenario(sc) {
                                Ok((_, report)) => {
                                    let json = report.to_json();
                                    if (Fnv::of(json.as_bytes()), json.len()) != want {
                                        eprintln!("check failed: served report of body {i} differs from run_scenario");
                                        bad += 1;
                                    }
                                }
                                Err(e) => {
                                    eprintln!("check failed: local run of body {i}: {e}");
                                    bad += 1;
                                }
                            }
                            match decisions(sc) {
                                Ok(d) => steps.push((i, d)),
                                Err(e) => {
                                    eprintln!("check failed: decisions of body {i}: {e}");
                                    bad += 1;
                                }
                            }
                        } else if let Some(&(i, want)) = events.get(k - reports.len()) {
                            match bodies[i].scenario.stream_events(CountingSink::default()) {
                                Ok(sink) if (sink.hash.0, sink.bytes as usize) == want => {}
                                _ => {
                                    eprintln!("check failed: served events of body {i} differ from stream_events");
                                    bad += 1;
                                }
                            }
                        } else {
                            return (bad, steps);
                        }
                    }
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().expect("verify thread panicked")).collect()
    });
    let mut bad = 0;
    let mut steps = BTreeMap::new();
    for (b, s) in results {
        bad += b;
        steps.extend(s);
    }
    (bad, steps)
}

/// Scheduling decisions of every trial × spec of `sc`, run on one thread
/// through the sweep's own trial construction.
pub fn decisions(sc: &Scenario) -> Result<u64, String> {
    let platform = sc.build_platform().map_err(|e| e.to_string())?;
    let specs = sc.parsed_specs().map_err(|e| e.to_string())?;
    let mut total = 0;
    for trial in 0..sc.trials {
        let seed = Sweep::seed_for(sc.seed, trial);
        let set = sc.trial_set(seed).map_err(|e| e.to_string())?;
        for (_, spec) in &specs {
            let mut cell = sc.build_battery(seed);
            let mut experiment = sc.trial_experiment(&set, *spec, seed, &platform);
            if let Some(cell) = cell.as_mut() {
                experiment = experiment.battery(cell.as_mut());
            }
            total += experiment.run().map_err(|e| e.to_string())?.metrics.decisions;
        }
    }
    Ok(total)
}

/// Directory for run-time state, inside the checkout.
pub fn state_root() -> PathBuf {
    Path::new("perfbench").join(".state").join(std::process::id().to_string())
}

/// The digest fingerprint of the first `n` cold bodies' served reports.
pub fn output_digest(served: &Served, n: usize) -> u64 {
    let mut h = Fnv::default();
    for (_, (hash, len)) in served.reports.range(0..n) {
        h.word(*hash);
        h.word(*len as u64);
    }
    h.0
}

/// Cold bodies prepared per run.
pub fn cold_bodies() -> usize {
    COLD_BODIES
}
