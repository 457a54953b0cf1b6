//! The daemon: listener, routing, job registry, worker pool and drain.
//!
//! Concurrency model — deliberately boring, std-only:
//!
//! * one accept loop (nonblocking + short sleep so shutdown is noticed),
//! * one short-lived thread per connection (requests are `Connection:
//!   close`, so a connection is one request); `/events` replays run here,
//! * a fixed pool of worker threads popping job ids off a bounded queue
//!   guarded by a `Mutex` + `Condvar`; idle workers sleep until woken.
//!
//! All shared state lives in one [`Registry`] behind a single mutex. Every
//! critical section is a few map operations — scenario runs happen outside
//! the lock — so contention is irrelevant next to simulation time.

use std::collections::{HashMap, VecDeque};
use std::io::{self, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use bas_core::report::json_string;
use bas_core::{Scenario, ScenarioKind};

use crate::cache::Lru;
use crate::http;
use crate::service::ScenarioService;
use crate::store::{BlobKind, Store};

/// Schema tag of every JSON document the daemon itself emits (reports keep
/// their own `bas-report/v1`, event streams their `bas-events/v2`).
pub const SCHEMA: &str = "bas-serve/v1";

/// Tunables of a [`Server`], all overridable from `bas serve` flags.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Address to bind (`host:port`; port 0 picks an ephemeral port).
    pub addr: String,
    /// Worker threads executing jobs (0 = available parallelism).
    pub workers: usize,
    /// Jobs that may wait in the queue before submissions get 429.
    pub queue_depth: usize,
    /// Completed jobs kept for cache hits before LRU eviction.
    pub cache_capacity: usize,
    /// Largest accepted `trials` knob (per-request budget; 422 beyond).
    pub max_trials: usize,
    /// Largest accepted `horizon` knob, simulated seconds (422 beyond).
    pub max_horizon: f64,
    /// Largest accepted request body, bytes (413 beyond).
    pub max_body_bytes: usize,
    /// Suppress the per-request access log on stderr.
    pub quiet: bool,
    /// Directory for the persistent result store ([`crate::store`]);
    /// `None` keeps the cache in-memory only.
    pub state_dir: Option<PathBuf>,
    /// Byte budget of the on-disk store; least-recently-used digests are
    /// evicted (and the eviction journaled) beyond it.
    pub state_max_bytes: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:7878".to_string(),
            workers: 0,
            queue_depth: 64,
            cache_capacity: 128,
            max_trials: 10_000,
            max_horizon: 1e9,
            max_body_bytes: 1024 * 1024,
            quiet: false,
            state_dir: None,
            state_max_bytes: 256 * 1024 * 1024,
        }
    }
}

impl ServeConfig {
    /// The worker-thread count `workers = 0` resolves to.
    pub fn resolved_workers(&self) -> usize {
        if self.workers > 0 {
            self.workers
        } else {
            std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
        }
    }
}

/// Where a job is in its lifecycle. Results are `Arc<str>` so responses
/// serve them without copying the (potentially large) report.
#[derive(Debug, Clone)]
enum JobStatus {
    Queued,
    Running,
    /// Completed; carries the `bas-report/v1` JSON exactly as `bas run
    /// --format json` would print it.
    Done(Arc<str>),
    /// The run failed; carries the error message. Failures are cached like
    /// results (same digest → same failure) until evicted.
    Failed(Arc<str>),
    /// Completed in a previous life of the daemon: the report lives in the
    /// persistent store and hydrates lazily on first access. Externally
    /// indistinguishable from `Done` until read.
    Stored,
}

impl JobStatus {
    fn name(&self) -> &'static str {
        match self {
            JobStatus::Queued => "queued",
            JobStatus::Running => "running",
            JobStatus::Done(_) | JobStatus::Stored => "done",
            JobStatus::Failed(_) => "failed",
        }
    }

    fn is_finished(&self) -> bool {
        matches!(self, JobStatus::Done(_) | JobStatus::Failed(_) | JobStatus::Stored)
    }
}

#[derive(Debug)]
struct Job {
    digest: String,
    scenario: Scenario,
    status: JobStatus,
}

/// All mutable daemon state, guarded by one mutex.
struct Registry {
    jobs: HashMap<u64, Job>,
    /// Digest → job id: the single-flight and cache index. One digest maps
    /// to at most one job at a time, so concurrent identical submissions
    /// coalesce onto the same run.
    by_digest: HashMap<String, u64>,
    queue: VecDeque<u64>,
    /// Finished job ids in recency order; eviction drops them from `jobs`
    /// and `by_digest` (the persistent store, when configured, keeps its
    /// own copy — a later resubmission of an evicted digest rehydrates).
    done_lru: Lru<u64>,
    next_id: u64,
    running: usize,
    submitted: u64,
    executed: u64,
    cache_hits: u64,
}

impl Registry {
    fn new(cache_capacity: usize) -> Self {
        Registry {
            jobs: HashMap::new(),
            by_digest: HashMap::new(),
            queue: VecDeque::new(),
            done_lru: Lru::new(cache_capacity),
            next_id: 1,
            running: 0,
            submitted: 0,
            executed: 0,
            cache_hits: 0,
        }
    }

    /// Record a finished job in the LRU and evict beyond capacity.
    fn finish(&mut self, id: u64) {
        for evicted in self.done_lru.insert(id) {
            if let Some(job) = self.jobs.remove(&evicted) {
                if self.by_digest.get(&job.digest) == Some(&evicted) {
                    self.by_digest.remove(&job.digest);
                }
            }
        }
    }
}

/// What a submission resolved to, mapped onto an HTTP response by the
/// connection handler.
enum Submitted {
    /// Fresh digest: a new job was queued (202).
    New { id: u64, digest: String },
    /// Known digest: coalesced onto an existing job, or served from the
    /// result cache if it already finished (200).
    Existing { id: u64, digest: String, status: &'static str, cached: bool },
    /// The bounded queue is full (429).
    QueueFull,
    /// The daemon is draining for shutdown (503).
    Draining,
}

struct Shared {
    config: ServeConfig,
    worker_count: usize,
    service: Arc<dyn ScenarioService>,
    registry: Mutex<Registry>,
    work_ready: Condvar,
    shutdown: AtomicBool,
    /// Currently-running `/events` replays. Replays run on connection
    /// threads (they are on-demand reads, not queued jobs), so without a
    /// bound N concurrent requests would run N simulations past every
    /// admission control; [`ReplayPermit`] caps them at the pool width.
    replays_active: AtomicUsize,
    /// Socket clones of every live connection, keyed by connection id.
    /// Drain joins connection threads, so a client that stops reading its
    /// response must not pin one forever: after [`DRAIN_GRACE`] the drain
    /// path force-`shutdown(2)`s whatever is still here, failing the
    /// thread's blocked write immediately.
    conn_streams: Mutex<HashMap<u64, TcpStream>>,
    next_conn_id: AtomicUsize,
    /// The persistent result store (`--state-dir`), when configured. Its
    /// lock is never held while the registry lock is held: probe/commit
    /// first, then update the registry.
    store: Option<Mutex<Store>>,
}

/// How long graceful drain waits for in-flight responses/streams to end
/// on their own before force-closing their sockets.
const DRAIN_GRACE: Duration = Duration::from_secs(5);

/// RAII registration of a connection's socket clone in
/// [`Shared::conn_streams`] for the force-close path; deregisters when the
/// connection thread finishes (however it finishes).
struct ConnGuard<'a> {
    shared: &'a Shared,
    id: u64,
}

impl<'a> ConnGuard<'a> {
    fn register(shared: &'a Shared, stream: &TcpStream) -> Option<Self> {
        let clone = stream.try_clone().ok()?;
        let id = shared.next_conn_id.fetch_add(1, Ordering::Relaxed) as u64;
        shared.conn_streams.lock().expect("conn streams poisoned").insert(id, clone);
        Some(ConnGuard { shared, id })
    }
}

impl Drop for ConnGuard<'_> {
    fn drop(&mut self) {
        self.shared.conn_streams.lock().expect("conn streams poisoned").remove(&self.id);
    }
}

/// RAII permit bounding concurrent `/events` replays to the worker-pool
/// width; requests beyond the bound are answered 429 instead.
struct ReplayPermit<'a> {
    shared: &'a Shared,
}

impl<'a> ReplayPermit<'a> {
    fn acquire(shared: &'a Shared) -> Option<Self> {
        let limit = shared.worker_count;
        shared
            .replays_active
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| (n < limit).then_some(n + 1))
            .ok()
            .map(|_| ReplayPermit { shared })
    }
}

impl Drop for ReplayPermit<'_> {
    fn drop(&mut self) {
        self.shared.replays_active.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Point-in-time daemon counters (the in-process view of `/v1/healthz`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeStats {
    /// Accepted submissions, including coalesced/cached ones.
    pub submitted: u64,
    /// Jobs actually executed by the worker pool.
    pub executed: u64,
    /// Submissions answered by coalescing or the result cache.
    pub cache_hits: u64,
    /// Jobs currently waiting in the queue.
    pub queued: usize,
    /// Jobs currently executing.
    pub running: usize,
}

/// A cloneable remote control for a running [`Server`]: shutdown, idle
/// detection and counters. In-process embedders (the bench harness, tests)
/// use it instead of HTTP.
#[derive(Clone)]
pub struct ServerHandle {
    shared: Arc<Shared>,
}

impl ServerHandle {
    /// Begin graceful shutdown: stop accepting connections, finish every
    /// queued job, then let [`Server::run`] return.
    pub fn shutdown(&self) {
        // `Server::run` wakes the idle workers once its accept loop sees
        // the flag.
        self.shared.shutdown.store(true, Ordering::SeqCst);
    }

    /// Whether the queue is empty and no job is executing.
    pub fn is_idle(&self) -> bool {
        let reg = self.shared.registry.lock().expect("registry poisoned");
        reg.queue.is_empty() && reg.running == 0
    }

    /// Current counters.
    pub fn stats(&self) -> ServeStats {
        let reg = self.shared.registry.lock().expect("registry poisoned");
        ServeStats {
            submitted: reg.submitted,
            executed: reg.executed,
            cache_hits: reg.cache_hits,
            queued: reg.queue.len(),
            running: reg.running,
        }
    }
}

/// The bound-but-not-yet-serving daemon. [`Server::bind`] claims the
/// address (so callers can learn the ephemeral port and print the
/// listening line before any request races in); [`Server::run`] serves
/// until [`ServerHandle::shutdown`].
pub struct Server {
    listener: TcpListener,
    shared: Arc<Shared>,
}

impl Server {
    /// Bind `config.addr` and prepare the daemon around `service`. With
    /// `state_dir` set this also opens (and crash-recovers) the persistent
    /// store before any request can race in.
    pub fn bind(config: ServeConfig, service: Arc<dyn ScenarioService>) -> io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let worker_count = config.resolved_workers();
        let registry = Mutex::new(Registry::new(config.cache_capacity));
        let store = match &config.state_dir {
            Some(dir) => Some(Mutex::new(Store::open(dir, config.state_max_bytes, config.quiet)?)),
            None => None,
        };
        let shared = Arc::new(Shared {
            config,
            worker_count,
            service,
            registry,
            work_ready: Condvar::new(),
            shutdown: AtomicBool::new(false),
            replays_active: AtomicUsize::new(0),
            conn_streams: Mutex::new(HashMap::new()),
            next_conn_id: AtomicUsize::new(0),
            store,
        });
        Ok(Server { listener, shared })
    }

    /// The actually-bound address (resolves port 0).
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// A remote control valid for the lifetime of the process.
    pub fn handle(&self) -> ServerHandle {
        ServerHandle { shared: Arc::clone(&self.shared) }
    }

    /// Serve until shutdown: spawn the worker pool, accept connections,
    /// then drain the queue and join everything on the way out.
    pub fn run(self) -> io::Result<()> {
        let Server { listener, shared } = self;
        listener.set_nonblocking(true)?;
        let workers: Vec<_> = (0..shared.worker_count)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("bas-serve-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn worker thread")
            })
            .collect();
        let mut connections: Vec<std::thread::JoinHandle<()>> = Vec::new();
        while !shared.shutdown.load(Ordering::SeqCst) {
            match listener.accept() {
                Ok((stream, _peer)) => {
                    let shared = Arc::clone(&shared);
                    connections.push(std::thread::spawn(move || {
                        handle_connection(&shared, stream);
                    }));
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(10));
                }
                Err(_) => std::thread::sleep(Duration::from_millis(10)),
            }
            connections.retain(|h| !h.is_finished());
        }
        // Drain: no new connections are accepted; workers finish every
        // queued job (their loop only exits on shutdown + empty queue),
        // and in-flight responses/streams complete. The wakeup is sent
        // under the registry lock: a worker is then either already asleep
        // in `wait` (and woken) or has yet to check the shutdown flag
        // under that lock (and sees it set), so no worker sleeps through
        // the drain.
        {
            let _reg = shared.registry.lock().expect("registry poisoned");
            shared.work_ready.notify_all();
        }
        for handle in workers {
            let _ = handle.join();
        }
        // Connection threads get DRAIN_GRACE to finish on their own; after
        // that their sockets are force-closed so a client that stopped
        // reading (a blocked write) cannot pin the drain, and the joins
        // below return promptly.
        let grace_deadline = std::time::Instant::now() + DRAIN_GRACE;
        while std::time::Instant::now() < grace_deadline {
            connections.retain(|h| !h.is_finished());
            if connections.is_empty() {
                break;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        for stream in shared.conn_streams.lock().expect("conn streams poisoned").values() {
            let _ = stream.shutdown(std::net::Shutdown::Both);
        }
        for handle in connections {
            let _ = handle.join();
        }
        Ok(())
    }
}

/// Pop and execute jobs until shutdown with an empty queue.
fn worker_loop(shared: &Arc<Shared>) {
    loop {
        let (id, scenario, digest) = {
            let mut reg = shared.registry.lock().expect("registry poisoned");
            loop {
                if let Some(id) = reg.queue.pop_front() {
                    reg.running += 1;
                    let job = reg.jobs.get_mut(&id).expect("queued job is registered");
                    job.status = JobStatus::Running;
                    break (id, job.scenario.clone(), job.digest.clone());
                }
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                reg = shared.work_ready.wait(reg).expect("registry poisoned");
            }
        };
        // Sweep jobs shard their trials across the pool width. The sweep
        // layer guarantees bit-identical results for any thread count, so
        // this never changes what the cache serves relative to a local
        // `bas run` (where `threads` likewise defaults to the machine).
        let mut run_scenario = scenario;
        if run_scenario.kind == ScenarioKind::Sweep {
            run_scenario.threads = shared.worker_count;
        }
        let result = shared.service.run(&run_scenario).map(|report| report.to_json());
        if let (Some(store), Ok(json)) = (&shared.store, &result) {
            let committed = store.lock().expect("store poisoned").commit(
                &digest,
                BlobKind::Report,
                json.as_bytes(),
            );
            if let Err(e) = committed {
                store_log(shared, &format!("report commit failed for {digest}: {e}"));
            }
        }
        let mut reg = shared.registry.lock().expect("registry poisoned");
        reg.running -= 1;
        reg.executed += 1;
        let job = reg.jobs.get_mut(&id).expect("running job is registered");
        job.status = match result {
            Ok(json) => JobStatus::Done(Arc::from(json)),
            Err(message) => JobStatus::Failed(Arc::from(message)),
        };
        reg.finish(id);
    }
}

fn store_log(shared: &Shared, message: &str) {
    if !shared.config.quiet {
        eprintln!("bas serve store: {message}");
    }
}

/// Serve one request on `stream` and close it.
fn handle_connection(shared: &Arc<Shared>, stream: TcpStream) {
    // Both directions are bounded: a client that trickles its request or
    // never drains its response (TCP backpressure on a large report or an
    // /events stream) errors out of the blocked syscall instead of pinning
    // this thread — `Server::run` joins every connection thread during
    // drain, so an unbounded write would wedge shutdown. The drain path
    // additionally force-closes sockets still registered after its grace
    // period (see `ConnGuard`/`DRAIN_GRACE`).
    let _ = stream.set_read_timeout(Some(Duration::from_secs(10)));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(10)));
    let _guard = ConnGuard::register(shared, &stream);
    let Ok(read_half) = stream.try_clone() else { return };
    let mut reader = BufReader::new(read_half);
    let request = match http::read_request(&mut reader, shared.config.max_body_bytes) {
        Ok(Some(request)) => request,
        Ok(None) => return, // connect-and-leave probe
        Err(e) => {
            access_log(shared, "-", "-", e.status);
            let mut out = stream;
            let _ = http::write_response(
                &mut out,
                e.status,
                "application/json",
                error_json(&e.message).as_bytes(),
                &[],
            );
            return;
        }
    };
    let (method, path) = (request.method.clone(), request.path.clone());
    let status = route(shared, stream, request);
    access_log(shared, &method, &path, status);
}

fn access_log(shared: &Shared, method: &str, path: &str, status: u16) {
    if !shared.config.quiet {
        eprintln!("bas serve: {method} {path} -> {status}");
    }
}

/// Dispatch one parsed request, returning the response status (for the
/// access log; streaming endpoints report the status of their head).
fn route(shared: &Arc<Shared>, mut stream: TcpStream, request: http::Request) -> u16 {
    let respond = |stream: &mut TcpStream, status: u16, body: &str, extra: &[(&str, &str)]| {
        let _ = http::write_response(stream, status, "application/json", body.as_bytes(), extra);
        status
    };
    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/v1/healthz") => respond(&mut stream, 200, &healthz_json(shared), &[]),
        ("GET", "/v1/presets") => respond(&mut stream, 200, &shared.service.presets_json(), &[]),
        ("POST", "/v1/jobs") => handle_submit(shared, stream, &request.body),
        ("GET", path) if path.starts_with("/v1/jobs/") => handle_job_get(shared, stream, path),
        (_, "/v1/healthz" | "/v1/presets" | "/v1/jobs") => respond(
            &mut stream,
            405,
            &error_json(&format!("method {} not allowed here", request.method)),
            &[],
        ),
        (_, path) if path.starts_with("/v1/jobs/") => respond(
            &mut stream,
            405,
            &error_json(&format!("method {} not allowed here", request.method)),
            &[],
        ),
        (_, path) => respond(&mut stream, 404, &error_json(&format!("no route {path}")), &[]),
    }
}

/// `POST /v1/jobs`: parse (TOML or JSON), validate, budget-check, then
/// queue / coalesce / reject.
fn handle_submit(shared: &Arc<Shared>, mut stream: TcpStream, body: &[u8]) -> u16 {
    let respond = |stream: &mut TcpStream, status: u16, body: &str, extra: &[(&str, &str)]| {
        let _ = http::write_response(stream, status, "application/json", body.as_bytes(), extra);
        status
    };
    let scenario = match parse_submission(body) {
        Ok(scenario) => scenario,
        Err(message) => return respond(&mut stream, 400, &error_json(&message), &[]),
    };
    if scenario.trials > shared.config.max_trials {
        let message = format!(
            "trials = {} exceeds this server's --max-trials budget of {}",
            scenario.trials, shared.config.max_trials
        );
        return respond(&mut stream, 422, &error_json(&message), &[]);
    }
    if scenario.horizon > shared.config.max_horizon {
        let message = format!(
            "horizon = {} exceeds this server's --max-horizon budget of {}",
            scenario.horizon, shared.config.max_horizon
        );
        return respond(&mut stream, 422, &error_json(&message), &[]);
    }
    match submit(shared, scenario) {
        Submitted::New { id, digest } => {
            respond(&mut stream, 202, &submit_json(id, &digest, "queued", false), &[])
        }
        Submitted::Existing { id, digest, status, cached } => {
            respond(&mut stream, 200, &submit_json(id, &digest, status, cached), &[])
        }
        Submitted::QueueFull => respond(
            &mut stream,
            429,
            &error_json("job queue is full; retry shortly"),
            &[("Retry-After", "1")],
        ),
        Submitted::Draining => {
            respond(&mut stream, 503, &error_json("server is shutting down"), &[])
        }
    }
}

/// Decode a submission body: JSON if the first non-whitespace byte is `{`,
/// the TOML scenario format otherwise. Both normalize into a validated
/// [`Scenario`].
fn parse_submission(body: &[u8]) -> Result<Scenario, String> {
    let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_string())?;
    let toml_text = if text.trim_start().starts_with('{') {
        crate::json::scenario_toml_from_json(text).map_err(|e| format!("JSON body: {e}"))?
    } else {
        text.to_string()
    };
    Scenario::from_toml(&toml_text).map_err(|e| e.to_string())
}

fn submit(shared: &Arc<Shared>, mut scenario: Scenario) -> Submitted {
    // Workers override `threads` to the pool width for sweep jobs (see
    // `worker_loop`), so the knob never affects what this server executes.
    // Normalize it away before digesting so cache identity matches
    // execution identity: two submissions identical except for `threads`
    // coalesce onto one run instead of re-executing.
    if scenario.kind == ScenarioKind::Sweep {
        scenario.threads = 0;
    }
    let digest = scenario.digest();
    // Probe the persistent store before taking the registry lock (the two
    // locks are never nested). A hit turns the submission into a lazily
    // hydrated completed job — no queue slot, no recompute.
    let stored_hit = match &shared.store {
        Some(store) => store.lock().expect("store poisoned").has(&digest, BlobKind::Report),
        None => false,
    };
    let mut reg = shared.registry.lock().expect("registry poisoned");
    if shared.shutdown.load(Ordering::SeqCst) {
        return Submitted::Draining;
    }
    if let Some(&id) = reg.by_digest.get(&digest) {
        let status = reg.jobs.get(&id).expect("indexed job is registered").status.clone();
        reg.submitted += 1;
        reg.cache_hits += 1;
        if status.is_finished() {
            reg.done_lru.touch(&id);
        }
        return Submitted::Existing {
            id,
            digest,
            status: status.name(),
            cached: status.is_finished(),
        };
    }
    if stored_hit {
        let id = reg.next_id;
        reg.next_id += 1;
        reg.jobs.insert(id, Job { digest: digest.clone(), scenario, status: JobStatus::Stored });
        reg.by_digest.insert(digest.clone(), id);
        reg.submitted += 1;
        reg.cache_hits += 1;
        reg.finish(id);
        return Submitted::Existing { id, digest, status: "done", cached: true };
    }
    if reg.queue.len() >= shared.config.queue_depth {
        return Submitted::QueueFull;
    }
    let id = reg.next_id;
    reg.next_id += 1;
    reg.jobs.insert(id, Job { digest: digest.clone(), scenario, status: JobStatus::Queued });
    reg.by_digest.insert(digest.clone(), id);
    reg.queue.push_back(id);
    reg.submitted += 1;
    drop(reg);
    shared.work_ready.notify_one();
    Submitted::New { id, digest }
}

/// `GET /v1/jobs/<id>[/report|/events]` (the query string, such as a
/// legacy `?follow=1`, is ignored).
fn handle_job_get(shared: &Arc<Shared>, mut stream: TcpStream, path: &str) -> u16 {
    let respond = |stream: &mut TcpStream, status: u16, body: &str| {
        let _ = http::write_response(stream, status, "application/json", body.as_bytes(), &[]);
        status
    };
    let rest = path.strip_prefix("/v1/jobs/").expect("router checked the prefix");
    let (id_text, tail) = match rest.split_once('/') {
        Some((id_text, tail)) => (id_text, tail),
        None => (rest, ""),
    };
    let Ok(id) = id_text.parse::<u64>() else {
        return respond(&mut stream, 404, &error_json(&format!("bad job id {id_text:?}")));
    };
    // Snapshot what the response needs and release the lock before any
    // (potentially slow) streaming work.
    let snapshot = {
        let mut reg = shared.registry.lock().expect("registry poisoned");
        match reg.jobs.get(&id) {
            Some(job) => {
                let snap = (job.digest.clone(), job.scenario.clone(), job.status.clone());
                if snap.2.is_finished() {
                    reg.done_lru.touch(&id);
                }
                Some(snap)
            }
            None => None,
        }
    };
    let Some((digest, scenario, mut status)) = snapshot else {
        return respond(
            &mut stream,
            404,
            &error_json(&format!("no job {id} (unknown, or evicted from the result cache)")),
        );
    };
    // A `Stored` job hydrates lazily: the report blob is read back and
    // checksum-verified on first access. A corrupt blob was quarantined by
    // the load and behaves like an evicted cache entry.
    if matches!(status, JobStatus::Stored) && tail != "events" {
        match hydrate(shared, id, &digest) {
            Some(hydrated) => status = hydrated,
            None => {
                return respond(
                    &mut stream,
                    404,
                    &error_json(&format!(
                        "job {id}'s stored result was corrupt and has been quarantined; \
                         resubmit to recompute"
                    )),
                );
            }
        }
    }
    match tail {
        "" => respond(&mut stream, 200, &job_json(id, &digest, &scenario, &status)),
        "report" => match &status {
            JobStatus::Done(report) => {
                let _ = http::write_response(
                    &mut stream,
                    200,
                    "application/json",
                    report.as_bytes(),
                    &[],
                );
                200
            }
            JobStatus::Failed(message) => respond(&mut stream, 500, &error_json(message)),
            JobStatus::Queued | JobStatus::Running | JobStatus::Stored => respond(
                &mut stream,
                409,
                &error_json(&format!("job {id} is {}; report not ready", status.name())),
            ),
        },
        "events" => {
            if scenario.kind != ScenarioKind::Sweep {
                return respond(
                    &mut stream,
                    409,
                    &error_json(&format!(
                        "events replay only `sweep` scenarios; job {id} is kind `{}`",
                        scenario.kind
                    )),
                );
            }
            // Every stream is a fresh replay of the deterministic first
            // trial, whatever the job's status. Replays bypass the worker
            // queue, so they carry their own admission control: at most
            // `worker_count` at once.
            let Some(_permit) = ReplayPermit::acquire(shared) else {
                let _ = http::write_response(
                    &mut stream,
                    429,
                    "application/json",
                    error_json("replay capacity is saturated; retry shortly").as_bytes(),
                    &[("Retry-After", "1")],
                );
                return 429;
            };
            stream_job_events(stream, &scenario)
        }
        other => respond(&mut stream, 404, &error_json(&format!("no job endpoint {other:?}"))),
    }
}

/// Resolve a [`JobStatus::Stored`] job to `Done` by reading its report
/// blob back from the store. `None` means the blob failed verification and
/// was quarantined: the job and its digest mapping are dropped so a
/// resubmission recomputes cleanly.
fn hydrate(shared: &Arc<Shared>, id: u64, digest: &str) -> Option<JobStatus> {
    let store = shared.store.as_ref()?;
    let loaded = store.lock().expect("store poisoned").load(digest, BlobKind::Report);
    match loaded.and_then(|bytes| String::from_utf8(bytes).ok()) {
        Some(json) => {
            let status = JobStatus::Done(Arc::from(json));
            let mut reg = shared.registry.lock().expect("registry poisoned");
            if let Some(job) = reg.jobs.get_mut(&id) {
                if matches!(job.status, JobStatus::Stored) {
                    job.status = status.clone();
                }
            }
            Some(status)
        }
        None => {
            let mut reg = shared.registry.lock().expect("registry poisoned");
            if reg.by_digest.get(digest) == Some(&id) {
                reg.by_digest.remove(digest);
            }
            reg.jobs.remove(&id);
            reg.done_lru.remove(&id);
            None
        }
    }
}

/// Stream the deterministic first-trial event replay as chunked
/// `bas-events/v2` JSONL. Runs on the connection thread — replays are
/// on-demand reads, not queued jobs. Output leaves in 8 KiB chunks as it
/// is generated.
fn stream_job_events(mut stream: TcpStream, scenario: &Scenario) -> u16 {
    if http::write_chunked_head(&mut stream, "application/x-ndjson").is_err() {
        return 200;
    }
    let sink = BufWriter::with_capacity(8192, http::ChunkedWriter::new(stream));
    match scenario.stream_events(sink) {
        Ok(mut sink) => {
            let _ = sink.flush();
            if let Ok(chunker) = sink.into_inner() {
                let _ = chunker.finish();
            }
        }
        Err(_) => {
            // Head already sent; a mid-stream failure (replay error or a
            // vanished subscriber) surfaces to the client as a stream that
            // ends without the terminating chunk.
        }
    }
    200
}

fn error_json(message: &str) -> String {
    format!("{{\"error\": {}}}\n", json_string(message))
}

fn submit_json(id: u64, digest: &str, status: &str, cached: bool) -> String {
    format!(
        "{{\"schema\": {}, \"job\": {id}, \"digest\": {}, \"status\": {}, \"cached\": {cached}}}\n",
        json_string(SCHEMA),
        json_string(digest),
        json_string(status),
    )
}

fn job_json(id: u64, digest: &str, scenario: &Scenario, status: &JobStatus) -> String {
    let mut out = format!(
        "{{\"schema\": {}, \"job\": {id}, \"digest\": {}, \"kind\": {}, \"status\": {}",
        json_string(SCHEMA),
        json_string(digest),
        json_string(scenario.kind.name()),
        json_string(status.name()),
    );
    match status {
        JobStatus::Done(report) => {
            out.push_str(", \"report\": ");
            out.push_str(report.trim_end());
        }
        JobStatus::Failed(message) => {
            out.push_str(", \"error\": ");
            out.push_str(&json_string(message));
        }
        // `Stored` reaches here only for the status view of a job the
        // handler chose not to hydrate; it reads as "done" without the
        // embedded report.
        JobStatus::Queued | JobStatus::Running | JobStatus::Stored => {}
    }
    out.push_str("}\n");
    out
}

fn healthz_json(shared: &Arc<Shared>) -> String {
    // Store stats first — the store and registry locks are never nested.
    let store = shared.store.as_ref().map(|s| s.lock().expect("store poisoned").stats());
    let reg = shared.registry.lock().expect("registry poisoned");
    let draining = shared.shutdown.load(Ordering::SeqCst);
    let idle = reg.queue.is_empty() && reg.running == 0;
    let store_field = match store {
        Some(s) => format!(
            ", \"store\": {{\"bytes\": {}, \"entries\": {}, \"hydrations\": {}, \"quarantines\": {}, \"evictions\": {}}}",
            s.bytes, s.entries, s.hydrations, s.quarantines, s.evictions,
        ),
        None => String::new(),
    };
    format!(
        "{{\"schema\": {}, \"status\": {}, \"workers\": {}, \"queued\": {}, \"running\": {}, \"jobs\": {}, \"submitted\": {}, \"executed\": {}, \"cache_hits\": {}{store_field}, \"idle\": {idle}}}\n",
        json_string(SCHEMA),
        json_string(if draining { "draining" } else { "ok" }),
        shared.worker_count,
        reg.queue.len(),
        reg.running,
        reg.jobs.len(),
        reg.submitted,
        reg.executed,
        reg.cache_hits,
    )
}
