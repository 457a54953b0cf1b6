//! Black-box tests of the daemon over real TCP sockets.
//!
//! Each test binds an ephemeral port, runs the server on a background
//! thread with the built-in [`SweepService`], and talks to it with raw
//! `TcpStream`s — no in-process shortcuts on the request path, so the
//! HTTP framing itself is under test.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bas_core::Scenario;
use bas_serve::store::BlobKind;
use bas_serve::{http, ServeConfig, Server, ServerHandle, SweepService};

/// A tiny sweep that finishes in milliseconds.
const SMOKE: &str = "kind = \"sweep\"\ntrials = 2\nhorizon = 200.0\nworkload = \"unit\"\nprocessor = \"unit\"\nbattery = \"none\"\nspecs = [\"EDF\", \"BAS-2\"]\n";

/// The same scenario as [`SMOKE`], submitted as JSON with scrambled key
/// order — must land on the same digest.
const SMOKE_JSON: &str = r#"{"specs": ["EDF", "BAS-2"], "battery": "none", "horizon": 200.0, "kind": "sweep", "workload": "unit", "trials": 2, "processor": "unit"}"#;

struct Daemon {
    addr: SocketAddr,
    handle: ServerHandle,
    thread: Option<std::thread::JoinHandle<std::io::Result<()>>>,
}

impl Daemon {
    fn start(mut config: ServeConfig) -> Daemon {
        config.addr = "127.0.0.1:0".to_string();
        config.quiet = true;
        let server = Server::bind(config, Arc::new(SweepService)).expect("bind ephemeral port");
        let addr = server.local_addr().expect("bound address");
        let handle = server.handle();
        let thread = std::thread::spawn(move || server.run());
        Daemon { addr, handle, thread: Some(thread) }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.handle.shutdown();
        if let Some(thread) = self.thread.take() {
            thread.join().expect("server thread").expect("clean shutdown");
        }
    }
}

/// One HTTP exchange; returns (status, raw head, body bytes).
fn exchange(addr: SocketAddr, raw: &[u8]) -> (u16, String, Vec<u8>) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(60))).unwrap();
    stream.write_all(raw).expect("send request");
    let mut response = Vec::new();
    stream.read_to_end(&mut response).expect("read response");
    let split = response.windows(4).position(|w| w == b"\r\n\r\n").unwrap_or_else(|| {
        panic!("no header/body split in {:?}", String::from_utf8_lossy(&response))
    });
    let head = String::from_utf8(response[..split].to_vec()).expect("UTF-8 head");
    let status: u16 = head
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("no status in {head:?}"));
    (status, head, response[split + 4..].to_vec())
}

fn get(addr: SocketAddr, path: &str) -> (u16, String, Vec<u8>) {
    exchange(addr, format!("GET {path} HTTP/1.1\r\nHost: bas\r\n\r\n").as_bytes())
}

fn post(addr: SocketAddr, body: &str) -> (u16, String, Vec<u8>) {
    let raw = format!(
        "POST /v1/jobs HTTP/1.1\r\nHost: bas\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    exchange(addr, raw.as_bytes())
}

fn body_text(body: &[u8]) -> String {
    String::from_utf8(body.to_vec()).expect("UTF-8 body")
}

/// Pull `"field": value` out of a flat JSON response line.
fn json_field(body: &str, field: &str) -> String {
    let needle = format!("\"{field}\": ");
    let start =
        body.find(&needle).unwrap_or_else(|| panic!("no {field:?} in {body}")) + needle.len();
    let rest = &body[start..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    rest[..end].trim().trim_matches('"').to_string()
}

fn wait_until(what: &str, deadline: Duration, mut probe: impl FnMut() -> bool) {
    let start = Instant::now();
    while !probe() {
        assert!(start.elapsed() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

fn wait_done(addr: SocketAddr, id: &str) -> String {
    let mut last = String::new();
    wait_until("job to finish", Duration::from_secs(60), || {
        let (status, _, body) = get(addr, &format!("/v1/jobs/{id}"));
        assert_eq!(status, 200);
        last = body_text(&body);
        let state = json_field(&last, "status");
        assert_ne!(state, "failed", "{last}");
        state == "done"
    });
    last
}

#[test]
fn healthz_presets_and_error_routes() {
    let daemon = Daemon::start(ServeConfig::default());
    let addr = daemon.addr;

    let (status, _, body) = get(addr, "/v1/healthz");
    let body = body_text(&body);
    assert_eq!(status, 200, "{body}");
    assert_eq!(json_field(&body, "status"), "ok");
    assert_eq!(json_field(&body, "idle"), "true");
    assert_eq!(json_field(&body, "schema"), "bas-serve/v1");

    let (status, _, body) = get(addr, "/v1/presets");
    assert_eq!(status, 200);
    assert!(body_text(&body).contains("\"name\": \"sweep\""));

    // Unknown routes, bad ids and wrong methods all answer JSON 4xx.
    for (raw, expected) in [
        ("GET /nope HTTP/1.1\r\n\r\n", 404),
        ("GET /v1/jobs/zebra HTTP/1.1\r\n\r\n", 404),
        ("GET /v1/jobs/1/confetti HTTP/1.1\r\n\r\n", 404),
        ("DELETE /v1/jobs HTTP/1.1\r\n\r\n", 405),
        ("POST /v1/healthz HTTP/1.1\r\n\r\n", 405),
        ("how is anyone supposed to parse this\r\n\r\n", 400),
        ("GET /x HTTP/4.0\r\n\r\n", 505),
    ] {
        let (status, _, body) = exchange(addr, raw.as_bytes());
        assert_eq!(status, expected, "{raw:?}");
        assert!(body_text(&body).contains("\"error\":"), "{raw:?}: {:?}", body_text(&body));
    }
}

#[test]
fn submissions_run_cache_and_coalesce_across_formats() {
    let daemon = Daemon::start(ServeConfig::default());
    let addr = daemon.addr;

    let (status, _, body) = post(addr, SMOKE);
    let body = body_text(&body);
    assert_eq!(status, 202, "{body}");
    assert_eq!(json_field(&body, "status"), "queued");
    assert_eq!(json_field(&body, "cached"), "false");
    let id = json_field(&body, "job");
    let digest = json_field(&body, "digest");
    assert_eq!(digest.len(), 16, "{digest}");
    assert_eq!(digest, Scenario::from_toml(SMOKE).unwrap().digest());

    let status_body = wait_done(addr, &id);
    assert!(status_body.contains("\"report\": {"), "{status_body}");

    // The raw report endpoint serves exactly what a local run prints.
    let (status, _, report) = get(addr, &format!("/v1/jobs/{id}/report"));
    assert_eq!(status, 200);
    let expected = {
        use bas_serve::ScenarioService as _;
        SweepService.run(&Scenario::from_toml(SMOKE).unwrap()).unwrap().to_json()
    };
    assert_eq!(body_text(&report), expected, "served report must be byte-identical");

    // Resubmitting the identical TOML is a cache hit on the same job…
    let (status, _, body) = post(addr, SMOKE);
    let body = body_text(&body);
    assert_eq!(status, 200, "{body}");
    assert_eq!(json_field(&body, "cached"), "true");
    assert_eq!(json_field(&body, "job"), id);

    // …and so is the equivalent JSON submission: one digest, one run.
    let (status, _, body) = post(addr, SMOKE_JSON);
    let body = body_text(&body);
    assert_eq!(status, 200, "{body}");
    assert_eq!(json_field(&body, "digest"), digest);
    assert_eq!(json_field(&body, "job"), id);

    let (_, _, health) = get(addr, "/v1/healthz");
    let health = body_text(&health);
    assert_eq!(json_field(&health, "executed"), "1", "{health}");
    assert_eq!(json_field(&health, "submitted"), "3", "{health}");
    assert_eq!(json_field(&health, "cache_hits"), "2", "{health}");
}

#[test]
fn malformed_oversized_and_over_budget_submissions() {
    let config = ServeConfig {
        max_body_bytes: 256,
        max_trials: 10,
        max_horizon: 1e6,
        ..ServeConfig::default()
    };
    let daemon = Daemon::start(config);
    let addr = daemon.addr;

    // Parse/validation failures → 400 with the reason.
    for (body, needle) in [
        ("kind = ", "missing value"),
        ("trials = 2\n", "missing `kind`"),
        ("kind = \"sweep\"\ntrails = 2\n", "trails"),
        ("{\"kind\": \"sweep\", \"trials\": }", "JSON body"),
        ("{\"kind\": [\"sweep\"]}", "kind"),
    ] {
        let (status, _, response) = post(addr, body);
        let response = body_text(&response);
        assert_eq!(status, 400, "{body:?}: {response}");
        assert!(response.contains(needle), "{body:?}: {response}");
    }

    // Over the body cap → 413 (the declared length already tells us).
    let huge = format!("kind = \"sweep\"\n# {}\n", "x".repeat(4096));
    let (status, head, _) = post(addr, &huge);
    assert_eq!(status, 413, "{head}");

    // Valid but over the server's per-request budgets → 422.
    let (status, _, response) = post(addr, "kind = \"sweep\"\ntrials = 11\n");
    assert_eq!(status, 422, "{}", body_text(&response));
    assert!(body_text(&response).contains("--max-trials"), "{}", body_text(&response));
    let (status, _, response) = post(addr, "kind = \"sweep\"\ntrials = 2\nhorizon = 2e6\n");
    assert_eq!(status, 422, "{}", body_text(&response));
    assert!(body_text(&response).contains("--max-horizon"), "{}", body_text(&response));

    // Chunked request bodies are refused with 411, not misread.
    let (status, _, _) =
        exchange(addr, b"POST /v1/jobs HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n0\r\n\r\n");
    assert_eq!(status, 411);
}

/// A sweep sized to occupy a worker long enough (hundreds of ms) for the
/// queue tests to observe it running, while still draining quickly.
fn slow_body(tag: u64) -> String {
    format!(
        "kind = \"sweep\"\nname = \"slow-{tag}\"\ntrials = 2\nhorizon = 6000000.0\nworkload = \"unit\"\nprocessor = \"unit\"\nbattery = \"none\"\nspecs = [\"EDF\"]\n"
    )
}

#[test]
fn bounded_queue_answers_429_under_overload() {
    let config = ServeConfig { workers: 1, queue_depth: 1, ..ServeConfig::default() };
    let daemon = Daemon::start(config);
    let addr = daemon.addr;

    // Occupy the single worker…
    let (status, _, body) = post(addr, &slow_body(1));
    assert_eq!(status, 202, "{}", body_text(&body));
    wait_until("worker to pick the job up", Duration::from_secs(30), || {
        let (_, _, health) = get(addr, "/v1/healthz");
        json_field(&body_text(&health), "running") == "1"
    });

    // …fill the queue…
    let (status, _, body) = post(addr, &slow_body(2));
    assert_eq!(status, 202, "{}", body_text(&body));

    // …and the next distinct submission bounces with Retry-After.
    let (status, head, body) = post(addr, &slow_body(3));
    assert_eq!(status, 429, "{}", body_text(&body));
    assert!(head.contains("Retry-After: 1"), "{head}");
    assert!(body_text(&body).contains("queue is full"), "{}", body_text(&body));

    // A duplicate of a known job still coalesces — backpressure only
    // applies to work that would grow the queue.
    let (status, _, body) = post(addr, &slow_body(2));
    assert_eq!(status, 200, "{}", body_text(&body));
}

#[test]
fn concurrent_identical_submissions_single_flight() {
    let daemon = Daemon::start(ServeConfig { workers: 2, ..ServeConfig::default() });
    let addr = daemon.addr;
    let body = slow_body(77);

    let results: Vec<(u16, String)> = std::thread::scope(|scope| {
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let body = body.clone();
                scope.spawn(move || {
                    let (status, _, response) = post(addr, &body);
                    (status, body_text(&response))
                })
            })
            .collect();
        threads.into_iter().map(|t| t.join().expect("submitter thread")).collect()
    });

    let ids: Vec<String> = results.iter().map(|(_, body)| json_field(body, "job")).collect();
    assert!(ids.iter().all(|id| *id == ids[0]), "all submissions share one job: {results:?}");
    let created = results.iter().filter(|(status, _)| *status == 202).count();
    assert_eq!(created, 1, "exactly one submission creates the job: {results:?}");

    wait_done(addr, &ids[0]);
    let (_, _, health) = get(addr, "/v1/healthz");
    assert_eq!(json_field(&body_text(&health), "executed"), "1", "one run serves all 8");
}

#[test]
fn events_endpoint_streams_the_exact_replay() {
    let daemon = Daemon::start(ServeConfig::default());
    let addr = daemon.addr;

    let (_, _, body) = post(addr, SMOKE);
    let id = json_field(&body_text(&body), "job");

    // The replay is deterministic and independent of job completion, so
    // it can stream immediately after submission.
    let (status, head, chunked) = get(addr, &format!("/v1/jobs/{id}/events"));
    assert_eq!(status, 200);
    assert!(head.contains("Transfer-Encoding: chunked"), "{head}");
    assert!(head.contains("Content-Type: application/x-ndjson"), "{head}");
    let streamed = http::decode_chunked(&chunked).expect("well-formed chunking");

    let direct =
        Scenario::from_toml(SMOKE).unwrap().stream_events(Vec::new()).expect("local replay");
    assert_eq!(streamed, direct, "served stream must match the local replay byte-for-byte");
    let text = String::from_utf8(streamed).unwrap();
    assert_eq!(text.matches("\"schema\":\"bas-events/v2\"").count(), 2, "one header per spec");
}

#[test]
fn sweep_threads_knob_does_not_split_the_cache() {
    let daemon = Daemon::start(ServeConfig::default());
    let addr = daemon.addr;

    // The server shards sweeps across its own pool and ignores the
    // submitted `threads`, so submissions differing only in that knob must
    // land on one digest (and one run), not re-execute per value.
    let (status, _, body) = post(addr, &format!("{SMOKE}threads = 1\n"));
    let body = body_text(&body);
    assert_eq!(status, 202, "{body}");
    let id = json_field(&body, "job");
    let digest = json_field(&body, "digest");

    let (status, _, body) = post(addr, &format!("{SMOKE}threads = 7\n"));
    let body = body_text(&body);
    assert_eq!(status, 200, "{body}");
    assert_eq!(json_field(&body, "job"), id);
    assert_eq!(json_field(&body, "digest"), digest);

    wait_done(addr, &id);
    let (_, _, health) = get(addr, "/v1/healthz");
    assert_eq!(json_field(&body_text(&health), "executed"), "1", "one run serves both");
}

#[test]
fn events_replays_beyond_worker_count_get_429() {
    let daemon = Daemon::start(ServeConfig { workers: 1, ..ServeConfig::default() });
    let addr = daemon.addr;

    let (_, _, body) = post(addr, &slow_body(42));
    let id = json_field(&body_text(&body), "job");

    // Hold the single replay permit: read just the response head of a
    // streaming /events request and keep the connection open while the
    // replay runs behind it.
    let mut held = TcpStream::connect(addr).expect("connect");
    held.set_read_timeout(Some(Duration::from_secs(60))).unwrap();
    write!(held, "GET /v1/jobs/{id}/events HTTP/1.1\r\nHost: bas\r\n\r\n").expect("send request");
    let mut head = Vec::new();
    while !head.ends_with(b"\r\n\r\n") {
        let mut byte = [0u8; 1];
        held.read_exact(&mut byte).expect("streaming head");
        head.push(byte[0]);
        assert!(head.len() < 4096, "runaway head");
    }
    let head = String::from_utf8(head).expect("UTF-8 head");
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");

    // The permit pool (sized to the worker count) is exhausted: a second
    // concurrent replay bounces instead of running an unbounded simulation,
    // and a `?follow=1` request is admitted like any other replay.
    for query in ["", "?follow=1"] {
        let (status, head, body) = get(addr, &format!("/v1/jobs/{id}/events{query}"));
        assert_eq!(status, 429, "{query:?}: {}", body_text(&body));
        assert!(head.contains("Retry-After: 1"), "{query:?}: {head}");
        assert!(body_text(&body).contains("saturated"), "{query:?}: {}", body_text(&body));
    }
}

#[test]
fn non_sweep_jobs_fail_loudly_but_stay_inspectable() {
    let daemon = Daemon::start(ServeConfig::default());
    let addr = daemon.addr;

    // The built-in service only runs sweeps; a fig5 job is accepted,
    // executed, and fails with the reason preserved.
    let (status, _, body) = post(addr, "kind = \"fig5\"\nhorizon = 50.0\n");
    assert_eq!(status, 202, "{}", body_text(&body));
    let id = json_field(&body_text(&body), "job");

    let mut last = String::new();
    wait_until("job to fail", Duration::from_secs(30), || {
        let (_, _, body) = get(addr, &format!("/v1/jobs/{id}"));
        last = body_text(&body);
        json_field(&last, "status") == "failed"
    });
    assert!(last.contains("only `sweep`"), "{last}");

    let (status, _, body) = get(addr, &format!("/v1/jobs/{id}/report"));
    assert_eq!(status, 500, "{}", body_text(&body));

    // Events replay is kind-gated regardless of status.
    let (status, _, body) = get(addr, &format!("/v1/jobs/{id}/events"));
    assert_eq!(status, 409, "{}", body_text(&body));

    // An unfinished job's report is a 409, not a hang: submit something
    // slow and ask immediately.
    let (_, _, body) = post(addr, &slow_body(5));
    let slow_id = json_field(&body_text(&body), "job");
    let (status, _, body) = get(addr, &format!("/v1/jobs/{slow_id}/report"));
    assert_eq!(status, 409, "{}", body_text(&body));
    assert!(body_text(&body).contains("not ready"), "{}", body_text(&body));
}

#[test]
fn lru_evicts_oldest_results_and_404s_them() {
    let config = ServeConfig { cache_capacity: 2, workers: 1, ..ServeConfig::default() };
    let daemon = Daemon::start(config);
    let addr = daemon.addr;

    let submit_fast = |seed: u64| {
        let body = format!(
            "kind = \"sweep\"\ntrials = 1\nseed = {seed}\nhorizon = 100.0\nworkload = \"unit\"\nprocessor = \"unit\"\nbattery = \"none\"\nspecs = [\"EDF\"]\n"
        );
        let (status, _, response) = post(addr, &body);
        let response = body_text(&response);
        assert!(status == 202 || status == 200, "{response}");
        json_field(&response, "job")
    };

    let first = submit_fast(1);
    wait_done(addr, &first);
    let second = submit_fast(2);
    wait_done(addr, &second);
    let third = submit_fast(3);
    wait_done(addr, &third);

    // Capacity 2: the oldest finished job fell out of the registry.
    let (status, _, body) = get(addr, &format!("/v1/jobs/{first}"));
    assert_eq!(status, 404, "{}", body_text(&body));
    assert!(body_text(&body).contains("evicted"), "{}", body_text(&body));
    let (status, _, _) = get(addr, &format!("/v1/jobs/{third}"));
    assert_eq!(status, 200);

    // Resubmitting the evicted scenario is a fresh run, not a cache hit.
    let fourth = submit_fast(1);
    assert_ne!(fourth, first);
}

/// A pid+tag-keyed scratch state directory (fresh on every call).
fn tmp_state_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("bas-serve-bb-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A sweep whose **job** takes a second or so (many trials) while its
/// first-trial event stream stays small — the shape the `?follow=1` tests
/// need: the replay streams in milliseconds while the job is still queued
/// or running.
fn follow_body(tag: u64, trials: usize) -> String {
    format!(
        "kind = \"sweep\"\nname = \"follow-{tag}\"\ntrials = {trials}\nhorizon = 2000.0\nworkload = \"unit\"\nprocessor = \"unit\"\nbattery = \"none\"\nspecs = [\"EDF\"]\n"
    )
}

#[test]
fn state_dir_restart_serves_byte_identical_results_with_zero_recompute() {
    let dir = tmp_state_dir("restart");
    let config = || ServeConfig { state_dir: Some(dir.clone()), ..ServeConfig::default() };

    let (digest, report_bytes, events_bytes) = {
        let daemon = Daemon::start(config());
        let addr = daemon.addr;
        let (status, _, body) = post(addr, SMOKE);
        let body = body_text(&body);
        assert_eq!(status, 202, "{body}");
        let id = json_field(&body, "job");
        let digest = json_field(&body, "digest");
        wait_done(addr, &id);
        let (status, _, report) = get(addr, &format!("/v1/jobs/{id}/report"));
        assert_eq!(status, 200);
        let (status, _, chunked) = get(addr, &format!("/v1/jobs/{id}/events"));
        assert_eq!(status, 200);
        let events = http::decode_chunked(&chunked).expect("well-formed chunking");
        (digest, report, events)
    }; // graceful shutdown: journal + blobs are on disk

    let daemon = Daemon::start(config());
    let addr = daemon.addr;
    // The resubmission is answered from the store: done, cached, no queue.
    let (status, _, body) = post(addr, SMOKE);
    let body = body_text(&body);
    assert_eq!(status, 200, "{body}");
    assert_eq!(json_field(&body, "cached"), "true");
    assert_eq!(json_field(&body, "status"), "done");
    assert_eq!(json_field(&body, "digest"), digest);
    let id = json_field(&body, "job");

    let (status, _, report) = get(addr, &format!("/v1/jobs/{id}/report"));
    assert_eq!(status, 200);
    assert_eq!(report, report_bytes, "restarted report must be byte-identical");
    let (status, _, chunked) = get(addr, &format!("/v1/jobs/{id}/events"));
    assert_eq!(status, 200);
    let events = http::decode_chunked(&chunked).expect("well-formed chunking");
    assert_eq!(events, events_bytes, "restarted events must be byte-identical");

    // Zero recompute, and the healthz store block says why: live entries,
    // checksum-verified hydrations, nothing quarantined.
    let (_, _, health) = get(addr, "/v1/healthz");
    let health = body_text(&health);
    assert_eq!(json_field(&health, "executed"), "0", "{health}");
    assert_eq!(json_field(&health, "cache_hits"), "1", "{health}");
    assert_eq!(json_field(&health, "entries"), "1", "the report blob only: {health}");
    assert_ne!(json_field(&health, "bytes"), "0", "{health}");
    assert_ne!(json_field(&health, "hydrations"), "0", "{health}");
    assert_eq!(json_field(&health, "quarantines"), "0", "{health}");
    drop(daemon);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn state_dir_with_events_blobs_opens_clean_and_serves_its_reports() {
    // Older daemons also stored each sweep job's event stream. Such a
    // state directory must open without quarantines and keep serving.
    let dir = tmp_state_dir("events-blobs");
    let scenario = Scenario::from_toml(SMOKE).unwrap();
    let digest = scenario.digest();
    let report = {
        use bas_serve::ScenarioService as _;
        SweepService.run(&scenario).unwrap().to_json()
    };
    let events = scenario.stream_events(Vec::new()).expect("local replay");
    {
        let mut store = bas_serve::store::Store::open(&dir, 1 << 30, true).expect("open store");
        store.commit(&digest, BlobKind::Report, report.as_bytes()).expect("commit report");
        store.commit(&digest, BlobKind::Events, &events).expect("commit events");
    }

    let daemon =
        Daemon::start(ServeConfig { state_dir: Some(dir.clone()), ..ServeConfig::default() });
    let addr = daemon.addr;
    let (status, _, body) = post(addr, SMOKE);
    let body = body_text(&body);
    assert_eq!(status, 200, "{body}");
    assert_eq!(json_field(&body, "cached"), "true");
    let id = json_field(&body, "job");
    let (status, _, served) = get(addr, &format!("/v1/jobs/{id}/report"));
    assert_eq!(status, 200);
    assert_eq!(body_text(&served), report, "stored report must be served byte-identical");
    let (status, _, chunked) = get(addr, &format!("/v1/jobs/{id}/events"));
    assert_eq!(status, 200);
    assert_eq!(http::decode_chunked(&chunked).expect("well-formed chunking"), events);

    let (_, _, health) = get(addr, "/v1/healthz");
    let health = body_text(&health);
    assert_eq!(json_field(&health, "executed"), "0", "{health}");
    assert_eq!(json_field(&health, "entries"), "2", "report + events blobs: {health}");
    assert_eq!(json_field(&health, "quarantines"), "0", "{health}");
    drop(daemon);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn memory_evicted_results_are_reserved_from_disk() {
    let dir = tmp_state_dir("evict");
    let config = ServeConfig {
        cache_capacity: 2,
        workers: 1,
        state_dir: Some(dir.clone()),
        ..ServeConfig::default()
    };
    let daemon = Daemon::start(config);
    let addr = daemon.addr;

    let submit = |seed: u64| {
        let body = format!(
            "kind = \"sweep\"\ntrials = 1\nseed = {seed}\nhorizon = 100.0\nworkload = \"unit\"\nprocessor = \"unit\"\nbattery = \"none\"\nspecs = [\"EDF\"]\n"
        );
        let (status, _, response) = post(addr, &body);
        (status, body_text(&response))
    };
    for seed in 1..=3 {
        let (_, body) = submit(seed);
        wait_done(addr, &json_field(&body, "job"));
    }
    // Capacity 2: job 1 fell out of the in-memory registry — but with a
    // store behind it the result is not lost: resubmission is a disk hit,
    // not a recompute (without --state-dir this same sequence re-executes;
    // `lru_evicts_oldest_results_and_404s_them` pins that).
    let (status, body) = submit(1);
    assert_eq!(status, 200, "{body}");
    assert_eq!(json_field(&body, "cached"), "true");
    assert_eq!(json_field(&body, "status"), "done");
    let (_, _, health) = get(addr, "/v1/healthz");
    assert_eq!(json_field(&body_text(&health), "executed"), "3", "no fourth run");
    drop(daemon);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn torn_report_blob_is_quarantined_on_restart_and_recomputed() {
    let dir = tmp_state_dir("torn");
    let config = || ServeConfig { state_dir: Some(dir.clone()), ..ServeConfig::default() };

    let digest = {
        let daemon = Daemon::start(config());
        let (status, _, body) = post(daemon.addr, SMOKE);
        let body = body_text(&body);
        assert_eq!(status, 202, "{body}");
        wait_done(daemon.addr, &json_field(&body, "job"));
        json_field(&body, "digest")
    };

    // Tear the report blob mid-payload — what a crash between the journal
    // fsync and the blob fsync leaves behind.
    let blob = dir.join("blobs").join(format!("{digest}.report"));
    let len = std::fs::metadata(&blob).expect("blob on disk").len();
    bas_serve::store::truncate_file(&blob, len / 2).expect("truncate blob");

    let daemon = Daemon::start(config());
    let addr = daemon.addr;
    // Open-time verification quarantined the torn blob: the resubmission
    // is a fresh run, never a serve of corrupt bytes.
    let (status, _, body) = post(addr, SMOKE);
    let body = body_text(&body);
    assert_eq!(status, 202, "torn blob must not read as a store hit: {body}");
    assert_eq!(json_field(&body, "cached"), "false");
    let id = json_field(&body, "job");
    let (_, _, health) = get(addr, "/v1/healthz");
    let health = body_text(&health);
    assert_ne!(json_field(&health, "quarantines"), "0", "{health}");

    // The daemon keeps serving: the recompute completes and is stored again.
    wait_done(addr, &id);
    let (status, _, _) = get(addr, &format!("/v1/jobs/{id}/report"));
    assert_eq!(status, 200);
    assert!(dir.join("quarantine").read_dir().expect("quarantine dir").next().is_some());
    drop(daemon);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn follow_stream_converges_byte_identically_with_the_replay() {
    let dir = tmp_state_dir("follow");
    let daemon =
        Daemon::start(ServeConfig { state_dir: Some(dir.clone()), ..ServeConfig::default() });
    let addr = daemon.addr;

    let body = follow_body(1, 2000);
    let (status, _, response) = post(addr, &body);
    assert_eq!(status, 202, "{}", body_text(&response));
    let id = json_field(&body_text(&response), "job");

    // Subscribe immediately: `?follow=1` is accepted and answered with the
    // same replay, streamed on this request's connection.
    let (status, head, chunked) = get(addr, &format!("/v1/jobs/{id}/events?follow=1"));
    assert_eq!(status, 200);
    assert!(head.contains("Transfer-Encoding: chunked"), "{head}");
    let followed = http::decode_chunked(&chunked).expect("well-formed chunking");

    let direct =
        Scenario::from_toml(&body).unwrap().stream_events(Vec::new()).expect("local replay");
    assert_eq!(followed, direct, "live subscription must converge with the replay bytes");
    drop(daemon);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn state_dir_stores_reports_only_and_follow_replays_queued_jobs() {
    let dir = tmp_state_dir("reports-only");
    let config = ServeConfig { workers: 1, state_dir: Some(dir.clone()), ..ServeConfig::default() };
    let daemon = Daemon::start(config);
    let addr = daemon.addr;

    // Occupy the single worker, then queue a second job behind it.
    let (status, _, response) = post(addr, &slow_body(20));
    assert_eq!(status, 202, "{}", body_text(&response));
    let slow = body_text(&response);
    wait_until("worker to pick the slow job up", Duration::from_secs(30), || {
        let (_, _, health) = get(addr, "/v1/healthz");
        json_field(&body_text(&health), "running") == "1"
    });
    let body = follow_body(3, 20);
    let (status, _, response) = post(addr, &body);
    assert_eq!(status, 202, "{}", body_text(&response));
    let queued = body_text(&response);
    let id = json_field(&queued, "job");

    // A follower of the queued job gets the full replay without waiting
    // for the worker.
    let (status, _, chunked) = get(addr, &format!("/v1/jobs/{id}/events?follow=1"));
    assert_eq!(status, 200);
    let followed = http::decode_chunked(&chunked).expect("well-formed chunking");
    let direct =
        Scenario::from_toml(&body).unwrap().stream_events(Vec::new()).expect("local replay");
    assert_eq!(followed, direct, "a queued job's follower gets the replay bytes");

    // Once both jobs finish, the store holds their reports and nothing else.
    wait_done(addr, &json_field(&slow, "job"));
    wait_done(addr, &id);
    let mut blobs: Vec<String> = std::fs::read_dir(dir.join("blobs"))
        .expect("blobs dir")
        .map(|entry| entry.expect("dir entry").file_name().into_string().expect("UTF-8 name"))
        .collect();
    blobs.sort();
    let mut expected: Vec<String> = [&slow, &queued]
        .iter()
        .map(|submitted| format!("{}.report", json_field(submitted, "digest")))
        .collect();
    expected.sort();
    assert_eq!(blobs, expected);
    drop(daemon);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn graceful_shutdown_drains_the_queue() {
    let mut daemon = Daemon::start(ServeConfig { workers: 1, ..ServeConfig::default() });
    let addr = daemon.addr;

    let (status, _, _) = post(addr, &slow_body(10));
    assert_eq!(status, 202);
    let (status, _, _) = post(addr, &slow_body(11));
    assert_eq!(status, 202);

    // Shut down immediately: both jobs must still execute before run()
    // returns — drain means "finish the queue", not "abandon it".
    daemon.handle.shutdown();
    daemon.thread.take().unwrap().join().expect("server thread").expect("clean shutdown");
    let stats = daemon.handle.stats();
    assert_eq!(stats.executed, 2, "{stats:?}");
    assert_eq!(stats.queued, 0, "{stats:?}");
    assert!(daemon.handle.is_idle());
}
