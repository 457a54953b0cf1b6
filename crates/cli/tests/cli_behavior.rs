//! Black-box tests of the `bas` binary: exit codes, usage reporting, and
//! the format switch. The historical binaries panicked with a backtrace on
//! malformed flags; `bas` must exit with code 2 and a usage message.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..").canonicalize().unwrap()
}

fn bas(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_bas"))
        .args(args)
        .current_dir(workspace_root())
        .output()
        .expect("bas binary runs")
}

#[test]
fn malformed_flags_exit_2_with_usage_not_a_panic() {
    for args in [
        &["table2", "--trials"][..],        // flag without a value
        &["table2", "--trials", "many"],    // non-numeric value
        &["table2", "--points", "9"],       // knob of a different kind
        &["table2", "--battery", "fusion"], // unknown preset name
        &["frobnicate"],                    // unknown subcommand
        &["run"],                           // missing file operand
        &[],                                // no command at all
        &["fig4", "--format", "yaml"],      // unknown format
        &["fig4", "extra"],                 // stray positional
    ] {
        let out = bas(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("error:"), "{args:?}: {stderr}");
        assert!(stderr.contains("USAGE"), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} wrote to stdout");
    }
}

#[test]
fn help_exits_0_with_usage_on_stdout() {
    for args in [&["--help"][..], &["-h"], &["help"]] {
        let out = bas(args);
        assert_eq!(out.status.code(), Some(0), "{args:?}");
        assert!(String::from_utf8_lossy(&out.stdout).contains("USAGE"), "{args:?}");
    }
}

#[test]
fn missing_scenario_file_exits_1() {
    let out = bas(&["run", "no/such/file.toml"]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stderr).contains("error:"));
}

#[test]
fn malformed_scenario_file_exits_2_with_usage() {
    // A file that *reads* but does not parse/validate is malformed input —
    // same contract as a malformed flag: exit 2 + usage.
    let dir = std::env::temp_dir().join("bas-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    for (name, body) in [
        ("unknown-key.toml", "kind = \"table2\"\ntrails = 5\n"),
        ("bad-value.toml", "kind = \"sweep\"\nbattery = \"fusion\"\n"),
        ("not-toml.toml", "kind = \"sweep\"\ntrials = = 5\n"),
    ] {
        let path = dir.join(name);
        std::fs::write(&path, body).unwrap();
        let out = bas(&["run", path.to_str().unwrap()]);
        assert_eq!(out.status.code(), Some(2), "{name}: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("USAGE"), "{name}: {stderr}");
        assert!(stderr.contains(name), "{name} (path named in error): {stderr}");
    }
}

#[test]
fn list_names_every_preset_and_the_checked_in_files() {
    let out = bas(&["list"]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    for name in [
        "table1",
        "table2",
        "fig4",
        "fig5",
        "fig6",
        "guidelines",
        "crossover",
        "ablation",
        "capacity-curve",
        "sweep",
    ] {
        assert!(stdout.contains(name), "missing preset {name}:\n{stdout}");
    }
    assert!(stdout.contains("scenarios/smoke.toml"), "{stdout}");
}

#[test]
fn run_smoke_emits_the_three_formats() {
    let text = bas(&["run", "scenarios/smoke.toml"]);
    assert_eq!(text.status.code(), Some(0), "{text:?}");
    assert!(String::from_utf8_lossy(&text.stdout).contains("sweep 'smoke'"));

    let json = bas(&["run", "scenarios/smoke.toml", "--format", "json"]);
    assert_eq!(json.status.code(), Some(0), "{json:?}");
    let body = String::from_utf8_lossy(&json.stdout);
    assert!(body.starts_with('{') && body.trim_end().ends_with('}'), "{body}");
    assert!(body.contains("\"schema\": \"bas-report/v1\""), "{body}");

    let csv = bas(&["run", "scenarios/smoke.toml", "--format", "csv"]);
    assert_eq!(csv.status.code(), Some(0), "{csv:?}");
    assert!(
        String::from_utf8_lossy(&csv.stdout)
            .starts_with("record,label,metric,seed,value,n,mean,std,min,max,p50,p95"),
        "{csv:?}"
    );
}

#[test]
fn events_flag_streams_parseable_jsonl_without_touching_stdout() {
    let dir = std::env::temp_dir().join("bas-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let events = dir.join("smoke-events.jsonl");
    let plain = bas(&["run", "scenarios/smoke.toml"]);
    let with_events = bas(&["run", "scenarios/smoke.toml", "--events", events.to_str().unwrap()]);
    assert_eq!(with_events.status.code(), Some(0), "{with_events:?}");
    assert_eq!(with_events.stdout, plain.stdout, "--events must not change the report output");

    let stream = std::fs::read_to_string(&events).unwrap();
    let lines: Vec<&str> = stream.lines().collect();
    assert!(!lines.is_empty());
    assert!(
        lines[0].contains("\"schema\":\"bas-events/v2\""),
        "stream must open with the schema header: {}",
        lines[0]
    );
    // One header per spec in the smoke lineup (EDF, BAS-2), each line a
    // single flat JSON object with a type discriminator.
    let headers = lines.iter().filter(|l| l.contains("\"type\":\"header\"")).count();
    assert_eq!(headers, 2, "{stream}");
    for line in &lines {
        assert!(
            line.starts_with("{\"type\":\"") && line.ends_with('}'),
            "malformed JSONL line: {line}"
        );
    }
}

#[test]
fn events_flag_on_a_non_sweep_preset_is_a_usage_error() {
    let out = bas(&["fig4", "--events", "/tmp/should-not-exist.jsonl"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--events"), "{stderr}");
    assert!(stderr.contains("USAGE"), "{stderr}");
}

#[test]
fn overrides_and_legacy_flag_aliases_apply() {
    // `--actuals` and `--max-time` are the retired table2 binary's spellings
    // of `sampler` and `horizon`.
    let out =
        bas(&["scenario", "table2", "--trials", "7", "--actuals", "iid", "--max-time", "1000"]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("trials = 7"), "{stdout}");
    assert!(stdout.contains("sampler = \"iid\""), "{stdout}");
    assert!(stdout.contains("horizon = 1000.0"), "{stdout}");
}

#[test]
fn scenario_subcommand_round_trips_through_run() {
    // `bas scenario sweep` emits a file that `bas run` accepts.
    let emitted = bas(&[
        "scenario",
        "sweep",
        "--trials",
        "1",
        "--battery",
        "none",
        "--workload",
        "unit",
        "--processor",
        "unit",
        "--horizon",
        "100",
        "--specs",
        "EDF",
    ]);
    assert_eq!(emitted.status.code(), Some(0), "{emitted:?}");
    let dir = std::env::temp_dir().join("bas-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("emitted.toml");
    std::fs::write(&path, &emitted.stdout).unwrap();
    let run = bas(&["run", path.to_str().unwrap()]);
    assert_eq!(run.status.code(), Some(0), "{run:?}");
    assert!(String::from_utf8_lossy(&run.stdout).contains("EDF"));
}

#[test]
fn list_format_json_emits_the_preset_catalog() {
    let out = bas(&["list", "--format", "json"]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let body = String::from_utf8_lossy(&out.stdout);
    assert!(body.starts_with('{') && body.trim_end().ends_with('}'), "{body}");
    // Flat enough to probe without a JSON parser: every preset appears with
    // its name, a description and its checked-in scenario path.
    for name in ["table1", "table2", "sweep", "capacity-curve"] {
        assert!(body.contains(&format!("\"name\": \"{name}\"")), "{body}");
        assert!(body.contains(&format!("\"scenario\": \"scenarios/{name}.toml\"")), "{body}");
    }
    assert!(body.contains("\"description\": "), "{body}");
    assert!(body.contains("\"knobs\": ["), "{body}");
    assert!(body.contains("\"path\": \"scenarios/mpsoc.toml\""), "{body}");
    // Text mode is unchanged and remains the default.
    let text = bas(&["list"]);
    assert!(String::from_utf8_lossy(&text.stdout).starts_with("presets"), "{text:?}");
    // Unknown formats and stray flags are usage errors.
    assert_eq!(bas(&["list", "--format", "yaml"]).status.code(), Some(2));
    assert_eq!(bas(&["list", "--out", "x"]).status.code(), Some(2));
}

#[test]
fn mpsoc_scenario_runs_the_lineup_on_two_and_four_pes() {
    // The multi-PE showcase must drive the whole lineup end to end —
    // including the per-event `pe` field in the JSONL stream — at 2 and
    // (via override) 4 PEs, miss-free.
    let dir = std::env::temp_dir().join("bas-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let events = dir.join("mpsoc-events.jsonl");
    for pes in ["2", "4"] {
        let out = bas(&[
            "run",
            "scenarios/mpsoc.toml",
            "--pes",
            pes,
            "--trials",
            "2",
            "--events",
            events.to_str().unwrap(),
        ]);
        assert_eq!(out.status.code(), Some(0), "pes {pes}: {out:?}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            stdout.contains(&format!("platform: {pes} processing elements")),
            "pes {pes}: {stdout}"
        );
        assert!(stdout.contains("deadline misses across all runs: 0"), "pes {pes}: {stdout}");
        let stream = std::fs::read_to_string(&events).unwrap();
        assert!(stream.lines().next().unwrap().contains("\"schema\":\"bas-events/v2\""));
        let max_pe = pes.parse::<usize>().unwrap() - 1;
        assert!(
            stream.lines().any(|l| l.contains(&format!("\"pe\":{max_pe},"))),
            "pes {pes}: no event on the last PE"
        );
    }
    // The JSON report carries the platform width.
    let json = bas(&["run", "scenarios/mpsoc.toml", "--trials", "1", "--format", "json"]);
    assert_eq!(json.status.code(), Some(0), "{json:?}");
    assert!(String::from_utf8_lossy(&json.stdout).contains("\"pes\": 2"), "{json:?}");
}

#[test]
fn bench_rejects_bad_flags_with_usage() {
    for args in [
        &["bench", "--format", "yaml"][..], // unknown format
        &["bench", "--frobnicate", "x"],    // unknown flag
        &["bench", "extra"],                // stray positional
    ] {
        let out = bas(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {out:?}");
        assert!(String::from_utf8_lossy(&out.stderr).contains("USAGE"), "{args:?}");
    }
}

#[test]
fn bench_quick_emits_valid_bas_bench_v1_json() {
    // Hermetic suite: point --scenarios at a directory whose six pinned
    // names all hold a tiny seconds-scale sweep, so the test measures the
    // harness (schema, flags, file output), not the real suite's runtime.
    // Pid-suffixed so concurrent checkouts sharing /tmp cannot interfere.
    let dir = std::env::temp_dir().join(format!("bas-cli-bench-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let tiny = "kind = \"sweep\"\ntrials = 1\nseed = 1\nhorizon = 50.0\n\
                specs = [\"EDF\", \"BAS-2\"]\nworkload = \"unit\"\n\
                processor = \"unit\"\nbattery = \"none\"\n";
    for name in ["smoke", "sweep", "mpsoc", "battery-aware", "biglittle", "big-dag"] {
        std::fs::write(dir.join(format!("{name}.toml")), format!("name = \"{name}\"\n{tiny}"))
            .unwrap();
    }
    // The portfolio entry loads its own pinned scenario; race a 2-spec
    // lineup so the hermetic suite stays fast.
    let tiny_portfolio = "name = \"portfolio\"\nkind = \"portfolio\"\ntrials = 1\nseed = 1\n\
                          horizon = 50.0\nspecs = [\"EDF\", \"BAS-2\"]\nworkload = \"unit\"\n\
                          processor = \"unit\"\nbattery = \"none\"\n";
    std::fs::write(dir.join("portfolio.toml"), tiny_portfolio).unwrap();
    let out_file = dir.join("bench.json");
    let out = bas(&[
        "bench",
        "--quick",
        "--scenarios",
        dir.to_str().unwrap(),
        "--format",
        "json",
        "--out",
        out_file.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    assert!(out.stdout.is_empty(), "--out must silence stdout: {out:?}");
    let json = std::fs::read_to_string(&out_file).unwrap();
    assert!(json.contains("\"schema\": \"bas-bench/v1\""), "{json}");
    assert!(json.contains("\"mode\": \"quick\""), "{json}");
    // 6 scenarios x {1, 4} PEs, plus the portfolio and serve entries.
    assert_eq!(json.matches("\"scenario\":").count(), 14, "{json}");
    assert!(json.contains("\"scenario\": \"portfolio\""), "{json}");
    assert_eq!(json.matches("\"pes\": 4").count(), 6, "{json}");
    assert!(!json.contains("\"steps\": 0,"), "every entry took decisions: {json}");
    // The serve entry measures the daemon: 5x its cold submissions as
    // requests (cold + 3 warm passes + 1 post-restart pass), 3/4 of the
    // pre-restart ones answered by the result cache and the whole restart
    // pass answered from the on-disk store.
    assert!(json.contains("\"scenario\": \"serve\""), "{json}");
    assert!(json.contains("\"cache_hit_rate\": 0.750"), "{json}");
    assert!(json.contains("\"restart_hit_rate\": 1.000"), "{json}");
    // The text rendering works against the same directory.
    let text = bas(&["bench", "--quick", "--scenarios", dir.to_str().unwrap()]);
    assert_eq!(text.status.code(), Some(0), "{text:?}");
    let rendered = String::from_utf8_lossy(&text.stdout);
    assert!(rendered.contains("Steps/s"), "{rendered}");
    assert!(rendered.contains("Hit rate"), "{rendered}");
    assert!(rendered.contains("quick mode"), "{rendered}");
}

#[test]
fn serve_rejects_bad_flags_with_usage() {
    for args in [
        &["serve", "--workers"][..],              // flag without a value
        &["serve", "--workers", "lots"],          // non-numeric value
        &["serve", "--queue-depth", "-1"],        // negative count
        &["serve", "--max-horizon", "0"],         // non-positive budget
        &["serve", "--state-dir", ""],            // empty path
        &["serve", "--state-max-bytes", "0"],     // non-positive budget
        &["serve", "--follow-buffer-bytes", "1"], // removed flag, now unknown
        &["serve", "--frobnicate", "x"],          // unknown flag
        &["serve", "extra"],                      // stray positional
    ] {
        let out = bas(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("error:"), "{args:?}: {stderr}");
        assert!(stderr.contains("USAGE"), "{args:?}: {stderr}");
    }
    // The usage text documents the subcommand.
    let help = bas(&["--help"]);
    assert!(String::from_utf8_lossy(&help.stdout).contains("bas serve"), "{help:?}");
}

/// End-to-end daemon contract, driven exactly like CI's serve-e2e job:
/// spawn `bas serve` as a child process on an ephemeral port, submit the
/// checked-in smoke scenario over TCP, and require the served report and
/// event stream to be byte-identical to local `bas run` output — then
/// SIGTERM must drain and exit 0.
#[cfg(unix)]
#[test]
fn serve_child_process_serves_smoke_and_drains_on_sigterm() {
    use std::io::{BufRead as _, BufReader, Read as _, Write as _};
    use std::net::TcpStream;

    let mut child = Command::new(env!("CARGO_BIN_EXE_bas"))
        .args(["serve", "--addr", "127.0.0.1:0", "--workers", "1", "--quiet"])
        .current_dir(workspace_root())
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("spawn bas serve");
    let mut first_line = String::new();
    BufReader::new(child.stdout.take().expect("piped stdout"))
        .read_line(&mut first_line)
        .expect("read listening line");
    let addr = first_line
        .trim()
        .strip_prefix("bas serve listening on http://")
        .unwrap_or_else(|| panic!("unexpected listening line {first_line:?}"))
        .to_string();

    let exchange = |request: String| -> (String, Vec<u8>) {
        let mut stream = TcpStream::connect(&addr).expect("connect to daemon");
        stream.write_all(request.as_bytes()).expect("send");
        let mut response = Vec::new();
        stream.read_to_end(&mut response).expect("read");
        let split = response.windows(4).position(|w| w == b"\r\n\r\n").expect("head/body split");
        (String::from_utf8_lossy(&response[..split]).to_string(), response[split + 4..].to_vec())
    };
    let get = |path: &str| exchange(format!("GET {path} HTTP/1.1\r\nHost: t\r\n\r\n"));

    let (head, _) = get("/v1/healthz");
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");

    // Submit the checked-in smoke scenario verbatim.
    let body = std::fs::read_to_string(workspace_root().join("scenarios/smoke.toml")).unwrap();
    let (head, response) = exchange(format!(
        "POST /v1/jobs HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    ));
    assert!(head.starts_with("HTTP/1.1 202"), "{head}");
    let response = String::from_utf8(response).unwrap();
    let id: u64 = response
        .split("\"job\": ")
        .nth(1)
        .and_then(|r| r.split([',', '}']).next())
        .and_then(|n| n.trim().parse().ok())
        .unwrap_or_else(|| panic!("no job id in {response}"));

    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
    loop {
        let (_, status_body) = get(&format!("/v1/jobs/{id}"));
        let status_body = String::from_utf8_lossy(&status_body).to_string();
        if status_body.contains("\"status\": \"done\"") {
            break;
        }
        assert!(!status_body.contains("\"status\": \"failed\""), "{status_body}");
        assert!(std::time::Instant::now() < deadline, "job never finished: {status_body}");
        std::thread::sleep(std::time::Duration::from_millis(20));
    }

    // Byte-for-byte: the served report is exactly `bas run --format json`.
    let (head, served_report) = get(&format!("/v1/jobs/{id}/report"));
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    let local = bas(&["run", "scenarios/smoke.toml", "--format", "json"]);
    assert_eq!(local.status.code(), Some(0), "{local:?}");
    assert_eq!(served_report, local.stdout, "served report != local `bas run` report");

    // Byte-for-byte: the streamed events equal `bas run --events`.
    let (head, chunked) = get(&format!("/v1/jobs/{id}/events"));
    assert!(head.contains("Transfer-Encoding: chunked"), "{head}");
    let streamed = bas_serve::http::decode_chunked(&chunked).expect("well-formed chunking");
    let dir = std::env::temp_dir().join(format!("bas-cli-serve-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let events_file = dir.join("events.jsonl");
    let local = bas(&["run", "scenarios/smoke.toml", "--events", events_file.to_str().unwrap()]);
    assert_eq!(local.status.code(), Some(0), "{local:?}");
    assert_eq!(streamed, std::fs::read(&events_file).unwrap(), "served events != local capture");

    // Same digest again: answered from the cache, same job, no new run.
    let (head, response) = exchange(format!(
        "POST /v1/jobs HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    ));
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    let response = String::from_utf8(response).unwrap();
    assert!(response.contains("\"cached\": true"), "{response}");
    let (_, health) = get("/v1/healthz");
    let health = String::from_utf8_lossy(&health).to_string();
    assert!(health.contains("\"executed\": 1"), "{health}");

    // SIGTERM drains gracefully: the process exits 0 on its own.
    let term = Command::new("kill")
        .args(["-TERM", &child.id().to_string()])
        .status()
        .expect("send SIGTERM");
    assert!(term.success());
    let status = child.wait().expect("child exits");
    assert_eq!(status.code(), Some(0), "drain must exit 0, got {status:?}");
}
