//! # bas-cli — the unified `bas` command line
//!
//! One binary drives the whole evaluation:
//!
//! ```text
//! bas <preset> [--key value ...] [--format text|json|csv] [--out FILE]
//! bas run <scenario.toml> [--key value ...] [--format ...] [--out FILE]
//! bas list
//! ```
//!
//! Presets (`table1`, `table2`, `fig4`, `fig5`, `fig6`, `guidelines`,
//! `crossover`, `ablation`, `capacity-curve`, `sweep`, `portfolio`) are
//! built-in [`Scenario`] constructors — the same objects as the checked-in
//! files under `scenarios/` — and the named presets ([`NAMED_PRESETS`]:
//! `quickstart`, `sensor-node`, `media-player`, `battery-explorer`) run
//! their curated files by name. `--key value` overrides set scenario fields
//! (`bas table2 --trials 10 --seed 2`). Legacy flag spellings of the
//! retired per-artifact binaries (`--max-time`, `--actuals`, `--proc`,
//! `--max-graphs`, `--horizon-periods`) are accepted as aliases.
//!
//! Every run renders its historical text output and can instead emit a
//! structured [`Report`] (`--format json|csv`); see `bas_core::report` for
//! the stable schemas.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use bas_core::{Report, Scenario, ScenarioKind};
use std::io::Write as _;
use std::path::Path;

pub mod args;
pub mod bench;
pub mod gen;
pub mod presets;
pub mod serve;

use args::{Args, ArgsError};

/// Short usage text (printed on errors and `--help`).
pub const USAGE: &str = "\
bas — battery-aware scheduling experiments, driven by declarative scenarios

USAGE:
    bas <preset> [--key value ...] [--format text|json|csv] [--out FILE]
    bas run <scenario.toml> [--key value ...] [--format text|json|csv] [--out FILE]
    bas portfolio [<scenario.toml>|<preset>] [--key value ...] [--format text|json] [--out FILE]
    bas scenario <preset> [--key value ...]   # print the preset as a scenario file
    bas gen <layered|fork-join|random> [--nodes N] [--seed S] [--format text|json]
    bas gen import <workflow.json> [--ref-speed HZ] [--format text|json]
    bas bench [--quick] [--repeat N] [--only LIST] [--format text|json]
              [--out FILE] [--scenarios DIR]
    bas serve [--addr HOST:PORT] [--workers N] [--queue-depth N]
              [--state-dir DIR] [--quiet]
    bas list [--format text|json]
    bas help

PRESETS:
    table1, table2, fig4, fig5, fig6, guidelines, crossover, ablation,
    capacity-curve, sweep, portfolio — the paper's artifacts (and the
    generic sweep/portfolio), also checked in as files under scenarios/.
    Named presets (quickstart, sensor-node, media-player,
    battery-explorer) run their checked-in scenarios/<name>.toml.

OPTIONS:
    --format FMT     text (default): the historical tables/traces;
                     json | csv: the structured report (stable schema,
                     spec labels, per-seed metrics, summary stats)
    --out FILE       write the selected output to FILE instead of stdout
    --events FILE    additionally stream the engine's event stream of the
                     scenario's first trial (every spec) to FILE as
                     bas-events/v2 JSONL with per-event PE indices
                     (sweep scenarios only; O(1) memory)
    --key value      override a scenario knob, e.g. --trials 10 --seed 2
                     (run `bas list` for each preset's knobs)

GEN:
    `bas gen <family>` builds a synthetic big DAG (deterministic in
    family + --nodes + --seed, up to 10k nodes) and prints its graph
    summary — node/edge counts, roots/leaves, total and critical-path
    WCET, edge payload bytes — without simulating. The same generators
    back a scenario's `[workload]` block, so the summary describes
    exactly what `bas run` schedules. `bas gen import <file.json>`
    parses a WfCommons workflow instance instead (runtimes become WCET
    cycles at --ref-speed cycles/s, default 1e9; file payloads become
    edge bytes). --format json emits the stable bas-graph/v1 object.

BENCH:
    `bas bench` runs the pinned perf suite (smoke, sweep, mpsoc,
    battery-aware, biglittle, big-dag, each on 1 and 4 PEs) and reports
    steps-per-second per entry; --format json emits the bas-bench/v1 schema CI's perf gate
    compares against BENCH_baseline.json. --quick pins each scenario's
    smaller CI budget (fewer trials, shorter horizons). A `portfolio`
    entry races the whole 40-spec grammar through the portfolio path,
    and the suite ends with a `serve` entry measuring the daemon's
    requests-per-second and cache hit rate against an in-process server.

PORTFOLIO:
    `bas portfolio` races a set of scheduler specs — explicit labels,
    globs over the `governor+priority/scope` grammar, or `all` (40
    specs) — through one deterministic sweep per scenario, then reports
    the Pareto frontier over the scenario's axes (energy_j,
    deadline_misses, makespan, charge_c, lifetime_min), per-spec
    hypervolume and coverage, and an auto-pick recommendation. A `sweep`
    target (file or preset name) is adopted as a whole-grammar portfolio
    over the default axes. --format json emits the stable
    bas-portfolio/v1 schema; `bas run` on a portfolio scenario still
    emits the ordinary bas-report/v1 sweep report.

SERVE:
    `bas serve` runs the scheduling-as-a-service daemon: POST a scenario
    (TOML or JSON body) to /v1/jobs, poll GET /v1/jobs/<id>, fetch the
    bas-report/v1 report at /v1/jobs/<id>/report, stream the bas-events/v2
    replay at /v1/jobs/<id>/events; GET /v1/presets and /v1/healthz for
    the catalog and counters. Completed reports are cached by scenario
    digest (identical submissions coalesce onto one run); a full queue
    answers 429 with Retry-After. SIGINT/SIGTERM drain gracefully.
    With --state-dir the result cache is durable: completed reports are
    checksummed onto disk and survive restarts (warm digests are served
    byte-identical with zero recompute; torn or corrupt entries are
    quarantined, never served). Event streams are never stored: every
    events request replays the first trial, at most --workers at once
    (429 beyond). ?follow=1 is accepted for compatibility and returns
    the same stream.
    --addr HOST:PORT   bind address (default 127.0.0.1:7878; port 0 picks
                       an ephemeral port, printed on the listening line)
    --workers N        worker threads (default 0 = all cores)
    --queue-depth N    queued-job bound before 429 (default 64)
    --cache N          completed jobs kept for cache hits (default 128)
    --max-trials N     per-request trials budget, 422 beyond (default 10000)
    --max-horizon S    per-request horizon budget, seconds (default 1e9)
    --max-body-bytes N request body cap, 413 beyond (default 1 MiB)
    --state-dir DIR    persist results to DIR (journal + checksummed blobs)
    --state-max-bytes N on-disk store budget, LRU-evicted (default 256 MiB)
    --quiet            suppress the stderr access log
";

/// Run the CLI on an argument list (no binary name); returns the process
/// exit code: 0 on success, 1 on runtime failure, 2 on usage errors.
pub fn run(argv: Vec<String>) -> i32 {
    match dispatch(argv) {
        Ok(()) => 0,
        Err(CliError::Usage(message)) => {
            eprintln!("error: {message}\n");
            eprintln!("{USAGE}");
            2
        }
        Err(CliError::Runtime(message)) => {
            eprintln!("error: {message}");
            1
        }
    }
}

/// A CLI failure: a usage error (exit 2) or a runtime error (exit 1).
#[derive(Debug)]
pub enum CliError {
    /// Malformed invocation: bad flags, unknown preset, invalid override.
    Usage(String),
    /// The invocation was well-formed but the run failed.
    Runtime(String),
}

fn usage_err(e: impl std::fmt::Display) -> CliError {
    CliError::Usage(e.to_string())
}

fn dispatch(argv: Vec<String>) -> Result<(), CliError> {
    let args = Args::parse(argv).map_err(|e: ArgsError| usage_err(e))?;
    if args.help {
        println!("{USAGE}");
        return Ok(());
    }
    let Some(command) = args.positional.first() else {
        return Err(CliError::Usage("no command given".to_string()));
    };
    match command.as_str() {
        "list" => {
            expect_positionals(&args, 1)?;
            let mut json = false;
            for (key, value) in &args.flags {
                match (key.as_str(), value.as_str()) {
                    ("format", "text") => json = false,
                    ("format", "json") => json = true,
                    ("format", other) => {
                        return Err(CliError::Usage(format!(
                            "`bas list --format` must be text|json, got {other:?}"
                        )));
                    }
                    (key, _) => {
                        return Err(CliError::Usage(format!("`bas list` takes no --{key} flag")));
                    }
                }
            }
            if json {
                print!("{}", render_list_json());
            } else {
                println!("{}", render_list());
            }
            Ok(())
        }
        "bench" => {
            expect_positionals(&args, 1)?;
            bench::run(&args)
        }
        "serve" => {
            expect_positionals(&args, 1)?;
            serve::run(&args)
        }
        "gen" => gen::run(&args),
        "run" => {
            let path = args
                .positional
                .get(1)
                .ok_or_else(|| CliError::Usage("`bas run` needs a scenario file".to_string()))?;
            expect_positionals(&args, 2)?;
            // An unreadable file is a runtime failure (exit 1); a file that
            // reads but fails to parse or validate is malformed input, which
            // exits 2 with usage like any other bad invocation.
            let input = std::fs::read_to_string(Path::new(path))
                .map_err(|e| CliError::Runtime(format!("{path}: {e}")))?;
            let scenario =
                Scenario::from_toml(&input).map_err(|e| CliError::Usage(format!("{path}: {e}")))?;
            run_with_overrides(scenario, &args)
        }
        "portfolio" if args.positional.len() > 1 => {
            // `bas portfolio <target>`: race a portfolio over an explicit
            // target — a scenario file, a preset kind, or a named preset.
            // A `sweep` target is adopted (whole grammar, default axes)
            // before the overrides apply, so portfolio-only knobs like
            // --axes and --reference work on any target.
            let target = &args.positional[1];
            expect_positionals(&args, 2)?;
            let scenario = if Path::new(target).exists() {
                let input = std::fs::read_to_string(Path::new(target))
                    .map_err(|e| CliError::Runtime(format!("{target}: {e}")))?;
                Scenario::from_toml(&input)
                    .map_err(|e| CliError::Usage(format!("{target}: {e}")))?
            } else if let Ok(kind) = target.parse::<ScenarioKind>() {
                Scenario::preset(kind)
            } else if NAMED_PRESETS.iter().any(|(n, _)| n == target) {
                load_named_preset(target)?
            } else {
                return Err(CliError::Usage(format!(
                    "`bas portfolio` needs a scenario file or preset, got {target:?}"
                )));
            };
            let adopted =
                bas_portfolio::adopt(scenario).map_err(|e| CliError::Usage(e.to_string()))?;
            run_portfolio_command(adopted, &args)
        }
        "portfolio" => {
            // Bare `bas portfolio`: race the built-in portfolio preset.
            run_portfolio_command(Scenario::preset(ScenarioKind::Portfolio), &args)
        }
        "scenario" => {
            let preset = args
                .positional
                .get(1)
                .ok_or_else(|| CliError::Usage("`bas scenario` needs a preset name".to_string()))?;
            expect_positionals(&args, 2)?;
            let kind: ScenarioKind = preset
                .parse()
                .map_err(|_| CliError::Usage(format!("unknown preset {preset:?}")))?;
            let mut scenario = Scenario::preset(kind);
            for (key, value) in &args.flags {
                scenario.set(&canonical_key(key), value).map_err(usage_err)?;
            }
            scenario.validate().map_err(usage_err)?;
            print!("{}", scenario.to_toml());
            Ok(())
        }
        preset => {
            expect_positionals(&args, 1)?;
            if let Ok(kind) = preset.parse::<ScenarioKind>() {
                run_with_overrides(Scenario::preset(kind), &args)
            } else if NAMED_PRESETS.iter().any(|(n, _)| *n == preset) {
                run_with_overrides(load_named_preset(preset)?, &args)
            } else {
                Err(CliError::Usage(format!("unknown command or preset {preset:?}")))
            }
        }
    }
}

/// Run an adopted/validated-kind portfolio scenario for the `bas
/// portfolio` subcommand: apply `--key` overrides, race the lineup, and
/// emit the text table or the `bas-portfolio/v1` JSON.
fn run_portfolio_command(mut scenario: Scenario, args: &Args) -> Result<(), CliError> {
    let mut json = false;
    let mut out_path: Option<&str> = None;
    for (key, value) in &args.flags {
        match key.as_str() {
            "format" => {
                json = match value.as_str() {
                    "text" => false,
                    "json" => true,
                    other => {
                        return Err(CliError::Usage(format!(
                            "`bas portfolio --format` must be text|json, got {other:?}"
                        )));
                    }
                };
            }
            "out" => out_path = Some(value),
            key => {
                scenario.set(&canonical_key(key), value).map_err(usage_err)?;
            }
        }
    }
    scenario.validate().map_err(usage_err)?;
    let report =
        bas_portfolio::run_portfolio(&scenario).map_err(|e| CliError::Runtime(e.to_string()))?;
    let payload = if json { report.to_json() } else { report.to_text() };
    match out_path {
        Some(path) => std::fs::write(path, &payload)
            .map_err(|e| CliError::Runtime(format!("writing {path}: {e}")))?,
        None => print!("{payload}"),
    }
    Ok(())
}

fn expect_positionals(args: &Args, n: usize) -> Result<(), CliError> {
    if args.positional.len() > n {
        return Err(CliError::Usage(format!("unexpected argument {:?}", args.positional[n])));
    }
    Ok(())
}

/// Output format of a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Format {
    Text,
    Json,
    Csv,
}

/// Legacy flag names of the retired per-artifact binaries, mapped onto
/// scenario keys (hyphens normalize to underscores independently).
fn canonical_key(key: &str) -> String {
    match key {
        "max-time" => "horizon".to_string(),
        "actuals" => "sampler".to_string(),
        "proc" => "processor".to_string(),
        _ => key.replace('-', "_"),
    }
}

fn run_with_overrides(mut scenario: Scenario, args: &Args) -> Result<(), CliError> {
    let mut format = Format::Text;
    let mut out_path: Option<&str> = None;
    let mut events_path: Option<&str> = None;
    for (key, value) in &args.flags {
        match key.as_str() {
            "format" => {
                format = match value.as_str() {
                    "text" => Format::Text,
                    "json" => Format::Json,
                    "csv" => Format::Csv,
                    other => {
                        return Err(CliError::Usage(format!(
                            "--format must be text|json|csv, got {other:?}"
                        )));
                    }
                };
            }
            "out" => out_path = Some(value),
            "events" => events_path = Some(value),
            key => {
                scenario.set(&canonical_key(key), value).map_err(usage_err)?;
            }
        }
    }
    scenario.validate().map_err(usage_err)?;
    if events_path.is_some() && scenario.kind != ScenarioKind::Sweep {
        return Err(CliError::Usage(format!(
            "--events captures the engine event stream of a `sweep` scenario; \
             kind `{}` does not support it",
            scenario.kind
        )));
    }
    let (text, report) = run_scenario(&scenario).map_err(CliError::Runtime)?;
    if let Some(path) = events_path {
        write_events(&scenario, path)?;
    }
    let payload = match format {
        Format::Text => text,
        Format::Json => report.to_json(),
        Format::Csv => report.to_csv(),
    };
    match out_path {
        Some(path) => std::fs::write(path, &payload)
            .map_err(|e| CliError::Runtime(format!("writing {path}: {e}")))?,
        None => print!("{payload}"),
    }
    Ok(())
}

/// Stream the `bas-events/v2` event stream of the scenario's **first trial**
/// to `path` via [`Scenario::stream_events`] — the same replay `bas serve`
/// streams to HTTP subscribers, so file captures and served streams are
/// byte-identical for the same scenario.
fn write_events(scenario: &Scenario, path: &str) -> Result<(), CliError> {
    let file =
        std::fs::File::create(path).map_err(|e| CliError::Runtime(format!("{path}: {e}")))?;
    let mut sink = scenario
        .stream_events(std::io::BufWriter::new(file))
        .map_err(|e| CliError::Runtime(format!("events capture: {e}")))?;
    sink.flush().map_err(|e| CliError::Runtime(format!("writing {path}: {e}")))?;
    Ok(())
}

/// Run a validated scenario, returning its historical text rendering and
/// the structured [`Report`]. The text is byte-identical to what the
/// retired per-artifact binaries printed for the same knobs.
pub fn run_scenario(scenario: &Scenario) -> Result<(String, Report), String> {
    let run = match scenario.kind {
        ScenarioKind::Sweep => presets::sweep::run,
        ScenarioKind::Table1 => presets::table1::run,
        ScenarioKind::Table2 => presets::table2::run,
        ScenarioKind::Fig4 => presets::fig4::run,
        ScenarioKind::Fig5 => presets::fig5::run,
        ScenarioKind::Fig6 => presets::fig6::run,
        ScenarioKind::Guidelines => presets::guidelines::run,
        ScenarioKind::Crossover => presets::crossover::run,
        ScenarioKind::Ablation => presets::ablation::run,
        ScenarioKind::CapacityCurve => presets::capacity_curve::run,
        ScenarioKind::Portfolio => presets::portfolio::run,
    };
    run(scenario)
}

/// Named presets: checked-in scenario files promoted into the catalog, run
/// by name like the built-in kinds (`bas quickstart`). Each is a curated
/// configuration of an existing [`ScenarioKind`] rather than a kind of its
/// own, so its knobs come from the file's kind.
pub const NAMED_PRESETS: &[(&str, &str)] = &[
    ("quickstart", "the Table-2 lineup on one paper-scale workload over a AAA NiMH cell"),
    ("sensor-node", "a battery-aware scheduler vs no-DVS on the hand-built sense/calibrate tasks"),
    ("media-player", "the video/UI/housekeeping pipeline lineup from the media-player example"),
    ("battery-explorer", "a small log-spaced constant-current capacity sweep of the NiMH cell"),
];

/// Load a named preset's checked-in scenario file (`scenarios/<name>.toml`).
fn load_named_preset(name: &str) -> Result<Scenario, CliError> {
    let path = format!("scenarios/{name}.toml");
    Scenario::load(Path::new(&path)).map_err(|e| {
        CliError::Runtime(format!("named preset `{name}` needs its checked-in file: {path}: {e}"))
    })
}

/// The preset catalog as machine-readable JSON (`bas list --format json`):
/// one object per preset with its name, description, knob names and the
/// checked-in scenario path, plus the list of scenario files on disk.
fn render_list_json() -> String {
    use bas_core::report::json_string as json_str;
    use std::fmt::Write as _;
    let mut out = String::from("{\n  \"presets\": [");
    for (i, kind) in ScenarioKind::ALL.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let knobs: Vec<String> = kind.fields().iter().map(|f| json_str(f)).collect();
        let _ = write!(
            out,
            "\n    {{\"name\": {}, \"description\": {}, \"scenario\": {}, \"knobs\": [{}]}}",
            json_str(kind.name()),
            json_str(kind.describe()),
            json_str(&format!("scenarios/{}.toml", kind.name())),
            knobs.join(", ")
        );
    }
    // Named presets ride along in the same array: their knobs are the
    // knobs of the checked-in file's kind.
    for (name, describe) in NAMED_PRESETS {
        let path = format!("scenarios/{name}.toml");
        let Ok(s) = Scenario::load(Path::new(&path)) else { continue };
        let knobs: Vec<String> = s.kind.fields().iter().map(|f| json_str(f)).collect();
        let _ = write!(
            out,
            ",\n    {{\"name\": {}, \"description\": {}, \"scenario\": {}, \"kind\": {}, \"knobs\": [{}]}}",
            json_str(name),
            json_str(describe),
            json_str(&path),
            json_str(s.kind.name()),
            knobs.join(", ")
        );
    }
    out.push_str("\n  ],\n  \"files\": [");
    let mut first = true;
    if let Ok(entries) = std::fs::read_dir("scenarios") {
        let mut files: Vec<String> = entries
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|x| x == "toml"))
            .map(|p| p.display().to_string())
            .collect();
        files.sort();
        for f in files {
            let Ok(s) = Scenario::load(Path::new(&f)) else { continue };
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(
                out,
                "\n    {{\"path\": {}, \"name\": {}, \"kind\": {}}}",
                json_str(&f),
                json_str(&s.name),
                json_str(s.kind.name())
            );
        }
    }
    if !first {
        out.push('\n');
        out.push_str("  ");
    }
    out.push_str("]\n}\n");
    out
}

fn render_list() -> String {
    let mut out = String::from("presets (run with `bas <name>`; files under scenarios/):\n");
    for kind in ScenarioKind::ALL {
        let fields = kind.fields();
        let knobs = if fields.is_empty() { "(no knobs)".to_string() } else { fields.join(", ") };
        out.push_str(&format!("  {:15} {}\n", kind.name(), kind.describe()));
        out.push_str(&format!("  {:15}   knobs: {}\n", "", knobs));
    }
    out.push_str("\nnamed presets (curated scenario files, run with `bas <name>`):\n");
    for (name, describe) in NAMED_PRESETS {
        out.push_str(&format!("  {name:15} {describe}\n"));
    }
    if let Ok(entries) = std::fs::read_dir("scenarios") {
        let mut files: Vec<String> = entries
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|x| x == "toml"))
            .map(|p| p.display().to_string())
            .collect();
        files.sort();
        if !files.is_empty() {
            out.push_str("\nscenario files (run with `bas run <file>`):\n");
            for f in files {
                match Scenario::load(Path::new(&f)) {
                    Ok(s) => out.push_str(&format!("  {f}  ({}, kind {})\n", s.name, s.kind)),
                    Err(e) => out.push_str(&format!("  {f}  (INVALID: {e})\n")),
                }
            }
        }
    }
    out
}

/// `writeln!` into the run's text buffer (infallible for `String`).
macro_rules! outln {
    ($out:expr) => { $out.push('\n') };
    ($out:expr, $($arg:tt)*) => {{
        use std::fmt::Write as _;
        writeln!($out, $($arg)*).expect("writing to String cannot fail");
    }};
}
pub(crate) use outln;
