//! `bas serve` — run the scheduling-as-a-service daemon with the full CLI
//! backend.
//!
//! The daemon itself lives in `bas-serve`; this module contributes the
//! [`CliService`] backend (every preset runner plus the on-disk catalog)
//! and the flag surface, then blocks in `Server::run` until SIGINT/SIGTERM
//! drains it.

use crate::args::Args;
use crate::CliError;
use bas_core::{Report, Scenario};
use bas_serve::{ScenarioService, ServeConfig, Server};
use std::sync::Arc;

/// The full-CLI execution backend: jobs run through the same preset
/// runners as `bas run`, so served reports are byte-identical to local
/// `--format json` output, and `/v1/presets` serves the same catalog as
/// `bas list --format json`.
#[derive(Debug, Clone, Copy, Default)]
pub struct CliService;

impl ScenarioService for CliService {
    fn run(&self, scenario: &Scenario) -> Result<Report, String> {
        crate::run_scenario(scenario).map(|(_text, report)| report)
    }

    fn presets_json(&self) -> String {
        crate::render_list_json()
    }
}

/// Run `bas serve` with parsed flags. Recognized: `--addr HOST:PORT`,
/// `--workers N`, `--queue-depth N`, `--cache N`, `--max-trials N`,
/// `--max-horizon SECONDS`, `--max-body-bytes N`, `--state-dir DIR`,
/// `--state-max-bytes N`, `--quiet`.
pub fn run(args: &Args) -> Result<(), CliError> {
    let mut config = ServeConfig::default();
    for (key, value) in &args.flags {
        match key.as_str() {
            "addr" => config.addr = value.clone(),
            "workers" => config.workers = parse_count(key, value)?,
            "queue-depth" => config.queue_depth = parse_count(key, value)?,
            "cache" => config.cache_capacity = parse_count(key, value)?,
            "max-trials" => config.max_trials = parse_count(key, value)?,
            "max-horizon" => {
                config.max_horizon =
                    value.parse::<f64>().ok().filter(|h| *h > 0.0).ok_or_else(|| {
                        CliError::Usage(format!(
                            "`bas serve --max-horizon` needs positive seconds, got {value:?}"
                        ))
                    })?;
            }
            "max-body-bytes" => config.max_body_bytes = parse_count(key, value)?,
            "state-dir" => {
                if value.is_empty() {
                    return Err(CliError::Usage(
                        "`bas serve --state-dir` needs a directory path".into(),
                    ));
                }
                config.state_dir = Some(value.into());
            }
            "state-max-bytes" => {
                config.state_max_bytes = value.parse::<u64>().ok().filter(|n| *n > 0).ok_or_else(
                    || {
                        CliError::Usage(format!(
                            "`bas serve --state-max-bytes` needs a positive byte count, got {value:?}"
                        ))
                    },
                )?;
            }
            "quiet" => config.quiet = true,
            key => {
                return Err(CliError::Usage(format!("`bas serve` takes no --{key} flag")));
            }
        }
    }
    let server = Server::bind(config.clone(), Arc::new(CliService))
        .map_err(|e| CliError::Runtime(format!("binding {}: {e}", config.addr)))?;
    let addr = server
        .local_addr()
        .map_err(|e| CliError::Runtime(format!("resolving bound address: {e}")))?;
    // The listening line is the startup contract: scripts (CI's e2e job,
    // the CLI tests) parse the ephemeral port from it, so it goes out on
    // stdout, flushed, before the first request can be accepted.
    println!("bas serve listening on http://{addr}");
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    bas_serve::signal::install(server.handle());
    server.run().map_err(|e| CliError::Runtime(format!("serve loop: {e}")))
}

fn parse_count(key: &str, value: &str) -> Result<usize, CliError> {
    value.parse::<usize>().map_err(|_| {
        CliError::Usage(format!("`bas serve --{key}` needs a non-negative integer, got {value:?}"))
    })
}
