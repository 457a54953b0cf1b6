//! Turning a run's measurements into named metrics and the result line.

use crate::probe::{Counters, BATTERY_MODELS, DVS_SPECS, EVENT_KINDS};
use crate::serve_mix::Log;
use crate::spans::{durations_ms, Span};
use crate::stats::{median, Latency};
use bas_serve::ServeStats;
use std::fmt::Write as _;

/// Named metrics in print order.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<(String, f64, &'static str)>);

impl Metrics {
    /// Append one metric.
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }

    /// Look a metric up by name.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _, _)| n == name).map(|m| m.1)
    }

    /// The result line: `{"correct": …, "attempted": …, "failed": …,
    /// "metrics": {…}}`. Non-finite values are written as `null`.
    pub fn result_json(&self, correct: bool, attempted: u64, failed: u64) -> String {
        let mut out = format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
        );
        for (i, (name, value, unit)) in self.0.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let value = if value.is_finite() { format!("{value}") } else { "null".to_string() };
            let _ = write!(out, "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}");
        }
        out.push_str("}}");
        out
    }
}

/// The measurements behind the end-to-end metrics of one timed phase.
pub struct EndToEnd<'a> {
    /// Scheduling decisions completed.
    pub decisions: u64,
    /// Requests (ops) completed and checked.
    pub completed: u64,
    /// Wall time of the phase, seconds.
    pub seconds: f64,
    /// Latency of requests answered without running the engine, ms.
    pub hit_ms: &'a [f64],
    /// Latency of requests that run the engine, ms.
    pub job_ms: &'a [f64],
}

impl EndToEnd<'_> {
    /// The phase's throughput and latency metrics, with a describing line
    /// per latency population.
    pub fn metrics(&self, out: &mut Metrics, notes: &mut Vec<String>) {
        out.push("steps_per_s", self.decisions as f64 / self.seconds, "1/s");
        out.push("req_per_s", self.completed as f64 / self.seconds, "1/s");
        for (prefix, samples) in [("hit", self.hit_ms), ("job", self.job_ms)] {
            let lat = Latency::of(samples);
            if let Some(lat) = lat {
                notes.push(lat.describe(&format!("{prefix} latency"), "ms"));
            }
            out.push(format!("{prefix}_p50_ms"), lat.map_or(f64::NAN, |l| l.p50), "ms");
            out.push(format!("{prefix}_tail_ms"), lat.map_or(f64::NAN, |l| l.tail.value), "ms");
        }
    }
}

/// What the daemon side of a traced run measured.
pub struct ServeSide<'a> {
    /// The client log of the traced requests.
    pub log: &'a Log,
    /// The daemon's final counters.
    pub stats: ServeStats,
    /// Samples of the daemon's queue length.
    pub queued: &'a [f64],
    /// `store` fields of the final `/v1/healthz`: bytes, entries,
    /// hydrations.
    pub store: [f64; 3],
}

fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        f64::NAN
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        f64::NAN
    }
}

/// Every per-layer metric of a traced run.
pub fn layer_metrics(spans: &[Span], c: &Counters, serve: &ServeSide<'_>, out: &mut Metrics) {
    out.push("scenario.parse_us", mean(&durations_ms(spans, "scenario.parse")) * 1e3, "us");
    out.push("scenario.digest_us", mean(&durations_ms(spans, "scenario.digest")) * 1e3, "us");

    let gen = durations_ms(spans, "workload.gen");
    out.push("workload.gen_ms", mean(&gen), "ms");
    out.push("workload.gen_calls", gen.len() as f64, "count");
    out.push("workload.nodes", c.get("workload.nodes"), "count");

    out.push("mapping.ms", mean(&durations_ms(spans, "mapping.map")), "ms");

    out.push("engine.runs", c.get("engine.runs"), "count");
    out.push("engine.steps", c.get("engine.steps"), "count");
    let busy: f64 =
        spans.iter().filter(|s| s.layer() == "engine").map(|s| s.duration_ns() as f64).sum();
    out.push("engine.busy_ms", busy / 1e6, "ms");
    out.push("engine.ns_per_step", ratio(c.get("engine.plain_ns"), c.get("engine.steps")), "ns");
    for kind in EVENT_KINDS {
        let name = format!("engine.events.{kind}");
        out.push(name.clone(), c.get(&name), "count");
    }

    for (name, _) in DVS_SPECS {
        let v = ratio(c.get(&format!("{name}.ns")), c.get(&format!("{name}.steps")));
        out.push(format!("{name}.ns_per_step"), v, "ns");
    }

    for (name, _) in BATTERY_MODELS {
        let v = ratio(c.get(&format!("{name}.ns")), c.get(&format!("{name}.legs")));
        out.push(format!("{name}.ns_per_leg"), v, "ns");
    }
    out.push("battery.legs", c.get("battery.legs"), "count");
    let (with, without) = (c.get("battery.cell_ns"), c.get("battery.plain_ns"));
    out.push("battery.share", ratio(with - without, with), "ratio");

    let (stream, plain) = (c.get("jsonl.stream_ns"), c.get("jsonl.plain_ns"));
    out.push("jsonl.lines", c.get("jsonl.lines"), "count");
    out.push("jsonl.bytes", c.get("jsonl.bytes"), "B");
    out.push("jsonl.ns_per_line", ratio(stream - plain, c.get("jsonl.lines")), "ns");
    out.push("jsonl.share", ratio(stream - plain, stream), "ratio");

    out.push("report.json_us", mean(&durations_ms(spans, "report.json")) * 1e3, "us");
    out.push("report.bytes", c.get("report.bytes"), "B");

    out.push("cli.run_ms", mean(&durations_ms(spans, "cli.run")), "ms");

    for route in ["submit", "status", "report", "events", "healthz"] {
        let v = serve.log.route_ms.get(route).map_or(&[][..], Vec::as_slice);
        out.push(format!("http.{route}.p50_ms"), median(v), "ms");
        out.push(format!("http.{route}.count"), v.len() as f64, "count");
    }
    out.push("http.connect_us", median(&serve.log.connect_us), "us");
    out.push("http.non2xx", serve.log.non2xx as f64, "count");

    let s = serve.stats;
    out.push("server.submitted", s.submitted as f64, "count");
    out.push("server.executed", s.executed as f64, "count");
    out.push("server.cache_hits", s.cache_hits as f64, "count");
    out.push("server.hit_ratio", ratio(s.cache_hits as f64, s.submitted as f64), "ratio");
    out.push("server.queued_mean", mean(serve.queued), "count");
    out.push("server.job_wait_ms", median(&serve.log.job_wait_ms), "ms");

    out.push("store.open_ms", mean(&durations_ms(spans, "store.open")), "ms");
    out.push("store.commit_ms", mean(&durations_ms(spans, "store.commit")), "ms");
    out.push("store.load_ms", mean(&durations_ms(spans, "store.load")), "ms");
    out.push("store.bytes", serve.store[0], "B");
    out.push("store.entries", serve.store[1], "count");
    out.push("store.hydrations", serve.store[2], "count");
}
