//! Scheduling-as-a-service: the daemon behind `bas serve`.
//!
//! A long-running HTTP/1.1 server that accepts scenario submissions (TOML
//! or JSON bodies), executes them on a fixed-size worker pool, caches
//! completed reports by [`Scenario::digest`](bas_core::Scenario::digest),
//! and streams deterministic `bas-events/v2` replays on request. Hand-rolled on
//! `std::net` — the build environment is offline, so no hyper/tokio; plain
//! blocking threads are also simply enough for a simulation service whose
//! unit of work is seconds of compute.
//!
//! # Surface
//!
//! | Endpoint | Meaning |
//! |---|---|
//! | `POST /v1/jobs` | Submit a scenario; returns job id + digest. Identical submissions coalesce onto one job (single-flight) and completed digests are served from an LRU result cache. |
//! | `GET /v1/jobs/<id>` | Job status; embeds the `bas-report/v1` report once done. |
//! | `GET /v1/jobs/<id>/report` | The raw report, byte-for-byte what `bas run <scenario> --format json` prints. |
//! | `GET /v1/jobs/<id>/events` | Chunked `bas-events/v2` JSONL first-trial replay, byte-for-byte what `bas run --events` writes, for a job in any state. At most one replay per worker runs at once (`429` beyond). |
//! | `GET /v1/jobs/<id>/events?follow=1` | Accepted for compatibility; returns the same stream. |
//! | `GET /v1/presets` | The preset catalog. |
//! | `GET /v1/healthz` | Counters + drain state (+ [`store`] counters when persistence is on). |
//!
//! Backpressure is explicit: the submission queue is bounded
//! (`--queue-depth`) and a full queue answers `429` with `Retry-After`;
//! per-request budgets (`--max-trials`, `--max-horizon`, body size cap)
//! answer `422`/`413`. SIGINT/SIGTERM drain gracefully: stop accepting,
//! finish queued jobs, exit 0.
//!
//! With `--state-dir` the result cache is **durable**: completed reports
//! are written through to a checksummed on-disk [`store`] and survive
//! restarts — a warm daemon serves previously computed digests
//! byte-identical with zero recomputation, and crash recovery quarantines
//! (never serves) anything torn or corrupt.
//!
//! The crate deliberately does not depend on `bas-cli` (which depends on
//! it): executors plug in through [`ScenarioService`], with
//! [`SweepService`] as the built-in sweep-only backend.

#![deny(unsafe_code)] // `signal.rs` carries the single, documented exception
#![warn(missing_docs)]

pub mod cache;
pub mod http;
pub mod json;
mod server;
mod service;
pub mod signal;
pub mod store;

pub use server::{ServeConfig, ServeStats, Server, ServerHandle, SCHEMA};
pub use service::{ScenarioService, SweepService};
