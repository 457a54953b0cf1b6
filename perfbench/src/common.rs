//! Pieces every workload shares: seed derivation, scenario files, the
//! counting event sink, result fingerprints and process memory.

use bas_core::Scenario;
use bas_sim::Metrics;
use std::io;
use std::path::Path;

/// The `i`-th seed derived from the run's `--seed` (splitmix64), so every
/// input of a run follows from that one argument. Kept below 2^63: scenario
/// files hold seeds as TOML (signed 64-bit) integers.
pub fn derive_seed(seed: u64, i: u64) -> u64 {
    let mut z = seed ^ i.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(0x632b_e59b_d9b4_e019);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    (z ^ (z >> 31)) >> 1
}

/// A checked-in scenario file (`scenarios/<stem>.toml`, relative to the
/// repository root the benchmark runs from).
pub fn load_scenario(stem: &str) -> Result<Scenario, String> {
    let path = format!("scenarios/{stem}.toml");
    Scenario::load(Path::new(&path)).map_err(|e| format!("{path}: {e}"))
}

/// Streaming FNV-1a 64.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Fold `bytes` in.
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Fold a `u64` in (little-endian bytes).
    pub fn word(&mut self, w: u64) {
        self.update(&w.to_le_bytes());
    }

    /// FNV-1a of one buffer.
    pub fn of(bytes: &[u8]) -> u64 {
        let mut h = Fnv::default();
        h.update(bytes);
        h.0
    }
}

/// The JSONL tag a `decision` record starts with.
const DECISION_TAG: &[u8] = b"{\"type\":\"decision\"";

/// An event-stream sink that keeps nothing: it counts lines, bytes and
/// `decision` records and hashes the bytes. The counts do not depend on how
/// the writer splits the stream into `write` calls: a call may hold several
/// lines, or part of one.
#[derive(Debug)]
pub struct CountingSink {
    /// Newline-terminated lines seen.
    pub lines: u64,
    /// Bytes seen.
    pub bytes: u64,
    /// Lines that start with `{"type":"decision"`.
    pub decisions: u64,
    /// FNV-1a of every byte, in order.
    pub hash: Fnv,
    /// Bytes of [`DECISION_TAG`] the current line has matched so far;
    /// `None` once it can no longer match.
    tag: Option<usize>,
}

impl Default for CountingSink {
    fn default() -> Self {
        CountingSink { lines: 0, bytes: 0, decisions: 0, hash: Fnv::default(), tag: Some(0) }
    }
}

impl io::Write for CountingSink {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        for &b in buf {
            if b == b'\n' {
                self.lines += 1;
                self.tag = Some(0);
                continue;
            }
            self.tag = match self.tag {
                Some(k) if DECISION_TAG[k] == b => {
                    if k + 1 == DECISION_TAG.len() {
                        self.decisions += 1;
                        None
                    } else {
                        Some(k + 1)
                    }
                }
                _ => None,
            };
        }
        self.bytes += buf.len() as u64;
        self.hash.update(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Every field of `Metrics` as raw bits, for bit-equality checks and the
/// output digest.
pub fn metrics_bits(m: &Metrics) -> [u64; 13] {
    [
        m.sim_time.to_bits(),
        m.busy_time.to_bits(),
        m.idle_time.to_bits(),
        m.charge.to_bits(),
        m.cycles_executed.to_bits(),
        m.energy.to_bits(),
        m.nodes_completed,
        m.instances_completed,
        m.instances_released,
        m.deadline_misses,
        m.decisions,
        m.preemptions,
        m.makespan.to_bits(),
    ]
}

/// Peak resident set size of this process (`VmHWM`), megabytes.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|l| {
                l.strip_prefix("VmHWM:")
                    .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            })
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}
