//! Order statistics used by every metric: medians, quartiles and the tail
//! rule.

/// Median of `values` (mean of the two middle values for an even count).
/// Returns `NaN` for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The tail of a latency sample: the highest percentile that still has at
/// least ten samples beyond it, i.e. the eleventh-largest sample. Its
/// percentile is `100 · (n − 10) / n`, so it moves smoothly with the sample
/// count instead of jumping between fixed rungs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The sample value at the tail percentile.
    pub value: f64,
    /// The percentile the value sits at, in `[0, 100]`.
    pub percentile: f64,
    /// How many samples the tail was taken over.
    pub samples: usize,
}

/// Samples that must lie beyond the reported tail.
pub const TAIL_BEYOND: usize = 10;

/// The tail of `samples` by the rule above, or `None` when there are not
/// more than [`TAIL_BEYOND`] samples (no value has ten samples beyond it).
pub fn tail(samples: &[f64]) -> Option<Tail> {
    let n = samples.len();
    if n <= TAIL_BEYOND {
        return None;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    Some(Tail {
        value: v[n - 1 - TAIL_BEYOND],
        percentile: 100.0 * (n - TAIL_BEYOND) as f64 / n as f64,
        samples: n,
    })
}

/// Median and tail of one latency population, in the samples' unit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Latency {
    /// Median sample.
    pub p50: f64,
    /// The tail by [`tail`]; the maximum (at percentile 100) when the
    /// population is too small for the rule.
    pub tail: Tail,
}

impl Latency {
    /// Summarise a non-empty population; `None` when it is empty.
    pub fn of(samples: &[f64]) -> Option<Latency> {
        if samples.is_empty() {
            return None;
        }
        let max = samples.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let tail =
            tail(samples).unwrap_or(Tail { value: max, percentile: 100.0, samples: samples.len() });
        Some(Latency { p50: median(samples), tail })
    }

    /// One human-readable line: `name p50 … ms, p98.5 … ms (n=…)`.
    pub fn describe(&self, name: &str, unit: &str) -> String {
        format!(
            "{name}: p50 {:.4} {unit}, tail p{:.2} {:.4} {unit} (n={})",
            self.p50, self.tail.percentile, self.tail.value, self.tail.samples
        )
    }
}
