//! Order statistics and the result record every workload fills in.

use std::collections::BTreeMap;

/// Median of `v` (mean of the two middle values for an even count);
/// NaN when empty.
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let m = s.len() / 2;
    if s.len() % 2 == 1 {
        s[m]
    } else {
        0.5 * (s[m - 1] + s[m])
    }
}

/// Geometric mean; NaN when empty.
pub fn geomean(v: &[f64]) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    (v.iter().map(|x| x.ln()).sum::<f64>() / v.len() as f64).exp()
}

/// Nearest-rank percentile `q` in `[0, 1]` of an ascending slice.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The tail percentile a sample of `n` supports: p99 from 1000 samples
/// on, otherwise the highest percentile that still has at least ten
/// samples beyond it, and never below the median.
pub fn tail_quantile(n: usize) -> f64 {
    if n >= 1000 {
        0.99
    } else {
        (1.0 - 10.0 / n.max(1) as f64).max(0.5)
    }
}

/// A resident-set figure of this process from `/proc/self/status` in
/// MB: `VmRSS` (now) or `VmHWM` (peak); 0 when `/proc` is unavailable.
pub fn rss_mb(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.strip_prefix(field).is_some_and(|r| r.starts_with(':')))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb * 1024.0 / 1e6)
}

/// One measured metric; its unit is fixed by the metric list in
/// `main.rs`.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    /// Samples the value was derived from (shown in the table).
    pub samples: usize,
}

/// What one run attempted, what failed and why, and the metrics.
#[derive(Default)]
pub struct RunResult {
    pub attempted: u64,
    /// Failures by typed cause (unconverged, residual, setup, …).
    pub failures: BTreeMap<String, u64>,
    /// Output checks that failed: the program claimed success for a
    /// result that does not verify. Any entry makes the run incorrect.
    pub wrong: Vec<String>,
    pub metrics: Vec<Metric>,
}

impl RunResult {
    /// Counts one attempted operation; `failure` names its cause.
    pub fn op(&mut self, failure: Option<&str>) {
        self.attempted += 1;
        if let Some(cause) = failure {
            *self.failures.entry(cause.to_string()).or_insert(0) += 1;
        }
    }

    pub fn failed(&self) -> u64 {
        self.failures.values().sum()
    }

    /// Records an output that does not verify (capped, so a systematic
    /// defect cannot flood memory; every one is still counted as failed
    /// by the caller).
    pub fn wrong(&mut self, what: String) {
        if self.wrong.len() < 64 {
            self.wrong.push(what);
        }
    }

    pub fn put(&mut self, name: &'static str, value: f64, samples: usize) {
        self.metrics.push(Metric { name, value, samples });
    }
}
