//! The result: metrics by name and unit, correctness checks, and the
//! closing JSON line.

use std::fmt::Write as _;

/// Metrics and check outcomes of one invocation.
#[derive(Debug, Default)]
pub struct Report {
    metrics: Vec<(String, f64, &'static str)>,
    failures: Vec<String>,
    /// Operations attempted in the measured run.
    pub attempted: u64,
    /// Operations that ended in an error no correct run produces.
    pub failed: u64,
}

impl Report {
    /// Records a metric.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    /// Records a correctness check; a false `ok` fails the run.
    pub fn check(&mut self, ok: bool, what: impl Into<String>) {
        let what = what.into();
        println!("check {}: {what}", if ok { "ok  " } else { "FAIL" });
        if !ok {
            self.failures.push(what);
        }
    }

    /// True when every check passed and every metric is a finite number.
    pub fn correct(&self) -> bool {
        self.failures.is_empty() && self.metrics.iter().all(|(_, v, _)| v.is_finite())
    }

    /// Prints every metric as a table line, then the JSON result line.
    pub fn print(&self) {
        for (name, value, unit) in &self.metrics {
            println!("metric {name:<40} {value:>16.4} {unit}");
        }
        let mut json = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let value = if value.is_finite() { *value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            write!(
                json,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            )
            .expect("write to string");
        }
        json.push_str("}}");
        println!("{json}");
    }
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Nearest-rank percentile of sorted nanosecond samples, in microseconds
/// (0 when there are none).
pub fn percentile_us(sorted_ns: &[u64], q: f64) -> f64 {
    if sorted_ns.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted_ns.len() as f64).ceil().max(1.0) as usize;
    sorted_ns[rank.min(sorted_ns.len()) - 1] as f64 / 1e3
}

/// Median of a non-empty list.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Peak resident set size of this process, in MiB (Linux `VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}
