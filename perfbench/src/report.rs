//! Metric collection, correctness checks and the result line.

use std::fmt::Write as _;
use std::time::Duration;

/// Untimed batches before timing starts: first-touch page faults and
/// allocator growth stay out of the timed batches.
pub const WARM_UP: Duration = Duration::from_secs(1);
/// Fewest timed batches per run, whatever `--seconds` says.
pub const MIN_BATCHES: usize = 3;

/// One named measurement with its unit.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// Everything one workload run produced.
#[derive(Default)]
pub struct Report {
    /// Simulated requests offered to the system across the timed batches.
    pub attempted: u64,
    /// Requests of batches that failed a per-batch check.
    pub failed: u64,
    /// `(check, passed)`, in the order the checks ran.
    pub checks: Vec<(String, bool)>,
    pub metrics: Vec<Metric>,
    /// Human-readable detail printed above the result line.
    pub detail: Vec<(String, String)>,
}

impl Report {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    pub fn check(&mut self, name: impl Into<String>, passed: bool) {
        self.checks.push((name.into(), passed));
    }

    pub fn detail(&mut self, key: &str, value: impl ToString) {
        self.detail.push((key.to_owned(), value.to_string()));
    }

    pub fn detail_values(&mut self, key: &str, xs: &[f64]) {
        let values: Vec<String> = xs.iter().map(|x| format!("{x:.4}")).collect();
        self.detail(key, values.join(" "));
    }

    /// Every check passed and every metric is a finite number.
    pub fn correct(&self) -> bool {
        self.checks.iter().all(|(_, ok)| *ok) && self.metrics.iter().all(|m| m.value.is_finite())
    }

    /// Prints the checks, the metrics and the detail lines for a reader,
    /// then the machine-read result object as the last line.
    pub fn print(&self) {
        for (name, ok) in &self.checks {
            println!("check {name}: {}", if *ok { "ok" } else { "FAILED" });
        }
        for m in &self.metrics {
            println!("{:<28} {:>16.6} {}", m.name, m.value, m.unit);
        }
        for (k, v) in &self.detail {
            println!("detail {k}: {v}");
        }
        let correct = self.correct();
        // A failed global check fails every attempted request.
        let failed = if correct {
            self.failed
        } else {
            self.attempted.max(1)
        };
        let mut line = format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{",
            self.attempted
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            // JSON has no NaN or infinity; such a metric fails the run.
            let value = if m.value.is_finite() {
                format!("{:?}", m.value)
            } else {
                "null".to_owned()
            };
            let _ = write!(
                line,
                "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        line.push_str("}}");
        println!("{line}");
    }
}

/// Median of `xs` (mean of the middle pair for an even count).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of nothing");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Peak resident set size of this process, MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}
