//! The metrics registry: named counters, gauges, and histograms with
//! deterministic snapshots. Histograms are [`LogHistogram`]s, the same
//! mergeable log₂ histogram every layer reports latencies through.

use std::collections::BTreeMap;
use std::sync::Mutex;

use crate::stats::LogHistogram;

/// Registry state behind the mutex. `BTreeMap` keeps iteration order
/// deterministic (sorted by name) for snapshots and renders.
#[derive(Debug, Default)]
struct MetricsInner {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, LogHistogram>,
}

/// A registry of named counters, gauges, and histograms.
///
/// Shared behind an `Arc` by every [`super::Obs`] handle cloned from the
/// same root; all methods take `&self` (interior mutability). Metric
/// names are dotted lowercase paths (`"icap.words"`,
/// `"serve.latency_us"`) — the full catalogue lives in `OBSERVABILITY.md`.
///
/// # Example
///
/// ```
/// use uparc_sim::obs::Metrics;
///
/// let m = Metrics::new();
/// m.count("icap.bursts", 1);
/// m.count("icap.bursts", 2);
/// m.observe("serve.latency_us", 42.0);
/// let snap = m.snapshot();
/// assert_eq!(snap.counters["icap.bursts"], 3);
/// assert_eq!(snap.histograms["serve.latency_us"].count(), 1);
/// ```
#[derive(Debug, Default)]
pub struct Metrics {
    inner: Mutex<MetricsInner>,
}

impl Metrics {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Metrics {
        Metrics::default()
    }

    /// Adds `delta` to counter `name` (created at zero on first use).
    pub fn count(&self, name: &str, delta: u64) {
        let mut inner = self.inner.lock().expect("metrics poisoned");
        match inner.counters.get_mut(name) {
            Some(c) => *c += delta,
            None => {
                inner.counters.insert(name.to_owned(), delta);
            }
        }
    }

    /// Sets gauge `name` to `value` (last write wins).
    pub fn gauge(&self, name: &str, value: f64) {
        self.inner
            .lock()
            .expect("metrics poisoned")
            .gauges
            .insert(name.to_owned(), value);
    }

    /// Records `value` into histogram `name` (created empty on first use).
    pub fn observe(&self, name: &str, value: f64) {
        self.inner
            .lock()
            .expect("metrics poisoned")
            .histograms
            .entry(name.to_owned())
            .or_default()
            .observe(value);
    }

    /// A deterministic (name-sorted) copy of the registry's contents.
    #[must_use]
    pub fn snapshot(&self) -> MetricsSnapshot {
        let inner = self.inner.lock().expect("metrics poisoned");
        MetricsSnapshot {
            counters: inner.counters.clone(),
            gauges: inner.gauges.clone(),
            histograms: inner.histograms.clone(),
        }
    }

    /// Renders the registry as an aligned `name value` text table, one
    /// metric per line, histograms summarised as
    /// `count/mean/min/max/p99≤`. Deterministic for a given registry
    /// state.
    #[must_use]
    pub fn render_text(&self) -> String {
        self.snapshot().render_text()
    }
}

/// A point-in-time copy of a [`Metrics`] registry, name-sorted.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Counter name → accumulated value.
    pub counters: BTreeMap<String, u64>,
    /// Gauge name → last written value.
    pub gauges: BTreeMap<String, f64>,
    /// Histogram name → distribution.
    pub histograms: BTreeMap<String, LogHistogram>,
}

impl MetricsSnapshot {
    /// Whether the snapshot holds no metrics at all.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// The text rendering described on [`Metrics::render_text`].
    #[must_use]
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let width = self
            .counters
            .keys()
            .chain(self.gauges.keys())
            .chain(self.histograms.keys())
            .map(String::len)
            .max()
            .unwrap_or(0);
        for (name, v) in &self.counters {
            out.push_str(&format!("{name:<width$}  {v}\n"));
        }
        for (name, v) in &self.gauges {
            out.push_str(&format!("{name:<width$}  {v:.6}\n"));
        }
        for (name, h) in &self.histograms {
            out.push_str(&format!(
                "{name:<width$}  count={} mean={:.6} min={:.6} max={:.6} p99<={:.6}\n",
                h.count(),
                h.mean().unwrap_or(0.0),
                h.min().unwrap_or(0.0),
                h.max().unwrap_or(0.0),
                h.quantile_upper_bound(0.99),
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let m = Metrics::new();
        m.count("a", 1);
        m.count("a", 4);
        m.count("b", 2);
        let s = m.snapshot();
        assert_eq!(s.counters["a"], 5);
        assert_eq!(s.counters["b"], 2);
    }

    #[test]
    fn gauges_last_write_wins() {
        let m = Metrics::new();
        m.gauge("g", 1.0);
        m.gauge("g", 7.5);
        assert_eq!(m.snapshot().gauges["g"], 7.5);
    }

    #[test]
    fn render_text_is_deterministic_and_sorted() {
        let m = Metrics::new();
        m.count("z.last", 1);
        m.count("a.first", 2);
        m.observe("m.hist", 3.0);
        let a = m.render_text();
        let b = m.render_text();
        assert_eq!(a, b);
        let first = a.lines().next().unwrap();
        assert!(first.starts_with("a.first"), "sorted output: {first}");
    }

    #[test]
    fn empty_snapshot_is_empty() {
        assert!(Metrics::new().snapshot().is_empty());
    }
}
