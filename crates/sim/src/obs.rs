//! Structured observability: typed trace events, a metrics registry, and
//! deterministic exporters.
//!
//! The paper's entire evaluation method is *instrumentation* — a
//! shunt-resistor/oscilloscope rig that turns reconfiguration activity
//! into timestamped power waveforms (Fig. 6–7). This module is the
//! software analogue for the whole stack: every subsystem (the ICAP burst
//! path, DyCloGen retunes, the compressed datapath, the recovery ladder,
//! the `uparc-serve` scheduler) reports *typed* spans and instants stamped
//! with [`SimTime`], and feeds named counters/gauges/histograms, through
//! one cheap handle — [`Obs`].
//!
//! # Architecture
//!
//! ```text
//!   UParc ── DyCloGen ── Icap ── RecoveryPolicy ── Service
//!      \        |          |          |              /
//!       `───────┴──────────┴── Obs ───┴─────────────'      (cheap handle:
//!                               │                           lane tag +
//!                  ┌────────────┴─────────────┐             optional
//!                  ▼                          ▼             recorder)
//!     Option<Arc<TraceRecorder>>           Metrics
//!       (None = disabled)               (counters/gauges/
//!                  │                     log₂ histograms)
//!                  ▼                          │
//!         ring buffer of TraceEvent           │
//!                  │                          │
//!        ┌─────────┴──────────┐               │
//!        ▼                    ▼               ▼
//!  chrome_trace()      flame_summary()   render_text()
//!  (chrome://tracing,  (per-lane text    (aligned name/
//!   Perfetto)           flamegraph)       value table)
//! ```
//!
//! # Design constraints
//!
//! * **Zero dependencies** — events, metrics, the Chrome `trace_event`
//!   exporter and the [`json`] round-trip parser are all std-only.
//! * **Hot path stays clean** — the default [`Obs::null`] handle carries
//!   no recorder and reports [`Obs::enabled`]` == false`; every
//!   instrumentation site guards on that single check, so an unobserved
//!   run does no formatting, no locking and no allocation
//!   (`bench_throughput` gates the overhead at ≤2%).
//! * **Determinism** — recorders stamp [`SimTime`] (never wall clock),
//!   span ids are assigned monotonically, histograms bucket on exact
//!   float exponent and mantissa bits, and exporters format floats with
//!   fixed precision, so
//!   identical seeds produce byte-identical exports.
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use uparc_sim::obs::{EventKind, Obs, TraceRecorder};
//! use uparc_sim::time::SimTime;
//!
//! let recorder = Arc::new(TraceRecorder::new());
//! let obs = Obs::recording(Arc::clone(&recorder)).with_lane(0);
//!
//! let span = obs.begin(SimTime::ZERO, EventKind::IcapBurst { words: 1024 });
//! obs.count("icap.words", 1024);
//! obs.end(SimTime::from_us(3), span);
//!
//! let trace = recorder.chrome_trace(Some(obs.metrics()));
//! assert!(trace.contains("\"IcapBurst\""));
//! // The export is valid JSON by the in-repo parser:
//! uparc_sim::obs::json::parse(&trace).unwrap();
//! ```

mod event;
mod export;
pub mod json;
mod metrics;
mod recorder;

pub use event::{EventKind, SpanId, TraceEvent};
pub use export::{chrome_trace, flame_summary};
pub use metrics::{Metrics, MetricsSnapshot};
pub use recorder::TraceRecorder;

use crate::time::SimTime;
use std::sync::{Arc, OnceLock};

/// The cheap, clonable observability handle every instrumented component
/// holds: an optional [`TraceRecorder`] for spans/instants, a [`Metrics`]
/// registry and an optional lane/region tag.
///
/// The default ([`Obs::null`]) is a no-op: [`Obs::enabled`] is `false`
/// and every call returns immediately after one branch. Components must
/// treat the handle as fire-and-forget — observability never changes
/// simulated time or behaviour.
#[derive(Clone)]
pub struct Obs {
    /// `None` for the disabled handle — the one branch hot paths pay.
    recorder: Option<Arc<TraceRecorder>>,
    metrics: Arc<Metrics>,
    /// Lane (serve: region index) stamped onto every event sent through
    /// this handle; `None` for system-wide events.
    lane: Option<u32>,
}

impl Obs {
    /// The disabled handle: no recorder and a shared throwaway registry.
    /// Allocation-free (the registry is a process-wide static).
    #[must_use]
    pub fn null() -> Obs {
        static NULL_METRICS: OnceLock<Arc<Metrics>> = OnceLock::new();
        let metrics = Arc::clone(NULL_METRICS.get_or_init(|| Arc::new(Metrics::new())));
        Obs {
            recorder: None,
            metrics,
            lane: None,
        }
    }

    /// An enabled handle over `recorder` with a fresh [`Metrics`]
    /// registry.
    #[must_use]
    pub fn recording(recorder: Arc<TraceRecorder>) -> Obs {
        Obs::new(recorder, Arc::new(Metrics::new()))
    }

    /// An enabled handle over an explicit recorder + registry pair.
    #[must_use]
    pub fn new(recorder: Arc<TraceRecorder>, metrics: Arc<Metrics>) -> Obs {
        Obs {
            recorder: Some(recorder),
            metrics,
            lane: None,
        }
    }

    /// A copy of this handle with every event tagged with `lane` (the
    /// serve layer tags one handle per region).
    #[must_use]
    pub fn with_lane(&self, lane: u32) -> Obs {
        let mut o = self.clone();
        o.lane = Some(lane);
        o
    }

    /// The lane tag of this handle, if any.
    #[must_use]
    pub fn lane(&self) -> Option<u32> {
        self.lane
    }

    /// Whether events are actually recorded. Instrumentation sites that
    /// would otherwise compute event payloads should guard on this.
    #[must_use]
    #[inline]
    pub fn enabled(&self) -> bool {
        self.recorder.is_some()
    }

    /// The metrics registry behind this handle.
    #[must_use]
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Opens a span of `kind` at `at`; returns its id for [`Obs::end`].
    /// No-op ([`SpanId::NULL`]) when disabled.
    #[inline]
    pub fn begin(&self, at: SimTime, kind: EventKind) -> SpanId {
        match &self.recorder {
            Some(recorder) => recorder.begin(at, self.lane, kind),
            None => SpanId::NULL,
        }
    }

    /// Closes span `span` at `at`. No-op when disabled or `span` is
    /// [`SpanId::NULL`].
    #[inline]
    pub fn end(&self, at: SimTime, span: SpanId) {
        if let Some(recorder) = &self.recorder {
            if span != SpanId::NULL {
                recorder.end(at, span);
            }
        }
    }

    /// Records a zero-duration instant of `kind` at `at`.
    #[inline]
    pub fn instant(&self, at: SimTime, kind: EventKind) {
        if let Some(recorder) = &self.recorder {
            recorder.instant(at, self.lane, kind);
        }
    }

    /// Adds `delta` to counter `name`. No-op when disabled.
    #[inline]
    pub fn count(&self, name: &str, delta: u64) {
        if self.enabled() {
            self.metrics.count(name, delta);
        }
    }

    /// Sets gauge `name` to `value`. No-op when disabled.
    #[inline]
    pub fn gauge(&self, name: &str, value: f64) {
        if self.enabled() {
            self.metrics.gauge(name, value);
        }
    }

    /// Records `value` into histogram `name`. No-op when disabled.
    #[inline]
    pub fn observe(&self, name: &str, value: f64) {
        if self.enabled() {
            self.metrics.observe(name, value);
        }
    }
}

impl Default for Obs {
    fn default() -> Obs {
        Obs::null()
    }
}

impl std::fmt::Debug for Obs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Obs")
            .field("enabled", &self.enabled())
            .field("lane", &self.lane)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_handle_is_disabled_and_free() {
        let obs = Obs::null();
        assert!(!obs.enabled());
        let span = obs.begin(SimTime::ZERO, EventKind::Dispatch { request: 1 });
        assert_eq!(span, SpanId::NULL);
        obs.end(SimTime::from_us(1), span);
        obs.count("x", 1);
        obs.observe("y", 2.0);
        // Nothing reached the (shared) null registry.
        assert!(obs.metrics().snapshot().counters.is_empty());
    }

    #[test]
    fn recording_handle_captures_spans_with_lane_tags() {
        let rec = Arc::new(TraceRecorder::new());
        let obs = Obs::recording(Arc::clone(&rec)).with_lane(3);
        assert!(obs.enabled());
        let s = obs.begin(SimTime::from_us(1), EventKind::IcapBurst { words: 8 });
        obs.end(SimTime::from_us(2), s);
        obs.instant(
            SimTime::from_us(2),
            EventKind::CapSample {
                total_mw: 100.0,
                cap_mw: 500.0,
            },
        );
        let events = rec.events();
        assert_eq!(events.len(), 3);
        match &events[0] {
            TraceEvent::Begin { lane, .. } => assert_eq!(*lane, Some(3)),
            other => panic!("expected Begin, got {other:?}"),
        }
    }

    #[test]
    fn with_lane_does_not_alias_the_parent_tag() {
        let rec = Arc::new(TraceRecorder::new());
        let root = Obs::recording(rec);
        let tagged = root.with_lane(7);
        assert_eq!(root.lane(), None);
        assert_eq!(tagged.lane(), Some(7));
    }
}
