//! The ring-buffered in-memory trace recorder.

use super::event::{EventKind, SpanId, TraceEvent};
use super::export;
use super::metrics::Metrics;
use crate::time::SimTime;
use std::collections::VecDeque;
use std::sync::Mutex;

/// Ring-buffer state behind the mutex.
#[derive(Debug)]
struct TraceBuf {
    events: VecDeque<TraceEvent>,
    /// Next span id to hand out (ids start at 1; 0 is [`SpanId::NULL`]).
    next_span: u64,
    /// Events evicted because the ring was full.
    dropped: u64,
}

/// An in-memory, bounded recorder: the last `capacity` events are kept,
/// older ones are evicted FIFO (and counted, so exports can flag the
/// truncation instead of silently presenting a partial timeline).
///
/// Methods take `&self` (interior mutability) so one recorder can be
/// shared across every component of a system behind an `Arc`. The
/// simulation is single-threaded, so contention is nil; the recorder is
/// `Send + Sync` so sweep harnesses can run observed scenarios on worker
/// threads.
///
/// # Example
///
/// ```
/// use uparc_sim::obs::{EventKind, TraceRecorder};
/// use uparc_sim::time::SimTime;
///
/// let rec = TraceRecorder::with_capacity(2);
/// for i in 0..3 {
///     rec.instant(SimTime::from_us(i), None, EventKind::RecoveryRung { rung: "restage" });
/// }
/// assert_eq!(rec.events().len(), 2); // ring kept the newest two
/// assert_eq!(rec.dropped(), 1);
/// ```
#[derive(Debug)]
pub struct TraceRecorder {
    buf: Mutex<TraceBuf>,
    capacity: usize,
}

/// Default ring capacity: a full `bench_service` run is ~10⁴ events, so
/// 2²⁰ leaves ample headroom while bounding memory at tens of MB.
const DEFAULT_CAPACITY: usize = 1 << 20;

impl TraceRecorder {
    /// A recorder with the default ring capacity (2²⁰ events).
    #[must_use]
    pub fn new() -> Self {
        TraceRecorder::with_capacity(DEFAULT_CAPACITY)
    }

    /// A recorder keeping at most `capacity` events (≥ 1).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(capacity > 0, "ring capacity must be non-zero");
        TraceRecorder {
            buf: Mutex::new(TraceBuf {
                events: VecDeque::with_capacity(capacity.min(4096)),
                next_span: 1,
                dropped: 0,
            }),
            capacity,
        }
    }

    fn push(&self, ev: TraceEvent) {
        let mut buf = self.buf.lock().expect("trace buffer poisoned");
        if buf.events.len() == self.capacity {
            buf.events.pop_front();
            buf.dropped += 1;
        }
        buf.events.push_back(ev);
    }

    /// A snapshot of the buffered events, in emission order.
    #[must_use]
    pub fn events(&self) -> Vec<TraceEvent> {
        self.buf
            .lock()
            .expect("trace buffer poisoned")
            .events
            .iter()
            .cloned()
            .collect()
    }

    /// Number of buffered events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.buf.lock().expect("trace buffer poisoned").events.len()
    }

    /// Whether the buffer is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events evicted by the ring so far.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.buf.lock().expect("trace buffer poisoned").dropped
    }

    /// Drops all buffered events (span-id assignment keeps counting).
    pub fn clear(&self) {
        let mut buf = self.buf.lock().expect("trace buffer poisoned");
        buf.events.clear();
        buf.dropped = 0;
    }

    /// Opens a span; returns a fresh id (monotonic per recorder).
    pub fn begin(&self, at: SimTime, lane: Option<u32>, kind: EventKind) -> SpanId {
        let span = {
            let mut buf = self.buf.lock().expect("trace buffer poisoned");
            let id = SpanId(buf.next_span);
            buf.next_span += 1;
            id
        };
        self.push(TraceEvent::Begin {
            at,
            span,
            lane,
            kind,
        });
        span
    }

    /// Closes the span `span` opened by [`TraceRecorder::begin`].
    pub fn end(&self, at: SimTime, span: SpanId) {
        self.push(TraceEvent::End { at, span });
    }

    /// Records a zero-duration instant.
    pub fn instant(&self, at: SimTime, lane: Option<u32>, kind: EventKind) {
        self.push(TraceEvent::Instant { at, lane, kind });
    }

    /// Renders the buffer as Chrome `trace_event` JSON (see
    /// [`export::chrome_trace`]), embedding `metrics` when given.
    #[must_use]
    pub fn chrome_trace(&self, metrics: Option<&Metrics>) -> String {
        export::chrome_trace(&self.events(), self.dropped(), metrics)
    }

    /// Renders the buffer as the compact per-lane text flamegraph (see
    /// [`export::flame_summary`]).
    #[must_use]
    pub fn flame_summary(&self) -> String {
        export::flame_summary(&self.events())
    }
}

impl Default for TraceRecorder {
    fn default() -> Self {
        TraceRecorder::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_ids_are_monotonic_and_unique() {
        let rec = TraceRecorder::new();
        let a = rec.begin(SimTime::ZERO, None, EventKind::Dispatch { request: 1 });
        let b = rec.begin(SimTime::ZERO, None, EventKind::Dispatch { request: 2 });
        assert!(b > a);
        assert_ne!(a, SpanId::NULL);
    }

    #[test]
    fn ring_evicts_oldest_and_counts() {
        let rec = TraceRecorder::with_capacity(3);
        for i in 0..5u64 {
            rec.instant(
                SimTime::from_us(i),
                None,
                EventKind::RecoveryRung { rung: "restage" },
            );
        }
        let events = rec.events();
        assert_eq!(events.len(), 3);
        assert_eq!(rec.dropped(), 2);
        assert_eq!(events[0].at(), SimTime::from_us(2), "oldest two evicted");
    }

    #[test]
    fn clear_resets_buffer_but_not_span_ids() {
        let rec = TraceRecorder::new();
        let a = rec.begin(SimTime::ZERO, None, EventKind::Dispatch { request: 1 });
        rec.clear();
        assert!(rec.is_empty());
        let b = rec.begin(SimTime::ZERO, None, EventKind::Dispatch { request: 2 });
        assert!(b > a, "ids keep counting across clear");
    }
}
