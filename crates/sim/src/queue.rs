//! A deterministic discrete-event queue.
//!
//! Generic over the event payload so each system model can define its own
//! event vocabulary. Events at equal times pop in insertion order (FIFO),
//! which keeps simulations reproducible.
//!
//! A simulation is a plain loop over one queue: schedule the initial
//! events, then `while let Some((_, ev)) = q.pop() { state.handle(&mut q,
//! ev) }`, with handlers scheduling follow-ups through
//! [`EventQueue::schedule_in`]. [`EventQueue::now`] after the drain is
//! the time of the last event (the makespan). The service and churn
//! simulations in `uparc-serve` and `uparc-place` run this way.
//!
//! # Implementation: a hierarchical calendar queue
//!
//! The queue is a calendar-queue/timer-wheel hybrid rather than a binary
//! heap: per-event cost is O(1) amortised instead of O(log n), which makes
//! the many-small-events regime (schedulers juggling partitions, controller
//! farms, back-to-back reconfigurations) kernel-bound no longer.
//!
//! Three tiers hold pending events, ordered nearest-future first:
//!
//! 1. **`current`** — a drain buffer holding the events of the earliest
//!    non-empty calendar bucket, sorted descending so the next event to
//!    pop is a `Vec::pop` from the back; schedules landing inside its
//!    time window are insertion-sorted.
//! 2. **`buckets`** — a one-shot calendar covering one *epoch*
//!    `[epoch_start, epoch_start + N·width)`. A schedule inside the epoch
//!    is an O(1) push into its bucket; buckets are sorted lazily, one at a
//!    time, as the drain reaches them.
//! 3. **`overflow`** — an unsorted vector for everything beyond the epoch.
//!    When the calendar runs dry the overflow is *repartitioned* into a
//!    fresh epoch: bucket count and width are re-derived from the pending
//!    population (targeting a handful of events per bucket), so the wheel
//!    adapts to any event-time distribution.
//!
//! Buckets never extend past the epoch horizon mid-flight (the calendar is
//! one-shot, not a ring): extending it would let a fresh schedule overtake
//! an older equal-time event parked in the overflow, breaking FIFO.
//!
//! **Determinism contract**: pops come in exact `(time, insertion-seq)`
//! order — bit-identical to a binary-heap reference, including FIFO ties —
//! regardless of bucket geometry (`tests/proptest_kernel.rs` checks this
//! against a heap model on arbitrary interleavings). All drained
//! containers keep their allocations, so a steady-state schedule/pop loop
//! performs no heap allocation.

use crate::time::SimTime;

#[derive(Debug)]
struct Entry<E> {
    time: SimTime,
    seq: u64,
    event: E,
}

impl<E> Entry<E> {
    /// Packed `(time, seq)` sort key — one u128 comparison instead of a
    /// two-field tuple compare (measurably faster in the bucket sorts).
    #[inline]
    fn key(&self) -> u128 {
        (u128::from(self.time.as_fs()) << 64) | u128::from(self.seq)
    }
}

/// Smallest bucket count an epoch is built with.
const MIN_BUCKETS: usize = 16;
/// Largest bucket count an epoch is built with. Tuned with
/// `examples/queue_micro.rs`: past ~32k buckets the scatter in
/// `repartition` turns into random cache misses and bulk throughput
/// drops again, so large populations saturate here.
const MAX_BUCKETS: usize = 1 << 15;
/// Target average number of events per bucket when repartitioning. Small
/// averages keep the per-bucket drain sort near-free (the sort is the
/// dominant drain cost); the floor on useful bucket counts is
/// [`MAX_BUCKETS`], not this constant, for big populations.
const EVENTS_PER_BUCKET: usize = 4;

/// A time-ordered event queue with FIFO tie-breaking.
///
/// # Example
///
/// ```
/// use uparc_sim::queue::EventQueue;
/// use uparc_sim::time::SimTime;
///
/// let mut q = EventQueue::new();
/// q.schedule(SimTime::from_ns(20), "finish");
/// q.schedule(SimTime::from_ns(10), "start");
/// assert_eq!(q.pop(), Some((SimTime::from_ns(10), "start")));
/// assert_eq!(q.pop(), Some((SimTime::from_ns(20), "finish")));
/// assert_eq!(q.pop(), None);
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    /// Drain buffer: the globally earliest events, sorted by `(time, seq)`
    /// *descending* so the next event to pop sits at the back (`Vec::pop`
    /// is branch-cheap, and a sorted bucket swaps in wholesale).
    current: Vec<Entry<E>>,
    /// Exclusive femtosecond upper bound of `current`'s time window.
    cur_end: u64,
    /// Calendar buckets of the active epoch; bucket `k` covers
    /// `[epoch_start + k·width, epoch_start + (k+1)·width)`.
    buckets: Vec<Vec<Entry<E>>>,
    /// Next bucket the drain will visit; buckets before it are empty.
    head: usize,
    /// Femtosecond start of bucket 0.
    epoch_start: u64,
    /// log2 of the femtosecond width of one bucket: widths are powers of
    /// two so the bucket index is a shift, not a division (a division per
    /// scheduled event dominated repartition cost).
    shift: u32,
    /// Events currently held in `buckets`.
    in_buckets: usize,
    /// Events at or beyond the epoch horizon, unsorted.
    overflow: Vec<Entry<E>>,
    next_seq: u64,
    now: SimTime,
    len: usize,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue {
            current: Vec::new(),
            cur_end: 0,
            buckets: Vec::new(),
            head: 0,
            epoch_start: 0,
            shift: 0,
            in_buckets: 0,
            overflow: Vec::new(),
            next_seq: 0,
            now: SimTime::ZERO,
            len: 0,
        }
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue at time zero.
    #[must_use]
    pub fn new() -> Self {
        EventQueue::default()
    }

    /// The time of the most recently popped event (time zero initially).
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of pending events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` iff no events are pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Exclusive femtosecond end of the active epoch, saturating.
    fn epoch_end(&self) -> u64 {
        let end = u128::from(self.epoch_start) + ((self.buckets.len() as u128) << self.shift);
        u64::try_from(end).unwrap_or(u64::MAX)
    }

    /// Schedules `event` at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` lies in the simulation past (before [`EventQueue::now`]).
    pub fn schedule(&mut self, at: SimTime, event: E) {
        assert!(
            at >= self.now,
            "cannot schedule at {at}: simulation time is already {}",
            self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        let entry = Entry {
            time: at,
            seq,
            event,
        };
        let t = at.as_fs();
        self.len += 1;
        if self.len == 1 {
            // Queue was empty: open a fresh one-event window just past `at`
            // so equal-time follow-ups append to `current` in O(1).
            self.current.clear();
            self.current.push(entry);
            self.cur_end = t.saturating_add(1);
            self.epoch_start = self.cur_end;
            self.head = 0;
            debug_assert_eq!(self.in_buckets, 0);
        } else if t < self.cur_end {
            // `current` is sorted descending; the new entry has the newest
            // seq, so among equal times it goes leftmost (pops last —
            // FIFO), i.e. right after the strictly-later entries.
            let idx = self.current.partition_point(|e| e.time > at);
            self.current.insert(idx, entry);
        } else if t < self.epoch_end() {
            let k = ((t - self.epoch_start) >> self.shift) as usize;
            debug_assert!(k >= self.head, "schedule into an already-drained bucket");
            self.buckets[k].push(entry);
            self.in_buckets += 1;
        } else {
            self.overflow.push(entry);
        }
    }

    /// Schedules `event` at `delay` after the current time.
    pub fn schedule_in(&mut self, delay: SimTime, event: E) {
        let at = self.now + delay;
        self.schedule(at, event);
    }

    /// Pops the earliest event, advancing [`EventQueue::now`] to its time.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let entry = self.current.pop()?;
        self.len -= 1;
        self.now = entry.time;
        if self.current.is_empty() {
            self.refill();
        }
        Some((entry.time, entry.event))
    }

    /// Peeks at the time of the earliest pending event.
    #[must_use]
    pub fn peek_time(&self) -> Option<SimTime> {
        self.current.last().map(|e| e.time)
    }

    /// Re-establishes the invariant that `current` holds the globally
    /// earliest events whenever the queue is non-empty.
    fn refill(&mut self) {
        while self.current.is_empty() {
            if self.in_buckets > 0 {
                self.advance_calendar();
            } else if !self.overflow.is_empty() {
                self.repartition();
            } else {
                return;
            }
        }
    }

    /// Moves the next non-empty calendar bucket into `current` (sorted).
    fn advance_calendar(&mut self) {
        loop {
            debug_assert!(self.head < self.buckets.len(), "in_buckets miscount");
            let k = self.head;
            self.head += 1;
            if self.buckets[k].is_empty() {
                continue;
            }
            // Sort the bucket descending and *swap* it in as the new
            // drain buffer — no per-element copies; the old (empty)
            // `current` becomes the bucket, keeping its capacity.
            let bucket = &mut self.buckets[k];
            bucket.sort_unstable_by_key(|e| std::cmp::Reverse(e.key()));
            self.in_buckets -= bucket.len();
            debug_assert!(self.current.is_empty());
            std::mem::swap(&mut self.current, bucket);
            let end = u128::from(self.epoch_start) + ((self.head as u128) << self.shift);
            self.cur_end = u64::try_from(end).unwrap_or(u64::MAX);
            return;
        }
    }

    /// Builds a fresh epoch from the overflow: bucket count targets a few
    /// events per bucket; the bucket width is the smallest power of two
    /// that makes the pending time span fit the bucket count.
    fn repartition(&mut self) {
        debug_assert!(self.current.is_empty() && self.in_buckets == 0);
        let n_items = self.overflow.len();
        let mut lo = u64::MAX;
        let mut hi = 0u64;
        for e in &self.overflow {
            let t = e.time.as_fs();
            lo = lo.min(t);
            hi = hi.max(t);
        }
        let target = (n_items / EVENTS_PER_BUCKET + 1)
            .next_power_of_two()
            .clamp(MIN_BUCKETS, MAX_BUCKETS);
        if self.buckets.len() < target {
            self.buckets.resize_with(target, Vec::new);
        } else if self.buckets.len() > target * 4 {
            // Shed an oversized previous epoch (all tail buckets are empty).
            self.buckets.truncate(target);
        }
        // Smallest shift with (span >> shift) < bucket count, so every
        // index from the shift lands in range.
        let span = hi - lo;
        let span_bits = u64::BITS - span.leading_zeros();
        self.shift = span_bits.saturating_sub(self.buckets.len().trailing_zeros());
        self.epoch_start = lo;
        self.cur_end = lo;
        self.head = 0;
        // Two-pass scatter: counting first lets every bucket reserve its
        // exact occupancy, so the placement pass never regrows (one counts
        // allocation instead of a realloc-and-copy per touched bucket).
        let mut counts = vec![0u32; self.buckets.len()];
        for e in &self.overflow {
            counts[((e.time.as_fs() - lo) >> self.shift) as usize] += 1;
        }
        for (bucket, &c) in self.buckets.iter_mut().zip(&counts) {
            bucket.reserve(c as usize);
        }
        for entry in self.overflow.drain(..) {
            let k = ((entry.time.as_fs() - lo) >> self.shift) as usize;
            self.buckets[k].push(entry);
        }
        self.in_buckets = n_items;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_ns(30), 3);
        q.schedule(SimTime::from_ns(10), 1);
        q.schedule(SimTime::from_ns(20), 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn equal_times_pop_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_ns(5);
        for i in 0..100 {
            q.schedule(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn now_advances_with_pops() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_ns(10), ());
        q.schedule_in(SimTime::from_ns(25), ()); // at 25 ns (now == 0)
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), SimTime::from_ns(10));
        q.schedule_in(SimTime::from_ns(5), ()); // at 15 ns
        let (t, ()) = q.pop().unwrap();
        assert_eq!(t, SimTime::from_ns(15));
    }

    #[test]
    #[should_panic(expected = "cannot schedule")]
    fn scheduling_in_the_past_panics() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_ns(10), ());
        q.pop();
        q.schedule(SimTime::from_ns(5), ());
    }

    #[test]
    fn len_and_is_empty() {
        let mut q: EventQueue<()> = EventQueue::new();
        assert!(q.is_empty());
        q.schedule(SimTime::from_ns(1), ());
        assert_eq!(q.len(), 1);
        assert_eq!(q.peek_time(), Some(SimTime::from_ns(1)));
        q.pop();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn interleaved_schedule_and_pop_stay_ordered() {
        // Widely spread times force epoch rollovers and overflow
        // repartitions; a pseudo-random walk covers the interesting
        // interleavings deterministically.
        let mut q = EventQueue::new();
        let mut state = 0x243F_6A88_85A3_08D3u64;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut popped: Vec<(SimTime, u64)> = Vec::new();
        let mut scheduled = 0u64;
        for _ in 0..5_000 {
            if q.is_empty() || rng() % 3 != 0 {
                let delay = rng() % 1_000_000_000; // up to 1 µs in fs
                q.schedule(q.now() + SimTime::from_fs(delay), scheduled);
                scheduled += 1;
            } else {
                popped.push(q.pop().unwrap());
            }
        }
        while let Some(p) = q.pop() {
            popped.push(p);
        }
        assert_eq!(popped.len() as u64, scheduled);
        for w in popped.windows(2) {
            assert!(w[0].0 <= w[1].0, "time order violated: {w:?}");
            if w[0].0 == w[1].0 {
                assert!(w[0].1 < w[1].1, "FIFO tie order violated: {w:?}");
            }
        }
    }

    #[test]
    fn schedule_into_the_window_being_drained() {
        // Pop one event of a same-bucket cluster, then schedule inside the
        // remaining window: the new event must slot into exact order.
        let mut q = EventQueue::new();
        for i in 0..20 {
            q.schedule(SimTime::from_fs(1000 + i * 2), i);
        }
        let (t0, e0) = q.pop().unwrap();
        assert_eq!((t0, e0), (SimTime::from_fs(1000), 0));
        q.schedule(SimTime::from_fs(1003), 777);
        let order: Vec<u64> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(&order[..3], &[1, 777, 2]);
    }

    #[test]
    fn far_future_and_max_time_events_survive() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::MAX, 2);
        q.schedule(SimTime::from_ns(1), 1);
        q.schedule(SimTime::MAX, 3);
        assert_eq!(q.pop(), Some((SimTime::from_ns(1), 1)));
        assert_eq!(q.pop(), Some((SimTime::MAX, 2)));
        assert_eq!(q.pop(), Some((SimTime::MAX, 3)));
        assert_eq!(q.pop(), None);
    }
}
