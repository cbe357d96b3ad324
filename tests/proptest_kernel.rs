//! Property-based equivalence tests for the event kernel.
//!
//! The calendar-queue [`EventQueue`] replaced a plain binary heap and must
//! be observationally identical to it: events pop in nondecreasing time
//! order, ties break in schedule (FIFO) order, and scheduling into the
//! past panics. These tests drive the queue and a `BinaryHeap`-based
//! reference model with the same randomized op sequences and compare
//! every observable at every step.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::panic::{catch_unwind, AssertUnwindSafe};

use proptest::prelude::*;
use uparc_repro::sim::queue::EventQueue;
use uparc_repro::sim::time::SimTime;

/// The exact behavioural contract the calendar queue must honour, stated
/// as the simplest possible implementation: a binary heap keyed on
/// `(time, insertion sequence)`.
#[derive(Default)]
struct HeapReference {
    heap: BinaryHeap<Reverse<(SimTime, u64, u32)>>,
    next_seq: u64,
    now: SimTime,
}

impl HeapReference {
    fn schedule(&mut self, at: SimTime, event: u32) {
        assert!(at >= self.now, "reference model scheduled into the past");
        self.heap.push(Reverse((at, self.next_seq, event)));
        self.next_seq += 1;
    }

    fn pop(&mut self) -> Option<(SimTime, u32)> {
        let Reverse((t, _, e)) = self.heap.pop()?;
        self.now = t;
        Some((t, e))
    }

    fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|&Reverse((t, _, _))| t)
    }
}

/// One step of a randomized queue workout.
#[derive(Clone, Debug)]
enum Op {
    /// Schedule at `now + offset` femtoseconds (0 ⇒ a same-instant tie).
    Schedule(u64),
    /// Schedule a burst at one instant, stressing FIFO among ties.
    ScheduleBurst(u64, u8),
    Pop,
}

/// Offsets cluster small so ties and near-ties are common, with an
/// occasional huge jump to force epoch turnover / overflow handling.
fn offset_strategy() -> impl Strategy<Value = u64> {
    prop_oneof![
        Just(0u64),
        1u64..50,
        1u64..100_000,
        1_000_000_000u64..u64::from(u32::MAX),
    ]
}

fn ops_strategy() -> impl Strategy<Value = Vec<Op>> {
    let op = prop_oneof![
        offset_strategy().prop_map(Op::Schedule),
        (offset_strategy(), 2u8..8).prop_map(|(o, n)| Op::ScheduleBurst(o, n)),
        Just(Op::Pop),
    ];
    proptest::collection::vec(op, 0..400)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn calendar_queue_equals_heap_reference(ops in ops_strategy()) {
        let mut q = EventQueue::new();
        let mut model = HeapReference::default();
        let mut event = 0u32;

        for (i, op) in ops.iter().enumerate() {
            match *op {
                Op::Schedule(offset) => {
                    let at = q.now() + SimTime::from_fs(offset);
                    q.schedule(at, event);
                    model.schedule(at, event);
                    event += 1;
                }
                Op::ScheduleBurst(offset, n) => {
                    let at = q.now() + SimTime::from_fs(offset);
                    for _ in 0..n {
                        q.schedule(at, event);
                        model.schedule(at, event);
                        event += 1;
                    }
                }
                Op::Pop => {
                    prop_assert_eq!(q.pop(), model.pop(), "pop diverged at op {}", i);
                }
            }
            prop_assert_eq!(q.len(), model.heap.len(), "len diverged at op {}", i);
            prop_assert_eq!(q.is_empty(), model.heap.is_empty());
            prop_assert_eq!(q.peek_time(), model.peek_time(), "peek diverged at op {}", i);
            prop_assert_eq!(q.now(), model.now, "clock diverged at op {}", i);
        }

        // Drain whatever is left; order must match to the last event.
        loop {
            let (a, b) = (q.pop(), model.pop());
            prop_assert_eq!(a, b, "drain diverged");
            if a.is_none() {
                break;
            }
        }
    }

    #[test]
    fn equal_times_pop_in_schedule_order(
        burst in 1usize..64,
        offset in 0u64..1000,
        presort in proptest::collection::vec(0u64..500, 0..32),
    ) {
        // Mix the burst in with other events; among the tied ones, FIFO
        // order must survive bucket sorting and epoch turnover.
        let mut q = EventQueue::new();
        let at = SimTime::from_fs(offset + 500);
        for (i, &t) in presort.iter().enumerate() {
            q.schedule(SimTime::from_fs(t), 10_000 + i as u32);
        }
        for i in 0..burst {
            q.schedule(at, i as u32);
        }
        let mut tied = Vec::new();
        while let Some((t, e)) = q.pop() {
            if t == at && e < 10_000 {
                tied.push(e);
            }
        }
        let expected: Vec<u32> = (0..burst as u32).collect();
        prop_assert_eq!(tied, expected, "FIFO violated among ties");
    }

    #[test]
    fn scheduling_into_the_past_always_panics(
        times in proptest::collection::vec(1u64..1_000_000, 2..20),
        back in 1u64..1_000_000,
    ) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(SimTime::from_fs(t), i as u32);
        }
        // Advance the clock to the latest scheduled instant...
        while q.pop().is_some() {}
        let now = q.now();
        prop_assert_eq!(now, SimTime::from_fs(*times.iter().max().expect("nonempty")));

        // ...then any earlier schedule must panic, and by exactly the
        // contract's message (not some internal index error).
        let past = SimTime::from_fs(now.as_fs().saturating_sub(back));
        let err = catch_unwind(AssertUnwindSafe(|| q.schedule(past, 99)))
            .expect_err("scheduling into the past must panic");
        let msg = err
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| err.downcast_ref::<&str>().map(|s| (*s).to_string()))
            .unwrap_or_default();
        prop_assert!(msg.contains("cannot schedule"), "unexpected panic: {}", msg);
    }
}
