//! Pending-event storage: a monotone radix heap.
//!
//! The dispatcher needs exactly one operation pattern: push events keyed
//! by `(time, seq)` and pop them back in ascending key order — FIFO among
//! events sharing a timestamp.  Its pushes are also **monotone**: every
//! event lands at `now + delay`, never before the last popped time, and
//! takes the next value of one global `seq` counter.  The first property
//! is exactly the precondition of a radix heap (Ahuja, Mehlhorn, Orlin &
//! Tarjan, JACM 1990), which [`RadixQueue`] implements over event times;
//! the second keeps every bucket in `seq` order for free, so same-time
//! events never need comparing:
//!
//! * **Buckets by highest differing bit.**  `last_time` is the time of the
//!   last popped event.  Events at exactly `last_time` wait in a FIFO;
//!   any other event lives in bucket `b` when its time first differs from
//!   `last_time` in bit `b`.  Every time in a lower bucket is earlier than
//!   every time in a higher one.  A push is one XOR, one `ilog2` and one
//!   append — O(1), no comparison against other events.
//! * **Occupancy mask.**  Bit `b` of one `u64` is set while bucket `b` is
//!   non-empty; `trailing_zeros` finds the bucket holding the earliest
//!   time.
//! * **Pop** takes the FIFO's front.  When the FIFO is empty it first
//!   splits the lowest non-empty bucket around its earliest time, which
//!   becomes the new `last_time`: events at that time move to the FIFO,
//!   the rest to strictly lower buckets (they share every bit from `b` up
//!   with the new `last_time`).  An event moves at most 64 times in its
//!   life, so a pop costs amortised O(1).  Every bucket below the split
//!   one is empty and receives its events in `seq` order, so buckets and
//!   FIFO stay sorted by `seq` without comparing.
//! * **Peek** finds the same event without splitting (a start-up callback
//!   that runs first may still push earlier events) and remembers its
//!   position until the next split; pushes keep that position current.
//!
//! Nothing needs tuning to the workload.  Buckets keep their capacity
//! across pops, so once the pending population has peaked the queue stops
//! allocating.
//!
//! Pop order is the total `(time, seq)` order, **bit-for-bit identical** to
//! a plain `BinaryHeap` for any push/pop interleaving that respects the
//! contract (the differential property test `crates/desim/tests/prop_queue.rs`
//! pins this against a heap model).  A push before the last popped time,
//! or with a `seq` not above every earlier push, breaks the contract;
//! debug builds assert both.

use crate::event::Event;
use crate::time::SimTime;
use std::collections::VecDeque;

/// A deterministic monotone radix heap over [`Event`]s.
///
/// See the [module documentation](self) for the layout and the contract:
/// a push must not precede the last popped time, and its `seq` must
/// exceed that of every earlier push.
pub struct RadixQueue<M> {
    /// Events at exactly `last_time`, in `seq` order.
    current: VecDeque<Event<M>>,
    /// `buckets[b]` holds the events whose time first differs from
    /// `last_time` in bit `b`, in `seq` order.
    buckets: [Vec<Event<M>>; 64],
    /// Bit `b` is set exactly when `buckets[b]` is non-empty.
    occupied: u64,
    /// Time of the last popped event, in microseconds (0 before the first
    /// pop); no pending event is earlier.
    last_time: u64,
    /// Number of pending events.
    len: usize,
    /// `(bucket, index)` of the earliest event in `buckets`, once a peek
    /// has searched for it; pushes keep it current, a split clears it.
    min: Option<(usize, usize)>,
}

impl<M> Default for RadixQueue<M> {
    fn default() -> Self {
        RadixQueue::new()
    }
}

impl<M> RadixQueue<M> {
    /// An empty queue.
    pub fn new() -> Self {
        RadixQueue {
            current: VecDeque::new(),
            buckets: std::array::from_fn(|_| Vec::new()),
            occupied: 0,
            last_time: 0,
            len: 0,
            min: None,
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no event is pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Schedules an event.  Its time must not precede the last popped
    /// time, and its `seq` must exceed that of every earlier push (the
    /// simulator never schedules into the past and numbers its events
    /// from one counter).
    pub fn push(&mut self, event: Event<M>) {
        let time = event.time.as_micros();
        debug_assert!(time >= self.last_time, "push precedes the last popped time");
        self.len += 1;
        let diff = time ^ self.last_time;
        if diff == 0 {
            debug_assert!(
                self.current.back().is_none_or(|e| e.seq < event.seq),
                "seq must grow"
            );
            self.current.push_back(event);
            return;
        }
        let b = diff.ilog2() as usize;
        if let Some((mb, mi)) = self.min {
            if event.time < self.buckets[mb][mi].time {
                self.min = Some((b, self.buckets[b].len()));
            }
        }
        debug_assert!(
            self.buckets[b].last().is_none_or(|e| e.seq < event.seq),
            "seq must grow"
        );
        self.buckets[b].push(event);
        self.occupied |= 1 << b;
    }

    /// `(bucket, index)` of the earliest event in `buckets`: the first
    /// event at the earliest time in the lowest non-empty bucket.
    fn bucket_min(&mut self) -> Option<(usize, usize)> {
        if self.min.is_none() && self.occupied != 0 {
            let b = self.occupied.trailing_zeros() as usize;
            self.min = self.buckets[b]
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.time)
                .map(|(i, _)| (b, i));
        }
        self.min
    }

    /// `(time, seq)` of the next event to pop, without removing it.
    pub fn peek_key(&mut self) -> Option<(SimTime, u64)> {
        let event = match self.current.front() {
            Some(event) => event,
            None => {
                let (b, i) = self.bucket_min()?;
                &self.buckets[b][i]
            }
        };
        Some((event.time, event.seq))
    }

    /// Removes and returns the earliest event (exact `(time, seq)` order,
    /// FIFO among events sharing a timestamp).
    pub fn pop(&mut self) -> Option<Event<M>> {
        if self.current.is_empty() {
            let (b, i) = self.bucket_min()?;
            self.min = None;
            self.last_time = self.buckets[b][i].time.as_micros();
            self.occupied &= !(1 << b);
            let (lower, upper) = self.buckets.split_at_mut(b);
            for event in upper[0].drain(..) {
                let diff = event.time.as_micros() ^ self.last_time;
                if diff == 0 {
                    self.current.push_back(event);
                } else {
                    let to = diff.ilog2() as usize;
                    debug_assert!(to < b, "a split moves events to strictly lower buckets");
                    lower[to].push(event);
                    self.occupied |= 1 << to;
                }
            }
        }
        self.len -= 1;
        self.current.pop_front()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;
    use crate::module::ModuleId;

    fn ev(time: u64, seq: u64) -> Event<u64> {
        Event {
            time: SimTime(time),
            seq,
            kind: EventKind::Timer {
                module: ModuleId(0),
                tag: seq,
            },
        }
    }

    fn drain_keys(q: &mut RadixQueue<u64>) -> Vec<(u64, u64)> {
        std::iter::from_fn(|| q.pop())
            .map(|e| (e.time.0, e.seq))
            .collect()
    }

    #[test]
    fn pops_in_time_then_seq_order() {
        let mut q = RadixQueue::new();
        for (t, s) in [(5u64, 0u64), (1, 1), (5, 2), (3, 3), (1, 4)] {
            q.push(ev(t, s));
        }
        assert_eq!(q.len(), 5);
        assert_eq!(
            drain_keys(&mut q),
            vec![(1, 1), (1, 4), (3, 3), (5, 0), (5, 2)]
        );
        assert!(q.is_empty());
    }

    #[test]
    fn same_timestamp_burst_is_fifo() {
        let mut q = RadixQueue::new();
        for s in 0..100 {
            q.push(ev(7, s));
        }
        let keys = drain_keys(&mut q);
        assert_eq!(keys, (0..100).map(|s| (7, s)).collect::<Vec<_>>());
    }

    #[test]
    fn far_future_events_take_the_overflow_tier_and_return() {
        let mut q = RadixQueue::new();
        // Times far apart land in buckets far apart: the highest bit in
        // which they differ from the initial `last_time = 0` is 3 for
        // t = 10, 7 for t = 200 and 19 for t = 1_000_000.
        q.push(ev(10, 0));
        q.push(ev(1_000_000, 1)); // a much higher bucket
        q.push(ev(200, 2));
        assert_eq!(drain_keys(&mut q), vec![(10, 0), (200, 2), (1_000_000, 1)]);
    }

    #[test]
    fn draining_the_window_rebases_onto_the_overflow() {
        let mut q = RadixQueue::new();
        q.push(ev(5, 0));
        for s in 1..5 {
            q.push(ev(1_000_000 + s, s));
        }
        assert_eq!(q.pop().map(|e| e.seq), Some(0));
        // The low bucket is empty; the next pop must split the high
        // bucket around its minimum and keep exact order.
        assert_eq!(
            drain_keys(&mut q),
            (1..5).map(|s| (1_000_000 + s, s)).collect::<Vec<_>>()
        );
    }

    #[test]
    fn growth_rebucket_preserves_order() {
        let mut q = RadixQueue::new();
        // 1000 events share a handful of buckets; order must survive
        // every pop's redistribution into lower buckets.
        let mut expected = Vec::new();
        for s in 0..1000u64 {
            let t = (s * 37) % 500;
            expected.push((t, s));
            q.push(ev(t, s));
        }
        expected.sort_unstable();
        assert_eq!(drain_keys(&mut q), expected);
    }

    #[test]
    fn bucket_boundary_times_stay_ordered() {
        let mut q = RadixQueue::new();
        // Times on both sides of the powers of two 16, 32 and 256, where
        // the highest differing bit — the bucket — changes.
        let times = [0u64, 15, 16, 17, 31, 32, 255, 256, 257];
        for (s, &t) in times.iter().enumerate() {
            q.push(ev(t, s as u64));
        }
        let mut expected: Vec<(u64, u64)> = times
            .iter()
            .enumerate()
            .map(|(s, &t)| (t, s as u64))
            .collect();
        expected.sort_unstable();
        assert_eq!(drain_keys(&mut q), expected);
    }

    #[test]
    fn peek_key_matches_pop() {
        let mut q = RadixQueue::new();
        for (t, s) in [(40u64, 0u64), (2, 1), (999_999, 2)] {
            q.push(ev(t, s));
        }
        while let Some(key) = q.peek_key() {
            let popped = q.pop().map(|e| (e.time, e.seq));
            assert_eq!(popped, Some(key));
        }
        assert!(q.pop().is_none());
        assert_eq!(q.peek_key(), None);
    }

    #[test]
    fn pushes_after_a_peek_keep_the_peeked_minimum_current() {
        let mut q = RadixQueue::new();
        q.push(ev(50, 0));
        q.push(ev(40, 1));
        assert_eq!(q.peek_key(), Some((SimTime(40), 1)));
        // Earlier than the remembered minimum, in a lower bucket: it
        // becomes the minimum.
        q.push(ev(30, 2));
        assert_eq!(q.peek_key(), Some((SimTime(30), 2)));
        // Later, or at the same time with a later seq: the minimum stays.
        q.push(ev(35, 3));
        q.push(ev(30, 4));
        assert_eq!(q.peek_key(), Some((SimTime(30), 2)));
        assert_eq!(
            drain_keys(&mut q),
            vec![(30, 2), (30, 4), (35, 3), (40, 1), (50, 0)]
        );
    }

    #[test]
    fn extreme_and_power_of_two_keys_stay_ordered() {
        let mut q = RadixQueue::new();
        // The largest time differs from `last_time = 0` in bit 63: the top
        // bucket.
        q.push(ev(u64::MAX, 0));
        // A same-time seq run straddling 2^4 and 2^5, then times
        // straddling 2^32.
        for s in 14..=33 {
            q.push(ev(100, s));
        }
        let p32 = 1u64 << 32;
        q.push(ev(p32 - 1, 34));
        q.push(ev(p32, 35));
        q.push(ev(p32 + 1, 36));
        assert_eq!(q.peek_key(), Some((SimTime(100), 14)));
        assert_eq!(q.pop().map(|e| (e.time.0, e.seq)), Some((100, 14)));
        // A push at exactly the last popped time with a later seq queues
        // behind the rest of the run; one more at the largest time.
        q.push(ev(100, 37));
        q.push(ev(u64::MAX, 38));
        assert_eq!(q.len(), 25);
        let mut expected: Vec<(u64, u64)> = (15..=33).map(|s| (100, s)).collect();
        expected.extend([
            (100, 37),
            (p32 - 1, 34),
            (p32, 35),
            (p32 + 1, 36),
            (u64::MAX, 0),
            (u64::MAX, 38),
        ]);
        assert_eq!(drain_keys(&mut q), expected);
        assert!(q.is_empty());
    }
}
