//! Pending-event storage: the deterministic calendar queue.
//!
//! The dispatcher needs exactly one operation pattern: push events keyed
//! by `(time, seq)` and pop them back in ascending key order — FIFO among
//! events sharing a timestamp.  The original backend was a single
//! `BinaryHeap<Event<M>>`, whose `O(log n)` push/pop made the queue the
//! first bottleneck past ~10⁴ modules (each of the `n` start-up events
//! alone costs a push into an `n`-element heap).
//!
//! [`CalendarQueue`] replaces it with the classic DES structure (Brown
//! 1988), adapted to keep the simulator's determinism guarantees intact:
//!
//! * **Buckets** partition the time axis into `bucket_count` consecutive
//!   windows of `2^width_shift` microseconds starting at `window_start`.
//!   Bucket indices are monotone in time (no year wrap-around), so the
//!   earliest pending event always lives in the first non-empty bucket at
//!   or after the read cursor.  A bucket is a `VecDeque` kept sorted by
//!   `(time, seq)`: because `seq` is globally monotone, an event whose
//!   key is not smaller than the bucket's back — every same-timestamp
//!   burst, and any workload whose schedule meanders less than a bucket
//!   width — appends in O(1), and out-of-order arrivals fall back to a
//!   binary-search insert.  Pops are always `pop_front`.  The adaptive
//!   geometry keeps buckets near one event on spread-out schedules, so
//!   the insert fallback stays cheap when it happens at all.
//! * **Overflow tier**: events falling outside the covered window — past
//!   the horizon, or (only if a caller schedules into the past, which the
//!   simulator never does) before `window_start` — wait in one ordinary
//!   binary heap.  Every pop compares the best in-window key against the
//!   overflow head, so out-of-window events are still delivered in exact
//!   global order.
//! * **Lazy rebucketing**: pushes only *flag* a geometry change (growth
//!   past `4×` average bucket occupancy, or an overflow tier dwarfing the
//!   in-window population).  The next pop/peek performs one `O(n)`
//!   rebuild — recomputing `bucket_count` from the population and the
//!   bucket width from the observed time span — so the push hot path
//!   stays branch-cheap and the rebuild cost amortises over the events
//!   that triggered it.  Draining the window with a non-empty overflow
//!   tier triggers the same rebuild, re-anchoring `window_start` at the
//!   earliest pending event.
//!
//! Pop order is **bit-for-bit identical** to a plain `BinaryHeap` for any
//! push/pop interleaving (the differential property test
//! `crates/desim/tests/prop_queue.rs` pins this against a heap model,
//! including same-timestamp bursts, bucket-boundary times and mid-run
//! resizes).

use crate::event::Event;
use crate::time::SimTime;
use std::collections::{BinaryHeap, VecDeque};

/// Smallest bucket count the calendar starts from.
const MIN_BUCKETS: usize = 16;
/// Largest bucket count a rebuild will grow to.
const MAX_BUCKETS: usize = 1 << 15;
/// Largest bucket width exponent (2³² µs ≈ 71 simulated minutes).
const MAX_WIDTH_SHIFT: u32 = 32;

/// A deterministic calendar queue over [`Event`]s.
///
/// See the [module documentation](self) for the layout.  The structure is
/// tuned for the simulator's access pattern (push times never precede the
/// last popped time) but stays correct — merely slower — for arbitrary
/// interleavings, which the differential property test exploits.
pub struct CalendarQueue<M> {
    /// `bucket_count` sorted runs; index `i` covers
    /// `[window_start + i·width, window_start + (i+1)·width)`.
    buckets: Vec<VecDeque<Event<M>>>,
    /// Power-of-two number of live buckets (`buckets.len()`).
    bucket_count: usize,
    /// Bucket width is `1 << width_shift` microseconds.
    width_shift: u32,
    /// Inclusive start of the covered window, in microseconds.
    window_start: u64,
    /// First possibly non-empty bucket (events are never pushed behind the
    /// last popped time, so the cursor only moves forward between
    /// rebuilds).
    cursor: usize,
    /// Events currently stored in buckets.
    in_window: usize,
    /// Cached growth threshold (`bucket_count * 4`): an in-window
    /// population beyond it flags a rebucket.
    grow_at: usize,
    /// Events outside the covered window, in one plain heap.
    overflow: BinaryHeap<Event<M>>,
    /// A push crossed a geometry threshold; rebuild on the next pop/peek.
    rebucket_pending: bool,
}

impl<M> Default for CalendarQueue<M> {
    fn default() -> Self {
        CalendarQueue::new()
    }
}

impl<M> CalendarQueue<M> {
    /// An empty queue with the initial geometry (16 buckets of 16 µs).
    pub fn new() -> Self {
        let mut buckets = Vec::with_capacity(MIN_BUCKETS);
        buckets.resize_with(MIN_BUCKETS, VecDeque::new);
        CalendarQueue {
            buckets,
            bucket_count: MIN_BUCKETS,
            width_shift: 4,
            window_start: 0,
            cursor: 0,
            in_window: 0,
            grow_at: MIN_BUCKETS * 4,
            overflow: BinaryHeap::new(),
            rebucket_pending: false,
        }
    }

    /// Number of pending events (buckets plus overflow tier).
    pub fn len(&self) -> usize {
        self.in_window + self.overflow.len()
    }

    /// Whether no event is pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bucket index for `time`, or `None` when it falls outside the
    /// covered window.
    fn bucket_of(&self, time: SimTime) -> Option<usize> {
        let t = time.as_micros();
        if t < self.window_start {
            return None;
        }
        let idx = (t - self.window_start) >> self.width_shift;
        (idx < self.bucket_count as u64).then_some(idx as usize)
    }

    /// Inserts into a bucket's sorted run: O(1) append when the key is
    /// not smaller than the current back (same-timestamp bursts, and any
    /// monotone schedule), binary-search insert otherwise.
    fn bucket_insert(bucket: &mut VecDeque<Event<M>>, event: Event<M>) {
        let key = (event.time, event.seq);
        match bucket.back() {
            Some(back) if (back.time, back.seq) > key => {
                let idx = bucket.partition_point(|e| (e.time, e.seq) < key);
                bucket.insert(idx, event);
            }
            _ => bucket.push_back(event),
        }
    }

    /// Schedules an event.
    ///
    /// Geometry checks only *flag* a rebuild; the next pop/peek performs
    /// it (lazy rebucketing — the push path stays cheap).
    pub fn push(&mut self, event: Event<M>) {
        match self.bucket_of(event.time) {
            Some(idx) => {
                Self::bucket_insert(&mut self.buckets[idx], event);
                self.in_window += 1;
                if idx < self.cursor {
                    self.cursor = idx;
                }
                if self.in_window > self.grow_at && self.bucket_count < MAX_BUCKETS {
                    self.rebucket_pending = true;
                }
            }
            None => {
                self.overflow.push(event);
                if self.overflow.len() > 64 && self.overflow.len() > self.in_window * 2 {
                    self.rebucket_pending = true;
                }
            }
        }
    }

    /// Applies any deferred geometry change, and re-anchors the window
    /// when the buckets drained while the overflow tier still holds
    /// events.
    fn maintain(&mut self) {
        if self.rebucket_pending || (self.in_window == 0 && !self.overflow.is_empty()) {
            self.rebuild();
        }
    }

    /// One `O(n log n)` pass: collects every pending event, recomputes
    /// the geometry from the population and its time span, and
    /// redistributes in sorted order (so every re-insert takes the O(1)
    /// append path).
    fn rebuild(&mut self) {
        self.rebucket_pending = false;
        let mut events: Vec<Event<M>> = Vec::with_capacity(self.len());
        for bucket in &mut self.buckets {
            events.extend(bucket.drain(..));
        }
        events.extend(self.overflow.drain());
        self.in_window = 0;
        self.cursor = 0;
        if events.is_empty() {
            return;
        }
        events.sort_unstable_by_key(|e| (e.time, e.seq));
        let min = events.first().map(|e| e.time.as_micros()).unwrap_or(0);
        let max = events.last().map(|e| e.time.as_micros()).unwrap_or(0);
        let n = events.len();
        self.bucket_count = n.next_power_of_two().clamp(MIN_BUCKETS, MAX_BUCKETS);
        self.grow_at = self.bucket_count * 4;
        self.buckets.resize_with(self.bucket_count, VecDeque::new);
        // Aim at ~one event per bucket: width ≈ span / n, rounded up to a
        // power of two so the index computation is a shift.
        let ideal = ((max - min) / n as u64).max(1);
        self.width_shift = ideal
            .next_power_of_two()
            .trailing_zeros()
            .min(MAX_WIDTH_SHIFT);
        self.window_start = min;
        for event in events {
            match self.bucket_of(event.time) {
                Some(idx) => {
                    self.buckets[idx].push_back(event);
                    self.in_window += 1;
                }
                None => self.overflow.push(event),
            }
        }
    }

    /// Key of the earliest in-window event, advancing the cursor past
    /// drained buckets on the way.
    fn window_min_key(&mut self) -> Option<(SimTime, u64)> {
        if self.in_window == 0 {
            return None;
        }
        while self.buckets[self.cursor].is_empty() {
            self.cursor += 1;
        }
        self.buckets[self.cursor].front().map(|e| (e.time, e.seq))
    }

    /// `(time, seq)` of the next event to pop, without removing it.
    pub fn peek_key(&mut self) -> Option<(SimTime, u64)> {
        self.maintain();
        let window = self.window_min_key();
        let overflow = self.overflow.peek().map(|e| (e.time, e.seq));
        match (window, overflow) {
            (Some(w), Some(o)) => Some(w.min(o)),
            (w, o) => w.or(o),
        }
    }

    /// Removes and returns the earliest event (exact `(time, seq)` order,
    /// FIFO among events sharing a timestamp).
    pub fn pop(&mut self) -> Option<Event<M>> {
        // Hot path: no pending rebuild and an empty overflow tier (the
        // norm once the geometry fits the workload) — the earliest event
        // is simply the front of the first non-empty bucket, no key
        // comparisons anywhere.
        if self.rebucket_pending || !self.overflow.is_empty() || self.in_window == 0 {
            return self.pop_slow();
        }
        while self.buckets[self.cursor].is_empty() {
            self.cursor += 1;
        }
        self.in_window -= 1;
        self.buckets[self.cursor].pop_front()
    }

    /// Full pop: applies deferred maintenance, then arbitrates between
    /// the in-window front and the overflow head.
    fn pop_slow(&mut self) -> Option<Event<M>> {
        self.maintain();
        let window = self.window_min_key();
        let overflow = self.overflow.peek().map(|e| (e.time, e.seq));
        match (window, overflow) {
            (Some(w), Some(o)) if o < w => self.overflow.pop(),
            (Some(_), _) => {
                self.in_window -= 1;
                self.buckets[self.cursor].pop_front()
            }
            (None, Some(_)) => self.overflow.pop(),
            (None, None) => None,
        }
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

    fn drain_keys(q: &mut CalendarQueue<u64>) -> Vec<(u64, u64)> {
        std::iter::from_fn(|| q.pop())
            .map(|e| (e.time.0, e.seq))
            .collect()
    }

    #[test]
    fn pops_in_time_then_seq_order() {
        let mut q = CalendarQueue::new();
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
        let mut q = CalendarQueue::new();
        for s in 0..100 {
            q.push(ev(7, s));
        }
        let keys = drain_keys(&mut q);
        assert_eq!(keys, (0..100).map(|s| (7, s)).collect::<Vec<_>>());
    }

    #[test]
    fn far_future_events_take_the_overflow_tier_and_return() {
        let mut q = CalendarQueue::new();
        // Initial window: 16 buckets × 16 µs = [0, 256).
        q.push(ev(10, 0));
        q.push(ev(1_000_000, 1)); // far past the horizon
        q.push(ev(200, 2));
        assert_eq!(drain_keys(&mut q), vec![(10, 0), (200, 2), (1_000_000, 1)]);
    }

    #[test]
    fn draining_the_window_rebases_onto_the_overflow() {
        let mut q = CalendarQueue::new();
        q.push(ev(5, 0));
        for s in 1..5 {
            q.push(ev(1_000_000 + s, s));
        }
        assert_eq!(q.pop().map(|e| e.seq), Some(0));
        // The window is empty; the next pop must re-anchor on the
        // overflow tier and keep exact order.
        assert_eq!(
            drain_keys(&mut q),
            (1..5).map(|s| (1_000_000 + s, s)).collect::<Vec<_>>()
        );
    }

    #[test]
    fn growth_rebucket_preserves_order() {
        let mut q = CalendarQueue::new();
        // 1000 events crowd the initial 16 buckets well past the resize
        // threshold; order must survive the rebuild.
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
        let mut q = CalendarQueue::new();
        // Hit exact bucket edges of the initial geometry (width 16) and
        // the horizon edge (256).
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
        let mut q = CalendarQueue::new();
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
}
