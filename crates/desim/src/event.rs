//! Events of the discrete-event core.

use crate::module::ModuleId;
use crate::time::SimTime;
use std::cmp::Ordering;

/// What an event does when it fires.
#[derive(Debug)]
pub enum EventKind<M> {
    /// Deliver a message to a module.
    Message {
        /// Sender.
        from: ModuleId,
        /// Receiver.
        to: ModuleId,
        /// Payload.
        payload: M,
    },
    /// Fire a timer on a module.
    Timer {
        /// The module whose timer fires.
        module: ModuleId,
        /// The tag passed when the timer was armed.
        tag: u64,
    },
}

impl<M> EventKind<M> {
    /// The module that will handle the event.
    pub fn target(&self) -> ModuleId {
        match self {
            EventKind::Message { to, .. } => *to,
            EventKind::Timer { module, .. } => *module,
        }
    }
}

/// A scheduled event: a fire time, a monotonically increasing sequence
/// number for deterministic FIFO tie-breaking, and the action itself.
#[derive(Debug)]
pub struct Event<M> {
    /// When the event fires.
    pub time: SimTime,
    /// Tie-break: events scheduled earlier fire earlier at equal times.
    pub seq: u64,
    /// The action.
    pub kind: EventKind<M>,
}

impl<M> PartialEq for Event<M> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}

impl<M> Eq for Event<M> {}

impl<M> PartialOrd for Event<M> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<M> Ord for Event<M> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse ordering so that BinaryHeap (a max-heap) pops the
        // earliest event first.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BinaryHeap;

    #[test]
    fn heap_pops_earliest_event_first() {
        let mut heap: BinaryHeap<Event<()>> = BinaryHeap::new();
        for (t, s) in [(5u64, 0u64), (1, 1), (5, 2), (3, 3)] {
            heap.push(Event {
                time: SimTime(t),
                seq: s,
                kind: EventKind::Timer {
                    module: ModuleId(0),
                    tag: 0,
                },
            });
        }
        let order: Vec<(u64, u64)> = std::iter::from_fn(|| heap.pop())
            .map(|e| (e.time.0, e.seq))
            .collect();
        assert_eq!(order, vec![(1, 1), (3, 3), (5, 0), (5, 2)]);
    }

    #[test]
    fn target_returns_the_handling_module() {
        let e: EventKind<u8> = EventKind::Message {
            from: ModuleId(1),
            to: ModuleId(2),
            payload: 9,
        };
        assert_eq!(e.target(), ModuleId(2));
        let t: EventKind<u8> = EventKind::Timer {
            module: ModuleId(5),
            tag: 7,
        };
        assert_eq!(t.target(), ModuleId(5));
    }
}
