//! Differential property tests: the radix queue must pop in exactly the
//! order of a `BinaryHeap` model (the test oracle) — `(time, seq)`
//! ascending, FIFO among equal timestamps — for any interleaving of
//! monotone pushes and pops, including same-timestamp bursts, offsets on
//! both sides of powers of two (where a key's bucket changes), far-future
//! events and bulk loads that cascade through many buckets.

use proptest::prelude::*;
use sb_desim::event::{Event, EventKind};
use sb_desim::queue::RadixQueue;
use sb_desim::{ModuleId, SimTime};
use std::collections::BinaryHeap;

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

/// One step of a queue workload.
#[derive(Clone, Debug)]
enum Op {
    /// Push an event `dt` microseconds after the last *popped* time (the
    /// simulator's invariant: never schedule into the past).
    Push { dt: u64 },
    /// Pop up to `n` events.
    Pop { n: usize },
}

/// Time offsets biased towards the interesting edges of the key space:
/// zero (same-timestamp bursts), `2^k - 1`, `2^k` and `2^k + 1` (where the
/// highest differing bit, and so the bucket, changes) and far-future
/// values.
fn dt_strategy() -> impl Strategy<Value = u64> {
    // The vendored `prop_oneof!` is unweighted; repeating a strategy
    // raises its relative frequency.
    prop_oneof![
        Just(0u64),
        Just(0u64),
        1u64..20,
        1u64..20,
        prop_oneof![
            Just(15u64),
            Just(16),
            Just(17),
            Just(255),
            Just(256),
            Just(257)
        ],
        (1u32..48, 0u64..3).prop_map(|(k, d)| (1u64 << k) + d - 1),
        20u64..2_000,
        100_000u64..10_000_000,
    ]
}

fn ops_strategy() -> impl Strategy<Value = Vec<Op>> {
    let push = || dt_strategy().prop_map(|dt| Op::Push { dt });
    proptest::collection::vec(
        prop_oneof![
            push(),
            push(),
            push(),
            (1usize..8).prop_map(|n| Op::Pop { n }),
        ],
        1..400,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Every pop agrees with the `BinaryHeap` model in `(time, seq)`,
    /// the lengths stay in lockstep, and both drain to the same tail.
    #[test]
    fn radix_pops_in_exact_heap_order(ops in ops_strategy()) {
        let mut radix: RadixQueue<u64> = RadixQueue::new();
        let mut model: BinaryHeap<Event<u64>> = BinaryHeap::new();
        let mut seq = 0u64;
        let mut now = 0u64;
        for op in ops {
            match op {
                Op::Push { dt } => {
                    let t = now + dt;
                    radix.push(ev(t, seq));
                    model.push(ev(t, seq));
                    seq += 1;
                }
                Op::Pop { n } => {
                    for _ in 0..n {
                        prop_assert_eq!(radix.len(), model.len());
                        let expect = model.pop().map(|e| (e.time, e.seq));
                        prop_assert_eq!(radix.peek_key(), expect);
                        let got = radix.pop().map(|e| (e.time, e.seq));
                        prop_assert_eq!(got, expect);
                        if let Some((t, _)) = got {
                            now = t.as_micros();
                        }
                    }
                }
            }
        }
        // Drain both to the end: the tails must agree too.
        loop {
            prop_assert_eq!(radix.len(), model.len());
            let expect = model.pop().map(|e| (e.time, e.seq));
            let got = radix.pop().map(|e| (e.time, e.seq));
            prop_assert_eq!(got, expect);
            if got.is_none() {
                break;
            }
        }
        prop_assert!(radix.is_empty());
    }

    /// A bulk load pushed before any pop — hundreds of events spread over
    /// a few buckets, split again and again as they drain — comes out in
    /// exactly sorted order.
    #[test]
    fn bulk_load_with_resizes_drains_sorted(
        times in proptest::collection::vec(dt_strategy(), 200..600)
    ) {
        let mut radix: RadixQueue<u64> = RadixQueue::new();
        let mut expected: Vec<(u64, u64)> = Vec::with_capacity(times.len());
        let mut t = 0u64;
        for (seq, dt) in times.into_iter().enumerate() {
            // A meandering but non-decreasing schedule, as the simulator
            // produces.
            t += dt;
            radix.push(ev(t, seq as u64));
            expected.push((t, seq as u64));
        }
        expected.sort_unstable();
        let drained: Vec<(u64, u64)> = std::iter::from_fn(|| radix.pop())
            .map(|e| (e.time.as_micros(), e.seq))
            .collect();
        prop_assert_eq!(drained, expected);
    }
}
