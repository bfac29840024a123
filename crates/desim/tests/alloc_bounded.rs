//! Proves the kernel's steady state allocates a **bounded** number of
//! times, independent of how many events it dispatches: the event queue
//! keeps each bucket's capacity across pops, so after warm-up only a
//! bucket's first use (or a population peak above every earlier one) can
//! allocate.  Counted with a counting global allocator; only allocations
//! made by the measuring thread are counted (the libtest harness
//! allocates concurrently from its own threads), via a const-initialised
//! thread-local flag — no `Drop` glue, so reading it inside the allocator
//! itself cannot allocate.

use sb_desim::{BlockCode, Context, Duration, LatencyModel, ModuleId, Simulator};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Set on the measuring thread only; allocations elsewhere are not
    /// counted.
    static COUNT_THIS_THREAD: Cell<bool> = const { Cell::new(false) };
}

struct CountingAllocator;

// SAFETY: delegates every operation to the system allocator unchanged;
// the bookkeeping is a relaxed atomic guarded by an allocation-free
// (const-initialised, no-Drop) thread-local read.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNT_THIS_THREAD.with(Cell::get) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNT_THIS_THREAD.with(Cell::get) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Ring node: every token it receives goes on to the next module, for
/// ever.
struct RingNode {
    next: ModuleId,
    tokens: u32,
}

impl BlockCode<u32, ()> for RingNode {
    fn on_start(&mut self, ctx: &mut Context<'_, u32, ()>) {
        for token in 0..self.tokens {
            let next = self.next;
            ctx.send(next, token);
        }
    }

    fn on_message(&mut self, _from: ModuleId, token: u32, ctx: &mut Context<'_, u32, ()>) {
        let next = self.next;
        ctx.send(next, token);
    }
}

/// Steps `n` events on the measuring thread; returns the allocations made.
fn counted_steps(sim: &mut Simulator<u32, (), RingNode>, n: u64) -> u64 {
    COUNT_THIS_THREAD.with(|flag| flag.set(true));
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let done = sim.run_steps(n);
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    COUNT_THIS_THREAD.with(|flag| flag.set(false));
    assert_eq!(done, n, "the ring never drains");
    after - before
}

/// Allocations in two consecutive 1M-event windows of a 64-module ring
/// holding `tokens` tokens, after a 100k-event warm-up.  Every hop is
/// delayed by 1–100 µs of jitter, so tokens overtake each other and pops
/// keep splitting buckets.
fn ring_window_allocations(tokens: u32) -> (u64, u64) {
    let mut sim: Simulator<u32, (), RingNode> = Simulator::new(())
        .with_latency(LatencyModel::Uniform {
            min: Duration::micros(1),
            max: Duration::micros(100),
        })
        .with_seed(11);
    let modules = 64;
    for i in 0..modules {
        sim.add(RingNode {
            next: ModuleId((i + 1) % modules),
            tokens: if i == 0 { tokens } else { 0 },
        });
    }
    // Warm-up: the starts, the first waves, bucket capacities sized.
    sim.run_steps(100_000);
    let first = counted_steps(&mut sim, 1_000_000);
    let second = counted_steps(&mut sim, 1_000_000);
    (first, second)
}

#[test]
fn kernel_allocations_stay_bounded_after_warmup() {
    // Sparse (a few pending events, like an election's flood) and dense
    // (hundreds pending).  The bound, two per queue bucket over the whole
    // 2M events, leaves room for first uses and rare capacity growth; an
    // allocation per bucket split would show up as hundreds of thousands.
    for tokens in [4, 256] {
        let (first, second) = ring_window_allocations(tokens);
        assert!(
            first + second <= 128,
            "{tokens} tokens: {first} + {second} allocations in 2M kernel steps; \
             expected at most two per queue bucket"
        );
        assert!(
            second <= first.max(1),
            "{tokens} tokens: allocations grow with the window: {first} in the first \
             1M steps, {second} in the next"
        );
    }
}
