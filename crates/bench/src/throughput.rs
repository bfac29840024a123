//! Throughput measurement for the discrete-event core.
//!
//! Two workload shapes are measured:
//!
//! * **ring** — a pure-kernel flood: tokens circulating a ring of `N`
//!   modules, no shared-world work, so the queue + dispatch overhead
//!   dominates;
//! * **election** — the first diffusing computation of the Smart Blocks
//!   election on a real workload family ([`Family::Column`] /
//!   [`Family::Serpentine`]) at ensemble size `N`, run for a bounded
//!   number of events: the production hot path (`BlockHarness` in the
//!   arena), startup sweep included.
//!
//! Wall-clock rates are host-dependent by nature: they are printed, never
//! written into a deterministic record.  A before/after comparison runs
//! the same measurement on two revisions.

use crate::sweep::Family;
use sb_core::election::{AlgorithmConfig, TieBreak};
use sb_core::reliability::ReliabilityConfig;
use sb_core::runtime::build_des_simulation;
use sb_core::world::SurfaceWorld;
use sb_desim::{BlockCode, Context, Duration, LatencyModel, ModuleId, NetworkModel, Simulator};
use std::time::Instant;

/// One throughput measurement of a bounded workload.
#[derive(Clone, Debug)]
pub struct ThroughputPoint {
    /// Workload shape (`"ring"`, `"column"`, `"serpentine"`).
    pub workload: &'static str,
    /// Number of simulator modules.
    pub modules: usize,
    /// Events processed.
    pub events: u64,
    /// Events per wall-clock second.
    pub events_per_sec: f64,
}

/// Ring node: forwards a hop counter to the next module until it reaches
/// zero.
struct RingNode {
    next: ModuleId,
    tokens: u32,
    hops: u32,
}

impl BlockCode<u32, ()> for RingNode {
    fn on_start(&mut self, ctx: &mut Context<'_, u32, ()>) {
        for _ in 0..self.tokens {
            let (next, hops) = (self.next, self.hops);
            ctx.send(next, hops);
        }
    }
    fn on_message(&mut self, _from: ModuleId, hops: u32, ctx: &mut Context<'_, u32, ()>) {
        if hops > 0 {
            let next = self.next;
            ctx.send(next, hops - 1);
        }
    }
}

/// Hops per token: short enough that the in-flight token population —
/// the pending-event depth, the quantity that actually scales with
/// ensemble size in a large simulation — grows with the event budget.
const RING_HOPS: u32 = 64;

fn timed(f: impl FnOnce() -> u64) -> (u64, f64) {
    // sb-allow: wall-clock-in-sim — stdout-only throughput timing, never written to a record
    let start = Instant::now();
    let events = f();
    (events, start.elapsed().as_secs_f64().max(1e-9))
}

/// Builds and runs the ring workload; returns events processed.  Exposed
/// so the criterion bench times the exact same workload the
/// [`measure_ring`] table reports.
pub fn run_ring(modules: usize, max_events: u64) -> u64 {
    let tokens = u32::try_from((max_events / u64::from(RING_HOPS)).max(1))
        .expect("ring token count must fit u32");
    let mut sim: Simulator<u32, (), RingNode> = Simulator::new(())
        .with_latency(LatencyModel::Fixed(Duration::micros(3)))
        .with_seed(5);
    for i in 0..modules {
        sim.add(RingNode {
            next: ModuleId((i + 1) % modules),
            tokens: if i == 0 { tokens } else { 0 },
            hops: RING_HOPS,
        });
    }
    sim.run_steps(max_events)
}

/// Measures the ring workload at `modules` modules, processing at most
/// `max_events` events.  The timed section covers registration and
/// dispatch.
pub fn measure_ring(modules: usize, max_events: u64) -> ThroughputPoint {
    let (events, secs) = timed(|| run_ring(modules, max_events));
    ThroughputPoint {
        workload: "ring",
        modules,
        events,
        events_per_sec: events as f64 / secs,
    }
}

/// Measures the election workload: family instance at `blocks` blocks,
/// fixed 10 µs links, at most `max_events` events (startup sweep plus the
/// first activation/acknowledgment waves at large `N`).  Registration is
/// timed, world construction is not.
pub fn measure_election(family: Family, blocks: usize, max_events: u64) -> ThroughputPoint {
    let algorithm = AlgorithmConfig {
        tie_break: TieBreak::LowestId,
        ..AlgorithmConfig::default()
    };
    let world = SurfaceWorld::standard(family.build(blocks, 1));
    let (events, secs) = timed(|| {
        build_des_simulation(
            world,
            algorithm,
            NetworkModel::default(),
            9,
            ReliabilityConfig::off(),
        )
        .run_steps(max_events)
    });
    ThroughputPoint {
        workload: family.name(),
        modules: blocks,
        events,
        events_per_sec: events as f64 / secs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_point_measures_identical_event_counts() {
        let point = measure_ring(64, 4_000);
        assert_eq!(point.workload, "ring");
        assert_eq!(point.modules, 64);
        assert_eq!(
            point.events,
            run_ring(64, 4_000),
            "the ring is deterministic"
        );
        assert!(point.events > 0);
        assert!(point.events_per_sec > 0.0);
    }

    #[test]
    fn election_point_runs_both_engines() {
        let point = measure_election(Family::Column, 32, 2_000);
        assert_eq!(point.workload, "column");
        assert!(point.events > 0);
        assert!(point.events_per_sec > 0.0);
    }
}
