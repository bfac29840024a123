//! The two layer replays, each driven from a traced run's tapes through
//! public APIs only.
//!
//! * **World replay** (`core.world` alone): a fresh `SurfaceWorld`
//!   receives the traced run's distance probes and hops in their original
//!   order, with `path_complete` after every hop, and must reproduce the
//!   move log and every probe and oracle counter exactly.
//! * **Kernel replay** (`desim.kernel` + `desim.network` alone): a stub
//!   `BlockCode` with `u32` payloads re-emits every handler's recorded
//!   sends, timers and stop on a fresh `Simulator` with the same network,
//!   seed and fault plan, and must reproduce the kernel's counters and end
//!   time exactly.

use crate::trace::{KernelTape, Op, TracedRun, WorldOp};
use crate::workload::Instance;
use crate::Clock;
use sb_desim::{BlockCode, Context, Duration as SimDuration, ModuleId, Simulator};
use sb_grid::BlockId;
use std::hint::black_box;

/// Timings and counts of a world replay.
#[derive(Default)]
pub struct WorldReplay {
    /// Whole replay, nanoseconds.
    pub replay_ns: u64,
    /// Distance probes, nanoseconds (timed per batch between hops).
    pub distance_ns: u64,
    /// Hops, nanoseconds.
    pub hop_ns: u64,
    /// Probes issued.
    pub probes: u64,
    /// Probes answered with a finite distance.
    pub finite: u64,
}

/// Re-issues the traced run's world calls on a fresh world.  `Err` names
/// the first count that differs from the traced run.
pub fn world_replay(inst: &Instance, run: &TracedRun, clock: Clock) -> Result<WorldReplay, String> {
    let mut world = inst.world();
    let ops = &run.tracer.world_ops;
    let mut out = WorldReplay::default();
    let start = clock.ns();
    let mut i = 0;
    while i < ops.len() {
        let t0 = clock.ns();
        match ops[i] {
            WorldOp::Probe { .. } => {
                while let Some(&WorldOp::Probe { block, count }) = ops.get(i) {
                    for _ in 0..count {
                        let d = world.distance_to_output(BlockId(block));
                        out.finite += u64::from(!black_box(d).is_infinite());
                    }
                    out.probes += u64::from(count);
                    i += 1;
                }
                out.distance_ns += clock.ns() - t0;
            }
            WorldOp::Hop { block, iteration } => {
                black_box(world.hop_towards_output(BlockId(block), iteration));
                out.hop_ns += clock.ns() - t0;
                black_box(world.path_complete());
                i += 1;
            }
        }
    }
    out.replay_ns = clock.ns() - start;

    if world.move_log() != run.move_log.as_slice() {
        return Err("world replay: move log differs".to_string());
    }
    let got = world.metrics_with_connectivity();
    let want = run.world.metrics_with_connectivity();
    let pairs = [
        (
            "distance_computations",
            got.distance_computations,
            want.distance_computations,
        ),
        ("rule_checks", got.rule_checks, want.rule_checks),
        ("elected_hops", got.elected_hops, want.elected_hops),
        (
            "elementary_moves",
            got.elementary_moves,
            want.elementary_moves,
        ),
        (
            "connectivity_rebuilds",
            got.connectivity_rebuilds,
            want.connectivity_rebuilds,
        ),
        (
            "connectivity_incremental_updates",
            got.connectivity_incremental_updates,
            want.connectivity_incremental_updates,
        ),
        (
            "connectivity_fallback_probes",
            got.connectivity_fallback_probes,
            want.connectivity_fallback_probes,
        ),
        ("probes issued", out.probes, want.distance_computations),
    ];
    for (name, got, want) in pairs {
        if got != want {
            return Err(format!("world replay: {name} {got} != traced {want}"));
        }
    }
    Ok(out)
}

/// The kernel replay's world: the tape and a cursor over its handler
/// invocations.
struct Tape {
    tape: KernelTape,
    cursor: usize,
    mismatches: u64,
}

/// Stub block code: re-emits the recorded effects of the next handler
/// invocation.
struct ReplayNode;

fn emit(ctx: &mut Context<'_, u32, Tape>) {
    let me = ctx.self_id().index();
    let tape = ctx.world_mut();
    let h = tape.cursor;
    tape.cursor += 1;
    let expected = tape.tape.modules.get(h).copied();
    if expected.and_then(|m| usize::try_from(m).ok()) != Some(me) {
        tape.mismatches += 1;
        return;
    }
    let lo = tape.tape.starts[h] as usize;
    let hi = tape.tape.starts[h + 1] as usize;
    for i in lo..hi {
        match ctx.world().tape.ops[i] {
            Op::Send { to, tag } => ctx.send(ModuleId(to as usize), tag),
            Op::Timer { delay_us, tag } => {
                ctx.set_timer(SimDuration::micros(u64::from(delay_us)), tag)
            }
            Op::Stop => ctx.request_stop(),
        }
    }
}

impl BlockCode<u32, Tape> for ReplayNode {
    fn on_start(&mut self, ctx: &mut Context<'_, u32, Tape>) {
        emit(ctx);
    }

    fn on_message(&mut self, _from: ModuleId, _msg: u32, ctx: &mut Context<'_, u32, Tape>) {
        emit(ctx);
    }

    fn on_timer(&mut self, _tag: u64, ctx: &mut Context<'_, u32, Tape>) {
        emit(ctx);
    }
}

/// Timing of a kernel replay.
#[derive(Default)]
pub struct KernelReplay {
    /// `run_until_idle` wall time, nanoseconds.
    pub replay_ns: u64,
    /// Events the replay processed.
    pub events: u64,
}

/// Re-emits the traced run's handler effects on a fresh simulator.
/// Consumes the run's kernel tape.  `Err` names the first kernel counter
/// that differs from the traced run.
pub fn kernel_replay(
    inst: &Instance,
    run: &mut TracedRun,
    clock: Clock,
) -> Result<KernelReplay, String> {
    let handlers = run.tracer.tape.modules.len();
    let tape = Tape {
        tape: std::mem::take(&mut run.tracer.tape),
        cursor: 0,
        mismatches: 0,
    };
    let mut sim: Simulator<u32, Tape, ReplayNode> = Simulator::new(tape)
        .with_network(inst.network)
        .with_seed(inst.sim_seed);
    if let Some(plan) = &run.plan {
        sim = sim.with_fault_plan(plan.clone());
    }
    for _ in 0..run.modules {
        sim.add(ReplayNode);
    }
    let t0 = clock.ns();
    let stats = sim.run_until_idle();
    let replay_ns = clock.ns() - t0;
    let tape = sim.world();
    if tape.mismatches != 0 || tape.cursor != handlers {
        return Err(format!(
            "kernel replay: {} of {handlers} handler invocations replayed, {} on the wrong module",
            tape.cursor, tape.mismatches
        ));
    }
    let want = run.stats;
    let pairs: [(&str, u64, u64); 9] = [
        (
            "events_processed",
            stats.events_processed,
            want.events_processed,
        ),
        (
            "sim_time_end_us",
            stats.sim_time_end.as_micros(),
            want.sim_time_end.as_micros(),
        ),
        ("messages_sent", stats.messages_sent, want.messages_sent),
        (
            "messages_dropped",
            stats.messages_dropped,
            want.messages_dropped,
        ),
        (
            "messages_duplicated",
            stats.messages_duplicated,
            want.messages_duplicated,
        ),
        (
            "messages_dropped_dead",
            stats.messages_dropped_dead,
            want.messages_dropped_dead,
        ),
        (
            "timers_dropped_dead",
            stats.timers_dropped_dead,
            want.timers_dropped_dead,
        ),
        ("timers_set", stats.timers_set, want.timers_set),
        (
            "max_queue_len",
            stats.max_queue_len as u64,
            want.max_queue_len as u64,
        ),
    ];
    for (name, got, want) in pairs {
        if got != want {
            return Err(format!("kernel replay: {name} {got} != traced {want}"));
        }
    }
    Ok(KernelReplay {
        replay_ns,
        events: stats.events_processed,
    })
}
