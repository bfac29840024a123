//! The traced run: the same simulation as the public DES path, with
//! every `BlockHarness` wrapped in a benchmark-owned `BlockCode` that
//! calls the harness's public `start` / `deliver` / `timer` through a
//! benchmark-owned `Transport` shim over `Context`.
//!
//! Spans (whole-run aggregates per name, full spans for a bounded sample
//! of elections):
//!
//! ```text
//! step                                  Simulator::step (desim.kernel)
//! └─ harness.{start,deliver,timer}      BlockHarness handlers (core.runtime)
//!    ├─ with_world                      ElectionCore + SurfaceWorld
//!    ├─ send                            Context::send (desim.network)
//!    └─ set_timer                       Context::set_timer (desim.kernel)
//! ```
//!
//! Spans of one election share `Msg::iteration()` as their id.  The
//! wrapper also records the two replay tapes: every handler's emitted
//! sends, timers and stop as compact records (kernel replay), and every
//! `with_world` call's distance probes and hops (world replay).

use crate::workload::Instance;
use crate::Clock;
use sb_core::election::ElectionCore;
use sb_core::reliability::Envelope;
use sb_core::runtime::{BlockHarness, Color, FaultInjection, FaultVictim, Transport, TAG_CRASH};
use sb_core::world::{MoveRecord, Outcome, SurfaceWorld};
use sb_desim::network::splitmix64;
use sb_desim::{BlockCode, Context, Duration as SimDuration, FaultPlan, ModuleId, SimStats};
use sb_desim::{SimTime, Simulator};
use sb_grid::BlockId;
use std::sync::{Arc, Mutex};

/// Bit 63 marks the harness's control-timer tags (crash, rejoin, round
/// skip); the kernel's fault plan exempts them from dead windows.
const CONTROL_BIT: u64 = 1 << 63;
const _: () = assert!(TAG_CRASH & CONTROL_BIT != 0);

/// Span names, in output order.
pub const SPAN_NAMES: [&str; 7] = [
    "step",
    "harness.start",
    "harness.deliver",
    "harness.timer",
    "with_world",
    "send",
    "set_timer",
];
pub const STEP: usize = 0;
pub const H_START: usize = 1;
pub const H_DELIVER: usize = 2;
pub const H_TIMER: usize = 3;
pub const WITH_WORLD: usize = 4;
pub const SEND: usize = 5;
pub const SET_TIMER: usize = 6;

/// Upper bound on full spans kept for the sampled elections.
const MAX_SAMPLED_SPANS: usize = 200_000;

/// Elections whose spans are kept in full: the first, and every 2000th.
fn sampled(election: u32) -> bool {
    election == 1 || (election > 0 && election.is_multiple_of(2000))
}

/// One recorded span of a sampled election.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// Index into [`SPAN_NAMES`].
    pub name: usize,
    /// Election (iteration) the span belongs to.
    pub election: u32,
    /// Index of the parent span, if any.
    pub parent: Option<usize>,
    /// Start, nanoseconds since the run's clock origin.
    pub start_ns: u64,
    /// End, nanoseconds since the run's clock origin.
    pub end_ns: u64,
}

/// One effect a handler emitted, as the kernel replay re-emits it.
#[derive(Clone, Copy, Debug)]
pub enum Op {
    /// `Context::send` to a module; `tag` is the envelope kind.
    Send { to: u32, tag: u32 },
    /// `Context::set_timer`.
    Timer { delay_us: u32, tag: u64 },
    /// `Context::request_stop`.
    Stop,
}

/// One world-changing call made inside `with_world`, as the world replay
/// re-issues it.
#[derive(Clone, Copy, Debug)]
pub enum WorldOp {
    /// `count` consecutive `distance_to_output(block)` probes.
    Probe { block: u32, count: u32 },
    /// `hop_towards_output(block, iteration)` by the elected block.
    Hop { block: u32, iteration: u32 },
}

/// Handler invocations and their effects, in dispatch order.
#[derive(Default)]
pub struct KernelTape {
    /// Module index of each handler invocation.
    pub modules: Vec<u32>,
    /// Offset of each invocation's first op; one trailing sentinel.
    pub starts: Vec<u32>,
    /// Every emitted op.
    pub ops: Vec<Op>,
}

/// Span aggregates, replay tapes and boundary counts of one traced run.
pub struct Tracer {
    clock: Clock,
    /// Completed spans per name.
    pub counts: [u64; 7],
    /// Total span time per name, nanoseconds.
    pub total_ns: [u64; 7],
    /// Full spans of the sampled elections.
    pub spans: Vec<Span>,
    /// Sampled handler span opened during the current step.
    open_handler: Option<usize>,
    /// Kernel replay tape.
    pub tape: KernelTape,
    /// World replay tape.
    pub world_ops: Vec<WorldOp>,
    /// Envelopes delivered to harnesses: raw, data, delivery-ack.
    pub delivered: [u64; 3],
    /// Clock reads made by the tracer.
    pub clock_reads: u64,
}

impl Tracer {
    fn new(clock: Clock) -> Tracer {
        Tracer {
            clock,
            counts: [0; 7],
            total_ns: [0; 7],
            spans: Vec::new(),
            open_handler: None,
            tape: KernelTape::default(),
            world_ops: Vec::new(),
            delivered: [0; 3],
            clock_reads: 0,
        }
    }

    fn now(&mut self) -> u64 {
        self.clock_reads += 1;
        self.clock.ns()
    }

    fn add(&mut self, name: usize, start_ns: u64, end_ns: u64) {
        self.counts[name] += 1;
        self.total_ns[name] += end_ns - start_ns;
    }

    /// Records a child span of the open sampled handler, if any.
    fn child(&mut self, name: usize, start_ns: u64, end_ns: u64) {
        self.add(name, start_ns, end_ns);
        if let Some(parent) = self.open_handler {
            if self.spans.len() < MAX_SAMPLED_SPANS {
                let election = self.spans[parent].election;
                self.spans.push(Span {
                    name,
                    election,
                    parent: Some(parent),
                    start_ns,
                    end_ns,
                });
            }
        }
    }

    fn begin_handler(&mut self, module: usize) {
        self.tape
            .modules
            .push(u32::try_from(module).expect("module index fits u32"));
        self.tape
            .starts
            .push(u32::try_from(self.tape.ops.len()).expect("op count fits u32"));
    }

    /// Opens the span of a handler of a sampled election, so its child
    /// spans can name it as their parent.
    fn open_handler_span(&mut self, name: usize, election: u32, start_ns: u64) {
        if sampled(election) && self.spans.len() < MAX_SAMPLED_SPANS {
            self.spans.push(Span {
                name,
                election,
                parent: None,
                start_ns,
                end_ns: start_ns,
            });
            self.open_handler = Some(self.spans.len() - 1);
        }
    }

    fn close_handler(&mut self, name: usize, start_ns: u64, end_ns: u64) {
        self.add(name, start_ns, end_ns);
        if let Some(h) = self.open_handler {
            self.spans[h].end_ns = end_ns;
        }
    }

    fn step(&mut self, start_ns: u64, end_ns: u64) {
        self.add(STEP, start_ns, end_ns);
        if let Some(h) = self.open_handler.take() {
            if self.spans.len() < MAX_SAMPLED_SPANS {
                self.spans.push(Span {
                    name: STEP,
                    election: self.spans[h].election,
                    parent: None,
                    start_ns,
                    end_ns,
                });
                self.spans[h].parent = Some(self.spans.len() - 1);
            }
        }
    }
}

/// The benchmark-owned block code around one `BlockHarness`.
pub struct TracedBlock {
    harness: BlockHarness,
    me: BlockId,
    tracer: Arc<Mutex<Tracer>>,
}

/// The benchmark-owned `Transport` shim: the same mapping onto
/// `Context` as the library's DES shim, with spans and tape records.
struct Shim<'a, 'k> {
    ctx: &'a mut Context<'k, Envelope, SurfaceWorld>,
    tracer: &'a mut Tracer,
    me: BlockId,
}

fn envelope_tag(envelope: &Envelope) -> u32 {
    match envelope {
        Envelope::Raw(msg) => msg.kind() as u32,
        Envelope::Data { msg, .. } => 8 + msg.kind() as u32,
        Envelope::DeliveryAck { .. } => 16,
    }
}

impl Transport for Shim<'_, '_> {
    fn send(&mut self, target: usize, envelope: Envelope) {
        self.tracer.tape.ops.push(Op::Send {
            to: u32::try_from(target).expect("module index fits u32"),
            tag: envelope_tag(&envelope),
        });
        let t0 = self.tracer.now();
        self.ctx.send(ModuleId(target), envelope);
        let t1 = self.tracer.now();
        self.tracer.child(SEND, t0, t1);
    }

    fn set_timer(&mut self, delay_us: u64, tag: u64) {
        self.tracer.tape.ops.push(Op::Timer {
            delay_us: u32::try_from(delay_us).expect("timer delay fits u32 microseconds"),
            tag,
        });
        let t0 = self.tracer.now();
        self.ctx.set_timer(SimDuration::micros(delay_us), tag);
        let t1 = self.tracer.now();
        self.tracer.child(SET_TIMER, t0, t1);
    }

    fn request_stop(&mut self) {
        self.tracer.tape.ops.push(Op::Stop);
        self.ctx.request_stop();
    }

    fn set_visual_state(&mut self, color: Color) {
        self.ctx.set_color(color);
    }

    fn with_world<R>(&mut self, f: impl FnOnce(&mut SurfaceWorld) -> R) -> R {
        let world = self.ctx.world_mut();
        let probes_before = world.metrics().distance_computations;
        let hops_before = world.move_log().len();
        let t0 = self.tracer.now();
        let result = f(world);
        let t1 = self.tracer.now();
        self.tracer.child(WITH_WORLD, t0, t1);
        let probes = world.metrics().distance_computations - probes_before;
        let block = self.me.0;
        if probes > 0 {
            self.tracer.world_ops.push(WorldOp::Probe {
                block,
                count: u32::try_from(probes).expect("probes per call fit u32"),
            });
        }
        for record in &world.move_log()[hops_before..] {
            self.tracer.world_ops.push(WorldOp::Hop {
                block,
                iteration: record.iteration,
            });
        }
        result
    }
}

impl TracedBlock {
    fn run(
        &mut self,
        name: usize,
        election: u32,
        delivered: Option<usize>,
        ctx: &mut Context<'_, Envelope, SurfaceWorld>,
        body: impl FnOnce(&mut BlockHarness, &mut Shim<'_, '_>),
    ) {
        let TracedBlock {
            harness,
            me,
            tracer,
        } = self;
        let mut tracer = tracer.lock().expect("the tracer lock is never poisoned");
        if let Some(kind) = delivered {
            tracer.delivered[kind] += 1;
        }
        tracer.begin_handler(ctx.self_id().index());
        let t0 = tracer.now();
        tracer.open_handler_span(name, election, t0);
        let mut shim = Shim {
            ctx,
            tracer: &mut tracer,
            me: *me,
        };
        body(harness, &mut shim);
        let t1 = tracer.now();
        tracer.close_handler(name, t0, t1);
    }
}

impl BlockCode<Envelope, SurfaceWorld> for TracedBlock {
    fn on_start(&mut self, ctx: &mut Context<'_, Envelope, SurfaceWorld>) {
        let election = self.harness.core().iteration();
        self.run(H_START, election, None, ctx, |h, shim| h.start(shim));
    }

    fn on_message(
        &mut self,
        from: ModuleId,
        msg: Envelope,
        ctx: &mut Context<'_, Envelope, SurfaceWorld>,
    ) {
        let (kind, election) = match &msg {
            Envelope::Raw(m) => (0, m.iteration()),
            Envelope::Data { msg: m, .. } => (1, m.iteration()),
            Envelope::DeliveryAck { .. } => (2, self.harness.core().iteration()),
        };
        self.run(H_DELIVER, election, Some(kind), ctx, |h, shim| {
            h.deliver(from.index(), msg, shim)
        });
    }

    fn on_timer(&mut self, tag: u64, ctx: &mut Context<'_, Envelope, SurfaceWorld>) {
        let election = self.harness.core().iteration();
        self.run(H_TIMER, election, None, ctx, |h, shim| h.timer(tag, shim));
    }
}

/// Resolves a fault injection's victim to a module index, as
/// `build_des_simulation_with_faults` does: the Root, or the seeded relay
/// `splitmix64(seed ^ 0xFA01_7BA5) mod (n − 1)` skipping the Root.  The
/// traced run's move log and dead-window counters are checked against
/// the untraced run, so a divergence here cannot pass unnoticed.
fn victim_index(fault: &FaultInjection, modules: usize, root: usize, sim_seed: u64) -> usize {
    match fault.victim {
        FaultVictim::Root => root,
        FaultVictim::SeededRelay => {
            let modulus = u64::try_from(modules - 1).expect("module count fits u64");
            let slot = usize::try_from(splitmix64(sim_seed ^ 0xFA01_7BA5) % modulus)
                .expect("slot fits usize");
            if slot >= root {
                slot + 1
            } else {
                slot
            }
        }
    }
}

/// Builds the traced twin of `build_des_simulation_with_faults`: same
/// world, module order, network, seed, fault plan and harness
/// configuration, with each harness wrapped in a [`TracedBlock`].
/// Returns the kernel fault plan too, for the kernel replay.
fn traced_simulator(
    inst: &Instance,
    tracer: &Arc<Mutex<Tracer>>,
) -> (
    Simulator<Envelope, SurfaceWorld, TracedBlock>,
    Option<FaultPlan>,
) {
    let mut world = inst.world();
    let order = world.grid().block_ids_sorted();
    world.set_module_mapping(order.clone());
    let root = world
        .root_block()
        .expect("Assumption 2: a Root block occupies the input cell");
    let root_index = order
        .iter()
        .position(|&b| b == root)
        .expect("the Root is in the module order");
    let victim = inst.faults.map(|f| {
        (
            victim_index(&f, order.len(), root_index, inst.sim_seed),
            f.schedule,
        )
    });
    let plan = victim.map(|(index, schedule)| {
        FaultPlan::new()
            .with_control_tag_mask(CONTROL_BIT)
            .with_window(
                index,
                SimTime(schedule.crash_at_us),
                schedule.rejoin_at_us.map(SimTime),
            )
    });
    let mut sim = Simulator::new(world)
        .with_network(inst.network)
        .with_seed(inst.sim_seed);
    if let Some(plan) = &plan {
        sim = sim.with_fault_plan(plan.clone());
    }
    for (i, block) in order.into_iter().enumerate() {
        let core = ElectionCore::new(block, block == root, inst.algorithm);
        let mut harness = BlockHarness::with_reliability(core, inst.reliability);
        if let Some((index, schedule)) = victim {
            if i == index {
                harness = harness.with_fault(schedule);
            }
        }
        sim.add(TracedBlock {
            harness,
            me: block,
            tracer: Arc::clone(tracer),
        });
    }
    (sim, plan)
}

/// Everything a traced run produced.
pub struct TracedRun {
    /// Span aggregates, sampled spans and replay tapes.
    pub tracer: Tracer,
    /// Kernel statistics of the traced run.
    pub stats: SimStats,
    /// Host wall time of the traced loop (first step to verdict).
    pub wall_ns: u64,
    /// Final outcome and path check.
    pub completed: bool,
    /// Executed motions.
    pub move_log: Vec<MoveRecord>,
    /// Final world (for the exact record).
    pub world: SurfaceWorld,
    /// The kernel fault plan the run used.
    pub plan: Option<FaultPlan>,
    /// Number of modules.
    pub modules: usize,
}

/// Runs one instance traced, driving the loop through `Simulator::step`
/// exactly as `run_until_idle` does.
pub fn run_traced(inst: &Instance, clock: Clock) -> TracedRun {
    let tracer = Arc::new(Mutex::new(Tracer::new(clock)));
    let (mut sim, plan) = traced_simulator(inst, &tracer);
    let modules = sim.module_count();
    let wall0 = clock.ns();
    while !sim.is_stopped() {
        let t0 = clock.ns();
        let more = sim.step();
        let t1 = clock.ns();
        if !more {
            break;
        }
        let mut tr = tracer.lock().expect("the tracer lock is never poisoned");
        tr.clock_reads += 2;
        tr.step(t0, t1);
    }
    let completed =
        sim.world().outcome() == Some(Outcome::Completed) && sim.world().path_complete();
    let wall_ns = clock.ns() - wall0;
    let stats = sim.stats();
    let move_log = sim.world().move_log().to_vec();
    let world = sim.into_world();
    let mut tracer = Arc::try_unwrap(tracer)
        .unwrap_or_else(|_| panic!("every traced block was dropped with the simulator"))
        .into_inner()
        .expect("the tracer lock is never poisoned");
    let sentinel = u32::try_from(tracer.tape.ops.len()).expect("op count fits u32");
    tracer.tape.starts.push(sentinel);
    TracedRun {
        tracer,
        stats,
        wall_ns,
        completed,
        move_log,
        world,
        plan,
        modules,
    }
}
