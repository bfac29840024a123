//! The high-level reconfiguration driver.
//!
//! [`ReconfigurationDriver`] assembles everything needed to run Algorithm 1
//! on a problem instance — the shared world, the rule catalogue, the
//! runtime — executes it, and condenses the outcome into a
//! [`ReconfigurationReport`] whose fields map directly onto the quantities
//! the paper discusses (number of elections, block moves, messages,
//! distance computations).

use crate::election::AlgorithmConfig;
use crate::metrics::Metrics;
use crate::reliability::ReliabilityConfig;
use crate::runtime::{
    build_actor_system_with_faults, build_des_simulation_with_faults, FaultInjection,
};
use crate::world::{MotionModel, MoveRecord, MoveRule, Outcome, SurfaceWorld};
use sb_desim::{LatencyModel, NetworkModel};
use sb_grid::SurfaceConfig;
use sb_motion::RuleCatalog;
use std::fmt;
use std::time::Duration as WallDuration;

/// Which runtime executed a report.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RuntimeKind {
    /// The deterministic discrete-event simulator.
    DiscreteEvent,
    /// The threaded actor runtime.
    Actors,
}

/// Condensed outcome of one reconfiguration run.
#[derive(Clone, Debug)]
pub struct ReconfigurationReport {
    /// Which runtime produced the report.
    pub runtime: RuntimeKind,
    /// Number of blocks in the instance.
    pub blocks: usize,
    /// Cells of a shortest path between `I` and `O` (`hops + 1`).
    pub shortest_path_cells: u32,
    /// Whether the algorithm declared success.
    pub completed: bool,
    /// Whether the algorithm stalled (no candidate could move while the
    /// goal was not reached).
    pub stalled: bool,
    /// Whether a complete shortest path of blocks exists at the end.
    pub path_complete: bool,
    /// Whether the output cell is occupied at the end.
    pub output_occupied: bool,
    /// Metric counters (elections, messages, distance computations,
    /// moves).
    pub metrics: Metrics,
    /// The executed motions, in order.
    pub move_log: Vec<MoveRecord>,
    /// Display names of the catalogue rules, indexed by interned
    /// [`sb_motion::RuleId`] — the table [`ReconfigurationReport::rule_name`]
    /// resolves [`MoveRecord::rule`] against (one clone per run, not per
    /// executed motion).
    pub rule_names: Vec<String>,
    /// ASCII frames recorded after every motion (empty unless frame
    /// recording was enabled).
    pub frames: Vec<String>,
    /// Final ASCII rendering of the surface.
    pub final_ascii: String,
    /// Simulated time at the end, in microseconds.  `None` for the actor
    /// runtime, which runs in wall-clock time and has no simulated clock.
    pub sim_time_us: Option<u64>,
    /// Events processed by the discrete-event dispatcher.  `None` for the
    /// actor runtime, which has no event queue.
    pub events_processed: Option<u64>,
    /// Messages actually delivered to actors.  `None` for the
    /// discrete-event runtime, where delivery equals the metrics' sent
    /// count by construction.
    pub messages_delivered: Option<u64>,
    /// Whether the runtime terminated because a block requested the stop
    /// (normal termination of Algorithm 1).
    pub stopped: bool,
    /// Whether the run was cut short by the runtime's deadline (actor
    /// runtime only; the discrete-event runtime always runs to
    /// completion).
    pub timed_out: bool,
    /// Wall-clock duration of the run.
    pub wall_time: WallDuration,
}

impl ReconfigurationReport {
    /// Elementary block moves executed (the unit of the paper's "55 block
    /// moves").
    pub fn elementary_moves(&self) -> u64 {
        self.metrics.elementary_moves
    }

    /// Elections run (iterations of Algorithm 1).
    pub fn elections(&self) -> u64 {
        self.metrics.elections
    }

    /// Total messages exchanged.
    pub fn total_messages(&self) -> u64 {
        self.metrics.total_messages()
    }

    /// The display name of a recorded motion's rule (`"free"` for the
    /// free-motion baseline), resolved through the report's name table.
    pub fn rule_name(&self, record: &MoveRecord) -> &str {
        match record.rule {
            MoveRule::Catalog(id) => self
                .rule_names
                .get(id as usize)
                .map(String::as_str)
                .unwrap_or("<unknown rule>"),
            MoveRule::Free => "free",
        }
    }
}

impl fmt::Display for ReconfigurationReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} blocks, path of {} cells -> {}",
            self.blocks,
            self.shortest_path_cells,
            if self.completed {
                "completed"
            } else if self.stalled {
                "stalled"
            } else {
                "not finished"
            }
        )?;
        writeln!(f, "  {}", self.metrics)?;
        writeln!(
            f,
            "  path complete: {}, output occupied: {}",
            self.path_complete, self.output_occupied
        )?;
        match self.runtime {
            RuntimeKind::DiscreteEvent => write!(
                f,
                "  sim time {} us, {} events, wall {:?}",
                self.sim_time_us.unwrap_or(0),
                self.events_processed.unwrap_or(0),
                self.wall_time
            ),
            RuntimeKind::Actors => write!(
                f,
                "  {} messages delivered, wall {:?}{}",
                self.messages_delivered.unwrap_or(0),
                self.wall_time,
                if self.timed_out {
                    " (deadline expired)"
                } else if self.stopped {
                    ""
                } else {
                    " (all actors exited without a stop)"
                }
            ),
        }
    }
}

/// Builder/runner for one reconfiguration experiment.
#[derive(Clone)]
pub struct ReconfigurationDriver {
    config: SurfaceConfig,
    algorithm: AlgorithmConfig,
    catalog: RuleCatalog,
    motion_model: MotionModel,
    network: NetworkModel,
    reliability: ReliabilityConfig,
    sim_seed: u64,
    record_frames: bool,
    faults: Option<FaultInjection>,
}

impl ReconfigurationDriver {
    /// Creates a driver for the given instance with the standard rule
    /// catalogue, rule-based motion, the default latency model and the
    /// default algorithm parameters.
    pub fn new(config: SurfaceConfig) -> Self {
        let blocks = config.block_count() as u64;
        // Safety valve: Remark 4 bounds the hops by O(N²); anything far
        // beyond that indicates a livelock rather than progress.  Computed
        // in u64 and saturated so huge ensembles (block_count ≳ 9.3k would
        // overflow a u32 product) keep a valid bound instead of panicking
        // in debug or wrapping to a tiny one in release.
        let bound = 50u64
            .saturating_mul(blocks.saturating_mul(blocks))
            .saturating_add(500);
        let algorithm = AlgorithmConfig {
            max_iterations: u32::try_from(bound).unwrap_or(u32::MAX),
            ..AlgorithmConfig::default()
        };
        ReconfigurationDriver {
            config,
            algorithm,
            catalog: RuleCatalog::standard(),
            motion_model: MotionModel::RuleBased,
            network: NetworkModel::default(),
            reliability: ReliabilityConfig::off(),
            sim_seed: 1,
            record_frames: false,
            faults: None,
        }
    }

    /// Overrides the algorithm parameters.
    pub fn with_algorithm(mut self, algorithm: AlgorithmConfig) -> Self {
        self.algorithm = algorithm;
        self
    }

    /// Overrides the rule catalogue (e.g. for the sliding-only ablation).
    pub fn with_catalog(mut self, catalog: RuleCatalog) -> Self {
        self.catalog = catalog;
        self
    }

    /// Switches to the free-motion baseline of \[14\].
    pub fn with_motion_model(mut self, model: MotionModel) -> Self {
        self.motion_model = model;
        self
    }

    /// Overrides the message latency model of the discrete-event runtime
    /// (uniform across links); shorthand for
    /// `with_network(NetworkModel::Uniform(..))`.
    pub fn with_latency(self, latency: LatencyModel) -> Self {
        self.with_network(NetworkModel::Uniform(latency))
    }

    /// Overrides the per-link network model of the discrete-event runtime
    /// (heterogeneous/asymmetric delays, heavy tails, jitter bursts, or
    /// the drop/duplication assumption-violation probes).
    pub fn with_network(mut self, network: NetworkModel) -> Self {
        self.network = network;
        self
    }

    /// Enables (or re-configures) the reliable delivery layer in every
    /// block harness: sequence-numbered envelopes, duplicate suppression
    /// and timer-driven retransmission.  Off by default, in which case
    /// messages travel as raw envelopes exactly as before the layer
    /// existed.
    pub fn with_reliability(mut self, reliability: ReliabilityConfig) -> Self {
        self.reliability = reliability;
        self
    }

    /// Overrides the simulator seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.sim_seed = seed;
        self
    }

    /// Injects a crash/rejoin fault scenario (`None` disables the
    /// injection again).  The victim is resolved deterministically from
    /// the world and the simulator seed, so a given
    /// (instance, seed, scenario) triple kills the same module on every
    /// run and both runtimes.  Crash recovery additionally needs the
    /// round layer ([`crate::election::RoundsConfig`]) and usually the
    /// reliable delivery layer; without them a mid-election crash
    /// deadlocks by design (that contrast is what the fault sweeps
    /// measure).
    pub fn with_faults(mut self, faults: Option<FaultInjection>) -> Self {
        self.faults = faults;
        self
    }

    /// Records an ASCII frame after every motion.
    pub fn with_frames(mut self) -> Self {
        self.record_frames = true;
        self
    }

    /// The underlying instance.
    pub fn config(&self) -> &SurfaceConfig {
        &self.config
    }

    /// The algorithm parameters the driver will run with (including the
    /// size-derived `max_iterations` safety valve).
    pub fn algorithm(&self) -> &AlgorithmConfig {
        &self.algorithm
    }

    fn build_world(&self) -> SurfaceWorld {
        let mut world =
            SurfaceWorld::new(self.config.clone(), self.catalog.clone(), self.motion_model);
        world.record_frames(self.record_frames);
        world
    }

    fn report_from_world(
        &self,
        world: &SurfaceWorld,
        runtime: RuntimeKind,
        wall_time: WallDuration,
    ) -> ReconfigurationReport {
        ReconfigurationReport {
            runtime,
            blocks: self.config.block_count(),
            shortest_path_cells: self.config.graph().shortest_path_info().cells,
            completed: world.outcome() == Some(Outcome::Completed),
            stalled: world.outcome() == Some(Outcome::Stalled),
            path_complete: world.path_complete(),
            output_occupied: world.output_occupied(),
            metrics: world.metrics_with_connectivity(),
            move_log: world.move_log().to_vec(),
            rule_names: world
                .planner()
                .catalog()
                .names()
                .into_iter()
                .map(str::to_string)
                .collect(),
            frames: world.frames().to_vec(),
            final_ascii: world.ascii(),
            sim_time_us: None,
            events_processed: None,
            messages_delivered: None,
            stopped: false,
            timed_out: false,
            wall_time,
        }
    }

    /// Runs the algorithm on the discrete-event simulator until it
    /// terminates (or stalls).
    pub fn run_des(&self) -> ReconfigurationReport {
        let world = self.build_world();
        let mut sim = build_des_simulation_with_faults(
            world,
            self.algorithm,
            self.network,
            self.sim_seed,
            self.reliability,
            self.faults,
        );
        let stats = sim.run_until_idle();
        let mut report =
            self.report_from_world(sim.world(), RuntimeKind::DiscreteEvent, stats.wall_elapsed);
        report.sim_time_us = Some(sim.now().as_micros());
        report.events_processed = Some(stats.events_processed);
        report.stopped = sim.is_stopped();
        report
    }

    /// Runs the algorithm on the threaded actor runtime with the given
    /// wall-clock deadline.
    pub fn run_actors(&self, deadline: WallDuration) -> ReconfigurationReport {
        let world = self.build_world();
        let system = build_actor_system_with_faults(
            world,
            self.algorithm,
            self.reliability,
            self.sim_seed,
            self.faults,
        );
        let run = system.run(deadline);
        let mut report = self.report_from_world(&run.world, RuntimeKind::Actors, run.elapsed);
        report.messages_delivered = Some(run.messages_delivered);
        report.stopped = run.stopped;
        report.timed_out = run.timed_out;
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads;

    #[test]
    fn small_instance_completes_and_reports_consistent_metrics() {
        let cfg = workloads::rectangle_instance(3, 2, 4);
        let report = ReconfigurationDriver::new(cfg).with_frames().run_des();
        assert!(report.completed, "report: {report}");
        assert!(report.path_complete);
        assert!(report.output_occupied);
        assert!(!report.stalled);
        // One elected hop per completed election except possibly the last
        // (the final election may conclude without a hop when the goal is
        // already reached), and at least one move per hop.
        assert!(report.metrics.elected_hops >= 1);
        assert!(report.metrics.elementary_moves >= report.metrics.elected_hops);
        assert!(report.metrics.elections >= report.metrics.elected_hops);
        assert_eq!(report.move_log.len() as u64, report.metrics.elected_hops);
        assert_eq!(report.frames.len(), report.move_log.len());
        assert!(report.total_messages() > 0);
        assert!(report.metrics.distance_computations > 0);
        assert!(report.events_processed.expect("DES run counts events") > 0);
        assert!(report.sim_time_us.expect("DES run has a simulated clock") > 0);
        assert!(report.stopped, "the Root requested the stop");
        assert!(!report.timed_out, "the DES runtime has no deadline");
        assert_eq!(
            report.messages_delivered, None,
            "delivery counting is an actor-runtime quantity"
        );
    }

    #[test]
    fn max_iterations_valve_saturates_for_huge_ensembles() {
        // 10 000 blocks: 50·N² + 500 = 5 000 000 500 overflows u32 (the
        // pre-fix computation panicked in debug and wrapped to a uselessly
        // small bound in release); the valve must saturate instead.
        let bounds = sb_grid::Bounds::new(104, 102);
        let cfg = sb_grid::gen::rectangle_config(
            bounds,
            sb_grid::Pos::new(1, 0),
            sb_grid::Pos::new(1, 101),
            100,
            100,
        );
        assert_eq!(cfg.block_count(), 10_000);
        let driver = ReconfigurationDriver::new(cfg);
        assert_eq!(driver.algorithm().max_iterations, u32::MAX);

        // A size on the near side of the overflow keeps the exact bound.
        let small = workloads::rectangle_instance(3, 2, 4);
        let expected = 50 * (small.block_count() as u32).pow(2) + 500;
        assert_eq!(
            ReconfigurationDriver::new(small).algorithm().max_iterations,
            expected
        );
    }

    #[test]
    fn fig10_instance_completes() {
        let report = ReconfigurationDriver::new(workloads::fig10_instance()).run_des();
        assert!(
            report.completed,
            "report:\n{report}\n{}",
            report.final_ascii
        );
        assert!(report.path_complete);
        assert_eq!(report.shortest_path_cells, 11);
        assert_eq!(report.blocks, 12);
    }

    #[test]
    fn runs_are_reproducible_for_a_given_seed() {
        let cfg = workloads::rectangle_instance(3, 2, 4);
        let a = ReconfigurationDriver::new(cfg.clone())
            .with_seed(9)
            .run_des();
        let b = ReconfigurationDriver::new(cfg).with_seed(9).run_des();
        assert_eq!(a.metrics, b.metrics);
        assert_eq!(a.move_log, b.move_log);
        assert_eq!(a.final_ascii, b.final_ascii);
    }

    #[test]
    fn free_motion_baseline_completes_with_fewer_or_equal_moves() {
        let cfg = workloads::rectangle_instance(3, 2, 4);
        let constrained = ReconfigurationDriver::new(cfg.clone()).run_des();
        let free = ReconfigurationDriver::new(cfg)
            .with_motion_model(MotionModel::FreeMotion)
            .run_des();
        assert!(constrained.completed);
        assert!(free.completed);
        assert!(
            free.elementary_moves() <= constrained.elementary_moves(),
            "free motion ({}) should not need more moves than the constrained model ({})",
            free.elementary_moves(),
            constrained.elementary_moves()
        );
    }
}

#[cfg(test)]
mod debug_tests {
    use super::*;
    use crate::workloads;

    #[test]
    #[ignore]
    fn debug_trace_rectangle() {
        let cfg = workloads::rectangle_instance(3, 2, 4);
        println!("initial:\n{}", cfg.to_ascii());
        let algo = crate::election::AlgorithmConfig {
            max_iterations: 40,
            tie_break: crate::election::TieBreak::LowestId,
            ..Default::default()
        };
        let report = ReconfigurationDriver::new(cfg)
            .with_algorithm(algo)
            .with_frames()
            .run_des();
        for (i, rec) in report.move_log.iter().enumerate() {
            println!(
                "hop {:>3} iter {:>3} rule {:<18} moves {:?}",
                i,
                rec.iteration,
                report.rule_name(rec),
                rec.moves
            );
        }
        println!("final:\n{}", report.final_ascii);
        println!("{report}");
    }

    #[test]
    #[ignore]
    fn debug_trace_free() {
        let cfg = workloads::rectangle_instance(3, 2, 4);
        let algo = crate::election::AlgorithmConfig {
            max_iterations: 40,
            tie_break: crate::election::TieBreak::LowestId,
            ..Default::default()
        };
        let report = ReconfigurationDriver::new(cfg)
            .with_algorithm(algo)
            .with_motion_model(crate::world::MotionModel::FreeMotion)
            .run_des();
        for (i, rec) in report.move_log.iter().enumerate() {
            println!(
                "hop {:>3} iter {:>3} rule {:<18} moves {:?}",
                i,
                rec.iteration,
                report.rule_name(rec),
                rec.moves
            );
        }
        println!("final:\n{}", report.final_ascii);
        println!("{report}");
    }
}
