//! The three benchmark workloads, their instance pools, and instance
//! set-up through the public DES path.
//!
//! Every instance is a sweep cell (`sb_bench::sweep::SweepCell`) of a
//! fixed workload whose `workload_seed` is its index in the workload's
//! pool.  Its simulator seed is the cell's semantic seed, exactly as
//! `sb_bench::sweep::run_cell` derives it, and the simulator is built
//! exactly as `ReconfigurationDriver::run_des` builds it.  The benchmark's
//! `--seed` only chooses which pool instances a run measures, so every
//! instance it can ever run has a pinned reference record.

use sb_bench::sweep::{Family, FaultSpec, NetworkSpec, ReliabilitySpec, SweepCell};
use sb_core::election::{AlgorithmConfig, TieBreak};
use sb_core::reliability::{Envelope, ReliabilityConfig};
use sb_core::runtime::{build_des_simulation_with_faults, BlockHarness, FaultInjection};
use sb_core::world::{MotionModel, SurfaceWorld};
use sb_core::ReconfigurationDriver;
use sb_desim::network::splitmix64;
use sb_desim::{NetworkModel, Simulator};
use sb_grid::SurfaceConfig;
use sb_motion::RuleCatalog;

/// Plan seed mixed into every instance's cell seed.
const PLAN_SEED: u64 = 0x5EED_BE7C;

/// Number of instances in each workload's pool (pool indices `0..POOL`).
pub const POOL: u64 = 16;

/// Distinct pool instances one run measures (cycled until the run's time
/// is up); half the pool keeps the exact metrics' medians steady across
/// seeds.
pub const PER_RUN: usize = 8;

/// One benchmark workload: a fixed scenario family, size, network,
/// reliability and fault configuration.
pub struct Workload {
    /// Stable name (the `--workload` argument).
    pub name: &'static str,
    /// Why the workload is in the benchmark.
    pub why: &'static str,
    family: Family,
    /// Ensemble size `N`.
    pub blocks: usize,
    network: fn() -> NetworkSpec,
    reliability: fn() -> ReliabilitySpec,
    fault: fn() -> FaultSpec,
}

/// Every workload, in canonical order.
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "column_jitter",
        why: "column N=160, 1-100 us jitter: message- and event-bound, most messages per election, jitter reorders the calendar queue, network on its uniform fast path",
        family: Family::Column,
        blocks: 160,
        network: NetworkSpec::uniform_1_100us,
        reliability: ReliabilitySpec::off,
        fault: FaultSpec::none,
    },
    Workload {
        name: "serpentine_hetero",
        why: "serpentine N=160, per-link 1-500 us delays: world-bound, ribbon turns are cut vertices so the connectivity oracle rebuilds often",
        family: Family::Serpentine,
        blocks: 160,
        network: NetworkSpec::hetero_asym_1_500us,
        reliability: ReliabilitySpec::off,
        fault: FaultSpec::none,
    },
    Workload {
        name: "column_faulty",
        why: "column N=96, 10% drop, reliability and rounds on: harness-bound, ack/retransmit timers beside messages, one relay crash and rejoin",
        family: Family::Column,
        blocks: 96,
        network: NetworkSpec::drop_10pct,
        reliability: ReliabilitySpec::on_fast,
        fault: FaultSpec::relay_crash_rejoin,
    },
];

/// Looks a workload up by name.
pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    /// The sweep cell of pool instance `index` at size `blocks`.
    fn cell(&self, blocks: usize, index: u64) -> SweepCell {
        SweepCell {
            family: self.family,
            blocks,
            workload_seed: index,
            network: (self.network)(),
            tie_break: TieBreak::default(),
            motion: MotionModel::RuleBased,
            reliability: (self.reliability)(),
            fault: (self.fault)(),
        }
    }

    /// The distinct pool instances a run with benchmark seed `seed`
    /// measures: a seeded partial Fisher–Yates shuffle of the pool.
    pub fn instances_for_seed(&self, seed: u64) -> Vec<u64> {
        let mut pool: Vec<u64> = (0..POOL).collect();
        let mut state = splitmix64(seed ^ 0xB3AC_4A11);
        let take = PER_RUN.min(pool.len());
        for i in 0..take {
            state = splitmix64(state);
            let remaining = u64::try_from(pool.len() - i).expect("pool size fits u64");
            let pick = usize::try_from(state % remaining).expect("pick fits usize");
            pool.swap(i, i + pick);
        }
        pool.truncate(take);
        pool
    }

    /// Generates pool instance `index` at the workload's size.
    pub fn instance(&self, index: u64) -> Instance {
        self.instance_at(self.blocks, index)
    }

    /// Generates pool instance `index` at size `blocks` (the size ladder
    /// reuses the workload's configuration at other sizes).
    pub fn instance_at(&self, blocks: usize, index: u64) -> Instance {
        let cell = self.cell(blocks, index);
        let sim_seed = cell.cell_seed(PLAN_SEED);
        let config = cell.family.build(cell.blocks, cell.workload_seed);
        let driver = ReconfigurationDriver::new(config);
        let mut algorithm = *driver.algorithm();
        algorithm.tie_break = cell.tie_break;
        algorithm.seed = splitmix64(sim_seed);
        algorithm.rounds = cell.fault.rounds;
        Instance {
            driver,
            algorithm,
            network: cell.network.model,
            reliability: cell.reliability.config,
            faults: cell.fault.injection,
            sim_seed,
        }
    }
}

/// A generated instance: everything `ReconfigurationDriver::run_des`
/// hands to `build_des_simulation_with_faults`.
pub struct Instance {
    driver: ReconfigurationDriver,
    /// Algorithm parameters (size-derived iteration valve, tie-break
    /// seed, round configuration).
    pub algorithm: AlgorithmConfig,
    /// Network model.
    pub network: NetworkModel,
    /// Reliable-delivery configuration.
    pub reliability: ReliabilityConfig,
    /// Crash/rejoin injection, if any.
    pub faults: Option<FaultInjection>,
    /// Simulator seed.
    pub sim_seed: u64,
}

impl Instance {
    /// The instance's surface.
    pub fn config(&self) -> &SurfaceConfig {
        self.driver.config()
    }

    /// A fresh world, built as `ReconfigurationDriver` builds it.
    pub fn world(&self) -> SurfaceWorld {
        SurfaceWorld::new(
            self.config().clone(),
            RuleCatalog::standard(),
            MotionModel::RuleBased,
        )
    }

    /// The ready-to-run simulator of the public DES path.
    pub fn simulator(&self) -> Simulator<Envelope, SurfaceWorld, BlockHarness> {
        build_des_simulation_with_faults(
            self.world(),
            self.algorithm,
            self.network,
            self.sim_seed,
            self.reliability,
            self.faults,
        )
    }
}
