//! Discrete-event simulator throughput (Section V.E).
//!
//! The paper reports that VisibleSim handles "2 millions of nodes at a
//! rate of 650k events/sec on a simple laptop".  This example measures the
//! same quantity for `sb-desim` on two workload shapes:
//!
//! * the pure-kernel **ring** flood (tokens circulating a module ring);
//! * the Smart Blocks **election** on real workload families (`column`
//!   and `serpentine`), arena-stored `BlockHarness` modules included —
//!   scaled to N = 10⁵ blocks.
//!
//! Rates are single wall-clock readings of one host; a before/after
//! comparison runs this example on both revisions.
//!
//! ```text
//! cargo run --release --example desim_throughput
//! SB_THROUGHPUT_QUICK=1 cargo run --release --example desim_throughput   # CI smoke: N = 1e5 only
//! ```

use sb_bench::{measure_election, measure_ring, Family, ThroughputPoint};
use sb_core::ReconfigurationDriver;

/// Regression ceiling for connectivity fallback probes on a standard
/// election plan: the PR 7 block-cut-tree oracle answers every probe the
/// column and serpentine reconfigurations emit — single supported moves
/// and hand-over carrying chains — without touching the O(N) BFS, so any
/// non-zero count means a probe shape fell off the fast path.
const FALLBACK_PROBE_CEILING: u64 = 0;

/// Runs full reconfigurations (not the bounded throughput slice) on the
/// election families and fails if the world's connectivity oracle either
/// reported a BFS fallback or — on the cells past the amortisation
/// crossover — performed more full Tarjan rebuilds than the PR 9
/// ceiling of `2 + 1%` of occupancy epochs.
///
/// Ceiling cells: rebuilds cost ~one per mover journey (O(N) total —
/// the rule-check probe of a back-edge wall cell adjacent to the active
/// mover trail genuinely needs a fresh forest), while occupancy epochs
/// grow as ~N²/4, so the rebuild share falls as ~c/N.  Measured
/// crossover against the `2 + 1%` ceiling: column passes from N ≈ 190
/// (N=256: 127 rebuilds / 16382 epochs), serpentine — whose journeys
/// per block are ~5× the column's — from N ≈ 1100.  QUICK keeps the
/// enforced cell at column N=256 (~2 s); the full run adds column
/// N=512 and a past-crossover serpentine cell (minutes, not CI-sized).
/// At the paper-scale N = 10⁴ the same counters give rebuilds ≈ 0.5%
/// of the ceiling.
fn gate_connectivity_maintenance(quick: bool) {
    println!(
        "\nconnectivity maintenance gate (fallback ceiling: {FALLBACK_PROBE_CEILING} BFS \
         probes; rebuild ceiling: 2 + epochs/100 on marked cells)"
    );
    let mut cells: Vec<(Family, usize, bool)> = vec![
        (Family::Column, 64, false),
        (Family::Serpentine, 48, false),
        (Family::Column, 256, true),
    ];
    if !quick {
        cells.push((Family::Column, 512, true));
        cells.push((Family::Serpentine, 1280, true));
    }
    for (family, blocks, enforce_rebuild_ceiling) in cells {
        let report = ReconfigurationDriver::new(family.build(blocks, 1))
            .with_seed(9)
            .run_des();
        assert!(
            report.completed,
            "{} N={blocks}: reconfiguration did not complete",
            family.name()
        );
        let epochs = report.move_log.len() as u64;
        let fallbacks = report.metrics.connectivity_fallback_probes;
        let rebuilds = report.metrics.connectivity_rebuilds;
        let incremental = report.metrics.connectivity_incremental_updates;
        let allowed = 2 + epochs / 100;
        println!(
            "{:>10} {:>9} epochs={epochs} rebuilds={rebuilds}{} incremental={incremental} \
             fallback-probes={fallbacks}",
            family.name(),
            blocks,
            if enforce_rebuild_ceiling {
                format!(" (ceiling {allowed})")
            } else {
                String::new()
            },
        );
        if fallbacks > FALLBACK_PROBE_CEILING {
            panic!(
                "{} N={blocks}: {fallbacks} connectivity probes fell back to the BFS \
                 (ceiling: {FALLBACK_PROBE_CEILING})",
                family.name()
            );
        }
        // Every epoch the run produced must have been absorbed by the
        // amortised-O(1) single-move sync (the oracle never silently
        // skips maintenance and pays for it on the next probe).
        assert!(
            incremental + rebuilds >= epochs.saturating_sub(1),
            "{} N={blocks}: {incremental} incremental updates + {rebuilds} rebuilds \
             cannot cover {epochs} epochs",
            family.name()
        );
        if enforce_rebuild_ceiling && rebuilds > allowed {
            panic!(
                "{} N={blocks}: {rebuilds} full rebuilds over {epochs} epochs \
                 (ceiling: {allowed} = 2 + 1%)",
                family.name()
            );
        }
    }
}

fn main() {
    // CI smoke mode: only the headline N = 10⁵ points, with a reduced
    // event budget, so the job stays fast while still proving the
    // large-ensemble path end to end.
    let quick = std::env::var("SB_THROUGHPUT_QUICK").is_ok();

    // Discarded warm-up point: the first measurement of a cold process
    // (page faults, frequency ramp) otherwise lands on the first table
    // row.
    let _ = measure_ring(10_000, 40_000);
    println!(
        "{:>10} {:>9} {:>10} {:>14}",
        "workload", "modules", "events", "ev/s"
    );

    let mut points: Vec<ThroughputPoint> = Vec::new();
    // Ring budgets scale with N (registration + starts + messages);
    // election budgets are the startup sweep plus a bounded slice of the
    // first diffusing computation — its per-event cost includes the O(1)
    // block-cut-tree connectivity probes of the *world* (the O(N)-per-probe
    // BFS is a pinned fallback the gate below keeps at zero), so the
    // bounded slice measures kernel + world dispatch rather than an
    // unbounded reconfiguration.
    if quick {
        points.push(measure_ring(100_000, 400_000));
        points.push(measure_election(Family::Column, 100_000, 130_000));
        points.push(measure_election(Family::Serpentine, 100_000, 130_000));
    } else {
        for &modules in &[1_000usize, 10_000, 100_000, 1_000_000] {
            points.push(measure_ring(modules, (modules as u64) * 4));
        }
        for family in [Family::Column, Family::Serpentine] {
            for &blocks in &[1_000usize, 10_000, 100_000] {
                points.push(measure_election(family, blocks, blocks as u64 + 30_000));
            }
        }
    }
    for p in &points {
        println!(
            "{:>10} {:>9} {:>10} {:>14.0}",
            p.workload, p.modules, p.events, p.events_per_sec,
        );
    }

    println!("\n(The paper reports VisibleSim at ~650k events/sec with 2M nodes.)");

    // Regression gate: full elections on the standard families must stay
    // on the oracle's O(1) fast path, and rebuilds must stay under the
    // amortisation ceiling (runs in CI via the QUICK smoke).
    gate_connectivity_maintenance(quick);
}
