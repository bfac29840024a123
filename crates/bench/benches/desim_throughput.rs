//! Discrete-event simulator throughput (Section V.E of the paper).
//!
//! VisibleSim is reported at "650k events/sec" with simulations of "2
//! millions of nodes" on a laptop.  This bench measures the events/second
//! rate of `sb-desim` on a message-passing workload for increasing module
//! counts.  The 10⁵-module election point is exercised by
//! `examples/desim_throughput.rs`; benches keep sizes moderate so
//! `cargo bench` stays fast.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use sb_bench::{measure_election, measure_ring, run_ring, Family};
use std::hint::black_box;

fn bench_throughput(c: &mut Criterion) {
    println!("\n== DES throughput (VisibleSim comparison point: ~650k events/s, 2M nodes) ==");
    // Informational table (sequential on purpose: each run self-times
    // with wall-clock Instant, and concurrent siblings would contend for
    // cores and deflate the events/s figures).
    let mut points = Vec::new();
    for &modules in &[1_000usize, 10_000, 100_000] {
        points.push(measure_ring(modules, (modules as u64) * 4));
    }
    points.push(measure_election(Family::Column, 10_000, 30_000));
    for p in &points {
        println!(
            "  {:>10} {:>8} modules: {:>8} events, {:>11.0} ev/s",
            p.workload, p.modules, p.events, p.events_per_sec,
        );
    }
    println!();

    let mut group = c.benchmark_group("desim_throughput");
    group.sample_size(10);
    const EVENTS: u64 = 100_000;
    group.throughput(Throughput::Elements(EVENTS));
    for &modules in &[1_000usize, 10_000, 100_000] {
        group.bench_with_input(
            BenchmarkId::new("ring", modules),
            &modules,
            |b, &modules| b.iter(|| black_box(run_ring(modules, EVENTS))),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_throughput);
criterion_main!(benches);
