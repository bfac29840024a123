//! Full-reconfiguration benchmark for the smart-surface reproduction.
//!
//! A closed loop runs complete reconfigurations (first `Activate` to the
//! Root's verdict) one at a time through the public DES path, checks each
//! result against its pinned exact record, and prints every metric by
//! name with its unit.  The last line of standard output is one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! perfbench --ladder            # untimed size ladder with fitted exponents
//! perfbench --write-reference   # re-pin reference.txt (validated by the replays)
//! ```
//!
//! `--trace 0` reports the end-to-end metrics from untraced runs.
//! `--trace 1` reports the per-layer metrics: an untraced run, a traced
//! run, a world replay and a kernel replay of each measured instance.

#![forbid(unsafe_code)]

mod record;
mod replay;
mod trace;
mod workload;

use record::{Record, Reference};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;
use workload::{Instance, Workload, PER_RUN, POOL, WORKLOADS};

/// Reference records of every pool instance and ladder point.
const REFERENCE: &str = include_str!("../reference.txt");

/// Directory (relative to the working directory) for trace files and
/// exact-counter records.
const OUT_DIR: &str = ".bench_out";

/// Size ladder: (index into `WORKLOADS`, sizes) — column 64→256 and
/// serpentine 48→192.
const LADDER: [(usize, &[usize]); 2] =
    [(0, &[64, 96, 128, 192, 256]), (1, &[48, 64, 96, 128, 192])];

/// Set-ups timed per reconfiguration: the extra ones are dropped at once,
/// so `setup_s` gets several samples per instance at little cost.
const SETUPS_PER_RECONFIG: usize = 10;

/// A monotonic nanosecond clock with a fixed origin.
#[derive(Clone, Copy)]
pub struct Clock {
    origin: Instant,
}

impl Clock {
    fn new() -> Clock {
        Clock {
            origin: Instant::now(),
        }
    }

    /// Nanoseconds since the origin.
    pub fn ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

fn secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The highest of p75/p90/p99 with at least ten samples above it, as a
/// note (empty when there are too few samples).
fn tail_note(values: &[f64]) -> String {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    [(99, 0.99), (90, 0.90), (75, 0.75)]
        .iter()
        .find(|(_, q)| (n as f64) * (1.0 - q) >= 10.0)
        .map(|&(label, q)| {
            let rank = ((n as f64) * q).ceil() as usize;
            format!(", p{label} {:.4} s", v[rank.clamp(1, n) - 1])
        })
        .unwrap_or_default()
}

/// Process high-water resident set size in MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(f64::NAN)
}

/// Named metrics with units and notes, in insertion order.
#[derive(Default)]
struct MetricTable {
    entries: Vec<(String, f64, &'static str, String)>,
}

impl MetricTable {
    fn put(&mut self, name: &str, value: f64, unit: &'static str, note: impl Into<String>) {
        self.entries
            .push((name.to_string(), value, unit, note.into()));
    }

    fn print(&self) {
        for (name, value, unit, note) in &self.entries {
            println!("metric {name:<34} {value:>16.6} {unit:<6} {note}");
        }
    }

    fn json(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, value, unit, _)) in self.entries.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            // JSON has no NaN; `main` reports such a run as incorrect.
            let value = if value.is_finite() { *value } else { 0.0 };
            write!(
                out,
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            )
            .expect("writing to a String cannot fail");
        }
        out.push('}');
        out
    }
}

/// Outcome bookkeeping of one benchmark invocation.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    records: BTreeMap<u64, Record>,
}

impl Tally {
    /// Checks one reconfiguration's record: it must complete, match the
    /// pinned reference, and match every earlier run of the same instance
    /// in this invocation.  Extra failures (replays) come in `extra`.
    fn check(
        &mut self,
        reference: &Reference,
        w: &Workload,
        index: u64,
        record: &Record,
        extra: Vec<String>,
    ) {
        self.attempted += 1;
        let mut problems = extra;
        if !record.succeeded() {
            problems.push(format!(
                "{} #{index}: outcome {} path_complete {}",
                w.name, record.outcome, record.path_complete
            ));
        }
        if let Err(e) = reference.check(w.name, index, record) {
            problems.push(e);
        }
        match self.records.get(&index) {
            Some(first) if first != record => {
                problems.push(format!("{} #{index}: differs from its first run", w.name))
            }
            Some(_) => {}
            None => {
                self.records.insert(index, record.clone());
            }
        }
        if !problems.is_empty() {
            self.failed += 1;
            for p in problems {
                eprintln!("FAILED: {p}");
            }
        }
    }

    /// Writes the exact-counter record of every instance run.
    fn write_records(&self, w: &Workload, seed: u64) {
        let mut text = String::new();
        for (index, record) in &self.records {
            text.push_str(&record.line(w.name, *index));
            text.push('\n');
        }
        write_out(&format!("records_{}_seed{seed}.txt", w.name), &text);
    }
}

fn write_out(name: &str, text: &str) {
    let path = std::path::Path::new(OUT_DIR).join(name);
    let written = std::fs::create_dir_all(OUT_DIR).and_then(|()| std::fs::write(&path, text));
    match written {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
}

/// One untraced reconfiguration through the public DES path.
struct Untraced {
    setup_ns: Vec<u64>,
    reconfig_ns: u64,
    record: Record,
}

fn run_untraced(w: &Workload, index: u64, clock: Clock) -> Untraced {
    let mut setup_ns = Vec::with_capacity(SETUPS_PER_RECONFIG);
    let mut ready = None;
    for _ in 0..SETUPS_PER_RECONFIG {
        let t0 = clock.ns();
        let inst = w.instance(index);
        let sim = inst.simulator();
        setup_ns.push(clock.ns() - t0);
        ready = Some(sim);
    }
    let mut sim = ready.expect("at least one set-up");
    let t0 = clock.ns();
    let stats = sim.run_until_idle();
    let _verdict = std::hint::black_box((sim.world().outcome(), sim.world().path_complete()));
    let reconfig_ns = clock.ns() - t0;
    let record = Record::capture(sim.world(), stats);
    Untraced {
        setup_ns,
        reconfig_ns,
        record,
    }
}

/// The instances a run measures, cycled until `seconds` have elapsed
/// (every instance at least once).
fn schedule(w: &Workload, seed: u64) -> Vec<u64> {
    let instances = w.instances_for_seed(seed);
    println!("instances: {instances:?} (pool indices 0..{POOL}, {PER_RUN} distinct per run)");
    instances
}

fn end_to_end(
    w: &Workload,
    seed: u64,
    seconds: u64,
    reference: &Reference,
) -> (Tally, MetricTable) {
    let clock = Clock::new();
    let instances = schedule(w, seed);
    let mut tally = Tally::default();
    // Warm-up: one unmeasured reconfiguration lets the allocator and
    // caches settle (still checked).
    let warm = run_untraced(w, instances[0], clock);
    tally.check(reference, w, instances[0], &warm.record, Vec::new());
    let budget_ns = seconds.saturating_mul(1_000_000_000);
    let start = clock.ns();
    let mut setup = Vec::new();
    let mut reconfig = Vec::new();
    let mut k = 0;
    while k < instances.len() || clock.ns() - start < budget_ns {
        let index = instances[k % instances.len()];
        let run = run_untraced(w, index, clock);
        println!(
            "reconfig {}#{index}: setup {:.3} ms, run {:.4} s, {}, {} elections, digest {:016x}",
            w.name,
            secs(run.setup_ns[0]) * 1e3,
            secs(run.reconfig_ns),
            run.record.outcome,
            run.record.metrics.elections,
            run.record.digest
        );
        setup.extend(run.setup_ns.iter().map(|&ns| secs(ns)));
        reconfig.push(secs(run.reconfig_ns));
        tally.check(reference, w, index, &run.record, Vec::new());
        k += 1;
    }
    let rss = peak_rss_mb();
    let per_instance: Vec<&Record> = instances.iter().map(|i| &tally.records[i]).collect();
    let sim_s: Vec<f64> = per_instance
        .iter()
        .map(|r| r.stats.sim_time_end.as_micros() as f64 / 1e6)
        .collect();
    let mpe: Vec<f64> = per_instance
        .iter()
        .map(|r| r.metrics.total_messages() as f64 / r.metrics.elections.max(1) as f64)
        .collect();
    let elections: Vec<f64> = per_instance
        .iter()
        .map(|r| r.metrics.elections as f64)
        .collect();
    let attempted = tally.attempted as f64;
    let failed = tally.failed as f64;
    let distinct = instances.len();
    let mut m = MetricTable::default();
    let fastest = reconfig.iter().copied().fold(f64::INFINITY, f64::min);
    m.put(
        "reconfig_s",
        fastest,
        "s",
        format!(
            "fastest of {} reconfigurations; median {:.4} s{}",
            reconfig.len(),
            median(&reconfig),
            tail_note(&reconfig)
        ),
    );
    m.put(
        "setup_s",
        median(&setup),
        "s",
        format!("median of {} set-ups", setup.len()),
    );
    m.put("peak_rss_mb", rss, "MB", "VmHWM after the workload");
    m.put(
        "sim_reconfig_s",
        median(&sim_s),
        "sim_s",
        format!("median over {distinct} distinct instances"),
    );
    m.put(
        "messages_per_election",
        median(&mpe),
        "msgs",
        format!("median over {distinct} distinct instances"),
    );
    m.put(
        "elections",
        median(&elections),
        "count",
        format!("median over {distinct} distinct instances"),
    );
    m.put(
        "completed_fraction",
        (attempted - failed) / attempted,
        "ratio",
        format!(
            "{} of {} reconfigurations passed (failed_fraction {})",
            tally.attempted - tally.failed,
            tally.attempted,
            failed / attempted
        ),
    );
    (tally, m)
}

/// Median cost of one `Instant` read, nanoseconds.
fn calibrate_clock(clock: Clock) -> f64 {
    const READS: u64 = 200_000;
    let batches: Vec<f64> = (0..5)
        .map(|_| {
            let t0 = clock.ns();
            let mut sink = 0u64;
            for _ in 0..READS {
                sink = sink.wrapping_add(std::hint::black_box(clock.ns()));
            }
            std::hint::black_box(sink);
            (clock.ns() - t0) as f64 / READS as f64
        })
        .collect();
    median(&batches)
}

/// Per-layer figures of one traced instance: `(name, value, unit)`.
type LayerValues = Vec<(&'static str, f64, &'static str)>;

/// Traces one instance: its untraced record, the problems found, and its
/// per-layer figures.
fn trace_instance(
    w: &Workload,
    index: u64,
    clock: Clock,
    clock_read_ns: f64,
    seed: u64,
) -> (Record, Vec<String>, LayerValues) {
    let untraced = run_untraced(w, index, clock);
    let inst: Instance = w.instance(index);
    let mut run = trace::run_traced(&inst, clock);
    let mut problems = Vec::new();
    let traced_record = Record::capture(&run.world, run.stats);
    if traced_record != untraced.record {
        problems.push(format!(
            "{} #{index}: traced run differs from the untraced run",
            w.name
        ));
    }
    if !run.completed {
        problems.push(format!("{} #{index}: traced run did not complete", w.name));
    }
    let world = replay::world_replay(&inst, &run, clock);
    let spans = write_spans(w, index, seed, &run);
    println!("sampled spans: {spans}");
    let kernel = replay::kernel_replay(&inst, &mut run, clock);
    // A failed replay fails the reconfiguration; its figures read zero.
    let world = world.unwrap_or_else(|e| {
        problems.push(e);
        replay::WorldReplay::default()
    });
    let kernel = kernel.unwrap_or_else(|e| {
        problems.push(e);
        replay::KernelReplay::default()
    });
    let t = &run.tracer;
    let total = |name: usize| secs(t.total_ns[name]);
    let harness = total(trace::H_START) + total(trace::H_DELIVER) + total(trace::H_TIMER);
    let kernel_self = total(trace::STEP) - harness;
    let kernel_timer = total(trace::SET_TIMER);
    let net_send = total(trace::SEND);
    let harness_self = harness - total(trace::WITH_WORLD) - net_send - kernel_timer;
    let world_s = secs(world.replay_ns);
    let election_self = total(trace::WITH_WORLD) - world_s;
    let wall = secs(run.wall_ns);
    let layers = kernel_self + kernel_timer + net_send + harness_self + election_self + world_s;
    let m = &traced_record.metrics;
    let s = &traced_record.stats;
    let delivered = (t.delivered[0] + t.delivered[1] + t.delivered[2]) as f64;
    let fresh = (t.delivered[0] + t.delivered[1]) as f64 - m.duplicates_suppressed as f64;
    let untraced_wall = secs(untraced.reconfig_ns);
    let f = |v: u64| v as f64;
    let values = vec![
        ("kernel.events", f(s.events_processed), "count"),
        ("kernel.timers_set", f(s.timers_set), "count"),
        ("kernel.max_queue_len", s.max_queue_len as f64, "count"),
        ("kernel.self_s", kernel_self, "s"),
        ("kernel.timer_s", kernel_timer, "s"),
        ("kernel.replay_s", secs(kernel.replay_ns), "s"),
        (
            "kernel.replay_ns_per_event",
            kernel.replay_ns as f64 / kernel.events.max(1) as f64,
            "ns",
        ),
        ("net.sends", f(t.counts[trace::SEND]), "count"),
        ("net.send_s", net_send, "s"),
        ("net.dropped", f(s.messages_dropped), "count"),
        ("net.duplicated", f(s.messages_duplicated), "count"),
        ("harness.deliveries", f(t.counts[trace::H_DELIVER]), "count"),
        ("harness.timer_fires", f(t.counts[trace::H_TIMER]), "count"),
        ("harness.self_s", harness_self, "s"),
        ("harness.retransmissions", f(m.retransmissions), "count"),
        ("harness.delivery_acks", f(m.delivery_acks), "count"),
        (
            "harness.duplicates_suppressed",
            f(m.duplicates_suppressed),
            "count",
        ),
        ("harness.delivery_failures", f(m.delivery_failures), "count"),
        (
            "harness.fresh_delivery_ratio",
            fresh / delivered.max(1.0),
            "ratio",
        ),
        ("election.msgs.activate", f(m.activate_msgs), "count"),
        ("election.msgs.ack", f(m.ack_msgs), "count"),
        ("election.msgs.select", f(m.select_msgs), "count"),
        ("election.msgs.select_ack", f(m.select_ack_msgs), "count"),
        ("election.protocol_drops", f(m.protocol_drops), "count"),
        ("election.rounds_started", f(m.rounds_started), "count"),
        ("election.round_skips", f(m.round_skips), "count"),
        ("election.round_sync_msgs", f(m.round_sync_msgs), "count"),
        (
            "election.round_cache_evictions",
            f(m.round_cache_evictions),
            "count",
        ),
        ("election.self_s", election_self, "s"),
        ("world.replay_s", world_s, "s"),
        ("world.distance_calls", f(world.probes), "count"),
        ("world.distance_s", secs(world.distance_ns), "s"),
        (
            "world.ns_per_probe",
            world.distance_ns as f64 / world.probes.max(1) as f64,
            "ns",
        ),
        ("world.hop_s", secs(world.hop_ns), "s"),
        ("world.rule_checks", f(m.rule_checks), "count"),
        ("world.oracle_rebuilds", f(m.connectivity_rebuilds), "count"),
        (
            "world.oracle_incremental",
            f(m.connectivity_incremental_updates),
            "count",
        ),
        (
            "world.oracle_fallbacks",
            f(m.connectivity_fallback_probes),
            "count",
        ),
        (
            "world.finite_verdict_ratio",
            world.finite as f64 / world.probes.max(1) as f64,
            "ratio",
        ),
        ("trace.untraced_wall_s", untraced_wall, "s"),
        ("trace.wall_s", wall, "s"),
        ("trace.overhead", wall / untraced_wall, "ratio"),
        ("trace.layers_s", layers, "s"),
        ("trace.residual_s", wall - layers, "s"),
        ("trace.clock_read_ns", clock_read_ns, "ns"),
        ("trace.clock_reads", f(t.clock_reads), "count"),
        (
            "trace.clock_s",
            t.clock_reads as f64 * clock_read_ns / 1e9,
            "s",
        ),
    ];
    (untraced.record, problems, values)
}

/// Writes the span aggregates and the sampled elections' full spans;
/// returns the number of sampled spans.
fn write_spans(w: &Workload, index: u64, seed: u64, run: &trace::TracedRun) -> usize {
    let t = &run.tracer;
    let mut text = String::from("{\"aggregates\": [");
    for (i, name) in trace::SPAN_NAMES.iter().enumerate() {
        if i > 0 {
            text.push_str(", ");
        }
        write!(
            text,
            "{{\"name\": \"{name}\", \"count\": {}, \"total_ns\": {}}}",
            t.counts[i], t.total_ns[i]
        )
        .expect("writing to a String cannot fail");
    }
    text.push_str("],\n\"spans\": [\n");
    for (i, s) in t.spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            text,
            "{{\"id\": {i}, \"name\": \"{}\", \"election\": {}, \"parent\": {parent}, \"start_ns\": {}, \"end_ns\": {}}}{}",
            trace::SPAN_NAMES[s.name],
            s.election,
            s.start_ns,
            s.end_ns,
            if i + 1 < t.spans.len() { "," } else { "" }
        )
        .expect("writing to a String cannot fail");
    }
    text.push_str("]}\n");
    write_out(&format!("spans_{}_seed{seed}_{index}.json", w.name), &text);
    t.spans.len()
}

fn per_layer(w: &Workload, seed: u64, seconds: u64, reference: &Reference) -> (Tally, MetricTable) {
    let clock = Clock::new();
    let clock_read_ns = calibrate_clock(clock);
    let instances = schedule(w, seed);
    let mut tally = Tally::default();
    let budget_ns = seconds.saturating_mul(1_000_000_000);
    let start = clock.ns();
    let mut columns: Vec<(&'static str, &'static str, Vec<f64>)> = Vec::new();
    let mut k = 0;
    while k == 0 || clock.ns() - start < budget_ns {
        let index = instances[k % instances.len()];
        let (record, problems, values) = trace_instance(w, index, clock, clock_read_ns, seed);
        tally.check(reference, w, index, &record, problems);
        if columns.is_empty() {
            columns = values.iter().map(|&(n, _, u)| (n, u, Vec::new())).collect();
        }
        for (column, (_, v, _)) in columns.iter_mut().zip(&values) {
            column.2.push(*v);
        }
        let get = |name: &str| {
            values
                .iter()
                .find(|(n, _, _)| *n == name)
                .map_or(f64::NAN, |v| v.1)
        };
        println!(
            "traced {}#{index}: untraced {:.4} s, traced {:.4} s (x{:.2}), world replay {:.4} s, kernel replay {:.4} s",
            w.name,
            get("trace.untraced_wall_s"),
            get("trace.wall_s"),
            get("trace.overhead"),
            get("world.replay_s"),
            get("kernel.replay_s"),
        );
        k += 1;
    }
    let mut m = MetricTable::default();
    let samples = columns.first().map_or(0, |c| c.2.len());
    for (name, unit, values) in &columns {
        let value = if values.is_empty() {
            f64::NAN
        } else {
            median(values)
        };
        m.put(
            name,
            value,
            unit,
            format!("median of {samples} traced runs"),
        );
    }
    (tally, m)
}

/// Size ladder: exact counts of one complete reconfiguration per size,
/// with exponents fitted by least squares on logarithms.
fn ladder(reference: &Reference) -> bool {
    let mut ok = true;
    let mut text = String::new();
    for (w, sizes) in LADDER {
        let w = &WORKLOADS[w];
        println!(
            "{:<18} {:>5} {:>11} {:>9} {:>10} {:>11} {:>9}",
            "workload", "N", "events", "elections", "msgs/elec", "probes", "rebuilds"
        );
        let mut points = Vec::new();
        for &n in sizes {
            let record = ladder_record(w, n);
            let key = format!("{}@{n}", w.name);
            if let Err(e) = reference.check(&key, 0, &record) {
                eprintln!("FAILED: {e}");
                ok = false;
            }
            if !record.succeeded() {
                eprintln!("FAILED: {key}: outcome {}", record.outcome);
                ok = false;
            }
            let m = &record.metrics;
            println!(
                "{:<18} {:>5} {:>11} {:>9} {:>10.2} {:>11} {:>9}",
                w.name,
                n,
                record.stats.events_processed,
                m.elections,
                m.total_messages() as f64 / m.elections.max(1) as f64,
                m.distance_computations,
                m.connectivity_rebuilds
            );
            text.push_str(&record.line(&key, 0));
            text.push('\n');
            points.push((n as f64, record));
        }
        let fit = |get: &dyn Fn(&Record) -> u64| {
            let xs: Vec<f64> = points.iter().map(|(n, _)| n.ln()).collect();
            let ys: Vec<f64> = points.iter().map(|(_, r)| (get(r) as f64).ln()).collect();
            let k = xs.len() as f64;
            let mx = xs.iter().sum::<f64>() / k;
            let my = ys.iter().sum::<f64>() / k;
            let sxy: f64 = xs.iter().zip(&ys).map(|(x, y)| (x - mx) * (y - my)).sum();
            let sxx: f64 = xs.iter().map(|x| (x - mx) * (x - mx)).sum();
            sxy / sxx
        };
        println!(
            "{}: fitted exponent in N: events {:.2}, elections {:.2}, messages {:.2}, probes {:.2}, rebuilds {:.2}",
            w.name,
            fit(&|r| r.stats.events_processed),
            fit(&|r| r.metrics.elections),
            fit(&|r| r.metrics.total_messages()),
            fit(&|r| r.metrics.distance_computations),
            fit(&|r| r.metrics.connectivity_rebuilds.max(1)),
        );
    }
    write_out("ladder.txt", &text);
    ok
}

fn ladder_record(w: &Workload, blocks: usize) -> Record {
    let mut sim = w.instance_at(blocks, 0).simulator();
    let stats = sim.run_until_idle();
    Record::capture(sim.world(), stats)
}

/// Re-pins `reference.txt`: every pool instance of every workload runs
/// untraced and traced, both replays must reproduce it, and only then is
/// its record written.  The ladder points follow.
fn write_reference() -> bool {
    let clock = Clock::new();
    let mut text = String::from(
        "# Exact reference records: outcome, move-log digest, every Metrics and\n\
         # SimStats counter of each pool instance and ladder point.\n\
         # Regenerate with `python3 perfbench/run.py --write-reference`.\n",
    );
    for w in &WORKLOADS {
        for index in 0..POOL {
            let (record, problems, _) = trace_instance(w, index, clock, 0.0, 0);
            let mut bad = problems;
            if !record.succeeded() {
                bad.push(format!("outcome {}", record.outcome));
            }
            if !bad.is_empty() {
                for p in bad {
                    eprintln!("FAILED: {} #{index}: {p}", w.name);
                }
                return false;
            }
            println!("pinned {} #{index}: digest {:016x}", w.name, record.digest);
            text.push_str(&record.line(w.name, index));
            text.push('\n');
        }
    }
    for (w, sizes) in LADDER {
        let w = &WORKLOADS[w];
        for &n in sizes {
            let record = ladder_record(w, n);
            if !record.succeeded() {
                eprintln!("FAILED: {}@{n}: outcome {}", w.name, record.outcome);
                return false;
            }
            text.push_str(&record.line(&format!("{}@{n}", w.name), 0));
            text.push('\n');
        }
    }
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/reference.txt");
    match std::fs::write(path, text) {
        Ok(()) => {
            println!("wrote {path}");
            true
        }
        Err(e) => {
            eprintln!("could not write {path}: {e}");
            false
        }
    }
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    ladder: bool,
    write_reference: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 0,
        seconds: 10,
        trace: false,
        ladder: false,
        write_reference: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("--workload")?),
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--ladder" => args.ladder = true,
            "--write-reference" => args.write_reference = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    println!("perfbench: nproc={nproc} profile={profile} single-threaded closed loop");
    let reference = match Reference::parse(REFERENCE) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    if args.write_reference {
        return if write_reference() {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }
    if args.ladder {
        return if ladder(&reference) {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }
    let Some(name) = args.workload else {
        eprintln!("perfbench: --workload is required");
        return ExitCode::from(2);
    };
    let Some(w) = workload::by_name(&name) else {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        eprintln!("perfbench: unknown workload {name} (one of {names:?})");
        return ExitCode::from(2);
    };
    println!(
        "workload {} (N={}, seed {}, {} s, trace {}): {}",
        w.name,
        w.blocks,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        w.why
    );
    let (tally, metrics) = if args.trace {
        per_layer(w, args.seed, args.seconds, &reference)
    } else {
        end_to_end(w, args.seed, args.seconds, &reference)
    };
    tally.write_records(w, args.seed);
    metrics.print();
    let unmeasured: Vec<&str> = metrics
        .entries
        .iter()
        .filter(|e| !e.1.is_finite())
        .map(|e| e.0.as_str())
        .collect();
    if !unmeasured.is_empty() {
        eprintln!("FAILED: no finite value for {unmeasured:?}");
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        tally.failed == 0 && unmeasured.is_empty(),
        tally.attempted,
        tally.failed,
        metrics.json()
    );
    ExitCode::SUCCESS
}
