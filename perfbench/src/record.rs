//! The exact, host-independent record of one reconfiguration: outcome,
//! move-log digest, every `Metrics` counter and every `SimStats` counter
//! (wall time excluded).  Two runs of the same instance must produce the
//! same record bit for bit; the reference records of every pool instance
//! are pinned in `reference.txt` beside the benchmark.

use sb_core::metrics::Metrics;
use sb_core::world::{MoveRecord, MoveRule, Outcome, SurfaceWorld};
use sb_desim::network::fnv1a64;
use sb_desim::SimStats;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Exact record of one reconfiguration.
#[derive(Clone, Debug, PartialEq)]
pub struct Record {
    /// `completed`, `stalled` or `none` (the queue drained first).
    pub outcome: &'static str,
    /// Whether a complete shortest path of blocks exists at the end.
    pub path_complete: bool,
    /// FNV-1a digest of the move log.
    pub digest: u64,
    /// World metrics with the connectivity oracle's counters folded in.
    pub metrics: Metrics,
    /// Kernel statistics (the host wall time is zeroed).
    pub stats: SimStats,
}

/// FNV-1a 64 digest of a move log: iteration, rule and every
/// `(block, from, to)` triple of every record, in order.
pub fn digest(log: &[MoveRecord]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325;
    for record in log {
        h = fnv1a64(&record.iteration.to_le_bytes(), h);
        let rule = match record.rule {
            MoveRule::Catalog(id) => u32::from(id),
            MoveRule::Free => u32::MAX,
        };
        h = fnv1a64(&rule.to_le_bytes(), h);
        for &(block, from, to) in &record.moves {
            h = fnv1a64(&block.0.to_le_bytes(), h);
            for v in [from.x, from.y, to.x, to.y] {
                h = fnv1a64(&v.to_le_bytes(), h);
            }
        }
    }
    h
}

impl Record {
    /// Captures the record of a finished run.
    pub fn capture(world: &SurfaceWorld, stats: SimStats) -> Record {
        Record {
            outcome: match world.outcome() {
                Some(Outcome::Completed) => "completed",
                Some(Outcome::Stalled) => "stalled",
                None => "none",
            },
            path_complete: world.path_complete(),
            digest: digest(world.move_log()),
            metrics: world.metrics_with_connectivity(),
            stats: SimStats {
                wall_elapsed: std::time::Duration::ZERO,
                ..stats
            },
        }
    }

    /// A reconfiguration passes when it completed with a complete path.
    pub fn succeeded(&self) -> bool {
        self.outcome == "completed" && self.path_complete
    }

    /// Every counter, by name, in a fixed order.
    pub fn counters(&self) -> Vec<(&'static str, u64)> {
        let m = &self.metrics;
        let s = &self.stats;
        vec![
            ("elections", m.elections),
            ("activate_msgs", m.activate_msgs),
            ("ack_msgs", m.ack_msgs),
            ("select_msgs", m.select_msgs),
            ("select_ack_msgs", m.select_ack_msgs),
            ("distance_computations", m.distance_computations),
            ("elementary_moves", m.elementary_moves),
            ("elected_hops", m.elected_hops),
            ("rule_checks", m.rule_checks),
            ("protocol_drops", m.protocol_drops),
            ("retransmissions", m.retransmissions),
            ("duplicates_suppressed", m.duplicates_suppressed),
            ("delivery_acks", m.delivery_acks),
            ("delivery_failures", m.delivery_failures),
            ("connectivity_rebuilds", m.connectivity_rebuilds),
            (
                "connectivity_fallback_probes",
                m.connectivity_fallback_probes,
            ),
            (
                "connectivity_incremental_updates",
                m.connectivity_incremental_updates,
            ),
            ("rounds_started", m.rounds_started),
            ("round_skips", m.round_skips),
            ("round_cache_evictions", m.round_cache_evictions),
            ("round_sync_msgs", m.round_sync_msgs),
            ("crashes_injected", m.crashes_injected),
            ("rejoins", m.rejoins),
            ("events_processed", s.events_processed),
            ("messages_sent", s.messages_sent),
            ("messages_dropped", s.messages_dropped),
            ("messages_duplicated", s.messages_duplicated),
            ("messages_dropped_dead", s.messages_dropped_dead),
            ("timers_dropped_dead", s.timers_dropped_dead),
            ("timers_set", s.timers_set),
            (
                "max_queue_len",
                u64::try_from(s.max_queue_len).expect("queue length fits u64"),
            ),
            ("sim_time_end_us", s.sim_time_end.as_micros()),
        ]
    }

    /// One line of the reference file: `<workload> <index> <outcome>
    /// path_complete=<bool> digest=<hex> <counter>=<value> ...`.
    pub fn line(&self, workload: &str, index: u64) -> String {
        let mut out = format!(
            "{workload} {index} {} path_complete={} digest={:016x}",
            self.outcome, self.path_complete, self.digest
        );
        for (name, value) in self.counters() {
            write!(out, " {name}={value}").expect("writing to a String cannot fail");
        }
        out
    }
}

/// The pinned reference lines, keyed by `(workload, index)`.
pub struct Reference {
    lines: BTreeMap<(String, u64), String>,
}

impl Reference {
    /// Parses the reference file's text (blank lines and `#` comments
    /// are skipped).
    pub fn parse(text: &str) -> Result<Reference, String> {
        let mut lines = BTreeMap::new();
        for (n, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut fields = line.split_whitespace();
            let workload = fields.next().unwrap_or_default().to_string();
            let index = fields
                .next()
                .and_then(|f| f.parse::<u64>().ok())
                .ok_or_else(|| format!("reference line {}: bad instance index", n + 1))?;
            lines.insert((workload, index), line.to_string());
        }
        Ok(Reference { lines })
    }

    /// Compares a record with the pinned line of its instance.  `Err`
    /// names the first difference (or the missing reference).
    pub fn check(&self, workload: &str, index: u64, record: &Record) -> Result<(), String> {
        let Some(expected) = self.lines.get(&(workload.to_string(), index)) else {
            return Err(format!("no reference record for {workload} #{index}"));
        };
        let actual = record.line(workload, index);
        if &actual == expected {
            return Ok(());
        }
        let diff = expected
            .split_whitespace()
            .zip(actual.split_whitespace())
            .find(|(e, a)| e != a)
            .map(|(e, a)| format!("expected {e}, got {a}"))
            .unwrap_or_else(|| "field count differs".to_string());
        Err(format!(
            "{workload} #{index} differs from reference: {diff}"
        ))
    }
}
