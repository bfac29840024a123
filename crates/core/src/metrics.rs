//! Counters reproducing the quantities discussed in Remarks 2–4 of the
//! paper:
//!
//! * Remark 2 — computation complexity: number of distance computations,
//!   `O(N³)`.
//! * Remark 3 — communication complexity: number of messages exchanged,
//!   `O(N³)`.
//! * Remark 4 — number of block hops needed to build the path, `O(N²)`.

use crate::messages::MsgKind;
use std::fmt;

/// Counters accumulated by the shared world during a run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Metrics {
    /// Number of elections (iterations of Algorithm 1) started.
    pub elections: u64,
    /// Number of `Activate` messages sent.
    pub activate_msgs: u64,
    /// Number of `Ack` messages sent.
    pub ack_msgs: u64,
    /// Number of `Select` messages sent (including forwarding hops).
    pub select_msgs: u64,
    /// Number of `SelectAck` messages sent (including forwarding hops).
    pub select_ack_msgs: u64,
    /// Number of distance computations (Eqs. 8–10 evaluations).
    pub distance_computations: u64,
    /// Number of elementary block moves executed (a carrying motion that
    /// displaces two blocks counts as two moves, matching the "55 block
    /// moves" accounting of the paper's example).
    pub elementary_moves: u64,
    /// Number of hops performed by elected blocks (one per successful
    /// iteration).
    pub elected_hops: u64,
    /// Number of motion-rule applicability checks performed by the
    /// planner on behalf of blocks.
    pub rule_checks: u64,
    /// Number of protocol messages that could not be handled by their
    /// recipient (e.g. a `Select` reaching an engaged block with no
    /// recorded best-candidate link, or a replayed `Ack` the idempotency
    /// guards rejected).  Such anomalies are answered so the Root stalls
    /// cleanly instead of hanging; a non-zero count flags a routing bug,
    /// message duplication or reordering worth investigating.
    pub protocol_drops: u64,
    /// Number of payload retransmissions performed by the reliable
    /// delivery layer (zero when reliability is off or the network is
    /// healthy enough that every first transmission is acked in time).
    pub retransmissions: u64,
    /// Number of received payload copies the reliability layer's
    /// anti-replay window suppressed (network duplicates and
    /// retransmissions whose original also arrived).
    pub duplicates_suppressed: u64,
    /// Number of transport-level `DeliveryAck`s sent by the reliable
    /// delivery layer.  Not part of [`Metrics::total_messages`], which
    /// counts protocol messages only — this is the measured *overhead*
    /// of reliability.
    pub delivery_acks: u64,
    /// Number of messages abandoned after exhausting the retry budget;
    /// each converts the run into a clean `Stalled` outcome instead of a
    /// silent hang.
    pub delivery_failures: u64,
    /// Number of full Tarjan passes the world's connectivity oracle ran
    /// (one per world state whose occupancy delta could not be absorbed
    /// by an incremental block-cut-tree patch).
    pub connectivity_rebuilds: u64,
    /// Number of Remark 1 admission probes the world's connectivity
    /// oracle could *not* answer in O(1) from its block-cut-tree state
    /// and routed to the O(N) scratch BFS.  ~0 on the standard families:
    /// the regression signal that a probe shape fell off the fast path.
    pub connectivity_fallback_probes: u64,
    /// Number of occupancy epochs the world's connectivity oracle
    /// absorbed incrementally (O(1) light-layer sync or leaf patch)
    /// instead of rebuilding.  Together with `connectivity_rebuilds`
    /// this accounts for every synchronised epoch.
    pub connectivity_incremental_updates: u64,
    /// Number of rounds in which a Root started (or restarted) an
    /// election — 1 on an undisturbed rounds-enabled run, higher when a
    /// crash or a round-skip deadline forced re-elections.  Zero with
    /// rounds disabled.
    pub rounds_started: u64,
    /// Number of round-skip deadlines that expired on a block whose
    /// election had made no progress, abandoning the stalled round.
    pub round_skips: u64,
    /// Number of future-round messages evicted from a block's bounded
    /// out-of-order cache (the cache was full; the oldest entry degraded
    /// to a counted drop instead of unbounded memory).
    pub round_cache_evictions: u64,
    /// Number of `RoundSync` catch-up messages sent (replies to
    /// stale-round `Activate`s; zero with rounds disabled).
    pub round_sync_msgs: u64,
    /// Number of module crashes injected by a fault plan during the run.
    pub crashes_injected: u64,
    /// Number of crashed modules that rejoined (fresh election state,
    /// re-entered the protocol) during the run.
    pub rejoins: u64,
}

impl Metrics {
    /// Total number of messages of all kinds.
    pub fn total_messages(&self) -> u64 {
        self.activate_msgs
            + self.ack_msgs
            + self.select_msgs
            + self.select_ack_msgs
            + self.round_sync_msgs
    }

    /// Records one sent message of the given kind.
    pub fn record_message(&mut self, kind: MsgKind) {
        match kind {
            MsgKind::Activate => self.activate_msgs += 1,
            MsgKind::Ack => self.ack_msgs += 1,
            MsgKind::Select => self.select_msgs += 1,
            MsgKind::SelectAck => self.select_ack_msgs += 1,
            MsgKind::RoundSync => self.round_sync_msgs += 1,
        }
    }

    /// Every counter with its field name, in field order: the one table
    /// [`Display`](fmt::Display) iterates and the completeness test checks.
    pub fn counters(&self) -> [(&'static str, u64); 23] {
        [
            ("elections", self.elections),
            ("activate_msgs", self.activate_msgs),
            ("ack_msgs", self.ack_msgs),
            ("select_msgs", self.select_msgs),
            ("select_ack_msgs", self.select_ack_msgs),
            ("distance_computations", self.distance_computations),
            ("elementary_moves", self.elementary_moves),
            ("elected_hops", self.elected_hops),
            ("rule_checks", self.rule_checks),
            ("protocol_drops", self.protocol_drops),
            ("retransmissions", self.retransmissions),
            ("duplicates_suppressed", self.duplicates_suppressed),
            ("delivery_acks", self.delivery_acks),
            ("delivery_failures", self.delivery_failures),
            ("connectivity_rebuilds", self.connectivity_rebuilds),
            (
                "connectivity_fallback_probes",
                self.connectivity_fallback_probes,
            ),
            (
                "connectivity_incremental_updates",
                self.connectivity_incremental_updates,
            ),
            ("rounds_started", self.rounds_started),
            ("round_skips", self.round_skips),
            ("round_cache_evictions", self.round_cache_evictions),
            ("round_sync_msgs", self.round_sync_msgs),
            ("crashes_injected", self.crashes_injected),
            ("rejoins", self.rejoins),
        ]
    }
}

impl fmt::Display for Metrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "elections={} messages={} (activate={} ack={} select={} select-ack={}) \
             distance-computations={} elementary-moves={} elected-hops={}",
            self.elections,
            self.total_messages(),
            self.activate_msgs,
            self.ack_msgs,
            self.select_msgs,
            self.select_ack_msgs,
            self.distance_computations,
            self.elementary_moves,
            self.elected_hops,
        )?;
        // The head above prints the first `HEAD` counters, zero or not.
        const HEAD: usize = 8;
        for (name, value) in &self.counters()[HEAD..] {
            if *value > 0 {
                write!(f, " {}={value}", name.replace('_', "-"))?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_message_updates_the_right_counter() {
        let mut m = Metrics::default();
        m.record_message(MsgKind::Activate);
        m.record_message(MsgKind::Activate);
        m.record_message(MsgKind::Ack);
        m.record_message(MsgKind::Select);
        m.record_message(MsgKind::SelectAck);
        assert_eq!(m.activate_msgs, 2);
        assert_eq!(m.ack_msgs, 1);
        assert_eq!(m.select_msgs, 1);
        assert_eq!(m.select_ack_msgs, 1);
        assert_eq!(m.total_messages(), 5);
    }

    #[test]
    fn display_contains_key_counters() {
        let m = Metrics {
            elections: 5,
            elementary_moves: 55,
            ..Metrics::default()
        };
        let text = m.to_string();
        assert!(text.contains("elections=5"));
        assert!(text.contains("elementary-moves=55"));
    }

    #[test]
    fn counters_and_display_cover_every_field() {
        // No `..Default`: a new field breaks this literal until the test,
        // and with it `counters()`, is updated.
        let m = Metrics {
            elections: 1001,
            activate_msgs: 1002,
            ack_msgs: 1003,
            select_msgs: 1004,
            select_ack_msgs: 1005,
            distance_computations: 1006,
            elementary_moves: 1007,
            elected_hops: 1008,
            rule_checks: 1009,
            protocol_drops: 1010,
            retransmissions: 1011,
            duplicates_suppressed: 1012,
            delivery_acks: 1013,
            delivery_failures: 1014,
            connectivity_rebuilds: 1015,
            connectivity_fallback_probes: 1016,
            connectivity_incremental_updates: 1017,
            rounds_started: 1018,
            round_skips: 1019,
            round_cache_evictions: 1020,
            round_sync_msgs: 1021,
            crashes_injected: 1022,
            rejoins: 1023,
        };
        let counters = m.counters();
        let mut names: Vec<&str> = counters.iter().map(|&(name, _)| name).collect();
        let mut values: Vec<u64> = counters.iter().map(|&(_, value)| value).collect();
        names.sort_unstable();
        names.dedup();
        values.sort_unstable();
        assert_eq!(names.len(), counters.len(), "counter names are unique");
        assert_eq!(
            values,
            (1001..=1023).collect::<Vec<u64>>(),
            "each field once"
        );

        // Every counter is printed as `name=value`; the head drops the
        // `-msgs` suffix of the four message kinds.
        let text = m.to_string();
        let tokens: Vec<&str> = text
            .split([' ', '(', ')'])
            .filter(|t| !t.is_empty())
            .collect();
        for (name, value) in counters {
            let kebab = name.replace('_', "-");
            let printed = tokens.iter().any(|t| {
                t.split_once('=').is_some_and(|(key, v)| {
                    v == value.to_string() && (key == kebab || format!("{key}-msgs") == kebab)
                })
            });
            assert!(printed, "{name}={value} missing from `{text}`");
        }
        assert!(text.contains(" rule-checks=1009"));
    }
}
