//! The distribution side of a run's report: histogram keys, per-rank
//! sample ledgers, open flows, counter blocks and the merged
//! [`MetricsSnapshot`] that [`crate::Recorder::finish`] returns.

use crate::{Histogram, RankMetrics, SloReport};

/// JSON snapshot schema version (`"version"` field).
pub const SNAPSHOT_VERSION: u64 = 2;

/// Samples between percentile checkpoints on a histogram series.
pub const CHECKPOINT_EVERY: u64 = 64;

/// Checkpoints retained per `(rank, key)` series.
pub const MAX_POINTS: usize = 512;

/// What a histogram sample measures.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Metric {
    /// Caller-perspective end-to-end op latency (API entry to return).
    E2e,
    /// Seal (encrypt+tag) service time, one sample per counted seal.
    Seal,
    /// Open (decrypt+verify) service time, one sample per counted open.
    Open,
    /// Scheduler park time (one sample per `block_on` wait).
    Wait,
    /// ARQ repair latency (recovery-loop entry to resolution).
    Repair,
    /// Key-lifecycle event latency (handshake, rotation, revocation).
    Key,
    /// Fault-tolerance event latency: failure detection (death to
    /// local confirmation), notice propagation, shrink, survivor
    /// re-key.
    Ftol,
}

impl Metric {
    pub fn as_str(self) -> &'static str {
        match self {
            Metric::E2e => "e2e",
            Metric::Seal => "seal",
            Metric::Open => "open",
            Metric::Wait => "wait",
            Metric::Repair => "repair",
            Metric::Key => "key",
            Metric::Ftol => "ftol",
        }
    }

    pub const ALL: [Metric; 7] = [
        Metric::E2e,
        Metric::Seal,
        Metric::Open,
        Metric::Wait,
        Metric::Repair,
        Metric::Key,
        Metric::Ftol,
    ];
}

/// Histogram key. Derives `Ord` so snapshots iterate in a stable,
/// deterministic order (byte-identical output for a fixed seed).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Key {
    pub metric: Metric,
    /// Static op name, e.g. `p2p/send`, `coll/alltoall`, `seal/chunked`.
    pub op: &'static str,
    /// Peer rank, or -1 for collectives / not-peer-specific samples.
    pub peer: i32,
    /// `ceil(log2(bytes))` size class (0 for empty payloads).
    pub size_class: u8,
}

/// Size class of a payload: 0 for 0/1 bytes, else `ceil(log2(bytes))`.
#[inline]
pub fn size_class(bytes: usize) -> u8 {
    if bytes <= 1 {
        0
    } else {
        (usize::BITS - (bytes - 1).leading_zeros()) as u8
    }
}

/// One percentile checkpoint on a histogram series (Chrome counter
/// tracks are built from these).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CounterPoint {
    pub t_ns: u64,
    pub count: u64,
    pub p50_ns: u64,
    pub p99_ns: u64,
    pub p999_ns: u64,
}

/// Per-rank sample totals, used by `tracecheck`'s audit of every
/// `metrics-*` snapshot to prove histogram counts conserve against the
/// `RankMetrics` ledgers (seals == seal-histogram samples, opens ==
/// open-histogram samples).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RankLedger {
    pub rank: usize,
    pub e2e_samples: u64,
    pub seal_samples: u64,
    pub open_samples: u64,
    pub wait_samples: u64,
    pub repair_samples: u64,
    pub key_samples: u64,
    pub ftol_samples: u64,
    pub flow_events: u64,
    pub dropped_flow_events: u64,
    pub dropped_points: u64,
}

/// An open (non-terminal) flow at snapshot time.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FlowSnap {
    pub rank: usize,
    pub peer: usize,
    pub tag: u32,
    pub seq: u64,
    pub last_kind: String,
    pub last_ns: u64,
    pub total_events: u64,
}

/// One counter family: `(name, value)` pairs in export order, summed
/// over ranks by [`crate::Recorder::finish`] from the [`RankMetrics`]
/// fields the `FAMILIES` table names.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CounterBlock(Vec<(&'static str, u64)>);

impl CounterBlock {
    /// The value of counter `name`; naming one the family does not
    /// have is a bug in the caller.
    pub fn get(&self, name: &str) -> u64 {
        match self.0.iter().find(|c| c.0 == name) {
            Some(c) => c.1,
            None => panic!("no counter named {name} in {:?}", self.0),
        }
    }

    /// The `(name, value)` pairs in export order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.0.iter().copied()
    }
}

/// One counter of a family: its export name and the [`RankMetrics`]
/// field that counts it.
type Counter = (&'static str, fn(&RankMetrics) -> u64);

/// The snapshot's counter families in export order — the one table
/// that maps a family to its counters. `ftol.rekeys` counts survivor
/// re-keys (`ftol/rekey`), `keys.rekeys` the epochs rolled.
const FAMILIES: [(&str, &[Counter]); 3] = [
    (
        "chaos",
        &[
            ("faults_injected", |m| m.faults_injected),
            ("nacks_sent", |m| m.nacks_sent),
            ("nacks_received", |m| m.nacks_received),
            ("retransmits", |m| m.retransmits),
            ("aborts", |m| m.aborts),
            ("recoveries", |m| m.recoveries),
            ("backoff_ns", |m| m.backoff_ns),
        ],
    ),
    (
        "keys",
        &[
            ("handshakes", |m| m.handshakes),
            ("rekeys", |m| m.rekeys),
            ("revocations", |m| m.revocations),
            ("rejected_stale", |m| m.rejected_stale),
            ("rejected_future", |m| m.rejected_future),
            ("rejected_revoked", |m| m.rejected_revoked),
        ],
    ),
    (
        "ftol",
        &[
            ("detected", |m| m.ft_detected),
            ("notices", |m| m.ft_notices),
            ("probes", |m| m.ft_probes),
            ("shrinks", |m| m.ft_shrinks),
            ("rekeys", |m| m.ft_rekeys),
        ],
    ),
];

/// The three counter blocks of `ranks`, summed, in `FAMILIES` order;
/// a block is `None` when all of its counters are zero.
pub(crate) fn sum_blocks(ranks: &[RankMetrics]) -> [Option<CounterBlock>; 3] {
    FAMILIES.map(|(_, counters)| {
        let sums: Vec<_> = counters
            .iter()
            .map(|&(name, count)| (name, ranks.iter().map(count).sum()))
            .collect();
        sums.iter()
            .any(|&(_, v)| v > 0)
            .then_some(CounterBlock(sums))
    })
}

/// Everything the recorder knows, merged across ranks at end of run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MetricsSnapshot {
    pub version: u64,
    pub n_ranks: usize,
    pub end_time_ns: u64,
    /// Merged histograms in key order.
    pub hists: Vec<(Key, Histogram)>,
    /// Percentile checkpoint series in key order (ranks interleaved,
    /// sorted by time).
    pub series: Vec<(Key, Vec<CounterPoint>)>,
    pub per_rank: Vec<RankLedger>,
    /// Flows still open at snapshot time.
    pub flows: Vec<FlowSnap>,
    pub slo: SloReport,
    /// Counter blocks rendered by the recorder (see `FAMILIES`):
    /// fault-injection/ARQ, key plane, fault tolerance.
    pub chaos: Option<CounterBlock>,
    pub keys: Option<CounterBlock>,
    pub ftol: Option<CounterBlock>,
}

impl Default for MetricsSnapshot {
    fn default() -> Self {
        MetricsSnapshot {
            version: SNAPSHOT_VERSION,
            n_ranks: 0,
            end_time_ns: 0,
            hists: Vec::new(),
            series: Vec::new(),
            per_rank: Vec::new(),
            flows: Vec::new(),
            slo: SloReport::default(),
            chaos: None,
            keys: None,
            ftol: None,
        }
    }
}

impl MetricsSnapshot {
    /// The counter blocks in export order, with their family names.
    pub(crate) fn counter_blocks(
        &self,
    ) -> impl Iterator<Item = (&'static str, &Option<CounterBlock>)> {
        let blocks = [&self.chaos, &self.keys, &self.ftol];
        FAMILIES.iter().map(|&(family, _)| family).zip(blocks)
    }

    /// Merged histogram for `(metric, op)` across all keys (any comm,
    /// peer, size class). Empty histogram when nothing matched.
    pub fn merged(&self, metric: Metric, op_prefix: &str) -> Histogram {
        let mut h = Histogram::new();
        for (k, v) in &self.hists {
            if k.metric == metric && k.op.starts_with(op_prefix) {
                h.merge(v);
            }
        }
        h
    }

    /// Total samples per metric kind across ranks, from the ledgers.
    pub fn ledger_total(&self, metric: Metric) -> u64 {
        self.per_rank
            .iter()
            .map(|l| match metric {
                Metric::E2e => l.e2e_samples,
                Metric::Seal => l.seal_samples,
                Metric::Open => l.open_samples,
                Metric::Wait => l.wait_samples,
                Metric::Repair => l.repair_samples,
                Metric::Key => l.key_samples,
                Metric::Ftol => l.ftol_samples,
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn size_classes() {
        assert_eq!(size_class(0), 0);
        assert_eq!(size_class(1), 0);
        assert_eq!(size_class(2), 1);
        assert_eq!(size_class(3), 2);
        assert_eq!(size_class(4), 2);
        assert_eq!(size_class(5), 3);
        assert_eq!(size_class(1 << 18), 18);
        assert_eq!(size_class((1 << 18) + 1), 19);
    }
}
