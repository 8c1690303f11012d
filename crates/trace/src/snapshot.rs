//! The distribution side of a run's report: histogram keys, per-rank
//! sample ledgers, open flows, counter blocks and the merged
//! [`MetricsSnapshot`] that [`crate::Recorder::finish`] returns.

use crate::{Histogram, SloReport};

/// JSON snapshot schema version (`"version"` field).
pub const SNAPSHOT_VERSION: u64 = 1;

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
    /// Communicator id (0 = world).
    pub comm: u32,
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

/// Per-rank sample totals, used by `tracecheck --require-hist` to
/// prove histogram counts conserve against the `RankMetrics` ledgers
/// (seals == seal-histogram samples, opens == open-histogram samples).
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

/// One counter family: `(name, value)` pairs in export order. Each
/// owner reports its own — `ChaosStats::counters` (`empi-core`) and
/// `KeyStats::counters` (`empi-keys`) as plain arrays,
/// `Comm::ftol_counters` (`empi-mpi`) as a block — harnesses sum them
/// across ranks with [`CounterBlock::sum`] and attach the result to the
/// snapshot, whose exporters render any block in one loop.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CounterBlock(Vec<(&'static str, u64)>);

impl<const N: usize> From<[(&'static str, u64); N]> for CounterBlock {
    fn from(pairs: [(&'static str, u64); N]) -> Self {
        CounterBlock(pairs.to_vec())
    }
}

impl AsRef<[(&'static str, u64)]> for CounterBlock {
    fn as_ref(&self) -> &[(&'static str, u64)] {
        &self.0
    }
}

impl CounterBlock {
    /// Element-wise sum of blocks of one family (they all list the
    /// same names in the same order).
    pub fn sum<B: AsRef<[(&'static str, u64)]>>(blocks: impl IntoIterator<Item = B>) -> Self {
        let mut sum: Vec<(&'static str, u64)> = Vec::new();
        for block in blocks {
            let block = block.as_ref();
            if sum.is_empty() {
                sum.extend(block.iter().map(|&(name, _)| (name, 0)));
            }
            assert_eq!(
                sum.len(),
                block.len(),
                "blocks of one family share a layout"
            );
            for (slot, &(name, v)) in sum.iter_mut().zip(block) {
                assert_eq!(slot.0, name, "blocks of one family share a layout");
                slot.1 += v;
            }
        }
        CounterBlock(sum)
    }

    /// The value of counter `name`; naming one the family does not
    /// have is a bug in the caller.
    pub fn get(&self, name: &str) -> u64 {
        match self.0.iter().find(|c| c.0 == name) {
            Some(c) => c.1,
            None => panic!("no counter named {name} in {:?}", self.0),
        }
    }

    /// Overwrite counter `name` (a slot its owner leaves to a layer
    /// above it).
    pub fn set(&mut self, name: &str, value: u64) {
        match self.0.iter_mut().find(|c| c.0 == name) {
            Some(c) => c.1 = value,
            None => panic!("no counter named {name}"),
        }
    }

    /// The `(name, value)` pairs in export order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.0.iter().copied()
    }
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
    /// Counter blocks injected by the harness (the owners live above
    /// this crate): fault-injection/ARQ, key plane, fault tolerance.
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
