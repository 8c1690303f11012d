//! `empi-trace`: virtual-time tracing and overhead decomposition for
//! the encrypted-MPI stack.
//!
//! The paper's central result is a *decomposition* — how much of each
//! MPI operation is crypto vs wire vs wait. This crate is the
//! substrate that makes that decomposition observable end to end:
//!
//! - the **engine** records wait spans (rank parked in `block_on`),
//! - the **fabric** records transfers and NIC busy intervals,
//! - the **MPI layer** labels everything with op/phase names
//!   (`bcast/binomial`, `p2p/eager`, …) and charges host overheads,
//! - the **secure layer** records seal/open spans and byte ledgers,
//! - the **AEAD engines** bump global block counters.
//!
//! Everything funnels into one [`Recorder`] handle with two sinks and
//! comes back out of [`Recorder::finish`] as
//!
//! - a [`TraceReport`] (span sink): per-rank [`RankMetrics`],
//!   per-(src,dst) byte ledgers, and a bounded event log writable as
//!   Chrome `chrome://tracing` JSON ([`chrome`]);
//! - a [`MetricsSnapshot`] (distribution sink): log-linear latency
//!   [`Histogram`]s keyed by [`Key`] `(metric, op, communicator, peer,
//!   size class)`, percentile checkpoint series, the per-flow
//!   [`flight`] recorder whose rings become the [`BlackBox`] attached
//!   to delivery errors, the [`slo`] watchdog's verdict, and the
//!   harness-injected counter blocks — rendered by [`export`] as a
//!   versioned JSON document and Chrome counter tracks.
//!
//! Everything is hand-rolled; this crate has zero dependencies.
//!
//! # Cost model
//!
//! One gate keeps the unobserved fast path honest, the same one for
//! both sinks, and it is taken at **run time**: nothing records unless
//! the world asked for a sink (`World::traced`, `World::with_metrics`,
//! `World::with_slo`); a world that asked for neither installs no
//! recorder, `SimHandle::recorder()` is `None` and every hook is a
//! single `Option` check. Recording never advances virtual time, so
//! clocks and wire bytes are bit-identical with either sink on or off.
//! The only thing that runs without a recorder is [`engine_counters`]:
//! one relaxed `fetch_add` per seal/GHASH call.
//!
//! There is one build: no Cargo feature selects a second `Recorder`.
//! The report *types* are plain data, so errors can embed black boxes
//! unconditionally.
//!
//! The sinks' cost is measured from outside the crates by
//! `benchmark/`: `trace.overhead_pct` (a traced repetition against
//! untraced ones) and `metrics.overhead_pct.pp256` (a metered 256 B
//! ping-pong against an unmetered one).

use std::fmt;

pub mod chrome;
pub mod export;
pub mod flight;
pub mod hist;
pub mod json;
mod recorder;
pub mod slo;
mod snapshot;

pub use flight::{BlackBox, FlowEvent, FlowKey};
pub use hist::Histogram;
pub use recorder::{Lane, Recorder, SampleKey};
pub use slo::{SloConfig, SloReport, SloViolation};
pub use snapshot::{
    size_class, CounterBlock, CounterPoint, FlowSnap, Key, Metric, MetricsSnapshot, RankLedger,
    CHECKPOINT_EVERY, MAX_POINTS, SNAPSHOT_VERSION,
};

/// Event category, mapped to the `cat` field of Chrome trace events.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Cat {
    /// Rank parked in `block_on` (recv/wait/rendezvous/barrier...).
    Wait,
    /// Seal/open span charged by the secure layer.
    Crypto,
    /// Fabric transfer (first bit out to last bit in).
    Wire,
    /// NIC port busy interval.
    Nic,
    /// Collective/p2p op span markers.
    Op,
    /// Per-chunk seal/open on a pipeline worker core (one Chrome lane
    /// per (rank, worker); see [`pipeline_tid`]).
    Pipeline,
    /// A deterministic fault injection (`fault/bitflip`, `fault/drop`,
    /// …) on the injecting rank's lane.
    Fault,
    /// Recovery-protocol activity (`retry/nack`, `retry/backoff`,
    /// `retry/resend`) on the recovering rank's lane.
    Retry,
    /// Buffer sourcing on the hot path (`alloc/fresh`, `alloc/pooled`)
    /// on the owning rank's lane — one marker per seal/open op, with
    /// the per-site counts in [`RankMetrics`].
    Alloc,
    /// SLO watchdog verdicts (`health/p99-budget`, `health/flow-stall`,
    /// `health/verdict`) emitted by [`Recorder::finish`] at end time.
    Health,
    /// Key-lifecycle activity (`key/handshake`, `key/rotate`,
    /// `key/revoke`, `key/reject`) on the acting rank's lane.
    Key,
    /// Fault-tolerance activity (`ftol/detect`, `ftol/notice`,
    /// `ftol/probe`, `ftol/shrink`, `ftol/rekey`) on the acting rank's
    /// lane.
    Ftol,
}

impl Cat {
    pub fn as_str(self) -> &'static str {
        match self {
            Cat::Wait => "wait",
            Cat::Crypto => "crypto",
            Cat::Wire => "wire",
            Cat::Nic => "nic",
            Cat::Op => "op",
            Cat::Pipeline => "pipeline",
            Cat::Fault => "fault",
            Cat::Retry => "retry",
            Cat::Alloc => "alloc",
            Cat::Health => "health",
            Cat::Key => "key",
            Cat::Ftol => "ftol",
        }
    }
}

/// First Chrome lane id used for pipeline worker cores — far above any
/// plausible rank/NIC tid so the schemes cannot collide.
pub const PIPELINE_TID_BASE: u32 = 10_000;
/// Lane ids reserved per rank for its workers (worker index < this).
pub const PIPELINE_LANE_STRIDE: u32 = 64;

/// Chrome lane id of `(rank, worker)` pipeline-core spans.
pub fn pipeline_tid(rank: usize, worker: usize) -> u32 {
    debug_assert!((worker as u32) < PIPELINE_LANE_STRIDE);
    PIPELINE_TID_BASE + rank as u32 * PIPELINE_LANE_STRIDE + worker as u32
}

/// One complete-span event in virtual time.
#[derive(Clone, Debug)]
pub struct Event {
    pub name: String,
    pub cat: Cat,
    /// Virtual start time (ns).
    pub ts_ns: u64,
    /// Duration (ns).
    pub dur_ns: u64,
    /// Chrome lane: rank id, or `n_ranks + 2*node + dir` for NICs.
    pub tid: u32,
    /// Payload size attached to the event (0 if not applicable).
    pub bytes: u64,
    /// Free-form detail (backend name, phase label, peer).
    pub detail: String,
}

/// Per-rank counters: the one place an event is counted. The time
/// ledgers and the hot-path seal/open/nonce/alloc counters run under
/// the span sink only; the ARQ, key-plane and detector counters run
/// whenever a recorder is installed, and [`Recorder::finish`] renders
/// them into the snapshot's `chaos`, `keys` and `ftol` blocks.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RankMetrics {
    /// Virtual ns spent inside seal/open (incl. calibrated charge).
    pub crypto_ns: u64,
    /// Virtual ns of MPI host overhead (send/recv o, stream o).
    pub host_ns: u64,
    /// Virtual ns parked in `block_on`.
    pub wait_ns: u64,
    /// Messages sealed / opened by the secure layer.
    pub seals: u64,
    pub opens: u64,
    /// Plaintext bytes in / wire bytes out of `seal`.
    pub sealed_plain_bytes: u64,
    pub sealed_wire_bytes: u64,
    /// Wire bytes in / plaintext bytes out of `open`.
    pub opened_wire_bytes: u64,
    pub opened_plain_bytes: u64,
    /// Nonces drawn from the rank's `NonceSource`.
    pub nonce_draws: u64,
    /// Chunks sealed / opened on the rank's pipeline worker cores.
    pub chunks_sealed: u64,
    pub chunks_opened: u64,
    /// Faults this rank injected on its outgoing frames.
    pub faults_injected: u64,
    /// Typed NACKs this rank sent after a failed open.
    pub nacks_sent: u64,
    /// NACKs this rank received as a sender asked to repair.
    pub nacks_received: u64,
    /// Frames this rank retransmitted in response to NACKs.
    pub retransmits: u64,
    /// Abort repairs this rank sent (NACK for an evicted or unknown
    /// message).
    pub aborts: u64,
    /// Messages this rank recovered after at least one failed delivery.
    pub recoveries: u64,
    /// Virtual ns spent in capped exponential backoff before resends.
    pub backoff_ns: u64,
    /// Wire/frame buffer takes (and their bytes) that missed the
    /// world's pool shelves: every buffer the stack materializes per
    /// message is one take.
    pub allocs_fresh: u64,
    pub alloc_fresh_bytes: u64,
    /// Takes served from the world's pool shelves.
    pub allocs_pooled: u64,
    pub alloc_pooled_bytes: u64,
    /// Group handshakes this rank completed (key plane).
    pub handshakes: u64,
    /// Key epochs this rank rolled into, one per epoch even when an
    /// idle gap skips several (0 when rotation is off).
    pub rekeys: u64,
    /// Peers this rank revoked and re-keyed away from.
    pub revocations: u64,
    /// Records rejected as stale-epoch replays, future-epoch forgeries,
    /// or traffic from a revoked peer.
    pub rejected_stale: u64,
    pub rejected_future: u64,
    pub rejected_revoked: u64,
    /// Rank failures this rank confirmed locally (lease + probe).
    pub ft_detected: u64,
    /// Rank failures this rank learned of via a peer's notice.
    pub ft_notices: u64,
    /// Probe rounds this rank's detector issued.
    pub ft_probes: u64,
    /// Communicator shrinks this rank completed.
    pub ft_shrinks: u64,
    /// Survivor re-keys this rank made past a confirmed death.
    pub ft_rekeys: u64,
}

/// Byte/message ledger for one ordered (src, dst) rank pair.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PairFlow {
    /// Bytes/messages injected into the fabric by `src` for `dst`.
    pub tx_bytes: u64,
    pub tx_msgs: u64,
    /// Bytes/messages delivered to (taken by) `dst` from `src`.
    pub rx_bytes: u64,
    pub rx_msgs: u64,
}

/// Global AEAD engine counters (see [`engine_counters`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EngineCounters {
    /// 16-byte AES blocks pushed through each engine.
    pub aes_blocks_soft: u64,
    pub aes_blocks_ni: u64,
    pub aes_blocks_pipelined: u64,
    /// 16-byte GHASH blocks folded by each path.
    pub ghash_blocks_soft: u64,
    pub ghash_blocks_clmul: u64,
    /// Times a hardware engine was requested but unavailable, falling
    /// back to the software path.
    pub hw_fallbacks: u64,
}

impl EngineCounters {
    /// Counter-wise `self - baseline` (saturating).
    pub fn since(&self, baseline: &EngineCounters) -> EngineCounters {
        EngineCounters {
            aes_blocks_soft: self
                .aes_blocks_soft
                .saturating_sub(baseline.aes_blocks_soft),
            aes_blocks_ni: self.aes_blocks_ni.saturating_sub(baseline.aes_blocks_ni),
            aes_blocks_pipelined: self
                .aes_blocks_pipelined
                .saturating_sub(baseline.aes_blocks_pipelined),
            ghash_blocks_soft: self
                .ghash_blocks_soft
                .saturating_sub(baseline.ghash_blocks_soft),
            ghash_blocks_clmul: self
                .ghash_blocks_clmul
                .saturating_sub(baseline.ghash_blocks_clmul),
            hw_fallbacks: self.hw_fallbacks.saturating_sub(baseline.hw_fallbacks),
        }
    }
}

/// Aggregate crypto/host/wire/wait split of a traced run.
///
/// `wire_ns` is fabric occupancy (latency + serialization, from the
/// moment the sender NIC starts serving a message — sender-side queue
/// time behind earlier messages counts as wait, not wire) summed over
/// transfers; `wait_ns` is rank time parked in `block_on`
/// and *overlaps* `wire_ns` (a receiver waits while bytes fly), so the
/// four columns are views, not disjoint partitions. The paper-facing
/// ratio is [`Decomposition::crypto_share`]: crypto over crypto+comm,
/// where comm = host + wire.
#[derive(Clone, Copy, Debug, Default)]
pub struct Decomposition {
    pub crypto_ns: u64,
    pub host_ns: u64,
    pub wire_ns: u64,
    pub wait_ns: u64,
}

impl Decomposition {
    /// Host + wire: everything the unencrypted op would also pay.
    pub fn comm_ns(&self) -> u64 {
        self.host_ns + self.wire_ns
    }

    /// Fraction of (crypto + comm) time spent in crypto, in percent.
    pub fn crypto_share(&self) -> f64 {
        let denom = (self.crypto_ns + self.comm_ns()) as f64;
        if denom == 0.0 {
            0.0
        } else {
            self.crypto_ns as f64 / denom * 100.0
        }
    }

    /// Complement of [`Self::crypto_share`], in percent.
    pub fn comm_share(&self) -> f64 {
        if self.crypto_ns + self.comm_ns() == 0 {
            0.0
        } else {
            100.0 - self.crypto_share()
        }
    }
}

/// Everything a traced run produced, drained by [`Recorder::finish`].
#[derive(Clone, Debug, Default)]
pub struct TraceReport {
    pub n_ranks: usize,
    pub per_rank: Vec<RankMetrics>,
    /// Inter-node fabric transfers and their total occupancy.
    pub transfers: u64,
    pub local_transfers: u64,
    pub wire_ns: u64,
    /// Ordered (src, dst) → ledger, sorted by pair.
    pub pairs: Vec<((usize, usize), PairFlow)>,
    /// Bounded event log, merged from all lanes, sorted by start time.
    pub events: Vec<Event>,
    /// Events discarded because a ring buffer filled.
    pub dropped_events: u64,
    /// AEAD engine activity during the traced window.
    pub engines: EngineCounters,
}

impl TraceReport {
    /// Sum the per-rank metrics plus global wire time.
    pub fn decomposition(&self) -> Decomposition {
        let mut d = Decomposition {
            wire_ns: self.wire_ns,
            ..Decomposition::default()
        };
        for m in &self.per_rank {
            d.crypto_ns += m.crypto_ns;
            d.host_ns += m.host_ns;
            d.wait_ns += m.wait_ns;
        }
        d
    }

    /// The ledger for `(src, dst)`, zero if the pair never spoke.
    pub fn pair(&self, src: usize, dst: usize) -> PairFlow {
        self.pairs
            .iter()
            .find(|(k, _)| *k == (src, dst))
            .map(|(_, v)| *v)
            .unwrap_or_default()
    }

    /// Serialize to Chrome trace-event JSON (see [`chrome`]).
    pub fn to_chrome_json(&self) -> String {
        chrome::to_chrome_json(self)
    }

    /// Write Chrome trace-event JSON to `path`.
    pub fn write_chrome_json(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_chrome_json())
    }
}

impl fmt::Display for TraceReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let d = self.decomposition();
        write!(
            f,
            "trace: {} ranks, {} transfers ({} local), crypto {:.1}us / host {:.1}us / \
             wire {:.1}us / wait {:.1}us, crypto-share {:.1}%, {} events ({} dropped)",
            self.n_ranks,
            self.transfers,
            self.local_transfers,
            d.crypto_ns as f64 / 1e3,
            d.host_ns as f64 / 1e3,
            d.wire_ns as f64 / 1e3,
            d.wait_ns as f64 / 1e3,
            d.crypto_share(),
            self.events.len(),
            self.dropped_events,
        )
    }
}

/// Default per-lane event capacity (ring buffer; oldest dropped).
pub const DEFAULT_EVENT_CAPACITY: usize = 1 << 16;

pub mod engine_counters {
    //! Global AEAD engine counters, batched per call (one relaxed
    //! `fetch_add` per seal/ghash invocation, never per block).

    use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

    use super::EngineCounters;

    static AES_SOFT: AtomicU64 = AtomicU64::new(0);
    static AES_NI: AtomicU64 = AtomicU64::new(0);
    static AES_PIPELINED: AtomicU64 = AtomicU64::new(0);
    static GHASH_SOFT: AtomicU64 = AtomicU64::new(0);
    static GHASH_CLMUL: AtomicU64 = AtomicU64::new(0);
    static HW_FALLBACKS: AtomicU64 = AtomicU64::new(0);

    macro_rules! counter_fn {
        ($name:ident, $atomic:ident) => {
            #[inline]
            pub fn $name(blocks: u64) {
                $atomic.fetch_add(blocks, Relaxed);
            }
        };
    }

    counter_fn!(add_aes_blocks_soft, AES_SOFT);
    counter_fn!(add_aes_blocks_ni, AES_NI);
    counter_fn!(add_aes_blocks_pipelined, AES_PIPELINED);
    counter_fn!(add_ghash_blocks_soft, GHASH_SOFT);
    counter_fn!(add_ghash_blocks_clmul, GHASH_CLMUL);
    counter_fn!(add_hw_fallback, HW_FALLBACKS);

    /// Current counter values.
    pub fn snapshot() -> EngineCounters {
        EngineCounters {
            aes_blocks_soft: AES_SOFT.load(Relaxed),
            aes_blocks_ni: AES_NI.load(Relaxed),
            aes_blocks_pipelined: AES_PIPELINED.load(Relaxed),
            ghash_blocks_soft: GHASH_SOFT.load(Relaxed),
            ghash_blocks_clmul: GHASH_CLMUL.load(Relaxed),
            hw_fallbacks: HW_FALLBACKS.load(Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn engine_counters_window() {
        let before = engine_counters::snapshot();
        engine_counters::add_aes_blocks_ni(128);
        engine_counters::add_ghash_blocks_clmul(130);
        let after = engine_counters::snapshot().since(&before);
        assert_eq!(after.aes_blocks_ni, 128);
        assert_eq!(after.ghash_blocks_clmul, 130);
    }
}
