//! The one recorder under the stack.
//!
//! A [`Recorder`] is a cheaply cloneable handle with two sinks: the
//! **span sink** (`traced`: the bounded event rings, the pair ledger,
//! NIC lanes and the time ledgers of the per-rank [`RankMetrics`] —
//! everything a [`TraceReport`] carries) and the **distribution sink**
//! (`metered`: latency histograms, percentile checkpoints, the per-flow
//! flight recorder and the sample ledger — everything a
//! [`MetricsSnapshot`] carries). Each rank's state for both sinks lives
//! in one cell under one lock, so an instrumented event is one call:
//! [`Recorder::span`] pushes the span, bumps the counter its label
//! stands for and, when the event is also a latency sample, records it
//! under its histogram key. [`Recorder::finish`] is the one end of run.
//!
//! The recorder is the only counter of an event. The ARQ, key-plane
//! and detector counters count whenever a recorder is installed, under
//! either sink, and `finish` renders them as the snapshot's `chaos`,
//! `keys` and `ftol` blocks; the time ledgers and the hot-path
//! seal/open/nonce/alloc counters count under the span sink only, so a
//! metered-only run does no work for them.
//!
//! Counters are incremented at emit time, never folded from the rings:
//! the rings drop their oldest entries, so a fold would under-count.
//!
//! Lock policy: a rank's cell is only touched by that rank's thread
//! during a run, so the locks are uncontended; a lock poisoned by a
//! panicking rank is recovered, since every update leaves counters and
//! rings valid at every step and the diagnostics that run after a
//! panic must not panic again.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::{Arc, Mutex, MutexGuard};

use crate::flight::{FlightRecorder, FlowEvent, FlowKey};
use crate::{
    pipeline_tid, size_class, slo, BlackBox, Cat, CounterPoint, EngineCounters, Event, FlowSnap,
    Histogram, Key, Metric, MetricsSnapshot, PairFlow, RankLedger, RankMetrics, SloConfig,
    TraceReport, CHECKPOINT_EVERY, DEFAULT_EVENT_CAPACITY, MAX_POINTS,
};

/// Histogram key of an event that is also a latency sample: the
/// metric, its op name (`seal/plain`, `key/rotate`, …) and the peer
/// rank (−1 = no single peer). Communicator and size class are filled
/// in by the recorder.
pub type SampleKey = (Metric, &'static str, i32);

/// The Chrome lane a span is drawn on; the accounting always goes to
/// the lane's rank.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Lane {
    /// The rank's own lane.
    Rank(usize),
    /// One of the rank's pipeline worker cores (see [`pipeline_tid`]).
    Worker { rank: usize, worker: usize },
}

impl From<usize> for Lane {
    fn from(rank: usize) -> Self {
        Lane::Rank(rank)
    }
}

struct Ring {
    buf: VecDeque<Event>,
    cap: usize,
    dropped: u64,
}

impl Ring {
    fn new(cap: usize) -> Self {
        Self {
            buf: VecDeque::new(),
            cap,
            dropped: 0,
        }
    }

    fn push(&mut self, e: Event) {
        if self.buf.len() == self.cap {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back(e);
    }

    /// Move the retained events onto `out`; returns the drop count
    /// and resets it.
    fn drain_into(&mut self, out: &mut Vec<Event>) -> u64 {
        out.extend(std::mem::take(&mut self.buf));
        std::mem::take(&mut self.dropped)
    }
}

#[derive(Default)]
struct Series {
    pts: Vec<CounterPoint>,
    dropped: u64,
}

struct RankCell {
    m: RankMetrics,
    /// Operation label stack: outermost = collective, innermost =
    /// protocol phase. `&'static str` keeps pushes allocation-free.
    ops: Vec<&'static str>,
    events: Ring,
    hists: BTreeMap<Key, Histogram>,
    series: BTreeMap<Key, Series>,
    flights: FlightRecorder,
    ledger: RankLedger,
}

impl RankCell {
    /// Record one latency sample taken at virtual time `now_ns`.
    fn sample(&mut self, (metric, op, peer): SampleKey, bytes: usize, now_ns: u64, dur_ns: u64) {
        let key = Key {
            metric,
            op,
            peer,
            size_class: size_class(bytes),
        };
        match metric {
            Metric::E2e => self.ledger.e2e_samples += 1,
            Metric::Seal => self.ledger.seal_samples += 1,
            Metric::Open => self.ledger.open_samples += 1,
            Metric::Wait => self.ledger.wait_samples += 1,
            Metric::Repair => self.ledger.repair_samples += 1,
            Metric::Key => self.ledger.key_samples += 1,
            Metric::Ftol => self.ledger.ftol_samples += 1,
        }
        let h = self.hists.entry(key).or_default();
        h.record(dur_ns);
        if h.count() == 1 || h.count().is_multiple_of(CHECKPOINT_EVERY) {
            let pt = CounterPoint {
                t_ns: now_ns,
                count: h.count(),
                p50_ns: h.p50(),
                p99_ns: h.p99(),
                p999_ns: h.p999(),
            };
            let s = self.series.entry(key).or_default();
            if s.pts.len() < MAX_POINTS {
                s.pts.push(pt);
            } else {
                s.dropped += 1;
            }
        }
    }
}

#[derive(Default)]
struct GlobalCounters {
    transfers: u64,
    local_transfers: u64,
    wire_ns: u64,
    pairs: HashMap<(usize, usize), PairFlow>,
}

struct Inner {
    n_ranks: usize,
    /// Span sink on (`World::traced`).
    spans: bool,
    /// Distribution sink on (`World::with_metrics` / `with_slo`).
    dists: bool,
    slo: Option<SloConfig>,
    ranks: Vec<Mutex<RankCell>>,
    global: Mutex<GlobalCounters>,
    nic_events: Mutex<Ring>,
    baseline: EngineCounters,
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// The recorder. See the module docs.
#[derive(Clone)]
pub struct Recorder {
    inner: Arc<Inner>,
}

impl Recorder {
    /// A recorder for `n_ranks` ranks with the chosen sinks; `slo`
    /// is evaluated against the distribution sink at
    /// [`Recorder::finish`].
    pub fn new(n_ranks: usize, traced: bool, metered: bool, slo: Option<SloConfig>) -> Self {
        Self::with_capacity(n_ranks, traced, metered, slo, DEFAULT_EVENT_CAPACITY)
    }

    /// `cap` bounds each rank's event ring (and the NIC ring).
    fn with_capacity(
        n_ranks: usize,
        traced: bool,
        metered: bool,
        slo: Option<SloConfig>,
        cap: usize,
    ) -> Self {
        let cell = || RankCell {
            m: RankMetrics::default(),
            ops: Vec::new(),
            events: Ring::new(cap),
            hists: BTreeMap::new(),
            series: BTreeMap::new(),
            flights: FlightRecorder::default(),
            ledger: RankLedger::default(),
        };
        Recorder {
            inner: Arc::new(Inner {
                n_ranks,
                spans: traced,
                dists: metered,
                slo,
                ranks: (0..n_ranks).map(|_| Mutex::new(cell())).collect(),
                global: Mutex::new(GlobalCounters::default()),
                nic_events: Mutex::new(Ring::new(cap)),
                baseline: crate::engine_counters::snapshot(),
            }),
        }
    }

    fn rank(&self, r: usize) -> MutexGuard<'_, RankCell> {
        lock(&self.inner.ranks[r])
    }

    /// The rank's cell when the span sink is on.
    #[inline]
    fn traced_rank(&self, r: usize) -> Option<MutexGuard<'_, RankCell>> {
        self.inner.spans.then(|| self.rank(r))
    }

    /// Record one event of `dur_ns` starting at `t0_ns` on `lane`.
    ///
    /// Counters: bump the [`RankMetrics`] counter the label stands for
    /// (the one table below). The fault, retry, key and ftol families
    /// count under either sink; the time ledgers only under the span
    /// sink.
    ///
    /// Span sink: push the span. Wait, crypto and pipeline spans keep
    /// their true duration in the ring (a 0 ns wait is not pushed at
    /// all); every other category is a marker of at least 1 ns so
    /// tracecheck's nonzero-duration audit sees it. `detail` is only
    /// built when this sink is on.
    ///
    /// Distribution sink: when the event is also a latency sample,
    /// `sample` is its histogram key and the true `dur_ns` is
    /// recorded at `t0_ns + dur_ns`.
    #[allow(clippy::too_many_arguments)]
    pub fn span(
        &self,
        lane: impl Into<Lane>,
        cat: Cat,
        name: &str,
        t0_ns: u64,
        dur_ns: u64,
        bytes: usize,
        detail: impl FnOnce() -> String,
        sample: Option<SampleKey>,
    ) {
        let spans = self.inner.spans;
        let sample = sample.filter(|_| self.inner.dists);
        let counted = matches!(cat, Cat::Fault | Cat::Retry | Cat::Key | Cat::Ftol);
        if !spans && sample.is_none() && !counted {
            return;
        }
        let (rank, tid) = match lane.into() {
            Lane::Rank(rank) => (rank, rank as u32),
            Lane::Worker { rank, worker } => (rank, pipeline_tid(rank, worker)),
        };
        let mut c = self.rank(rank);
        let m = &mut c.m;
        match (cat, name) {
            (Cat::Fault, _) => m.faults_injected += 1,
            (Cat::Retry, "retry/nack") => m.nacks_sent += 1,
            (Cat::Retry, "retry/resend") => m.retransmits += 1,
            (Cat::Retry, "retry/abort") => m.aborts += 1,
            (Cat::Retry, "retry/backoff") => m.backoff_ns += dur_ns,
            (Cat::Key, "key/handshake") => m.handshakes += 1,
            (Cat::Key, "key/revoke") => m.revocations += 1,
            (Cat::Key, "key/reject") => m.rejected_revoked += 1,
            (Cat::Ftol, "ftol/detect") => m.ft_detected += 1,
            (Cat::Ftol, "ftol/notice") => m.ft_notices += 1,
            (Cat::Ftol, "ftol/probe") => m.ft_probes += 1,
            (Cat::Ftol, "ftol/shrink") => m.ft_shrinks += 1,
            (Cat::Ftol, "ftol/rekey") => m.ft_rekeys += 1,
            _ if !spans => {}
            (Cat::Wait, _) => m.wait_ns += dur_ns,
            (Cat::Crypto, _) => m.crypto_ns += dur_ns,
            (Cat::Pipeline, "pipe/seal") => {
                m.crypto_ns += dur_ns;
                m.chunks_sealed += 1;
            }
            (Cat::Pipeline, "pipe/open") => {
                m.crypto_ns += dur_ns;
                m.chunks_opened += 1;
            }
            (Cat::Pipeline, _) => m.crypto_ns += dur_ns,
            _ => {}
        }
        if spans && (dur_ns > 0 || cat != Cat::Wait) {
            let timed = matches!(cat, Cat::Wait | Cat::Crypto | Cat::Pipeline);
            c.events.push(Event {
                name: name.to_string(),
                cat,
                ts_ns: t0_ns,
                dur_ns: if timed { dur_ns } else { dur_ns.max(1) },
                tid,
                bytes: bytes as u64,
                detail: detail(),
            });
        }
        if let Some(key) = sample {
            c.sample(key, bytes, t0_ns + dur_ns, dur_ns);
        }
    }

    /// Count a NACK received by `rank` as a sender asked to repair.
    /// This and the four calls below count, under either sink, an
    /// event of the ARQ or key family that has no span of its own;
    /// they push no event.
    pub fn count_nack_received(&self, rank: usize) {
        self.rank(rank).m.nacks_received += 1;
    }

    /// Count a message `rank` recovered after a failed delivery.
    pub fn count_recovery(&self, rank: usize) {
        self.rank(rank).m.recoveries += 1;
    }

    /// Count the `rolls` epochs one key rotation of `rank` rolled.
    pub fn count_rekeys(&self, rank: usize, rolls: u64) {
        self.rank(rank).m.rekeys += rolls;
    }

    /// Count a record `rank` rejected as a stale-epoch replay.
    pub fn count_stale_epoch(&self, rank: usize) {
        self.rank(rank).m.rejected_stale += 1;
    }

    /// Count a record `rank` rejected as a future-epoch forgery.
    pub fn count_future_epoch(&self, rank: usize) {
        self.rank(rank).m.rejected_future += 1;
    }

    /// Record one latency sample that has no span (end-to-end op
    /// latency, ARQ repair resolution), taken at `now_ns`.
    #[inline]
    pub fn sample(&self, rank: usize, key: SampleKey, bytes: usize, now_ns: u64, dur_ns: u64) {
        if self.inner.dists {
            self.rank(rank).sample(key, bytes, now_ns, dur_ns);
        }
    }

    /// Charge MPI host overhead (send/recv o, stream o) to `rank`.
    #[inline]
    pub fn add_host_ns(&self, rank: usize, ns: u64) {
        if let Some(mut c) = self.traced_rank(rank) {
            c.m.host_ns += ns;
        }
    }

    #[inline]
    pub fn count_seal(&self, rank: usize, plain_bytes: usize, wire_bytes: usize) {
        if let Some(mut c) = self.traced_rank(rank) {
            c.m.seals += 1;
            c.m.sealed_plain_bytes += plain_bytes as u64;
            c.m.sealed_wire_bytes += wire_bytes as u64;
        }
    }

    #[inline]
    pub fn count_open(&self, rank: usize, wire_bytes: usize, plain_bytes: usize) {
        if let Some(mut c) = self.traced_rank(rank) {
            c.m.opens += 1;
            c.m.opened_wire_bytes += wire_bytes as u64;
            c.m.opened_plain_bytes += plain_bytes as u64;
        }
    }

    #[inline]
    pub fn count_nonce_draw(&self, rank: usize) {
        if let Some(mut c) = self.traced_rank(rank) {
            c.m.nonce_draws += 1;
        }
    }

    /// Count one hot-path buffer sourcing at its site: `fresh`
    /// means a heap allocation, otherwise a pool hit. Counter-only
    /// (no event), so per-chunk call rates cannot flood the ring.
    #[inline]
    pub fn count_alloc(&self, rank: usize, fresh: bool, bytes: usize) {
        if let Some(mut c) = self.traced_rank(rank) {
            if fresh {
                c.m.allocs_fresh += 1;
                c.m.alloc_fresh_bytes += bytes as u64;
            } else {
                c.m.allocs_pooled += 1;
                c.m.alloc_pooled_bytes += bytes as u64;
            }
        }
    }

    /// Enter an operation scope (`bcast/binomial`, `p2p/eager`...).
    #[inline]
    pub fn push_op(&self, rank: usize, label: &'static str) {
        if let Some(mut c) = self.traced_rank(rank) {
            c.ops.push(label);
        }
    }

    #[inline]
    pub fn pop_op(&self, rank: usize) {
        if let Some(mut c) = self.traced_rank(rank) {
            c.ops.pop();
        }
    }

    /// Record a fabric transfer; labels are read from `src`'s op
    /// stack (race-free: the engine runs one rank at a time and
    /// the sender is the one inside `transmit`).
    pub fn transfer(
        &self,
        src: usize,
        dst: usize,
        wire_bytes: usize,
        start_ns: u64,
        arrive_ns: u64,
        local: bool,
    ) {
        let Some(mut c) = self.traced_rank(src) else {
            return;
        };
        let op = c.ops.first().copied().unwrap_or("");
        let phase = c.ops.last().copied().unwrap_or("");
        {
            let mut g = lock(&self.inner.global);
            if local {
                g.local_transfers += 1;
            } else {
                g.transfers += 1;
            }
            g.wire_ns += arrive_ns.saturating_sub(start_ns);
            let p = g.pairs.entry((src, dst)).or_default();
            p.tx_bytes += wire_bytes as u64;
            p.tx_msgs += 1;
        }
        c.events.push(Event {
            name: if op.is_empty() { "transfer" } else { op }.to_string(),
            cat: Cat::Wire,
            ts_ns: start_ns,
            dur_ns: arrive_ns.saturating_sub(start_ns),
            tid: src as u32,
            bytes: wire_bytes as u64,
            detail: if phase.is_empty() || phase == op {
                format!("{src}->{dst}")
            } else {
                format!("{src}->{dst} {phase}")
            },
        });
    }

    /// Record delivery of a message to its receiver.
    #[inline]
    pub fn delivery(&self, src: usize, dst: usize, bytes: usize) {
        if self.inner.spans {
            let mut g = lock(&self.inner.global);
            let p = g.pairs.entry((src, dst)).or_default();
            p.rx_bytes += bytes as u64;
            p.rx_msgs += 1;
        }
    }

    /// Record a NIC port busy interval. `dir`: 0 = tx, 1 = rx.
    #[inline]
    pub fn nic_busy(&self, node: usize, dir: u8, t0_ns: u64, t1_ns: u64) {
        if self.inner.spans {
            lock(&self.inner.nic_events).push(Event {
                name: if dir == 0 { "nic-tx" } else { "nic-rx" }.to_string(),
                cat: Cat::Nic,
                ts_ns: t0_ns,
                dur_ns: t1_ns.saturating_sub(t0_ns),
                tid: (self.inner.n_ranks + 2 * node + dir as usize) as u32,
                bytes: 0,
                detail: String::new(),
            });
        }
    }

    /// Record a flight-recorder event on `rank`'s view of the flow
    /// `(peer, tag, seq)`; `detail` is only built when the
    /// distribution sink is on.
    #[allow(clippy::too_many_arguments)]
    pub fn flow_event(
        &self,
        rank: usize,
        peer: usize,
        tag: u32,
        seq: u64,
        now_ns: u64,
        kind: &'static str,
        bytes: usize,
        detail: impl FnOnce() -> String,
    ) {
        if !self.inner.dists {
            return;
        }
        let mut c = self.rank(rank);
        c.ledger.flow_events += 1;
        c.flights.record(
            FlowKey { peer, tag, seq },
            FlowEvent {
                t_ns: now_ns,
                kind: kind.to_string(),
                bytes: bytes as u64,
                detail: detail(),
            },
        );
    }

    /// Black-box report for `rank`'s view of a flow, if recorded.
    pub fn black_box(&self, rank: usize, peer: usize, tag: u32, seq: u64) -> Option<BlackBox> {
        self.rank(rank)
            .flights
            .black_box(rank, FlowKey { peer, tag, seq })
    }

    /// Tail of `rank`'s most recently touched open flow, rendered
    /// for deadlock diagnostics. Uses `try_lock` so it is safe to
    /// call from a panic/diagnostic path that may already hold
    /// other locks.
    pub fn flight_tail(&self, rank: usize, n: usize) -> Option<String> {
        let c = self.inner.ranks.get(rank)?.try_lock().ok()?;
        c.flights.tail_line(n)
    }

    /// The one end of run, called once at `end_time_ns`: merge the
    /// rank histograms into a deterministic snapshot, evaluate the
    /// SLOs, emit their `health/*` events into the span sink, and
    /// only then drain the rings into the report — so the verdict
    /// is part of the trace it judges. Each half is `Some` when
    /// its sink is on.
    pub fn finish(&self, end_time_ns: u64) -> (Option<TraceReport>, Option<MetricsSnapshot>) {
        let snap = self.inner.dists.then(|| self.snapshot(end_time_ns));
        if let Some(slo) = snap.as_ref().map(|s| &s.slo).filter(|s| s.evaluated) {
            let health = |rank: usize, name: &str, detail: &dyn Fn() -> String| {
                self.span(rank, Cat::Health, name, end_time_ns, 0, 0, detail, None);
            };
            for v in &slo.violations {
                health(v.rank, &format!("health/{}", v.kind), &|| {
                    let (seen, budget) = (v.observed_ns, v.budget_ns);
                    format!("{} observed={seen}ns budget={budget}ns", v.subject)
                });
            }
            let (verdict, n) = (slo.verdict(), slo.violations.len());
            health(0, "health/verdict", &|| {
                format!("{verdict} ({n} violations)")
            });
        }
        (self.inner.spans.then(|| self.report()), snap)
    }

    fn snapshot(&self, end_time_ns: u64) -> MetricsSnapshot {
        let mut hists: BTreeMap<Key, Histogram> = BTreeMap::new();
        let mut series: BTreeMap<Key, Vec<CounterPoint>> = BTreeMap::new();
        let mut per_rank = Vec::with_capacity(self.inner.n_ranks);
        let mut counters = Vec::with_capacity(self.inner.n_ranks);
        let mut flows = Vec::new();
        for r in 0..self.inner.n_ranks {
            let c = self.rank(r);
            counters.push(c.m);
            for (k, h) in &c.hists {
                hists.entry(*k).or_default().merge(h);
            }
            let mut dropped_points = 0;
            for (k, s) in &c.series {
                series.entry(*k).or_default().extend(s.pts.iter().copied());
                dropped_points += s.dropped;
            }
            per_rank.push(RankLedger {
                rank: r,
                dropped_flow_events: c.flights.dropped(),
                dropped_points,
                ..c.ledger
            });
            for (k, last, total) in c.flights.open_flows() {
                flows.push(FlowSnap {
                    rank: r,
                    peer: k.peer,
                    tag: k.tag,
                    seq: k.seq,
                    last_kind: last.kind.clone(),
                    last_ns: last.t_ns,
                    total_events: total,
                });
            }
        }
        for pts in series.values_mut() {
            pts.sort_by_key(|p| p.t_ns);
        }
        let hists: Vec<(Key, Histogram)> = hists.into_iter().collect();
        let slo = match &self.inner.slo {
            Some(cfg) => slo::evaluate(cfg, &hists, &flows, end_time_ns),
            None => Default::default(),
        };
        let [chaos, keys, ftol] = crate::snapshot::sum_blocks(&counters);
        MetricsSnapshot {
            n_ranks: self.inner.n_ranks,
            end_time_ns,
            hists,
            series: series.into_iter().collect(),
            per_rank,
            flows,
            slo,
            chaos,
            keys,
            ftol,
            ..Default::default()
        }
    }

    /// Drain the span sink (counters restart from zero, so a
    /// second call covers a fresh window).
    fn report(&self) -> TraceReport {
        let mut per_rank = Vec::with_capacity(self.inner.n_ranks);
        let mut events = Vec::new();
        let mut dropped = 0;
        for r in 0..self.inner.n_ranks {
            let mut c = self.rank(r);
            per_rank.push(std::mem::take(&mut c.m));
            dropped += c.events.drain_into(&mut events);
        }
        dropped += lock(&self.inner.nic_events).drain_into(&mut events);
        events.sort_by_key(|e| (e.ts_ns, e.tid));
        let g = std::mem::take(&mut *lock(&self.inner.global));
        let mut pairs: Vec<_> = g.pairs.into_iter().collect();
        pairs.sort_by_key(|(k, _)| *k);
        TraceReport {
            n_ranks: self.inner.n_ranks,
            per_rank,
            transfers: g.transfers,
            local_transfers: g.local_transfers,
            wire_ns: g.wire_ns,
            pairs,
            events,
            dropped_events: dropped,
            engines: crate::engine_counters::snapshot().since(&self.inner.baseline),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SNAPSHOT_VERSION;

    /// A span-sink-only recorder.
    fn traced(n: usize) -> Recorder {
        Recorder::new(n, true, false, None)
    }

    /// A marker or timed span with no detail and no sample.
    fn bare(
        t: &Recorder,
        lane: impl Into<Lane>,
        cat: Cat,
        name: &str,
        t0: u64,
        dur: u64,
        bytes: usize,
    ) {
        t.span(lane, cat, name, t0, dur, bytes, String::new, None);
    }

    #[test]
    fn counters_and_report_roundtrip() {
        let t = traced(2);
        t.push_op(0, "bcast/binomial");
        t.push_op(0, "p2p/eager");
        bare(&t, 1, Cat::Wait, "recv", 100, 300, 0);
        t.span(
            0,
            Cat::Crypto,
            "seal",
            0,
            50,
            1024,
            || "boringssl".into(),
            None,
        );
        // 28 bytes of nonce and tag per record.
        t.count_seal(0, 1024, 1024 + 28);
        t.count_nonce_draw(0);
        t.transfer(0, 1, 1024 + 28, 50, 950, false);
        t.delivery(0, 1, 1024 + 28);
        t.nic_busy(0, 0, 50, 900);
        t.pop_op(0);
        t.pop_op(0);

        let (r, snap) = t.finish(1_000);
        assert!(snap.is_none(), "the distribution sink is off");
        let r = r.expect("the span sink is on");
        assert_eq!(r.n_ranks, 2);
        assert_eq!(r.per_rank[1].wait_ns, 300);
        assert_eq!(r.per_rank[0].crypto_ns, 50);
        assert_eq!(r.per_rank[0].seals, 1);
        assert_eq!(r.per_rank[0].nonce_draws, 1);
        assert_eq!(r.transfers, 1);
        assert_eq!(r.wire_ns, 900);
        let p = r.pair(0, 1);
        assert_eq!(p.tx_bytes, p.rx_bytes);
        assert_eq!(p.tx_msgs, 1);
        // Transfer event carries the outermost op label and the phase.
        let wire = r.events.iter().find(|e| e.cat == Cat::Wire).unwrap();
        assert_eq!(wire.name, "bcast/binomial");
        assert!(wire.detail.contains("p2p/eager"));
        let crypto = r.events.iter().find(|e| e.cat == Cat::Crypto).unwrap();
        assert_eq!((crypto.bytes, crypto.detail.as_str()), (1024, "boringssl"));
        let d = r.decomposition();
        assert_eq!(d.crypto_ns, 50);
        assert_eq!(d.wire_ns, 900);
        assert!(d.crypto_share() > 0.0 && d.crypto_share() < 100.0);

        // A second report covers a fresh window.
        let r2 = t.finish(2_000).0.unwrap();
        assert_eq!(r2.transfers, 0);
        assert!(r2.events.is_empty());
    }

    #[test]
    fn pipeline_spans_land_on_worker_lanes() {
        let t = traced(2);
        // Two chunks sealed in parallel on distinct workers of rank 0,
        // one chunk opened on rank 1.
        let lane = |rank, worker| Lane::Worker { rank, worker };
        bare(&t, lane(0, 0), Cat::Pipeline, "pipe/seal", 100, 100, 64);
        bare(&t, lane(0, 1), Cat::Pipeline, "pipe/seal", 100, 90, 64);
        bare(&t, lane(1, 0), Cat::Pipeline, "pipe/open", 300, 40, 64);
        let r = t.finish(400).0.unwrap();
        assert_eq!(r.per_rank[0].chunks_sealed, 2);
        assert_eq!(r.per_rank[0].chunks_opened, 0);
        assert_eq!(r.per_rank[1].chunks_opened, 1);
        // Per-chunk durations accrue to crypto time.
        assert_eq!(r.per_rank[0].crypto_ns, 190);
        let lanes: Vec<u32> = r
            .events
            .iter()
            .filter(|e| e.cat == Cat::Pipeline)
            .map(|e| e.tid)
            .collect();
        assert_eq!(
            lanes,
            vec![pipeline_tid(0, 0), pipeline_tid(0, 1), pipeline_tid(1, 0)]
        );
        // Lanes are named in the Chrome output.
        let json = r.to_chrome_json();
        assert!(json.contains("rank 0 crypto-core 1"), "{json}");
        assert!(json.contains("pipe/seal"));
    }

    #[test]
    fn fault_and_retry_spans_count_and_label() {
        let t = traced(2);
        bare(&t, 0, Cat::Fault, "fault/bitflip", 100, 0, 512);
        bare(&t, 0, Cat::Fault, "fault/jitter", 200, 5_000, 512);
        bare(&t, 1, Cat::Retry, "retry/nack", 300, 0, 16);
        bare(&t, 0, Cat::Retry, "retry/backoff", 310, 2_000, 0);
        bare(&t, 0, Cat::Retry, "retry/resend", 2_310, 0, 512);
        let r = t.finish(3_000).0.unwrap();
        assert_eq!(r.per_rank[0].faults_injected, 2);
        assert_eq!(r.per_rank[1].nacks_sent, 1);
        assert_eq!(r.per_rank[0].retransmits, 1);
        assert_eq!(r.per_rank[0].backoff_ns, 2_000);
        // Every injection is auditable: nonzero-duration spans on the
        // rank lanes with fault/retry names.
        let faults: Vec<_> = r.events.iter().filter(|e| e.cat == Cat::Fault).collect();
        assert_eq!(faults.len(), 2);
        assert!(faults.iter().all(|e| e.dur_ns >= 1 && e.tid == 0));
        assert!(faults.iter().all(|e| e.name.starts_with("fault/")));
        let retries: Vec<_> = r.events.iter().filter(|e| e.cat == Cat::Retry).collect();
        assert_eq!(retries.len(), 3);
        assert!(retries.iter().all(|e| e.name.starts_with("retry/")));
        let json = r.to_chrome_json();
        assert!(json.contains("fault/bitflip"), "{json}");
        assert!(json.contains("retry/resend"), "{json}");
    }

    #[test]
    fn alloc_counters_and_markers() {
        let t = traced(2);
        // Three per-site counts on rank 0: two fresh, one pooled.
        t.count_alloc(0, true, 4096);
        t.count_alloc(0, true, 64);
        t.count_alloc(0, false, 4096);
        // One per-op marker summarizing the seal.
        t.span(
            0,
            Cat::Alloc,
            "alloc/pooled",
            500,
            0,
            4096,
            || "seal 0->1".into(),
            None,
        );
        let r = t.finish(600).0.unwrap();
        assert_eq!(r.per_rank[0].allocs_fresh, 2);
        assert_eq!(r.per_rank[0].alloc_fresh_bytes, 4160);
        assert_eq!(r.per_rank[0].allocs_pooled, 1);
        assert_eq!(r.per_rank[0].alloc_pooled_bytes, 4096);
        let marks: Vec<_> = r.events.iter().filter(|e| e.cat == Cat::Alloc).collect();
        assert_eq!(marks.len(), 1);
        // Markers live on the rank lane (tracecheck: worker lanes are
        // pipe-only), last 1 ns and carry the alloc/ prefix.
        assert_eq!((marks[0].tid, marks[0].dur_ns), (0, 1));
        assert!(marks[0].name.starts_with("alloc/"));
        assert!(r.to_chrome_json().contains("alloc/pooled"));
    }

    #[test]
    fn ring_buffer_drops_oldest() {
        let t = Recorder::with_capacity(1, true, false, None, 4);
        for i in 0..10u64 {
            bare(&t, 0, Cat::Wait, "recv", i * 10, 5, 0);
        }
        let r = t.finish(100).0.unwrap();
        assert_eq!(r.events.len(), 4);
        assert_eq!(r.dropped_events, 6);
        // Oldest dropped: remaining events are the latest four.
        assert_eq!(r.events[0].ts_ns, 60);
        // Counters are unaffected by ring overflow.
        assert_eq!(r.per_rank[0].wait_ns, 50);
    }

    #[test]
    fn recorder_round_trip() {
        let m = Recorder::new(2, false, true, None);
        for i in 0..200u64 {
            m.sample(0, (Metric::E2e, "p2p/send", 1), 4096, i * 10, 100 + i);
            m.sample(1, (Metric::Seal, "seal/plain", 0), 4096, i * 10, 50);
        }
        m.flow_event(1, 0, 9, 3, 500, "nack/tx", 0, || "chunk 2".into());
        let (report, snap) = m.finish(5_000);
        assert!(report.is_none(), "the span sink is off");
        let snap = snap.expect("the distribution sink is on");
        assert_eq!(snap.version, SNAPSHOT_VERSION);
        assert_eq!(snap.n_ranks, 2);
        assert_eq!(snap.ledger_total(Metric::E2e), 200);
        assert_eq!(snap.ledger_total(Metric::Seal), 200);
        let e2e = snap.merged(Metric::E2e, "p2p/");
        assert_eq!(e2e.count(), 200);
        assert!(e2e.p99() >= 100);
        // Checkpoints at count 1, 64, 128, 192.
        let (_, pts) = &snap.series[0];
        assert_eq!(pts.len(), 4);
        assert_eq!(snap.flows.len(), 1);
        assert_eq!(snap.flows[0].last_kind, "nack/tx");
        let bb = m.black_box(1, 0, 9, 3).unwrap();
        assert_eq!((bb.peer, bb.tag, bb.seq), (0, 9, 3));
        assert!(m.black_box(0, 0, 9, 3).is_none());
        assert!(m.flight_tail(1, 4).unwrap().contains("nack/tx"));
    }

    #[test]
    fn one_call_feeds_both_sinks_and_each_sink_alone() {
        // The same call on three recorders: both sinks, spans only,
        // distributions only. A marker keeps 1 ns in the ring while the
        // histogram gets the true 0 ns; a 0 ns wait is sampled but not
        // pushed; a sink that is off records nothing and builds no
        // detail string.
        let key = Some((Metric::Key, "key/revoke", 1));
        for (spans, dists) in [(true, true), (true, false), (false, true)] {
            let r = Recorder::new(2, spans, dists, None);
            let mut built = false;
            let detail = || {
                built = true;
                "rank 1 revoked".to_string()
            };
            r.span(0, Cat::Key, "key/revoke", 700, 0, 0, detail, key);
            assert_eq!(built, spans, "detail is built only for the span sink");
            r.span(
                0,
                Cat::Wait,
                "recv",
                700,
                0,
                0,
                String::new,
                Some((Metric::Wait, "recv", -1)),
            );
            r.count_seal(0, 10, 38);
            r.flow_event(0, 1, 9, 0, 700, "post/plain", 38, String::new);
            let (report, snap) = r.finish(1_000);
            assert_eq!((report.is_some(), snap.is_some()), (spans, dists));
            if let Some(report) = report {
                assert_eq!(report.per_rank[0].revocations, 1);
                assert_eq!(report.per_rank[0].seals, 1);
                assert_eq!(report.events.len(), 1, "the 0 ns wait is not pushed");
                assert_eq!((report.events[0].ts_ns, report.events[0].dur_ns), (700, 1));
            }
            if let Some(snap) = snap {
                assert_eq!(snap.keys.as_ref().unwrap().get("revocations"), 1);
                assert_eq!(snap.ledger_total(Metric::Key), 1);
                assert_eq!(snap.ledger_total(Metric::Wait), 1);
                assert_eq!(snap.merged(Metric::Key, "key/revoke").max(), 0);
                assert_eq!(snap.per_rank[0].flow_events, 1);
            }
        }
    }

    #[test]
    fn event_families_count_under_either_sink_into_their_blocks() {
        // A metered-only recorder: no span is kept, yet every family
        // event counts, the counter-only calls push nothing, and a
        // family with nothing counted renders no block.
        let r = Recorder::new(2, false, true, None);
        bare(&r, 0, Cat::Fault, "fault/drop", 100, 0, 512);
        bare(&r, 1, Cat::Retry, "retry/nack", 200, 0, 16);
        bare(&r, 0, Cat::Retry, "retry/abort", 300, 0, 16);
        bare(&r, 1, Cat::Retry, "retry/backoff", 310, 2_000, 0);
        r.count_nack_received(0);
        r.count_recovery(1);
        for rank in 0..2 {
            bare(&r, rank, Cat::Key, "key/handshake", 0, 0, 0);
        }
        r.count_rekeys(0, 3);
        r.count_rekeys(1, 1);
        r.count_stale_epoch(1);
        r.count_future_epoch(1);
        bare(&r, 0, Cat::Key, "key/reject", 400, 0, 0);
        let (report, snap) = r.finish(1_000);
        assert!(report.is_none(), "the span sink is off");
        let snap = snap.unwrap();
        let chaos = snap.chaos.expect("ARQ events were counted");
        assert_eq!(
            chaos.iter().collect::<Vec<_>>(),
            vec![
                ("faults_injected", 1),
                ("nacks_sent", 1),
                ("nacks_received", 1),
                ("retransmits", 0),
                ("aborts", 1),
                ("recoveries", 1),
                ("backoff_ns", 2_000),
            ]
        );
        let keys = snap.keys.expect("key events were counted");
        assert_eq!(
            keys.iter().collect::<Vec<_>>(),
            vec![
                ("handshakes", 2),
                ("rekeys", 4),
                ("revocations", 0),
                ("rejected_stale", 1),
                ("rejected_future", 1),
                ("rejected_revoked", 1),
            ]
        );
        assert!(snap.ftol.is_none(), "no detector event, no ftol block");
    }

    #[test]
    fn finish_puts_the_slo_verdict_into_the_report_it_returns() {
        // An impossible budget: the violation and the verdict must be
        // in the very report `finish` hands back, at the end time.
        let cfg = SloConfig::new().p99("p2p/", 1);
        let r = Recorder::new(2, true, true, Some(cfg));
        r.sample(1, (Metric::E2e, "p2p/recv", 0), 64, 400, 250);
        let (report, snap) = r.finish(900);
        let (report, snap) = (report.unwrap(), snap.unwrap());
        assert_eq!(snap.slo.verdict(), "violated");
        let health: Vec<_> = report
            .events
            .iter()
            .filter(|e| e.cat == Cat::Health)
            .map(|e| (e.name.as_str(), e.ts_ns, e.tid))
            .collect();
        assert_eq!(
            health,
            vec![("health/p99-budget", 900, 0), ("health/verdict", 900, 0)]
        );
    }
}
