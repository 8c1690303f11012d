//! Deterministic fault injection + NACK-driven recovery (ARQ).
//!
//! Scope: the fault plan applies to every *encrypted point-to-point
//! wire message* — the p2p API and the pipelined collective hops
//! (which are built from the same sends). Sequential collectives move
//! their ciphertext through the plaintext transport's collectives and
//! are out of the injection surface, as are the NACK control frames
//! (modeled as tiny FEC-protected datagrams). Repair messages DO cross
//! the faulty link and draw fresh verdicts per attempt.

use std::cell::{Cell, RefCell};
use std::collections::{HashMap, VecDeque};

use bytes::Bytes;
use empi_mpi::chunk::{ChunkFrame, ChunkedMessage};
use empi_mpi::ctrl::{pack_frames, unpack_frames};
use empi_mpi::{Comm, Nack, RepairHeader, RepairKind, Src, Status, Tag, TagSel, NACK_TAG, REPAIR_TAG};
use empi_netsim::{FaultPlan, VDur, VTime, Verdict};
use empi_trace::{BlackBox, Cat, Metric};

use super::{note_sample, note_span, SecureComm};
use crate::config::{RetransmitConfig, SecurityConfig};
use crate::error::{Error, Result};
use crate::recovery::{Salvage, SalvageResult};

/// Virtual-time quantum of the repair-wait poll loops: only the
/// recovery path spins on this (the normal data path always blocks on
/// a wake condition); 500 ns keeps the deadline resolution far below
/// any realistic retransmit timeout.
pub(super) const POLL_QUANTUM: VDur = VDur(500);

/// Backoff cap: repair round `a` waits `timeout * 2^min(a, CAP)`.
const BACKOFF_CAP_SHIFT: u32 = 3;

/// Counters of the fault-injection/retransmit machinery. Always
/// maintained (trace feature or not) so the chaos bench can read
/// goodput and retransmit counts without parsing traces; all zeros
/// while faults and retransmit are disabled.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ChaosStats {
    /// Fault verdicts applied to outgoing frames (including jitter and
    /// degraded-worker setup).
    pub faults_injected: u64,
    /// NACKs this rank sent (as a receiver asking for repair).
    pub nacks_sent: u64,
    /// NACKs this rank received (as a sender asked to repair).
    pub nacks_received: u64,
    /// Repair messages this rank retransmitted.
    pub retransmits: u64,
    /// Abort repairs sent (NACK for an evicted/unknown message).
    pub aborts: u64,
    /// Messages fully recovered after at least one failed delivery.
    pub recoveries: u64,
    /// Virtual nanoseconds this rank spent waiting for repairs.
    pub backoff_ns: u64,
}

impl ChaosStats {
    /// The counters as a named block in export order, for harness
    /// injection into `empi_trace::MetricsSnapshot::chaos`.
    pub fn counters(&self) -> [(&'static str, u64); 7] {
        [
            ("faults_injected", self.faults_injected),
            ("nacks_sent", self.nacks_sent),
            ("nacks_received", self.nacks_received),
            ("retransmits", self.retransmits),
            ("aborts", self.aborts),
            ("recoveries", self.recoveries),
            ("backoff_ns", self.backoff_ns),
        ]
    }
}

/// Sender-retained copy of one sealed message, kept pre-corruption so
/// a repair always carries honest bytes.
enum SentPayload {
    Plain(Vec<u8>),
    Chunked(Vec<Bytes>),
}

struct SentRecord {
    dst: usize,
    tag: Tag,
    seq: u64,
    payload: SentPayload,
}

/// Retransmit-layer state (active only with
/// [`SecurityConfig::with_retransmit`]).
struct ArqState {
    cfg: RetransmitConfig,
    /// Bounded FIFO of retained sent messages (repair source).
    sent: RefCell<VecDeque<SentRecord>>,
}

/// Per-(peer, tag) message counters.
type FlowSeqs = RefCell<HashMap<(usize, Tag), u64>>;

/// One message's recovery identity: `(peer, tag, seq)`.
pub(super) type Flow = (usize, Tag, u64);

/// Everything the chaos machinery knows: the fault plan, the
/// retransmit retention, the per-flow sequence counters that are the
/// recovery identity, and the counters.
pub(super) struct Reliability<'a, 'h> {
    comm: &'a Comm<'h>,
    /// Seeded fault plan (None = clean links, the default).
    plan: Option<FaultPlan>,
    /// Retransmit layer (None = faults surface as typed errors).
    arq: Option<ArqState>,
    /// Outgoing message counters — the recovery identity and the
    /// fault-stream coordinate. Only touched when the machinery is on.
    send_seq: FlowSeqs,
    /// Incoming message counters (MPI non-overtaking keeps them
    /// aligned with the sender's).
    recv_seq: FlowSeqs,
    stats: Cell<ChaosStats>,
}

impl<'a, 'h> Reliability<'a, 'h> {
    pub(super) fn new(comm: &'a Comm<'h>, cfg: &SecurityConfig) -> Self {
        let rel = Reliability {
            comm,
            plan: cfg.faults.map(|f| FaultPlan::new(f.seed, f.rates)),
            arq: cfg.retransmit.map(|rc| ArqState {
                cfg: rc,
                sent: RefCell::new(VecDeque::new()),
            }),
            send_seq: RefCell::default(),
            recv_seq: RefCell::default(),
            stats: Cell::default(),
        };
        if let Some(p) = &rel.plan {
            // Degrade the seeded subset of this rank's crypto workers
            // once, up front (CorePool::degrade keeps the max factor,
            // so repeated SecureComm construction is idempotent).
            let workers = cfg.pipeline.workers.max(1);
            let degraded = p.degraded_workers(comm.rank(), workers);
            if !degraded.is_empty() {
                comm.sim().with_core_pool(workers, |pool| {
                    for &(w, factor) in &degraded {
                        pool.degrade(w, factor);
                    }
                });
                let now = comm.sim().now().as_nanos();
                for &(w, factor) in &degraded {
                    rel.bump(|s| s.faults_injected += 1);
                    let detail = || format!("worker {w} slowed {factor}x");
                    note_span(comm, Cat::Fault, "fault/degrade", now, 0, detail, None);
                }
            }
        }
        rel
    }

    /// Is any chaos machinery (faults or retransmit) active?
    pub(super) fn on(&self) -> bool {
        self.plan.is_some() || self.arq.is_some()
    }

    /// Is the retransmit layer active?
    pub(super) fn arq_on(&self) -> bool {
        self.arq.is_some()
    }

    pub(super) fn stats(&self) -> ChaosStats {
        self.stats.get()
    }

    fn bump(&self, f: impl FnOnce(&mut ChaosStats)) {
        let mut s = self.stats.get();
        f(&mut s);
        self.stats.set(s);
    }

    /// Worst-case total repair-wait budget of one message: the sum of
    /// the capped backoff schedule.
    pub(super) fn recovery_window(&self) -> VDur {
        let Some(a) = &self.arq else { return VDur(0) };
        let rounds = 0..=a.cfg.max_retries;
        VDur(rounds.fold(0u64, |total, attempt| {
            total.saturating_add(a.cfg.timeout.0 << attempt.min(BACKOFF_CAP_SHIFT))
        }))
    }

    /// Draw-and-advance a per-(peer, tag) message counter.
    fn bump_seq(map: &FlowSeqs, peer: usize, tag: Tag) -> u64 {
        let mut m = map.borrow_mut();
        let e = m.entry((peer, tag)).or_insert(0);
        let v = *e;
        *e += 1;
        v
    }

    /// The recovery identity of the next message received on `(src, tag)`.
    pub(super) fn next_recv_seq(&self, src: usize, tag: Tag) -> u64 {
        Self::bump_seq(&self.recv_seq, src, tag)
    }

    /// Per-(link, tag, message) fault stream id.
    fn stream_id(tag: Tag, seq: u64) -> u64 {
        (u64::from(tag) << 32) ^ (seq & 0xffff_ffff)
    }

    fn now_ns(&self) -> u64 {
        self.comm.sim().now().as_nanos()
    }

    /// Record one injection: counter plus a `fault/*` trace span.
    fn note_fault(&self, v: &Verdict, bytes: usize, dur_ns: u64, detail: String) {
        self.bump(|s| s.faults_injected += 1);
        if let Some(t) = self.comm.sim().recorder() {
            let (me, now) = (self.comm.rank(), self.now_ns());
            t.span(me, Cat::Fault, v.label(), now, dur_ns, bytes, || detail, None);
        }
    }

    /// Record recovery-protocol activity (`retry/*` trace span).
    fn note_retry(&self, label: &'static str, dur_ns: u64, bytes: usize, detail: String) {
        if let Some(t) = self.comm.sim().recorder() {
            let (me, start) = (self.comm.rank(), self.now_ns().saturating_sub(dur_ns));
            t.span(me, Cat::Retry, label, start, dur_ns, bytes, || detail, None);
        }
    }

    /// Flight-recorder event on flow `(peer, tag, seq)`. The detail
    /// string is only built when the distribution sink records it.
    fn note_flow(
        &self,
        (peer, tag, seq): Flow,
        kind: &'static str,
        bytes: usize,
        detail: impl FnOnce() -> String,
    ) {
        if let Some(m) = self.comm.sim().recorder() {
            let me = self.comm.rank();
            m.flow_event(me, peer, tag, seq, self.now_ns(), kind, bytes, detail);
        }
    }

    /// Black-box report for a failing flow, boxed for error embedding.
    fn black_box_for(&self, (peer, tag, seq): Flow) -> Option<Box<BlackBox>> {
        let m = self.comm.sim().recorder()?;
        m.black_box(self.comm.rank(), peer, tag, seq).map(Box::new)
    }

    // ---------------------------------------------------------------
    // Sender side: sequence, retain, inject
    // ---------------------------------------------------------------

    /// Apply the fault plan to one outgoing plain wire buffer.
    /// `Duplicate` maps to `Deliver` here: a duplicated *plain* message
    /// would desync the per-flow sequence counters the recovery
    /// identity rests on, so duplication is a chunk-level fault only.
    /// `Drop` clears the buffer but the (empty) message still crosses
    /// the wire — every transmission delivers *something*, which is
    /// what keeps the receiver's blocking waits live.
    fn inject_wire(
        &self,
        wire: &mut Vec<u8>,
        (dst, tag, seq): Flow,
        index: u32,
        attempt: u32,
    ) {
        let Some(plan) = &self.plan else { return };
        let stream = Self::stream_id(tag, seq);
        let v = plan.verdict(self.comm.rank(), dst, stream, index, attempt, wire.len());
        match v {
            Verdict::Deliver | Verdict::Duplicate => {}
            Verdict::Jitter { extra_ns } => {
                self.note_fault(&v, wire.len(), extra_ns, format!("tag {tag} seq {seq}"));
                self.comm.sim().advance(VDur(extra_ns));
            }
            _ => {
                v.mutate(wire);
                self.note_fault(&v, wire.len(), 1, format!("tag {tag} seq {seq}"));
            }
        }
    }

    /// Apply the fault plan to an outgoing chunked frame train, one
    /// verdict per chunk. Drops remove the frame (keeping one
    /// zero-length runt if everything dropped, so the train still
    /// crosses the wire and recovery can engage); duplicates append a
    /// copy; jitter delays one frame's NIC-ready time.
    fn inject_frames(&self, frames: &mut Vec<ChunkFrame>, (dst, tag, seq): Flow) {
        let Some(plan) = &self.plan else { return };
        let stream = Self::stream_id(tag, seq);
        let mut out: Vec<ChunkFrame> = Vec::with_capacity(frames.len());
        for (i, f) in frames.drain(..).enumerate() {
            let v = plan.verdict(self.comm.rank(), dst, stream, i as u32, 0, f.data.len());
            let detail = || format!("tag {tag} seq {seq} chunk {i}");
            match v {
                Verdict::Deliver => out.push(f),
                Verdict::Duplicate => {
                    self.note_fault(&v, f.data.len(), 1, detail());
                    out.push(f.clone());
                    out.push(f);
                }
                Verdict::Jitter { extra_ns } => {
                    self.note_fault(&v, f.data.len(), extra_ns, detail());
                    out.push(ChunkFrame {
                        data: f.data,
                        ready: f.ready + VDur(extra_ns),
                    });
                }
                Verdict::Drop => self.note_fault(&v, f.data.len(), 1, detail()),
                Verdict::BitFlip { .. } | Verdict::Truncate { .. } => {
                    // Required copy: the frame buffer may be shared with
                    // the ARQ retention (which must keep pristine bytes),
                    // so corruption happens on a private copy.
                    let mut data = f.data.to_vec();
                    v.mutate(&mut data);
                    self.note_fault(&v, data.len(), 1, detail());
                    out.push(ChunkFrame {
                        data: Bytes::from(data),
                        ready: f.ready,
                    });
                }
            }
        }
        if out.is_empty() {
            out.push(ChunkFrame {
                data: Bytes::new(),
                ready: self.comm.sim().now(),
            });
        }
        *frames = out;
    }

    /// Retain a pre-corruption copy of a sealed message for repair
    /// (bounded FIFO; eviction means a later NACK gets an abort).
    fn retain_sent(&self, (dst, tag, seq): Flow, make: impl FnOnce() -> SentPayload) {
        let Some(arq) = &self.arq else { return };
        let mut sent = arq.sent.borrow_mut();
        while sent.len() >= arq.cfg.buffer_msgs.max(1) {
            if let Some(old) = sent.pop_front() {
                // A later NACK for this flow now gets an abort.
                self.note_flow((old.dst, old.tag, old.seq), "retire", 0, || {
                    "evicted from retention".into()
                });
            }
        }
        sent.push_back(SentRecord {
            dst,
            tag,
            seq,
            payload: make(),
        });
    }

    /// Outbound bookkeeping for one plain sealed record: assign the
    /// flow sequence number, retain the pristine wire bytes for
    /// repair, then run the initial transmission through the fault
    /// plan. Shared by the blocking and non-blocking send paths; a
    /// no-op while the machinery is off.
    pub(super) fn prepare_wire(&self, wire: &mut Vec<u8>, dst: usize, tag: Tag) {
        if !self.on() {
            return;
        }
        let flow = (dst, tag, Self::bump_seq(&self.send_seq, dst, tag));
        self.note_flow(flow, "post/plain", wire.len(), || {
            format!("initial tx -> rank {dst}")
        });
        // Required copy: the retransmit buffer must hold the pristine
        // sealed bytes while injection may corrupt `wire` in place.
        self.retain_sent(flow, || SentPayload::Plain(wire.clone()));
        self.inject_wire(wire, flow, 0, 0);
    }

    /// Outbound bookkeeping for a chunked frame train — the per-frame
    /// counterpart of [`Self::prepare_wire`].
    pub(super) fn prepare_frames(&self, frames: &mut Vec<ChunkFrame>, dst: usize, tag: Tag) {
        if !self.on() {
            return;
        }
        let flow = (dst, tag, Self::bump_seq(&self.send_seq, dst, tag));
        let wire: usize = frames.iter().map(|f| f.data.len()).sum();
        self.note_flow(flow, "post/chunked", wire, || {
            format!("{} frames -> rank {dst}", frames.len())
        });
        self.retain_sent(flow, || {
            SentPayload::Chunked(frames.iter().map(|f| f.data.clone()).collect())
        });
        self.inject_frames(frames, flow);
    }

    /// Answer every pending NACK from the retained-frame buffer — a
    /// repair for a retained flow, an abort for an evicted/unknown one.
    /// Repair sends are fire-and-forget (the receiver's NACK loop is
    /// the flow control; an unanswered or lost repair is re-NACKed).
    pub(super) fn service_nacks(&self) {
        let Some(arq) = &self.arq else { return };
        while let Some(st) = self.comm.iprobe(Src::Any, TagSel::Is(NACK_TAG)) {
            let (_, raw) = self.comm.recv(Src::Is(st.source), TagSel::Is(NACK_TAG));
            self.bump(|s| s.nacks_received += 1);
            let Some(nack) = Nack::decode(&raw) else {
                continue; // structurally invalid: drop, peer re-NACKs
            };
            let (tag, seq, attempt) = nack.flow();
            let (peer, flow) = (st.source, (st.source, tag, seq));
            self.note_flow(flow, "nack/rx", raw.len(), || {
                format!("attempt {attempt} from rank {peer}")
            });
            let (kind, body) = {
                let sent = arq.sent.borrow();
                match sent
                    .iter()
                    .find(|r| r.dst == peer && r.tag == tag && r.seq == seq)
                {
                    None => (RepairKind::Abort, Vec::new()),
                    Some(rec) => match &rec.payload {
                        SentPayload::Plain(wire) => (RepairKind::Plain, wire.clone()),
                        SentPayload::Chunked(frames) => {
                            let picked: Vec<&[u8]> = match &nack {
                                Nack::Chunks { missing, .. } => missing
                                    .iter()
                                    .filter_map(|&i| frames.get(i as usize).map(|b| &b[..]))
                                    .collect(),
                                Nack::Whole { .. } => frames.iter().map(|b| &b[..]).collect(),
                            };
                            (RepairKind::Chunks, pack_frames(picked))
                        }
                    },
                }
            };
            let hdr = RepairHeader {
                kind,
                tag,
                seq,
                attempt,
            };
            let mut repair = hdr.encode_with(&body);
            if kind == RepairKind::Abort {
                self.bump(|s| s.aborts += 1);
                self.note_flow(flow, "abort/tx", repair.len(), || {
                    format!("flow not retained; abort -> rank {peer}")
                });
                let detail = format!("tag {tag} seq {seq} -> rank {peer}");
                self.note_retry("retry/abort", 1, repair.len(), detail);
            } else {
                self.bump(|s| s.retransmits += 1);
                // The repair rides the same faulty link and draws one
                // whole-blob verdict per attempt (chunk coordinate
                // u32::MAX marks repair traffic). Header corruption or
                // loss is healed by the receiver's next NACK round.
                self.inject_wire(&mut repair, flow, u32::MAX, attempt + 1);
                self.note_flow(flow, "repair/tx", repair.len(), || {
                    format!("attempt {attempt} -> rank {peer}")
                });
                let detail = format!("tag {tag} seq {seq} attempt {attempt} -> rank {peer}");
                self.note_retry("retry/resend", 1, repair.len(), detail);
            }
            let _ = self.comm.isend(&repair, peer, REPAIR_TAG);
        }
    }

    // ---------------------------------------------------------------
    // Receiver side: salvage, NACK, repair-wait
    // ---------------------------------------------------------------

    /// One salvage attempt, charged like any other decryption (the
    /// trial opens push the pending sealed records through AES-GCM).
    fn salvage_pass(&self, sc: &SecureComm<'_, '_>, salvage: &mut Salvage) -> SalvageResult {
        // Under the key plane the frames carry their epoch in the
        // message id; resolve it to the matching group key. A wrong
        // guess just fails auth and NACKs — no typed gate here.
        let epoch = sc.chunked_epoch(salvage.candidate_msg_id());
        let ctx = sc.keys.ctx(epoch);
        match salvage.pending_bytes() {
            0 => salvage.try_open(&ctx.cipher),
            bytes => sc.run_crypto(bytes, "open", None, || salvage.try_open(&ctx.cipher)),
        }
    }

    /// Close one repair-wait round that began at `t0`: trace the
    /// backoff, add it to the stats, return the nanoseconds waited.
    fn end_backoff(&self, t0: VTime, (_, tag, seq): Flow) -> u64 {
        let waited = (self.comm.sim().now() - t0).0;
        self.note_retry("retry/backoff", waited, 0, format!("tag {tag} seq {seq}"));
        self.bump(|s| s.backoff_ns += waited);
        waited
    }

    /// A message that authenticated after at least one failed delivery.
    fn recovered(
        &self,
        flow: Flow,
        t_enter: u64,
        plain: Vec<u8>,
        how: impl FnOnce() -> String,
    ) -> (Status, Vec<u8>) {
        let (source, tag, _) = flow;
        let len = plain.len();
        self.bump(|s| s.recoveries += 1);
        self.note_flow(flow, "recover/ok", len, how);
        note_sample(self.comm, (Metric::Repair, "arq/repair", source as i32), len, t_enter);
        (Status { source, tag, len }, plain)
    }

    /// A flow the repair protocol gave up on, with its black box.
    fn delivery_failed(
        &self,
        flow: Flow,
        t_enter: u64,
        attempts: u32,
        ledger: Vec<String>,
        kind: &'static str,
        why: String,
    ) -> Error {
        self.note_flow(flow, kind, 0, || why);
        note_sample(self.comm, (Metric::Repair, "arq/fail", flow.0 as i32), 0, t_enter);
        Error::DeliveryFailed {
            attempts,
            ledger,
            black_box: self.black_box_for(flow),
        }
    }

    /// Receiver-side recovery of one failed message: salvage what
    /// arrived, then run NACK → repair-wait rounds with capped
    /// exponential backoff until the plaintext authenticates or the
    /// retry budget is spent. Never panics and never blocks without a
    /// deadline — exhaustion surfaces as [`Error::DeliveryFailed`]
    /// (repairs arrived but never authenticated / sender aborted) or
    /// [`Error::Timeout`] (no repair ever arrived).
    pub(super) fn recover(
        &self,
        sc: &SecureComm<'_, '_>,
        flow: Flow,
        arrived: Option<ChunkedMessage>,
        first_err: Error,
    ) -> Result<(Status, Vec<u8>)> {
        let (src, tag, seq) = flow;
        let arq = self.arq.as_ref();
        let rc = arq.expect("recover needs the retransmit layer").cfg;
        let t_enter = self.now_ns();
        let mut ledger = vec![format!("initial delivery: {first_err}")];
        self.note_flow(flow, "recover/start", 0, || format!("{first_err}"));
        let mut salvage = Salvage::new();
        // What to ask for: `Some(indices)` → per-chunk NACK, `None` →
        // whole-message NACK (plain wire, or nothing salvageable yet).
        let mut missing: Option<Vec<u32>> = None;
        if let Some(msg) = arrived {
            salvage.merge(msg.frames.iter().map(|(_, b)| &b[..]));
            // Pure duplication/reordering and nonce-field corruption
            // salvage without any wire traffic.
            match self.salvage_pass(sc, &mut salvage) {
                SalvageResult::Done(plain) => {
                    return Ok(self.recovered(flow, t_enter, plain, || {
                        "salvaged without wire traffic".into()
                    }));
                }
                SalvageResult::Missing(m) => {
                    self.note_flow(flow, "salvage", 0, || format!("missing chunks {m:?}"));
                    ledger.push(format!("salvaged all but chunks {m:?}"));
                    missing = Some(m);
                }
                SalvageResult::Opaque => {}
            }
        }
        let mut waited_ns = 0u64;
        let mut repair_seen = false;
        for attempt in 0..=rc.max_retries {
            let nack = match &missing {
                Some(m) => Nack::Chunks {
                    tag,
                    seq,
                    attempt,
                    missing: m.clone(),
                },
                None => Nack::Whole { tag, seq, attempt },
            };
            let wire = nack.encode();
            // Control frames are exempt from injection (tiny
            // FEC-protected datagrams in the fault model).
            let _ = self.comm.isend(&wire, src, NACK_TAG);
            self.bump(|s| s.nacks_sent += 1);
            self.note_flow(flow, "nack/tx", wire.len(), || {
                format!("attempt {attempt} -> rank {src}")
            });
            let detail = format!("tag {tag} seq {seq} attempt {attempt} -> rank {src}");
            self.note_retry("retry/nack", 1, wire.len(), detail);
            // Capped exponential backoff: round `a` waits
            // timeout * 2^min(a, 3) of virtual time for the repair.
            let shift = attempt.min(BACKOFF_CAP_SHIFT);
            let window = VDur(rc.timeout.0.saturating_mul(1u64 << shift));
            let t0 = self.comm.sim().now();
            let deadline = t0 + window;
            'wait: while self.comm.sim().now() < deadline {
                // We may owe repairs to our own peers meanwhile.
                self.service_nacks();
                // A dead sender can never repair: once the failure
                // detector confirms it, resolve the flow as a typed
                // delivery failure (black box attached) instead of
                // waiting out the whole backoff schedule, and burn the
                // corpse's key material.
                if self.comm.ftol_enabled() {
                    if let Some(rf) = self.comm.ft_probe(src) {
                        let _ = sc.handle_rank_failure(rf.rank);
                        ledger.push(format!(
                            "attempt {attempt}: sender rank {src} confirmed dead \
                             (liveness epoch {}); flow unrecoverable",
                            rf.epoch
                        ));
                        let why = format!("rank {src} dead at epoch {}", rf.epoch);
                        return Err(self.delivery_failed(
                            flow,
                            t_enter,
                            attempt + 1,
                            ledger,
                            "recover/peer-dead",
                            why,
                        ));
                    }
                }
                if self
                    .comm
                    .iprobe(Src::Is(src), TagSel::Is(REPAIR_TAG))
                    .is_none()
                {
                    self.comm.sim().advance(POLL_QUANTUM);
                    continue;
                }
                let (_, raw) = self.comm.recv(Src::Is(src), TagSel::Is(REPAIR_TAG));
                let Some((hdr, body)) = RepairHeader::decode(&raw) else {
                    ledger.push(format!("attempt {attempt}: undecodable repair frame"));
                    continue; // corrupted in flight; keep waiting
                };
                if hdr.tag != tag || hdr.seq != seq {
                    continue; // stale repair for an earlier flow
                }
                repair_seen = true;
                self.note_flow(flow, "repair/rx", raw.len(), || {
                    format!("attempt {attempt} from rank {src}")
                });
                match hdr.kind {
                    RepairKind::Abort => {
                        self.end_backoff(t0, flow);
                        ledger.push(format!(
                            "attempt {attempt}: sender aborted (message no longer retained)"
                        ));
                        return Err(self.delivery_failed(
                            flow,
                            t_enter,
                            attempt + 1,
                            ledger,
                            "recover/abort",
                            "sender aborted".into(),
                        ));
                    }
                    RepairKind::Plain => match sc.open_to_vec(Some(src), body) {
                        Ok(plain) => {
                            self.end_backoff(t0, flow);
                            return Ok(self.recovered(flow, t_enter, plain, || {
                                format!("plain repair, attempt {attempt}")
                            }));
                        }
                        Err(e) => {
                            ledger.push(format!("attempt {attempt}: repair failed to open: {e}"));
                            break 'wait; // re-NACK with the next attempt
                        }
                    },
                    RepairKind::Chunks => {
                        let Some(frames) = unpack_frames(body) else {
                            ledger.push(format!("attempt {attempt}: malformed repair train"));
                            break 'wait;
                        };
                        salvage.merge(frames);
                        match self.salvage_pass(sc, &mut salvage) {
                            SalvageResult::Done(plain) => {
                                self.end_backoff(t0, flow);
                                return Ok(self.recovered(flow, t_enter, plain, || {
                                    format!("chunk repair, attempt {attempt}")
                                }));
                            }
                            SalvageResult::Missing(m) => {
                                ledger.push(format!(
                                    "attempt {attempt}: repair left chunks {m:?} missing"
                                ));
                                missing = Some(m);
                                break 'wait;
                            }
                            SalvageResult::Opaque => {
                                ledger.push(format!("attempt {attempt}: repair unusable"));
                                missing = None;
                                break 'wait;
                            }
                        }
                    }
                }
            }
            waited_ns += self.end_backoff(t0, flow);
        }
        if repair_seen {
            return Err(self.delivery_failed(
                flow,
                t_enter,
                rc.max_retries + 1,
                ledger,
                "recover/abort",
                "repair budget exhausted".into(),
            ));
        }
        ledger.push(format!("no repair within {waited_ns} ns"));
        self.note_flow(flow, "recover/timeout", 0, || {
            format!("no repair within {waited_ns} ns")
        });
        note_sample(self.comm, (Metric::Repair, "arq/fail", src as i32), 0, t_enter);
        Err(Error::Timeout {
            waited_ns,
            op: "recv",
            black_box: self.black_box_for(flow),
        })
    }
}
