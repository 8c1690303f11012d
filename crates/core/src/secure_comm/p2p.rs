//! Point-to-point (Encrypted_Send / Recv / ISend / IRecv / Wait and the
//! set waits), written over the record layer and the reliability state.

use bytes::Bytes;
use empi_mpi::chunk::{ChunkFrame, RecvPayload, SendPayload};
use empi_mpi::{Charge, Request, SetPoll, Src, Status, Tag, TagSel, NACK_TAG};
use empi_netsim::VDur;
use empi_trace::Metric;

use super::reliability::{ChaosStats, POLL_QUANTUM};
use super::{note_sample, SecureComm};
use crate::error::Result;

/// Handle to an outstanding encrypted non-blocking operation.
///
/// Produced by [`SecureComm::isend`]/[`SecureComm::irecv`]; resolve with
/// [`SecureComm::wait`] (which decrypts receives).
#[must_use = "secure requests must be waited on"]
pub struct SecureRequest {
    inner: Request,
    /// Recovery sequence number pre-assigned at `irecv`-post time for
    /// fully-qualified `(Is, Is)` posts, so out-of-order waits still
    /// pair each message with the sender's counter. `None` for sends
    /// and wildcard receives (the latter draw their number at
    /// completion — see [`SecureComm::irecv`]).
    recv_seq_hint: Option<u64>,
}

/// One retired set-completion: `(index at call time, status, plaintext
/// for receives)` — the element type of [`SecureComm::waitsome`] /
/// [`SecureComm::testany`] results.
pub type SetCompletion = (usize, Status, Option<Vec<u8>>);

/// What a wait hands back: the status, and the plaintext of a receive.
type Completion = (Status, Option<Vec<u8>>);

/// Move a request set into the poller's slots, keeping the hints.
fn into_slots(reqs: &mut Vec<SecureRequest>) -> (Vec<Option<Request>>, Vec<Option<u64>>) {
    let hints = reqs.iter().map(|r| r.recv_seq_hint).collect();
    let slots = reqs.drain(..).map(|r| Some(r.inner)).collect();
    (slots, hints)
}

/// Hand the still-outstanding requests back to the caller, in order.
/// Done before any payload is opened: recovery can fail, and the caller
/// keeps its outstanding requests either way.
fn restore(reqs: &mut Vec<SecureRequest>, slots: Vec<Option<Request>>, hints: &[Option<u64>]) {
    reqs.extend(slots.into_iter().zip(hints).filter_map(|(slot, &hint)| {
        slot.map(|inner| SecureRequest {
            inner,
            recv_seq_hint: hint,
        })
    }));
}

impl SecureComm<'_, '_> {
    // ---------------------------------------------------------------
    // Reliability surface
    // ---------------------------------------------------------------

    /// Counters of the fault/retransmit machinery (all zeros while it
    /// is disabled; available without the trace feature).
    pub fn chaos_stats(&self) -> ChaosStats {
        self.rel.stats()
    }

    /// Worst-case total repair-wait budget of one message under the
    /// current config — the sum of the capped backoff schedule. A good
    /// [`SecureComm::pump`] window for end-of-phase quiescence.
    pub fn recovery_window(&self) -> VDur {
        self.rel.recovery_window()
    }

    /// Service peers' repair requests for `window` of virtual time.
    ///
    /// The recovery protocol is NACK-only — there is no positive
    /// acknowledgment — so a sender's availability bounds its peers'
    /// repair horizon. A rank that stops communicating while peers may
    /// still be recovering messages it sent (e.g. after the last send
    /// of a benchmark phase) should pump for roughly
    /// [`SecureComm::recovery_window`] before falling silent. No-op
    /// without the retransmit layer.
    pub fn pump(&self, window: VDur) {
        if !self.rel.arq_on() {
            return;
        }
        let deadline = self.comm.sim().now() + window;
        while self.comm.sim().now() < deadline {
            self.rel.service_nacks();
            self.comm.sim().advance(POLL_QUANTUM);
        }
        self.rel.service_nacks();
    }

    /// The control-aware set-completion poller every encrypted wait
    /// runs on: drive the transport's completion funnel
    /// ([`empi_mpi::Comm::poll_set`]) over `slots`, servicing NACKs
    /// whenever a control frame becomes available strictly before a
    /// completion (ties prefer data). With ARQ off the control filter
    /// is absent and this is a plain set poll. Never returns
    /// [`SetPoll::Ctrl`] — control frames are consumed here, in exactly
    /// one place, so the single-request and set waits cannot diverge on
    /// control-plane behavior.
    fn set_poll(&self, slots: &mut [Option<Request>], block: bool) -> SetPoll {
        let ctrl = self.rel.arq_on().then_some((Src::Any, TagSel::Is(NACK_TAG)));
        loop {
            match self.comm.poll_set(slots, ctrl, block) {
                SetPoll::Ctrl => self.rel.service_nacks(),
                other => return other,
            }
        }
    }

    /// Open one received payload through the sender's wire format,
    /// recovering via ARQ when that fails. `hint` is the flow sequence
    /// drawn at post time (fully-specified receives under chaos);
    /// everything else draws it here, at completion.
    fn open_or_recover(&self, payload: RecvPayload, hint: Option<u64>) -> Result<(Status, Vec<u8>)> {
        if !self.rel.on() {
            return self.open_payload(payload).map_err(|(e, _)| e);
        }
        let (src, tag) = match &payload {
            RecvPayload::Plain(st, _) => (st.source, st.tag),
            RecvPayload::Chunked(msg) => (msg.src, msg.tag),
        };
        let seq = hint.unwrap_or_else(|| self.rel.next_recv_seq(src, tag));
        match self.open_payload(payload) {
            Ok(out) => Ok(out),
            Err((e, arrived)) if self.rel.arq_on() => {
                self.rel.recover(self, (src, tag, seq), arrived, e)
            }
            Err((e, _)) => Err(e),
        }
    }

    /// [`Self::open_or_recover`] for a completed request (sends carry
    /// no payload).
    fn open_completion(
        &self,
        status: Status,
        payload: Option<RecvPayload>,
        hint: Option<u64>,
    ) -> Result<Completion> {
        match payload {
            None => Ok((status, None)),
            Some(p) => self
                .open_or_recover(p, hint)
                .map(|(status, plain)| (status, Some(plain))),
        }
    }

    /// End-to-end sample for an op whose peer and size are only known
    /// from its outcome (peer −1 and zero bytes on error).
    fn note_outcome(&self, op: &'static str, t0: u64, done: Option<(&Status, usize)>) {
        let (peer, bytes) = done.map_or((-1, 0), |(st, n)| (st.source as i32, n));
        note_sample(self.comm, (Metric::E2e, op, peer), bytes, t0);
    }

    /// [`Self::note_outcome`] for one wait-shaped completion.
    fn note_completion(&self, op: &'static str, t0: u64, out: &Result<Completion>) {
        let done = out.as_ref().ok();
        self.note_outcome(op, t0, done.map(|(st, data)| (st, data.as_ref().map_or(0, Vec::len))));
    }

    // ---------------------------------------------------------------
    // Send / Recv
    // ---------------------------------------------------------------

    /// Seal `buf` for `dst`: with pipelining enabled and a message
    /// larger than one chunk, as a chunked frame train sealed on the
    /// worker-core pool; otherwise as the one plain record of
    /// Algorithm 1. With the chaos machinery active the sealed message
    /// is also sequenced, retained for repair and run through the fault
    /// plan.
    fn seal_msg(&self, buf: &[u8], dst: usize, tag: Tag) -> SendPayload {
        if self.pipe.applies_to(buf.len()) {
            let mut frames = self.seal_chunked_frames(buf, Some(dst));
            self.rel.prepare_frames(&mut frames, dst, tag);
            SendPayload::Chunked(frames)
        } else {
            let mut wire = self.seal_wire(buf, Some(dst));
            self.rel.prepare_wire(&mut wire, dst, tag);
            SendPayload::Plain(Bytes::from(wire))
        }
    }

    /// Encrypted blocking send. With pipelining enabled and a message
    /// larger than one chunk, takes the chunked multi-core offload path;
    /// otherwise the sequential seal-then-send of Algorithm 1 (the two
    /// are behavior-identical for single-chunk messages).
    ///
    /// With the chaos machinery active the blocking send runs as a
    /// posted send + a NACK-serving wait, so a sender parked in
    /// rendezvous still answers its peers' repair requests.
    pub fn send(&self, buf: &[u8], dst: usize, tag: Tag) {
        self.op_span("p2p/send", dst as i32, buf.len(), || {
            // Clean or armed, the send carries the same *blocking-send*
            // host accounting — routing the armed path through `isend`
            // would charge the streaming host occupancy and make an
            // armed-but-idle fault/retransmit layer look ~2x slower than
            // the clean send. Only the wait differs: the posted request
            // lets the ARQ wait keep answering NACKs while the
            // rendezvous drains (two mutually-recovering ranks would
            // otherwise deadlock).
            let sealed = self.seal_msg(buf, dst, tag);
            let req = self.comm.post(sealed, dst, tag, Charge::Blocking);
            if !self.rel.on() {
                self.comm.wait_sent(req);
            } else if self.rel.arq_on() {
                let _ = self.set_poll(&mut [Some(req)], true);
            } else {
                let _ = self.comm.wait_payload(req);
            }
        });
    }

    /// Encrypted blocking receive. Dispatches on the sender's wire
    /// format *unconditionally*: plain records are opened sequentially,
    /// chunked (pipelined) trains are reassembled and opened on the
    /// worker pool — even when this rank's own pipeline config is
    /// disabled. Mixed sender/receiver configurations therefore always
    /// interoperate.
    pub fn recv(&self, src: Src, tag: TagSel) -> Result<(Status, Vec<u8>)> {
        let t0 = self.comm.sim().now().as_nanos();
        let out = self.recv_impl(src, tag);
        let done = out.as_ref().ok();
        self.note_outcome("p2p/recv", t0, done.map(|(st, data)| (st, data.len())));
        out
    }

    pub(super) fn recv_impl(&self, src: Src, tag: TagSel) -> Result<(Status, Vec<u8>)> {
        if !self.rel.arq_on() {
            return self.open_or_recover(self.comm.recv_maybe_chunked(src, tag), None);
        }
        // Service NACKs while parked on data.
        let ctrl = (Src::Any, TagSel::Is(NACK_TAG));
        loop {
            let (is_ctrl, st) = self.comm.probe_either((src, tag), ctrl);
            if is_ctrl {
                self.rel.service_nacks();
                continue;
            }
            let payload = self
                .comm
                .recv_maybe_chunked(Src::Is(st.source), TagSel::Is(st.tag));
            return self.open_or_recover(payload, None);
        }
    }

    /// Fault-tolerant encrypted blocking send: seals like
    /// [`SecureComm::send`], but a confirmed death of the receiver
    /// surfaces as [`crate::Error::RankFailed`] (after burning its keys
    /// via the revocation path) instead of hanging the rendezvous. The
    /// world must be built with `with_ftol`.
    pub fn ft_send(&self, buf: &[u8], dst: usize, tag: Tag) -> Result<()> {
        let wire = self.seal_wire(buf, Some(dst));
        self.comm
            .ft_send_bytes(Bytes::from(wire), dst, tag)
            .map_err(|rf| {
                let _ = self.handle_rank_failure(rf.rank);
                rf.into()
            })
    }

    /// Fault-tolerant encrypted blocking receive: opens like
    /// [`SecureComm::recv`], but a confirmed death of the awaited
    /// source (or of any rank, for any-source receives) surfaces as
    /// [`crate::Error::RankFailed`] after the dead rank's key material
    /// is revoked and the survivors re-keyed. The world must be built
    /// with `with_ftol`.
    pub fn ft_recv(&self, src: Src, tag: TagSel) -> Result<(Status, Vec<u8>)> {
        match self.comm.ft_recv_payload(src, tag) {
            Ok(payload) => self.open_payload(payload).map_err(|(e, _)| e),
            Err(rf) => {
                let _ = self.handle_rank_failure(rf.rank);
                Err(rf.into())
            }
        }
    }

    // ---------------------------------------------------------------
    // ISend / IRecv / Wait
    // ---------------------------------------------------------------

    /// Encrypted non-blocking send: the buffer is sealed *now* (fresh
    /// nonce) and handed to the transport. With pipelining enabled and
    /// a message larger than one chunk, the seal runs chunk-by-chunk on
    /// the worker-core pool and the frames are handed to the chunked
    /// non-blocking transport — `isend` still returns immediately in
    /// virtual time except for the per-chunk host overhead, mirroring
    /// the sequential path.
    pub fn isend(&self, buf: &[u8], dst: usize, tag: Tag) -> SecureRequest {
        self.op_span("p2p/isend", dst as i32, buf.len(), || {
            self.isend_impl(buf, dst, tag)
        })
    }

    pub(super) fn isend_impl(&self, buf: &[u8], dst: usize, tag: Tag) -> SecureRequest {
        let sealed = self.seal_msg(buf, dst, tag);
        SecureRequest {
            inner: self.comm.post(sealed, dst, tag, Charge::Streaming),
            recv_seq_hint: None,
        }
    }

    /// Chaos-aware relay of an already-sealed frame train (the
    /// pipelined collectives forward root-sealed ciphertext).
    pub(super) fn isend_frames(&self, mut frames: Vec<ChunkFrame>, dst: usize, tag: Tag) -> Request {
        self.rel.prepare_frames(&mut frames, dst, tag);
        self.comm
            .post(SendPayload::Chunked(frames), dst, tag, Charge::Streaming)
    }

    /// Encrypted non-blocking receive. The post is format-agnostic —
    /// whether the sender used the plain or the chunked wire format is
    /// only discovered (and acted upon) inside [`SecureComm::wait`].
    /// Decryption is deferred to `wait`.
    pub fn irecv(&self, src: Src, tag: TagSel) -> SecureRequest {
        // Recovery identity (the per-flow sequence number) is assigned
        // at POST time for fully-specified receives — MPI non-overtaking
        // keeps posted order aligned with the sender's send order.
        // Wildcard receives defer the draw to completion (documented
        // caveat: mixing wildcard and fully-specified receives on one
        // flow under ARQ can misalign identities).
        let recv_seq_hint = match (self.rel.on(), src, tag) {
            (true, Src::Is(s), TagSel::Is(t)) => Some(self.rel.next_recv_seq(s, t)),
            _ => None,
        };
        SecureRequest {
            inner: self.comm.irecv(src, tag),
            recv_seq_hint,
        }
    }

    /// Wait on one encrypted request; receives are authenticated and
    /// decrypted here (the paper performs decryption inside `MPI_Wait`
    /// to keep `IRecv` non-blocking). Like [`SecureComm::recv`], the
    /// decryption path is chosen by the sender's wire format, so a
    /// pipelined sender's chunked train is opened on the worker pool
    /// even if this rank never enabled pipelining.
    pub fn wait(&self, req: SecureRequest) -> Result<(Status, Option<Vec<u8>>)> {
        let t0 = self.comm.sim().now().as_nanos();
        let out = self.wait_impl(req);
        self.note_completion("p2p/wait", t0, &out);
        out
    }

    pub(super) fn wait_impl(&self, req: SecureRequest) -> Result<Completion> {
        match self.set_poll(&mut [Some(req.inner)], true) {
            SetPoll::Done(_, status, payload) => {
                self.open_completion(status, payload, req.recv_seq_hint)
            }
            _ => unreachable!("blocking poll on one live request"),
        }
    }

    /// Wait on all requests as a true completion set
    /// (Encrypted_Waitall): requests retire in completion order —
    /// earliest virtual time first, NACKs serviced between completions
    /// under ARQ — with results returned in request order. Each
    /// completion records a `Metric::E2e` sample under `p2p/waitall`
    /// (latency measured from the call, the tail a waitall-heavy
    /// workload actually observes). On a decryption/delivery error the
    /// error is returned and the requests not yet retired are dropped,
    /// like the sequential wait loop it replaces.
    pub fn waitall(&self, mut reqs: Vec<SecureRequest>) -> Result<Vec<(Status, Option<Vec<u8>>)>> {
        let t0 = self.comm.sim().now().as_nanos();
        let (mut slots, hints) = into_slots(&mut reqs);
        let mut out: Vec<Option<Completion>> = (0..slots.len()).map(|_| None).collect();
        loop {
            match self.set_poll(&mut slots, true) {
                SetPoll::Done(idx, status, payload) => {
                    let opened = self.open_completion(status, payload, hints[idx]);
                    self.note_completion("p2p/waitall", t0, &opened);
                    out[idx] = Some(opened?);
                }
                SetPoll::Empty => break,
                SetPoll::Ctrl | SetPoll::Pending => {
                    unreachable!("blocking set_poll yields Done or Empty")
                }
            }
        }
        Ok(out
            .into_iter()
            .map(|r| r.expect("set poller retires every slot"))
            .collect())
    }

    /// Wait until at least one request completes, then drain every
    /// other request already complete at that virtual time
    /// (Encrypted_Waitsome). Completed entries are removed from `reqs`
    /// (survivors keep their order); each reported index refers to the
    /// position in `reqs` at call time. An empty `reqs` returns an
    /// empty vector. Records one `p2p/waitsome` sample per completion.
    pub fn waitsome(&self, reqs: &mut Vec<SecureRequest>) -> Result<Vec<SetCompletion>> {
        let t0 = self.comm.sim().now().as_nanos();
        let (mut slots, hints) = into_slots(reqs);
        let mut done: Vec<(usize, Status, Option<RecvPayload>)> = Vec::new();
        match self.set_poll(&mut slots, true) {
            SetPoll::Done(idx, status, payload) => done.push((idx, status, payload)),
            SetPoll::Empty => return Ok(Vec::new()),
            SetPoll::Ctrl | SetPoll::Pending => {
                unreachable!("blocking set_poll yields Done or Empty")
            }
        }
        while let SetPoll::Done(idx, status, payload) = self.set_poll(&mut slots, false) {
            done.push((idx, status, payload));
        }
        restore(reqs, slots, &hints);
        let mut out = Vec::with_capacity(done.len());
        for (idx, status, payload) in done {
            let opened = self.open_completion(status, payload, hints[idx]);
            self.note_completion("p2p/waitsome", t0, &opened);
            let (status, plain) = opened?;
            out.push((idx, status, plain));
        }
        Ok(out)
    }

    /// Non-blocking: retire one request that has already completed, if
    /// any (Encrypted_Testany). Never advances virtual time; NACKs
    /// that have already arrived are serviced even when nothing
    /// completes. `Ok(None)` means no request has completed at the
    /// current virtual time (or `reqs` is empty).
    pub fn testany(&self, reqs: &mut Vec<SecureRequest>) -> Result<Option<SetCompletion>> {
        let t0 = self.comm.sim().now().as_nanos();
        let (mut slots, hints) = into_slots(reqs);
        let polled = self.set_poll(&mut slots, false);
        restore(reqs, slots, &hints);
        match polled {
            SetPoll::Done(idx, status, payload) => {
                let opened = self.open_completion(status, payload, hints[idx]);
                self.note_completion("p2p/testany", t0, &opened);
                opened.map(|(status, plain)| Some((idx, status, plain)))
            }
            SetPoll::Pending | SetPoll::Empty => Ok(None),
            SetPoll::Ctrl => unreachable!("set_poll consumes control frames"),
        }
    }

    /// Wait for *any* one request to complete (Encrypted_Waitany): the
    /// completed request is removed from `reqs` and its index returned;
    /// a completed receive is authenticated and decrypted here, again
    /// dispatching on the sender's wire format.
    pub fn waitany(
        &self,
        reqs: &mut Vec<SecureRequest>,
    ) -> Result<(usize, Status, Option<Vec<u8>>)> {
        let t0 = self.comm.sim().now().as_nanos();
        assert!(!reqs.is_empty(), "waitany on an empty request set");
        let (mut slots, hints) = into_slots(reqs);
        let polled = self.set_poll(&mut slots, true);
        restore(reqs, slots, &hints);
        let SetPoll::Done(idx, status, payload) = polled else {
            unreachable!("blocking poll on a non-empty set")
        };
        let opened = self.open_completion(status, payload, hints[idx]);
        self.note_completion("p2p/waitany", t0, &opened);
        opened.map(|(status, plain)| (idx, status, plain))
    }

    /// Encrypted sendrecv.
    pub fn sendrecv(
        &self,
        sendbuf: &[u8],
        dst: usize,
        send_tag: Tag,
        src: Src,
        recv_tag: TagSel,
    ) -> Result<(Status, Vec<u8>)> {
        self.op_span("p2p/sendrecv", dst as i32, sendbuf.len(), || {
            let sreq = self.isend(sendbuf, dst, send_tag);
            let out = self.recv(src, recv_tag);
            self.wait(sreq)?;
            out
        })
    }
}
