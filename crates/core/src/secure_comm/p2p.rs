//! Point-to-point (Encrypted_Send / Recv / ISend / IRecv / Wait and the
//! set waits), written over the record layer and the reliability state.
//!
//! Every verb reaches the transport the same way: `seal_msg` on the way
//! out (seal → sequence → retain → inject), `open_or_recover` on the
//! way in (open → ARQ recovery). What differs between a verb and its
//! fault-tolerant twin, or between a clean and an ARQ-armed
//! configuration, is only what the blocking wait *watches*
//! ([`empi_mpi::Comm`]'s one park): nothing, the NACK tag
//! ([`SecureComm::nack_filter`] — every blocking wait of an ARQ rank is
//! a repair server), the failure detector's lease (`ft_send` /
//! `ft_recv`), or both.

use bytes::Bytes;
use empi_mpi::chunk::{ChunkFrame, RecvPayload, SendPayload};
use empi_mpi::{Charge, RankFailed, Request, SetPoll, Src, Status, Tag, TagSel, NACK_TAG};
use empi_netsim::VDur;
use empi_trace::Metric;

use super::reliability::POLL_QUANTUM;
use super::{note_sample, SecureComm};
use crate::error::{Error, Result};

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
pub type SetCompletion = (usize, Status, Option<Bytes>);

/// What a wait hands back: the status, and the plaintext of a receive.
type Completion = (Status, Option<Bytes>);

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

    /// The control filter every blocking wait of this rank watches:
    /// peers' NACKs under ARQ, nothing otherwise.
    fn nack_filter(&self) -> Option<(Src, TagSel)> {
        self.rel
            .arq_on()
            .then_some((Src::Any, TagSel::Is(NACK_TAG)))
    }

    /// A confirmed death surfaced by a lease-armed wait: burn the dead
    /// rank's key material (revocation + survivor re-key), then type it.
    fn rank_died(&self, rf: RankFailed) -> Error {
        let _ = self.handle_rank_failure(rf.rank);
        rf.into()
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
        let ctrl = self.nack_filter();
        loop {
            match self.comm.poll_set(slots, ctrl, block) {
                SetPoll::Ctrl => self.rel.service_nacks(),
                other => return other,
            }
        }
    }

    /// One blocking step of [`Self::set_poll`]: the next completion, or
    /// `None` once every slot is retired.
    fn next_done(
        &self,
        slots: &mut [Option<Request>],
    ) -> Option<(usize, Status, Option<RecvPayload>)> {
        match self.set_poll(slots, true) {
            SetPoll::Done(idx, status, payload) => Some((idx, status, payload)),
            SetPoll::Empty => None,
            SetPoll::Ctrl | SetPoll::Pending => {
                unreachable!("blocking set_poll yields Done or Empty")
            }
        }
    }

    /// Open one received payload through the sender's wire format,
    /// recovering via ARQ when that fails. `hint` is the flow sequence
    /// drawn at post time (fully-specified receives under chaos);
    /// everything else draws it here, at completion.
    fn open_or_recover(&self, payload: RecvPayload, hint: Option<u64>) -> Result<(Status, Bytes)> {
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
        self.note_outcome(
            op,
            t0,
            done.map(|(st, data)| (st, data.as_ref().map_or(0, Bytes::len))),
        );
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
        if self.cfg.pipeline.applies_to(buf.len()) {
            let mut frames = self.seal_chunked_frames(buf, Some(dst));
            self.rel.prepare_frames(&mut frames, dst, tag);
            SendPayload::Chunked(frames)
        } else {
            let mut wire = self.seal_wire(buf, Some(dst));
            self.rel.prepare_wire(&mut wire, dst, tag);
            SendPayload::Plain(wire.freeze())
        }
    }

    /// Encrypted blocking send. With pipelining enabled and a message
    /// larger than one chunk, takes the chunked multi-core offload path;
    /// otherwise the sequential seal-then-send of Algorithm 1 (the two
    /// are behavior-identical for single-chunk messages).
    ///
    /// Clean or armed, the send is one post with the *blocking-send*
    /// host accounting — routing the armed path through `isend` would
    /// charge the streaming host occupancy and make an armed-but-idle
    /// retransmit layer look ~2x slower than the clean send. Only what
    /// the wait watches differs: under ARQ it keeps answering NACKs
    /// while the rendezvous drains (two mutually-recovering ranks would
    /// otherwise deadlock).
    pub fn send(&self, buf: &[u8], dst: usize, tag: Tag) {
        self.op_span("p2p/send", dst as i32, buf.len(), || {
            let sealed = self.seal_msg(buf, dst, tag);
            let req = self.comm.post(sealed, dst, tag, Charge::Blocking);
            match self.nack_filter() {
                None => self.comm.wait_sent(req),
                Some(_) => drop(self.set_poll(&mut [Some(req)], true)),
            }
        });
    }

    /// Encrypted blocking receive. Dispatches on the sender's wire
    /// format *unconditionally*: plain records are opened sequentially,
    /// chunked (pipelined) trains are reassembled and opened on the
    /// worker pool — even when this rank's own pipeline config is
    /// disabled. Mixed sender/receiver configurations therefore always
    /// interoperate.
    ///
    /// The plaintext returns to the world's buffer pool when its last
    /// handle drops. Drop it in this rank's own code, never inside an
    /// [`empi_mpi::Comm::compute_with`] closure (see there).
    pub fn recv(&self, src: Src, tag: TagSel) -> Result<(Status, Bytes)> {
        self.recv_noted(src, tag, false)
    }

    /// A blocking receive under its end-to-end sample (`p2p/ft_recv`
    /// for the lease-armed twin).
    fn recv_noted(&self, src: Src, tag: TagSel, lease: bool) -> Result<(Status, Bytes)> {
        let t0 = self.comm.sim().now().as_nanos();
        let out = self.recv_under(src, tag, lease);
        let op = if lease { "p2p/ft_recv" } else { "p2p/recv" };
        let done = out.as_ref().ok();
        self.note_outcome(op, t0, done.map(|(st, data)| (st, data.len())));
        out
    }

    /// The one blocking-receive body: take the next message on
    /// `(src, tag)` under the watch the configuration (NACK filter)
    /// and the verb (`lease`, the ft twin) ask for, then open it.
    fn recv_under(&self, src: Src, tag: TagSel, lease: bool) -> Result<(Status, Bytes)> {
        let died = |rf| self.rank_died(rf);
        let payload = match self.nack_filter() {
            None if lease => self.comm.ft_recv_payload(src, tag).map_err(died)?,
            None => self.comm.recv_maybe_chunked(src, tag),
            // Service NACKs while parked on data.
            Some(ctrl) => loop {
                let (is_ctrl, st) = match lease {
                    true => self.comm.ft_probe_either((src, tag), ctrl).map_err(died)?,
                    false => self.comm.probe_either((src, tag), ctrl),
                };
                if !is_ctrl {
                    let found = (Src::Is(st.source), TagSel::Is(st.tag));
                    break self.comm.recv_maybe_chunked(found.0, found.1);
                }
                self.rel.service_nacks();
            },
        };
        self.open_or_recover(payload, None)
    }

    /// Fault-tolerant encrypted blocking send: [`SecureComm::send`]
    /// with the wait lease-armed, so a confirmed death of the receiver
    /// surfaces as [`crate::Error::RankFailed`] (after burning its keys
    /// via the revocation path) instead of hanging the rendezvous. A
    /// receiver already confirmed dead fails before anything is sealed.
    /// The world must be built with `with_ftol`.
    pub fn ft_send(&self, buf: &[u8], dst: usize, tag: Tag) -> Result<()> {
        self.op_span("p2p/ft_send", dst as i32, buf.len(), || {
            if self.comm.failed_ranks().contains(&dst) {
                let epoch = self.comm.liveness_epoch();
                return Err(self.rank_died(RankFailed { rank: dst, epoch }));
            }
            let sealed = self.seal_msg(buf, dst, tag);
            let mut slot = [Some(self.comm.post(sealed, dst, tag, Charge::Blocking))];
            loop {
                match self.comm.ft_wait_sent(&mut slot, dst, self.nack_filter()) {
                    Ok(SetPoll::Ctrl) => self.rel.service_nacks(),
                    Ok(_) => return Ok(()),
                    Err(rf) => return Err(self.rank_died(rf)),
                }
            }
        })
    }

    /// Fault-tolerant encrypted blocking receive: [`SecureComm::recv`]
    /// with the wait lease-armed, so a confirmed death of the awaited
    /// source (or of any rank, for any-source receives) surfaces as
    /// [`crate::Error::RankFailed`] after the dead rank's key material
    /// is revoked and the survivors re-keyed. The world must be built
    /// with `with_ftol`. The plaintext is pooled like
    /// [`SecureComm::recv`]'s.
    pub fn ft_recv(&self, src: Src, tag: TagSel) -> Result<(Status, Bytes)> {
        self.recv_noted(src, tag, true)
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
    pub(super) fn isend_frames(
        &self,
        mut frames: Vec<ChunkFrame>,
        dst: usize,
        tag: Tag,
    ) -> Request {
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
    /// even if this rank never enabled pipelining. The plaintext is
    /// pooled like [`SecureComm::recv`]'s.
    pub fn wait(&self, req: SecureRequest) -> Result<(Status, Option<Bytes>)> {
        let t0 = self.comm.sim().now().as_nanos();
        let done = self.next_done(&mut [Some(req.inner)]);
        let (_, status, payload) = done.expect("one live request has a next completion");
        let out = self.open_completion(status, payload, req.recv_seq_hint);
        self.note_completion("p2p/wait", t0, &out);
        out
    }

    /// Wait on all requests as a true completion set
    /// (Encrypted_Waitall): requests retire in completion order —
    /// earliest virtual time first, NACKs serviced between completions
    /// under ARQ — with results returned in request order. Each
    /// completion records a `Metric::E2e` sample under `p2p/waitall`
    /// (latency measured from the call, the tail a waitall-heavy
    /// workload actually observes). On a decryption/delivery error the
    /// error is returned and the requests not yet retired are dropped,
    /// like the sequential wait loop it replaces. Plaintexts are pooled
    /// like [`SecureComm::recv`]'s.
    pub fn waitall(&self, mut reqs: Vec<SecureRequest>) -> Result<Vec<(Status, Option<Bytes>)>> {
        let t0 = self.comm.sim().now().as_nanos();
        let (mut slots, hints) = into_slots(&mut reqs);
        let mut out: Vec<Option<Completion>> = (0..slots.len()).map(|_| None).collect();
        while let Some((idx, status, payload)) = self.next_done(&mut slots) {
            let opened = self.open_completion(status, payload, hints[idx]);
            self.note_completion("p2p/waitall", t0, &opened);
            out[idx] = Some(opened?);
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
    /// Plaintexts are pooled like [`SecureComm::recv`]'s.
    pub fn waitsome(&self, reqs: &mut Vec<SecureRequest>) -> Result<Vec<SetCompletion>> {
        let t0 = self.comm.sim().now().as_nanos();
        let (mut slots, hints) = into_slots(reqs);
        let Some(first) = self.next_done(&mut slots) else {
            return Ok(Vec::new());
        };
        let mut done = vec![first];
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
    /// current virtual time (or `reqs` is empty). The plaintext is
    /// pooled like [`SecureComm::recv`]'s.
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
    /// dispatching on the sender's wire format. The plaintext is pooled
    /// like [`SecureComm::recv`]'s.
    pub fn waitany(&self, reqs: &mut Vec<SecureRequest>) -> Result<(usize, Status, Option<Bytes>)> {
        let t0 = self.comm.sim().now().as_nanos();
        assert!(!reqs.is_empty(), "waitany on an empty request set");
        let (mut slots, hints) = into_slots(reqs);
        let done = self.next_done(&mut slots);
        restore(reqs, slots, &hints);
        let (idx, status, payload) = done.expect("a non-empty set has a next completion");
        let opened = self.open_completion(status, payload, hints[idx]);
        self.note_completion("p2p/waitany", t0, &opened);
        opened.map(|(status, plain)| (idx, status, plain))
    }

    /// Encrypted sendrecv. The plaintext is pooled like
    /// [`SecureComm::recv`]'s.
    pub fn sendrecv(
        &self,
        sendbuf: &[u8],
        dst: usize,
        send_tag: Tag,
        src: Src,
        recv_tag: TagSel,
    ) -> Result<(Status, Bytes)> {
        self.op_span("p2p/sendrecv", dst as i32, sendbuf.len(), || {
            let sreq = self.isend(sendbuf, dst, send_tag);
            let out = self.recv(src, recv_tag);
            self.wait(sreq)?;
            out
        })
    }
}
