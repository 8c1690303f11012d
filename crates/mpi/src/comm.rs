//! The communicator: MPI-style point-to-point operations.
//!
//! Timing model (see `empi-netsim::fabric` for the decomposition):
//!
//! * Blocking `send`/`recv` charge the *ping-pong* host overhead per
//!   side — these are the paths the paper's ping-pong benchmark drives.
//! * Non-blocking `isend`/`irecv` charge the *streaming* host occupancy —
//!   the windowed OSU multi-pair path.
//! * Messages at or below the fabric's eager threshold are delivered
//!   eagerly (buffered at the receiver); larger ones use a rendezvous:
//!   the wire transfer cannot start before both sides have arrived,
//!   exactly like MPICH/MVAPICH large-message protocols.

use std::cell::Cell;
use std::sync::Arc;

use bytes::Bytes;
use empi_netsim::{Recorder, SimHandle, VDur, VTime};
use parking_lot::Mutex;

use crate::chunk::{ChunkedMessage, RecvPayload, SendPayload};
use crate::ftol::RankFailed;
use crate::state::{DonePayload, SharedState};
use crate::types::{as_bytes, vec_from_bytes, Pod, Src, Status, Tag, TagSel};

/// Handle to an outstanding non-blocking operation.
///
/// Must be waited on (dropping an unwaited request leaks its slot and,
/// for receives, its payload — as in real MPI).
#[derive(Debug)]
#[must_use = "requests must be waited on"]
pub struct Request {
    pub(crate) id: usize,
    kind: ReqKind,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ReqKind {
    Send(Wire),
    Recv,
}

/// The protocol a send's size and format selected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Wire {
    Eager,
    Rndv,
    Chunked,
}

impl Wire {
    fn op_label(self) -> &'static str {
        match self {
            Wire::Eager => "p2p/eager",
            Wire::Rndv => "p2p/rndv",
            Wire::Chunked => "p2p/chunked",
        }
    }
}

/// Which host-side cost a point-to-point call charges per message (see
/// the module docs): the ping-pong overhead of the blocking calls, or
/// the streaming occupancy of the non-blocking ones. Same-node peers
/// pay the intra-node overhead either way.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Charge {
    Blocking,
    Streaming,
}

/// One step of [`Comm::poll_set`] — the single completion funnel every
/// wait/test/set call drives.
#[derive(Debug)]
pub enum SetPoll {
    /// Slot `idx` completed: its request was consumed (the slot is now
    /// `None`) and its payload dispatched on the sender's actual wire
    /// format, with receive-side host overhead charged.
    Done(usize, Status, Option<RecvPayload>),
    /// A control frame matching the filter became available strictly
    /// before any request in the set; nothing was consumed.
    Ctrl,
    /// Non-blocking poll: nothing has completed at the current virtual
    /// time. Never returned by a blocking poll.
    Pending,
    /// Every slot is `None` — there is nothing to wait for.
    Empty,
}

/// How a [`Comm::park`] ended.
pub(crate) enum Parked<T> {
    /// The awaited event; the clock stands at its completion time.
    Got(T),
    /// A watched control frame (its envelope) came first.
    Ctrl(Status),
    /// The failure set grew while parked; the newest failure.
    Failed(RankFailed),
}

impl<T> Parked<T> {
    /// The outcome of a park that watched nothing.
    fn got(self) -> T {
        match self {
            Parked::Got(v) => v,
            _ => unreachable!("nothing was watched"),
        }
    }
}

/// A rank's endpoint in the simulated world.
///
/// Obtained from [`crate::World::run`]; all MPI operations go through
/// this handle.
pub struct Comm<'h> {
    pub(crate) h: &'h SimHandle,
    pub(crate) shared: Arc<Mutex<SharedState>>,
    pub(crate) coll_seq: Cell<u32>,
    /// Failure-detector state, when the world was built with
    /// [`crate::World::with_ftol`]. `None` = fault tolerance off; the
    /// ft verbs panic rather than silently running without a detector.
    pub(crate) ftol: Option<crate::ftol::FtolState>,
}

/// Scope marker for the recorder's per-rank operation stack: pushes a
/// label on construction, pops it when dropped. Fabric transfers issued
/// while the guard is alive are attributed to this operation.
pub(crate) struct OpGuard<'h> {
    t: Option<&'h Recorder>,
    rank: usize,
}

impl Drop for OpGuard<'_> {
    fn drop(&mut self) {
        if let Some(t) = self.t {
            t.pop_op(self.rank);
        }
    }
}

impl<'h> Comm<'h> {
    /// Enter a traced operation scope (no-op when untraced).
    pub(crate) fn op(&self, label: &'static str) -> OpGuard<'h> {
        let t = self.h.recorder();
        if let Some(t) = t {
            t.push_op(self.rank(), label);
        }
        OpGuard {
            t,
            rank: self.rank(),
        }
    }

    /// Advance the virtual clock by host-side messaging overhead,
    /// crediting it to the recorder's host-time bucket.
    pub(crate) fn charge_host(&self, d: VDur) {
        if let Some(t) = self.h.recorder() {
            t.add_host_ns(self.rank(), d.as_nanos());
        }
        self.h.advance(d);
    }

    /// Record that `bytes` of payload from `src` were handed to the
    /// application on this rank (the receive side of the conservation
    /// ledger; sends are counted at the fabric).
    pub(crate) fn note_delivery(&self, src: usize, bytes: usize) {
        if let Some(t) = self.h.recorder() {
            t.delivery(src, self.rank(), bytes);
        }
    }

    /// This rank.
    pub fn rank(&self) -> usize {
        self.h.rank()
    }

    /// World size.
    pub fn size(&self) -> usize {
        self.h.n_ranks()
    }

    /// The engine handle (virtual clock access).
    pub fn sim(&self) -> &SimHandle {
        self.h
    }

    /// Charge local compute time.
    pub fn compute(&self, d: VDur) {
        self.h.advance(d);
    }

    /// Charge `d` of modeled compute time while running `f` — real
    /// host work (kernel arithmetic, crypto) that touches no
    /// simulation state. Under a sharded world the closure overlaps
    /// with other ranks on real cores; results stay bit-identical to
    /// the serial schedule (see [`empi_netsim::SimHandle::charge_overlapped`]).
    pub fn compute_with<T>(&self, d: VDur, f: impl FnOnce() -> T) -> T {
        self.h.charge_overlapped(d, f)
    }

    /// Current virtual time.
    pub fn now(&self) -> VTime {
        self.h.now()
    }

    /// Host-side per-message overhead for this rank when talking to
    /// `peer` with an `len`-byte payload.
    pub(crate) fn side_overhead(&self, peer: usize, len: usize, charge: Charge) -> VDur {
        let s = self.shared.lock();
        let model = s.fabric.model();
        if s.fabric.topology().same_node(self.rank(), peer) {
            VDur(model.intra_overhead_ns)
        } else if charge == Charge::Blocking {
            VDur(model.pp_overhead_ns(len))
        } else {
            VDur(model.stream_overhead_ns(len))
        }
    }

    fn eager_threshold(&self) -> usize {
        self.shared.lock().fabric.model().eager_threshold
    }

    // ---------------------------------------------------------------
    // The one way to wait
    // ---------------------------------------------------------------

    /// Park this rank until `check` produces the awaited event —
    /// `Some((ready_at, value))`, as for the engine's `block_on` — or
    /// something the caller also watches happens first. Every blocking
    /// verb of this communicator is a driver of this one park; with
    /// nothing watched it *is* `block_on(reason, check)`.
    ///
    /// * `ctrl` — a control-plane filter (ARQ's NACK server): a
    ///   matching frame ends the park with [`Parked::Ctrl`] under the
    ///   rule of [`Comm::race`], nothing consumed — so `check` must not
    ///   consume anything either.
    /// * `lease` — arm the failure detector over these suspects (one
    ///   rank, or every live peer): a failure notice or the lease
    ///   deadline can end the park with [`Parked::Failed`], see
    ///   [`Comm::park_leased`].
    ///
    /// Inlined so that a driver's constant `None`s select its arm at
    /// compile time: an unwatched wait compiles to the bare `block_on`.
    #[inline(always)]
    pub(crate) fn park<T>(
        &self,
        reason: &'static str,
        ctrl: Option<(Src, TagSel)>,
        lease: Option<Src>,
        mut check: impl FnMut() -> Option<(VTime, T)>,
    ) -> Parked<T> {
        match (ctrl, lease) {
            (None, None) => Parked::Got(self.h.block_on(reason, check)),
            (_, None) => self.h.block_on(reason, || self.race(check(), ctrl)),
            (_, Some(suspects)) => self.park_leased(reason, suspects, || self.race(check(), ctrl)),
        }
    }

    /// The data-vs-control rule, written once: of an awaited event and
    /// the first frame matching `ctrl`, the control frame wins only if
    /// it is available strictly earlier — ties go to the data, so a
    /// request completing at the same instant as a NACK retires first.
    fn race<T>(
        &self,
        got: Option<(VTime, T)>,
        ctrl: Option<(Src, TagSel)>,
    ) -> Option<(VTime, Parked<T>)> {
        match (got, ctrl.and_then(|(src, tag)| self.peek_status(src, tag))) {
            (Some((d, _)), Some((c, st))) if c < d => Some((c, Parked::Ctrl(st))),
            (Some((d, v)), _) => Some((d, Parked::Got(v))),
            (None, Some((c, st))) => Some((c, Parked::Ctrl(st))),
            (None, None) => None,
        }
    }

    /// Envelope of the first arrival matching `(src, tag)` and when it
    /// becomes available, without receiving it.
    pub(crate) fn peek_status(&self, src: Src, tag: TagSel) -> Option<(VTime, Status)> {
        let s = self.shared.lock();
        let (source, tag, len, at) = s.peek_incoming(self.rank(), src, tag)?;
        Some((at, Status { source, tag, len }))
    }

    // ---------------------------------------------------------------
    // Sends
    // ---------------------------------------------------------------

    /// Copy a caller slice into an owned transport buffer, counting
    /// the allocation against this rank's hot-path ledger.
    /// [`Comm::post`] skips exactly this copy.
    fn copy_in(&self, buf: &[u8]) -> SendPayload {
        if let Some(t) = self.h.recorder() {
            t.count_alloc(self.rank(), true, buf.len());
        }
        SendPayload::Plain(Bytes::copy_from_slice(buf))
    }

    /// Hand an owned payload to the transport and return its request —
    /// the one send every other send is built on.
    ///
    /// `charge` picks the host accounting: [`Charge::Blocking`] followed
    /// by [`Comm::wait_sent`] is `MPI_Send`, [`Charge::Streaming`] is
    /// `MPI_Isend`. A caller that must stay responsive while a blocking
    /// send drains (the retransmit layer answering NACKs) posts with the
    /// blocking charge — not `isend`'s streaming occupancy — and waits
    /// on the request through [`Comm::poll_set`] instead.
    ///
    /// A plain payload at or below the fabric's eager threshold is
    /// transmitted now and its request completes at once; a larger one
    /// is a rendezvous. A chunked payload is a train of pre-sealed
    /// frames, each with its own earliest-transmit time — the virtual
    /// time its seal completed on a worker core — so encryption of
    /// later chunks overlaps the wire transfer of earlier ones; host
    /// overhead is charged once on the train's total wire bytes (the
    /// pipelined path still posts one logical send), and the request
    /// completes when the last frame clears this rank's NIC.
    pub fn post(&self, payload: SendPayload, dst: usize, tag: Tag, charge: Charge) -> Request {
        assert!(dst < self.size(), "send to invalid rank {dst}");
        let me = self.rank();
        let wire = match &payload {
            SendPayload::Chunked(frames) => {
                assert!(
                    !frames.is_empty(),
                    "chunked message needs at least one frame"
                );
                Wire::Chunked
            }
            // A self-send has no peer to rendezvous with.
            SendPayload::Plain(data) if dst == me || data.len() <= self.eager_threshold() => {
                Wire::Eager
            }
            SendPayload::Plain(_) => Wire::Rndv,
        };
        assert!(
            dst != me || (wire == Wire::Eager && charge == Charge::Streaming),
            "self-sends must be plain isends (isend + recv); chunked ones are opened locally"
        );
        let _op = self.op(wire.op_label());
        self.charge_host(self.side_overhead(dst, payload.wire_bytes(), charge));
        let id =
            self.shared
                .lock()
                .match_send(me, dst, tag, payload, wire == Wire::Eager, self.h.now());
        if dst != me {
            self.h.notify_rank(dst);
        }
        Request {
            id,
            kind: ReqKind::Send(wire),
        }
    }

    /// The blocking tail of `MPI_Send`: park until a posted send has
    /// cleared this rank's NIC. An eager send completed at post time
    /// and retires here without a tenure change.
    pub fn wait_sent(&self, req: Request) {
        let ReqKind::Send(wire) = req.kind else {
            panic!("wait_sent on a receive request");
        };
        let take = || self.shared.lock().try_take_done(req.id).map(|d| (d.0, ()));
        match wire {
            Wire::Eager => {
                take().expect("an eager send completes at post time");
            }
            Wire::Rndv => {
                // The receiver schedules the transfer while this rank is
                // parked; the open scope attributes it to this send.
                let _op = self.op(wire.op_label());
                self.park("send(rendezvous)", None, None, take).got()
            }
            Wire::Chunked => self.park("send(chunked)", None, None, take).got(),
        }
    }

    /// Blocking standard-mode send (`MPI_Send`).
    pub fn send(&self, buf: &[u8], dst: usize, tag: Tag) {
        self.wait_sent(self.post(self.copy_in(buf), dst, tag, Charge::Blocking));
    }

    /// Non-blocking send (`MPI_Isend`).
    pub fn isend(&self, buf: &[u8], dst: usize, tag: Tag) -> Request {
        self.post(self.copy_in(buf), dst, tag, Charge::Streaming)
    }

    // ---------------------------------------------------------------
    // Receives
    // ---------------------------------------------------------------

    /// One receive-side match attempt at this rank's current time, in
    /// [`Comm::park`]'s shape. Wakes the sender if the match completed its
    /// request (it may be parked in its rendezvous wait).
    pub(crate) fn try_match(
        &self,
        src: Src,
        tag: TagSel,
    ) -> Option<(VTime, (usize, Tag, DonePayload))> {
        let m = self
            .shared
            .lock()
            .match_recv(self.rank(), src, tag, self.h.now())?;
        if let Some(owner) = m.notify {
            self.h.notify_rank(owner);
        }
        Some((m.at, (m.src, m.tag, m.data)))
    }

    /// Hand a completed operation's payload to the application,
    /// dispatching on the wire format the matched sender actually used:
    /// charge the receive-side host overhead on the delivered bytes
    /// (plain or chunked) and count the delivery. Every receive and
    /// every wait bottoms out here, so no completion path can bypass
    /// the format dispatch. Sends carry nothing and cost nothing.
    pub(crate) fn deliver(
        &self,
        src: usize,
        tag: Tag,
        data: DonePayload,
        charge: Charge,
    ) -> (Status, Option<RecvPayload>) {
        let status = |len| Status {
            source: src,
            tag,
            len,
        };
        match data {
            DonePayload::None => (status(0), None),
            DonePayload::Plain(data) => {
                let status = status(data.len());
                self.charge_host(self.side_overhead(src, status.len, charge));
                self.note_delivery(src, status.len);
                (status, Some(RecvPayload::Plain(status, data)))
            }
            DonePayload::Chunked(frames) => {
                let msg = ChunkedMessage { src, tag, frames };
                let status = status(msg.wire_bytes());
                self.charge_host(self.side_overhead(src, status.len, charge));
                for (_, f) in &msg.frames {
                    self.note_delivery(src, f.len());
                }
                (status, Some(RecvPayload::Chunked(msg)))
            }
        }
    }

    /// [`Comm::deliver`] for what a blocking receive's
    /// [`Comm::try_match`] produced — always a payload.
    pub(crate) fn deliver_matched(
        &self,
        (src, tag, data): (usize, Tag, DonePayload),
    ) -> (Status, RecvPayload) {
        let (status, payload) = self.deliver(src, tag, data, Charge::Blocking);
        (
            status,
            payload.expect("a matched arrival carries a payload"),
        )
    }

    /// Blocking receive of either wire format, matched in this rank's
    /// own tenure (it never enters the posted list).
    fn recv_matched(&self, src: Src, tag: TagSel) -> (Status, RecvPayload) {
        let matched = self.park("recv", None, None, || self.try_match(src, tag));
        self.deliver_matched(matched.got())
    }

    /// Blocking receive (`MPI_Recv`), returning the payload.
    ///
    /// Format-agnostic like [`Comm::wait`]: a chunked train is
    /// assembled into one contiguous buffer, framing intact.
    pub fn recv(&self, src: Src, tag: TagSel) -> (Status, Bytes) {
        let (status, payload) = self.recv_matched(src, tag);
        (status, payload.into_bytes())
    }

    /// Blocking receive that keeps the sender's wire format.
    ///
    /// Plain messages behave exactly like [`Comm::recv`]. For a chunked
    /// message, each frame's wire transfer is scheduled no earlier than
    /// its seal completed and the sender posted; the per-node NIC
    /// timelines serialize the frames, the receiver's clock advances to
    /// the *last* frame's arrival, and per-frame arrival times are
    /// returned so the caller can overlap decryption with reception.
    pub fn recv_maybe_chunked(&self, src: Src, tag: TagSel) -> RecvPayload {
        self.recv_matched(src, tag).1
    }

    /// Blocking receive into a caller buffer; the payload must fit
    /// exactly.
    pub(crate) fn recv_into(&self, buf: &mut [u8], src: Src, tag: TagSel) -> Status {
        let (status, data) = self.recv(src, tag);
        assert_eq!(
            data.len(),
            buf.len(),
            "recv_into: message from {} (tag {}) is {} bytes, buffer is {}",
            status.source,
            status.tag,
            data.len(),
            buf.len()
        );
        buf.copy_from_slice(&data);
        status
    }

    /// Combined send + receive (`MPI_Sendrecv`), deadlock-free for
    /// symmetric exchanges.
    pub fn sendrecv(
        &self,
        sendbuf: &[u8],
        dst: usize,
        send_tag: Tag,
        src: Src,
        recv_tag: TagSel,
    ) -> (Status, Bytes) {
        let sreq = self.isend(sendbuf, dst, send_tag);
        let out = self.recv(src, recv_tag);
        self.wait(sreq);
        out
    }

    /// Non-blocking receive (`MPI_Irecv`). The payload is returned by
    /// [`Comm::wait`] (plain messages) or [`Comm::wait_payload`]
    /// (format-agnostic: plain or chunked). The posted receive itself
    /// is format-agnostic — whether the matching sender used the
    /// contiguous or the chunked wire format is only known at match
    /// time and is carried in the completed request.
    pub fn irecv(&self, src: Src, tag: TagSel) -> Request {
        let (id, notify) = self
            .shared
            .lock()
            .post_recv(self.rank(), src, tag, self.h.now());
        if let Some(owner) = notify {
            self.h.notify_rank(owner);
        }
        Request {
            id,
            kind: ReqKind::Recv,
        }
    }

    /// Wait for one request, dispatching on the wire format the
    /// matched sender actually used (`MPI_Wait`, format-agnostic).
    ///
    /// For receives the payload is either a plain message or a chunked
    /// (pipelined) frame train with per-frame arrival times; the
    /// receive-side host overhead is charged on the delivered bytes
    /// either way. Sends return `None`.
    pub fn wait_payload(&self, req: Request) -> (Status, Option<RecvPayload>) {
        self.park("wait", None, None, || self.done_at(&req)).got();
        self.take_completed(req)
    }

    /// When `req` completed, if it has — a wait on a request in
    /// [`Comm::park`]'s shape.
    pub(crate) fn done_at(&self, req: &Request) -> Option<(VTime, ())> {
        Some((self.shared.lock().peek_done(req.id)?, ()))
    }

    /// Consume an already-completed request through [`Comm::deliver`],
    /// freeing its slab entry.
    ///
    /// Panics if the request has not completed — pollers must observe
    /// `peek_done` first.
    pub(crate) fn take_completed(&self, req: Request) -> (Status, Option<RecvPayload>) {
        let (_, src, tag, data) = self
            .shared
            .lock()
            .try_take_done(req.id)
            .expect("take_completed on an incomplete request");
        self.deliver(src, tag, data, Charge::Streaming)
    }

    /// Wait for one request (`MPI_Wait`). For receives, returns the
    /// payload bytes and charges the receive-side host overhead.
    ///
    /// Format-agnostic: a chunked (pipelined) train is assembled into
    /// one contiguous buffer in transmission order, framing intact —
    /// see [`RecvPayload::into_bytes`]. Callers that need per-frame
    /// arrival times (to overlap decryption with reception) use
    /// [`Comm::wait_payload`].
    pub fn wait(&self, req: Request) -> (Status, Option<Bytes>) {
        let (status, payload) = self.wait_payload(req);
        (status, payload.map(RecvPayload::into_bytes))
    }

    /// Wait for all requests (`MPI_Waitall`) as a true completion set:
    /// one blocking set poll per completion, retiring whichever request
    /// finishes next in virtual time, not slot order. Results are
    /// returned in slot order; payload bytes are format-agnostic like
    /// [`Comm::wait`].
    pub fn waitall(&self, reqs: Vec<Request>) -> Vec<(Status, Option<Bytes>)> {
        let mut slots: Vec<Option<Request>> = reqs.into_iter().map(Some).collect();
        let mut out: Vec<Option<(Status, Option<Bytes>)>> =
            (0..slots.len()).map(|_| None).collect();
        while let Some((i, status, payload)) = self.next_done(&mut slots) {
            out[i] = Some((status, payload.map(RecvPayload::into_bytes)));
        }
        out.into_iter()
            .map(|r| r.expect("poll_set retires every slot before Empty"))
            .collect()
    }

    /// Wait until at least one request completes, then retire every
    /// other one already complete at that virtual time (`MPI_Waitsome`)
    /// — the shape of `SecureComm::waitsome`. Completed requests leave
    /// `reqs` and the survivors keep their order; each reported index is
    /// the request's position in `reqs` at call time. Payload bytes are
    /// format-agnostic like [`Comm::wait`]. An empty `reqs` returns an
    /// empty vector without moving the clock.
    pub fn waitsome(&self, reqs: &mut Vec<Request>) -> Vec<(usize, Status, Option<Bytes>)> {
        let mut slots: Vec<Option<Request>> = reqs.drain(..).map(Some).collect();
        let mut done = Vec::new();
        // One blocking step, then non-blocking ones until nothing more
        // has completed at the resulting time.
        let mut block = true;
        while let SetPoll::Done(i, status, payload) = self.poll_set(&mut slots, None, block) {
            done.push((i, status, payload.map(RecvPayload::into_bytes)));
            block = false;
        }
        reqs.extend(slots.into_iter().flatten());
        done
    }

    /// The completion funnel: poll a set of request slots, optionally
    /// watching for a control frame, blocking or not.
    ///
    /// Live slots compete on completion time; the earliest wins and is
    /// consumed through [`Comm::take_completed`] (its slot becomes
    /// `None`, its index is reported). With a `ctrl` filter the poll
    /// doubles as a control-plane server: a matching incoming frame
    /// that is available *strictly earlier* than every completion wins
    /// instead ([`SetPoll::Ctrl`], nothing consumed) — ties prefer
    /// data, so a request completing at the same instant as a NACK is
    /// retired first. Non-blocking polls only observe events at or
    /// before the current virtual time and never advance the clock
    /// ([`SetPoll::Pending`] otherwise).
    ///
    /// Every set call — [`Comm::waitall`], [`Comm::waitsome`] and the
    /// secure layer's set waits, with or without control awareness — is
    /// a thin driver of this one poller.
    pub fn poll_set(
        &self,
        slots: &mut [Option<Request>],
        ctrl: Option<(Src, TagSel)>,
        block: bool,
    ) -> SetPoll {
        self.poll_slots("waitset", slots, ctrl, None, block)
            .expect("no lease was armed")
    }

    /// One blocking step of the funnel with nothing else watched: the
    /// next completion, or `None` once every slot is retired.
    pub(crate) fn next_done(
        &self,
        slots: &mut [Option<Request>],
    ) -> Option<(usize, Status, Option<RecvPayload>)> {
        match self.poll_set(slots, None, true) {
            SetPoll::Done(i, status, payload) => Some((i, status, payload)),
            SetPoll::Empty => None,
            SetPoll::Ctrl | SetPoll::Pending => {
                unreachable!("blocking poll without a ctrl filter")
            }
        }
    }

    /// [`Comm::poll_set`] under everything [`Comm::park`] can watch; a
    /// lease-armed poll can also end on a new failure.
    pub(crate) fn poll_slots(
        &self,
        reason: &'static str,
        slots: &mut [Option<Request>],
        ctrl: Option<(Src, TagSel)>,
        lease: Option<Src>,
        block: bool,
    ) -> Result<SetPoll, RankFailed> {
        let ids: Vec<(usize, usize)> = slots
            .iter()
            .enumerate()
            .filter_map(|(i, r)| r.as_ref().map(|r| (i, r.id)))
            .collect();
        if ids.is_empty() {
            return Ok(SetPoll::Empty);
        }
        // The live slot that completes earliest.
        let first_done = || {
            let s = self.shared.lock();
            ids.iter()
                .filter_map(|&(i, id)| s.peek_done(id).map(|at| (at, i)))
                .min()
        };
        let polled = if block {
            self.park(reason, ctrl, lease, first_done)
        } else {
            let now = self.h.now();
            match self.race(first_done(), ctrl) {
                Some((at, polled)) if at <= now => polled,
                _ => return Ok(SetPoll::Pending),
            }
        };
        match polled {
            Parked::Got(i) => {
                let req = slots[i].take().expect("poll_set picked a live slot");
                let (status, payload) = self.take_completed(req);
                Ok(SetPoll::Done(i, status, payload))
            }
            Parked::Ctrl(_) => Ok(SetPoll::Ctrl),
            Parked::Failed(rf) => Err(rf),
        }
    }

    /// Non-blocking probe (`MPI_Iprobe`): check whether a matching
    /// message has *already* arrived (in virtual time).
    pub fn iprobe(&self, src: Src, tag: TagSel) -> Option<Status> {
        let now = self.h.now();
        let (at, status) = self.peek_status(src, tag)?;
        (at <= now).then_some(status)
    }

    // ---------------------------------------------------------------
    // Control-plane-aware waits (the recovery layer's primitives)
    // ---------------------------------------------------------------
    //
    // A retransmit protocol needs every *blocking* wait to double as a
    // server: a rank parked on its own payload must still wake up when
    // a peer NACKs one of its earlier sends, or two mutually-waiting
    // ranks deadlock. This probe and [`Comm::poll_set`]'s `ctrl` filter
    // park on "my thing OR a control frame" under the one rule of
    // [`Comm::race`], and hand control frames back to the caller
    // without consuming them.

    /// Block until a message matching `data` or one matching `ctrl` is
    /// available, returning `(is_ctrl, envelope)` without receiving
    /// either. Whichever becomes available earlier wins; ties prefer
    /// the data message.
    pub fn probe_either(&self, data: (Src, TagSel), ctrl: (Src, TagSel)) -> (bool, Status) {
        self.probe_watching("probe", data, ctrl, None)
            .expect("no lease was armed")
    }

    /// [`Comm::probe_either`], optionally lease-armed.
    pub(crate) fn probe_watching(
        &self,
        reason: &'static str,
        (src, tag): (Src, TagSel),
        ctrl: (Src, TagSel),
        lease: Option<Src>,
    ) -> Result<(bool, Status), RankFailed> {
        match self.park(reason, Some(ctrl), lease, || self.peek_status(src, tag)) {
            Parked::Got(status) => Ok((false, status)),
            Parked::Ctrl(status) => Ok((true, status)),
            Parked::Failed(rf) => Err(rf),
        }
    }

    // ---------------------------------------------------------------
    // Typed convenience wrappers
    // ---------------------------------------------------------------

    /// Typed blocking send.
    pub(crate) fn send_t<T: Pod>(&self, buf: &[T], dst: usize, tag: Tag) {
        self.send(as_bytes(buf), dst, tag);
    }

    /// Typed blocking receive into a fresh vector.
    pub(crate) fn recv_vec<T: Pod + Default>(&self, src: Src, tag: TagSel) -> (Status, Vec<T>) {
        let (status, data) = self.recv(src, tag);
        (status, vec_from_bytes(&data))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chunk::ChunkFrame;
    use crate::ctrl::NACK_TAG;
    use crate::world::World;
    use empi_netsim::NetModel;

    const DATA_TAG: u32 = 7;

    /// Virtual-time tie-breaking: with an instant network a data
    /// message and a ctrl frame are both available at t=0. Every
    /// control-aware primitive must prefer the data side on the tie;
    /// the ctrl frame wins only when it is strictly earlier.
    #[test]
    fn ties_prefer_data_over_ctrl() {
        let w = World::flat(NetModel::instant(), 3);
        let out = w.run(|c| match c.rank() {
            0 => {
                // Both arrive at t=0 (instant fabric, both senders post
                // at their local t=0).
                let nack = (Src::Is(2), TagSel::Is(NACK_TAG));
                let (is_ctrl, st) = c.probe_either((Src::Is(1), TagSel::Is(DATA_TAG)), nack);
                assert!(!is_ctrl, "probe_either must prefer data on a tie");
                assert_eq!(st.source, 1);

                // poll_set: the irecv completes at t=0, tied with the
                // ctrl frame — data wins.
                let mut slots = vec![Some(c.irecv(Src::Is(1), TagSel::Is(DATA_TAG)))];
                match c.poll_set(&mut slots, Some(nack), true) {
                    SetPoll::Done(0, st, payload) => {
                        assert_eq!(st.source, 1);
                        assert_eq!(payload.unwrap().into_bytes().as_ref(), b"data");
                    }
                    other => panic!("poll_set must prefer data on a tie: {other:?}"),
                }

                // With no data in flight the ctrl frame does win, and
                // the request stays in its slot.
                slots.push(Some(c.irecv(Src::Is(1), TagSel::Is(DATA_TAG + 1))));
                match c.poll_set(&mut slots, Some(nack), true) {
                    SetPoll::Ctrl => assert!(slots[1].is_some()),
                    other => panic!("no data posted yet: ctrl must win: {other:?}"),
                }
                let (_, ctrl) = c.recv(Src::Is(2), TagSel::Is(NACK_TAG));
                assert_eq!(ctrl.as_ref(), b"nack");
                // Release rank 1's last send.
                c.send(b"go", 1, DATA_TAG + 2);
                let mut rest: Vec<Request> = slots.into_iter().flatten().collect();
                let done = c.waitsome(&mut rest);
                assert!(rest.is_empty());
                let [(_, st, data)] = &done[..] else {
                    panic!("one request was live: {done:?}")
                };
                (st.source, data.as_ref().map_or(0, Bytes::len))
            }
            1 => {
                c.send(b"data", 0, DATA_TAG);
                // Only send the last data message once rank 0 asks,
                // guaranteeing the ctrl-wins leg really has no data.
                let _ = c.recv(Src::Is(0), TagSel::Is(DATA_TAG + 2));
                c.send(b"late", 0, DATA_TAG + 1);
                (0, 0)
            }
            _ => {
                c.send(b"nack", 0, NACK_TAG);
                (0, 0)
            }
        });
        assert_eq!(out.results[0], (1, 4));
    }

    /// `wait`, `waitsome` and `waitall` must complete a chunked
    /// (pipelined) train without panicking, assembling the frames in
    /// transmission order with framing intact.
    #[test]
    fn byte_waits_assemble_chunked_trains() {
        let frames = |base: u8| -> Vec<ChunkFrame> {
            (0..3u8)
                .map(|i| ChunkFrame {
                    data: Bytes::from(vec![base + i; 4]),
                    ready: VTime(0),
                })
                .collect()
        };
        let expect = |base: u8| -> Vec<u8> { (0..3u8).flat_map(|i| vec![base + i; 4]).collect() };
        let w = World::flat(NetModel::ethernet_10g(), 2);
        let out = w.run(|c| {
            if c.rank() == 0 {
                for (i, base) in [10u8, 40, 70].into_iter().enumerate() {
                    let train = SendPayload::Chunked(frames(base));
                    c.wait_sent(c.post(train, 1, DATA_TAG + i as u32, Charge::Blocking));
                }
            } else {
                // wait: single chunked train, contiguous bytes.
                let (st, data) = c.wait(c.irecv(Src::Is(0), TagSel::Is(DATA_TAG)));
                assert_eq!(st.source, 0);
                assert_eq!(data.as_deref(), Some(&expect(10)[..]));
                // waitsome: chunked train through the set path.
                let mut reqs = vec![c.irecv(Src::Is(0), TagSel::Is(DATA_TAG + 1))];
                let done = c.waitsome(&mut reqs);
                assert_eq!((done.len(), reqs.len()), (1, 0));
                assert_eq!(done[0].2.as_deref(), Some(&expect(40)[..]));
                // waitall: chunked train retired by the set poller.
                let res = c.waitall(vec![c.irecv(Src::Is(0), TagSel::Is(DATA_TAG + 2))]);
                assert_eq!(res[0].1.as_deref(), Some(&expect(70)[..]));
            }
        });
        assert_eq!(out.results.len(), 2);
    }

    /// `waitall` retires requests in completion order but reports them
    /// in slot order.
    #[test]
    fn waitall_reports_in_slot_order() {
        let w = World::flat(NetModel::ethernet_10g(), 2);
        let out = w.run(|c| {
            if c.rank() == 0 {
                // Stagger sends so completion order != post order.
                for i in (0..4u32).rev() {
                    c.compute(VDur::from_micros(50));
                    c.send(&[i as u8; 32], 1, DATA_TAG + i);
                }
                vec![]
            } else {
                let reqs = (0..4u32)
                    .map(|i| c.irecv(Src::Is(0), TagSel::Is(DATA_TAG + i)))
                    .collect();
                c.waitall(reqs)
                    .into_iter()
                    .map(|(st, data)| (st.tag, data.unwrap()[0]))
                    .collect::<Vec<_>>()
            }
        });
        let expect: Vec<_> = (0..4u32).map(|i| (DATA_TAG + i, i as u8)).collect();
        assert_eq!(out.results[1], expect);
    }

    /// `waitsome` hands back the earliest completion under its position
    /// at call time and leaves the later request in `reqs`.
    #[test]
    fn waitsome_returns_the_earliest_completion_first() {
        let w = World::flat(NetModel::ethernet_10g(), 3);
        let out = w.run(|c| {
            match c.rank() {
                0 => {
                    // Rank 2 sends late, rank 1 sends early.
                    let mut reqs = vec![
                        c.irecv(Src::Is(2), TagSel::Is(0)),
                        c.irecv(Src::Is(1), TagSel::Is(0)),
                    ];
                    let done = c.waitsome(&mut reqs);
                    assert_eq!(done.len(), 1, "the late sender is still in flight");
                    let (idx, st, data) = &done[0];
                    assert_eq!(
                        (*idx, st.source),
                        (1, 1),
                        "the early sender completes first"
                    );
                    assert_eq!(data.as_deref(), Some(&[11u8][..]));
                    assert_eq!(reqs.len(), 1);
                    let done = c.waitsome(&mut reqs);
                    assert_eq!((done[0].0, done[0].1.source), (0, 2));
                    return reqs.is_empty();
                }
                1 => c.send(&[11], 0, 0),
                _ => {
                    c.compute(VDur::from_micros(5_000));
                    c.send(&[22], 0, 0);
                }
            }
            true
        });
        assert!(out.results.iter().all(|&x| x));
    }

    /// A non-blocking poll never moves the clock: nothing has arrived
    /// at t=0, so it reports `Pending`; after a blocking step, local
    /// compute alone carries the rank past the straggler's arrival and
    /// a non-blocking poll retires it.
    #[test]
    fn nonblocking_polls_never_move_the_clock() {
        let w = World::flat(NetModel::ethernet_10g(), 2);
        let out = w.run(|c| {
            if c.rank() == 0 {
                c.send(&[1u8; 64], 1, DATA_TAG);
                c.send(&[2u8; 64], 1, DATA_TAG + 1);
                return true;
            }
            let mut slots = vec![
                Some(c.irecv(Src::Is(0), TagSel::Is(DATA_TAG))),
                Some(c.irecv(Src::Is(0), TagSel::Is(DATA_TAG + 1))),
            ];
            let t0 = c.now();
            assert!(matches!(
                c.poll_set(&mut slots, None, false),
                SetPoll::Pending
            ));
            assert_eq!(c.now(), t0);
            assert!(slots.iter().all(Option::is_some));
            assert!(matches!(
                c.poll_set(&mut slots, None, true),
                SetPoll::Done(0, ..)
            ));
            loop {
                let t = c.now();
                match c.poll_set(&mut slots, None, false) {
                    SetPoll::Done(1, ..) => break,
                    SetPoll::Pending => assert_eq!(c.now(), t),
                    other => panic!("one request is live: {other:?}"),
                }
                c.compute(VDur::from_micros(10));
            }
            slots.iter().all(Option::is_none)
        });
        assert!(out.results.iter().all(|&x| x));
    }

    /// Empty sets — an empty request vector, all-`None` slots — are
    /// trivially complete everywhere: no hang, no panic, and no call
    /// moves the clock.
    #[test]
    fn empty_set_semantics() {
        let w = World::flat(NetModel::instant(), 2);
        let out = w.run(|c| {
            if c.rank() == 0 {
                assert!(c.waitsome(&mut Vec::new()).is_empty());
                assert!(c.waitall(Vec::new()).is_empty());
                let mut slots: Vec<Option<Request>> = vec![None, None, None];
                assert!(matches!(c.poll_set(&mut slots, None, true), SetPoll::Empty));
                assert!(matches!(
                    c.poll_set(&mut slots, None, false),
                    SetPoll::Empty
                ));
                c.send(b"go", 1, DATA_TAG);
            } else {
                let _ = c.recv(Src::Is(0), TagSel::Is(DATA_TAG));
            }
            c.now().as_nanos()
        });
        // None of the empty-set calls may advance rank 0's clock.
        assert_eq!(out.results[0], 0);
    }

    /// A sliding-window driver on `waitsome` — the shape of the
    /// in-flight benchmark's raw pump — receives every message exactly
    /// once, with the survivors keeping their order across calls.
    #[test]
    fn waitsome_windowed_driver_completes_everything() {
        const MSGS: usize = 24;
        const WINDOW: usize = 6;
        let w = World::flat(NetModel::ethernet_10g(), 2);
        let out = w.run(|c| {
            if c.rank() == 0 {
                let reqs: Vec<_> = (0..MSGS)
                    .map(|i| c.isend(&[i as u8; 128], 1, DATA_TAG + i as u32))
                    .collect();
                c.waitall(reqs);
                return MSGS;
            }
            // `ids[k]` is the message index of `pending[k]`.
            let (mut pending, mut ids) = (Vec::new(), Vec::new());
            let mut got = [false; MSGS];
            let mut posted = 0usize;
            while got.iter().any(|&g| !g) {
                while posted < MSGS && pending.len() < WINDOW {
                    pending.push(c.irecv(Src::Is(0), TagSel::Is(DATA_TAG + posted as u32)));
                    ids.push(posted);
                    posted += 1;
                }
                let done = c.waitsome(&mut pending);
                assert!(!done.is_empty(), "a blocking waitsome retires something");
                let mut retired: Vec<usize> = Vec::new();
                for (k, st, data) in done {
                    let m = ids[k];
                    assert_eq!(st.tag, DATA_TAG + m as u32);
                    assert_eq!(data.unwrap()[0] as usize, m);
                    assert!(!got[m], "message {m} completed twice");
                    got[m] = true;
                    retired.push(k);
                }
                retired.sort_unstable();
                for k in retired.into_iter().rev() {
                    ids.remove(k);
                }
                assert_eq!(ids.len(), pending.len());
            }
            got.len()
        });
        assert_eq!(out.results, vec![MSGS, MSGS]);
    }
}
