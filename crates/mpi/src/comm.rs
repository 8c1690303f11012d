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
    pub fn recv_into(&self, buf: &mut [u8], src: Src, tag: TagSel) -> Status {
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
    /// requests are retired in completion order (earliest virtual time
    /// first), not slot order. Results are returned in slot order;
    /// payload bytes are format-agnostic like [`Comm::wait`].
    pub fn waitall(&self, reqs: Vec<Request>) -> Vec<(Status, Option<Bytes>)> {
        self.waitall_payload(reqs)
            .into_iter()
            .map(|(status, payload)| (status, payload.map(RecvPayload::into_bytes)))
            .collect()
    }

    /// [`Comm::waitall`] with full payload dispatch: one blocking set
    /// poll per completion, retiring whichever request finishes next in
    /// virtual time. Results land at their request's original index.
    pub fn waitall_payload(&self, reqs: Vec<Request>) -> Vec<(Status, Option<RecvPayload>)> {
        let mut slots: Vec<Option<Request>> = reqs.into_iter().map(Some).collect();
        let mut out: Vec<Option<(Status, Option<RecvPayload>)>> =
            (0..slots.len()).map(|_| None).collect();
        while let Some((i, status, payload)) = self.next_done(&mut slots) {
            out[i] = Some((status, payload));
        }
        out.into_iter()
            .map(|r| r.expect("poll_set retires every slot before Empty"))
            .collect()
    }

    /// Wait for whichever request completes first (`MPI_Waitany`),
    /// dispatching on the wire format like [`Comm::wait_payload`].
    /// Removes the completed request from `reqs` and returns its index
    /// along with the result.
    pub fn waitany_payload(&self, reqs: &mut Vec<Request>) -> (usize, Status, Option<RecvPayload>) {
        assert!(!reqs.is_empty(), "waitany on an empty request set");
        let mut slots: Vec<Option<Request>> = reqs.drain(..).map(Some).collect();
        let done = self.next_done(&mut slots);
        reqs.extend(slots.into_iter().flatten());
        done.expect("a non-empty set has a next completion")
    }

    /// Wait for whichever request completes first (`MPI_Waitany`).
    /// Removes the completed request from `reqs` and returns its index
    /// along with the result; payload bytes are format-agnostic like
    /// [`Comm::wait`].
    pub fn waitany(&self, reqs: &mut Vec<Request>) -> (usize, Status, Option<Bytes>) {
        let (idx, status, payload) = self.waitany_payload(reqs);
        (idx, status, payload.map(RecvPayload::into_bytes))
    }

    /// Has `req` completed at (or before) the current virtual time?
    /// Non-blocking and non-consuming (`MPI_Test`'s flag check); a
    /// `true` answer means a wait on it returns without advancing the
    /// clock past already-scheduled arrivals.
    pub fn test_ready(&self, req: &Request) -> bool {
        let now = self.h.now();
        self.done_at(req).is_some_and(|(at, ())| at <= now)
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
    /// Every set call — `waitall`/`waitany`/`waitsome`/`testany`/
    /// `testall`, with or without control awareness — is a thin driver
    /// of this one poller.
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

    /// Blocking probe (`MPI_Probe`): wait until a matching message is
    /// available and return its envelope without receiving it.
    pub fn probe(&self, src: Src, tag: TagSel) -> Status {
        let peek = || self.peek_status(src, tag);
        self.park("probe", None, None, peek).got()
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
    pub fn send_t<T: Pod>(&self, buf: &[T], dst: usize, tag: Tag) {
        self.send(as_bytes(buf), dst, tag);
    }

    /// Typed blocking receive into a fresh vector.
    pub fn recv_vec<T: Pod + Default>(&self, src: Src, tag: TagSel) -> (Status, Vec<T>) {
        let (status, data) = self.recv(src, tag);
        (status, vec_from_bytes(&data))
    }
}
