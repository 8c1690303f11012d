//! Shared runtime state: the point-to-point matching engine, the
//! request slab and the fabric.
//!
//! Every receiver has **one arrival queue**, in send order, whose
//! entries are eager messages already on the wire, rendezvous sends and
//! chunked frame trains waiting for their receiver — plus the list of
//! posted receives. Two functions decide every match:
//! [`SharedState::match_send`] (meet the earliest posted receive or
//! join the arrival queue) and [`SharedState::match_recv`] (take the
//! first matching arrival). Both start a held transfer through
//! `start_transfer`, so MPI's non-overtaking rule holds across wire
//! formats by construction: a `(src, tag)` flow is one FIFO, whatever
//! mix of eager, rendezvous and chunked messages it carries. No other
//! module touches the queues.
//!
//! One mutex guards everything. That is not a scalability concern: the
//! simulation engine executes exactly one rank at a time, so the lock is
//! never contended — it exists to satisfy the borrow checker across rank
//! threads.

use std::collections::VecDeque;

use bytes::Bytes;
use empi_netsim::{Fabric, VTime};

use crate::chunk::{ChunkFrame, SendPayload};
use crate::types::{Src, Tag, TagSel};

/// One message in a receiver's arrival queue.
#[derive(Debug)]
struct Arrival {
    src: usize,
    tag: Tag,
    body: Body,
}

/// How far an arrival has got. Eager messages are already on the wire;
/// the other two hold their payload at the sender until a receive
/// matches, and carry the sender's request to complete at that point.
#[derive(Debug)]
enum Body {
    Eager {
        data: Bytes,
        /// Virtual time the last byte reaches the receiving NIC.
        arrive: VTime,
    },
    Rndv {
        data: Bytes,
        /// When the sender finished its local overhead (the transfer
        /// cannot start earlier).
        ready: VTime,
        req: usize,
    },
    /// A train of independently sealed frames (pipelined encryption),
    /// each with its own earliest-transmit time.
    Chunked {
        frames: Vec<ChunkFrame>,
        /// When the sender finished its host-side overhead (no frame
        /// can hit the wire earlier, even if its seal completed before).
        posted: VTime,
        req: usize,
    },
}

/// A posted non-blocking receive awaiting a matching message.
#[derive(Debug)]
struct PostedRecv {
    req: usize,
    src: Src,
    tag: TagSel,
    /// When the receive was posted (held transfers cannot start
    /// earlier).
    posted_at: VTime,
}

/// Per-receiver matching state.
#[derive(Debug, Default)]
struct RankQueues {
    arrivals: VecDeque<Arrival>,
    posted: Vec<PostedRecv>,
}

/// A receive-side match: the message, when it is delivered, and the
/// sender to wake if this match completed its request.
pub(crate) struct Matched {
    pub at: VTime,
    pub src: usize,
    pub tag: Tag,
    pub data: DonePayload,
    pub notify: Option<usize>,
}

/// What a completed request carries: nothing (sends), one contiguous
/// message, or the per-frame arrivals of a chunked (pipelined) one.
/// The receiver learns which wire format a matched sender used only
/// here — dispatch is format-driven, never config-driven.
#[derive(Debug)]
pub(crate) enum DonePayload {
    None,
    Plain(Bytes),
    Chunked(Vec<ChunkFrame>),
}

/// Request slab entry.
#[derive(Debug)]
enum ReqEntry {
    /// Sender waiting for a rendezvous match.
    PendingSend { owner: usize },
    /// Posted receive not yet matched.
    PendingRecv { owner: usize },
    /// Operation finished at `at`; receives carry their payload.
    Done {
        at: VTime,
        src: usize,
        tag: Tag,
        data: DonePayload,
    },
}

/// The state shared by all ranks of a world.
pub(crate) struct SharedState {
    pub fabric: Fabric,
    queues: Vec<RankQueues>,
    requests: Vec<Option<ReqEntry>>,
    free_reqs: Vec<usize>,
}

impl SharedState {
    pub fn new(fabric: Fabric) -> Self {
        let n = fabric.topology().n_ranks();
        SharedState {
            fabric,
            queues: (0..n).map(|_| RankQueues::default()).collect(),
            requests: Vec::new(),
            free_reqs: Vec::new(),
        }
    }

    /// Allocate a request slot.
    fn alloc_req(&mut self, entry: ReqEntry) -> usize {
        if let Some(id) = self.free_reqs.pop() {
            self.requests[id] = Some(entry);
            id
        } else {
            self.requests.push(Some(entry));
            self.requests.len() - 1
        }
    }

    /// Take a completed request's result, freeing the slot.
    /// Returns `None` if it is still pending.
    pub fn try_take_done(&mut self, id: usize) -> Option<(VTime, usize, Tag, DonePayload)> {
        match self.requests[id].as_ref() {
            Some(ReqEntry::Done { .. }) => {
                let entry = self.requests[id].take().unwrap();
                self.free_reqs.push(id);
                match entry {
                    ReqEntry::Done { at, src, tag, data } => Some((at, src, tag, data)),
                    _ => unreachable!(),
                }
            }
            Some(_) => None,
            None => panic!("request {id} used after completion"),
        }
    }

    /// Complete a request in place; returns the owner to notify.
    fn complete_req(
        &mut self,
        id: usize,
        at: VTime,
        src: usize,
        tag: Tag,
        data: DonePayload,
    ) -> usize {
        let owner = match self.requests[id].as_ref() {
            Some(ReqEntry::PendingSend { owner }) | Some(ReqEntry::PendingRecv { owner }) => *owner,
            other => panic!("completing non-pending request {id}: {other:?}"),
        };
        self.requests[id] = Some(ReqEntry::Done { at, src, tag, data });
        owner
    }

    /// Completion time of a request, if it is done (non-consuming).
    pub fn peek_done(&self, id: usize) -> Option<VTime> {
        match self.requests[id].as_ref() {
            Some(ReqEntry::Done { at, .. }) => Some(*at),
            Some(_) => None,
            None => panic!("request {id} used after completion"),
        }
    }

    /// Inspect (without consuming) the first arrival matching
    /// `(src, tag)` for `rank`: returns
    /// `(src, tag, payload_len, available_at)`.
    pub fn peek_incoming(
        &self,
        rank: usize,
        src: Src,
        tag: TagSel,
    ) -> Option<(usize, Tag, usize, VTime)> {
        let a = self.queues[rank]
            .arrivals
            .iter()
            .find(|a| src.matches(a.src) && tag.matches(a.tag))?;
        let (len, at) = match &a.body {
            Body::Eager { data, arrive } => (data.len(), *arrive),
            Body::Rndv { data, ready, .. } => (data.len(), *ready),
            Body::Chunked { frames, posted, .. } => {
                (frames.iter().map(|f| f.data.len()).sum(), *posted)
            }
        };
        Some((a.src, a.tag, len, at))
    }

    /// The all-blocked report's view of `rank`'s queues, arrivals
    /// counted by kind.
    pub fn queue_report(&self, rank: usize) -> String {
        let q = &self.queues[rank];
        let count = |kind: fn(&Body) -> bool| q.arrivals.iter().filter(|a| kind(&a.body)).count();
        format!(
            "unexpected={} posted={} rndv={} chunked={}",
            count(|b| matches!(b, Body::Eager { .. })),
            q.posted.len(),
            count(|b| matches!(b, Body::Rndv { .. })),
            count(|b| matches!(b, Body::Chunked { .. })),
        )
    }

    /// The send-side match: put `payload` from `src` in front of `dst`.
    /// An eager message goes on the wire at `now` and completes locally
    /// at once; a rendezvous or chunked one is held until a receive
    /// matches. Either way it meets the earliest posted receive that
    /// matches, or joins the arrival queue. Returns the sender's
    /// request.
    pub fn match_send(
        &mut self,
        src: usize,
        dst: usize,
        tag: Tag,
        payload: SendPayload,
        eager: bool,
        now: VTime,
    ) -> usize {
        let req = self.alloc_req(ReqEntry::PendingSend { owner: src });
        let body = match payload {
            SendPayload::Plain(data) if eager => {
                let arrive = self.fabric.transmit(src, dst, data.len(), now);
                self.complete_req(req, now, src, tag, DonePayload::None);
                Body::Eager { data, arrive }
            }
            SendPayload::Plain(data) => Body::Rndv {
                data,
                ready: now,
                req,
            },
            SendPayload::Chunked(frames) => Body::Chunked {
                frames,
                posted: now,
                req,
            },
        };
        let posted = &mut self.queues[dst].posted;
        match posted
            .iter()
            .position(|p| p.src.matches(src) && p.tag.matches(tag))
        {
            Some(pos) => {
                let pr = posted.remove(pos);
                let (at, data, _) = self.start_transfer(src, dst, tag, body, pr.posted_at);
                self.complete_req(pr.req, at, src, tag, data);
            }
            None => self.queues[dst]
                .arrivals
                .push_back(Arrival { src, tag, body }),
        }
        req
    }

    /// The receive-side match: take the first arrival in send order
    /// matching `(src, tag)` for `rank`, starting its transfer if it
    /// was held, with the receive side available at `now`.
    pub fn match_recv(
        &mut self,
        rank: usize,
        src: Src,
        tag: TagSel,
        now: VTime,
    ) -> Option<Matched> {
        let q = &mut self.queues[rank].arrivals;
        let pos = q
            .iter()
            .position(|a| src.matches(a.src) && tag.matches(a.tag))?;
        let Arrival { src, tag, body } = q.remove(pos).expect("position is in range");
        let (at, data, notify) = self.start_transfer(src, rank, tag, body, now);
        Some(Matched {
            at,
            src,
            tag,
            data,
            notify,
        })
    }

    /// A non-blocking receive posted at `now`: match an arrival right
    /// away, or join the posted list for a later send to meet. Returns
    /// the receive's request and the sender to wake, if any.
    pub fn post_recv(
        &mut self,
        rank: usize,
        src: Src,
        tag: TagSel,
        now: VTime,
    ) -> (usize, Option<usize>) {
        if let Some(m) = self.match_recv(rank, src, tag, now) {
            let req = self.alloc_req(ReqEntry::Done {
                at: m.at,
                src: m.src,
                tag: m.tag,
                data: m.data,
            });
            return (req, m.notify);
        }
        let req = self.alloc_req(ReqEntry::PendingRecv { owner: rank });
        self.queues[rank].posted.push(PostedRecv {
            req,
            src,
            tag,
            posted_at: now,
        });
        (req, None)
    }

    /// A message and its receive have met, the receive side available
    /// since `recv_time`. An eager message is already on the wire; a
    /// held one is scheduled now — by whichever side arrived second, in
    /// its own tenure — and its sender's request completes. Returns the
    /// delivery time, the payload, and the held sender's rank.
    fn start_transfer(
        &mut self,
        src: usize,
        dst: usize,
        tag: Tag,
        body: Body,
        recv_time: VTime,
    ) -> (VTime, DonePayload, Option<usize>) {
        let (req, sender_done, at, data) = match body {
            Body::Eager { data, arrive } => return (arrive, DonePayload::Plain(data), None),
            Body::Rndv { data, ready, req } => {
                let (sender_done, arrival) =
                    self.schedule_rndv(src, dst, data.len(), ready, recv_time);
                (req, sender_done, arrival, DonePayload::Plain(data))
            }
            Body::Chunked {
                frames,
                posted,
                req,
            } => {
                let (frames, last_arrive, sender_done) =
                    self.schedule_chunked(src, dst, frames, posted, recv_time);
                (req, sender_done, last_arrive, DonePayload::Chunked(frames))
            }
        };
        let owner = self.complete_req(req, sender_done, src, tag, DonePayload::None);
        (at, data, Some(owner))
    }

    /// Schedule one held wire transfer once both sides are known: it
    /// starts when the sender is `ready` and the receiver has arrived.
    /// Returns `(sender_done, arrival)`.
    fn schedule_rndv(
        &mut self,
        src: usize,
        dst: usize,
        len: usize,
        ready: VTime,
        recv_time: VTime,
    ) -> (VTime, VTime) {
        let arrival = self.fabric.transmit(src, dst, len, ready.max(recv_time));
        let sender_done = if self.fabric.topology().same_node(src, dst) {
            arrival
        } else {
            // The sender's NIC finishes one latency before the receiver
            // sees the last byte.
            let latency = self.fabric.model().latency.as_nanos();
            VTime(arrival.as_nanos().saturating_sub(latency))
        };
        (sender_done, arrival)
    }

    /// Schedule the wire transfers of a matched chunked send. Each
    /// frame starts no earlier than its seal completed (`f.ready`),
    /// the sender posted, and `earliest` (when the receive side became
    /// available). Returns the frames, each now stamped with its
    /// arrival, in transmission order, the last arrival, and the
    /// sender-done time.
    fn schedule_chunked(
        &mut self,
        src: usize,
        dst: usize,
        mut frames: Vec<ChunkFrame>,
        posted: VTime,
        earliest: VTime,
    ) -> (Vec<ChunkFrame>, VTime, VTime) {
        let mut last_arrive = VTime(0);
        let mut last_sender_done = VTime(0);
        for f in &mut frames {
            let (done, arrive) =
                self.schedule_rndv(src, dst, f.data.len(), f.ready.max(posted), earliest);
            last_sender_done = last_sender_done.max(done);
            last_arrive = last_arrive.max(arrive);
            f.ready = arrive;
        }
        (frames, last_arrive, last_sender_done)
    }
}
