//! Scope-based request management and completion sets.
//!
//! The rsmpi-style shape for driving many nonblocking operations at
//! once: requests attach to a [`Scope`] (RAII — anything still in
//! flight when the scope closes is waited for), or collect into a
//! [`CompletionSet`] that retires them in completion order through the
//! one format-dispatching funnel, [`Comm::poll_set`]. This is the
//! building block for hundreds of concurrent encrypted flows per rank:
//! post a window, complete whatever finishes next, top the window up.
//!
//! Set-call semantics on an empty set (mirroring MPI's
//! `MPI_UNDEFINED` conventions, but typed): `waitany`/`testany` return
//! `None`, `waitsome`/`waitall` return an empty vector, `testall`
//! reports trivially complete.

use std::cell::RefCell;

use bytes::Bytes;

use crate::chunk::RecvPayload;
use crate::comm::{Comm, Request, SetPoll};
use crate::types::{Src, Status, Tag, TagSel};

/// A set of outstanding requests completed in virtual-time order.
///
/// Indices are stable: [`CompletionSet::add`] returns the slot index a
/// request will be reported under for the set's whole lifetime,
/// regardless of completion order. Dropping a non-empty set waits for
/// the stragglers (completion is part of the type's contract, like a
/// join guard), unless the thread is already panicking.
pub struct CompletionSet<'a, 'h> {
    comm: &'a Comm<'h>,
    slots: Vec<Option<Request>>,
}

impl<'a, 'h> CompletionSet<'a, 'h> {
    /// An empty set on `comm`.
    pub fn new(comm: &'a Comm<'h>) -> Self {
        CompletionSet {
            comm,
            slots: Vec::new(),
        }
    }

    /// Attach a request; returns the stable index its completion will
    /// be reported under.
    pub fn add(&mut self, req: Request) -> usize {
        self.slots.push(Some(req));
        self.slots.len() - 1
    }

    /// Number of requests still in flight.
    pub fn live(&self) -> usize {
        self.slots.iter().filter(|s| s.is_some()).count()
    }

    /// Total slots ever attached (live + retired).
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// No requests in flight.
    pub fn is_empty(&self) -> bool {
        self.live() == 0
    }

    /// One funnel step: see [`Comm::poll_set`].
    pub fn poll(&mut self, ctrl: Option<(Src, TagSel)>, block: bool) -> SetPoll {
        self.comm.poll_set(&mut self.slots, ctrl, block)
    }

    /// Wait for the next completion (`MPI_Waitany`); `None` when the
    /// set is empty.
    pub fn waitany(&mut self) -> Option<(usize, Status, Option<RecvPayload>)> {
        self.comm.next_done(&mut self.slots)
    }

    /// [`CompletionSet::waitany`] that returns early with
    /// [`SetPoll::Ctrl`] if a control frame matching `ctrl` becomes
    /// available strictly before any completion (ties prefer data).
    pub fn waitany_or_ctrl(&mut self, ctrl: (Src, TagSel)) -> SetPoll {
        self.poll(Some(ctrl), true)
    }

    /// Wait for at least one completion, then drain everything else
    /// already complete at the resulting virtual time
    /// (`MPI_Waitsome`). Empty set yields an empty vector.
    pub fn waitsome(&mut self) -> Vec<(usize, Status, Option<RecvPayload>)> {
        let mut out = Vec::from_iter(self.waitany());
        if out.is_empty() {
            return out;
        }
        while let SetPoll::Done(i, status, payload) = self.poll(None, false) {
            out.push((i, status, payload));
        }
        out
    }

    /// Wait for every live request (`MPI_Waitall`), retiring them in
    /// completion order; results are returned sorted by slot index.
    pub fn waitall(&mut self) -> Vec<(usize, Status, Option<RecvPayload>)> {
        let mut out = Vec::new();
        while let Some(done) = self.waitany() {
            out.push(done);
        }
        out.sort_by_key(|&(i, ..)| i);
        out
    }

    /// Retire one already-complete request if any (`MPI_Testany`).
    /// Never blocks, never advances the clock; `None` means nothing
    /// has completed at the current virtual time (or the set is
    /// empty).
    pub fn testany(&mut self) -> Option<(usize, Status, Option<RecvPayload>)> {
        match self.poll(None, false) {
            SetPoll::Done(i, status, payload) => Some((i, status, payload)),
            _ => None,
        }
    }

    /// Retire *all* requests iff every one has already completed
    /// (`MPI_Testall`): all-or-nothing, so a `None` consumes nothing.
    /// An empty set is trivially complete.
    pub fn testall(&mut self) -> Option<Vec<(usize, Status, Option<RecvPayload>)>> {
        let all_ready = self.slots.iter().flatten().all(|r| self.comm.test_ready(r));
        if !all_ready {
            return None;
        }
        let mut out = Vec::new();
        while let SetPoll::Done(i, status, payload) = self.poll(None, false) {
            out.push((i, status, payload));
        }
        out.sort_by_key(|&(i, ..)| i);
        Some(out)
    }
}

impl Drop for CompletionSet<'_, '_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            return;
        }
        while self.waitany().is_some() {}
    }
}

/// A lexical region that owns the requests started inside it.
///
/// Created by [`Comm::scope`]; requests attach via [`Scope::attach`]
/// (or the [`Scope::isend`]/[`Scope::irecv`] conveniences) and may be
/// waited early, detached, or simply dropped — anything unfinished is
/// completed when the scope closes, so a request can never outlive the
/// buffers and communicator it borrows. The MPI analogue of a thread
/// join guard.
pub struct Scope<'a, 'h> {
    comm: &'a Comm<'h>,
    deferred: RefCell<Vec<Request>>,
}

impl<'a, 'h> Scope<'a, 'h> {
    /// The communicator this scope runs on.
    pub fn comm(&self) -> &'a Comm<'h> {
        self.comm
    }

    /// Adopt a request into this scope.
    pub fn attach<'s>(&'s self, req: Request) -> ScopedRequest<'s, 'a, 'h> {
        ScopedRequest {
            scope: self,
            req: Some(req),
        }
    }

    /// [`Comm::isend`] attached to this scope.
    pub fn isend<'s>(&'s self, buf: &[u8], dst: usize, tag: Tag) -> ScopedRequest<'s, 'a, 'h> {
        self.attach(self.comm.isend(buf, dst, tag))
    }

    /// [`Comm::irecv`] attached to this scope.
    pub fn irecv<'s>(&'s self, src: Src, tag: TagSel) -> ScopedRequest<'s, 'a, 'h> {
        self.attach(self.comm.irecv(src, tag))
    }
}

impl Drop for Scope<'_, '_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            return;
        }
        let reqs: Vec<Request> = self.deferred.get_mut().drain(..).collect();
        if !reqs.is_empty() {
            let _ = self.comm.waitall_payload(reqs);
        }
    }
}

/// A request owned by a [`Scope`]. Dropping it does not leak the slot:
/// the scope completes it on exit.
pub struct ScopedRequest<'s, 'a, 'h> {
    scope: &'s Scope<'a, 'h>,
    req: Option<Request>,
}

impl ScopedRequest<'_, '_, '_> {
    /// Wait now; bytes are format-agnostic like [`Comm::wait`].
    pub fn wait(mut self) -> (Status, Option<Bytes>) {
        let req = self.req.take().expect("scoped request waited once");
        self.scope.comm.wait(req)
    }

    /// Wait now with full payload dispatch, like
    /// [`Comm::wait_payload`].
    pub fn wait_payload(mut self) -> (Status, Option<RecvPayload>) {
        let req = self.req.take().expect("scoped request waited once");
        self.scope.comm.wait_payload(req)
    }

    /// Has this request already completed (`MPI_Test` flag)? Never
    /// blocks or advances the clock.
    pub fn test(&self) -> bool {
        self.req
            .as_ref()
            .is_some_and(|r| self.scope.comm.test_ready(r))
    }

    /// Release the request from the scope's completion guarantee,
    /// handing the raw [`Request`] back to the caller.
    pub fn detach(mut self) -> Request {
        self.req.take().expect("scoped request detached once")
    }
}

impl Drop for ScopedRequest<'_, '_, '_> {
    fn drop(&mut self) {
        if let Some(req) = self.req.take() {
            self.scope.deferred.borrow_mut().push(req);
        }
    }
}

impl<'h> Comm<'h> {
    /// Run `f` with a [`Scope`]: every request attached to it is
    /// complete when `scope` returns (waited early by `f`, or drained
    /// by the scope on exit).
    pub fn scope<R>(&self, f: impl FnOnce(&Scope<'_, 'h>) -> R) -> R {
        let scope = Scope {
            comm: self,
            deferred: RefCell::new(Vec::new()),
        };
        f(&scope)
    }

    /// An empty [`CompletionSet`] on this communicator.
    pub fn completion_set(&self) -> CompletionSet<'_, 'h> {
        CompletionSet::new(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chunk::{ChunkFrame, SendPayload};
    use crate::comm::Charge;
    use crate::ctrl::NACK_TAG;
    use crate::world::World;
    use bytes::Bytes;
    use empi_netsim::{NetModel, VDur, VTime};

    const DATA_TAG: u32 = 7;

    /// `wait`/`waitany`/`waitall` must complete a chunked (pipelined)
    /// train without panicking, assembling the frames in transmission
    /// order with framing intact.
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
                true
            } else {
                // wait: single chunked train, contiguous bytes.
                let r = c.irecv(crate::types::Src::Is(0), TagSel::Is(DATA_TAG));
                let (st, data) = c.wait(r);
                assert_eq!(st.source, 0);
                assert_eq!(data.as_deref(), Some(&expect(10)[..]));
                // waitany: chunked train through the set path.
                let mut reqs = vec![c.irecv(crate::types::Src::Is(0), TagSel::Is(DATA_TAG + 1))];
                let (idx, _, data) = c.waitany(&mut reqs);
                assert_eq!((idx, reqs.len()), (0, 0));
                assert_eq!(data.as_deref(), Some(&expect(40)[..]));
                // waitall: chunked train retired by the set poller.
                let reqs = vec![c.irecv(crate::types::Src::Is(0), TagSel::Is(DATA_TAG + 2))];
                let res = c.waitall(reqs);
                assert_eq!(res[0].1.as_deref(), Some(&expect(70)[..]));
                true
            }
        });
        assert!(out.results.iter().all(|&b| b));
    }

    /// `waitall` retires requests in completion order but reports in
    /// slot order, and a `CompletionSet` keeps indices stable.
    #[test]
    fn completion_set_reports_stable_indices() {
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
                let mut set = c.completion_set();
                for i in 0..4u32 {
                    let idx = set.add(c.irecv(crate::types::Src::Is(0), TagSel::Is(DATA_TAG + i)));
                    assert_eq!(idx, i as usize);
                }
                let done = set.waitall();
                assert!(set.is_empty());
                done.into_iter()
                    .map(|(i, st, p)| {
                        let bytes = p.unwrap().into_bytes();
                        assert_eq!(bytes[0] as usize, i);
                        (i, st.tag)
                    })
                    .collect::<Vec<_>>()
            }
        });
        assert_eq!(
            out.results[1],
            (0..4)
                .map(|i| (i as usize, DATA_TAG + i))
                .collect::<Vec<_>>()
        );
    }

    /// `waitsome` returns at least one completion and drains whatever
    /// else is ready at that instant; a windowed driver using it
    /// receives every message exactly once.
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
                MSGS
            } else {
                let mut set = c.completion_set();
                let mut posted = 0usize;
                let mut got = [false; MSGS];
                let mut n_done = 0usize;
                while posted < WINDOW.min(MSGS) {
                    set.add(c.irecv(
                        crate::types::Src::Is(0),
                        TagSel::Is(DATA_TAG + posted as u32),
                    ));
                    posted += 1;
                }
                while n_done < MSGS {
                    for (i, _, payload) in set.waitsome() {
                        let bytes = payload.unwrap().into_bytes();
                        assert_eq!(bytes[0] as usize, i);
                        assert!(!got[i], "slot {i} completed twice");
                        got[i] = true;
                        n_done += 1;
                        if posted < MSGS {
                            let idx = set.add(c.irecv(
                                crate::types::Src::Is(0),
                                TagSel::Is(DATA_TAG + posted as u32),
                            ));
                            assert_eq!(idx, posted);
                            posted += 1;
                        }
                    }
                }
                n_done
            }
        });
        assert_eq!(out.results, vec![MSGS, MSGS]);
    }

    /// `testany`/`testall` never advance the clock and are
    /// all-or-nothing (`testall`). A testany-driven loop with a
    /// waitany fallback (to advance virtual time) drains the set.
    #[test]
    fn test_calls_do_not_advance_time() {
        let w = World::flat(NetModel::ethernet_10g(), 2);
        let out = w.run(|c| {
            if c.rank() == 0 {
                c.send(&[1u8; 64], 1, DATA_TAG);
                c.send(&[2u8; 64], 1, DATA_TAG + 1);
                0
            } else {
                let mut set = c.completion_set();
                set.add(c.irecv(crate::types::Src::Is(0), TagSel::Is(DATA_TAG)));
                set.add(c.irecv(crate::types::Src::Is(0), TagSel::Is(DATA_TAG + 1)));
                // Nothing has arrived at t=0: tests must refuse without
                // moving the clock.
                let t0 = c.now();
                assert!(set.testany().is_none());
                assert!(set.testall().is_none());
                assert_eq!(c.now(), t0);
                assert_eq!(set.live(), 2);
                // Blocking wait advances time to the first arrival …
                let (_, _, p) = set.waitany().unwrap();
                assert!(p.is_some());
                // … after which the straggler eventually test-completes
                // (both sends were posted before our waits).
                let rest = loop {
                    if let Some(r) = set.testall() {
                        break r;
                    }
                    // Advance time without touching the set.
                    c.compute(VDur::from_micros(10));
                };
                assert_eq!(rest.len(), 1);
                set.live()
            }
        });
        assert_eq!(out.results[1], 0);
    }

    /// Empty-set / all-null-request edge cases: typed "trivially
    /// complete" everywhere, no hangs, no panics.
    #[test]
    fn empty_set_semantics() {
        let w = World::flat(NetModel::instant(), 2);
        let out = w.run(|c| {
            if c.rank() == 0 {
                let mut set = c.completion_set();
                assert!(set.waitany().is_none());
                assert!(set.waitsome().is_empty());
                assert!(set.waitall().is_empty());
                assert!(set.testany().is_none());
                assert_eq!(set.testall().map(|v| v.len()), Some(0));
                assert!(matches!(set.poll(None, true), SetPoll::Empty));
                // All-null slots look empty to the funnel too.
                let mut slots: Vec<Option<crate::comm::Request>> = vec![None, None, None];
                assert!(matches!(c.poll_set(&mut slots, None, true), SetPoll::Empty));
                assert!(matches!(
                    c.poll_set(&mut slots, None, false),
                    SetPoll::Empty
                ));
                // waitall on an empty vector is a no-op.
                assert!(c.waitall(Vec::new()).is_empty());
                c.send(b"go", 1, DATA_TAG);
            } else {
                let _ = c.recv(crate::types::Src::Is(0), TagSel::Is(DATA_TAG));
            }
            c.now().as_nanos()
        });
        // None of the empty-set calls may advance rank 0's clock.
        assert_eq!(out.results[0], 0);
    }

    /// A scope completes everything attached to it: requests dropped
    /// without waiting are drained on scope exit, so the isend's
    /// rendezvous is finished by the time `scope` returns.
    #[test]
    fn scope_drains_unwaited_requests() {
        let model = NetModel::ethernet_10g();
        let big = model.eager_threshold * 2; // rendezvous: completion needs the receiver
        let w = World::flat(model, 2);
        let out = w.run(|c| {
            if c.rank() == 0 {
                let buf = vec![0x5A; big];
                c.scope(|s| {
                    let r = s.isend(&buf, 1, DATA_TAG);
                    assert!(!r.test()); // rendezvous cannot be done yet
                                        // Dropped unwaited: the scope must finish it.
                });
                // The rendezvous only completes once the receiver
                // arrives, so scope exit blocked until then.
                c.now().as_nanos() > 0
            } else {
                c.compute(VDur::from_micros(500));
                let (st, data) = c.recv(crate::types::Src::Is(0), TagSel::Is(DATA_TAG));
                st.len == big && data.iter().all(|&b| b == 0x5A)
            }
        });
        assert!(out.results.iter().all(|&b| b));
    }

    /// A detached request escapes the scope's guarantee and is waited
    /// manually; early waits inside the scope hand back payloads.
    #[test]
    fn scope_detach_and_early_wait() {
        let w = World::flat(NetModel::instant(), 2);
        let out = w.run(|c| {
            if c.rank() == 0 {
                c.send(b"one", 1, DATA_TAG);
                c.send(b"two", 1, DATA_TAG + 1);
                0
            } else {
                c.compute(VDur::from_micros(10));
                let detached = c.scope(|s| {
                    let early = s.irecv(crate::types::Src::Is(0), TagSel::Is(DATA_TAG));
                    let (_, data) = early.wait();
                    assert_eq!(data.as_deref(), Some(&b"one"[..]));
                    s.irecv(crate::types::Src::Is(0), TagSel::Is(DATA_TAG + 1))
                        .detach()
                });
                let (_, data) = c.wait(detached);
                assert_eq!(data.as_deref(), Some(&b"two"[..]));
                data.unwrap().len()
            }
        });
        assert_eq!(out.results[1], 3);
    }

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
                let probe = c.probe_either(
                    (crate::types::Src::Is(1), TagSel::Is(DATA_TAG)),
                    (crate::types::Src::Is(2), TagSel::Is(NACK_TAG)),
                );
                assert!(!probe.0, "probe_either must prefer data on a tie");
                assert_eq!(probe.1.source, 1);

                // poll_set: the irecv completes at t=0, tied with the
                // ctrl frame — data wins.
                let nack = (crate::types::Src::Is(2), TagSel::Is(NACK_TAG));
                let mut slot = [Some(
                    c.irecv(crate::types::Src::Is(1), TagSel::Is(DATA_TAG)),
                )];
                match c.poll_set(&mut slot, Some(nack), true) {
                    SetPoll::Done(0, st, payload) => {
                        assert_eq!(st.source, 1);
                        assert_eq!(payload.unwrap().into_bytes().as_ref(), b"data");
                    }
                    other => panic!("poll_set must prefer data on a tie: {other:?}"),
                }

                // CompletionSet::waitany_or_ctrl over a fresh data
                // message, same tie.
                let mut set = c.completion_set();
                set.add(c.irecv(crate::types::Src::Is(1), TagSel::Is(DATA_TAG + 1)));
                match set.waitany_or_ctrl(nack) {
                    SetPoll::Done(0, st, _) => assert_eq!(st.source, 1),
                    other => panic!("waitany_or_ctrl must prefer data on a tie: {other:?}"),
                }

                // With no data in flight the ctrl frame does win, and
                // the request stays in the set.
                set.add(c.irecv(crate::types::Src::Is(1), TagSel::Is(DATA_TAG + 2)));
                match set.waitany_or_ctrl(nack) {
                    SetPoll::Ctrl => assert_eq!(set.live(), 1),
                    other => panic!("no data posted yet: ctrl must win: {other:?}"),
                }
                let (_, ctrl) = c.recv(crate::types::Src::Is(2), TagSel::Is(NACK_TAG));
                assert_eq!(ctrl.as_ref(), b"nack");
                // Release rank 1's last send.
                c.send(b"go", 1, DATA_TAG + 3);
                let (_, st, payload) = set.waitany().expect("one request still live");
                (st.source, payload.unwrap().into_bytes().len())
            }
            1 => {
                c.send(b"data", 0, DATA_TAG);
                c.send(b"tied", 0, DATA_TAG + 1);
                // Only send the last data message once rank 0 asks,
                // guaranteeing the ctrl-wins leg really has no data.
                let _ = c.recv(crate::types::Src::Is(0), TagSel::Is(DATA_TAG + 3));
                c.send(b"late", 0, DATA_TAG + 2);
                (0, 0)
            }
            _ => {
                c.send(b"nack", 0, NACK_TAG);
                (0, 0)
            }
        });
        assert_eq!(out.results[0], (1, 4));
    }
}
