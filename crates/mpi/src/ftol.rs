//! Crash-stop fault tolerance, modeled on MPI ULFM.
//!
//! The stack survives *message-level* faults via the ARQ layer and
//! manages keys in-band, but a *process-level* fault — a rank killed
//! by the crash plan — must degrade a job, not the world. This module
//! adds the three ULFM ingredients on top of the engine's typed death
//! machinery ([`empi_netsim::CrashPlan`]):
//!
//! 1. **A lease-based failure detector.** A fault-tolerant wait
//!    (`ft_send`/`ft_recv`, and the control-aware
//!    `ft_wait_sent`/`ft_probe_either` the secure layer builds its own
//!    ft verbs on) is an ordinary wait with the lease armed:
//!    `Comm::park` run through `Comm::park_leased` below, which is
//!    the one place the wait protocol — lease deadline
//!    ([`DetectorConfig::lease`]) on the engine's quiescence timer,
//!    notice, probe round, idle-round guard — is written.
//!    On a healthy run some rank is always runnable, the timer never
//!    fires, and the armed detector costs **zero** virtual time and
//!    **zero** wire bytes — detection work happens only at the moment
//!    the world would otherwise deadlock. When a lease does expire the
//!    rank probes the suspects' node daemons (one [`PROBE_RTT`] per
//!    round): a *crashed* process is confirmed immediately (the OS saw
//!    it exit), a *hung* process still holds its lease, so
//!    [`CONFIRM_ROUNDS`] missed rounds are required. Live ranks always
//!    answer, so the detector has zero false positives by construction.
//! 2. **Failure-notice propagation.** The first rank to confirm a
//!    death broadcasts an [`crate::ctrl::FtNotice`] on
//!    [`crate::ctrl::FT_NOTICE_TAG`] to every live peer; ft waits
//!    watch for notices, so knowledge of a failure converges in one
//!    broadcast instead of N independent lease expiries. Every ft verb
//!    surfaces the failure as a typed [`RankFailed`].
//! 3. **Recovery verbs.** [`Comm::agree`] is a fault-aware agreement
//!    (bitwise AND over contributions, coordinator = lowest live
//!    rank, round-stamped against the liveness epoch);
//!    [`Comm::shrink`] agrees on the survivor bitmap and rebuilds a
//!    dense [`ShrunkComm`] over the survivors. The secure layer hooks
//!    [`Comm::failed_ranks`] into its revocation path so a confirmed
//!    death also burns the dead rank's key material.
//!
//! Known simplification vs. real ULFM: if the agreement coordinator
//! dies *after* delivering its decision to some participants but
//! before others, the survivors re-run the round under the next
//! coordinator and may decide a different value. Real MPI_Comm_agree
//! is uniform; the two-phase variant needed for that guarantee is out
//! of scope here and flagged in DESIGN.md §14.

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};

use bytes::Bytes;
use empi_netsim::{CrashKind, VDur, VTime};
use empi_trace::{Cat, Metric};

use crate::chunk::{RecvPayload, SendPayload};
use crate::comm::{Charge, Comm, Parked, Request, SetPoll};
use crate::ctrl::{FtNotice, FT_AGREE_RESULT_TAG, FT_AGREE_TAG, FT_NOTICE_TAG};
use crate::types::{Src, Status, Tag, TagSel};

/// Lease periods an ft wait may spend probing *live-but-silent* peers
/// before the wait is declared starved. A peer that is alive but never
/// sends is an application-level hang, the moral equivalent of a
/// deadlock — better a clear panic than a silent spin.
const MAX_IDLE_ROUNDS: u32 = 64;

/// Round trip to a suspect's node daemon for one probe round (probes
/// within a round go out in parallel): 20 µs of virtual time.
pub const PROBE_RTT: VDur = VDur(20_000);

/// Missed probe rounds before a *hung* rank is confirmed dead. A
/// crashed rank needs none — its node's OS observed the exit. Crash
/// detection latency ≤ lease + [`PROBE_RTT`] past the death; hang
/// detection ≤ `CONFIRM_ROUNDS` × (lease + [`PROBE_RTT`]) + lease.
pub const CONFIRM_ROUNDS: u32 = 3;

/// The failure detector's one timing value, in virtual time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DetectorConfig {
    /// How long an ft wait parks before suspecting its peers. Larger
    /// leases cost nothing on healthy runs (the timer only fires at
    /// quiescence) but bound detection latency from below.
    pub lease: VDur,
}

impl Default for DetectorConfig {
    fn default() -> Self {
        DetectorConfig {
            lease: VDur::from_micros(500),
        }
    }
}

/// Typed failure surfaced by every ft verb: `rank` was confirmed dead
/// and the local liveness epoch (count of known failures) is `epoch`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RankFailed {
    /// The rank confirmed dead.
    pub rank: usize,
    /// Failures this rank knows of, including this one.
    pub epoch: u32,
}

impl std::fmt::Display for RankFailed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "rank {} failed (liveness epoch {})",
            self.rank, self.epoch
        )
    }
}

impl std::error::Error for RankFailed {}

/// Per-rank detector state, created by the world when built with
/// [`crate::World::with_ftol`].
pub(crate) struct FtolState {
    pub(crate) cfg: DetectorConfig,
    /// Ranks confirmed dead (locally or via notice), monotone.
    failed: RefCell<BTreeSet<usize>>,
    /// Consecutive missed probe rounds per hung suspect.
    misses: RefCell<BTreeMap<usize, u32>>,
    /// Last poll-style probe per peer (ns), rate-limiting
    /// [`Comm::ft_probe`] to one round per lease period.
    last_probe: RefCell<BTreeMap<usize, u64>>,
}

impl FtolState {
    pub(crate) fn new(cfg: DetectorConfig) -> Self {
        FtolState {
            cfg,
            failed: RefCell::new(BTreeSet::new()),
            misses: RefCell::new(BTreeMap::new()),
            last_probe: RefCell::new(BTreeMap::new()),
        }
    }
}

fn encode_agree(epoch: u32, value: u64) -> Vec<u8> {
    let mut out = Vec::with_capacity(12);
    out.extend_from_slice(&epoch.to_be_bytes());
    out.extend_from_slice(&value.to_be_bytes());
    out
}

fn decode_agree(buf: &[u8]) -> Option<(u32, u64)> {
    if buf.len() != 12 {
        return None;
    }
    Some((
        u32::from_be_bytes(buf[0..4].try_into().ok()?),
        u64::from_be_bytes(buf[4..12].try_into().ok()?),
    ))
}

impl<'h> Comm<'h> {
    fn det(&self) -> &FtolState {
        self.ftol
            .as_ref()
            .expect("fault tolerance is off; build the world with with_ftol(DetectorConfig)")
    }

    /// Was this world built with a failure detector
    /// ([`crate::World::with_ftol`])?
    pub fn ftol_enabled(&self) -> bool {
        self.ftol.is_some()
    }

    /// The installed detector config, if any.
    pub fn detector_config(&self) -> Option<DetectorConfig> {
        self.ftol.as_ref().map(|s| s.cfg)
    }

    /// Ranks this rank has confirmed dead, in ascending order.
    pub fn failed_ranks(&self) -> Vec<usize> {
        self.det().failed.borrow().iter().copied().collect()
    }

    /// Count of failures this rank knows of (the liveness epoch).
    pub fn liveness_epoch(&self) -> u32 {
        self.det().failed.borrow().len() as u32
    }

    /// Every rank not confirmed dead, this one included, ascending.
    fn live_ranks(&self) -> Vec<usize> {
        let dead = self.det().failed.borrow();
        (0..self.size()).filter(|r| !dead.contains(r)).collect()
    }

    /// The typed failure of `rank` at this rank's liveness epoch.
    fn rank_failed(&self, rank: usize) -> RankFailed {
        RankFailed {
            rank,
            epoch: self.liveness_epoch(),
        }
    }

    /// The typed failure of `rank`, if it is already confirmed dead.
    fn known_dead(&self, rank: usize) -> Option<RankFailed> {
        let dead = self.det().failed.borrow().contains(&rank);
        dead.then(|| self.rank_failed(rank))
    }

    /// Poll-style liveness check on `peer`, for callers that run their
    /// own wait loops (the secure layer's ARQ recovery): returns the
    /// typed failure if `peer` is already confirmed dead, or — once
    /// the peer's silence has outlived a full lease — runs probe
    /// rounds (at most one per lease period, each charging one probe
    /// RTT) until the death confirms. Never parks; returns `None`
    /// while the peer is live or still inside its lease.
    pub fn ft_probe(&self, peer: usize) -> Option<RankFailed> {
        let st = self.det();
        if let Some(rf) = self.known_dead(peer) {
            return Some(rf);
        }
        self.service_notices();
        if let Some(rf) = self.known_dead(peer) {
            return Some(rf);
        }
        let (died, _) = self.h.peer_dead(peer)?;
        let now = self.now();
        if now.since(died) < st.cfg.lease {
            return None; // the lease has not lapsed yet
        }
        let since_last = now.as_nanos() - st.last_probe.borrow().get(&peer).copied().unwrap_or(0);
        if since_last < st.cfg.lease.as_nanos() {
            return None; // probed recently; let the round breathe
        }
        st.last_probe.borrow_mut().insert(peer, now.as_nanos());
        let (dead, died_at) = self.probe_round(&[peer])?;
        Some(self.register_failure_local(dead, died_at))
    }

    /// One fault-tolerance event that began at `t0_ns` and completes
    /// now: an `ftol/*` span on this rank's lane and, under the same
    /// name, its latency sample.
    fn note_ftol(
        &self,
        name: &'static str,
        t0_ns: u64,
        peer: i32,
        detail: impl FnOnce() -> String,
    ) {
        if let Some(r) = self.h.recorder() {
            let dur = self.now().as_nanos().saturating_sub(t0_ns);
            let key = Some((Metric::Ftol, name, peer));
            r.span(self.rank(), Cat::Ftol, name, t0_ns, dur, 0, detail, key);
        }
    }

    /// Register a locally confirmed death: record the detection
    /// latency, then broadcast a notice so every live peer learns of
    /// it in one hop instead of each waiting out its own lease.
    fn register_failure_local(&self, rank: usize, died_at_ns: u64) -> RankFailed {
        let st = self.det();
        let newly = st.failed.borrow_mut().insert(rank);
        if newly {
            self.note_ftol("ftol/detect", died_at_ns, rank as i32, || {
                format!("rank {rank} confirmed dead")
            });
            self.broadcast_notice(rank);
        }
        self.rank_failed(rank)
    }

    /// Register a death learned from a peer's notice broadcast.
    fn register_failure_remote(&self, rank: usize, confirmed_at_ns: u64) -> RankFailed {
        let st = self.det();
        let newly = st.failed.borrow_mut().insert(rank);
        if newly {
            self.note_ftol("ftol/notice", confirmed_at_ns, rank as i32, || {
                format!("rank {rank} reported dead by a peer")
            });
        }
        self.rank_failed(rank)
    }

    fn broadcast_notice(&self, failed: usize) {
        let notice = FtNotice {
            failed: failed as u32,
            epoch: self.liveness_epoch(),
            confirmed_at: self.now().as_nanos(),
        };
        let wire = Bytes::from(notice.encode());
        let mut reqs = Vec::new();
        for r in self.live_ranks().into_iter().filter(|&r| r != self.rank()) {
            let notice = SendPayload::Plain(wire.clone());
            reqs.push(self.post(notice, r, FT_NOTICE_TAG, Charge::Streaming));
        }
        // Notices are tiny (well under any eager threshold), so the
        // isends completed locally on posting.
        for req in reqs {
            let _ = self.wait(req);
        }
    }

    /// Drain every notice that has already arrived, registering the
    /// failures. Returns the last *newly* registered failure, if any.
    fn service_notices(&self) -> Option<RankFailed> {
        let mut newest = None;
        while self.iprobe(Src::Any, TagSel::Is(FT_NOTICE_TAG)).is_some() {
            let (_, data) = self.recv(Src::Any, TagSel::Is(FT_NOTICE_TAG));
            if let Some(n) = FtNotice::decode(&data) {
                let r = n.failed as usize;
                if !self.det().failed.borrow().contains(&r) {
                    newest = Some(self.register_failure_remote(r, n.confirmed_at));
                }
            }
        }
        newest
    }

    /// One probe round against `suspects`: charge one daemon round
    /// trip (probes go out in parallel), then consult each suspect's
    /// node daemon. Returns the first confirmed death `(rank,
    /// died_at_ns)`. A crashed suspect confirms immediately; a hung
    /// one needs [`CONFIRM_ROUNDS`] consecutive missed rounds; a live
    /// one always answers and resets its miss count.
    fn probe_round(&self, suspects: &[usize]) -> Option<(usize, u64)> {
        let st = self.det();
        let t0 = self.now().as_nanos();
        self.h.advance(PROBE_RTT);
        if let Some(r) = self.h.recorder() {
            let (me, rtt) = (self.rank(), PROBE_RTT.as_nanos());
            let detail = || format!("suspects {suspects:?}");
            r.span(me, Cat::Ftol, "ftol/probe", t0, rtt, 0, detail, None);
        }
        for &p in suspects {
            match self.h.peer_dead(p) {
                Some((died, CrashKind::Crash)) => return Some((p, died.as_nanos())),
                Some((died, CrashKind::Hang)) => {
                    let mut misses = st.misses.borrow_mut();
                    let c = misses.entry(p).or_insert(0);
                    *c += 1;
                    if *c >= CONFIRM_ROUNDS {
                        return Some((p, died.as_nanos()));
                    }
                }
                None => {
                    st.misses.borrow_mut().remove(&p);
                }
            }
        }
        None
    }

    /// The lease-armed half of [`Comm::park`], and the only place the
    /// detector's wait protocol is written: park on `event` with the
    /// lease deadline on the engine's quiescence timer, also waking on
    /// a failure notice. Pending data always drains first — a notice is
    /// only looked at when `event` has nothing. A notice that registers
    /// a new failure ends the park with it; so does a lease expiry
    /// whose probe round over `suspects` confirms a death. Probing
    /// live-but-silent peers for [`MAX_IDLE_ROUNDS`] leases panics.
    pub(crate) fn park_leased<T>(
        &self,
        reason: &'static str,
        suspects: Src,
        mut event: impl FnMut() -> Option<(VTime, Parked<T>)>,
    ) -> Parked<T> {
        let st = self.det();
        let me = self.rank();
        let notice = (Src::Any, TagSel::Is(FT_NOTICE_TAG));
        let mut idle_rounds = 0u32;
        loop {
            let deadline = self.now() + st.cfg.lease;
            let woke = self.h.block_on_deadline(reason, deadline, || {
                let event = event().map(|(at, e)| (at, Some(e)));
                event.or_else(|| Some((self.peek_status(notice.0, notice.1)?.0, None)))
            });
            match woke {
                Some(Some(ended)) => return ended,
                // A duplicate or corrupt notice registers nothing: re-park.
                Some(None) => {
                    if let Some(rf) = self.service_notices() {
                        return Parked::Failed(rf);
                    }
                }
                // Lease expired on a quiescent world: probe.
                None => {
                    let suspects = match suspects {
                        Src::Is(p) => vec![p],
                        Src::Any => self.live_ranks().into_iter().filter(|&r| r != me).collect(),
                    };
                    if let Some((dead, died_at)) = self.probe_round(&suspects) {
                        return Parked::Failed(self.register_failure_local(dead, died_at));
                    }
                    idle_rounds += 1;
                    assert!(
                        idle_rounds <= MAX_IDLE_ROUNDS,
                        "ft wait starved ({reason}): rank {me} probed live peers {suspects:?} \
                         for {idle_rounds} lease periods — they are alive but never complete \
                         this wait; this is an application-level hang, not a rank failure"
                    );
                }
            }
        }
    }

    /// Drive a lease-armed wait on `peer` to its ULFM outcome: a new
    /// failure completes it in error if `peer` is the dead rank — or,
    /// for an any-source wait, *possibly* is: it cannot know whether
    /// the dead rank was its sender. Any other rank's death re-arms it.
    fn ft_drive<T>(
        &self,
        peer: Src,
        mut wait: impl FnMut() -> Result<T, RankFailed>,
    ) -> Result<T, RankFailed> {
        loop {
            match (wait(), peer) {
                (Err(_), Src::Is(p)) => {
                    if let Some(rf) = self.known_dead(p) {
                        return Err(rf);
                    }
                }
                (done, _) => return done,
            }
        }
    }

    /// Fail fast on a source already confirmed dead — but a message it
    /// sent *before* dying is still deliverable (ULFM drains
    /// pre-failure traffic), so only when nothing from it is pending.
    fn fail_fast(&self, (src, tag): (Src, TagSel)) -> Result<(), RankFailed> {
        match src {
            Src::Is(p) if self.peek_status(src, tag).is_none() => {
                self.known_dead(p).map_or(Ok(()), Err)
            }
            _ => Ok(()),
        }
    }

    /// One lease-armed receive: the delivered message, or the new
    /// failure that interrupted it (the caller decides whether that
    /// invalidates its round or just re-arms the wait).
    fn ft_recv_once(&self, src: Src, tag: TagSel) -> Result<(Status, RecvPayload), RankFailed> {
        self.fail_fast((src, tag))?;
        match self.park("ftol/recv", Some(src), || self.try_match(src, tag)) {
            Parked::Got(matched) => Ok(self.deliver_matched(matched)),
            Parked::Failed(rf) => Err(rf),
            Parked::Ctrl(_) => unreachable!("no control filter was set"),
        }
    }

    /// Fault-tolerant blocking receive: like [`Comm::recv`], but a
    /// confirmed death of the awaited source (or, for any-source
    /// receives, of *any* rank) surfaces as [`RankFailed`] instead of
    /// hanging the world. Panics if fault tolerance is off. The payload
    /// is pooled like [`Comm::recv`]'s.
    pub fn ft_recv(&self, src: Src, tag: TagSel) -> Result<(Status, Bytes), RankFailed> {
        let (status, payload) = self.ft_drive(src, || self.ft_recv_once(src, tag))?;
        Ok((status, payload.into_bytes()))
    }

    /// [`Comm::ft_recv`] preserving the wire format (plain vs chunked
    /// frame train), for the secure layer's chunked opens.
    pub fn ft_recv_payload(&self, src: Src, tag: TagSel) -> Result<RecvPayload, RankFailed> {
        Ok(self.ft_drive(src, || self.ft_recv_once(src, tag))?.1)
    }

    /// The lease-armed [`Comm::probe_either`], for a control-plane
    /// server that must also survive its peer: `data.0` names the
    /// suspects, as for [`Comm::ft_recv`].
    pub fn ft_probe_either(
        &self,
        data: (Src, TagSel),
        ctrl: (Src, TagSel),
    ) -> Result<(bool, Status), RankFailed> {
        self.ft_drive(data.0, || {
            self.fail_fast(data)?;
            self.probe_watching("ftol/recv", data, ctrl, Some(data.0))
        })
    }

    /// Fault-tolerant blocking send: [`Comm::send`]'s accounting, but
    /// a rendezvous against a dead receiver resolves to [`RankFailed`]
    /// instead of hanging. Sends to an already-confirmed-dead rank
    /// fail immediately without touching the wire.
    pub fn ft_send(&self, buf: &[u8], dst: usize, tag: Tag) -> Result<(), RankFailed> {
        self.ft_send_bytes(Bytes::copy_from_slice(buf), dst, tag)
    }

    /// [`Comm::ft_send`] for an already-owned buffer (no copy).
    fn ft_send_bytes(&self, data: Bytes, dst: usize, tag: Tag) -> Result<(), RankFailed> {
        self.known_dead(dst).map_or(Ok(()), Err)?;
        let req = self.post(SendPayload::Plain(data), dst, tag, Charge::Blocking);
        self.ft_wait_sent(&mut [Some(req)], dst, None).map(|_| ())
    }

    /// The lease-armed [`Comm::wait_sent`], as a [`Comm::poll_set`]
    /// over sends posted to `dst`: the next completion, or — with a
    /// `ctrl` filter — [`SetPoll::Ctrl`] when a control frame comes
    /// strictly first, or [`RankFailed`] once `dst` is confirmed dead.
    /// On failure the request slots are abandoned (the simulated NIC
    /// would never complete them anyway).
    pub fn ft_wait_sent(
        &self,
        slots: &mut [Option<Request>],
        dst: usize,
        ctrl: Option<(Src, TagSel)>,
    ) -> Result<SetPoll, RankFailed> {
        let lease = Some(Src::Is(dst));
        self.ft_drive(Src::Is(dst), || {
            self.poll_slots("ftol/send", slots, ctrl, lease, true)
        })
    }

    /// The next agreement frame from `from` on `tag` that is not from
    /// a superseded round (malformed and stale frames are dropped and
    /// the receive repeated). `None`: a failure — of `from` or of any
    /// other rank — interrupted the wait, so the round must restart.
    fn recv_agree(&self, from: usize, tag: Tag, epoch: u32) -> Option<(u32, u64)> {
        loop {
            let got = self.ft_recv_once(Src::Is(from), TagSel::Is(tag));
            match decode_agree(&got.ok()?.1.into_bytes()) {
                Some((r_epoch, v)) if r_epoch >= epoch => return Some((r_epoch, v)),
                _ => continue,
            }
        }
    }

    /// Fault-aware agreement (ULFM `MPI_Comm_agree`): bitwise AND of
    /// every live rank's `contribution`, delivered to every survivor.
    /// Failures discovered mid-round are absorbed — the round restarts
    /// over the shrunken live set (round number = liveness epoch;
    /// stale contributions are dropped, notices re-synchronize the
    /// epoch) — so `agree` itself never fails; with every peer dead it
    /// degenerates to the local contribution.
    pub fn agree(&self, contribution: u64) -> u64 {
        let me = self.rank();
        'round: loop {
            self.service_notices();
            let epoch = self.liveness_epoch();
            let live = self.live_ranks();
            let coord = live[0];
            if me == coord {
                let mut acc = contribution;
                for &p in live.iter().filter(|&&p| p != me) {
                    match self.recv_agree(p, FT_AGREE_TAG, epoch) {
                        Some((r_epoch, v)) if r_epoch == epoch => acc &= v,
                        // A failure — or a participant that knows of
                        // one we have not registered yet (its notice is
                        // on the way): resynchronize.
                        _ => continue 'round,
                    }
                }
                // Decided. Deliver to the round's survivors; a failure
                // during delivery doesn't invalidate the decision.
                let wire = encode_agree(epoch, acc);
                for &p in live.iter().filter(|&&p| p != me) {
                    if self.known_dead(p).is_some() {
                        continue;
                    }
                    let _ = self.ft_send_bytes(Bytes::from(wire.clone()), p, FT_AGREE_RESULT_TAG);
                }
                return acc;
            }
            // Participant: contribute, then wait for the decision. If
            // the epoch moves meanwhile (someone else died) the
            // coordinator will stale-drop our contribution — resend it
            // under the new epoch; if the coordinator died, the next
            // round elects the new lowest live rank.
            let mine = Bytes::from(encode_agree(epoch, contribution));
            if self.ft_send_bytes(mine, coord, FT_AGREE_TAG).is_ok() {
                if let Some((_, v)) = self.recv_agree(coord, FT_AGREE_RESULT_TAG, epoch) {
                    return v;
                }
            }
        }
    }

    /// ULFM `MPI_Comm_shrink`: agree on the survivor bitmap and build
    /// a dense communicator over the survivors (world ranks in
    /// ascending order become shrunk ranks `0..n_survivors`). Requires
    /// a world of at most 64 ranks (the agreement value is one `u64`
    /// liveness bitmap).
    pub fn shrink(&self) -> ShrunkComm {
        let st = self.det();
        let t0 = self.now().as_nanos();
        let n = self.size();
        assert!(
            n <= 64,
            "shrink's liveness bitmap caps the world at 64 ranks (got {n})"
        );
        let all = if n == 64 { u64::MAX } else { (1u64 << n) - 1 };
        let mut bitmap = all;
        for &f in st.failed.borrow().iter() {
            bitmap &= !(1 << f);
        }
        let agreed = self.agree(bitmap);
        let members: Vec<usize> = (0..n).filter(|r| agreed & (1 << r) != 0).collect();
        let my_rank = members
            .iter()
            .position(|&r| r == self.rank())
            .expect("shrink caller must be a survivor");
        self.note_ftol("ftol/shrink", t0, -1, || {
            format!("{} survivors of {}", members.len(), n)
        });
        ShrunkComm { members, my_rank }
    }
}

/// The survivor map of a [`Comm::shrink`]: dense ranks `0..size()` over
/// the surviving world ranks in ascending order. Survivors address each
/// other by translating with [`ShrunkComm::world_rank`] and talk over
/// the parent communicator (or a secure layer on it), so traffic among
/// them is the traffic of a world that never contained the dead ranks.
pub struct ShrunkComm {
    members: Vec<usize>,
    my_rank: usize,
}

impl ShrunkComm {
    /// This rank within the shrunk communicator.
    pub fn rank(&self) -> usize {
        self.my_rank
    }

    /// Survivor count.
    pub fn size(&self) -> usize {
        self.members.len()
    }

    /// The surviving world ranks, in shrunk-rank order.
    pub fn members(&self) -> &[usize] {
        &self.members
    }

    /// Translate a shrunk rank to its world rank.
    pub fn world_rank(&self, rank: usize) -> usize {
        self.members[rank]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::World;
    use empi_netsim::{CrashPlan, NetModel, VTime};

    fn us(n: u64) -> VTime {
        VTime(n * 1_000)
    }

    /// A rank killed mid-compute surfaces as a typed `RankFailed` at
    /// every survivor waiting on it — never a panic or deadlock.
    #[test]
    fn crash_surfaces_as_rank_failed_at_every_survivor() {
        let w = World::flat(NetModel::ethernet_10g(), 4)
            .with_ftol(DetectorConfig::default())
            .crash_plan(CrashPlan::new().crash_at(2, us(100)));
        let out = w
            .try_run_ft(|c| {
                if c.rank() == 2 {
                    // Dies 100µs into this compute block.
                    c.compute(VDur::from_micros(10_000));
                    unreachable!("rank 2 dies mid-compute");
                }
                let err = c
                    .ft_recv(Src::Is(2), TagSel::Is(1))
                    .expect_err("typed failure");
                (err.rank, err.epoch)
            })
            .expect("survivors must finish");
        assert_eq!(out.deaths[2], Some((us(100), CrashKind::Crash)));
        for r in [0usize, 1, 3] {
            assert_eq!(out.results[r], Some((2, 1)), "rank {r}");
        }
        assert!(out.results[2].is_none(), "dead rank has no result");
    }

    /// A hung rank needs [`CONFIRM_ROUNDS`] missed probe rounds; a crashed one
    /// is confirmed on the first probe. Detection latency is bounded
    /// by the lease arithmetic in both cases.
    #[test]
    fn hang_needs_confirm_rounds_crash_does_not() {
        let cfg = DetectorConfig::default();
        let run = |plan: CrashPlan| {
            let w = World::flat(NetModel::ethernet_10g(), 2)
                .with_ftol(cfg)
                .traced(true)
                .crash_plan(plan);
            let out = w
                .try_run_ft(|c| {
                    if c.rank() == 1 {
                        c.compute(VDur::from_micros(10_000));
                        unreachable!("rank 1 dies mid-compute");
                    }
                    let err = c
                        .ft_recv(Src::Is(1), TagSel::Is(0))
                        .expect_err("rank 1 dies");
                    assert_eq!(err.rank, 1);
                    c.now()
                })
                .unwrap();
            let probes = out.trace.expect("traced").per_rank[0].ft_probes;
            (out.results[0].expect("rank 0 survives"), probes)
        };
        let (crash_t, crash_probes) = run(CrashPlan::new().crash_at(1, us(50)));
        let (hang_t, hang_probes) = run(CrashPlan::new().hang_at(1, us(50)));
        assert_eq!(crash_probes, 1, "crash confirms on the first probe");
        assert_eq!(
            hang_probes,
            u64::from(CONFIRM_ROUNDS),
            "hang needs confirm rounds"
        );
        assert!(
            hang_t > crash_t,
            "hang detection is slower ({hang_t:?} vs {crash_t:?})"
        );
        // Crash: one lease + one probe RTT past the wait start.
        let bound = us(50).as_nanos() + cfg.lease.as_nanos() + PROBE_RTT.as_nanos();
        assert!(
            crash_t.as_nanos() <= bound + cfg.lease.as_nanos(),
            "crash detected at {} > bound {}",
            crash_t.as_nanos(),
            bound + cfg.lease.as_nanos()
        );
    }

    /// The armed-but-idle detector is free: a clean run over the ft
    /// verbs is virtual-time- and wire-byte-identical to the same
    /// traffic over the plain verbs with no detector installed.
    #[test]
    fn armed_idle_detector_costs_nothing() {
        let traffic_ft = |c: &Comm| {
            if c.rank() == 0 {
                c.ft_send(&[7u8; 256], 1, 3).unwrap();
                let (_, data) = c.ft_recv(Src::Is(1), TagSel::Is(4)).unwrap();
                data.len()
            } else {
                let (_, data) = c.ft_recv(Src::Is(0), TagSel::Is(3)).unwrap();
                c.ft_send(&data, 0, 4).unwrap();
                data.len()
            }
        };
        let traffic_plain = |c: &Comm| {
            if c.rank() == 0 {
                c.send(&[7u8; 256], 1, 3);
                let (_, data) = c.recv(Src::Is(1), TagSel::Is(4));
                data.len()
            } else {
                let (_, data) = c.recv(Src::Is(0), TagSel::Is(3));
                c.send(&data, 0, 4);
                data.len()
            }
        };
        let armed = World::flat(NetModel::ethernet_10g(), 2)
            .with_ftol(DetectorConfig::default())
            .try_run_ft(traffic_ft)
            .unwrap();
        let plain = World::flat(NetModel::ethernet_10g(), 2).run(traffic_plain);
        assert_eq!(
            armed.end_time, plain.end_time,
            "armed detector moved virtual time"
        );
        assert_eq!(
            armed.fabric.bytes, plain.fabric.bytes,
            "armed detector touched the wire"
        );
        assert_eq!(armed.fabric.messages, plain.fabric.messages);
        assert_eq!(
            armed
                .results
                .into_iter()
                .map(Option::unwrap)
                .collect::<Vec<_>>(),
            plain.results
        );
    }

    /// agree absorbs the death of the coordinator (lowest live rank):
    /// survivors re-elect and all decide the same value.
    #[test]
    fn agree_survives_coordinator_death() {
        let w = World::flat(NetModel::ethernet_10g(), 4)
            .with_ftol(DetectorConfig::default())
            .crash_plan(CrashPlan::new().crash_at(0, us(10)));
        let out = w
            .try_run_ft(|c| {
                if c.rank() == 0 {
                    c.compute(VDur::from_micros(10_000));
                    unreachable!("rank 0 dies mid-compute");
                }
                c.agree(!(1u64 << c.rank()))
            })
            .unwrap();
        let decisions: Vec<u64> = [1usize, 2, 3]
            .iter()
            .map(|&r| out.results[r].expect("survivor decided"))
            .collect();
        let expect = !(1u64 << 1) & !(1u64 << 2) & !(1u64 << 3);
        assert!(
            decisions.iter().all(|&d| d == expect),
            "split decision: {decisions:x?}"
        );
    }

    /// shrink after a crash produces a dense survivor map: a ring
    /// exchange addressed through it gives exactly what the same ring
    /// gives in a fresh world of the survivor count that never
    /// contained the dead rank.
    #[test]
    fn shrink_matches_world_born_without_the_dead_rank() {
        let ring = |c: &Comm, rank: usize, size: usize, world: &dyn Fn(usize) -> usize| {
            let (next, prev) = (world((rank + 1) % size), world((rank + size - 1) % size));
            let (st, got) = c.sendrecv(&[rank as u8 * 10], next, 5, Src::Is(prev), TagSel::Is(5));
            (rank, st.len, got[0])
        };
        let w = World::flat(NetModel::ethernet_10g(), 4)
            .with_ftol(DetectorConfig::default())
            .crash_plan(CrashPlan::new().crash_at(1, us(20)));
        let out = w
            .try_run_ft(|c| {
                if c.rank() == 1 {
                    c.compute(VDur::from_micros(10_000));
                    unreachable!("rank 1 dies mid-compute");
                }
                // Block on the doomed rank until the detector fires.
                let err = c
                    .ft_recv(Src::Is(1), TagSel::Is(0))
                    .expect_err("rank 1 dies");
                assert_eq!(err.rank, 1);
                let sc = c.shrink();
                assert_eq!(sc.members(), &[0, 2, 3]);
                assert_eq!(sc.world_rank(sc.rank()), c.rank());
                ring(c, sc.rank(), sc.size(), &|r| sc.world_rank(r))
            })
            .unwrap();
        let fresh = World::flat(NetModel::ethernet_10g(), 3).run(|c| ring(c, c.rank(), 3, &|r| r));
        let survivors: Vec<_> = [0usize, 2, 3].iter().map(|&r| out.results[r]).collect();
        let expect: Vec<_> = fresh.results.into_iter().map(Some).collect();
        assert_eq!(survivors, expect, "shrunk ring diverges from a fresh world");
    }

    /// Sends to an already-confirmed-dead rank fail fast without
    /// touching the wire; messages the dead rank sent *before* dying
    /// are still deliverable (ULFM drains pre-failure traffic).
    #[test]
    fn dead_rank_fails_fast_but_predeath_traffic_drains() {
        let w = World::flat(NetModel::ethernet_10g(), 2)
            .with_ftol(DetectorConfig::default())
            .crash_plan(CrashPlan::new().crash_at(1, us(200)));
        let out = w
            .try_run_ft(|c| {
                if c.rank() == 1 {
                    c.send(b"parting", 0, 9);
                    c.compute(VDur::from_micros(10_000));
                    unreachable!("rank 1 dies mid-compute");
                }
                // Learn of the death the hard way first.
                let err = c
                    .ft_recv(Src::Is(1), TagSel::Is(1))
                    .expect_err("rank 1 dies");
                assert_eq!(err.rank, 1);
                // Fast-fail on new traffic to the corpse...
                let t0 = c.now();
                assert!(c.ft_send(b"x", 1, 2).is_err());
                assert_eq!(c.now(), t0, "fast-fail must not advance time");
                // ...but the pre-death message is still there.
                let (st, data) = c
                    .ft_recv(Src::Is(1), TagSel::Is(9))
                    .expect("pre-death message");
                assert_eq!(&data[..], b"parting");
                assert_eq!(st.source, 1);
            })
            .unwrap();
        assert!(out.results[0].is_some());
    }
}
