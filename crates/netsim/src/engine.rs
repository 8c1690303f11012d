//! Conservative virtual-time execution engine: one min-key run queue,
//! ranks as coroutines, and carrier threads that run them.
//!
//! Each simulated rank runs real Rust code as a stackful coroutine with
//! its own 2 MiB stack. State interactions are serialized into
//! **tenures**: a scheduler token guarantees exactly one rank executes a
//! tenure at a time, and the token always goes to the grantable rank
//! with the smallest key `(virtual clock, rank)`. That gives three
//! properties the benchmarks rely on:
//!
//! 1. *Causality*: when a rank executes at virtual time `t`, every other
//!    rank has logically reached `t`, so no message can later arrive
//!    "from the past".
//! 2. *Modelled parallelism*: each rank owns a dedicated virtual core
//!    (the paper's regime — 64 ranks on 64 physical cores), even though
//!    the host machine may have a single core.
//! 3. *Determinism of structure*: message-matching order depends only on
//!    virtual timestamps, not on which host thread ran what.
//!
//! # The run queue and detached compute
//!
//! Every `Ready` rank has one entry in a single binary heap over
//! `(clock, rank)`; granting the token pops its minimum, so a grant
//! costs `O(log n)` whatever the carrier count.
//!
//! Real host work (crypto, kernel arithmetic) leaves the token in one
//! way: [`SimHandle::charge_overlapped`] charges a *known* model cost
//! `d`, then runs the closure **detached** — the rank's clock moves to
//! `now + d` and the token is released first, so tenures with smaller
//! keys proceed on another carrier while the closure runs. Because the
//! closure performs no simulation-state operations and the rank's next
//! tenure keeps exactly the key it would have had serially, the tenure
//! sequence — and therefore every virtual time, wire byte, and trace
//! event — is the same for every carrier count.
//!
//! Virtual time has no other source: the engine never reads the host
//! clock. Host work a rank does between two engine calls holds the
//! token and costs no virtual time.
//!
//! # Hand-off and carriers
//!
//! [`Engine::shards`] is the number of host threads that run rank code:
//! carrier 0 is the thread that called the run, the others are spawned
//! for it and sleep when idle. A tenure change names the next holder
//! under the scheduler lock; after the lock is dropped the releasing
//! coroutine switches to the named one on the same carrier — a
//! user-space stack switch, no system call. A rank granted its own token
//! again switches nothing. A one-carrier world is one thread.
//!
//! Rank code interacts with the engine through [`SimHandle`]:
//! [`SimHandle::advance`] charges virtual compute time and
//! [`SimHandle::block_on`] parks the rank until a peer calls
//! [`SimHandle::notify_rank`].

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use empi_pool::BufferPool;
use empi_trace::{Cat, Metric, MetricsSnapshot, Recorder, TraceReport};
use parking_lot::{Condvar, Mutex, MutexGuard};

use crate::cores::CorePool;
use crate::fault::{CrashKind, CrashPlan};
use crate::fiber::{self, Context};
use crate::time::{VDur, VTime};

/// Why a rank is parked (for deadlock diagnostics).
type BlockReason = &'static str;

/// Per-rank diagnostic callback: extra context (queue depths, pending
/// requests) appended to the all-blocked deadlock report. Installed by
/// higher layers that know what a rank was waiting for.
type DiagFn = Arc<dyn Fn(usize) -> String + Send + Sync>;

/// Above this many live ranks the all-blocked deadlock report switches
/// from one line per rank to offenders + a block-reason histogram
/// (printing 4096 diag callbacks would bury the culprit).
const REPORT_FULL_CAP: usize = 16;

/// How many earliest-clock offenders (and how many corpses) the capped
/// report shows.
const REPORT_OFFENDERS: usize = 8;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Status {
    /// Eligible to receive the token (has a run-queue entry).
    Ready,
    /// Currently holds the token.
    Running,
    /// Parked until a peer calls `notify_rank`.
    Blocked,
    /// Rank closure returned.
    Done,
    /// Killed by the crash plan: the coroutine unwound at its death
    /// time and will never run again. Unlike `Done`, there is no
    /// result, and the rank still appears in deadlock reports so
    /// survivors' stuck waits name the corpse they were waiting on.
    Dead,
}

struct RankState {
    status: Status,
    reason: BlockReason,
    /// Armed ft-wait deadline (ns) while `Blocked`, if any. When no
    /// rank is runnable the scheduler fires the earliest such deadline
    /// instead of declaring a deadlock — the failure detector's timer.
    deadline: Option<u64>,
    /// The rank's coroutine is executing on a carrier: it holds the
    /// token, or runs a detached closure. Otherwise it is suspended (or
    /// has ended), and a carrier has to switch to it to run it.
    aboard: bool,
}

/// Sentinel panic payload used to unwind a rank's coroutine out of
/// arbitrarily deep user code when the rank dies or its world is
/// poisoned. Raised with `resume_unwind`, so no panic hook sees it, and
/// never observed by callers: the rank body catches and swallows it.
struct CrashUnwind;

struct Sched {
    ranks: Vec<RankState>,
    /// The min-key run queue over `Ready` ranks: entries are
    /// `(clock, rank)` and lazily validated at pop time (an entry is
    /// live iff its rank is still `Ready` at exactly that clock; a
    /// rank's clock cannot change while it is `Ready`, so stale entries
    /// are only ever left behind by status transitions).
    heap: BinaryHeap<Reverse<(u64, usize)>>,
    /// Which rank currently holds (or was just granted) the token.
    running: Option<usize>,
    /// The rank the previous grant named: a grant to any other rank is
    /// a real switch, a grant to the same one a kept token.
    granted: Option<usize>,
    /// Grants that changed rank (see [`FtOutcome::handoffs`]). Counted
    /// under the lock, in grant order, so it repeats exactly.
    handoffs: u64,
    /// Ranks not yet `Done`.
    active: usize,
    /// The first fatal condition (deadlock or rank panic), if any.
    poisoned: Option<SimError>,
    /// A granted rank whose coroutine is suspended and that nobody
    /// switched to: the next carrier to look for work runs it.
    handed: Option<usize>,
    /// In a poisoned world, the suspended coroutines still to be
    /// resumed once so that they unwind through their destructors.
    unwind: Vec<usize>,
    /// Coroutines that have not ended. The carriers stop at zero.
    live: usize,
    /// Carriers asleep on `Shared::idle`.
    idle: usize,
}

/// Diagnostic snapshot of one rank at the moment a deadlock was
/// declared — what the all-blocked report prints, but structured so
/// chaos tests can assert on it.
#[derive(Debug, Clone)]
pub struct RankDiag {
    /// Rank id.
    pub rank: usize,
    /// Scheduler status (`Blocked`, `Ready`, …).
    pub status: String,
    /// The `block_on` reason the rank was parked with.
    pub reason: &'static str,
    /// The rank's virtual clock (ns) at the time of the report.
    pub clock_ns: u64,
    /// Output of the installed [`Engine::diagnostics`] callback
    /// (queue depths etc.), empty if none.
    pub detail: String,
}

/// Why a simulation could not complete. Returned by
/// [`Engine::try_run`]; [`Engine::run`] raises it with
/// [`SimError::abort`].
#[derive(Debug, Clone)]
pub enum SimError {
    /// Every live rank was parked with nothing left to wake it.
    Deadlock {
        /// The rendered all-blocked report: one line per live rank in
        /// small worlds; above [`REPORT_FULL_CAP`] live ranks, a
        /// block-reason histogram plus the earliest-clock offenders
        /// and any corpses.
        report: String,
        /// Per-rank diagnostics: every live rank in small worlds, the
        /// offender subset (earliest clocks + dead ranks) in capped
        /// reports.
        ranks: Vec<RankDiag>,
    },
    /// A rank's closure panicked.
    RankPanic {
        /// The rank that panicked first.
        rank: usize,
        /// Its panic message.
        message: String,
    },
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Deadlock { report, .. } => write!(f, "{report}"),
            SimError::RankPanic { rank, message } => {
                write!(f, "rank {rank} panicked: {message}")
            }
        }
    }
}

impl std::error::Error for SimError {}

impl SimError {
    /// Panic with this error: what the non-`try` runners do with a
    /// failed world.
    pub fn abort(&self) -> ! {
        panic!("simulation aborted: {self}")
    }
}

/// A switch a coroutine is about to make: the context it leaves (its
/// own), the one it resumes, and the carrier index to hand over. Raw
/// pointers, so that an ending coroutine can make it after its handle
/// (and the `Arc` in it) is gone: the run keeps `Shared` alive until
/// every carrier has stopped.
struct Switch {
    from: *const Context,
    to: *const Context,
    carrier: usize,
}

impl Switch {
    /// Make the switch; returns the carrier index handed over when the
    /// leaving coroutine is resumed.
    ///
    /// # Safety
    ///
    /// Made by the coroutine that [`Shared::leave`] built it for, after
    /// the `sched` guard is dropped, while the run's `Shared` is alive.
    unsafe fn make(self) -> usize {
        // SAFETY: `from` is the calling coroutine's context, marked
        // suspended under the lock; `to` was marked aboard there, so no
        // other switch resumes it; a resumer of `from` waits in
        // `fiber::switch` until this save lands.
        unsafe { fiber::switch(&*self.from, &*self.to, self.carrier) }
    }
}

struct Shared {
    sched: Mutex<Sched>,
    /// Idle carriers sleep here (with `sched`) until a rank is handed
    /// to them or the world ends.
    idle: Condvar,
    /// Each rank's coroutine context, saved while it is suspended.
    ctxs: Vec<Context>,
    /// Each carrier's own context, saved while it runs a coroutine.
    homes: Vec<Context>,
    /// The carrier each rank's coroutine runs on. Only the coroutine
    /// itself reads or writes its entry: it stores the index each
    /// switch into it hands over, and leaves to that carrier's home.
    /// `Relaxed` suffices: when a coroutine moves between carriers, the
    /// switch that moves it (a release store of its stack pointer, an
    /// acquire swap by the resumer) orders its accesses.
    on: Vec<AtomicUsize>,
    /// Per-rank virtual clocks (ns). Written only by the owning rank
    /// while it holds the token (a detached closure's charge lands
    /// before the release), or by the scheduler when it fires a timer
    /// on a parked rank; read freely.
    clocks: Vec<AtomicU64>,
    /// Host threads that run rank code ([`Engine::shards`], clamped).
    carriers: usize,
    /// Total yield operations (scheduler-overhead metric).
    yields: AtomicU64,
    /// Total notify operations.
    notifies: AtomicU64,
    /// Installed recorder, if any (see [`Engine::recorder`]).
    recorder: Option<Recorder>,
    /// Extra per-rank context for the deadlock report.
    diag: Option<DiagFn>,
    /// Per-rank shared crypto worker pool (see
    /// [`SimHandle::with_core_pool`]): one set of physical core
    /// timelines per rank, shared by every communicator on that rank.
    /// Lazily created on first use. The lock is per rank and a rank's
    /// operations are sequential, so it is uncontended; it only
    /// satisfies `Sync`.
    pools: Vec<Mutex<Option<CorePool>>>,
    /// Engine-wide reusable wire-buffer pool (see
    /// [`SimHandle::buffer_pool`]). One pool for all ranks because
    /// frames cross ranks in-process: the receiver reclaims the very
    /// allocation the sender drew, closing the recycle loop.
    buf_pool: BufferPool,
    /// Scheduled process-level faults (empty = nobody dies).
    crash: CrashPlan,
    /// Executed death times (ns); `u64::MAX` = still alive. Written
    /// once, by the dying rank while it holds the token.
    deaths: Vec<AtomicU64>,
    /// Set when a rank's closure returns cleanly. A rank that exits
    /// before its scheduled death survived; the liveness oracle must
    /// not report it dead.
    finished: Vec<AtomicBool>,
}

impl Shared {
    /// Make `rank` grantable: status `Ready` plus a run-queue entry
    /// keyed by its current clock. Every path into `Ready` goes
    /// through here so the heap always covers the ready set.
    fn mark_ready(&self, s: &mut Sched, rank: usize, reason: BlockReason) {
        s.ranks[rank].status = Status::Ready;
        s.ranks[rank].reason = reason;
        s.ranks[rank].deadline = None;
        let c = self.clocks[rank].load(Ordering::Relaxed);
        s.heap.push(Reverse((c, rank)));
    }

    /// Pop the `Ready` rank with the minimum `(clock, rank)`, dropping
    /// stale entries on the way.
    fn pop_ready(&self, s: &mut Sched) -> Option<usize> {
        while let Some(Reverse((c, r))) = s.heap.pop() {
            if s.ranks[r].status == Status::Ready && self.clocks[r].load(Ordering::Relaxed) == c {
                return Some(r);
            }
        }
        None
    }

    /// Record a fatal condition. The first one wins and lists every
    /// suspended coroutine for [`Shared::pick`] to resume, so each
    /// unwinds; coroutines aboard a carrier see the poison at their
    /// next engine call. A later condition (a rank unwinding out of the
    /// poisoned world) finds that done.
    fn poison(&self, s: &mut Sched, e: SimError) {
        if s.poisoned.is_some() {
            return;
        }
        s.poisoned = Some(e);
        s.handed = None;
        s.unwind = (0..s.ranks.len())
            .rev()
            .filter(|&r| {
                let st = &s.ranks[r];
                !st.aboard && !matches!(st.status, Status::Done | Status::Dead)
            })
            .collect();
    }

    /// Grant the token to the minimum-key `Ready` rank: name it in
    /// `running` and return it. Must be called with the sched lock held
    /// and `running == None`; the caller switches to the grantee after
    /// the lock is dropped.
    ///
    /// A poisoned world grants nothing: its suspended coroutines are
    /// resumed from `unwind` alone, so none is resumed twice.
    ///
    /// When no rank is `Ready` the world is quiescent: before declaring
    /// a deadlock, fire the earliest armed event on a blocked rank — an
    /// ft-wait deadline (the failure detector's lease timer) or a
    /// scheduled crash — by advancing that rank's clock to the event
    /// time and making it Ready. Healthy runs
    /// never reach this branch (some rank is always runnable), which is
    /// what keeps an armed-but-idle detector free: its deadlines are
    /// bookkeeping until the moment the world would otherwise hang.
    fn grant(&self, s: &mut Sched) -> Option<usize> {
        debug_assert!(s.running.is_none());
        loop {
            if s.poisoned.is_some() {
                return None;
            }
            if let Some(r) = self.pop_ready(s) {
                s.running = Some(r);
                if s.granted.replace(r).is_some_and(|prev| prev != r) {
                    s.handoffs += 1;
                }
                return Some(r);
            }
            if s.active == 0 {
                return None;
            }
            // Quiescent. Earliest pending timer or crash on a blocked
            // rank, if any (ties: lowest rank).
            let mut ev: Option<(u64, usize)> = None;
            for (r, st) in s.ranks.iter().enumerate() {
                if st.status != Status::Blocked {
                    continue;
                }
                let mut t = st.deadline;
                if let Some((ct, _)) = self.crash.fate(r) {
                    t = Some(t.map_or(ct.0, |d| d.min(ct.0)));
                }
                if let Some(t) = t {
                    if ev.is_none_or(|(bt, _)| t < bt) {
                        ev = Some((t, r));
                    }
                }
            }
            if let Some((t, r)) = ev {
                let c = self.clocks[r].load(Ordering::Relaxed);
                self.clocks[r].store(c.max(t), Ordering::Relaxed);
                self.mark_ready(s, r, "timer");
                continue; // re-run the min-key pick
            }
            // Every live rank is Blocked with nothing armed: deadlock.
            let (report, ranks) = self.deadlock_report(s);
            self.poison(s, SimError::Deadlock { report, ranks });
            return None;
        }
    }

    /// Render the all-blocked report. Small worlds get the historical
    /// one-line-per-rank form; above [`REPORT_FULL_CAP`] live ranks the
    /// report is capped to a block-reason histogram plus the
    /// earliest-clock offenders and any corpses, and the diag callback
    /// runs only for the offenders.
    fn deadlock_report(&self, s: &Sched) -> (String, Vec<RankDiag>) {
        let live: Vec<usize> = (0..s.ranks.len())
            .filter(|&r| s.ranks[r].status != Status::Done)
            .collect();
        let diag_of = |r: usize| -> RankDiag {
            let detail = self.diag.as_ref().map(|d| d(r)).unwrap_or_default();
            RankDiag {
                rank: r,
                status: format!("{:?}", s.ranks[r].status),
                reason: s.ranks[r].reason,
                clock_ns: self.clocks[r].load(Ordering::Relaxed),
                detail,
            }
        };
        let line = |d: &RankDiag| {
            let mut l = format!(
                "  rank {}: {} ({}) at t={}ns",
                d.rank, d.status, d.reason, d.clock_ns
            );
            if !d.detail.is_empty() {
                l.push_str(&format!(" [{}]", d.detail));
            }
            l.push('\n');
            l
        };
        if live.len() <= REPORT_FULL_CAP {
            let mut msg = String::from("virtual-time deadlock; all ranks blocked:\n");
            let ranks: Vec<RankDiag> = live.iter().map(|&r| diag_of(r)).collect();
            for d in &ranks {
                msg.push_str(&line(d));
            }
            return (msg, ranks);
        }
        // Capped form: histogram of (status, reason), then offenders.
        let mut msg = format!(
            "virtual-time deadlock; all {} live ranks blocked (report capped):\n  block reasons:\n",
            live.len()
        );
        let mut hist: BTreeMap<(&'static str, BlockReason), usize> = BTreeMap::new();
        for &r in &live {
            let status: &'static str = match s.ranks[r].status {
                Status::Ready => "Ready",
                Status::Running => "Running",
                Status::Blocked => "Blocked",
                Status::Done => "Done",
                Status::Dead => "Dead",
            };
            *hist.entry((status, s.ranks[r].reason)).or_default() += 1;
        }
        for ((status, reason), n) in &hist {
            msg.push_str(&format!("    {n} x {status} ({reason})\n"));
        }
        // Offenders: the corpses survivors may be stuck on, then the
        // earliest-clock live ranks (the causally first stuck waits).
        let mut offenders: Vec<usize> = live
            .iter()
            .copied()
            .filter(|&r| s.ranks[r].status == Status::Dead)
            .take(REPORT_OFFENDERS)
            .collect();
        let mut by_clock: Vec<(u64, usize)> = live
            .iter()
            .copied()
            .filter(|&r| s.ranks[r].status != Status::Dead)
            .map(|r| (self.clocks[r].load(Ordering::Relaxed), r))
            .collect();
        by_clock.sort_unstable();
        offenders.extend(by_clock.iter().take(REPORT_OFFENDERS).map(|&(_, r)| r));
        let ranks: Vec<RankDiag> = offenders.iter().map(|&r| diag_of(r)).collect();
        msg.push_str(&format!(
            "  offenders (dead + {REPORT_OFFENDERS} earliest clocks):\n"
        ));
        for d in &ranks {
            msg.push_str(&line(d));
        }
        (msg, ranks)
    }

    /// The coroutine a carrier runs when no grant named one for it: a
    /// granted rank nobody switched to, or in a poisoned world one
    /// still to unwind. It is aboard from here on.
    fn pick(&self, s: &mut Sched) -> Option<usize> {
        let r = s.handed.take().or_else(|| s.unwind.pop())?;
        s.ranks[r].aboard = true;
        Some(r)
    }

    /// Decide, under the lock, where the carrier of `me` goes when `me`
    /// stops running: to `granted` if that rank's coroutine is
    /// suspended, else to whatever [`Shared::pick`] finds, else to the
    /// carrier's home loop. A granted rank that is aboard runs a
    /// detached closure on another carrier and takes the token itself.
    fn leave(&self, me: usize, s: &mut Sched, granted: Option<usize>) -> Switch {
        s.ranks[me].aboard = false;
        let to = match granted {
            Some(r) if !s.ranks[r].aboard => {
                s.ranks[r].aboard = true;
                Some(r)
            }
            _ => self.pick(s),
        };
        let carrier = self.on[me].load(Ordering::Relaxed);
        Switch {
            from: &self.ctxs[me],
            to: to.map_or(&self.homes[carrier], |r| &self.ctxs[r]),
            carrier,
        }
    }

    /// Suspend `me` where [`Shared::leave`] sends its carrier, and
    /// return with the lock held again once a switch resumes `me`.
    fn suspend<'a>(
        &'a self,
        me: usize,
        mut s: MutexGuard<'a, Sched>,
        granted: Option<usize>,
    ) -> MutexGuard<'a, Sched> {
        let switch = self.leave(me, &mut s, granted);
        drop(s);
        // SAFETY: built for `me` by `leave`, made after the guard is
        // dropped, inside the run.
        //
        // `me` may come back on a different carrier thread. Nothing in
        // rank code observes thread identity (`ranks_have_no_thread_
        // identity` in tests/stack_invariants.rs), a panic unwinds to
        // the rank body's `catch_unwind` before the coroutine ever
        // switches, so the carrier's panic count is the coroutine's own,
        // and every hand-off between carriers passes through `sched`.
        let carrier = unsafe { switch.make() };
        self.on[me].store(carrier, Ordering::Relaxed);
        self.sched.lock()
    }

    /// Return once `me` holds the token, suspending its coroutine until
    /// a grant names it. If the rank's clock has reached its scheduled
    /// death, the rank dies here instead of running: bookkeeping under
    /// the lock, the next grant left for the carrier, then a sentinel
    /// unwind out of the rank closure ([`CrashUnwind`], swallowed by the
    /// rank body). A poisoned world unwinds the rank the same way.
    fn acquire<'a>(&'a self, me: usize, mut s: MutexGuard<'a, Sched>) {
        loop {
            if s.poisoned.is_some() {
                drop(s);
                resume_unwind(Box::new(CrashUnwind));
            }
            if s.running == Some(me) {
                if let Some((t, kind)) = self.crash.fate(me) {
                    if self.clocks[me].load(Ordering::Relaxed) >= t.0
                        && self.deaths[me].load(Ordering::Relaxed) == u64::MAX
                    {
                        self.deaths[me].store(t.0, Ordering::Relaxed);
                        let st = &mut s.ranks[me];
                        (st.status, st.reason, st.deadline) = (Status::Dead, kind.label(), None);
                        s.active -= 1;
                        s.running = None;
                        s.handed = self.grant(&mut s).filter(|&r| !s.ranks[r].aboard);
                        drop(s);
                        resume_unwind(Box::new(CrashUnwind));
                    }
                }
                s.ranks[me].status = Status::Running;
                s.ranks[me].deadline = None;
                return;
            }
            s = self.suspend(me, s, None);
        }
    }

    /// Release the token with `me` in `status` (`Ready` or `Blocked`),
    /// grant the next holder, switch to it, and return once `me` holds
    /// the token again. `deadline` arms a wake-up for a `Blocked` rank:
    /// if the world quiesces, the scheduler advances the rank to it and
    /// readies it.
    fn yield_now(&self, me: usize, status: Status, reason: BlockReason, deadline: Option<u64>) {
        self.yields.fetch_add(1, Ordering::Relaxed);
        let mut s = self.sched.lock();
        if status == Status::Ready {
            self.mark_ready(&mut s, me, reason);
        } else {
            let st = &mut s.ranks[me];
            (st.status, st.reason, st.deadline) = (status, reason, deadline);
        }
        s.running = None;
        let next = self.grant(&mut s);
        if next != Some(me) && s.poisoned.is_none() {
            s = self.suspend(me, s, next);
        }
        self.acquire(me, s);
    }

    /// A carrier's home loop: run what [`Shared::pick`] finds, sleep
    /// when there is nothing, stop when every coroutine has ended.
    fn carry(&self, me: usize) {
        let mut s = self.sched.lock();
        loop {
            if let Some(r) = self.pick(&mut s) {
                drop(s);
                // SAFETY: this thread is carrier `me` running its home
                // context; `r` was marked aboard under the lock, so no
                // other switch resumes it.
                unsafe { fiber::switch(&self.homes[me], &self.ctxs[r], me) };
                s = self.sched.lock();
            } else if s.live == 0 {
                break;
            } else {
                s.idle += 1;
                self.idle.wait(&mut s);
                s.idle -= 1;
            }
        }
        drop(s);
        self.idle.notify_all();
    }
}

/// One rank's whole life on its coroutine: wait for the first grant,
/// run `f`, record how it ended, and name where its carrier goes next.
/// The handle is dropped before the coroutine's last switch.
fn rank_body<T, F>(h: SimHandle, carrier: usize, f: &F, slot: &mut Option<T>) -> Switch
where
    F: Fn(&SimHandle) -> T,
{
    let (sh, me) = (&*h.shared, h.rank);
    sh.on[me].store(carrier, Ordering::Relaxed);
    let out = catch_unwind(AssertUnwindSafe(|| {
        sh.acquire(me, sh.sched.lock());
        f(&h)
    }));
    let mut s = sh.sched.lock();
    let granted = match out {
        Ok(v) => {
            *slot = Some(v);
            sh.yields.fetch_add(1, Ordering::Relaxed);
            let st = &mut s.ranks[me];
            (st.status, st.reason, st.deadline) = (Status::Done, "finished", None);
            s.active -= 1;
            sh.finished[me].store(true, Ordering::Relaxed);
            s.running = None;
            sh.grant(&mut s)
        }
        Err(payload) => {
            // A death or a poisoned world did its bookkeeping before
            // the unwind; a detached closure may be a panic's source, so
            // only clear the token if this rank holds it.
            if !matches!(s.ranks[me].status, Status::Done | Status::Dead) {
                s.ranks[me].status = Status::Done;
                s.active -= 1;
            }
            if s.running == Some(me) {
                s.running = None;
            }
            if !payload.is::<CrashUnwind>() {
                let message = panic_message(payload.as_ref());
                sh.poison(&mut s, SimError::RankPanic { rank: me, message });
            }
            None
        }
    };
    s.live -= 1;
    sh.leave(me, &mut s, granted)
}

/// The entry of a rank's coroutine: `data` is its slot in the run's
/// list of rank bodies, `carrier` the index the first switch hands over.
///
/// # Safety
///
/// Only the first switch into a coroutine made by `try_run_ft` may call
/// this, with `data` pointing at that rank's `Option<B>`.
unsafe extern "C" fn enter<B: FnOnce(usize) -> Switch>(carrier: usize, data: *mut u8) -> ! {
    // SAFETY: `data` points at this rank's `Option<B>` in `try_run_ft`'s
    // `bodies`, which outlives every coroutine of the run and is not
    // touched by anything else while they run.
    let body = unsafe { (*data.cast::<Option<B>>()).take() };
    let last = body.expect("a coroutine starts once")(carrier);
    // SAFETY: built by `leave` for this coroutine, whose guard
    // `rank_body` dropped on return. It has ended: nothing switches back.
    unsafe { last.make() };
    unreachable!("an ended coroutine was resumed")
}

/// `enter` instantiated for the element type of `bodies`.
fn entry_of<B: FnOnce(usize) -> Switch + Send>(
    _bodies: &[Option<B>],
) -> unsafe extern "C" fn(usize, *mut u8) -> ! {
    enter::<B>
}

/// The engine owning a set of simulated ranks.
///
/// Construct with [`Engine::new`], then call [`Engine::run`].
pub struct Engine {
    n_ranks: usize,
    shards: usize,
    recorder: Option<Recorder>,
    diag: Option<DiagFn>,
    crash: CrashPlan,
}

impl Engine {
    /// An engine for `n_ranks` simulated processes.
    pub fn new(n_ranks: usize) -> Self {
        assert!(n_ranks > 0, "need at least one rank");
        Engine {
            n_ranks,
            shards: 1,
            recorder: None,
            diag: None,
            crash: CrashPlan::new(),
        }
    }

    /// Run rank code on `s` host threads (carriers), so that up to
    /// `s - 1` detached closures ([`SimHandle::charge_overlapped`])
    /// overlap the token holder. Clamped to `[1, n_ranks]`; one carrier
    /// is the calling thread alone. Virtual results are bit-identical
    /// for every `s`: the carrier count changes wall-clock only.
    pub fn shards(mut self, s: usize) -> Self {
        self.shards = s.max(1);
        self
    }

    /// Install a process-level fault schedule. Ranks named by the plan
    /// stop executing at their scheduled virtual times; use
    /// [`Engine::try_run_ft`] to run a world where deaths are expected
    /// ([`Engine::run`]/[`Engine::try_run`] treat a missing rank
    /// result as a bug).
    pub fn crash_plan(mut self, plan: CrashPlan) -> Self {
        self.crash = plan;
        self
    }

    /// Install the run's recorder. `block_on` park intervals become
    /// per-rank wait spans and wait-latency samples, higher layers
    /// reach the recorder through [`SimHandle::recorder`], and the
    /// outcome carries what [`Recorder::finish`] returns at end time:
    /// [`RunOutcome::trace`] when the recorder's span sink is on,
    /// [`RunOutcome::metrics`] when its distribution sink is. Without
    /// a recorder the hooks cost one `Option` check each. Recording
    /// never moves a virtual clock, so results are bit-identical with
    /// or without one.
    pub fn recorder(mut self, r: Recorder) -> Self {
        self.recorder = Some(r);
        self
    }

    /// Install a per-rank diagnostic callback whose output is appended
    /// to the all-blocked deadlock report. The callback runs with the
    /// scheduler lock held, so it must not yield or block; use
    /// `try_lock` on any shared state it inspects.
    pub fn diagnostics(mut self, f: impl Fn(usize) -> String + Send + Sync + 'static) -> Self {
        self.diag = Some(Arc::new(f));
        self
    }

    /// Run `f(rank, handle)` on every rank to completion and return the
    /// per-rank results in rank order, plus engine statistics.
    ///
    /// Panics (with the first failure's message) if any rank panics or
    /// if the simulation deadlocks. Chaos tests that must observe those
    /// conditions as data use [`Engine::try_run`] instead.
    pub fn run<T, F>(&self, f: F) -> RunOutcome<T>
    where
        T: Send,
        F: Fn(&SimHandle) -> T + Sync,
    {
        self.try_run(f).unwrap_or_else(|e| e.abort())
    }

    /// Like [`Engine::run`], but surfaces deadlocks and rank panics as
    /// a typed [`SimError`] instead of panicking: a deadlock returns
    /// [`SimError::Deadlock`] carrying the per-rank queue diagnostics,
    /// and a rank panic returns [`SimError::RankPanic`] with the first
    /// panic's message.
    pub fn try_run<T, F>(&self, f: F) -> Result<RunOutcome<T>, SimError>
    where
        T: Send,
        F: Fn(&SimHandle) -> T + Sync,
    {
        self.try_run_ft(f).map(FtOutcome::expect_all)
    }

    /// Fault-tolerant run: like [`Engine::try_run`], but ranks killed
    /// by the installed [`Engine::crash_plan`] are expected — their
    /// results come back as `None` alongside their death records,
    /// instead of aborting the outcome.
    pub fn try_run_ft<T, F>(&self, f: F) -> Result<FtOutcome<T>, SimError>
    where
        T: Send,
        F: Fn(&SimHandle) -> T + Sync,
    {
        fiber::settle_heap();
        let n = self.n_ranks;
        let carriers = self.shards.clamp(1, n);
        let shared = Arc::new(Shared {
            sched: Mutex::new(Sched {
                ranks: (0..n)
                    .map(|_| RankState {
                        status: Status::Ready,
                        reason: "startup",
                        deadline: None,
                        aboard: false,
                    })
                    .collect(),
                heap: (0..n).map(|r| Reverse((0, r))).collect(),
                running: None,
                granted: None,
                handoffs: 0,
                active: n,
                poisoned: None,
                handed: None,
                unwind: Vec::new(),
                live: n,
                idle: 0,
            }),
            idle: Condvar::new(),
            ctxs: (0..n).map(|_| Context::new()).collect(),
            homes: (0..carriers).map(|_| Context::new()).collect(),
            on: (0..n).map(|_| AtomicUsize::new(0)).collect(),
            clocks: (0..n).map(|_| AtomicU64::new(0)).collect(),
            carriers,
            yields: AtomicU64::new(0),
            notifies: AtomicU64::new(0),
            recorder: self.recorder.clone(),
            diag: self.diag.clone(),
            pools: (0..n).map(|_| Mutex::new(None)).collect(),
            buf_pool: BufferPool::new(),
            crash: self.crash.clone(),
            deaths: (0..n).map(|_| AtomicU64::new(u64::MAX)).collect(),
            finished: (0..n).map(|_| AtomicBool::new(false)).collect(),
        });

        // No coroutine runs yet, so the first grant waits for the first
        // carrier to look.
        {
            let mut s = shared.sched.lock();
            s.handed = shared.grant(&mut s);
        }

        let mut results: Vec<Option<T>> = (0..n).map(|_| None).collect();
        let f = &f;
        let mut bodies: Vec<Option<_>> = results
            .iter_mut()
            .enumerate()
            .map(|(rank, slot)| {
                let h = SimHandle {
                    shared: Arc::clone(&shared),
                    rank,
                    n_ranks: n,
                };
                Some(move |carrier| rank_body(h, carrier, f, slot))
            })
            .collect();
        let entry = entry_of(&bodies);
        let first = bodies.as_mut_ptr();
        let stacks: Vec<fiber::Stack> = (0..n)
            .map(|r| fiber::coroutine(entry, first.wrapping_add(r).cast(), &shared.ctxs[r]))
            .collect();
        std::thread::scope(|scope| {
            for k in 1..carriers {
                let shared = &*shared;
                std::thread::Builder::new()
                    .name(format!("empi-carrier-{k}"))
                    .spawn_scoped(scope, move || shared.carry(k))
                    .expect("spawn carrier thread");
            }
            shared.carry(0);
        });
        // Every coroutine has ended and every carrier has stopped: the
        // bodies (all taken unless the world never started them) and
        // the stacks can go.
        drop(bodies);
        drop(stacks);

        let handoffs = {
            let s = shared.sched.lock();
            if let Some(e) = s.poisoned.clone() {
                return Err(e);
            }
            s.handoffs
        };
        let end_time = VTime(
            shared
                .clocks
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .max()
                .unwrap_or(0),
        );
        let deaths = (0..n)
            .map(|r| {
                let t = shared.deaths[r].load(Ordering::Relaxed);
                if t == u64::MAX {
                    None
                } else {
                    let kind = self
                        .crash
                        .fate(r)
                        .map(|(_, k)| k)
                        .unwrap_or(CrashKind::Crash);
                    Some((VTime(t), kind))
                }
            })
            .collect();
        let (trace, metrics) = match &shared.recorder {
            Some(r) => r.finish(end_time.0),
            None => (None, None),
        };
        Ok(FtOutcome {
            results,
            deaths,
            end_time,
            yields: shared.yields.load(Ordering::Relaxed),
            handoffs,
            notifies: shared.notifies.load(Ordering::Relaxed),
            trace,
            metrics,
        })
    }
}

/// Results and statistics of one simulation run.
#[derive(Debug)]
pub struct RunOutcome<T> {
    /// Per-rank return values, in rank order.
    pub results: Vec<T>,
    /// The largest virtual clock reached by any rank.
    pub end_time: VTime,
    /// Scheduler yield operations performed.
    pub yields: u64,
    /// Yields that changed coroutines: grants naming a different rank than
    /// the grant before. The rest of `yields` are kept tokens. Like
    /// `yields` it is the same at every shard count.
    pub handoffs: u64,
    /// Notify operations performed.
    pub notifies: u64,
    /// Trace data, when the [`Engine::recorder`]'s span sink is on.
    pub trace: Option<TraceReport>,
    /// Metrics snapshot (merged at `end_time`), when the
    /// [`Engine::recorder`]'s distribution sink is on.
    pub metrics: Option<MetricsSnapshot>,
}

/// Results of a fault-tolerant run ([`Engine::try_run_ft`]): ranks
/// killed by the crash plan come back with no result and a death
/// record instead of aborting the world.
#[derive(Debug)]
pub struct FtOutcome<T> {
    /// Per-rank return values in rank order; `None` for ranks that
    /// died before their closure returned.
    pub results: Vec<Option<T>>,
    /// Executed deaths in rank order: `Some((time, kind))` for ranks
    /// the crash plan actually killed.
    pub deaths: Vec<Option<(VTime, CrashKind)>>,
    /// The largest virtual clock reached by any rank.
    pub end_time: VTime,
    /// Scheduler yield operations performed.
    pub yields: u64,
    /// Yields that changed coroutines: grants naming a different rank than
    /// the grant before. The rest of `yields` are kept tokens. Like
    /// `yields` it is the same at every shard count.
    pub handoffs: u64,
    /// Notify operations performed.
    pub notifies: u64,
    /// Trace data, when the [`Engine::recorder`]'s span sink is on.
    pub trace: Option<TraceReport>,
    /// Metrics snapshot (merged at `end_time`), when the
    /// [`Engine::recorder`]'s distribution sink is on.
    pub metrics: Option<MetricsSnapshot>,
}

impl<T> FtOutcome<T> {
    /// Convert into a [`RunOutcome`], requiring every rank to have
    /// survived. Panics if any rank died — [`Engine::run`] /
    /// [`Engine::try_run`] use this, so a crash plan on those entry
    /// points is a usage bug with a clear message.
    fn expect_all(self) -> RunOutcome<T> {
        RunOutcome {
            results: self
                .results
                .into_iter()
                .map(|r| r.expect("rank died under a crash plan; use try_run_ft"))
                .collect(),
            end_time: self.end_time,
            yields: self.yields,
            handoffs: self.handoffs,
            notifies: self.notifies,
            trace: self.trace,
            metrics: self.metrics,
        }
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic>".to_string()
    }
}

/// A rank's interface to the virtual clock and the scheduler.
pub struct SimHandle {
    shared: Arc<Shared>,
    rank: usize,
    n_ranks: usize,
}

impl SimHandle {
    /// This rank's id.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Total rank count.
    pub fn n_ranks(&self) -> usize {
        self.n_ranks
    }

    /// The engine's carrier count ([`Engine::shards`], clamped to the
    /// rank count).
    pub fn shards(&self) -> usize {
        self.shared.carriers
    }

    /// This rank's current virtual time.
    pub fn now(&self) -> VTime {
        VTime(self.shared.clocks[self.rank].load(Ordering::Relaxed))
    }

    #[inline]
    fn set_clock(&self, t: VTime) {
        self.shared.clocks[self.rank].store(t.0, Ordering::Relaxed);
    }

    /// The target clock for an advance to `t`: never backwards, and a
    /// doomed rank never executes past its scheduled death — the
    /// advance clamps to the death instant, and re-acquiring the token
    /// at that clock kills the rank (see `Shared::acquire`).
    fn clamped_target(&self, t: VTime) -> VTime {
        let mut new_t = self.now().max(t);
        if let Some((ct, _)) = self.shared.crash.fate(self.rank) {
            if new_t >= ct && self.shared.deaths[self.rank].load(Ordering::Relaxed) == u64::MAX {
                new_t = ct;
            }
        }
        new_t
    }

    /// Charge `d` of virtual compute time and yield.
    pub fn advance(&self, d: VDur) {
        self.advance_to(self.now() + d);
    }

    /// Move the clock forward to `t` (no-op move if already past) and
    /// yield so lower-clock ranks can run.
    pub fn advance_to(&self, t: VTime) {
        self.set_clock(self.clamped_target(t));
        self.shared
            .yield_now(self.rank, Status::Ready, "advance", None);
    }

    /// Charge `d` of *modeled* compute time and run `f` — real host
    /// work whose virtual cost is already known (a calibrated crypto
    /// curve, a kernel cost model) — overlapped with other ranks.
    ///
    /// If a carrier is idle, the clock moves to `now + d` and the token
    /// is released before `f` runs: the tenure goes to the idle carrier,
    /// so tenures with keys below `(now + d, rank)` — exactly the ones
    /// the serial schedule would run before this rank's next tenure —
    /// proceed there while `f` runs on this one. If no carrier is idle
    /// (always the case with one), this is `f()` followed by
    /// `advance(d)`. `f` MUST NOT touch simulation state (no sends,
    /// notifies, trace emission, or pool allocation; allocate before
    /// detaching): under that contract the tenure sequence, and with it
    /// every virtual result, is the same either way.
    pub fn charge_overlapped<T>(&self, d: VDur, f: impl FnOnce() -> T) -> T {
        let sh = &*self.shared;
        let mut s = sh.sched.lock();
        if s.idle == 0 {
            drop(s);
            let out = f();
            self.advance(d);
            return out;
        }
        self.set_clock(self.clamped_target(self.now() + d));
        sh.yields.fetch_add(1, Ordering::Relaxed);
        sh.mark_ready(&mut s, self.rank, "compute");
        s.running = None;
        // The grantee's coroutine, if suspended, goes to an idle
        // carrier; one that is aboard runs a detached closure of its own.
        s.handed = sh.grant(&mut s).filter(|&r| !s.ranks[r].aboard);
        let hand = s.handed.is_some();
        drop(s);
        if hand {
            sh.idle.notify_one();
        }
        let out = f();
        sh.acquire(self.rank, sh.sched.lock());
        out
    }

    /// Park this rank until `check` produces a completion.
    ///
    /// `check` is evaluated immediately and after every
    /// [`notify_rank`](Self::notify_rank) aimed at this rank; it returns
    /// `Some((ready_at, value))` when the awaited condition holds, where
    /// `ready_at` is the virtual time at which it became true (the clock
    /// jumps to `max(now, ready_at)`).
    ///
    /// Exclusive tenure execution makes the check-then-park sequence
    /// atomic with respect to all other ranks, so no wakeup can be
    /// lost.
    pub fn block_on<T>(
        &self,
        reason: &'static str,
        check: impl FnMut() -> Option<(VTime, T)>,
    ) -> T {
        self.park(reason, None, check)
            .expect("a wait without a deadline ends only on completion")
    }

    /// Park this rank until `check` produces a completion **or** the
    /// virtual clock reaches `deadline` with the whole world quiescent
    /// (every other live rank parked too) — the failure detector's
    /// lease timer. Returns `None` when the deadline fired.
    ///
    /// The timer is conservative: it can only fire when no rank is
    /// runnable, so on a healthy run where traffic keeps arriving it
    /// costs nothing — no wire bytes, no virtual time, no wake-ups. A
    /// completion always beats the timer (data wins ties).
    pub fn block_on_deadline<T>(
        &self,
        reason: &'static str,
        deadline: VTime,
        check: impl FnMut() -> Option<(VTime, T)>,
    ) -> Option<T> {
        self.park(reason, Some(deadline), check)
    }

    /// The one park loop behind [`Self::block_on`] and
    /// [`Self::block_on_deadline`].
    fn park<T>(
        &self,
        reason: &'static str,
        deadline: Option<VTime>,
        mut check: impl FnMut() -> Option<(VTime, T)>,
    ) -> Option<T> {
        let entered = self.now();
        let got = loop {
            if let Some((t, v)) = check() {
                self.advance_to(t);
                break Some(v);
            }
            if deadline.is_some_and(|d| self.now() >= d) {
                break None;
            }
            self.shared
                .yield_now(self.rank, Status::Blocked, reason, deadline.map(|d| d.0));
        };
        // Virtual wait = entry to completion, whether the rank actually
        // parked or the condition was already satisfied at a future
        // timestamp.
        if let Some(r) = &self.shared.recorder {
            let (t0, waited) = (entered.0, self.now().0 - entered.0);
            let key = Some((Metric::Wait, reason, -1));
            r.span(
                self.rank,
                Cat::Wait,
                reason,
                t0,
                waited,
                0,
                String::new,
                key,
            );
        }
        got
    }

    /// The liveness oracle a probe consults: is `target` dead *as of
    /// this rank's current virtual time*?
    ///
    /// This models the per-node OS daemon a real failure detector
    /// probes (procfs / process lease), not gossip: a live rank is
    /// never reported dead (probes of live peers always answer
    /// "alive", so the detector has zero false positives by
    /// construction), and a rank whose scheduled death lies at or
    /// before this rank's clock is reported dead even if the engine
    /// has not yet parked its coroutine — conservative min-clock
    /// scheduling may let a doomed rank's final pre-death instructions
    /// run in the observer's past, which is causally unobservable.
    /// [`CrashKind`] tells the caller whether the daemon saw the
    /// process exit ([`CrashKind::Crash`] — definitive) or the process
    /// is wedged but still holds its lease ([`CrashKind::Hang`] — the
    /// probe goes unanswered and the detector must count missed
    /// rounds).
    pub fn peer_dead(&self, target: usize) -> Option<(VTime, CrashKind)> {
        let (t, kind) = self.shared.crash.fate(target)?;
        if t > self.now() || self.shared.finished[target].load(Ordering::Relaxed) {
            return None;
        }
        Some((t, kind))
    }

    /// The recorder installed on this engine, if any.
    pub fn recorder(&self) -> Option<&Recorder> {
        self.shared.recorder.as_ref()
    }

    /// Run `f` against this rank's shared crypto worker pool, growing
    /// it to at least `workers` timelines first.
    ///
    /// The pool is per *rank*, not per communicator: two communicators
    /// on one rank delegate chunk seals/opens to the same physical
    /// cores, so their jobs serialize on the shared busy-until
    /// timelines instead of each modeling a phantom private pool. A
    /// communicator configured for `k` workers should schedule with
    /// [`CorePool::schedule_limited`] and limit `k`.
    pub fn with_core_pool<T>(&self, workers: usize, f: impl FnOnce(&mut CorePool) -> T) -> T {
        let mut guard = self.shared.pools[self.rank].lock();
        let pool = guard.get_or_insert_with(|| CorePool::new(workers.max(1)));
        pool.ensure_workers(workers.max(1));
        f(pool)
    }

    /// The engine-wide [`BufferPool`] backing the zero-copy hot path.
    /// Shared by every rank (buffers travel sender → receiver within
    /// one process); the handle is cheap to clone.
    pub fn buffer_pool(&self) -> &BufferPool {
        &self.shared.buf_pool
    }

    /// Wake `target` if it is parked in [`block_on`](Self::block_on),
    /// causing it to re-evaluate its condition.
    pub fn notify_rank(&self, target: usize) {
        self.shared.notifies.fetch_add(1, Ordering::Relaxed);
        let mut s = self.shared.sched.lock();
        if s.ranks[target].status == Status::Blocked {
            self.shared.mark_ready(&mut s, target, "notified");
            // The waker still holds the token; the target will be
            // considered at the waker's next yield.
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parking_lot::Mutex as PlMutex;

    #[test]
    fn clocks_advance_independently() {
        let out = Engine::new(4).run(|h| {
            h.advance(VDur::from_micros((h.rank() as u64 + 1) * 10));
            h.now()
        });
        for (r, t) in out.results.iter().enumerate() {
            assert_eq!(t.as_nanos(), (r as u64 + 1) * 10_000);
        }
        assert_eq!(out.end_time, VTime(40_000));
    }

    #[test]
    fn min_clock_scheduling_orders_events() {
        // Each rank appends (time, rank) to a shared log at staggered
        // times; the log must come out sorted by time.
        let log = PlMutex::new(Vec::new());
        Engine::new(8).run(|h| {
            for step in 0..20u64 {
                h.advance(VDur(100 + (h.rank() as u64 * 37 + step * 13) % 900));
                log.lock().push((h.now().as_nanos(), h.rank()));
            }
        });
        let log = log.into_inner();
        assert_eq!(log.len(), 160);
        for w in log.windows(2) {
            assert!(w[0].0 <= w[1].0, "events out of order: {w:?}");
        }
    }

    #[test]
    fn block_and_notify_ping() {
        // Rank 0 produces a value at t=50us; rank 1 blocks for it.
        let slot: PlMutex<Option<(VTime, u32)>> = PlMutex::new(None);
        let out = Engine::new(2).run(|h| {
            if h.rank() == 0 {
                h.advance(VDur::from_micros(50));
                *slot.lock() = Some((h.now(), 99));
                h.notify_rank(1);
                0
            } else {
                let v = h.block_on("value", || slot.lock().map(|(t, v)| (t, v)));
                assert_eq!(v, 99);
                assert_eq!(h.now(), VTime(50_000));
                v
            }
        });
        assert_eq!(out.results, vec![0, 99]);
    }

    #[test]
    fn deadlock_is_detected() {
        let result = std::panic::catch_unwind(|| {
            Engine::new(2).run(|h| {
                // Both ranks block on a condition nobody completes.
                h.block_on::<()>("never", || None);
            });
        });
        let msg = format!("{:?}", result.unwrap_err().downcast_ref::<String>());
        assert!(msg.contains("deadlock"), "got: {msg}");
    }

    #[test]
    fn deadlock_report_includes_per_rank_diagnostics() {
        let result = std::panic::catch_unwind(|| {
            Engine::new(2)
                .diagnostics(|r| format!("queue-depth-of-{r}=0"))
                .run(|h| {
                    h.advance(VDur(100 * (h.rank() as u64 + 1)));
                    h.block_on::<()>("recv", || None);
                });
        });
        let msg = format!("{:?}", result.unwrap_err().downcast_ref::<String>());
        assert!(msg.contains("deadlock"), "got: {msg}");
        // Every live rank appears with its reason, clock, and the
        // installed diagnostic line.
        assert!(
            msg.contains("rank 0") && msg.contains("rank 1"),
            "got: {msg}"
        );
        assert!(msg.contains("recv"), "got: {msg}");
        assert!(
            msg.contains("queue-depth-of-0=0") && msg.contains("queue-depth-of-1=0"),
            "got: {msg}"
        );
        assert!(
            msg.contains("t=100ns") && msg.contains("t=200ns"),
            "got: {msg}"
        );
    }

    #[test]
    fn tracer_records_wait_spans() {
        let slot: PlMutex<Option<(VTime, u32)>> = PlMutex::new(None);
        let rec = Recorder::new(2, true, true, None);
        let out = Engine::new(2).recorder(rec).run(|h| {
            if h.rank() == 0 {
                h.advance(VDur::from_micros(50));
                *slot.lock() = Some((h.now(), 7));
                h.notify_rank(1);
            } else {
                h.block_on("value", || slot.lock().map(|(t, v)| (t, v)));
            }
        });
        let trace = out.trace.expect("tracer installed");
        assert_eq!(trace.n_ranks, 2);
        // Rank 1 waited from t=0 to t=50us for rank 0's value.
        assert_eq!(trace.per_rank[1].wait_ns, 50_000);
        assert_eq!(trace.per_rank[0].wait_ns, 0);
        let span = trace
            .events
            .iter()
            .find(|e| e.cat == Cat::Wait)
            .expect("wait span recorded");
        assert_eq!(span.name, "value");
        assert_eq!(span.tid, 1);
        assert_eq!(span.dur_ns, 50_000);
        // The same call fed the wait histogram: one sample per park.
        let snap = out.metrics.expect("distribution sink on");
        assert_eq!(snap.per_rank[1].wait_samples, 1);
        assert_eq!(snap.merged(Metric::Wait, "value").max(), 50_000);
    }

    #[test]
    fn try_run_surfaces_deadlock_as_typed_error() {
        let err = Engine::new(2)
            .diagnostics(|r| format!("q{r}=0"))
            .try_run(|h| {
                h.advance(VDur(50 * (h.rank() as u64 + 1)));
                h.block_on::<()>("recv", || None);
            })
            .unwrap_err();
        match err {
            SimError::Deadlock { report, ranks } => {
                assert!(report.contains("deadlock"), "got: {report}");
                assert_eq!(ranks.len(), 2);
                assert_eq!(ranks[0].reason, "recv");
                assert_eq!(ranks[0].clock_ns, 50);
                assert_eq!(ranks[1].clock_ns, 100);
                assert!(ranks[1].detail.contains("q1=0"), "got: {:?}", ranks[1]);
            }
            e => panic!("expected deadlock, got {e}"),
        }
    }

    #[test]
    fn try_run_surfaces_rank_panic_as_typed_error() {
        let err = Engine::new(2)
            .try_run(|h| {
                if h.rank() == 1 {
                    panic!("chaos strikes");
                }
                h.block_on::<()>("forever", || None);
            })
            .unwrap_err();
        match err {
            SimError::RankPanic { rank, message } => {
                assert_eq!(rank, 1);
                assert!(message.contains("chaos strikes"), "got: {message}");
            }
            e => panic!("expected rank panic, got {e}"),
        }
    }

    #[test]
    fn try_run_success_matches_run() {
        let out = Engine::new(3)
            .try_run(|h| {
                h.advance(VDur(10));
                h.rank()
            })
            .expect("clean run");
        assert_eq!(out.results, vec![0, 1, 2]);
        assert_eq!(out.end_time, VTime(10));
    }

    #[test]
    fn rank_panic_propagates() {
        let result = std::panic::catch_unwind(|| {
            Engine::new(3).run(|h| {
                if h.rank() == 1 {
                    panic!("boom at rank 1");
                }
                // Others block forever; the panic must still unwind them.
                h.block_on::<()>("waiting forever", || None);
            });
        });
        assert!(result.is_err());
    }

    #[test]
    fn many_ranks_many_yields() {
        let out = Engine::new(32).run(|h| {
            for _ in 0..50 {
                h.advance(VDur(10));
            }
            h.now()
        });
        assert!(out.results.iter().all(|t| *t == VTime(500)));
        assert!(out.yields >= 32 * 50);
    }

    #[test]
    fn crash_plan_kills_rank_and_survivors_finish() {
        let plan = CrashPlan::new().crash_at(1, VTime(100));
        let out = Engine::new(3)
            .crash_plan(plan)
            .try_run_ft(|h| {
                // Everyone tries to compute past t=100; rank 1 never
                // makes it.
                for _ in 0..10 {
                    h.advance(VDur(20));
                }
                h.now()
            })
            .expect("survivors complete");
        assert_eq!(out.results[0], Some(VTime(200)));
        assert_eq!(out.results[1], None, "rank 1 died, no result");
        assert_eq!(out.results[2], Some(VTime(200)));
        assert_eq!(out.deaths[1], Some((VTime(100), CrashKind::Crash)));
        assert!(out.deaths[0].is_none() && out.deaths[2].is_none());
    }

    #[test]
    fn doomed_rank_clock_clamps_at_death_time() {
        // A single big advance across the death instant must not let
        // the rank act "after" dying.
        let plan = CrashPlan::new().crash_at(0, VTime(50));
        let reached = PlMutex::new(VTime(0));
        let out = Engine::new(2)
            .crash_plan(plan)
            .try_run_ft(|h| {
                if h.rank() == 0 {
                    h.advance(VDur::from_micros(1)); // 1000ns >> 50ns
                    *reached.lock() = h.now(); // unreachable
                }
                h.advance(VDur(10));
            })
            .expect("run completes");
        assert_eq!(out.deaths[0], Some((VTime(50), CrashKind::Crash)));
        assert_eq!(*reached.lock(), VTime(0), "rank 0 executed past death");
        assert_eq!(out.results[1], Some(()));
    }

    #[test]
    fn deadline_fires_when_world_quiesces() {
        // Rank 1 dies; rank 0 waits on it with a lease deadline. The
        // wait must time out at exactly the deadline instead of
        // deadlocking the world.
        let plan = CrashPlan::new().crash_at(1, VTime(50));
        let out = Engine::new(2)
            .crash_plan(plan)
            .try_run_ft(|h| {
                if h.rank() == 0 {
                    let got = h.block_on_deadline::<()>("lease", VTime(500), || None);
                    assert!(got.is_none(), "nothing could complete this wait");
                    h.now()
                } else {
                    h.block_on::<()>("never", || None); // dies at t=50
                    unreachable!()
                }
            })
            .expect("deadline resolves the wait");
        assert_eq!(out.results[0], Some(VTime(500)));
        assert_eq!(out.deaths[1], Some((VTime(50), CrashKind::Crash)));
    }

    #[test]
    fn data_beats_deadline() {
        // The deadline only fires on a quiescent world; a completion
        // arriving first wins and the clock lands on the data time.
        let slot: PlMutex<Option<(VTime, u32)>> = PlMutex::new(None);
        let out = Engine::new(2).run(|h| {
            if h.rank() == 0 {
                h.advance(VDur(70));
                *slot.lock() = Some((h.now(), 42));
                h.notify_rank(1);
                0
            } else {
                let v = h
                    .block_on_deadline("value", VTime(10_000), || *slot.lock())
                    .expect("data arrives well before the lease expires");
                assert_eq!(h.now(), VTime(70));
                v
            }
        });
        assert_eq!(out.results, vec![0, 42]);
        // On this healthy run the timer never fired: end time is the
        // data time, not the deadline.
        assert_eq!(out.end_time, VTime(70));
    }

    #[test]
    fn liveness_oracle_is_sound() {
        let plan = CrashPlan::new().hang_at(2, VTime(300));
        let out = Engine::new(3)
            .crash_plan(plan)
            .try_run_ft(|h| {
                if h.rank() == 0 {
                    // Before the death instant: everyone looks alive.
                    h.advance(VDur(100));
                    assert!(h.peer_dead(1).is_none());
                    assert!(h.peer_dead(2).is_none());
                    // Past it: the doomed rank is reported, live peers
                    // never are.
                    h.advance(VDur(400));
                    assert!(h.peer_dead(1).is_none());
                    assert_eq!(h.peer_dead(2), Some((VTime(300), CrashKind::Hang)));
                } else {
                    h.advance(VDur(500));
                }
            })
            .expect("run completes");
        assert_eq!(out.deaths[2], Some((VTime(300), CrashKind::Hang)));
    }

    #[test]
    fn rank_finishing_before_its_fate_survives() {
        // Scheduled to die at t=1000 but the closure returns at t=10:
        // the process exited cleanly first, so the oracle must never
        // report it dead.
        let plan = CrashPlan::new().crash_at(1, VTime(1000));
        let out = Engine::new(2)
            .crash_plan(plan)
            .try_run_ft(|h| {
                if h.rank() == 0 {
                    h.advance(VDur(5000));
                    assert!(h.peer_dead(1).is_none(), "clean exit is not a death");
                } else {
                    h.advance(VDur(10));
                }
            })
            .expect("run completes");
        assert!(out.deaths[1].is_none());
        assert_eq!(out.results[1], Some(()));
    }

    #[test]
    fn run_panics_when_crash_plan_kills_a_rank() {
        let result = std::panic::catch_unwind(|| {
            Engine::new(2)
                .crash_plan(CrashPlan::new().crash_at(0, VTime(10)))
                .run(|h| h.advance(VDur(100)));
        });
        let err = result.unwrap_err();
        let msg = panic_message(err.as_ref());
        assert!(msg.contains("try_run_ft"), "got: {msg}");
    }

    #[test]
    fn clean_run_identical_with_empty_crash_plan() {
        let baseline = Engine::new(4).run(|h| {
            for _ in 0..5 {
                h.advance(VDur(17));
            }
            h.now()
        });
        let with_plan = Engine::new(4).crash_plan(CrashPlan::new()).run(|h| {
            for _ in 0..5 {
                h.advance(VDur(17));
            }
            h.now()
        });
        assert_eq!(baseline.results, with_plan.results);
        assert_eq!(baseline.end_time, with_plan.end_time);
        assert_eq!(baseline.yields, with_plan.yields);
    }

    #[test]
    fn survivor_deadlock_still_reported_and_names_the_corpse() {
        // Rank 1 dies; rank 0 then blocks forever with no deadline
        // armed. That is still an application deadlock, and the report
        // must name the dead rank so the stuck wait is explicable.
        let err = Engine::new(2)
            .crash_plan(CrashPlan::new().crash_at(1, VTime(10)))
            .try_run_ft(|h| {
                if h.rank() == 0 {
                    h.block_on::<()>("recv-from-1", || None);
                } else {
                    h.block_on::<()>("never", || None);
                }
            })
            .unwrap_err();
        match err {
            SimError::Deadlock { report, ranks } => {
                assert!(report.contains("Dead"), "got: {report}");
                assert!(report.contains("recv-from-1"), "got: {report}");
                assert_eq!(ranks.len(), 2, "corpse appears in diagnostics");
            }
            e => panic!("expected deadlock, got {e}"),
        }
    }
}

#[cfg(test)]
mod shard_tests {
    use super::*;
    use parking_lot::Mutex as PlMutex;
    use std::collections::VecDeque;
    use std::time::Instant;

    /// A mixed workload: staggered advances, ping/pong notifies, and
    /// overlapped charges. Returns (per-rank final clocks, event log,
    /// yields) so shard counts can be compared bit-for-bit.
    fn mixed_world(shards: usize, n: usize) -> (Vec<u64>, Vec<(u64, usize, u32)>, u64) {
        let log = PlMutex::new(Vec::new());
        let out = Engine::new(n).shards(shards).run(|h| {
            let r = h.rank();
            for step in 0..4u32 {
                let d = VDur::from_micros(((r * 7 + step as usize * 3) % 11 + 1) as u64);
                let x = h.charge_overlapped(d, || (r as u64 + 1) * (step as u64 + 1));
                assert_eq!(x, (r as u64 + 1) * (step as u64 + 1));
                log.lock().push((h.now().as_nanos(), r, step));
                // Ping the next rank so blocking paths get exercised.
                if step == 1 && r + 1 < h.n_ranks() {
                    h.notify_rank(r + 1);
                }
                h.advance(VDur::from_nanos((r as u64 * 13 + 5) % 17 + 1));
            }
            h.now().as_nanos()
        });
        let mut events = log.into_inner();
        events.sort_unstable();
        (out.results, events, out.yields)
    }

    #[test]
    fn shards_preserve_results_and_schedule() {
        let (c1, e1, y1) = mixed_world(1, 12);
        for s in [2, 4, 7] {
            let (cs, es, ys) = mixed_world(s, 12);
            assert_eq!(c1, cs, "clocks differ at shards={s}");
            assert_eq!(e1, es, "event log differs at shards={s}");
            assert_eq!(y1, ys, "yield count differs at shards={s}");
        }
    }

    #[test]
    fn shards_clamp_to_rank_count() {
        let out = Engine::new(2).shards(64).run(|h| {
            h.advance(VDur::from_micros(1));
            h.shards()
        });
        assert_eq!(out.results, vec![2, 2], "shards clamp to n_ranks");
    }

    #[test]
    fn charge_overlapped_is_bit_identical_across_shards() {
        let run = |s: usize| {
            Engine::new(6)
                .shards(s)
                .run(|h| {
                    let mut acc = 0u64;
                    for i in 0..8 {
                        acc = h.charge_overlapped(VDur::from_micros(i + 1), || {
                            acc.wrapping_mul(31).wrapping_add(h.rank() as u64 + i)
                        });
                    }
                    (h.now().as_nanos(), acc)
                })
                .results
        };
        let base = run(1);
        assert_eq!(base, run(2));
        assert_eq!(base, run(4));
    }

    #[test]
    fn charge_overlapped_overlaps_wall_clock() {
        // 8 ranks each burn ~30ms of real time inside a modeled charge.
        // Serial must pay ~240ms; 8 shards should overlap most of it.
        let wall = |s: usize| {
            let t0 = Instant::now();
            Engine::new(8).shards(s).run(|h| {
                h.charge_overlapped(VDur::from_micros(10), || {
                    std::thread::sleep(std::time::Duration::from_millis(30));
                });
                h.now()
            });
            t0.elapsed()
        };
        let serial = wall(1);
        let sharded = wall(8);
        assert!(
            sharded < serial / 2,
            "expected ≥2x overlap: serial={serial:?} sharded={sharded:?}"
        );
    }

    #[test]
    fn measured_charges_are_shard_invariant() {
        // Advances, detached charges and ring hand-offs interleaved:
        // the tenure schedule must not depend on the carrier count.
        const N: usize = 6;
        let run = |s: usize| {
            let log = PlMutex::new(Vec::new());
            let inbox: Vec<PlMutex<VecDeque<u64>>> =
                (0..N).map(|_| PlMutex::new(VecDeque::new())).collect();
            let out = Engine::new(N).shards(s).run(|h| {
                let r = h.rank();
                // Pushed while holding the token, so the log is the
                // tenure order itself.
                let note = |what: &'static str| log.lock().push((h.now().as_nanos(), r, what));
                for step in 0..3u64 {
                    h.advance(VDur::from_nanos((r as u64 * 13 + step * 5) % 17 + 1));
                    note("advance");
                    let d = VDur::from_micros((r as u64 * 7 + step * 3) % 11 + 1);
                    h.charge_overlapped(d, std::thread::yield_now);
                    note("overlapped");
                    // Ring hand-off: post to the next rank, wait for
                    // the previous one.
                    let next = (r + 1) % N;
                    inbox[next].lock().push_back(h.now().as_nanos());
                    h.notify_rank(next);
                    h.block_on("ring", || {
                        inbox[r].lock().pop_front().map(|t| (VTime(t), ()))
                    });
                    note("woken");
                }
            });
            (log.into_inner(), out.end_time, out.yields)
        };
        let base = run(1);
        assert_eq!(base.0.len(), N * 3 * 3);
        for s in [2, 4, 7] {
            assert_eq!(base, run(s), "schedule differs at shards={s}");
        }
    }

    #[test]
    fn data_posted_after_a_measured_charge_beats_the_deadline() {
        // Rank 0 arms a deadline at t=1ms and parks. Rank 1 does host
        // work between two yields and completes the handshake
        // afterwards. The world is not quiescent while rank 1 holds the
        // token, so the timer cannot fire under it: the notify wins at
        // every carrier count.
        let flag = PlMutex::new(None::<u64>);
        Engine::new(2).shards(2).run(|h| {
            if h.rank() == 0 {
                let got = h.block_on_deadline("lease", VTime(1_000_000), || {
                    flag.lock().map(|t| (VTime(t), t))
                });
                assert!(
                    got.is_some(),
                    "deadline fired although the data was posted before the world went quiet"
                );
            } else {
                h.advance(VDur::from_micros(1));
                std::thread::sleep(std::time::Duration::from_millis(3));
                *flag.lock() = Some(h.now().as_nanos());
                h.notify_rank(0);
                h.advance(VDur::from_nanos(1));
            }
            h.now()
        });
    }

    #[test]
    fn deadlock_report_capped_for_big_worlds() {
        let n = 24; // above REPORT_FULL_CAP
        let err = Engine::new(n)
            .shards(4)
            .try_run(|h| {
                h.advance(VDur::from_nanos(h.rank() as u64));
                h.block_on::<()>("stuck-forever", || None)
            })
            .unwrap_err();
        match err {
            SimError::Deadlock { report, ranks } => {
                assert!(
                    report.contains("report capped"),
                    "capped form expected:\n{report}"
                );
                assert!(
                    report.contains(&format!("{n} x Blocked (stuck-forever)")),
                    "histogram line missing:\n{report}"
                );
                assert!(
                    ranks.len() <= REPORT_OFFENDERS * 2,
                    "diag list not capped: {} entries",
                    ranks.len()
                );
                // Offenders are the earliest clocks: ranks 0..8.
                let mut ids: Vec<usize> = ranks.iter().map(|d| d.rank).collect();
                ids.sort_unstable();
                assert_eq!(ids, (0..REPORT_OFFENDERS).collect::<Vec<_>>());
            }
            e => panic!("expected deadlock, got {e}"),
        }
    }

    #[test]
    fn small_world_deadlock_report_keeps_full_form() {
        let err = Engine::new(3)
            .shards(2)
            .try_run(|h| h.block_on::<()>("waiting-on-nothing", || None))
            .unwrap_err();
        match err {
            SimError::Deadlock { report, ranks } => {
                assert!(!report.contains("report capped"));
                assert_eq!(ranks.len(), 3, "full per-rank diagnostics in small worlds");
            }
            e => panic!("expected deadlock, got {e}"),
        }
    }

    #[test]
    fn crash_plans_are_bit_identical_across_shards() {
        use crate::fault::CrashPlan;
        let run = |s: usize| {
            let plan = CrashPlan::new().crash_at(2, VTime(5_000));
            let out = Engine::new(6)
                .shards(s)
                .crash_plan(plan)
                .try_run_ft(|h| {
                    for _ in 0..6 {
                        h.charge_overlapped(VDur::from_micros(1), || ());
                    }
                    h.now().as_nanos()
                })
                .unwrap();
            (out.results, out.deaths, out.end_time, out.yields)
        };
        let (r1, d1, e1, y1) = run(1);
        for s in [2, 4] {
            let (rs, ds, es, ys) = run(s);
            assert_eq!(r1, rs, "results differ at shards={s}");
            assert_eq!(
                d1.iter().map(|d| d.map(|(t, _)| t)).collect::<Vec<_>>(),
                ds.iter().map(|d| d.map(|(t, _)| t)).collect::<Vec<_>>()
            );
            assert_eq!(e1, es);
            assert_eq!(y1, ys, "yield parity broken at shards={s}");
        }
    }

    #[test]
    fn panic_in_detached_closure_poisons_cleanly() {
        let err = Engine::new(4)
            .shards(2)
            .try_run(|h| {
                if h.rank() == 3 {
                    h.charge_overlapped(VDur::from_micros(1), || panic!("boom in detached compute"))
                } else {
                    for _ in 0..100 {
                        h.advance(VDur::from_nanos(10));
                    }
                }
            })
            .unwrap_err();
        match err {
            SimError::RankPanic { rank, message } => {
                assert_eq!(rank, 3);
                assert!(message.contains("boom in detached compute"));
            }
            e => panic!("expected rank panic, got {e}"),
        }
    }
}

/// Liveness of the switch sites: a grant is published under `sched` and
/// the grantee switched to after the guard is dropped, so a coroutine
/// left suspended on any path shows here as a world that never returns.
#[cfg(test)]
mod handoff_tests {
    use super::*;
    use std::collections::VecDeque;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn kept_tokens_are_not_handoffs() {
        let solo = Engine::new(1).run(|h| {
            for _ in 0..100 {
                h.advance(VDur(1));
            }
        });
        assert_eq!((solo.yields, solo.handoffs), (101, 0));
        // Two ranks in lock step alternate on every advance; the two
        // `Done` releases grant the other rank once and then nobody.
        let pair = Engine::new(2).run(|h| {
            for _ in 0..100 {
                h.advance(VDur(1));
            }
        });
        assert_eq!((pair.yields, pair.handoffs), (202, 201));
    }

    /// Advances, overlapped charges and a notify ring on 64 ranks.
    fn mixed_64(shards: usize) -> (VTime, u64, u64) {
        const N: usize = 64;
        let inbox: Vec<Mutex<VecDeque<u64>>> = (0..N).map(|_| Mutex::default()).collect();
        let out = Engine::new(N).shards(shards).run(|h| {
            let r = h.rank();
            for step in 0..3u64 {
                h.advance(VDur((r as u64 * 13 + step * 5) % 17 + 1));
                let d = VDur::from_micros((r as u64 * 7 + step * 3) % 11 + 1);
                h.charge_overlapped(d, || std::hint::black_box(r));
                let next = (r + 1) % N;
                inbox[next].lock().push_back(h.now().as_nanos());
                h.notify_rank(next);
                h.block_on("ring", || {
                    inbox[r].lock().pop_front().map(|t| (VTime(t), ()))
                });
            }
        });
        (out.end_time, out.yields, out.handoffs)
    }

    #[test]
    fn sixty_four_ranks_finish_fifty_times_at_every_shard_count() {
        let base = mixed_64(1);
        assert!(base.2 > 0 && base.2 < base.1, "{base:?}");
        for round in 0..50 {
            for shards in [1, 2, 4] {
                assert_eq!(
                    mixed_64(shards),
                    base,
                    "round {round}, shards={shards}: (end_time, yields, handoffs)"
                );
            }
        }
    }

    #[test]
    fn panic_with_parked_ranks_and_full_lanes_unwinds_every_rank() {
        // Both carriers ("lanes") are busy inside a charge_overlapped
        // closure when one of those closures panics: rank 1's runs
        // detached, rank 2's on the token because no carrier is idle.
        const N: usize = 64;
        struct Live<'a>(&'a AtomicUsize);
        impl Drop for Live<'_> {
            fn drop(&mut self) {
                self.0.fetch_sub(1, Ordering::SeqCst);
            }
        }
        let (live, busy) = (AtomicUsize::new(0), AtomicUsize::new(0));
        let err = Engine::new(N)
            .shards(2)
            .try_run(|h| {
                live.fetch_add(1, Ordering::SeqCst);
                let _live = Live(&live);
                let poisoned = || h.shared.sched.lock().poisoned.is_some();
                match h.rank() {
                    1 => {
                        // Detach only once the other carrier sleeps, so
                        // the tenure has somewhere to go.
                        while h.shared.sched.lock().idle == 0 {
                            std::thread::yield_now();
                        }
                        h.charge_overlapped(VDur::from_micros(1), || {
                            busy.fetch_add(1, Ordering::SeqCst);
                            while !poisoned() {
                                std::thread::yield_now();
                            }
                        })
                    }
                    2 => h.charge_overlapped(VDur::from_micros(1), || {
                        busy.fetch_add(1, Ordering::SeqCst);
                        while busy.load(Ordering::SeqCst) < 2 {
                            std::thread::yield_now();
                        }
                        panic!("boom with busy carriers");
                    }),
                    _ => h.block_on::<()>("parked", || None),
                }
            })
            .unwrap_err();
        match err {
            SimError::RankPanic { rank: 2, message } => {
                assert!(
                    message.contains("boom with busy carriers"),
                    "got: {message}"
                )
            }
            e => panic!("expected rank 2's panic, got {e}"),
        }
        assert_eq!(busy.load(Ordering::SeqCst), 2, "a carrier was not busy");
        assert_eq!(live.load(Ordering::SeqCst), 0, "a rank body never unwound");
    }

    /// Runs its closure when dropped: here, while a rank body unwinds.
    struct OnDrop<F: FnMut()>(F);
    impl<F: FnMut()> Drop for OnDrop<F> {
        fn drop(&mut self) {
            (self.0)()
        }
    }

    /// Rank 0's detached closure panics while rank 1 holds the token on
    /// another carrier and ranks 2.. wait `Ready`, their clocks in the
    /// reverse of rank order. Rank 1 then moves on in the poisoned world
    /// — it returns from its body, or charges a closure of its own — and
    /// rank 2, the first to unwind, holds its carrier in a destructor
    /// until rank 1 has ended. A grant naming a rank the unwind list
    /// holds too would resume that rank twice: a hang or an abort.
    fn holder_moves_on_in_a_poisoned_world(shards: usize, holder_detaches: bool) {
        const N: usize = 6;
        let (live, started) = (AtomicUsize::new(0), AtomicBool::new(false));
        let err = Engine::new(N)
            .shards(shards)
            .try_run(|h| {
                live.fetch_add(1, Ordering::SeqCst);
                let _live = OnDrop(|| {
                    live.fetch_sub(1, Ordering::SeqCst);
                });
                let sched = || h.shared.sched.lock();
                match h.rank() {
                    0 => {
                        h.advance(VDur(10));
                        // Detach only once another carrier sleeps, so
                        // the tenure goes to rank 1 there.
                        while sched().idle == 0 {
                            std::thread::yield_now();
                        }
                        h.charge_overlapped(VDur::from_micros(1), || {
                            while !started.load(Ordering::SeqCst) {
                                std::thread::yield_now();
                            }
                            panic!("boom while another rank holds the token");
                        })
                    }
                    1 => {
                        h.advance(VDur(10));
                        started.store(true, Ordering::SeqCst);
                        while sched().poisoned.is_none() {
                            std::thread::yield_now();
                        }
                        if holder_detaches {
                            // Past the waiting ranks' clocks, with a
                            // carrier idle at three carriers: the grant
                            // would name rank 5 and hand it there.
                            h.charge_overlapped(VDur::from_micros(1), || ());
                        }
                    }
                    r => {
                        let _hold = OnDrop(|| {
                            while r == 2 && sched().ranks[1].status != Status::Done {
                                std::thread::yield_now();
                            }
                        });
                        h.advance(VDur(100 - r as u64));
                        unreachable!("rank 1 holds the token until the world is poisoned");
                    }
                }
            })
            .unwrap_err();
        match err {
            SimError::RankPanic { rank: 0, message } => assert!(
                message.contains("boom while another rank holds the token"),
                "got: {message}"
            ),
            e => panic!("shards={shards}: expected rank 0's panic, got {e}"),
        }
        assert_eq!(live.load(Ordering::SeqCst), 0, "shards={shards}: a rank body never unwound");
    }

    #[test]
    fn a_holder_returning_in_a_poisoned_world_resumes_nobody_twice() {
        for shards in [2, 3] {
            holder_moves_on_in_a_poisoned_world(shards, false);
        }
    }

    #[test]
    fn a_holder_detaching_in_a_poisoned_world_resumes_nobody_twice() {
        for shards in [2, 3] {
            holder_moves_on_in_a_poisoned_world(shards, true);
        }
    }

    #[test]
    fn death_in_wait_for_token_hands_the_token_on() {
        // Rank 1 is suspended with the larger key when rank 0 is
        // named, finds its clock at its death time and dies: the death
        // branch's grant is the only thing that can resume rank 1.
        for _ in 0..200 {
            let out = Engine::new(2)
                .crash_plan(CrashPlan::new().crash_at(0, VTime(50)))
                .try_run_ft(|h| {
                    h.advance(VDur(if h.rank() == 0 { 50 } else { 100 }));
                    h.now()
                })
                .expect("the survivor finishes");
            assert_eq!(out.results, vec![None, Some(VTime(100))]);
            assert_eq!(out.deaths[0], Some((VTime(50), CrashKind::Crash)));
            // Grants: 0 (start-up), 1, 0 (dies), 1.
            assert_eq!(out.handoffs, 3);
        }
    }
}
