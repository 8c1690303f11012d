//! Conservative virtual-time execution engine: one min-key run queue
//! and detached compute lanes.
//!
//! Each simulated rank runs real Rust code on its own OS thread. State
//! interactions are serialized into **tenures**: a scheduler token
//! guarantees exactly one rank executes a tenure at a time, and the
//! token always goes to the grantable rank with the smallest key
//! `(virtual clock, rank)`. That gives three properties the benchmarks
//! rely on:
//!
//! 1. *Causality*: when a rank executes at virtual time `t`, every other
//!    rank has logically reached `t`, so no message can later arrive
//!    "from the past".
//! 2. *Modelled parallelism*: each rank owns a dedicated virtual core
//!    (the paper's regime — 64 ranks on 64 physical cores), even though
//!    the host machine may have a single core.
//! 3. *Determinism of structure*: message-matching order depends only on
//!    virtual timestamps, not host thread scheduling.
//!
//! # The run queue and detached compute
//!
//! Every `Ready` rank has one entry in a single binary heap over
//! `(clock, rank)`; granting the token pops its minimum, so a grant
//! costs `O(log n)` whatever the lane count.
//!
//! Real host work (crypto, kernel arithmetic) leaves the token in one
//! way: [`SimHandle::charge_overlapped`] charges a *known* model cost
//! `d`, then runs the closure **detached** — the rank's clock moves to
//! `now + d` and the token is released first, so tenures with smaller
//! keys proceed on other host cores while the closure runs. At most `S`
//! closures ([`Engine::shards`]) are detached at once. Because the
//! closure performs no simulation-state operations and the rank's next
//! tenure keeps exactly the key it would have had serially, the tenure
//! sequence — and therefore every virtual time, wire byte, and trace
//! event — is the same for every `S`.
//!
//! Virtual time has no other source: the engine never reads the host
//! clock. Host work a rank does between two engine calls holds the
//! token and costs no virtual time.
//!
//! # Hand-off and placement
//!
//! A tenure change names the next holder under the scheduler lock and
//! wakes it after the lock is dropped; a rank granted its own token
//! again wakes nobody. With one lane only one rank thread runs at a
//! time, so the rank threads are pinned to the CPU the run was called
//! on (Linux; elsewhere, or if the kernel refuses, they run unpinned).
//!
//! Rank code interacts with the engine through [`SimHandle`]:
//! [`SimHandle::advance`] charges virtual compute time and
//! [`SimHandle::block_on`] parks the rank until a peer calls
//! [`SimHandle::notify_rank`].

use std::cell::Cell;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Once};

use empi_pool::BufferPool;
use empi_trace::{Cat, Metric, MetricsSnapshot, Recorder, TraceReport};
use parking_lot::{Condvar, Mutex};

use crate::cores::CorePool;
use crate::fault::{CrashKind, CrashPlan};
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
    /// Killed by the crash plan: the coroutine was parked at its death
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
}

/// Sentinel panic payload used to unwind a crashed rank's coroutine
/// out of arbitrarily deep user code. Never observed by callers: the
/// engine catches and swallows it (death bookkeeping happens before
/// the unwind starts).
struct CrashUnwind;

thread_local! {
    /// Set just before a [`CrashUnwind`] so the panic hook stays quiet
    /// for this deliberate unwind (and only this one).
    static SILENT_UNWIND: Cell<bool> = const { Cell::new(false) };
}

static SILENT_HOOK: Once = Once::new();

/// Install (once, process-wide) a panic-hook wrapper that suppresses
/// output for deliberate crash unwinds and delegates everything else
/// to the previous hook. Thread-local gating keeps real panics in
/// concurrently running tests fully reported.
fn install_silent_hook() {
    SILENT_HOOK.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !SILENT_UNWIND.with(|f| f.get()) {
                prev(info);
            }
        }));
    });
}

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
    /// a real thread switch, a grant to the same one a kept token.
    granted: Option<usize>,
    /// Grants that changed rank (see [`FtOutcome::handoffs`]). Counted
    /// under the lock, in grant order, so it repeats exactly.
    handoffs: u64,
    /// Ranks not yet `Done`.
    active: usize,
    /// The first fatal condition (deadlock or rank panic), if any.
    poisoned: Option<SimError>,
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
    /// failed world, and how a parked rank leaves a poisoned one.
    pub fn abort(&self) -> ! {
        panic!("simulation aborted: {self}")
    }
}

/// What a tenure change decided under the `sched` lock and leaves to
/// do once the guard is dropped (see [`Shared::wake`]).
#[must_use]
enum Wake {
    /// Nothing to do: the world is finished or was poisoned earlier.
    Nobody,
    /// This rank was named the next holder.
    Rank(usize),
    /// The world was just poisoned: every sleeper has to see it.
    All,
}

struct Shared {
    sched: Mutex<Sched>,
    /// One condvar per rank (all used with the single `sched` mutex):
    /// granting the token wakes exactly one thread instead of herding
    /// all N ranks awake on every yield. A grant is published under
    /// `sched` (`running = Some(r)`) and `cvs[r]` is notified after the
    /// guard is dropped, so the grantee never wakes into a mutex its
    /// waker still owns. No wake-up is lost: a waiter tests `running`
    /// (and `poisoned`) under the same lock it sleeps on.
    cvs: Vec<Condvar>,
    /// Per-rank virtual clocks (ns). Written only by the owning rank
    /// while it holds the token (a detached closure's charge lands
    /// before the release), or by the scheduler when it fires a timer
    /// on a parked rank; read freely.
    clocks: Vec<AtomicU64>,
    /// Number of detached-compute lanes ([`Engine::shards`], clamped).
    shards: usize,
    /// Free detached-compute lanes: at most `shards` detached closures
    /// run concurrently, so `--shards N` bounds host-core use.
    lanes: Mutex<usize>,
    lanes_cv: Condvar,
    /// Set with `poisoned`: lets lane waiters bail out instead of
    /// sleeping through an abort.
    aborted: AtomicBool,
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

    /// Record a fatal condition. The first one wins, and its caller
    /// wakes every sleeper with [`Wake::All`] once it has dropped the
    /// lock; a later one (a rank unwinding out of the poisoned world)
    /// finds that done.
    fn poison(&self, s: &mut Sched, e: SimError) -> Wake {
        if s.poisoned.is_some() {
            return Wake::Nobody;
        }
        s.poisoned = Some(e);
        self.aborted.store(true, Ordering::Relaxed);
        Wake::All
    }

    /// Carry out a tenure change's wake-up. Call it with the `sched`
    /// guard dropped; `me` is the calling rank, which is awake and
    /// re-tests `running` itself, so a kept token costs no `futex_wake`
    /// (`Condvar::notify_one` is a syscall whether or not anyone sleeps).
    fn wake(&self, w: Wake, me: usize) {
        match w {
            Wake::Rank(r) if r != me => {
                self.cvs[r].notify_one();
            }
            Wake::Rank(_) | Wake::Nobody => {}
            Wake::All => {
                for cv in &self.cvs {
                    cv.notify_all();
                }
                // A lane waiter tests `aborted` under `lanes`: passing
                // through that lock puts this notify after its sleep.
                drop(self.lanes.lock());
                self.lanes_cv.notify_all();
            }
        }
    }

    /// Grant the token to the minimum-key `Ready` rank: name it in
    /// `running` and hand it back for the caller to [`Shared::wake`]
    /// after the lock is dropped. Must be called with the sched lock
    /// held and `running == None`.
    ///
    /// When no rank is `Ready` the world is quiescent: before declaring
    /// a deadlock, fire the earliest armed event on a blocked rank — an
    /// ft-wait deadline (the failure detector's lease timer) or a
    /// scheduled crash — by advancing that rank's clock to the event
    /// time and making it Ready. Healthy runs
    /// never reach this branch (some rank is always runnable), which is
    /// what keeps an armed-but-idle detector free: its deadlines are
    /// bookkeeping until the moment the world would otherwise hang.
    fn grant(&self, s: &mut Sched) -> Wake {
        debug_assert!(s.running.is_none());
        loop {
            if let Some(r) = self.pop_ready(s) {
                s.running = Some(r);
                if s.granted.replace(r).is_some_and(|prev| prev != r) {
                    s.handoffs += 1;
                }
                return Wake::Rank(r);
            }
            if s.active == 0 || s.poisoned.is_some() {
                return Wake::Nobody;
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
            return self.poison(s, SimError::Deadlock { report, ranks });
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

    /// Park until this rank holds the token. If the rank's clock has
    /// reached its scheduled death, the rank dies here instead of
    /// running: bookkeeping under the lock, then a sentinel unwind out
    /// of the rank closure ([`CrashUnwind`], swallowed by the run body).
    /// Every release grants the next token before it returns, so a
    /// parked rank only ever waits to be named.
    fn wait_for_token(&self, rank: usize) {
        let mut s = self.sched.lock();
        loop {
            if let Some(p) = &s.poisoned {
                let p = p.clone();
                drop(s);
                p.abort();
            }
            if s.running == Some(rank) {
                if let Some((t, kind)) = self.crash.fate(rank) {
                    if self.clocks[rank].load(Ordering::Relaxed) >= t.0
                        && self.deaths[rank].load(Ordering::Relaxed) == u64::MAX
                    {
                        self.deaths[rank].store(t.0, Ordering::Relaxed);
                        s.ranks[rank].status = Status::Dead;
                        s.ranks[rank].reason = kind.label();
                        s.ranks[rank].deadline = None;
                        s.active -= 1;
                        s.running = None;
                        let next = self.grant(&mut s);
                        drop(s);
                        self.wake(next, rank);
                        SILENT_UNWIND.with(|f| f.set(true));
                        std::panic::panic_any(CrashUnwind);
                    }
                }
                s.ranks[rank].status = Status::Running;
                s.ranks[rank].deadline = None;
                return;
            }
            self.cvs[rank].wait(&mut s);
        }
    }

    /// Release the token with this rank in `status` and grant the next
    /// one; the caller re-acquires with `wait_for_token` unless `status`
    /// is `Done`. `deadline` arms a wake-up for a `Blocked` rank: if the
    /// world quiesces, the scheduler advances the rank to it and wakes
    /// it.
    fn release(&self, rank: usize, status: Status, reason: BlockReason, deadline: Option<u64>) {
        self.yields.fetch_add(1, Ordering::Relaxed);
        let mut s = self.sched.lock();
        if status == Status::Ready {
            self.mark_ready(&mut s, rank, reason);
        } else {
            s.ranks[rank] = RankState {
                status,
                reason,
                deadline,
            };
            if status == Status::Done {
                s.active -= 1;
                self.finished[rank].store(true, Ordering::Relaxed);
            }
        }
        s.running = None;
        let next = self.grant(&mut s);
        drop(s);
        self.wake(next, rank);
    }
}

/// Holds one of the engine's `shards` detached-compute lanes; dropping
/// it returns the lane (also on unwind, so a panicking closure cannot
/// leak a lane).
struct LaneGuard<'a>(&'a Shared);

impl<'a> LaneGuard<'a> {
    /// Take a lane, parking until one frees up. Returns `None` if the
    /// world aborted while waiting — the caller must then re-enter the
    /// scheduler (which surfaces the abort) instead of computing.
    fn acquire(shared: &'a Shared) -> Option<LaneGuard<'a>> {
        let mut free = shared.lanes.lock();
        loop {
            if shared.aborted.load(Ordering::Relaxed) {
                return None;
            }
            if *free > 0 {
                *free -= 1;
                return Some(LaneGuard(shared));
            }
            shared.lanes_cv.wait(&mut free);
        }
    }
}

impl Drop for LaneGuard<'_> {
    fn drop(&mut self) {
        let mut free = self.0.lanes.lock();
        *free += 1;
        self.0.lanes_cv.notify_one();
    }
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

    /// Allow up to `s` detached closures
    /// ([`SimHandle::charge_overlapped`]) to run concurrently on host
    /// cores. Clamped to `[1, n_ranks]`. Virtual results are
    /// bit-identical for every `s`: the lane count changes wall-clock
    /// only.
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
        if !self.crash.is_empty() {
            install_silent_hook();
        }
        let shards = self.shards.clamp(1, self.n_ranks);
        let shared = Arc::new(Shared {
            sched: Mutex::new(Sched {
                ranks: (0..self.n_ranks)
                    .map(|_| RankState {
                        status: Status::Ready,
                        reason: "startup",
                        deadline: None,
                    })
                    .collect(),
                heap: (0..self.n_ranks).map(|r| Reverse((0, r))).collect(),
                running: None,
                granted: None,
                handoffs: 0,
                active: self.n_ranks,
                poisoned: None,
            }),
            cvs: (0..self.n_ranks).map(|_| Condvar::new()).collect(),
            clocks: (0..self.n_ranks).map(|_| AtomicU64::new(0)).collect(),
            shards,
            lanes: Mutex::new(shards),
            lanes_cv: Condvar::new(),
            aborted: AtomicBool::new(false),
            yields: AtomicU64::new(0),
            notifies: AtomicU64::new(0),
            recorder: self.recorder.clone(),
            diag: self.diag.clone(),
            pools: (0..self.n_ranks).map(|_| Mutex::new(None)).collect(),
            buf_pool: BufferPool::new(),
            crash: self.crash.clone(),
            deaths: (0..self.n_ranks)
                .map(|_| AtomicU64::new(u64::MAX))
                .collect(),
            finished: (0..self.n_ranks).map(|_| AtomicBool::new(false)).collect(),
        });

        // No rank thread exists yet, so the first grant has nobody to
        // wake: rank 0 finds itself named when it first takes the lock.
        let _ = shared.grant(&mut shared.sched.lock());

        // One shard means one rank runs at a time: keep the rank threads
        // on the CPU this call was made on, so a hand-off is a context
        // switch and not a cross-core wake-up. The caller is not pinned.
        let cpu = (shards == 1).then(place::current_cpu).flatten();

        let n_ranks = self.n_ranks;
        let mut results: Vec<Option<T>> = (0..n_ranks).map(|_| None).collect();
        let f = &f;
        // The rank threads are spawned and joined by a launcher thread,
        // which pins itself first: they are born with its one-CPU set,
        // on that CPU, instead of each migrating itself there. (It is
        // handed the slot iterator, not `&mut results`: a moved-in `&mut`
        // is only reborrowed by `iter_mut`, for less than `'scope`.)
        std::thread::scope(|scope| {
            let (slots, shared) = (results.iter_mut(), &shared);
            let launch = move || {
                if let Some(cpu) = cpu {
                    place::pin_self(cpu);
                }
                let threads = slots.enumerate().map(move |(rank, slot)| {
                    let handle = SimHandle {
                        shared: Arc::clone(shared),
                        rank,
                        n_ranks,
                    };
                    let body = move || {
                        let shared = &handle.shared;
                        let out = catch_unwind(AssertUnwindSafe(|| {
                            shared.wait_for_token(rank);
                            f(&handle)
                        }));
                        match out {
                            Ok(v) => {
                                *slot = Some(v);
                                shared.release(rank, Status::Done, "finished", None);
                            }
                            Err(payload) if payload.is::<CrashUnwind>() => {
                                // Deliberate death: bookkeeping already
                                // done under the lock in wait_for_token.
                                SILENT_UNWIND.with(|fl| fl.set(false));
                            }
                            Err(payload) => {
                                let message = panic_message(payload.as_ref());
                                let mut s = shared.sched.lock();
                                // A detached closure may be the panic
                                // source: only clear the token if this rank
                                // actually holds it.
                                if !matches!(s.ranks[rank].status, Status::Done | Status::Dead) {
                                    s.ranks[rank].status = Status::Done;
                                    s.active -= 1;
                                }
                                if s.running == Some(rank) {
                                    s.running = None;
                                }
                                let all =
                                    shared.poison(&mut s, SimError::RankPanic { rank, message });
                                drop(s);
                                shared.wake(all, rank);
                            }
                        }
                    };
                    std::thread::Builder::new()
                        .name(format!("empi-rank-{rank}"))
                        .spawn_scoped(scope, body)
                        .expect("spawn rank thread")
                });
                // Join each thread rather than let the scope wait: a rank's
                // closure returning is not its OS thread gone, and a run
                // started back to back would find the malloc arenas still
                // taken (measured: +4 MB peak RSS on 2 MB ping-pongs).
                for t in threads.collect::<Vec<_>>() {
                    t.join()
                        .expect("rank panics are caught on the rank's thread");
                }
            };
            std::thread::Builder::new()
                .name("empi-launch".into())
                .spawn_scoped(scope, launch)
                .expect("spawn launcher thread")
                .join()
                .expect("the launcher only spawns and joins");
        });

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
        let deaths = (0..self.n_ranks)
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
    /// Yields that changed threads: grants naming a different rank than
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
    /// Yields that changed threads: grants naming a different rank than
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

    /// The engine's detached-compute lane count ([`Engine::shards`],
    /// clamped to the rank count).
    pub fn shards(&self) -> usize {
        self.shared.shards
    }

    /// This rank's current virtual time.
    pub fn now(&self) -> VTime {
        VTime(self.shared.clocks[self.rank].load(Ordering::Relaxed))
    }

    /// Read another rank's clock (diagnostics only).
    pub fn clock_of(&self, rank: usize) -> VTime {
        VTime(self.shared.clocks[rank].load(Ordering::Relaxed))
    }

    #[inline]
    fn set_clock(&self, t: VTime) {
        self.shared.clocks[self.rank].store(t.0, Ordering::Relaxed);
    }

    /// The target clock for an advance to `t`: never backwards, and a
    /// doomed rank never executes past its scheduled death — the
    /// advance clamps to the death instant, and re-acquiring the token
    /// at that clock kills the rank (see `wait_for_token`).
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
            .release(self.rank, Status::Ready, "advance", None);
        self.shared.wait_for_token(self.rank);
    }

    /// Charge `d` of *modeled* compute time and run `f` — real host
    /// work whose virtual cost is already known (a calibrated crypto
    /// curve, a kernel cost model) — overlapped with other ranks.
    ///
    /// The clock moves to `now + d` and the token is released before
    /// `f` runs, so tenures with keys below `(now + d, rank)` — exactly
    /// the ones the serial schedule would run before this rank's next
    /// tenure — proceed on other host cores meanwhile. `f` runs on this
    /// rank's own thread and MUST NOT touch simulation state (no
    /// sends, notifies, trace emission, or pool allocation; allocate
    /// before detaching): under that contract the tenure sequence, and
    /// with it every virtual result, is bit-identical to `shards = 1`.
    /// At `shards = 1` this is exactly `f()` followed by `advance(d)`.
    pub fn charge_overlapped<T>(&self, d: VDur, f: impl FnOnce() -> T) -> T {
        if self.shared.shards == 1 {
            let out = f();
            self.advance(d);
            return out;
        }
        self.set_clock(self.clamped_target(self.now() + d));
        self.shared
            .release(self.rank, Status::Ready, "compute", None);
        let out = match LaneGuard::acquire(&self.shared) {
            Some(_lane) => f(),
            None => {
                // Aborted while waiting for a lane: re-enter the
                // scheduler, which surfaces the poisoned error.
                self.shared.wait_for_token(self.rank);
                unreachable!("wait_for_token returns on a poisoned world");
            }
        };
        self.shared.wait_for_token(self.rank);
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
                .release(self.rank, Status::Blocked, reason, deadline.map(|d| d.0));
            self.shared.wait_for_token(self.rank);
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

    /// Has `target` actually died? Returns the executed death time.
    /// Unlike [`SimHandle::peer_dead`] this reports only deaths the
    /// engine has already carried out, regardless of this rank's
    /// clock — diagnostics, not protocol input.
    pub fn dead_since(&self, target: usize) -> Option<VTime> {
        let t = self.shared.deaths[target].load(Ordering::Relaxed);
        (t != u64::MAX).then_some(VTime(t))
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

    /// The scheduled fate of `target` under the installed crash plan
    /// (regardless of whether it has executed yet).
    pub fn planned_fate(&self, target: usize) -> Option<(VTime, CrashKind)> {
        self.shared.crash.fate(target)
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

/// Thread placement for one-shard worlds. Linux only; the two libc
/// calls are declared here so the crate needs no dependency for them.
/// A refused call leaves the world unpinned: placement changes host
/// time only, never a result.
#[cfg(target_os = "linux")]
mod place {
    /// Room for 1024 CPUs, the kernel's default `CONFIG_NR_CPUS` ceiling.
    type CpuMask = [u64; 16];

    extern "C" {
        fn sched_getcpu() -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }

    /// The CPU the calling thread is running on, if the kernel says.
    pub fn current_cpu() -> Option<usize> {
        // SAFETY: no arguments, no memory touched.
        usize::try_from(unsafe { sched_getcpu() }).ok()
    }

    /// Restrict the calling thread to `cpu`.
    pub fn pin_self(cpu: usize) {
        let mut mask: CpuMask = [0; 16];
        let Some(word) = mask.get_mut(cpu / 64) else {
            return;
        };
        *word |= 1 << (cpu % 64);
        // SAFETY: `mask` is a live buffer of exactly the byte length
        // passed; pid 0 names the calling thread.
        unsafe { sched_setaffinity(0, std::mem::size_of::<CpuMask>(), mask.as_ptr()) };
    }
}

#[cfg(not(target_os = "linux"))]
mod place {
    pub fn current_cpu() -> Option<usize> {
        None
    }

    pub fn pin_self(_cpu: usize) {}
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
        // the tenure schedule must not depend on the lane count.
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
        // every lane count.
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

/// Liveness of the wake sites: a grant is published under `sched` and
/// the grantee woken after the guard is dropped, so a wake-up missing
/// on any path shows here as a world that never returns.
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
        const N: usize = 64;
        struct Live<'a>(&'a AtomicUsize);
        impl Drop for Live<'_> {
            fn drop(&mut self) {
                self.0.fetch_sub(1, Ordering::SeqCst);
            }
        }
        let (live, in_lane) = (AtomicUsize::new(0), AtomicUsize::new(0));
        let err = Engine::new(N)
            .shards(2)
            .try_run(|h| {
                live.fetch_add(1, Ordering::SeqCst);
                let _live = Live(&live);
                match h.rank() {
                    0 => {
                        // Let every other rank run its first tenure,
                        // then wait for both lanes to be taken.
                        h.advance(VDur(10));
                        while in_lane.load(Ordering::SeqCst) < 2 {
                            std::thread::yield_now();
                        }
                        panic!("boom with full lanes");
                    }
                    // Four ranks want the two lanes; the two that get
                    // one keep it until the world is poisoned.
                    1..=4 => h.charge_overlapped(VDur::from_micros(1), || {
                        in_lane.fetch_add(1, Ordering::SeqCst);
                        while !h.shared.aborted.load(Ordering::Relaxed) {
                            std::thread::yield_now();
                        }
                    }),
                    _ => h.block_on::<()>("parked", || None),
                }
            })
            .unwrap_err();
        match err {
            SimError::RankPanic { rank: 0, message } => {
                assert!(message.contains("boom with full lanes"), "got: {message}")
            }
            e => panic!("expected rank 0's panic, got {e}"),
        }
        assert_eq!(in_lane.load(Ordering::SeqCst), 2, "lanes were not full");
        assert_eq!(live.load(Ordering::SeqCst), 0, "a rank body never unwound");
    }

    #[test]
    fn death_in_wait_for_token_hands_the_token_on() {
        // Rank 1 sleeps on its condvar with the larger key when rank 0
        // is named, finds its clock at its death time and dies: the
        // death branch's grant is the only thing that can wake rank 1.
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

    #[test]
    fn rank_threads_are_named_after_their_rank() {
        let out = Engine::new(3).run(|_| std::thread::current().name().map(str::to_string));
        let want = |r: usize| Some(format!("empi-rank-{r}"));
        assert_eq!(out.results, vec![want(0), want(1), want(2)]);
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn one_shard_worlds_run_on_one_cpu_and_leave_the_caller_alone() {
        extern "C" {
            fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        }
        fn allowed_cpus() -> Vec<usize> {
            let mut mask = [0u64; 16];
            // SAFETY: `mask` is a live, writable buffer of exactly the
            // byte length passed; pid 0 names the calling thread.
            let rc =
                unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
            assert_eq!(rc, 0, "sched_getaffinity failed");
            (0..mask.len() * 64)
                .filter(|&c| mask[c / 64] >> (c % 64) & 1 == 1)
                .collect()
        }
        let rank_sets = |shards: usize| {
            let out = Engine::new(8).shards(shards).run(|h| {
                h.advance(VDur(1));
                allowed_cpus()
            });
            out.results
        };
        let caller = allowed_cpus();
        let pinned = rank_sets(1);
        assert_eq!(pinned[0].len(), 1, "rank 0 may run on {:?}", pinned[0]);
        assert!(caller.contains(&pinned[0][0]));
        assert!(pinned.iter().all(|s| *s == pinned[0]), "{pinned:?}");
        assert_eq!(allowed_cpus(), caller, "the caller's set moved");
        // More than one shard runs ranks side by side: no placement.
        assert!(rank_sets(2).iter().all(|s| *s == caller));
        assert_eq!(allowed_cpus(), caller);
    }
}
