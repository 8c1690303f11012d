//! Per-rank crypto worker cores: the multi-core resource model behind
//! the pipelined (CryptMPI-style) send/receive path.
//!
//! The engine gives every rank exactly one virtual core — its clock —
//! which is the paper's regime: the sealing of a whole message is
//! charged to the rank before the first byte can leave. CryptMPI's
//! insight is that a rank can *delegate* chunk-sized seal/open jobs to
//! a pool of additional cores whose virtual time advances concurrently
//! with the NIC. A [`CorePool`] is that pool, modelled exactly like a
//! [`crate::fabric`] `NicPort`: each worker is a busy-until timeline,
//! and a job submitted at `t` starts on the earliest-free worker at
//! `max(t, worker_free)`. The rank's own clock never moves; callers
//! combine the returned per-job completion times with the fabric's
//! transfer times to decide when results are usable.

use crate::time::{VDur, VTime};

/// When and where one delegated job runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoreSlot {
    /// Index of the worker that ran the job (trace lane id).
    pub worker: usize,
    /// Virtual time the job began executing.
    pub start: VTime,
    /// Virtual time the job finished.
    pub end: VTime,
}

/// A pool of simulated crypto worker cores owned by one rank.
///
/// Purely a virtual-time resource: no threads are spawned. The caller
/// performs the real computation on its own coroutine (execution is
/// exclusive anyway) and uses the pool only to decide *when* each
/// result becomes available.
#[derive(Debug, Clone)]
pub struct CorePool {
    /// Busy-until timeline per worker (ns).
    free_at: Vec<u64>,
    /// Per-worker slowdown factor (fault injection: a degraded core
    /// runs every job `slowdown[w]`× longer). Empty = all healthy.
    slowdown: Vec<u32>,
}

impl CorePool {
    /// A pool of `workers` cores, all idle at t=0.
    pub fn new(workers: usize) -> Self {
        assert!(workers > 0, "core pool needs at least one worker");
        CorePool {
            free_at: vec![0; workers],
            slowdown: Vec::new(),
        }
    }

    /// Number of workers.
    pub fn workers(&self) -> usize {
        self.free_at.len()
    }

    /// Schedule a job of duration `dur` submitted at `submit` on the
    /// earliest-free worker (ties go to the lowest index, so schedules
    /// are deterministic).
    pub fn schedule(&mut self, submit: VTime, dur: VDur) -> CoreSlot {
        let n = self.free_at.len();
        self.place(submit, dur, n)
    }

    /// Mark `worker` as degraded: every job it runs takes `factor`×
    /// longer. Deterministic fault injection uses this to model slow
    /// or thermally throttled crypto cores; the scheduler then picks
    /// workers by earliest *completion*, so healthy cores absorb load
    /// first.
    pub fn degrade(&mut self, worker: usize, factor: u32) {
        assert!(factor >= 1, "slowdown factor must be >= 1");
        if worker >= self.free_at.len() {
            return;
        }
        if self.slowdown.len() < self.free_at.len() {
            self.slowdown.resize(self.free_at.len(), 1);
        }
        self.slowdown[worker] = self.slowdown[worker].max(factor);
    }

    /// Pick a worker among the first `limit` and book the job. With no
    /// degraded workers this is the historical earliest-free choice;
    /// with slowdowns in play it minimizes completion time instead
    /// (still deterministic: ties go to the lowest index).
    fn place(&mut self, submit: VTime, dur: VDur, limit: usize) -> CoreSlot {
        let limit = limit.clamp(1, self.free_at.len());
        let (worker, start, end) = if self.slowdown.is_empty() {
            let (worker, free) = self.free_at[..limit]
                .iter()
                .copied()
                .enumerate()
                .min_by_key(|&(i, f)| (f, i))
                .expect("non-empty pool");
            let start = submit.as_nanos().max(free);
            (worker, start, start + dur.as_nanos())
        } else {
            let (worker, start, end) = (0..limit)
                .map(|w| {
                    let start = submit.as_nanos().max(self.free_at[w]);
                    let slow = self.slowdown.get(w).copied().unwrap_or(1) as u64;
                    (w, start, start + dur.as_nanos() * slow)
                })
                .min_by_key(|&(w, _, end)| (end, w))
                .expect("non-empty pool");
            (worker, start, end)
        };
        self.free_at[worker] = end;
        CoreSlot {
            worker,
            start: VTime(start),
            end: VTime(end),
        }
    }

    /// Grow the pool to at least `workers` timelines (new workers idle
    /// from t=0). Never shrinks: a rank's physical cores don't vanish
    /// when a communicator configured for fewer workers uses the pool.
    pub fn ensure_workers(&mut self, workers: usize) {
        assert!(workers > 0, "core pool needs at least one worker");
        if workers > self.free_at.len() {
            self.free_at.resize(workers, 0);
            if !self.slowdown.is_empty() {
                self.slowdown.resize(self.free_at.len(), 1);
            }
        }
    }

    /// Like [`CorePool::schedule`], but restricted to the first
    /// `limit` workers. This is how several communicators on one rank
    /// share a single physical pool: each schedules onto the same
    /// busy-until timelines (so their jobs serialize where they
    /// contend) while respecting its own configured worker count.
    pub fn schedule_limited(&mut self, submit: VTime, dur: VDur, limit: usize) -> CoreSlot {
        self.place(submit, dur, limit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl CorePool {
        /// This worker's slowdown factor (1 = healthy).
        fn slowdown_of(&self, worker: usize) -> u32 {
            self.slowdown.get(worker).copied().unwrap_or(1)
        }

        /// Earliest time a newly submitted job could start.
        fn earliest_free(&self) -> VTime {
            VTime(self.free_at.iter().copied().min().unwrap_or(0))
        }
    }

    #[test]
    fn single_worker_serializes() {
        let mut p = CorePool::new(1);
        let a = p.schedule(VTime(0), VDur(100));
        let b = p.schedule(VTime(0), VDur(100));
        assert_eq!((a.start, a.end), (VTime(0), VTime(100)));
        assert_eq!((b.start, b.end), (VTime(100), VTime(200)));
        assert_eq!(a.worker, b.worker);
    }

    #[test]
    fn workers_run_concurrently() {
        let mut p = CorePool::new(4);
        let slots: Vec<_> = (0..4).map(|_| p.schedule(VTime(0), VDur(100))).collect();
        // All four start immediately on distinct workers.
        for s in &slots {
            assert_eq!(s.start, VTime(0));
            assert_eq!(s.end, VTime(100));
        }
        let mut workers: Vec<_> = slots.iter().map(|s| s.worker).collect();
        workers.sort_unstable();
        assert_eq!(workers, vec![0, 1, 2, 3]);
        // The fifth job queues behind the earliest finisher.
        let fifth = p.schedule(VTime(0), VDur(50));
        assert_eq!(fifth.start, VTime(100));
    }

    #[test]
    fn submit_time_is_respected() {
        let mut p = CorePool::new(2);
        p.schedule(VTime(0), VDur(1000));
        // Worker 1 is idle, so a late submission starts at submit time.
        let s = p.schedule(VTime(400), VDur(10));
        assert_eq!(s.worker, 1);
        assert_eq!(s.start, VTime(400));
    }

    #[test]
    fn chunk_pipeline_shape() {
        // 8 equal chunks on 2 workers: completion times advance in
        // pairs — exactly the overlap the pipelined send exploits.
        let mut p = CorePool::new(2);
        let ends: Vec<u64> = (0..8)
            .map(|_| p.schedule(VTime(0), VDur(100)).end.as_nanos())
            .collect();
        assert_eq!(ends, vec![100, 100, 200, 200, 300, 300, 400, 400]);
        assert_eq!(p.earliest_free(), VTime(400));
    }

    #[test]
    fn ensure_workers_grows_but_never_shrinks() {
        let mut p = CorePool::new(2);
        p.schedule(VTime(0), VDur(100));
        p.ensure_workers(4);
        assert_eq!(p.workers(), 4);
        // Existing busy-until state survives the growth.
        let s = p.schedule(VTime(0), VDur(10));
        assert_eq!(s.start, VTime(0));
        p.ensure_workers(1);
        assert_eq!(p.workers(), 4);
    }

    #[test]
    fn degraded_worker_stretches_jobs_and_sheds_load() {
        let mut p = CorePool::new(2);
        p.degrade(1, 4);
        assert_eq!(p.slowdown_of(0), 1);
        assert_eq!(p.slowdown_of(1), 4);
        // First job lands on the healthy worker 0.
        let a = p.schedule(VTime(0), VDur(100));
        assert_eq!((a.worker, a.end), (0, VTime(100)));
        // Second job: worker 1 is free but 4× slower (ends at 400),
        // queueing behind worker 0 ends at 200 — the scheduler picks
        // the earliest completion.
        let b = p.schedule(VTime(0), VDur(100));
        assert_eq!((b.worker, b.start, b.end), (0, VTime(100), VTime(200)));
        // A short job fits on the degraded worker sooner than queueing.
        let c = p.schedule(VTime(0), VDur(10));
        assert_eq!((c.worker, c.end), (1, VTime(40)));
        // Growth keeps new workers healthy.
        p.ensure_workers(3);
        assert_eq!(p.slowdown_of(2), 1);
    }

    #[test]
    fn schedule_limited_shares_timelines_across_limits() {
        // A communicator limited to 2 workers and one limited to 4
        // contend on the same first two timelines.
        let mut p = CorePool::new(4);
        let a = p.schedule_limited(VTime(0), VDur(100), 2);
        let b = p.schedule_limited(VTime(0), VDur(100), 2);
        assert_eq!((a.worker, b.worker), (0, 1));
        // The 4-worker view sees workers 0/1 busy and picks worker 2.
        let c = p.schedule_limited(VTime(0), VDur(100), 4);
        assert_eq!(c.worker, 2);
        // The 2-worker view must queue behind its own lanes.
        let d = p.schedule_limited(VTime(0), VDur(50), 2);
        assert_eq!(d.start, VTime(100));
        // A limit beyond the pool clamps to the pool size.
        let e = p.schedule_limited(VTime(0), VDur(10), 99);
        assert_eq!(e.worker, 3);
    }
}
