//! Deterministic seeded fault injection.
//!
//! A [`FaultPlan`] is a pure function from a *fault coordinate* — the
//! link `(src, dst)`, a per-stream sequence number, the chunk index and
//! the delivery attempt — to a [`Verdict`]. No wall-clock time and no
//! global mutable RNG state are involved: the verdict is derived by
//! hashing the coordinate into a splitmix64 stream seeded from the
//! plan's seed, so any failure observed in a run can be replayed
//! exactly from `(seed, rates)` alone, regardless of thread scheduling
//! or call order.
//!
//! The plan covers the failure modes of the robustness study:
//!
//! * payload **bit-flips** (a single flipped bit — the canonical GCM
//!   tag-failure trigger),
//! * **truncation** (a runt frame cut mid-ciphertext),
//! * whole-frame **drop** (the payload is lost; the simulator delivers
//!   a zero-length runt so queue matching stays reliable while the
//!   content is gone),
//! * **duplication** (the same sealed frame delivered twice),
//! * extra latency **jitter** (a delay spike before the NIC), and
//! * **degraded [`crate::CorePool`] workers** (a deterministic subset
//!   of a rank's crypto cores runs N× slower).
//!
//! The attempt number is part of the coordinate on purpose: a
//! retransmission of the same chunk draws a *fresh* verdict, so a
//! recovery protocol converges with probability `1 - rate^attempts`
//! instead of hitting the same deterministic fault forever.

/// One step of the splitmix64 generator (public so higher layers can
/// derive their own deterministic sub-streams from a seed).
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Fold a list of coordinates into one 64-bit stream seed.
fn mix(seed: u64, parts: &[u64]) -> u64 {
    let mut s = seed;
    let mut acc = splitmix64(&mut s);
    for &p in parts {
        let mut t = acc ^ p.wrapping_mul(0x2545_f491_4f6c_dd1d);
        acc = splitmix64(&mut t);
    }
    acc
}

/// Map a 64-bit draw to a uniform f64 in `[0, 1)`.
fn unit(x: u64) -> f64 {
    (x >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Per-event injection probabilities (each in `[0, 1]`) plus the
/// parameters of the non-probabilistic fault shapes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultRates {
    /// Probability a frame has one payload bit flipped.
    pub bit_flip: f64,
    /// Probability a frame is truncated mid-ciphertext.
    pub truncate: f64,
    /// Probability a frame's payload is dropped (delivered as a runt).
    pub drop: f64,
    /// Probability a frame is delivered twice.
    pub duplicate: f64,
    /// Probability a frame picks up extra latency before the NIC.
    pub jitter: f64,
    /// Upper bound on the injected extra latency (ns).
    pub jitter_max_ns: u64,
    /// Fraction of each rank's crypto workers that run degraded.
    pub degraded_workers: f64,
    /// Slowdown factor applied to a degraded worker (≥ 1).
    pub worker_slowdown: u32,
}

impl FaultRates {
    /// Everything off: the plan always answers [`Verdict::Deliver`].
    pub const ZERO: FaultRates = FaultRates {
        bit_flip: 0.0,
        truncate: 0.0,
        drop: 0.0,
        duplicate: 0.0,
        jitter: 0.0,
        jitter_max_ns: 0,
        degraded_workers: 0.0,
        worker_slowdown: 1,
    };

    /// The same probability `p` for every payload fault class, default
    /// jitter bound (20 µs) and no degraded workers — the knob the
    /// chaos bench sweeps.
    pub fn uniform(p: f64) -> Self {
        FaultRates {
            bit_flip: p,
            truncate: p,
            drop: p,
            duplicate: p,
            jitter: p,
            jitter_max_ns: 20_000,
            ..FaultRates::ZERO
        }
    }

    /// True when no fault class can ever fire.
    fn is_zero(&self) -> bool {
        self.bit_flip == 0.0
            && self.truncate == 0.0
            && self.drop == 0.0
            && self.duplicate == 0.0
            && self.jitter == 0.0
            && self.degraded_workers == 0.0
    }
}

/// What the plan decided for one frame at one delivery attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Deliver unmodified.
    Deliver,
    /// Flip bit `bit` of byte `byte` (indices taken modulo the payload
    /// length by [`Verdict::mutate`]).
    BitFlip {
        /// Byte offset to corrupt.
        byte: usize,
        /// Bit within that byte (0–7).
        bit: u8,
    },
    /// Keep only the first `keep` bytes.
    Truncate {
        /// Number of bytes to keep (capped at the payload length).
        keep: usize,
    },
    /// Lose the payload entirely.
    Drop,
    /// Deliver the frame twice.
    Duplicate,
    /// Delay the frame by `extra_ns` before it reaches the NIC.
    Jitter {
        /// Injected extra latency (ns).
        extra_ns: u64,
    },
}

impl Verdict {
    /// Short label for trace spans and fault ledgers (`fault/...`).
    pub fn label(&self) -> &'static str {
        match self {
            Verdict::Deliver => "fault/none",
            Verdict::BitFlip { .. } => "fault/bitflip",
            Verdict::Truncate { .. } => "fault/truncate",
            Verdict::Drop => "fault/drop",
            Verdict::Duplicate => "fault/duplicate",
            Verdict::Jitter { .. } => "fault/jitter",
        }
    }

    /// Apply the payload-mutating verdicts in place. `BitFlip` and
    /// `Truncate` modify `data`; `Drop` empties it; `Duplicate` and
    /// `Jitter` are scheduling faults the caller must handle.
    pub fn mutate(&self, data: &mut Vec<u8>) {
        match *self {
            Verdict::Deliver | Verdict::Duplicate | Verdict::Jitter { .. } => {}
            Verdict::BitFlip { byte, bit } => {
                if !data.is_empty() {
                    let i = byte % data.len();
                    data[i] ^= 1 << (bit % 8);
                }
            }
            Verdict::Truncate { keep } => {
                let keep = keep.min(data.len().saturating_sub(1));
                data.truncate(keep);
            }
            Verdict::Drop => data.clear(),
        }
    }
}

/// A seeded, replayable fault plan (see module docs).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// Master seed; every coordinate hashes it into its own stream.
    pub seed: u64,
    /// Injection probabilities and shape parameters.
    pub rates: FaultRates,
}

impl FaultPlan {
    /// A plan with the given seed and rates.
    pub fn new(seed: u64, rates: FaultRates) -> Self {
        FaultPlan { seed, rates }
    }

    /// Decide the fate of one frame. The coordinate is
    /// `(src, dst, stream, index, attempt)`: `stream` is a per-link
    /// message sequence number, `index` the chunk index within the
    /// message (0 for plain frames) and `attempt` the delivery attempt
    /// (0 = first transmission, 1+ = retransmits). `len` is the sealed
    /// payload length, used to place bit-flips and truncation points.
    pub fn verdict(
        &self,
        src: usize,
        dst: usize,
        stream: u64,
        index: u32,
        attempt: u32,
        len: usize,
    ) -> Verdict {
        if self.rates.is_zero() {
            return Verdict::Deliver;
        }
        let mut s = mix(
            self.seed,
            &[src as u64, dst as u64, stream, index as u64, attempt as u64],
        );
        let r = self.rates;
        let p = unit(splitmix64(&mut s));
        let mut edge = r.drop;
        if p < edge {
            return Verdict::Drop;
        }
        edge += r.truncate;
        if p < edge {
            let keep = if len == 0 {
                0
            } else {
                (splitmix64(&mut s) as usize) % len
            };
            return Verdict::Truncate { keep };
        }
        edge += r.bit_flip;
        if p < edge {
            return Verdict::BitFlip {
                byte: splitmix64(&mut s) as usize,
                bit: (splitmix64(&mut s) % 8) as u8,
            };
        }
        edge += r.duplicate;
        if p < edge {
            return Verdict::Duplicate;
        }
        edge += r.jitter;
        if p < edge && r.jitter_max_ns > 0 {
            return Verdict::Jitter {
                extra_ns: 1 + splitmix64(&mut s) % r.jitter_max_ns,
            };
        }
        Verdict::Deliver
    }

    /// The deterministic set of degraded workers for `rank`'s pool of
    /// `workers` cores, as `(worker, slowdown)` pairs. The count is
    /// `round(workers * degraded_workers)`; which workers are chosen
    /// depends only on `(seed, rank)`.
    pub fn degraded_workers(&self, rank: usize, workers: usize) -> Vec<(usize, u32)> {
        let k = (workers as f64 * self.rates.degraded_workers).round() as usize;
        let k = k.min(workers);
        if k == 0 || self.rates.worker_slowdown <= 1 {
            return Vec::new();
        }
        // Partial Fisher–Yates over worker indices, keyed by (seed, rank).
        let mut s = mix(self.seed, &[0x5eed_c0de, rank as u64]);
        let mut idx: Vec<usize> = (0..workers).collect();
        let mut out = Vec::with_capacity(k);
        for i in 0..k {
            let j = i + (splitmix64(&mut s) as usize) % (workers - i);
            idx.swap(i, j);
            out.push((idx[i], self.rates.worker_slowdown));
        }
        out.sort_unstable();
        out
    }
}

/// How a rank leaves the world under a [`CrashPlan`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashKind {
    /// Process death (crash-stop): the rank's coroutine is parked at
    /// the scheduled instant and never runs again. The node's OS
    /// daemon observes the exit, so a liveness probe gets a definitive
    /// "dead" answer immediately.
    Crash,
    /// Wedged process: the rank stops servicing its queues at the
    /// scheduled instant, but the OS still holds its process lease, so
    /// probes go unanswered and a detector needs several missed-probe
    /// rounds before it may declare the rank dead.
    Hang,
}

impl CrashKind {
    /// Scheduler-status label (`"crashed"` / `"hung"`).
    pub fn label(self) -> &'static str {
        match self {
            CrashKind::Crash => "crashed",
            CrashKind::Hang => "hung",
        }
    }
}

/// One scheduled process-level fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashEvent {
    /// The rank that dies.
    pub rank: usize,
    /// Virtual time of death. The rank executes normally strictly
    /// before `at` and never at or after it.
    pub at: crate::time::VTime,
    /// Crash-stop or wedge (see [`CrashKind`]).
    pub kind: CrashKind,
}

/// A schedule of process-level faults: which ranks die, when, and how.
///
/// Unlike the message-level [`FaultPlan`] (a probability field), a
/// crash plan is an explicit event list — the fault-tolerance tests
/// need to kill a *specific* rank at a *specific* virtual time and
/// assert on what every survivor observes. Plans are deterministic by
/// construction.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CrashPlan {
    events: Vec<CrashEvent>,
}

impl CrashPlan {
    /// An empty plan (nobody dies).
    pub fn new() -> Self {
        CrashPlan::default()
    }

    /// Schedule a crash-stop death of `rank` at virtual time `at`.
    pub fn crash_at(mut self, rank: usize, at: crate::time::VTime) -> Self {
        self.events.push(CrashEvent {
            rank,
            at,
            kind: CrashKind::Crash,
        });
        self
    }

    /// Schedule a wedge of `rank` at virtual time `at`.
    pub fn hang_at(mut self, rank: usize, at: crate::time::VTime) -> Self {
        self.events.push(CrashEvent {
            rank,
            at,
            kind: CrashKind::Hang,
        });
        self
    }

    /// No events scheduled?
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// All scheduled events.
    pub fn events(&self) -> &[CrashEvent] {
        &self.events
    }

    /// The earliest scheduled fate of `rank`, if any.
    pub fn fate(&self, rank: usize) -> Option<(crate::time::VTime, CrashKind)> {
        self.events
            .iter()
            .filter(|e| e.rank == rank)
            .map(|e| (e.at, e.kind))
            .min_by_key(|&(t, _)| t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_are_deterministic() {
        let plan = FaultPlan::new(42, FaultRates::uniform(0.3));
        for stream in 0..50u64 {
            for index in 0..4u32 {
                let a = plan.verdict(0, 1, stream, index, 0, 1024);
                let b = plan.verdict(0, 1, stream, index, 0, 1024);
                assert_eq!(a, b);
            }
        }
    }

    #[test]
    fn zero_rates_always_deliver() {
        let plan = FaultPlan::new(7, FaultRates::ZERO);
        for stream in 0..200u64 {
            assert_eq!(plan.verdict(0, 1, stream, 0, 0, 4096), Verdict::Deliver);
        }
        assert!(FaultRates::ZERO.is_zero());
        assert!(!FaultRates::uniform(0.01).is_zero());
    }

    #[test]
    fn saturated_drop_rate_always_drops() {
        let rates = FaultRates {
            drop: 1.0,
            ..FaultRates::ZERO
        };
        let plan = FaultPlan::new(3, rates);
        for stream in 0..50u64 {
            assert_eq!(plan.verdict(2, 5, stream, 1, 0, 100), Verdict::Drop);
        }
    }

    #[test]
    fn attempts_draw_fresh_verdicts() {
        // At a 50% corruption rate, some attempt within the first few
        // retries must deliver — the whole point of keying on attempt.
        let plan = FaultPlan::new(11, FaultRates::uniform(0.5 / 5.0));
        let mut delivered = false;
        for attempt in 0..16u32 {
            if plan.verdict(0, 1, 9, 0, attempt, 256) == Verdict::Deliver {
                delivered = true;
                break;
            }
        }
        assert!(delivered, "16 attempts at 50% total fault rate all failed");
    }

    #[test]
    fn mixed_rates_hit_every_class() {
        let plan = FaultPlan::new(1234, FaultRates::uniform(0.15));
        let mut seen = [false; 6];
        for stream in 0..400u64 {
            let v = plan.verdict(1, 2, stream, 0, 0, 512);
            let i = match v {
                Verdict::Deliver => 0,
                Verdict::BitFlip { .. } => 1,
                Verdict::Truncate { .. } => 2,
                Verdict::Drop => 3,
                Verdict::Duplicate => 4,
                Verdict::Jitter { .. } => 5,
            };
            seen[i] = true;
        }
        assert!(seen.iter().all(|&s| s), "classes seen: {seen:?}");
    }

    #[test]
    fn mutate_shapes_payloads() {
        let orig = vec![0u8; 64];
        let mut flipped = orig.clone();
        Verdict::BitFlip { byte: 70, bit: 3 }.mutate(&mut flipped);
        assert_eq!(flipped.len(), 64);
        let diff: u32 = orig
            .iter()
            .zip(&flipped)
            .map(|(a, b)| (a ^ b).count_ones())
            .sum();
        assert_eq!(diff, 1, "exactly one bit flipped");

        let mut cut = orig.clone();
        Verdict::Truncate { keep: 1000 }.mutate(&mut cut);
        assert!(cut.len() < 64, "truncate always removes something");

        let mut gone = orig.clone();
        Verdict::Drop.mutate(&mut gone);
        assert!(gone.is_empty());
    }

    #[test]
    fn degraded_workers_are_stable_per_rank() {
        let rates = FaultRates {
            degraded_workers: 0.5,
            worker_slowdown: 4,
            ..FaultRates::ZERO
        };
        let plan = FaultPlan::new(99, rates);
        let a = plan.degraded_workers(0, 4);
        assert_eq!(a.len(), 2);
        assert_eq!(a, plan.degraded_workers(0, 4));
        for &(w, slow) in &a {
            assert!(w < 4);
            assert_eq!(slow, 4);
        }
        // No degradation requested → empty.
        let none = FaultPlan::new(99, FaultRates::ZERO);
        assert!(none.degraded_workers(0, 4).is_empty());
    }

    #[test]
    fn jitter_is_bounded() {
        let rates = FaultRates {
            jitter: 1.0,
            jitter_max_ns: 500,
            ..FaultRates::ZERO
        };
        let plan = FaultPlan::new(5, rates);
        for stream in 0..100u64 {
            match plan.verdict(0, 1, stream, 0, 0, 64) {
                Verdict::Jitter { extra_ns } => {
                    assert!((1..=500).contains(&extra_ns), "extra_ns={extra_ns}")
                }
                v => panic!("expected jitter, got {v:?}"),
            }
        }
    }
}
