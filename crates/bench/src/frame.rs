//! The one frame the plain-vs-encrypted harnesses run in, and the
//! blocking traffic shapes written once against it.
//!
//! The paper's method is to run the *same* benchmark program against
//! plain MPI and against the encrypted library. [`run_layered`] picks
//! the layer once per rank (`PlainLayer` / `SecureLayer` behind
//! `&dyn CommLayer`, the way the NAS kernels are written) and hands it
//! to one body, so the two rows of a table cannot drift apart. The
//! timing frame stays with each shape — rank 0 without barriers for the
//! ping-pong, barrier to barrier for the collectives — because moving
//! it would move virtual times.

use empi_core::SecurityConfig;
use empi_mpi::{Comm, TraceReport, World, WorldOutcome};
use empi_nas::{CommLayer, PlainLayer, SecureLayer};
use empi_netsim::VDur;

/// What one harness run yields: the measure plus, when the world was
/// traced, the trace report.
pub struct Run<T = f64> {
    /// The measured quantity (MB/s, µs per op, seconds — per runner).
    pub value: T,
    /// `Some` only for a traced run.
    pub trace: Option<TraceReport>,
}

impl<T> Run<T> {
    /// The report of a traced run.
    pub fn report(self) -> TraceReport {
        self.trace.expect("traced run must yield a report")
    }
}

/// Run `body` on every rank of `world` over plain MPI (`cfg == None`,
/// the unencrypted baseline) or over the encrypted library under `cfg`.
pub(crate) fn run_layered<T: Send>(
    world: &World,
    cfg: &Option<SecurityConfig>,
    body: impl Fn(&Comm, &dyn CommLayer) -> T + Sync,
) -> WorldOutcome<T> {
    world.run(|c| {
        let plain;
        let secure;
        let layer: &dyn CommLayer = match cfg {
            None => {
                plain = PlainLayer::new(c);
                &plain
            }
            Some(cfg) => {
                secure = SecureLayer::new(c, cfg.clone());
                &secure
            }
        };
        body(c, layer)
    })
}

/// The ping-pong echo between rank 0 and `peer`: `iters` round trips of
/// a `size`-byte message with blocking send/receive. Returns the
/// caller's elapsed virtual time; ranks other than the two stay idle.
pub(crate) fn echo(
    c: &Comm,
    layer: &dyn CommLayer,
    peer: usize,
    size: usize,
    iters: usize,
) -> VDur {
    let buf = vec![0x5au8; size];
    let t0 = c.now();
    if c.rank() == 0 {
        for _ in 0..iters {
            layer.send(&buf, peer, 0);
            let _ = layer.recv(peer, 1);
        }
    } else if c.rank() == peer {
        for _ in 0..iters {
            let m = layer.recv(0, 0);
            layer.send(&m, 0, 1);
        }
    }
    c.now() - t0
}

/// The collective traffic shapes of TAB-2/3/6/7 and TAB-PIPELINE-COLL.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Coll {
    /// Broadcast of `size` bytes from rank 0.
    Bcast,
    /// Alltoall, `size` bytes per block.
    Alltoall,
    /// The same traffic as a streaming pairwise exchange: one block in
    /// flight per round instead of all `n - 1` materialized at once.
    AlltoallStreaming,
    /// Alltoallv with ragged counts derived from `size` (segments mix
    /// chunked and plain wire formats).
    Alltoallv,
}

impl Coll {
    /// Name for table rows.
    pub fn name(self) -> &'static str {
        match self {
            Coll::Bcast => "bcast",
            Coll::Alltoall | Coll::AlltoallStreaming => "alltoall",
            Coll::Alltoallv => "alltoallv",
        }
    }
}

/// The ragged alltoallv count from rank `s` to rank `d` at base `size`:
/// every pair moves between `size/n` and `size` bytes, so with the
/// default 64 KB chunks some segments go chunked and some plain.
pub(crate) fn ragged_count(s: usize, d: usize, n: usize, size: usize) -> usize {
    size * (((s + d) % n) + 1) / n
}

/// `iters` operations of `op`, barrier to barrier; returns the caller's
/// elapsed virtual time.
pub(crate) fn collective_loop(
    c: &Comm,
    layer: &dyn CommLayer,
    op: Coll,
    size: usize,
    iters: usize,
) -> VDur {
    let n = c.size();
    let me = c.rank();
    c.barrier();
    let t0 = c.now();
    for _ in 0..iters {
        match op {
            Coll::Bcast => {
                let mut buf = vec![1u8; size];
                layer.bcast(&mut buf, 0);
            }
            Coll::Alltoall => {
                let send = vec![0xA5u8; size * n];
                let _ = layer.alltoall(&send, size);
            }
            Coll::AlltoallStreaming => {
                let buf = vec![0xA5u8; size];
                for i in 1..n {
                    let dst = (me + i) % n;
                    let src = (me + n - i) % n;
                    let _ = layer.sendrecv(&buf, dst, src, 2);
                }
            }
            Coll::Alltoallv => {
                let send_counts: Vec<usize> =
                    (0..n).map(|d| ragged_count(me, d, n, size)).collect();
                let recv_counts: Vec<usize> =
                    (0..n).map(|s| ragged_count(s, me, n, size)).collect();
                let send = vec![0x3cu8; send_counts.iter().sum()];
                let _ = layer.alltoallv(&send, &send_counts, &recv_counts);
            }
        }
    }
    c.barrier();
    c.now() - t0
}
