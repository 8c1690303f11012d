//! The five closed-loop workloads, each one cell of the paper's own
//! tables, and the function that runs one repetition of one of them.
//!
//! A repetition builds a fresh `World`, runs a fixed number of ops on
//! it and tears it down, exactly as a user producing a table does; its
//! load comes from this one process. Rank 0 times every op on the host
//! clock and checks the payload of the first and the last op.

use std::cell::{Cell, RefCell};
use std::ops::Deref;
use std::time::Instant;

use empi_aead::profile::CryptoLibrary;
use empi_core::{SecureComm, SecurityConfig, TimingMode};
use empi_mpi::{Comm, Src, Tag, TagSel, TraceReport, World};
use empi_nas::adi::{self, AdiKind};
use empi_nas::{ft, lu, Class, CommLayer, KernelReport, PlainLayer, SecureLayer};
use empi_netsim::{NetModel, Topology, VDur};
use empi_pipeline::PipelineConfig;

use crate::spans::{Open, Spans};
use crate::sys;

/// Pairs and window of the multi-pair cell (FIG-13).
const PAIRS: usize = 4;
const WINDOW: usize = 16;
/// Messages all pairs together move in one window.
pub const MSGS_PER_WINDOW: usize = PAIRS * WINDOW;
/// Rank 0 records spans for one op in this many.
const SPAN_SAMPLE: u64 = 64;
/// The NAS kernels of `nas_c64`, in run order. CG, MG and IS are left
/// out on cost: CG alone takes 41 s of host time, 60 % of the suite.
/// Each with the name of its span.
const NAS_KERNELS: [(&str, &str); 4] = [
    ("ft", "nas.ft"),
    ("lu", "nas.lu"),
    ("bt", "nas.bt"),
    ("sp", "nas.sp"),
];

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Kind {
    /// 2 ranks on 2 nodes, blocking send/recv round trips of `size` bytes.
    PingPong { size: usize, round_trips: usize },
    /// 4 pairs across 2 nodes, `iters` windows of 16 × `size` bytes, each
    /// closed by a 1-byte ack.
    MultiPair {
        size: usize,
        iters: usize,
        piped: bool,
    },
    /// FT, LU, BT, SP at `Class::MiniC` on 64 ranks / 8 nodes.
    Nas,
}

#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    pub kind: Kind,
    /// Pinned to one CPU with one shard; otherwise two CPUs, two shards.
    pub pinned: bool,
    /// The overhead (%) the cell is compared against: the paper's
    /// number where it prints one, else this repository's committed
    /// EXPERIMENTS.md cell.
    pub reference_pct: f64,
}

pub const SPECS: [Spec; 5] = [
    Spec {
        name: "pp_small",
        why: "TAB-5 cell, 256 B ping-pong on IB: hand-off-bound (12 engine yields per round trip, AES about 6 %), so netsim tenure changes, mpi matching and core per-record cost do the work",
        kind: Kind::PingPong { size: 256, round_trips: 100_000 },
        pinned: true,
        reference_pct: 80.9,
    },
    Spec {
        name: "pp_large",
        why: "FIG-10 cell, 2 MB ping-pong on IB: aead-bound (4 x 2 MB seal/open per round trip), so an AES/GHASH kernel change shows here and an engine change must leave it flat",
        kind: Kind::PingPong { size: 2 << 20, round_trips: 300 },
        pinned: true,
        reference_pct: 215.2,
    },
    Spec {
        name: "mp_shard",
        why: "FIG-13 cell, 4 pairs x window 16 x 2 MB, sequential records on 2 shards / 2 CPUs: the only place detached compute lanes can pay; cpu_s beside host_s shows a gain bought by spinning",
        kind: Kind::MultiPair { size: 2 << 20, iters: 6, piped: false },
        pinned: false,
        reference_pct: 2.57,
    },
    Spec {
        name: "mp_piped",
        why: "same traffic through the chunked pipeline (4 workers) and the buffer pool: ChunkedSealer, completion funnel, pool and CorePool; a gain for one record path that costs the other shows against mp_shard",
        kind: Kind::MultiPair { size: 2 << 20, iters: 4, piped: true },
        pinned: false,
        reference_pct: 2.57,
    },
    Spec {
        name: "nas_c64",
        why: "TAB-4 geometry, NAS FT LU BT SP class MiniC on 64 ranks / 8 nodes, Ethernet: the whole stack with 64 threads on the run-queue heap, real kernel arithmetic, alltoall + wavefront + ADI traffic",
        kind: Kind::Nas,
        pinned: true,
        reference_pct: (6.4 + 5.6 + 20.0 + 11.2) / 4.0,
    },
];

pub fn spec(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name == name)
}

impl Spec {
    pub fn model(&self) -> NetModel {
        match self.kind {
            Kind::Nas => NetModel::ethernet_10g(),
            _ => NetModel::infiniband_40g(),
        }
    }

    /// Scheduler shards of the workload's own placement.
    pub fn shards(&self) -> usize {
        if self.pinned {
            1
        } else {
            2
        }
    }

    /// The CPUs of the workload's own placement, out of `allowed`.
    pub fn cpus<'a>(&self, allowed: &'a [usize]) -> &'a [usize] {
        &allowed[..allowed.len().min(self.shards())]
    }

    /// Payload megabytes one repetition of a multi-pair workload moves.
    pub fn window_mb_per_rep(&self) -> Option<f64> {
        match self.kind {
            Kind::MultiPair { size, iters, .. } => {
                Some((iters * MSGS_PER_WINDOW * size) as f64 / (1 << 20) as f64)
            }
            _ => None,
        }
    }
}

/// What a workload is fed: generated from the seed, never read by the
/// program under test in any other way.
pub struct Inputs {
    pub payload: Vec<u8>,
    pub nonce_seed: u64,
}

/// SplitMix64: small, seedable, and good enough to make payload bytes
/// that are neither constant nor compressible.
pub struct SplitMix64(pub u64);

impl SplitMix64 {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn bytes(&mut self, len: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(len + 8);
        while out.len() < len {
            out.extend_from_slice(&self.next_u64().to_le_bytes());
        }
        out.truncate(len);
        out
    }
}

pub fn make_inputs(spec: &Spec, seed: u64) -> Inputs {
    let mut rng = SplitMix64(seed);
    let nonce_seed = rng.next_u64();
    let len = match spec.kind {
        Kind::PingPong { size, .. } => size,
        Kind::MultiPair { size, .. } => size,
        // The NAS kernels generate their own fields; only nonces vary.
        Kind::Nas => 0,
    };
    Inputs {
        payload: rng.bytes(len),
        nonce_seed,
    }
}

/// The security configuration every workload uses: BoringSSL, AES-256,
/// timing calibrated to the fabric (the paper's headline row).
pub fn security_config(model: &NetModel, nonce_seed: u64, piped: bool) -> SecurityConfig {
    let cfg = SecurityConfig::new(CryptoLibrary::BoringSsl)
        .with_timing(TimingMode::calibrated_for(model))
        .with_deterministic_nonces(nonce_seed);
    if piped {
        cfg.with_pipeline(PipelineConfig::enabled().with_workers(4))
            .with_buffer_pool(true)
    } else {
        cfg
    }
}

/// How one repetition is run.
#[derive(Clone, Copy)]
pub struct RepOpts<'a> {
    /// Through `SecureComm` / `SecureLayer`; otherwise the unencrypted
    /// baseline with the same traffic.
    pub secure: bool,
    pub traced: bool,
    /// With the metrics plane recording (`World::with_metrics`).
    pub metered: bool,
    pub shards: usize,
    /// Divide the op count by this (warm-up and smoke reps); for NAS
    /// anything above 1 means class S on 8 ranks.
    pub shrink: usize,
    /// Record spans under this parent.
    pub spans: Option<(&'a Spans, u32)>,
}

/// Sums over the `TraceReport`s of one repetition.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct Counters {
    pub crypto_ns: u64,
    pub host_ns: u64,
    pub wire_ns: u64,
    pub wait_ns: u64,
    pub seals: u64,
    pub opens: u64,
    pub sealed_plain_bytes: u64,
    pub sealed_wire_bytes: u64,
    pub opened_plain_bytes: u64,
    pub chunks_sealed: u64,
    pub allocs_fresh: u64,
    pub allocs_pooled: u64,
    pub dropped_events: u64,
    pub hw_fallbacks: u64,
}

impl Counters {
    fn add(&mut self, r: &TraceReport) {
        let d = r.decomposition();
        self.crypto_ns += d.crypto_ns;
        self.host_ns += d.host_ns;
        self.wire_ns += d.wire_ns;
        self.wait_ns += d.wait_ns;
        for m in &r.per_rank {
            self.seals += m.seals;
            self.opens += m.opens;
            self.sealed_plain_bytes += m.sealed_plain_bytes;
            self.sealed_wire_bytes += m.sealed_wire_bytes;
            self.opened_plain_bytes += m.opened_plain_bytes;
            self.chunks_sealed += m.chunks_sealed;
            self.allocs_fresh += m.allocs_fresh;
            self.allocs_pooled += m.allocs_pooled;
        }
        self.dropped_events += r.dropped_events;
        self.hw_fallbacks += r.engines.hw_fallbacks;
    }
}

/// One NAS kernel of a repetition.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelRow {
    pub name: &'static str,
    pub host_s: f64,
    pub virt_ns: u64,
}

/// What one repetition measured.
#[derive(Debug, Default)]
pub struct Rep {
    pub wall_s: f64,
    pub cpu_s: f64,
    /// Virtual nanoseconds the table would report for this repetition.
    pub virt_ns: u64,
    /// `FabricStats.messages + local_messages`.
    pub msgs: u64,
    pub yields: u64,
    pub ops: u64,
    /// Ops lost to a typed error, a payload mismatch or an unverified
    /// kernel; a repetition the simulator aborts loses all its ops.
    pub failed: u64,
    /// Host nanoseconds of each op timed at rank 0.
    pub op_ns: Vec<u64>,
    /// Present on traced repetitions.
    pub counters: Option<Counters>,
    pub kernels: Vec<KernelRow>,
}

/// Point-to-point calls the ping-pong and multi-pair programs need,
/// over plain and encrypted MPI alike.
trait P2p {
    type Req;
    fn send(&self, buf: &[u8], dst: usize, tag: Tag);
    fn recv(&self, src: usize, tag: Tag) -> Result<impl Deref<Target = [u8]>, String>;
    fn isend(&self, buf: &[u8], dst: usize, tag: Tag) -> Self::Req;
    fn irecv(&self, src: usize, tag: Tag) -> Self::Req;
    /// Payloads of the receive requests, in request order.
    fn waitall(&self, reqs: Vec<Self::Req>) -> Result<Vec<impl Deref<Target = [u8]>>, String>;
}

impl P2p for Comm<'_> {
    type Req = empi_mpi::Request;
    fn send(&self, buf: &[u8], dst: usize, tag: Tag) {
        Comm::send(self, buf, dst, tag)
    }
    fn recv(&self, src: usize, tag: Tag) -> Result<impl Deref<Target = [u8]>, String> {
        Ok(Comm::recv(self, Src::Is(src), TagSel::Is(tag)).1)
    }
    fn isend(&self, buf: &[u8], dst: usize, tag: Tag) -> Self::Req {
        Comm::isend(self, buf, dst, tag)
    }
    fn irecv(&self, src: usize, tag: Tag) -> Self::Req {
        Comm::irecv(self, Src::Is(src), TagSel::Is(tag))
    }
    fn waitall(&self, reqs: Vec<Self::Req>) -> Result<Vec<impl Deref<Target = [u8]>>, String> {
        Ok(Comm::waitall(self, reqs)
            .into_iter()
            .filter_map(|(_, p)| p)
            .collect())
    }
}

impl P2p for SecureComm<'_, '_> {
    type Req = empi_core::SecureRequest;
    fn send(&self, buf: &[u8], dst: usize, tag: Tag) {
        SecureComm::send(self, buf, dst, tag)
    }
    fn recv(&self, src: usize, tag: Tag) -> Result<impl Deref<Target = [u8]>, String> {
        SecureComm::recv(self, Src::Is(src), TagSel::Is(tag))
            .map(|(_, m)| m)
            .map_err(|e| e.to_string())
    }
    fn isend(&self, buf: &[u8], dst: usize, tag: Tag) -> Self::Req {
        SecureComm::isend(self, buf, dst, tag)
    }
    fn irecv(&self, src: usize, tag: Tag) -> Self::Req {
        SecureComm::irecv(self, Src::Is(src), TagSel::Is(tag))
    }
    fn waitall(&self, reqs: Vec<Self::Req>) -> Result<Vec<impl Deref<Target = [u8]>>, String> {
        SecureComm::waitall(self, reqs)
            .map(|done| done.into_iter().filter_map(|(_, p)| p).collect())
            .map_err(|e| e.to_string())
    }
}

/// Rank 0's host-side recorder: per-op latency always, spans for one
/// op in [`SPAN_SAMPLE`] when a span recorder is installed.
struct Rank0<'a> {
    spans: Option<(&'a Spans, u32)>,
    calls: Cell<u64>,
    op_ns: RefCell<Vec<u64>>,
}

impl<'a> Rank0<'a> {
    fn new(spans: Option<(&'a Spans, u32)>, expected_ops: usize) -> Self {
        Rank0 {
            spans,
            calls: Cell::new(0),
            op_ns: RefCell::new(Vec::with_capacity(expected_ops)),
        }
    }

    /// Time `f` as one op named `name`; `f` gets the op's span, if this
    /// op is sampled, to hang child spans on.
    fn op<T>(&self, name: &'static str, f: impl FnOnce(Option<&Open<'a>>) -> T) -> T {
        let n = self.calls.get();
        self.calls.set(n + 1);
        let span = match self.spans {
            Some((s, parent)) if n.is_multiple_of(SPAN_SAMPLE) => Some(s.enter(name, parent, 1)),
            _ => None,
        };
        let t = Instant::now();
        let out = f(span.as_ref());
        self.op_ns.borrow_mut().push(t.elapsed().as_nanos() as u64);
        out
    }

    /// A span for one call into a layer, under a sampled op.
    fn call(&self, name: &'static str, op: Option<&Open<'a>>) -> Option<Open<'a>> {
        let (s, _) = self.spans?;
        Some(s.enter(name, op?.id(), 1))
    }
}

/// What a rank's closure hands back.
#[derive(Default)]
struct RankOut {
    virt_ns: u64,
    /// Payloads that came back wrong, or 1 for an unverified kernel.
    mismatches: u64,
    op_ns: Vec<u64>,
}

fn pingpong_rank<L: P2p>(
    link: &L,
    c: &Comm,
    payload: &[u8],
    n: usize,
    spans: Option<(&Spans, u32)>,
) -> Result<RankOut, String> {
    let mut out = RankOut::default();
    if c.rank() == 0 {
        let rec = Rank0::new(spans, n);
        let t0 = c.now();
        for i in 0..n {
            let intact = rec.op("op", |op| {
                {
                    let _s = rec.call("sc.send", op);
                    link.send(payload, 1, 0);
                }
                let _s = rec.call("sc.recv", op);
                let back = link.recv(1, 1)?;
                // Checked on the first and the last op only, so that the
                // compare stays out of the timed loop's steady state.
                Ok::<bool, String>((i != 0 && i != n - 1) || *back == *payload)
            })?;
            out.mismatches += u64::from(!intact);
        }
        out.virt_ns = (c.now() - t0).as_nanos();
        out.op_ns = rec.op_ns.into_inner();
    } else {
        for _ in 0..n {
            let m = link.recv(0, 0)?;
            link.send(&m, 0, 1);
        }
    }
    Ok(out)
}

fn multipair_rank<L: P2p>(
    link: &L,
    c: &Comm,
    payload: &[u8],
    iters: usize,
    spans: Option<(&Spans, u32)>,
) -> Result<RankOut, String> {
    let me = c.rank();
    let is_sender = me < PAIRS;
    let peer = if is_sender { me + PAIRS } else { me - PAIRS };
    let mut out = RankOut::default();
    let rec = Rank0::new(if me == 0 { spans } else { None }, iters);
    c.barrier();
    let t0 = c.now();
    for i in 0..iters {
        if is_sender {
            rec.op("op", |op| {
                let reqs: Vec<_> = {
                    let _s = rec.call("sc.isend", op);
                    (0..WINDOW).map(|_| link.isend(payload, peer, 0)).collect()
                };
                {
                    let _s = rec.call("sc.waitall", op);
                    link.waitall(reqs)?;
                }
                let _s = rec.call("sc.recv", op);
                link.recv(peer, 1).map(|_| ())
            })?;
        } else {
            let reqs: Vec<_> = (0..WINDOW).map(|_| link.irecv(peer, 0)).collect();
            let got = link.waitall(reqs)?;
            if i == 0 || i == iters - 1 {
                let bad = got.iter().filter(|m| ***m != *payload).count();
                out.mismatches += (bad + WINDOW - got.len()) as u64;
            }
            link.send(&[1u8], peer, 1);
        }
    }
    c.barrier();
    out.virt_ns = (c.now() - t0).as_nanos();
    if me == 0 {
        out.op_ns = rec.op_ns.into_inner();
    }
    Ok(out)
}

/// `CommLayer` that times every communication call at rank 0 from the
/// outside; compute charges and rank/size queries pass straight through.
struct TimedLayer<'a, L> {
    inner: L,
    rec: Rank0<'a>,
}

impl<L: CommLayer> CommLayer for TimedLayer<'_, L> {
    fn rank(&self) -> usize {
        self.inner.rank()
    }
    fn size(&self) -> usize {
        self.inner.size()
    }
    fn compute(&self, d: VDur) {
        self.inner.compute(d)
    }
    fn compute_with(&self, d: VDur, f: &mut dyn FnMut()) {
        self.inner.compute_with(d, f)
    }
    fn barrier(&self) {
        self.rec.op("layer.barrier", |_| self.inner.barrier())
    }
    fn allreduce_sum(&self, data: &[f64]) -> Vec<f64> {
        self.rec
            .op("layer.allreduce", |_| self.inner.allreduce_sum(data))
    }
    fn allreduce_max_i64(&self, data: &[i64]) -> Vec<i64> {
        self.rec
            .op("layer.allreduce", |_| self.inner.allreduce_max_i64(data))
    }
    fn bcast(&self, buf: &mut Vec<u8>, root: usize) {
        self.rec.op("layer.bcast", |_| self.inner.bcast(buf, root))
    }
    fn allgather(&self, send: &[u8]) -> Vec<u8> {
        self.rec
            .op("layer.allgather", |_| self.inner.allgather(send))
    }
    fn alltoall(&self, send: &[u8], block: usize) -> Vec<u8> {
        self.rec
            .op("layer.alltoall", |_| self.inner.alltoall(send, block))
    }
    fn alltoallv(&self, send: &[u8], scounts: &[usize], rcounts: &[usize]) -> Vec<u8> {
        self.rec.op("layer.alltoallv", |_| {
            self.inner.alltoallv(send, scounts, rcounts)
        })
    }
    fn send(&self, buf: &[u8], dst: usize, tag: Tag) {
        self.rec
            .op("layer.send", |_| self.inner.send(buf, dst, tag))
    }
    fn recv(&self, src: usize, tag: Tag) -> Vec<u8> {
        self.rec.op("layer.recv", |_| self.inner.recv(src, tag))
    }
    fn sendrecv(&self, sendbuf: &[u8], dst: usize, src: usize, tag: Tag) -> Vec<u8> {
        self.rec.op("layer.sendrecv", |_| {
            self.inner.sendrecv(sendbuf, dst, src, tag)
        })
    }
}

fn nas_kernel(name: &str, layer: &impl CommLayer, class: Class) -> KernelReport {
    match name {
        "ft" => ft::run(layer, class),
        "lu" => lu::run(layer, class),
        "bt" => adi::run(layer, class, AdiKind::Bt),
        "sp" => adi::run(layer, class, AdiKind::Sp),
        other => unreachable!("no NAS kernel named {other}"),
    }
}

fn nas_rank(
    c: &Comm,
    cfg: Option<SecurityConfig>,
    kernel: &str,
    class: Class,
    spans: Option<(&Spans, u32)>,
) -> RankOut {
    let (plain, secure);
    let layer: &dyn CommLayer = match cfg {
        None => {
            plain = PlainLayer::new(c);
            &plain
        }
        Some(cfg) => {
            secure = SecureLayer::new(c, cfg);
            &secure
        }
    };
    c.barrier();
    let t0 = c.now();
    let (report, op_ns) = if c.rank() == 0 {
        let timed = TimedLayer {
            inner: layer,
            rec: Rank0::new(spans, 4096),
        };
        (
            nas_kernel(kernel, &timed, class),
            timed.rec.op_ns.into_inner(),
        )
    } else {
        (nas_kernel(kernel, &layer, class), Vec::new())
    };
    c.barrier();
    RankOut {
        virt_ns: (c.now() - t0).as_nanos(),
        mismatches: u64::from(!report.verified),
        op_ns,
    }
}

/// Run `f` on every rank of `world` under a `world.run` span, and fold
/// the ranks' results into `rep`. `ops` is what the run attempts.
fn run_world(
    world: &World,
    rep: &mut Rep,
    ops: u64,
    spans: Option<(&Spans, u32)>,
    f: impl Fn(&Comm, Option<(&Spans, u32)>) -> Result<RankOut, String> + Sync,
) {
    let span = spans.map(|(s, parent)| s.enter("world.run", parent, 0));
    let inner = spans
        .zip(span.as_ref())
        .map(|((s, _), open)| (s, open.id()));
    let result = world.try_run(|c| f(c, inner));
    drop(span);
    rep.ops += ops;
    let out = match result {
        Ok(out) => out,
        Err(e) => {
            eprintln!("  simulation aborted: {e}");
            rep.failed += ops;
            return;
        }
    };
    rep.msgs += out.fabric.messages + out.fabric.local_messages;
    rep.yields += out.yields;
    if let Some(t) = &out.trace {
        rep.counters.get_or_insert_with(Counters::default).add(t);
    }
    let mut failed = 0;
    let mut virt_ns = 0;
    for r in out.results {
        match r {
            Ok(r) => {
                failed += r.mismatches;
                virt_ns = virt_ns.max(r.virt_ns);
                if !r.op_ns.is_empty() {
                    rep.op_ns.extend(r.op_ns);
                }
            }
            Err(e) => {
                eprintln!("  rank failed: {e}");
                failed += 1;
            }
        }
    }
    rep.failed += failed.min(ops);
    rep.virt_ns += virt_ns;
}

/// Run one repetition of `spec` on `inputs`.
pub fn run_rep(spec: &Spec, inputs: &Inputs, opts: RepOpts) -> Rep {
    let model = spec.model();
    let mut rep = Rep::default();
    let shrink = opts.shrink.max(1);
    let (cpu0, t0) = (sys::process_cpu_s(), Instant::now());
    match spec.kind {
        Kind::PingPong { round_trips, .. } => {
            let n = (round_trips / shrink).max(2);
            let world = World::flat(model.clone(), 2)
                .with_shards(opts.shards)
                .traced(opts.traced)
                .with_metrics(opts.metered);
            run_world(&world, &mut rep, n as u64, opts.spans, |c, spans| {
                if opts.secure {
                    let cfg = security_config(&model, inputs.nonce_seed, false);
                    let sc = SecureComm::new(c, cfg).map_err(|e| e.to_string())?;
                    pingpong_rank(&sc, c, &inputs.payload, n, spans)
                } else {
                    pingpong_rank(c, c, &inputs.payload, n, spans)
                }
            });
        }
        Kind::MultiPair { iters, piped, .. } => {
            let n = (iters / shrink).max(1);
            let world = World::new(model.clone(), Topology::block(2 * PAIRS, 2))
                .with_shards(opts.shards)
                .traced(opts.traced)
                .with_metrics(opts.metered);
            run_world(&world, &mut rep, n as u64, opts.spans, |c, spans| {
                if opts.secure {
                    let cfg = security_config(&model, inputs.nonce_seed, piped);
                    let sc = SecureComm::new(c, cfg).map_err(|e| e.to_string())?;
                    multipair_rank(&sc, c, &inputs.payload, n, spans)
                } else {
                    multipair_rank(c, c, &inputs.payload, n, spans)
                }
            });
        }
        Kind::Nas => {
            let (class, ranks, nodes) = if shrink > 1 {
                (Class::S, 8, 4)
            } else {
                (Class::MiniC, 64, 8)
            };
            let cfg = opts
                .secure
                .then(|| security_config(&model, inputs.nonce_seed, false));
            for (name, span_name) in NAS_KERNELS {
                let span = opts.spans.map(|(s, parent)| s.enter(span_name, parent, 0));
                let spans = opts.spans.zip(span.as_ref()).map(|((s, _), o)| (s, o.id()));
                let world = World::new(model.clone(), Topology::block(ranks, nodes))
                    .with_shards(opts.shards)
                    .traced(opts.traced)
                    .with_metrics(opts.metered);
                let (t, virt_before) = (Instant::now(), rep.virt_ns);
                run_world(&world, &mut rep, 1, spans, |c, spans| {
                    Ok(nas_rank(c, cfg.clone(), name, class, spans))
                });
                rep.kernels.push(KernelRow {
                    name,
                    host_s: t.elapsed().as_secs_f64(),
                    virt_ns: rep.virt_ns - virt_before,
                });
            }
        }
    }
    rep.wall_s = t0.elapsed().as_secs_f64();
    rep.cpu_s = sys::process_cpu_s() - cpu0;
    rep
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_in_the_contract_charset() {
        let mut seen = std::collections::BTreeSet::new();
        for s in &SPECS {
            assert!(crate::metrics::tests::valid_name(s.name), "{}", s.name);
            assert!(seen.insert(s.name), "duplicate workload {}", s.name);
            assert!(s.why.len() <= 200 && !s.why.contains('\n'), "{}", s.name);
        }
    }

    #[test]
    fn inputs_follow_the_seed() {
        let small = spec("pp_small").unwrap();
        let (a, b, c) = (
            make_inputs(small, 11),
            make_inputs(small, 11),
            make_inputs(small, 12),
        );
        assert_eq!(a.payload.len(), 256);
        assert_eq!((&a.payload, a.nonce_seed), (&b.payload, b.nonce_seed));
        assert_ne!(a.payload, c.payload);
        assert_ne!(a.nonce_seed, c.nonce_seed);
        assert!(make_inputs(spec("nas_c64").unwrap(), 11).payload.is_empty());
    }

    #[test]
    fn every_workload_runs_small_and_checks_its_output() {
        for s in &SPECS {
            let inputs = make_inputs(s, 7);
            for secure in [false, true] {
                let rep = run_rep(
                    s,
                    &inputs,
                    RepOpts {
                        secure,
                        traced: secure,
                        metered: false,
                        shards: s.shards(),
                        shrink: 50,
                        spans: None,
                    },
                );
                assert_eq!(rep.failed, 0, "{} secure={secure}", s.name);
                assert!(rep.ops > 0 && rep.msgs > 0 && rep.virt_ns > 0 && rep.yields > 0);
                assert!(!rep.op_ns.is_empty(), "{} has no op timings", s.name);
                assert_eq!(rep.counters.is_some(), secure);
                assert_eq!(rep.kernels.len(), if s.kind == Kind::Nas { 4 } else { 0 });
            }
        }
    }

    #[test]
    fn virtual_time_does_not_depend_on_the_seed_or_the_shards() {
        let s = spec("mp_piped").unwrap();
        let run = |seed, shards| {
            let opts = RepOpts {
                secure: true,
                traced: false,
                metered: false,
                shards,
                shrink: 2,
                spans: None,
            };
            run_rep(s, &make_inputs(s, seed), opts).virt_ns
        };
        let v = run(1, 1);
        assert_eq!(v, run(2, 1));
        assert_eq!(v, run(1, 2));
    }

    #[test]
    fn a_corrupted_echo_counts_as_a_failed_op() {
        // The echo side flips a byte: rank 0 must notice on op 0.
        let model = NetModel::infiniband_40g();
        let world = World::flat(model, 2).with_shards(1);
        let mut rep = Rep::default();
        let payload = vec![7u8; 64];
        run_world(&world, &mut rep, 4, None, |c, spans| {
            if c.rank() == 0 {
                pingpong_rank(c, c, &payload, 4, spans)
            } else {
                for _ in 0..4 {
                    let mut m = P2p::recv(c, 0, 0)?.to_vec();
                    m[0] ^= 1;
                    P2p::send(c, &m, 0, 1);
                }
                Ok(RankOut::default())
            }
        });
        assert_eq!((rep.ops, rep.failed), (4, 2));
    }
}
