//! # empi-pipeline — chunked, multi-core crypto offload
//!
//! The paper's encrypted MPI seals a whole message, then sends it: the
//! crypto time and the wire time *add*. CryptMPI-style pipelining
//! splits the message into chunks, seals each chunk as an independent
//! AEAD record on a pool of dedicated crypto cores, and hands every
//! chunk to the NIC the moment its seal completes — so encryption of
//! chunk *k+1* overlaps the wire transfer of chunk *k*, and with enough
//! workers the transfer becomes wire-bound again.
//!
//! Layer map:
//!
//! * the chunk frame — geometry, per-chunk nonces (`base + i`), the
//!   header that is also each record's AAD, the one chunk seal and
//!   open, and the strict parser — is [`frame`], the only code that
//!   knows the layout;
//! * the transport carries frame trains as opaque bytes
//!   (`empi_mpi::chunk`: `SendPayload::Chunked`, `ChunkedMessage`);
//! * the per-rank worker pool is `empi_netsim::CorePool` — the same
//!   busy-until-timeline model as a NIC port, so worker occupancy
//!   composes with the conservative virtual-time engine for free;
//! * this crate orchestrates: schedule seals, emit per-chunk pipeline
//!   trace spans on per-worker lanes, hand timed frames to
//!   [`Comm::post`], and on the receive side overlap
//!   authenticated decryption with frame arrivals.
//!
//! Real AES-GCM always executes; only the *charged* per-chunk time
//! follows the configured cost model ([`ChunkCost`]), exactly like the
//! sequential path in `empi-core`. It executes on the host inside the
//! rank's tenure: a message's chunk seals (and opens) are independent
//! records, so [`Pipeline::seal_timed`] and [`Pipeline::open`] spread
//! them over the world's idle carriers with
//! `empi_netsim::SimHandle::par_each` and join before anything touches
//! simulation state. Buffer draws (from the world's pool) come before
//! the fork, and no buffer is dropped inside it; worker-pool
//! scheduling, allocation counts and spans follow the join in chunk
//! order, so the carrier count moves the wall-clock and nothing else.

use std::cell::Cell;

use bytes::Bytes;
use empi_aead::gcm::AesGcm;
use empi_aead::{NONCE_LEN, TAG_LEN};
use empi_mpi::chunk::{ChunkFrame, ChunkedMessage, RecvPayload};
use empi_mpi::Comm;
use empi_netsim::{CoreSlot, VDur};
use empi_trace::{Cat, Lane, Recorder};

pub mod frame;

pub use frame::{
    chunk_count, open_frames, seal_frames, undo_chunk_nonce, ChunkError, FrameHeader,
    FRAME_HEADER_LEN, FRAME_OVERHEAD,
};
use frame::{chunk_range, parse_frames};

/// Default chunk size: 64 KB, CryptMPI's sweet spot (large enough to
/// amortize per-record AEAD setup, small enough to fill the pipeline).
pub const DEFAULT_CHUNK_SIZE: usize = 64 << 10;
/// Default crypto worker cores per rank.
pub const DEFAULT_WORKERS: usize = 4;

/// Pipelined-crypto knobs, embedded in `empi_core::SecurityConfig`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PipelineConfig {
    /// Master switch. Off by default: the sequential paper path stays
    /// the reference behavior (and stays bit-identical when this is
    /// off or the message fits in one chunk).
    pub enabled: bool,
    /// Chunk size in bytes (each chunk is one AEAD record).
    pub chunk_size: usize,
    /// Crypto worker cores per rank.
    pub workers: usize,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            enabled: false,
            chunk_size: DEFAULT_CHUNK_SIZE,
            workers: DEFAULT_WORKERS,
        }
    }
}

impl PipelineConfig {
    /// Pipelining off (the default).
    pub fn disabled() -> Self {
        PipelineConfig::default()
    }

    /// Pipelining on with default chunk size and worker count.
    pub fn enabled() -> Self {
        PipelineConfig {
            enabled: true,
            ..PipelineConfig::default()
        }
    }

    /// Select the chunk size.
    pub fn with_chunk_size(mut self, chunk_size: usize) -> Self {
        assert!(chunk_size > 0, "chunk size must be positive");
        self.chunk_size = chunk_size;
        self
    }

    /// Select the worker-core count.
    pub fn with_workers(mut self, workers: usize) -> Self {
        assert!(workers > 0, "worker pool must be non-empty");
        self.workers = workers;
        self
    }

    /// Whether a `len`-byte message takes the pipelined path. Messages
    /// that fit in a single chunk go through the unmodified sequential
    /// path (one chunk cannot overlap anything).
    pub fn applies_to(&self, len: usize) -> bool {
        self.enabled && len > self.chunk_size
    }
}

/// The virtual-time cost of one chunk's seal/open: nanoseconds for a
/// chunk of the given plaintext length, from the library's calibrated
/// curve for the world's interconnect (priced by `empi-core`).
pub type ChunkCost<'a> = dyn Fn(usize) -> u64 + 'a;

/// One chunk's seal/open on the worker core that `slot` names. The
/// span lands on the `(rank, worker)` lane (so overlapping chunks
/// render as parallel bars in chrome://tracing) and its duration
/// accrues to the rank's `crypto_ns` — the decomposition then shows how
/// much crypto work ran, while wall time shows how much of it was
/// hidden behind the wire.
fn chunk_span(
    t: &Recorder,
    rank: usize,
    slot: &CoreSlot,
    name: &str,
    bytes: usize,
    detail: impl FnOnce() -> String,
) {
    let lane = Lane::Worker {
        rank,
        worker: slot.worker,
    };
    let (t0, dur) = (slot.start.as_nanos(), (slot.end - slot.start).as_nanos());
    t.span(lane, Cat::Pipeline, name, t0, dur, bytes, detail, None);
}

/// Failures of the pipelined path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PipelineError {
    /// Frame/reassembly protocol violation (bad header, duplicate,
    /// missing or out-of-range chunk).
    Protocol(ChunkError),
    /// A chunk failed authentication or decryption.
    Crypto(empi_aead::Error),
    /// A specific chunk failed authentication or decryption — carries
    /// the chunk index so the recovery layer can NACK just that frame.
    Chunk {
        index: u32,
        source: empi_aead::Error,
    },
    /// Reassembled plaintext length disagrees with the declared
    /// `total_len`.
    Length { expect: u64, got: usize },
    /// A pipelined open was handed a plain (sequential) wire record
    /// where a chunked frame train was expected — a peer wire-format
    /// mismatch, typed so mixed-configuration callers can branch on
    /// it instead of panicking.
    NotChunked,
}

impl std::fmt::Display for PipelineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PipelineError::Protocol(e) => write!(f, "chunk protocol error: {e}"),
            PipelineError::Crypto(e) => write!(f, "chunk crypto error: {e}"),
            PipelineError::Chunk { index, source } => {
                write!(f, "chunk {index} failed to open: {source}")
            }
            PipelineError::Length { expect, got } => {
                write!(f, "reassembled {got} bytes, header declared {expect}")
            }
            PipelineError::NotChunked => {
                write!(
                    f,
                    "expected a chunked frame train, peer sent a plain record"
                )
            }
        }
    }
}

impl std::error::Error for PipelineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PipelineError::Protocol(e) => Some(e),
            PipelineError::Crypto(e) => Some(e),
            PipelineError::Chunk { source, .. } => Some(source),
            PipelineError::Length { .. } | PipelineError::NotChunked => None,
        }
    }
}

/// Narrow a transport payload to the chunked wire format the pipeline
/// opens: a plain record yields the typed [`PipelineError::NotChunked`]
/// instead of a panic.
pub fn expect_chunked(payload: RecvPayload) -> Result<ChunkedMessage, PipelineError> {
    match payload {
        RecvPayload::Chunked(m) => Ok(m),
        RecvPayload::Plain(..) => Err(PipelineError::NotChunked),
    }
}

impl From<ChunkError> for PipelineError {
    fn from(e: ChunkError) -> Self {
        PipelineError::Protocol(e)
    }
}

impl From<empi_aead::Error> for PipelineError {
    fn from(e: empi_aead::Error) -> Self {
        PipelineError::Crypto(e)
    }
}

/// Per-rank pipelined-crypto endpoint: a sender-unique message-id
/// counter plus the configuration. One per `SecureComm`.
///
/// The worker-core pool itself is *not* owned here: all communicators
/// on a rank share the engine's per-rank pool
/// (`SimHandle::with_core_pool`), each restricted to its configured
/// worker count, so two communicators contend for the same physical
/// cores instead of each modeling a phantom private pool.
pub struct Pipeline {
    cfg: PipelineConfig,
    next_seq: Cell<u64>,
    rank: u64,
}

impl Pipeline {
    /// An endpoint for `rank` using `cfg.workers` of the rank's shared
    /// crypto cores.
    pub fn new(cfg: PipelineConfig, rank: usize) -> Self {
        Pipeline {
            cfg,
            next_seq: Cell::new(0),
            rank: rank as u64,
        }
    }

    /// Next sender-unique message id (rank in the high 32 bits, so ids
    /// never collide across senders sharing one key; the key-plane
    /// `epoch` in the top 16). The frame header binds the id into each
    /// chunk's AAD, which is what makes the epoch tamper-evident on
    /// chunked wire.
    fn next_msg_id(&self, epoch: u64) -> u64 {
        let seq = self.next_seq.get();
        self.next_seq.set(seq + 1);
        let id = (self.rank << 32) | seq;
        match epoch {
            // Epoch 0 mints the raw id — bit-identical to builds that
            // predate the key plane, whatever the rank width.
            0 => id,
            e => empi_keys::embed_epoch_msg_id(e, id),
        }
    }

    /// Seal `buf` into timed wire frames: greedily schedule every
    /// chunk's seal on the rank's shared worker pool (all chunks are
    /// available to the workers at call time) and stamp each frame
    /// with its seal's completion time. The main thread's clock is
    /// *not* advanced by crypto: the cores do it, concurrently with
    /// the host overhead and the wire. The caller routes the frames
    /// (`Comm::post` as a `SendPayload::Chunked`, or a collective's relay).
    ///
    /// `epoch` is the key-plane epoch the message is sealed under (0
    /// without the key plane). `base_nonce` must reserve one nonce per
    /// chunk (draw it with `NonceSource::next_nonce_block(chunk_count)`).
    /// Every frame buffer comes from the world's pool; one `alloc/*`
    /// marker per sourcing outcome goes on the rank's lane (the
    /// per-frame counters carry the exact totals).
    #[allow(clippy::too_many_arguments)]
    pub fn seal_timed(
        &self,
        comm: &Comm<'_>,
        cipher: &AesGcm,
        cost: &ChunkCost<'_>,
        backend: &'static str,
        epoch: u64,
        base_nonce: [u8; NONCE_LEN],
        buf: &[u8],
    ) -> Vec<ChunkFrame> {
        let chunk_size = self.cfg.chunk_size;
        let msg = FrameHeader::message(self.next_msg_id(epoch), buf.len(), chunk_size);
        let total = msg.total;
        let plain = |i: usize| &buf[chunk_range(buf.len(), chunk_size, i as u32)];
        let h = comm.sim();
        let submit = h.now();
        // Every buffer is drawn before the fork; the seals, each writing
        // its own frame, then spread over the world's idle carriers.
        let pool = h.buffer_pool();
        let mut frames: Vec<_> = (0..total as usize)
            .map(|i| pool.take(FRAME_OVERHEAD + plain(i).len()))
            .collect();
        h.par_each(&mut frames, |i, frame| {
            msg.chunk(i as u32)
                .seal_into(cipher, &base_nonce, plain(i), frame);
        });
        let fresh = frames.iter().filter(|f| f.fresh()).count();
        let timed: Vec<ChunkFrame> = h.with_core_pool(self.cfg.workers, |pool| {
            let timed = frames.into_iter().enumerate().map(|(i, frame)| {
                let len = plain(i).len();
                let slot = pool.schedule(submit, VDur(cost(len)), self.cfg.workers);
                if let Some(t) = h.recorder() {
                    t.count_alloc(comm.rank(), frame.fresh(), frame.len());
                    let detail = || format!("{backend} chunk {}/{total}", i + 1);
                    chunk_span(t, comm.rank(), &slot, "pipe/seal", len, detail);
                }
                ChunkFrame {
                    data: frame.freeze(),
                    ready: slot.end,
                }
            });
            timed.collect()
        });
        if let Some(t) = h.recorder() {
            let wire: usize = timed.iter().map(|f| f.data.len()).sum();
            let (me, now) = (comm.rank(), h.now().as_nanos());
            for (n, label, how) in [
                (fresh, "alloc/fresh", "fresh"),
                (total as usize - fresh, "alloc/pooled", "pooled"),
            ] {
                if n > 0 {
                    let detail = || format!("{n}/{total} frames {how}");
                    t.span(me, Cat::Alloc, label, now, 0, wire, detail, None);
                }
            }
        }
        timed
    }

    /// Pipelined open of a received chunked message: each chunk's
    /// decryption is scheduled on the worker pool no earlier than its
    /// frame's arrival, so opens overlap later arrivals; the rank's
    /// clock advances to the last open's completion. Authentication
    /// failures (tampering, wrong position/geometry/message) and
    /// protocol violations are returned as errors; a failure names the
    /// lowest failing chunk.
    pub fn open(
        &self,
        comm: &Comm<'_>,
        cipher: &AesGcm,
        cost: &ChunkCost<'_>,
        backend: &'static str,
        msg: &ChunkedMessage,
    ) -> Result<Bytes, PipelineError> {
        let parsed = parse_frames(msg.frames.iter().map(|f| (f.ready, f.data.clone())))?;
        let h = comm.sim();
        // One output buffer per message, from the world's pool: each
        // chunk opens from its frame straight into its final position
        // (the buffer handed to the caller), instead of per-chunk
        // plaintext Vecs re-copied into the result.
        let arrived = parsed.arrived_len();
        let mut out = h.buffer_pool().take(arrived);
        if let Some(t) = h.recorder() {
            let (me, now) = (comm.rank(), h.now().as_nanos());
            let len = parsed.msg.total_len as usize;
            let detail = || {
                format!(
                    "chunked reassembly buffer ({} frames)",
                    parsed.records.len()
                )
            };
            let label = if out.fresh() {
                "alloc/fresh"
            } else {
                "alloc/pooled"
            };
            t.count_alloc(me, out.fresh(), len);
            t.span(me, Cat::Alloc, label, now, 0, len, detail, None);
        }
        // Each chunk opens into its own range of `out`, the ranges
        // spread over the world's idle carriers; what touches state
        // follows the join in chunk order, up to the first failure.
        let mut places = Vec::with_capacity(parsed.records.len());
        let mut rest = &mut out.spare_capacity_mut()[..arrived];
        for (_, record) in &parsed.records {
            let (place, tail) = rest.split_at_mut(record.len() - TAG_LEN);
            places.push((place, Ok(())));
            rest = tail;
        }
        h.par_each(&mut places, |i, (place, opened)| {
            let chunk = parsed.msg.chunk(i as u32);
            *opened = chunk.open_at(cipher, &parsed.base_nonce, &parsed.records[i].1, place);
        });
        let mut done = h.now();
        h.with_core_pool(self.cfg.workers, |pool| -> Result<(), PipelineError> {
            for (i, ((arrive, record), (_, opened))) in
                parsed.records.iter().zip(places).enumerate()
            {
                let index = i as u32;
                opened.map_err(|source| PipelineError::Chunk { index, source })?;
                let plain_len = record.len() - TAG_LEN;
                let slot = pool.schedule(*arrive, VDur(cost(plain_len)), self.cfg.workers);
                if let Some(t) = h.recorder() {
                    let detail = || format!("{backend} chunk {}/{}", i + 1, parsed.msg.total);
                    chunk_span(t, comm.rank(), &slot, "pipe/open", plain_len, detail);
                }
                done = done.max(slot.end);
            }
            Ok(())
        })?;
        // SAFETY: every chunk opened, and each wrote the whole of its
        // range (`FrameHeader::open_at`); the ranges tile `..arrived`.
        unsafe { out.set_len(arrived) };
        parsed.check_len(&out)?;
        h.advance_to(done);
        Ok(out.freeze())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use empi_mpi::{Charge, SendPayload, Src, TagSel, World};
    use empi_netsim::{NetModel, VTime};

    fn cipher() -> AesGcm {
        AesGcm::new(&[0x42u8; 32]).unwrap()
    }

    #[test]
    fn config_defaults_and_dispatch() {
        let off = PipelineConfig::default();
        assert!(!off.enabled);
        assert!(!off.applies_to(1 << 21));
        let on = PipelineConfig::enabled();
        assert_eq!(on.chunk_size, DEFAULT_CHUNK_SIZE);
        assert_eq!(on.workers, DEFAULT_WORKERS);
        assert!(on.applies_to(DEFAULT_CHUNK_SIZE + 1));
        // A message that fits in one chunk takes the sequential path.
        assert!(!on.applies_to(DEFAULT_CHUNK_SIZE));
    }

    #[test]
    fn a_forged_chunk_count_is_refused_before_anything_is_sized() {
        let header = FrameHeader {
            msg_id: 1,
            index: 0,
            total: u32::MAX,
            total_len: u64::MAX,
        };
        let mut frame = header.encode().to_vec();
        frame.extend_from_slice(&[0u8; NONCE_LEN + TAG_LEN]);
        let err = parse_frames([(VTime(0), Bytes::from(frame))]).err();
        assert!(
            matches!(
                err,
                Some(PipelineError::Protocol(ChunkError::MissingChunks {
                    have: 1,
                    total: u32::MAX
                }))
            ),
            "{err:?}"
        );
    }

    #[test]
    fn frames_round_trip_pure() {
        let c = cipher();
        for len in [0usize, 1, 63, 64, 65, 201, 1000] {
            let msg: Vec<u8> = (0..len).map(|i| i as u8).collect();
            let frames = seal_frames(&c, 9, [5u8; 12], &msg, 64);
            assert_eq!(frames.len(), len.div_ceil(64).max(1));
            let out = open_frames(&c, &frames).unwrap();
            assert_eq!(out, msg, "len {len}");
        }
    }

    #[test]
    fn frame_attacks_fail() {
        let c = cipher();
        let msg: Vec<u8> = (0..300u32).map(|i| i as u8).collect();
        let frames = seal_frames(&c, 1, [8u8; 12], &msg, 100);
        assert_eq!(frames.len(), 3);
        // Tamper: flip one ciphertext byte — the error names the chunk.
        let mut t = frames.clone();
        t[1][FRAME_HEADER_LEN + NONCE_LEN] ^= 1;
        let err = open_frames(&c, &t).unwrap_err();
        assert!(matches!(err, PipelineError::Chunk { index: 1, .. }));
        assert!(std::error::Error::source(&err).is_some());
        // Reorder: swap the index fields of chunks 0 and 2 (each record
        // now claims the other's position) — AAD binding catches it.
        let mut r = frames.clone();
        let (i0, i2) = (r[0][8..12].to_vec(), r[2][8..12].to_vec());
        r[0][8..12].copy_from_slice(&i2);
        r[2][8..12].copy_from_slice(&i0);
        assert!(matches!(open_frames(&c, &r), Err(PipelineError::Crypto(_))));
        // Drop: remove a chunk.
        let d = vec![frames[0].clone(), frames[2].clone()];
        assert!(matches!(
            open_frames(&c, &d),
            Err(PipelineError::Protocol(ChunkError::MissingChunks { .. }))
        ));
        // Duplicate: replay chunk 0 in place of chunk 1.
        let dup = vec![frames[0].clone(), frames[0].clone(), frames[2].clone()];
        assert!(matches!(
            open_frames(&c, &dup),
            Err(PipelineError::Protocol(ChunkError::DuplicateChunk { .. }))
        ));
        // Splice: a chunk from a different message id.
        let other = seal_frames(&c, 2, [8u8; 12], &msg, 100);
        let s = vec![frames[0].clone(), other[1].clone(), frames[2].clone()];
        assert!(matches!(
            open_frames(&c, &s),
            Err(PipelineError::Protocol(ChunkError::MsgIdMismatch { .. }))
        ));
    }

    /// End-to-end over the simulated fabric: a pipelined exchange
    /// delivers the exact payload and finishes *faster* than the
    /// sequential seal-then-send shape under the same per-byte crypto
    /// cost, because seals overlap the wire.
    #[test]
    fn pipelined_exchange_beats_sequential() {
        let len = 1usize << 20;
        let cost_ns = |n: usize| n as u64 / 2; // ~2 GB/s crypto
        let run = |pipelined: bool| {
            let w = World::flat(NetModel::ethernet_10g(), 2);
            w.run(move |c| {
                let cipher = cipher();
                let msg: Vec<u8> = (0..len).map(|i| (i * 7) as u8).collect();
                if c.rank() == 0 {
                    if pipelined {
                        let pipe =
                            Pipeline::new(PipelineConfig::enabled().with_workers(4), c.rank());
                        let frames =
                            pipe.seal_timed(c, &cipher, &cost_ns, "test", 0, [3u8; 12], &msg);
                        c.wait_sent(c.post(SendPayload::Chunked(frames), 1, 0, Charge::Blocking));
                    } else {
                        // Sequential reference: pay the whole seal on the
                        // main thread, then one plain send.
                        let frames = seal_frames(&cipher, 0, [3u8; 12], &msg, len);
                        c.compute(VDur(cost_ns(len)));
                        c.send(&frames[0], 1, 0);
                    }
                } else if pipelined {
                    let pipe = Pipeline::new(PipelineConfig::enabled().with_workers(4), c.rank());
                    let m = expect_chunked(c.recv_maybe_chunked(Src::Is(0), TagSel::Is(0)))
                        .expect("pipelined sender must emit a frame train");
                    let out = pipe.open(c, &cipher, &cost_ns, "test", &m).unwrap();
                    assert_eq!(out, msg);
                } else {
                    let (_, wire) = c.recv(Src::Is(0), TagSel::Is(0));
                    c.compute(VDur(cost_ns(len)));
                    let out = open_frames(&cipher, &[wire.to_vec()]).unwrap();
                    assert_eq!(out, msg);
                }
            })
            .end_time
            .as_nanos()
        };
        let sequential = run(false);
        let pipelined = run(true);
        assert!(
            pipelined < sequential,
            "pipelined {pipelined}ns must beat sequential {sequential}ns"
        );
        // And the win is substantial: at 2 GB/s crypto vs ~1.2 GB/s
        // wire, most of the ~0.5 ms of crypto per side should hide.
        assert!(
            (sequential - pipelined) as f64 > 0.5 * (cost_ns(len) as f64),
            "overlap too small: seq {sequential} pipe {pipelined}"
        );
    }

    /// The chunked transport preserves arrival ordering constraints:
    /// frames ready later cannot arrive earlier, and arrivals are
    /// strictly increasing along the serialized NIC.
    #[test]
    fn chunk_arrivals_are_monotone_in_readiness() {
        let len = 1usize << 19;
        let cost_ns = |n: usize| n as u64; // slow crypto: pipeline-bound
        let w = World::flat(NetModel::ethernet_10g(), 2);
        w.run(move |c| {
            let cipher = cipher();
            let msg = vec![0xA5u8; len];
            if c.rank() == 0 {
                let pipe = Pipeline::new(
                    PipelineConfig::enabled()
                        .with_workers(2)
                        .with_chunk_size(64 << 10),
                    c.rank(),
                );
                let frames = pipe.seal_timed(c, &cipher, &cost_ns, "test", 0, [1u8; 12], &msg);
                c.wait_sent(c.post(SendPayload::Chunked(frames), 1, 0, Charge::Blocking));
            } else {
                let m = expect_chunked(c.recv_maybe_chunked(Src::Is(0), TagSel::Is(0)))
                    .expect("pipelined sender must emit a frame train");
                assert_eq!(m.frames.len(), 8);
                let arrivals: Vec<u64> = m.frames.iter().map(|f| f.ready.as_nanos()).collect();
                for pair in arrivals.windows(2) {
                    assert!(pair[0] < pair[1], "NIC must serialize frames: {arrivals:?}");
                }
            }
        });
    }
}
