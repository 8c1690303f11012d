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
//! * chunk geometry, per-chunk nonces (`base + i`) and position-binding
//!   AAD live in `empi_aead::chunked`;
//! * the wire frame (`header ‖ nonce ‖ ct ‖ tag`) and reassembly
//!   validation live in `empi_mpi::chunk`;
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
//! sequential path in `empi-core`.

use std::cell::Cell;

use bytes::Bytes;
use empi_aead::chunked::{
    chunk_count, chunk_range, derive_chunk_nonce, ChunkedOpener, ChunkedSealer,
};
use empi_aead::gcm::AesGcm;
use empi_aead::{NONCE_LEN, TAG_LEN};
use empi_mpi::chunk::{
    ChunkError, ChunkFrame, ChunkedMessage, FrameHeader, Reassembly, RecvPayload, FRAME_HEADER_LEN,
    FRAME_NONCE_LEN, FRAME_OVERHEAD,
};
use empi_mpi::Comm;
use empi_netsim::{CoreSlot, VDur, VTime};
use empi_trace::{Cat, Lane, Recorder};

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
/// curve (`empi_core::TimingMode`, which this crate cannot depend on).
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

impl PipelineError {
    /// Index of the chunk the failure points at, when it names one.
    pub fn chunk_index(&self) -> Option<u32> {
        match self {
            PipelineError::Chunk { index, .. } => Some(*index),
            _ => None,
        }
    }
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

/// Assemble the wire frame of one chunk (`header ‖ nonce ‖ ct ‖ tag`)
/// directly into `buf`: the plaintext is copied once into its final
/// wire position and sealed there in place — no intermediate record
/// `Vec`. `buf` may be a pooled or a fresh buffer; the bytes produced
/// are identical either way (and identical to the historical
/// seal-then-assemble path, which was this plus copies).
fn build_frame_into(
    sealer: &ChunkedSealer<'_>,
    base_nonce: &[u8; NONCE_LEN],
    header: FrameHeader,
    plain: &[u8],
    buf: &mut Vec<u8>,
) {
    buf.clear();
    buf.reserve(FRAME_OVERHEAD + plain.len());
    buf.extend_from_slice(&header.encode());
    buf.extend_from_slice(&derive_chunk_nonce(base_nonce, header.index));
    buf.extend_from_slice(plain);
    let ct_start = FRAME_HEADER_LEN + FRAME_NONCE_LEN;
    let tag = sealer.seal_chunk_detached(header.index, &mut buf[ct_start..]);
    buf.extend_from_slice(&tag);
}

/// A chunked message parsed and validated down to its AEAD records.
pub struct ParsedMessage {
    pub msg_id: u64,
    pub total: u32,
    pub total_len: u64,
    /// Base nonce recovered from chunk 0's frame (chunk `i`'s nonce is
    /// derived as `base + i`; the carried nonces of later frames are
    /// redundant, and any inconsistency surfaces as an auth failure).
    pub base_nonce: [u8; NONCE_LEN],
    /// Per chunk index: arrival time and record (`ct ‖ tag`).
    pub records: Vec<(VTime, Bytes)>,
}

/// Parse and protocol-validate a set of frames (any order). Fails on
/// malformed frames, inconsistent headers, duplicated, out-of-range or
/// missing chunks — before any key is touched, and before the first
/// header's chunk count sizes anything beyond the frames delivered.
fn parse_frames(
    frames: impl IntoIterator<Item = (VTime, Bytes), IntoIter: ExactSizeIterator>,
) -> Result<ParsedMessage, PipelineError> {
    let mut iter = frames.into_iter();
    let delivered = iter.len();
    let (at0, f0) = iter
        .next()
        .ok_or(PipelineError::Protocol(ChunkError::EmptyMessage))?;
    let (h0, _) = FrameHeader::decode(&f0)?;
    let mut re = Reassembly::new(&h0, delivered)?;
    let (msg_id, total, total_len) = (re.msg_id(), re.total(), re.total_len());
    let mut arrivals = vec![VTime(0); total as usize];
    for (at, f) in std::iter::once((at0, f0)).chain(iter) {
        let (h, _) = FrameHeader::decode(&f)?;
        // Zero-copy: the body is a subview of the frame allocation.
        re.accept(&h, f.slice(FRAME_HEADER_LEN..))?;
        arrivals[h.index as usize] = at;
    }
    let bodies = re.finish()?;
    let mut base_nonce = [0u8; NONCE_LEN];
    base_nonce.copy_from_slice(&bodies[0][..FRAME_NONCE_LEN]);
    // Every frame's carried nonce must match the one derived from the
    // base — otherwise a wire byte would exist that no check covers.
    for (i, b) in bodies.iter().enumerate() {
        if b[..FRAME_NONCE_LEN] != derive_chunk_nonce(&base_nonce, i as u32) {
            return Err(PipelineError::Crypto(empi_aead::Error::AuthFailure));
        }
    }
    let records = bodies
        .into_iter()
        .zip(arrivals)
        .map(|(b, at)| (at, b.slice(FRAME_NONCE_LEN..)))
        .collect();
    Ok(ParsedMessage {
        msg_id,
        total,
        total_len,
        base_nonce,
        records,
    })
}

/// Seal `buf` into wire frames (pure crypto, no timing, no transport) —
/// the building block the timed send path and the property tests share.
pub fn seal_frames(
    cipher: &AesGcm,
    msg_id: u64,
    base_nonce: [u8; NONCE_LEN],
    buf: &[u8],
    chunk_size: usize,
) -> Vec<Vec<u8>> {
    let total = chunk_count(buf.len(), chunk_size);
    let total_len = buf.len() as u64;
    let sealer = ChunkedSealer::new(cipher, msg_id, base_nonce, total, total_len);
    (0..total)
        .map(|i| {
            let header = FrameHeader {
                msg_id,
                index: i,
                total,
                total_len,
            };
            let mut f = Vec::new();
            build_frame_into(
                &sealer,
                &base_nonce,
                header,
                &buf[chunk_range(buf.len(), chunk_size, i)],
                &mut f,
            );
            f
        })
        .collect()
}

/// Open wire frames back into the message (pure crypto, no timing).
/// Rejects tampered, reordered, dropped, duplicated or spliced chunks.
pub fn open_frames(cipher: &AesGcm, frames: &[Vec<u8>]) -> Result<Vec<u8>, PipelineError> {
    let parsed = parse_frames(frames.iter().map(|f| (VTime(0), Bytes::copy_from_slice(f))))?;
    let opener = ChunkedOpener::new(
        cipher,
        parsed.msg_id,
        parsed.base_nonce,
        parsed.total,
        parsed.total_len,
    );
    let mut out = Vec::with_capacity(parsed.total_len as usize);
    for (i, (_, record)) in parsed.records.iter().enumerate() {
        let plain = opener
            .open_chunk(i as u32, record)
            .map_err(|source| PipelineError::Chunk {
                index: i as u32,
                source,
            })?;
        out.extend_from_slice(&plain);
    }
    if out.len() as u64 != parsed.total_len {
        return Err(PipelineError::Length {
            expect: parsed.total_len,
            got: out.len(),
        });
    }
    Ok(out)
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
    /// Key-plane epoch folded into the top 16 bits of every minted
    /// message id (0 = legacy ids, bit-identical to pre-key-plane
    /// builds). The chunk layer binds the id into each frame's AAD,
    /// which is what makes the epoch tamper-evident on chunked wire.
    epoch: Cell<u64>,
}

impl Pipeline {
    /// An endpoint for `rank` using `cfg.workers` of the rank's shared
    /// crypto cores.
    pub fn new(cfg: PipelineConfig, rank: usize) -> Self {
        Pipeline {
            cfg,
            next_seq: Cell::new(0),
            rank: rank as u64,
            epoch: Cell::new(0),
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &PipelineConfig {
        &self.cfg
    }

    /// Whether a `len`-byte message takes this pipelined path.
    pub fn applies_to(&self, len: usize) -> bool {
        self.cfg.applies_to(len)
    }

    /// Set the key-plane epoch stamped into subsequent message ids.
    /// Only the key plane calls this; legacy worlds keep epoch 0 and
    /// mint the exact ids they always did.
    pub fn set_epoch(&self, epoch: u64) {
        self.epoch.set(epoch);
    }

    /// Next sender-unique message id (rank in the high 32 bits, so ids
    /// never collide across senders sharing one key; key-plane epoch
    /// in the top 16).
    fn next_msg_id(&self) -> u64 {
        let seq = self.next_seq.get();
        self.next_seq.set(seq + 1);
        let id = (self.rank << 32) | seq;
        match self.epoch.get() {
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
    /// `base_nonce` must reserve one nonce per chunk (draw it with
    /// `NonceSource::next_nonce_block(chunk_count)`). `take(cap)` hands
    /// out each frame's buffer — the caller decides where buffers come
    /// from (heap or pool; the sealed bytes are identical either way) —
    /// and says whether it was a fresh allocation.
    #[allow(clippy::too_many_arguments)]
    pub fn seal_timed(
        &self,
        comm: &Comm<'_>,
        cipher: &AesGcm,
        cost: &ChunkCost<'_>,
        backend: &'static str,
        base_nonce: [u8; NONCE_LEN],
        buf: &[u8],
        take: &dyn Fn(usize) -> (Vec<u8>, bool),
    ) -> Vec<ChunkFrame> {
        let msg_id = self.next_msg_id();
        let total = chunk_count(buf.len(), self.cfg.chunk_size);
        let total_len = buf.len() as u64;
        let sealer = ChunkedSealer::new(cipher, msg_id, base_nonce, total, total_len);
        let h = comm.sim();
        let submit = h.now();
        let mut frames = Vec::with_capacity(total as usize);
        h.with_core_pool(self.cfg.workers, |pool| {
            for i in 0..total {
                let plain = &buf[chunk_range(buf.len(), self.cfg.chunk_size, i)];
                let header = FrameHeader {
                    msg_id,
                    index: i,
                    total,
                    total_len,
                };
                let frame_len = FRAME_OVERHEAD + plain.len();
                let (mut frame, fresh) = take(frame_len);
                build_frame_into(&sealer, &base_nonce, header, plain, &mut frame);
                let slot = pool.schedule_limited(submit, VDur(cost(plain.len())), self.cfg.workers);
                if let Some(t) = h.recorder() {
                    t.count_alloc(comm.rank(), fresh, frame_len);
                    let detail = || format!("{backend} chunk {}/{total}", i + 1);
                    chunk_span(t, comm.rank(), &slot, "pipe/seal", plain.len(), detail);
                }
                frames.push(ChunkFrame {
                    data: Bytes::from(frame),
                    ready: slot.end,
                });
            }
        });
        frames
    }

    /// Pipelined open of a received chunked message: each chunk's
    /// decryption is scheduled on the worker pool no earlier than its
    /// frame's arrival, so opens overlap later arrivals; the rank's
    /// clock advances to the last open's completion. Authentication
    /// failures (tampering, wrong position/geometry/message) and
    /// protocol violations are returned as errors.
    pub fn open(
        &self,
        comm: &Comm<'_>,
        cipher: &AesGcm,
        cost: &ChunkCost<'_>,
        backend: &'static str,
        msg: &ChunkedMessage,
    ) -> Result<Vec<u8>, PipelineError> {
        let parsed = parse_frames(msg.frames.iter().map(|(at, f)| (*at, f.clone())))?;
        let opener = ChunkedOpener::new(
            cipher,
            parsed.msg_id,
            parsed.base_nonce,
            parsed.total,
            parsed.total_len,
        );
        let h = comm.sim();
        // One output allocation per message: each chunk's ciphertext is
        // copied once into its final position and decrypted there in
        // place (the buffer handed to the caller), instead of per-chunk
        // plaintext Vecs re-copied into the result.
        let mut out = Vec::with_capacity(parsed.total_len as usize);
        if let Some(t) = h.recorder() {
            let (me, now, len) = (comm.rank(), h.now().as_nanos(), parsed.total_len as usize);
            let detail = || {
                format!(
                    "chunked reassembly buffer ({} frames)",
                    parsed.records.len()
                )
            };
            t.count_alloc(me, true, len);
            t.span(me, Cat::Alloc, "alloc/fresh", now, 0, len, detail, None);
        }
        let mut done = h.now();
        let mut failure = None;
        h.with_core_pool(self.cfg.workers, |pool| {
            for (i, (arrive, record)) in parsed.records.iter().enumerate() {
                let plain_len = record.len().saturating_sub(TAG_LEN);
                let start = out.len();
                out.extend_from_slice(&record[..plain_len]);
                let mut tag = [0u8; TAG_LEN];
                tag.copy_from_slice(&record[plain_len..]);
                if let Err(e) = opener.open_chunk_detached(i as u32, &mut out[start..], &tag) {
                    // The failed chunk's bytes are still ciphertext.
                    out.truncate(start);
                    failure = Some((i as u32, e));
                    return;
                }
                let slot = pool.schedule_limited(*arrive, VDur(cost(plain_len)), self.cfg.workers);
                if let Some(t) = h.recorder() {
                    let detail = || format!("{backend} chunk {}/{}", i + 1, parsed.total);
                    chunk_span(t, comm.rank(), &slot, "pipe/open", plain_len, detail);
                }
                done = done.max(slot.end);
            }
        });
        if let Some((index, source)) = failure {
            return Err(PipelineError::Chunk { index, source });
        }
        if out.len() as u64 != parsed.total_len {
            return Err(PipelineError::Length {
                expect: parsed.total_len,
                got: out.len(),
            });
        }
        h.advance_to(done);
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use empi_mpi::{Charge, SendPayload, Src, TagSel, World};
    use empi_netsim::NetModel;

    fn cipher() -> AesGcm {
        AesGcm::new(&[0x42u8; 32]).unwrap()
    }

    /// Frame buffers straight from the heap.
    fn heap(cap: usize) -> (Vec<u8>, bool) {
        (Vec::with_capacity(cap), true)
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
        frame.extend_from_slice(&[0u8; FRAME_NONCE_LEN + 16]);
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
        t[1][FRAME_HEADER_LEN + FRAME_NONCE_LEN] ^= 1;
        let err = open_frames(&c, &t).unwrap_err();
        assert!(matches!(err, PipelineError::Chunk { index: 1, .. }));
        assert_eq!(err.chunk_index(), Some(1));
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
                            pipe.seal_timed(c, &cipher, &cost_ns, "test", [3u8; 12], &msg, &heap);
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
                let frames = pipe.seal_timed(c, &cipher, &cost_ns, "test", [1u8; 12], &msg, &heap);
                c.wait_sent(c.post(SendPayload::Chunked(frames), 1, 0, Charge::Blocking));
            } else {
                let m = expect_chunked(c.recv_maybe_chunked(Src::Is(0), TagSel::Is(0)))
                    .expect("pipelined sender must emit a frame train");
                assert_eq!(m.frames.len(), 8);
                let arrivals: Vec<u64> = m.frames.iter().map(|(at, _)| at.as_nanos()).collect();
                for pair in arrivals.windows(2) {
                    assert!(pair[0] < pair[1], "NIC must serialize frames: {arrivals:?}");
                }
            }
        });
    }
}
