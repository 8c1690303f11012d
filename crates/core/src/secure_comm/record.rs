//! The record layer: Algorithm 1 as exactly one seal and one open, each
//! one pass from where the bytes are to where they go, the chunked
//! (pipelined) framing over the same keys, and the single payload
//! funnel every receive path decrypts through.
//!
//! Both wire formats are written and read elsewhere: the plain record
//! by `empi_keys::record`, the chunk frame by `empi_pipeline::frame`.
//! This layer resolves keys, runs the gates, charges and counts the
//! crypto, and decides where the bytes live: a sourced wire buffer, the
//! tail of a collective's send buffer, a stolen receive buffer.

use bytes::Bytes;
use empi_aead::AesGcm;
use empi_keys::record::{seal_into, Record};
use empi_keys::KeyError;
use empi_mpi::chunk::{ChunkFrame, ChunkedMessage, RecvPayload};
use empi_mpi::{Status, Tag};
use empi_netsim::PooledBuf;
use empi_pipeline::{chunk_count, FrameHeader, FRAME_OVERHEAD};
use empi_trace::Metric;

use super::keyring::RecordKey;
use super::{note_sample, peer_id, SecureComm};
use crate::error::{Error, Result};

/// A received plain record located inside its wire buffer, its key
/// resolved (gates passed).
pub(super) struct RecordView {
    key: RecordKey,
    peer: i32,
    pub(super) rec: Record,
}

/// A failed payload open: the error, plus the chunked frames that did
/// arrive (the retransmit layer salvages them).
pub(super) type OpenFailure = (Error, Option<ChunkedMessage>);

/// The status/plaintext pair of one opened message.
fn opened(source: usize, tag: Tag, plain: Bytes) -> (Status, Bytes) {
    let len = plain.len();
    (Status { source, tag, len }, plain)
}

impl SecureComm<'_, '_> {
    // ---------------------------------------------------------------
    // Plain records
    // ---------------------------------------------------------------

    /// The one seal: append the record of `plaintext` under `key` onto
    /// `out` ([`seal_into`]), charged and counted.
    pub(super) fn seal_record(
        &self,
        key: &RecordKey,
        op: &'static str,
        peer: Option<usize>,
        plaintext: &[u8],
        out: &mut Vec<u8>,
    ) {
        let nonce = key.ctx.nonces.borrow_mut().next_nonce();
        if let Some(t) = self.comm.sim().recorder() {
            t.count_nonce_draw(self.rank());
            t.count_seal(
                self.rank(),
                plaintext.len(),
                plaintext.len() + self.keys.overhead(),
            );
        }
        let sample = Some((Metric::Seal, op, peer_id(peer)));
        self.run_crypto(plaintext.len(), "seal", sample, || {
            seal_into(&key.ctx.cipher, key.epoch, &nonce, plaintext, out)
        });
    }

    /// Seal one message into its own wire buffer, taken from the
    /// world's pool. `dst` is the peer its seal sample is keyed by
    /// (`None` = a collective's record).
    pub(super) fn seal_wire(&self, plaintext: &[u8], dst: Option<usize>) -> PooledBuf {
        let key = self.seal_key();
        let len = plaintext.len() + self.keys.overhead();
        let mut wire = self.comm.sim().buffer_pool().take(len);
        self.note_alloc(wire.fresh(), len, "seal wire");
        self.seal_record(&key, "seal/plain", dst, plaintext, &mut wire);
        wire
    }

    /// Locate the record in `wire` ([`Record::parse`]: epoch-qualified
    /// exactly when the key plane is on) and resolve its key through
    /// the receive-side gates. With the key plane on, a record too
    /// short for the epoch prefix is typed
    /// [`empi_keys::KeyError::Downgrade`].
    pub(super) fn parse_record(&self, src: Option<usize>, wire: &[u8]) -> Result<RecordView> {
        let qualified = self.keys.plane().is_some();
        let rec = Record::parse(wire, qualified).map_err(|e| match qualified {
            true => Error::Key(KeyError::Downgrade),
            false => Error::Crypto(e),
        })?;
        let key = self.open_key(src, rec.epoch)?;
        if let Some(t) = self.comm.sim().recorder() {
            t.count_open(self.rank(), wire.len(), rec.body.len());
        }
        Ok(RecordView {
            key,
            peer: peer_id(src),
            rec,
        })
    }

    /// The one open: authenticate and decrypt `view`'s ciphertext with
    /// `open` — into a caller's place ([`Record::open_into`]) or to the
    /// front of its own wire buffer ([`Record::open_front`]) —
    /// charged and sampled.
    fn open_record(
        &self,
        view: &RecordView,
        op: &'static str,
        open: impl FnOnce(&Record, &AesGcm) -> empi_aead::Result<()>,
    ) -> Result<()> {
        // The sample is recorded on failure too: `count_open` already
        // counted the attempt, and conservation tracks attempts, not
        // successes.
        let sample = Some((Metric::Open, op, view.peer));
        self.run_crypto(view.rec.body.len(), "open", sample, || {
            open(&view.rec, &view.key.ctx.cipher).map_err(Error::Crypto)
        })
    }

    /// Open a borrowed record into a fresh plaintext buffer.
    pub(super) fn open_to_vec(&self, src: Option<usize>, wire: &[u8]) -> Result<Vec<u8>> {
        let view = self.parse_record(src, wire)?;
        self.note_alloc(true, view.rec.body.len(), "open plaintext");
        let mut plain = Vec::with_capacity(view.rec.body.len());
        self.open_onto(&view, "open/plain", wire, &mut plain)?;
        Ok(plain)
    }

    /// Open one collective block from `src`, appending the plaintext
    /// directly onto `out` — the gather loops decrypt into their result
    /// buffer. `out` keeps its prior length on failure.
    pub(super) fn open_append(&self, src: usize, wire: &[u8], out: &mut Vec<u8>) -> Result<()> {
        let view = self.parse_record(Some(src), wire)?;
        self.open_onto(&view, "open/coll", wire, out)
    }

    /// Open `view`, parsed from `wire`, straight onto the end of `out`.
    fn open_onto(
        &self,
        view: &RecordView,
        op: &'static str,
        wire: &[u8],
        out: &mut Vec<u8>,
    ) -> Result<()> {
        let (start, len) = (out.len(), view.rec.body.len());
        out.reserve(len);
        let dst = &mut out.spare_capacity_mut()[..len];
        self.open_record(view, op, |rec, cipher| rec.open_into(cipher, wire, dst))?;
        // SAFETY: the open succeeded and wrote every byte of `dst`.
        unsafe { out.set_len(start + len) };
        Ok(())
    }

    /// Open one *owned* p2p wire buffer. When we are the unique owner
    /// the record opens to the front of the buffer it arrived in, which
    /// becomes the plaintext (one pass, no allocation, and it returns
    /// to the pool it came from); a still-shared buffer is opened into
    /// a fresh one.
    fn open_owned(&self, src: usize, mut wire: Bytes) -> Result<Bytes> {
        let in_place = wire.try_mut(|v| {
            let view = self.parse_record(Some(src), v)?;
            self.open_record(&view, "open/plain", |rec, cipher| rec.open_front(cipher, v))?;
            v.truncate(view.rec.body.len());
            Ok(())
        });
        match in_place {
            Some(opened) => opened.map(|()| wire),
            None => self.open_to_vec(Some(src), &wire).map(Bytes::from),
        }
    }

    // ---------------------------------------------------------------
    // Chunked (pipelined) format
    // ---------------------------------------------------------------

    /// Seal `buf` into chunked wire frames on the shared worker-core
    /// pool: one nonce block covers all chunks. `dst` is the peer the
    /// seal sample is keyed by (`None` = a collective's train). Counter
    /// semantics: one logical seal and one nonce draw per message
    /// (per-chunk activity shows up in `chunks_sealed` and the pipeline
    /// trace lanes).
    pub(super) fn seal_chunked_frames(&self, buf: &[u8], dst: Option<usize>) -> Vec<ChunkFrame> {
        let total = chunk_count(buf.len(), self.cfg.pipeline.chunk_size);
        let key = self.seal_key();
        let base = key.ctx.nonces.borrow_mut().next_nonce_block(total);
        if let Some(t) = self.comm.sim().recorder() {
            t.count_nonce_draw(self.rank());
            t.count_seal(
                self.rank(),
                buf.len(),
                buf.len() + total as usize * FRAME_OVERHEAD,
            );
        }
        let t0 = self.comm.sim().now().as_nanos();
        let (cost, backend) = (|n| self.calibrated_ns(n), self.cfg.library.name());
        // Chunked records carry the epoch in the (AAD-bound) top bits
        // of the message id instead of a prefix.
        let epoch = key.epoch.unwrap_or(0);
        let cipher = &key.ctx.cipher;
        let frames = self
            .pipe
            .seal_timed(self.comm, cipher, &cost, backend, epoch, base, buf);
        let key = (Metric::Seal, "seal/chunked", peer_id(dst));
        note_sample(self.comm, key, buf.len(), t0);
        frames
    }

    /// Open a received chunked message on the worker-core pool.
    /// Format-driven: this runs whenever the *sender* used the chunked
    /// wire format, regardless of the local pipeline config. `peer` is
    /// the peer the open sample is keyed by (`None` = collectives
    /// relaying root-sealed frames). After a successful open the frame
    /// handles drop, and each frame goes back to the pool with its last
    /// handle; on failure the message is handed back.
    pub(super) fn open_chunked(
        &self,
        msg: ChunkedMessage,
        peer: Option<usize>,
    ) -> std::result::Result<Bytes, (Error, ChunkedMessage)> {
        let msg_id = msg.frames.iter().find_map(|f| {
            let header = FrameHeader::decode(&f.data).ok();
            header.map(|(h, _)| h.msg_id)
        });
        let epoch = self.chunked_epoch(msg_id);
        let key = match self.open_key(Some(msg.src), epoch) {
            Ok(key) => key,
            Err(e) => return Err((e, msg)),
        };
        let wire = msg.wire_bytes();
        let plain_len = wire.saturating_sub(msg.frames.len() * FRAME_OVERHEAD);
        if let Some(t) = self.comm.sim().recorder() {
            t.count_open(self.rank(), wire, plain_len);
        }
        let t0 = self.comm.sim().now().as_nanos();
        let (cost, backend) = (|n| self.calibrated_ns(n), self.cfg.library.name());
        let r = self
            .pipe
            .open(self.comm, &key.ctx.cipher, &cost, backend, &msg);
        let key = (Metric::Open, "open/chunked", peer_id(peer));
        note_sample(self.comm, key, plain_len, t0);
        r.map_err(|e| (e.into(), msg))
    }

    // ---------------------------------------------------------------
    // The payload funnel
    // ---------------------------------------------------------------

    /// Authenticate and decrypt whatever the transport produced,
    /// dispatching on the sender's wire format — never on local
    /// configuration. This is the single decryption funnel behind
    /// `recv`, `wait` and the set waits. It owns the payload, so the
    /// wire allocation is recycled: plain records are decrypted inside
    /// the stolen buffer, chunked frames go back to the pool.
    pub(super) fn open_payload(
        &self,
        payload: RecvPayload,
    ) -> std::result::Result<(Status, Bytes), OpenFailure> {
        match payload {
            RecvPayload::Plain(status, wire) => self
                .open_owned(status.source, wire)
                .map(|plain| opened(status.source, status.tag, plain))
                .map_err(|e| (e, None)),
            RecvPayload::Chunked(msg) => {
                let (src, tag) = (msg.src, msg.tag);
                self.open_chunked(msg, Some(src))
                    .map(|plain| opened(src, tag, plain))
                    .map_err(|(e, msg)| (e, Some(msg)))
            }
        }
    }
}
