//! The record layer: Algorithm 1 as exactly one in-place seal and one
//! in-place open, the chunked (pipelined) framing over the same keys,
//! and the single payload funnel every receive path decrypts through.
//!
//! Plain record: `[epoch ‖] nonce ‖ ciphertext ‖ tag` — the 8-byte
//! epoch prefix (also the AAD) only with the key plane on. The callers
//! differ only in where the bytes live: a sourced wire buffer, the tail
//! of a collective's send buffer, a stolen receive buffer.

use std::cell::Cell;
use std::ops::Range;

use bytes::Bytes;
use empi_aead::chunked::chunk_count;
use empi_aead::{NONCE_LEN, TAG_LEN, WIRE_OVERHEAD};
use empi_keys::{epoch_aad, split_epoch};
use empi_mpi::chunk::{ChunkFrame, ChunkedMessage, RecvPayload, FRAME_OVERHEAD};
use empi_mpi::{FrameHeader, Status, Tag};
use empi_trace::{Cat, Metric};

use super::keyring::RecordKey;
use super::{note_sample, peer_id, SecureComm};
use crate::error::{Error, Result};

/// A received plain record located inside its wire buffer: key
/// resolved (gates passed), nonce and tag detached, ciphertext at
/// `body`.
pub(super) struct RecordView {
    key: RecordKey,
    peer: i32,
    nonce: [u8; NONCE_LEN],
    tag: [u8; TAG_LEN],
    pub(super) body: Range<usize>,
}

/// A failed payload open: the error, plus the chunked frames that did
/// arrive (the retransmit layer salvages them).
pub(super) type OpenFailure = (Error, Option<ChunkedMessage>);

/// The status/plaintext pair of one opened message.
fn opened(source: usize, tag: Tag, plain: Vec<u8>) -> (Status, Vec<u8>) {
    let len = plain.len();
    (Status { source, tag, len }, plain)
}

impl SecureComm<'_, '_> {
    // ---------------------------------------------------------------
    // Plain records
    // ---------------------------------------------------------------

    /// The one seal: append the record of `plaintext` under `key` onto
    /// `out`, assembled once and encrypted in place.
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
        let prefix = key.epoch.map(epoch_aad);
        let aad: &[u8] = prefix.as_ref().map_or(&[], |p| &p[..]);
        let sample = Some((Metric::Seal, op, peer_id(peer)));
        self.run_crypto(plaintext.len(), "seal", sample, || {
            out.extend_from_slice(aad);
            let body = out.len() + NONCE_LEN;
            out.extend_from_slice(&nonce);
            out.extend_from_slice(plaintext);
            let tag = key.ctx.cipher.seal_detached(&nonce, aad, &mut out[body..]);
            out.extend_from_slice(&tag);
        });
    }

    /// Seal one message into its own wire buffer. `dst` is the peer its
    /// seal sample is keyed by (`None` = a collective's record).
    pub(super) fn seal_wire(&self, plaintext: &[u8], dst: Option<usize>) -> Vec<u8> {
        let key = self.seal_key();
        let len = plaintext.len() + self.keys.overhead();
        let (mut wire, fresh) = self.take_buf(len);
        self.note_alloc(fresh, len, "seal wire");
        self.seal_record(&key, "seal/plain", dst, plaintext, &mut wire);
        wire
    }

    /// Locate the record in `wire`: split the epoch prefix (typed
    /// [`empi_keys::KeyError::Downgrade`] when the key plane is on and
    /// it is absent), resolve the key through the receive-side gates,
    /// bound the length.
    pub(super) fn parse_record(&self, src: Option<usize>, wire: &[u8]) -> Result<RecordView> {
        let epoch = match self.keys.plane() {
            Some(_) => Some(split_epoch(wire).map_err(Error::Key)?.0),
            None => None,
        };
        let key = self.open_key(src, epoch)?;
        let skip = self.keys.overhead() - WIRE_OVERHEAD;
        if wire.len() < skip + WIRE_OVERHEAD {
            return Err(Error::Crypto(empi_aead::Error::CiphertextTooShort {
                got: wire.len(),
            }));
        }
        let body = skip + NONCE_LEN..wire.len() - TAG_LEN;
        let mut nonce = [0u8; NONCE_LEN];
        nonce.copy_from_slice(&wire[skip..body.start]);
        let mut tag = [0u8; TAG_LEN];
        tag.copy_from_slice(&wire[body.end..]);
        if let Some(t) = self.comm.sim().recorder() {
            t.count_open(self.rank(), wire.len(), body.len());
        }
        Ok(RecordView {
            key,
            peer: peer_id(src),
            nonce,
            tag,
            body,
        })
    }

    /// The one open: authenticate `rec`'s ciphertext — wherever the
    /// caller placed it — then decrypt it in place. On failure `body`
    /// is left untouched (still ciphertext).
    pub(super) fn open_record(
        &self,
        rec: &RecordView,
        op: &'static str,
        body: &mut [u8],
    ) -> Result<()> {
        let prefix = rec.key.epoch.map(epoch_aad);
        let aad: &[u8] = prefix.as_ref().map_or(&[], |p| &p[..]);
        // The sample is recorded on failure too: `count_open` already
        // counted the attempt, and conservation tracks attempts, not
        // successes.
        let sample = Some((Metric::Open, op, rec.peer));
        self.run_crypto(body.len(), "open", sample, || {
            let cipher = &rec.key.ctx.cipher;
            cipher
                .open_detached(&rec.nonce, aad, body, &rec.tag)
                .map_err(Error::Crypto)
        })
    }

    /// Open a borrowed record into a fresh plaintext buffer.
    pub(super) fn open_to_vec(&self, src: Option<usize>, wire: &[u8]) -> Result<Vec<u8>> {
        let rec = self.parse_record(src, wire)?;
        self.note_alloc(true, rec.body.len(), "open plaintext");
        let mut plain = wire[rec.body.clone()].to_vec();
        self.open_record(&rec, "open/plain", &mut plain)?;
        Ok(plain)
    }

    /// Open one collective block from `src`, appending the plaintext
    /// directly onto `out` — the gather loops decrypt into their result
    /// buffer. `out` is restored to its prior length on failure.
    pub(super) fn open_append(&self, src: usize, wire: &[u8], out: &mut Vec<u8>) -> Result<()> {
        let rec = self.parse_record(Some(src), wire)?;
        let start = out.len();
        out.extend_from_slice(&wire[rec.body.clone()]);
        let r = self.open_record(&rec, "open/coll", &mut out[start..]);
        if r.is_err() {
            out.truncate(start);
        }
        r
    }

    /// Open one *owned* p2p wire buffer. When we are the unique owner
    /// the record is decrypted where it arrived and the wire buffer
    /// becomes the plaintext `Vec` (zero copies, zero allocations); a
    /// still-shared buffer is opened into a fresh one.
    fn open_owned(&self, src: usize, wire: Bytes) -> Result<Vec<u8>> {
        let mut v = match wire.try_into_vec() {
            Ok(v) => v,
            Err(shared) => return self.open_to_vec(Some(src), &shared),
        };
        let rec = self.parse_record(Some(src), &v)?;
        self.open_record(&rec, "open/plain", &mut v[rec.body.clone()])?;
        // Strip the framing in place (one memmove, no allocation).
        v.truncate(rec.body.end);
        v.drain(..rec.body.start);
        Ok(v)
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
        if let Some(epoch) = key.epoch {
            // Chunked records carry the epoch in the (AAD-bound) top
            // bits of the message id instead of a prefix.
            self.pipe.set_epoch(epoch);
        }
        let base = key.ctx.nonces.borrow_mut().next_nonce_block(total);
        if let Some(t) = self.comm.sim().recorder() {
            t.count_nonce_draw(self.rank());
            t.count_seal(
                self.rank(),
                buf.len(),
                buf.len() + total as usize * FRAME_OVERHEAD,
            );
        }
        let (fresh, hits) = (Cell::new(0u32), Cell::new(0u32));
        let take = |cap| {
            let (frame, is_fresh) = self.take_buf(cap);
            let n = if is_fresh { &fresh } else { &hits };
            n.set(n.get() + 1);
            (frame, is_fresh)
        };
        let t0 = self.comm.sim().now().as_nanos();
        let (cost, backend) = (|n| self.calibrated_ns(n), self.cfg.library.name());
        let frames = self
            .pipe
            .seal_timed(self.comm, &key.ctx.cipher, &cost, backend, base, buf, &take);
        let key = (Metric::Seal, "seal/chunked", peer_id(dst));
        note_sample(self.comm, key, buf.len(), t0);
        // One aggregate alloc/* marker per sourcing outcome per chunked
        // message (the per-chunk counters carry the exact totals).
        if self.comm.sim().recorder().is_some() {
            let wire: usize = frames.iter().map(|f| f.data.len()).sum();
            for (n, label, how) in [
                (fresh.get(), "alloc/fresh", "fresh"),
                (hits.get(), "alloc/pooled", "pooled"),
            ] {
                if n > 0 {
                    let detail = || format!("{n}/{total} frames {how}");
                    self.note_marker(Cat::Alloc, label, wire, detail);
                }
            }
        }
        frames
    }

    /// Open a received chunked message on the worker-core pool.
    /// Format-driven: this runs whenever the *sender* used the chunked
    /// wire format, regardless of the local pipeline config. `peer` is
    /// the peer the open sample is keyed by (`None` = collectives
    /// relaying root-sealed frames). After a successful open the frame
    /// buffers are dead and go back to the pool; on failure the message
    /// is handed back.
    pub(super) fn open_chunked(
        &self,
        msg: ChunkedMessage,
        peer: Option<usize>,
    ) -> std::result::Result<Vec<u8>, (Error, ChunkedMessage)> {
        let msg_id = msg.frames.iter().find_map(|(_, f)| {
            let header = FrameHeader::decode(f).ok();
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
        match r {
            Ok(plain) => {
                self.reclaim_frames(msg);
                Ok(plain)
            }
            Err(e) => Err((e.into(), msg)),
        }
    }

    /// Recycle opened frames into the engine-wide pool — the next
    /// sourced buffer (usually the sender's) becomes a hit instead of a
    /// heap allocation. Frames still referenced elsewhere (ARQ
    /// retention, a relay in flight) are reclaim misses, never aliased.
    fn reclaim_frames(&self, msg: ChunkedMessage) {
        let Some(pool) = self.pool() else { return };
        let sim = self.comm.sim();
        let (mut recovered, mut bytes) = (0usize, 0usize);
        for (_, frame) in msg.frames {
            let n = frame.len();
            let ok = pool.reclaim(frame);
            if let Some(t) = sim.recorder() {
                t.count_reclaim(self.rank(), ok);
            }
            if ok {
                recovered += 1;
                bytes += n;
            }
        }
        if recovered > 0 {
            self.note_marker(Cat::Alloc, "alloc/reclaim", bytes, || {
                format!("{recovered} frames recycled")
            });
        }
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
    ) -> std::result::Result<(Status, Vec<u8>), OpenFailure> {
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
