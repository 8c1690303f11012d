//! Receiver-side salvage state for the retransmit layer.
//!
//! When a chunked (pipelined) message fails to open, most of its frames
//! are usually intact: a single flipped bit kills one chunk's GCM tag,
//! not the message. [`Salvage`] keeps everything that *did* arrive and
//! authenticates it chunk by chunk, so the NACK the receiver sends can
//! name exactly the missing/corrupt chunk indices and the repair only
//! recarries those frames.
//!
//! Nothing in here trusts frame headers: geometry (`msg_id`, chunk
//! count, total length) is majority-voted across the arrived frames and
//! only *locked* once a chunk authenticates under it — AES-GCM's AAD
//! binds the full geometry, so one successful open proves the vote
//! right. The base nonce is likewise recovered by majority vote of
//! `undo_chunk_nonce(frame nonce, index)`, which also heals frames
//! whose carried nonce bytes were corrupted in flight (the chunk nonce
//! is always re-derived from the voted base, never taken from the
//! frame). Until a vote can be trusted the salvager answers
//! [`SalvageResult::Opaque`] and the receiver falls back to a
//! whole-message NACK.

use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, HashSet};
use std::hash::Hasher;

use empi_aead::chunked::{undo_chunk_nonce, ChunkedOpener};
use empi_aead::{AesGcm, NONCE_LEN, TAG_LEN};
use empi_mpi::FrameHeader;

/// Hard cap on the chunk count the salvager will track — keeps a
/// corrupted `total` field from demanding absurd bookkeeping.
const MAX_SALVAGE_CHUNKS: u32 = 1 << 16;

/// What one salvage pass concluded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum SalvageResult {
    /// Every chunk authenticated: the full plaintext.
    Done(Vec<u8>),
    /// Geometry is proven but these chunk indices are still
    /// missing/corrupt — NACK exactly them.
    Missing(Vec<u32>),
    /// Nothing trustworthy arrived (or the geometry vote is still
    /// unproven) — NACK the whole message.
    Opaque,
}

/// One parseable frame awaiting a trial open.
struct Cand {
    hdr: FrameHeader,
    nonce: [u8; NONCE_LEN],
    /// `ciphertext ‖ tag` of the chunk.
    record: Vec<u8>,
}

/// Voted-and-proven message geometry.
#[derive(Clone, PartialEq, Eq)]
struct Geometry {
    msg_id: u64,
    total: u32,
    total_len: u64,
    base: [u8; NONCE_LEN],
}

/// Accumulates frames of one failed chunked message across delivery
/// attempts and opens them incrementally (already-authenticated chunks
/// are never re-opened on later passes).
pub(crate) struct Salvage {
    cands: Vec<Cand>,
    seen: HashSet<u64>,
    /// Locked after the first chunk authenticates (AAD proves the vote).
    geom: Option<Geometry>,
    opened: HashMap<u32, Vec<u8>>,
}

impl Salvage {
    pub(crate) fn new() -> Self {
        Salvage {
            cands: Vec::new(),
            seen: HashSet::new(),
            geom: None,
            opened: HashMap::new(),
        }
    }

    /// Absorb raw wire frames (initial delivery or a repair batch).
    /// Exact duplicates and unparseable runts are discarded; returns
    /// how many new candidates were accepted.
    pub(crate) fn merge<'x, I>(&mut self, frames: I) -> usize
    where
        I: IntoIterator<Item = &'x [u8]>,
    {
        let mut accepted = 0;
        for frame in frames {
            let mut h = DefaultHasher::new();
            h.write(frame);
            if !self.seen.insert(h.finish()) {
                continue; // duplicated frame — fault class, not progress
            }
            let Ok((hdr, body)) = FrameHeader::decode(frame) else {
                continue; // runt/truncated beyond the header
            };
            if hdr.total == 0 || hdr.total > MAX_SALVAGE_CHUNKS || hdr.index >= hdr.total {
                continue; // header too corrupt to even consider
            }
            if body.len() < NONCE_LEN + TAG_LEN {
                continue;
            }
            if let Some(g) = &self.geom {
                // Geometry is proven: foreign frames can never open.
                if hdr.msg_id != g.msg_id || hdr.total != g.total || hdr.total_len != g.total_len
                {
                    continue;
                }
            }
            let mut nonce = [0u8; NONCE_LEN];
            nonce.copy_from_slice(&body[..NONCE_LEN]);
            self.cands.push(Cand {
                hdr,
                nonce,
                record: body[NONCE_LEN..].to_vec(),
            });
            accepted += 1;
        }
        accepted
    }

    /// Sealed bytes queued for a trial open — what the next
    /// [`Salvage::try_open`] pass will push through AES-GCM (used by
    /// the caller to charge virtual crypto time).
    pub(crate) fn pending_bytes(&self) -> usize {
        self.cands.iter().map(|c| c.record.len()).sum()
    }

    /// The message id the next trial open would run under — the locked
    /// geometry's if one chunk already authenticated, otherwise the
    /// current majority vote. The key plane reads the epoch out of its
    /// top bits to pick the trial cipher.
    pub(crate) fn candidate_msg_id(&self) -> Option<u64> {
        self.geom
            .as_ref()
            .map(|g| g.msg_id)
            .or_else(|| self.vote().map(|g| g.msg_id))
    }

    /// Majority-vote a geometry from the current candidates.
    fn vote(&self) -> Option<Geometry> {
        let mut counts: HashMap<(u64, u32, u64), usize> = HashMap::new();
        for c in &self.cands {
            *counts
                .entry((c.hdr.msg_id, c.hdr.total, c.hdr.total_len))
                .or_insert(0) += 1;
        }
        let (&(msg_id, total, total_len), _) =
            counts.iter().max_by_key(|(_, &n)| n)?;
        let mut bases: HashMap<[u8; NONCE_LEN], usize> = HashMap::new();
        for c in &self.cands {
            if c.hdr.msg_id == msg_id && c.hdr.total == total && c.hdr.total_len == total_len {
                *bases
                    .entry(undo_chunk_nonce(&c.nonce, c.hdr.index))
                    .or_insert(0) += 1;
            }
        }
        let (&base, _) = bases.iter().max_by_key(|(_, &n)| n)?;
        Some(Geometry {
            msg_id,
            total,
            total_len,
            base,
        })
    }

    /// Try to authenticate every pending candidate. Chunks that open
    /// are cached; records that fail are discarded (a repair must
    /// re-supply them — retrying a bad record can never succeed).
    pub(crate) fn try_open(&mut self, cipher: &AesGcm) -> SalvageResult {
        let geom = match &self.geom {
            Some(g) => g.clone(),
            None => match self.vote() {
                Some(g) => g,
                None => return SalvageResult::Opaque,
            },
        };
        let opener =
            ChunkedOpener::new(cipher, geom.msg_id, geom.base, geom.total, geom.total_len);
        let mut locked = self.geom.is_some();
        let mut unvoted = Vec::new();
        for c in self.cands.drain(..) {
            let matches = c.hdr.msg_id == geom.msg_id
                && c.hdr.total == geom.total
                && c.hdr.total_len == geom.total_len;
            if matches && !self.opened.contains_key(&c.hdr.index) {
                // The chunk nonce is re-derived from the voted base, so
                // a corrupted carried-nonce field cannot block an
                // otherwise-intact record.
                if let Ok(plain) = opener.open_chunk(c.hdr.index, &c.record) {
                    self.opened.insert(c.hdr.index, plain);
                    locked = true;
                }
            } else if !matches && !locked {
                unvoted.push(c); // keep outvoted frames while unproven
            }
        }
        if locked {
            self.geom = Some(geom.clone());
        } else {
            self.cands = unvoted;
            return SalvageResult::Opaque;
        }
        if self.opened.len() as u32 == geom.total {
            let mut out = Vec::with_capacity(geom.total_len as usize);
            for i in 0..geom.total {
                out.extend_from_slice(&self.opened[&i]);
            }
            if out.len() as u64 != geom.total_len {
                // Cannot happen for honest AAD-bound chunks; refuse
                // rather than hand back a mis-assembled buffer.
                return SalvageResult::Opaque;
            }
            return SalvageResult::Done(out);
        }
        SalvageResult::Missing(
            (0..geom.total)
                .filter(|i| !self.opened.contains_key(i))
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use empi_aead::chunked::{chunk_count, chunk_range, derive_chunk_nonce, ChunkedSealer};
    use empi_mpi::FRAME_HEADER_LEN;

    fn cipher() -> AesGcm {
        AesGcm::new(&[0x42u8; 32]).unwrap()
    }

    fn build_frames(
        cipher: &AesGcm,
        msg: &[u8],
        chunk_size: usize,
        msg_id: u64,
        base: [u8; NONCE_LEN],
    ) -> Vec<Vec<u8>> {
        let total = chunk_count(msg.len(), chunk_size);
        let sealer = ChunkedSealer::new(cipher, msg_id, base, total, msg.len() as u64);
        (0..total)
            .map(|i| {
                let r = chunk_range(msg.len(), chunk_size, i);
                let hdr = FrameHeader {
                    msg_id,
                    index: i,
                    total,
                    total_len: msg.len() as u64,
                };
                let mut f = hdr.encode().to_vec();
                f.extend_from_slice(&derive_chunk_nonce(&base, i));
                let mut body = msg[r].to_vec();
                let tag = sealer.seal_chunk_detached(i, &mut body);
                f.extend_from_slice(&body);
                f.extend_from_slice(&tag);
                f
            })
            .collect()
    }

    fn msg(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i * 31 % 251) as u8).collect()
    }

    #[test]
    fn recovers_from_duplicates_and_reorder() {
        let c = cipher();
        let m = msg(1000);
        let mut frames = build_frames(&c, &m, 256, 9, [7u8; NONCE_LEN]);
        frames.push(frames[1].clone()); // duplicate
        frames.swap(0, 3); // reorder
        let mut s = Salvage::new();
        assert_eq!(s.merge(frames.iter().map(|f| &f[..])), 4, "dup deduped");
        assert_eq!(s.try_open(&c), SalvageResult::Done(m));
    }

    #[test]
    fn names_missing_and_corrupt_chunks_then_heals() {
        let c = cipher();
        let m = msg(1000);
        let frames = build_frames(&c, &m, 256, 10, [1u8; NONCE_LEN]);
        let mut delivered: Vec<Vec<u8>> = frames.clone();
        delivered.remove(2); // chunk 2 lost
        let last = delivered[1].len() - 1;
        delivered[1][last] ^= 0x40; // chunk 1 tag corrupted
        let mut s = Salvage::new();
        s.merge(delivered.iter().map(|f| &f[..]));
        assert_eq!(s.try_open(&c), SalvageResult::Missing(vec![1, 2]));
        assert_eq!(s.pending_bytes(), 0, "failed records are not retried");
        // Repair recarries exactly the named chunks.
        s.merge([&frames[1][..], &frames[2][..]]);
        assert_eq!(s.try_open(&c), SalvageResult::Done(m));
    }

    #[test]
    fn lone_or_garbage_frames_stay_opaque() {
        let c = cipher();
        let mut s = Salvage::new();
        assert_eq!(s.try_open(&c), SalvageResult::Opaque, "empty");
        // A runt and a frame whose ciphertext is wrecked: no chunk can
        // authenticate, so the geometry vote stays unproven.
        let mut bad = build_frames(&c, &msg(600), 256, 11, [2u8; NONCE_LEN]).remove(0);
        for b in bad.iter_mut().skip(FRAME_HEADER_LEN + NONCE_LEN) {
            *b ^= 0xff;
        }
        s.merge([&b"tiny"[..], &bad[..]]);
        assert_eq!(s.try_open(&c), SalvageResult::Opaque);
    }

    #[test]
    fn majority_outvotes_a_corrupted_header() {
        let c = cipher();
        let m = msg(1200);
        let frames = build_frames(&c, &m, 256, 12, [3u8; NONCE_LEN]);
        let mut delivered = frames.clone();
        delivered[3][0] ^= 0x80; // msg_id corrupted on chunk 3
        let mut s = Salvage::new();
        s.merge(delivered.iter().map(|f| &f[..]));
        // The four honest frames win the vote; chunk 3 is the casualty.
        assert_eq!(s.try_open(&c), SalvageResult::Missing(vec![3]));
        s.merge([&frames[3][..]]);
        assert_eq!(s.try_open(&c), SalvageResult::Done(m));
    }

    #[test]
    fn corrupted_carried_nonce_heals_without_repair() {
        let c = cipher();
        let m = msg(900);
        let mut frames = build_frames(&c, &m, 256, 13, [4u8; NONCE_LEN]);
        frames[2][FRAME_HEADER_LEN + 5] ^= 0x04; // nonce byte flipped
        let mut s = Salvage::new();
        s.merge(frames.iter().map(|f| &f[..]));
        // The chunk nonce is re-derived from the voted base, so the
        // flip costs nothing — no NACK round needed.
        assert_eq!(s.try_open(&c), SalvageResult::Done(m));
    }
}
