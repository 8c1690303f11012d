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
//!
//! The frame itself — [`FrameHeader`], its decode, the chunk open and
//! [`undo_chunk_nonce`] — is `empi_pipeline::frame`'s; this
//! module only adds the lenient policy on top: majority vote, a nonce
//! re-derived from the voted base, and `MAX_SALVAGE_CHUNKS`.

use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, HashSet};
use std::hash::Hasher;

use empi_aead::{AesGcm, NONCE_LEN, TAG_LEN};
use empi_pipeline::{undo_chunk_nonce, FrameHeader};

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

/// A voted message geometry: the message's header with `index` 0, and
/// the base nonce its chunks were sealed under.
type Geometry = (FrameHeader, [u8; NONCE_LEN]);

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
            if let Some((msg, _)) = &self.geom {
                // Geometry is proven: foreign frames can never open.
                if hdr != msg.chunk(hdr.index) {
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
        self.geom.or_else(|| self.vote()).map(|(msg, _)| msg.msg_id)
    }

    /// Majority-vote a geometry from the current candidates.
    fn vote(&self) -> Option<Geometry> {
        let mut counts: HashMap<FrameHeader, usize> = HashMap::new();
        for c in &self.cands {
            *counts.entry(c.hdr.chunk(0)).or_insert(0) += 1;
        }
        let (&msg, _) = counts.iter().max_by_key(|(_, &n)| n)?;
        let mut bases: HashMap<[u8; NONCE_LEN], usize> = HashMap::new();
        for c in &self.cands {
            if c.hdr == msg.chunk(c.hdr.index) {
                *bases
                    .entry(undo_chunk_nonce(&c.nonce, c.hdr.index))
                    .or_insert(0) += 1;
            }
        }
        let (&base, _) = bases.iter().max_by_key(|(_, &n)| n)?;
        Some((msg, base))
    }

    /// Try to authenticate every pending candidate. Chunks that open
    /// are cached; records that fail are discarded (a repair must
    /// re-supply them — retrying a bad record can never succeed).
    pub(crate) fn try_open(&mut self, cipher: &AesGcm) -> SalvageResult {
        let Some((msg, base)) = self.geom.or_else(|| self.vote()) else {
            return SalvageResult::Opaque;
        };
        let mut locked = self.geom.is_some();
        let mut unvoted = Vec::new();
        for c in self.cands.drain(..) {
            let matches = c.hdr == msg.chunk(c.hdr.index);
            if matches && !self.opened.contains_key(&c.hdr.index) {
                // The chunk nonce is re-derived from the voted base, so
                // a corrupted carried-nonce field cannot block an
                // otherwise-intact record.
                let mut plain = Vec::new();
                if c.hdr
                    .open_into(cipher, &base, &c.record, &mut plain)
                    .is_ok()
                {
                    self.opened.insert(c.hdr.index, plain);
                    locked = true;
                }
            } else if !matches && !locked {
                unvoted.push(c); // keep outvoted frames while unproven
            }
        }
        if locked {
            self.geom = Some((msg, base));
        } else {
            self.cands = unvoted;
            return SalvageResult::Opaque;
        }
        if self.opened.len() as u32 == msg.total {
            let mut out = Vec::with_capacity(msg.total_len as usize);
            for i in 0..msg.total {
                out.extend_from_slice(&self.opened[&i]);
            }
            if out.len() as u64 != msg.total_len {
                // Cannot happen for honest AAD-bound chunks; refuse
                // rather than hand back a mis-assembled buffer.
                return SalvageResult::Opaque;
            }
            return SalvageResult::Done(out);
        }
        SalvageResult::Missing(
            (0..msg.total)
                .filter(|i| !self.opened.contains_key(i))
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use empi_pipeline::{open_frames, seal_frames, FRAME_HEADER_LEN};
    use proptest::prelude::*;

    fn cipher() -> AesGcm {
        AesGcm::new(&[0x42u8; 32]).unwrap()
    }

    fn msg(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i * 31 % 251) as u8).collect()
    }

    #[test]
    fn recovers_from_duplicates_and_reorder() {
        let c = cipher();
        let m = msg(1000);
        let mut frames = seal_frames(&c, 9, [7u8; NONCE_LEN], &m, 256);
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
        let frames = seal_frames(&c, 10, [1u8; NONCE_LEN], &m, 256);
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
        let mut bad = seal_frames(&c, 11, [2u8; NONCE_LEN], &msg(600), 256).remove(0);
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
        let frames = seal_frames(&c, 12, [3u8; NONCE_LEN], &m, 256);
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
        let mut frames = seal_frames(&c, 13, [4u8; NONCE_LEN], &m, 256);
        frames[2][FRAME_HEADER_LEN + 5] ^= 0x04; // nonce byte flipped
        let mut s = Salvage::new();
        s.merge(frames.iter().map(|f| &f[..]));
        // The chunk nonce is re-derived from the voted base, so the
        // flip costs nothing — no NACK round needed.
        assert_eq!(s.try_open(&c), SalvageResult::Done(m));
    }

    /// One edit of an honest frame train. Frame positions are taken
    /// modulo the train's length.
    #[derive(Debug, Clone)]
    enum Edit {
        /// Overwrite the big-endian header field at byte `at` (`msg_id`
        /// at 0, `index` at 8, `total` at 12, `total_len` at 16) of one
        /// frame, or of every frame (`frame` = `None`).
        Field {
            frame: Option<usize>,
            at: usize,
            value: u64,
        },
        Flip {
            frame: usize,
            byte: usize,
            bit: u8,
        },
        Truncate {
            frame: usize,
            len: usize,
        },
        Duplicate {
            frame: usize,
        },
        Drop {
            frame: usize,
        },
        Swap {
            a: usize,
            b: usize,
        },
    }

    fn field_value() -> impl Strategy<Value = u64> {
        prop_oneof![any::<u64>(), 0u64..8, Just(u64::MAX), Just(1 << 40)]
    }

    fn edit() -> impl Strategy<Value = Edit> {
        let field = |at: usize| {
            (any::<bool>(), any::<usize>(), field_value()).prop_map(move |(all, f, value)| {
                let frame = (!all).then_some(f);
                Edit::Field { frame, at, value }
            })
        };
        prop_oneof![
            field(0),
            field(8),
            field(12),
            field(16),
            (any::<usize>(), any::<usize>(), 0u8..8).prop_map(|(frame, byte, bit)| Edit::Flip {
                frame,
                byte,
                bit
            }),
            (any::<usize>(), any::<usize>()).prop_map(|(frame, len)| Edit::Truncate { frame, len }),
            any::<usize>().prop_map(|frame| Edit::Duplicate { frame }),
            any::<usize>().prop_map(|frame| Edit::Drop { frame }),
            (any::<usize>(), any::<usize>()).prop_map(|(a, b)| Edit::Swap { a, b }),
        ]
    }

    fn apply(frames: &mut Vec<Vec<u8>>, edit: &Edit) {
        if frames.is_empty() {
            return;
        }
        let n = frames.len();
        match *edit {
            Edit::Field { frame, at, value } => {
                let width = if at == 8 || at == 12 { 4 } else { 8 };
                let bytes = value.to_be_bytes();
                let targets = frame.map_or(0..n, |f| f % n..f % n + 1);
                for f in &mut frames[targets] {
                    if f.len() >= at + width {
                        f[at..at + width].copy_from_slice(&bytes[8 - width..]);
                    }
                }
            }
            Edit::Flip { frame, byte, bit } => {
                let f = &mut frames[frame % n];
                if !f.is_empty() {
                    let at = byte % f.len();
                    f[at] ^= 1 << bit;
                }
            }
            Edit::Truncate { frame, len } => {
                let f = &mut frames[frame % n];
                f.truncate(len % (f.len() + 1));
            }
            Edit::Duplicate { frame } => frames.push(frames[frame % n].clone()),
            Edit::Drop { frame } => {
                frames.remove(frame % n);
            }
            Edit::Swap { a, b } => frames.swap(a % n, b % n),
        }
    }

    /// A train to decode: arbitrary bytes, or an honest train of a
    /// message (1-frame trains included) under a sequence of edits.
    fn train() -> impl Strategy<Value = (Vec<u8>, Vec<Vec<u8>>)> {
        let honest = (
            proptest::collection::vec(any::<u8>(), 0..300),
            1usize..400,
            proptest::collection::vec(edit(), 0..4),
        )
            .prop_map(|(m, chunk, edits)| {
                let mut frames = seal_frames(&cipher(), 21, [5u8; NONCE_LEN], &m, chunk);
                for e in &edits {
                    apply(&mut frames, e);
                }
                (m, frames)
            });
        let garbage =
            proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..120), 0..5)
                .prop_map(|frames| (Vec::new(), frames));
        prop_oneof![honest, garbage]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]

        /// The frame decoders are total: whatever arrives, the strict
        /// parser and the salvager return a typed outcome (no panic, no
        /// allocation sized by an unauthenticated header), and whatever
        /// they release is the message that was sealed.
        #[test]
        fn frame_decoders_are_total(input in train()) {
            let (m, frames) = input;
            let c = cipher();
            if let Ok(out) = open_frames(&c, &frames) {
                prop_assert_eq!(&out, &m);
            }
            let mut s = Salvage::new();
            s.merge(frames.iter().map(|f| &f[..]));
            match s.try_open(&c) {
                SalvageResult::Done(out) => prop_assert_eq!(&out, &m),
                SalvageResult::Missing(ix) => prop_assert!(!ix.is_empty()),
                SalvageResult::Opaque => {}
            }
        }
    }
}
