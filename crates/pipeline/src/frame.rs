//! The chunk frame: the one wire format of the pipelined path, and the
//! only code that knows its layout.
//!
//! A message of `total_len` bytes is split into `total` chunks of at
//! most `chunk_size` bytes ([`chunk_count`], `chunk_range`). Each
//! chunk is its own AES-GCM record and travels as one frame:
//!
//! ```text
//! header(24) ‖ nonce(12) ‖ ciphertext ‖ tag(16)
//! ```
//!
//! * The header is `msg_id(8) ‖ index(4) ‖ total(4) ‖ total_len(8)`,
//!   big-endian (`FrameHeader::encode`), and the same 24 bytes are
//!   the record's associated data. The header is not confidential
//!   (message sizes are visible on any wire) but it is authenticated:
//!   a reordered, duplicated, truncated or cross-message-spliced
//!   chunk, or one whose header was altered, fails to open even though
//!   every record verifies in isolation.
//! * Chunk `i`'s nonce is the message's base nonce plus `i`
//!   (`derive_chunk_nonce`), so one nonce draw covers the whole
//!   message (see `NonceSource::next_nonce_block`).
//!
//! `parse_frames` is the strict receive-side parser; nothing it
//! reads from a header sizes a buffer before a chunk authenticates.
//! The retransmit layer's salvager (`empi-core`, `recovery.rs`) keeps
//! its own lenient policy on top of [`FrameHeader::decode`] and
//! [`FrameHeader::open_into`].
//!
//! Sealing and opening a chunk are each one pass of the AES-GCM kernel
//! (`AesGcm::seal_to`, `AesGcm::open_to`): the plaintext is sealed from
//! the caller's buffer straight into the frame, and a chunk's
//! ciphertext opens straight into its place in the reassembled message.

use std::mem::MaybeUninit;

use bytes::Bytes;
use empi_aead::gcm::AesGcm;
use empi_aead::{NONCE_LEN, TAG_LEN};
use empi_netsim::VTime;

use crate::PipelineError;

/// Encoded frame-header length in bytes (also the AAD length).
pub const FRAME_HEADER_LEN: usize = 8 + 4 + 4 + 8;
/// Total wire overhead per chunk: header + nonce + tag.
pub const FRAME_OVERHEAD: usize = FRAME_HEADER_LEN + NONCE_LEN + TAG_LEN;

/// Number of chunks a `total_len`-byte message splits into (at least 1:
/// the empty message is one empty chunk).
pub fn chunk_count(total_len: usize, chunk_size: usize) -> u32 {
    assert!(chunk_size > 0, "chunk size must be positive");
    (total_len.div_ceil(chunk_size).max(1)) as u32
}

/// Byte range of chunk `index` within a `total_len`-byte message.
pub(crate) fn chunk_range(
    total_len: usize,
    chunk_size: usize,
    index: u32,
) -> std::ops::Range<usize> {
    let start = index as usize * chunk_size;
    start..total_len.min(start + chunk_size)
}

/// Nonce of chunk `index`: the base nonce with its trailing 64-bit
/// big-endian word incremented by `index`, carrying into the 4-byte
/// prefix on overflow. Treating the whole 96-bit nonce as one
/// big-endian counter means a Random/Seeded base near `u64::MAX` in
/// its tail cannot collide with a later draw whose tail starts low:
/// the two differ in the prefix after the carry.
fn derive_chunk_nonce(base: &[u8; NONCE_LEN], index: u32) -> [u8; NONCE_LEN] {
    let mut n = *base;
    let mut tail = [0u8; 8];
    tail.copy_from_slice(&n[4..]);
    let (v, carry) = u64::from_be_bytes(tail).overflowing_add(index as u64);
    n[4..].copy_from_slice(&v.to_be_bytes());
    if carry {
        let mut head = [0u8; 4];
        head.copy_from_slice(&n[..4]);
        let h = u32::from_be_bytes(head).wrapping_add(1);
        n[..4].copy_from_slice(&h.to_be_bytes());
    }
    n
}

/// Inverse of `derive_chunk_nonce`: recover the base nonce from the
/// nonce chunk `index` was sealed under, by subtracting `index` from
/// the trailing 64-bit big-endian word and borrowing from the 4-byte
/// prefix on underflow. Because derivation is a plain 96-bit
/// big-endian add, *any* intact chunk of a message suffices to
/// reconstruct the base — which is what lets a receiver re-derive a
/// damaged train's geometry from whichever frames survived.
pub fn undo_chunk_nonce(nonce: &[u8; NONCE_LEN], index: u32) -> [u8; NONCE_LEN] {
    let mut n = *nonce;
    let mut tail = [0u8; 8];
    tail.copy_from_slice(&n[4..]);
    let (v, borrow) = u64::from_be_bytes(tail).overflowing_sub(index as u64);
    n[4..].copy_from_slice(&v.to_be_bytes());
    if borrow {
        let mut head = [0u8; 4];
        head.copy_from_slice(&n[..4]);
        let h = u32::from_be_bytes(head).wrapping_sub(1);
        n[..4].copy_from_slice(&h.to_be_bytes());
    }
    n
}

/// One frame's header: which message, which chunk of it, and the
/// message's geometry. A header with `index` 0 stands for the whole
/// message wherever a geometry is carried.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FrameHeader {
    /// Sender-unique message id (binds chunks of one message together).
    pub msg_id: u64,
    /// This chunk's position.
    pub index: u32,
    /// Chunk count of the message.
    pub total: u32,
    /// Plaintext byte length of the whole message.
    pub total_len: u64,
}

impl FrameHeader {
    /// The header of chunk 0 of a `len`-byte message cut into
    /// `chunk_size`-byte chunks.
    pub(crate) fn message(msg_id: u64, len: usize, chunk_size: usize) -> FrameHeader {
        FrameHeader {
            msg_id,
            index: 0,
            total: chunk_count(len, chunk_size),
            total_len: len as u64,
        }
    }

    /// The header of chunk `index` of the same message.
    pub fn chunk(&self, index: u32) -> FrameHeader {
        FrameHeader { index, ..*self }
    }

    /// The 24-byte wire form, which is also the chunk's AAD.
    pub(crate) fn encode(&self) -> [u8; FRAME_HEADER_LEN] {
        let mut out = [0u8; FRAME_HEADER_LEN];
        out[..8].copy_from_slice(&self.msg_id.to_be_bytes());
        out[8..12].copy_from_slice(&self.index.to_be_bytes());
        out[12..16].copy_from_slice(&self.total.to_be_bytes());
        out[16..].copy_from_slice(&self.total_len.to_be_bytes());
        out
    }

    /// Parse a frame: returns the header and the remaining body
    /// (`nonce ‖ ciphertext ‖ tag`).
    pub fn decode(frame: &[u8]) -> Result<(FrameHeader, &[u8]), ChunkError> {
        if frame.len() < FRAME_OVERHEAD {
            return Err(ChunkError::FrameTooShort { got: frame.len() });
        }
        let h = FrameHeader {
            msg_id: u64::from_be_bytes(frame[..8].try_into().unwrap()),
            index: u32::from_be_bytes(frame[8..12].try_into().unwrap()),
            total: u32::from_be_bytes(frame[12..16].try_into().unwrap()),
            total_len: u64::from_be_bytes(frame[16..24].try_into().unwrap()),
        };
        Ok((h, &frame[FRAME_HEADER_LEN..]))
    }

    /// The one chunk seal: write this chunk's whole frame
    /// (`header ‖ nonce ‖ ct ‖ tag`) into `buf`, sealing `plain` straight
    /// into its wire position. `buf` may be a pooled or a fresh buffer;
    /// the bytes are identical either way.
    pub(crate) fn seal_into(
        &self,
        cipher: &AesGcm,
        base: &[u8; NONCE_LEN],
        plain: &[u8],
        buf: &mut Vec<u8>,
    ) {
        let (aad, nonce) = (self.encode(), derive_chunk_nonce(base, self.index));
        buf.clear();
        buf.reserve(FRAME_OVERHEAD + plain.len());
        buf.extend_from_slice(&aad);
        buf.extend_from_slice(&nonce);
        let ct = &mut buf.spare_capacity_mut()[..plain.len()];
        let tag = cipher.seal_to(&nonce, &aad, plain, ct);
        // SAFETY: `seal_to` wrote every byte of the ciphertext.
        unsafe { buf.set_len(FRAME_HEADER_LEN + NONCE_LEN + plain.len()) };
        buf.extend_from_slice(&tag);
    }

    /// The one chunk open: authenticate `record` (`ct ‖ tag`) under this
    /// header and `base`, appending its plaintext onto `out`. On failure
    /// `out` keeps its prior length.
    pub fn open_into(
        &self,
        cipher: &AesGcm,
        base: &[u8; NONCE_LEN],
        record: &[u8],
        out: &mut Vec<u8>,
    ) -> empi_aead::Result<()> {
        let start = out.len();
        let len = record.len().saturating_sub(TAG_LEN);
        out.reserve(len);
        self.open_at(cipher, base, record, &mut out.spare_capacity_mut()[..len])?;
        // SAFETY: the open succeeded and wrote every byte of the chunk.
        unsafe { out.set_len(start + len) };
        Ok(())
    }

    /// The same open into a place of its own: `record`'s ciphertext is
    /// decrypted into `dst`, which holds exactly that many bytes. Every
    /// byte of `dst` is written: the plaintext, or zeros on failure.
    pub(crate) fn open_at(
        &self,
        cipher: &AesGcm,
        base: &[u8; NONCE_LEN],
        record: &[u8],
        dst: &mut [MaybeUninit<u8>],
    ) -> empi_aead::Result<()> {
        let (ct, tag) = split_tag(record)?;
        let nonce = derive_chunk_nonce(base, self.index);
        cipher.open_to(&nonce, &self.encode(), ct, dst, tag)
    }
}

/// A record's `ct ‖ tag` halves.
fn split_tag(record: &[u8]) -> empi_aead::Result<(&[u8], &[u8; TAG_LEN])> {
    let too_short = empi_aead::Error::CiphertextTooShort { got: record.len() };
    record.split_last_chunk().ok_or(too_short)
}

/// Protocol-level reassembly failures (before any key is involved;
/// cryptographic failures surface separately as auth errors).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChunkError {
    /// Frame shorter than header + nonce + tag.
    FrameTooShort { got: usize },
    /// A frame's `msg_id` disagrees with the first frame's.
    MsgIdMismatch { expect: u64, got: u64 },
    /// A frame's `total`/`total_len` disagrees with the first frame's.
    GeometryMismatch,
    /// `index >= total`.
    IndexOutOfRange { index: u32, total: u32 },
    /// The same index arrived twice.
    DuplicateChunk { index: u32 },
    /// Fewer frames arrived than the message has chunks.
    MissingChunks { have: u32, total: u32 },
    /// Declared `total` of zero (every message has at least one chunk).
    EmptyMessage,
    /// Declared `total` above `max(1, total_len)`: every chunk but an
    /// empty message's only one carries at least one byte.
    TotalExceedsLength { total: u32, total_len: u64 },
}

impl std::fmt::Display for ChunkError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ChunkError::FrameTooShort { got } => {
                write!(f, "chunk frame too short: {got} < {FRAME_OVERHEAD} bytes")
            }
            ChunkError::MsgIdMismatch { expect, got } => {
                write!(f, "chunk msg_id mismatch: expected {expect}, got {got}")
            }
            ChunkError::GeometryMismatch => write!(f, "chunk total/total_len mismatch"),
            ChunkError::IndexOutOfRange { index, total } => {
                write!(f, "chunk index {index} out of range (total {total})")
            }
            ChunkError::DuplicateChunk { index } => write!(f, "duplicate chunk {index}"),
            ChunkError::MissingChunks { have, total } => {
                write!(f, "incomplete message: {have} of {total} chunks")
            }
            ChunkError::EmptyMessage => write!(f, "chunked message with zero chunks"),
            ChunkError::TotalExceedsLength { total, total_len } => {
                write!(f, "{total} chunks declared for {total_len} bytes")
            }
        }
    }
}

impl std::error::Error for ChunkError {}

/// A chunked message parsed and validated down to its AEAD records.
pub(crate) struct ParsedMessage {
    /// The message's header with `index` 0.
    pub(crate) msg: FrameHeader,
    /// Base nonce recovered from chunk 0's frame (chunk `i`'s nonce is
    /// derived as `base + i`).
    pub(crate) base_nonce: [u8; NONCE_LEN],
    /// Per chunk index: arrival time and record (`ct ‖ tag`).
    pub(crate) records: Vec<(VTime, Bytes)>,
}

impl ParsedMessage {
    /// Plaintext bytes the delivered records can hold: what an output
    /// buffer is sized by. The header's `total_len` is not
    /// authenticated yet when the buffer is made, so it sizes nothing.
    pub(crate) fn arrived_len(&self) -> usize {
        self.records.iter().map(|(_, r)| r.len() - TAG_LEN).sum()
    }

    /// The reassembled length must be the declared one.
    pub(crate) fn check_len(&self, out: &[u8]) -> Result<(), PipelineError> {
        if out.len() as u64 != self.msg.total_len {
            return Err(PipelineError::Length {
                expect: self.msg.total_len,
                got: out.len(),
            });
        }
        Ok(())
    }
}

/// Parse and protocol-validate a set of frames (any order). Fails on
/// malformed frames, inconsistent headers, duplicated, out-of-range or
/// missing chunks — before any key is touched. The first header is not
/// authenticated yet, so its `total` sizes nothing until it is bounded
/// by what arrived: more chunks than frames is a message missing
/// chunks, and more chunks than bytes is no message a sender could have
/// framed.
pub(crate) fn parse_frames(
    frames: impl IntoIterator<Item = (VTime, Bytes), IntoIter: ExactSizeIterator>,
) -> Result<ParsedMessage, PipelineError> {
    let mut iter = frames.into_iter();
    let delivered = iter.len();
    let (at0, f0) = iter.next().ok_or(ChunkError::EmptyMessage)?;
    let msg = FrameHeader::decode(&f0)?.0.chunk(0);
    let total = msg.total;
    if total == 0 {
        return Err(ChunkError::EmptyMessage.into());
    }
    if u64::from(total) > msg.total_len.max(1) {
        return Err(ChunkError::TotalExceedsLength {
            total,
            total_len: msg.total_len,
        }
        .into());
    }
    let have = u32::try_from(delivered).unwrap_or(u32::MAX);
    if total > have {
        return Err(ChunkError::MissingChunks { have, total }.into());
    }
    // Per chunk index: arrival and body (`nonce ‖ ct ‖ tag`).
    let mut slots: Vec<Option<(VTime, Bytes)>> = vec![None; total as usize];
    for (at, f) in std::iter::once((at0, f0)).chain(iter) {
        let (h, _) = FrameHeader::decode(&f)?;
        if h.msg_id != msg.msg_id {
            return Err(ChunkError::MsgIdMismatch {
                expect: msg.msg_id,
                got: h.msg_id,
            }
            .into());
        }
        if h.chunk(0) != msg {
            return Err(ChunkError::GeometryMismatch.into());
        }
        let Some(slot) = slots.get_mut(h.index as usize) else {
            return Err(ChunkError::IndexOutOfRange {
                index: h.index,
                total,
            }
            .into());
        };
        if slot.is_some() {
            return Err(ChunkError::DuplicateChunk { index: h.index }.into());
        }
        // Zero-copy: the body is a subview of the frame allocation.
        *slot = Some((at, f.slice(FRAME_HEADER_LEN..)));
    }
    let filled = slots.iter().flatten().count() as u32;
    let bodies: Vec<(VTime, Bytes)> =
        slots
            .into_iter()
            .collect::<Option<_>>()
            .ok_or(ChunkError::MissingChunks {
                have: filled,
                total,
            })?;
    let mut base_nonce = [0u8; NONCE_LEN];
    base_nonce.copy_from_slice(&bodies[0].1[..NONCE_LEN]);
    // Every frame's carried nonce must match the one derived from the
    // base — otherwise a wire byte would exist that no check covers.
    for (i, (_, b)) in bodies.iter().enumerate() {
        if b[..NONCE_LEN] != derive_chunk_nonce(&base_nonce, i as u32) {
            return Err(PipelineError::Crypto(empi_aead::Error::AuthFailure));
        }
    }
    let records = bodies
        .into_iter()
        .map(|(at, b)| (at, b.slice(NONCE_LEN..)))
        .collect();
    Ok(ParsedMessage {
        msg,
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
    let msg = FrameHeader::message(msg_id, buf.len(), chunk_size);
    (0..msg.total)
        .map(|i| {
            let mut f = Vec::new();
            let plain = &buf[chunk_range(buf.len(), chunk_size, i)];
            msg.chunk(i).seal_into(cipher, &base_nonce, plain, &mut f);
            f
        })
        .collect()
}

/// Open wire frames back into the message (pure crypto, no timing).
/// Rejects tampered, reordered, dropped, duplicated or spliced chunks.
pub fn open_frames(cipher: &AesGcm, frames: &[Vec<u8>]) -> Result<Vec<u8>, PipelineError> {
    let parsed = parse_frames(frames.iter().map(|f| (VTime(0), Bytes::copy_from_slice(f))))?;
    let mut out = Vec::with_capacity(parsed.arrived_len());
    for (i, (_, record)) in parsed.records.iter().enumerate() {
        let index = i as u32;
        parsed
            .msg
            .chunk(index)
            .open_into(cipher, &parsed.base_nonce, record, &mut out)
            .map_err(|source| PipelineError::Chunk { index, source })?;
    }
    parsed.check_len(&out)?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cipher() -> AesGcm {
        AesGcm::new(&[0x42u8; 32]).unwrap()
    }

    const BASE: [u8; NONCE_LEN] = [9u8; NONCE_LEN];

    /// `ct ‖ tag` of every chunk of `msg`, sealed under message id 77
    /// and base nonce [`BASE`].
    fn seal_all(c: &AesGcm, msg: &[u8], chunk_size: usize) -> (FrameHeader, Vec<Vec<u8>>) {
        let m = FrameHeader::message(77, msg.len(), chunk_size);
        let records = seal_frames(c, m.msg_id, BASE, msg, chunk_size)
            .into_iter()
            .map(|f| f[FRAME_HEADER_LEN + NONCE_LEN..].to_vec())
            .collect();
        (m, records)
    }

    fn hdr(index: u32) -> FrameHeader {
        FrameHeader {
            msg_id: 0xABCD,
            index,
            total: 3,
            total_len: 150,
        }
    }

    /// A frame of `h` with a one-byte body `mark`, its carried nonce
    /// derived from [`BASE`] and a zero tag: protocol-valid, never
    /// authentic.
    fn frame(h: FrameHeader, mark: u8) -> (VTime, Bytes) {
        let mut f = h.encode().to_vec();
        f.extend_from_slice(&derive_chunk_nonce(&BASE, h.index));
        f.push(mark);
        f.extend_from_slice(&[0u8; TAG_LEN]);
        (VTime(0), Bytes::from(f))
    }

    fn protocol_error(frames: Vec<(VTime, Bytes)>) -> Option<ChunkError> {
        match parse_frames(frames) {
            Err(PipelineError::Protocol(e)) => Some(e),
            Err(e) => panic!("not a protocol error: {e:?}"),
            Ok(_) => None,
        }
    }

    #[test]
    fn geometry_helpers() {
        assert_eq!(chunk_count(0, 64), 1);
        assert_eq!(chunk_count(64, 64), 1);
        assert_eq!(chunk_count(65, 64), 2);
        assert_eq!(chunk_count(1 << 20, 1 << 16), 16);
        assert_eq!(chunk_range(100, 64, 0), 0..64);
        assert_eq!(chunk_range(100, 64, 1), 64..100);
    }

    #[test]
    fn nonce_derivation_is_an_offset() {
        let base = [0xFFu8; 12];
        let n0 = derive_chunk_nonce(&base, 0);
        let n1 = derive_chunk_nonce(&base, 1);
        assert_eq!(n0, base);
        assert_ne!(n1, base);
        // Tail overflow carries into the 4-byte prefix instead of
        // silently wrapping back onto low-tail nonces.
        assert_eq!(&n1[..4], &0u32.to_be_bytes());
        assert_eq!(&n1[4..], &0u64.to_be_bytes());
        // Distinct indices, distinct nonces.
        let set: std::collections::HashSet<_> = (0..1000)
            .map(|i| derive_chunk_nonce(&[3u8; 12], i))
            .collect();
        assert_eq!(set.len(), 1000);
    }

    #[test]
    fn nonce_tail_overflow_never_collides_with_low_tail_draws() {
        // A base whose tail is u64::MAX - 1: indices 0..4 straddle the
        // overflow. A second base with the same prefix and a zero tail
        // (what a later Random draw could produce) must stay disjoint.
        let mut high = [0xABu8; 12];
        high[4..].copy_from_slice(&(u64::MAX - 1).to_be_bytes());
        let mut low = [0xABu8; 12];
        low[4..].copy_from_slice(&0u64.to_be_bytes());
        let from_high: std::collections::HashSet<_> =
            (0..4).map(|i| derive_chunk_nonce(&high, i)).collect();
        let from_low: std::collections::HashSet<_> =
            (0..4).map(|i| derive_chunk_nonce(&low, i)).collect();
        assert_eq!(from_high.len(), 4);
        assert!(from_high.is_disjoint(&from_low));
        // The carried nonces live under the incremented prefix.
        let carried = derive_chunk_nonce(&high, 2);
        let mut want_prefix = [0xABu8; 4];
        want_prefix[3] = 0xAC;
        assert_eq!(&carried[..4], &want_prefix);
        assert_eq!(&carried[4..], &0u64.to_be_bytes());
    }

    #[test]
    fn undo_chunk_nonce_inverts_derivation() {
        // Round-trip across the carry/borrow boundary and for ordinary
        // bases: undo(derive(base, i), i) == base for every i.
        let mut high = [0x5Au8; 12];
        high[4..].copy_from_slice(&(u64::MAX - 1).to_be_bytes());
        for base in [[0u8; 12], [0xFFu8; 12], [9u8; 12], high] {
            for i in [0u32, 1, 2, 3, 1000, u32::MAX] {
                let derived = derive_chunk_nonce(&base, i);
                assert_eq!(
                    undo_chunk_nonce(&derived, i),
                    base,
                    "base {base:?} index {i}"
                );
            }
        }
    }

    #[test]
    fn round_trip_uneven_tail() {
        let c = cipher();
        let msg: Vec<u8> = (0..201u32).map(|i| i as u8).collect(); // 201 % 64 != 0
        let (m, chunks) = seal_all(&c, &msg, 64);
        assert_eq!(m.total, 4);
        assert_eq!(chunks[3].len(), 9 + TAG_LEN);
        let mut out = Vec::new();
        for (i, ch) in chunks.iter().enumerate() {
            m.chunk(i as u32)
                .open_into(&c, &BASE, ch, &mut out)
                .unwrap();
        }
        assert_eq!(out, msg);
    }

    /// The chunk seal is the raw cipher under the header as AAD, and a
    /// bad tag leaves the buffer untouched.
    #[test]
    fn detached_chunk_api_is_bit_identical() {
        let c = cipher();
        let msg: Vec<u8> = (0..201u32).map(|i| (i * 7) as u8).collect();
        let (m, chunks) = seal_all(&c, &msg, 64);
        for i in 0..m.total {
            let h = m.chunk(i);
            let plain = &msg[chunk_range(msg.len(), 64, i)];
            let raw = c.seal(&derive_chunk_nonce(&BASE, i), &h.encode(), plain);
            assert_eq!(raw, chunks[i as usize], "chunk {i}");
            // And back.
            let mut out = vec![0xEE];
            h.open_into(&c, &BASE, &chunks[i as usize], &mut out)
                .unwrap();
            assert_eq!(&out[1..], plain);
            // Tampered tag leaves the buffer untouched.
            let mut bad = chunks[i as usize].clone();
            *bad.last_mut().unwrap() ^= 1;
            let snapshot = out.clone();
            assert!(h.open_into(&c, &BASE, &bad, &mut out).is_err());
            assert_eq!(out, snapshot);
        }
        // A record shorter than a tag is a typed error, not a panic.
        let mut out = Vec::new();
        assert!(m
            .open_into(&c, &BASE, &[0u8; TAG_LEN - 1], &mut out)
            .is_err());
        assert!(out.is_empty());
    }

    #[test]
    fn wrong_position_geometry_or_message_fails() {
        let c = cipher();
        let msg = vec![7u8; 130];
        let (m, chunks) = seal_all(&c, &msg, 64);
        let mut out = Vec::new();
        // Chunk 0 presented as chunk 1: reorder detected.
        assert!(m
            .chunk(1)
            .open_into(&c, &BASE, &chunks[0], &mut out)
            .is_err());
        // Wrong chunk total: truncation/extension detected.
        let bad_total = FrameHeader {
            total: m.total + 1,
            ..m
        };
        assert!(bad_total
            .open_into(&c, &BASE, &chunks[0], &mut out)
            .is_err());
        // Wrong message id: cross-message splice detected.
        let bad_msg = FrameHeader { msg_id: 78, ..m };
        assert!(bad_msg.open_into(&c, &BASE, &chunks[0], &mut out).is_err());
        // Flipped ciphertext bit: plain tamper detected.
        let mut t = chunks[2].clone();
        t[0] ^= 1;
        assert!(m.chunk(2).open_into(&c, &BASE, &t, &mut out).is_err());
        assert!(out.is_empty());
    }

    #[test]
    fn header_round_trip() {
        let h = hdr(2);
        let mut frame = h.encode().to_vec();
        frame.extend_from_slice(&[0u8; NONCE_LEN + TAG_LEN]);
        frame.extend_from_slice(b"ciphertext");
        let (parsed, body) = FrameHeader::decode(&frame).unwrap();
        assert_eq!(parsed, h);
        assert_eq!(body.len(), NONCE_LEN + TAG_LEN + 10);
        assert!(matches!(
            FrameHeader::decode(&frame[..FRAME_OVERHEAD - 1]),
            Err(ChunkError::FrameTooShort { .. })
        ));
    }

    #[test]
    fn reassembly_accepts_any_order_once() {
        let frames = [1u32, 0, 2].map(|i| frame(hdr(i), i as u8));
        let parsed = parse_frames(frames).unwrap();
        assert_eq!(parsed.msg, hdr(0));
        assert_eq!(parsed.base_nonce, BASE);
        assert_eq!(
            parsed.records.iter().map(|(_, r)| r[0]).collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
    }

    #[test]
    fn reassembly_rejects_protocol_violations() {
        // Duplicate.
        let dup = vec![frame(hdr(0), 0), frame(hdr(0), 0), frame(hdr(2), 2)];
        assert_eq!(
            protocol_error(dup),
            Some(ChunkError::DuplicateChunk { index: 0 })
        );
        // Wrong message id.
        let mut alien = hdr(1);
        alien.msg_id = 0xDEAD;
        let spliced = vec![frame(hdr(0), 0), frame(alien, 1), frame(hdr(2), 2)];
        assert!(matches!(
            protocol_error(spliced),
            Some(ChunkError::MsgIdMismatch { .. })
        ));
        // Wrong geometry.
        let mut warped = hdr(1);
        warped.total_len = 151;
        let warped = vec![frame(hdr(0), 0), frame(warped, 1), frame(hdr(2), 2)];
        assert_eq!(protocol_error(warped), Some(ChunkError::GeometryMismatch));
        // Out-of-range index.
        let mut big = hdr(0);
        big.index = 3;
        let beyond = vec![frame(hdr(0), 0), frame(hdr(1), 1), frame(big, 3)];
        assert!(matches!(
            protocol_error(beyond),
            Some(ChunkError::IndexOutOfRange { .. })
        ));
        // Dropped chunk: a short train fails.
        assert_eq!(
            protocol_error(vec![frame(hdr(0), 0)]),
            Some(ChunkError::MissingChunks { have: 1, total: 3 })
        );
    }

    #[test]
    fn an_unauthenticated_total_sizes_nothing() {
        // `u32::MAX` slots would be 128 GiB: returning at all shows
        // nothing was sized by the header.
        let mut h = hdr(0);
        h.total = u32::MAX;
        h.total_len = u64::MAX;
        assert_eq!(
            protocol_error(vec![frame(h, 0)]),
            Some(ChunkError::MissingChunks {
                have: 1,
                total: u32::MAX
            })
        );
        // More chunks than bytes is refused before the frame count is
        // consulted.
        h.total_len = 2;
        assert_eq!(
            protocol_error(vec![frame(h, 0)]),
            Some(ChunkError::TotalExceedsLength {
                total: u32::MAX,
                total_len: 2
            })
        );
        // An empty message is one chunk of no bytes.
        let empty = FrameHeader {
            total: 1,
            total_len: 0,
            ..hdr(0)
        };
        assert_eq!(protocol_error(vec![frame(empty, 0)]), None);
        // So is no frame at all refused, not indexed.
        assert_eq!(protocol_error(vec![]), Some(ChunkError::EmptyMessage));
    }

    /// A forged `total_len` on a one-frame train sizes no buffer: the
    /// chunk fails authentication, typed, instead of the process
    /// aborting on a 2^63-byte allocation.
    #[test]
    fn a_forged_total_len_fails_typed() {
        let c = cipher();
        let mut frames = seal_frames(&c, 5, [1u8; 12], b"hello", 64);
        frames[0][16..24].copy_from_slice(&(u64::MAX / 2).to_be_bytes());
        let err = open_frames(&c, &frames).unwrap_err();
        assert!(
            matches!(err, PipelineError::Chunk { index: 0, .. }),
            "{err:?}"
        );
    }
}
