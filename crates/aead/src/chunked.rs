//! Chunked AEAD: one message sealed as a sequence of independent
//! AES-GCM records, the cryptographic core of the CryptMPI-style
//! pipelined path (`empi-pipeline`).
//!
//! A message of `total_len` bytes is split into `total` chunks of at
//! most `chunk_size` bytes. Chunk `i` is sealed with:
//!
//! * nonce `base + i` — the message's base nonce with its trailing
//!   64-bit word incremented by the chunk index, carrying into the
//!   4-byte prefix on overflow (the standard invocation-counter
//!   construction, so one nonce draw covers the whole message; see
//!   `NonceSource::next_nonce_block`), and
//! * AAD `msg_id ‖ index ‖ total ‖ total_len` — binding each record to
//!   its position and to the message geometry, so a reordered,
//!   duplicated, truncated, or cross-message-spliced chunk fails
//!   authentication even though every record verifies in isolation.
//!
//! This module is pure crypto: no timing, no transport. Framing (what
//! precedes each record on the wire) lives in `empi-mpi::chunk`;
//! scheduling (when each seal/open runs) lives in `empi-pipeline`.

use crate::gcm::AesGcm;
use crate::{Result, NONCE_LEN, TAG_LEN};

/// Byte length of the per-chunk associated data.
pub const CHUNK_AAD_LEN: usize = 8 + 4 + 4 + 8;

/// Number of chunks a `total_len`-byte message splits into (at least 1:
/// the empty message is one empty chunk).
pub fn chunk_count(total_len: usize, chunk_size: usize) -> u32 {
    assert!(chunk_size > 0, "chunk size must be positive");
    (total_len.div_ceil(chunk_size).max(1)) as u32
}

/// Byte range of chunk `index` within a `total_len`-byte message.
pub fn chunk_range(total_len: usize, chunk_size: usize, index: u32) -> std::ops::Range<usize> {
    let start = index as usize * chunk_size;
    start..total_len.min(start + chunk_size)
}

/// Nonce of chunk `index`: the base nonce with its trailing 64-bit
/// big-endian word incremented by `index`, carrying into the 4-byte
/// prefix on overflow. Treating the whole 96-bit nonce as one
/// big-endian counter means a Random/Seeded base near `u64::MAX` in
/// its tail cannot collide with a later draw whose tail starts low:
/// the two differ in the prefix after the carry.
pub fn derive_chunk_nonce(base: &[u8; NONCE_LEN], index: u32) -> [u8; NONCE_LEN] {
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

/// Inverse of [`derive_chunk_nonce`]: recover the base nonce from the
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

/// Associated data of chunk `index`: `msg_id ‖ index ‖ total ‖
/// total_len`, all big-endian.
fn chunk_aad(msg_id: u64, index: u32, total: u32, total_len: u64) -> [u8; CHUNK_AAD_LEN] {
    let mut aad = [0u8; CHUNK_AAD_LEN];
    aad[..8].copy_from_slice(&msg_id.to_be_bytes());
    aad[8..12].copy_from_slice(&index.to_be_bytes());
    aad[12..16].copy_from_slice(&total.to_be_bytes());
    aad[16..].copy_from_slice(&total_len.to_be_bytes());
    aad
}

/// Seals the chunks of one message under a fixed geometry.
pub struct ChunkedSealer<'a> {
    cipher: &'a AesGcm,
    msg_id: u64,
    base_nonce: [u8; NONCE_LEN],
    total: u32,
    total_len: u64,
}

impl<'a> ChunkedSealer<'a> {
    /// A sealer for a message of `total` chunks and `total_len` bytes.
    /// `base_nonce` must reserve `total` consecutive values (see
    /// `NonceSource::next_nonce_block`).
    pub fn new(
        cipher: &'a AesGcm,
        msg_id: u64,
        base_nonce: [u8; NONCE_LEN],
        total: u32,
        total_len: u64,
    ) -> Self {
        ChunkedSealer {
            cipher,
            msg_id,
            base_nonce,
            total,
            total_len,
        }
    }

    /// Seal chunk `index` in place: `buf` holds the plaintext on entry
    /// and the ciphertext on return; the tag is returned separately so
    /// the caller can assemble the frame without an intermediate `Vec`.
    /// Bit-identical to the one-shot `seal_chunk` the tests keep (which
    /// is this plus copies).
    pub fn seal_chunk_detached(&self, index: u32, buf: &mut [u8]) -> [u8; TAG_LEN] {
        assert!(index < self.total, "chunk index out of range");
        let nonce = derive_chunk_nonce(&self.base_nonce, index);
        let aad = chunk_aad(self.msg_id, index, self.total, self.total_len);
        self.cipher.seal_detached(&nonce, &aad, buf)
    }
}

/// Opens the chunks of one message under a fixed geometry (read from
/// the first frame's header by the transport layer).
pub struct ChunkedOpener<'a> {
    cipher: &'a AesGcm,
    msg_id: u64,
    base_nonce: [u8; NONCE_LEN],
    total: u32,
    total_len: u64,
}

impl<'a> ChunkedOpener<'a> {
    /// An opener for the same geometry the sealer used.
    pub fn new(
        cipher: &'a AesGcm,
        msg_id: u64,
        base_nonce: [u8; NONCE_LEN],
        total: u32,
        total_len: u64,
    ) -> Self {
        ChunkedOpener {
            cipher,
            msg_id,
            base_nonce,
            total,
            total_len,
        }
    }

    /// Open chunk `index`; fails if the record was tampered with or
    /// belongs to a different position/geometry/message.
    pub fn open_chunk(&self, index: u32, ct_and_tag: &[u8]) -> Result<Vec<u8>> {
        let nonce = derive_chunk_nonce(&self.base_nonce, index);
        let aad = chunk_aad(self.msg_id, index, self.total, self.total_len);
        self.cipher.open(&nonce, &aad, ct_and_tag)
    }

    /// Open chunk `index` in place: `buf` holds the ciphertext on
    /// entry and the plaintext on return (untouched on failure).
    /// Bit-identical to [`Self::open_chunk`] minus the copies.
    pub fn open_chunk_detached(
        &self,
        index: u32,
        buf: &mut [u8],
        tag: &[u8; TAG_LEN],
    ) -> Result<()> {
        let nonce = derive_chunk_nonce(&self.base_nonce, index);
        let aad = chunk_aad(self.msg_id, index, self.total, self.total_len);
        self.cipher.open_detached(&nonce, &aad, buf, tag)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TAG_LEN;

    impl ChunkedSealer<'_> {
        /// Seal chunk `index`: returns `ciphertext ‖ tag`.
        fn seal_chunk(&self, index: u32, plaintext: &[u8]) -> Vec<u8> {
            assert!(index < self.total, "chunk index out of range");
            let nonce = derive_chunk_nonce(&self.base_nonce, index);
            let aad = chunk_aad(self.msg_id, index, self.total, self.total_len);
            self.cipher.seal(&nonce, &aad, plaintext)
        }
    }

    fn cipher() -> AesGcm {
        AesGcm::new(&[0x42u8; 32]).unwrap()
    }

    fn seal_all(c: &AesGcm, msg: &[u8], chunk_size: usize) -> (u32, Vec<Vec<u8>>) {
        let total = chunk_count(msg.len(), chunk_size);
        let sealer = ChunkedSealer::new(c, 77, [9u8; 12], total, msg.len() as u64);
        let chunks = (0..total)
            .map(|i| sealer.seal_chunk(i, &msg[chunk_range(msg.len(), chunk_size, i)]))
            .collect();
        (total, chunks)
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
        let set: std::collections::HashSet<_> =
            (0..1000).map(|i| derive_chunk_nonce(&[3u8; 12], i)).collect();
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
                assert_eq!(undo_chunk_nonce(&derived, i), base, "base {base:?} index {i}");
            }
        }
    }

    #[test]
    fn round_trip_uneven_tail() {
        let c = cipher();
        let msg: Vec<u8> = (0..201u32).map(|i| i as u8).collect(); // 201 % 64 != 0
        let (total, chunks) = seal_all(&c, &msg, 64);
        assert_eq!(total, 4);
        assert_eq!(chunks[3].len(), 9 + TAG_LEN);
        let opener = ChunkedOpener::new(&c, 77, [9u8; 12], total, msg.len() as u64);
        let mut out = Vec::new();
        for (i, ch) in chunks.iter().enumerate() {
            out.extend_from_slice(&opener.open_chunk(i as u32, ch).unwrap());
        }
        assert_eq!(out, msg);
    }

    #[test]
    fn detached_chunk_api_is_bit_identical() {
        let c = cipher();
        let msg: Vec<u8> = (0..201u32).map(|i| (i * 7) as u8).collect();
        let (total, chunks) = seal_all(&c, &msg, 64);
        let sealer = ChunkedSealer::new(&c, 77, [9u8; 12], total, msg.len() as u64);
        let opener = ChunkedOpener::new(&c, 77, [9u8; 12], total, msg.len() as u64);
        for i in 0..total {
            let r = chunk_range(msg.len(), 64, i);
            let mut buf = msg[r].to_vec();
            let tag = sealer.seal_chunk_detached(i, &mut buf);
            let mut wire = buf.clone();
            wire.extend_from_slice(&tag);
            assert_eq!(wire, chunks[i as usize], "chunk {i}");
            // And back, in place.
            opener.open_chunk_detached(i, &mut buf, &tag).unwrap();
            assert_eq!(buf, &msg[chunk_range(msg.len(), 64, i)]);
            // Tampered tag leaves the buffer untouched.
            let mut bad = [0u8; TAG_LEN];
            bad.copy_from_slice(&tag);
            bad[0] ^= 1;
            let snapshot = wire[..wire.len() - TAG_LEN].to_vec();
            let mut ct = snapshot.clone();
            assert!(opener.open_chunk_detached(i, &mut ct, &bad).is_err());
            assert_eq!(ct, snapshot);
        }
    }

    #[test]
    fn wrong_position_geometry_or_message_fails() {
        let c = cipher();
        let msg = vec![7u8; 130];
        let (total, chunks) = seal_all(&c, &msg, 64);
        let opener = ChunkedOpener::new(&c, 77, [9u8; 12], total, msg.len() as u64);
        // Chunk 0 presented as chunk 1: reorder detected.
        assert!(opener.open_chunk(1, &chunks[0]).is_err());
        // Wrong chunk total: truncation/extension detected.
        let bad_total = ChunkedOpener::new(&c, 77, [9u8; 12], total + 1, msg.len() as u64);
        assert!(bad_total.open_chunk(0, &chunks[0]).is_err());
        // Wrong message id: cross-message splice detected.
        let bad_msg = ChunkedOpener::new(&c, 78, [9u8; 12], total, msg.len() as u64);
        assert!(bad_msg.open_chunk(0, &chunks[0]).is_err());
        // Flipped ciphertext bit: plain tamper detected.
        let mut t = chunks[2].clone();
        t[0] ^= 1;
        assert!(opener.open_chunk(2, &t).is_err());
    }
}
