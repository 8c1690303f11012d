//! The plain record: the one wire format of the sequential path, and
//! the only code that knows its layout.
//!
//! Legacy records are the paper's Algorithm 1, `nonce(12) ‖ ct ‖
//! tag(16)`. Once the key plane is on, plain records grow an 8-byte
//! big-endian epoch prefix — `epoch(8) ‖ nonce(12) ‖ ct ‖ tag(16)` —
//! and the prefix doubles as the record's AAD, so flipping it (epoch
//! splice) or stripping it (downgrade to the legacy format) fails
//! authentication rather than decrypting under the wrong key. Chunked
//! messages don't grow at all: the epoch rides the top 16 bits of the
//! message id, which the chunk layer already binds into every frame's
//! AAD.
//!
//! [`seal_into`] writes a record, [`Record::parse`] locates one in its
//! wire bytes, and [`Record::open_into`] or [`Record::open_front`]
//! authenticates and decrypts it; [`overhead`] is what a record adds to
//! its plaintext. Each is one pass of the AES-GCM kernel from where the
//! bytes are to where they go: the plaintext is sealed straight into
//! the record, and the ciphertext opens into the caller's place or to
//! the front of its own wire buffer, never copied first.

use std::mem::MaybeUninit;
use std::ops::Range;

use empi_aead::{AesGcm, Error as AeadError, NONCE_LEN, TAG_LEN, WIRE_OVERHEAD};

/// Bytes of epoch prefix on an epoch-qualified plain record.
const EPOCH_PREFIX_LEN: usize = 8;

/// Wire bytes a plain record adds to its plaintext: the paper's 28,
/// plus the epoch prefix when the record is epoch-qualified.
pub fn overhead(epoch_qualified: bool) -> usize {
    WIRE_OVERHEAD + if epoch_qualified { EPOCH_PREFIX_LEN } else { 0 }
}

/// The AAD of a record: the epoch prefix itself, or nothing.
fn epoch_aad(prefix: &Option<[u8; EPOCH_PREFIX_LEN]>) -> &[u8] {
    prefix.as_ref().map_or(&[], |p| &p[..])
}

/// The one seal: append the record of `plaintext` — `[epoch ‖] nonce ‖
/// ct ‖ tag`, AAD = the epoch prefix — onto `out`, encrypting
/// `plaintext` straight into its wire position. `epoch: None` writes the
/// legacy prefix-free format.
pub fn seal_into(
    cipher: &AesGcm,
    epoch: Option<u64>,
    nonce: &[u8; NONCE_LEN],
    plaintext: &[u8],
    out: &mut Vec<u8>,
) {
    let prefix = epoch.map(u64::to_be_bytes);
    let aad = epoch_aad(&prefix);
    out.extend_from_slice(aad);
    out.extend_from_slice(nonce);
    out.reserve(plaintext.len() + TAG_LEN);
    let body = out.len();
    let ct = &mut out.spare_capacity_mut()[..plaintext.len()];
    let tag = cipher.seal_to(nonce, aad, plaintext, ct);
    // SAFETY: `seal_to` wrote every byte of the ciphertext.
    unsafe { out.set_len(body + plaintext.len()) };
    out.extend_from_slice(&tag);
}

/// A plain record located in its wire bytes: the epoch it is qualified
/// with (`None` = legacy format), its nonce and tag, and where its
/// ciphertext lies. Parsing copies no ciphertext and allocates nothing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Record {
    pub epoch: Option<u64>,
    pub nonce: [u8; NONCE_LEN],
    pub tag: [u8; TAG_LEN],
    /// The ciphertext's range in the wire bytes.
    pub body: Range<usize>,
}

impl Record {
    /// Locate the record in `wire`, which must hold the 8-byte epoch
    /// prefix when `epoch_qualified`; total on any input.
    pub fn parse(wire: &[u8], epoch_qualified: bool) -> Result<Record, AeadError> {
        let skip = overhead(epoch_qualified) - WIRE_OVERHEAD;
        if wire.len() < skip + WIRE_OVERHEAD {
            return Err(AeadError::CiphertextTooShort { got: wire.len() });
        }
        let (prefix, rest) = wire.split_at(skip);
        let (nonce, rest) = rest.split_first_chunk().expect("length checked");
        let (_, tag) = rest.split_last_chunk().expect("length checked");
        Ok(Record {
            epoch: epoch_qualified.then(|| u64::from_be_bytes(prefix.try_into().unwrap())),
            nonce: *nonce,
            tag: *tag,
            body: skip + NONCE_LEN..wire.len() - TAG_LEN,
        })
    }

    /// The one open, into a place of the caller's: authenticate this
    /// record's ciphertext in `wire`, the bytes it was parsed from, under
    /// `cipher` and the epoch prefix as AAD, and decrypt it into `dst`,
    /// which holds exactly `body.len()` bytes. Every byte of `dst` is
    /// written; on failure they are zeros.
    pub fn open_into(
        &self,
        cipher: &AesGcm,
        wire: &[u8],
        dst: &mut [MaybeUninit<u8>],
    ) -> Result<(), AeadError> {
        let prefix = self.epoch.map(u64::to_be_bytes);
        let ct = &wire[self.body.clone()];
        cipher.open_to(&self.nonce, epoch_aad(&prefix), ct, dst, &self.tag)
    }

    /// The same open to the front of `wire` itself: the plaintext lands
    /// in `wire[..body.len()]`, over the framing, so the caller only
    /// truncates. On failure the ciphertext is left where it was.
    pub fn open_front(&self, cipher: &AesGcm, wire: &mut [u8]) -> Result<(), AeadError> {
        let prefix = self.epoch.map(u64::to_be_bytes);
        let buf = &mut wire[..self.body.end];
        cipher.open_to_front(
            &self.nonce,
            epoch_aad(&prefix),
            buf,
            self.body.start,
            &self.tag,
        )
    }
}

/// Bit position of the epoch field inside a chunked message id:
/// `msg_id = (epoch & 0xFFFF) << 48 | (rank & 0xFFFF) << 32 | seq`.
pub const EPOCH_MSG_ID_SHIFT: u32 = 48;

/// Fold `epoch` into the top 16 bits of a chunked message id. The id's
/// own layout (`rank << 32 | seq`) leaves those bits zero until a rank
/// has issued 2^16 sequence windows, which the simulator never does.
pub fn embed_epoch_msg_id(epoch: u64, msg_id: u64) -> u64 {
    ((epoch & 0xFFFF) << EPOCH_MSG_ID_SHIFT) | (msg_id & ((1u64 << EPOCH_MSG_ID_SHIFT) - 1))
}

/// Recover the epoch from a chunked message id's top 16 bits.
pub fn msg_id_epoch(msg_id: u64) -> u64 {
    msg_id >> EPOCH_MSG_ID_SHIFT
}

/// Widen a 16-bit wire epoch (from a chunked message id) back to the
/// full 64-bit epoch, picking the candidate congruent to `wire` mod
/// 2^16 that lies closest to the receiver's `local` epoch. Unambiguous
/// whenever the true sender/receiver skew is under 2^15 epochs — far
/// beyond any drain window the plane accepts.
pub fn widen_epoch16(wire: u64, local: u64) -> u64 {
    let wire = wire & 0xFFFF;
    let base = local & !0xFFFF;
    [
        base.checked_sub(0x1_0000).map(|b| b | wire),
        Some(base | wire),
        base.checked_add(0x1_0000).map(|b| b | wire),
    ]
    .into_iter()
    .flatten()
    .min_by_key(|&c| c.abs_diff(local))
    .expect("candidate list is never empty")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cipher(byte: u8) -> AesGcm {
        AesGcm::new(&[byte; 32]).unwrap()
    }

    fn seal(c: &AesGcm, epoch: Option<u64>, nonce: [u8; NONCE_LEN], pt: &[u8]) -> Vec<u8> {
        let mut wire = Vec::new();
        seal_into(c, epoch, &nonce, pt, &mut wire);
        wire
    }

    /// Parse and open `wire` as the record layer opens an owned wire
    /// buffer, checking that the open into a separate place agrees.
    fn open(c: &AesGcm, wire: &[u8], epoch_qualified: bool) -> Result<Vec<u8>, AeadError> {
        let rec = Record::parse(wire, epoch_qualified).expect("a record");
        let mut apart = Vec::with_capacity(rec.body.len());
        let r = rec.open_into(c, wire, &mut apart.spare_capacity_mut()[..rec.body.len()]);
        let mut front = wire.to_vec();
        assert_eq!(rec.open_front(c, &mut front), r, "the two opens disagree");
        r?;
        front.truncate(rec.body.len());
        // SAFETY: the open succeeded and wrote every byte.
        unsafe { apart.set_len(rec.body.len()) };
        assert_eq!(apart, front, "the two opens disagree");
        Ok(front)
    }

    #[test]
    fn record_round_trips_and_carries_epoch() {
        let c = cipher(1);
        let wire = seal(&c, Some(42), [9; NONCE_LEN], b"hello");
        assert_eq!(wire.len(), 5 + overhead(true));
        let rec = Record::parse(&wire, true).unwrap();
        assert_eq!(rec.epoch, Some(42));
        assert_eq!(rec.nonce, [9; NONCE_LEN]);
        assert_eq!(rec.body, EPOCH_PREFIX_LEN + NONCE_LEN..wire.len() - TAG_LEN);
        assert_eq!(open(&c, &wire, true).unwrap(), b"hello");

        let legacy = seal(&c, None, [9; NONCE_LEN], b"hello");
        assert_eq!(legacy.len(), 5 + overhead(false));
        // The two formats differ by the prefix and, through the AAD,
        // the tag.
        let untagged = legacy.len() - TAG_LEN;
        assert_eq!(legacy[..untagged], wire[EPOCH_PREFIX_LEN..][..untagged]);
        assert_eq!(Record::parse(&legacy, false).unwrap().epoch, None);
        assert_eq!(open(&c, &legacy, false).unwrap(), b"hello");
    }

    #[test]
    fn epoch_splice_fails_authentication() {
        let c = cipher(1);
        let mut wire = seal(&c, Some(3), [9; NONCE_LEN], b"payload");
        // Rewrite the epoch prefix without re-sealing: the AAD no
        // longer matches the tag.
        wire[..EPOCH_PREFIX_LEN].copy_from_slice(&7u64.to_be_bytes());
        assert!(open(&c, &wire, true).is_err(), "spliced epoch must fail");
    }

    #[test]
    fn downgrade_strip_is_typed_or_fails_auth() {
        let c = cipher(1);
        let wire = seal(&c, Some(3), [9; NONCE_LEN], b"p");
        // Stripping the prefix yields a structurally-valid legacy
        // record, but one whose tag was computed with AAD — opening it
        // AAD-free under any key must fail; and a runt can't even be
        // parsed as epoch-qualified.
        let stripped = &wire[EPOCH_PREFIX_LEN..];
        assert!(
            open(&c, stripped, false).is_err(),
            "stripped record fails auth"
        );
        let runt = overhead(true) - 1;
        let too_short = Err(AeadError::CiphertextTooShort { got: runt });
        assert_eq!(Record::parse(&wire[..runt], true), too_short);
    }

    #[test]
    fn wrong_epoch_key_fails() {
        let c3 = cipher(3);
        let c4 = cipher(4);
        let wire = seal(&c3, Some(5), [0; NONCE_LEN], b"x");
        assert!(open(&c4, &wire, true).is_err());
    }

    #[test]
    fn msg_id_embedding_round_trips() {
        let msg_id = (7u64 << 32) | 12345; // rank 7, seq 12345
        let tagged = embed_epoch_msg_id(9, msg_id);
        assert_eq!(msg_id_epoch(tagged), 9);
        assert_eq!(tagged & ((1 << EPOCH_MSG_ID_SHIFT) - 1), msg_id);
        assert_eq!(embed_epoch_msg_id(0, msg_id), msg_id, "epoch 0 is identity");
        assert_eq!(msg_id_epoch(msg_id), 0, "legacy ids read as epoch 0");
    }

    #[test]
    fn widening_tracks_the_local_epoch() {
        assert_eq!(widen_epoch16(5, 5), 5);
        assert_eq!(widen_epoch16(4, 5), 4, "drain-window straggler");
        assert_eq!(widen_epoch16(6, 5), 6, "skewed-ahead peer");
        // Around a 2^16 boundary the congruent candidate nearest to
        // local wins, in both directions.
        assert_eq!(widen_epoch16(0xFFFF, 0x1_0000), 0xFFFF);
        assert_eq!(widen_epoch16(0, 0xFFFF), 0x1_0000);
        assert_eq!(widen_epoch16(1, 0x2_FFFE), 0x3_0001);
        // Saturation at zero: no negative candidates.
        assert_eq!(widen_epoch16(3, 0), 3);
    }
}
