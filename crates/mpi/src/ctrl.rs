//! Control-plane wire frames for the retransmit/recovery (ARQ) layer.
//!
//! The encrypted transport in `empi-core` is NACK-only: a receiver that
//! fails to authenticate (or even parse) a message sends a [`Nack`]
//! back to the sender on [`NACK_TAG`]; the sender answers with a
//! repair message on [`REPAIR_TAG`] whose payload starts with a
//! [`RepairHeader`] naming the (tag, seq) flow it repairs. Success is
//! silent — at fault rate zero the control plane sends no frames at
//! all, which is what keeps the retransmit layer free when the network
//! is healthy.
//!
//! Both tags live above [`crate::RESERVED_TAG_BASE`] with bit 25 set,
//! a region the collective tag minter (bit 24 | op<<16 | seq) can
//! never produce, so control frames cannot cross-match application or
//! collective traffic.
//!
//! Message identity is `(tag, seq)` where `seq` counts messages this
//! sender has addressed to this receiver under this tag. MPI's
//! non-overtaking rule keeps the counters aligned on both sides even
//! when a payload is corrupted beyond parsing — the k-th matching
//! receive is always the k-th matching send.

use crate::types::Tag;

/// Base of the control-frame tag region (bit 25).
pub const CTRL_TAG_BASE: Tag = 1 << 25;
/// Receiver → sender: negative acknowledgement.
pub const NACK_TAG: Tag = CTRL_TAG_BASE | 1;
/// Sender → receiver: repair payload (or abort notice).
pub const REPAIR_TAG: Tag = CTRL_TAG_BASE | 2;
/// Key handshake round 1: commitment frames (`empi-keys`).
pub const KEY_COMMIT_TAG: Tag = CTRL_TAG_BASE | 4;
/// Key handshake round 2: reveal frames.
pub const KEY_REVEAL_TAG: Tag = CTRL_TAG_BASE | 5;
/// Revocation notices.
pub const KEY_REVOKE_TAG: Tag = CTRL_TAG_BASE | 6;
/// Liveness probe (failure detector → suspected rank).
pub const FT_PROBE_TAG: Tag = CTRL_TAG_BASE | 8;
/// Failure notice: a rank that locally confirmed a death broadcasts a
/// [`FtNotice`] to every live peer so knowledge of the failure
/// converges without waiting for each peer's own lease to expire.
pub const FT_NOTICE_TAG: Tag = CTRL_TAG_BASE | 9;
/// Fault-aware agreement: participant → coordinator contributions.
pub const FT_AGREE_TAG: Tag = CTRL_TAG_BASE | 10;
/// Fault-aware agreement: coordinator → participant decided value.
pub const FT_AGREE_RESULT_TAG: Tag = CTRL_TAG_BASE | 11;

const NACK_MAGIC: u32 = 0x4E41_434B; // "NACK"
const REPAIR_MAGIC: u32 = 0x5250_4152; // "RPAR"
const FT_NOTICE_MAGIC: u32 = 0x4654_4E54; // "FTNT"

/// What a receiver asks the sender to do.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Nack {
    /// The whole message failed (auth failure, length violation, or a
    /// payload too mangled to parse): retransmit everything.
    Whole {
        /// Original application tag of the failed message.
        tag: Tag,
        /// Per-(sender, receiver, tag) message sequence number.
        seq: u64,
        /// How many repair attempts the receiver has made so far.
        attempt: u32,
    },
    /// A chunked message arrived with only some frames bad or missing:
    /// retransmit just these chunk indices.
    Chunks {
        /// Original application tag of the failed message.
        tag: Tag,
        /// Per-(sender, receiver, tag) message sequence number.
        seq: u64,
        /// How many repair attempts the receiver has made so far.
        attempt: u32,
        /// Sorted indices of the chunks that failed to open.
        missing: Vec<u32>,
    },
}

impl Nack {
    /// The flow this NACK belongs to: `(tag, seq, attempt)`.
    pub fn flow(&self) -> (Tag, u64, u32) {
        match self {
            Nack::Whole { tag, seq, attempt } => (*tag, *seq, *attempt),
            Nack::Chunks {
                tag, seq, attempt, ..
            } => (*tag, *seq, *attempt),
        }
    }

    /// Serialize to the wire format.
    pub fn encode(&self) -> Vec<u8> {
        let (kind, tag, seq, attempt, missing): (u8, Tag, u64, u32, &[u32]) = match self {
            Nack::Whole { tag, seq, attempt } => (1, *tag, *seq, *attempt, &[]),
            Nack::Chunks {
                tag,
                seq,
                attempt,
                missing,
            } => (2, *tag, *seq, *attempt, missing),
        };
        let mut out = Vec::with_capacity(28 + missing.len() * 4);
        out.extend_from_slice(&NACK_MAGIC.to_be_bytes());
        out.push(kind);
        out.extend_from_slice(&[0u8; 3]);
        out.extend_from_slice(&tag.to_be_bytes());
        out.extend_from_slice(&seq.to_be_bytes());
        out.extend_from_slice(&attempt.to_be_bytes());
        out.extend_from_slice(&(missing.len() as u32).to_be_bytes());
        for &i in missing {
            out.extend_from_slice(&i.to_be_bytes());
        }
        out
    }

    /// Parse a control frame; `None` on any structural violation (a
    /// corrupted NACK is simply dropped — the receiver's timeout will
    /// re-NACK). What it accepts is exactly what [`Nack::encode`]
    /// writes: zero padding, and a count that spans the rest of the
    /// frame (zero for a whole-message NACK).
    pub fn decode(buf: &[u8]) -> Option<Nack> {
        if buf.len() < 28 || buf[0..4] != NACK_MAGIC.to_be_bytes() || buf[5..8] != [0; 3] {
            return None;
        }
        let kind = buf[4];
        let tag = Tag::from_be_bytes(buf[8..12].try_into().ok()?);
        let seq = u64::from_be_bytes(buf[12..20].try_into().ok()?);
        let attempt = u32::from_be_bytes(buf[20..24].try_into().ok()?);
        let count = u32::from_be_bytes(buf[24..28].try_into().ok()?) as usize;
        if count.checked_mul(4) != Some(buf.len() - 28) {
            return None;
        }
        let missing = buf[28..].chunks_exact(4);
        match kind {
            1 if count == 0 => Some(Nack::Whole { tag, seq, attempt }),
            2 => Some(Nack::Chunks {
                tag,
                seq,
                attempt,
                missing: missing
                    .map(|i| u32::from_be_bytes(i.try_into().unwrap()))
                    .collect(),
            }),
            _ => None,
        }
    }
}

/// What kind of repair payload follows a [`RepairHeader`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RepairKind {
    /// Body is one sealed plain frame (nonce ‖ ct ‖ tag).
    Plain,
    /// Body is a train of length-prefixed sealed chunk frames, each
    /// carrying its original chunk header (the receiver merges them
    /// into its partial reassembly by index).
    Chunks,
    /// No body: the sender cannot repair this flow (retransmit buffer
    /// evicted or retry budget exhausted). The receiver stops waiting
    /// and surfaces a typed delivery error.
    Abort,
}

impl RepairKind {
    fn code(self) -> u8 {
        match self {
            RepairKind::Plain => 1,
            RepairKind::Chunks => 2,
            RepairKind::Abort => 3,
        }
    }

    fn from_code(c: u8) -> Option<RepairKind> {
        match c {
            1 => Some(RepairKind::Plain),
            2 => Some(RepairKind::Chunks),
            3 => Some(RepairKind::Abort),
            _ => None,
        }
    }
}

/// Fixed-size header at the front of every repair payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RepairHeader {
    /// Payload layout that follows.
    pub kind: RepairKind,
    /// Original application tag of the flow being repaired.
    pub tag: Tag,
    /// Per-(sender, receiver, tag) message sequence number.
    pub seq: u64,
    /// Echo of the NACK's attempt counter (lets the receiver discard
    /// stale repairs from an earlier round).
    pub attempt: u32,
}

/// Bytes occupied by an encoded [`RepairHeader`].
pub const REPAIR_HEADER_LEN: usize = 24;

impl RepairHeader {
    /// Serialize, then append `body`.
    pub fn encode_with(self, body: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(REPAIR_HEADER_LEN + body.len());
        out.extend_from_slice(&REPAIR_MAGIC.to_be_bytes());
        out.push(self.kind.code());
        out.extend_from_slice(&[0u8; 3]);
        out.extend_from_slice(&self.tag.to_be_bytes());
        out.extend_from_slice(&self.seq.to_be_bytes());
        out.extend_from_slice(&self.attempt.to_be_bytes());
        out.extend_from_slice(body);
        out
    }

    /// Parse the header and return it with the body slice; `None` on
    /// a wrong magic, an unknown kind or non-zero padding.
    pub fn decode(buf: &[u8]) -> Option<(RepairHeader, &[u8])> {
        if buf.len() < REPAIR_HEADER_LEN
            || buf[0..4] != REPAIR_MAGIC.to_be_bytes()
            || buf[5..8] != [0; 3]
        {
            return None;
        }
        let kind = RepairKind::from_code(buf[4])?;
        let tag = Tag::from_be_bytes(buf[8..12].try_into().ok()?);
        let seq = u64::from_be_bytes(buf[12..20].try_into().ok()?);
        let attempt = u32::from_be_bytes(buf[20..24].try_into().ok()?);
        Some((
            RepairHeader {
                kind,
                tag,
                seq,
                attempt,
            },
            &buf[REPAIR_HEADER_LEN..],
        ))
    }
}

/// Wire frame on [`FT_NOTICE_TAG`]: "rank `failed` is confirmed dead".
///
/// Sent by whichever rank first confirms a failure (lease expiry plus,
/// for a wedged peer, the configured missed-probe rounds) to every
/// other live rank. Receivers treat it as equivalent to local
/// confirmation — ULFM's failure-notice propagation — which is what
/// bounds detection latency at one confirmation plus one broadcast
/// instead of N independent lease expiries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FtNotice {
    /// The rank confirmed dead.
    pub failed: u32,
    /// Liveness epoch at the announcing rank *after* registering this
    /// failure (monotonic count of failures it knows of).
    pub epoch: u32,
    /// Virtual time (ns) at which the announcing rank confirmed the
    /// death — feeds the detection-latency histogram at receivers.
    pub confirmed_at: u64,
}

/// Bytes occupied by an encoded [`FtNotice`].
pub const FT_NOTICE_LEN: usize = 20;

impl FtNotice {
    /// Serialize to the wire format.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(FT_NOTICE_LEN);
        out.extend_from_slice(&FT_NOTICE_MAGIC.to_be_bytes());
        out.extend_from_slice(&self.failed.to_be_bytes());
        out.extend_from_slice(&self.epoch.to_be_bytes());
        out.extend_from_slice(&self.confirmed_at.to_be_bytes());
        out
    }

    /// Parse a notice; `None` on any structural violation (a corrupted
    /// notice is dropped — the receiver's own lease still converges).
    pub fn decode(buf: &[u8]) -> Option<FtNotice> {
        if buf.len() != FT_NOTICE_LEN
            || u32::from_be_bytes(buf[0..4].try_into().ok()?) != FT_NOTICE_MAGIC
        {
            return None;
        }
        Some(FtNotice {
            failed: u32::from_be_bytes(buf[4..8].try_into().ok()?),
            epoch: u32::from_be_bytes(buf[8..12].try_into().ok()?),
            confirmed_at: u64::from_be_bytes(buf[12..20].try_into().ok()?),
        })
    }
}

/// Length-prefix a train of sealed chunk frames into one repair body.
pub fn pack_frames<'a>(frames: impl IntoIterator<Item = &'a [u8]>) -> Vec<u8> {
    let mut out = Vec::new();
    for f in frames {
        out.extend_from_slice(&(f.len() as u32).to_be_bytes());
        out.extend_from_slice(f);
    }
    out
}

/// Split a packed repair body back into frames; `None` if the framing
/// is violated.
pub fn unpack_frames(mut body: &[u8]) -> Option<Vec<&[u8]>> {
    let mut out = Vec::new();
    while !body.is_empty() {
        if body.len() < 4 {
            return None;
        }
        let len = u32::from_be_bytes(body[0..4].try_into().ok()?) as usize;
        if body.len() < 4 + len {
            return None;
        }
        out.push(&body[4..4 + len]);
        body = &body[4 + len..];
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ctrl_tags_cannot_collide_with_collective_tags() {
        // reserved_tag = bit24 | op<<16 | seq with op ≤ 255: bit 25 is
        // never set there, always set here.
        assert_eq!(NACK_TAG & (1 << 25), 1 << 25);
        assert_eq!(REPAIR_TAG & (1 << 25), 1 << 25);
        assert_ne!(NACK_TAG, REPAIR_TAG);
        // Key-plane tags share the region without colliding with ARQ.
        let key_tags = [KEY_COMMIT_TAG, KEY_REVEAL_TAG, KEY_REVOKE_TAG];
        for t in key_tags {
            assert_eq!(t & (1 << 25), 1 << 25);
            assert_ne!(t, NACK_TAG);
            assert_ne!(t, REPAIR_TAG);
        }
        assert!(key_tags.windows(2).all(|w| w[0] != w[1]));
        // Fault-tolerance tags live in the same protected region, and
        // the whole ctrl plane stays pairwise distinct.
        let all = [
            NACK_TAG,
            REPAIR_TAG,
            KEY_COMMIT_TAG,
            KEY_REVEAL_TAG,
            KEY_REVOKE_TAG,
            FT_PROBE_TAG,
            FT_NOTICE_TAG,
            FT_AGREE_TAG,
            FT_AGREE_RESULT_TAG,
        ];
        for (i, &a) in all.iter().enumerate() {
            assert_eq!(a & (1 << 25), 1 << 25);
            for &b in &all[i + 1..] {
                assert_ne!(a, b);
            }
        }
        let worst_coll = crate::RESERVED_TAG_BASE | (255 << 16) | 0xffff;
        assert_eq!(worst_coll & (1 << 25), 0);
    }

    #[test]
    fn ft_notice_roundtrip() {
        let n = FtNotice {
            failed: 3,
            epoch: 1,
            confirmed_at: 77_000,
        };
        let wire = n.encode();
        assert_eq!(wire.len(), FT_NOTICE_LEN);
        assert_eq!(FtNotice::decode(&wire), Some(n));
        assert_eq!(FtNotice::decode(&wire[..10]), None);
        let mut bad = wire.clone();
        bad[0] ^= 0xff;
        assert_eq!(FtNotice::decode(&bad), None);
    }

    #[test]
    fn nack_whole_roundtrip() {
        let n = Nack::Whole {
            tag: 7,
            seq: 42,
            attempt: 3,
        };
        let wire = n.encode();
        assert_eq!(Nack::decode(&wire), Some(n));
    }

    #[test]
    fn nack_chunks_roundtrip() {
        let n = Nack::Chunks {
            tag: 9,
            seq: 1,
            attempt: 0,
            missing: vec![0, 3, 17],
        };
        let wire = n.encode();
        assert_eq!(Nack::decode(&wire), Some(n.clone()));
        assert_eq!(n.flow(), (9, 1, 0));
    }

    #[test]
    fn nack_rejects_garbage() {
        assert_eq!(Nack::decode(&[]), None);
        assert_eq!(Nack::decode(&[0u8; 28]), None);
        let mut wire = Nack::Whole {
            tag: 1,
            seq: 2,
            attempt: 0,
        }
        .encode();
        wire[4] = 99; // unknown kind
        assert_eq!(Nack::decode(&wire), None);
        let mut wire = Nack::Chunks {
            tag: 1,
            seq: 2,
            attempt: 0,
            missing: vec![5],
        }
        .encode();
        wire.truncate(wire.len() - 1); // count/body length mismatch
        assert_eq!(Nack::decode(&wire), None);
    }

    #[test]
    fn repair_header_roundtrip_with_body() {
        let h = RepairHeader {
            kind: RepairKind::Plain,
            tag: 5,
            seq: 11,
            attempt: 2,
        };
        let wire = h.encode_with(b"sealed-bytes");
        let (back, body) = RepairHeader::decode(&wire).unwrap();
        assert_eq!(back, h);
        assert_eq!(body, b"sealed-bytes");
        let abort = RepairHeader {
            kind: RepairKind::Abort,
            tag: 5,
            seq: 11,
            attempt: 2,
        };
        let wire = abort.encode_with(&[]);
        let (back, body) = RepairHeader::decode(&wire).unwrap();
        assert_eq!(back.kind, RepairKind::Abort);
        assert!(body.is_empty());
    }

    #[test]
    fn frame_packing_roundtrip() {
        let frames: Vec<&[u8]> = vec![b"abc", b"", b"defgh"];
        let body = pack_frames(frames.iter().copied());
        assert_eq!(unpack_frames(&body), Some(frames));
        assert_eq!(unpack_frames(&[0, 0]), None); // short length prefix
        assert_eq!(unpack_frames(&[0, 0, 0, 9, 1]), None); // short body
    }

    /// The two second spellings `ctrl_and_key_decoders_are_total`
    /// (tests/proptest_decoders.rs) found, at seeds 0x9dc08813a34c83f4
    /// and 0x9dc08a71a34c83f4: a whole-message NACK with trailing
    /// bytes, and a repair header with non-zero padding. Both decoded
    /// to a value whose encoding is other bytes.
    #[test]
    fn a_frame_has_one_spelling() {
        let whole = Nack::Whole {
            tag: 7,
            seq: 9,
            attempt: 1,
        };
        assert_eq!(Nack::decode(&whole.encode()), Some(whole.clone()));
        let mut trailing = whole.encode();
        trailing.extend_from_slice(&[0xdc, 0x7c, 0xd5]);
        assert_eq!(Nack::decode(&trailing), None);
        let mut counted = whole.encode();
        counted[27] = 1;
        counted.extend_from_slice(&[0; 4]);
        assert_eq!(
            Nack::decode(&counted),
            None,
            "a whole-message NACK lists no chunks"
        );

        let hdr = RepairHeader {
            kind: RepairKind::Chunks,
            tag: 3,
            seq: 4,
            attempt: 5,
        };
        let mut padded = hdr.encode_with(b"body");
        assert_eq!(RepairHeader::decode(&padded), Some((hdr, &b"body"[..])));
        padded[7] = 0x80;
        assert_eq!(RepairHeader::decode(&padded), None);
    }
}
