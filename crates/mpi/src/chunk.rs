//! Chunked wire framing and reassembly for the pipelined encrypted
//! path (`empi-pipeline`).
//!
//! Each chunk travels as one frame:
//!
//! ```text
//! header(24) ‖ nonce(12) ‖ ciphertext ‖ tag(16)
//! ```
//!
//! where the header is `msg_id(8) ‖ index(4) ‖ total(4) ‖ total_len(8)`
//! big-endian. The header is *not* confidential (message sizes are
//! visible on any wire) but it is authenticated: the crypto layer binds
//! the same fields into each record's AAD, so a frame whose header was
//! altered fails to open. This module only frames and reassembles —
//! it never touches keys.

use bytes::Bytes;

use crate::types::Tag;
use empi_netsim::VTime;

/// Encoded frame-header length in bytes.
pub const FRAME_HEADER_LEN: usize = 24;
/// Nonce length carried per frame (mirrors `empi_aead::NONCE_LEN`).
pub const FRAME_NONCE_LEN: usize = 12;
/// GCM tag length per frame (mirrors `empi_aead::TAG_LEN`).
pub const FRAME_TAG_LEN: usize = 16;
/// Total wire overhead per chunk: header + nonce + tag.
pub const FRAME_OVERHEAD: usize = FRAME_HEADER_LEN + FRAME_NONCE_LEN + FRAME_TAG_LEN;

/// Parsed frame header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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
    /// Serialize to the 24-byte wire form.
    pub fn encode(&self) -> [u8; FRAME_HEADER_LEN] {
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
    /// `finish` called with indices still missing.
    MissingChunks { have: u32, total: u32 },
    /// Declared `total` of zero (every message has at least one chunk).
    EmptyMessage,
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
        }
    }
}

impl std::error::Error for ChunkError {}

/// Reassembles one chunked message from its frames, validating the
/// header invariants (consistent id/geometry, each index exactly once).
pub struct Reassembly {
    msg_id: u64,
    total: u32,
    total_len: u64,
    slots: Vec<Option<Bytes>>,
    have: u32,
}

impl Reassembly {
    /// Start reassembly from the first frame header seen.
    pub fn new(first: &FrameHeader) -> Result<Self, ChunkError> {
        if first.total == 0 {
            return Err(ChunkError::EmptyMessage);
        }
        Ok(Reassembly {
            msg_id: first.msg_id,
            total: first.total,
            total_len: first.total_len,
            slots: vec![None; first.total as usize],
            have: 0,
        })
    }

    /// Accept one frame's header and body (`nonce ‖ ct ‖ tag`).
    pub fn accept(&mut self, h: &FrameHeader, body: Bytes) -> Result<(), ChunkError> {
        if h.msg_id != self.msg_id {
            return Err(ChunkError::MsgIdMismatch {
                expect: self.msg_id,
                got: h.msg_id,
            });
        }
        if h.total != self.total || h.total_len != self.total_len {
            return Err(ChunkError::GeometryMismatch);
        }
        if h.index >= self.total {
            return Err(ChunkError::IndexOutOfRange {
                index: h.index,
                total: self.total,
            });
        }
        let slot = &mut self.slots[h.index as usize];
        if slot.is_some() {
            return Err(ChunkError::DuplicateChunk { index: h.index });
        }
        *slot = Some(body);
        self.have += 1;
        Ok(())
    }

    /// Message id all accepted frames agreed on.
    pub fn msg_id(&self) -> u64 {
        self.msg_id
    }

    /// Chunk count of the message.
    pub fn total(&self) -> u32 {
        self.total
    }

    /// Declared plaintext length of the message.
    pub fn total_len(&self) -> u64 {
        self.total_len
    }

    /// Finish: every index present exactly once, bodies in chunk order.
    pub fn finish(self) -> Result<Vec<Bytes>, ChunkError> {
        if self.have != self.total {
            return Err(ChunkError::MissingChunks {
                have: self.have,
                total: self.total,
            });
        }
        Ok(self.slots.into_iter().map(|s| s.unwrap()).collect())
    }
}

/// One sealed chunk handed to the transport, with the virtual time its
/// ciphertext becomes available (its seal's completion on a worker
/// core) — the wire transfer of this frame cannot start earlier.
#[derive(Debug, Clone)]
pub struct ChunkFrame {
    pub data: Bytes,
    pub ready: VTime,
}

/// What a send hands to the transport, by wire format: one contiguous
/// buffer, or a train of independently sealed frames (see
/// `empi-pipeline`). The transport owns the payload as-is — no
/// defensive copy.
#[derive(Debug)]
pub enum SendPayload {
    Plain(Bytes),
    Chunked(Vec<ChunkFrame>),
}

impl SendPayload {
    /// Total wire bytes (all frames of a chunked train).
    pub fn wire_bytes(&self) -> usize {
        match self {
            SendPayload::Plain(data) => data.len(),
            SendPayload::Chunked(frames) => frames.iter().map(|f| f.data.len()).sum(),
        }
    }
}

/// One received chunked message: per-frame arrival times and raw frame
/// bytes, in transmission order.
#[derive(Debug)]
pub struct ChunkedMessage {
    pub src: usize,
    pub tag: Tag,
    pub frames: Vec<(VTime, Bytes)>,
}

impl ChunkedMessage {
    /// Total wire bytes across all frames.
    pub fn wire_bytes(&self) -> usize {
        self.frames.iter().map(|(_, f)| f.len()).sum()
    }

    /// Concatenate the raw frame bytes, in transmission order, into one
    /// contiguous buffer. Framing stays intact (headers, nonces, and
    /// auth tags are preserved — this never decrypts); a single-frame
    /// train moves its buffer out without copying. This is how the
    /// byte-level waits hand a chunked train to callers that asked for
    /// plain bytes: always well-defined, so no wait path needs to fail
    /// on a valid peer wire format.
    pub fn into_contiguous(mut self) -> Bytes {
        if self.frames.len() == 1 {
            return self.frames.pop().unwrap().1;
        }
        let mut out = Vec::with_capacity(self.wire_bytes());
        for (_, f) in &self.frames {
            out.extend_from_slice(f);
        }
        Bytes::from(out)
    }
}

/// What a protocol-agnostic receive produced: either an ordinary
/// message or a chunked (pipelined) one.
#[derive(Debug)]
pub enum RecvPayload {
    Plain(crate::types::Status, Bytes),
    Chunked(ChunkedMessage),
}

impl RecvPayload {
    /// Collapse either wire format into contiguous bytes: a plain
    /// message yields its buffer as-is, a chunked train is assembled in
    /// transmission order with framing intact (see
    /// [`ChunkedMessage::into_contiguous`]). Per-frame arrival times are
    /// dropped — callers that overlap decryption with reception keep
    /// the `RecvPayload` instead.
    pub fn into_bytes(self) -> Bytes {
        match self {
            RecvPayload::Plain(_, data) => data,
            RecvPayload::Chunked(msg) => msg.into_contiguous(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hdr(index: u32) -> FrameHeader {
        FrameHeader {
            msg_id: 0xABCD,
            index,
            total: 3,
            total_len: 150,
        }
    }

    #[test]
    fn header_round_trip() {
        let h = hdr(2);
        let mut frame = h.encode().to_vec();
        frame.extend_from_slice(&[0u8; FRAME_NONCE_LEN + FRAME_TAG_LEN]);
        frame.extend_from_slice(b"ciphertext");
        let (parsed, body) = FrameHeader::decode(&frame).unwrap();
        assert_eq!(parsed, h);
        assert_eq!(body.len(), FRAME_NONCE_LEN + FRAME_TAG_LEN + 10);
        assert!(matches!(
            FrameHeader::decode(&frame[..FRAME_OVERHEAD - 1]),
            Err(ChunkError::FrameTooShort { .. })
        ));
    }

    #[test]
    fn reassembly_accepts_any_order_once() {
        let mut r = Reassembly::new(&hdr(1)).unwrap();
        for i in [1u32, 0, 2] {
            r.accept(&hdr(i), Bytes::from(vec![i as u8])).unwrap();
        }
        let bodies = r.finish().unwrap();
        assert_eq!(
            bodies.iter().map(|b| b[0]).collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
    }

    #[test]
    fn reassembly_rejects_protocol_violations() {
        let mut r = Reassembly::new(&hdr(0)).unwrap();
        r.accept(&hdr(0), Bytes::new()).unwrap();
        // Duplicate.
        assert_eq!(
            r.accept(&hdr(0), Bytes::new()),
            Err(ChunkError::DuplicateChunk { index: 0 })
        );
        // Wrong message id.
        let mut alien = hdr(1);
        alien.msg_id = 0xDEAD;
        assert!(matches!(
            r.accept(&alien, Bytes::new()),
            Err(ChunkError::MsgIdMismatch { .. })
        ));
        // Wrong geometry.
        let mut warped = hdr(1);
        warped.total_len = 151;
        assert_eq!(
            r.accept(&warped, Bytes::new()),
            Err(ChunkError::GeometryMismatch)
        );
        // Out-of-range index.
        let mut big = hdr(0);
        big.index = 3;
        assert!(matches!(
            r.accept(&big, Bytes::new()),
            Err(ChunkError::IndexOutOfRange { .. })
        ));
        // Dropped chunk: finishing early fails.
        assert_eq!(
            r.finish().err(),
            Some(ChunkError::MissingChunks { have: 1, total: 3 })
        );
    }
}
