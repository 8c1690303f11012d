//! The transport side of the pipelined encrypted path: a chunked
//! message travels as a train of frames, each its own AEAD record,
//! posted and delivered with per-frame timing.
//!
//! This module carries frames as opaque bytes: it never reads a frame
//! header and never touches keys. The frame layout (header, nonce,
//! tag), its authentication and its reassembly belong to
//! `empi-pipeline` (`empi_pipeline::frame`).

use bytes::Bytes;

use crate::types::Tag;
use empi_netsim::VTime;

/// One sealed chunk, in either direction, with the virtual time it is
/// available at this end: sealed (its seal's completion on a worker
/// core, before which its wire transfer cannot start), or arrived.
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

/// One received chunked message: its raw frames, each with its arrival
/// time, in transmission order.
#[derive(Debug)]
pub struct ChunkedMessage {
    pub src: usize,
    pub tag: Tag,
    pub frames: Vec<ChunkFrame>,
}

impl ChunkedMessage {
    /// Total wire bytes across all frames.
    pub fn wire_bytes(&self) -> usize {
        self.frames.iter().map(|f| f.data.len()).sum()
    }

    /// Concatenate the raw frame bytes, in transmission order, into one
    /// contiguous buffer. Framing stays intact (headers, nonces, and
    /// auth tags are preserved — this never decrypts); a single-frame
    /// train moves its buffer out without copying. This is how the
    /// byte-level waits hand a chunked train to callers that asked for
    /// plain bytes: always well-defined, so no wait path needs to fail
    /// on a valid peer wire format.
    fn into_contiguous(mut self) -> Bytes {
        if self.frames.len() == 1 {
            return self.frames.pop().unwrap().data;
        }
        let mut out = Vec::with_capacity(self.wire_bytes());
        for f in &self.frames {
            out.extend_from_slice(&f.data);
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
