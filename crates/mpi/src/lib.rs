//! # empi-mpi — an MPI runtime on the virtual-time cluster simulator
//!
//! Implements the MPI subset the paper's benchmarks need — and that its
//! encrypted library wraps — on top of `empi-netsim`:
//!
//! * Point-to-point: blocking [`Comm::send`]/[`Comm::recv`]
//!   (`MPI_Send`/`MPI_Recv`), non-blocking [`Comm::isend`]/[`Comm::irecv`]
//!   with [`Comm::wait`]/[`Comm::waitall`]/[`Comm::waitsome`],
//!   `MPI_ANY_SOURCE`/`ANY_TAG` matching, eager and rendezvous
//!   protocols.
//! * Collectives with MPICH's algorithm switches: binomial/van-de-Geijn
//!   broadcast, recursive-doubling allreduce/allgather, ring allgather,
//!   Bruck/pairwise alltoall, pairwise alltoallv, dissemination barrier.
//!
//! ```
//! use empi_mpi::{World, Src, TagSel};
//! use empi_netsim::NetModel;
//!
//! let world = World::flat(NetModel::ethernet_10g(), 2);
//! let out = world.run(|c| {
//!     if c.rank() == 0 {
//!         c.send(b"ping", 1, 0);
//!         c.recv(Src::Is(1), TagSel::Is(0)).1.len()
//!     } else {
//!         let (_, msg) = c.recv(Src::Is(0), TagSel::Is(0));
//!         c.send(&msg, 0, 0);
//!         msg.len()
//!     }
//! });
//! assert_eq!(out.results, vec![4, 4]);
//! // One round trip of a 4-byte message on the calibrated 10GbE fabric.
//! assert!(out.end_time.as_micros_f64() > 30.0);
//! ```

pub mod chunk;
pub mod coll;
pub mod comm;
pub mod ctrl;
pub mod ftol;
mod state;
pub mod types;
pub mod world;

pub use chunk::{
    ChunkError, ChunkFrame, ChunkedMessage, FrameHeader, Reassembly, RecvPayload, SendPayload,
    FRAME_HEADER_LEN, FRAME_NONCE_LEN, FRAME_OVERHEAD, FRAME_TAG_LEN,
};
pub use coll::ops;
pub use comm::{Charge, Comm, Request, SetPoll};
pub use ctrl::{
    FtNotice, Nack, RepairHeader, RepairKind, CTRL_TAG_BASE, FT_AGREE_RESULT_TAG, FT_AGREE_TAG,
    FT_NOTICE_TAG, FT_PROBE_TAG, KEY_COMMIT_TAG, KEY_REVEAL_TAG, KEY_REVOKE_TAG, NACK_TAG,
    REPAIR_TAG,
};
pub use empi_netsim::{
    CrashEvent, CrashKind, CrashPlan, MetricsSnapshot, RankDiag, Recorder, SimError, SloConfig,
    TraceReport,
};
pub use ftol::{DetectorConfig, RankFailed, ShrunkComm};
pub use types::{
    as_bytes, copy_from_bytes, vec_from_bytes, Pod, Src, Status, Tag, TagSel, RESERVED_TAG_BASE,
};
pub use world::{FtWorldOutcome, World, WorldOutcome};
