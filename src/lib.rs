//! # empi — encrypted MPI study facade
//!
//! Re-exports the workspace crates under one roof so examples and
//! downstream users can depend on a single crate:
//!
//! * [`aead`] — from-scratch AES-GCM and the four library profiles.
//! * [`netsim`] — the virtual-time cluster simulator and fabric models.
//! * [`mpi`] — the MPI runtime (point-to-point + collectives).
//! * [`pipeline`] — chunked multi-core crypto offload (CryptMPI-style).
//! * [`secure`] — encrypted MPI, the paper's contribution.
//! * [`nas`] — NAS parallel benchmark kernels.
//! * [`bench`] — statistics and table harness utilities.
//! * [`trace`] — the one observability plane: the recorder, its
//!   `TraceReport` (overhead decomposition, Chrome traces) and
//!   `MetricsSnapshot` (latency histograms, black boxes, SLO verdict),
//!   and their exporters.

pub use empi_aead as aead;
pub use empi_bench as bench;
pub use empi_core as secure;
pub use empi_mpi as mpi;
pub use empi_nas as nas;
pub use empi_netsim as netsim;
pub use empi_pipeline as pipeline;
pub use empi_trace as trace;
