//! # empi-netsim — virtual-time cluster simulator
//!
//! The paper's experiments ran on an 8-node Xeon cluster with 10 GbE and
//! 40 Gb InfiniBand QDR NICs. This crate substitutes for that hardware
//! (DESIGN.md §2) with:
//!
//! * [`engine`] — a conservative discrete-event engine where each
//!   simulated rank is a stackful coroutine running real code, scheduled
//!   one at a time in minimum-virtual-clock order; handing the token to
//!   another rank is a user-space stack switch, and `shards` carrier
//!   threads run the coroutines. Real computations (the
//!   actual AES-GCM work, the actual NAS kernels) execute; what they
//!   cost in virtual time comes from calibrated models, never from the
//!   host clock.
//! * [`fabric`] — the interconnect model: calibrated curves for wire
//!   bandwidth, blocking ping-pong time, and streaming occupancy; per-NIC
//!   busy timelines for flow sharing; message-rate floors and a
//!   flow-contention penalty (the InfiniBand 8-pair throttle).
//! * [`topology`] — rank-to-node placement (block / round-robin).
//!
//! ```
//! use empi_netsim::{Engine, VDur};
//!
//! let out = Engine::new(4).run(|h| {
//!     h.advance(VDur::from_micros(10 * (h.rank() as u64 + 1)));
//!     h.now().as_micros_f64()
//! });
//! assert_eq!(out.results, vec![10.0, 20.0, 30.0, 40.0]);
//! assert_eq!(out.end_time.as_micros_f64(), 40.0);
//! ```

pub mod cores;
pub mod curve;
pub mod engine;
pub mod fabric;
pub mod fault;
mod fiber;
pub mod time;
pub mod topology;

pub use cores::{CorePool, CoreSlot};
pub use curve::Curve;
pub use empi_pool::{BufferPool, PooledBuf};
pub use empi_trace::{MetricsSnapshot, Recorder, SloConfig, TraceReport};
pub use engine::{Engine, FtOutcome, RankDiag, RunOutcome, SimError, SimHandle};
pub use fabric::{Fabric, FabricStats, NetModel};
pub use fault::{CrashEvent, CrashKind, CrashPlan, FaultPlan, FaultRates, Verdict};
pub use time::{Schedule, VDur, VTime};
pub use topology::Topology;
