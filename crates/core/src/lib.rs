//! # empi-core — MPI with encrypted communication
//!
//! The paper's primary contribution, rebuilt in Rust: MPI point-to-point
//! and collective communication protected with AES-GCM for *provable
//! privacy and integrity* (unlike the ECB/OTP/CBC-checksum designs it
//! surveys — those live in [`legacy`], clearly fenced off, purely as
//! executable counter-examples).
//!
//! * [`SecureComm`] wraps a plain [`empi_mpi::Comm`] and exposes
//!   `Encrypted_{Send, Recv, ISend, IRecv, Wait, Waitall, Bcast,
//!   Allgather, Alltoall, Alltoallv}` — the exact routine set of §IV.
//! * [`SecurityConfig`] selects the backing cryptographic library
//!   (OpenSSL / BoringSSL / Libsodium / CryptoPP profiles), key size,
//!   nonce policy, and timing model.
//! * Wire format per message: `nonce(12) ‖ ciphertext ‖ tag(16)` —
//!   the paper's 28-byte overhead.
//!
//! ```
//! use empi_core::{SecureComm, SecurityConfig};
//! use empi_aead::CryptoLibrary;
//! use empi_mpi::{World, Src, TagSel};
//! use empi_netsim::NetModel;
//!
//! let world = World::flat(NetModel::ethernet_10g(), 2);
//! let out = world.run(|c| {
//!     let sc = SecureComm::new(c, SecurityConfig::new(CryptoLibrary::BoringSsl)).unwrap();
//!     if c.rank() == 0 {
//!         sc.send(b"medical records", 1, 0);
//!         String::new()
//!     } else {
//!         let (_, data) = sc.recv(Src::Is(0), TagSel::Is(0)).unwrap();
//!         String::from_utf8(data).unwrap()
//!     }
//! });
//! assert_eq!(out.results[1], "medical records");
//! ```

pub mod config;
pub mod error;
pub mod legacy;
mod recovery;
pub mod secure_comm;

pub use config::{FaultConfig, RetransmitConfig, SecurityConfig, TimingMode, HARDCODED_KEY};
pub use empi_keys::{KeyError, KeyPlaneConfig, KeyStats};
pub use empi_netsim::{FaultPlan, FaultRates};
pub use empi_pipeline::PipelineConfig;
pub use error::{Error, Result};
pub use secure_comm::{ChaosStats, SecureComm, SecureRequest, SetCompletion};
