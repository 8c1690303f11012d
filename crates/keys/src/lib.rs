//! # empi-keys — in-band key lifecycle for encrypted MPI
//!
//! The paper hardcodes one cluster-wide key and explicitly defers key
//! distribution to future work; the vulnerability study it cites
//! (arXiv:2107.04940) shows most crypto-library CVEs are key/nonce
//! *management* bugs, not primitive breaks. This crate is the
//! management plane the paper skipped, built deterministic and in
//! virtual time so every run replays bit-exact:
//!
//! * [`suite`] — the scuttlebutt-style primitive kit: an AES-CTR
//!   deterministic RNG from one fixed-key AES permutation, and a
//!   commit/reveal coin-toss.
//! * [`handshake`] — a seeded group key agreement run at `World`
//!   startup over the ctrl-plane tag channel: every rank commits to a
//!   seeded contribution, reveals, verifies all commitments, and folds
//!   the contributions with the bootstrap key into a fresh *session
//!   master*. The hardcoded cluster key is demoted to a bootstrap KEK
//!   that only ever protects handshake frames.
//! * [`kdf`] — the one canonical key-derivation path: the per-epoch
//!   *group* key, and the toy pair-subkey KDF (DESIGN.md §7).
//! * [`epoch`]/[`plane`] — epoch rotation on a virtual-time
//!   [`empi_netsim::Schedule`] (no wire synchronization: each rank
//!   derives the epoch from its own clock, and a drain window absorbs
//!   the skew), plus revocation that re-keys the surviving group.
//! * [`record`] — the epoch-qualified wire format: plain records grow
//!   an authenticated 8-byte epoch prefix; chunked messages carry the
//!   epoch in the (AAD-bound) top bits of their message id. Epoch
//!   splices, stale replays, and downgrades to the prefix-free legacy
//!   format all fail authentication or surface a typed [`KeyError`].

pub mod epoch;
pub mod frames;
pub mod handshake;
pub mod kdf;
pub mod plane;
pub mod record;
pub mod suite;

pub use epoch::EpochWindow;
pub use frames::KeyFrame;
pub use kdf::{derive_group_key, derive_pair_key};
pub use plane::{KeyError, KeyPlane, KeyPlaneConfig, KeyStats};
pub use record::{
    embed_epoch_msg_id, epoch_aad, msg_id_epoch, open_record, seal_record, split_epoch,
    widen_epoch16, EPOCH_MSG_ID_SHIFT, EPOCH_PREFIX_LEN,
};
