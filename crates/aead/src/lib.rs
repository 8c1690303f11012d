//! # empi-aead — cryptographic substrate for encrypted MPI
//!
//! This crate implements, from scratch, everything the CLUSTER'19 paper
//! *"An Empirical Study of Cryptographic Libraries for MPI Communications"*
//! needs from its four cryptographic libraries (OpenSSL, BoringSSL,
//! Libsodium, CryptoPP):
//!
//! * **AES-128 / AES-256** block cipher with three engines:
//!   a portable T-table software implementation ([`aes::SoftAes`]),
//!   a hardware AES-NI single-block engine, and an 8-block interleaved
//!   AES-NI pipeline with an in-register counter, used for bulk CTR
//!   keystream generation (the source of OpenSSL/BoringSSL's speed
//!   advantage).
//! * **GHASH** over GF(2¹²⁸) with a Shoup 4-bit-table software engine
//!   ([`ghash::GhashSoft`]) and a PCLMULQDQ engine with 8-block
//!   aggregation — eight multiplies against H⁸…H¹, one deferred
//!   reduction per 128 bytes ([`ghash::GhashClmul`]).
//! * **AES-GCM** ([`gcm::AesGcm`]) per NIST SP 800-38D: 96-bit nonces,
//!   128-bit tags, associated data, constant-time tag verification.
//!   The pipelined-AES × PCLMUL pair (the OpenSSL/BoringSSL profiles and
//!   `AesGcm::new`) runs as one **stitched kernel**: a single pass over
//!   the data with the GHASH multiplies issued between the AES rounds —
//!   on 512-bit VAES/VPCLMULQDQ registers where the CPU has them, on
//!   128-bit AES-NI/PCLMULQDQ ones otherwise — from a source to a destination — in place, into a second buffer, or
//!   (opening) to the front of the ciphertext's own buffer. Opening
//!   decrypts while it hashes and, if the tag then fails, undoes what it
//!   wrote so the caller gets its ciphertext back.
//! * Classical modes — [`ecb`], [`cbc`], [`ctr`] — and a big-key one-time
//!   pad ([`otp`]) used to *demonstrate* the insecurity of the prior
//!   encrypted-MPI systems surveyed in §II of the paper. These are
//!   intentionally exported under explicit "insecure" names.
//! * [`sha256`] for the (also insecure) encrypt-with-checksum legacy
//!   construction.
//! * [`profile`] — the paper's four libraries as selectable backends with
//!   calibrated throughput anchor curves digitized from Figs. 2 and 9,
//!   which price every seal and open in virtual time
//!   (`SecureComm::calibrated_ns`).
//!
//! The real cryptography always executes; the profiles only decide *which
//! engine combination* runs and how virtual time is charged.
//!
//! ```
//! use empi_aead::profile::{CryptoLibrary, KeySize};
//!
//! let key = [7u8; 32];
//! let cipher = CryptoLibrary::BoringSsl.instantiate(KeySize::Aes256, &key).unwrap();
//! let nonce = [1u8; 12];
//! let ct = cipher.seal(&nonce, b"", b"attack at dawn");
//! assert_eq!(ct.len(), 14 + 16); // ciphertext + tag
//! let pt = cipher.open(&nonce, b"", &ct).unwrap();
//! assert_eq!(&pt, b"attack at dawn");
//! ```

pub mod aes;
pub mod cbc;
pub mod ccm;
pub mod ct;
pub mod ctr;
pub mod ecb;
pub mod error;
pub mod gcm;
pub mod ghash;
mod lanes;
pub mod nonce;
pub mod otp;
pub mod profile;
pub mod sha256;

pub use error::{Error, Result};
pub use gcm::AesGcm;
pub use profile::{CryptoLibrary, EncCurve, KeySize};

/// Number of bytes AES-GCM adds to every message on the wire:
/// a 12-byte nonce plus a 16-byte authentication tag.
pub const WIRE_OVERHEAD: usize = NONCE_LEN + TAG_LEN;
/// AES-GCM nonce length in bytes (96 bits, per NIST SP 800-38D).
pub const NONCE_LEN: usize = 12;
/// AES-GCM authentication tag length in bytes (128 bits).
pub const TAG_LEN: usize = 16;
/// AES block length in bytes.
pub const BLOCK_LEN: usize = 16;
