//! Error type for the crypto substrate.

use std::fmt;

/// Crypto-layer result alias.
pub type Result<T> = std::result::Result<T, Error>;

/// Errors produced by the crypto substrate.
///
/// Note that [`Error::AuthFailure`] deliberately carries no detail: a
/// decryption either yields the authentic plaintext or nothing, per the
/// AEAD contract.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// Key length is not 16 or 32 bytes.
    InvalidKeyLength {
        /// The offending length.
        got: usize,
    },
    /// The selected backend requires a key size it does not support
    /// (e.g. Libsodium's AES-GCM is 256-bit only).
    UnsupportedKeySize {
        /// Backend name.
        backend: &'static str,
        /// Requested key size in bits.
        bits: usize,
    },
    /// The ciphertext failed authentication (wrong key, wrong nonce,
    /// tampered ciphertext, or tampered associated data).
    AuthFailure,
    /// Ciphertext shorter than the mandatory 16-byte tag.
    CiphertextTooShort {
        /// The offending length.
        got: usize,
    },
    /// Input not a multiple of the block size (ECB/CBC without padding).
    NotBlockAligned {
        /// The offending length.
        got: usize,
    },
    /// Invalid PKCS#7 padding encountered while unpadding.
    BadPadding,
    /// The CPU lacks the instruction-set extensions this engine needs.
    HardwareUnavailable,
    /// A one-time-pad operation ran past the end of the pad key.
    PadExhausted,
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::InvalidKeyLength { got } => {
                write!(f, "invalid AES key length {got} (expected 16 or 32 bytes)")
            }
            Error::UnsupportedKeySize { backend, bits } => {
                write!(f, "backend {backend} does not support {bits}-bit keys")
            }
            Error::AuthFailure => write!(f, "ciphertext authentication failed"),
            Error::CiphertextTooShort { got } => {
                write!(
                    f,
                    "ciphertext of {got} bytes is shorter than the 16-byte tag"
                )
            }
            Error::NotBlockAligned { got } => {
                write!(
                    f,
                    "input length {got} is not a multiple of the 16-byte block"
                )
            }
            Error::BadPadding => write!(f, "invalid PKCS#7 padding"),
            Error::HardwareUnavailable => {
                write!(f, "CPU lacks the required instruction-set extensions")
            }
            Error::PadExhausted => write!(f, "one-time pad exhausted"),
        }
    }
}

impl std::error::Error for Error {}
