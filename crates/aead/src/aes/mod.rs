//! AES-128 / AES-256 block cipher engines.
//!
//! Three engines are provided:
//!
//! * [`SoftAes`] — portable T-table implementation (4 KiB encryption
//!   tables generated at compile time). This models the software fallback
//!   path of CryptoPP in the paper's "gcc 4.8.5" build.
//! * [`AesNi`] — hardware AES-NI, one block at a time (Libsodium-style).
//! * [`AesNiPipelined`] — hardware AES-NI with eight independent blocks
//!   in flight per loop iteration, hiding the `aesenc` latency, and the
//!   counter kept in a register (OpenSSL/BoringSSL-style bulk CTR).
//!
//! All engines implement [`BlockEncrypt`]; the software engine also
//! implements [`BlockDecrypt`] (needed only by the legacy ECB/CBC modes).

mod schedule;
mod soft;
#[cfg(target_arch = "x86_64")]
mod aesni;

pub use schedule::{KeySchedule, Rounds};
pub use soft::SoftAes;
#[cfg(target_arch = "x86_64")]
pub use aesni::{AesNi, AesNiPipelined};
#[cfg(target_arch = "x86_64")]
pub(crate) use aesni::{byte_reverse, counter_lanes, LANES};

/// Forward (encryption) direction of a 128-bit block cipher.
///
/// `ctr_apply` is the bulk entry point used by CTR mode and GCM; engines
/// override it to pipeline several blocks.
pub trait BlockEncrypt: Send + Sync {
    /// Encrypt one 16-byte block in place.
    fn encrypt_block(&self, block: &mut [u8; 16]);

    /// XOR `buf` with the CTR keystream starting at `counter_block`.
    ///
    /// The counter is the last 32 bits of the block, big-endian,
    /// incremented per block with wraparound (NIST SP 800-38D `inc32`).
    fn ctr_apply(&self, counter_block: &[u8; 16], buf: &mut [u8]) {
        let mut ctr = *counter_block;
        let mut chunks = buf.chunks_exact_mut(16);
        for chunk in &mut chunks {
            let mut ks = ctr;
            self.encrypt_block(&mut ks);
            for (b, k) in chunk.iter_mut().zip(ks.iter()) {
                *b ^= k;
            }
            inc32(&mut ctr);
        }
        let rem = chunks.into_remainder();
        if !rem.is_empty() {
            let mut ks = ctr;
            self.encrypt_block(&mut ks);
            for (b, k) in rem.iter_mut().zip(ks.iter()) {
                *b ^= k;
            }
        }
    }
}

/// Inverse (decryption) direction; only the legacy ECB/CBC demos need it.
pub trait BlockDecrypt: Send + Sync {
    /// Decrypt one 16-byte block in place.
    fn decrypt_block(&self, block: &mut [u8; 16]);
}

/// Increment the last 32 bits of a block, big-endian, with wraparound.
#[inline]
pub fn inc32(block: &mut [u8; 16]) {
    let mut ctr = u32::from_be_bytes([block[12], block[13], block[14], block[15]]);
    ctr = ctr.wrapping_add(1);
    block[12..16].copy_from_slice(&ctr.to_be_bytes());
}

/// Returns `true` if the CPU supports the AES-NI + PCLMULQDQ fast paths.
pub fn hardware_acceleration_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("aes")
            && std::arch::is_x86_feature_detected!("pclmulqdq")
            && std::arch::is_x86_feature_detected!("ssse3")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// FIPS-197 Appendix C.1: AES-128 known-answer test.
    pub const FIPS197_KEY128: [u8; 16] = [
        0x00, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, 0x09, 0x0a, 0x0b, 0x0c, 0x0d,
        0x0e, 0x0f,
    ];
    /// FIPS-197 Appendix C.3: AES-256 key.
    pub const FIPS197_KEY256: [u8; 32] = [
        0x00, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, 0x09, 0x0a, 0x0b, 0x0c, 0x0d,
        0x0e, 0x0f, 0x10, 0x11, 0x12, 0x13, 0x14, 0x15, 0x16, 0x17, 0x18, 0x19, 0x1a, 0x1b,
        0x1c, 0x1d, 0x1e, 0x1f,
    ];
    pub const FIPS197_PT: [u8; 16] = [
        0x00, 0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77, 0x88, 0x99, 0xaa, 0xbb, 0xcc, 0xdd,
        0xee, 0xff,
    ];
    pub const FIPS197_CT128: [u8; 16] = [
        0x69, 0xc4, 0xe0, 0xd8, 0x6a, 0x7b, 0x04, 0x30, 0xd8, 0xcd, 0xb7, 0x80, 0x70, 0xb4,
        0xc5, 0x5a,
    ];
    pub const FIPS197_CT256: [u8; 16] = [
        0x8e, 0xa2, 0xb7, 0xca, 0x51, 0x67, 0x45, 0xbf, 0xea, 0xfc, 0x49, 0x90, 0x4b, 0x49,
        0x60, 0x89,
    ];

    #[test]
    fn soft_aes128_fips197() {
        let aes = SoftAes::new(&FIPS197_KEY128).unwrap();
        let mut block = FIPS197_PT;
        aes.encrypt_block(&mut block);
        assert_eq!(block, FIPS197_CT128);
        aes.decrypt_block(&mut block);
        assert_eq!(block, FIPS197_PT);
    }

    #[test]
    fn soft_aes256_fips197() {
        let aes = SoftAes::new(&FIPS197_KEY256).unwrap();
        let mut block = FIPS197_PT;
        aes.encrypt_block(&mut block);
        assert_eq!(block, FIPS197_CT256);
        aes.decrypt_block(&mut block);
        assert_eq!(block, FIPS197_PT);
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn aesni_matches_fips197() {
        if !hardware_acceleration_available() {
            return;
        }
        for (key, expect) in [
            (&FIPS197_KEY128[..], FIPS197_CT128),
            (&FIPS197_KEY256[..], FIPS197_CT256),
        ] {
            let aes = AesNi::new(key).unwrap();
            let mut block = FIPS197_PT;
            aes.encrypt_block(&mut block);
            assert_eq!(block, expect);
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn pipelined_ctr_matches_soft_ctr() {
        if !hardware_acceleration_available() {
            return;
        }
        let key = FIPS197_KEY256;
        let soft = SoftAes::new(&key).unwrap();
        let fast = AesNiPipelined::new(&key).unwrap();
        for len in [0usize, 1, 15, 16, 17, 127, 128, 129, 1000, 4096] {
            let mut a: Vec<u8> = (0..len).map(|i| (i * 7 + 3) as u8).collect();
            let mut b = a.clone();
            let ctr = [0xa5u8; 16];
            soft.ctr_apply(&ctr, &mut a);
            fast.ctr_apply(&ctr, &mut b);
            assert_eq!(a, b, "len={len}");
        }
    }

    #[test]
    fn inc32_wraps() {
        let mut b = [0u8; 16];
        b[12..16].copy_from_slice(&u32::MAX.to_be_bytes());
        b[0] = 0x77;
        inc32(&mut b);
        assert_eq!(&b[12..16], &[0, 0, 0, 0]);
        assert_eq!(b[0], 0x77, "inc32 must not touch the nonce part");
    }

    #[test]
    fn rejects_bad_key_lengths() {
        for n in [0usize, 1, 15, 17, 24, 31, 33] {
            assert!(SoftAes::new(&vec![0u8; n]).is_err(), "len {n} accepted");
        }
    }

    #[test]
    fn default_ctr_apply_partial_tail() {
        // The tail (< 16 bytes) must use the keystream block *after* the
        // full blocks, not reuse an earlier one.
        let aes = SoftAes::new(&FIPS197_KEY128).unwrap();
        let ctr = [3u8; 16];
        let mut long = [0u8; 40];
        aes.ctr_apply(&ctr, &mut long);
        let mut head = [0u8; 32];
        aes.ctr_apply(&ctr, &mut head);
        assert_eq!(&long[..32], &head[..]);
        // Tail equals keystream of block index 2.
        let mut blk = ctr;
        inc32(&mut blk);
        inc32(&mut blk);
        aes.encrypt_block(&mut blk);
        assert_eq!(&long[32..40], &blk[..8]);
    }
}
