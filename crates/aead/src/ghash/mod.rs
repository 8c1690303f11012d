//! GHASH — the GF(2¹²⁸) universal hash of GCM (NIST SP 800-38D §6.4).
//!
//! Field elements are represented as `u128` values obtained from
//! `u128::from_be_bytes(block)`; GCM's "reflected" bit order means the
//! most-significant bit of the integer is the coefficient of x⁰.
//!
//! Three multipliers are provided:
//!
//! * [`gmul_bitwise`] — the literal one-bit-at-a-time spec algorithm,
//!   used as the reference oracle in tests;
//! * [`GhashSoft`] — Shoup's 4-bit table method (what table-driven
//!   software libraries such as CryptoPP use);
//! * [`GhashClmul`] — PCLMULQDQ carry-less multiplication with 8-block
//!   aggregation and one deferred reduction per 128 bytes (what
//!   OpenSSL/BoringSSL use).

#[cfg(target_arch = "x86_64")]
mod pclmul;
mod soft;

#[cfg(target_arch = "x86_64")]
pub use pclmul::GhashClmul;
#[cfg(target_arch = "x86_64")]
pub(crate) use pclmul::Product;
pub use soft::GhashSoft;

/// The reduction polynomial term: x⁷+x²+x+1 reflected into the top byte.
pub(crate) const R: u128 = 0xe1u128 << 120;

/// Reference GF(2¹²⁸) multiply, bit by bit (NIST SP 800-38D Algorithm 1).
pub fn gmul_bitwise(x: u128, y: u128) -> u128 {
    let mut z = 0u128;
    let mut v = y;
    for i in 0..128 {
        if (x >> (127 - i)) & 1 == 1 {
            z ^= v;
        }
        let lsb = v & 1;
        v >>= 1;
        if lsb == 1 {
            v ^= R;
        }
    }
    z
}

/// A keyed GHASH engine: multiplication by the fixed hash subkey `H`.
pub trait GhashImpl: Send + Sync {
    /// Compute `x · H` in GF(2¹²⁸).
    fn mult(&self, x: u128) -> u128;

    /// GHASH of `aad ‖ pad ‖ data ‖ pad ‖ len(aad)₆₄ ‖ len(data)₆₄`.
    ///
    /// Engines may override this for block-level parallelism; the default
    /// chains block by block.
    fn ghash(&self, aad: &[u8], data: &[u8]) -> [u8; 16] {
        let mut y = 0u128;
        for part in [aad, data] {
            let mut chunks = part.chunks_exact(16);
            for c in &mut chunks {
                y = self.mult(y ^ be_block(c));
            }
            let rem = chunks.remainder();
            if !rem.is_empty() {
                let mut last = [0u8; 16];
                last[..rem.len()].copy_from_slice(rem);
                y = self.mult(y ^ u128::from_be_bytes(last));
            }
        }
        let lens = ((aad.len() as u128 * 8) << 64) | (data.len() as u128 * 8);
        y = self.mult(y ^ lens);
        y.to_be_bytes()
    }
}

#[inline]
pub(crate) fn be_block(c: &[u8]) -> u128 {
    let mut b = [0u8; 16];
    b.copy_from_slice(c);
    u128::from_be_bytes(b)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// McGrew–Viega GCM spec, Test Case 2: H = E(K, 0¹²⁸) for the zero
    /// AES-128 key; GHASH(H, {}, C) with the known ciphertext block.
    #[test]
    fn ghash_known_vector() {
        // From the GCM spec test case 2:
        // H = 66e94bd4ef8a2c3b884cfa59ca342b2e
        // C = 0388dace60b6a392f328c2b971b2fe78
        // GHASH(H, {}, C) = f38cbb1ad69223dcc3457ae5b6b0f885
        let h = 0x66e94bd4ef8a2c3b884cfa59ca342b2eu128;
        let c = hex128("0388dace60b6a392f328c2b971b2fe78");
        let expect = hex128("f38cbb1ad69223dcc3457ae5b6b0f885");
        let soft = GhashSoft::new(h);
        let got = soft.ghash(b"", &c.to_be_bytes());
        assert_eq!(u128::from_be_bytes(got), expect);
        // And the bitwise oracle agrees.
        let y1 = gmul_bitwise(c, h);
        let lens = 128u128;
        let y2 = gmul_bitwise(y1 ^ lens, h);
        assert_eq!(y2, expect);
    }

    #[test]
    fn bitwise_identity_and_commutativity() {
        let a = 0x0123456789abcdef0fedcba987654321u128;
        let b = 0xdeadbeefcafebabe1122334455667788u128;
        assert_eq!(gmul_bitwise(a, b), gmul_bitwise(b, a));
        // Multiplying by 1 (the polynomial "1" = MSB set) is identity.
        let one = 1u128 << 127;
        assert_eq!(gmul_bitwise(a, one), a);
        assert_eq!(gmul_bitwise(one, b), b);
        // Zero annihilates.
        assert_eq!(gmul_bitwise(a, 0), 0);
    }

    #[test]
    fn soft_table_matches_bitwise() {
        let h = 0x66e94bd4ef8a2c3b884cfa59ca342b2eu128;
        let soft = GhashSoft::new(h);
        let mut x = 0x0123456789abcdef0fedcba987654321u128;
        for _ in 0..64 {
            assert_eq!(soft.mult(x), gmul_bitwise(x, h));
            x = x.rotate_left(13) ^ 0x9e3779b97f4a7c15u128;
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn clmul_matches_bitwise() {
        if !crate::aes::hardware_acceleration_available() {
            return;
        }
        let h = 0x66e94bd4ef8a2c3b884cfa59ca342b2eu128;
        let clmul = GhashClmul::new(h);
        let mut x = 0xdeadbeefcafebabe1122334455667788u128;
        for _ in 0..64 {
            assert_eq!(clmul.mult(x), gmul_bitwise(x, h), "x={x:032x}");
            x = x.wrapping_mul(0x2545F4914F6CDD1D).rotate_left(31);
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn clmul_aggregated_ghash_matches_soft() {
        if !crate::aes::hardware_acceleration_available() {
            return;
        }
        let h = 0xaaaabbbbccccddddeeeeffff00001111u128;
        let soft = GhashSoft::new(h);
        let clmul = GhashClmul::new(h);
        for (aad_len, data_len) in [
            (0usize, 0usize),
            (0, 16),
            (3, 5),
            (16, 64),
            (20, 63),
            (0, 257),
            (100, 1000),
        ] {
            let aad: Vec<u8> = (0..aad_len).map(|i| i as u8).collect();
            let data: Vec<u8> = (0..data_len).map(|i| (i * 3 + 1) as u8).collect();
            assert_eq!(
                soft.ghash(&aad, &data),
                clmul.ghash(&aad, &data),
                "aad={aad_len} data={data_len}"
            );
        }
    }

    pub(crate) fn hex128(s: &str) -> u128 {
        u128::from_str_radix(s, 16).unwrap()
    }
}
