//! Hardware AES engines built on the x86-64 AES-NI instruction set.
//!
//! [`AesNi`] encrypts one block at a time — the shape of Libsodium's
//! `aes256gcm` implementation. [`AesNiPipelined`] keeps eight independent
//! counter blocks in flight per loop iteration so consecutive `aesenc`
//! instructions never wait on each other — the shape of OpenSSL's and
//! BoringSSL's bulk CTR path, and the entire reason those libraries lead
//! Fig. 2 of the paper. The counter never leaves its register: it is
//! held byte-reversed so the big-endian `inc32` is one `_mm_add_epi32`
//! on lane 0, and one `pshufb` per block puts it back in wire order.
//!
//! The eight-block steps (`keystream8_begin`, `round8`, `finish8_xor`)
//! are crate-visible so GCM's stitched kernel can issue GHASH multiplies
//! between the rounds; `ctr_xor` is the same steps back to back.
//!
//! Round keys come from the portable [`KeySchedule`]; both engines are
//! verified against the FIPS-197 vectors and against [`super::SoftAes`].

#![cfg(target_arch = "x86_64")]

use core::arch::x86_64::*;

use super::schedule::KeySchedule;
use super::BlockEncrypt;
use crate::error::{Error, Result};

/// Maximum round keys (AES-256: 15).
const MAX_RK: usize = 15;

/// Blocks in flight per pipelined step.
pub(crate) const LANES: usize = 8;

#[derive(Clone)]
struct RoundKeys {
    rk: [__m128i; MAX_RK],
    nr: usize,
}

fn load_round_keys(key: &[u8]) -> Result<RoundKeys> {
    if !std::arch::is_x86_feature_detected!("aes")
        || !std::arch::is_x86_feature_detected!("ssse3")
    {
        return Err(Error::HardwareUnavailable);
    }
    let ks = KeySchedule::new(key)?;
    let nr = ks.rounds().count();
    // SAFETY: `sse2` is part of the x86-64 baseline; each load reads the
    // 16-byte array `round_bytes` returns.
    unsafe {
        let mut rk = [_mm_setzero_si128(); MAX_RK];
        for (r, slot) in rk.iter_mut().enumerate().take(nr + 1) {
            let bytes = ks.round_bytes(r);
            *slot = _mm_loadu_si128(bytes.as_ptr() as *const __m128i);
        }
        Ok(RoundKeys { rk, nr })
    }
}

/// Reverse the 16 bytes of a vector: wire order ↔ the order in which the
/// 32-bit counter is lane 0 (and a GHASH block is a reflected element).
#[inline]
#[target_feature(enable = "ssse3")]
pub(crate) fn byte_reverse(v: __m128i) -> __m128i {
    _mm_shuffle_epi8(
        v,
        _mm_set_epi8(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15),
    )
}

/// A counter block in the byte-reversed order [`AesNiPipelined`] counts in.
#[inline]
#[target_feature(enable = "ssse3")]
pub(crate) fn counter_lanes(counter_block: &[u8; 16]) -> __m128i {
    // SAFETY: loading from a 16-byte array.
    byte_reverse(unsafe { _mm_loadu_si128(counter_block.as_ptr() as *const __m128i) })
}

#[inline]
#[target_feature(enable = "aes")]
fn encrypt1(rk: &RoundKeys, mut b: __m128i) -> __m128i {
    b = _mm_xor_si128(b, rk.rk[0]);
    for r in 1..rk.nr {
        b = _mm_aesenc_si128(b, rk.rk[r]);
    }
    _mm_aesenclast_si128(b, rk.rk[rk.nr])
}

fn encrypt_block_ni(keys: &RoundKeys, block: &mut [u8; 16]) {
    // SAFETY: `load_round_keys` verified the `aes` feature; the load
    // and the store cover exactly the 16-byte array.
    unsafe {
        let b = _mm_loadu_si128(block.as_ptr() as *const __m128i);
        let c = encrypt1(keys, b);
        _mm_storeu_si128(block.as_mut_ptr() as *mut __m128i, c);
    }
}

/// Single-block AES-NI engine (Libsodium-style).
pub struct AesNi {
    keys: RoundKeys,
}

impl AesNi {
    /// Build from a 16- or 32-byte key; fails with
    /// [`Error::HardwareUnavailable`] if the CPU lacks AES-NI.
    pub fn new(key: &[u8]) -> Result<Self> {
        Ok(AesNi {
            keys: load_round_keys(key)?,
        })
    }
}

impl BlockEncrypt for AesNi {
    fn encrypt_block(&self, block: &mut [u8; 16]) {
        encrypt_block_ni(&self.keys, block)
    }
}

/// Eight-block interleaved AES-NI CTR engine (OpenSSL/BoringSSL-style).
pub struct AesNiPipelined {
    keys: RoundKeys,
}

impl AesNiPipelined {
    /// Build from a 16- or 32-byte key; fails with
    /// [`Error::HardwareUnavailable`] if the CPU lacks AES-NI.
    pub fn new(key: &[u8]) -> Result<Self> {
        Ok(AesNiPipelined {
            keys: load_round_keys(key)?,
        })
    }

    /// Number of rounds (10 or 14): rounds `1..rounds()` are
    /// [`round8`](Self::round8) steps, the last is
    /// [`finish8_xor`](Self::finish8_xor).
    #[inline]
    pub(crate) fn rounds(&self) -> usize {
        self.keys.nr
    }

    /// Start eight keystream blocks: counters `ctr`…`ctr+7` in wire order
    /// with round key 0 applied; advances `ctr` by eight (mod 2³² on the
    /// counter lane, per `inc32`).
    #[inline]
    #[target_feature(enable = "aes", enable = "ssse3")]
    pub(crate) fn keystream8_begin(&self, ctr: &mut __m128i) -> [__m128i; LANES] {
        let one = _mm_set_epi32(0, 0, 0, 1);
        let k0 = self.keys.rk[0];
        let mut blocks = [_mm_setzero_si128(); LANES];
        for b in blocks.iter_mut() {
            *b = _mm_xor_si128(byte_reverse(*ctr), k0);
            *ctr = _mm_add_epi32(*ctr, one);
        }
        blocks
    }

    /// One `aesenc` round `r` across all eight blocks.
    #[inline]
    #[target_feature(enable = "aes")]
    pub(crate) fn round8(&self, blocks: &mut [__m128i; LANES], r: usize) {
        let k = self.keys.rk[r];
        for b in blocks.iter_mut() {
            *b = _mm_aesenc_si128(*b, k);
        }
    }

    /// Last round, then XOR the eight keystream blocks into 128 bytes.
    ///
    /// # Safety
    /// `data` must be valid for reads and writes of 128 bytes (no
    /// alignment required).
    #[inline]
    #[target_feature(enable = "aes")]
    pub(crate) unsafe fn finish8_xor(&self, blocks: [__m128i; LANES], data: *mut u8) {
        let klast = self.keys.rk[self.keys.nr];
        for (i, b) in blocks.into_iter().enumerate() {
            let p = data.add(16 * i) as *mut __m128i;
            let ks = _mm_aesenclast_si128(b, klast);
            _mm_storeu_si128(p, _mm_xor_si128(ks, _mm_loadu_si128(p)));
        }
    }

    /// XOR `buf` with the keystream starting at `ctr` (byte-reversed, see
    /// [`counter_lanes`]) and leave `ctr` at the next unused block.
    #[target_feature(enable = "aes", enable = "ssse3")]
    pub(crate) fn ctr_xor(&self, ctr: &mut __m128i, buf: &mut [u8]) {
        let mut groups = buf.chunks_exact_mut(16 * LANES);
        for g in &mut groups {
            let mut blocks = self.keystream8_begin(ctr);
            for r in 1..self.keys.nr {
                self.round8(&mut blocks, r);
            }
            // SAFETY: `g` is exactly 128 bytes long.
            unsafe { self.finish8_xor(blocks, g.as_mut_ptr()) };
        }
        let mut next_block = || {
            let ks = encrypt1(&self.keys, byte_reverse(*ctr));
            *ctr = _mm_add_epi32(*ctr, _mm_set_epi32(0, 0, 0, 1));
            ks
        };
        let mut whole = groups.into_remainder().chunks_exact_mut(16);
        for b in &mut whole {
            let ks = next_block();
            let p = b.as_mut_ptr() as *mut __m128i;
            // SAFETY: `b` is exactly 16 bytes long.
            unsafe { _mm_storeu_si128(p, _mm_xor_si128(ks, _mm_loadu_si128(p))) };
        }
        let rem = whole.into_remainder();
        if !rem.is_empty() {
            let ks = next_block();
            let mut ksb = [0u8; 16];
            // SAFETY: storing 16 bytes into a 16-byte array.
            unsafe { _mm_storeu_si128(ksb.as_mut_ptr() as *mut __m128i, ks) };
            for (dst, k) in rem.iter_mut().zip(ksb.iter()) {
                *dst ^= k;
            }
        }
    }
}

impl BlockEncrypt for AesNiPipelined {
    fn encrypt_block(&self, block: &mut [u8; 16]) {
        encrypt_block_ni(&self.keys, block)
    }

    fn ctr_apply(&self, counter_block: &[u8; 16], buf: &mut [u8]) {
        // SAFETY: constructor verified the `aes` and `ssse3` features.
        unsafe { self.ctr_xor(&mut counter_lanes(counter_block), buf) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aes::SoftAes;

    fn hw() -> bool {
        super::super::hardware_acceleration_available()
    }

    #[test]
    fn single_block_matches_soft() {
        if !hw() {
            return;
        }
        for key_len in [16usize, 32] {
            let key: Vec<u8> = (0..key_len as u8).map(|i| i.wrapping_mul(31)).collect();
            let soft = SoftAes::new(&key).unwrap();
            let ni = AesNi::new(&key).unwrap();
            for seed in 0u8..16 {
                let mut a = [seed; 16];
                let mut b = a;
                soft.encrypt_block(&mut a);
                ni.encrypt_block(&mut b);
                assert_eq!(a, b);
            }
        }
    }

    #[test]
    fn ctr_counter_wrap_in_pipeline() {
        if !hw() {
            return;
        }
        let key = [9u8; 16];
        let soft = SoftAes::new(&key).unwrap();
        let fast = AesNiPipelined::new(&key).unwrap();
        // Start 3 blocks before the 32-bit wrap so the 8-block loop
        // crosses it.
        let mut ctr = [0u8; 16];
        ctr[12..16].copy_from_slice(&(u32::MAX - 2).to_be_bytes());
        let mut a = vec![0xEEu8; 300];
        let mut b = a.clone();
        soft.ctr_apply(&ctr, &mut a);
        fast.ctr_apply(&ctr, &mut b);
        assert_eq!(a, b);
    }
}
