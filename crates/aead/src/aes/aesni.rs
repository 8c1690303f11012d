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
//! The pipelined steps (`keystream_begin`, `round`, `finish_xor`) are
//! written once over a register of [`Lanes`] and are crate-visible, so
//! GCM's stitched kernel can issue GHASH multiplies between the rounds
//! at either of its widths; `ctr_xor` is the same steps back to back on
//! eight `__m128i`. Both read a source and write a destination, block by
//! block, each block loaded before it is stored: the destination may be
//! the source, lie apart from it, or lie below it in the same buffer.
//!
//! Round keys come from the portable [`KeySchedule`]; both engines are
//! verified against the FIPS-197 vectors and against [`super::SoftAes`].

#![cfg(target_arch = "x86_64")]

use core::arch::x86_64::*;

use super::schedule::KeySchedule;
use super::{kernel_width, BlockEncrypt, KernelWidth};
use crate::error::{Error, Result};
use crate::lanes::Lanes;

/// Maximum round keys (AES-256: 15).
const MAX_RK: usize = 15;

/// Blocks in flight per pipelined step.
const LANES: usize = 8;

/// An expanded key, each round key in every lane of a `V`.
#[derive(Clone)]
pub(crate) struct RoundKeys<V = __m128i> {
    pub(crate) rk: [V; MAX_RK],
    /// Number of rounds (10 or 14): rounds `1..nr` are [`round`] steps,
    /// the last is [`finish_xor`].
    pub(crate) nr: usize,
}

fn load_round_keys(key: &[u8]) -> Result<RoundKeys> {
    if kernel_width() == KernelWidth::None {
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

/// Start `N · V::BLOCKS` keystream blocks: counters `ctr`, `ctr+1`, … in
/// wire order, block `i` in lane `i % V::BLOCKS` of register
/// `i / V::BLOCKS`, with round key 0 applied; advances `ctr` by as many
/// (mod 2³² on the counter lane, per `inc32`).
///
/// # Safety
/// The CPU runs `V`'s instructions (see [`Lanes`]).
#[inline(always)]
pub(crate) unsafe fn keystream_begin<V: Lanes, const N: usize>(
    keys: &RoundKeys<V>,
    ctr: &mut __m128i,
) -> [V; N] {
    let mut c = V::counters(*ctr);
    let mut blocks = [c; N];
    for b in blocks.iter_mut() {
        *b = V::xor(V::byte_reverse(c), keys.rk[0]);
        c = V::next_counters(c);
    }
    *ctr = _mm_add_epi32(*ctr, _mm_set_epi32(0, 0, 0, (N * V::BLOCKS) as i32));
    blocks
}

/// One `aesenc` round with key `k` across every block.
///
/// # Safety
/// As [`keystream_begin`].
#[inline(always)]
pub(crate) unsafe fn round<V: Lanes, const N: usize>(blocks: &mut [V; N], k: V) {
    for b in blocks.iter_mut() {
        *b = V::aesenc(*b, k);
    }
}

/// Last round with key `klast`, then XOR the keystream into the
/// `16 · V::BLOCKS · N` bytes at `src`, storing them at `dst`: each
/// register is loaded before it is stored.
///
/// # Safety
/// As [`keystream_begin`]; `src` must be valid for reads and `dst` for
/// writes of those bytes (no alignment required). `dst` is `src`, lies
/// apart from it, or lies below it: a store then only overwrites source
/// bytes already loaded.
#[inline(always)]
pub(crate) unsafe fn finish_xor<V: Lanes, const N: usize>(
    blocks: [V; N],
    klast: V,
    src: *const u8,
    dst: *mut u8,
) {
    for (i, b) in blocks.into_iter().enumerate() {
        let ks = V::aesenclast(b, klast);
        let at = 16 * V::BLOCKS * i;
        V::store(dst.add(at), V::xor(ks, V::load(src.add(at))));
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

    /// The expanded key, one round key per `__m128i`.
    #[inline]
    pub(crate) fn keys(&self) -> &RoundKeys {
        &self.keys
    }

    /// XOR the `len` bytes at `src` with the keystream starting at `ctr`
    /// (byte-reversed, see [`counter_lanes`]), store them at `dst`, and
    /// leave `ctr` at the next unused block.
    ///
    /// # Safety
    /// As [`finish_xor`], for `len` bytes.
    #[target_feature(enable = "aes", enable = "ssse3")]
    pub(crate) unsafe fn ctr_xor(
        &self,
        ctr: &mut __m128i,
        src: *const u8,
        dst: *mut u8,
        len: usize,
    ) {
        let keys = &self.keys;
        let full = len - len % (16 * LANES);
        for off in (0..full).step_by(16 * LANES) {
            let mut blocks = keystream_begin::<__m128i, LANES>(keys, ctr);
            for r in 1..keys.nr {
                round(&mut blocks, keys.rk[r]);
            }
            finish_xor(blocks, keys.rk[keys.nr], src.add(off), dst.add(off));
        }
        let mut next_block = || {
            let ks = encrypt1(keys, byte_reverse(*ctr));
            *ctr = _mm_add_epi32(*ctr, _mm_set_epi32(0, 0, 0, 1));
            ks
        };
        let whole = len - len % 16;
        for off in (full..whole).step_by(16) {
            let x = _mm_loadu_si128(src.add(off) as *const __m128i);
            _mm_storeu_si128(dst.add(off) as *mut __m128i, _mm_xor_si128(next_block(), x));
        }
        if whole < len {
            let mut ksb = [0u8; 16];
            _mm_storeu_si128(ksb.as_mut_ptr() as *mut __m128i, next_block());
            for (i, k) in (whole..len).zip(ksb) {
                *dst.add(i) = *src.add(i) ^ k;
            }
        }
    }
}

impl BlockEncrypt for AesNiPipelined {
    fn encrypt_block(&self, block: &mut [u8; 16]) {
        encrypt_block_ni(&self.keys, block)
    }

    fn ctr_apply(&self, counter_block: &[u8; 16], buf: &mut [u8]) {
        let p = buf.as_mut_ptr();
        // SAFETY: constructor verified the `aes` and `ssse3` features;
        // in place over `buf`.
        unsafe { self.ctr_xor(&mut counter_lanes(counter_block), p, p, buf.len()) }
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
