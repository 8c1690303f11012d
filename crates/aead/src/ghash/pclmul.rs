//! PCLMULQDQ-based GHASH (Intel carry-less multiplication white paper,
//! "reflected" algorithm) with **aggregated reduction**: eight blocks
//! are multiplied against the precomputed powers H⁸…H¹, their 256-bit
//! carry-less products are XOR-accumulated unreduced, and the sum is
//! shifted and reduced **once** per 128-byte group — the technique
//! behind OpenSSL's and BoringSSL's GHASH speed. Blocks are byte-reflected
//! in-register with `pshufb`; the data path never leaves `__m128i`.
//!
//! `Product` (multiply without reducing, lane by lane in a register of
//! [`Lanes`]) and `Product::reduce` (the one reduction routine of this
//! file, after a wide product's lanes are folded to one) are what GCM's
//! stitched kernel interleaves with its AES rounds; `GhashClmul::absorb`
//! is the same group accumulation over a byte slice, used by the plain
//! two-pass `ghash` and by the stitched path for AAD and tails.

#![cfg(target_arch = "x86_64")]

use core::arch::x86_64::*;

use super::GhashImpl;
use crate::aes::{byte_reverse, kernel_width, KernelWidth};
use crate::lanes::Lanes;

/// Blocks per aggregated group (one reduction each).
pub(crate) const GROUP_BLOCKS: usize = 8;
/// Bytes per aggregated group.
pub(crate) const GROUP_BYTES: usize = 16 * GROUP_BLOCKS;

/// Hardware GHASH engine keyed with hash subkey `H`.
pub struct GhashClmul {
    /// `powers[i]` = Hⁱ⁺¹ as a byte-reflected field element.
    powers: [__m128i; GROUP_BLOCKS],
}

/// An unreduced 256-bit carry-less product per lane of `V`, split
/// schoolbook-style: `lo` and `hi` are the outer 128-bit halves, `mid`
/// straddles them. XOR of products is the product of the sum, so a whole
/// group is accumulated here, its lanes folded, and reduced once.
#[derive(Clone, Copy)]
pub(crate) struct Product<V = __m128i> {
    lo: V,
    mid: V,
    hi: V,
}

impl<V: Lanes> Product<V> {
    /// Carry-less `a × b` in every lane, unreduced.
    ///
    /// # Safety
    /// The CPU runs `V`'s instructions (see [`Lanes`]).
    #[inline(always)]
    pub(crate) unsafe fn of(a: V, b: V) -> Product<V> {
        Product {
            lo: V::clmul::<0x00>(a, b),
            mid: V::xor(V::clmul::<0x10>(a, b), V::clmul::<0x01>(a, b)),
            hi: V::clmul::<0x11>(a, b),
        }
    }

    /// `self ⊕ a × b`.
    ///
    /// # Safety
    /// As [`Product::of`].
    #[inline(always)]
    pub(crate) unsafe fn add(self, a: V, b: V) -> Product<V> {
        let p = Product::of(a, b);
        Product {
            lo: V::xor(self.lo, p.lo),
            mid: V::xor(self.mid, p.mid),
            hi: V::xor(self.hi, p.hi),
        }
    }

    /// The sum of the lanes' products, as one 128-bit product.
    ///
    /// # Safety
    /// As [`Product::of`].
    #[inline(always)]
    pub(crate) unsafe fn fold(self) -> Product {
        Product {
            lo: V::fold(self.lo),
            mid: V::fold(self.mid),
            hi: V::fold(self.hi),
        }
    }
}

impl Product {
    /// Intel white-paper reduction ("Figure 5", second half): fold `mid`
    /// in, shift the 256-bit product left by one (bit-reflection fix-up),
    /// then reduce modulo x¹²⁸ + x⁷ + x² + x + 1.
    #[inline]
    #[target_feature(enable = "pclmulqdq")]
    pub(crate) fn reduce(self) -> __m128i {
        let mut tmp3 = _mm_xor_si128(self.lo, _mm_slli_si128(self.mid, 8));
        let mut tmp6 = _mm_xor_si128(self.hi, _mm_srli_si128(self.mid, 8));

        // Shift the 256-bit product left by 1 bit.
        let tmp7 = _mm_srli_epi32(tmp3, 31);
        let mut tmp8 = _mm_srli_epi32(tmp6, 31);
        tmp3 = _mm_slli_epi32(tmp3, 1);
        tmp6 = _mm_slli_epi32(tmp6, 1);
        let tmp9 = _mm_srli_si128(tmp7, 12);
        tmp8 = _mm_slli_si128(tmp8, 4);
        let tmp7 = _mm_slli_si128(tmp7, 4);
        tmp3 = _mm_or_si128(tmp3, tmp7);
        tmp6 = _mm_or_si128(tmp6, tmp8);
        tmp6 = _mm_or_si128(tmp6, tmp9);

        // Reduction.
        let tmp7 = _mm_slli_epi32(tmp3, 31);
        let tmp8 = _mm_slli_epi32(tmp3, 30);
        let tmp9 = _mm_slli_epi32(tmp3, 25);
        let mut tmp7 = _mm_xor_si128(tmp7, tmp8);
        tmp7 = _mm_xor_si128(tmp7, tmp9);
        let tmp8 = _mm_srli_si128(tmp7, 4);
        let tmp7 = _mm_slli_si128(tmp7, 12);
        tmp3 = _mm_xor_si128(tmp3, tmp7);

        let mut tmp2 = _mm_srli_epi32(tmp3, 1);
        let tmp4 = _mm_srli_epi32(tmp3, 2);
        let tmp5 = _mm_srli_epi32(tmp3, 7);
        tmp2 = _mm_xor_si128(tmp2, tmp4);
        tmp2 = _mm_xor_si128(tmp2, tmp5);
        tmp2 = _mm_xor_si128(tmp2, tmp8);
        tmp3 = _mm_xor_si128(tmp3, tmp2);
        _mm_xor_si128(tmp6, tmp3)
    }
}

/// GF(2¹²⁸) multiply of two reflected field elements.
#[inline]
#[target_feature(enable = "pclmulqdq")]
fn gfmul(a: __m128i, b: __m128i) -> __m128i {
    // SAFETY: this function's own feature is the one `__m128i` lanes need.
    unsafe { Product::of(a, b).reduce() }
}

/// Load one 16-byte block as a reflected field element.
///
/// # Safety
/// `p` must be valid for a 16-byte read (no alignment required).
#[inline]
#[target_feature(enable = "ssse3")]
pub(crate) unsafe fn load_block(p: *const u8) -> __m128i {
    byte_reverse(_mm_loadu_si128(p as *const __m128i))
}

#[inline]
fn to_m128(x: u128) -> __m128i {
    // SAFETY: `sse2` is part of the x86-64 baseline.
    unsafe { _mm_set_epi64x((x >> 64) as i64, x as u64 as i64) }
}

#[inline]
fn from_m128(v: __m128i) -> u128 {
    let mut out = [0u8; 16];
    // SAFETY: storing 16 bytes into a 16-byte array.
    unsafe { _mm_storeu_si128(out.as_mut_ptr() as *mut __m128i, v) };
    u128::from_le_bytes(out)
}

impl GhashClmul {
    /// Precompute H¹…H⁸. Panics unless the crate's CPU probe found
    /// AES-NI, PCLMULQDQ and SSSE3 (callers gate on
    /// [`crate::aes::hardware_acceleration_available`]).
    pub fn new(h: u128) -> Self {
        assert!(
            kernel_width() != KernelWidth::None,
            "GhashClmul requires PCLMULQDQ and SSSE3"
        );
        // SAFETY: feature checked above.
        let powers = unsafe { Self::powers_of(to_m128(h)) };
        GhashClmul { powers }
    }

    /// H¹…H⁸ by square-and-multiply, three multiplications deep.
    #[target_feature(enable = "pclmulqdq")]
    fn powers_of(h: __m128i) -> [__m128i; GROUP_BLOCKS] {
        let h2 = gfmul(h, h);
        let h3 = gfmul(h2, h);
        let h4 = gfmul(h2, h2);
        [
            h,
            h2,
            h3,
            h4,
            gfmul(h4, h),
            gfmul(h4, h2),
            gfmul(h4, h3),
            gfmul(h4, h4),
        ]
    }

    /// Hⁿ for `n` in 1..=8, as a reflected field element.
    #[inline]
    pub(crate) fn power(&self, n: usize) -> __m128i {
        self.powers[n - 1]
    }

    /// H¹…H⁸: block `i` of a 128-bit group is multiplied by `powers()[7 − i]`.
    #[inline]
    pub(crate) fn powers(&self) -> &[__m128i; GROUP_BLOCKS] {
        &self.powers
    }

    /// H¹…Hᴹ, the table extended by H⁸ at a time.
    #[target_feature(enable = "pclmulqdq")]
    pub(crate) fn powers_to<const M: usize>(&self) -> [__m128i; M] {
        let mut out = [_mm_setzero_si128(); M];
        for n in 0..M {
            out[n] = match n.checked_sub(GROUP_BLOCKS) {
                None => self.powers[n],
                Some(lower) => gfmul(out[lower], self.power(GROUP_BLOCKS)),
            };
        }
        out
    }

    /// Fold `bytes` into the running hash `y`: full 128-byte groups with
    /// one reduction each, then whole blocks and one zero-padded partial
    /// block chained through the single-block multiply.
    #[target_feature(enable = "pclmulqdq", enable = "ssse3")]
    pub(crate) fn absorb(&self, mut y: __m128i, bytes: &[u8]) -> __m128i {
        let mut groups = bytes.chunks_exact(GROUP_BYTES);
        for g in &mut groups {
            // SAFETY: `g` is exactly GROUP_BYTES long, so block `i` reads
            // bytes 16·i..16·i+16 of it for every i < GROUP_BLOCKS.
            unsafe {
                let p = g.as_ptr();
                let mut acc =
                    Product::of(_mm_xor_si128(y, load_block(p)), self.power(GROUP_BLOCKS));
                for i in 1..GROUP_BLOCKS {
                    acc = acc.add(load_block(p.add(16 * i)), self.power(GROUP_BLOCKS - i));
                }
                y = acc.reduce();
            }
        }
        let mut blocks = groups.remainder().chunks_exact(16);
        for b in &mut blocks {
            // SAFETY: `b` is exactly 16 bytes long.
            let x = unsafe { load_block(b.as_ptr()) };
            y = gfmul(_mm_xor_si128(y, x), self.power(1));
        }
        let rem = blocks.remainder();
        if !rem.is_empty() {
            let mut last = [0u8; 16];
            last[..rem.len()].copy_from_slice(rem);
            // SAFETY: `last` is a 16-byte array.
            let x = unsafe { load_block(last.as_ptr()) };
            y = gfmul(_mm_xor_si128(y, x), self.power(1));
        }
        y
    }

    /// Fold the length block in and return GHASH as big-endian bytes.
    #[target_feature(enable = "pclmulqdq")]
    pub(crate) fn finish(&self, y: __m128i, aad_len: usize, data_len: usize) -> [u8; 16] {
        let lens = _mm_set_epi64x((aad_len as u64 * 8) as i64, (data_len as u64 * 8) as i64);
        from_m128(gfmul(_mm_xor_si128(y, lens), self.power(1))).to_be_bytes()
    }
}

impl GhashImpl for GhashClmul {
    fn mult(&self, x: u128) -> u128 {
        // SAFETY: constructor verified the features.
        from_m128(unsafe { gfmul(to_m128(x), self.power(1)) })
    }

    fn ghash(&self, aad: &[u8], data: &[u8]) -> [u8; 16] {
        // SAFETY: constructor verified the features.
        unsafe {
            let y = self.absorb(_mm_setzero_si128(), aad);
            let y = self.absorb(y, data);
            self.finish(y, aad.len(), data.len())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ghash::gmul_bitwise;

    #[test]
    fn h_powers_match_bitwise() {
        if !crate::aes::hardware_acceleration_available() {
            return;
        }
        for h in [
            0x66e94bd4ef8a2c3b884cfa59ca342b2eu128,
            0xaaaabbbbccccddddeeeeffff00001111u128,
            1u128 << 127, // the field's "1": every power is itself
            1,
        ] {
            let g = GhashClmul::new(h);
            // SAFETY: the feature was checked above.
            let powers = unsafe { g.powers_to::<16>() };
            let mut expect = h;
            for (n, &p) in (1..).zip(&powers) {
                assert_eq!(from_m128(p), expect, "H^{n} for h={h:032x}");
                expect = gmul_bitwise(expect, h);
            }
        }
    }
}
