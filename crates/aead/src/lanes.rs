//! The register widths of the stitched AES-GCM kernel.
//!
//! A [`Lanes`] register holds `BLOCKS` independent 128-bit lanes, each an
//! AES state or a byte-reflected GHASH field element. The kernel's group
//! step, its keystream helpers and the unreduced GHASH product are
//! written once over it and instantiated at two widths:
//!
//! * `__m128i`, one block per register, eight registers per 128-byte
//!   group: `aesenc` and `pclmulqdq`, on every CPU with AES-NI;
//! * [`Wide`] = `__m512i`, four blocks per register, four registers per
//!   256-byte group (sixteen blocks against H¹⁶…H¹, one reduction):
//!   `vaesenc` and `vpclmulqdq` on CPUs with VAES, VPCLMULQDQ and
//!   AVX-512F/BW.
//!
//! The methods carry no `target_feature` of their own and are always
//! inlined: each width's kernel entry point in `gcm.rs` enables its
//! instruction set, and the intrinsics inline into it there.
//! [`WideKeys`] is what a cipher keeps for the wide step: every round key
//! in all four lanes and H¹⁶…H¹ packed four to a register.

#![cfg(target_arch = "x86_64")]

use core::arch::x86_64::*;

use crate::aes::RoundKeys;
use crate::ghash::GhashClmul;

/// The wide register.
pub(crate) type Wide = __m512i;
/// Wide registers per stitched group: 16 blocks, 256 bytes.
pub(crate) const WIDE_REGS: usize = 4;
/// Bytes per stitched group of the wide step.
pub(crate) const WIDE_GROUP: usize = 16 * <Wide as Lanes>::BLOCKS * WIDE_REGS;

/// A register of `BLOCKS` 128-bit lanes.
///
/// Every method is `unsafe` for one reason: it runs the width's
/// instructions, so the CPU must have them (see
/// `crate::aes::kernel_width`) and the caller's context must enable them
/// for the method to inline.
pub(crate) trait Lanes: Copy {
    /// 128-bit blocks per register.
    const BLOCKS: usize;

    /// # Safety
    /// `p` is valid for a read of `16 · BLOCKS` bytes (any alignment).
    unsafe fn load(p: *const u8) -> Self;
    /// # Safety
    /// `p` is valid for a write of `16 · BLOCKS` bytes (any alignment).
    unsafe fn store(p: *mut u8, v: Self);
    /// # Safety
    /// As the trait.
    unsafe fn xor(a: Self, b: Self) -> Self;
    /// One `aesenc` round in every lane.
    ///
    /// # Safety
    /// As the trait.
    unsafe fn aesenc(v: Self, k: Self) -> Self;
    /// The last AES round in every lane.
    ///
    /// # Safety
    /// As the trait.
    unsafe fn aesenclast(v: Self, k: Self) -> Self;
    /// Carry-less multiply of the 64-bit halves `IMM` selects, per lane.
    ///
    /// # Safety
    /// As the trait.
    unsafe fn clmul<const IMM: i32>(a: Self, b: Self) -> Self;
    /// Reverse the 16 bytes of every lane.
    ///
    /// # Safety
    /// As the trait.
    unsafe fn byte_reverse(v: Self) -> Self;
    /// Lane `l` = the byte-reversed counter block `ctr` advanced by `l`
    /// (`inc32` on its low 32 bits).
    ///
    /// # Safety
    /// As the trait.
    unsafe fn counters(ctr: __m128i) -> Self;
    /// Every lane's counter advanced by `BLOCKS`.
    ///
    /// # Safety
    /// As the trait.
    unsafe fn next_counters(c: Self) -> Self;
    /// `x` in lane 0, zero in the others.
    ///
    /// # Safety
    /// As the trait.
    unsafe fn low(x: __m128i) -> Self;
    /// The XOR of every lane.
    ///
    /// # Safety
    /// As the trait.
    unsafe fn fold(v: Self) -> __m128i;
}

/// One lane: today's AES-NI and PCLMULQDQ instructions.
impl Lanes for __m128i {
    const BLOCKS: usize = 1;

    /// # Safety
    /// As the trait.
    #[inline(always)]
    unsafe fn load(p: *const u8) -> Self {
        _mm_loadu_si128(p as *const __m128i)
    }
    /// # Safety
    /// As the trait.
    #[inline(always)]
    unsafe fn store(p: *mut u8, v: Self) {
        _mm_storeu_si128(p as *mut __m128i, v)
    }
    /// # Safety
    /// As the trait.
    #[inline(always)]
    unsafe fn xor(a: Self, b: Self) -> Self {
        _mm_xor_si128(a, b)
    }
    /// # Safety
    /// As the trait.
    #[inline(always)]
    unsafe fn aesenc(v: Self, k: Self) -> Self {
        _mm_aesenc_si128(v, k)
    }
    /// # Safety
    /// As the trait.
    #[inline(always)]
    unsafe fn aesenclast(v: Self, k: Self) -> Self {
        _mm_aesenclast_si128(v, k)
    }
    /// # Safety
    /// As the trait.
    #[inline(always)]
    unsafe fn clmul<const IMM: i32>(a: Self, b: Self) -> Self {
        _mm_clmulepi64_si128::<IMM>(a, b)
    }
    /// # Safety
    /// As the trait.
    #[inline(always)]
    unsafe fn byte_reverse(v: Self) -> Self {
        crate::aes::byte_reverse(v)
    }
    /// # Safety
    /// As the trait.
    #[inline(always)]
    unsafe fn counters(ctr: __m128i) -> Self {
        ctr
    }
    /// # Safety
    /// As the trait.
    #[inline(always)]
    unsafe fn next_counters(c: Self) -> Self {
        _mm_add_epi32(c, _mm_set_epi32(0, 0, 0, 1))
    }
    /// # Safety
    /// As the trait.
    #[inline(always)]
    unsafe fn low(x: __m128i) -> Self {
        x
    }
    /// # Safety
    /// As the trait.
    #[inline(always)]
    unsafe fn fold(v: Self) -> __m128i {
        v
    }
}

/// Four lanes: VAES and VPCLMULQDQ on 512-bit registers.
impl Lanes for __m512i {
    const BLOCKS: usize = 4;

    /// # Safety
    /// As the trait.
    #[inline(always)]
    unsafe fn load(p: *const u8) -> Self {
        _mm512_loadu_si512(p as *const __m512i)
    }
    /// # Safety
    /// As the trait.
    #[inline(always)]
    unsafe fn store(p: *mut u8, v: Self) {
        _mm512_storeu_si512(p as *mut __m512i, v)
    }
    /// # Safety
    /// As the trait.
    #[inline(always)]
    unsafe fn xor(a: Self, b: Self) -> Self {
        _mm512_xor_si512(a, b)
    }
    /// # Safety
    /// As the trait.
    #[inline(always)]
    unsafe fn aesenc(v: Self, k: Self) -> Self {
        _mm512_aesenc_epi128(v, k)
    }
    /// # Safety
    /// As the trait.
    #[inline(always)]
    unsafe fn aesenclast(v: Self, k: Self) -> Self {
        _mm512_aesenclast_epi128(v, k)
    }
    /// # Safety
    /// As the trait.
    #[inline(always)]
    unsafe fn clmul<const IMM: i32>(a: Self, b: Self) -> Self {
        _mm512_clmulepi64_epi128::<IMM>(a, b)
    }
    /// # Safety
    /// As the trait.
    #[inline(always)]
    unsafe fn byte_reverse(v: Self) -> Self {
        let reverse = _mm_set_epi8(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15);
        _mm512_shuffle_epi8(v, _mm512_broadcast_i32x4(reverse))
    }
    /// # Safety
    /// As the trait.
    #[inline(always)]
    unsafe fn counters(ctr: __m128i) -> Self {
        let lane = _mm512_set_epi32(0, 0, 0, 3, 0, 0, 0, 2, 0, 0, 0, 1, 0, 0, 0, 0);
        _mm512_add_epi32(_mm512_broadcast_i32x4(ctr), lane)
    }
    /// # Safety
    /// As the trait.
    #[inline(always)]
    unsafe fn next_counters(c: Self) -> Self {
        _mm512_add_epi32(c, _mm512_broadcast_i32x4(_mm_set_epi32(0, 0, 0, 4)))
    }
    /// # Safety
    /// As the trait.
    #[inline(always)]
    unsafe fn low(x: __m128i) -> Self {
        _mm512_zextsi128_si512(x)
    }
    /// # Safety
    /// As the trait.
    #[inline(always)]
    unsafe fn fold(v: Self) -> __m128i {
        let halves = _mm256_xor_si256(_mm512_castsi512_si256(v), _mm512_extracti64x4_epi64::<1>(v));
        _mm_xor_si128(
            _mm256_castsi256_si128(halves),
            _mm256_extracti128_si256::<1>(halves),
        )
    }
}

/// What a cipher keeps for the wide step.
pub(crate) struct WideKeys {
    /// Every round key in all four lanes.
    pub(crate) keys: RoundKeys<Wide>,
    /// `powers[k]` lane `l` = H^(4k + 4 − l): block `i` of a group is
    /// multiplied by H^(16 − i) in register `WIDE_REGS − 1 − i / 4`.
    pub(crate) powers: [Wide; WIDE_REGS],
}

impl WideKeys {
    /// Spread `keys` and the powers of `ghash`'s H over the wide lanes.
    ///
    /// # Safety
    /// The CPU has the wide features (`crate::aes::kernel_width` is
    /// `KernelWidth::Wide`).
    #[target_feature(enable = "avx512f", enable = "pclmulqdq")]
    pub(crate) unsafe fn new(keys: &RoundKeys, ghash: &GhashClmul) -> WideKeys {
        const BLOCKS: usize = <Wide as Lanes>::BLOCKS;
        let h = ghash.powers_to::<{ BLOCKS * WIDE_REGS }>();
        let mut wide = WideKeys {
            keys: RoundKeys {
                rk: [_mm512_setzero_si512(); 15],
                nr: keys.nr,
            },
            powers: [_mm512_setzero_si512(); WIDE_REGS],
        };
        for (w, &k) in wide.keys.rk.iter_mut().zip(&keys.rk) {
            *w = _mm512_broadcast_i32x4(k);
        }
        for (k, w) in wide.powers.iter_mut().enumerate() {
            let lanes: [__m128i; BLOCKS] = std::array::from_fn(|l| h[BLOCKS * k + BLOCKS - 1 - l]);
            *w = <Wide as Lanes>::load(lanes.as_ptr().cast());
        }
        wide
    }
}
