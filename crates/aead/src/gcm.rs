//! AES-GCM authenticated encryption (NIST SP 800-38D).
//!
//! The mode is generic over a block-cipher engine and a GHASH engine so
//! the four library profiles of the paper can mix and match:
//!
//! | profile | AES engine | GHASH engine |
//! |---|---|---|
//! | OpenSSL / BoringSSL | 8-block AES-NI pipeline | PCLMUL, 8-block aggregated, one reduction per 128 B |
//! | Libsodium | single-block AES-NI | PCLMUL (same GHASH engine) |
//! | CryptoPP (gcc build) | software T-tables | Shoup 4-bit tables |
//!
//! The OpenSSL/BoringSSL pair does not run as two engines but as one
//! **stitched kernel** (`stitched` below): a single pass over the data in
//! which, per group, the GHASH multiplies of the group's ciphertext
//! blocks issue between the AES rounds of its counter blocks. Sealing
//! hashes the group it wrote one step earlier; opening hashes the group
//! it is about to decrypt.
//!
//! The group step is written once over a register of 128-bit lanes
//! (`crate::lanes`) and the pair steps at the widest width the CPU has,
//! probed once per process and chosen when the cipher is built:
//!
//! | step | instructions | group | GHASH powers |
//! |---|---|---|---|
//! | 128-bit | `aesenc`, `pclmulqdq` on eight `__m128i` | 128 B | H⁸…H¹ |
//! | wide | `vaesenc`, `vpclmulqdq` on four `__m512i` (VAES, VPCLMULQDQ, AVX-512F/BW) | 256 B | H¹⁶…H¹ |
//!
//! Either way each group is reduced once. The wide step's broadcast
//! round keys and packed H powers are kept with the cipher; a CPU
//! without the wide features runs the 128-bit step, and so does a record
//! too short for one wide step (a seal under two wide groups, an open
//! under one), which the 128-bit step still stitches. The seal lag, the
//! AAD, the tails, the three I/O forms, the failed-open undo and the
//! engine block counters (which count by length) are the same code at
//! both widths, so the bytes, tags and counts are too.
//!
//! Like BoringSSL's `EVP_AEAD_CTX_seal`, the kernel reads a source and
//! writes a destination, so a record is written where it will travel and
//! never copied first. One body serves three forms of the same call:
//!
//! * in place ([`AesGcm::seal_detached`], [`AesGcm::open_detached`]):
//!   destination and source are one buffer;
//! * apart ([`AesGcm::seal_to`], [`AesGcm::open_to`]): the destination
//!   is another, possibly uninitialised, buffer;
//! * to the front ([`AesGcm::open_to_front`], opening only): the
//!   plaintext lands below its ciphertext in the same buffer, which
//!   strips a record's framing without a second pass.
//!
//! Each block is loaded before it is stored and every group is hashed
//! before it is overwritten, which is what makes the three forms one.
//! A forged record is only known to be forged after it has been
//! decrypted, so a failed open undoes what it wrote: in place, it
//! re-applies the keystream and hands the ciphertext back untouched, as
//! the two-pass path (verify, then decrypt) does by construction; apart,
//! it zeroes the destination; to the front, it restores the ciphertext
//! and zeroes the bytes below it. The source of an open that fails is
//! always left as it was. Every other engine pair copies first and then
//! runs the generic two passes: they model the slower libraries and
//! serve as the differential oracle for the kernel.
//!
//! Only 96-bit nonces are supported (the only length the paper — and
//! every sane protocol — uses); each ciphertext carries a 128-bit tag.

use std::mem::MaybeUninit;
use std::ptr;

use crate::aes::{inc32, BlockEncrypt, SoftAes};
use crate::ct::ct_eq;
use crate::error::{Error, Result};
use crate::ghash::{GhashImpl, GhashSoft};
use crate::{NONCE_LEN, TAG_LEN};
use empi_trace::engine_counters as counters;

#[cfg(target_arch = "x86_64")]
use crate::aes::{
    counter_lanes, finish_xor, kernel_width, keystream_begin, round, AesNi, AesNiPipelined,
    KernelWidth, RoundKeys,
};
#[cfg(target_arch = "x86_64")]
use crate::ghash::{GhashClmul, Product};
#[cfg(target_arch = "x86_64")]
use crate::lanes::{Lanes, Wide, WideKeys, WIDE_GROUP, WIDE_REGS};
#[cfg(target_arch = "x86_64")]
use core::arch::x86_64::{__m128i, _mm_setzero_si128};

/// Which AES engine to instantiate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AesEngineKind {
    /// Portable T-table software AES.
    Soft,
    /// AES-NI, one block at a time.
    Ni,
    /// AES-NI, eight interleaved blocks; paired with
    /// [`GhashEngineKind::Clmul`] it runs as the stitched one-pass kernel.
    NiPipelined,
}

/// Which GHASH engine to instantiate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GhashEngineKind {
    /// Shoup 4-bit tables.
    Soft,
    /// PCLMULQDQ with 8-block aggregation (one reduction per 128 bytes).
    Clmul,
}

enum AesEngine {
    Soft(SoftAes),
    #[cfg(target_arch = "x86_64")]
    Ni(AesNi),
    #[cfg(target_arch = "x86_64")]
    NiPipelined(AesNiPipelined),
}

impl AesEngine {
    #[inline]
    fn encrypt_block(&self, block: &mut [u8; 16]) {
        match self {
            AesEngine::Soft(a) => {
                counters::add_aes_blocks_soft(1);
                a.encrypt_block(block)
            }
            #[cfg(target_arch = "x86_64")]
            AesEngine::Ni(a) => {
                counters::add_aes_blocks_ni(1);
                a.encrypt_block(block)
            }
            #[cfg(target_arch = "x86_64")]
            AesEngine::NiPipelined(a) => {
                counters::add_aes_blocks_pipelined(1);
                a.encrypt_block(block)
            }
        }
    }

    #[inline]
    fn ctr_apply(&self, ctr: &[u8; 16], buf: &mut [u8]) {
        let blocks = buf.len().div_ceil(16) as u64;
        match self {
            AesEngine::Soft(a) => {
                counters::add_aes_blocks_soft(blocks);
                a.ctr_apply(ctr, buf)
            }
            #[cfg(target_arch = "x86_64")]
            AesEngine::Ni(a) => {
                counters::add_aes_blocks_ni(blocks);
                a.ctr_apply(ctr, buf)
            }
            #[cfg(target_arch = "x86_64")]
            AesEngine::NiPipelined(a) => {
                counters::add_aes_blocks_pipelined(blocks);
                a.ctr_apply(ctr, buf)
            }
        }
    }
}

enum GhashEngine {
    Soft(GhashSoft),
    #[cfg(target_arch = "x86_64")]
    Clmul(GhashClmul),
}

/// GHASH blocks of one record: AAD + data + the final length block.
#[inline]
fn ghash_blocks(aad_len: usize, data_len: usize) -> u64 {
    (aad_len.div_ceil(16) + data_len.div_ceil(16) + 1) as u64
}

impl GhashEngine {
    #[inline]
    fn ghash(&self, aad: &[u8], data: &[u8]) -> [u8; 16] {
        let blocks = ghash_blocks(aad.len(), data.len());
        match self {
            GhashEngine::Soft(g) => {
                counters::add_ghash_blocks_soft(blocks);
                g.ghash(aad, data)
            }
            #[cfg(target_arch = "x86_64")]
            GhashEngine::Clmul(g) => {
                counters::add_ghash_blocks_clmul(blocks);
                g.ghash(aad, data)
            }
        }
    }
}

/// An AES-GCM cipher bound to one key and one engine combination.
///
/// The `Debug` impl deliberately prints no key material.
pub struct AesGcm {
    aes: AesEngine,
    ghash: GhashEngine,
    /// The wide step's keys: present when this cipher is the stitched
    /// pair on a CPU with the wide features. Boxed: inline, their 1.2 KB
    /// and 64-byte alignment would ride in every cipher of every profile
    /// (`pp_small`'s peak RSS read 0.85 MB higher that way).
    #[cfg(target_arch = "x86_64")]
    wide: Option<Box<WideKeys>>,
    key_bits: usize,
}

impl std::fmt::Debug for AesGcm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut d = f.debug_struct("AesGcm");
        d.field("key_bits", &self.key_bits);
        #[cfg(target_arch = "x86_64")]
        if let Some(width) = self.step_width() {
            d.field("stitched_step", &width);
        }
        d.finish_non_exhaustive()
    }
}

impl AesGcm {
    /// Build with the fastest engines the CPU supports.
    pub fn new(key: &[u8]) -> Result<Self> {
        if crate::aes::hardware_acceleration_available() {
            Self::with_engines(AesEngineKind::NiPipelined, GhashEngineKind::Clmul, key)
        } else {
            counters::add_hw_fallback(1);
            Self::with_engines(AesEngineKind::Soft, GhashEngineKind::Soft, key)
        }
    }

    /// Build with an explicit engine combination.
    ///
    /// Returns [`Error::HardwareUnavailable`] if a hardware engine is
    /// requested on a CPU without AES-NI/PCLMULQDQ.
    pub fn with_engines(
        aes_kind: AesEngineKind,
        ghash_kind: GhashEngineKind,
        key: &[u8],
    ) -> Result<Self> {
        let aes = match aes_kind {
            AesEngineKind::Soft => AesEngine::Soft(SoftAes::new(key)?),
            #[cfg(target_arch = "x86_64")]
            AesEngineKind::Ni => AesEngine::Ni(AesNi::new(key)?),
            #[cfg(target_arch = "x86_64")]
            AesEngineKind::NiPipelined => AesEngine::NiPipelined(AesNiPipelined::new(key)?),
            #[cfg(not(target_arch = "x86_64"))]
            _ => return Err(Error::HardwareUnavailable),
        };
        // H = E(K, 0^128).
        let mut h_block = [0u8; 16];
        aes.encrypt_block(&mut h_block);
        let h = u128::from_be_bytes(h_block);
        let ghash = match ghash_kind {
            GhashEngineKind::Soft => GhashEngine::Soft(GhashSoft::new(h)),
            #[cfg(target_arch = "x86_64")]
            GhashEngineKind::Clmul => {
                if !crate::aes::hardware_acceleration_available() {
                    return Err(Error::HardwareUnavailable);
                }
                GhashEngine::Clmul(GhashClmul::new(h))
            }
            #[cfg(not(target_arch = "x86_64"))]
            GhashEngineKind::Clmul => return Err(Error::HardwareUnavailable),
        };
        #[cfg(target_arch = "x86_64")]
        let wide = match (&aes, &ghash) {
            (AesEngine::NiPipelined(a), GhashEngine::Clmul(g))
                if kernel_width() == KernelWidth::Wide =>
            {
                // SAFETY: the probe found the wide features.
                Some(Box::new(unsafe { WideKeys::new(a.keys(), g) }))
            }
            _ => None,
        };
        Ok(AesGcm {
            aes,
            ghash,
            #[cfg(target_arch = "x86_64")]
            wide,
            key_bits: key.len() * 8,
        })
    }

    #[inline]
    fn counter_blocks(nonce: &[u8; NONCE_LEN]) -> ([u8; 16], [u8; 16]) {
        let mut j0 = [0u8; 16];
        j0[..12].copy_from_slice(nonce);
        j0[15] = 1;
        let mut ctr1 = j0;
        inc32(&mut ctr1);
        (j0, ctr1)
    }

    /// The tag: GHASH output `s` masked with E(K, J₀).
    #[inline]
    fn mask(&self, j0: &[u8; 16], s: [u8; 16]) -> [u8; 16] {
        let mut tag = *j0;
        self.aes.encrypt_block(&mut tag);
        for (t, s) in tag.iter_mut().zip(s) {
            *t ^= s;
        }
        tag
    }

    /// The engines of the stitched kernel, when this cipher is that pair.
    #[cfg(target_arch = "x86_64")]
    #[inline]
    fn stitched_pair(&self) -> Option<(&AesNiPipelined, &GhashClmul)> {
        match (&self.aes, &self.ghash) {
            (AesEngine::NiPipelined(a), GhashEngine::Clmul(g)) => Some((a, g)),
            _ => None,
        }
    }

    /// The register width the stitched kernel steps at, when this cipher
    /// is that pair.
    #[cfg(target_arch = "x86_64")]
    pub(crate) fn step_width(&self) -> Option<KernelWidth> {
        self.stitched_pair()?;
        Some(if self.wide.is_some() {
            KernelWidth::Wide
        } else {
            KernelWidth::Bits128
        })
    }

    /// Encrypt `buf` in place and return the authentication tag.
    pub fn seal_detached(&self, nonce: &[u8; NONCE_LEN], aad: &[u8], buf: &mut [u8]) -> [u8; 16] {
        // SAFETY: one exclusive buffer, read and written in place.
        unsafe { self.seal_io(nonce, aad, Io::in_place(buf)) }
    }

    /// Encrypt `src` into `dst` and return the authentication tag.
    /// Every byte of `dst` is written.
    ///
    /// # Panics
    /// If `dst` is not exactly as long as `src`.
    pub fn seal_to(
        &self,
        nonce: &[u8; NONCE_LEN],
        aad: &[u8],
        src: &[u8],
        dst: &mut [MaybeUninit<u8>],
    ) -> [u8; 16] {
        // SAFETY: a shared and an exclusive borrow never overlap.
        unsafe { self.seal_io(nonce, aad, Io::apart(src, dst)) }
    }

    /// Verify `tag` over the ciphertext in `buf` and decrypt in place.
    ///
    /// On failure the buffer is left untouched (still ciphertext) and
    /// [`Error::AuthFailure`] is returned.
    pub fn open_detached(
        &self,
        nonce: &[u8; NONCE_LEN],
        aad: &[u8],
        buf: &mut [u8],
        tag: &[u8; TAG_LEN],
    ) -> Result<()> {
        // SAFETY: as in `seal_detached`.
        unsafe { self.open_io(nonce, aad, Io::in_place(buf), tag) }
    }

    /// Verify `tag` over the ciphertext `src` and decrypt it into `dst`.
    /// Every byte of `dst` is written: on failure it is all zeros, and
    /// [`Error::AuthFailure`] is returned.
    ///
    /// # Panics
    /// If `dst` is not exactly as long as `src`.
    pub fn open_to(
        &self,
        nonce: &[u8; NONCE_LEN],
        aad: &[u8],
        src: &[u8],
        dst: &mut [MaybeUninit<u8>],
        tag: &[u8; TAG_LEN],
    ) -> Result<()> {
        // SAFETY: as in `seal_to`.
        unsafe { self.open_io(nonce, aad, Io::apart(src, dst), tag) }
    }

    /// Verify `tag` over the ciphertext `buf[at..]` and decrypt it into
    /// the front of the buffer, `buf[..buf.len() - at]`. On failure the
    /// ciphertext is left as it was, what the open wrote below it is
    /// zeroed, and [`Error::AuthFailure`] is returned.
    ///
    /// # Panics
    /// If `at > buf.len()`.
    pub fn open_to_front(
        &self,
        nonce: &[u8; NONCE_LEN],
        aad: &[u8],
        buf: &mut [u8],
        at: usize,
        tag: &[u8; TAG_LEN],
    ) -> Result<()> {
        // SAFETY: one exclusive buffer, written at or below what is read.
        unsafe { self.open_io(nonce, aad, Io::to_front(buf, at), tag) }
    }

    /// The one seal behind the three forms.
    ///
    /// # Safety
    /// `io` upholds [`Io`]'s contract.
    unsafe fn seal_io(&self, nonce: &[u8; NONCE_LEN], aad: &[u8], io: Io) -> [u8; 16] {
        let (j0, ctr1) = Self::counter_blocks(nonce);
        #[cfg(target_arch = "x86_64")]
        if let Some((aes, ghash)) = self.stitched_pair() {
            let s = stitched_counted(aes, ghash, self.wide.as_deref(), false, &ctr1, aad, io);
            return self.mask(&j0, s);
        }
        let buf = io.copied();
        self.aes.ctr_apply(&ctr1, buf);
        self.mask(&j0, self.ghash.ghash(aad, buf))
    }

    /// The one open behind the three forms, with the failed-open
    /// contract of each ([`Io::undo`], [`Io::clear_spill`]).
    ///
    /// # Safety
    /// As [`Self::seal_io`].
    unsafe fn open_io(
        &self,
        nonce: &[u8; NONCE_LEN],
        aad: &[u8],
        io: Io,
        tag: &[u8; TAG_LEN],
    ) -> Result<()> {
        let (j0, ctr1) = Self::counter_blocks(nonce);
        #[cfg(target_arch = "x86_64")]
        if let Some((aes, ghash)) = self.stitched_pair() {
            let s = stitched_counted(aes, ghash, self.wide.as_deref(), true, &ctr1, aad, io);
            let expect = self.mask(&j0, s);
            if ct_eq(&expect, tag) {
                return Ok(());
            }
            // The kernel decrypted while it hashed. CTR is an involution:
            // the same keystream turns the plaintext back into the
            // ciphertext. Not counted — the engine counters report the
            // blocks of the record, as the two-pass path does.
            io.undo(|buf| aes.ctr_apply(&ctr1, buf));
            return Err(Error::AuthFailure);
        }
        let expect = self.mask(&j0, self.ghash.ghash(aad, io.src()));
        if !ct_eq(&expect, tag) {
            io.clear_spill();
            return Err(Error::AuthFailure);
        }
        self.aes.ctr_apply(&ctr1, io.copied());
        Ok(())
    }

    /// Encrypt `plaintext`, returning `ciphertext ‖ tag`.
    pub fn seal(&self, nonce: &[u8; NONCE_LEN], aad: &[u8], plaintext: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(plaintext.len() + TAG_LEN);
        let dst = &mut out.spare_capacity_mut()[..plaintext.len()];
        let tag = self.seal_to(nonce, aad, plaintext, dst);
        // SAFETY: `seal_to` wrote every byte of the first `len`.
        unsafe { out.set_len(plaintext.len()) };
        out.extend_from_slice(&tag);
        out
    }

    /// Decrypt `ciphertext ‖ tag`, returning the plaintext.
    pub fn open(&self, nonce: &[u8; NONCE_LEN], aad: &[u8], ct_and_tag: &[u8]) -> Result<Vec<u8>> {
        let (ct, tag) = ct_and_tag
            .split_last_chunk()
            .ok_or(Error::CiphertextTooShort {
                got: ct_and_tag.len(),
            })?;
        let mut out = Vec::with_capacity(ct.len());
        self.open_to(
            nonce,
            aad,
            ct,
            &mut out.spare_capacity_mut()[..ct.len()],
            tag,
        )?;
        // SAFETY: the open succeeded and wrote every byte.
        unsafe { out.set_len(ct.len()) };
        Ok(out)
    }
}

/// Where one seal or open reads and writes: `len` bytes at `src`, stored
/// to `dst`. `dst` is `src` (in place), lies wholly apart from it, or
/// lies below it in the same buffer (to the front): each block is
/// loaded before it is stored, and a store at or below its own load
/// never overwrites a byte not yet read.
///
/// A private view: its constructors take the borrows, and it must not
/// outlive them.
#[derive(Clone, Copy)]
struct Io {
    src: *const u8,
    dst: *mut u8,
    len: usize,
}

impl Io {
    fn in_place(buf: &mut [u8]) -> Io {
        let p = buf.as_mut_ptr();
        Io {
            src: p,
            dst: p,
            len: buf.len(),
        }
    }

    fn apart(src: &[u8], dst: &mut [MaybeUninit<u8>]) -> Io {
        assert_eq!(src.len(), dst.len(), "destination length");
        Io {
            src: src.as_ptr(),
            dst: dst.as_mut_ptr().cast(),
            len: src.len(),
        }
    }

    fn to_front(buf: &mut [u8], at: usize) -> Io {
        let len = buf
            .len()
            .checked_sub(at)
            .expect("the ciphertext lies inside the buffer");
        let p = buf.as_mut_ptr();
        // `p + at` is in bounds: `at <= buf.len()`.
        Io {
            src: p.wrapping_add(at),
            dst: p,
            len,
        }
    }

    /// The bytes of `dst` below `src` that are not `src`'s: none in
    /// place, all of them apart.
    fn spill(&self) -> usize {
        let (src, dst) = (self.src as usize, self.dst as usize);
        if dst <= src {
            (src - dst).min(self.len)
        } else {
            self.len
        }
    }

    /// The source bytes.
    ///
    /// # Safety
    /// The borrows behind `self` are alive and nothing writes `dst`
    /// while the slice is used.
    unsafe fn src<'a>(&self) -> &'a [u8] {
        std::slice::from_raw_parts(self.src, self.len)
    }

    /// The destination, holding a copy of the source: the first pass of
    /// the two-pass engine pairs.
    ///
    /// # Safety
    /// As [`Io::src`]; the source is not read through `self` again.
    unsafe fn copied<'a>(&self) -> &'a mut [u8] {
        if self.src != self.dst.cast_const() {
            ptr::copy(self.src, self.dst, self.len);
        }
        std::slice::from_raw_parts_mut(self.dst, self.len)
    }

    /// After a failed open that wrote nothing: zero the destination's
    /// bytes that are not the source's.
    ///
    /// # Safety
    /// As [`Io::src`].
    unsafe fn clear_spill(&self) {
        ptr::write_bytes(self.dst, 0, self.spill())
    }

    /// After a failed open that wrote plaintext: hand the source back as
    /// it was — `reencrypt` turns the destination back into ciphertext,
    /// which moves back over the source where the two overlap — and
    /// zero the destination's other bytes.
    ///
    /// # Safety
    /// As [`Io::src`].
    unsafe fn undo(&self, reencrypt: impl FnOnce(&mut [u8])) {
        if self.spill() < self.len {
            // Overlapping: in place or to the front, two views of one
            // exclusive buffer, so the source may be written.
            reencrypt(std::slice::from_raw_parts_mut(self.dst, self.len));
            ptr::copy(self.dst, self.src.cast_mut(), self.len);
        }
        self.clear_spill();
    }
}

/// The stitched kernel with the engine block counters of the two passes
/// it replaces: ⌈len/16⌉ pipelined AES blocks, AAD + data + 1 GHASH
/// blocks, whichever width steps it.
///
/// # Safety
/// `io` upholds [`Io`]'s contract.
#[cfg(target_arch = "x86_64")]
#[inline]
unsafe fn stitched_counted(
    aes: &AesNiPipelined,
    ghash: &GhashClmul,
    wide: Option<&WideKeys>,
    open: bool,
    ctr1: &[u8; 16],
    aad: &[u8],
    io: Io,
) -> [u8; 16] {
    counters::add_aes_blocks_pipelined(io.len.div_ceil(16) as u64);
    counters::add_ghash_blocks_clmul(ghash_blocks(aad.len(), io.len));
    // A record the wide step would not stitch at all — a seal shorter
    // than two wide groups only encrypts its first — takes the 128-bit
    // step, which still does.
    let wide = wide.filter(|_| io.len >= if open { WIDE_GROUP } else { 2 * WIDE_GROUP });
    // SAFETY: both engines' constructors verified `aes`, `pclmulqdq` and
    // `ssse3`, and `wide` exists only where the probe found the wide
    // features; the caller vouches for `io`.
    unsafe {
        match wide {
            Some(w) => stitched_wide(aes, ghash, w, open, ctr1, aad, io),
            None => stitched_128(aes, ghash, open, ctr1, aad, io),
        }
    }
}

/// The stitched kernel at 128 bits: eight `__m128i` blocks a step
/// against H⁸…H¹.
///
/// # Safety
/// As [`stitched`], on a CPU with AES-NI, PCLMULQDQ and SSSE3.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "aes", enable = "pclmulqdq", enable = "ssse3")]
unsafe fn stitched_128(
    aes: &AesNiPipelined,
    ghash: &GhashClmul,
    open: bool,
    ctr1: &[u8; 16],
    aad: &[u8],
    io: Io,
) -> [u8; 16] {
    let step = Step {
        keys: aes.keys(),
        powers: ghash.powers(),
    };
    stitched(aes, ghash, step, open, ctr1, aad, io)
}

/// The stitched kernel on the wide registers: sixteen blocks a step, as
/// four `__m512i`, against H¹⁶…H¹.
///
/// # Safety
/// As [`stitched`], on a CPU with the wide features.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "aes,pclmulqdq,ssse3,avx512f,avx512bw,vaes,vpclmulqdq")]
unsafe fn stitched_wide(
    aes: &AesNiPipelined,
    ghash: &GhashClmul,
    wide: &WideKeys,
    open: bool,
    ctr1: &[u8; 16],
    aad: &[u8],
    io: Io,
) -> [u8; 16] {
    let step = Step::<Wide, WIDE_REGS> {
        keys: &wide.keys,
        powers: &wide.powers,
    };
    stitched(aes, ghash, step, open, ctr1, aad, io)
}

/// What one width's group step reads: the round keys in every lane, and
/// for register `j` of a group `powers[N − 1 − j]`, the powers of H its
/// blocks are multiplied by (H^blocks for block 0 … H¹ for the last).
#[cfg(target_arch = "x86_64")]
#[derive(Clone, Copy)]
struct Step<'a, V, const N: usize> {
    keys: &'a RoundKeys<V>,
    powers: &'a [V; N],
}

/// The one-pass AES-GCM kernel: CTR-crypt `io`'s source into its
/// destination from counter block `ctr1` and return GHASH(aad,
/// ciphertext), touching the data once.
///
/// Full groups of `N` registers go through [`stitched_group`]. Opening
/// hashes each source group in the step that decrypts it, before the
/// step's stores. Sealing cannot hash a group before it is written, so it
/// runs one group behind: the first group is only encrypted, every later
/// step encrypts group *g* while hashing the ciphertext of group *g − 1*
/// (in the destination, still in L1), and the last group is hashed with
/// the tail. The tail (less than a group) and the AAD take the engines'
/// own 128-bit paths.
///
/// Written once for both widths: it carries no `target_feature` and is
/// always inlined into [`stitched_128`] or [`stitched_wide`], whose
/// features the steps inline under.
///
/// # Safety
/// `io` upholds [`Io`]'s contract; the CPU runs `V`'s instructions.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
unsafe fn stitched<V: Lanes, const N: usize>(
    aes: &AesNiPipelined,
    ghash: &GhashClmul,
    step: Step<'_, V, N>,
    open: bool,
    ctr1: &[u8; 16],
    aad: &[u8],
    io: Io,
) -> [u8; 16] {
    let group = 16 * V::BLOCKS * N;
    let Io { src, dst, len } = io;
    let mut y = ghash.absorb(_mm_setzero_si128(), aad);
    let mut ctr = counter_lanes(ctr1);
    let full = len - len % group;
    let lag = if open { 0 } else { group.min(full) };
    // SAFETY: every window below lies inside `..len` of `src` and `dst`
    // (`lag <= off`, `off + group <= full <= len`), and each is read from
    // the source before the same step stores it.
    unsafe {
        aes.ctr_xor(&mut ctr, src, dst, lag);
        for off in (lag..full).step_by(group) {
            let hash = if open {
                src.add(off)
            } else {
                dst.add(off - lag)
            };
            y = stitched_group(step, &mut ctr, y, hash, src.add(off), dst.add(off));
        }
        if open {
            y = ghash.absorb(y, std::slice::from_raw_parts(src.add(full), len - full));
            aes.ctr_xor(&mut ctr, src.add(full), dst.add(full), len - full);
        } else {
            aes.ctr_xor(&mut ctr, src.add(full), dst.add(full), len - full);
            y = ghash.absorb(
                y,
                std::slice::from_raw_parts(dst.add(full - lag), len - full + lag),
            );
        }
    }
    ghash.finish(y, aad.len(), len)
}

/// One step of the stitched kernel: XOR the keystream of the group's
/// `B = N · V::BLOCKS` counters `ctr`…`ctr+B−1` into the `16 · B` bytes
/// at `src`, store them at `dst`, and fold the `B` blocks at `hash` into
/// `y` — (y ⊕ X₀)·Hᴮ ⊕ X₁·Hᴮ⁻¹ ⊕ … ⊕ X_{B−1}·H, the lanes folded and
/// reduced once. AES rounds 1–N each carry one register's carry-less
/// multiplies in their shadow: `aesenc` and `pclmulqdq` issue on
/// different ports and neither chain waits on the other.
///
/// # Safety
/// `hash` and `src` must be valid for reads of `16 · B` bytes, `dst` for
/// writes of as many, with `dst` placed as [`Io`] says; `hash` is read
/// before `dst` is stored, and must not lie partly inside `dst`. No
/// alignment is required. The CPU runs `V`'s instructions.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
unsafe fn stitched_group<V: Lanes, const N: usize>(
    step: Step<'_, V, N>,
    ctr: &mut __m128i,
    y: __m128i,
    hash: *const u8,
    src: *const u8,
    dst: *mut u8,
) -> __m128i {
    let Step { keys, powers } = step;
    let ghash_block = |i: usize| V::byte_reverse(V::load(hash.add(16 * V::BLOCKS * i)));
    let mut blocks = keystream_begin::<V, N>(keys, ctr);
    let mut acc = Product::of(V::xor(V::low(y), ghash_block(0)), powers[N - 1]);
    round(&mut blocks, keys.rk[1]);
    for i in 1..N {
        acc = acc.add(ghash_block(i), powers[N - 1 - i]);
        round(&mut blocks, keys.rk[i + 1]);
    }
    // The rounds no multiply rides on: AES-128 has 9 − N more `aesenc`
    // rounds before the last, AES-256 13 − N.
    for r in N + 1..keys.nr {
        round(&mut blocks, keys.rk[r]);
    }
    finish_xor(blocks, keys.rk[keys.nr], src, dst);
    acc.fold().reduce()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(s: &str) -> Vec<u8> {
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect()
    }

    fn engine_combos() -> Vec<(AesEngineKind, GhashEngineKind)> {
        let mut v = vec![(AesEngineKind::Soft, GhashEngineKind::Soft)];
        if crate::aes::hardware_acceleration_available() {
            v.push((AesEngineKind::Ni, GhashEngineKind::Clmul));
            v.push((AesEngineKind::NiPipelined, GhashEngineKind::Clmul));
            v.push((AesEngineKind::NiPipelined, GhashEngineKind::Soft));
            v.push((AesEngineKind::Soft, GhashEngineKind::Clmul));
        }
        v
    }

    struct Kat {
        key: &'static str,
        iv: &'static str,
        pt: &'static str,
        aad: &'static str,
        ct: &'static str,
        tag: &'static str,
    }

    /// McGrew–Viega GCM spec test cases 1–4 (AES-128) and 15, 13 and
    /// 14 (AES-256), in that order.
    const KATS: &[Kat] = &[
        Kat {
            key: "00000000000000000000000000000000",
            iv: "000000000000000000000000",
            pt: "",
            aad: "",
            ct: "",
            tag: "58e2fccefa7e3061367f1d57a4e7455a",
        },
        Kat {
            key: "00000000000000000000000000000000",
            iv: "000000000000000000000000",
            pt: "00000000000000000000000000000000",
            aad: "",
            ct: "0388dace60b6a392f328c2b971b2fe78",
            tag: "ab6e47d42cec13bdf53a67b21257bddf",
        },
        Kat {
            key: "feffe9928665731c6d6a8f9467308308",
            iv: "cafebabefacedbaddecaf888",
            pt: "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72\
                 1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b391aafd255",
            aad: "",
            ct: "42831ec2217774244b7221b784d0d49ce3aa212f2c02a4e035c17e2329aca12e\
                 21d514b25466931c7d8f6a5aac84aa051ba30b396a0aac973d58e091473f5985",
            tag: "4d5c2af327cd64a62cf35abd2ba6fab4",
        },
        Kat {
            key: "feffe9928665731c6d6a8f9467308308",
            iv: "cafebabefacedbaddecaf888",
            pt: "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72\
                 1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b39",
            aad: "feedfacedeadbeeffeedfacedeadbeefabaddad2",
            ct: "42831ec2217774244b7221b784d0d49ce3aa212f2c02a4e035c17e2329aca12e\
                 21d514b25466931c7d8f6a5aac84aa051ba30b396a0aac973d58e091",
            tag: "5bc94fbc3221a5db94fae95ae7121a47",
        },
        Kat {
            key: "feffe9928665731c6d6a8f9467308308feffe9928665731c6d6a8f9467308308",
            iv: "cafebabefacedbaddecaf888",
            pt: "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72\
                 1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b391aafd255",
            aad: "",
            ct: "522dc1f099567d07f47f37a32a84427d643a8cdcbfe5c0c97598a2bd2555d1aa\
                 8cb08e48590dbb3da7b08b1056828838c5f61e6393ba7a0abcc9f662898015ad",
            tag: "b094dac5d93471bdec1a502270e3cc6c",
        },
        Kat {
            key: "0000000000000000000000000000000000000000000000000000000000000000",
            iv: "000000000000000000000000",
            pt: "",
            aad: "",
            ct: "",
            tag: "530f8afbc74536b9a963b4f1c4cb738b",
        },
        Kat {
            key: "0000000000000000000000000000000000000000000000000000000000000000",
            iv: "000000000000000000000000",
            pt: "00000000000000000000000000000000",
            aad: "",
            ct: "cea7403d4d606b6e074ec5d3baf39d18",
            tag: "d0d1c8a799996bf0265b98b5d48ab919",
        },
    ];

    #[test]
    fn nist_vectors_all_engines() {
        for (ai, gi) in engine_combos() {
            for (i, kat) in KATS.iter().enumerate() {
                let cipher = AesGcm::with_engines(ai, gi, &hex(kat.key)).unwrap();
                let mut nonce = [0u8; 12];
                nonce.copy_from_slice(&hex(kat.iv));
                let pt = hex(&kat.pt.replace(char::is_whitespace, ""));
                let aad = hex(kat.aad);
                let out = cipher.seal(&nonce, &aad, &pt);
                let expect_ct = hex(&kat.ct.replace(char::is_whitespace, ""));
                let expect_tag = hex(kat.tag);
                assert_eq!(
                    &out[..pt.len()],
                    &expect_ct[..],
                    "KAT {i} ct ({ai:?},{gi:?})"
                );
                assert_eq!(
                    &out[pt.len()..],
                    &expect_tag[..],
                    "KAT {i} tag ({ai:?},{gi:?})"
                );
                let back = cipher.open(&nonce, &aad, &out).unwrap();
                assert_eq!(back, pt, "KAT {i} roundtrip");
            }
        }
    }

    #[test]
    fn engine_counters_track_soft_blocks() {
        use empi_trace::engine_counters as counters;
        let before = counters::snapshot();
        let cipher =
            AesGcm::with_engines(AesEngineKind::Soft, GhashEngineKind::Soft, &[7u8; 16]).unwrap();
        let nonce = [1u8; 12];
        let msg = vec![0u8; 64];
        let _wire = cipher.seal(&nonce, b"", &msg);
        let d = counters::snapshot().since(&before);
        // Key setup computes H (1 block); sealing runs 4 CTR blocks plus
        // E(J0), and GHASH folds 4 data blocks plus the length block.
        // Other tests may add more concurrently, so these are floors.
        assert!(
            d.aes_blocks_soft >= 6,
            "aes soft blocks: {}",
            d.aes_blocks_soft
        );
        assert!(
            d.ghash_blocks_soft >= 5,
            "ghash soft blocks: {}",
            d.ghash_blocks_soft
        );
    }

    #[test]
    fn tamper_detection_everywhere() {
        let cipher = AesGcm::new(&[0x11u8; 32]).unwrap();
        let nonce = [9u8; 12];
        let aad = b"header";
        let out = cipher.seal(&nonce, aad, b"the quick brown fox jumps");
        // Flip each byte of the ciphertext+tag in turn.
        for i in 0..out.len() {
            let mut bad = out.clone();
            bad[i] ^= 0x01;
            assert_eq!(
                cipher.open(&nonce, aad, &bad),
                Err(Error::AuthFailure),
                "byte {i}"
            );
        }
        // Wrong AAD.
        assert_eq!(
            cipher.open(&nonce, b"headeR", &out),
            Err(Error::AuthFailure)
        );
        // Wrong nonce.
        let nonce2 = [8u8; 12];
        assert_eq!(cipher.open(&nonce2, aad, &out), Err(Error::AuthFailure));
    }

    #[test]
    fn open_detached_leaves_buffer_on_failure() {
        let cipher = AesGcm::new(&[3u8; 16]).unwrap();
        let nonce = [1u8; 12];
        let mut buf = *b"sixteen byte msg";
        let _good = cipher.seal_detached(&nonce, b"", &mut buf);
        let snapshot = buf;
        let bad_tag = [0u8; 16];
        assert!(cipher
            .open_detached(&nonce, b"", &mut buf, &bad_tag)
            .is_err());
        assert_eq!(buf, snapshot, "failed open must not decrypt");
    }

    /// Deterministic filler bytes.
    fn pattern(len: usize, salt: u8) -> Vec<u8> {
        (0..len)
            .map(|i| (i as u8).wrapping_mul(31).wrapping_add(salt) ^ (i >> 8) as u8)
            .collect()
    }

    const GUARD: usize = 16;
    const MIB: usize = 1 << 20;
    const NONCE: [u8; 12] = [0x4e; 12];

    /// Every width this CPU's stitched kernel can step at; the ones it
    /// cannot are named on stderr.
    fn widths(test: &str) -> Vec<KernelWidth> {
        let all = [KernelWidth::Bits128, KernelWidth::Wide];
        let (run, skip): (Vec<_>, Vec<_>) = all.into_iter().partition(|&w| w <= kernel_width());
        if !skip.is_empty() {
            eprintln!("{test}: this CPU has no {skip:?} step; skipped it");
        }
        run
    }

    /// The stitched pair, stepping at `width` (at most the CPU's).
    fn stitched_cipher(key: &[u8], width: KernelWidth) -> AesGcm {
        let mut cipher =
            AesGcm::with_engines(AesEngineKind::NiPipelined, GhashEngineKind::Clmul, key).unwrap();
        if width == KernelWidth::Bits128 {
            cipher.wide = None;
        }
        assert_eq!(cipher.step_width(), Some(width));
        cipher
    }

    /// Every engine pair, the stitched one at every width the CPU has.
    fn every_cipher(key: &[u8], test: &str) -> Vec<(String, AesGcm)> {
        let mut v = Vec::new();
        for (ai, gi) in engine_combos() {
            if (ai, gi) == (AesEngineKind::NiPipelined, GhashEngineKind::Clmul) {
                for w in widths(test) {
                    v.push((format!("({ai:?},{gi:?}) {w:?}"), stitched_cipher(key, w)));
                }
            } else {
                v.push((
                    format!("({ai:?},{gi:?})"),
                    AesGcm::with_engines(ai, gi, key).unwrap(),
                ));
            }
        }
        v
    }

    /// Seal `pt` with `fast` at byte `offset` of a larger allocation and
    /// open it again: ciphertext, tag and plaintext must match, and the
    /// guard bytes on both sides of the buffer must survive.
    fn check_in_arena(
        fast: &AesGcm,
        aad: &[u8],
        pt: &[u8],
        expect_ct: &[u8],
        expect_tag: &[u8; 16],
        offset: usize,
    ) {
        let what = || {
            format!(
                "{fast:?} aad={} len={} offset={offset}",
                aad.len(),
                pt.len()
            )
        };
        let mut arena = vec![0xA5u8; GUARD + offset + pt.len() + GUARD];
        let (lo, hi) = (GUARD + offset, GUARD + offset + pt.len());
        arena[lo..hi].copy_from_slice(pt);
        let tag = fast.seal_detached(&NONCE, aad, &mut arena[lo..hi]);
        assert!(arena[lo..hi] == *expect_ct, "ciphertext {}", what());
        assert!(tag == *expect_tag, "tag {}", what());
        fast.open_detached(&NONCE, aad, &mut arena[lo..hi], &tag)
            .unwrap_or_else(|e| panic!("open {}: {e:?}", what()));
        assert!(arena[lo..hi] == *pt, "plaintext {}", what());
        let guard = [0xA5u8; 2 * GUARD];
        assert!(
            arena[..lo] == guard[..lo] && arena[hi..] == guard[..GUARD],
            "guard bytes {}",
            what()
        );
    }

    /// The stitched pair at every width against the independent software
    /// engines — ciphertext and tag on seal, plaintext on open — at every
    /// length around the 16-byte block and both group boundaries (128 and
    /// 256 bytes) up to two wide groups and a block, every AAD shape, both
    /// key sizes and every buffer misalignment.
    #[test]
    fn stitched_matches_soft_at_every_boundary() {
        if !crate::aes::hardware_acceleration_available() {
            return;
        }
        let small = 0..=2 * WIDE_GROUP + 16;
        let large = [4095usize, 4096, 4097, 65535, 65536, 65537];
        let widths = widths("stitched_matches_soft_at_every_boundary");
        for key_len in [16usize, 32] {
            let key = pattern(key_len, 1);
            let soft =
                AesGcm::with_engines(AesEngineKind::Soft, GhashEngineKind::Soft, &key).unwrap();
            let fast: Vec<AesGcm> = widths.iter().map(|&w| stitched_cipher(&key, w)).collect();
            for aad_len in [0usize, 8, 24, 33] {
                let aad = pattern(aad_len, 2);
                for len in small.clone().chain(large) {
                    // The table AES is slow in the debug profile: the
                    // 64 KiB lengths run under one AAD shape per key.
                    if len > 4097 && aad_len != 33 {
                        continue;
                    }
                    let pt = pattern(len, 3);
                    let mut expect_ct = pt.clone();
                    let expect_tag = soft.seal_detached(&NONCE, &aad, &mut expect_ct);
                    // Every misalignment for the small lengths, one
                    // (varying) misalignment for each large one.
                    let offsets = if small.contains(&len) {
                        0..16
                    } else {
                        len % 16..len % 16 + 1
                    };
                    for (fast, offset) in fast
                        .iter()
                        .flat_map(|f| offsets.clone().map(move |o| (f, o)))
                    {
                        check_in_arena(fast, &aad, &pt, &expect_ct, &expect_tag, offset);
                    }
                }
            }
        }
    }

    /// The benchmark's own cell — AES-256 over 2 MiB — and one byte more.
    /// The table AES is slow in the debug profile, so one software CTR
    /// pass serves both lengths (CTR is a stream: the shorter ciphertext
    /// is a prefix of the longer) and only the table GHASH runs twice.
    #[test]
    fn stitched_matches_soft_at_2_mib() {
        if !crate::aes::hardware_acceleration_available() {
            return;
        }
        let key = pattern(32, 1);
        let aad = pattern(33, 2);
        let pt = pattern(2 * MIB + 1, 3);
        let soft_aes = SoftAes::new(&key).unwrap();
        let (j0, ctr1) = AesGcm::counter_blocks(&NONCE);
        let mut ct = pt.clone();
        soft_aes.ctr_apply(&ctr1, &mut ct);
        let (mut h, mut ek_j0) = ([0u8; 16], j0);
        soft_aes.encrypt_block(&mut h);
        soft_aes.encrypt_block(&mut ek_j0);
        let soft_ghash = GhashSoft::new(u128::from_be_bytes(h));
        let fast: Vec<AesGcm> = widths("stitched_matches_soft_at_2_mib")
            .into_iter()
            .map(|w| stitched_cipher(&key, w))
            .collect();
        for (len, offset) in [(2 * MIB, 5), (2 * MIB + 1, 11)] {
            let s = soft_ghash.ghash(&aad, &ct[..len]);
            let expect_tag: [u8; 16] = std::array::from_fn(|i| s[i] ^ ek_j0[i]);
            for fast in &fast {
                check_in_arena(fast, &aad, &pt[..len], &ct[..len], &expect_tag, offset);
            }
        }
    }

    /// The 2³² `inc32` wrap landing inside a group, at every width: in
    /// the first group (which sealing only encrypts), in the second (the
    /// first stitched step of a seal) and, for the wide step, between two
    /// 128-bit lanes of one register (after block 18 = lane 2 of the
    /// second group's first register, after block 27 = lane 3 of its
    /// third), against the scalar `inc32` CTR and the table GHASH.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn counter_wrap_inside_stitched_group() {
        if !crate::aes::hardware_acceleration_available() {
            return;
        }
        let key = [9u8; 32];
        let soft_aes = SoftAes::new(&key).unwrap();
        let mut h = [0u8; 16];
        soft_aes.encrypt_block(&mut h);
        let soft_ghash = GhashSoft::new(u128::from_be_bytes(h));
        let aad = b"wrap";
        for width in widths("counter_wrap_inside_stitched_group") {
            let cipher = stitched_cipher(&key, width);
            let (aes, ghash) = cipher.stitched_pair().unwrap();
            let run = |open: bool, ctr: &[u8; 16], buf: &mut Vec<u8>| {
                // SAFETY: the cipher's constructor probed its width's
                // features; one exclusive buffer, in place.
                unsafe {
                    stitched_counted(
                        aes,
                        ghash,
                        cipher.wide.as_deref(),
                        open,
                        ctr,
                        aad,
                        Io::in_place(buf),
                    )
                }
            };
            for blocks_before_wrap in [3u32, 11, 18, 27] {
                let what = format!("{width:?}, wrap after {blocks_before_wrap} blocks");
                let mut ctr = [0x77u8; 16];
                ctr[12..].copy_from_slice(&(u32::MAX - (blocks_before_wrap - 1)).to_be_bytes());
                let pt = pattern(3 * WIDE_GROUP + 40, 5);
                let mut expect_ct = pt.clone();
                soft_aes.ctr_apply(&ctr, &mut expect_ct);
                let expect_s = soft_ghash.ghash(aad, &expect_ct);

                let mut buf = pt.clone();
                let s = run(false, &ctr, &mut buf);
                assert_eq!(buf, expect_ct, "seal, {what}");
                assert_eq!(s, expect_s, "seal hash, {what}");
                let s = run(true, &ctr, &mut buf);
                assert_eq!(buf, pt, "open, {what}");
                assert_eq!(s, expect_s, "open hash, {what}");
            }
        }
    }

    /// Decrypt-while-hashing must not leak into the failure contract, in
    /// any of the three forms, on any engine pair or width: a forged tag,
    /// ciphertext byte or AAD yields `AuthFailure`, the source comes back
    /// byte-identical to the ciphertext passed in, an apart destination
    /// is all zeros, and a to-front open zeroes what it wrote below the
    /// ciphertext.
    #[test]
    fn failed_open_hands_back_the_ciphertext() {
        let nonce = [5u8; 12];
        let aad = *b"record header";
        let at = 20;
        for (name, cipher) in every_cipher(&[0x3cu8; 32], "failed_open_hands_back_the_ciphertext") {
            let rejects = |what: &str, aad: &[u8], ct: &[u8], tag: &[u8; 16]| {
                let what = format!("{name} len={} forged {what}", ct.len());
                let mut buf = ct.to_vec();
                let r = cipher.open_detached(&nonce, aad, &mut buf, tag);
                assert_eq!(r, Err(Error::AuthFailure), "{what}: in place");
                assert!(buf == ct, "{what}: in place, buffer changed");

                let mut out = vec![0xA5u8; ct.len()];
                // SAFETY: `MaybeUninit<u8>` has `u8`'s layout.
                let dst =
                    unsafe { &mut *(out.as_mut_slice() as *mut [u8] as *mut [MaybeUninit<u8>]) };
                let r = cipher.open_to(&nonce, aad, ct, dst, tag);
                assert_eq!(r, Err(Error::AuthFailure), "{what}: apart");
                assert!(
                    out.iter().all(|&b| b == 0),
                    "{what}: apart, destination not zeroed"
                );

                let mut buf = vec![0xA5u8; at];
                buf.extend_from_slice(ct);
                let r = cipher.open_to_front(&nonce, aad, &mut buf, at, tag);
                assert_eq!(r, Err(Error::AuthFailure), "{what}: to the front");
                assert!(buf[at..] == *ct, "{what}: to the front, source changed");
                let (wrote, untouched) = buf[..at].split_at(at.min(ct.len()));
                assert!(
                    wrote.iter().all(|&b| b == 0),
                    "{what}: to the front, not zeroed"
                );
                assert!(
                    untouched.iter().all(|&b| b == 0xA5),
                    "{what}: to the front, overran"
                );
            };
            for len in [1usize, 16, 127, 128, 129, 255, 256, 257, 513, 1000, 65536] {
                let mut ct = pattern(len, 7);
                let tag = cipher.seal_detached(&nonce, &aad, &mut ct);
                let (mut bad_tag, mut bad_aad) = (tag, aad);
                bad_tag[len % 16] ^= 0x80;
                bad_aad[0] ^= 0x01;
                rejects("tag", &aad, &ct, &bad_tag);
                rejects("aad", &bad_aad, &ct, &tag);
                for pos in [0, len / 2, len - 1] {
                    ct[pos] ^= 0x10;
                    rejects("ciphertext byte", &aad, &ct, &tag);
                    ct[pos] ^= 0x10;
                }
            }
        }
    }

    /// A CPU with the wide features steps the stitched pair — built
    /// directly, through `AesGcm::new`, or as the BoringSSL and OpenSSL
    /// profiles — on the wide registers, and every other CPU with AES-NI
    /// on the 128-bit ones: a silent fallback would pass every other test.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn the_stitched_pair_takes_the_widest_step() {
        use crate::profile::{CryptoLibrary, KeySize};
        let width = kernel_width();
        eprintln!("stitched AES-GCM step on this CPU: {width:?}");
        if width == KernelWidth::None {
            return;
        }
        let key = [0x61u8; 32];
        let pair = AesGcm::with_engines(AesEngineKind::NiPipelined, GhashEngineKind::Clmul, &key);
        assert_eq!(pair.unwrap().step_width(), Some(width), "with_engines");
        assert_eq!(
            AesGcm::new(&key).unwrap().step_width(),
            Some(width),
            "AesGcm::new"
        );
        assert_eq!(
            AesGcm::new(&key[..16]).unwrap().step_width(),
            Some(width),
            "AES-128"
        );
        for lib in [CryptoLibrary::BoringSsl, CryptoLibrary::OpenSsl] {
            let c = lib.instantiate(KeySize::Aes256, &key).unwrap();
            assert_eq!(c.step_width(), Some(width), "{lib:?}");
        }
        for (ai, gi) in engine_combos()
            .into_iter()
            .filter(|&(a, _)| a != AesEngineKind::NiPipelined)
        {
            let c = AesGcm::with_engines(ai, gi, &key).unwrap();
            assert_eq!(
                c.step_width(),
                None,
                "({ai:?},{gi:?}) is not the stitched pair"
            );
        }
    }

    #[test]
    fn short_ciphertext_rejected() {
        let cipher = AesGcm::new(&[3u8; 16]).unwrap();
        let nonce = [1u8; 12];
        assert!(matches!(
            cipher.open(&nonce, b"", &[0u8; 15]),
            Err(Error::CiphertextTooShort { got: 15 })
        ));
    }

    #[test]
    fn cross_engine_interop() {
        // A ciphertext produced by one engine combo must decrypt under
        // every other combo — they all implement the same AES-GCM.
        let key = [0x5au8; 32];
        let nonce = [0x42u8; 12];
        let msg: Vec<u8> = (0..777).map(|i| (i % 251) as u8).collect();
        let ciphers = every_cipher(&key, "cross_engine_interop");
        let reference = ciphers[0].1.seal(&nonce, b"aad", &msg);
        for (name, c) in ciphers {
            assert_eq!(c.seal(&nonce, b"aad", &msg), reference, "{name}");
            assert_eq!(c.open(&nonce, b"aad", &reference).unwrap(), msg);
        }
    }
}
