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
//! **stitched kernel** (`stitched` below): a single pass over the buffer in
//! which, per 128-byte group, the GHASH multiplies of eight ciphertext
//! blocks issue between the AES rounds of eight counter blocks. Sealing
//! hashes the group it wrote one step earlier; opening hashes the group
//! it is about to decrypt, so a forged record is only known to be forged
//! after it has been decrypted — `open_detached` then re-applies the
//! keystream and hands the ciphertext back untouched, as the two-pass
//! path (verify, then decrypt) does by construction. Every other pair
//! runs the generic two passes: they model the slower libraries and
//! serve as the differential oracle for the kernel.
//!
//! Only 96-bit nonces are supported (the only length the paper — and
//! every sane protocol — uses); each ciphertext carries a 128-bit tag.

use crate::aes::{inc32, BlockEncrypt, SoftAes};
use crate::ct::ct_eq;
use crate::error::{Error, Result};
use crate::ghash::{GhashImpl, GhashSoft};
use crate::{NONCE_LEN, TAG_LEN};
use empi_trace::engine_counters as counters;

#[cfg(target_arch = "x86_64")]
use crate::aes::{counter_lanes, AesNi, AesNiPipelined};
#[cfg(target_arch = "x86_64")]
use crate::ghash::{load_block, GhashClmul, Product, GROUP_BLOCKS, GROUP_BYTES};
#[cfg(target_arch = "x86_64")]
use core::arch::x86_64::{__m128i, _mm_setzero_si128, _mm_xor_si128};

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
fn ghash_blocks(aad: &[u8], data: &[u8]) -> u64 {
    (aad.len().div_ceil(16) + data.len().div_ceil(16) + 1) as u64
}

impl GhashEngine {
    #[inline]
    fn ghash(&self, aad: &[u8], data: &[u8]) -> [u8; 16] {
        let blocks = ghash_blocks(aad, data);
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
    key_bits: usize,
}

impl std::fmt::Debug for AesGcm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AesGcm")
            .field("key_bits", &self.key_bits)
            .finish_non_exhaustive()
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
        Ok(AesGcm {
            aes,
            ghash,
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

    /// Encrypt `buf` in place and return the authentication tag.
    pub fn seal_detached(&self, nonce: &[u8; NONCE_LEN], aad: &[u8], buf: &mut [u8]) -> [u8; 16] {
        let (j0, ctr1) = Self::counter_blocks(nonce);
        #[cfg(target_arch = "x86_64")]
        if let Some((aes, ghash)) = self.stitched_pair() {
            return self.mask(&j0, stitched_counted(aes, ghash, false, &ctr1, aad, buf));
        }
        self.aes.ctr_apply(&ctr1, buf);
        self.mask(&j0, self.ghash.ghash(aad, buf))
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
        let (j0, ctr1) = Self::counter_blocks(nonce);
        #[cfg(target_arch = "x86_64")]
        if let Some((aes, ghash)) = self.stitched_pair() {
            let expect = self.mask(&j0, stitched_counted(aes, ghash, true, &ctr1, aad, buf));
            if ct_eq(&expect, tag) {
                return Ok(());
            }
            // The kernel decrypted while it hashed. CTR is an involution:
            // the same keystream turns the buffer back into the ciphertext
            // the caller passed in. Not counted — the engine counters
            // report the blocks of the record, as the two-pass path does.
            aes.ctr_apply(&ctr1, buf);
            return Err(Error::AuthFailure);
        }
        let expect = self.mask(&j0, self.ghash.ghash(aad, buf));
        if !ct_eq(&expect, tag) {
            return Err(Error::AuthFailure);
        }
        self.aes.ctr_apply(&ctr1, buf);
        Ok(())
    }

    /// Encrypt `plaintext`, returning `ciphertext ‖ tag`.
    pub fn seal(&self, nonce: &[u8; NONCE_LEN], aad: &[u8], plaintext: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(plaintext.len() + TAG_LEN);
        out.extend_from_slice(plaintext);
        let tag = self.seal_detached(nonce, aad, &mut out);
        out.extend_from_slice(&tag);
        out
    }

    /// Decrypt `ciphertext ‖ tag`, returning the plaintext.
    pub fn open(&self, nonce: &[u8; NONCE_LEN], aad: &[u8], ct_and_tag: &[u8]) -> Result<Vec<u8>> {
        if ct_and_tag.len() < TAG_LEN {
            return Err(Error::CiphertextTooShort {
                got: ct_and_tag.len(),
            });
        }
        let split = ct_and_tag.len() - TAG_LEN;
        let mut buf = ct_and_tag[..split].to_vec();
        let mut tag = [0u8; TAG_LEN];
        tag.copy_from_slice(&ct_and_tag[split..]);
        self.open_detached(nonce, aad, &mut buf, &tag)?;
        Ok(buf)
    }
}

/// [`stitched`] with the engine block counters of the two passes it
/// replaces: ⌈len/16⌉ pipelined AES blocks, AAD + data + 1 GHASH blocks.
#[cfg(target_arch = "x86_64")]
#[inline]
fn stitched_counted(
    aes: &AesNiPipelined,
    ghash: &GhashClmul,
    open: bool,
    ctr1: &[u8; 16],
    aad: &[u8],
    buf: &mut [u8],
) -> [u8; 16] {
    counters::add_aes_blocks_pipelined(buf.len().div_ceil(16) as u64);
    counters::add_ghash_blocks_clmul(ghash_blocks(aad, buf));
    // SAFETY: both engines' constructors verified `aes`, `pclmulqdq`
    // and `ssse3`.
    unsafe { stitched(aes, ghash, open, ctr1, aad, buf) }
}

/// The one-pass AES-GCM kernel: CTR-crypt `buf` in place from counter
/// block `ctr1` and return GHASH(aad, ciphertext), touching the data once.
///
/// Full 128-byte groups go through [`stitched_group`]. Opening hashes
/// each group in the step that decrypts it. Sealing cannot hash a group
/// before it is written, so it runs one group behind: the first group is
/// only encrypted, every later step encrypts group *g* while hashing the
/// ciphertext of group *g − 1* (still in L1), and the last group is
/// hashed with the tail. The tail (< 128 bytes) and the AAD take the
/// engines' own block-at-a-time paths.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "aes", enable = "pclmulqdq", enable = "ssse3")]
fn stitched(
    aes: &AesNiPipelined,
    ghash: &GhashClmul,
    open: bool,
    ctr1: &[u8; 16],
    aad: &[u8],
    buf: &mut [u8],
) -> [u8; 16] {
    let mut y = ghash.absorb(_mm_setzero_si128(), aad);
    let mut ctr = counter_lanes(ctr1);
    let full = buf.len() - buf.len() % GROUP_BYTES;
    let lag = if open { 0 } else { GROUP_BYTES.min(full) };
    aes.ctr_xor(&mut ctr, &mut buf[..lag]);
    let p = buf.as_mut_ptr();
    for off in (lag..full).step_by(GROUP_BYTES) {
        // SAFETY: `off + GROUP_BYTES <= full <= buf.len()` and
        // `lag <= off`, so both 128-byte windows lie inside `buf`.
        y = unsafe { stitched_group(aes, ghash, &mut ctr, y, p.add(off - lag), p.add(off)) };
    }
    if open {
        y = ghash.absorb(y, &buf[full..]);
        aes.ctr_xor(&mut ctr, &mut buf[full..]);
    } else {
        aes.ctr_xor(&mut ctr, &mut buf[full..]);
        y = ghash.absorb(y, &buf[full - lag..]);
    }
    ghash.finish(y, aad.len(), buf.len())
}

// One stitched step is one AES pipeline fill and one GHASH group.
#[cfg(target_arch = "x86_64")]
const _: () = assert!(crate::aes::LANES == GROUP_BLOCKS);

/// One step of the stitched kernel: XOR the keystream of counters
/// `ctr`…`ctr+7` into the 128 bytes at `data` and fold the eight blocks
/// at `hash` into `y` — (y ⊕ X₀)·H⁸ ⊕ X₁·H⁷ ⊕ … ⊕ X₇·H, reduced once.
/// AES rounds 1–8 each carry one block's carry-less multiplies in their
/// shadow: `aesenc` and `pclmulqdq` issue on different ports and neither
/// chain waits on the other.
///
/// # Safety
/// `hash` must be valid for reads of 128 bytes and `data` for reads and
/// writes of 128 bytes; the windows may coincide (opening) but `hash`
/// must not lie partly inside `data`. No alignment is required.
#[cfg(target_arch = "x86_64")]
#[inline]
#[target_feature(enable = "aes", enable = "pclmulqdq", enable = "ssse3")]
unsafe fn stitched_group(
    aes: &AesNiPipelined,
    ghash: &GhashClmul,
    ctr: &mut __m128i,
    y: __m128i,
    hash: *const u8,
    data: *mut u8,
) -> __m128i {
    let mut blocks = aes.keystream8_begin(ctr);
    let mut acc = Product::of(_mm_xor_si128(y, load_block(hash)), ghash.power(GROUP_BLOCKS));
    aes.round8(&mut blocks, 1);
    for i in 1..GROUP_BLOCKS {
        acc = acc.add(load_block(hash.add(16 * i)), ghash.power(GROUP_BLOCKS - i));
        aes.round8(&mut blocks, i + 1);
    }
    // AES-128 has one more `aesenc` round before the last, AES-256 five.
    for r in GROUP_BLOCKS + 1..aes.rounds() {
        aes.round8(&mut blocks, r);
    }
    aes.finish8_xor(blocks, data);
    acc.reduce()
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
                let cipher =
                    AesGcm::with_engines(ai, gi, &hex(kat.key)).unwrap();
                let mut nonce = [0u8; 12];
                nonce.copy_from_slice(&hex(kat.iv));
                let pt = hex(&kat.pt.replace(char::is_whitespace, ""));
                let aad = hex(kat.aad);
                let out = cipher.seal(&nonce, &aad, &pt);
                let expect_ct = hex(&kat.ct.replace(char::is_whitespace, ""));
                let expect_tag = hex(kat.tag);
                assert_eq!(&out[..pt.len()], &expect_ct[..], "KAT {i} ct ({ai:?},{gi:?})");
                assert_eq!(&out[pt.len()..], &expect_tag[..], "KAT {i} tag ({ai:?},{gi:?})");
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
        assert!(d.aes_blocks_soft >= 6, "aes soft blocks: {}", d.aes_blocks_soft);
        assert!(d.ghash_blocks_soft >= 5, "ghash soft blocks: {}", d.ghash_blocks_soft);
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
        assert_eq!(cipher.open(&nonce, b"headeR", &out), Err(Error::AuthFailure));
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
        assert!(cipher.open_detached(&nonce, b"", &mut buf, &bad_tag).is_err());
        assert_eq!(buf, snapshot, "failed open must not decrypt");
    }

    /// Deterministic filler bytes.
    fn pattern(len: usize, salt: u8) -> Vec<u8> {
        (0..len).map(|i| (i as u8).wrapping_mul(31).wrapping_add(salt) ^ (i >> 8) as u8).collect()
    }

    const GUARD: usize = 16;
    const MIB: usize = 1 << 20;
    const NONCE: [u8; 12] = [0x4e; 12];

    fn stitched_cipher(key: &[u8]) -> AesGcm {
        AesGcm::with_engines(AesEngineKind::NiPipelined, GhashEngineKind::Clmul, key).unwrap()
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
            format!("key={} aad={} len={} offset={offset}", fast.key_bits, aad.len(), pt.len())
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

    /// The stitched pair against the independent software engines —
    /// ciphertext and tag on seal, plaintext on open — at every length
    /// around the 16-byte block and 128-byte group boundaries, every
    /// AAD shape, both key sizes and every buffer misalignment.
    #[test]
    fn stitched_matches_soft_at_every_boundary() {
        if !crate::aes::hardware_acceleration_available() {
            return;
        }
        let small = 0..=272usize;
        let large = [4095usize, 4096, 4097, 65535, 65536, 65537];
        for key_len in [16usize, 32] {
            let key = pattern(key_len, 1);
            let soft =
                AesGcm::with_engines(AesEngineKind::Soft, GhashEngineKind::Soft, &key).unwrap();
            let fast = stitched_cipher(&key);
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
                    let offsets = if small.contains(&len) { 0..16 } else { len % 16..len % 16 + 1 };
                    for offset in offsets {
                        check_in_arena(&fast, &aad, &pt, &expect_ct, &expect_tag, offset);
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
        let fast = stitched_cipher(&key);
        for (len, offset) in [(2 * MIB, 5), (2 * MIB + 1, 11)] {
            let s = soft_ghash.ghash(&aad, &ct[..len]);
            let expect_tag: [u8; 16] = std::array::from_fn(|i| s[i] ^ ek_j0[i]);
            check_in_arena(&fast, &aad, &pt[..len], &ct[..len], &expect_tag, offset);
        }
    }

    /// The 2³² `inc32` wrap landing inside a group: in the first group
    /// (which sealing only encrypts) and in the second (the first
    /// stitched step of a seal), against the scalar `inc32` CTR and the
    /// table GHASH.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn counter_wrap_inside_stitched_group() {
        if !crate::aes::hardware_acceleration_available() {
            return;
        }
        let key = [9u8; 32];
        let soft_aes = SoftAes::new(&key).unwrap();
        let aes = AesNiPipelined::new(&key).unwrap();
        let mut h = [0u8; 16];
        soft_aes.encrypt_block(&mut h);
        let h = u128::from_be_bytes(h);
        let (soft_ghash, ghash) = (GhashSoft::new(h), GhashClmul::new(h));
        let aad = b"wrap";
        for blocks_before_wrap in [3u32, 11] {
            let mut ctr = [0x77u8; 16];
            ctr[12..].copy_from_slice(&(u32::MAX - (blocks_before_wrap - 1)).to_be_bytes());
            let pt = pattern(3 * GROUP_BYTES + 40, 5);
            let mut expect_ct = pt.clone();
            soft_aes.ctr_apply(&ctr, &mut expect_ct);
            let expect_s = soft_ghash.ghash(aad, &expect_ct);

            let mut buf = pt.clone();
            // SAFETY: hardware_acceleration_available() checked above.
            let s = unsafe { stitched(&aes, &ghash, false, &ctr, aad, &mut buf) };
            assert_eq!(buf, expect_ct, "seal, wrap after {blocks_before_wrap} blocks");
            assert_eq!(s, expect_s, "seal hash, wrap after {blocks_before_wrap} blocks");
            // SAFETY: as above.
            let s = unsafe { stitched(&aes, &ghash, true, &ctr, aad, &mut buf) };
            assert_eq!(buf, pt, "open, wrap after {blocks_before_wrap} blocks");
            assert_eq!(s, expect_s, "open hash, wrap after {blocks_before_wrap} blocks");
        }
    }

    /// Decrypt-while-hashing must not leak into the failure contract: a
    /// forged tag, ciphertext byte or AAD yields `AuthFailure` and the
    /// buffer comes back byte-identical to the ciphertext passed in.
    #[test]
    fn failed_open_hands_back_the_ciphertext() {
        let nonce = [5u8; 12];
        let aad = *b"record header";
        for (ai, gi) in engine_combos() {
            let cipher = AesGcm::with_engines(ai, gi, &[0x3cu8; 32]).unwrap();
            let rejects = |what: &str, aad: &[u8], ct: &[u8], tag: &[u8; 16]| {
                let mut buf = ct.to_vec();
                assert_eq!(
                    cipher.open_detached(&nonce, aad, &mut buf, tag),
                    Err(Error::AuthFailure),
                    "({ai:?},{gi:?}) len={} forged {what}",
                    ct.len()
                );
                assert!(buf == ct, "({ai:?},{gi:?}) len={} forged {what}: buffer changed", ct.len());
            };
            for len in [1usize, 16, 127, 128, 129, 1000, 65536] {
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
        let combos = engine_combos();
        let reference = AesGcm::with_engines(combos[0].0, combos[0].1, &key)
            .unwrap()
            .seal(&nonce, b"aad", &msg);
        for (ai, gi) in combos {
            let c = AesGcm::with_engines(ai, gi, &key).unwrap();
            assert_eq!(c.seal(&nonce, b"aad", &msg), reference, "({ai:?},{gi:?})");
            assert_eq!(c.open(&nonce, b"aad", &reference).unwrap(), msg);
        }
    }
}
