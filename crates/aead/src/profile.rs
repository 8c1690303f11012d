//! The paper's four cryptographic libraries as selectable backends.
//!
//! Each [`CryptoLibrary`] maps to a concrete (AES engine × GHASH engine)
//! combination whose *algorithmic* character matches the real library —
//! see DESIGN.md §2 for the substitution argument — plus a calibrated
//! throughput anchor curve digitized from Figs. 2 and 9 of the paper.
//! The curves drive the simulator's `Calibrated` timing mode so that the
//! crypto-to-network speed ratio on any host matches the paper's
//! Xeon E5-2620 v4 testbed.
//!
//! All four backends compute byte-identical AES-GCM; a message sealed by
//! one opens under any other (covered by tests).

use crate::aes::hardware_acceleration_available;
use crate::error::{Error, Result};
use crate::gcm::{AesEngineKind, AesGcm, GhashEngineKind};

/// AES key size. The paper benchmarks both and reports 256-bit results.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KeySize {
    /// 128-bit key (10 rounds) — the fastest standard option.
    Aes128,
    /// 256-bit key (14 rounds) — the most secure option; what the paper
    /// reports.
    Aes256,
}

impl KeySize {
    /// Key length in bytes.
    pub fn bytes(self) -> usize {
        match self {
            KeySize::Aes128 => 16,
            KeySize::Aes256 => 32,
        }
    }

    /// Key length in bits.
    pub fn bits(self) -> usize {
        self.bytes() * 8
    }
}

/// Which compiler toolchain built the crypto library — the paper found
/// this matters enormously for CryptoPP (Fig. 2 vs Fig. 9).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CompilerBuild {
    /// `gcc 4.8.5 -O2` — the Ethernet/MPICH build (Fig. 2).
    Gcc485,
    /// The MVAPICH2-2.3 toolchain — more aggressive optimization,
    /// dramatically improving CryptoPP above 64 KB (Fig. 9).
    Mvapich23,
}

/// The four cryptographic libraries studied by the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CryptoLibrary {
    /// OpenSSL 1.1.1 — AES-NI with deep pipelining; the commodity choice.
    OpenSsl,
    /// BoringSSL — Google's OpenSSL fork; performance twin of OpenSSL.
    BoringSsl,
    /// Libsodium 1.0.16 — AES-NI without multi-block scheduling;
    /// AES-256-GCM **only**.
    Libsodium,
    /// CryptoPP 7.0 — table-driven software AES in the gcc build.
    CryptoPp,
}

/// All four libraries, in the order the paper lists them.
pub const ALL_LIBRARIES: [CryptoLibrary; 4] = [
    CryptoLibrary::OpenSsl,
    CryptoLibrary::BoringSsl,
    CryptoLibrary::Libsodium,
    CryptoLibrary::CryptoPp,
];

/// The three libraries the paper reports (OpenSSL ≈ BoringSSL, so only
/// BoringSSL is shown).
pub const REPORTED_LIBRARIES: [CryptoLibrary; 3] = [
    CryptoLibrary::BoringSsl,
    CryptoLibrary::Libsodium,
    CryptoLibrary::CryptoPp,
];

impl CryptoLibrary {
    /// Human-readable name as printed in the paper's tables.
    pub fn name(self) -> &'static str {
        match self {
            CryptoLibrary::OpenSsl => "OpenSSL",
            CryptoLibrary::BoringSsl => "BoringSSL",
            CryptoLibrary::Libsodium => "Libsodium",
            CryptoLibrary::CryptoPp => "CryptoPP",
        }
    }

    /// Whether this backend supports the key size, as the typed
    /// [`Error::UnsupportedKeySize`] when it does not (Libsodium's
    /// `crypto_aead_aes256gcm` API is 256-bit only).
    pub fn supports(self, key_size: KeySize) -> Result<()> {
        match (self, key_size) {
            (CryptoLibrary::Libsodium, KeySize::Aes128) => Err(Error::UnsupportedKeySize {
                backend: self.name(),
                bits: key_size.bits(),
            }),
            _ => Ok(()),
        }
    }

    /// The engine combination modelling this library.
    pub fn engines(self) -> (AesEngineKind, GhashEngineKind) {
        match self {
            CryptoLibrary::OpenSsl | CryptoLibrary::BoringSsl => {
                (AesEngineKind::NiPipelined, GhashEngineKind::Clmul)
            }
            CryptoLibrary::Libsodium => (AesEngineKind::Ni, GhashEngineKind::Clmul),
            CryptoLibrary::CryptoPp => (AesEngineKind::Soft, GhashEngineKind::Soft),
        }
    }

    /// Instantiate an [`AesGcm`] cipher for this library profile.
    ///
    /// Falls back to the software engines when the CPU lacks AES-NI, so
    /// the ciphertexts stay identical everywhere.
    pub fn instantiate(self, key_size: KeySize, key: &[u8]) -> Result<AesGcm> {
        self.supports(key_size)?;
        if key.len() != key_size.bytes() {
            return Err(Error::InvalidKeyLength { got: key.len() });
        }
        let (mut aes, mut ghash) = self.engines();
        if !hardware_acceleration_available() {
            if aes != AesEngineKind::Soft || ghash != GhashEngineKind::Soft {
                empi_trace::engine_counters::add_hw_fallback(1);
            }
            aes = AesEngineKind::Soft;
            ghash = GhashEngineKind::Soft;
        }
        AesGcm::with_engines(aes, ghash, key)
    }

    /// Enc-dec throughput anchors `(message bytes, MB/s)` digitized from
    /// Fig. 2 / Fig. 9 and the figures quoted in the paper's text.
    ///
    /// "Enc-dec throughput" is the paper's metric: bytes divided by the
    /// time to encrypt *and then decrypt* them once — half the one-way
    /// encryption throughput.
    pub fn encdec_anchors(self, build: CompilerBuild) -> &'static [(usize, f64)] {
        use CompilerBuild::*;
        use CryptoLibrary::*;
        match (self, build) {
            (OpenSsl, _) => &[
                (1, 3.2),
                (16, 49.0),
                (64, 176.0),
                (256, 610.0),
                (1 << 10, 940.0),
                (4 << 10, 1170.0),
                (16 << 10, 1320.0),
                (64 << 10, 1360.0),
                (256 << 10, 1370.0),
                (1 << 20, 1372.0),
                (2 << 20, 1373.0),
                (4 << 20, 1368.0),
            ],
            (BoringSsl, _) => &[
                (1, 3.3),
                (16, 50.0),
                (64, 180.0),
                (256, 620.0),
                (1 << 10, 950.0),
                (4 << 10, 1180.0),
                (16 << 10, 1332.0),
                (64 << 10, 1370.0),
                (256 << 10, 1380.0),
                (1 << 20, 1381.0),
                (2 << 20, 1381.0),
                (4 << 20, 1375.0),
            ],
            (Libsodium, _) => &[
                (1, 2.5),
                (16, 40.0),
                (64, 150.0),
                (256, 409.67),
                (1 << 10, 500.0),
                (4 << 10, 545.0),
                (16 << 10, 565.0),
                (64 << 10, 575.0),
                (256 << 10, 580.0),
                (1 << 20, 582.0),
                (2 << 20, 583.0),
                (4 << 20, 581.0),
            ],
            (CryptoPp, Gcc485) => &[
                (1, 0.35),
                (16, 5.5),
                (64, 22.0),
                (256, 85.0),
                (1 << 10, 260.0),
                (4 << 10, 460.0),
                (16 << 10, 568.0),
                (64 << 10, 560.0),
                (256 << 10, 470.0),
                (1 << 20, 330.0),
                (2 << 20, 273.0),
                (4 << 20, 262.0),
            ],
            // The MVAPICH toolchain vectorizes CryptoPP's bulk path:
            // ≥64 KB it nearly matches Libsodium (Fig. 9).
            (CryptoPp, Mvapich23) => &[
                (1, 0.35),
                (16, 5.5),
                (64, 22.0),
                (256, 90.0),
                (1 << 10, 270.0),
                (4 << 10, 470.0),
                (16 << 10, 570.0),
                (64 << 10, 565.0),
                (256 << 10, 558.0),
                (1 << 20, 552.0),
                (2 << 20, 545.0),
                (4 << 20, 540.0),
            ],
        }
    }

    /// Fixed per-message overhead (ns) of one encryption *or* decryption
    /// call inside the MPI data path: nonce sampling, context setup,
    /// buffer management. Calibrated from the small-message rows of
    /// Tables I and V (see DESIGN.md §5).
    pub fn per_call_overhead_ns(self) -> u64 {
        match self {
            CryptoLibrary::OpenSsl => 1_000,
            CryptoLibrary::BoringSsl => 950,
            CryptoLibrary::Libsodium => 800,
            CryptoLibrary::CryptoPp => 6_000,
        }
    }

    /// Calibrated virtual-time cost (ns) of encrypting `size` bytes once.
    pub fn enc_time_ns(self, build: CompilerBuild, size: usize) -> u64 {
        let encdec_mbs = interp_loglog(self.encdec_anchors(build), size.max(1));
        // enc throughput = 2 × enc-dec throughput.
        let bytes_per_ns = 2.0 * encdec_mbs * 1e6 / 1e9;
        (size as f64 / bytes_per_ns) as u64 + self.per_call_overhead_ns()
    }

    /// Calibrated virtual-time cost (ns) of decrypting `size` bytes once
    /// (GCM decryption ≈ encryption, per the paper).
    pub fn dec_time_ns(self, build: CompilerBuild, size: usize) -> u64 {
        self.enc_time_ns(build, size)
    }
}

/// Piecewise log-log interpolation over `(size, value)` anchors sorted by
/// size; clamps outside the anchor range.
pub fn interp_loglog(anchors: &[(usize, f64)], size: usize) -> f64 {
    debug_assert!(!anchors.is_empty());
    let s = size.max(1) as f64;
    if s <= anchors[0].0 as f64 {
        return anchors[0].1;
    }
    if s >= anchors[anchors.len() - 1].0 as f64 {
        return anchors[anchors.len() - 1].1;
    }
    for w in anchors.windows(2) {
        let (x0, y0) = (w[0].0 as f64, w[0].1);
        let (x1, y1) = (w[1].0 as f64, w[1].1);
        if s == x0 {
            return y0;
        }
        if s == x1 {
            return y1;
        }
        if s <= x1 {
            let t = (s.ln() - x0.ln()) / (x1.ln() - x0.ln());
            return (y0.ln() + t * (y1.ln() - y0.ln())).exp();
        }
    }
    unreachable!("anchors not sorted by size");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn libsodium_rejects_128() {
        assert!(CryptoLibrary::Libsodium.supports(KeySize::Aes128).is_err());
        let err = CryptoLibrary::Libsodium
            .instantiate(KeySize::Aes128, &[0u8; 16])
            .unwrap_err();
        assert!(matches!(err, Error::UnsupportedKeySize { bits: 128, .. }));
    }

    #[test]
    fn all_profiles_interoperate() {
        let key = [0x33u8; 32];
        let nonce = [1u8; 12];
        let msg = b"profile interop check";
        let reference = CryptoLibrary::OpenSsl
            .instantiate(KeySize::Aes256, &key)
            .unwrap()
            .seal(&nonce, b"", msg);
        for lib in ALL_LIBRARIES {
            let c = lib.instantiate(KeySize::Aes256, &key).unwrap();
            assert_eq!(c.seal(&nonce, b"", msg), reference, "{}", lib.name());
        }
    }

    #[test]
    fn anchors_hit_papers_quoted_numbers() {
        use CompilerBuild::*;
        let b = CryptoLibrary::BoringSsl;
        assert_eq!(interp_loglog(b.encdec_anchors(Gcc485), 2 << 20), 1381.0);
        assert_eq!(interp_loglog(b.encdec_anchors(Gcc485), 16 << 10), 1332.0);
        let l = CryptoLibrary::Libsodium;
        assert_eq!(interp_loglog(l.encdec_anchors(Gcc485), 256), 409.67);
        assert_eq!(interp_loglog(l.encdec_anchors(Gcc485), 2 << 20), 583.0);
        let c = CryptoLibrary::CryptoPp;
        assert_eq!(interp_loglog(c.encdec_anchors(Gcc485), 16 << 10), 568.0);
        assert_eq!(interp_loglog(c.encdec_anchors(Gcc485), 2 << 20), 273.0);
        // MVAPICH build closes the large-message CryptoPP gap (Fig. 9).
        assert!(interp_loglog(c.encdec_anchors(Mvapich23), 2 << 20) > 500.0);
    }

    #[test]
    fn interp_monotone_between_anchors() {
        let anchors = CryptoLibrary::BoringSsl.encdec_anchors(CompilerBuild::Gcc485);
        let mut prev = 0.0;
        for size in [1usize, 8, 100, 1000, 10_000, 100_000, 1_000_000, 2_000_000] {
            let v = interp_loglog(anchors, size);
            assert!(v >= prev, "throughput curve should be non-decreasing here");
            prev = v;
        }
    }

    #[test]
    fn interp_clamps() {
        let a = [(10usize, 5.0), (100, 50.0)];
        assert_eq!(interp_loglog(&a, 1), 5.0);
        assert_eq!(interp_loglog(&a, 10_000), 50.0);
        let mid = interp_loglog(&a, 31); // ~ geometric midpoint
        assert!(mid > 14.0 && mid < 18.0, "got {mid}");
    }

    #[test]
    fn calibrated_times_rank_libraries() {
        // BoringSSL fastest, CryptoPP slowest, from 256 B upward. (At
        // 1–16 B the paper's own Tables I/V show Libsodium slightly
        // *ahead* of BoringSSL — its per-call overhead is lower — and
        // the calibrated per-call constants reproduce that inversion.)
        let tiny_b = CryptoLibrary::BoringSsl.enc_time_ns(CompilerBuild::Gcc485, 1);
        let tiny_l = CryptoLibrary::Libsodium.enc_time_ns(CompilerBuild::Gcc485, 1);
        assert!(tiny_l < tiny_b, "Libsodium leads at 1 B: {tiny_l} vs {tiny_b}");
        // (Table V keeps Libsodium ahead even at 256 B — 50.66 vs
        // 45.51 MB/s — with the crossover before 1 KB, which the model
        // reproduces.)
        for size in [1024usize, 16 << 10, 2 << 20] {
            let b = CryptoLibrary::BoringSsl.enc_time_ns(CompilerBuild::Gcc485, size);
            let l = CryptoLibrary::Libsodium.enc_time_ns(CompilerBuild::Gcc485, size);
            let c = CryptoLibrary::CryptoPp.enc_time_ns(CompilerBuild::Gcc485, size);
            assert!(b < l && l < c, "size {size}: {b} {l} {c}");
        }
    }
}
