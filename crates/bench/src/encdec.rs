//! Encryption–decryption benchmark — FIG-2 (gcc build) and FIG-9
//! (MVAPICH build).
//!
//! The paper's metric: for each size, the time to encrypt *and then
//! decrypt* the data once, reported as throughput (half the one-way
//! encryption throughput). Two tables are produced per build:
//!
//! * the **calibrated** curve — the digitized Fig. 2/9 anchors that the
//!   simulator charges for every seal and open
//!   (`SecureComm::calibrated_ns`), and
//! * the **measured** curve — the real engines of this crate running on
//!   the build host (single thread, like the paper's benchmark).

use std::hint::black_box;
use std::time::{Duration, Instant};

use empi_aead::ccm::AesCcm;
use empi_aead::gcm::AesGcm;
use empi_aead::nonce::{NoncePolicy, NonceSource};
use empi_aead::profile::{CompilerBuild, CryptoLibrary, KeySize, REPORTED_LIBRARIES};
use empi_trace::engine_counters;

use crate::common::BenchOpts;
use crate::table::{fmt_value, size_label, Table};

/// Sizes along the Fig. 2/9 x axis.
pub const SIZES: [usize; 9] = [
    64,
    256,
    1 << 10,
    4 << 10,
    16 << 10,
    64 << 10,
    256 << 10,
    1 << 20,
    2 << 20,
];

/// A timed batch lasts at least this long, so the two clock reads
/// around it are a negligible share even when one enc-dec round of
/// 64 B is ≈ 100 ns.
const MIN_BATCH: Duration = Duration::from_millis(1);
/// Batches behind every reported number (the median of them).
const MIN_BATCHES: usize = 5;

/// The one host-time timer of this crate: median seconds per call of
/// `f` over batches of calls — at least [`MIN_BATCHES`] of them and as
/// many as fit in `min_millis`, each batch sized to outlast
/// [`MIN_BATCH`].
fn median_secs_per_call(min_millis: u64, mut f: impl FnMut()) -> f64 {
    let mut time_batch = |rounds: u64| {
        let start = Instant::now();
        for _ in 0..rounds {
            f();
        }
        start.elapsed()
    };
    // Warm up.
    time_batch(1);

    let start = Instant::now();
    // Size the batch: double it until one batch outlasts the clock.
    let mut rounds = 1u64;
    let mut first = time_batch(rounds);
    while first < MIN_BATCH {
        rounds *= 2;
        first = time_batch(rounds);
    }
    let mut secs = vec![first.as_secs_f64()];
    while secs.len() < MIN_BATCHES || start.elapsed() < Duration::from_millis(min_millis) {
        secs.push(time_batch(rounds).as_secs_f64());
    }
    secs.sort_by(f64::total_cmp);
    secs[secs.len() / 2] / rounds as f64
}

/// Measure real enc-dec throughput (MB/s) of one library profile at one
/// size, single-threaded, on this host.
fn measured_encdec_mbs(lib: CryptoLibrary, size: usize, min_millis: u64) -> f64 {
    let key = [0x42u8; 32];
    let cipher = lib.instantiate(KeySize::Aes256, &key).unwrap();
    let nonce = [7u8; 12];
    let mut buf = vec![0xABu8; size];
    let secs = median_secs_per_call(min_millis, || {
        let tag = cipher.seal_detached(&nonce, b"", &mut buf);
        cipher.open_detached(&nonce, b"", &mut buf, &tag).unwrap();
    });
    size as f64 / secs / 1e6
}

/// ABL-CRYPTO: the three crypto-design ablations EXPERIMENTS.md quotes
/// a host-time number for, measured with the timer above — key size
/// (BoringSSL seal at 64 KB, AES-128 vs AES-256), mode (AES-GCM vs
/// AES-CCM seal at 1 MiB; §III-A's "GCM is the faster one") and nonce
/// policy (`NonceSource::next_nonce`, random vs counter).
fn ablation_table(min_millis: u64) -> Table {
    let nonce = [7u8; 12];
    let mbs = |size: usize, secs: f64| fmt_value(size as f64 / secs / 1e6);
    let mut t = Table::new(
        "ABL-CRYPTO: crypto-design ablations measured on this host",
        "ablation",
        vec!["first".into(), "second".into()],
    );

    let size = 64 << 10;
    let cells = [(KeySize::Aes128, 16), (KeySize::Aes256, 32)]
        .iter()
        .map(|&(key_size, key_len)| {
            let cipher = CryptoLibrary::BoringSsl
                .instantiate(key_size, &vec![0x11u8; key_len])
                .unwrap();
            let mut buf = vec![0u8; size];
            let secs = median_secs_per_call(min_millis, || {
                black_box(cipher.seal_detached(&nonce, b"", &mut buf));
            });
            mbs(size, secs)
        })
        .collect();
    t.push_row("BoringSSL seal 64KB, AES-128 vs AES-256 (MB/s)", cells);

    let size = 1 << 20;
    let key = [0x42u8; 32];
    let msg = vec![0xABu8; size];
    let gcm = AesGcm::new(&key).unwrap();
    let ccm = AesCcm::new_default(&key).unwrap();
    let gcm_secs = median_secs_per_call(min_millis, || {
        black_box(gcm.seal(&nonce, b"", &msg));
    });
    let ccm_secs = median_secs_per_call(min_millis, || {
        black_box(ccm.seal(&nonce, b"", &msg));
    });
    t.push_row(
        "seal 1MB, AES-GCM vs AES-CCM (MB/s)",
        vec![mbs(size, gcm_secs), mbs(size, ccm_secs)],
    );

    let cells = [NoncePolicy::Random, NoncePolicy::Counter { sender_id: 1 }]
        .iter()
        .map(|&policy| {
            let mut src = NonceSource::new(policy);
            let secs = median_secs_per_call(min_millis, || {
                black_box(src.next_nonce());
            });
            fmt_value(secs * 1e9)
        })
        .collect();
    t.push_row("next_nonce, random vs counter (ns)", cells);
    t
}

/// Calibrated enc-dec throughput (MB/s) from the digitized anchors.
fn calibrated_encdec_mbs(lib: CryptoLibrary, build: CompilerBuild, size: usize) -> f64 {
    // Include the per-call overhead so tiny sizes show the real curve.
    let t_encdec_ns = lib.enc_time_ns(build, size) + lib.dec_time_ns(build, size);
    size as f64 / (t_encdec_ns as f64 / 1e9) / 1e6
}

/// Build the FIG-2 / FIG-9 tables.
pub fn run(opts: &BenchOpts) -> Vec<Table> {
    let mut tables = Vec::new();
    for (fig, build, label) in [
        (
            "FIG-2",
            CompilerBuild::Gcc485,
            "gcc 4.8.5 build (Ethernet stack)",
        ),
        (
            "FIG-9",
            CompilerBuild::Mvapich23,
            "MVAPICH2-2.3 build (InfiniBand stack)",
        ),
    ] {
        let mut t = Table::new(
            format!("{fig}: AES-GCM-256 enc-dec throughput (MB/s), calibrated curve, {label}"),
            "",
            SIZES.iter().map(|&s| size_label(s)).collect(),
        );
        for lib in REPORTED_LIBRARIES {
            t.push_row(
                lib.name(),
                SIZES
                    .iter()
                    .map(|&s| fmt_value(calibrated_encdec_mbs(lib, build, s)))
                    .collect(),
            );
        }
        tables.push(t);
    }

    // Measured on this host (one table; the host has one compiler).
    let min_ms = if opts.quick { 10 } else { 120 };
    let mut t = Table::new(
        "FIG-2m: AES-GCM-256 enc-dec throughput (MB/s), measured on this host (engine profiles)",
        "",
        SIZES.iter().map(|&s| size_label(s)).collect(),
    );
    for lib in REPORTED_LIBRARIES {
        t.push_row(
            lib.name(),
            SIZES
                .iter()
                .map(|&s| fmt_value(measured_encdec_mbs(lib, s, min_ms)))
                .collect(),
        );
    }
    tables.push(t);
    tables.push(ablation_table(min_ms));
    if opts.trace {
        tables.push(engine_counter_table());
    }
    tables
}

/// AEAD engine activity per library profile (`--trace`): one enc-dec
/// round of 64 KB through each profile, reporting which AES / GHASH
/// path did the work and whether a hardware request fell back to
/// software. Block counts are exact (64 KB = 4096 AES blocks; GHASH
/// folds data + the length block).
fn engine_counter_table() -> Table {
    let size = 64 << 10;
    let mut t = Table::new(
        format!(
            "ENGINES: AEAD engine counters for one {} enc-dec round, per library profile",
            size_label(size)
        ),
        "library",
        [
            "aes soft",
            "aes ni",
            "aes pipelined",
            "ghash soft",
            "ghash clmul",
            "hw fallbacks",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect(),
    );
    for lib in REPORTED_LIBRARIES {
        let before = engine_counters::snapshot();
        let key = [0x42u8; 32];
        let cipher = lib.instantiate(KeySize::Aes256, &key).unwrap();
        let nonce = [7u8; 12];
        let mut buf = vec![0xABu8; size];
        let tag = cipher.seal_detached(&nonce, b"", &mut buf);
        cipher.open_detached(&nonce, b"", &mut buf, &tag).unwrap();
        let d = engine_counters::snapshot().since(&before);
        t.push_row(
            lib.name(),
            [
                d.aes_blocks_soft,
                d.aes_blocks_ni,
                d.aes_blocks_pipelined,
                d.ghash_blocks_soft,
                d.ghash_blocks_clmul,
                d.hw_fallbacks,
            ]
            .iter()
            .map(|&v| v.to_string())
            .collect(),
        );
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibrated_curve_hits_quoted_anchors() {
        let b = calibrated_encdec_mbs(CryptoLibrary::BoringSsl, CompilerBuild::Gcc485, 2 << 20);
        // Per-call overhead is negligible at 2 MB: within 1 % of 1381.
        assert!((b - 1381.0).abs() / 1381.0 < 0.01, "got {b}");
        let c = calibrated_encdec_mbs(CryptoLibrary::CryptoPp, CompilerBuild::Gcc485, 2 << 20);
        assert!((c - 273.0).abs() / 273.0 < 0.02, "got {c}");
        let c9 = calibrated_encdec_mbs(CryptoLibrary::CryptoPp, CompilerBuild::Mvapich23, 2 << 20);
        assert!(c9 > 500.0, "MVAPICH build must lift CryptoPP: {c9}");
    }

    #[test]
    fn engine_counter_table_counts_blocks() {
        let t = engine_counter_table();
        assert_eq!(t.rows.len(), REPORTED_LIBRARIES.len());
        for (lib, cells) in &t.rows {
            let total: u64 = cells.iter().map(|c| c.parse::<u64>().unwrap()).sum();
            // Every profile pushes ≥ 4096 AES blocks for 64 KB; the
            // floor holds even if parallel tests inflate the window.
            assert!(total >= 4096, "{lib}: {cells:?}");
        }
    }

    #[test]
    fn ablation_table_measures_every_pair() {
        let t = ablation_table(1);
        assert_eq!(t.rows.len(), 3);
        for (label, cells) in &t.rows {
            assert_eq!(cells.len(), 2, "{label}");
            for c in cells {
                let v: f64 = c.replace(',', "").parse().unwrap();
                assert!(v > 0.0, "{label}: {cells:?}");
            }
        }
    }

    #[test]
    fn measured_ranking_matches_paper_at_bulk_sizes() {
        if !empi_aead::aes::hardware_acceleration_available() {
            return; // software-only host: all profiles collapse
        }
        // Debug builds distort constants; only assert the hardware vs
        // software split, which survives any build profile.
        let fast = measured_encdec_mbs(CryptoLibrary::BoringSsl, 256 << 10, 30);
        let soft = measured_encdec_mbs(CryptoLibrary::CryptoPp, 256 << 10, 30);
        assert!(
            fast > soft,
            "hardware profile must beat software: {fast} vs {soft}"
        );
    }
}
