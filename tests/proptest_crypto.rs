//! Property-based tests for the cryptographic substrate.

use empi::aead::aes::hardware_acceleration_available;
use empi::aead::cbc::CbcCipher;
use empi::aead::ctr::CtrCipher;
use empi::aead::ecb::InsecureEcb;
use empi::aead::gcm::{AesEngineKind, AesGcm, GhashEngineKind};
use empi::aead::ghash::{gmul_bitwise, GhashImpl, GhashSoft};
use empi::aead::profile::{CryptoLibrary, KeySize, ALL_LIBRARIES};
use empi::aead::sha256::{sha256, Sha256};
use proptest::prelude::*;

fn key_strategy() -> impl Strategy<Value = Vec<u8>> {
    prop_oneof![
        proptest::collection::vec(any::<u8>(), 16),
        proptest::collection::vec(any::<u8>(), 32),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn gcm_roundtrip_any_data(
        key in key_strategy(),
        nonce in proptest::collection::vec(any::<u8>(), 12),
        aad in proptest::collection::vec(any::<u8>(), 0..64),
        msg in proptest::collection::vec(any::<u8>(), 0..2048),
    ) {
        let cipher = AesGcm::new(&key).unwrap();
        let mut n = [0u8; 12];
        n.copy_from_slice(&nonce);
        let ct = cipher.seal(&n, &aad, &msg);
        prop_assert_eq!(ct.len(), msg.len() + 16);
        let pt = cipher.open(&n, &aad, &ct).unwrap();
        prop_assert_eq!(pt, msg);
    }

    #[test]
    fn gcm_tamper_any_byte_fails(
        key in key_strategy(),
        msg in proptest::collection::vec(any::<u8>(), 1..512),
        flip_bit in 0u8..8,
        pos_frac in 0.0f64..1.0,
    ) {
        let cipher = AesGcm::new(&key).unwrap();
        let nonce = [9u8; 12];
        let mut ct = cipher.seal(&nonce, b"", &msg);
        let pos = ((ct.len() - 1) as f64 * pos_frac) as usize;
        ct[pos] ^= 1 << flip_bit;
        prop_assert!(cipher.open(&nonce, b"", &ct).is_err());
    }

    #[test]
    fn gcm_engines_agree(
        key in key_strategy(),
        nonce in proptest::collection::vec(any::<u8>(), 12),
        // Up to 4 KiB: dozens of the stitched kernel's 128-byte groups,
        // plus every tail shape.
        msg in proptest::collection::vec(any::<u8>(), 0..4096),
        aad in proptest::collection::vec(any::<u8>(), 0..32),
    ) {
        let mut n = [0u8; 12];
        n.copy_from_slice(&nonce);
        let soft_cipher =
            AesGcm::with_engines(AesEngineKind::Soft, GhashEngineKind::Soft, &key).unwrap();
        let soft = soft_cipher.seal(&n, &aad, &msg);
        if hardware_acceleration_available() {
            let hw = AesGcm::with_engines(
                AesEngineKind::NiPipelined,
                GhashEngineKind::Clmul,
                &key,
            )
            .unwrap();
            prop_assert_eq!(&soft, &hw.seal(&n, &aad, &msg));
            prop_assert_eq!(&hw.open(&n, &aad, &soft).unwrap(), &msg);
        }
        // And every library profile produces the identical ciphertext
        // and opens what the software engines sealed.
        if key.len() == 32 {
            for lib in ALL_LIBRARIES {
                let c = lib.instantiate(KeySize::Aes256, &key).unwrap();
                prop_assert_eq!(c.seal(&n, &aad, &msg), soft.clone(), "{}", lib.name());
                prop_assert_eq!(&c.open(&n, &aad, &soft).unwrap(), &msg, "{}", lib.name());
            }
        }
    }

    #[test]
    fn gcm_distinct_nonces_distinct_ciphertexts(
        key in proptest::collection::vec(any::<u8>(), 32),
        msg in proptest::collection::vec(any::<u8>(), 1..256),
        n1 in any::<u64>(),
        n2 in any::<u64>(),
    ) {
        prop_assume!(n1 != n2);
        let cipher = AesGcm::new(&key).unwrap();
        let mk = |x: u64| {
            let mut n = [0u8; 12];
            n[4..].copy_from_slice(&x.to_be_bytes());
            n
        };
        let c1 = cipher.seal(&mk(n1), b"", &msg);
        let c2 = cipher.seal(&mk(n2), b"", &msg);
        prop_assert_ne!(c1, c2);
    }

    #[test]
    fn ctr_involution_and_cbc_ecb_roundtrip(
        key in key_strategy(),
        msg in proptest::collection::vec(any::<u8>(), 0..512),
        iv in proptest::collection::vec(any::<u8>(), 16),
    ) {
        let ctr = CtrCipher::new(&key).unwrap();
        let nonce = [1u8; 12];
        let mut buf = msg.clone();
        ctr.apply(&nonce, &mut buf);
        ctr.apply(&nonce, &mut buf);
        prop_assert_eq!(&buf, &msg);

        let cbc = CbcCipher::new(&key).unwrap();
        let mut ivb = [0u8; 16];
        ivb.copy_from_slice(&iv);
        prop_assert_eq!(cbc.decrypt(&cbc.encrypt(&ivb, &msg)).unwrap(), msg.clone());

        let ecb = InsecureEcb::new(&key).unwrap();
        prop_assert_eq!(ecb.decrypt(&ecb.encrypt(&msg)).unwrap(), msg);
    }

    #[test]
    fn sha256_streaming_equals_oneshot(
        data in proptest::collection::vec(any::<u8>(), 0..4096),
        splits in proptest::collection::vec(0.0f64..1.0, 0..5),
    ) {
        let mut cuts: Vec<usize> =
            splits.iter().map(|f| (f * data.len() as f64) as usize).collect();
        cuts.sort_unstable();
        let mut h = Sha256::new();
        let mut prev = 0;
        for c in cuts {
            h.update(&data[prev..c]);
            prev = c;
        }
        h.update(&data[prev..]);
        prop_assert_eq!(h.finalize(), sha256(&data));
    }

    #[test]
    fn ccm_roundtrip_any_geometry(
        key in key_strategy(),
        nonce_len in 7usize..=13,
        tag_half in 2usize..=8,
        msg in proptest::collection::vec(any::<u8>(), 0..512),
        aad in proptest::collection::vec(any::<u8>(), 0..48),
    ) {
        use empi::aead::ccm::AesCcm;
        let tag_len = tag_half * 2;
        let ccm = AesCcm::new(&key, nonce_len, tag_len).unwrap();
        let nonce = vec![0x3Cu8; nonce_len];
        let ct = ccm.seal(&nonce, &aad, &msg);
        prop_assert_eq!(ct.len(), msg.len() + tag_len);
        prop_assert_eq!(ccm.open(&nonce, &aad, &ct).unwrap(), msg);
    }

    #[test]
    fn ccm_tamper_detected(
        key in key_strategy(),
        msg in proptest::collection::vec(any::<u8>(), 1..256),
        pos_frac in 0.0f64..1.0,
        bit in 0u8..8,
    ) {
        use empi::aead::ccm::AesCcm;
        let ccm = AesCcm::new_default(&key).unwrap();
        let nonce = [6u8; 12];
        let mut ct = ccm.seal(&nonce, b"hdr", &msg);
        let pos = ((ct.len() - 1) as f64 * pos_frac) as usize;
        ct[pos] ^= 1 << bit;
        prop_assert!(ccm.open(&nonce, b"hdr", &ct).is_err());
    }

    #[test]
    fn ghash_table_equals_bitwise(
        h in any::<u128>(),
        x in any::<u128>(),
    ) {
        let g = GhashSoft::new(h);
        prop_assert_eq!(g.mult(x), gmul_bitwise(x, h));
    }

    #[test]
    fn ghash_is_linear(
        h in any::<u128>(),
        x in any::<u128>(),
        y in any::<u128>(),
    ) {
        // (x ⊕ y)·H = x·H ⊕ y·H — the linearity GCM's security proof
        // leans on.
        let g = GhashSoft::new(h);
        prop_assert_eq!(g.mult(x ^ y), g.mult(x) ^ g.mult(y));
    }

    #[test]
    fn calibrated_times_are_monotone_in_size(
        lib in prop_oneof![
            Just(CryptoLibrary::OpenSsl),
            Just(CryptoLibrary::BoringSsl),
            Just(CryptoLibrary::Libsodium),
            Just(CryptoLibrary::CryptoPp),
        ],
        a in 1usize..4_000_000,
        b in 1usize..4_000_000,
    ) {
        use empi::aead::profile::CompilerBuild;
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        // More bytes never encrypt faster (in absolute time).
        prop_assert!(
            lib.enc_time_ns(CompilerBuild::Gcc485, lo)
                <= lib.enc_time_ns(CompilerBuild::Gcc485, hi) + 1
        );
    }
}
