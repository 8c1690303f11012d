//! Property-based key-lifecycle tests.
//!
//! Two families:
//!
//! 1. **Rotation transparency** — for ANY handshake seed, rotation
//!    period, and message mix, a rotation-enabled world delivers
//!    plaintexts bit-identical to a rotation-disabled one; composed
//!    with chaos + ARQ it must deliver exactly, or surface a typed
//!    error — never panic, deadlock, or double-decrypt.
//! 2. **Misuse hardening** — at the record layer, nonce reuse across
//!    epochs, epoch splices, stale-epoch replays, and downgrades to
//!    the prefix-free cluster-key format all fail authentication or a
//!    typed gate for ANY generated payload/epoch combination. Records
//!    are sealed, parsed and opened by the `empi_keys::record`
//!    functions the secure layer runs.
//! 3. **Nonce uniqueness** — under a deterministic nonce policy, seeded
//!    or counter, no two records, on any rank, share a nonce under one
//!    key.

use std::collections::HashMap;

use empi_aead::nonce::NoncePolicy;
use empi_aead::profile::CryptoLibrary;
use empi_aead::{AesGcm, NONCE_LEN};
use empi_core::{
    Error, FaultRates, KeyError, KeyPlaneConfig, PipelineConfig, RetransmitConfig, SecureComm,
    SecurityConfig,
};
use empi_keys::record::{overhead, seal_into, Record};
use empi_keys::{derive_group_key, msg_id_epoch, EpochWindow};
use empi_mpi::{RecvPayload, Src, TagSel, World};
use empi_netsim::{NetModel, VDur};
use empi_pipeline::FrameHeader;
use proptest::prelude::*;

fn keys_cfg(seed: u64, rotate_us: Option<u64>, drain: u64) -> SecurityConfig {
    let mut kp = KeyPlaneConfig::new(seed).with_drain(drain);
    if let Some(us) = rotate_us {
        kp = kp.with_rotation(VDur::from_micros(us));
    }
    SecurityConfig::new(CryptoLibrary::BoringSsl).with_key_plane(kp)
}

fn payload(case: u64, len: usize) -> Vec<u8> {
    (0..len)
        .map(|i| (i as u64).wrapping_mul(167).wrapping_add(case) as u8)
        .collect()
}

/// The vendored proptest has no array strategies; build the fixed-size
/// key/nonce inputs from integer pairs.
fn any_master() -> impl Strategy<Value = [u8; 32]> {
    (any::<u128>(), any::<u128>()).prop_map(|(a, b)| {
        let mut m = [0u8; 32];
        m[..16].copy_from_slice(&a.to_le_bytes());
        m[16..].copy_from_slice(&b.to_le_bytes());
        m
    })
}

fn any_nonce() -> impl Strategy<Value = [u8; NONCE_LEN]> {
    (any::<u64>(), any::<u32>()).prop_map(|(a, b)| {
        let mut n = [0u8; NONCE_LEN];
        n[..8].copy_from_slice(&a.to_le_bytes());
        n[8..].copy_from_slice(&b.to_le_bytes());
        n
    })
}

/// An epoch-qualified record, sealed as the secure layer seals one.
fn seal(c: &AesGcm, epoch: u64, nonce: [u8; NONCE_LEN], pt: &[u8]) -> Vec<u8> {
    let mut wire = Vec::new();
    seal_into(c, Some(epoch), &nonce, pt, &mut wire);
    wire
}

/// Parse and open an owned `wire` buffer as the secure layer does.
fn open(c: &AesGcm, wire: &[u8], epoch_qualified: bool) -> Result<Vec<u8>, empi_aead::Error> {
    let rec = Record::parse(wire, epoch_qualified).expect("a record");
    let mut buf = wire.to_vec();
    rec.open_front(c, &mut buf)?;
    buf.truncate(rec.body.len());
    Ok(buf)
}

/// `(key, nonce)` of every record in one received payload. The key is
/// the record's epoch with the key plane on (`None` = the cluster key):
/// a plain record's prefix, a chunk frame's message-id bits.
fn keyed_nonces(payload: RecvPayload, plane: bool) -> Vec<(Option<u64>, [u8; NONCE_LEN])> {
    match payload {
        RecvPayload::Plain(_, wire) => {
            let rec = Record::parse(&wire, plane).expect("a plain record");
            vec![(rec.epoch, rec.nonce)]
        }
        RecvPayload::Chunked(m) => m
            .frames
            .iter()
            .map(|f| {
                let (h, body) = FrameHeader::decode(&f.data).expect("a chunk frame");
                let epoch = plane.then(|| msg_id_epoch(h.msg_id));
                (epoch, body[..NONCE_LEN].try_into().unwrap())
            })
            .collect(),
    }
}

proptest! {
    // Each case spins up whole simulated worlds; keep the counts modest.
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn ranks_never_reuse_a_nonce_under_one_key(
        nonce_seed in any::<u64>(),
        counter in any::<bool>(),
        ranks in 2usize..5,
        rotating in any::<bool>(),
        lens in proptest::collection::vec(1usize..3_000, 2..5),
    ) {
        // Every rank holds the same keys (the cluster key, or the
        // group key of an epoch), so deterministic nonces — a seeded
        // stream, or one configured sender id's counter — must differ
        // per rank. Each round every rank sends every peer one record,
        // plain or (past one chunk) a frame train, and the receiver
        // reads the wire below the secure layer.
        let w = World::flat(NetModel::ethernet_10g(), ranks);
        let out = w.run(move |c| {
            let mut cfg = SecurityConfig::new(CryptoLibrary::BoringSsl)
                .with_deterministic_nonces(nonce_seed)
                .with_pipeline(PipelineConfig::enabled().with_chunk_size(1024).with_workers(2));
            if counter {
                cfg.nonce_policy = NoncePolicy::Counter { sender_id: nonce_seed as u32 };
            }
            if rotating {
                cfg = cfg.with_key_plane(
                    KeyPlaneConfig::new(nonce_seed).with_rotation(VDur::from_micros(2)),
                );
            }
            let sc = SecureComm::new(c, cfg).unwrap();
            let (r, n) = (c.rank(), c.size());
            let mut seen = Vec::new();
            for (round, &len) in lens.iter().enumerate() {
                for d in 1..n {
                    let tag = (round * n + d) as u32;
                    let req = sc.isend(&payload(tag.into(), len), (r + d) % n, tag);
                    let got = c.recv_maybe_chunked(Src::Is((r + n - d) % n), TagSel::Is(tag));
                    seen.extend(keyed_nonces(got, rotating));
                    sc.wait(req).unwrap();
                }
            }
            seen
        });
        let mut first = HashMap::new();
        for (rank, seen) in out.results.iter().enumerate() {
            for (i, key_nonce) in seen.iter().enumerate() {
                if let Some(was) = first.insert(key_nonce, (rank, i)) {
                    prop_assert!(
                        false,
                        "nonce {:02x?} under key {:?} seen by rank {} (record {}) and rank {} (record {})",
                        key_nonce.1, key_nonce.0, was.0, was.1, rank, i
                    );
                }
            }
        }
    }

    #[test]
    fn rotation_is_bit_exact_for_any_seed(
        hs_seed in any::<u64>(),
        rotate_us in 50u64..300,
        pipelined in any::<bool>(),
        len in 1usize..16_000,
        msgs in 2u32..7,
    ) {
        // Transparency holds whenever the drain window covers the
        // in-flight depth (epochs a record can age between seal and
        // open). A generous half-width keeps every generated mix of
        // message sizes and rotation periods inside the window; an
        // undersized window degrades to typed StaleEpoch errors, which
        // the chaos property below covers.
        let run = |rotate: Option<u64>| {
            let w = World::flat(NetModel::ethernet_10g(), 2);
            w.try_run(move |c| {
                let mut cfg = keys_cfg(hs_seed, rotate, 64);
                if pipelined {
                    cfg = cfg.with_pipeline(
                        PipelineConfig::enabled().with_chunk_size(1 << 13).with_workers(2),
                    );
                }
                let sc = SecureComm::new(c, cfg).unwrap();
                let mut got = Vec::new();
                for i in 0..msgs {
                    let want = payload(u64::from(i), len);
                    if c.rank() == 0 {
                        sc.send(&want, 1, i);
                        got.push(want);
                    } else {
                        let (_, data) = sc.recv(Src::Is(0), TagSel::Is(i)).unwrap();
                        got.push(data.into());
                    }
                }
                got
            })
            .expect("rotation must never deadlock a clean world")
        };
        let rotated = run(Some(rotate_us));
        let fixed = run(None);
        // Bit-exact delivery on every rank, rotation on or off.
        prop_assert_eq!(&rotated.results, &fixed.results);
        for (i, want) in fixed.results[1].iter().enumerate() {
            prop_assert_eq!(want, &payload(i as u64, len));
        }
    }

    #[test]
    fn rotation_under_chaos_delivers_exactly_or_types_out(
        hs_seed in any::<u64>(),
        fault_seed in any::<u64>(),
        rotate_us in 30u64..150,
        rate in 0.0f64..0.15,
        arq in any::<bool>(),
        len in 1usize..25_000,
    ) {
        let w = World::flat(NetModel::ethernet_10g(), 2);
        let out = w.try_run(move |c| {
            let mut cfg = keys_cfg(hs_seed, Some(rotate_us), 2)
                .with_faults(fault_seed, FaultRates::uniform(rate))
                .with_pipeline(
                    PipelineConfig::enabled().with_chunk_size(1 << 13).with_workers(2),
                );
            if arq {
                cfg = cfg.with_retransmit(3, VDur::from_micros(150), RetransmitConfig::DEFAULT_BUFFER_MSGS);
            }
            let sc = SecureComm::new(c, cfg).unwrap();
            let mut outs = Vec::new();
            for i in 0..6u32 {
                let want = payload(u64::from(i), len);
                if c.rank() == 0 {
                    sc.send(&want, 1, i);
                    outs.push(Ok(want));
                } else {
                    outs.push(sc.recv(Src::Is(0), TagSel::Is(i)).map(|(_, d)| d.into()));
                }
            }
            sc.pump(sc.recovery_window());
            outs
        });
        let out = out.expect("rotation + chaos must never deadlock");
        for (i, res) in out.results[1].iter().enumerate() {
            let want = payload(i as u64, len);
            match res {
                // Bit-exact or typed — a wrong-epoch open can never
                // succeed (distinct keys), so equality proves no
                // double-decryption under a stale cipher either.
                Ok(data) => prop_assert_eq!(data, &want, "message {} silently corrupted", i),
                Err(
                    Error::Crypto(_)
                    | Error::Pipeline(_)
                    | Error::LengthMismatch { .. }
                    | Error::DeliveryFailed { .. }
                    | Error::Timeout { .. }
                    | Error::Key(_),
                ) => {}
                // No crash plan and no detector in this world.
                Err(Error::RankFailed { .. }) => {
                    prop_assert!(false, "rank failure without a crash plan")
                }
            }
        }
    }
}

proptest! {
    // Record-layer misuse properties are cheap; run more cases.
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn nonce_reuse_across_epochs_never_cross_opens(
        master in any_master(),
        nonce in any_nonce(),
        e1 in 0u64..1 << 20,
        delta in 1u64..1 << 20,
        pt in proptest::collection::vec(any::<u8>(), 1..256),
    ) {
        // The same nonce under two different epochs is two different
        // keys: ciphertexts differ and neither record opens under the
        // other epoch's cipher (so nonce reuse across rolls leaks
        // nothing and splicing ciphertexts between epochs fails).
        let e2 = e1 + delta;
        let c1 = AesGcm::new(&derive_group_key(&master, e1)).unwrap();
        let c2 = AesGcm::new(&derive_group_key(&master, e2)).unwrap();
        let w1 = seal(&c1, e1, nonce, &pt);
        let w2 = seal(&c2, e2, nonce, &pt);
        let body = Record::parse(&w1, true).unwrap().body;
        prop_assert_ne!(&w1[body.start..], &w2[body.start..]);
        prop_assert!(open(&c2, &w1, true).is_err());
        prop_assert!(open(&c1, &w2, true).is_err());
        prop_assert_eq!(open(&c1, &w1, true).unwrap(), pt);
    }

    #[test]
    fn epoch_splice_always_fails_auth(
        master in any_master(),
        nonce in any_nonce(),
        epoch in 0u64..1 << 30,
        forged in 0u64..1 << 30,
        pt in proptest::collection::vec(any::<u8>(), 1..256),
    ) {
        prop_assume!(epoch != forged);
        let c = AesGcm::new(&derive_group_key(&master, epoch)).unwrap();
        let mut wire = seal(&c, epoch, nonce, &pt);
        wire[..8].copy_from_slice(&forged.to_be_bytes());
        prop_assert_eq!(Record::parse(&wire, true).unwrap().epoch, Some(forged));
        // The prefix is the AAD: rewriting it breaks the tag even
        // under the correct epoch's key — and under the forged
        // epoch's key the record was never sealed at all.
        prop_assert!(open(&c, &wire, true).is_err());
        let cf = AesGcm::new(&derive_group_key(&master, forged)).unwrap();
        prop_assert!(open(&cf, &wire, true).is_err());
    }

    #[test]
    fn window_rejects_stale_and_future_everywhere(
        drain in 0u64..8,
        local in any::<u64>(),
        wire in any::<u64>(),
    ) {
        let w = EpochWindow::new(drain);
        let inside = wire <= local.saturating_add(drain)
            && wire.saturating_add(drain) >= local;
        match w.accept(wire, local) {
            Ok(()) => prop_assert!(inside, "out-of-window epoch accepted"),
            Err(KeyError::StaleEpoch { .. }) => prop_assert!(wire < local && !inside),
            Err(KeyError::FutureEpoch { .. }) => prop_assert!(wire > local && !inside),
            Err(e) => panic!("unexpected window error: {e}"),
        }
    }

    #[test]
    fn downgrade_strip_always_fails(
        master in any_master(),
        nonce in any_nonce(),
        epoch in 0u64..1 << 30,
        pt in proptest::collection::vec(any::<u8>(), 1..256),
    ) {
        let c = AesGcm::new(&derive_group_key(&master, epoch)).unwrap();
        let wire = seal(&c, epoch, nonce, &pt);
        // Stripping the epoch prefix yields a structurally legacy
        // record whose tag was bound to the prefix: AAD-free opens
        // fail under the epoch key and under the raw master alike.
        let stripped = &wire[8..];
        prop_assert!(open(&c, stripped, false).is_err());
        let raw = AesGcm::new(&master).unwrap();
        prop_assert!(open(&raw, stripped, false).is_err());
        // And a runt can't even be parsed: a typed refusal, which the
        // key plane's gate reports as a downgrade.
        let runt = overhead(true) - 1;
        prop_assert_eq!(
            Record::parse(&wire[..runt], true),
            Err(empi_aead::Error::CiphertextTooShort { got: runt })
        );
    }
}
