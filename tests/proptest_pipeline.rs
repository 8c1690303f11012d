//! Property-based tests for the chunked crypto pipeline's frame format:
//! any message/chunk geometry round-trips, and every frame-level attack
//! (tamper, index splice, drop, duplicate, cross-message splice) is
//! rejected before plaintext is released. The end-to-end properties at
//! the bottom drive the nonblocking chunked path (`isend`/`wait`/
//! `waitany`) through the full simulated stack for arbitrary
//! message/chunk/worker geometries and mixed receiver configs.

use empi::aead::gcm::AesGcm;
use empi::aead::profile::CryptoLibrary;
use empi::mpi::{Src, TagSel, World};
use empi::netsim::NetModel;
use empi::pipeline::{open_frames, seal_frames, FRAME_OVERHEAD};
use empi::secure::{PipelineConfig, SecureComm, SecurityConfig};
use proptest::prelude::*;

fn cipher(key_byte: u8) -> AesGcm {
    AesGcm::new(&[key_byte; 32]).unwrap()
}

/// Known-answer test of the chunked wire format: the frames of one
/// fixed message hash to pinned bytes, and each frame opens with the
/// raw cipher under its own first 24 bytes as the AAD — the header *is*
/// the associated data, as a wire contract.
#[test]
fn chunked_wire_bytes_are_pinned() {
    let c = cipher(0x42);
    let msg: Vec<u8> = (0..200usize).map(|i| (i * 31 % 251) as u8).collect();
    let frames = seal_frames(&c, 0x0123_4567_89AB_CDEF, [7u8; 12], &msg, 64);
    assert_eq!(frames.len(), 4);
    let wire = frames.concat();
    assert_eq!(wire.len(), 408);
    let digest: String = empi::aead::sha256::sha256(&wire)
        .iter()
        .map(|b| format!("{b:02x}"))
        .collect();
    assert_eq!(
        digest,
        "161317efc2f827a6c1ee8c827e6ac1724ace11328e4d182bf612e15b56aff20d"
    );
    let mut opened = Vec::new();
    for f in &frames {
        let nonce: [u8; 12] = f[24..36].try_into().unwrap();
        opened.extend(c.open(&nonce, &f[..24], &f[36..]).unwrap());
    }
    assert_eq!(opened, msg);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn chunked_roundtrip_any_geometry(
        msg in proptest::collection::vec(any::<u8>(), 0..6000),
        chunk_size in 1usize..2048,
        msg_id in any::<u64>(),
        base in proptest::collection::vec(any::<u8>(), 12),
    ) {
        // Covers size < chunk (single frame), size % chunk != 0 (short
        // tail frame), and exact multiples alike.
        let c = cipher(0xA1);
        let mut nonce = [0u8; 12];
        nonce.copy_from_slice(&base);
        let frames = seal_frames(&c, msg_id, nonce, &msg, chunk_size);
        let expect = msg.len().div_ceil(chunk_size).max(1);
        prop_assert_eq!(frames.len(), expect);
        for (f, plain) in frames.iter().zip(msg.chunks(chunk_size.max(1))) {
            prop_assert_eq!(f.len(), plain.len() + FRAME_OVERHEAD);
        }
        prop_assert_eq!(open_frames(&c, &frames).unwrap(), msg);
    }

    #[test]
    fn tampered_chunk_fails_auth(
        msg in proptest::collection::vec(any::<u8>(), 1..4096),
        chunk_size in 1usize..1024,
        frame_frac in 0.0f64..1.0,
        byte_frac in 0.0f64..1.0,
        bit in 0u8..8,
    ) {
        let c = cipher(0xB2);
        let mut frames = seal_frames(&c, 7, [3u8; 12], &msg, chunk_size);
        let fi = ((frames.len() - 1) as f64 * frame_frac) as usize;
        let pos = ((frames[fi].len() - 1) as f64 * byte_frac) as usize;
        frames[fi][pos] ^= 1 << bit;
        prop_assert!(open_frames(&c, &frames).is_err());
    }

    #[test]
    fn reordered_indices_fail_auth(
        msg in proptest::collection::vec(any::<u8>(), 64..4096),
        chunk_size in 16usize..512,
        a_frac in 0.0f64..1.0,
    ) {
        let c = cipher(0xC3);
        let frames = seal_frames(&c, 11, [5u8; 12], &msg, chunk_size);
        prop_assume!(frames.len() >= 2);
        // Swap the header index fields of two frames: the reassembled
        // order then disagrees with what each chunk's AAD binds, so
        // authentication must fail (honest in-flight reordering is
        // fine — reassembly orders by index — but a *spliced* index
        // must never pass).
        let a = ((frames.len() - 1) as f64 * a_frac) as usize;
        let b = (a + 1) % frames.len();
        let mut forged = frames.clone();
        let (ia, ib) = (frames[a][8..12].to_vec(), frames[b][8..12].to_vec());
        forged[a][8..12].copy_from_slice(&ib);
        forged[b][8..12].copy_from_slice(&ia);
        prop_assert!(open_frames(&c, &forged).is_err());
    }

    #[test]
    fn dropped_or_duplicated_chunk_fails(
        msg in proptest::collection::vec(any::<u8>(), 64..4096),
        chunk_size in 16usize..512,
        victim_frac in 0.0f64..1.0,
    ) {
        let c = cipher(0xD4);
        let frames = seal_frames(&c, 13, [7u8; 12], &msg, chunk_size);
        prop_assume!(frames.len() >= 2);
        let v = ((frames.len() - 1) as f64 * victim_frac) as usize;
        // Truncation: a missing chunk can never be papered over.
        let mut dropped = frames.clone();
        dropped.remove(v);
        prop_assert!(open_frames(&c, &dropped).is_err());
        // Replay: delivering a chunk twice is a protocol violation.
        let mut duped = frames.clone();
        let copy = duped[v].clone();
        duped.push(copy);
        prop_assert!(open_frames(&c, &duped).is_err());
    }

    #[test]
    fn cross_message_splice_fails(
        msg in proptest::collection::vec(any::<u8>(), 64..2048),
        chunk_size in 16usize..256,
        victim_frac in 0.0f64..1.0,
    ) {
        let c = cipher(0xE5);
        let frames = seal_frames(&c, 17, [9u8; 12], &msg, chunk_size);
        let other = seal_frames(&c, 18, [9u8; 12], &msg, chunk_size);
        // With a single frame the "splice" would just be the other
        // (complete, valid) message — no forgery involved.
        prop_assume!(frames.len() >= 2);
        let v = ((frames.len() - 1) as f64 * victim_frac) as usize;
        // Substitute the same-index chunk of another message (same key,
        // same geometry, different msg_id): the header mismatch is
        // caught at reassembly.
        let mut spliced = frames.clone();
        spliced[v] = other[v].clone();
        prop_assert!(open_frames(&c, &spliced).is_err());
    }
}

proptest! {
    // Each case spins up a 2-rank simulated world; keep the case count
    // modest so the suite stays fast.
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn chunked_isend_wait_roundtrip_any_geometry(
        len in 1usize..40_000,
        chunk_size in 1usize..8192,
        workers in 1usize..6,
        seed in any::<u8>(),
        plain_receiver in any::<bool>(),
    ) {
        // Whether the message is single- or many-chunk, whether the
        // receiver's own pipeline config is enabled or not, isend +
        // irecv/wait must round-trip bit-identically: the decrypt path
        // is chosen by the sender's wire format.
        let w = World::flat(NetModel::instant(), 2);
        let out = w.run(move |c| {
            let msg: Vec<u8> = (0..len)
                .map(|i| (i as u8).wrapping_mul(31).wrapping_add(seed))
                .collect();
            let pipe = PipelineConfig::enabled()
                .with_chunk_size(chunk_size)
                .with_workers(workers);
            if c.rank() == 0 {
                let sc = SecureComm::new(
                    c,
                    SecurityConfig::new(CryptoLibrary::BoringSsl).with_pipeline(pipe),
                )
                .unwrap();
                let r = sc.isend(&msg, 1, 4);
                sc.wait(r).unwrap();
                true
            } else {
                let rcfg = if plain_receiver {
                    SecurityConfig::new(CryptoLibrary::BoringSsl)
                } else {
                    SecurityConfig::new(CryptoLibrary::BoringSsl).with_pipeline(pipe)
                };
                let sc = SecureComm::new(c, rcfg).unwrap();
                let r = sc.irecv(Src::Is(0), TagSel::Is(4));
                let (st, data) = sc.wait(r).unwrap();
                (st.source, st.tag, st.len) == (0, 4, len) && data.unwrap() == msg
            }
        });
        prop_assert!(out.results.iter().all(|&b| b));
    }

    #[test]
    fn chunked_isend_waitany_drains_every_message(
        lens in proptest::collection::vec(1usize..30_000, 1..4),
        chunk_size in 256usize..4096,
        seed in any::<u8>(),
    ) {
        // Several outstanding chunked/plain sends with distinct tags;
        // the receiver drains them with waitany in completion order and
        // must get every payload back intact.
        let w = World::flat(NetModel::ethernet_10g(), 2);
        let k = lens.len();
        let out = w.run(move |c| {
            let pipe = PipelineConfig::enabled().with_chunk_size(chunk_size).with_workers(3);
            let sc = SecureComm::new(
                c,
                SecurityConfig::new(CryptoLibrary::BoringSsl).with_pipeline(pipe),
            )
            .unwrap();
            let msg = |t: usize| -> Vec<u8> {
                (0..lens[t])
                    .map(|i| (i as u8).wrapping_mul(t as u8 + 3).wrapping_add(seed))
                    .collect()
            };
            if c.rank() == 0 {
                let reqs: Vec<_> = (0..k).map(|t| sc.isend(&msg(t), 1, t as u32)).collect();
                sc.waitall(reqs).unwrap();
                true
            } else {
                let mut reqs: Vec<_> =
                    (0..k).map(|t| sc.irecv(Src::Is(0), TagSel::Is(t as u32))).collect();
                let mut seen = vec![false; k];
                while !reqs.is_empty() {
                    let (_, st, data) = sc.waitany(&mut reqs).unwrap();
                    let t = st.tag as usize;
                    if seen[t] || data.expect("receive carries payload") != msg(t) {
                        return false;
                    }
                    seen[t] = true;
                }
                seen.iter().all(|&s| s)
            }
        });
        prop_assert!(out.results.iter().all(|&b| b));
    }
}
