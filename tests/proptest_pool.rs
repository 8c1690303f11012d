//! Property-based tests for the zero-copy pooled hot path: with
//! deterministic nonces and identical seeds, the pooled and unpooled
//! configurations must produce bit-identical wire bytes and plaintexts
//! across p2p, nonblocking p2p, bcast, and alltoall — and pooled frame
//! handles must survive fault injection plus NACK repair without
//! aliasing (a recycled buffer must never leak into a retained or
//! repaired frame).

use empi::aead::profile::CryptoLibrary;
use empi::mpi::{RecvPayload, Src, TagSel, World};
use empi::netsim::{NetModel, VDur};
use empi::secure::{
    Error, FaultRates, KeyPlaneConfig, PipelineConfig, SecureComm, SecurityConfig,
};
use proptest::prelude::*;

fn cfg(pooled: bool, pipelined: bool, chunk_size: usize, nonce_seed: u64) -> SecurityConfig {
    let mut c = SecurityConfig::new(CryptoLibrary::BoringSsl).with_deterministic_nonces(nonce_seed);
    if pipelined {
        c = c.with_pipeline(
            PipelineConfig::enabled()
                .with_chunk_size(chunk_size)
                .with_workers(2),
        );
    }
    c.with_buffer_pool(pooled)
}

/// The raw wire bytes rank 1 observes for one secure send of `msg`,
/// peeked below the secure layer (plain and chunked formats flattened
/// the same way in both worlds). With the key plane on, rank 1 also
/// constructs a `SecureComm` so the startup handshake completes.
fn raw_wire(msg: Vec<u8>, c: SecurityConfig) -> Vec<u8> {
    let w = World::flat(NetModel::ethernet_10g(), 2);
    let out = w.run(move |comm| {
        if comm.rank() == 0 {
            let sc = SecureComm::new(comm, c.clone()).unwrap();
            sc.send(&msg, 1, 0);
            Vec::new()
        } else {
            let _handshake = c
                .key_plane
                .map(|_| SecureComm::new(comm, c.clone()).unwrap());
            match comm.recv_maybe_chunked(Src::Is(0), TagSel::Is(0)) {
                RecvPayload::Plain(_, wire) => wire.to_vec(),
                RecvPayload::Chunked(m) => m
                    .frames
                    .iter()
                    .flat_map(|(_, b)| b.iter().copied())
                    .collect(),
            }
        }
    });
    out.results.into_iter().nth(1).unwrap()
}

fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Golden wire bytes: one fixed message and nonce seed per wire format
/// and key source, hashed. The constants pin the ciphertext *across
/// commits* (the proptests above only compare pool on/off within one
/// build): a refactor of the record layer must reproduce them exactly.
#[test]
fn golden_wire_bytes_per_format_and_key_source() {
    type KeySource = fn(SecurityConfig) -> SecurityConfig;
    let cluster: KeySource = |c| c;
    let plane: KeySource = |c| c.with_key_plane(KeyPlaneConfig::new(0x5eed));
    // (label, pipelined, key source, FNV-64 of the wire bytes as
    // captured at the commit before the record-layer refactor)
    let table: [(&str, bool, KeySource, u64); 4] = [
        ("plain/cluster", false, cluster, 0x2a8b_bb68_1f96_f585),
        ("plain/plane", false, plane, 0x774e_9528_4c1f_ebf6),
        ("chunked/cluster", true, cluster, 0xde2b_7478_ec1e_4f1e),
        ("chunked/plane", true, plane, 0x21fd_9f14_a9e3_7239),
    ];
    let msg: Vec<u8> = (0..10_000usize).map(|i| (i * 31 + 7) as u8).collect();
    for (label, pipelined, key_source, want) in table {
        for pooled in [false, true] {
            let wire = raw_wire(msg.clone(), key_source(cfg(pooled, pipelined, 4096, 0xC0FFEE)));
            assert_eq!(
                fnv64(&wire),
                want,
                "{label} (pool {pooled}): wire bytes changed ({} bytes, got {:#018x})",
                wire.len(),
                fnv64(&wire),
            );
        }
    }
}

proptest! {
    // Each case spins up whole simulated worlds; keep the counts modest.
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn pooled_wire_bytes_match_unpooled_bit_for_bit(
        len in 1usize..50_000,
        pipelined in any::<bool>(),
        chunk_size in 256usize..8192,
        nonce_seed in any::<u64>(),
        fill in any::<u8>(),
    ) {
        // Pool on/off is a pure buffer-sourcing decision: same nonce
        // seed, same message => the exact same bytes on the wire, in
        // both the plain and the chunked frame format.
        let msg: Vec<u8> = (0..len).map(|i| (i as u8).wrapping_mul(13) ^ fill).collect();
        let plain_cfg = |p| cfg(p, pipelined, chunk_size, nonce_seed);
        let off = raw_wire(msg.clone(), plain_cfg(false));
        let on = raw_wire(msg, plain_cfg(true));
        prop_assert_eq!(off, on);
    }

    #[test]
    fn pooled_p2p_and_nonblocking_roundtrip(
        len in 1usize..60_000,
        pipelined in any::<bool>(),
        chunk_size in 256usize..8192,
        nonce_seed in any::<u64>(),
    ) {
        // Blocking and nonblocking p2p through the pooled hot path:
        // plaintexts must come back bit-identical even as buffers
        // recycle across messages.
        let w = World::flat(NetModel::ethernet_10g(), 2);
        let out = w.run(move |c| {
            let sc = SecureComm::new(c, cfg(true, pipelined, chunk_size, nonce_seed)).unwrap();
            let mk = |t: usize| -> Vec<u8> {
                (0..len).map(|i| (i as u8).wrapping_add(t as u8 * 17)).collect()
            };
            if c.rank() == 0 {
                for t in 0..3u32 {
                    sc.send(&mk(t as usize), 1, t);
                }
                let r = sc.isend(&mk(9), 1, 9);
                sc.wait(r).unwrap();
                true
            } else {
                for t in 0..3u32 {
                    let (_, data) = sc.recv(Src::Is(0), TagSel::Is(t)).unwrap();
                    if data != mk(t as usize) {
                        return false;
                    }
                }
                let r = sc.irecv(Src::Is(0), TagSel::Is(9));
                let (_, data) = sc.wait(r).unwrap();
                data.expect("receive carries payload") == mk(9)
            }
        });
        prop_assert!(out.results.iter().all(|&b| b));
    }

    #[test]
    fn pooled_bcast_matches_unpooled(
        len in 1usize..40_000,
        n in 3usize..6,
        nonce_seed in any::<u64>(),
    ) {
        // Pipelined tree bcast relays root-sealed frames; the pooled
        // and unpooled worlds must hand every rank the same plaintext.
        let run = |pooled: bool| {
            let w = World::flat(NetModel::ethernet_10g(), n);
            w.run(move |c| {
                let sc = SecureComm::new(c, cfg(pooled, true, 4096, nonce_seed)).unwrap();
                let want: Vec<u8> = (0..len).map(|i| (i * 11 + 5) as u8).collect();
                let mut buf = if c.rank() == 0 { want } else { vec![0u8; len] };
                sc.bcast(&mut buf, 0).unwrap();
                buf
            })
            .results
        };
        let off = run(false);
        let on = run(true);
        let want: Vec<u8> = (0..len).map(|i| (i * 11 + 5) as u8).collect();
        for (rank, got) in on.iter().enumerate() {
            prop_assert_eq!(got, &want, "pooled bcast corrupted rank {}", rank);
        }
        prop_assert_eq!(off, on);
    }

    #[test]
    fn pooled_alltoall_matches_unpooled(
        block in 1usize..8192,
        nonce_seed in any::<u64>(),
        pipelined in any::<bool>(),
    ) {
        let n = 3usize;
        let run = |pooled: bool| {
            let w = World::flat(NetModel::ethernet_10g(), n);
            w.run(move |c| {
                let sc = SecureComm::new(c, cfg(pooled, pipelined, 2048, nonce_seed)).unwrap();
                let me = c.rank();
                let send: Vec<u8> =
                    (0..n).flat_map(|d| vec![(me * n + d) as u8; block]).collect();
                sc.alltoall(&send, block).unwrap()
            })
            .results
        };
        let off = run(false);
        let on = run(true);
        for (me, got) in on.iter().enumerate() {
            let want: Vec<u8> = (0..n).flat_map(|s| vec![(s * n + me) as u8; block]).collect();
            prop_assert_eq!(got, &want, "pooled alltoall corrupted rank {}", me);
        }
        prop_assert_eq!(off, on);
    }

    #[test]
    fn pooled_frames_survive_nack_repair_without_aliasing(
        fault_seed in any::<u64>(),
        nonce_seed in any::<u64>(),
        len in 1usize..30_000,
        drop in 0.0f64..0.5,
        bit_flip in 0.0f64..0.3,
    ) {
        // Under fault injection + ARQ the sender retains sealed frames
        // for repair while the pool recycles delivered ones. A handle
        // that aliased a recycled buffer would corrupt the repaired
        // plaintext silently — exactly what this forbids: the outcome
        // must be the bit-identical message or a typed error, and it
        // must agree with the unpooled world (same seeds, same virtual
        // schedule).
        let rates = FaultRates {
            bit_flip,
            truncate: 0.0,
            drop,
            duplicate: 0.1,
            jitter: 0.0,
            jitter_max_ns: 0,
            degraded_workers: 0.0,
            worker_slowdown: 1,
        };
        let run = |pooled: bool| {
            let w = World::flat(NetModel::ethernet_10g(), 2);
            w.try_run(move |c| {
                let sc = SecureComm::new(
                    c,
                    cfg(pooled, true, 1 << 12, nonce_seed)
                        .with_faults(fault_seed, rates)
                        .with_retransmit(3, VDur::from_micros(150)),
                )
                .unwrap();
                let want: Vec<u8> = (0..len).map(|i| (i.wrapping_mul(29) ^ (i >> 7)) as u8).collect();
                if c.rank() == 0 {
                    sc.send(&want, 1, 5);
                    sc.pump(sc.recovery_window());
                    Ok(want)
                } else {
                    let res = sc.recv(Src::Is(0), TagSel::Is(5)).map(|(_, d)| d);
                    sc.pump(sc.recovery_window());
                    res
                }
            })
            .expect("fault plan must never deadlock")
            .results
        };
        let want: Vec<u8> = (0..len).map(|i| (i.wrapping_mul(29) ^ (i >> 7)) as u8).collect();
        let check = |tag: &str, got: &Result<Vec<u8>, Error>| {
            match got {
                Ok(data) => prop_assert_eq!(
                    data.as_slice(),
                    want.as_slice(),
                    "{}: silently corrupted plaintext",
                    tag
                ),
                Err(
                    Error::Crypto(_)
                    | Error::Pipeline(_)
                    | Error::LengthMismatch { .. }
                    | Error::DeliveryFailed { .. }
                    | Error::Timeout { .. }
                    | Error::Key(_),
                ) => {}
                // No crash plan is armed here, so a rank failure would
                // be a detector false positive — never acceptable.
                Err(Error::RankFailed { .. }) => {
                    prop_assert!(false, "{}: rank failure without a crash plan", tag)
                }
            }
            Ok(())
        };
        let off = run(false);
        let on = run(true);
        check("unpooled", &off[1])?;
        check("pooled", &on[1])?;
        // Pooling changes no virtual-time decision, so the two worlds
        // see the same fault plan and must reach the same outcome.
        prop_assert_eq!(
            off[1].as_ref().ok(),
            on[1].as_ref().ok(),
            "pooled/unpooled outcomes diverged under the same fault plan"
        );
    }
}
