//! Property-based tests for the pooled hot path. Every wire buffer
//! comes from the world's pool and returns when its last handle drops,
//! and the pool's reservoir outlives the world, so a second world of
//! the same seeds runs on recycled buffers: it must put the same bytes
//! on the wire and hand back the same plaintexts across p2p,
//! nonblocking p2p, bcast and alltoall — and pooled frame handles must
//! survive fault injection plus NACK repair without aliasing (a
//! recycled buffer must never leak into a retained or repaired frame).
//! `golden_wire_bytes_per_format_and_key_source` pins the wire bytes
//! across commits.

use empi::aead::profile::CryptoLibrary;
use empi::mpi::{RecvPayload, Src, TagSel, World};
use empi::netsim::{BufferPool, NetModel, VDur};
use empi::secure::{
    Error, FaultRates, KeyPlaneConfig, PipelineConfig, RetransmitConfig, SecureComm, SecurityConfig,
};
use proptest::prelude::*;

fn cfg(pipelined: bool, chunk_size: usize, nonce_seed: u64) -> SecurityConfig {
    let c = SecurityConfig::new(CryptoLibrary::BoringSsl).with_deterministic_nonces(nonce_seed);
    if !pipelined {
        return c;
    }
    c.with_pipeline(
        PipelineConfig::enabled()
            .with_chunk_size(chunk_size)
            .with_workers(2),
    )
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
                    .flat_map(|f| f.data.iter().copied())
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
/// and key source, hashed, plus plain and chunked records at the sizes
/// around a 4 KB chunk and past 128 KB. The constants pin the
/// ciphertext *across commits*: a refactor of the record layer or of
/// where its buffers come from must reproduce them exactly.
#[test]
fn golden_wire_bytes_per_format_and_key_source() {
    type KeySource = fn(SecurityConfig) -> SecurityConfig;
    let cluster: KeySource = |c| c;
    let plane: KeySource = |c| c.with_key_plane(KeyPlaneConfig::new(0x5eed));
    // (label, message length, pipelined, key source, FNV-64 of the
    // wire bytes as captured at the commit before the record-layer
    // refactor; the last five before every buffer came from the pool)
    let table: [(&str, usize, bool, KeySource, u64); 9] = [
        (
            "plain/cluster",
            10_000,
            false,
            cluster,
            0x2a8b_bb68_1f96_f585,
        ),
        ("plain/plane", 10_000, false, plane, 0x774e_9528_4c1f_ebf6),
        (
            "chunked/cluster",
            10_000,
            true,
            cluster,
            0xde2b_7478_ec1e_4f1e,
        ),
        ("chunked/plane", 10_000, true, plane, 0x21fd_9f14_a9e3_7239),
        ("plain/cluster", 48, false, cluster, 0xef3c_68a0_9ea4_b93d),
        ("plain/cluster", 4096, false, cluster, 0x5bcb_9eab_4d9c_cb1c),
        (
            "chunked/cluster",
            4097,
            true,
            cluster,
            0x7d45_0a18_0b72_ec4a,
        ),
        (
            "plain/cluster",
            (1 << 17) + 9,
            false,
            cluster,
            0x4cda_2c66_a700_85e7,
        ),
        (
            "chunked/cluster",
            (1 << 17) + 9,
            true,
            cluster,
            0x002f_24eb_b5bd_9a6d,
        ),
    ];
    for (label, len, pipelined, key_source, want) in table {
        let msg: Vec<u8> = (0..len).map(|i| (i * 31 + 7) as u8).collect();
        // The second world draws every buffer from a warm reservoir.
        for world in 0..2 {
            let wire = raw_wire(msg.clone(), key_source(cfg(pipelined, 4096, 0xC0FFEE)));
            assert_eq!(
                fnv64(&wire),
                want,
                "{label} at {len} B (world {world}): wire bytes changed ({} bytes, got {:#018x})",
                wire.len(),
                fnv64(&wire),
            );
        }
    }
}

proptest! {
    #[test]
    fn retained_bytes_never_exceed_the_most_that_were_out(
        ops in proptest::collection::vec((any::<bool>(), (16usize << 10)..(512 << 10), any::<usize>()), 1..48),
    ) {
        // A random interleaving of takes and drops, some of the drops
        // through a frozen wire handle: after every step the shelves
        // hold no more bytes than were ever out of them at once.
        let pool = BufferPool::new();
        let mut held = Vec::new();
        for (take, len, pick) in ops {
            if take || held.is_empty() {
                held.push(pool.take(len));
            } else {
                let b = held.swap_remove(pick % held.len());
                if pick % 2 == 0 {
                    drop(b.freeze());
                } else {
                    drop(b);
                }
            }
            let s = pool.stats();
            prop_assert!(
                s.retained_bytes <= s.peak_out_bytes,
                "{} B retained, at most {} B were ever out",
                s.retained_bytes,
                s.peak_out_bytes
            );
        }
    }
}

proptest! {
    // Each case spins up whole simulated worlds; keep the counts modest.
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn wire_bytes_do_not_depend_on_recycled_buffers(
        len in 1usize..50_000,
        pipelined in any::<bool>(),
        chunk_size in 256usize..8192,
        nonce_seed in any::<u64>(),
        fill in any::<u8>(),
    ) {
        // Where a buffer comes from is not a wire decision: the second
        // world seals into buffers the first one returned (stale bytes
        // and all), and must put the exact same bytes on the wire, in
        // both the plain and the chunked frame format.
        let msg: Vec<u8> = (0..len).map(|i| (i as u8).wrapping_mul(13) ^ fill).collect();
        let first = raw_wire(msg.clone(), cfg(pipelined, chunk_size, nonce_seed));
        let second = raw_wire(msg, cfg(pipelined, chunk_size, nonce_seed));
        prop_assert_eq!(first, second);
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
            let sc = SecureComm::new(c, cfg(pipelined, chunk_size, nonce_seed)).unwrap();
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
        // Pipelined tree bcast relays root-sealed frames; every rank
        // gets the root's plaintext, and a second world on recycled
        // buffers hands out the same.
        let run = || {
            let w = World::flat(NetModel::ethernet_10g(), n);
            w.run(move |c| {
                let sc = SecureComm::new(c, cfg(true, 4096, nonce_seed)).unwrap();
                let want: Vec<u8> = (0..len).map(|i| (i * 11 + 5) as u8).collect();
                let mut buf = if c.rank() == 0 { want } else { vec![0u8; len] };
                sc.bcast(&mut buf, 0).unwrap();
                buf
            })
            .results
        };
        let first = run();
        let second = run();
        let want: Vec<u8> = (0..len).map(|i| (i * 11 + 5) as u8).collect();
        for (rank, got) in first.iter().enumerate() {
            prop_assert_eq!(got, &want, "pooled bcast corrupted rank {}", rank);
        }
        prop_assert_eq!(first, second);
    }

    #[test]
    fn pooled_alltoall_matches_unpooled(
        block in 1usize..8192,
        nonce_seed in any::<u64>(),
        pipelined in any::<bool>(),
    ) {
        let n = 3usize;
        let run = || {
            let w = World::flat(NetModel::ethernet_10g(), n);
            w.run(move |c| {
                let sc = SecureComm::new(c, cfg(pipelined, 2048, nonce_seed)).unwrap();
                let me = c.rank();
                let send: Vec<u8> =
                    (0..n).flat_map(|d| vec![(me * n + d) as u8; block]).collect();
                sc.alltoall(&send, block).unwrap()
            })
            .results
        };
        let first = run();
        let second = run();
        for (me, got) in first.iter().enumerate() {
            let want: Vec<u8> = (0..n).flat_map(|s| vec![(s * n + me) as u8; block]).collect();
            prop_assert_eq!(got, &want, "pooled alltoall corrupted rank {}", me);
        }
        prop_assert_eq!(first, second);
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
        // must be the bit-identical message or a typed error, and a
        // second world on recycled buffers (same seeds, same virtual
        // schedule) must reach the same one.
        let rates = FaultRates {
            bit_flip,
            truncate: 0.0,
            drop,
            duplicate: 0.1,
            jitter: 0.0,
        };
        let run = || {
            let w = World::flat(NetModel::ethernet_10g(), 2);
            w.try_run(move |c| {
                let sc = SecureComm::new(
                    c,
                    cfg(true, 1 << 12, nonce_seed)
                        .with_faults(fault_seed, rates)
                        .with_retransmit(3, VDur::from_micros(150), RetransmitConfig::DEFAULT_BUFFER_MSGS),
                )
                .unwrap();
                let want: Vec<u8> = (0..len).map(|i| (i.wrapping_mul(29) ^ (i >> 7)) as u8).collect();
                if c.rank() == 0 {
                    sc.send(&want, 1, 5);
                    sc.pump(sc.recovery_window());
                    Ok(want)
                } else {
                    let res = sc.recv(Src::Is(0), TagSel::Is(5)).map(|(_, d)| d.into());
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
        let first = run();
        let second = run();
        check("first world", &first[1])?;
        check("second world", &second[1])?;
        // Recycling changes no virtual-time decision, so the two worlds
        // see the same fault plan and must reach the same outcome.
        prop_assert_eq!(
            first[1].as_ref().ok(),
            second[1].as_ref().ok(),
            "outcomes diverged on recycled buffers under the same fault plan"
        );
    }
}
