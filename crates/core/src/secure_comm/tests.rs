use super::*;
use empi_aead::gcm::AesGcm;
use empi_aead::profile::CryptoLibrary;
use empi_aead::{NONCE_LEN, WIRE_OVERHEAD};
use empi_keys::EPOCH_PREFIX_LEN;
use empi_mpi::chunk::RecvPayload;
use empi_mpi::coll::{bcast_alg, BcastAlg};
use empi_mpi::World;
use empi_netsim::NetModel;

fn cfg() -> SecurityConfig {
    SecurityConfig::new(CryptoLibrary::BoringSsl)
}

#[test]
fn encrypted_round_trip() {
    let w = World::flat(NetModel::instant(), 2);
    let out = w.run(|c| {
        let sc = SecureComm::new(c, cfg()).unwrap();
        if c.rank() == 0 {
            sc.send(b"secret payload", 1, 7);
            0
        } else {
            let (st, data) = sc.recv(Src::Is(0), TagSel::Is(7)).unwrap();
            assert_eq!(st.len, 14);
            assert_eq!(&data, b"secret payload");
            1
        }
    });
    assert_eq!(out.results, vec![0, 1]);
}

#[test]
fn wire_carries_28_extra_bytes_and_no_plaintext() {
    let w = World::flat(NetModel::instant(), 2);
    w.run(|c| {
        let sc = SecureComm::new(c, cfg()).unwrap();
        if c.rank() == 0 {
            sc.send(b"attack at dawn", 1, 0);
        } else {
            // Peek below the secure layer.
            let (st, wire) = c.recv(Src::Is(0), TagSel::Is(0));
            assert_eq!(st.len, 14 + WIRE_OVERHEAD);
            let hay = wire.windows(6).any(|w| w == b"attack");
            assert!(!hay, "plaintext leaked on the wire");
        }
    });
}

#[test]
fn wrong_key_fails_authentication() {
    let w = World::flat(NetModel::instant(), 2);
    let out = w.run(|c| {
        if c.rank() == 0 {
            let sc = SecureComm::new(c, cfg()).unwrap();
            sc.send(b"hello", 1, 0);
            true
        } else {
            let bad = cfg().with_key([0xEE; 32]);
            let sc = SecureComm::new(c, bad).unwrap();
            sc.recv(Src::Is(0), TagSel::Is(0)).is_err()
        }
    });
    assert!(
        out.results[1],
        "tampered/wrong-key message must not decrypt"
    );
}

#[test]
fn decryption_happens_in_wait() {
    let w = World::flat(NetModel::instant(), 2);
    w.run(|c| {
        let sc = SecureComm::new(c, cfg()).unwrap();
        if c.rank() == 0 {
            let r = sc.isend(b"nonblocking", 1, 1);
            sc.wait(r).unwrap();
        } else {
            let r = sc.irecv(Src::Is(0), TagSel::Is(1));
            let (st, data) = sc.wait(r).unwrap();
            assert_eq!(st.len, 11);
            assert_eq!(data.unwrap(), b"nonblocking");
        }
    });
}

#[test]
fn encrypted_bcast_all_libraries() {
    for lib in empi_aead::profile::ALL_LIBRARIES {
        let w = World::flat(NetModel::instant(), 4);
        let out = w.run(|c| {
            let sc = SecureComm::new(c, SecurityConfig::new(lib)).unwrap();
            let mut buf = if c.rank() == 0 {
                b"broadcast me".to_vec()
            } else {
                vec![0u8; 12]
            };
            sc.bcast(&mut buf, 0).unwrap();
            buf
        });
        for b in out.results {
            assert_eq!(b, b"broadcast me", "{lib:?}");
        }
    }
}

#[test]
fn encrypted_alltoall_matches_algorithm1() {
    let w = World::flat(NetModel::instant(), 4);
    let out = w.run(|c| {
        let sc = SecureComm::new(c, cfg()).unwrap();
        let me = c.rank() as u8;
        let block = 33; // not a multiple of 16: exercises GCM tails
        let send: Vec<u8> = (0..4)
            .flat_map(|dst| {
                let mut b = vec![me; block];
                b[1] = dst as u8;
                b
            })
            .collect();
        sc.alltoall(&send, block).unwrap()
    });
    for (me, v) in out.results.iter().enumerate() {
        for src in 0..4 {
            assert_eq!(v[src * 33] as usize, src);
            assert_eq!(v[src * 33 + 1] as usize, me);
        }
    }
}

#[test]
fn encrypted_allgather() {
    let w = World::flat(NetModel::instant(), 5);
    let out = w.run(|c| {
        let sc = SecureComm::new(c, cfg()).unwrap();
        sc.allgather(&[c.rank() as u8; 10]).unwrap()
    });
    for v in out.results {
        assert_eq!(v.len(), 50);
        for r in 0..5 {
            assert!(v[r * 10..(r + 1) * 10].iter().all(|&x| x == r as u8));
        }
    }
}

#[test]
fn encrypted_alltoallv_with_empty_segments() {
    let w = World::flat(NetModel::instant(), 3);
    let out = w.run(|c| {
        let sc = SecureComm::new(c, cfg()).unwrap();
        let me = c.rank();
        // Rank r sends r*dst bytes to dst (so some segments empty).
        let send_counts: Vec<usize> = (0..3).map(|dst| me * dst).collect();
        let recv_counts: Vec<usize> = (0..3).map(|src| src * me).collect();
        let send: Vec<u8> = send_counts
            .iter()
            .flat_map(|&n| vec![me as u8; n])
            .collect();
        sc.alltoallv(&send, &send_counts, &recv_counts).unwrap()
    });
    // Rank 2 receives 0 from 0, 2 from 1, 4 from 2.
    assert_eq!(out.results[2], vec![1, 1, 2, 2, 2, 2]);
}

#[test]
fn encryption_costs_virtual_time() {
    // The same exchange must take longer under the encrypted layer,
    // and CryptoPP must cost more than BoringSSL.
    let run = |lib: Option<CryptoLibrary>| {
        let w = World::flat(NetModel::ethernet_10g(), 2);
        w.run(|c| {
            let msg = vec![0u8; 1 << 20];
            match lib {
                None => {
                    if c.rank() == 0 {
                        c.send(&msg, 1, 0);
                    } else {
                        c.recv(Src::Is(0), TagSel::Is(0));
                    }
                }
                Some(lib) => {
                    let sc = SecureComm::new(c, SecurityConfig::new(lib)).unwrap();
                    if c.rank() == 0 {
                        sc.send(&msg, 1, 0);
                    } else {
                        sc.recv(Src::Is(0), TagSel::Is(0)).unwrap();
                    }
                }
            }
        })
        .end_time
        .as_nanos()
    };
    let base = run(None);
    let boring = run(Some(CryptoLibrary::BoringSsl));
    let cpp = run(Some(CryptoLibrary::CryptoPp));
    assert!(
        boring > base,
        "encryption must cost time: {boring} vs {base}"
    );
    assert!(cpp > boring, "CryptoPP must be slower: {cpp} vs {boring}");
}

#[test]
fn traced_secure_pingpong_decomposes_crypto() {
    let len = 1usize << 16;
    let w = World::flat(NetModel::ethernet_10g(), 2).traced(true);
    let out = w.run(|c| {
        let sc = SecureComm::new(c, cfg()).unwrap();
        let msg = vec![0u8; len];
        if c.rank() == 0 {
            sc.send(&msg, 1, 0);
            sc.recv(Src::Is(1), TagSel::Is(1)).unwrap();
        } else {
            let (_, data) = sc.recv(Src::Is(0), TagSel::Is(0)).unwrap();
            sc.send(&data, 0, 1);
        }
    });
    let tr = out.trace.unwrap();
    let d = tr.decomposition();
    assert!(d.crypto_ns > 0, "crypto time must be recorded");
    assert!(
        d.crypto_share() > 0.0 && d.crypto_share() < 100.0,
        "crypto share {:.1}% out of range",
        d.crypto_share()
    );
    // Each rank sealed once and opened once, drawing one nonce, and
    // the counters carry the 28-byte framing.
    for m in &tr.per_rank {
        assert_eq!((m.seals, m.opens, m.nonce_draws), (1, 1, 1));
        assert_eq!(m.sealed_wire_bytes, m.sealed_plain_bytes + 28);
        assert_eq!(m.opened_plain_bytes, m.opened_wire_bytes - 28);
        assert_eq!(m.sealed_plain_bytes, len as u64);
    }
    // The fabric ledger carries wire (not plaintext) bytes, and
    // every wire byte sent was delivered.
    assert_eq!(tr.pair(0, 1).tx_bytes, (len + 28) as u64);
    assert_eq!(tr.pair(0, 1).rx_bytes, (len + 28) as u64);
    // Crypto spans carry the backend name.
    assert!(tr
        .events
        .iter()
        .any(|e| e.name == "seal" && e.detail.contains("BoringSSL")));
}

#[test]
fn pipelined_secure_ping_pong_round_trips() {
    let len = (1usize << 20) + 13; // uneven tail chunk
    let pcfg = || cfg().with_pipeline(crate::PipelineConfig::enabled().with_workers(4));
    let w = World::flat(NetModel::ethernet_10g(), 2);
    let out = w.run(move |c| {
        let sc = SecureComm::new(c, pcfg()).unwrap();
        let msg: Vec<u8> = (0..len).map(|i| (i * 31) as u8).collect();
        if c.rank() == 0 {
            sc.send(&msg, 1, 5);
            let (st, echo) = sc.recv(Src::Is(1), TagSel::Is(6)).unwrap();
            assert_eq!(st.len, len);
            echo == msg
        } else {
            let (st, data) = sc.recv(Src::Is(0), TagSel::Is(5)).unwrap();
            assert_eq!((st.source, st.tag, st.len), (0, 5, len));
            sc.send(&data, 0, 6);
            data == msg
        }
    });
    assert_eq!(out.results, vec![true, true]);
}

#[test]
fn pipelined_receiver_accepts_sequential_sender() {
    // Mixed configs: the receiver dispatches on the wire format.
    let w = World::flat(NetModel::ethernet_10g(), 2);
    w.run(|c| {
        if c.rank() == 0 {
            // Sender pipelining off: plain sequential wire format.
            let sc = SecureComm::new(c, cfg()).unwrap();
            sc.send(&vec![9u8; 100_000], 1, 0);
        } else {
            let sc = SecureComm::new(c, cfg().with_pipeline(crate::PipelineConfig::enabled()))
                .unwrap();
            let (_, data) = sc.recv(Src::Is(0), TagSel::Is(0)).unwrap();
            assert_eq!(data, vec![9u8; 100_000]);
        }
    });
}

#[test]
fn pipelining_overlaps_crypto_with_wire() {
    // Same message, same library, same fabric: the pipelined
    // exchange must finish sooner because seals/opens ride worker
    // cores instead of adding to the critical path.
    let len = 1usize << 21;
    let run = |pipeline: crate::PipelineConfig| {
        let w = World::flat(NetModel::ethernet_10g(), 2);
        w.run(move |c| {
            let sc = SecureComm::new(c, cfg().with_pipeline(pipeline)).unwrap();
            let msg = vec![0u8; len];
            if c.rank() == 0 {
                sc.send(&msg, 1, 0);
            } else {
                sc.recv(Src::Is(0), TagSel::Is(0)).unwrap();
            }
        })
        .end_time
        .as_nanos()
    };
    let sequential = run(crate::PipelineConfig::disabled());
    let pipelined = run(crate::PipelineConfig::enabled().with_workers(4));
    assert!(
        pipelined < sequential,
        "pipelined {pipelined}ns must beat sequential {sequential}ns"
    );
}

#[test]
fn violated_slo_budget_reaches_the_trace_it_judges() {
    // Regression: health/* events were emitted into rings the run had
    // already drained. A 1 ns p99 budget on `p2p/` is one no run can
    // meet, so the violation and the verdict must both be in the trace
    // that comes back with the `violated` snapshot.
    let slo = empi_mpi::SloConfig::new().p99("p2p/", 1);
    let w = World::flat(NetModel::ethernet_10g(), 2)
        .traced(true)
        .with_slo(slo);
    let out = w.run(|c| {
        let sc = SecureComm::new(c, cfg()).unwrap();
        for i in 0..3u32 {
            if c.rank() == 0 {
                sc.send(&[i as u8; 512], 1, i);
            } else {
                sc.recv(Src::Is(0), TagSel::Is(i)).unwrap();
            }
        }
    });
    let snap = out.metrics.expect("with_slo implies a snapshot");
    assert_eq!(snap.slo.verdict(), "violated");
    let end = out.end_time.as_nanos();
    let tr = out.trace.unwrap();
    let health: Vec<_> = tr
        .events
        .iter()
        .filter(|e| e.name.starts_with("health/"))
        .collect();
    assert!(health.iter().all(|e| e.ts_ns == end && e.tid == 0));
    let named = |name: &str| health.iter().filter(|e| e.name == name).count();
    assert_eq!(named("health/p99-budget"), snap.slo.violations.len());
    assert!(
        named("health/p99-budget") >= 2,
        "p2p/send and p2p/recv both miss 1 ns"
    );
    assert_eq!(named("health/verdict"), 1);
    let verdict = health.iter().find(|e| e.name == "health/verdict").unwrap();
    let detail = &verdict.detail;
    assert!(detail.starts_with("violated ("), "{detail}");
}

#[test]
fn traced_pipelined_send_fills_worker_lanes() {
    let len = 1usize << 20; // 16 chunks of 64 KB
    let w = World::flat(NetModel::ethernet_10g(), 2).traced(true);
    let out = w.run(move |c| {
        let sc = SecureComm::new(
            c,
            cfg().with_pipeline(crate::PipelineConfig::enabled().with_workers(4)),
        )
        .unwrap();
        let msg = vec![0u8; len];
        if c.rank() == 0 {
            sc.send(&msg, 1, 0);
        } else {
            sc.recv(Src::Is(0), TagSel::Is(0)).unwrap();
        }
    });
    let tr = out.trace.unwrap();
    // One logical seal/open and nonce draw per message; per-chunk
    // activity lands in the chunk counters.
    assert_eq!(
        (
            tr.per_rank[0].seals,
            tr.per_rank[0].nonce_draws,
            tr.per_rank[0].chunks_sealed
        ),
        (1, 1, 16)
    );
    assert_eq!(
        (tr.per_rank[1].opens, tr.per_rank[1].chunks_opened),
        (1, 16)
    );
    // Wire byte conservation with 52 bytes framing per chunk.
    assert_eq!(tr.pair(0, 1).tx_bytes, (len + 16 * 52) as u64);
    assert_eq!(tr.pair(0, 1).rx_bytes, tr.pair(0, 1).tx_bytes);
    // Pipeline spans exist for both directions and carry the backend.
    assert!(tr
        .events
        .iter()
        .any(|e| e.name == "pipe/seal" && e.detail.contains("BoringSSL")));
    assert!(tr.events.iter().any(|e| e.name == "pipe/open"));
    // Crypto time was recorded even though the wall path is
    // wire-bound: that is the decomposition signature of overlap.
    assert!(tr.decomposition().crypto_ns > 0);
}

#[test]
fn mixed_path_matrix_pipelined_sender() {
    // Satellite regression matrix: a pipelined (chunked-wire) sender
    // against every receiver completion path, including a receiver
    // whose own pipeline config is disabled. Every cell must
    // round-trip bit-identically with no auth failures.
    let len = (1usize << 18) + 7; // 4+ chunks with an uneven tail
    for mode in 0..5 {
        let w = World::flat(NetModel::ethernet_10g(), 2);
        let out = w.run(move |c| {
            let msg: Vec<u8> = (0..len).map(|i| (i.wrapping_mul(131)) as u8).collect();
            if c.rank() == 0 {
                let sc = SecureComm::new(
                    c,
                    cfg().with_pipeline(crate::PipelineConfig::enabled().with_workers(4)),
                )
                .unwrap();
                sc.send(&msg, 1, 3);
                true
            } else {
                // Modes 3 and 4 run a plain-config receiver: the
                // chunked wire format must still be dispatched on.
                let rcfg = if mode >= 3 {
                    cfg()
                } else {
                    cfg().with_pipeline(crate::PipelineConfig::enabled().with_workers(4))
                };
                let sc = SecureComm::new(c, rcfg).unwrap();
                let data = match mode {
                    0 | 3 => sc.recv(Src::Is(0), TagSel::Is(3)).unwrap().1,
                    1 | 4 => {
                        let r = sc.irecv(Src::Is(0), TagSel::Is(3));
                        sc.wait(r).unwrap().1.unwrap()
                    }
                    _ => {
                        let mut reqs = vec![sc.irecv(Src::Is(0), TagSel::Is(3))];
                        let (idx, st, data) = sc.waitany(&mut reqs).unwrap();
                        assert_eq!((idx, st.source, st.tag), (0, 0, 3));
                        assert!(reqs.is_empty());
                        data.unwrap()
                    }
                };
                data == msg
            }
        });
        assert_eq!(out.results, vec![true, true], "receiver mode {mode}");
    }
}

#[test]
fn mixed_sizes_on_one_flow_keep_send_order() {
    // A pipelined sender chunks the large messages and sends the small
    // ones as plain records — two wire formats on one (src, tag) flow.
    // The receiver's `recv`s must see send order and exact plaintexts.
    let chunk = 64usize << 10;
    let sizes = [2 << 20, 16, chunk + 1, chunk, 1, 3 * chunk + 5];
    let msg = |i: usize| -> Vec<u8> {
        (0..sizes[i])
            .map(|j| (i + j.wrapping_mul(31)) as u8)
            .collect()
    };
    let w = World::flat(NetModel::ethernet_10g(), 2);
    let out = w.run(move |c| {
        let pipe = crate::PipelineConfig::enabled()
            .with_workers(4)
            .with_chunk_size(chunk);
        let sc = SecureComm::new(c, cfg().with_pipeline(pipe)).unwrap();
        if c.rank() == 0 {
            let reqs = (0..sizes.len()).map(|i| sc.isend(&msg(i), 1, 3)).collect();
            sc.waitall(reqs).unwrap();
        } else {
            for (i, &size) in sizes.iter().enumerate() {
                let (_, data) = sc.recv(Src::Is(0), TagSel::Is(3)).unwrap();
                assert_eq!(data.len(), size, "message {i} overtaken");
                assert!(data == msg(i), "message {i} corrupted");
            }
        }
    });
    assert_eq!(out.results.len(), 2);
}

#[test]
fn pipelined_isend_decrypts_in_wait() {
    // Nonblocking chunked exchange in both directions at once: the
    // isends return before the trains land, and each side's chunked
    // train is opened inside `wait`.
    let len = (1usize << 19) + 3;
    let pcfg = move || cfg().with_pipeline(crate::PipelineConfig::enabled().with_workers(4));
    let w = World::flat(NetModel::ethernet_10g(), 2);
    let out = w.run(move |c| {
        let sc = SecureComm::new(c, pcfg()).unwrap();
        let me = c.rank();
        let peer = 1 - me;
        let msg: Vec<u8> = (0..len).map(|i| (i.wrapping_mul(me + 3)) as u8).collect();
        let sreq = sc.isend(&msg, peer, 9);
        let rreq = sc.irecv(Src::Is(peer), TagSel::Is(9));
        let (st, data) = sc.wait(rreq).unwrap();
        assert_eq!((st.source, st.len), (peer, len));
        let (_, none) = sc.wait(sreq).unwrap();
        assert!(none.is_none());
        let expect: Vec<u8> = (0..len).map(|i| (i.wrapping_mul(peer + 3)) as u8).collect();
        data.unwrap() == expect
    });
    assert_eq!(out.results, vec![true, true]);
}

#[test]
fn bcast_length_mismatch_is_typed_error() {
    // A non-root sized differently from the root still participates
    // in the wire movement (peers are unaffected) and then reports
    // the typed mismatch instead of panicking or mis-decrypting.
    let w = World::flat(NetModel::instant(), 3);
    let out = w.run(|c| {
        let sc = SecureComm::new(c, cfg()).unwrap();
        let mut buf = match c.rank() {
            0 => vec![7u8; 64],
            1 => vec![0u8; 64],
            _ => vec![0u8; 32], // wrong count on rank 2
        };
        match (c.rank(), sc.bcast(&mut buf, 0)) {
            (
                2,
                Err(Error::LengthMismatch {
                    local: 32,
                    remote: 64,
                }),
            ) => true,
            (2, _) => false,
            (_, Ok(())) => buf == vec![7u8; 64],
            _ => false,
        }
    });
    assert_eq!(out.results, vec![true, true, true]);
}

#[test]
fn pipelined_bcast_length_mismatch_still_forwards() {
    // Same contract on the chunked path: the mismatched rank relays
    // the ciphertext train down the tree before erroring, so ranks
    // below it still complete.
    let len = 1usize << 17;
    let pcfg = move || {
        cfg().with_pipeline(
            crate::PipelineConfig::enabled()
                .with_chunk_size(1 << 14)
                .with_workers(4),
        )
    };
    let w = World::flat(NetModel::ethernet_10g(), 4);
    let out = w.run(move |c| {
        let sc = SecureComm::new(c, pcfg()).unwrap();
        // Binomial tree from root 0 over 4 ranks: rank 1 receives
        // from 0 and forwards to rank 3. Give rank 1 the bad count.
        let mut buf = match c.rank() {
            0 => vec![5u8; len],
            1 => vec![0u8; len / 2],
            _ => vec![0u8; len],
        };
        match (c.rank(), sc.bcast(&mut buf, 0)) {
            (1, Err(Error::LengthMismatch { local, remote })) => {
                local == len / 2 && remote == len
            }
            (1, _) => false,
            (_, Ok(())) => buf == vec![5u8; len],
            _ => false,
        }
    });
    assert_eq!(out.results, vec![true, true, true, true]);
}

#[test]
fn bcast_plain_record_after_chunked_header_is_typed_error() {
    // A peer that announces the chunked format in the bcast header and
    // then sends plain records is reachable from the wire: the receiver
    // must report the typed format error, not panic. Rank 0 plays that
    // peer on the raw communicator; both pipelined bodies are covered
    // (binomial tree below the long-message threshold, scatter +
    // ring above it).
    for len in [1usize << 10, 1 << 16] {
        let w = World::flat(NetModel::instant(), 2);
        let out = w.run(move |c| {
            if c.rank() == 0 {
                let mut hdr = [0u8; 17];
                hdr[..8].copy_from_slice(&(len as u64).to_be_bytes());
                hdr[8] = 1;
                hdr[9..].copy_from_slice(&(1u64 << 14).to_be_bytes());
                c.bcast(&mut hdr, 0);
                let tag = c.reserved_tag(32);
                c.send(b"not a frame train", 1, tag);
                if bcast_alg(len) == BcastAlg::ScatterAllgather {
                    // The ring step: one more plain record out, and
                    // the victim's (runt) relay in.
                    c.send(b"still not a frame train", 1, tag);
                    let _ = c.recv_maybe_chunked(Src::Is(1), TagSel::Is(tag));
                }
                None
            } else {
                let sc = SecureComm::new(c, cfg()).unwrap();
                sc.bcast(&mut vec![0u8; len], 0).err()
            }
        });
        assert_eq!(
            out.results[1],
            Some(Error::Pipeline(empi_pipeline::PipelineError::NotChunked)),
            "len {len}"
        );
    }
}

#[test]
fn bcast_header_announcing_an_absurd_length_is_typed_error() {
    // The 17-byte header is read before anything is authenticated and
    // its length field sizes the receive buffers: a root that announces
    // more than MPI's `int` count (here on the raw communicator, in
    // both wire formats) must get a typed error out of its peers, not
    // an add overflow, a capacity overflow or a 2^40-byte allocation.
    for announced in [u64::MAX, 1 << 40, i32::MAX as u64 + 1] {
        for chunked in [0u8, 1] {
            let w = World::flat(NetModel::instant(), 2);
            let out = w.run(move |c| {
                if c.rank() == 0 {
                    let mut hdr = [0u8; 17];
                    hdr[..8].copy_from_slice(&announced.to_be_bytes());
                    hdr[8] = chunked;
                    hdr[9..].copy_from_slice(&(1u64 << 14).to_be_bytes());
                    c.bcast(&mut hdr, 0);
                    None
                } else {
                    let sc = SecureComm::new(c, cfg()).unwrap();
                    sc.bcast(&mut vec![0u8; 64], 0).err()
                }
            });
            assert_eq!(
                out.results[1],
                Some(Error::LengthMismatch {
                    local: 64,
                    remote: announced as usize
                }),
                "announced {announced} chunked {chunked}"
            );
        }
    }
}

#[test]
fn pipelined_bcast_round_trips_with_mixed_configs() {
    // The wire format is the root's choice; a receiver with
    // pipelining disabled locally must still open the chunked train.
    let len = (1usize << 18) + 5;
    let w = World::flat(NetModel::ethernet_10g(), 4);
    let out = w.run(move |c| {
        let local = if c.rank() == 3 {
            cfg() // pipelining disabled on this receiver
        } else {
            cfg().with_pipeline(crate::PipelineConfig::enabled().with_workers(4))
        };
        let sc = SecureComm::new(c, local).unwrap();
        let pattern: Vec<u8> = (0..len).map(|i| (i.wrapping_mul(17)) as u8).collect();
        let mut buf = if c.rank() == 1 {
            pattern.clone()
        } else {
            vec![0u8; len]
        };
        sc.bcast(&mut buf, 1).unwrap();
        buf == pattern
    });
    assert_eq!(out.results, vec![true; 4]);
}

#[test]
fn pipelined_bcast_beats_sequential() {
    // Forward-then-open down the tree must strictly beat the
    // sequential seal → bcast → open shape at a pipeline-worthy size.
    let len = 1usize << 21;
    let run = |pipeline: crate::PipelineConfig| {
        let w = World::flat(NetModel::ethernet_10g(), 4);
        w.run(move |c| {
            let sc = SecureComm::new(c, cfg().with_pipeline(pipeline)).unwrap();
            let mut buf = if c.rank() == 0 {
                vec![3u8; len]
            } else {
                vec![0u8; len]
            };
            sc.bcast(&mut buf, 0).unwrap();
        })
        .end_time
        .as_nanos()
    };
    let sequential = run(crate::PipelineConfig::disabled());
    let pipelined = run(crate::PipelineConfig::enabled().with_workers(4));
    assert!(
        pipelined < sequential,
        "pipelined bcast {pipelined}ns must beat sequential {sequential}ns"
    );
}

#[test]
fn pipelined_alltoall_matches_sequential_and_overlaps() {
    let n = 4usize;
    let block = 96 * 1024; // > one 64 KB chunk → chunked trains
    let data = |me: usize| -> Vec<u8> {
        (0..n)
            .flat_map(|dst| {
                let mut b = vec![me as u8; block];
                b[1] = dst as u8;
                b
            })
            .collect()
    };
    let run = |pipeline: crate::PipelineConfig| {
        let w = World::flat(NetModel::ethernet_10g(), n);
        w.run(move |c| {
            let sc = SecureComm::new(c, cfg().with_pipeline(pipeline)).unwrap();
            sc.alltoall(&data(c.rank()), block).unwrap()
        })
    };
    let seq = run(crate::PipelineConfig::disabled());
    let pip = run(crate::PipelineConfig::enabled().with_workers(4));
    // Bit-identical plaintext out of both shapes.
    assert_eq!(seq.results, pip.results);
    for (me, v) in pip.results.iter().enumerate() {
        for src in 0..n {
            assert_eq!(v[src * block] as usize, src);
            assert_eq!(v[src * block + 1] as usize, me);
        }
    }
    // And the chunked shape must overlap crypto with the wire.
    assert!(
        pip.end_time < seq.end_time,
        "pipelined alltoall {:?} must beat sequential {:?}",
        pip.end_time,
        seq.end_time
    );
}

#[test]
fn pipelined_alltoallv_mixes_segment_formats() {
    // Ragged counts around the chunk threshold: large segments ride
    // chunked trains, small and empty ones the plain record format,
    // in the same collective call.
    let n = 3usize;
    let counts = |me: usize| -> Vec<usize> {
        (0..n)
            .map(|dst| match (me + dst) % 3 {
                0 => 0,
                1 => 100,
                _ => (1 << 16) + 9, // above one chunk
            })
            .collect()
    };
    let w = World::flat(NetModel::ethernet_10g(), n);
    let out = w.run(move |c| {
        let me = c.rank();
        let sc = SecureComm::new(
            c,
            cfg().with_pipeline(crate::PipelineConfig::enabled().with_workers(2)),
        )
        .unwrap();
        let send_counts = counts(me);
        let recv_counts: Vec<usize> = (0..n).map(|src| counts(src)[me]).collect();
        let send: Vec<u8> = send_counts
            .iter()
            .flat_map(|&k| vec![me as u8 + 1; k])
            .collect();
        let got = sc.alltoallv(&send, &send_counts, &recv_counts).unwrap();
        let expect: Vec<u8> = (0..n)
            .flat_map(|src| vec![src as u8 + 1; recv_counts[src]])
            .collect();
        got == expect
    });
    assert_eq!(out.results, vec![true; n]);
}

#[test]
fn shared_pool_serializes_two_secure_comms() {
    // Two SecureComms on one rank draw from the *same* per-rank
    // worker pool: their chunk seals must share worker timelines
    // (never overlap on a lane) instead of each getting a phantom
    // idle pool of its own.
    let len = 1usize << 18; // 4 chunks
    let w = World::flat(NetModel::ethernet_10g(), 2).traced(true);
    let out = w.run(move |c| {
        let pcfg = || cfg().with_pipeline(crate::PipelineConfig::enabled().with_workers(2));
        if c.rank() == 0 {
            let sc1 = SecureComm::new(c, pcfg()).unwrap();
            let sc2 = SecureComm::new(c, pcfg()).unwrap();
            let msg = vec![1u8; len];
            let r1 = sc1.isend(&msg, 1, 1);
            let r2 = sc2.isend(&msg, 1, 2);
            sc1.wait(r1).unwrap();
            sc2.wait(r2).unwrap();
        } else {
            let sc = SecureComm::new(c, pcfg()).unwrap();
            sc.recv(Src::Is(0), TagSel::Is(1)).unwrap();
            sc.recv(Src::Is(0), TagSel::Is(2)).unwrap();
        }
    });
    let tr = out.trace.unwrap();
    // Both messages' chunks were sealed on rank 0.
    assert_eq!(tr.per_rank[0].chunks_sealed, 8);
    // Collect rank-0 seal spans per worker lane and check the lanes
    // are conflict-free in virtual time across *both* communicators.
    let mut by_lane: std::collections::HashMap<u32, Vec<(u64, u64)>> =
        std::collections::HashMap::new();
    for e in tr.events.iter().filter(|e| e.name == "pipe/seal") {
        by_lane
            .entry(e.tid)
            .or_default()
            .push((e.ts_ns, e.ts_ns + e.dur_ns));
    }
    assert_eq!(by_lane.len(), 2, "two workers must carry all seals");
    for spans in by_lane.values_mut() {
        spans.sort_unstable();
        for pair in spans.windows(2) {
            assert!(
                pair[1].0 >= pair[0].1,
                "worker lane double-booked: {:?} overlaps {:?}",
                pair[0],
                pair[1]
            );
        }
    }
}

#[test]
fn nonces_never_repeat_across_messages() {
    let w = World::flat(NetModel::instant(), 2);
    w.run(|c| {
        let sc = SecureComm::new(c, cfg()).unwrap();
        if c.rank() == 0 {
            for i in 0..50u8 {
                sc.send(&[i], 1, 0);
            }
        } else {
            let mut nonces = std::collections::HashSet::new();
            for _ in 0..50 {
                let (_, wire) = c.recv(Src::Is(0), TagSel::Is(0));
                assert!(nonces.insert(wire[..12].to_vec()), "nonce reuse!");
            }
        }
    });
}

// -----------------------------------------------------------------
// Fault injection + retransmit layer
// -----------------------------------------------------------------

use crate::FaultRates;
use empi_netsim::VDur;

#[test]
fn faults_without_arq_surface_typed_errors() {
    // Every sealed record is corrupted; with no retransmit layer
    // the receiver must see a typed auth failure, never a panic.
    let w = World::flat(NetModel::instant(), 2);
    let out = w.run(|c| {
        let local = if c.rank() == 0 {
            cfg().with_faults(
                9,
                FaultRates {
                    bit_flip: 1.0,
                    ..FaultRates::ZERO
                },
            )
        } else {
            cfg()
        };
        let sc = SecureComm::new(c, local).unwrap();
        if c.rank() == 0 {
            sc.send(b"will be flipped", 1, 3);
            assert!(sc.chaos_stats().faults_injected >= 1);
            true
        } else {
            matches!(
                sc.recv(Src::Is(0), TagSel::Is(3)),
                Err(Error::Crypto(empi_aead::Error::AuthFailure))
            )
        }
    });
    assert_eq!(out.results, vec![true, true]);
}

#[test]
fn zero_fault_rate_arq_is_silent() {
    // Retransmit enabled, fault rate zero: traffic must round-trip
    // with zero NACK/repair wire frames and all-zero chaos counters.
    let w = World::flat(NetModel::ethernet_10g(), 2);
    let out = w.run(|c| {
        let sc = SecureComm::new(c, cfg().with_retransmit(3, VDur::from_micros(100))).unwrap();
        let me = c.rank();
        let (st, echo) = sc
            .sendrecv(
                &vec![me as u8; 2048],
                1 - me,
                4,
                Src::Is(1 - me),
                TagSel::Is(4),
            )
            .unwrap();
        assert_eq!(st.len, 2048);
        assert_eq!(echo, vec![(1 - me) as u8; 2048]);
        let mut b = if me == 0 {
            b"bcast".to_vec()
        } else {
            vec![0u8; 5]
        };
        sc.bcast(&mut b, 0).unwrap();
        assert_eq!(b, b"bcast");
        sc.chaos_stats()
    });
    for st in out.results {
        assert_eq!(
            st,
            ChaosStats::default(),
            "ARQ at fault rate 0 must be free"
        );
    }
}

#[test]
fn duplicated_chunks_salvage_without_wire_traffic() {
    // Duplicate every chunk frame: the opener rejects the train, the
    // salvager deduplicates and reassembles — recovery without a
    // single NACK.
    let len = 1usize << 17;
    let w = World::flat(NetModel::ethernet_10g(), 2);
    let out = w.run(move |c| {
        let local = cfg()
            .with_pipeline(crate::PipelineConfig::enabled().with_workers(2))
            .with_retransmit(3, VDur::from_micros(200));
        let local = if c.rank() == 0 {
            local.with_faults(
                5,
                FaultRates {
                    duplicate: 1.0,
                    ..FaultRates::ZERO
                },
            )
        } else {
            local
        };
        let sc = SecureComm::new(c, local).unwrap();
        if c.rank() == 0 {
            sc.send(&vec![0xA7u8; len], 1, 6);
            sc.pump(sc.recovery_window());
            true
        } else {
            let (_, data) = sc.recv(Src::Is(0), TagSel::Is(6)).unwrap();
            let st = sc.chaos_stats();
            data == vec![0xA7u8; len] && st.recoveries == 1 && st.nacks_sent == 0
        }
    });
    assert_eq!(out.results, vec![true, true]);
}

#[test]
fn jitter_only_delays_but_delivers() {
    let len = 1usize << 16;
    let w = World::flat(NetModel::ethernet_10g(), 2);
    let out = w.run(move |c| {
        let local = cfg()
            .with_pipeline(crate::PipelineConfig::enabled().with_workers(2))
            .with_faults(
                11,
                FaultRates {
                    jitter: 1.0,
                    jitter_max_ns: 5_000,
                    ..FaultRates::ZERO
                },
            );
        let sc = SecureComm::new(c, local).unwrap();
        if c.rank() == 0 {
            sc.send(&vec![0x3Cu8; len], 1, 1);
            sc.chaos_stats().faults_injected >= 1
        } else {
            let (_, data) = sc.recv(Src::Is(0), TagSel::Is(1)).unwrap();
            data == vec![0x3Cu8; len]
        }
    });
    assert_eq!(out.results, vec![true, true]);
}

#[test]
fn arq_recovers_dropped_chunks_via_nack_repair() {
    // Sweep seeds at a hefty chunk-drop rate: every run must end in
    // the exact plaintext or a typed error, and at least one run
    // must recover through a real NACK → repair round trip.
    let len = 1usize << 17; // 4 chunks of 32 KiB
    let mut wire_recoveries = 0u64;
    let mut outcomes = 0usize;
    for seed in 0..12u64 {
        let w = World::flat(NetModel::ethernet_10g(), 2);
        let out = w.run(move |c| {
            let local = cfg()
                .with_pipeline(
                    crate::PipelineConfig::enabled()
                        .with_chunk_size(1 << 15)
                        .with_workers(2),
                )
                .with_retransmit(4, VDur::from_micros(300));
            let local = if c.rank() == 0 {
                local.with_faults(
                    seed,
                    FaultRates {
                        drop: 0.5,
                        ..FaultRates::ZERO
                    },
                )
            } else {
                local
            };
            let sc = SecureComm::new(c, local).unwrap();
            if c.rank() == 0 {
                sc.send(&vec![0x5Au8; len], 1, 2);
                sc.pump(sc.recovery_window());
                (true, 0u64, 0u64)
            } else {
                let st = match sc.recv(Src::Is(0), TagSel::Is(2)) {
                    Ok((_, data)) => {
                        assert_eq!(data, vec![0x5Au8; len], "seed {seed}: wrong plaintext");
                        sc.chaos_stats()
                    }
                    Err(
                        Error::DeliveryFailed { .. }
                        | Error::Timeout { .. }
                        | Error::Crypto(_)
                        | Error::Pipeline(_),
                    ) => sc.chaos_stats(),
                    Err(e) => panic!("seed {seed}: unexpected error class: {e}"),
                };
                (true, st.recoveries, st.nacks_sent)
            }
        });
        outcomes += 1;
        let (_, recoveries, nacks) = out.results[1];
        if recoveries > 0 && nacks > 0 {
            wire_recoveries += 1;
        }
    }
    assert_eq!(outcomes, 12);
    assert!(
        wire_recoveries >= 1,
        "no seed exercised a NACK-repair recovery — rates too extreme?"
    );
}

#[test]
fn arq_recovers_flipped_plain_message() {
    // Plain (non-pipelined) path: a bit-flipped record fails auth,
    // the receiver NACKs the whole message, the sender's retained
    // copy is re-corrupted (or not) per attempt. Sweep seeds and
    // require at least one whole-message wire recovery.
    let mut wire_recoveries = 0u64;
    for seed in 0..12u64 {
        let w = World::flat(NetModel::ethernet_10g(), 2);
        let out = w.run(move |c| {
            let local = cfg().with_retransmit(4, VDur::from_micros(200));
            let local = if c.rank() == 0 {
                local.with_faults(
                    seed,
                    FaultRates {
                        bit_flip: 0.6,
                        ..FaultRates::ZERO
                    },
                )
            } else {
                local
            };
            let sc = SecureComm::new(c, local).unwrap();
            if c.rank() == 0 {
                sc.send(&vec![0x77u8; 4096], 1, 8);
                sc.pump(sc.recovery_window());
                0
            } else {
                match sc.recv(Src::Is(0), TagSel::Is(8)) {
                    Ok((_, data)) => {
                        assert_eq!(data, vec![0x77u8; 4096]);
                        sc.chaos_stats().recoveries
                    }
                    Err(Error::DeliveryFailed { .. } | Error::Timeout { .. }) => 0,
                    Err(e) => panic!("seed {seed}: unexpected error: {e}"),
                }
            }
        });
        wire_recoveries += out.results[1];
    }
    assert!(wire_recoveries >= 1, "no seed recovered a plain record");
}

#[test]
fn nack_for_evicted_message_gets_an_abort() {
    // A NACK naming a flow the sender no longer retains (or never
    // sent) is answered with a typed abort repair.
    use empi_mpi::{RepairKind, NACK_TAG, REPAIR_TAG};
    let w = World::flat(NetModel::instant(), 2);
    let out = w.run(|c| {
        let sc = SecureComm::new(c, cfg().with_retransmit(2, VDur::from_micros(50))).unwrap();
        if c.rank() == 0 {
            sc.pump(VDur::from_micros(20));
            sc.chaos_stats().aborts == 1
        } else {
            let nack = empi_mpi::Nack::Whole {
                tag: 5,
                seq: 9,
                attempt: 0,
            };
            c.send(&nack.encode(), 0, NACK_TAG);
            let (_, raw) = c.recv(Src::Is(0), TagSel::Is(REPAIR_TAG));
            let (hdr, body) = decode_repair(&raw);
            hdr.kind == RepairKind::Abort && hdr.tag == 5 && hdr.seq == 9 && body.is_empty()
        }
    });
    assert_eq!(out.results, vec![true, true]);
}

fn decode_repair(raw: &[u8]) -> (empi_mpi::RepairHeader, Vec<u8>) {
    let (hdr, body) = empi_mpi::RepairHeader::decode(raw).expect("well-formed repair");
    (hdr, body.to_vec())
}

#[test]
fn silent_sender_times_out_with_typed_error() {
    // The sender injects faults but has NO retransmit layer, so the
    // receiver's NACKs go unanswered: after the full backoff
    // schedule the receiver must surface Error::Timeout.
    let w = World::flat(NetModel::instant(), 2);
    let out = w.run(|c| {
        if c.rank() == 0 {
            let sc = SecureComm::new(
                c,
                cfg().with_faults(
                    3,
                    FaultRates {
                        bit_flip: 1.0,
                        ..FaultRates::ZERO
                    },
                ),
            )
            .unwrap();
            sc.send(b"corrupted and never repaired", 1, 9);
            true
        } else {
            let sc =
                SecureComm::new(c, cfg().with_retransmit(2, VDur::from_micros(40))).unwrap();
            match sc.recv(Src::Is(0), TagSel::Is(9)) {
                Err(Error::Timeout { waited_ns, op, .. }) => op == "recv" && waited_ns > 0,
                other => panic!("expected timeout, got {other:?}"),
            }
        }
    });
    assert_eq!(out.results, vec![true, true]);
}

#[test]
fn degraded_workers_slow_the_pipeline_but_stay_correct() {
    // Worker degradation must never corrupt data — only stretch the
    // virtual-time schedule.
    let len = 1usize << 18;
    let run = |degrade: bool| {
        let w = World::flat(NetModel::ethernet_10g(), 2);
        w.run(move |c| {
            let mut local =
                cfg().with_pipeline(crate::PipelineConfig::enabled().with_workers(4));
            if degrade {
                local = local.with_faults(
                    21,
                    FaultRates {
                        degraded_workers: 1.0,
                        worker_slowdown: 8,
                        ..FaultRates::ZERO
                    },
                );
            }
            let sc = SecureComm::new(c, local).unwrap();
            if c.rank() == 0 {
                sc.send(&vec![0x11u8; len], 1, 0);
                assert!(!degrade || sc.chaos_stats().faults_injected >= 1);
            } else {
                let (_, data) = sc.recv(Src::Is(0), TagSel::Is(0)).unwrap();
                assert_eq!(data, vec![0x11u8; len]);
            }
        })
        .end_time
        .as_nanos()
    };
    let clean = run(false);
    let degraded = run(true);
    assert!(
        degraded > clean,
        "8x-degraded workers must stretch the schedule: {degraded} vs {clean}"
    );
}

#[test]
fn arq_bcast_recovers_or_degrades_gracefully() {
    // 4-rank ARQ broadcast with a faulty root link: every rank must
    // finish (no deadlock) with either the payload or a typed error.
    let len = 1usize << 17;
    let mut full_success = 0usize;
    for seed in 0..6u64 {
        let w = World::flat(NetModel::ethernet_10g(), 4);
        let out = w.run(move |c| {
            let local = cfg()
                .with_pipeline(
                    crate::PipelineConfig::enabled()
                        .with_chunk_size(1 << 15)
                        .with_workers(2),
                )
                .with_retransmit(3, VDur::from_micros(300))
                .with_faults(
                    seed,
                    FaultRates {
                        drop: 0.3,
                        ..FaultRates::ZERO
                    },
                );
            let sc = SecureComm::new(c, local).unwrap();
            let mut buf = if c.rank() == 0 {
                vec![0xB2u8; len]
            } else {
                vec![0u8; len]
            };
            let res = sc.bcast(&mut buf, 0);
            sc.pump(sc.recovery_window());
            match res {
                Ok(()) => {
                    assert_eq!(buf, vec![0xB2u8; len], "seed {seed}: wrong bcast payload");
                    true
                }
                Err(
                    Error::DeliveryFailed { .. }
                    | Error::Timeout { .. }
                    | Error::LengthMismatch { .. },
                ) => false,
                Err(e) => panic!("seed {seed}: unexpected error class: {e}"),
            }
        });
        if out.results.iter().all(|&ok| ok) {
            full_success += 1;
        }
    }
    assert!(
        full_success >= 1,
        "no seed completed a fully-recovered ARQ broadcast"
    );
}

#[test]
fn arq_alltoall_round_trips_under_chunk_drops() {
    let n = 4usize;
    let block = 96 * 1024;
    let mut successes = 0usize;
    for seed in 0..4u64 {
        let w = World::flat(NetModel::ethernet_10g(), n);
        let out = w.run(move |c| {
            let local = cfg()
                .with_pipeline(crate::PipelineConfig::enabled().with_workers(2))
                .with_retransmit(3, VDur::from_micros(300))
                .with_faults(
                    seed,
                    FaultRates {
                        drop: 0.2,
                        ..FaultRates::ZERO
                    },
                );
            let sc = SecureComm::new(c, local).unwrap();
            let me = c.rank();
            let send: Vec<u8> = (0..n)
                .flat_map(|d| vec![(me * n + d) as u8; block])
                .collect();
            let res = sc.alltoall(&send, block);
            sc.pump(sc.recovery_window());
            match res {
                Ok(out) => {
                    let want: Vec<u8> = (0..n)
                        .flat_map(|s| vec![(s * n + me) as u8; block])
                        .collect();
                    assert_eq!(out, want, "seed {seed}: alltoall plaintext mismatch");
                    true
                }
                Err(
                    Error::DeliveryFailed { .. }
                    | Error::Timeout { .. }
                    | Error::LengthMismatch { .. },
                ) => false,
                Err(e) => panic!("seed {seed}: unexpected error class: {e}"),
            }
        });
        if out.results.iter().all(|&ok| ok) {
            successes += 1;
        }
    }
    assert!(successes >= 1, "no seed completed a recovered ARQ alltoall");
}

#[test]
fn fault_and_retry_spans_reach_the_trace() {
    let w = World::flat(NetModel::ethernet_10g(), 2).traced(true);
    let out = w.run(|c| {
        let local = cfg().with_retransmit(4, VDur::from_micros(200));
        let local = if c.rank() == 0 {
            local.with_faults(
                2,
                FaultRates {
                    bit_flip: 0.8,
                    ..FaultRates::ZERO
                },
            )
        } else {
            local
        };
        let sc = SecureComm::new(c, local).unwrap();
        if c.rank() == 0 {
            for i in 0..6u8 {
                sc.send(&vec![i; 512], 1, 0);
            }
            sc.pump(sc.recovery_window());
        } else {
            for _ in 0..6 {
                let _ = sc.recv(Src::Is(0), TagSel::Is(0));
            }
        }
    });
    let tr = out.trace.unwrap();
    let faults: usize = tr.per_rank.iter().map(|r| r.faults_injected as usize).sum();
    assert!(faults >= 1, "fault spans must reach the trace");
    assert!(
        tr.events.iter().any(|e| e.name.starts_with("fault/")),
        "expected fault/* events"
    );
    let nacks: usize = tr.per_rank.iter().map(|r| r.nacks_sent as usize).sum();
    if nacks > 0 {
        assert!(
            tr.events.iter().any(|e| e.name.starts_with("retry/")),
            "NACKs were sent but no retry/* spans recorded"
        );
    }
}

/// Capture the raw wire bytes rank 1 observes for one secure send
/// of `msg` under `mk_cfg` (plain or chunked format both handled).
fn raw_wire_for(msg: Vec<u8>, mk_cfg: fn() -> SecurityConfig) -> Vec<u8> {
    let w = World::flat(NetModel::ethernet_10g(), 2);
    let out = w.run(move |c| {
        if c.rank() == 0 {
            let sc = SecureComm::new(c, mk_cfg()).unwrap();
            sc.send(&msg, 1, 0);
            Vec::new()
        } else {
            // Peek below the secure layer: concatenate whatever
            // records actually crossed the wire.
            match c.recv_maybe_chunked(Src::Is(0), TagSel::Is(0)) {
                RecvPayload::Plain(_, wire) => wire.to_vec(),
                RecvPayload::Chunked(msg) => msg
                    .frames
                    .iter()
                    .flat_map(|(_, b)| b.iter().copied())
                    .collect(),
            }
        }
    });
    out.results.into_iter().nth(1).unwrap()
}

#[test]
fn pooled_wire_bytes_are_bit_identical_to_unpooled() {
    // The pool is a pure allocation strategy: with it on or off the
    // wire must carry exactly the same bytes, plain and chunked.
    // Deterministic nonces so the two worlds draw identical nonce
    // sequences; everything else must then match bit for bit.
    for len in [48usize, 4096, (1 << 17) + 9] {
        let msg: Vec<u8> = (0..len).map(|i| (i.wrapping_mul(37)) as u8).collect();
        let plain = raw_wire_for(msg.clone(), || cfg().with_deterministic_nonces(11));
        let pooled = raw_wire_for(msg.clone(), || {
            cfg().with_deterministic_nonces(11).with_buffer_pool(true)
        });
        assert_eq!(plain, pooled, "len {len}: plain-format wire bytes differ");

        let pipe_off = raw_wire_for(msg.clone(), || {
            cfg()
                .with_deterministic_nonces(11)
                .with_pipeline(crate::PipelineConfig::enabled().with_workers(4))
        });
        let pipe_on = raw_wire_for(msg.clone(), || {
            cfg()
                .with_deterministic_nonces(11)
                .with_pipeline(crate::PipelineConfig::enabled().with_workers(4))
                .with_buffer_pool(true)
        });
        assert_eq!(pipe_off, pipe_on, "len {len}: chunked wire bytes differ");
    }
}

#[test]
fn pooled_pipelined_traffic_recycles_buffers() {
    let len = 1usize << 18; // 4 chunks per message
    let w = World::flat(NetModel::ethernet_10g(), 2);
    let out = w.run(move |c| {
        let sc = SecureComm::new(
            c,
            cfg()
                .with_pipeline(crate::PipelineConfig::enabled().with_workers(4))
                .with_buffer_pool(true),
        )
        .unwrap();
        let msg = vec![3u8; len];
        for i in 0..4u32 {
            if c.rank() == 0 {
                sc.send(&msg, 1, i);
            } else {
                let (_, data) = sc.recv(Src::Is(0), TagSel::Is(i)).unwrap();
                assert_eq!(data, msg);
            }
        }
        let s = c.sim().buffer_pool().stats();
        (s.fresh, s.hits, s.reclaims)
    });
    let (fresh, hits, reclaims) = out.results[1];
    // Message 1 allocates its frames fresh; the receiver reclaims
    // them; messages 2..4 must be served from the pool.
    assert!(reclaims > 0, "receiver must recycle frames ({reclaims})");
    assert!(hits > 0, "later sends must hit the pool ({hits})");
    assert!(
        fresh <= 8,
        "steady-state fresh allocations should stay near one message's worth, got {fresh}"
    );
}

#[test]
fn traced_pooled_2mb_send_meets_alloc_budget() {
    // The CI allocation-regression guard (DECOMP-ALLOC): the
    // marginal traced heap-allocation cost of one steady-state
    // 2 MB pipelined send must stay within a pinned budget with
    // the pool on, and the pool must cut it by at least 10x
    // against the unpooled configuration.
    let len = 2usize << 20;
    let run = |pooled: bool, msgs: u32| {
        let w = World::flat(NetModel::ethernet_10g(), 2).traced(true);
        let out = w.run(move |c| {
            let sc = SecureComm::new(
                c,
                cfg()
                    .with_pipeline(crate::PipelineConfig::enabled().with_workers(4))
                    .with_buffer_pool(pooled),
            )
            .unwrap();
            let msg = vec![5u8; len];
            for i in 0..msgs {
                if c.rank() == 0 {
                    sc.send(&msg, 1, i);
                } else {
                    sc.recv(Src::Is(0), TagSel::Is(i)).unwrap();
                }
            }
        });
        out.trace.unwrap()
    };
    // Marginal cost of the third (steady-state) message: the
    // virtual sim is deterministic, so the two-run difference
    // isolates it exactly. The sender runs one message ahead of
    // the receiver (frames reclaim on arrival, a wire latency
    // after the send returns), so message 2 still seals fresh;
    // the pool is warm from message 3 on.
    let marginal = |pooled: bool| {
        let one = run(pooled, 2).per_rank[0].allocs_fresh;
        let two = run(pooled, 3).per_rank[0].allocs_fresh;
        two - one
    };
    let pooled = marginal(true);
    let unpooled = marginal(false);
    // Pinned budget (see .github/workflows/ci.yml): a steady-state
    // pooled 2 MB send performs at most 8 traced allocations.
    assert!(
        pooled <= 8,
        "pooled 2 MB send allocated {pooled} fresh buffers (budget 8)"
    );
    assert!(
        unpooled >= 10 * pooled.max(1),
        "pool must cut sender allocations >= 10x: pooled {pooled}, unpooled {unpooled}"
    );

    // The alloc lanes carry the markers: alloc/* events sit on rank
    // lanes (tid = rank), pooled runs record reclaims.
    let tr = run(true, 2);
    assert!(
        tr.events
            .iter()
            .any(|e| e.name.starts_with("alloc/") && e.tid < 2),
        "alloc/* markers must land on rank lanes"
    );
    assert!(
        tr.per_rank[1].pool_reclaims > 0,
        "receiver must reclaim frames into the pool"
    );
    assert!(
        tr.events.iter().any(|e| e.name == "alloc/reclaim"),
        "alloc/reclaim marker expected"
    );
}

// -- key plane: handshake, rotation, revocation, misuse ----------

fn keys_cfg(seed: u64) -> SecurityConfig {
    cfg().with_key_plane(empi_keys::KeyPlaneConfig::new(seed))
}

#[test]
fn key_plane_handshake_agrees_and_round_trips() {
    let w = World::flat(NetModel::ethernet_10g(), 4);
    let out = w.run(|c| {
        let sc = SecureComm::new(c, keys_cfg(42)).unwrap();
        let stats = sc.key_stats().unwrap();
        assert_eq!(stats.handshakes, 1);
        assert_eq!(sc.sealing_epoch(), 0, "no rotation configured");
        // P2p both ways plus a collective, all under the session
        // master the handshake agreed on.
        let me = c.rank();
        let next = (me + 1) % 4;
        let prev = (me + 3) % 4;
        sc.send(format!("from {me}").as_bytes(), next, 5);
        let (_, got) = sc.recv(Src::Is(prev), TagSel::Is(5)).unwrap();
        assert_eq!(got, format!("from {prev}").into_bytes());
        let mut buf = if me == 0 {
            b"bcast".to_vec()
        } else {
            vec![0u8; 5]
        };
        sc.bcast(&mut buf, 0).unwrap();
        assert_eq!(buf, b"bcast");
        1
    });
    assert_eq!(out.results, vec![1; 4]);
}

#[test]
fn key_plane_wire_grows_epoch_prefix_and_differs_per_seed() {
    // Same plaintext, same deterministic nonces, two handshake
    // seeds: the ciphertexts must differ (fresh session masters)
    // and carry the 8-byte epoch prefix.
    let run = |seed: u64| {
        let w = World::flat(NetModel::ethernet_10g(), 2);
        let out = w.run(move |c| {
            let sc = SecureComm::new(c, keys_cfg(seed).with_deterministic_nonces(9)).unwrap();
            if c.rank() == 0 {
                sc.send(b"epoch-prefixed", 1, 3);
                Vec::new()
            } else {
                // Peek below the secure layer.
                let (st, wire) = c.recv(Src::Is(0), TagSel::Is(3));
                assert_eq!(st.len, 14 + WIRE_OVERHEAD + EPOCH_PREFIX_LEN);
                assert_eq!(&wire[..EPOCH_PREFIX_LEN], &0u64.to_be_bytes());
                wire.to_vec()
            }
        });
        out.results[1].clone()
    };
    let a = run(1);
    let b = run(2);
    assert_eq!(a.len(), b.len());
    assert_ne!(
        a, b,
        "different handshake seeds must yield different masters"
    );
    assert_eq!(run(1), a, "same seed + seeded nonces replays bit-exact");
}

#[test]
fn rotation_under_pipelined_traffic_is_bit_exact() {
    // Fixed seed, rotation on vs off: every delivered plaintext is
    // byte-identical, rotation merely rolls the sealing epoch.
    let run = |rotate: bool| {
        let w = World::flat(NetModel::ethernet_10g(), 2);
        w.run(move |c| {
            let mut kp = empi_keys::KeyPlaneConfig::new(7).with_drain(2);
            if rotate {
                kp = kp.with_rotation(VDur::from_micros(40));
            }
            let sc = SecureComm::new(
                c,
                cfg()
                    .with_key_plane(kp)
                    .with_deterministic_nonces(11)
                    .with_pipeline(
                        crate::PipelineConfig::enabled()
                            .with_chunk_size(1 << 12)
                            .with_workers(2),
                    ),
            )
            .unwrap();
            let mut delivered = Vec::new();
            for i in 0..24u32 {
                // Mix of plain (small) and chunked (large) records
                // so both wire formats cross epoch boundaries.
                let len = if i % 3 == 0 { 6000 } else { 64 };
                let msg: Vec<u8> = (0..len).map(|j| (i as u8) ^ (j as u8)).collect();
                if c.rank() == 0 {
                    sc.send(&msg, 1, i);
                    delivered.push(msg);
                } else {
                    let (_, got) = sc.recv(Src::Is(0), TagSel::Is(i)).unwrap();
                    assert_eq!(got, msg, "message {i} corrupted");
                    delivered.push(got);
                }
            }
            let rekeys = sc.key_stats().unwrap().rekeys;
            (delivered, rekeys, sc.sealing_epoch())
        })
    };
    let with_rot = run(true);
    let without = run(false);
    for r in 0..2 {
        assert_eq!(
            with_rot.results[r].0, without.results[r].0,
            "rank {r}: rotation changed delivered plaintexts"
        );
        assert_eq!(
            without.results[r].2, 0,
            "no-rotation world stays at epoch 0"
        );
    }
    assert!(
        with_rot.results[0].1 > 0,
        "clock-driven rotation never rolled an epoch"
    );
    assert!(with_rot.results[0].2 > 0, "sealing epoch never advanced");
}

#[test]
fn revoked_rank_is_quarantined_and_survivors_rekey() {
    let w = World::flat(NetModel::ethernet_10g(), 3);
    let out = w.run(|c| {
        let sc = SecureComm::new(c, keys_cfg(13)).unwrap();
        let me = c.rank();
        // Epoch-0 traffic flows everywhere first.
        if me == 2 {
            sc.send(b"pre-revocation", 1, 1);
        } else if me == 1 {
            let (_, got) = sc.recv(Src::Is(2), TagSel::Is(1)).unwrap();
            assert_eq!(got, b"pre-revocation");
        }
        c.barrier();
        // Survivors 0 and 1 revoke rank 2; rank 2 doesn't know.
        if me != 2 {
            let before = sc.sealing_epoch();
            sc.revoke(2).unwrap();
            assert_eq!(sc.revoked_ranks(), vec![2]);
            assert_eq!(sc.sealing_epoch(), 1, "revocation bumps the epoch");
            assert_eq!(sc.sealing_epoch(), before + 1, "by exactly one on every survivor");
            assert!(matches!(
                sc.revoke(2),
                Err(Error::Key(KeyError::RevokedPeer { rank: 2 }))
            ));
        }
        c.barrier();
        match me {
            2 => {
                // The revoked rank still seals under the old master.
                sc.send(b"stowaway", 1, 2);
                0
            }
            1 => {
                let got = sc.recv(Src::Is(2), TagSel::Is(2));
                assert!(
                    matches!(got, Err(Error::Key(KeyError::RevokedPeer { rank: 2 }))),
                    "revoked traffic must be quarantined, got {got:?}"
                );
                assert_eq!(sc.key_stats().unwrap().rejected_revoked, 1);
                // Survivor traffic under the re-keyed master flows.
                let (_, ok) = sc.recv(Src::Is(0), TagSel::Is(3)).unwrap();
                assert_eq!(ok, b"survivors");
                1
            }
            _ => {
                sc.send(b"survivors", 1, 3);
                let s = sc.key_stats().unwrap();
                assert_eq!((s.revocations, s.rekeys), (1, 1));
                0
            }
        }
    });
    assert_eq!(out.results[1], 1);
}

#[test]
fn stale_epoch_replay_is_rejected() {
    let w = World::flat(NetModel::ethernet_10g(), 4);
    w.run(|c| {
        let sc = SecureComm::new(c, keys_cfg(3)).unwrap();
        let me = c.rank();
        // Rank 0 seals a record at epoch 0; rank 1 captures the raw
        // wire without opening it.
        let mut captured = Vec::new();
        if me == 0 {
            sc.send(b"replay me", 1, 4);
        } else if me == 1 {
            let (_, wire) = c.recv(Src::Is(0), TagSel::Is(4));
            captured = wire.to_vec();
        }
        c.barrier();
        // Two revocations push every survivor to epoch 2: the
        // drain window (half-width 1) now excludes epoch 0.
        if me < 2 {
            sc.revoke(2).unwrap();
            sc.revoke(3).unwrap();
            assert_eq!(sc.sealing_epoch(), 2);
        }
        c.barrier();
        if me == 1 {
            // Replay the epoch-0 record below the secure layer.
            c.send(&captured, 0, 4);
        } else if me == 0 {
            let got = sc.recv(Src::Is(1), TagSel::Is(4));
            assert!(
                matches!(
                    got,
                    Err(Error::Key(KeyError::StaleEpoch {
                        wire: 0,
                        local: 2,
                        ..
                    }))
                ),
                "stale replay must be typed, got {got:?}"
            );
            assert_eq!(sc.key_stats().unwrap().rejected_stale, 1);
        }
        c.barrier();
    });
}

#[test]
fn downgrade_and_forged_epochs_are_rejected() {
    let w = World::flat(NetModel::ethernet_10g(), 2);
    w.run(|c| {
        let sc = SecureComm::new(c, keys_cfg(5)).unwrap();
        if c.rank() == 0 {
            // A legacy prefix-free record sealed under the (known!)
            // bootstrap cluster key: structurally too short to be
            // epoch-qualified — a downgrade attempt.
            let legacy = AesGcm::new(cfg().key_bytes()).unwrap();
            let nonce = [7u8; NONCE_LEN];
            let mut body = b"dg".to_vec();
            let tag = legacy.seal_detached(&nonce, b"", &mut body);
            let mut wire = nonce.to_vec();
            wire.extend_from_slice(&body);
            wire.extend_from_slice(&tag);
            c.send(&wire, 1, 6);

            // A forged far-future epoch prefix on otherwise valid
            // framing: rejected by the window before any open.
            let mut forged = vec![0u8; EPOCH_PREFIX_LEN];
            forged[..8].copy_from_slice(&u64::MAX.to_be_bytes());
            forged.extend_from_slice(&[0u8; NONCE_LEN]);
            forged.extend_from_slice(&[0u8; 32]); // ct + tag
            c.send(&forged, 1, 7);
        } else {
            let dg = sc.recv(Src::Is(0), TagSel::Is(6));
            assert!(
                matches!(dg, Err(Error::Key(KeyError::Downgrade))),
                "downgrade must be typed, got {dg:?}"
            );
            let forged = sc.recv(Src::Is(0), TagSel::Is(7));
            assert!(
                matches!(forged, Err(Error::Key(KeyError::FutureEpoch { .. }))),
                "forged epoch must be typed, got {forged:?}"
            );
            let s = sc.key_stats().unwrap();
            assert_eq!(s.rejected_future, 1);
        }
    });
}

#[test]
fn epoch_splice_fails_authentication_end_to_end() {
    let w = World::flat(NetModel::ethernet_10g(), 2);
    w.run(|c| {
        let sc = SecureComm::new(c, keys_cfg(8)).unwrap();
        if c.rank() == 0 {
            sc.send(b"spliceable", 1, 9);
        } else {
            let (_, raw) = c.recv(Src::Is(0), TagSel::Is(9));
            // Corrupt the tag of a record whose epoch passes the
            // window: the AEAD gate (prefix bound as AAD) still
            // rejects it, so splice/tamper can't ride a valid epoch.
            let mut wire = raw.to_vec();
            let n = wire.len();
            wire[n - 1] ^= 0x80;
            c.send(&wire, 0, 9);
        }
        c.barrier();
        // Re-deliver the tampered record to rank 0's secure layer.
        if c.rank() == 0 {
            let got = sc.recv(Src::Is(1), TagSel::Is(9));
            assert!(
                matches!(got, Err(Error::Crypto(_))),
                "tampered epoch-qualified record must fail auth, got {got:?}"
            );
        }
    });
}

#[test]
fn key_plane_collectives_round_trip() {
    let w = World::flat(NetModel::ethernet_10g(), 4);
    let out = w.run(|c| {
        let sc = SecureComm::new(c, keys_cfg(21)).unwrap();
        let me = c.rank() as u8;
        let gathered = sc.allgather(&[me; 8]).unwrap();
        let want: Vec<u8> = (0..4).flat_map(|r| [r as u8; 8]).collect();
        assert_eq!(gathered, want);
        let send: Vec<u8> = (0..4).flat_map(|dst| [me * 16 + dst as u8; 4]).collect();
        let recv = sc.alltoall(&send, 4).unwrap();
        let want: Vec<u8> = (0..4).flat_map(|src| [(src * 16) as u8 + me; 4]).collect();
        assert_eq!(recv, want);
        let counts: Vec<usize> = (0..4).map(|r| 3 + r).collect();
        let sendv: Vec<u8> = counts
            .iter()
            .enumerate()
            .flat_map(|(dst, &c0)| vec![me * 10 + dst as u8; c0])
            .collect();
        let my_count = 3 + c.rank();
        let recvv = sc.alltoallv(&sendv, &counts, &[my_count; 4]).unwrap();
        let want: Vec<u8> = (0..4)
            .flat_map(|src| vec![src * 10 + me; my_count])
            .collect();
        assert_eq!(recvv, want);
        1
    });
    assert_eq!(out.results, vec![1; 4]);
}

#[test]
fn rotation_survives_chaos_with_arq() {
    // Faults + retransmit + rotation: delivery is bit-exact or a
    // typed error; the run never panics or deadlocks.
    let w = World::flat(NetModel::ethernet_10g(), 2);
    let out = w.run(|c| {
        let sc = SecureComm::new(
            c,
            cfg()
                .with_key_plane(
                    empi_keys::KeyPlaneConfig::new(17)
                        .with_rotation(VDur::from_micros(60))
                        .with_drain(2),
                )
                .with_faults(99, empi_netsim::FaultRates::uniform(0.04))
                .with_retransmit(4, VDur::from_micros(150))
                .with_pipeline(
                    crate::PipelineConfig::enabled()
                        .with_chunk_size(1 << 12)
                        .with_workers(2),
                ),
        )
        .unwrap();
        let mut ok = 0u32;
        for i in 0..16u32 {
            let msg: Vec<u8> = (0..5000).map(|j| (i as u8).wrapping_add(j as u8)).collect();
            if c.rank() == 0 {
                sc.send(&msg, 1, i);
                ok += 1;
            } else {
                match sc.recv(Src::Is(0), TagSel::Is(i)) {
                    Ok((_, got)) => {
                        assert_eq!(got, msg, "message {i} silently corrupted");
                        ok += 1;
                    }
                    Err(
                        Error::Crypto(_)
                        | Error::DeliveryFailed { .. }
                        | Error::Timeout { .. }
                        | Error::Key(_),
                    ) => {}
                    Err(e) => panic!("untyped failure on message {i}: {e}"),
                }
            }
        }
        ok
    });
    assert!(
        out.results[1] > 0,
        "chaos+rotation delivered nothing at all"
    );
}

#[test]
fn ft_verbs_ride_the_pipelined_path_like_send_and_recv() {
    // On a healthy armed world the ft verbs are `send`/`recv` with a
    // lease on the wait: the same 256 KB buffer leaves as the same
    // chunked train, so the fabric sees the same messages and bytes
    // and the run ends at the same virtual instant — and, like them,
    // each records its end-to-end latency sample.
    let len = 256 << 10;
    let run = |ft: bool| {
        let w = World::flat(NetModel::ethernet_10g(), 2)
            .with_metrics(true)
            .with_ftol(empi_mpi::DetectorConfig::default());
        w.try_run_ft(move |c| {
            let pcfg = cfg().with_pipeline(crate::PipelineConfig::enabled());
            let sc = SecureComm::new(c, pcfg).unwrap();
            let msg: Vec<u8> = (0..len).map(|i| (i * 7) as u8).collect();
            match (c.rank(), ft) {
                (0, true) => sc.ft_send(&msg, 1, 3).unwrap(),
                (0, false) => sc.send(&msg, 1, 3),
                (_, true) => assert_eq!(sc.ft_recv(Src::Is(0), TagSel::Is(3)).unwrap().1, msg),
                (_, false) => assert_eq!(sc.recv(Src::Is(0), TagSel::Is(3)).unwrap().1, msg),
            }
            c.ftol_counters().get("probes")
        })
        .unwrap()
    };
    let (armed, plain) = (run(true), run(false));
    assert_eq!(
        armed.results,
        vec![Some(0), Some(0)],
        "the lease fired on a healthy run"
    );
    assert!(
        armed.fabric.messages > 1,
        "256 KB must leave as a chunked train"
    );
    assert_eq!(armed.fabric.messages, plain.fabric.messages);
    assert_eq!(armed.fabric.bytes, plain.fabric.bytes);
    assert_eq!(armed.end_time, plain.end_time);
    for (run, ops) in [
        (armed, ["p2p/ft_send", "p2p/ft_recv"]),
        (plain, ["p2p/send", "p2p/recv"]),
    ] {
        let snap = run.metrics.expect("metrics were on");
        for op in ops {
            assert_eq!(snap.merged(Metric::E2e, op).count(), 1, "{op}");
        }
    }
}
