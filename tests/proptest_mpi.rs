//! Property-based tests for the MPI runtime and the encrypted layer.
//!
//! Each case spins up a real simulated world (one coroutine stack per
//! rank); case counts are kept moderate because every case runs its
//! ranks' real code.

use empi::aead::CryptoLibrary;
use empi::mpi::{Src, TagSel, World};
use empi::netsim::NetModel;
use empi::secure::{SecureComm, SecurityConfig};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn alltoall_routes_every_block(
        ranks in 2usize..7,
        block in 1usize..600,
    ) {
        let w = World::flat(NetModel::instant(), ranks);
        let out = w.run(|c| {
            let me = c.rank() as u8;
            let send: Vec<u8> = (0..ranks)
                .flat_map(|dst| {
                    let mut b = vec![me; block];
                    b[0] = me;
                    if block > 1 { b[1] = dst as u8; }
                    b
                })
                .collect();
            c.alltoall(&send, block)
        });
        for (me, v) in out.results.iter().enumerate() {
            for src in 0..ranks {
                assert_eq!(v[src * block] as usize, src);
                if block > 1 {
                    assert_eq!(v[src * block + 1] as usize, me);
                }
            }
        }
    }

    #[test]
    fn alltoallv_arbitrary_count_matrix(
        ranks in 2usize..6,
        seed in any::<u64>(),
    ) {
        // counts[i][j]: bytes i sends to j, derived from the seed.
        let counts: Vec<Vec<usize>> = (0..ranks)
            .map(|i| {
                (0..ranks)
                    .map(|j| {
                        ((seed >> ((i * ranks + j) % 48)) & 0x3F) as usize
                    })
                    .collect()
            })
            .collect();
        let counts2 = counts.clone();
        let w = World::flat(NetModel::instant(), ranks);
        let out = w.run(move |c| {
            let me = c.rank();
            let send_counts = counts2[me].clone();
            let recv_counts: Vec<usize> = (0..ranks).map(|src| counts2[src][me]).collect();
            let send: Vec<u8> = send_counts
                .iter()
                .flat_map(|&n| vec![me as u8; n])
                .collect();
            c.alltoallv(&send, &send_counts, &recv_counts)
        });
        for (me, v) in out.results.iter().enumerate() {
            let mut off = 0;
            for (src, row) in counts.iter().enumerate() {
                let n = row[me];
                assert!(v[off..off + n].iter().all(|&x| x as usize == src));
                off += n;
            }
            assert_eq!(off, v.len());
        }
    }

    #[test]
    fn allreduce_equals_serial_sum(
        ranks in 1usize..9,
        values in proptest::collection::vec(-1e6f64..1e6, 1..8),
    ) {
        let w = World::flat(NetModel::instant(), ranks);
        let vals = values.clone();
        let out = w.run(move |c| {
            let mine: Vec<f64> = vals.iter().map(|v| v + c.rank() as f64).collect();
            c.allreduce(&mine, empi::mpi::ops::sum)
        });
        let rank_sum: f64 = (0..ranks).map(|r| r as f64).sum();
        for res in &out.results {
            for (i, v) in res.iter().enumerate() {
                let expect = values[i] * ranks as f64 + rank_sum;
                assert!((v - expect).abs() < 1e-6 * expect.abs().max(1.0));
            }
        }
    }

    #[test]
    fn bcast_any_root_any_len(
        ranks in 1usize..9,
        root_frac in 0.0f64..1.0,
        len in 0usize..40_000,
    ) {
        let root = ((ranks - 1) as f64 * root_frac) as usize;
        let w = World::flat(NetModel::instant(), ranks);
        let out = w.run(move |c| {
            let mut buf = vec![0u8; len];
            if c.rank() == root {
                for (i, b) in buf.iter_mut().enumerate() {
                    *b = (i % 251) as u8;
                }
            }
            c.bcast(&mut buf, root);
            buf
        });
        for v in &out.results {
            for (i, &b) in v.iter().enumerate() {
                assert_eq!(b as usize, i % 251);
            }
        }
    }

    #[test]
    fn encrypted_matches_plain_results(
        ranks in 2usize..6,
        block in 1usize..200,
        lib in prop_oneof![
            Just(CryptoLibrary::BoringSsl),
            Just(CryptoLibrary::Libsodium),
            Just(CryptoLibrary::CryptoPp),
        ],
    ) {
        let w = World::flat(NetModel::instant(), ranks);
        let plain = w.run(|c| {
            let send: Vec<u8> = (0..ranks * block).map(|i| (i * 7 + c.rank()) as u8).collect();
            c.alltoall(&send, block)
        });
        let enc = w.run(|c| {
            let sc = SecureComm::new(c, SecurityConfig::new(lib)).unwrap();
            let send: Vec<u8> = (0..ranks * block).map(|i| (i * 7 + c.rank()) as u8).collect();
            sc.alltoall(&send, block).unwrap()
        });
        assert_eq!(plain.results, enc.results);
    }

    #[test]
    fn pingpong_time_matches_curve_for_any_size(
        size in 1usize..3_000_000,
    ) {
        // The blocking round trip must land on the calibrated curve
        // for *every* size, not just the anchors.
        let model = NetModel::ethernet_10g();
        let expect = 2 * model.pp_curve.time_ns(size);
        let w = World::flat(model, 2);
        let out = w.run(move |c| {
            let buf = vec![0u8; size];
            if c.rank() == 0 {
                c.send(&buf, 1, 0);
                let _ = c.recv(Src::Is(1), TagSel::Is(0));
            } else {
                let (_, m) = c.recv(Src::Is(0), TagSel::Is(0));
                c.send(&m, 0, 0);
            }
        });
        let got = out.end_time.as_nanos();
        let err = (got as f64 - expect as f64).abs() / expect as f64;
        assert!(err < 0.02, "size {size}: got {got}, expect {expect}");
    }

    #[test]
    fn message_ordering_preserved_under_load(
        ranks in 2usize..5,
        n_msgs in 1usize..30,
        big in proptest::collection::vec(any::<bool>(), 30),
    ) {
        // Each message is 1 B (eager) or one byte past the eager
        // threshold (rendezvous): a flow that mixes wire formats.
        let model = NetModel::ethernet_10g();
        let len = move |i: usize| if big[i] { model.eager_threshold + 1 } else { 1 };
        let w = World::flat(NetModel::ethernet_10g(), ranks);
        let out = w.run(move |c| {
            if c.rank() == 0 {
                let mut received: Vec<Vec<(u8, usize)>> = vec![Vec::new(); ranks];
                for _ in 0..(ranks - 1) * n_msgs {
                    let (st, data) = c.recv(Src::Any, TagSel::Any);
                    received[st.source].push((data[0], data.len()));
                }
                // Per-sender order must be preserved (MPI non-overtaking).
                for seq in &received[1..] {
                    for (i, &got) in seq.iter().enumerate() {
                        assert_eq!(got, (i as u8, len(i)));
                    }
                }
                true
            } else {
                let reqs = (0..n_msgs)
                    .map(|i| c.isend(&vec![i as u8; len(i)], 0, c.rank() as u32))
                    .collect();
                c.waitall(reqs);
                true
            }
        });
        assert!(out.results.iter().all(|&x| x));
    }
}
