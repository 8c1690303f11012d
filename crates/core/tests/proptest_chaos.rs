//! Property-based chaos tests: under ANY seeded fault plan the secure
//! stack must either deliver the bit-identical plaintext or surface a
//! typed error — it must never panic, deadlock, or hand back silently
//! corrupted data. `World::try_run` turns would-be deadlocks into a
//! typed `SimError`, which also counts as a failure here (the recovery
//! protocol is designed to always time out instead). Every world runs
//! on a generated carrier count, so the armed ARQ is held to the same
//! contract on one carrier and on several.

use empi_aead::profile::CryptoLibrary;
use empi_core::{Error, FaultRates, PipelineConfig, SecureComm, SecurityConfig};
use empi_mpi::{Src, TagSel, World};
use empi_netsim::{NetModel, VDur};
use proptest::prelude::*;

/// A generated fault mix: individual per-event probabilities plus the
/// worker-degradation knobs, all over their meaningful ranges.
fn fault_rates() -> impl Strategy<Value = FaultRates> {
    (
        0.0f64..1.0,
        0.0f64..1.0,
        0.0f64..1.0,
        0.0f64..1.0,
        0.0f64..1.0,
        0.0f64..1.0,
    )
        .prop_map(
            |(bit_flip, truncate, drop, duplicate, jitter, degraded_workers)| FaultRates {
                bit_flip,
                truncate,
                drop,
                duplicate,
                jitter,
                jitter_max_ns: 10_000,
                degraded_workers,
                worker_slowdown: 6,
            },
        )
}

/// A carrier count for a world: 1, 2 or 4.
fn shard_counts() -> impl Strategy<Value = usize> {
    (0u32..3).prop_map(|k| 1 << k)
}

/// Assert an outcome is "correct plaintext or typed error".
fn check_outcome(tag: &str, got: &Result<Vec<u8>, Error>, want: &[u8]) {
    match got {
        Ok(data) => assert_eq!(data.as_slice(), want, "{tag}: silently corrupted plaintext"),
        Err(
            Error::Crypto(_)
            | Error::Pipeline(_)
            | Error::LengthMismatch { .. }
            | Error::DeliveryFailed { .. }
            | Error::Timeout { .. }
            | Error::Key(_),
        ) => {}
        // Chaos worlds inject message faults, never process deaths.
        Err(Error::RankFailed { rank, .. }) => {
            panic!("{tag}: rank {rank} reported failed without a crash plan")
        }
    }
}

fn cfg(arq: bool, pipelined: bool, seed: u64, rates: FaultRates) -> SecurityConfig {
    let mut c = SecurityConfig::new(CryptoLibrary::BoringSsl).with_faults(seed, rates);
    if pipelined {
        c = c.with_pipeline(
            PipelineConfig::enabled()
                .with_chunk_size(1 << 14)
                .with_workers(2),
        );
    }
    if arq {
        c = c.with_retransmit(3, VDur::from_micros(150));
    }
    c
}

proptest! {
    // Each case spins up whole simulated worlds; keep the counts modest.
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn p2p_delivers_exactly_or_types_out(
        shards in shard_counts(),
        seed in any::<u64>(),
        rates in fault_rates(),
        arq in any::<bool>(),
        pipelined in any::<bool>(),
        len in 1usize..40_000,
    ) {
        let w = World::flat(NetModel::ethernet_10g(), 2).with_shards(shards);
        let out = w.try_run(move |c| {
            let sc = SecureComm::new(c, cfg(arq, pipelined, seed, rates)).unwrap();
            let want: Vec<u8> = (0..len).map(|i| (i.wrapping_mul(31) ^ (i >> 8)) as u8).collect();
            if c.rank() == 0 {
                sc.send(&want, 1, 5);
                sc.pump(sc.recovery_window());
                Ok(want)
            } else {
                let res = sc.recv(Src::Is(0), TagSel::Is(5)).map(|(_, d)| d);
                sc.pump(sc.recovery_window());
                res
            }
        });
        let out = out.expect("fault plan must never deadlock the simulation");
        let want: Vec<u8> = (0..len).map(|i| (i.wrapping_mul(31) ^ (i >> 8)) as u8).collect();
        check_outcome("p2p", &out.results[1], &want);
    }

    #[test]
    fn nonblocking_pingpong_never_panics(
        shards in shard_counts(),
        seed in any::<u64>(),
        rates in fault_rates(),
        arq in any::<bool>(),
        len in 1usize..30_000,
    ) {
        // isend/irecv/wait in both directions at once: exercises the
        // NACK-servicing wait loops (mutual recovery must not deadlock).
        let w = World::flat(NetModel::ethernet_10g(), 2).with_shards(shards);
        let out = w.try_run(move |c| {
            let sc = SecureComm::new(c, cfg(arq, true, seed, rates)).unwrap();
            let me = c.rank();
            let want = vec![me as u8 ^ 0x5A; len];
            let sreq = sc.isend(&want, 1 - me, 1);
            let rreq = sc.irecv(Src::Is(1 - me), TagSel::Is(1));
            let got = sc.wait(rreq).map(|(_, d)| d.expect("receive carries data"));
            let send_res = sc.wait(sreq).map(|_| ());
            sc.pump(sc.recovery_window());
            (got, send_res)
        });
        let out = out.expect("mutual recovery must never deadlock");
        for (me, (got, send_res)) in out.results.iter().enumerate() {
            let want = vec![(1 - me) as u8 ^ 0x5A; len];
            check_outcome("pingpong", got, &want);
            if let Err(e) = send_res {
                check_outcome("pingpong-send", &Err(e.clone()), &[]);
            }
        }
    }

    #[test]
    fn bcast_subtrees_degrade_gracefully(
        shards in shard_counts(),
        seed in any::<u64>(),
        rates in fault_rates(),
        arq in any::<bool>(),
        len in 1usize..60_000,
    ) {
        let w = World::flat(NetModel::ethernet_10g(), 4).with_shards(shards);
        let out = w.try_run(move |c| {
            let sc = SecureComm::new(c, cfg(arq, true, seed, rates)).unwrap();
            let want: Vec<u8> = (0..len).map(|i| (i * 7 + 3) as u8).collect();
            let mut buf = if c.rank() == 0 { want.clone() } else { vec![0u8; len] };
            let res = sc.bcast(&mut buf, 0).map(|()| buf);
            sc.pump(sc.recovery_window());
            res
        });
        let out = out.expect("faulty bcast must never deadlock");
        let want: Vec<u8> = (0..len).map(|i| (i * 7 + 3) as u8).collect();
        for (rank, res) in out.results.iter().enumerate() {
            check_outcome(&format!("bcast rank {rank}"), res, &want);
        }
    }

    #[test]
    fn alltoall_rounds_stay_live(
        shards in shard_counts(),
        seed in any::<u64>(),
        rates in fault_rates(),
        arq in any::<bool>(),
        block_kib in 1usize..40,
    ) {
        let n = 3usize;
        let block = block_kib << 10;
        let w = World::flat(NetModel::ethernet_10g(), n).with_shards(shards);
        let out = w.try_run(move |c| {
            let sc = SecureComm::new(c, cfg(arq, true, seed, rates)).unwrap();
            let me = c.rank();
            let send: Vec<u8> = (0..n).flat_map(|d| vec![(me * n + d) as u8; block]).collect();
            let res = sc.alltoall(&send, block);
            sc.pump(sc.recovery_window());
            res
        });
        let out = out.expect("faulty alltoall must never deadlock");
        for (me, res) in out.results.iter().enumerate() {
            let want: Vec<u8> = (0..n).flat_map(|s| vec![(s * n + me) as u8; block]).collect();
            check_outcome(&format!("alltoall rank {me}"), res, &want);
        }
    }

    #[test]
    fn zero_rates_with_any_seed_are_invisible(
        shards in shard_counts(),
        seed in any::<u64>(),
        arq in any::<bool>(),
        pipelined in any::<bool>(),
        len in 1usize..20_000,
    ) {
        // A fault plan with all-zero rates plus any seed must behave
        // exactly like no plan: correct data, zero chaos counters.
        let w = World::flat(NetModel::ethernet_10g(), 2).with_shards(shards);
        let out = w.try_run(move |c| {
            let sc = SecureComm::new(c, cfg(arq, pipelined, seed, FaultRates::ZERO)).unwrap();
            let want = vec![0xC3u8; len];
            if c.rank() == 0 {
                sc.send(&want, 1, 2);
                sc.chaos_stats()
            } else {
                let (_, data) = sc.recv(Src::Is(0), TagSel::Is(2)).expect("zero rates never fail");
                assert_eq!(data, want);
                sc.chaos_stats()
            }
        });
        let out = out.expect("zero-rate plan must never deadlock");
        for st in out.results {
            prop_assert_eq!(st, empi_core::ChaosStats::default());
        }
    }

    #[test]
    fn armed_arq_stays_aligned_on_mixed_format_flows(
        shards in shard_counts(),
        seed in any::<u64>(),
        chunked in proptest::collection::vec(any::<bool>(), 2..8),
        delta in 0usize..4_000,
    ) {
        // One (src, tag) flow whose messages straddle the 16 KiB chunk
        // size, so plain records and chunked trains interleave. The ARQ
        // flow identity counts messages per (tag, seq) on both sides;
        // it stays aligned only if the transport never lets one wire
        // format overtake the other. At fault rate 0 every message must
        // arrive in send order, bit-exact, without a single NACK.
        let n = chunked.len();
        let len = move |i: usize| if chunked[i] { (1 << 14) + 1 + delta } else { (1 << 14) - delta };
        let w = World::flat(NetModel::ethernet_10g(), 2).with_shards(shards);
        let out = w.try_run(move |c| {
            let sc = SecureComm::new(c, cfg(true, true, seed, FaultRates::ZERO)).unwrap();
            let msg = |i: usize| vec![i as u8 ^ 0xA5; len(i)];
            if c.rank() == 0 {
                let reqs = (0..n).map(|i| sc.isend(&msg(i), 1, 4)).collect();
                sc.waitall(reqs).expect("zero rates never fail");
            } else {
                for i in 0..n {
                    let (_, data) = sc.recv(Src::Is(0), TagSel::Is(4)).expect("zero rates never fail");
                    assert!(data == msg(i), "message {i} of {n} overtaken or corrupted");
                }
            }
            sc.chaos_stats()
        });
        let out = out.expect("zero-rate plan must never deadlock");
        for st in out.results {
            prop_assert_eq!(st, empi_core::ChaosStats::default());
        }
    }
}

/// A pipelined alltoall rank whose round fails (repairs exhausted, or a
/// short segment) still sends its segments in the later rounds: its
/// peers there are waiting for them. These seeds fail a round on some
/// ranks only; ending the schedule at the failure left a peer blocked
/// on a segment that was never sent.
#[test]
fn alltoall_keeps_its_schedule_after_a_failed_round() {
    let (n, block) = (3usize, 25usize << 10);
    let mut failed = 0;
    for seed in [11u64, 15, 16, 19] {
        for shards in [1, 2] {
            let w = World::flat(NetModel::ethernet_10g(), n).with_shards(shards);
            let out = w.try_run(move |c| {
                let sc =
                    SecureComm::new(c, cfg(true, true, seed, FaultRates::uniform(0.2))).unwrap();
                let me = c.rank();
                let send: Vec<u8> = (0..n)
                    .flat_map(|d| vec![(me * n + d) as u8; block])
                    .collect();
                let res = sc.alltoall(&send, block);
                sc.pump(sc.recovery_window());
                res
            });
            let out = out.unwrap_or_else(|e| panic!("seed {seed}, {shards} shards: {e:?}"));
            for (me, res) in out.results.iter().enumerate() {
                let want: Vec<u8> = (0..n)
                    .flat_map(|s| vec![(s * n + me) as u8; block])
                    .collect();
                check_outcome(&format!("seed {seed} rank {me}"), res, &want);
                failed += res.is_err() as usize;
            }
        }
    }
    assert!(
        failed > 0,
        "no round failed: the seeds no longer exercise the path"
    );
}
