//! Shard-count determinism: for ANY seed, traffic mix, chaos setting,
//! crash plan and record path, a sharded world (`S > 1`) must be
//! **bit-identical**
//! to the serial one (`S = 1`) — same virtual times, same wire bytes,
//! same delivered plaintexts, same deaths, same metrics snapshot, even
//! the same scheduler yield count. Sharding may only change wall-clock
//! time (DESIGN.md §15).

use empi_aead::profile::CryptoLibrary;
use empi_core::{FaultRates, PipelineConfig, RetransmitConfig, SecureComm, SecurityConfig};
use empi_mpi::{Src, TagSel, World};
use empi_netsim::{CrashKind, CrashPlan, NetModel, VDur, VTime};
use proptest::prelude::*;

/// Everything a run can observably produce, in comparable form. Any
/// drift between shard counts shows up as a field-level mismatch.
#[derive(Debug, PartialEq)]
struct Digest {
    /// Per-rank outcome: `None` for a dead rank, else the round's
    /// delivered plaintexts hashed, with errors rendered as text.
    results: Vec<Option<Vec<String>>>,
    deaths: Vec<Option<(VTime, CrashKind)>>,
    end_time: VTime,
    yields: u64,
    messages: u64,
    wire_bytes: u64,
    local_messages: u64,
    /// Debug render of the merged metrics snapshot (histograms, flight
    /// recorder, ledgers — all virtual-time-valued under calibrated
    /// timing).
    metrics: String,
}

fn fnv(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// The traffic mix: ranks 0..6 run a ring of secure sends (sizes and
/// payloads derived from the seed), rank 6 broadcasts, rank 7 computes
/// locally — and is the one a crash plan kills mid-loop. `piped` sends
/// the ring through the chunked pipeline with 1 KiB chunks and the
/// buffer pool, so its messages of up to 9 000 B are trains of up to
/// nine chunks whose seals and opens fork-join across the carriers.
fn run_once(shards: usize, seed: u64, chaos: bool, crash: bool, piped: bool) -> Digest {
    const N: usize = 8;
    const RING: usize = 6;
    let mut world = World::flat(NetModel::ethernet_10g(), N)
        .with_metrics(true)
        .with_shards(shards);
    if crash {
        world = world.crash_plan(CrashPlan::new().crash_at(7, VTime(200_000)));
    }
    let out = world
        .try_run_ft(move |c| {
            let mut cfg = SecurityConfig::new(CryptoLibrary::BoringSsl);
            if piped {
                let pipe = PipelineConfig::enabled()
                    .with_chunk_size(1024)
                    .with_workers(2);
                cfg = cfg.with_pipeline(pipe);
            }
            if chaos {
                cfg = cfg
                    .with_faults(
                        seed,
                        FaultRates {
                            bit_flip: 0.1,
                            truncate: 0.1,
                            drop: 0.1,
                            duplicate: 0.1,
                            jitter: 0.2,
                        },
                    )
                    .with_retransmit(
                        2,
                        VDur::from_micros(150),
                        RetransmitConfig::DEFAULT_BUFFER_MSGS,
                    );
            }
            let me = c.rank();
            if me >= RING {
                // Local compute lane; rank 7 dies here under a crash
                // plan (its clock crosses the death time mid-loop).
                for i in 0..40u64 {
                    c.compute_with(VDur::from_micros(7 + (seed ^ i) % 13), || {
                        std::hint::black_box(i.wrapping_mul(0x9E3779B97F4A7C15));
                    });
                }
                return vec![format!("compute-done@{}", c.now().as_nanos())];
            }
            let sc = SecureComm::new(c, cfg).unwrap();
            let mut log = Vec::new();
            for round in 0..3u64 {
                let len = 1 + ((seed >> (8 * round)) as usize ^ (me * 977)) % 9_000;
                let payload: Vec<u8> = (0..len)
                    .map(|i| (i as u64 ^ seed ^ round.wrapping_mul(me as u64 + 1)) as u8)
                    .collect();
                let dst = (me + 1) % RING;
                let src = (me + RING - 1) % RING;
                let tag = 40 + round as u32;
                let sreq = sc.isend(&payload, dst, tag);
                let got = sc
                    .recv(Src::Is(src), TagSel::Is(tag))
                    .map(|(_, d)| format!("ok:{:016x}", fnv(&d)))
                    .unwrap_or_else(|e| format!("err:{e}"));
                let sent = sc
                    .wait(sreq)
                    .map(|_| "sent".to_string())
                    .unwrap_or_else(|e| format!("senderr:{e}"));
                log.push(format!("r{round} t{} {got} {sent}", c.now().as_nanos()));
            }
            sc.pump(sc.recovery_window());
            log.push(format!("end@{}", c.now().as_nanos()));
            log
        })
        .expect("shard proptest worlds must never deadlock");
    Digest {
        results: out.results,
        deaths: out.deaths,
        end_time: out.end_time,
        yields: out.yields,
        messages: out.fabric.messages,
        wire_bytes: out.fabric.bytes,
        local_messages: out.fabric.local_messages,
        metrics: format!("{:?}", out.metrics),
    }
}

proptest! {
    // Each case runs four whole worlds; keep the counts modest.
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The determinism guard: S ∈ {1, 2, 4, 7} produce identical
    /// digests for arbitrary seed × chaos × crash-plan × record-path
    /// combinations.
    #[test]
    fn shard_count_is_unobservable(
        seed in any::<u64>(),
        chaos in any::<bool>(),
        crash in any::<bool>(),
        piped in any::<bool>(),
    ) {
        let base = run_once(1, seed, chaos, crash, piped);
        for s in [2usize, 4, 7] {
            let got = run_once(s, seed, chaos, crash, piped);
            prop_assert_eq!(
                &base, &got,
                "shards={} diverged from serial (seed={}, chaos={}, crash={}, piped={})",
                s, seed, chaos, crash, piped
            );
        }
    }
}

/// Deterministic (non-proptest) spot check so `cargo test` failures
/// reproduce without a proptest regression file: a known seed with
/// chaos and a crash plan, across all shard counts.
#[test]
fn known_seed_digests_match() {
    let base = run_once(1, 0xC0FFEE, true, true, false);
    assert!(base.deaths[7].is_some(), "crash plan must execute");
    assert!(
        !base.metrics.contains("seal/chunked"),
        "sequential records only"
    );
    for s in [2usize, 4, 7] {
        assert_eq!(base, run_once(s, 0xC0FFEE, true, true, false), "shards={s}");
    }
}

/// The same spot check on the chunked path.
#[test]
fn known_seed_piped_digests_match() {
    let base = run_once(1, 0xC0FFEE, true, true, true);
    assert!(base.deaths[7].is_some(), "crash plan must execute");
    assert!(
        base.metrics.contains("seal/chunked"),
        "the ring sent no chunked train"
    );
    for s in [2usize, 4, 7] {
        assert_eq!(base, run_once(s, 0xC0FFEE, true, true, true), "shards={s}");
    }
}

/// Received payloads above the pool's heap cut-off are pool buffers.
/// Reading one inside detached compute, and dropping it after, leaves
/// the pool's outcomes — and every marker that follows them — the same
/// at every carrier count.
#[test]
fn pooled_payloads_read_in_detached_compute_are_shard_invariant() {
    let run = |shards: usize| {
        let out = World::flat(NetModel::ethernet_10g(), 4)
            .with_metrics(true)
            .with_shards(shards)
            .run(|c| {
                let sc = SecureComm::new(c, SecurityConfig::new(CryptoLibrary::BoringSsl)).unwrap();
                let (me, peer) = (c.rank(), c.rank() ^ 1);
                let mut sums = Vec::new();
                for round in 0..4usize {
                    let len = (64 << 10) + 4096 * (me + round);
                    let msg: Vec<u8> = (0..len).map(|i| (i ^ me ^ round) as u8).collect();
                    let sreq = sc.isend(&msg, peer, round as u32);
                    let (_, got) = sc.recv(Src::Is(peer), TagSel::Is(round as u32)).unwrap();
                    sums.push(c.compute_with(VDur::from_micros(20 + me as u64), || fnv(&got)));
                    drop(got);
                    sc.wait(sreq).unwrap();
                }
                (sums, c.sim().buffer_pool().stats())
            });
        (
            out.results,
            out.end_time,
            out.yields,
            format!("{:?}", out.metrics),
        )
    };
    let base = run(1);
    let stats = base.0[3].1;
    assert!(
        stats.hits > 0 && stats.returns > 0,
        "the payloads are pooled: {stats:?}"
    );
    for s in [2usize, 4] {
        assert_eq!(base, run(s), "shards={s}");
    }
}
