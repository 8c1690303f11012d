//! Property-based failure-detector soundness.
//!
//! Two families:
//!
//! 1. **Zero false positives, zero cost** — for ANY seed-derived
//!    traffic mix (world size, rounds, message sizes, tags) on a
//!    fault-free world, the armed detector never suspects a live rank
//!    (no detections, no notices, no probes, empty failed set) and the
//!    run is bit-identical to the same world without the detector:
//!    same end time, same wire bytes, same message count, same
//!    results. The lease timer only fires at quiescence, so healthy
//!    traffic must never pay for it.
//! 2. **Bounded detection latency** — for ANY crash (or hang) time and
//!    lease period, every survivor's typed `RankFailed` surfaces
//!    within the advertised bound: one probe round past the lease for
//!    a crash, `confirm` rounds for a hang, counted from whichever is
//!    later — the death or the survivor parking on the corpse.
//!
//! Every world runs on a generated carrier count (1, 2 or 4), and the
//! armed and plain worlds of one case share it, so "free when idle"
//! and the latency bound hold on one carrier and on several.
//!
//! Assertions inside rank closures are plain `assert!`s: a failure
//! panics the rank, which surfaces as a typed `SimError` and fails the
//! case through the outcome `expect`s.

use empi_mpi::{Comm, CrashPlan, DetectorConfig, Src, TagSel, World};
use empi_netsim::{NetModel, VDur, VTime};
use proptest::prelude::*;

fn us(n: u64) -> VTime {
    VTime(n * 1_000)
}

/// Seed-derived per-round payload length in `1..=max_len`.
fn round_len(seed: u64, round: u32, max_len: usize) -> usize {
    let x = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(u64::from(round).wrapping_mul(0xBF58_476D_1CE4_E5B9));
    1 + (x % max_len as u64) as usize
}

/// A carrier count for a world: 1, 2 or 4.
fn shard_counts() -> impl Strategy<Value = usize> {
    (0u32..3).prop_map(|k| 1 << k)
}

/// One ring round: everyone sends `len` bytes to the next rank and
/// receives from the previous, via the ft verbs or the plain ones.
fn ring_round(c: &Comm, round: u32, len: usize, ft: bool) -> usize {
    let n = c.size();
    let me = c.rank();
    let next = (me + 1) % n;
    let prev = (me + n - 1) % n;
    let tag = 100 + round;
    let buf = vec![(me as u8) ^ (round as u8); len];
    if ft {
        c.ft_send(&buf, next, tag).unwrap();
        let (st, data) = c.ft_recv(Src::Is(prev), TagSel::Is(tag)).unwrap();
        assert_eq!(st.source, prev);
        assert_eq!(data.as_ref(), vec![(prev as u8) ^ (round as u8); len]);
        data.len()
    } else {
        c.send(&buf, next, tag);
        let (st, data) = c.recv(Src::Is(prev), TagSel::Is(tag));
        assert_eq!(st.source, prev);
        data.len()
    }
}

proptest! {
    // Each case spins up whole simulated worlds; keep the counts modest.
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn fault_free_mix_never_suspects_and_costs_nothing(
        shards in shard_counts(),
        seed in any::<u64>(),
        lease_us in 50u64..2_000,
        n in 2usize..5,
        rounds in 1u32..5,
        max_len in 1usize..8_192,
    ) {
        let cfg = DetectorConfig {
            lease: VDur::from_micros(lease_us),
            ..DetectorConfig::default()
        };
        let armed = World::flat(NetModel::ethernet_10g(), n)
            .with_shards(shards)
            .with_ftol(cfg)
            .try_run_ft(move |c| {
                let mut total = 0usize;
                for r in 0..rounds {
                    total += ring_round(c, r, round_len(seed, r, max_len), true);
                }
                // Soundness: a fault-free run never suspects anybody.
                let ft = c.ftol_counters();
                assert!(c.failed_ranks().is_empty(), "phantom corpse");
                assert_eq!(ft.get("detected"), 0, "false-positive detection");
                assert_eq!(ft.get("notices"), 0, "phantom notice");
                assert_eq!(ft.get("probes"), 0, "the lease timer fired under live traffic");
                assert_eq!(c.liveness_epoch(), 0);
                total
            })
            .expect("fault-free traffic must never deadlock");
        let plain = World::flat(NetModel::ethernet_10g(), n)
            .with_shards(shards)
            .try_run(move |c| {
                let mut total = 0usize;
                for r in 0..rounds {
                    total += ring_round(c, r, round_len(seed, r, max_len), false);
                }
                total
            })
            .expect("plain traffic must never deadlock");
        // Zero cost: the armed world is bit-identical to the plain one.
        prop_assert_eq!(armed.end_time, plain.end_time, "armed detector moved virtual time");
        prop_assert_eq!(armed.fabric.bytes, plain.fabric.bytes, "armed detector touched the wire");
        prop_assert_eq!(armed.fabric.messages, plain.fabric.messages);
        let armed_results: Vec<_> = armed
            .results
            .into_iter()
            .map(|r| r.expect("nobody dies"))
            .collect();
        prop_assert_eq!(armed_results, plain.results);
    }

    #[test]
    fn detection_latency_is_bounded_for_any_crash_time(
        shards in shard_counts(),
        lease_us in 100u64..1_000,
        crash_us in 50u64..3_000,
        n in 2usize..5,
        hang in any::<bool>(),
    ) {
        let cfg = DetectorConfig {
            lease: VDur::from_micros(lease_us),
            ..DetectorConfig::default()
        };
        let victim = n - 1;
        let fate = if hang {
            CrashPlan::new().hang_at(victim, us(crash_us))
        } else {
            CrashPlan::new().crash_at(victim, us(crash_us))
        };
        let out = World::flat(NetModel::ethernet_10g(), n)
            .with_shards(shards)
            .with_ftol(cfg)
            .crash_plan(fate)
            .try_run_ft(move |c| {
                if c.rank() == victim {
                    c.compute(VDur::from_micros(10_000));
                    unreachable!("the victim dies mid-compute");
                }
                let parked = c.now();
                let rf = c
                    .ft_recv(Src::Is(victim), TagSel::Is(1))
                    .expect_err("the victim never sends");
                assert_eq!(rf.rank, victim);
                assert_eq!(c.failed_ranks(), vec![victim]);
                (parked.as_nanos(), c.now().as_nanos())
            })
            .expect("survivors must finish");
        prop_assert!(out.results[victim].is_none(), "the victim must die");
        // A probe round is lease + probe_rtt; crashes confirm on the
        // first round past the death, hangs need `confirm` consecutive
        // misses. The clock starts at whichever is later: the death or
        // the survivor parking on the corpse. One extra lease of slack
        // absorbs the park-to-grid misalignment, and notice delivery
        // (for survivors beaten to the confirmation by a peer) is
        // wire-fast, inside the same slack.
        let round = (lease_us + 20) * 1_000;
        let rounds = if hang { u64::from(DetectorConfig::default().confirm) } else { 1 };
        let bound = rounds * round + lease_us * 1_000;
        for (r, res) in out.results.iter().enumerate().take(n - 1) {
            let (parked, detected) = res.expect("survivor finishes");
            let from = parked.max(us(crash_us).as_nanos());
            let latency = detected - from;
            prop_assert!(
                latency <= bound,
                "rank {}: detection took {} ns, bound {} ns \
                 (lease {} us, crash at {} us, hang={})",
                r, latency, bound, lease_us, crash_us, hang
            );
        }
    }
}
