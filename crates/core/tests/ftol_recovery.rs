//! End-to-end fault-tolerance at the secure layer: a crash-plan death
//! must surface as typed errors, burn the dead rank's key material,
//! and leave the survivors with a working (re-keyed, shrunken) world.

use empi_aead::profile::CryptoLibrary;
use empi_core::{Error, FaultRates, KeyPlaneConfig, SecureComm, SecurityConfig};
use empi_mpi::{CrashPlan, DetectorConfig, Src, TagSel, World};
use empi_netsim::{FaultPlan, NetModel, VDur, VTime, Verdict};

fn us(n: u64) -> VTime {
    VTime(n * 1_000)
}

/// A confirmed death revokes the dead rank through the key plane's
/// revocation path (survivor re-key + quarantine), and the survivors'
/// subsequent encrypted traffic round-trips bit-exactly.
#[test]
fn crash_revokes_dead_rank_and_survivors_rekey() {
    let w = World::flat(NetModel::ethernet_10g(), 4)
        .with_ftol(DetectorConfig::default())
        .crash_plan(CrashPlan::new().crash_at(2, us(5_000)));
    let out = w
        .try_run_ft(|c| {
            let cfg = SecurityConfig::new(CryptoLibrary::BoringSsl)
                .with_key_plane(KeyPlaneConfig::new(0xFEED));
            let sc = SecureComm::new(c, cfg).unwrap();
            if c.rank() == 2 {
                // Handshakes, then dies 5ms in, mid-compute.
                c.compute(VDur::from_micros(100_000));
                unreachable!("rank 2 dies mid-compute");
            }
            let epoch_before = sc.sealing_epoch();
            // Every survivor blocks on the doomed rank; the detector
            // fires, the notice fans out, and the secure wrapper
            // revokes the corpse before surfacing the typed error.
            let err = sc
                .ft_recv(Src::Is(2), TagSel::Is(1))
                .expect_err("rank 2 died");
            assert!(
                matches!(err, Error::RankFailed { rank: 2, .. }),
                "expected RankFailed for rank 2, got {err}"
            );
            assert_eq!(sc.revoked_ranks(), vec![2], "corpse not quarantined");
            assert!(
                sc.sealing_epoch() > epoch_before,
                "survivors did not roll to a post-revocation epoch"
            );
            // Shrink to the survivor group and prove post-re-key
            // traffic works: a secure ring exchange over world ranks.
            let sk = c.shrink();
            assert_eq!(sk.members(), &[0, 1, 3]);
            let next = sk.world_rank((sk.rank() + 1) % sk.size());
            let prev = sk.world_rank((sk.rank() + sk.size() - 1) % sk.size());
            let msg = format!("survivor {} epoch {}", c.rank(), sc.sealing_epoch());
            sc.send(msg.as_bytes(), next, 42);
            let (st, got) = sc
                .recv(Src::Is(prev), TagSel::Is(42))
                .expect("post-rekey recv");
            assert_eq!(st.source, prev);
            let text = String::from_utf8(got).unwrap();
            assert_eq!(
                text,
                format!("survivor {prev} epoch {}", sc.sealing_epoch())
            );
            c.ftol_counters().get("detected") + c.ftol_counters().get("notices")
        })
        .expect("survivors must finish");
    // Exactly one local detection; everyone learned of the death.
    for r in [0usize, 1, 3] {
        assert_eq!(out.results[r], Some(1), "rank {r} failure accounting");
    }
    assert!(out.results[2].is_none());
}

/// An in-flight ARQ flow whose sender dies resolves to a typed
/// `DeliveryFailed` carrying the flight-recorder black box — not a
/// timeout after the full backoff schedule, and never a hang.
#[test]
fn dead_sender_resolves_inflight_arq_to_delivery_failed() {
    let w = World::flat(NetModel::ethernet_10g(), 2)
        .with_ftol(DetectorConfig::default())
        .with_metrics(true)
        .crash_plan(CrashPlan::new().crash_at(0, us(1_000)));
    let out = w
        .try_run_ft(|c| {
            // Every data frame corrupted: the first open fails and the
            // receiver enters ARQ recovery against a sender that dies
            // before it can ever repair.
            let cfg = SecurityConfig::new(CryptoLibrary::BoringSsl)
                .with_faults(
                    7,
                    FaultRates {
                        bit_flip: 1.0,
                        ..FaultRates::ZERO
                    },
                )
                .with_retransmit(5, VDur::from_micros(150));
            let sc = SecureComm::new(c, cfg).unwrap();
            if c.rank() == 0 {
                sc.send(b"doomed flow", 1, 7);
                c.compute(VDur::from_micros(100_000));
                unreachable!("rank 0 dies mid-compute");
            }
            let err = sc
                .recv(Src::Is(0), TagSel::Is(7))
                .expect_err("flow is unrecoverable");
            match &err {
                Error::DeliveryFailed {
                    ledger, black_box, ..
                } => {
                    assert!(
                        ledger.iter().any(|l| l.contains("confirmed dead")),
                        "ledger misses the death: {ledger:?}"
                    );
                    let bb = black_box
                        .as_ref()
                        .expect("flight recorder black box attached");
                    assert!(!bb.events.is_empty(), "black box recorded no flow events");
                    assert_eq!(bb.peer, 0);
                }
                e => panic!("expected DeliveryFailed, got {e}"),
            }
            // The failure registered with the detector too.
            assert_eq!(c.failed_ranks(), vec![0]);
        })
        .expect("receiver must finish");
    assert!(out.results[1].is_some());
    assert!(out.results[0].is_none());
}

/// The flow the two ARQ × ftol tests below fault: rank 0 → rank 1 on
/// `TAG`, half of all transmissions bit-flipped.
const TAG: u32 = 7;
const FLIP_HALF: FaultRates = FaultRates {
    bit_flip: 0.5,
    ..FaultRates::ZERO
};
/// Pinned: under this seed the initial transmissions of the flow's
/// first two messages are both corrupted and both first repairs get
/// through. `FaultPlan::verdict` is a pure function of its coordinate
/// (the reliability layer's stream id is `tag << 32 ^ seq`, repairs
/// draw at chunk coordinate `u32::MAX`), so the property is asserted,
/// not assumed.
const SEED: u64 = 26;

fn assert_seed_corrupts_then_repairs(seq: u64) {
    let plan = FaultPlan::new(SEED, FLIP_HALF);
    let stream = (u64::from(TAG) << 32) ^ seq;
    let initial = plan.verdict(0, 1, stream, 0, 0, 64);
    assert!(
        matches!(initial, Verdict::BitFlip { .. }),
        "seq {seq}: {initial:?}"
    );
    assert_eq!(
        plan.verdict(0, 1, stream, u32::MAX, 1, 64),
        Verdict::Deliver,
        "seq {seq}"
    );
}

/// The ft verbs share the one seal → sequence → inject → open → recover
/// path: a faulted message taken with `ft_recv` is NACKed and repaired
/// like one taken with `recv`, and it advances the receiver's flow
/// sequence — so the *next* faulted message on the flow is repaired
/// under its own `(tag, seq)`, not handed the previous one's bytes.
#[test]
fn ft_recv_recovers_and_keeps_the_flow_sequence_aligned() {
    assert_seed_corrupts_then_repairs(0);
    assert_seed_corrupts_then_repairs(1);
    let w = World::flat(NetModel::ethernet_10g(), 2).with_ftol(DetectorConfig::default());
    let out = w
        .try_run_ft(move |c| {
            let cfg = SecurityConfig::new(CryptoLibrary::BoringSsl)
                .with_faults(SEED, FLIP_HALF)
                .with_retransmit(4, VDur::from_micros(200));
            let sc = SecureComm::new(c, cfg).unwrap();
            let (first, second) = (vec![0x11u8; 3000], vec![0x22u8; 3000]);
            if c.rank() == 0 {
                sc.send(&first, 1, TAG);
                sc.send(&second, 1, TAG);
                sc.pump(sc.recovery_window());
                return 0;
            }
            let (_, got) = sc
                .ft_recv(Src::Is(0), TagSel::Is(TAG))
                .expect("ft_recv recovers the first message");
            assert_eq!(got, first, "first message");
            let (_, got) = sc
                .recv(Src::Is(0), TagSel::Is(TAG))
                .expect("recv recovers the second message");
            assert_ne!(
                got, first,
                "the repair carried the previous message's bytes"
            );
            assert_eq!(got, second, "second message");
            sc.chaos_stats().recoveries
        })
        .expect("nobody dies");
    assert_eq!(
        out.results[1],
        Some(2),
        "both messages were repaired over the wire"
    );
}

/// ARQ × ftol: a rank parked in `ft_recv` is a repair server like any
/// other ARQ wait — it answers a live peer's NACK, so the peer's faulted
/// flow recovers instead of running out its backoff to `Timeout`.
#[test]
fn rank_parked_in_ft_recv_answers_a_live_peers_nack() {
    assert_seed_corrupts_then_repairs(0);
    let w = World::flat(NetModel::ethernet_10g(), 2).with_ftol(DetectorConfig::default());
    let out = w
        .try_run_ft(move |c| {
            let cfg = SecurityConfig::new(CryptoLibrary::BoringSsl)
                .with_retransmit(4, VDur::from_micros(200));
            // Only rank 0's link is faulty; rank 1's reply travels clean.
            let cfg = match c.rank() {
                0 => cfg.with_faults(SEED, FLIP_HALF),
                _ => cfg,
            };
            let sc = SecureComm::new(c, cfg).unwrap();
            if c.rank() == 0 {
                // Sends the (corrupted) request, then parks lease-armed
                // for the reply — which only comes once rank 1 has
                // recovered the request through this rank's repair.
                sc.send(b"request", 1, TAG);
                let (_, reply) = sc
                    .ft_recv(Src::Is(1), TagSel::Is(TAG + 1))
                    .expect("the peer is alive");
                assert_eq!(reply, b"reply");
                return sc.chaos_stats().retransmits;
            }
            let (_, got) = sc
                .recv(Src::Is(0), TagSel::Is(TAG))
                .expect("repaired by a sender that is parked in ft_recv");
            assert_eq!(got, b"request");
            sc.ft_send(b"reply", 0, TAG + 1).expect("the peer is alive");
            sc.chaos_stats().recoveries
        })
        .expect("nobody dies");
    assert_eq!(
        out.results,
        vec![Some(1), Some(1)],
        "one repair sent, one recovery"
    );
}
