//! Simulator-level invariants: determinism, causality, calibration.

use empi::mpi::{Src, TagSel, World};
use empi::netsim::{Engine, NetModel, Topology, VDur, VTime};

/// A moderately busy program: staggered compute + all-pairs traffic.
fn busy_world(model: NetModel, ranks: usize) -> (Vec<u64>, u64) {
    let w = World::new(model, Topology::block(ranks, ranks / 2));
    let out = w.run(|c| {
        let me = c.rank();
        c.compute(VDur::from_micros((me as u64 * 13) % 40));
        for round in 0..3u32 {
            let dst = (me + 1 + round as usize) % c.size();
            let src = (me + c.size() - 1 - round as usize) % c.size();
            let payload = vec![me as u8; 100 * (round as usize + 1)];
            let _ = c.sendrecv(&payload, dst, round, Src::Is(src), TagSel::Is(round));
        }
        let sums = c.allreduce(&[me as f64], empi::mpi::ops::sum);
        c.barrier();
        (c.now().as_nanos(), sums[0] as u64)
    });
    (
        out.results.iter().map(|(t, _)| *t).collect(),
        out.end_time.as_nanos(),
    )
}

#[test]
fn simulation_is_deterministic() {
    // Same program, same model => identical virtual timestamps, even
    // though host thread scheduling differs between runs.
    let (t1, e1) = busy_world(NetModel::ethernet_10g(), 8);
    let (t2, e2) = busy_world(NetModel::ethernet_10g(), 8);
    assert_eq!(t1, t2);
    assert_eq!(e1, e2);
}

#[test]
fn different_fabrics_give_different_times_same_results() {
    let (te, _) = busy_world(NetModel::ethernet_10g(), 8);
    let (ti, _) = busy_world(NetModel::infiniband_40g(), 8);
    assert_ne!(te, ti);
    // IB is faster for this traffic.
    assert!(ti.iter().max() < te.iter().max());
}

#[test]
fn virtual_time_never_runs_backwards() {
    let w = World::flat(NetModel::infiniband_40g(), 4);
    let out = w.run(|c| {
        let mut prev = VTime::ZERO;
        let mut ok = true;
        for i in 0..50u32 {
            let dst = (c.rank() + 1) % c.size();
            let src = (c.rank() + c.size() - 1) % c.size();
            let _ = c.sendrecv(&[i as u8; 64], dst, i, Src::Is(src), TagSel::Is(i));
            let now = c.now();
            ok &= now >= prev;
            prev = now;
        }
        ok
    });
    assert!(out.results.iter().all(|&x| x));
}

#[test]
fn receiver_never_sees_message_before_sender_sent_it() {
    // Causality across the fabric: recv completion strictly after the
    // sender's virtual send time plus latency.
    let model = NetModel::ethernet_10g();
    let latency = model.latency.as_nanos();
    let w = World::flat(model, 2);
    let out = w.run(move |c| {
        if c.rank() == 0 {
            c.compute(VDur::from_micros(123));
            let sent_at = c.now().as_nanos();
            c.send(b"stamp", 1, 0);
            sent_at
        } else {
            let _ = c.recv(Src::Is(0), TagSel::Is(0));
            c.now().as_nanos()
        }
    });
    assert!(
        out.results[1] >= out.results[0] + latency,
        "recv at {} vs send at {} (+latency {})",
        out.results[1],
        out.results[0],
        latency
    );
}

#[test]
fn engine_scales_to_many_ranks() {
    // 128 ranks — double the paper's largest setting — must work.
    let out = Engine::new(128).run(|h| {
        h.advance(VDur::from_micros(h.rank() as u64));
        h.now().as_nanos()
    });
    assert_eq!(out.results.len(), 128);
    assert_eq!(out.end_time, VTime(127_000));
}

#[test]
fn intra_node_traffic_bypasses_the_nic() {
    // Two ranks on one node exchanging 1 MB must not touch the wire.
    let w = World::new(NetModel::ethernet_10g(), Topology::block(2, 1));
    let out = w.run(|c| {
        if c.rank() == 0 {
            c.send(&vec![7u8; 1 << 20], 1, 0);
        } else {
            let _ = c.recv(Src::Is(0), TagSel::Is(0));
        }
        c.now().as_nanos()
    });
    assert_eq!(out.fabric.messages, 0, "no inter-node messages expected");
    assert_eq!(out.fabric.local_messages, 1);
    // And it is far faster than the wire would allow.
    let wire_time = NetModel::ethernet_10g().pp_curve.time_ns(1 << 20);
    assert!(out.end_time.as_nanos() < wire_time / 2);
}

#[test]
fn rank_threads_do_real_parallel_work_in_virtual_time() {
    // Each rank charges 100 µs of compute; with one virtual core per
    // rank the end-to-end time is ~100 µs, not ranks × 100 µs.
    let out = Engine::new(16).run(|h| {
        h.advance(VDur::from_micros(100));
    });
    assert_eq!(out.end_time, VTime(100_000));
}

/// The encrypted 256 B ping-pong of TAB-5's cell (the `pp_small`
/// benchmark workload) on `world`; every rank reports whether it ran
/// without a recorder.
fn small_encrypted_pingpong(world: World, round_trips: usize) -> empi::mpi::WorldOutcome<bool> {
    use empi::aead::profile::CryptoLibrary;
    use empi::secure::{SecureComm, SecurityConfig, TimingMode};

    let timing = TimingMode::calibrated_for(&NetModel::infiniband_40g());
    world.run(move |c| {
        let cfg = SecurityConfig::new(CryptoLibrary::BoringSsl)
            .with_timing(timing)
            .with_deterministic_nonces(11);
        let sc = SecureComm::new(c, cfg).expect("secure comm");
        let payload = [0xA5u8; 256];
        for _ in 0..round_trips {
            if c.rank() == 0 {
                sc.send(&payload, 1, 0);
                let (_, back) = sc.recv(Src::Is(1), TagSel::Is(1)).expect("pong");
                assert_eq!(back[..], payload[..]);
            } else {
                let (_, m) = sc.recv(Src::Is(0), TagSel::Is(0)).expect("ping");
                sc.send(&m, 0, 1);
            }
        }
        c.sim().recorder().is_none()
    })
}

/// What an encrypted 256 B round trip costs the engine: 12 yields, of
/// which 2 change threads and 10 keep the token — at every shard
/// count. A change that makes yields lazy has to move exactly this
/// number.
#[test]
fn a_small_encrypted_round_trip_is_twelve_yields_and_two_handoffs() {
    let run = |shards: usize, round_trips: usize| {
        let world = World::flat(NetModel::infiniband_40g(), 2).with_shards(shards);
        let out = small_encrypted_pingpong(world, round_trips);
        (out.yields, out.handoffs)
    };
    for shards in [1, 2] {
        let (y10, h10) = run(shards, 10);
        let (y110, h110) = run(shards, 110);
        assert_eq!(
            y110 - y10,
            100 * 12,
            "yields per round trip, shards={shards}"
        );
        assert_eq!(
            h110 - h10,
            100 * 2,
            "hand-offs per round trip, shards={shards}"
        );
    }
}

/// The one gate of the observability plane is taken at run time: a
/// world that asked for no sink installs no recorder, each report is
/// `Some` exactly when its sink was asked for, and neither sink moves
/// virtual time, the schedule or the wire.
#[test]
fn a_sink_is_installed_when_asked_for_and_never_moves_the_run() {
    let run = |traced: bool, metered: bool| {
        let world = World::flat(NetModel::infiniband_40g(), 2)
            .traced(traced)
            .with_metrics(metered);
        let out = small_encrypted_pingpong(world, 10);
        assert_eq!(out.trace.is_some(), traced, "traced={traced}");
        assert_eq!(out.metrics.is_some(), metered, "metered={metered}");
        let absent = !(traced || metered);
        assert_eq!(out.results, [absent; 2], "recorder absent on every rank");
        let fabric = out.fabric;
        (
            out.end_time,
            out.yields,
            out.handoffs,
            (fabric.messages, fabric.bytes, fabric.local_messages),
        )
    };
    let bare = run(false, false);
    for (traced, metered) in [(true, false), (false, true), (true, true)] {
        assert_eq!(
            run(traced, metered),
            bare,
            "traced={traced} metered={metered}"
        );
    }
}
