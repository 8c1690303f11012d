//! Fault-tolerance benchmarks — TAB-FTOL and TAB-FTOL-COLL (extension
//! beyond the paper, powered by the `empi-mpi` failure detector and
//! ULFM-style shrink verbs).
//!
//! The paper's clusters assume a fixed, immortal world; TAB-FTOL
//! prices survivability: a seeded crash plan kills the highest rank
//! mid-run and the survivors ride the full recovery ladder —
//! lease-based detection, survivor re-key through the revocation path,
//! agreement-backed communicator shrink, and a verified encrypted
//! exchange on the shrunken world. Rows sweep the detector lease
//! period against the world size (plus hang rows at the default lease,
//! which need `confirm` probe rounds instead of one) and report each
//! ladder step in virtual microseconds. The re-key column doubles as
//! an invariant check: survivor re-keying is deterministic and
//! wire-free, so it prices at (near) zero.
//!
//! TAB-FTOL-COLL answers the overhead question per backend: a
//! fault-aware collective loop (ring exchange + agreement barrier per
//! round) runs once clean and once with a mid-run crash, for the
//! unencrypted baseline and all four measured libraries. The delta is
//! the end-to-end price of losing a rank mid-collective — detection
//! stall included — and the clean column doubles as the armed-idle
//! guarantee (the detector never fires on a healthy run).
//!
//! Alongside the tables the harness exports `metrics-ftol-<net>.json`
//! (snapshot with the `ftol` counter block populated — consumed by
//! `tracecheck --require-ftol`) and `metrics-ftol-<net>.prom`. When
//! tracing is active the representative run also writes
//! `trace-ftol-<net>.json`, whose `ftol/*` spans the same tracecheck
//! flag audits, and asserts the ftol conservation law: the trace
//! ledger counts exactly the detections, notices, and shrinks the
//! detector reports.

use empi_aead::profile::CryptoLibrary;
use empi_core::{Error, FaultRates, KeyPlaneConfig, SecureComm, SecurityConfig};
use empi_mpi::{CrashPlan, DetectorConfig, Src, TagSel, TraceReport, World};
use empi_netsim::{VDur, VTime};
use empi_trace::{CounterBlock, MetricsSnapshot};

use crate::chaos::LIBS;
use crate::common::{security_config, BenchOpts, Net};
use crate::table::Table;
use crate::tracing::write_artifacts;

/// Fixed handshake seed: reruns must agree on the same session master
/// and export byte-identical snapshots.
pub const SEED: u64 = 0x4654_4F4C_0000_0001;
/// When the victim dies, comfortably past the group handshake even for
/// the 8-rank worlds (the victim must not die mid-handshake — plain
/// handshake receives are not fault-aware by design).
pub const CRASH_AT_US: u64 = 20_000;
/// Tag of the detection receive and the post-shrink restore exchange.
pub const FTOL_TAG: u32 = 17;
/// Ring payload of the collective loop — small enough to stay eager,
/// so a send posted at a corpse completes locally instead of parking
/// in a rendezvous that nobody will ever ack.
pub const COLL_BYTES: usize = 1 << 10;
/// Per-round compute phase of the collective loop: pins the crash to
/// a mid-run round for every backend and network.
pub const COLL_COMPUTE_US: u64 = 300;
/// When the collective loop's victim dies (mid-run; see above).
pub const COLL_CRASH_AT_US: u64 = 2_000;

fn us(n: u64) -> VTime {
    VTime(n * 1_000)
}

fn fmt_us(ns: u64) -> String {
    format!("{:.1}", ns as f64 / 1e3)
}

/// One recovery-ladder run: per-step times (max across survivors — a
/// step is done when the *last* survivor finishes it) plus the summed
/// detector and key-plane counters.
pub struct DetectRun {
    /// Death → typed `RankFailed` at every survivor.
    pub detect_ns: u64,
    /// Survivor re-key through the revocation path (wire-free: ≈ 0).
    pub rekey_ns: u64,
    /// Agreement-backed shrink to the dense survivor communicator.
    pub shrink_ns: u64,
    /// Verified encrypted ring exchange on the shrunken world.
    pub restore_ns: u64,
    /// Detector counters summed across survivors, `rekeys` filled from
    /// the key plane's revocation count.
    pub counters: CounterBlock,
    /// Snapshot merged across ranks (`ftol` block injected).
    pub snap: MetricsSnapshot,
    /// Timeline; `Some` only when traced.
    pub trace: Option<TraceReport>,
}

/// Kill the highest rank at [`CRASH_AT_US`] and drive every survivor
/// through detect → re-key → shrink → restored encrypted service.
pub fn detect_run(net: Net, n: usize, lease_us: u64, hang: bool, traced: bool) -> DetectRun {
    let cfg = DetectorConfig {
        lease: VDur::from_micros(lease_us),
        ..DetectorConfig::default()
    };
    let victim = n - 1;
    let fate = if hang {
        CrashPlan::new().hang_at(victim, us(CRASH_AT_US))
    } else {
        CrashPlan::new().crash_at(victim, us(CRASH_AT_US))
    };
    let world = World::flat(net.model(), n)
        .with_ftol(cfg)
        .with_metrics(true)
        .traced(traced)
        .crash_plan(fate);
    let out = world
        .try_run_ft(move |c| {
            let sec = SecurityConfig::new(CryptoLibrary::BoringSsl)
                .with_key_plane(KeyPlaneConfig::new(SEED));
            let sc = SecureComm::new(c, sec).unwrap();
            if c.rank() == victim {
                c.compute(VDur::from_micros(20 * CRASH_AT_US));
                unreachable!("the victim dies mid-compute");
            }
            // Compute up to half a lease before the fate — close enough
            // that the idle-round guard (which deliberately bounds how
            // long an ft wait may outlive a silent-but-live peer) stays
            // quiet, and misaligned with the lease grid so the first
            // deadline past the death lands mid-interval: detection
            // latency ≈ lease/2 + probe_rtt, showing the lease
            // dependence the sweep is after.
            let lease = c.detector_config().expect("ftol is armed").lease;
            let target = us(CRASH_AT_US)
                .as_nanos()
                .saturating_sub(lease.as_nanos() / 2);
            let now = c.now().as_nanos();
            if now < target {
                c.compute(VDur::from_nanos(target - now));
            }
            // Rung 1: every survivor blocks on the doomed rank until
            // the lease detector (or a peer's notice) confirms it.
            let rf = c
                .ft_recv(Src::Is(victim), TagSel::Is(FTOL_TAG))
                .expect_err("the victim never sends");
            assert_eq!(rf.rank, victim);
            let t_detect = c.now();
            // Rung 2: burn the corpse's keys; survivors re-key.
            sc.handle_rank_failure(rf.rank).expect("revocation path");
            let t_rekey = c.now();
            // Rung 3: agreement-backed shrink.
            let sk = c.shrink();
            assert_eq!(sk.size(), n - 1);
            let t_shrink = c.now();
            // Rung 4: restored encrypted service, verified bit-exact.
            if sk.size() > 1 {
                let next = sk.world_rank((sk.rank() + 1) % sk.size());
                let prev = sk.world_rank((sk.rank() + sk.size() - 1) % sk.size());
                let msg = format!("survivor {} epoch {}", c.rank(), sc.sealing_epoch());
                sc.send(msg.as_bytes(), next, FTOL_TAG);
                let (st, got) = sc.recv(Src::Is(prev), TagSel::Is(FTOL_TAG)).unwrap();
                assert_eq!(st.source, prev);
                assert_eq!(
                    String::from_utf8(got).unwrap(),
                    format!("survivor {prev} epoch {}", sc.sealing_epoch())
                );
            }
            let t_restore = c.now();
            (
                t_detect
                    .as_nanos()
                    .saturating_sub(us(CRASH_AT_US).as_nanos()),
                t_rekey.as_nanos() - t_detect.as_nanos(),
                t_shrink.as_nanos() - t_rekey.as_nanos(),
                t_restore.as_nanos() - t_shrink.as_nanos(),
                c.ftol_counters(),
                sc.key_stats().expect("key plane is on"),
            )
        })
        .expect("survivors must finish");
    assert!(out.results[victim].is_none(), "the victim must die");
    let survivors: Vec<_> = out.results.into_iter().flatten().collect();
    assert_eq!(survivors.len(), n - 1);
    let mut counters = CounterBlock::sum(survivors.iter().map(|s| &s.4));
    counters.set("rekeys", survivors.iter().map(|s| s.5.revocations).sum());
    assert_eq!(
        counters.get("detected") + counters.get("notices"),
        survivors.len() as u64,
        "every survivor confirms the death exactly once"
    );
    let mut snap = out.metrics.unwrap_or_default();
    snap.ftol = Some(counters.clone());
    DetectRun {
        detect_ns: survivors.iter().map(|r| r.0).max().unwrap(),
        rekey_ns: survivors.iter().map(|r| r.1).max().unwrap(),
        shrink_ns: survivors.iter().map(|r| r.2).max().unwrap(),
        restore_ns: survivors.iter().map(|r| r.3).max().unwrap(),
        counters,
        snap,
        trace: out.trace,
    }
}

/// The fault-aware collective loop of TAB-FTOL-COLL: `rounds` rounds
/// of compute + ring exchange over the current membership + an
/// agreement barrier that doubles as the membership resync (one-round
/// lag after a death — the errored neighbors confirm the corpse, the
/// next agreement excludes it for everyone). Returns the end-to-end
/// virtual time and the messages delivered bit-exact.
pub fn collective_run(
    net: Net,
    lib: Option<CryptoLibrary>,
    rounds: u32,
    crash: bool,
) -> (u64, u64) {
    let n = 4usize;
    let victim = n - 1;
    let mut world = World::flat(net.model(), n).with_ftol(DetectorConfig::default());
    if crash {
        world = world.crash_plan(CrashPlan::new().crash_at(victim, us(COLL_CRASH_AT_US)));
    }
    let out = world
        .try_run_ft(move |c| {
            let sc = lib.map(|l| SecureComm::new(c, security_config(l, net)).unwrap());
            let payload = vec![0xB7u8; COLL_BYTES];
            let all = (1u64 << n) - 1;
            let mut members: Vec<usize> = (0..n).collect();
            let mut delivered = 0u64;
            for round in 0..rounds {
                c.compute(VDur::from_micros(COLL_COMPUTE_US));
                if members.contains(&c.rank()) && members.len() > 1 {
                    let me = members.iter().position(|&r| r == c.rank()).unwrap();
                    let next = members[(me + 1) % members.len()];
                    let prev = members[(me + members.len() - 1) % members.len()];
                    let tag = FTOL_TAG + 1 + round;
                    // Errors are expected in the round the victim dies;
                    // the agreement below resynchronises everyone.
                    let sent = match &sc {
                        Some(sc) => sc.ft_send(&payload, next, tag).is_ok(),
                        None => c.ft_send(&payload, next, tag).is_ok(),
                    };
                    let got = match &sc {
                        Some(sc) => sc
                            .ft_recv(Src::Is(prev), TagSel::Is(tag))
                            .map(|(_, d)| d)
                            .ok(),
                        None => c
                            .ft_recv(Src::Is(prev), TagSel::Is(tag))
                            .map(|(_, d)| d.to_vec())
                            .ok(),
                    };
                    if let Some(d) = got {
                        assert_eq!(d, payload, "round {round} corrupted");
                        delivered += u64::from(sent);
                    }
                }
                // Fault-aware barrier: the agreed liveness bitmap is
                // identical at every live rank (the coordinator, rank
                // 0, never dies in this harness), so the ring stays
                // consistent even while knowledge of the death is
                // still propagating.
                let mut mine = all;
                for f in c.failed_ranks() {
                    mine &= !(1 << f);
                }
                let agreed = c.agree(mine);
                members = (0..n).filter(|r| agreed & (1 << r) != 0).collect();
            }
            (delivered, c.ftol_counters())
        })
        .expect("the collective loop must never deadlock");
    if crash {
        assert!(out.results[victim].is_none(), "the victim must die");
        let seen = CounterBlock::sum(out.results.iter().flatten().map(|(_, ft)| ft));
        assert_eq!(
            seen.get("detected") + seen.get("notices"),
            (n - 1) as u64,
            "every survivor learns of the death"
        );
    } else {
        for (r, res) in out.results.iter().enumerate() {
            let (_, ft) = res.as_ref().expect("clean runs lose nobody");
            assert!(
                ft.iter().all(|(_, v)| v == 0),
                "rank {r}: the armed detector fired on a healthy run: {ft:?}"
            );
        }
    }
    let delivered = out.results.iter().flatten().map(|(d, _)| d).sum();
    (out.end_time.as_nanos(), delivered)
}

/// The in-flight ARQ scenario feeding the `delivery_failed` counter: a
/// sender whose every frame is corrupted dies mid-recovery; the flow
/// must resolve to `DeliveryFailed` with the flight-recorder black box
/// attached. Returns how many flows so resolved (expected: 1).
pub fn arq_dead_sender_run(net: Net) -> u64 {
    let world = World::flat(net.model(), 2)
        .with_ftol(DetectorConfig::default())
        .with_metrics(true)
        .crash_plan(CrashPlan::new().crash_at(0, us(1_000)));
    let out = world
        .try_run_ft(move |c| {
            let cfg = security_config(CryptoLibrary::BoringSsl, net)
                .with_faults(
                    SEED,
                    FaultRates {
                        bit_flip: 1.0,
                        ..FaultRates::ZERO
                    },
                )
                .with_retransmit(5, VDur::from_micros(150));
            let sc = SecureComm::new(c, cfg).unwrap();
            if c.rank() == 0 {
                sc.send(b"doomed flow", 1, FTOL_TAG);
                c.compute(VDur::from_micros(100_000));
                unreachable!("the sender dies mid-compute");
            }
            match sc.recv(Src::Is(0), TagSel::Is(FTOL_TAG)) {
                Err(Error::DeliveryFailed { black_box, .. }) => {
                    assert!(black_box.is_some(), "black box must ride the error");
                    1u64
                }
                other => panic!("expected DeliveryFailed, got {other:?}"),
            }
        })
        .expect("the receiver must finish");
    out.results[1].expect("receiver result")
}

/// Build TAB-FTOL (recovery-ladder sweep: lease × world size, plus
/// hang rows) and TAB-FTOL-COLL (collectives-under-crash overhead per
/// backend) for one network, and export the snapshot artifacts.
pub fn run_net(net: Net, opts: &BenchOpts) -> Vec<Table> {
    let leases: &[u64] = if opts.quick {
        &[100, 500]
    } else {
        &[100, 500, 2_000]
    };
    let sizes: &[usize] = if opts.quick { &[2, 4] } else { &[2, 4, 8] };
    let rounds: u32 = if opts.quick { 10 } else { 16 };

    let mut tab = Table::new(
        format!(
            "TAB-FTOL-{}: recovery ladder (detect / re-key / shrink / restore) vs \
             detector lease x world size, crash at {} ms, seed {:#x}, {}",
            net.name(),
            CRASH_AT_US / 1_000,
            SEED,
            net.name()
        ),
        "fault / lease / world",
        [
            "detect us",
            "rekey us",
            "shrink us",
            "restore us",
            "probes",
            "notices",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect(),
    );
    for &lease in leases {
        for &n in sizes {
            let run = detect_run(net, n, lease, false, false);
            push_ladder_row(&mut tab, &format!("crash / {lease} us / n={n}"), &run);
            // Crash detection needs one probe round past the lease.
            let bound = 2 * (lease + 20) * 1_000;
            assert!(
                run.detect_ns <= bound,
                "crash detection {} ns blew the {} ns bound (lease {lease} us)",
                run.detect_ns,
                bound
            );
        }
    }
    for &n in sizes {
        // Hangs need `confirm` consecutive missed rounds, not one.
        let run = detect_run(net, n, 500, true, false);
        push_ladder_row(&mut tab, &format!("hang / 500 us / n={n}"), &run);
    }

    let mut coll = Table::new(
        format!(
            "TAB-FTOL-COLL-{}: fault-aware collective loop ({} rounds, {} B ring + \
             agreement barrier, 4 ranks), clean vs rank-3 crash at {} ms, {}",
            net.name(),
            rounds,
            COLL_BYTES,
            COLL_CRASH_AT_US / 1_000,
            net.name()
        ),
        "library",
        [
            "clean us",
            "crash us",
            "added us",
            "overhead %",
            "delivered",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect(),
    );
    for lib in std::iter::once(None).chain(LIBS.iter().map(|&l| Some(l))) {
        let (clean_ns, _) = collective_run(net, lib, rounds, false);
        let (crash_ns, delivered) = collective_run(net, lib, rounds, true);
        let label = match lib {
            None => "Unencrypted".to_string(),
            Some(l) => l.name().to_string(),
        };
        let added = crash_ns.saturating_sub(clean_ns);
        coll.push_row(
            label,
            vec![
                fmt_us(clean_ns),
                fmt_us(crash_ns),
                fmt_us(added),
                format!("{:.1}", 100.0 * added as f64 / clean_ns as f64),
                format!("{delivered}"),
            ],
        );
    }

    export_artifacts(net, opts);
    vec![tab, coll]
}

fn push_ladder_row(tab: &mut Table, label: &str, run: &DetectRun) {
    tab.push_row(
        label.to_string(),
        vec![
            fmt_us(run.detect_ns),
            fmt_us(run.rekey_ns),
            fmt_us(run.shrink_ns),
            fmt_us(run.restore_ns),
            format!("{}", run.counters.get("probes")),
            format!("{}", run.counters.get("notices")),
        ],
    );
}

/// Export the representative (default lease, 4 ranks, crash) snapshot:
/// `metrics-ftol-<net>.json` + `.prom` with the `ftol` counter block
/// populated, and — when tracing is active — `trace-ftol-<net>.json`
/// whose `ftol/*` spans feed `tracecheck --require-ftol`, plus the
/// ftol conservation assertion against the trace ledger.
fn export_artifacts(net: Net, opts: &BenchOpts) {
    let mut run = detect_run(net, 4, 500, false, opts.trace);
    // The ARQ scenario fills the one counter the ladder cannot: flows
    // resolved as failed against a dead peer.
    let mut counters = run.counters.clone();
    counters.set("delivery_failed", arq_dead_sender_run(net));
    assert_eq!(
        counters.get("delivery_failed"),
        1,
        "the doomed flow must resolve typed"
    );
    run.snap.ftol = Some(counters);
    if let Some(r) = &run.trace {
        // Conservation law: the trace ledger counts exactly the
        // detections, notices, and shrinks the detector reports.
        let detected: u64 = r.per_rank.iter().map(|m| m.ft_detected).sum();
        let notices: u64 = r.per_rank.iter().map(|m| m.ft_notices).sum();
        let shrinks: u64 = r.per_rank.iter().map(|m| m.ft_shrinks).sum();
        assert_eq!(
            (detected, notices, shrinks),
            (
                run.counters.get("detected"),
                run.counters.get("notices"),
                run.counters.get("shrinks")
            ),
            "trace ftol spans must conserve against the detector counters"
        );
    }
    let stem = format!("ftol-{}", net.name().to_lowercase());
    write_artifacts(&opts.out_dir, &stem, &run.snap, run.trace.as_ref());
}

#[cfg(test)]
mod tests {
    use super::*;
    use empi_trace::export;

    #[test]
    fn crash_ladder_detects_within_bound_and_rekeys_free() {
        let run = detect_run(Net::Ethernet, 4, 500, false, false);
        // One probe round past the lease, at most.
        assert!(run.detect_ns <= (500 + 20) * 2 * 1_000, "{}", run.detect_ns);
        assert!(run.detect_ns > 0);
        // Survivor re-key is deterministic and wire-free.
        assert_eq!(run.rekey_ns, 0, "re-key must not cost wire time");
        assert!(run.restore_ns > 0, "the restore exchange moves real bytes");
        assert_eq!(run.counters.get("shrinks"), 3);
        assert_eq!(run.counters.get("rekeys"), 3);
    }

    #[test]
    fn hang_needs_confirm_rounds() {
        let crash = detect_run(Net::Ethernet, 2, 500, false, false);
        let hang = detect_run(Net::Ethernet, 2, 500, true, false);
        assert!(
            hang.detect_ns > crash.detect_ns,
            "hang {} ns must out-wait crash {} ns",
            hang.detect_ns,
            crash.detect_ns
        );
        let confirm = u64::from(DetectorConfig::default().confirm);
        assert!(hang.detect_ns <= (confirm * (500 + 20) + 500 + 20) * 1_000);
    }

    #[test]
    fn collective_crash_costs_more_than_clean() {
        let (clean, d_clean) = collective_run(Net::Ethernet, None, 8, false);
        let (crash, d_crash) = collective_run(Net::Ethernet, None, 8, true);
        assert!(crash > clean, "losing a rank mid-collective must cost time");
        assert!(d_crash < d_clean, "a dead rank delivers less");
        assert!(d_crash > 0, "survivors keep collecting after the shrink");
    }

    #[test]
    fn arq_scenario_fills_delivery_failed() {
        assert_eq!(arq_dead_sender_run(Net::Ethernet), 1);
    }

    #[test]
    fn snapshot_carries_ftol_counters_and_validates() {
        let run = detect_run(Net::Ethernet, 4, 500, false, false);
        let json = export::snapshot_json(&run.snap);
        assert!(json.contains("\"ftol\":{\"detected\":1"), "json: {json}");
        let prom = export::prometheus(&run.snap);
        export::validate_prometheus(&prom).unwrap();
        assert!(prom.contains("empi_ftol_total{counter=\"detected\"}"));
        assert!(prom.contains("empi_ftol_total{counter=\"shrinks\"} 3"));
    }

    #[test]
    fn traced_ladder_conserves_ftol_spans() {
        let run = detect_run(Net::Ethernet, 4, 500, false, true);
        let r = run.trace.expect("traced world must report");
        let detected: u64 = r.per_rank.iter().map(|m| m.ft_detected).sum();
        let notices: u64 = r.per_rank.iter().map(|m| m.ft_notices).sum();
        let shrinks: u64 = r.per_rank.iter().map(|m| m.ft_shrinks).sum();
        assert_eq!(detected, run.counters.get("detected"));
        assert_eq!(notices, run.counters.get("notices"));
        assert_eq!(shrinks, run.counters.get("shrinks"));
    }

    #[test]
    fn ftol_tables_render() {
        let opts = BenchOpts {
            quick: true,
            trace: false,
            out_dir: std::env::temp_dir().join("empi-ftol-test"),
            ..BenchOpts::default()
        };
        let tables = run_net(Net::Ethernet, &opts);
        assert_eq!(tables.len(), 2);
        assert!(tables[0].title.starts_with("TAB-FTOL-Ethernet"));
        assert!(tables[1].title.starts_with("TAB-FTOL-COLL-Ethernet"));
        // 2 leases x 2 sizes crash rows + 2 hang rows; baseline + libs.
        assert_eq!(tables[0].rows.len(), 6);
        assert_eq!(tables[1].rows.len(), 1 + LIBS.len());
        for (label, cells) in &tables[0].rows {
            assert_ne!(cells[0], "0.0", "detection takes time: {label}");
        }
    }
}
