//! Tail-latency benchmarks — TAB-TAIL and DECOMP-TAIL (extension
//! beyond the paper, powered by the recorder's distribution sink).
//!
//! The paper reports *mean* overheads only; TAB-TAIL answers the
//! distribution question: p50/p99/p999 end-to-end latency for an
//! encrypted p2p stream and for alltoall exchanges, all four backends
//! on both fabrics, with the seeded chaos fault plan off and on.
//! DECOMP-TAIL breaks the same metered p2p runs down by service stage
//! (seal/open service time, wait/park time, ARQ repair latency).
//!
//! Alongside the tables the harness exports the raw snapshot for one
//! representative configuration per fabric: `metrics-tail-<net>.json`
//! (the versioned snapshot `tracecheck` audits like every `metrics-*`
//! file). When tracing is active the same run also writes
//! `trace-tail-<net>.json` with the histogram percentile
//! checkpoints merged in as Chrome counter tracks, and asserts the
//! seal/open conservation law: the recorder samples exactly once
//! per trace-ledger seal and open.

use empi_aead::profile::CryptoLibrary;
use empi_core::{FaultRates, PipelineConfig, SecureComm, SecurityConfig};
use empi_mpi::{Src, TagSel, TraceReport, World};
use empi_netsim::VDur;
use empi_trace::{CounterBlock, Metric, MetricsSnapshot, SloConfig};

use crate::chaos::LIBS;
use crate::common::{security_config, BenchOpts, Net};
use crate::table::Table;
use crate::tracing::write_artifacts;

/// Fixed seed: CI and reruns must see the identical fault schedule and
/// byte-identical snapshot exports.
pub const SEED: u64 = 0x7A11_BEEF_0000_0001;
/// Pipeline chunk size; the large p2p size and the alltoall block are
/// above it so the chunked (and chaos-instrumented) path runs.
pub const CHUNK: usize = 64 << 10;
/// Crypto worker cores per rank.
pub const WORKERS: usize = 2;
/// Per-event fault probability of the chaos-on rows.
pub const FAULT_RATE: f64 = 0.05;
/// Repair budget per message under chaos.
pub const MAX_RETRIES: u32 = 4;
/// p2p stream sizes — three size classes so the histograms spread.
pub const P2P_SIZES: [usize; 3] = [4 << 10, 64 << 10, 256 << 10];
/// Tag of the tail p2p stream.
pub const TAIL_TAG: u32 = 7;
/// Alltoall per-destination block (above one chunk, so pipelined).
pub const A2A_BLOCK: usize = 128 << 10;
/// Ranks of the alltoall exchange.
pub const A2A_RANKS: usize = 4;

/// The SLO watchdog armed on every tail run: p99 budgets a healthy run
/// meets comfortably, and a stall horizon past the ARQ recovery window
/// so parked repairs trip the flow-stall detector, not normal backoff.
fn slo_config() -> SloConfig {
    SloConfig::new()
        .p99("p2p/recv", 80_000_000)
        .p99("coll/", 400_000_000)
        .stall(50_000_000)
}

/// One metered run: merged snapshot plus delivery counts.
pub struct TailRun {
    /// Snapshot merged across ranks (empty when metrics compile out).
    pub snap: MetricsSnapshot,
    /// Messages (p2p) or exchanges (alltoall) delivered bit-exact.
    pub delivered: usize,
    /// Typed failures (budget exhausted / abort / timeout).
    pub failed: usize,
}

/// The security config of the tail runs: pipelined chunked crypto,
/// optionally with the seeded fault plan and the retransmit layer.
fn tail_config(net: Net, lib: CryptoLibrary, chaos: bool) -> SecurityConfig {
    let cfg = security_config(lib, net).with_pipeline(
        PipelineConfig::enabled()
            .with_chunk_size(CHUNK)
            .with_workers(WORKERS),
    );
    if chaos {
        cfg.with_faults(SEED, FaultRates::uniform(FAULT_RATE))
            .with_retransmit(MAX_RETRIES, VDur::from_micros(200))
    } else {
        cfg
    }
}

/// Drive the tail p2p stream: rank 0 cycles [`P2P_SIZES`] for `msgs`
/// messages, rank 1 receives (failures stay typed). Returns the run,
/// each rank's elapsed virtual seconds (the zero-overhead guard
/// compares these across metered/unmetered runs), and the trace report
/// when `traced`.
fn p2p_run(
    net: Net,
    lib: CryptoLibrary,
    chaos: bool,
    msgs: usize,
    metered: bool,
    traced: bool,
    shards: usize,
) -> (TailRun, Vec<f64>, Option<TraceReport>) {
    let mut world = World::flat(net.model(), 2)
        .with_shards(shards)
        .traced(traced);
    if metered {
        world = world.with_slo(slo_config());
    }
    let out = world.run(move |c| {
        let sc = SecureComm::new(c, tail_config(net, lib, chaos)).unwrap();
        let t0 = c.now();
        if c.rank() == 0 {
            for i in 0..msgs {
                let size = P2P_SIZES[i % P2P_SIZES.len()];
                let buf = vec![(i as u8).wrapping_mul(37) ^ 0x5A; size];
                sc.send(&buf, 1, TAIL_TAG);
            }
            if chaos {
                // NACK-only protocol: serve repairs for the receiver's
                // full recovery horizon after the last send.
                sc.pump(sc.recovery_window());
            }
            ((c.now() - t0).as_secs_f64(), msgs, 0usize, sc.chaos_stats())
        } else {
            let (mut delivered, mut failed) = (0usize, 0usize);
            for _ in 0..msgs {
                match sc.recv(Src::Is(0), TagSel::Is(TAIL_TAG)) {
                    Ok(_) => delivered += 1,
                    Err(_) => failed += 1,
                }
            }
            (
                (c.now() - t0).as_secs_f64(),
                delivered,
                failed,
                sc.chaos_stats(),
            )
        }
    });
    let secs = out.results.iter().map(|r| r.0).collect();
    let (_, _, _, tx) = out.results[0];
    let (_, delivered, failed, rx) = out.results[1];
    let mut snap = out.metrics.unwrap_or_default();
    if chaos && metered {
        snap.chaos = Some(CounterBlock::sum([tx.counters(), rx.counters()]));
    }
    (
        TailRun {
            snap,
            delivered,
            failed,
        },
        secs,
        out.trace,
    )
}

/// Drive `iters` pipelined alltoall exchanges over [`A2A_RANKS`] ranks
/// with per-destination blocks of [`A2A_BLOCK`] bytes; each exchange
/// is verified for shape and failures stay typed per rank.
fn a2a_run(net: Net, lib: CryptoLibrary, chaos: bool, iters: usize, shards: usize) -> TailRun {
    let world = World::flat(net.model(), A2A_RANKS)
        .with_shards(shards)
        .with_slo(slo_config());
    let out = world.run(move |c| {
        let sc = SecureComm::new(c, tail_config(net, lib, chaos)).unwrap();
        let (mut delivered, mut failed) = (0usize, 0usize);
        for i in 0..iters {
            let send: Vec<u8> = (0..A2A_BLOCK * A2A_RANKS)
                .map(|j| (j as u8) ^ (i as u8).wrapping_mul(97) ^ (c.rank() as u8))
                .collect();
            match sc.alltoall(&send, A2A_BLOCK) {
                Ok(recv) => {
                    assert_eq!(recv.len(), A2A_BLOCK * A2A_RANKS);
                    delivered += 1;
                }
                Err(_) => failed += 1,
            }
        }
        if chaos {
            sc.pump(sc.recovery_window());
        }
        (delivered, failed)
    });
    let (delivered, failed) = out
        .results
        .iter()
        .fold((0, 0), |(d, f), &(dd, ff)| (d + dd, f + ff));
    TailRun {
        snap: out.metrics.expect("metered world must snapshot"),
        delivered,
        failed,
    }
}

fn on_off(chaos: bool) -> &'static str {
    if chaos {
        "chaos on"
    } else {
        "chaos off"
    }
}

fn us(ns: u64) -> String {
    format!("{:.1}", ns as f64 / 1e3)
}

/// Build TAB-TAIL (latency percentiles per backend/op/chaos state) and
/// DECOMP-TAIL (tail decomposition by service stage) for one network,
/// and export the representative snapshot artifacts.
pub fn run_net(net: Net, opts: &BenchOpts) -> Vec<Table> {
    let msgs = if opts.quick { 9 } else { 18 };
    let iters = if opts.quick { 2 } else { 4 };

    let mut tab = Table::new(
        format!(
            "TAB-TAIL-{}: end-to-end latency percentiles, p2p stream ({} msgs, {}-{} KB) \
             and alltoall ({} x {} ranks x {} KB blocks), fault rate {:.2}, seed {:#x}, {}",
            net.name(),
            msgs,
            P2P_SIZES[0] >> 10,
            P2P_SIZES[2] >> 10,
            iters,
            A2A_RANKS,
            A2A_BLOCK >> 10,
            FAULT_RATE,
            SEED,
            net.name()
        ),
        "library / op",
        ["p50 us", "p99 us", "p999 us", "samples", "failed", "slo"]
            .iter()
            .map(|s| s.to_string())
            .collect(),
    );

    let mut decomp = Table::new(
        format!(
            "DECOMP-TAIL-{}: p2p tail decomposition by service stage, \
             fault rate {:.2}, seed {:#x}, {}",
            net.name(),
            FAULT_RATE,
            SEED,
            net.name()
        ),
        "library",
        [
            "seal p99 us",
            "open p99 us",
            "wait p99 us",
            "repair p99 us",
            "repairs",
            "e2e p999 us",
            "flow events",
            "slo",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect(),
    );

    for lib in LIBS {
        for chaos in [false, true] {
            let (p2p, _, _) = p2p_run(net, lib, chaos, msgs, true, false, opts.shards);
            let e2e = p2p.snap.merged(Metric::E2e, "p2p/recv");
            tab.push_row(
                format!("{} / p2p @ {}", lib.name(), on_off(chaos)),
                vec![
                    us(e2e.p50()),
                    us(e2e.p99()),
                    us(e2e.p999()),
                    format!("{}", e2e.count()),
                    format!("{}", p2p.failed),
                    p2p.snap.slo.verdict().to_string(),
                ],
            );

            let seal = p2p.snap.merged(Metric::Seal, "");
            let open = p2p.snap.merged(Metric::Open, "");
            let wait = p2p.snap.merged(Metric::Wait, "");
            let repair = p2p.snap.merged(Metric::Repair, "arq/repair");
            let flow_events: u64 = p2p.snap.per_rank.iter().map(|l| l.flow_events).sum();
            decomp.push_row(
                format!("{} @ {}", lib.name(), on_off(chaos)),
                vec![
                    us(seal.p99()),
                    us(open.p99()),
                    us(wait.p99()),
                    us(repair.p99()),
                    format!("{}", repair.count()),
                    us(e2e.p999()),
                    format!("{flow_events}"),
                    p2p.snap.slo.verdict().to_string(),
                ],
            );

            let a2a = a2a_run(net, lib, chaos, iters, opts.shards);
            let coll = a2a.snap.merged(Metric::E2e, "coll/alltoall");
            tab.push_row(
                format!("{} / alltoall @ {}", lib.name(), on_off(chaos)),
                vec![
                    us(coll.p50()),
                    us(coll.p99()),
                    us(coll.p999()),
                    format!("{}", coll.count()),
                    format!("{}", a2a.failed),
                    a2a.snap.slo.verdict().to_string(),
                ],
            );
        }
    }

    export_artifacts(net, opts, msgs);
    vec![tab, decomp]
}

/// Export the representative (BoringSSL, chaos on) p2p snapshot:
/// `metrics-tail-<net>.json`, and — when tracing is active —
/// `trace-tail-<net>.json` with percentile counter tracks, plus the
/// seal/open conservation assertion against the trace ledger.
fn export_artifacts(net: Net, opts: &BenchOpts, msgs: usize) {
    let lib = CryptoLibrary::BoringSsl;
    let (run, _, trace) = p2p_run(net, lib, true, msgs, true, opts.trace, opts.shards);
    if let Some(r) = &trace {
        // Conservation law: the recorder takes exactly one service
        // sample per trace-ledger seal and open. Fail the bench loudly
        // if instrumentation drifts.
        let seals: u64 = r.per_rank.iter().map(|m| m.seals).sum();
        let opens: u64 = r.per_rank.iter().map(|m| m.opens).sum();
        assert_eq!(
            run.snap.ledger_total(Metric::Seal),
            seals,
            "seal histogram samples must conserve against the trace ledger"
        );
        assert_eq!(
            run.snap.ledger_total(Metric::Open),
            opens,
            "open histogram samples must conserve against the trace ledger"
        );
    }
    let stem = format!("tail-{}", net.name().to_lowercase());
    write_artifacts(&opts.out_dir, &stem, &run.snap, trace.as_ref());
}

#[cfg(test)]
mod tests {
    use super::*;
    use empi_trace::export;

    #[test]
    fn tail_histograms_fill_and_conserve() {
        let (run, _, trace) = p2p_run(
            Net::Ethernet,
            CryptoLibrary::BoringSsl,
            true,
            9,
            true,
            true,
            1,
        );
        let e2e = run.snap.merged(Metric::E2e, "p2p/recv");
        assert!(e2e.count() > 0, "the stream must record recv latencies");
        assert!(e2e.p50() > 0, "virtual-time latencies are never zero");
        assert!(e2e.p999() >= e2e.p99() && e2e.p99() >= e2e.p50());
        let seal = run.snap.merged(Metric::Seal, "");
        assert!(seal.count() > 0, "seal service histogram must fill");
        if let Some(r) = trace {
            let seals: u64 = r.per_rank.iter().map(|m| m.seals).sum();
            let opens: u64 = r.per_rank.iter().map(|m| m.opens).sum();
            assert_eq!(run.snap.ledger_total(Metric::Seal), seals);
            assert_eq!(run.snap.ledger_total(Metric::Open), opens);
        }
    }

    #[test]
    fn metering_never_moves_virtual_time() {
        // The zero-overhead guard: a metered run must report the exact
        // same per-rank virtual times as the identical unmetered run
        // (recording happens outside the simulated clock).
        let on = p2p_run(
            Net::Ethernet,
            CryptoLibrary::BoringSsl,
            true,
            6,
            true,
            false,
            1,
        )
        .1;
        let off = p2p_run(
            Net::Ethernet,
            CryptoLibrary::BoringSsl,
            true,
            6,
            false,
            false,
            1,
        )
        .1;
        assert_eq!(on, off, "metrics must be invisible in virtual time");
    }

    #[test]
    fn snapshot_exports_are_byte_identical_for_fixed_seed() {
        let a = p2p_run(
            Net::Ethernet,
            CryptoLibrary::Libsodium,
            true,
            6,
            true,
            false,
            1,
        )
        .0;
        let b = p2p_run(
            Net::Ethernet,
            CryptoLibrary::Libsodium,
            true,
            6,
            true,
            false,
            1,
        )
        .0;
        assert_eq!(
            export::snapshot_json(&a.snap),
            export::snapshot_json(&b.snap),
            "fixed seed must export byte-identical JSON"
        );
    }

    #[test]
    fn delivery_failure_carries_black_box_naming_the_flow() {
        // A hostile fault rate with a starved repair budget forces at
        // least one typed delivery failure; its black box must name
        // the failing flow and carry recorded events.
        let world = World::flat(Net::Ethernet.model(), 2).with_metrics(true);
        let out = world.run(move |c| {
            let cfg = security_config(CryptoLibrary::BoringSsl, Net::Ethernet)
                .with_pipeline(
                    PipelineConfig::enabled()
                        .with_chunk_size(16 << 10)
                        .with_workers(2),
                )
                .with_faults(0xBAD_5EED, FaultRates::uniform(0.25))
                .with_retransmit(1, VDur::from_micros(50));
            let sc = SecureComm::new(c, cfg).unwrap();
            let msgs = 8;
            let buf = vec![0x3Cu8; 64 << 10];
            if c.rank() == 0 {
                for _ in 0..msgs {
                    sc.send(&buf, 1, 5);
                }
                sc.pump(sc.recovery_window());
                None
            } else {
                let mut first = None;
                for _ in 0..msgs {
                    if let Err(e) = sc.recv(Src::Is(0), TagSel::Is(5)) {
                        if first.is_none() {
                            let bb = e.black_box().expect("failure must carry a black box");
                            assert!(
                                e.to_string().contains("black box"),
                                "Display must include the report: {e}"
                            );
                            first = Some((bb.tag, bb.events.len()));
                        }
                    }
                }
                first
            }
        });
        let (tag, n_events) =
            out.results[1].expect("the seeded plan must fail at least one delivery");
        assert_eq!(tag, 5, "black box must name the failing flow's tag");
        assert!(n_events > 0, "black box must carry the flow's last events");
    }

    #[test]
    fn alltoall_tail_run_is_metered() {
        let run = a2a_run(Net::Ethernet, CryptoLibrary::BoringSsl, false, 2, 1);
        assert_eq!(run.failed, 0, "chaos-off alltoall must deliver everything");
        assert_eq!(run.delivered, 2 * A2A_RANKS);
        let coll = run.snap.merged(Metric::E2e, "coll/alltoall");
        assert_eq!(coll.count() as usize, 2 * A2A_RANKS);
        assert!(coll.p99() > 0);
    }

    #[test]
    fn tail_tables_render() {
        let opts = BenchOpts {
            quick: true,
            trace: false,
            out_dir: std::env::temp_dir().join("empi-tail-test"),
            ..BenchOpts::default()
        };
        let tables = run_net(Net::Ethernet, &opts);
        assert_eq!(tables.len(), 2);
        assert!(tables[0].title.starts_with("TAB-TAIL-Ethernet"));
        assert!(tables[1].title.starts_with("DECOMP-TAIL-Ethernet"));
        // Acceptance: nonzero tail percentiles for all four
        // backends, chaos on and off, p2p and alltoall.
        for (label, cells) in &tables[0].rows {
            assert_ne!(cells[1], "0.0", "p99 must be nonzero: {label}");
            assert_ne!(cells[2], "0.0", "p999 must be nonzero: {label}");
        }
    }
}
