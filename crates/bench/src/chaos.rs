//! Chaos / recovery benchmarks — TAB-CHAOS and DECOMP-RETRY (extension
//! beyond the paper).
//!
//! TAB-CHAOS streams pipelined encrypted messages through a seeded
//! fault plan (bit-flips, truncation, drops, duplication, jitter) at a
//! sweep of per-event rates and reports goodput plus the retransmit
//! layer's counters for all four crypto backends on both fabrics. The
//! rate-0 row doubles as the regression guard the issue asks for: with
//! the retransmit layer armed but no faults injected, the NACK-only
//! protocol must put **zero** control frames on the wire.
//!
//! DECOMP-RETRY breaks one backend's recovery cost down by fault rate:
//! injected faults, NACKs, resends, local salvages, aborts, and the
//! virtual time burned in backoff windows.

use empi_aead::profile::CryptoLibrary;
use empi_core::{ChaosStats, FaultRates, PipelineConfig, SecureComm};
use empi_mpi::{Src, TagSel, TraceReport, World};
use empi_netsim::VDur;
use empi_trace::{CounterBlock, Metric, MetricsSnapshot};

use crate::common::{security_config, BenchOpts, Net};
use crate::table::{size_label, Table};
use crate::tracing::{write_artifacts, write_trace};

/// Per-event fault probabilities swept by TAB-CHAOS. The 0 row is the
/// "retransmit layer armed but idle" regression point.
pub const FAULT_RATES: [f64; 4] = [0.0, 0.01, 0.05, 0.10];
/// Message size of the chaos stream: four 64 KB chunks, so drops and
/// flips hit individual frames and per-chunk NACK repair is exercised.
pub const MSG_SIZE: usize = 256 << 10;
/// Chunk size of the pipelined path under test.
pub const CHUNK: usize = 64 << 10;
/// Crypto worker cores per rank.
pub const WORKERS: usize = 2;
/// Fixed seed so CI and reruns see the identical fault schedule.
pub const SEED: u64 = 0xC0FF_EE00_D00D_5EED;
/// Repair budget per message (initial transmission + retries).
pub const MAX_RETRIES: u32 = 4;
/// The four backends of the study (the paper folds OpenSSL into the
/// BoringSSL row; the chaos sweep reports all four explicitly).
pub const LIBS: [CryptoLibrary; 4] = [
    CryptoLibrary::OpenSsl,
    CryptoLibrary::BoringSsl,
    CryptoLibrary::Libsodium,
    CryptoLibrary::CryptoPp,
];

/// Outcome of one chaos stream run.
#[derive(Debug, Clone, Copy)]
pub struct ChaosPoint {
    /// Receiver-side elapsed virtual seconds for the whole stream.
    pub secs: f64,
    /// Messages delivered bit-exact.
    pub delivered: usize,
    /// Messages that ended in a typed error (budget exhausted / abort).
    pub failed: usize,
    /// Plaintext bytes delivered bit-exact.
    pub bytes_ok: usize,
    /// Sender-side chaos counters (injections, resends, aborts).
    pub sender: ChaosStats,
    /// Receiver-side chaos counters (NACKs, salvages, backoff).
    pub receiver: ChaosStats,
    /// ARQ repair-latency percentiles (NACK round-trip until the
    /// message opened), from the metrics snapshot; zero when nothing
    /// needed repair.
    pub repair_p50_ns: u64,
    pub repair_p99_ns: u64,
    pub repair_p999_ns: u64,
    /// Successful repairs the percentiles are over.
    pub repairs: u64,
}

impl ChaosPoint {
    /// Goodput of correctly delivered plaintext, MB/s of virtual time.
    pub fn goodput_mb_s(&self) -> f64 {
        if self.secs <= 0.0 {
            return 0.0;
        }
        self.bytes_ok as f64 / self.secs / 1e6
    }
}

/// Drive `msgs` pipelined messages rank 0 → rank 1 through a seeded
/// fault plan at per-event probability `rate`, with the retransmit
/// layer armed. Every delivered message is checked bit-exact inside the
/// simulation; failures must be typed errors (panics would abort the
/// whole bench).
pub fn chaos_point(net: Net, lib: CryptoLibrary, rate: f64, msgs: usize, seed: u64) -> ChaosPoint {
    chaos_run(net, lib, rate, msgs, seed, false).0
}

/// A traced chaos stream: same run, returning the trace report (so the
/// `fault/*` / `retry/*` spans can be audited and `tracecheck`d) plus
/// the metrics snapshot with the folded retry counters attached.
pub fn chaos_trace(
    net: Net,
    lib: CryptoLibrary,
    rate: f64,
    msgs: usize,
    seed: u64,
) -> (TraceReport, MetricsSnapshot) {
    let (_, trace, snap) = chaos_run(net, lib, rate, msgs, seed, true);
    (trace.expect("traced run must yield a report"), snap)
}

fn chaos_run(
    net: Net,
    lib: CryptoLibrary,
    rate: f64,
    msgs: usize,
    seed: u64,
    traced: bool,
) -> (ChaosPoint, Option<TraceReport>, MetricsSnapshot) {
    let world = World::flat(net.model(), 2)
        .traced(traced)
        .with_metrics(true);
    let out = world.run(move |c| {
        let cfg = security_config(lib, net)
            .with_pipeline(
                PipelineConfig::enabled()
                    .with_chunk_size(CHUNK)
                    .with_workers(WORKERS),
            )
            .with_faults(seed, FaultRates::uniform(rate))
            .with_retransmit(MAX_RETRIES, VDur::from_micros(200));
        let sc = SecureComm::new(c, cfg).unwrap();
        let want: Vec<u8> = (0..MSG_SIZE)
            .map(|i| (i.wrapping_mul(131) ^ (i >> 7)) as u8)
            .collect();
        let t0 = c.now();
        if c.rank() == 0 {
            for _ in 0..msgs {
                sc.send(&want, 1, 9);
            }
            // NACK-only protocol: stay responsive for the receivers'
            // full repair horizon after the last send.
            sc.pump(sc.recovery_window());
            let secs = (c.now() - t0).as_secs_f64();
            (secs, msgs, 0usize, 0usize, sc.chaos_stats())
        } else {
            let mut delivered = 0usize;
            let mut failed = 0usize;
            let mut bytes_ok = 0usize;
            for _ in 0..msgs {
                match sc.recv(Src::Is(0), TagSel::Is(9)) {
                    Ok((_, data)) => {
                        assert_eq!(data, want, "chaos stream delivered corrupted plaintext");
                        bytes_ok += data.len();
                        delivered += 1;
                    }
                    Err(_) => failed += 1,
                }
            }
            let secs = (c.now() - t0).as_secs_f64();
            (secs, delivered, failed, bytes_ok, sc.chaos_stats())
        }
    });
    let (_, _, _, _, sender) = out.results[0];
    let (secs, delivered, failed, bytes_ok, receiver) = out.results[1];
    let mut snap = out.metrics.expect("metered world must snapshot");
    snap.chaos = Some(CounterBlock::sum([sender.counters(), receiver.counters()]));
    let repair = snap.merged(Metric::Repair, "arq/repair");
    (
        ChaosPoint {
            secs,
            delivered,
            failed,
            bytes_ok,
            sender,
            receiver,
            repair_p50_ns: repair.p50(),
            repair_p99_ns: repair.p99(),
            repair_p999_ns: repair.p999(),
            repairs: repair.count(),
        },
        out.trace,
        snap,
    )
}

/// The same stream with neither fault plan nor retransmit layer — the
/// reference the rate-0 row is compared against.
pub fn plain_secs(net: Net, lib: CryptoLibrary, msgs: usize) -> f64 {
    let world = World::flat(net.model(), 2);
    let out = world.run(move |c| {
        let cfg = security_config(lib, net).with_pipeline(
            PipelineConfig::enabled()
                .with_chunk_size(CHUNK)
                .with_workers(WORKERS),
        );
        let sc = SecureComm::new(c, cfg).unwrap();
        let buf = vec![0x7eu8; MSG_SIZE];
        let t0 = c.now();
        if c.rank() == 0 {
            for _ in 0..msgs {
                sc.send(&buf, 1, 9);
            }
        } else {
            for _ in 0..msgs {
                let (_, data) = sc.recv(Src::Is(0), TagSel::Is(9)).unwrap();
                assert_eq!(data.len(), MSG_SIZE);
            }
        }
        (c.now() - t0).as_secs_f64()
    });
    out.results[1]
}

/// Build TAB-CHAOS (goodput + retransmit counters vs fault rate, all
/// four backends) and DECOMP-RETRY (recovery decomposition by rate) for
/// one network.
pub fn run_net(net: Net, opts: &BenchOpts) -> Vec<Table> {
    let msgs = if opts.quick { 6 } else { 16 };

    let mut tab = Table::new(
        format!(
            "TAB-CHAOS-{}: goodput and retransmit counters vs injected fault rate, \
             {} x {} pipelined stream, {} KB chunks, {} workers, retries {}, seed {:#x}, {}",
            net.name(),
            msgs,
            size_label(MSG_SIZE),
            CHUNK >> 10,
            WORKERS,
            MAX_RETRIES,
            SEED,
            net.name()
        ),
        "library @ fault rate",
        [
            "goodput MB/s",
            "delivered",
            "failed",
            "retransmits",
            "NACKs",
            "salvages",
            "aborts",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect(),
    );

    let mut decomp = Table::new(
        format!(
            "DECOMP-RETRY-{}: BoringSSL recovery decomposition vs fault rate, \
             {} x {} stream, seed {:#x}, {}",
            net.name(),
            msgs,
            size_label(MSG_SIZE),
            SEED,
            net.name()
        ),
        "fault rate",
        [
            "faults injected",
            "NACKs sent",
            "resends",
            "salvages",
            "aborts",
            "backoff us",
            "repair p50 us",
            "repair p99 us",
            "repair p999 us",
            "failed msgs",
            "goodput MB/s",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect(),
    );

    for lib in LIBS {
        for &rate in &FAULT_RATES {
            let p = chaos_point(net, lib, rate, msgs, SEED);
            if rate == 0.0 {
                // The acceptance criterion, enforced on every bench
                // run: an armed but idle retransmit layer is silent.
                assert_eq!(
                    (p.sender, p.receiver),
                    (ChaosStats::default(), ChaosStats::default()),
                    "{}: retransmit layer must be free at fault rate 0",
                    lib.name()
                );
            }
            tab.push_row(
                format!("{} @ {:.2}", lib.name(), rate),
                vec![
                    format!("{:.1}", p.goodput_mb_s()),
                    format!("{}/{}", p.delivered, msgs),
                    format!("{}", p.failed),
                    format!("{}", p.sender.retransmits),
                    format!("{}", p.receiver.nacks_sent),
                    format!("{}", p.receiver.recoveries),
                    format!("{}", p.sender.aborts),
                ],
            );
            if lib == CryptoLibrary::BoringSsl {
                decomp.push_row(
                    format!("{rate:.2}"),
                    vec![
                        format!("{}", p.sender.faults_injected + p.receiver.faults_injected),
                        format!("{}", p.receiver.nacks_sent),
                        format!("{}", p.sender.retransmits),
                        format!("{}", p.receiver.recoveries),
                        format!("{}", p.sender.aborts),
                        format!("{:.1}", p.receiver.backoff_ns as f64 / 1e3),
                        format!("{:.1}", p.repair_p50_ns as f64 / 1e3),
                        format!("{:.1}", p.repair_p99_ns as f64 / 1e3),
                        format!("{:.1}", p.repair_p999_ns as f64 / 1e3),
                        format!("{}", p.failed),
                        format!("{:.1}", p.goodput_mb_s()),
                    ],
                );
            }
        }
    }

    let tables = vec![tab, decomp];
    if opts.trace {
        // One traced run at the top fault rate: the Chrome trace shows
        // the fault/* and retry/* spans interleaved with the pipeline
        // lanes, and `tracecheck` audits the written file. The same
        // run's metrics snapshot — retry counters folded in — goes out
        // as JSON + validated Prometheus for `--require-hist`.
        let (r, snap) = chaos_trace(net, CryptoLibrary::BoringSsl, 0.10, msgs, SEED);
        // This harness has always written its trace as the plain
        // Chrome document, without counter tracks; only the snapshot
        // goes through the shared writer.
        let stem = format!("chaos-{}", net.name().to_lowercase());
        write_trace(&r, &opts.out_dir, &format!("trace-{stem}"));
        write_artifacts(&opts.out_dir, &stem, &snap, None);
    }
    tables
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retransmit_layer_is_free_at_zero_fault_rate() {
        // Acceptance: fault rate 0 with the ARQ armed puts no NACK or
        // repair frames on the wire and costs (virtually) nothing next
        // to the identical stream without the layer.
        let msgs = 6;
        let p = chaos_point(Net::Ethernet, CryptoLibrary::BoringSsl, 0.0, msgs, SEED);
        assert_eq!(p.delivered, msgs);
        assert_eq!(p.failed, 0);
        assert_eq!(
            p.sender,
            ChaosStats::default(),
            "sender counters must stay zero"
        );
        assert_eq!(
            p.receiver,
            ChaosStats::default(),
            "receiver counters must stay zero"
        );
        let base = plain_secs(Net::Ethernet, CryptoLibrary::BoringSsl, msgs);
        let delta = (p.secs - base).abs() / base;
        assert!(
            delta < 0.05,
            "armed-but-idle ARQ must cost ~0: {:.3}s vs {:.3}s ({:.1}% off)",
            p.secs,
            base,
            delta * 100.0
        );
    }

    #[test]
    fn faults_force_recovery_and_stream_stays_typed() {
        // At a 10% per-event rate the seeded schedule must actually
        // exercise the repair machinery, and every message must end
        // bit-exact (asserted inside the closure) or typed-failed.
        let msgs = 12;
        let p = chaos_point(Net::Ethernet, CryptoLibrary::BoringSsl, 0.10, msgs, SEED);
        assert_eq!(p.delivered + p.failed, msgs, "no message may vanish");
        assert!(
            p.delivered > 0,
            "recovery must save at least part of the stream"
        );
        assert!(
            p.sender.faults_injected + p.receiver.faults_injected > 0,
            "the seeded plan must inject at this rate"
        );
        assert!(
            p.receiver.nacks_sent + p.receiver.recoveries > 0,
            "injected faults must trigger NACK repair or local salvage"
        );
    }

    #[test]
    fn chaos_tables_render_and_guard_rate_zero() {
        let opts = BenchOpts {
            quick: true,
            ..BenchOpts::default()
        };
        let tables = run_net(Net::Ethernet, &opts);
        assert_eq!(tables.len(), 2);
        assert!(tables[0].title.starts_with("TAB-CHAOS-Ethernet"));
        assert!(tables[1].title.starts_with("DECOMP-RETRY-Ethernet"));
    }
}
