//! Key-lifecycle benchmarks — TAB-REKEY and DECOMP-REKEY (extension
//! beyond the paper, powered by the `empi-keys` subsystem).
//!
//! The paper distributes one static key out of band and never rotates
//! it; TAB-REKEY prices the managed alternative: a seeded group
//! handshake at startup, then clock-derived epoch rotation rolling the
//! cipher state under a live pipelined p2p stream. Rows sweep the
//! rotation period from off to a 30 µs rekey storm for all four
//! backends, plus a 128-bit row at storm rate (the key schedule is the
//! only part of the hot path that rotation re-runs, so the AES-128 /
//! AES-256 gap isolates its cost). DECOMP-REKEY answers the rate
//! question — how many messages amortise one epoch roll — and adds a
//! revocation drill: one rank quarantined mid-run, survivors re-keyed,
//! the revoked rank's traffic rejected with typed errors.
//!
//! Alongside the tables the harness exports `metrics-rekey-<net>.json`
//! (snapshot with the recorder's `keys` counter block — audited by the
//! `metrics-rekey-` entry of `tracecheck`'s `CONTRACTS`). When tracing
//! is active the storm run also writes `trace-rekey-<net>.json`, whose
//! `key/*` spans the `trace-rekey-` entry audits.

use empi_aead::profile::{CryptoLibrary, KeySize};
use empi_core::{KeyPlaneConfig, PipelineConfig, SecureComm, SecurityConfig};
use empi_mpi::{Src, TagSel, TraceReport, World};
use empi_netsim::VDur;
use empi_trace::{Metric, MetricsSnapshot};

use crate::chaos::LIBS;
use crate::common::{BenchOpts, Net};
use crate::table::Table;
use crate::tracing::write_artifacts;

/// Fixed handshake seed: reruns must agree on the same session master
/// and export byte-identical snapshots.
pub const SEED: u64 = 0x4B45_59ED_0000_0007;
/// Pipeline chunk size; [`MSG_SIZE`] is above it so rotation has to
/// thread epochs through the chunked path, not just whole records.
pub const CHUNK: usize = 16 << 10;
/// Crypto worker cores per rank.
pub const WORKERS: usize = 2;
/// p2p stream message size.
pub const MSG_SIZE: usize = 32 << 10;
/// Tag of the rekey p2p stream.
pub const REKEY_TAG: u32 = 11;
/// Epoch drain half-width: generous, so every swept rotation period
/// keeps the in-flight window inside it and rotation stays transparent
/// (an undersized window degrades to typed `StaleEpoch` errors — that
/// regime is the chaos proptests' job, not the price list's).
pub const DRAIN: u64 = 32;
/// The slow rotation period (epochs outlive many messages).
pub const ROTATE_SLOW_US: u64 = 200;
/// The rekey-storm period (epochs roll faster than most messages).
pub const ROTATE_STORM_US: u64 = 30;

/// One metered key-plane run: merged snapshot and delivery counts.
pub struct RekeyRun {
    /// Snapshot merged across ranks, its `keys` block summed over
    /// ranks (each rank counts its own handshake, so a 2-rank world
    /// reports 2).
    pub snap: MetricsSnapshot,
    /// Messages delivered bit-exact.
    pub delivered: usize,
    /// Typed failures.
    pub failed: usize,
}

impl RekeyRun {
    /// Key-plane counter `name` of the run's snapshot.
    fn keys(&self, name: &str) -> u64 {
        let keys = self.snap.keys.as_ref();
        keys.expect("every rank handshakes").get(name)
    }
}

/// The security config of the rekey runs: key plane with the fixed
/// handshake seed, optional rotation, pipelined chunked crypto.
fn rekey_config(lib: CryptoLibrary, key: KeySize, rotate_us: Option<u64>) -> SecurityConfig {
    let mut kp = KeyPlaneConfig::new(SEED).with_drain(DRAIN);
    if let Some(us) = rotate_us {
        kp = kp.with_rotation(VDur::from_micros(us));
    }
    SecurityConfig::new(lib)
        .with_key_size(key)
        .with_key_plane(kp)
        .with_pipeline(
            PipelineConfig::enabled()
                .with_chunk_size(CHUNK)
                .with_workers(WORKERS),
        )
}

/// Drive the rekey p2p stream: rank 0 sends `msgs` messages of
/// [`MSG_SIZE`] bytes to rank 1 while epochs roll underneath. The
/// receiver verifies every payload — rotation must be invisible in the
/// plaintext stream.
fn stream_run(
    net: Net,
    lib: CryptoLibrary,
    key: KeySize,
    rotate_us: Option<u64>,
    msgs: usize,
    traced: bool,
    shards: usize,
) -> (RekeyRun, Option<TraceReport>) {
    let world = World::flat(net.model(), 2)
        .with_shards(shards)
        .with_metrics(true)
        .traced(traced);
    let out = world.run(move |c| {
        let sc = SecureComm::new(c, rekey_config(lib, key, rotate_us)).unwrap();
        if c.rank() == 0 {
            for i in 0..msgs {
                let buf = vec![(i as u8).wrapping_mul(29) ^ 0xA5; MSG_SIZE];
                sc.send(&buf, 1, REKEY_TAG);
            }
            (msgs, 0usize)
        } else {
            let (mut delivered, mut failed) = (0usize, 0usize);
            for i in 0..msgs {
                match sc.recv(Src::Is(0), TagSel::Is(REKEY_TAG)) {
                    Ok((_, data)) => {
                        assert_eq!(
                            data,
                            vec![(i as u8).wrapping_mul(29) ^ 0xA5; MSG_SIZE],
                            "rotation corrupted message {i}"
                        );
                        delivered += 1;
                    }
                    Err(_) => failed += 1,
                }
            }
            (delivered, failed)
        }
    });
    let (delivered, failed) = out.results[1];
    (
        RekeyRun {
            snap: out.metrics.unwrap_or_default(),
            delivered,
            failed,
        },
        out.trace,
    )
}

/// The revocation drill: three ranks handshake, the survivors (0, 1)
/// revoke rank 2 mid-run, keep exchanging under the re-keyed epoch, and
/// rank 2's subsequent send is rejected with a typed error on the
/// survivor side. Returns the run plus how many revoked-peer records
/// the survivors rejected.
fn revoke_run(net: Net, lib: CryptoLibrary, msgs: usize, shards: usize) -> RekeyRun {
    let world = World::flat(net.model(), 3)
        .with_shards(shards)
        .with_metrics(true);
    let out = world.run(move |c| {
        let sc = SecureComm::new(c, rekey_config(lib, KeySize::Aes256, None)).unwrap();
        let me = c.rank();
        let (mut delivered, mut failed) = (0usize, 0usize);
        if me == 2 {
            // The compromised rank: one pre-revocation message lands,
            // then (after the survivors revoke at the barrier) its
            // traffic is quarantined on the receive side.
            sc.send(&[0xEE; 512], 0, REKEY_TAG);
            c.barrier();
            sc.send(&[0xEE; 512], 0, REKEY_TAG + 1);
        } else {
            if me == 0 {
                sc.recv(Src::Is(2), TagSel::Is(REKEY_TAG)).unwrap();
            }
            c.barrier();
            sc.revoke(2).unwrap();
            if me == 0 && sc.recv(Src::Is(2), TagSel::Is(REKEY_TAG + 1)).is_err() {
                failed += 1;
            }
            // Survivor traffic flows under the re-keyed master.
            for i in 0..msgs {
                let buf = vec![(i as u8) ^ 0x3C; MSG_SIZE];
                if me == 0 {
                    sc.send(&buf, 1, REKEY_TAG);
                } else {
                    let (_, data) = sc.recv(Src::Is(0), TagSel::Is(REKEY_TAG)).unwrap();
                    assert_eq!(data, buf, "re-key corrupted survivor message {i}");
                    delivered += 1;
                }
            }
        }
        (delivered, failed)
    });
    RekeyRun {
        snap: out.metrics.unwrap_or_default(),
        delivered: out.results.iter().map(|r| r.0).sum(),
        failed: out.results.iter().map(|r| r.1).sum(),
    }
}

fn us(ns: u64) -> String {
    format!("{:.1}", ns as f64 / 1e3)
}

fn rotate_label(rotate_us: Option<u64>) -> String {
    match rotate_us {
        None => "rotate off".to_string(),
        Some(us) if us == ROTATE_STORM_US => format!("storm {us} us"),
        Some(us) => format!("rotate {us} us"),
    }
}

/// Build TAB-REKEY (rotation-period sweep × backends, plus the AES-128
/// storm row) and DECOMP-REKEY (message-rate amortisation sweep plus
/// the revocation drill) for one network, and export the snapshot
/// artifacts.
pub fn run_net(net: Net, opts: &BenchOpts) -> Vec<Table> {
    let msgs = if opts.quick { 8 } else { 16 };

    let mut tab = Table::new(
        format!(
            "TAB-REKEY-{}: seeded handshake + epoch rotation under a pipelined p2p \
             stream ({} x {} KB msgs), drain {}, seed {:#x}, {}",
            net.name(),
            msgs,
            MSG_SIZE >> 10,
            DRAIN,
            SEED,
            net.name()
        ),
        "library / rotation",
        [
            "p50 us",
            "p99 us",
            "hs p99 us",
            "rekeys",
            "delivered",
            "failed",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect(),
    );

    let sweep = [None, Some(ROTATE_SLOW_US), Some(ROTATE_STORM_US)];
    for lib in LIBS {
        for rotate in sweep {
            let (run, _) = stream_run(net, lib, KeySize::Aes256, rotate, msgs, false, opts.shards);
            push_stream_row(
                &mut tab,
                &format!("{} / {}", lib.name(), rotate_label(rotate)),
                &run,
            );
            if rotate.is_none() {
                assert_eq!(
                    run.keys("rekeys"),
                    0,
                    "epochs must not roll with rotation off"
                );
            }
        }
        // The storm re-runs the key schedule on every roll; the 128-bit
        // row isolates the schedule's share of the rotation cost
        // (Libsodium's AES-GCM is 256-bit only, so it has no row).
        if lib.supports(KeySize::Aes128).is_ok() {
            let (run, _) = stream_run(
                net,
                lib,
                KeySize::Aes128,
                Some(ROTATE_STORM_US),
                msgs,
                false,
                opts.shards,
            );
            push_stream_row(
                &mut tab,
                &format!("{} / aes128 @ storm {ROTATE_STORM_US} us", lib.name()),
                &run,
            );
        }
    }

    let mut decomp = Table::new(
        format!(
            "DECOMP-REKEY-{}: messages per epoch roll vs rotation cost (BoringSSL, \
             storm {} us) and the revocation drill, seed {:#x}, {}",
            net.name(),
            ROTATE_STORM_US,
            SEED,
            net.name()
        ),
        "run",
        [
            "rekeys",
            "revocations",
            "msgs/epoch",
            "e2e p99 us",
            "hs p99 us",
            "key p99 us",
            "rejects",
            "failed",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect(),
    );

    for rate in [msgs / 2, msgs, msgs * 2] {
        let (run, _) = stream_run(
            net,
            CryptoLibrary::BoringSsl,
            KeySize::Aes256,
            Some(ROTATE_STORM_US),
            rate,
            false,
            opts.shards,
        );
        decomp.push_row(
            format!("storm / {rate} msgs"),
            decomp_cells(&run, Some(rate)),
        );
    }
    let drill = revoke_run(net, CryptoLibrary::BoringSsl, msgs / 2, opts.shards);
    assert!(drill.keys("revocations") > 0, "the drill must revoke");
    assert!(
        drill.keys("rejected_revoked") > 0,
        "the revoked rank's traffic must be rejected"
    );
    decomp.push_row("revocation drill".to_string(), decomp_cells(&drill, None));

    export_artifacts(net, opts, msgs);
    vec![tab, decomp]
}

fn push_stream_row(tab: &mut Table, label: &str, run: &RekeyRun) {
    let e2e = run.snap.merged(Metric::E2e, "p2p/recv");
    let hs = run.snap.merged(Metric::Key, "key/handshake");
    tab.push_row(
        label.to_string(),
        vec![
            us(e2e.p50()),
            us(e2e.p99()),
            us(hs.p99()),
            format!("{}", run.keys("rekeys")),
            format!("{}", run.delivered),
            format!("{}", run.failed),
        ],
    );
}

fn decomp_cells(run: &RekeyRun, msgs: Option<usize>) -> Vec<String> {
    let e2e = run.snap.merged(Metric::E2e, "p2p/recv");
    let hs = run.snap.merged(Metric::Key, "key/handshake");
    let key = run.snap.merged(Metric::Key, "");
    let rejects =
        run.keys("rejected_stale") + run.keys("rejected_future") + run.keys("rejected_revoked");
    let per_epoch = match (msgs, run.keys("rekeys")) {
        (Some(m), r) if r > 0 => format!("{:.1}", m as f64 / r as f64),
        _ => "-".to_string(),
    };
    vec![
        format!("{}", run.keys("rekeys")),
        format!("{}", run.keys("revocations")),
        per_epoch,
        us(e2e.p99()),
        us(hs.p99()),
        us(key.p99()),
        format!("{rejects}"),
        format!("{}", run.failed),
    ]
}

/// Export the representative (BoringSSL, storm) snapshot:
/// `metrics-rekey-<net>.json` with its `keys` counter block, and — when
/// tracing is active — `trace-rekey-<net>.json` whose `key/*` spans
/// the `trace-rekey-` contract audits.
fn export_artifacts(net: Net, opts: &BenchOpts, msgs: usize) {
    let (run, trace) = stream_run(
        net,
        CryptoLibrary::BoringSsl,
        KeySize::Aes256,
        Some(ROTATE_STORM_US),
        msgs,
        opts.trace,
        opts.shards,
    );
    let stem = format!("rekey-{}", net.name().to_lowercase());
    write_artifacts(&opts.out_dir, &stem, &run.snap, trace.as_ref());
}

#[cfg(test)]
mod tests {
    use super::*;
    use empi_trace::export;

    #[test]
    fn storm_rolls_epochs_and_stays_bit_exact() {
        let (run, _) = stream_run(
            Net::Ethernet,
            CryptoLibrary::BoringSsl,
            KeySize::Aes256,
            Some(ROTATE_STORM_US),
            10,
            false,
            1,
        );
        // stream_run's receiver asserts bit-exactness; here we check
        // rotation actually happened and nothing was rejected.
        assert!(run.keys("rekeys") > 0, "the storm must roll epochs");
        assert_eq!(run.keys("handshakes"), 2, "one handshake per rank");
        assert_eq!((run.delivered, run.failed), (10, 0));
    }

    #[test]
    fn rotation_off_rolls_nothing() {
        let (run, _) = stream_run(
            Net::Ethernet,
            CryptoLibrary::Libsodium,
            KeySize::Aes256,
            None,
            6,
            false,
            1,
        );
        assert_eq!(run.keys("rekeys"), 0);
        assert_eq!((run.delivered, run.failed), (6, 0));
    }

    #[test]
    fn snapshot_carries_key_counters_and_validates() {
        let (run, _) = stream_run(
            Net::Ethernet,
            CryptoLibrary::BoringSsl,
            KeySize::Aes256,
            Some(ROTATE_STORM_US),
            8,
            false,
            1,
        );
        let json = export::snapshot_json(&run.snap);
        assert!(json.contains("\"keys\":{\"handshakes\":2"), "json: {json}");
        assert!(json.contains("\"rekeys\":"), "json: {json}");
        let hs = run.snap.merged(Metric::Key, "key/handshake");
        assert_eq!(hs.count(), 2, "handshake latency histogram must fill");
        assert!(hs.p99() > 0);
    }

    #[test]
    fn revocation_drill_quarantines_and_rekeys() {
        let run = revoke_run(Net::Ethernet, CryptoLibrary::BoringSsl, 4, 1);
        // Both survivors count the revocation; only rank 0 sees (and
        // rejects) the revoked rank's post-quarantine record.
        assert_eq!(run.keys("revocations"), 2);
        assert_eq!(run.keys("rejected_revoked"), 1);
        assert_eq!(run.failed, 1, "the quarantined send must fail typed");
        assert_eq!(run.delivered, 4, "survivor traffic must flow re-keyed");
    }

    #[test]
    fn rekey_tables_render() {
        let opts = BenchOpts {
            quick: true,
            trace: false,
            out_dir: std::env::temp_dir().join("empi-rekey-test"),
            ..BenchOpts::default()
        };
        let tables = run_net(Net::Ethernet, &opts);
        assert_eq!(tables.len(), 2);
        assert!(tables[0].title.starts_with("TAB-REKEY-Ethernet"));
        assert!(tables[1].title.starts_with("DECOMP-REKEY-Ethernet"));
        // Each lib: 3 rotation points, plus a storm row per
        // 128-bit-capable lib (all but Libsodium).
        let aes128_rows = LIBS
            .iter()
            .filter(|l| l.supports(KeySize::Aes128).is_ok())
            .count();
        assert_eq!(tables[0].rows.len(), 3 * LIBS.len() + aes128_rows);
        for (label, cells) in &tables[0].rows {
            assert_ne!(cells[1], "0.0", "p99 must be nonzero: {label}");
            assert_eq!(cells[5], "0", "nothing may fail in a clean run: {label}");
        }
    }
}
