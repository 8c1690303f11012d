//! Pipelined-crypto benchmark — FIG-PIPELINE-CHUNK / FIG-PIPELINE-WORKERS.
//!
//! An extension beyond the paper (§VII future work; CryptMPI direction):
//! the same rendezvous ping-pong as FIG-3/FIG-10, but the encrypted runs
//! optionally split each message into chunks sealed/opened on a pool of
//! simulated crypto worker cores, so encryption of chunk k+1 overlaps
//! the wire transfer of chunk k. Reported is the overhead of each
//! configuration relative to the unencrypted baseline, in percent —
//! directly comparable to the paper's sequential overhead numbers
//! (e.g. BoringSSL 78.3 % at 2 MB on Ethernet).

use empi_aead::profile::CryptoLibrary;
use empi_core::{PipelineConfig, SecurityConfig};
use empi_mpi::TraceReport;

use crate::common::{BenchOpts, Net};
use crate::pingpong::pingpong_run;
use crate::stats::overhead_percent_of_mbs;
use crate::table::{size_label, Table};
use crate::tracing::{decomp_cells, decomp_columns, write_trace};

/// Message sizes swept: the paper's large-message band, 64 KB – 2 MB.
pub const SIZES: [usize; 4] = [64 << 10, 256 << 10, 1 << 20, 2 << 20];
/// Chunk sizes swept at a fixed 4 workers.
pub const CHUNK_SIZES: [usize; 4] = [16 << 10, 32 << 10, 64 << 10, 256 << 10];
/// Worker counts swept at the default 64 KB chunk size.
pub const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Build the chunk-size sweep (FIG-PIPELINE-CHUNK) and worker-count
/// sweep (FIG-PIPELINE-WORKERS) for one network.
pub fn run_net(net: Net, opts: &BenchOpts) -> Vec<Table> {
    let iters_for = |size: usize| -> usize {
        let base = if size < (1 << 20) { 100 } else { 50 };
        if opts.quick {
            base / 10
        } else {
            base
        }
    };
    let mbs = |cfg: Option<SecurityConfig>, size: usize| -> f64 {
        pingpong_run(net, cfg, size, iters_for(size), false, opts.shards).value
    };
    let baseline: Vec<f64> = SIZES.iter().map(|&s| mbs(None, s)).collect();
    let base_for = |size: usize| -> f64 {
        baseline[SIZES
            .iter()
            .position(|&s| s == size)
            .expect("size not in SIZES")]
    };
    let cell = |lib: CryptoLibrary, pipeline: PipelineConfig, size: usize| -> String {
        let cfg = SecurityConfig::new(lib).with_pipeline(pipeline);
        format!(
            "{:.1}",
            overhead_percent_of_mbs(base_for(size), mbs(Some(cfg), size))
        )
    };

    let mut tables = Vec::new();

    // Chunk-size sweep, BoringSSL, 4 workers. The "sequential" column is
    // the paper's unchunked path and doubles as the reference the
    // acceptance check compares against.
    let mut cols = vec!["sequential".to_string()];
    cols.extend(
        CHUNK_SIZES
            .iter()
            .map(|&c| format!("{} chunks", size_label(c))),
    );
    let mut t = Table::new(
        format!(
            "FIG-PIPELINE-CHUNK-{}: BoringSSL ping-pong overhead vs unencrypted (%), \
             4 workers, by chunk size, {}",
            net.name(),
            net.name()
        ),
        "size",
        cols,
    );
    for &s in &SIZES {
        let mut cells = vec![cell(
            CryptoLibrary::BoringSsl,
            PipelineConfig::disabled(),
            s,
        )];
        for &c in &CHUNK_SIZES {
            cells.push(cell(
                CryptoLibrary::BoringSsl,
                PipelineConfig::enabled().with_chunk_size(c).with_workers(4),
                s,
            ));
        }
        t.push_row(size_label(s), cells);
    }
    tables.push(t);

    // Worker-count sweep at the default 64 KB chunks. CryptoPP is the
    // interesting row: its crypto is so slow that the pipeline stays
    // compute-bound until several workers are available.
    let mut cols = vec!["sequential".to_string()];
    cols.extend(WORKER_COUNTS.iter().map(|&w| {
        if w == 1 {
            "1 worker".to_string()
        } else {
            format!("{w} workers")
        }
    }));
    let mut t = Table::new(
        format!(
            "FIG-PIPELINE-WORKERS-{}: ping-pong overhead vs unencrypted (%), \
             64 KB chunks, by worker count, {}",
            net.name(),
            net.name()
        ),
        "library / size",
        cols,
    );
    for lib in [
        CryptoLibrary::BoringSsl,
        CryptoLibrary::Libsodium,
        CryptoLibrary::CryptoPp,
    ] {
        for &s in &[256 << 10, 2 << 20] {
            let mut cells = vec![cell(lib, PipelineConfig::disabled(), s)];
            for &w in &WORKER_COUNTS {
                cells.push(cell(lib, PipelineConfig::enabled().with_workers(w), s));
            }
            t.push_row(format!("{} {}", lib.name(), size_label(s)), cells);
        }
    }
    tables.push(t);

    if opts.trace {
        tables.push(decomposition_net(net, opts));
    }
    tables
}

/// Per-size decomposition of the pipelined BoringSSL ping-pong
/// (`--trace`). The overlap signature to look for: "est overhead %"
/// stays near the sequential prediction (crypto work still happens, on
/// worker lanes) while the measured tables above show a much smaller
/// overhead (it no longer extends the critical path). Also writes the
/// Chrome trace of the largest size to
/// `<out_dir>/trace-pipeline-<net>.json` — open it to see the per-chunk
/// `pipe/seal` / `pipe/open` spans on the "rank r crypto-core w" lanes.
pub fn decomposition_net(net: Net, opts: &BenchOpts) -> Table {
    let iters = if opts.quick { 2 } else { 6 };
    let pipeline = PipelineConfig::enabled().with_workers(4);
    let mut t = Table::new(
        format!(
            "DECOMP-PIPE-{}: BoringSSL pipelined ping-pong decomposition per iteration (us), \
             64 KB chunks, 4 workers, {}",
            net.name(),
            net.name()
        ),
        "size",
        decomp_columns(),
    );
    let mut last: Option<TraceReport> = None;
    for &s in &SIZES {
        let cfg = SecurityConfig::new(CryptoLibrary::BoringSsl).with_pipeline(pipeline);
        let r = pingpong_run(net, Some(cfg), s, iters, true, opts.shards).report();
        t.push_row(size_label(s), decomp_cells(&r, iters as f64));
        last = Some(r);
    }
    if let Some(r) = last {
        let stem = format!("trace-pipeline-{}", net.name().to_lowercase());
        write_trace(&r, &opts.out_dir, &stem);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_pipeline_is_bit_identical_to_sequential() {
        // Acceptance check: pipelining off must reproduce the sequential
        // path exactly — same virtual end time, hence bit-identical
        // throughput (the simulation is deterministic).
        let cfg = SecurityConfig::new(CryptoLibrary::BoringSsl);
        let off = cfg.clone().with_pipeline(PipelineConfig::disabled());
        let seq = pingpong_run(Net::Ethernet, Some(cfg), 256 << 10, 4, false, 1).value;
        let off = pingpong_run(Net::Ethernet, Some(off), 256 << 10, 4, false, 1).value;
        assert_eq!(seq.to_bits(), off.to_bits(), "seq {seq} vs disabled {off}");
    }

    #[test]
    fn oversized_chunk_is_bit_identical_to_sequential() {
        // chunk ≥ message: the sender never chunks and the receiver's
        // wire-format dispatch must charge exactly like the plain path.
        let cfg = SecurityConfig::new(CryptoLibrary::Libsodium);
        let one = cfg.clone().with_pipeline(
            PipelineConfig::enabled()
                .with_chunk_size(1 << 22)
                .with_workers(4),
        );
        let seq = pingpong_run(Net::Infiniband, Some(cfg), 256 << 10, 4, false, 1).value;
        let one = pingpong_run(Net::Infiniband, Some(one), 256 << 10, 4, false, 1).value;
        assert_eq!(seq.to_bits(), one.to_bits(), "seq {seq} vs one-chunk {one}");
    }

    #[test]
    fn four_workers_reach_90pct_of_ethernet_baseline() {
        // Acceptance check: BoringSSL, 2 MB, Ethernet, 4 workers — the
        // pipelined encrypted ping-pong must reach ≥ 90 % of the
        // unencrypted baseline (vs ~56 % sequential, paper's 78.3 %
        // overhead).
        let size = 2 << 20;
        let base = pingpong_run(Net::Ethernet, None, size, 10, false, 1).value;
        let cfg = SecurityConfig::new(CryptoLibrary::BoringSsl)
            .with_pipeline(PipelineConfig::enabled().with_workers(4));
        let enc = pingpong_run(Net::Ethernet, Some(cfg), size, 10, false, 1).value;
        assert!(
            enc >= 0.90 * base,
            "pipelined {enc:.0} MB/s below 90% of baseline {base:.0} MB/s"
        );
    }

    #[test]
    fn workers_collapse_cryptopp_overhead() {
        // CryptoPP is compute-bound: each extra worker must strictly
        // help, and even one worker beats the sequential path (its
        // seals already overlap the wire).
        let size = 2 << 20;
        let base = pingpong_run(Net::Ethernet, None, size, 6, false, 1).value;
        let ov = |p: PipelineConfig| {
            let cfg = SecurityConfig::new(CryptoLibrary::CryptoPp).with_pipeline(p);
            overhead_percent_of_mbs(
                base,
                pingpong_run(Net::Ethernet, Some(cfg), size, 6, false, 1).value,
            )
        };
        let seq = ov(PipelineConfig::disabled());
        let w1 = ov(PipelineConfig::enabled().with_workers(1));
        let w4 = ov(PipelineConfig::enabled().with_workers(4));
        assert!(w1 < seq, "1 worker {w1:.0}% must beat sequential {seq:.0}%");
        assert!(w4 < w1, "4 workers {w4:.0}% must beat 1 worker {w1:.0}%");
    }

    #[test]
    fn traced_pipeline_shows_overlap_not_addition() {
        use crate::tracing::est_overhead_percent;
        // The decomposition still accounts the full crypto work (est
        // overhead stays high), yet the measured overhead is small:
        // crypto is overlapped with the wire, not added to it.
        let size = 2 << 20;
        let iters = 4;
        let cfg = SecurityConfig::new(CryptoLibrary::BoringSsl)
            .with_pipeline(PipelineConfig::enabled().with_workers(4));
        let r = pingpong_run(Net::Ethernet, Some(cfg.clone()), size, iters, true, 1).report();
        let d = r.decomposition();
        assert!(d.crypto_ns > 0, "crypto work must be traced");
        let est = est_overhead_percent(&d);
        assert!(
            est > 40.0,
            "est (serialized) overhead {est:.1}% should stay high"
        );
        let base = pingpong_run(Net::Ethernet, None, size, iters, false, 1).value;
        let enc = pingpong_run(Net::Ethernet, Some(cfg), size, iters, false, 1).value;
        let measured = overhead_percent_of_mbs(base, enc);
        assert!(
            measured < 15.0,
            "measured overhead {measured:.1}% should collapse"
        );
        // Byte conservation holds on the chunked path, and the pipeline
        // lanes carry the per-chunk spans.
        for ((s, dst), f) in &r.pairs {
            assert_eq!(f.tx_bytes, f.rx_bytes, "pair {s}->{dst}");
        }
        assert!(r.events.iter().any(|e| e.name == "pipe/seal"));
        assert!(r.events.iter().any(|e| e.name == "pipe/open"));
        assert_eq!(r.dropped_events, 0);
    }
}
