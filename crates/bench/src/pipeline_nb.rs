//! Nonblocking-p2p and collective crypto-pipelining benchmarks —
//! FIG-PIPELINE-NB / TAB-PIPELINE-COLL (extension beyond the paper).
//!
//! FIG-PIPELINE-NB drives the chunked multi-core offload through the
//! nonblocking path the paper's applications actually use: both ranks
//! post `isend` + `irecv` and decryption happens inside `wait`, exactly
//! where CryptMPI places it. TAB-PIPELINE-COLL runs the pipelined
//! collectives (`Encrypted_Bcast`, `Encrypted_Alltoall`,
//! `Encrypted_Alltoallv`) against both the unencrypted transport and the
//! paper's sequential encrypted path, so the table directly answers
//! "how much of the sequential collective overhead does chunked
//! pipelining recover?" — at 2 MB on Ethernet the sequential bcast and
//! alltoall overheads must drop materially.

use empi_aead::profile::CryptoLibrary;
use empi_core::{PipelineConfig, SecureComm, SecurityConfig};
use empi_mpi::{Src, TagSel, TraceReport, World};

use crate::collectives::collective_run;
use crate::common::{BenchOpts, Net};
use crate::frame::{Coll, Run};
use crate::stats::overhead_percent;
use crate::table::{size_label, Table};
use crate::tracing::{decomp_cells, decomp_columns, write_trace};

/// Message sizes swept by the nonblocking exchange: the paper's
/// large-message band, 64 KB – 2 MB.
pub const SIZES: [usize; 4] = [64 << 10, 256 << 10, 1 << 20, 2 << 20];
/// Collective message / block sizes (2 MB is the acceptance point).
pub const COLL_SIZES: [usize; 2] = [256 << 10, 2 << 20];
/// Ranks for the collective table (one rank per node).
pub const COLL_RANKS: usize = 4;
/// Crypto worker cores per rank in the pipelined configurations.
pub const WORKERS: usize = 4;

/// Pipelined collectives measured by TAB-PIPELINE-COLL, in table order.
pub const COLLS: [Coll; 3] = [Coll::Bcast, Coll::Alltoall, Coll::Alltoallv];

/// One bidirectional nonblocking exchange run: both ranks isend to each
/// other, then wait the irecv (decrypting chunked trains inside `wait`)
/// and the isend. Returns rank 0's mean virtual seconds per iteration
/// plus, when `traced`, the trace report. `cfg == None` is the
/// unencrypted baseline; the two arms stay apart for the reason given
/// at `multipair::run_pairs`.
pub(crate) fn nb_run(
    net: Net,
    cfg: Option<SecurityConfig>,
    size: usize,
    iters: usize,
    traced: bool,
    shards: usize,
) -> Run {
    let world = World::flat(net.model(), 2)
        .with_shards(shards)
        .traced(traced);
    let out = world.run(|c| {
        let buf = vec![0x6bu8; size];
        let peer = 1 - c.rank();
        match &cfg {
            None => {
                let t0 = c.now();
                for _ in 0..iters {
                    let s = c.isend(&buf, peer, 0);
                    let r = c.irecv(Src::Is(peer), TagSel::Is(0));
                    let _ = c.wait(r);
                    let _ = c.wait(s);
                }
                (c.now() - t0).as_secs_f64()
            }
            Some(cfg) => {
                let sc = SecureComm::new(c, cfg.clone()).unwrap();
                let t0 = c.now();
                for _ in 0..iters {
                    let s = sc.isend(&buf, peer, 0);
                    let r = sc.irecv(Src::Is(peer), TagSel::Is(0));
                    sc.wait(r).unwrap();
                    sc.wait(s).unwrap();
                }
                (c.now() - t0).as_secs_f64()
            }
        }
    });
    Run {
        value: out.results[0] / iters as f64,
        trace: out.trace,
    }
}

/// Build FIG-PIPELINE-NB (nonblocking exchange, sequential vs pipelined
/// overhead) and TAB-PIPELINE-COLL (pipelined collectives) for one
/// network.
pub fn run_net(net: Net, opts: &BenchOpts) -> Vec<Table> {
    let pipelined = PipelineConfig::enabled().with_workers(WORKERS);
    let nb_iters = |size: usize| -> usize {
        let base = if size < (1 << 20) { 40 } else { 20 };
        if opts.quick {
            base / 10
        } else {
            base
        }
    };
    let config = |lib: CryptoLibrary, pipeline: PipelineConfig| {
        Some(SecurityConfig::new(lib).with_pipeline(pipeline))
    };
    let nb_secs = |cfg: Option<SecurityConfig>, size: usize| -> f64 {
        nb_run(net, cfg, size, nb_iters(size), false, opts.shards).value
    };

    // FIG-PIPELINE-NB: isend/irecv/wait exchange overhead vs the
    // unencrypted nonblocking baseline, fast (BoringSSL) and slow
    // (CryptoPP) library, sequential vs 4-worker pipelined.
    let mut fig = Table::new(
        format!(
            "FIG-PIPELINE-NB-{}: nonblocking exchange overhead vs unencrypted (%), \
             isend/irecv/wait, 64 KB chunks, {} workers, {}",
            net.name(),
            WORKERS,
            net.name()
        ),
        "size",
        [
            "BoringSSL sequential",
            "BoringSSL pipelined",
            "CryptoPP sequential",
            "CryptoPP pipelined",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect(),
    );
    for &s in &SIZES {
        let base = nb_secs(None, s);
        let cell = |lib: CryptoLibrary, p: PipelineConfig| -> String {
            format!("{:.1}", overhead_percent(base, nb_secs(config(lib, p), s)))
        };
        fig.push_row(
            size_label(s),
            vec![
                cell(CryptoLibrary::BoringSsl, PipelineConfig::disabled()),
                cell(CryptoLibrary::BoringSsl, pipelined),
                cell(CryptoLibrary::CryptoPp, PipelineConfig::disabled()),
                cell(CryptoLibrary::CryptoPp, pipelined),
            ],
        );
    }

    // TAB-PIPELINE-COLL: per-collective overhead of the sequential and
    // pipelined encrypted paths vs the unencrypted transport.
    let coll_iters = if opts.quick { 1 } else { 2 };
    let mut tab = Table::new(
        format!(
            "TAB-PIPELINE-COLL-{}: BoringSSL collective overhead vs unencrypted (%), \
             {} ranks, 64 KB chunks, {} workers, {}",
            net.name(),
            COLL_RANKS,
            WORKERS,
            net.name()
        ),
        "collective / size",
        ["sequential", "pipelined"]
            .iter()
            .map(|s| s.to_string())
            .collect(),
    );
    for op in COLLS {
        for &s in &COLL_SIZES {
            let us = |cfg: Option<SecurityConfig>| -> f64 {
                collective_run(
                    net,
                    cfg,
                    op,
                    s,
                    COLL_RANKS,
                    COLL_RANKS,
                    coll_iters,
                    false,
                    opts.shards,
                )
                .value
            };
            let base = us(None);
            let seq = us(config(CryptoLibrary::BoringSsl, PipelineConfig::disabled()));
            let pip = us(config(CryptoLibrary::BoringSsl, pipelined));
            tab.push_row(
                format!("{} {}", op.name(), size_label(s)),
                vec![
                    format!("{:.1}", overhead_percent(base, seq)),
                    format!("{:.1}", overhead_percent(base, pip)),
                ],
            );
        }
    }

    let mut tables = vec![fig, tab];
    if opts.trace {
        tables.extend(decomposition_net(net, opts));
    }
    tables
}

/// `--trace` decompositions: per-size for the pipelined nonblocking
/// exchange, per-collective at the 2 MB acceptance point. The Chrome
/// traces of the largest exchange and of the pipelined bcast are written
/// to `<out_dir>/trace-pipeline-nb-<net>.json` and
/// `<out_dir>/trace-pipeline-coll-<net>.json` — the per-chunk
/// `pipe/seal` / `pipe/open` spans sit on the "rank r crypto-core w"
/// lanes.
pub fn decomposition_net(net: Net, opts: &BenchOpts) -> Vec<Table> {
    let pipelined = SecurityConfig::new(CryptoLibrary::BoringSsl)
        .with_pipeline(PipelineConfig::enabled().with_workers(WORKERS));
    let iters = if opts.quick { 2 } else { 4 };

    let mut nb = Table::new(
        format!(
            "DECOMP-PIPE-NB-{}: BoringSSL pipelined nonblocking exchange decomposition \
             per iteration (us), 64 KB chunks, {} workers, {}",
            net.name(),
            WORKERS,
            net.name()
        ),
        "size",
        decomp_columns(),
    );
    let mut last: Option<TraceReport> = None;
    for &s in &SIZES {
        let r = nb_run(net, Some(pipelined.clone()), s, iters, true, opts.shards).report();
        nb.push_row(size_label(s), decomp_cells(&r, iters as f64));
        last = Some(r);
    }
    if let Some(r) = last {
        let stem = format!("trace-pipeline-nb-{}", net.name().to_lowercase());
        write_trace(&r, &opts.out_dir, &stem);
    }

    let size = 2 << 20;
    let mut coll = Table::new(
        format!(
            "DECOMP-PIPE-COLL-{}: BoringSSL pipelined collective decomposition per op (us), \
             2MB, {} ranks, {} workers, {}",
            net.name(),
            COLL_RANKS,
            WORKERS,
            net.name()
        ),
        "collective",
        decomp_columns(),
    );
    let mut bcast_report: Option<TraceReport> = None;
    for op in COLLS {
        let cfg = Some(pipelined.clone());
        let run = collective_run(
            net,
            cfg,
            op,
            size,
            COLL_RANKS,
            COLL_RANKS,
            1,
            true,
            opts.shards,
        );
        let r = run.report();
        coll.push_row(op.name().to_string(), decomp_cells(&r, 1.0));
        if op == Coll::Bcast {
            bcast_report = Some(r);
        }
    }
    if let Some(r) = bcast_report {
        let stem = format!("trace-pipeline-coll-{}", net.name().to_lowercase());
        write_trace(&r, &opts.out_dir, &stem);
    }
    vec![nb, coll]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::ragged_count;

    fn boring(p: PipelineConfig) -> Option<SecurityConfig> {
        Some(SecurityConfig::new(CryptoLibrary::BoringSsl).with_pipeline(p))
    }

    #[test]
    fn nb_pipelined_halves_sequential_overhead_at_2mb_ethernet() {
        // Acceptance: the nonblocking path must recover the same overlap
        // the blocking FIG-PIPELINE runs show — decryption inside wait,
        // encryption overlapped with the wire.
        let size = 2 << 20;
        let base = nb_run(Net::Ethernet, None, size, 5, false, 1).value;
        let ov = |p: PipelineConfig| {
            overhead_percent(
                base,
                nb_run(Net::Ethernet, boring(p), size, 5, false, 1).value,
            )
        };
        let seq = ov(PipelineConfig::disabled());
        let pip = ov(PipelineConfig::enabled().with_workers(WORKERS));
        assert!(
            pip < seq / 2.0,
            "pipelined nb overhead {pip:.1}% must halve sequential {seq:.1}%"
        );
    }

    #[test]
    fn coll_overheads_drop_materially_at_2mb_ethernet() {
        // Acceptance: at 2 MB on Ethernet the pipelined bcast and
        // alltoall must shed a large fraction of the sequential
        // encrypted overhead.
        let size = 2 << 20;
        let pipelined = PipelineConfig::enabled().with_workers(WORKERS);
        for op in [Coll::Bcast, Coll::Alltoall] {
            let us = |cfg: Option<SecurityConfig>| {
                collective_run(
                    Net::Ethernet,
                    cfg,
                    op,
                    size,
                    COLL_RANKS,
                    COLL_RANKS,
                    1,
                    false,
                    1,
                )
                .value
            };
            let base = us(None);
            let seq = overhead_percent(base, us(boring(PipelineConfig::disabled())));
            let pip = overhead_percent(base, us(boring(pipelined)));
            assert!(
                pip < 0.5 * seq,
                "{}: pipelined overhead {pip:.1}% must drop materially below sequential {seq:.1}%",
                op.name()
            );
        }
    }

    #[test]
    fn alltoallv_ragged_counts_mix_wire_formats() {
        // At the 256 KB point the ragged matrix must actually exercise
        // both wire formats: every rank sends at least one segment above
        // the default 64 KB chunk (chunked train) and at least one at or
        // below it (plain sealed record). Counts are also ragged — no
        // two destinations of a rank get the same size.
        let n = COLL_RANKS;
        let chunk = empi_pipeline::DEFAULT_CHUNK_SIZE;
        let size = 256 << 10;
        for s in 0..n {
            let counts: Vec<usize> = (0..n).map(|d| ragged_count(s, d, n, size)).collect();
            assert!(counts.iter().any(|&c| c > chunk), "rank {s} all-plain");
            assert!(counts.iter().any(|&c| c <= chunk), "rank {s} all-chunked");
            let mut uniq = counts.clone();
            uniq.sort_unstable();
            uniq.dedup();
            assert_eq!(uniq.len(), n, "rank {s} counts not ragged: {counts:?}");
        }
    }

    #[test]
    fn traced_nb_exchange_carries_pipeline_lanes() {
        let cfg = boring(PipelineConfig::enabled().with_workers(WORKERS));
        let r = nb_run(Net::Ethernet, cfg, 256 << 10, 2, true, 1).report();
        let d = r.decomposition();
        assert!(d.crypto_ns > 0, "crypto work must be traced");
        assert!(r.events.iter().any(|e| e.name == "pipe/seal"));
        assert!(r.events.iter().any(|e| e.name == "pipe/open"));
        for ((s, dst), f) in &r.pairs {
            assert_eq!(f.tx_bytes, f.rx_bytes, "pair {s}->{dst}");
        }
        assert_eq!(r.dropped_events, 0);
    }
}
