//! FIG-MULTIPAIR-PIPE: the OSU multi-pair grid rerun with the chunked
//! crypto pipeline and the zero-copy pooled hot path on, under
//! multi-pair NIC contention. DECOMP-ALLOC splits the allocation/copy
//! cost out of the cipher/wire cost using the `alloc/*` trace counters
//! (fresh takes vs pool hits vs reclaims, per steady-state message).
//!
//! Beyond the paper: the study measures encryption cost with every
//! message buffer freshly allocated and copied. This harness quantifies
//! how much of that cost is the memory system, not the cipher — and how
//! much of it a frame pool claws back once the NIC is contended.

use empi_aead::profile::CryptoLibrary;
use empi_core::{PipelineConfig, SecureComm, SecurityConfig};
use empi_mpi::{Src, TagSel, TraceReport, World};

use crate::common::{security_config, BenchOpts, Net};
use crate::multipair::{multipair_run, PAIRS, SIZES};
use crate::table::{fmt_value, size_label, Table};
use crate::tracing::write_trace;

/// The three pipelined-encryption variants of the figure rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    /// Serial seal-then-send (the paper's placement; PR-3 baseline).
    Serial,
    /// Chunked pipeline, fresh frame buffers each chunk.
    Piped,
    /// Chunked pipeline sourcing frames from the engine's buffer pool,
    /// sealing in place (the zero-copy hot path).
    PipedPooled,
}

impl Variant {
    /// Figure-row label suffix.
    fn label(self) -> &'static str {
        match self {
            Variant::Serial => "serial",
            Variant::Piped => "piped",
            Variant::PipedPooled => "piped+pool",
        }
    }

    /// Security configuration for `lib` on `net` under this variant.
    pub fn config(self, lib: CryptoLibrary, net: Net) -> SecurityConfig {
        let base = security_config(lib, net);
        match self {
            Variant::Serial => base,
            Variant::Piped => base.with_pipeline(PipelineConfig::enabled().with_workers(4)),
            Variant::PipedPooled => base
                .with_pipeline(PipelineConfig::enabled().with_workers(4))
                .with_buffer_pool(true),
        }
    }
}

/// A traced blocking 2-rank stream: rank 0 sends `msgs` pipelined
/// messages of `size` bytes to rank 1. Window depth 1, so each
/// message's frames are reclaimed before (at most one message after)
/// the next seal — the steady state whose marginal allocation cost
/// DECOMP-ALLOC reports and CI pins.
fn alloc_stream(net: Net, variant: Variant, size: usize, msgs: u32, shards: usize) -> TraceReport {
    let world = World::flat(net.model(), 2).with_shards(shards).traced(true);
    let out = world.run(move |c| {
        let sc = SecureComm::new(c, variant.config(CryptoLibrary::BoringSsl, net)).unwrap();
        let msg = vec![0x5au8; size];
        for i in 0..msgs {
            if c.rank() == 0 {
                sc.send(&msg, 1, i);
            } else {
                sc.recv(Src::Is(0), TagSel::Is(i)).unwrap();
            }
        }
    });
    out.trace.expect("traced run must yield a report")
}

/// Steady-state per-message sender allocation stats for one variant:
/// `(fresh, fresh_bytes, pooled, reclaims)` per message. The virtual
/// sim is deterministic, so the difference of two runs isolates the
/// marginal cost of `span` extra messages exactly, with the warm-up
/// (the sender runs one message ahead of the receiver's reclaims)
/// subtracted out.
fn marginal_allocs(
    net: Net,
    variant: Variant,
    size: usize,
    span: u32,
    shards: usize,
) -> (f64, f64, f64, f64) {
    let warm = 2;
    let a = alloc_stream(net, variant, size, warm, shards);
    let b = alloc_stream(net, variant, size, warm + span, shards);
    let per = |f: fn(&empi_trace::RankMetrics) -> u64| {
        (f(&b.per_rank[0]) - f(&a.per_rank[0])) as f64 / span as f64
    };
    let reclaims = (b.per_rank[1].pool_reclaims - a.per_rank[1].pool_reclaims) as f64 / span as f64;
    (
        per(|m| m.allocs_fresh),
        per(|m| m.alloc_fresh_bytes),
        per(|m| m.allocs_pooled),
        reclaims,
    )
}

/// Build the figure tables (one per message size) for one network:
/// baseline vs BoringSSL serial/piped/piped+pool across pair counts.
pub fn run_net(net: Net, opts: &BenchOpts) -> Vec<Table> {
    let mut tables = Vec::new();
    for &size in SIZES.iter() {
        let iters = match (opts.quick, size >= 1 << 20) {
            (true, _) => 2,
            (false, true) => 4,
            (false, false) => 25,
        };
        let mut t = Table::new(
            format!(
                "FIG-MULTIPAIR-PIPE-{}-{}: pipelined multi-pair aggregate throughput (MB/s), {} messages, {}",
                size_label(size).replace(' ', ""),
                net.name(),
                size_label(size),
                net.name()
            ),
            "pairs",
            PAIRS.iter().map(|p| p.to_string()).collect(),
        );
        let mut rows: Vec<(String, Option<SecurityConfig>)> = vec![("Unencrypted".into(), None)];
        for v in [Variant::Serial, Variant::Piped, Variant::PipedPooled] {
            rows.push((
                format!("BoringSSL {}", v.label()),
                Some(v.config(CryptoLibrary::BoringSsl, net)),
            ));
        }
        for (label, cfg) in rows {
            let cells: Vec<String> = PAIRS
                .iter()
                .map(|&pairs| {
                    fmt_value(
                        multipair_run(net, cfg.clone(), size, pairs, iters, false, opts.shards)
                            .value,
                    )
                })
                .collect();
            t.push_row(label, cells);
        }
        tables.push(t);
    }
    if opts.trace {
        tables.push(decomposition_net(net, opts));
    }
    tables
}

/// DECOMP-ALLOC: steady-state sender allocations per message, pooled vs
/// unpooled, per message size (`--trace`). The "cut" column is the
/// headline deliverable: how many times fewer fresh heap buffers the
/// pooled hot path materializes per message. The 2 MB pooled trace
/// (with its `alloc/*` rank-lane markers) goes to
/// `<out_dir>/trace-multipair-pipe-<net>.json` for `tracecheck`.
pub fn decomposition_net(net: Net, opts: &BenchOpts) -> Table {
    let span = if opts.quick { 2 } else { 4 };
    let mut t = Table::new(
        format!(
            "DECOMP-ALLOC-{}: steady-state sender allocations per pipelined message, BoringSSL, {}",
            net.name(),
            net.name()
        ),
        "size / buffers",
        [
            "fresh/msg",
            "fresh KB/msg",
            "pool hits/msg",
            "reclaims/msg",
            "cut",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect(),
    );
    for &size in SIZES.iter() {
        let (uf, ufb, up, ur) = marginal_allocs(net, Variant::Piped, size, span, opts.shards);
        let (pf, pfb, pp, pr) = marginal_allocs(net, Variant::PipedPooled, size, span, opts.shards);
        let cut = if pf == 0.0 {
            format!(">{:.0}x", uf * span as f64)
        } else {
            format!("{:.1}x", uf / pf)
        };
        let row = |f: f64, fb: f64, p: f64, r: f64, cut: String| {
            vec![
                format!("{f:.2}"),
                fmt_value(fb / 1024.0),
                format!("{p:.2}"),
                format!("{r:.2}"),
                cut,
            ]
        };
        t.push_row(
            format!("{} piped", size_label(size)),
            row(uf, ufb, up, ur, "1.0x".into()),
        );
        t.push_row(
            format!("{} piped+pool", size_label(size)),
            row(pf, pfb, pp, pr, cut),
        );
    }
    let r = alloc_stream(net, Variant::PipedPooled, 2 << 20, 4, opts.shards);
    let stem = format!("trace-multipair-pipe-{}", net.name().to_lowercase());
    write_trace(&r, &opts.out_dir, &stem);
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pipelining_recovers_bandwidth_under_contention() {
        // FIG-MULTIPAIR-PIPE shape at 2 MB, 1 pair: the pipeline
        // overlaps seal with the wire, so it must beat the serial
        // placement; the pool must not cost throughput.
        let mbs = |v: Variant| {
            let cfg = v.config(CryptoLibrary::BoringSsl, Net::Ethernet);
            multipair_run(Net::Ethernet, Some(cfg), 2 << 20, 1, 3, false, 1).value
        };
        let serial = mbs(Variant::Serial);
        let piped = mbs(Variant::Piped);
        let pooled = mbs(Variant::PipedPooled);
        assert!(
            piped > serial,
            "pipeline must beat serial: {serial} -> {piped}"
        );
        assert!(
            pooled > 0.98 * piped,
            "pool must not cost throughput: {piped} -> {pooled}"
        );
    }

    #[test]
    fn pool_cuts_2mb_allocations_at_least_10x() {
        // The DECOMP-ALLOC acceptance criterion, measured exactly as
        // the harness reports it.
        let (uf, ..) = marginal_allocs(Net::Ethernet, Variant::Piped, 2 << 20, 2, 1);
        let (pf, _, pp, pr) = marginal_allocs(Net::Ethernet, Variant::PipedPooled, 2 << 20, 2, 1);
        assert!(
            uf >= 10.0 * pf.max(0.1),
            "pool must cut fresh allocs >= 10x: unpooled {uf}, pooled {pf}"
        );
        assert!(pp > 0.0, "pooled steady state must hit the pool: {pp}");
        assert!(pr > 0.0, "receiver must reclaim frames: {pr}");
    }
}
