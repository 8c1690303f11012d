//! FIG-MULTIPAIR-PIPE: the OSU multi-pair grid rerun with the chunked
//! crypto pipeline on, under multi-pair NIC contention. DECOMP-ALLOC
//! counts the buffers behind it from the `alloc/*` trace counters:
//! takes that missed the world's pool vs pool hits, per steady-state
//! message.
//!
//! Beyond the paper: the study measures encryption cost with every
//! message buffer freshly allocated and copied. Here every frame comes
//! from the world's buffer pool and goes back to it when its last
//! handle drops, so the steady state allocates nothing.

use empi_aead::profile::CryptoLibrary;
use empi_core::{PipelineConfig, SecureComm, SecurityConfig};
use empi_mpi::{Src, TagSel, TraceReport, World};

use crate::common::{BenchOpts, Net};
use crate::multipair::{multipair_run, PAIRS, SIZES};
use crate::table::{fmt_value, size_label, Table};
use crate::tracing::write_trace;

/// The two pipelined-encryption variants of the figure rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    /// Serial seal-then-send (the paper's placement; PR-3 baseline).
    Serial,
    /// Chunked pipeline on four crypto workers.
    Piped,
}

impl Variant {
    /// Figure-row label suffix.
    fn label(self) -> &'static str {
        match self {
            Variant::Serial => "serial",
            Variant::Piped => "piped",
        }
    }

    /// Security configuration for `lib` under this variant.
    pub fn config(self, lib: CryptoLibrary) -> SecurityConfig {
        let base = SecurityConfig::new(lib);
        match self {
            Variant::Serial => base,
            Variant::Piped => base.with_pipeline(PipelineConfig::enabled().with_workers(4)),
        }
    }
}

/// A traced blocking 2-rank stream: rank 0 sends `msgs` pipelined
/// messages of `size` bytes to rank 1. Window depth 1, so each
/// message's frames are back in the pool before (at most one message
/// after) the next seal — the steady state whose marginal allocation
/// cost DECOMP-ALLOC reports and CI pins.
fn alloc_stream(net: Net, size: usize, msgs: u32, shards: usize) -> TraceReport {
    let world = World::flat(net.model(), 2).with_shards(shards).traced(true);
    let out = world.run(move |c| {
        let sc = SecureComm::new(c, Variant::Piped.config(CryptoLibrary::BoringSsl)).unwrap();
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

/// Steady-state per-message sender allocation stats:
/// `(fresh, fresh_bytes, pooled)` per message. The virtual sim is
/// deterministic, so the difference of two runs isolates the marginal
/// cost of `span` extra messages exactly, with the warm-up (the sender
/// runs one message ahead of the receiver's returns) subtracted out.
fn marginal_allocs(net: Net, size: usize, span: u32, shards: usize) -> (f64, f64, f64) {
    let warm = 2;
    let a = alloc_stream(net, size, warm, shards);
    let b = alloc_stream(net, size, warm + span, shards);
    let per = |f: fn(&empi_trace::RankMetrics) -> u64| {
        (f(&b.per_rank[0]) - f(&a.per_rank[0])) as f64 / span as f64
    };
    (
        per(|m| m.allocs_fresh),
        per(|m| m.alloc_fresh_bytes),
        per(|m| m.allocs_pooled),
    )
}

/// Build the figure tables (one per message size) for one network:
/// baseline vs BoringSSL serial/piped across pair counts.
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
        for v in [Variant::Serial, Variant::Piped] {
            rows.push((
                format!("BoringSSL {}", v.label()),
                Some(v.config(CryptoLibrary::BoringSsl)),
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

/// DECOMP-ALLOC: steady-state sender allocations per message, per
/// message size (`--trace`): how many frame buffers miss the world's
/// pool and how many it serves. The 2 MB trace (with its `alloc/*`
/// rank-lane markers) goes to `<out_dir>/trace-multipair-pipe-<net>.json`
/// for `tracecheck`.
pub fn decomposition_net(net: Net, opts: &BenchOpts) -> Table {
    let span = if opts.quick { 2 } else { 4 };
    let mut t = Table::new(
        format!(
            "DECOMP-ALLOC-{}: steady-state sender allocations per pipelined message, BoringSSL, {}",
            net.name(),
            net.name()
        ),
        "size / buffers",
        ["fresh/msg", "fresh KB/msg", "pool hits/msg"]
            .iter()
            .map(|s| s.to_string())
            .collect(),
    );
    for &size in SIZES.iter() {
        let (fresh, fresh_bytes, pooled) = marginal_allocs(net, size, span, opts.shards);
        t.push_row(
            format!("{} piped", size_label(size)),
            vec![
                format!("{fresh:.2}"),
                fmt_value(fresh_bytes / 1024.0),
                format!("{pooled:.2}"),
            ],
        );
    }
    let r = alloc_stream(net, 2 << 20, 4, opts.shards);
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
        // placement.
        let mbs = |v: Variant| {
            let cfg = v.config(CryptoLibrary::BoringSsl);
            multipair_run(Net::Ethernet, Some(cfg), 2 << 20, 1, 3, false, 1).value
        };
        let serial = mbs(Variant::Serial);
        let piped = mbs(Variant::Piped);
        assert!(
            piped > serial,
            "pipeline must beat serial: {serial} -> {piped}"
        );
    }

    #[test]
    fn steady_2mb_sends_take_every_frame_from_the_pool() {
        // The DECOMP-ALLOC acceptance criterion, measured exactly as
        // the harness reports it: 32 frames of 64 KB per 2 MB message,
        // none of them a fresh take once the pool is warm.
        let (fresh, _, pooled) = marginal_allocs(Net::Ethernet, 2 << 20, 2, 1);
        assert_eq!((fresh, pooled), (0.0, 32.0));
    }
}
