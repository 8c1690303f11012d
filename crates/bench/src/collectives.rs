//! Collective benchmarks — Encrypted_Bcast (TAB-2 / TAB-6, FIG-7 /
//! FIG-14) and Encrypted_Alltoall (TAB-3 / TAB-7, FIG-8 / FIG-15) at the
//! paper's 64-rank / 8-node setting.
//!
//! For alltoall blocks above 64 KB the harness switches to a streaming
//! pairwise exchange (one sealed block in flight per round) instead of
//! materializing all 63 encrypted blocks per rank — byte- and
//! crypto-identical traffic, bounded memory (DESIGN.md §2; the simulated
//! cluster shares one address space, unlike the paper's 8 real nodes).

use empi_aead::profile::CryptoLibrary;
use empi_core::SecurityConfig;
use empi_mpi::{TraceReport, World};
use empi_netsim::Topology;

use crate::common::{reported_rows, row_config, row_label, security_config, BenchOpts, Net};
use crate::frame::{collective_loop, run_layered, Coll, Run};
use crate::stats::{measure_until_stable, overhead_percent};
use crate::table::{fmt_value, size_label, Table};
use crate::tracing::{decomp_cells, decomp_columns, write_trace};

/// The paper's collective geometry.
pub const RANKS: usize = 64;
/// Nodes hosting those ranks.
pub const NODES: usize = 8;
/// Table II/III/VI/VII message sizes.
pub const TABLE_SIZES: [usize; 3] = [1, 16 << 10, 4 << 20];
/// Extra sweep points for the overhead figures.
pub const FIGURE_SIZES: [usize; 5] = [1, 1 << 10, 16 << 10, 256 << 10, 4 << 20];

/// Which collective to benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CollOp {
    /// `Encrypted_Bcast`.
    Bcast,
    /// `Encrypted_Alltoall`.
    Alltoall,
}

impl CollOp {
    /// Name for titles.
    pub fn name(self) -> &'static str {
        match self {
            CollOp::Bcast => "Encrypted_Bcast",
            CollOp::Alltoall => "Encrypted_Alltoall",
        }
    }

    /// The traffic shape `self` runs at `size`: alltoall blocks above
    /// [`STREAM_THRESHOLD`] go through the streaming pairwise exchange.
    pub fn shape(self, size: usize) -> Coll {
        match self {
            CollOp::Bcast => Coll::Bcast,
            CollOp::Alltoall if size > STREAM_THRESHOLD => Coll::AlltoallStreaming,
            CollOp::Alltoall => Coll::Alltoall,
        }
    }
}

/// Blocks larger than this use the streaming pairwise alltoall.
const STREAM_THRESHOLD: usize = 64 << 10;

/// One collective run: mean µs per operation plus, when `traced`, the
/// trace report. `cfg == None` is the unencrypted baseline.
#[allow(clippy::too_many_arguments)]
pub fn collective_run(
    net: Net,
    cfg: Option<SecurityConfig>,
    op: Coll,
    size: usize,
    ranks: usize,
    nodes: usize,
    iters: usize,
    traced: bool,
) -> Run {
    let world = World::new(net.model(), Topology::block(ranks, nodes)).traced(traced);
    let out = run_layered(&world, &cfg, |c, layer| {
        collective_loop(c, layer, op, size, iters).as_micros_f64()
    });
    Run {
        value: out.results[0] / iters as f64,
        trace: out.trace,
    }
}

fn iters_for(op: CollOp, size: usize, quick: bool) -> usize {
    let base = match (op, size) {
        (_, s) if s >= 1 << 20 => 1,
        (CollOp::Alltoall, _) => 3,
        (CollOp::Bcast, _) => 10,
    };
    if quick {
        base.min(2)
    } else {
        base
    }
}

/// Build the timing table (TAB-2/3/6/7) and the overhead-figure table
/// (FIG-7/8/14/15) for one network and collective.
pub fn run_net(net: Net, op: CollOp, opts: &BenchOpts) -> Vec<Table> {
    let (tab_id, fig_id) = match (net, op) {
        (Net::Ethernet, CollOp::Bcast) => ("TAB-2", "FIG-7"),
        (Net::Ethernet, CollOp::Alltoall) => ("TAB-3", "FIG-8"),
        (Net::Infiniband, CollOp::Bcast) => ("TAB-6", "FIG-14"),
        (Net::Infiniband, CollOp::Alltoall) => ("TAB-7", "FIG-15"),
    };
    // In quick mode cap the sweep at 256 KB (the 4 MB alltoall runs
    // gigabytes of real crypto through the slow software backends).
    let cap = if opts.quick { 256 << 10 } else { usize::MAX };
    let table_sizes: Vec<usize> = TABLE_SIZES.iter().copied().filter(|&s| s <= cap).collect();
    // The 256 KB alltoall sweep point alone moves ~4 GB of real crypto
    // through the software backend; the bcast sweep keeps it.
    let figure_sizes: Vec<usize> = FIGURE_SIZES
        .iter()
        .copied()
        .filter(|&s| s <= cap && (op == CollOp::Bcast || s != 256 << 10))
        .collect();
    let (ranks, nodes) = if opts.quick { (16, 4) } else { (RANKS, NODES) };

    let mut measured: Vec<(Option<CryptoLibrary>, Vec<f64>)> = Vec::new();
    let all_sizes: Vec<usize> = {
        let mut v = table_sizes.clone();
        for s in &figure_sizes {
            if !v.contains(s) {
                v.push(*s);
            }
        }
        v.sort_unstable();
        v
    };
    for lib in reported_rows() {
        let times: Vec<f64> = all_sizes
            .iter()
            .map(|&s| {
                let iters = iters_for(op, s, opts.quick);
                // ≥1 MB points move gigabytes of real crypto through the
                // software backends; the calibrated simulation is
                // deterministic, so one run suffices there.
                let reps_min = if s >= 1 << 20 { 1 } else { opts.reps_min };
                measure_until_stable(reps_min, opts.reps_max.max(reps_min), || {
                    collective_run(
                        net,
                        row_config(lib, net),
                        op.shape(s),
                        s,
                        ranks,
                        nodes,
                        iters,
                        false,
                    )
                    .value
                })
                .mean
            })
            .collect();
        measured.push((lib, times));
    }
    let col = |s: usize| all_sizes.iter().position(|&x| x == s).unwrap();

    let mut tab = Table::new(
        format!(
            "{tab_id}: avg timing of {} (us), 256-bit key, {} ({} ranks / {} nodes)",
            op.name(),
            net.name(),
            ranks,
            nodes
        ),
        "",
        table_sizes.iter().map(|&s| size_label(s)).collect(),
    );
    for (lib, times) in &measured {
        tab.push_row(
            row_label(*lib),
            table_sizes
                .iter()
                .map(|&s| fmt_value(times[col(s)]))
                .collect(),
        );
    }

    let mut fig = Table::new(
        format!(
            "{fig_id}: encryption overhead (%) of {} vs message size, {}",
            op.name(),
            net.name()
        ),
        "",
        figure_sizes.iter().map(|&s| size_label(s)).collect(),
    );
    let baseline = measured[0].1.clone();
    for (lib, times) in measured.iter().skip(1) {
        fig.push_row(
            row_label(*lib),
            figure_sizes
                .iter()
                .map(|&s| format!("{:.1}", overhead_percent(baseline[col(s)], times[col(s)])))
                .collect(),
        );
    }
    let mut out = vec![tab, fig];
    if opts.trace {
        out.push(decomposition_net(net, op, opts));
    }
    out
}

/// Per-size BoringSSL decomposition of one collective (`--trace`),
/// one operation per traced run. The Chrome trace of the largest size
/// not above 64 KB (keeping the JSON loadable) is written to
/// `<out_dir>/trace-<op>-<net>.json`.
pub fn decomposition_net(net: Net, op: CollOp, opts: &BenchOpts) -> Table {
    let cap = if opts.quick { 256 << 10 } else { usize::MAX };
    let sizes: Vec<usize> = TABLE_SIZES.iter().copied().filter(|&s| s <= cap).collect();
    let (ranks, nodes) = if opts.quick { (16, 4) } else { (RANKS, NODES) };
    let mut t = Table::new(
        format!(
            "DECOMP-{}-{}: {} decomposition per op (us), BoringSSL, {} ({} ranks / {} nodes)",
            match op {
                CollOp::Bcast => "BCAST",
                CollOp::Alltoall => "A2A",
            },
            net.name(),
            op.name(),
            net.name(),
            ranks,
            nodes
        ),
        "size",
        decomp_columns(),
    );
    let mut json_report: Option<TraceReport> = None;
    for &s in &sizes {
        let cfg = security_config(CryptoLibrary::BoringSsl, net);
        let r = collective_run(net, Some(cfg), op.shape(s), s, ranks, nodes, 1, true).report();
        t.push_row(size_label(s), decomp_cells(&r, 1.0));
        if s <= 64 << 10 {
            json_report = Some(r);
        }
    }
    if let Some(r) = json_report {
        let stem = format!(
            "trace-{}-{}",
            match op {
                CollOp::Bcast => "bcast",
                CollOp::Alltoall => "alltoall",
            },
            net.name().to_lowercase()
        );
        write_trace(&r, &opts.out_dir, &stem);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bcast_overhead_ranking_holds() {
        // 16-rank / 4-node keeps the test fast; the ranking claim is
        // scale-free: BoringSSL < Libsodium < CryptoPP overhead at 16KB+.
        let size = 16 << 10;
        let us = |lib: Option<CryptoLibrary>| {
            let cfg = row_config(lib, Net::Ethernet);
            collective_run(Net::Ethernet, cfg, Coll::Bcast, size, 16, 4, 3, false).value
        };
        let base = us(None);
        let b = us(Some(CryptoLibrary::BoringSsl));
        let l = us(Some(CryptoLibrary::Libsodium));
        let p = us(Some(CryptoLibrary::CryptoPp));
        assert!(base < b && b < l && l < p, "{base} {b} {l} {p}");
    }

    #[test]
    fn traced_bcast_labels_rounds_and_balances_ledgers() {
        let cfg = security_config(CryptoLibrary::BoringSsl, Net::Ethernet);
        let r = collective_run(
            Net::Ethernet,
            Some(cfg),
            Coll::Bcast,
            16 << 10,
            8,
            4,
            1,
            true,
        )
        .report();
        let d = r.decomposition();
        assert!(d.crypto_ns > 0 && d.wire_ns > 0, "{d:?}");
        for ((s, dst), f) in &r.pairs {
            assert_eq!(f.tx_bytes, f.rx_bytes, "pair {s}->{dst}");
        }
        // Transfer events inside the collective carry its op label.
        assert!(
            r.events.iter().any(|e| e.name.starts_with("bcast/")),
            "no bcast-labelled events"
        );
    }

    #[test]
    fn streaming_alltoall_equivalent_time_shape() {
        // The streaming path must cost at least as much as the
        // regular path's wire time and preserve the encrypted ranking.
        let op = CollOp::Alltoall.shape(128 << 10);
        assert_eq!(op, Coll::AlltoallStreaming);
        let us = |lib: Option<CryptoLibrary>| {
            let cfg = row_config(lib, Net::Infiniband);
            collective_run(Net::Infiniband, cfg, op, 128 << 10, 8, 4, 1, false).value
        };
        let base = us(None);
        let enc = us(Some(CryptoLibrary::BoringSsl));
        assert!(enc > base, "enc {enc} vs base {base}");
    }
}
