//! Ping-pong benchmark — TAB-1 / FIG-3 (Ethernet) and TAB-5 / FIG-10
//! (InfiniBand).
//!
//! Two processes on different nodes exchange a message back and forth
//! with blocking send/receive; reported is the uni-directional
//! throughput `size / (RTT/2)` in MB/s, excluding the 28-byte crypto
//! overhead, exactly as the paper computes it.

use empi_aead::profile::CryptoLibrary;
use empi_core::SecurityConfig;
use empi_mpi::{TraceReport, World};

use crate::common::{
    reported_rows, row_config, row_label, security_config, BenchOpts, Net, SizeSel,
};
use crate::frame::{echo, run_layered, Run};
use crate::stats::measure_until_stable;
use crate::table::{fmt_value, size_label, Table};
use crate::tracing::{decomp_cells, decomp_columns, write_trace};

/// Message sizes of Table I / Table V.
pub const SMALL_SIZES: [usize; 4] = [1, 16, 256, 1 << 10];
/// Message sizes of Fig. 3 / Fig. 10.
pub const LARGE_SIZES: [usize; 6] = [4 << 10, 16 << 10, 64 << 10, 256 << 10, 1 << 20, 2 << 20];

/// One ping-pong run between two ranks on different nodes: mean
/// uni-directional throughput in MB/s plus, when `traced`, the trace
/// report. `cfg == None` is the unencrypted baseline.
pub fn pingpong_run(
    net: Net,
    cfg: Option<SecurityConfig>,
    size: usize,
    iters: usize,
    traced: bool,
) -> Run {
    let world = World::flat(net.model(), 2).traced(traced);
    let out = run_layered(&world, &cfg, |c, layer| {
        echo(c, layer, 1, size, iters).as_secs_f64()
    });
    // One-way time per message = RTT/2; plaintext bytes only.
    Run {
        value: (iters as f64 * size as f64) / (out.results[0] / 2.0) / 1e6,
        trace: out.trace,
    }
}

/// Build the small-message table (TAB-1 / TAB-5) and the medium/large
/// figure series (FIG-3 / FIG-10) for one network.
pub fn run_net(net: Net, opts: &BenchOpts) -> Vec<Table> {
    let iters_for = |size: usize| -> usize {
        let base = if size < (1 << 20) { 200 } else { 50 };
        if opts.quick {
            base / 10
        } else {
            base
        }
    };
    let mut tables = Vec::new();
    for (tab_id, sizes, what, group) in [
        (
            if net == Net::Ethernet {
                "TAB-1"
            } else {
                "TAB-5"
            },
            &SMALL_SIZES[..],
            "small messages",
            SizeSel::Small,
        ),
        (
            if net == Net::Ethernet {
                "FIG-3"
            } else {
                "FIG-10"
            },
            &LARGE_SIZES[..],
            "medium/large messages",
            SizeSel::Large,
        ),
    ] {
        if !opts.sizes.includes(group) {
            continue;
        }
        let mut t = Table::new(
            format!(
                "{tab_id}: avg uni-directional ping-pong throughput (MB/s), {what}, 256-bit key, {}",
                net.name()
            ),
            "",
            sizes.iter().map(|&s| size_label(s)).collect(),
        );
        for lib in reported_rows() {
            let cells: Vec<String> = sizes
                .iter()
                .map(|&s| {
                    let stats = measure_until_stable(opts.reps_min, opts.reps_max, || {
                        pingpong_run(net, row_config(lib, net), s, iters_for(s), false).value
                    });
                    fmt_value(stats.mean)
                })
                .collect();
            t.push_row(row_label(lib), cells);
        }
        tables.push(t);
    }
    if opts.trace {
        tables.push(decomposition_net(net, opts));
    }
    tables
}

/// Per-size BoringSSL ping-pong decomposition (`--trace`): how each
/// message size splits into crypto / host / wire / wait time, summed
/// over both ranks and divided by the iteration count. Also writes the
/// Chrome trace of the largest selected size to
/// `<out_dir>/trace-pingpong-<net>.json`.
pub fn decomposition_net(net: Net, opts: &BenchOpts) -> Table {
    let sizes: Vec<usize> = SMALL_SIZES
        .iter()
        .filter(|_| opts.sizes.includes(SizeSel::Small))
        .chain(
            LARGE_SIZES
                .iter()
                .filter(|_| opts.sizes.includes(SizeSel::Large)),
        )
        .copied()
        .collect();
    // The calibrated simulation is deterministic; a handful of
    // iterations keeps the event log small without changing the split.
    let iters = if opts.quick { 4 } else { 10 };
    let mut t = Table::new(
        format!(
            "DECOMP-PP-{}: BoringSSL ping-pong decomposition per iteration (us), {}",
            net.name(),
            net.name()
        ),
        "size",
        decomp_columns(),
    );
    let mut last: Option<TraceReport> = None;
    for &s in &sizes {
        let cfg = security_config(CryptoLibrary::BoringSsl, net);
        let r = pingpong_run(net, Some(cfg), s, iters, true).report();
        t.push_row(size_label(s), decomp_cells(&r, iters as f64));
        last = Some(r);
    }
    if let Some(r) = last {
        let stem = format!("trace-pingpong-{}", net.name().to_lowercase());
        write_trace(&r, &opts.out_dir, &stem);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_matches_paper_anchors() {
        // The calibrated fabric must reproduce Table I/V baselines.
        let cases = [
            (Net::Ethernet, 1usize, 0.050),
            (Net::Ethernet, 256, 7.01),
            (Net::Ethernet, 2 << 20, 1038.0),
            (Net::Infiniband, 1, 0.57),
            (Net::Infiniband, 1 << 10, 272.84),
            (Net::Infiniband, 2 << 20, 3023.0),
        ];
        for (net, size, expect) in cases {
            let got = pingpong_run(net, None, size, 20, false).value;
            let err = (got - expect).abs() / expect;
            assert!(err < 0.02, "{net:?} {size}B: got {got}, expect {expect}");
        }
    }

    #[test]
    fn encrypted_overheads_have_paper_shape() {
        // Headline numbers: BoringSSL ≈78% @2MB Ethernet, ≈215% @2MB IB,
        // small overhead @256B Ethernet, large @256B IB.
        let check = |net, size, lo: f64, hi: f64| {
            let base = pingpong_run(net, None, size, 20, false).value;
            let cfg = security_config(CryptoLibrary::BoringSsl, net);
            let enc = pingpong_run(net, Some(cfg), size, 20, false).value;
            let overhead = (base / enc - 1.0) * 100.0;
            assert!(
                overhead > lo && overhead < hi,
                "{net:?} {size}B overhead {overhead:.1}% outside [{lo},{hi}]"
            );
        };
        check(Net::Ethernet, 2 << 20, 55.0, 100.0); // paper: 78.3 %
        check(Net::Infiniband, 2 << 20, 170.0, 260.0); // paper: 215.2 %
        check(Net::Ethernet, 256, 2.0, 25.0); // paper: ~5.9 %
        check(Net::Infiniband, 256, 55.0, 110.0); // paper: 80.9 %
    }

    #[test]
    fn traced_decomposition_consistent_with_measured_overhead() {
        use crate::tracing::est_overhead_percent;
        // The decomposition's serialized-model overhead estimate must
        // land in the same band as the measured overhead (paper: 78.3 %
        // for BoringSSL at 2 MB on Ethernet).
        let cfg = security_config(CryptoLibrary::BoringSsl, Net::Ethernet);
        let r = pingpong_run(Net::Ethernet, Some(cfg), 2 << 20, 4, true).report();
        let d = r.decomposition();
        let est = est_overhead_percent(&d);
        assert!(est > 55.0 && est < 100.0, "est overhead {est:.1}%");
        let share = d.crypto_share();
        assert!(share > 33.0 && share < 51.0, "crypto share {share:.1}%");
        // Byte conservation on every (src, dst) pair.
        for ((s, dst), f) in &r.pairs {
            assert_eq!(f.tx_bytes, f.rx_bytes, "pair {s}->{dst}");
            assert_eq!(f.tx_msgs, f.rx_msgs, "pair {s}->{dst}");
        }
        assert_eq!(r.dropped_events, 0);
    }

    #[test]
    fn cryptopp_is_far_worse_at_large_sizes() {
        let base = pingpong_run(Net::Ethernet, None, 2 << 20, 10, false).value;
        let cfg = security_config(CryptoLibrary::CryptoPp, Net::Ethernet);
        let cpp = pingpong_run(Net::Ethernet, Some(cfg), 2 << 20, 10, false).value;
        let overhead = (base / cpp - 1.0) * 100.0;
        // Paper: ~400 %.
        assert!(overhead > 280.0 && overhead < 520.0, "got {overhead:.0}%");
    }
}
