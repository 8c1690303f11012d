//! OSU Multiple-Pair bandwidth benchmark — FIG-4/5/6 (Ethernet) and
//! FIG-11/12/13 (InfiniBand).
//!
//! `pairs` senders on one node stream windows of 64 non-blocking
//! messages to `pairs` receivers on another node; each window is closed
//! by a small reply, as in OSU's `osu_mbw_mr`. Reported is the aggregate
//! uni-directional throughput (MB/s), plaintext bytes only.

use empi_aead::profile::CryptoLibrary;
use empi_core::{SecureComm, SecurityConfig};
use empi_mpi::{Comm, Src, TagSel, TraceReport, World};
use empi_netsim::Topology;

use crate::common::{reported_rows, row_config, row_label, security_config, BenchOpts, Net};
use crate::frame::Run;
use crate::stats::measure_until_stable;
use crate::table::{fmt_value, size_label, Table};
use crate::tracing::{decomp_cells, decomp_columns, write_trace};

/// The three message sizes of the figures.
pub const SIZES: [usize; 3] = [1, 16 << 10, 2 << 20];
/// Pair counts along the x axis.
pub const PAIRS: [usize; 4] = [1, 2, 4, 8];

/// Window size (messages in flight per iteration). OSU uses 64; for
/// 2 MB messages we shrink it to bound simulator memory — aggregate
/// bandwidth is insensitive to window depth beyond the pipeline depth.
fn window_for(size: usize) -> usize {
    if size >= 1 << 20 {
        16
    } else {
        64
    }
}

/// One multi-pair run: aggregate MB/s plus, when `traced`, the report.
/// `cfg == None` is the unencrypted baseline.
pub fn multipair_run(
    net: Net,
    cfg: Option<SecurityConfig>,
    size: usize,
    pairs: usize,
    iters: usize,
    traced: bool,
    shards: usize,
) -> Run {
    let window = window_for(size);
    // Ranks 0..pairs on node 0 (senders), pairs..2*pairs on node 1.
    let world = World::new(net.model(), Topology::block(2 * pairs, 2))
        .with_shards(shards)
        .traced(traced);
    let out = world.run(|c| {
        let me = c.rank();
        let is_sender = me < pairs;
        let peer = if is_sender { me + pairs } else { me - pairs };
        c.barrier();
        let t0 = c.now();
        match &cfg {
            None => run_pairs(c, is_sender, peer, size, window, iters),
            Some(cfg) => {
                let sc = SecureComm::new(c, cfg.clone()).unwrap();
                run_pairs_secure(&sc, is_sender, peer, size, window, iters);
            }
        }
        c.barrier();
        (c.now() - t0).as_secs_f64()
    });
    let elapsed = out.results[0];
    Run {
        value: (pairs * iters * window * size) as f64 / elapsed / 1e6,
        trace: out.trace,
    }
}

// The windowed stream needs `isend`/`irecv`/`waitall`, which the
// `CommLayer` the blocking shapes share does not have, and `Comm` and
// `SecureComm` use different request types: bridging them costs more
// lines than the second body, so the two stay side by side.
fn run_pairs(c: &Comm, is_sender: bool, peer: usize, size: usize, window: usize, iters: usize) {
    let buf = vec![0x77u8; size];
    for _ in 0..iters {
        if is_sender {
            let reqs: Vec<_> = (0..window).map(|_| c.isend(&buf, peer, 0)).collect();
            c.waitall(reqs);
            let _ = c.recv(Src::Is(peer), TagSel::Is(1));
        } else {
            let reqs: Vec<_> = (0..window)
                .map(|_| c.irecv(Src::Is(peer), TagSel::Is(0)))
                .collect();
            c.waitall(reqs);
            c.send(&[1u8], peer, 1);
        }
    }
}

fn run_pairs_secure(
    sc: &SecureComm,
    is_sender: bool,
    peer: usize,
    size: usize,
    window: usize,
    iters: usize,
) {
    let buf = vec![0x77u8; size];
    for _ in 0..iters {
        if is_sender {
            let reqs: Vec<_> = (0..window).map(|_| sc.isend(&buf, peer, 0)).collect();
            sc.waitall(reqs).unwrap();
            let _ = sc.recv(Src::Is(peer), TagSel::Is(1)).unwrap();
        } else {
            let reqs: Vec<_> = (0..window)
                .map(|_| sc.irecv(Src::Is(peer), TagSel::Is(0)))
                .collect();
            sc.waitall(reqs).unwrap();
            sc.send(&[1u8], peer, 1);
        }
    }
}

/// Build the three figure tables (one per message size) for one network.
pub fn run_net(net: Net, opts: &BenchOpts) -> Vec<Table> {
    let fig_ids: [&str; 3] = if net == Net::Ethernet {
        ["FIG-4", "FIG-5", "FIG-6"]
    } else {
        ["FIG-11", "FIG-12", "FIG-13"]
    };
    let mut tables = Vec::new();
    for (fig, &size) in fig_ids.iter().zip(SIZES.iter()) {
        let iters = match (opts.quick, size >= 1 << 20) {
            (true, _) => 3,
            (false, true) => 4,
            (false, false) => 25,
        };
        let mut t = Table::new(
            format!(
                "{fig}: OSU multi-pair aggregate throughput (MB/s), {} messages, {}",
                size_label(size),
                net.name()
            ),
            "pairs",
            PAIRS.iter().map(|p| p.to_string()).collect(),
        );
        for lib in reported_rows() {
            let cfg = row_config(lib, net);
            let cells: Vec<String> = PAIRS
                .iter()
                .map(|&pairs| {
                    // 2 MB points stream gigabytes; deterministic sim →
                    // one rep suffices there.
                    let reps_min = if size >= 1 << 20 { 1 } else { opts.reps_min };
                    let s = measure_until_stable(reps_min, opts.reps_max.max(reps_min), || {
                        multipair_run(net, cfg.clone(), size, pairs, iters, false, opts.shards)
                            .value
                    });
                    fmt_value(s.mean)
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

/// Per-pair-count BoringSSL decomposition at 16 KB (`--trace`): shows
/// the crypto share melting away as pairs add parallel crypto engines
/// while the shared wire stays fixed. The 4-pair Chrome trace goes to
/// `<out_dir>/trace-multipair-<net>.json`.
pub fn decomposition_net(net: Net, opts: &BenchOpts) -> Table {
    let size = 16 << 10;
    let iters = if opts.quick { 2 } else { 5 };
    let mut t = Table::new(
        format!(
            "DECOMP-MP-{}: multi-pair decomposition per window (us), BoringSSL, {} messages, {}",
            net.name(),
            size_label(size),
            net.name()
        ),
        "pairs",
        decomp_columns(),
    );
    let mut json_report: Option<TraceReport> = None;
    for &pairs in &PAIRS {
        let cfg = security_config(CryptoLibrary::BoringSsl, net);
        let r = multipair_run(net, Some(cfg), size, pairs, iters, true, opts.shards).report();
        t.push_row(pairs.to_string(), decomp_cells(&r, iters as f64));
        if pairs == 4 {
            json_report = Some(r);
        }
    }
    if let Some(r) = json_report {
        let stem = format!("trace-multipair-{}", net.name().to_lowercase());
        write_trace(&r, &opts.out_dir, &stem);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn large_messages_saturate_with_pairs() {
        // Fig. 6 shape: baseline saturates by ~2 pairs; the encrypted
        // libraries converge toward it as pairs increase.
        let b1 = multipair_run(Net::Ethernet, None, 2 << 20, 1, 4, false, 1).value;
        let b4 = multipair_run(Net::Ethernet, None, 2 << 20, 4, 4, false, 1).value;
        assert!(b4 > 0.95 * b1, "baseline should not degrade: {b1} -> {b4}");
        let cfg = row_config(Some(CryptoLibrary::BoringSsl), Net::Ethernet);
        let e1 = multipair_run(Net::Ethernet, cfg.clone(), 2 << 20, 1, 4, false, 1).value;
        let e4 = multipair_run(Net::Ethernet, cfg, 2 << 20, 4, 4, false, 1).value;
        let gap1 = b1 / e1;
        let gap4 = b4 / e4;
        assert!(gap1 > 1.3, "single pair must show a clear gap: {gap1:.2}");
        assert!(
            gap4 < gap1,
            "gap must shrink with pairs: {gap1:.2} -> {gap4:.2}"
        );
    }

    #[test]
    fn small_messages_baseline_keeps_scaling_on_ethernet() {
        // Fig. 4 shape: small-message baseline throughput keeps growing
        // with pair count (the wire is nowhere near saturated).
        let b1 = multipair_run(Net::Ethernet, None, 1, 1, 10, false, 1).value;
        let b8 = multipair_run(Net::Ethernet, None, 1, 8, 10, false, 1).value;
        assert!(b8 > 4.0 * b1, "expected near-linear scaling: {b1} -> {b8}");
    }

    #[test]
    fn ib_small_messages_throttle_at_8_pairs() {
        // Fig. 11 shape: IB baseline throughput drops from 4 to 8 pairs.
        let b4 = multipair_run(Net::Infiniband, None, 1, 4, 10, false, 1).value;
        let b8 = multipair_run(Net::Infiniband, None, 1, 8, 10, false, 1).value;
        assert!(
            b8 < b4,
            "IB 1B baseline should throttle at 8 pairs: {b4} -> {b8}"
        );
    }

    #[test]
    fn cryptopp_reaches_baseline_at_16kb_8pairs_ethernet() {
        // §V-A: "when there are 8 pairs, even CryptoPP can reach the
        // baseline performance, for 16KB messages".
        let b = multipair_run(Net::Ethernet, None, 16 << 10, 8, 10, false, 1).value;
        let cfg = row_config(Some(CryptoLibrary::CryptoPp), Net::Ethernet);
        let cpp = multipair_run(Net::Ethernet, cfg, 16 << 10, 8, 10, false, 1).value;
        assert!(cpp > 0.85 * b, "CryptoPP {cpp} vs baseline {b}");
    }
}
