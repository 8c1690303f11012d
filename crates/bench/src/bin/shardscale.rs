//! TAB-SCALE: wall-clock speedup of the sharded engine on the 64-rank
//! NAS sweep. Virtual-time results are bit-identical at every shard
//! count (that is the engine's determinism contract); this table
//! measures the only thing sharding changes — how long the host takes
//! to compute them. The serial (`--shards 1`) column is the baseline;
//! the sharded column uses `--shards N` (default 8). The host core
//! count is printed because the achievable speedup is bounded by it.

use std::time::Instant;

use empi_bench::nasbench::nas_seconds;
use empi_bench::table::{fmt_value, Table};
use empi_bench::{emit, BenchOpts};
use empi_nas::{Class, Kernel};

/// Wall-clock seconds for the full 7-kernel BoringSSL sweep at
/// `shards` shards, plus the per-kernel virtual seconds (used to
/// assert the runs computed the same schedule).
fn sweep(
    net: empi_bench::Net,
    class: Class,
    ranks: usize,
    nodes: usize,
    shards: usize,
) -> (f64, Vec<f64>) {
    std::env::set_var("EMPI_SHARDS", shards.to_string());
    let t0 = Instant::now();
    let virt: Vec<f64> = Kernel::ALL
        .iter()
        .map(|&k| {
            nas_seconds(
                net,
                Some(empi_aead::profile::CryptoLibrary::BoringSsl),
                k,
                class,
                ranks,
                nodes,
            )
            .0
        })
        .collect();
    (t0.elapsed().as_secs_f64(), virt)
}

fn main() {
    let opts = BenchOpts::parse(std::env::args().skip(1));
    let shards = if opts.shards > 1 { opts.shards } else { 8 };
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let class = if opts.quick { Class::S } else { Class::MiniC };
    // Class S's FT grid needs ranks | 16, so the quick sweep runs the
    // smoke-test geometry; the full sweep is the paper's 64r/8n.
    let (ranks, nodes) = if opts.quick { (8, 4) } else { (64, 8) };
    for net in opts.nets.clone() {
        let (serial_s, serial_virt) = sweep(net, class, ranks, nodes, 1);
        let (sharded_s, sharded_virt) = sweep(net, class, ranks, nodes, shards);
        assert_eq!(
            serial_virt, sharded_virt,
            "determinism violation: shard count changed virtual times"
        );
        let mut t = Table::new(
            format!(
                "TAB-SCALE-{}: {ranks}r/{nodes}n NAS sweep (BoringSSL, class {:?}) wall-clock, \
                 serial vs {} shards on a {}-core host",
                net.name(),
                class,
                shards,
                cores
            ),
            "",
            vec![
                "serial s".into(),
                format!("{shards}-shard s"),
                "speedup".into(),
            ],
        );
        t.push_row(
            "wall-clock",
            vec![
                fmt_value(serial_s),
                fmt_value(sharded_s),
                format!("{:.2}x", serial_s / sharded_s),
            ],
        );
        emit(&[t], &opts.out_dir);
    }
}
