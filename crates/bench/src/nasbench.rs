//! NAS parallel benchmarks on plain vs encrypted MPI — TAB-4 (Ethernet)
//! and TAB-8 (InfiniBand), class "MiniC", 64 ranks / 8 nodes.
//!
//! The aggregate overhead row is derived from totals (ratio of summed
//! run times), following the Fleming–Wallace recommendation the paper
//! adopts in its footnote 2.

use std::process::ExitCode;
use std::time::Instant;

use empi_aead::profile::CryptoLibrary;
use empi_core::SecurityConfig;
use empi_mpi::{TraceReport, World};
use empi_nas::adi::{self, AdiKind};
use empi_nas::{cg, ft, is, lu, mg, Class, Kernel};
use empi_netsim::Topology;

use crate::common::{reported_rows, row_config, row_label, security_config, BenchOpts, Net};
use crate::frame::{run_layered, Run};
use crate::stats::overhead_percent_of_totals;
use crate::table::{fmt_value, Table};
use crate::tracing::{decomp_cells, decomp_columns, write_trace};

/// One NAS kernel run: (virtual seconds, verified) plus, when
/// `traced`, the trace report. `cfg == None` is the plain-MPI baseline.
#[allow(clippy::too_many_arguments)]
pub fn nas_run(
    net: Net,
    cfg: Option<SecurityConfig>,
    kernel: Kernel,
    class: Class,
    ranks: usize,
    nodes: usize,
    traced: bool,
) -> Run<(f64, bool)> {
    let world = World::new(net.model(), Topology::block(ranks, nodes)).traced(traced);
    let out = run_layered(&world, &cfg, |c, layer| {
        c.barrier();
        let t0 = c.now();
        let report = match kernel {
            Kernel::CG => cg::run(&layer, class),
            Kernel::FT => ft::run(&layer, class),
            Kernel::MG => mg::run(&layer, class),
            Kernel::LU => lu::run(&layer, class),
            Kernel::BT => adi::run(&layer, class, AdiKind::Bt),
            Kernel::SP => adi::run(&layer, class, AdiKind::Sp),
            Kernel::IS => is::run(&layer, class),
        };
        c.barrier();
        ((c.now() - t0).as_secs_f64(), report.verified)
    });
    let time = out.results.iter().map(|(t, _)| *t).fold(0.0f64, f64::max);
    let verified = out.results.iter().all(|(_, v)| *v);
    Run {
        value: (time, verified),
        trace: out.trace,
    }
}

/// Build TAB-4 or TAB-8 for one network.
pub fn run_net(net: Net, opts: &BenchOpts) -> Vec<Table> {
    let tab_id = if net == Net::Ethernet {
        "TAB-4"
    } else {
        "TAB-8"
    };
    let class = if opts.quick { Class::S } else { Class::MiniC };
    let (ranks, nodes) = if opts.quick { (8, 4) } else { (64, 8) };

    let mut columns: Vec<String> = Kernel::ALL.iter().map(|k| k.name().to_string()).collect();
    columns.push("total".into());
    columns.push("overhead%".into());
    let mut t = Table::new(
        format!(
            "{tab_id}: NAS parallel benchmarks avg running time (s), class {:?}, {} ranks / {} nodes, {}",
            class,
            ranks,
            nodes,
            net.name()
        ),
        "",
        columns,
    );

    let mut baseline_times: Vec<f64> = Vec::new();
    for lib in reported_rows() {
        let mut times = Vec::new();
        for k in Kernel::ALL {
            let (secs, ok) =
                nas_run(net, row_config(lib, net), k, class, ranks, nodes, false).value;
            assert!(
                ok,
                "{} failed verification under {:?} on {}",
                k.name(),
                lib,
                net.name()
            );
            times.push(secs);
        }
        let total: f64 = times.iter().sum();
        let overhead = if lib.is_none() {
            baseline_times = times.clone();
            "-".to_string()
        } else {
            format!("{:.2}", overhead_percent_of_totals(&baseline_times, &times))
        };
        let mut cells: Vec<String> = times.iter().map(|&x| fmt_value(x)).collect();
        cells.push(fmt_value(total));
        cells.push(overhead);
        t.push_row(row_label(lib), cells);
    }
    let mut out = vec![t];
    if opts.trace {
        out.push(decomposition_net(net, opts));
    }
    out
}

/// Per-kernel BoringSSL decomposition (`--trace`) at a small geometry
/// (class S, 8 ranks / 4 nodes — the split, not the absolute time, is
/// the point). The CG Chrome trace goes to
/// `<out_dir>/trace-nas-<net>.json`.
pub fn decomposition_net(net: Net, opts: &BenchOpts) -> Table {
    let (class, ranks, nodes) = (Class::S, 8, 4);
    let mut t = Table::new(
        format!(
            "DECOMP-NAS-{}: NAS kernel decomposition per run (us), BoringSSL, class {:?}, {} ranks / {} nodes",
            net.name(),
            class,
            ranks,
            nodes
        ),
        "kernel",
        decomp_columns(),
    );
    let mut json_report: Option<TraceReport> = None;
    for k in Kernel::ALL {
        let cfg = security_config(CryptoLibrary::BoringSsl, net);
        let r = nas_run(net, Some(cfg), k, class, ranks, nodes, true).report();
        if k == Kernel::CG {
            json_report = Some(r.clone());
        }
        t.push_row(k.name(), decomp_cells(&r, 1.0));
    }
    if let Some(r) = json_report {
        let stem = format!("trace-nas-{}", net.name().to_lowercase());
        write_trace(&r, &opts.out_dir, &stem);
    }
    t
}

/// Scalability extension: total NAS time (baseline vs BoringSSL) across
/// the paper's smaller rank/node settings. (The fourth setting, 64/8,
/// is the main Tables IV/VIII geometry and needs mini-class grids; the
/// class-S grids used here divide evenly only up to 16 ranks.)
pub fn scalability(net: Net, class: Class) -> Table {
    let settings = [(4usize, 4usize), (16, 4), (16, 8)];
    let mut t = Table::new(
        format!(
            "EXT-SCALE-{1}: NAS total time (s) across rank/node settings, class {0:?}",
            class,
            net.name()
        ),
        "",
        settings.iter().map(|(r, n)| format!("{r}r/{n}n")).collect(),
    );
    for lib in [None, Some(CryptoLibrary::BoringSsl)] {
        let cells: Vec<String> = settings
            .iter()
            .map(|&(r, n)| {
                let total: f64 = Kernel::ALL
                    .iter()
                    .map(|&k| {
                        nas_run(net, row_config(lib, net), k, class, r, n, false)
                            .value
                            .0
                    })
                    .sum();
                fmt_value(total)
            })
            .collect();
        t.push_row(row_label(lib), cells);
    }
    t
}

/// The `calibrate` subcommand — calibration helper for the NAS compute
/// models (DESIGN.md §5), optionally for the one kernel named.
///
/// For each kernel it separates the baseline into communication and
/// compute (by re-running with doubled compute constants), measures the
/// encrypted delta under BoringSSL, and prints the `ns_per_unit` scale
/// that would land the overhead on the paper's Table IV value.
pub fn calibrate(args: Vec<String>) -> ExitCode {
    let only: Option<&str> = args.first().map(|s| s.as_str());
    // BoringSSL per-kernel overheads from Table IV (Ethernet).
    let paper_oh = [0.2197, 0.0640, 0.1804, 0.0560, 0.2002, 0.1123, 0.1133];
    println!("kernel  base_s  comm_s  comp_s  enc_s  oh_now%  oh_paper%  suggested_scale  wall_s");
    let run = |lib: Option<CryptoLibrary>, k: Kernel| {
        let cfg = row_config(lib, Net::Ethernet);
        nas_run(Net::Ethernet, cfg, k, Class::MiniC, 64, 8, false).value
    };
    for (i, k) in Kernel::ALL.iter().enumerate() {
        if let Some(o) = only {
            if !k.name().eq_ignore_ascii_case(o) {
                continue;
            }
        }
        let t0 = Instant::now();
        std::env::remove_var("EMPI_NAS_NS_SCALE");
        let (base1, ok1) = run(None, *k);
        std::env::set_var("EMPI_NAS_NS_SCALE", "2.0");
        let (base2, _) = run(None, *k);
        std::env::remove_var("EMPI_NAS_NS_SCALE");
        let (enc, ok2) = run(Some(CryptoLibrary::BoringSsl), *k);
        let compute = base2 - base1;
        let comm = base1 - compute;
        let delta = enc - base1;
        let oh_now = delta / base1 * 100.0;
        let base_req = delta / paper_oh[i];
        let scale = ((base_req - comm) / compute).max(0.05);
        println!(
            "{:<6}  {:6.3}  {:6.3}  {:6.3}  {:6.3}  {:6.1}  {:8.1}  {:14.2}  {:5.1} v={}{}",
            k.name(),
            base1,
            comm,
            compute,
            enc,
            oh_now,
            paper_oh[i] * 100.0,
            scale,
            t0.elapsed().as_secs_f64(),
            ok1,
            ok2
        );
    }
    ExitCode::SUCCESS
}

/// Wall-clock seconds for the full 7-kernel BoringSSL sweep at
/// `shards` shards, plus the per-kernel virtual seconds (used to
/// assert the runs computed the same schedule).
fn sweep(net: Net, class: Class, ranks: usize, nodes: usize, shards: usize) -> (f64, Vec<f64>) {
    std::env::set_var("EMPI_SHARDS", shards.to_string());
    let t0 = Instant::now();
    let virt: Vec<f64> = Kernel::ALL
        .iter()
        .map(|&k| {
            let cfg = security_config(CryptoLibrary::BoringSsl, net);
            nas_run(net, Some(cfg), k, class, ranks, nodes, false)
                .value
                .0
        })
        .collect();
    (t0.elapsed().as_secs_f64(), virt)
}

/// The `shardscale` subcommand — TAB-SCALE: wall-clock speedup of the
/// sharded engine on the 64-rank NAS sweep. Virtual-time results are
/// bit-identical at every shard count (that is the engine's determinism
/// contract); this table measures the only thing sharding changes — how
/// long the host takes to compute them. The serial (`--shards 1`)
/// column is the baseline; the sharded column uses `--shards N`
/// (default 8). The host core count is printed because the achievable
/// speedup is bounded by it.
pub fn shardscale(args: Vec<String>) -> ExitCode {
    let opts = BenchOpts::parse(args.into_iter());
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
        crate::emit(&[t], &opts.out_dir);
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_kernels_verify_small_both_layers() {
        for lib in [None, Some(CryptoLibrary::BoringSsl)] {
            for k in Kernel::ALL {
                let cfg = row_config(lib, Net::Ethernet);
                let (secs, ok) = nas_run(Net::Ethernet, cfg, k, Class::S, 4, 2, false).value;
                assert!(ok, "{} under {:?}", k.name(), lib);
                assert!(secs > 0.0);
            }
        }
    }

    #[test]
    fn encryption_adds_overhead_to_every_kernel() {
        for k in Kernel::ALL {
            let secs = |lib: Option<CryptoLibrary>| {
                let cfg = row_config(lib, Net::Infiniband);
                nas_run(Net::Infiniband, cfg, k, Class::S, 4, 2, false)
                    .value
                    .0
            };
            let base = secs(None);
            let enc = secs(Some(CryptoLibrary::CryptoPp));
            assert!(enc > base, "{}: {enc} <= {base}", k.name());
        }
    }
}
