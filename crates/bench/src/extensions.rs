//! Extension experiments beyond the paper's tables (DESIGN.md §7):
//!
//! * **EXT-KEYSIZE** — AES-128 vs AES-256 ping-pong: the paper states
//!   "the benchmarks yielded the same trends for both 128-bit and
//!   256-bit keys" and reports only 256; this table verifies the claim.
//!   (The charged curves are the paper's 256-bit ones, whatever the
//!   key size, so the table demonstrates trend parity; the raw
//!   128-vs-256 speed difference of the real engines — 10 vs 14 rounds —
//!   is measured by the `ABL-CRYPTO` table of the `encdec` harness.)
//! * **EXT-SCALE** — the paper's four scalability settings (4r/4n,
//!   16r/4n, 16r/8n, 64r/8n) for the NAS suite, baseline vs BoringSSL.
//! * **EXT-SCALE-RANKS** — rank counts far beyond the paper's 64-rank
//!   testbed (256/1024/4096), runnable because the sharded engine
//!   executes rank groups on real cores. Virtual-time results are
//!   shard-count-invariant; sharding only buys wall-clock.

use empi_aead::profile::{CryptoLibrary, KeySize};
use empi_core::SecurityConfig;
use empi_mpi::World;
use empi_netsim::Topology;

use crate::collectives::collective_run;
use crate::common::{reported_rows, row_label, BenchOpts, Net};
use crate::frame::{echo, run_layered, Coll};
use crate::nasbench;
use crate::pingpong::pingpong_run;
use crate::table::{fmt_value, size_label, Table};

/// The BoringSSL configuration of EXT-KEYSIZE under an explicit key size.
fn keysize_config(key_size: KeySize) -> SecurityConfig {
    let mut key = [0u8; 32];
    key[..key_size.bytes()].copy_from_slice(&vec![0x42u8; key_size.bytes()]);
    SecurityConfig::new(CryptoLibrary::BoringSsl)
        .with_key_size(key_size)
        .with_key(key)
}

/// EXT-KEYSIZE table.
pub fn keysize_table(net: Net, opts: &BenchOpts) -> Table {
    let sizes = [256usize, 16 << 10, 2 << 20];
    let iters = if opts.quick { 10 } else { 100 };
    let mut t = Table::new(
        format!(
            "EXT-KEYSIZE-{}: BoringSSL ping-pong throughput (MB/s), AES-128 vs AES-256",
            net.name()
        ),
        "",
        sizes.iter().map(|&s| size_label(s)).collect(),
    );
    for (label, ks) in [
        ("AES-128-GCM", KeySize::Aes128),
        ("AES-256-GCM", KeySize::Aes256),
    ] {
        let cfg = Some(keysize_config(ks));
        let cells = sizes
            .iter()
            .map(|&s| fmt_value(pingpong_run(net, cfg.clone(), s, iters, false, opts.shards).value))
            .collect();
        t.push_row(label, cells);
    }
    t
}

/// EXT-SCALE table (delegates to `nasbench::scalability`). Always runs
/// class S: the extension demonstrates *scaling behaviour* across the
/// paper's four rank/node settings, and mini-class at 4 ranks would
/// spend minutes of wall time on per-rank data generation alone.
pub fn scale_table(net: Net, opts: &BenchOpts) -> Table {
    nasbench::scalability(net, empi_nas::Class::S, opts.shards)
}

/// Ping-pong round-trip latency between the two most distant ranks of
/// an `ranks`-rank world (virtual µs). All other ranks participate in
/// world construction and teardown but stay idle — the measurement is
/// the paper's pingpong stretched to a world size its 64-rank testbed
/// could not host.
fn pingpong_at_scale_us(
    net: Net,
    lib: Option<CryptoLibrary>,
    ranks: usize,
    iters: usize,
    shards: usize,
) -> f64 {
    let nodes = (ranks / 32).max(2);
    let world = World::new(net.model(), Topology::block(ranks, nodes)).with_shards(shards);
    let out = run_layered(&world, &lib.map(SecurityConfig::new), |c, layer| {
        echo(c, layer, c.size() - 1, 4 << 10, iters).as_micros_f64()
    });
    out.results[0] / iters as f64
}

/// EXT-SCALE-RANKS: per-operation time at 256/1024/4096 ranks across
/// the four backends. Alltoall stops at 1024 ranks (4096² ≈ 16.7 M
/// messages per operation is beyond a CI budget — recorded as `-`
/// rather than silently omitted); pingpong covers all three counts.
pub fn rankscale_table(net: Net, opts: &BenchOpts) -> Table {
    let full = !opts.quick;
    let pp_ranks: &[usize] = if full { &[256, 1024, 4096] } else { &[256] };
    let a2a_ranks: &[usize] = if full { &[256, 1024] } else { &[256] };
    let pp_iters = if full { 4 } else { 2 };
    let mut columns: Vec<String> = pp_ranks.iter().map(|r| format!("pp {r}r")).collect();
    columns.extend(a2a_ranks.iter().map(|r| format!("a2a {r}r")));
    if full {
        columns.push("a2a 4096r".into());
    }
    let mut t = Table::new(
        format!(
            "EXT-SCALE-RANKS-{}: 4 KiB pingpong RTT and 64 B alltoall (virtual µs/op) \
             at rank counts beyond the paper's testbed",
            net.name()
        ),
        "",
        columns,
    );
    for lib in reported_rows() {
        let mut cells: Vec<String> = pp_ranks
            .iter()
            .map(|&r| fmt_value(pingpong_at_scale_us(net, lib, r, pp_iters, opts.shards)))
            .collect();
        cells.extend(a2a_ranks.iter().map(|&r| {
            let nodes = (r / 32).max(2);
            let cfg = lib.map(SecurityConfig::new);
            let run = collective_run(
                net,
                cfg,
                Coll::Alltoall,
                64,
                r,
                nodes,
                1,
                false,
                opts.shards,
            );
            fmt_value(run.value)
        }));
        if full {
            cells.push("-".into());
        }
        t.push_row(row_label(lib), cells);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_sizes_show_same_trend() {
        // AES-128 is at least as fast as AES-256 (fewer rounds), and
        // both see the same large-message overhead regime.
        let mbs = |ks| {
            let cfg = keysize_config(ks);
            pingpong_run(Net::Ethernet, Some(cfg), 2 << 20, 5, false, 1).value
        };
        let k128 = mbs(KeySize::Aes128);
        let k256 = mbs(KeySize::Aes256);
        assert!(k128 >= k256 * 0.98, "AES-128 {k128} vs AES-256 {k256}");
        // Same trend = same order of magnitude of overhead.
        let ratio = k128 / k256;
        assert!(ratio < 1.5, "trend should match: ratio {ratio}");
    }
}
