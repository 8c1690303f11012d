//! FIG-INFLIGHT: aggregate goodput vs in-flight window depth, driven by
//! one request-set shape on both layers (`Comm::{isend,waitsome}` on
//! the raw fabric, `SecureComm::{isend,waitsome}` on the encrypted
//! paths).
//!
//! Beyond the paper: the study only measures blocking and
//! waitall-at-the-end nonblocking streams. This harness sweeps the
//! number of outstanding isends (1..256) on a single sender/receiver
//! pair with messages sized past the rendezvous threshold, so window
//! depth is what hides the handshake round trip — per backend,
//! pipelined and plain, chaos off and (fixed-seed) on.

use empi_aead::profile::CryptoLibrary;
use empi_core::{FaultRates, PipelineConfig, SecureComm, SecurityConfig};
use empi_mpi::{Comm, Src, TagSel, World};
use empi_netsim::VDur;

use crate::common::{reported_rows, row_label, security_config, BenchOpts, Net};
use crate::frame::Run;
use crate::stats::measure_until_stable;
use crate::table::{fmt_value, Table};
use crate::tracing::write_trace;

/// Message size: past the rendezvous threshold on both fabrics (64 KiB
/// on 10 GbE, 12 KiB on IB), so completion genuinely waits on the wire
/// and the in-flight window is what pipelines the handshakes.
pub const MSG_SIZE: usize = 96 << 10;

/// The sweep: outstanding isends per the figure's x-axis.
pub const WINDOWS: [usize; 9] = [1, 2, 4, 8, 16, 32, 64, 128, 256];

/// Quick-mode subset (CI smoke).
pub const QUICK_WINDOWS: [usize; 3] = [1, 8, 64];

/// Fixed seed for the chaos-on table — CI pins the artifact bytes.
pub const SEED: u64 = 0x1F11_6417_D00D_5EED;

/// Per-chunk fault rate of the chaos-on table: low enough that the
/// default retransmit budget always recovers, high enough that NACK
/// service interleaves with set completion at every window depth.
pub const CHAOS_RATE: f64 = 0.03;

const MAX_RETRIES: u32 = 4;

/// Security configuration for one figure row. Under chaos the ARQ is
/// sized to the window, the way a real sliding-window protocol sizes
/// itself to its bandwidth-delay product: a serial sender sealing a
/// `window`-deep burst is unresponsive for `window` seal times, so the
/// repair backoff schedule must outlast the burst, and the retained
/// flow buffer must hold every in-flight message or early flows get
/// evicted (and aborted) before the receiver's first NACK lands.
fn config(lib: CryptoLibrary, net: Net, piped: bool, chaos: bool, window: usize) -> SecurityConfig {
    let mut cfg = security_config(lib, net);
    if piped {
        cfg = cfg.with_pipeline(PipelineConfig::enabled().with_workers(4));
    }
    if chaos {
        cfg = cfg
            .with_faults(SEED, FaultRates::uniform(CHAOS_RATE))
            .with_retransmit(MAX_RETRIES, VDur::from_micros(200 * window.max(1) as u64))
            .with_retransmit_buffer(2 * window.max(16));
    }
    cfg
}

/// Sliding-window driver on the raw fabric: keep up to `window`
/// requests outstanding, topping up as [`Comm::waitsome`] retires them.
fn pump_raw(c: &Comm, is_sender: bool, peer: usize, window: usize, msgs: usize) {
    let msg = vec![0x6bu8; MSG_SIZE];
    let mut pending = Vec::with_capacity(window);
    let mut next = 0usize;
    loop {
        while next < msgs && pending.len() < window {
            pending.push(if is_sender {
                c.isend(&msg, peer, next as u32)
            } else {
                c.irecv(Src::Is(peer), TagSel::Is(next as u32))
            });
            next += 1;
        }
        if pending.is_empty() {
            break;
        }
        for (_, status, data) in c.waitsome(&mut pending) {
            if !is_sender {
                let data = data.expect("receive must carry a payload");
                assert_eq!(data.len(), MSG_SIZE);
                assert_eq!(status.len, MSG_SIZE);
            }
        }
    }
}

/// Sliding-window driver on the encrypted path: `SecureComm::waitsome`
/// retires completions (servicing NACKs in the same poll when ARQ is
/// on) while the loop tops the window back up.
fn pump_secure(sc: &SecureComm, is_sender: bool, peer: usize, window: usize, msgs: usize) {
    let msg = vec![0x6bu8; MSG_SIZE];
    let mut pending = Vec::with_capacity(window);
    let mut next = 0usize;
    loop {
        while next < msgs && pending.len() < window {
            pending.push(if is_sender {
                sc.isend(&msg, peer, next as u32)
            } else {
                sc.irecv(Src::Is(peer), TagSel::Is(next as u32))
            });
            next += 1;
        }
        if pending.is_empty() {
            break;
        }
        let done = sc
            .waitsome(&mut pending)
            .expect("inflight stream must recover");
        assert!(!done.is_empty(), "blocking waitsome returned nothing");
        if !is_sender {
            for (_, _, plain) in done {
                let plain = plain.expect("receive must carry a plaintext");
                assert_eq!(plain.len(), MSG_SIZE);
            }
        }
    }
    // NACK-only protocol: at deep windows the sender's isends all
    // complete long before the receiver (which pays decrypt plus
    // backoff time per message) issues its last NACK, so a fixed pump
    // window is not enough — close the stream with a done marker the
    // receiver sends once every plaintext authenticated. The marker
    // rides the raw transport: it is control-plane traffic, exempt from
    // injection like the NACK/repair frames, so neither side needs a
    // recovery_window-long quiescence pump. No NACK can be outstanding
    // once it is sent — every recovery completes before the receiver's
    // last open returns.
    if sc.recovery_window().0 > 0 {
        let done_tag = msgs as u32;
        let comm = sc.inner();
        if is_sender {
            // Service repair requests until the marker shows up — the
            // receiver may still be deep in recovery of mid-stream
            // messages long after our last isend completed locally.
            while comm.iprobe(Src::Is(peer), TagSel::Is(done_tag)).is_none() {
                sc.pump(VDur::from_micros(50));
            }
            comm.recv(Src::Is(peer), TagSel::Is(done_tag));
        } else {
            comm.send(&[0xD0], peer, done_tag);
        }
    }
}

/// One windowed stream: rank 0 isends `msgs` messages of [`MSG_SIZE`]
/// bytes to rank 1 with at most `window` outstanding; returns aggregate
/// goodput in MB/s (plus the trace when `traced`). `cfg == None` is the
/// unencrypted baseline.
pub fn inflight_run(
    net: Net,
    cfg: Option<SecurityConfig>,
    window: usize,
    msgs: usize,
    traced: bool,
) -> Run {
    let world = World::flat(net.model(), 2).traced(traced);
    let out = world.run(|c| {
        let is_sender = c.rank() == 0;
        let peer = 1 - c.rank();
        c.barrier();
        let t0 = c.now();
        match &cfg {
            None => pump_raw(c, is_sender, peer, window, msgs),
            Some(cfg) => {
                let sc = SecureComm::new(c, cfg.clone()).unwrap();
                pump_secure(&sc, is_sender, peer, window, msgs);
            }
        }
        c.barrier();
        (c.now() - t0).as_secs_f64()
    });
    let elapsed = out.results[0];
    Run {
        value: (msgs * MSG_SIZE) as f64 / elapsed / 1e6,
        trace: out.trace,
    }
}

/// Build the FIG-INFLIGHT tables for one network: goodput vs window for
/// every backend (plain and piped) chaos-off, plus the fixed-seed
/// chaos-on rerun of the BoringSSL rows.
pub fn run_net(net: Net, opts: &BenchOpts) -> Vec<Table> {
    let windows: Vec<usize> = if opts.quick {
        QUICK_WINDOWS.to_vec()
    } else {
        WINDOWS.to_vec()
    };
    let msgs = if opts.quick { 64 } else { 256 };
    let cols: Vec<String> = windows.iter().map(|w| w.to_string()).collect();

    let mut clean = Table::new(
        format!(
            "FIG-INFLIGHT-{}: aggregate goodput (MB/s) vs in-flight window, {} KiB messages, {}",
            net.name(),
            MSG_SIZE >> 10,
            net.name()
        ),
        "config / window",
        cols.clone(),
    );
    for lib in reported_rows() {
        let variants: &[(bool, &str)] = match lib {
            None => &[(false, "")],
            Some(_) => &[(false, " plain"), (true, " piped")],
        };
        for &(piped, suffix) in variants {
            let cells = windows
                .iter()
                .map(|&w| {
                    // The calibrated simulator is deterministic, so one
                    // run per cell suffices (stats.rs allows min_runs=1).
                    let s = measure_until_stable(1, 1, || {
                        let cfg = lib.map(|l| config(l, net, piped, false, w));
                        inflight_run(net, cfg, w, msgs, false).value
                    });
                    fmt_value(s.mean)
                })
                .collect();
            clean.push_row(format!("{}{}", row_label(lib), suffix), cells);
        }
    }

    let mut chaotic = Table::new(
        format!(
            "FIG-INFLIGHT-CHAOS-{}: goodput (MB/s) vs in-flight window under {:.0}% chunk faults + ARQ, seed {:#x}, {}",
            net.name(),
            CHAOS_RATE * 100.0,
            SEED,
            net.name()
        ),
        "config / window",
        cols,
    );
    for piped in [false, true] {
        let cells = windows
            .iter()
            .map(|&w| {
                let s = measure_until_stable(1, 1, || {
                    let cfg = config(CryptoLibrary::BoringSsl, net, piped, true, w);
                    inflight_run(net, Some(cfg), w, msgs, false).value
                });
                fmt_value(s.mean)
            })
            .collect();
        chaotic.push_row(
            format!("BoringSSL {}", if piped { "piped" } else { "plain" }),
            cells,
        );
    }

    if opts.trace {
        let w = *windows.last().unwrap();
        let cfg = config(CryptoLibrary::BoringSsl, net, true, false, w);
        let r = inflight_run(net, Some(cfg), w, msgs.min(64), true).report();
        let stem = format!("trace-inflight-{}", net.name().to_lowercase());
        write_trace(&r, &opts.out_dir, &stem);
    }

    vec![clean, chaotic]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn goodput_scales_with_window_on_raw_fabric() {
        // Rendezvous messages: window 16 hides the handshake RTT that
        // window 1 pays serially on every message.
        let g1 = inflight_run(Net::Ethernet, None, 1, 24, false).value;
        let g16 = inflight_run(Net::Ethernet, None, 16, 24, false).value;
        assert!(
            g16 > 1.2 * g1,
            "window must lift raw goodput: {g1:.1} -> {g16:.1} MB/s"
        );
    }

    #[test]
    fn goodput_scales_with_window_when_encrypted() {
        let goodput = |w: usize| {
            let cfg = config(CryptoLibrary::BoringSsl, Net::Ethernet, false, false, w);
            inflight_run(Net::Ethernet, Some(cfg), w, 24, false).value
        };
        let g1 = goodput(1);
        let g16 = goodput(16);
        assert!(
            g16 > 1.2 * g1,
            "window must lift encrypted goodput: {g1:.1} -> {g16:.1} MB/s"
        );
        // And the window must not change how much data arrives: both
        // runs complete 24 messages (asserted inside the drivers).
    }

    #[test]
    fn chaos_stream_recovers_at_depth() {
        // Fixed-seed faults + ARQ at the deepest quick window: the
        // receiver-side asserts in pump_secure verify every plaintext
        // arrives intact, window notwithstanding.
        let cfg = config(CryptoLibrary::BoringSsl, Net::Ethernet, true, true, 16);
        let g = inflight_run(Net::Ethernet, Some(cfg), 16, 16, false).value;
        assert!(g > 0.0);
    }
}
