//! Shared plumbing for the `--trace` decomposition path: every harness
//! uses the same table layout (crypto/host/wire/wait columns plus the
//! crypto-share / comm-share split) and the same Chrome-JSON writer;
//! the harnesses that also export a metrics snapshot share one
//! artifact writer.
//!
//! The "est overhead %" column is the serialized-model prediction of
//! the encryption overhead: crypto time over comm (host + wire) time.
//! For the rendezvous ping-pong this is directly comparable to the
//! paper's measured overhead (the paper's Ethernet 2 MB BoringSSL
//! number is 78.3 %).

use std::path::Path;

use empi_trace::{chrome, export, Decomposition, MetricsSnapshot, TraceReport};

use crate::table::fmt_value;

/// Column headers shared by every harness's TRACE table.
pub fn decomp_columns() -> Vec<String> {
    [
        "crypto us",
        "host us",
        "wire us",
        "wait us",
        "crypto-share %",
        "comm-share %",
        "est overhead %",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect()
}

/// Estimated encryption overhead implied by a decomposition — crypto
/// over comm, in percent (0 when nothing was traced).
pub fn est_overhead_percent(d: &Decomposition) -> f64 {
    if d.comm_ns() == 0 {
        0.0
    } else {
        d.crypto_ns as f64 / d.comm_ns() as f64 * 100.0
    }
}

/// Render one decomposition row; times are divided by `per` (e.g. the
/// iteration count) so the cells read as per-operation microseconds.
pub fn decomp_cells(report: &TraceReport, per: f64) -> Vec<String> {
    let d = report.decomposition();
    let us = |ns: u64| ns as f64 / 1e3 / per.max(1.0);
    vec![
        fmt_value(us(d.crypto_ns)),
        fmt_value(us(d.host_ns)),
        fmt_value(us(d.wire_ns)),
        fmt_value(us(d.wait_ns)),
        format!("{:.1}", d.crypto_share()),
        format!("{:.1}", d.comm_share()),
        format!("{:.1}", est_overhead_percent(&d)),
    ]
}

/// Write `report` as Chrome trace JSON to `out_dir/<stem>.json`.
pub fn write_trace(report: &TraceReport, out_dir: &Path, stem: &str) {
    if let Err(e) = std::fs::create_dir_all(out_dir) {
        eprintln!("warning: could not create {}: {e}", out_dir.display());
        return;
    }
    let path = out_dir.join(format!("{stem}.json"));
    match report.write_chrome_json(&path) {
        Ok(()) => println!("trace written to {} ({})", path.display(), report),
        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
    }
}

/// Write `text` to `path`, reporting the outcome as `what`.
fn write_file(path: &Path, text: String, what: &str) {
    match std::fs::write(path, text) {
        Ok(()) => println!("{what} written to {}", path.display()),
        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
    }
}

/// The one artifact writer of the snapshot-exporting harnesses: write
/// `metrics-<stem>.json` (the versioned snapshot `tracecheck
/// --require-hist` consumes) and `metrics-<stem>.prom` (Prometheus
/// text, validated before it is written) into `out_dir`, and — given
/// the run's trace — `trace-<stem>.json` with the snapshot's
/// percentile checkpoints merged in as Chrome counter tracks.
pub fn write_artifacts(
    out_dir: &Path,
    stem: &str,
    snap: &MetricsSnapshot,
    trace: Option<&TraceReport>,
) {
    if let Err(e) = std::fs::create_dir_all(out_dir) {
        eprintln!("warning: could not create {}: {e}", out_dir.display());
        return;
    }
    let path = |kind: &str, ext: &str| out_dir.join(format!("{kind}-{stem}.{ext}"));
    let json = export::snapshot_json(snap);
    write_file(&path("metrics", "json"), json, "metrics snapshot");
    let prom = export::prometheus(snap);
    export::validate_prometheus(&prom).expect("prometheus export must validate");
    write_file(&path("metrics", "prom"), prom, "prometheus export");
    if let Some(r) = trace {
        let doc = chrome::to_chrome_json_with_extra(r, &export::chrome_counters(snap));
        write_file(&path("trace", "json"), doc, "trace with counter tracks");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn est_overhead_matches_hand_computation() {
        let d = Decomposition {
            crypto_ns: 780,
            host_ns: 400,
            wire_ns: 600,
            wait_ns: 123,
        };
        assert!((est_overhead_percent(&d) - 78.0).abs() < 1e-9);
        let zero = Decomposition::default();
        assert_eq!(est_overhead_percent(&zero), 0.0);
    }

    #[test]
    fn decomp_cells_shape_matches_columns() {
        let r = TraceReport::default();
        assert_eq!(decomp_cells(&r, 10.0).len(), decomp_columns().len());
    }
}
