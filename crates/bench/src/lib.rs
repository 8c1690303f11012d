//! # empi-bench — harnesses reproducing every table and figure of the
//! CLUSTER'19 encrypted-MPI study
//!
//! One module per experiment family and one binary, `empi-bench`, over
//! the [`registry`] that lists them (`all` = every row of it); the
//! tools that are not experiments ([`tracecheck`], [`plot`],
//! [`headline`] and `shardscale` in [`nasbench`]) are its
//! subcommands. Every run parameter is an argument: the binary reads
//! its flags once into a [`BenchOpts`], and each runner that builds a
//! world takes the carrier count (`--shards`) explicitly. The per-experiment index (which module regenerates
//! which paper artifact) lives in DESIGN.md §4; measured-vs-paper
//! comparisons live in EXPERIMENTS.md.
//!
//! | module | paper artifacts |
//! |---|---|
//! | [`encdec`] | Fig. 2, Fig. 9; ABL-CRYPTO (the host-time crypto ablations) |
//! | [`pingpong`] | Table I, Fig. 3, Table V, Fig. 10 |
//! | [`multipair`] | Figs. 4–6, Figs. 11–13 |
//! | [`collectives`] | Tables II/III/VI/VII, Figs. 7/8/14/15 |
//! | [`nasbench`] | Table IV, Table VIII |
//! | [`pipeline`] | FIG-PIPELINE-* (beyond the paper: chunked multi-core crypto offload) |
//! | [`pipeline_nb`] | FIG-PIPELINE-NB, TAB-PIPELINE-COLL (pipelined nonblocking p2p + collectives) |
//! | [`multipair_pipe`] | FIG-MULTIPAIR-PIPE, DECOMP-ALLOC (zero-copy pooled hot path under multi-pair contention) |
//! | [`tail`] | TAB-TAIL, DECOMP-TAIL (latency distributions from the metrics plane, chaos off/on) |
//! | [`inflight`] | FIG-INFLIGHT, FIG-INFLIGHT-CHAOS (goodput vs outstanding-isend window via the completion-set API) |
//! | [`rekey`] | TAB-REKEY, DECOMP-REKEY (seeded handshake, epoch-rotation storms, revocation drill) |
//! | [`ftol`] | TAB-FTOL, TAB-FTOL-COLL (failure detection, ULFM-style shrink, survivor re-key, collectives under crash) |
//!
//! [`frame`] holds the one frame the plain-vs-encrypted runners share —
//! the layer is picked once per rank and each blocking traffic shape is
//! written once against it.
//!
//! Each table cell is one call of its runner: a cell is a virtual-time
//! result that every run prints bit for bit, so the paper's
//! repeat-until-σ ≤ 5 % loop would only average copies of one number.
//! [`stats`] holds the Fleming–Wallace overhead aggregation; [`table`]
//! renders paper-style tables plus CSV/JSON files; [`tracing`] powers
//! the `--trace` decomposition path shared by every harness (see
//! EXPERIMENTS.md, "Tracing & decomposition").

pub mod chaos;
pub mod collectives;
pub mod common;
pub mod encdec;
pub mod extensions;
pub mod frame;
pub mod ftol;
pub mod headline;
pub mod inflight;
pub mod multipair;
pub mod multipair_pipe;
pub mod nasbench;
pub mod pingpong;
pub mod pipeline;
pub mod pipeline_nb;
pub mod plot;
pub mod registry;
pub mod rekey;
pub mod stats;
pub mod table;
pub mod tail;
pub mod tracecheck;
pub mod tracing;

use std::path::Path;

pub use common::{BenchOpts, Net};
pub use table::Table;

/// File stem derived from a table title (the `TAB-1`-style prefix).
pub fn artifact_stem(title: &str) -> String {
    title
        .split(':')
        .next()
        .unwrap_or("table")
        .trim()
        .to_lowercase()
        .replace([' ', '/'], "_")
}

/// Print tables and persist them as CSV + JSON under `out_dir`.
pub fn emit(tables: &[Table], out_dir: &Path) {
    for t in tables {
        t.print();
        let file = artifact_stem(&t.title);
        if let Err(e) = t.write_csv(out_dir.join(format!("{file}.csv"))) {
            eprintln!("warning: could not write CSV: {e}");
        }
        if let Err(e) = t.write_json(out_dir.join(format!("{file}.json"))) {
            eprintln!("warning: could not write JSON: {e}");
        }
    }
}
