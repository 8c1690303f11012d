//! The one list of experiments behind the `empi-bench` binary.
//!
//! Adding an experiment is one row of [`HARNESSES`]; `all` is "every
//! row", so the full reproduction run cannot drift from the set of
//! harnesses. The tools that are not experiments (`tracecheck`, `plot`,
//! `headline`, `shardscale`) keep their own arguments and sit in
//! [`TOOLS`].

use std::process::ExitCode;

use crate::collectives::CollOp;
use crate::common::{BenchOpts, Net, USAGE};
use crate::table::Table;
use crate::{
    chaos, collectives, emit, encdec, extensions, ftol, headline, inflight, multipair,
    multipair_pipe, nasbench, pingpong, pipeline, pipeline_nb, plot, rekey, tail, tracecheck,
};

/// How a harness is driven.
pub enum Runner {
    /// Once per selected network (`--net`).
    PerNet(fn(Net, &BenchOpts) -> Vec<Table>),
    /// Once: the tables do not depend on the network.
    Once(fn(&BenchOpts) -> Vec<Table>),
}

/// One experiment family.
pub struct Harness {
    /// Command-line name.
    pub name: &'static str,
    /// One-line description for `--help`.
    pub about: &'static str,
    /// The table builder.
    pub runner: Runner,
}

impl Harness {
    /// Build the harness's tables under `opts`, print them and persist
    /// them under `opts.out_dir`.
    pub fn run(&self, opts: &BenchOpts) {
        match self.runner {
            Runner::Once(f) => emit(&f(opts), &opts.out_dir),
            Runner::PerNet(f) => {
                for &net in &opts.nets {
                    emit(&f(net, opts), &opts.out_dir);
                }
            }
        }
    }
}

/// Every experiment, in the order `all` runs them.
pub static HARNESSES: [Harness; 14] = [
    Harness {
        name: "encdec",
        about: "FIG-2 / FIG-9 / FIG-2m: AES-GCM enc-dec throughput curves; ABL-CRYPTO ablations",
        runner: Runner::Once(encdec::run),
    },
    Harness {
        name: "pingpong",
        about: "TAB-1 / FIG-3 / TAB-5 / FIG-10: ping-pong throughput",
        runner: Runner::PerNet(pingpong::run_net),
    },
    Harness {
        name: "multipair",
        about: "FIG-4/5/6 and FIG-11/12/13: OSU multi-pair bandwidth",
        runner: Runner::PerNet(multipair::run_net),
    },
    Harness {
        name: "collectives",
        about: "TAB-2/3/6/7 and FIG-7/8/14/15: Encrypted_Bcast and Encrypted_Alltoall",
        runner: Runner::PerNet(|net, opts| {
            let mut tables = collectives::run_net(net, CollOp::Bcast, opts);
            tables.extend(collectives::run_net(net, CollOp::Alltoall, opts));
            tables
        }),
    },
    Harness {
        name: "nas",
        about: "TAB-4 / TAB-8: NAS parallel benchmarks, plain vs encrypted MPI",
        runner: Runner::PerNet(nasbench::run_net),
    },
    Harness {
        name: "pipeline",
        about: "FIG-PIPELINE-CHUNK / -WORKERS: chunked multi-core crypto pipelining sweeps",
        runner: Runner::PerNet(pipeline::run_net),
    },
    Harness {
        name: "pipeline_nb",
        about: "FIG-PIPELINE-NB / TAB-PIPELINE-COLL: pipelining on nonblocking p2p and collectives",
        runner: Runner::PerNet(pipeline_nb::run_net),
    },
    Harness {
        name: "multipair_pipe",
        about: "FIG-MULTIPAIR-PIPE / DECOMP-ALLOC: pipelined multi-pair with the pooled hot path",
        runner: Runner::PerNet(multipair_pipe::run_net),
    },
    Harness {
        name: "chaos",
        about: "TAB-CHAOS / DECOMP-RETRY: seeded fault injection against the retransmit layer",
        runner: Runner::PerNet(chaos::run_net),
    },
    Harness {
        name: "inflight",
        about: "FIG-INFLIGHT: goodput vs in-flight window, per backend, chaos off/on",
        runner: Runner::PerNet(inflight::run_net),
    },
    Harness {
        name: "tail",
        about: "TAB-TAIL / DECOMP-TAIL: latency percentiles and their service-stage split",
        runner: Runner::PerNet(tail::run_net),
    },
    Harness {
        name: "rekey",
        about: "TAB-REKEY / DECOMP-REKEY: handshake, epoch-rotation storms, revocation drill",
        runner: Runner::PerNet(rekey::run_net),
    },
    Harness {
        name: "ftol",
        about: "TAB-FTOL / TAB-FTOL-COLL: failure detection, shrink, survivor re-key",
        runner: Runner::PerNet(ftol::run_net),
    },
    Harness {
        name: "scale",
        about: "EXT-SCALE / EXT-KEYSIZE / EXT-SCALE-RANKS: NAS scalability, key-size parity, big worlds",
        runner: Runner::PerNet(|net, opts| {
            vec![
                extensions::scale_table(net, opts),
                extensions::keysize_table(net, opts),
                extensions::rankscale_table(net, opts),
            ]
        }),
    },
];

/// The harnesses a command-line name stands for: one row, or every row
/// for `all`.
pub fn resolve(name: &str) -> Option<&'static [Harness]> {
    if name == "all" {
        return Some(&HARNESSES);
    }
    let i = HARNESSES.iter().position(|h| h.name == name)?;
    Some(&HARNESSES[i..=i])
}

/// A subcommand that is not an experiment: name, description, the
/// shared flags it reads (any other one is refused before the body
/// runs), body (which gets the arguments after the name).
pub type Tool = (
    &'static str,
    &'static str,
    &'static [&'static str],
    fn(Vec<String>) -> ExitCode,
);

/// The tools, dispatched on the first argument.
pub static TOOLS: [Tool; 4] = [
    (
        "tracecheck",
        "[FILE...]: validate traces and snapshots, each against the contract of its name",
        &[],
        tracecheck::run,
    ),
    (
        "plot",
        "[CSV...]: render figure CSVs as terminal charts",
        &[],
        plot::run,
    ),
    (
        "headline",
        "[--nas] [--shards N]: every number the paper quotes in prose, measured, with a verdict",
        &["--shards"],
        headline::run,
    ),
    (
        "shardscale",
        "[--quick] [--net …] [--out DIR] [--shards N]: TAB-SCALE, NAS-sweep wall-clock, serial vs sharded",
        &["--quick", "--net", "--out", "--shards"],
        nasbench::shardscale,
    ),
];

/// The `--help` text: the registry, the tools and the shared flags.
pub fn help() -> String {
    let mut out = String::from(
        "usage: empi-bench <harness>... [flags]  |  empi-bench <tool> [args]\n\nharnesses:\n",
    );
    for h in &HARNESSES {
        out.push_str(&format!("  {:<15} {}\n", h.name, h.about));
    }
    out.push_str(&format!(
        "  {:<15} every harness above, in that order\n\ntools:\n",
        "all"
    ));
    for (name, about, _, _) in &TOOLS {
        out.push_str(&format!("  {name:<15} {about}\n"));
    }
    out.push_str(&format!("\n{USAGE}\n"));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_all_is_the_whole_table() {
        let mut names: Vec<&str> = HARNESSES.iter().map(|h| h.name).collect();
        names.extend(TOOLS.iter().map(|t| t.0));
        assert!(names.iter().all(|n| !n.is_empty() && *n != "all"));
        let mut uniq = names.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), names.len(), "duplicate name in {names:?}");
        let all: Vec<&str> = resolve("all").unwrap().iter().map(|h| h.name).collect();
        assert_eq!(all, &names[..HARNESSES.len()], "`all` must be every row");
        for h in &HARNESSES {
            let one = resolve(h.name).unwrap();
            assert_eq!((one.len(), one[0].name), (1, h.name));
        }
        assert!(resolve("frobnicate").is_none());
        assert!(resolve("tracecheck").is_none(), "tools are not harnesses");
    }
}
