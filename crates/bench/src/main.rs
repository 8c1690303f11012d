//! `empi-bench` — the one runner of the benchmark suite:
//!
//! ```bash
//! cargo run --release -p empi-bench -- <harness>... [--quick] [--net ethernet|infiniband|both] \
//!     [--trace] [--out DIR] [--reps MIN,MAX] [--sizes small|large|all] [--shards N]
//! cargo run --release -p empi-bench -- all --quick      # every harness
//! cargo run --release -p empi-bench -- tracecheck       # a tool, with its own arguments
//! cargo run --release -p empi-bench -- --help           # the registry
//! ```

use std::process::ExitCode;

use empi_bench::common::usage_err;
use empi_bench::registry::{self, Harness};
use empi_bench::BenchOpts;

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        print!("{}", registry::help());
        return ExitCode::SUCCESS;
    }
    let first = args.first().map_or("", |a| a.as_str());
    if let Some((_, _, tool)) = registry::TOOLS.iter().find(|t| t.0 == first) {
        return tool(args.split_off(1));
    }
    // Leading words name harnesses; the shared flags follow.
    let names = args.iter().take_while(|a| !a.starts_with('-')).count();
    let flags = args.split_off(names);
    if args.is_empty() {
        usage_err("no harness named (try --help)");
    }
    let mut selected: Vec<&Harness> = Vec::new();
    for name in &args {
        match registry::resolve(name) {
            Some(rows) => selected.extend(rows),
            None => usage_err(&format!("unknown harness '{name}' (try --help)")),
        }
    }
    let opts = BenchOpts::parse(flags.into_iter());
    for h in selected {
        h.run(&opts);
    }
    ExitCode::SUCCESS
}
