#!/usr/bin/env bash
# The benchmark's one command: build, run, print the tables, write the
# results. Run it from the root of the repository.
#
#   benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#   benchmark/run.sh [suite|check|compare <a> <b>|manifest] [...]
#
# With no arguments it runs the whole suite (`--help` says more). The
# build goes to $CARGO_TARGET_DIR, or to benchmark/target when unset.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
export CARGO_TARGET_DIR=${CARGO_TARGET_DIR:-$here/target}

start=$(date +%s%N)
cargo build --release --quiet --manifest-path "$here/Cargo.toml" >&2
build_ms=$(( ($(date +%s%N) - start) / 1000000 ))
export EMPI_BENCH_BUILD_S=$(( build_ms / 1000 )).$(printf '%03d' $(( build_ms % 1000 )))

exec "$CARGO_TARGET_DIR/release/empi-benchmark" "$@"
