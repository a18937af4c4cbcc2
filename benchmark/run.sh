#!/usr/bin/env bash
# The repository's benchmark in one command; see README.md beside this
# file. Builds the harness and `dhdl-serve` in release mode (offline),
# then hands every argument to the harness:
#
#   benchmark/run.sh                      every workload, untraced then traced
#   benchmark/run.sh --runs 10            ... ten seeds each, with spreads
#   benchmark/run.sh --repeat             the untraced set twice, compared
#   benchmark/run.sh --workload fuzz --seed 3 --seconds 10 --trace 0
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cd "$here/.."
target="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" \
    -p dhdl-benchmark -p dhdl-serve >&2
exec "$target/release/dhdl-benchmark" --out "$here/out" "$@"
