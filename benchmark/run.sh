#!/usr/bin/env bash
# One command for the whole benchmark (see README.md):
#
#   benchmark/run.sh [--seed N] [--workload W] [--smoke] [--repeat K]
#       builds, runs every workload in its own process (untraced, then
#       traced), prints every metric, writes benchmark/out/results.json
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#       one run; the result is the last line of stdout (driver contract)
#   benchmark/run.sh compare A.json B.json
#       applies each metric's own bound and gates the exact simulated
#       values; exits non-zero on `worse`
#   benchmark/run.sh contract | metrics
#       prints BENCHMARK.json as src/catalog.rs defines it | every metric
#       with its unit, direction, bound and the number it should move
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"

# The package is a workspace of its own: building it leaves the root
# workspace untouched. Offline, because the simulator's crates are path
# dependencies and nothing else is needed. Cargo's chatter goes to stderr
# so stdout stays the benchmark's.
target="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
bin="$target/release/selftune-benchmark"

case "${1:-}" in
compare)
    shift
    exec "$bin" compare "$@"
    ;;
contract | metrics | -h | --help | help)
    exec "$bin" "$1"
    ;;
esac

for arg in "$@"; do
    if [[ "$arg" == "--trace" ]]; then
        exec "$bin" run "$@" --out-dir "$here/out"
    fi
done
exec "$bin" all "$@" --out-dir "$here/out"
