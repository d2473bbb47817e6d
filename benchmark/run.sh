#!/usr/bin/env bash
# The benchmark's command: build the program under test and the harness
# from this checkout, then hand every argument to the harness.
#
#   bash benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#   bash benchmark/run.sh all | check | expected
#
# Run from the repository root. Both builds go to one target directory
# ($CARGO_TARGET_DIR, default .bench_build), because the harness looks
# for `pypmc` beside itself.
set -euo pipefail

if [[ ! -f Cargo.toml || ! -f benchmark/harness/Cargo.toml ]]; then
    echo "benchmark/run.sh: run from the root of a full checkout" >&2
    exit 2
fi
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
# Cargo's progress goes to stderr; stdout is the harness's alone.
cargo build --release --offline --quiet --bin pypmc >&2
cargo build --release --offline --quiet --manifest-path benchmark/harness/Cargo.toml >&2
case "$CARGO_TARGET_DIR" in
    /*) bin="$CARGO_TARGET_DIR/release/pypm_benchmark" ;;
    *) bin="./$CARGO_TARGET_DIR/release/pypm_benchmark" ;;
esac
exec "$bin" "$@"
