#!/usr/bin/env bash
# The benchmark's one command: builds the standalone crate (offline, into
# its own target directory, so the root workspace is untouched) and runs
# it with the arguments given.
#
#   benchmark/run.sh [--seed S] [--seconds N]       every workload, both passes
#   benchmark/run.sh --smoke                        tiny sizes, checks on (CI)
#   benchmark/run.sh --workload NAME --seed S --seconds N --trace 0|1
#   benchmark/run.sh compare A.json B.json
#
# Exits non-zero when the build fails or any operation or check fails.
set -euo pipefail
cd "$(dirname "$0")/.."
target="${CARGO_TARGET_DIR:-target/benchmark}"
# Cargo's progress goes to stderr; stdout carries only the results.
cargo build --release --offline --quiet \
    --manifest-path benchmark/Cargo.toml --target-dir "$target" >&2
exec "$target/release/clan-benchmark" "$@"
