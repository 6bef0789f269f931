#!/usr/bin/env bash
# Runs `cargo test --release ARGS...` and fails when the filter ran no
# test at all, so a renamed test cannot turn a CI step into a silent no-op.
#
#   .github/named-test.sh -p clan-core requeued_runs_are_re_encoded
set -euo pipefail
log=$(mktemp)
cargo test --release "$@" 2>&1 | tee "$log"
ran=$(sed -n 's/^test result: [a-zA-Z]*\. \([0-9]*\) passed; \([0-9]*\) failed.*/\1 \2/p' "$log" |
    awk '{ n += $1 + $2 } END { print n + 0 }')
if [ "$ran" -eq 0 ]; then
    echo "cargo test --release $*: the filter ran no test" >&2
    exit 1
fi
