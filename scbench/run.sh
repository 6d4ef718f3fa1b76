#!/usr/bin/env bash
# Builds scbench from this checkout and runs it.
#
#   scbench/run.sh [--seed N] [--smoke] [--agree]        whole suite
#   scbench/run.sh --workload W --seed N --seconds S --trace 0|1   one run
#
# Fails (non-zero, no result line) when the engine sources are missing.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" --target-dir "$target"
exec "$target/release/scbench" --out "$here/out" "$@"
