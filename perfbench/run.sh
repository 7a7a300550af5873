#!/usr/bin/env bash
# Builds the server and the benchmark from this checkout, then runs the
# benchmark with the given arguments:
#   bash perfbench/run.sh --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
# Run it from the repository root. Cargo output goes to stderr; the last
# line of stdout is the result object.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
target="$CARGO_TARGET_DIR"
cargo build --release --offline --quiet --manifest-path Cargo.toml --bin gcx >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$target/release/perfbench" --gcx-bin "$target/release/gcx" "$@"
