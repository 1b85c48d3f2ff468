#!/usr/bin/env bash
# Builds the release `mmt` binary and the benchmark driver from source,
# then runs one benchmark run:
#
#   bash servebench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run from the repository root. Build output goes to $CARGO_TARGET_DIR
# (default `.bench_build`); the run's scratch files go to `.bench_run/`.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f Cargo.toml ] || [ ! -d crates/cli ]; then
    echo "servebench: $(pwd) holds no mmt workspace to build" >&2
    exit 2
fi
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet -p mmt-cli >&2
cargo build --release --offline --quiet --manifest-path servebench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/servebench" --mmt "$CARGO_TARGET_DIR/release/mmt" "$@"
