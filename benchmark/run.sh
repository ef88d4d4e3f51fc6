#!/usr/bin/env bash
# Builds the ppmark harness (release, offline) and runs it with the given
# arguments. See benchmark/README.md.
#
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1   one workload
#   benchmark/run.sh [--seed N] [--repeat R] [--smoke]               all four, result.json
#   benchmark/run.sh compare BASE.json NEW.json
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")

# Cargo resolves a relative CARGO_TARGET_DIR against the directory it is
# called from; pin it so the binary is found afterwards.
target=${CARGO_TARGET_DIR:-$root/target}
case $target in
/*) ;;
*) target=$PWD/$target ;;
esac

# Compilation is excluded from every metric: it finishes before the
# harness starts its clocks.
CARGO_TARGET_DIR=$target cargo build --release --offline --quiet \
    --manifest-path "$here/Cargo.toml" >&2

PPMARK_DIR=$here exec "$target/release/ppmark" "$@"
