#!/usr/bin/env bash
# Builds the remedy CLI (the shard worker sharded pipeline runs spawn) and
# the ledger, then runs one workload:
#
#   bash ledger/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Run from the repository root. Build output goes to standard error; the
# last line of standard output is the ledger's JSON result.
#
# The ledger is a cargo workspace of its own, so left alone the two builds
# would land in two target directories, and the ledger would not find the
# `remedy` worker next to itself. Both therefore build into one directory:
# $CARGO_TARGET_DIR if set (a fresh checkout may be benchmarked with
# CARGO_TARGET_DIR=.bench_build, which the root .gitignore lists), else the
# workspace's own `target`.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$PWD/target}"
target="$CARGO_TARGET_DIR"
cargo build --release --offline --quiet --manifest-path Cargo.toml -p remedy-cli >&2
cargo build --release --offline --quiet --manifest-path ledger/Cargo.toml >&2
exec "$target/release/ledger" bench \
    --work-dir "$target/ledger-work" --out "$target/ledger-out" "$@"
