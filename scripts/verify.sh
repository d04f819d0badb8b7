#!/usr/bin/env bash
# Full verification gate: release build, the whole test suite, lints,
# formatting, doc warnings, and the ordered-radius ablation plan (cold
# run, then a warm run that must replay from cache). Run before sending
# a PR.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release --workspace   # includes the remedy CLI binary
cargo test -q --workspace
# the benchmark in ledger/ is a package of its own that calls the core
# API directly: build it and run its tests into the target directory
# ledger/run.sh uses, so an API change that breaks the benchmark fails here
CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$PWD/target}" \
    cargo test --release --offline --manifest-path ledger/Cargo.toml
# the deterministic fault-injection suites (retry, panic containment,
# kill-then-resume) only compile under the failpoints feature
cargo test -q -p remedy-pipeline --features failpoints
cargo test -q -p remedy-cli --features failpoints
cargo test -q -p remedy-serve --features failpoints
# counting-engine property suite (edit interleavings vs rebuild, remedy
# byte-parity with the scan baseline) ...
cargo test -q -p remedy-core --test counting_props
# ... and the release-mode timing smoke check: the incremental remedy
# must not be slower than the per-node scan it replaced
cargo test -q --release -p remedy-core --test counting_props -- --ignored
# support-pruned enumeration: byte-parity with dense in release mode
# (where the debug overflow checks that caught the packed-key wrap are
# off), plus the sub-second p=24 identify the dense lattice refuses
cargo test -q --release -p remedy-core --test pruned_props
cargo test -q --release -p remedy-core --test pruned_props -- --ignored
cargo clippy --workspace -- -D warnings
cargo fmt --check
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

# the Fig. 8 ordered ablation must run end to end, and a second run must
# be served entirely from the artifact cache
cache="$(mktemp -d)"
trap 'rm -rf "$cache"' EXIT
target/release/remedy pipeline examples/plans/ordered_ablation.plan \
    --cache "$cache" >/dev/null
warm="$(target/release/remedy pipeline examples/plans/ordered_ablation.plan \
    --cache "$cache")"
if printf '%s\n' "$warm" | grep -q '^computed'; then
    echo "verify: FAIL — warm ablation re-run recomputed a stage:" >&2
    printf '%s\n' "$warm" >&2
    exit 1
fi
target/release/remedy cache gc --cache "$cache" --max-bytes 0 >/dev/null

# persistence: populate a cache from an exact-text source, convert the
# source file to binary columnar in place, and require the warm run to
# replay every stage — a conversion must never invalidate a cache
conv="$(mktemp -d)"
trap 'rm -rf "$cache" "$conv"' EXIT
target/release/remedy generate compas --rows 800 --out "$conv/data.csv" >/dev/null
target/release/remedy convert "$conv/data.csv" "$conv/data.remedy" \
    --format text --label recid --protected age,race,sex >/dev/null
cat > "$conv/plan.txt" <<EOF
dataset $conv/data.remedy
seed 7
label recid
protected age,race,sex
branch base technique=none model=dt
branch ps technique=ps model=dt
EOF
target/release/remedy pipeline "$conv/plan.txt" --cache "$conv/cache" >/dev/null
target/release/remedy convert "$conv/data.remedy" "$conv/data.remedy" \
    --format binary >/dev/null
head -c 18 "$conv/data.remedy" | grep -q 'remedy-columnar' || {
    echo "verify: FAIL — convert did not write a columnar artifact" >&2
    exit 1
}
warm="$(target/release/remedy pipeline "$conv/plan.txt" --cache "$conv/cache")"
if printf '%s\n' "$warm" | grep -q '^computed'; then
    echo "verify: FAIL — binary-converted source recomputed a cached stage:" >&2
    printf '%s\n' "$warm" >&2
    exit 1
fi

# binary cold-load smoke past the dense ceiling: a wide dataset written
# as a columnar artifact identifies straight off the file (the artifact
# carries its schema, so no --label/--protected), pruned only
target/release/remedy generate wide --rows 5000 --arity 20 \
    --format binary --out "$conv/wide.bin" >/dev/null
target/release/remedy identify "$conv/wide.bin" --pruned >/dev/null
if target/release/remedy identify "$conv/wide.bin" 2>/dev/null; then
    echo "verify: FAIL — dense identify accepted a 20-wide artifact" >&2
    exit 1
fi

# past the dense arity ceiling (16) only the pruned enumeration answers:
# p=20 identify must succeed with --pruned and refuse without it
target/release/remedy identify wide --arity 20 --rows 5000 --pruned >/dev/null
if target/release/remedy identify wide --arity 20 --rows 5000 2>/dev/null; then
    echo "verify: FAIL — dense identify accepted 20 protected attributes" >&2
    exit 1
fi
# pruned-parity smoke on a dense-servable dataset: both modes must print
# identical region reports
dense_out="$(target/release/remedy identify compas --tau 0.05 --min-size 20)"
pruned_out="$(target/release/remedy identify compas --tau 0.05 --min-size 20 --pruned)"
if [ "$dense_out" != "$pruned_out" ]; then
    echo "verify: FAIL — pruned identify diverged from dense output" >&2
    exit 1
fi

# corrupt-then-recover: flip one byte in a cached artifact; the next run
# must quarantine the damaged entry and recompute, still exiting 0
cache2="$(mktemp -d)"
trap 'rm -rf "$cache" "$cache2"' EXIT
target/release/remedy pipeline examples/plans/ordered_ablation.plan \
    --cache "$cache2" >/dev/null
artifact="$(find "$cache2" -mindepth 2 -name artifact | head -n1)"
printf 'x' >>"$artifact"
target/release/remedy pipeline examples/plans/ordered_ablation.plan \
    --cache "$cache2" >/dev/null
if [ -z "$(ls -A "$cache2/quarantine" 2>/dev/null)" ]; then
    echo "verify: FAIL — corrupted cache entry was not quarantined" >&2
    exit 1
fi

# serve smoke test: start the daemon on an ephemeral port, drive one
# load/ingest/identify/shutdown session through `remedy client`, and
# require a clean exit from both processes
serve_log="$(mktemp)"
trap 'rm -rf "$cache" "$cache2" "$serve_log"' EXIT
target/release/remedy serve --addr 127.0.0.1:0 >"$serve_log" &
serve_pid=$!
addr=""
for _ in $(seq 1 100); do
    addr="$(sed -n 's/^remedy-serve listening on //p' "$serve_log")"
    [ -n "$addr" ] && break
    sleep 0.1
done
if [ -z "$addr" ]; then
    echo "verify: FAIL — remedy serve never reported its address" >&2
    kill "$serve_pid" 2>/dev/null || true
    exit 1
fi
target/release/remedy client "$addr" \
    '{"op":"load","session":"smoke","source":"compas","rows":300,"seed":7}' \
    '{"op":"ingest","session":"smoke","edits":[{"kind":"flip","row":0}]}' \
    '{"op":"identify","session":"smoke"}' \
    '{"op":"shutdown"}' >/dev/null
if ! wait "$serve_pid"; then
    echo "verify: FAIL — remedy serve exited non-zero after shutdown" >&2
    exit 1
fi

# crash-recovery smoke: stream edits into a durable (--data-dir) daemon,
# SIGKILL it with no shutdown step, restart it over the same directory,
# and require the recovered identify output to be byte-identical to an
# in-memory daemon replaying the same load + edit history from scratch
ddir="$(mktemp -d)"
trap 'rm -rf "$cache" "$cache2" "$serve_log" "$ddir"' EXIT
serve_addr() { # <logfile> — poll for the printed ephemeral address
    local log="$1" addr="" i
    for i in $(seq 1 100); do
        addr="$(sed -n 's/^remedy-serve listening on //p' "$log")"
        [ -n "$addr" ] && { echo "$addr"; return 0; }
        sleep 0.1
    done
    return 1
}
crash_history=(
    '{"op":"load","session":"crash","source":"compas","rows":300,"seed":7}'
    '{"op":"ingest","session":"crash","edits":[{"kind":"flip","row":0},{"kind":"duplicate","src":1}]}'
    '{"op":"ingest","session":"crash","edits":[{"kind":"remove","rows":[2,3]}]}'
    '{"op":"ingest","session":"crash","edits":[{"kind":"flip","row":5}]}'
)
# --snapshot-every 2 puts a rotated snapshot at epoch 2 and leaves the
# third batch in the WAL tail, so recovery exercises both layers
target/release/remedy serve --addr 127.0.0.1:0 --data-dir "$ddir/sessions" \
    --snapshot-every 2 >"$ddir/serve1.log" &
crash_pid=$!
addr="$(serve_addr "$ddir/serve1.log")" || {
    echo "verify: FAIL — durable serve never reported its address" >&2
    exit 1
}
target/release/remedy client "$addr" "${crash_history[@]}" >/dev/null
kill -9 "$crash_pid"
wait "$crash_pid" 2>/dev/null || true
target/release/remedy serve --addr 127.0.0.1:0 --data-dir "$ddir/sessions" \
    >"$ddir/serve2.log" &
recover_pid=$!
addr="$(serve_addr "$ddir/serve2.log")" || {
    echo "verify: FAIL — recovering serve never reported its address" >&2
    exit 1
}
recovered="$(target/release/remedy client "$addr" \
    '{"op":"identify","session":"crash"}')"
target/release/remedy client "$addr" '{"op":"shutdown"}' >/dev/null
if ! wait "$recover_pid"; then
    echo "verify: FAIL — recovering serve exited non-zero after shutdown" >&2
    exit 1
fi
target/release/remedy serve --addr 127.0.0.1:0 >"$ddir/serve3.log" &
ref_pid=$!
addr="$(serve_addr "$ddir/serve3.log")" || {
    echo "verify: FAIL — reference serve never reported its address" >&2
    exit 1
}
target/release/remedy client "$addr" "${crash_history[@]}" >/dev/null
reference="$(target/release/remedy client "$addr" \
    '{"op":"identify","session":"crash"}')"
target/release/remedy client "$addr" '{"op":"shutdown"}' >/dev/null
wait "$ref_pid" || true
if [ "$recovered" != "$reference" ]; then
    echo "verify: FAIL — recovered identify diverged from the cold rebuild" >&2
    printf 'recovered: %s\nreference: %s\n' "$recovered" "$reference" >&2
    exit 1
fi

# shard parity: the same adult-10k plan run --shards 4 (real
# pipeline-worker subprocesses) and --shards 1 must store the identify
# artifact under the same key with byte-identical text, and warm reruns
# of both caches must replay every stage
shdir="$(mktemp -d)"
trap 'rm -rf "$cache" "$cache2" "$serve_log" "$ddir" "$shdir"' EXIT
cat > "$shdir/plan.txt" <<EOF
dataset adult
rows 10000
seed 7
tau 0.1
min-size 30
branch base technique=none model=dt
EOF
target/release/remedy pipeline "$shdir/plan.txt" --cache "$shdir/c1" \
    --shards 1 >/dev/null
target/release/remedy pipeline "$shdir/plan.txt" --cache "$shdir/c4" \
    --shards 4 --threads 4 >/dev/null
id1=("$shdir"/c1/identify-*)
id4=("$shdir"/c4/identify-*)
if [ "$(basename "${id1[0]}")" != "$(basename "${id4[0]}")" ]; then
    echo "verify: FAIL — sharded run changed the identify cache key" >&2
    exit 1
fi
if ! cmp -s "${id1[0]}/artifact" "${id4[0]}/artifact" ||
    ! cmp -s "${id1[0]}/hash" "${id4[0]}/hash"; then
    echo "verify: FAIL — sharded identify artifact diverged from --shards 1" >&2
    exit 1
fi
for c in c1 c4; do
    warm="$(target/release/remedy pipeline "$shdir/plan.txt" \
        --cache "$shdir/$c" --shards "${c#c}")"
    if printf '%s\n' "$warm" | grep -q '^computed'; then
        echo "verify: FAIL — warm sharded rerun ($c) recomputed a stage:" >&2
        printf '%s\n' "$warm" >&2
        exit 1
    fi
done

# worker-crash retry: rebuild with the failpoint registry compiled in,
# arm one transient death of shard 0's worker (the parent spawns the
# real subprocess and kills it), and require the retried run to succeed
# with output byte-identical to the --shards 1 baseline
cargo build --release -p remedy-cli --features failpoints
REMEDY_FAILPOINTS='shard.worker.s0=err(1)' \
    target/release/remedy pipeline "$shdir/plan.txt" --cache "$shdir/cfail" \
    --shards 4 --retries 2 --retry-base-ms 1 >/dev/null
idf=("$shdir"/cfail/identify-*)
if ! cmp -s "${id1[0]}/artifact" "${idf[0]}/artifact"; then
    echo "verify: FAIL — post-crash sharded artifact diverged from baseline" >&2
    exit 1
fi

echo "verify: OK"
