#!/usr/bin/env bash
# Replay-equivalence gate (CI: the "replay-equivalence" job).
#
# Proves the record-once/replay-many pipeline end to end, byte-exact
# at every step (DESIGN.md §14):
#
#  1. Capture: a synthetic run records a .tdt event trace;
#     `trace_tool convert` projects its demand stream into a .tdtz
#     container.
#  2. Reference run: replaying that container records its own .tdt;
#     converting THAT trace must reproduce the original container
#     byte for byte — the demand stream is a fixed point of
#     capture -> convert -> replay, i.e. the engine issued exactly
#     the recorded requests at the recorded ticks in the recorded
#     order. (Controller-internal schedules may tie-break differently
#     against the synthetic run's front-end events, so the gate pins
#     the request stream, the only thing the container stores.)
#  3. Replay equivalence: capture -> convert -> replay of the
#     reference run reproduces its stats/CSV dump AND its event trace
#     byte-identically, on a first replay and on a rerun.
#  4. Canary: one flipped byte inside a frame payload must make the
#     decoder reject the container (frame checksum) with a nonzero
#     exit — proving the gate can actually fail.
#
# Usage: tests/run_replay_equivalence.sh [BUILD_DIR]   (default: build)

set -euo pipefail
cd "$(dirname "$0")/.."

BUILD=${1:-build}
CLI="$BUILD/examples/tdram_cli"
TOOL="$BUILD/tools/trace_tool"

for bin in "$CLI" "$TOOL"; do
    if [ ! -x "$bin" ]; then
        echo "missing $bin - build the project first" >&2
        exit 2
    fi
done

WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT

run_cli() {  # run_cli <trace> <out> [extra args...]
    local trace=$1 out=$2
    shift 2
    "$CLI" run is.C TDRAM --ops 4000 --warmup 0 --csv --stats \
        --trace "$trace" "$@" > "$out"
}

echo "=== [1/4] capture synthetic run + convert to .tdtz ==="
run_cli "$WORK/cap.tdt" "$WORK/cap.out"
"$TOOL" convert "$WORK/cap.tdt" "$WORK/w.tdtz"
"$TOOL" info "$WORK/w.tdtz"

echo "=== [2/4] demand-stream fixed point ==="
run_cli "$WORK/ref.tdt" "$WORK/ref.out" --replay "$WORK/w.tdtz"
"$TOOL" convert "$WORK/ref.tdt" "$WORK/ref.tdtz"
cmp "$WORK/w.tdtz" "$WORK/ref.tdtz" || {
    echo "FAIL: replay did not reproduce the recorded demand stream"
    echo "      (convert(replay trace) != original container)"
    exit 1
}
echo "convert(replay .tdt) == original .tdtz, byte-identical"

echo "=== [3/4] capture -> convert -> replay, plus a rerun ==="
# ref.tdtz is byte-identical to w.tdtz (step 2); replaying it IS
# replaying the convert of the reference run's capture.
for n in 1 2; do
    run_cli "$WORK/rep$n.tdt" "$WORK/rep$n.out" --replay "$WORK/ref.tdtz"
    cmp "$WORK/ref.out" "$WORK/rep$n.out" || {
        echo "FAIL: stats/CSV differ from the capture run (replay $n)"
        exit 1
    }
    "$TOOL" diff "$WORK/ref.tdt" "$WORK/rep$n.tdt" > /dev/null || {
        echo "FAIL: event trace differs from the capture run" \
             "(replay $n)"
        exit 1
    }
    echo "replay $n: stats and trace byte-identical to capture"
done

echo "=== [4/4] corrupt-frame canary ==="
cp "$WORK/w.tdtz" "$WORK/bad.tdtz"
# Flip one byte of frame 0's payload: 32 B file header + 24 B frame
# header + 20 into the payload.
orig=$(dd if="$WORK/bad.tdtz" bs=1 skip=76 count=1 status=none \
       | od -An -tu1 | tr -d ' ')
printf "\\$(printf '%03o' $(( (orig ^ 0x5a) & 0xff )))" \
    | dd of="$WORK/bad.tdtz" bs=1 seek=76 count=1 conv=notrunc \
         status=none
cmp -s "$WORK/w.tdtz" "$WORK/bad.tdtz" && {
    echo "FAIL: canary byte flip was a no-op"
    exit 1
}
if run_cli "$WORK/bad.tdt" "$WORK/bad.out" \
    --replay "$WORK/bad.tdtz" 2> "$WORK/bad.err"; then
    echo "FAIL: decoder accepted a corrupted container"
    exit 1
fi
grep -qi "checksum" "$WORK/bad.err" || {
    echo "FAIL: rejection did not mention the frame checksum:"
    cat "$WORK/bad.err"
    exit 1
}
echo "canary detected:"
sed -n '1p' "$WORK/bad.err"

echo "replay-equivalence gate PASSED"
