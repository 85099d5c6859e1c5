#!/usr/bin/env bash
# Golden-trace determinism gate (CI: the "determinism" job).
#
# Four checks, all byte-exact:
#  1. Same-config repeatability: the integration config run twice must
#     produce identical stats dumps, CSV rows, and .tdt event traces.
#  2. Serial vs parallel: tdram_repro fig01 (8 runs on the
#     SweepRunner pool) with --jobs 1 and --jobs 4 must print identical
#     stdout and write identical per-job traces (trace_tool diff
#     reports the first divergent record otherwise).
#  3. Serial vs parallel reproduction: every figure of tdram_repro
#     with --jobs 1 and --jobs 4 must print identical stdout.
#  4. Canary: a deliberately perturbed copy of a trace MUST be flagged
#     by trace_tool diff — proving the gate can actually fail.
#
# The committed digests of the default engine's output are checked by
# the default_engine_golden_* ctest entries
# (tests/check_default_engine.sh), not here.
#
# Usage: tests/run_determinism.sh [BUILD_DIR]   (default: build)

set -euo pipefail
cd "$(dirname "$0")/.."

BUILD=${1:-build}
CLI="$BUILD/examples/tdram_cli"
TOOL="$BUILD/tools/trace_tool"
REPRO="$BUILD/bench/tdram_repro"

for bin in "$CLI" "$TOOL" "$REPRO"; do
    if [ ! -x "$bin" ]; then
        echo "missing $bin - build the project first" >&2
        exit 2
    fi
done

WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT

echo "=== [1/4] same-config repeatability (tdram_cli run) ==="
for i in 1 2; do
    "$CLI" run is.C TDRAM --ops 4000 --csv --stats \
        --trace "$WORK/run$i.tdt" > "$WORK/run$i.out"
done
cmp "$WORK/run1.out" "$WORK/run2.out" || {
    echo "FAIL: stats/CSV output differs between identical runs"
    exit 1
}
"$TOOL" diff "$WORK/run1.tdt" "$WORK/run2.tdt" || {
    echo "FAIL: event traces differ between identical runs"
    exit 1
}

echo "=== [2/4] serial vs parallel sweep (tdram_repro fig01) ==="
"$REPRO" fig01 --ops 1500 --warmup 20000 --jobs 1 \
    --trace "$WORK/serial" > "$WORK/serial.out"
"$REPRO" fig01 --ops 1500 --warmup 20000 --jobs 4 \
    --trace "$WORK/par" > "$WORK/par.out"
cmp "$WORK/serial.out" "$WORK/par.out" || {
    echo "FAIL: sweep output differs between --jobs 1 and --jobs 4"
    exit 1
}
njobs=0
for f in "$WORK"/serial_job*.tdt; do
    job=$(basename "$f" | sed 's/^serial_//')
    "$TOOL" diff "$f" "$WORK/par_$job" || {
        echo "FAIL: trace $job differs between --jobs 1 and --jobs 4"
        exit 1
    }
    njobs=$((njobs + 1))
done
[ "$njobs" -gt 0 ] || { echo "FAIL: sweep produced no traces"; exit 1; }
echo "($njobs per-job traces identical)"

echo "=== [3/4] serial vs parallel reproduction (tdram_repro) ==="
for jobs in 1 4; do
    "$REPRO" --ops 1500 --warmup 20000 --jobs "$jobs" \
        > "$WORK/repro$jobs.out"
done
cmp "$WORK/repro1.out" "$WORK/repro4.out" || {
    echo "FAIL: tdram_repro output differs between --jobs 1 and --jobs 4"
    exit 1
}

echo "=== [4/4] perturbation canary ==="
cp "$WORK/run1.tdt" "$WORK/perturbed.tdt"
# Flip one byte inside the first record's tick field: the records
# follow the 40 B header and the manifest, whose length is the
# header's last 8-byte word.
manifest=$(od -An -tu8 -j32 -N8 "$WORK/run1.tdt" | tr -d ' ')
printf '\xff' | dd of="$WORK/perturbed.tdt" bs=1 seek=$((40 + manifest)) \
    count=1 conv=notrunc status=none
if "$TOOL" diff "$WORK/run1.tdt" "$WORK/perturbed.tdt" \
    > "$WORK/canary.out"; then
    echo "FAIL: trace_tool diff missed an injected perturbation"
    exit 1
fi
grep -q "first divergence" "$WORK/canary.out" || {
    echo "FAIL: diff flagged the canary without divergence context:"
    cat "$WORK/canary.out"
    exit 1
}
echo "canary detected:"
sed -n '1,3p' "$WORK/canary.out"

echo "determinism gate PASSED"
