#!/bin/sh
# Golden check of tdram_repro: one all-figure run at the quick budget
#   tdram_repro --ops 1500 --warmup 20000
# is split at its "==> <figure> <==" lines, and the sha256 of each
# figure's table must equal its row in the golden file
# (tests/goldens/repro_quick.sha256, "<figure> <stdout sha>"). The
# rows were generated from the per-figure binaries that tdram_repro
# replaced, so every table stays byte-identical to theirs.
#
# Usage:
#   check_repro.sh <tdram_repro> <golden> check
#   check_repro.sh <tdram_repro> <golden> canary
#   check_repro.sh <tdram_repro> <golden> generate > <golden>
# "canary" proves the gate can fail: one flipped byte in a figure's
# table must fail the comparison.

set -u

REPRO=$1
GOLDEN=$2
MODE=$3

. "$(dirname "$0")/golden_lib.sh"

[ -x "$REPRO" ] || { echo "FAIL: missing $REPRO"; exit 1; }

WORK=$(mktemp -d) || exit 1
trap 'rm -rf "$WORK"' EXIT

# run_split [figure...]: one driver run at the quick budget; leaves
# each figure's table in $WORK/<figure>.out and the figure names, in
# output order, in $WORK/figures. Needs two or more figures (all of
# them when none is named), so that every table has its header line.
run_split()
{
    "$REPRO" "$@" --ops 1500 --warmup 20000 > "$WORK/all" || {
        echo "FAIL: tdram_repro $* exited nonzero"
        exit 1
    }
    awk -v dir="$WORK" '/^==> .* <==$/ { f = dir "/" $2 ".out"; print $2; next }
                        { print > f }' "$WORK/all" > "$WORK/figures"
}

case "$MODE" in
check)
    run_split
    fails=0
    for fig in $(cut -d' ' -f1 "$GOLDEN"); do
        compare "$GOLDEN" "$fig" "$WORK/$fig.out" || fails=$((fails + 1))
    done
    want=$(wc -l < "$GOLDEN")
    got=$(wc -l < "$WORK/figures")
    [ "$got" -eq "$want" ] || {
        echo "FAIL: the run printed $got figures, the golden file has $want"
        exit 1
    }
    [ "$fails" -eq 0 ] || { echo "$fails figure(s) diverged"; exit 1; }
    echo "all $want figures match $GOLDEN"
    ;;
canary)
    # The two figures that need no simulation keep the canary fast.
    run_split fig04 fig05_07
    compare "$GOLDEN" fig04 "$WORK/fig04.out" || exit 1
    expect_flip_detected "$WORK/fig04.out" 100 \
        compare "$GOLDEN" fig04 "$WORK/fig04.out"
    echo "canary: a flipped byte in a figure's table was detected"
    ;;
generate)
    run_split
    while read -r fig; do
        echo "$fig $(sha "$WORK/$fig.out")"
    done < "$WORK/figures"
    ;;
*)
    echo "usage: $0 <tdram_repro> <golden> check|canary|generate"
    exit 2
    ;;
esac
