#!/bin/sh
# Golden matrix for the default engine: the source of truth for "the
# simulated behaviour did not change".
#
# Every design x page policy x workload below runs through
#   tdram_cli run <w> <design> --ops 1500 --csv --stats --check
#             [--open-page] --trace <tmp>.tdt
# and the sha256 of its stdout (CSV row + full stats tree) and of its
# .tdt event trace's records must equal the row in the golden file
# (tests/goldens/default_engine.sha256, "<w> <design> <page> <stdout
# sha> <trace sha>"). The trace sha covers the records only, not the
# header and the manifest, which names the page policy: NDC, TDRAM
# and TDRAM-noprobe never precharge on a page-policy basis, so the
# golden file holds only their closed-page row and the open-page run
# must hash to it. Each trace is deleted as soon as it is hashed (the
# full matrix writes ~125 MB).
#
# Usage:
#   check_default_engine.sh <tdram_cli> <golden> check <workload>
#   check_default_engine.sh <tdram_cli> <golden> canary
#   check_default_engine.sh <tdram_cli> <golden> generate > <golden>
# "canary" proves the gate can fail: one byte flipped in a cell's
# stdout, and separately in its trace, must each fail the comparison.

set -u

CLI=$1
GOLDEN=$2
MODE=$3

WORKLOADS="is.D mg.D bfs.22"
DESIGNS="CascadeLake Alloy BEAR NDC TDRAM TDRAM-noprobe Ideal NoCache
TicToc Banshee"
PAGE_INVARIANT=" NDC TDRAM TDRAM-noprobe "

. "$(dirname "$0")/golden_lib.sh"

[ -x "$CLI" ] || { echo "FAIL: missing $CLI"; exit 1; }

WORK=$(mktemp -d) || exit 1
trap 'rm -rf "$WORK"' EXIT

# run_cell <workload> <design> <closed|open>: leaves $WORK/cell.out
# and the trace's records, $WORK/cell.rec, behind; exits the script
# on a failed run. The records follow the 40-byte header and the
# manifest, whose length is the header's last 8-byte word.
run_cell()
{
    page_flag=""
    [ "$3" = open ] && page_flag=--open-page
    "$CLI" run "$1" "$2" --ops 1500 --csv --stats --check $page_flag \
        --trace "$WORK/cell.tdt" > "$WORK/cell.out" || {
        echo "FAIL: $1 $2 $3 exited nonzero"
        exit 1
    }
    manifest=$(od -An -tu8 -j32 -N8 "$WORK/cell.tdt" | tr -d ' ')
    tail -c +$((40 + manifest + 1)) "$WORK/cell.tdt" > "$WORK/cell.rec"
    rm -f "$WORK/cell.tdt"
}

# check_cell <workload> <design> <page>: hashes $WORK/cell.{out,rec}
# against the cell's golden row (the closed-page row for a
# page-invariant design); nonzero (with a message) on any mismatch.
check_cell()
{
    page=$3
    case "$PAGE_INVARIANT" in *" $2 "*) page=closed ;; esac
    compare "$GOLDEN" "$1 $2 $page" "$WORK/cell.out" "$WORK/cell.rec"
}

case "$MODE" in
check)
    wl=$4
    fails=0
    for d in $DESIGNS; do
        for p in closed open; do
            run_cell "$wl" "$d" "$p"
            check_cell "$wl" "$d" "$p" || fails=$((fails + 1))
        done
    done
    [ "$fails" -eq 0 ] || { echo "$fails cell(s) of $wl diverged"; exit 1; }
    echo "$wl: all 20 cells match $GOLDEN"
    ;;
canary)
    run_cell is.D TDRAM closed
    check_cell is.D TDRAM closed || exit 1
    # Flip one byte inside the first record's tick field, then one
    # byte of the CSV row in the stdout.
    expect_flip_detected "$WORK/cell.rec" 0 check_cell is.D TDRAM closed
    expect_flip_detected "$WORK/cell.out" 200 check_cell is.D TDRAM closed
    echo "canary: flipped stdout and trace bytes both detected"
    ;;
generate)
    for wl in $WORKLOADS; do
        for d in $DESIGNS; do
            for p in closed open; do
                run_cell "$wl" "$d" "$p"
                row="$(sha "$WORK/cell.out") $(sha "$WORK/cell.rec")"
                case "$PAGE_INVARIANT" in
                *" $d "*)
                    if [ "$p" = closed ]; then
                        closed_row=$row
                        echo "$wl $d closed $row"
                    elif [ "$row" != "$closed_row" ]; then
                        echo "FAIL: $wl $d open-page != closed-page" >&2
                        exit 1
                    fi
                    ;;
                *) echo "$wl $d $p $row" ;;
                esac
            done
        done
    done
    ;;
*)
    echo "usage: $0 <tdram_cli> <golden> check <workload>|canary|generate"
    exit 2
    ;;
esac
