#!/bin/sh
# Offline audits of the traces the drivers write. Each .tdt carries a
# manifest that describes its run (design, main-memory channels and
# every DramCacheConfig field), so a plain `trace_tool check <trace>`
# must audit it clean, and a trace whose manifest cannot describe its
# run must be refused with the file and the fault named.
#
# Usage:
#   check_trace_audit.sh <trace_tool> ablation <tdram_repro>
#       tdram_repro ablation_conditional writes 16 traces (TDRAM with
#       the conditional column on and off); every one must audit
#       clean.
#   check_trace_audit.sh <trace_tool> refuse <tdram_cli> <case>
#       <case> is v1, v2, truncated, unknown-key, out-of-range or
#       channels: a fresh TDRAM trace, patched that way, must be
#       refused with a nonzero exit and a message naming the file and
#       the fault.

set -u

TOOL=$1
MODE=$2
DRIVER=$3

WORK=$(mktemp -d) || exit 1
trap 'rm -rf "$WORK"' EXIT

# patch_after <file> <text> <byte>: overwrite the byte just after the
# first occurrence of <text> in <file> with <byte>.
patch_after()
{
    _off=$(grep -boaF -- "$2" "$1" | head -n 1 | cut -d: -f1)
    [ -n "$_off" ] || { echo "FAIL: '$2' not found in $1"; exit 1; }
    printf '%s' "$3" | dd of="$1" bs=1 seek=$((_off + ${#2})) count=1 \
        conv=notrunc 2>/dev/null
}

case "$MODE" in
ablation)
    "$DRIVER" ablation_conditional --ops 300 --warmup 2000 \
        --trace "$WORK/cond" > /dev/null || {
        echo "FAIL: tdram_repro ablation_conditional exited nonzero"
        exit 1
    }
    n=0
    fails=0
    for t in "$WORK"/cond_job*.tdt; do
        n=$((n + 1))
        out=$("$TOOL" check "$t" 2>&1) || {
            echo "FAIL: $(basename "$t"): $(printf '%s' "$out" | head -n 1)"
            fails=$((fails + 1))
        }
    done
    [ "$n" -eq 16 ] || { echo "FAIL: found $n traces, want 16"; exit 1; }
    [ "$fails" -eq 0 ] || { echo "$fails of 16 traces failed"; exit 1; }
    echo "all 16 ablation_conditional traces audit clean"
    ;;
refuse)
    t="$WORK/run.tdt"
    "$DRIVER" run is.C TDRAM --ops 100 --warmup 0 --trace "$t" \
        > /dev/null || { echo "FAIL: tdram_cli exited nonzero"; exit 1; }
    case "$4" in
    v1)
        # The version word follows the 4-byte magic.
        printf '\001' | dd of="$t" bs=1 seek=4 count=1 conv=notrunc \
            2>/dev/null
        want="unsupported trace version 1"
        ;;
    v2)
        # Version 2 manifests describe the device alone.
        printf '\002' | dd of="$t" bs=1 seek=4 count=1 conv=notrunc \
            2>/dev/null
        want="unsupported trace version 2 (want 3"
        ;;
    truncated)
        # The 40-byte header, then only 10 bytes of the manifest.
        head -c 50 "$t" > "$t.cut" && mv "$t.cut" "$t"
        want="truncated manifest"
        ;;
    unknown-key)
        patch_after "$t" "dcache.predicto" X
        want="unexpected manifest line 'dcache.predictoX=0' (want key 'dcache.predictor')"
        ;;
    out-of-range)
        patch_after "$t" "dcache.refreshEnabled=" 7
        want="manifest value out of range: dcache.refreshEnabled=7"
        ;;
    channels)
        # In the field's type, but no AddressMap has 3 channels.
        patch_after "$t" "dcache.channels=" 3
        want="dcache.channels is 3: not a power of two"
        ;;
    *)
        echo "unknown case '$4'"
        exit 2
        ;;
    esac
    out=$("$TOOL" check "$t" 2>&1) && {
        echo "FAIL: trace_tool accepted the $4 trace: $out"
        exit 1
    }
    printf '%s' "$out" | grep -qF -- "'$t': $want" || {
        echo "FAIL: want \"'$t': $want\", got: $out"
        exit 1
    }
    echo "$4: refused ($out)"
    ;;
*)
    echo "usage: $0 <trace_tool> ablation <tdram_repro>"
    echo "       $0 <trace_tool> refuse <tdram_cli> <case>"
    exit 2
    ;;
esac
