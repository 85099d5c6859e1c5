#!/usr/bin/env bash
# Build and run the test suite under the sanitizer presets defined in
# CMakePresets.json.
#
#   ASan + UBSan : full tdram_tests suite (memory errors, UB in the
#                  event kernel's placement-new / pool machinery and
#                  the channel scheduler's slab pool / intrusive
#                  lists / inline-callable moves).
#   TSan         : SweepRunner tests, the channel stress tests,
#                  the channel scheduler's pinned-digest streams, the
#                  conformance matrix, and a 4-worker end-to-end
#                  tdram_repro fig01 (8 runs, each writing a .tdt
#                  trace) — SweepRunner is the one part of the
#                  simulator that spawns threads. Each simulation is
#                  single-threaded, and a full TSan run of the whole
#                  suite takes far longer for no extra coverage.
#
# Usage: tests/run_sanitizers.sh [asan|ubsan|tsan ...]
#        (no args = all three, in order)

set -euo pipefail
cd "$(dirname "$0")/.."

jobs=$(nproc 2>/dev/null || echo 2)
sanitizers=("$@")
[ ${#sanitizers[@]} -eq 0 ] && sanitizers=(asan ubsan tsan)

for san in "${sanitizers[@]}"; do
    echo "=== [$san] configure + build ==="
    cmake --preset "$san" >/dev/null
    cmake --build "build-$san" --target tdram_tests -j "$jobs"
    [ "$san" = tsan ] &&
        cmake --build "build-$san" --target tdram_repro -j "$jobs"

    echo "=== [$san] run ==="
    case "$san" in
        tsan)
            TSAN_OPTIONS="halt_on_error=1" \
                "./build-$san/tests/tdram_tests" \
                --gtest_filter='SweepRunner*:*ChannelStress*:*ChannelSched*:*Conformance*'
            tsan_work=$(mktemp -d)
            TSAN_OPTIONS="halt_on_error=1" \
                "./build-$san/bench/tdram_repro" fig01 --ops 1500 \
                --warmup 20000 --jobs 4 --trace "$tsan_work/tsan" \
                > /dev/null
            rm -rf "$tsan_work"
            ;;
        asan)
            ASAN_OPTIONS="detect_leaks=1" \
                "./build-$san/tests/tdram_tests"
            ;;
        *)
            UBSAN_OPTIONS="print_stacktrace=1" \
                "./build-$san/tests/tdram_tests"
            ;;
    esac
    echo "=== [$san] OK ==="
done
